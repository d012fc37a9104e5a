"""Command-line driver for the full experiment protocol.

Subcommands::

    contexts gen   write a context-set file
    train          PPO-train on a context set's train split, save weights
    run            gated episodes in a mode/split, write episode log + summary
    tune           threshold search on the eval split, write a study CSV
    report         merge summary CSVs into a table, or overlay a trajectory

Every subcommand accepts ``--seed``, ``--config <json>`` (flags override file
values), and ``--out <dir>``. Artifacts land under ``<out>/contexts``,
``<out>/weights``, ``<out>/episodes``, ``<out>/summaries`` and embed the
config snapshot that produced them. Exit codes: 0 success, 1 usage error,
2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import env as env_mod
from . import gate as gate_mod
from . import lm as lm_mod
from . import metrics as metrics_mod
from . import policy as policy_mod
from . import trainer as trainer_mod
from . import tuner as tuner_mod
from .atomic import write_atomic
from .env import Split
from .gate import GateConfig, RunMode

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2


class UsageError(Exception):
    pass


class RuntimeFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through our exit-code scheme."""

    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="askgate", description=__doc__, add_help=True,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def common(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--config", default=None, help="JSON config file; flags override it")
        p.add_argument("--out", default=None, help="output directory (default: runs)")
        p.set_defaults(_parser=p)  # its actions type the config file's values

    ctx = sub.add_parser("contexts", help="context-set operations")
    ctx_sub = ctx.add_subparsers(dest="contexts_command", metavar="ACTION")
    gen = ctx_sub.add_parser("gen", help="generate a context-set file")
    gen.add_argument("--size", type=int, default=None)
    gen.add_argument("--count", type=int, default=None)
    gen.add_argument("--unsolvable", action="store_true",
                     help="skip the safe corridor and reachability check (diagnostics)")
    common(gen)

    tr = sub.add_parser("train", help="train a policy on a context set")
    tr.add_argument("--contexts", default=None, help="context-set file")
    tr.add_argument("--timesteps", type=int, default=None)
    tr.add_argument("--eval-interval", type=int, default=None)
    tr.add_argument("--eval-episodes", type=int, default=None)
    tr.add_argument("--name", default=None, help="weights artifact name")
    common(tr)

    run = sub.add_parser("run", help="evaluate a policy with/without the gate")
    run.add_argument("--mode", choices=[m.value for m in RunMode], default=None)
    run.add_argument("--split", choices=[s.value for s in Split], default=None)
    run.add_argument("--contexts", default=None)
    run.add_argument("--weights", default=None)
    run.add_argument("--client", default=None,
                     help="'endpoint' | 'rule' | 'scripted:<file>' (one response per line)")
    run.add_argument("--model", default=None, help="endpoint model name / report label")
    run.add_argument("--tau", type=float, default=None)
    run.add_argument("--passes", type=int, default=None)
    run.add_argument("--dropout-rate", type=float, default=None)
    run.add_argument("--episodes", type=int, default=None)
    run.add_argument("--max-steps", type=int, default=None)
    common(run)

    tune = sub.add_parser("tune", help="search tau on the eval split")
    tune.add_argument("--contexts", default=None)
    tune.add_argument("--weights", default=None)
    tune.add_argument("--client", default=None)
    tune.add_argument("--model", default=None)
    tune.add_argument("--lo", type=float, default=None)
    tune.add_argument("--hi", type=float, default=None)
    tune.add_argument("--trials", type=int, default=None)
    tune.add_argument("--episodes", type=int, default=None)
    tune.add_argument("--passes", type=int, default=None)
    tune.add_argument("--dropout-rate", type=float, default=None)
    common(tune)

    rep = sub.add_parser("report", help="render summaries or a trajectory")
    rep.add_argument("--summaries", nargs="*", default=None, help="summary CSV files")
    rep.add_argument("--format", dest="fmt", choices=["table", "csv"], default=None)
    rep.add_argument("--trajectory", default=None, help="episode CSV to overlay")
    rep.add_argument("--episode", type=int, default=None)
    rep.add_argument("--contexts", default=None,
                     help="context-set file (default: path recorded in the episode CSV)")
    common(rep)
    return parser


class _Config:
    """Resolution order: CLI flag, then config-file key, then default."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.file: dict = {}
        if args.config:
            if not os.path.exists(args.config):
                raise RuntimeFailure(f"config file not found: {args.config}")
            try:
                with open(args.config, "r", encoding="utf-8") as fh:
                    self.file = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise RuntimeFailure(f"unreadable config {args.config}: {exc}")
            if not isinstance(self.file, dict):
                raise RuntimeFailure(f"config {args.config} must hold a JSON object")
            for action in args._parser._actions:
                if action.dest not in self.file:
                    continue
                value = self.file[action.dest]
                if action.nargs == 0:
                    ok = isinstance(value, bool)
                elif action.nargs == "*":
                    ok = isinstance(value, list) and all(isinstance(v, str) for v in value)
                elif action.type is None:
                    ok = isinstance(value, str)
                else:  # int or float: a number or a numeric string, never a boolean
                    ok = not isinstance(value, bool)
                    try:
                        self.file[action.dest] = action.type(value)
                    except (TypeError, ValueError, OverflowError):
                        ok = False
                if not ok:
                    raise RuntimeFailure(f"config {args.config}: {action.dest!r} does not fit "
                                         f"{action.option_strings[0]}, got {value!r}")

    def get(self, key: str, default=None):
        flag = getattr(self.args, key, None)
        if flag is not None and flag is not False:
            return flag
        if key in self.file:
            return self.file[key]
        return default

    def require(self, key: str):
        value = self.get(key)
        if value is None:
            raise UsageError(f"missing required --{key.replace('_', '-')}")
        return value


def _outdir(cfg: _Config, kind: str) -> str:
    base = cfg.get("out", "runs")
    path = os.path.join(base, kind)
    os.makedirs(path, exist_ok=True)
    return path


def _load_contexts(path: str) -> env_mod.ContextSet:
    if not os.path.exists(path):
        raise RuntimeFailure(f"context-set file not found: {path}")
    try:
        return env_mod.load_context_set(path)
    except ValueError as exc:
        raise RuntimeFailure(f"bad context-set file {path}: {exc}")


def _load_weights(path: str) -> policy_mod.MlpPolicy:
    if not os.path.exists(path):
        raise RuntimeFailure(f"weights file not found: {path}")
    try:
        return policy_mod.load_weights(path)
    except policy_mod.WeightsError as exc:
        raise RuntimeFailure(f"bad weights file {path}: {exc}")


def _make_client(spec: str | None, model: str):
    if spec is None or spec == "":
        return None, "ppo"
    if spec == "rule":
        return lm_mod.RuleClient(), "rule"
    if spec == "endpoint":
        try:
            client = lm_mod.EndpointClient(model=model)
        except ValueError as exc:
            raise RuntimeFailure(str(exc))
        return client, model
    if spec.startswith("scripted:"):
        path = spec.split(":", 1)[1]
        if not os.path.exists(path):
            raise RuntimeFailure(f"scripted-response file not found: {path}")
        with open(path, "r", encoding="utf-8") as fh:
            responses = [line.rstrip("\n") for line in fh]
        return lm_mod.ScriptedClient(responses), "scripted"
    raise UsageError(f"unknown client spec: {spec!r} (use endpoint, rule, or scripted:<file>)")


def _safe_name(text: str) -> str:
    return "".join(c if c.isalnum() or c in "._-" else "-" for c in text)


def _cmd_contexts_gen(cfg: _Config) -> int:
    size = cfg.require("size")
    count = cfg.get("count", 300)
    seed = cfg.get("seed", 0)
    solvable = not cfg.get("unsolvable", False)
    try:
        context_set = env_mod.generate_context_set(size, count, seed, solvable=solvable)
    except (ValueError, env_mod.MapGenerationError) as exc:
        raise RuntimeFailure(f"generation failed: {exc}")
    outdir = _outdir(cfg, "contexts")
    path = os.path.join(outdir, f"s{size}_c{count}_seed{seed}.txt")
    env_mod.save_context_set(context_set, path)
    print(f"wrote {path} ({count} maps, size {size}, seed {seed})")
    return EXIT_OK


def _cmd_train(cfg: _Config) -> int:
    contexts_path = cfg.require("contexts")
    context_set = _load_contexts(contexts_path)
    seed = cfg.get("seed", 0)
    ppo = trainer_mod.PpoConfig(
        total_timesteps=cfg.get("timesteps", trainer_mod.PpoConfig.total_timesteps),
        eval_interval=cfg.get("eval_interval", trainer_mod.PpoConfig.eval_interval),
        eval_episodes=cfg.get("eval_episodes", trainer_mod.PpoConfig.eval_episodes),
        seed=seed,
    )
    policy, log = trainer_mod.train(
        context_set.split(Split.TRAIN), context_set.split(Split.EVAL), ppo
    )
    outdir = _outdir(cfg, "weights")
    name = _safe_name(cfg.get("name", f"w{context_set.size}_seed{seed}"))
    weights_path = os.path.join(outdir, f"{name}.bin")
    policy_mod.save_weights(policy, weights_path)
    snapshot = {
        "cmd": "train", "contexts": contexts_path, "seed": seed,
        "timesteps": ppo.total_timesteps, "eval_interval": ppo.eval_interval,
        "eval_episodes": ppo.eval_episodes, "size": context_set.size,
    }
    write_atomic(os.path.join(outdir, f"{name}.meta.json"),
                 json.dumps(snapshot, sort_keys=True, indent=2) + "\n")
    trainer_mod.write_trainlog_csv(log, os.path.join(outdir, f"{name}_trainlog.csv"), snapshot)
    for warning in log.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    best = log.entries[log.best_index] if log.best_index >= 0 else None
    best_text = f"best eval reward {best.reward_mean:.2f} at timestep {best.timestep}" if best else "no evaluations"
    print(f"wrote {weights_path} ({best_text})")
    return EXIT_OK


def _gate_config(cfg: _Config, mode: RunMode, seed: int) -> GateConfig:
    return GateConfig(
        tau=cfg.get("tau", GateConfig.tau),
        passes=cfg.get("passes", GateConfig.passes),
        dropout_rate=cfg.get("dropout_rate", GateConfig.dropout_rate),
        mode=mode,
        max_steps=cfg.get("max_steps", GateConfig.max_steps),
        seed=seed,
    )


def _cmd_run(cfg: _Config) -> int:
    mode = RunMode(cfg.get("mode", "ask"))
    split = Split(cfg.get("split", "test"))
    seed = cfg.get("seed", 0)
    context_set = _load_contexts(cfg.require("contexts"))
    gate_cfg = _gate_config(cfg, mode, seed)
    policy = _load_weights(cfg.require("weights"))
    client, label = (None, "ppo") if mode is RunMode.PPO_ONLY else _make_client(
        cfg.get("client", "rule"), cfg.get("model", "default")
    )
    episodes = cfg.get("episodes", 100)
    contexts = context_set.split(split)
    if not contexts:
        raise RuntimeFailure(f"context set has no {split.value} contexts")
    records = gate_mod.run_batch(policy, client, contexts, gate_cfg, total_episodes=episodes)
    summary = metrics_mod.aggregate(records)
    row = metrics_mod.SummaryRow(
        size=context_set.size, model=label, mode=mode.value, split=split.value,
        tau=gate_cfg.tau, seed=seed, summary=summary,
    )
    snapshot = {
        "cmd": "run", "mode": mode.value, "split": split.value,
        "contexts": cfg.require("contexts"), "weights": cfg.require("weights"),
        "client": cfg.get("client", "rule") if mode is not RunMode.PPO_ONLY else "",
        "model": label, "tau": gate_cfg.tau, "passes": gate_cfg.passes,
        "dropout_rate": gate_cfg.dropout_rate, "episodes": episodes,
        "max_steps": gate_cfg.max_steps, "seed": seed, "size": context_set.size,
    }
    run_id = _safe_name(
        f"{mode.value}_{label}_{split.value}_s{context_set.size}_tau{gate_cfg.tau:g}_seed{seed}"
    )
    episodes_path = os.path.join(_outdir(cfg, "episodes"), f"{run_id}.csv")
    gate_mod.write_episode_csv(records, episodes_path, snapshot)
    summary_path = os.path.join(_outdir(cfg, "summaries"), f"{run_id}.csv")
    metrics_mod.write_summary_csv([row], summary_path, snapshot)
    print(metrics_mod.render_report([row], "table"), end="")
    print(f"wrote {episodes_path}")
    print(f"wrote {summary_path}")
    return EXIT_OK


def _cmd_tune(cfg: _Config) -> int:
    seed = cfg.get("seed", 0)
    context_set = _load_contexts(cfg.require("contexts"))
    gate_cfg = _gate_config(cfg, RunMode.ASK, seed)
    policy = _load_weights(cfg.require("weights"))
    client, label = _make_client(cfg.get("client", "rule"), cfg.get("model", "default"))
    if client is None:
        raise UsageError("tune requires a client (the gate must have someone to ask)")
    study = tuner_mod.tune_threshold(
        policy, client, context_set.split(Split.EVAL),
        lo=cfg.get("lo", tuner_mod.DEFAULT_LO),
        hi=cfg.get("hi", tuner_mod.DEFAULT_HI),
        trials=cfg.get("trials", tuner_mod.DEFAULT_TRIALS),
        seed=seed,
        episodes_per_trial=cfg.get("episodes", 100),
        gate=gate_cfg,
    )
    snapshot = {
        "cmd": "tune", "contexts": cfg.require("contexts"),
        "weights": cfg.require("weights"), "client": cfg.get("client", "rule"),
        "model": label, "lo": study.lo, "hi": study.hi, "trials": study.trials,
        "episodes": cfg.get("episodes", 100), "passes": gate_cfg.passes,
        "dropout_rate": gate_cfg.dropout_rate, "seed": seed, "size": context_set.size,
    }
    path = os.path.join(
        _outdir(cfg, "summaries"),
        _safe_name(f"tune_{label}_s{context_set.size}_seed{seed}.csv"),
    )
    tuner_mod.write_study_csv(study, path, snapshot)
    print(f"best tau {study.best_tau!r} (mean reward {study.best_reward:.2f} over "
          f"{study.trials} trials)")
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_report(cfg: _Config) -> int:
    trajectory = cfg.get("trajectory")
    if trajectory:
        episode = cfg.get("episode", 0)
        if not os.path.exists(trajectory):
            raise RuntimeFailure(f"episode CSV not found: {trajectory}")
        snapshot, header, rows = gate_mod.read_csv(trajectory)
        if header != gate_mod.EPISODE_CSV_HEADER:
            raise RuntimeFailure(f"not an episode CSV: {trajectory}")
        episode_col, action_col = header.index("episode"), header.index("final_action")
        actions = [env_mod.Action[row[action_col]] for row in rows
                   if int(row[episode_col]) == episode]
        if not actions:
            raise RuntimeFailure(f"episode {episode} not present in {trajectory}")
        contexts_path = cfg.get("contexts", snapshot.get("contexts"))
        if not contexts_path:
            raise UsageError("--contexts required (episode CSV carries no context path)")
        context_set = _load_contexts(contexts_path)
        size = snapshot.get("size", context_set.size)
        if size != context_set.size:
            raise RuntimeFailure(f"context set {contexts_path} holds size {context_set.size} "
                                 f"maps, but {trajectory} was run on size {size}")
        split = Split(snapshot.get("split", "test"))
        pool = context_set.split(split)
        if not pool:
            raise RuntimeFailure(f"context set has no {split.value} contexts")
        context = pool[episode % len(pool)]
        cap = int(snapshot.get("max_steps", env_mod.DEFAULT_MAX_STEPS))
        print(metrics_mod.render_trajectory(context, actions, cap), end="")
        return EXIT_OK

    paths = cfg.get("summaries") or []
    if not paths:
        raise UsageError("report needs --summaries files or --trajectory")
    rows = []
    for path in paths:
        if not os.path.exists(path):
            raise RuntimeFailure(f"summary file not found: {path}")
        if gate_mod.read_csv(path)[1] == tuner_mod.STUDY_CSV_HEADER:
            print(f"skipping tune study {path}", file=sys.stderr)
            continue
        try:
            rows.extend(metrics_mod.read_summary_csv(path))
        except ValueError as exc:
            raise RuntimeFailure(str(exc))
    if not rows:
        raise RuntimeFailure("no summary rows found in the given files")
    print(metrics_mod.render_report(rows, cfg.get("fmt", "table")), end="")
    return EXIT_OK


def dispatch(argv) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        raise UsageError("missing subcommand (contexts, train, run, tune, report)")
    if args.command == "contexts":
        if getattr(args, "contexts_command", None) != "gen":
            raise UsageError("contexts supports exactly one action: gen")
        return _cmd_contexts_gen(_Config(args))
    handlers = {
        "train": _cmd_train,
        "run": _cmd_run,
        "tune": _cmd_tune,
        "report": _cmd_report,
    }
    return handlers[args.command](_Config(args))


def main(argv=None) -> int:
    try:
        return dispatch(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (env_mod.MapGenerationError, policy_mod.WeightsError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
