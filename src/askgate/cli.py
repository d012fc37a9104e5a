"""Command-line driver for the full experiment protocol.

Subcommands::

    contexts gen   write a context-set file
    train          PPO-train on a context set's train split, save weights
    run            gated episodes in a mode/split, write episode log + summary
    tune           threshold search on the eval split, write a study CSV
    report         merge summary CSVs into a table, or overlay a trajectory

Every subcommand accepts ``--seed`` (an integer >= 0), ``--config <json>``
(flags override file values), and ``--out <dir>``. Artifacts land under
``<out>/contexts``, ``<out>/weights``, ``<out>/episodes``,
``<out>/summaries`` and embed the config snapshot that produced them. Exit
codes: 0 success, 1 usage error, 2 runtime error.
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

_SPLITS = tuple(s.value for s in Split)  # what --split and a recorded split may name


class UsageError(Exception):
    pass


class RuntimeFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through our exit-code scheme."""

    def error(self, message):
        raise UsageError(message)


def _usage(message: str):
    """A handler for a command line that names nothing to run."""
    def handler(args):
        raise UsageError(message)
    return handler


def _seed(text) -> int:
    """``--seed``'s type: an integer >= 0, as NumPy's seeding needs."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="askgate", description=__doc__, add_help=True,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.set_defaults(handler=_usage("missing subcommand (contexts, train, run, tune, report)"))
    sub = parser.add_subparsers(metavar="COMMAND")

    def common(p, handler):
        p.add_argument("--seed", type=_seed, default=0)
        p.add_argument("--config", default=None, help="JSON config file; flags override it")
        p.add_argument("--out", default="runs", help="output directory (default: runs)")
        p.set_defaults(handler=handler, _parser=p)  # its actions type the config file's values

    def gated(p):
        """The options ``run`` and ``tune`` share."""
        p.add_argument("--contexts", default=None)
        p.add_argument("--weights", default=None)
        p.add_argument("--client", default="rule",
                       help="'endpoint' | 'rule' | 'scripted:<file>' (one response per line)")
        p.add_argument("--model", default="default", help="endpoint model name / report label")
        p.add_argument("--episodes", type=int, default=100)
        p.add_argument("--passes", type=int, default=GateConfig.passes)
        p.add_argument("--dropout-rate", type=float, default=GateConfig.dropout_rate)

    ctx = sub.add_parser("contexts", help="context-set operations")
    ctx.set_defaults(handler=_usage("contexts supports exactly one action: gen"))
    ctx_sub = ctx.add_subparsers(metavar="ACTION")
    gen = ctx_sub.add_parser("gen", help="generate a context-set file")
    gen.add_argument("--size", type=int, default=None)
    gen.add_argument("--count", type=int, default=300)
    gen.add_argument("--unsolvable", action="store_true",
                     help="skip the safe corridor; maps may have no path to G (diagnostics)")
    common(gen, _cmd_contexts_gen)

    ppo = trainer_mod.PpoConfig
    tr = sub.add_parser("train", help="train a policy on a context set")
    tr.add_argument("--contexts", default=None, help="context-set file")
    tr.add_argument("--timesteps", type=int, default=ppo.total_timesteps)
    tr.add_argument("--eval-interval", type=int, default=ppo.eval_interval)
    tr.add_argument("--eval-episodes", type=int, default=ppo.eval_episodes)
    tr.add_argument("--name", default=None, help="weights artifact name")
    common(tr, _cmd_train)

    run = sub.add_parser("run", help="evaluate a policy with/without the gate")
    run.add_argument("--mode", choices=[m.value for m in RunMode], default=RunMode.ASK.value)
    run.add_argument("--split", choices=_SPLITS, default=Split.TEST.value)
    run.add_argument("--tau", type=float, default=GateConfig.tau)
    run.add_argument("--max-steps", type=int, default=GateConfig.max_steps)
    gated(run)
    common(run, _cmd_run)

    tune = sub.add_parser("tune", help="search tau on the eval split")
    tune.add_argument("--lo", type=float, default=tuner_mod.DEFAULT_LO)
    tune.add_argument("--hi", type=float, default=tuner_mod.DEFAULT_HI)
    tune.add_argument("--trials", type=int, default=tuner_mod.DEFAULT_TRIALS)
    gated(tune)
    common(tune, _cmd_tune)

    rep = sub.add_parser("report", help="render summaries or a trajectory")
    rep.add_argument("--summaries", nargs="*", default=None, help="summary CSV files")
    rep.add_argument("--format", dest="fmt", choices=["table", "csv"], default="table")
    rep.add_argument("--trajectory", default=None, help="episode CSV to overlay")
    rep.add_argument("--episode", type=int, default=0)
    rep.add_argument("--contexts", default=None,
                     help="context-set file (default: path recorded in the episode CSV)")
    common(rep, _cmd_report)
    return parser


def _config_defaults(args: argparse.Namespace) -> dict:
    """The ``--config`` file's values, checked and typed as the subcommand's
    flags read them, for use as that subcommand's defaults."""
    path = args.config
    if not os.path.exists(path):
        raise RuntimeFailure(f"config file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            values = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise RuntimeFailure(f"unreadable config {path}: {exc}")
    if not isinstance(values, dict):
        raise RuntimeFailure(f"config {path} must hold a JSON object")
    actions = {a.dest: a for a in args._parser._actions if a.dest not in ("help", "config")}
    for key, value in values.items():
        action = actions.get(key)
        if action is None:
            raise RuntimeFailure(f"config {path}: {key!r} is not an option of "
                                 f"{args._parser.prog}; use one of {', '.join(actions)}")
        if action.nargs == 0:
            ok = isinstance(value, bool)
        elif action.nargs == "*":
            ok = isinstance(value, list) and all(isinstance(v, str) for v in value)
        elif action.type is None:
            ok = isinstance(value, str)
        else:  # int or float: a number or a numeric string, never a boolean,
            # and for an int never a fraction, which int() would truncate
            ok = not isinstance(value, bool) and not (
                action.type is not float and isinstance(value, float) and not value.is_integer())
            try:
                values[key] = action.type(value)
            except (TypeError, ValueError, OverflowError, argparse.ArgumentTypeError):
                ok = False
        if not ok or action.choices is not None and values[key] not in action.choices:
            raise RuntimeFailure(f"config {path}: {key!r} does not fit "
                                 f"{action.option_strings[0]}, got {value!r}")
    return values


def _require(args: argparse.Namespace, key: str):
    value = getattr(args, key)
    if value is None:
        raise UsageError(f"missing required --{key.replace('_', '-')}")
    return value


def _writable(path: str) -> str:
    """``path``, once its directory exists."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    return path


def _snapshot(args: argparse.Namespace, cmd: str, **overrides) -> dict:
    """What a command's ``# config`` line records: ``cmd``, every option of its
    parser but ``--config``, ``--out`` and ``--name``, then ``overrides``."""
    snapshot = {"cmd": cmd}
    for action in args._parser._actions:
        if action.dest not in ("help", "config", "out", "name"):
            snapshot[action.dest] = getattr(args, action.dest)
    return {**snapshot, **overrides}


def _refuse_overwrite(snapshot: dict, *paths: str) -> None:
    """Stop before a command replaces a CSV that another config line wrote."""
    line = gate_mod.config_line(snapshot)
    for path in paths:
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8", newline="") as fh:
                if fh.readline() != line:
                    raise RuntimeFailure(f"{path} holds the results of another config; "
                                         f"remove it or choose another --out")


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


def _make_client(spec: str, model: str):
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


def _cmd_contexts_gen(args: argparse.Namespace) -> int:
    size, count, seed = _require(args, "size"), args.count, args.seed
    try:
        context_set = env_mod.generate_context_set(size, count, seed, solvable=not args.unsolvable)
    except ValueError as exc:
        raise RuntimeFailure(f"generation failed: {exc}")
    path = os.path.join(args.out, "contexts", f"s{size}_c{count}_seed{seed}.txt")
    env_mod.save_context_set(context_set, _writable(path))
    print(f"wrote {path} ({count} maps, size {size}, seed {seed})")
    return EXIT_OK


def _cmd_train(args: argparse.Namespace) -> int:
    context_set = _load_contexts(_require(args, "contexts"))
    ppo = trainer_mod.PpoConfig(
        total_timesteps=args.timesteps, eval_interval=args.eval_interval,
        eval_episodes=args.eval_episodes, seed=args.seed,
    )
    outdir = os.path.join(args.out, "weights")
    name = _safe_name(args.name or f"w{context_set.size}_seed{args.seed}")
    weights_path = os.path.join(outdir, f"{name}.bin")
    trainlog_path = os.path.join(outdir, f"{name}_trainlog.csv")
    snapshot = _snapshot(args, "train", size=context_set.size)
    _refuse_overwrite(snapshot, trainlog_path)  # before any training time is spent
    policy, log = trainer_mod.train(
        context_set.split(Split.TRAIN), context_set.split(Split.EVAL), ppo
    )
    policy_mod.save_weights(policy, _writable(weights_path))
    write_atomic(os.path.join(outdir, f"{name}.meta.json"),
                 json.dumps(snapshot, sort_keys=True, indent=2) + "\n")
    trainer_mod.write_trainlog_csv(log, trainlog_path, snapshot)
    for warning in log.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    best = log.entries[log.best_index] if log.best_index >= 0 else None
    best_text = f"best eval reward {best.reward_mean:.2f} at timestep {best.timestep}" if best else "no evaluations"
    print(f"wrote {weights_path} ({best_text})")
    return EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    mode, split, seed = RunMode(args.mode), Split(args.split), args.seed
    context_set = _load_contexts(_require(args, "contexts"))
    gate_cfg = GateConfig(tau=args.tau, passes=args.passes, dropout_rate=args.dropout_rate,
                          mode=mode, max_steps=args.max_steps, seed=seed)
    policy = _load_weights(_require(args, "weights"))
    client, label = (None, "ppo") if mode is RunMode.PPO_ONLY else _make_client(
        args.client, args.model
    )
    contexts = context_set.split(split)
    if not contexts:
        raise RuntimeFailure(f"context set has no {split.value} contexts")
    snapshot = _snapshot(args, "run", client="" if client is None else args.client,
                         model=label, size=context_set.size)
    run_id = _safe_name(
        f"{mode.value}_{label}_{split.value}_s{context_set.size}_tau{args.tau:g}_seed{seed}"
    )
    episodes_path = os.path.join(args.out, "episodes", f"{run_id}.csv")
    summary_path = os.path.join(args.out, "summaries", f"{run_id}.csv")
    _refuse_overwrite(snapshot, episodes_path, summary_path)
    records = gate_mod.run_batch(policy, client, contexts, gate_cfg, total_episodes=args.episodes)
    summary = metrics_mod.aggregate(records)
    row = metrics_mod.SummaryRow(
        size=context_set.size, model=label, mode=mode.value, split=split.value,
        tau=args.tau, seed=seed, summary=summary,
    )
    gate_mod.write_episode_csv(records, _writable(episodes_path), snapshot)
    metrics_mod.write_summary_csv([row], _writable(summary_path), snapshot)
    print(metrics_mod.render_report([row], "table"), end="")
    print(f"wrote {episodes_path}")
    print(f"wrote {summary_path}")
    return EXIT_OK


def _cmd_tune(args: argparse.Namespace) -> int:
    seed = args.seed
    context_set = _load_contexts(_require(args, "contexts"))
    gate_cfg = GateConfig(passes=args.passes, dropout_rate=args.dropout_rate, seed=seed)
    policy = _load_weights(_require(args, "weights"))
    client, label = _make_client(args.client, args.model)
    snapshot = _snapshot(args, "tune", model=label, size=context_set.size)
    path = os.path.join(args.out, "summaries",
                        _safe_name(f"tune_{label}_s{context_set.size}_seed{seed}.csv"))
    _refuse_overwrite(snapshot, path)
    study = tuner_mod.tune_threshold(
        policy, client, context_set.split(Split.EVAL), lo=args.lo, hi=args.hi,
        trials=args.trials, seed=seed, episodes_per_trial=args.episodes, gate=gate_cfg,
    )
    tuner_mod.write_study_csv(study, _writable(path), snapshot)
    print(f"best tau {study.best_tau!r} (mean reward {study.best_reward:.2f} over "
          f"{study.trials} trials)")
    print(f"wrote {path}")
    return EXIT_OK


def _recorded(snapshot: dict, key: str, kind: type, default, path: str, allowed=None):
    """``snapshot[key]``, or ``default`` without the key; a value of another JSON
    type (a bool or a float is no int here), or one not in ``allowed``, raises
    ``RuntimeFailure``."""
    value = snapshot.get(key, default)
    if key in snapshot and (type(value) is not kind
                            or allowed is not None and value not in allowed):
        need = "a string" if kind is str else "an integer"
        raise RuntimeFailure(f"{path}: config key {key!r} holds {json.dumps(value)}, "
                             f"not {need}{'' if allowed is None else f' in {allowed}'}")
    return value


def _cmd_report(args: argparse.Namespace) -> int:
    trajectory = args.trajectory
    if trajectory:
        episode = args.episode
        if not os.path.exists(trajectory):
            raise RuntimeFailure(f"episode CSV not found: {trajectory}")
        snapshot, header, rows = gate_mod.read_csv(trajectory)
        if header != gate_mod.EPISODE_CSV_HEADER:
            raise RuntimeFailure(f"not an episode CSV: {trajectory}")
        episode_col, action_col = header.index("episode"), header.index("final_action")
        try:
            actions = [env_mod.Action[row[action_col]] for row in rows
                       if int(row[episode_col]) == episode]
        except KeyError as exc:
            raise RuntimeFailure(
                f"{trajectory}: final_action {exc.args[0]!r} is not an action name")
        except ValueError:
            raise RuntimeFailure(f"{trajectory}: a cell of the episode column is not an integer")
        if not actions:
            raise RuntimeFailure(f"episode {episode} not present in {trajectory}")
        contexts_path = args.contexts or _recorded(snapshot, "contexts", str, None, trajectory)
        if contexts_path is None:
            raise UsageError("--contexts required (episode CSV carries no context path)")
        context_set = _load_contexts(contexts_path)
        size = _recorded(snapshot, "size", int, context_set.size, trajectory)
        if size != context_set.size:
            raise RuntimeFailure(f"context set {contexts_path} holds size {context_set.size} "
                                 f"maps, but {trajectory} was run on size {size}")
        split = Split(_recorded(snapshot, "split", str, "test", trajectory, _SPLITS))
        pool = context_set.split(split)
        if not pool:
            raise RuntimeFailure(f"context set has no {split.value} contexts")
        context = pool[episode % len(pool)]
        cap = _recorded(snapshot, "max_steps", int, env_mod.DEFAULT_MAX_STEPS, trajectory,
                        range(1, sys.maxsize))  # at least 1, as GateConfig requires
        print(metrics_mod.render_trajectory(context, actions, cap), end="")
        return EXIT_OK

    if not args.summaries:
        raise UsageError("report needs --summaries files or --trajectory")
    rows = []
    for path in args.summaries:
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
    print(metrics_mod.render_report(rows, args.fmt), end="")
    return EXIT_OK


def dispatch(argv) -> int:
    """Parse ``argv``; with ``--config``, parse it again over the file's values,
    so a flag beats the file and the file beats the parser's default."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        args._parser.set_defaults(**_config_defaults(args))
        args = parser.parse_args(argv)
    return args.handler(args)


def main(argv=None) -> int:
    try:
        return dispatch(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RuntimeFailure, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
