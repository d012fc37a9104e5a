"""Uncertainty-gated episode loop: the policy acts, high total uncertainty
triggers a language-model consult (:func:`lm.consult`, which owns it), and
the action of an ``ok`` decision overrides.

Modes:

* ``ppo`` — the policy acts alone; the LM is never consulted.
* ``lm``  — the LM is consulted at every step (policy action as fallback).
* ``ask`` — the LM is consulted exactly when total uncertainty >= tau.

Each step's uncertainty is the MC-Dropout estimate at its (episode, step,
cell). A plain dict caches it under the (passes, dropout rate, seed) it was
drawn with, and a miss draws it from the episode's own mask stream, so the
estimate is the same in every run that replays the episode; a threshold
study's trials share one dict. It is logged in every mode so intervention
statistics can be recomputed from logs, and it gates only in ``ask`` mode.
Greedy evaluation is a ``ppo`` episode with no estimates, which logs none.
An LM action never outlives the step it was requested for: every step
starts from the policy's own greedy action.
"""

from __future__ import annotations

import csv
import enum
import io
import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import env as env_mod
from . import lm as lm_mod
from . import policy as policy_mod
from . import uncertainty as unc_mod
from .atomic import write_atomic
from .env import Action, Context, Outcome
from .uncertainty import UncertaintyEstimate

EPISODE_CSV_HEADER = [
    "episode", "step", "obs", "policy_action",
    "u_epistemic", "u_aleatoric", "u_total",
    "consulted", "lm_raw_status", "lm_action", "final_action",
    "overwritten", "reward", "done",
]
CONFIG_PREFIX = "# config "


class RunMode(enum.Enum):
    PPO_ONLY = "ppo"
    LM_ONLY = "lm"
    ASK = "ask"


@dataclass(frozen=True)
class GateConfig:
    tau: float = 0.5
    passes: int = 100
    dropout_rate: float = 0.2
    mode: RunMode = RunMode.ASK
    max_steps: int = env_mod.DEFAULT_MAX_STEPS
    seed: int = 0

    def __post_init__(self):
        if not self.tau >= 0:  # false for NaN too
            raise ValueError(f"tau must be >= 0, got {self.tau}")
        if self.passes < 1:
            raise ValueError("passes must be >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must lie in [0, 1), got {self.dropout_rate}")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


class StepRecord(NamedTuple):
    """One step of an episode, as its CSV row logs it (a NamedTuple, like
    the other records built on every step)."""

    obs_index: int
    policy_action: Action
    uncertainty: UncertaintyEstimate | None   # None when the episode has no uncertainty source
    consulted: bool
    lm_status: str            # "" unless consulted, else the status lm.consult gave
    lm_action: Action | None
    final_action: Action
    overwritten: bool
    reward: int
    done: bool


@dataclass(frozen=True)
class EpisodeRecord:
    context_id: int
    steps: tuple[StepRecord, ...]
    reward: int
    length: int
    outcome: Outcome


MC_DROPOUT = "mc_dropout"  # the default uncertainty source: a fresh estimate dict per episode


def run_episode(
    policy: policy_mod.MlpPolicy,
    client,
    context: Context,
    cfg: GateConfig,
    episode_index: int = 0,
    uncertainty=MC_DROPOUT,
    greedy: dict[int, Action] | None = None,
) -> EpisodeRecord:
    """Play one gated episode; deterministic given cfg.seed, episode_index,
    and a deterministic client.

    ``uncertainty`` caches the estimates as
    ``uncertainty[(passes, dropout_rate, seed)][(episode_index, step, cell)]``.
    A caller may share one dict between runs: each run reads only the inner
    dict of its config's settings. :data:`MC_DROPOUT` gives the episode a
    fresh dict, and None gives no estimate, which ``ask`` mode cannot gate
    on. A miss calls ``mc_estimate`` through its module, so a wrapper set
    there sees every estimate computed.

    The episode draws its masks from its own ``default_rng([seed,
    episode_index])``, made at its first miss. Every step takes
    :func:`policy.draws_per_step` doubles whatever the tau or the path, so
    before a miss the generator skips the draws of the steps the cache
    served, and every run that replays the episode gets the same estimate at
    (episode_index, step, cell). Cached estimates, like ``greedy``, are only
    valid while ``policy.flat`` is unchanged.

    ``greedy`` maps an observed cell to the policy's greedy action there and
    is filled by one ``forward`` per new cell. None starts an empty one for
    this episode. A grid with more cells than the policy's input is refused.
    """
    if cfg.mode is not RunMode.PPO_ONLY and client is None:
        raise ValueError(f"mode {cfg.mode.value} requires a client")
    if cfg.mode is RunMode.ASK and uncertainty is None:
        raise ValueError("mode ask requires an uncertainty source")
    env_mod.check_observation_fits(context.grid.size, policy.input_dim)
    if uncertainty is MC_DROPOUT:
        estimates = {}
    elif uncertainty is not None:
        estimates = uncertainty.setdefault((cfg.passes, cfg.dropout_rate, cfg.seed), {})
    else:
        estimates = None
    rng, drawn = None, 0  # the episode's mask stream and the step it draws next
    greedy = {} if greedy is None else greedy
    state = env_mod.reset(context)
    steps: list[StepRecord] = []
    while not state.done:
        cell = state.cell
        policy_action = greedy.get(cell)
        if policy_action is None:
            dist, _ = policy_mod.forward(policy, cell)
            policy_action = greedy[cell] = policy_mod.select_action(dist)
        estimate = None
        if estimates is not None:
            key = (episode_index, len(steps), cell)
            estimate = estimates.get(key)
            if estimate is None:
                if rng is None:
                    rng = np.random.default_rng([cfg.seed, episode_index])
                    draws = policy_mod.draws_per_step(policy, cfg.passes, cfg.dropout_rate)
                rng.bit_generator.advance((len(steps) - drawn) * draws)
                drawn = len(steps) + 1
                # np.intp: the benchmark's tracer keys MC repeats on tobytes(), which int lacks.
                estimate = estimates[key] = unc_mod.mc_estimate(
                    policy, np.intp(cell), cfg.passes, cfg.dropout_rate, rng)

        if cfg.mode is RunMode.ASK:
            consulted = estimate.total >= cfg.tau
        else:
            consulted = cfg.mode is RunMode.LM_ONLY

        lm_status, lm_action = lm_mod.consult(client, state, policy_action) if consulted else ("", None)
        final_action = policy_action if lm_action is None else lm_action

        state, reward, done = env_mod.step(state, final_action, cfg.max_steps)
        steps.append(StepRecord(
            obs_index=cell,
            policy_action=policy_action,
            uncertainty=estimate,
            consulted=consulted,
            lm_status=lm_status,
            lm_action=lm_action,
            final_action=final_action,
            overwritten=final_action != policy_action,
            reward=reward,
            done=done,
        ))
    return EpisodeRecord(
        context_id=context.id,
        steps=tuple(steps),
        reward=steps[-1].reward,
        length=len(steps),
        outcome=state.outcome,
    )


def run_batch(
    policy: policy_mod.MlpPolicy,
    client,
    contexts,
    cfg: GateConfig,
    total_episodes: int = 100,
    uncertainty=MC_DROPOUT,
) -> list[EpisodeRecord]:
    """Round-robin over contexts; per-episode seeds derive from (seed, index).

    A context whose grid has more cells than the policy's input is refused
    before the first episode.

    The episodes share one greedy-action table, local to this call: the
    parameters are fixed for the call, not between calls. A given
    ``uncertainty`` dict is shared by every episode and kept for later
    calls. With :data:`MC_DROPOUT` each episode makes its own, which dies
    with it: no key repeats within one call, so a dict kept for the call
    would only hold memory.
    """
    contexts = list(contexts)
    if not contexts:
        raise ValueError("run_batch requires at least one context")
    if total_episodes < 1:
        raise ValueError(f"episodes must be at least 1, got {total_episodes}")
    env_mod.check_observation_fits(max(c.grid.size for c in contexts), policy.input_dim)
    greedy: dict[int, Action] = {}
    return [
        run_episode(policy, client, contexts[i % len(contexts)], cfg,
                    episode_index=i, uncertainty=uncertainty, greedy=greedy)
        for i in range(total_episodes)
    ]


def config_line(config: dict) -> str:
    """The first line of a CSV artifact that records ``config``."""
    return CONFIG_PREFIX + json.dumps(config, sort_keys=True, separators=(",", ":")) + "\n"


def csv_text(header, rows, config: dict | None = None) -> str:
    """The CSV artifact format: an optional ``# config <canonical JSON>`` line,
    the header, then the rows, quoted by ``csv.writer`` where a field needs it."""
    buf = io.StringIO()
    if config is not None:
        buf.write(config_line(config))
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def read_csv(path: str) -> tuple[dict, list[str], list[list[str]]]:
    """``(config, header, rows)`` of a CSV artifact; config is ``{}`` without a
    config line. A file that is not UTF-8, a config line that is not a JSON
    object or a row that does not fit the header raises ``ValueError``."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            lines = fh.readlines()
        has_config = bool(lines) and lines[0].startswith(CONFIG_PREFIX)
        config = json.loads(lines[0][len(CONFIG_PREFIX):]) if has_config else {}
    except ValueError as exc:  # not UTF-8, or a config line that is not JSON
        raise ValueError(f"{path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ValueError(f"{path}: the config line must hold a JSON object")
    reader = csv.reader(lines[has_config:])
    header = next(reader, [])
    rows = list(reader)
    for row in rows:
        if len(row) != len(header):
            raise ValueError(f"{path}: a row has {len(row)} fields, the header {len(header)}")
    return config, header, rows


def write_episode_csv(records, path: str, config: dict | None = None) -> None:
    def rows():
        for ep_index, record in enumerate(records):
            for step_index, s in enumerate(record.steps):
                u = s.uncertainty
                yield [
                    ep_index,
                    step_index,
                    s.obs_index,
                    s.policy_action.name,
                    u.epistemic if u else "",
                    u.aleatoric if u else "",
                    u.total if u else "",
                    int(s.consulted),
                    s.lm_status,
                    s.lm_action.name if s.lm_action is not None else "",
                    s.final_action.name,
                    int(s.overwritten),
                    s.reward,
                    int(s.done),
                ]

    write_atomic(path, csv_text(EPISODE_CSV_HEADER, rows(), config))
