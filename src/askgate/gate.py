"""Uncertainty-gated episode loop: the policy acts, high total uncertainty
triggers a language-model consultation, and a valid parsed action overrides.

Modes:

* ``ppo`` — the policy acts alone; the LM is never consulted.
* ``lm``  — the LM is consulted at every step (policy action as fallback).
* ``ask`` — the LM is consulted exactly when total uncertainty >= tau.

Each step's uncertainty is the MC-Dropout estimate at its (episode, step,
cell), read from an :class:`EstimateTable`, which computes each one once; a
threshold study's trials share one. It is logged in every mode so
intervention statistics can be recomputed from logs, and it gates only in
``ask`` mode. Greedy evaluation is a ``ppo`` episode with no table, which
logs none. An LM action never outlives the step it was requested for: every
step starts from the policy's own greedy action.
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
    lm_status: str            # "" | ok | parse_failure | invalid_action | transport_error
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


MC_DROPOUT = "mc_dropout"  # the default uncertainty source: a fresh EstimateTable per episode


class EstimateTable:
    """MC-Dropout estimates keyed by (episode_index, step, cell).

    Episode ``i`` draws its masks from ``default_rng([seed, i])``, and each
    step draws :func:`policy.draws_per_step` doubles whatever the tau or the
    path. So the generator's state at step t is fixed, and the estimate at
    (i, t, cell) is the same in every run that replays episode i: the table
    computes it once. The table keeps the last generator it handed out and
    the (episode, step) that generator draws next. A miss there continues
    it; any other miss makes the episode's generator afresh and moves it to
    step t with ``bit_generator.advance``.

    A table is valid for the parameters ``policy.flat`` holds and for the
    passes, dropout rate and seed of the config it was made from; it is
    local to one episode or one threshold study.
    """

    def __init__(self, policy: policy_mod.MlpPolicy, cfg: GateConfig):
        self.settings = (cfg.passes, cfg.dropout_rate, cfg.seed)
        self.estimates: dict[tuple[int, int, int], UncertaintyEstimate] = {}
        self._draws = policy_mod.draws_per_step(policy, cfg.passes, cfg.dropout_rate)
        self._rng: np.random.Generator | None = None
        self._next: tuple[int, int] | None = None  # the (episode, step) _rng draws next

    def generator(self, episode_index: int, step: int) -> np.random.Generator:
        """Episode ``episode_index``'s generator at the first draw of ``step``;
        the caller draws that step's masks from it."""
        if self._next != (episode_index, step):
            self._rng = np.random.default_rng([self.settings[2], episode_index])
            self._rng.bit_generator.advance(step * self._draws)
        self._next = (episode_index, step + 1)
        return self._rng


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

    ``uncertainty`` is the :class:`EstimateTable` that gives each step's
    estimate, :data:`MC_DROPOUT` for a fresh one, or None for no estimate,
    which ``ask`` mode cannot gate on. A miss calls ``mc_estimate`` through
    its module, so a wrapper set there sees every estimate computed.
    ``greedy`` maps an observed cell to the policy's greedy action there and
    is filled by one ``forward`` per new cell; it is only valid while
    ``policy.flat`` is unchanged. None starts an empty one for this episode.
    """
    if cfg.mode is not RunMode.PPO_ONLY and client is None:
        raise ValueError(f"mode {cfg.mode.value} requires a client")
    if cfg.mode is RunMode.ASK and uncertainty is None:
        raise ValueError("mode ask requires an uncertainty source")
    if uncertainty is MC_DROPOUT:
        uncertainty = EstimateTable(policy, cfg)
    elif uncertainty is not None and uncertainty.settings != (cfg.passes, cfg.dropout_rate, cfg.seed):
        raise ValueError(f"the estimate table holds (passes, dropout_rate, seed) "
                         f"{uncertainty.settings}, not those of the config")
    greedy = {} if greedy is None else greedy
    # The cell index comes from the state; the map's own size, not the
    # policy's input width, since a policy may run on smaller maps.
    n = context.grid.size
    state = env_mod.reset(context)
    steps: list[StepRecord] = []
    while not state.done:
        obs_index = state.row * n + state.col
        obs = None  # the one-hot, built only for a forward or an estimate
        policy_action = greedy.get(obs_index)
        if policy_action is None:
            obs = env_mod.encode_observation(state, dim=policy.input_dim)
            dist, _ = policy_mod.forward(policy, obs)
            policy_action = greedy[obs_index] = policy_mod.select_action(dist)
        estimate = None
        if uncertainty is not None:
            key = (episode_index, len(steps), obs_index)
            estimate = uncertainty.estimates.get(key)
            if estimate is None:
                if obs is None:
                    obs = env_mod.encode_observation(state, dim=policy.input_dim)
                rng = uncertainty.generator(episode_index, len(steps))
                estimate = uncertainty.estimates[key] = unc_mod.mc_estimate(
                    policy, obs, cfg.passes, cfg.dropout_rate, rng)

        if cfg.mode is RunMode.ASK:
            consulted = estimate.total >= cfg.tau
        else:
            consulted = cfg.mode is RunMode.LM_ONLY

        lm_status = ""
        lm_action: Action | None = None
        final_action = policy_action
        if consulted:
            view = env_mod.local_view(state)
            prompt = lm_mod.build_prompt(lm_mod.PromptContext(**view, autopilot=policy_action))
            try:
                raw = lm_mod.query(client, prompt)
            except lm_mod.LmTransportError:
                lm_status = "transport_error"
            else:
                decision = lm_mod.parse_decision(raw)
                lm_status = decision.status
                if decision.is_action:
                    lm_action = decision.action
                    final_action = decision.action

        state, reward, done = env_mod.step(state, final_action, cfg.max_steps)
        steps.append(StepRecord(
            obs_index=obs_index,
            policy_action=policy_action,
            uncertainty=estimate,
            consulted=consulted,
            lm_status=lm_status,
            lm_action=lm_action,
            final_action=final_action,
            overwritten=lm_action is not None and lm_action != policy_action,
            reward=reward,
            done=done,
        ))
    return EpisodeRecord(
        context_id=context.id,
        steps=tuple(steps),
        reward=1 if state.outcome is Outcome.GOAL else 0,
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
    :class:`EstimateTable` is shared by every episode and kept for later
    calls. With :data:`MC_DROPOUT` each episode makes its own, which dies
    with it: no key repeats within one call, so a table kept for the call
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
    config line. A row that does not fit the header raises ``ValueError``."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        first = fh.readline()
        if first.startswith(CONFIG_PREFIX):
            config = json.loads(first[len(CONFIG_PREFIX):])
            if not isinstance(config, dict):
                raise ValueError(f"{path}: the config line must hold a JSON object")
        else:
            config = {}
            fh.seek(0)
        reader = csv.reader(fh)
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
                    repr(u.epistemic) if u else "",
                    repr(u.aleatoric) if u else "",
                    repr(u.total) if u else "",
                    int(s.consulted),
                    s.lm_status,
                    s.lm_action.name if s.lm_action is not None else "",
                    s.final_action.name,
                    int(s.overwritten),
                    s.reward,
                    int(s.done),
                ]

    write_atomic(path, csv_text(EPISODE_CSV_HEADER, rows(), config))
