"""Seeded random search over the consultation threshold tau.

Ten uniform trials over a bounded 1-D range stand in for a Bayesian
optimizer: trial 1 is pinned to the midpoint as a reproducibility anchor,
the rest are drawn from the study seed. The best tau maximizes mean eval
reward with ties resolved toward the larger tau (fewer consultations at
equal reward). Tuning only ever sees Eval-split contexts; the constructor
refuses anything else, and each trial records the context ids it touched so
the caller can audit them; the study CSV holds no ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import metrics as metrics_mod
from .atomic import write_atomic
from .env import Split
from .gate import EstimateTable, GateConfig, RunMode, csv_text, run_batch
from .policy import MlpPolicy

DEFAULT_LO = 0.10
DEFAULT_HI = 1.20
DEFAULT_TRIALS = 10

STUDY_CSV_HEADER = ["trial", "tau", "reward_mean", "reward_std", "ir_pct", "or_pct"]


@dataclass(frozen=True)
class TrialRecord:
    trial: int                      # 1-based
    tau: float
    reward_mean: float
    reward_std: float
    ir_percent: float
    or_percent: float
    context_ids: tuple[int, ...]    # audit trail: contexts this trial touched


@dataclass(frozen=True)
class TuneStudy:
    lo: float
    hi: float
    trials: int
    seed: int
    records: tuple[TrialRecord, ...]
    best_tau: float
    best_reward: float


def tune_threshold(
    policy: MlpPolicy,
    client,
    eval_contexts,
    lo: float = DEFAULT_LO,
    hi: float = DEFAULT_HI,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    episodes_per_trial: int = 100,
    gate: GateConfig | None = None,
) -> TuneStudy:
    """Search [lo, hi] for the reward-maximizing tau on the Eval split.

    ``gate`` supplies everything but tau and mode (passes, dropout rate,
    cap, episode seed); the mode is forced to ask. Every trial replays the
    same seeded episodes, so the trials share one :class:`gate.EstimateTable`,
    local to this call, and a study computes each (episode, step, cell)
    estimate once.
    """
    eval_contexts = list(eval_contexts)
    if not eval_contexts:
        raise ValueError("tune_threshold requires at least one eval context")
    offsplit = [c.id for c in eval_contexts if c.split is not Split.EVAL]
    if offsplit:
        raise ValueError(f"tuning must only read Eval-split contexts; got ids {offsplit}")
    if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 <= lo < hi):
        raise ValueError(f"need finite lo and hi with 0 <= lo < hi, got [{lo}, {hi}]")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")

    base = gate if gate is not None else GateConfig()
    rng = np.random.default_rng(seed)
    taus = [(lo + hi) / 2.0]
    taus.extend(float(rng.uniform(lo, hi)) for _ in range(trials - 1))

    uncertainty = EstimateTable(policy, base)
    records: list[TrialRecord] = []
    for i, tau in enumerate(taus, start=1):
        cfg = replace(base, tau=tau, mode=RunMode.ASK)
        eps = run_batch(policy, client, eval_contexts, cfg,
                        total_episodes=episodes_per_trial, uncertainty=uncertainty)
        summary = metrics_mod.aggregate(eps)
        records.append(TrialRecord(
            trial=i,
            tau=tau,
            reward_mean=summary.reward_mean,
            reward_std=summary.reward_std,
            ir_percent=summary.ir_percent,
            or_percent=summary.or_percent,
            context_ids=tuple(sorted({ep.context_id for ep in eps})),
        ))

    # max keeps the first of equal keys, so a full tie keeps the earlier trial.
    best = max(records, key=lambda rec: (rec.reward_mean, rec.tau))
    return TuneStudy(
        lo=lo, hi=hi, trials=trials, seed=seed,
        records=tuple(records), best_tau=best.tau, best_reward=best.reward_mean,
    )


def write_study_csv(study: TuneStudy, path: str, config: dict | None = None) -> None:
    write_atomic(path, csv_text(STUDY_CSV_HEADER, (
        [r.trial, repr(r.tau), repr(r.reward_mean), repr(r.reward_std),
         repr(r.ir_percent), repr(r.or_percent)]
        for r in study.records
    ), config))
