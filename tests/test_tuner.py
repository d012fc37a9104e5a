"""Threshold search: seeded reproducibility, split hygiene, and the known optimum."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from askgate import env as env_mod
from askgate import metrics as metrics_mod
from askgate import uncertainty as unc_mod
from askgate.env import Split
from askgate.gate import EstimateTable, GateConfig, RunMode, run_batch
from askgate.lm import RuleClient
from askgate.policy import build_policy, draws_per_step, dropout_passes, init_policy
from askgate.tuner import (
    DEFAULT_HI,
    DEFAULT_LO,
    STUDY_CSV_HEADER,
    TrialRecord,
    TuneStudy,
    tune_threshold,
    write_study_csv,
)

from gateref import per_step_forward_batch
from knownopt import corridor_answers, half_nat_policy, known_optimum_study


# ---------------------------------------------------------------------------
# Study mechanics


def test_first_trial_is_the_midpoint(contexts4):
    study = known_optimum_study(0, contexts4, trials=3)
    assert study.records[0].tau == pytest.approx((DEFAULT_LO + DEFAULT_HI) / 2)
    assert len(study.records) == 3
    assert [r.trial for r in study.records] == [1, 2, 3]
    for rec in study.records:
        assert DEFAULT_LO <= rec.tau <= DEFAULT_HI


def test_studies_reproduce_for_equal_seeds(contexts4):
    a = known_optimum_study(3, contexts4)
    b = known_optimum_study(3, contexts4)
    assert a == b
    c = known_optimum_study(4, contexts4)
    assert [r.tau for r in a.records] != [r.tau for r in c.records]


def test_trials_record_the_contexts_they_touched(contexts4):
    study = known_optimum_study(0, contexts4)
    eval_ids = {c.id for c in contexts4.split(Split.EVAL)}
    for rec in study.records:
        assert rec.context_ids, "audit trail must not be empty"
        assert set(rec.context_ids) <= eval_ids


def test_tuning_refuses_non_eval_contexts(contexts4):
    with pytest.raises(ValueError, match="Eval-split"):
        tune_threshold(half_nat_policy(), corridor_answers(4, 2),
                       contexts4.split(Split.TEST)[:2], trials=2, seed=0)
    with pytest.raises(ValueError, match="Eval-split"):
        tune_threshold(half_nat_policy(), corridor_answers(4, 2),
                       contexts4.split(Split.TRAIN)[:2], trials=2, seed=0)


def test_parameter_validation(contexts4):
    eval_contexts = contexts4.split(Split.EVAL)[:1]
    with pytest.raises(ValueError):
        tune_threshold(half_nat_policy(), None, [], seed=0)
    with pytest.raises(ValueError):
        tune_threshold(half_nat_policy(), None, eval_contexts, lo=1.0, hi=0.5)
    # The first two ended in an OverflowError from the draw, the third only
    # when a negative tau was drawn.
    for lo, hi in ((0.1, math.inf), (-1e308, 1e308), (-0.5, 1.0), (math.nan, 1.0),
                   (0.1, math.nan), (-math.inf, 0.5), (0.5, 0.5)):
        with pytest.raises(ValueError, match=r"0 <= lo < hi"):
            tune_threshold(half_nat_policy(), None, eval_contexts, lo=lo, hi=hi, trials=3)
    with pytest.raises(ValueError):
        tune_threshold(half_nat_policy(), None, eval_contexts, trials=0)
    with pytest.raises(ValueError, match="seed"):
        tune_threshold(half_nat_policy(), None, eval_contexts, seed=-1)


# ---------------------------------------------------------------------------
# The constructed objective


def test_reward_is_a_step_function_of_tau(contexts4):
    study = known_optimum_study(0, contexts4)
    for rec in study.records:
        expected = 1.0 if rec.tau <= 0.5 else 0.0
        assert rec.reward_mean == expected, f"tau {rec.tau}: reward {rec.reward_mean}"
        assert rec.ir_percent == (100.0 if rec.tau <= 0.5 else 0.0)


def test_best_tau_lands_in_the_winning_region(contexts4):
    study = known_optimum_study(0, contexts4)
    assert study.best_reward == 1.0
    assert DEFAULT_LO <= study.best_tau <= 0.5
    # Ties resolve toward the larger tau: the winner is the largest winning draw.
    winners = [r.tau for r in study.records if r.reward_mean == 1.0]
    assert study.best_tau == max(winners)


def test_losing_trials_truncate_instead_of_scoring(contexts4):
    study = known_optimum_study(1, contexts4)
    losers = [r for r in study.records if r.tau > 0.5]
    assert losers, "this seed should draw at least one tau above 0.5"
    for rec in losers:
        assert rec.reward_mean == 0.0 and rec.or_percent == 0.0


# ---------------------------------------------------------------------------
# One MC-Dropout estimate per (episode, step, cell) per study


def count_mc_estimates(monkeypatch):
    calls = []
    real = unc_mod.mc_estimate
    monkeypatch.setattr(unc_mod, "mc_estimate", lambda *args: calls.append(args) or real(*args))
    return calls


def count_episode_generators(monkeypatch):
    """The episode indices of every ``default_rng([seed, i])`` made while patched."""
    made = []
    real = np.random.default_rng

    def counting(seed=None):
        if isinstance(seed, list):
            made.append(seed[1])
        return real(seed)

    monkeypatch.setattr(np.random, "default_rng", counting)
    return made


@pytest.mark.parametrize("widths", [(64, 64, 64), (16, 8)])
@pytest.mark.parametrize("rate", [0.0, 0.2, 0.5])
@pytest.mark.parametrize("passes", [100, 7])
def test_a_memo_hit_leaves_the_generator_where_a_real_call_does(widths, rate, passes):
    # A step the table already holds draws nothing; the next miss advances the
    # episode's generator past it by draws_per_step, which must land where a
    # real dropout_passes call leaves it.
    policy = build_policy(widths)
    policy.flat[:] = np.random.default_rng(1).normal(size=policy.flat.size)
    obs = np.zeros(widths[0])
    obs[3] = 1.0
    reference = np.random.default_rng([0, 3])
    dropout_passes(policy, obs, passes, rate, reference)
    advanced = np.random.default_rng([0, 3])
    advanced.bit_generator.advance(draws_per_step(policy, passes, rate))
    assert advanced.bit_generator.state == reference.bit_generator.state

    dropout_passes(policy, obs, passes, rate, reference)
    table = EstimateTable(policy, GateConfig(passes=passes, dropout_rate=rate, seed=0))
    assert table.generator(3, 2).bit_generator.state == reference.bit_generator.state
    table.generator(3, 5)
    fresh = table.generator(3, 2)  # behind the generator: made afresh
    assert fresh.bit_generator.state == reference.bit_generator.state


def test_memoized_study_equals_per_trial_reference(contexts4, monkeypatch):
    # A sharpened untrained head spreads u_total over about [0.8, 1.4] nats,
    # so trials consult the rule client at different steps and their paths part.
    policy = init_policy(seed=0)
    policy.action_head[0][...] *= 300
    eval_contexts = contexts4.split(Split.EVAL)[:3]
    gate = GateConfig(passes=10, dropout_rate=0.2, seed=1, max_steps=30)
    episodes = 6
    kwargs = dict(lo=0.0, hi=1.4, trials=6, seed=0, episodes_per_trial=episodes, gate=gate)
    with monkeypatch.context() as patch:
        calls = count_mc_estimates(patch)
        made = count_episode_generators(patch)
        study = tune_threshold(policy, RuleClient(), eval_contexts, **kwargs)
        study_calls = len(calls)
        assert tune_threshold(policy, RuleClient(), eval_contexts, **kwargs) == study
        assert len(calls) == 2 * study_calls, "the table must not span two studies"
    made = made[:len(made) // 2]
    assert len(made) > len(set(made)) == episodes, "some generator should be made afresh"

    # The oracle: every trial on its own, one plain generator per episode and
    # one estimate per step.
    trials = []
    for rec in study.records:
        cfg = replace(gate, tau=rec.tau, mode=RunMode.ASK)
        eps = per_step_forward_batch(policy, RuleClient(), eval_contexts, cfg, episodes)
        summary = metrics_mod.aggregate(eps)
        assert rec == TrialRecord(
            trial=rec.trial, tau=rec.tau,
            reward_mean=summary.reward_mean, reward_std=summary.reward_std,
            ir_percent=summary.ir_percent, or_percent=summary.or_percent,
            context_ids=tuple(sorted({ep.context_id for ep in eps})),
        )
        assert run_batch(policy, RuleClient(), eval_contexts, cfg, episodes) == eps
        trials.append(eps)
    paths = {tuple((s.obs_index, s.final_action) for s in eps[0].steps) for eps in trials}
    assert len(paths) > 1, "trajectories should diverge between trials"
    keys = {(i, t, s.obs_index) for eps in trials for i, ep in enumerate(eps)
            for t, s in enumerate(ep.steps)}
    assert study_calls == len(keys)
    assert sum(ep.length for ep in trials[0]) < study_calls < sum(
        ep.length for eps in trials for ep in eps)


def test_a_study_whose_paths_agree_computes_only_the_first_trial(contexts4, monkeypatch):
    # An untrained head is near uniform: u_total is about ln 4 on every step,
    # above every tau drawn, so every trial consults the rule client at every
    # step and walks the same path.
    policy = init_policy(seed=0)
    eval_contexts = contexts4.split(Split.EVAL)[:3]
    gate = GateConfig(passes=5, dropout_rate=0.2, seed=2, max_steps=20)
    episodes, trials = 5, 4
    first = run_batch(policy, RuleClient(), eval_contexts,
                      replace(gate, tau=0.0, mode=RunMode.ASK), episodes)
    steps = sum(ep.length for ep in first)
    cells = len({s.obs_index for ep in first for s in ep.steps})
    encodes = []
    real_encode = env_mod.encode_observation
    monkeypatch.setattr(env_mod, "encode_observation",
                        lambda *a, **k: encodes.append(1) or real_encode(*a, **k))
    calls = count_mc_estimates(monkeypatch)
    made = count_episode_generators(monkeypatch)
    study = tune_threshold(policy, RuleClient(), eval_contexts, lo=0.0, hi=1.0, trials=trials,
                           seed=0, episodes_per_trial=episodes, gate=gate)
    assert all(rec.ir_percent == 100.0 for rec in study.records)
    assert made == list(range(episodes))
    assert len(calls) == steps
    # The one-hot is built for every trial-1 step, then only for each later
    # trial's greedy forward of a new cell.
    assert len(encodes) == steps + (trials - 1) * cells


# ---------------------------------------------------------------------------
# Persistence


def test_study_csv_layout(tmp_path, contexts4):
    study = known_optimum_study(0, contexts4, trials=3)
    path = tmp_path / "study.csv"
    write_study_csv(study, str(path), {"seed": 0})
    lines = path.read_text().splitlines()
    assert lines[0] == '# config {"seed":0}'
    assert lines[1] == ",".join(STUDY_CSV_HEADER)
    assert len(lines) == 2 + len(study.records)
    first = lines[2].split(",")
    assert first[0] == "1" and float(first[1]) == study.records[0].tau


def test_study_csv_bytes_are_pinned(tmp_path, contexts4):
    # Recorded with the episode CSV digests in test_gate.py and under the same
    # NumPy and OpenBLAS build; another BLAS build may move them. The
    # sharpened head spreads u_total over the taus, so the consult rates, and
    # with them the bytes, follow the MC-Dropout bits.
    policy = init_policy(seed=0)
    policy.action_head[0][...] *= 300
    study = tune_threshold(policy, RuleClient(), contexts4.split(Split.EVAL)[:3], trials=4,
                           seed=2, episodes_per_trial=6,
                           gate=GateConfig(passes=7, seed=1, max_steps=20))
    path = tmp_path / "study.csv"
    write_study_csv(study, str(path), {"seed": 2})
    assert len({r.ir_percent for r in study.records}) > 1
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "eed8fefa3e472dee6c9b2695354588677494c17c6ab9ddf1adb2d751fd504a58")


def test_study_is_a_value_object(contexts4):
    study = known_optimum_study(2, contexts4, trials=2)
    assert isinstance(study, TuneStudy)
    assert study.lo == DEFAULT_LO and study.hi == DEFAULT_HI
    assert study.trials == 2 and study.seed == 2
