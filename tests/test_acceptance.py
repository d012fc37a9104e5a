"""Release checks: one test per shipping criterion, in order.

Each criterion gets exactly one test so `pytest -v` prints one pass/fail
line for it. Assertion messages carry the measured numbers, so a red line
is self-explaining. Oracles here are written independently of the library
(plain-Python loops, a local flood fill, a csv-module recount) rather than
reusing its internals.
"""

import csv
import math
import time

import numpy as np
import pytest

from askgate.env import (
    Action,
    Outcome,
    Split,
    generate_context_set,
    reset,
    step,
)
from askgate.gate import (
    EPISODE_CSV_HEADER,
    EpisodeRecord,
    GateConfig,
    RunMode,
    StepRecord,
    run_batch,
    write_episode_csv,
)
from askgate.lm import RuleClient, ScriptedClient, parse_decision
from askgate.metrics import (
    aggregate,
    format_mean_std,
    intervention_rate,
    overwrite_rate,
)
from askgate.policy import build_policy
from askgate.trainer import evaluate_policy
from askgate.tuner import DEFAULT_LO, tune_threshold
from askgate.uncertainty import estimate_from_passes

from gradcheck import finite_difference_errors, synthetic_batch
from knownopt import (
    WINNING_TAU,
    corridor_answers,
    half_nat_policy,
    known_optimum_study,
)

TOL = 1e-9


# ---------------------------------------------------------------------------
# 1. Uncertainty decomposition agrees with brute-force oracles.


def _brute_epistemic(rows):
    mean = [sum(col) / len(rows) for col in zip(*rows)]
    total = 0.0
    for p in rows:
        total += sum(pj * math.log(pj / mj) for pj, mj in zip(p, mean) if pj > 0.0)
    return total / len(rows)


def _brute_aleatoric(rows):
    total = 0.0
    for p in rows:
        total += -sum(pj * math.log(pj) for pj in p if pj > 0.0)
    return total / len(rows)


def _random_passes(rng):
    n = int(rng.integers(1, 11))
    dists = rng.dirichlet(np.ones(4) * float(rng.uniform(0.3, 3.0)), size=n)
    if rng.random() < 0.25:  # exercise the 0*log(0) := 0 convention
        i, j = int(rng.integers(n)), int(rng.integers(4))
        dists[i, j] = 0.0
        dists[i] /= dists[i].sum()
    return dists


def test_criterion_1_uncertainty_matches_brute_force():
    start = time.monotonic()
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(1000):
        dists = _random_passes(rng)
        est = estimate_from_passes(dists)
        worst = max(
            worst,
            abs(est.epistemic - _brute_epistemic(dists.tolist())),
            abs(est.aleatoric - _brute_aleatoric(dists.tolist())),
            abs(est.total - (est.epistemic + est.aleatoric)),
        )
    assert worst <= TOL, f"worst brute-force/identity deviation {worst:.3e} > 1e-9"

    # Bound cases must come out exact, not merely close.
    for n in range(1, 11):
        same = estimate_from_passes([[0.5, 0.25, 0.125, 0.125]] * n)
        assert same.epistemic == 0.0, (
            f"identical passes (n={n}) gave epistemic {same.epistemic!r}, expected exact 0.0")
        flat = estimate_from_passes([[0.25] * 4] * n)
        assert flat.aleatoric == math.log(4) and flat.epistemic == 0.0, (
            f"uniform passes (n={n}) gave {flat}, expected exactly (0, ln 4)")
    onehot = estimate_from_passes(np.eye(4))
    assert onehot.aleatoric == 0.0, (
        f"deterministic passes gave aleatoric {onehot.aleatoric!r}, expected exact 0.0")

    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f}s, budget 5s"


# ---------------------------------------------------------------------------
# 2. Environment contract: determinism, edges, rewards, and map sampling.


def _flood_reaches_goal(grid):
    n = grid.size
    seen, frontier = {(0, 0)}, [(0, 0)]
    while frontier:
        r, c = frontier.pop()
        if (r, c) == (n - 1, n - 1):
            return True
        for nr, nc in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)):
            if 0 <= nr < n and 0 <= nc < n and (nr, nc) not in seen \
                    and grid.rows[nr][nc] != "H":
                seen.add((nr, nc))
                frontier.append((nr, nc))
    return False


def _trace(context, actions):
    state, out = reset(context), []
    for action in actions:
        state, reward, done = step(state, action)
        out.append((state.row, state.col, reward, done))
        if done:
            break
    return out


def test_criterion_2_environment_contract():
    start = time.monotonic()
    sets = [generate_context_set(n, 300, 11) for n in (4, 6, 8)]

    for ctx_set in sets:
        grids = {c.grid.rows for c in ctx_set.contexts}
        assert ctx_set.count == 300 and len(grids) == 300, (
            f"size {ctx_set.size}: {len(grids)} distinct grids out of {ctx_set.count}")
        for split in Split:
            assert len(ctx_set.split(split)) == 100
        unsolvable = [c.id for c in ctx_set.contexts if not _flood_reaches_goal(c.grid)]
        assert not unsolvable, (
            f"size {ctx_set.size}: flood fill finds no S->G path in contexts {unsolvable[:5]}")

    probe = sets[0].contexts[0]
    rng = np.random.default_rng(2)
    actions = [Action(int(a)) for a in rng.integers(0, 4, 30)]
    assert _trace(probe, actions) == _trace(probe, actions), \
        "identical action sequences must replay identically"

    edge, reward, done = step(reset(probe), Action.UP)
    assert (edge.row, edge.col, edge.step_count, reward, done) == (0, 0, 1, 0, False), \
        "an off-grid move must keep the agent in place yet consume a step"

    seen_goal = 0
    for ctx in sets[0].contexts[:40]:
        state = reset(ctx)
        n = ctx.grid.size
        while not state.done:
            state, reward, done = step(state, Action(int(rng.integers(0, 4))), 30)
            assert reward in (0, 1)
            assert (reward == 1) == (state.outcome is Outcome.GOAL), (
                f"context {ctx.id}: reward {reward} with outcome {state.outcome}")
            if reward == 1:
                seen_goal += 1
                assert done and (state.row, state.col) == (n - 1, n - 1)
    assert seen_goal > 0, "random walks on 4x4 maps should hit the goal at least once"

    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"criterion 2 took {elapsed:.2f}s, budget 10s"


# ---------------------------------------------------------------------------
# 3. Desk-scale training: 6x6, one million steps, held-out reward.


def test_criterion_3_training_reaches_held_out_reward(trained6, contexts6):
    assert trained6.elapsed <= 1800.0, (
        f"training took {trained6.elapsed:.0f}s, budget 1800s")

    summary = evaluate_policy(trained6.policy, contexts6.split(Split.TEST), episodes=100)
    assert summary.reward_mean >= 0.80, (
        f"greedy reward on held-out 6x6 maps is {summary.reward_mean:.3f}, "
        f"needs >= 0.80 (train budget {trained6.config.total_timesteps})")

    policy = build_policy(trained6.policy.widths, trained6.policy.flat.copy())
    batch = synthetic_batch(policy, np.random.default_rng(0))
    worst_coord, worst_norm = finite_difference_errors(policy, batch)
    assert worst_coord < 1e-4, (
        f"analytic gradient disagrees with central differences: "
        f"worst coordinate rel. error {worst_coord:.3e} >= 1e-4 (norm {worst_norm:.3e})")


# ---------------------------------------------------------------------------
# 4. Downward transfer: the 8x8 policy fails alone on 4x4 and recovers gated.


def test_criterion_4_gate_rescues_the_transferred_policy(trained8, transfer_runs):
    ppo = aggregate(transfer_runs.ppo)
    ask = aggregate(transfer_runs.ask)
    assert ppo.reward_mean <= 0.05, (
        f"policy-only reward on 4x4 test maps is {ppo.reward_mean:.3f}, must be <= 0.05")
    assert ask.reward_mean >= 0.80, (
        f"gated reward (tau=0.12, rule client) is {ask.reward_mean:.3f}, must be >= 0.80")
    assert ask.ir_percent == 100.0, (
        f"intervention rate is {ask.ir_percent!r}%, every step must consult at tau=0.12")
    budget = trained8.elapsed + transfer_runs.gate_seconds
    assert budget < 300.0, (
        f"train ({trained8.elapsed:.0f}s) + both gated runs "
        f"({transfer_runs.gate_seconds:.0f}s) took {budget:.0f}s, budget 300s")


# ---------------------------------------------------------------------------
# 5. Gate degeneracy: an unreachable tau is policy-only, tau 0 consults always.


def test_criterion_5_gate_degenerates_to_its_endpoints(trained6, contexts6, tmp_path):
    test_ctx = contexts6.split(Split.TEST)
    unreachable = 2 * math.log(4) + 1e-6

    ask_cfg = GateConfig(tau=unreachable, mode=RunMode.ASK, seed=21)
    ppo_cfg = GateConfig(tau=unreachable, mode=RunMode.PPO_ONLY, seed=21)
    ask = run_batch(trained6.policy, RuleClient(), test_ctx, ask_cfg, total_episodes=100)
    ppo = run_batch(trained6.policy, None, test_ctx, ppo_cfg, total_episodes=100)
    ask_path, ppo_path = tmp_path / "ask.csv", tmp_path / "ppo.csv"
    write_episode_csv(ask, str(ask_path))
    write_episode_csv(ppo, str(ppo_path))
    assert ask_path.read_bytes() == ppo_path.read_bytes(), (
        "with tau above 2 ln 4 the gated episode CSV must be byte-identical "
        "to the policy-only CSV")

    zero_cfg = GateConfig(tau=0.0, mode=RunMode.ASK, seed=21)
    always = run_batch(trained6.policy, RuleClient(), test_ctx, zero_cfg, total_episodes=100)
    ir = aggregate(always).ir_percent
    assert ir == 100.0, f"tau=0 intervention rate is {ir!r}%, must be exactly 100.0"


# ---------------------------------------------------------------------------
# 6. Reported rates recount from the raw episode CSV; Bernoulli std identity.


def _bernoulli_records(successes, total):
    records = []
    for i in range(total):
        reward = 1 if i < successes else 0
        s = StepRecord(obs_index=0, policy_action=Action.RIGHT, uncertainty=None,
                       consulted=False, lm_status="", lm_action=None,
                       final_action=Action.RIGHT, overwritten=False,
                       reward=reward, done=True)
        records.append(EpisodeRecord(
            context_id=i, steps=(s,), reward=reward, length=1,
            outcome=Outcome.GOAL if reward else Outcome.HOLE))
    return records


def test_criterion_6_rates_recount_from_the_raw_csv(transfer_runs):
    with open(transfer_runs.csv_path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    header, data = rows[0], rows[1:]
    assert header == EPISODE_CSV_HEADER

    i_ep = header.index("episode")
    i_consulted = header.index("consulted")
    i_overwritten = header.index("overwritten")
    counts = {}
    for row in data:
        c, o, t = counts.get(int(row[i_ep]), (0, 0, 0))
        counts[int(row[i_ep])] = (c + int(row[i_consulted]), o + int(row[i_overwritten]), t + 1)
    assert len(counts) == len(transfer_runs.ask) == 100

    for index, record in enumerate(transfer_runs.ask):
        c, o, t = counts[index]
        csv_ir = c / t
        csv_or = 0.0 if c == 0 else o / c
        assert csv_ir == intervention_rate(record), (
            f"episode {index}: CSV recount gives IR {csv_ir!r}, "
            f"module reports {intervention_rate(record)!r}")
        assert csv_or == overwrite_rate(record), (
            f"episode {index}: CSV recount gives OR {csv_or!r}, "
            f"module reports {overwrite_rate(record)!r}")

    agg = aggregate(_bernoulli_records(93, 100))
    expected_std = math.sqrt(0.93 * (1 - 0.93))
    assert abs(agg.reward_std - expected_std) <= TOL, (
        f"population std {agg.reward_std!r} differs from sqrt(p(1-p)) "
        f"{expected_std!r} by more than 1e-9")
    rendered = format_mean_std(agg.reward_mean, agg.reward_std)
    assert rendered == "0.93 ± 0.26", f"93/100 renders as {rendered!r}"


# ---------------------------------------------------------------------------
# 7. Response parsing and the transport-failure fallback.


def test_criterion_7_parsing_and_transport_fallback(trained6, contexts6):
    cases = [
        ('{"action":"LEFT"}', "ok", Action.LEFT),
        ('Sure! {"action":"LEFT"} done', "ok", Action.LEFT),
        ("I think you should go left", "parse_failure", None),
        ('{"action":"NORTHWEST"}', "invalid_action", None),
    ]
    for raw, status, action in cases:
        decision = parse_decision(raw)
        assert (decision.status, decision.action) == (status, action), (
            f"parse_decision({raw!r}) -> ({decision.status}, {decision.action}), "
            f"expected ({status}, {action})")

    test_ctx = contexts6.split(Split.TEST)
    broken = run_batch(trained6.policy, ScriptedClient([]), test_ctx,
                       GateConfig(tau=0.0, mode=RunMode.ASK, seed=31), total_episodes=10)
    plain = run_batch(trained6.policy, None, test_ctx,
                      GateConfig(tau=0.0, mode=RunMode.PPO_ONLY, seed=31), total_episodes=10)
    for b, p in zip(broken, plain):
        assert (b.outcome, b.reward, b.length) == (p.outcome, p.reward, p.length), (
            f"context {b.context_id}: transport-failing episode diverged "
            f"({b.outcome}, {b.reward}, {b.length}) vs ({p.outcome}, {p.reward}, {p.length})")
        for sb, sp in zip(b.steps, p.steps):
            assert sb.consulted and sb.lm_status == "transport_error" and not sb.overwritten
            assert (sb.obs_index, sb.final_action, sb.reward, sb.done) == \
                   (sp.obs_index, sp.final_action, sp.reward, sp.done), (
                f"context {b.context_id}: step actions diverged under transport failure")


# ---------------------------------------------------------------------------
# 8. Threshold search lands in the known winning region, Eval split only.


def test_criterion_8_tuner_finds_the_known_optimum(contexts4):
    misses = []
    studies = []
    for seed in range(10):
        study = known_optimum_study(seed, contexts4)
        studies.append(study)
        if not (study.best_reward == 1.0 and DEFAULT_LO <= study.best_tau <= WINNING_TAU):
            misses.append((seed, study.best_tau, study.best_reward))
    assert not misses, (
        f"{len(misses)}/10 studies missed the winning region "
        f"[{DEFAULT_LO}, {WINNING_TAU}]: {misses}")

    eval_ids = {c.id for c in contexts4.split(Split.EVAL)}
    for study in studies:
        for record in study.records:
            assert record.context_ids and set(record.context_ids) <= eval_ids, (
                f"trial {record.trial} touched contexts outside the Eval split")

    with pytest.raises(ValueError, match="Eval-split"):
        tune_threshold(half_nat_policy(), corridor_answers(4, 2),
                       contexts4.split(Split.TEST)[:2], trials=2, seed=0)

    assert known_optimum_study(0, contexts4) == studies[0], (
        "rerunning a study with the same seed must reproduce it exactly")
