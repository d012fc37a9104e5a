"""Metrics: IR/OR counting, aggregation, rendering, and summary CSV round-trips."""

import math

import pytest

from askgate.env import Action, GridMap, Context, Outcome, Split
from askgate.gate import EpisodeRecord, StepRecord
from askgate.metrics import (
    LM_MODE_FOOTNOTE,
    SUMMARY_CSV_HEADER,
    RunSummary,
    SummaryRow,
    aggregate,
    format_mean_std,
    intervention_rate,
    overwrite_rate,
    read_summary_csv,
    render_report,
    render_summary_table,
    render_trajectory,
    write_summary_csv,
)
from askgate.uncertainty import UncertaintyEstimate


def make_step(consulted=False, overwritten=False, reward=0, done=False,
              action=Action.RIGHT, total=1.0):
    return StepRecord(
        obs_index=0, policy_action=action,
        uncertainty=UncertaintyEstimate(total / 2, total / 2, total, 10),
        consulted=consulted,
        lm_status="ok" if consulted else "",
        lm_action=action if overwritten else None,
        final_action=action, overwritten=overwritten,
        reward=reward, done=done,
    )


def make_episode(flags, reward=None, outcome=Outcome.GOAL, context_id=0):
    """flags: list of (consulted, overwritten) pairs; last step terminates."""
    steps = []
    for i, (consulted, overwritten) in enumerate(flags):
        last = i == len(flags) - 1
        r = (1 if outcome is Outcome.GOAL else 0) if last else 0
        steps.append(make_step(consulted, overwritten, reward=r, done=last))
    return EpisodeRecord(
        context_id=context_id, steps=tuple(steps),
        reward=reward if reward is not None else (1 if outcome is Outcome.GOAL else 0),
        length=len(steps), outcome=outcome,
    )


def goal_episode(reached=True, length=3):
    outcome = Outcome.GOAL if reached else Outcome.HOLE
    return make_episode([(False, False)] * length, outcome=outcome)


# ---------------------------------------------------------------------------
# Per-episode rates


def test_intervention_rate_counts_consulted_steps():
    # Gate trace with uncertainties (0.5, 1.5, 2.0) and tau 1.0: two of three
    # steps consult.
    ep = make_episode([(False, False), (True, False), (True, True)])
    assert intervention_rate(ep) == pytest.approx(2 / 3)


def test_intervention_rate_rejects_empty_episodes():
    ep = EpisodeRecord(context_id=0, steps=(), reward=0, length=0, outcome=Outcome.TRUNCATED)
    with pytest.raises(ValueError):
        intervention_rate(ep)


def test_overwrite_rate_is_per_consulted_step():
    ep = make_episode([(True, False), (True, True), (True, False), (False, False)])
    assert overwrite_rate(ep) == pytest.approx(1 / 3)


def test_overwrite_rate_without_consultation_is_zero():
    ep = make_episode([(False, False)] * 4)
    assert overwrite_rate(ep) == 0.0


# ---------------------------------------------------------------------------
# Aggregation


def test_aggregate_matches_hand_counts():
    eps = [goal_episode(True, 2), goal_episode(False, 5), goal_episode(True, 5)]
    summary = aggregate(eps)
    assert summary.reward_mean == pytest.approx(2 / 3)
    assert summary.length_mean == pytest.approx(4.0)
    hand_std = math.sqrt(((2 - 4) ** 2 + (5 - 4) ** 2 + (5 - 4) ** 2) / 3)
    assert summary.length_std == pytest.approx(hand_std)
    assert summary.episode_count == 3
    assert summary.ir_percent == 0.0 and summary.or_percent == 0.0


def test_aggregate_bernoulli_std_identity():
    eps = [goal_episode(True) for _ in range(93)] + [goal_episode(False) for _ in range(7)]
    summary = aggregate(eps)
    assert summary.reward_mean == pytest.approx(0.93)
    assert abs(summary.reward_std - math.sqrt(0.93 * 0.07)) < 1e-9
    assert format_mean_std(summary.reward_mean, summary.reward_std) == "0.93 ± 0.26"


def test_aggregate_averages_rates_per_episode():
    eps = [
        make_episode([(True, True), (True, False)]),      # IR 1.0, OR 0.5
        make_episode([(False, False), (False, False)]),   # IR 0.0, OR 0.0
    ]
    summary = aggregate(eps)
    assert summary.ir_percent == pytest.approx(50.0)
    assert summary.or_percent == pytest.approx(25.0)


def test_aggregate_requires_episodes():
    with pytest.raises(ValueError):
        aggregate([])


def test_format_mean_std_rounding():
    assert format_mean_std(0.93, math.sqrt(0.93 * 0.07)) == "0.93 ± 0.26"
    assert format_mean_std(1.0, 0.0) == "1.00 ± 0.00"
    assert format_mean_std(9.494, 2.005) == "9.49 ± 2.00"


# ---------------------------------------------------------------------------
# Rendering


def sample_rows():
    ppo = SummaryRow(size=6, model="ppo", mode="ppo", split="test", tau=0.5, seed=0,
                     summary=RunSummary(0.93, 0.2551, 9.49, 1.37, 0.0, 0.0, 100))
    ask = SummaryRow(size=6, model="rule", mode="ask", split="test", tau=0.5, seed=0,
                     summary=RunSummary(0.95, 0.2179, 10.11, 2.3, 37.5, 61.2, 100))
    return [ppo, ask]


def test_summary_table_layout():
    text = render_summary_table(sample_rows())
    lines = text.splitlines()
    assert lines[0].split() == ["Size", "Model", "Mode", "Split", "Reward", "Length",
                                "IR", "(%)", "OR", "(%)"]
    assert set(lines[1]) == {"-", " "}
    assert "0.93 ± 0.26" in lines[2] and "9.49 ± 1.37" in lines[2]
    assert "37.50" in lines[3] and "61.20" in lines[3]
    assert LM_MODE_FOOTNOTE not in text


def test_summary_table_flags_lm_only_rows():
    rows = sample_rows()
    lm = SummaryRow(size=6, model="rule", mode="lm", split="test", tau=0.5, seed=0,
                    summary=RunSummary(0.88, 0.32, 11.0, 3.1, 100.0, 50.0, 100))
    text = render_summary_table(rows + [lm])
    assert LM_MODE_FOOTNOTE in text


def test_summary_csv_round_trip(tmp_path):
    rows = sample_rows()
    path = tmp_path / "summary.csv"
    write_summary_csv(rows, str(path), {"cmd": "run"})
    text = path.read_text()
    assert text.startswith('# config {"cmd":"run"}\n')
    assert text.splitlines()[1] == ",".join(SUMMARY_CSV_HEADER)
    loaded = read_summary_csv(str(path))
    assert loaded == rows


def test_summary_csv_rejects_foreign_headers(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("trial,tau,reward\n1,0.5,1.0\n")
    with pytest.raises(ValueError):
        read_summary_csv(str(path))


def test_trajectory_overlay_marks_the_walk():
    grid = GridMap(("SFFF", "FHFH", "FFFH", "HFFG"))
    context = Context(id=3, grid=grid, split=Split.TEST)
    actions = [Action.DOWN, Action.DOWN, Action.RIGHT, Action.RIGHT,
               Action.DOWN, Action.RIGHT]
    text = render_trajectory(context, actions, 100)
    assert text == (
        "S...\n"
        "*H.H\n"
        "***H\n"
        "H.*G\n"
        "context 3: outcome goal, reward 1, length 6\n"
    )
    # The outcome line comes from the replay itself, cap included.
    assert render_trajectory(context, [Action.RIGHT, Action.LEFT], 2).endswith(
        "context 3: outcome truncated, reward 0, length 2\n")
    # Actions that do not end the episode exactly at the last one are refused.
    with pytest.raises(ValueError, match="5 logged actions .* after 5 the outcome is running"):
        render_trajectory(context, actions[:-1], 100)
    with pytest.raises(ValueError, match="7 logged actions .* after 6 the outcome is goal"):
        render_trajectory(context, actions + [Action.LEFT], 100)
    with pytest.raises(ValueError, match="3 logged actions .* after 2 the outcome is truncated"):
        render_trajectory(context, [Action.RIGHT, Action.LEFT, Action.RIGHT], 2)
    # Back over S, then into the hole at (1, 1): the hole fallen into shows *,
    # the other holes stay H, and S keeps its letter though it was revisited.
    fall = [Action.RIGHT, Action.LEFT, Action.DOWN, Action.RIGHT]
    assert render_trajectory(context, fall, 100) == (
        "S*..\n"
        "**.H\n"
        "...H\n"
        "H..G\n"
        "context 3: outcome hole, reward 0, length 4\n"
    )


def test_render_report_dispatch(tmp_path):
    rows = sample_rows()
    write_summary_csv(rows, str(tmp_path / "summary.csv"))
    assert render_report(rows, "csv") == (tmp_path / "summary.csv").read_text()
    assert render_report(rows, "table") == render_summary_table(rows)
    for fmt in ("sparkline", "trajectory"):
        with pytest.raises(ValueError):
            render_report(rows, fmt)
