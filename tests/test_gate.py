"""Gated episode loop: consultation rule, override semantics, logging, determinism."""

import hashlib
import os
from dataclasses import replace

import numpy as np
import pytest

from askgate import gate as gate_mod
from askgate import policy as policy_mod
from askgate import uncertainty as unc_mod
from askgate.atomic import write_atomic
from askgate.env import Action, EnvState, Outcome, generate_context_set
from askgate.gate import (
    EPISODE_CSV_HEADER,
    EpisodeRecord,
    GateConfig,
    RunMode,
    StepRecord,
    csv_text,
    read_csv,
    run_batch,
    run_episode,
    write_episode_csv,
)
from askgate.lm import LmDecision, PromptContext, RuleClient, ScriptedClient
from askgate.policy import init_policy
from askgate.uncertainty import UncertaintyEstimate

from gateref import per_step_forward_batch


@pytest.fixture(scope="module")
def contexts():
    return generate_context_set(4, 9, 2).contexts


@pytest.fixture(scope="module")
def policy():
    return init_policy(seed=0)


def scripted(actions, repeat=1):
    return ScriptedClient(['{"action":"%s"}' % a.name for a in actions] * repeat)


# ---------------------------------------------------------------------------
# Per-step records

_CONTEXT = generate_context_set(4, 3, 0).contexts[0]
# A maker of each record built on every step, and one of its fields.
STEP_RECORDS = [
    (lambda: EnvState(_CONTEXT, 1, 2, 3, Outcome.RUNNING), "row"),
    (lambda: UncertaintyEstimate(0.25, 0.5, 0.75), "total"),
    (lambda: PromptContext(1, 2, 3, 3, "FROZEN", "HOLE", "EDGE", "GOAL",
                           "EDGE", "FROZEN", "EDGE", "EDGE", Action.DOWN), "up_tile"),
    (lambda: LmDecision("ok", Action.LEFT), "action"),
    (lambda: StepRecord(5, Action.DOWN, UncertaintyEstimate(0.25, 0.5, 0.75), True,
                        "ok", Action.LEFT, Action.LEFT, True, 0, False), "final_action"),
]


@pytest.mark.parametrize("make, field", STEP_RECORDS,
                         ids=[make().__class__.__name__ for make, _ in STEP_RECORDS])
def test_step_records_are_immutable_and_hash_by_value(make, field):
    record, twin = make(), make()
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(twin, field))
    assert record is not twin and record == twin and hash(record) == hash(twin)
    assert record  # write_episode_csv tells an estimate from None by its truth


# ---------------------------------------------------------------------------
# Configuration


def test_gate_config_validation():
    for tau in (-0.1, float("nan")):
        with pytest.raises(ValueError, match="tau"):
            GateConfig(tau=tau)
    assert GateConfig(tau=float("inf")).tau == float("inf")  # the unreachable tau
    with pytest.raises(ValueError):
        GateConfig(passes=0)
    with pytest.raises(ValueError):
        GateConfig(max_steps=0)
    for rate in (1.0, 1.5, -0.1, -0.5, float("nan")):
        with pytest.raises(ValueError, match="dropout_rate"):
            GateConfig(dropout_rate=rate)
    assert GateConfig(dropout_rate=0.0).dropout_rate == 0.0
    # A negative seed used to fail only inside NumPy, at the first estimate.
    with pytest.raises(ValueError, match="seed"):
        GateConfig(seed=-1)


def test_non_policy_modes_require_a_client(policy, contexts):
    for mode in (RunMode.ASK, RunMode.LM_ONLY):
        with pytest.raises(ValueError):
            run_episode(policy, None, contexts[0], GateConfig(mode=mode))


def test_ask_mode_without_an_uncertainty_source_fails_before_the_first_step(
        policy, contexts, monkeypatch):
    def no_step(*args, **kwargs):
        raise AssertionError("an env step ran")

    monkeypatch.setattr("askgate.env.step", no_step)
    with pytest.raises(ValueError, match="uncertainty source"):
        run_batch(policy, RuleClient(), contexts[:2], GateConfig(mode=RunMode.ASK),
                  total_episodes=2, uncertainty=None)


def test_a_batch_of_fewer_than_one_episode_is_refused(policy, contexts):
    # This used to return no records, which metrics.aggregate then refused.
    for episodes in (0, -3):
        with pytest.raises(ValueError, match=f"episodes must be at least 1, got {episodes}"):
            run_batch(policy, None, contexts[:2], GateConfig(mode=RunMode.PPO_ONLY),
                      total_episodes=episodes)


# ---------------------------------------------------------------------------
# Uncertainty source


def test_episode_without_uncertainty_source_is_plain(policy, contexts):
    cfg = GateConfig(mode=RunMode.PPO_ONLY)
    record = run_episode(policy, None, contexts[0], cfg, uncertainty=None)
    assert all(s.uncertainty is None for s in record.steps)
    assert all(not s.consulted and s.lm_status == "" for s in record.steps)
    assert record.length <= 100


def test_default_source_reaches_mc_estimate_through_the_module(policy, contexts, monkeypatch):
    # Wrappers set on askgate.uncertainty.mc_estimate and on the episode
    # index keyword of run_episode must see every step and every episode.
    calls = []
    original = unc_mod.mc_estimate
    monkeypatch.setattr(unc_mod, "mc_estimate",
                        lambda *args: calls.append(args) or original(*args))
    indices = []
    original_episode = gate_mod.run_episode

    def recording_episode(*args, **kwargs):
        indices.append(kwargs["episode_index"])
        return original_episode(*args, **kwargs)

    monkeypatch.setattr(gate_mod, "run_episode", recording_episode)
    cfg = GateConfig(mode=RunMode.ASK, tau=0.5, passes=4, seed=0, max_steps=12)
    records = run_batch(policy, RuleClient(), contexts[:2], cfg, total_episodes=3)
    assert len(calls) == sum(r.length for r in records)
    assert all(args[2:4] == (4, 0.2) for args in calls)
    assert indices == [0, 1, 2]


def test_a_shared_estimate_dict_serves_each_run_only_its_own_settings(policy, contexts,
                                                                      monkeypatch):
    # The passes, rate and seed key the outer dict: runs under other ones
    # share it and still get the records of a fresh run.
    cfg = GateConfig(mode=RunMode.ASK, passes=5, seed=0, max_steps=8)
    shared = {}
    first = run_batch(policy, RuleClient(), contexts[:2], cfg, 2, uncertainty=shared)
    others = (replace(cfg, passes=6), replace(cfg, dropout_rate=0.1), replace(cfg, seed=1))
    for other in others:
        assert run_batch(policy, RuleClient(), contexts[:2], other, 2, uncertainty=shared) == \
            run_batch(policy, RuleClient(), contexts[:2], other, 2)
    assert set(shared) == {(c.passes, c.dropout_rate, c.seed) for c in (cfg, *others)}
    # tau is not one of them. The untrained head's u_total is near ln 4, so
    # tau 0 consults at the same steps as tau 0.5, and the replay walks the
    # first run's path on its estimates alone.
    calls = []
    real = unc_mod.mc_estimate
    monkeypatch.setattr(unc_mod, "mc_estimate", lambda *args: calls.append(args) or real(*args))
    replay = run_batch(policy, RuleClient(), contexts[:2], replace(cfg, tau=0.0), 2,
                       uncertainty=shared)
    assert calls == []
    assert [r.steps for r in replay] == [r.steps for r in first]


# ---------------------------------------------------------------------------
# Consultation rule


def test_every_mode_logs_uncertainty(policy, contexts):
    for mode, client in ((RunMode.PPO_ONLY, None), (RunMode.LM_ONLY, RuleClient()),
                         (RunMode.ASK, RuleClient())):
        cfg = GateConfig(mode=mode, passes=10, seed=0, max_steps=12)
        record = run_episode(policy, client, contexts[0], cfg)
        assert all(s.uncertainty is not None for s in record.steps)


def test_ppo_only_never_consults(policy, contexts):
    cfg = GateConfig(mode=RunMode.PPO_ONLY, tau=0.0, passes=5, seed=0, max_steps=20)
    record = run_episode(policy, None, contexts[0], cfg)
    assert all(not s.consulted for s in record.steps)
    assert all(s.lm_status == "" and s.lm_action is None for s in record.steps)
    assert all(s.final_action == s.policy_action for s in record.steps)


def test_lm_only_always_consults(policy, contexts):
    cfg = GateConfig(mode=RunMode.LM_ONLY, tau=99.0, passes=5, seed=0, max_steps=20)
    record = run_episode(policy, RuleClient(), contexts[0], cfg)
    assert all(s.consulted for s in record.steps)


def test_ask_consults_iff_total_at_or_above_tau(policy, contexts):
    cfg = GateConfig(mode=RunMode.ASK, tau=0.9, passes=20, seed=3, max_steps=30)
    record = run_episode(policy, RuleClient(), contexts[1], cfg)
    for s in record.steps:
        assert s.consulted == (s.uncertainty.total >= cfg.tau)


def test_a_total_equal_to_tau_consults(policy, contexts):
    # Step 0's estimate is drawn before any decision, so a rerun with the
    # same seed reads the same total there whatever tau is.
    cfg = GateConfig(mode=RunMode.ASK, tau=50.0, passes=20, seed=3, max_steps=30)
    total = run_episode(policy, RuleClient(), contexts[1], cfg).steps[0].uncertainty.total
    for tau, consulted in ((total, True), (np.nextafter(total, np.inf), False)):
        cfg = replace(cfg, tau=float(tau))
        first = run_episode(policy, RuleClient(), contexts[1], cfg).steps[0]
        assert first.uncertainty.total == total
        assert first.consulted is consulted


def test_ask_with_zero_tau_consults_everywhere(policy, contexts):
    cfg = GateConfig(mode=RunMode.ASK, tau=0.0, passes=5, seed=0, max_steps=20)
    record = run_episode(policy, RuleClient(), contexts[0], cfg)
    assert all(s.consulted for s in record.steps)


def test_ask_with_huge_tau_never_consults(policy, contexts):
    cfg = GateConfig(mode=RunMode.ASK, tau=50.0, passes=5, seed=0, max_steps=20)
    record = run_episode(policy, RuleClient(), contexts[0], cfg)
    assert all(not s.consulted for s in record.steps)


# ---------------------------------------------------------------------------
# Override semantics


def test_valid_lm_action_overwrites(policy, contexts):
    # Scripted corridor answers steer the episode regardless of the policy.
    corridor = [Action.RIGHT, Action.DOWN, Action.RIGHT, Action.DOWN,
                Action.RIGHT, Action.DOWN]
    cfg = GateConfig(mode=RunMode.LM_ONLY, passes=5, seed=0)
    record = run_episode(policy, scripted(corridor), contexts[0], cfg)
    assert record.outcome is Outcome.GOAL and record.reward == 1
    assert [s.final_action for s in record.steps] == corridor
    for s in record.steps:
        assert s.lm_status == "ok" and s.lm_action is s.final_action
        assert s.overwritten == (s.lm_action != s.policy_action)


def test_agreeing_lm_action_is_not_an_overwrite(policy, contexts):
    probe = run_episode(policy, None, contexts[0],
                        GateConfig(mode=RunMode.PPO_ONLY, passes=5, seed=0, max_steps=5))
    echo = scripted([s.policy_action for s in probe.steps])
    cfg = GateConfig(mode=RunMode.LM_ONLY, passes=5, seed=0, max_steps=5)
    record = run_episode(policy, echo, contexts[0], cfg)
    assert all(s.consulted and not s.overwritten for s in record.steps)


@pytest.mark.parametrize("raw,status", [
    ("mumble", "parse_failure"),
    ('{"action":"SIDEWAYS"}', "invalid_action"),
])
def test_unusable_responses_fall_back_to_the_policy(policy, contexts, raw, status):
    client = ScriptedClient([raw] * 30)
    cfg = GateConfig(mode=RunMode.LM_ONLY, passes=5, seed=0, max_steps=15)
    record = run_episode(policy, client, contexts[0], cfg)
    for s in record.steps:
        assert s.lm_status == status and s.lm_action is None
        assert s.final_action == s.policy_action and not s.overwritten


def test_transport_failure_falls_back_to_the_policy(policy, contexts):
    cfg = GateConfig(mode=RunMode.LM_ONLY, passes=5, seed=0, max_steps=15)
    record = run_episode(policy, ScriptedClient([]), contexts[0], cfg)
    for s in record.steps:
        assert s.lm_status == "transport_error" and s.lm_action is None
        assert s.final_action == s.policy_action and not s.overwritten


def test_failed_consultations_match_ppo_only_stepwise(policy, contexts):
    broken = GateConfig(mode=RunMode.ASK, tau=0.0, passes=5, seed=4, max_steps=25)
    plain = GateConfig(mode=RunMode.PPO_ONLY, tau=0.0, passes=5, seed=4, max_steps=25)
    a = run_episode(policy, ScriptedClient([]), contexts[2], broken)
    b = run_episode(policy, None, contexts[2], plain)
    assert [(s.obs_index, s.final_action, s.reward, s.done) for s in a.steps] == \
           [(s.obs_index, s.final_action, s.reward, s.done) for s in b.steps]
    assert (a.reward, a.length, a.outcome) == (b.reward, b.length, b.outcome)


# ---------------------------------------------------------------------------
# Batches and determinism


def test_run_batch_round_robins_contexts(policy, contexts):
    cfg = GateConfig(mode=RunMode.PPO_ONLY, passes=2, seed=0, max_steps=5)
    records = run_batch(policy, None, contexts[:3], cfg, total_episodes=7)
    assert [r.context_id for r in records] == [
        contexts[0].id, contexts[1].id, contexts[2].id,
        contexts[0].id, contexts[1].id, contexts[2].id, contexts[0].id,
    ]


def test_an_episode_on_a_grid_larger_than_the_input_is_refused(policy):
    # The policy reads cell indices, so the cells of row 0 of a 9x9 map fit a
    # 64-wide input; the map as a whole does not, and no step may run on it.
    big = generate_context_set(9, 1, 0).contexts[0]
    for mode in (RunMode.PPO_ONLY, RunMode.ASK):
        with pytest.raises(ValueError, match="observation index 80 does not fit dim 64"):
            run_episode(policy, RuleClient(), big, GateConfig(mode=mode, passes=2),
                        greedy={0: Action.DOWN})


def test_episodes_are_seed_deterministic(policy, contexts):
    cfg = GateConfig(mode=RunMode.ASK, tau=0.5, passes=10, seed=9, max_steps=20)
    a = run_batch(policy, RuleClient(), contexts[:2], cfg, total_episodes=4)
    b = run_batch(policy, RuleClient(), contexts[:2], cfg, total_episodes=4)
    assert a == b
    other = GateConfig(mode=RunMode.ASK, tau=0.5, passes=10, seed=10, max_steps=20)
    c = run_batch(policy, RuleClient(), contexts[:2], other, total_episodes=4)
    assert any(x.steps[0].uncertainty != y.steps[0].uncertainty for x, y in zip(a, c))


def test_episode_indices_decorrelate_uncertainty(policy, contexts):
    cfg = GateConfig(mode=RunMode.PPO_ONLY, passes=10, seed=0, max_steps=10)
    first = run_episode(policy, None, contexts[0], cfg, episode_index=0)
    second = run_episode(policy, None, contexts[0], cfg, episode_index=1)
    assert first.steps[0].uncertainty != second.steps[0].uncertainty


# ---------------------------------------------------------------------------
# Greedy-action table


@pytest.fixture(scope="module")
def sharp_policy():
    # A sharpened untrained head spreads u_total, so tau 1.0 splits the steps
    # into consulted and unconsulted ones.
    policy = init_policy(seed=0)
    policy.action_head[0][...] *= 300
    return policy


def count_forwards(monkeypatch):
    cells = []
    real = policy_mod.forward

    def counting(policy, cell):
        cells.append(cell)
        return real(policy, cell)

    monkeypatch.setattr(policy_mod, "forward", counting)
    return cells


@pytest.mark.parametrize("mode", list(RunMode))
def test_run_batch_makes_one_forward_per_distinct_cell(sharp_policy, contexts, mode, monkeypatch):
    cfg = GateConfig(mode=mode, tau=1.0, passes=5, seed=3, max_steps=20)
    calls = count_forwards(monkeypatch)
    records = run_batch(sharp_policy, RuleClient(), contexts[:3], cfg, total_episodes=6)
    visited = {s.obs_index for r in records for s in r.steps}
    assert sorted(calls) == sorted(visited)
    # The table does not outlive the call: a second call looks every cell up again.
    run_batch(sharp_policy, RuleClient(), contexts[:3], cfg, total_episodes=6)
    assert len(calls) == 2 * len(visited)


def test_run_batch_reads_the_parameters_of_each_call(contexts):
    policy = init_policy(seed=0)
    other = init_policy(seed=1)
    cfg = GateConfig(mode=RunMode.PPO_ONLY, seed=0, max_steps=12)
    first = run_batch(policy, None, contexts[:3], cfg, total_episodes=6, uncertainty=None)
    policy.flat[...] = other.flat
    second = run_batch(policy, None, contexts[:3], cfg, total_episodes=6, uncertainty=None)
    assert second == run_batch(other, None, contexts[:3], cfg, total_episodes=6, uncertainty=None)
    assert second != first


@pytest.mark.parametrize("mode", list(RunMode))
def test_episode_csv_equals_the_per_step_forward_reference(tmp_path, sharp_policy, contexts, mode):
    cfg = GateConfig(mode=mode, tau=1.0, passes=10, seed=5, max_steps=30)
    records = run_batch(sharp_policy, RuleClient(), contexts[:4], cfg, total_episodes=8)
    if mode is RunMode.ASK:
        assert 0 < sum(s.consulted for r in records for s in r.steps) < sum(r.length for r in records)
    expected = per_step_forward_batch(sharp_policy, RuleClient(), contexts[:4], cfg, 8)
    write_episode_csv(records, str(tmp_path / "table.csv"), {"mode": mode.value})
    write_episode_csv(expected, str(tmp_path / "reference.csv"), {"mode": mode.value})
    assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


# ---------------------------------------------------------------------------
# CSV artifact


def test_config_comment_is_canonical(tmp_path):
    text = csv_text(["a", "b"], [[1, "x,y"]], {"b": 2, "a": 1})
    assert text == '# config {"a":1,"b":2}\na,b\n1,"x,y"\n'
    path = tmp_path / "artifact.csv"
    write_atomic(str(path), text)
    assert read_csv(str(path)) == ({"a": 1, "b": 2}, ["a", "b"], [["1", "x,y"]])
    # Without a config line the file reads back with an empty config.
    write_atomic(str(path), csv_text(["a", "b"], [[1, 2]]))
    assert path.read_text() == "a,b\n1,2\n"
    assert read_csv(str(path)) == ({}, ["a", "b"], [["1", "2"]])


def test_read_csv_rejects_rows_that_do_not_fit_the_header(tmp_path):
    path = tmp_path / "cut.csv"
    path.write_text("a,b,c\n1,2,3\n4,5\n")
    with pytest.raises(ValueError, match="2 fields"):
        read_csv(str(path))


@pytest.mark.parametrize("config", ["[1]", '"text"', "3", "null"])
def test_read_csv_rejects_a_config_line_that_is_not_an_object(tmp_path, config):
    path = tmp_path / "odd.csv"
    path.write_text(f"# config {config}\na,b\n1,2\n")
    with pytest.raises(ValueError, match="JSON object"):
        read_csv(str(path))


def test_interrupted_write_keeps_the_old_artifact(tmp_path, policy, contexts, monkeypatch):
    cfg = GateConfig(mode=RunMode.PPO_ONLY, passes=2, seed=0, max_steps=8)
    records = run_batch(policy, None, contexts[:2], cfg, total_episodes=2)
    path = tmp_path / "episodes.csv"
    write_episode_csv(records, str(path), {"seed": 0})
    before = path.read_bytes()

    def interrupted():
        yield records[0]
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        write_episode_csv(interrupted(), str(path), {"seed": 1})
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["episodes.csv"]

    def refuse(src, dst):
        raise OSError("disk full")

    with monkeypatch.context() as patch:
        patch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            write_episode_csv(records, str(path), {"seed": 2})
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["episodes.csv"]  # the temp file is gone too
    # A replaced artifact keeps the mode that a plain open() gives a new file.
    with open(tmp_path / "plain", "w"):
        pass
    assert os.stat(path).st_mode == os.stat(tmp_path / "plain").st_mode


def test_episode_csv_layout(tmp_path, policy, contexts):
    cfg = GateConfig(mode=RunMode.ASK, tau=0.5, passes=5, seed=0, max_steps=10)
    records = run_batch(policy, RuleClient(), contexts[:2], cfg, total_episodes=2)
    path = tmp_path / "episodes.csv"
    write_episode_csv(records, str(path), {"tau": 0.5, "seed": 0})
    lines = path.read_text().splitlines()
    assert lines[0] == '# config {"seed":0,"tau":0.5}'
    assert lines[1] == ",".join(EPISODE_CSV_HEADER)
    assert len(lines) == 2 + sum(r.length for r in records)
    first = lines[2].split(",")
    assert first[0] == "0" and first[1] == "0"
    assert first[3] in Action.__members__
    assert float(first[6]) == pytest.approx(float(first[4]) + float(first[5]))
    # Uncertainty columns carry full precision: parsing them back is lossless.
    assert float(first[6]) == records[0].steps[0].uncertainty.total


def test_episode_csv_bytes_are_stable(tmp_path, sharp_policy, contexts):
    # Recorded before the masked forward drew its masks in one call, under
    # NumPy 2.4.6 and OpenBLAS 0.3.31 on x86-64. The u_* columns carry every
    # bit of the MC-Dropout passes, so a kernel change that moves a low bit
    # changes these digests; another BLAS build may too.
    cases = [
        (RunMode.ASK, 5, 0.2, "fcdbcc448f149518edfd92f8ff6ac9f00c9142a8fd756ac916790e26deb25340"),
        (RunMode.LM_ONLY, 7, 0.2, "d64c7038b84595ad9ad1bcadecfd21242d202967c3b0bf1a2d2934a23432d4f3"),
        (RunMode.ASK, 5, 0.0, "28cc398d78e9dab2f40dfa2d3fd8824440848832d4eaad9fc58e1b5292ad3d6c"),
    ]
    for mode, passes, rate, digest in cases:
        cfg = GateConfig(mode=mode, tau=1.0, passes=passes, dropout_rate=rate, seed=1, max_steps=20)
        records = run_batch(sharp_policy, RuleClient(), contexts[:4], cfg, total_episodes=6)
        path = tmp_path / f"{mode.value}-{passes}-{rate}.csv"
        write_episode_csv(records, str(path), {"seed": 1})
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, (mode, passes, rate)


def test_episode_record_totals(policy, contexts):
    cfg = GateConfig(mode=RunMode.PPO_ONLY, passes=2, seed=0, max_steps=8)
    record = run_episode(policy, None, contexts[0], cfg)
    assert isinstance(record, EpisodeRecord)
    assert record.length == len(record.steps)
    assert record.reward == (1 if record.outcome is Outcome.GOAL else 0)
    assert record.steps[-1].done
    assert all(not s.done for s in record.steps[:-1])
