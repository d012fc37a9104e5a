"""The benchmark's own tests.

Run from the repository root with ``python3 -m pytest bench -q``; the
tier-1 suite (``testpaths = tests``) does not collect them. They use small
commands, so the whole file takes well under a minute.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

import calibrate  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from askgate import cli, env, lm  # noqa: E402
from checks import CheckFailed  # noqa: E402
from stub_server import StubProcess  # noqa: E402
from tracing import LAYER_METRICS, Tracer  # noqa: E402


def _cli(argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0


def _rewrite(path, edit) -> None:
    """Apply ``edit(rows)`` to the data rows of a CSV artifact, keeping comments."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.readlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    rows = list(csv.reader([ln for ln in lines if not ln.startswith("#")]))
    rows = edit(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(comments)
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _set(column, value, row=1):
    def edit(rows):
        rows[row][rows[0].index(column)] = value
        return rows
    return edit


def _add_column(rows):
    return [r + (["extra"] if i == 0 else ["0"]) for i, r in enumerate(rows)]


def _drop_column(column):
    def edit(rows):
        k = rows[0].index(column)
        return [r[:k] + r[k + 1:] for r in rows]
    return edit


@pytest.fixture(scope="module")
def contexts(tmp_path_factory):
    out = tmp_path_factory.mktemp("contexts")
    paths = {}
    for size in (4, 6):
        paths[size] = str(out / f"s{size}.txt")
        env.save_context_set(env.generate_context_set(size, 30, 7), paths[size])
    return paths


@pytest.fixture(scope="module")
def gate_run(contexts, tmp_path_factory):
    out = tmp_path_factory.mktemp("gate")
    _cli(["run", "--mode", "ask", "--client", "rule", "--tau", "0.12", "--split", "test",
          "--contexts", contexts[4], "--weights", workloads.verify_fixture("w8_seed5"),
          "--episodes", "10", "--seed", "0", "--out", str(out)])
    episodes = str(next((out / "episodes").iterdir()))
    summary = str(next((out / "summaries").iterdir()))
    result = checks.check_gate_run(episodes, summary)
    expected = {"episode_digest": result["digest"], "reward_mean": result["reward"],
                "ir_pct": result["ir_pct"], "or_pct": result["or_pct"]}
    return episodes, summary, expected


@pytest.fixture(scope="module")
def study(contexts, tmp_path_factory):
    out = tmp_path_factory.mktemp("tune")
    _cli(["tune", "--client", "rule", "--contexts", contexts[6],
          "--weights", workloads.verify_fixture("w6_seed0"), "--trials", "3",
          "--episodes", "5", "--seed", "0", "--out", str(out)])
    path = str(next((out / "summaries").iterdir()))
    return path, {"study_digest": checks.check_study(path, 0.10, 1.20, 3)["digest"]}


def _copy(path, tmp_path) -> str:
    target = str(tmp_path / os.path.basename(path))
    shutil.copyfile(path, target)
    return target


# ---------------------------------------------------------------------------
# Output checks accept the real artifact and reject each corruption.


def test_gate_check_accepts_its_recording_and_added_columns(gate_run, tmp_path):
    episodes, summary, expected = gate_run
    assert checks.check_gate_run(episodes, summary, expected)["digest"] == expected["episode_digest"]
    widened = _copy(episodes, tmp_path)
    _rewrite(widened, _add_column)
    assert checks.check_gate_run(widened, summary, expected)["digest"] == expected["episode_digest"]


@pytest.mark.parametrize("corrupt", [
    _set("final_action", "UP"),
    _set("u_total", "0.5"),
    _set("lm_raw_status", "transport_error"),
    _set("reward", "1"),
    _drop_column("lm_action"),
], ids=["action", "uncertainty", "status", "reward", "missing-column"])
def test_gate_check_rejects_a_corrupted_episode_csv(gate_run, tmp_path, corrupt):
    episodes, summary, expected = gate_run
    bad = _copy(episodes, tmp_path)
    _rewrite(bad, corrupt)
    with pytest.raises(CheckFailed):
        checks.check_gate_run(bad, summary, expected)


@pytest.mark.parametrize("column", ["reward_mean", "ir_pct", "or_pct"])
def test_gate_check_rejects_a_summary_that_disagrees(gate_run, tmp_path, column):
    episodes, summary, expected = gate_run
    bad = _copy(summary, tmp_path)
    _rewrite(bad, _set(column, "12.5"))
    with pytest.raises(CheckFailed):
        checks.check_gate_run(episodes, bad, expected)


def test_gate_check_compares_the_recording(gate_run):
    episodes, summary, expected = gate_run
    with pytest.raises(CheckFailed):
        checks.check_gate_run(episodes, summary, {**expected, "episode_digest": "0" * 64})
    with pytest.raises(CheckFailed):
        checks.check_gate_run(episodes, summary, {**expected, "or_pct": expected["or_pct"] + 1})


def test_study_check_accepts_its_recording_and_added_columns(study, tmp_path):
    path, expected = study
    widened = _copy(path, tmp_path)
    _rewrite(widened, _add_column)
    assert checks.check_study(widened, 0.10, 1.20, 3, expected)["digest"] == expected["study_digest"]


@pytest.mark.parametrize("corrupt", [
    _set("tau", "0.7"),
    _set("reward_mean", "0.25", row=2),
    _set("ir_pct", "150.0", row=3),
    _set("trial", "7", row=2),
], ids=["midpoint", "reward", "ir-range", "trial-number"])
def test_study_check_rejects_a_corrupted_study(study, tmp_path, corrupt):
    path, expected = study
    bad = _copy(path, tmp_path)
    _rewrite(bad, corrupt)
    with pytest.raises(CheckFailed):
        checks.check_study(bad, 0.10, 1.20, 3, expected)


def _trainlog(tmp_path, rewards) -> str:
    path = tmp_path / "trainlog.csv"
    lines = ["# config {}", "timestep,eval_reward_mean,eval_reward_std,eval_len_mean,extra"]
    lines += [f"{1024 * (i + 1)},{r!r},0.0,6.0,x" for i, r in enumerate(rewards)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_trainlog_check(tmp_path):
    assert checks.check_trainlog(_trainlog(tmp_path, [0.5, 0.81]), 2, 0.80)["reward"] == 0.81
    with pytest.raises(CheckFailed):
        checks.check_trainlog(_trainlog(tmp_path, [0.5, 0.79]), 2, 0.80)
    with pytest.raises(CheckFailed):
        checks.check_trainlog(_trainlog(tmp_path, [0.95]), 2, 0.80)


def test_setup_refuses_a_fixture_whose_digest_differs(tmp_path):
    fixtures = tmp_path / "fixtures"
    shutil.copytree(workloads.FIXTURE_DIR, fixtures)
    assert workloads.verify_fixture("w6_seed0", str(fixtures))
    data = bytearray((fixtures / "w6_seed0.bin").read_bytes())
    data[-1] ^= 1
    (fixtures / "w6_seed0.bin").write_bytes(bytes(data))
    with pytest.raises(workloads.SetupError, match="sha256"):
        workloads.verify_fixture("w6_seed0", str(fixtures))


# ---------------------------------------------------------------------------
# The loopback stub.


def _gone(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def test_stub_answers_like_the_rule_client_and_counts_requests():
    ctx = lm.PromptContext(1, 1, 3, 3, "HOLE", "FROZEN", "EDGE", "FROZEN",
                           "EDGE", "GOAL", "EDGE", "FROZEN", autopilot=env.Action.UP)
    prompt = lm.build_prompt(ctx)
    with StubProcess(SRC) as stub:
        client = lm.EndpointClient(base_url=stub.url, model="stub")
        assert client.query(prompt) == lm.RuleClient().query(prompt)
        assert stub.request_count() == 1


def test_stub_stops_on_every_exit_path():
    with pytest.raises(RuntimeError):
        with StubProcess(SRC) as stub:
            pid = stub.proc.pid
            raise RuntimeError("boom")
    assert _gone(pid)


def test_stub_exits_when_its_parent_is_killed():
    code = ("import sys, time; sys.path.insert(0, %r); from stub_server import StubProcess; "
            "s = StubProcess(%r).start(); print(s.proc.pid, flush=True); time.sleep(60)"
            % (HERE, SRC))
    parent = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True)
    try:
        stub_pid = int(parent.stdout.readline())
    finally:
        parent.kill()
        parent.wait()
        parent.stdout.close()
    deadline = time.monotonic() + 10
    while not _gone(stub_pid) and time.monotonic() < deadline:
        time.sleep(0.1)
    assert _gone(stub_pid)


def test_endpoint_finish_rejects_a_request_count_mismatch(tmp_path):
    state = workloads.State(str(tmp_path), 0, SRC)
    with StubProcess(SRC) as state.stub:
        with pytest.raises(CheckFailed, match="stub served 0 requests"):
            workloads.WORKLOADS["gate-endpoint-4x4"].finish(state, [{"consults": 3}])


# ---------------------------------------------------------------------------
# Tracing.


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_names_every_layer_metric_and_workload():
    spec = _benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_METRICS
    listed = [w["name"] for w in spec["workloads"]]
    assert listed == [name for name in workloads.WORKLOADS if name != "gate-endpoint-4x4"]


def test_tracer_restores_every_wrapped_attribute():
    from askgate import trainer

    before = (env.step, trainer._Adam.step, lm.query)
    with Tracer():
        assert env.step is not before[0] and trainer._Adam.step is not before[1]
    assert (env.step, trainer._Adam.step, lm.query) == before


def test_tracer_counts_tuning_repeats(contexts, tmp_path):
    tracer = Tracer()
    with tracer:
        tracer.begin_command()
        _cli(["tune", "--client", "rule", "--contexts", contexts[6],
              "--weights", workloads.verify_fixture("w6_seed0"), "--trials", "3",
              "--episodes", "5", "--seed", "0", "--out", str(tmp_path)])
    values, absent = tracer.layer_metrics()
    assert values["tuner.run_batch.calls"] == 3
    assert values["gate.run_episode.calls"] == 15
    assert 0.0 < values["tuner.mc_repeat_share"] <= 1.0
    assert values["policy.dropout_passes.calls"] == values["uncertainty.mc_estimate.calls"]
    assert "trainer.ppo_grads.us" in absent and "tuner.mc_repeat_share" not in absent


def test_scaling_takes_out_a_uniform_slowdown():
    # A machine at half speed stretches the command and the kernel alike.
    times, refs = [2.0, 3.0], [0.001, 0.0012, 0.001]
    slow = run.scale([2 * t for t in times], [2 * r for r in refs])
    assert slow == pytest.approx(run.scale(times, refs))
    # Each time is scaled by the kernel runs just before and just after it.
    assert run.scale([1.0], [0.001, 0.003]) == pytest.approx([calibrate.NOMINAL_UNIT_S / 0.002])


@pytest.mark.parametrize("workload", ["gate-transfer-4x4", "gate-endpoint-4x4"])
def test_traced_run_reports_every_layer_metric(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=False,
    )
    assert proc.returncode == 0, proc.stdout
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in _benchmark_json()["per_layer"]}
    report = "\n".join(lines)
    # Failure counts and rates read 0 in a correct run; every other 0 needs a reason.
    failures = ("ops_failed_pct", "lm.fail_ratio", "lm.status.")
    zero = [name for name, entry in result["metrics"].items()
            if entry["value"] == 0 and not name.startswith(failures)]
    for name in zero:
        line = next(ln for ln in lines if ln.split()[:1] == [name])
        assert "absent:" in line, f"{name} reads 0 without a reason:\n{report}"
    assert result["metrics"]["lm.consults"]["value"] > 0
    assert result["metrics"]["gate.consult_ratio"]["value"] == 1.0


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copyfile(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train-6x6", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip().startswith("{")
    assert "no askgate source tree" in proc.stderr


def test_sigterm_stops_the_stub():
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "gate-endpoint-4x4",
         "--seed", "0", "--seconds", "30", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        time.sleep(5)
        children = subprocess.run(["pgrep", "-P", str(proc.pid)], stdout=subprocess.PIPE,
                                  text=True, check=False).stdout.split()
    finally:
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=30)
    assert children, "the endpoint workload should have started its stub"
    assert all(_gone(int(pid)) for pid in children)
