"""CLI driver: exit codes, artifact layout, config resolution, report rendering."""

import csv
import io
import json
import os
import re
import shutil
import struct
import subprocess
import sys

import pytest

import askgate
from askgate import trainer as trainer_mod
from askgate.atomic import write_atomic
from askgate.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main
from askgate.env import Split, load_context_set
from askgate.gate import csv_text, read_csv
from askgate.metrics import (
    SUMMARY_CSV_HEADER,
    RunSummary,
    SummaryRow,
    read_summary_csv,
    write_summary_csv,
)
from askgate.policy import MlpPolicy, load_weights, save_weights


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One full pipeline: contexts gen -> train -> run x2 -> tune -> artifacts."""
    root = tmp_path_factory.mktemp("cli")
    out = str(root / "runs")
    ctx = os.path.join(out, "contexts", "s4_c30_seed7.txt")
    weights = os.path.join(out, "weights", "w4_seed0.bin")

    assert main(["contexts", "gen", "--size", "4", "--count", "30", "--seed", "7",
                 "--out", out]) == EXIT_OK
    assert main(["train", "--contexts", ctx, "--timesteps", "4096",
                 "--eval-interval", "2048", "--eval-episodes", "10",
                 "--seed", "0", "--out", out]) == EXIT_OK
    assert main(["run", "--mode", "ppo", "--split", "test", "--contexts", ctx,
                 "--weights", weights, "--episodes", "6", "--passes", "5",
                 "--seed", "1", "--out", out]) == EXIT_OK
    assert main(["run", "--mode", "ask", "--client", "rule", "--split", "test",
                 "--contexts", ctx, "--weights", weights, "--episodes", "6",
                 "--passes", "5", "--tau", "0.2", "--seed", "1", "--out", out]) == EXIT_OK
    assert main(["tune", "--contexts", ctx, "--weights", weights, "--client", "rule",
                 "--trials", "2", "--episodes", "2", "--passes", "5",
                 "--seed", "2", "--out", out]) == EXIT_OK
    return {"out": out, "ctx": ctx, "weights": weights}


# ---------------------------------------------------------------------------
# Exit codes


def test_missing_subcommand_is_a_usage_error(capsys):
    assert main([]) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


def test_unknown_subcommand_is_a_usage_error():
    assert main(["frobnicate"]) == EXIT_USAGE


def test_contexts_without_action_is_a_usage_error():
    assert main(["contexts"]) == EXIT_USAGE


def test_missing_required_flag_is_a_usage_error(capsys):
    assert main(["contexts", "gen"]) == EXIT_USAGE
    assert "--size" in capsys.readouterr().err


def test_unknown_client_spec_is_a_usage_error(workspace, tmp_path, capsys):
    # The empty spec used to run ask mode without a client (exit 2).
    for spec in ("ouija", ""):
        for command in (["run", "--mode", "ask"], ["run", "--mode", "lm"], ["tune"]):
            code = main([*command, "--client", spec, "--contexts", workspace["ctx"],
                         "--weights", workspace["weights"], "--out", str(tmp_path)])
            assert code == EXIT_USAGE
            assert f"unknown client spec: {spec!r}" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_missing_context_file_is_a_runtime_error(tmp_path, capsys):
    code = main(["run", "--mode", "ppo", "--contexts", str(tmp_path / "nope.txt"),
                 "--weights", str(tmp_path / "w.bin"), "--out", str(tmp_path)])
    assert code == EXIT_RUNTIME
    assert "not found" in capsys.readouterr().err


def test_corrupt_weights_are_a_runtime_error(workspace, tmp_path, capsys):
    # Junk, a first array whose header declares more than the file holds, and
    # the two heads of a trained policy without its trunk.
    huge = bytearray(open(workspace["weights"], "rb").read())
    huge[12:20] = struct.pack("<II", 0xFFFFFFFF, 0xFFFFFFFF)
    trained = load_weights(workspace["weights"])
    save_weights(MlpPolicy(trained.flat, (), trained.action_head, trained.value_head),
                 str(tmp_path / "heads.bin"))
    heads = (tmp_path / "heads.bin").read_bytes()
    for blob in (b"JUNKJUNKJUNK", bytes(huge), heads):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(blob)
        code = main(["run", "--mode", "ppo", "--contexts", workspace["ctx"],
                     "--weights", str(bad), "--out", str(tmp_path)])
        assert code == EXIT_RUNTIME
        assert "bad weights file" in capsys.readouterr().err


def test_non_finite_weights_are_a_runtime_error(workspace, tmp_path, capsys):
    # A NaN weight makes every uncertainty NaN, which never reaches tau, so
    # an ask run used to exit 0 having never consulted.
    policy = load_weights(workspace["weights"])
    policy.trunk[0][0][0, 0] = float("nan")
    bad = str(tmp_path / "nan.bin")
    save_weights(policy, bad)
    for command in (["run", "--mode", "ask", "--tau", "0.1"], ["tune"]):
        code = main([*command, "--client", "rule", "--contexts", workspace["ctx"],
                     "--weights", bad, "--episodes", "2", "--passes", "5",
                     "--out", str(tmp_path / "runs")])
        assert code == EXIT_RUNTIME
        assert f"bad weights file {bad}: array 0 holds nan" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "runs")


def test_out_of_range_dropout_rate_is_a_runtime_error(workspace, tmp_path, capsys):
    out = tmp_path / "runs"
    for rate in ("1.0", "1.5", "-0.5"):
        for command in (["run", "--mode", "ask", "--client", "rule"],
                        ["tune", "--client", "rule"]):
            code = main([*command, "--contexts", workspace["ctx"],
                         "--weights", workspace["weights"], "--episodes", "2",
                         "--passes", "5", "--dropout-rate", rate, "--out", str(out)])
            assert code == EXIT_RUNTIME
            assert "dropout_rate" in capsys.readouterr().err
    assert not out.exists()  # no episode, summary or study CSV was written


def test_nan_tau_is_a_runtime_error(workspace, tmp_path, capsys):
    out = tmp_path / "runs"
    code = main(["run", "--mode", "ask", "--client", "rule", "--tau", "nan",
                 "--contexts", workspace["ctx"], "--weights", workspace["weights"],
                 "--episodes", "2", "--passes", "5", "--out", str(out)])
    assert code == EXIT_RUNTIME
    assert "tau" in capsys.readouterr().err
    assert not out.exists()


def test_episodes_below_one_is_a_runtime_error_naming_the_option(workspace, tmp_path, capsys):
    # This used to end in "aggregate requires at least one episode".
    out = tmp_path / "runs"
    for episodes in ("0", "-3"):
        for command in (["run", "--mode", "ppo"], ["run", "--mode", "ask"], ["tune"]):
            code = main([*command, "--contexts", workspace["ctx"],
                         "--weights", workspace["weights"], "--episodes", episodes,
                         "--passes", "5", "--out", str(out)])
            assert code == EXIT_RUNTIME
            assert f"episodes must be at least 1, got {episodes}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["contexts gen", "train", "run", "tune"])
def test_a_negative_seed_is_refused_naming_the_option(workspace, tmp_path, monkeypatch, capsys,
                                                      command):
    # Each used to exit 2 with NumPy's bare "expected non-negative integer".
    inputs = {"contexts gen": ["--size", "4", "--count", "6"],
              "train": ["--contexts", workspace["ctx"], "--timesteps", "2048"],
              "run": ["--contexts", workspace["ctx"], "--weights", workspace["weights"],
                      "--episodes", "2", "--passes", "5"],
              "tune": ["--contexts", workspace["ctx"], "--weights", workspace["weights"],
                       "--trials", "2", "--episodes", "2", "--passes", "5"]}[command]
    argv = [*command.split(), *inputs, "--out", str(tmp_path / "runs")]
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": -1}))
    monkeypatch.chdir(tmp_path)  # a stray write would land here
    assert main([*argv, "--seed", "-1"]) == EXIT_USAGE
    assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err
    assert main([*argv, "--config", str(path)]) == EXIT_RUNTIME
    assert "'seed' does not fit --seed, got -1" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["config.json"]


def test_missing_config_file_is_a_runtime_error(tmp_path):
    assert main(["contexts", "gen", "--size", "4",
                 "--config", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path)]) == EXIT_RUNTIME


def test_map_size_below_two_is_a_runtime_error(tmp_path, capsys):
    for size in ("1", "0", "-3"):
        assert main(["contexts", "gen", "--size", size, "--count", "1",
                     "--out", str(tmp_path)]) == EXIT_RUNTIME
        assert "at least 2x2" in capsys.readouterr().err
    assert not (tmp_path / "contexts").exists()


def test_count_below_one_is_a_runtime_error(tmp_path, capsys):
    for count in ("0", "-5"):
        assert main(["contexts", "gen", "--size", "4", "--count", count,
                     "--out", str(tmp_path)]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "generation failed" in err and "count must be at least 1" in err
    assert not (tmp_path / "contexts").exists()


def test_a_count_above_the_distinct_maps_is_a_runtime_error(tmp_path, capsys):
    # 16 solvable 3x3 maps exist; the 17th is refused before any draw, not
    # after the whole attempt budget.
    assert main(["contexts", "gen", "--size", "3", "--count", "17",
                 "--out", str(tmp_path)]) == EXIT_RUNTIME
    assert ("error: generation failed: count 17 exceeds 16, the number of distinct maps of "
            "size 3 (solvable=True, hole_probability=0.2)") in capsys.readouterr().err
    assert not (tmp_path / "contexts").exists()


def test_report_without_inputs_is_a_usage_error():
    assert main(["report"]) == EXIT_USAGE


# ---------------------------------------------------------------------------
# Artifacts


def test_generated_context_file_loads(workspace):
    cs = load_context_set(workspace["ctx"])
    assert cs.size == 4 and cs.count == 30 and cs.seed == 7
    assert len(cs.split(Split.TEST)) == 10


def test_training_writes_weights_sidecar_and_log(workspace):
    weights_dir = os.path.join(workspace["out"], "weights")
    policy = load_weights(workspace["weights"])
    assert policy.input_dim == 64
    meta = json.load(open(os.path.join(weights_dir, "w4_seed0.meta.json")))
    assert meta["cmd"] == "train" and meta["seed"] == 0
    assert meta["timesteps"] == 4096 and meta["contexts"] == workspace["ctx"]
    log_lines = open(os.path.join(weights_dir, "w4_seed0_trainlog.csv")).read().splitlines()
    assert log_lines[0].startswith("# config ")
    assert log_lines[1] == "timestep,eval_reward_mean,eval_reward_std,eval_len_mean"
    assert [ln.split(",")[0] for ln in log_lines[2:]] == ["2048", "4096"]


def test_run_writes_episode_and_summary_csvs(workspace):
    episodes = os.path.join(workspace["out"], "episodes",
                            "ask_rule_test_s4_tau0.2_seed1.csv")
    summary = os.path.join(workspace["out"], "summaries",
                           "ask_rule_test_s4_tau0.2_seed1.csv")
    ep_lines = open(episodes).read().splitlines()
    snapshot = json.loads(ep_lines[0][len("# config "):])
    assert snapshot["mode"] == "ask" and snapshot["tau"] == 0.2
    assert snapshot["contexts"] == workspace["ctx"]
    assert ep_lines[1].startswith("episode,step,obs,")
    sm_lines = open(summary).read().splitlines()
    assert sm_lines[1].startswith("size,model,mode,split,")
    assert sm_lines[2].startswith("4,rule,ask,test,")


def test_tune_writes_a_study(workspace):
    path = os.path.join(workspace["out"], "summaries", "tune_rule_s4_seed2.csv")
    lines = open(path).read().splitlines()
    assert lines[1] == "trial,tau,reward_mean,reward_std,ir_pct,or_pct"
    assert len(lines) == 4  # config + header + 2 trials


def test_runs_are_byte_stable(workspace, tmp_path):
    again = str(tmp_path / "again")
    assert main(["run", "--mode", "ask", "--client", "rule", "--split", "test",
                 "--contexts", workspace["ctx"], "--weights", workspace["weights"],
                 "--episodes", "6", "--passes", "5", "--tau", "0.2",
                 "--seed", "1", "--out", again]) == EXIT_OK
    name = "ask_rule_test_s4_tau0.2_seed1.csv"
    first = open(os.path.join(workspace["out"], "episodes", name), "rb").read()
    second = open(os.path.join(again, "episodes", name), "rb").read()
    assert first == second


def test_a_run_refuses_to_replace_the_results_of_another_config(workspace, tmp_path, capsys):
    out = str(tmp_path / "runs")
    run = ["run", "--mode", "ask", "--client", "rule", "--contexts", workspace["ctx"],
           "--weights", workspace["weights"], "--episodes", "2", "--out", out]
    tune = ["tune", "--contexts", workspace["ctx"], "--weights", workspace["weights"],
            "--trials", "2", "--episodes", "2", "--passes", "3", "--out", out]
    assert main([*run, "--passes", "3"]) == EXIT_OK
    assert main(tune) == EXIT_OK
    before = _tree(out)
    assert len(before) == 3  # one file name per run, whatever the passes or trials
    for argv in ([*run, "--passes", "4"], [*run, "--passes", "3", "--max-steps", "9"],
                 [*tune, "--trials", "3"], [*tune, "--lo", "0.2"]):
        capsys.readouterr()
        assert main(argv) == EXIT_RUNTIME
        assert "holds the results of another config" in capsys.readouterr().err
        assert _tree(out) == before
    # The same config may write its own files again.
    assert main([*run, "--passes", "3"]) == EXIT_OK
    assert main(tune) == EXIT_OK
    assert _tree(out) == before


def test_a_train_refuses_to_replace_the_weights_of_another_config(
        workspace, tmp_path, capsys, monkeypatch):
    out = str(tmp_path / "runs")
    train = ["train", "--contexts", workspace["ctx"], "--eval-interval", "512",
             "--eval-episodes", "2", "--out", out]
    assert main([*train, "--timesteps", "512"]) == EXIT_OK
    before = _tree(out)
    assert sorted(before) == [os.path.join("weights", name) for name in
                              ("w4_seed0.bin", "w4_seed0.meta.json", "w4_seed0_trainlog.csv")]
    real_train = trainer_mod.train

    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(trainer_mod, "train", no_training)
    for argv in ([*train, "--timesteps", "1024"], [*train, "--timesteps", "512", "--eval-episodes", "3"],
                 [*train, "--timesteps", "512", "--eval-interval", "256"]):
        capsys.readouterr()
        assert main(argv) == EXIT_RUNTIME
        assert "holds the results of another config" in capsys.readouterr().err
        assert _tree(out) == before
    # The same config may write its own files again.
    monkeypatch.setattr(trainer_mod, "train", real_train)
    assert main([*train, "--timesteps", "512"]) == EXIT_OK
    assert _tree(out) == before


def test_tune_bounds_outside_the_finite_non_negative_range_are_a_runtime_error(
        workspace, tmp_path, capsys):
    for bounds in (["--hi", "inf"], ["--lo=-1e308", "--hi=1e308"], ["--lo=-0.5"],
                   ["--lo", "nan"], ["--lo", "0.5", "--hi", "0.5"]):
        code = main(["tune", "--contexts", workspace["ctx"], "--weights", workspace["weights"],
                     "--trials", "2", "--episodes", "2", "--passes", "3", *bounds,
                     "--out", str(tmp_path)])
        assert code == EXIT_RUNTIME
        assert "0 <= lo < hi" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_scripted_client_runs_from_a_response_file(workspace, tmp_path, capsys):
    script = tmp_path / "answers.txt"
    script.write_text('{"action":"RIGHT"}\n' * 300)
    code = main(["run", "--mode", "lm", "--client", f"scripted:{script}",
                 "--split", "test", "--contexts", workspace["ctx"],
                 "--weights", workspace["weights"], "--episodes", "2",
                 "--passes", "5", "--seed", "0", "--out", str(tmp_path / "runs")])
    assert code == EXIT_OK
    assert "lm mode consults every step" in capsys.readouterr().out


def test_config_file_supplies_defaults_and_flags_override(tmp_path, capsys):
    config = tmp_path / "gen.json"
    config.write_text(json.dumps({"size": 4, "count": 5, "seed": 9}))
    out = str(tmp_path / "runs")
    assert main(["contexts", "gen", "--config", str(config), "--out", out]) == EXIT_OK
    assert os.path.exists(os.path.join(out, "contexts", "s4_c5_seed9.txt"))
    assert main(["contexts", "gen", "--config", str(config), "--count", "3",
                 "--out", out]) == EXIT_OK
    assert os.path.exists(os.path.join(out, "contexts", "s4_c3_seed9.txt"))
    # Numeric strings and whole floats read as the flags read them.
    config.write_text(json.dumps({"size": "4", "count": 6.0, "seed": "9", "unsolvable": False}))
    assert main(["contexts", "gen", "--config", str(config), "--out", out]) == EXIT_OK
    assert os.path.exists(os.path.join(out, "contexts", "s4_c6_seed9.txt"))


_GEN = ["contexts", "gen", "--size", "4", "--count", "6"]


@pytest.mark.parametrize("command, config", [
    (_GEN, {"count": None}),
    (_GEN, {"count": [3]}),
    (_GEN, {"count": True}),
    (_GEN, {"count": 1e400}),
    (_GEN, {"count": 6.5}),  # int() would truncate it to 6
    (_GEN, {"seed": -0.5}),
    (_GEN, {"seed": None}),
    (_GEN, {"out": 5}),
    (_GEN, {"unsolvable": "no"}),
    (["report"], {"summaries": "x.csv"}),
])
def test_config_values_of_the_wrong_type_are_a_runtime_error(tmp_path, monkeypatch, capsys,
                                                            command, config):
    # Each used to end in a traceback, a write under a mangled path, or a
    # value read as something else ("no" as true, a string as its letters).
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    [key] = config
    monkeypatch.chdir(tmp_path)  # a stray write would land here
    code = main([*command, "--config", str(path)])
    assert code == EXIT_RUNTIME
    assert f"{key!r} does not fit --{key}" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["config.json"]


def _options(command, tmp_path, capsys):
    """The config keys ``command`` accepts, as its refusal of an unknown key lists them."""
    path = tmp_path / "unknown.json"
    path.write_text(json.dumps({"bogus": 1}))
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp_path)  # a stray write under the default --out would land here
        assert main([*command, "--config", str(path)]) == EXIT_RUNTIME
    assert os.listdir(tmp_path) == ["unknown.json"]
    path.unlink()
    err = capsys.readouterr().err
    assert "'bogus' is not an option of askgate " in err
    return err.rpartition("use one of ")[2].strip().split(", ")


def _flags(settings):
    """The command-line form of a config file's settings."""
    argv = []
    for key, value in settings.items():
        flag = "--format" if key == "fmt" else "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif isinstance(value, list):
            argv += [flag, *value]
        else:
            argv += [flag, str(value)]
    return argv


def _tree(root):
    """Every file under ``root``, by relative path, with its bytes."""
    return {os.path.relpath(os.path.join(d, name), root): open(os.path.join(d, name), "rb").read()
            for d, _, names in os.walk(root) for name in names}


def _config_cases(ws):
    summaries = [os.path.join(ws["out"], "summaries", name) for name in
                 ("ppo_ppo_test_s4_tau0.5_seed1.csv", "ask_rule_test_s4_tau0.2_seed1.csv")]
    episodes = os.path.join(ws["out"], "episodes", "ask_rule_test_s4_tau0.2_seed1.csv")
    return {
        "contexts gen": [{"size": 4, "count": 12, "unsolvable": True, "seed": 3}],
        "train": [{"contexts": ws["ctx"], "timesteps": 2048, "eval_interval": 1024,
                   "eval_episodes": 4, "name": "cfg", "seed": 1}],
        "run": [{"mode": "ask", "split": "eval", "contexts": ws["ctx"], "weights": ws["weights"],
                 "client": "rule", "model": "m", "tau": 0.3, "passes": 4, "dropout_rate": 0.1,
                 "episodes": 3, "max_steps": 9, "seed": 2}],
        "tune": [{"contexts": ws["ctx"], "weights": ws["weights"], "client": "rule",
                  "model": "m", "lo": 0.2, "hi": 0.9, "trials": 2, "episodes": 2, "passes": 4,
                  "dropout_rate": 0.1, "seed": 2}],
        "report": [{"summaries": summaries, "fmt": "csv", "seed": 4},
                   {"trajectory": episodes, "episode": 1, "contexts": ws["ctx"]}],
    }


def test_config_cases_hold_every_option(workspace, tmp_path, capsys):
    for command, cases in _config_cases(workspace).items():
        keys = {"out"}.union(*cases)  # each case's file gives its own --out
        assert keys == set(_options(command.split(), tmp_path, capsys)), command


@pytest.mark.parametrize("command, case", [
    (command, i) for command, n in
    (("contexts gen", 1), ("train", 1), ("run", 1), ("tune", 1), ("report", 2))
    for i in range(n)])
def test_a_config_file_and_the_same_flags_give_the_same_bytes(workspace, tmp_path, capsys,
                                                              command, case):
    settings = _config_cases(workspace)[command][case]
    results = []
    for via in ("config", "flags"):
        out = str(tmp_path / via)
        if via == "config":
            path = tmp_path / "settings.json"
            path.write_text(json.dumps({**settings, "out": out}))
            argv = [*command.split(), "--config", str(path)]
        else:
            argv = [*command.split(), *_flags(settings), "--out", out]
        assert main(argv) == EXIT_OK, capsys.readouterr().err
        captured = capsys.readouterr()
        results.append((captured.out.replace(out, "OUT"), captured.err,
                        _tree(out) if os.path.exists(out) else None))
    assert results[0] == results[1]
    if command != "report":
        assert results[0][2]


@pytest.mark.parametrize("command, config", [
    (["tune"], {"max_steps": 3}),
    (["tune"], {"tau": 0.3}),
    (["report"], {"format": "csv"}),
    (["run", "--mode", "ask"], {"dropout-rate": 0.5}),
])
def test_a_config_key_the_command_has_no_option_for_is_a_runtime_error(
        workspace, tmp_path, monkeypatch, capsys, command, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    [key] = config
    monkeypatch.chdir(tmp_path)
    extra = [] if command == ["report"] else ["--contexts", workspace["ctx"],
                                              "--weights", workspace["weights"]]
    assert main([*command, *extra, "--config", str(path)]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert f"{key!r} is not an option of askgate {command[0]}" in err
    assert os.listdir(tmp_path) == ["config.json"]


@pytest.mark.parametrize("command, artifact", [
    ("train", ("weights", "w4_seed0_trainlog.csv")),
    ("run", ("episodes", "ask_rule_test_s4_tau0.2_seed1.csv")),
    ("run", ("summaries", "ask_rule_test_s4_tau0.2_seed1.csv")),
    ("tune", ("summaries", "tune_rule_s4_seed2.csv")),
])
def test_every_setting_is_recorded_in_the_config_line(workspace, tmp_path, capsys,
                                                      command, artifact):
    recorded = read_csv(os.path.join(workspace["out"], *artifact))[0]
    settings = set(_options([command], tmp_path, capsys)) - {"config", "out", "name"}
    assert set(recorded) == settings | {"cmd", "size"}


@pytest.mark.parametrize("command", [["contexts", "gen"], ["train"], ["run"], ["tune"],
                                     ["report"]])
def test_usage_lists_the_command_flags_before_the_common_ones(tmp_path, capsys, command):
    own = [option for option in _options(command, tmp_path, capsys)
           if option not in ("seed", "out")]
    with pytest.raises(SystemExit):
        main([*command, "--help"])
    usage = capsys.readouterr().out.partition("\n\n")[0]

    def at(option):
        flag = "--format" if option == "fmt" else "--" + option.replace("_", "-")
        return re.search(rf"\[{flag}[ \]]", usage).start()

    common = [at("seed"), at("config"), at("out")]
    assert max(map(at, own)) < common[0] < common[1] < common[2]


# ---------------------------------------------------------------------------
# Reports


def test_report_merges_summaries_and_skips_studies(workspace, capsys):
    summaries_dir = os.path.join(workspace["out"], "summaries")
    paths = sorted(os.path.join(summaries_dir, name) for name in os.listdir(summaries_dir))
    assert len(paths) == 3  # two runs plus the tune study
    assert main(["report", "--summaries", *paths, "--format", "table"]) == EXIT_OK
    captured = capsys.readouterr()
    assert "skipping tune study" in captured.err
    lines = captured.out.splitlines()
    assert lines[0].startswith("Size  Model")
    assert len([ln for ln in lines if ln.startswith("4")]) == 2


def test_report_renders_csv_format(workspace, capsys):
    summary = os.path.join(workspace["out"], "summaries",
                           "ppo_ppo_test_s4_tau0.5_seed1.csv")
    assert main(["report", "--summaries", summary, "--format", "csv"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[0] == ("size,model,mode,split,reward_mean,reward_std,"
                                   "len_mean,len_std,ir_pct,or_pct,episodes,tau,seed")


def test_report_round_trips_a_model_label_with_a_comma(tmp_path, capsys):
    row = SummaryRow(size=4, model="org/model,v2", mode="ask", split="test", tau=0.5,
                     seed=0, summary=RunSummary(0.75, 0.25, 7.5, 1.5, 40.0, 12.5, 100))
    path = tmp_path / "summary.csv"
    write_summary_csv([row], str(path), {"model": row.model})
    assert read_summary_csv(str(path)) == [row]
    assert main(["report", "--summaries", str(path), "--format", "csv"]) == EXIT_OK
    parsed = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert parsed[0] == SUMMARY_CSV_HEADER
    assert parsed[1][:4] == ["4", "org/model,v2", "ask", "test"]
    assert len(parsed) == 2


@pytest.mark.parametrize("column, cell", [("size", "x"), ("reward_std", "abc"),
                                          ("seed", "1.5")])
def test_a_summary_cell_that_is_not_a_number_names_its_file_and_column(
        workspace, tmp_path, capsys, column, cell):
    summary = os.path.join(workspace["out"], "summaries",
                           "ask_rule_test_s4_tau0.2_seed1.csv")
    config, header, rows = read_csv(summary)
    rows[0][header.index(column)] = cell
    bad = str(tmp_path / "bad.csv")
    write_atomic(bad, csv_text(header, rows, config))
    assert main(["report", "--summaries", bad]) == EXIT_RUNTIME
    assert (f"error: {bad}: column {column!r} holds {cell!r}, not a number\n"
            == capsys.readouterr().err)


def test_report_with_only_studies_is_a_runtime_error(workspace, capsys):
    study = os.path.join(workspace["out"], "summaries", "tune_rule_s4_seed2.csv")
    assert main(["report", "--summaries", study]) == EXIT_RUNTIME
    assert "no summary rows" in capsys.readouterr().err


def test_report_overlays_a_trajectory(workspace, capsys):
    episodes = os.path.join(workspace["out"], "episodes",
                            "ask_rule_test_s4_tau0.2_seed1.csv")
    assert main(["report", "--trajectory", episodes, "--episode", "0"]) == EXIT_OK
    out = capsys.readouterr().out
    grid_rows = out.splitlines()[:4]
    assert all(len(row) == 4 for row in grid_rows)
    assert grid_rows[0][0] == "S" and grid_rows[3][3] == "G"
    assert "context" in out and "outcome" in out


def test_trajectory_that_does_not_fit_its_map_is_a_runtime_error(workspace, tmp_path, capsys):
    episodes = os.path.join(workspace["out"], "episodes",
                            "ask_rule_test_s4_tau0.2_seed1.csv")
    config, header, rows = read_csv(episodes)
    walk = [row for row in rows if row[0] == "0"]
    cut = str(tmp_path / "cut.csv")
    for kept, message in ((walk[:-1], "the outcome is running"),
                          (walk + walk[-1:], f"after {len(walk)} the outcome is")):
        write_atomic(cut, csv_text(header, kept, config))
        assert main(["report", "--trajectory", cut, "--episode", "0"]) == EXIT_RUNTIME
        assert message in capsys.readouterr().err
    # The 4x4 walks replayed on a 6x6 context set, from a CSV that records no
    # size, so only the replay can tell that they do not fit.
    assert main(["contexts", "gen", "--size", "6", "--count", "30", "--seed", "7",
                 "--out", str(tmp_path)]) == EXIT_OK
    other = str(tmp_path / "contexts" / "s6_c30_seed7.txt")
    unsized = str(tmp_path / "unsized.csv")
    write_atomic(unsized, csv_text(header, rows, {k: v for k, v in config.items() if k != "size"}))
    for episode in range(6):
        length = sum(row[0] == str(episode) for row in rows)
        assert main(["report", "--trajectory", unsized, "--episode", str(episode),
                     "--contexts", other]) == EXIT_RUNTIME
        assert f"{length} logged actions do not fit context" in capsys.readouterr().err


def test_trajectory_on_a_context_set_of_another_size_is_a_runtime_error(workspace, tmp_path,
                                                                        capsys):
    episodes = os.path.join(workspace["out"], "episodes",
                            "ask_rule_test_s4_tau0.2_seed1.csv")
    for size in ("5", "6"):
        assert main(["contexts", "gen", "--size", size, "--count", "30", "--seed", "7",
                     "--out", str(tmp_path)]) == EXIT_OK
        other = str(tmp_path / "contexts" / f"s{size}_c30_seed7.txt")
        assert main(["report", "--trajectory", episodes, "--contexts", other]) == EXIT_RUNTIME
        assert f"holds size {size} maps, but" in capsys.readouterr().err


def test_trajectory_on_a_context_set_without_its_split_is_a_runtime_error(workspace, tmp_path,
                                                                          capsys):
    out = str(tmp_path / "runs")
    assert main(["run", "--mode", "ppo", "--split", "eval", "--contexts", workspace["ctx"],
                 "--weights", workspace["weights"], "--episodes", "2", "--seed", "1",
                 "--out", out]) == EXIT_OK
    episodes = os.path.join(out, "episodes", "ppo_ppo_eval_s4_tau0.5_seed1.csv")
    # Two maps: both land in the test split, so the eval split is empty.
    assert main(["contexts", "gen", "--size", "4", "--count", "2", "--out", out]) == EXIT_OK
    two = os.path.join(out, "contexts", "s4_c2_seed0.txt")
    for episode in ("0", "1"):
        assert main(["report", "--trajectory", episodes, "--episode", episode,
                     "--contexts", two]) == EXIT_RUNTIME
        assert "context set has no eval contexts" in capsys.readouterr().err


def test_trajectory_for_a_missing_episode_is_a_runtime_error(workspace, capsys):
    episodes = os.path.join(workspace["out"], "episodes",
                            "ask_rule_test_s4_tau0.2_seed1.csv")
    assert main(["report", "--trajectory", episodes, "--episode", "99"]) == EXIT_RUNTIME
    assert "episode 99" in capsys.readouterr().err
    summary = os.path.join(workspace["out"], "summaries",
                           "ask_rule_test_s4_tau0.2_seed1.csv")
    assert main(["report", "--trajectory", summary]) == EXIT_RUNTIME
    assert "not an episode CSV" in capsys.readouterr().err


def test_trajectory_with_an_unknown_action_name_is_a_runtime_error(workspace, tmp_path, capsys):
    episodes = os.path.join(workspace["out"], "episodes",
                            "ask_rule_test_s4_tau0.2_seed1.csv")
    config, header, rows = read_csv(episodes)
    rows[0][header.index("final_action")] = "JUMP"
    jump = str(tmp_path / "jump.csv")
    write_atomic(jump, csv_text(header, rows, config))
    assert main(["report", "--trajectory", jump, "--episode", "0"]) == EXIT_RUNTIME
    assert f"{jump}: final_action 'JUMP' is not an action name" in capsys.readouterr().err


def test_trajectory_with_a_non_integer_episode_is_a_runtime_error(workspace, tmp_path, capsys):
    # This used to print only "invalid literal for int() with base 10: 'x'".
    episodes = os.path.join(workspace["out"], "episodes",
                            "ask_rule_test_s4_tau0.2_seed1.csv")
    config, header, rows = read_csv(episodes)
    rows[0][header.index("episode")] = "x"
    bad = str(tmp_path / "bad.csv")
    write_atomic(bad, csv_text(header, rows, config))
    assert main(["report", "--trajectory", bad, "--episode", "0"]) == EXIT_RUNTIME
    assert f"{bad}: a cell of the episode column is not an integer" in capsys.readouterr().err


def test_trajectory_with_a_config_line_that_is_not_an_object_is_a_runtime_error(
        workspace, tmp_path, capsys):
    episodes = os.path.join(workspace["out"], "episodes",
                            "ask_rule_test_s4_tau0.2_seed1.csv")
    lines = open(episodes).read().splitlines(keepends=True)
    odd = tmp_path / "odd.csv"
    odd.write_text("# config [1]\n" + "".join(lines[1:]))
    assert main(["report", "--trajectory", str(odd), "--contexts", workspace["ctx"]]) == EXIT_RUNTIME
    assert "JSON object" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Console entry point


PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "pyproject.toml")


def _declared_script(name):
    """The entry point ``module:attr`` that ``pyproject.toml`` declares for console script ``name``.

    Read line by line rather than with ``tomllib``, which Python 3.10 lacks.
    """
    with open(PYPROJECT, encoding="utf-8") as fh:
        return _script_from_text(fh.read(), name)


def _script_from_text(text, name):
    section = None
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("["):
            section = line
            continue
        key, eq, value = line.partition("=")
        if section == "[project.scripts]" and eq and key.strip() == name:
            return value.strip().strip("\"'")
    raise KeyError(name)


def _assert_full_help(result):
    assert result.returncode == 0, result.stderr
    # The description names the subcommands too, so check the parser's own listing.
    listed = result.stdout.partition("positional arguments:")[2]
    for command in ("contexts", "train", "run", "tune", "report"):
        assert re.search(rf"^\s+{command}\s", listed, re.M), command


def test_console_script_runs_in_a_subprocess(tmp_path):
    # The child finds this checkout's package whether or not PYTHONPATH names it.
    src = os.path.dirname(os.path.dirname(os.path.abspath(askgate.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    result = subprocess.run(
        [sys.executable, "-m", "askgate.cli", "contexts", "gen", "--size", "4",
         "--count", "3", "--seed", "7", "--out", str(tmp_path / "runs")],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert result.returncode == EXIT_OK, result.stderr
    assert "wrote" in result.stdout
    # Run the declared entry point the way the wrapper that an install puts on PATH does.
    module, _, attr = _declared_script("askgate").partition(":")
    assert module and attr.isidentifier()
    wrapper = (f"import sys; from {module} import {attr}; "
               f"sys.argv[0] = 'askgate'; sys.exit({attr}())")
    _assert_full_help(subprocess.run([sys.executable, "-c", wrapper, "--help"],
                                     capture_output=True, text=True, timeout=120, env=env))


HTTP_MODULES = ("requests", "urllib3", "http.client")


def test_runs_without_an_endpoint_never_load_the_http_stack(workspace, tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(askgate.__file__)))
    common = ["--contexts", workspace["ctx"], "--weights", workspace["weights"],
              "--episodes", "2", "--passes", "5", "--out", str(tmp_path)]
    script = f"""
import json, sys
sys.path.insert(0, {src!r})
import askgate, askgate.cli
loaded = {{"import": [m for m in {HTTP_MODULES!r} if m in sys.modules]}}
for mode in (["--mode", "ppo"], ["--mode", "ask", "--client", "rule"]):
    assert askgate.cli.main(["run", *mode, *{common!r}]) == 0
loaded["runs"] = [m for m in {HTTP_MODULES!r} if m in sys.modules]
askgate.lm.EndpointClient(base_url="http://127.0.0.1:9")
loaded["endpoint"] = [m for m in {HTTP_MODULES!r} if m in sys.modules]
print(json.dumps(loaded))
"""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            timeout=120, env=env)
    assert result.returncode == 0, result.stderr
    loaded = json.loads(result.stdout.splitlines()[-1])
    assert loaded == {"import": [], "runs": [], "endpoint": list(HTTP_MODULES)}


@pytest.mark.skipif(shutil.which("askgate") is None,
                    reason="askgate console script not installed")
def test_installed_console_script_prints_full_help():
    _assert_full_help(subprocess.run(["askgate", "--help"], capture_output=True,
                                     text=True, timeout=120))


def test_scripts_text_read_agrees_with_declaration():
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        declared = tomllib.load(fh)["project"]["scripts"]["askgate"]
    assert _declared_script("askgate") == declared


def test_scripts_text_read_ignores_other_sections():
    decoy = '[tool.other]\naskgate = "x:y"\n[project.scripts]\naskgate = "a.b:main"\n'
    assert _script_from_text(decoy, "askgate") == "a.b:main"
