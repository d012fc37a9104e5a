"""The four benchmark workloads: set-up, the askgate command, and its checks.

The workload seed drives the context-set seed (``CONTEXT_SEED + seed``) and
the ``--seed`` of ``run`` and ``tune``. Training always uses seed 0, and the
weights fixtures stay fixed whatever the seed. Values recorded in
``expected.json`` are compared only on the seed they were recorded for.
"""

from __future__ import annotations

import contextlib
import glob
import hashlib
import io
import json
import os
import shutil
from dataclasses import dataclass

import checks
from stub_server import StubError, StubProcess

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURE_DIR = os.path.join(HERE, "fixtures")
EXPECTED_PATH = os.path.join(HERE, "expected.json")

CONTEXT_COUNT = 300
CONTEXT_SEED = 7
TRAIN_SEED = 0
TRAIN_TIMESTEPS = 40_960
TRAIN_EVAL_INTERVAL = 20_480        # two evaluations per command
REWARD_BAR = 0.80                   # the criterion-3 bar
GATE_EPISODES = 100
GATE_TAU = 0.12
TUNE_TRIALS = 10
TUNE_EPISODES = 100
TUNE_LO, TUNE_HI = 0.10, 1.20       # askgate's default search range


class SetupError(RuntimeError):
    """The benchmark cannot be set up (missing source, bad fixture, stub)."""


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def verify_fixture(name: str, fixture_dir: str = FIXTURE_DIR) -> str:
    """Path of a weights fixture whose sha256 matches ``fixtures.json``."""
    with open(os.path.join(fixture_dir, "fixtures.json"), "r", encoding="utf-8") as fh:
        entry = json.load(fh)[name]
    path = os.path.join(fixture_dir, entry["file"])
    if not os.path.exists(path):
        raise SetupError(f"weights fixture {path} is missing")
    found = sha256_file(path)
    if found != entry["sha256"]:
        raise SetupError(f"weights fixture {path} has sha256 {found}, "
                         f"expected {entry['sha256']}; regenerate with: {entry['command']}")
    return path


def load_expected(key: str, seed: int) -> dict | None:
    with open(EXPECTED_PATH, "r", encoding="utf-8") as fh:
        recorded = json.load(fh)
    return recorded.get(key) if seed == recorded["seed"] else None


@dataclass
class State:
    """What one set-up produced; commands write under ``out``."""

    workdir: str
    seed: int
    src_dir: str
    contexts: str = ""
    weights: str = ""
    stub: StubProcess | None = None
    expected: dict | None = None

    @property
    def out(self) -> str:
        return os.path.join(self.workdir, "out")


def _only(pattern: str) -> str:
    found = glob.glob(pattern)
    if len(found) != 1:
        raise checks.CheckFailed(f"expected one artifact matching {pattern}, found {found}")
    return found[0]


class Workload:
    name = ""
    size = 0
    fixture: str | None = None
    expected_key: str | None = None
    # Env steps that ``steps_per_s`` counts; None counts every env.step call.
    rated_steps: int | None = None

    def setup(self, state: State) -> None:
        """Context generation and fixture verification (timed as set-up)."""
        from askgate import env

        context_set = env.generate_context_set(self.size, CONTEXT_COUNT, CONTEXT_SEED + state.seed)
        state.contexts = os.path.join(state.workdir, f"contexts_s{self.size}.txt")
        env.save_context_set(context_set, state.contexts)
        if self.fixture:
            state.weights = verify_fixture(self.fixture)
        if self.expected_key:
            state.expected = load_expected(self.expected_key, state.seed)

    def teardown(self, state: State) -> None:
        pass

    def argv(self, state: State) -> list[str]:
        raise NotImplementedError

    def check(self, state: State) -> dict:
        """Check the last command's outputs; returns reward and counts."""
        raise NotImplementedError

    def finish(self, state: State, outcomes: list[dict]) -> None:
        """Checks that need every command of the run."""


class TrainWorkload(Workload):
    name = "train-6x6"
    size = 6
    # PPO timesteps only: how many steps the evaluations take depends on the
    # context seed (up to 9,000 more on some), and they cost a fraction of one.
    rated_steps = TRAIN_TIMESTEPS

    def argv(self, state):
        return ["train", "--contexts", state.contexts, "--timesteps", str(TRAIN_TIMESTEPS),
                "--eval-interval", str(TRAIN_EVAL_INTERVAL), "--seed", str(TRAIN_SEED),
                "--name", "bench", "--out", state.out]

    def check(self, state):
        from askgate import policy

        trainlog = os.path.join(state.out, "weights", "bench_trainlog.csv")
        result = checks.check_trainlog(trainlog, min_evals=2, bar=REWARD_BAR)
        try:
            policy.load_weights(os.path.join(state.out, "weights", "bench.bin"))
        except (OSError, policy.WeightsError) as exc:
            raise checks.CheckFailed(f"trained weights do not load: {exc}")
        return {"reward": result["reward"], "consults": 0}


class GateWorkload(Workload):
    name = "gate-transfer-4x4"
    size = 4
    fixture = "w8_seed5"
    expected_key = "gate-4x4"
    client = ["--client", "rule"]

    def argv(self, state, client=None):
        return ["run", "--mode", "ask", *(client or self.client), "--tau", str(GATE_TAU),
                "--split", "test", "--contexts", state.contexts, "--weights", state.weights,
                "--episodes", str(GATE_EPISODES), "--seed", str(state.seed), "--out", state.out]

    def check(self, state):
        return checks.check_gate_run(
            _only(os.path.join(state.out, "episodes", "*.csv")),
            _only(os.path.join(state.out, "summaries", "*.csv")),
            state.expected,
        )


class EndpointWorkload(GateWorkload):
    """Not listed in BENCHMARK.json. On a 2-vCPU VM its median command time
    moved up to 2x between runs (IQR/median 0.25-0.32 over ten 20 s runs),
    wider than the largest bound the benchmark may set. Run it by name for a
    before/after of the HTTP transport."""

    name = "gate-endpoint-4x4"
    client = ["--client", "endpoint", "--model", "stub"]

    def setup(self, state):
        super().setup(state)
        try:
            state.stub = StubProcess(state.src_dir).start()
        except StubError as exc:
            raise SetupError(str(exc)) from exc
        os.environ["ASK_LM_URL"] = state.stub.url

    def teardown(self, state):
        if state.stub is not None:
            state.stub.stop()

    def finish(self, state, outcomes):
        from askgate import cli

        served = state.stub.request_count()
        consults = sum(o["consults"] for o in outcomes)
        if served != consults:
            raise checks.CheckFailed(f"stub served {served} requests but the episode CSVs "
                                     f"log {consults} consults")
        # The same run with the rule client must log the same named columns.
        rule_state = State(os.path.join(state.workdir, "rule"), state.seed, state.src_dir,
                           state.contexts, state.weights)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self.argv(rule_state, client=GateWorkload.client))
        if code != 0:
            raise checks.CheckFailed("the rule-client reference run failed")
        reference = GateWorkload.check(self, rule_state)["digest"]
        for outcome in outcomes:
            if outcome["digest"] != reference:
                raise checks.CheckFailed(f"endpoint digest {outcome['digest']} differs from "
                                         f"the rule-client digest {reference}")


class TuneWorkload(Workload):
    name = "tune-6x6"
    size = 6
    fixture = "w6_seed0"
    expected_key = "tune-6x6"

    def argv(self, state):
        return ["tune", "--client", "rule", "--contexts", state.contexts,
                "--weights", state.weights, "--trials", str(TUNE_TRIALS),
                "--episodes", str(TUNE_EPISODES), "--lo", str(TUNE_LO), "--hi", str(TUNE_HI),
                "--seed", str(state.seed), "--out", state.out]

    def check(self, state):
        return checks.check_study(_only(os.path.join(state.out, "summaries", "*.csv")),
                                  TUNE_LO, TUNE_HI, TUNE_TRIALS, state.expected)


WORKLOADS = {w.name: w for w in (TrainWorkload(), GateWorkload(), TuneWorkload(),
                                 EndpointWorkload())}


def clear_outputs(state: State) -> None:
    shutil.rmtree(state.out, ignore_errors=True)
