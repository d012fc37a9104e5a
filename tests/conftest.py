"""Shared fixtures: context sets and the two trained policies.

The expensive fixtures are session-scoped so the acceptance tests and the
module tests share one training run each. Elapsed wall-clock time is kept
on the training results because the acceptance suite asserts runtime
budgets alongside reward thresholds. Each trained policy trains in a
spawned child process, started once collection finds a test that needs it,
and the tests that need one run last, so both train while the session runs
the other tests; a seed fixes their bytes either way.
"""

import multiprocessing
import time
from collections import namedtuple

import pytest

from askgate.env import Split, generate_context_set
from askgate.gate import GateConfig, RunMode, run_batch, write_episode_csv
from askgate.lm import RuleClient
from askgate.policy import build_policy
from askgate.trainer import PpoConfig, train

CONTEXT_COUNT = 300
CONTEXT_SEED = 7

TrainResult = namedtuple("TrainResult", "policy log elapsed config")
TransferRuns = namedtuple("TransferRuns", "ask ppo csv_path gate_seconds")


@pytest.fixture(scope="session")
def contexts4():
    return generate_context_set(4, CONTEXT_COUNT, CONTEXT_SEED)


@pytest.fixture(scope="session")
def contexts6():
    return generate_context_set(6, CONTEXT_COUNT, CONTEXT_SEED)


TRAIN6_CONFIG = PpoConfig(total_timesteps=1_000_000, eval_interval=50_000, seed=0)
TRAIN8_CONFIG = PpoConfig(total_timesteps=400_000, eval_interval=50_000, seed=5)
# Each trained fixture: its grid size, its config, and how long to wait for
# its child before calling it hung (criterion 3's budget, twice criterion 4's).
_TRAINED = {
    "trained6": (6, TRAIN6_CONFIG, 1800.0),
    "trained8": (8, TRAIN8_CONFIG, 600.0),
}
_CHILDREN = pytest.StashKey[dict]()


def _train_child(size, config, conn):
    """The child's work: train on the size's context set and send back the
    vector, the log and the train's own wall time (a view into ``flat``
    would not pickle as one)."""
    contexts = generate_context_set(size, CONTEXT_COUNT, CONTEXT_SEED)
    start = time.monotonic()
    policy, log = train(contexts.split(Split.TRAIN), contexts.split(Split.EVAL), config)
    conn.send((policy.widths, policy.flat, log, time.monotonic() - start))
    conn.close()


def _start_child(name):
    size, config, _ = _TRAINED[name]
    spawn = multiprocessing.get_context("spawn")
    receiver, sender = spawn.Pipe(duplex=False)
    child = spawn.Process(target=_train_child, args=(size, config, sender), daemon=True)
    child.start()
    sender.close()
    return child, receiver


def _needs(item, name):
    return name in getattr(item, "fixturenames", ())


def pytest_collection_modifyitems(items):
    # The tests that wait for a trained policy go last, so the session runs
    # every other test while the children train.
    items.sort(key=lambda item: any(_needs(item, name) for name in _TRAINED))


def pytest_collection_finish(session):
    session.config.stash[_CHILDREN] = {
        name: _start_child(name) for name in _TRAINED
        if any(_needs(item, name) for item in session.items)}


def _trained(request, name):
    """Join the named fixture's child, started at collection or now."""
    _, config, bound = _TRAINED[name]
    child, receiver = request.config.stash.get(_CHILDREN, {}).get(name) or _start_child(name)
    if not receiver.poll(bound):
        child.kill()
        raise RuntimeError(f"the {name} training child sent nothing in {bound:.0f} s")
    try:
        widths, flat, log, elapsed = receiver.recv()
    except EOFError:
        child.join(10.0)
        raise RuntimeError(f"the {name} training child exited with code {child.exitcode}") from None
    child.join(60.0)
    assert child.exitcode == 0, f"the {name} training child exited with {child.exitcode}"
    return TrainResult(build_policy(widths, flat), log, elapsed, config)


@pytest.fixture(scope="session")
def trained6(request):
    """Full desk-scale run: 6x6, 100 train contexts, 1e6 timesteps, seed 0."""
    return _trained(request, "trained6")


@pytest.fixture(scope="session")
def trained8(request):
    """8x8 policy for the downward-transfer checks (400k steps, seed 5)."""
    return _trained(request, "trained8")


@pytest.fixture(scope="session")
def transfer_runs(trained8, contexts4, tmp_path_factory):
    """The 8x8 policy on 4x4 test contexts: gated vs. policy-only, 100 episodes.

    The gated episode log is also written to CSV so the metric-recount test
    can audit it from the raw artifact.
    """
    test4 = contexts4.split(Split.TEST)
    ask_cfg = GateConfig(tau=0.12, mode=RunMode.ASK, seed=11)
    ppo_cfg = GateConfig(tau=0.12, mode=RunMode.PPO_ONLY, seed=11)
    start = time.monotonic()
    ask = run_batch(trained8.policy, RuleClient(), test4, ask_cfg, total_episodes=100)
    ppo = run_batch(trained8.policy, None, test4, ppo_cfg, total_episodes=100)
    gate_seconds = time.monotonic() - start
    path = tmp_path_factory.mktemp("episodes") / "ask_transfer_s4.csv"
    write_episode_csv(ask, str(path), {
        "mode": "ask", "client": "rule", "tau": 0.12, "passes": 100,
        "dropout_rate": 0.2, "seed": 11, "episodes": 100, "split": "test", "size": 4,
    })
    return TransferRuns(ask, ppo, str(path), gate_seconds)
