"""Shared fixtures: context sets and the two trained policies.

The expensive fixtures are session-scoped so the acceptance tests and the
module tests share one training run each. Elapsed wall-clock time is kept
on the training results because the acceptance suite asserts runtime
budgets alongside reward thresholds. The 8x8 policy trains in a spawned
child process, started once collection finds a test that needs it, so it
trains while the session runs other tests; a seed fixes its bytes either way.
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


@pytest.fixture(scope="session")
def trained6(contexts6):
    """Full desk-scale run: 6x6, 100 train contexts, 1e6 timesteps, seed 0."""
    config = PpoConfig(total_timesteps=1_000_000, eval_interval=50_000, seed=0)
    start = time.monotonic()
    policy, log = train(contexts6.split(Split.TRAIN), contexts6.split(Split.EVAL), config)
    return TrainResult(policy, log, time.monotonic() - start, config)


TRAIN8_CONFIG = PpoConfig(total_timesteps=400_000, eval_interval=50_000, seed=5)
_TRAIN8_CHILD = pytest.StashKey[tuple]()


def _train8(conn):
    """The child's work: train the 8x8 policy and send back its vector, its
    log and the train's own wall time (a view into ``flat`` would not pickle
    as one)."""
    contexts = generate_context_set(8, CONTEXT_COUNT, CONTEXT_SEED)
    start = time.monotonic()
    policy, log = train(contexts.split(Split.TRAIN), contexts.split(Split.EVAL), TRAIN8_CONFIG)
    conn.send((policy.widths, policy.flat, log, time.monotonic() - start))
    conn.close()


def _start_train8():
    spawn = multiprocessing.get_context("spawn")
    receiver, sender = spawn.Pipe(duplex=False)
    child = spawn.Process(target=_train8, args=(sender,), daemon=True)
    child.start()
    sender.close()
    return child, receiver


def pytest_collection_finish(session):
    if any("trained8" in getattr(item, "fixturenames", ()) for item in session.items):
        session.config.stash[_TRAIN8_CHILD] = _start_train8()


@pytest.fixture(scope="session")
def trained8(request):
    """8x8 policy for the downward-transfer checks (400k steps, seed 5)."""
    child, receiver = request.config.stash.get(_TRAIN8_CHILD, None) or _start_train8()
    # Twice criterion 4's whole budget: a child that sends nothing by then is hung.
    if not receiver.poll(600.0):
        child.kill()
        raise RuntimeError("the 8x8 training child sent nothing in 600 s")
    try:
        widths, flat, log, elapsed = receiver.recv()
    except EOFError:
        child.join(10.0)
        raise RuntimeError(f"the 8x8 training child exited with code {child.exitcode}") from None
    child.join(60.0)
    assert child.exitcode == 0, f"the 8x8 training child exited with {child.exitcode}"
    return TrainResult(build_policy(widths, flat), log, elapsed, TRAIN8_CONFIG)


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
