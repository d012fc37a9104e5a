"""The benchmark's tracer wraps askgate functions by name; they must all exist.

``bench/tracing.py`` looks up every entry of its ``SPANS`` table with
``getattr`` when a traced run starts, so a renamed or deleted function would
fail every benchmark workload. These tests load the tracer from its file
(``bench/`` is not a package) and check each target against this checkout,
and check every other name the benchmark's files read from askgate modules.
"""

import ast
import dataclasses
import glob
import importlib
import importlib.util
import inspect
import os

import askgate
from askgate.env import Split, generate_context_set
from askgate.gate import GateConfig, RunMode, run_batch
from askgate.lm import RuleClient, ScriptedClient
from askgate.policy import init_policy
from askgate.trainer import EPOCHS, MINIBATCH_SIZE, ROLLOUT_STEPS, PpoConfig, train
from askgate.tuner import tune_threshold

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE_DIR = os.path.dirname(os.path.abspath(askgate.__file__))


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", os.path.join(REPO, "bench", "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_span_resolves_to_a_function_of_the_package():
    tracing = load_tracing()
    assert tracing.SPANS
    for span, (module_name, attr_path) in tracing.SPANS.items():
        owner, attr = tracing._resolve(module_name, attr_path)
        target = getattr(owner, attr, None)
        assert callable(target), f"{span}: {module_name}.{attr_path} does not exist"
        source = os.path.abspath(inspect.getsourcefile(target))
        assert os.path.dirname(source) == PACKAGE_DIR, f"{span} resolves to {source}"


def askgate_reads(path):
    """``(module, attr, line)`` for each ``<module>.<attr>`` read in the file at
    ``path``, where ``<module>`` is a name bound by ``from askgate import``."""
    with open(path, "r", encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    modules = {alias.asname or alias.name: alias.name
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "askgate"
               for alias in node.names}
    return [(modules[node.value.id], node.attr, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules]


def test_every_name_the_benchmark_reads_from_the_package_exists():
    # The benchmark's files also call askgate functions and classes directly
    # (``lm.rule_decide`` in the stub server, ``policy.WeightsError`` in the
    # workloads); a deletion in src/ would break them while every other
    # tier-1 test passes.
    paths = sorted(glob.glob(os.path.join(REPO, "bench", "*.py")))
    reads = [(os.path.basename(path), *read) for path in paths for read in askgate_reads(path)]
    assert reads
    for name, module, attr, line in reads:
        assert hasattr(importlib.import_module(f"askgate.{module}"), attr), (
            f"bench/{name}:{line} reads askgate.{module}.{attr}, which does not exist")


def test_a_traced_tuning_run_calls_the_hooks_and_restores_the_originals():
    tracing = load_tracing()
    originals = {span: getattr(*tracing._resolve(*target))
                 for span, target in tracing.SPANS.items()}
    contexts = generate_context_set(4, 6, 7).split(Split.EVAL)
    policy = init_policy(seed=0)
    tracer = tracing.Tracer()
    with tracer:
        tracer.begin_command()
        tune_threshold(policy, RuleClient(), contexts, trials=2, episodes_per_trial=2,
                       gate=GateConfig(passes=5, max_steps=8))
        run_batch(policy, RuleClient(), contexts, GateConfig(mode=RunMode.ASK, tau=0.0,
                                                             passes=5, max_steps=8), 2)
    for span in ("gate.run_episode", "policy.select_action", "uncertainty.mc_estimate",
                 "uncertainty.estimate_from_passes", "lm.query", "lm.parse_decision",
                 "env.encode_observation", "tuner.run_batch"):
        assert tracer.stats[span].calls > 0, span
    assert tracer.statuses["ok"] > 0
    for span, target in tracing.SPANS.items():
        assert getattr(*tracing._resolve(*target)) is originals[span], span


def test_the_step_counter_sees_every_gated_step():
    # bench/run.py takes steps_per_s from the env.step calls under
    # gate.run_episode, and every ask-mode step draws one MC estimate. A loop
    # that bound either function where the tracer cannot replace it would
    # read zero here instead of quietly zeroing the benchmark's numerator.
    tracing = load_tracing()
    contexts = generate_context_set(4, 6, 7).split(Split.EVAL)
    tracer = tracing.Tracer()
    with tracer:
        tracer.begin_command()
        records = run_batch(init_policy(seed=0), RuleClient(), contexts,
                            GateConfig(mode=RunMode.ASK, tau=0.0, passes=5, max_steps=8), 3)
    steps = sum(record.length for record in records)
    assert steps > 0
    assert tracer.edges[("gate.run_episode", "env.step")] == steps
    assert tracer.stats["env.step"].calls == steps
    assert tracer.edges[("gate.run_episode", "uncertainty.mc_estimate")] == steps
    assert tracer.stats["uncertainty.mc_estimate"].calls == steps


def test_a_traced_study_steps_every_trial_and_estimates_each_key_once():
    # bench/run.py rates tune-6x6 by the env.step calls under gate.run_episode,
    # so every trial must still step in full: a study shares only its
    # estimates, one mc_estimate per (episode, step, cell) it meets. A
    # sharpened untrained head makes the trials consult at different steps,
    # so their paths part and later trials miss too.
    tracing = load_tracing()
    contexts = generate_context_set(4, 30, 7).split(Split.EVAL)[:3]
    policy = init_policy(seed=0)
    policy.action_head[0][...] *= 300
    gate = GateConfig(passes=10, seed=1, max_steps=30)
    tracer = tracing.Tracer()
    with tracer:
        tracer.begin_command()
        study = tune_threshold(policy, RuleClient(), contexts, lo=0.0, hi=1.4, trials=6,
                               episodes_per_trial=6, gate=gate)
    trials = [run_batch(policy, RuleClient(), contexts,
                        dataclasses.replace(gate, tau=rec.tau, mode=RunMode.ASK), 6)
              for rec in study.records]
    steps = sum(ep.length for eps in trials for ep in eps)
    keys = {(i, t, s.obs_index) for eps in trials for i, ep in enumerate(eps)
            for t, s in enumerate(ep.steps)}
    assert tracer.stats["tuner.run_batch"].calls == len(trials)
    assert tracer.edges[("gate.run_episode", "env.step")] == steps
    assert tracer.edges[("gate.run_episode", "uncertainty.mc_estimate")] == len(keys)
    assert tracer.stats["uncertainty.mc_estimate"].calls == len(keys)
    assert sum(ep.length for ep in trials[0]) < len(keys) < steps


def test_the_consult_count_sees_every_consult_and_every_status():
    # bench/run.py counts consults as lm.query calls and failed operations as
    # consults minus tracer.statuses["ok"]. A consult that bypassed lm.query,
    # or a transport error the tracer did not see, would skew both.
    tracing = load_tracing()
    contexts = generate_context_set(4, 6, 7).split(Split.EVAL)
    answers = ['{"action":"RIGHT"}', "no object here", '{"action":"FLY"}', '{"action":"DOWN"}']
    tracer = tracing.Tracer()
    with tracer:
        tracer.begin_command()
        records = run_batch(init_policy(seed=0), ScriptedClient(answers), contexts,
                            GateConfig(mode=RunMode.ASK, tau=0.0, passes=5, max_steps=8), 3)
    statuses = [s.lm_status for record in records for s in record.steps if s.consulted]
    assert len(statuses) > len(answers)  # the client ran dry partway
    assert tracer.stats["lm.query"].calls == len(statuses)
    assert sum(tracer.statuses.values()) == len(statuses)
    assert tracer.statuses["transport_error"] == len(statuses) - len(answers)
    assert tracer.statuses == {status: statuses.count(status) for status in set(statuses)}


def test_a_traced_training_run_calls_the_training_hooks():
    # The train-6x6 workload's per-layer numbers come from these spans; a
    # training loop that bound them where the tracer cannot replace them
    # would report no gradient or optimizer time at all.
    tracing = load_tracing()
    contexts = generate_context_set(4, 30, 2)
    config = PpoConfig(total_timesteps=4096, eval_interval=4096, eval_episodes=2, seed=3)
    tracer = tracing.Tracer()
    with tracer:
        tracer.begin_command()
        train(contexts.split(Split.TRAIN), contexts.split(Split.EVAL), config)
    updates = 2 * EPOCHS * ROLLOUT_STEPS // MINIBATCH_SIZE
    assert tracer.stats["trainer.ppo_grads"].calls == updates
    assert tracer.stats["trainer.adam_step"].calls == updates
    assert tracer.stats["trainer.gae"].calls == 2  # one per rollout
    assert tracer.stats["trainer.evaluate_policy"].calls == 1
    # Every 100 steps with rollouts of 2048: one evaluation per rollout, not
    # one per boundary crossed plus a repeat of the last.
    tracer = tracing.Tracer()
    with tracer:
        tracer.begin_command()
        train(contexts.split(Split.TRAIN), contexts.split(Split.EVAL),
              dataclasses.replace(config, eval_interval=100))
    assert tracer.stats["trainer.evaluate_policy"].calls == 2
