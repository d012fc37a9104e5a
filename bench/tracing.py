"""Timing wrappers around the public functions of each askgate module.

A :class:`Tracer` replaces module attributes such as ``askgate.env.step``
or ``askgate.trainer._Adam.step`` with wrappers for the duration of a
``with`` block and restores the originals on exit. Every function in
:data:`SPANS` is looked up through its module (or class) attribute at call
time, so the wrappers see every call the program makes. The one exception
is the tuner, which holds its own ``run_batch`` binding; that binding is
wrapped separately as ``tuner.run_batch``.

Per span the tracer records calls, total time and self time (its time
minus the time of traced spans it called), plus a few counters taken at
the same boundaries: LM decision statuses, gated steps, bytes of episode
CSV written, and how many MC-Dropout estimates of later tuning trials
repeat one from an earlier trial. :meth:`Tracer.layer_metrics` turns that
into the per-layer table; counts are per traced command.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import Counter, defaultdict

# span name -> (module, attribute path inside the module)
SPANS = {
    "cli.main": ("askgate.cli", "main"),
    "env.step": ("askgate.env", "step"),
    "env.encode_observation": ("askgate.env", "encode_observation"),
    "env.local_view": ("askgate.env", "local_view"),
    "env.generate_context_set": ("askgate.env", "generate_context_set"),
    "policy.forward": ("askgate.policy", "forward"),
    "policy.select_action": ("askgate.policy", "select_action"),
    "policy.dropout_passes": ("askgate.policy", "dropout_passes"),
    "policy.load_weights": ("askgate.policy", "load_weights"),
    "uncertainty.mc_estimate": ("askgate.uncertainty", "mc_estimate"),
    "uncertainty.estimate_from_passes": ("askgate.uncertainty", "estimate_from_passes"),
    "trainer.train": ("askgate.trainer", "train"),
    "trainer.ppo_grads": ("askgate.trainer", "ppo_grads"),
    "trainer.adam_step": ("askgate.trainer", "_Adam.step"),
    "trainer.gae": ("askgate.trainer", "_gae"),
    "trainer.evaluate_policy": ("askgate.trainer", "evaluate_policy"),
    "lm.build_prompt": ("askgate.lm", "build_prompt"),
    "lm.parse_decision": ("askgate.lm", "parse_decision"),
    "lm.query": ("askgate.lm", "query"),
    "gate.run_batch": ("askgate.gate", "run_batch"),
    "gate.run_episode": ("askgate.gate", "run_episode"),
    "gate.write_episode_csv": ("askgate.gate", "write_episode_csv"),
    "metrics.aggregate": ("askgate.metrics", "aggregate"),
    "metrics.write_summary_csv": ("askgate.metrics", "write_summary_csv"),
    "tuner.tune_threshold": ("askgate.tuner", "tune_threshold"),
    "tuner.run_batch": ("askgate.tuner", "run_batch"),
}

LM_STATUSES = ("ok", "parse_failure", "invalid_action", "transport_error")

# Per-layer metrics, in report order, with their units. ``trace.*``,
# ``ops_failed_pct``, ``raw.*`` (unscaled times of the untraced half) and
# ``ref.unit_us`` (the reference kernel's median unit time) are filled in by
# the runner, not by the tracer.
LAYER_METRICS = {
    "env.step.calls": "count",
    "env.step.us": "us",
    "env.encode_observation.us": "us",
    "env.local_view.us": "us",
    "env.generate_context_set.s": "s",
    "policy.forward.calls": "count",
    "policy.forward.us": "us",
    "policy.select_action.us": "us",
    "policy.dropout_passes.calls": "count",
    "policy.dropout_passes.us": "us",
    "policy.load_weights.s": "s",
    "uncertainty.mc_estimate.calls": "count",
    "uncertainty.estimate_from_passes.us": "us",
    "trainer.ppo_grads.calls": "count",
    "trainer.ppo_grads.us": "us",
    "trainer.adam_step.calls": "count",
    "trainer.adam_step.us": "us",
    "trainer.gae.us": "us",
    "trainer.evaluate_policy.s": "s",
    "trainer.train.self_s": "s",
    "lm.consults": "count",
    "lm.status.ok": "count",
    "lm.status.parse_failure": "count",
    "lm.status.invalid_action": "count",
    "lm.status.transport_error": "count",
    "lm.fail_ratio": "ratio",
    "lm.build_prompt.us": "us",
    "lm.parse_decision.us": "us",
    "lm.query.us": "us",
    "lm.query.p50_ms": "ms",
    "lm.query.p99_ms": "ms",
    "lm.query.samples": "count",
    "gate.run_episode.calls": "count",
    "gate.run_episode.self_us": "us",
    "gate.steps": "count",
    "gate.consult_ratio": "ratio",
    "gate.write_episode_csv.s": "s",
    "gate.write_episode_csv.bytes": "bytes",
    "metrics.aggregate.s": "s",
    "metrics.write_summary_csv.s": "s",
    "tuner.run_batch.calls": "count",
    "tuner.trial_s": "s",
    "tuner.mc_repeat_share": "ratio",
    "cli.main.self_s": "s",
    "ops_failed_pct": "%",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
    "raw.command_s": "s",
    "raw.setup_s": "s",
    "ref.unit_us": "us",
}


def _resolve(module_name: str, attr_path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = attr_path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class _Stat:
    __slots__ = ("calls", "total", "self_total")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_total = 0.0


class Tracer:
    """Installs the wrappers while active; accumulates across ``with`` blocks."""

    def __init__(self, spans=None):
        self.spans = dict(SPANS if spans is None else spans)
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self.edges: Counter = Counter()          # (parent span, child span) -> calls
        self.statuses: Counter = Counter()
        self.query_samples: list[float] = []
        self.csv_bytes = 0
        self.commands = 0
        self.mc_calls_later_trials = 0
        self.mc_repeats = 0
        self._stack: list[list] = []             # [span name, traced child time]
        self._saved: list[tuple] = []
        self._trial = 0
        self._episode = None
        self._mc_step = 0
        self._mc_seen: dict = {}

    # -- installation ------------------------------------------------------
    def __enter__(self) -> "Tracer":
        self._transport_error = importlib.import_module("askgate.lm").LmTransportError
        for name, (module_name, attr_path) in self.spans.items():
            owner, attr = _resolve(module_name, attr_path)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self._stack.clear()

    def begin_command(self) -> None:
        """Mark the start of one askgate command; resets per-command state."""
        self.commands += 1
        self._trial = 0
        self._mc_seen = {}

    # -- wrappers ----------------------------------------------------------
    def _wrap(self, name: str, fn):
        tracer = self
        before = getattr(self, f"_before_{name.replace('.', '_')}", None)
        after = getattr(self, f"_after_{name.replace('.', '_')}", None)

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            stack = tracer._stack
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if name == "lm.query" and isinstance(exc, tracer._transport_error):
                    tracer.statuses["transport_error"] += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                stat = tracer.stats[name]
                stat.calls += 1
                stat.total += elapsed
                stat.self_total += elapsed - frame[1]
                tracer.edges[(parent, name)] += 1
                if stack:
                    stack[-1][1] += elapsed
                if name == "lm.query":
                    tracer.query_samples.append(elapsed)
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _before_tuner_run_batch(self, args, kwargs) -> None:
        self._trial += 1

    def _before_gate_run_episode(self, args, kwargs) -> None:
        self._episode = kwargs.get("episode_index", args[4] if len(args) > 4 else 0)
        self._mc_step = 0

    def _after_uncertainty_mc_estimate(self, args, kwargs, result) -> None:
        if self._trial == 0:
            return
        obs = args[1] if len(args) > 1 else kwargs["obs"]
        key = (self._episode, self._mc_step, obs.tobytes())
        value = (result.epistemic, result.aleatoric, result.total)
        self._mc_step += 1
        if self._trial > 1:
            self.mc_calls_later_trials += 1
            if self._mc_seen.get(key) == value:
                self.mc_repeats += 1
        self._mc_seen.setdefault(key, value)

    def _after_lm_parse_decision(self, args, kwargs, result) -> None:
        self.statuses[result.status] += 1

    def _after_gate_write_episode_csv(self, args, kwargs, result) -> None:
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.csv_bytes += os.path.getsize(path)

    # -- report ------------------------------------------------------------
    def layer_metrics(self) -> tuple[dict[str, float], dict[str, str]]:
        """(values, absent) for every tracer-made entry of LAYER_METRICS.

        ``absent`` maps a metric to the reason it reads 0: its function was
        never called on this workload.
        """
        per_cmd = max(self.commands, 1)
        values: dict[str, float] = {}
        absent: dict[str, str] = {}

        def calls(span):
            return self.stats[span].calls if span in self.stats else 0

        def mean(span, field="total", scale=1.0):
            n = calls(span)
            return getattr(self.stats[span], field) / n * scale if n else 0.0

        for metric in LAYER_METRICS:
            if metric.startswith(("trace.", "ops_", "raw.", "ref.")):
                continue
            base, _, kind = metric.rpartition(".")
            if kind == "calls":
                values[metric] = calls(base) / per_cmd
            elif kind in ("us", "s"):
                values[metric] = mean(base, scale=1e6 if kind == "us" else 1.0)
            elif kind in ("self_us", "self_s"):
                values[metric] = mean(base, "self_total", 1e6 if kind == "self_us" else 1.0)
            else:
                continue
            if not calls(base):
                absent[metric] = f"{base} was not called on this workload"

        consults = calls("lm.query")
        steps = self.edges[("gate.run_episode", "env.step")]
        values["lm.consults"] = consults / per_cmd
        for status in LM_STATUSES:
            values[f"lm.status.{status}"] = self.statuses[status] / per_cmd
        values["lm.fail_ratio"] = (consults - self.statuses["ok"]) / consults if consults else 0.0
        samples = self.query_samples
        values["lm.query.p50_ms"] = percentile(samples, 50) * 1e3 if samples else 0.0
        values["lm.query.p99_ms"] = percentile(samples, 99) * 1e3 if samples else 0.0
        values["lm.query.samples"] = float(len(samples))
        values["gate.steps"] = steps / per_cmd
        values["gate.consult_ratio"] = consults / steps if steps else 0.0
        writes = calls("gate.write_episode_csv")
        values["gate.write_episode_csv.bytes"] = self.csv_bytes / writes if writes else 0.0
        values["tuner.trial_s"] = mean("tuner.run_batch")
        later = self.mc_calls_later_trials
        values["tuner.mc_repeat_share"] = self.mc_repeats / later if later else 0.0
        if not consults:
            for metric in ("lm.consults", "lm.fail_ratio", "lm.query.p50_ms",
                           "lm.query.p99_ms", "lm.query.samples", "gate.consult_ratio"):
                absent[metric] = "no LM consult on this workload"
        if not steps:
            absent["gate.steps"] = "no gated step on this workload"
        if not writes:
            absent["gate.write_episode_csv.bytes"] = "no episode CSV written on this workload"
        if not calls("tuner.run_batch"):
            absent["tuner.trial_s"] = "tuner.run_batch was not called on this workload"
            absent["tuner.mc_repeat_share"] = "no tuning trials on this workload"
        return values, absent
