"""askgate benchmark: drives the real ``askgate`` command in-process.

Usage, from the root of a checkout::

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/run.py --workload all              # every workload, both modes

Workloads are listed in ``BENCHMARK.json`` and defined in ``workloads.py``.
One run: import askgate from ``src/``; set up ``SETUP_REPEATS`` times (a
fresh interpreter's import of askgate, context generation, fixture
verification, stub start-up; the median counts as set-up time); run one
warm-up command under the tracer to count its env steps and LM consults;
then run the workload's command back to back for ``--seconds`` (a closed
loop with one caller: each command ends before the next starts). Every
command's outputs are checked.

The reference kernel of ``calibrate.py`` runs before the first set-up, after
each set-up and between commands, for ``REF_SHARE`` of the time just
measured. Each timing is scaled by ``NOMINAL_UNIT_S`` over the mean kernel
unit time measured just before and just after it, which takes out the
host's slow and fast spells. The raw times are printed too.

``--trace 0`` prints the end-to-end metrics, timed without wrappers.
``--trace 1`` spends half the time untraced and half with the per-module
wrappers of ``tracing.py`` installed, and prints the per-layer metrics with
the tracing overhead (traced minus untraced median command time).

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. Exit code 0 means every check passed; 1 means a
check or command failed; 2 means the benchmark could not be set up.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import calibrate
import workloads
from checks import CheckFailed
from tracing import LAYER_METRICS, SPANS, Tracer
from workloads import WORKLOADS, SetupError, State

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 9
REF_SHARE = 0.1         # reference-kernel time per gap, as a share of the timing before it
REF_MIN_S = 0.04

END_TO_END = {
    "setup_s": "s",
    "command_s": "s",
    "steps_per_s": "steps/s",
    "reward_mean": "reward",
    "peak_rss_mb": "MB",
}


def import_askgate() -> None:
    """Import askgate from this checkout's ``src``."""
    package = os.path.join(SRC, "askgate")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise SetupError(f"no askgate source tree at {package}")
    sys.path.insert(0, SRC)
    import askgate.cli

    if os.path.dirname(os.path.abspath(askgate.cli.__file__)) != package:
        raise SetupError(f"imported askgate from {askgate.cli.__file__}, not {package}")


_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "start = time.perf_counter(); import askgate.cli; "
                 "print(time.perf_counter() - start)")


def time_import() -> float:
    """Seconds a fresh interpreter takes to import askgate.cli from ``src``."""
    try:
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, SRC], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=60, check=True)
    except (subprocess.SubprocessError, OSError) as exc:
        raise SetupError(f"importing askgate in a fresh interpreter failed: {exc}") from exc
    return float(proc.stdout)


def _blas_threads() -> int | None:
    """OpenBLAS thread count, read from the library numpy loaded."""
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    names = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
             "openblas_get_num_threads")
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in names:
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine() -> dict:
    import numpy

    cpu = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), "")
    blas = "unknown"
    with contextlib.suppress(Exception):
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info['version']}"
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "blas": blas, "blas_threads": _blas_threads(),
    }


class Runner:
    """One run of one workload: set-up, warm-up, timed loop, checks."""

    def __init__(self, workload, seed: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.outcomes: list[dict] = []
        self.states: list[State] = []
        self._devnull = open(os.devnull, "w")

    def close(self) -> None:
        for state in self.states:
            self.workload.teardown(state)
        self._devnull.close()

    def setup(self, workdir: str) -> tuple[list[float], list[float], Tracer]:
        """Set up SETUP_REPEATS times and keep the last.

        Each set-up is timed with a fresh interpreter's import of askgate.
        Returns the raw set-up times, the scaled ones, and the tracer of
        ``generate_context_set``.
        """
        times = []
        refs = [reference(REF_MIN_S)]
        tracer = Tracer({"env.generate_context_set": SPANS["env.generate_context_set"]})
        for i in range(SETUP_REPEATS):
            if self.states:
                self.workload.teardown(self.states[-1])
            state = State(os.path.join(workdir, f"setup{i}"), self.seed, SRC)
            os.makedirs(state.workdir)
            self.states.append(state)
            imported = time_import()
            with tracer if self.trace else contextlib.nullcontext():
                start = time.perf_counter()
                self.workload.setup(state)
                times.append(imported + time.perf_counter() - start)
            refs.append(reference(times[-1]))
        return times, scale(times, refs), tracer

    def command(self, state: State, tracer: Tracer | None = None) -> float:
        """Run the workload's command once and check it; returns its wall time."""
        from askgate import cli

        workloads.clear_outputs(state)
        argv = self.workload.argv(state)
        self.attempted += 1
        with contextlib.redirect_stdout(self._devnull), tracer or contextlib.nullcontext():
            if tracer is not None:
                tracer.begin_command()
            start = time.perf_counter()
            code = cli.main(argv)
            elapsed = time.perf_counter() - start
        if code != 0:
            self.failed += 1
            raise CheckFailed(f"askgate {argv[0]} exited with code {code}")
        try:
            outcome = self.workload.check(state)
        except CheckFailed:
            self.failed += 1
            raise
        self.attempted += outcome.get("consults", 0)
        self.outcomes.append(outcome)
        return elapsed

    def loop(self, state: State, seconds: float,
             tracer: Tracer | None = None) -> tuple[list[float], list[float], list[float]]:
        """Commands back to back, each followed by the reference kernel, while
        the next command is expected to fit in ``seconds``.

        Returns the scaled command times, the raw ones and the reference
        unit times (one more than commands: the first precedes them all).
        """
        times: list[float] = []
        rounds: list[float] = []
        start = time.perf_counter()
        deadline = start + seconds
        refs = [reference(REF_MIN_S)]
        while True:
            times.append(self.command(state, tracer))
            refs.append(reference(times[-1]))
            now = time.perf_counter()
            rounds.append(now - start)
            start = now
            if now + statistics.median(rounds) > deadline:
                return scale(times, refs), times, refs


def reference(measured_s: float) -> float:
    """Mean unit time of the reference kernel, run for a share of ``measured_s``."""
    return calibrate.measure(max(REF_MIN_S, REF_SHARE * measured_s))[0]


def scale(times: list[float], refs: list[float]) -> list[float]:
    """Each time at reference speed, from the kernel runs just before and after it."""
    return [t * calibrate.NOMINAL_UNIT_S / ((a + b) / 2)
            for t, a, b in zip(times, refs, refs[1:])]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _quartiles(values) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    runner = Runner(workload, args.seed, bool(args.trace))
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT)
    error = None
    times: list[float] = []
    try:
        import_askgate()
        raw_setup, setup_times, setup_tracer = runner.setup(workdir)
        state = runner.states[-1]

        warm = Tracer()
        runner.command(state, warm)
        steps = warm.stats["env.step"].calls
        consults = warm.stats["lm.query"].calls
        if "consults" not in runner.outcomes[-1]:
            # A study CSV does not log consults: count the warm-up's from the tracer.
            runner.attempted += consults
            runner.failed += consults - warm.statuses["ok"]
        if runner.outcomes[-1].get("steps", steps) != steps:
            raise CheckFailed(f"episode CSV logs {runner.outcomes[-1]['steps']} steps, "
                              f"the command made {steps}")
        rated = steps if workload.rated_steps is None else workload.rated_steps
        if steps < rated:
            raise CheckFailed(f"the command made {steps} env steps, fewer than its "
                              f"budget of {rated}")

        if args.trace:
            base, raw_times, refs = runner.loop(state, args.seconds / 2)
            tracer = Tracer()
            times = runner.loop(state, args.seconds / 2, tracer)[0]
        else:
            times, raw_times, refs = runner.loop(state, args.seconds)
        workload.finish(state, runner.outcomes)
        if runner.failed:
            raise CheckFailed(f"{runner.failed} of {runner.attempted} operations failed")
    except SetupError as exc:
        print(f"setup failed: {exc}", file=sys.stderr)
        return 2
    except CheckFailed as exc:
        error = str(exc)
        print(f"check failed: {exc}", file=sys.stderr)
    finally:
        runner.close()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)
    if not times:
        return 1

    command_s = statistics.median(times)
    if args.trace:
        values, absent = tracer.layer_metrics()
        generate = setup_tracer.layer_metrics()[0]["env.generate_context_set.s"]
        values["env.generate_context_set.s"] = generate
        absent.pop("env.generate_context_set.s", None)
        base_s = statistics.median(base)
        values["trace.overhead_s"] = command_s - base_s
        values["trace.overhead_pct"] = 100.0 * (command_s - base_s) / base_s
        values["ops_failed_pct"] = 100.0 * runner.failed / runner.attempted
        values["raw.command_s"] = statistics.median(raw_times)
        values["raw.setup_s"] = statistics.median(raw_setup)
        values["ref.unit_us"] = 1e6 * statistics.median(refs)
        metrics = {name: _metric(values[name], unit) for name, unit in LAYER_METRICS.items()}
        counts = {name: len(times) for name in metrics}
    else:
        rewards = [o["reward"] for o in runner.outcomes]
        values = {
            "setup_s": statistics.median(setup_times),
            "command_s": command_s,
            "steps_per_s": rated / command_s,
            "reward_mean": statistics.median(rewards),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}
        counts = {"setup_s": len(setup_times), "command_s": len(times),
                  "steps_per_s": len(times), "reward_mean": len(rewards), "peak_rss_mb": 1}
        absent = {}

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"commands {len(times)} timed + {len(runner.outcomes) - len(times)} other  "
          f"steps/command {steps} ({rated} rated)  consults/command {consults}")
    for key in ("digest", "ir_pct", "or_pct"):
        if key in runner.outcomes[-1]:
            print(f"  output {key}: {runner.outcomes[-1][key]}")
    for label, series in (("command_s", times), ("raw command_s", raw_times),
                          ("reference unit_us", [1e6 * r for r in refs])):
        print("  {} over {}: {}".format(label, len(series), "  ".join(
            f"{name} {value:.4g}" for name, value in zip(
                ("min", "p25", "p50", "p75", "max"),
                (min(series), *_quartiles(series), max(series))))))
    print(f"  raw setup_s: median {statistics.median(raw_setup):.4g} of {len(raw_setup)}")
    print(f"  {'metric':36s} {'value':>14s}  {'unit':8s} {'n':>4s}")
    for name, entry in metrics.items():
        note = f"  absent: {absent[name]}" if name in absent else ""
        print(f"  {name:36s} {entry['value']:14.6g}  {entry['unit']:8s} {counts[name]:4d}{note}")
    print("# machine " + json.dumps(machine(), sort_keys=True))
    print(json.dumps({"correct": error is None, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if error is None else 1


def run_all(args) -> int:
    """Every workload untraced then traced, each in its own process."""
    status = 0
    rows = []
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, check=False,
            )
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            ok = proc.returncode == 0 and result is not None and result["correct"]
            rows.append((name, trace, ok, result))
            status = status or (0 if ok else 1)
    print("\nend-to-end:")
    for name, trace, ok, result in rows:
        if trace == 0 and result is not None:
            cells = "  ".join(f"{m} {e['value']:.6g} {e['unit']}"
                              for m, e in result["metrics"].items())
            print(f"  {name:20s} {'ok ' if ok else 'FAIL'} {cells}")
        elif not ok:
            print(f"  {name:20s} FAIL (trace {trace})")
    return status


def _terminate(signum, frame):
    # Ignore a repeated signal so that it cannot interrupt the clean-up it started.
    signal.signal(signum, signal.SIG_IGN)
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    for key in ("NO_PROXY", "no_proxy"):
        os.environ[key] = ",".join(filter(None, [os.environ.get(key), "127.0.0.1", "localhost"]))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
