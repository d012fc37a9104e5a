"""A fixed reference kernel that measures how fast this machine runs right now.

On a small shared VM the vCPUs slow down and speed up, for tens of seconds at
a time, by up to 1.6x, because of load elsewhere on the host. CPU time moves
with wall time there, so it is not descheduling that a CPU-time clock could
remove. The same spells stretch this kernel too. The runner times the kernel
between commands and scales every timing to a machine on which one unit of
the kernel takes ``NOMINAL_UNIT_S``. The match is not exact: there, a spell
that made the kernel 1.3x faster made a training command about 1.1x faster.

The kernel is the benchmark's own code and never changes with askgate, so a
change to askgate moves the scaled times as much as the raw ones. Its mix
follows the command's, in about equal parts of time: Python-level string and
dict work (prompts, CSV rows), an integer loop (the interpreter itself, as in
the environment), one-sample passes through a 64-64 tanh MLP
(``policy.forward``), 64-row minibatch products (``ppo_grads``) and 100
masked passes of one observation (``dropout_passes``). On the 2-vCPU VM the
benchmark was defined on, a mix tracked the workloads better than any one
part did.
"""

from __future__ import annotations

import time

import numpy as np

# One unit's time on the machine that defined the benchmark (the median of
# its runs). Only a scale: the ratio of two runs does not depend on it.
NOMINAL_UNIT_S = 0.0015

_RNG = np.random.default_rng(12345)
_W1 = _RNG.standard_normal((36, 64)) * 0.2
_W2 = _RNG.standard_normal((64, 64)) * 0.2
_B = _RNG.standard_normal(64) * 0.1
_OBS = _RNG.standard_normal((64, 36))


def _strings() -> float:
    counts: dict[str, int] = {}
    for i in range(400):
        key = f"cell-{i % 37}-{i % 5}"
        counts[key] = counts.get(key, 0) + len(key)
    return float(sum(counts.values()))


def _loop() -> float:
    acc = 0
    for i in range(3000):
        acc += i * i
    return float(acc)


def _one_sample() -> float:
    total = 0.0
    for row in _OBS[:16]:
        h = np.tanh(row @ _W1 + _B)
        h = np.tanh(h @ _W2 + _B)
        e = np.exp(h - h.max())
        total += float((e / e.sum())[0])
    return total


def _minibatch() -> float:
    total = 0.0
    for _ in range(4):
        h = np.tanh(_OBS @ _W1 + _B)
        total += float((h.T @ (h @ _W2)).sum())
    return total


def _dropout_passes() -> float:
    rng = np.random.default_rng(7)
    h = np.tile(_OBS[0], (100, 1))
    for w in (_W1, _W2):
        h = np.tanh(h @ w + _B)
        h = np.where(rng.random(h.shape) >= 0.1, h / 0.9, 0.0)
    return float(h.sum())


PARTS = (_strings, _loop, _one_sample, _minibatch, _dropout_passes)


def unit() -> float:
    """One unit of fixed work; returns a checksum so that nothing is skipped."""
    return sum(part() for part in PARTS)


def measure(seconds: float) -> tuple[float, int]:
    """Run whole units for about ``seconds``; returns (mean unit time, units)."""
    units = 0
    start = time.perf_counter()
    while True:
        unit()
        units += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return elapsed / units, units
