"""MC-Dropout uncertainty decomposition over action distributions.

Given N stochastic forward passes p_1..p_N (dropout masks resampled each
pass) with mean p-bar:

* epistemic  = (1/N) sum_i KL(p_i || p-bar)   — spread between passes
* aleatoric  = (1/N) sum_i H(p_i)             — mean per-pass entropy
* total      = epistemic + aleatoric = H(p-bar)

Everything is in nats; 0 * ln 0 is taken as 0, and p-bar(a) = 0 forces every
p_i(a) = 0, so no division by zero can occur. :func:`mc_estimate` draws the
passes and :func:`estimate_from_passes` is the one decomposition of them.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import policy as policy_mod
from .policy import MlpPolicy


class UncertaintyEstimate(NamedTuple):
    epistemic: float
    aleatoric: float
    total: float


def _xlogx(p: np.ndarray) -> np.ndarray:
    if np.minimum.reduce(p, axis=None) > 0.0:  # false for NaN too
        return p * np.log(p)
    out = np.zeros_like(p)
    nz = p > 0.0
    out[nz] = p[nz] * np.log(p[nz])
    return out


def estimate_from_passes(dists) -> UncertaintyEstimate:
    """Both terms of the decomposition from one pass over ``dists``, an (N, 4)
    matrix (or list) of N distributions."""
    mat = np.asarray(dists, dtype=np.float64)
    if mat.ndim != 2 or mat.size == 0:
        raise ValueError(f"expected a non-empty list of distributions, got shape {mat.shape}")
    # Each mean is np.mean's own reduction and division, without its wrapper.
    n = mat.shape[0]
    xlogx = _xlogx(mat)
    mean = np.add.reduce(mat, axis=0) / n
    # The clamp keeps log finite where mean is 0. Every pass is 0 there, so
    # that log is multiplied by zero and adds nothing to the sum.
    log_mean = np.log(np.maximum(mean, 1e-300))
    e = float(np.add.reduce(np.add.reduce(xlogx - mat * log_mean, axis=1)) / n)
    a = float(np.add.reduce(-np.add.reduce(xlogx, axis=1)) / n)
    return UncertaintyEstimate(epistemic=e, aleatoric=a, total=e + a)


def mc_estimate(
    policy: MlpPolicy,
    cell,
    n_passes: int,
    dropout_rate: float,
    rng: np.random.Generator,
) -> UncertaintyEstimate:
    """Run N dropout passes at ``cell``, an integer index into the policy's
    input, and decompose the resulting spread.

    Deterministic given the rng seed: masks are drawn in a fixed order.
    """
    dists = policy_mod.dropout_passes(policy, cell, n_passes, dropout_rate, rng)
    return estimate_from_passes(dists)
