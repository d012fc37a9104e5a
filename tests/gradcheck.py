"""Finite-difference gradient audit shared by the trainer and acceptance tests."""

import numpy as np

from askgate.policy import build_policy, trunk_activations
from askgate.trainer import _log_softmax, ppo_grads, ppo_loss


def synthetic_batch(policy, rng, n=32):
    """A PPO minibatch whose ratios sit well inside the clip region.

    Keeping every ratio in [0.95, 1.05] guarantees the surrogate is smooth at
    the evaluation point, so central differences measure the true derivative
    instead of straddling the clip kink.
    """
    dim = policy.input_dim
    obs = np.zeros((n, dim))
    obs[np.arange(n), rng.integers(0, dim, n)] = 1.0
    actions = rng.integers(0, 4, n)
    wa, ba = policy.action_head
    logits = trunk_activations(policy, obs)[-1] @ wa + ba
    logp = _log_softmax(logits)[np.arange(n), actions]
    return {
        "obs": obs,
        "actions": actions,
        "logp_old": logp - rng.uniform(-0.05, 0.05, n),
        "advantages": rng.normal(size=n),
        "returns": rng.normal(size=n),
    }


def finite_difference_errors(policy, batch, h=1e-5):
    """Compare the analytic gradient against central differences over ``policy.flat``.

    Returns (worst_coordinate_rel_error, worst_array_norm_rel_error) where the
    coordinate error uses |a - f| / max(|a| + |f|, 1e-4) to keep near-zero
    coordinates from amplifying FD roundoff, and the norm error is
    ||a - f|| / (||a|| + ||f||) per parameter array, read through the
    policy's named layer views. Every coordinate is restored after use.
    """
    _, analytic = ppo_grads(policy, batch, build_policy(policy.widths))
    flat = policy.flat
    fd = np.zeros_like(analytic)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = ppo_loss(policy, batch)
        flat[i] = orig - h
        lo = ppo_loss(policy, batch)
        flat[i] = orig
        fd[i] = (hi - lo) / (2.0 * h)
    denom = np.maximum(np.abs(analytic) + np.abs(fd), 1e-4)
    worst_coord = float((np.abs(analytic - fd) / denom).max())
    worst_norm = 0.0
    layers = zip(build_policy(policy.widths, analytic).parameters(),
                 build_policy(policy.widths, fd).parameters())
    for a, f in layers:
        norm = np.linalg.norm(a - f) / max(np.linalg.norm(a) + np.linalg.norm(f), 1e-12)
        worst_norm = max(worst_norm, float(norm))
    return worst_coord, worst_norm
