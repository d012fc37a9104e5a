"""Finite-difference gradient audit shared by the trainer and acceptance tests."""

import numpy as np

from askgate.policy import build_policy, trunk_activations
from askgate.trainer import CLIP, ENTROPY_COEF, VALUE_COEF, _log_softmax, ppo_grads, row_plan


def onehot_rows(policy, batch):
    """The observations of a cell-index batch: one one-hot row per batch row."""
    return np.eye(policy.input_dim)[batch["cells"][batch["inverse"]]]


def synthetic_batch(policy, rng, n=32, index=None):
    """A PPO minibatch on the cells ``index`` (random when None) whose ratios
    sit well inside the clip region.

    Keeping every ratio in [0.95, 1.05] guarantees the surrogate is smooth at
    the evaluation point, so central differences measure the true derivative
    instead of straddling the clip kink.
    """
    if index is None:
        index = rng.integers(0, policy.input_dim, n)
    cells, inverse = np.unique(index, return_inverse=True)
    actions = rng.integers(0, 4, n)
    wa, ba = policy.action_head
    logits = trunk_activations(policy, np.eye(policy.input_dim)[index])[-1] @ wa + ba
    logp = _log_softmax(logits)[np.arange(n), actions]
    return {
        "cells": cells,
        "inverse": inverse,
        "actions": actions,
        **row_plan(inverse, actions),
        "logp_old": logp - rng.uniform(-0.05, 0.05, n),
        "advantages": rng.normal(size=n),
        "returns": rng.normal(size=n),
    }


def ppo_loss(policy, batch):
    """Clipped surrogate + value MSE - entropy bonus on one frozen batch,
    computed on its one-hot rows."""
    h = trunk_activations(policy, onehot_rows(policy, batch))[-1]
    (wa, ba), (wv, bv) = policy.action_head, policy.value_head
    logp_all = _log_softmax(h @ wa + ba)
    values = (h @ wv + bv).reshape(-1)
    b = np.arange(len(values))
    logp = logp_all[b, batch["actions"]]
    ratio = np.exp(logp - batch["logp_old"])
    adv = batch["advantages"]
    surr1 = ratio * adv
    surr2 = np.clip(ratio, 1.0 - CLIP, 1.0 + CLIP) * adv
    policy_loss = -np.minimum(surr1, surr2).mean()
    value_loss = ((values - batch["returns"]) ** 2).mean()
    probs = np.exp(logp_all)
    entropy = -(probs * logp_all).sum(axis=1).mean()
    return float(policy_loss + VALUE_COEF * value_loss - ENTROPY_COEF * entropy)


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
