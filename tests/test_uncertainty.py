"""Uncertainty decomposition against hand values and a brute-force reference."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from askgate.policy import dropout_passes, init_policy
from askgate.uncertainty import UncertaintyEstimate, estimate_from_passes, mc_estimate

LN2 = math.log(2.0)
LN4 = math.log(4.0)


def brute_epistemic(dists):
    """Mean KL to the mean, written as explicit loops with 0*log(0) = 0."""
    n, k = len(dists), len(dists[0])
    mean = [sum(d[j] for d in dists) / n for j in range(k)]
    total = 0.0
    for d in dists:
        for j in range(k):
            if d[j] > 0.0:
                total += d[j] * math.log(d[j] / mean[j])
    return total / n


def brute_aleatoric(dists):
    n = len(dists)
    total = 0.0
    for d in dists:
        for p in d:
            if p > 0.0:
                total -= p * math.log(p)
    return total / n


def brute_mean_entropy(dists):
    n, k = len(dists), len(dists[0])
    mean = [sum(d[j] for d in dists) / n for j in range(k)]
    return -sum(p * math.log(p) for p in mean if p > 0.0)


def random_distributions(rng, n_passes):
    """Random simplex points, some with hard zeros, as plain lists."""
    raw = rng.random((n_passes, 4))
    zero_mask = rng.random((n_passes, 4)) < 0.25
    zero_mask[np.arange(n_passes), rng.integers(0, 4, n_passes)] = False
    raw[zero_mask] = 0.0
    return (raw / raw.sum(axis=1, keepdims=True)).tolist()


def reference_epistemic(dists):
    """The separate epistemic term as first written: mean KL in NumPy."""
    mat = np.asarray(dists, dtype=np.float64)
    xlogx = np.where(mat > 0.0, mat * np.log(np.where(mat > 0.0, mat, 1.0)), 0.0)
    mean = mat.mean(axis=0)
    log_mean = np.where(mean > 0.0, np.log(np.maximum(mean, 1e-300)), 0.0)
    return float((xlogx - mat * log_mean).sum(axis=1).mean())


def reference_aleatoric(dists):
    """The separate aleatoric term as first written: mean entropy in NumPy."""
    mat = np.asarray(dists, dtype=np.float64)
    xlogx = np.where(mat > 0.0, mat * np.log(np.where(mat > 0.0, mat, 1.0)), 0.0)
    return float((-xlogx.sum(axis=1)).mean())


# ---------------------------------------------------------------------------
# Hand-derived values


def test_identical_passes_have_zero_epistemic():
    dists = [[0.7, 0.1, 0.1, 0.1]] * 5
    assert estimate_from_passes(dists).epistemic == 0.0


def test_two_disjoint_one_hots_split_ln2():
    dists = [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]
    est = estimate_from_passes(dists)
    assert abs(est.epistemic - LN2) < 1e-12
    assert est.aleatoric == 0.0
    assert abs(est.total - LN2) < 1e-12
    assert abs(est.total - brute_mean_entropy(dists)) < 1e-12


def test_one_hots_have_zero_aleatoric():
    dists = [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 0.0]]
    assert estimate_from_passes(dists).aleatoric == 0.0


def test_uniform_passes_hit_the_entropy_bound():
    dists = [[0.25, 0.25, 0.25, 0.25]] * 7
    est = estimate_from_passes(dists)
    assert est.aleatoric == LN4
    assert est.epistemic == 0.0
    assert est.total == LN4 == brute_mean_entropy(dists)


def test_one_hot_plus_uniform_averages_entropies():
    dists = [[1.0, 0.0, 0.0, 0.0], [0.25, 0.25, 0.25, 0.25]]
    assert abs(estimate_from_passes(dists).aleatoric - LN4 / 2.0) < 1e-12


def test_single_pass_has_zero_epistemic():
    dist = [0.4, 0.3, 0.2, 0.1]
    est = estimate_from_passes([dist])
    assert est.pass_count == 1 and est.epistemic == 0.0
    assert abs(est.aleatoric - brute_aleatoric([dist])) < 1e-15


def test_a_lone_distribution_is_not_a_pass_matrix():
    # One pass is a (1, 4) matrix; a bare distribution is rejected, not promoted.
    for lone in ([0.4, 0.3, 0.2, 0.1], np.full(4, 0.25)):
        with pytest.raises(ValueError, match="non-empty list of distributions"):
            estimate_from_passes(lone)


def test_estimate_bundles_the_decomposition():
    rng = np.random.default_rng(0)
    dists = random_distributions(rng, 6)
    est = estimate_from_passes(dists)
    assert isinstance(est, UncertaintyEstimate)
    assert est.pass_count == 6
    assert est.total == est.epistemic + est.aleatoric
    assert abs(est.epistemic - brute_epistemic(dists)) < 1e-12
    assert abs(est.aleatoric - brute_aleatoric(dists)) < 1e-12


def test_estimate_equals_the_separate_terms_exactly():
    # The one-pass decomposition gives the very floats of the separate terms
    # it replaced, so the u_* CSV columns keep their bits.
    rng = np.random.default_rng(4)
    for _ in range(300):
        dists = random_distributions(rng, int(rng.integers(1, 101)))
        est = estimate_from_passes(dists)
        assert est.epistemic == reference_epistemic(dists)
        assert est.aleatoric == reference_aleatoric(dists)
        assert est.total == est.epistemic + est.aleatoric


def test_positive_passes_equal_the_separate_terms_exactly():
    # Passes with no zero entry take _xlogx's unmasked path, which the random
    # distributions above almost never reach. Real MC-Dropout passes of every
    # cell, and random matrices with entries down to about 1e-300, must still
    # give the very floats of the separate terms.
    policy = init_policy(seed=0)
    inputs = []
    for cell in range(policy.input_dim):
        obs = np.zeros(policy.input_dim)
        obs[cell] = 1.0
        inputs.append(dropout_passes(policy, obs, 100, 0.2, np.random.default_rng([1, cell])))
    rng = np.random.default_rng(6)
    for _ in range(200):
        raw = 10.0 ** -rng.uniform(0.0, 300.0, (int(rng.integers(1, 101)), 4))
        inputs.append(raw / raw.sum(axis=1, keepdims=True))
    for mat in inputs:
        assert mat.min() > 0.0
        est = estimate_from_passes(mat)
        assert est.epistemic == reference_epistemic(mat)
        assert est.aleatoric == reference_aleatoric(mat)
        assert est.total == est.epistemic + est.aleatoric


def test_empty_input_rejected():
    for empty in (np.zeros((0, 4)), np.zeros((2, 2, 4)), [], np.zeros((3, 0))):
        with pytest.raises(ValueError, match="non-empty list of distributions"):
            estimate_from_passes(empty)


# ---------------------------------------------------------------------------
# Brute-force equivalence over random inputs


def test_matches_brute_force_on_random_sets():
    rng = np.random.default_rng(123)
    for _ in range(300):
        dists = random_distributions(rng, int(rng.integers(1, 11)))
        est = estimate_from_passes(dists)
        assert abs(est.epistemic - brute_epistemic(dists)) < 1e-9
        assert abs(est.aleatoric - brute_aleatoric(dists)) < 1e-9
        assert abs(est.total - brute_mean_entropy(dists)) < 1e-9


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=4, max_size=4),
    min_size=1, max_size=10,
))
def test_decomposition_properties_hold_everywhere(raw):
    dists = [[p / sum(row) for p in row] for row in raw]
    est = estimate_from_passes(dists)
    assert est.epistemic >= -1e-12                      # KL is non-negative
    assert -1e-12 <= est.aleatoric <= LN4 + 1e-12       # entropy of a 4-way distribution
    assert abs(est.total - brute_mean_entropy(dists)) < 1e-9  # total = H(p-bar)


# ---------------------------------------------------------------------------
# MC sampling plumbing


def test_mc_estimate_recounts_from_logged_passes():
    policy = init_policy(seed=0)
    obs = np.zeros(64)
    obs[9] = 1.0
    passes = dropout_passes(policy, obs, 100, 0.2, np.random.default_rng(5))
    est = mc_estimate(policy, obs, 100, 0.2, np.random.default_rng(5))
    assert passes.shape == (100, 4)
    assert est.pass_count == 100
    assert abs(est.epistemic - brute_epistemic(passes.tolist())) < 1e-9
    assert abs(est.aleatoric - brute_aleatoric(passes.tolist())) < 1e-9
    assert abs(est.total - brute_mean_entropy(passes.tolist())) < 1e-9


def test_mc_estimate_is_seed_deterministic():
    policy = init_policy(seed=1)
    obs = np.zeros(64)
    obs[3] = 1.0
    a = mc_estimate(policy, obs, 40, 0.2, np.random.default_rng(11))
    b = mc_estimate(policy, obs, 40, 0.2, np.random.default_rng(11))
    c = mc_estimate(policy, obs, 40, 0.2, np.random.default_rng(12))
    assert a == b
    assert a != c


def test_mc_estimate_without_dropout_is_purely_aleatoric():
    # All passes are identical; the float mean of 25 identical rows can drift
    # by an ulp, so the epistemic term is dust rather than a hard zero.
    policy = init_policy(seed=2)
    obs = np.zeros(64)
    obs[0] = 1.0
    est = mc_estimate(policy, obs, 25, 0.0, np.random.default_rng(0))
    assert abs(est.epistemic) < 1e-12
    assert abs(est.total - est.aleatoric) < 1e-12
