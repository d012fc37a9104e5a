"""Policy network: init, dropout semantics, action selection, weights file format."""

import struct
from bisect import bisect_right

import numpy as np
import pytest
from atomiccheck import assert_writes_atomically

from askgate.env import Action
from askgate.policy import (
    WEIGHTS_MAGIC,
    WEIGHTS_VERSION,
    MlpPolicy,
    WeightsError,
    apply_dropout,
    build_policy,
    draws_per_step,
    dropout_passes,
    forward,
    init_policy,
    load_weights,
    sampling_cdf,
    save_weights,
    select_action,
    softmax,
    trunk_activations,
)


@pytest.fixture()
def policy():
    return init_policy(seed=0)


def one_hot(index, dim=64):
    obs = np.zeros(dim)
    obs[index] = 1.0
    return obs


# ---------------------------------------------------------------------------
# Architecture and initialization


def test_default_architecture(policy):
    assert policy.input_dim == 64
    shapes = [a.shape for a in policy.parameters()]
    assert shapes == [(64, 64), (64,), (64, 64), (64,), (64, 4), (4,), (64, 1), (1,)]
    # Every layer is a view into the one parameter vector, in file order.
    assert policy.flat.shape == (sum(a.size for a in policy.parameters()),)
    assert np.array_equal(np.concatenate([a.reshape(-1) for a in policy.parameters()]),
                          policy.flat)
    assert all(np.shares_memory(a, policy.flat) for a in policy.parameters())


def test_orthogonal_trunk_init(policy):
    w0 = policy.trunk[0][0]
    gram = w0 @ w0.T
    assert np.allclose(gram, 2.0 * np.eye(64), atol=1e-10)  # gain sqrt(2)
    assert np.all(policy.trunk[0][1] == 0.0)


def test_init_is_seed_deterministic():
    a, b = init_policy(seed=3), init_policy(seed=3)
    for x, y in zip(a.parameters(), b.parameters()):
        assert np.array_equal(x, y)
    c = init_policy(seed=4)
    assert any(not np.array_equal(x, y) for x, y in zip(a.parameters(), c.parameters()))


def test_init_rejects_bad_dropout_rate(policy):
    # The rate is the caller's setting; the MC passes reject one outside [0, 1).
    for rate in (1.0, -0.1, float("nan")):
        with pytest.raises(ValueError, match="dropout_rate"):
            dropout_passes(policy, one_hot(5), 3, rate, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# Forward passes


def test_deterministic_forward_is_a_distribution(policy):
    probs, value = forward(policy, one_hot(5))
    assert probs.shape == (4,)
    assert np.all(probs > 0) and abs(probs.sum() - 1.0) < 1e-12
    assert np.isfinite(value)
    probs2, value2 = forward(policy, one_hot(5))
    assert np.array_equal(probs, probs2) and value == value2


def test_forward_rejects_wrong_shape(policy):
    with pytest.raises(ValueError):
        forward(policy, np.zeros(32))


def test_forward_batch_matches_single(policy):
    obs = np.stack([one_hot(i) for i in (0, 5, 9)])
    acts = trunk_activations(policy, obs)
    assert len(acts) == 3 and acts[0] is obs and acts[1].shape == (3, 64)
    (wa, ba), (wv, bv) = policy.action_head, policy.value_head
    probs = softmax(acts[-1] @ wa + ba)
    values = (acts[-1] @ wv + bv).reshape(-1)
    assert probs.shape == (3, 4) and values.shape == (3,)
    for i in range(3):
        p, v = forward(policy, obs[i])
        assert np.allclose(probs[i], p, atol=1e-15)
        assert abs(values[i] - v) < 1e-12


def test_stochastic_forward_is_seed_reproducible(policy):
    p1 = dropout_passes(policy, one_hot(5), 3, 0.2, np.random.default_rng(42))
    p2 = dropout_passes(policy, one_hot(5), 3, 0.2, np.random.default_rng(42))
    p3 = dropout_passes(policy, one_hot(5), 3, 0.2, np.random.default_rng(43))
    assert np.array_equal(p1, p2)
    assert not np.array_equal(p1, p3)


def test_dropout_passes_shape_and_determinism(policy):
    obs = one_hot(5)
    d1 = dropout_passes(policy, obs, 50, 0.2, np.random.default_rng(9))
    d2 = dropout_passes(policy, obs, 50, 0.2, np.random.default_rng(9))
    assert d1.shape == (50, 4)
    assert np.allclose(d1.sum(axis=1), 1.0, atol=1e-12)
    assert np.array_equal(d1, d2)
    assert len(np.unique(d1[:, 0])) > 1  # masks actually vary between passes
    # Reference: masks drawn layer by layer from the same seed, inverted scaling.
    ref_rng = np.random.default_rng(9)
    h = np.tile(obs, (50, 1))
    for w, b in policy.trunk:
        h = np.tanh(h @ w + b)
        h = np.where(ref_rng.random(h.shape) >= 0.2, h / 0.8, 0.0)
    assert np.allclose(d1, softmax(h @ policy.action_head[0] + policy.action_head[1]), atol=1e-15)
    with pytest.raises(ValueError):
        dropout_passes(policy, obs, 0, 0.2, np.random.default_rng(0))


def test_zero_rate_dropout_passes_equal_deterministic(policy):
    obs = one_hot(5)
    passes = dropout_passes(policy, obs, 10, 0.0, np.random.default_rng(0))
    base, _ = forward(policy, obs)
    assert np.allclose(passes, np.tile(base, (10, 1)), atol=1e-15)


@pytest.mark.parametrize("widths", [(64, 64, 64), (16, 8), (16, 8, 8, 8)])
@pytest.mark.parametrize("rate", [0.0, 0.2, 0.5])
@pytest.mark.parametrize("passes", [1, 7, 100])
def test_dropout_passes_equal_the_tiled_reference_bit_for_bit(widths, rate, passes):
    # The reference masks the whole trunk of ``passes`` stacked copies of the
    # observation; dropout_passes computes the first layer once. Both must give
    # the same bits and leave the generator in the same state.
    policy = build_policy(widths)
    policy.flat[:] = np.random.default_rng(2).normal(size=policy.flat.size)
    wa, ba = policy.action_head
    for cell in range(widths[0]):
        obs = one_hot(cell, widths[0])
        rng, reference = np.random.default_rng([7, cell]), np.random.default_rng([7, cell])
        x = np.tile(obs, (passes, 1))
        for w, b in policy.trunk:
            x = np.tanh(x @ w + b)
            if rate:
                x = np.where(reference.random(x.shape) >= rate, x / (1.0 - rate), 0.0)
        expected = softmax(x @ wa + ba)
        assert np.array_equal(dropout_passes(policy, obs, passes, rate, rng), expected)
        assert rng.bit_generator.state == reference.bit_generator.state
        advanced = np.random.default_rng([7, cell])
        advanced.bit_generator.advance(draws_per_step(policy, passes, rate))
        assert advanced.bit_generator.state == rng.bit_generator.state


def test_inverted_dropout_preserves_expectation():
    # Survivors are scaled by 1/(1-rate): the masked mean of a ones vector
    # stays within 3 sigma of 1, and the zeroed fraction within 3 sigma of rate.
    rate, n = 0.2, 200_000
    rng = np.random.default_rng(0)
    masked = apply_dropout(np.ones(n), rate, rng)
    kept = masked > 0
    assert np.all(np.isin(masked, [0.0, 1.0 / (1.0 - rate)]))
    zero_sigma = np.sqrt(rate * (1 - rate) / n)
    assert abs((1 - kept.mean()) - rate) < 3 * zero_sigma
    mean_sigma = np.sqrt((rate / (1 - rate)) / n)
    assert abs(masked.mean() - 1.0) < 3 * mean_sigma


def test_zero_rate_dropout_is_identity():
    x = np.arange(8.0)
    assert apply_dropout(x, 0.0, np.random.default_rng(0)) is x


def test_softmax_matches_reference():
    logits = np.array([2.0, -1.0, 0.5, 0.0])
    ref = np.exp(logits) / np.exp(logits).sum()
    assert np.allclose(softmax(logits), ref, atol=1e-15)
    big = softmax(np.array([1000.0, 0.0, 0.0, 0.0]))  # shift keeps it finite
    assert np.isfinite(big).all() and abs(big.sum() - 1.0) < 1e-12


def test_softmax_equals_the_allocating_reference_bit_for_bit():
    # Every greedy action and every u_* column reads softmax, so its in-place
    # form must give the very bits of the plain one, and leave its input alone.
    rng = np.random.default_rng(3)
    inputs = [np.array([2.0, -1.0, 0.5, 0.0]), np.array([1000.0, 0.0, 0.0, 0.0]),
              np.array([[1000.0, 0.0, -3.0, 999.5], [0.0, 0.0, 0.0, 0.0]])]
    inputs += [rng.normal(scale=scale, size=shape)
               for scale in (0.01, 1.0, 30.0) for shape in [(4,), (1, 4), (7, 4), (100, 4)]]
    for x in inputs:
        before = x.copy()
        e = np.exp(x - x.max(-1, keepdims=True))
        expected = e / e.sum(-1, keepdims=True)
        out = softmax(x)
        assert out.shape == x.shape and out.tobytes() == expected.tobytes()
        assert np.array_equal(x, before)


# ---------------------------------------------------------------------------
# Action selection


def test_greedy_selection_takes_argmax():
    assert select_action(np.array([0.1, 0.6, 0.2, 0.1])) is Action.DOWN
    assert select_action(np.array([0.4, 0.4, 0.1, 0.1])) is Action.UP  # tie -> lowest index


def sample(dist, rng):
    """One draw the way the trainer samples: ``bisect_right`` on the CDF."""
    return bisect_right(sampling_cdf(dist), rng.random())


def test_sampled_selection_is_seeded():
    dist = np.array([0.25, 0.25, 0.25, 0.25])
    first, second = ([sample(dist, rng) for _ in range(50)]
                     for rng in (np.random.default_rng(7), np.random.default_rng(7)))
    assert first == second
    assert set(first) == {0, 1, 2, 3}


def test_sampled_selection_follows_the_distribution():
    rng = np.random.default_rng(0)
    dist = np.array([0.0, 0.0, 1.0, 0.0])
    assert all(sample(dist, rng) == Action.LEFT for _ in range(20))


def test_sampling_matches_rng_choice_draw_for_draw():
    source = np.random.default_rng(11)
    dists = [*np.concatenate([source.dirichlet(np.full(4, alpha), size=25_000)
                              for alpha in (0.05, 0.5, 1.0, 20.0)])]
    dists += [np.eye(4)[i] for i in range(4) for _ in range(100)]
    dists += [np.full(4, 0.25)] * 1000
    dists += [np.array([1e-300, 0.5, 0.5, 0.0]), np.array([0.25, 1e-300, 0.25, 0.5]),
              np.array([1e-300, 1e-300, 1.0, 1e-300])] * 1000
    dists += [d * (1.0 + 1e-9) for d in dists[:1000]]  # inside choice's sum tolerance
    ours, twin = np.random.default_rng(5), np.random.default_rng(5)
    for dist in dists:
        assert sample(dist, ours) == twin.choice(4, p=dist)
    assert ours.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("dist", [
    [0.25, np.nan, 0.25, 0.5],
    [0.5, -0.1, 0.3, 0.3],
    [0.5, 0.5, 0.0],
    [[0.25, 0.25, 0.25, 0.25]],
    [0.3, 0.3, 0.2, 0.1],
])
def test_sampling_rejects_what_rng_choice_rejects(dist):
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(4, p=dist)
    with pytest.raises(ValueError):
        sampling_cdf(np.array(dist))


# ---------------------------------------------------------------------------
# Weights file format


def test_weights_round_trip_is_bit_identical(tmp_path, policy):
    path = tmp_path / "w.bin"
    save_weights(policy, str(path))
    loaded = load_weights(str(path))
    for a, b in zip(policy.parameters(), loaded.parameters()):
        assert a.shape == b.shape
        assert np.array_equal(a, b)
    obs = one_hot(5)
    assert np.array_equal(forward(policy, obs)[0], forward(loaded, obs)[0])


def test_interrupted_weights_write_keeps_the_old_file(tmp_path, policy, monkeypatch):
    path = tmp_path / "w.bin"
    save_weights(policy, str(path))
    other = init_policy(seed=1)
    assert_writes_atomically(monkeypatch, path, lambda: save_weights(other, str(path)))
    assert np.array_equal(load_weights(str(path)).flat, other.flat)


def test_weights_header_layout(tmp_path, policy):
    path = tmp_path / "w.bin"
    save_weights(policy, str(path))
    blob = path.read_bytes()
    assert blob[:4] == WEIGHTS_MAGIC
    version, count = struct.unpack("<II", blob[4:12])
    assert version == WEIGHTS_VERSION and count == 8
    rows, cols = struct.unpack("<II", blob[12:20])
    assert (rows, cols) == (64, 64)
    first = np.frombuffer(blob[20:20 + 8 * 64 * 64], dtype="<f8").reshape(64, 64)
    assert np.array_equal(first, policy.trunk[0][0])


def test_bad_magic_raises_format_error(tmp_path, policy):
    path = tmp_path / "w.bin"
    save_weights(policy, str(path))
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(WeightsError, match="bad magic b'NOPE', expected b'MLPW'"):
        load_weights(str(path))


def test_unknown_version_raises_version_error(tmp_path, policy):
    path = tmp_path / "w.bin"
    save_weights(policy, str(path))
    blob = bytearray(path.read_bytes())
    blob[4:8] = struct.pack("<I", 2)
    path.write_bytes(bytes(blob))
    with pytest.raises(WeightsError, match="unsupported weights version 2"):
        load_weights(str(path))


def test_truncated_file_raises_truncation_error(tmp_path, policy):
    path = tmp_path / "w.bin"
    save_weights(policy, str(path))
    blob = path.read_bytes()
    for cut, what in ((2, "magic bytes"), (10, "header"), (16, "shape of array 0"),
                      (len(blob) - 5, "data of array 7")):
        path.write_bytes(blob[:cut])
        with pytest.raises(WeightsError, match=f"file ended while reading {what}: "):
            load_weights(str(path))


@pytest.mark.parametrize("index", [0, 5])
@pytest.mark.parametrize("shape", [(0xFFFFFFFF, 0xFFFFFFFF), (1000, 64)])
def test_a_shape_larger_than_the_file_raises_truncation_error(tmp_path, policy, index, shape):
    # The declared size is checked against the bytes left before any read, so
    # a corrupted header can neither overflow the read size nor exhaust memory.
    path = tmp_path / "w.bin"
    save_weights(policy, str(path))
    blob = bytearray(path.read_bytes())
    offset = 12
    for arr in policy.parameters()[:index]:
        offset += 8 + 8 * arr.size
    blob[offset:offset + 8] = struct.pack("<II", *shape)
    path.write_bytes(bytes(blob))
    with pytest.raises(WeightsError, match=r"reading data of array \d: needs \d+ bytes, \d+ left"):
        load_weights(str(path))


def test_trailing_bytes_raise_shape_error(tmp_path, policy):
    path = tmp_path / "w.bin"
    save_weights(policy, str(path))
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(WeightsError, match="trailing bytes after declared arrays"):
        load_weights(str(path))


def _write_raw(path, arrays, version=WEIGHTS_VERSION):
    with open(path, "wb") as fh:
        fh.write(WEIGHTS_MAGIC)
        fh.write(struct.pack("<II", version, len(arrays)))
        for arr in arrays:
            arr = np.atleast_2d(np.asarray(arr, dtype=np.float64))
            fh.write(struct.pack("<II", *arr.shape))
            fh.write(arr.astype("<f8").tobytes())


@pytest.mark.parametrize("array, value", [(0, np.nan), (3, np.inf), (7, -np.inf)])
def test_a_non_finite_value_raises_value_error_naming_its_array(tmp_path, array, value):
    # One NaN in W0 would reach every cell's forward, and every uncertainty
    # would be NaN, which no tau gates on.
    policy = init_policy(seed=0)
    policy.parameters()[array].reshape(-1)[-1] = value
    path = str(tmp_path / "w.bin")
    save_weights(policy, path)
    with pytest.raises(WeightsError, match=rf"array {array} holds {value}, not a finite"):
        load_weights(path)


def test_inconsistent_shapes_raise_shape_error(tmp_path):
    path = str(tmp_path / "w.bin")

    # Bias length disagrees with its weight matrix.
    _write_raw(path, [np.zeros((4, 4)), np.zeros(3), np.zeros((4, 4)), np.zeros(4),
                      np.zeros((4, 1)), np.zeros(1)])
    with pytest.raises(WeightsError,
                       match=r"pair 0: bias shape \(1, 3\) does not match weight \(4, 4\)"):
        load_weights(path)

    # Layer widths do not chain: 4 -> 4 trunk feeding a 5-wide action head.
    _write_raw(path, [np.zeros((4, 4)), np.zeros(4), np.zeros((5, 4)), np.zeros(4),
                      np.zeros((4, 1)), np.zeros(1)])
    with pytest.raises(WeightsError, match="pair 1: weight rows 5, expected 4"):
        load_weights(path)

    # Action head must emit exactly four logits.
    _write_raw(path, [np.zeros((4, 4)), np.zeros(4), np.zeros((4, 3)), np.zeros(3),
                      np.zeros((4, 1)), np.zeros(1)])
    with pytest.raises(WeightsError, match="action head has 3 outputs, expected 4"):
        load_weights(path)

    # Value head must emit exactly one value.
    _write_raw(path, [np.zeros((4, 4)), np.zeros(4), np.zeros((4, 4)), np.zeros(4),
                      np.zeros((4, 2)), np.zeros(2)])
    with pytest.raises(WeightsError, match="value head has 2 outputs, expected 1"):
        load_weights(path)

    # An odd array count cannot form (W, b) pairs.
    _write_raw(path, [np.zeros((4, 4)), np.zeros(4), np.zeros((4, 4))])
    with pytest.raises(WeightsError, match="array count 3 cannot form trunk plus two heads"):
        load_weights(path)

    # Declared-empty arrays are rejected outright.
    with open(path, "wb") as fh:
        fh.write(WEIGHTS_MAGIC)
        fh.write(struct.pack("<II", WEIGHTS_VERSION, 6))
        fh.write(struct.pack("<II", 0, 4))
    with pytest.raises(WeightsError, match="array 0 declares empty shape 0x4"):
        load_weights(path)


def test_a_policy_without_a_trunk_is_rejected(tmp_path):
    # Every policy has at least one hidden layer: the two heads alone are
    # neither a layout nor a weights file.
    with pytest.raises(ValueError, match="at least one hidden layer"):
        build_policy((16,))
    path = str(tmp_path / "w.bin")
    _write_raw(path, [np.arange(8.0).reshape(2, 4), np.zeros(4), np.zeros((2, 1)), np.zeros(1)])
    with pytest.raises(WeightsError, match="array count 4 cannot form"):
        load_weights(path)

    # The smallest policy: one hidden layer of one unit.
    _write_raw(path, [np.ones((2, 1)), np.zeros(1), np.ones((1, 4)), np.zeros(4),
                      np.ones((1, 1)), np.zeros(1)])
    loaded = load_weights(path)
    assert loaded.widths == (2, 1) and loaded.input_dim == 2
