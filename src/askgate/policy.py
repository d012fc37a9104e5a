"""Feed-forward stochastic policy with inference-time dropout and binary weights I/O.

The network is a tanh MLP trunk (default 64->64->64) with separate linear
action and value heads; all its parameters live in one float64 vector. Its
input is a cell index, which stands for the one-hot observation. MC
passes apply dropout after each hidden activation, using inverted scaling so
expected activations match the deterministic pass; one draw gives every
mask of an MC call. Training itself never uses dropout, and the rate is the
caller's (the gate's) setting, not the network's.

Weights file layout (little-endian): magic ``MLPW``, version u32, array count
u32, then per array rows u32, cols u32, row-major f64 data. Arrays appear as
one or more trunk (W, b) pairs followed by the action head (W, b) and value
head (W, b); biases are stored with rows = 1. :func:`load_weights` raises one
error type, :class:`WeightsError`, for every fault of the file: its message
names the check that failed.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .atomic import write_atomic
from .env import OBS_DIM, Action

N_ACTIONS = 4
_SUM_ATOL = math.sqrt(np.finfo(np.float64).eps)  # rng.choice's tolerance on sum(p)

WEIGHTS_MAGIC = b"MLPW"
WEIGHTS_VERSION = 1


class WeightsError(RuntimeError):
    """A weights file that cannot be read as a policy; the message says why."""


@dataclass(frozen=True)
class MlpPolicy:
    """Parameters in one contiguous float64 vector ``flat``.

    ``trunk``, ``action_head`` and ``value_head`` are (W, b) views into
    ``flat``, laid out in weights-file order, so a write to ``flat`` is a
    write to the layers and the reverse. Build one with :func:`build_policy`.
    """

    flat: np.ndarray
    trunk: tuple[tuple[np.ndarray, np.ndarray], ...]
    action_head: tuple[np.ndarray, np.ndarray]
    value_head: tuple[np.ndarray, np.ndarray]

    @property
    def input_dim(self) -> int:
        return self.trunk[0][0].shape[0]

    @property
    def widths(self) -> tuple[int, ...]:
        """(input_dim, *hidden sizes): what :func:`build_policy` needs to lay out ``flat``."""
        return (self.input_dim, *(w.shape[1] for w, _ in self.trunk))

    def parameters(self) -> list[np.ndarray]:
        """All parameter arrays in serialization order."""
        out: list[np.ndarray] = []
        for w, b in self.trunk:
            out.extend((w, b))
        out.extend(self.action_head)
        out.extend(self.value_head)
        return out


def build_policy(widths, flat: np.ndarray | None = None) -> MlpPolicy:
    """Policy with trunk layer sizes ``widths`` = (input_dim, *hidden) over ``flat``.

    Every policy has at least one hidden layer. ``flat`` holds each trunk
    layer's W then b, then the action head's and the value head's, each
    row-major; it is used in place, not copied. None allocates zeros.
    """
    if len(widths) < 2:
        raise ValueError(f"widths {tuple(widths)} need an input and at least one hidden layer")
    shapes = []
    for fan_in, fan_out in zip(widths, widths[1:]):
        shapes += [(fan_in, fan_out), (fan_out,)]
    shapes += [(widths[-1], N_ACTIONS), (N_ACTIONS,), (widths[-1], 1), (1,)]
    size = sum(math.prod(shape) for shape in shapes)
    if flat is None:
        flat = np.zeros(size)
    elif flat.shape != (size,):
        raise ValueError(f"parameter vector of shape {flat.shape} does not fit widths {tuple(widths)}")
    views = []
    offset = 0
    for shape in shapes:
        n = math.prod(shape)
        views.append(flat[offset:offset + n].reshape(shape))
        offset += n
    pairs = list(zip(views[::2], views[1::2]))
    return MlpPolicy(flat, tuple(pairs[:-2]), pairs[-2], pairs[-1])


def _orthogonal(rng: np.random.Generator, rows: int, cols: int, gain: float) -> np.ndarray:
    a = rng.standard_normal((rows, cols))
    if rows < cols:
        a = a.T
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return gain * q[:rows, :cols]


def init_policy(
    input_dim: int = OBS_DIM,
    hidden: tuple[int, ...] = (64, 64),
    seed: int = 0,
) -> MlpPolicy:
    """Orthogonal-initialized policy (gain sqrt(2) trunk, 0.01/1.0 heads)."""
    rng = np.random.default_rng(seed)
    policy = build_policy((input_dim, *hidden))
    for w, _ in policy.trunk:
        w[...] = _orthogonal(rng, *w.shape, np.sqrt(2.0))
    policy.action_head[0][...] = _orthogonal(rng, *policy.action_head[0].shape, 0.01)
    policy.value_head[0][...] = _orthogonal(rng, *policy.value_head[0].shape, 1.0)
    return policy


def draws_per_step(policy: MlpPolicy, n_passes: int, dropout_rate: float) -> int:
    """The size of the one draw :func:`dropout_passes` makes from its
    generator: one mask entry per pass and hidden unit, none at rate 0. It
    depends on no observation, so a generator's state after k calls is known
    in advance."""
    return 0 if dropout_rate == 0.0 else n_passes * sum(policy.widths[1:])


def softmax(logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax over the last axis, shifted by the maximum, worked in place on
    ``out``: one temporary when None, else ``out`` itself, which may be
    ``logits``."""
    out = np.subtract(logits, np.maximum.reduce(logits, axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= np.add.reduce(out, axis=-1, keepdims=True)
    return out


def trunk_activations(
    policy: MlpPolicy,
    x: np.ndarray,
    masks: list[np.ndarray] | None = None,
    keep: float = 1.0,
) -> list[np.ndarray]:
    """The trunk's input followed by each hidden activation, for one row or a batch.

    An integer ``x`` holds cell indices, not observations: layer 0 of a
    one-hot row is a row of W0, so it is gathered, with the bits of the
    one-hot product. Every caller in the package passes cells; a float
    ``x`` (one-hot rows) is the reference the bit-equality tests compare
    against. ``masks`` holds one boolean array per hidden layer, in
    layer order. Each hidden activation is then divided by ``keep`` and
    multiplied by its mask: the first layer's row broadcasts into the mask's
    rows, and later layers are masked in place. The heads apply to the last
    entry; the update's backward pass reads the hidden activations too.
    """
    acts = [x]
    for i, (w, b) in enumerate(policy.trunk):
        # take copies the rows, so the in-place work below never writes W0.
        h = w.take(x, axis=0) if i == 0 and x.dtype.kind in "iu" else acts[-1] @ w
        h += b
        np.tanh(h, out=h)
        if masks is not None:
            h /= keep
            h = np.multiply(h, masks[i], out=h if i else None)
        acts.append(h)
    return acts


def _cell_index(policy: MlpPolicy, cell) -> np.ndarray:
    """``cell`` as a 0-d index array, if it is a Python or NumPy integer in
    [0, input_dim); anything else, a negative index too (``take`` would wrap
    it), raises ``ValueError``."""
    if not isinstance(cell, (int, np.integer)) or isinstance(cell, bool):
        raise ValueError(f"a cell is an integer index, not a {type(cell).__name__}")
    if not 0 <= cell < policy.input_dim:
        raise ValueError(f"cell {cell} lies outside [0, {policy.input_dim})")
    return np.asarray(cell)


def _action_probs(policy: MlpPolicy, h: np.ndarray) -> np.ndarray:
    """The action head on the last hidden activation ``h``: one row or one per pass."""
    wa, ba = policy.action_head
    logits = h @ wa
    logits += ba
    return softmax(logits, out=logits)


def forward(policy: MlpPolicy, cell) -> tuple[np.ndarray, float]:
    """One deterministic forward pass at ``cell``: (action distribution, state value)."""
    h = trunk_activations(policy, _cell_index(policy, cell))[-1]
    wv, bv = policy.value_head
    return _action_probs(policy, h), float((h @ wv + bv)[0])


def dropout_passes(
    policy: MlpPolicy,
    cell,
    n_passes: int,
    dropout_rate: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """N stochastic action distributions at one cell, shape (N, 4).

    One draw of :func:`draws_per_step` doubles from the caller's rng,
    compared once with the rate and sliced per hidden layer into (N, width)
    blocks, gives every mask: the doubles of a draw per layer, in the same
    order. The passes run as one batch, the first layer once. A dropped
    negative unit is -0.0, which moves no nonzero sum and which ``exp`` maps
    to 1, so the result and the generator's final state equal those of
    masking ``n_passes`` stacked copies of the cell's one-hot row with
    ``np.where``.
    """
    x = _cell_index(policy, cell)
    if n_passes < 1:
        raise ValueError("n_passes must be >= 1")
    if not 0.0 <= dropout_rate < 1.0:
        raise ValueError(f"dropout_rate must lie in [0, 1), got {dropout_rate}")
    if dropout_rate == 0.0:  # no draw; masks of ones tile the first activation
        masks = [np.ones((n_passes, 1), dtype=bool)] * len(policy.trunk)
    else:
        drawn = rng.random(draws_per_step(policy, n_passes, dropout_rate)) >= dropout_rate
        masks, start = [], 0
        for w, _ in policy.trunk:  # the hidden widths draws_per_step sums
            width = w.shape[1]
            masks.append(drawn[start:start + n_passes * width].reshape(n_passes, width))
            start += n_passes * width
    return _action_probs(policy, trunk_activations(policy, x, masks, 1.0 - dropout_rate)[-1])


def sampling_cdf(dist: np.ndarray) -> list[float]:
    """The normalised CDF that ``rng.choice(N_ACTIONS, p=dist)`` samples from.

    It makes the same checks on ``dist`` as ``rng.choice`` and raises the
    same way. Sampling is then ``bisect_right(cdf, rng.random())``, which
    equals ``choice``'s ``searchsorted(side="right")``, so it returns the same
    action and leaves ``rng`` in the same state.
    """
    p = np.asarray(dist, dtype=np.float64)
    if p.shape != (N_ACTIONS,):
        raise ValueError(f"probabilities of shape {p.shape}, expected ({N_ACTIONS},)")
    values = p.tolist()  # on 4 entries, Python floats check ~10x faster than numpy
    total = sum(values)
    if math.isnan(total):
        raise ValueError("probabilities contain NaN")
    if min(values) < 0.0:
        raise ValueError("probabilities are not non-negative")
    if abs(total - 1.0) > _SUM_ATOL:
        raise ValueError(f"probabilities sum to {total}, not 1")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def select_action(dist: np.ndarray) -> Action:
    """Greedy argmax, ties toward the lowest action index."""
    return Action(int(np.argmax(dist)))


def save_weights(policy: MlpPolicy, path: str) -> None:
    arrays = [np.atleast_2d(np.asarray(a, dtype=np.float64)) for a in policy.parameters()]
    parts = [WEIGHTS_MAGIC, struct.pack("<II", WEIGHTS_VERSION, len(arrays))]
    for arr in arrays:
        parts.append(struct.pack("<II", *arr.shape))
        parts.append(arr.astype("<f8").tobytes(order="C"))
    write_atomic(path, b"".join(parts))


def _read_exact(fh, size: int, what: str) -> bytes:
    # ``size`` comes from the file's own header, so it is checked against the
    # bytes left before the read: a corrupted one may declare more than memory.
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if size > left:
        raise WeightsError(f"file ended while reading {what}: needs {size} bytes, {left} left")
    return fh.read(size)


def load_weights(path: str) -> MlpPolicy:
    """Load a policy; any file that does not hold one raises :class:`WeightsError`
    with the reason (see module doc for the layout)."""
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4, "magic bytes")
        if magic != WEIGHTS_MAGIC:
            raise WeightsError(f"bad magic {magic!r}, expected {WEIGHTS_MAGIC!r}")
        version, count = struct.unpack("<II", _read_exact(fh, 8, "header"))
        if version != WEIGHTS_VERSION:
            raise WeightsError(f"unsupported weights version {version}")
        if count < 6 or count % 2 != 0:
            raise WeightsError(f"array count {count} cannot form trunk plus two heads")
        arrays = []
        for i in range(count):
            rows, cols = struct.unpack("<II", _read_exact(fh, 8, f"shape of array {i}"))
            if rows == 0 or cols == 0:
                raise WeightsError(f"array {i} declares empty shape {rows}x{cols}")
            raw = _read_exact(fh, 8 * rows * cols, f"data of array {i}")
            array = np.frombuffer(raw, dtype="<f8").reshape(rows, cols).astype(np.float64)
            finite = np.isfinite(array)
            if not finite.all():
                raise WeightsError(f"array {i} holds {array[~finite][0]}, not a finite value")
            arrays.append(array)
        if fh.read(1):
            raise WeightsError("trailing bytes after declared arrays")
    pairs = [(arrays[i], arrays[i + 1]) for i in range(0, count, 2)]
    for i, (w, b) in enumerate(pairs):
        if b.shape != (1, w.shape[1]):
            raise WeightsError(f"pair {i}: bias shape {b.shape} does not match weight {w.shape}")
    *trunk_pairs, action, value = pairs
    input_dim = width = pairs[0][0].shape[0]
    for i, (w, _) in enumerate(pairs):
        if w.shape[0] != width:
            raise WeightsError(f"pair {i}: weight rows {w.shape[0]}, expected {width}")
        if i < len(trunk_pairs):
            width = w.shape[1]
    if action[0].shape[1] != N_ACTIONS:
        raise WeightsError(f"action head has {action[0].shape[1]} outputs, expected {N_ACTIONS}")
    if value[0].shape[1] != 1:
        raise WeightsError(f"value head has {value[0].shape[1]} outputs, expected 1")
    widths = (input_dim, *(w.shape[1] for w, _ in trunk_pairs))
    return build_policy(widths, np.concatenate([a.reshape(-1) for a in arrays]))
