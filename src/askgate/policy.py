"""Feed-forward stochastic policy with inference-time dropout and binary weights I/O.

The network is a tanh MLP trunk (default 64->64->64) with separate linear
action and value heads; all its parameters live in one float64 vector. MC
passes apply dropout after each hidden activation, using inverted scaling so
expected activations match the deterministic pass. Training itself never uses
dropout, and the rate is the caller's (the gate's) setting, not the network's.

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
from .env import Action

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
    input_dim: int = 64,
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


def apply_dropout(
    x: np.ndarray, rate: float, rng: np.random.Generator, passes: int | None = None
) -> np.ndarray:
    """Inverted dropout: zero units w.p. ``rate``, scale survivors by 1/(1-rate).

    With ``passes``, ``x`` is one row that every pass shares: the result has
    ``passes`` rows, each masked by its own draw.
    """
    if rate == 0.0:
        return x if passes is None else np.tile(x, (passes, 1))
    keep = rng.random(x.shape if passes is None else (passes, *x.shape)) >= rate
    return np.where(keep, x / (1.0 - rate), 0.0)


def draws_per_step(policy: MlpPolicy, n_passes: int, dropout_rate: float) -> int:
    """How many doubles :func:`dropout_passes` draws from its generator: one
    mask entry per pass and hidden unit, none at rate 0. It depends on no
    observation, so a generator's state after k calls is known in advance."""
    return 0 if dropout_rate == 0.0 else n_passes * sum(policy.widths[1:])


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, shifted by the maximum, worked in place on
    one temporary; ``logits`` is left as is."""
    out = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= np.add.reduce(out, axis=-1, keepdims=True)
    return out


def trunk_activations(
    policy: MlpPolicy,
    x: np.ndarray,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
    passes: int | None = None,
) -> list[np.ndarray]:
    """The trunk's input followed by each hidden activation, for one row or a batch.

    With an ``rng``, each hidden activation is masked by :func:`apply_dropout`
    in layer order. With ``passes`` too, ``x`` is one row that every pass
    shares: the first layer is computed once and each pass masks it with its
    own draw, so later activations have ``passes`` rows. The heads apply to
    the last entry; only the tests' reference gradient reads the rest.
    """
    acts = [x]
    for w, b in policy.trunk:
        h = acts[-1] @ w
        h += b
        np.tanh(h, out=h)
        if rng is not None:
            h = apply_dropout(h, dropout_rate, rng, passes if len(acts) == 1 else None)
        acts.append(h)
    return acts


def forward(policy: MlpPolicy, obs: np.ndarray) -> tuple[np.ndarray, float]:
    """One deterministic forward pass: (action distribution, state value)."""
    obs = np.asarray(obs, dtype=np.float64)
    if obs.shape != (policy.input_dim,):
        raise ValueError(f"observation shape {obs.shape} does not match input_dim {policy.input_dim}")
    h = trunk_activations(policy, obs)[-1]
    wa, ba = policy.action_head
    wv, bv = policy.value_head
    probs = softmax(h @ wa + ba)
    value = float((h @ wv + bv)[0])
    return probs, value


def dropout_passes(
    policy: MlpPolicy,
    obs: np.ndarray,
    n_passes: int,
    dropout_rate: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """N stochastic action distributions for one observation, shape (N, 4).

    Masks are drawn in a fixed layer order from the caller's rng, so the
    result is seed-deterministic; passes are evaluated as one batch. For a
    one-hot observation the result is bit-equal to masking the trunk of
    ``n_passes`` stacked copies of it.
    """
    if n_passes < 1:
        raise ValueError("n_passes must be >= 1")
    if not 0.0 <= dropout_rate < 1.0:
        raise ValueError(f"dropout_rate must lie in [0, 1), got {dropout_rate}")
    x = np.asarray(obs, dtype=np.float64)
    h = trunk_activations(policy, x, dropout_rate, rng, n_passes)[-1]
    wa, ba = policy.action_head
    return softmax(h @ wa + ba)


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
