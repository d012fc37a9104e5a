"""Deterministic frozen-lake grid world with per-episode map contexts.

A context is a full map layout; the episode dynamics are deterministic.
The policy never sees the layout — observations encode position only
(see :func:`encode_observation`) — so each map acts as a hidden context
drawn per episode.

Map text format: ``n`` lines of ``n`` characters from ``{S,F,H,G}``.
Context-set files start with a header line ``size {n} seed {k} count {m}``
followed by the maps separated by blank lines; split boundaries are implied
by index order (first third Train, second Eval, third Test).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .atomic import write_atomic

DEFAULT_MAX_STEPS = 100
OBS_DIM = 64
HOLE_PROBABILITY = 0.2
GENERATION_BUDGET = 10_000


class TileKind(enum.Enum):
    START = "S"
    FROZEN = "F"
    HOLE = "H"
    GOAL = "G"


# Label used in prompts for a neighbor that lies outside the grid.
EDGE_LABEL = "EDGE"

_VALID_CHARS = {t.value for t in TileKind}
_GOAL_CHAR, _HOLE_CHAR = TileKind.GOAL.value, TileKind.HOLE.value


class Action(enum.IntEnum):
    UP = 0
    DOWN = 1
    LEFT = 2
    RIGHT = 3

    @property
    def delta(self) -> tuple[int, int]:
        return _DELTAS[self]


_DELTAS = {
    Action.UP: (-1, 0),
    Action.DOWN: (1, 0),
    Action.LEFT: (0, -1),
    Action.RIGHT: (0, 1),
}


class Outcome(enum.Enum):
    RUNNING = "running"
    GOAL = "goal"
    HOLE = "hole"
    TRUNCATED = "truncated"


class Split(enum.Enum):
    TRAIN = "train"
    EVAL = "eval"
    TEST = "test"


class TerminalStateError(RuntimeError):
    """Raised when stepping an episode that has already ended."""


@dataclass(frozen=True)
class GridMap:
    """Square tile grid stored as a tuple of row strings."""

    rows: tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.rows)

    def to_text(self) -> str:
        return "\n".join(self.rows) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "GridMap":
        rows = tuple(line for line in text.strip("\n").split("\n"))
        grid = cls(rows)
        _validate_grid(grid)
        return grid


def _validate_grid(grid: GridMap) -> None:
    n = grid.size
    if n < 2:
        raise ValueError(f"grid must be at least 2x2, got {n}")
    if any(len(r) != n for r in grid.rows):
        raise ValueError("grid is not square")
    chars = "".join(grid.rows)
    bad = set(chars) - _VALID_CHARS
    if bad:
        raise ValueError(f"invalid tile characters: {sorted(bad)}")
    if grid.rows[0][0] != TileKind.START.value:
        raise ValueError("top-left tile must be S")
    if grid.rows[n - 1][n - 1] != TileKind.GOAL.value:
        raise ValueError("bottom-right tile must be G")
    if chars.count("S") != 1 or chars.count("G") != 1:
        raise ValueError("grid must contain exactly one S and one G")


@dataclass(frozen=True)
class Context:
    id: int
    grid: GridMap
    split: Split


@dataclass(frozen=True)
class ContextSet:
    size: int
    seed: int
    contexts: tuple[Context, ...]

    @property
    def count(self) -> int:
        return len(self.contexts)

    def split(self, which: Split) -> tuple[Context, ...]:
        return tuple(c for c in self.contexts if c.split == which)


class EnvState(NamedTuple):
    """One point of an episode. Every step builds one, so it is a NamedTuple:
    immutable and hashable, and built without a ``__setattr__`` per field."""

    context: Context
    row: int
    col: int
    step_count: int
    outcome: Outcome

    @property
    def done(self) -> bool:
        return self.outcome is not Outcome.RUNNING

    @property
    def cell(self) -> int:
        """The agent's cell index, ``row * n + col`` on an n x n map: the
        policy's whole input."""
        return self.row * len(self.context.grid.rows) + self.col


def reset(context: Context) -> EnvState:
    """Start an episode at the map's S tile (always the top-left corner)."""
    return EnvState(context=context, row=0, col=0, step_count=0, outcome=Outcome.RUNNING)


def step(state: EnvState, action: Action, max_steps: int = DEFAULT_MAX_STEPS) -> tuple[EnvState, int, bool]:
    """Apply one deterministic move; returns (next_state, reward, done).

    Moves that would leave the grid keep the agent in place but still count
    against the step cap. Outcome precedence: Goal, then Hole, then the cap.
    """
    if state.outcome is not Outcome.RUNNING:
        raise TerminalStateError(f"episode already ended with outcome {state.outcome.value}")
    # Every rollout, gate and replay step runs this, so it works on the row
    # strings and the delta table directly.
    rows = state.context.grid.rows
    n = len(rows)
    dr, dc = _DELTAS[action]
    row, col = state.row + dr, state.col + dc
    if not (0 <= row < n and 0 <= col < n):
        row, col = state.row, state.col
    steps = state.step_count + 1
    tile = rows[row][col]
    if tile == _GOAL_CHAR:
        outcome = Outcome.GOAL
    elif tile == _HOLE_CHAR:
        outcome = Outcome.HOLE
    elif steps >= max_steps:
        outcome = Outcome.TRUNCATED
    else:
        outcome = Outcome.RUNNING
    next_state = EnvState(state.context, row, col, steps, outcome)
    return next_state, 1 if outcome is Outcome.GOAL else 0, outcome is not Outcome.RUNNING


def check_observation_fits(n: int, dim: int) -> None:
    """Refuse an ``n`` x ``n`` grid whose last cell has no place in a
    ``dim``-wide observation, whichever cells an episode would visit."""
    if n * n > dim:
        raise ValueError(f"observation index {n * n - 1} does not fit dim {dim} (grid size {n})")


def encode_observation(state: EnvState, dim: int = OBS_DIM) -> np.ndarray:
    """Position-only projection: the one-hot of ``state.cell`` in a fixed-size vector.

    The map layout is deliberately absent so the same policy input space
    covers every context of a given size (and every size up to sqrt(dim)).
    The policy reads the cell index itself, which gives the bits of this row.
    """
    check_observation_fits(state.context.grid.size, dim)
    obs = np.zeros(dim, dtype=np.float64)
    obs[state.cell] = 1.0
    return obs


# Prompt label of each tile character, and for each direction the view keys of
# the adjacent and the two-step-ahead tile with the direction's delta.
_LABELS = {t.value: t.name for t in TileKind}
_VIEW_KEYS = tuple(
    (f"{a.name.lower()}_tile", f"{a.name.lower()}_{a.name.lower()}_tile", *a.delta)
    for a in Action
)


def local_view(state: EnvState) -> dict[str, int | str]:
    """Symbolic neighborhood used to fill the prompt template.

    Reports the four adjacent tiles and the four two-step-ahead tiles
    (same direction twice); anything off-grid reads EDGE.
    """
    rows = state.context.grid.rows
    n = len(rows)
    row, col = state.row, state.col

    def label(r: int, c: int) -> str:
        return _LABELS[rows[r][c]] if 0 <= r < n and 0 <= c < n else EDGE_LABEL

    view: dict[str, int | str] = {
        "agent_row": row,
        "agent_col": col,
        "goal_row": n - 1,
        "goal_col": n - 1,
    }
    for near, far, dr, dc in _VIEW_KEYS:
        view[near] = label(row + dr, col + dc)
        view[far] = label(row + 2 * dr, col + 2 * dc)
    return view


def corridor_cells(n: int) -> tuple[tuple[int, int], ...]:
    """Zig-zag diagonal path from (0,0) to (n-1,n-1), kept hole-free.

    Solvable maps share this corridor; holes are sampled everywhere else.
    A shared safe path is what makes unseen maps of the same size tractable
    for a policy that cannot observe the layout.
    """
    cells = [(0, 0)]
    for k in range(n - 1):  # one step right, then one down
        cells += [(k, k + 1), (k + 1, k + 1)]
    return tuple(cells)


# Byte 0/1 of a boolean hole mask to its tile character.
_HOLE_MASK_TILES = bytes.maketrans(b"\0\1", (TileKind.FROZEN.value + _HOLE_CHAR).encode())
# Doubles per draw: candidates are drawn this many cells at a time.
_DRAW_CELLS = 4096


def _hole_masks(rng: np.random.Generator, may_hole: np.ndarray, hole_probability: float):
    """Endless candidate hole masks, ``n*n`` bytes of 0/1 each.

    A candidate's cell is a hole where its uniform double is below
    ``hole_probability`` and ``may_hole`` allows one. The candidates are drawn
    a block at a time, the same doubles in the same order as one
    ``rng.random((n, n))`` each, so the unused tail of the last block leaves
    the maps as they are.
    """
    n = len(may_hole)
    cells = n * n
    block = max(1, _DRAW_CELLS // cells)
    while True:
        holes = rng.random((block, n, n)) < hole_probability
        holes &= may_hole
        masks = holes.tobytes()
        for offset in range(0, len(masks), cells):
            yield masks[offset:offset + cells]


def generate_context_set(
    n: int,
    count: int,
    seed: int,
    solvable: bool = True,
    hole_probability: float = HOLE_PROBABILITY,
) -> ContextSet:
    """Rejection-sample ``count`` distinct maps of size ``n``.

    Solvable sets keep the shared zig-zag corridor hole-free, a 4-neighbour
    path from S to G, so every map is solvable by construction; unsolvable
    sets sample cells independently with no reachability requirement.
    Duplicates are always rejected. Near the number of distinct maps the
    last masks are rare draws, so once ``GENERATION_BUDGET`` candidates in a
    row were duplicates, the rest of the set is drawn at a hole probability
    of 0.5, which gives each mask of the free cells with equal probability;
    a set that never meets such a run keeps the bytes of the plain rejection
    loop. So every count up to the number of distinct maps succeeds.

    Raises ``ValueError``, before any draw, for a size below 2, which no map
    file can hold, a count below 1, a ``hole_probability`` outside [0, 1], or
    a count above the distinct maps there are: 2 to the number of cells that
    may hold a hole, or 1 when ``hole_probability`` is 0 or 1.
    """
    if n < 2:
        raise ValueError(f"grid must be at least 2x2, got {n}")
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    if not 0.0 <= hole_probability <= 1.0:  # false for NaN too
        raise ValueError(f"hole_probability must lie in [0, 1], got {hole_probability}")
    rng = np.random.default_rng(seed)
    may_hole = np.ones((n, n), dtype=bool)
    for row, col in corridor_cells(n) if solvable else ((0, 0), (n - 1, n - 1)):
        may_hole[row, col] = False
    distinct = 1 if hole_probability in (0.0, 1.0) else 1 << int(may_hole.sum())
    if count > distinct:
        raise ValueError(f"count {count} exceeds {distinct}, the number of distinct maps "
                         f"of size {n} (solvable={solvable}, hole_probability={hole_probability})")
    candidates = _hole_masks(rng, may_hole, hole_probability)
    # S and G never hold a hole, so the mask fixes the map: a mask seen before
    # is a duplicate, rejected before any text. Any other mask is accepted; in
    # a solvable set the hole-free corridor already links S to G.
    seen: set[bytes] = set()
    masks: list[bytes] = []
    misses = 0  # duplicates in a row
    while len(masks) < count:
        mask = next(candidates)
        if mask not in seen:
            seen.add(mask)
            masks.append(mask)
            misses = 0
        else:
            misses += 1
            # A later run of misses replaces a uniform stream with another
            # one, which keeps the distribution.
            if misses == GENERATION_BUDGET:
                candidates = _hole_masks(rng, may_hole, 0.5)
    grids = []
    for mask in masks:
        text = mask.translate(_HOLE_MASK_TILES).decode("ascii")
        text = TileKind.START.value + text[1:-1] + _GOAL_CHAR
        grids.append(GridMap(tuple(text[i:i + n] for i in range(0, n * n, n))))
    contexts = tuple(
        Context(id=i, grid=g, split=_split_for_index(i, count)) for i, g in enumerate(grids)
    )
    return ContextSet(size=n, seed=seed, contexts=contexts)


def _split_for_index(index: int, count: int) -> Split:
    third = count // 3
    if index < third:
        return Split.TRAIN
    if index < 2 * third:
        return Split.EVAL
    return Split.TEST


def save_context_set(context_set: ContextSet, path: str) -> None:
    parts = [f"size {context_set.size} seed {context_set.seed} count {context_set.count}\n"]
    for ctx in context_set.contexts:
        parts.append("\n")
        parts.append(ctx.grid.to_text())
    write_atomic(path, "".join(parts))


def load_context_set(path: str) -> ContextSet:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    header, _, body = text.partition("\n")
    tokens = header.split()
    if len(tokens) != 6 or tokens[0] != "size" or tokens[2] != "seed" or tokens[4] != "count":
        raise ValueError(f"malformed context-set header: {header!r}")
    size, seed, count = int(tokens[1]), int(tokens[3]), int(tokens[5])
    blocks = [b for b in body.split("\n\n") if b.strip()]
    if len(blocks) != count:
        raise ValueError(f"context-set file holds {len(blocks)} maps, header says {count}")
    contexts = []
    for i, block in enumerate(blocks):
        grid = GridMap.from_text(block)
        if grid.size != size:
            raise ValueError(f"map {i} has size {grid.size}, header says {size}")
        contexts.append(Context(id=i, grid=grid, split=_split_for_index(i, count)))
    return ContextSet(size=size, seed=seed, contexts=tuple(contexts))
