"""Environment invariants: dynamics, observation encoding, map generation, file I/O."""

import hashlib
from collections import deque

import numpy as np
import pytest
from atomiccheck import assert_writes_atomically
from hypothesis import given
from hypothesis import strategies as st

from askgate import env as env_mod
from askgate.env import (
    DEFAULT_MAX_STEPS,
    GENERATION_BUDGET,
    Action,
    Context,
    ContextSet,
    EDGE_LABEL,
    EnvState,
    GridMap,
    Outcome,
    Split,
    TerminalStateError,
    TileKind,
    _split_for_index,
    corridor_cells,
    encode_observation,
    generate_context_set,
    load_context_set,
    local_view,
    reset,
    save_context_set,
    step,
)

MAP_4 = GridMap(("SFFF", "FHFH", "FFFH", "HFFG"))


def make_context(grid, split=Split.TEST, cid=0):
    return Context(id=cid, grid=grid, split=split)


def independent_bfs(grid):
    """Reference reachability check, written without the module's helper."""
    n = grid.size
    frontier = [(0, 0)]
    seen = {(0, 0)}
    while frontier:
        row, col = frontier.pop()
        if grid.rows[row][col] == "G":
            return True
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            nr, nc = row + dr, col + dc
            if 0 <= nr < n and 0 <= nc < n and (nr, nc) not in seen:
                if grid.rows[nr][nc] != "H":
                    seen.add((nr, nc))
                    frontier.append((nr, nc))
    return False


# ---------------------------------------------------------------------------
# Tiles, actions, grids


def test_action_deltas():
    assert Action.UP.delta == (-1, 0)
    assert Action.DOWN.delta == (1, 0)
    assert Action.LEFT.delta == (0, -1)
    assert Action.RIGHT.delta == (0, 1)
    assert [int(a) for a in Action] == [0, 1, 2, 3]


def test_tile_labels():
    # Prompts name each tile kind by its enum name, and off-grid cells EDGE.
    grid = GridMap(("SFFF", "FHFF", "FFFF", "FFFG"))
    view = local_view(EnvState(make_context(grid), 0, 1, 0, Outcome.RUNNING))
    assert view["left_tile"] == "START"
    assert view["right_tile"] == "FROZEN"
    assert view["down_tile"] == "HOLE"
    assert view["up_tile"] == EDGE_LABEL == "EDGE"
    view = local_view(EnvState(make_context(grid), 3, 2, 0, Outcome.RUNNING))
    assert view["right_tile"] == "GOAL"
    assert [t.name for t in TileKind] == ["START", "FROZEN", "HOLE", "GOAL"]


def test_grid_text_round_trip():
    text = MAP_4.to_text()
    assert text == "SFFF\nFHFH\nFFFH\nHFFG\n"
    assert GridMap.from_text(text) == MAP_4


@pytest.mark.parametrize("rows", [
    ("SFF", "FFF"),              # not square
    ("SF", "FX"),                # invalid character
    ("FF", "FG"),                # S missing from the top-left corner
    ("SF", "FF"),                # G missing from the bottom-right corner
    ("SG", "SG"),                # duplicate S and G
])
def test_grid_validation_rejects(rows):
    with pytest.raises(ValueError):
        GridMap.from_text("\n".join(rows))


# ---------------------------------------------------------------------------
# Dynamics


def test_reset_starts_top_left():
    state = reset(make_context(MAP_4))
    assert (state.row, state.col, state.step_count) == (0, 0, 0)
    assert state.outcome is Outcome.RUNNING and not state.done


def test_observation_is_one_hot_of_start():
    state = reset(make_context(MAP_4))
    obs = encode_observation(state)
    assert obs.shape == (64,)
    assert obs.sum() == 1.0 and obs[0] == 1.0


def test_observation_indexes_row_major():
    # 4x4 agent at (1, 1) -> index 1*4 + 1 = 5 in the 64-dim vector
    state = reset(make_context(MAP_4))
    state, _, _ = step(state, Action.DOWN)   # (1,0) is FROZEN
    state, _, _ = step(state, Action.RIGHT)  # (1,1) is HOLE but encoding is position-only
    obs = encode_observation(state)
    assert int(np.argmax(obs)) == 5 and obs[5] == 1.0


def test_observation_dim_overflow_raises():
    big = generate_context_set(9, 1, 0).contexts[0]
    state = reset(big)
    for _ in range(8):
        state, _, _ = step(state, Action.DOWN)
    with pytest.raises(ValueError):
        encode_observation(state, dim=64)  # index 72 > 63


def test_out_of_bounds_moves_are_no_ops_but_count():
    state = reset(make_context(MAP_4))
    state, reward, done = step(state, Action.UP)
    assert (state.row, state.col) == (0, 0)
    assert reward == 0 and not done and state.step_count == 1
    state, _, _ = step(state, Action.LEFT)
    assert (state.row, state.col) == (0, 0) and state.step_count == 2


def test_goal_gives_reward_one_and_ends():
    state = reset(make_context(MAP_4))
    path = [Action.DOWN, Action.DOWN, Action.RIGHT, Action.RIGHT, Action.DOWN, Action.RIGHT]
    rewards = []
    for action in path:
        state, reward, done = step(state, action)
        rewards.append(reward)
    assert state.outcome is Outcome.GOAL and done
    assert rewards == [0, 0, 0, 0, 0, 1]


def test_hole_ends_with_zero_reward():
    state = reset(make_context(MAP_4))
    state, _, _ = step(state, Action.DOWN)
    state, reward, done = step(state, Action.RIGHT)  # (1,1) is H
    assert state.outcome is Outcome.HOLE and done and reward == 0


def test_truncation_at_step_cap():
    state = reset(make_context(MAP_4))
    for i in range(100):
        state, reward, done = step(state, Action.UP)
        assert reward == 0
    assert done and state.outcome is Outcome.TRUNCATED and state.step_count == 100


def test_goal_beats_truncation_on_the_last_step():
    state = reset(make_context(MAP_4))
    seq = [Action.DOWN, Action.DOWN, Action.RIGHT, Action.RIGHT, Action.DOWN, Action.RIGHT]
    for action in seq[:-1]:
        state, _, _ = step(state, action, max_steps=6)
    state, reward, done = step(state, seq[-1], max_steps=6)
    assert state.outcome is Outcome.GOAL and reward == 1 and done


def test_stepping_a_finished_episode_raises():
    state = reset(make_context(MAP_4))
    for action in [Action.DOWN, Action.DOWN, Action.RIGHT, Action.RIGHT,
                   Action.DOWN, Action.RIGHT]:
        state, _, _ = step(state, action)
    with pytest.raises(TerminalStateError):
        step(state, Action.UP)


def test_deterministic_replay():
    actions = [Action.DOWN, Action.UP, Action.RIGHT, Action.RIGHT, Action.DOWN]
    traces = []
    for _ in range(2):
        state = reset(make_context(MAP_4))
        trace = []
        for action in actions:
            state, reward, done = step(state, action)
            trace.append((state.row, state.col, reward, done, state.outcome))
            if done:
                break
        traces.append(trace)
    assert traces[0] == traces[1]


def tile_at(grid, row, col):
    """The tile at a cell as a ``TileKind``, the way the first oracles read maps."""
    return TileKind(grid.rows[row][col])


def in_bounds(grid, row, col):
    return 0 <= row < grid.size and 0 <= col < grid.size


def reference_step(state, action, max_steps=DEFAULT_MAX_STEPS):
    """The step function as first written: TileKind reads and ``_replace``."""
    if state.done:
        raise TerminalStateError(f"episode already ended with outcome {state.outcome.value}")
    grid = state.context.grid
    dr, dc = action.delta
    row, col = state.row + dr, state.col + dc
    if not in_bounds(grid, row, col):
        row, col = state.row, state.col
    steps = state.step_count + 1
    tile = tile_at(grid, row, col)
    if tile is TileKind.GOAL:
        outcome = Outcome.GOAL
    elif tile is TileKind.HOLE:
        outcome = Outcome.HOLE
    elif steps >= max_steps:
        outcome = Outcome.TRUNCATED
    else:
        outcome = Outcome.RUNNING
    next_state = state._replace(row=row, col=col, step_count=steps, outcome=outcome)
    reward = 1 if outcome is Outcome.GOAL else 0
    return next_state, reward, next_state.done


@pytest.mark.parametrize("size", [4, 6, 8])
def test_step_matches_the_reference_on_every_cell_action_and_context(size):
    for context in generate_context_set(size, 300, 7).contexts:
        for row in range(size):
            for col in range(size):
                for step_count in (0, DEFAULT_MAX_STEPS - 1):
                    state = EnvState(context, row, col, step_count, Outcome.RUNNING)
                    for action in Action:
                        got = step(state, action)
                        want = reference_step(state, action)
                        assert got == want
                        assert [type(x) for x in got] == [EnvState, int, bool]
    for outcome in (Outcome.GOAL, Outcome.HOLE, Outcome.TRUNCATED):
        done = EnvState(context, size - 1, size - 1, 3, outcome)
        with pytest.raises(TerminalStateError, match=outcome.value):
            step(done, Action.UP)


# ---------------------------------------------------------------------------
# Local symbolic view


def test_local_view_reports_neighbors_and_edges():
    state = reset(make_context(MAP_4))
    view = local_view(state)
    assert (view["agent_row"], view["agent_col"]) == (0, 0)
    assert (view["goal_row"], view["goal_col"]) == (3, 3)
    assert view["up_tile"] == "EDGE" and view["left_tile"] == "EDGE"
    assert view["down_tile"] == "FROZEN" and view["right_tile"] == "FROZEN"
    assert view["up_up_tile"] == "EDGE"
    assert view["down_down_tile"] == "FROZEN"  # (2,0)
    assert view["right_right_tile"] == "FROZEN"  # (0,2)


def test_local_view_sees_goal_two_cells_away():
    # Agent two cells left of G: right_right reads GOAL.
    grid = GridMap(("SFFF", "FFFF", "FFFF", "FFFG"))
    state = reset(make_context(grid))
    for action in [Action.DOWN, Action.DOWN, Action.DOWN, Action.RIGHT]:
        state, _, _ = step(state, action)
    assert (state.row, state.col) == (3, 1)
    view = local_view(state)
    assert view["right_right_tile"] == "GOAL"
    assert view["right_tile"] == "FROZEN"
    assert view["down_tile"] == "EDGE"


def reference_view(grid, row, col):
    def label(r, c):
        return tile_at(grid, r, c).name if in_bounds(grid, r, c) else EDGE_LABEL

    n = grid.size
    view = {"agent_row": row, "agent_col": col, "goal_row": n - 1, "goal_col": n - 1}
    for action in Action:
        dr, dc = action.delta
        name = action.name.lower()
        view[f"{name}_tile"] = label(row + dr, col + dc)
        view[f"{name}_{name}_tile"] = label(row + 2 * dr, col + 2 * dc)
    return view


@pytest.mark.parametrize("size", [4, 6, 8])
def test_local_view_matches_the_tile_reference_on_every_cell(size):
    for ctx in generate_context_set(size, 5, 3, hole_probability=0.4).contexts:
        for row in range(size):
            for col in range(size):
                view = local_view(EnvState(ctx, row, col, 0, Outcome.RUNNING))
                expected = reference_view(ctx.grid, row, col)
                assert list(view.items()) == list(expected.items())  # key order too


# ---------------------------------------------------------------------------
# Generation and persistence


def test_corridor_runs_corner_to_corner():
    for n in (4, 6, 8):
        cells = corridor_cells(n)
        assert cells[0] == (0, 0) and cells[-1] == (n - 1, n - 1)
        assert len(cells) == 2 * (n - 1) + 1  # shortest path length + 1
        for (r0, c0), (r1, c1) in zip(cells, cells[1:]):
            assert abs(r1 - r0) + abs(c1 - c0) == 1


def reference_corridor_cells(n):
    """The corridor as first written, with edge guards a square grid never trips."""
    cells = [(0, 0)]
    row, col = 0, 0
    move_right = True
    while (row, col) != (n - 1, n - 1):
        if move_right and col < n - 1:
            col += 1
        elif row < n - 1:
            row += 1
        else:
            col += 1
        move_right = not move_right
        cells.append((row, col))
    return tuple(cells)


def test_corridor_matches_the_guarded_reference():
    for n in range(2, 17):
        assert corridor_cells(n) == reference_corridor_cells(n)


def test_generated_maps_are_solvable_and_distinct():
    cs = generate_context_set(4, 3, 7)
    assert cs.count == 3 and cs.size == 4 and cs.seed == 7
    assert len({c.grid.rows for c in cs.contexts}) == 3
    for ctx in cs.contexts:
        assert independent_bfs(ctx.grid)


# Counts a solvable set of size n can always reach: a 2x2 grid has one cell
# off the corridor, so 2 maps; a 3x3 grid has 4, so 16, the rarest of them
# drawn once in 625 candidates.
MAX_SOLVABLE_COUNT = {2: 2, 3: 8}


@st.composite
def solvable_set_requests(draw):
    n = draw(st.integers(2, 8))
    count = draw(st.integers(1, MAX_SOLVABLE_COUNT.get(n, 40)))
    return n, count, draw(st.integers(0, 2**32 - 1))


@given(solvable_set_requests())
def test_every_solvable_map_keeps_the_corridor_open_and_reaches_g(request):
    # The generator checks no reachability: the hole-free corridor is what
    # makes each map of a solvable set solvable.
    n, count, seed = request
    cs = generate_context_set(n, count, seed)
    assert cs.count == count
    corridor = corridor_cells(n)
    for ctx in cs.contexts:
        assert all(ctx.grid.rows[row][col] != "H" for row, col in corridor)
        assert independent_bfs(ctx.grid)


def test_generation_is_seed_deterministic():
    a = generate_context_set(6, 12, 3)
    b = generate_context_set(6, 12, 3)
    assert [c.grid.rows for c in a.contexts] == [c.grid.rows for c in b.contexts]


def test_split_assignment_by_thirds():
    cs = generate_context_set(4, 9, 0)
    splits = [c.split for c in cs.contexts]
    assert splits == [Split.TRAIN] * 3 + [Split.EVAL] * 3 + [Split.TEST] * 3
    assert [c.id for c in cs.split(Split.EVAL)] == [3, 4, 5]


def test_hole_probability_extremes():
    none = generate_context_set(4, 1, 0, solvable=False, hole_probability=0.0)
    assert none.contexts[0].grid.rows == ("SFFF", "FFFF", "FFFF", "FFFG")
    full = generate_context_set(4, 1, 0, solvable=False, hole_probability=1.0)
    assert full.contexts[0].grid.rows == ("SHHH", "HHHH", "HHHH", "HHHG")


def test_unsolvable_sampling_skips_corridor_and_bfs():
    cs = generate_context_set(5, 40, 11, solvable=False, hole_probability=0.5)
    assert any(not independent_bfs(c.grid) for c in cs.contexts)


def reference_bfs_solvable(grid):
    """The generator's reachability check as first written, on ``TileKind`` reads."""
    n = grid.size
    seen = {(0, 0)}
    queue = deque([(0, 0)])
    while queue:
        row, col = queue.popleft()
        if tile_at(grid, row, col) is TileKind.GOAL:
            return True
        for action in Action:
            dr, dc = action.delta
            nr, nc = row + dr, col + dc
            if (nr, nc) in seen or not in_bounds(grid, nr, nc):
                continue
            if tile_at(grid, nr, nc) is TileKind.HOLE:
                continue
            seen.add((nr, nc))
            queue.append((nr, nc))
    return False


def reachable(grid):
    """The answer of both reachability oracles on ``grid``, once they agree:
    ``independent_bfs`` backs the corridor property, ``reference_bfs_solvable``
    the per-candidate generation reference."""
    want = reference_bfs_solvable(grid)
    assert independent_bfs(grid) is want, grid.rows
    return want


def grid_of(cells):
    cells[0][0], cells[-1][-1] = "S", "G"
    return GridMap(tuple("".join(row) for row in cells))


def serpentine(n):
    """``n`` of the form 4k + 1: full even rows joined by one open cell per odd
    row, at the right and left ends in turn, so every open cell lies on the one
    path from S to G, about n*n/2 cells long."""
    cells = [["F"] * n if row % 2 == 0 else ["H"] * n for row in range(n)]
    for row in range(1, n, 2):
        cells[row][n - 1 if row % 4 == 1 else 0] = "F"
    return cells


@pytest.mark.parametrize("n", [5, 9, 13])
def test_bfs_follows_a_single_serpentine_path(n):
    cells = serpentine(n)
    assert reachable(grid_of(cells)) is True
    path = [(r, c) for r in range(n) for c in range(n) if cells[r][c] != "H"]  # S first, G last
    assert len(path) == n * (n + 1) // 2 + (n - 1) // 2
    for row, col in path[1:-1]:  # S and G stay, every other path cell blocks
        blocked = [list(line) for line in cells]
        blocked[row][col] = "H"
        assert reachable(grid_of(blocked)) is False, (row, col)


@pytest.mark.parametrize("n", range(2, 13))
def test_bfs_on_open_and_walled_off_maps(n):
    assert reachable(grid_of([["F"] * n for _ in range(n)])) is True
    walled = [["F"] * n for _ in range(n)]
    walled[n - 2][n - 1] = walled[n - 1][n - 2] = "H"  # both neighbours of G
    assert reachable(grid_of(walled)) is False
    if n > 2:
        # An anti-diagonal wall of holes: a diagonal step would cross it,
        # a single gap lets the walk through.
        wall = [["H" if row + col == n - 1 else "F" for col in range(n)] for row in range(n)]
        assert reachable(grid_of(wall)) is False
        wall[n // 2][n - 1 - n // 2] = "F"
        assert reachable(grid_of(wall)) is True


# sha256 of ``save_context_set(generate_context_set(n, count, seed, solvable))``,
# recorded from the generator's first implementation.
PINNED_CONTEXT_SETS = [
    (4, 300, 7, True, "5520009ec9cb88cb60dab48c0c213af5a3792c0d4d83fdf278e9ad458709b675"),
    (6, 300, 7, True, "ce93398f8a7f45f09a83db0da5c678d3bcf859c8b23e97bb7ea0edce888569e8"),
    (8, 300, 7, True, "4716417492ccf9d75d588e1778e0f9540e1792a334122bcd52bbe4a118dc632f"),
    (6, 300, 3, False, "d96380b8168ebef56023eed1493cf0fe443b1840f5c4e5d886922988f02ad60c"),
]


@pytest.mark.parametrize("n, count, seed, solvable, digest", PINNED_CONTEXT_SETS)
def test_context_set_bytes_are_pinned(tmp_path, n, count, seed, solvable, digest):
    path = tmp_path / "ctx.txt"
    save_context_set(generate_context_set(n, count, seed, solvable=solvable), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_generation_rejects_sizes_below_two():
    for n in (1, 0, -2):
        for solvable in (True, False):
            with pytest.raises(ValueError, match="at least 2x2"):
                generate_context_set(n, 1, 0, solvable=solvable)


def test_generation_rejects_counts_below_one():
    # A count of 0 or less used to give an empty set that no command accepts.
    for count in (0, -5):
        for solvable in (True, False):
            with pytest.raises(ValueError, match="count must be at least 1, got"):
                generate_context_set(4, count, 0, solvable=solvable)


def test_generation_rejects_hole_probabilities_outside_the_unit_interval():
    # These used to run the attempt budget out at the second map.
    for p in (float("nan"), -0.5, 1.5, float("inf")):
        for solvable in (True, False):
            with pytest.raises(ValueError, match="hole_probability must lie in"):
                generate_context_set(4, 3, 0, solvable=solvable, hole_probability=p)


def reference_sample_grid(n, rng, may_hole, hole_probability):
    """One map from one ``rng.random((n, n))`` draw, as the generator first did."""
    holes = rng.random((n, n)) < hole_probability
    holes &= may_hole
    text = holes.tobytes().translate(bytes.maketrans(b"\0\1", b"FH")).decode("ascii")
    text = "S" + text[1:-1] + "G"
    return GridMap(tuple(text[i:i + n] for i in range(0, n * n, n)))


class ReferenceExhausted(Exception):
    """The reference ran a map out of its budget; the one argument holds the
    maps it drew before that."""


def reference_generate_context_set(n, count, seed, solvable=True, hole_probability=0.2):
    """``generate_context_set`` as written before the block draw: one draw,
    one ``GridMap`` and one BFS per candidate, deduplicated on the rows. A
    map that runs out of its budget raises :class:`ReferenceExhausted`."""
    rng = np.random.default_rng(seed)
    may_hole = np.ones((n, n), dtype=bool)
    for row, col in corridor_cells(n) if solvable else ((0, 0), (n - 1, n - 1)):
        may_hole[row, col] = False
    seen = set()
    grids = []
    while len(grids) < count:
        for _ in range(GENERATION_BUDGET):
            grid = reference_sample_grid(n, rng, may_hole, hole_probability)
            if grid.rows in seen:
                continue
            if solvable and not reference_bfs_solvable(grid):
                continue
            seen.add(grid.rows)
            grids.append(grid)
            break
        else:
            raise ReferenceExhausted(grids)
    contexts = tuple(
        Context(id=i, grid=g, split=_split_for_index(i, count)) for i, g in enumerate(grids)
    )
    return ContextSet(size=n, seed=seed, contexts=contexts)


def saved_bytes(context_set, path):
    save_context_set(context_set, str(path))
    return path.read_bytes()


@pytest.mark.parametrize("n", range(2, 10))
def test_generation_matches_the_per_candidate_reference(tmp_path, n):
    # Counts that end inside the first block (1, 7) and after several (300);
    # a probability of 0 or 1 leaves one map per size, so those ask for one.
    # At 1e-9 the budget runs out at the second map.
    path = tmp_path / "ctx.txt"
    cases = [(count, seed, solvable, p)
             for solvable in (True, False)
             for p in (0.2, 0.5)
             for count, seed in ((1, 0), (7, 3), (300, 7))]
    cases += [(1, 5, solvable, p) for solvable in (True, False) for p in (0.0, 1.0)]
    cases += [(2, 0, solvable, 1e-9) for solvable in (True, False)]
    for count, seed, solvable, p in cases:
        if count > 2 ** (n * n - (2 * n - 1 if solvable else 2)):
            # More maps than the size has: refused before any draw.
            with pytest.raises(ValueError, match=f"count {count} exceeds"):
                generate_context_set(n, count, seed, solvable=solvable, hole_probability=p)
            continue
        got = generate_context_set(n, count, seed, solvable=solvable, hole_probability=p)
        try:
            want = saved_bytes(reference_generate_context_set(n, count, seed, solvable, p), path)
        except ReferenceExhausted as exc:
            # The maps up to the one that ran out are the reference's.
            (want_grids,) = exc.args
            assert 0 < len(want_grids) < count
            drawn = [c.grid for c in got.contexts[:len(want_grids)]]
            assert drawn == want_grids, (count, seed, solvable, p)
            continue
        assert saved_bytes(got, path) == want, (count, seed, solvable, p)


# Counts whose budget runs out, with the sha256 of their saved set, recorded
# when uniform draws first completed them.
BUDGET_SHORT_SETS = [
    # every 3x3 unsolvable map there is; the budget ran out at map 126
    ((3, 128, 0), {"solvable": False},
     "695f55cbc794d25014fc01eaac07adc9c16db784541096ff2c0878985a7b064c"),
    # every 4x4 solvable map; ran out at map 476
    ((4, 512, 0), {}, "1e0f542f917c231cd1ecae1e2e9ad088c803e9f70ed2c866232157834cf0cfc4"),
    ((4, 2, 0), {"solvable": False, "hole_probability": 1e-9},
     "8b6d379b6f2e780118b76774cbed081711494c2d9ab4b0c3e9fd1c71722fa5d4"),
    ((2, 2, 0), {"hole_probability": 1e-9},
     "e3670e1eb1ed25b72113ec3d45899f4adc4aac2184347f019731dd32157644e3"),
    # more masks than a list could hold: 2**25 and 2**34 on 6x6, 2**49 on 8x8
    ((6, 2, 0), {"hole_probability": 1e-9},
     "91f3659b946ae93eb73df3529500b340ce33e03d52db92a5110832f6ce0724e9"),
    ((6, 2, 0), {"solvable": False, "hole_probability": 1e-9},
     "9635a89fce6f77c250632adb160a3f16fb2a89cdc21d3f1a089c550228e23fbb"),
    ((8, 50, 0), {"hole_probability": 1e-9},
     "32e1710bd984252cfa9a2587abbb090cb58f11e635a13dfb9cb064cd219170c0"),
]


def count_streams(monkeypatch):
    """The hole probability of each candidate stream ``generate_context_set``
    starts, in order, in a list that grows as it runs."""
    streams = []
    real = env_mod._hole_masks

    def counted(rng, may_hole, hole_probability):
        streams.append(hole_probability)
        return real(rng, may_hole, hole_probability)

    monkeypatch.setattr(env_mod, "_hole_masks", counted)
    return streams


@pytest.mark.parametrize("args, kwargs, digest", BUDGET_SHORT_SETS,
                         ids=["3x3-unsolvable-128", "4x4-512", "4x4-unsolvable-p1e-9", "2x2-p1e-9",
                              "6x6-p1e-9", "6x6-unsolvable-p1e-9", "8x8-50-p1e-9"])
def test_a_count_the_budget_cannot_meet_takes_the_rest_from_the_unseen_masks(tmp_path, monkeypatch,
                                                                              args, kwargs, digest):
    streams = count_streams(monkeypatch)
    got = generate_context_set(*args, **kwargs)
    grids = [c.grid for c in got.contexts]
    assert len({g.rows for g in grids}) == len(grids) == args[1]
    if kwargs.get("solvable", True):
        assert all(reference_bfs_solvable(g) for g in grids)
    # The set's own stream, then uniform draws once a map ran out.
    assert len(streams) >= 2 and set(streams[1:]) == {0.5}
    assert hashlib.sha256(saved_bytes(got, tmp_path / "ctx.txt")).hexdigest() == digest


def test_a_count_the_budget_meets_keeps_its_bytes(tmp_path, monkeypatch):
    # Near the limit but inside the budget, the maps are the reference's,
    # and the set draws from its own stream alone.
    streams = count_streams(monkeypatch)
    for args, kwargs in (((3, 100, 0), {"solvable": False}), ((4, 400, 0), {}),
                         ((3, 16, 4), {}), ((2, 2, 0), {})):
        want = saved_bytes(reference_generate_context_set(*args, **kwargs), tmp_path / "want.txt")
        streams.clear()
        got = saved_bytes(generate_context_set(*args, **kwargs), tmp_path / "got.txt")
        assert got == want, (args, kwargs)
        assert streams == [0.2], (args, kwargs)


def test_a_count_above_the_distinct_maps_is_refused_before_any_draw(monkeypatch):
    # 16 solvable 3x3 maps exist (2**(9 - 5) free cells), 128 unsolvable ones
    # (2**(9 - 2)), and one at a hole probability of 0 or 1.
    for seed in range(20):
        assert len(generate_context_set(3, 16, seed).contexts) == 16

    def no_draw(*args):
        raise AssertionError("drew a candidate")

    monkeypatch.setattr(env_mod, "_hole_masks", no_draw)
    for args, kwargs, limit in (((3, 17, 0), {}, 16),
                                ((3, 129, 0), {"solvable": False}, 128),
                                ((5, 2, 0), {"hole_probability": 0.0}, 1),
                                ((5, 2, 0), {"hole_probability": 1.0, "solvable": False}, 1)):
        with pytest.raises(ValueError, match=rf"count {args[1]} exceeds {limit}, the number "
                                             rf"of distinct maps of size {args[0]} "):
            generate_context_set(*args, **kwargs)


def test_context_set_file_round_trip(tmp_path):
    cs = generate_context_set(6, 9, 5)
    path = tmp_path / "ctx.txt"
    save_context_set(cs, str(path))
    text = path.read_text()
    assert text.startswith("size 6 seed 5 count 9\n")
    loaded = load_context_set(str(path))
    assert loaded.size == cs.size and loaded.seed == cs.seed
    assert [c.grid.rows for c in loaded.contexts] == [c.grid.rows for c in cs.contexts]
    assert [c.split for c in loaded.contexts] == [c.split for c in cs.contexts]


def test_interrupted_context_set_write_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "ctx.txt"
    save_context_set(generate_context_set(4, 6, 1), str(path))
    other = generate_context_set(4, 6, 2)
    assert_writes_atomically(monkeypatch, path, lambda: save_context_set(other, str(path)))
    assert [c.grid for c in load_context_set(str(path)).contexts] == [c.grid for c in other.contexts]


@pytest.mark.parametrize("mangle", [
    lambda t: t.replace("size 6", "dimension 6"),
    lambda t: t.replace("count 9", "count 8"),
    lambda t: t.replace("size 6", "size 5"),
])
def test_context_set_file_rejects_corruption(tmp_path, mangle):
    cs = generate_context_set(6, 9, 5)
    path = tmp_path / "ctx.txt"
    save_context_set(cs, str(path))
    path.write_text(mangle(path.read_text()))
    with pytest.raises(ValueError):
        load_context_set(str(path))
