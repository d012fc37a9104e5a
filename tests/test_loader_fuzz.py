"""Loaders on damaged files: truncated and byte-flipped copies of a context
set, a weights file and an episode CSV, and episode CSVs with ragged rows.

Each loader either returns or raises its own error type: ``load_context_set``
and ``read_csv`` only ``ValueError`` (``UnicodeDecodeError`` included),
``load_weights`` only ``WeightsError`` subclasses. A weights file written
from a shape list near a policy's layout either raises ``WeightsError`` or
loads to a policy that saves to the same bytes. ``report --trajectory``
takes any JSON value under each config key it reads and exits 0 or 2. The
files are small, and a one-second deadline per example stands in for "never
hangs".
"""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from askgate.cli import EXIT_OK, EXIT_RUNTIME, main
from askgate.env import (
    GridMap,
    Split,
    generate_context_set,
    load_context_set,
    save_context_set,
)
from askgate.gate import GateConfig, RunMode, csv_text, read_csv, run_batch, write_episode_csv
from askgate.lm import RuleClient
from askgate.policy import (
    WEIGHTS_MAGIC,
    WEIGHTS_VERSION,
    WeightsError,
    init_policy,
    load_weights,
    save_weights,
)

FUZZ = settings(max_examples=200, deadline=1000,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

# Bytes that mean something to one of the formats, besides any byte at all.
SPECIAL_BYTES = list(b"\n\r\0 ,\"-.0123456789SFHG{}[]:#e\x7f\x80\xc3\xff")


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """Bytes of one small file of each format."""
    root = tmp_path_factory.mktemp("originals")
    context_set = generate_context_set(4, 3, 7)
    ctx_path = str(root / "ctx.txt")
    save_context_set(context_set, ctx_path)
    weights_path = str(root / "w.bin")
    save_weights(init_policy(input_dim=16, hidden=(3,), seed=0), weights_path)
    policy = init_policy(input_dim=16, hidden=(8,), seed=1)
    records = run_batch(policy, RuleClient(), context_set.contexts[:2],
                        GateConfig(tau=0.3, passes=5, mode=RunMode.ASK, seed=2),
                        total_episodes=2)
    csv_path = str(root / "episodes.csv")
    write_episode_csv(records, csv_path, {"cmd": "run", "contexts": "ctx.txt", "size": 4})
    blobs = {}
    for name, path in (("contexts", ctx_path), ("weights", weights_path), ("csv", csv_path)):
        with open(path, "rb") as fh:
            blobs[name] = fh.read()
    return blobs


LOADERS = {
    "contexts": (load_context_set, ValueError),
    "weights": (load_weights, WeightsError),
    "csv": (read_csv, ValueError),
}


@st.composite
def damage(draw, blob):
    """A truncated copy, or one with one to four bytes replaced."""
    if draw(st.booleans()):
        return blob[:draw(st.integers(0, len(blob) - 1))]
    out = bytearray(blob)
    byte = st.one_of(st.integers(0, 255), st.sampled_from(SPECIAL_BYTES))
    for _ in range(draw(st.integers(1, 4))):
        out[draw(st.integers(0, len(blob) - 1))] = draw(byte)
    return bytes(out)


def load_damaged(path, name, blob):
    loader, allowed = LOADERS[name]
    path.write_bytes(blob)
    try:
        loaded = loader(str(path))
    except allowed:
        return
    if name == "contexts":  # what loads is a valid set: each map re-validates
        for ctx in loaded.contexts:
            assert GridMap.from_text(ctx.grid.to_text()) == ctx.grid
            assert ctx.grid.size == loaded.size


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_the_originals_load(tmp_path, originals, name):
    loader, _ = LOADERS[name]
    path = tmp_path / name
    path.write_bytes(originals[name])
    loader(str(path))


@pytest.mark.parametrize("name", sorted(LOADERS))
@FUZZ
@given(data=st.data())
def test_a_damaged_file_raises_only_the_loaders_own_error(tmp_path, originals, name, data):
    blob = data.draw(damage(originals[name]), label="blob")
    load_damaged(tmp_path / name, name, blob)


@FUZZ
@given(data=st.data())
def test_a_ragged_episode_row_is_a_value_error(tmp_path, originals, data):
    lines = originals["csv"].decode("utf-8").split("\n")
    rows = range(2, len(lines) - 1)  # after the config and header lines
    index = data.draw(st.sampled_from(rows), label="row")
    fields = lines[index].split(",")
    if data.draw(st.booleans(), label="drop"):
        del fields[data.draw(st.integers(0, len(fields) - 1), label="field")]
    else:
        fields.insert(data.draw(st.integers(0, len(fields)), label="at"), "x")
    lines[index] = ",".join(fields)
    path = tmp_path / "ragged.csv"
    path.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(ValueError, match="fields, the header"):
        read_csv(str(path))


@st.composite
def weight_shapes(draw):
    """The (rows, cols) of each array of a layout of 1-3 hidden layers, each
    dimension 1-5, with up to two of them moved by one."""
    widths = draw(st.lists(st.integers(1, 5), min_size=2, max_size=4))
    shapes = []
    for fan_in, fan_out in zip(widths, widths[1:]):
        shapes += [[fan_in, fan_out], [1, fan_out]]
    shapes += [[widths[-1], 4], [1, 4], [widths[-1], 1], [1, 1]]
    for _ in range(draw(st.integers(0, 2))):
        shape = shapes[draw(st.integers(0, len(shapes) - 1))]
        axis = draw(st.integers(0, 1))
        shape[axis] = max(1, shape[axis] + draw(st.sampled_from([-1, 1])))
    return shapes


@FUZZ
@given(shapes=weight_shapes(), seed=st.integers(0, 2**32 - 1))
def test_a_weights_file_of_any_shapes_loads_to_its_own_bytes_or_is_refused(
        tmp_path, shapes, seed):
    rng = np.random.default_rng(seed)
    parts = [WEIGHTS_MAGIC, struct.pack("<II", WEIGHTS_VERSION, len(shapes))]
    for rows, cols in shapes:
        parts.append(struct.pack("<II", rows, cols))
        parts.append(rng.standard_normal(rows * cols).astype("<f8").tobytes())
    blob = b"".join(parts)
    path, copy = tmp_path / "w.bin", tmp_path / "copy.bin"
    path.write_bytes(blob)
    try:
        policy = load_weights(str(path))
    except WeightsError:
        return
    save_weights(policy, str(copy))
    assert copy.read_bytes() == blob


@pytest.fixture(scope="module")
def trajectory(tmp_path_factory):
    """``(config, header, rows)`` of an episode CSV whose trajectories replay."""
    root = tmp_path_factory.mktemp("trajectory")
    context_set = generate_context_set(4, 10, 7)
    ctx_path = str(root / "ctx.txt")
    save_context_set(context_set, ctx_path)
    cfg = GateConfig(tau=0.3, passes=5, mode=RunMode.ASK, seed=2)
    records = run_batch(init_policy(input_dim=16, hidden=(8,), seed=1), RuleClient(),
                        context_set.split(Split.TEST), cfg, total_episodes=2)
    csv_path = str(root / "episodes.csv")
    write_episode_csv(records, csv_path, {"cmd": "run", "contexts": ctx_path, "size": 4,
                                          "split": "test", "max_steps": cfg.max_steps})
    return read_csv(csv_path)


def test_the_unchanged_trajectory_replays(tmp_path, trajectory):
    config, header, rows = trajectory
    path = tmp_path / "episodes.csv"
    path.write_text(csv_text(header, rows, config), encoding="utf-8")
    assert main(["report", "--trajectory", str(path), "--episode", "0"]) == EXIT_OK


# Any value json.loads returns, NaN and the infinities included, besides
# values close to the ones a run records.
JSON_VALUES = st.one_of(
    st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner,
                                                                    max_size=3),
        max_leaves=6),
    st.sampled_from([0, -1, 1, 3, 4, 5, 100, 4.0, "4", "test", "eval", "train", "", "."]),
)


@pytest.mark.parametrize("key", ["contexts", "size", "split", "max_steps"])
@FUZZ
@given(value=JSON_VALUES)
def test_report_trajectory_exits_0_or_2_whatever_a_config_key_holds(
        tmp_path, monkeypatch, trajectory, key, value):
    config, header, rows = trajectory
    monkeypatch.chdir(tmp_path)  # a string under "contexts" is a path from here
    path = tmp_path / "episodes.csv"
    path.write_text(csv_text(header, rows, {**config, key: value}), encoding="utf-8")
    assert main(["report", "--trajectory", str(path), "--episode", "0"]) in (EXIT_OK, EXIT_RUNTIME)
