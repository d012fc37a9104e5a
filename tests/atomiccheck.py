"""Checks that an artifact writer replaces its file whole or not at all."""

import os

import pytest

from askgate import atomic as atomic_mod


class _StopsHalfway:
    """A file that takes half of the data it is given, then is interrupted."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise KeyboardInterrupt


def assert_writes_atomically(monkeypatch, path, write_new):
    """``write_new()`` rewrites ``path``, which exists. Interrupted halfway
    through its data, or refused at the final rename, it leaves the old bytes
    and no temp file beside them; let through, it changes the file."""
    before = path.read_bytes()
    listing = sorted(os.listdir(path.parent))
    real_open = open

    def refuse(src, dst):
        raise OSError("disk full")

    with monkeypatch.context() as patch:
        patch.setattr(atomic_mod, "open", lambda *a, **k: _StopsHalfway(real_open(*a, **k)),
                      raising=False)
        with pytest.raises(KeyboardInterrupt):
            write_new()
    assert path.read_bytes() == before
    assert sorted(os.listdir(path.parent)) == listing
    with monkeypatch.context() as patch:
        patch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            write_new()
    assert path.read_bytes() == before
    assert sorted(os.listdir(path.parent)) == listing
    write_new()
    assert path.read_bytes() != before
    assert sorted(os.listdir(path.parent)) == listing
