"""Crash-safe artifact writes, shared by every module that saves a file."""

from __future__ import annotations

import contextlib
import os


def write_atomic(path: str, data: str | bytes) -> None:
    """Write ``data`` (text goes out as UTF-8, newlines untranslated) through a
    temp file beside ``path`` (suffix ``.tmp``, the mode plain ``open`` gives)
    that replaces ``path`` whole or not at all."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
