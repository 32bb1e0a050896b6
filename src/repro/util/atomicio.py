"""Crash-safe file writes: write-temp + fsync + rename.

Every artifact the toolchain persists for later runs to trust — bench
snapshots, fault-script reproducer archives, model calibrations — must
never be observable half-written.  A plain
``open(path, "w").write(...)`` can tear on crash or power loss, leaving a
truncated JSON document at the final path.  The pattern here is the
standard durable-replace discipline:

1. write the full content to a temporary file *in the same directory*
   (so the final rename cannot cross filesystems),
2. flush and ``fsync`` the temporary file,
3. ``os.replace`` it over the destination (atomic on POSIX),
4. best-effort ``fsync`` the containing directory so the rename itself
   is durable.

Readers therefore see either the old content or the new content in full,
never a prefix.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

__all__ = ["atomic_write_bytes", "atomic_write_text", "atomic_write_json",
           "fsync_path", "fsync_dir"]


def fsync_path(path: str | Path) -> None:
    """Flush one file's content to stable storage (best effort)."""
    fd = os.open(str(path), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def fsync_dir(path: str | Path) -> None:
    """Durably record a directory entry change (rename/create); best effort.

    Some filesystems refuse to fsync a directory fd — that only weakens
    durability of the *rename*, never atomicity, so failures are ignored.
    """
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Atomically replace ``path`` with ``data`` (write-temp+fsync+rename)."""
    path = Path(path)
    if path.parent != Path():
        path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp",
                               dir=str(path.parent) or ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    fsync_dir(path.parent)


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_json(path: str | Path, doc, *, indent: int = 2,
                      sort_keys: bool = True) -> None:
    """Atomically write ``doc`` as newline-terminated JSON.

    Byte-compatible with the previous plain writes across the repo
    (``json.dumps(..., indent=N, sort_keys=True) + "\\n"``), so artifacts
    CI compares with ``cmp`` are unchanged — only the write became atomic.
    """
    atomic_write_text(
        path, json.dumps(doc, indent=indent, sort_keys=sort_keys) + "\n"
    )
