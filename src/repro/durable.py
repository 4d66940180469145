"""Atomic publish, quarantine and wipe for every on-disk artifact.

The sweep journal (shard results, checkpoint), the fabric's lease
heartbeats, the evaluation cache, the calibration cache and the plan
cache all persist whole files that readers may open at any instant.
They share one discipline, kept here so it exists once:

* :func:`publish` — write a private temp file in the target directory,
  ``fsync`` it, and ``os.replace`` it over the target: a reader sees the
  old bytes or the new bytes, never a torn file.  Any failure removes
  the temp file and raises :class:`OSError`; each caller decides whether
  that degrades (and which counter it bumps) or propagates.
* :func:`quarantine` — rename an artifact that exists but cannot be
  parsed to ``<path>.corrupt`` (kept for post-mortem, matched by no
  loader) and count it, so it is recomputed once instead of re-parsed on
  every run.
* :func:`wipe` — delete a cache directory's artifacts by name pattern.

This module imports nothing from :mod:`repro` but the counter registry,
so the model layer can use it without importing the harness.
"""

from __future__ import annotations

import os
import tempfile

from .obs.counters import inc_counter

__all__ = ["publish", "quarantine", "wipe"]


def publish(path: str, data: bytes) -> None:
    """Atomically replace ``path`` with ``data`` (temp + fsync + rename).

    Creates the parent directory if needed.  Raises :class:`OSError`
    (``ENOSPC``, ``EROFS``, ...) and never leaves the temp file behind.
    """
    parent = os.path.dirname(path) or "."
    os.makedirs(parent, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=parent, prefix="." + os.path.basename(path) + ".", suffix=".tmp"
    )
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


def quarantine(path: str, counter: str) -> None:
    """Move a corrupt artifact to ``<path>.corrupt`` and bump ``counter``.

    Best-effort: a rename that fails (read-only directory) leaves the
    file in place, and the next lookup parses it again.
    """
    try:
        os.replace(path, path + ".corrupt")
    except OSError:
        pass
    inc_counter(counter)


def wipe(
    directory: str, prefix: str = "", suffixes: "tuple[str, ...]" = ("",)
) -> int:
    """Delete ``directory``'s files named ``prefix*suffix``; returns the
    number removed (0 when the directory is absent or unreadable)."""
    try:
        names = os.listdir(directory)
    except OSError:
        return 0
    removed = 0
    for name in names:
        if name.startswith(prefix) and name.endswith(suffixes):
            try:
                os.unlink(os.path.join(directory, name))
                removed += 1
            except OSError:
                pass
    return removed
