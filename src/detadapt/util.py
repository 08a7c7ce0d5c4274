"""Small shared helpers: seeded RNG sub-streams and atomic writes."""

from __future__ import annotations

import os

import numpy as np


def _key(part: int | str) -> int:
    if isinstance(part, str):
        return int.from_bytes(part.encode("utf-8"), "little")
    return int(part)


def rng_stream(seed: int, *path: int | str) -> np.random.Generator:
    """Independent generator for a named sub-stream of a single run seed."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return np.random.default_rng(np.random.SeedSequence([_key(seed), *(_key(p) for p in path)]))


def derive_seed(seed: int, *path: int | str) -> int:
    """Stable integer seed derived from (seed, path), for APIs that take ints."""
    return int(rng_stream(seed, *path).integers(0, 2**63 - 1))


def write_atomic(path, text: str) -> None:
    """Replace the file at `path` with `text` in one step.

    The text goes to a temp file in the destination directory, which
    `os.replace` then renames over `path`, so a reader sees the old file or
    the new one, never a partial write. If writing or renaming fails, the
    temp file is removed and the old file keeps its bytes. Nothing is synced
    to disk: this guards against an interrupted process, not a power loss.
    """
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
