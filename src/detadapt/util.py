"""Small shared helpers: seeded RNG sub-streams, atomic writes, shared checks."""

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


def check_offsets(offsets: np.ndarray, total: int) -> None:
    """Raise `ValueError` unless `offsets`, 1-D integers, rise from 0 to `total`:
    the bounds of segments of `total` rows, segment i rows offsets[i]:offsets[i + 1]."""
    if offsets.ndim != 1 or not len(offsets) or offsets.dtype.kind not in "iu" \
            or offsets[0] != 0 or offsets[-1] != total or np.any(offsets[1:] < offsets[:-1]):
        raise ValueError(f"offsets {offsets.tolist()} do not rise from 0 to {total}")


def sorted_by_id(samples: list) -> list:
    """The samples in ascending `id` order; `ValueError` if two share an id."""
    ordered = sorted(samples, key=lambda s: s.id)
    repeats = sum(a.id == b.id for a, b in zip(ordered, ordered[1:]))
    if repeats:
        raise ValueError(f"{repeats} samples repeat an id")
    return ordered
