"""Small shared helpers: seeded RNG sub-streams, atomic writes, shared checks,
and the JSON codec of the run's dataclasses."""

from __future__ import annotations

import dataclasses
import os
import typing

import numpy as np


class ConfigError(ValueError):
    """Raised for invalid domain or run configuration, or a malformed input file."""


# the JSON values a scalar field takes, by its annotation; `type` is exact, so
# a JSON true, a Python bool, is not an int
_JSON_TYPES = {bool: (bool,), int: (int,), float: (int, float)}


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
            or offsets[0] != 0 or offsets[-1] != total or (offsets[1:] < offsets[:-1]).any():
        raise ValueError(f"offsets {offsets.tolist()} do not rise from 0 to {total}")


def sorted_by_id(samples: list) -> list:
    """The samples in ascending `id` order; `ValueError` if two share an id."""
    ordered = sorted(samples, key=lambda s: s.id)
    repeats = sum(a.id == b.id for a, b in zip(ordered, ordered[1:]))
    if repeats:
        raise ValueError(f"{repeats} samples repeat an id")
    return ordered


def to_json(obj) -> dict:
    """The JSON form of a dataclass: its fields in order, an array as nested
    lists and a dataclass as a dict of its own; `from_json` reads it back."""
    out = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            value = to_json(value)
        elif isinstance(value, np.ndarray):
            value = value.tolist()
        out[f.name] = value
    return out


def from_json(cls, data, where: str):
    """The dataclass `cls` built from its JSON form `data`, named `where` in errors.

    Each field's annotation sets the JSON it takes: a bool field a bool, an
    int field an integer, a float field any number, an array field lists of
    numbers (`number_array`), a dataclass field a dict of its own, read with
    the field's name as its `where`; `| None` adds null. A value keeps its
    JSON type, and an array is float. Raises `ConfigError` for a value of
    the wrong type, an unknown field, and a missing field or value that the
    constructor rejects.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be a JSON object")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(data) - set(fields)
    if unknown:
        raise ConfigError(f"unknown {where} fields: {sorted(unknown)}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for name, value in data.items():
        kinds = typing.get_args(hints[name]) or (hints[name],)
        kind = kinds[0]  # the annotation without its `| None`
        if value is None and type(None) in kinds:
            kwargs[name] = None
        elif dataclasses.is_dataclass(kind):
            kwargs[name] = from_json(kind, value, name)
        elif kind is np.ndarray:
            kwargs[name] = number_array(value, f"{where}: {name}")
        elif type(value) in _JSON_TYPES[kind]:
            kwargs[name] = value
        else:
            raise ConfigError(f"{where}: {name} must be {fields[name].type}, got {value!r}")
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:  # a missing field or a value out of range
        raise ConfigError(f"invalid {where}: {exc}") from None


def number_array(value, what: str) -> np.ndarray:
    """`value`, lists nested to one shape with JSON numbers, never a bool or a
    string, at the leaves, as a float array; `ConfigError` naming `what` if not."""
    if not _numbers(value):
        raise ConfigError(f"{what} must be lists of numbers")
    try:
        return np.array(value, dtype=float)
    except (ValueError, OverflowError) as exc:  # ragged lists, an int beyond the float range
        raise ConfigError(f"{what} must be lists of numbers ({exc})") from None


def _numbers(value) -> bool:
    if type(value) is not list:
        return False
    if all(type(v) is list for v in value):
        return all(map(_numbers, value))
    return all(type(v) in _JSON_TYPES[float] for v in value)
