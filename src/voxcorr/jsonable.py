"""JSON side files and the (de)serialisation of the package's config, manifest
and report dataclasses.

`write_json` is the one writer of a JSON side file (indent 2, sorted keys) and
`read_json` the one parser. `to_json` turns a dataclass into plain JSON values.
`from_json` rebuilds one from its field type hints; a wrong type or an unknown
key is a VolumeError that names the key. With a `base` instance, keys the
document leaves out, at any depth, keep the base's values; without one, every
key is required. `decode` checks one value against a type hint, and is the one
check of JSON numbers: NaN and infinities fail it.
"""
from __future__ import annotations

import json
import types
import typing
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from .volume import VolumeError


def write_json(path, obj) -> None:
    """Write to_json(obj) to `path` as JSON, indented by 2 with sorted keys."""
    Path(path).write_text(json.dumps(to_json(obj), indent=2, sort_keys=True))


def read_json(path) -> dict:
    """The JSON object in `path`. Bad UTF-8, bad JSON or another kind of
    document raises VolumeError naming the file; a missing file, OSError."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as e:  # UnicodeDecodeError and JSONDecodeError
        raise VolumeError(f"{path}: unreadable JSON: {e}") from e
    if not isinstance(doc, dict):
        raise VolumeError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def to_json(obj):
    if is_dataclass(obj):
        return {f.name: to_json(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, (list, tuple)):
        return [to_json(v) for v in obj]
    if isinstance(obj, dict):
        return {k: to_json(v) for k, v in obj.items()}
    return obj.tolist() if isinstance(obj, np.ndarray) else obj


def from_json(cls, d, base=None, where: str = ""):
    where = where or cls.__name__
    if not isinstance(d, dict):
        raise VolumeError(f"{where}: expected an object, got {type(d).__name__}")
    names = [f.name for f in fields(cls)]
    unknown = [k for k in d if k not in names]
    missing = [n for n in names if n not in d and base is None]
    if unknown or missing:
        bad = "unknown key" if unknown else "missing key"
        raise VolumeError(f"{where}: {bad} {', '.join(map(repr, unknown or missing))}")
    hints = typing.get_type_hints(cls)
    kw = {n: decode(hints[n], d[n], f"{where}.{n}", getattr(base, n, None)) for n in names if n in d}
    try:
        return cls(**kw) if base is None else replace(base, **kw)
    except VolumeError as e:  # a __post_init__ check
        raise VolumeError(f"{where}: {e}") from e


def decode(tp, v, where: str, base=None):
    if is_dataclass(tp):
        return from_json(tp, v, base, where)
    args = typing.get_args(tp)
    if isinstance(tp, types.UnionType):  # X | None
        if v is None and type(None) in args:
            return None
        (tp,) = [a for a in args if a is not type(None)]
        return decode(tp, v, where, base)
    origin = typing.get_origin(tp)
    if origin in (list, tuple):
        if not isinstance(v, (list, tuple)):
            raise VolumeError(f"{where}: expected a list, got {type(v).__name__}")
        if origin is list or args[-1] is Ellipsis:
            args = args[:1] * len(v)
        if len(args) != len(v):
            raise VolumeError(f"{where}: expected {len(args)} values, got {len(v)}")
        return origin(decode(a, x, f"{where}[{i}]") for i, (a, x) in enumerate(zip(args, v)))
    ok = (int, float) if tp is float else (tp,)
    if isinstance(v, bool) != (tp is bool) or not isinstance(v, ok):
        raise VolumeError(f"{where}: expected {tp.__name__}, got {type(v).__name__}")
    if isinstance(v, float) and not np.isfinite(v):
        raise VolumeError(f"{where}: expected a finite number, got {v}")
    return v
