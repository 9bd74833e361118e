"""Generic JSON (de)serialisation of the package's config, manifest and report
dataclasses.

`to_json` turns a dataclass into plain JSON values. `from_json` rebuilds one
from its field type hints; a wrong type or an unknown key is a VolumeError that
names the key. With a `base` instance, keys the document leaves out, at any
depth, keep the base's values; without one, every key is required.
"""
from __future__ import annotations

import types
import typing
from dataclasses import fields, is_dataclass, replace

import numpy as np

from .volume import VolumeError


class Jsonable:
    """Mixin giving a dataclass to_json() and a strict from_json()."""

    def to_json(self) -> dict:
        return to_json(self)

    @classmethod
    def from_json(cls, d: dict):
        return from_json(cls, d)


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
    kw = {n: _decode(hints[n], d[n], getattr(base, n, None), f"{where}.{n}") for n in names if n in d}
    try:
        return cls(**kw) if base is None else replace(base, **kw)
    except VolumeError as e:  # a __post_init__ check
        raise VolumeError(f"{where}: {e}") from e


def _decode(tp, v, base, where: str):
    if is_dataclass(tp):
        return from_json(tp, v, base, where)
    args = typing.get_args(tp)
    if isinstance(tp, types.UnionType):  # X | None
        if v is None and type(None) in args:
            return None
        (tp,) = [a for a in args if a is not type(None)]
        return _decode(tp, v, base, where)
    origin = typing.get_origin(tp)
    if origin in (list, tuple):
        if not isinstance(v, (list, tuple)):
            raise VolumeError(f"{where}: expected a list, got {type(v).__name__}")
        if origin is list or args[-1] is Ellipsis:
            args = args[:1] * len(v)
        if len(args) != len(v):
            raise VolumeError(f"{where}: expected {len(args)} values, got {len(v)}")
        return origin(_decode(a, x, None, f"{where}[{i}]") for i, (a, x) in enumerate(zip(args, v)))
    ok = (int, float) if tp is float else (tp,)
    if isinstance(v, bool) != (tp is bool) or not isinstance(v, ok):
        raise VolumeError(f"{where}: expected {tp.__name__}, got {type(v).__name__}")
    return v
