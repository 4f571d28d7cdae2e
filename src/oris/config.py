"""The JSON form of the frozen config dataclasses, derived from their fields.

A Config subclass writes each field under its own name: tuples as lists and
nested Configs as objects. from_json reads the same form back. A missing key
takes the field's default, a list becomes a tuple (each entry decoded as X in
a `tuple[X, ...]` field), each value of a `dict[str, X]` field is decoded as
X, a JSON integer in a float field becomes a float (a JSON boolean is neither
an int nor a float), and a nested object becomes its Config. An unknown key,
a value of the wrong type or a non-finite float (json.loads reads NaN and
Infinity), or one the constructor refuses, raises an error that names the
section path, e.g. `config.perturbation` or `actor.mlp.layer_sizes[1]`. The
headers of the files the package writes are Configs too.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from pathlib import Path
import types
import typing

from .errors import ConfigError, ContractError


@functools.cache
def _field_types(cls) -> dict:
    """Field name -> resolved type, once per class: get_type_hints costs
    several times a whole from_json."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def _decode(tp, value, path: str):
    if isinstance(tp, types.UnionType):  # X | None
        if value is None:
            return None
        (tp,) = (t for t in tp.__args__ if t is not type(None))
    if isinstance(tp, types.GenericAlias) and tp.__origin__ is dict:  # dict[str, X]
        if not isinstance(value, dict):
            raise ConfigError(f"{path}: expected an object, got {value!r}")
        x = tp.__args__[1]
        return {k: _decode(x, v, f"{path}.{k}") for k, v in value.items()}
    if isinstance(tp, types.GenericAlias):  # tuple[X, ...]
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected tuple, got {value!r}")
        x = tp.__args__[0]
        return tuple(_decode(x, v, f"{path}[{i}]") for i, v in enumerate(value))
    if issubclass(tp, Config):
        return tp.from_json(value, path)
    if isinstance(value, bool) and tp in (int, float):  # bool subclasses int
        raise ConfigError(f"{path}: expected {tp.__name__}, got {value!r}")
    if tp is float and isinstance(value, int):
        value = float(value)
    if not isinstance(value, tp):
        raise ConfigError(f"{path}: expected {tp.__name__}, got {value!r}")
    if tp is float and not math.isfinite(value):
        raise ConfigError(f"{path}: expected a finite float, got {value!r}")
    return value


class Config:
    """Base of the config dataclasses: to_json/from_json by field."""

    def to_json(self) -> dict:
        out = {}
        for name in _field_types(type(self)):
            v = getattr(self, name)
            if isinstance(v, Config):
                v = v.to_json()
            elif isinstance(v, tuple):
                v = list(v)
            out[name] = v
        return out

    @classmethod
    def from_json(cls, d: dict, path: str | None = None):
        path = path or cls.__name__
        if not isinstance(d, dict):
            raise ConfigError(f"{path}: expected an object, got {d!r}")
        fields = _field_types(cls)
        unknown = d.keys() - fields.keys()
        if unknown:
            raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
        kw = {k: _decode(fields[k], v, f"{path}.{k}") for k, v in d.items()}
        try:
            return cls(**kw)
        except (ConfigError, ContractError) as e:
            raise type(e)(f"{path}: {e}") from None
        except (TypeError, ValueError) as e:  # a missing key, or a checked value of a bad kind
            raise ConfigError(f"{path}: {e}") from None


def read_header(cls, d, path, dirpath=None):
    """Header `d` of file `path`, read as a `cls` once it states cls.format
    and cls.version. Anything else (where the file is absent, pass {}) is
    refused as not a file of that format, or, if the file heads `dirpath`,
    not such a directory."""
    if not isinstance(d, dict) or (d.get("format"), d.get("version")) != (cls.format, cls.version):
        what = f"file: {path}" if dirpath is None else f"directory: {dirpath}"
        raise ContractError(f"not a {cls.format} v{cls.version} {what}")
    return cls.from_json(d, str(path))


def load_json(path) -> dict:
    """The JSON object in file `path`, or a ConfigError naming the file."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"{path}: no such file")
    try:
        d = json.loads(p.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ConfigError(f"{path}: not valid JSON ({e})") from None
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: not a JSON object")
    return d
