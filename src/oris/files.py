"""The files the package writes: atomic output, JSON, and the binary record format.

A reader of an atomic_write file sees its old content or its new content,
never part of the new one. A record (write_record) is one JSON header line,
a Config that names its format and version, then the data as one flat
little-endian block: the moments of an optimizer state, the parameters of a
checkpoint, or the transition rows of a dataset file.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import secrets
from pathlib import Path

import numpy as np

from .config import read_header
from .errors import ContractError, NumericsError


@contextlib.contextmanager
def atomic_write(path, binary: bool = False):
    """Open a new temporary file next to `path` for writing; when the block
    exits cleanly it replaces `path` (os.replace). If the block raises, the
    temporary file is removed and `path` is left as it was."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "xb" if binary else "x",
                  encoding=None if binary else "utf-8") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_json(path, obj) -> None:
    """obj as indented JSON with sorted keys and a final newline, by atomic_write."""
    with atomic_write(path) as f:
        f.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_record(path, header, *arrays) -> None:
    """One JSON header line, then the arrays back to back, each in C order,
    in the dtype the header records; read_record reads their values back as
    one array of the header's shape. Data that read_record would refuse, a
    non-finite value, raises NumericsError before the file is opened."""
    data = [a.astype(header.dtype) for a in arrays]
    if not all(np.isfinite(a).all() for a in data):
        raise NumericsError(f"non-finite value in {header.format} data for {path}")
    with atomic_write(path, binary=True) as f:
        f.write(json.dumps(header.to_json()).encode("utf-8"))
        f.write(b"\n")
        for a in data:
            f.write(a.tobytes())


def read_record(path, cls):
    """The header of a write_record file, read as a `cls` (see read_header),
    and its data as an array of the header's shape, all finite. Data of
    another length than the header states is refused, and a non-finite
    value is named by its row when the data has rows."""
    fmt = cls.format
    try:
        with open(path, "rb") as f:
            header_line = f.readline()
            blob = f.read()
    except OSError as e:
        raise ContractError(f"cannot read {fmt} file {path}: {e.strerror}") from None
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ContractError(f"bad {fmt} header in {path}: {e}") from e
    header = read_header(cls, header, path)
    if header.dtype not in ("<f4", "<f8"):
        raise ContractError(f"unsupported {fmt} dtype {header.dtype!r} in {path}")
    shape = header.shape
    need = math.prod(shape) * np.dtype(header.dtype).itemsize
    if len(blob) != need:
        what = "truncated" if len(blob) < need else "overlong"
        raise ContractError(f"{what} {fmt} data in {path}: {len(blob)} bytes where its "
                            f"header states {need}")
    data = np.frombuffer(blob, dtype=header.dtype).reshape(shape)
    finite = np.isfinite(data)
    if not finite.all():
        row = f", row {np.flatnonzero(~finite.all(axis=1))[0]}" if data.ndim == 2 else ""
        raise ContractError(f"non-finite value in {fmt} data in {path}{row}")
    return header, data
