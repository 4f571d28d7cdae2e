"""Atomic output files: a reader sees a file's old content or its new
content, never part of the new one."""

from __future__ import annotations

import contextlib
import os
import secrets
from pathlib import Path


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
