"""All-or-nothing artifact writes.

Every file a command produces (checkpoint, metrics, table, train log,
vocabulary, preprocessed text) is written to a temp file next to its target
and then renamed over it, so an interrupted or failed write leaves the
earlier file as it was and never a half-written one.
"""
from __future__ import annotations

import os
from pathlib import Path


def write_atomic(path, data: str | bytes) -> None:
    """Replace `path` with `data` (str is written as UTF-8) in one rename."""
    path = Path(path)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temp, "wb") as fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
