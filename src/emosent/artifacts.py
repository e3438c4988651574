"""All-or-nothing artifact writes, and text reads that name their file.

Every file a command produces (checkpoint, metrics, table, train log,
vocabulary, preprocessed text) is written to a temp file next to its target
and then renamed over it, so an interrupted or failed write leaves the
earlier file as it was and never a half-written one. Every text file a
command reads goes through `read_text`, except the embeddings file, which is
read as bytes and checked in blocks; both name a bad byte by `not_utf8`.
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


def read_text(path) -> str:
    """The UTF-8 text of `path`; other bytes are a ValueError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise not_utf8(path, exc) from None


def not_utf8(path, exc: UnicodeDecodeError, at: int = 0) -> ValueError:
    """The error naming `path` and the file offset of the byte `exc` rejected,
    for bytes decoded from offset `at` of the file."""
    return ValueError(f"{path}: not UTF-8 text ({exc.reason} at byte {at + exc.start})")
