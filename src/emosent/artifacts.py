"""All-or-nothing artifact writes, and reads that name their file.

Every file a command produces (checkpoint, metrics, table, train log,
vocabulary, preprocessed text) is written to a temp file next to its target
and then renamed over it, so an interrupted or failed write leaves the
earlier file as it was and never a half-written one. Every file a command
reads is opened by `open_regular`, so a directory, FIFO or device is a named
error and never a hang. Every text file goes through `read_text`, except the
embeddings file, which is mapped read-only and checked in blocks; both name
a bad byte by `not_utf8`.
"""
from __future__ import annotations

import os
import stat
from pathlib import Path


class NotRegularFileError(ValueError):
    """A path to read names a directory, FIFO, device or socket."""


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


def open_regular(path, mode: str = "rb", **kwargs):
    """`path` opened for reading as `open(path, mode, **kwargs)` would.

    A path that is not a regular file is a NotRegularFileError naming it.
    The file is opened without blocking, so a FIFO with no writer fails at
    once instead of waiting for one."""
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    try:
        if not stat.S_ISREG(os.fstat(fd).st_mode):
            raise NotRegularFileError(f"{path}: not a regular file")
        os.set_blocking(fd, True)
        return open(fd, mode, **kwargs)
    except BaseException:
        os.close(fd)
        raise


def read_text(path) -> str:
    """The UTF-8 text of `path`, newlines as `Path.read_text` reads them;
    other bytes are a ValueError naming it."""
    try:
        with open_regular(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise not_utf8(path, exc) from None


def not_utf8(path, exc: UnicodeDecodeError, at: int = 0) -> ValueError:
    """The error naming `path` and the file offset of the byte `exc` rejected,
    for bytes decoded from offset `at` of the file."""
    return ValueError(f"{path}: not UTF-8 text ({exc.reason} at byte {at + exc.start})")
