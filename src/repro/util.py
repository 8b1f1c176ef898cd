"""Small shared utilities."""

from __future__ import annotations

import functools
import os
import stat
import zlib
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path
from typing import Any, Iterator, TextIO


def stable_hash(value: str) -> int:
    """Process-stable 32-bit hash of a string.

    Python's built-in ``hash`` for strings is salted per interpreter
    process; anything feeding RNG seeds must use this instead, or
    dataset builds would differ run to run.
    """
    return zlib.crc32(value.encode("utf-8"))


@functools.cache
def field_names(cls: Any) -> tuple[str, ...]:
    """A dataclass's field names, in field order, read once per class."""
    return tuple(f.name for f in fields(cls))


@contextmanager
def atomic_write(path: str | Path) -> Iterator[TextIO]:
    """A UTF-8 text file that replaces ``path`` whole when the block ends.

    The text goes to a temp file in the target's directory, so the final
    ``os.replace`` is a same-filesystem rename: readers see the old file
    or the complete new one, never a torn write.  If the block raises,
    the temp file is removed and the target keeps its old bytes.  A new
    file gets the mode a plain ``open`` gives it (``0o666`` less the
    umask); an existing target keeps its permission bits.
    """
    target = Path(path)
    while True:
        tmp = target.with_name(f".{target.name}.{os.urandom(4).hex()}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            yield f
        try:
            os.chmod(tmp, stat.S_IMODE(os.stat(target).st_mode))
        except FileNotFoundError:
            pass
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
