"""Whole-file writes that never leave a half-written file behind."""

from __future__ import annotations

import errno
import json
import os
import stat
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, TextIO


IN_PLACE = -1  # target's answer for a file written in place that is not a standard stream


def target(path: str | Path) -> int | tuple[int, int] | str:
    """How open_atomic writes path, from one stat of path as given: the file it
    replaces, as (st_ino, st_dev), or its real path if it is not made yet; or
    the descriptor it writes in place, 1 or 2 for this process's stdout or
    stderr, IN_PLACE for any other file that is not regular. OSError naming
    path for a directory, a missing or non-directory parent, or a symlink loop."""
    name = os.fspath(path)
    try:
        try:
            info = os.stat(name)
        except FileNotFoundError:
            # Not realpath first: /dev/stdout into a pipe resolves to a path that does not exist.
            real = os.path.realpath(name)
            os.stat(os.path.dirname(real))
            return real
        if stat.S_ISDIR(info.st_mode):
            raise OSError(errno.EISDIR, os.strerror(errno.EISDIR))
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, name) from None
    for fd in (1, 2):
        try:
            if os.path.samestat(info, os.fstat(fd)):
                return fd
        except OSError:
            continue
    return (info.st_ino, info.st_dev) if stat.S_ISREG(info.st_mode) else IN_PLACE


@contextmanager
def open_atomic(path: str | Path) -> Iterator[TextIO]:
    """Open path for writing text as UTF-8, all or nothing.

    The text goes to a temporary file in the target's directory, which is
    flushed to disk and then renamed over the target when the block ends: a
    reader sees the old file or the new one, never a mix. If the block or any
    step fails, the temporary file is removed and the old file is left as it
    was. A symlink is followed and the file it names is replaced. A directory,
    a path in a missing directory or under a file, and a symlink loop raise
    OSError naming path before anything is written.

    A target that is the same file as stdout or stderr, such as /dev/stdout
    redirected to a file, is written through a duplicate of that descriptor,
    so the text lands at the stream's own offset, before whatever the process
    prints there later. Any other target that exists but is not a regular
    file, such as a pipe, cannot be replaced and is written directly.
    """
    where = target(path)
    if isinstance(where, int):
        with open(path if where == IN_PLACE else os.dup(where), "w", encoding="utf-8") as handle:
            yield handle
        return
    real = Path(where if isinstance(where, str) else os.path.realpath(path))
    tmp = real.with_name(f".{real.name}.{os.urandom(8).hex()}.tmp")
    try:
        handle = open(tmp, "x", encoding="utf-8")
    except OSError as exc:  # name the caller's target, not the temporary file
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, real)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write text to path as UTF-8 through open_atomic."""
    with open_atomic(path) as handle:
        handle.write(text)


def write_json_atomic(path: str | Path, document: Any) -> None:
    """Write a JSON document atomically in the canonical artifact encoding:
    UTF-8, sorted keys, two-space indent and a final newline."""
    text = json.dumps(document, ensure_ascii=False, sort_keys=True, indent=2)
    write_text_atomic(path, text + "\n")
