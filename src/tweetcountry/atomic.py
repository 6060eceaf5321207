"""Whole-file writes that never leave a half-written file behind."""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, TextIO


def _standard_stream_fd(path: Path) -> int | None:
    """1 or 2 when path is the same file as this process's stdout or stderr."""
    try:
        target_stat = os.stat(path)
    except OSError:
        return None
    for fd in (1, 2):
        try:
            if os.path.samestat(target_stat, os.fstat(fd)):
                return fd
        except OSError:
            continue
    return None


@contextmanager
def open_atomic(path: str | Path) -> Iterator[TextIO]:
    """Open path for writing text as UTF-8, all or nothing.

    The text goes to a temporary file in the target's directory, which is
    flushed to disk and then renamed over the target when the block ends: a
    reader sees the old file or the new one, never a mix. If the block or any
    step fails, the temporary file is removed and the old file is left as it
    was. A symlink is followed and the file it names is replaced.

    A target that is the same file as stdout or stderr, such as /dev/stdout
    redirected to a file, is written through a duplicate of that descriptor,
    so the text lands at the stream's own offset, before whatever the process
    prints there later. Any other target that exists but is not a regular
    file, such as a pipe, cannot be replaced and is written directly.
    """
    target = Path(path)
    stream_fd = _standard_stream_fd(target)
    if stream_fd is not None:
        with open(os.dup(stream_fd), "w", encoding="utf-8") as handle:
            yield handle
        return
    if target.exists() and not target.is_file():
        with open(target, "w", encoding="utf-8") as handle:
            yield handle
        return
    target = target.resolve()
    tmp = target.with_name(f".{target.name}.{os.urandom(8).hex()}.tmp")
    try:
        handle = open(tmp, "x", encoding="utf-8")
    except OSError as exc:  # name the caller's target, not the temporary file
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, target)
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
