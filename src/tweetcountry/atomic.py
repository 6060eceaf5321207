"""Whole-file writes that never leave a half-written file behind."""

from __future__ import annotations

import json
import os
import secrets
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, TextIO


@contextmanager
def open_atomic(path: str | Path) -> Iterator[TextIO]:
    """Open path for writing text as UTF-8, all or nothing.

    The text goes to a temporary file in the target's directory, which is
    flushed to disk and then renamed over the target when the block ends: a
    reader sees the old file or the new one, never a mix. If the block or any
    step fails, the temporary file is removed and the old file is left as it
    was. A symlink is followed and the file it names is replaced. A target
    that exists but is not a regular file, such as /dev/stdout or a pipe,
    cannot be replaced and is written directly.
    """
    target = Path(path)
    if target.exists() and not target.is_file():
        with open(target, "w", encoding="utf-8") as handle:
            yield handle
        return
    target = target.resolve()
    tmp = target.with_name(f".{target.name}.{secrets.token_hex(8)}.tmp")
    handle = open(tmp, "x", encoding="utf-8")
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
