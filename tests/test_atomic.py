"""Atomic whole-file writes: models, reports and the compacted cache."""

from __future__ import annotations

import errno
import os
import stat
import threading

import pytest

from tweetcountry import atomic
from tweetcountry.atomic import write_json_atomic, write_text_atomic
from tweetcountry.bayes import save_model, train
from tweetcountry.evaluation import (
    ablate,
    cross_validate,
    per_country_report,
    write_ablation_csv,
    write_ablation_json,
    write_evaluation_csv,
    write_evaluation_json,
    write_per_country_csv,
    write_per_country_json,
)
from tweetcountry.features import FeatureKind
from tweetcountry.geocode import GeocodeCache

K = FeatureKind


def _fail_replace(*args, **kwargs):
    raise OSError("replace failed")


def test_failed_replace_keeps_old_file_and_leaves_no_temp(tmp_path, monkeypatch):
    path = tmp_path / "out.txt"
    write_text_atomic(path, "old\n")
    monkeypatch.setattr(atomic.os, "replace", _fail_replace)
    with pytest.raises(OSError, match="replace failed"):
        write_text_atomic(path, "new\n")
    assert path.read_text(encoding="utf-8") == "old\n"
    assert sorted(os.listdir(tmp_path)) == ["out.txt"]


def test_writes_utf8_bytes_as_given(tmp_path):
    path = tmp_path / "out.txt"
    write_text_atomic(path, "Zürich\nline two\n")
    assert path.read_bytes() == "Zürich\nline two\n".encode("utf-8")
    assert sorted(os.listdir(tmp_path)) == ["out.txt"]


def test_json_document_in_canonical_encoding(tmp_path):
    path = tmp_path / "out.json"
    write_json_atomic(path, {"b": [1, 2.5], "a": "Zürich"})
    expected = '{\n  "a": "Zürich",\n  "b": [\n    1,\n    2.5\n  ]\n}\n'
    assert path.read_bytes() == expected.encode("utf-8")
    assert sorted(os.listdir(tmp_path)) == ["out.json"]


def test_symlink_target_is_replaced_and_link_kept(tmp_path):
    real = tmp_path / "real.json"
    real.write_text("old\n", encoding="utf-8")
    link = tmp_path / "link.json"
    link.symlink_to(real)
    write_text_atomic(link, "new\n")
    assert link.is_symlink()
    assert real.read_text(encoding="utf-8") == "new\n"


def test_pipe_is_written_in_place(tmp_path):
    # A target such as /dev/stdout cannot be renamed over; it gets the text directly.
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(
        target=lambda: received.append(fifo.read_text(encoding="utf-8")), daemon=True
    )
    reader.start()
    write_text_atomic(fifo, "through the pipe\n")
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert received == ["through the pipe\n"]
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)


def _writers(separable_corpus, path):
    """Each library writer, bound to path. The cache is loaded now, as a run
    loads its cache first and compacts it last."""
    model = train([({K.TIMEZONE: "amsterdam"}, "NL"), ({K.TIMEZONE: "london"}, "GB")])
    evaluation = cross_validate(separable_corpus, k=2, kinds=(K.TIMEZONE,))
    rows = ablate(separable_corpus, [(K.TIMEZONE,)], k=2)
    report = per_country_report(
        separable_corpus, kind_sets=[(K.TIMEZONE,)], min_count=1, region={"AA"}
    )
    return {
        "save_model": lambda: save_model(model, path),
        "write_evaluation_json": lambda: write_evaluation_json(evaluation, path),
        "write_evaluation_csv": lambda: write_evaluation_csv(evaluation, path),
        "write_ablation_json": lambda: write_ablation_json(rows, path),
        "write_ablation_csv": lambda: write_ablation_csv(rows, path),
        "write_per_country_json": lambda: write_per_country_json(report, path),
        "write_per_country_csv": lambda: write_per_country_csv(report, path),
        "GeocodeCache.compact": GeocodeCache(path).compact,
    }


_ARTIFACT_WRITERS = [
    "save_model",
    "write_evaluation_json",
    "write_evaluation_csv",
    "write_ablation_json",
    "write_ablation_csv",
    "write_per_country_json",
    "write_per_country_csv",
]


@pytest.mark.parametrize("name", _ARTIFACT_WRITERS)
def test_writer_failure_keeps_previous_artifact(name, separable_corpus, tmp_path, monkeypatch):
    path = tmp_path / "artifact"
    write = _writers(separable_corpus, path)[name]
    write()
    before = path.read_bytes()
    assert before
    path.write_bytes(b"previous run\n")
    monkeypatch.setattr(atomic.os, "replace", _fail_replace)
    with pytest.raises(OSError, match="replace failed"):
        write()
    assert path.read_bytes() == b"previous run\n"
    assert sorted(os.listdir(tmp_path)) == ["artifact"]
    monkeypatch.undo()
    write()
    assert path.read_bytes() == before


@pytest.mark.parametrize(
    "shape, code",
    [
        ("loop.json", errno.ELOOP),
        ("dir", errno.EISDIR),
        ("nodir/x.json", errno.ENOENT),
        ("file.txt/x.json", errno.ENOTDIR),
    ],
    ids=["loop", "directory", "missing-directory", "under-a-file"],
)
@pytest.mark.parametrize("name", [*_ARTIFACT_WRITERS, "GeocodeCache.compact"])
def test_writer_refuses_a_target_it_cannot_replace(name, shape, code, separable_corpus, tmp_path):
    # The target takes its shape after the writer is set up; the refusal reads as the CLI's does.
    path = tmp_path / shape
    write = _writers(separable_corpus, path)[name]
    (tmp_path / "loop.json").symlink_to("loop.json")
    (tmp_path / "dir").mkdir()
    (tmp_path / "file.txt").write_text("kept\n", encoding="utf-8")
    before = sorted(os.listdir(tmp_path))
    with pytest.raises(OSError) as refused:
        write()
    assert str(refused.value) == f"[Errno {code}] {os.strerror(code)}: {str(path)!r}"
    assert sorted(os.listdir(tmp_path)) == before
    assert os.readlink(tmp_path / "loop.json") == "loop.json"
    assert os.listdir(tmp_path / "dir") == []
    assert (tmp_path / "file.txt").read_text(encoding="utf-8") == "kept\n"


def test_cache_compaction_failure_keeps_cache_file(tmp_path, monkeypatch):
    path = tmp_path / "cache.tsv"
    cache = GeocodeCache(path)
    cache.put("paris", "FR", "gazetteer")
    cache.put("paris", "FR", "gazetteer")
    before = path.read_bytes()
    monkeypatch.setattr(atomic.os, "replace", _fail_replace)
    with pytest.raises(OSError, match="replace failed"):
        cache.compact()
    assert path.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["cache.tsv"]
