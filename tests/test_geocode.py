"""Gazetteer, cache, reverse index, and the combined geocoder."""

from __future__ import annotations

import contextlib
import errno
import math
import os
import random
import sys
import threading
from datetime import datetime, timezone
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tweetcountry import geocode
from tweetcountry.errors import ConflictingEntry, InvalidQuery, RemoteUnavailable
from tweetcountry.features import normalize_place
from tweetcountry.geocode import (
    _TOKEN_TRIM,
    DEFAULT_MAX_DISTANCE_KM,
    EARTH_RADIUS_KM,
    NEGATIVE_MARK,
    Gazetteer,
    GeocodeCache,
    Geocoder,
    ReferencePoint,
    ReversePointIndex,
    default_gazetteer,
    default_reverse_index,
    haversine_km,
    load_gazetteer,
    load_reverse_points,
    parse_gazetteer,
    parse_reverse_points,
    reverse_cache_key,
)
from tweetcountry.tweet_model import bundled_data

from reference_impl import reference_unescape_key


class CountingRemote:
    """Remote stub that records every call it receives."""

    def __init__(self, forward_map=None, reverse_country=None, fail=False):
        self.forward_map = forward_map or {}
        self.reverse_country = reverse_country
        self.fail = fail
        self.forward_calls = []
        self.reverse_calls = []

    def forward(self, query):
        self.forward_calls.append(query)
        if self.fail:
            raise RemoteUnavailable("backend down")
        return self.forward_map.get(query)

    def reverse(self, lat, lon):
        self.reverse_calls.append((lat, lon))
        if self.fail:
            raise RemoteUnavailable("backend down")
        return self.reverse_country


class CountingEntries(dict):
    """A gazetteer table that counts lookups and fails past a budget."""

    def __init__(self, entries, budget):
        super().__init__(entries)
        self.budget = budget
        self.probes = 0

    def get(self, key, default=None):
        self.probes += 1
        if self.probes > self.budget:
            raise AssertionError(f"more than {self.budget} probes")
        return super().get(key, default)


def reference_lookup(names: dict[str, str], query: str) -> str | None:
    """Uncapped scan: whole query, comma segments, then every token span."""
    key = normalize_place(query)
    if not key:
        return None
    if key in names:
        return names[key]
    if "," in query:
        for segment in query.split(","):
            segment_key = normalize_place(segment)
            if segment_key in names:
                return names[segment_key]
    tokens = [token.strip(_TOKEN_TRIM) for token in key.replace(",", " ").split()]
    tokens = [token for token in tokens if token]
    for length in range(len(tokens), 0, -1):
        for start in range(len(tokens) - length + 1):
            span = " ".join(tokens[start : start + length])
            if span != key and span in names:
                return names[span]
    return None


_WORDS = st.sampled_from(("new", "York", "san", "jose", "st.", "(b)", "x,", "paris", "é"))
_SEPARATORS = st.sampled_from((" ", "  ", ", ", ",", "\t"))


def linear_nearest(points, max_distance_km, lat, lon):
    """Every point measured in list order; the later of equal distances wins."""
    best, best_distance = None, max_distance_km
    for point in points:
        distance = haversine_km(lat, lon, point.lat, point.lon)
        if distance <= best_distance:
            best, best_distance = point.country, distance
    return best


_LATS = st.one_of(st.sampled_from((-90.0, -89.5, -45.0, 0.0, 45.0, 52.0, 89.5, 90.0)), st.floats(-90.0, 90.0))
_LONS = st.one_of(st.sampled_from((-180.0, -179.5, 0.0, 4.5, 179.5, 180.0)), st.floats(-180.0, 180.0))
_FIXED_CEILINGS = st.one_of(
    st.sampled_from(
        (0.0, -1.0, -1e-9, math.nan, 300.0, math.pi * EARTH_RADIUS_KM, 2e4, 1e9, math.inf)
    ),
    st.floats(0.0, 25_000.0),
)
_TIED = [(10.0, 0.0, "NL"), (10.0, 0.0, "BE"), (-90.0, 0.0, "DE")]


class TestGazetteer:
    def test_add_and_get(self):
        table = Gazetteer()
        table.add("Enschede", "NL")
        assert table.get("enschede") == "NL"
        assert table.get("  ENSCHEDE ") == "NL"
        assert "Enschede" in table
        assert len(table) == 1

    def test_duplicate_same_country_is_fine(self):
        table = Gazetteer()
        table.add("Paris", "FR", provenance="a")
        table.add("paris", "FR", provenance="b")
        assert len(table) == 1

    def test_conflict_raises_with_both_sources(self):
        table = Gazetteer()
        table.add("Springfield", "US", provenance="first.tsv:3")
        with pytest.raises(ConflictingEntry) as excinfo:
            table.add("springfield", "CA", provenance="second.tsv:9")
        assert "first.tsv:3" in str(excinfo.value)
        assert "second.tsv:9" in str(excinfo.value)

    def test_rejects_bad_codes(self):
        table = Gazetteer()
        with pytest.raises(ValueError):
            table.add("Nowhere", "ZZ")
        with pytest.raises(ValueError):
            table.add("Nowhere", "nl")
        with pytest.raises(ValueError):
            table.add("", "NL")

    def test_lookup_exact(self):
        table = Gazetteer()
        table.add("new york", "US")
        assert table.lookup("New   York") == "US"

    def test_lookup_comma_segment(self):
        table = Gazetteer()
        table.add("amsterdam", "NL")
        assert table.lookup("Amsterdam, The Big City") == "NL"
        assert table.lookup("Somewhere, Amsterdam") == "NL"

    def test_lookup_token_span(self):
        table = Gazetteer()
        table.add("enschede", "NL")
        assert table.lookup("Awesome Enschede") == "NL"
        assert table.lookup("Enschede!") == "NL"

    def test_longest_span_wins(self):
        table = Gazetteer()
        table.add("york", "GB")
        table.add("new york", "US")
        assert table.lookup("beautiful new york city") == "US"

    def test_leftmost_span_wins_at_equal_length(self):
        table = Gazetteer()
        table.add("alpha beta", "NL")
        table.add("beta gamma", "FR")
        assert table.lookup("alpha beta gamma") == "NL"

    def test_miss_returns_none(self):
        table = Gazetteer()
        table.add("paris", "FR")
        assert table.lookup("somewhere in the void") is None
        assert table.lookup("   ") is None

    def test_long_query_probes_grow_linearly(self):
        table = default_gazetteer()
        longest = max(len(key.split()) for key in table._entries)
        tokens = 2000
        # one probe for the whole query, then at most one per span start and length
        table._entries = CountingEntries(table._entries, budget=1 + longest * tokens)
        query = " ".join(f"w{index}" for index in range(tokens))
        assert table.lookup(query) is None
        assert table._entries.probes > tokens

    @pytest.mark.parametrize("words", [False, True])
    def test_comma_query_probes_grow_linearly(self, words):
        table = default_gazetteer()
        longest = max(len(key.split()) for key in table._entries)
        commas = 10**5
        segments = commas + 1
        # The whole query, one probe per comma segment, then at most one per
        # span start and length; bare commas leave no segment or token to probe.
        table._entries = CountingEntries(table._entries, budget=1 + segments + longest * segments)
        query = ",".join(f"w{index}" for index in range(segments)) if words else "," * commas
        assert table.lookup(query) is None
        assert table._entries.probes > segments if words else table._entries.probes == 1

    @given(
        st.dictionaries(
            st.lists(_WORDS, min_size=1, max_size=4).map(" ".join),
            st.sampled_from(("US", "FR", "NL")),
            max_size=6,
        ),
        st.lists(st.tuples(_WORDS, _SEPARATORS), max_size=12),
    )
    @settings(max_examples=300, deadline=None)
    def test_lookup_matches_uncapped_scan(self, raw_names, parts):
        names = {normalize_place(name): country for name, country in raw_names.items()}
        table = Gazetteer()
        for name, country in names.items():
            table.add(name, country)
        query = "".join(word + separator for word, separator in parts)
        assert table.lookup(query) == reference_lookup(names, query)


class TestGazetteerParsing:
    def test_parse_skips_comments_and_blanks(self):
        table = parse_gazetteer(
            ["# header", "", "Paris\tFR", "  ", "London\tGB"], "test"
        )
        assert len(table) == 2

    def test_parse_rejects_malformed_line(self):
        with pytest.raises(ValueError) as excinfo:
            parse_gazetteer(["Paris FR"], "bad.tsv")
        assert "bad.tsv:1" in str(excinfo.value)

    def test_parse_conflict_mentions_line_numbers(self):
        with pytest.raises(ConflictingEntry) as excinfo:
            parse_gazetteer(["x\tFR", "x\tDE"], "dup.tsv")
        assert "dup.tsv:1" in str(excinfo.value)

    def test_load_gazetteer(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("Enschede\tNL\n", encoding="utf-8")
        assert load_gazetteer(path).get("enschede") == "NL"

    def test_bundled_gazetteer(self):
        table = default_gazetteer()
        assert len(table) > 500
        assert table.get("enschede") == "NL"
        assert table.get("amsterdam") == "NL"
        assert table.get("new york") == "US"
        assert table.get("london") == "GB"
        assert table.get("paris") == "FR"


class TestCache:
    def test_in_memory_put_get(self):
        cache = GeocodeCache()
        assert cache.get("x") is None
        cache.put("x", "NL", "test")
        entry = cache.get("x")
        assert entry.country == "NL"
        assert entry.source == "test"
        assert cache.path is None

    def test_negative_entry(self):
        cache = GeocodeCache()
        cache.put("nowhere", None, "remote")
        entry = cache.get("nowhere")
        assert entry is not None
        assert entry.country is None

    def test_persistence_round_trip(self, tmp_path):
        path = tmp_path / "cache.tsv"
        cache = GeocodeCache(path)
        cache.put("a", "NL", "gazetteer")
        cache.put("b", None, "remote")
        again = GeocodeCache(path)
        assert again.get("a").country == "NL"
        assert again.get("b").country is None
        line = path.read_text(encoding="utf-8").splitlines()[1]
        assert line.split("\t")[1] == NEGATIVE_MARK

    def test_only_a_missing_file_is_an_empty_cache(self, tmp_path):
        assert len(GeocodeCache(tmp_path / "nodir" / "cache.tsv")) == 0
        loop = tmp_path / "loop.tsv"
        loop.symlink_to("loop.tsv")
        (tmp_path / "a_file").write_bytes(b"")
        with pytest.raises(OSError) as looped:
            GeocodeCache(loop)
        assert looped.value.errno == errno.ELOOP
        with pytest.raises(NotADirectoryError):
            GeocodeCache(tmp_path / "a_file" / "cache.tsv")

    def test_last_entry_wins(self, tmp_path):
        path = tmp_path / "cache.tsv"
        cache = GeocodeCache(path)
        cache.put("name", "FR", "remote")
        cache.put("name", "DE", "remote")
        assert GeocodeCache(path).get("name").country == "DE"

    def test_keys_with_separators_round_trip(self, tmp_path):
        path = tmp_path / "cache.tsv"
        cache = GeocodeCache(path)
        hairy = "line\none\ttab\\slash\rreturn"
        cache.put(hairy, "US", "test")
        assert GeocodeCache(path).get(hairy).country == "US"

    def test_malformed_lines_are_skipped(self, tmp_path):
        path = tmp_path / "cache.tsv"
        path.write_text("only two\tfields\ngood\tNL\tsrc\t2024-01-01\n", encoding="utf-8")
        cache = GeocodeCache(path)
        assert len(cache) == 1
        assert cache.get("good").country == "NL"

    def test_undecodable_line_is_skipped(self, tmp_path, caplog):
        path = tmp_path / "cache.tsv"
        path.write_bytes(
            b"a\tNL\tsrc\t2024-01-01\n"
            b"\xffbad\tDE\tsrc\t2024-01-01\n"
            b"b\t-\tsrc\t2024-01-02\r\n"
            b"\r\n"
            b"c\tFR\tsrc\t2024-01-03"
        )
        cache = GeocodeCache(path)
        assert len(cache) == 3
        assert cache.get("a").country == "NL"
        assert cache.get("b") == geocode.CacheEntry(None, "src", "2024-01-02")
        assert cache.get("c").timestamp == "2024-01-03"
        assert [record.getMessage() for record in caplog.records] == [
            f"{path}:2: skipping malformed cache line"
        ]

    @given(st.text())
    def test_key_escaping_round_trips(self, key):
        escaped = geocode._escape_key(key)
        assert not {"\t", "\n", "\r"} & set(escaped)
        assert geocode._unescape_key(escaped) == key

    @given(st.text(st.sampled_from("\\tnrx \n\r")) | st.text())
    @example("\\x")
    @example("key\\")
    @example("\\" * 7)
    @example("\\\n\\\\t")
    def test_unescape_matches_the_character_loop(self, key):
        # An unknown escape keeps its character, and a trailing backslash stays.
        assert geocode._unescape_key(key) == reference_unescape_key(key)

    @pytest.mark.parametrize("n", [10**5, 2 * 10**5, 10**5 + 1])
    def test_unescape_work_is_linear_in_backslashes(self, monkeypatch, n):
        lookups = []

        class CountingMap(dict):
            def get(self, *args):
                lookups.append(args[0])
                return super().get(*args)

        monkeypatch.setattr(geocode, "_UNESCAPES", CountingMap(geocode._UNESCAPES))
        # Each pair is one escape, looked up once; an odd last backslash stays as it is.
        assert geocode._unescape_key("\\" * n) == "\\" * (n // 2 + n % 2)
        assert len(lookups) == n // 2

    def test_load_work_is_linear_in_lines_for_one_key(self, tmp_path, monkeypatch):
        # 10^5 lines for "paris", every third escaped ("\\p" reads as "p"), every
        # fifth negative; the last line wins.
        n = 10**5
        lines = [
            ("\\paris" if index % 3 == 0 else "paris")
            + ("\t-" if index % 5 == 0 else "\tFR")
            + f"\tsrc\t{index}\n"
            for index in range(n - 1)
        ]
        lines.append("paris\tNL\tlast\t2024-01-01\n")
        path = tmp_path / "cache.tsv"
        path.write_text("".join(lines), encoding="utf-8")
        calls = {"is_country_code": 0, "_unescape_key": 0}

        def counted(name):
            real = getattr(geocode, name)

            def count(*args):
                calls[name] += 1
                return real(*args)

            return count

        for name in calls:
            monkeypatch.setattr(geocode, name, counted(name))
        monkeypatch.setattr(geocode, "warn", mock.Mock(side_effect=AssertionError("warned")))
        cache = GeocodeCache(path)
        assert len(cache) == 1
        assert cache.get("paris") == geocode.CacheEntry("NL", "last", "2024-01-01")
        # Once per line with a country outcome, and once per escaped key.
        assert calls == {
            "is_country_code": sum(1 for index in range(n - 1) if index % 5) + 1,
            "_unescape_key": sum(1 for index in range(n - 1) if index % 3 == 0),
        }

    def test_invalid_outcome_skipped(self, tmp_path):
        path = tmp_path / "cache.tsv"
        path.write_text("k\tNLX\tsrc\t2024-01-01\n", encoding="utf-8")
        assert len(GeocodeCache(path)) == 0

    def test_stats(self):
        cache = GeocodeCache()
        cache.put("a", "NL", "x")
        cache.put("b", None, "x")
        cache.get("a")
        cache.get("missing")
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["positives"] == 1
        assert stats["negatives"] == 1
        assert stats["session_hits"] == 1
        assert stats["session_misses"] == 1

    def test_appends_keep_bytes_and_file_mode(self, tmp_path):
        path = tmp_path / "cache.tsv"
        cache = GeocodeCache(path)
        first = cache.put("Zürich", "CH", "gazetteer")
        second = cache.put("x\ty", None, "points")
        assert path.read_bytes() == (
            f"Zürich\tCH\tgazetteer\t{first.timestamp}\n"
            f"x\\ty\t-\tpoints\t{second.timestamp}\n"
        ).encode("utf-8")
        reference = tmp_path / "reference.tsv"
        reference.open("a", encoding="utf-8").close()
        assert path.stat().st_mode == reference.stat().st_mode

    @pytest.mark.parametrize("with_file", [False, True])
    def test_unencodable_key_changes_nothing(self, tmp_path, with_file):
        path = tmp_path / "cache.tsv"
        cache = GeocodeCache(path if with_file else None)
        cache.put("a", "NL", "x")
        before = path.read_bytes() if with_file else None
        with pytest.raises(UnicodeEncodeError):
            cache.put("bad \ud800", "FR", "x")
        assert len(cache) == 1
        assert cache.get("bad \ud800") is None
        if with_file:
            assert path.read_bytes() == before

    @pytest.mark.parametrize("with_file", [False, True])
    @pytest.mark.parametrize(
        "source", ["a\tb", "x\ny", "x\ry", "gazetteer\n"], ids=["tab", "line-feed", "return", "trailing-line-feed"]
    )
    def test_source_that_would_split_the_line_changes_nothing(self, tmp_path, with_file, source):
        path = tmp_path / "cache.tsv"
        cache = GeocodeCache(path if with_file else None)
        cache.put("a", "NL", "x")
        before = path.read_bytes() if with_file else None
        with pytest.raises(ValueError, match="tab or line break"):
            cache.put("k", "FR", source)
        assert len(cache) == 1
        assert cache.get("k") is None
        if with_file:
            assert path.read_bytes() == before
            assert len(GeocodeCache(path)) == 1

    @pytest.mark.parametrize("with_file", [False, True])
    @pytest.mark.parametrize(
        "key, country, message",
        [
            ("", "FR", "cache key must be non-empty"),
            ("k", "fr", "invalid cached country 'fr'"),
            ("k", "FRA", "invalid cached country 'FRA'"),
            ("k", "", "invalid cached country ''"),
        ],
        ids=["empty-key", "lowercase", "three-letters", "empty-country"],
    )
    def test_rejected_put_changes_nothing(self, tmp_path, with_file, key, country, message):
        path = tmp_path / "cache.tsv"
        cache = GeocodeCache(path if with_file else None)
        cache.put("a", "NL", "x")
        before = path.read_bytes() if with_file else None
        with pytest.raises(ValueError) as excinfo:
            cache.put(key, country, "gazetteer")
        assert str(excinfo.value) == message
        assert len(cache) == 1
        assert cache.get(key) is None
        if with_file:
            assert path.read_bytes() == before

    def test_compact_without_a_file_counts_and_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cache = GeocodeCache()
        cache.put("b", "NL", "x")
        cache.put("a", None, "x")
        cache.put("b", "BE", "x")
        assert cache.compact() == 2
        assert cache.get("b").country == "BE"
        assert cache.get("a").country is None
        assert list(tmp_path.iterdir()) == []

    def test_held_descriptor_writes_what_per_put_opens_write(self, tmp_path, monkeypatch):
        opened = []
        real_open = os.open

        def recording_open(path, *args):
            opened.append(path)
            return real_open(path, *args)

        monkeypatch.setattr(geocode.os, "open", recording_open)
        rows = [("Zürich", "CH", "gazetteer"), ("x\ty", None, "points"), ("Zürich", "DE", "remote")]
        held, per_put = tmp_path / "held.tsv", tmp_path / "per_put.tsv"
        with GeocodeCache(held) as cache:
            held_lines = []
            for key, country, source in rows:
                held_lines.append(geocode._cache_line(key, cache.put(key, country, source)))
                # Each line is in the file, whole, when put returns.
                assert held.read_text(encoding="utf-8") == "".join(held_lines)
        cache = GeocodeCache(per_put)
        per_put_lines = [geocode._cache_line(key, cache.put(key, country, source)) for key, country, source in rows]
        assert per_put.read_text(encoding="utf-8") == "".join(per_put_lines)
        assert opened == [held] + [per_put] * len(rows)

        def outcomes(path):
            loaded = GeocodeCache(path)
            return {key: entry[:2] for key, entry in loaded._entries.items()}

        assert outcomes(held) == outcomes(per_put) == {"Zürich": ("DE", "remote"), "x\ty": (None, "points")}

    def test_put_after_compact_lands_in_the_compacted_file(self, tmp_path):
        path = tmp_path / "cache.tsv"
        with GeocodeCache(path) as cache:
            cache.put("b", "FR", "x")
            cache.put("a", "NL", "x")
            cache.put("b", "DE", "x")
            assert cache.compact() == 2
            late = cache.put("c", None, "x")
        keys = [line.split("\t")[0] for line in path.read_text(encoding="utf-8").splitlines()]
        assert keys == ["a", "b", "c"]
        assert GeocodeCache(path).get("c") == late

    @pytest.mark.parametrize("held", [False, True], ids=["per-put-open", "held"])
    def test_put_after_a_torn_last_line_starts_its_own_line(self, tmp_path, caplog, held):
        path = tmp_path / "cache.tsv"
        path.write_bytes(b"k1\tNL\tsrc\t2024-01-01\nk3\tF")
        cache = GeocodeCache(path)
        with cache if held else contextlib.nullcontext():
            second = cache.put("k2", "US", "points")
            fourth = cache.put("k4", None, "points")
        assert path.read_bytes() == (
            "k1\tNL\tsrc\t2024-01-01\nk3\tF\n"
            f"k2\tUS\tpoints\t{second.timestamp}\nk4\t-\tpoints\t{fourth.timestamp}\n"
        ).encode("utf-8")
        caplog.clear()
        assert GeocodeCache(path)._entries == {
            "k1": geocode.CacheEntry("NL", "src", "2024-01-01"), "k2": second, "k4": fourth,
        }
        # The torn line itself is still skipped, with its warning.
        assert [record.getMessage() for record in caplog.records] == [f"{path}:2: skipping malformed cache line"]

    def test_put_after_compacting_a_torn_file_adds_no_blank_line(self, tmp_path):
        path = tmp_path / "cache.tsv"
        path.write_bytes(b"k1\tNL\tsrc\tt\nk3\tF")
        cache = GeocodeCache(path)
        cache.compact()
        late = cache.put("k2", "US", "x")
        assert path.read_text(encoding="utf-8") == f"k1\tNL\tsrc\tt\nk2\tUS\tx\t{late.timestamp}\n"

    @pytest.mark.parametrize("written", [0, 5])
    @pytest.mark.parametrize("held", [False, True], ids=["per-put-open", "held"])
    def test_put_after_a_write_that_stopped_partway(self, tmp_path, monkeypatch, held, written):
        path = tmp_path / "cache.tsv"
        cache = GeocodeCache(path)
        real_write = os.write

        def failing_write(fd, data):
            if written and not failing_write.wrote:
                failing_write.wrote = True
                return real_write(fd, data[:written])
            raise OSError(errno.ENOSPC, "No space left on device")

        failing_write.wrote = False
        with cache if held else contextlib.nullcontext():
            first = cache.put("k1", "NL", "x")
            monkeypatch.setattr(geocode.os, "write", failing_write)
            with pytest.raises(OSError):
                cache.put("lost", "FR", "x")
            monkeypatch.setattr(geocode.os, "write", real_write)
            second = cache.put("k2", "US", "x")
        # A line whose write stopped partway is ended before the next one.
        torn = "lost\t\n" if written else ""
        assert path.read_text(encoding="utf-8") == (
            f"k1\tNL\tx\t{first.timestamp}\n{torn}k2\tUS\tx\t{second.timestamp}\n"
        )
        loaded = GeocodeCache(path)
        assert (loaded.get("k1"), loaded.get("k2"), loaded.get("lost")) == (first, second, None)

    # Explicit examples run first, in this order, through one memo of the
    # second's text: microsecond 0 (no fraction) and 999,999, both sides of
    # a second boundary and back, of a new year, and of 1970.
    @given(st.integers(min_value=0, max_value=253_402_300_799_999_999_999))
    @example(1_700_000_000 * 10**9)
    @example(1_700_000_000 * 10**9 + 999_999_999)
    @example(1_700_000_000 * 10**9 - 1)
    @example(1_700_000_000 * 10**9)
    @example(1_700_000_000 * 10**9 - 1)
    @example(1_704_067_199_999_999_000)
    @example(1_704_067_200_000_000_000)
    @example(-1)
    @example(0)
    def test_timestamp_is_datetime_isoformat(self, ns):
        seconds, micro = divmod(ns // 1000, 1_000_000)
        expected = datetime.fromtimestamp(seconds, timezone.utc).replace(microsecond=micro)
        with mock.patch.object(geocode.time, "time_ns", return_value=ns):
            assert GeocodeCache().put("k", None, "x").timestamp == expected.isoformat()

    def test_concurrent_stamps_keep_their_own_second(self, monkeypatch):
        """Threads stamping different seconds, as concurrent remote-tier puts
        may, never get another second's date and time."""
        clock = threading.local()
        monkeypatch.setattr(geocode.time, "time_ns", lambda: clock.ns)
        cache = GeocodeCache()
        wrong = []

        def stamp(second):
            clock.ns = second * 10**9 + 250_000_000
            expected = datetime.fromtimestamp(second, timezone.utc).replace(microsecond=250_000).isoformat()
            stamps = [cache.put(f"k{second}", None, "x").timestamp]
            stamps += [geocode._utc_stamp() for _ in range(20_000)]
            wrong.extend(stamp for stamp in stamps if stamp != expected)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=stamp, args=(1_700_000_000 + 86_461 * i,)) for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    def test_timestamp_of_a_real_put_is_now(self):
        before = datetime.now(timezone.utc)
        stamp = datetime.fromisoformat(GeocodeCache().put("k", None, "x").timestamp)
        assert before.replace(microsecond=0) <= stamp <= datetime.now(timezone.utc)

    def test_compact_dedupes_and_sorts(self, tmp_path):
        path = tmp_path / "cache.tsv"
        cache = GeocodeCache(path)
        cache.put("b", "FR", "x")
        cache.put("a", "NL", "x")
        cache.put("b", "DE", "x")
        assert len(path.read_text(encoding="utf-8").splitlines()) == 3
        assert cache.compact() == 2
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("a\t")
        assert GeocodeCache(path).get("b").country == "DE"


class TestReverseIndex:
    def test_nearest_within_ceiling(self):
        index = ReversePointIndex([ReferencePoint(52.16, 4.49, "NL", "Leiden")])
        assert index.nearest_country(52.1674388, 4.48431747) == "NL"

    def test_ceiling_excludes_far_points(self):
        index = ReversePointIndex([ReferencePoint(52.16, 4.49, "NL", "Leiden")])
        assert index.nearest_country(0.0, 0.0) is None

    def test_nearest_of_several(self):
        index = ReversePointIndex(
            [
                ReferencePoint(50.85, 4.35, "BE", "Brussels"),
                ReferencePoint(52.37, 4.89, "NL", "Amsterdam"),
            ]
        )
        assert index.nearest_country(52.0, 4.5) == "NL"
        assert index.nearest_country(50.9, 4.4) == "BE"

    def test_haversine_reference_distance(self):
        # London to Paris, about 344 km
        distance = haversine_km(51.5074, -0.1278, 48.8566, 2.3522)
        assert abs(distance - 344) < 5

    def test_nearly_antipodal_points_have_a_distance(self):
        # rounding put the haversine term just above 1 here, a math domain error
        distance = haversine_km(46.16290411904106, -25.807675899365506, -46.16290411904006, 154.1923241006345)
        assert distance == pytest.approx(math.pi * EARTH_RADIUS_KM)

    @given(
        st.lists(st.tuples(_LATS, st.one_of(st.none(), _LONS), st.sampled_from(("NL", "BE", "DE"))), max_size=8),
        _LATS,
        _LONS,
        st.one_of(_FIXED_CEILINGS, st.integers(0, 7)),
    )
    @settings(max_examples=500, deadline=None)
    # Later of two equal points wins, also when it lies further south; a point
    # exactly at the ceiling matches, also where the ceiling's angle rounds
    # below the latitude difference; a ceiling just below it does not;
    # ceilings of 0, pi*R, at a pole, negative, NaN; a NaN query.
    @example(_TIED, 9.0, 0.0, 0)
    @example([(16.4, None, "NL")], 45.0, 0.0, 0)
    @example([(1.0, 0.0, "NL"), (-1.0, 0.0, "BE")], 0.0, 0.0, 300.0)
    @example(_TIED, 9.0, 0.0, haversine_km(9.0, 0.0, 10.0, 0.0) * 0.999)
    @example(_TIED, 10.0, 0.0, 0.0)
    @example(_TIED, 89.0, 180.0, math.pi * EARTH_RADIUS_KM)
    @example(_TIED, -90.0, 123.0, 1e-6)
    @example(_TIED, 10.0, 0.0, -1.0)
    @example(_TIED, 10.0, 0.0, math.nan)
    @example(_TIED, math.nan, 0.0, math.inf)
    def test_matches_linear_scan(self, rows, lat, lon, ceiling):
        # A point without a longitude sits on the query's meridian, where its
        # distance is the latitude difference alone; an integer ceiling is
        # the exact distance of that point, so it sits on the ceiling.
        points = [ReferencePoint(p_lat, lon if p_lon is None else p_lon, code, "") for p_lat, p_lon, code in rows]
        if isinstance(ceiling, int):
            if not points:
                return
            target = points[ceiling % len(points)]
            ceiling = haversine_km(lat, lon, target.lat, target.lon)
        index = ReversePointIndex(points, max_distance_km=ceiling)
        assert index.nearest_country(lat, lon) == linear_nearest(points, ceiling, lat, lon)

    def test_rejects_latitude_past_a_pole(self):
        with pytest.raises(ValueError, match="latitude out of range"):
            ReversePointIndex([ReferencePoint(100.0, 0.0, "NO", "b")])

    @pytest.mark.parametrize("lon", [180.5, -181.0, math.inf, math.nan])
    def test_rejects_longitude_past_the_antimeridian(self, lon):
        with pytest.raises(ValueError, match="longitude out of range"):
            ReversePointIndex([ReferencePoint(0.0, lon, "NO", "b")])

    def test_bundled_points_match_linear_scan(self):
        points = parse_reverse_points(bundled_data("reverse_points.tsv"), "bundled")
        rng = random.Random(16)
        queries = []
        for point in points:
            queries.append((point.lat, point.lon))
            for spread in (0.5, 4.0):
                lat = min(90.0, max(-90.0, point.lat + rng.uniform(-spread, spread)))
                lon = (point.lon + rng.uniform(-spread, spread) + 180.0) % 360.0 - 180.0
                queries.append((lat, lon))
        # Near both poles, and across the antimeridian next to Fiji and New Zealand.
        queries += [(lat, lon) for lat in (90.0, 89.99, 88.0, -88.0, -89.99, -90.0) for lon in (-180.0, 0.0, 135.0, 180.0)]
        queries += [
            (lat, lon)
            for lat in (-18.1, -17.0, -37.0, -41.3)
            for lon in (177.5, 179.99, 180.0, -180.0, -179.99, -177.5)
        ]
        for ceiling in (0.0, 1.0, 300.0, math.pi * EARTH_RADIUS_KM, 25_000.0, math.inf, math.nan):
            index = ReversePointIndex(points, max_distance_km=ceiling)
            for lat, lon in queries:
                assert index.nearest_country(lat, lon) == linear_nearest(points, ceiling, lat, lon), (ceiling, lat, lon)

    def test_band_bounds_distance_calls(self, monkeypatch):
        index = default_reverse_index()
        calls = []

        def counting_haversine(*args):
            calls.append(args)
            return haversine_km(*args)

        monkeypatch.setattr(geocode, "haversine_km", counting_haversine)
        queries = {
            (52.1674, 4.4843): "NL",
            (48.8566, 2.3522): "FR",
            (40.4168, -3.7038): "ES",
            (52.52, 13.405): "DE",
            (51.5074, -0.1278): "GB",
        }
        for (lat, lon), country in queries.items():
            calls.clear()
            assert index.nearest_country(lat, lon) == country
            assert 0 < len(calls) < 20

    def test_parse_reverse_points(self):
        points = parse_reverse_points(
            ["# comment", "52.16\t4.49\tNL\tLeiden"], "test"
        )
        assert points == [ReferencePoint(52.16, 4.49, "NL", "Leiden")]

    def test_parse_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            parse_reverse_points(["52.16\t4.49\tNL"], "test")
        with pytest.raises(ValueError):
            parse_reverse_points(["99.0\t4.49\tNL\tx"], "test")
        with pytest.raises(ValueError):
            parse_reverse_points(["52.0\t4.49\tNLX\tx"], "test")

    def test_load_reverse_points(self, tmp_path):
        path = tmp_path / "points.tsv"
        path.write_text("52.16\t4.49\tNL\tLeiden\n", encoding="utf-8")
        index = load_reverse_points(path)
        assert len(index) == 1
        assert index.max_distance_km == DEFAULT_MAX_DISTANCE_KM

    def test_bundled_index(self):
        index = default_reverse_index()
        assert len(index) > 200
        assert index.nearest_country(52.1674388, 4.48431747) == "NL"
        assert index.nearest_country(40.7128, -74.0060) == "US"
        # open ocean stays unresolved
        assert index.nearest_country(0.0, 0.0) is None


class TestReverseCacheKey:
    def test_rounding(self):
        assert reverse_cache_key(52.16743, 4.48431) == "reverse:52.1674,4.4843"

    def test_negative_zero_normalized(self):
        assert reverse_cache_key(-0.00004, 0.0) == "reverse:0.0000,0.0000"
        assert reverse_cache_key(0.0, -0.0) == "reverse:0.0000,0.0000"

    def test_distinct_points_distinct_keys(self):
        assert reverse_cache_key(1.0, 2.0) != reverse_cache_key(1.0, 2.0001)


class TestGeocoder:
    def test_empty_query_rejected(self, small_geocoder):
        with pytest.raises(InvalidQuery):
            small_geocoder.forward("")
        with pytest.raises(InvalidQuery):
            small_geocoder.forward("   ")

    def test_gazetteer_hit_skips_remote(self):
        remote = CountingRemote()
        table = Gazetteer()
        table.add("paris", "FR")
        coder = Geocoder(gazetteer=table, remote=remote)
        assert coder.forward("Paris") == "FR"
        assert remote.forward_calls == []

    def test_remote_answer_cached(self):
        remote = CountingRemote(forward_map={"Atlantis": "GR"})
        coder = Geocoder(remote=remote)
        assert coder.forward("Atlantis") == "GR"
        assert coder.forward("Atlantis") == "GR"
        assert remote.forward_calls == ["Atlantis"]

    def test_remote_negative_cached(self):
        remote = CountingRemote()
        coder = Geocoder(remote=remote)
        assert coder.forward("Nowhere Land") is None
        assert coder.forward("Nowhere Land") is None
        assert remote.forward_calls == ["Nowhere Land"]

    def test_remote_unavailable_not_cached(self):
        remote = CountingRemote(fail=True)
        coder = Geocoder(remote=remote)
        with pytest.raises(RemoteUnavailable):
            coder.forward("Paris City")
        remote.fail = False
        remote.forward_map["Paris City"] = "FR"
        assert coder.forward("Paris City") == "FR"
        assert len(remote.forward_calls) == 2

    def test_miss_without_remote_cached_negative(self):
        coder = Geocoder(gazetteer=Gazetteer())
        assert coder.forward("void") is None
        assert coder.forward("void") is None
        assert coder.cache.stats()["negatives"] == 1
        assert coder.cache.stats()["session_hits"] == 1

    def test_reverse_points_first(self, small_geocoder):
        assert small_geocoder.reverse(52.1674388, 4.48431747) == "NL"

    def test_reverse_cached_by_rounded_key(self):
        remote = CountingRemote(reverse_country="NL")
        coder = Geocoder(remote=remote)
        assert coder.reverse(52.16741, 4.48431) == "NL"
        # rounds to the same key, so no second remote call
        assert coder.reverse(52.16744, 4.48429) == "NL"
        assert len(remote.reverse_calls) == 1

    def test_reverse_out_of_range(self, small_geocoder):
        with pytest.raises(ValueError):
            small_geocoder.reverse(95.0, 0.0)
        with pytest.raises(ValueError):
            small_geocoder.reverse(0.0, 200.0)

    def test_reverse_open_water_negative(self, small_geocoder):
        assert small_geocoder.reverse(0.0, 0.0) is None
        stats = small_geocoder.cache.stats()
        assert stats["negatives"] == 1

    def test_reverse_falls_back_to_remote_beyond_ceiling(self):
        remote = CountingRemote(reverse_country="AQ")
        index = ReversePointIndex([ReferencePoint(52.16, 4.49, "NL", "Leiden")])
        coder = Geocoder(reverse_index=index, remote=remote)
        assert coder.reverse(-75.0, 0.0) == "AQ"
        assert remote.reverse_calls == [(-75.0, 0.0)]

    def test_max_in_flight_validated(self):
        with pytest.raises(ValueError):
            Geocoder(max_in_flight=0)

    def test_remote_calls_serialized(self):
        """With one slot, remote calls never overlap across threads."""

        class SlowRemote:
            def __init__(self):
                self.active = 0
                self.peak = 0
                self.lock = threading.Lock()

            def forward(self, query):
                with self.lock:
                    self.active += 1
                    self.peak = max(self.peak, self.active)
                threading.Event().wait(0.01)
                with self.lock:
                    self.active -= 1
                return None

            def reverse(self, lat, lon):
                return None

        remote = SlowRemote()
        coder = Geocoder(remote=remote, max_in_flight=1)
        threads = [
            threading.Thread(target=coder.forward, args=(f"place {i}",)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert remote.peak == 1
