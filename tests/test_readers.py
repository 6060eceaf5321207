"""Fuzzing the readers: whatever the input, only the documented errors escape.

Record readers raise MalformedInput, model readers CorruptModel, the
geocode cache loader skips what it cannot read and never raises, the
config, gazetteer, reverse-point and region readers raise ValueError (a
gazetteer also ConflictingEntry, a file also OSError), and ``cli.main``
returns a documented exit code.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import re
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tweetcountry.bayes import (
    NaiveBayesModel,
    load_model,
    load_model_config,
    log_posterior,
    model_from_dict,
    model_to_dict,
    train,
)
from tweetcountry.cli import (
    CONFIG_FIELDS,
    EXIT_GEOCODER,
    EXIT_INPUT,
    EXIT_MODEL,
    EXIT_OK,
    build_parser,
    main,
    parse_config_file,
    resolve_config,
)
from tweetcountry.errors import ConflictingEntry, CorruptModel, GeocodingError, MalformedInput, TweetCountryError
from tweetcountry.evaluation import _parse_region, load_labeled_ndjson, load_region
from tweetcountry import geocode
from tweetcountry.features import FeatureKind, extract_features
from tweetcountry.geocode import (
    GeocodeCache,
    load_gazetteer,
    load_reverse_points,
    parse_gazetteer,
    parse_reverse_points,
)
from tweetcountry.tweet_model import (
    TweetRecord,
    is_country_code,
    parse_tweet,
    record_from_dict,
    table_lines,
    to_flat_dict,
)

from conftest import make_separable_corpus
from reference_impl import reference_cache_load, reference_model_from_dict
from strategies import (
    BEYOND_FLOAT,
    DIGIT_LIMIT,
    LONG_INTEGER,
    TOO_LONG_FOR_TEXT,
    json_values,
    tweet_dicts,
    tweet_objects,
)

K = FeatureKind

needs_digit_limit = pytest.mark.skipif(
    not DIGIT_LIMIT, reason="this interpreter has no integer digit limit"
)

# Files are rewritten for every example, so one directory serves them all.
tmp_settings = settings(suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def files_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("readers")


raw_documents = st.one_of(
    st.text(),
    st.binary(),
    tweet_dicts.map(json.dumps),
    json_values.map(json.dumps),
)


@given(raw_documents)
@example('{"id": ' + LONG_INTEGER + "}")
@example(b'{"id": ' + LONG_INTEGER.encode() + b"}")
@example('{"lon": %d, "lat": 0}' % BEYOND_FLOAT)
@example("[" * 100_000)
@example(b'{"text": "caf\xff"}')
def test_parse_tweet_raises_only_malformed_input(raw):
    try:
        record = parse_tweet(raw)
    except MalformedInput:
        return
    assert isinstance(record, TweetRecord)


@needs_digit_limit
def test_integer_beyond_digit_limit_is_malformed():
    with pytest.raises(MalformedInput, match="invalid JSON: Exceeds the limit"):
        parse_tweet('{"id": ' + LONG_INTEGER + "}")


def test_integer_beyond_float_range_is_malformed():
    with pytest.raises(MalformedInput, match="lon out of range: 1000"):
        parse_tweet('{"lon": %d, "lat": 0}' % BEYOND_FLOAT)
    with pytest.raises(MalformedInput, match="coordinates out of range"):
        record_from_dict({"coordinates": [0, -BEYOND_FLOAT]})


@given(tweet_objects)
@example({"id": TOO_LONG_FOR_TEXT})
@example({"utc_offset_seconds": TOO_LONG_FOR_TEXT})
@example({"user": {"utc_offset": -TOO_LONG_FOR_TEXT}})
@example({"lon": TOO_LONG_FOR_TEXT, "lat": 0})
def test_record_from_dict_raises_only_malformed_input(obj):
    try:
        record = record_from_dict(obj)
    except MalformedInput:
        return
    assert isinstance(record, TweetRecord)


@needs_digit_limit
@pytest.mark.parametrize(
    "obj, message",
    [
        ({"id": TOO_LONG_FOR_TEXT}, "field 'id' is an integer too long to convert"),
        ({"id_str": None, "id": -TOO_LONG_FOR_TEXT}, "field 'id' is an integer too long to convert"),
        ({"utc_offset_seconds": TOO_LONG_FOR_TEXT}, "utc offset out of range: <integer of "),
        ({"lon": TOO_LONG_FOR_TEXT, "lat": 0}, "lon out of range: <integer of "),
    ],
)
def test_integer_too_long_for_text_is_malformed(obj, message):
    # Only a library caller can pass such an int; JSON input is rejected while decoding.
    with pytest.raises(MalformedInput) as excinfo:
        record_from_dict(obj)
    assert str(excinfo.value).startswith(message)


_labeled_lines = st.one_of(
    tweet_dicts.map(lambda obj: {**obj, "country": "NL"}).map(json.dumps).map(str.encode),
    st.just(b'{"id": "1", "time_zone": "Amsterdam", "country": "NL"}'),
    st.just(b'{"id": "2", "country": "nl"}'),
    st.just(b'{"id": ' + LONG_INTEGER.encode() + b', "country": "NL"}'),
    st.just(b""),
    st.just(b"  \r"),
    st.binary(max_size=12),
    raw_documents.map(lambda raw: raw if isinstance(raw, bytes) else raw.encode("utf-8", "surrogatepass")),
).map(lambda line: line.replace(b"\n", b" "))


@tmp_settings
@given(st.lists(_labeled_lines, max_size=6))
def test_load_labeled_ndjson_names_the_first_bad_line(files_dir, lines):
    path = files_dir / "labeled.ndjson"
    path.write_bytes(b"".join(line + b"\n" for line in lines))
    try:
        data = load_labeled_ndjson(path)
    except MalformedInput as exc:
        match = re.match(re.escape(str(path)) + r":(\d+): ", str(exc))
        assert match, str(exc)
        lineno = int(match.group(1))
        assert 1 <= lineno <= len(lines)
        # Every line before the named one loads; the named line is the first bad one.
        path.write_bytes(b"".join(line + b"\n" for line in lines[: lineno - 1]))
        load_labeled_ndjson(path)
        return
    assert all(is_country_code(label) for label in data.labels())


_BASE_MODEL = model_to_dict(
    train(
        [
            ({K.TIMEZONE: "amsterdam", K.LOCATION: "utrecht"}, "NL"),
            ({K.TIMEZONE: "amsterdam"}, "NL"),
            ({K.TIMEZONE: "london", K.LOCATION: "leeds"}, "GB"),
        ],
        alpha=0.5,
        enabled_kinds=(K.LOCATION, K.TIMEZONE),
    ),
    config={"alpha": 0.5, "case_fold": True},
)


def _paths(node, prefix=()):
    """Every (container path, key) inside a decoded JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix, key
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated_models(draw):
    document = copy.deepcopy(_BASE_MODEL)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(document))
        if not paths:
            break
        prefix, key = draw(st.sampled_from(paths))
        container = document
        for step in prefix:
            container = container[step]
        if draw(st.booleans()) and isinstance(container, dict):
            del container[key]
        else:
            container[key] = draw(
                st.one_of(
                    json_values,
                    st.sampled_from([0, -1, 1, 2, True, math.nan, math.inf, BEYOND_FLOAT, "", "NL", "zz"]),
                )
            )
    return document


def _check_loaded(model):
    assert isinstance(model, NaiveBayesModel)
    assert math.isfinite(model.alpha) and model.alpha >= 0
    vectors = [{}] + [{kind: value} for kind in model.enabled_kinds for value in model.vocabulary[kind]]
    for vector in vectors:
        for _, score in log_posterior(model, vector):
            assert not math.isnan(score)


@given(st.one_of(mutated_models(), json_values))
@example({**_BASE_MODEL, "alpha": math.nan})
@example({**_BASE_MODEL, "alpha": math.inf})
@example({**_BASE_MODEL, "alpha": BEYOND_FLOAT})
def test_model_from_dict_raises_only_corrupt_model(document):
    try:
        model = model_from_dict(document)
    except CorruptModel:
        return
    _check_loaded(model)


def _outcome(function, document):
    try:
        return ("model", function(document))
    except Exception as exc:
        return ("error", type(exc), str(exc))


@given(st.one_of(mutated_models(), json_values))
@example({**_BASE_MODEL, "alpha": math.nan})
@example({**_BASE_MODEL, "alpha": BEYOND_FLOAT})
@example({**_BASE_MODEL, "class_count": {"NL": 2, "GB": True}})
@example({**_BASE_MODEL, "class_count": {"NL": 2, "GB": 0}})
# NL is left in value_count and kind_total: the first of those two checks reports.
@example({**_BASE_MODEL, "class_count": {"GB": 1}, "total_examples": 1})
@example({**_BASE_MODEL, "value_count": {"NL": {"timezone": {"amsterdam": -2}}}})
# An explicit zero count is valid and puts no value in the vocabulary.
@example(
    {
        **_BASE_MODEL,
        "value_count": {
            **_BASE_MODEL["value_count"],
            "GB": {**_BASE_MODEL["value_count"]["GB"], "timezone": {"london": 1, "paris": 0}},
        },
    }
)
@example({**_BASE_MODEL, "kind_total": {"GB": {"location": 1, "timezone": 1.0}}})
# Integers too long for repr, as only a library caller can pass them.
@example({**_BASE_MODEL, "alpha": TOO_LONG_FOR_TEXT})
@example({**_BASE_MODEL, "alpha": -TOO_LONG_FOR_TEXT})
@example({**_BASE_MODEL, "schema_version": TOO_LONG_FOR_TEXT})
@example({**_BASE_MODEL, "class_count": {"NL": -TOO_LONG_FOR_TEXT, "GB": 1}})
@example(
    {
        **_BASE_MODEL,
        "value_count": {
            **_BASE_MODEL["value_count"],
            "GB": {"location": {"leeds": -TOO_LONG_FOR_TEXT}, "timezone": {"london": 1}},
        },
    }
)
@example({**_BASE_MODEL, "kind_total": {"GB": {"location": -TOO_LONG_FOR_TEXT, "timezone": 1}}})
@example({**_BASE_MODEL, "kind_total": {"GB": {"location": TOO_LONG_FOR_TEXT, "timezone": 1}}})
@settings(max_examples=300)
def test_model_from_dict_matches_reference(document):
    # The same model, or the same exception type and message, as the validator
    # that formatted every message before its check (tests/reference_impl.py).
    expected = _outcome(reference_model_from_dict, copy.deepcopy(document))
    actual = _outcome(model_from_dict, document)
    if expected[:2] == ("error", ValueError) and DIGIT_LIMIT:
        # The reference let repr() of an int past the digit limit escape; now
        # the model is corrupt, and the message describes the int.
        assert actual[:2] == ("error", CorruptModel)
        assert "<integer of " in actual[2]
    else:
        assert actual == expected


def test_model_from_dict_keeps_the_config_echo():
    model = model_from_dict(_BASE_MODEL)
    assert model.config == {"alpha": 0.5, "case_fold": True}
    assert model_from_dict({**_BASE_MODEL, "config": ["not", "an", "object"]}).config is None
    without = {key: value for key, value in _BASE_MODEL.items() if key != "config"}
    assert model_from_dict(without).config is None
    # The echo is not part of the model: equal counts make equal models.
    assert model_from_dict(without) == model
    assert "config" not in repr(model)


_model_files = st.one_of(
    st.binary(),
    st.text().map(str.encode),
    mutated_models().map(lambda document: json.dumps(document).encode("utf-8")),
)


@tmp_settings
@given(_model_files)
@example(b'{"alpha": ' + LONG_INTEGER.encode() + b"}")
@example(json.dumps({**_BASE_MODEL, "alpha": math.nan}).encode())
@example(b"\xff" + json.dumps(_BASE_MODEL).encode())
def test_model_readers_raise_only_corrupt_model(files_dir, data):
    path = files_dir / "model.json"
    path.write_bytes(data)
    try:
        model = load_model(path)
    except CorruptModel:
        pass
    else:
        _check_loaded(model)
    try:
        config = load_model_config(path)
    except CorruptModel:
        return
    assert config is None or isinstance(config, dict)


@needs_digit_limit
@pytest.mark.parametrize("read", [load_model, load_model_config])
def test_model_integer_beyond_digit_limit_is_corrupt(tmp_path, read):
    path = tmp_path / "model.json"
    path.write_text('{"schema_version": ' + LONG_INTEGER + "}", encoding="utf-8")
    with pytest.raises(CorruptModel, match="Exceeds the limit"):
        read(path)


_cache_lines = st.one_of(
    st.binary(max_size=40),
    st.just(b"paris\tFR\tgazetteer\t2020-01-01T00:00:00+00:00"),
    st.just(b"a\\tb\\\tNL\tremote\tt"),
    st.just(b"nowhere\t-\tgazetteer\tt\r"),
    st.just(b"x\tfr\tgazetteer\tt"),
    st.just(b"caf\xff\tFR\tgazetteer\tt"),
    st.lists(st.text(max_size=6), min_size=1, max_size=5).map(lambda f: "\t".join(f).encode("utf-8")),
)


@tmp_settings
@given(st.lists(_cache_lines, max_size=6).map(lambda lines: b"\n".join(lines)))
def test_geocode_cache_loader_never_raises(files_dir, data):
    path = files_dir / "cache.tsv"
    path.write_bytes(data)
    cache = GeocodeCache(path)
    for key in list(cache._entries):
        entry = cache.get(key)
        assert entry.country is None or is_country_code(entry.country)


# Cache lines with their ends: a line feed, CRLF, a lone carriage return
# (no line end), or none (the next line joins it, or the file ends torn).
_cache_file_lines = st.one_of(
    _cache_lines,
    st.sampled_from([
        b"",
        b"paris\tDE\tremote\tt2",
        b"paris\t-\tremote\tt3",
        b"k\\\\x\\n\tNL\tpoints\tt",
        b"trailing\\\tGB\tpoints\tt",
        b"x\t\tgazetteer\tt",
        b"x\tNL\tgazetteer",
        b"x\tNL\tgazetteer\tt\textra",
    ]),
)
_cache_files = st.lists(
    st.tuples(_cache_file_lines, st.sampled_from([b"\n", b"\r\n", b"\r", b""])), max_size=8
).map(lambda lines: b"".join(line + end for line, end in lines))


@settings(tmp_settings, max_examples=300)
@given(_cache_files)
@example(
    b"a\tNL\tsrc\tt\r\n\xffbad\tDE\tsrc\tt\n\r\n\nk\\\\t\\tx\t-\tsrc\tt\n"
    b"x\tnl\tsrc\tt\nparis\tFR\tg\tt1\nparis\t-\tg\tt2\nk3\tF"
)
@example(b"a\tNL\tsrc\tt\r\n\nb\\tc\tFR\tsrc\tt\nb\\tc\tNLX\tsrc\tt\nk3\tF")
def test_geocode_cache_loader_matches_reference(files_dir, data):
    """The whole-file loader keeps the entries and the warnings, in order,
    of the loader that decoded each line on its own."""
    path = files_dir / "cache.tsv"
    path.write_bytes(data)
    warnings: list[str] = []
    with mock.patch.object(geocode, "warn", lambda logger, message, *args: warnings.append(message % args)):
        cache = GeocodeCache(path)
    entries, expected_warnings = reference_cache_load(path)
    assert list(cache._entries.items()) == list(entries.items())
    assert warnings == expected_warnings


def _tsv_lines(*typical):
    """Lines of a table file: typical rows, and any text."""
    return st.lists(st.one_of(st.sampled_from(typical), st.text(max_size=16)), max_size=6)


gazetteer_lines = _tsv_lines(
    "paris\tFR", "Paris \tFR", "paris\tDE", "x\tzz", "lima\tZZ", "\tFR", "a\tb\tc", "# comment", ""
)
reverse_point_lines = _tsv_lines(
    "52.16\t4.49\tNL\tLeiden", "95\t0\tNL\tx", "nan\t0\tNL\tx", "0\tinf\tNL\tx", "1_0\t0\tnl\tx",
    "a\tb\tNL\tx", "0\t0\tNL", "# comment", "",
)
region_lines = _tsv_lines("NL", " DE ", "nl", "ZZ", "NLD", "# comment", "")


def _file_bytes(lines):
    """The lines as a file: UTF-8 text, or the same with a byte that is not UTF-8."""
    text = "\n".join(lines).encode("utf-8", "surrogatepass")
    return st.sampled_from([text, text + b"\n", b"\xff" + text])


@given(gazetteer_lines)
def test_parse_gazetteer_raises_only_value_error(lines):
    try:
        table = parse_gazetteer(lines, "fuzz")
    except (ValueError, ConflictingEntry):
        return
    assert all(is_country_code(country) for country, _ in table._entries.values())


@given(reverse_point_lines)
def test_parse_reverse_points_raises_only_value_error(lines):
    try:
        points = parse_reverse_points(lines, "fuzz")
    except ValueError:
        return
    for point in points:
        assert -90 <= point.lat <= 90 and -180 <= point.lon <= 180
        assert is_country_code(point.country)


@tmp_settings
@given(region_lines.flatmap(_file_bytes))
def test_load_region_raises_only_value_error(files_dir, data):
    path = files_dir / "region.txt"
    path.write_bytes(data)
    try:
        codes = load_region(path)
    except ValueError:  # UnicodeDecodeError is one
        return
    assert codes and all(is_country_code(code) and code != "ZZ" for code in codes)


# Each line-table reader: its loader of a path, its parser of text lines (None
# when it reads only files), two good rows, and a row holding "{sep}" with the
# error it gives as long as it stays one line.
TABLE_READERS = {
    "config": (parse_config_file, None, ["top = 3", "seed = 1"], "bogus{sep}top = 3", "unknown config key"),
    "region": (load_region, _parse_region, ["NL", "DE"], "NL{sep}DE", "invalid country code"),
    "gazetteer": (
        load_gazetteer, parse_gazetteer, ["Paris\tFR", "Lyon\tFR"], "Paris\tFR{sep}Lyon\tFR",
        "expected name<TAB>alpha2",
    ),
    "reverse points": (
        load_reverse_points, parse_reverse_points, ["52\t4\tNL\tA", "51\t5\tNL\tB"],
        "52\t4\tNL\tA{sep}51\t5\tNL\tB", "expected lat, lon, alpha2, name",
    ),
}


@pytest.mark.parametrize(
    "name, feed",
    [
        (name, feed)
        for name, reader in TABLE_READERS.items()
        for feed in ("path", "lines")
        if feed == "path" or reader[1] is not None
    ],
)
def test_table_readers_share_one_line_rule(tmp_path, name, feed):
    """UTF-8, lines end at a line feed (a carriage return before it is dropped),
    and every error names its source and line."""
    load, parse, rows, joined, error = TABLE_READERS[name]
    path = tmp_path / "table.txt"
    source = str(path) if feed == "path" else "lines"

    def read(data: bytes):
        if feed == "lines":
            return parse(data.decode("utf-8").split("\n"), source)
        path.write_bytes(data)
        return load(path)

    assert len(read("".join(row + "\r\n" for row in rows).encode("utf-8"))) == 2
    for sep in ("\r", "\f", "\u2028"):
        with pytest.raises(ValueError, match=re.escape(f"{source}:2: {error}")):
            read(f"{rows[0]}\n{joined.format(sep=sep)}\n".encode("utf-8"))
    if feed == "path":
        with pytest.raises(ValueError, match=re.escape(f"{source}:2: ")):
            read(f"{rows[0]}\n".encode("utf-8") + b"\xff" + rows[1].encode("utf-8"))
    if name == "reverse points":
        with pytest.raises(ValueError, match=re.escape(f"{source}:2: coordinates must be numbers")):
            read(b"52\t4\tNL\tA\nabc\t4\tNL\tB\n")


# What each table's two good rows read as, when the first row is read whole.
_TABLES_READ = {
    "config": lambda table: table == {"top": 3, "seed": 1},
    "region": lambda table: table == {"NL", "DE"},
    "gazetteer": lambda table: len(table) == 2 and table.get("Paris") == "FR",
    "reverse points": lambda table: len(table) == 2,
}


@pytest.mark.parametrize("name", TABLE_READERS)
def test_table_readers_drop_a_leading_byte_order_mark(tmp_path, name):
    """A file saved as UTF-8 with a BOM reads like the same file without it."""
    load, _, rows, _, _ = TABLE_READERS[name]
    path = tmp_path / "table.txt"
    path.write_bytes("\ufeff".encode("utf-8") + "".join(row + "\n" for row in rows).encode("utf-8"))
    assert _TABLES_READ[name](load(path))


def test_table_lines_drops_one_byte_order_mark_from_bytes_only():
    assert list(table_lines(b"\xef\xbb\xbf\xef\xbb\xbfa\nb\n", "t")) == [("t:1", "\ufeffa"), ("t:2", "b")]
    assert list(table_lines(["\ufeffa\n"], "t")) == [("t:1", "\ufeffa")]
    # A BOM before a comment or a blank line leaves it skipped.
    assert list(table_lines(b"\xef\xbb\xbf# note\nb\n", "t")) == [("t:2", "b")]
    gazetteer = parse_gazetteer(b"\xef\xbb\xbfAmsterdam\tNL\nLeiden\tNL\n", "g")
    assert gazetteer.lookup("Amsterdam") == "NL"


# Path-valued config keys and flags draw from these names in the run directory.
_PATH_NAMES = (
    "labeled.ndjson", "raw.ndjson", "model.json", "gazetteer.tsv", "points.tsv", "region.txt",
    "cache.tsv", "missing.json", "sub", "sub/new.ndjson", "nodir/new.ndjson",
)
_PATH_KEYS = {
    "input", "output", "model", "eval_input", "report_json", "report_csv", "region_file",
    "gazetteer", "reverse_points", "cache",
}
_setting_values = st.one_of(
    st.sampled_from(
        [
            "", "0", "1", "-1", "2", "3", "10", "1e309", "inf", "nan", "1" * 5000, "true", "off",
            "location", "timezone+utc_offset", "location,bogus", "table1", "timezone;", ";",
            "standard", "inverted", "none", "remote",
        ]
    ),
    st.text(max_size=12),
)
_path_values = st.sampled_from(("",) + _PATH_NAMES)


@st.composite
def config_files(draw):
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        key = draw(st.one_of(st.sampled_from(sorted(CONFIG_FIELDS)), st.text(max_size=6)))
        value = draw(_path_values if key in _PATH_KEYS else _setting_values)
        lines.append(draw(st.sampled_from([f"{key} = {value}", f"{key}={value}", key, f"# {key}"])))
    return lines


@tmp_settings
@given(config_files().flatmap(_file_bytes))
def test_parse_config_file_raises_only_value_error(files_dir, data):
    path = files_dir / "config.txt"
    path.write_bytes(data)
    try:
        values = parse_config_file(path)
    except ValueError:  # UnicodeDecodeError is one
        return
    assert set(values) <= set(CONFIG_FIELDS)


# Each command with the paths it needs, which a run may pass or leave to the config file.
_COMMANDS = (
    (["label"], ["--input", "raw.ndjson", "--output", "sub/new.ndjson", "--cache", "cache.tsv"]),
    (["train"], ["--input", "labeled.ndjson", "--model", "sub/new.ndjson", "--cache", "cache.tsv"]),
    (["classify"], ["--input", "raw.ndjson", "--model", "model.json", "--output", "sub/new.ndjson",
                    "--cache", "cache.tsv"]),
    (["evaluate"], ["--input", "labeled.ndjson", "--cache", "cache.tsv"]),
    (["ablate"], ["--input", "labeled.ndjson", "--cache", "cache.tsv"]),
    (["report"], ["--input", "labeled.ndjson", "--cache", "cache.tsv"]),
    (["cache", "stats"], ["--cache", "cache.tsv"]),
    (["cache", "compact"], ["--cache", "cache.tsv"]),
)


def _fixture_files() -> dict[str, bytes]:
    """The valid files a run reads, by name: a model, raw and labeled NDJSON and a cache."""
    corpus = make_separable_corpus(per_country=3)
    labeled = [{**to_flat_dict(tweet), "country": country} for tweet, country in corpus.examples]
    raw = [to_flat_dict(tweet) for tweet, _ in corpus.examples] + [{"coordinates": [4.49, 52.16]}]
    model = model_to_dict(train([(extract_features(t), c) for t, c in corpus.examples]), {"case_fold": True})
    return {
        "model.json": (json.dumps(model, sort_keys=True, indent=2) + "\n").encode("utf-8"),
        "raw.ndjson": "".join(json.dumps(r) + "\n" for r in raw).encode("utf-8"),
        "labeled.ndjson": "".join(json.dumps(r) + "\n" for r in labeled).encode("utf-8"),
        "cache.tsv": b"paris\tFR\tgazetteer\t2024-01-01T00:00:00+00:00\nreverse:0,0\t-\tpoints\tt\n",
    }


_FIXTURES = _fixture_files()
# What a run of the command's own paths may exit with when one file is damaged:
# a model file is corrupt (3), a labeled line malformed (2); a malformed raw line
# or cache line is skipped.
_DAMAGE_EXITS = {"model.json": (EXIT_OK, EXIT_MODEL), "raw.ndjson": (EXIT_OK,),
                 "labeled.ndjson": (EXIT_OK, EXIT_INPUT), "cache.tsv": (EXIT_OK,)}
_PREFIXES = {error.exit_code: error.prefix + ": " for error in (TweetCountryError, CorruptModel, GeocodingError)}
# Inserted by a damaging edit: NUL, BOM, U+2028, a lone surrogate's bytes, a
# carriage return, tab, backslash, three numbers JSON has no float for, and
# brackets, the last nested too deep to decode.
_INSERTS = (
    b"\x00", "\ufeff".encode(), "\u2028".encode(), b"\xed\xa0\x80", b"\r", b"\t", b"\\", b"NaN",
    b"1e999", b"9" * 30, b"[", b"]", b"{}", b"[" * 100_000,
)
# One edit (position, bytes cut there, bytes put there): a deletion, an
# overwritten byte or an insertion. A position wraps around the file's length.
_edits = st.lists(
    st.one_of(
        st.tuples(st.integers(0), st.integers(1, 8), st.just(b"")),
        st.tuples(st.integers(0), st.just(1), st.binary(min_size=1, max_size=1)),
        st.tuples(st.integers(0), st.just(0), st.sampled_from(_INSERTS)),
    ),
    min_size=1,
    max_size=4,
)


def _pairs(paths):
    return [paths[i : i + 2] for i in range(0, len(paths), 2)]


def _damaged(data: bytes, edits) -> bytes:
    for at, cut, put in edits:
        at %= len(data) + 1
        data = data[:at] + put + data[at + cut :]
    return data


def _options(words):
    """(option, dest, takes a value) of one subcommand, read from the CLI's own parser."""
    parser = build_parser()
    for word in words:
        parser = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices[word]
    return [
        (option, action.dest, action.nargs != 0)
        for action in parser._actions
        for option in action.option_strings
        if option.startswith("--") and option not in ("--help", "--config")
    ]


def _flag(option):
    name, dest, takes_value = option
    if not takes_value:
        return st.just([name])
    return st.tuples(st.just(name), _path_values if dest in _PATH_KEYS else _setting_values).map(list)


@st.composite
def cli_runs(draw):
    """(subcommand words, flags, whether to pass the config file, damage).
    Half the runs pass just the command's own paths; the rest fuzz its flags
    and may pass the config file. Damage is None, or one file the command
    reads with the edits that damage it."""
    words, paths = draw(st.sampled_from(_COMMANDS))
    readable = [name for name in paths[1::2] if name in _FIXTURES]
    damage = draw(st.none() | st.tuples(st.sampled_from(readable), _edits))
    pairs = _pairs(paths)
    if draw(st.booleans()):
        return words, pairs, False, damage
    flags = pairs if draw(st.booleans()) else []
    flags += draw(st.lists(st.sampled_from(_options(words)).flatmap(_flag), max_size=3))
    return words, flags, draw(st.booleans()), damage


def _write_run_files(run_dir, damage, config, gazetteer, points, region):
    for name, data in _FIXTURES.items():
        (run_dir / name).write_bytes(_damaged(data, damage[1]) if damage and damage[0] == name else data)
    (run_dir / "config.txt").write_bytes(config)
    (run_dir / "gazetteer.tsv").write_bytes(gazetteer)
    (run_dir / "points.tsv").write_bytes(points)
    (run_dir / "region.txt").write_bytes(region)
    (run_dir / "sub").mkdir(exist_ok=True)
    for leftover in ("missing.json", "sub/new.ndjson"):
        (run_dir / leftover).unlink(missing_ok=True)


def _files(run_dir) -> dict[str, bytes]:
    return {str(path.relative_to(run_dir)): path.read_bytes() for path in run_dir.rglob("*") if path.is_file()}


def _resolved_cache(argv) -> str | None:
    """The --cache a run resolves to, or None if its config does not resolve."""
    try:
        return resolve_config(build_parser(argv).parse_args(argv)).cache
    except (ValueError, OSError):
        return None


_PATHS = {" ".join(words): paths for words, paths in _COMMANDS}


def _plain_run(words, damaged, *edits):
    """The run of the command's own paths with one file damaged by edits."""
    return words, _pairs(_PATHS[" ".join(words)]), False, (damaged, list(edits))


# Each catch that turns a decoding failure into a documented error: nesting
# too deep for the JSON decoder, an unhashable kind name ({} in place of the
# model's first enabled kind, "location") and bytes that are not UTF-8.
@settings(tmp_settings, max_examples=200, deadline=None)
@example(_plain_run(["train"], "labeled.ndjson", (0, 0, b"[" * 100_000)), b"", b"", b"", b"")
@example(
    _plain_run(["classify"], "model.json", (_FIXTURES["model.json"].index(b'"location"'), 10, b"{}")),
    b"", b"", b"", b"",
)
@example(_plain_run(["classify"], "model.json", (0, 0, b"\xed\xa0\x80")), b"", b"", b"", b"")
@given(
    cli_runs(),
    config_files().flatmap(_file_bytes),
    gazetteer_lines.flatmap(_file_bytes),
    reverse_point_lines.flatmap(_file_bytes),
    region_lines.flatmap(_file_bytes),
)
def test_cli_main_returns_a_documented_exit_code(
    files_dir, capsys, monkeypatch, run, config, gazetteer, points, region
):
    run_dir = files_dir / "cli"
    run_dir.mkdir(exist_ok=True)
    # Every path value is relative, so nothing a fuzzed run writes lands outside run_dir.
    monkeypatch.chdir(run_dir)
    words, flags, use_config, damage = run
    _write_run_files(run_dir, damage, config, gazetteer, points, region)
    argv = words + [part for flag in flags for part in flag]
    plain = not use_config and argv[len(words) :] == _PATHS[" ".join(words)]
    if use_config:
        argv += ["--config", "config.txt"]
    before = _files(run_dir)
    try:
        code = main(argv)
    except SystemExit as exc:
        # argparse rejects a flag value of the wrong type.
        assert exc.code == EXIT_INPUT
        return
    finally:
        err = capsys.readouterr().err
    assert code in (EXIT_OK, EXIT_INPUT, EXIT_MODEL, EXIT_GEOCODER)
    if plain:
        assert code in (_DAMAGE_EXITS[damage[0]] if damage else (EXIT_OK,)), err
    if code != EXIT_OK:
        assert err.count("\n") == 1 and err.startswith(_PREFIXES[code]), err
        # Only the cache may change: every other file, an output target or a
        # temporary file beside one, keeps its bytes or stays absent.
        after = _files(run_dir)
        changed = {name for name in before.keys() | after.keys() if before.get(name) != after.get(name)}
        assert changed <= {_resolved_cache(argv)}, changed
