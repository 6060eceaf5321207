"""Fuzzing the readers: whatever the input, only the documented errors escape.

Record readers raise MalformedInput, model readers CorruptModel, and the
geocode cache loader skips what it cannot read and never raises.
"""

from __future__ import annotations

import copy
import json
import math
import re

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
from tweetcountry.errors import CorruptModel, MalformedInput
from tweetcountry.evaluation import load_labeled_ndjson
from tweetcountry.features import FeatureKind
from tweetcountry.geocode import GeocodeCache
from tweetcountry.tweet_model import TweetRecord, is_country_code, parse_tweet, record_from_dict

from strategies import BEYOND_FLOAT, DIGIT_LIMIT, LONG_INTEGER, json_values, tweet_dicts, tweet_objects

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
def test_record_from_dict_raises_only_malformed_input(obj):
    try:
        record = record_from_dict(obj)
    except MalformedInput:
        return
    assert isinstance(record, TweetRecord)


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
