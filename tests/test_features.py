"""Feature extraction and normalization."""

from __future__ import annotations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tweetcountry.errors import GeoparserFailure, InvalidQuery, RemoteUnavailable
from tweetcountry.features import (
    ALL_KINDS,
    FeatureKind,
    extract_features,
    kind_from_name,
    normalize_place,
    ordered_kinds,
)
from tweetcountry.tweet_model import TweetRecord

from reference_impl import reference_extract_features

K = FeatureKind


class StubGeoparser:
    def __init__(self, mapping=None, error=None):
        self.mapping = mapping or {}
        self.error = error
        self.queries = []

    def forward(self, text):
        self.queries.append(text)
        if self.error is not None:
            raise self.error
        return self.mapping.get(normalize_place(text))


FULL_TWEET = TweetRecord(
    id="1",
    text="hello",
    user_location="  Awesome   Enschede ",
    time_zone="Amsterdam",
    utc_offset_seconds=3600,
    tweet_language="nl",
    user_language="nl",
)


def test_kind_wire_names():
    names = [k.value for k in ALL_KINDS]
    assert names == [
        "location",
        "timezone",
        "tweet_language",
        "geoparsed",
        "utc_offset",
        "user_language",
    ]
    for kind in ALL_KINDS:
        assert kind_from_name(kind.value) is kind
    with pytest.raises(ValueError):
        kind_from_name("bogus")


def test_ordered_kinds_canonicalizes():
    assert ordered_kinds({K.USER_LANGUAGE, K.LOCATION}) == (K.LOCATION, K.USER_LANGUAGE)
    assert ordered_kinds(ALL_KINDS) == ALL_KINDS


def test_normalize_place():
    assert normalize_place("  Awesome   Enschede ") == "awesome enschede"
    assert normalize_place("PARIS") == "paris"
    assert normalize_place("a\t\n b") == "a b"


def test_full_extraction():
    parser = StubGeoparser({"awesome enschede": "NL"})
    fv = extract_features(FULL_TWEET, geoparser=parser)
    assert fv == {
        K.LOCATION: "awesome enschede",
        K.TIMEZONE: "amsterdam",
        K.TWEET_LANGUAGE: "nl",
        K.GEOPARSED: "NL",
        K.UTC_OFFSET: "3600",
        K.USER_LANGUAGE: "nl",
    }


def test_entries_follow_kind_order():
    parser = StubGeoparser({"awesome enschede": "NL"})
    fv = extract_features(FULL_TWEET, geoparser=parser)
    assert list(fv) == list(ALL_KINDS)


def test_geoparser_receives_raw_location():
    parser = StubGeoparser({"awesome enschede": "NL"})
    extract_features(FULL_TWEET, geoparser=parser)
    assert parser.queries == ["  Awesome   Enschede "]


def test_absent_fields_are_omitted():
    tweet = TweetRecord(time_zone="Amsterdam")
    assert extract_features(tweet) == {K.TIMEZONE: "amsterdam"}


def test_empty_record_gives_empty_vector():
    assert extract_features(TweetRecord()) == {}


def test_negative_offset_stringified():
    fv = extract_features(TweetRecord(utc_offset_seconds=-18000))
    assert fv[K.UTC_OFFSET] == "-18000"


def test_zero_offset_kept():
    fv = extract_features(TweetRecord(utc_offset_seconds=0))
    assert fv[K.UTC_OFFSET] == "0"


def test_without_geoparser_geoparsed_is_omitted():
    fv = extract_features(FULL_TWEET)
    assert K.GEOPARSED not in fv
    assert K.LOCATION in fv


def test_geoparser_miss_is_omitted():
    fv = extract_features(FULL_TWEET, geoparser=StubGeoparser({}))
    assert K.GEOPARSED not in fv


@pytest.mark.parametrize(
    "error", [GeoparserFailure("boom"), RemoteUnavailable("down")]
)
def test_geoparser_errors_are_swallowed(error):
    fv = extract_features(FULL_TWEET, geoparser=StubGeoparser(error=error))
    assert K.GEOPARSED not in fv
    assert fv[K.LOCATION] == "awesome enschede"


def test_geoparser_error_is_logged_as_a_warning(caplog):
    extract_features(FULL_TWEET, geoparser=StubGeoparser(error=GeoparserFailure("boom")))
    assert [(record.name, record.levelname, record.getMessage()) for record in caplog.records] == [
        ("tweetcountry.features", "WARNING", "geoparse failed for '  Awesome   Enschede ': boom")
    ]


def test_whitespace_only_location_is_omitted():
    parser = StubGeoparser({})
    fv = extract_features(TweetRecord(user_location="   "), geoparser=parser)
    assert K.LOCATION not in fv
    assert K.GEOPARSED not in fv


def test_case_fold_flag_scope():
    tweet = TweetRecord(user_location="  Awesome   Enschede ", time_zone="Amsterdam")
    fv = extract_features(tweet, case_fold=False)
    # trimming and whitespace collapse still apply; only folding is off
    assert fv[K.LOCATION] == "Awesome Enschede"
    assert fv[K.TIMEZONE] == "Amsterdam"


def test_enabled_subset_restricts_output():
    parser = StubGeoparser({"awesome enschede": "NL"})
    fv = extract_features(FULL_TWEET, geoparser=parser, enabled=(K.TIMEZONE, K.UTC_OFFSET))
    assert fv == {K.TIMEZONE: "amsterdam", K.UTC_OFFSET: "3600"}


def test_subset_extraction_agrees_with_restriction():
    parser = StubGeoparser({"awesome enschede": "NL"})
    everything = extract_features(FULL_TWEET, geoparser=parser)
    for kind in ALL_KINDS:
        partial = extract_features(FULL_TWEET, geoparser=parser, enabled=(kind,))
        expected = {k: v for k, v in everything.items() if k is kind}
        assert partial == expected


def test_empty_enabled_rejected():
    with pytest.raises(ValueError):
        extract_features(FULL_TWEET, enabled=())


@pytest.mark.parametrize(
    "enabled",
    [None, [], iter(()), ("location", "timezone"), iter(["location"]), [None]],
    ids=["None", "list", "empty-iterator", "names", "iterator-of-names", "list-of-None"],
)
def test_enabled_without_a_kind_rejected(enabled):
    parser = StubGeoparser({"awesome enschede": "NL"})
    with pytest.raises(ValueError, match="enabled kinds must be non-empty"):
        extract_features(FULL_TWEET, geoparser=parser, enabled=enabled)
    assert parser.queries == []


def test_enabled_iterator_is_read_once():
    fv = extract_features(FULL_TWEET, enabled=iter((K.UTC_OFFSET, "location", K.TIMEZONE)))
    assert fv == {K.TIMEZONE: "amsterdam", K.UTC_OFFSET: "3600"}


class ScriptedGeoparser:
    """Answers every query with one scripted outcome and records the queries."""

    def __init__(self, outcome):
        self.outcome = outcome
        self.queries = []

    def forward(self, text):
        self.queries.append(text)
        if isinstance(self.outcome, Exception):
            raise self.outcome
        return self.outcome


_place_text = st.one_of(
    st.sampled_from(["   ", " Den \t Haag ", "ÉCOSSE", "İstanbul", "straße"]),
    st.text(min_size=1, max_size=10),
)
_language = st.text(min_size=1, max_size=5).filter(lambda code: code == code.lower())
_tweets = st.builds(
    TweetRecord,
    user_location=st.none() | _place_text,
    time_zone=st.none() | _place_text,
    utc_offset_seconds=st.none() | st.integers(-50400, 50400),
    tweet_language=st.none() | _language,
    user_language=st.none() | _language,
)
_geoparse_outcomes = st.sampled_from(
    [
        None,
        "NL",
        "",
        GeoparserFailure("no answer"),
        InvalidQuery("bad query"),
        RemoteUnavailable("down"),
    ]
)


@example(
    tweet=TweetRecord(user_location=" \t ", time_zone="Amsterdam"),
    enabled=[K.LOCATION, K.TIMEZONE, K.GEOPARSED],
    case_fold=False,
    outcome="NL",
    with_geoparser=True,
)
@example(tweet=FULL_TWEET, enabled=list(ALL_KINDS), case_fold=True, outcome="", with_geoparser=True)
@example(
    tweet=FULL_TWEET,
    enabled=[K.USER_LANGUAGE, K.GEOPARSED, K.LOCATION, K.USER_LANGUAGE, K.TIMEZONE, K.LOCATION],
    case_fold=True,
    outcome="NL",
    with_geoparser=True,
)
@given(
    tweet=_tweets,
    enabled=st.lists(st.sampled_from(ALL_KINDS), min_size=1, max_size=8),
    case_fold=st.booleans(),
    outcome=_geoparse_outcomes,
    with_geoparser=st.booleans(),
)
def test_matches_reference_if_chain(tweet, enabled, case_fold, outcome, with_geoparser):
    parsers = [ScriptedGeoparser(outcome) if with_geoparser else None for _ in range(2)]
    actual = extract_features(tweet, parsers[0], enabled, case_fold=case_fold)
    expected = reference_extract_features(tweet, parsers[1], enabled, case_fold=case_fold)
    assert list(actual.items()) == list(expected.items())
    if with_geoparser:
        assert parsers[0].queries == parsers[1].queries
