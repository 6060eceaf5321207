"""Parsing, validation, and labeling of raw tweet records."""

from __future__ import annotations

import json
import math
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tweetcountry.errors import MalformedInput, RemoteUnavailable, ResolverFailure
from tweetcountry.tweet_model import (
    OTHER_LABEL,
    TweetRecord,
    decode_object,
    is_country_code,
    label_of,
    labeled_line,
    parse_tweet,
    prediction_line,
    record_from_dict,
    to_flat_dict,
)

from reference_impl import (
    ConstructionDiverged,
    reference_construct,
    reference_decode_object,
    reference_dump_line,
    reference_record_from_dict,
)
from strategies import (
    BEYOND_FLOAT,
    DIGIT_LIMIT,
    LONG_INTEGER,
    TOO_LONG_FOR_TEXT,
    integers,
    json_values,
    numbers,
    strings,
    tweet_dicts,
    tweet_objects,
)


def test_is_country_code():
    assert is_country_code("NL")
    assert is_country_code("ZZ")
    assert not is_country_code("nl")
    assert not is_country_code("N")
    assert not is_country_code("NLD")
    assert not is_country_code("N1")
    assert not is_country_code("")


def test_other_label_is_a_valid_code():
    assert OTHER_LABEL == "ZZ"
    assert is_country_code(OTHER_LABEL)


class TestNestedLayout:
    def test_full_record(self, nested_tweet_json):
        tweet = parse_tweet(nested_tweet_json)
        assert tweet == TweetRecord(
            id="123456789",
            text="I love this city!",
            user_location="Awesome Enschede",
            time_zone="Amsterdam",
            utc_offset_seconds=3600,
            tweet_language="nl",
            user_language="nl",
            longitude=4.48431747,
            latitude=52.1674388,
            place_country_code="NL",
        )

    def test_missing_fields_become_none(self):
        tweet = record_from_dict({"id": 1, "text": "hi"})
        assert tweet.user_location is None
        assert tweet.time_zone is None
        assert tweet.utc_offset_seconds is None
        assert tweet.tweet_language is None
        assert tweet.user_language is None
        assert tweet.longitude is None and tweet.latitude is None
        assert tweet.place_country_code is None

    def test_id_str_preferred_over_missing_id(self):
        assert record_from_dict({"id_str": "42"}).id == "42"

    def test_null_and_empty_values_are_absent(self):
        tweet = record_from_dict(
            {
                "user": {"location": "", "time_zone": None, "utc_offset": None, "lang": ""},
                "coordinates": None,
                "place": None,
                "lang": None,
            }
        )
        assert tweet == TweetRecord()

    def test_geo_field_uses_latitude_first(self):
        tweet = record_from_dict({"geo": {"type": "Point", "coordinates": [52.0, 4.0]}})
        assert tweet.latitude == 52.0
        assert tweet.longitude == 4.0

    def test_coordinates_field_wins_over_geo(self):
        tweet = record_from_dict(
            {
                "coordinates": {"type": "Point", "coordinates": [4.0, 52.0]},
                "geo": {"type": "Point", "coordinates": [-10.0, -20.0]},
            }
        )
        assert (tweet.longitude, tweet.latitude) == (4.0, 52.0)

    def test_bare_coordinate_pair_accepted(self):
        tweet = record_from_dict({"coordinates": [4.0, 52.0]})
        assert (tweet.longitude, tweet.latitude) == (4.0, 52.0)

    def test_place_code_uppercased(self):
        assert record_from_dict({"place": {"country_code": "nl"}}).place_country_code == "NL"

    def test_languages_lowercased(self):
        tweet = record_from_dict({"lang": "NL", "user": {"lang": "EN-GB"}})
        assert tweet.tweet_language == "nl"
        assert tweet.user_language == "en-gb"

    def test_unknown_keys_ignored(self):
        tweet = record_from_dict({"retweet_count": 5, "entities": {"urls": []}, "id": 7})
        assert tweet.id == "7"


class TestFlatLayout:
    def test_full_record(self):
        tweet = record_from_dict(
            {
                "id": "9",
                "text": "x",
                "user_location": "Paris",
                "time_zone": "Paris",
                "utc_offset_seconds": 7200,
                "tweet_language": "fr",
                "user_language": "fr",
                "lon": 2.35,
                "lat": 48.85,
                "place_country_code": "FR",
            }
        )
        assert tweet.user_location == "Paris"
        assert tweet.utc_offset_seconds == 7200
        assert (tweet.longitude, tweet.latitude) == (2.35, 48.85)
        assert tweet.place_country_code == "FR"

    def test_flat_keys_win_over_nested(self):
        tweet = record_from_dict(
            {
                "user": {"location": "nested", "utc_offset": 0},
                "user_location": "flat",
                "utc_offset_seconds": 3600,
            }
        )
        assert tweet.user_location == "flat"
        assert tweet.utc_offset_seconds == 3600


class TestValidation:
    def test_longitude_without_latitude(self):
        with pytest.raises(MalformedInput):
            record_from_dict({"lon": 4.0})

    def test_latitude_out_of_range(self):
        with pytest.raises(MalformedInput):
            record_from_dict({"lon": 4.0, "lat": 91.0})

    def test_longitude_out_of_range(self):
        with pytest.raises(MalformedInput):
            record_from_dict({"lon": -180.5, "lat": 0.0})

    def test_offset_out_of_range(self):
        with pytest.raises(MalformedInput):
            record_from_dict({"utc_offset_seconds": 50401})

    def test_offset_must_be_an_integer(self):
        with pytest.raises(MalformedInput):
            record_from_dict({"utc_offset_seconds": "3600"})
        with pytest.raises(MalformedInput):
            record_from_dict({"utc_offset_seconds": True})

    def test_bad_place_code(self):
        with pytest.raises(MalformedInput):
            record_from_dict({"place_country_code": "NLD"})
        with pytest.raises(MalformedInput):
            record_from_dict({"place": {"country_code": "N1"}})

    def test_non_object_input(self):
        for bad in ("[1, 2]", '"text"', "3"):
            with pytest.raises(MalformedInput):
                parse_tweet(bad)

    def test_invalid_json(self):
        with pytest.raises(MalformedInput):
            parse_tweet("{not json")
        with pytest.raises(MalformedInput, match="invalid JSON"):
            parse_tweet("[" * 200_000)

    @pytest.mark.parametrize(
        "obj",
        [
            {"user_location": "x\ud800"},
            {"user": {"location": "\udfff"}},
            {"time_zone": "\ud800"},
            {"lang": "\ud800"},
            {"user": {"lang": "\ud800"}},
            {"id": "\ud800"},
            {"id_str": "1\ud800"},
            {"text": "caf\udcff"},
            {"place": {"country_code": "\ud800"}},
        ],
    )
    def test_lone_surrogate_is_malformed(self, obj):
        with pytest.raises(MalformedInput, match="lone surrogate|invalid place country code"):
            parse_tweet(json.dumps(obj))

    def test_non_ascii_text_is_kept(self):
        tweet = parse_tweet(json.dumps({"id": "é1", "text": "café 😀", "user_location": "Zürich"}))
        assert (tweet.id, tweet.text, tweet.user_location) == ("é1", "café 😀", "Zürich")

    @pytest.mark.parametrize("levels", [2, 5000])
    def test_geojson_object_unwrapped_once(self, levels):
        nested = [4.0, 52.0]
        for _ in range(levels):
            nested = {"coordinates": nested}
        with pytest.raises(MalformedInput, match="coordinates must be a two-number array"):
            record_from_dict({"coordinates": nested})

    def test_direct_construction_checks_invariants(self):
        with pytest.raises(MalformedInput):
            TweetRecord(latitude=52.0)
        with pytest.raises(MalformedInput):
            TweetRecord(tweet_language="NL")
        with pytest.raises(MalformedInput):
            TweetRecord(user_location="")


coordinate_pairs = st.one_of(
    st.none(),
    st.tuples(
        st.floats(min_value=-180.0, max_value=180.0, allow_nan=False),
        st.floats(min_value=-90.0, max_value=90.0, allow_nan=False),
    ),
)
free_text = st.text(min_size=1, max_size=20).filter(lambda s: "\x00" not in s)
language_codes = st.from_regex(r"[a-z]{2}(-[a-z]{2})?", fullmatch=True)

records = st.builds(
    lambda ident, loc, tz, offset, tlang, ulang, pair, place: TweetRecord(
        id=ident,
        text="t",
        user_location=loc,
        time_zone=tz,
        utc_offset_seconds=offset,
        tweet_language=tlang,
        user_language=ulang,
        longitude=pair[0] if pair else None,
        latitude=pair[1] if pair else None,
        place_country_code=place,
    ),
    ident=st.from_regex(r"[0-9]{1,6}", fullmatch=True),
    loc=st.none() | free_text,
    tz=st.none() | free_text,
    offset=st.none() | st.integers(min_value=-50400, max_value=50400),
    tlang=st.none() | language_codes,
    ulang=st.none() | language_codes,
    pair=coordinate_pairs,
    place=st.none() | st.from_regex(r"[A-Z]{2}", fullmatch=True),
)


@given(records)
def test_flat_dict_round_trip(tweet):
    again = parse_tweet(json.dumps(to_flat_dict(tweet)))
    assert again == tweet


# Few drawn dicts are valid records, so valid records are drawn directly too.
@settings(max_examples=300)
@given(st.one_of(records, tweet_dicts), strings, strings)
@example({"lon": -0.0, "lat": 5e-324}, "NL", "0" * 64)
@example({"lon": 1e-05, "lat": -1e-05}, "NL", "0" * 64)
@example({"lon": 180.0, "lat": 90.0, "utc_offset_seconds": 50400}, "NL", "0" * 64)
@example({"lon": -180.0, "lat": -90.0, "utc_offset_seconds": -50400}, "NL", "0" * 64)
@example(
    {
        "id": 'q"uote',
        "text": "back\\slash \x00 \x7f \u2028 \U0001f600",
        "user_location": "\x00\x1f",
        "time_zone": "\u2028\u2029",
        "tweet_language": "\x7f",
        "user_language": '"',
        "place_country_code": "nl",
    },
    '\\"',
    "\U0001f600\x00",
)
def test_labeled_line_matches_the_line_encoder(obj, country, digest):
    if isinstance(obj, TweetRecord):
        record = obj
    else:
        try:
            record = record_from_dict(obj)
        except MalformedInput:
            return
    expected = reference_dump_line({**to_flat_dict(record), "country": country, "config_sha256": digest}) + "\n"
    assert labeled_line(record, country, digest) == expected


# log_posterior's scores: finite, or -inf for a class a zero count ruled out.
_scores = st.one_of(
    st.sampled_from([-math.inf, -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-05, -1e-05, -1e300]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.just(-math.inf),
)
_tags = st.lists(
    st.one_of(st.sampled_from(["BIG_CLASS", "LIMITED_INFORMATION", "OOV_ONLY"]), strings),
    max_size=3,
)
_NASTY = 'q"\\ \x00\x1f\x7f \u2028\u2029 é \U0001f600'


@settings(max_examples=300)
@given(strings, st.lists(st.tuples(strings, _scores), min_size=1, max_size=6), _tags, strings)
@example("1", [("NL", -0.5)], [], "0" * 64)
@example(_NASTY, [(_NASTY, -math.inf)], ["OOV_ONLY"], _NASTY)
@example(
    "\U0001f600",
    [("NL", -0.0), ("GB", 5e-324), ("FR", 1e-05), ("DE", -1e300), ("ZZ", -math.inf)],
    ["BIG_CLASS", "LIMITED_INFORMATION"],
    "\u2028",
)
def test_prediction_line_matches_the_line_encoder(tweet_id, ranked, tags, digest):
    # The dict classify once built per tweet, with -inf scores as None.
    obj = {
        "id": tweet_id,
        "predicted": ranked[0][0],
        "top": [
            {"country": country, "log_score": score if score != -math.inf else None}
            for country, score in ranked
        ],
        "diagnostics": tags,
        "config_sha256": digest,
    }
    assert prediction_line(tweet_id, ranked, tags, digest) == reference_dump_line(obj) + "\n"


class FixedResolver:
    def __init__(self, country):
        self.country = country
        self.calls = []

    def reverse(self, lat, lon):
        self.calls.append((lat, lon))
        if isinstance(self.country, Exception):
            raise self.country
        return self.country


class TestLabelOf:
    def test_place_code_short_circuits(self):
        resolver = FixedResolver("US")
        tweet = TweetRecord(place_country_code="NL", longitude=4.0, latitude=52.0)
        assert label_of(tweet, resolver) == "NL"
        assert resolver.calls == []

    def test_coordinates_resolved(self):
        resolver = FixedResolver("NL")
        tweet = TweetRecord(longitude=4.48, latitude=52.16)
        assert label_of(tweet, resolver) == "NL"
        assert resolver.calls == [(52.16, 4.48)]

    def test_no_geo_info_yields_none(self):
        assert label_of(TweetRecord(user_location="Paris"), FixedResolver("FR")) is None

    def test_unresolvable_coordinates(self):
        with pytest.raises(ResolverFailure):
            label_of(TweetRecord(longitude=0.0, latitude=0.0), FixedResolver(None))

    def test_remote_unavailable_surfaces_as_resolver_failure(self):
        resolver = FixedResolver(RemoteUnavailable("down"))
        with pytest.raises(ResolverFailure):
            label_of(TweetRecord(longitude=4.0, latitude=52.0), resolver)

    def test_coordinates_without_resolver(self):
        with pytest.raises(ResolverFailure):
            label_of(TweetRecord(longitude=4.0, latitude=52.0), None)


# Documents for decode_object: any text and bytes, JSON values, tweet objects,
# and tweet objects with text around them that json.loads treats apart
# (whitespace, a byte order mark) or rejects (a second value, stray text).
_around = st.sampled_from(["", " ", "\t", "\n", "\r\n", "\ufeff", "x", "{}", "]", ","])
json_documents = st.one_of(
    st.text(),
    st.binary(),
    json_values.map(json.dumps),
    tweet_dicts.map(json.dumps),
    tweet_dicts.map(lambda obj: json.dumps(obj, ensure_ascii=False)),
    st.tuples(_around, tweet_dicts.map(json.dumps), _around).map("".join),
    tweet_dicts.map(lambda obj: json.dumps(obj).encode("utf-8")),
)


def _outcome(function, *args, **kwargs):
    """("record", repr) or ("error", type, message) of one call."""
    try:
        record = function(*args, **kwargs)
    except ConstructionDiverged:
        raise
    except Exception as exc:
        return ("error", type(exc), str(exc))
    return ("record", repr(record))


class TestMatchesReference:
    """The tuned parser against a copy of the untuned one (tests/reference_impl.py)."""

    @settings(max_examples=300)
    @given(tweet_objects)
    @example(
        {
            "user_location": "flat",
            "time_zone": "flat",
            "utc_offset_seconds": 3600,
            "tweet_language": "en",
            "lang": "fr",
            "user_language": "nl",
            "place_country_code": "NL",
            "lon": 1.0,
            "lat": 2.0,
            "coordinates": [3.0, 4.0],
            "geo": [5.0, 6.0],
            "user": {"location": "nested", "time_zone": "nested", "utc_offset": 7200, "lang": "de"},
            "place": {"country_code": "GB"},
        }
    )
    @example({"coordinates": {"type": "Point", "coordinates": [3, 4]}, "geo": [5, 6]})
    @example({"lon": BEYOND_FLOAT, "lat": 0, "text": 5})
    @example({"coordinates": {"coordinates": [BEYOND_FLOAT, 0]}})
    @example({"lon": 1.0, "user": [], "text": None, "place_country_code": "N1"})
    @example({"lang": "EN", "user": {"lang": ""}, "utc_offset_seconds": True})
    @example(MappingProxyType({"user": MappingProxyType({"location": "x"}), "geo": (52.0, 4.0)}))
    @example({"id": TOO_LONG_FOR_TEXT})
    @example({"utc_offset_seconds": -TOO_LONG_FOR_TEXT})
    @example({"lon": TOO_LONG_FOR_TEXT, "lat": 0})
    def test_record_from_dict(self, obj):
        expected = _outcome(reference_record_from_dict, obj)
        actual = _outcome(record_from_dict, obj)
        if expected[:2] == ("error", OverflowError):
            # The reference let float() overflow escape; now it is malformed input.
            assert actual[:2] == ("error", MalformedInput)
            assert "out of range" in actual[2]
        elif expected[:2] == ("error", ValueError) and DIGIT_LIMIT:
            # The reference let str() or repr() of an int past the digit limit
            # escape; now it is malformed input.
            assert actual[:2] == ("error", MalformedInput)
            assert "too long to convert" in actual[2] or "out of range: <integer of" in actual[2]
        else:
            assert actual == expected

    @settings(max_examples=300)
    @given(json_documents)
    @example("\ufeff{}")
    @example(b"\xef\xbb\xbf{}")
    @example(' {"id": "1"}')
    @example('{"id": "1"} ')
    @example('{"id": "1"}\n')
    @example('{"id": "1"} {"id": "2"}')
    @example('{"id": "1"}x')
    @example("[1, 2]")
    @example("3")
    @example('"text"')
    @example("null")
    @example("")
    @example("[" * 100_000)
    @example('{"a": ' * 100_000)
    @example('{"id": ' + LONG_INTEGER + "}")
    @example('{"lon": NaN, "lat": Infinity, "x": -Infinity}')
    @example('{"id": "1", "id": "2"}')
    @example(b'{"id": "1"}')
    def test_decode_object(self, raw):
        assert _outcome(decode_object, raw) == _outcome(reference_decode_object, raw)

    @given(
        st.fixed_dictionaries(
            {},
            optional={
                "id": st.none() | strings,
                "user_location": st.none() | strings | integers,
                "time_zone": st.none() | strings,
                "utc_offset_seconds": st.none() | integers,
                "tweet_language": st.none() | strings,
                "user_language": st.none() | strings | integers,
                "longitude": st.none() | numbers | strings,
                "latitude": st.none() | numbers,
                "place_country_code": st.none() | strings,
            },
        )
    )
    @settings(max_examples=300)
    @example({"user_language": ""})
    @example({"tweet_language": ""})
    @example({"time_zone": ""})
    @example({"user_location": ""})
    @example({"user_language": "EN", "tweet_language": ""})
    @example({"latitude": 90.5, "longitude": 0})
    @example({"latitude": 0, "longitude": -180.5})
    @example({"utc_offset_seconds": 50401})
    @example({"place_country_code": "nl"})
    @example({"utc_offset_seconds": TOO_LONG_FOR_TEXT})
    @example({"latitude": -TOO_LONG_FOR_TEXT, "longitude": 0})
    def test_direct_construction(self, fields):
        expected = _outcome(reference_construct, **fields)
        actual = _outcome(TweetRecord, **fields)
        if expected[:2] == ("error", ValueError) and DIGIT_LIMIT:
            # repr() of an int past the digit limit escaped the reference's message.
            assert actual[:2] == ("error", MalformedInput)
            assert "out of range: <integer of" in actual[2]
        else:
            assert actual == expected
