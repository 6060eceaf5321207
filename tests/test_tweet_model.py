"""Parsing, validation, and labeling of raw tweet records."""

from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tweetcountry.errors import MalformedInput, RemoteUnavailable, ResolverFailure
from tweetcountry.tweet_model import (
    OTHER_LABEL,
    TweetRecord,
    is_country_code,
    label_of,
    parse_tweet,
    record_from_dict,
    to_flat_dict,
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
