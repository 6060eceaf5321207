"""Reference copies of the per-record path as it was before it was tuned.

``record_from_dict`` (with ``TweetRecord``'s construction checks) and
``extract_features`` (with its per-kind if-chain) are kept here verbatim in
behaviour, so property tests can check that the tuned code returns the same
records and vectors and raises the same errors with the same messages, in
the same order. They are test oracles only; nothing in the package imports
them.
"""

from __future__ import annotations

import re
from typing import Any, Mapping

from tweetcountry.errors import GeoparserFailure, InvalidQuery, MalformedInput, RemoteUnavailable
from tweetcountry.features import FeatureKind
from tweetcountry.tweet_model import UTC_OFFSET_LIMIT, TweetRecord, is_country_code

_WHITESPACE_RUN = re.compile(r"\s+")

RECORD_FIELDS = (
    "id",
    "text",
    "user_location",
    "time_zone",
    "utc_offset_seconds",
    "tweet_language",
    "user_language",
    "longitude",
    "latitude",
    "place_country_code",
)


class ConstructionDiverged(AssertionError):
    """TweetRecord's own checks rejected fields that the reference checks accept."""


def reference_record_checks(fields: dict[str, Any]) -> None:
    """The checks TweetRecord.__post_init__ ran, in the same order."""
    longitude, latitude = fields.get("longitude"), fields.get("latitude")
    if (longitude is None) != (latitude is None):
        raise MalformedInput("longitude and latitude must be given together")
    if latitude is not None and not -90.0 <= latitude <= 90.0:
        raise MalformedInput(f"latitude out of range: {latitude!r}")
    if longitude is not None and not -180.0 <= longitude <= 180.0:
        raise MalformedInput(f"longitude out of range: {longitude!r}")
    offset = fields.get("utc_offset_seconds")
    if offset is not None and not (-UTC_OFFSET_LIMIT <= offset <= UTC_OFFSET_LIMIT):
        raise MalformedInput(f"utc offset out of range: {offset!r}")
    for name in ("tweet_language", "user_language"):
        code = fields.get(name)
        if code is not None and code != code.lower():
            raise MalformedInput(f"{name} must be lowercase: {code!r}")
    code = fields.get("place_country_code")
    if code is not None and not is_country_code(code):
        raise MalformedInput(f"invalid place country code: {code!r}")
    for name in ("user_location", "time_zone", "tweet_language", "user_language"):
        value = fields.get(name)
        if value is not None and value == "":
            raise MalformedInput(f"{name} must be absent rather than empty")


def reference_construct(**fields: Any) -> TweetRecord:
    """Run the reference checks, then build the record with the package's class."""
    reference_record_checks(fields)
    try:
        return TweetRecord(**fields)
    except MalformedInput as exc:
        raise ConstructionDiverged(f"TweetRecord rejected checked fields: {exc}") from exc


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise MalformedInput(message)


def _utf8_text(value: str, key: str) -> str:
    if not value.isascii():
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise MalformedInput(f"field {key!r} holds a lone surrogate") from None
    return value


def _opt_str(obj: Mapping[str, Any], key: str) -> str | None:
    value = obj.get(key)
    if value is None:
        return None
    _require(isinstance(value, str), f"field {key!r} must be a string, got {type(value).__name__}")
    return _utf8_text(value, key) if value != "" else None


def _opt_int(obj: Mapping[str, Any], key: str) -> int | None:
    value = obj.get(key)
    if value is None:
        return None
    _require(
        isinstance(value, int) and not isinstance(value, bool),
        f"field {key!r} must be an integer, got {value!r}",
    )
    return value


def _as_float(value: Any, what: str) -> float:
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        f"{what} must be a number, got {value!r}",
    )
    return float(value)


def _coordinate_pair(value: Any, what: str) -> tuple[float, float] | None:
    if isinstance(value, Mapping):
        value = value.get("coordinates")
    if value is None:
        return None
    _require(isinstance(value, (list, tuple)), f"{what} must be a two-number array")
    _require(len(value) == 2, f"{what} must have exactly two entries")
    return _as_float(value[0], what), _as_float(value[1], what)


def _parse_id(obj: Mapping[str, Any]) -> str:
    for key in ("id", "id_str"):
        value = obj.get(key)
        if value is None:
            continue
        if isinstance(value, str):
            return _utf8_text(value, key)
        if isinstance(value, int) and not isinstance(value, bool):
            return str(value)
        raise MalformedInput(f"field {key!r} must be a string or integer, got {value!r}")
    return ""


def _parse_lon_lat(obj: Mapping[str, Any]) -> tuple[float | None, float | None]:
    if "lon" in obj or "lat" in obj:
        lon, lat = obj.get("lon"), obj.get("lat")
        if lon is None and lat is None:
            return None, None
        _require(lon is not None and lat is not None, "lon and lat must be given together")
        return _as_float(lon, "lon"), _as_float(lat, "lat")
    pair = _coordinate_pair(obj.get("coordinates"), "coordinates")
    if pair is not None:
        return pair
    pair = _coordinate_pair(obj.get("geo"), "geo")
    if pair is not None:
        return pair[1], pair[0]
    return None, None


def reference_record_from_dict(obj: Mapping[str, Any]) -> TweetRecord:
    _require(isinstance(obj, Mapping), "tweet must be a JSON object")

    user = obj.get("user")
    if user is None:
        user = {}
    _require(isinstance(user, Mapping), "field 'user' must be an object")
    place = obj.get("place")
    if place is None:
        place = {}
    _require(isinstance(place, Mapping), "field 'place' must be an object")

    user_location = _opt_str(obj, "user_location")
    if user_location is None:
        user_location = _opt_str(user, "location")

    time_zone = _opt_str(obj, "time_zone")
    if time_zone is None:
        time_zone = _opt_str(user, "time_zone")

    utc_offset = _opt_int(obj, "utc_offset_seconds")
    if utc_offset is None:
        utc_offset = _opt_int(user, "utc_offset")

    tweet_language = _opt_str(obj, "tweet_language")
    if tweet_language is None:
        tweet_language = _opt_str(obj, "lang")

    user_language = _opt_str(obj, "user_language")
    if user_language is None:
        user_language = _opt_str(user, "lang")

    place_code = _opt_str(obj, "place_country_code")
    if place_code is None:
        place_code = _opt_str(place, "country_code")
    if place_code is not None:
        _require(
            len(place_code) == 2 and place_code.isascii() and place_code.isalpha(),
            f"invalid place country code: {place_code!r}",
        )
        place_code = place_code.upper()

    lon, lat = _parse_lon_lat(obj)

    text = obj.get("text")
    if text is None:
        text = ""
    _require(isinstance(text, str), f"field 'text' must be a string, got {type(text).__name__}")
    _utf8_text(text, "text")

    return reference_construct(
        id=_parse_id(obj),
        text=text,
        user_location=user_location,
        time_zone=time_zone,
        utc_offset_seconds=utc_offset,
        tweet_language=tweet_language.lower() if tweet_language else None,
        user_language=user_language.lower() if user_language else None,
        longitude=lon,
        latitude=lat,
        place_country_code=place_code,
    )


def _clean(text: str, case_fold: bool) -> str:
    cleaned = _WHITESPACE_RUN.sub(" ", text.strip())
    return cleaned.casefold() if case_fold else cleaned


def reference_extract_features(tweet, geoparser=None, enabled=tuple(FeatureKind), *, case_fold=True):
    if not enabled:
        raise ValueError("enabled kinds must be non-empty")
    wanted = set(enabled)
    vector = {}
    for kind in FeatureKind:
        if kind not in wanted:
            continue
        value = _value_for(kind, tweet, geoparser, case_fold)
        if value:
            vector[kind] = value
    return vector


def _value_for(kind, tweet, geoparser, case_fold):
    if kind is FeatureKind.LOCATION:
        if tweet.user_location is None:
            return None
        return _clean(tweet.user_location, case_fold)
    if kind is FeatureKind.TIMEZONE:
        if tweet.time_zone is None:
            return None
        return tweet.time_zone.casefold() if case_fold else tweet.time_zone
    if kind is FeatureKind.TWEET_LANGUAGE:
        return tweet.tweet_language
    if kind is FeatureKind.GEOPARSED:
        if tweet.user_location is None or geoparser is None:
            return None
        if not tweet.user_location.strip():
            return None
        try:
            return geoparser.forward(tweet.user_location)
        except (GeoparserFailure, InvalidQuery, RemoteUnavailable):
            return None
    if kind is FeatureKind.UTC_OFFSET:
        if tweet.utc_offset_seconds is None:
            return None
        return str(tweet.utc_offset_seconds)
    if kind is FeatureKind.USER_LANGUAGE:
        return tweet.user_language
    raise AssertionError(f"unhandled kind {kind!r}")
