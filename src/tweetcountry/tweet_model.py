"""Typed tweet records, raw JSON parsing, and ground-truth country labeling.

Two input layouts are accepted: the nested layout produced by the original
streaming API (``user.location``, ``user.time_zone``, GeoJSON ``coordinates``,
``place.country_code``) and the flattened layout this package writes
(``user_location``, ``time_zone``, ``utc_offset_seconds``, ``tweet_language``,
``user_language``, ``lon``/``lat``, ``place_country_code``). When a record
carries both spellings of a field, the flattened key wins.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping

from .errors import MalformedInput, RemoteUnavailable, ResolverFailure

# Label assigned to everything outside the kept region when collapsing.
OTHER_LABEL = "ZZ"

UTC_OFFSET_LIMIT = 50400  # widest real-world offset is +-14 hours


def is_country_code(value: Any) -> bool:
    """True when value is exactly two uppercase ASCII letters."""
    return (
        isinstance(value, str)
        and len(value) == 2
        and value.isascii()
        and value.isalpha()
        and value.isupper()
    )


@dataclass(frozen=True)
class TweetRecord:
    """One tweet's classification-relevant metadata.

    Absent fields are None; empty strings never survive parsing. Latitude and
    longitude are either both present or both absent.
    """

    id: str = ""
    text: str = ""
    user_location: str | None = None
    time_zone: str | None = None
    utc_offset_seconds: int | None = None
    tweet_language: str | None = None
    user_language: str | None = None
    longitude: float | None = None
    latitude: float | None = None
    place_country_code: str | None = None

    def __post_init__(self) -> None:
        if (self.longitude is None) != (self.latitude is None):
            raise MalformedInput("longitude and latitude must be given together")
        if self.latitude is not None and not -90.0 <= self.latitude <= 90.0:
            raise MalformedInput(f"latitude out of range: {self.latitude!r}")
        if self.longitude is not None and not -180.0 <= self.longitude <= 180.0:
            raise MalformedInput(f"longitude out of range: {self.longitude!r}")
        if self.utc_offset_seconds is not None and not (
            -UTC_OFFSET_LIMIT <= self.utc_offset_seconds <= UTC_OFFSET_LIMIT
        ):
            raise MalformedInput(f"utc offset out of range: {self.utc_offset_seconds!r}")
        for name in ("tweet_language", "user_language"):
            code = getattr(self, name)
            if code is not None and code != code.lower():
                raise MalformedInput(f"{name} must be lowercase: {code!r}")
        if self.place_country_code is not None and not is_country_code(self.place_country_code):
            raise MalformedInput(f"invalid place country code: {self.place_country_code!r}")
        for name in ("user_location", "time_zone", "tweet_language", "user_language"):
            value = getattr(self, name)
            if value is not None and value == "":
                raise MalformedInput(f"{name} must be absent rather than empty")

    @property
    def has_coordinates(self) -> bool:
        return self.latitude is not None


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise MalformedInput(message)


def _opt_str(obj: Mapping[str, Any], key: str) -> str | None:
    value = obj.get(key)
    if value is None:
        return None
    _require(isinstance(value, str), f"field {key!r} must be a string, got {type(value).__name__}")
    return value if value != "" else None


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
    """Pull a raw two-number list out of a GeoJSON-style value, or None.

    A GeoJSON object is unwrapped once; its "coordinates" must be the list.
    """
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
            return value
        if isinstance(value, int) and not isinstance(value, bool):
            return str(value)
        raise MalformedInput(f"field {key!r} must be a string or integer, got {value!r}")
    return ""


def _parse_lon_lat(obj: Mapping[str, Any]) -> tuple[float | None, float | None]:
    # Flattened lon/lat keys take precedence over either nested form.
    if "lon" in obj or "lat" in obj:
        lon, lat = obj.get("lon"), obj.get("lat")
        if lon is None and lat is None:
            return None, None
        _require(lon is not None and lat is not None, "lon and lat must be given together")
        return _as_float(lon, "lon"), _as_float(lat, "lat")
    # GeoJSON order: [longitude, latitude].
    pair = _coordinate_pair(obj.get("coordinates"), "coordinates")
    if pair is not None:
        return pair
    # Legacy geo order: [latitude, longitude].
    pair = _coordinate_pair(obj.get("geo"), "geo")
    if pair is not None:
        return pair[1], pair[0]
    return None, None


def record_from_dict(obj: Mapping[str, Any]) -> TweetRecord:
    """Build a TweetRecord from a decoded JSON object of either layout.

    Unknown keys are ignored. Present fields with the wrong type, out-of-range
    coordinates or offsets, and invalid country codes raise MalformedInput.
    """
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

    return TweetRecord(
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


def decode_object(raw: str | bytes) -> dict[str, Any]:
    """Decode one JSON document that must be an object, or raise MalformedInput.

    Nesting too deep for the decoder is malformed input too.
    """
    try:
        obj = json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise MalformedInput(f"invalid JSON: {exc}") from None
    _require(isinstance(obj, dict), "tweet must be a JSON object")
    return obj


def parse_tweet(raw: str | bytes) -> TweetRecord:
    """Parse one raw tweet JSON document into a TweetRecord."""
    return record_from_dict(decode_object(raw))


def to_flat_dict(tweet: TweetRecord) -> dict[str, Any]:
    """Serialize a record to the flattened layout; absent fields are omitted.

    Round-trips: record_from_dict(to_flat_dict(t)) == t.
    """
    out: dict[str, Any] = {"id": tweet.id, "text": tweet.text}
    if tweet.user_location is not None:
        out["user_location"] = tweet.user_location
    if tweet.time_zone is not None:
        out["time_zone"] = tweet.time_zone
    if tweet.utc_offset_seconds is not None:
        out["utc_offset_seconds"] = tweet.utc_offset_seconds
    if tweet.tweet_language is not None:
        out["tweet_language"] = tweet.tweet_language
    if tweet.user_language is not None:
        out["user_language"] = tweet.user_language
    if tweet.longitude is not None:
        out["lon"] = tweet.longitude
        out["lat"] = tweet.latitude
    if tweet.place_country_code is not None:
        out["place_country_code"] = tweet.place_country_code
    return out


def label_of(tweet: TweetRecord, resolver=None) -> str | None:
    """Derive the ground-truth country from a tweet's embedded geo information.

    A place country code wins outright; otherwise coordinates are reverse
    geocoded through ``resolver.reverse(lat, lon)``. Returns None when the
    tweet carries no geo information at all. Raises ResolverFailure when
    coordinates are present but cannot be resolved to a country.
    """
    if tweet.place_country_code is not None:
        return tweet.place_country_code
    if not tweet.has_coordinates:
        return None
    if resolver is None:
        raise ResolverFailure("tweet has coordinates but no resolver was configured")
    try:
        country = resolver.reverse(tweet.latitude, tweet.longitude)
    except RemoteUnavailable as exc:
        raise ResolverFailure(f"reverse geocoding unavailable: {exc}") from exc
    if country is None:
        raise ResolverFailure(
            f"no country found near ({tweet.latitude}, {tweet.longitude})"
        )
    return country
