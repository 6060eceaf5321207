"""Typed tweet records, raw JSON parsing, and ground-truth country labeling.

Two input layouts are accepted: the nested layout produced by the original
streaming API (``user.location``, ``user.time_zone``, GeoJSON ``coordinates``,
``place.country_code``) and the flattened layout this package writes
(``user_location``, ``time_zone``, ``utc_offset_seconds``, ``tweet_language``,
``user_language``, ``lon``/``lat``, ``place_country_code``). When a record
carries both spellings of a field, the flattened key wins.

It also holds what every command shares below the CLI: line tables, number
parsers, bundled data files, the digest of a resolved configuration, and the
fold orientations and report row cutoff a configuration is checked against.
"""

from __future__ import annotations

import json
import os
from collections import namedtuple
from collections.abc import Mapping
from json.encoder import encode_basestring
from pathlib import Path
from types import MappingProxyType
from typing import Any, Callable, Iterable, Iterator, Sequence

from .errors import MalformedInput, RemoteUnavailable, ResolverFailure

# The interpreter's built-in SHA-256, as the standard library's random takes
# sha512: hashlib would load OpenSSL's _hashlib, several milliseconds at start.
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

# Label assigned to everything outside the kept region when collapsing.
OTHER_LABEL = "ZZ"

UTC_OFFSET_LIMIT = 50400  # widest real-world offset is +-14 hours

DEFAULT_MIN_COUNT = 15

# How a fold splits the data: train on the other k-1 folds, or on this one.
FOLD_ORIENTATIONS = ("standard", "inverted")


def _shown(value: Any) -> str:
    """repr(value) for an error message; an int too long for repr is described.

    repr of an int with more digits than ``sys.get_int_max_str_digits()``
    allows raises ValueError. JSON input cannot carry one (the decoder rejects
    it first), but a library caller can pass one.
    """
    try:
        return repr(value)
    except ValueError:
        return f"<integer of {value.bit_length()} bits>"


def is_country_code(value: Any) -> bool:
    """True when value is exactly two uppercase ASCII letters."""
    return (
        isinstance(value, str)
        and len(value) == 2
        and value.isascii()
        and value.isalpha()
        and value.isupper()
    )


class ValueClass:
    """Base of the value classes that keep their fields as attributes.

    ``==`` and ``repr`` cover the attributes named in ``_fields``, in that
    order: an instance equals only an instance of the very same class whose
    fields compare equal as a tuple, and it is unhashable.
    """

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


def _check_ranges(latitude: Any, longitude: Any, offset: Any) -> None:
    """Raise MalformedInput for a latitude, longitude or UTC offset out of range,
    checked in that order; None is absent and passes."""
    if latitude is not None and not -90.0 <= latitude <= 90.0:
        raise MalformedInput(f"latitude out of range: {_shown(latitude)}")
    if longitude is not None and not -180.0 <= longitude <= 180.0:
        raise MalformedInput(f"longitude out of range: {_shown(longitude)}")
    if offset is not None and not -UTC_OFFSET_LIMIT <= offset <= UTC_OFFSET_LIMIT:
        raise MalformedInput(f"utc offset out of range: {_shown(offset)}")


_new_tuple = tuple.__new__

_TweetFields = namedtuple(
    "_TweetFields",
    "id text user_location time_zone utc_offset_seconds tweet_language user_language"
    " longitude latitude place_country_code",
)


class TweetRecord(_TweetFields):
    """One tweet's classification-relevant metadata.

    Absent fields are None; empty strings never survive parsing. Latitude and
    longitude are either both present or both absent.

    An immutable tuple of its fields. A record equals only another record,
    never a plain tuple, and hashes as the tuple of its fields.
    """

    __slots__ = ()

    def __new__(
        cls,
        id: str = "",
        text: str = "",
        user_location: str | None = None,
        time_zone: str | None = None,
        utc_offset_seconds: int | None = None,
        tweet_language: str | None = None,
        user_language: str | None = None,
        longitude: float | None = None,
        latitude: float | None = None,
        place_country_code: str | None = None,
    ) -> TweetRecord:
        if (longitude is None) != (latitude is None):
            raise MalformedInput("longitude and latitude must be given together")
        _check_ranges(latitude, longitude, utc_offset_seconds)
        if tweet_language is not None and tweet_language != tweet_language.lower():
            raise MalformedInput(f"tweet_language must be lowercase: {tweet_language!r}")
        if user_language is not None and user_language != user_language.lower():
            raise MalformedInput(f"user_language must be lowercase: {user_language!r}")
        code = place_country_code
        if code is not None and not is_country_code(code):
            raise MalformedInput(f"invalid place country code: {code!r}")
        for name, value in (
            ("user_location", user_location),
            ("time_zone", time_zone),
            ("tweet_language", tweet_language),
            ("user_language", user_language),
        ):
            if value == "":
                raise MalformedInput(f"{name} must be absent rather than empty")
        return _new_tuple(
            cls,
            (id, text, user_location, time_zone, utc_offset_seconds, tweet_language,
             user_language, longitude, latitude, place_country_code),
        )

    @classmethod
    def _make(cls, iterable: Iterable[Any]) -> TweetRecord:
        # namedtuple's own _make, which _replace calls, skips the checks above.
        return cls(*iterable)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return tuple.__eq__(self, other)
        # Any other tuple is unequal; other objects may still answer.
        return False if isinstance(other, tuple) else NotImplemented

    # object.__ne__ inverts __eq__ above; tuple.__ne__ would compare items.
    __ne__ = object.__ne__
    # Defining __eq__ would drop the hash; keep the tuple's.
    __hash__ = tuple.__hash__

    @property
    def has_coordinates(self) -> bool:
        return self.latitude is not None


def _is_mapping(value: Any) -> bool:
    # Decoded JSON objects are exact dicts; the ABC check serves other mappings.
    return type(value) is dict or isinstance(value, Mapping)


def _utf8_text(value: str, key: str) -> str:
    """value, if it encodes as UTF-8; a lone surrogate such as "\\ud800" does not."""
    if not value.isascii():
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise MalformedInput(f"field {key!r} holds a lone surrogate") from None
    return value


# Error messages below are formatted only on the raising path: every record
# passes a dozen of these checks.


def _opt_str(obj: Mapping[str, Any], key: str) -> str | None:
    value = obj.get(key)
    if value is None:
        return None
    if not isinstance(value, str):
        raise MalformedInput(f"field {key!r} must be a string, got {type(value).__name__}")
    if value.isascii():
        return value or None
    return _utf8_text(value, key)


def _opt_int(obj: Mapping[str, Any], key: str) -> int | None:
    value = obj.get(key)
    if value is None or type(value) is int:
        return value
    if not isinstance(value, int) or isinstance(value, bool):
        raise MalformedInput(f"field {key!r} must be an integer, got {value!r}")
    return value


def _as_float(value: Any, what: str) -> float:
    if type(value) is float:
        return value
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise MalformedInput(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        # JSON allows integers of hundreds of digits; no float holds them.
        raise MalformedInput(f"{what} out of range: {_shown(value)}") from None


def _coordinate_pair(value: Any, what: str) -> tuple[float, float] | None:
    """Pull a raw two-number list out of a GeoJSON-style value, or None.

    A GeoJSON object is unwrapped once; its "coordinates" must be the list.
    """
    if _is_mapping(value):
        value = value.get("coordinates")
    if value is None:
        return None
    if not isinstance(value, (list, tuple)):
        raise MalformedInput(f"{what} must be a two-number array")
    if len(value) != 2:
        raise MalformedInput(f"{what} must have exactly two entries")
    return _as_float(value[0], what), _as_float(value[1], what)


def _parse_id(obj: Mapping[str, Any]) -> str:
    for key in ("id", "id_str"):
        value = obj.get(key)
        if value is None:
            continue
        if isinstance(value, str):
            return _utf8_text(value, key)
        if isinstance(value, int) and not isinstance(value, bool):
            try:
                return str(value)
            except ValueError:
                # More digits than sys.get_int_max_str_digits() allows.
                raise MalformedInput(f"field {key!r} is an integer too long to convert") from None
        raise MalformedInput(f"field {key!r} must be a string or integer, got {value!r}")
    return ""


def _parse_lon_lat(obj: Mapping[str, Any]) -> tuple[float | None, float | None]:
    # Flattened lon/lat keys take precedence over either nested form.
    if "lon" in obj or "lat" in obj:
        lon, lat = obj.get("lon"), obj.get("lat")
        if lon is None and lat is None:
            return None, None
        if lon is None or lat is None:
            raise MalformedInput("lon and lat must be given together")
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


_NO_FIELDS: Mapping[str, Any] = MappingProxyType({})


def record_from_dict(obj: Mapping[str, Any]) -> TweetRecord:
    """Build a TweetRecord from a decoded JSON object of either layout.

    Unknown keys are ignored. Present fields with the wrong type, strings that
    do not encode as UTF-8, out-of-range coordinates or offsets, and invalid
    country codes raise MalformedInput. The checks run in a fixed order, so a
    record with several defects always reports the same one. Each check runs
    once: the range checks are ``TweetRecord``'s own, and the record is built
    without its constructor, whose other checks the reads already satisfy.
    """
    if not _is_mapping(obj):
        raise MalformedInput("tweet must be a JSON object")

    user = obj.get("user")
    if user is None:
        user = _NO_FIELDS
    elif not _is_mapping(user):
        raise MalformedInput("field 'user' must be an object")
    place = obj.get("place")
    if place is None:
        place = _NO_FIELDS
    elif not _is_mapping(place):
        raise MalformedInput("field 'place' must be an object")

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
        if not (len(place_code) == 2 and place_code.isascii() and place_code.isalpha()):
            raise MalformedInput(f"invalid place country code: {place_code!r}")
        place_code = place_code.upper()

    lon, lat = _parse_lon_lat(obj)

    text = obj.get("text")
    if text is None:
        text = ""
    elif not isinstance(text, str):
        raise MalformedInput(f"field 'text' must be a string, got {type(text).__name__}")
    elif not text.isascii():
        _utf8_text(text, "text")

    tweet_id = _parse_id(obj)
    _check_ranges(lat, lon, utc_offset)
    # The reads above already hold TweetRecord's other invariants: both
    # coordinates or neither, lowercase languages, a valid code, no "".
    return _new_tuple(
        TweetRecord,
        (tweet_id, text, user_location, time_zone, utc_offset,
         tweet_language.lower() if tweet_language else None,
         user_language.lower() if user_language else None,
         lon, lat, place_code),
    )


_raw_decode = json.JSONDecoder().raw_decode


def decode_object(raw: str | bytes) -> dict[str, Any]:
    """Decode one JSON document that must be an object, or raise MalformedInput.

    Nesting too deep for the decoder, and an integer literal longer than
    ``sys.get_int_max_str_digits()`` allows, are malformed input too.

    A str that holds exactly one JSON object, from its first character to its
    last, is decoded once by ``JSONDecoder.raw_decode``. Anything else (bytes,
    a byte order mark, surrounding whitespace, trailing text, another JSON
    value, an error) goes through ``json.loads``, whose result or message is
    the one returned or raised.
    """
    if type(raw) is str:
        try:
            obj, end = _raw_decode(raw)
        except (ValueError, RecursionError):
            pass
        else:
            if end == len(raw) and type(obj) is dict:
                return obj
    try:
        obj = json.loads(raw)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError, UnicodeDecodeError and the
        # integer digit limit.
        raise MalformedInput(f"invalid JSON: {exc}") from None
    if type(obj) is not dict:
        raise MalformedInput("tweet must be a JSON object")
    return obj


def parse_tweet(raw: str | bytes) -> TweetRecord:
    """Parse one raw tweet JSON document into a TweetRecord."""
    return record_from_dict(decode_object(raw))


def read_ndjson(
    path: str | Path, parse: Callable[[str], Any]
) -> Iterator[tuple[int, Any, Exception | None]]:
    """Yield (line number, parse(line), None) for each non-blank line of a file,
    or (line number, None, error) for a line that is malformed.

    Lines end at "\\n" only. Each line is decoded as UTF-8 and stripped before
    parsing; bytes that are not UTF-8, and MalformedInput from ``parse``, are
    the line's error.
    """
    with open(path, "rb") as source:
        for lineno, raw in enumerate(source, 1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                item, error = parse(line), None
            except (UnicodeDecodeError, MalformedInput) as exc:
                item, error = None, exc
            yield lineno, item, error


def table_lines(source: bytes | Iterable[str], name: str) -> Iterator[tuple[str, str]]:
    """Yield ("name:lineno", line) for each line of a config, region, gazetteer
    or reverse-point file, given as its bytes (decoded as UTF-8 once) or as
    text lines. A line ends at "\\n" and a "\\r" before it is dropped; blank
    lines and "#" comments are skipped. One leading byte order mark is dropped
    from bytes; non-UTF-8 bytes raise ValueError."""
    if isinstance(source, bytes):
        try:
            source = source.decode("utf-8").removeprefix("\ufeff").split("\n")
        except UnicodeDecodeError as exc:
            lineno = source.count(b"\n", 0, exc.start) + 1
            raise ValueError(f"{name}:{lineno}: not UTF-8 text") from None
    for lineno, line in enumerate(source, 1):
        line = line.removesuffix("\n").removesuffix("\r")
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            yield f"{name}:{lineno}", line


def integer(text: str) -> int:
    """int(text), except that "_" between digits, which int() accepts, is
    rejected: in a file or a flag it is more likely a typo than a separator."""
    if "_" in text:
        raise ValueError(f"invalid integer: {text!r}")
    return int(text)


def number(text: str) -> float:
    """float(text), except that "_" between digits, which float() accepts, is
    rejected, as in ``integer``."""
    if "_" in text:
        raise ValueError(f"invalid number: {text!r}")
    return float(text)


def config_digest(config: dict) -> str:
    """SHA-256 of the canonical JSON encoding of a config echo."""
    canonical = json.dumps(config, ensure_ascii=False, sort_keys=True)
    return sha256(canonical.encode("utf-8")).hexdigest()


def bundled_data(name: str) -> bytes:
    """The bytes of a data file shipped in the package's data directory.

    Read through the package's loader, which reads a directory or a zip
    archive alike; importlib.resources would do the same, but it imports
    inspect on Python 3.12 and later.
    """
    return __loader__.get_data(os.path.join(os.path.dirname(__file__), "data", name))


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


# The functions json's encoder applies, with ensure_ascii=False, to a string,
# a float and an int.
_quote = encode_basestring
_float_text = float.__repr__
_int_text = int.__repr__
_MINUS_INF = float("-inf")


def labeled_line(tweet: TweetRecord, country: str, digest: str) -> str:
    """The labeled NDJSON line of a record, "\\n" included: ``to_flat_dict``'s
    keys plus "country" and "config_sha256", encoded as ``json.dumps`` with
    ``ensure_ascii=False, sort_keys=True`` encodes that dict.

    The keys are written in sorted order, each value by the function the
    encoder uses, so there is no dict, sort or encoder per line. It serves
    records built by ``record_from_dict``, whose coordinates are finite
    floats; ``test_labeled_line_matches_the_line_encoder`` in
    tests/test_tweet_model.py pins it to ``to_flat_dict`` plus that encoder.
    """
    (tweet_id, text, user_location, time_zone, offset, tweet_language,
     user_language, lon, lat, code) = tweet
    parts = ['{"config_sha256": ', _quote(digest), ', "country": ', _quote(country),
             ', "id": ', _quote(tweet_id)]
    if lat is not None:
        parts += (', "lat": ', _float_text(lat), ', "lon": ', _float_text(lon))
    if code is not None:
        parts += (', "place_country_code": ', _quote(code))
    parts += (', "text": ', _quote(text))
    if time_zone is not None:
        parts += (', "time_zone": ', _quote(time_zone))
    if tweet_language is not None:
        parts += (', "tweet_language": ', _quote(tweet_language))
    if user_language is not None:
        parts += (', "user_language": ', _quote(user_language))
    if user_location is not None:
        parts += (', "user_location": ', _quote(user_location))
    if offset is not None:
        parts += (', "utc_offset_seconds": ', _int_text(offset))
    parts.append("}\n")
    return "".join(parts)


def prediction_line(
    tweet_id: str, ranked: Sequence[tuple[str, float]], tags: Iterable[str], digest: str
) -> str:
    """The prediction NDJSON line of one tweet, "\\n" included: its id, the
    first country of ``ranked`` as "predicted", every (country, log score)
    pair of ``ranked`` under "top", ``tags`` in the order given under
    "diagnostics", and the digest. A -inf score is written as null.

    As ``labeled_line``, it writes the keys in sorted order and each value by
    the function ``json.dumps`` with ``ensure_ascii=False, sort_keys=True``
    uses, so there is no dict or encoder per line. It serves rankings from
    ``log_posterior``, whose scores are finite or -inf;
    ``test_prediction_line_matches_the_line_encoder`` in
    tests/test_tweet_model.py pins it to that encoder.
    """
    parts = ['{"config_sha256": ', _quote(digest), ', "diagnostics": [', ", ".join(map(_quote, tags)),
             '], "id": ', _quote(tweet_id), ', "predicted": ', _quote(ranked[0][0]), ', "top": [']
    for country, score in ranked:
        parts += ('{"country": ', _quote(country), ', "log_score": ',
                  "null" if score == _MINUS_INF else _float_text(score), "}, ")
    # The last entry closes the list and the line instead.
    parts[-1] = "}]}\n"
    return "".join(parts)


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
