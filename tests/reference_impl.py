"""Reference copies of the input paths as they were before they were tuned.

``decode_object`` (one ``json.loads`` per document), ``record_from_dict``
(with ``TweetRecord``'s construction checks), ``extract_features`` (with its
per-kind if-chain), ``model_from_dict`` (with every message formatted before
its check), ``model_to_dict`` (with every table sorted), the geocode cache
loader (one decode per line), its key unescaping (a character loop) and the
encoder output lines went through (a dict per line) are kept here verbatim
in behaviour, so property tests can check that the tuned code returns the
same objects, records, vectors, models, documents, keys, cache entries and
lines and raises or warns with the same messages, in the same order.
They are test oracles only; nothing in the package imports them.

The value classes the package once built with ``@dataclass`` are kept here
too, as their dataclass twins (fields and construction checks; their other
methods did not come from the decorator), so tests can check that the plain
classes that replaced them give the same repr, equality, hashing and
constructor errors.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Mapping

from tweetcountry.bayes import MODEL_SCHEMA_VERSION, NaiveBayesModel
from tweetcountry.errors import (
    CorruptModel,
    GeoparserFailure,
    InvalidQuery,
    MalformedInput,
    RemoteUnavailable,
)
from tweetcountry.features import FeatureKind, kind_from_name, ordered_kinds
from tweetcountry.geocode import NEGATIVE_MARK, CacheEntry
from tweetcountry.tweet_model import UTC_OFFSET_LIMIT, TweetRecord, _shown, is_country_code

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


def reference_decode_object(raw: str | bytes) -> dict[str, Any]:
    """decode_object as it was when every document went through json.loads."""
    try:
        obj = json.loads(raw)
    except (ValueError, RecursionError) as exc:
        raise MalformedInput(f"invalid JSON: {exc}") from None
    if type(obj) is not dict:
        raise MalformedInput("tweet must be a JSON object")
    return obj


def reference_unescape_key(key: str) -> str:
    """geocode._unescape_key as it was when it walked the key character by character."""
    out: list[str] = []
    i = 0
    while i < len(key):
        ch = key[i]
        if ch == "\\" and i + 1 < len(key):
            nxt = key[i + 1]
            out.append({"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}.get(nxt, nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def reference_cache_load(path) -> tuple[dict[str, CacheEntry], list[str]]:
    """GeocodeCache._load as it was when it decoded each line on its own:
    the entries it kept, and the text of each warning it gave, in order."""
    entries: dict[str, CacheEntry] = {}
    warnings: list[str] = []
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.removesuffix(b"\n").removesuffix(b"\r")
            if not line:
                continue
            try:
                fields = line.decode("utf-8").split("\t")
            except UnicodeDecodeError:
                fields = []
            if len(fields) != 4:
                warnings.append(f"{path}:{lineno}: skipping malformed cache line")
                continue
            key = reference_unescape_key(fields[0])
            outcome = None if fields[1] == NEGATIVE_MARK else fields[1]
            if outcome is not None and not is_country_code(outcome):
                warnings.append(f"{path}:{lineno}: skipping invalid outcome {fields[1]!r}")
                continue
            entries[key] = CacheEntry(outcome, fields[2], fields[3])
    return entries, warnings


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


def _require_model(condition: bool, message: str) -> None:
    if not condition:
        raise CorruptModel(message)


def _checked_count(value: Any, what: str, minimum: int = 0) -> int:
    _require_model(
        isinstance(value, int) and not isinstance(value, bool) and value >= minimum,
        f"{what} must be an integer >= {minimum}, got {value!r}",
    )
    return value


def reference_model_from_dict(document: Any) -> NaiveBayesModel:
    """model_from_dict as it was when it formatted every message up front."""
    _require_model(isinstance(document, dict), "model document must be a JSON object")
    _require_model(
        document.get("schema_version") == MODEL_SCHEMA_VERSION,
        f"unsupported schema_version {document.get('schema_version')!r}",
    )
    alpha = document.get("alpha")
    _require_model(
        isinstance(alpha, (int, float)) and not isinstance(alpha, bool) and alpha >= 0,
        f"alpha must be a non-negative number, got {alpha!r}",
    )
    # An integer beyond the float range would overflow float() below.
    _require_model(alpha <= sys.float_info.max, f"alpha must be finite, got {alpha!r}")

    raw_kinds = document.get("enabled_kinds")
    _require_model(isinstance(raw_kinds, list) and raw_kinds, "enabled_kinds must be a non-empty list")
    try:
        kinds = tuple(kind_from_name(name) for name in raw_kinds)
    except (ValueError, TypeError) as exc:
        raise CorruptModel(f"bad enabled_kinds: {exc}") from None
    _require_model(len(set(kinds)) == len(kinds), "enabled_kinds has duplicates")
    _require_model(kinds == ordered_kinds(kinds), "enabled_kinds out of canonical order")
    enabled = set(kinds)

    raw_classes = document.get("class_count")
    _require_model(isinstance(raw_classes, dict) and raw_classes, "class_count must be a non-empty object")
    class_count: dict[str, int] = {}
    for country, count in raw_classes.items():
        _require_model(is_country_code(country), f"invalid class label {country!r}")
        class_count[country] = _checked_count(count, f"class_count[{country}]", minimum=1)
    _require_model(
        document.get("total_examples") == sum(class_count.values()),
        "total_examples does not match class_count",
    )

    raw_values = document.get("value_count")
    raw_totals = document.get("kind_total")
    raw_vocab = document.get("vocabulary")
    _require_model(isinstance(raw_values, dict), "value_count must be an object")
    _require_model(isinstance(raw_totals, dict), "kind_total must be an object")
    _require_model(isinstance(raw_vocab, dict), "vocabulary must be an object")
    _require_model(set(raw_values) <= set(class_count), "value_count has unknown classes")
    _require_model(set(raw_totals) <= set(class_count), "kind_total has unknown classes")

    value_count: dict[str, dict[FeatureKind, dict[str, int]]] = {}
    kind_total: dict[str, dict[FeatureKind, int]] = {}
    seen_values: dict[FeatureKind, set[str]] = {kind: set() for kind in kinds}
    for country in class_count:
        per_kind_raw = raw_values.get(country, {})
        totals_raw = raw_totals.get(country, {})
        _require_model(isinstance(per_kind_raw, dict), f"value_count[{country}] must be an object")
        _require_model(isinstance(totals_raw, dict), f"kind_total[{country}] must be an object")
        per_kind: dict[FeatureKind, dict[str, int]] = {}
        totals: dict[FeatureKind, int] = {}
        for name, values in per_kind_raw.items():
            try:
                kind = kind_from_name(name)
            except ValueError as exc:
                raise CorruptModel(str(exc)) from None
            _require_model(kind in enabled, f"value_count uses disabled kind {name!r}")
            _require_model(isinstance(values, dict), f"value_count[{country}][{name}] must be an object")
            counts: dict[str, int] = {}
            for value, count in values.items():
                _require_model(isinstance(value, str) and value, f"empty feature value under {name!r}")
                counts[value] = _checked_count(count, f"value_count[{country}][{name}][{value}]")
                if counts[value] > 0:
                    seen_values[kind].add(value)
            per_kind[kind] = counts
        for name, count in totals_raw.items():
            try:
                kind = kind_from_name(name)
            except ValueError as exc:
                raise CorruptModel(str(exc)) from None
            _require_model(kind in enabled, f"kind_total uses disabled kind {name!r}")
            totals[kind] = _checked_count(count, f"kind_total[{country}][{name}]")
        for kind in kinds:
            declared = totals.get(kind, 0)
            summed = sum(per_kind.get(kind, {}).values())
            _require_model(
                declared == summed,
                f"kind_total[{country}][{kind.value}] is {declared} but values sum to {summed}",
            )
            _require_model(
                declared <= class_count[country],
                f"kind_total[{country}][{kind.value}] exceeds the class size",
            )
        value_count[country] = per_kind
        kind_total[country] = totals

    vocabulary: dict[FeatureKind, set[str]] = {kind: set() for kind in kinds}
    for name, values in raw_vocab.items():
        try:
            kind = kind_from_name(name)
        except ValueError as exc:
            raise CorruptModel(str(exc)) from None
        _require_model(kind in enabled, f"vocabulary uses disabled kind {name!r}")
        _require_model(
            isinstance(values, list) and all(isinstance(v, str) and v for v in values),
            f"vocabulary[{name}] must be a list of non-empty strings",
        )
        vocabulary[kind] = set(values)
        _require_model(len(vocabulary[kind]) == len(values), f"vocabulary[{name}] has duplicates")
    for kind in kinds:
        _require_model(
            vocabulary[kind] == seen_values[kind],
            f"vocabulary[{kind.value}] does not match the counted values",
        )

    return NaiveBayesModel(
        alpha=float(alpha),
        enabled_kinds=kinds,
        class_count=class_count,
        value_count=value_count,
        kind_total=kind_total,
        vocabulary=vocabulary,
    )


def reference_model_to_dict(model: NaiveBayesModel, config: dict | None = None) -> dict[str, Any]:
    """model_to_dict as it was when it sorted every table itself, before the
    writer sorted the keys again."""
    if config is None:
        config = model.config
    document: dict[str, Any] = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "alpha": model.alpha,
        "enabled_kinds": [kind.value for kind in model.enabled_kinds],
        "total_examples": model.total_examples,
        "class_count": dict(sorted(model.class_count.items())),
        "value_count": {
            country: {
                kind.value: dict(sorted(values.items()))
                for kind, values in sorted(per_kind.items(), key=lambda item: item[0].value)
            }
            for country, per_kind in sorted(model.value_count.items())
        },
        "kind_total": {
            country: {
                kind.value: count
                for kind, count in sorted(totals.items(), key=lambda item: item[0].value)
            }
            for country, totals in sorted(model.kind_total.items())
        },
        "vocabulary": {
            kind.value: sorted(values) for kind, values in model.vocabulary.items()
        },
    }
    if config is not None:
        document["config"] = config
    return document


# json.dumps with options builds an encoder per call; every line shared one.
_LINE_ENCODER = json.JSONEncoder(ensure_ascii=False, sort_keys=True)


def reference_dump_line(obj: dict) -> str:
    """An NDJSON output line as the CLI encoded it from a dict, before
    ``labeled_line`` and ``prediction_line`` wrote each line straight; no
    line feed."""
    return _LINE_ENCODER.encode(obj)


@dataclass(frozen=True, slots=True)
class TweetRecordTwin:
    """tweet_model.TweetRecord as a frozen, slotted dataclass."""

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
        longitude, latitude = self.longitude, self.latitude
        if (longitude is None) != (latitude is None):
            raise MalformedInput("longitude and latitude must be given together")
        if latitude is not None and not -90.0 <= latitude <= 90.0:
            raise MalformedInput(f"latitude out of range: {_shown(latitude)}")
        if longitude is not None and not -180.0 <= longitude <= 180.0:
            raise MalformedInput(f"longitude out of range: {_shown(longitude)}")
        offset = self.utc_offset_seconds
        if offset is not None and not -UTC_OFFSET_LIMIT <= offset <= UTC_OFFSET_LIMIT:
            raise MalformedInput(f"utc offset out of range: {_shown(offset)}")
        tweet_language, user_language = self.tweet_language, self.user_language
        if tweet_language is not None and tweet_language != tweet_language.lower():
            raise MalformedInput(f"tweet_language must be lowercase: {tweet_language!r}")
        if user_language is not None and user_language != user_language.lower():
            raise MalformedInput(f"user_language must be lowercase: {user_language!r}")
        code = self.place_country_code
        if code is not None and not is_country_code(code):
            raise MalformedInput(f"invalid place country code: {code!r}")
        for name, value in (
            ("user_location", self.user_location),
            ("time_zone", self.time_zone),
            ("tweet_language", tweet_language),
            ("user_language", user_language),
        ):
            if value == "":
                raise MalformedInput(f"{name} must be absent rather than empty")


@dataclass
class NaiveBayesModelTwin:
    """bayes.NaiveBayesModel as a dataclass."""

    alpha: float
    enabled_kinds: tuple[FeatureKind, ...]
    class_count: dict[str, int]
    value_count: dict[str, dict[FeatureKind, dict[str, int]]]
    kind_total: dict[str, dict[FeatureKind, int]]
    vocabulary: dict[FeatureKind, set[str]]
    config: dict | None = field(default=None, compare=False, repr=False)


@dataclass
class LabeledDatasetTwin:
    """evaluation.LabeledDataset as a dataclass."""

    examples: list[tuple[TweetRecord, str]]
    source: str = ""

    def __post_init__(self) -> None:
        for _, label in self.examples:
            if not is_country_code(label):
                raise ValueError(f"invalid country label {label!r}")


@dataclass
class PerCountryReportTwin:
    """evaluation.PerCountryReport as a dataclass."""

    kind_sets: tuple[tuple[FeatureKind, ...], ...]
    rows: tuple[CountryRow, ...]
    average: tuple[float, ...]
    stddev: tuple[float, ...]
    region_name: str
    region_accuracies: tuple[Fraction, ...]
    region_n: int
    min_count: int
    omitted_countries: int
    mode: str
    config: dict = field(default_factory=dict)
