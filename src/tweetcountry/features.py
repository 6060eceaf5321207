"""Turn tweet records into the categorical feature vectors the classifier consumes."""

from __future__ import annotations

import re
from enum import Enum
from typing import Any, Callable, Iterable

from .errors import GeoparserFailure, InvalidQuery, RemoteUnavailable, warn
from .tweet_model import TweetRecord

_WHITESPACE_RUN = re.compile(r"\s+")


class FeatureKind(Enum):
    """The six metadata features, in fixed scoring order."""

    LOCATION = "location"
    TIMEZONE = "timezone"
    TWEET_LANGUAGE = "tweet_language"
    GEOPARSED = "geoparsed"
    UTC_OFFSET = "utc_offset"
    USER_LANGUAGE = "user_language"

    # Members are singletons compared by identity, so the identity hash agrees
    # with equality; it runs in C, where Enum's own __hash__ is Python code.
    __hash__ = object.__hash__


ALL_KINDS: tuple[FeatureKind, ...] = tuple(FeatureKind)

# A feature vector holds at most one value per kind; values are never empty.
FeatureVector = dict[FeatureKind, str]

_BY_VALUE = {kind.value: kind for kind in FeatureKind}


def kind_from_name(name: str) -> FeatureKind:
    """Look a kind up by its wire name, e.g. "timezone"."""
    try:
        return _BY_VALUE[name]
    except KeyError:
        raise ValueError(f"unknown feature kind {name!r}") from None


def ordered_kinds(kinds) -> tuple[FeatureKind, ...]:
    """Deduplicate and sort kinds into the fixed scoring order."""
    wanted = set(kinds)
    return tuple(kind for kind in FeatureKind if kind in wanted)


def kinds_label(kinds: Iterable[FeatureKind]) -> str:
    return "+".join(kind.value for kind in ordered_kinds(kinds))


def parse_kinds_label(text: str) -> tuple[FeatureKind, ...]:
    """Inverse of kinds_label, accepting any order, e.g. "timezone+location"."""
    names = [part.strip() for part in text.split("+") if part.strip()]
    if not names:
        raise ValueError("empty feature kind list")
    return ordered_kinds(kind_from_name(name) for name in names)


def normalize_place(text: str) -> str:
    """Trim, collapse whitespace runs to single spaces, casefold.

    Gazetteer keys use the same normalization so location features and
    lookups agree byte for byte.
    """
    return _WHITESPACE_RUN.sub(" ", text.strip()).casefold()


def _clean(text: str, case_fold: bool) -> str:
    cleaned = _WHITESPACE_RUN.sub(" ", text.strip())
    return cleaned.casefold() if case_fold else cleaned


def _location(tweet: TweetRecord, geoparser, case_fold: bool) -> str | None:
    if tweet.user_location is None:
        return None
    return _clean(tweet.user_location, case_fold)


def _timezone(tweet: TweetRecord, geoparser, case_fold: bool) -> str | None:
    if tweet.time_zone is None:
        return None
    return tweet.time_zone.casefold() if case_fold else tweet.time_zone


def _tweet_language(tweet: TweetRecord, geoparser, case_fold: bool) -> str | None:
    return tweet.tweet_language


def _geoparsed(tweet: TweetRecord, geoparser, case_fold: bool) -> str | None:
    if tweet.user_location is None or geoparser is None:
        return None
    if not tweet.user_location.strip():
        return None
    try:
        return geoparser.forward(tweet.user_location)
    except (GeoparserFailure, InvalidQuery, RemoteUnavailable) as exc:
        warn(__name__, "geoparse failed for %r: %s", tweet.user_location, exc)
        return None


def _utc_offset(tweet: TweetRecord, geoparser, case_fold: bool) -> str | None:
    if tweet.utc_offset_seconds is None:
        return None
    return str(tweet.utc_offset_seconds)


def _user_language(tweet: TweetRecord, geoparser, case_fold: bool) -> str | None:
    return tweet.user_language


_Extractor = Callable[[TweetRecord, Any, bool], str | None]


def _extractor_table(
    extractors: dict[FeatureKind, _Extractor],
) -> tuple[tuple[FeatureKind, _Extractor], ...]:
    """(kind, extractor) pairs in ALL_KINDS order.

    A kind without an extractor raises AssertionError here, at import time,
    rather than passing silently.
    """
    for kind in ALL_KINDS:
        if kind not in extractors:
            raise AssertionError(f"unhandled kind {kind!r}")
    return tuple((kind, extractors[kind]) for kind in ALL_KINDS)


_EXTRACTORS = _extractor_table(
    {
        FeatureKind.LOCATION: _location,
        FeatureKind.TIMEZONE: _timezone,
        FeatureKind.TWEET_LANGUAGE: _tweet_language,
        FeatureKind.GEOPARSED: _geoparsed,
        FeatureKind.UTC_OFFSET: _utc_offset,
        FeatureKind.USER_LANGUAGE: _user_language,
    }
)


def extract_features(
    tweet: TweetRecord,
    geoparser=None,
    enabled=ALL_KINDS,
    *,
    case_fold: bool = True,
) -> FeatureVector:
    """Extract the enabled feature kinds from one tweet.

    Absent metadata simply yields no entry. The geoparsed kind forwards the
    raw user_location through ``geoparser.forward``; a lookup miss omits the
    entry silently, and a failure (GeoparserFailure, InvalidQuery,
    RemoteUnavailable) is logged and omits it, never fatal. Entries are
    inserted in the fixed kind order.
    """
    if not enabled:
        raise ValueError("enabled kinds must be non-empty")
    wanted = set(enabled)
    vector: FeatureVector = {}
    for kind, extract in _EXTRACTORS:
        if kind in wanted:
            value = extract(tweet, geoparser, case_fold)
            if value:
                vector[kind] = value
    return vector
