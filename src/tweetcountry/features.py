"""Turn tweet records into the categorical feature vectors the classifier consumes.

``FeatureKind`` names the six metadata features in their fixed scoring order.
``extract_features`` reads a record's fields in that order, one branch per
kind; ``normalize_place`` is the one place normalizer, shared by the
case-folded location feature and the gazetteer keys.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import Iterable

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


# Plain globals: reading FeatureKind.LOCATION per record goes through the
# Enum class's attribute machinery, which measurably slows extraction.
_LOCATION, _TIMEZONE, _TWEET_LANGUAGE, _GEOPARSED, _UTC_OFFSET, _USER_LANGUAGE = ALL_KINDS


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
    inserted in the fixed kind order. ``enabled`` must hold at least one
    FeatureKind, else ValueError.
    """
    wanted = set(enabled or ())
    if wanted.isdisjoint(ALL_KINDS):
        raise ValueError("enabled kinds must be non-empty")
    vector: FeatureVector = {}
    location = tweet.user_location
    if location is not None and _LOCATION in wanted:
        value = normalize_place(location) if case_fold else _WHITESPACE_RUN.sub(" ", location.strip())
        if value:
            vector[_LOCATION] = value
    time_zone = tweet.time_zone
    if time_zone and _TIMEZONE in wanted:
        vector[_TIMEZONE] = time_zone.casefold() if case_fold else time_zone
    if tweet.tweet_language and _TWEET_LANGUAGE in wanted:
        vector[_TWEET_LANGUAGE] = tweet.tweet_language
    if geoparser is not None and location is not None and _GEOPARSED in wanted and location.strip():
        try:
            value = geoparser.forward(location)
        except (GeoparserFailure, InvalidQuery, RemoteUnavailable) as exc:
            warn(__name__, "geoparse failed for %r: %s", location, exc)
        else:
            if value:
                vector[_GEOPARSED] = value
    if tweet.utc_offset_seconds is not None and _UTC_OFFSET in wanted:
        vector[_UTC_OFFSET] = str(tweet.utc_offset_seconds)
    if tweet.user_language and _USER_LANGUAGE in wanted:
        vector[_USER_LANGUAGE] = tweet.user_language
    return vector
