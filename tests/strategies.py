"""Hypothesis strategies for decoded tweet objects and arbitrary JSON values.

Tweet objects mix both input layouts, wrong types, bools where integers are
expected, empty strings, lone surrogates, GeoJSON objects, coordinates out
of range or beyond the float range, lon without lat, and mappings that are
not dicts; one object often carries several defects at once.
"""

from __future__ import annotations

import sys
from types import MappingProxyType

from hypothesis import strategies as st

# Integer literals longer than this make json.loads raise ValueError; 0 means
# the interpreter has no limit.
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
# The digits of an integer one digit longer than the limit (a short integer
# where there is no limit).
LONG_INTEGER = "1" * (DIGIT_LIMIT + 1) if DIGIT_LIMIT else "1"
# An int with more digits than str() and repr() convert under that limit.
TOO_LONG_FOR_TEXT = 10 ** max(DIGIT_LIMIT, 4300)

# An integer JSON allows but no float can hold.
BEYOND_FLOAT = 10**400

# Text of any code point; the second alphabet adds lone surrogates.
any_text = st.text(
    st.one_of(
        st.characters(),
        st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF, exclude_categories=()),
    ),
    max_size=8,
)
strings = st.one_of(
    st.sampled_from(
        [
            "",
            " ",
            "  Den \t Haag ",
            "NL",
            "nl",
            "Nl",
            "N1",
            "NLD",
            "ÉÉ",
            "EN",
            "en-GB",
            "İ",
            "ß",
            "\ud800",
            "x\udfff",
            "Europe/Amsterdam",
            "Paris, France",
        ]
    ),
    any_text,
)
numbers = st.one_of(
    st.integers(-200, 200),
    st.floats(),
    st.integers(),
    st.booleans(),
    st.sampled_from([BEYOND_FLOAT, -BEYOND_FLOAT, 0.0, -0.0, 90.0, -180.0, 180.0000001]),
)
integers = st.one_of(st.integers(-60_000, 60_000), st.integers(), st.booleans(), st.floats())
json_leaves = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), any_text)
json_values = st.recursive(
    json_leaves,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(any_text, children, max_size=3),
    max_leaves=6,
)


def _field(typical):
    """Mostly a value of the field's own kind, sometimes any JSON value."""
    return st.one_of(typical, json_values)


def _with_proxies(dicts):
    """Dicts, and the same dicts behind a read-only mapping that is not a dict."""
    return st.one_of(dicts, dicts.map(MappingProxyType))


_pairs = st.one_of(
    st.lists(numbers, max_size=3),
    st.tuples(numbers, numbers),
)
_geo = st.one_of(
    _pairs,
    st.fixed_dictionaries({"type": st.just("Point"), "coordinates": st.one_of(_pairs, json_values)}),
    json_values,
)
_user = st.fixed_dictionaries(
    {},
    optional={
        "location": _field(strings),
        "time_zone": _field(strings),
        "utc_offset": _field(integers),
        "lang": _field(strings),
    },
)
_place = st.fixed_dictionaries({}, optional={"country_code": _field(strings)})


def _tweets(mappings):
    """Tweet objects whose user and place are drawn through mappings()."""
    return st.fixed_dictionaries(
        {},
        optional={
            "id": _field(st.one_of(integers, strings)),
            "id_str": _field(strings),
            "text": _field(strings),
            "user_location": _field(strings),
            "time_zone": _field(strings),
            "utc_offset_seconds": _field(integers),
            "tweet_language": _field(strings),
            "lang": _field(strings),
            "user_language": _field(strings),
            "place_country_code": _field(strings),
            "lon": _field(numbers),
            "lat": _field(numbers),
            "coordinates": _geo,
            "geo": _geo,
            "user": st.one_of(mappings(_user), json_values),
            "place": st.one_of(mappings(_place), json_values),
            "unknown": json_values,
        },
    )


# Tweet objects as json.loads returns them: dicts all the way down.
tweet_dicts = _tweets(lambda dicts: dicts)
# Values record_from_dict may be handed: tweet objects, other mappings, and
# JSON values that are not objects at all.
tweet_objects = st.one_of(_with_proxies(_tweets(_with_proxies)), json_values)
