"""The value classes behave as the dataclasses they replaced.

``TweetRecord``, ``NaiveBayesModel``, ``LabeledDataset`` and
``PerCountryReport`` are checked against their dataclass twins in
``reference_impl``: the same constructor signature, defaults and errors, the
same repr, the same ``==`` and ``!=`` between instances, and the same hash or
the same lack of one.
"""

from __future__ import annotations

import dataclasses
import inspect
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tweetcountry.bayes import NaiveBayesModel
from tweetcountry.errors import MalformedInput
from tweetcountry.evaluation import CountryRow, LabeledDataset, PerCountryReport
from tweetcountry.features import FeatureKind
from tweetcountry.tweet_model import TweetRecord

from reference_impl import (
    RECORD_FIELDS,
    LabeledDatasetTwin,
    NaiveBayesModelTwin,
    PerCountryReportTwin,
    TweetRecordTwin,
)
from strategies import BEYOND_FLOAT, TOO_LONG_FOR_TEXT

K = FeatureKind

# Per class and field, a few values to draw from, valid and not: small pools,
# so that two drawn instances are often equal. No NaN: Python 3.13 changed how
# a dataclass compares a field that is not equal to itself.
_RECORD_POOLS = {
    "id": ["", "1", 7, None, [1]],
    "text": ["", "t"],
    "user_location": [None, "", "Paris"],
    "time_zone": [None, "", "Amsterdam"],
    "utc_offset_seconds": [None, 0, 3600, 50401, -50401, True, "x", TOO_LONG_FOR_TEXT],
    "tweet_language": [None, "", "nl", "NL", 5],
    "user_language": [None, "", "fr", "Fr"],
    "longitude": [None, 0.0, -0.0, 4.4, 180.5, "x"],
    "latitude": [None, 0.0, 52.1, -90.5, BEYOND_FLOAT],
    "place_country_code": [None, "NL", "nl", ""],
}
_MODEL_POOLS = {
    "alpha": [0.0, 1.0, 1, 0.5],
    "enabled_kinds": [(), (K.TIMEZONE,), (K.LOCATION, K.TIMEZONE)],
    "class_count": [{}, {"NL": 1}, {"NL": 2}, {"NL": 1, "GB": 1}],
    "value_count": [{}, {"NL": {K.TIMEZONE: {"x": 1}}}],
    "kind_total": [{}, {"NL": {K.TIMEZONE: 1}}],
    "vocabulary": [{}, {K.TIMEZONE: {"x"}}, {K.TIMEZONE: set()}],
    "config": [None, {}, {"k": 1}],
}
_DATASET_POOLS = {
    "examples": [
        [],
        [(TweetRecord(), "NL")],
        [(TweetRecord(id="1"), "NL"), (TweetRecord(), "GB")],
        [(TweetRecord(), "nl")],
        [(TweetRecord(),)],
        None,
    ],
    "source": ["", "a", "b"],
}
_REPORT_POOLS = {
    "kind_sets": [(), ((K.TIMEZONE,),)],
    "rows": [(), (CountryRow("NL", 15, (Fraction(1, 2),)),)],
    "average": [(), (50.0,)],
    "stddev": [(), (0.0,)],
    "region_name": ["Europe", "Asia"],
    "region_accuracies": [(), (Fraction(1, 3),)],
    "region_n": [0, 15],
    "min_count": [1, 15],
    "omitted_countries": [0, 2],
    "mode": ["same-set", "held-out"],
    # Not None: the dataclass stored an explicit None, the class stores {}.
    "config": [{}, {"cli": {}}],
}
CASES = {
    "TweetRecord": (TweetRecord, TweetRecordTwin, _RECORD_POOLS),
    "NaiveBayesModel": (NaiveBayesModel, NaiveBayesModelTwin, _MODEL_POOLS),
    "LabeledDataset": (LabeledDataset, LabeledDatasetTwin, _DATASET_POOLS),
    "PerCountryReport": (PerCountryReport, PerCountryReportTwin, _REPORT_POOLS),
}


@st.composite
def _arguments(draw, twin, pools):
    """Constructor arguments: every required field and some optional ones, the
    first few passed by position and the rest by keyword."""
    fields = dataclasses.fields(twin)
    values = {}
    for field in fields:
        required = field.default is dataclasses.MISSING and field.default_factory is dataclasses.MISSING
        if required or draw(st.booleans()):
            values[field.name] = draw(st.sampled_from(pools[field.name]))
    prefix = 0
    while prefix < len(fields) and fields[prefix].name in values:
        prefix += 1
    positional = [values.pop(field.name) for field in fields[: draw(st.integers(0, prefix))]]
    return positional, values


def _outcome(call, names):
    """call()'s result, or its exception's type and message with the twin's
    class name written as the package's."""
    try:
        return call(), None
    except Exception as exc:
        return None, (type(exc), str(exc).replace(*names))


def _hashed(value, names):
    return _outcome(lambda: hash(value), names)


@pytest.mark.parametrize("name", CASES)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_behaves_like_its_dataclass_twin(name, data):
    cls, twin, pools = CASES[name]
    names = (twin.__name__, cls.__name__)
    args, kwargs = data.draw(_arguments(twin, pools))
    other_args, other_kwargs = data.draw(_arguments(twin, pools))
    value, error = _outcome(lambda: cls(*args, **kwargs), names)
    twin_value, twin_error = _outcome(lambda: twin(*args, **kwargs), names)
    assert error == twin_error
    other, other_error = _outcome(lambda: cls(*other_args, **other_kwargs), names)
    twin_other, _ = _outcome(lambda: twin(*other_args, **other_kwargs), names)
    if error or other_error:
        return
    assert repr(value) == repr(twin_value).replace(*names)
    assert (value == other) == (twin_value == twin_other)
    assert (value != other) == (twin_value != twin_other)
    assert _hashed(value, names) == _hashed(twin_value, names)
    assert (value == twin_value) is False and (value != twin_value) is True


@pytest.mark.parametrize("name", CASES)
def test_constructor_signature_matches_its_twin(name):
    cls, twin, _ = CASES[name]

    def shape(target):
        return [
            (parameter.name, parameter.kind, parameter.default is parameter.empty)
            for parameter in inspect.signature(target).parameters.values()
        ]

    assert shape(cls) == shape(twin)


def test_record_fields_cannot_be_assigned_or_deleted():
    record, twin = TweetRecord(id="1"), TweetRecordTwin(id="1")
    for name in RECORD_FIELDS:
        for target in (record, twin):
            with pytest.raises(AttributeError):
                setattr(target, name, "2")
            with pytest.raises(AttributeError):
                delattr(target, name)
    # A name that is no field: the slotted twin raised TypeError here, from
    # its generated __setattr__; the record raises AttributeError.
    with pytest.raises(AttributeError):
        record.extra = "2"
    assert record == TweetRecord(id="1")


def test_record_is_never_equal_to_a_plain_tuple():
    record = TweetRecord(id="1", text="t", longitude=4.4, latitude=52.1)
    plain = tuple(record)
    assert (record == plain) is False and (plain == record) is False
    assert (record != plain) is True and (plain != record) is True
    assert hash(record) == hash(TweetRecordTwin(*plain))


def test_record_copies_are_checked_and_equal():
    record = TweetRecord(id="1", longitude=4.4, latitude=52.1)
    assert pickle.loads(pickle.dumps(record)) == record
    assert record._replace(id="2") == TweetRecord(id="2", longitude=4.4, latitude=52.1)
    with pytest.raises(MalformedInput, match="longitude and latitude must be given together"):
        record._replace(latitude=None)
    with pytest.raises(MalformedInput, match="latitude out of range"):
        TweetRecord._make(["1", "", None, None, None, None, None, 4.4, 95.0, None])


def test_model_config_takes_no_part_in_equality_or_repr():
    def model(config):
        return NaiveBayesModel(1.0, (K.TIMEZONE,), {"NL": 1}, {}, {}, {}, config=config)

    first, second = model({"k": 1}), model({"k": 2})
    assert first == second and not first != second
    assert repr(first) == repr(second) and "config" not in repr(first)
    assert first.config == {"k": 1}
    assert NaiveBayesModel.__hash__ is None
    with pytest.raises(TypeError, match="unhashable type: 'NaiveBayesModel'"):
        hash(first)
