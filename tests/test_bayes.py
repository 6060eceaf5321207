"""Counting classifier: training, scoring, persistence, validation."""

from __future__ import annotations

import copy
import json
import logging
import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tweetcountry
from tweetcountry.bayes import (
    MODEL_SCHEMA_VERSION,
    NaiveBayesModel,
    classify,
    load_model,
    load_model_config,
    log_posterior,
    model_from_dict,
    model_to_dict,
    save_model,
    train,
)
from tweetcountry.atomic import write_json_atomic
from tweetcountry.errors import CorruptModel, EmptyTrainingSet
from tweetcountry.evaluation import majority_class
from tweetcountry.features import ALL_KINDS, FeatureKind

from reference_impl import reference_model_to_dict

K = FeatureKind


class TestTrain:
    def test_counts(self, tiny_model):
        assert tiny_model.class_count == {"NL": 2, "GB": 1}
        assert tiny_model.total_examples == 3
        assert tiny_model.classes == ["GB", "NL"]
        assert tiny_model.vocabulary[K.TIMEZONE] == {"amsterdam", "london"}
        assert tiny_model.value_count["NL"][K.TIMEZONE]["amsterdam"] == 2
        assert tiny_model.kind_total["NL"][K.TIMEZONE] == 2

    def test_vocabulary_sizes(self, tiny_model):
        sizes = tiny_model.vocabulary_sizes()
        assert sizes["timezone"] == 2
        assert sizes["location"] == 0

    def test_empty_training_set(self):
        with pytest.raises(EmptyTrainingSet):
            train([])
        with pytest.raises(EmptyTrainingSet):
            train(iter(()))

    def test_walks_a_one_shot_iterator_once(self, tiny_examples, tiny_model):
        assert train(iter(tiny_examples)) == tiny_model

    def test_negative_alpha(self, tiny_examples):
        with pytest.raises(ValueError):
            train(tiny_examples, alpha=-0.5)
        # checked before any pair is read, so also with none
        with pytest.raises(ValueError, match="alpha must be"):
            train([], alpha=-0.5)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_alpha_that_is_not_finite(self, tiny_examples, alpha):
        with pytest.raises(ValueError, match="alpha must be a finite non-negative number"):
            train(tiny_examples, alpha=alpha)

    # The list and dict are unhashable: a lookup of them in the counts raises TypeError.
    @pytest.mark.parametrize("label", ["Netherlands", "nl", None, ["NL"], {"NL": 1}])
    def test_invalid_label(self, label):
        with pytest.raises(ValueError, match=re.escape(f"invalid country label {label!r}")):
            train([({K.TIMEZONE: "x"}, label)])
        # also when it follows a counted label
        with pytest.raises(ValueError, match=re.escape(f"invalid country label {label!r}")):
            train([({K.TIMEZONE: "x"}, "NL"), ({K.TIMEZONE: "y"}, label)])

    @pytest.mark.parametrize("value", ["", None])
    def test_empty_feature_value(self, value):
        with pytest.raises(ValueError) as excinfo:
            train([({K.LOCATION: "x", K.TIMEZONE: value}, "NL")])
        assert str(excinfo.value) == "empty feature value for kind 'timezone'"

    def test_disabled_kind_entries_ignored(self, tiny_examples):
        model = train(tiny_examples, enabled_kinds=(K.LOCATION,))
        assert model.enabled_kinds == (K.LOCATION,)
        assert model.vocabulary == {K.LOCATION: set()}
        assert model.class_count == {"NL": 2, "GB": 1}

    def test_disabled_kind_entries_are_logged_at_debug(self, tiny_examples, caplog):
        caplog.set_level(logging.DEBUG, logger="tweetcountry.bayes")
        train(tiny_examples, enabled_kinds=(K.LOCATION,))
        assert [(record.name, record.levelname, record.getMessage()) for record in caplog.records] == [
            ("tweetcountry.bayes", "DEBUG", "ignored 3 feature entries of disabled kinds")
        ]

    # Names are not kinds, so they enable nothing either.
    @pytest.mark.parametrize("kinds", [(), ["timezone", "location"]], ids=["empty", "names"])
    def test_no_enabled_kind(self, tiny_examples, kinds):
        with pytest.raises(ValueError, match="enabled kinds must be non-empty"):
            train(tiny_examples, enabled_kinds=kinds)

    def test_enabled_kinds_canonical_order(self, tiny_examples):
        model = train(tiny_examples, enabled_kinds=(K.USER_LANGUAGE, K.TIMEZONE))
        assert model.enabled_kinds == (K.TIMEZONE, K.USER_LANGUAGE)


class TestScoring:
    def test_worked_example(self, tiny_model):
        ranked = log_posterior(tiny_model, {K.TIMEZONE: "amsterdam"})
        assert [country for country, _ in ranked] == ["NL", "GB"]
        scores = dict(ranked)
        assert scores["NL"] == pytest.approx(math.log(2 / 3) + math.log(3 / 4), abs=1e-12)
        assert scores["GB"] == pytest.approx(math.log(1 / 3) + math.log(1 / 3), abs=1e-12)

    def test_classify_returns_top(self, tiny_model):
        assert classify(tiny_model, {K.TIMEZONE: "amsterdam"}) == "NL"
        assert classify(tiny_model, {K.TIMEZONE: "london"}) == "GB"

    def test_oov_value_is_skipped_for_everyone(self, tiny_model):
        ranked = log_posterior(tiny_model, {K.TIMEZONE: "mars"})
        scores = dict(ranked)
        assert scores["NL"] == pytest.approx(math.log(2 / 3))
        assert scores["GB"] == pytest.approx(math.log(1 / 3))

    def test_empty_vector_scores_priors(self, tiny_model):
        ranked = log_posterior(tiny_model, {})
        assert [country for country, _ in ranked] == ["NL", "GB"]

    def test_entries_of_disabled_kinds_ignored(self, tiny_model):
        with_extra = log_posterior(
            tiny_model, {K.TIMEZONE: "amsterdam", K.LOCATION: "amsterdam"}
        )
        without = log_posterior(tiny_model, {K.TIMEZONE: "amsterdam"})
        # location never entered the vocabulary, so it cannot contribute
        assert with_extra == without

    def test_zero_alpha_unseen_pairing_is_minus_inf(self):
        examples = [
            ({K.TIMEZONE: "a"}, "NL"),
            ({K.TIMEZONE: "b"}, "GB"),
        ]
        model = train(examples, alpha=0.0)
        scores = dict(log_posterior(model, {K.TIMEZONE: "a"}))
        assert scores["GB"] == -math.inf
        assert scores["NL"] == pytest.approx(math.log(1 / 2))

    def test_zero_alpha_all_minus_inf_falls_back_to_priors(self):
        examples = [
            ({K.TIMEZONE: "a", K.USER_LANGUAGE: "xx"}, "NL"),
            ({K.TIMEZONE: "b", K.USER_LANGUAGE: "yy"}, "NL"),
            ({K.TIMEZONE: "c", K.USER_LANGUAGE: "xx"}, "GB"),
        ]
        model = train(examples, alpha=0.0)
        # timezone c under NL and timezone a/b under GB are unseen: all -inf
        ranked = log_posterior(model, {K.TIMEZONE: "c", K.USER_LANGUAGE: "yy"})
        assert all(score == -math.inf for _, score in ranked)
        assert [country for country, _ in ranked] == ["NL", "GB"]

    def test_tie_breaks_lexicographically(self):
        examples = [
            ({K.TIMEZONE: "same"}, "BB"),
            ({K.TIMEZONE: "same"}, "AA"),
        ]
        model = train(examples)
        ranked = log_posterior(model, {K.TIMEZONE: "same"})
        assert [country for country, _ in ranked] == ["AA", "BB"]
        assert ranked[0][1] == ranked[1][1]

    def test_uniform_priors(self, tiny_model):
        ranked = log_posterior(tiny_model, {}, uniform_priors=True)
        scores = dict(ranked)
        assert scores["NL"] == pytest.approx(-math.log(2))
        assert scores["GB"] == pytest.approx(-math.log(2))
        assert [country for country, _ in ranked] == ["GB", "NL"]

    def test_uniform_priors_keep_likelihood(self, tiny_model):
        ranked = log_posterior(tiny_model, {K.TIMEZONE: "amsterdam"}, uniform_priors=True)
        assert ranked[0][0] == "NL"
        assert ranked[0][1] == pytest.approx(-math.log(2) + math.log(3 / 4))


feature_values = st.sampled_from(["v0", "v1", "v2", "v3"])
labels = st.sampled_from(["AA", "BB", "CC"])
vectors = st.dictionaries(st.sampled_from(list(ALL_KINDS)), feature_values, max_size=3)
example_lists = st.lists(st.tuples(vectors, labels), min_size=2, max_size=30)


def reference_log_posterior(model, vector, uniform_priors=False):
    """The per-class scoring loop that predates the compiled rows, kept as the reference."""
    total = model.total_examples
    count_of = model.class_count
    scores = []
    for country in count_of:
        if uniform_priors:
            score = -math.log(len(count_of))
        else:
            score = math.log(count_of[country] / total)
        per_kind = model.value_count.get(country, {})
        totals = model.kind_total.get(country, {})
        for kind in model.enabled_kinds:
            value = vector.get(kind)
            if value is None:
                continue
            vocab = model.vocabulary.get(kind)
            if not vocab or value not in vocab:
                continue
            numerator = per_kind.get(kind, {}).get(value, 0) + model.alpha
            if numerator == 0:
                score = -math.inf
                continue
            denominator = totals.get(kind, 0) + model.alpha * len(vocab)
            score += math.log(numerator / denominator)
        scores.append((country, score))
    if scores and all(score == -math.inf for _, score in scores):
        if uniform_priors:
            scores.sort(key=lambda item: item[0])
        else:
            scores.sort(key=lambda item: (-count_of[item[0]], item[0]))
    else:
        scores.sort(key=lambda item: (-item[1], item[0]))
    return scores


def reference_majority(model, kind, value):
    """The per-call scan over every class that predates the compiled rows."""
    best, best_count = None, 0
    for country in sorted(model.class_count):
        count = model.value_count.get(country, {}).get(kind, {}).get(value, 0)
        if count > best_count:
            best, best_count = country, count
    return best


def assert_same_ranking(got, expected):
    assert [country for country, _ in got] == [country for country, _ in expected]
    assert [repr(score) for _, score in got] == [repr(score) for _, score in expected]


# Training values are v0..v3; scored vectors also draw v4 and v5, which no model has seen.
scored_values = st.sampled_from(["v0", "v1", "v2", "v3", "v4", "v5"])
scored_vectors = st.dictionaries(st.sampled_from(list(ALL_KINDS)), scored_values, max_size=6)
tied_labels = st.sampled_from(["AA", "BB", "CC", "DD"])
count_tables = st.lists(st.tuples(vectors, tied_labels), min_size=1, max_size=25)
kind_subsets = st.sets(st.sampled_from(list(ALL_KINDS)), min_size=1)


def assert_scored_like_reference(model, scored):
    """Every vector in both prior modes, and every value's majority class, as the reference."""
    # twice over, so the second pass reads the base sums the first one cached
    for _ in range(2):
        for vector in scored + [{}]:
            for uniform in (False, True):
                assert_same_ranking(
                    log_posterior(model, vector, uniform_priors=uniform),
                    reference_log_posterior(model, vector, uniform_priors=uniform),
                )
    for kind in ALL_KINDS:
        for value in ["v0", "v1", "v2", "v3", "v4", "v5"]:
            assert majority_class(model, kind, value) == reference_majority(model, kind, value)


# One value across every kind per vector (v4 and v5 are never in a vocabulary), and one mix.
all_scored = [
    {kind: value for kind in ALL_KINDS} for value in ["v0", "v1", "v2", "v3", "v4", "v5"]
] + [{K.LOCATION: "v0", K.TIMEZONE: "v1", K.USER_LANGUAGE: "v4"}]


# With alpha 0 every class scores -inf on fallback_vector; CC is the largest class, AA the first code.
fallback_examples = [
    ({K.TIMEZONE: "v0", K.USER_LANGUAGE: "v1"}, "BB"),
    ({K.TIMEZONE: "v1", K.USER_LANGUAGE: "v0"}, "AA"),
    ({K.TIMEZONE: "v1", K.USER_LANGUAGE: "v0"}, "CC"),
    ({K.TIMEZONE: "v1", K.USER_LANGUAGE: "v0"}, "CC"),
]
fallback_vector = {K.TIMEZONE: "v0", K.USER_LANGUAGE: "v0"}

# Vocabulary {v0, v1}, alpha 1. On {TIMEZONE: "v0"} only CC's term is its own:
# log(2/6), and BB's base term is log(1/3), the same float; AA's is log(1/9).
tied_examples = (
    [({K.TIMEZONE: "v1"}, "AA")] * 7
    + [({K.TIMEZONE: "v1"}, "BB")]
    + [({K.TIMEZONE: "v0"}, "CC")]
    + [({K.TIMEZONE: "v1"}, "CC")] * 3
)


class TestCompiledScoring:
    @given(
        count_tables,
        st.sampled_from([0.0, 0.5, 1.0, 2.0]),
        kind_subsets,
        st.lists(scored_vectors, min_size=1, max_size=8),
    )
    # CC counted none of the values, so its score is the cached base sum alone,
    # which comes out different if the base rows are added in another order.
    @example(
        [
            ({K.LOCATION: "v0", K.TIMEZONE: "v1", K.TWEET_LANGUAGE: "v0"}, "BB"),
            ({K.LOCATION: "v1"}, "BB"),
            ({K.TIMEZONE: "v0"}, "CC"),
        ],
        1.0,
        {K.LOCATION, K.TIMEZONE, K.TWEET_LANGUAGE},
        [{K.LOCATION: "v1", K.TIMEZONE: "v1", K.TWEET_LANGUAGE: "v1"}],
    )
    @settings(max_examples=300, deadline=None)
    def test_bitwise_equal_to_per_class_loop(self, examples, alpha, kinds, scored):
        model = train(examples, alpha=alpha, enabled_kinds=kinds)
        assert_scored_like_reference(model, scored)
        # A reloaded model compiles from dicts in another order, to the same scores.
        assert_scored_like_reference(model_from_dict(model_to_dict(model)), scored)
        fresh = train(examples, alpha=alpha, enabled_kinds=kinds)
        assert model == fresh
        assert model_to_dict(model) == model_to_dict(fresh)

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_explicit_zero_counts_score_like_unseen_values(self, alpha):
        examples = [
            ({K.TIMEZONE: "v0", K.USER_LANGUAGE: "v1"}, "AA"),
            ({K.TIMEZONE: "v1", K.USER_LANGUAGE: "v1"}, "BB"),
            ({K.TIMEZONE: "v0"}, "CC"),
        ]
        document = model_to_dict(train(examples, alpha=alpha))
        # model_from_dict accepts a zero count, for a counted value and for an unseen one
        document["value_count"]["BB"]["timezone"].update({"v0": 0, "v5": 0})
        document["value_count"]["CC"]["user_language"] = {"v1": 0}
        model = model_from_dict(document)
        assert model.value_count["BB"][K.TIMEZONE]["v0"] == 0
        assert_scored_like_reference(model, all_scored)

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_enabled_kind_without_vocabulary(self, alpha):
        examples = [({K.TIMEZONE: "v0"}, "AA"), ({K.TIMEZONE: "v1"}, "BB"), ({K.TIMEZONE: "v0"}, "BB")]
        model = train(examples, alpha=alpha, enabled_kinds=(K.LOCATION, K.TIMEZONE, K.GEOPARSED))
        assert model.vocabulary[K.LOCATION] == set() == model.vocabulary[K.GEOPARSED]
        assert_scored_like_reference(model, all_scored)
        assert_scored_like_reference(model_from_dict(model_to_dict(model)), all_scored)

    @given(
        count_tables,
        st.sampled_from([0.0, 0.5, 1.0]),
        kind_subsets,
        st.lists(scored_vectors, min_size=1, max_size=8),
        st.booleans(),
    )
    # alpha 0 and a vector no class can score: the all -inf fallback, in both prior modes
    @example(fallback_examples, 0.0, {K.TIMEZONE, K.USER_LANGUAGE}, [fallback_vector], False)
    @example(fallback_examples, 0.0, {K.TIMEZONE, K.USER_LANGUAGE}, [fallback_vector], True)
    # a touched class ties an untouched one that comes first in code order
    @example(tied_examples, 1.0, {K.TIMEZONE}, [{K.TIMEZONE: "v0"}], True)
    @example(tied_examples, 1.0, {K.TIMEZONE}, [{K.TIMEZONE: "v0"}], False)
    @settings(max_examples=300, deadline=None)
    def test_classify_is_the_first_ranked_class(self, examples, alpha, kinds, scored, uniform):
        model = train(examples, alpha=alpha, enabled_kinds=kinds)
        for vector in scored + [{}]:
            ranked = log_posterior(model, vector, uniform_priors=uniform)
            assert classify(model, vector, uniform_priors=uniform) == ranked[0][0]
            first = log_posterior(model, vector, uniform_priors=uniform, top=1)
            assert classify(model, vector, uniform_priors=uniform) == first[0][0]

    @given(
        count_tables,
        st.sampled_from([0.0, 0.5, 1.0]),
        kind_subsets,
        st.lists(scored_vectors, min_size=1, max_size=8),
        st.lists(st.sampled_from(list(ALL_KINDS)), unique=True),
        st.booleans(),
    )
    @example(tied_examples, 1.0, {K.TIMEZONE}, [{K.TIMEZONE: "v0", K.LOCATION: "v0"}], [K.LOCATION, K.TIMEZONE], True)
    @settings(max_examples=300, deadline=None)
    def test_classify_on_kinds_is_classify_on_the_restricted_vector(
        self, examples, alpha, kinds, scored, subset, uniform
    ):
        # subset comes in any order and may hold kinds the model does not enable
        model = train(examples, alpha=alpha, enabled_kinds=kinds)
        for vector in scored + [{}]:
            restricted = {kind: vector[kind] for kind in subset if kind in vector}
            for container in (subset, tuple(subset), set(subset)):
                assert classify(model, vector, uniform_priors=uniform, kinds=container) == classify(
                    model, restricted, uniform_priors=uniform
                )

    @pytest.mark.parametrize("uniform", [False, True])
    @pytest.mark.parametrize(
        "alpha, vector",
        [
            (1.0, {K.TIMEZONE: "a", K.USER_LANGUAGE: "en", K.LOCATION: "x"}),
            (1.0, {K.USER_LANGUAGE: "en"}),
            # every class is touched and scores -inf: the prior-only fallback
            (0.0, {K.TIMEZONE: "a", K.USER_LANGUAGE: "en", K.LOCATION: "x"}),
        ],
    )
    def test_value_every_class_counted(self, alpha, vector, uniform):
        # Every class counted "en", so a vector holding it moves every class off its start.
        examples = [
            ({K.TIMEZONE: "a", K.USER_LANGUAGE: "en"}, "AA"),
            ({K.TIMEZONE: "b", K.USER_LANGUAGE: "en", K.LOCATION: "x"}, "BB"),
            ({K.TIMEZONE: "b", K.USER_LANGUAGE: "en", K.LOCATION: "y"}, "CC"),
            ({K.TIMEZONE: "b", K.USER_LANGUAGE: "en", K.LOCATION: "x"}, "CC"),
        ]
        model = train(examples, alpha=alpha)
        ranked = reference_log_posterior(model, vector, uniform_priors=uniform)
        assert_same_ranking(log_posterior(model, vector, uniform_priors=uniform), ranked)
        assert_same_ranking(log_posterior(model, vector, uniform_priors=uniform, top=1), ranked[:1])
        assert classify(model, vector, uniform_priors=uniform) == ranked[0][0]
        if alpha == 0.0:
            assert all(score == -math.inf for _, score in ranked)

    @given(
        count_tables,
        st.sampled_from([0.0, 0.5, 1.0]),
        kind_subsets,
        st.lists(scored_vectors, min_size=1, max_size=8),
        st.booleans(),
    )
    # Uniform priors: CC counted the scored value and BB did not, and both score
    # log(1/3) exactly (2/6 and 1/3 round to the same float), so the touched
    # class ties an untouched one that comes first in code order.
    @example(tied_examples, 1.0, {K.TIMEZONE}, [{K.TIMEZONE: "v0"}], True)
    @example(tied_examples, 1.0, {K.TIMEZONE}, [{K.TIMEZONE: "v0"}], False)
    @example(fallback_examples, 0.0, {K.TIMEZONE, K.USER_LANGUAGE}, [fallback_vector], False)
    @example(fallback_examples, 0.0, {K.TIMEZONE, K.USER_LANGUAGE}, [fallback_vector], True)
    @settings(max_examples=300, deadline=None)
    def test_top_is_a_prefix_of_the_full_ranking(self, examples, alpha, kinds, scored, uniform):
        model = train(examples, alpha=alpha, enabled_kinds=kinds)
        classes = len(model.class_count)
        # twice over, so the second pass reads the start rankings the first one cached
        for _ in range(2):
            for vector in scored + [{}]:
                ranked = reference_log_posterior(model, vector, uniform_priors=uniform)
                for top in range(1, classes + 2):
                    assert_same_ranking(
                        log_posterior(model, vector, uniform_priors=uniform, top=top), ranked[:top]
                    )

    def test_touched_class_ties_an_untouched_one(self):
        model = train(tied_examples, enabled_kinds=(K.TIMEZONE,))
        ranked = log_posterior(model, {K.TIMEZONE: "v0"}, uniform_priors=True)
        assert [country for country, _ in ranked] == ["BB", "CC", "AA"]
        assert ranked[0][1] == ranked[1][1]
        assert log_posterior(model, {K.TIMEZONE: "v0"}, uniform_priors=True, top=1) == ranked[:1]

    @pytest.mark.parametrize("top", [0, -1])
    def test_top_below_one(self, tiny_model, top):
        with pytest.raises(ValueError, match="top must be at least 1"):
            log_posterior(tiny_model, {K.TIMEZONE: "amsterdam"}, top=top)

    @pytest.mark.parametrize("uniform", [False, True])
    def test_all_minus_inf_fallback_matches_per_class_loop(self, uniform):
        examples = [
            ({K.TIMEZONE: "a", K.USER_LANGUAGE: "xx"}, "NL"),
            ({K.TIMEZONE: "b", K.USER_LANGUAGE: "yy"}, "NL"),
            ({K.TIMEZONE: "c", K.USER_LANGUAGE: "xx"}, "GB"),
            ({K.TIMEZONE: "d", K.USER_LANGUAGE: "zz"}, "AT"),
        ]
        model = train(examples, alpha=0.0)
        vector = {K.TIMEZONE: "c", K.USER_LANGUAGE: "yy"}
        ranked = log_posterior(model, vector, uniform_priors=uniform)
        assert all(score == -math.inf for _, score in ranked)
        assert [country for country, _ in ranked] == (["AT", "GB", "NL"] if uniform else ["NL", "AT", "GB"])
        assert_same_ranking(ranked, reference_log_posterior(model, vector, uniform_priors=uniform))

    def test_majority_ties_unseen_values_and_disabled_kinds(self):
        examples = [
            ({K.TIMEZONE: "shared"}, "NL"),
            ({K.TIMEZONE: "shared"}, "GB"),
            ({K.TIMEZONE: "london"}, "GB"),
        ]
        model = train(examples, enabled_kinds=(K.TIMEZONE,))
        assert majority_class(model, K.TIMEZONE, "shared") == "GB"
        assert majority_class(model, K.TIMEZONE, "mars") is None
        assert majority_class(model, K.LOCATION, "shared") is None

    def test_out_of_vocabulary_values_are_not_kept(self, tiny_model):
        compiled = tiny_model.compiled
        vocabulary = {kind: tiny_model.vocabulary[kind] for kind in tiny_model.enabled_kinds}
        assert {kind: set(terms) for kind, terms in compiled._terms.items()} == vocabulary
        assert {kind: set(majority) for kind, majority in compiled._majority.items()} == vocabulary
        assert compiled._majority[K.TIMEZONE] == {"amsterdam": "NL", "london": "GB"}
        terms, majority = copy.deepcopy(compiled._terms), copy.deepcopy(compiled._majority)
        for i in range(50):
            log_posterior(tiny_model, {K.TIMEZONE: f"unseen {i}", K.LOCATION: f"unseen {i}"})
            assert majority_class(tiny_model, K.TIMEZONE, f"unseen {i}") is None
        assert compiled._terms == terms
        assert compiled._majority == majority

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_hand_built_vocabulary_decides_what_is_in_vocabulary(self, alpha):
        # Timezone v2 is in the vocabulary but no class counted it, so its base
        # row is still added. Timezone v3 and user language v0 were counted but
        # are not in the vocabulary, and location has none: all three are skipped.
        model = NaiveBayesModel(
            alpha=alpha,
            enabled_kinds=(K.LOCATION, K.TIMEZONE, K.USER_LANGUAGE),
            class_count={"AA": 3, "BB": 2, "CC": 1},
            value_count={
                "AA": {K.TIMEZONE: {"v0": 2, "v3": 1}, K.USER_LANGUAGE: {"v1": 3}},
                "BB": {K.LOCATION: {"v0": 2}, K.TIMEZONE: {"v1": 2}, K.USER_LANGUAGE: {"v0": 2}},
                "CC": {K.TIMEZONE: {"v1": 1}, K.USER_LANGUAGE: {"v1": 1}},
            },
            kind_total={
                "AA": {K.TIMEZONE: 3, K.USER_LANGUAGE: 3},
                "BB": {K.LOCATION: 2, K.TIMEZONE: 2, K.USER_LANGUAGE: 2},
                "CC": {K.TIMEZONE: 1, K.USER_LANGUAGE: 1},
            },
            vocabulary={K.TIMEZONE: {"v0", "v1", "v2"}, K.USER_LANGUAGE: {"v1"}},
        )
        scored = all_scored + [
            {K.TIMEZONE: "v2"},
            {K.TIMEZONE: "v2", K.USER_LANGUAGE: "v1"},
            {K.LOCATION: "v0", K.TIMEZONE: "v3", K.USER_LANGUAGE: "v0"},
        ]
        for vector in scored + [{}]:
            for uniform in (False, True):
                ranked = reference_log_posterior(model, vector, uniform_priors=uniform)
                assert_same_ranking(log_posterior(model, vector, uniform_priors=uniform), ranked)
                for top in range(1, len(ranked) + 2):
                    assert_same_ranking(
                        log_posterior(model, vector, uniform_priors=uniform, top=top), ranked[:top]
                    )
                assert classify(model, vector, uniform_priors=uniform) == ranked[0][0]
        counted_outside = {(K.LOCATION, "v0"), (K.TIMEZONE, "v3"), (K.USER_LANGUAGE, "v0")}
        for kind in ALL_KINDS:
            for value in ["v0", "v1", "v2", "v3", "v4", "v5"]:
                # The count scan of the reference does not read the vocabulary.
                expected = None if (kind, value) in counted_outside else reference_majority(model, kind, value)
                assert majority_class(model, kind, value) == expected
        assert majority_class(model, K.TIMEZONE, "v1") == "BB"
        assert majority_class(model, K.TIMEZONE, "v2") is None

    def test_compiled_form_is_not_part_of_the_model(self, tiny_model, tiny_examples, tmp_path):
        before = model_to_dict(tiny_model)
        log_posterior(tiny_model, {K.TIMEZONE: "amsterdam"})
        assert "compiled" in vars(tiny_model)
        assert tiny_model == train(tiny_examples, alpha=1.0)
        assert model_to_dict(tiny_model) == before
        save_model(tiny_model, tmp_path / "model.json")
        assert json.loads((tmp_path / "model.json").read_text(encoding="utf-8")) == before


class TestAdditivity:
    @given(example_lists, st.data())
    @settings(max_examples=60, deadline=None)
    def test_counts_add_over_any_split(self, examples, data):
        cut = data.draw(st.integers(min_value=1, max_value=len(examples) - 1))
        whole, first, second = train(examples), train(examples[:cut]), train(examples[cut:])

        def added(table):
            return Counter(table(first)) + Counter(table(second))

        assert Counter(whole.class_count) == added(lambda m: m.class_count)
        for kind in whole.enabled_kinds:
            assert whole.vocabulary[kind] == first.vocabulary[kind] | second.vocabulary[kind]
            for country in whole.class_count:
                assert Counter(whole.value_count[country].get(kind, {})) == added(
                    lambda m: m.value_count.get(country, {}).get(kind, {})
                )
                assert whole.kind_total[country].get(kind, 0) == sum(
                    m.kind_total.get(country, {}).get(kind, 0) for m in (first, second)
                )


class TestPersistence:
    def test_round_trip(self, tiny_model, tmp_path):
        path = tmp_path / "model.json"
        save_model(tiny_model, path)
        assert load_model(path) == tiny_model

    def test_save_is_deterministic(self, tiny_model, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_model(tiny_model, a)
        save_model(tiny_model, b)
        assert a.read_bytes() == b.read_bytes()

    def test_no_timestamps_in_document(self, tiny_model):
        text = json.dumps(model_to_dict(tiny_model))
        assert re.search(r"\d{4}-\d{2}-\d{2}", text) is None
        assert "timestamp" not in text

    def test_config_echo(self, tiny_model, tmp_path):
        path = tmp_path / "model.json"
        save_model(tiny_model, path, config={"alpha": 1.0, "kinds": "timezone"})
        assert load_model_config(path) == {"alpha": 1.0, "kinds": "timezone"}
        assert load_model(path) == tiny_model

    def test_missing_config_is_none(self, tiny_model, tmp_path):
        path = tmp_path / "model.json"
        save_model(tiny_model, path)
        assert load_model_config(path) is None

    def test_loaded_config_is_saved_back(self, tiny_model, tmp_path):
        path, copy, other = tmp_path / "model.json", tmp_path / "copy.json", tmp_path / "other.json"
        save_model(tiny_model, path, config={"case_fold": False})
        loaded = load_model(path)
        assert loaded.config == {"case_fold": False}
        save_model(loaded, copy)
        assert copy.read_bytes() == path.read_bytes()
        # An explicit config replaces the loaded one.
        save_model(loaded, other, config={"case_fold": True})
        assert load_model_config(other) == {"case_fold": True}

    @given(
        examples=example_lists,
        rng=st.randoms(use_true_random=False),
        config=st.sampled_from([None, {"case_fold": False, "alpha": 1.0, "kinds": "timezone"}]),
    )
    @settings(max_examples=40, deadline=None)
    def test_saved_bytes_do_not_depend_on_training_order(self, tmp_path_factory, examples, rng, config):
        # The document keeps the model's key order; the writer sorts every key,
        # so the bytes equal those of the document with every table sorted.
        shuffled = [(dict(rng.sample(list(vector.items()), len(vector))), label) for vector, label in examples]
        rng.shuffle(shuffled)
        first, second = train(examples), train(shuffled)
        directory = tmp_path_factory.mktemp("order")
        paths = [directory / name for name in ("first.json", "second.json", "reference.json")]
        save_model(first, paths[0], config)
        save_model(second, paths[1], config)
        write_json_atomic(paths[2], reference_model_to_dict(first, config))
        assert paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()

    @given(example_lists)
    @settings(max_examples=40, deadline=None)
    def test_dict_round_trip_property(self, examples):
        model = train(examples)
        assert model_from_dict(json.loads(json.dumps(model_to_dict(model)))) == model


def _valid_document(tiny_model):
    return model_to_dict(tiny_model)


class TestModelValidation:
    @pytest.fixture
    def document(self, tiny_model):
        return _valid_document(tiny_model)

    def _expect_corrupt(self, document):
        with pytest.raises(CorruptModel):
            model_from_dict(document)

    def test_valid_document_loads(self, document, tiny_model):
        assert model_from_dict(document) == tiny_model

    def test_bad_schema_version(self, document):
        document["schema_version"] = MODEL_SCHEMA_VERSION + 1
        self._expect_corrupt(document)

    def test_negative_alpha(self, document):
        document["alpha"] = -1.0
        self._expect_corrupt(document)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, 10**400])
    def test_alpha_that_is_not_finite(self, document, alpha):
        document["alpha"] = alpha
        with pytest.raises(CorruptModel, match="alpha must be"):
            model_from_dict(document)

    def test_boolean_alpha(self, document):
        document["alpha"] = True
        self._expect_corrupt(document)

    def test_unknown_kind(self, document):
        document["enabled_kinds"] = ["timezone", "shoe_size"]
        self._expect_corrupt(document)

    def test_duplicate_kinds(self, document):
        document["enabled_kinds"] = ["timezone", "timezone"]
        self._expect_corrupt(document)

    def test_kinds_out_of_order(self, document):
        document["enabled_kinds"] = ["timezone", "location"]
        self._expect_corrupt(document)

    def test_lowercase_class(self, document):
        document["class_count"]["nl"] = 1
        self._expect_corrupt(document)

    def test_zero_class_count(self, document):
        document["class_count"]["NL"] = 0
        self._expect_corrupt(document)

    def test_boolean_count(self, document):
        document["class_count"]["NL"] = True
        self._expect_corrupt(document)

    def test_total_mismatch(self, document):
        document["total_examples"] = 7
        self._expect_corrupt(document)

    def test_value_count_unknown_class(self, document):
        document["value_count"]["FR"] = {}
        self._expect_corrupt(document)

    def test_kind_total_mismatch(self, document):
        document["kind_total"]["NL"]["timezone"] = 5
        self._expect_corrupt(document)

    def test_kind_total_error_names_the_same_kind_under_every_hash_seed(self, tmp_path):
        """Kinds are checked in canonical order, not in the order of a set."""
        model = train([({K.LOCATION: "london", K.TIMEZONE: "london"}, "GB")], alpha=1.0)
        document = model_to_dict(model)
        document["kind_total"]["GB"] = {"location": 0, "timezone": 0}
        script = (
            "import json, sys\n"
            "from tweetcountry.bayes import model_from_dict\n"
            "from tweetcountry.errors import CorruptModel\n"
            "try:\n    model_from_dict(json.load(sys.stdin))\n"
            "except CorruptModel as exc:\n    print(exc)\n"
        )
        package_root = str(Path(tweetcountry.__file__).resolve().parents[1])
        messages = set()
        for seed in range(6):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=package_root)
            result = subprocess.run(
                [sys.executable, "-c", script], input=json.dumps(document), capture_output=True,
                encoding="utf-8", env=env, timeout=60,
            )
            assert result.returncode == 0, result.stderr
            messages.add(result.stdout)
        assert messages == {"kind_total[GB][location] is 0 but values sum to 1\n"}

    def test_kind_total_exceeds_class_size(self, document):
        document["value_count"]["NL"]["timezone"]["amsterdam"] = 9
        document["kind_total"]["NL"]["timezone"] = 9
        self._expect_corrupt(document)

    def test_vocabulary_missing_value(self, document):
        document["vocabulary"]["timezone"] = ["amsterdam"]
        self._expect_corrupt(document)

    def test_vocabulary_extra_value(self, document):
        document["vocabulary"]["timezone"] = ["amsterdam", "london", "berlin"]
        self._expect_corrupt(document)

    def test_vocabulary_duplicates(self, document):
        document["vocabulary"]["timezone"] = ["amsterdam", "london", "london"]
        self._expect_corrupt(document)

    def test_disabled_kind_in_counts(self, tiny_examples):
        model = train(tiny_examples, enabled_kinds=(K.TIMEZONE,))
        document = model_to_dict(model)
        document["value_count"]["NL"]["location"] = {"x": 1}
        self._expect_corrupt(document)

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (lambda d: d["kind_total"].update(FR={}), "kind_total has unknown classes"),
            (lambda d: d["value_count"]["NL"]["timezone"].update({"": 0}), "empty feature value under 'timezone'"),
            (lambda d: d["kind_total"]["NL"].update(location=0), "kind_total uses disabled kind 'location'"),
            (lambda d: d["vocabulary"].update(location=[]), "vocabulary uses disabled kind 'location'"),
        ],
        ids=["kind-total-class", "empty-value", "kind-total-kind", "vocabulary-kind"],
    )
    def test_message_names_the_defect(self, tiny_examples, tamper, message):
        document = model_to_dict(train(tiny_examples, enabled_kinds=(K.TIMEZONE,)))
        tamper(document)
        with pytest.raises(CorruptModel) as excinfo:
            model_from_dict(document)
        assert str(excinfo.value) == message

    def test_not_an_object(self):
        self._expect_corrupt([1, 2, 3])

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(CorruptModel):
            load_model(tmp_path / "absent.json")

    def test_not_json(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{broken", encoding="utf-8")
        with pytest.raises(CorruptModel):
            load_model(path)

    @pytest.mark.parametrize("read", [load_model, load_model_config])
    def test_nesting_too_deep_to_decode(self, tmp_path, read):
        path = tmp_path / "model.json"
        path.write_text("[" * 200_000, encoding="utf-8")
        with pytest.raises(CorruptModel, match="model file is not valid JSON"):
            read(path)

    @pytest.mark.parametrize(
        "contents",
        [None, b"\xff{}", b"{broken", b"[" * 200_000],
        ids=["missing", "not-utf8", "broken-json", "nested-too-deep"],
    )
    def test_both_readers_give_the_same_message(self, tmp_path, contents):
        path = tmp_path / "model.json"
        if contents is not None:
            path.write_bytes(contents)
        messages = []
        for read in (load_model, load_model_config):
            with pytest.raises(CorruptModel) as excinfo:
                read(path)
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]

    def test_deep_copy_tamper_detection(self, tiny_model):
        # flipping any single count breaks at least one invariant
        base = model_to_dict(tiny_model)
        tampered = copy.deepcopy(base)
        tampered["value_count"]["GB"]["timezone"]["london"] = 2
        self._expect_corrupt(tampered)
