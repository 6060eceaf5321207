"""Accuracy, folds, ablation, per-country reports, diagnostics."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tweetcountry import evaluation
from tweetcountry.bayes import classify, train
from tweetcountry.errors import EmptyEvaluationSet, InvalidFoldCount, MalformedInput
from tweetcountry.evaluation import (
    ABLATION_PRESETS,
    BIG_CLASS,
    LIMITED_INFORMATION,
    OOV_ONLY,
    REPORT_KIND_SETS,
    LabeledDataset,
    accuracy,
    ablate,
    collapse_dataset,
    collapse_region,
    config_digest,
    cross_validate,
    default_region,
    diagnostic_tags,
    fraction_json,
    kfold_split,
    kinds_label,
    load_labeled_ndjson,
    load_region,
    majority_class,
    parse_kinds_label,
    per_country_report,
    summary_average,
    summary_population_stddev,
    write_ablation_csv,
    write_evaluation_csv,
    write_evaluation_json,
    write_per_country_csv,
)
from tweetcountry.features import FeatureKind, extract_features
from tweetcountry.tweet_model import OTHER_LABEL, TweetRecord

from conftest import make_noise_corpus

K = FeatureKind


class TestAccuracy:
    def test_exact_fractions(self):
        assert accuracy([("NL", "NL")] * 7) == Fraction(1)
        assert accuracy([("NL", "GB")] * 5) == Fraction(0)
        pairs = [("NL", "NL")] * 9 + [("NL", "GB")] * 2
        assert accuracy(pairs) == Fraction(9, 11)

    def test_never_a_float(self):
        result = accuracy([("NL", "NL"), ("NL", "GB"), ("GB", "GB")])
        assert isinstance(result, Fraction)
        assert result == Fraction(2, 3)

    def test_empty_rejected(self):
        with pytest.raises(EmptyEvaluationSet):
            accuracy([])


class TestKindsLabel:
    def test_label_and_parse_are_inverse(self):
        for subset in ABLATION_PRESETS["table1"]:
            assert parse_kinds_label(kinds_label(subset)) == subset

    def test_parse_accepts_any_order(self):
        assert parse_kinds_label("timezone+location") == (K.LOCATION, K.TIMEZONE)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_kinds_label("")
        with pytest.raises(ValueError):
            parse_kinds_label("location+shoe_size")

    def test_preset_shape(self):
        table = ABLATION_PRESETS["table1"]
        assert len(table) == 14
        assert len(set(table)) == 14
        assert table[-1] == tuple(FeatureKind)

    def test_report_kind_sets(self):
        labels = [kinds_label(kinds) for kinds in REPORT_KIND_SETS]
        assert labels == [
            "location+timezone+geoparsed",
            "location+timezone+tweet_language",
            "location+timezone+tweet_language+geoparsed",
        ]


class TestFolds:
    def test_partition(self):
        assignment = kfold_split(25, 4, seed=3)
        indices = [i for fold in range(4) for i in assignment.indices_in(fold)]
        assert sorted(indices) == list(range(25))

    def test_balanced_sizes(self):
        sizes = kfold_split(25, 4, seed=3).sizes()
        assert sum(sizes) == 25
        assert max(sizes) - min(sizes) <= 1

    def test_deterministic(self):
        assert kfold_split(100, 10, seed=7) == kfold_split(100, 10, seed=7)

    def test_seed_changes_assignment(self):
        assert kfold_split(100, 10, seed=0) != kfold_split(100, 10, seed=1)

    def test_k_equals_n(self):
        sizes = kfold_split(5, 5, seed=0).sizes()
        assert sizes == [1, 1, 1, 1, 1]

    def test_bad_fold_counts(self):
        with pytest.raises(InvalidFoldCount):
            kfold_split(10, 1, seed=0)
        with pytest.raises(InvalidFoldCount):
            kfold_split(10, 11, seed=0)

    @given(
        st.integers(min_value=2, max_value=200),
        st.integers(min_value=0, max_value=2**32),
        st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_fold_invariants_property(self, n, seed, data):
        k = data.draw(st.integers(min_value=2, max_value=n))
        assignment = kfold_split(n, k, seed)
        assert len(assignment.folds) == n
        assert set(assignment.folds) <= set(range(k))
        sizes = assignment.sizes()
        assert sum(sizes) == n
        assert max(sizes) - min(sizes) <= 1


class TestCrossValidate:
    def test_separable_corpus_is_perfect(self, separable_corpus):
        report = cross_validate(separable_corpus, k=10, kinds=(K.TIMEZONE,))
        assert report.pooled_accuracy == Fraction(1)
        assert report.mean_fold_accuracy == Fraction(1)
        assert all(value == Fraction(1) for value in report.fold_accuracies)
        assert report.n_evaluated == 100
        assert sum(report.fold_sizes) == 100

    def test_confusion_diagonal(self, separable_corpus):
        report = cross_validate(separable_corpus, k=10, kinds=(K.TIMEZONE,))
        for true, row in report.confusion.items():
            assert row == {true: 20}

    def test_config_echo(self, separable_corpus):
        report = cross_validate(
            separable_corpus, k=5, kinds=(K.TIMEZONE,), alpha=0.5, seed=9
        )
        assert report.config["kinds"] == ["timezone"]
        assert report.config["alpha"] == 0.5
        assert report.config["k"] == 5
        assert report.config["seed"] == 9
        assert report.config["fold_orientation"] == "standard"
        assert report.config["dataset_source"] == "synthetic:0"
        assert len(report.config_sha256) == 64

    def test_inverted_orientation(self, separable_corpus):
        report = cross_validate(
            separable_corpus, k=10, kinds=(K.TIMEZONE,), orientation="inverted"
        )
        # each fold trains on 10 records and tests on the other 90
        assert report.n_evaluated == 900
        assert report.fold_sizes == (90,) * 10

    def test_unknown_orientation(self, separable_corpus):
        with pytest.raises(ValueError):
            cross_validate(separable_corpus, k=10, orientation="sideways")

    def test_single_class_rejected(self):
        data = LabeledDataset([(TweetRecord(time_zone="x"), "NL")] * 10)
        with pytest.raises(ValueError):
            cross_validate(data, k=2)

    def test_bad_k_propagates(self, separable_corpus):
        with pytest.raises(InvalidFoldCount):
            cross_validate(separable_corpus, k=1)

    def test_uninformative_kinds_stay_near_chance(self):
        pooled = []
        for seed in range(5):
            data = make_noise_corpus(seed)
            report = cross_validate(data, k=10, kinds=(K.UTC_OFFSET,), seed=seed)
            pooled.append(float(report.pooled_accuracy))
        mean = sum(pooled) / len(pooled)
        assert 0.12 <= mean <= 0.28


def make_mixed_corpus(seed: int = 11, languages: int = 2) -> LabeledDataset:
    """Three countries with overlapping timezones and random offsets and
    languages, so every feature subset makes some mistakes. With many
    languages, a single training fold leaves some (timezone, language) pairs
    that no class has seen together: every class scores -inf at alpha 0."""
    rng = random.Random(seed)
    pool = ("en", "nl", "de", "fr", "es", "it", "pt", "pl")[:languages]
    examples = []
    for index in range(90):
        country = ("AA", "BB", "CC")[index % 3]
        zone = country.lower() if rng.random() < 0.6 else rng.choice(("aa", "bb", "cc"))
        record = TweetRecord(
            id=str(index),
            time_zone=zone,
            utc_offset_seconds=rng.choice((0, 3600)),
            user_language=rng.choice(pool),
        )
        examples.append((record, country))
    return LabeledDataset(examples, source=f"mixed:{seed}:{languages}")


def direct_folds(data, kinds, k, seed, orientation, alpha, uniform_priors):
    """Per-fold accuracies, pooled accuracy and confusion from train and
    classify called on each fold directly, on unrestricted vectors."""
    vectors = [extract_features(tweet) for tweet, _ in data.examples]
    labels = data.labels()
    folds = kfold_split(len(labels), k, seed).folds
    fold_accuracies = []
    pooled = []
    confusion: dict[str, dict[str, int]] = {}
    for fold in range(k):
        held_out = [i for i, f in enumerate(folds) if f == fold]
        rest = [i for i, f in enumerate(folds) if f != fold]
        train_on, test_on = (rest, held_out) if orientation == "standard" else (held_out, rest)
        model = train([(vectors[i], labels[i]) for i in train_on], alpha=alpha, enabled_kinds=kinds)
        pairs = [
            (classify(model, vectors[i], uniform_priors=uniform_priors), labels[i]) for i in test_on
        ]
        fold_accuracies.append(accuracy(pairs))
        pooled.extend(pairs)
        for predicted, true in pairs:
            row = confusion.setdefault(true, {})
            row[predicted] = row.get(predicted, 0) + 1
    return tuple(fold_accuracies), accuracy(pooled), confusion


def direct_same_set(data, kinds, region, alpha, uniform_priors):
    """Per-country accuracies and the region accuracy of a model scored on
    its own training set, from train and classify called directly."""
    vectors = [extract_features(tweet) for tweet, _ in data.examples]
    labels = data.labels()

    def predict(train_labels):
        model = train(zip(vectors, train_labels), alpha=alpha, enabled_kinds=kinds)
        return [classify(model, vector, uniform_priors=uniform_priors) for vector in vectors]

    predicted = predict(labels)
    per_country = {
        country: Fraction(
            sum(1 for p, t in zip(predicted, labels) if t == country and p == t),
            labels.count(country),
        )
        for country in set(labels)
    }
    collapsed = [label if label in region else OTHER_LABEL for label in labels]
    region_accuracy = accuracy(list(zip(predict(collapsed), collapsed)))
    return per_country, region_accuracy


def count_trainings(monkeypatch) -> list[int]:
    """Count the trainings evaluation runs; the one-item list holds the count."""
    calls = [0]
    real_train = evaluation.train

    def counting_train(*args, **kwargs):
        calls[0] += 1
        return real_train(*args, **kwargs)

    monkeypatch.setattr(evaluation, "train", counting_train)
    return calls


class TestAblate:
    def test_rows_match_direct_cross_validation(self, separable_corpus):
        # (LOCATION, TIMEZONE) holds a kind that no mixed-corpus vector has;
        # alpha 0 reaches the all -inf fallback, whose order depends on the
        # prior mode, on the many-language corpus in inverted orientation.
        subsets = [
            (K.TIMEZONE,),
            (K.UTC_OFFSET,),
            (K.TIMEZONE, K.USER_LANGUAGE),
            (K.LOCATION, K.TIMEZONE),
        ]
        corpora = (separable_corpus, make_mixed_corpus(), make_mixed_corpus(12, languages=8))
        for data in corpora:
            for alpha, uniform_priors in ((1.0, False), (0.0, False), (0.0, True), (0.5, True)):
                settings = {"alpha": alpha, "uniform_priors": uniform_priors}
                for orientation in ("standard", "inverted"):
                    rows = ablate(data, subsets, k=5, seed=4, orientation=orientation, **settings)
                    assert [row.kinds for row in rows] == subsets
                    for row in rows:
                        fold_accuracies, pooled, confusion = direct_folds(
                            data, row.kinds, 5, 4, orientation, alpha, uniform_priors
                        )
                        single = cross_validate(
                            data, k=5, kinds=row.kinds, seed=4, orientation=orientation, **settings
                        )
                        for report in (row.report, single):
                            assert report.fold_accuracies == fold_accuracies
                            assert report.pooled_accuracy == pooled
                            assert report.confusion == confusion
                # the same-set report column and region row, one case per subset
                report = per_country_report(
                    data, kind_sets=subsets, min_count=1, region={"AA"}, **settings
                )
                for column, kinds in enumerate(subsets):
                    per_country, region_accuracy = direct_same_set(
                        data, kinds, {"AA"}, alpha, uniform_priors
                    )
                    column_accuracies = {row.country: row.accuracies[column] for row in report.rows}
                    assert column_accuracies == per_country
                    assert report.region_accuracies[column] == region_accuracy

    def test_one_training_per_fold(self, separable_corpus, monkeypatch):
        trainings = count_trainings(monkeypatch)
        rows = ablate(separable_corpus, ABLATION_PRESETS["table1"], k=5)
        assert len(rows) == len(ABLATION_PRESETS["table1"])
        assert trainings == [5]

    def test_preset_order_preserved(self, separable_corpus):
        rows = ablate(separable_corpus, ABLATION_PRESETS["table1"], k=5)
        assert [row.kinds for row in rows] == list(ABLATION_PRESETS["table1"])

    def test_identical_folds_across_subsets(self, separable_corpus):
        rows = ablate(separable_corpus, [(K.TIMEZONE,), (K.LOCATION, K.TIMEZONE)], k=5)
        assert rows[0].report.fold_sizes == rows[1].report.fold_sizes

    def test_empty_subsets_rejected(self, separable_corpus):
        with pytest.raises(ValueError):
            ablate(separable_corpus, [], k=5)

    def test_row_labels(self, separable_corpus):
        rows = ablate(separable_corpus, [(K.LOCATION, K.TIMEZONE)], k=5)
        assert rows[0].label == "location+timezone"


class TestSummaries:
    def test_average(self):
        assert summary_average([1.0, 2.0, 3.0]) == 2.0

    def test_population_stddev(self):
        # divide by N, not N - 1
        assert summary_population_stddev([2.0, 4.0]) == 1.0

    def test_fraction_json(self):
        assert fraction_json(Fraction(9, 11)) == {"fraction": "9/11", "value": 9 / 11}

    def test_config_digest_stable_under_key_order(self):
        assert config_digest({"a": 1, "b": 2}) == config_digest({"b": 2, "a": 1})


class TestRegion:
    def test_collapse(self):
        labels = ["NL", "US", "GB", "BR"]
        assert collapse_region(labels, {"NL", "GB"}) == ["NL", OTHER_LABEL, "GB", OTHER_LABEL]

    def test_idempotent(self):
        once = collapse_region(["NL", "US"], {"NL"})
        assert collapse_region(once, {"NL"}) == once

    def test_empty_region_rejected(self):
        with pytest.raises(ValueError):
            collapse_region(["NL"], set())

    def test_collapse_dataset(self):
        data = LabeledDataset(
            [(TweetRecord(time_zone="a"), "NL"), (TweetRecord(time_zone="b"), "US")],
            source="s",
        )
        collapsed = collapse_dataset(data, {"NL"})
        assert collapsed.labels() == ["NL", OTHER_LABEL]
        assert collapsed.source == "s"
        assert collapsed.examples[0][0] is data.examples[0][0]

    def test_default_region(self):
        region = default_region()
        assert {"NL", "GB", "FR", "DE", "RU", "TR"} <= region
        assert "US" not in region
        assert OTHER_LABEL not in region

    def test_load_region(self, tmp_path):
        path = tmp_path / "region.txt"
        path.write_text("# two codes\nNL\nGB\n", encoding="utf-8")
        assert load_region(path) == {"NL", "GB"}

    def test_load_region_rejects_collapse_label(self, tmp_path):
        path = tmp_path / "region.txt"
        path.write_text("NL\nZZ\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_region(path)

    def test_load_region_rejects_bad_code(self, tmp_path):
        path = tmp_path / "region.txt"
        path.write_text("Netherlands\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_region(path)


def tz_record(zone: str) -> TweetRecord:
    return TweetRecord(time_zone=zone)


@pytest.fixture
def skewed_data():
    """AA always separable, BB partly confusable, CC below the count cutoff."""
    examples = (
        [(tz_record("ta"), "AA")] * 20
        + [(tz_record("tb"), "BB")] * 12
        + [(tz_record("ta"), "BB")] * 4
        + [(tz_record("tc"), "CC")] * 10
    )
    return LabeledDataset(examples, source="skewed")


class TestPerCountryReport:
    def test_same_set_rows(self, skewed_data):
        report = per_country_report(
            skewed_data,
            kind_sets=[(K.TIMEZONE,)],
            min_count=15,
            region={"AA", "BB"},
            region_name="Somewhere",
        )
        assert report.mode == "same-set"
        assert [(row.country, row.n) for row in report.rows] == [("AA", 20), ("BB", 16)]
        assert report.rows[0].accuracies == (Fraction(1),)
        assert report.rows[1].accuracies == (Fraction(3, 4),)
        assert report.omitted_countries == 1

    def test_summary_rows(self, skewed_data):
        report = per_country_report(
            skewed_data, kind_sets=[(K.TIMEZONE,)], min_count=15, region={"AA", "BB"}
        )
        assert report.average == (87.5,)
        assert report.stddev == (12.5,)

    def test_region_row_collapses_both_sides(self, skewed_data):
        report = per_country_report(
            skewed_data,
            kind_sets=[(K.TIMEZONE,)],
            min_count=15,
            region={"AA", "BB"},
            region_name="Somewhere",
        )
        assert report.region_name == "Somewhere"
        assert report.region_n == 46
        # AA and BB keep their labels, CC becomes the collapse class; the
        # four BB records with AA's timezone are still the only mistakes
        assert report.region_accuracies == (Fraction(42, 46),)

    def test_row_order_breaks_count_ties_by_code(self):
        examples = (
            [(tz_record("ta"), "AA")] * 15
            + [(tz_record("tb"), "BB")] * 15
            + [(tz_record("tc"), "CC")] * 16
        )
        data = LabeledDataset(examples)
        report = per_country_report(data, kind_sets=[(K.TIMEZONE,)], region={"AA"})
        assert [row.country for row in report.rows] == ["CC", "AA", "BB"]

    def test_min_count_boundary(self, skewed_data):
        report = per_country_report(
            skewed_data, kind_sets=[(K.TIMEZONE,)], min_count=10, region={"AA"}
        )
        assert [row.country for row in report.rows] == ["AA", "BB", "CC"]

    def test_held_out_mode(self, skewed_data):
        eval_data = LabeledDataset([(tz_record("ta"), "AA")] * 15, source="eval")
        report = per_country_report(
            skewed_data, eval_data, kind_sets=[(K.TIMEZONE,)], region={"AA"}
        )
        assert report.mode == "held-out"
        assert [(row.country, row.n) for row in report.rows] == [("AA", 15)]
        assert report.rows[0].accuracies == (Fraction(1),)
        assert report.region_n == 15

    def test_same_object_is_same_set(self, skewed_data):
        report = per_country_report(
            skewed_data, skewed_data, kind_sets=[(K.TIMEZONE,)], region={"AA"}
        )
        assert report.mode == "same-set"

    def test_two_trainings_in_both_modes(self, skewed_data, monkeypatch):
        # one for the labels, one for the region-collapsed labels
        trainings = count_trainings(monkeypatch)
        eval_data = LabeledDataset([(tz_record("ta"), "AA")] * 15, source="eval")
        for held_out in (None, eval_data):
            trainings[0] = 0
            report = per_country_report(skewed_data, held_out, region={"AA"})
            assert len(report.kind_sets) == len(REPORT_KIND_SETS)
            assert trainings == [2]

    def test_default_kind_sets(self, skewed_data):
        report = per_country_report(skewed_data, region={"AA", "BB"})
        assert report.kind_sets == REPORT_KIND_SETS
        assert len(report.rows[0].accuracies) == 3

    def test_min_count_validated(self, skewed_data):
        with pytest.raises(ValueError):
            per_country_report(skewed_data, kind_sets=[(K.TIMEZONE,)], min_count=0)


def predicted_tags(model, vector):
    """The tags classify attaches: diagnostic_tags for the model's own prediction."""
    return diagnostic_tags(model, vector, classify(model, vector))


class TestDiagnostics:
    def test_limited_information_and_big_class(self, tiny_model):
        tags = predicted_tags(tiny_model, {K.TIMEZONE: "amsterdam"})
        assert tags == {LIMITED_INFORMATION, BIG_CLASS}

    def test_oov_only(self, tiny_model):
        tags = predicted_tags(tiny_model, {K.TIMEZONE: "mars", K.LOCATION: "pluto"})
        assert tags == {OOV_ONLY}

    def test_oov_single_entry_also_limited(self, tiny_model):
        tags = predicted_tags(tiny_model, {K.TIMEZONE: "mars"})
        assert tags == {LIMITED_INFORMATION, OOV_ONLY}

    def test_big_class_alone(self):
        examples = [({K.TWEET_LANGUAGE: "en", K.UTC_OFFSET: "0"}, "US")] * 3 + [
            ({K.TWEET_LANGUAGE: "en", K.UTC_OFFSET: "0"}, "GB")
        ]
        model = train(examples)
        tags = predicted_tags(model, {K.TWEET_LANGUAGE: "en", K.UTC_OFFSET: "0"})
        assert tags == {BIG_CLASS}

    def test_limited_information_alone(self):
        examples = (
            [({K.TWEET_LANGUAGE: "xx"}, "US")] * 8
            + [({K.TWEET_LANGUAGE: "vv"}, "US")] * 2
            + [({K.TWEET_LANGUAGE: "vv"}, "GB")] * 3
        )
        model = train(examples)
        # "vv" is majority-GB, but the US prior still wins the prediction
        assert majority_class(model, K.TWEET_LANGUAGE, "vv") == "GB"
        assert classify(model, {K.TWEET_LANGUAGE: "vv"}) == "US"
        tags = predicted_tags(model, {K.TWEET_LANGUAGE: "vv"})
        assert tags == {LIMITED_INFORMATION}

    def test_empty_vector_is_limited(self, tiny_model):
        assert predicted_tags(tiny_model, {}) == {LIMITED_INFORMATION}

    def test_majority_class_tie_picks_smaller_code(self):
        examples = [
            ({K.TIMEZONE: "t"}, "BB"),
            ({K.TIMEZONE: "t"}, "AA"),
        ]
        model = train(examples)
        assert majority_class(model, K.TIMEZONE, "t") == "AA"

    def test_majority_class_unseen_value(self, tiny_model):
        assert majority_class(tiny_model, K.TIMEZONE, "mars") is None

    def test_diagnostic_tags_do_not_need_truth(self, tiny_model):
        tags = diagnostic_tags(tiny_model, {K.TIMEZONE: "amsterdam"}, "NL")
        assert BIG_CLASS in tags


class TestLabeledIO:
    def test_load_labeled_ndjson(self, tmp_path):
        path = tmp_path / "data.ndjson"
        lines = [
            json.dumps({"id": "1", "time_zone": "Amsterdam", "country": "NL"}),
            "",
            json.dumps({"id": "2", "time_zone": "London", "country": "GB"}),
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        data = load_labeled_ndjson(path)
        assert len(data) == 2
        assert data.labels() == ["NL", "GB"]
        assert data.source == str(path)

    def test_missing_label_rejected(self, tmp_path):
        path = tmp_path / "data.ndjson"
        path.write_text(json.dumps({"id": "1"}) + "\n", encoding="utf-8")
        with pytest.raises(MalformedInput) as excinfo:
            load_labeled_ndjson(path)
        assert ":1:" in str(excinfo.value)

    def test_invalid_json_line(self, tmp_path):
        path = tmp_path / "data.ndjson"
        path.write_text('{"id": "1", "country": "NL"}\n{broken\n', encoding="utf-8")
        with pytest.raises(MalformedInput) as excinfo:
            load_labeled_ndjson(path)
        assert ":2:" in str(excinfo.value)

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"lon": 10.0, "lat": 95.0, "country": "NL"}', "latitude out of range: 95.0"),
            ('{"time_zone": 7, "country": "NL"}', "field 'time_zone' must be a string"),
            ('["NL"]', "must be a JSON object"),
            ("[" * 200_000, "invalid JSON"),
        ],
        ids=["record-check", "field-type", "not-an-object", "nested-too-deep"],
    )
    def test_bad_line_names_file_and_line(self, tmp_path, line, message):
        path = tmp_path / "data.ndjson"
        path.write_text('{"id": "1", "country": "NL"}\n\n' + line + "\n", encoding="utf-8")
        with pytest.raises(MalformedInput) as excinfo:
            load_labeled_ndjson(path)
        assert str(excinfo.value).startswith(f"{path}:3: ")
        assert message in str(excinfo.value)

    def test_dataset_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            LabeledDataset([(TweetRecord(), "Netherlands")])


class TestArtifacts:
    def test_evaluation_json(self, separable_corpus, tmp_path):
        report = cross_validate(separable_corpus, k=5, kinds=(K.TIMEZONE,))
        path = tmp_path / "eval.json"
        write_evaluation_json(report, path)
        document = json.loads(path.read_text(encoding="utf-8"))
        assert document["accuracy_pooled"] == {"fraction": "1/1", "value": 1.0}
        assert document["config_sha256"] == report.config_sha256
        assert len(document["folds"]) == 5
        assert document["kinds"] == ["timezone"]

    def test_evaluation_csv(self, separable_corpus, tmp_path):
        report = cross_validate(separable_corpus, k=5, kinds=(K.TIMEZONE,))
        path = tmp_path / "eval.csv"
        write_evaluation_csv(report, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == f"# config_sha256={report.config_sha256}"
        assert lines[1] == "row,correct,total,accuracy"
        assert lines[2] == "fold_0,20,20,1.0"
        assert lines[-2] == "pooled,100,100,1.0"
        assert lines[-1] == "mean_of_folds,,,1.0"

    def test_ablation_csv(self, separable_corpus, tmp_path):
        rows = ablate(separable_corpus, [(K.TIMEZONE,), (K.LOCATION, K.TIMEZONE)], k=5)
        path = tmp_path / "ablation.csv"
        write_ablation_csv(rows, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        header = lines[1].split(",")
        assert header[:6] == [
            "location",
            "timezone",
            "tweet_language",
            "geoparsed",
            "utc_offset",
            "user_language",
        ]
        first = lines[2].split(",")
        assert first[0] == "" and first[1] == "x"
        second = lines[3].split(",")
        assert second[0] == "x" and second[1] == "x"

    def test_per_country_csv(self, skewed_data, tmp_path):
        report = per_country_report(
            skewed_data,
            kind_sets=[(K.TIMEZONE,)],
            min_count=15,
            region={"AA", "BB"},
            region_name="Somewhere",
        )
        path = tmp_path / "report.csv"
        write_per_country_csv(report, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[1] == "country,n,timezone"
        assert lines[2] == "AA,20,100.00"
        assert lines[3] == "BB,16,75.00"
        assert lines[4] == "Average,,87.50"
        assert lines[5] == "Standard deviation,,12.50"
        assert lines[6] == f"Somewhere,46,{42 / 46 * 100:.2f}"

    def test_artifacts_are_deterministic(self, separable_corpus, tmp_path):
        report = cross_validate(separable_corpus, k=5, kinds=(K.TIMEZONE,))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_evaluation_json(report, a)
        write_evaluation_json(report, b)
        assert a.read_bytes() == b.read_bytes()
