"""End-to-end CLI behavior through in-process main() calls."""

from __future__ import annotations

import argparse
import builtins
import csv
import errno
import importlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import types
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import tweetcountry
from tweetcountry import bayes, cli, evaluation
from tweetcountry.bayes import load_model, save_model
from tweetcountry.cli import (
    CONFIG_FIELDS,
    EXIT_GEOCODER,
    EXIT_INPUT,
    EXIT_MODEL,
    EXIT_OK,
    main,
    parse_config_file,
)
from tweetcountry.evaluation import config_digest, kfold_split, load_labeled_ndjson
from tweetcountry.features import FeatureKind
from tweetcountry.tweet_model import FOLD_ORIENTATIONS, parse_tweet, to_flat_dict

from conftest import make_separable_corpus
from oracle_bayes import log_of_fraction, reference_probabilities, reference_ranking
from strategies import BEYOND_FLOAT, DIGIT_LIMIT, LONG_INTEGER

needs_digit_limit = pytest.mark.skipif(
    not DIGIT_LIMIT, reason="this interpreter has no integer digit limit"
)


def write_labeled_corpus(path, order_seed=0):
    data = make_separable_corpus(order_seed=order_seed)
    with path.open("w", encoding="utf-8") as handle:
        for tweet, country in data.examples:
            obj = to_flat_dict(tweet)
            obj["country"] = country
            handle.write(json.dumps(obj, sort_keys=True) + "\n")
    return data


def write_raw_corpus(path, order_seed=0):
    data = make_separable_corpus(order_seed=order_seed)
    with path.open("w", encoding="utf-8") as handle:
        for tweet, _ in data.examples:
            handle.write(json.dumps(to_flat_dict(tweet), sort_keys=True) + "\n")
    return data


def read_summary(capsys):
    return json.loads(capsys.readouterr().out)


def _command_name(argv):
    return " ".join(argv[:2]) if argv[0] == "cache" else argv[0]


def _forbid_reading(monkeypatch):
    """Fail the test if the command builds a geocoder or loads a model: it
    must check every file it names before it reads any input."""

    def fail(*args, **kwargs):
        pytest.fail("an input was read before every output target was checked")

    monkeypatch.setattr(cli, "build_geocoder", fail)
    monkeypatch.setattr(bayes, "load_model", fail)


@pytest.fixture
def labeled_file(tmp_path):
    path = tmp_path / "labeled.ndjson"
    write_labeled_corpus(path)
    return path


@pytest.fixture
def model_file(tmp_path, labeled_file):
    path = tmp_path / "model.json"
    code = main(["train", "--input", str(labeled_file), "--model", str(path)])
    assert code == EXIT_OK
    return path


class TestLabel:
    def test_mixed_input(self, tmp_path, capsys):
        source = tmp_path / "raw.ndjson"
        lines = [
            # labeled through the explicit place code
            json.dumps({"id": "1", "place": {"country_code": "NL"}}),
            # labeled through coordinates near a bundled reference point
            json.dumps({"id": "2", "coordinates": [4.48431747, 52.1674388]}),
            # no geo information at all
            json.dumps({"id": "3", "user": {"location": "somewhere"}}),
            # coordinates in open water resolve to nothing
            json.dumps({"id": "4", "coordinates": [0.0, 0.0]}),
            # malformed: latitude out of range
            json.dumps({"id": "5", "coordinates": [0.0, 95.0]}),
        ]
        source.write_text("\n".join(lines) + "\n", encoding="utf-8")
        output = tmp_path / "labeled.ndjson"
        code = main(["label", "--input", str(source), "--output", str(output)])
        assert code == EXIT_OK
        summary = read_summary(capsys)
        assert summary["total"] == 5
        assert summary["labeled"] == 2
        assert summary["skipped"] == 2
        assert summary["malformed"] == 1
        rows = [json.loads(line) for line in output.read_text(encoding="utf-8").splitlines()]
        assert [row["id"] for row in rows] == ["1", "2"]
        assert all(row["country"] == "NL" for row in rows)
        assert all("config_sha256" in row for row in rows)

    def test_strict_malformed_is_input_error(self, tmp_path):
        source = tmp_path / "raw.ndjson"
        source.write_text(json.dumps({"coordinates": [0.0, 95.0]}) + "\n", encoding="utf-8")
        code = main(
            ["label", "--strict", "--input", str(source), "--output", str(tmp_path / "out")]
        )
        assert code == EXIT_INPUT

    def test_strict_unresolvable_is_geocoder_error(self, tmp_path, capsys):
        source = tmp_path / "raw.ndjson"
        source.write_text(json.dumps({"coordinates": [0.0, 0.0]}) + "\n", encoding="utf-8")
        code = main(
            ["label", "--strict", "--input", str(source), "--output", str(tmp_path / "out")]
        )
        assert code == EXIT_GEOCODER
        assert "geocoding error" in capsys.readouterr().err

    def test_missing_input_flag(self, tmp_path):
        assert main(["label", "--output", str(tmp_path / "out")]) == EXIT_INPUT

    def test_flat_layout_round_trips_through_labeled_file(self, tmp_path):
        # Every key of the flat layout documented in the README.
        flat = {
            "id": "7",
            "text": "hallo",
            "user_location": "Leiden",
            "time_zone": "Amsterdam",
            "utc_offset_seconds": 3600,
            "tweet_language": "nl",
            "user_language": "en",
            "lon": 4.48431747,
            "lat": 52.1674388,
            "place_country_code": "NL",
        }
        source = tmp_path / "raw.ndjson"
        source.write_text(json.dumps(flat) + "\n", encoding="utf-8")
        output = tmp_path / "labeled.ndjson"
        assert main(["label", "--input", str(source), "--output", str(output)]) == EXIT_OK
        row = json.loads(output.read_text(encoding="utf-8"))
        assert {key: row[key] for key in flat} == flat
        data = load_labeled_ndjson(output)
        assert data.examples == [(parse_tweet(json.dumps(flat)), "NL")]


class TestTrain:
    def test_summary_and_model(self, tmp_path, labeled_file, capsys):
        model_path = tmp_path / "model.json"
        code = main(["train", "--input", str(labeled_file), "--model", str(model_path)])
        assert code == EXIT_OK
        summary = read_summary(capsys)
        assert summary["classes"] == 5
        assert summary["total_examples"] == 100
        assert summary["vocabulary_sizes"]["timezone"] == 5
        document = json.loads(model_path.read_text(encoding="utf-8"))
        assert document["config"]["kinds"] == "+".join(
            ["location", "timezone", "tweet_language", "geoparsed", "utc_offset", "user_language"]
        )

    def test_retrain_is_byte_identical(self, tmp_path, labeled_file, capsys):
        model_path = tmp_path / "model.json"
        main(["train", "--input", str(labeled_file), "--model", str(model_path)])
        first = model_path.read_bytes()
        capsys.readouterr()
        main(["train", "--input", str(labeled_file), "--model", str(model_path)])
        assert model_path.read_bytes() == first

    def test_kinds_flag_restricts_model(self, tmp_path, labeled_file, capsys):
        model_path = tmp_path / "model.json"
        code = main(
            [
                "train",
                "--input",
                str(labeled_file),
                "--model",
                str(model_path),
                "--kinds",
                "timezone",
            ]
        )
        assert code == EXIT_OK
        document = json.loads(model_path.read_text(encoding="utf-8"))
        assert document["enabled_kinds"] == ["timezone"]

    def test_missing_input_file(self, tmp_path):
        code = main(
            ["train", "--input", str(tmp_path / "absent"), "--model", str(tmp_path / "m")]
        )
        assert code == EXIT_INPUT

    def test_abbreviated_flag_is_rejected(self, tmp_path, labeled_file, capsys):
        # train has no --k; as an abbreviation it would select --kinds.
        model_path = tmp_path / "model.json"
        with pytest.raises(SystemExit) as excinfo:
            main(["train", "--input", str(labeled_file), "--model", str(model_path), "--k", "location"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --k location" in capsys.readouterr().err
        assert not model_path.exists()


class TestClassify:
    def test_predictions_follow_timezone(self, tmp_path, model_file, capsys):
        raw = tmp_path / "raw.ndjson"
        data = write_raw_corpus(raw)
        output = tmp_path / "predictions.ndjson"
        code = main(
            ["classify", "--input", str(raw), "--model", str(model_file), "--output", str(output)]
        )
        assert code == EXIT_OK
        summary = read_summary(capsys)
        assert summary["classified"] == 100
        rows = [json.loads(line) for line in output.read_text(encoding="utf-8").splitlines()]
        assert len(rows) == 100
        by_id = {tweet.id: country for tweet, country in data.examples}
        for row in rows:
            assert row["predicted"] == by_id[row["id"]]
            assert len(row["top"]) == 3
            assert row["top"][0]["country"] == row["predicted"]
            assert isinstance(row["top"][0]["log_score"], float)
            # constant fields count equally for every class, so their
            # majority ties and resolves to AA; AA predictions then
            # carry BIG_CLASS
            if row["predicted"] == "AA":
                assert row["diagnostics"] == ["BIG_CLASS"]
            else:
                assert row["diagnostics"] == []

    def test_top_flag(self, tmp_path, model_file):
        raw = tmp_path / "raw.ndjson"
        write_raw_corpus(raw)
        output = tmp_path / "predictions.ndjson"
        main(
            [
                "classify",
                "--input",
                str(raw),
                "--model",
                str(model_file),
                "--output",
                str(output),
                "--top",
                "5",
            ]
        )
        first = json.loads(output.read_text(encoding="utf-8").splitlines()[0])
        assert len(first["top"]) == 5

    def test_reads_the_model_file_once(self, tmp_path, model_file, monkeypatch, capsys):
        # The config echo comes from load_model's own parse of the file.
        save_model(load_model(model_file), model_file, config={"case_fold": False})
        raw = tmp_path / "raw.ndjson"
        raw.write_text(json.dumps({"id": "1", "time_zone": "ZONE AA"}) + "\n", encoding="utf-8")
        opened = []
        real_open = io.open

        def counting_open(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and os.path.exists(file):
                opened.append(os.path.realpath(file))
            return real_open(file, *args, **kwargs)

        def no_second_read(path):
            raise AssertionError("classify read the model's config a second time")

        monkeypatch.setattr(io, "open", counting_open)
        monkeypatch.setattr(builtins, "open", counting_open)
        monkeypatch.setattr(bayes, "load_model_config", no_second_read)
        monkeypatch.setattr(cli, "load_model_config", no_second_read, raising=False)
        output = tmp_path / "predictions.ndjson"
        code = main(["classify", "--input", str(raw), "--model", str(model_file), "--output", str(output)])
        assert code == EXIT_OK
        assert opened.count(os.path.realpath(model_file)) == 1
        # case_fold off, as the model records: "ZONE AA" is not the trained "zone aa".
        row = json.loads(output.read_text(encoding="utf-8").splitlines()[0])
        assert row["diagnostics"] == ["LIMITED_INFORMATION", "OOV_ONLY"]

    def test_oov_tweet_gets_diagnostics(self, tmp_path, model_file):
        raw = tmp_path / "raw.ndjson"
        raw.write_text(
            json.dumps({"id": "x", "time_zone": "zone unknown to the model"}) + "\n",
            encoding="utf-8",
        )
        output = tmp_path / "predictions.ndjson"
        main(
            ["classify", "--input", str(raw), "--model", str(model_file), "--output", str(output)]
        )
        row = json.loads(output.read_text(encoding="utf-8").splitlines()[0])
        assert "OOV_ONLY" in row["diagnostics"]
        assert "LIMITED_INFORMATION" in row["diagnostics"]

    def test_corrupt_model_exit_code(self, tmp_path):
        bad = tmp_path / "model.json"
        bad.write_text('{"schema_version": 99}', encoding="utf-8")
        raw = tmp_path / "raw.ndjson"
        raw.write_text(json.dumps({"id": "1"}) + "\n", encoding="utf-8")
        code = main(
            ["classify", "--input", str(raw), "--model", str(bad), "--output", str(tmp_path / "o")]
        )
        assert code == EXIT_MODEL

    @pytest.mark.parametrize("flag", [["--kinds", "location"], ["--alpha", "0.5"]])
    def test_model_settings_flags_rejected(self, tmp_path, model_file, capsys, flag):
        # kinds and alpha come from the model; classify has no flag for either
        raw = tmp_path / "raw.ndjson"
        write_raw_corpus(raw)
        argv = ["classify", "--input", str(raw), "--model", str(model_file)]
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--output", str(tmp_path / "o")] + flag)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_echo_records_the_case_fold_applied(self, tmp_path, labeled_file, capsys):
        # The model records case_fold off; without the flag classify applies
        # that, and its echo and digest say so.
        model = tmp_path / "model.json"
        assert main(["train", "--input", str(labeled_file), "--model", str(model), "--no-case-fold"]) == EXIT_OK
        raw = tmp_path / "raw.ndjson"
        # In vocabulary only as given: case folding makes it "zone aa".
        raw.write_text(json.dumps({"id": "1", "time_zone": "zone AA"}) + "\n", encoding="utf-8")
        output = tmp_path / "out.ndjson"
        runs = {}
        for flag in ("", "--no-case-fold", "--case-fold"):
            capsys.readouterr()
            argv = ["classify", "--input", str(raw), "--model", str(model), "--output", str(output)]
            assert main(argv + ([flag] if flag else [])) == EXIT_OK
            summary = read_summary(capsys)
            row = json.loads(output.read_text(encoding="utf-8"))
            assert row["config_sha256"] == summary["config_sha256"] == config_digest(summary["config"])
            runs[flag] = (summary["config"]["case_fold"], summary["config_sha256"], row["top"])
        assert runs[""] == runs["--no-case-fold"]
        assert runs[""][0] is False
        assert runs["--case-fold"][0] is True
        assert runs["--case-fold"][1] != runs[""][1]
        assert runs["--case-fold"][2] != runs[""][2]

    def test_case_fold_help_names_the_model_default(self, capsys):
        # classify mirrors the model's recorded case_fold unless the flag is given
        with pytest.raises(SystemExit) as excinfo:
            main(["classify", "--help"])
        assert excinfo.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "case-fold location and timezone values (default: the setting recorded in the model;" in text
        assert "(default: on)" not in text


# Flat record fields and the kinds they feed, each with a few values: case
# folding merges the first two locations and time zones, and a value may be
# missing from the training lines, so a query meets it out of vocabulary.
_ORACLE_FIELDS = {
    "user_location": (FeatureKind.LOCATION, ["Alpha", "alpha", "Beta"]),
    "time_zone": (FeatureKind.TIMEZONE, ["Zone/A", "zone/a", "Zone/B"]),
    "tweet_language": (FeatureKind.TWEET_LANGUAGE, ["en", "nl"]),
    "utc_offset_seconds": (FeatureKind.UTC_OFFSET, [0, 3600]),
    "user_language": (FeatureKind.USER_LANGUAGE, ["en", "fr"]),
}
_oracle_tweets = st.fixed_dictionaries(
    {}, optional={name: st.sampled_from(values) for name, (_, values) in _ORACLE_FIELDS.items()}
)


def _oracle_vector(fields, kinds, case_fold):
    """The feature vector of a record's fields, derived without the package."""
    vector = {}
    for name, value in fields.items():
        kind = _ORACLE_FIELDS[name][0]
        if kind in kinds:
            text = str(value)
            folds = case_fold and kind in (FeatureKind.LOCATION, FeatureKind.TIMEZONE)
            vector[kind] = text.casefold() if folds else text
    return vector


def _oracle_tags(examples, vector, predicted):
    """classify's diagnostics, recounted from the training vectors."""
    counts = {}
    for trained, label in examples:
        for kind, value in trained.items():
            per_class = counts.setdefault((kind, value), {})
            per_class[label] = per_class.get(label, 0) + 1
    known = [counts[item] for item in vector.items() if item in counts]
    tags = []
    # The majority class of a value: the highest count, ties to the smaller code.
    if known and all(min(c, key=lambda label: (-c[label], label)) == predicted for c in known):
        tags.append("BIG_CLASS")
    if len(vector) <= 1:
        tags.append("LIMITED_INFORMATION")
    if vector and not known:
        tags.append("OOV_ONLY")
    return tags


@settings(max_examples=60, deadline=None)
@given(
    training=st.lists(st.tuples(_oracle_tweets, st.sampled_from(["AA", "BB", "CC", "DD"])), min_size=1, max_size=10),
    queries=st.lists(_oracle_tweets, min_size=1, max_size=4),
    kinds=st.lists(st.sampled_from([kind for kind, _ in _ORACLE_FIELDS.values()]), min_size=1, unique=True),
    alpha=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    case_fold=st.booleans(),
    uniform=st.booleans(),
    top=st.integers(1, 6),
)
# Equal classes that no query value touches tie exactly; ties rank by code.
@example(
    training=[({"time_zone": "Zone/A"}, "BB"), ({"time_zone": "Zone/B"}, "AA")],
    queries=[{"time_zone": "Zone/C"}, {}],
    kinds=[FeatureKind.TIMEZONE], alpha=1.0, case_fold=True, uniform=False, top=2,
)
# alpha 0 rules every class out for the first query, so the ranking falls back
# to the priors. The second is in vocabulary only if case-folded, which the
# model was not.
@example(
    training=[({"time_zone": "Zone/A"}, "BB"), ({"user_language": "en"}, "AA"),
              ({"time_zone": "zone/a", "user_language": "en"}, "AA"), ({"time_zone": "Zone/B"}, "AA")],
    queries=[{"time_zone": "Zone/A", "user_language": "en"}, {"time_zone": "ZONE/A"}],
    kinds=[FeatureKind.TIMEZONE, FeatureKind.USER_LANGUAGE], alpha=0.0, case_fold=False,
    uniform=False, top=5,
)
def test_train_then_classify_matches_the_exact_oracle(training, queries, kinds, alpha, case_fold, uniform, top):
    """train then classify --top N through main: every line against exact
    fractions. classify is given no case-fold flag, so it applies the
    model's."""
    kinds = tuple(kind for kind in FeatureKind if kind in kinds)
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()):
        paths = {name: os.path.join(tmp, name) for name in ("labeled", "raw", "model", "out")}
        with open(paths["labeled"], "w", encoding="utf-8") as handle:
            for index, (fields, country) in enumerate(training):
                handle.write(json.dumps({"id": str(index), "text": "", **fields, "country": country}) + "\n")
        with open(paths["raw"], "w", encoding="utf-8") as handle:
            for index, fields in enumerate(queries):
                handle.write(json.dumps({"id": f"q{index}", "text": "", **fields}) + "\n")
        assert main([
            "train", "--input", paths["labeled"], "--model", paths["model"], "--alpha", repr(alpha),
            "--kinds", "+".join(kind.value for kind in kinds), "--case-fold" if case_fold else "--no-case-fold",
        ]) == EXIT_OK
        assert main(
            ["classify", "--input", paths["raw"], "--model", paths["model"], "--output", paths["out"],
             "--top", str(top)] + (["--uniform-priors"] if uniform else [])
        ) == EXIT_OK
        with open(paths["out"], encoding="utf-8") as handle:
            lines = [json.loads(line) for line in handle]
    examples = [(_oracle_vector(fields, kinds, case_fold), country) for fields, country in training]
    assert [line["id"] for line in lines] == [f"q{index}" for index in range(len(queries))]
    for line, fields in zip(lines, queries):
        vector = _oracle_vector(fields, kinds, case_fold)
        masses = reference_probabilities(examples, alpha, kinds, vector, uniform)
        ranked = [(entry["country"], entry["log_score"]) for entry in line["top"]]
        countries = [country for country, _ in ranked]
        assert len(ranked) == min(top, len(masses))
        assert line["predicted"] == countries[0]
        for country, score in ranked:
            expected = log_of_fraction(masses[country])
            if expected == -math.inf:
                assert score is None
            else:
                assert abs(score - expected) <= 1e-9
        if all(mass is None for mass in masses.values()):
            assert countries == reference_ranking(examples, alpha, kinds, vector, uniform)[:top]
        else:
            # No class outside the list or after a class in it has more exact mass,
            # and the list is ordered by (-score, country).
            exact = {country: -1 if mass is None else mass for country, mass in masses.items()}
            assert exact[countries[0]] == max(exact.values())
            for position, country in enumerate(countries):
                later = countries[position + 1:] + [c for c in masses if c not in countries]
                assert all(exact[country] >= exact[other] for other in later)
            keys = [(math.inf if score is None else -score, country) for country, score in ranked]
            assert keys == sorted(keys)
        assert line["diagnostics"] == _oracle_tags(examples, vector, line["predicted"])


def _oracle_correct(examples, vector, truth, alpha, kinds, uniform):
    """The least and the most held-out hits (0 or 1) the exact oracle allows
    for one vector. The prediction is the exact arg-max, ties to the smaller
    code, as the package breaks ties between equal float scores. Tied classes
    with the same prior and the same counts for the vector's values score
    bitwise alike; classes whose exact masses tie only by coincidence may
    round apart, so then any of them may be predicted."""
    masses = reference_probabilities(examples, alpha, kinds, vector, uniform)
    best = reference_ranking(examples, alpha, kinds, vector, uniform)[0]
    tied = {country for country, mass in masses.items() if mass is not None and mass == masses[best]}
    known = [kind for kind in kinds if kind in vector and any(row.get(kind) == vector[kind] for row, _ in examples)]

    def terms(country):
        rows = [trained for trained, label in examples if label == country]
        value_counts = tuple(sum(row.get(kind) == vector[kind] for row in rows) for kind in known)
        kind_totals = tuple(sum(kind in row for row in rows) for kind in known)
        return None if uniform else len(rows), value_counts, kind_totals

    if len({terms(country) for country in tied}) > 1:
        return 0, int(truth in tied)
    return (int(best == truth),) * 2


@settings(max_examples=100, deadline=None)
@given(
    corpus=st.lists(st.tuples(_oracle_tweets, st.sampled_from(["AA", "BB", "CC"])), min_size=3, max_size=9),
    kinds=st.lists(st.sampled_from([kind for kind, _ in _ORACLE_FIELDS.values()]), min_size=1, unique=True),
    alpha=st.sampled_from([0.0, 0.5, 1.0]),
    case_fold=st.booleans(),
    uniform=st.booleans(),
    orientation=st.sampled_from(FOLD_ORIENTATIONS),
    k=st.integers(2, 4),
    seed=st.integers(0, 3),
)
# Two classes alike in every count tie exactly; the smaller code wins.
@example(
    corpus=[({"time_zone": "Zone/A"}, "BB"), ({"time_zone": "Zone/A"}, "AA"), ({"time_zone": "Zone/B"}, "CC"),
            ({"time_zone": "Zone/B"}, "BB"), ({"time_zone": "Zone/B"}, "AA")],
    kinds=[FeatureKind.TIMEZONE], alpha=1.0, case_fold=True, uniform=False, orientation="standard", k=5, seed=0,
)
# Only the priors set the class apart when every held-out value is out of vocabulary.
@example(
    corpus=[({"user_language": "en"}, "BB"), ({"user_language": "en"}, "BB"), ({"user_language": "fr"}, "AA"),
            ({"user_language": "nl"}, "BB")],
    kinds=[FeatureKind.USER_LANGUAGE], alpha=1.0, case_fold=True, uniform=False, orientation="inverted", k=3, seed=1,
)
def test_evaluate_matches_the_exact_oracle(corpus, kinds, alpha, case_fold, uniform, orientation, k, seed):
    """evaluate through main: its pooled accuracy against the exact oracle's
    predictions on the same kfold_split folds."""
    assume(k <= len(corpus) and len({country for _, country in corpus}) >= 2)
    kinds = tuple(kind for kind in FeatureKind if kind in kinds)
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()) as out:
        labeled = os.path.join(tmp, "labeled.ndjson")
        with open(labeled, "w", encoding="utf-8") as handle:
            for index, (fields, country) in enumerate(corpus):
                handle.write(json.dumps({"id": str(index), "text": "", **fields, "country": country}) + "\n")
        assert main([
            "evaluate", "--input", labeled, "--k", str(k), "--seed", str(seed), "--fold-orientation", orientation,
            "--alpha", repr(alpha), "--kinds", "+".join(kind.value for kind in kinds),
            "--case-fold" if case_fold else "--no-case-fold",
        ] + (["--uniform-priors"] if uniform else [])) == EXIT_OK
    summary = json.loads(out.getvalue())
    examples = [(_oracle_vector(fields, kinds, case_fold), country) for fields, country in corpus]
    folds = kfold_split(len(examples), k, seed).folds
    least = most = evaluated = 0
    for fold in range(k):
        held_out = [(fold_of == fold) == (orientation == "standard") for fold_of in folds]
        trained = [pair for pair, held in zip(examples, held_out) if not held]
        for vector, truth in (pair for pair, held in zip(examples, held_out) if held):
            low, high = _oracle_correct(trained, vector, truth, alpha, kinds, uniform)
            least, most, evaluated = least + low, most + high, evaluated + 1
    assert summary["n_evaluated"] == evaluated
    # Exact equality wherever no coincidental tie leaves the prediction open.
    assert least <= Fraction(summary["accuracy_pooled_fraction"]) * evaluated <= most


class TestEvaluate:
    def test_perfect_separable_run(self, tmp_path, labeled_file, capsys):
        report_json = tmp_path / "eval.json"
        report_csv = tmp_path / "eval.csv"
        code = main(
            [
                "evaluate",
                "--input",
                str(labeled_file),
                "--kinds",
                "timezone",
                "--report-json",
                str(report_json),
                "--report-csv",
                str(report_csv),
            ]
        )
        assert code == EXIT_OK
        summary = read_summary(capsys)
        assert summary["accuracy_pooled"] == 1.0
        assert summary["accuracy_pooled_fraction"] == "1/1"
        assert summary["n_evaluated"] == 100
        document = json.loads(report_json.read_text(encoding="utf-8"))
        assert document["accuracy_pooled"]["fraction"] == "1/1"
        assert document["config"]["cli"]["kinds"] == "timezone"
        lines = report_csv.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("# config_sha256=")

    def test_rerun_reports_byte_identical(self, tmp_path, labeled_file, capsys):
        report_json = tmp_path / "eval.json"
        argv = [
            "evaluate",
            "--input",
            str(labeled_file),
            "--kinds",
            "timezone",
            "--report-json",
            str(report_json),
        ]
        main(argv)
        first = report_json.read_bytes()
        capsys.readouterr()
        main(argv)
        assert report_json.read_bytes() == first

    def test_seed_changes_folds_not_result_shape(self, tmp_path, labeled_file, capsys):
        code = main(
            ["evaluate", "--input", str(labeled_file), "--kinds", "timezone", "--seed", "7"]
        )
        assert code == EXIT_OK
        summary = read_summary(capsys)
        assert summary["config"]["seed"] == 7

    def test_invalid_fold_count(self, tmp_path, labeled_file):
        code = main(["evaluate", "--input", str(labeled_file), "--k", "1"])
        assert code == EXIT_INPUT

    def test_inverted_orientation_runs(self, tmp_path, labeled_file, capsys):
        code = main(
            [
                "evaluate",
                "--input",
                str(labeled_file),
                "--kinds",
                "timezone",
                "--fold-orientation",
                "inverted",
            ]
        )
        assert code == EXIT_OK
        summary = read_summary(capsys)
        assert summary["n_evaluated"] == 900


class TestAblate:
    def test_explicit_subsets(self, tmp_path, labeled_file, capsys):
        code = main(
            [
                "ablate",
                "--input",
                str(labeled_file),
                "--subsets",
                "timezone;utc_offset;timezone+user_language",
                "--k",
                "5",
            ]
        )
        assert code == EXIT_OK
        summary = read_summary(capsys)
        assert summary["subsets"]["timezone"] == 1.0
        assert summary["subsets"]["timezone+user_language"] == 1.0
        assert summary["subsets"]["utc_offset"] < 0.6
        assert summary["best_subset"] in ("timezone", "timezone+user_language")

    def test_preset_grid(self, tmp_path, labeled_file, capsys):
        report_csv = tmp_path / "ablation.csv"
        code = main(
            [
                "ablate",
                "--input",
                str(labeled_file),
                "--preset",
                "table1",
                "--k",
                "5",
                "--report-csv",
                str(report_csv),
            ]
        )
        assert code == EXIT_OK
        summary = read_summary(capsys)
        assert len(summary["subsets"]) == 14
        lines = report_csv.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 16  # hash comment + header + 14 rows

    def test_preset_and_subsets_conflict(self, labeled_file):
        code = main(
            [
                "ablate",
                "--input",
                str(labeled_file),
                "--preset",
                "table1",
                "--subsets",
                "timezone",
            ]
        )
        assert code == EXIT_INPUT

    def test_unknown_preset(self, labeled_file):
        code = main(["ablate", "--input", str(labeled_file), "--preset", "bogus"])
        assert code == EXIT_INPUT


    def test_missing_report_directory_is_named_as_given(self, tmp_path, labeled_file, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["ablate", "--input", str(labeled_file), "--k", "2", "--report-csv", "missing_dir/a.csv"])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert "missing_dir/a.csv" in err
        assert ".tmp" not in err


class TestReport:
    def test_same_set_report(self, tmp_path, labeled_file, capsys):
        report_csv = tmp_path / "report.csv"
        region_file = tmp_path / "region.txt"
        region_file.write_text("AA\nBB\n", encoding="utf-8")
        code = main(
            [
                "report",
                "--input",
                str(labeled_file),
                "--kind-sets",
                "timezone",
                "--region-file",
                str(region_file),
                "--region-name",
                "Synthetica",
                "--report-csv",
                str(report_csv),
            ]
        )
        assert code == EXIT_OK
        summary = read_summary(capsys)
        assert summary["mode"] == "same-set"
        assert summary["countries"] == 5
        assert summary["average_percent"] == [100.0]
        lines = report_csv.read_text(encoding="utf-8").splitlines()
        assert lines[1] == "country,n,timezone"
        assert lines[2] == "AA,20,100.00"
        assert lines[-1].startswith("Synthetica,100,")

    def test_held_out_report(self, tmp_path, labeled_file, capsys):
        eval_file = tmp_path / "eval.ndjson"
        write_labeled_corpus(eval_file, order_seed=5)
        region_file = tmp_path / "region.txt"
        region_file.write_text("AA\n", encoding="utf-8")
        code = main(
            [
                "report",
                "--input",
                str(labeled_file),
                "--eval-input",
                str(eval_file),
                "--kind-sets",
                "timezone",
                "--region-file",
                str(region_file),
            ]
        )
        assert code == EXIT_OK
        assert read_summary(capsys)["mode"] == "held-out"

    def test_min_count_flag(self, tmp_path, labeled_file, capsys):
        region_file = tmp_path / "region.txt"
        region_file.write_text("AA\n", encoding="utf-8")
        code = main(
            [
                "report",
                "--input",
                str(labeled_file),
                "--kind-sets",
                "timezone",
                "--min-count",
                "21",
                "--region-file",
                str(region_file),
            ]
        )
        assert code == EXIT_OK
        summary = read_summary(capsys)
        assert summary["countries"] == 0
        assert summary["omitted_countries"] == 5

    @pytest.mark.parametrize("name", ['West, "EU"', "two\nlines", "cr\rhere", "Europe"])
    def test_region_name_is_one_csv_cell(self, tmp_path, labeled_file, capsys, name):
        report_csv = tmp_path / "report.csv"
        region_file = tmp_path / "region.txt"
        region_file.write_text("AA\nBB\n", encoding="utf-8")
        code = main(
            ["report", "--input", str(labeled_file), "--kind-sets", "timezone"]
            + ["--region-file", str(region_file), "--region-name", name, "--report-csv", str(report_csv)]
        )
        assert code == EXIT_OK
        with report_csv.open(encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[-1] == [name, "100", "100.00"]
        assert all(len(row) == 3 for row in rows[1:])


@pytest.mark.parametrize("old_json", [False, True])
@pytest.mark.parametrize("bad_csv", ["missing_dir/a.csv", "a_directory"])
@pytest.mark.parametrize(
    "command",
    [["evaluate", "--k", "2"], ["ablate", "--k", "2", "--subsets", "timezone"], ["report"]],
    ids=lambda argv: argv[0],
)
def test_report_targets_are_checked_before_the_first_write(
    tmp_path, labeled_file, capsys, monkeypatch, command, bad_csv, old_json
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a_directory").mkdir()
    if old_json:
        (tmp_path / "ok.json").write_bytes(b"old bytes\n")
    argv = command[:1] + ["--input", str(labeled_file)] + command[1:]
    _forbid_reading(monkeypatch)
    code = main(argv + ["--report-json", "ok.json", "--report-csv", bad_csv])
    assert code == EXIT_INPUT
    assert bad_csv in capsys.readouterr().err
    if old_json:
        assert (tmp_path / "ok.json").read_bytes() == b"old bytes\n"
    else:
        assert not (tmp_path / "ok.json").exists()
    assert list(tmp_path.rglob(".*.tmp")) == []


@pytest.mark.parametrize(
    "argv, missing",
    [
        (["label", "--output", "out.ndjson"], "input"),
        (["label", "--input", "raw.ndjson"], "output"),
        (["train", "--model", "model.json"], "input"),
        (["train", "--input", "labeled.ndjson"], "model"),
        (["classify", "--output", "out.ndjson", "--model", "model.json"], "input"),
        (["classify", "--input", "raw.ndjson", "--model", "model.json"], "output"),
        (["classify", "--input", "raw.ndjson", "--output", "out.ndjson"], "model"),
        (["evaluate"], "input"),
        (["ablate"], "input"),
        (["report"], "input"),
        (["cache", "stats"], "cache"),
        (["cache", "compact"], "cache"),
    ],
    ids=lambda value: value if isinstance(value, str) else _command_name(value),
)
def test_missing_required_option_is_named(tmp_path, capsys, monkeypatch, argv, missing):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: missing required option --{missing}\n"
    assert list(tmp_path.iterdir()) == []


def test_classify_top_below_one_writes_nothing(tmp_path, model_file, capsys):
    raw = tmp_path / "raw.ndjson"
    write_raw_corpus(raw)
    output = tmp_path / "out.ndjson"
    argv = ["classify", "--input", str(raw), "--model", str(model_file), "--output", str(output), "--top", "0"]
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err == "error: top must be at least 1\n"
    assert not output.exists()


def test_ablate_subsets_without_a_kind_set(tmp_path, labeled_file, capsys):
    report = tmp_path / "ablation.json"
    argv = ["ablate", "--input", str(labeled_file), "--subsets", ";", "--report-json", str(report)]
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err == "error: no feature kind sets given\n"
    assert not report.exists()


@pytest.mark.parametrize(
    "targets, bad",
    [(["a_file/report.json", "ok.csv"], "a_file/report.json"), (["ok.json", "a_file/report.csv"], "a_file/report.csv")],
    ids=["json", "csv"],
)
@pytest.mark.parametrize(
    "command",
    [["evaluate", "--k", "2"], ["ablate", "--k", "2", "--subsets", "timezone"], ["report"]],
    ids=lambda argv: argv[0],
)
def test_report_under_a_file_is_not_a_directory(tmp_path, labeled_file, capsys, monkeypatch, command, targets, bad):
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    (work / "a_file").write_bytes(b"old bytes\n")
    argv = command[:1] + ["--input", str(labeled_file)] + command[1:]
    assert main(argv + ["--report-json", targets[0], "--report-csv", targets[1]]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err == f"error: [Errno {errno.ENOTDIR}] {os.strerror(errno.ENOTDIR)}: {bad!r}\n"
    assert [path.name for path in work.iterdir()] == ["a_file"]
    assert (work / "a_file").read_bytes() == b"old bytes\n"


@pytest.mark.parametrize(
    "alias, existing",
    [("out.txt", False), ("./out.txt", False), ("link.txt", False),
     ("out.txt", True), ("./out.txt", True), ("link.txt", True), ("hard.txt", True)],
)
@pytest.mark.parametrize(
    "command, first, second",
    [
        pytest.param(["evaluate", "--k", "2"], "--report-json", "--report-csv", id="evaluate"),
        pytest.param(["ablate", "--k", "2", "--subsets", "timezone"], "--report-json", "--report-csv", id="ablate"),
        pytest.param(["report"], "--report-json", "--report-csv", id="report"),
        pytest.param(["label"], "--output", "--cache", id="label-cache"),
        pytest.param(["train"], "--model", "--cache", id="train-cache"),
        pytest.param(["classify"], "--output", "--cache", id="classify-cache"),
        pytest.param(["report"], "--report-json", "--cache", id="report-cache"),
        pytest.param(["classify"], "--output", "--model", id="classify-model"),
        pytest.param(["evaluate", "--k", "2"], "--report-json", "--input", id="evaluate-input"),
        pytest.param(["train"], "--model", "--input", id="train-input"),
        pytest.param(["report"], "--report-csv", "--eval-input", id="report-eval-input"),
        pytest.param(["label"], "--output", "--gazetteer", id="label-gazetteer"),
        pytest.param(["label", "--output", "o.ndjson"], "--cache", "--input", id="label-cache-input"),
    ],
)
def test_report_json_and_csv_naming_one_file_is_an_input_error(
    tmp_path, labeled_file, model_file, capsys, monkeypatch, command, first, second, alias, existing
):
    # A file written (a report, an output or the cache) would replace another
    # file the run names, one it writes or reads: refused before any input is
    # read or anything written. A flag given twice takes its last value.
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    (work / "link.txt").symlink_to("out.txt")
    old = b"paris\tFR\tgazetteer\t2024-01-01\n"
    if existing:
        (work / "out.txt").write_bytes(old)
        os.link(work / "out.txt", work / "hard.txt")
    before = sorted(os.listdir(work))
    _forbid_reading(monkeypatch)
    argv = command[:1] + ["--input", str(labeled_file)] + command[1:]
    if command[0] == "classify":
        argv += ["--model", str(model_file)]
    assert main(argv + [first, "out.txt", second, alias]) == EXIT_INPUT
    assert capsys.readouterr() == ("", f"error: {first} and {second} name the same file: {alias!r}\n")
    assert sorted(os.listdir(work)) == before
    if existing:
        assert (work / "out.txt").read_bytes() == old


@pytest.mark.parametrize(
    "command",
    [["evaluate", "--k", "2"], ["ablate", "--k", "2", "--subsets", "timezone"], ["report"]],
    ids=lambda argv: argv[0],
)
def test_report_json_and_csv_may_share_a_target_written_in_place(tmp_path, labeled_file, capsys, command):
    # /dev/null is not a regular file, so open_atomic writes it in place; the
    # cache may name it too.
    argv = command[:1] + ["--input", str(labeled_file)] + command[1:]
    assert main(argv + ["--report-json", os.devnull, "--report-csv", os.devnull, "--cache", os.devnull]) == EXIT_OK
    summary = read_summary(capsys)
    assert summary["report_csv"] == summary["config"]["cache"] == os.devnull


@pytest.mark.parametrize(
    "argv, config",
    [
        (["report", "--input", "labeled.ndjson", "--eval-input", "labeled.ndjson"], ""),
        # eval_input is report's key: label neither reads nor writes it.
        (["label", "--input", "raw.ndjson", "--output", "out.ndjson"], "eval_input = out.ndjson\n"),
    ],
    ids=["report", "label"],
)
def test_options_a_command_only_reads_may_name_one_file(tmp_path, labeled_file, capsys, monkeypatch, argv, config):
    monkeypatch.chdir(tmp_path)
    write_raw_corpus(tmp_path / "raw.ndjson")
    (tmp_path / "shared.conf").write_text(config, encoding="utf-8")
    assert main(argv + ["--config", "shared.conf"]) == EXIT_OK
    assert read_summary(capsys)["command"] == argv[0]


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_reports_to_redirected_dev_stdout_keep_both_and_the_summary(tmp_path, labeled_file):
    package_root = str(Path(tweetcountry.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    captured = tmp_path / "captured.txt"
    with captured.open("wb") as stdout:
        result = subprocess.run(
            [sys.executable, "-m", "tweetcountry", "evaluate", "--input", str(labeled_file), "--k", "2",
             "--report-json", "/dev/stdout", "--report-csv", str(captured)],
            stdout=stdout,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    assert result.returncode == 0, result.stderr
    text = captured.read_text(encoding="utf-8")
    report_end = text.index("}\n# config_sha256=") + 2
    assert json.loads(text[:report_end])["accuracy_pooled"]["fraction"] == "1/1"
    summary_start = text.index("\n{\n") + 1
    assert text[report_end:summary_start].startswith("# config_sha256=")
    assert json.loads(text[summary_start:])["report_csv"] == str(captured)


class TestCache:
    def test_stats_and_compact(self, tmp_path, capsys):
        cache_path = tmp_path / "cache.tsv"
        source = tmp_path / "raw.ndjson"
        source.write_text(
            json.dumps({"id": "1", "coordinates": [4.48431747, 52.1674388]}) + "\n",
            encoding="utf-8",
        )
        main(
            [
                "label",
                "--input",
                str(source),
                "--output",
                str(tmp_path / "out"),
                "--cache",
                str(cache_path),
            ]
        )
        capsys.readouterr()
        code = main(["cache", "stats", "--cache", str(cache_path)])
        assert code == EXIT_OK
        stats = read_summary(capsys)
        assert stats["entries"] == 1
        assert stats["positives"] == 1
        code = main(["cache", "compact", "--cache", str(cache_path)])
        assert code == EXIT_OK
        assert read_summary(capsys)["entries"] == 1

    def test_undecodable_cache_line_is_skipped(self, tmp_path, capsys):
        cache_path = tmp_path / "cache.tsv"
        cache_path.write_bytes(
            b"amsterdam\tNL\tgazetteer\t2024-01-01\n"
            b"\xffoops\tDE\tgazetteer\t2024-01-01\n"
        )
        source = tmp_path / "raw.ndjson"
        source.write_text(
            json.dumps({"id": "1", "coordinates": [4.48431747, 52.1674388]}) + "\n",
            encoding="utf-8",
        )
        args = ["--input", str(source), "--output", str(tmp_path / "out"), "--cache", str(cache_path)]
        assert main(["label", *args]) == EXIT_OK
        assert read_summary(capsys)["labeled"] == 1
        assert main(["cache", "stats", "--cache", str(cache_path)]) == EXIT_OK
        assert read_summary(capsys)["entries"] == 2

    def test_cache_requires_path(self):
        assert main(["cache", "stats"]) == EXIT_INPUT

    @pytest.mark.parametrize("action", ["stats", "compact"])
    def test_cache_action_on_a_missing_file_is_an_input_error(self, tmp_path, capsys, monkeypatch, action):
        # Neither reports an empty cache nor creates one for a mistyped name.
        monkeypatch.chdir(tmp_path)
        assert main(["cache", action, "--cache", "typo.tsv"]) == EXIT_INPUT
        assert capsys.readouterr() == ("", f"error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: 'typo.tsv'\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["label", "train", "classify", "evaluate", "ablate", "report"])
    def test_a_cache_that_is_a_symlink_loop_is_an_input_error(
        self, tmp_path, labeled_file, model_file, capsys, monkeypatch, command
    ):
        # Not an empty cache that the first put, if any, finds bad: refused before --input is read.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "loop.tsv").symlink_to("loop.tsv")
        flags = {
            "label": ["--input", "raw.ndjson", "--output", "out.ndjson"],
            "train": ["--input", "labeled.ndjson", "--model", "m.json"],
            "classify": ["--input", "raw.ndjson", "--model", "model.json", "--output", "out.ndjson"],
        }
        before = sorted(os.listdir(tmp_path))

        def fail(*args, **kwargs):
            pytest.fail("--input was read before the cache was loaded")

        monkeypatch.setattr(cli, "read_ndjson", fail)
        monkeypatch.setattr(evaluation, "load_labeled_ndjson", fail)
        argv = [command, *flags.get(command, ["--input", "labeled.ndjson"]), "--cache", "loop.tsv"]
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr() == ("", f"error: [Errno {errno.ELOOP}] {os.strerror(errno.ELOOP)}: 'loop.tsv'\n")
        assert sorted(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize(
        "last_line, expected",
        [
            (None, EXIT_OK),
            ({"id": "9", "coordinates": [0.0, 95.0]}, EXIT_INPUT),
            ({"id": "9", "coordinates": [0.0, 0.0]}, EXIT_GEOCODER),
            ({"id": "9", "place": {"country_code": "NL"}}, RuntimeError),
        ],
        ids=["ok", "malformed", "unresolvable", "exception"],
    )
    def test_label_closes_the_cache_descriptor_on_every_exit(self, tmp_path, monkeypatch, last_line, expected):
        cache_path = tmp_path / "cache.tsv"
        source = tmp_path / "raw.ndjson"
        lines = [
            {"id": "1", "coordinates": [4.48431747, 52.1674388]},
            {"id": "2", "coordinates": [2.3522, 48.8566]},
            *([last_line] if last_line else []),
        ]
        source.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
        if expected is RuntimeError:
            real_labeled_line = cli.labeled_line

            def failing_labeled_line(record, country, digest):
                if record.id == "9":
                    raise RuntimeError("output failed")
                return real_labeled_line(record, country, digest)

            monkeypatch.setattr(cli, "labeled_line", failing_labeled_line)
        argv = ["label", "--strict", "--input", str(source), "--output", str(tmp_path / "out"),
                "--cache", str(cache_path)]
        before = sorted(os.listdir("/dev/fd"))
        if isinstance(expected, int):
            assert main(argv) == expected
        else:
            with pytest.raises(expected):
                main(argv)
        assert sorted(os.listdir("/dev/fd")) == before
        keys = [line.split("\t")[0] for line in cache_path.read_text(encoding="utf-8").splitlines()]
        assert keys[:2] == ["reverse:52.1674,4.4843", "reverse:48.8566,2.3522"]


class TestConfigResolution:
    def test_config_file_applies(self, tmp_path, labeled_file, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("k = 5\nseed = 3\nkinds = timezone\n", encoding="utf-8")
        code = main(["evaluate", "--input", str(labeled_file), "--config", str(config)])
        assert code == EXIT_OK
        summary = read_summary(capsys)
        assert summary["config"]["k"] == 5
        assert summary["config"]["seed"] == 3
        assert summary["config"]["kinds"] == "timezone"

    def test_flags_beat_config_file(self, tmp_path, labeled_file, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("k = 5\nkinds = timezone\n", encoding="utf-8")
        code = main(
            ["evaluate", "--input", str(labeled_file), "--config", str(config), "--k", "4"]
        )
        assert code == EXIT_OK
        assert read_summary(capsys)["config"]["k"] == 4

    def test_unknown_config_key(self, tmp_path, labeled_file):
        config = tmp_path / "run.cfg"
        config.write_text("meaning_of_life = 42\n", encoding="utf-8")
        code = main(["evaluate", "--input", str(labeled_file), "--config", str(config)])
        assert code == EXIT_INPUT

    def test_bad_orientation_in_config(self, tmp_path, labeled_file):
        config = tmp_path / "run.cfg"
        config.write_text("fold_orientation = sideways\n", encoding="utf-8")
        code = main(["evaluate", "--input", str(labeled_file), "--config", str(config)])
        assert code == EXIT_INPUT

    @pytest.mark.parametrize(
        "command",
        ["label", "train", "classify", "evaluate", "ablate", "report", "cache stats", "cache compact"],
    )
    def test_every_summary_echoes_the_config(self, tmp_path, labeled_file, model_file, capsys, command):
        raw = tmp_path / "raw.ndjson"
        write_raw_corpus(raw)
        output = ["--output", str(tmp_path / "out.ndjson")]
        flags = {
            "label": ["--input", str(raw), *output],
            "train": ["--input", str(labeled_file), "--model", str(tmp_path / "retrained.json")],
            "classify": ["--input", str(raw), *output, "--model", str(model_file)],
            "evaluate": ["--input", str(labeled_file), "--k", "2"],
            "ablate": ["--input", str(labeled_file), "--k", "2", "--subsets", "timezone"],
            "report": ["--input", str(labeled_file)],
        }
        capsys.readouterr()
        # The cache actions refuse a missing file; every command reads an empty one.
        (tmp_path / "cache.tsv").touch()
        argv = [*command.split(), *flags.get(command, []), "--cache", str(tmp_path / "cache.tsv")]
        assert main(argv) == EXIT_OK
        summary = read_summary(capsys)
        assert summary["command"] == command
        assert summary["config"]["cache"] == str(tmp_path / "cache.tsv")
        assert summary["config_sha256"] == config_digest(summary["config"])

    @pytest.mark.parametrize("key", ["case_fold", "strict", "uniform_priors"])
    @pytest.mark.parametrize(
        "spelling, value",
        [("true", True), ("Yes", True), ("1", True), ("ON", True),
         ("FALSE", False), ("no", False), ("0", False), ("Off", False)],
    )
    def test_config_file_booleans(self, tmp_path, capsys, key, spelling, value):
        config = tmp_path / "run.cfg"
        config.write_text(f"{key} = {spelling}\n", encoding="utf-8")
        (tmp_path / "cache.tsv").touch()
        argv = ["cache", "stats", "--cache", str(tmp_path / "cache.tsv"), "--config", str(config)]
        assert main(argv) == EXIT_OK
        assert read_summary(capsys)["config"][key] is value

    def test_config_case_fold_applies_when_the_model_records_none(self, tmp_path, model_file, capsys):
        save_model(load_model(model_file), model_file, config={})
        raw = tmp_path / "raw.ndjson"
        # The model was trained case-folded, so this is in vocabulary only when folded.
        raw.write_text(json.dumps({"id": "1", "time_zone": "ZONE AA"}) + "\n", encoding="utf-8")
        config = tmp_path / "run.cfg"
        config.write_text("case_fold = off\n", encoding="utf-8")
        output = tmp_path / "out.ndjson"
        argv = ["classify", "--input", str(raw), "--model", str(model_file), "--output", str(output)]
        results = []
        for extra in (["--config", str(config)], []):
            capsys.readouterr()
            assert main(argv + extra) == EXIT_OK
            row = json.loads(output.read_text(encoding="utf-8"))
            results.append((read_summary(capsys)["config"]["case_fold"], "OOV_ONLY" in row["diagnostics"]))
        assert results == [(False, True), (True, False)]

    def test_parse_config_file(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("# comment\n\nalpha = 0.5\nkinds = timezone+location\n", encoding="utf-8")
        assert parse_config_file(config) == {"alpha": 0.5, "kinds": "timezone+location"}

    @pytest.mark.parametrize(
        "line", ["k = 1_0", "seed = 1_0", "alpha = 0_5", "min_count = 1_5", "top = 1_0", "max_in_flight = 1_0"]
    )
    def test_underscore_in_config_number_is_rejected(self, tmp_path, labeled_file, capsys, line):
        # int() and float() read "1_0" as 10; in a file it is more likely a typo.
        config = tmp_path / "run.cfg"
        config.write_text(f"# numbers\n{line}\n", encoding="utf-8")
        code = main(["evaluate", "--input", str(labeled_file), "--config", str(config)])
        assert code == EXIT_INPUT
        assert f"{config}:2: invalid" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["evaluate", "--k", "1_0"],
            ["evaluate", "--seed", "1_0"],
            ["evaluate", "--alpha", "0_5"],
            ["report", "--min-count", "1_5"],
            ["classify", "--top", "1_0"],
            ["label", "--max-in-flight", "1_0"],
        ],
    )
    def test_underscore_in_number_flag_is_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert f"argument {argv[1]}: invalid" in capsys.readouterr().err

    def test_flags_parse_like_their_config_keys(self):
        def walk(parser):
            yield parser
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for child in action.choices.values():
                        yield from walk(child)

        checked = set()
        dests = set()
        for parser in walk(cli.build_parser()):
            for action in parser._actions:
                if action.dest in CONFIG_FIELDS and action.nargs is None:
                    assert (action.type or str) is CONFIG_FIELDS[action.dest][0], action.dest
                    checked.add(action.dest)
                names = [name for name in action.option_strings if name not in ("-h", "--help", "--config")]
                if not names:
                    continue
                # A key's flag is --key with - for _, plus --no-key for a switch.
                flag = "--" + action.dest.replace("_", "-")
                assert names in ([flag], [flag, "--no-" + flag[2:]]), names
                assert action.dest in CONFIG_FIELDS, action.dest
                dests.add(action.dest)
        assert {"alpha", "k", "seed", "min_count", "top", "max_in_flight"} <= checked
        assert dests == set(CONFIG_FIELDS)

    def test_each_command_lists_its_options_in_order_with_their_help(self):
        def walk(parser, name=""):
            yield name, parser
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for leaf, child in action.choices.items():
                        yield from walk(child, f"{name} {leaf}".strip())

        def rows(parser):
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    yield from ((choice.dest, choice.help) for choice in action._choices_actions)
                elif action.dest != "help":
                    yield " ".join(action.option_strings), action.help

        config = [("--config", "config file of key = value lines; flags win")]
        geocoder = [
            ("--gazetteer", "gazetteer TSV (default: bundled)"),
            ("--reverse-points", "reverse lookup points TSV (default: bundled)"),
            ("--cache", "persistent geocode cache TSV (default: in-memory)"),
            ("--remote-backend", "registered remote geocoder name (default: none)"),
            ("--max-in-flight", "max concurrent remote lookups (default: 1)"),
        ]
        case_fold = [("--case-fold --no-case-fold", "case-fold location and timezone values (default: on)")]
        features = [
            ("--kinds", "feature kinds to use, e.g. location+timezone (default: all six)"),
            ("--alpha", "smoothing strength (default: 1.0)"),
            *case_fold,
        ]
        priors = [("--uniform-priors --no-uniform-priors", "score with equal class priors (default: off)")]
        reports = [("--report-json", "write the JSON report here"), ("--report-csv", "write the CSV report here")]
        evaluation = [
            ("--k", "fold count (default: 10)"),
            ("--seed", "fold shuffle seed (default: 0)"),
            ("--fold-orientation", "train on k-1 folds (standard) or on 1 fold (inverted)"),
            *priors,
            *reports,
        ]
        cache = [("--cache", "cache TSV file"), *config]
        expected = {
            "": [
                ("label", "derive ground-truth countries from geo info"),
                ("train", "fit a model on labeled records"),
                ("classify", "predict countries for raw tweets"),
                ("evaluate", "seeded k-fold cross-validation"),
                ("ablate", "cross-validate a grid of feature subsets"),
                ("report", "per-country accuracy table"),
                ("cache", "inspect or compact a geocode cache"),
            ],
            "label": [
                ("--input", "raw tweet NDJSON"),
                ("--output", "labeled NDJSON to write"),
                ("--strict --no-strict", "abort on the first malformed or unresolvable record"),
                *config,
                *geocoder,
            ],
            "train": [
                ("--input", "labeled NDJSON"),
                ("--model", "model JSON to write"),
                *config,
                *geocoder,
                *features,
            ],
            "classify": [
                ("--input", "raw tweet NDJSON"),
                ("--output", "predictions NDJSON to write"),
                ("--model", "model JSON to read"),
                ("--top", "ranked candidates per tweet (default: 3)"),
                ("--strict --no-strict", "abort on the first malformed record"),
                *priors,
                *config,
                *geocoder,
                (
                    "--case-fold --no-case-fold",
                    "case-fold location and timezone values (default: the setting recorded in the model; "
                    "if it records none, the config file's, else on)",
                ),
            ],
            "evaluate": [("--input", "labeled NDJSON"), *config, *geocoder, *features, *evaluation],
            "ablate": [
                ("--input", "labeled NDJSON"),
                ("--preset", "named subset grid (table1)"),
                ("--subsets", "semicolon-separated kind sets, e.g. 'location;location+timezone'"),
                *config,
                *geocoder,
                *features,
                *evaluation,
            ],
            "report": [
                ("--input", "labeled NDJSON used for training"),
                ("--eval-input", "labeled NDJSON to score (default: score the training file)"),
                ("--kind-sets", "semicolon-separated kind sets, one accuracy column each"),
                ("--min-count", "row cutoff (default: 15)"),
                ("--region-file", "region codes file (default: bundled Europe)"),
                ("--region-name", "label for the region row"),
                *config,
                *geocoder,
                *features,
                *priors,
                *reports,
            ],
            "cache": [],
            "cache stats": cache,
            "cache compact": cache,
        }
        assert {name: list(rows(parser)) for name, parser in walk(cli.build_parser())} == expected

    @pytest.mark.parametrize(
        "argv",
        [
            ["label", "--input", "r", "--output", "o", "--no-strict", "--cache", "c"],
            ["train", "--input", "l", "--model", "m", "--kinds", "location", "--alpha", "0.5"],
            ["classify", "--input", "r", "--output", "o", "--model", "m", "--top", "2", "--no-case-fold"],
            ["evaluate", "--input", "l", "--k", "2", "--fold-orientation", "inverted"],
            ["ablate", "--input", "l", "--preset", "table1", "--seed", "3", "--config", "f"],
            ["report", "--input", "l", "--min-count", "1", "--uniform-priors"],
            ["cache", "stats", "--cache", "c"],
            ["cache", "compact", "--cache", "c", "--config", "f"],
        ],
        ids=_command_name,
    )
    def test_parser_built_for_argv_parses_it_like_the_full_parser(self, argv):
        parser = cli.build_parser(argv)
        assert parser.parse_args(argv) == cli.build_parser().parse_args(argv)

        def flagged(parser, name=""):
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for leaf, child in action.choices.items():
                        yield from flagged(child, f"{name} {leaf}".strip())
                elif action.dest != "help":
                    yield name

        assert set(flagged(parser)) == {_command_name(argv)}

    @pytest.mark.parametrize(
        "argv",
        [["label"], ["train"], ["classify"], ["evaluate"], ["ablate"], ["report"], ["cache", "stats"], ["cache", "compact"]],
    )
    def test_main_calls_the_handler_the_module_holds_when_it_runs(self, monkeypatch, capsys, argv):
        # A tracer wraps a command by setting the module attribute after import.
        name = "cmd_" + "_".join(argv)
        calls = []
        monkeypatch.setattr(cli, name, lambda cfg: calls.append(cfg) or {"wrapped": True})
        assert main(argv) == EXIT_OK
        assert len(calls) == 1
        assert read_summary(capsys)["wrapped"] is True

    def test_underscore_in_reverse_point_is_rejected(self, tmp_path, capsys):
        points = tmp_path / "points.tsv"
        points.write_text("52.1\t4.4\tNL\tLeiden\n5_2.1\t4.4\tNL\tLeiden\n", encoding="utf-8")
        raw = tmp_path / "raw.ndjson"
        raw.write_text(json.dumps({"id": "1", "lon": 4.4, "lat": 52.1}) + "\n", encoding="utf-8")
        code = main(
            [
                "label", "--input", str(raw), "--output", str(tmp_path / "out.ndjson"),
                "--reverse-points", str(points),
            ]
        )
        assert code == EXIT_INPUT
        assert f"{points}:2: coordinates must be numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "classify", "ablate"])
    def test_malformed_reverse_points_fail_every_command(
        self, tmp_path, labeled_file, model_file, capsys, command
    ):
        # Given points are parsed when the geocoder is built, not on the first reverse lookup.
        points = tmp_path / "points.tsv"
        points.write_text("52.1\t4.4\tNL\tLeiden\n5_2.1\t4.4\tNL\tLeiden\n", encoding="utf-8")
        raw = tmp_path / "raw.ndjson"
        write_raw_corpus(raw)
        flags = {
            "train": ["--input", str(labeled_file), "--model", str(tmp_path / "retrained.json")],
            "classify": ["--input", str(raw), "--output", str(tmp_path / "out.ndjson"), "--model", str(model_file)],
            "ablate": ["--input", str(labeled_file), "--k", "2", "--subsets", "timezone"],
        }
        capsys.readouterr()
        assert main([command, *flags[command], "--reverse-points", str(points)]) == EXIT_INPUT
        assert f"{points}:2: coordinates must be numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["label", "train", "classify", "ablate"])
    def test_bundled_reverse_index_is_built_on_the_first_reverse_lookup(
        self, tmp_path, labeled_file, model_file, monkeypatch, command
    ):
        built = []
        bundled = cli.default_reverse_index
        monkeypatch.setattr(cli, "default_reverse_index", lambda: built.append(1) or bundled())
        raw = tmp_path / "raw.ndjson"
        lines = [{"id": str(i), "coordinates": [4.48431747, 52.1674388]} for i in range(3)]
        raw.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
        output = tmp_path / "out.ndjson"
        flags = {
            "label": ["--input", str(raw), "--output", str(output)],
            "train": ["--input", str(labeled_file), "--model", str(tmp_path / "retrained.json")],
            "classify": ["--input", str(raw), "--output", str(output), "--model", str(model_file)],
            "ablate": ["--input", str(labeled_file), "--k", "2", "--subsets", "timezone"],
        }
        assert main([command, *flags[command]]) == EXIT_OK
        if command == "label":
            # labeled through the bundled reference point at Leiden, built once for three lookups
            rows = [json.loads(line) for line in output.read_text(encoding="utf-8").splitlines()]
            assert [row["country"] for row in rows] == ["NL"] * 3
            assert built == [1]
        else:
            assert built == []

    def test_kinds_are_canonicalized(self, tmp_path, labeled_file, capsys):
        code = main(
            ["evaluate", "--input", str(labeled_file), "--kinds", "timezone+location"]
        )
        assert code == EXIT_OK
        assert read_summary(capsys)["config"]["kinds"] == "location+timezone"

    def test_unknown_remote_backend(self, tmp_path, labeled_file):
        code = main(
            ["evaluate", "--input", str(labeled_file), "--remote-backend", "nominatim"]
        )
        assert code == EXIT_INPUT

    def test_conflicting_gazetteer_file(self, tmp_path, labeled_file):
        gazetteer = tmp_path / "g.tsv"
        gazetteer.write_text("x\tFR\nx\tDE\n", encoding="utf-8")
        code = main(
            ["evaluate", "--input", str(labeled_file), "--gazetteer", str(gazetteer)]
        )
        assert code == EXIT_GEOCODER


DEEP_LINE = "[" * 200_000


def write_place_coded_tweets(path, lines_after=()):
    """Three raw tweets that label (place code) and classify alike, then extra lines."""
    lines = [
        json.dumps({"id": str(i), "place_country_code": "NL", "time_zone": "zone AA"})
        for i in range(3)
    ]
    path.write_text("\n".join(lines + list(lines_after)) + "\n", encoding="utf-8")


def run_record_command(command, raw, output, model_file, *extra):
    argv = [command, "--input", str(raw), "--output", str(output), *extra]
    if command == "classify":
        argv += ["--model", str(model_file)]
    return main(argv)


@pytest.mark.parametrize("command", ["label", "classify"])
class TestRecordCommands:
    """label and classify share one input reader and one atomic output."""

    def test_deeply_nested_line_is_malformed(self, tmp_path, model_file, capsys, command):
        raw = tmp_path / "raw.ndjson"
        write_place_coded_tweets(raw, [DEEP_LINE])
        output = tmp_path / "out.ndjson"
        assert run_record_command(command, raw, output, model_file) == EXIT_OK
        summary = read_summary(capsys)
        assert (summary["total"], summary["malformed"]) == (4, 1)
        assert len(output.read_text(encoding="utf-8").splitlines()) == 3

    def test_deeply_nested_line_with_strict(self, tmp_path, model_file, capsys, command):
        raw = tmp_path / "raw.ndjson"
        write_place_coded_tweets(raw, [DEEP_LINE])
        output = tmp_path / "out.ndjson"
        assert run_record_command(command, raw, output, model_file, "--strict") == EXIT_INPUT
        assert f"{raw}:4: invalid JSON" in capsys.readouterr().err

    def test_bytes_not_utf8_are_malformed(self, tmp_path, model_file, capsys, command):
        raw = tmp_path / "raw.ndjson"
        write_place_coded_tweets(raw)
        lines = raw.read_bytes().splitlines(keepends=True)
        lines.insert(1, b'{"id": "x", "text": "caf\xff"}\n')
        raw.write_bytes(b"".join(lines))
        output = tmp_path / "out.ndjson"
        assert run_record_command(command, raw, output, model_file) == EXIT_OK
        summary = read_summary(capsys)
        assert (summary["total"], summary["malformed"]) == (4, 1)
        assert len(output.read_text(encoding="utf-8").splitlines()) == 3
        assert run_record_command(command, raw, output, model_file, "--strict") == EXIT_INPUT
        assert f"{raw}:2: 'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err

    def test_lone_surrogate_is_malformed(self, tmp_path, model_file, capsys, command):
        raw = tmp_path / "raw.ndjson"
        bad = {"id": "x", "place_country_code": "NL", "user_location": "\ud800"}
        write_place_coded_tweets(raw, [json.dumps(bad)])
        assert "\\ud800" in raw.read_text(encoding="utf-8")
        output = tmp_path / "out.ndjson"
        cache = tmp_path / "cache.tsv"
        args = ("--cache", str(cache))
        assert run_record_command(command, raw, output, model_file, *args) == EXIT_OK
        summary = read_summary(capsys)
        assert (summary["total"], summary["malformed"]) == (4, 1)
        assert len(output.read_text(encoding="utf-8").splitlines()) == 3
        assert run_record_command(command, raw, output, model_file, *args, "--strict") == EXIT_INPUT
        assert f"{raw}:4: field 'user_location' holds a lone surrogate" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, message",
        [
            pytest.param(
                '{"id": ' + LONG_INTEGER + "}",
                "invalid JSON: Exceeds the limit",
                marks=needs_digit_limit,
                id="beyond-digit-limit",
            ),
            pytest.param('{"lon": %d, "lat": 0}' % BEYOND_FLOAT, "lon out of range: 1000", id="beyond-float"),
        ],
    )
    def test_unconvertible_integer_is_malformed(self, tmp_path, model_file, capsys, command, line, message):
        raw = tmp_path / "raw.ndjson"
        write_place_coded_tweets(raw, [line])
        output = tmp_path / "out.ndjson"
        assert run_record_command(command, raw, output, model_file) == EXIT_OK
        summary = read_summary(capsys)
        assert (summary["total"], summary["malformed"]) == (4, 1)
        assert len(output.read_text(encoding="utf-8").splitlines()) == 3
        assert run_record_command(command, raw, output, model_file, "--strict") == EXIT_INPUT
        assert f"{raw}:4: {message}" in capsys.readouterr().err

    def test_lines_end_only_at_newline(self, tmp_path, model_file, capsys, command):
        raw = tmp_path / "raw.ndjson"
        raw.write_bytes(
            b'{"id": "0", "place_country_code": "NL"}\r\n'
            b'{"id": "1",\r "place_country_code": "NL"}\r\n'
            b'\xc2\xa0\n'
            b'{"id": "2", "place_country_code": "NL"}'
        )
        output = tmp_path / "out.ndjson"
        assert run_record_command(command, raw, output, model_file) == EXIT_OK
        summary = read_summary(capsys)
        assert (summary["total"], summary["malformed"]) == (3, 0)
        ids = [json.loads(line)["id"] for line in output.read_text(encoding="utf-8").splitlines()]
        assert ids == ["0", "1", "2"]

    def test_strict_abort_keeps_previous_output(self, tmp_path, model_file, command):
        raw = tmp_path / "raw.ndjson"
        write_place_coded_tweets(raw, ["{broken"])
        output = tmp_path / "out.ndjson"
        output.write_text("previous run\n", encoding="utf-8")
        before = sorted(os.listdir(tmp_path))
        assert run_record_command(command, raw, output, model_file, "--strict") == EXIT_INPUT
        assert output.read_text(encoding="utf-8") == "previous run\n"
        assert sorted(os.listdir(tmp_path)) == before

    def test_failure_after_records_keeps_previous_output(
        self, tmp_path, model_file, monkeypatch, command
    ):
        raw = tmp_path / "raw.ndjson"
        write_place_coded_tweets(raw)
        output = tmp_path / "out.ndjson"
        output.write_text("previous run\n", encoding="utf-8")
        before = sorted(os.listdir(tmp_path))
        written = []
        # Each command's function that turns one record into its output line.
        hooked = "labeled_line" if command == "label" else "prediction_line"
        real_line = getattr(cli, hooked)

        def fail_on_third_record(*line_args):
            if len(written) == 2:
                raise RuntimeError("crash mid-run")
            written.append(line_args)
            return real_line(*line_args)

        monkeypatch.setattr(cli, hooked, fail_on_third_record)
        with pytest.raises(RuntimeError, match="crash mid-run"):
            run_record_command(command, raw, output, model_file)
        assert len(written) == 2
        assert output.read_text(encoding="utf-8") == "previous run\n"
        assert sorted(os.listdir(tmp_path)) == before


def test_evaluate_deeply_nested_line_is_input_error(tmp_path, labeled_file, capsys):
    with labeled_file.open("a", encoding="utf-8") as handle:
        handle.write(DEEP_LINE + "\n")
    assert main(["evaluate", "--input", str(labeled_file), "--k", "2"]) == EXIT_INPUT
    assert f"{labeled_file}:101: invalid JSON" in capsys.readouterr().err


# train and evaluate read labeled lines, label and classify (with --strict) raw
# records; both readers split, decode and name lines the same way.
@pytest.mark.parametrize("command", ["train", "evaluate", "label", "classify"])
@pytest.mark.parametrize(
    "line, message",
    [
        (b'{"id": "caf\xff", "country": "NL"}', "'utf-8' codec can't decode byte 0xff"),
        (b'{"user_location": "\\ud800", "country": "NL"}', "field 'user_location' holds a lone surrogate"),
        pytest.param(
            b'{"id": ' + LONG_INTEGER.encode() + b', "country": "NL"}',
            "invalid JSON: Exceeds the limit",
            marks=needs_digit_limit,
        ),
    ],
    ids=["not-utf8", "lone-surrogate", "beyond-digit-limit"],
)
def test_labeled_text_errors_name_the_line(tmp_path, labeled_file, model_file, capsys, command, line, message):
    with labeled_file.open("ab") as handle:
        handle.write(line + b"\n")
    flags = {
        "train": ["--model", str(tmp_path / "retrained.json")],
        "evaluate": ["--k", "2"],
        "label": ["--output", str(tmp_path / "out.ndjson"), "--strict"],
        "classify": ["--output", str(tmp_path / "out.ndjson"), "--strict", "--model", str(model_file)],
    }
    assert main([command, "--input", str(labeled_file), *flags[command]]) == EXIT_INPUT
    assert f"{labeled_file}:101: {message}" in capsys.readouterr().err


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_label_to_redirected_dev_stdout_keeps_records_and_summary(tmp_path):
    raw = tmp_path / "raw.ndjson"
    write_place_coded_tweets(raw)
    package_root = str(Path(tweetcountry.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    captured = tmp_path / "captured.txt"
    with captured.open("wb") as stdout:
        result = subprocess.run(
            [sys.executable, "-m", "tweetcountry", "label", "--input", str(raw), "--output", "/dev/stdout"],
            stdout=stdout,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    assert result.returncode == 0, result.stderr
    lines = captured.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["id"] for line in lines[:3]] == ["0", "1", "2"]
    summary = json.loads("\n".join(lines[3:]))
    assert (summary["command"], summary["labeled"]) == ("label", 3)


def test_classify_deeply_nested_model_is_model_error(tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text(DEEP_LINE, encoding="utf-8")
    raw = tmp_path / "raw.ndjson"
    write_place_coded_tweets(raw)
    output = tmp_path / "out.ndjson"
    assert run_record_command("classify", raw, output, model) == EXIT_MODEL
    assert "model error" in capsys.readouterr().err
    assert not output.exists()


@pytest.mark.parametrize(
    "contents",
    [
        pytest.param('{"schema_version": ' + LONG_INTEGER + "}", marks=needs_digit_limit, id="beyond-digit-limit"),
        pytest.param(b"\xff{}", id="not-utf8"),
    ],
)
def test_classify_unreadable_model_is_model_error(tmp_path, capsys, contents):
    model = tmp_path / "model.json"
    if isinstance(contents, str):
        model.write_text(contents, encoding="utf-8")
    else:
        model.write_bytes(contents)
    raw = tmp_path / "raw.ndjson"
    write_place_coded_tweets(raw)
    output = tmp_path / "out.ndjson"
    assert run_record_command("classify", raw, output, model) == EXIT_MODEL
    assert "model error" in capsys.readouterr().err
    assert not output.exists()


@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf", "1e999", "-0.5"])
def test_train_rejects_alpha_that_is_not_finite(tmp_path, labeled_file, capsys, alpha):
    model = tmp_path / "model.json"
    cache = tmp_path / "cache.tsv"
    argv = ["train", "--input", str(labeled_file), "--model", str(model), "--cache", str(cache)]
    assert main(argv + [f"--alpha={alpha}"]) == EXIT_INPUT
    assert "alpha must be a finite non-negative number" in capsys.readouterr().err
    # Rejected before any record is read: no model, and no geocode lookups cached.
    assert not model.exists()
    assert not cache.exists()


@pytest.mark.parametrize("alpha", ["NaN", "Infinity"])
def test_classify_model_with_alpha_that_is_not_finite_is_model_error(
    tmp_path, model_file, capsys, alpha
):
    document = json.loads(model_file.read_text(encoding="utf-8"))
    text = json.dumps({**document, "alpha": 1.0}).replace('"alpha": 1.0', f'"alpha": {alpha}')
    model_file.write_text(text, encoding="utf-8")
    raw = tmp_path / "raw.ndjson"
    write_place_coded_tweets(raw)
    output = tmp_path / "out.ndjson"
    assert run_record_command("classify", raw, output, model_file) == EXIT_MODEL
    assert "model error: alpha must be" in capsys.readouterr().err
    assert not output.exists()


def test_every_public_name_resolves():
    missing = [name for name in tweetcountry.__all__ if not hasattr(tweetcountry, name)]
    assert missing == []


def test_import_loads_no_submodule():
    env = {**os.environ, "PYTHONPATH": str(Path(tweetcountry.__file__).parents[1])}
    result = subprocess.run(
        [
            sys.executable, "-S", "-c",
            "import sys, tweetcountry\n"
            "print(sorted(name for name in sys.modules if name.startswith('tweetcountry.')))\n"
            "print(tweetcountry.evaluation.__name__)",
        ],
        env=env,
        capture_output=True,
        text=True,
        encoding="utf-8",
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    # A submodule is still an attribute of the package, imported on first use.
    assert result.stdout == "[]\ntweetcountry.evaluation\n"


# The public constants, which name no module of their own, and the module
# that defines each.
_CONSTANT_OWNERS = {
    "ABLATION_PRESETS": "evaluation",
    "ALL_KINDS": "features",
    "FeatureVector": "features",
    "OTHER_LABEL": "tweet_model",
}


def test_public_names_are_the_objects_their_modules_define():
    for name in tweetcountry.__all__:
        if name == "__version__":
            continue
        value = getattr(tweetcountry, name)
        owner = f"tweetcountry.{_CONSTANT_OWNERS[name]}" if name in _CONSTANT_OWNERS else value.__module__
        assert value is getattr(importlib.import_module(owner), name), name


def test_dir_lists_every_public_name():
    assert set(tweetcountry.__all__) <= set(dir(tweetcountry))


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from tweetcountry import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(tweetcountry.__all__)
    assert all(namespace[name] is getattr(tweetcountry, name) for name in namespace)


def test_unknown_package_attribute_fails_like_a_plain_module():
    with pytest.raises(AttributeError) as plain:
        types.ModuleType("tweetcountry").no_such_name
    with pytest.raises(AttributeError) as lazy:
        tweetcountry.no_such_name
    assert str(lazy.value) == str(plain.value)
    assert not hasattr(tweetcountry, "no_such_name")


@pytest.mark.parametrize(
    "module, name, argv",
    [
        (bayes, "train", ["train", "--input", "labeled.ndjson", "--model", "m.json"]),
        (bayes, "load_model", ["classify", "--input", "labeled.ndjson", "--model", "model.json", "--output", "o"]),
        (evaluation, "load_labeled_ndjson", ["train", "--input", "labeled.ndjson", "--model", "m.json"]),
        (evaluation, "load_labeled_ndjson", ["report", "--input", "labeled.ndjson"]),
        (evaluation, "diagnostic_tags", ["classify", "--input", "labeled.ndjson", "--model", "model.json", "--output", "o"]),
    ],
    ids=lambda value: value.__name__.rpartition(".")[2] if isinstance(value, types.ModuleType) else None,
)
def test_handler_calls_what_the_module_holds_when_it_runs(
    tmp_path, labeled_file, model_file, monkeypatch, capsys, module, name, argv
):
    # A tracer wraps bayes and evaluation functions after cli is imported.
    monkeypatch.chdir(tmp_path)
    real, calls = getattr(module, name), []
    monkeypatch.setattr(module, name, lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs))
    assert main(argv) == EXIT_OK
    assert calls
    assert read_summary(capsys)["command"] == argv[0]


def _cache_in(argv):
    return pytest.param(argv + ["--cache", "a/x.json"], id=_command_name(argv) + "-cache")


@pytest.mark.parametrize(
    "argv",
    [
        ["label", "--input", "raw.ndjson", "--output", "a/x.json"],
        ["train", "--input", "labeled.ndjson", "--model", "a/x.json"],
        ["classify", "--input", "raw.ndjson", "--model", "model.json", "--output", "a/x.json"],
        ["ablate", "--input", "labeled.ndjson", "--k", "2", "--subsets", "timezone", "--report-json", "a/x.json"],
        _cache_in(["label", "--input", "raw.ndjson", "--output", "o.ndjson"]),
        _cache_in(["train", "--input", "labeled.ndjson", "--model", "m.json"]),
        _cache_in(["classify", "--input", "raw.ndjson", "--model", "model.json", "--output", "o.ndjson"]),
        _cache_in(["evaluate", "--input", "labeled.ndjson", "--k", "2"]),
        _cache_in(["ablate", "--input", "labeled.ndjson", "--k", "2", "--subsets", "timezone"]),
        _cache_in(["report", "--input", "labeled.ndjson"]),
        _cache_in(["cache", "stats"]),
        _cache_in(["cache", "compact"]),
    ],
    ids=_command_name,
)
def test_target_inside_a_symlink_loop_is_an_input_error(tmp_path, labeled_file, model_file, capsys, monkeypatch, argv):
    # Each target, the cache too, is tried in a directory that is a symlink loop and in a missing one.
    monkeypatch.chdir(tmp_path)
    write_raw_corpus(tmp_path / "raw.ndjson")
    (tmp_path / "a").symlink_to("b")
    (tmp_path / "b").symlink_to("a")
    before = sorted(os.listdir(tmp_path))
    _forbid_reading(monkeypatch)
    for target, code in (("a/x.json", errno.ELOOP), ("nodir/c.tsv", errno.ENOENT)):
        assert main([target if part == "a/x.json" else part for part in argv]) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: [Errno {code}] {os.strerror(code)}: {target!r}\n"
        assert sorted(os.listdir(tmp_path)) == before


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "tweetcountry", "--help"],
        capture_output=True,
        text=True,
        encoding="utf-8",
        timeout=60,
    )
    assert result.returncode == 0
    assert "label" in result.stdout
    assert "evaluate" in result.stdout


def test_cli_warning_goes_to_stderr_in_its_format(tmp_path):
    (tmp_path / "bad.tsv").write_text("paris\tFR\tgazetteer\t2024-01-01\nonly two\tfields\n", encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(tweetcountry.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-m", "tweetcountry", "cache", "stats", "--cache", "bad.tsv"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        encoding="utf-8",
        timeout=60,
    )
    assert result.returncode == 0
    assert result.stderr == "WARNING tweetcountry.geocode: bad.tsv:2: skipping malformed cache line\n"
    assert json.loads(result.stdout)["entries"] == 1


# Modules a command leaves unimported; each costs milliseconds at every
# start. No command imports dataclasses (with inspect, ast and dis), secrets
# or datetime (cache entries are stamped from time.time_ns), and logging
# loads only for a warning. Statistics, fractions and decimal load only to
# evaluate, random only to assign folds, threading only for a remote
# geocoder. The package's bayes and evaluation load only for the commands
# that train, score or evaluate.
_NEVER = ("dataclasses", "inspect", "secrets", "datetime", "logging", "hashlib", "_hashlib")
_EVALUATION = ("statistics", "fractions", "decimal")
_SCORING = ("tweetcountry.bayes", "tweetcountry.evaluation")
_GEOCODING_ONLY = _NEVER + _EVALUATION + ("random", "threading") + _SCORING
_UNUSED_MODULES = {
    "label": _GEOCODING_ONLY,
    "train": _NEVER + _EVALUATION + ("random", "threading"),
    "classify": _NEVER + _EVALUATION + ("random", "threading"),
    "evaluate": _NEVER,
    "ablate": _NEVER,
    "report": _NEVER,
    "cache stats": _GEOCODING_ONLY,
    "cache compact": _GEOCODING_ONLY,
    "--help": _GEOCODING_ONLY,
}
# argv: the comma-separated modules to look for, then the command line.
_MODULES_PROBE = (
    "import sys\n"
    "from tweetcountry.cli import main\n"
    "try:\n"
    "    code = main(sys.argv[2:])\n"
    "except SystemExit as exc:\n"
    "    code = exc.code\n"
    "print(sorted(set(sys.argv[1].split(',')) & set(sys.modules)), file=sys.stderr)\n"
    "sys.exit(code)\n"
)


@pytest.mark.parametrize(
    "command",
    [
        ["label", "--input", "raw.ndjson", "--output", "labeled-out.ndjson"],
        ["train", "--input", "labeled.ndjson", "--model", "model-out.json"],
        ["classify", "--input", "raw.ndjson", "--model", "model.json", "--output", "out.ndjson"],
        ["evaluate", "--input", "labeled.ndjson", "--k", "2", "--report-json", "e.json"],
        ["ablate", "--input", "labeled.ndjson", "--k", "2", "--subsets", "timezone", "--report-csv", "a.csv"],
        ["report", "--input", "labeled.ndjson", "--report-json", "r.json"],
        ["cache", "stats"],
        ["cache", "compact"],
        ["--help"],
    ],
    ids=_command_name,
)
def test_commands_leave_unused_modules_unimported(tmp_path, labeled_file, model_file, command):
    write_raw_corpus(tmp_path / "raw.ndjson")
    (tmp_path / "cache.tsv").write_text("paris\tFR\tgazetteer\t2024-01-01\n", encoding="utf-8")
    # -S keeps site-packages and the .pth hooks there, which may import
    # anything, out of the run; the package needs only its own directory.
    env = {**os.environ, "PYTHONPATH": str(Path(tweetcountry.__file__).parents[1])}
    result = subprocess.run(
        [
            sys.executable, "-S", "-c", _MODULES_PROBE, ",".join(_UNUSED_MODULES[_command_name(command)]),
            *command, "--cache", "cache.tsv",
        ],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        encoding="utf-8",
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr.splitlines()[-1] == "[]"
