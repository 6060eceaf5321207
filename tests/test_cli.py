"""End-to-end CLI behavior through in-process main() calls."""

from __future__ import annotations

import argparse
import builtins
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tweetcountry
from tweetcountry import bayes, cli
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
from tweetcountry.evaluation import config_digest, load_labeled_ndjson
from tweetcountry.tweet_model import parse_tweet, to_flat_dict

from conftest import make_separable_corpus
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

    def test_case_fold_help_names_the_model_default(self, capsys):
        # classify mirrors the model's recorded case_fold unless the flag is given
        with pytest.raises(SystemExit) as excinfo:
            main(["classify", "--help"])
        assert excinfo.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "case-fold location and timezone values (default: the setting recorded in the model;" in text
        assert "(default: on)" not in text


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
        argv = [*command.split(), *flags.get(command, []), "--cache", str(tmp_path / "cache.tsv")]
        assert main(argv) == EXIT_OK
        summary = read_summary(capsys)
        assert summary["command"] == command
        assert summary["config"]["cache"] == str(tmp_path / "cache.tsv")
        assert summary["config_sha256"] == config_digest(summary["config"])

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
        subcommands = next(
            action for action in cli.build_parser()._actions if isinstance(action, argparse._SubParsersAction)
        )
        checked = set()
        for parser in subcommands.choices.values():
            for action in parser._actions:
                if action.dest in CONFIG_FIELDS and action.nargs is None:
                    assert (action.type or str) is CONFIG_FIELDS[action.dest][0], action.dest
                    checked.add(action.dest)
        assert {"alpha", "k", "seed", "min_count", "top", "max_in_flight"} <= checked

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

        def fail_on_third_record(obj):
            if len(written) == 2:
                raise RuntimeError("crash mid-run")
            written.append(obj)
            return json.dumps(obj)

        monkeypatch.setattr(cli, "_dump_line", fail_on_third_record)
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


# Standard-library modules no command imports: dataclasses (with inspect, ast
# and dis) and secrets each cost milliseconds at every start.
_UNUSED_MODULES = ("dataclasses", "inspect", "secrets")
_MODULES_PROBE = (
    "import sys\n"
    "from tweetcountry.cli import main\n"
    "code = main(sys.argv[1:])\n"
    f"print(sorted(set({_UNUSED_MODULES!r}) & set(sys.modules)), file=sys.stderr)\n"
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
    ],
    ids=lambda argv: " ".join(argv[:2]) if argv[0] == "cache" else argv[0],
)
def test_commands_leave_unused_modules_unimported(tmp_path, labeled_file, model_file, command):
    write_raw_corpus(tmp_path / "raw.ndjson")
    (tmp_path / "cache.tsv").write_text("paris\tFR\tgazetteer\t2024-01-01\n", encoding="utf-8")
    # -S keeps site-packages and the .pth hooks there, which may import
    # anything, out of the run; the package needs only its own directory.
    env = {**os.environ, "PYTHONPATH": str(Path(tweetcountry.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-S", "-c", _MODULES_PROBE, *command, "--cache", "cache.tsv"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        encoding="utf-8",
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr.splitlines()[-1] == "[]"
