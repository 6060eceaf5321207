"""Command line interface.

Subcommands: label, train, classify, evaluate, ablate, report, cache.
Options resolve in three layers: built-in defaults, then a config file of
``key = value`` lines, then command line flags. Every artifact embeds the
resolved configuration (or its SHA-256) so runs can be reproduced exactly.

Exit codes: 0 success, 2 input or configuration problem, 3 model problem,
4 geocoding problem.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Iterator

from .atomic import open_atomic
from .bayes import (
    load_model,
    log_posterior,
    save_model,
    train,
)
# The exit codes are re-exported here, where callers of main look for them.
from .errors import EXIT_GEOCODER, EXIT_INPUT, EXIT_MODEL  # noqa: F401
from .errors import MalformedInput, ResolverFailure, TweetCountryError
from .evaluation import (
    ABLATION_PRESETS,
    DEFAULT_MIN_COUNT,
    REPORT_KIND_SETS,
    ablate,
    config_digest,
    cross_validate,
    default_region,
    diagnostic_tags,
    kinds_label,
    load_labeled_ndjson,
    load_region,
    parse_kinds_label,
    per_country_report,
    write_ablation_csv,
    write_ablation_json,
    write_evaluation_csv,
    write_evaluation_json,
    write_per_country_csv,
    write_per_country_json,
)
from .features import ALL_KINDS, FeatureKind, extract_features
from .geocode import (
    GeocodeCache,
    Geocoder,
    RemoteGeocoder,
    default_gazetteer,
    default_reverse_index,
    load_gazetteer,
    load_reverse_points,
)
from .tweet_model import (
    TweetRecord,
    integer,
    label_of,
    number,
    parse_tweet,
    read_ndjson,
    table_lines,
    to_flat_dict,
)

log = logging.getLogger(__name__)

EXIT_OK = 0

CREDENTIAL_ENV_VAR = "TWEETCOUNTRY_REMOTE_CREDENTIAL"

# name -> factory(resolved config dict, credential or None) -> RemoteGeocoder.
# Empty by default; deployments register their own backend adapters.
REMOTE_BACKENDS: dict[str, Callable[[dict, str | None], RemoteGeocoder]] = {}

_ALL_KINDS_LABEL = kinds_label(ALL_KINDS)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# Config file keys: parser of file values, which the key's flag takes too if it
# takes a value, and the built-in default.
CONFIG_FIELDS: dict[str, tuple[Callable[[str], Any], Any]] = {
    "input": (str, None),
    "output": (str, None),
    "model": (str, None),
    "eval_input": (str, None),
    "report_json": (str, None),
    "report_csv": (str, None),
    "kinds": (str, _ALL_KINDS_LABEL),
    "alpha": (number, 1.0),
    "k": (integer, 10),
    "seed": (integer, 0),
    "fold_orientation": (str, "standard"),
    "uniform_priors": (_parse_bool, False),
    "case_fold": (_parse_bool, True),
    "strict": (_parse_bool, False),
    "min_count": (integer, DEFAULT_MIN_COUNT),
    "region_file": (str, None),
    "region_name": (str, "Europe"),
    "preset": (str, None),
    "subsets": (str, None),
    "kind_sets": (str, None),
    "top": (integer, 3),
    "gazetteer": (str, None),
    "reverse_points": (str, None),
    "cache": (str, None),
    "remote_backend": (str, "none"),
    "max_in_flight": (integer, 1),
}


def parse_config_file(path: str | Path) -> dict[str, Any]:
    """Read a line table (``table_lines``) of ``key = value`` lines, each
    value parsed by its key's parser."""
    values: dict[str, Any] = {}
    for where, raw in table_lines(Path(path).read_bytes(), str(path)):
        line = raw.strip()
        if "=" not in line:
            raise ValueError(f"{where}: expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in CONFIG_FIELDS:
            raise ValueError(f"{where}: unknown config key {key!r}")
        try:
            values[key] = CONFIG_FIELDS[key][0](value.strip())
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    return values


def resolve_config(args: argparse.Namespace) -> SimpleNamespace:
    """Merge defaults, config file, and flags into one resolved namespace.

    Flags beat the config file; the config file beats defaults. The resolved
    mapping is echoed into artifacts, with its digest as the artifact's id.
    """
    file_values = parse_config_file(args.config) if getattr(args, "config", None) else {}
    resolved: dict[str, Any] = {}
    for name, (_, default) in CONFIG_FIELDS.items():
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            resolved[name] = flag_value
        elif name in file_values:
            resolved[name] = file_values[name]
        else:
            resolved[name] = default
    if resolved["fold_orientation"] not in ("standard", "inverted"):
        raise ValueError(f"fold_orientation must be standard or inverted, got {resolved['fold_orientation']!r}")
    if resolved["top"] < 1:
        raise ValueError("top must be at least 1")
    # Checked here as well as in train, so a bad value fails before any input is read.
    if not 0 <= resolved["alpha"] <= sys.float_info.max:
        raise ValueError(f"alpha must be a finite non-negative number, got {resolved['alpha']!r}")
    resolved["kinds"] = kinds_label(parse_kinds_label(resolved["kinds"].replace(",", "+")))
    context = SimpleNamespace(**resolved)
    context.echo = dict(resolved)
    context.digest = config_digest(context.echo)
    return context


def build_geocoder(cfg: SimpleNamespace) -> Geocoder:
    gazetteer = load_gazetteer(cfg.gazetteer) if cfg.gazetteer else default_gazetteer()
    reverse_index = (
        load_reverse_points(cfg.reverse_points) if cfg.reverse_points else default_reverse_index()
    )
    cache = GeocodeCache(cfg.cache)
    remote = None
    if cfg.remote_backend and cfg.remote_backend != "none":
        factory = REMOTE_BACKENDS.get(cfg.remote_backend)
        if factory is None:
            known = ", ".join(sorted(REMOTE_BACKENDS)) or "none registered"
            raise ValueError(f"unknown remote backend {cfg.remote_backend!r} ({known})")
        remote = factory(dict(cfg.echo), os.environ.get(CREDENTIAL_ENV_VAR))
    return Geocoder(
        gazetteer=gazetteer,
        cache=cache,
        remote=remote,
        reverse_index=reverse_index,
        max_in_flight=cfg.max_in_flight,
    )


def _require_paths(cfg: SimpleNamespace, *names: str) -> None:
    for name in names:
        if getattr(cfg, name) in (None, ""):
            raise ValueError(f"missing required option --{name.replace('_', '-')}")


def _write_reports(cfg: SimpleNamespace, report, write_json, write_csv) -> dict:
    """Write the report to --report-json and --report-csv, each if given, and
    return both paths for the summary."""
    if cfg.report_json:
        write_json(report, cfg.report_json)
    if cfg.report_csv:
        write_csv(report, cfg.report_csv)
    return {"report_json": cfg.report_json, "report_csv": cfg.report_csv}


# json.dumps with options builds an encoder per call; output lines share one.
_LINE_ENCODER = json.JSONEncoder(ensure_ascii=False, sort_keys=True)


def _dump_line(obj: dict) -> str:
    return _LINE_ENCODER.encode(obj)


def _records(cfg: SimpleNamespace, totals: dict[str, int]) -> Iterator[tuple[int, TweetRecord]]:
    """Yield (line number, record) for each well-formed line of --input.

    Lines are read by ``read_ndjson``; every non-blank one counts in
    totals["total"]. A malformed line counts in totals["malformed"], or with
    --strict raises MalformedInput prefixed with path:lineno.
    """
    for lineno, record, error in read_ndjson(cfg.input, parse_tweet):
        totals["total"] += 1
        if error is not None:
            if cfg.strict:
                raise MalformedInput(f"{cfg.input}:{lineno}: {error}") from None
            totals["malformed"] += 1
            continue
        yield lineno, record


def cmd_label(cfg: SimpleNamespace) -> dict:
    """Read raw tweets, write records whose country could be derived."""
    _require_paths(cfg, "input", "output")
    geocoder = build_geocoder(cfg)
    totals = {"total": 0, "labeled": 0, "skipped": 0, "malformed": 0}
    with open_atomic(cfg.output) as sink:
        for lineno, record in _records(cfg, totals):
            try:
                country = label_of(record, geocoder)
            except ResolverFailure as exc:
                if cfg.strict:
                    raise ResolverFailure(f"{cfg.input}:{lineno}: {exc}") from None
                totals["skipped"] += 1
                continue
            if country is None:
                totals["skipped"] += 1
                continue
            obj = to_flat_dict(record)
            obj["country"] = country
            obj["config_sha256"] = cfg.digest
            sink.write(_dump_line(obj) + "\n")
            totals["labeled"] += 1
    return {**totals, "output": cfg.output}


def cmd_train(cfg: SimpleNamespace) -> dict:
    """Fit a model on a labeled NDJSON file and write it as JSON."""
    _require_paths(cfg, "input", "model")
    geocoder = build_geocoder(cfg)
    data = load_labeled_ndjson(cfg.input)
    kinds = parse_kinds_label(cfg.kinds)
    vectors = data.vectors(geocoder, kinds, cfg.case_fold)
    model = train(zip(vectors, data.labels()), alpha=cfg.alpha, enabled_kinds=kinds)
    save_model(model, cfg.model, config=cfg.echo)
    return {
        "model": cfg.model,
        "classes": len(model.class_count),
        "total_examples": model.total_examples,
        "vocabulary_sizes": model.vocabulary_sizes(),
    }


def cmd_classify(cfg: SimpleNamespace) -> dict:
    """Predict a country per input tweet; one output line per parsed tweet."""
    _require_paths(cfg, "input", "output", "model")
    model = load_model(cfg.model)
    trained_config = model.config or {}
    case_fold = cfg.case_fold
    # Unless the flag was given explicitly, mirror how the model was trained.
    if getattr(cfg, "case_fold_given", None) is None and isinstance(
        trained_config.get("case_fold"), bool
    ):
        case_fold = trained_config["case_fold"]
    geocoder = build_geocoder(cfg)
    totals = {"total": 0, "classified": 0, "malformed": 0}
    with open_atomic(cfg.output) as sink:
        for _, record in _records(cfg, totals):
            vector = extract_features(record, geocoder, model.enabled_kinds, case_fold=case_fold)
            ranked = log_posterior(model, vector, uniform_priors=cfg.uniform_priors, top=cfg.top)
            predicted = ranked[0][0]
            obj = {
                "id": record.id,
                "predicted": predicted,
                "top": [
                    {
                        "country": country,
                        "log_score": score if score != float("-inf") else None,
                    }
                    for country, score in ranked
                ],
                "diagnostics": sorted(diagnostic_tags(model, vector, predicted)),
                "config_sha256": cfg.digest,
            }
            sink.write(_dump_line(obj) + "\n")
            totals["classified"] += 1
    return {**totals, "output": cfg.output}


def cmd_evaluate(cfg: SimpleNamespace) -> dict:
    """Seeded k-fold cross-validation on a labeled NDJSON file."""
    _require_paths(cfg, "input")
    geocoder = build_geocoder(cfg)
    data = load_labeled_ndjson(cfg.input)
    report = cross_validate(
        data,
        k=cfg.k,
        kinds=parse_kinds_label(cfg.kinds),
        alpha=cfg.alpha,
        seed=cfg.seed,
        geoparser=geocoder,
        orientation=cfg.fold_orientation,
        uniform_priors=cfg.uniform_priors,
        case_fold=cfg.case_fold,
        config={"cli": cfg.echo},
    )
    return {
        **_write_reports(cfg, report, write_evaluation_json, write_evaluation_csv),
        "n_evaluated": report.n_evaluated,
        "accuracy_pooled": float(report.pooled_accuracy),
        "accuracy_pooled_fraction": f"{report.pooled_accuracy.numerator}/{report.pooled_accuracy.denominator}",
        "accuracy_mean_of_folds": float(report.mean_fold_accuracy),
    }


def _parse_kind_sets(text: str) -> list[tuple[FeatureKind, ...]]:
    """Semicolon-separated kind sets, e.g. 'location;location+timezone'."""
    kind_sets = [parse_kinds_label(part) for part in text.split(";") if part.strip()]
    if not kind_sets:
        raise ValueError("no feature kind sets given")
    return kind_sets


def _ablation_subsets(cfg: SimpleNamespace):
    if cfg.preset and cfg.subsets:
        raise ValueError("give either --preset or --subsets, not both")
    if cfg.subsets:
        return _parse_kind_sets(cfg.subsets)
    preset = cfg.preset or "table1"
    if preset not in ABLATION_PRESETS:
        known = ", ".join(sorted(ABLATION_PRESETS))
        raise ValueError(f"unknown preset {preset!r} (known: {known})")
    return list(ABLATION_PRESETS[preset])


def cmd_ablate(cfg: SimpleNamespace) -> dict:
    """Cross-validate a grid of feature subsets against identical folds."""
    _require_paths(cfg, "input")
    geocoder = build_geocoder(cfg)
    data = load_labeled_ndjson(cfg.input)
    rows = ablate(
        data,
        subsets=_ablation_subsets(cfg),
        k=cfg.k,
        alpha=cfg.alpha,
        seed=cfg.seed,
        geoparser=geocoder,
        orientation=cfg.fold_orientation,
        uniform_priors=cfg.uniform_priors,
        case_fold=cfg.case_fold,
        config={"cli": cfg.echo},
    )
    best = max(rows, key=lambda row: row.report.pooled_accuracy)
    return {
        **_write_reports(cfg, rows, write_ablation_json, write_ablation_csv),
        "subsets": {row.label: float(row.report.pooled_accuracy) for row in rows},
        "best_subset": best.label,
        "best_accuracy": float(best.report.pooled_accuracy),
    }


def cmd_report(cfg: SimpleNamespace) -> dict:
    """Per-country accuracy table with summary and region rows."""
    _require_paths(cfg, "input")
    geocoder = build_geocoder(cfg)
    train_data = load_labeled_ndjson(cfg.input)
    eval_data = load_labeled_ndjson(cfg.eval_input) if cfg.eval_input else None
    kind_sets = _parse_kind_sets(cfg.kind_sets) if cfg.kind_sets else list(REPORT_KIND_SETS)
    region = load_region(cfg.region_file) if cfg.region_file else default_region()
    report = per_country_report(
        train_data,
        eval_data,
        kind_sets=kind_sets,
        min_count=cfg.min_count,
        alpha=cfg.alpha,
        geoparser=geocoder,
        region=region,
        region_name=cfg.region_name,
        uniform_priors=cfg.uniform_priors,
        case_fold=cfg.case_fold,
        config={"cli": cfg.echo},
    )
    return {
        **_write_reports(cfg, report, write_per_country_json, write_per_country_csv),
        "mode": report.mode,
        "countries": len(report.rows),
        "omitted_countries": report.omitted_countries,
        "average_percent": list(report.average),
        "stddev_percent": list(report.stddev),
        "region": report.region_name,
        "region_percent": [float(value) * 100.0 for value in report.region_accuracies],
    }


def cmd_cache_stats(cfg: SimpleNamespace) -> dict:
    """Count the entries of a persistent geocode cache file."""
    _require_paths(cfg, "cache")
    return GeocodeCache(cfg.cache).stats()


def cmd_cache_compact(cfg: SimpleNamespace) -> dict:
    """Rewrite a persistent geocode cache file sorted and deduplicated."""
    _require_paths(cfg, "cache")
    return {"path": cfg.cache, "entries": GeocodeCache(cfg.cache).compact()}


def _add_config_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="config file of key = value lines; flags win")


def _add_geocoder_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--gazetteer", help="gazetteer TSV (default: bundled)")
    parser.add_argument(
        "--reverse-points", dest="reverse_points", help="reverse lookup points TSV (default: bundled)"
    )
    parser.add_argument("--cache", help="persistent geocode cache TSV (default: in-memory)")
    parser.add_argument(
        "--remote-backend",
        dest="remote_backend",
        help="registered remote geocoder name (default: none)",
    )
    parser.add_argument(
        "--max-in-flight",
        dest="max_in_flight",
        type=integer,
        help="max concurrent remote lookups (default: 1)",
    )


def _add_feature_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--kinds",
        help="feature kinds to use, e.g. location+timezone (default: all six)",
    )
    parser.add_argument("--alpha", type=number, help="smoothing strength (default: 1.0)")
    _add_case_fold_flag(parser)


def _add_case_fold_flag(parser: argparse.ArgumentParser, default: str = "on") -> None:
    parser.add_argument(
        "--case-fold",
        dest="case_fold",
        action=argparse.BooleanOptionalAction,
        default=None,
        help=f"case-fold location and timezone values (default: {default})",
    )


def _add_eval_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--k", type=integer, help="fold count (default: 10)")
    parser.add_argument("--seed", type=integer, help="fold shuffle seed (default: 0)")
    parser.add_argument(
        "--fold-orientation",
        dest="fold_orientation",
        choices=("standard", "inverted"),
        help="train on k-1 folds (standard) or on 1 fold (inverted)",
    )
    _add_uniform_priors_flag(parser)
    _add_report_flags(parser)


def _add_uniform_priors_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--uniform-priors",
        dest="uniform_priors",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="score with equal class priors (default: off)",
    )


def _add_report_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--report-json", dest="report_json", help="write the JSON report here")
    parser.add_argument("--report-csv", dest="report_csv", help="write the CSV report here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tweetcountry",
        description="Infer a tweet's home country from its metadata.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    label = commands.add_parser("label", help="derive ground-truth countries from geo info")
    label.add_argument("--input", help="raw tweet NDJSON")
    label.add_argument("--output", help="labeled NDJSON to write")
    label.add_argument(
        "--strict",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="abort on the first malformed or unresolvable record",
    )
    _add_config_flag(label)
    _add_geocoder_flags(label)
    label.set_defaults(handler=cmd_label)

    train_p = commands.add_parser("train", help="fit a model on labeled records")
    train_p.add_argument("--input", help="labeled NDJSON")
    train_p.add_argument("--model", help="model JSON to write")
    _add_config_flag(train_p)
    _add_geocoder_flags(train_p)
    _add_feature_flags(train_p)
    train_p.set_defaults(handler=cmd_train)

    classify_p = commands.add_parser("classify", help="predict countries for raw tweets")
    classify_p.add_argument("--input", help="raw tweet NDJSON")
    classify_p.add_argument("--output", help="predictions NDJSON to write")
    classify_p.add_argument("--model", help="model JSON to read")
    classify_p.add_argument("--top", type=integer, help="ranked candidates per tweet (default: 3)")
    classify_p.add_argument(
        "--strict",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="abort on the first malformed record",
    )
    _add_uniform_priors_flag(classify_p)
    _add_config_flag(classify_p)
    _add_geocoder_flags(classify_p)
    # Kinds and alpha come from the model, so classify takes neither flag.
    _add_case_fold_flag(
        classify_p,
        default="the setting recorded in the model; if it records none, the config file's, else on",
    )
    classify_p.set_defaults(handler=cmd_classify)

    evaluate_p = commands.add_parser("evaluate", help="seeded k-fold cross-validation")
    evaluate_p.add_argument("--input", help="labeled NDJSON")
    _add_config_flag(evaluate_p)
    _add_geocoder_flags(evaluate_p)
    _add_feature_flags(evaluate_p)
    _add_eval_flags(evaluate_p)
    evaluate_p.set_defaults(handler=cmd_evaluate)

    ablate_p = commands.add_parser("ablate", help="cross-validate a grid of feature subsets")
    ablate_p.add_argument("--input", help="labeled NDJSON")
    ablate_p.add_argument("--preset", help="named subset grid (table1)")
    ablate_p.add_argument(
        "--subsets",
        help="semicolon-separated kind sets, e.g. 'location;location+timezone'",
    )
    _add_config_flag(ablate_p)
    _add_geocoder_flags(ablate_p)
    _add_feature_flags(ablate_p)
    _add_eval_flags(ablate_p)
    ablate_p.set_defaults(handler=cmd_ablate)

    report_p = commands.add_parser("report", help="per-country accuracy table")
    report_p.add_argument("--input", help="labeled NDJSON used for training")
    report_p.add_argument(
        "--eval-input",
        dest="eval_input",
        help="labeled NDJSON to score (default: score the training file)",
    )
    report_p.add_argument(
        "--kind-sets",
        dest="kind_sets",
        help="semicolon-separated kind sets, one accuracy column each",
    )
    report_p.add_argument("--min-count", dest="min_count", type=integer, help="row cutoff (default: 15)")
    report_p.add_argument("--region-file", dest="region_file", help="region codes file (default: bundled Europe)")
    report_p.add_argument("--region-name", dest="region_name", help="label for the region row")
    _add_config_flag(report_p)
    _add_geocoder_flags(report_p)
    _add_feature_flags(report_p)
    _add_uniform_priors_flag(report_p)
    _add_report_flags(report_p)
    report_p.set_defaults(handler=cmd_report)

    cache_p = commands.add_parser("cache", help="inspect or compact a geocode cache")
    cache_actions = cache_p.add_subparsers(dest="cache_action", required=True)
    for action, handler in (("stats", cmd_cache_stats), ("compact", cmd_cache_compact)):
        action_p = cache_actions.add_parser(action)
        action_p.add_argument("--cache", help="cache TSV file")
        _add_config_flag(action_p)
        # Replaces the "cache" the parent parser stored, so the summary names the action.
        action_p.set_defaults(handler=handler, command=f"cache {action}")

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one CLI invocation; returns the exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        cfg.case_fold_given = getattr(args, "case_fold", None)
        summary = {
            **args.handler(cfg),
            "command": args.command,
            "config": cfg.echo,
            "config_sha256": cfg.digest,
        }
        print(json.dumps(summary, ensure_ascii=False, sort_keys=True, indent=2))
        return EXIT_OK
    except TweetCountryError as exc:
        print(f"{exc.prefix}: {exc}", file=sys.stderr)
        return exc.exit_code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main_script() -> None:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    sys.exit(main())
