"""Command line interface.

Subcommands: label, train, classify, evaluate, ablate, report, cache.
Options resolve in three layers: built-in defaults, then a config file of
``key = value`` lines, then command line flags. Every artifact embeds the
resolved configuration (or its SHA-256) so runs can be reproduced exactly.

Exit codes: 0 success, 2 input or configuration problem, 3 model problem,
4 geocoding problem, 141 the reader of stdout left before the command ended.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import ExitStack
from pathlib import Path
from typing import Any, Callable, Iterator

from . import errors
from .atomic import open_atomic, target
# The exit codes are re-exported here, where callers of main look for them.
from .errors import EXIT_GEOCODER, EXIT_INPUT, EXIT_MODEL  # noqa: F401
from .errors import MalformedInput, ResolverFailure, TweetCountryError
from .features import ALL_KINDS, FeatureKind, extract_features, kinds_label, parse_kinds_label
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
    DEFAULT_MIN_COUNT,
    FOLD_ORIENTATIONS,
    TweetRecord,
    config_digest,
    integer,
    label_of,
    labeled_line,
    number,
    parse_tweet,
    prediction_line,
    read_ndjson,
    table_lines,
)

# bayes and evaluation are imported by the handlers that use them, so label,
# the cache actions and --help never load them. A handler looks each name up
# when it runs, so it calls whatever the module holds then (a tracer's span).

EXIT_OK = 0
EXIT_CLOSED_PIPE = 141  # 128 + SIGPIPE: what a shell reports for a command a closed pipe ended

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


# Config file keys: the parser of file values, which the key's flag takes too
# if it takes a value; the built-in default; and the flag's help text, unless
# the command's row in COMMANDS gives its own.
CONFIG_FIELDS: dict[str, tuple[Callable[[str], Any], Any, str]] = {
    "input": (str, None, "labeled NDJSON"),
    "output": (str, None, "labeled NDJSON to write"),
    "model": (str, None, "model JSON to write"),
    "eval_input": (str, None, "labeled NDJSON to score (default: score the training file)"),
    "report_json": (str, None, "write the JSON report here"),
    "report_csv": (str, None, "write the CSV report here"),
    "kinds": (str, _ALL_KINDS_LABEL, "feature kinds to use, e.g. location+timezone (default: all six)"),
    "alpha": (number, 1.0, "smoothing strength (default: 1.0)"),
    "k": (integer, 10, "fold count (default: 10)"),
    "seed": (integer, 0, "fold shuffle seed (default: 0)"),
    "fold_orientation": (str, "standard", "train on k-1 folds (standard) or on 1 fold (inverted)"),
    "uniform_priors": (_parse_bool, False, "score with equal class priors (default: off)"),
    "case_fold": (_parse_bool, True, "case-fold location and timezone values (default: on)"),
    "strict": (_parse_bool, False, "abort on the first malformed or unresolvable record"),
    "min_count": (integer, DEFAULT_MIN_COUNT, "row cutoff (default: 15)"),
    "region_file": (str, None, "region codes file (default: bundled Europe)"),
    "region_name": (str, "Europe", "label for the region row"),
    "preset": (str, None, "named subset grid (table1)"),
    "subsets": (str, None, "semicolon-separated kind sets, e.g. 'location;location+timezone'"),
    "kind_sets": (str, None, "semicolon-separated kind sets, one accuracy column each"),
    "top": (integer, 3, "ranked candidates per tweet (default: 3)"),
    "gazetteer": (str, None, "gazetteer TSV (default: bundled)"),
    "reverse_points": (str, None, "reverse lookup points TSV (default: bundled)"),
    "cache": (str, None, "persistent geocode cache TSV (default: in-memory)"),
    "remote_backend": (str, "none", "registered remote geocoder name (default: none)"),
    "max_in_flight": (integer, 1, "max concurrent remote lookups (default: 1)"),
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


# The file options a command reads, when its row in COMMANDS takes them and it does not write them.
_READ = ("input", "eval_input", "model", "gazetteer", "reverse_points", "region_file", "config")


class Run:
    """One command's run: each option as an attribute named by its CONFIG_FIELDS key, the
    resolved mapping that artifacts echo (echo) with its digest as their id, the exit stack
    that closes what the command opened, the atomic.target of each file it writes (targets,
    keyed by option) and its record counts (counts)."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.config = getattr(args, "config", None)  # a file read, kept out of the echo
        file_values = parse_config_file(self.config) if self.config else {}
        defaults = {name: default for name, (_, default, _) in CONFIG_FIELDS.items()}
        flags = {name: getattr(args, name) for name in CONFIG_FIELDS if getattr(args, name, None) is not None}
        resolved = {**defaults, **file_values, **flags}  # flags beat the config file, which beats defaults
        if resolved["fold_orientation"] not in FOLD_ORIENTATIONS:
            raise ValueError(
                f"fold_orientation must be {' or '.join(FOLD_ORIENTATIONS)}, got {resolved['fold_orientation']!r}"
            )
        # train and Geocoder check alpha and max_in_flight too; here they fail before any input is read.
        for name in ("top", "max_in_flight"):
            if resolved[name] < 1:
                raise ValueError(f"{name} must be at least 1")
        if not 0 <= resolved["alpha"] <= sys.float_info.max:
            raise ValueError(f"alpha must be a finite non-negative number, got {resolved['alpha']!r}")
        resolved["kinds"] = kinds_label(parse_kinds_label(resolved["kinds"].replace(",", "+")))
        vars(self).update(resolved)
        self.echo = resolved
        self.digest = config_digest(resolved)
        self.keys = COMMANDS[args.command][2]
        self.case_fold_given = getattr(args, "case_fold", None)
        self.exit_stack = ExitStack()
        self.targets: dict[str, int | tuple[int, int] | str] = {}
        self.counts: dict[str, int] = {}

    def set(self, name: str, value: Any) -> None:
        """Give option name value, in the echo and its digest too."""
        setattr(self, name, value)
        self.echo[name] = value
        self.digest = config_digest(self.echo)

    def require_paths(self, *names: str, outputs: tuple[str, ...] = ()) -> None:
        """Check, before any input is read, that each of names is given; that atomic.target
        accepts each file written (outputs and --cache), else its OSError, and keep its answer
        in targets; and that no file written names one file with any other file the command
        names, --config included, unless open_atomic writes it in place. An existing file is
        known by inode, so a hard link counts."""
        for name in names:
            if getattr(self, name) in (None, ""):
                raise ValueError(f"missing required option --{name.replace('_', '-')}")
        written = (*outputs, "cache")
        read = tuple(name for name in _READ if name in self.keys and name not in written)
        seen: dict[object, str] = {}
        for name in (*written, *read):
            path, flag, writes = getattr(self, name), "--" + name.replace("_", "-"), name in written
            if not path:
                continue
            if writes:
                key = self.targets[name] = target(path)
                if isinstance(key, int):  # written in place
                    continue
            else:  # a file read: its reader reports any error
                info = os.stat(path) if os.path.exists(path) else None
                key = (info.st_ino, info.st_dev) if info else os.path.realpath(path)
            if key in seen:
                raise ValueError(f"{seen[key]} and {flag} name the same file: {path!r}")
            if writes:
                seen[key] = flag


def build_geocoder(run: Run) -> Geocoder:
    """The geocoder the config describes. Its cache holds one append
    descriptor until the run's exit stack closes."""
    gazetteer = load_gazetteer(run.gazetteer) if run.gazetteer else default_gazetteer()
    # A given points file is parsed now, so a bad one fails every command alike;
    # the bundled index is built on the first reverse lookup, which only label makes.
    reverse_index = (
        load_reverse_points(run.reverse_points) if run.reverse_points else default_reverse_index
    )
    cache = run.exit_stack.enter_context(GeocodeCache(run.cache))
    remote = None
    if run.remote_backend and run.remote_backend != "none":
        factory = REMOTE_BACKENDS.get(run.remote_backend)
        if factory is None:
            known = ", ".join(sorted(REMOTE_BACKENDS)) or "none registered"
            raise ValueError(f"unknown remote backend {run.remote_backend!r} ({known})")
        remote = factory(dict(run.echo), os.environ.get(CREDENTIAL_ENV_VAR))
    return Geocoder(
        gazetteer=gazetteer,
        cache=cache,
        remote=remote,
        reverse_index=reverse_index,
        max_in_flight=run.max_in_flight,
    )


def _write_reports(run: Run, report, write_json, write_csv) -> dict:
    """Write each report given (Run.require_paths checked both) and return both paths."""
    for path, write in ((run.report_json, write_json), (run.report_csv, write_csv)):
        if path:
            write(report, path)
    return {"report_json": run.report_json, "report_csv": run.report_csv}


def _records(run: Run) -> Iterator[tuple[int, TweetRecord]]:
    """Yield (line number, record) for each well-formed line of --input.

    Lines are read by ``read_ndjson``; every non-blank one counts in
    run.counts["total"]. A malformed line counts in run.counts["malformed"],
    or with --strict raises MalformedInput prefixed with path:lineno.
    """
    for lineno, record, error in read_ndjson(run.input, parse_tweet):
        run.counts["total"] += 1
        if error is not None:
            if run.strict:
                raise MalformedInput(f"{run.input}:{lineno}: {error}") from None
            run.counts["malformed"] += 1
            continue
        yield lineno, record


def cmd_label(run: Run) -> dict:
    """Read raw tweets, write records whose country could be derived."""
    run.require_paths("input", "output", outputs=("output",))
    geocoder = build_geocoder(run)
    run.counts.update(total=0, labeled=0, skipped=0, malformed=0)
    with open_atomic(run.output) as sink:
        for lineno, record in _records(run):
            try:
                country = label_of(record, geocoder)
            except ResolverFailure as exc:
                if run.strict:
                    raise ResolverFailure(f"{run.input}:{lineno}: {exc}") from None
                run.counts["skipped"] += 1
                continue
            if country is None:
                run.counts["skipped"] += 1
                continue
            sink.write(labeled_line(record, country, run.digest))
            run.counts["labeled"] += 1
    return {**run.counts, "output": run.output}


def cmd_train(run: Run) -> dict:
    """Fit a model on a labeled NDJSON file and write it as JSON."""
    from .bayes import save_model, train
    # The reader stays in evaluation: a tracer patches that module, so train must load it.
    from .evaluation import labeled_examples

    run.require_paths("input", "model", outputs=("model",))
    geocoder = build_geocoder(run)
    kinds = parse_kinds_label(run.kinds)
    examples = (
        (extract_features(tweet, geocoder, kinds, case_fold=run.case_fold), label)
        for tweet, label in labeled_examples(run.input)
    )
    model = train(examples, alpha=run.alpha, enabled_kinds=kinds)
    save_model(model, run.model, config=run.echo)
    return {
        "model": run.model,
        "classes": len(model.class_count),
        "total_examples": model.total_examples,
        "vocabulary_sizes": model.vocabulary_sizes(),
    }


def cmd_classify(run: Run) -> dict:
    """Predict a country per input tweet; one output line per parsed tweet."""
    from .bayes import load_model, log_posterior
    from .evaluation import diagnostic_tags

    run.require_paths("input", "output", "model", outputs=("output",))
    model = load_model(run.model)
    trained_case_fold = (model.config or {}).get("case_fold")
    # Unless the flag was given explicitly, mirror how the model was trained,
    # and echo the setting applied.
    if run.case_fold_given is None and isinstance(trained_case_fold, bool):
        run.set("case_fold", trained_case_fold)
    geocoder = build_geocoder(run)
    run.counts.update(total=0, classified=0, malformed=0)
    with open_atomic(run.output) as sink:
        for _, record in _records(run):
            vector = extract_features(record, geocoder, model.enabled_kinds, case_fold=run.case_fold)
            ranked = log_posterior(model, vector, uniform_priors=run.uniform_priors, top=run.top)
            tags = sorted(diagnostic_tags(model, vector, ranked[0][0]))
            sink.write(prediction_line(record.id, ranked, tags, run.digest))
            run.counts["classified"] += 1
    return {**run.counts, "output": run.output}


def _labeled_input(run: Run) -> tuple[Any, dict[str, Any]]:
    """Check --input and the report targets, build the geocoder and load --input: the
    set-up of evaluate, ablate and report. Returns the data and the options all three pass on."""
    from .evaluation import load_labeled_ndjson

    run.require_paths("input", outputs=("report_json", "report_csv"))
    geocoder = build_geocoder(run)
    data = load_labeled_ndjson(run.input)
    return data, {
        "alpha": run.alpha,
        "geoparser": geocoder,
        "uniform_priors": run.uniform_priors,
        "case_fold": run.case_fold,
        "config": {"cli": run.echo},
    }


def cmd_evaluate(run: Run) -> dict:
    """Seeded k-fold cross-validation on a labeled NDJSON file."""
    from .evaluation import cross_validate, write_evaluation_csv, write_evaluation_json

    data, shared = _labeled_input(run)
    report = cross_validate(
        data,
        k=run.k,
        kinds=parse_kinds_label(run.kinds),
        seed=run.seed,
        orientation=run.fold_orientation,
        **shared,
    )
    return {
        **_write_reports(run, report, write_evaluation_json, write_evaluation_csv),
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


def _ablation_subsets(run: Run):
    from .evaluation import ABLATION_PRESETS

    if run.preset and run.subsets:
        raise ValueError("give either --preset or --subsets, not both")
    if run.subsets:
        return _parse_kind_sets(run.subsets)
    preset = run.preset or "table1"
    if preset not in ABLATION_PRESETS:
        known = ", ".join(sorted(ABLATION_PRESETS))
        raise ValueError(f"unknown preset {preset!r} (known: {known})")
    return list(ABLATION_PRESETS[preset])


def cmd_ablate(run: Run) -> dict:
    """Cross-validate a grid of feature subsets against identical folds."""
    from .evaluation import ablate, write_ablation_csv, write_ablation_json

    data, shared = _labeled_input(run)
    rows = ablate(
        data,
        subsets=_ablation_subsets(run),
        k=run.k,
        seed=run.seed,
        orientation=run.fold_orientation,
        **shared,
    )
    best = max(rows, key=lambda row: row.report.pooled_accuracy)
    return {
        **_write_reports(run, rows, write_ablation_json, write_ablation_csv),
        "subsets": {row.label: float(row.report.pooled_accuracy) for row in rows},
        "best_subset": best.label,
        "best_accuracy": float(best.report.pooled_accuracy),
    }


def cmd_report(run: Run) -> dict:
    """Per-country accuracy table with summary and region rows."""
    from .evaluation import (
        REPORT_KIND_SETS,
        load_labeled_ndjson,
        load_region,
        per_country_report,
        write_per_country_csv,
        write_per_country_json,
    )

    train_data, shared = _labeled_input(run)
    eval_data = load_labeled_ndjson(run.eval_input) if run.eval_input else None
    kind_sets = _parse_kind_sets(run.kind_sets) if run.kind_sets else list(REPORT_KIND_SETS)
    report = per_country_report(
        train_data,
        eval_data,
        kind_sets=kind_sets,
        min_count=run.min_count,
        region=load_region(run.region_file) if run.region_file else None,
        region_name=run.region_name,
        **shared,
    )
    return {
        **_write_reports(run, report, write_per_country_json, write_per_country_csv),
        "mode": report.mode,
        "countries": len(report.rows),
        "omitted_countries": report.omitted_countries,
        "average_percent": list(report.average),
        "stddev_percent": list(report.stddev),
        "region": report.region_name,
        "region_percent": [float(value) * 100.0 for value in report.region_accuracies],
    }


def cmd_cache_stats(run: Run) -> dict:
    """Count the entries of a persistent geocode cache file."""
    run.require_paths("cache")
    os.stat(run.cache)  # a missing file is an error, not an empty cache
    return GeocodeCache(run.cache).stats()


def cmd_cache_compact(run: Run) -> dict:
    """Rewrite a persistent geocode cache file sorted and deduplicated."""
    run.require_paths("cache")
    os.stat(run.cache)  # a missing file is an error, not one to create
    return {"path": run.cache, "entries": GeocodeCache(run.cache).compact()}


_GEOCODER = ("gazetteer", "reverse_points", "cache", "remote_backend", "max_in_flight")
_FEATURES = ("kinds", "alpha", "case_fold")
_EVALUATION = ("k", "seed", "fold_orientation", "uniform_priors", "report_json", "report_csv")
_CONFIG_HELP = "config file of key = value lines; flags win"

# Each (sub)command: the name of its handler in this module (None for a group
# of actions), help, option keys in --help order ("config" is --config), and
# the help texts it gives those options in place of CONFIG_FIELDS'. Kinds and
# alpha come from the model, so classify takes neither flag.
COMMANDS: dict[str, tuple[str | None, str | None, tuple[str, ...], dict[str, str]]] = {
    "label": (
        "cmd_label",
        "derive ground-truth countries from geo info",
        ("input", "output", "strict", "config", *_GEOCODER),
        {"input": "raw tweet NDJSON"},
    ),
    "train": (
        "cmd_train", "fit a model on labeled records", ("input", "model", "config", *_GEOCODER, *_FEATURES), {}
    ),
    "classify": (
        "cmd_classify",
        "predict countries for raw tweets",
        ("input", "output", "model", "top", "strict", "uniform_priors", "config", *_GEOCODER, "case_fold"),
        {
            "input": "raw tweet NDJSON",
            "output": "predictions NDJSON to write",
            "model": "model JSON to read",
            "strict": "abort on the first malformed record",
            "case_fold": "case-fold location and timezone values (default: the setting recorded in "
            "the model; if it records none, the config file's, else on)",
        },
    ),
    "evaluate": (
        "cmd_evaluate",
        "seeded k-fold cross-validation",
        ("input", "config", *_GEOCODER, *_FEATURES, *_EVALUATION),
        {},
    ),
    "ablate": (
        "cmd_ablate",
        "cross-validate a grid of feature subsets",
        ("input", "preset", "subsets", "config", *_GEOCODER, *_FEATURES, *_EVALUATION),
        {},
    ),
    "report": (
        "cmd_report",
        "per-country accuracy table",
        ("input", "eval_input", "kind_sets", "min_count", "region_file", "region_name", "config",
         *_GEOCODER, *_FEATURES, "uniform_priors", "report_json", "report_csv"),
        {"input": "labeled NDJSON used for training"},
    ),
    "cache": (None, "inspect or compact a geocode cache", (), {}),
    "cache stats": ("cmd_cache_stats", None, ("cache", "config"), {"cache": "cache TSV file"}),
    "cache compact": ("cmd_cache_compact", None, ("cache", "config"), {"cache": "cache TSV file"}),
}


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The parser of every (sub)command. Each one is created, so usage lines
    and errors name them all, but only the one that argv names (``cache
    <action>`` included) gets its flags; all do when argv names none.
    Abbreviated flags are rejected."""
    words = list(argv or ())[:2]
    chosen = " ".join(words if words[:1] == ["cache"] else words[:1])
    parser = argparse.ArgumentParser(
        prog="tweetcountry",
        description="Infer a tweet's home country from its metadata.",
        allow_abbrev=False,
    )
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for name, (handler, help_text, keys, helps) in COMMANDS.items():
        group, _, leaf = name.rpartition(" ")
        command = groups[group].add_parser(
            leaf, allow_abbrev=False, **({"help": help_text} if help_text else {})
        )
        if handler is None:
            groups[name] = command.add_subparsers(dest=f"{name}_action", required=True)
            continue
        # The handler is looked up now, not at import, so a wrapper set on
        # this module (a tracer's span) is the one called. For a group's
        # action, command replaces the group name the parent parser stored,
        # so the summary names the action.
        command.set_defaults(handler=globals()[handler], command=name)
        if chosen in COMMANDS and name != chosen:
            continue
        for key in keys:
            flag = "--" + key.replace("_", "-")
            if key == "config":
                command.add_argument(flag, help=_CONFIG_HELP)
                continue
            parse, _, shared_help = CONFIG_FIELDS[key]
            options: dict[str, Any] = {"help": helps.get(key, shared_help)}
            if parse is _parse_bool:
                options["action"] = argparse.BooleanOptionalAction
            elif parse is not str:
                options["type"] = parse
            if key == "fold_orientation":
                options["choices"] = FOLD_ORIENTATIONS
            command.add_argument(flag, **options)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one CLI invocation; returns the exit code."""
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    run = summary = None
    try:
        run = Run(args)
        # What the command holds open (the cache's append descriptor) is
        # closed here on every exit path, before the summary or error prints.
        with run.exit_stack:
            summary = {
                **args.handler(run),
                "command": args.command,
                "config": run.echo,
                "config_sha256": run.digest,
            }
        # Flushed here, so a reader that left is found now, not at the interpreter's exit.
        print(json.dumps(summary, ensure_ascii=False, sort_keys=True, indent=2), flush=True)
        return EXIT_OK
    except TweetCountryError as exc:
        print(f"{exc.prefix}: {exc}", file=sys.stderr)
        return exc.exit_code
    except (ValueError, OSError) as exc:
        # The reader of stdout left, during the summary or an output written
        # to descriptor 1: stop quietly. A broken pipe on any other output is an error.
        if isinstance(exc, BrokenPipeError) and run and (summary or 1 in run.targets.values()):
            return EXIT_CLOSED_PIPE
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main_script() -> None:
    # Applied by the first warning, so a run without one never imports logging.
    errors.warning_format = "%(levelname)s %(name)s: %(message)s"
    code = main()
    if code == EXIT_CLOSED_PIPE:
        # What print left buffered would fail again when the interpreter
        # flushes stdout at exit; the Python docs' "Note on SIGPIPE" sends it to /dev/null.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)
