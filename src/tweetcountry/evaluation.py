"""Evaluation protocol: exact accuracy, seeded folds, ablation, country reports.

Accuracy is kept as an exact rational and only converted to float at the
edges. Fold assignment is a pure function of (n, k, seed), so every subset in
an ablation grid sees identical folds. Each fold trains one model over the
union of the subsets' kinds and scores every subset against it, with the eval
vectors restricted to that subset: the predictions of a model trained on the
subset alone, for one training per fold. Reports echo the resolved run
configuration and its SHA-256 so artifacts are reproducible byte for byte.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

from .atomic import write_json_atomic, write_text_atomic
from .bayes import NaiveBayesModel, classify, train
from .errors import (
    EmptyEvaluationSet,
    InvalidFoldCount,
    MalformedInput,
)
from .features import (
    ALL_KINDS,
    FeatureKind,
    FeatureVector,
    extract_features,
    kinds_label,
    ordered_kinds,
    parse_kinds_label,  # noqa: F401
)
# kinds_label, parse_kinds_label, config_digest, FOLD_ORIENTATIONS and
# DEFAULT_MIN_COUNT live in modules every command loads, so parsing and
# resolving a config never loads this one; they stay importable from here.
from .tweet_model import (
    DEFAULT_MIN_COUNT,
    FOLD_ORIENTATIONS,
    OTHER_LABEL,
    TweetRecord,
    ValueClass,
    bundled_data,
    config_digest,
    decode_object,
    is_country_code,
    read_ndjson,
    record_from_dict,
    table_lines,
)

# statistics and fractions (with decimal) are imported where they are used:
# label, train and classify never need them.
if TYPE_CHECKING:
    from fractions import Fraction

LIMITED_INFORMATION = "LIMITED_INFORMATION"
BIG_CLASS = "BIG_CLASS"
OOV_ONLY = "OOV_ONLY"
# The vocabulary of a kind the model has none for.
_NO_VALUES: frozenset[str] = frozenset()

_K = FeatureKind

# Feature subset grid for the standard ablation run, in presentation order.
ABLATION_PRESETS: dict[str, tuple[tuple[FeatureKind, ...], ...]] = {
    "table1": (
        (_K.LOCATION,),
        (_K.TIMEZONE,),
        (_K.TWEET_LANGUAGE,),
        (_K.GEOPARSED,),
        (_K.UTC_OFFSET,),
        (_K.USER_LANGUAGE,),
        (_K.LOCATION, _K.GEOPARSED),
        (_K.LOCATION, _K.TIMEZONE),
        (_K.LOCATION, _K.TIMEZONE, _K.TWEET_LANGUAGE),
        (_K.TIMEZONE, _K.GEOPARSED),
        (_K.TWEET_LANGUAGE, _K.GEOPARSED),
        (_K.LOCATION, _K.TIMEZONE, _K.TWEET_LANGUAGE, _K.GEOPARSED),
        (_K.LOCATION, _K.TIMEZONE, _K.GEOPARSED),
        ALL_KINDS,
    ),
}

# Kind sets behind the per-country report's accuracy columns.
REPORT_KIND_SETS: tuple[tuple[FeatureKind, ...], ...] = (
    (_K.LOCATION, _K.TIMEZONE, _K.GEOPARSED),
    (_K.LOCATION, _K.TIMEZONE, _K.TWEET_LANGUAGE),
    (_K.LOCATION, _K.TIMEZONE, _K.TWEET_LANGUAGE, _K.GEOPARSED),
)


def fraction_json(value: Fraction) -> dict:
    return {
        "fraction": f"{value.numerator}/{value.denominator}",
        "value": float(value),
    }


class LabeledDataset(ValueClass):
    """Tweets paired with ground-truth countries, plus a source tag for echoes."""

    _fields = ("examples", "source")

    def __init__(self, examples: list[tuple[TweetRecord, str]], source: str = "") -> None:
        for _, label in examples:
            if not is_country_code(label):
                raise ValueError(f"invalid country label {label!r}")
        self.examples = examples
        self.source = source

    def __len__(self) -> int:
        return len(self.examples)

    def labels(self) -> list[str]:
        return [label for _, label in self.examples]

    def vectors(
        self, geoparser, kinds: Iterable[FeatureKind], case_fold: bool
    ) -> list[FeatureVector]:
        """The feature vector of every example, in order."""
        return [
            extract_features(tweet, geoparser, kinds, case_fold=case_fold)
            for tweet, _ in self.examples
        ]


def _labeled_example(line: str) -> tuple[TweetRecord, str]:
    obj = decode_object(line)
    label = obj.get("country")
    if not is_country_code(label):
        raise MalformedInput("missing or invalid country label")
    return record_from_dict(obj), label


def labeled_examples(path: str | Path) -> Iterator[tuple[TweetRecord, str]]:
    """Yield (record, label) for each line of a labeled NDJSON file: flattened
    record fields plus "country".

    Lines are read by ``read_ndjson``. The first bad line, bytes that are
    not UTF-8 included, raises MalformedInput, prefixed with path:lineno.
    """
    for lineno, example, error in read_ndjson(path, _labeled_example):
        if error is not None:
            raise MalformedInput(f"{Path(path)}:{lineno}: {error}") from None
        yield example


def load_labeled_ndjson(path: str | Path) -> LabeledDataset:
    """Read a whole labeled NDJSON file (``labeled_examples``)."""
    return LabeledDataset(list(labeled_examples(path)), source=str(Path(path)))


def accuracy(predictions: Iterable[tuple[str, str]]) -> Fraction:
    """Exact fraction of (predicted, true) pairs that match."""
    from fractions import Fraction

    pairs = list(predictions)
    if not pairs:
        raise EmptyEvaluationSet("no predictions to score")
    correct = sum(1 for predicted, true in pairs if predicted == true)
    return Fraction(correct, len(pairs))


class FoldAssignment(NamedTuple):
    """Deterministic example-to-fold map for one (n, k, seed) triple."""

    n: int
    k: int
    seed: int
    folds: tuple[int, ...]

    def indices_in(self, fold: int) -> list[int]:
        return [i for i in range(self.n) if self.folds[i] == fold]

    def sizes(self) -> list[int]:
        sizes = [0] * self.k
        for fold in self.folds:
            sizes[fold] += 1
        return sizes


def kfold_split(n: int, k: int, seed: int) -> FoldAssignment:
    """Shuffle indices with the seed, deal them round-robin into k folds.

    Fold sizes differ by at most one. The same triple always produces the
    same assignment.
    """
    import random

    if not 2 <= k <= n:
        raise InvalidFoldCount(f"need 2 <= k <= {n}, got k={k}")
    order = list(range(n))
    random.Random(seed).shuffle(order)
    folds = [0] * n
    for position, index in enumerate(order):
        folds[index] = position % k
    return FoldAssignment(n=n, k=k, seed=seed, folds=tuple(folds))


class EvaluationReport(NamedTuple):
    """Cross-validation outcome: pooled accuracy, per-fold accuracies, confusion."""

    kinds: tuple[FeatureKind, ...]
    pooled_accuracy: Fraction
    mean_fold_accuracy: Fraction
    fold_accuracies: tuple[Fraction, ...]
    fold_sizes: tuple[int, ...]
    confusion: dict[str, dict[str, int]]
    n_evaluated: int
    config: dict

    @property
    def config_sha256(self) -> str:
        return config_digest(self.config)

    def to_json_dict(self) -> dict:
        return {
            "kinds": [kind.value for kind in self.kinds],
            "n_evaluated": self.n_evaluated,
            "accuracy_pooled": fraction_json(self.pooled_accuracy),
            "accuracy_mean_of_folds": fraction_json(self.mean_fold_accuracy),
            "folds": [
                {
                    "fold": index,
                    "size": self.fold_sizes[index],
                    "accuracy": fraction_json(value),
                }
                for index, value in enumerate(self.fold_accuracies)
            ],
            "confusion": {
                true: dict(sorted(row.items()))
                for true, row in sorted(self.confusion.items())
            },
            "config": self.config,
            "config_sha256": self.config_sha256,
        }


def _predict_subsets(
    train_vectors: Sequence[FeatureVector],
    train_labels: Sequence[str],
    eval_vectors: Sequence[FeatureVector],
    subsets: Sequence[tuple[FeatureKind, ...]],
    alpha: float,
    uniform_priors: bool,
) -> list[list[str]]:
    """Train once over the union of the subsets, then predict a country for
    each eval vector scored on each subset's kinds, one list per subset.

    The only place in this module that trains and classifies: folds,
    ablation rows, report columns and the region row all go through it.
    A kind's counts, vocabulary and denominators do not depend on which
    other kinds are enabled, and scoring adds the terms of the kinds it
    reads in enabled-kind order. So a vector scored on a subset's kinds gets
    the same scores, bit for bit, as from a model trained on the subset alone.
    """
    union = ordered_kinds(kind for subset in subsets for kind in subset)
    model = train(zip(train_vectors, train_labels), alpha=alpha, enabled_kinds=union)
    return [
        [
            classify(model, vector, uniform_priors=uniform_priors, kinds=subset)
            for vector in eval_vectors
        ]
        for subset in subsets
    ]


def cross_validate(
    data: LabeledDataset,
    k: int,
    kinds: Iterable[FeatureKind] = ALL_KINDS,
    alpha: float = 1.0,
    seed: int = 0,
    geoparser=None,
    *,
    orientation: str = "standard",
    uniform_priors: bool = False,
    case_fold: bool = True,
    config: dict | None = None,
) -> EvaluationReport:
    """Seeded k-fold cross-validation over one feature subset.

    "standard" orientation trains on k-1 folds and tests on the held-out
    fold; "inverted" trains on a single fold and tests on the other k-1.
    The result equals the single row of an ablation over [kinds].
    """
    return ablate(
        data,
        [kinds],
        k,
        alpha,
        seed,
        geoparser,
        orientation=orientation,
        uniform_priors=uniform_priors,
        case_fold=case_fold,
        config=config,
    )[0].report


class AblationRow(NamedTuple):
    kinds: tuple[FeatureKind, ...]
    report: EvaluationReport

    @property
    def label(self) -> str:
        return kinds_label(self.kinds)


def ablate(
    data: LabeledDataset,
    subsets: Iterable[Iterable[FeatureKind]],
    k: int,
    alpha: float = 1.0,
    seed: int = 0,
    geoparser=None,
    *,
    orientation: str = "standard",
    uniform_priors: bool = False,
    case_fold: bool = True,
    config: dict | None = None,
) -> list[AblationRow]:
    """Cross-validate every feature subset against identical folds.

    Features are extracted once for the union of all subsets. Each fold
    trains one model over that union, and every subset is scored against it
    on the subset's kinds alone: the same predictions as training on the
    subset alone, for one training per fold.
    """
    from fractions import Fraction

    subset_list = [ordered_kinds(subset) for subset in subsets]
    if not subset_list:
        raise ValueError("no feature subsets given")
    if orientation not in FOLD_ORIENTATIONS:
        raise ValueError(f"unknown fold orientation {orientation!r}")
    if not data.examples:
        raise EmptyEvaluationSet("dataset has no examples")
    labels = data.labels()
    if len(set(labels)) < 2:
        raise ValueError("cross-validation needs at least two distinct countries")
    union = ordered_kinds(kind for subset in subset_list for kind in subset)
    assignment = kfold_split(len(labels), k, seed)
    vectors = data.vectors(geoparser, union, case_fold)
    # fold_pairs[s][f]: (predicted, true) pairs of subset s on fold f
    fold_pairs: list[list[list[tuple[str, str]]]] = [[] for _ in subset_list]
    for fold in range(k):
        in_fold = assignment.indices_in(fold)
        rest = [i for i in range(assignment.n) if assignment.folds[i] != fold]
        train_indices, test_indices = (rest, in_fold) if orientation == "standard" else (in_fold, rest)
        predictions = _predict_subsets(
            [vectors[i] for i in train_indices],
            [labels[i] for i in train_indices],
            [vectors[i] for i in test_indices],
            subset_list,
            alpha,
            uniform_priors,
        )
        truths = [labels[i] for i in test_indices]
        for pairs, subset_predictions in zip(fold_pairs, predictions):
            pairs.append(list(zip(subset_predictions, truths)))

    rows: list[AblationRow] = []
    for subset, per_fold in zip(subset_list, fold_pairs):
        fold_accuracies = [accuracy(pairs) for pairs in per_fold]
        pooled = [pair for pairs in per_fold for pair in pairs]
        confusion: dict[str, dict[str, int]] = {}
        for predicted, true in pooled:
            row = confusion.setdefault(true, {})
            row[predicted] = row.get(predicted, 0) + 1
        echo = {
            "kinds": [kind.value for kind in subset],
            "alpha": alpha,
            "k": k,
            "seed": seed,
            "fold_orientation": orientation,
            "uniform_priors": uniform_priors,
            "case_fold": case_fold,
            "dataset_source": data.source,
        }
        if config:
            echo.update(config)
        report = EvaluationReport(
            kinds=subset,
            pooled_accuracy=accuracy(pooled),
            mean_fold_accuracy=sum(fold_accuracies, Fraction(0)) / len(fold_accuracies),
            fold_accuracies=tuple(fold_accuracies),
            fold_sizes=tuple(len(pairs) for pairs in per_fold),
            confusion=confusion,
            n_evaluated=len(pooled),
            config=echo,
        )
        rows.append(AblationRow(kinds=subset, report=report))
    return rows


def summary_average(values: Sequence[float]) -> float:
    """Unweighted mean, as used by the report summary row."""
    import statistics

    return statistics.mean(values)


def summary_population_stddev(values: Sequence[float]) -> float:
    """Population standard deviation (divide by N), as used by the summary row."""
    import statistics

    return statistics.pstdev(values)


def collapse_region(labels: Iterable[str], region: Iterable[str]) -> list[str]:
    """Map labels outside the kept region to the collapse label.

    Idempotent: the collapse label itself stays collapsed.
    """
    kept = set(region)
    if not kept:
        raise ValueError("region must be non-empty")
    return [label if label in kept else OTHER_LABEL for label in labels]


def _parse_region(source: bytes | Iterable[str], provenance: str) -> frozenset[str]:
    """Parse a line table (``table_lines``) of one alpha-2 code per line."""
    codes: set[str] = set()
    for where, raw in table_lines(source, provenance):
        line = raw.strip()
        if not is_country_code(line):
            raise ValueError(f"{where}: invalid country code {line!r}")
        if line == OTHER_LABEL:
            raise ValueError(f"{where}: region must not contain the collapse label")
        codes.add(line)
    if not codes:
        raise ValueError(f"{provenance}: region file has no codes")
    return frozenset(codes)


def load_region(path: str | Path) -> frozenset[str]:
    """Read a region file: one alpha-2 code per line, # comments allowed."""
    return _parse_region(Path(path).read_bytes(), str(path))


def default_region() -> frozenset[str]:
    """The bundled Europe region."""
    return _parse_region(bundled_data("europe.txt"), "bundled:europe.txt")


class CountryRow(NamedTuple):
    country: str
    n: int
    accuracies: tuple[Fraction, ...]


class PerCountryReport(ValueClass):
    """Accuracy per country for several feature sets, with summary rows.

    Countries with fewer than min_count evaluation tweets are omitted from
    the rows and from the summary statistics. The region row comes from one
    more training, with every label outside the region collapsed.
    """

    _fields = (
        "kind_sets", "rows", "average", "stddev", "region_name", "region_accuracies",
        "region_n", "min_count", "omitted_countries", "mode", "config",
    )

    def __init__(
        self,
        kind_sets: tuple[tuple[FeatureKind, ...], ...],
        rows: tuple[CountryRow, ...],
        average: tuple[float, ...],
        stddev: tuple[float, ...],
        region_name: str,
        region_accuracies: tuple[Fraction, ...],
        region_n: int,
        min_count: int,
        omitted_countries: int,
        mode: str,
        config: dict | None = None,
    ) -> None:
        self.kind_sets = kind_sets
        self.rows = rows
        self.average = average
        self.stddev = stddev
        self.region_name = region_name
        self.region_accuracies = region_accuracies
        self.region_n = region_n
        self.min_count = min_count
        self.omitted_countries = omitted_countries
        self.mode = mode
        self.config = {} if config is None else config

    @property
    def config_sha256(self) -> str:
        return config_digest(self.config)

    def column_labels(self) -> list[str]:
        return [kinds_label(kinds) for kinds in self.kind_sets]

    def to_json_dict(self) -> dict:
        return {
            "kind_sets": self.column_labels(),
            "min_count": self.min_count,
            "mode": self.mode,
            "omitted_countries": self.omitted_countries,
            "rows": [
                {
                    "country": row.country,
                    "n": row.n,
                    "accuracies": [fraction_json(value) for value in row.accuracies],
                }
                for row in self.rows
            ],
            "average_percent": list(self.average),
            "stddev_percent": list(self.stddev),
            "region": {
                "name": self.region_name,
                "n": self.region_n,
                "accuracies": [fraction_json(value) for value in self.region_accuracies],
            },
            "config": self.config,
            "config_sha256": self.config_sha256,
        }


def per_country_report(
    train_data: LabeledDataset,
    eval_data: LabeledDataset | None = None,
    kind_sets: Iterable[Iterable[FeatureKind]] = REPORT_KIND_SETS,
    min_count: int = DEFAULT_MIN_COUNT,
    alpha: float = 1.0,
    geoparser=None,
    region: Iterable[str] | None = None,
    region_name: str = "Europe",
    *,
    uniform_priors: bool = False,
    case_fold: bool = True,
    config: dict | None = None,
) -> PerCountryReport:
    """Accuracy broken down by true country, one column per feature set.

    With no separate eval_data the model is scored on its own training set
    (mode "same-set"); otherwise mode is "held-out". Rows are sorted by
    descending tweet count, then by country code. The summary rows are the
    unweighted mean and the population standard deviation of the row
    percentages. The region row collapses labels outside the region on both
    sides of the pipeline and reports overall accuracy per feature set.
    One model over the union of the feature sets serves every column, and
    one more, trained on the collapsed labels, serves the region row.
    """
    from fractions import Fraction

    sets = [ordered_kinds(kinds) for kinds in kind_sets]
    if not sets:
        raise ValueError("no feature kind sets given")
    mode = "same-set" if eval_data is None or eval_data is train_data else "held-out"
    if eval_data is None:
        eval_data = train_data
    if not train_data.examples:
        raise EmptyEvaluationSet("training dataset has no examples")
    if not eval_data.examples:
        raise EmptyEvaluationSet("evaluation dataset has no examples")
    if min_count < 1:
        raise ValueError("min_count must be at least 1")
    region_set = frozenset(region) if region is not None else default_region()

    union = ordered_kinds(kind for kinds in sets for kind in kinds)
    train_vectors = train_data.vectors(geoparser, union, case_fold)
    train_labels = train_data.labels()
    if eval_data is train_data:
        eval_vectors: Sequence[FeatureVector] = train_vectors
    else:
        eval_vectors = eval_data.vectors(geoparser, union, case_fold)
    eval_labels = eval_data.labels()

    per_set_predictions = _predict_subsets(
        train_vectors, train_labels, eval_vectors, sets, alpha, uniform_priors
    )
    collapsed_train = collapse_region(train_labels, region_set)
    collapsed_eval = collapse_region(eval_labels, region_set)
    region_predictions = _predict_subsets(
        train_vectors, collapsed_train, eval_vectors, sets, alpha, uniform_priors
    )
    region_accuracies = [
        accuracy(list(zip(predictions, collapsed_eval))) for predictions in region_predictions
    ]

    counts = Counter(eval_labels)
    qualifying = [country for country, n in counts.items() if n >= min_count]
    qualifying.sort(key=lambda country: (-counts[country], country))
    # Per kind set, the correct predictions of each true country, in one pass.
    hits = [
        Counter(truth for predicted, truth in zip(predictions, eval_labels) if predicted == truth)
        for predictions in per_set_predictions
    ]
    rows: list[CountryRow] = []
    for country in qualifying:
        n = counts[country]
        rows.append(CountryRow(country, n, tuple(Fraction(column[country], n) for column in hits)))

    percent_columns = [
        [float(row.accuracies[column]) * 100.0 for row in rows]
        for column in range(len(sets))
    ]
    average = tuple(summary_average(column) if column else 0.0 for column in percent_columns)
    stddev = tuple(summary_population_stddev(column) if column else 0.0 for column in percent_columns)

    echo = {
        "kind_sets": [kinds_label(kinds) for kinds in sets],
        "alpha": alpha,
        "min_count": min_count,
        "region_name": region_name,
        "region": sorted(region_set),
        "uniform_priors": uniform_priors,
        "case_fold": case_fold,
        "mode": mode,
        "train_source": train_data.source,
        "eval_source": eval_data.source,
    }
    if config:
        echo.update(config)

    return PerCountryReport(
        kind_sets=tuple(sets),
        rows=tuple(rows),
        average=average,
        stddev=stddev,
        region_name=region_name,
        region_accuracies=tuple(region_accuracies),
        region_n=len(eval_labels),
        min_count=min_count,
        omitted_countries=len(counts) - len(qualifying),
        mode=mode,
        config=echo,
    )


def majority_class(model: NaiveBayesModel, kind: FeatureKind, value: str) -> str | None:
    """The class with the highest count for one value; ties pick the smaller code.

    None when no class has counted the value or the model does not enable the kind.
    """
    return model.compiled.majority(kind, value)


def diagnostic_tags(
    model: NaiveBayesModel, vector: FeatureVector, predicted: str
) -> set[str]:
    """Why a prediction may be off, independent of the true label."""
    tags: set[str] = set()
    if len(vector) <= 1:
        tags.add(LIMITED_INFORMATION)
    vocabulary = model.vocabulary
    in_vocab = [
        (kind, value)
        for kind, value in vector.items()
        if value in vocabulary.get(kind, _NO_VALUES)
    ]
    if not in_vocab:
        if vector:
            tags.add(OOV_ONLY)
        return tags
    for kind, value in in_vocab:
        if majority_class(model, kind, value) != predicted:
            return tags
    tags.add(BIG_CLASS)
    return tags


def write_evaluation_json(report: EvaluationReport, path: str | Path) -> None:
    write_json_atomic(path, report.to_json_dict())


def write_evaluation_csv(report: EvaluationReport, path: str | Path) -> None:
    """Rows: one per fold, then pooled and mean-of-folds. Floats use repr."""
    lines = [f"# config_sha256={report.config_sha256}"]
    lines.append("row,correct,total,accuracy")
    for index, value in enumerate(report.fold_accuracies):
        correct = value.numerator * (report.fold_sizes[index] // value.denominator)
        lines.append(f"fold_{index},{correct},{report.fold_sizes[index]},{float(value)!r}")
    pooled = report.pooled_accuracy
    correct_total = pooled.numerator * (report.n_evaluated // pooled.denominator)
    lines.append(f"pooled,{correct_total},{report.n_evaluated},{float(pooled)!r}")
    lines.append(f"mean_of_folds,,,{float(report.mean_fold_accuracy)!r}")
    write_text_atomic(path, "\n".join(lines) + "\n")


def write_ablation_json(rows: Sequence[AblationRow], path: str | Path) -> None:
    document = {
        "subsets": [
            {
                "kinds": [kind.value for kind in row.kinds],
                "label": row.label,
                "accuracy_pooled": fraction_json(row.report.pooled_accuracy),
                "accuracy_mean_of_folds": fraction_json(row.report.mean_fold_accuracy),
                "n_evaluated": row.report.n_evaluated,
            }
            for row in rows
        ],
        "config": rows[0].report.config if rows else {},
        "config_sha256": rows[0].report.config_sha256 if rows else "",
    }
    write_json_atomic(path, document)


def write_ablation_csv(rows: Sequence[AblationRow], path: str | Path) -> None:
    """One row per subset: an x per enabled kind, then both accuracies."""
    header = [kind.value for kind in FeatureKind]
    lines = []
    if rows:
        lines.append(f"# config_sha256={rows[0].report.config_sha256}")
    lines.append(",".join(header + ["accuracy_pooled", "accuracy_mean_of_folds"]))
    for row in rows:
        flags = ["x" if kind in row.kinds else "" for kind in FeatureKind]
        lines.append(
            ",".join(
                flags
                + [
                    repr(float(row.report.pooled_accuracy)),
                    repr(float(row.report.mean_fold_accuracy)),
                ]
            )
        )
    write_text_atomic(path, "\n".join(lines) + "\n")


def _percent(value: Fraction) -> str:
    return f"{float(value) * 100.0:.2f}"


def write_per_country_json(report: PerCountryReport, path: str | Path) -> None:
    write_json_atomic(path, report.to_json_dict())


def _csv_cell(text: str) -> str:
    """text as one RFC 4180 cell: in double quotes, each inner quote doubled,
    when it holds a comma, quote or line break."""
    if any(char in text for char in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_per_country_csv(report: PerCountryReport, path: str | Path) -> None:
    """Country rows sorted by size, then Average, Standard deviation, region.

    Accuracy cells are percentages with two decimals; summary cells are
    computed from the exact values before rounding. The region name is the
    only free-text cell, so it is the only one quoted.
    """
    lines = [f"# config_sha256={report.config_sha256}"]
    lines.append(",".join(["country", "n"] + report.column_labels()))
    for row in report.rows:
        lines.append(
            ",".join([row.country, str(row.n)] + [_percent(value) for value in row.accuracies])
        )
    lines.append(",".join(["Average", ""] + [f"{value:.2f}" for value in report.average]))
    lines.append(
        ",".join(["Standard deviation", ""] + [f"{value:.2f}" for value in report.stddev])
    )
    lines.append(
        ",".join(
            [_csv_cell(report.region_name), str(report.region_n)]
            + [_percent(value) for value in report.region_accuracies]
        )
    )
    write_text_atomic(path, "\n".join(lines) + "\n")
