"""Counting Naive Bayes over categorical feature vectors.

The model is nothing but per-class counts. A class score is the log prior
plus, for every enabled kind whose observed value is in that kind's training
vocabulary, log((count + alpha) / (kind_total + alpha * vocabulary_size)).
Out-of-vocabulary values are skipped for every class alike. With alpha 0 an
unseen pairing scores -inf; when every class is -inf, ranking falls back to
priors alone. Exact ties rank the lexicographically smallest country first.

Scoring reads the model's compiled form (``NaiveBayesModel.compiled``): the
prior row, and per (kind, value) a row of that log term over the classes in
code order, built the first time the value is scored. A tweet's scores are
the prior row plus its values' rows, added in enabled-kind order. That is the
order in which the formula adds its terms for each class, so the scores and
rankings are bitwise equal to evaluating the formula class by class.
"""

from __future__ import annotations

import json
import logging
import math
import operator
from array import array
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Any, Iterable

from .atomic import write_json_atomic
from .errors import CorruptModel, EmptyTrainingSet
from .features import ALL_KINDS, FeatureKind, FeatureVector, kind_from_name, ordered_kinds
from .tweet_model import is_country_code

log = logging.getLogger(__name__)

MODEL_SCHEMA_VERSION = 1


@dataclass
class NaiveBayesModel:
    """Count tables for one trained classifier. Treat as immutable once built."""

    alpha: float
    enabled_kinds: tuple[FeatureKind, ...]
    class_count: dict[str, int]
    value_count: dict[str, dict[FeatureKind, dict[str, int]]]
    kind_total: dict[str, dict[FeatureKind, int]]
    vocabulary: dict[FeatureKind, set[str]]

    @property
    def classes(self) -> list[str]:
        return sorted(self.class_count)

    @property
    def total_examples(self) -> int:
        return sum(self.class_count.values())

    def vocabulary_sizes(self) -> dict[str, int]:
        return {kind.value: len(values) for kind, values in self.vocabulary.items()}

    @cached_property
    def compiled(self) -> CompiledModel:
        """The scoring tables, built on first use and kept on the model.

        Not a field: it takes no part in ``==``, ``repr`` or the saved model.
        """
        return CompiledModel(self)


class CompiledModel:
    """A model's log-probability rows, each over the classes in code order.

    A value's row holds log((count + alpha) / (kind_total + alpha *
    vocabulary_size)) per class, -inf where the numerator is 0. Rows are
    built the first time a value is scored, so loading a model costs nothing
    extra; an out-of-vocabulary value is remembered as having no row. Each
    built row also records the value's majority class.
    """

    def __init__(self, model: NaiveBayesModel) -> None:
        self.classes = model.classes
        total = model.total_examples
        self.prior = [math.log(model.class_count[country] / total) for country in self.classes]
        self.uniform_prior = [-math.log(len(self.classes))] * len(self.classes)
        # Largest class first; the sort is stable, so ties stay in code order.
        self.prior_order = sorted(self.classes, key=lambda country: -model.class_count[country])
        self._alpha = model.alpha
        self._tables: dict[FeatureKind, tuple[set[str], list[dict[str, int]], list[float]]] = {}
        self._rows: dict[FeatureKind, dict[str, array | None]] = {}
        self._majority: dict[FeatureKind, dict[str, str | None]] = {}
        for kind in model.enabled_kinds:
            vocab = model.vocabulary.get(kind) or set()
            counts = [model.value_count.get(country, {}).get(kind, {}) for country in self.classes]
            denominators = [
                model.kind_total.get(country, {}).get(kind, 0) + model.alpha * len(vocab)
                for country in self.classes
            ]
            self._tables[kind] = (vocab, counts, denominators)
            self._rows[kind] = {}
            self._majority[kind] = {}

    def row(self, kind: FeatureKind, value: str) -> array | None:
        """The value's row, or None when the value is out of vocabulary."""
        rows = self._rows[kind]
        if value in rows:
            return rows[value]
        vocab, counts, denominators = self._tables[kind]
        if value not in vocab:
            rows[value] = None
            return None
        row = array("d")
        majority, majority_count = None, 0
        for country, per_value, denominator in zip(self.classes, counts, denominators):
            count = per_value.get(value, 0)
            numerator = count + self._alpha
            row.append(-math.inf if numerator == 0 else math.log(numerator / denominator))
            if count > majority_count:
                majority, majority_count = country, count
        rows[value] = row
        self._majority[kind][value] = majority
        return row

    def majority(self, kind: FeatureKind, value: str) -> str | None:
        """The class with the highest count for the value; ties pick the smaller code.

        None for an out-of-vocabulary value and for a kind the model does not enable.
        """
        if kind not in self._rows:
            return None
        self.row(kind, value)
        return self._majority[kind].get(value)


def train(
    examples: Iterable[tuple[FeatureVector, str]],
    alpha: float = 1.0,
    enabled_kinds: Iterable[FeatureKind] = ALL_KINDS,
) -> NaiveBayesModel:
    """Count up a model from (feature vector, country label) pairs.

    Entries of disabled kinds are ignored (logged once). Labels must be
    two-letter uppercase codes; an empty example list raises EmptyTrainingSet.
    """
    pairs = list(examples)
    if not pairs:
        raise EmptyTrainingSet("no training examples")
    if alpha < 0:
        raise ValueError(f"alpha must be non-negative, got {alpha!r}")
    kinds = ordered_kinds(enabled_kinds)
    enabled = set(kinds)

    class_count: dict[str, int] = {}
    value_count: dict[str, dict[FeatureKind, dict[str, int]]] = {}
    kind_total: dict[str, dict[FeatureKind, int]] = {}
    vocabulary: dict[FeatureKind, set[str]] = {kind: set() for kind in kinds}
    ignored = 0

    for vector, label in pairs:
        if not is_country_code(label):
            raise ValueError(f"invalid country label {label!r}")
        class_count[label] = class_count.get(label, 0) + 1
        per_kind = value_count.setdefault(label, {})
        totals = kind_total.setdefault(label, {})
        for kind, value in vector.items():
            if kind not in enabled:
                ignored += 1
                continue
            if not value:
                raise ValueError(f"empty feature value for kind {kind.value!r}")
            counts = per_kind.setdefault(kind, {})
            counts[value] = counts.get(value, 0) + 1
            totals[kind] = totals.get(kind, 0) + 1
            vocabulary[kind].add(value)

    if ignored:
        log.debug("ignored %d feature entries of disabled kinds", ignored)
    return NaiveBayesModel(
        alpha=float(alpha),
        enabled_kinds=kinds,
        class_count=class_count,
        value_count=value_count,
        kind_total=kind_total,
        vocabulary=vocabulary,
    )


def log_posterior(
    model: NaiveBayesModel, vector: FeatureVector, *, uniform_priors: bool = False
) -> list[tuple[str, float]]:
    """Score every class, best first.

    Returns (country, log score) pairs sorted by descending score, ties by
    country code. If every class scored -inf the order falls back to the
    prior-only ranking (scores stay -inf). The score is the prior row plus
    the compiled row of each in-vocabulary value, added in enabled-kind order.
    """
    compiled = model.compiled
    scores = compiled.uniform_prior if uniform_priors else compiled.prior
    for kind in model.enabled_kinds:
        value = vector.get(kind)
        if value is None:
            continue
        row = compiled.row(kind, value)
        if row is not None:
            scores = list(map(operator.add, scores, row))
    # The classes are in code order and the sort is stable, so equal scores
    # stay in code order: the same ranking as sorting on (-score, country).
    ranked = sorted(zip(compiled.classes, scores), key=operator.itemgetter(1), reverse=True)
    if ranked and ranked[0][1] == -math.inf:
        fallback = compiled.classes if uniform_priors else compiled.prior_order
        return [(country, -math.inf) for country in fallback]
    return ranked


def classify(
    model: NaiveBayesModel, vector: FeatureVector, *, uniform_priors: bool = False
) -> str:
    """The single best country for one feature vector."""
    return log_posterior(model, vector, uniform_priors=uniform_priors)[0][0]


def model_to_dict(model: NaiveBayesModel, config: dict | None = None) -> dict[str, Any]:
    """The JSON document for a model; fully deterministic for equal models."""
    document: dict[str, Any] = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "alpha": model.alpha,
        "enabled_kinds": [kind.value for kind in model.enabled_kinds],
        "total_examples": model.total_examples,
        "class_count": dict(sorted(model.class_count.items())),
        "value_count": {
            country: {
                kind.value: dict(sorted(values.items()))
                for kind, values in sorted(per_kind.items(), key=lambda item: item[0].value)
            }
            for country, per_kind in sorted(model.value_count.items())
        },
        "kind_total": {
            country: {
                kind.value: count
                for kind, count in sorted(totals.items(), key=lambda item: item[0].value)
            }
            for country, totals in sorted(model.kind_total.items())
        },
        "vocabulary": {
            kind.value: sorted(values) for kind, values in model.vocabulary.items()
        },
    }
    if config is not None:
        document["config"] = config
    return document


def save_model(model: NaiveBayesModel, path: str | Path, config: dict | None = None) -> None:
    """Write the model as deterministic JSON (sorted keys, no timestamps), atomically."""
    write_json_atomic(path, model_to_dict(model, config))


def _require_model(condition: bool, message: str) -> None:
    if not condition:
        raise CorruptModel(message)


def _checked_count(value: Any, what: str, minimum: int = 0) -> int:
    _require_model(
        isinstance(value, int) and not isinstance(value, bool) and value >= minimum,
        f"{what} must be an integer >= {minimum}, got {value!r}",
    )
    return value


def model_from_dict(document: Any) -> NaiveBayesModel:
    """Validate a decoded model document and rebuild the model.

    Every structural invariant is checked: totals match the value counts,
    vocabularies are exactly the values seen, counts stay within class sizes.
    Violations raise CorruptModel.
    """
    _require_model(isinstance(document, dict), "model document must be a JSON object")
    _require_model(
        document.get("schema_version") == MODEL_SCHEMA_VERSION,
        f"unsupported schema_version {document.get('schema_version')!r}",
    )
    alpha = document.get("alpha")
    _require_model(
        isinstance(alpha, (int, float)) and not isinstance(alpha, bool) and alpha >= 0,
        f"alpha must be a non-negative number, got {alpha!r}",
    )

    raw_kinds = document.get("enabled_kinds")
    _require_model(isinstance(raw_kinds, list) and raw_kinds, "enabled_kinds must be a non-empty list")
    try:
        kinds = tuple(kind_from_name(name) for name in raw_kinds)
    except (ValueError, TypeError) as exc:
        raise CorruptModel(f"bad enabled_kinds: {exc}") from None
    _require_model(len(set(kinds)) == len(kinds), "enabled_kinds has duplicates")
    _require_model(kinds == ordered_kinds(kinds), "enabled_kinds out of canonical order")
    enabled = set(kinds)

    raw_classes = document.get("class_count")
    _require_model(isinstance(raw_classes, dict) and raw_classes, "class_count must be a non-empty object")
    class_count: dict[str, int] = {}
    for country, count in raw_classes.items():
        _require_model(is_country_code(country), f"invalid class label {country!r}")
        class_count[country] = _checked_count(count, f"class_count[{country}]", minimum=1)
    _require_model(
        document.get("total_examples") == sum(class_count.values()),
        "total_examples does not match class_count",
    )

    raw_values = document.get("value_count")
    raw_totals = document.get("kind_total")
    raw_vocab = document.get("vocabulary")
    _require_model(isinstance(raw_values, dict), "value_count must be an object")
    _require_model(isinstance(raw_totals, dict), "kind_total must be an object")
    _require_model(isinstance(raw_vocab, dict), "vocabulary must be an object")
    _require_model(set(raw_values) <= set(class_count), "value_count has unknown classes")
    _require_model(set(raw_totals) <= set(class_count), "kind_total has unknown classes")

    value_count: dict[str, dict[FeatureKind, dict[str, int]]] = {}
    kind_total: dict[str, dict[FeatureKind, int]] = {}
    seen_values: dict[FeatureKind, set[str]] = {kind: set() for kind in kinds}
    for country in class_count:
        per_kind_raw = raw_values.get(country, {})
        totals_raw = raw_totals.get(country, {})
        _require_model(isinstance(per_kind_raw, dict), f"value_count[{country}] must be an object")
        _require_model(isinstance(totals_raw, dict), f"kind_total[{country}] must be an object")
        per_kind: dict[FeatureKind, dict[str, int]] = {}
        totals: dict[FeatureKind, int] = {}
        for name, values in per_kind_raw.items():
            try:
                kind = kind_from_name(name)
            except ValueError as exc:
                raise CorruptModel(str(exc)) from None
            _require_model(kind in enabled, f"value_count uses disabled kind {name!r}")
            _require_model(isinstance(values, dict), f"value_count[{country}][{name}] must be an object")
            counts: dict[str, int] = {}
            for value, count in values.items():
                _require_model(isinstance(value, str) and value, f"empty feature value under {name!r}")
                counts[value] = _checked_count(count, f"value_count[{country}][{name}][{value}]")
                if counts[value] > 0:
                    seen_values[kind].add(value)
            per_kind[kind] = counts
        for name, count in totals_raw.items():
            try:
                kind = kind_from_name(name)
            except ValueError as exc:
                raise CorruptModel(str(exc)) from None
            _require_model(kind in enabled, f"kind_total uses disabled kind {name!r}")
            totals[kind] = _checked_count(count, f"kind_total[{country}][{name}]")
        for kind in enabled:
            declared = totals.get(kind, 0)
            summed = sum(per_kind.get(kind, {}).values())
            _require_model(
                declared == summed,
                f"kind_total[{country}][{kind.value}] is {declared} but values sum to {summed}",
            )
            _require_model(
                declared <= class_count[country],
                f"kind_total[{country}][{kind.value}] exceeds the class size",
            )
        value_count[country] = per_kind
        kind_total[country] = totals

    vocabulary: dict[FeatureKind, set[str]] = {kind: set() for kind in kinds}
    for name, values in raw_vocab.items():
        try:
            kind = kind_from_name(name)
        except ValueError as exc:
            raise CorruptModel(str(exc)) from None
        _require_model(kind in enabled, f"vocabulary uses disabled kind {name!r}")
        _require_model(
            isinstance(values, list) and all(isinstance(v, str) and v for v in values),
            f"vocabulary[{name}] must be a list of non-empty strings",
        )
        vocabulary[kind] = set(values)
        _require_model(len(vocabulary[kind]) == len(values), f"vocabulary[{name}] has duplicates")
    for kind in kinds:
        _require_model(
            vocabulary[kind] == seen_values[kind],
            f"vocabulary[{kind.value}] does not match the counted values",
        )

    return NaiveBayesModel(
        alpha=float(alpha),
        enabled_kinds=kinds,
        class_count=class_count,
        value_count=value_count,
        kind_total=kind_total,
        vocabulary=vocabulary,
    )


def load_model(path: str | Path) -> NaiveBayesModel:
    """Read and validate a model file. Any defect raises CorruptModel."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CorruptModel(f"cannot read model file: {exc}") from exc
    try:
        document = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise CorruptModel(f"model file is not valid JSON: {exc}") from None
    return model_from_dict(document)


def load_model_config(path: str | Path) -> dict | None:
    """The config echo embedded in a model file, if any."""
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise CorruptModel(f"cannot read model file: {exc}") from None
    if not isinstance(document, dict):
        raise CorruptModel("model document must be a JSON object")
    config = document.get("config")
    return config if isinstance(config, dict) else None
