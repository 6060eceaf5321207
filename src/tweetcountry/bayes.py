"""Counting Naive Bayes over categorical feature vectors.

The model is nothing but per-class counts. A class score is the log prior
plus, for every enabled kind whose observed value is in that kind's training
vocabulary, log((count + alpha) / (kind_total + alpha * vocabulary_size)).
Out-of-vocabulary values are skipped for every class alike. With alpha 0 an
unseen pairing scores -inf; when every class is -inf, ranking falls back to
priors alone. Exact ties rank the lexicographically smallest country first.

Scoring reads the model's compiled form (``NaiveBayesModel.compiled``). Per
kind it holds a base row, the zero-count term of each class, and per value
the terms of the classes that counted it. A tweet's scores start from the
prior row plus the base rows of its in-vocabulary kinds, a sum cached per
kind set; only the classes that counted one of its values are then summed
again, term by term. Every class adds its terms in enabled-kind order, the
order of the formula, so the scores and rankings are bitwise equal to
evaluating the formula class by class. Asked for only the first N classes,
``log_posterior`` ranks just the classes a tweet's values touched and the
first N others of the start sum's ranking, which is cached next to it.
"""

from __future__ import annotations

import json
import logging
import math
import operator
import sys
from functools import cached_property
from itertools import filterfalse, islice
from pathlib import Path
from typing import Any, Iterable

from .atomic import write_json_atomic
from .errors import CorruptModel, EmptyTrainingSet
from .features import ALL_KINDS, FeatureKind, FeatureVector, kind_from_name, ordered_kinds
from .tweet_model import ValueClass, _shown, is_country_code

log = logging.getLogger(__name__)

MODEL_SCHEMA_VERSION = 1


class NaiveBayesModel(ValueClass):
    """Count tables for one trained classifier. Treat as immutable once built."""

    _fields = ("alpha", "enabled_kinds", "class_count", "value_count", "kind_total", "vocabulary")

    def __init__(
        self,
        alpha: float,
        enabled_kinds: tuple[FeatureKind, ...],
        class_count: dict[str, int],
        value_count: dict[str, dict[FeatureKind, dict[str, int]]],
        kind_total: dict[str, dict[FeatureKind, int]],
        vocabulary: dict[FeatureKind, set[str]],
        config: dict | None = None,
    ) -> None:
        self.alpha = alpha
        self.enabled_kinds = enabled_kinds
        self.class_count = class_count
        self.value_count = value_count
        self.kind_total = kind_total
        self.vocabulary = vocabulary
        # The config echo of the file the model was loaded from, if it has one;
        # saving writes it back unless given another. Not part of the counts: it
        # takes no part in ``==`` or ``repr``.
        self.config = config

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


# The enabled kinds a vector has in-vocabulary values of, and the prior mode.
_StartKey = tuple[tuple[FeatureKind, ...], bool]


class CompiledModel:
    """A model's log-probability terms, indexed by class position in code order.

    The term of a class for a value is log((count + alpha) / (kind_total +
    alpha * vocabulary_size)). Per kind, the base row holds it for a count of
    0, -inf where alpha is 0; a value's terms hold it only for the classes
    that counted the value. Terms are built the first time a vocabulary
    value is scored, so loading a model costs nothing extra, and kept with
    the value's majority class. Out-of-vocabulary values are not kept, so
    the caches never outgrow the vocabulary.
    """

    def __init__(self, model: NaiveBayesModel) -> None:
        self.classes = model.classes
        total = model.total_examples
        self.prior = [math.log(model.class_count[country] / total) for country in self.classes]
        self.uniform_prior = [-math.log(len(self.classes))] * len(self.classes)
        # Largest class first; the sort is stable, so ties stay in code order.
        self.prior_order = sorted(self.classes, key=lambda country: -model.class_count[country])
        self._alpha = alpha = model.alpha
        self._vocab: dict[FeatureKind, set[str]] = {}
        self._denominators: dict[FeatureKind, list[float]] = {}
        self._base: dict[FeatureKind, list[float]] = {}
        self._postings: dict[FeatureKind, dict[str, list[tuple[int, int]]]] = {}
        # In enabled-kind order, which is the order scores add their terms in.
        self._terms: dict[FeatureKind, dict[str, dict[int, float]]] = {}
        self._majority: dict[FeatureKind, dict[str, str | None]] = {}
        # (kinds, uniform_priors) -> prior row plus those kinds' base rows.
        self._starts: dict[_StartKey, list[float]] = {}
        # The same keys -> class indices by descending start score, ties in code order.
        self._start_rankings: dict[_StartKey, list[int]] = {}
        for kind in model.enabled_kinds:
            vocab = model.vocabulary.get(kind) or set()
            denominators = [
                model.kind_total.get(country, {}).get(kind, 0) + alpha * len(vocab)
                for country in self.classes
            ]
            # A denominator is 0 only when the vocabulary is empty; then no row is read.
            self._base[kind] = [
                -math.inf if alpha == 0 or denominator == 0 else math.log(alpha / denominator)
                for denominator in denominators
            ]
            postings: dict[str, list[tuple[int, int]]] = {}
            for index, country in enumerate(self.classes):
                for value, count in model.value_count.get(country, {}).get(kind, {}).items():
                    if count:  # model_from_dict accepts explicit zero counts
                        postings.setdefault(value, []).append((index, count))
            self._vocab[kind] = vocab
            self._denominators[kind] = denominators
            self._postings[kind] = postings
            self._terms[kind] = {}
            self._majority[kind] = {}

    def _build(self, kind: FeatureKind, value: str) -> dict[int, float]:
        """Build and cache the terms and the majority class of a vocabulary value."""
        terms, majority, majority_count = {}, None, 0
        denominators = self._denominators[kind]
        for index, count in self._postings[kind].get(value, ()):
            terms[index] = math.log((count + self._alpha) / denominators[index])
            if count > majority_count:
                majority, majority_count = self.classes[index], count
        self._terms[kind][value] = terms
        self._majority[kind][value] = majority
        return terms

    def _scores(
        self, vector: FeatureVector, uniform_priors: bool
    ) -> tuple[list[float], _StartKey, set[int]]:
        """Every class's score in code order, the key of the start row the
        scores began from, and the indices of the classes whose score left it.
        Do not modify the returned list.
        """
        kinds = []
        parts = []
        for kind, cache in self._terms.items():
            value = vector.get(kind)
            if value is None:
                continue
            terms = cache.get(value)
            if terms is None:
                if value not in self._vocab[kind]:
                    continue
                terms = self._build(kind, value)
            kinds.append(kind)
            parts.append((terms, self._base[kind]))
        prior = self.uniform_prior if uniform_priors else self.prior
        key = (tuple(kinds), uniform_priors)
        start = self._starts.get(key)
        if start is None:
            start = prior
            for kind in kinds:
                start = list(map(operator.add, start, self._base[kind]))
            self._starts[key] = start
        touched = set().union(*[terms for terms, _ in parts])
        if not touched:
            return start, key, touched
        # Only these classes differ from the start: sum each one again from its
        # prior, taking per kind its term or else its base entry, in kind order.
        scores = start.copy()
        for index in touched:
            score = prior[index]
            for terms, base in parts:
                score += terms.get(index, base[index])
            scores[index] = score
        return scores, key, touched

    def _first(
        self, vector: FeatureVector, uniform_priors: bool, count: int
    ) -> tuple[list[float], list[int]]:
        """Every class's score, and the indices of the first ``count`` classes
        by descending score, ties in code order.

        Only the classes that the vector's values touched left their start
        score, so the first ``count`` are among those and the first ``count``
        untouched classes of the start's own ranking, which is cached.
        """
        scores, key, touched = self._scores(vector, uniform_priors)
        ranking = self._start_rankings.get(key)
        if ranking is None:
            start = self._starts[key]
            ranking = sorted(range(len(start)), key=start.__getitem__, reverse=True)
            self._start_rankings[key] = ranking
        candidates = list(touched)
        candidates.extend(islice(filterfalse(touched.__contains__, ranking), count))
        # Code order first; the stable sort by score then keeps ties in it.
        candidates.sort()
        candidates.sort(key=scores.__getitem__, reverse=True)
        return scores, candidates[:count]

    def majority(self, kind: FeatureKind, value: str) -> str | None:
        """The class with the highest count for the value; ties pick the smaller code.

        None for an out-of-vocabulary value and for a kind the model does not enable.
        """
        majorities = self._majority.get(kind)
        if majorities is None:
            return None
        if value not in majorities:
            if value not in self._vocab[kind]:
                return None
            self._build(kind, value)
        return majorities[value]


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
    if not 0 <= alpha <= sys.float_info.max:
        raise ValueError(f"alpha must be a finite non-negative number, got {alpha!r}")
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
    model: NaiveBayesModel,
    vector: FeatureVector,
    *,
    uniform_priors: bool = False,
    top: int | None = None,
) -> list[tuple[str, float]]:
    """Score every class, best first.

    Returns (country, log score) pairs sorted by descending score, ties by
    country code. If every class scored -inf the order falls back to the
    prior-only ranking (scores stay -inf). With ``top``, only the first
    ``top`` pairs of that list are ranked and returned.
    """
    if top is not None and top < 1:
        raise ValueError(f"top must be at least 1, got {top!r}")
    compiled = model.compiled
    classes = compiled.classes
    scores, first = compiled._first(vector, uniform_priors, len(classes) if top is None else top)
    ranked = [(classes[index], scores[index]) for index in first]
    # The first entry holds the highest score, so it is -inf only if every score is.
    if ranked and ranked[0][1] == -math.inf:
        fallback = classes if uniform_priors else compiled.prior_order
        return [(country, -math.inf) for country in fallback[:top]]
    return ranked


def classify(
    model: NaiveBayesModel, vector: FeatureVector, *, uniform_priors: bool = False
) -> str:
    """The single best country for one feature vector: ``log_posterior``'s first entry.

    The first maximum in code order is the class the stable sort ranks first.
    """
    compiled = model.compiled
    scores = compiled._scores(vector, uniform_priors)[0]
    best = max(scores)
    if best == -math.inf:
        return compiled.classes[0] if uniform_priors else compiled.prior_order[0]
    return compiled.classes[scores.index(best)]


def model_to_dict(model: NaiveBayesModel, config: dict | None = None) -> dict[str, Any]:
    """The JSON document for a model; fully deterministic for equal models.

    The config echo is ``config``, or else the model's own ``config``.
    """
    if config is None:
        config = model.config
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


def _is_count(value: Any, minimum: int = 0) -> bool:
    """An integer, not a bool, of at least minimum."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= minimum


def _bad_count(what: str, value: Any, minimum: int = 0) -> CorruptModel:
    return CorruptModel(f"{what} must be an integer >= {minimum}, got {_shown(value)}")


def _kind(name: Any) -> FeatureKind:
    try:
        return kind_from_name(name)
    except ValueError as exc:
        raise CorruptModel(str(exc)) from None


def _config_of(document: dict) -> dict | None:
    """A model document's config echo: its ``config`` object, if it has one."""
    config = document.get("config")
    return config if isinstance(config, dict) else None


def model_from_dict(document: Any) -> NaiveBayesModel:
    """Validate a decoded model document and rebuild the model.

    Every structural invariant is checked: totals match the value counts,
    vocabularies are exactly the values seen, counts stay within class sizes.
    Violations raise CorruptModel. The document's ``config`` object, if it
    has one, becomes the model's ``config``.
    """
    # Each message is formatted only when its check fails: a model holds
    # thousands of counts, and every one is checked.
    if not isinstance(document, dict):
        raise CorruptModel("model document must be a JSON object")
    if document.get("schema_version") != MODEL_SCHEMA_VERSION:
        raise CorruptModel(f"unsupported schema_version {_shown(document.get('schema_version'))}")
    alpha = document.get("alpha")
    if not (isinstance(alpha, (int, float)) and not isinstance(alpha, bool) and alpha >= 0):
        raise CorruptModel(f"alpha must be a non-negative number, got {_shown(alpha)}")
    # An integer beyond the float range would overflow float() below.
    if not alpha <= sys.float_info.max:
        raise CorruptModel(f"alpha must be finite, got {_shown(alpha)}")

    raw_kinds = document.get("enabled_kinds")
    if not (isinstance(raw_kinds, list) and raw_kinds):
        raise CorruptModel("enabled_kinds must be a non-empty list")
    try:
        kinds = tuple(kind_from_name(name) for name in raw_kinds)
    except (ValueError, TypeError) as exc:
        raise CorruptModel(f"bad enabled_kinds: {exc}") from None
    if len(set(kinds)) != len(kinds):
        raise CorruptModel("enabled_kinds has duplicates")
    if kinds != ordered_kinds(kinds):
        raise CorruptModel("enabled_kinds out of canonical order")
    enabled = set(kinds)

    raw_classes = document.get("class_count")
    if not (isinstance(raw_classes, dict) and raw_classes):
        raise CorruptModel("class_count must be a non-empty object")
    class_count: dict[str, int] = {}
    for country, count in raw_classes.items():
        if not is_country_code(country):
            raise CorruptModel(f"invalid class label {country!r}")
        if not _is_count(count, minimum=1):
            raise _bad_count(f"class_count[{country}]", count, minimum=1)
        class_count[country] = count
    if document.get("total_examples") != sum(class_count.values()):
        raise CorruptModel("total_examples does not match class_count")

    raw_values = document.get("value_count")
    raw_totals = document.get("kind_total")
    raw_vocab = document.get("vocabulary")
    if not isinstance(raw_values, dict):
        raise CorruptModel("value_count must be an object")
    if not isinstance(raw_totals, dict):
        raise CorruptModel("kind_total must be an object")
    if not isinstance(raw_vocab, dict):
        raise CorruptModel("vocabulary must be an object")
    if not set(raw_values) <= set(class_count):
        raise CorruptModel("value_count has unknown classes")
    if not set(raw_totals) <= set(class_count):
        raise CorruptModel("kind_total has unknown classes")

    value_count: dict[str, dict[FeatureKind, dict[str, int]]] = {}
    kind_total: dict[str, dict[FeatureKind, int]] = {}
    seen_values: dict[FeatureKind, set[str]] = {kind: set() for kind in kinds}
    for country in class_count:
        per_kind_raw = raw_values.get(country, {})
        totals_raw = raw_totals.get(country, {})
        if not isinstance(per_kind_raw, dict):
            raise CorruptModel(f"value_count[{country}] must be an object")
        if not isinstance(totals_raw, dict):
            raise CorruptModel(f"kind_total[{country}] must be an object")
        per_kind: dict[FeatureKind, dict[str, int]] = {}
        totals: dict[FeatureKind, int] = {}
        for name, values in per_kind_raw.items():
            kind = _kind(name)
            if kind not in enabled:
                raise CorruptModel(f"value_count uses disabled kind {name!r}")
            if not isinstance(values, dict):
                raise CorruptModel(f"value_count[{country}][{name}] must be an object")
            counts: dict[str, int] = {}
            seen = seen_values[kind]
            for value, count in values.items():
                if not (isinstance(value, str) and value):
                    raise CorruptModel(f"empty feature value under {name!r}")
                if not _is_count(count):
                    raise _bad_count(f"value_count[{country}][{name}][{value}]", count)
                counts[value] = count
                if count > 0:
                    seen.add(value)
            per_kind[kind] = counts
        for name, count in totals_raw.items():
            kind = _kind(name)
            if kind not in enabled:
                raise CorruptModel(f"kind_total uses disabled kind {name!r}")
            if not _is_count(count):
                raise _bad_count(f"kind_total[{country}][{name}]", count)
            totals[kind] = count
        for kind in kinds:
            declared = totals.get(kind, 0)
            summed = sum(per_kind.get(kind, {}).values())
            if declared != summed:
                raise CorruptModel(
                    f"kind_total[{country}][{kind.value}] is {_shown(declared)}"
                    f" but values sum to {_shown(summed)}"
                )
            if declared > class_count[country]:
                raise CorruptModel(f"kind_total[{country}][{kind.value}] exceeds the class size")
        value_count[country] = per_kind
        kind_total[country] = totals

    vocabulary: dict[FeatureKind, set[str]] = {kind: set() for kind in kinds}
    for name, values in raw_vocab.items():
        kind = _kind(name)
        if kind not in enabled:
            raise CorruptModel(f"vocabulary uses disabled kind {name!r}")
        if not (isinstance(values, list) and all(isinstance(v, str) and v for v in values)):
            raise CorruptModel(f"vocabulary[{name}] must be a list of non-empty strings")
        vocabulary[kind] = set(values)
        if len(vocabulary[kind]) != len(values):
            raise CorruptModel(f"vocabulary[{name}] has duplicates")
    for kind in kinds:
        if vocabulary[kind] != seen_values[kind]:
            raise CorruptModel(f"vocabulary[{kind.value}] does not match the counted values")

    return NaiveBayesModel(
        alpha=float(alpha),
        enabled_kinds=kinds,
        class_count=class_count,
        value_count=value_count,
        kind_total=kind_total,
        vocabulary=vocabulary,
        config=_config_of(document),
    )


def _read_document(path: str | Path) -> Any:
    """The decoded JSON of a model file; a file that cannot be read or
    decoded raises CorruptModel."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CorruptModel(f"cannot read model file: {exc}") from exc
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and the integer digit limit.
        raise CorruptModel(f"model file is not valid JSON: {exc}") from None


def load_model(path: str | Path) -> NaiveBayesModel:
    """Read and validate a model file. Any defect raises CorruptModel."""
    return model_from_dict(_read_document(path))


def load_model_config(path: str | Path) -> dict | None:
    """The config echo embedded in a model file, if any."""
    document = _read_document(path)
    if not isinstance(document, dict):
        raise CorruptModel("model document must be a JSON object")
    return _config_of(document)
