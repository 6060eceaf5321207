"""Counting Naive Bayes over categorical feature vectors.

The model is nothing but per-class counts. A class score is the log prior
plus, for every enabled kind whose observed value is in that kind's training
vocabulary, log((count + alpha) / (kind_total + alpha * vocabulary_size)).
Out-of-vocabulary values are skipped for every class alike. With alpha 0 an
unseen pairing scores -inf; when every class is -inf, ranking falls back to
priors alone. Exact ties rank the lexicographically smallest country first.

Scoring reads the model's compiled form (``NaiveBayesModel.compiled``),
built whole on first use. Per kind it holds a base row, the zero-count term
of each class, and per vocabulary value the terms of the classes that
counted it and its majority class. A tweet's scores start from the
prior row plus the base rows of its in-vocabulary kinds, a sum cached per
kind set with its ranking; only the classes that counted one of its values
are then summed again, term by term. Every class adds its terms in
enabled-kind order, the order of the formula, so the scores and rankings
are bitwise equal to evaluating the formula class by class. No call copies
the start row: ``classify`` compares the best touched class with the first
untouched one of the start ranking, and ``log_posterior`` asked for the
first N classes ranks just the touched ones and the first N untouched.
"""

from __future__ import annotations

import json
import math
import sys
from functools import cached_property
from itertools import filterfalse, islice
from operator import add, itemgetter
from pathlib import Path
from types import MappingProxyType
from typing import Any, Container, Iterable, Iterator, Mapping

from .atomic import write_json_atomic
from .errors import CorruptModel, EmptyTrainingSet
from .features import ALL_KINDS, FeatureKind, FeatureVector, kind_from_name, ordered_kinds
from .tweet_model import ValueClass, _shown, is_country_code

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


# The majority classes of a kind the model does not enable.
_NO_MAJORITIES: Mapping[str, str | None] = MappingProxyType({})

# The enabled kinds a vector has in-vocabulary values of, and the prior mode.
_StartKey = tuple[tuple[FeatureKind, ...], bool]


class CompiledModel:
    """A model's log-probability terms, indexed by class position in code order.

    The term of a class for a value is log((count + alpha) / (kind_total +
    alpha * vocabulary_size)). Per kind, the base row holds it for a count of
    0, -inf where alpha is 0; a value's terms hold it only for the classes
    that counted the value. Every vocabulary value gets its terms and its
    majority class when the model is compiled; the vocabulary alone decides
    what is in vocabulary, so a counted value outside it gets neither.
    """

    def __init__(self, model: NaiveBayesModel) -> None:
        self.classes = model.classes
        total = model.total_examples
        self.prior = [math.log(model.class_count[country] / total) for country in self.classes]
        self.uniform_prior = [-math.log(len(self.classes))] * len(self.classes)
        # Largest class first; the sort is stable, so ties stay in code order.
        self.prior_order = sorted(self.classes, key=lambda country: -model.class_count[country])
        alpha = model.alpha
        self._base: dict[FeatureKind, list[float]] = {}
        # In enabled-kind order, which is the order scores add their terms in.
        self._terms: dict[FeatureKind, dict[str, dict[int, float]]] = {}
        self._majority: dict[FeatureKind, dict[str, str | None]] = {}
        # (kinds, uniform_priors) -> prior row plus those kinds' base rows, and
        # its class indices by descending score, ties in code order.
        self._starts: dict[_StartKey, tuple[list[float], list[int]]] = {}
        for kind in model.enabled_kinds:
            vocab = model.vocabulary.get(kind) or set()
            base = self._base[kind] = []
            terms: dict[str, dict[int, float]] = {value: {} for value in vocab}
            majority: dict[str, str | None] = dict.fromkeys(vocab)
            majority_count: dict[str, int] = {}
            for index, country in enumerate(self.classes):
                denominator = model.kind_total.get(country, {}).get(kind, 0) + alpha * len(vocab)
                # A denominator is 0 only when the vocabulary is empty; then no row is read.
                base.append(
                    -math.inf if alpha == 0 or denominator == 0 else math.log(alpha / denominator)
                )
                for value, count in model.value_count.get(country, {}).get(kind, {}).items():
                    # model_from_dict accepts explicit zero counts
                    if count and value in terms:
                        terms[value][index] = math.log((count + alpha) / denominator)
                        # Classes come in code order, so a tie keeps the smaller code.
                        if count > majority_count.get(value, 0):
                            majority[value], majority_count[value] = country, count
            self._terms[kind] = terms
            self._majority[kind] = majority

    def _scores(
        self,
        vector: FeatureVector,
        uniform_priors: bool,
        kinds: Container[FeatureKind] | None = None,
    ) -> tuple[list[float], Iterator[int], list[int], list[float]]:
        """The start row the scores began from; the indices of the classes
        whose score did not leave it, by descending start score, ties in code
        order; the indices of the classes whose score left it, in ascending
        order; and their scores in that order. Only the vector's values of
        ``kinds``, if given, are scored. Do not modify the returned row.
        """
        present = []
        parts = []
        for kind, cache in self._terms.items():
            if kinds is not None and kind not in kinds:
                continue
            terms = cache.get(vector.get(kind))
            if terms is None:
                continue
            present.append(kind)
            parts.append((terms, self._base[kind]))
        prior = self.uniform_prior if uniform_priors else self.prior
        key = (tuple(present), uniform_priors)
        cached = self._starts.get(key)
        if cached is None:
            start = prior
            for kind in present:
                start = list(map(add, start, self._base[kind]))
            ranking = sorted(range(len(start)), key=start.__getitem__, reverse=True)
            cached = self._starts[key] = start, ranking
        start, ranking = cached
        if not parts:
            return start, iter(ranking), [], []
        if len(parts) == 1:
            # A value's terms are keyed in code order.
            touched = parts[0][0]
            moved = list(touched)
        else:
            touched = set().union(*[terms for terms, _ in parts])
            moved = sorted(touched)
        # Only these classes differ from the start: sum each one again from its
        # prior, taking per kind its term or else its base entry, in kind order.
        scores = []
        for index in moved:
            score = prior[index]
            for terms, base in parts:
                score += terms.get(index, base[index])
            scores.append(score)
        return start, filterfalse(touched.__contains__, ranking), moved, scores

    def majority(self, kind: FeatureKind, value: str) -> str | None:
        """The class with the highest count for the value; ties pick the smaller code.

        None for an out-of-vocabulary value and for a kind the model does not enable.
        """
        return self._majority.get(kind, _NO_MAJORITIES).get(value)


def train(
    examples: Iterable[tuple[FeatureVector, str]],
    alpha: float = 1.0,
    enabled_kinds: Iterable[FeatureKind] = ALL_KINDS,
) -> NaiveBayesModel:
    """Count up a model from (feature vector, country label) pairs.

    Entries of disabled kinds are ignored (logged once). Labels must be
    two-letter uppercase codes; an empty example list raises EmptyTrainingSet,
    and no enabled kind raises ValueError.
    """
    pairs = list(examples)
    if not pairs:
        raise EmptyTrainingSet("no training examples")
    if not 0 <= alpha <= sys.float_info.max:
        raise ValueError(f"alpha must be a finite non-negative number, got {alpha!r}")
    kinds = ordered_kinds(enabled_kinds)
    if not kinds:
        raise ValueError("enabled kinds must be non-empty")
    enabled = set(kinds)

    class_count: dict[str, int] = {}
    value_count: dict[str, dict[FeatureKind, dict[str, int]]] = {}
    kind_total: dict[str, dict[FeatureKind, int]] = {}
    vocabulary: dict[FeatureKind, set[str]] = {kind: set() for kind in kinds}
    ignored = 0

    for vector, label in pairs:
        # Only a label not counted yet needs the check; an unhashable one raises TypeError.
        try:
            class_count[label] += 1
        except (KeyError, TypeError):
            if not is_country_code(label):
                raise ValueError(f"invalid country label {label!r}") from None
            class_count[label] = 1
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

    # Without logging loaded, no handler exists that could show the record.
    if ignored and "logging" in sys.modules:
        log = sys.modules["logging"].getLogger(__name__)
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
    count = len(classes) if top is None else top
    start, untouched, moved, scores = compiled._scores(vector, uniform_priors)
    # Only the classes that the vector's values touched left their start score,
    # so the first ``count`` are among those and the first ``count`` untouched
    # classes of the start's own ranking.
    candidates = list(zip(moved, scores))
    for index in islice(untouched, count):
        candidates.append((index, start[index]))
    # Code order first; the stable sort by score then keeps ties in it.
    candidates.sort(key=itemgetter(0))
    candidates.sort(key=itemgetter(1), reverse=True)
    first = candidates[:count]
    # The first entry holds the highest score, so it is -inf only if every score is.
    if first[0][1] == -math.inf:
        fallback = classes if uniform_priors else compiled.prior_order
        return [(country, -math.inf) for country in fallback[:top]]
    return [(classes[index], score) for index, score in first]


def classify(
    model: NaiveBayesModel,
    vector: FeatureVector,
    *,
    uniform_priors: bool = False,
    kinds: Container[FeatureKind] | None = None,
) -> str:
    """The single best country for one feature vector: ``log_posterior``'s first entry.

    With ``kinds``, only the vector's values of those kinds are scored, as if
    the vector held no others. The best class is the best of two: the first
    untouched class of the start ranking and the best touched one, ties to
    the smaller class index.
    """
    compiled = model.compiled
    start, untouched, moved, scores = compiled._scores(vector, uniform_priors, kinds)
    index, best = None, -math.inf
    if len(moved) < len(start):
        index = next(untouched)
        best = start[index]
    if scores:
        moved_best = max(scores)
        if moved_best >= best:
            # moved ascends, so this is the smallest class index of a tie.
            moved_index = moved[scores.index(moved_best)]
            if index is None or moved_best > best or moved_index < index:
                index, best = moved_index, moved_best
    if best == -math.inf:
        return compiled.classes[0] if uniform_priors else compiled.prior_order[0]
    return compiled.classes[index]


def model_to_dict(model: NaiveBayesModel, config: dict | None = None) -> dict[str, Any]:
    """The JSON document for a model. Its lists are sorted and its objects
    keep the model's key order; ``save_model``'s writer sorts the keys, so
    equal models save equal bytes.

    The config echo is ``config``, or else the model's own ``config``.
    """
    if config is None:
        config = model.config
    document: dict[str, Any] = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "alpha": model.alpha,
        "enabled_kinds": [kind.value for kind in model.enabled_kinds],
        "total_examples": model.total_examples,
        "class_count": dict(model.class_count),
        "value_count": {
            country: {kind.value: dict(values) for kind, values in per_kind.items()}
            for country, per_kind in model.value_count.items()
        },
        "kind_total": {
            country: {kind.value: count for kind, count in totals.items()}
            for country, totals in model.kind_total.items()
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


def _enabled_kind(name: str, enabled: Container[FeatureKind], table: str) -> FeatureKind:
    """The kind a key of ``table`` names; CorruptModel unless it is known and enabled."""
    try:
        kind = kind_from_name(name)
    except ValueError as exc:
        raise CorruptModel(str(exc)) from None
    if kind not in enabled:
        raise CorruptModel(f"{table} uses disabled kind {name!r}")
    return kind


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
    for country, count in raw_classes.items():
        if not is_country_code(country):
            raise CorruptModel(f"invalid class label {country!r}")
        if not _is_count(count, minimum=1):
            raise _bad_count(f"class_count[{country}]", count, minimum=1)
    class_count: dict[str, int] = dict(raw_classes)
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
            kind = _enabled_kind(name, enabled, "value_count")
            if not isinstance(values, dict):
                raise CorruptModel(f"value_count[{country}][{name}] must be an object")
            seen = seen_values[kind]
            for value, count in values.items():
                if not (isinstance(value, str) and value):
                    raise CorruptModel(f"empty feature value under {name!r}")
                if not _is_count(count):
                    raise _bad_count(f"value_count[{country}][{name}][{value}]", count)
                if count > 0:
                    seen.add(value)
            per_kind[kind] = dict(values)
        for name, count in totals_raw.items():
            kind = _enabled_kind(name, enabled, "kind_total")
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
        kind = _enabled_kind(name, enabled, "vocabulary")
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
