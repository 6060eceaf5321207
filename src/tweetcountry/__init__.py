"""Infer a tweet's home country from its metadata.

The pipeline: parse raw tweet JSON into records, auto-label records that
carry geo information, extract categorical features (with gazetteer-backed
geoparsing of the free-text location), train a counting Naive Bayes model,
and evaluate with exact accuracies, seeded folds, feature ablation, and
per-country reports.
"""

from .bayes import (
    NaiveBayesModel,
    classify,
    load_model,
    log_posterior,
    save_model,
    train,
)
from .errors import (
    ConflictingEntry,
    CorruptModel,
    EmptyEvaluationSet,
    EmptyTrainingSet,
    GeoparserFailure,
    InvalidFoldCount,
    InvalidQuery,
    MalformedInput,
    RemoteUnavailable,
    ResolverFailure,
    TweetCountryError,
)
from .evaluation import (
    ABLATION_PRESETS,
    LabeledDataset,
    PerCountryReport,
    ablate,
    accuracy,
    collapse_region,
    cross_validate,
    kfold_split,
    per_country_report,
)
from .features import ALL_KINDS, FeatureKind, FeatureVector, extract_features
from .geocode import Gazetteer, GeocodeCache, Geocoder, RemoteGeocoder
from .tweet_model import OTHER_LABEL, TweetRecord, label_of, parse_tweet, to_flat_dict

__version__ = "0.1.0"

__all__ = [
    "ABLATION_PRESETS",
    "ALL_KINDS",
    "ConflictingEntry",
    "CorruptModel",
    "EmptyEvaluationSet",
    "EmptyTrainingSet",
    "FeatureKind",
    "FeatureVector",
    "Gazetteer",
    "GeocodeCache",
    "Geocoder",
    "GeoparserFailure",
    "InvalidFoldCount",
    "InvalidQuery",
    "LabeledDataset",
    "MalformedInput",
    "NaiveBayesModel",
    "OTHER_LABEL",
    "PerCountryReport",
    "RemoteGeocoder",
    "RemoteUnavailable",
    "ResolverFailure",
    "TweetCountryError",
    "TweetRecord",
    "ablate",
    "accuracy",
    "classify",
    "collapse_region",
    "cross_validate",
    "extract_features",
    "kfold_split",
    "label_of",
    "load_model",
    "log_posterior",
    "parse_tweet",
    "per_country_report",
    "save_model",
    "to_flat_dict",
    "train",
    "__version__",
]
