"""Infer a tweet's home country from its metadata.

The pipeline: parse raw tweet JSON into records, auto-label records that
carry geo information, extract categorical features (with gazetteer-backed
geoparsing of the free-text location), train a counting Naive Bayes model,
and evaluate with exact accuracies, seeded folds, feature ablation, and
per-country reports.

The public names below are imported from their submodules on first use, so
``import tweetcountry`` loads no submodule and each command of the CLI loads
only the modules it runs.
"""

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_SOURCES = {
    "NaiveBayesModel": "bayes",
    "classify": "bayes",
    "load_model": "bayes",
    "log_posterior": "bayes",
    "save_model": "bayes",
    "train": "bayes",
    "ConflictingEntry": "errors",
    "CorruptModel": "errors",
    "EmptyEvaluationSet": "errors",
    "EmptyTrainingSet": "errors",
    "GeoparserFailure": "errors",
    "InvalidFoldCount": "errors",
    "InvalidQuery": "errors",
    "MalformedInput": "errors",
    "RemoteUnavailable": "errors",
    "ResolverFailure": "errors",
    "TweetCountryError": "errors",
    "ABLATION_PRESETS": "evaluation",
    "LabeledDataset": "evaluation",
    "PerCountryReport": "evaluation",
    "ablate": "evaluation",
    "accuracy": "evaluation",
    "collapse_region": "evaluation",
    "cross_validate": "evaluation",
    "kfold_split": "evaluation",
    "per_country_report": "evaluation",
    "ALL_KINDS": "features",
    "FeatureKind": "features",
    "FeatureVector": "features",
    "extract_features": "features",
    "Gazetteer": "geocode",
    "GeocodeCache": "geocode",
    "Geocoder": "geocode",
    "RemoteGeocoder": "geocode",
    "OTHER_LABEL": "tweet_model",
    "TweetRecord": "tweet_model",
    "label_of": "tweet_model",
    "parse_tweet": "tweet_model",
    "to_flat_dict": "tweet_model",
}

_SUBMODULES = ("atomic", "bayes", "cli", "errors", "evaluation", "features", "geocode", "tweet_model")

__all__ = sorted(_SOURCES) + ["__version__"]


def __getattr__(name: str):
    """Import a public name, or a submodule not yet imported, on first use."""
    if name in _SOURCES:
        value = getattr(__import__(_SOURCES[name], globals(), None, [name], 1), name)
    elif name in _SUBMODULES:
        value = __import__(name, globals(), None, ["__name__"], 1)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SOURCES})
