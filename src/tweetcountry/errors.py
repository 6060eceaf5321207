"""Exception types shared across the package, each with the exit code and
stderr prefix the command line reports it with (0 is success), and the one
way the package logs a warning."""

EXIT_INPUT = 2
EXIT_MODEL = 3
EXIT_GEOCODER = 4

# Format of the stderr handler that the first warning installs on the root
# logger, or None to leave logging as the caller set it up. main_script sets
# it; like logging's own configuration, it holds for the whole process.
warning_format: str | None = None


def warn(logger: str, message: str, *args) -> None:
    """Log a WARNING record on the named logger.

    ``logging`` is imported here, at the first warning, so a run that warns
    about nothing never loads it.
    """
    global warning_format
    import logging

    if warning_format is not None:
        logging.basicConfig(level=logging.WARNING, format=warning_format)
        warning_format = None
    logging.getLogger(logger).warning(message, *args)


class TweetCountryError(Exception):
    """Base class for every error this package raises on purpose."""

    exit_code = EXIT_INPUT
    prefix = "error"


class GeocodingError(TweetCountryError):
    """Base class for the errors of gazetteers, geocoders and labeling."""

    exit_code = EXIT_GEOCODER
    prefix = "geocoding error"


class MalformedInput(TweetCountryError):
    """Raw tweet JSON is not an object, or a present field has an invalid type or value."""


class ResolverFailure(GeocodingError):
    """A tweet carries coordinates but reverse geocoding could not produce a country."""


class GeoparserFailure(GeocodingError):
    """Forward geocoding of a free-text location failed."""


class RemoteUnavailable(GeocodingError):
    """A remote geocoding backend could not be reached or refused to answer."""


class InvalidQuery(GeocodingError):
    """A geocoding query is empty after trimming."""


class ConflictingEntry(GeocodingError):
    """A gazetteer source maps the same normalized name to two different countries."""


class EmptyTrainingSet(TweetCountryError):
    """Training was requested with zero examples."""


class CorruptModel(TweetCountryError):
    """A model file is unreadable or violates a model invariant."""

    exit_code = EXIT_MODEL
    prefix = "model error"


class EmptyEvaluationSet(TweetCountryError):
    """Scoring was requested with zero predictions."""


class InvalidFoldCount(TweetCountryError):
    """Fold count k is outside 2 <= k <= number of examples."""
