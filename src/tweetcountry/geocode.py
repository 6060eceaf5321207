"""Country resolution: offline gazetteer, nearest-point reverse lookup, cache, remote hook.

Lookups go cache, then the offline tier, then an optional remote backend.
Misses are cached as negatives so they are never retried; remote outages are
never cached. The cache file is append-only TSV, last entry per key wins.
"""

from __future__ import annotations

import _thread
import math
import os
import re
import time
from bisect import bisect_left, bisect_right
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Protocol

from .atomic import write_text_atomic
from .errors import ConflictingEntry, InvalidQuery, warn
from .features import normalize_place
from .tweet_model import OTHER_LABEL, bundled_data, is_country_code, number, table_lines

NEGATIVE_MARK = "-"
REVERSE_KEY_PREFIX = "reverse:"
EARTH_RADIUS_KM = 6371.0088
DEFAULT_MAX_DISTANCE_KM = 300.0
# Degrees added to each side of a query's latitude band, far above float rounding.
_BAND_MARGIN_DEG = 1e-6

_TOKEN_TRIM = ".,!?;:()[]\"'"

# The latest cache stamp's whole UTC second and its "YYYY-MM-DDTHH:MM:SS"
# text. Replaced as one pair, so a concurrent put never joins one second's
# text to another second's microseconds.
_stamp_second: tuple[int | None, str] = (None, "")


class RemoteGeocoder(Protocol):
    """Adapter interface a remote geocoding backend must provide.

    Both methods return an uppercase alpha-2 code, or None for a definite
    miss, and raise RemoteUnavailable when the backend cannot answer.
    """

    def forward(self, query: str) -> str | None: ...

    def reverse(self, lat: float, lon: float) -> str | None: ...


class Gazetteer:
    """Normalized place name to country code table."""

    def __init__(self) -> None:
        self._entries: dict[str, tuple[str, str]] = {}
        # Token count of the longest key; no longer span can equal a key.
        self._max_tokens = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: str) -> bool:
        return normalize_place(name) in self._entries

    def add(self, name: str, country: str, provenance: str = "runtime") -> None:
        key = normalize_place(name)
        if not key:
            raise ValueError("gazetteer name must be non-empty")
        if not is_country_code(country):
            raise ValueError(f"invalid country code {country!r} for {name!r}")
        if country == OTHER_LABEL:
            raise ValueError(f"gazetteer must not map {name!r} to the collapse label")
        existing = self._entries.get(key)
        if existing is not None and existing[0] != country:
            raise ConflictingEntry(
                f"{key!r} maps to {existing[0]} (from {existing[1]}) and to {country} (from {provenance})"
            )
        if existing is None:
            self._entries[key] = (country, provenance)
            self._max_tokens = max(self._max_tokens, len(key.split()))

    def get(self, name: str) -> str | None:
        """Exact lookup of one normalized name."""
        entry = self._entries.get(normalize_place(name))
        return entry[0] if entry else None

    def lookup(self, query: str) -> str | None:
        """Resolve free text to a country code, or None.

        Tries the whole normalized query, then comma-separated segments, then
        contiguous token spans longest first and leftmost first, so the answer
        is a single deterministic value. Spans longer than the longest key are
        skipped, which keeps the cost linear in the query's token count.
        """
        key = normalize_place(query)
        if not key:
            return None
        entry = self._entries.get(key)
        if entry:
            return entry[0]
        if "," in query:
            for segment in query.split(","):
                seg_key = normalize_place(segment)
                if seg_key and (entry := self._entries.get(seg_key)):
                    return entry[0]
        tokens = [
            token.strip(_TOKEN_TRIM)
            for token in key.replace(",", " ").split()
        ]
        tokens = [token for token in tokens if token]
        count = len(tokens)
        for length in range(min(count, self._max_tokens), 0, -1):
            for start in range(count - length + 1):
                span = " ".join(tokens[start : start + length])
                if span != key and (entry := self._entries.get(span)):
                    return entry[0]
        return None


def parse_gazetteer(source: bytes | Iterable[str], provenance: str) -> Gazetteer:
    """Build a gazetteer from a line table (``table_lines``) of name<TAB>alpha2."""
    table = Gazetteer()
    for where, line in table_lines(source, provenance):
        fields = line.split("\t")
        if len(fields) != 2 or not fields[0].strip() or not fields[1].strip():
            raise ValueError(f"{where}: expected name<TAB>alpha2, got {line!r}")
        table.add(fields[0], fields[1].strip(), provenance=where)
    return table


def load_gazetteer(path: str | Path) -> Gazetteer:
    return parse_gazetteer(Path(path).read_bytes(), str(path))


def default_gazetteer() -> Gazetteer:
    """The gazetteer bundled with the package."""
    return parse_gazetteer(bundled_data("gazetteer.tsv"), "bundled:gazetteer.tsv")


class CacheEntry(NamedTuple):
    country: str | None  # None is a cached negative
    source: str
    timestamp: str


def _escape_key(key: str) -> str:
    return (
        key.replace("\\", "\\\\")
        .replace("\t", "\\t")
        .replace("\n", "\\n")
        .replace("\r", "\\r")
    )


def _cache_line(key: str, entry: CacheEntry) -> str:
    """One cache file line: escaped key, outcome, source and timestamp."""
    fields = (_escape_key(key), entry.country or NEGATIVE_MARK, entry.source, entry.timestamp)
    return "\t".join(fields) + "\n"


def _utc_stamp() -> str:
    """The current UTC time as ``datetime.now(timezone.utc).isoformat()`` writes
    it, microseconds truncated, and without a fraction at microsecond 0. The
    date and time of day are formatted once per second."""
    global _stamp_second
    second, micro = divmod(time.time_ns() // 1000, 1_000_000)
    cached = _stamp_second
    if cached[0] != second:
        cached = _stamp_second = (second, "%04d-%02d-%02dT%02d:%02d:%02d" % time.gmtime(second)[:6])
    if micro:
        return f"{cached[1]}.{micro:06d}+00:00"
    return cached[1] + "+00:00"


_UNESCAPES = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}


def _unescape_key(key: str) -> str:
    """Undo ``_escape_key``; an unknown escape keeps its character, and a
    trailing backslash stays."""
    return re.sub(r"\\(.)", lambda m: _UNESCAPES.get(m[1], m[1]), key, flags=re.DOTALL)


def _utf8_or_none(raw: bytes) -> str | None:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        return None


class GeocodeCache:
    """Query outcome cache, optionally persisted as append-only TSV.

    Columns: escaped key, outcome ("-" for a negative), source, UTC timestamp.
    On load the last entry per key wins, so appending is always safe. Session
    hit and miss counters cover this process only. Used as a context manager,
    the cache appends through one descriptor and closes it on exit.
    """

    def __init__(self, path: str | Path | None = None):
        self._path = Path(path) if path is not None else None
        self._entries: dict[str, CacheEntry] = {}
        # threading.Lock's own type, without importing threading.
        self._lock = _thread.allocate_lock()
        self.hits = 0
        self.misses = 0
        # Inside ``with`` (_hold), the append descriptor the first put opened.
        self._fd: int | None = None
        self._hold = False
        # True when the file may end inside a line: the next append ends it first.
        self._torn = False
        if self._path is not None:
            self._load()

    @property
    def path(self) -> Path | None:
        return self._path

    def __len__(self) -> int:
        return len(self._entries)

    def _load(self) -> None:
        """Read the file's entries. Lines end at a line feed, and a carriage
        return before it is dropped; a line that is not UTF-8 text of four
        fields is skipped with a warning. Only a missing file is an empty
        cache: any other error reading it, such as a symlink loop, is raised.

        The file is read once and decoded whole; only a file that is not
        UTF-8 throughout is decoded line by line, so each warning keeps its
        line number."""
        assert self._path is not None
        try:
            data = self._path.read_bytes()
        except FileNotFoundError:
            return
        self._torn = bool(data) and not data.endswith(b"\n")
        try:
            lines: list[str | None] = data.decode("utf-8").split("\n")
        except UnicodeDecodeError:
            lines = [_utf8_or_none(raw) for raw in data.split(b"\n")]
        entries = self._entries
        # CacheEntry(...) runs a Python __new__; tuple.__new__ builds the same record in C.
        new_entry = tuple.__new__
        for lineno, line in enumerate(lines, 1):
            if line is None:
                fields = ()
            else:
                line = line.removesuffix("\r")
                if not line:
                    continue
                fields = line.split("\t")
            if len(fields) != 4:
                warn(__name__, "%s:%d: skipping malformed cache line", self._path, lineno)
                continue
            key, outcome, source, stamp = fields
            if outcome == NEGATIVE_MARK:
                outcome = None
            elif not is_country_code(outcome):
                warn(__name__, "%s:%d: skipping invalid outcome %r", self._path, lineno, outcome)
                continue
            if "\\" in key:
                key = _unescape_key(key)
            entries[key] = new_entry(CacheEntry, (outcome, source, stamp))

    def get(self, key: str) -> CacheEntry | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
            else:
                self.hits += 1
            return entry

    def __enter__(self) -> GeocodeCache:
        """Hold one append descriptor, opened by the first put, until exit."""
        self._hold = True
        return self

    def __exit__(self, *exc_info) -> None:
        with self._lock:
            self._hold = False
            self._close_held()

    def _close_held(self) -> None:
        fd, self._fd = self._fd, None
        if fd is not None:
            os.close(fd)

    def put(self, key: str, country: str | None, source: str) -> CacheEntry:
        """Record an outcome, and append it to the file if the cache has one.

        The entry's timestamp is the current UTC time in
        ``datetime.isoformat`` form. The line is encoded first, so a key that
        is not valid Unicode text raises before memory or file changes, as do
        an empty key and a source that holds a tab or line break. Each
        entry is appended whole, with one write loop on an ``O_APPEND``
        descriptor: inside ``with``, the one the first put opened; outside it,
        one opened for this entry. When the loaded file did not end in a line
        feed, or an earlier put's write stopped partway, the same write starts
        with a line feed, so the entry does not join the torn line.
        """
        if not key:
            raise ValueError("cache key must be non-empty")
        # Unlike the key, the source is written unescaped: a tab or line break would split the line.
        if "\t" in source or "\n" in source or "\r" in source:
            raise ValueError(f"cache source must not hold a tab or line break: {source!r}")
        if country is not None and not is_country_code(country):
            raise ValueError(f"invalid cached country {country!r}")
        entry = CacheEntry(country, source, _utc_stamp())
        line = _cache_line(key, entry).encode("utf-8")
        with self._lock:
            self._entries[key] = entry
            if self._path is not None:
                fd = self._fd
                if fd is None:
                    fd = os.open(self._path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
                    if self._hold:
                        self._fd = fd
                data = b"\n" + line if self._torn else line
                size = len(data)
                try:
                    while data:
                        data = data[os.write(fd, data) :]
                finally:
                    if len(data) < size:
                        # Some bytes landed: the file ends in a newline only if all did.
                        self._torn = bool(data)
                    if fd != self._fd:
                        os.close(fd)
        return entry

    def stats(self) -> dict:
        with self._lock:
            negatives = sum(1 for entry in self._entries.values() if entry.country is None)
            return {
                "path": str(self._path) if self._path else None,
                "entries": len(self._entries),
                "positives": len(self._entries) - negatives,
                "negatives": negatives,
                "session_hits": self.hits,
                "session_misses": self.misses,
            }

    def compact(self) -> int:
        """Rewrite the file with one line per key, sorted. Returns entry count.

        A held descriptor is closed first, so a later put opens the new file
        instead of appending to the replaced one."""
        with self._lock:
            if self._path is None:
                return len(self._entries)
            self._close_held()
            lines = [_cache_line(key, self._entries[key]) for key in sorted(self._entries)]
            write_text_atomic(self._path, "".join(lines))
            self._torn = False
            return len(self._entries)


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance between two points, in kilometers."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2) ** 2
    if a > 1.0:  # rounding, for nearly antipodal points
        a = 1.0
    return 2 * EARTH_RADIUS_KM * math.asin(math.sqrt(a))


class ReferencePoint(NamedTuple):
    lat: float
    lon: float
    country: str
    name: str


class ReversePointIndex:
    """Nearest labeled point lookup with a distance ceiling.

    Points far out at sea match nothing; the ceiling keeps a desk-scale
    fixture from claiming the whole planet. The ceiling is inclusive, and of
    equally near points the later one in the list wins.
    """

    def __init__(self, points: Iterable[ReferencePoint], max_distance_km: float = DEFAULT_MAX_DISTANCE_KM):
        self._points = list(points)
        for point in self._points:
            if not -90.0 <= point.lat <= 90.0:
                raise ValueError(f"latitude out of range: {point.lat}")
            if not -180.0 <= point.lon <= 180.0:
                raise ValueError(f"longitude out of range: {point.lon}")
        self.max_distance_km = max_distance_km
        # (list position, point) pairs in latitude order, and those latitudes,
        # for the band search.
        self._by_lat = sorted(enumerate(self._points), key=lambda pair: pair[1].lat)
        self._lats = [point.lat for _, point in self._by_lat]

    def __len__(self) -> int:
        return len(self._points)

    def nearest_country(self, lat: float, lon: float) -> str | None:
        """Country of the nearest point within the ceiling, or None.

        lat must lie within 90 degrees, as Geocoder.reverse checks. Only points
        inside the query's latitude band are measured: the distance is at least
        the earth's radius times the latitude difference, so a point further
        off in latitude than the ceiling's angle cannot match. Of those, a
        point further off in longitude than the band allows is skipped too:
        the query and every band point lie within ``|lat| + reach`` degrees of
        the equator, so sin^2(d / 2R) >= cos^2(|lat| + reach) * sin^2(dlon / 2).
        The longitude cut applies only when that band stays off the poles and
        the ceiling's angle is below pi; a NaN query or ceiling measures the
        whole band. Candidates are visited in latitude order; a tie goes to
        the later point in the list, so the answer equals a scan over every
        point.
        """
        best: str | None = None
        best_distance = self.max_distance_km
        angle = best_distance / EARTH_RADIUS_KM
        reach = math.degrees(angle) + _BAND_MARGIN_DEG
        band = self._by_lat[bisect_left(self._lats, lat - reach) : bisect_right(self._lats, lat + reach)]
        # Longitude differences in (lon_reach, 360 - lon_reach) cannot match;
        # at 180 that interval is empty.
        lon_reach = 180.0
        edge = abs(lat) + reach
        if edge < 90.0 and angle < math.pi:
            limit = math.sin(angle / 2) / math.cos(math.radians(edge))
            if limit < 1.0:
                lon_reach = math.degrees(2 * math.asin(limit)) + _BAND_MARGIN_DEG
        lon_far = 360.0 - lon_reach
        best_index = -1
        for index, point in band:
            if lon_reach < abs(lon - point.lon) < lon_far:
                continue
            distance = haversine_km(lat, lon, point.lat, point.lon)
            if distance < best_distance or (distance == best_distance and index > best_index):
                best = point.country
                best_distance = distance
                best_index = index
        return best


def parse_reverse_points(source: bytes | Iterable[str], provenance: str) -> list[ReferencePoint]:
    """Parse a line table (``table_lines``) of lat<TAB>lon<TAB>alpha2<TAB>name."""
    points: list[ReferencePoint] = []
    for where, line in table_lines(source, provenance):
        fields = line.split("\t")
        if len(fields) != 4:
            raise ValueError(f"{where}: expected lat, lon, alpha2, name")
        try:
            lat, lon = number(fields[0]), number(fields[1])
        except ValueError:
            raise ValueError(f"{where}: coordinates must be numbers") from None
        if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
            raise ValueError(f"{where}: coordinates out of range")
        code = fields[2].strip()
        if not is_country_code(code):
            raise ValueError(f"{where}: invalid country code {code!r}")
        points.append(ReferencePoint(lat, lon, code, fields[3].strip()))
    return points


def load_reverse_points(path: str | Path) -> ReversePointIndex:
    return ReversePointIndex(parse_reverse_points(Path(path).read_bytes(), str(path)))


def default_reverse_index() -> ReversePointIndex:
    """The reverse lookup fixture bundled with the package."""
    return ReversePointIndex(
        parse_reverse_points(bundled_data("reverse_points.tsv"), "bundled:reverse_points.tsv")
    )


def reverse_cache_key(lat: float, lon: float) -> str:
    """Cache key for reverse lookups: coordinates rounded to 4 decimals."""
    rlat = round(lat, 4) + 0.0  # normalize -0.0
    rlon = round(lon, 4) + 0.0
    return f"{REVERSE_KEY_PREFIX}{rlat:.4f},{rlon:.4f}"


class Geocoder:
    """Cached, gazetteer-first forward and reverse country resolution.

    ``reverse_index`` may also be a function that builds the index, called
    on the first reverse lookup. The remote backend is optional and given
    here, where its ``max_in_flight`` slots are made: at most that many
    remote calls run concurrently. Remote answers (including definite
    misses) are cached; RemoteUnavailable is propagated and never cached.
    """

    def __init__(
        self,
        gazetteer: Gazetteer | None = None,
        cache: GeocodeCache | None = None,
        remote: RemoteGeocoder | None = None,
        reverse_index: ReversePointIndex | Callable[[], ReversePointIndex] | None = None,
        max_in_flight: int = 1,
    ):
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be at least 1")
        self.gazetteer = gazetteer if gazetteer is not None else Gazetteer()
        self.cache = cache if cache is not None else GeocodeCache()
        self.remote = remote
        self.reverse_index = reverse_index
        # Only remote calls take a slot, so a run without a backend never
        # imports threading.
        if remote is not None:
            import threading

            self._remote_slots = threading.BoundedSemaphore(max_in_flight)

    def forward(self, query: str) -> str | None:
        """Resolve free-text location to a country code, or None for a miss."""
        if not query or not query.strip():
            raise InvalidQuery("forward geocode query is empty")
        return self._resolve(query, self.gazetteer.lookup, "gazetteer", "forward", query)

    def reverse(self, lat: float, lon: float) -> str | None:
        """Resolve coordinates to a country code, or None for open water."""
        if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
            raise ValueError(f"coordinates out of range: ({lat}, {lon})")
        index = self.reverse_index
        if callable(index):
            index = self.reverse_index = index()
        offline = index.nearest_country if index is not None else None
        return self._resolve(reverse_cache_key(lat, lon), offline, "points", "reverse", lat, lon)

    def _resolve(self, key: str, offline, source: str, remote_method: str, *args) -> str | None:
        """The cached outcome for key, else ``offline(*args)`` (None when absent),
        else the remote backend's ``remote_method(*args)``. The outcome, a miss
        included, is cached under key with the source of the last tier asked."""
        cached = self.cache.get(key)
        if cached is not None:
            return cached.country
        country = offline(*args) if offline is not None else None
        if country is None and self.remote is not None:
            with self._remote_slots:
                country = getattr(self.remote, remote_method)(*args)
            source = "remote"
        self.cache.put(key, country, source)
        return country

