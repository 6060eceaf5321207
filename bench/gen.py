"""Seeded offline corpus generator for the tweetcountry benchmark.

Reads only the bundled data files under ``src/tweetcountry/data`` and the mix
in ``bench/workloads.json``. The same seed text and size always give the same
bytes. Raw tweets use the nested streaming layout; labeled records use the
flat keys the parser reads (``lon``/``lat``, ``place_country_code``).
"""

from __future__ import annotations

import bisect
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
DATA_DIR = Path("src") / "tweetcountry" / "data"
EARTH_RADIUS_KM = 6371.0088
TIE_MARGIN_KM = 1.0
# About 5 km around a reference point: every coordinate tweet gets its own
# reverse cache key, and the nearest reference point stays in the home country
# (checked in Generator.home_coordinates).
COORDINATE_JITTER_DEG = 0.05
# Open-ocean points lie at least this far from every reference point, beyond
# the 300 km reverse ceiling, so they are unresolvable by construction.
OPEN_OCEAN_MIN_KM = 400.0

_ADJECTIVES = ("sunny", "lost", "happy", "quiet", "little", "wild", "sleepy", "cosmic", "golden", "hidden")
_PLACES = ("somewhere", "nowhere", "my room", "the moon", "cloud nine", "wonderland",
           "dreamland", "the internet", "your heart", "the road")
_PHRASES = ("living in {}", "{} born and raised", "somewhere in {}", "{} for now", "home: {}")
_OCEAN_ANCHORS = ((-40.0, -25.0), (0.0, -140.0), (-30.0, 80.0), (30.0, -45.0),
                  (-55.0, 150.0), (10.0, -30.0), (-20.0, -110.0), (45.0, -160.0))
_WORDS = ("good", "morning", "coffee", "match", "tonight", "rain", "music", "news", "love", "weekend")


def load_mix() -> dict:
    """The mix values from workloads.json, without their reasons."""
    document = json.loads((BENCH_DIR / "workloads.json").read_text(encoding="utf-8"))
    return {name: entry["value"] for name, entry in document["mix"].items()}


def load_sizes(size: str) -> dict:
    document = json.loads((BENCH_DIR / "workloads.json").read_text(encoding="utf-8"))
    return document["sizes"][size]


def _tsv_rows(path: Path, columns: int) -> list[list[str]]:
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) == columns:
            rows.append(fields)
    return rows


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi, dlam = math.radians(lat2 - lat1), math.radians(lon2 - lon1)
    a = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2) ** 2
    return 2 * EARTH_RADIUS_KM * math.asin(math.sqrt(a))


def _tokens(text: str) -> list[str]:
    return [t.strip(".,!?;:()[]\"'") for t in text.casefold().replace(",", " ").split()]


@dataclass
class World:
    """Per-country profiles derived from the bundled gazetteer and points."""

    countries: list[str]  # gazetteer order, which is the skew rank
    names: dict[str, list[str]]
    points: list[tuple[float, float, str, str]]
    home_points: dict[str, list[tuple[float, float, str, str]]]
    offsets: dict[str, int]
    gazetteer_keys: set[str]

    @classmethod
    def load(cls, root: Path) -> "World":
        names: dict[str, list[str]] = {}
        for name, code in _tsv_rows(root / DATA_DIR / "gazetteer.tsv", 2):
            names.setdefault(code.strip(), []).append(name.strip())
        points = [
            (float(lat), float(lon), code.strip(), name.strip())
            for lat, lon, code, name in _tsv_rows(root / DATA_DIR / "reverse_points.tsv", 4)
        ]
        home_points: dict[str, list] = {}
        for point in points:
            home_points.setdefault(point[2], []).append(point)
        countries = [code for code in names if code in home_points]
        offsets = {}
        for code in countries:
            mean_lon = sum(p[1] for p in home_points[code]) / len(home_points[code])
            offsets[code] = max(-12, min(14, round(mean_lon / 15))) * 3600
        keys = {name.casefold() for group in names.values() for name in group}
        return cls(countries, names, points, home_points, offsets, keys)

    def nearest(self, lat: float, lon: float) -> tuple[float, str, float]:
        """(best distance, its country, nearest distance of any other country)."""
        by_country: dict[str, float] = {}
        for plat, plon, code, _ in self.points:
            d = haversine_km(lat, lon, plat, plon)
            if d < by_country.get(code, math.inf):
                by_country[code] = d
        ranked = sorted(by_country.items(), key=lambda item: item[1])
        return ranked[0][1], ranked[0][0], ranked[1][1]

    def misses_gazetteer(self, text: str) -> bool:
        tokens = [t for t in _tokens(text) if t]
        spans = {" ".join(tokens[i:j]) for i in range(len(tokens)) for j in range(i + 1, len(tokens) + 1)}
        return not (spans & self.gazetteer_keys) and text.casefold() not in self.gazetteer_keys


class Generator:
    """Draws tweets for one corpus; every draw comes from one seeded stream."""

    def __init__(self, world: World, mix: dict, seed_text: str):
        self.world = world
        self.mix = mix
        self.rng = random.Random(seed_text)
        exponent = mix["country_skew"]["zipf_exponent"]
        self._weights = [1.0 / (rank ** exponent) for rank in range(1, len(world.countries) + 1)]
        total = 0.0
        self._cumulative = []
        for weight in self._weights:
            total += weight
            self._cumulative.append(total)
        self._misses = [
            text
            for text in [f"{a} {p}" for a in _ADJECTIVES for p in _PLACES] + list(_PLACES)
            if world.misses_gazetteer(text)
        ]
        self.max_chars = mix["location_max_chars"]

    def _pick(self, options):
        return options[int(self.rng.random() * len(options))]

    def _share(self, shares: dict) -> str:
        draw = self.rng.random()
        for name, share in shares.items():
            if draw < share:
                return name
            draw -= share
        return name

    def country(self) -> str:
        draw = self.rng.random() * self._cumulative[-1]
        return self.world.countries[min(bisect.bisect_right(self._cumulative, draw), len(self.world.countries) - 1)]

    def countries(self, n: int) -> list[str]:
        """n countries in the skew's exact proportions (largest remainder), in seeded order.

        Every seed gets the same multiset of countries, so the number of
        classes, and with it the scoring work, does not vary with the seed.
        """
        quotas = [n * weight / self._cumulative[-1] for weight in self._weights]
        counts = [int(quota) for quota in quotas]
        by_remainder = sorted(range(len(quotas)), key=lambda i: (counts[i] - quotas[i], i))
        for index in by_remainder[: n - sum(counts)]:
            counts[index] += 1
        drawn = [code for code, count in zip(self.world.countries, counts) for _ in range(count)]
        self.rng.shuffle(drawn)
        return drawn

    def location(self, code: str) -> str | None:
        kind = self._share(self.mix["location"])
        if kind == "absent":
            return None
        if kind == "free_text_miss":
            return self._pick(self._misses)
        name = self._pick(self.world.names[code])
        name = self._pick((name, name.title(), name.upper()))
        if kind == "name_with_country":
            text = f"{name}, {self.world.names[code][0].title()}"
        elif kind == "phrase_with_name":
            text = self._pick(_PHRASES).format(name)
        else:
            text = name
        return text if len(text) <= self.max_chars else name

    def profile(self, code: str) -> dict:
        """Metadata fields in the flat layout, absent fields omitted.

        Only the location follows a mix (workloads.json). The other fields are
        fixed functions of the home country, not guessed shares: a time zone
        named after one of its reference points, its whole-hour UTC offset,
        and its lower-cased code as both languages. So every Table 1 feature
        has a value on every record.
        """
        out: dict = {}
        location = self.location(code)
        if location is not None:
            out["user_location"] = location
        out["time_zone"] = self._pick(self.world.home_points[code])[3]
        out["utc_offset_seconds"] = self.world.offsets[code]
        out["tweet_language"] = out["user_language"] = code.lower()
        return out

    def home_coordinates(self, code: str) -> tuple[float, float]:
        """A point near one of the country's reference points whose nearest point is home."""
        while True:
            lat0, lon0, _, _ = self._pick(self.world.home_points[code])
            lat = round(max(-90.0, min(90.0, lat0 + (self.rng.random() * 2 - 1) * COORDINATE_JITTER_DEG)), 5)
            lon = round(max(-180.0, min(180.0, lon0 + (self.rng.random() * 2 - 1) * COORDINATE_JITTER_DEG)), 5)
            best, nearest_code, other = self.world.nearest(lat, lon)
            if nearest_code == code and other - best > TIE_MARGIN_KM and best < 250.0:
                return lat, lon

    def ocean_coordinates(self) -> tuple[float, float]:
        while True:
            lat0, lon0 = self._pick(_OCEAN_ANCHORS)
            lat = round(lat0 + (self.rng.random() * 2 - 1) * 2.0, 5)
            lon = round(lon0 + (self.rng.random() * 2 - 1) * 2.0, 5)
            if self.world.nearest(lat, lon)[0] > OPEN_OCEAN_MIN_KM:
                return lat, lon

    def text(self) -> str:
        return " ".join(self._pick(_WORDS) for _ in range(3 + int(self.rng.random() * 5)))


def _nested(tweet_id: str, text: str, flat: dict) -> dict:
    """The streaming API layout of one flat record."""
    place = None
    if "place_country_code" in flat:
        place = {"country_code": flat["place_country_code"], "place_type": "city"}
    coordinates = None
    if "lat" in flat:
        coordinates = {"type": "Point", "coordinates": [flat["lon"], flat["lat"]]}
    return {
        "id_str": tweet_id,
        "text": text,
        "lang": flat["tweet_language"],
        "user": {
            "location": flat.get("user_location"),
            "time_zone": flat.get("time_zone"),
            "utc_offset": flat.get("utc_offset_seconds"),
            "lang": flat["user_language"],
        },
        "place": place,
        "coordinates": coordinates,
    }


def _malformed(gen: Generator, index: int, tweet_id: str) -> str:
    """One line parse_tweet must reject; the forms rotate."""
    form = index % 5
    if form == 0:
        whole = json.dumps({"id_str": tweet_id, "text": gen.text(), "user": {"location": "x"}})
        return whole[: len(whole) // 2]
    if form == 1:
        return json.dumps([tweet_id, gen.text()])
    if form == 2:
        return json.dumps({"id_str": tweet_id, "user": "not an object"})
    if form == 3:
        return json.dumps({"id_str": tweet_id, "coordinates": {"type": "Point", "coordinates": [10.0, 95.0]}})
    return json.dumps({"id_str": tweet_id, "place": {"country_code": "G1"}})


def _dump(obj) -> str:
    return json.dumps(obj, ensure_ascii=False, sort_keys=True)


def exact_counts(n: int, shares: dict) -> dict[str, int]:
    """round(n * share) per kind; the first kind takes any rounding remainder."""
    counts = {name: round(n * share) for name, share in shares.items()}
    first = next(iter(shares))
    counts[first] += n - sum(counts.values())
    return counts


@dataclass
class Corpus:
    lines: list[str]
    labels: dict[str, str]  # tweet id -> true country, for records that carry a label
    counts: dict[str, int]  # records per geo kind
    ids: list[str]  # ids of the well-formed records, in file order

    @property
    def text(self) -> str:
        return "".join(line + "\n" for line in self.lines)


def raw_corpus(world: World, mix: dict, seed_text: str, n: int) -> Corpus:
    """Raw tweets in the nested layout with the mix's exact geo shares."""
    gen = Generator(world, mix, seed_text)
    counts = exact_counts(n, mix["geo"])
    kinds = [kind for kind, count in counts.items() for _ in range(count)]
    gen.rng.shuffle(kinds)
    labeled_slots = counts["place"] + counts["coordinates"]
    countries = iter(gen.countries(labeled_slots))
    lines, labels, ids = [], {}, []
    for index, kind in enumerate(kinds):
        tweet_id = f"{seed_text}-{index}"
        if kind == "malformed":
            lines.append(_malformed(gen, index, tweet_id))
            continue
        ids.append(tweet_id)
        code = next(countries) if kind in ("place", "coordinates") else gen.country()
        flat = gen.profile(code)
        if kind == "place":
            flat["place_country_code"] = code
        elif kind == "coordinates":
            flat["lat"], flat["lon"] = gen.home_coordinates(code)
        elif kind == "open_ocean":
            flat["lat"], flat["lon"] = gen.ocean_coordinates()
        if kind in ("place", "coordinates"):
            labels[tweet_id] = code
        lines.append(_dump(_nested(tweet_id, gen.text(), flat)))
    return Corpus(lines, labels, counts, ids)


def labeled_corpus(world: World, mix: dict, seed_text: str, n: int) -> Corpus:
    """Labeled records in the flat layout; geo kinds keep the raw mix's place:coordinates ratio."""
    gen = Generator(world, mix, seed_text)
    geo = mix["geo"]
    labeled = geo["coordinates"] + geo["place"]
    counts = exact_counts(n, {"coordinates": geo["coordinates"] / labeled, "place": geo["place"] / labeled})
    kinds = [kind for kind, count in counts.items() for _ in range(count)]
    gen.rng.shuffle(kinds)
    lines, labels = [], {}
    for index, (kind, code) in enumerate(zip(kinds, gen.countries(n))):
        tweet_id = f"{seed_text}-{index}"
        flat = gen.profile(code)
        if kind == "place":
            flat["place_country_code"] = code
        else:
            flat["lat"], flat["lon"] = gen.home_coordinates(code)
        flat.update({"id": tweet_id, "text": gen.text(), "country": code})
        labels[tweet_id] = code
        lines.append(_dump(flat))
    return Corpus(lines, labels, counts, list(labels))
