"""In-process tracing of tweetcountry's layers, from outside the package.

``Tracer.install`` replaces each traced function with a wrapper that records a
span (id, name, start, end, parent id, run id) in memory; spans are kept for
the first traced run only, aggregates for every run. A function is
patched under every module attribute that holds it, because ``cli`` and
``evaluation`` bind names such as ``train`` and ``record_from_dict`` at import
time; methods are patched on their classes. ``uninstall`` restores the
originals. Self time is a span's duration minus the time its child spans
cover. A child covers its whole wrapper, bookkeeping included, so the tracer's
own work is charged to no span; it shows only in ``trace.overhead_ratio``.
``haversine_km`` is only counted: a span around every distance would swamp the
scan it measures. Its counting wrapper runs inside
``ReversePointIndex.nearest_country`` and is charged to that span's self time.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

# (module, qualified name) of every traced function or method.
TRACED = (
    ("tweet_model", "parse_tweet"),
    ("tweet_model", "record_from_dict"),
    ("tweet_model", "label_of"),
    ("tweet_model", "to_flat_dict"),
    ("features", "extract_features"),
    ("geocode", "Gazetteer.lookup"),
    ("geocode", "ReversePointIndex.nearest_country"),
    ("geocode", "Geocoder.forward"),
    ("geocode", "Geocoder.reverse"),
    ("geocode", "GeocodeCache.__init__"),
    ("geocode", "GeocodeCache.get"),
    ("geocode", "GeocodeCache.put"),
    ("geocode", "default_gazetteer"),
    ("geocode", "default_reverse_index"),
    ("bayes", "train"),
    ("bayes", "classify"),
    ("bayes", "log_posterior"),
    ("bayes", "save_model"),
    ("bayes", "load_model"),
    ("bayes", "load_model_config"),
    ("evaluation", "load_labeled_ndjson"),
    ("evaluation", "ablate"),
    ("evaluation", "per_country_report"),
    ("evaluation", "diagnostic_tags"),
    ("evaluation", "majority_class"),
    ("evaluation", "write_ablation_json"),
    ("evaluation", "write_ablation_csv"),
    ("evaluation", "write_per_country_json"),
    ("evaluation", "write_per_country_csv"),
    ("cli", "main"),
    ("cli", "build_geocoder"),
    ("cli", "cmd_label"),
    ("cli", "cmd_train"),
    ("cli", "cmd_classify"),
    ("cli", "cmd_ablate"),
    ("cli", "cmd_report"),
)
COUNTED = (("geocode", "haversine_km"),)
MODULES = ("tweet_model", "features", "geocode", "bayes", "evaluation", "cli")

COUNT, SECONDS, RATIO = "count", "s", "ratio"

# Per-layer metrics in report order, with units. Every name is in BENCHMARK.json.
PER_LAYER = (
    ("tweet_model.parse_tweet.calls", COUNT),
    ("tweet_model.parse_tweet.self_s", SECONDS),
    ("tweet_model.record_from_dict.self_s", SECONDS),
    ("tweet_model.label_of.self_s", SECONDS),
    ("tweet_model.malformed", COUNT),
    ("features.extract_features.calls", COUNT),
    ("features.extract_features.self_s", SECONDS),
    ("geocode.ReversePointIndex.nearest_country.calls", COUNT),
    ("geocode.ReversePointIndex.nearest_country.self_s", SECONDS),
    ("geocode.ReversePointIndex.nearest_country.hit_ratio", RATIO),
    ("geocode.haversine_km.calls", COUNT),
    ("geocode.Gazetteer.lookup.calls", COUNT),
    ("geocode.Gazetteer.lookup.self_s", SECONDS),
    ("geocode.Gazetteer.lookup.hit_ratio", RATIO),
    ("geocode.Geocoder.forward.self_s", SECONDS),
    ("geocode.Geocoder.reverse.self_s", SECONDS),
    ("geocode.GeocodeCache.get.calls", COUNT),
    ("geocode.GeocodeCache.hit_ratio", RATIO),
    ("geocode.GeocodeCache.put.calls", COUNT),
    ("geocode.GeocodeCache.put.self_s", SECONDS),
    ("geocode.GeocodeCache.init_s", SECONDS),
    ("bayes.train.calls", COUNT),
    ("bayes.train.self_s", SECONDS),
    ("bayes.train.examples", COUNT),
    ("bayes.log_posterior.calls", COUNT),
    ("bayes.log_posterior.self_s", SECONDS),
    ("bayes.oov_ratio", RATIO),
    ("bayes.save_model.self_s", SECONDS),
    ("bayes.load_model.self_s", SECONDS),
    ("bayes.load_model_config.self_s", SECONDS),
    ("evaluation.diagnostic_tags.calls", COUNT),
    ("evaluation.diagnostic_tags.self_s", SECONDS),
    ("evaluation.majority_class.calls", COUNT),
    ("evaluation.majority_class.self_s", SECONDS),
    ("evaluation.ablate.self_s", SECONDS),
    ("evaluation.per_country_report.self_s", SECONDS),
    ("evaluation.load_labeled_ndjson.self_s", SECONDS),
    ("evaluation.write_s", SECONDS),
    ("cli.cmd_label.wall_s", SECONDS),
    ("cli.cmd_train.wall_s", SECONDS),
    ("cli.cmd_classify.wall_s", SECONDS),
    ("cli.cmd_ablate.wall_s", SECONDS),
    ("cli.cmd_report.wall_s", SECONDS),
    ("cli.build_geocoder.self_s", SECONDS),
    ("cli.self_s", SECONDS),
    ("trace.overhead_ratio", RATIO),
)


def _resolve(module, qualname: str):
    owner = module
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Span recorder; one instance per traced benchmark run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.run_id = 0
        self._next_id = 0
        self._stack: list[list] = []  # [span id, child seconds] per open span
        self._patches: list[tuple] = []
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()
        self.events: Counter = Counter()

    def _observe(self, name: str, args, result, error) -> None:
        events = self.events
        if error is not None:
            if name == "tweet_model.parse_tweet" and type(error).__name__ == "MalformedInput":
                events["tweet_model.malformed"] += 1
            return
        if name in ("geocode.ReversePointIndex.nearest_country", "geocode.Gazetteer.lookup",
                    "geocode.GeocodeCache.get"):
            if result is not None:
                events[name + ".hits"] += 1
        elif name == "bayes.train":
            events["bayes.train.examples"] += result.total_examples
        elif name == "bayes.log_posterior":
            model, vector = args[0], args[1]
            for kind, value in vector.items():
                events["bayes.values"] += 1
                if value not in model.vocabulary.get(kind, ()):
                    events["bayes.oov"] += 1

    def _span(self, name: str, fn):
        stack, spans, tracer = self._stack, self.spans, self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            entered = clock()
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error, result = exc, None
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if tracer.run_id == 0:
                    spans.append((span_id, name, start, end, parent, 0))
                tracer.calls[name] += 1
                tracer.total_s[name] += duration
                tracer.self_s[name] += duration - frame[1]
                tracer._observe(name, args, result, error)
                if stack:
                    stack[-1][1] += clock() - entered

        return wrapper

    def _counter(self, name: str, fn):
        events, key = self.events, name + ".calls"

        def wrapper(*args):
            events[key] += 1
            return fn(*args)

        return wrapper

    def install(self) -> None:
        modules = {name: sys.modules[f"tweetcountry.{name}"] for name in MODULES}
        targets = [(entry, self._span) for entry in TRACED] + [(entry, self._counter) for entry in COUNTED]
        for (module_name, qualname), make in targets:
            owner, attr = _resolve(modules[module_name], qualname)
            original = getattr(owner, attr)
            wrapper = make(f"{module_name}.{qualname}", original)
            if owner is modules[module_name]:
                # Every module that imported the function by name holds its own binding.
                owners = [m for m in modules.values() if getattr(m, attr, None) is original]
            else:
                owners = [owner]
            for target in owners:
                setattr(target, attr, wrapper)
                self._patches.append((target, attr, original))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def reset_counters(self) -> None:
        for counter in (self.calls, self.self_s, self.total_s, self.events):
            counter.clear()

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of the counters since the last reset."""
        calls, self_s, total_s, events = self.calls, self.self_s, self.total_s, self.events
        counted = {f"{module}.{qualname}" for module, qualname in COUNTED}

        def ratio(numerator, denominator):
            return numerator / denominator if denominator else 0.0

        out: dict[str, float] = {}
        for name, _ in PER_LAYER:
            stem, _, field = name.rpartition(".")
            if field == "calls":
                out[name] = events[name] if stem in counted else calls[stem]
            elif field == "self_s":
                out[name] = self_s[stem]
            elif field == "wall_s":
                out[name] = total_s[stem]
            elif field == "hit_ratio":
                span = "geocode.GeocodeCache.get" if stem == "geocode.GeocodeCache" else stem
                out[name] = ratio(events[span + ".hits"], calls[span])
        out["geocode.GeocodeCache.init_s"] = total_s["geocode.GeocodeCache.__init__"]
        out["tweet_model.malformed"] = events["tweet_model.malformed"]
        out["bayes.train.examples"] = events["bayes.train.examples"]
        out["bayes.oov_ratio"] = ratio(events["bayes.oov"], events["bayes.values"])
        out["evaluation.write_s"] = sum(
            total_s[name] for name in total_s if name.startswith("evaluation.write_")
        )
        out["cli.self_s"] = sum(
            self_s[name] for name in self_s if name == "cli.main" or name.startswith("cli.cmd_")
        )
        return out

    def write(self, path: Path) -> None:
        """All recorded spans, one JSON array per line."""
        with path.open("w", encoding="utf-8") as handle:
            handle.write('["id", "name", "start", "end", "parent", "run"]\n')
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(sample[name] for sample in samples) for name in samples[0]}
