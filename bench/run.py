"""Benchmark runner for tweetcountry.

Run from the root of a checkout::

    python3 bench/run.py --workload build-cold --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --check       # byte-identical artifacts, small corpora
    python3 bench/run.py --selftest    # the benchmark's own checks
    python3 bench/run.py --record      # rewrite every reference digest

A benchmark run generates its inputs from the seed (input variant seed mod the
number of variants, each with committed digests), runs the workload's CLI
commands one child process at a time (a closed loop with one client) until
``--seconds`` have passed, checks every artifact, and prints one JSON object
as its last line. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs the same commands in this process with spans around each layer and
reports the per-layer metrics. bench/README.md explains the workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import gen  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402

ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCES = BENCH_DIR / "references.json"
BENCHMARK = ROOT / "BENCHMARK.json"
WORKLOADS = ("build-cold", "classify-warm", "crossval")
COMMAND_TIMEOUT_S = 120.0
REFERENCE_ARGV = [sys.executable, str(BENCH_DIR / "reference.py")]


@dataclass
class Step:
    """One CLI invocation: arguments after ``python -m tweetcountry``, and its input records."""

    argv: list[str]
    records: int


@dataclass
class Workload:
    name: str
    variant: int
    workdir: Path
    steps: list[Step]
    setup_steps: list[Step]  # the same commands on the smallest input each accepts
    artifacts: list[str]  # deterministic outputs of the timed steps
    injected: int  # input records per iteration the program rejects by design
    # Checks one iteration's outputs: (rejected records, problems).
    inspect: Callable[[list[dict]], tuple[int, list[str]]]
    restore: dict[str, bytes | None] = field(default_factory=dict)  # None: delete
    prep_steps: list[Step] = field(default_factory=list)  # run once per run, untimed
    prep_artifacts: list[str] = field(default_factory=list)

    @property
    def records(self) -> int:
        return sum(step.records for step in self.steps)

    def reset(self) -> None:
        """Put every file the commands read or write back to its starting state."""
        for name, content in self.restore.items():
            path = self.workdir / name
            if content is None:
                path.unlink(missing_ok=True)
            else:
                path.write_bytes(content)


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


def _read_ndjson(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _expect(summary: dict, where: str, **expected) -> list[str]:
    return [
        f"{where}: {key} is {summary.get(key)!r}, expected {value!r}"
        for key, value in expected.items()
        if summary.get(key) != value
    ]


def build_cold(workdir: Path, variant: int, sizes: dict, world: gen.World, mix: dict) -> Workload:
    """label raw tweets with a fresh cache file, then train on the result with that cache."""
    raw = gen.raw_corpus(world, mix, f"build-cold:{variant}", sizes["raw"])
    tiny = gen.raw_corpus(world, mix, f"build-cold-setup:{variant}", 1)
    _write(workdir / "raw.ndjson", raw.text)
    _write(workdir / "setup_raw.ndjson", tiny.text)
    counts = raw.counts
    labeled = counts["place"] + counts["coordinates"]
    carrying_geo = labeled + counts["open_ocean"]

    def inspect(summaries: list[dict]) -> tuple[int, list[str]]:
        label = summaries[0]
        problems = _expect(
            label, "label", total=sizes["raw"], labeled=labeled, malformed=counts["malformed"],
            skipped=counts["none"] + counts["open_ocean"],
        )
        got = {obj["id"]: obj["country"] for obj in _read_ndjson(workdir / "labeled.ndjson")}
        if got != raw.labels:
            problems.append("labeled.ndjson: labels differ from the generator's ground truth")
        problems += _expect(summaries[1], "train", total_examples=labeled)
        return label["malformed"] + carrying_geo - label["labeled"], problems

    def label_train(prefix: str, records: int, labeled_records: int) -> list[Step]:
        cache = f"{prefix}cache.tsv"
        return [
            Step(["label", "--input", f"{prefix}raw.ndjson", "--output", f"{prefix}labeled.ndjson",
                  "--cache", cache], records),
            Step(["train", "--input", f"{prefix}labeled.ndjson", "--model", f"{prefix}model.json",
                  "--cache", cache], labeled_records),
        ]

    return Workload(
        name="build-cold", variant=variant, workdir=workdir,
        steps=label_train("", sizes["raw"], labeled),
        setup_steps=label_train("setup_", 1, 1),
        artifacts=["labeled.ndjson", "model.json"],
        injected=counts["malformed"] + counts["open_ocean"],
        inspect=inspect,
        restore={name: None for name in ("cache.tsv", "setup_cache.tsv")},
    )


def classify_warm(workdir: Path, variant: int, sizes: dict, world: gen.World, mix: dict) -> Workload:
    """classify fresh raw tweets with a prepared model and a warm cache file."""
    training = gen.labeled_corpus(world, mix, f"classify-warm-train:{variant}", sizes["train"])
    tweets = gen.raw_corpus(world, mix, f"classify-warm:{variant}", sizes["tweets"])
    tiny = gen.raw_corpus(world, mix, f"classify-warm-setup:{variant}", 1)
    _write(workdir / "train.ndjson", training.text)
    _write(workdir / "tweets.ndjson", tweets.text)
    _write(workdir / "setup_tweets.ndjson", tiny.text)
    malformed = tweets.counts["malformed"]
    classes = set(training.labels.values())

    def inspect(summaries: list[dict]) -> tuple[int, list[str]]:
        summary = summaries[0]
        problems = _expect(
            summary, "classify", total=sizes["tweets"], malformed=malformed,
            classified=sizes["tweets"] - malformed,
        )
        predictions = _read_ndjson(workdir / "predictions.ndjson")
        if [p["id"] for p in predictions] != tweets.ids:
            problems.append("predictions.ndjson: ids differ from the parsed input tweets")
        if any(p["predicted"] not in classes or len(p["top"]) != 3 for p in predictions):
            problems.append("predictions.ndjson: a prediction is not a trained class or lacks 3 candidates")
        return summary["malformed"], problems

    def classify(source: str, output: str, records: int) -> Step:
        return Step(["classify", "--input", source, "--output", output, "--model", "model.json",
                     "--cache", "cache.tsv"], records)

    return Workload(
        name="classify-warm", variant=variant, workdir=workdir,
        steps=[classify("tweets.ndjson", "predictions.ndjson", sizes["tweets"])],
        setup_steps=[classify("setup_tweets.ndjson", "setup_predictions.ndjson", 1)],
        artifacts=["predictions.ndjson"],
        injected=malformed,
        inspect=inspect,
        prep_steps=[Step(["train", "--input", "train.ndjson", "--model", "model.json",
                          "--cache", "cache.tsv"], sizes["train"])],
        prep_artifacts=["model.json"],
    )


def crossval(workdir: Path, variant: int, sizes: dict, world: gen.World, mix: dict) -> Workload:
    """ablate over the Table 1 grid, then a held-out per-country report."""
    n, held = sizes["labeled"], sizes["heldout"]
    corpora = {
        "cv.ndjson": (f"crossval:{variant}", n),
        "heldout.ndjson": (f"crossval-heldout:{variant}", held),
        "setup_cv.ndjson": (f"crossval-setup:{variant}", 10),  # ablate --k 10 needs 10 records
        "setup_heldout.ndjson": (f"crossval-setup-heldout:{variant}", 1),
    }
    for name, (seed_text, size) in corpora.items():
        _write(workdir / name, gen.labeled_corpus(world, mix, seed_text, size).text)

    def inspect(summaries: list[dict]) -> tuple[int, list[str]]:
        problems = []
        ablation = json.loads((workdir / "ablation.json").read_text(encoding="utf-8"))
        if [row["n_evaluated"] for row in ablation["subsets"]] != [n] * 14:
            problems.append("ablation.json: expected 14 subsets each scored on every record")
        report = json.loads((workdir / "report.json").read_text(encoding="utf-8"))
        if report["mode"] != "held-out" or report["region"]["n"] != held:
            problems.append("report.json: expected a held-out report over every held-out record")
        return 0, problems

    def steps(prefix: str, records: int, held_records: int) -> list[Step]:
        source = f"{prefix}cv.ndjson"
        return [
            Step(["ablate", "--input", source, "--preset", "table1", "--k", "10",
                  "--report-json", f"{prefix}ablation.json", "--report-csv", f"{prefix}ablation.csv"],
                 records),
            Step(["report", "--input", source, "--eval-input", f"{prefix}heldout.ndjson",
                  "--report-json", f"{prefix}report.json", "--report-csv", f"{prefix}report.csv"],
                 records + held_records),
        ]

    return Workload(
        name="crossval", variant=variant, workdir=workdir,
        steps=steps("", n, held),
        setup_steps=steps("setup_", 10, 1),
        artifacts=["ablation.json", "ablation.csv", "report.json", "report.csv"],
        injected=0,
        inspect=inspect,
    )


BUILDERS = {"build-cold": build_cold, "classify-warm": classify_warm, "crossval": crossval}


def digests(workdir: Path, names: list[str]) -> dict[str, str]:
    return {
        name: hashlib.sha256((workdir / name).read_bytes()).hexdigest()
        for name in names
        if (workdir / name).is_file()
    }


def compare_digests(actual: dict[str, str], expected: dict[str, str]) -> list[str]:
    return [
        f"{name}: sha256 {actual.get(name)} differs from reference {digest}"
        for name, digest in expected.items()
        if actual.get(name) != digest
    ]


def load_references() -> dict:
    if REFERENCES.is_file():
        return json.loads(REFERENCES.read_text(encoding="utf-8"))
    return {}


def committed_digests(name: str, variant: int, size: str) -> dict[str, str] | None:
    return load_references().get(size, {}).get(name, {}).get(str(variant))


def default_seconds() -> int:
    """The run length BENCHMARK.json sets."""
    return json.loads(BENCHMARK.read_text(encoding="utf-8"))["run_seconds"]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)  # the checkout's source, never an installed copy
    return env


@dataclass
class StepsResult:
    wall_s: float
    max_rss_kib: int
    codes: list[int]
    summaries: list[dict]


def spawn(argv: list[str], cwd: Path, env: dict[str, str], out_path: Path) -> tuple[float, int, int]:
    """Run one child to its end; (wall seconds from spawn to exit, exit code, max RSS in KiB)."""
    with out_path.open("wb") as out, out_path.with_suffix(".err").open("wb") as err:
        start = time.perf_counter()
        child = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, child.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
            child.returncode = os.waitstatus_to_exitcode(status)
        finally:
            watchdog.cancel()
            if child.returncode is None:
                child.kill()
                child.wait()
        return time.perf_counter() - start, child.returncode, usage.ru_maxrss


def run_children(workload: Workload, steps: list[Step], env: dict[str, str]) -> StepsResult:
    """Run steps one child at a time; the wall time is their sum."""
    wall, rss, codes, summaries = 0.0, 0, [], []
    for index, step in enumerate(steps):
        out_path = workload.workdir / f"step{index}.out"
        step_wall, code, step_rss = spawn(
            [sys.executable, "-m", "tweetcountry", *step.argv], workload.workdir, env, out_path
        )
        wall += step_wall
        rss = max(rss, step_rss)
        codes.append(code)
        try:
            summaries.append(json.loads(out_path.read_text(encoding="utf-8")))
        except json.JSONDecodeError:
            summaries.append({})
    return StepsResult(wall, rss, codes, summaries)


def prepare(name: str, variant: int, size: str) -> Workload:
    """Fresh work directory with the inputs for (workload, variant, size); prep steps run."""
    workdir = WORK / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    world = gen.World.load(ROOT)
    workload = BUILDERS[name](workdir, variant, gen.load_sizes(size)[name], world, gen.load_mix())
    if workload.prep_steps:
        result = run_children(workload, workload.prep_steps, child_env())
        if any(result.codes):
            raise SystemExit(f"{name}: preparation failed, see {workdir}")
        # A warm cache file whose bytes every iteration starts from.
        workload.restore["cache.tsv"] = (workdir / "cache.tsv").read_bytes()
    return workload


class Checker:
    """Checks each iteration's outputs, and its artifacts against the reference digests."""

    def __init__(self, workload: Workload, reference: dict[str, str] | None):
        self.workload = workload
        self.reference = reference  # None only while recording new references
        self.names = workload.prep_artifacts + workload.artifacts

    def check(self, codes: list[int], summaries: list[dict]) -> tuple[int, list[str]]:
        """(rejected records, problems) of one iteration whose outputs are in the work directory."""
        if any(codes):
            return 0, [f"exit codes {codes}"]
        try:
            rejected, problems = self.workload.inspect(summaries)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return 0, [f"unreadable output: {exc!r}"]
        if self.reference is None:
            return rejected, problems
        return rejected, problems + compare_digests(digests(self.workload.workdir, self.names), self.reference)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def time_for_another(started: float, iteration_started: float, seconds: float) -> bool:
    """True when one more iteration as long as the last still ends within the run."""
    now = time.perf_counter()
    return now + (now - iteration_started) - started <= seconds


def end_to_end(workload: Workload, seconds: float, reference_digests: dict[str, str]) -> tuple[dict, list[str]]:
    """The closed loop: timed iterations, each followed by one set-up and one reference run.

    Times are reported at the reference program's nominal speed: the mean
    times are scaled by reference.NOMINAL_S / the reference's mean wall time
    in this run. On a shared machine the CPU speed can drift by tens of
    percent over minutes; the scale cancels that drift, and no change to
    tweetcountry can move it. Means, not medians: the machine switches between
    fast and slow states for seconds at a time, so a run's samples are
    bimodal, and their median jumps between the modes while the mean follows
    the share of time spent in each. The measured means, medians and
    quartiles and the scale go into the result's "measured" entry.
    """
    env = child_env()
    checker = Checker(workload, reference_digests)
    problems: list[str] = []
    probe = subprocess.run(
        [sys.executable, "-c", "import tweetcountry; print(tweetcountry.__file__)"],
        env=env, cwd=workload.workdir, capture_output=True, text=True, check=False,
    )
    if not probe.stdout.startswith(str(SRC)):
        problems.append(f"tweetcountry imports from {probe.stdout.strip()!r}, not {SRC}")
    # Untimed warm-up: bytecode compilation and page-cache fill stay out of the samples.
    workload.reset()
    warm = run_children(workload, workload.setup_steps, env)
    if any(warm.codes):
        problems.append(f"warm-up exit codes {warm.codes}")

    walls, setups, references = [], [], []
    rss = attempted = failed = records = rejected = 0
    started = time.perf_counter()
    while True:
        iteration_started = time.perf_counter()
        workload.reset()
        result = run_children(workload, workload.steps, env)
        iteration_rejected, iteration_problems = checker.check(result.codes, result.summaries)
        attempted += len(workload.steps)
        records += workload.records
        if iteration_problems:
            failed += len(workload.steps)
            rejected += workload.records
            problems += iteration_problems
        else:
            rejected += iteration_rejected
        walls.append(result.wall_s)
        rss = max(rss, result.max_rss_kib)

        workload.reset()
        setup = run_children(workload, workload.setup_steps, env)
        if any(setup.codes):
            problems.append(f"set-up exit codes {setup.codes}")
        setups.append(setup.wall_s)
        reference_wall, code, _ = spawn(REFERENCE_ARGV, workload.workdir, env, workload.workdir / "reference.out")
        if code:
            problems.append(f"reference program exit code {code}")
        references.append(reference_wall)
        if not time_for_another(started, iteration_started, seconds):
            break

    measured = {}
    for label, values in (("wall_s", walls), ("setup_s", setups), ("reference_s", references)):
        q1, q2, q3 = quartiles(values)
        measured[label] = {"mean": statistics.fmean(values), "median": q2, "q1": q1, "q3": q3, "n": len(values)}
    scale = reference.NOMINAL_S / measured["reference_s"]["mean"]
    measured["scale"] = scale
    print(f"{workload.name}: {records} records, {rejected} rejected, {workload.injected} injected per iteration",
          file=sys.stderr)
    wall_s = measured["wall_s"]["mean"] * scale
    metrics = {
        "wall_s": (wall_s, "s"),
        "records_per_s": (workload.records / wall_s, "records/s"),
        "setup_s": (measured["setup_s"]["mean"] * scale, "s"),
        "peak_rss_mb": (rss / 1024.0, "MiB"),
        "ok_ratio": ((records - rejected) / records, "ratio"),
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "measured": measured}, problems


def in_process(workload: Workload, cli, tracer: spans.Tracer | None) -> tuple[float, list[int], list[dict]]:
    """One iteration through ``cli.main`` in this process, optionally traced."""
    workload.reset()
    codes, summaries = [], []
    previous = Path.cwd()
    os.chdir(workload.workdir)  # the same relative paths, so the same config digests
    try:
        start = time.perf_counter()
        if tracer is not None:
            tracer.install()
        try:
            for step in workload.steps:
                captured = io.StringIO()
                with contextlib.redirect_stdout(captured):
                    codes.append(cli.main(list(step.argv)))
                summaries.append(json.loads(captured.getvalue() or "{}"))
        finally:
            if tracer is not None:
                tracer.uninstall()
        wall = time.perf_counter() - start
    finally:
        os.chdir(previous)
    return wall, codes, summaries


def traced(workload: Workload, seconds: float, reference_digests: dict[str, str]) -> tuple[dict, list[str]]:
    """Alternate untraced and traced in-process iterations; per-layer medians."""
    sys.path.insert(0, str(SRC))
    import tweetcountry.cli as cli

    problems = []
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        problems.append(f"tweetcountry imported from {cli.__file__}, not {SRC}")
    checker = Checker(workload, reference_digests)
    tracer = spans.Tracer()
    in_process(workload, cli, None)  # warm-up
    plain, with_spans, samples = [], [], []
    attempted = failed = 0
    started = time.perf_counter()
    while True:
        iteration_started = time.perf_counter()
        for tracing in (None, tracer):
            wall, codes, summaries = in_process(workload, cli, tracing)
            _, iteration_problems = checker.check(codes, summaries)
            attempted += len(workload.steps)
            if iteration_problems:
                failed += len(workload.steps)
                problems += iteration_problems
            if tracing is None:
                plain.append(wall)
            else:
                with_spans.append(wall)
                samples.append(tracer.layer_metrics())
                tracer.reset_counters()
                tracer.run_id += 1
        if not time_for_another(started, iteration_started, seconds):
            break
    tracer.write(workload.workdir / "spans.jsonl")
    layer = spans.median_metrics(samples)
    layer["trace.overhead_ratio"] = statistics.median(with_spans) / statistics.median(plain)
    units = dict(spans.PER_LAYER)
    metrics = {name: (layer[name], units[name]) for name, _ in spans.PER_LAYER}
    print(f"{workload.name}: {len(samples)} traced and {len(plain)} untraced iterations, "
          f"{len(tracer.spans)} spans", file=sys.stderr)
    return {"attempted": attempted, "failed": failed, "metrics": metrics}, problems


def run_once(name: str, variant: int, size: str,
             reference_digests: dict[str, str] | None) -> tuple[dict[str, str], list[str]]:
    """Prepare and run one iteration; (artifact digests, problems)."""
    workload = prepare(name, variant, size)
    workload.reset()
    result = run_children(workload, workload.steps, child_env())
    checker = Checker(workload, reference_digests)
    _, problems = checker.check(result.codes, result.summaries)
    return digests(workload.workdir, checker.names), problems


def check_mode() -> int:
    """Equivalence: on every small variant, every artifact byte-identical to the committed digests."""
    bad = 0
    for name in WORKLOADS:
        for variant in range(gen.load_sizes("small")["variants"]):
            expected = committed_digests(name, variant, "small")
            if expected is None:
                problems = ["no committed reference; run bench/run.py --record"]
            else:
                _, problems = run_once(name, variant, "small", expected)
            bad += bool(problems)
            print(f"{name} variant {variant}: " + ("; ".join(problems) if problems else "identical"))
    print("equivalence: " + ("FAILED" if bad else "all artifacts identical"))
    return 1 if bad else 0


def record_mode() -> int:
    """Rewrite the digests of every variant of both sizes; the outputs must pass every other check."""
    references: dict = {}
    for size in ("small", "full"):
        for name in WORKLOADS:
            for variant in range(gen.load_sizes(size)["variants"]):
                found, problems = run_once(name, variant, size, None)
                if problems:
                    print(f"{size} {name} variant {variant}: {'; '.join(problems)}", file=sys.stderr)
                    return 1
                references.setdefault(size, {}).setdefault(name, {})[str(variant)] = found
                print(f"{size} {name} variant {variant}: recorded {len(found)} digests")
    REFERENCES.write_text(json.dumps(references, indent=1) + "\n", encoding="utf-8")
    return 0


def selftest() -> int:
    """Generator determinism, exact mix counts, and the digest check's sensitivity."""
    world, mix = gen.World.load(ROOT), gen.load_mix()
    failures = []
    for make in (gen.raw_corpus, gen.labeled_corpus):
        first, again = make(world, mix, "selftest:1", 300).text, make(world, mix, "selftest:1", 300).text
        other = make(world, mix, "selftest:2", 300).text
        if first != again:
            failures.append(f"{make.__name__}: one seed gave two corpora")
        if first == other:
            failures.append(f"{make.__name__}: two seeds gave one corpus")
    raw = gen.raw_corpus(world, mix, "selftest:1", 1000)
    if raw.counts != gen.exact_counts(1000, mix["geo"]) or len(raw.lines) != 1000:
        failures.append("raw corpus does not hold the exact mix counts")
    if any(len(json.loads(line).get("user_location") or "") > mix["location_max_chars"]
           for line in gen.labeled_corpus(world, mix, "selftest:1", 1000).lines):
        failures.append("a location exceeds the profile length limit")

    found, problems = run_once("build-cold", 1, "small", committed_digests("build-cold", 1, "small"))
    failures += problems
    workdir = WORK / "build-cold"
    target = workdir / "labeled.ndjson"
    data = bytearray(target.read_bytes())
    data[len(data) // 2] ^= 0x01
    target.write_bytes(bytes(data))
    if not compare_digests(digests(workdir, list(found)), found):
        failures.append("the digest check missed a one-byte change to labeled.ndjson")
    for failure in failures:
        print(f"selftest: {failure}", file=sys.stderr)
    print("selftest: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="tweetcountry benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="run length (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true", help="compare small-corpus artifacts with committed digests")
    parser.add_argument("--record", action="store_true", help="rewrite every committed digest")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "tweetcountry" / "__init__.py").is_file():
        print(f"error: no tweetcountry source under {SRC}; bench/ must sit in a checkout",
              file=sys.stderr)
        return 2
    if args.selftest:
        return selftest()
    if args.check:
        return check_mode()
    if args.record:
        return record_mode()
    if args.workload is None:
        parser.error("--workload is required")

    variant = args.seed % gen.load_sizes("full")["variants"]
    expected = committed_digests(args.workload, variant, "full")
    if expected is None:
        print(f"error: no committed reference digests for {args.workload} variant {variant}; "
              "run bench/run.py --record", file=sys.stderr)
        return 1
    workload = prepare(args.workload, variant, "full")
    measure = traced if args.trace else end_to_end
    result, problems = measure(workload, args.seconds or default_seconds(), expected)
    for problem in problems[:20]:
        print(f"{args.workload}: {problem}", file=sys.stderr)
    if "measured" in result:
        print(json.dumps({"measured": result["measured"]}))
    print(json.dumps({
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
