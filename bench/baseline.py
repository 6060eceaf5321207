"""Run the benchmark over several seeds and summarise each metric.

Run from the root of a checkout::

    python3 bench/baseline.py --seeds 1-10 --out bench/baseline.json

Each (workload, seed) is one ``bench/run.py`` process of BENCHMARK.json's
``run_seconds``, run one after another, for every workload. For every metric
the summary holds the per-seed values, their median and quartiles
(``statistics.quantiles(values, n=4)``), and the spread: the distance between
the quartiles as a share of the median. Untraced runs also keep, per seed, the
measured (unscaled) wall and set-up times, the reference program's, and the
scale run.py applied.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from run import WORKLOADS, default_seconds  # noqa: E402
import gen  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the summary JSON here")
    args = parser.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    summary = {
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "run_seconds": default_seconds(),
        "trace": args.trace,
        "seeds": seeds,
        "sizes": gen.load_sizes("full"),
        "workloads": {},
    }
    failed = False
    for workload in WORKLOADS:
        per_metric: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        measured: dict[str, dict] = {}
        for seed in seeds:
            command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--trace", str(args.trace)]
            done = subprocess.run(command, capture_output=True, text=True, check=False)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if done.returncode != 0 or not result.get("correct"):
                failed = True
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
                continue
            for name, metric in result["metrics"].items():
                per_metric.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            if len(lines) > 1 and lines[-2].startswith('{"measured"'):
                measured[str(seed)] = json.loads(lines[-2])["measured"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name}={metric['value']:.5g}" for name, metric in result["metrics"].items()
            ), file=sys.stderr)
        summary["workloads"][workload] = {
            name: {"unit": units[name], **summarise(values)} for name, values in per_metric.items()
        }
        if measured:
            # Unscaled means across seeds, beside the scaled metrics above.
            raw = {label: summarise([m[label]["mean"] for m in measured.values()])
                   for label in ("wall_s", "setup_s", "reference_s")}
            summary.setdefault("measured", {})[workload] = {**raw, "per_seed": measured}
            for label, stats in raw.items():
                print(f"{workload:14} measured {label:11} median={stats['median']:.6g} s "
                      f"spread={stats['spread']:.4f}")
        for name, stats in summary["workloads"][workload].items():
            print(f"{workload:14} {name:16} median={stats['median']:.6g} {stats['unit']:10} "
                  f"spread={stats['spread']:.4f} n={len(stats['values'])}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
