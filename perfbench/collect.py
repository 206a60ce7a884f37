#!/usr/bin/env python3
"""Repeat the benchmark over seeds and summarise it as medians and spreads.

    python3 perfbench/collect.py --out perfbench/baseline.json

It runs every workload named in BENCHMARK.json untraced, in two sets of ten
seeds (1-10, then 11-20), one process per run, workloads interleaved.  For
seeds 1-3 each untraced run is followed by a traced run of the same workload
and seed.  For each set and workload it writes every value of every printed
metric with its median, quartiles and spread (interquartile distance over the
median), and it compares the second set's medians with the first's against
the bounds in BENCHMARK.json.  It also writes the traced per-layer numbers
(median over the traced runs), the tracing overhead (median over the pairs
of traced minus untraced wall time) and the machine it ran on.  Each run is
written to ``.perfbench_runs.jsonl`` as it ends.  Exit code 0 when every run
was correct.
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
ROOT = BENCH_DIR.parent
RAW = ROOT / ".perfbench_runs.jsonl"
SETS = {"first": range(1, 11), "second": range(11, 21)}
# The host's speed drifts over minutes, so the tracing overhead is taken from
# a traced run next to an untraced run of the same inputs, over a few pairs.
TRACED_SEEDS = (1, 2, 3)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    metrics = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            metrics[parts[1]] = float(parts[2])
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return {"workload": workload, "seed": seed, "trace": trace,
            "exit": proc.returncode, "metrics": metrics, "result": result,
            "stderr": proc.stderr[-2000:] if proc.returncode else ""}


def spread_stats(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "min": min(values), "max": max(values), "values": values}


def machine() -> dict:
    import numpy
    import scipy

    sys.path.insert(0, str(BENCH_DIR))
    from run import THREAD_VARS, THREADS

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform(),
            "pinned_threads": {v: THREADS for v in THREAD_VARS}}


def set_stats(plain: list[dict]) -> dict:
    names = sorted({k for r in plain for k in r["metrics"]})
    return {name: spread_stats([r["metrics"][name] for r in plain])
            for name in names if all(name in r["metrics"] for r in plain)}


def summarise(runs: list[dict], bench: dict) -> dict:
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = {"machine": machine(), "run_seconds": bench["run_seconds"],
           "sets": {k: list(v) for k, v in SETS.items()}, "workloads": {}}
    for w in [w["name"] for w in bench["workloads"]]:
        mine = [r for r in runs if r["workload"] == w]
        plain = [r for r in mine if r["trace"] == 0]
        traced = [r for r in mine if r["trace"] == 1]
        entry = {
            "all_correct": all(r["exit"] == 0 and r["result"] and r["result"]["correct"]
                               for r in mine),
            "end_to_end": {k: set_stats([r for r in plain if r["seed"] in seeds])
                           for k, seeds in SETS.items()},
            "gates": {},
        }
        first, second = entry["end_to_end"]["first"], entry["end_to_end"]["second"]
        for name, bound in bounds.items():
            m1, m2 = first[name]["median"], second[name]["median"]
            change = m2 / m1 - 1.0
            entry["gates"][name] = {
                "bound": bound,
                "spread_first": first[name]["spread"],
                "spread_second": second[name]["spread"],
                "spreads_within_bound": max(first[name]["spread"],
                                            second[name]["spread"]) <= bound,
                "spreads_below_third_of_bound": max(first[name]["spread"],
                                                    second[name]["spread"]) < bound / 3,
                "median_change_second_vs_first": change,
                "medians_agree": change <= bound,
            }
        if traced:
            entry["traced_seeds"] = [r["seed"] for r in traced]
            entry["per_layer"] = {k: statistics.median(r["metrics"][k] for r in traced)
                                  for k in traced[0]["metrics"]}
            untraced = {r["seed"]: r["metrics"]["wall_s"] for r in plain}
            pairs = [(r["metrics"]["trace.wall_s"], untraced[r["seed"]]) for r in traced]
            entry["tracing_overhead_pairs_s"] = pairs
            entry["tracing_overhead_s"] = statistics.median(t - u for t, u in pairs)
            entry["tracing_overhead_share"] = statistics.median(t / u - 1.0 for t, u in pairs)
        out["workloads"][w] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="write the summary JSON here")
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    plan = [(w, s, t) for seeds in SETS.values() for s in seeds for w in names
            for t in ((0, 1) if s in TRACED_SEEDS else (0,))]
    runs = []
    with open(RAW, "w", encoding="utf-8") as raw:
        for w, s, t in plan:
            r = run_once(w, s, bench["run_seconds"], t)
            runs.append(r)
            raw.write(json.dumps(r) + "\n")
            raw.flush()
            wall = r["metrics"].get("wall_s", r["metrics"].get("trace.wall_s"))
            print(f"{w:14s} seed {s:3d} trace {t} exit {r['exit']} wall {wall}", flush=True)
    summary = summarise(runs, bench)
    for w, entry in summary["workloads"].items():
        for name, g in entry["gates"].items():
            print(f"{w:14s} {name:12s} spreads {g['spread_first']:.3f} "
                  f"{g['spread_second']:.3f}  median change "
                  f"{g['median_change_second_vs_first']:+.3f}  bound {g['bound']}")
        if "tracing_overhead_s" in entry:
            print(f"{w:14s} tracing overhead {entry['tracing_overhead_s']:.3f} s")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if all(e["all_correct"] for e in summary["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
