#!/usr/bin/env python3
"""Run the whole scenario catalog and print one summary table.

Usage: python scripts/run_all_scenarios.py [outdir] [--seed N] [--quick]

--quick shortens the s1 horizon so the run finishes in seconds; the
gamma-extraction checks are then reported as skipped.  The package is
imported from this checkout's ``src/``, so no install is needed.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from poisson_lab.scenarios import CATALOG, build_scenario, run_scenario  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("outdir", nargs="?", default="poisson-lab-out")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    failures = 0
    for name in CATALOG:
        horizon = 2000.0 if (args.quick and name == "s1-opial-scalar") else None
        cfg = build_scenario(name, seed=args.seed, horizon=horizon)
        out = Path(args.outdir) / name
        started = time.perf_counter()
        manifest = run_scenario(cfg, out)
        elapsed = time.perf_counter() - started
        states = [v["status"] for v in manifest.summary.values()]
        line = f"{name:18s} {elapsed:7.1f}s  " \
               f"{states.count('pass'):2d} pass {states.count('fail'):2d} fail " \
               f"{states.count('skip'):2d} skip -> {out}"
        print(line)
        for check, entry in manifest.summary.items():
            if entry["status"] == "fail":
                print(f"    FAIL {check}: {entry['detail']}")
        failures += manifest.exit_code
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
