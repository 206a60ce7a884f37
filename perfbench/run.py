#!/usr/bin/env python3
"""poisson-lab benchmark: one workload per process, untraced or traced.

    python3 perfbench/run.py --workload s1-opial --seed 1 --seconds 1 --trace 0

Run it from the root of a checkout; it imports ``poisson_lab`` from that
checkout's ``src/`` and nowhere else.  The untraced run (``--trace 0``)
prints the end-to-end metrics; the traced run (``--trace 1``) wraps the
package's public functions (see ``tracer.py``) and prints per-layer metrics.
Every metric is printed as ``metric <name> <value> <unit>``; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit code 0 when every output checks out, 1 when
a correctness check failed, 2 when the program cannot be set up.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread: the lab's hot loops are single-threaded Python, and
# the machine the baseline was taken on has two cores.  Set before numpy loads
# so the setup children inherit it too.
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACES = ROOT / ".perfbench_traces"
REFERENCE = BENCH_DIR / "reference"

CATALOG_MIXED = ("levitan", "s3-coop-2d", "s4-dde-linear", "s5-rd-scalar")
CLASSIFY_SIZES = (10_000, 20_000, 40_000)
CLASSIFY_DT = 0.05
SQRT2 = math.sqrt(2.0)
EXPECTED_VERDICTS = {
    "quasi_periodic": "yes", "bohr_ap": "yes", "almost_recurrent": "yes",
    "poisson": "yes", "stationary": "no", "periodic": "no",
}
FREQ_TOL = 1e-2
# setup_s is the median of this many children before the measured
# iterations and as many after them.  The host's speed drifts over seconds to
# minutes, so children far apart in time average it out better than more
# children in a row.
SETUP_REPEATS = 2

WORKLOADS = {
    "s1-opial": ("s1-opial-scalar",),
    "catalog-mixed": CATALOG_MIXED,
    "classify-long": (),
}

# Child process for setup_s: start the interpreter, import the package from
# this checkout and build the workload's scenario configs.
SETUP_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
import poisson_lab.cli
from poisson_lab.scenarios import build_scenario
for name in sys.argv[2:]:
    build_scenario(name, seed=0)
"""


class SetupError(Exception):
    """The checkout cannot run the benchmark (no package, broken import)."""


def _size_tag(n: int) -> str:
    return f"n{n // 1000}k"


# ---------------------------------------------------------------------------
# setup
# ---------------------------------------------------------------------------

def import_package():
    if not (SRC / "poisson_lab" / "__init__.py").is_file():
        raise SetupError(f"no poisson_lab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import poisson_lab
    import poisson_lab.cli
    import poisson_lab.scenarios

    if Path(poisson_lab.__file__).resolve().parent != (SRC / "poisson_lab").resolve():
        raise SetupError(f"poisson_lab imported from {poisson_lab.__file__}")
    return poisson_lab


def measure_setup(scenarios) -> list[float]:
    """Wall times of fresh processes that import and build the configs."""
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), *scenarios],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - started
        if proc.returncode != 0:
            raise SetupError(f"setup child failed: {proc.stderr.strip()[-500:]}")
        times.append(elapsed)
    return times


def make_classify_inputs(seed: int, workdir: Path) -> list[tuple[int, Path]]:
    """Two-frequency signals (1 and sqrt 2); the seed sets only the phases."""
    import numpy as np

    rng = np.random.default_rng(seed)
    inputs = []
    for n in CLASSIFY_SIZES:
        phases = rng.uniform(0.0, 2.0 * math.pi, size=2)
        t = CLASSIFY_DT * np.arange(n)
        x = np.sin(t + phases[0]) + np.sin(SQRT2 * t + phases[1])
        path = workdir / f"signal-{_size_tag(n)}.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t,x1\n")
            np.savetxt(fh, np.column_stack([t, x]), fmt="%.17g", delimiter=",")
        inputs.append((n, path))
    return inputs


# ---------------------------------------------------------------------------
# one iteration of each workload kind
# ---------------------------------------------------------------------------

class Iteration:
    """Timings and outcomes of one pass over a workload's operations."""

    def __init__(self):
        self.windows: dict[str, tuple[float, float]] = {}
        self.failures: list[str] = []
        self.attempted = 0
        self.outdirs: dict[str, Path] = {}
        self.wall = 0.0


def run_scenarios(pkg, configs, workdir: Path, index: int) -> Iteration:
    it = Iteration()
    started = time.perf_counter()
    for cfg in configs:
        outdir = workdir / f"{cfg.name}-{index}"
        it.attempted += 1
        t0 = time.perf_counter()
        try:
            manifest = pkg.scenarios.run_scenario(cfg, outdir)
        except Exception:  # noqa: BLE001 - an escaped exception is a failed operation
            it.failures.append(f"{cfg.name}: exception\n{traceback.format_exc()}")
            manifest = None
        t1 = time.perf_counter()
        it.windows[cfg.name] = (t0, t1)
        it.outdirs[cfg.name] = outdir
        if manifest is not None:
            failed = [k for k, v in manifest.summary.items() if v["status"] == "fail"]
            if failed:
                it.failures.append(f"{cfg.name}: failed checks {failed}")
    it.wall = time.perf_counter() - started
    return it


def check_verdicts(report: dict) -> list[str]:
    problems = []
    classes = report.get("classes", {})
    for name, want in EXPECTED_VERDICTS.items():
        got = classes.get(name, {}).get("verdict")
        if got != want:
            problems.append(f"{name}={got}, expected {want}")
    freqs = sorted(classes.get("quasi_periodic", {}).get("params", {}).get("freqs", []))
    if len(freqs) != 2 or abs(freqs[0] - 1.0) > FREQ_TOL or abs(freqs[1] - SQRT2) > FREQ_TOL:
        problems.append(f"freqs {freqs}, expected (1, sqrt 2) within {FREQ_TOL}")
    return problems


def run_classify(pkg, inputs, workdir: Path, index: int) -> Iteration:
    it = Iteration()
    reports = []
    started = time.perf_counter()
    for n, csv in inputs:
        tag = _size_tag(n)
        out = workdir / f"report-{tag}-{index}.json"
        it.attempted += 1
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = pkg.cli.main(["classify", str(csv), "--out", str(out)])
        except Exception:  # noqa: BLE001 - an escaped exception is a failed operation
            code = None
            it.failures.append(f"{tag}: exception\n{traceback.format_exc()}")
        t1 = time.perf_counter()
        it.windows[tag] = (t0, t1)
        reports.append((tag, code, out))
    it.wall = time.perf_counter() - started
    for tag, code, out in reports:
        if code is None:
            continue
        if code != 0:
            it.failures.append(f"{tag}: exit code {code}")
            continue
        with open(out, "r", encoding="utf-8") as fh:
            problems = check_verdicts(json.load(fh))
        if problems:
            it.failures.append(f"{tag}: {'; '.join(problems)}")
    return it


# ---------------------------------------------------------------------------
# traced-run extras
# ---------------------------------------------------------------------------

def _numeric_delta(a, b) -> tuple[float, int]:
    """Largest |a - b| over numeric leaves, and the count of other mismatches."""
    if isinstance(a, bool) or isinstance(b, bool):
        return 0.0, int(a != b)
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        d = abs(a - b)
        return (d, 0) if math.isfinite(d) else (0.0, int(a != b))
    if isinstance(a, dict) and isinstance(b, dict):
        worst, bad = 0.0, len(set(a) ^ set(b))
        for k in set(a) & set(b):
            d, m = _numeric_delta(a[k], b[k])
            worst, bad = max(worst, d), bad + m
        return worst, bad
    if isinstance(a, list) and isinstance(b, list):
        worst, bad = 0.0, abs(len(a) - len(b))
        for x, y in zip(a, b):
            d, m = _numeric_delta(x, y)
            worst, bad = max(worst, d), bad + m
        return worst, bad
    return 0.0, int(a != b)


def scenario_outputs(it: Iteration) -> dict:
    """Artifact bytes, check counts and report drift of one scenario iteration."""
    out = {"scenarios.artifact_bytes": 0, "scenarios.checks.pass": 0,
           "scenarios.checks.fail": 0, "scenarios.checks.skip": 0,
           "scenarios.report_max_abs_delta": 0.0,
           "scenarios.report_mismatched_leaves": 0}
    for name, outdir in it.outdirs.items():
        manifest_path = outdir / "manifest.json"
        if not manifest_path.is_file():
            continue
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        for f in manifest["files"]:
            out["scenarios.artifact_bytes"] += (outdir / f).stat().st_size
        for entry in manifest["summary"].values():
            out[f"scenarios.checks.{entry['status']}"] += 1
        with open(outdir / "report.json", "r", encoding="utf-8") as fh:
            report = json.load(fh)
        with open(REFERENCE / f"{name}.report.json", "r", encoding="utf-8") as fh:
            reference = json.load(fh)
        delta, mismatched = _numeric_delta(report, reference)
        out["scenarios.report_max_abs_delta"] = max(
            out["scenarios.report_max_abs_delta"], delta)
        out["scenarios.report_mismatched_leaves"] += mismatched
    return out


def _slope(xs, ys) -> float:
    """Least-squares slope of log y against log x; 0 when a time is missing."""
    if len(xs) < 2 or min(ys) <= 0:
        return 0.0
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
            / sum((a - mx) ** 2 for a in lx))


def layer_metrics(tracer, iterations: list[Iteration], workload: str) -> dict:
    tracer_totals = tracer.summary()
    metrics = dict(tracer_totals)
    walls = [it.wall for it in iterations]
    metrics["trace.wall_s"] = statistics.median(walls)
    windows = [(min(t0 for t0, _ in it.windows.values()),
                max(t1 for _, t1 in it.windows.values())) for it in iterations]
    covered = {
        "systems": ("systems.",),
        "recurrence_signals": ("recurrence.", "signals."),
    }
    for key, prefixes in covered.items():
        share = sum(tracer.coverage(prefixes, lo, hi) for lo, hi in windows)
        metrics[f"trace.coverage.{key}"] = share / sum(walls)
    for key in ("recurrence.classify", "recurrence.bebutov_profile"):
        slope = 0.0
        if workload == "classify-long":
            per_size = [statistics.fmean(tracer.total(key, *it.windows[_size_tag(n)])
                                         for it in iterations) for n in CLASSIFY_SIZES]
            slope = _slope(CLASSIFY_SIZES, per_size)
        metrics[f"{key}.scaling_exp"] = slope
    scen = [scenario_outputs(it) for it in iterations if it.outdirs]
    for key in ("scenarios.artifact_bytes", "scenarios.checks.pass",
                "scenarios.checks.fail", "scenarios.checks.skip",
                "scenarios.report_max_abs_delta", "scenarios.report_mismatched_leaves"):
        metrics[key] = max((s[key] for s in scen), default=0)
    # The tracer sums over every iteration; report its times and counts
    # per iteration like the rest.
    for key, value in tracer_totals.items():
        if {**LAYER_UNITS, **INFO_UNITS}[key] in ("s", "count"):
            metrics[key] = value / len(iterations)
    return metrics


# ---------------------------------------------------------------------------
# metric catalogue
# ---------------------------------------------------------------------------

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _layer_units() -> dict:
    from tracer import RHS_FACTORIES, SPAN_TARGETS

    units = {}
    for mod_name, attrs in SPAN_TARGETS.items():
        for attr in attrs:
            if attr == "integrate_ode":
                units["systems.integrate_ode.rk4.s"] = "s"
                units["systems.integrate_ode.dopri5.s"] = "s"
            else:
                units[f"{mod_name}.{attr}.s"] = "s"
    for kind in RHS_FACTORIES.values():
        units[f"systems.rhs_calls.{kind}"] = "count"
        units[f"systems.rhs_calls_per_s.{kind}"] = "1/s"
    units.update({
        "systems.rhs_per_configured_step.rk4": "ratio",
        "signals.discrepancy_profile.taus": "count",
        "signals.shift_discrepancy.calls": "count",
        "signals.Signal.values.calls": "count",
        "signals.Signal.values.points": "count",
        "recurrence.classify.calls": "count",
        "recurrence.classify.self_s": "s",
        "recurrence.bebutov_profile.taus": "count",
        "recurrence.poisson_returns.found_ratio": "ratio",
        "recurrence.classify.scaling_exp": "exponent",
        "recurrence.bebutov_profile.scaling_exp": "exponent",
        "scenarios.run_scenario.self_s": "s",
        "scenarios.artifact_bytes": "bytes",
        "scenarios.checks.pass": "count",
        "scenarios.checks.fail": "count",
        "scenarios.checks.skip": "count",
        "scenarios.report_max_abs_delta": "abs",
        "scenarios.report_mismatched_leaves": "count",
        "cli.main.self_s": "s",
        "trace.wall_s": "s",
    })
    return units


LAYER_UNITS = _layer_units()
# Traced-run figures with no better direction (input sizes, instrumentation,
# which module a workload loads): printed as metric lines, not in the result.
INFO_UNITS = {
    "signals.read_signal_csv.rows": "count",
    "signals.write_signal_csv.rows": "count",
    "trace.spans": "count",
    "trace.coverage.systems": "ratio",
    "trace.coverage.recurrence_signals": "ratio",
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="keep starting iterations until this much time is measured")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def emit(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name]}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def main(argv=None) -> int:
    args = parse_args(argv)
    seed = args.seed % 2**32
    scenario_names = WORKLOADS[args.workload]
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        pkg = import_package()
        setup_times = [] if args.trace else measure_setup(scenario_names)
        workdir.mkdir(parents=True, exist_ok=True)
        os.environ["TMPDIR"] = str(workdir)
        if scenario_names:
            configs = [pkg.scenarios.build_scenario(n, seed=seed) for n in scenario_names]

            def iterate(i):
                return run_scenarios(pkg, configs, workdir, i)
        else:
            inputs = make_classify_inputs(seed, workdir)

            def iterate(i):
                return run_classify(pkg, inputs, workdir, i)
    except (SetupError, ImportError, OSError, subprocess.SubprocessError) as exc:
        shutil.rmtree(workdir, ignore_errors=True)
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    iterations: list[Iteration] = []
    try:
        measured = 0.0
        while not iterations or measured < args.seconds:
            it = iterate(len(iterations))
            iterations.append(it)
            measured += it.wall
        if tracer is not None:
            tracer.uninstall()
            metrics = layer_metrics(tracer, iterations, args.workload)
            TRACES.mkdir(exist_ok=True)
            tracer.dump(TRACES / f"{args.workload}-seed{args.seed}.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    if tracer is None:
        try:
            setup_times += measure_setup(scenario_names)
        except (SetupError, OSError, subprocess.SubprocessError) as exc:
            print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
            return 2

    attempted = sum(it.attempted for it in iterations)
    failures = [f for it in iterations for f in it.failures]
    for f in failures:
        print(f"perfbench: FAILED {f}", file=sys.stderr)
    print(f"info workload {args.workload} seed {args.seed} iterations {len(iterations)} "
          f"threads {THREADS} python {sys.version.split()[0]}")
    print(f"metric fail_ratio {len(failures) / attempted!r} ratio")
    if tracer is None:
        # Untraced per-operation times: printed, not gated (see README).
        label = "scenario_s" if scenario_names else "classify_s"
        for name in iterations[0].windows:
            value = statistics.median(it.windows[name][1] - it.windows[name][0]
                                      for it in iterations)
            print(f"metric {label}.{name} {value!r} s")
        metrics = {
            "wall_s": statistics.median(it.wall for it in iterations),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    else:
        for name, unit in INFO_UNITS.items():
            print(f"metric {name} {metrics[name]!r} {unit}")
        units = LAYER_UNITS
        metrics = {k: metrics[k] for k in units}
    correct = not failures
    emit(correct, attempted, len(failures), metrics, units)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
