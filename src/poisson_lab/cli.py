"""Command-line front door: scenario runs, file classification, comparison.

Exit codes: 0 all checks passed, 1 a scientific check failed, 2 usage,
configuration or parse error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from .errors import ConfigInvalid, DomainMismatch, ParseError, PoissonLabError
from .recurrence import (
    ClassifyConfig,
    TauGrid,
    _snap_step,
    classify,
    comparability_profile,
    default_classify_config,
    jsonable,
)
from .signals import Window, read_signal_csv
from .systems import require_known_keys
from .scenarios import (
    CATALOG,
    _require_writable,
    build_scenario,
    load_scenario_config,
    output_dir,
    read_json_config,
    run_scenario,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poisson-lab",
        description="monotone nonautonomous systems under Poisson-stable forcing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a built-in scenario or a config file")
    p_run.add_argument("target", help="catalog name or path to a JSON config")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the config's seeds (catalog default 0)")
    p_run.add_argument("--horizon", type=float, default=None,
                       help="override the integration horizon")
    p_run.set_defaults(func=_cmd_run)

    p_cls = sub.add_parser("classify", help="classify a signal CSV")
    p_cls.add_argument("csv")
    p_cls.add_argument("--config", default=None,
                       help="JSON with window/grid/threshold overrides")
    p_cls.add_argument("--out", default=None, help="write the report here")
    p_cls.set_defaults(func=_cmd_classify)

    p_cmp = sub.add_parser("compare", help="comparability of trajectory vs base")
    p_cmp.add_argument("traj_csv")
    p_cmp.add_argument("base_csv")
    p_cmp.add_argument("--config", default=None)
    p_cmp.add_argument("--out", default=None)
    p_cmp.set_defaults(func=_cmd_compare)

    sub.add_parser("list", help="list the built-in scenario catalog").set_defaults(func=_cmd_list)
    return parser


# The keys of an analysis config: the ClassifyConfig fields a file may set.
_KEYS = ("window", "tau_grid", "bohr_epsilons", "poisson_schedule", "stationary_tol",
         "quasi_residual_tol", "poisson_separation", "refute_frac", "periodic_verify_rel")


def _analysis_config(defaults, path) -> ClassifyConfig:
    """``defaults()`` with the keys of the JSON file at ``path``, if any, on top.
    Where ``defaults()`` raises ConfigInvalid (a signal too short for the
    default window), a file that gives both ``window`` and ``tau_grid`` stands
    on the ClassifyConfig defaults instead."""
    if path is None:
        return defaults()
    raw = read_json_config(path, "analysis")
    try:
        if not isinstance(raw, dict):
            raise ValueError("not a JSON object")
        require_known_keys(raw, _KEYS, "keys")
        kwargs = dict(raw)
        if "window" in raw:
            kwargs["window"] = Window(*raw["window"])
        if "tau_grid" in raw:
            kwargs["tau_grid"] = TauGrid(*raw["tau_grid"])
    except (ValueError, TypeError, ConfigInvalid) as exc:
        raise ConfigInvalid(f"bad analysis config {path}: {exc}") from exc
    try:
        base = defaults()
    except ConfigInvalid:
        if not {"window", "tau_grid"} <= kwargs.keys():
            raise
        base = ClassifyConfig(kwargs["window"], kwargs["tau_grid"])
    try:
        return replace(base, **kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigInvalid(f"bad analysis config {path}: {exc}") from exc


def _require_report_path(out: str | None) -> None:
    """Raise ConfigInvalid, before any CSV is read, unless a report can be
    written at ``out``: ``run``'s check of an output directory on its
    parent, and not a directory itself.  ``_emit`` still reports a failed
    write."""
    if not out:
        return
    what = f"the report to {out}"
    if Path(out).is_dir():
        raise ConfigInvalid(f"cannot write {what}: it is a directory")
    _require_writable(Path(out).parent, what)


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=1, sort_keys=True)
    if out:
        try:
            Path(out).parent.mkdir(parents=True, exist_ok=True)
            Path(out).write_text(text + "\n", encoding="utf-8")
        except OSError as exc:
            raise ConfigInvalid(f"cannot write the report to {out}: {exc}") from exc
    print(text)


def _cmd_run(args) -> int:
    if args.target in CATALOG:
        cfg = build_scenario(args.target, horizon=args.horizon)
    else:
        cfg = load_scenario_config(args.target)
        if args.horizon is not None:
            cfg = replace(cfg, integrator=replace(cfg.integrator,
                                                  t_end=args.horizon))
    cfg = replace(cfg, seeds=cfg.seeds if args.seed is None else args.seed,
                  outputs=args.out or cfg.outputs)
    outdir = output_dir(cfg)
    manifest = run_scenario(cfg, outdir)
    for name, entry in manifest.summary.items():
        print(f"[{entry['status']:>4}] {name}"
              + (f" = {entry['value']:g}" if entry["value"] is not None else ""))
    print(f"artifacts: {outdir}")
    return manifest.exit_code


def _cmd_classify(args) -> int:
    _require_report_path(args.out)
    sig = read_signal_csv(args.csv)
    cfg = _analysis_config(lambda: default_classify_config(sig), args.config)
    report = classify(sig, cfg=cfg)
    _emit(jsonable(report), args.out)
    return 0  # classification is analysis output, not a test


def _cmd_compare(args) -> int:
    _require_report_path(args.out)
    traj = read_signal_csv(args.traj_csv)
    base = read_signal_csv(args.base_csv)
    lo = max(traj.t0, base.t0)
    hi = min(traj.t_end, base.t_end)
    if hi - lo <= 4 * max(traj.dt, base.dt):
        raise DomainMismatch("the common domain of the two signals spans at most "
                             "four grid steps, too short to compare")
    hw = (hi - lo) / 4  # the defaults: the middle half of the common domain, <= 100,000 shifts
    step = _snap_step(max(traj.dt, 2 * hw / 100_000), traj.dt)
    cfg = _analysis_config(lambda: ClassifyConfig(Window(lo + hw, hw), TauGrid(0.0, 2 * hw, step),
                                                  bohr_epsilons=(0.5, 0.2, 0.1)), args.config)
    _emit(jsonable(comparability_profile(traj, base, cfg.bohr_epsilons, cfg.tau_grid,
                                         cfg.window, refute_frac=cfg.refute_frac)), args.out)
    return 0


def _cmd_list(args) -> int:
    for name, (_, _, blurb) in CATALOG.items():
        print(f"{name:18s} {blurb}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed reader raises here, not in the flush at exit
        return code
    except BrokenPipeError:
        # Python's SIGPIPE recipe: stdout goes to devnull, so the flush at exit
        # writes nowhere and prints no "Exception ignored" line.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output was closed before the output was written",
              file=sys.stderr)
        return 1
    except (ConfigInvalid, ParseError, DomainMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PoissonLabError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
