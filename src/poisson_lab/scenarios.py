"""Built-in scenario catalog, scenario runner, and run manifests.

Each catalog entry drives one equation family with a recurrent forcing and
checks a convergence or classification claim about it end to end: integrate,
analyze recurrence, sample the limit set, compare against a closed-form
steady state where one exists, and write CSV + JSON artifacts.

Catalog names are fixed:

- ``s1-opial-scalar``  x' = -x + sin t + sin(sqrt2 t), the scalar monotone
  setting with a quasi-periodic forcing.
- ``levitan``          the bounded/unbounded pair h = 2 + cos t + cos(sqrt2 t),
  psi = sin(1/h) analyzed as signals.
- ``s3-coop-2d``       u' = A u + p(t) with cooperative Hurwitz A, periodic p.
- ``s4-dde-linear``    x'(t) = -2 x(t) + x(t-1) + sin t.
- ``s5-rd-scalar``     u_t = nu u_xx - u + (1 + cos(pi x / L)) sin t, Neumann.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigInvalid, DomainMismatch, NotCauchy, ParseError, PoissonLabError
from .limits import (
    _NODES,
    comparison_battery,
    contraction_check,
    convergence_check,
    entire_trajectory_estimate,
    gamma_extract,
    omega_fiber_sample,
)
from .recurrence import (
    ClassifyConfig,
    TauGrid,
    classify,
    default_classify_config,
    jsonable,
    poisson_returns,
)
from .signals import Signal, Window, sup_distance, write_csv, write_signal_csv
from .systems import (
    IntegratorConfig,
    SystemSpec,
    affine_rhs,
    forcing_signal,
    integrate,
    integrate_ode_snapshots,
    integrate_parabolic,
    quasimonotone_check,
    require_countable,
    require_known_keys,
)

_SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# configuration and manifest types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    system: SystemSpec | None
    integrator: IntegratorConfig | None
    analysis: dict = field(default_factory=dict)
    seeds: int = 0
    outputs: str | None = None

    def __post_init__(self):
        if not (isinstance(self.name, str) and self.name):
            raise ConfigInvalid("scenario needs a name")
        if type(self.seeds) is not int or self.seeds < 0:
            raise ConfigInvalid(f"seed must be an integer >= 0, got {self.seeds!r}")
        if not (self.outputs is None or isinstance(self.outputs, str)):
            raise ConfigInvalid("outputs must be a directory path")
        object.__setattr__(self, "analysis", dict(self.analysis))


class RunManifest:
    """One run's record: its checks, report and files.  ``finish`` writes
    ``report.json``, then ``manifest.json``."""

    def __init__(self, cfg: ScenarioConfig, outdir: Path):
        self.cfg = cfg
        self.outdir = Path(outdir)
        self.summary: dict = {}  # check name -> {"status", "value", "detail"}
        self.files: list[str] = []
        self.report: dict = {}
        self.wall_clock_s: float | None = None  # set by finish
        self._t0 = time.perf_counter()

    @property
    def exit_code(self) -> int:
        return 0 if all(v["status"] != "fail" for v in self.summary.values()) else 1

    def to_dict(self) -> dict:
        return {
            "name": self.cfg.name,
            "version": __version__,
            "config": asdict(self.cfg),
            "wall_clock_s": self.wall_clock_s,
            "files": sorted(self.files),
            "summary": self.summary,
            "exit_code": self.exit_code,
        }

    def check(self, name, passed, value=None, detail=""):
        self.summary[name] = {"status": "pass" if passed else "fail",
                              "value": None if value is None else float(value),
                              "detail": detail}

    def skip(self, name, detail=""):
        self.summary[name] = {"status": "skip", "value": None, "detail": detail}

    def _path(self, name: str) -> Path:  # made at the first write: a run stopped before leaves none
        self.outdir.mkdir(parents=True, exist_ok=True)
        return self.outdir / name

    def write_signal(self, name: str, sig: Signal):
        write_signal_csv(sig, self._path(name))
        self.files.append(name)

    def write_rows(self, name: str, header: str, *columns):
        write_csv(self._path(name), header, *columns)
        self.files.append(name)

    def _dump(self, name: str, obj: dict):
        with open(self._path(name), "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=1, sort_keys=True)
            fh.write("\n")

    def finish(self) -> RunManifest:
        self.files += ["report.json", "manifest.json"]
        self._dump("report.json", self.report)
        self.wall_clock_s = round(time.perf_counter() - self._t0, 3)
        self._dump("manifest.json", self.to_dict())
        return self


# ---------------------------------------------------------------------------
# shared scenario pieces
# ---------------------------------------------------------------------------

# Planted non-cooperative coupling used by the negative quasimonotonicity
# check in every monotone scenario.
_COUNTEREXAMPLE = SystemSpec(
    "cooperative_ode", 2, "linear+trig",
    {"A": [[-1.0, -0.5], [0.5, -1.0]], "forcing": [[], []]},
)


def _builder(name: str, system: SystemSpec, integrator: IntegratorConfig,
             analysis: dict):
    """A catalog builder: the given horizon, if any, replaces ``t_end``."""
    def build(seed: int = 0, horizon: float | None = None) -> ScenarioConfig:
        icfg = integrator if horizon is None else replace(integrator, t_end=float(horizon))
        return ScenarioConfig(name, system, icfg, analysis, seed)
    return build


def _check_monotone(em: RunManifest, cfg: ScenarioConfig,
                    icfg: IntegratorConfig | None = None) -> None:
    """The ordered-pair battery (where the analysis has ``battery_count``),
    the exact sign test and its planted counterexample."""
    ana = cfg.analysis
    if "battery_count" in ana:
        count, horizon = ana["battery_count"], ana["battery_horizon"]
        worst, witness = comparison_battery(
            cfg.system, ana["state_box"], count, horizon, cfg=icfg, seed=cfg.seeds)
        em.check("monotonicity_battery", witness is None, worst,
                 f"{count} ordered pairs on [0, {horizon:g}]"
                 + ("" if witness is None else f"; violated at {witness}"))
    witness = quasimonotone_check(cfg.system)
    em.check("quasimonotone", witness is None,
             detail="exact sign test: A off the diagonal and A_delay nonnegative"
             if witness is None else f"witness {witness}")
    witness = quasimonotone_check(_COUNTEREXAMPLE)
    em.check("quasimonotone_counterexample", witness == (0, 1),
             detail=f"planted negative off-diagonal witnessed: {witness}")


def _check_state_box(em: RunManifest, lo: np.ndarray, hi: np.ndarray, box) -> None:
    """The per-component extremes lo, hi of a trajectory inside ``box``; the value
    is max |x| = max(-lo, hi), + 0.0 dropping a -0.0."""
    box = np.asarray(box, dtype=float)
    em.check("state_box", bool(np.all(lo >= box[:, 0] - 1e-9) and np.all(hi <= box[:, 1] + 1e-9)),
             max(-lo.min(), hi.max()) + 0.0, "boundedness proxy for conditional compactness")


def _check_closed_form(em: RunManifest, name: str, u_p, sig: Signal, tol: float,
                       detail: str, mask=slice(None)) -> None:
    """Sup distance between sig and the steady state u_p at sig's times
    (those that mask selects)."""
    err = float(np.abs(sig.samples[mask] - u_p(sig.times()[mask])).max())
    em.check(name, err < tol, err, detail)


def _check_convergence(em: RunManifest, a: Signal, b: Signal) -> None:
    splits, trend, passed = convergence_check(a, b, threshold=1e-3, split_count=5)
    em.check("convergence_check", passed, splits[-1][1], f"trend {trend}")
    em.write_rows("convergence.csv", "T,sup_dist", splits)


def _check_period(em: RunManifest, name: str, rep, ana: dict, detail: str) -> None:
    """The periodic verdict holds with the forcing's period."""
    gp = rep.classes["periodic"]
    period = gp.params.get("period")
    ok = (gp.verdict == "yes" and period is not None
          and abs(period - ana["period_target"]) <= ana["period_tol"])
    em.check(name, ok, value=period, detail=detail)


def _freqs_match(q, ana: dict) -> bool:
    """The quasi-periodic verdict holds with the target frequencies."""
    freqs, targets = sorted(q.params.get("freqs", [])), ana["freq_targets"]
    return (q.verdict == "yes" and len(freqs) == len(targets)
            and all(abs(a - b) <= ana["freq_tol"] for a, b in zip(freqs, targets)))


def _returns(em: RunManifest, forcing: Signal, ana: dict, window: Window):
    """Returns of the forcing, recorded in the report."""
    returns = poisson_returns(forcing, ana["return_schedule"], window,
                              separation=ana["return_separation"])
    em.report["returns"] = {"times": list(returns.times),
                            "discrepancies": list(returns.discrepancies)}
    return returns


def _extremal_solution(em: RunManifest, cfg: ScenarioConfig, u0, returns,
                       snap_cfg: IntegratorConfig):
    """The trajectory from u0 and its state box, the omega fiber sample, its
    extrema, and the extremal restarts.

    Returns the trajectory, the omega sample (times, snapshots) and the
    extraction (gamma, gaps) started from alpha, or None when the
    extractions are not Cauchy.
    """
    ana = cfg.analysis
    traj = integrate(cfg.system, u0, cfg.integrator)
    _check_state_box(em, *traj.extremes, ana["state_box"])
    times, snaps = omega_fiber_sample(traj, returns, ana["settle_time"])
    em.write_rows("omega_sample.csv",
                  "t_n," + ",".join(f"x{j+1}" for j in range(traj.dim)), times, snaps)
    alpha, beta = snaps.min(axis=0), snaps.max(axis=0)
    diameter = float((beta - alpha).max())
    em.check("omega_singleton", diameter < 1e-3, diameter, "retained snapshot diameter")
    try:
        gamma, gaps = gamma_extract(cfg.system, alpha, returns, snap_cfg,
                                    tol=ana["gamma_tol"])
        delta, _ = gamma_extract(cfg.system, beta, returns, snap_cfg,
                                 tol=ana["gamma_tol"])
    except NotCauchy as exc:
        em.check("gamma_cauchy", False, None, str(exc))
        for name in ("gamma_delta_agree", "sandwich"):
            em.skip(name, "extraction not Cauchy")
        return traj, (times, snaps), None
    em.check("gamma_cauchy", True, gaps[-1],
             f"final gap; tail {['%.2e' % x for x in gaps[-5:]]}")
    agree = float(np.abs(gamma - delta).max())
    em.check("gamma_delta_agree", agree < 1e-3, agree,
             "extremal-start extractions coincide")
    # The largest violation of gamma <= alpha <= beta <= delta, componentwise.
    viol = max(float((gamma - alpha).max()), float((alpha - beta).max()),
               float((beta - delta).max()), 0.0)
    em.check("sandwich", viol <= ana["sandwich_tol"], viol,
             f"gamma <= alpha <= beta <= delta componentwise within "
             f"{ana['sandwich_tol']:g}; the report holds the residual")
    em.report["sandwich_violation"] = viol
    return traj, (times, snaps), (gamma, gaps)


def _classify_entire(em: RunManifest, traj: Signal, returns, half_width: float,
                     fracs: tuple):
    """Reconstruct the entire trajectory at the last returns and classify it.

    ``fracs`` = (window, tau) scale the classify window's half-width and the
    shift range by ``half_width``.  Returns (gamma signal, report).
    """
    gamma_signal, agreement = entire_trajectory_estimate(traj, returns, half_width)
    em.report["entire_trajectory_agreement"] = agreement
    window_frac, tau_frac = fracs
    g_cfg = ClassifyConfig(
        window=Window(-half_width / 2, half_width * window_frac),
        tau_grid=TauGrid(0.0, half_width * tau_frac, gamma_signal.dt),
        fit_window=Window(0.0, half_width * 0.96),
    )
    rep = classify(gamma_signal, cfg=g_cfg)
    em.report["gamma_classification"] = jsonable(rep)
    return gamma_signal, rep


# ---------------------------------------------------------------------------
# s1-opial-scalar
# ---------------------------------------------------------------------------

build_s1 = _builder(
    "s1-opial-scalar",
    SystemSpec("scalar_ode", 1, "linear+trig",
               {"A": [[-1.0]], "forcing": [[[1.0, 1.0, 0.0], [1.0, _SQRT2, 0.0]]]}),
    IntegratorConfig(method="rk4_fixed", dt=0.1, t_end=215000.0, record_dt=0.1,
                     blowup_bound=6e6),
    {
        "state_box": [[-3.0, 3.0]],
        "oracle_horizon": 100.0,
        "oracle_rel_tol": 1e-8,
        "gamma_min_horizon": 40000.0,
        "forcing_dt": 0.05,
        "return_window": [100.0, 100.0],
        "return_schedule": [0.5, 0.12, 0.04, 0.016, 6e-3, 2.6e-3,
                            1.1e-3, 4.6e-4, 2.0e-4, 8.2e-5],
        "return_separation": 50.0,
        "settle_time": 10000.0,
        "entire_half_width": 60.0,
        "gamma_tol": 1e-4,
        "sandwich_tol": 1e-3,
        "freq_targets": [1.0, _SQRT2],
        "freq_tol": 1e-2,
    },
)


def _run_s1(em: RunManifest, cfg: ScenarioConfig) -> None:
    ana = cfg.analysis
    sysspec = cfg.system
    u_p = affine_rhs(sysspec).steady_state()
    u0 = u_p(0.0)[0]

    # Closed-form oracle on a short horizon with the adaptive integrator.
    oracle_cfg = IntegratorConfig(method="rk45_adaptive", dt=0.01,
                                  rel_tol=ana["oracle_rel_tol"], abs_tol=1e-10,
                                  t_end=ana["oracle_horizon"], record_dt=0.05)
    started = time.perf_counter()
    sol = integrate(sysspec, u0, oracle_cfg)
    oracle_runtime = time.perf_counter() - started
    _check_closed_form(em, "closed_form_match", u_p, sol, 1e-5,
                       f"sup error vs particular solution on [0, {ana['oracle_horizon']:g}]")
    em.check("closed_form_runtime", oracle_runtime < 5.0, round(oracle_runtime, 3),
             "seconds for the oracle run")

    # Convergence of two starts one apart.
    conv_cfg = replace(oracle_cfg, t_end=50.0)
    a = integrate(sysspec, u0, conv_cfg)
    b = integrate(sysspec, u0 + 1.0, conv_cfg)
    gap_10_15 = sup_distance(a, b, Window(12.5, 2.5))
    em.check("convergence_gap", gap_10_15 <= math.exp(-10.0) + 1e-6, gap_10_15,
             "sup distance on [10, 15] for starts 1 apart")
    _check_convergence(em, a, b)
    _check_monotone(em, cfg)

    # Forcing classification (the base point's own recurrence character).
    fdt = ana["forcing_dt"]
    p_short = forcing_signal("trig-sum", 0.0, 2000.0, fdt,
                             components=sysspec.params["forcing"])
    f_cfg = ClassifyConfig(
        window=Window(250.0, 250.0), tau_grid=TauGrid(0.0, 1400.0, 10 * fdt),
        fit_window=Window(950.0, 950.0),
    )
    forcing_report = classify(p_short, cfg=f_cfg)
    em.report["forcing"] = jsonable(forcing_report)
    fq = forcing_report.classes["quasi_periodic"]
    em.check("forcing_quasi_periodic", fq.verdict == "yes",
             detail=f"freqs {fq.params.get('freqs')}")
    em.write_signal("forcing.csv", p_short.restrict(0.0, 1000.0))

    t_end = cfg.integrator.t_end
    if t_end < ana["gamma_min_horizon"]:
        for name in ("gamma_cauchy", "gamma_delta_agree", "sandwich",
                     "omega_singleton", "gamma_classification"):
            em.skip(name, f"horizon {t_end:g} below {ana['gamma_min_horizon']:g}")
        em.write_signal("trajectory.csv", sol)
        return

    # Long run: returns from the forcing, omega sampling, extraction.
    wc, hw = ana["return_window"]
    returns = _returns(em, forcing_signal("trig-sum", 0.0, t_end + 2 * hw + 50.0, fdt,
                                          components=sysspec.params["forcing"]),
                       ana, Window(wc, hw))
    em.report["returns"]["schedule"] = list(returns.epsilon_schedule)
    traj, _, g = _extremal_solution(em, cfg, u0, returns, cfg.integrator)
    if g is not None:
        em.report["gamma"] = {"value": g[0].tolist(), "cauchy_tail": list(g[1])}
    gamma_signal, g_report = _classify_entire(
        em, traj, returns, ana["entire_half_width"], (0.4, 0.95))
    em.write_signal("gamma_signal.csv", gamma_signal)
    gq = g_report.classes["quasi_periodic"]
    em.check("gamma_classification",
             _freqs_match(gq, ana) and gq.verdict == fq.verdict,
             detail=f"freqs {gq.params.get('freqs', [])} vs targets "
                    f"{ana['freq_targets']}; matches forcing class")

    em.write_signal("trajectory.csv", traj.restrict(0.0, 1000.0))


# ---------------------------------------------------------------------------
# levitan
# ---------------------------------------------------------------------------

def build_levitan(seed: int = 0, horizon: float | None = None) -> ScenarioConfig:
    if horizon is not None and not float(horizon) > 0:
        raise ConfigInvalid(f"horizon must be positive, got {horizon:g}")
    span = 500.0 if horizon is None else min(float(horizon), 500.0)
    analysis = {
        "dt": 0.025,
        "span": span,
        "h_epsilons": [0.5, 0.2],
        "psi_epsilons": [0.2, 0.1],
        "freq_targets": [1.0, _SQRT2],
        "freq_tol": 1e-2,
        "lipschitz_slack": 1e-3,
    }
    # Its signals are closed forms: no system is integrated.
    return ScenarioConfig("levitan", None, None, analysis, seed)


def _run_levitan(em: RunManifest, cfg: ScenarioConfig) -> None:
    ana = cfg.analysis
    dt = ana["dt"]
    span = ana["span"]

    h = forcing_signal("levitan-base", 0.0, 2 * span, dt)
    phi = forcing_signal("levitan-phi", -span, span, dt)
    psi = forcing_signal("levitan-psi", -span, span, dt)

    h_cfg = ClassifyConfig(
        window=Window(span / 2, span / 2),           # [0, span]
        tau_grid=TauGrid(0.0, 0.8 * span, 4 * dt),
        bohr_epsilons=ana["h_epsilons"],
        fit_window=Window(span / 2, span / 2),
    )
    h_report = classify(h, cfg=h_cfg)
    em.report["h"] = jsonable(h_report)
    hb = h_report.classes["bohr_ap"]
    em.check("h_bohr_unsaturated", hb.verdict == "yes",
             detail=f"table {hb.params.get('table')}")
    hq = h_report.classes["quasi_periodic"]
    em.check("h_quasi_periodic", _freqs_match(hq, ana),
             detail=f"freqs {sorted(hq.params.get('freqs', []))}")

    psi_cfg = ClassifyConfig(
        window=Window(-span / 2, span / 2),          # [-span, 0]
        tau_grid=TauGrid(0.0, span, 4 * dt),
        bohr_epsilons=ana["psi_epsilons"],
        base_declared="levitan",
        fit_window=Window(-span / 2, span / 2),
    )
    psi_report = classify(psi, base=phi, cfg=psi_cfg)
    em.report["psi"] = jsonable(psi_report)
    rows = {e: (L, sat) for e, L, sat in
            (tuple(r) for r in psi_report.classes["bohr_ap"].params["table"])}
    L01, sat01 = rows[0.1]
    em.check("psi_bohr_saturated", bool(sat01), L01,
             "inclusion length at eps=0.1 saturates the grid "
             "(evidence against uniform almost periods)" if sat01 else
             f"inclusion length at eps=0.1 is {L01:g}, inside the grid: it does not saturate")

    prof = psi_report.comparability
    slack = ana["lipschitz_slack"]
    ok = prof is not None and prof.verdict == "comparable-evidence"
    vals = {}
    if ok:
        for e, dh in prof.pairs:
            vals[e] = dh
            if not dh >= e * (1 - slack):
                ok = False
    em.check("psi_comparability", ok,
             detail=f"delta_hat {vals}; every delta-shift of the base is an "
                    "eps-shift of psi")
    lev = (psi_report.transfer or {}).get("levitan_evidence")
    em.check("psi_levitan_evidence", lev == "yes",
             detail="relative to the supplied base 1/h (declared levitan)")

    em.write_signal("h.csv", h.restrict(0.0, min(200.0, 2 * span)))
    em.write_signal("phi.csv", phi.restrict(-min(100.0, span), min(100.0, span)))
    em.write_signal("psi.csv", psi.restrict(-min(100.0, span), min(100.0, span)))


# ---------------------------------------------------------------------------
# s3-coop-2d
# ---------------------------------------------------------------------------

build_s3 = _builder(
    "s3-coop-2d",
    SystemSpec("cooperative_ode", 2, "linear+trig",
               {"A": [[-2.0, 1.0], [1.0, -2.0]],
                "forcing": [[[1.0, 1.0, 0.0]], [[1.0, 1.0, math.pi / 2]]]}),
    IntegratorConfig(method="rk45_adaptive", dt=0.01, rel_tol=1e-10, abs_tol=1e-12,
                     t_end=150.0, record_dt=0.05, blowup_bound=4e6),
    {
        "state_box": [[-2.0, 2.0], [-2.0, 2.0]],
        "battery_count": 100,
        "battery_horizon": 50.0,
        "return_schedule": [0.1, 0.01, 1e-3] + [1e-4] * 7,
        "return_separation": 5.0,
        "settle_time": 30.0,
        "entire_half_width": 15.0,
        "gamma_tol": 1e-4,
        "sandwich_tol": 1e-6,
        "period_target": 2 * math.pi,
        "period_tol": 0.02,
    },
)


def _run_s3(em: RunManifest, cfg: ScenarioConfig) -> None:
    ana = cfg.analysis
    sysspec = cfg.system
    u_p = affine_rhs(sysspec).steady_state()

    # Closed-form start: the particular solution is an exact trajectory.
    short_cfg = replace(cfg.integrator, t_end=50.0)
    sol = integrate(sysspec, u_p(0.0)[0], short_cfg)
    _check_closed_form(em, "closed_form_match", u_p, sol, 1e-6,
                       "trajectory started on the particular solution stays on it")
    _check_monotone(em, cfg)

    # Convergence of two ordered starts.
    a = integrate(sysspec, np.array([-1.0, -0.5]), short_cfg)
    b = integrate(sysspec, np.array([1.0, 0.5]), short_cfg)
    _check_convergence(em, a, b)

    # Returns from the periodic forcing, omega sampling, extraction.
    t_end = cfg.integrator.t_end
    forcing = forcing_signal("trig-sum", 0.0, t_end, 0.05,
                             components=sysspec.params["forcing"])
    returns = _returns(em, forcing, ana, Window(25.0, 25.0))
    snap_cfg = IntegratorConfig(method="rk4_fixed", dt=5e-3, t_end=t_end,
                                record_dt=5e-3, blowup_bound=4e6)
    traj, (times, snaps), _ = _extremal_solution(
        em, cfg, u_p(0.0)[0] + np.array([0.5, -0.3]), returns, snap_cfg)

    # Restart from the first retained snapshot and reproduce the others: the
    # Hausdorff distance between the original and the restarted snapshots.
    t0 = float(times[0])
    restarted = integrate_ode_snapshots(sysspec.shifted(t0), snaps[0], snap_cfg,
                                        np.asarray(times[1:], dtype=float) - t0)
    dist = np.abs(snaps[1:, None, :] - restarted[None, :, :]).max(axis=2)
    inv_defect = float(max(dist.min(axis=1).max(), dist.min(axis=0).max()))
    em.check("omega_invariance", inv_defect < 1e-3, inv_defect,
             "restarted snapshots reproduce the sampled fiber set")

    witness = contraction_check(sysspec, pairs=16, horizon=10.0,
                                box=ana["state_box"], seed=cfg.seeds)
    em.check("contraction", witness is None,
             detail="same-fiber gaps strictly shrink at sampled times"
             if witness is None else f"witness {witness}")

    gamma_signal, g_report = _classify_entire(
        em, traj, returns, ana["entire_half_width"], (0.35, 0.9))
    em.write_signal("gamma_signal.csv", gamma_signal)
    _check_period(em, "gamma_classification", g_report, ana,
                  "periodic with the forcing's period")

    em.write_signal("forcing.csv", forcing.restrict(0.0, min(200.0, t_end)))
    em.write_signal("trajectory.csv", traj.restrict(0.0, min(200.0, t_end)))


# ---------------------------------------------------------------------------
# s4-dde-linear
# ---------------------------------------------------------------------------

build_s4 = _builder(
    "s4-dde-linear",
    SystemSpec("dde_single_delay", 1, "delay-linear",
               {"A_self": [[-2.0]], "A_delay": [[1.0]], "delay": 1.0,
                "forcing": [[[1.0, 1.0, 0.0]]]}),
    IntegratorConfig(method="rk4_fixed", dt=0.01, t_end=60.0, record_dt=0.05,
                     blowup_bound=4e6),
    {
        "state_box": [[-2.0, 2.0]],
        "history_value": 0.5,
        "battery_count": 100,
        "battery_horizon": 50.0,
        "tail_window": [45.0, 60.0],
        "tail_tol": 1e-6,
        "period_target": 2 * math.pi,
        "period_tol": 0.02,
    },
)


def _run_s4(em: RunManifest, cfg: ScenarioConfig) -> None:
    ana = cfg.analysis
    sysspec = cfg.system
    p = sysspec.params
    r = float(p["delay"])

    hist = Signal(-r, r / 2, np.full((3, 1), ana["history_value"]))
    traj = integrate(sysspec, hist, cfg.integrator)
    _check_state_box(em, *traj.extremes, ana["state_box"])
    em.write_signal("trajectory.csv", traj)

    lo, hi = ana["tail_window"]
    _check_closed_form(em, "closed_form_tail", affine_rhs(sysspec).steady_state(),
                       traj.restrict(lo, hi), ana["tail_tol"],
                       "trajectory locks onto the periodic particular solution")

    _check_monotone(em, cfg, cfg.integrator)
    bad_sys = replace(sysspec, params={**p, "A_delay": [[-1.0]]})
    em.check("quasimonotone_delay_counterexample", quasimonotone_check(bad_sys) is not None,
             detail="negative delayed coefficient must fail")

    # Two constant histories converge to the same tail.
    h2 = Signal(-r, r / 2, np.full((3, 1), ana["history_value"] - 1.0))
    _check_convergence(em, traj, integrate(sysspec, h2, cfg.integrator))

    sub = traj.restrict(20.0, cfg.integrator.t_end)
    c_cfg = ClassifyConfig(
        window=Window(30.0, 8.0),
        tau_grid=TauGrid(0.0, 20.0, sub.dt),
        fit_window=Window(0.5 * (20.0 + cfg.integrator.t_end),
                          0.48 * (cfg.integrator.t_end - 20.0)),
    )
    rep = classify(sub, cfg=c_cfg)
    em.report["tail_classification"] = jsonable(rep)
    _check_period(em, "tail_classification", rep, ana,
                  "asymptotically periodic with the forcing period")


# ---------------------------------------------------------------------------
# s5-rd-scalar
# ---------------------------------------------------------------------------

build_s5 = _builder(
    "s5-rd-scalar",
    SystemSpec("parabolic_1d", 1, "rd-scalar",
               {"nu": [0.1], "L": math.pi, "decay": [1.0],
                "source_amp": [1.0], "omega": 1.0, "phase": 0.0}),
    IntegratorConfig(method="rk4_fixed", dt=8e-4, t_end=50.0, record_dt=0.1,
                     space_points=200, blowup_bound=1e7),
    {
        "state_box": [[-2.0, 2.0]],
        "battery_count": 100,
        "battery_horizon": 50.0,
        "battery_points": 64,
        "oracle_points": 200,
        "mean_rel_tol": 1e-8,
        "decay_rel_tol": 1e-2,
        "tail_tol": 1e-5,
        "entire_half_width": 12.0,
        "period_target": 2 * math.pi,
        "period_tol": 0.02,
    },
)


def _run_s5(em: RunManifest, cfg: ScenarioConfig) -> None:
    ana = cfg.analysis
    sysspec = cfg.system
    p = sysspec.params
    nu = float(p["nu"][0])
    L = float(p["L"])
    m = ana["oracle_points"]
    xs = np.linspace(0.0, L, m)

    # Zero-reaction oracle: exact mean conservation + first-mode decay rate.
    zero_sys = replace(sysspec, params={**p, "decay": [0.0], "source_amp": [0.0]})
    t_star = L * L / (nu * math.pi * math.pi)
    z_cfg = replace(cfg.integrator, t_end=t_star, record_dt=t_star / 50,
                    space_points=m)
    mode = np.cos(math.pi * xs / L)  # the first Neumann mode
    u0 = 1.0 + mode
    started = time.perf_counter()
    zfield = integrate_parabolic(zero_sys, u0[None, :], z_cfg)
    z_runtime = time.perf_counter() - started
    w = np.ones(m)
    w[0] = w[-1] = 0.5  # trapezoid weights over the nodes
    means = (zfield.samples * w).sum(axis=-1) / w.sum()
    mean_drift = float(np.abs(means - means[0]).max() / abs(means[0]))
    em.check("mean_conservation", mean_drift < ana["mean_rel_tol"], mean_drift,
             "relative drift of the trapezoid spatial mean, zero reaction")
    amps = (zfield.samples * (w * mode)).sum(axis=-1) / float((w * mode * mode).sum())
    ratio = amps[-1] / amps[0]
    target = math.exp(-nu * (math.pi / L) ** 2 * t_star)
    decay_err = abs(ratio - target) / target
    em.check("cosine_mode_decay", decay_err < ana["decay_rel_tol"], decay_err,
             f"relative error of the first-mode decay factor at t={t_star:g}")
    em.check("parabolic_oracle_runtime", z_runtime < 10.0, round(z_runtime, 3),
             "seconds for the zero-reaction run")
    em.write_rows("conservation.csv", "t,mean", zfield.times(), means)
    em.write_rows("decay.csv", "t,amplitude", zfield.times(), amps)

    # Main forced run and its closed-form tail.
    traj = integrate(sysspec, (1.0 + 0.5 * mode)[None, :], cfg.integrator)
    _check_closed_form(em, "closed_form_tail", affine_rhs(sysspec, m).steady_state(),
                       traj, ana["tail_tol"],
                       "settled field matches the separable particular solution",
                       traj.times() >= cfg.integrator.t_end - 10.0)

    lo, hi = traj.extremes  # every node and species in one box
    _check_state_box(em, lo.min(keepdims=True), hi.max(keepdims=True), ana["state_box"])
    # The battery grid is coarser than the oracle grid; let the stability
    # cap inside the integrator choose the step for it.
    _check_monotone(em, cfg, replace(cfg.integrator, space_points=ana["battery_points"],
                                     record_dt=0.5, dt=0.5))

    # Two ordered start fields converge toward the same periodic regime.
    m_c = ana["battery_points"]
    xs_c = np.linspace(0.0, L, m_c)
    conv_cfg = replace(cfg.integrator, t_end=30.0, record_dt=0.1, dt=0.1,
                       space_points=m_c)
    fa = integrate(sysspec, np.full((1, m_c), 0.2), conv_cfg)
    fb = integrate(sysspec, (1.2 + 0.4 * np.cos(math.pi * xs_c / L))[None, :], conv_cfg)
    _check_convergence(em, fa, fb)

    # Entire-trajectory reconstruction at forcing return times.
    forcing = forcing_signal("trig-sum", 0.0, cfg.integrator.t_end, 0.05,
                             components=[[[1.0, p["omega"], p["phase"]]]])
    returns = poisson_returns(forcing, [0.1, 0.01] + [1e-3] * 5,
                              Window(7.0, 7.0), separation=5.0)
    _, g_report = _classify_entire(em, traj, returns, ana["entire_half_width"],
                                   (0.35, 0.9))
    _check_period(em, "gamma_classification", g_report, ana,
                  "field is asymptotically periodic with the forcing period")

    # The oracle grid is the run's node grid.
    em.write_rows("field_final.csv", "x,u", xs, traj.samples[-1])


# ---------------------------------------------------------------------------
# catalog and runner
# ---------------------------------------------------------------------------

CATALOG = {
    "s1-opial-scalar": (build_s1, _run_s1,
                        "scalar monotone ODE with quasi-periodic forcing"),
    "levitan": (build_levitan, _run_levitan,
                "bounded base h and unbounded composition sin(1/h)"),
    "s3-coop-2d": (build_s3, _run_s3,
                   "cooperative Hurwitz pair with periodic forcing"),
    "s4-dde-linear": (build_s4, _run_s4,
                      "single-delay linear equation, positive delayed term"),
    "s5-rd-scalar": (build_s5, _run_s5,
                     "scalar reaction-diffusion with Neumann walls"),
}


def build_scenario(name: str, *, seed: int = 0,
                   horizon: float | None = None) -> ScenarioConfig:
    try:
        builder = CATALOG[name][0]
    except KeyError:
        raise ConfigInvalid(f"unknown scenario {name!r}") from None
    return builder(seed=seed, horizon=horizon)


def read_json_config(path, what: str):
    """The JSON document at ``path``; unreadable, a ConfigInvalid naming ``what`` and the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigInvalid(f"cannot read {what} config {path}: {exc}") from exc


# The keys of a scenario config file, and the one analysis key of each kind: its start.
_CONFIG_KEYS = ("name", "system", "integrator", "analysis", "seeds", "outputs")
_START_KEY = {"dde_single_delay": "history_value", "parabolic_1d": "u0_value"}


def load_scenario_config(path) -> ScenarioConfig:
    """Build a ScenarioConfig from the documented JSON file format; an unknown key at any
    level is a ConfigInvalid."""
    raw = read_json_config(path, "scenario")
    try:
        require_known_keys(raw, _CONFIG_KEYS, "scenario config keys")
        cfg = ScenarioConfig(
            name=raw.get("name", Path(path).stem),
            system=SystemSpec(**raw["system"]),
            integrator=IntegratorConfig(**raw.get("integrator", {})),
            analysis=raw.get("analysis", {}),
            seeds=raw.get("seeds", 0),
            outputs=raw.get("outputs"),
        )
        require_known_keys(cfg.analysis, (_START_KEY.get(cfg.system.kind, "u0"),), "analysis keys")
        affine_rhs(cfg.system)
    except (KeyError, TypeError, ValueError, AttributeError, IndexError) as exc:
        raise ConfigInvalid(f"bad scenario config {path}: {exc}") from exc
    if cfg.name in CATALOG:
        raise ConfigInvalid(f"scenario name {cfg.name!r} is reserved for the "
                            "built-in catalog; rename the config")
    return cfg


def output_dir(cfg: ScenarioConfig) -> Path:
    """The config's ``outputs``, else ``$POISSON_LAB_OUT/<name>`` (default
    ``poisson-lab-out/<name>``)."""
    if cfg.outputs:
        return Path(cfg.outputs)
    return Path(os.environ.get("POISSON_LAB_OUT", "poisson-lab-out")) / cfg.name


def run_scenario(cfg: ScenarioConfig, outdir=None) -> RunManifest:
    """Run a scenario end to end and write its artifacts.

    The exit status of the returned manifest reflects the pass/fail summary:
    0 when every scientific check passed, 1 otherwise.  A stage that stops
    with a PoissonLabError or a MemoryError is recorded as a failed
    ``aborted`` check, and the report and manifest are still written;
    configuration, parse and domain errors propagate without a manifest.
    A config whose integration needs more records or steps than an array
    can hold, or an output directory that cannot be made, is rejected before
    any output is written.
    """
    if cfg.system is not None:
        require_countable(cfg.system, cfg.integrator, cfg.integrator.space_points or _NODES)
    em = RunManifest(cfg, output_dir(cfg) if outdir is None else Path(outdir))
    _require_writable(em.outdir)
    entry = CATALOG.get(cfg.name)
    try:
        (entry[1] if entry is not None else _run_generic)(em, cfg)
    except (ConfigInvalid, ParseError, DomainMismatch):
        raise
    except (PoissonLabError, MemoryError) as exc:
        em.check("aborted", False, detail=f"{type(exc).__name__}: {exc}")
    return em.finish()


def _require_writable(outdir: Path, what: str | None = None) -> None:
    """Raise ConfigInvalid unless ``outdir``, or else its nearest existing
    ancestor, is a directory this process can write in.  The message says
    that ``what`` (by default the artifacts to outdir) cannot be written."""
    p = outdir
    while not p.exists() and p.parent != p:
        p = p.parent
    if not (p.is_dir() and os.access(p, os.W_OK | os.X_OK)):
        raise ConfigInvalid(f"cannot write {what or f'artifacts to {outdir}'}: "
                            f"{p} is not a writable directory")


def _run_generic(em: RunManifest, cfg: ScenarioConfig) -> None:
    """Minimal pipeline for user-supplied configs: integrate and classify."""
    sysspec = cfg.system
    ana = cfg.analysis
    kind = sysspec.kind
    try:
        if kind == "dde_single_delay":
            r = affine_rhs(sysspec).r
            val = float(ana.get("history_value", 0.0))
            start = Signal(-r, r / 2, np.full((3, sysspec.dim), val))
        elif kind == "parabolic_1d":
            m = cfg.integrator.space_points or _NODES
            start = np.full((sysspec.dim, m), float(ana.get("u0_value", 1.0)))
        else:
            start = np.asarray(ana.get("u0", [0.0] * sysspec.dim), dtype=float)
            if start.shape != (sysspec.dim,):
                raise ValueError(f"u0 must have {sysspec.dim} entries")
    except (TypeError, ValueError) as exc:
        raise ConfigInvalid(f"bad start value in the analysis section: {exc}") from exc
    traj = integrate(sysspec, start, cfg.integrator)
    lo, hi = traj.extremes
    em.check("integration", True, max(-lo.min(), hi.max()) + 0.0,  # as state_box
             "trajectory completed inside the blowup bound")
    rep = classify(traj, cfg=default_classify_config(traj))
    em.report["classification"] = jsonable(rep)
    em.write_signal("trajectory.csv", traj)
