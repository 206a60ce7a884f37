"""Limit-set sampling and convergence machinery.

Snapshots of a trajectory at base return times approximate one fiber of its
omega-limit set; componentwise extrema of those snapshots, restarted
integrations from the extrema, and trailing-window distance checks realize
the extremal-solution and convergence statements numerically.  Return times
always come from the base forcing, never from the trajectory itself.

All estimates are finite-horizon; horizons, probe counts and seeds are
configuration-visible so reports are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InsufficientReturns, NotCauchy
from .recurrence import ReturnSequence
from .signals import Signal, Window, sup_distance
from .systems import (
    IntegratorConfig,
    SystemSpec,
    integrate_dde_batch,
    integrate_ode_batch,
    integrate_ode_snapshots,
    integrate_parabolic_batch,
)

_NODES = 64  # nodes of a parabolic start field whose config sets no ``space_points``

# ---------------------------------------------------------------------------
# omega-fiber sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OmegaSample:
    """Trajectory snapshots at base return times past a settle horizon."""

    times: np.ndarray      # retained return times
    snapshots: np.ndarray  # (k, dim)

    def diameter(self) -> float:
        return float((self.snapshots.max(axis=0) - self.snapshots.min(axis=0)).max())


@dataclass(frozen=True)
class GammaExtraction:
    gamma: np.ndarray
    cauchy_tail: tuple          # successive snapshot gaps


@dataclass(frozen=True)
class ConvergenceReport:
    splits: tuple               # ((T, sup-distance on [T, T+w]), ...)
    trend: str                  # decreasing | stagnant | increasing
    passed: bool


def omega_fiber_sample(traj: Signal, returns: ReturnSequence,
                       settle_time: float) -> OmegaSample:
    """Snapshots traj(t_n) for return times past the settle horizon."""
    times = np.asarray(returns.times, dtype=float)
    keep = times[times > settle_time]
    if keep.size < 3:
        raise InsufficientReturns(
            f"only {keep.size} return times past settle_time={settle_time:g}"
        )
    lo, hi = traj.domain
    if keep[0] < lo or keep[-1] > hi:
        raise InsufficientReturns("return times leave the trajectory domain")
    snaps = traj.values(keep)
    return OmegaSample(keep, snaps)


# ---------------------------------------------------------------------------
# distinguished-solution extraction
# ---------------------------------------------------------------------------

def gamma_extract(sys: SystemSpec, start, returns: ReturnSequence,
                  cfg: IntegratorConfig, *, tol: float = 1e-4) -> GammaExtraction:
    """Integrate from ``start`` and track snapshots at the base return times.

    The final snapshot is the distinguished-solution estimate; the list of
    successive snapshot gaps is the convergence evidence.  Raises NotCauchy
    when the last five gaps fail to shrink: that is the signal that the
    extremal-limit hypotheses fail for this scenario.
    """
    if len(returns) == 0:
        raise InsufficientReturns("empty return sequence")
    times = np.asarray(returns.times, dtype=float)
    snaps = integrate_ode_snapshots(sys, start, cfg, times)
    gaps = np.abs(np.diff(snaps, axis=0)).max(axis=1).tolist()
    if not gaps:
        raise InsufficientReturns("need at least two return times")
    recent = gaps[-5:]
    final = recent[-1]
    # Strict decrease is required only above the tolerance floor; gaps at
    # the floor are rounding noise of an already-converged sequence.
    shrinking = all(
        b < a or b < tol for a, b in zip(recent, recent[1:])
    )
    if not (final < tol and shrinking):
        raise NotCauchy(
            f"snapshot gaps not Cauchy: tail={['%.3g' % g for g in recent]}")
    return GammaExtraction(snaps[-1], tuple(gaps))


def entire_trajectory_estimate(traj: Signal, returns: ReturnSequence,
                               half_width: float):
    """Reconstruct a two-sided trajectory segment from late return times.

    gamma_n(t) := traj(t + t_n) on [-W, W] for the last two usable t_n; the
    reported agreement between them is the numeric counterpart of a unique
    backward extension.
    """
    lo, hi = traj.domain
    usable = [t for t in returns.times
              if t - half_width >= lo - 1e-9 and t + half_width <= hi + 1e-9]
    if len(usable) < 2:
        raise InsufficientReturns(
            f"need 2 return times with +-{half_width:g} margin, have {len(usable)}"
        )
    t_a, t_b = usable[-2], usable[-1]
    offs = traj.dt * np.arange(-round(half_width / traj.dt),
                               round(half_width / traj.dt) + 1)
    rec_a = traj.values(offs + t_a)
    rec_b = traj.values(offs + t_b)
    agreement = float(np.abs(rec_a - rec_b).max())
    gamma_signal = Signal(float(offs[0]), traj.dt, rec_b)
    return gamma_signal, agreement


# ---------------------------------------------------------------------------
# convergence and contraction estimates
# ---------------------------------------------------------------------------

def convergence_check(a: Signal, b: Signal, threshold: float,
                      split_count: int) -> ConvergenceReport:
    """Sup-distances on trailing windows of the common domain plus a trend."""
    lo = max(a.t0, b.t0)
    hi = min(a.t_end, b.t_end)
    if split_count < 2 or hi - lo <= 0:
        raise ValueError("need an overlapping domain and split_count >= 2")
    width = (hi - lo) / split_count
    starts = [lo + k * width for k in range(split_count)]
    vals = [sup_distance(a, b, Window(t + width / 2, width / 2)) for t in starts]
    rel = 1e-9 * max(max(vals), 1e-300)
    if all(y <= x + rel for x, y in zip(vals, vals[1:])) and vals[-1] < vals[0] - rel:
        trend = "decreasing"
    elif all(y >= x - rel for x, y in zip(vals, vals[1:])) and vals[-1] > vals[0] + rel:
        trend = "increasing"
    else:
        trend = "stagnant"
    passed = vals[-1] < threshold and trend != "increasing"
    return ConvergenceReport(tuple(zip(starts, vals)), trend, passed)


@dataclass(frozen=True)
class ContractionResult:
    contracting: bool
    witness: tuple | None = None  # (pair index, t, d_before, d_after)


def contraction_check(sys: SystemSpec, pairs: int, horizon: float, *,
                      box, seed: int = 0) -> ContractionResult:
    """Strict decrease of the gap between same-fiber pairs at five sampled
    times (fixed-step RK4, dt 1e-3)."""
    if pairs < 8:
        raise ValueError("need at least 8 pairs")
    box = np.asarray(box, dtype=float)
    cfg = IntegratorConfig(method="rk4_fixed", dt=1e-3, t_end=horizon,
                           record_dt=horizon / 5)
    rng = np.random.default_rng(seed)
    A = rng.uniform(box[:, 0], box[:, 1], size=(pairs, sys.dim)).T
    B = rng.uniform(box[:, 0], box[:, 1], size=(pairs, sys.dim)).T
    ts, Ya = integrate_ode_batch(sys, A, cfg)
    _, Yb = integrate_ode_batch(sys, B, cfg)
    gaps = np.abs(Ya - Yb).max(axis=1)  # (n_times, pairs)
    # A pair that starts together is skipped; a NaN gap fails.
    bad = ~(gaps[1:] < gaps[:-1]) & ~(gaps[0] < 1e-12)
    if not bad.any():
        return ContractionResult(True)
    p = int(np.argmax(bad.any(axis=0)))
    i = int(np.argmax(bad[:, p])) + 1
    return ContractionResult(False, (p, float(ts[i]), float(gaps[i - 1, p]), float(gaps[i, p])))


# ---------------------------------------------------------------------------
# ordered-pair batteries
# ---------------------------------------------------------------------------

def ordered_pairs(box, count: int, rng: np.random.Generator):
    """Random componentwise-ordered pairs (lower, upper) inside a box."""
    box = np.asarray(box, dtype=float)
    dim = box.shape[0]
    lo = rng.uniform(box[:, 0], box[:, 1], size=(count, dim))
    up = lo + rng.uniform(0.0, 1.0, size=(count, dim)) * (box[:, 1] - lo)
    return lo.T, up.T  # each (dim, count)


def _ordered_fields(sys: SystemSpec, count: int, m: int, rng: np.random.Generator):
    """Random ordered start fields (lower, upper) on m nodes, each (1, m, count)."""
    L = sys.params["L"]
    xs = np.linspace(0.0, float(L), m)
    base = rng.uniform(0.0, 1.5, size=(count, 1, 1)) \
        + rng.uniform(-0.5, 0.5, size=(count, 1, 1)) * np.cos(math.pi * xs / L)
    bump = rng.uniform(0.0, 1.0, size=(count, 1, 1)) \
        * (1.0 + rng.uniform(-0.5, 0.5, size=(count, 1, 1)) * np.cos(2 * math.pi * xs / L)) / 1.5
    return np.transpose(base, (1, 2, 0)), np.transpose(base + np.abs(bump), (1, 2, 0))


def comparison_battery(sys: SystemSpec, box, count: int, horizon: float, *,
                       cfg: IntegratorConfig | None = None, seed: int = 0):
    """Integrate ordered pairs side by side and report the worst violation.

    ODE starts and constant DDE histories are drawn inside ``box``; parabolic
    start fields have ``cfg.space_points`` nodes (``_NODES`` when unset) and ignore
    ``box``.  A violation counts above 1e-9 + 1e-6 times the largest state.
    Returns (ordered: bool, worst_violation, witness or None), the witness
    being (t, ...index of the violating entry, pair index last).
    """
    if cfg is None:
        cfg = IntegratorConfig(method="rk4_fixed", dt=1e-3, t_end=horizon,
                               record_dt=0.05)
    else:
        cfg = replace(cfg, t_end=horizon)
    rng = np.random.default_rng(seed)
    if sys.kind == "parabolic_1d":
        lo, up = _ordered_fields(sys, count, cfg.space_points or _NODES, rng)
        integrate = integrate_parabolic_batch
    else:
        lo, up = ordered_pairs(box, count, rng)
        integrate = integrate_dde_batch if sys.kind == "dde_single_delay" \
            else integrate_ode_batch
    if lo.shape[:-1] == (1,):
        # A one-entry state's step is an exact product per column, so each
        # keeps its bits in a batch of any width, and the two run as one.  A
        # wider state's BLAS products round a column by the batch width.
        ts, Y = integrate(sys, np.concatenate((lo, up), axis=-1), cfg)
        Ylo, Yup = Y[..., :count], Y[..., count:]
    else:
        ts, Ylo = integrate(sys, lo, cfg)
        Yup = integrate(sys, up, cfg)[1]
    tol = 1e-9 + 1e-6 * float(max(-min(Ylo.min(), Yup.min()), max(Ylo.max(), Yup.max())))  # max |Y|
    gap = np.subtract(Ylo, Yup, out=Ylo)  # ordered means <= 0 (+tol); Ylo is not read again
    worst = float(gap.max())
    if worst <= tol:
        return True, worst, None
    idx = np.unravel_index(int(np.argmax(gap)), gap.shape)
    return False, worst, (float(ts[idx[0]]), *(int(i) for i in idx[1:]))
