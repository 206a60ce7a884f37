"""Brute-force references and probes that only the tests use.

The stage loops are the references the integrators' fast paths are checked
against: ``_rk4_span`` for the closed-form and affine RK4 paths,
``dopri5_stage_loop`` for Dopri5's step map, ``dopri5_array_loop`` for the
bits of Dopri5's scalar step control, and ``coordinate_fit``, a
golden-section frequency polish, for the Gauss-Newton spectral fit.
``rk4_record_powers`` is the scalar closed form that raises P to every
record's power, ``sup_distance_unique`` the sup distance over ``np.unique``'s
times, ``comparability_uncapped`` the comparability profile from both whole
discrepancy profiles; ``spiked_noise`` is a test signal whose spike a capped
profile's head may miss.  ``affine_steps_matmul``, ``half_values_gather`` and
``full_lower_bound_stacked`` are the earlier forms of three kernels, which
keep their bits.  The cocycle probes are oracles of the integrators;
``order_check``, ``uniform_stability_estimate`` and ``almost_periods`` are
estimators no scenario runs.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from poisson_lab.errors import (
    ConfigInvalid,
    DimensionMismatch,
    StepUnderflow,
)
from poisson_lab import systems
from poisson_lab.recurrence import (
    TauGrid,
    _comparability,
    _dominant_component,
    _golden_min,
    _max_gap,
    _spectral_peaks,
)
from poisson_lab.signals import Signal, Window, discrepancy_profile
from poisson_lab.systems import (
    _DP_A,
    _DP_C,
    _DP_E,
    _POWERS,
    IntegratorConfig,
    SystemSpec,
    _check_records,
    _dopri5_table,
    _record_count,
    _rk4_particular,
    build_dde_rhs,
    integrate_dde,
    integrate_ode_batch,
    integrate_ode_snapshots,
    integrate_parabolic,
)


# ---------------------------------------------------------------------------
# integrator stage loops
# ---------------------------------------------------------------------------

def _rk4_span(rhs, t0: float, y: np.ndarray, h: float, steps) -> np.ndarray:
    """Generic RK4 stage loop over the step indices ``steps``, step k at t0 + k h."""
    for k in steps:
        t = t0 + k * h
        k1 = rhs(t, y)
        th = t + 0.5 * h
        k2 = rhs(th, y + (0.5 * h) * k1)
        k3 = rhs(th, y + (0.5 * h) * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    return y


def rk4_record_powers(rhs, y: np.ndarray, cfg: IntegratorConfig) -> np.ndarray:
    """The records of a scalar closed-form RK4 run, P**k at every record step k,
    chunk by chunk as ``_rk4_record`` forms them (reading ``systems._CHUNK``
    and ``systems._rk4_coeffs`` at call time, so patches of either apply)."""
    records = _record_count(cfg)
    nsub = max(1, math.ceil(cfg.record_dt / cfg.dt - 1e-12))
    h = cfg.record_dt / nsub
    out = np.empty((records, 1))
    out[0] = y
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = systems._rk4_coeffs(rhs.A, h)
        part = _rk4_particular(rhs, coeffs, h, (records - 1) * nsub)
        e = y - part([0.0])[0]
        for r0 in range(1, records, systems._CHUNK):
            r1 = min(r0 + systems._CHUNK, records)
            out[r0:r1] = part.on_grid(0.0, nsub * h, r0, r1 - r0)
            pw = coeffs[0][0, 0] ** (nsub * np.arange(r0, r1))
            out[r0:r1] += np.where(e == 0.0, 0.0, np.multiply.outer(pw, e))
    return out


def sup_distance_unique(f: Signal, g: Signal, w: Window) -> float:
    """``sup_distance`` over np.unique of the window's grid times and its clipped ends."""
    i0, i1 = f.window_slice(w)
    ts = np.unique(np.concatenate([[max(w.lo, f.t0, g.t0)], f.t0 + f.dt * np.arange(i0, i1 + 1),
                                   [min(w.hi, f.t_end, g.t_end)]]))
    return float(np.abs(f.values(ts) - g.values(ts)).max())


def dopri5_stage_step(rhs, t: float, y: np.ndarray, h: float, k1: np.ndarray):
    """One Dormand-Prince trial step by its seven stages: (y5, h err, k7)."""
    ks = [k1]
    yi = y
    for i in range(1, 7):
        acc = y.copy()
        for a, k in zip(_DP_A[i], ks):
            if a != 0.0:
                acc += (h * a) * k
        yi = acc
        ks.append(rhs(t + _DP_C[i] * h, yi))
    err_vec = np.zeros_like(y)
    for e, k in zip(_DP_E, ks):
        if e != 0.0:
            err_vec += e * k
    err_vec *= h
    return yi, err_vec, ks[6]  # the 7th stage is evaluated at the 5th-order solution


def dopri5_stage_loop(rhs, y0, cfg: IntegratorConfig, times):
    """Dopri5 with FSAL and the step control of ``systems._dopri5``, calling
    the right-hand side at every stage: (the states at ``times``, the number
    of rejected trial steps)."""
    t, y, h_next = 0.0, np.array(y0, dtype=float), cfg.dt
    k1 = rhs(t, y)
    out = np.empty((len(times),) + y.shape)
    rejected = 0
    for n, t_target in enumerate(times):
        eps_t = 1e-12 * max(1.0, abs(t_target))
        while t < t_target - eps_t:
            h = min(h_next, t_target - t)
            while True:
                if h < 1e-14 * max(1.0, abs(t)):
                    raise StepUnderflow(f"step {h:g} underflow at t={t:g}")
                y5, err_vec, k7 = dopri5_stage_step(rhs, t, y, h, k1)
                scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y5))
                err = float(np.max(np.abs(err_vec) / scale))
                if err <= 1.0:
                    t += h
                    y = y5
                    k1 = k7
                    if not np.abs(y).max() <= cfg.bound:
                        _check_records(y[None], (t,), cfg.bound)
                    h_next = h * min(5.0, max(0.2, 0.9 * max(err, 1e-16) ** -0.2))
                    break
                rejected += 1
                h *= min(1.0, max(0.2, 0.9 * err ** -0.2))
        out[n] = y
    return out, rejected


def dopri5_array_loop(rhs, y0, cfg: IntegratorConfig, times):
    """``systems._dopri5`` with its step control on numpy arrays: the same
    step map product, and a numpy max, which keeps a NaN."""
    t, y, h_next = 0.0, np.array(y0, dtype=float), cfg.dt
    out = np.empty((len(times),) + y.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        T = _dopri5_table(rhs)[0]
        for n, t_target in enumerate(times):
            eps_t = 1e-12 * max(1.0, abs(t_target))
            while t < t_target - eps_t:
                h = min(h_next, t_target - t)
                while True:
                    if h < 1e-14 * max(1.0, abs(t)):
                        raise StepUnderflow(f"step {h:g} underflow at t={t:g}")
                    s = np.sin(rhs.forcing.angles(t + np.array(_DP_C) * h))
                    step = (h ** _POWERS @ T).reshape(2 * y.size, -1) @ np.concatenate(
                        (y, s.ravel(), (1.0,)))
                    y5, err_vec = y + step[:y.size], step[y.size:]
                    scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y5))
                    err = float((np.abs(err_vec) / scale).max())
                    if err <= 1.0:
                        t += h
                        y = y5
                        if not np.abs(y).max() <= cfg.bound:  # NaN fails it too
                            _check_records(y[None], (t,), cfg.bound)
                        h_next = h * min(5.0, max(0.2, 0.9 * max(err, 1e-16) ** -0.2))
                        break
                    h *= min(1.0, max(0.2, 0.9 * err ** -0.2))
            out[n] = y
    return out


# ---------------------------------------------------------------------------
# cocycle identity probes
# ---------------------------------------------------------------------------

def cocycle_defect(sys: SystemSpec, u0, cfg: IntegratorConfig,
                   t: float, tau: float) -> float:
    """|phi(t+tau, u, g) - phi(t, phi(tau, u, g), g^tau)| in the sup norm.

    Zero (up to integration error) exactly when the solver realizes the
    skew-product composition law.
    """
    if t <= 0 or tau <= 0:
        raise ConfigInvalid("t and tau must be positive")
    snaps = integrate_ode_snapshots(sys, u0, cfg, [tau, t + tau])
    mid, end_direct = snaps[0], snaps[1]
    end_restart = integrate_ode_snapshots(sys.shifted(tau), mid, cfg, [t])[0]
    return float(np.max(np.abs(end_direct - end_restart)))


def dde_cocycle_defect(sys: SystemSpec, history: Signal, cfg: IntegratorConfig,
                       t: float, tau: float) -> float:
    """Cocycle identity for the delay system on segment space."""
    rhs = build_dde_rhs(sys)
    r = rhs.r
    fine = replace(cfg, t_end=t + tau, record_dt=cfg.dt)
    sol = integrate_dde(sys, history, fine)
    seg = sol.restrict(tau - r, tau)
    seg_hist = Signal(-r, seg.dt, seg.samples)
    sol2 = integrate_dde(sys.shifted(tau), seg_hist, replace(fine, t_end=t))
    end_direct = sol.values([t + tau])[0]
    end_restart = sol2.values([t])[0]
    return float(np.max(np.abs(end_direct - end_restart)))


def parabolic_cocycle_defect(sys: SystemSpec, u0, cfg: IntegratorConfig,
                             t: float, tau: float) -> float:
    """Cocycle identity for the reaction-diffusion system on the grid state.

    t and tau must be multiples of the record step so the restart field is
    an exact recorded snapshot.
    """
    full = integrate_parabolic(sys, u0, replace(cfg, t_end=t + tau))
    idx_mid = int(round(tau / cfg.record_dt))
    idx_end = int(round((t + tau) / cfg.record_dt))
    mid = full.samples[idx_mid].reshape(np.shape(u0))
    end_direct = full.samples[idx_end]
    restart = integrate_parabolic(sys.shifted(tau), mid, replace(cfg, t_end=t))
    return float(np.max(np.abs(end_direct - restart.samples[-1])))


# ---------------------------------------------------------------------------
# order, stability and almost periods
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrderResult:
    ordered: bool
    time: float | None = None
    component: int | None = None
    max_violation: float = 0.0

    def __bool__(self) -> bool:
        return self.ordered


def order_check(u: Signal, v: Signal, tol: float) -> OrderResult:
    """Componentwise u(t) <= v(t) + tol at every shared sample."""
    if u.dim != v.dim:
        raise DimensionMismatch(f"dims differ: {u.dim} vs {v.dim}")
    if (len(u) != len(v) or abs(u.t0 - v.t0) > 1e-9 * max(1.0, abs(u.t0))
            or abs(u.dt - v.dt) > 1e-12 * u.dt):
        raise ValueError("order_check requires identical sampling grids")
    gap = u.samples - v.samples
    worst = float(gap.max())
    if worst <= tol:
        return OrderResult(True, max_violation=max(worst, 0.0))
    bad = gap > tol
    row = int(np.nonzero(bad.any(axis=1))[0][0])
    comp = int(np.nonzero(bad[row])[0][0])
    return OrderResult(False, float(u.t0 + row * u.dt), comp, worst)


def _probe_directions(dim: int, probes: int, rng: np.random.Generator) -> np.ndarray:
    """Unit directions: ordered cone rays first, then seeded general ones."""
    dirs = [np.ones(dim) / math.sqrt(dim)]
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = 1.0
        dirs.append(e)
        dirs.append(-e)
    while len(dirs) < probes:
        v = rng.normal(size=dim)
        n = np.linalg.norm(v, ord=np.inf)
        if n > 1e-12:
            dirs.append(v / n)
    return np.stack(dirs[:probes], axis=1)  # (dim, probes)


def uniform_stability_estimate(sys: SystemSpec, anchor, epsilon_list,
                               probes: int, horizon: float, *,
                               seed: int = 0) -> list:
    """Empirical stability modulus delta_hat(eps) around one anchor.

    For each eps > 0 (ascending), the supremum of the radii delta such that
    every probe started delta away stays eps-close to the anchor trajectory
    on [0, horizon], probing ordered and unordered directions from t0 = 0.
    Precondition: fixed-step RK4 (dt 1e-2) on the affine system, where a
    probe's deviation is linear in its radius.  So one batch run of the
    anchor and anchor + each direction gives M, the largest deviation per
    unit radius, and delta_hat = eps / M <= eps (the offset e_1 at t = 0 gives M >= 1).
    """
    if probes < 8:
        raise ValueError("need at least 8 probes")
    eps_list = sorted(float(e) for e in epsilon_list)
    if eps_list and not eps_list[0] > 0:
        raise ValueError("epsilon_list must be positive")
    cfg = IntegratorConfig(method="rk4_fixed", dt=1e-2, t_end=horizon,
                           record_dt=max(1e-2, horizon / 1000))
    dirs = _probe_directions(sys.dim, probes, np.random.default_rng(seed))
    anchor = np.asarray(anchor, dtype=float)[:, None]
    _, Y = integrate_ode_batch(sys, np.concatenate([anchor, anchor + dirs], axis=1), cfg)
    M = float(np.abs(Y[..., 1:] - Y[..., :1]).max())
    return [(eps, eps / M) for eps in eps_list]


def comparability_uncapped(x: Signal, y: Signal, epsilon_list, tau_grid: TauGrid, w: Window,
                           refute_frac: float = 0.05):
    """``recurrence.comparability_profile`` from the whole discrepancy profiles of
    both signals: with an infinite cap every delta_hat is a plain argmin."""
    taus = tau_grid.values(w, x, y)
    return _comparability(taus, discrepancy_profile(x, taus, w), y,
                          discrepancy_profile(y, taus, w), math.inf, epsilon_list,
                          tau_grid, w, refute_frac)


def spiked_noise(seed, dim, m, spike=511):
    """Noise of amplitude 0.1 plus a unit spike at point ``spike`` of an m-point
    window (by default the 512th, the last point a capped profile's head reads),
    and shifts of both signs: zero, grid multiples and off-grid.

    A shift of -k dt meets the default spike at window points 511 and 511 + k, so
    for m = 512 only the 512th point sees it.
    """
    rng = np.random.default_rng(seed)
    dt, margin = 0.1, 40
    vals = rng.uniform(-0.1, 0.1, (m + 2 * margin, dim))
    if m > spike:
        vals[margin + spike] += 1.0
    f = Signal(0.0, dt, vals)
    w = Window(dt * (margin + (m - 1) / 2), dt * (m - 1) / 2)
    k = rng.integers(1 - margin, margin, 16)
    frac = rng.choice([0.0, 0.0, 0.3, 0.77], 16)
    taus = np.concatenate([[0.0, -0.1 * (margin - 1)], 0.1 * (k + frac)])
    return f, w, rng.permutation(taus)


def almost_periods(f: Signal, epsilon: float, tau_grid: TauGrid,
                   w: Window) -> tuple:
    """(shifts, max_gap): all grid shifts tau with windowed discrepancy
    D(tau) < epsilon, and the largest shift-free stretch of the grid."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    taus = tau_grid.values()
    shifts = taus[discrepancy_profile(f, taus, w) < epsilon]
    return shifts, _max_gap(shifts, tau_grid)


# ---------------------------------------------------------------------------
# coordinate frequency polish
# ---------------------------------------------------------------------------

def stacked_design(ts: np.ndarray, freqs) -> np.ndarray:
    """Columns 1, cos(nu_1 t), sin(nu_1 t), ..., stacked one at a time."""
    cols = [np.ones_like(ts)]
    for nu in freqs:
        cols.extend([np.cos(nu * ts), np.sin(nu * ts)])
    return np.stack(cols, axis=1)


def lstsq_objective(M, idx, y, ts):
    """nu -> ||r||^2 of the least-squares fit of y by M with frequency idx's
    columns set to cos(nu t), sin(nu t): a full least-squares solve."""
    M = M.copy()

    def obj(nu):
        M[:, 1 + 2 * idx] = np.cos(nu * ts)
        M[:, 2 + 2 * idx] = np.sin(nu * ts)
        coef, *_ = np.linalg.lstsq(M, y, rcond=None)
        r = y - M @ coef
        return float(r @ r)

    return obj


def residual_norm(y: np.ndarray, ts: np.ndarray, freqs) -> float:
    """||r||_2 of the least-squares fit of y at the frequencies freqs."""
    M = stacked_design(ts, freqs)
    coef, *_ = np.linalg.lstsq(M, y, rcond=None)
    return float(np.linalg.norm(y - M @ coef))


def spectral_start(f: Signal, max_freqs: int, w: Window):
    """(y, ts, peaks, bin width): the component ``quasi_periodic_fit`` fits on
    the window, its times from 0, and the tapered-FFT peaks it starts from."""
    i0, i1 = f.window_slice(w)
    y = _dominant_component(f.samples[i0 : i1 + 1])
    x = y - y.mean()
    mag = np.abs(np.fft.rfft(x * np.hanning(x.size)))
    peaks = _spectral_peaks(mag, f.dt, x.size, max_freqs)
    return y, f.dt * np.arange(y.size), peaks, 2.0 * math.pi / (y.size * f.dt)


def coordinate_fit(f: Signal, max_freqs: int, w: Window) -> tuple:
    """(freqs, amplitudes, residual) as ``quasi_periodic_fit`` returns them, from
    two coordinate passes from the spectral peaks: per frequency, a 28-step
    golden section of ``lstsq_objective`` within 0.6 bins of the current
    value (and above 0.25 bins); then one least-squares refit."""
    y, ts, freqs, bin_w = spectral_start(f, max_freqs, w)
    scale = float(np.abs(y - y.mean()).max())
    if scale < 1e-14 or not freqs:
        return (), (), 0.0 if scale < 1e-14 else 1.0
    M = stacked_design(ts, freqs)
    for _ in range(2):
        for idx in range(len(freqs)):
            lo = max(freqs[idx] - 0.6 * bin_w, 0.25 * bin_w)
            obj = lstsq_objective(M, idx, y, ts)
            nu, _ = _golden_min(lambda xs, bar: np.array([obj(x) for x in xs.tolist()]),
                                lo, freqs[idx] + 0.6 * bin_w, 28)
            freqs[idx] = float(nu[0])
            M[:, 1 + 2 * idx] = np.cos(freqs[idx] * ts)
            M[:, 2 + 2 * idx] = np.sin(freqs[idx] * ts)
    coef, *_ = np.linalg.lstsq(M, y, rcond=None)
    resid = float(np.abs(y - M @ coef).max()) / scale
    amps = [float(math.hypot(coef[1 + 2 * i], coef[2 + 2 * i])) for i in range(len(freqs))]
    order = np.argsort(freqs)
    return (tuple(float(freqs[i]) for i in order),
            tuple(amps[i] for i in order), float(min(resid, 1.0)))


# ---------------------------------------------------------------------------
# the earlier forms of kernels that keep their bits
# ---------------------------------------------------------------------------

def affine_steps_matmul(P: np.ndarray, y: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The states of y <- P @ y + q[k], one matrix product per step."""
    out = np.empty((len(q),) + y.shape)
    for k in range(len(q)):
        y = P @ y + q[k]
        out[k] = y
    return out


def half_values_gather(V: np.ndarray) -> np.ndarray:
    """``systems._half_values`` with one gather of the stencil over every row."""
    n = len(V) - 1
    if n < 3:
        return 0.5 * (V[:-1] + V[1:])
    j = np.arange(n)
    s = np.clip(j - 1, 0, n - 3)
    w = systems._HALF_W[j - s].reshape((n, 4) + (1,) * (V.ndim - 1))
    return w[:, 0] * V[s] + w[:, 1] * V[s + 1] + w[:, 2] * V[s + 2] + w[:, 3] * V[s + 3]


def full_lower_bound_stacked(f: Signal, i0: int, base: np.ndarray, lo_f: float,
                             hi_f: float) -> float:
    """``recurrence._full_lower_bound`` from a clipped take of every cell and a
    reduce over the stacked offsets."""
    m, ka, kb = len(base), math.floor(lo_f / f.dt) - 1, math.floor(hi_f / f.dt) + 1
    lo, hi, scale = f._cell_ranges
    lo, hi = (a.take(np.arange(i0 + ka, i0 + m + kb), axis=0, mode="clip") for a in (lo, hi))
    low = np.minimum.reduce([lo[j : j + m] for j in range(kb - ka + 1)])
    high = np.maximum.reduce([hi[j : j + m] for j in range(kb - ka + 1)])
    gap = float(np.maximum(low - base, base - high).max())
    return gap - 2.0 ** -48 * (scale + abs(gap))
