"""Recurrence character detection and comparability profiles.

Everything here is a windowed, gridded proxy for properties quantified over
the whole real line, so verdicts are tri-state: yes-with-evidence, refuted
with a witness, or inconclusive.  Reports carry the window and grid they
used; none of them is a proof.

The detection cascade runs stationary -> periodic -> quasi-periodic ->
uniform almost periods (Bohr-style table) -> shift-metric almost recurrence
-> return sequences (Poisson-style), and, when a base signal is supplied,
attaches a comparability profile: the largest delta such that every
delta-shift of the base is an epsilon-shift of the trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np
from numpy.linalg import lapack_lite

from .errors import ConfigInvalid
from .signals import (
    _MAX_FLOATS,
    Signal,
    Window,
    _grid_starts,
    _mean,
    _require_shifts_inside,
    bebutov_profile,
    discrepancy_profile,
)

_INF = float("inf")

# Fixed settings of the cascade: the period detection bar as a fraction of the
# signal scale (half the window's peak-to-peak range), the absolute part of the
# period verification tolerance, the most frequencies the spectral fit seeks and
# its most Gauss-Newton trial steps.
_PERIODIC_DETECT_FRAC = 0.25
_PERIODIC_VERIFY_ABS = 1e-6
_QUASI_MAX_FREQS = 4
_FIT_MAX_STEPS = 10
# Sizes, counted in values (shifts x components), of one block of the return
# search's probe bound and of its largest batch of probe refinements.
_BLOCK_VALUES = 1 << 15
_BATCH_VALUES = 1 << 14
# Taus in the first batch ``_profile_argmin`` finishes exactly.
_MIN_BATCH0 = 64
# Most shifts a tau grid may hold: a profile over more would not fit in memory.
_MAX_SHIFTS = 1 << 24


# ---------------------------------------------------------------------------
# grids and configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TauGrid:
    tau_min: float
    tau_max: float
    tau_step: float

    def __post_init__(self):
        if not (self.tau_step > 0 and self.tau_max > self.tau_min):
            raise ValueError("need tau_step > 0 and tau_max > tau_min")
        if not (math.isfinite(self.tau_min) and math.isfinite(self.tau_step)
                and self.span / self.tau_step < _MAX_FLOATS):
            raise ValueError("tau grid needs finite ends and step and at most "
                             f"{_MAX_FLOATS:.3g} shifts")

    def values(self, w: Window | None = None, *signals: Signal) -> np.ndarray:
        """The taus, at most ``_MAX_SHIFTS``; given a window, it and its shifts by
        the first and last tau (so all between) must fit each of ``signals``
        before the grid is built."""
        n = int(math.floor(self.span / self.tau_step + 1e-9))
        for f in signals:
            w.require_inside(f)
            _require_shifts_inside(f, w, self.tau_min + self.tau_step * np.array([0, n]))
        if n + 1 > _MAX_SHIFTS:
            raise ConfigInvalid(f"tau grid [{self.tau_min:g}, {self.tau_max:g}, {self.tau_step:g}]"
                                f" holds {n + 1:.3g} shifts; at most {_MAX_SHIFTS} fit")
        return self.tau_min + self.tau_step * np.arange(n + 1)

    @property
    def span(self) -> float:
        return self.tau_max - self.tau_min


@dataclass(frozen=True)
class ClassifyConfig:
    """Windows, grids and thresholds for the detection cascade."""

    window: Window
    tau_grid: TauGrid
    bohr_epsilons: tuple = (0.5, 0.2)
    stationary_tol: float = 1e-8
    periodic_verify_rel: float = 5e-3    # of the signal scale
    quasi_residual_tol: float = 1e-2
    poisson_schedule: tuple = (0.2, 0.1, 0.05)
    poisson_separation: float = 5.0
    refute_frac: float = 0.05
    base_declared: str | None = None     # prior knowledge about the base class
    fit_window: Window | None = None     # longer window for the spectral fit

    def __post_init__(self):
        for key in ("bohr_epsilons", "poisson_schedule"):
            vals = tuple(getattr(self, key))
            if not (vals and all(isinstance(e, (int, float)) and type(e) is not bool
                                 and 0 < e < math.inf for e in vals)):
                raise ValueError(f"{key} must be a nonempty list of finite numbers > 0")
            object.__setattr__(self, key, vals)
        sched = self.poisson_schedule
        if any(b > a + 1e-15 for a, b in zip(sched, sched[1:])):
            raise ValueError("poisson_schedule must be non-increasing")
        for key in ("stationary_tol", "quasi_residual_tol", "poisson_separation", "refute_frac",
                    "periodic_verify_rel"):
            object.__setattr__(self, key, float(getattr(self, key)))
            if not 0 <= getattr(self, key) < math.inf:
                raise ValueError(f"{key} must be finite and >= 0")
        if self.refute_frac > 1:
            raise ValueError("refute_frac must be at most 1")
        if self.base_declared not in (None, "bohr", "levitan"):
            raise ValueError("base_declared must be None, 'bohr' or 'levitan'")


def default_classify_config(f: Signal) -> ClassifyConfig:
    """Window the first half of the signal, [t0, t0 + L/2] for its length L, and
    scan the shifts from 0 to L/2 that keep it inside.  The shift step is
    (L/2) / 200,000, at least dt, snapped to the nearest multiple of dt: about
    200,001 shifts, and up to 1.5 times as many where the snap rounds it down."""
    length = f.length
    hw = length / 4.0
    if hw < f.dt:
        raise ConfigInvalid(f"{len(f)} samples are too short for the default window (needs 5)")
    center = f.t0 + hw
    tau_max = length - 2.0 * hw
    step = max(f.dt, tau_max / 200_000)
    return ClassifyConfig(
        window=Window(center, hw),
        tau_grid=TauGrid(0.0, tau_max, _snap_step(step, f.dt)),
    )


def _snap_step(step: float, dt: float) -> float:
    """Snap a tau step to a grid multiple so shifts are exact slices."""
    return dt * max(1, round(step / dt))


# ---------------------------------------------------------------------------
# result types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReturnSequence:
    """Times t_n with discrepancy below a decreasing threshold schedule."""

    times: tuple
    discrepancies: tuple
    epsilon_schedule: tuple

    def __post_init__(self):
        t = np.asarray(self.times)
        if t.size and np.any(np.diff(t) <= 0):
            raise ValueError("return times must be strictly increasing")
        for d, e in zip(self.discrepancies, self.epsilon_schedule):
            if not d < e:
                raise ValueError("discrepancy must sit below its threshold")

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class ComparabilityProfile:
    """delta_hat(epsilon) pairs plus a tri-state verdict."""

    pairs: tuple                 # ((epsilon, delta_hat), ...)
    window: Window
    tau_grid: TauGrid
    verdict: str                 # comparable-evidence | refuted | inconclusive
    witness: float | None = None # refuting tau, if any


@dataclass(frozen=True)
class Verdict:
    verdict: str                 # yes | no | inconclusive
    params: dict = field(default_factory=dict)
    witness: dict | None = None
    window: Window | None = None
    notes: str = ""


@dataclass(frozen=True)
class RecurrenceReport:
    classes: dict                       # name -> Verdict
    comparability: ComparabilityProfile | None = None
    transfer: dict | None = None
    notes: tuple = ()


def jsonable(obj):
    """The JSON form of every result: a dataclass as the dict of its fields, a
    TauGrid as [tau_min, tau_max, tau_step], an infinite float as "inf"."""
    if obj is None or isinstance(obj, (str, int, bool)):
        return obj
    if isinstance(obj, float):
        return "inf" if math.isinf(obj) else obj
    if isinstance(obj, TauGrid):
        return [obj.tau_min, obj.tau_max, obj.tau_step]
    if is_dataclass(obj):
        return {f.name: jsonable(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return jsonable(float(obj))
    return str(obj)


# ---------------------------------------------------------------------------
# inclusion-length tables
# ---------------------------------------------------------------------------

def _max_gap(shifts: np.ndarray, grid: TauGrid) -> float:
    """Largest shift-free stretch inside the grid range (edges included)."""
    return float(np.diff(np.concatenate(([grid.tau_min], shifts, [grid.tau_max]))).max())


def _table_rows(epsilons, grid, taus, D) -> list:
    """Rows (epsilon, L, saturated) of an inclusion-length table; saturated
    flags L still swallowing the grid, where relative density fails."""
    gaps = [(e, _max_gap(taus[D < e], grid)) for e in map(float, epsilons)]
    return [(e, L, L > 0.5 * grid.span) for e, L in gaps]


# ---------------------------------------------------------------------------
# return sequences
# ---------------------------------------------------------------------------

def poisson_returns(f: Signal, epsilon_schedule, w: Window, *,
                    separation: float = 5.0) -> ReturnSequence:
    """Greedy search for returns t_1 < t_2 < ... with D(t_n) < epsilon_n.

    A probe bound (a max over 64 evenly spread window points, which never
    exceeds the full discrepancy) is gathered only at the grid shifts a 4-probe
    pass leaves below a bar.  The shifts are scanned in blocks, on demand and
    each once, at the bar max(epsilon_k, ...) + lip_dt of the level k that first
    reads the block, so every later margin epsilon + lip_dt is below it.  At each
    epsilon its runs of consecutive below-margin shifts are the candidate clusters,
    golden-refined in batches that grow x4 from one, each formed once the shift
    after its last run is scanned; in order, the first whose refinement certifies
    against the full windowed discrepancy is the return.
    On a trig sum (``systems.TrigSum``), a bracket whose every nearest grid shift
    bounds the probe discrepancy at eps + L dt / 2 or more (L the sum's slope bound,
    plus its rounding) cannot certify and is not refined (B. O. Shubert, SIAM J.
    Numer. Anal. 9, 1972); on a spline Signal, brackets that ``_full_lower_bound``
    proves cannot certify skip their full refinement.
    An empty result is legal: no returns were found at the requested scales.
    """
    sched = [float(e) for e in epsilon_schedule]
    if not (math.isfinite(separation) and separation >= 0):
        raise ValueError("separation must be finite and nonnegative")
    if not sched:
        return ReturnSequence((), (), ())
    if not all(e > 0 for e in sched) or any(b > a + 1e-15 for a, b in zip(sched, sched[1:])):
        raise ValueError("epsilon schedule must be positive and non-increasing")
    i0, i1 = f.window_slice(w)
    m = i1 - i0 + 1
    n, dim = len(f), f.dim
    dt = f.dt
    # Largest aligned shift that keeps the translated window in range.
    j_hi = n - 1 - i1
    if j_hi < 1:
        return ReturnSequence((), (), ())

    if f.exact is None:  # certification reads the whole spline: build it before the probe reads
        f._spline
    # Distinct without np.unique: the points are at least 1 apart before rounding.
    probe_rel = np.linspace(0, m - 1, min(64, m)).round().astype(int)
    base = f[i0 : i1 + 1]  # a LazySignal forms each row slice alone

    # (taus, bar) -> sup |f(t + tau) - f(t)| over the probe points or the whole
    # window, for an array of tau at once; the bar ``_golden_min`` passes is unused.
    def gap(at, ref):
        return lambda taus, bar=None: np.abs(at(taus) - ref).max(axis=(1, 2))
    d_probe = gap(f.shift_reader(i0 + probe_rel), base[probe_rel])
    d_full = (_deciding_reader(f, i0, base) if f.exact is None
              else gap(f.shift_reader(np.arange(i0, i1 + 1)), base))

    # Local slope bound: discrepancy varies no faster than twice the signal.
    # It is capped at the window spread so fast (or aliased) oscillation does
    # not turn the prescreen vacuous; sub-grid clusters are a documented
    # limitation of any grid scan.
    deriv = np.abs(np.diff(f[: min(n, 200_001)], axis=0)).max() / dt
    spread = float((base.max(axis=0) - base.min(axis=0)).max())
    lip_dt = min(2.0 * float(deriv) * dt, 0.5 * max(spread, 1e-12))
    slope, rho = _trig_slack(f)

    # The scanned blocks of ``rows`` shifts: the bar each was scanned at (-inf
    # before), and their candidates (J, V), increasing.
    rows = max(1, _BLOCK_VALUES // dim)
    bars = np.full(j_hi // rows + 1, -_INF)
    J, V = np.empty(0, dtype=int), np.empty(0)
    nxt = 0

    def floor_at(js):  # a lower bound on the probe bound at scanned shifts js, else -inf
        at = np.minimum(np.searchsorted(J, js), J.size - 1)
        return np.where(J[at] == js, V[at], bars[js // rows])

    def cuts_of(jb):  # where the runs of consecutive shifts in jb start, then len(jb)
        return np.flatnonzero(np.diff(jb, prepend=-2, append=-2) != 1)

    times, discs, eps_used = [], [], []
    t_prev = 0.0
    tau_cap = j_hi * dt
    batch_cap = max(1, _BATCH_VALUES // (probe_rel.size * dim))
    for level, eps in enumerate(sched):
        found = None
        # Candidates: the first 200_000 runs of consecutive below-margin shifts from
        # j0 (clamped, so a vast separation finds none), split at positions ``cuts``.
        j0 = max(1, math.ceil(min((t_prev + separation) / dt - 1e-9, j_hi + 1)))
        margin, bar = eps + lip_dt, max(sched[level:]) + lip_dt
        # A golden point is within dt / 2 of a grid shift whose probe bound is at or
        # above ``cut``, so its own is at least eps: it cannot certify.
        cut = (eps + 0.5 * slope * dt + rho) * (1 + 2.0 ** -48)
        # j0 never decreases, so the blocks from j0's to nxt are the scanned ones.
        nxt = max(nxt, j0 // rows)
        sel = (J >= j0) & (V < margin)
        jb, db = J[sel], V[sel]
        cuts = cuts_of(jb)
        k, size = 0, 1
        while found is None:
            # Scan until the batch's runs are complete: the shift after each is scanned.
            while True:
                done = nxt * rows > j_hi
                open_run = not done and jb.size > 0 and jb[-1] == nxt * rows - 1
                ready = min(cuts.size - 1 - open_run, 200_000)
                if done or ready >= min(k + size, 200_000):
                    break
                j, v = _probe_candidates(f, i0, probe_rel, base, nxt * rows,
                                         min(nxt * rows + rows, j_hi + 1), bar)
                bars[nxt], nxt = bar, nxt + 1
                J, V = np.concatenate((J, j)), np.concatenate((V, v))
                sel = (j >= j0) & (v < margin)
                jb, db = np.concatenate((jb, j[sel])), np.concatenate((db, v[sel]))
                cuts = cuts_of(jb)
            if k >= ready:
                break
            runs = cuts[k : min(k + size, ready) + 1]
            k, size = k + size, min(4 * size, batch_cap)
            # Refine around each run's sampled bottom, its first least bound.
            a, lens = runs[0], np.diff(runs)
            seg = db[a : runs[-1]]
            low = np.flatnonzero(seg == np.repeat(np.minimum.reduceat(seg, runs[:-1] - a), lens))
            tau_c = jb[a + low[np.searchsorted(low, runs[:-1] - a)]] * dt
            lo = np.maximum(tau_c - 2 * dt, t_prev + separation)
            hi = np.minimum(tau_c + 2 * dt, tau_cap)
            keep = hi > lo + 1e-12
            lo, hi = lo[keep], hi[keep]
            # Each golden point is within dt / 2 of a shift from lo's nearest to hi's.
            ja, jz = (np.clip(np.rint(x / dt), 0, j_hi).astype(int) for x in (lo, hi))
            js = np.minimum(ja[:, None] + np.arange(int((jz - ja).max(initial=0)) + 1), jz[:, None])
            live = floor_at(js).min(axis=1) < cut
            if not live.any():
                continue
            # A lone row of a larger batch is refined twice: a one-row product rounds
            # differently from the rows of a larger one (BLAS), which the bits follow.
            twice = 1 + (live.sum() == 1 < lo.size)
            lo, hi = lo[live], hi[live]
            tau_p, dp = _golden_min(d_probe, lo.repeat(twice), hi.repeat(twice), 24)
            for c in np.flatnonzero(dp[: lo.size] < eps).tolist():
                lo_f, hi_f = max(lo[c], tau_p[c] - dt), min(hi[c], tau_p[c] + dt)
                if f.exact is None and _full_lower_bound(f, i0, base, lo_f, hi_f) >= eps:
                    continue
                tau_f, df = _golden_min(d_full, lo_f, hi_f, 40)
                if df[0] < eps and tau_f[0] > t_prev + separation * (1 - 1e-9):
                    found = (float(tau_f[0]), float(df[0]))
                    break
        if found is None:
            break
        times.append(found[0])
        discs.append(found[1])
        eps_used.append(eps)
        t_prev = found[0]
    return ReturnSequence(tuple(times), tuple(discs), tuple(eps_used))


def _trig_slack(f: Signal) -> tuple[float, float]:
    """(L, rho) for a Signal whose ``exact`` is a ``systems.TrigSum``, offset +
    Im(V e^{i theta}), read through its ``shifted`` method: the slope bound
    L = max_c sum_j |V_cj| |omega_j| of each component, and rho, the most
    that the probe bounds read at a golden point and at its nearest grid shift can
    misstate the exact ones beyond L times their distance.  TrigSum's docstring puts
    each read within R = 16 u (1 + max |omega t|) sum |V| of the direct formula, and
    that formula is within R of the sum (phases counted in the angle, the offset in
    the scale); the nearest shift of a rounded tau / dt is off by at most L |tau| u < R.
    So rho = 5 R.  (inf, 0) for a spline Signal: nothing is pruned."""
    if f.exact is None:
        return _INF, 0.0
    ex = f.exact
    V, om = np.abs(ex.V), np.abs(ex.omegas)
    reach = 1.0 + float((om * max(abs(f.t0), abs(f.t_end)) + np.abs(ex.phases)).max())
    scale = float(V.sum() + np.abs(ex.offset).max())
    return float((V @ om).max()), 5 * 16 * 2.0 ** -53 * reach * scale


def _probe_candidates(S, i0: int, probe_rel, base: np.ndarray, j0: int, j1: int, bar: float):
    """(j, bound) of the shifts j in [j0, j1), increasing, whose probe bound
    max_p |S[i0 + p + j] - base[p]| is below ``bar`` > 0, where base = S[i0 : i0 +
    probe_rel[-1] + 1] (so j = 0, where in range, is always one).  A max over 4 of the probes never
    exceeds it, so that coarse bound picks where the whole one is gathered (the
    lower-bounding cascade of C. Faloutsos, M. Ranganathan and Y. Manolopoulos, SIGMOD
    1994); it is read one probe at a time, each on the shifts the probes before left
    below the bar.  The whole bound of the shifts left is one gather of every probe,
    in batches of at most ``_BATCH_VALUES`` values.  Both read the one slice of S the
    shifts reach (max is exact, so the order of the reads changes no value, a NaN
    included); no gather leaves that slice, so ``take`` may clip (no bounds check)."""
    k, dim = j1 - j0, base.shape[1]
    B = S[i0 + j0 : i0 + j1 + len(base) - 1]
    p, *coarse = probe_rel[:: -(-probe_rel.size // 4)].tolist()
    c = np.flatnonzero(np.abs(B[p : p + k] - base[p]).max(axis=1) < bar)
    for p in coarse:
        c = c[np.abs(B[p:].take(c, axis=0, mode="clip") - base[p]).max(axis=1) < bar]
    v, ref = np.empty(c.size), base[probe_rel]
    step = max(1, _BATCH_VALUES // (probe_rel.size * dim))
    for s in range(0, c.size, step):
        g = B.take(c[s : s + step, None] + probe_rel, axis=0, mode="clip")
        v[s : s + step] = np.abs(np.subtract(g, ref, out=g), out=g).max(axis=(1, 2))
    return j0 + c[v < bar], v[v < bar]


def _full_lower_bound(f: Signal, i0: int, base: np.ndarray, lo_f: float, hi_f: float) -> float:
    """A lower bound on the full discrepancy wherever a golden section on [lo_f, hi_f]
    reads it, for a spline Signal f whose window from index i0 holds ``base``: point i
    reads cells i + floor(tau / dt), and one more each side for rounding, so its distance
    to the hull of their ranges bounds it (a range enclosure; R. E. Moore, R. B. Kearfott
    and M. J. Cloud, Introduction to Interval Analysis, SIAM 2009).

    The cells are sliced where they lie inside the signal (a clipped take only
    where they run off an end), and the hulls are folded over the offsets in
    place, in the order of a reduce over them: min and max are exact, so the
    bound keeps its bits."""
    m, ka, kb = len(base), math.floor(lo_f / f.dt) - 1, math.floor(hi_f / f.dt) + 1
    lo, hi, scale = f._cell_ranges
    a, b = i0 + ka, i0 + m + kb
    if a < 0 or b > len(lo):
        lo, hi = (c.take(np.arange(a, b), axis=0, mode="clip") for c in (lo, hi))
        a = 0
    low, high = lo[a : a + m].copy(), hi[a : a + m].copy()
    for j in range(a + 1, a + kb - ka + 1):
        np.minimum(low, lo[j : j + m], out=low)
        np.maximum(high, hi[j : j + m], out=high)
    gap = float(np.maximum(low - base, base - high).max())
    # ``_cubic`` rounds by at most 6 u (u = 2^-53) of a cell's term sum, which ``scale``
    # bounds, as it bounds |f| and the window's values: once in the range ends, once in the
    # value read.  The differences and the comparison add 3 u (scale + |gap|); 32 u covers 15 u.
    return gap - 2.0 ** -48 * (scale + abs(gap))


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_min(fn, a, b, iters: int) -> tuple[np.ndarray, np.ndarray]:
    """Golden-section minima on the brackets [a_k, b_k], all at once.

    ``fn(x, bar)`` maps an array of abscissae, one per bracket, to their
    values; ``bar`` is the value each point will be compared with (inf for the
    first point, f1 for the second, then the bracket's best), and where a value
    is above its bar fn may return any value above it (J. Kiefer, Proc. AMS 4,
    1953: a point only needs to be known to lose).  Each bracket follows the
    scalar recurrence, ties included (f1 <= f2 keeps the left point); a loser
    becomes a bracket end, whose value is dropped, so every comparison and the
    minima are those of the exact values.  A bracket with b <= a returns a.
    Returns the minimizers and the minima as arrays.  One bracket runs the
    recurrence on Python floats (``_golden_one``).
    """
    a = np.array(a, dtype=float, ndmin=1)
    b = np.maximum(a, b)
    if a.size == 1:
        return _golden_one(fn, a[0].item(), b[0].item(), iters)
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1 = fn(x1, np.full(a.shape, _INF))
    f2 = fn(x2, f1)
    for _ in range(iters):
        left = f1 <= f2
        a, b = np.where(left, a, x1), np.where(left, x2, b)
        x = np.where(left, b - _GOLDEN * (b - a), a + _GOLDEN * (b - a))
        fx = fn(x, np.minimum(f1, f2))
        x1, x2 = np.where(left, x, x2), np.where(left, x1, x)
        f1, f2 = np.where(left, fx, f2), np.where(left, f1, fx)
    left = f1 <= f2
    return np.where(left, x1, x2), np.where(left, f1, f2)


def _golden_one(fn, a: float, b: float, iters: int) -> tuple[np.ndarray, np.ndarray]:
    """``_golden_min`` of one bracket, a <= b, its bookkeeping on Python floats,
    whose IEEE - * + give the bits numpy's give; fn still reads one-entry
    arrays.  A comparison with a NaN is false, as ``np.where``'s condition
    takes it, and the bar is ``np.minimum``'s: the first operand where it is
    NaN or below the second, else the second (NaN included)."""
    def at(x, bar):
        return fn(np.array([x]), np.array([bar]))[0].item()

    x1, x2 = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    f1 = at(x1, _INF)
    f2 = at(x2, f1)
    for _ in range(iters):
        bar = f1 if f1 != f1 or f1 < f2 else f2
        if f1 <= f2:
            b = x2
            x = b - _GOLDEN * (b - a)
            x1, x2, f1, f2 = x, x1, at(x, bar), f1
        else:
            a = x1
            x = a + _GOLDEN * (b - a)
            x1, x2, f1, f2 = x2, x, f2, at(x, bar)
    x, fx = (x1, f1) if f1 <= f2 else (x2, f2)
    return np.array([x]), np.array([fx])


def _deciding_reader(f: Signal, i0: int, base: np.ndarray):
    """``fn(taus, bar)`` for ``_golden_min`` of the windowed discrepancy of a spline
    Signal f against the window ``base`` from index i0.  A read first takes the
    window points whose gap decided the reader's earlier full reads (their argmax),
    through ``values`` at the times ``window_values`` forms, so each is the same
    float; a tau whose max there is above its bar returns it (a lower bound), and
    only the others read the whole window.  Callers read an exact Signal's whole
    window instead: a gather of a few points is a BLAS product of another shape,
    so its bits could move."""
    x, pts = f._spline[0][i0 : i0 + len(base)], []

    def read(taus, bar):
        out = np.full(taus.size, -_INF)
        if pts:
            out = np.abs(f.values(taus[:, None] + x[pts]) - base[pts]).max(axis=(1, 2))
        todo = np.flatnonzero(out <= bar)
        if todo.size:
            gaps = np.abs(f.window_values(i0, len(base), taus[todo]) - base).max(axis=2)
            out[todo] = gaps.max(axis=1)
            pts.extend({*gaps.argmax(axis=1).tolist()}.difference(pts))
        return out
    return read


# ---------------------------------------------------------------------------
# spectral fit
# ---------------------------------------------------------------------------

def quasi_periodic_fit(f: Signal, max_freqs: int, w: Window) -> tuple:
    """(freqs, amplitudes, residual): the dominant angular frequencies on a window,
    ascending, their amplitudes and the fit error's relative sup-norm, in [0, 1].

    Peaks of the tapered discrete Fourier transform, sharpened by parabolic
    interpolation, start a Gauss-Newton refinement of all frequencies at once
    on the variable-projection functional (Golub and Pereyra, 1973), as a raw
    peak estimate dephases over long windows.  Each frequency stays within 0.6
    bins of its peak, above 0.25 bins; a step that raises the residual norm is
    halved; the loop ends once a negligible step is tried, at a stalled
    decrease or after ``_FIT_MAX_STEPS`` trials.  A frequency held at a
    bracket end (other than the 0.25-bin floor) starts a second pass,
    bracketed within 0.6 bins of the first pass's result, as a strong tone can
    pull a weak tone's peak more than 0.6 bins off.  A residual of 1.0 signals failure, never an exception.
    """
    i0, i1 = f.window_slice(w)
    comp = _dominant_component(f.samples[i0 : i1 + 1])
    ts = f.dt * np.arange(comp.size)
    x = comp - _mean(comp)
    scale = float(np.abs(x).max())
    if scale < 1e-14:
        return (), (), 0.0
    mag = np.abs(np.fft.rfft(x * np.hanning(x.size)))
    freqs = np.array(_spectral_peaks(mag, f.dt, x.size, max_freqs))
    if not freqs.size:
        return (), (), 1.0
    bin_w = 2.0 * math.pi / (comp.size * f.dt)
    for _ in range(2):
        lo, hi = np.maximum(freqs - 0.6 * bin_w, 0.25 * bin_w), freqs + 0.6 * bin_w
        freqs, coef, r = _refine(ts, freqs, comp, lo, hi, bin_w)
        held = ((freqs <= lo) | (freqs >= hi)) & (freqs > 0.25 * bin_w)
        if not held.any():
            break
    order = np.argsort(freqs)
    amps = np.hypot(coef[1::2], coef[2::2])[order]
    return (tuple(freqs[order].tolist()), tuple(amps.tolist()),
            min(float(np.abs(r).max()) / scale, 1.0))


def _refine(ts: np.ndarray, freqs: np.ndarray, y: np.ndarray, lo, hi, bin_w: float):
    """(freqs, c, r): Gauss-Newton from freqs within the brackets [lo, hi].
    A step is formed only from a fit the loop goes on from: the start and
    each accepted trial before the last."""
    coef, r, form_step = _gauss_newton(ts, freqs, y, lo, hi)
    step, rr = form_step(), float(r @ r)
    for k in range(_FIT_MAX_STEPS):
        trial = np.clip(freqs + step, lo, hi)
        # A negligible step is still tried, as on a noiseless tone the last
        # quadratic step can fall below 1e-9 bins and still cut ||r|| tenfold.
        last = np.abs(trial - freqs).max() <= 1e-9 * bin_w
        coef_t, r_t, form_step = _gauss_newton(ts, trial, y, lo, hi)
        rr_t = float(r_t @ r_t)
        if rr_t > rr:
            if last:
                break
            step = step / 2
            continue
        freqs, coef, r, rr, rr_prev = trial, coef_t, r_t, rr_t, rr
        if last or rr_prev - rr <= 1e-13 * rr_prev:  # the decrease stalls
            break
        if k < _FIT_MAX_STEPS - 1:  # else no trial is left to take it
            step = form_step()
    return freqs, coef, r


def _gauss_newton(ts: np.ndarray, freqs: np.ndarray, y: np.ndarray, lo, hi):
    """(c, r, form_step) from one QR of the design matrix M = QR at freqs: y's
    least-squares coefficients and residual, and a function that forms the
    Gauss-Newton step on Kaufman's Jacobian (1975), d(M c)/d nu projected off
    range(M).  A frequency at a bracket end that the step points out of
    stays put.

    ``_qr`` factors M in its own buffer and returns Q C-contiguous, as
    ``np.linalg.qr`` does: the BLAS products with Q round by its layout, so
    every value keeps the bits of numpy's QR."""
    Q, R = _qr(_design_matrix(ts, freqs))
    qy = Q.T @ y
    coef, r = np.linalg.solve(R, qy), y - Q @ qy

    def form_step():
        D = ts[:, None] * (Q @ (coef[2::2] * R[:, 1::2] - coef[1::2] * R[:, 2::2]))
        D -= Q @ (Q.T @ D)
        step = np.linalg.lstsq(D, r, rcond=None)[0]
        pinned = ((freqs <= lo) & (step < 0)) | ((freqs >= hi) & (step > 0))
        if pinned.any():
            D[:, pinned] = 0.0
            step = np.linalg.lstsq(D, r, rcond=None)[0]
        return step
    return coef, r, form_step


def _qr(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Q, R) of the column-major n x k matrix M, n >= k, overwriting M: the
    LAPACK dgeqrf and dorgqr (E. Anderson et al., LAPACK Users' Guide, 3rd ed.,
    SIAM 1999) that ``np.linalg.qr`` runs, with the same workspace, on M.T, the
    C-contiguous view lapack_lite takes.  R is read before dorgqr overwrites it."""
    n, k = M.shape
    A, tau = M.T, np.empty(k)
    _lapack(lapack_lite.dgeqrf, n, k, A, n, tau)
    R = np.triu(M[:k])
    _lapack(lapack_lite.dorgqr, n, k, k, A, n, tau)
    return np.ascontiguousarray(M), R


def _lapack(routine, *args) -> None:
    """``routine(*args, work, lwork, info)`` with the workspace its query asks
    for, at least the column count args[1], as numpy's linalg sizes it."""
    query = np.empty(1)
    info = routine(*args, query, -1, 0)["info"]
    if not info:
        lwork = max(args[1], int(query[0]))
        info = routine(*args, np.empty(lwork), lwork, 0)["info"]
    if info:
        raise np.linalg.LinAlgError(f"{routine.__name__} returns {info}")


def _design_matrix(ts: np.ndarray, freqs) -> np.ndarray:
    """Columns 1, cos(nu_1 t), sin(nu_1 t), ..., column-major for LAPACK."""
    arg = (freqs[:, None] * ts).T
    M = np.empty((ts.size, 1 + 2 * freqs.size), order="F")
    M[:, 0] = 1.0
    np.cos(arg, out=M[:, 1::2])
    np.sin(arg, out=M[:, 2::2])
    return M


def _dominant_component(vals: np.ndarray) -> np.ndarray:
    j = int(np.argmax(np.square(vals - _mean(vals)).mean(axis=0)))
    return vals[:, j].astype(float)


def _spectral_peaks(mag: np.ndarray, dt: float, n: int, max_freqs: int) -> list:
    """Up to max_freqs local maxima of at least 5 % of the top magnitude, at
    least 3 bins apart, each refined by log-parabolic interpolation."""
    peak_bins = []
    top = float(mag[2:].max()) if mag.size > 3 else 0.0
    if top <= 0:
        return []
    idx = np.argsort(mag)[::-1]
    for k in idx:
        if len(peak_bins) >= max_freqs:
            break
        if k < 2 or k > mag.size - 2:
            continue
        if mag[k] < 0.05 * top:
            break
        if not (mag[k] >= mag[k - 1] and mag[k] >= mag[k + 1]):
            continue
        if any(abs(k - p) < 3 for p in peak_bins):
            continue
        peak_bins.append(int(k))
    freqs = []
    for k in peak_bins:
        a, b, c = mag[k - 1], mag[k], mag[k + 1]
        la, lb, lc = (math.log(max(v, 1e-300)) for v in (a, b, c))
        denom = la - 2 * lb + lc
        delta = 0.0 if abs(denom) < 1e-300 else 0.5 * (la - lc) / denom
        delta = float(np.clip(delta, -0.5, 0.5))
        freqs.append(2.0 * math.pi * (k + delta) / (n * dt))
    return freqs


def rationally_independent(freqs) -> bool:
    """Pairwise test: a ratio of two frequencies is rational when its best
    approximation with denominator <= 1e4 (``Fraction.limit_denominator``) is
    within a relative 1e-11, and a frequency <= 0 makes a pair dependent; exact
    irrationality is undecidable from floats, so this is the documented proxy."""
    for lo, hi in combinations(sorted(float(v) for v in freqs), 2):
        if lo <= 0:
            return False
        rho = hi / lo
        if abs(rho - Fraction(rho).limit_denominator(10_000)) < 1e-11 * max(1.0, rho):
            return False
    return True


# ---------------------------------------------------------------------------
# comparability
# ---------------------------------------------------------------------------

def comparability_profile(x: Signal, y: Signal, epsilon_list, tau_grid: TauGrid,
                          w: Window, refute_frac: float = 0.05) -> ComparabilityProfile:
    """delta_hat(eps) = largest delta with: every delta-shift of the base y
    is an eps-shift of x, over the given grid and window.

    If no grid shift fails for x at scale eps, the honest supremum is
    unbounded and the +inf sentinel is reported.  A profile that collapses
    well below the requested scale (delta_hat < refute_frac * eps) is
    refuted: the witness shift returns the base but not the trajectory.  An
    exact zero cannot occur on a sampled grid, so the fraction stands in
    for it.
    """
    taus = tau_grid.values(w, x, y)
    # Dx >= eps reads the same on a profile capped at the largest eps.
    cap = max(map(float, epsilon_list), default=_INF)
    return _comparability(taus, discrepancy_profile(x, taus, w, cap=cap), y,
                          discrepancy_profile(y, taus, w, cap=cap), cap,
                          epsilon_list, tau_grid, w, refute_frac)


def _comparability(taus, Dx, y: Signal, Dy, cap: float, epsilon_list, tau_grid: TauGrid,
                   w: Window, refute_frac: float) -> ComparabilityProfile:
    """``comparability_profile`` on the grid's taus from the trajectory's discrepancy
    profile Dx, capped at the largest epsilon or above, and the base y's, Dy, capped
    at ``cap``."""
    eps = sorted({float(e) for e in epsilon_list}, reverse=True)
    pairs = []
    worst = None
    for e in eps:
        bad = Dx >= e
        if not bad.any():
            pairs.append((e, _INF))
            continue
        k, dh = _profile_argmin(y, taus, w, Dy, cap, bad)
        pairs.append((e, dh))
        if worst is None or dh / e < worst[1] / worst[2]:
            worst = (float(taus[k]), dh, e)
    if worst is not None and worst[1] < refute_frac * worst[2]:
        return ComparabilityProfile(tuple(pairs), w, tau_grid, "refuted", worst[0])
    if taus.size < 3:
        return ComparabilityProfile(tuple(pairs), w, tau_grid, "inconclusive")
    return ComparabilityProfile(tuple(pairs), w, tau_grid, "comparable-evidence")


# ---------------------------------------------------------------------------
# the classifier cascade
# ---------------------------------------------------------------------------

def classify(f: Signal, base: Signal | None = None,
             cfg: ClassifyConfig | None = None) -> RecurrenceReport:
    """Run the recurrence cascade; given a base, attach comparability and, with
    comparability evidence, the Levitan evidence: "yes" when the base is Bohr (no
    row of its Bohr table, read from its capped profile, saturates) or declared."""
    cfg = default_classify_config(f) if cfg is None else cfg
    ev, taus, D = _evidence(f, cfg)
    classes = {name: Verdict(verdict, params, witness, cfg.window, notes)
               for name, (verdict, params, witness, notes) in _decide(ev, cfg).items()}
    notes = ["windowed evidence on finite grids; no verdict is a proof"]
    comparability = transfer = None
    if base is not None:
        cap = _window_scale(base, cfg)[-1]
        Dy = discrepancy_profile(base, taus, cfg.window, cap=cap)
        comparability = _comparability(taus, D, base, Dy, cap, cfg.bohr_epsilons,
                                       cfg.tau_grid, cfg.window, cfg.refute_frac)
        transfer = {"verdict": comparability.verdict, "relative_to": "supplied base"}
        if comparability.verdict == "comparable-evidence":
            rows = _table_rows(cfg.bohr_epsilons, cfg.tau_grid, taus, Dy)
            base_is_bohr = not any(saturated for _, _, saturated in rows)
            if base_is_bohr or cfg.base_declared in ("bohr", "levitan"):
                transfer["levitan_evidence"] = "yes"
                transfer["levitan_origin"] = "base bohr table" if base_is_bohr else \
                    f"base declared {cfg.base_declared}"
                notes.append("levitan evidence is relative to the supplied base")
            else:
                transfer["levitan_evidence"] = "inconclusive"
    return RecurrenceReport(classes, comparability, transfer, tuple(notes))


def _evidence(f: Signal, cfg: ClassifyConfig, D=None) -> tuple[dict, np.ndarray, np.ndarray]:
    """(record, taus, D): the cascade's measurements of f on the config's window
    and grid, the grid's taus and f's profile D on them (if given, f's exact
    profile or a capped one at any cap).  The record is plain data: the window's
    first sample, the time and spread of its largest departure from it, the
    scale, the period and its discrepancy (None and nan if no dip is found),
    min_D when no period is found, the fit, both tables' rows, the scaled
    return schedule and the returns found."""
    w, grid = cfg.window, cfg.tau_grid
    taus = grid.values(w, f)
    i0, vals, spread, scale, cap = _window_scale(f, cfg)
    if D is None:
        D = discrepancy_profile(f, taus, w, cap=cap)
    k = int(np.argmax(np.abs(vals - vals[0]).max(axis=1)))
    period, period_disc = _find_period(f, taus, D, w, scale)
    min_D = _profile_argmin(f, taus, w, D, cap, np.arange(D.size) > 0)[1] \
        if not period and D.size > 1 else None
    freqs, amps, residual = quasi_periodic_fit(f, _QUASI_MAX_FREQS, cfg.fit_window or w)
    bohr_rows = _table_rows(cfg.bohr_epsilons, grid, taus, D)
    shift_rows = _table_rows(cfg.bohr_epsilons, grid, taus, bebutov_profile(f, taus, w))
    sched = tuple(s * scale for s in cfg.poisson_schedule)
    returns = poisson_returns(f, sched, w, separation=cfg.poisson_separation)
    return {"value": vals[0].tolist(), "t": float(f.t0 + (i0 + k) * f.dt), "spread": spread,
            "scale": scale, "period": period, "period_disc": period_disc, "min_D": min_D,
            "freqs": freqs, "amps": amps, "residual": residual, "bohr_rows": bohr_rows,
            "shift_rows": shift_rows, "schedule": sched, "times": returns.times,
            "discrepancies": returns.discrepancies}, taus, D


def _decide(ev: dict, cfg: ClassifyConfig) -> dict:
    """name -> (verdict, params, witness, notes) of each class, from a record of
    ``_evidence`` and the config's bars; it reads no Signal and changes no entry."""
    # stationary ----------------------------------------------------------
    if ev["spread"] <= cfg.stationary_tol:
        c = {"stationary": ("yes", {"value": ev["value"]}, None, "")}
    else:
        c = {"stationary": ("no", {}, {"t": ev["t"], "spread": ev["spread"]}, "")}

    # periodic ------------------------------------------------------------
    verify_tol = _PERIODIC_VERIFY_ABS + cfg.periodic_verify_rel * ev["scale"]
    period, period_disc = ev["period"], ev["period_disc"]
    if c["stationary"][0] == "yes":
        c["periodic"] = ("yes", {"period": 0.0, "note": "stationary"}, None, "")
    elif period is not None and period_disc <= verify_tol:
        c["periodic"] = ("yes", {"period": period, "discrepancy": period_disc}, None, "")
    else:
        wit = {"best_tau": period, "discrepancy": period_disc} if period else \
              {"min_D": ev["min_D"]}
        c["periodic"] = ("no", {}, wit, "")

    # quasi-periodic -------------------------------------------------------
    freqs, residual = ev["freqs"], ev["residual"]
    if c["periodic"][0] == "yes":
        T = c["periodic"][1]["period"]  # 0.0 when stationary
        c["quasi_periodic"] = ("yes", {"freqs": [2 * math.pi / T] if T else [],
                                       "independent_count": int(T > 0), "residual": residual},
                               None, "fundamental from the verified period" if T else "stationary")
    elif freqs and residual < cfg.quasi_residual_tol and rationally_independent(freqs):
        c["quasi_periodic"] = ("yes", {"freqs": list(freqs), "amplitudes": list(ev["amps"]),
                                       "independent_count": len(freqs), "residual": residual},
                               None, "")
    elif freqs and residual < cfg.quasi_residual_tol:
        c["quasi_periodic"] = ("inconclusive", {"freqs": list(freqs), "residual": residual},
                               None, "frequencies look rationally dependent")
    else:
        c["quasi_periodic"] = ("no", {}, {"residual": residual}, "")

    # Bohr-style table, then almost recurrence (shift metric): yes when no
    # row saturates; otherwise no, witnessed by the first one ---------------
    bohr_note = "inclusion length saturates the grid at this scale"
    for name, rows, note in (("bohr_ap", ev["bohr_rows"], bohr_note),
                             ("almost_recurrent", ev["shift_rows"], "")):
        table = {"table": [[e, L, s] for e, L, s in rows]}
        saturated = [r for r in rows if r[2]]
        if not saturated:
            c[name] = ("yes", table, None, "")
        else:
            e, L, _ = saturated[0]
            c[name] = ("no", table, {"epsilon": e, "max_gap": L}, note)

    # Poisson returns --------------------------------------------------------
    times, sched = list(ev["times"]), list(ev["schedule"])
    if len(times) == len(sched):
        c["poisson"] = ("yes", {"times": times, "discrepancies": list(ev["discrepancies"]),
                                "schedule": sched}, None, "")
    elif 2 * len(times) >= len(sched):
        c["poisson"] = ("inconclusive", {"times": times, "schedule": sched}, None,
                        "schedule only partially satisfied on this horizon")
    else:
        c["poisson"] = ("no", {}, {"schedule": sched, "found": times},
                        "the return search stalls at the probed scales")

    # pseudo recurrence: derived flag only -----------------------------------
    if c["poisson"][0] == "yes" and c["almost_recurrent"][0] == "yes":
        c["pseudo_recurrent"] = ("yes", {"derived": True}, None,
                                 "derived from poisson yes + finite inclusion lengths")
    elif c["poisson"][0] == "no":
        c["pseudo_recurrent"] = ("no", {"derived": True}, None, "")
    else:
        c["pseudo_recurrent"] = ("inconclusive", {"derived": True}, None, "")
    return c


def _window_scale(f: Signal, cfg: ClassifyConfig):
    """(i0, vals, spread, scale, cap) of f on the config's window: its first index
    and samples, their largest component range, the signal scale (half of it) and
    the cap of the cascade's profile.  Every threshold the cascade compares D
    against (the period detection bar, the Bohr epsilons of the table and of
    comparability) is at most the cap, so a D capped there answers each as the
    exact D does; the dip walk of ``_find_period`` starts below the detection bar
    and steps only to values no larger.  ``_profile_argmin`` resolves the minima
    read from D (the min_D witness, the base's delta_hat)."""
    i0, i1 = f.window_slice(cfg.window)
    vals = f.samples[i0 : i1 + 1]
    spread = float((vals.max(axis=0) - vals.min(axis=0)).max())
    scale = max(0.5 * spread, 1e-12)
    return i0, vals, spread, scale, max(_PERIODIC_DETECT_FRAC * scale, *cfg.bohr_epsilons)


def _profile_argmin(f, taus, w, D, cap, mask) -> tuple[int, float]:
    """(k, value): the least exact discrepancy over the taus where ``mask`` holds
    and its first index (0 and inf where it holds nowhere), where D is the
    profile capped at ``cap`` (exact below it, a lower bound at or above it).

    Branch and bound: the masked taus are finished in ascending order of their
    bounds, in batches growing fourfold, until the next bound is above the best
    exact value; a batch takes only taus whose bound is at most it, so a tie
    keeps the first index.  A batch after the first is read capped just above
    the best value, which is exact wherever a tau can still win or tie.
    """
    bounds = np.where(mask, D, _INF)
    k = int(np.argmin(bounds))
    if bounds[k] < cap or not mask[k]:
        return k, float(bounds[k])
    order = np.argsort(bounds)[: np.count_nonzero(mask)]
    bounds = bounds[order]
    best = (_INF, k)
    i, size = 0, _MIN_BATCH0
    while i < order.size and bounds[i] <= best[0]:
        end = min(i + size, int(np.searchsorted(bounds, best[0], side="right")))
        idx = order[i:end]
        got = discrepancy_profile(f, taus[idx], w, cap=np.nextafter(best[0], _INF))
        lo = got.min()
        best = min(best, (float(lo), int(idx[got == lo].min())))
        i, size = end, 4 * size
    return best[1], best[0]


def _find_period(f, taus, D, w, scale):
    """First deep local dip of D beyond the zero cluster, golden-refined."""
    detect = _PERIODIC_DETECT_FRAC * scale
    step = taus[1] - taus[0] if taus.size > 1 else f.dt
    # Leave the tau=0 cluster: wait until D has risen above the detection bar.
    k = 0
    n = taus.size
    while k < n and D[k] < detect:
        k += 1
    while k < n and not (D[k] < detect):
        k += 1
    if k >= n:
        return None, float("nan")
    # Walk to the bottom of this dip on the grid.
    while k + 1 < n and D[k + 1] <= D[k]:
        k += 1

    lo = max(taus[0], taus[k] - step)
    hi = min(taus[-1], taus[k] + step)
    # Grid-aligned taus, and all of an exact Signal's, read as ``discrepancy_profile`` does.
    i0, i1 = f.window_slice(w)
    read = _deciding_reader(f, i0, f.samples[i0 : i1 + 1]) if f.exact is None else None
    tau_ref, d_ref = _golden_min(
        lambda x, bar: discrepancy_profile(f, x, w)
        if read is None or _grid_starts(f, i0, i1 - i0 + 1, x)[1].any() else read(x, bar),
        lo, hi, 50)
    return float(tau_ref[0]), float(d_ref[0])
