"""Uniformly sampled signals, time shifts, and windowed discrepancy metrics.

A :class:`Signal` is the numerical stand-in for a point of the function space
carrying the shift flow: forcings and trajectories are both signals, and all
recurrence analysis reduces to windowed comparisons between a signal and its
own translates.  Quantifiers over the whole real line are evaluated on finite
windows; every downstream report records the window it used.

All values here are immutable after construction and every operation is a
pure function, so they are safe to hand to parallel workers.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatch,
    ParseError,
    ShiftOutOfDomain,
    WindowOutOfDomain,
)

# Relative slack used when snapping times to the sample grid.
_GRID_RTOL = 1e-9
# The most float64 elements one array can hold: its size in bytes must fit an
# index.
_MAX_FLOATS = np.iinfo(np.intp).max // 8
# The most values, times or rows one block of a chunked loop holds: memory stays flat.
_CHUNK = 1 << 16


@dataclass(frozen=True)
class Window:
    """Closed interval [center - half_width, center + half_width]."""

    center: float
    half_width: float

    def __post_init__(self):
        if not (self.half_width > 0 and math.isfinite(self.half_width)):
            raise ValueError("half_width must be positive and finite")
        if not math.isfinite(self.center):
            raise ValueError("center must be finite")

    @property
    def lo(self) -> float:
        return self.center - self.half_width

    @property
    def hi(self) -> float:
        return self.center + self.half_width

    def shifted(self, tau: float) -> "Window":
        return Window(self.center + tau, self.half_width)

    def require_inside(self, sig: "Signal", label: str = "window") -> None:
        slack = _GRID_RTOL * max(1.0, abs(sig.dt))
        if self.lo < sig.t0 - slack or self.hi > sig.t_end + slack:
            raise WindowOutOfDomain(
                f"{label} [{self.lo:g}, {self.hi:g}] not inside signal domain "
                f"[{sig.t0:g}, {sig.t_end:g}]"
            )


@dataclass(frozen=True, eq=False)
class Signal:
    """Vector-valued function of time on a uniform grid.

    Parameters
    ----------
    t0 : float
        Time of the first sample (arbitrary origin).
    dt : float
        Grid step, strictly positive.
    samples : array, shape (n, dim)
        Sample values; a 1-D array is treated as a single component.

    Between samples the signal is the natural cubic spline through the
    samples (CSV inputs, trajectories, levitan's functions, derived Signals).
    A ``LazySignal`` forms its rows when read: a catalog ``trig-sum`` forcing
    sets ``exact`` to the ``systems.TrigSum`` it samples and is read by that
    closed form instead; the scalar closed-form RK4 trajectory keeps the spline.
    """

    t0: float
    dt: float
    samples: np.ndarray
    exact = None  # a class attribute, not a field: only LazySignal sets it

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2 or arr.shape[0] == 0:
            raise ValueError("samples must be a nonempty (n, dim) array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples must be finite")
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError("dt must be positive and finite")
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    # -- geometry ---------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    def __len__(self) -> int:
        return self.samples.shape[0]

    def __getitem__(self, rows) -> np.ndarray:
        return self.samples[rows]

    @property
    def t_end(self) -> float:
        return self.t0 + self.dt * (len(self) - 1)

    @property
    def length(self) -> float:
        return self.dt * (len(self) - 1)

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(len(self))

    @cached_property
    def extremes(self) -> tuple[np.ndarray, np.ndarray]:
        """(min, max) of the samples per component."""
        return self.samples.min(axis=0), self.samples.max(axis=0)

    def _windows(self, starts: np.ndarray, m: int) -> np.ndarray:
        """Rows s .. s + m - 1 from each start s, shape (m, len(starts), dim), one gather."""
        return self.samples[np.arange(m)[:, None] + starts]

    # -- evaluation -------------------------------------------------------

    @cached_property
    def _spline(self) -> tuple[np.ndarray, np.ndarray]:
        """Breakpoints x and coefficients c, shape (4, n - 1, dim), of the
        natural cubic spline on the uniform grid (see ``_coefficients``)."""
        return self.times(), _coefficients(self.samples, self.dt)

    @cached_property
    def _cell_ranges(self) -> tuple[np.ndarray, np.ndarray, float]:
        """(lo, hi, scale): per cell and component, the extremes of ``_cubic`` at s = 0, the
        cell width h and the roots of c2 + 2 c1 s + 3 c0 s^2 (clipped into the cell; a negative
        discriminant reads 0: the inflection, where the cubic is flat to third order); and the
        largest |c3| + |c2| h + |c1| h^2 + |c0| h^3, which bounds ``_cubic``'s rounding."""
        x, c = self._spline
        h = np.diff(x)[:, None]
        with np.errstate(all="ignore"):
            q = -(c[1] + np.copysign(np.sqrt(np.maximum(c[1] ** 2 - 3.0 * c[0] * c[2], 0.0)), c[1]))
            ss = [np.clip(np.nan_to_num(s), 0.0, h) for s in (h, q / (3.0 * c[0]), c[2] / q)]
        vals = [c[3]] + [_cubic(*c[::-1], s) for s in ss]
        scale = _cubic(*np.abs(c[::-1]), h).max()
        return np.minimum.reduce(vals), np.maximum.reduce(vals), float(scale)

    def values(self, ts) -> np.ndarray:
        """Values at times ``ts``; shape (len(ts), dim).

        With an ``exact`` function they are its values.  The cubic
        interpolant equals scipy's ``PPoly(c, x)`` of the spline's
        coefficients bit for bit: the interval of each time is found from the
        grid, and the polynomial is summed in PPoly's order (see ``_cubic``).
        The coefficients are read from ``_cells``, which solves only local
        windows until the whole spline is built, with the same bits.
        """
        ts = np.asarray(ts, dtype=float)
        if ts.size:
            lo, hi = ts.min(), ts.max()
            self._require_times(lo, hi)
            if lo < self.t0 or hi > self.t_end:
                ts = np.clip(ts, self.t0, self.t_end)
        if self.exact is not None:
            return self.exact(ts.ravel()).reshape(ts.shape + (self.dim,))
        if len(self) == 1:
            return np.repeat(self.samples, ts.size, axis=0)
        i, s = self._intervals(ts.ravel())
        c, i = self._cells(i)
        # Gather from flat views of the coefficients: k indexes c[p].ravel().
        k = i[:, None] if self.dim == 1 else (i * self.dim)[:, None] + np.arange(self.dim)
        coef = [c[p].ravel()[k] for p in (3, 2, 1, 0)]
        return _cubic(*coef, s[:, None]).reshape(ts.shape + (self.dim,))

    def _cells(self, i: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Spline coefficients, shape (4, rows, dim), and the row holding each cell i.

        Until the whole spline is built, a read solves it only on windows of
        3 M + 1 samples, M = ``_SWEEP_TERMS``: one per block of M cells read,
        with the blocks either side, all in one batch.  Both sweeps of
        ``_natural_slopes`` stop at M terms and every other step reads a
        sample's neighbours only, so a cell at least M cells from each window
        edge that is not an end of the grid gets the whole spline's
        arithmetic, the same bits; a window at an end of the grid keeps its
        natural end row.  Local solves on a Signal total at most len(self)
        rows, one whole build's; a read past that builds the whole spline.
        """
        n, m, M = len(self), 3 * _SWEEP_TERMS + 1, _SWEEP_TERMS
        if "_spline" not in self.__dict__ and n > m:
            key = -(-np.clip((i // M - 1) * M, 0, n - m) // M)  # one per window start, unsorted
            hit = np.bincount(key) > 0
            spent = self.__dict__.get("_local_rows", 0) + int(hit.sum()) * m
            if spent <= n:
                starts, w = np.minimum(np.flatnonzero(hit) * M, n - m), np.cumsum(hit)[key] - 1
                self.__dict__["_local_rows"] = spent
                c = _coefficients(self._windows(starts, m), self.dt)
                return c.reshape(4, -1, self.dim), (i - starts[w]) * starts.size + w
        return self._spline[1], i

    def _require_times(self, lo, hi) -> None:
        slack = _GRID_RTOL * max(1.0, self.dt)
        # Every time in [lo, hi] in the domain; a NaN fails it.
        if not (float(lo) >= self.t0 - slack and float(hi) <= self.t_end + slack):
            raise WindowOutOfDomain(f"evaluation times outside domain [{self.t0:g}, {self.t_end:g}]")

    def shift_reader(self, idx) -> Callable:
        """taus -> f(t_i + tau), shape (len(taus), len(idx), dim), at the grid times t_i of the
        increasing indices ``idx``, with ``values``' domain check.  An ``exact`` TrigSum turns
        its angles at the t_i, unclipped; a spline Signal reads ``values``."""
        ts = self.t0 + self.dt * idx
        if self.exact is not None:
            at = self.exact.shifted(ts)
            # Addition is monotone, so the extreme taus bound every time; a NaN fails it.
            return lambda taus: self._require_times(ts[0] + taus.min(initial=math.inf),
                                                    ts[-1] + taus.max(initial=-math.inf)) or at(taus)
        return lambda taus: self.values(taus[:, None] + ts)

    def window_values(self, i0: int, m: int, taus) -> np.ndarray:
        """f(t_k + tau) for the m grid times t_k from index i0 and each tau;
        shape (len(taus), m, dim).

        Equal to ``values`` at ``t0 + dt * arange(i0, i0 + m) + tau``.  Those
        times are increasing, so their intervals are mostly one run j..j+m-1
        (j the interval of the first time), and the coefficients are read as
        slices.  A row whose run check fails goes through ``values``, and so
        does every row of a one-sample Signal or of one with an ``exact``
        function.
        """
        taus = np.asarray(taus, dtype=float).reshape(-1)
        if len(self) == 1 or self.exact is not None:
            grid = self.t0 + self.dt * np.arange(i0, i0 + m)
            return self.values((taus[:, None] + grid).ravel()).reshape(taus.size, m, self.dim)
        x, c = self._spline
        grid = x[i0 : i0 + m]
        out = np.empty((taus.size, m, self.dim))
        for r, tau in enumerate(taus.tolist()):
            t = grid + tau
            if t[0] >= self.t0 and t[-1] <= self.t_end:
                j = int(self._intervals(t[:1])[0][0])
                if (j + m < len(self) and (x[j : j + m] <= t).all()
                        and (t < x[j + 1 : j + m + 1]).all()):
                    _cubic(*(c[p, j : j + m] for p in (3, 2, 1, 0)),
                           (t - x[j : j + m])[:, None], out=out[r])
                    continue
            out[r] = self.values(t)
        return out

    def _intervals(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """PPoly's interval i of each time in the domain, x[i] <= t < x[i+1]
        with the last interval closed at t == x[n-1], and s = t - x[i], where
        x[i] = t0 + dt * i as in ``times``.

        The grid guess floor((t - t0) / dt) is off by at most a rounding; it
        is moved by one until the rule holds.
        """
        t0, dt, top = self.t0, self.dt, len(self) - 2
        # t >= t0, so the cast truncates to the floor.
        i = np.minimum(((t - t0) / dt).astype(np.intp), top)
        s = t - (t0 + dt * i)
        # s < 0 exactly when t < x[i].  The loop lets t == x[n-1] through.
        at = np.flatnonzero((s < 0) | (t >= t0 + dt * (i + 1)))
        while at.size:
            ta, ia = t[at], i[at]
            ia += (ta >= t0 + dt * (ia + 1)) & (ia < top)
            ia -= ta < t0 + dt * ia
            i[at], s[at] = ia, ta - (t0 + dt * ia)
            at = at[(ta < t0 + dt * ia) | ((ta >= t0 + dt * (ia + 1)) & (ia < top))]
        return i, s

    # -- derived signals ----------------------------------------------------

    def restrict(self, lo: float, hi: float) -> "Signal":
        """Sub-signal on the grid points inside [lo, hi] (snapped inward)."""
        i0 = self._index_at_or_after(lo)
        i1 = self._index_at_or_before(hi)
        if i1 < i0:
            raise WindowOutOfDomain(f"[{lo:g}, {hi:g}] contains no grid point")
        return Signal(self.t0 + i0 * self.dt, self.dt, self[i0 : i1 + 1])

    def _index_at_or_after(self, t: float) -> int:
        idx = math.ceil((t - self.t0) / self.dt - _GRID_RTOL)
        return max(idx, 0)

    def _index_at_or_before(self, t: float) -> int:
        idx = math.floor((t - self.t0) / self.dt + _GRID_RTOL)
        return min(idx, len(self) - 1)

    def window_slice(self, w: Window) -> tuple[int, int]:
        """Grid index range [i0, i1] covered by ``w`` (snapped inward)."""
        w.require_inside(self)
        i0 = self._index_at_or_after(w.lo)
        i1 = self._index_at_or_before(w.hi)
        if i1 - i0 < 1:
            raise WindowOutOfDomain("window narrower than one grid cell")
        return i0, i1


def _cubic(c3, c2, c1, c0, s, out=None) -> np.ndarray:
    """((c3 + c2 s) + c1 (s s)) + c0 ((s s) s): the local cubic in the order
    scipy's PPoly sums it, so the rounding is the same."""
    ss = s * s
    out = np.multiply(c2, s, out=out)
    out += c3
    out += c1 * ss
    ss *= s
    out += c0 * ss
    return out


# z = 2 - sqrt(3), the factor of both sweeps of ``_natural_slopes``.  Each
# sweep sums 64 terms by log-doubling; z^64 < 1e-36 bounds the rest.
_Z = 2.0 - math.sqrt(3.0)
_SWEEP_TERMS = 64


def _coefficients(y: np.ndarray, h: float) -> np.ndarray:
    """Coefficients c, shape (4, n - 1) + y.shape[1:], of the natural cubic
    spline through the samples y on a grid of step h, along axis 0: at
    s = t - x[i] it is c[3] + c[2] s + c[1] s^2 + c[0] s^3, summed by
    ``_cubic``.  The slopes d come from ``_natural_slopes`` (the chord's, dy
    and dy, for 2 samples) and the coefficients from the Hermite form.  c[3]
    is y + 0.0, which turns a -0.0 into +0.0 as scipy's PPoly does when it
    sums each value from 0.0 + c[3].  Every step is elementwise along the
    other axes, so a batch of windows stacked on axis 1 is solved as each
    alone."""
    n = len(y)
    c = np.empty((4, n - 1) + y.shape[1:])
    dy = np.subtract(y[1:], y[:-1], out=c[1])
    d = np.concatenate((dy, dy)) if n == 2 else _natural_slopes(dy, c[0])
    d /= h
    slope = np.divide(dy, h, out=c[1])
    t = np.add(d[:-1], d[1:], out=c[0])
    t -= np.multiply(slope, 2.0, out=c[2])
    t /= h
    np.subtract(slope, d[:-1], out=c[1])
    c[1] /= h
    c[1] -= t
    c[0] /= h
    c[2] = d[:-1]
    np.add(y[:-1], 0.0, out=c[3])
    return c


def _natural_slopes(dy: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """Slopes d per grid step of the natural cubic spline through n >= 3
    samples whose differences are dy, shape (n - 1, dim): the solution of

        2 d_0 + d_1 = 3 dy_0,
        d_{i-1} + 4 d_i + d_{i+1} = 3 (dy_{i-1} + dy_i),  0 < i < n - 1,
        d_{n-2} + 2 d_{n-1} = 3 dy_{n-2}.

    The interior rows are (1/z) (1 + z E^-1) (1 + z E) with E the shift, so
    they hold for a forward sweep v_i = r_i - z v_{i-1} from any v_0,
    followed by a backward sweep d_i = z (v_i - d_{i+1}) from any d_{n-1}:
    the recursive-filter form of spline interpolation (M. Unser,
    A. Aldroubi and M. Eden, "B-spline signal processing: Part II", IEEE
    Trans. Signal Process. 41(2), 1993).  The last row gives d_{n-1} from
    v_{n-2}.  The forward sweep starts from v_0 = 0, and the first row then
    fixes v_0, whose response ``_v0_response`` is added.  ``buf`` is
    scratch of n - 1 rows.
    """
    n = dy.shape[0] + 1
    d = np.empty((n,) + dy.shape[1:])
    np.add(dy[:-1], dy[1:], out=d[1:-1])
    d[1:-1] *= 3.0
    d[0] = 0.0
    _sweep(d[:-1], buf)
    d[-1] = (3.0 * dy[-1] - _Z * d[-2]) / (2.0 - _Z)
    d[:-1] *= _Z
    _sweep(d[::-1], buf)
    g = _v0_response(n)
    v0 = (3.0 * dy[0] - 2.0 * d[0] - d[1]) / (2.0 * g[0] + g[1])
    d[: g.size] += np.multiply.outer(g, v0)
    return d


def _sweep(v: np.ndarray, buf: np.ndarray) -> None:
    """v_i <- sum over k < 64, k <= i of (-z)^k v_{i-k}, in place: the
    sweep u_i = v_i - z u_{i-1} from u_0 = v_0, in log2(64) vector passes,
    each adding (-z)^k times the rows k back.  Rows i < 64 get every term."""
    a = -_Z
    k = 1
    while k < min(len(v), _SWEEP_TERMS):
        np.multiply(v[:-k], a, out=buf[: len(v) - k])
        v[k:] += buf[: len(v) - k]
        a *= a
        k *= 2


def _v0_response(n: int) -> np.ndarray:
    """The first min(n, 64) slopes ``_natural_slopes`` gets from v_0 = 1
    and a zero right-hand side: v_i = (-z)^i, and the backward sweep of it
    from d_{n-1} = -z v_{n-2} / (2 - z) is p (-z)^i + q (-z)^(n-1-i), with
    p = z / (1 - z^2).  Past 64 rows it is below z^64 < 1e-36."""
    i = np.arange(min(n, _SWEEP_TERMS))
    p = _Z / (1.0 - _Z * _Z)
    q = -_Z * (-_Z) ** (n - 2) / (2.0 - _Z) - p * (-_Z) ** (n - 1)
    return p * (-_Z) ** i + q * (-_Z) ** (n - 1 - i)


def sample_function(fn, t0: float, t_end: float, dt: float) -> Signal:
    """Sample a callable ``fn(ts) -> (n,) or (n, dim)`` as a cubic Signal on a
    uniform grid, ``_CHUNK`` times per call into one array, so that
    fn's temporaries stay chunk-sized; through ``fn.on_grid(t0, dt, k0, n)``
    where fn has it (``systems.TrigSum``)."""
    if hasattr(fn, "on_grid"):
        rows = lambda a, m: fn.on_grid(t0, dt, a, m)
    else:
        rows = lambda a, m: np.asarray(fn(t0 + dt * np.arange(a, a + m)), dtype=float)
    return Signal(t0, dt, _formed(rows, int(round((t_end - t0) / dt)) + 1))


def _formed(rows: Callable, n: int) -> np.ndarray:
    """Rows 0 .. n - 1 of ``rows(a, m)`` (rows a .. a + m - 1), ``_CHUNK`` per call into one array."""
    vals = None
    for a in range(0, n, _CHUNK):
        chunk = rows(a, min(_CHUNK, n - a))
        if vals is None:
            vals = np.empty((n,) + chunk.shape[1:])
        vals[a : a + len(chunk)] = chunk
    return vals


class LazySignal(Signal):
    """A Signal of n samples whose rows ``rows(a, m)``, rows a .. a + m - 1, are formed
    when read, each with the same bits however the grid is cut.  A unit-step row slice
    ``f[a:b]`` is formed alone, and so are the windows that ``_cells`` solves and that
    ``restrict`` keeps; ``samples``, which any other read reads, are formed by
    ``_formed``, checked, then kept.  ``exact`` is the closed form ``values`` reads
    instead of the spline (a ``systems.TrigSum``) or None; ``extremes``, when given, are
    the per-component (min, max) of every row, so reading them forms no row."""

    def __init__(self, rows: Callable, t0: float, dt: float, n: int, exact=None,
                 extremes=None):
        if not (dt > 0 and math.isfinite(dt) and n >= 1):
            raise ValueError("need a positive finite dt and at least one sample")
        self.__dict__.update(t0=t0, dt=dt, exact=exact, _rows=rows, _n=n)
        if extremes is not None:
            self.__dict__["extremes"] = extremes

    def __len__(self) -> int:
        return self._n

    dim = cached_property(lambda self: self._rows(0, 1).shape[1])
    samples = cached_property(lambda self: Signal(self.t0, self.dt, _formed(self._rows, self._n)).samples)

    def __getitem__(self, rows) -> np.ndarray:
        if not (isinstance(rows, slice) and rows.step in (None, 1)):
            return self.samples[rows]
        a, b, _ = rows.indices(self._n)
        return self._rows(a, max(b - a, 0))

    def _windows(self, starts: np.ndarray, m: int) -> np.ndarray:
        return np.stack([self[s : s + m] for s in starts.tolist()], axis=1)


# ---------------------------------------------------------------------------
# shift flow
# ---------------------------------------------------------------------------

def shift(f: Signal, tau: float) -> Signal:
    """Translate in time: returns g with g(t) = f(t + tau).

    The result lives on the shrunken common domain, resampled on the same
    grid phase.  Shifts that are exact grid multiples are pure sample
    slices (no interpolation error).
    """
    if tau == 0.0:
        return f
    if abs(tau) >= f.length:
        raise ShiftOutOfDomain(
            f"|tau|={abs(tau):g} >= domain length {f.length:g}"
        )
    lo = max(f.t0, f.t0 - tau)
    hi = min(f.t_end, f.t_end - tau)
    i0 = f._index_at_or_after(lo)
    i1 = f._index_at_or_before(hi)
    if i1 < i0:
        raise ShiftOutOfDomain("shifted domain is empty")
    new_t0 = f.t0 + i0 * f.dt
    ts = new_t0 + f.dt * np.arange(i1 - i0 + 1)
    j0, aligned = _grid_starts(f, i0, ts.size, np.array([tau]))
    vals = f.samples[j0[0] : j0[0] + ts.size] if aligned[0] else f.values(ts + tau)
    return Signal(new_t0, f.dt, vals)


def _shifted(f: Signal, i0: int, m: int, tau: float) -> np.ndarray:
    """f(t + tau) at the m grid times t from index i0.

    A tau that is a grid multiple is an exact sample slice (no interpolation
    error); any other tau goes through the interpolant.
    """
    j0, aligned = _grid_starts(f, i0, m, np.array([tau]))
    if aligned[0]:
        return f.samples[j0[0] : j0[0] + m]
    return f.window_values(i0, m, [tau])[0]


def _grid_starts(f: Signal, i0: int, m: int, taus: np.ndarray):
    """For the m-sample window at index i0 shifted by each tau: the sample
    index where the shifted window starts, and whether tau is a grid
    multiple (only then is the start index meaningful)."""
    k = taus / f.dt
    k_round = np.round(k)
    aligned = np.abs(k - k_round) <= _GRID_RTOL * np.maximum(1.0, np.abs(k))
    j0 = i0 + k_round.astype(np.intp)
    if aligned.any() and (j0[aligned].min() < 0 or j0[aligned].max() + m > len(f)):
        raise WindowOutOfDomain("shifted window leaves sample range")
    return j0, aligned


def _require_shifts_inside(f: Signal, w: Window, taus: np.ndarray) -> None:
    """``w.shifted(tau).require_inside(f, "shifted window")`` for every tau at
    once, raising for the first tau in array order that fails it."""
    slack = _GRID_RTOL * max(1.0, abs(f.dt))
    centers = w.center + taus
    ok = (centers - w.half_width >= f.t0 - slack) & (centers + w.half_width <= f.t_end + slack)
    if not ok.all():
        w.shifted(float(taus[np.argmin(ok)])).require_inside(f, "shifted window")


# ---------------------------------------------------------------------------
# windowed metrics
# ---------------------------------------------------------------------------

def _require_same_dim(f: Signal, g: Signal) -> None:
    if f.dim != g.dim:
        raise DimensionMismatch(f"dims differ: {f.dim} vs {g.dim}")


def sup_distance(f: Signal, g: Signal, w: Window) -> float:
    """max over t in w of the componentwise sup-norm |f(t) - g(t)|."""
    _require_same_dim(f, g)
    i0, i1 = f.window_slice(w)
    w.require_inside(g)
    ts = f.t0 + f.dt * np.arange(i0, i1 + 1)
    # Window endpoints are evaluated too so maxima at the edges are not
    # missed when the window is not grid-aligned.  An end on the grid is read
    # twice, which does not move the max.
    ts = np.concatenate([[max(w.lo, f.t0, g.t0)], ts, [min(w.hi, f.t_end, g.t_end)]])
    diff = np.abs(f.values(ts) - g.values(ts))
    return float(diff.max())


def shift_discrepancy(f: Signal, tau: float, w: Window) -> float:
    """Windowed sup-norm discrepancy D(tau) = max over w of |f(t+tau) - f(t)|.

    tau is an epsilon-almost period on w exactly when D(tau) < epsilon.
    """
    w.require_inside(f, "window")
    w.shifted(tau).require_inside(f, "shifted window")
    if tau == 0.0:
        return 0.0
    i0, i1 = f.window_slice(w)
    return float(np.abs(_shifted(f, i0, i1 - i0 + 1, tau) - f.samples[i0 : i1 + 1]).max())


def discrepancy_profile(f: Signal, taus: np.ndarray, w: Window,
                        cap: float = math.inf) -> np.ndarray:
    """``shift_discrepancy`` over a tau grid, with the window set up once.

    Grid-aligned taus use exact sample slices; others fall back to
    interpolation.

    Where D(tau) < ``cap`` the value is D(tau) bit for bit; elsewhere it is a
    lower bound in [cap, D(tau)].  With a finite cap every tau first reads the
    window's two extreme rows, those of its largest and least sample (a spike
    is read where it sits); only the taus whose max there is below the cap
    read the window's first ``_HEAD`` points, and only those still below it
    the rest.  Each point is read as the whole-window read reads it, so the
    max of the parts is the same float as the max over the whole window, and
    a value below the cap is exact.
    """
    taus = np.asarray(taus, dtype=float)
    i0, i1 = f.window_slice(w)
    _require_shifts_inside(f, w, taus)
    base = f.samples[i0 : i1 + 1]
    m = base.shape[0]
    j0, aligned = _grid_starts(f, i0, m, taus)
    out = np.zeros(taus.size)
    todo = np.arange(taus.size)
    h = 0
    if cap < math.inf:
        h = min(_HEAD, m)
        _head_max(f, i0, h, np.array([base.argmax(), base.argmin()]) // f.dim,
                  taus, j0, aligned, out, cap)
        todo = np.flatnonzero(out < cap) if h < m else todo[:0]
    rest = base[h:]
    buf = np.empty_like(rest)
    for a, tau, j, exact in zip(todo.tolist(), taus[todo].tolist(), j0[todo].tolist(),
                                aligned[todo].tolist()):
        if tau != 0.0:
            np.subtract(f.samples[j + h : j + m] if exact
                        else f.window_values(i0 + h, m - h, [tau])[0], rest, out=buf)
            out[a] = max(np.abs(buf, out=buf).max(), out[a])
    return out


# Window points every tau reads first in a capped ``discrepancy_profile``.
_HEAD = 512


def _head_max(f: Signal, i0: int, h: int, probes, taus, j0, aligned, out, cap) -> None:
    """out[a] = max over the window rows ``probes`` of |f(t + taus[a]) - f(t)|, for
    every tau, then the max of that and of the first h window points for the taus
    whose rows stay below ``cap``; each point is read as the whole-window read reads
    it, a sample at a grid-aligned tau, else the interpolant."""
    # The probe rows lead the gathered axes (probes, taus, dim): numpy's max over
    # a short last axis costs far more than over a leading one.
    ref, ts = f.samples[i0 + probes, None], f.t0 + f.dt * (i0 + probes[:, None])
    for a in _tau_blocks(aligned, True, probes.size * f.dim):
        at = f.samples[j0[a] + probes[:, None]] if aligned[a[0]] else f.values(taus[a] + ts)
        out[a] = np.abs(at - ref).max(axis=(0, 2))
    base = f.samples[i0 : i0 + h]
    # Shape (n - h + 1, dim, h): row j is the h samples from index j.
    rows = np.lib.stride_tricks.sliding_window_view(f.samples, h, axis=0)
    for a in _tau_blocks(aligned, out < cap, h * f.dim):
        if aligned[a[0]]:
            diff, ref = rows[j0[a]], base.T
        else:
            diff, ref = f.window_values(i0, h, taus[a]), base
        np.subtract(diff, ref, out=diff)
        out[a] = np.maximum(out[a], np.abs(diff, out=diff).max(axis=(1, 2)))


def _tau_blocks(aligned, sel, values_per_tau: int):
    """Blocks of the indices of the grid-aligned taus where ``sel`` holds, then of
    the others, each gathering at most ``_CHUNK`` values."""
    block = max(1, _CHUNK // values_per_tau)
    for idx in (np.flatnonzero(aligned & sel), np.flatnonzero(~aligned & sel)):
        for s in range(0, idx.size, block):
            yield idx[s : s + block]


# The number of metric levels the first prefix of ``bebutov_profile`` covers;
# it gathers at most ``_CHUNK`` values (taus x prefix points x components) at once.
_BEBUTOV_LEVELS0 = 64
# ``bebutov_profile`` reads the grid shifts point-major while this many per
# component are live: that read makes numpy calls per point and component.
_POINT_MAJOR_MIN = 512


def bebutov_profile(f: Signal, taus: np.ndarray, w: Window) -> np.ndarray:
    """Shift-metric distance between f and each of its translates.

    Uses l_max = the window half-width, per the distinction between uniform
    almost periods (sup metric) and point shifts (this metric).

    Equal, bit for bit, to ``_bebutov`` of each translate's gaps over the whole
    window, but reads only a prefix of the distance-sorted window points.
    The running max M(l) of the gaps never decreases and 1/l always
    decreases, so past the first level l* with M(l*) >= 1/l* every term
    min(M(l), 1/l) is 1/l < 1/l*.  The sup is therefore the max over the
    levels l <= l*, which need the gaps at the first ``last[l*] + 1`` points
    only; with no crossing it is the max over every level.  The prefix starts
    at 64 levels and grows fourfold for the taus whose crossing lies beyond
    it, until it holds every level.  Each gap is the same elementwise
    arithmetic as in the whole-window gaps (the interpolant too is evaluated
    pointwise), and the max picks the same float out of fewer candidates.

    While at least ``_POINT_MAJOR_MIN`` grid shifts per component are live,
    the prefixes are read point-major: each window point in distance order,
    across every live shift, raises one running max per shift; each level end
    folds min(M(l), 1/l) into the shift's result, and each prefix end
    finishes the shifts that have crossed.  The survivors and the off-grid
    taus then take the shift-major prefix loop from the next prefix on.  Max
    and min pick floats, so the order of the reads changes no bit.
    """
    taus = np.asarray(taus, dtype=float)
    i0, i1 = f.window_slice(w)
    _require_shifts_inside(f, w, taus)
    base = f.samples[i0 : i1 + 1]
    ts = f.t0 + f.dt * np.arange(i0, i1 + 1)
    order, last, inv_l = _bebutov_geometry(ts, w.center, f.dt, w.half_width)
    if last.size == 0:
        raise WindowOutOfDomain("window half-width smaller than one grid step")
    j0, aligned = _grid_starts(f, i0, ts.size, taus)
    out = np.empty(taus.size)
    live = np.flatnonzero(aligned)
    acc, res = np.zeros(live.size), np.zeros(live.size)
    levels, lo, q, cols = _BEBUTOV_LEVELS0, 0, 0, f.samples.T
    while live.size >= _POINT_MAJOR_MIN * f.dim and lo < last.size:
        hi = min(levels, last.size)
        starts = j0[live]
        for l in range(lo, hi):
            for p in order[q : last[l] + 1]:
                for col, b in zip(cols, base[p]):
                    gap = col[p:][starts]
                    np.subtract(gap, b, out=gap)
                    np.maximum(acc, np.abs(gap, out=gap), out=acc)
            q = last[l] + 1
            np.maximum(res, np.minimum(acc, inv_l[l]), out=res)
        done = (acc >= inv_l[hi - 1]) | (hi == last.size)
        out[live[done]] = res[done]
        live, acc, res = live[~done], acc[~done], res[~done]
        lo, levels = hi, 4 * levels
    todo = np.concatenate([live, np.flatnonzero(~aligned)])
    while todo.size:
        levels = min(levels, last.size)
        pts = order[: last[levels - 1] + 1]
        base_p, ts_p = base[pts], ts[pts]
        block = max(1, _CHUNK // (pts.size * f.dim))
        left = []
        for s in range(0, todo.size, block):
            idx = todo[s : s + block]
            ex = aligned[idx]
            # Rows of off-grid taus start as the unshifted window, then are
            # overwritten by the interpolant.
            shifted = f.samples[np.where(ex, j0[idx], i0)[:, None] + pts]
            if not ex.all():
                off = (ts_p + taus[idx[~ex], None]).ravel()
                shifted[~ex] = f.values(off).reshape(-1, pts.size, f.dim)
            np.subtract(shifted, base_p, out=shifted)
            gaps = np.abs(shifted, out=shifted).max(axis=2)
            run = np.maximum.accumulate(gaps, axis=1)[:, last[:levels]]
            out[idx] = np.minimum(run, inv_l[:levels]).max(axis=1)
            left.append(idx[run[:, -1] < inv_l[levels - 1]])
        todo = np.concatenate(left) if levels < last.size else todo[:0]
        levels *= 4
    return out


def bebutov_distance(f: Signal, g: Signal, l_max: float, center: float) -> float:
    """Shift-metric distance sup_l min(max_{|t-center|<=l} |f-g|, 1/l).

    The sup runs over the grid multiples l in {dt, 2 dt, ..., l_max}; between
    grid points min(., 1/l) is piecewise monotone, so grid evaluation bounds
    the error by one dt cell.
    """
    _require_same_dim(f, g)
    if l_max < f.dt:
        raise WindowOutOfDomain("l_max smaller than one grid step")
    w = Window(center, l_max)
    i0, i1 = f.window_slice(w)
    w.require_inside(g)
    ts = f.t0 + f.dt * np.arange(i0, i1 + 1)
    diff = np.abs(f.values(ts) - g.values(ts)).max(axis=1)
    return _bebutov(diff, _bebutov_geometry(ts, center, f.dt, l_max))


def _bebutov_geometry(ts: np.ndarray, center: float, dt: float, l_max: float):
    """The gap-independent part of the shift metric on one window: the
    stable sort of ``ts`` by distance from the center, the last sorted index
    with |t - center| <= l for each l in {dt, 2 dt, ..., l_max}, and 1/l."""
    offsets = np.abs(ts - center)
    order = np.argsort(offsets, kind="stable")
    ls = dt * np.arange(1, int(math.floor(l_max / dt + _GRID_RTOL)) + 1)
    last = np.searchsorted(offsets[order], ls + _GRID_RTOL * max(1.0, l_max),
                           side="right")
    return order, np.clip(last, 1, ts.size) - 1, 1.0 / ls


def _bebutov(diff: np.ndarray, geom) -> float:
    """sup_l min(running max of the pointwise gaps ``diff`` within l, 1/l)."""
    order, last, inv_l = geom
    return float(np.max(np.minimum(np.maximum.accumulate(diff[order])[last], inv_l)))


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def _mean(vals: np.ndarray) -> np.ndarray:
    """``vals.mean(axis=0)``; where its sum overflows, the midrange m plus the sum
    of (vals - m) / n, which cannot: a constant column of 1e308 has mean 1e308."""
    with np.errstate(over="ignore"):
        m = vals.mean(axis=0)
    if np.isfinite(m).all():
        return m
    mid = vals.max(axis=0) / 2 + vals.min(axis=0) / 2
    return mid + ((vals - mid) / len(vals)).sum(axis=0)


def write_csv(path, header: str, *columns) -> None:
    """Write ``header``, then the columns side by side (each n values or n
    rows), every field as ``%.17g``, in one format call per ``_CHUNK`` rows."""
    table = np.column_stack(columns)
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for b in np.split(table, range(_CHUNK, len(table), _CHUNK)):
            fh.write((row * len(b)) % tuple(b.ravel().tolist()))


def write_signal_csv(sig: Signal, path) -> None:
    """Write the documented CSV form: header ``t,x1,...,xn``."""
    write_csv(path, "t," + ",".join(f"x{j + 1}" for j in range(sig.dim)),
              sig.times(), sig.samples)


def read_signal_csv(path) -> Signal:
    """Read the documented CSV form as a Signal; rejects fewer than two rows,
    non-finite fields, non-uniform grids, and a time span, sum of squared
    deviations, natural-spline coefficient or cubed step beyond the largest
    float."""
    try:
        with open(path, "r", encoding="utf-8") as fh, warnings.catch_warnings():
            # numpy warns on no data rows, which the row count below reports.
            warnings.simplefilter("ignore")
            lines = (ln for ln in fh if ln.strip())
            header = [c.strip() for c in next(lines, "").split(",")]
            if header == [""]:
                raise ParseError(f"{path}: empty file")
            if len(header) < 2 or header[0] != "t":
                raise ParseError(f"{path}: header must be 't,x1,...,xn'")
            for j, name in enumerate(header[1:]):
                if name != f"x{j + 1}":
                    raise ParseError(f"{path}: column {j + 2} must be named 'x{j + 1}'")
            data = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
            if data.shape[0] < 2:
                raise ParseError(f"{path}: need at least two data rows")
            if data.shape[1] != len(header):
                raise ParseError(f"{path}: expected {len(header)} fields")
            bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
            if bad.size:  # named by its line in the file, where blank lines count too
                fh.seek(0)
                line = [i for i, ln in enumerate(fh, 1) if ln.strip()][bad[0] + 1]
                raise ParseError(f"{path}:{line}: non-finite field")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    ts, vals = data[:, 0], data[:, 1:]
    # Each overflow below is reported as the ParseError after it.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        steps = np.diff(ts)
        dt = float((ts[-1] - ts[0]) / (len(ts) - 1))
        if np.any(steps <= 0) or not dt < math.inf:
            raise ParseError(f"{path}: times must be strictly increasing over a finite span")
        if np.any(np.abs(steps - dt) > 1e-9 * dt):
            raise ParseError(f"{path}: non-uniform time grid")
        if not np.isfinite(np.square(vals - _mean(vals)).sum()):
            raise ParseError(f"{path}: values too large: their squared deviations overflow")
        sig = Signal(float(ts[0]), dt, vals)
        x, c = sig._spline
        # ``_cubic`` forms s^3 in time units, s up to the widest interval.
        finite = np.isfinite(c).all() and np.isfinite(np.diff(x).max() ** 3)
    if not finite:
        raise ParseError(f"{path}: the interpolating spline overflows")
    return sig
