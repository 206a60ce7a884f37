import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st
from scipy.interpolate import CubicSpline, PPoly

from poisson_lab import signals
from poisson_lab.cli import main
from poisson_lab.errors import (
    DimensionMismatch,
    ParseError,
    ShiftOutOfDomain,
    WindowOutOfDomain,
)
from poisson_lab.signals import (
    Signal,
    Window,
    _bebutov,
    _bebutov_geometry,
    _natural_slopes,
    _shifted,
    bebutov_distance,
    bebutov_profile,
    discrepancy_profile,
    read_signal_csv,
    sample_function,
    shift,
    shift_discrepancy,
    sup_distance,
    write_csv,
    write_signal_csv,
)
from poisson_lab.scenarios import build_scenario
from poisson_lab.systems import forcing_signal
from references import spiked_noise, sup_distance_unique


@pytest.fixture(scope="module")
def sine():
    return sample_function(np.sin, 0.0, 50.0, 0.01)


def const_signal(value, t0=-10.0, t_end=10.0, dt=0.01, dim=1):
    n = int(round((t_end - t0) / dt)) + 1
    return Signal(t0, dt, np.full((n, dim), float(value)))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_invariants_on_construction():
    with pytest.raises(ValueError):
        Signal(0.0, -0.1, np.zeros((4, 1)))
    with pytest.raises(ValueError):
        Signal(0.0, 0.1, np.zeros((0, 1)))
    with pytest.raises(ValueError):
        Signal(0.0, 0.1, np.array([[np.inf]]))
    f = Signal(1.0, 0.5, np.zeros((5, 2)))
    assert (f.t0, f.t_end) == (1.0, 3.0)
    assert f.dim == 2


def test_one_sample_signal_is_legal_but_windowed_ops_reject():
    f = Signal(0.0, 1.0, np.array([[2.0]]))
    assert f.values([0.0])[0, 0] == 2.0
    with pytest.raises(WindowOutOfDomain):
        sup_distance(f, f, Window(0.0, 0.5))


def test_values_reject_non_finite_times(sine):
    for t in (math.nan, math.inf, -math.inf):
        with pytest.raises(WindowOutOfDomain):
            sine.values([1.0, t])
        with pytest.raises(WindowOutOfDomain):
            sine.window_values(10, 50, [2.0, t])


def scipy_spline(f):
    """The natural spline through f's samples, made by scipy."""
    bc = "natural" if len(f) >= 3 else "not-a-knot"
    return CubicSpline(f.times(), f.samples, axis=0, bc_type=bc)


def bitwise_equal(a, b):
    """Element-wise equal, and with the same sign of zero."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


_EPS = np.finfo(float).eps
_T0S = st.one_of(st.floats(min_value=-1e4, max_value=-1e-3),
                 st.floats(min_value=1e-3, max_value=1e4), st.just(0.0))
_DTS = st.sampled_from([0.1, 0.01, 0.05, 1.0 / 3.0, 0.7, 2.5])


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.sampled_from([2, 3, 4, 5, 3000]),
       st.sampled_from([1, 3]), _T0S, _DTS)
@example(0, 2, 1, -3.0, 0.1)
@example(1, 3, 3, 5.0, 0.1)
@example(2, 4, 1, -7.3, 0.01)
@example(3, 3000, 1, 1234.5, 0.05)
def test_interpolant_is_scipy_bit_for_bit(seed, n, dim, t0, dt):
    """Both evaluation paths equal scipy's ``PPoly(c, x)`` of the spline's own
    coefficients element-wise, at breakpoints, midpoints, the endpoints and
    one ulp either side of a breakpoint, and in rows shifted by grid,
    one-ulp-off and off-grid taus."""
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((n, dim))
    vals[rng.random((n, dim)) < 0.2] = -0.0
    f = Signal(t0, dt, vals)
    x, c = f._spline
    spl = PPoly(c.copy(), x)
    k = np.unique(np.concatenate([[0, 1, n - 2, n - 1], rng.integers(0, n, 40)]))
    ts = np.concatenate([x[k], np.nextafter(x[k], np.inf), np.nextafter(x[k], -np.inf),
                         (x[k[:-1]] + x[k[:-1] + 1]) / 2, rng.uniform(x[0], x[-1], 40)])
    ts = rng.permutation(np.clip(ts, x[0], x[-1]))
    assert bitwise_equal(f.values(ts), spl(ts))

    for _ in range(4):
        m = int(rng.integers(1, min(n, 200) + 1))
        i0 = int(rng.integers(0, n - m + 1))
        # Shifts that keep the row inside: grid multiples, one ulp either
        # side of them, off-grid, and the ones reaching the last interval.
        lo, hi = -i0, n - m - i0
        grid = dt * rng.integers(lo, hi + 1, 4)
        last = x[-1] - x[i0 + m - 1]
        taus = np.concatenate([grid, np.nextafter(grid, np.inf), np.nextafter(grid, -np.inf),
                               dt * (lo + (hi - lo) * rng.random(4)),
                               [last, last - 0.5 * dt, np.nextafter(last, -np.inf)]])
        rows = x[i0 : i0 + m] + taus[:, None]
        inside = (rows[:, 0] >= x[0]) & (rows[:, -1] <= x[-1])
        taus, rows = taus[inside], rows[inside]
        want = spl(rows.ravel()).reshape(taus.size, m, dim)
        assert bitwise_equal(f.window_values(i0, m, taus), want)


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=3, max_value=300), st.sampled_from([1, 3]),
       st.floats(min_value=1e-6, max_value=1e6))
@example(0, 3, 1, 1.0)
@example(1, 64, 3, 1.0)
@example(2, 65, 1, 1e-6)
@example(3, 300, 3, 1e6)
def test_natural_slopes_solve_the_banded_system(seed, n, dim, scale):
    """The slopes satisfy 2 d_0 + d_1 = 3 dy_0, d_{i-1} + 4 d_i + d_{i+1} =
    3 (dy_{i-1} + dy_i) and d_{n-2} + 2 d_{n-1} = 3 dy_{n-2} to within
    8 n eps max|rhs|, also where the sweeps' 64-term window is longer than
    the grid."""
    rng = np.random.default_rng(seed)
    y = scale * rng.standard_normal((n, dim))
    dy = np.diff(y, axis=0)
    d = _natural_slopes(dy, np.empty_like(dy))
    rhs = 3.0 * np.concatenate([dy[:1], dy[:-1] + dy[1:], dy[-1:]])
    lhs = np.concatenate([2.0 * d[:1] + d[1:2], d[:-2] + 4.0 * d[1:-1] + d[2:],
                          d[-2:-1] + 2.0 * d[-1:]])
    assert np.abs(lhs - rhs).max() <= 8 * n * _EPS * np.abs(rhs).max()


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.sampled_from([2, 3, 4, 5, 50, 3000]), st.sampled_from([1, 3]), _T0S, _DTS)
@example(0, 2, 1, 0.0, 0.1)
@example(1, 50, 3, -1e4, 0.01)
@example(2, 3000, 1, 0.0, 0.01)
def test_spline_is_scipy_natural_spline(seed, n, dim, t0, dt):
    """Values within 8 N eps max|y| of scipy's ``CubicSpline``, N = max(n,
    max|x| / dt).  scipy solves for the rounded breakpoints x = t0 + dt k,
    whose spacing is off dt by up to eps max|x|, that is by eps max|x| / dt
    steps; the uniform-grid spline differs from it by that much, and at
    t0 = 0 the bound is 8 n eps max|y|."""
    rng = np.random.default_rng(seed)
    f = Signal(t0, dt, rng.standard_normal((n, dim)))
    x = f.times()
    ts = np.concatenate([x, rng.uniform(x[0], x[-1], 400)])
    bound = 8 * max(n, np.abs(x).max() / dt) * _EPS * np.abs(f.samples).max()
    assert np.abs(f.values(ts) - scipy_spline(f)(ts)).max() <= bound


_M = signals._SWEEP_TERMS
# The fewest samples a Signal needs before a read solves local windows.
_LOCAL_N = 3 * _M + 2


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.one_of(st.integers(min_value=2, max_value=_LOCAL_N + 10),
                 st.integers(min_value=_LOCAL_N, max_value=3000)),
       st.integers(min_value=1, max_value=3), st.booleans())
@example(0, 2, 1, False)
@example(1, _LOCAL_N - 1, 2, True)
@example(2, _LOCAL_N, 1, True)
@example(3, 5 * _M + 3, 3, True)
@example(4, 3000, 1, True)
def test_local_reads_are_the_whole_spline_bit_for_bit(seed, n, dim, spiked):
    """A fresh spline Signal reads the same values as once its whole spline is
    built: at t0 and t_end, within 64 cells of either end, at repeated times,
    in the slack clipped to the domain and for no times, before and after its
    local solves reach len(f) rows.  Spiked, it holds lone samples of 1e200
    at multiples of 64, the edges of the blocks whose windows are solved, and
    reads the cell 64 after and the cell 65 before each: the ends of its reach
    in the whole spline, where it weighs about z^64 < 1e-36."""
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((n, dim))
    spikes = np.array([], dtype=int)
    if spiked:
        spikes = np.unique(np.minimum(_M * rng.integers(0, n // _M + 1, 3), n - 1))
        y[spikes] = 1e200 * rng.choice([-1.0, 1.0], (spikes.size, dim))
    f = Signal(float(rng.uniform(-10.0, 10.0)), float(rng.choice([0.01, 0.1, 0.7])), y)
    whole = Signal(f.t0, f.dt, f.samples)
    whole._spline
    slack = 0.5 * signals._GRID_RTOL * max(1.0, f.dt)
    assert f.values([]).shape == (0, dim)
    cells = [rng.integers(0, min(_M, n - 1), 3), rng.integers(max(0, n - 2 - _M), n - 1, 3),
             spikes + _M, spikes - _M - 1, rng.integers(0, n - 1, 3).repeat(2)]
    cells = [k[(k >= 0) & (k <= n - 2)] for k in cells]
    reads = [f.t0 + f.dt * (k + rng.random(k.size)) for k in cells if k.size]
    reads += [f.t0 + f.dt * cells[-1], [f.t0, f.t_end, f.t0 - slack, f.t_end + slack]]
    for ts in reads + reads:
        assert np.array_equal(f.values(ts), whole.values(ts))
    if n >= _LOCAL_N:
        assert 0 < f.__dict__.get("_local_rows", 0) <= n
    assert "_local_rows" not in whole.__dict__


# ---------------------------------------------------------------------------
# shift
# ---------------------------------------------------------------------------

def test_shift_zero_is_bitwise_identity(sine):
    g = shift(sine, 0.0)
    assert np.array_equal(g.samples, sine.samples)


def test_shift_linear_ramp_exact():
    f = sample_function(lambda t: np.asarray(t, dtype=float), -10.0, 10.0, 0.01)
    g = shift(f, 3.0)
    assert g.t0 == pytest.approx(-10.0)
    assert g.t_end == pytest.approx(7.0, abs=1e-9)
    err = np.abs(g.samples[:, 0] - (g.times() + 3.0)).max()
    assert err < 1e-12


def test_shift_by_period(sine):
    g = shift(sine, 2 * math.pi)
    ts = g.times()
    err = np.abs(g.values(ts) - sine.values(ts)).max()
    assert err <= 1e-4


def test_shift_out_of_domain(sine):
    with pytest.raises(ShiftOutOfDomain):
        shift(sine, 51.0)


def test_shift_flow_composition_grid_aligned(sine):
    a, b = 1.25, 2.5  # both grid multiples of dt=0.01
    lhs = shift(shift(sine, a), b)
    rhs = shift(sine, a + b)
    ts = lhs.times()
    assert np.abs(lhs.values(ts) - rhs.values(ts)).max() < 1e-12


# ---------------------------------------------------------------------------
# shift_discrepancy
# ---------------------------------------------------------------------------

def test_discrepancy_zero_at_zero(sine):
    assert shift_discrepancy(sine, 0.0, Window(25.0, 10.0)) == 0.0


def test_discrepancy_half_period(sine):
    # |sin(t+pi) - sin t| = 2|sin t| peaks at 2 inside any window holding pi/2.
    d = shift_discrepancy(sine, math.pi, Window(10.0, 9.0))
    assert d == pytest.approx(2.0, abs=1e-3)


def test_discrepancy_full_period(sine):
    d = shift_discrepancy(sine, 2 * math.pi, Window(20.0, 10.0))
    assert d <= 1e-4


def test_discrepancy_bounded_by_twice_sup(sine):
    w = Window(20.0, 10.0)
    d = shift_discrepancy(sine, 7.3, w)
    assert d <= 2.0 + 1e-9


def test_discrepancy_window_out_of_domain(sine):
    with pytest.raises(WindowOutOfDomain):
        shift_discrepancy(sine, 30.0, Window(25.0, 24.0))


# ---------------------------------------------------------------------------
# bebutov distance
# ---------------------------------------------------------------------------

def test_bebutov_zero_on_equal():
    f = const_signal(1.3)
    assert bebutov_distance(f, f, 5.0, 0.0) == 0.0


def test_bebutov_constant_gap():
    # min(0.5, 1/l) = 0.5 until l = 2; the sup is 0.5.
    f = const_signal(0.0)
    g = const_signal(0.5)
    assert bebutov_distance(f, g, 10.0, 0.0) == pytest.approx(0.5, abs=1e-12)


def test_bebutov_ramp_vs_zero():
    # max over |t|<=l is l; min(l, 1/l) is maximized at l = 1.
    f = sample_function(lambda t: np.asarray(t, dtype=float), -10.0, 10.0, 0.01)
    g = const_signal(0.0)
    assert bebutov_distance(f, g, 10.0, 0.0) == pytest.approx(1.0, abs=0.02)


def test_bebutov_monotone_in_lmax():
    f = sample_function(np.sin, -10.0, 10.0, 0.01)
    g = const_signal(0.0)
    vals = [bebutov_distance(f, g, lm, 0.0) for lm in (1.0, 2.0, 5.0, 9.0)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_bebutov_dimension_mismatch():
    f = const_signal(0.0, dim=1)
    g = const_signal(0.0, dim=2)
    with pytest.raises(DimensionMismatch):
        bebutov_distance(f, g, 5.0, 0.0)


# ---------------------------------------------------------------------------
# sup distance
# ---------------------------------------------------------------------------

def test_sup_distance_examples():
    f = const_signal(1.0)
    g = const_signal(-1.0)
    assert sup_distance(f, g, Window(0.0, 5.0)) == pytest.approx(2.0)
    assert sup_distance(f, f, Window(0.0, 5.0)) == 0.0


def test_sup_distance_exponential_left_endpoint():
    f = sample_function(lambda t: np.exp(-np.asarray(t, dtype=float)), 0.0, 6.0, 0.01)
    g = const_signal(0.0, t0=0.0, t_end=6.0)
    d = sup_distance(f, g, Window(3.0, 2.0))  # [1, 5], max at t = 1
    assert d == pytest.approx(math.exp(-1.0), abs=1e-6)


@given(st.integers(0, 2**16), st.integers(0, 60), st.integers(2, 20),
       st.sampled_from([0.0, 0.5, 1e-13, -1e-13, 0.37]), st.sampled_from([0.0, 0.25, 1e-13]),
       st.sampled_from([(0.0, 0.1), (-0.35, 0.05), (0.0, 0.03)]))
@example(0, 0, 40, 0.0, 0.0, (0.0, 0.1))
@example(0, 60, 20, 0.0, 1e-13, (-0.35, 0.05))
def test_sup_distance_is_the_unique_times_max_bit_for_bit(seed, lo, width, lo_off, hi_off, grid):
    # Window ends on f's grid, off it, and a rounding step past it (at f's ends too).
    rng = np.random.default_rng(seed)
    f = Signal(0.0, 0.1, rng.normal(size=(81, 2)))
    g = Signal(grid[0], grid[1], rng.normal(size=(int(8.5 / grid[1]) + 1, 2)))
    a = max(0.1 * (lo + lo_off), 0.0)
    b = min(0.1 * (lo + width + hi_off), 8.0)
    assume(a < b)
    w = Window(0.5 * (a + b), 0.5 * (b - a))
    assert sup_distance(f, g, w) == sup_distance_unique(f, g, w)
    assert sup_distance(g, f, w) == sup_distance_unique(g, f, w)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

signal_values = st.lists(
    st.floats(min_value=-5.0, max_value=5.0, allow_nan=False), min_size=24,
    max_size=64)


@given(signal_values, signal_values, signal_values)
def test_triangle_inequalities(a, b, c):
    n = min(len(a), len(b), len(c))
    mk = lambda vals: Signal(0.0, 0.1, np.asarray(vals[:n]))
    f, g, h = mk(a), mk(b), mk(c)
    w = Window(0.1 * (n - 1) / 2, 0.1 * (n - 1) / 2)
    assert sup_distance(f, h, w) <= (
        sup_distance(f, g, w) + sup_distance(g, h, w) + 1e-9)
    lm = 0.1 * (n - 1) / 2
    center = lm
    assert bebutov_distance(f, h, lm, center) <= (
        bebutov_distance(f, g, lm, center)
        + bebutov_distance(g, h, lm, center) + 1e-9)


@given(signal_values, st.integers(min_value=1, max_value=5),
       st.integers(min_value=1, max_value=5))
def test_shift_flow_on_samples(vals, k1, k2):
    f = Signal(0.0, 0.1, np.asarray(vals))
    a, b = 0.1 * k1, 0.1 * k2
    if a + b >= f.length:
        return
    lhs = shift(shift(f, a), b)
    rhs = shift(f, a + b)
    assert np.array_equal(lhs.samples, rhs.samples)


@given(signal_values, st.integers(min_value=1, max_value=8))
def test_discrepancy_bound_property(vals, k):
    f = Signal(0.0, 0.1, np.asarray(vals))
    tau = 0.1 * k
    hw = (f.length - tau) / 2
    if hw <= 0.1:
        return
    w = Window(hw, hw)
    d = shift_discrepancy(f, tau, w)
    assert d <= 2 * np.abs(f.samples).max() + 1e-12


def bebutov_direct(f, g, w):
    """sup over l in {dt, 2 dt, ..., half-width} of min(max_{|t-c|<=l} |g-f|, 1/l)."""
    i0, i1 = f.window_slice(w)
    ts = f.t0 + f.dt * np.arange(i0, i1 + 1)
    gap = np.abs(g.values(ts) - f.values(ts)).max(axis=1)
    best = 0.0
    for k in range(1, int(math.floor(w.half_width / f.dt + 1e-9)) + 1):
        inside = np.abs(ts - w.center) <= k * f.dt + 1e-9 * max(1.0, w.half_width)
        best = max(best, min(gap[inside].max(), 1.0 / (k * f.dt)))
    return best


# Shifts k dt, grid-aligned (frac 0) or between grid points.
shift_steps = st.tuples(st.integers(min_value=-8, max_value=8),
                        st.one_of(st.just(0.0),
                                  st.floats(min_value=0.01, max_value=0.99)))


@given(signal_values, st.lists(shift_steps, min_size=1, max_size=4))
def test_profiles_match_references(vals, steps):
    f = Signal(0.0, 0.1, np.asarray(vals))
    hw = (f.length - 1.8) / 2
    if hw < 0.1:
        return
    w = Window(f.length / 2, hw)
    taus = np.array([0.1 * (k + frac) for k, frac in steps])
    assert np.array_equal(discrepancy_profile(f, taus, w),
                          [shift_discrepancy(f, tau, w) for tau in taus])
    direct = [bebutov_direct(f, shift(f, tau), w) for tau in taus]
    assert np.allclose(bebutov_profile(f, taus, w), direct, rtol=0.0, atol=1e-12)


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.sampled_from([1, 3]),
       st.sampled_from([300, 511, 512, 513, 900]))
@example(1, 1, 512)
@example(2, 3, 900)
@example(3, 1, 900)
def test_capped_profile_is_exact_below_the_cap(seed, dim, m):
    f, w, taus = spiked_noise(seed, dim, m)
    i0, i1 = f.window_slice(w)
    assert i1 - i0 + 1 == m
    exact = discrepancy_profile(f, taus, w)
    assert np.array_equal(exact, [shift_discrepancy(f, tau, w) for tau in taus])
    assert np.array_equal(discrepancy_profile(f, taus, w, cap=math.inf), exact)
    # The taus whose max over the rows of the window's largest and least sample
    # reaches the cap keep it; of the others, those whose probe bound, the max
    # over those rows and the first 512 window points, reaches the cap keep
    # that bound; the rest read the whole window.
    h, win = min(512, m), f.samples[i0 : i1 + 1]
    rows = [int(win.argmax()) // dim, int(win.argmin()) // dim]
    gaps = [np.abs(_shifted(f, i0, m, tau) - win) for tau in taus]
    at_rows = np.array([g[rows].max() for g in gaps])
    probe = np.array([max(g[:h].max(), g[rows].max()) for g in gaps])
    # Caps: 0 (every value capped), a probe bound that the rest of the window
    # exceeds where there is one, the median D, and above every D.
    tie = probe[np.argmax(exact - probe)]
    for cap in (0.0, tie, float(np.median(exact)), 10.0):
        got = discrepancy_profile(f, taus, w, cap=cap)
        below = exact < cap
        assert np.array_equal(got[below], exact[below])
        assert np.all((cap <= got[~below]) & (got[~below] <= exact[~below]))
        assert np.array_equal(got, np.where(at_rows >= cap, at_rows,
                                            np.where(probe < cap, exact, probe)))


def test_capped_profile_reads_a_spike_outside_the_head():
    # The spike sits at window point 700, which no shift brings into the head, so
    # the head max stays below the cap; the spike's own row bounds the grid shifts.
    f, w, taus = spiked_noise(1, 1, 900, spike=700)
    i0, i1 = f.window_slice(w)
    win = f.samples[i0 : i1 + 1]
    assert win.argmax() == 700
    gaps = np.array([np.abs(_shifted(f, i0, 900, tau) - win)[:, 0] for tau in taus])
    head, rows = gaps[:, :512].max(axis=1), gaps[:, [700, win.argmin()]].max(axis=1)
    cap, on_grid = 0.5, (taus != 0) & np.isclose(taus / f.dt, np.round(taus / f.dt))
    assert head.max() < cap and (rows[on_grid] >= cap).all()
    probe, exact = np.maximum(head, rows), discrepancy_profile(f, taus, w)
    got = discrepancy_profile(f, taus, w, cap=cap)
    assert np.array_equal(got, np.where(probe < cap, exact, probe))
    assert (got < exact).any()  # a bound, not the whole window, where the spike's row is not the max


def almost_periodic_signal(seed, period, levels, cross):
    """A random sequence of ``period`` samples, tiled, plus a(t - c)^2.

    Returns the signal, a window of ``levels`` metric levels centered at c,
    and tau = period * dt.  The shift by tau has gaps a tau |2 (t - c) + tau|,
    so its running max M(l) = a tau (2 l + tau) first reaches 1/l at level
    ``cross`` (beyond the window: no crossing); ``cross=None`` sets a = 0,
    which makes tau an exact period with zero gaps.
    """
    dt = 0.1
    margin = 3 * period + 2
    n = 2 * (levels + margin) + 1
    t = dt * np.arange(n)
    c = dt * (levels + margin)
    tau = dt * period
    a = 0.0
    if cross is not None:
        ell = dt * cross
        a = (1.0 + 1e-6) / (ell * tau * (2.0 * ell + tau))
    tile = np.random.default_rng(seed).uniform(-1.0, 1.0, period)
    vals = np.resize(tile, n) + a * (t - c) ** 2
    return Signal(0.0, dt, vals), Window(c, dt * levels), tau


def bebutov_per_tau(f, taus, w):
    """Reference: for each tau, the gaps over the whole window, then
    ``_bebutov``."""
    i0, i1 = f.window_slice(w)
    ts = f.t0 + f.dt * np.arange(i0, i1 + 1)
    geom = _bebutov_geometry(ts, w.center, f.dt, w.half_width)
    base = f.samples[i0 : i1 + 1]
    return [_bebutov(np.abs(_shifted(f, i0, ts.size, tau) - base).max(axis=1), geom)
            for tau in taus]


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=3, max_value=30),
       st.integers(min_value=300, max_value=420),
       st.one_of(st.none(), st.integers(min_value=1, max_value=500)),
       st.lists(shift_steps, max_size=4))
# Crossing on the last level of the first and second prefix, just after
# each, beyond the window, and an exact period.
@example(11, 7, 300, 64, [])
@example(12, 9, 301, 65, [(-3, 0.4)])
@example(13, 5, 333, 256, [])
@example(14, 17, 400, 257, [(8, 0.0)])
@example(15, 4, 320, 499, [])
@example(16, 6, 310, None, [(2, 0.5)])
def test_bebutov_profile_is_the_per_tau_reference(seed, period, levels, cross, steps):
    f, w, tau = almost_periodic_signal(seed, period, levels, cross)
    # Near-period shifts on both sides, tau = 0, off-grid shifts near the
    # period and plain grid or off-grid shifts, in a shuffled order.
    taus = [tau, -tau, 0.0, tau + 0.37 * f.dt, -tau - 0.81 * f.dt]
    taus += [f.dt * (k + frac) for k, frac in steps]
    taus = np.random.default_rng(seed).permutation(taus)
    assert np.array_equal(bebutov_profile(f, taus, w), bebutov_per_tau(f, taus, w))


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=3, max_value=30),
       st.integers(min_value=300, max_value=420),
       st.one_of(st.none(), st.integers(min_value=1, max_value=500)),
       st.sampled_from([1, 2]),
       st.lists(shift_steps, max_size=4))
# Crossing on the last level of the first and second prefix, just after
# each, and none at all, in one and two dimensions.
@example(21, 7, 300, 64, 1, [])
@example(22, 9, 301, 65, 2, [(-3, 0.4)])
@example(23, 5, 333, 256, 2, [(0, 0.0)])
@example(24, 17, 400, 257, 1, [(8, 0.0), (-8, 0.0)])
@example(25, 6, 310, None, 2, [(2, 0.5)])
@example(26, 4, 320, None, 1, [])
def test_bebutov_point_major_is_the_per_tau_reference(seed, period, levels, cross, dim,
                                                      steps):
    """The point-major read with its bar at one live shift per component: in
    one dimension every grid shift is read to its crossing or the last level."""
    f, w, tau = almost_periodic_signal(seed, period, levels, cross)
    if dim == 2:
        # A second component with the same period and its own drift: the
        # gap is the max over both.
        g = almost_periodic_signal(seed + 1, period, levels, 2 * levels)[0]
        f = Signal(f.t0, f.dt, np.column_stack([f.samples[:, 0], g.samples[:, 0]]))
    # tau = 0, near-period shifts on both sides and twice, a duplicate, and
    # off-grid shifts mixed in, in a shuffled order.
    taus = [tau, -tau, 0.0, tau, 2 * tau, -2 * tau, tau + 0.37 * f.dt]
    taus += [f.dt * (k + frac) for k, frac in steps]
    taus = np.random.default_rng(seed).permutation(taus)
    with patch.object(signals, "_POINT_MAJOR_MIN", 1):
        assert np.array_equal(bebutov_profile(f, taus, w), bebutov_per_tau(f, taus, w))


def test_bebutov_point_major_hands_over_past_600_grid_shifts():
    # 721 grid shifts: all but the 7 multiples of the period cross within the
    # first prefix, so the survivors and the off-grid shifts finish shift-major.
    f, w, tau = almost_periodic_signal(5, 120, 300, 257)
    taus = np.concatenate([f.dt * np.arange(-360, 361), [tau + 0.5 * f.dt, -0.3 * f.dt]])
    assert np.array_equal(bebutov_profile(f, taus, w), bebutov_per_tau(f, taus, w))


@pytest.mark.parametrize("bump, handover", [(0.0625, 256), (0.0624, 300)])
def test_bebutov_point_major_finishes_a_shift_at_its_crossing(bump, handover):
    """A grid shift whose running max reaches 1/l exactly on a prefix's last
    level is finished in that prefix; the survivors and the off-grid shifts
    are then read from the next prefix on, or from the whole window."""
    dt, levels, k = 0.25, 300, 3
    vals = np.zeros(2 * levels + 41)
    c = levels + 20
    vals[c + 64 + k] = bump  # the gap of the shift by k steps at distance 64 dt
    f, w = Signal(0.0, dt, vals), Window(c * dt, levels * dt)
    taus = np.array([0.0, k * dt, 0.4 * dt, -1.5 * dt])
    reads, values = [], Signal.values
    with patch.object(signals, "_POINT_MAJOR_MIN", 2), \
            patch.object(Signal, "values", lambda s, t: reads.append(np.size(t)) or values(s, t)):
        got = bebutov_profile(f, taus, w)
    assert got[1] == bump and np.array_equal(got, bebutov_per_tau(f, taus, w))
    assert reads[0] == 2 * (2 * handover + 1)


@pytest.mark.parametrize("profile", [discrepancy_profile, bebutov_profile])
@pytest.mark.parametrize("bad_tau", [-12.0, 12.0])
def test_profiles_reject_a_window_shifted_out_like_the_per_tau_loop(profile, bad_tau):
    f = sample_function(np.sin, 0.0, 50.0, 0.1)
    w = Window(25.0, 14.0)
    taus = np.array([3.0, bad_tau, -5.0, 1.5 * bad_tau, 7.0])
    with pytest.raises(WindowOutOfDomain) as per_tau:
        for t in taus:
            w.shifted(t).require_inside(f, "shifted window")
    with pytest.raises(WindowOutOfDomain, match="^shifted window") as batched:
        profile(f, taus, w)
    assert str(batched.value) == str(per_tau.value)


def test_bebutov_profile_rejects_a_window_below_one_level():
    # Two grid points, but a half-width under dt leaves no metric level.
    f = sample_function(np.sin, 0.0, 40.0, 0.1)
    with pytest.raises(WindowOutOfDomain, match="smaller than one grid step"):
        bebutov_profile(f, np.array([0.0, 1.0]), Window(10.05, 0.06))


def test_window_monotonicity_of_discrepancy(sine):
    tau = 1.234
    small = shift_discrepancy(sine, tau, Window(20.0, 5.0))
    large = shift_discrepancy(sine, tau, Window(20.0, 15.0))
    assert large >= small - 1e-12


def test_bebutov_nonincreasing_under_pointwise_shrink():
    f = sample_function(np.sin, -10.0, 10.0, 0.01)
    zero = const_signal(0.0)
    half = Signal(f.t0, f.dt, 0.5 * f.samples)
    assert bebutov_distance(half, zero, 8.0, 0.0) <= \
        bebutov_distance(f, zero, 8.0, 0.0) + 1e-12


# ---------------------------------------------------------------------------
# exact evaluation
# ---------------------------------------------------------------------------

def _sin_cos(ts):
    return np.column_stack([np.sin(ts), np.cos(ts)])


@pytest.fixture
def exact_sine():
    # sin t and cos t as a trig sum, the one closed form a Signal carries.
    return forcing_signal("trig-sum", 0.0, 50.0, 0.01,
                          components=[[[1.0, 1.0, 0.0]], [[1.0, 1.0, math.pi / 2]]])


def test_exact_signal_keeps_the_domain_checks(exact_sine):
    spline = Signal(exact_sine.t0, exact_sine.dt, exact_sine.samples)
    for f in (exact_sine, spline):
        for t in (math.nan, math.inf, -math.inf, -0.1, 50.1):
            with pytest.raises(WindowOutOfDomain):
                f.values([1.0, t])
        for tau in (math.nan, math.inf, -1.0, 49.9, -0.1 - 1e-8, 49.41 + 1e-8):
            with pytest.raises(WindowOutOfDomain):
                f.window_values(10, 50, [2.0, tau])
            for idx in (np.arange(10, 60), np.array([10, 30, 59])):
                for taus in ([2.0, tau], [tau, 2.0, 3.0], [tau]):
                    with pytest.raises(WindowOutOfDomain):
                        f.shift_reader(idx)(np.array(taus))
        # Shifts within the grid slack of the ends are read.
        edge = f.shift_reader(np.arange(10, 60))(np.array([-0.1 - 1e-12, 49.41 + 1e-12]))
        assert np.abs(edge[[0, 1], [0, -1]] - _sin_cos(np.array([0.0, 50.0]))).max() < 1e-9
        assert f.shift_reader(np.array([10, 30, 59]))(np.array([])).shape == (0, 3, 2)
    # Times within the grid slack are clipped to the domain.
    assert bitwise_equal(exact_sine.values([-1e-12, 50.0 + 1e-12]),
                         exact_sine.exact(np.array([0.0, 50.0])))
    assert "_spline" not in exact_sine.__dict__


def test_exact_signal_returns_its_function_and_builds_no_spline(exact_sine):
    rng = np.random.default_rng(5)
    ts = rng.uniform(0.0, 50.0, (3, 7))
    assert bitwise_equal(exact_sine.values(ts), exact_sine.exact(ts.ravel()).reshape(3, 7, 2))
    taus = np.concatenate([rng.uniform(-0.1, 40.0, 5), [0.0, 0.5]])
    rows = 0.01 * np.arange(10, 60) + taus[:, None]
    assert bitwise_equal(exact_sine.window_values(10, 50, taus),
                         exact_sine.exact(rows.ravel()).reshape(taus.size, 50, 2))
    assert "_spline" not in exact_sine.__dict__


def test_derived_signals_carry_no_evaluator(exact_sine, tmp_path):
    assert exact_sine.restrict(1.0, 2.0).exact is None
    assert shift(exact_sine, 0.005).exact is None
    assert sample_function(_sin_cos, 0.0, 1.0, 0.1).exact is None
    write_signal_csv(exact_sine, tmp_path / "f.csv")
    assert read_signal_csv(tmp_path / "f.csv").exact is None


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

def test_csv_round_trip(tmp_path, sine):
    path = tmp_path / "sine.csv"
    write_signal_csv(sine, path)
    back = read_signal_csv(path)
    assert back.dim == sine.dim
    assert np.array_equal(back.samples, sine.samples)
    assert back.t0 == sine.t0
    assert back.dt == pytest.approx(sine.dt, rel=1e-12)


def test_csv_writes_each_float_as_17_significant_digits(tmp_path):
    sig = Signal(0.0, 0.1, [[-0.0, 5e-324], [1e308, 0.1], [1 / 3, 2.0]])
    write_signal_csv(sig, tmp_path / "sig.csv")
    assert (tmp_path / "sig.csv").read_text() == (
        "t,x1,x2\n"
        "0,-0,4.9406564584124654e-324\n"
        "0.10000000000000001,1e+308,0.10000000000000001\n"
        "0.20000000000000001,0.33333333333333331,2\n")
    # A list of rows, and columns side by side, as the scenario files pass them.
    write_csv(tmp_path / "rows.csv", "T,sup_dist", ((1 / 3, -0.0), (2.0, 5e-324)))
    write_csv(tmp_path / "cols.csv", "x,u", np.array([0.1, 1e308]), [2.0, 1 / 3])
    assert (tmp_path / "rows.csv").read_text() == (
        "T,sup_dist\n0.33333333333333331,-0\n2,4.9406564584124654e-324\n")
    assert (tmp_path / "cols.csv").read_text() == (
        "x,u\n0.10000000000000001,2\n1e+308,0.33333333333333331\n")
    # Across a block seam the text is still one line per sample.
    long = sample_function(lambda t: np.column_stack([np.sin(t), np.cos(t)]),
                           0.0, 0.001 * 70_000, 0.001)
    write_signal_csv(long, tmp_path / "long.csv")
    ts = long.times()
    assert (tmp_path / "long.csv").read_text() == "t,x1,x2\n" + "".join(
        f"{ts[i]:.17g}," + ",".join(f"{v:.17g}" for v in long.samples[i]) + "\n"
        for i in range(len(long)))


_ENDS = st.none() | st.integers(-30, 30)
# Row keys of a 21-row Signal: ints and int arrays in range, slices of every step sign
# with ends in and out of range.
_ROW_KEYS = (st.integers(-21, 20)
             | st.builds(slice, _ENDS, _ENDS, st.none() | st.integers(-4, 4).filter(bool))
             | st.lists(st.integers(-21, 20), max_size=6).map(lambda k: np.array(k, dtype=int)))


@given(key=_ROW_KEYS)
@example(key=slice(None, None, 2))
@example(key=3)
@example(key=slice(25, 3))
def test_row_reads_are_the_samples_bit_for_bit(key):
    """f[key] is f.samples[key], bit for bit, for a Signal and a LazySignal; a
    unit-step slice of a fresh LazySignal leaves its samples unformed."""
    comps = build_scenario("s1-opial-scalar").system.params["forcing"]
    lazy = forcing_signal("trig-sum", -0.5, 0.5, 0.05, components=comps)
    full = sample_function(lazy.exact, -0.5, 0.5, 0.05).samples
    assert len(lazy) == len(full) == 21
    want = full[key]
    for f in (Signal(-0.5, 0.05, full), lazy):
        got = f[key]
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    unit = isinstance(key, slice) and key.step in (None, 1)
    assert ("samples" in vars(lazy)) is not unit


@pytest.mark.parametrize("chunk", [1, 3, 1000])
def test_csv_bytes_are_those_of_numpy_savetxt(tmp_path, chunk):
    # Signed zeros, the least subnormal, the top of the range, negative values
    # and every decade between, over three blocks of rows.
    rng = np.random.default_rng(27)
    n = 2 * chunk + 1
    vals = rng.normal(size=(n, 2)) * 10.0 ** rng.integers(-300, 301, size=(n, 2))
    vals[:3] = [[-0.0, 5e-324], [1e308, -1e308], [0.0, -1 / 3]]
    ts = -3.0 + 0.1 * np.arange(n)
    with patch.object(signals, "_CHUNK", chunk):
        write_csv(tmp_path / "got.csv", "t,x1,x2", ts, vals)
    np.savetxt(tmp_path / "want.csv", np.column_stack([ts, vals]), fmt="%.17g",
               delimiter=",", header="t,x1,x2", comments="")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


# Finite floats whose squared deviations cannot overflow (the reader rejects
# those), and the edges of the float range: zeros of both signs, subnormals,
# the smallest normal.
_CSV_FLOATS = st.floats(min_value=-1e150, max_value=1e150) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e-320, 2.2250738585072014e-308])


@given(rows=st.lists(st.lists(_CSV_FLOATS, min_size=2, max_size=2), min_size=2, max_size=8),
       t0=st.floats(-1e6, 1e6))
# Constant columns at the top of the range: their sum overflows, their deviations are 0.
@example(rows=[[1e308, -1e308], [1e308, -1e308]], t0=0.0)
@example(rows=[[-0.0, 5e-324], [0.0, -5e-324], [2.2250738585072014e-308, 1e-320]], t0=-0.0)
def test_csv_round_trip_is_bit_identical(tmp_path_factory, rows, t0):
    path = tmp_path_factory.mktemp("round") / "sig.csv"
    vals = np.array(rows)
    ts = t0 + 0.5 * np.arange(len(vals))
    write_csv(path, "t,x1,x2", ts, vals)
    back = read_signal_csv(path)
    assert bitwise_equal(np.array(back.t0), ts[:1].reshape(()))
    assert bitwise_equal(back.samples, vals)


@pytest.mark.parametrize("text", [
    "t,x1\n0,1\n\n   \n0.5,2\n\t\n1,0\n  ",             # blank and whitespace-only lines
    "\n\nt,x1\n0,1\n0.5,2\n1,0",                         # blank lines first, no final newline
    "t,x1\r\n0,1\r\n0.5,2\r\n\r\n1,0\r\n",               # CRLF
    " t , x1 \n 0 , 1\n0.5 ,2 \n  1,  0  \n",               # spaces around fields
])
def test_csv_reader_skips_blank_lines_and_spaces(tmp_path, text):
    path = tmp_path / "sig.csv"
    path.write_bytes(text.encode())
    f = read_signal_csv(path)
    assert (f.t0, f.dt) == (0.0, 0.5)
    assert f.samples.tolist() == [[1.0], [2.0], [0.0]]


def _stepped_csv(path, step):
    path.write_text("t,x1\n" + "".join(f"{k * step!r},{k % 3}\n" for k in range(40)))
    return path


def test_csv_reads_a_step_whose_cube_is_finite(tmp_path):
    f = read_signal_csv(_stepped_csv(tmp_path / "wide.csv", 1e102))
    x = f.times()
    assert np.isfinite(f.values(np.concatenate([x, np.nextafter(x[1:], -np.inf)]))).all()


def test_csv_rejects_a_step_whose_cube_overflows(tmp_path):
    # The coefficients are finite, but s^3 overflows near the end of an interval.
    with pytest.raises(ParseError, match="spline overflows"):
        read_signal_csv(_stepped_csv(tmp_path / "wider.csv", 1e103))


def test_csv_reads_a_constant_column_at_the_top_of_the_range(tmp_path, capsys):
    path = tmp_path / "top.csv"
    path.write_text("t,x1\n0,1e308\n1,1e308\n2,1e308\n")
    assert read_signal_csv(path).samples.tolist() == [[1e308]] * 3
    # Three samples are too short for the default window: one line, exit 2.
    assert main(["classify", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: 3 samples are too short for the default window (needs 5)"]
    path.write_text("t,x1\n" + "".join(f"{k},1e308\n" for k in range(40)))
    assert main(["classify", str(path)]) == 0
    assert capsys.readouterr().err == ""
    # Deviations from the mean that do overflow are still rejected.
    path.write_text("t,x1\n0,1e308\n1,-1e308\n")
    with pytest.raises(ParseError, match="squared deviations overflow"):
        read_signal_csv(path)


def test_csv_non_finite_field_names_the_file_line(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("t,x1\n\n\n0,1\n0.1,nan\n")
    with pytest.raises(ParseError, match=r"nan\.csv:5: non-finite field"):
        read_signal_csv(path)
    path.write_text("\nt,x1\n0,inf\n0.1,1\n")
    with pytest.raises(ParseError, match=r"nan\.csv:3: non-finite field"):
        read_signal_csv(path)


def test_csv_rejects_non_uniform(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,x1\n0,1\n0.1,2\n0.3,3\n")
    with pytest.raises(ParseError):
        read_signal_csv(path)


def test_csv_rejects_empty_and_bad_header(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ParseError):
        read_signal_csv(path)
    path2 = tmp_path / "hdr.csv"
    path2.write_text("time,u\n0,1\n")
    with pytest.raises(ParseError):
        read_signal_csv(path2)
