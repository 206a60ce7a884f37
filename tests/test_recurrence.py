import json
import math
import tracemalloc
from collections import Counter
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from poisson_lab import recurrence, signals
from poisson_lab.errors import ConfigInvalid
from poisson_lab.recurrence import (
    _golden_min,
    ClassifyConfig,
    ReturnSequence,
    TauGrid,
    bebutov_profile,
    classify,
    comparability_profile,
    default_classify_config,
    jsonable,
    poisson_returns,
    quasi_periodic_fit,
    rationally_independent,
)
from poisson_lab.signals import (
    Signal,
    Window,
    discrepancy_profile,
    read_signal_csv,
    sample_function,
    shift_discrepancy,
)
from poisson_lab.scenarios import build_scenario
from poisson_lab.systems import forcing_signal
from references import (
    almost_periods,
    comparability_uncapped,
    coordinate_fit,
    full_lower_bound_stacked,
    residual_norm,
    spectral_start,
    spiked_noise,
    stacked_design,
)

SQRT2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def sine():
    return sample_function(np.sin, 0.0, 200.0, 0.01)


@pytest.fixture(scope="module")
def ramp():
    return sample_function(lambda t: np.asarray(t, dtype=float), 0.0, 200.0, 0.01)


@pytest.fixture(scope="module")
def h_sig():
    return forcing_signal("levitan-base", 0.0, 2500.0, 0.025)


W_SINE = Window(40.0, 30.0)
GRID = TauGrid(0.0, 120.0, 0.01)


# ---------------------------------------------------------------------------
# almost periods and density
# ---------------------------------------------------------------------------

def test_sine_shift_clusters(sine):
    eps = 0.1
    shifts, max_gap = almost_periods(sine, eps, GRID, W_SINE)
    # Shifts sit within the analytic cluster radius of exact periods.
    radius = 2 * math.asin(eps / 2)
    frac = np.mod(shifts + math.pi, 2 * math.pi) - math.pi
    assert np.abs(frac).max() <= radius + 0.02
    # Independent oracle for the largest gap: the shift-free stretch
    # between consecutive period clusters.
    oracle = 2 * math.pi - 2 * radius
    assert max_gap == pytest.approx(oracle, abs=0.05)
    assert 0.0 in shifts
    assert not max_gap > 0.5 * GRID.span


def test_everything_is_shift_at_huge_epsilon(sine):
    grid = TauGrid(0.0, 50.0, 0.5)
    shifts, max_gap = almost_periods(sine, 2.5, grid, W_SINE)
    assert shifts.size == grid.values().size
    assert max_gap == pytest.approx(0.5, abs=1e-9)


def test_ramp_shifts_only_near_zero(ramp):
    shifts, max_gap = almost_periods(ramp, 0.1, GRID, W_SINE)
    assert shifts.max() < 0.1
    assert max_gap > 100.0
    assert max_gap > 0.5 * GRID.span


def _density_table(f, epsilons, grid, w):
    """The inclusion-length rows (epsilon, L, saturated) of classify's
    ``bohr_ap`` verdict."""
    cfg = ClassifyConfig(w, grid, bohr_epsilons=tuple(epsilons))
    return classify(f, cfg=cfg).classes["bohr_ap"].params["table"]


def test_density_table_periodic(sine):
    rows = _density_table(sine, [0.5, 0.2], GRID, W_SINE)
    assert [r[0] for r in rows] == [0.5, 0.2]
    for eps, L, saturated in rows:
        assert L <= 2 * math.pi + GRID.tau_step
        assert not saturated


def test_density_table_h_unsaturated(h_sig):
    # The two-frequency base has relatively dense almost periods; the
    # inclusion length stays well inside the grid.
    grid = TauGrid(0.0, 500.0, 0.1)
    rows = _density_table(h_sig, [0.5, 0.2], grid, Window(250.0, 250.0))
    for eps, L, saturated in rows:
        assert not saturated
        assert L < 150.0


def test_density_table_ramp_saturated(ramp):
    rows = _density_table(ramp, [0.1], GRID, W_SINE)
    assert rows[0][2] is True


def test_shift_set_monotonicity(sine):
    small = almost_periods(sine, 0.05, GRID, W_SINE)[0]
    large = almost_periods(sine, 0.2, GRID, W_SINE)[0]
    assert set(small.tolist()) <= set(large.tolist())


def test_bohr_shifts_subset_of_bebutov_shifts(h_sig):
    # The shift metric never exceeds the windowed sup discrepancy, so the
    # uniform almost periods are always almost-recurrence shifts too.
    taus = TauGrid(0.0, 300.0, 0.5).values()
    w = Window(400.0, 200.0)
    d_sup = discrepancy_profile(h_sig, taus, w)
    d_beb = bebutov_profile(h_sig, taus, w)
    assert np.all(d_beb <= d_sup + 1e-12)


@given(st.lists(st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
                min_size=40, max_size=80),
       st.integers(min_value=1, max_value=8))
def test_bebutov_below_sup_property(vals, k):
    f = Signal(0.0, 0.1, np.asarray(vals))
    hw = (f.length - 0.1 * k) / 2
    if hw <= 0.3:
        return
    w = Window(hw, hw)
    taus = np.array([0.1 * k])
    assert bebutov_profile(f, taus, w)[0] <= \
        discrepancy_profile(f, taus, w)[0] + 1e-12


# ---------------------------------------------------------------------------
# poisson returns
# ---------------------------------------------------------------------------

def test_returns_periodic(sine):
    seq = poisson_returns(sine, [0.1, 0.05, 0.01], Window(40.0, 30.0),
                          separation=5.0)
    assert len(seq) == 3
    assert all(b > a for a, b in zip(seq.times, seq.times[1:]))
    # Certify independently of the search machinery.
    for t, eps in zip(seq.times, seq.epsilon_schedule):
        assert shift_discrepancy(sine, t, Window(40.0, 30.0)) < eps
    for t in seq.times:
        assert abs((t + math.pi) % (2 * math.pi) - math.pi) < 0.05


def test_returns_two_frequency_base(h_sig):
    # Simultaneous near-periods of 1 and sqrt2 exist inside [0, 2000].
    w = Window(100.0, 100.0)
    seq = poisson_returns(h_sig.restrict(0.0, 2200.0), [0.5, 0.2, 0.1], w, separation=5.0)
    assert len(seq) == 3
    for t, eps in zip(seq.times, seq.epsilon_schedule):
        assert shift_discrepancy(h_sig, t, w) < eps


def test_returns_ramp_empty(ramp):
    seq = poisson_returns(ramp, [0.5, 0.1], Window(40.0, 30.0), separation=5.0)
    assert len(seq) == 0


# The per-cluster scan that poisson_returns replaced: whole-signal probe
# passes, one run at a time, one scalar golden section per cluster.

def _next_hit(arr, start, thresh, below):
    chunk = 1 << 16
    for i in range(start, arr.size, chunk):
        seg = arr[i : i + chunk]
        hits = np.flatnonzero(seg < thresh if below else seg >= thresh)
        if hits.size:
            return i + int(hits[0])
    return -1


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_scalar(fn, a, b, iters):
    if b <= a:
        return a, fn(a)
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = fn(x1), fn(x2)
    for _ in range(iters):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = fn(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = fn(x2)
    return (x1, f1) if f1 <= f2 else (x2, f2)


def dense_probe_bound(S, i0, m, j_hi):
    """The probe bound at every aligned shift 0..j_hi of the m-point window from
    index i0, one whole-signal pass per probe, and the probes."""
    probe_rel = np.unique(np.linspace(0, m - 1, min(64, m)).round().astype(int))
    D_probe = np.zeros(j_hi + 1)
    for p in probe_rel:
        col = np.abs(S[i0 + p : i0 + p + j_hi + 1] - S[i0 + p]).max(axis=1)
        np.maximum(D_probe, col, out=D_probe)
    return D_probe, probe_rel


def returns_per_cluster(f, epsilon_schedule, w, separation=5.0):
    sched = [float(e) for e in epsilon_schedule]
    i0, i1 = f.window_slice(w)
    m = i1 - i0 + 1
    n, dt = len(f), f.dt
    j_hi = n - 1 - i1
    if j_hi < 1 or not sched:
        return ReturnSequence((), (), ())
    S = f.samples
    D_probe, probe_rel = dense_probe_bound(S, i0, m, j_hi)
    ts_w = f.t0 + dt * np.arange(i0, i1 + 1)
    base = S[i0 : i1 + 1]

    def d_probe_cont(tau):
        return float(np.abs(f.values(ts_w[probe_rel] + tau) - base[probe_rel]).max())

    def d_full(tau):
        return float(np.abs(f.values(ts_w + tau) - base).max())

    deriv = np.abs(np.diff(S[: min(n, 200_001)], axis=0)).max() / dt
    spread = float((base.max(axis=0) - base.min(axis=0)).max())
    lip_dt = min(2.0 * float(deriv) * dt, 0.5 * max(spread, 1e-12))
    times, discs, eps_used = [], [], []
    t_prev = 0.0
    tau_cap = j_hi * dt
    for eps in sched:
        found = None
        j = max(1, int(math.ceil((t_prev + separation) / dt - 1e-9)))
        margin = eps + lip_dt
        tries = 0
        while j <= j_hi and tries < 200_000:
            j = _next_hit(D_probe, j, margin, below=True)
            if j < 0:
                break
            je = _next_hit(D_probe, j + 1, margin, below=False)
            if je < 0:
                je = j_hi + 1
            jb = j + int(np.argmin(D_probe[j:je]))
            tau_c = jb * dt
            lo = max(tau_c - 2 * dt, t_prev + separation)
            hi = min(tau_c + 2 * dt, tau_cap)
            if hi > lo + 1e-12:
                tau_p, dp = golden_scalar(d_probe_cont, lo, hi, 24)
                if dp < eps:
                    tau_f, df = golden_scalar(
                        d_full, max(lo, tau_p - dt), min(hi, tau_p + dt), 40)
                    if df < eps and tau_f > t_prev + separation * (1 - 1e-9):
                        found = (tau_f, df)
                        break
            j = je + 1
            tries += 1
        if found is None:
            break
        times.append(found[0])
        discs.append(found[1])
        eps_used.append(eps)
        t_prev = found[0]
    return ReturnSequence(tuple(times), tuple(discs), tuple(eps_used))


@pytest.mark.parametrize("name, t_end, levels, w", [
    ("s1-opial-scalar", 6500.0, 6, Window(100.0, 100.0)),
    ("s3-coop-2d", 150.0, 10, Window(25.0, 25.0)),
])
def test_returns_on_the_closed_form_match_the_spline_reference(name, t_end, levels, w):
    cfg = build_scenario(name)
    ana = cfg.analysis
    f = forcing_signal("trig-sum", 0.0, t_end, 0.05, components=cfg.system.params["forcing"])
    spline = Signal(f.t0, f.dt, f.samples)
    sched = ana["return_schedule"][:levels]
    got = poisson_returns(f, sched, w, separation=ana["return_separation"])
    want = poisson_returns(spline, sched, w, separation=ana["return_separation"])
    assert len(got) == len(want) == levels
    assert np.abs(np.subtract(got.times, want.times)).max() <= 1e-7
    assert np.abs(np.subtract(got.discrepancies, want.discrepancies)).max() <= 1e-7


def quasi_periodic(seed, dim, n, dt=0.1):
    """Sum of two cosines per component, frequencies 1 and sqrt 2 (component
    0) or random, with random amplitudes and phases."""
    rng = np.random.default_rng(seed)
    t = dt * np.arange(n)
    cols = []
    for k in range(dim):
        nu = (1.0, SQRT2) if k == 0 else tuple(rng.uniform(0.5, 3.0, 2))
        amp, phase = rng.uniform(0.3, 1.0, 2), rng.uniform(0.0, 2 * math.pi, 2)
        cols.append(sum(a * np.cos(v * t + p) for a, v, p in zip(amp, nu, phase)))
    return Signal(0.0, dt, np.stack(cols, axis=1))


def spiky(seed, dim, n, dt=0.1):
    """``quasi_periodic`` plus one-sample spikes at about 1 sample in 200,
    growing with time as levitan's phi does.  A spike between the probe
    points is a shift the probe passes and the whole window refutes."""
    rng = np.random.default_rng(seed + 1)
    grow = 1.0 + np.arange(n)[:, None] / n
    spikes = (rng.random((n, dim)) < 0.005) * rng.uniform(1.0, 3.0, (n, dim)) * grow
    return Signal(0.0, dt, quasi_periodic(seed, dim, n, dt).samples + spikes)


def quantized(seed, dim, n, dt=0.1):
    """``quasi_periodic`` rounded to multiples of 1/4: probe bounds tie within a
    run, where the first least one is the run's bottom."""
    return Signal(0.0, dt, np.round(4.0 * quasi_periodic(seed, dim, n, dt).samples) / 4.0)


def test_returns_are_the_per_cluster_scan():
    pruned = []

    @given(st.sampled_from([quasi_periodic, spiky, quantized]),  # family
           st.integers(min_value=0, max_value=2**32 - 1),     # seed
           st.sampled_from([1, 2]),                           # components
           st.integers(min_value=300, max_value=2500),        # samples
           st.integers(min_value=1, max_value=80),            # window half-width / dt
           st.floats(min_value=0.05, max_value=1.0),          # first epsilon
           st.lists(st.floats(min_value=0.3, max_value=1.0), max_size=4),  # ratios
           st.floats(min_value=0.0, max_value=20.0),          # separation
           st.sampled_from([1, 7, 64, 1000, 1 << 15]),        # probe block, values
           st.sampled_from([1, 64, 300, 2000, 1 << 14]))      # refinement batch, values
    # Below, in order: the first cluster accepted at each level; acceptance at
    # the third and at the last cluster of the second batch; the accepted run
    # reaches j_hi = n - 1 - i1 = 312 (the signal ends on a near-period);
    # clusters crossing blocks of 7 shifts, with j_hi + 1 = 1301 not a multiple
    # of 7; m = 41 < 64 on two components, in blocks of 3 shifts; spiky signals
    # whose cell ranges prune brackets; a schedule rising by 6e-16, which the
    # validator allows, so the candidate bar must come from its largest epsilon;
    # a first epsilon above the window spread, where every shift is a candidate;
    # m = 3 <= 4, where the coarse candidate bound reads every probe; two
    # components in blocks of 3 shifts, with candidates straddling the block
    # edges and the accepted run 132-136 reaching j_hi = 136; a quantized signal
    # whose probe bounds tie within runs.
    @example(quasi_periodic, 1, 1, 2000, 40, 1.0, [1.0, 1.0], 0.0, 1 << 15, 1 << 14)
    @example(quasi_periodic, 2, 1, 2500, 60, 0.1, [0.5, 0.5], 5.0, 1 << 15, 1 << 14)
    @example(quasi_periodic, 3, 1, 376, 30, 0.3, [0.5], 5.0, 1000, 300)
    @example(quasi_periodic, 4, 1, 1374, 35, 0.3, [0.5, 0.6], 2.0, 7, 300)
    @example(quasi_periodic, 5, 2, 1500, 20, 0.8, [0.7], 3.0, 7, 1)
    @example(spiky, 20, 1, 2000, 60, 1.0, [], 5.0, 1 << 15, 1 << 14)
    @example(spiky, 42, 2, 1500, 80, 1.0, [0.5, 0.5], 5.0, 7, 300)
    @example(quasi_periodic, 8, 1, 1500, 40, 0.3, [1 + 2e-15], 5.0, 1 << 15, 1 << 14)
    @example(quasi_periodic, 6, 2, 800, 30, 10.0, [0.1, 0.3], 5.0, 64, 2000)
    @example(spiky, 7, 1, 600, 1, 0.5, [0.5], 2.0, 7, 64)
    @example(quasi_periodic, 9, 2, 300, 80, 1.0, [0.5], 13.0, 7, 300)
    @example(quantized, 10, 1, 2000, 40, 0.6, [0.5, 0.5], 5.0, 1 << 15, 1 << 14)
    def check(family, seed, dim, n, hw_steps, eps0, ratios, separation, block, batch):
        f = family(seed, dim, n)
        w = Window(f.dt * (hw_steps + 3), f.dt * hw_steps)
        sched = list(eps0 * np.cumprod([1.0] + ratios))
        want = returns_per_cluster(f, sched, w, separation)
        with patch.object(recurrence, "_BLOCK_VALUES", block), \
                patch.object(recurrence, "_BATCH_VALUES", batch), \
                patch.object(recurrence, "_full_lower_bound",
                             wraps=recurrence._full_lower_bound) as bound, \
                patch.object(recurrence, "_golden_min", wraps=_golden_min) as golden:
            got = poisson_returns(f, sched, w, separation=separation)
        assert got.times == want.times
        assert got.discrepancies == want.discrepancies
        assert got.epsilon_schedule == want.epsilon_schedule
        # Each full refinement is bounded first and then skipped or run.
        pruned.append(bound.call_count - sum(c.args[3] == 40 for c in golden.call_args_list))

    check()
    assert sum(pruned) > 0


def slope_bound(S, i0, m, dt):
    """``poisson_returns``' lip_dt for the m-point window from index i0: twice the
    signal's largest step, capped at half the window spread; and whether the cap binds."""
    base = S[i0 : i0 + m]
    spread = float((base.max(axis=0) - base.min(axis=0)).max())
    slope = 2.0 * float(np.abs(np.diff(S[:200_001], axis=0)).max() / dt) * dt
    return min(slope, 0.5 * max(spread, 1e-12)), 0.5 * max(spread, 1e-12) < slope


def scan(S, i0, probe_rel, j_hi, bar, start=0):
    """``poisson_returns``' scan at one bar: the candidates of its blocks of shifts
    from the block-aligned ``start`` to j_hi."""
    base = S[i0 : i0 + probe_rel[-1] + 1]
    rows = max(1, recurrence._BLOCK_VALUES // base.shape[1])
    parts = [recurrence._probe_candidates(S, i0, probe_rel, base, b, min(b + rows, j_hi + 1), bar)
             for b in range(start, j_hi + 1, rows)]
    return tuple(np.concatenate(x) for x in zip(*parts))


def test_candidate_bar_is_the_largest_epsilons_margin():
    # Each block of shifts is scanned at the bar of the level that first reads it:
    # the margin of the largest epsilon left.  The validator lets a schedule rise
    # by up to 1e-15 per entry; a bar from the level's own epsilon would drop
    # shifts that a later, larger one's runs hold.
    f = quasi_periodic(8, 1, 1500)
    sched = [0.5, 0.3, 0.3 + 6e-16]
    with patch.object(recurrence, "_BLOCK_VALUES", 64), \
            patch.object(recurrence, "_probe_candidates",
                         wraps=recurrence._probe_candidates) as cands:
        seq = poisson_returns(f, sched, Window(f.dt * 43, f.dt * 40))
    assert len(seq) == 3
    lip_dt = slope_bound(f.samples, 3, 81, f.dt)[0]
    bars = [c.args[-1] for c in cands.call_args_list]
    assert bars[0] == sched[0] + lip_dt and bars[-1] == sched[2] + lip_dt
    assert bars == sorted(bars, reverse=True) and set(bars) == {bars[0], bars[-1]}
    # Each block once, in order.
    starts = [c.args[4] for c in cands.call_args_list]
    assert starts == sorted(set(starts)) and all(j % 64 == 0 for j in starts)


@pytest.mark.parametrize("m", [2, 3, 63, 64, 65, 127, 128, 1000, 4097])
def test_probe_points_are_np_unique_of_the_rounded_grid(m):
    f = quasi_periodic(8, 1, m + 60)
    w = Window(f.dt * (3 + 0.5 * (m - 1)), f.dt * 0.5 * (m - 1))
    with patch.object(recurrence, "_probe_candidates",
                      wraps=recurrence._probe_candidates) as cands:
        poisson_returns(f, [0.3], w)
    probe_rel = cands.call_args.args[2]
    assert probe_rel.tobytes() == np.unique(
        np.linspace(0, m - 1, min(64, m)).round().astype(int)).tobytes()


def test_probe_candidates_are_the_dense_bound_below_the_bar():
    capped = []

    @given(st.sampled_from([quasi_periodic, spiky]),          # family
           st.integers(min_value=0, max_value=2**32 - 1),     # seed
           st.sampled_from([1, 2, 12]),                       # components
           st.integers(min_value=1, max_value=150),           # window points m
           st.integers(min_value=0, max_value=40),            # window start i0
           st.integers(min_value=1, max_value=1500),          # largest shift j_hi
           st.floats(min_value=0.01, max_value=5.0),          # largest epsilon
           st.sampled_from([1, 7, 64, 1000, 1 << 15]))        # block, values
    # Every shift below the bar (an epsilon above the spread); m <= 4, where the
    # coarse bound reads every probe; j_hi = 1; blocks of 3 shifts on two components.
    @example(quasi_periodic, 0, 2, 100, 10, 800, 5.0, 64)
    @example(spiky, 1, 1, 4, 0, 500, 0.3, 7)
    @example(quasi_periodic, 2, 1, 60, 3, 1, 0.5, 1 << 15)
    @example(spiky, 3, 2, 130, 20, 1201, 0.2, 7)
    def check(family, seed, dim, m, i0, j_hi, eps, block):
        f = family(seed, dim, i0 + m + j_hi)
        S = f.samples
        want, probe_rel = dense_probe_bound(S, i0, m, j_hi)
        lip_dt, cap = slope_bound(S, i0, m, f.dt)   # the bar is as in ``poisson_returns``
        capped.append(cap)
        with patch.object(recurrence, "_BLOCK_VALUES", block):
            idx, vals = scan(S, i0, probe_rel, j_hi, eps + lip_dt)
        assert np.array_equal(idx, np.flatnonzero(want < eps + lip_dt))
        assert np.array_equal(vals, want[idx])

    check()
    assert any(capped) and not all(capped)


@given(st.integers(min_value=0, max_value=2**32 - 1),     # seed
       st.sampled_from([1, 2, 12]),                       # components; 12 is a wide field
       st.booleans(),                                     # spiky, else random samples
       st.sampled_from([1.0, 1e-6, 1e6]),                 # value scale
       st.integers(min_value=2, max_value=80),            # window points
       st.integers(min_value=0, max_value=30),            # window start index
       st.integers(min_value=0, max_value=30),            # bracket start, whole cells
       st.floats(min_value=0.0, max_value=1.0),           # bracket start, part of a cell
       st.floats(min_value=0.0, max_value=2.0))           # bracket width, cells
# Brackets from a cell edge, ending on one, and just short of one.
@example(0, 1, True, 1.0, 40, 5, 3, 0.0, 2.0)
@example(1, 2, False, 1.0, 40, 0, 0, 0.5, 1.5)
@example(2, 12, True, 1e6, 80, 30, 30, 1.0 - 1e-12, 1e-9)
def test_cell_range_bound_is_below_the_dense_minimum(seed, dim, spikes, scale, m, i0,
                                                      cell, frac, width):
    rng = np.random.default_rng(seed)
    n = i0 + m + cell + 4
    y = rng.normal(size=(n, dim))
    if spikes:
        y *= 0.1
        y[rng.random((n, dim)) < 0.1] += rng.uniform(-50.0, 50.0)
    f = Signal(-1.0, 0.1, scale * y)
    lo_f = f.dt * (cell + frac)
    hi_f = lo_f + f.dt * width
    base = f.samples[i0 : i0 + m]
    taus = np.linspace(lo_f, hi_f, 201)
    dense = np.abs(f.window_values(i0, m, taus) - base).max(axis=(1, 2))
    assert recurrence._full_lower_bound(f, i0, base, lo_f, hi_f) <= dense.min()


def test_cell_range_bound_takes_the_cell_a_rounded_read_falls_in():
    # floor(tau / dt) = 8, but t_3 + tau rounds below t_11, into cell 10: only
    # the extra cell on each side holds the value read there.
    y = np.arange(40.0)
    y[3] = -100.0
    f = Signal(1e5, 0.3, y)
    tau, base, x = 0.3 * 8, f.samples[3:5], f.times()
    assert math.floor(tau / f.dt) == 8 and x[3] + tau < x[11]
    dense = np.abs(f.window_values(3, 2, [tau]) - base).max()
    assert recurrence._full_lower_bound(f, 3, base, tau, tau) <= dense


def test_cell_range_bound_keeps_its_rounding_margin():
    # A flat stretch at 10 read from a window point at 0: the distance to the
    # hull of cells 20-22 (point 1 on [2.0, 2.05], one extra cell on each side)
    # exceeds the least discrepancy read there by a rounding, which the margin
    # takes off.
    y = 10.0 + 1e-9 * np.random.default_rng(256).normal(size=40)
    y[:3] = 0.0
    f = Signal(0.0, 0.1, y)
    base = f.samples[1:2]
    dense = np.abs(f.window_values(1, 1, np.linspace(2.0, 2.05, 201)) - base).min()
    assert f._cell_ranges[0][20:23].min() > dense
    assert recurrence._full_lower_bound(f, 1, base, 2.0, 2.05) <= dense


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60), i0=st.integers(0, 60),
       m=st.integers(1, 30), cell=st.integers(-40, 100), frac=st.floats(0.0, 1.0),
       width=st.floats(0.0, 12.0), dim=st.integers(1, 3), zeros=st.booleans())
@example(seed=0, n=20, i0=0, m=1, cell=10, frac=0.5, width=3.0, dim=1, zeros=False)  # inside
@example(seed=1, n=1, i0=2, m=5, cell=-8, frac=0.5, width=3.0, dim=2, zeros=False)  # off the start
@example(seed=2, n=1, i0=30, m=20, cell=50, frac=0.5, width=3.0, dim=1, zeros=True)  # off the end
@example(seed=3, n=1, i0=0, m=30, cell=-5, frac=0.0, width=10.0, dim=3, zeros=True)  # off both
def test_full_lower_bound_is_the_stacked_reduce(seed, n, i0, m, cell, frac, width, dim, zeros):
    # The slices and the in-place fold against a clipped take of every cell and
    # a reduce over the stacked offsets, bit for bit, also where the cells a
    # bracket reads run off either end of the signal.
    rng = np.random.default_rng(seed)
    y = rng.normal(size=(n + i0 + m + 4, dim))
    if zeros:
        hit = rng.random(y.shape) < 0.5
        y[hit] = rng.choice([0.0, -0.0], size=int(hit.sum()))
    f = Signal(-1.0, 0.1, y)
    base = f.samples[i0 : i0 + m]
    lo_f = f.dt * (cell + frac)
    hi_f = lo_f + f.dt * width
    got = recurrence._full_lower_bound(f, i0, base, lo_f, hi_f)
    ref = full_lower_bound_stacked(f, i0, base, lo_f, hi_f)
    assert np.float64(got).tobytes() == np.float64(ref).tobytes()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(100, 40_000), cols=st.integers(3, 9),
       design=st.booleans())
@example(seed=0, rows=20_001, cols=9, design=True)
@example(seed=1, rows=100, cols=3, design=False)
def test_qr_is_numpys_bit_for_bit(seed, rows, cols, design):
    # _qr factors in place what np.linalg.qr factors in a copy: the same Q, C-contiguous
    # like numpy's, and the same R, on design matrices (odd column counts) and on
    # random column-major matrices.
    rng = np.random.default_rng(seed)
    if design:
        dt = rng.uniform(0.01, 0.5)
        M = recurrence._design_matrix(dt * np.arange(rows), rng.uniform(0.1, 3.0, (cols - 1) // 2))
    else:
        M = np.asfortranarray(rng.normal(size=(rows, cols)))
    Q_ref, R_ref = np.linalg.qr(M)
    Q, R = recurrence._qr(M.copy(order="F"))
    assert Q.flags.c_contiguous and Q_ref.flags.c_contiguous
    assert Q.tobytes() == Q_ref.tobytes() and R.tobytes() == R_ref.tobytes()


def test_streamed_candidates_are_the_sampled_ones_bit_for_bit():
    # A trig-sum forcing is read one slice per block of shifts and never sampled
    # whole; the candidates are the dense bound of its samples, with blocks
    # shorter than the window too, and from any block-aligned start shift, where
    # a later level's scan begins.
    @given(st.integers(min_value=0, max_value=2**32 - 1),     # seed
           st.sampled_from([1, 2, 3]),                        # components
           st.integers(min_value=1, max_value=120),           # window points m
           st.integers(min_value=0, max_value=30),            # window start i0
           st.integers(min_value=1, max_value=900),           # largest shift j_hi
           st.floats(min_value=0.05, max_value=3.0),          # bar
           st.sampled_from([1, 7, 64, 1 << 15]),              # block, values
           st.integers(min_value=0, max_value=400))           # start block
    @example(0, 1, 100, 10, 800, 0.5, 7, 0)
    @example(1, 3, 4, 0, 300, 2.0, 1, 0)
    @example(2, 1, 64, 5, 700, 0.8, 64, 9)          # starts at 576 of 0..700
    @example(3, 2, 30, 0, 500, 1.0, 7, 400)         # the last block, shift 497 alone
    def check(seed, dim, m, i0, j_hi, bar, block, start):
        rng = np.random.default_rng(seed)
        comps = [[[float(rng.uniform(0.2, 1.5)), float(rng.uniform(0.1, 3.0)),
                   float(rng.uniform(0.0, 6.3))] for _ in range(2)] for _ in range(dim)]
        n = i0 + m + j_hi
        f = forcing_signal("trig-sum", 0.0, 0.1 * (n - 1), 0.1, components=comps)
        probe_rel = np.unique(np.linspace(0, m - 1, min(64, m)).round().astype(int))
        rows = max(1, block // dim)
        j0 = rows * min(start, j_hi // rows)
        with patch.object(recurrence, "_BLOCK_VALUES", block):
            idx, vals = scan(f, i0, probe_rel, j_hi, bar, j0)
        assert "samples" not in vars(f)
        want = dense_probe_bound(f.samples, i0, m, j_hi)[0]
        assert np.array_equal(idx, j0 + np.flatnonzero(want[j0:] < bar))
        assert want[idx].tobytes() == vals.tobytes()

    check()


def test_returns_on_a_long_forcing_hold_no_forcing_samples():
    # s1's return search on its 4.3 M-sample forcing: every read is one block of
    # the trig sum's grid, so the traced peak is well below the samples' bytes,
    # and the returns are those of the sampled forcing bit for bit.
    cfg = build_scenario("s1-opial-scalar")
    ana = cfg.analysis
    wc, hw = ana["return_window"]
    f = forcing_signal("trig-sum", 0.0, cfg.integrator.t_end + 2 * hw + 50.0,
                       ana["forcing_dt"], components=cfg.system.params["forcing"])
    args = ana["return_schedule"], Window(wc, hw)
    tracemalloc.start()
    try:
        got = poisson_returns(f, *args, separation=ana["return_separation"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "samples" not in vars(f)
    assert peak < 0.25 * 8 * len(f) * f.dim
    # Rows from the samples, reads from the closed form.
    sampled = Signal(f.t0, f.dt, f.samples)
    object.__setattr__(sampled, "exact", f.exact)
    assert got == poisson_returns(sampled, *args, separation=ana["return_separation"])
    assert len(got) == len(ana["return_schedule"])


def test_returns_on_an_exact_signal_build_no_cell_ranges():
    components = build_scenario("s3-coop-2d").system.params["forcing"]
    f = forcing_signal("trig-sum", 0.0, 300.0, 0.05, components=components)
    with patch.object(recurrence, "_golden_min", wraps=_golden_min) as golden:
        seq = poisson_returns(f, [0.5, 0.2, 0.1, 0.05], Window(25.0, 25.0), separation=5.0)
    assert len(seq) == 4 and any(c.args[3] == 40 for c in golden.call_args_list)
    assert "_cell_ranges" not in vars(f) and "_spline" not in vars(f)


def probe_refinements(f, sched, w, separation, batch, prune=True):
    """``poisson_returns`` with ``_BATCH_VALUES`` = batch (and the trig-sum slope
    bound +inf, so nothing pruned, unless ``prune``): the returns, the rows
    (level, lo, hi, minimum) of its probe refinements, and how many batches it
    refined as a lone row twice."""
    calls = []

    def logged(fn, a, b, iters):
        out = _golden_min(fn, a, b, iters)
        calls.append((iters, np.array(a, ndmin=1), np.array(b, ndmin=1)) + out)
        return out

    slack = recurrence._trig_slack if prune else lambda f: (math.inf, 0.0)
    with patch.object(recurrence, "_golden_min", logged), \
            patch.object(recurrence, "_BATCH_VALUES", batch), \
            patch.object(recurrence, "_trig_slack", slack):
        seq = poisson_returns(f, sched, w, separation=separation)
    rows, level, twins = [], 0, 0
    for iters, a, b, x, v in calls:
        if iters == 40:  # a full refinement; the one that finds its return ends a level
            level += level < len(seq) and (x[0], v[0]) == (seq.times[level],
                                                           seq.discrepancies[level])
            continue
        if a.size == 2 and a[0] == a[1] and b[0] == b[1]:
            twins, a, b, v = twins + 1, a[:1], b[:1], v[:1]
        rows += [(level, lo, hi, d) for lo, hi, d in zip(a.tolist(), b.tolist(), v.tolist())]
    return seq, rows, twins


def trig_sum_searches(check):
    """Return searches on trig sums: 1-3 random components of 1-3 terms, s1's
    forcing and s3's, with refinement batches small enough that pruning leaves
    one cluster of several, and probe blocks short enough that a bracket reaches
    a block no level has scanned."""
    @given(st.integers(min_value=0, max_value=2**32 - 1),     # seed
           st.sampled_from([1, 2, 3]),                        # components
           st.integers(min_value=1, max_value=3),             # terms
           st.integers(min_value=20, max_value=80),           # window half-width / dt
           st.floats(min_value=0.1, max_value=1.0),           # first epsilon
           st.floats(min_value=0.0, max_value=10.0),          # separation
           st.sampled_from([64, 300, 2000, 1 << 14]),         # refinement batch, values
           st.sampled_from([7, 64, 1 << 15]))                 # probe block, values
    @example("s1-opial-scalar", 0, 0, 0, 0.0, 5.0, 300, 1 << 15)
    @example("s3-coop-2d", 0, 0, 0, 0.0, 5.0, 2000, 1 << 15)
    @settings(max_examples=30, deadline=None)
    def run(seed, dim, terms, hw_steps, eps0, separation, batch, block):
        if isinstance(seed, str):  # a catalog forcing at its own schedule
            cfg = build_scenario(seed)
            ana = cfg.analysis
            f = forcing_signal("trig-sum", 0.0, 1500.0, 0.05, components=cfg.system.params["forcing"])
            sched, w = ana["return_schedule"][:5], Window(60.0, 50.0)
        else:
            rng = np.random.default_rng(seed)
            comps = [[[float(rng.uniform(0.2, 1.5)), float(rng.choice([1.0, SQRT2, rng.uniform(0.3, 3.0)])),
                       float(rng.uniform(0.0, 6.3))] for _ in range(terms)] for _ in range(dim)]
            f = forcing_signal("trig-sum", 0.0, 600.0, 0.1, components=comps)
            sched = list(eps0 * np.cumprod([1.0, 0.6, 0.6, 0.6]))
            w = Window(f.dt * (hw_steps + 2), f.dt * hw_steps)
        with patch.object(recurrence, "_BLOCK_VALUES", block):
            check(f, sched, w, separation, batch)

    run()


@pytest.fixture(scope="module")
def pruned_and_unpruned():
    """One ``trig_sum_searches`` run shared by the two pruning tests: for each
    example, its schedule, the pruned and the unpruned ``probe_refinements``
    (returns and rows) and the pruned search's count of doubled rows."""
    runs = []

    def record(f, sched, w, separation, batch):
        got, rows, n_twins = probe_refinements(f, sched, w, separation, batch)
        want, all_rows, _ = probe_refinements(f, sched, w, separation, batch, prune=False)
        runs.append((sched, got, rows, want, all_rows, n_twins))

    trig_sum_searches(record)
    return runs


def test_pruned_returns_are_the_unpruned_ones_bit_for_bit(pruned_and_unpruned):
    # Pruning drops probe refinements and changes nothing else: the returns and
    # every refined row are those of the search with the slope bound at +inf.
    for _, got, rows, want, all_rows, _ in pruned_and_unpruned:
        assert (got.times, got.discrepancies, got.epsilon_schedule) == \
            (want.times, want.discrepancies, want.epsilon_schedule)
        assert not Counter(rows) - Counter(all_rows)
    assert sum(run[-1] for run in pruned_and_unpruned) > 0


def test_pruned_brackets_cannot_certify(pruned_and_unpruned):
    # On every bracket the bound drops, the probe refinement that was skipped
    # would have ended at epsilon or above, so it could not have certified.
    pruned = []
    for sched, _, rows, _, all_rows, _ in pruned_and_unpruned:
        dropped = Counter(all_rows) - Counter(rows)
        assert all(d >= sched[level] for level, _, _, d in dropped)
        pruned.append(sum(dropped.values()))
    assert sum(pruned) > 0


def test_s1_return_search_work_counts():
    # Counts show the pruning and the per-level bar where a shared host's wall time
    # is noisy: s1's whole search refined 4,386 probe clusters and kept 129,853
    # candidates (every shift below the loosest margin) before either.
    cfg = build_scenario("s1-opial-scalar")
    ana = cfg.analysis
    wc, hw = ana["return_window"]
    f = forcing_signal("trig-sum", 0.0, cfg.integrator.t_end + 2 * hw + 50.0,
                       ana["forcing_dt"], components=cfg.system.params["forcing"])
    kept, scan_block = [], recurrence._probe_candidates

    def candidates(*args):
        out = scan_block(*args)
        kept.append(out[0].size)
        return out

    with patch.object(recurrence, "_golden_min", wraps=_golden_min) as golden, \
            patch.object(recurrence, "_probe_candidates", side_effect=candidates):
        seq = poisson_returns(f, ana["return_schedule"], Window(wc, hw),
                              separation=ana["return_separation"])
    assert len(seq) == len(ana["return_schedule"])
    assert sum(np.size(c.args[1]) for c in golden.call_args_list if c.args[3] == 24) <= 1000
    assert sum(kept) <= 20_000


def test_returns_reject_bad_arguments(sine):
    w = Window(40.0, 30.0)
    for sched in ([float("nan")], [0.1, float("nan")], [0.0], [-0.1], [0.1, 0.2]):
        with pytest.raises(ValueError, match="schedule"):
            poisson_returns(sine, sched, w)
    for sep in (float("nan"), float("inf"), -float("inf"), -5.0):
        with pytest.raises(ValueError, match="separation"):
            poisson_returns(sine, [0.1], w, separation=sep)
    # A separation past the signal end is legal and finds no return.
    assert len(poisson_returns(sine, [0.1], w, separation=1e308)) == 0


# Function kinds of the golden-section tests: 0 a constant (exact ties at every
# step), 1 a parabola, 2 a wiggle, 3 a coarse staircase (ties between steps).
_GOLDEN_KINDS = [
    lambda x, c: 0.25 * c,
    lambda x, c: (x - c) ** 2,
    lambda x, c: math.sin(3.0 * x) + c * x * x,
    lambda x, c: math.floor(c * abs(x)),
]


@given(st.lists(st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0),
                          st.integers(0, 3), st.floats(0.1, 3.0)),
                min_size=1, max_size=6),
       st.integers(min_value=0, max_value=40))
def test_golden_min_batched_is_the_scalar_loop(brackets, iters):
    kinds = _GOLDEN_KINDS
    fns = [lambda x, k=k, c=c: kinds[k](x, c) for _, _, k, c in brackets]

    def batched(xs, bar):
        assert xs.size == len(fns)
        return np.array([fn(x) for fn, x in zip(fns, xs.tolist())])

    a = np.array([lo for lo, _, _, _ in brackets])
    b = np.array([hi for _, hi, _, _ in brackets])
    xs, vals = _golden_min(batched, a, b, iters)
    want = [golden_scalar(fn, lo, hi, iters) for fn, (lo, hi, _, _) in zip(fns, brackets)]
    assert xs.tolist() == [x for x, _ in want]
    assert vals.tolist() == [v for _, v in want]


@given(st.lists(st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0),
                          st.integers(0, 3), st.floats(0.1, 3.0)),
                min_size=1, max_size=6),
       st.integers(min_value=0, max_value=40), st.integers(0, 2**32 - 1))
# One bracket runs ``_golden_min``'s float path: a parabola, a constant's ties, a
# staircase on a bracket given as b < a, and a wiggle.
@example([(1.0, 2.5, 1, 1.5)], 12, 0)
@example([(-1.0, 3.0, 0, 1.0)], 5, 1)
@example([(2.0, -1.0, 3, 2.0)], 7, 2)
@example([(-3.0, 4.0, 3, 0.5)], 40, 3)
@example([(-4.0, 4.0, 2, 0.5)], 40, 4)
def test_golden_min_takes_any_value_above_the_bar(brackets, iters, seed):
    """Where a point's exact value is above its bar, fn may return any value
    above the bar (the bar itself excluded): the minimizers and minima are
    those of the exact fn, ties of the constant and the staircase included."""
    kinds = _GOLDEN_KINDS
    fns = [lambda x, k=k, c=c: kinds[k](x, c) for _, _, k, c in brackets]
    rng = np.random.default_rng(seed)

    def exact(xs, bar):
        assert bar.shape == xs.shape == (len(fns),)
        return np.array([fn(x) for fn, x in zip(fns, xs.tolist())], dtype=float)

    def loose(xs, bar):
        vals = exact(xs, bar)
        for i in np.flatnonzero(vals > bar).tolist():
            b, v = float(bar[i]), float(vals[i])
            pick = [b, b + (v - b) * rng.random(), v + rng.exponential()][rng.integers(3)]
            vals[i] = max(pick, math.nextafter(b, math.inf))
        return vals

    a = np.array([lo for lo, _, _, _ in brackets])
    b = np.array([hi for _, hi, _, _ in brackets])
    want, got = _golden_min(exact, a, b, iters), _golden_min(loose, a, b, iters)
    assert [v.tolist() for v in got] == [v.tolist() for v in want]


def _nan_and_infs(x, c):
    """A fifth golden kind: NaN, +inf, -inf or a slope, by where x falls."""
    return (math.nan, math.inf, -math.inf, c * x)[math.floor(2.0 * abs(x)) % 4]


@given(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0), st.integers(0, 4), st.floats(0.1, 3.0),
       st.integers(min_value=0, max_value=40))
@example(1.0, -2.0, 1, 1.0, 6)  # b < a
@example(0.5, 0.5, 4, 1.0, 3)   # b = a
@example(-4.0, 4.0, 4, 1.0, 40)
def test_golden_min_one_bracket_is_the_array_recurrence(a, b, kind, c, iters):
    """One bracket, run on floats, reads the points and bars that the array
    recurrence reads for it in a batch (that bracket twice) and returns its
    bits, NaN and infinite values included."""
    fn = (_GOLDEN_KINDS + [_nan_and_infs])[kind]
    reads = []

    def read(xs, bar):
        assert bar.shape == xs.shape
        reads.append((xs[0], bar[0]))
        return np.array([fn(x, c) for x in xs.tolist()], dtype=float)

    one = _golden_min(read, a, b, iters)
    one_reads, reads[:] = reads[:], []
    both = _golden_min(read, [a, a], [b, b], iters)
    bits = lambda *vals: np.array(vals, dtype=float).view(np.int64).tolist()  # noqa: E731
    assert bits(*[v[0] for v in one]) == bits(*[v[0] for v in both])
    assert [v.size for v in one] == [1, 1]
    assert bits(*[v for r in one_reads for v in r]) == bits(*[v for r in reads for v in r])


@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([1, 3]),
       st.sampled_from([300, 900]),
       st.lists(st.tuples(st.integers(0, 17), st.integers(0, 4)), min_size=1, max_size=8))
@example(1, 1, 900, [(0, 0), (1, 3), (2, 3)])
def test_deciding_reader_is_the_full_read_at_or_below_the_bar(seed, dim, m, reads):
    """Each read of the golden sections' deciding-point reader is the whole
    window's ``window_values`` read bit for bit where that is at most the bar,
    and above the bar elsewhere.  The bars include the gap at the point that
    decided the previous read, which the reader reads first."""
    f, w, taus = spiked_noise(seed, dim, m)
    i0, i1 = f.window_slice(w)
    base = f.samples[i0 : i1 + 1]
    read, prev = recurrence._deciding_reader(f, i0, base), None
    for k, kind in reads:
        tau = taus[k : k + 1]
        gaps = np.abs(f.window_values(i0, m, tau)[0] - base).max(axis=1)
        full = gaps.max()
        at_prev = full if prev is None else np.abs(
            f.values(tau + f.times()[i0 + prev]) - base[prev]).max()
        bar = [math.inf, 0.0, full, at_prev, np.nextafter(full, -math.inf)][kind]
        got = read(tau, np.array([bar]))
        assert got.shape == (1,)
        assert got[0] == full if full <= bar else got[0] > bar
        prev = int(gaps.argmax())


def test_classify_of_a_trig_sum_builds_no_spline():
    """s1's forcing classify reads its trig sum only exactly: neither the golden
    sections' deciding-point reads nor any other read builds a spline on it."""
    cfg = build_scenario("s1-opial-scalar")
    fdt = cfg.analysis["forcing_dt"]
    f = forcing_signal("trig-sum", 0.0, 2000.0, fdt, components=cfg.system.params["forcing"])
    rep = classify(f, cfg=ClassifyConfig(
        window=Window(250.0, 250.0), tau_grid=TauGrid(0.0, 1400.0, 10 * fdt),
        fit_window=Window(950.0, 950.0)))
    assert rep.classes["quasi_periodic"].verdict == "yes"
    assert "_spline" not in vars(f)


def test_return_search_spline_calls(monkeypatch):
    # A 200k-sample two-frequency search.  The per-cluster scan this replaced
    # made 17,938 Signal.values calls on it; the batched one makes 1,168.
    f = forcing_signal("levitan-base", 0.0, 20000.0, 0.1)
    calls = [0]
    values = Signal.values

    def counted(self, ts):
        calls[0] += 1
        return values(self, ts)

    monkeypatch.setattr(Signal, "values", counted)
    # The spline is built once, for f, and every value is read from it.
    builds = [0]
    natural_slopes = signals._natural_slopes

    def counted_build(*args):
        builds[0] += 1
        return natural_slopes(*args)

    monkeypatch.setattr(signals, "_natural_slopes", counted_build)
    seq = poisson_returns(f, [0.5, 0.2, 0.1, 0.05, 0.02, 0.01, 5e-3, 2e-3, 1e-3],
                          Window(100.0, 100.0), separation=5.0)
    assert len(seq) == 8
    assert calls[0] <= 1168
    assert builds[0] == 1


def test_return_sequence_validation():
    with pytest.raises(ValueError):
        ReturnSequence((2.0, 1.0), (0.0, 0.0), (1.0, 1.0))
    with pytest.raises(ValueError):
        ReturnSequence((1.0,), (2.0,), (1.0,))


# ---------------------------------------------------------------------------
# spectral fit and rational independence
# ---------------------------------------------------------------------------

def test_fit_single_mode():
    f = sample_function(np.sin, 0.0, 1000.0, 0.01)
    freqs, _, residual = quasi_periodic_fit(f, 4, Window(500.0, 490.0))
    assert len(freqs) == 1
    assert freqs[0] == pytest.approx(1.0, abs=1e-2)
    assert residual < 1e-2


def test_fit_two_modes(h_sig):
    freqs, _, residual = quasi_periodic_fit(h_sig, 4, Window(250.0, 250.0))
    assert len(freqs) == 2
    assert freqs[0] == pytest.approx(1.0, abs=1e-2)
    assert freqs[1] == pytest.approx(1.41421, abs=1e-2)
    assert residual < 1e-2


def test_fit_scrambled_noise_fails(monkeypatch):
    rng = np.random.default_rng(11)
    f = sample_function(lambda ts: rng.standard_normal(np.asarray(ts).size),
                        0.0, 200.0, 0.01)
    factorizations = []
    real = recurrence._gauss_newton
    monkeypatch.setattr(recurrence, "_gauss_newton",
                        lambda *args: factorizations.append(1) or real(*args))
    residual = quasi_periodic_fit(f, 4, Window(100.0, 90.0))[2]
    assert residual >= 0.5
    # The start's QR and one per trial step, at most _FIT_MAX_STEPS of them.
    assert len(factorizations) <= 1 + recurrence._FIT_MAX_STEPS


def _fit_input(case, tmp_path):
    """A signal and fit window on which the fit is checked against the
    reference: the classify-long CLI inputs (seeds 1 and 7) and levitan's h,
    phi, psi."""
    if case.startswith("long"):
        rng = np.random.default_rng(int(case.split("-")[1]))
        out = []
        for n in (10_000, 20_000, 40_000):
            phases = rng.uniform(0.0, 2.0 * math.pi, size=2)
            t = 0.05 * np.arange(n)
            path = tmp_path / f"signal-{n}.csv"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("t,x1\n")
                np.savetxt(fh, np.column_stack(
                    [t, np.sin(t + phases[0]) + np.sin(SQRT2 * t + phases[1])]),
                    fmt="%.17g", delimiter=",")
            f = read_signal_csv(path)
            out.append((f, default_classify_config(f).window))
        return out
    if case == "h":
        return [(forcing_signal("levitan-base", 0.0, 1000.0, 0.025), Window(250.0, 250.0))]
    f = forcing_signal(f"levitan-{case}", -500.0, 500.0, 0.025)
    return [(f, Window(-250.0, 250.0))]


@pytest.mark.parametrize("case", ["long-1", "long-7", "h", "phi", "psi"])
def test_fit_is_the_lstsq_fit(case, tmp_path):
    """Gauss-Newton reaches at least the least squares of the coordinate
    polish over ``lstsq_objective``, with frequencies within 1e-5 bins of the
    reference's; the golden section stops at its bracket width, so the sup
    residual may only fall."""
    for f, w in _fit_input(case, tmp_path):
        y, ts, _, bin_w = spectral_start(f, 4, w)
        (freqs, _, residual), (ref_freqs, _, ref_residual) = \
            quasi_periodic_fit(f, 4, w), coordinate_fit(f, 4, w)
        assert len(freqs) == len(ref_freqs)
        assert residual_norm(y, ts, freqs) <= \
            residual_norm(y, ts, ref_freqs) * (1 + 1e-12)
        assert np.abs(np.subtract(freqs, ref_freqs)).max() <= 1e-5 * bin_w
        assert residual <= ref_residual + 1e-6


def _tones(n, seed, noise, bins, amps, phases):
    """(signal, noise amplitude, frequencies): sinusoids at the given bins of
    an n-sample window at dt 0.1, plus white noise of the given amplitude."""
    dt = 0.1
    ts = dt * np.arange(n)
    bin_w = 2.0 * math.pi / (n * dt)
    y = noise * np.random.default_rng(seed).standard_normal(n)
    for b, amp, phase in zip(bins, amps, phases):
        y = y + amp * np.sin(b * bin_w * ts + phase)
    return Signal(0.0, dt, y[:, None]), noise, np.asarray(bins) * bin_w


@st.composite
def fit_case(draw):
    """1-4 sinusoids at least 3 bins apart plus white noise, on 50-5000 samples."""
    n = draw(st.integers(min_value=50, max_value=5000))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    noise = draw(st.floats(min_value=0.0, max_value=1.0))
    k = draw(st.integers(min_value=1, max_value=4))
    bins = np.cumsum([draw(st.floats(min_value=1.5, max_value=4.0))]
                     + [draw(st.floats(min_value=3.0, max_value=6.0)) for _ in range(k - 1)])
    amps = [draw(st.floats(min_value=0.1, max_value=2.0)) for _ in range(k)]
    phases = [draw(st.floats(min_value=0.0, max_value=6.3)) for _ in range(k)]
    return _tones(n, seed, noise, bins, amps, phases)


@settings(max_examples=100, deadline=None)
@given(case=fit_case())
# The start misses the 1.5-bin tone; a full Gauss-Newton step raises ||r|| here.
@example(case=_tones(88, 71197170, 0.1, [1.501], [1.106], [4.002]))
# The strong tone pulls the weak tone's peak 0.83 bins off, out of its start
# bracket; the second pass, re-bracketed at the first's end, reaches it.
@example(case=_tones(50, 0, 0.0, [2.3125, 5.71875], [0.109375, 1.25], [1.0, 0.0]))
# A noiseless tone: the last Gauss-Newton step, 8e-10 bins, cuts ||r|| from
# 1e-8 to 5e-15, below the coordinate polish's 8.4e-9.
@example(case=_tones(115, 0, 0.0, [1.9], [1.0], [0.96]))
def test_fit_stays_in_bracket_and_lowers_residual(case):
    """Every frequency stays within 1.2 bins of its start peak (two brackets of
    0.6 bins) and the residual norm never rises above the start's.  With
    little noise, and a start that has one peak within a bin of each
    sinusoid, the fit reaches at least the coordinate polish's least squares.
    (A start that misses a sinusoid, or has a peak on the noise, leaves a
    large residual: the functional can then have several minima in a bracket,
    and the golden section may find a lower one.)"""
    f, noise, nus = case
    w = Window(0.5 * f.t_end, 0.5 * f.t_end)
    y, ts, start, bin_w = spectral_start(f, 4, w)
    freqs = quasi_periodic_fit(f, 4, w)[0]
    assert len(freqs) == len(start)
    reach = (1.2 + 1e-9) * bin_w  # the second bracket's ends round twice
    for nu, nu0 in zip(freqs, sorted(start)):
        assert max(nu0 - reach, 0.25 * bin_w) <= nu <= nu0 + reach
    if not start:
        return
    norm = residual_norm(y, ts, freqs)
    assert norm <= residual_norm(y, ts, start) * (1 + 1e-12)
    if noise <= 0.1 and len(start) == nus.size and \
            np.abs(np.sort(start) - nus).max() <= bin_w:
        assert norm <= residual_norm(y, ts, coordinate_fit(f, 4, w)[0]) * (1 + 1e-12)


def test_fit_holds_a_frequency_at_its_bracket_end():
    """A tone at 4.49 bins and a peak on the noise whose least squares lies
    beyond both its brackets: that frequency stops at the second bracket's
    end, 1.2 bins from its peak, and the tone's frequency still converges,
    the gradient of ||r||^2 vanishing."""
    f, _, _ = _tones(53, 1148422789, 0.1, [4.49], [1.115], [3.03])
    w = Window(0.5 * f.t_end, 0.5 * f.t_end)
    y, ts, start, bin_w = spectral_start(f, 4, w)
    freqs = quasi_periodic_fit(f, 4, w)[0]
    at_end = np.isclose(np.abs(np.subtract(freqs, sorted(start))), 1.2 * bin_w)
    assert at_end.tolist() == [False, True]
    M = stacked_design(ts, freqs)
    c = np.linalg.lstsq(M, y, rcond=None)[0]
    r = y - M @ c
    D = ts[:, None] * (c[2::2] * M[:, 1::2] - c[1::2] * M[:, 2::2])
    grad = np.abs(D.T @ r) / (np.linalg.norm(D, axis=0) * np.linalg.norm(r))
    assert grad[0] <= 1e-6


@pytest.mark.parametrize("bad", [
    {"poisson_schedule": ()},  # once a vacuous poisson "yes", on any input
    {"poisson_schedule": (0.1, 0.2)},
    {"bohr_epsilons": ()},
    {"bohr_epsilons": (0.5, 0.0)},
    {"bohr_epsilons": (math.inf,)},
    {"stationary_tol": -1e-8},
    {"quasi_residual_tol": math.inf},
    {"poisson_separation": -5.0},
    {"periodic_verify_rel": math.nan},
    {"refute_frac": 1.5},
    {"base_declared": "periodic"},
])
def test_classify_config_rejects_each_invalid_value(bad):
    with pytest.raises(ValueError, match=next(iter(bad))):
        ClassifyConfig(Window(50.0, 40.0), TauGrid(0.0, 100.0, 0.1), **bad)


def test_default_config_needs_five_samples():
    with pytest.raises(ConfigInvalid, match="4 samples"):
        default_classify_config(Signal(0.0, 0.1, np.zeros(4)))
    assert default_classify_config(Signal(0.0, 0.1, np.zeros(5))).window.half_width == 0.1


def test_rational_independence():
    assert rationally_independent([1.0, SQRT2])
    assert not rationally_independent([1.0, 2.0])
    assert not rationally_independent([1.0, 1.5])
    # Measured-with-noise irrationals stay independent.
    assert rationally_independent([1.0, SQRT2 + 1e-4 * math.e])
    assert rationally_independent([1.0 + 1e-5 * math.pi, SQRT2])


@pytest.mark.parametrize("freqs, independent", [
    ([0.7, 0.7 * 9_999 / 10_000], False),       # denominator 10^4
    ([0.3, 0.3 * 355 / 113], False),
    ([2.0, 2.0 * 499.5], False),
    ([1.0, 1.0 + 1 / 10_007], True),            # the best p/q, q <= 10^4, misses by ~7e-8
    ([1.0, 1.0 + 1 / 10_007, SQRT2], True),
    ([0.0, 1.0], False),
    ([SQRT2, -1.0], False),
    ([1.0, SQRT2, 0.0], False),
    ([SQRT2], True),
    ([-1.0], True),
    ([], True),
])
def test_rational_independence_edges(freqs, independent):
    assert rationally_independent(freqs) is independent


# ---------------------------------------------------------------------------
# comparability
# ---------------------------------------------------------------------------

CMP_GRID = TauGrid(0.0, 100.0, 0.01)
CMP_W = Window(40.0, 30.0)


def test_comparability_reflexive(sine):
    prof = comparability_profile(sine, sine, [0.5, 0.2, 0.1], CMP_GRID, CMP_W)
    assert prof.verdict == "comparable-evidence"
    for eps, dh in prof.pairs:
        assert dh >= eps


def test_comparability_lipschitz_composition():
    # x = sin of the base: |sin a - sin b| <= |a - b| makes every
    # delta-shift of the base an eps-shift of x.
    base = forcing_signal("levitan-base", 0.0, 300.0, 0.025)
    x = Signal(base.t0, base.dt, np.sin(base.samples))
    grid = TauGrid(0.0, 150.0, 0.1)
    w = Window(60.0, 60.0)
    prof = comparability_profile(x, base, [0.2, 0.1], grid, w)
    assert prof.verdict == "comparable-evidence"
    for eps, dh in prof.pairs:
        assert dh >= eps


def test_comparability_constant_sentinel(sine):
    const = Signal(sine.t0, sine.dt, np.full((len(sine), 1), 3.0))
    prof = comparability_profile(const, sine, [0.2, 0.1], CMP_GRID, CMP_W)
    assert all(d == float("inf") for _, d in prof.pairs)
    assert prof.verdict == "comparable-evidence"


def test_comparability_refuted_ramp_vs_sine(sine, ramp):
    # The base recurs at 2 pi k but the ramp never does: the witness shift
    # has a tiny base discrepancy yet a large trajectory one.
    prof = comparability_profile(ramp, sine, [0.5], CMP_GRID, CMP_W)
    assert prof.verdict == "refuted"
    assert prof.witness is not None
    assert abs((prof.witness + math.pi) % (2 * math.pi) - math.pi) < 0.1


@pytest.mark.parametrize("x, y", [("sine", "sine"), ("ramp", "sine"), ("sine", "ramp")])
def test_capped_comparability_is_the_uncapped_one(x, y, sine, ramp):
    """Pairs, verdict and witness equal those from both whole profiles; ramp
    against sine is refuted, so its witness tau is checked too."""
    x, y = ({"sine": sine, "ramp": ramp}[name] for name in (x, y))
    got = comparability_profile(x, y, [0.5, 0.2, 0.1], CMP_GRID, CMP_W)
    assert got == comparability_uncapped(x, y, [0.5, 0.2, 0.1], CMP_GRID, CMP_W)
    assert (got.verdict == "refuted") == (x is ramp and y is sine)


@pytest.mark.parametrize("scale, step", [(0.3, 0.1), (1.0, 0.1), (1.0, 0.07)])
def test_capped_comparability_on_spiked_noise_is_the_uncapped_one(scale, step):
    """Every shift that moves the trajectory's spike fails it at each epsilon;
    the base's least discrepancy over those shifts is below the cap (0.5) at
    scale 0.3, so it is read off the capped profile, and above it at scale 1,
    so branch and bound finishes it."""
    x, w, _ = spiked_noise(1, 1, 900)
    y = spiked_noise(2, 1, 900)[0]
    y = Signal(y.t0, y.dt, scale * y.samples)
    grid = TauGrid(-3.9, 3.9, step)
    got = comparability_profile(x, y, [0.5, 0.2, 0.1], grid, w)
    assert got == comparability_uncapped(x, y, [0.5, 0.2, 0.1], grid, w)


@pytest.mark.parametrize("case", ["spiked", "ramp"])
def test_comparability_finishes_each_failing_mask_once(case, sine, ramp):
    """The base's least discrepancy is searched once for each epsilon that
    fails some tau of x, on the taus it fails, and the pairs are those of the
    whole profiles.  Every epsilon fails the same taus of the spiked x (those
    that move its spike)."""
    if case == "spiked":
        x, w, _ = spiked_noise(1, 1, 900)
        y, grid = spiked_noise(2, 1, 900)[0], TauGrid(-3.9, 3.9, 0.1)
    else:
        x, y, grid, w = sine, ramp, CMP_GRID, CMP_W
    eps = [0.5, 0.2, 0.1]
    masks = []
    for e in eps:
        bad = discrepancy_profile(x, grid.values(w, x, y), w) >= e
        if bad.any():
            masks.append(bad.tobytes())
    calls, argmin = [], recurrence._profile_argmin
    with patch.object(recurrence, "_profile_argmin",
                      lambda *a: calls.append(a[-1].tobytes()) or argmin(*a)):
        got = comparability_profile(x, y, eps, grid, w)
    assert calls == masks and len(masks) == 3
    assert len(set(masks)) == (1 if case == "spiked" else 3)
    assert got == comparability_uncapped(x, y, eps, grid, w)


@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([1, 3]),
       st.sampled_from([300, 513, 900]), st.sampled_from([1, 2, 64]))
def test_profile_argmin_is_the_first_least_exact_value(seed, dim, m, batch0):
    """Branch and bound over a capped profile returns np.argmin of the masked
    exact profile and its value, with every tau twice (ties), at every cap and
    batch size, for an empty, a random and a full mask and one without tau 0."""
    f, w, taus = spiked_noise(seed, dim, m)
    taus = np.concatenate([taus, taus[::-1]])
    exact = discrepancy_profile(f, taus, w)
    masks = [np.zeros(taus.size, bool), np.random.default_rng(seed).random(taus.size) < 0.5,
             np.ones(taus.size, bool), taus != 0.0]
    with patch.object(recurrence, "_MIN_BATCH0", batch0):
        for cap in (0.0, float(np.median(exact)), math.inf):
            D = discrepancy_profile(f, taus, w, cap=cap)
            for mask in masks:
                ref = np.where(mask, exact, np.inf)
                k = int(np.argmin(ref))
                assert recurrence._profile_argmin(f, taus, w, D, cap, mask) == (k, ref[k])


def test_delta_hat_monotone(sine, ramp):
    prof = comparability_profile(sine, ramp, [0.5, 0.2, 0.1], CMP_GRID, CMP_W)
    ordered = sorted(prof.pairs)
    for (e1, d1), (e2, d2) in zip(ordered, ordered[1:]):
        assert d1 <= d2 or d2 == float("inf")


# ---------------------------------------------------------------------------
# classifier cascade
# ---------------------------------------------------------------------------

def test_classify_sine(sine):
    rep = classify(sine)
    assert rep.classes["periodic"].verdict == "yes"
    assert rep.classes["periodic"].params["period"] == pytest.approx(
        2 * math.pi, abs=0.02)
    quasi = rep.classes["quasi_periodic"]
    assert quasi.verdict == "yes"
    assert quasi.params["independent_count"] == 1
    assert rep.classes["bohr_ap"].verdict == "yes"
    assert rep.classes["almost_recurrent"].verdict == "yes"
    assert rep.classes["poisson"].verdict == "yes"


def test_classify_constant():
    f = Signal(0.0, 0.1, np.full((501, 1), 2.5))
    rep = classify(f)
    assert rep.classes["stationary"].verdict == "yes"
    assert rep.classes["periodic"].verdict == "yes"


def test_classify_constant_is_quasi_periodic_with_no_frequency():
    # The verdict corpus's constant: a perfect fit with no frequency is a
    # quasi-periodic yes, as the period 0 of its periodic yes is.
    f = Signal(0.0, 0.05, np.ones((2000, 1)))
    rep = classify(f)
    assert rep.classes["stationary"].verdict == "yes"
    assert rep.classes["periodic"].verdict == "yes"
    assert rep.classes["periodic"].params["period"] == 0.0
    quasi = rep.classes["quasi_periodic"]
    assert quasi.verdict == "yes" and quasi.witness is None
    assert quasi.params["freqs"] == [] and quasi.params["independent_count"] == 0
    assert quasi.params["residual"] == 0.0 and quasi.notes == "stationary"


def test_classify_ramp_never_poisson(ramp):
    rep = classify(ramp)
    assert rep.classes["stationary"].verdict == "no"
    assert rep.classes["periodic"].verdict == "no"
    assert rep.classes["poisson"].verdict == "no"
    assert rep.classes["bohr_ap"].verdict == "no"
    assert rep.classes["pseudo_recurrent"].verdict == "no"


def test_classify_reflexive_base(sine):
    rep = classify(sine, base=sine)
    assert rep.comparability.verdict == "comparable-evidence"
    for eps, dh in rep.comparability.pairs:
        assert dh >= eps
    claimed = {c["class"] for c in rep.transfer["claims"]}
    assert "periodic" in claimed


def test_classify_levitan_mechanism():
    # Base verified uniformly almost periodic + comparability gives the
    # transferred evidence for the composition.
    base = forcing_signal("levitan-base", 0.0, 1000.0, 0.025)
    x = Signal(base.t0, base.dt, np.sin(base.samples))
    cfg = ClassifyConfig(window=Window(250.0, 250.0),
                         tau_grid=TauGrid(0.0, 400.0, 0.1),
                         bohr_epsilons=(0.5, 0.2),
                         fit_window=Window(250.0, 250.0))
    rep = classify(x, base=base, cfg=cfg)
    assert rep.comparability.verdict == "comparable-evidence"
    assert rep.transfer["levitan_evidence"] == "yes"


def test_sine_never_aperiodic_window_variants(sine):
    # Classifier soundness: exact periodic input is not classified
    # aperiodic for any reasonable window choice.
    for center, hw, tau_max in [(50.0, 40.0, 60.0), (100.0, 60.0, 39.0)]:
        cfg = ClassifyConfig(window=Window(center, hw),
                             tau_grid=TauGrid(0.0, tau_max, 0.01))
        rep = classify(sine, cfg=cfg)
        assert rep.classes["periodic"].verdict == "yes"


def noise_2001(growth):
    """iid uniform noise whose amplitude grows linearly from 1 to 1 + growth.

    Every D of the default grid is far above the cascade's cap (0.5), so no
    period is found and min_D is the exact minimum found by branch and bound.
    With growth 2 the window's head is quieter than its rest, so the bounds
    lie well below D and branch and bound needs three batches; without growth
    one batch settles it.
    """
    t = np.linspace(0.0, 1.0, 2001)
    vals = np.random.default_rng(1).uniform(-1.0, 1.0, 2001) * (1.0 + growth * t)
    return Signal(0.0, 0.1, vals)


@pytest.mark.parametrize("case", ["period", "min_D", "min_D_batches", "base"])
def test_capped_cascade_is_the_exact_cascade(case, monkeypatch):
    base = None
    if case == "period":
        f = sample_function(np.sin, 0.0, 100.0, 0.05)
    elif case.startswith("min_D"):
        f = noise_2001(2.0 if case == "min_D_batches" else 0.0)
        cfg = recurrence.default_classify_config(f)
        D = discrepancy_profile(f, cfg.tau_grid.values(), cfg.window, cap=0.5)
        assert D[1:].min() >= 0.5
    else:
        base = sample_function(np.sin, 0.0, 100.0, 0.05)
        f = Signal(base.t0, base.dt, np.sin(2.0 * base.samples))
    rep = jsonable(classify(f, base=base))
    exact = recurrence.discrepancy_profile
    monkeypatch.setattr(recurrence, "discrepancy_profile",
                        lambda f, taus, w, cap=math.inf: exact(f, taus, w))
    assert json.dumps(jsonable(classify(f, base=base))) == json.dumps(rep)
    periodic = rep["classes"]["periodic"]
    if case == "period":
        assert periodic["verdict"] == "yes"
    elif case.startswith("min_D"):
        assert periodic["witness"]["min_D"] > 0.5
    else:
        assert rep["comparability"]["verdict"] == "comparable-evidence"
