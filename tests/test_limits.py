import math
import tracemalloc
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from poisson_lab import limits
from poisson_lab.errors import DimensionMismatch, InsufficientReturns, NotCauchy
from poisson_lab.limits import (
    comparison_battery,
    contraction_check,
    convergence_check,
    entire_trajectory_estimate,
    gamma_extract,
    omega_fiber_sample,
)
from poisson_lab.recurrence import ReturnSequence
from poisson_lab.scenarios import build_scenario
from poisson_lab.signals import Signal, Window, sample_function
from poisson_lab.systems import (
    IntegratorConfig,
    SystemSpec,
    integrate_dde_batch,
    integrate_ode,
    integrate_ode_batch,
)
from references import _probe_directions, uniform_stability_estimate


def ode(A, forcing, dim=1):
    kind = "scalar_ode" if dim == 1 else "cooperative_ode"
    return SystemSpec(kind, dim, "linear+trig", {"A": A, "forcing": forcing})


RK45 = IntegratorConfig(method="rk45_adaptive", dt=0.01, rel_tol=1e-10,
                        abs_tol=1e-12, t_end=100.0, record_dt=0.05)


def periodic_returns(count, period=2 * math.pi, start=1):
    times = tuple(period * k for k in range(start, start + count))
    return ReturnSequence(times, (0.0,) * count, (1.0,) * count)


# ---------------------------------------------------------------------------
# omega sampling
# ---------------------------------------------------------------------------

def test_omega_sample_constant():
    f = Signal(0.0, 0.1, np.full((2001, 1), 1.25))
    _, snaps = omega_fiber_sample(f, periodic_returns(8), settle_time=20.0)
    assert np.abs(snaps - 1.25).max() == 0.0
    assert (snaps.max(axis=0) - snaps.min(axis=0)).max() == 0.0


def test_omega_sample_forced_scalar_phase_value():
    # x' = -x + sin t settles on (sin t - cos t)/2, which is -1/2 at
    # multiples of the period.
    sys = ode([[-1.0]], [[[1.0, 1.0, 0.0]]])
    traj = integrate_ode(sys, [0.0], RK45)
    _, snaps = omega_fiber_sample(traj, periodic_returns(12), settle_time=20.0)
    assert np.abs(snaps + 0.5).max() < 1e-4


def test_omega_sample_insufficient():
    f = Signal(0.0, 0.1, np.zeros((201, 1)))
    with pytest.raises(InsufficientReturns):
        omega_fiber_sample(f, periodic_returns(3), settle_time=19.0)


# ---------------------------------------------------------------------------
# gamma extraction
# ---------------------------------------------------------------------------

def test_gamma_geometric_tail_contracting():
    # x' = -x + sin t with period returns: gaps shrink by about exp(-2 pi)
    # per return until they hit the integration floor.
    sys = ode([[-1.0]], [[[1.0, 1.0, 0.0]]])
    cfg = replace(RK45, t_end=50.0)
    gamma, gaps = gamma_extract(sys, [1.0], periodic_returns(6), cfg, tol=1e-4)
    ratio = gaps[1] / gaps[0]
    assert ratio == pytest.approx(math.exp(-2 * math.pi), rel=0.2)
    assert gamma[0] == pytest.approx(-0.5, abs=1e-6)


def test_gamma_equilibrium_zero_gaps():
    sys = ode([[-1.0]], [[]])
    gamma, gaps = gamma_extract(sys, [0.0], periodic_returns(5), replace(RK45, t_end=40.0))
    assert all(x == 0.0 for x in gaps)
    assert gamma[0] == 0.0


def test_gamma_expansion_not_cauchy():
    sys = ode([[1.0]], [[]])
    cfg = IntegratorConfig(method="rk4_fixed", dt=0.01, t_end=40.0,
                           record_dt=0.1, blowup_bound=1e12)
    with pytest.raises(NotCauchy):
        gamma_extract(sys, [1e-3], periodic_returns(5), cfg)


# ---------------------------------------------------------------------------
# uniform stability
# ---------------------------------------------------------------------------

def test_stability_contraction():
    sys = ode([[-1.0]], [[]])
    table = uniform_stability_estimate(sys, [0.0], [0.1, 0.2], probes=8,
                                       horizon=5.0)
    for eps, dh in table:
        assert dh >= eps * (1 - 1e-3)
    assert table[0][1] <= table[1][1]


def test_stability_isometric():
    sys = ode([[0.0]], [[]])
    table = uniform_stability_estimate(sys, [0.0], [0.1], probes=8, horizon=5.0)
    eps, dh = table[0]
    assert eps * (1 - 1e-3) <= dh <= eps


def test_stability_expansion():
    sys = ode([[1.0]], [[]])
    table = uniform_stability_estimate(sys, [0.0], [0.1], probes=8, horizon=10.0)
    eps, dh = table[0]
    assert dh == pytest.approx(eps * math.exp(-10.0), rel=0.05)


@pytest.mark.parametrize("eps_list", [[-0.1, 0.0, 0.1], [0.0], [0.2, -1e-9]])
def test_stability_rejects_nonpositive_epsilon(eps_list):
    with pytest.raises(ValueError):
        uniform_stability_estimate(ode([[-1.0]], [[]]), [0.0], eps_list, probes=8,
                                   horizon=5.0)


@st.composite
def hurwitz_systems(draw):
    """A scalar or a non-normal cooperative 2x2 Hurwitz system, an anchor and
    an eps list."""
    triple = st.tuples(st.floats(-1.0, 1.0), st.floats(0.1, 3.0), st.floats(0.0, 2 * math.pi))
    if draw(st.booleans()):
        A, dim = [[draw(st.floats(-3.0, -0.05))]], 1
    else:
        a, d = draw(st.floats(0.1, 3.0)), draw(st.floats(0.1, 3.0))
        b = draw(st.floats(0.0, 6.0))
        # b c < a d keeps det > 0; with trace < 0 the matrix is Hurwitz.
        c = draw(st.floats(0.0, 0.95)) * (min(6.0, a * d / b) if b > 0 else 6.0)
        A, dim = [[-a, b], [c, -d]], 2
    forcing = [draw(st.lists(triple, max_size=2)) for _ in range(dim)]
    anchor = [draw(st.floats(-2.0, 2.0)) for _ in range(dim)]
    eps_list = draw(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=3))
    return ode(A, forcing, dim), anchor, eps_list


def _probe_deviation(sys, anchor, radius, probes, horizon, seed):
    """Brute force: the largest deviation from the anchor trajectory of the
    probes started ``radius`` away, each integrated on its own."""
    cfg = IntegratorConfig(method="rk4_fixed", dt=1e-2, t_end=horizon,
                           record_dt=max(1e-2, horizon / 1000))
    dirs = _probe_directions(sys.dim, probes, np.random.default_rng(seed))
    anchor = np.asarray(anchor, dtype=float)
    ref = integrate_ode(sys, anchor, cfg).samples
    return max(float(np.abs(integrate_ode(sys, anchor + radius * dirs[:, p], cfg).samples
                            - ref).max()) for p in range(probes))


@settings(max_examples=40)
@given(case=hurwitz_systems(), horizon=st.floats(1.0, 8.0), seed=st.integers(0, 5))
@example(case=(ode([[-1.0, 5.0], [0.01, -1.0]], [[], []], dim=2), [0.5, -0.5], [0.1]),
         horizon=6.0, seed=0)
def test_stability_modulus_matches_brute_force(case, horizon, seed):
    sys, anchor, eps_list = case
    table = uniform_stability_estimate(sys, anchor, eps_list, probes=8, horizon=horizon,
                                       seed=seed)
    assert [e for e, _ in table] == sorted(eps_list)
    for eps, dh in table:
        assert 0.0 < dh <= eps
        assert _probe_deviation(sys, anchor, 0.999 * dh, 8, horizon, seed) < eps
        assert _probe_deviation(sys, anchor, 1.001 * dh, 8, horizon, seed) >= eps


# ---------------------------------------------------------------------------
# convergence
# ---------------------------------------------------------------------------

def test_convergence_identical():
    f = sample_function(np.sin, 0.0, 50.0, 0.01)
    splits, _, passed = convergence_check(f, f, threshold=1e-6, split_count=5)
    assert passed
    assert all(s == 0.0 for _, s in splits)


def test_convergence_contracting_pair():
    sys = ode([[-1.0]], [[[1.0, 1.0, 0.0]]])
    cfg = replace(RK45, t_end=50.0)
    a = integrate_ode(sys, [0.0], cfg)
    b = integrate_ode(sys, [1.0], cfg)
    from poisson_lab.signals import sup_distance
    assert sup_distance(a, b, Window(12.5, 2.5)) <= math.exp(-10.0) + 1e-6
    _, trend, passed = convergence_check(a, b, threshold=1e-3, split_count=5)
    assert passed and trend == "decreasing"


def test_convergence_expanding_pair_fails():
    sys = ode([[1.0]], [[]])
    cfg = IntegratorConfig(method="rk4_fixed", dt=0.01, t_end=10.0,
                           record_dt=0.05, blowup_bound=1e9)
    a = integrate_ode(sys, [1e-4], cfg)
    b = integrate_ode(sys, [2e-4], cfg)
    _, trend, passed = convergence_check(a, b, threshold=1e-3, split_count=4)
    assert trend == "increasing"
    assert not passed


def test_convergence_of_different_dims_is_a_dimension_mismatch():
    a = sample_function(np.sin, 0.0, 50.0, 0.01)
    b = sample_function(lambda ts: np.column_stack([np.sin(ts), np.cos(ts)]), 0.0, 50.0, 0.01)
    with pytest.raises(DimensionMismatch, match="^dims differ: 1 vs 2$"):
        convergence_check(a, b, threshold=1e-3, split_count=4)


# ---------------------------------------------------------------------------
# entire trajectory
# ---------------------------------------------------------------------------

def test_entire_trajectory_periodic():
    f = sample_function(np.sin, 0.0, 100.0, 0.01)
    gamma, agreement = entire_trajectory_estimate(f, periodic_returns(10, start=3),
                                                  half_width=10.0)
    assert agreement <= 1e-4
    assert gamma.t0 == pytest.approx(-10.0, abs=0.02)


def test_entire_trajectory_ramp_flagged():
    f = sample_function(lambda t: np.asarray(t, dtype=float), 0.0, 100.0, 0.01)
    fake = ReturnSequence((40.0, 60.0), (0.0, 0.0), (1.0, 1.0))
    gamma, agreement = entire_trajectory_estimate(f, fake, half_width=10.0)
    # Translates of a ramp differ by the return spacing.
    assert agreement == pytest.approx(20.0, abs=1e-6)


def test_entire_trajectory_insufficient():
    f = sample_function(np.sin, 0.0, 30.0, 0.01)
    with pytest.raises(InsufficientReturns):
        entire_trajectory_estimate(f, periodic_returns(2, start=4), half_width=14.0)


def test_sparse_readers_of_a_long_trajectory_solve_local_windows():
    # s1's readers on a 300,001-sample trajectory read the values of the whole
    # spline without building it; scattered reads build it once local windows
    # have solved len(traj) rows.
    traj = sample_function(lambda t: np.sin(t) + 0.5 * np.sin(math.sqrt(2.0) * t),
                           0.0, 3000.0, 0.01)
    whole = Signal(traj.t0, traj.dt, traj.samples)
    whole._spline
    returns = periodic_returns(12, start=460)
    (times, snaps), (times_whole, snaps_whole) = (
        omega_fiber_sample(f, returns, 100.0) for f in (traj, whole))
    assert np.array_equal(times, times_whole)
    assert np.array_equal(snaps, snaps_whole)
    (gamma, agreement), (gamma_whole, agreement_whole) = (
        entire_trajectory_estimate(f, returns, 12.0) for f in (traj, whole))
    assert agreement == agreement_whole
    assert np.array_equal(gamma.samples, gamma_whole.samples)
    assert "_spline" not in traj.__dict__

    rng = np.random.default_rng(3)
    spent = []
    while "_spline" not in traj.__dict__:
        ts = rng.uniform(traj.t0, traj.t_end, 64)
        assert np.array_equal(traj.values(ts), whole.values(ts))
        spent.append(traj.__dict__["_local_rows"])
    # A read solves at most 64 windows of 3 * 64 + 1 rows.
    assert len(spent) > 10 and spent[-1] == spent[-2]
    assert len(traj) - 64 * 193 < spent[-1] <= len(traj)


# ---------------------------------------------------------------------------
# contraction
# ---------------------------------------------------------------------------

def test_contraction_verdicts():
    box = [[-1.0, 1.0]]
    assert contraction_check(ode([[-1.0]], [[]]), pairs=8, horizon=5.0, box=box) is None
    assert contraction_check(ode([[0.0]], [[]]), pairs=8, horizon=5.0, box=box) is not None
    hurwitz = ode([[-2.0, 1.0], [1.0, -2.0]], [[], []], dim=2)
    assert contraction_check(hurwitz, pairs=8, horizon=5.0, box=box * 2) is None


@pytest.mark.parametrize("seed", range(8))
def test_contraction_witness_is_the_first_failing_pair_then_time(seed):
    # The first component contracts, the second not, and its gaps are small:
    # a pair fails once its first-component gap has shrunk below them.
    sys = ode([[-1.0, 0.0], [0.0, 0.0]], [[], []], dim=2)
    box = np.array([[-1.0, 1.0], [-1e-3, 1e-3]])
    res = contraction_check(sys, pairs=16, horizon=5.0, box=box, seed=seed)
    # The pair-by-pair loop over the same draws and records.
    cfg = IntegratorConfig(method="rk4_fixed", dt=1e-3, t_end=5.0, record_dt=1.0)
    rng = np.random.default_rng(seed)
    A, B = (rng.uniform(box[:, 0], box[:, 1], size=(16, 2)).T for _ in range(2))
    ts, Ya = integrate_ode_batch(sys, A, cfg)
    gaps = np.abs(Ya - integrate_ode_batch(sys, B, cfg)[1]).max(axis=1)
    witness = next(((p, float(ts[i]), float(gaps[i - 1, p]), float(gaps[i, p]))
                    for p in range(16) if not gaps[0, p] < 1e-12
                    for i in range(1, len(ts)) if not gaps[i, p] < gaps[i - 1, p]), None)
    assert res == witness


# ---------------------------------------------------------------------------
# ordered-pair battery
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["s3-coop-2d", "s4-dde-linear", "s5-rd-scalar"])
def test_battery_ordered_for_catalog_systems(name):
    cfg = build_scenario(name)
    box = cfg.analysis["state_box"]
    if name == "s3-coop-2d":
        icfg = None
    elif name == "s4-dde-linear":
        icfg = cfg.integrator
    else:
        icfg = replace(cfg.integrator, space_points=64, record_dt=0.5, dt=0.5)
    worst, witness = comparison_battery(cfg.system, box, 20, 20.0, cfg=icfg, seed=0)
    assert witness is None
    assert worst <= 1e-6


def test_battery_unordered_ode_witness():
    sys = ode([[-1.0, -0.5], [0.5, -1.0]], [[], []], dim=2)
    worst, witness = comparison_battery(sys, [[-2.0, 2.0], [-2.0, 2.0]], 20, 20.0, seed=0)
    assert witness is not None and worst > 0.1
    t, comp, pair = witness
    assert 0.0 < t <= 20.0 and comp in (0, 1) and 0 <= pair < 20
    assert t / 0.05 == pytest.approx(round(t / 0.05))


def test_battery_unordered_dde_witness():
    sys = SystemSpec("dde_single_delay", 1, "delay-linear",
                     {"A_self": [[-2.0]], "A_delay": [[-1.0]], "delay": 1.0,
                      "forcing": [[[1.0, 1.0, 0.0]]]})
    icfg = IntegratorConfig(method="rk4_fixed", dt=0.01, record_dt=0.05)
    worst, witness = comparison_battery(sys, [[-2.0, 2.0]], 20, 20.0, cfg=icfg, seed=0)
    assert witness is not None and worst > 0.1
    t, comp, pair = witness
    assert 0.0 < t <= 20.0 + 0.05 and comp == 0 and 0 <= pair < 20


_DDE = SystemSpec("dde_single_delay", 1, "delay-linear",
                  {"A_self": [[-2.0]], "A_delay": [[1.0]], "delay": 1.0,
                   "forcing": [[[1.0, 1.0, 0.0]]]})


# A scalar ODE the RK4 closed form runs, one it turns away (an offset on a zero A
# grows without bound, so the step loop runs), and a scalar DDE.
@pytest.mark.parametrize("sys, integrate", [
    (ode([[-1.0]], [[[1.0, 2.0, 0.3]]]), integrate_ode_batch),
    (SystemSpec("scalar_ode", 1, "linear+trig",
                {"A": [[0.0]], "forcing": [[[1.0, 2.0, 0.3]]], "offset": [0.5]}),
     integrate_ode_batch),
    (_DDE, integrate_dde_batch),
])
@pytest.mark.parametrize("count", [1, 2, 3, 100, 101])
def test_a_one_entry_battery_is_one_pass_with_the_bits_of_two(sys, integrate, count):
    cfg = IntegratorConfig(method="rk4_fixed", dt=0.01, t_end=3.0, record_dt=0.05)
    lo, up = limits.ordered_pairs([[-2.0, 2.0]], count, np.random.default_rng(count))
    _, Y = integrate(sys, np.concatenate((lo, up), axis=-1), cfg)
    assert Y[..., :count].tobytes() == integrate(sys, lo, cfg)[1].tobytes()
    assert Y[..., count:].tobytes() == integrate(sys, up, cfg)[1].tobytes()
    with patch.object(limits, integrate.__name__, wraps=integrate) as spy:
        assert comparison_battery(sys, [[-2.0, 2.0]], count, 3.0, cfg=cfg)[1] is None
    assert spy.call_count == 1


@pytest.mark.parametrize("name, integrate", [("s3-coop-2d", "integrate_ode_batch"),
                                             ("s5-rd-scalar", "integrate_parabolic_batch")])
def test_a_wider_battery_runs_two_passes(name, integrate):
    # A two-entry state's and a field's BLAS products round a column by the
    # batch width, so their lower and upper starts are two integrator calls.
    cfg = build_scenario(name)
    icfg = replace(cfg.integrator, space_points=16, record_dt=0.5, dt=0.5) \
        if name == "s5-rd-scalar" else None
    with patch.object(limits, integrate, wraps=getattr(limits, integrate)) as spy:
        assert comparison_battery(cfg.system, cfg.analysis["state_box"], 3, 2.0,
                                  cfg=icfg)[1] is None
    assert spy.call_count == 2


_RD_CFG = IntegratorConfig(method="rk4_fixed", dt=0.5, t_end=2.0, record_dt=0.5,
                           space_points=16)


def test_battery_of_a_reaction_without_L_runs_on_its_default_length():
    # build_reaction defaults L to 1.0; the start fields once read params["L"].
    params = {"nu": [0.1], "decay": [1.0], "source_amp": [1.0]}
    bare, given = (comparison_battery(SystemSpec("parabolic_1d", 1, "rd-scalar", p),
                                      [[-2.0, 2.0]], 3, 2.0, cfg=_RD_CFG)
                   for p in (params, {**params, "L": 1.0}))
    assert bare == given and bare[1] is None


def test_battery_of_two_species_draws_a_field_per_species():
    # The start fields were once one species whatever the system's dim.
    sys = SystemSpec("parabolic_1d", 2, "rd-scalar",
                     {"nu": [0.1, 0.3], "L": 2.0, "decay": [1.0, 0.5], "source_amp": [1.0, 0.5]})
    with patch.object(limits, "integrate_parabolic_batch",
                      wraps=limits.integrate_parabolic_batch) as spy:
        assert comparison_battery(sys, [[-2.0, 2.0]] * 2, 3, 2.0, cfg=_RD_CFG)[1] is None
    assert [call.args[1].shape for call in spy.call_args_list] == [(2, 16, 3)] * 2


def test_battery_holds_two_battery_arrays_and_chunk_temporaries():
    # The scale is taken from the extremes and the gap formed in place, so on s5's
    # battery the traced peak is the two batteries plus chunk-sized integration
    # arrays; stacking them and taking |.| held four more.
    cfg = build_scenario("s5-rd-scalar")
    ana = cfg.analysis
    icfg = replace(cfg.integrator, space_points=ana["battery_points"], record_dt=0.5, dt=0.5)
    records = round(ana["battery_horizon"] / icfg.record_dt) + 1
    one = 8 * records * ana["battery_points"] * ana["battery_count"]
    tracemalloc.start()
    try:
        _, witness = comparison_battery(cfg.system, ana["state_box"], ana["battery_count"],
                                        ana["battery_horizon"], cfg=icfg, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert witness is None
    assert peak < 2.5 * one


@given(st.lists(st.sampled_from([0.0, -0.0]) | st.floats(-1e3, 1e3), min_size=1, max_size=30),
       st.booleans())
@example([0.0, -0.0, 2.5, -0.0], False)
@example([-7.0, 0.0, 1e-3], True)
def test_battery_tolerance_is_the_largest_magnitude_bit_for_bit(values, above):
    # Stubbed batteries agree except at their last entry, where the gap is the
    # tolerance 1e-9 + 1e-6 max |Y| formed with np.abs over both batteries (ordered),
    # or the next float above it (violated there).
    scale = float(np.abs(values).max())
    assume(scale >= 1e-8)  # the gap entry, about 1e-6 scale, then sets no new max
    tol = 1e-9 + 1e-6 * scale
    gap = np.nextafter(tol, math.inf) if above else tol
    Ylo = np.array(values + [0.0]).reshape(-1, 1, 1)
    Yup = Ylo.copy()
    Yup[-1] = -gap
    assert 1e-9 + 1e-6 * float(np.abs(np.stack([Ylo, Yup])).max()) == tol
    ts = 0.5 * np.arange(len(Ylo))
    # A one-entry battery is one integrator call, both batteries on the last axis.
    batteries = iter([np.concatenate((Ylo, Yup), axis=-1)])
    with patch.object(limits, "integrate_ode_batch", lambda *_: (ts, next(batteries))):
        worst, witness = comparison_battery(ode([[-1.0]], [[]]), [[0.0, 1.0]], 1, 1.0)
    assert worst == gap
    assert witness == ((ts[-1], 0, 0) if above else None)
