import math
import pickle
import re
import tracemalloc
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from poisson_lab import systems
from poisson_lab.errors import (
    BlowupDetected,
    ConfigInvalid,
    DimensionMismatch,
    GridTooCoarse,
    HistoryDomainMismatch,
    StepUnderflow,
    UnknownRegistryKey,
)
from poisson_lab.limits import entire_trajectory_estimate, omega_fiber_sample
from poisson_lab.recurrence import ReturnSequence
from poisson_lab.scenarios import RunManifest, _check_state_box, build_scenario
from poisson_lab.signals import LazySignal, Signal, sample_function
from poisson_lab.systems import (
    _BLOCK,
    IntegratorConfig,
    SystemSpec,
    TrigSum,
    _dopri5,
    _dopri5_trials,
    _fold_terms,
    _record_times,
    _affine_steps,
    _half_values,
    _rk4_affine_steps,
    _rk4_coeffs,
    _rk4_particular,
    _rk4_record,
    _trig_sum,
    affine_rhs,
    build_dde_rhs,
    build_ode_rhs,
    build_reaction,
    forcing_signal,
    integrate,
    integrate_dde,
    integrate_dde_batch,
    integrate_ode,
    integrate_ode_batch,
    integrate_ode_snapshots,
    integrate_parabolic,
    integrate_parabolic_batch,
    quasimonotone_check,
)
from references import (
    _rk4_span,
    affine_steps_matmul,
    cocycle_defect,
    dde_cocycle_defect,
    dopri5_array_loop,
    dopri5_stage_loop,
    dopri5_stage_step,
    half_values_gather,
    order_check,
    parabolic_cocycle_defect,
    rk4_record_powers,
)

SQRT2 = math.sqrt(2.0)


def ode(A, forcing, dim=None):
    dim = dim or len(A)
    kind = "scalar_ode" if dim == 1 else "cooperative_ode"
    return SystemSpec(kind, dim, "linear+trig", {"A": A, "forcing": forcing})


RK45 = IntegratorConfig(method="rk45_adaptive", dt=0.01, rel_tol=1e-8,
                        abs_tol=1e-10, t_end=10.0, record_dt=0.05)


# ---------------------------------------------------------------------------
# test-side oracle: undetermined coefficients, verified by differencing
# ---------------------------------------------------------------------------

def particular(A, forcing):
    """Independent oracle for u' = A u + sum amp sin(wt + phase)."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    groups = {}
    for i, terms in enumerate(forcing):
        for amp, om, ph in terms:
            groups.setdefault((om, ph), np.zeros(n))[i] += amp
    parts = []
    for (om, ph), b in groups.items():
        c = np.linalg.solve(A @ A + om * om * np.eye(n), -A @ b)
        d = -(A @ c + b) / om
        parts.append((om, ph, c, d))

    def fn(ts):
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        out = np.zeros((ts.size, n))
        for om, ph, c, d in parts:
            out += np.outer(np.sin(om * ts + ph), c) + np.outer(np.cos(om * ts + ph), d)
        return out

    # Self-check: the oracle must satisfy the equation to finite-difference
    # accuracy before it is trusted.
    h = 1e-5
    for t in (0.3, 2.7):
        du = (fn(t + h)[0] - fn(t - h)[0]) / (2 * h)
        p = sum(np.sin(om * t + ph) * b for (om, ph), b in groups.items())
        resid = np.abs(du - (A @ fn(t)[0] + p)).max()
        assert resid < 1e-8, "oracle fails its own defining equation"
    return fn


# ---------------------------------------------------------------------------
# ODE integration
# ---------------------------------------------------------------------------

def test_exponential_decay():
    sys = ode([[-1.0]], [[]])
    sol = integrate_ode(sys, [1.0], replace(RK45, t_end=1.0))
    assert sol.values([1.0])[0, 0] == pytest.approx(math.exp(-1.0), abs=1e-6)


def test_zero_rhs_constant():
    sys = ode([[0.0]], [[]])
    sol = integrate_ode(sys, [0.7], replace(RK45, t_end=5.0))
    assert np.abs(sol.samples - 0.7).max() < 1e-12


def test_forced_scalar_matches_oracle():
    forcing = [[[1.0, 1.0, 0.0]]]
    sys = ode([[-1.0]], forcing)
    fn = particular([[-1.0]], forcing)
    # Known closed form: (sin t - cos t) / 2.
    ts = np.array([0.0, 1.0, 2.5])
    assert np.abs(fn(ts) - 0.5 * (np.sin(ts) - np.cos(ts))[:, None]).max() < 1e-12
    sol = integrate_ode(sys, fn(0.0)[0], replace(RK45, t_end=50.0))
    assert np.abs(sol.samples - fn(sol.times())).max() < 1e-6


def test_first_sample_is_initial_state():
    sys = ode([[-1.0]], [[]])
    sol = integrate_ode(sys, [0.3], RK45)
    assert sol.values([0.0])[0, 0] == 0.3


@pytest.mark.parametrize("A,forcing,dim", [
    ([[-1.0]], [[[1.0, 1.0, 0.0], [1.0, SQRT2, 0.0]]], 1),
    ([[-2.0, 1.0], [1.0, -2.0]], [[[1.0, 1.0, 0.0]], [[1.0, 1.0, math.pi / 2]]], 2),
])
def test_adaptive_fixed_cross_check(A, forcing, dim):
    sys = ode(A, forcing, dim)
    u0 = np.full(dim, 0.25)
    a = integrate_ode(sys, u0, replace(RK45, t_end=10.0))
    b = integrate_ode(sys, u0, IntegratorConfig(
        method="rk4_fixed", dt=1e-3, t_end=10.0, record_dt=0.05))
    assert np.abs(a.samples - b.samples).max() < 1e-5


@pytest.mark.parametrize("A,forcing,dim", [
    ([[-1.0]], [[[1.0, 1.0, 0.0], [1.0, SQRT2, 0.0]]], 1),
    ([[-2.0, 1.0], [1.0, -2.0]], [[[1.0, 1.0, 0.0]], [[1.0, 1.0, math.pi / 2]]], 2),
])
def test_cocycle_identity_random_pairs(A, forcing, dim):
    # Restarting at tau with the translated forcing must reproduce the
    # direct integration to t + tau.
    sys = ode(A, forcing, dim)
    rng = np.random.default_rng(7)
    cfg = replace(RK45, rel_tol=1e-10, abs_tol=1e-12)
    u0 = np.full(dim, -0.4)
    for _ in range(20):
        t, tau = rng.uniform(0.5, 8.0, size=2)
        assert cocycle_defect(sys, u0, cfg, t, tau) < 1e-7


def _grow_ode(cfg):
    return integrate_ode(ode([[1.0]], [[]]), [1.0], cfg)


def _grow_dde(cfg):
    return integrate_dde(dde(1.0, 0.0, [[]]), const_history(1.0), cfg)


def _grow_parabolic(cfg):
    m = 16
    return integrate_parabolic(rd(decay=-1.0), np.ones((1, m)),
                               replace(cfg, space_points=m))


@pytest.mark.parametrize("grow", [
    pytest.param(_grow_ode, id="ode"),
    pytest.param(_grow_dde, id="dde"),
    pytest.param(_grow_parabolic, id="parabolic"),
])
def test_blowup_detected(grow):
    # Each state is e^t (the parabolic field stays flat), which first exceeds
    # the bound at the record t = 7: e^6.9 = 992, e^7 = 1097.
    cfg = IntegratorConfig(method="rk4_fixed", dt=0.01, t_end=20.0,
                           record_dt=0.1, blowup_bound=1e3)
    with pytest.raises(BlowupDetected, match=r"exceeds bound 1000 at t=7$"):
        grow(cfg)


def test_fast_blowup_raises_only_blowup():
    # e^{10 t} passes the bound at t = 2.1 and overflows a float by t = 71,
    # within the same chunk of records.
    cfg = IntegratorConfig(method="rk4_fixed", dt=0.01, t_end=100.0, record_dt=0.1)
    with pytest.raises(BlowupDetected, match=r"at t=2.1$"):
        integrate_ode(ode([[10.0]], [[]]), [1.0], cfg)


def test_unstable_rest_state_stays_at_rest():
    # The homogeneous part is 0 * P^k; P^k overflows by t = 1420.
    cfg = IntegratorConfig(method="rk4_fixed", dt=0.1, t_end=2000.0, record_dt=0.1)
    sys = ode([[0.5]], [[]])
    assert not integrate_ode(sys, [0.0], cfg).samples.any()
    assert not integrate_ode_batch(sys, np.zeros((1, 2)), cfg)[1].any()


@pytest.mark.parametrize("run, message", [
    pytest.param(lambda sys, cfg: integrate_ode(sys, [1.0], cfg),
                 "state norm 1092.31 exceeds bound 1000 at t=6.99605", id="dense"),
    pytest.param(lambda sys, cfg: integrate_ode_snapshots(sys, [1.0], cfg, [5.0, 10.0]),
                 "state norm 1016.08 exceeds bound 1000 at t=6.9237", id="snapshots"),
])
def test_adaptive_blowup_stops_at_first_step_past_bound(run, message):
    # Dopri5 checks every accepted step, not only the records.
    cfg = replace(RK45, record_dt=0.1, blowup_bound=1e3)
    with pytest.raises(BlowupDetected) as exc:
        run(ode([[1.0]], [[]]), cfg)
    assert str(exc.value).endswith(message)


@pytest.mark.parametrize("method", ["rk4_fixed", "rk45_adaptive"])
@pytest.mark.parametrize("times", [[1.0, math.nan], [1.0, math.inf], [math.nan],
                                   [-1.0, 1.0], [1.0, 1.0]])
def test_snapshot_times_must_be_finite_and_increasing(method, times):
    cfg = replace(RK45, method=method)
    with pytest.raises(ConfigInvalid) as exc:
        integrate_ode_snapshots(ode([[-1.0]], [[]]), [1.0], cfg, times)
    assert str(exc.value) == "snapshot times must be finite, positive and increasing"


def test_rk4_snapshot_blowup_names_its_absolute_time():
    # e^6 = 403 is inside the bound, e^8 = 2981 past it: the message names
    # the snapshot time 8, not the 2 that the span from 6 lasts.
    cfg = IntegratorConfig(method="rk4_fixed", dt=0.01, blowup_bound=1e3)
    with pytest.raises(BlowupDetected) as exc:
        integrate_ode_snapshots(ode([[1.0]], [[]]), [1.0], cfg, [2.0, 4.0, 6.0, 8.0, 10.0])
    assert str(exc.value) == "state norm 2980.96 exceeds bound 1000 at t=8"


def test_negative_dt_rejected():
    with pytest.raises(ConfigInvalid):
        IntegratorConfig(dt=-0.1)


@pytest.mark.parametrize("fields", [
    *(pytest.param({"record_dt": v}, id=str(v)) for v in (math.nan, math.inf, 0.0, -0.05)),
    # record_dt / dt overflows to inf for a subnormal step.
    pytest.param({"record_dt": 1.0, "dt": 1e-320}, id="subnormal-dt"),
    # An infinite tolerance would switch the adaptive error control off.
    *(pytest.param({tol: v}, id=f"{tol}-{v}")
      for tol in ("rel_tol", "abs_tol") for v in (math.inf, math.nan)),
    # So would an infinite blowup bound switch the bound check off.
    *(pytest.param({"blowup_bound": v}, id=f"blowup_bound-{v}") for v in (math.inf, math.nan)),
])
def test_bad_record_dt_rejected(fields):
    """Bad record steps, and step or tolerance settings, are refused."""
    with pytest.raises(ConfigInvalid):
        IntegratorConfig(**{"method": "rk4_fixed", "dt": 0.01, "t_end": 2.0, **fields})


_START_CFG = IntegratorConfig(method="rk4_fixed", dt=0.1, t_end=1.0, record_dt=0.5,
                              space_points=8)
_COOP = ode([[-1.0, 0.5], [0.5, -1.0]], [[[1.0, 1.0, 0.0]], []])
_FIELD = np.ones((1, 8))


# Each integrator entry with a start whose entry ``bad`` is put at one place.
_STARTS = {
    "ode-rk4": lambda bad: integrate_ode(_COOP, [0.5, bad], _START_CFG),
    "ode-rk45": lambda bad: integrate_ode(_COOP, [0.5, bad], RK45),
    "snapshots": lambda bad: integrate_ode_snapshots(_COOP, [bad, 0.5], RK45, [1.0]),
    "ode-batch": lambda bad: integrate_ode_batch(_COOP, [[0.5, 1.0], [0.0, bad]], _START_CFG),
    "dde-batch": lambda bad: integrate_dde_batch(dde(-1.0, 0.5, [[]]), [[0.5, bad]],
                                                 _START_CFG),
    "parabolic": lambda bad: integrate_parabolic(rd(), np.where(
        np.arange(8) == 3, bad, _FIELD), _START_CFG),
    "parabolic-batch": lambda bad: integrate_parabolic_batch(rd(), np.where(
        np.arange(2) == 1, bad, _FIELD[..., None]), _START_CFG),
}


@pytest.mark.parametrize("entry", _STARTS)
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_start_is_one_config_line(entry, bad):
    # Without the check, RK4 would end in BlowupDetected at the first record
    # and Dopri5 in StepUnderflow at t = 0, neither naming the start.
    with pytest.raises(ConfigInvalid) as exc:
        _STARTS[entry](bad)
    assert re.fullmatch(r"(initial state|batch starts|history batch|initial field) "
                        r"must be finite", str(exc.value))
    _STARTS[entry](0.25)  # the same start with a finite entry runs


@pytest.mark.parametrize("run, shape", [
    (lambda: integrate_ode(_COOP, [0.5], RK45), "initial state must have shape (2)"),
    (lambda: integrate_ode_batch(_COOP, [0.5, 1.0], _START_CFG),
     "batch starts must have shape (2, batch)"),
    (lambda: integrate_dde_batch(dde(-1.0, 0.5, [[]]), np.ones((2, 3)), _START_CFG),
     "history batch must have shape (1, batch)"),
    (lambda: integrate_parabolic(rd(), np.ones((2, 8)), _START_CFG),
     "initial field must have shape (1, m)"),
    (lambda: integrate_parabolic_batch(rd(), np.ones(8), _START_CFG),
     "initial field must have shape (1, m, b)"),
], ids=["ode", "ode-batch", "dde-batch", "parabolic", "parabolic-batch"])
def test_wrong_shaped_start_names_the_shape(run, shape):
    with pytest.raises(DimensionMismatch) as exc:
        run()
    assert str(exc.value) == shape


# ---------------------------------------------------------------------------
# affine RK4 core against the generic stage loop
# ---------------------------------------------------------------------------

@st.composite
def affine_systems(draw):
    """Scalar or cooperative Hurwitz 2x2 A with random trig forcing."""
    dim = draw(st.sampled_from([1, 2]))
    if dim == 1:
        A = [[draw(st.floats(-3.0, 0.1))]]
    else:
        d1, d2 = draw(st.floats(-3.0, -0.1)), draw(st.floats(-3.0, -0.1))
        o1, o2 = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
        assume(d1 * d2 - o1 * o2 > 1e-3)
        A = [[d1, o1], [o2, d2]]
    triple = st.tuples(st.floats(-2.0, 2.0), st.floats(0.1, 3.0), st.floats(0.0, 2 * math.pi))
    forcing = [draw(st.lists(triple, max_size=2)) for _ in range(dim)]
    offset = [draw(st.floats(-1.0, 1.0)) for _ in range(dim)]
    kind = "scalar_ode" if dim == 1 else "cooperative_ode"
    return SystemSpec(kind, dim, "linear+trig",
                      {"A": A, "forcing": forcing, "offset": offset})


def _close(got, ref):
    return np.abs(got - ref).max() <= 1e-12 * max(np.abs(ref).max(), 1e-300)


@given(sys=affine_systems(), dt=st.floats(0.01, 0.2), m=st.integers(1, 4),
       t_end=st.floats(0.5, 50.0), seed=st.integers(0, 2**16))
def test_rk4_drivers_match_stage_loop(sys, dt, m, t_end, seed):
    rng = np.random.default_rng(seed)
    record_dt = m * dt
    assume(t_end >= record_dt)
    cfg = IntegratorConfig(method="rk4_fixed", dt=dt, t_end=t_end,
                           record_dt=record_dt, blowup_bound=1e12)
    rhs = build_ode_rhs(sys)
    h = record_dt / m
    u0 = rng.uniform(-2.0, 2.0, size=sys.dim)
    U0 = rng.uniform(-2.0, 2.0, size=(sys.dim, 3))

    dense = integrate_ode(sys, u0, cfg).samples
    _, batch = integrate_ode_batch(sys, U0, cfg)
    ref, ref_batch = [u0], [U0]
    for i in range(1, len(dense)):
        steps = range((i - 1) * m, i * m)
        ref.append(_rk4_span(rhs, 0.0, ref[-1], h, steps))
        ref_batch.append(_rk4_span(rhs, 0.0, ref_batch[-1], h, steps))
    assert _close(dense, np.array(ref))
    assert _close(batch, np.array(ref_batch))

    times = np.unique(rng.uniform(0.0, t_end, size=4))
    snaps = integrate_ode_snapshots(sys, u0, cfg, times)
    ref, y, t_prev = [], u0, 0.0
    for t in times:
        nsub = max(1, math.ceil((t - t_prev) / dt - 1e-12))
        y = _rk4_span(rhs, t_prev, y, (t - t_prev) / nsub, range(nsub))
        ref.append(y)
        t_prev = t
    assert _close(snaps, np.array(ref))


def test_rk4_long_grid_takes_configured_steps():
    # Past t ~ 1024, float differences of record times exceed dt by more than
    # 1e-12 relative; a per-interval ceil(span / dt) then runs two half-steps.
    sys = build_scenario("s1-opial-scalar").system
    cfg = IntegratorConfig(method="rk4_fixed", dt=0.1, t_end=5000.0,
                           record_dt=0.1, blowup_bound=6e6)
    sol = integrate_ode(sys, [0.0], cfg)
    rhs = build_ode_rhs(sys)
    n = 50000
    ref = np.empty((n + 1, 1))
    ref[0] = y = np.zeros(1)
    for k in range(n):
        ref[k + 1] = y = _rk4_span(rhs, 0.0, y, 0.1, (k,))
    assert sol.samples.shape == ref.shape
    assert _close(sol.samples, ref)


# A singular or nearly singular I - P with an offset, a resonance
# (omega h = 2 pi puts z = e^{i omega h} on P's eigenvalue 1), and a
# cooperative A with eigenvalues -2 and about -5e-10: the closed form would
# cancel here, so the drivers must still match the stage loop.
_ILL_CONDITIONED = [
    *(pytest.param([[a]], [[]], [0.7], id=f"scalar-{a:g}") for a in (0.0, -1e-9, -1e-6)),
    pytest.param([[0.0]], [[[1.0, 40 * math.pi, 0.3]]], [0.0], id="resonant"),
    pytest.param([[-1.0, 1.0], [1.0, -1.0 - 1e-9]], [[[0.5, 1.0, 0.0]], []], [0.7, -0.2],
                 id="coop-near-zero"),
]


@pytest.mark.parametrize("A, forcing, offset", _ILL_CONDITIONED)
def test_rk4_ill_conditioned_systems_match_stage_loop(A, forcing, offset):
    dim = len(A)
    sys = SystemSpec("scalar_ode" if dim == 1 else "cooperative_ode", dim, "linear+trig",
                     {"A": A, "forcing": forcing, "offset": offset})
    cfg = IntegratorConfig(method="rk4_fixed", dt=0.05, t_end=10.0, record_dt=0.1)
    rhs = build_ode_rhs(sys)
    u0 = np.linspace(0.5, -0.5, dim)
    U0 = np.outer(u0, [1.0, -2.0])
    ref, ref_batch = [u0], [U0]
    for i in range(100):  # 200 steps of h = 0.05
        ref.append(_rk4_span(rhs, 0.0, ref[-1], 0.05, range(2 * i, 2 * i + 2)))
        ref_batch.append(_rk4_span(rhs, 0.0, ref_batch[-1], 0.05, range(2 * i, 2 * i + 2)))
    assert _close(integrate_ode(sys, u0, cfg).samples, np.array(ref))
    assert _close(integrate_ode_batch(sys, U0, cfg)[1], np.array(ref_batch))

    times = (2.5, 7.5, 10.0)
    ref, y, t_prev = [], u0, 0.0
    for t in times:
        nsub = round((t - t_prev) / 0.05)
        y = _rk4_span(rhs, t_prev, y, (t - t_prev) / nsub, range(nsub))
        ref.append(y)
        t_prev = t
    assert _close(integrate_ode_snapshots(sys, u0, cfg, times), np.array(ref))


# ---------------------------------------------------------------------------
# Dopri5 step map against the stage loop
# ---------------------------------------------------------------------------

@st.composite
def cooperative_systems(draw):
    """Cooperative A in dimension 1-3 (off-diagonal entries in [0, 1], each
    diagonal entry at least 0.1 from 0 in [-3, 1], so some systems grow), 0-3
    forcing terms and an offset whose entries are at least 0.1 from 0."""
    dim = draw(st.integers(1, 3))
    diag = st.one_of(st.floats(-3.0, -0.1), st.floats(0.1, 1.0))
    A = [[draw(diag if i == j else st.floats(0.0, 1.0)) for j in range(dim)]
         for i in range(dim)]
    term = st.tuples(st.integers(0, dim - 1), st.floats(-2.0, 2.0), st.floats(0.1, 3.0),
                     st.floats(0.0, 2 * math.pi))
    terms = draw(st.lists(term, max_size=3))
    forcing = [[t[1:] for t in terms if t[0] == i] for i in range(dim)]
    offset = [draw(st.one_of(st.floats(-1.0, -0.1), st.floats(0.1, 1.0))) for _ in range(dim)]
    return SystemSpec("scalar_ode" if dim == 1 else "cooperative_ode", dim, "linear+trig",
                      {"A": A, "forcing": forcing, "offset": offset})


@given(sys=cooperative_systems(), t=st.floats(0.0, 100.0), h=st.floats(1e-4, 0.5),
       seed=st.integers(0, 2**16))
def test_dopri5_step_map_matches_stage_loop(sys, t, h, seed):
    rhs = build_ode_rhs(sys)
    y = np.random.default_rng(seed).uniform(-2.0, 2.0, size=sys.dim)
    v = np.concatenate((y, np.empty(7 * rhs.omegas.size), (1.0,)))
    step = np.array(_dopri5_trials(rhs, v)(t, h))
    y5, err = y + step[:sys.dim], step[sys.dim:]
    ref_y5, ref_err, _ = dopri5_stage_step(rhs, t, y, h, rhs(t, y))
    tol = 1e-12 * max(1.0, np.abs(y).max())
    assert np.abs(y5 - ref_y5).max() <= tol
    assert np.abs(err - ref_err).max() <= tol


def _blowup_values(exc):
    """(state norm, bound, t) of a BlowupDetected message, printed to 6 digits."""
    m = re.fullmatch(r"state norm (\S+) exceeds bound (\S+) at t=(\S+)", str(exc))
    return tuple(float(v) for v in m.groups())


@st.composite
def adaptive_runs(draw):
    """(system, start, config, snapshot times).  The first step, dt =
    record_dt of 0.5-2 at rel_tol <= 1e-8, is rejected on most systems; the
    bound 1e3 stops the growing ones."""
    sys = draw(cooperative_systems())
    u0 = [draw(st.floats(-2.0, 2.0)) for _ in range(sys.dim)]
    dt = draw(st.floats(0.5, 2.0))
    cfg = IntegratorConfig(method="rk45_adaptive", dt=dt, record_dt=dt,
                           rel_tol=draw(st.floats(1e-10, 1e-8)), abs_tol=1e-12,
                           t_end=draw(st.floats(2.0, 5.0)), blowup_bound=1e3)
    times = sorted(draw(st.sets(st.floats(0.1, cfg.t_end), min_size=1, max_size=3)))
    return sys, u0, cfg, times


def _match_stage_loop(run, rhs, u0, cfg, times):
    """Check run() against the stage loop: the same states, or the same
    blowup.  Returns the stage loop's count of rejected steps, None on blowup."""
    try:
        ref, rejected = dopri5_stage_loop(rhs, u0, cfg, times)
    except BlowupDetected as exc:
        with pytest.raises(BlowupDetected) as got:
            run()
        assert _blowup_values(got.value) == pytest.approx(_blowup_values(exc), rel=1e-5)
        return None
    assert np.abs(run() - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max())
    return rejected


@settings(max_examples=40)
@given(case=adaptive_runs())
@example(case=(ode([[1.0]], [[]]), [1.0], replace(RK45, record_dt=0.5, dt=0.5, rel_tol=1e-10,
                                                  blowup_bound=1e3), [5.0, 10.0]))
def test_dopri5_runs_match_stage_loop(case):
    sys, u0, cfg, times = case
    rhs = build_ode_rhs(sys)
    rejected = _match_stage_loop(lambda: integrate_ode(sys, u0, cfg).samples,
                                 rhs, u0, cfg, _record_times(cfg))
    _match_stage_loop(lambda: integrate_ode_snapshots(sys, u0, cfg, times), rhs, u0, cfg, times)
    # A solution that is a polynomial of degree <= 4 in t, or a slow one, may
    # take no rejected step: such a run is checked but not counted.
    assume(rejected != 0)


def _outcome(run):
    """run()'s states, or the type and message of what it raised."""
    try:
        return run()
    except (BlowupDetected, StepUnderflow) as exc:
        return type(exc), str(exc)


@settings(max_examples=40)
@given(case=adaptive_runs())
# The second component's A^7 overflows a float; its NaN ratio comes second.
@example(case=(ode([[-1.0, 0.0], [0.0, 1e60]], [[[1.0, 1.0, 0.0]], []]), [1.0, 1.0],
               RK45, [1.0]))
@example(case=(ode([[-1.0]], [[[1.0, 1.0, 0.0]]]), [1.0],
               replace(RK45, rel_tol=1e-300, abs_tol=1e-300), [1.0]))
@example(case=(ode([[1.0]], [[]]), [1.0], replace(RK45, record_dt=0.1, blowup_bound=1e3),
               [5.0, 10.0]))
@example(case=(ode([[-1.0, 0.5], [0.5, -2.0]], [[[1.0, 1.0, 0.0]], []]), [0.5, math.inf],
               RK45, [1.0]))
def test_dopri5_is_the_array_loop_bit_for_bit(case):
    """The scalar step control gives the array loop's states bit for bit, or
    its exception and message: dense and snapshot runs."""
    sys, u0, cfg, times = case
    rhs = build_ode_rhs(sys)
    u = np.array(u0, dtype=float)
    for ts in (_record_times(cfg), np.array(times)):
        got = _outcome(lambda: _dopri5(rhs, u, cfg, ts))
        ref = _outcome(lambda: dopri5_array_loop(rhs, u, cfg, ts))
        if isinstance(ref, tuple):
            assert isinstance(got, tuple) and got == ref
        else:
            assert np.array_equal(got, ref)


@pytest.mark.parametrize("A, tol", [
    pytest.param([[-1.0]], 1e-300, id="tolerance-1e-300"),
    # A^7 overflows a float: the step map turns NaN and rejects every step.
    pytest.param([[1e60]], 1e-8, id="huge-A"),
])
def test_step_underflow_raises_one_line(A, tol):
    sys = ode(A, [[[1.0, 1.0, 0.0]]])
    with pytest.raises(StepUnderflow) as exc:
        integrate_ode(sys, [1.0], replace(RK45, rel_tol=tol, abs_tol=tol))
    assert re.fullmatch(r"step \S+ underflow at t=\S+", str(exc.value))


# ---------------------------------------------------------------------------
# DDE
# ---------------------------------------------------------------------------

def dde(a_self, a_delay, forcing, r=1.0):
    return SystemSpec("dde_single_delay", 1, "delay-linear",
                      {"A_self": [[a_self]], "A_delay": [[a_delay]],
                       "delay": r, "forcing": forcing})


DDE_CFG = IntegratorConfig(method="rk4_fixed", dt=0.01, t_end=10.0,
                           record_dt=0.05)


def const_history(value, r=1.0, dim=1):
    return Signal(-r, r / 2, np.full((3, dim), float(value)))


def test_dde_zero_history_stays_zero():
    sys = dde(0.0, -1.0, [[]])
    sol = integrate_dde(sys, const_history(0.0), DDE_CFG)
    assert np.abs(sol.samples).max() == 0.0


def test_dde_hand_step():
    # x'(t) = x(t-1) with history 1 gives x = 1 + t on [0, 1].
    sys = dde(0.0, 1.0, [[]])
    sol = integrate_dde(sys, const_history(1.0), replace(DDE_CFG, t_end=1.0))
    ts = sol.times()
    mask = ts >= 0.0
    assert np.abs(sol.samples[mask, 0] - (1.0 + ts[mask])).max() <= 1e-8


def test_dde_equilibrium():
    sys = dde(-1.0, 1.0, [[]])
    sol = integrate_dde(sys, const_history(0.8), DDE_CFG)
    assert np.abs(sol.samples - 0.8).max() < 1e-12


def test_dde_coincides_with_history():
    sys = dde(-2.0, 1.0, [[[1.0, 1.0, 0.0]]])
    sol = integrate_dde(sys, const_history(0.5), DDE_CFG)
    ts = sol.times()
    assert np.abs(sol.samples[ts <= 0.0, 0] - 0.5).max() < 1e-12


def test_dde_history_domain_mismatch():
    sys = dde(-1.0, 1.0, [[]])
    bad = Signal(-2.0, 1.0, np.zeros((3, 1)))
    with pytest.raises(HistoryDomainMismatch):
        integrate_dde(sys, bad, DDE_CFG)


def test_dde_cocycle_identity():
    sys = dde(-2.0, 1.0, [[[1.0, 1.0, 0.0]]])
    for t, tau in [(3.0, 2.0), (1.5, 4.0), (2.5, 2.5), (5.0, 1.0)]:
        defect = dde_cocycle_defect(sys, const_history(0.5), DDE_CFG, t, tau)
        assert defect < 1e-7


# Cubic Lagrange weights at the half node for stencil offsets 0.5, 1.5, 2.5.
_HALF_W = {
    1: (-1 / 16, 9 / 16, 9 / 16, -1 / 16),     # nodes j-1 .. j+2, x = 1.5
    0: (5 / 16, 15 / 16, -5 / 16, 1 / 16),     # nodes j .. j+3,   x = 0.5
    2: (1 / 16, -5 / 16, 15 / 16, 5 / 16),     # nodes j-2 .. j+1, x = 2.5
}


def _half_value(U, j, n_sub):
    """Cubic interpolation at node j + 1/2, never across a breakpoint."""
    if n_sub < 3:
        return 0.5 * (U[j] + U[j + 1])
    b = (j // n_sub) * n_sub
    s = min(max(j - 1, b), b + n_sub - 3)
    w = _HALF_W[j - s]
    return w[0] * U[s] + w[1] * U[s + 1] + w[2] * U[s + 2] + w[3] * U[s + 3]


def dde_stage_loop(rhs, U, n_sub, h):
    """Method of steps with one RK4 stage loop per node: the brute-force
    reference.  U holds the history on its first n_sub + 1 nodes (node i at
    -r + i h) and is filled in place."""
    for i in range(n_sub, len(U) - 1):
        t = -rhs.r + i * h
        y = U[i]
        jd = i - n_sub
        ydh = _half_value(U, jd, n_sub)
        k1 = rhs(t, y, U[jd])
        th = t + 0.5 * h
        k2 = rhs(th, y + (0.5 * h) * k1, ydh)
        k3 = rhs(th, y + (0.5 * h) * k2, ydh)
        k4 = rhs(t + h, y + h * k3, U[jd + 1])
        U[i + 1] = y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    return U


@st.composite
def delay_systems(draw):
    """Hurwitz A_self, A_delay >= 0, random trig forcing, dim 1 or 2."""
    dim = draw(st.sampled_from([1, 2]))
    if dim == 1:
        A_self = [[draw(st.floats(-3.0, -0.1))]]
    else:
        d1, d2 = draw(st.floats(-3.0, -0.1)), draw(st.floats(-3.0, -0.1))
        o1, o2 = draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))
        assume(d1 * d2 - o1 * o2 > 1e-3)
        A_self = [[d1, o1], [o2, d2]]
    A_delay = [[draw(st.floats(0.0, 1.0)) for _ in range(dim)] for _ in range(dim)]
    triple = st.tuples(st.floats(-2.0, 2.0), st.floats(0.1, 3.0), st.floats(0.0, 2 * math.pi))
    forcing = [draw(st.lists(triple, max_size=2)) for _ in range(dim)]
    delay = draw(st.floats(0.05, 2.0))
    return SystemSpec("dde_single_delay", dim, "delay-linear",
                      {"A_self": A_self, "A_delay": A_delay, "delay": delay,
                       "forcing": forcing})


@given(sys=delay_systems(), dt=st.floats(0.01, 1.0), m=st.integers(1, 4),
       t_end=st.floats(0.5, 8.0), seed=st.integers(0, 2**16))
@example(sys=dde(-1.0, 0.5, [[[1.0, 1.0, 0.0]]], r=0.5), dt=0.3, m=2, t_end=3.0, seed=0)
def test_dde_matches_stage_loop(sys, dt, m, t_end, seed):
    rng = np.random.default_rng(seed)
    rhs = build_dde_rhs(sys)
    r = rhs.r
    cfg = IntegratorConfig(method="rk4_fixed", dt=dt, t_end=t_end,
                           record_dt=m * dt, blowup_bound=1e12)
    n_sub = max(1, math.ceil(r / dt - 1e-12))  # n_sub < 3 takes linear half nodes
    h = r / n_sub
    grid = -r + h * np.arange(n_sub + 1)
    history = Signal(-r, r / 4, rng.uniform(-1.0, 1.0, size=(5, sys.dim)))

    sol = integrate_dde(sys, history, cfg)
    k_rec = round(sol.dt / h)
    U = np.empty(((len(sol) - 1) * k_rec + 1, sys.dim))
    U[:n_sub + 1] = history.values(grid)
    assert _close(sol.samples, dde_stage_loop(rhs, U, n_sub, h)[::k_rec])

    H = rng.uniform(-1.0, 1.0, size=(sys.dim, 3))
    _, Y = integrate_dde_batch(sys, H, cfg)
    ref = np.empty_like(Y)
    for b in range(H.shape[1]):
        U = np.empty(((len(Y) - 1) * k_rec + 1, sys.dim))
        U[:n_sub + 1] = H[:, b]
        ref[:, :, b] = dde_stage_loop(rhs, U, n_sub, h)[::k_rec]
    assert _close(Y, ref)


# ---------------------------------------------------------------------------
# parabolic
# ---------------------------------------------------------------------------

L = math.pi


def rd(nu=0.1, decay=0.0, amp=0.0):
    return SystemSpec("parabolic_1d", 1, "rd-scalar",
                      {"nu": [nu], "L": L, "decay": [decay],
                       "source_amp": [amp], "omega": 1.0, "phase": 0.0})


def test_constant_is_neumann_equilibrium():
    m = 32
    cfg = IntegratorConfig(method="rk4_fixed", dt=0.5, t_end=2.0,
                           record_dt=0.5, space_points=m)
    field = integrate_parabolic(rd(), np.full((1, m), 1.5), cfg)
    assert np.abs(field.samples - 1.5).max() < 1e-12


def _trapezoid_projection(field, profile):
    """Trapezoid-weight projection of each record of a one-species field onto
    ``profile``; a profile of ones gives the spatial mean."""
    w = np.ones(field.dim)
    w[0] = w[-1] = 0.5
    return (field.samples * (w * profile)).sum(axis=-1) / (w * profile * profile).sum()


def test_cosine_mode_decay_rate():
    nu, m = 0.1, 200
    t_star = L * L / (nu * math.pi ** 2)
    cfg = IntegratorConfig(method="rk4_fixed", dt=1.0, t_end=t_star,
                           record_dt=t_star / 10, space_points=m)
    xs = np.linspace(0.0, L, m)
    field = integrate_parabolic(rd(nu=nu), np.cos(math.pi * xs / L)[None, :], cfg)
    amps = _trapezoid_projection(field, np.cos(math.pi * xs / L))
    target = math.exp(-nu * (math.pi / L) ** 2 * t_star)
    assert abs(amps[-1] / amps[0] - target) / target < 1e-2


def test_spatial_mean_conserved():
    m = 64
    cfg = IntegratorConfig(method="rk4_fixed", dt=0.5, t_end=5.0,
                           record_dt=0.5, space_points=m)
    rng = np.random.default_rng(0)
    u0 = 1.0 + 0.3 * rng.standard_normal(m)
    field = integrate_parabolic(rd(nu=0.2), u0[None, :], cfg)
    means = _trapezoid_projection(field, np.ones(m))
    assert np.abs(means - means[0]).max() / abs(means[0]) < 1e-8


def test_grid_too_coarse():
    cfg = IntegratorConfig(method="rk4_fixed", dt=0.1, t_end=1.0,
                           record_dt=0.5, space_points=4)
    with pytest.raises(GridTooCoarse):
        integrate_parabolic(rd(), np.ones((1, 4)), cfg)


def _species_system(n):
    return SystemSpec("parabolic_1d", n, "rd-scalar",
                      {"nu": [0.1, 0.3][:n], "L": L, "decay": [1.0, -0.5][:n],
                       "source_amp": [1.0, 0.5][:n], "omega": 1.3, "phase": 0.4})


@pytest.mark.parametrize("n", [1, 2])
def test_parabolic_operator_is_mirrored_ghost_stencil(n):
    m = 24
    sys = _species_system(n)
    nu, decay, amp = (np.array(sys.params[k])[:, None] for k in ("nu", "decay", "source_amp"))
    rhs = build_reaction(sys).method_of_lines(m)
    W = np.random.default_rng(n).standard_normal((n, m))
    dx = L / (m - 1)
    xs = dx * np.arange(m)
    ghost = np.concatenate([W[:, 1:2], W, W[:, -2:-1]], axis=1)  # u[-1] = u[1]
    lap = (ghost[:, 2:] - 2.0 * W + ghost[:, :-2]) / (dx * dx)
    t = 0.7
    src = amp * (1.0 + np.cos(math.pi * xs / L)) * math.sin(1.3 * t + 0.4)
    assert _close(rhs(t, W.ravel()).reshape(n, m), nu * lap - decay * W + src)


@pytest.mark.parametrize("n", [1, 2])
def test_parabolic_drivers_match_stage_loop(n):
    m = 24
    sys = _species_system(n)
    rhs = build_reaction(sys).method_of_lines(m)
    cfg = IntegratorConfig(method="rk4_fixed", dt=0.5, t_end=3.0, record_dt=0.5,
                           space_points=m)
    dx = L / (m - 1)
    h_stab = 0.35 * dx * dx / max(sys.params["nu"])  # the explicit stability cap
    nsub = math.ceil(0.5 / min(0.5, h_stab) - 1e-12)
    h = 0.5 / nsub
    rng = np.random.default_rng(n)
    W0 = rng.uniform(0.0, 1.0, size=(n, m))
    B0 = rng.uniform(0.0, 1.0, size=(n, m, 3))

    field = integrate_parabolic(sys, W0, cfg)
    _, batch = integrate_parabolic_batch(sys, B0, cfg)
    ref, ref_batch = [W0.ravel()], [B0.reshape(n * m, 3)]
    for i in range(1, len(field)):
        steps = range((i - 1) * nsub, i * nsub)
        ref.append(_rk4_span(rhs, 0.0, ref[-1], h, steps))
        ref_batch.append(_rk4_span(rhs, 0.0, ref_batch[-1], h, steps))
    assert _close(field.samples, np.array(ref).reshape(field.samples.shape))
    assert _close(batch, np.array(ref_batch).reshape(batch.shape))


def test_parabolic_cocycle_identity():
    m = 32
    xs = np.linspace(0.0, L, m)
    u0 = (1.0 + 0.4 * np.cos(math.pi * xs / L))[None, :]
    sys = rd(nu=0.1, decay=1.0, amp=1.0)
    cfg = IntegratorConfig(method="rk4_fixed", dt=0.5, t_end=6.0,
                           record_dt=0.5, space_points=m)
    for t, tau in [(2.0, 1.5), (3.0, 2.5), (1.0, 4.0)]:
        assert parabolic_cocycle_defect(sys, u0, cfg, t, tau) < 1e-9


# ---------------------------------------------------------------------------
# monotonicity checks
# ---------------------------------------------------------------------------

def test_quasimonotone_pass_and_fail():
    good = ode([[-1.0, 0.5], [0.5, -1.0]], [[], []], 2)
    assert quasimonotone_check(good) is None
    bad = ode([[-1.0, -0.5], [0.5, -1.0]], [[], []], 2)
    assert quasimonotone_check(bad) == (0, 1)


def test_quasimonotone_scalar_vacuous():
    assert quasimonotone_check(ode([[-3.0]], [[]])) is None


# The sampled finite-difference probes that the exact sign test replaced,
# kept as its brute-force reference.  For an affine right-hand side the ODE
# and parabolic probes read the entries of A at every sample; the DDE probe
# compares sampled ordered pairs and can miss a negative entry.

_QM_TOL = 1e-7


def _box_samples(box, rng, extra=8):
    """3-level lattice plus a few seeded uniform draws inside the box."""
    dim = box.shape[0]
    levels = [np.array([lo, 0.5 * (lo + hi), hi]) for lo, hi in box]
    if dim <= 3:
        mesh = np.meshgrid(*levels, indexing="ij")
        lattice = np.stack([g.ravel() for g in mesh], axis=1)
    else:
        lattice = np.stack([np.array([lo, hi]) for lo, hi in box], axis=1).T
    draws = rng.uniform(box[:, 0], box[:, 1], size=(extra, dim))
    return np.vstack([lattice, draws])


def _qm_ode_reference(sys, box, t_probe, h, rng):
    rhs = build_ode_rhs(sys)
    n = sys.dim
    if n == 1:
        return True, None
    pts = _box_samples(box, rng)
    scale = 1.0
    for t in t_probe:
        for u in pts:
            scale = max(scale, float(np.max(np.abs(rhs(float(t), u)))))
    tol = _QM_TOL * scale
    for t in t_probe:
        t = float(t)
        for u in pts:
            for j in range(n):
                up = u.copy(); up[j] += h
                um = u.copy(); um[j] -= h
                dcol = (rhs(t, up) - rhs(t, um)) / (2 * h)
                for i in range(n):
                    if i != j and dcol[i] < -tol:
                        return False, (t, u.copy(), i, j)
    return True, None


def _qm_dde_reference(sys, box, t_probe, rng):
    rhs = build_dde_rhs(sys)
    n = sys.dim
    pts = _box_samples(box, rng)
    span = box[:, 1] - box[:, 0]
    scale = 1.0
    for t in t_probe:
        for u in pts:
            scale = max(scale, float(np.max(np.abs(rhs(float(t), u, u)))))
    tol = _QM_TOL * scale
    for t in t_probe:
        t = float(t)
        for u_now in pts:
            for _ in range(4):
                d_now = rng.uniform(0.0, 0.5, size=n) * span
                d_past = rng.uniform(0.0, 0.5, size=n) * span
                u_past = u_now  # segment endpoints sampled jointly
                v_past = u_past + d_past
                for i in range(n):
                    v_now = u_now + d_now
                    v_now[i] = u_now[i]
                    if rhs(t, u_now, u_past)[i] > rhs(t, v_now, v_past)[i] + tol:
                        return False, (t, u_now.copy(), i, i)
    return True, None


def _qm_parabolic_reference(sys, box, t_probe, h, rng):
    rd_ = build_reaction(sys)
    n = rd_.n_species
    if n == 1:
        return True, None

    def pointwise(t, x, w):
        prof = 1.0 if rd_.profile_kind == "flat" else 1.0 + math.cos(math.pi * x / rd_.L)
        return -rd_.decay * w + rd_.source_amp * prof * math.sin(rd_.omega * t + rd_.phase)

    pts = _box_samples(box, rng)
    for t in t_probe:
        t = float(t)
        for x in np.linspace(0.0, rd_.L, 5):
            for w in pts:
                for i in range(n):
                    for j in range(n):
                        if i == j:
                            continue
                        wp, wm = w.copy(), w.copy()
                        wp[j] += h
                        wm[j] -= h
                        d = (pointwise(t, x, wp)[i] - pointwise(t, x, wm)[i]) / (2 * h)
                        if d < -_QM_TOL:
                            return False, (t, w.copy(), i, j)
    return True, None


def qm_reference(sys, box, t_probe, h):
    """(passed, witness) of the sampled probe for the system's kind."""
    box = np.asarray(box, dtype=float)
    rng = np.random.default_rng(2025)
    if sys.kind == "dde_single_delay":
        return _qm_dde_reference(sys, box, t_probe, rng)
    if sys.kind == "parabolic_1d":
        return _qm_parabolic_reference(sys, box, t_probe, h, rng)
    return _qm_ode_reference(sys, box, t_probe, h, rng)


@pytest.mark.parametrize("build, params", [
    pytest.param(build_dde_rhs, {"A_self": [[-1.0]], "delay": 1.0}, id="dde-no-A_delay"),
    pytest.param(build_dde_rhs, {"A_self": [[-1.0]], "A_delay": None, "delay": 1.0},
                 id="dde-null-A_delay"),
    pytest.param(build_dde_rhs, {"A_self": [[-1.0]], "A_delay": [[1.0, 0.0]], "delay": 1.0},
                 id="dde-wide-A_delay"),
    pytest.param(build_dde_rhs, {"A_delay": [[1.0]], "delay": 1.0}, id="dde-no-A_self"),
    pytest.param(build_dde_rhs, {"A_self": [[-1.0]], "A_delay": [[1.0]], "delay": 0.0},
                 id="dde-zero-delay"),
    pytest.param(build_ode_rhs, {"A": [[-1.0, 0.0], [0.0, -1.0]]}, id="ode-A-larger-than-dim"),
    pytest.param(build_ode_rhs, {"A": [[-1.0]], "forcing": [[], []]},
                 id="ode-forcing-longer-than-dim"),
    pytest.param(build_reaction, {"nu": [0.1, 0.3], "decay": [1.0, 1.0],
                                  "source_amp": [0.0, 0.0]}, id="reaction-species-count"),
])
def test_affine_builders_reject_malformed_params(build, params):
    kind, rhs = {build_dde_rhs: ("dde_single_delay", "delay-linear"),
                 build_ode_rhs: ("scalar_ode", "linear+trig"),
                 build_reaction: ("parabolic_1d", "rd-scalar")}[build]
    with pytest.raises(ConfigInvalid):
        build(SystemSpec(kind, 1, rhs, params))


def test_quasimonotone_dde_negative_delayed_entry_fails():
    # A_delay[0, 0] < 0 breaks the quasimonotone condition; the sampled
    # probe passed this system.
    sys = SystemSpec("dde_single_delay", 2, "delay-linear",
                     {"A_self": [[-2.8977, 1.6103], [0.0, -1.7617]],
                      "A_delay": [[-0.1296, 1.2510], [0.2792, 0.0]], "delay": 1.0})
    box, t_probe = [[-2.0, 2.0], [-2.0, 2.0]], [0.0, 1.7, 9.3]
    assert qm_reference(sys, box, t_probe, 1e-4)[0]
    assert quasimonotone_check(sys) == (0, 0)


def test_quasimonotone_parabolic_species():
    sys = _species_system(2)
    box, t_probe = [[0.0, 2.0], [0.0, 2.0]], [0.0, 1.7]
    assert quasimonotone_check(sys) is None
    assert qm_reference(sys, box, t_probe, 1e-4)[0]


# Off-diagonal entries stay out of the sampled probe's tolerance band.
_SIGNED = st.one_of(st.just(0.0), st.floats(1e-3, 2.0), st.floats(-2.0, -1e-3))


@st.composite
def signed_systems(draw):
    """ODE or DDE of dim 1-3 with signed couplings, a box and probe times."""
    dim = draw(st.integers(1, 3))
    A = [[draw(st.floats(-3.0, 0.0)) if i == j else draw(_SIGNED) for j in range(dim)]
         for i in range(dim)]
    triple = st.tuples(st.floats(-1.0, 1.0), st.floats(0.1, 3.0), st.floats(0.0, 2 * math.pi))
    forcing = [draw(st.lists(triple, max_size=2)) for _ in range(dim)]
    lo = [draw(st.floats(-3.0, 0.0)) for _ in range(dim)]
    box = [[a, a + draw(st.floats(0.1, 3.0))] for a in lo]
    t_probe = draw(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=3))
    if draw(st.booleans()):
        A_delay = [[draw(_SIGNED) for _ in range(dim)] for _ in range(dim)]
        sys = SystemSpec("dde_single_delay", dim, "delay-linear",
                         {"A_self": A, "A_delay": A_delay, "forcing": forcing,
                          "delay": draw(st.floats(0.1, 2.0))})
    else:
        sys = ode(A, forcing, dim)
    return sys, box, t_probe


@settings(max_examples=200)
@given(case=signed_systems())
@example(case=(ode([[-1.0, -0.5], [-0.5, -1.0]], [[], []]), [[-1.0, 1.0]] * 2, [0.0]))
@example(case=(dde(-2.0, -1.0, [[]]), [[-2.0, 2.0]], [0.0, 1.7]))
def test_quasimonotone_matches_sampled_reference(case):
    sys, box, t_probe = case
    res = quasimonotone_check(sys)
    passed, witness = qm_reference(sys, box, t_probe, 1e-4)
    if sys.kind == "dde_single_delay":
        # The sampled pairs can miss a negative entry, never invent one.
        assert passed or res is not None
    else:
        assert (res is None) == passed
        assert res == (None if witness is None else witness[2:])


def test_order_check():
    zeros = sample_function(lambda t: 0.0 * np.asarray(t), 0.0, 10.0, 0.01)
    ones = sample_function(lambda t: 0.0 * np.asarray(t) + 1.0, 0.0, 10.0, 0.01)
    sine = sample_function(np.sin, 0.0, 10.0, 0.01)
    assert order_check(zeros, zeros, 1e-9).ordered
    assert order_check(zeros, ones, 1e-9).ordered
    res = order_check(sine, zeros, 1e-3)
    assert not res.ordered
    # First sample with sin t above the tolerance.
    assert res.time == pytest.approx(0.01, abs=1e-9)
    with pytest.raises(ValueError):
        order_check(zeros, sample_function(np.sin, 0.0, 10.0, 0.02), 1e-9)


# ---------------------------------------------------------------------------
# the configured method is the method that runs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("run", [
    pytest.param(lambda cfg: integrate_ode_batch(ode([[-1.0]], [[]]), np.ones((1, 2)), cfg),
                 id="integrate_ode_batch"),
    pytest.param(lambda cfg: integrate_dde(dde(-1.0, 0.5, [[]]), const_history(1.0), cfg),
                 id="integrate_dde"),
    pytest.param(lambda cfg: integrate_dde_batch(dde(-1.0, 0.5, [[]]), np.ones((1, 2)), cfg),
                 id="integrate_dde_batch"),
    pytest.param(lambda cfg: integrate_parabolic(rd(), np.ones((1, 16)), cfg),
                 id="integrate_parabolic"),
    pytest.param(lambda cfg: integrate_parabolic_batch(rd(), np.ones((1, 16, 2)), cfg),
                 id="integrate_parabolic_batch"),
])
def test_fixed_step_integrators_reject_other_methods(run):
    # These entry points only have RK4; an adaptive config must not silently
    # run fixed steps under its name.
    cfg = IntegratorConfig(method="rk45_adaptive", dt=0.01, t_end=1.0, record_dt=0.1)
    with pytest.raises(ConfigInvalid, match="rk4_fixed only"):
        run(cfg)
    run(replace(cfg, method="rk4_fixed"))


# ---------------------------------------------------------------------------
# forced steady state
# ---------------------------------------------------------------------------

@st.composite
def monotone_systems(draw, delayed):
    """Cooperative A and, for the DDE, A_delay >= 0, in dimension 1-3, with
    each row of A dominant by at least 0.5 over the off-diagonal and delayed
    entries, and 1-3 forcing terms of amplitude at most 1."""
    dim = draw(st.integers(1, 3))
    unit = st.floats(0.0, 1.0)
    A = [[draw(unit) for _ in range(dim)] for _ in range(dim)]
    A_delay = [[draw(unit) if delayed else 0.0 for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        A[i][i] = -(sum(A[i]) - A[i][i] + sum(A_delay[i])) - draw(st.floats(0.5, 3.0))
    term = st.tuples(st.integers(0, dim - 1), st.floats(-1.0, 1.0), st.floats(0.1, 2.0),
                     st.floats(0.0, 2 * math.pi))
    terms = draw(st.lists(term, min_size=1, max_size=3))
    forcing = [[t[1:] for t in terms if t[0] == i] for i in range(dim)]
    if not delayed:
        return ode(A, forcing)
    return SystemSpec("dde_single_delay", dim, "delay-linear",
                      {"A_self": A, "A_delay": A_delay, "delay": draw(st.floats(0.05, 2.0)),
                       "forcing": forcing})


@given(sys=monotone_systems(delayed=False))
def test_steady_state_ode_matches_oracle(sys):
    ts = np.linspace(-5.0, 20.0, 51)
    got = build_ode_rhs(sys).steady_state()(ts)
    assert np.abs(got - particular(sys.params["A"], sys.params["forcing"])(ts)).max() < 1e-12


def dde_block_steady_state(A_self, A_delay, r, forcing):
    """Sum of c sin(theta) + d cos(theta), theta = omega t + phase, over the
    forcing terms b sin(theta), with (c, d) from the real 2n x 2n block
    system of the delay equation."""
    A_s, A_d = np.asarray(A_self), np.asarray(A_delay)
    n = len(A_s)
    eye = np.eye(n)
    parts = []
    for i, terms in enumerate(forcing):
        for amp, om, ph in terms:
            cw, sw = math.cos(om * r), math.sin(om * r)
            M = np.block([
                [A_s + cw * A_d, sw * A_d + om * eye],
                [om * eye + sw * A_d, -(A_s + cw * A_d)],
            ])
            sol = np.linalg.solve(M, np.concatenate([-amp * eye[i], np.zeros(n)]))
            parts.append((om, ph, sol[:n], sol[n:]))

    def fn(ts):
        out = np.zeros((len(ts), n))
        for om, ph, c, d in parts:
            out += np.outer(np.sin(om * ts + ph), c) + np.outer(np.cos(om * ts + ph), d)
        return out

    return fn


@given(sys=monotone_systems(delayed=True))
def test_steady_state_dde_matches_block_formula_and_equation(sys):
    rhs = build_dde_rhs(sys)
    x_p = rhs.steady_state()
    p = sys.params
    ts = np.linspace(-5.0, 20.0, 51)
    ref = dde_block_steady_state(p["A_self"], p["A_delay"], rhs.r, p["forcing"])(ts)
    assert np.abs(x_p(ts) - ref).max() < 1e-12
    h = 1e-5
    for t in (0.3, 2.7, 11.1):
        du = (x_p(t + h)[0] - x_p(t - h)[0]) / (2 * h)
        assert np.abs(du - rhs(t, x_p(t)[0], x_p(t - rhs.r)[0])).max() < 1e-8


@pytest.mark.parametrize("m", [8, 64, 200])
def test_steady_state_method_of_lines_matches_separable_formula(m):
    sys = build_scenario("s5-rd-scalar").system
    p = sys.params
    assert (p["decay"], p["source_amp"], p["omega"], p["phase"]) == ([1.0], [1.0], 1.0, 0.0)
    nu, L = p["nu"][0], p["L"]
    rhs = build_reaction(sys).method_of_lines(m)
    # The mean obeys x' = -x + sin t; the cosine profile is an eigenvector of
    # the discrete Neumann Laplacian and decays at kappa = 1 + nu lam_h.
    ts = np.linspace(0.0, 20.0, 41)
    dx = L / (m - 1)
    xs = dx * np.arange(m)
    kappa = 1.0 + nu * 4.0 / (dx * dx) * math.sin(math.pi * dx / (2 * L)) ** 2
    alpha = 0.5 * (np.sin(ts) - np.cos(ts))
    beta = (kappa * np.sin(ts) - np.cos(ts)) / (1.0 + kappa * kappa)
    exact = alpha[:, None] + np.outer(beta, np.cos(math.pi * xs / L))
    assert np.abs(rhs.steady_state()(ts) - exact).max() < 1e-12


def test_rk4_periodic_solution_approaches_steady_state_at_fourth_order():
    A = build_scenario("s3-coop-2d").system.params["A"]
    sys = SystemSpec("cooperative_ode", 2, "linear+trig",
                     {"A": A, "forcing": [[[1.0, 1.0, 0.0]], [[1.0, SQRT2, 0.0]]],
                      "offset": [0.3, -0.2]})
    rhs = build_ode_rhs(sys)
    ts = np.linspace(0.0, 20.0, 401)
    exact = rhs.steady_state()(ts)
    gaps = []
    for h in (0.1, 0.05, 0.025):
        part = _rk4_particular(rhs, _rk4_coeffs(rhs.A, h), h, round(20.0 / h))
        gaps.append(np.abs(part(ts) - exact).max())
    # Halving h divides a fourth-order error by about 16.
    assert 14.0 <= gaps[0] / gaps[1] <= 19.0
    assert 14.0 <= gaps[1] / gaps[2] <= 19.0


@pytest.mark.parametrize("kind", ["ode", "dde", "parabolic"])
def test_integrate_dispatches_to_each_kind_bit_for_bit(kind):
    cfg = IntegratorConfig(method="rk4_fixed", dt=0.05, t_end=3.0, record_dt=0.1,
                           blowup_bound=1e6)
    if kind == "ode":
        sys = ode([[-1.0, 0.5], [0.5, -1.0]], [[[1.0, 1.0, 0.0]], []])
        start = np.array([0.5, -0.5])
        ref = integrate_ode(sys, start, cfg)
    elif kind == "dde":
        sys = SystemSpec("dde_single_delay", 1, "delay-linear",
                         {"A_self": [[-2.0]], "A_delay": [[1.0]], "delay": 1.0,
                          "forcing": [[[1.0, 1.0, 0.0]]]})
        start = Signal(-1.0, 0.5, np.full((3, 1), 0.5))
        ref = integrate_dde(sys, start, cfg)
    else:
        sys = SystemSpec("parabolic_1d", 1, "rd-scalar",
                         {"nu": [0.1], "L": 3.0, "decay": [1.0], "source_amp": [1.0]})
        start = np.linspace(0.5, 1.5, 16)[None, :]
        ref = integrate_parabolic(sys, start, cfg)
    got = integrate(sys, start, cfg)
    assert (got.t0, got.dt) == (ref.t0, ref.dt)
    assert np.array_equal(got.samples, ref.samples)


# ---------------------------------------------------------------------------
# closed-form forcings
# ---------------------------------------------------------------------------

def _components(name):
    return build_scenario(name).system.params["forcing"]


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.sampled_from(["s1-opial-scalar", "s3-coop-2d"]))
@example(0, "s1-opial-scalar")
@example(1, "s3-coop-2d")
def test_forcing_signal_is_its_closed_form_bit_for_bit(seed, name):
    comps = _components(name)
    f = forcing_signal("trig-sum", -3.0, 200.0, 0.05, components=comps)
    rng = np.random.default_rng(seed)
    ts = rng.uniform(f.t0, f.t_end, 500)
    assert np.array_equal(f.values(ts), _trig_sum(comps)(ts))
    i0, m = int(rng.integers(0, 1000)), int(rng.integers(1, 2000))
    grid = f.t0 + f.dt * np.arange(i0, i0 + m)
    taus = rng.uniform(f.t0 - grid[0], f.t_end - grid[-1], 6)
    want = _trig_sum(comps)((grid + taus[:, None]).ravel())
    assert np.array_equal(f.window_values(i0, m, taus), want.reshape(taus.size, m, f.dim))
    assert "_spline" not in f.__dict__


def test_forcing_signal_survives_pickle():
    comps = _components("s3-coop-2d")
    f = forcing_signal("trig-sum", 0.0, 100.0, 0.05, components=comps)
    g = pickle.loads(pickle.dumps(f))
    ts = np.linspace(0.0, 100.0, 777)
    assert g.exact is not None and np.array_equal(g.samples, f.samples)
    assert np.array_equal(g.values(ts), f.values(ts))


# The fixed bound on an angle-addition value: 16 u (1 + max |omega t|) sum |amp|,
# u = 2^-53, with t every time read, also plus the base shift s, and s itself:
# folded into the phases, omega s is an angle of the same size.
def _turn_bound(omegas, amps, times, shift=0.0) -> float:
    times = np.concatenate([np.ravel(times), np.ravel(times) + shift, [shift]])
    wt = np.abs(omegas).max(initial=0.0) * np.abs(times).max()
    return 16 * 2.0 ** -53 * (1.0 + wt) * np.abs(amps).sum()


def _draw_trig_sum(rng, dim, base_shift, complex_amps=False):
    """A TrigSum of 0-3 terms per component (possibly none at all), and its
    (amp, omega, phase) components."""
    comps = [[(rng.uniform(-2, 2), rng.uniform(-3, 3), rng.uniform(-math.pi, math.pi))
              for _ in range(rng.integers(0, 4))] for _ in range(dim)]
    proj, omegas, phases = _fold_terms(comps, dim, base_shift)
    if complex_amps:
        proj = proj * np.exp(1j * rng.uniform(-math.pi, math.pi, proj.shape))
    return TrigSum(proj, omegas, phases), comps


@given(st.integers(0, 2**32 - 1), st.integers(1, 3),
       st.sampled_from([1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7, 2000]),
       st.integers(0, 3 * _BLOCK), st.sampled_from([0.0, -1e5, 7.3e4]), st.booleans())
@example(0, 1, 1, 0, 0.0, False)
@example(1, 2, 2000, 0, -1e5, True)
@settings(max_examples=60)
def test_trig_sum_on_grid_is_the_direct_formula_within_its_bound(seed, dim, n, k0, shift,
                                                                 complex_amps):
    rng = np.random.default_rng(seed)
    ev, _ = _draw_trig_sum(rng, dim, shift, complex_amps)
    t0, dt = rng.uniform(-2e5, 2e5), rng.uniform(1e-3, 1.0)
    ts = t0 + dt * np.arange(k0, k0 + n)
    got = ev.on_grid(t0, dt, k0, n)
    assert got.shape == (n, dim)
    assert np.abs(got - ev(ts)).max() <= _turn_bound(ev.omegas, ev.V, ts, shift)
    # The blocks sit at multiples of _BLOCK, so any split reads the same values.
    cut = int(rng.integers(0, n + 1))
    parts = [ev.on_grid(t0, dt, k0, cut), ev.on_grid(t0, dt, k0 + cut, n - cut)]
    assert np.concatenate(parts).tobytes() == got.tobytes()


@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 700),
       st.sampled_from([1, 5]), st.sampled_from([0.0, -3e4]), st.booleans())
@example(0, 1, 1, 1, 0.0, False)
@example(2, 3, 700, 5, -3e4, True)
@settings(max_examples=60)
def test_trig_sum_shifted_is_the_direct_formula_within_its_bound(seed, dim, m, n_tau, shift,
                                                                 complex_amps):
    rng = np.random.default_rng(seed)
    ev, _ = _draw_trig_sum(rng, dim, shift, complex_amps)
    ts = np.sort(rng.uniform(-1e5, 2e5, m))
    taus = rng.uniform(-1e5, 1e5, n_tau)
    got = ev.shifted(ts)(taus)
    want = ev((taus[:, None] + ts).ravel()).reshape(n_tau, m, dim)
    times = np.concatenate([ts, taus, (taus[:, None] + ts).ravel()])
    assert np.abs(got - want).max() <= _turn_bound(ev.omegas, ev.V, times, shift)


@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 300, 2 * _BLOCK]))
@example(0, 300)
@settings(max_examples=20)
def test_rhs_inputs_and_forcing_signal_are_the_direct_forcing_within_its_bound(seed, n):
    rng = np.random.default_rng(seed)
    dim, shift = 2, rng.uniform(-1e4, 1e4)
    _, comps = _draw_trig_sum(rng, dim, 0.0)
    rhs = build_ode_rhs(SystemSpec("cooperative_ode", dim, "linear+trig",
                                   {"A": [[-1.0, 0.0], [0.0, -1.0]], "forcing": comps},
                                   base_shift=shift))
    amps = [a for terms in comps for a, _, _ in terms]
    t0, h, k0 = rng.uniform(-1e3, 0.0), rng.uniform(1e-3, 0.1), int(rng.integers(0, 5000))
    ts = t0 + (0.5 * h) * np.arange(2 * k0, 2 * (k0 + n) + 1)
    want = np.array([rhs(t, np.zeros(dim)) for t in ts])
    got = rhs.forcing.on_grid(t0, 0.5 * h, 2 * k0, 2 * n + 1)
    assert np.abs(got - want).max() <= _turn_bound(rhs.omegas, amps, ts, shift)
    # A forcing Signal: its samples, and its shifted windows through shift_reader.
    f = forcing_signal("trig-sum", -50.0, 150.0, 0.05, components=comps)
    assert np.abs(f.samples - _trig_sum(comps)(f.times())).max() \
        <= _turn_bound(rhs.omegas, amps, f.times())
    idx = np.arange(100, 100 + n)
    taus = rng.uniform(-f.times()[100] + f.t0, f.t_end - f.times()[99 + n], 3)
    want = _trig_sum(comps)((taus[:, None] + f.times()[idx]).ravel())
    assert np.abs(f.shift_reader(idx)(taus) - want.reshape(3, n, dim)).max() \
        <= _turn_bound(rhs.omegas, amps, f.times())


def test_named_forcings_stay_on_the_spline():
    assert forcing_signal("levitan-psi", -10.0, 10.0, 0.025).exact is None


def test_named_forcing_samples_its_function():
    f = forcing_signal("levitan-phi", -10.0, 10.0, 0.025)
    ts = f.times()
    assert f.dim == 1
    assert np.array_equal(f.samples[:, 0], 1.0 / (2.0 + np.cos(ts) + np.cos(math.sqrt(2.0) * ts)))


def test_forcing_signal_rejects_unknown_keys_and_missing_components():
    with pytest.raises(UnknownRegistryKey, match="^no forcing 'nope'$"):
        forcing_signal("nope", 0.0, 1.0, 0.1)
    with pytest.raises(ConfigInvalid, match="^trig-sum needs forcing components$"):
        forcing_signal("trig-sum", 0.0, 1.0, 0.1)


@pytest.mark.parametrize("n", [1, 2, 1 << 16, (1 << 16) + 1, 3 * (1 << 16) + 7])
@pytest.mark.parametrize("name", ["s1-opial-scalar", "s3-coop-2d"])
def test_chunked_sampling_equals_one_shot_bit_for_bit(name, n):
    fn = _trig_sum(_components(name)).__call__  # the direct formula: no on_grid
    f = sample_function(fn, 0.0, 0.05 * (n - 1), 0.05)
    assert np.array_equal(f.samples, fn(0.05 * np.arange(n)))


def test_rk4_step_loop_memory_stays_flat_over_a_long_record_interval():
    # A = 0 makes I - P singular, so the closed form turns the offset away and
    # the step loop runs 16,384 steps of a 64-state system per record.  Chunked
    # by steps, it holds a few 2^16-value arrays however long the interval is;
    # one record interval per chunk would hold several (16,384, 64) arrays.
    dim, h = 64, 2.0 ** -10
    sys = SystemSpec("cooperative_ode", dim, "linear+trig",
                     {"A": np.zeros((dim, dim)).tolist(),
                      "offset": np.linspace(-1, 1, dim).tolist(),
                      "forcing": [[[0.5, 1.0, 0.3]]] + [[]] * (dim - 1)})
    cfg = IntegratorConfig(method="rk4_fixed", dt=h, t_end=32.0, record_dt=16.0)
    tracemalloc.start()
    try:
        sol = integrate_ode(sys, np.zeros(dim), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    # The records are those of one unchunked run of the step loop, bit for bit.
    rhs = build_ode_rhs(sys)
    states = _rk4_affine_steps(_rk4_coeffs(rhs.A, h), np.zeros(dim),
                               rhs.forcing.on_grid(0.0, 0.5 * h, 0, 4 * 16_384 + 1), h)
    assert sol.samples[1:].tobytes() == states[16_383::16_384].tobytes()


_SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan]
_STEP_ENTRY = st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats(-1e3, 1e3))


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Every value has the same bits, signed zeros included, and a NaN is a NaN:
    where two NaNs of opposite sign meet, numpy's add returns either one's
    sign, by the element's place in its vector loop."""
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and a[~nan].tobytes() == b[~nan].tobytes())


@settings(max_examples=300, deadline=None)
@given(data=st.data(), shape=st.sampled_from([(1,), (1, 1), (2,), (3, 1), (2, 3), (4, 2)]),
       n=st.integers(0, 6))
@example(data=None, shape=(1,), n=1)
@example(data=None, shape=(1, 1), n=1)
def test_affine_steps_are_the_matmul_loop(data, shape, n):
    # The one-entry float path and the out= path against y = P @ y + q[k], with
    # signed zeros, infinities and NaNs in y and q.  Without data: P = -0.5,
    # y = 0 and q = -0.0, where p * y + q is -0.0 and matmul's sum is +0.0.
    dim, size = shape[0], math.prod(shape)
    if data is None:
        P, y, q = np.array([[-0.5]]), np.zeros(shape), np.full((n,) + shape, -0.0)
    else:
        def draw(count):
            return np.array(data.draw(st.lists(_STEP_ENTRY, min_size=count, max_size=count)))
        P = draw(dim * dim).reshape(dim, dim)
        y, q = draw(size).reshape(shape), draw(n * size).reshape((n,) + shape)
    with np.errstate(invalid="ignore", over="ignore"):
        assert _same_bits(_affine_steps(P, y, q), affine_steps_matmul(P, y, q))


@settings(max_examples=150, deadline=None)
@given(n=st.sampled_from([1, 2, 3, 4, 5, 6, 100]), tail=st.sampled_from([(), (1,), (1, 1), (2, 3)]),
       seed=st.integers(0, 2**32 - 1), specials=st.booleans())
def test_half_values_are_the_stencil_gather(n, tail, seed, specials):
    rng = np.random.default_rng(seed)
    V = rng.normal(size=(n + 1,) + tail)
    if specials:
        hit = rng.random(V.shape) < 0.2
        V[hit] = rng.choice(_SPECIAL_FLOATS, size=int(hit.sum()))
    with np.errstate(invalid="ignore"):
        assert _same_bits(_half_values(V), half_values_gather(V))


def test_forcing_synthesis_holds_no_more_than_its_samples():
    # Chunked synthesis: the tracemalloc peak is the samples plus chunk-sized
    # temporaries, not the (terms, n) outer product of one-shot synthesis.  The
    # samples are formed at their first read.
    n = (1 << 20) + 1
    tracemalloc.start()
    try:
        f = forcing_signal("trig-sum", 0.0, 0.05 * (n - 1), 0.05,
                           components=_components("s1-opial-scalar"))
        assert "samples" not in vars(f)
        f.samples
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(f) == n
    assert peak < 1.5 * f.samples.nbytes


def test_chunked_record_times_are_record_times_bit_for_bit():
    # Each chunk forms its own record times for the blowup check, record_dt * r as
    # _record_times forms them, on the closed form and on the step loop (A = 0 makes
    # I - P singular, so the closed form turns the offset away; so do short runs).
    paths = set()

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.01, 2.0), st.integers(1, 300), st.integers(1, 5), st.booleans(),
           st.sampled_from([1, 3, 64, 1 << 16]), st.sampled_from([0.0, 17.25]))
    @example(0.1, 2001, 1, False, 1 << 16, 0.0)
    @example(0.05, 7, 3, True, 2, 5.0)
    def check(record_dt, records, nsub, singular, chunk, t0):
        sys = SystemSpec("scalar_ode", 1, "linear+trig",
                         {"A": [[0.0 if singular else -1.0]], "offset": [0.5],
                          "forcing": [[[1.0, 1.0, 0.3]]]})
        cfg = IntegratorConfig(method="rk4_fixed", dt=record_dt / nsub,
                               t_end=record_dt * records, record_dt=record_dt)
        seen = []
        with patch.object(systems, "_CHUNK", chunk), \
                patch.object(systems, "_check_records",
                             lambda Y, ts, bound: seen.append((len(Y), np.asarray(ts)))), \
                patch.object(systems, "_rk4_affine_steps", wraps=_rk4_affine_steps) as steps:
            out = _rk4_record(build_ode_rhs(sys), np.zeros(1), cfg, t0)
        paths.add(steps.called)
        want = _record_times(cfg)
        assert len(out) == want.size == 1 + sum(k for k, _ in seen)
        assert np.concatenate([ts for _, ts in seen]).tobytes() == (t0 + want[1:]).tobytes()

    check()
    assert paths == {False, True}


# Past the first zero power, _rk4_record forms the signed zeros that ** gives
# instead of raising P.  A real scalar A gives P = 1 + z + z^2/2 + z^3/6 + z^4/24
# with z = h A, which is positive on the whole real line, so the signs
# (P < 0, P = -0.0) are forced by negating the P that _rk4_coeffs returns.
_S1_FORCING = [[[1.0, 1.0, 0.0], [1.0, SQRT2, 0.0]]]


def _scaled_coeffs(scale):
    coeffs = systems._rk4_coeffs
    return lambda A, h: (lambda P, C0, Ch: (scale * P, C0, Ch))(*coeffs(A, h))


def _closed_form_records(A, offset, cfg, start, scale=1.0):
    """_rk4_record's records and those of rk4_record_powers for x' = a x + offset
    + sin t + sin(sqrt 2 t), from y_p,0 + ``start`` (or from 0 when ``start`` is
    None); None when the closed form does not apply."""
    rhs = build_ode_rhs(SystemSpec("scalar_ode", 1, "linear+trig",
                                   {"A": A, "forcing": _S1_FORCING, "offset": [offset]}))
    nsub = max(1, math.ceil(cfg.record_dt / cfg.dt - 1e-12))
    h = cfg.record_dt / nsub
    with patch.object(systems, "_rk4_coeffs", _scaled_coeffs(scale)):
        part = _rk4_particular(rhs, systems._rk4_coeffs(rhs.A, h), h,
                               (len(_record_times(cfg)) - 1) * nsub)
        if part is None:
            return None
        y0 = np.zeros(1) if start is None else part([0.0])[0] + start
        with patch.object(systems, "_rk4_affine_steps", side_effect=AssertionError("loop ran")):
            return _rk4_record(rhs, y0, cfg), rk4_record_powers(rhs, y0, cfg)


@pytest.mark.parametrize("A, dt, t_end, offset, start, scale", [
    pytest.param([[-1.0]], 0.1, 20_000.0, 0.0, None, 1.0, id="s1-P-underflows-in-chunk-1"),
    pytest.param([[-0.0075]], 1.0, 200_000.0, 0.3, None, 1.0, id="P-underflows-in-chunk-2"),
    pytest.param([[-1.0]], 0.1, 20_000.0, 0.0, 0.0, 1.0, id="e-is-0"),
    pytest.param([[-1.0]], 0.1, 20_000.0, 0.0, -1.5, 1.0, id="e-below-0"),
    pytest.param([[-1.0]], 0.1, 20_000.0, 0.0, 2.0, -1.0, id="P-below-0"),
    pytest.param([[-1.0]], 0.1, 20_000.0, 0.0, -2.0, -0.0, id="P-is-minus-0"),
    pytest.param([[0.0]], 0.1, 20_000.0, 0.0, None, 1.0, id="P-is-1"),
    pytest.param([[1e-6]], 0.1, 20_000.0, 0.0, 0.5, 1.0, id="P-above-1"),
])
def test_closed_form_records_past_the_zero_powers_bit_for_bit(A, dt, t_end, offset, start, scale):
    # Runs of more than three 65,536-record chunks against P**k at every record.
    cfg = IntegratorConfig(method="rk4_fixed", dt=dt, t_end=t_end, record_dt=dt,
                           blowup_bound=1e12)
    got, ref = _closed_form_records(A, offset, cfg, start, scale)
    assert len(got) > 3 * systems._CHUNK
    assert got.tobytes() == ref.tobytes()


@settings(max_examples=80, deadline=None)
@given(st.floats(-27.0, 0.01), st.sampled_from([1.0, -1.0, 0.0, -0.0]), st.integers(1, 3),
       st.integers(2, 3000), st.sampled_from([1, 2, 7, 64]),
       st.one_of(st.none(), st.floats(-3.0, 3.0)), st.floats(-1.0, 1.0))
@example(-0.0075, 1.0, 1, 2000, 64, None, 0.3)
@example(-27.0, -1.0, 1, 2000, 7, -0.0, 0.0)
def test_closed_form_zero_powers_match_every_power(a, scale, nsub, records, chunk, start, offset):
    # Short runs in small chunks: any A, P's sign and a zero, a chunk that
    # ends on an odd or an even step.
    cfg = IntegratorConfig(method="rk4_fixed", dt=0.1 / nsub, t_end=0.1 * records, record_dt=0.1,
                           blowup_bound=1e300)
    with patch.object(systems, "_CHUNK", chunk):
        runs = _closed_form_records([[a]], offset, cfg, start, scale)
    assume(runs is not None)
    assert runs[0].tobytes() == runs[1].tobytes()


# The scalar closed-form trajectory of integrate_ode is a LazySignal: its rows are
# formed when read, and its record pass checks the bound and folds the extremes.
@settings(max_examples=40, deadline=None)
@given(st.floats(-27.0, 0.01), st.sampled_from([1.0, -1.0, -0.0]),
       st.floats(-2.0, 2.0), st.floats(0.1, 3.0), st.floats(-1.0, 1.0),
       st.one_of(st.none(), st.floats(-3.0, 3.0)),
       st.integers(0, 3000), st.floats(1.0, 4.0),
       st.lists(st.integers(-3100, 3100), min_size=2, max_size=6),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
       st.floats(0.0, 1.0), st.floats(0.0, 1.0),
       st.sampled_from([1, 7, 64, 1 << 14]))
@example(-1.0, 1.0, 1.0, 1.0, 0.0, None, 3000, 1.0, [0, 3001], [0.5], 0.0, 0.33, 1 << 14)
@example(-27.0, -1.0, 1.0, SQRT2, 0.3, 0.0, 2000, 2.5, [5, 1999, -7], [1.0, 0.0], 0.2, 0.21, 7)
@example(-0.0075, -0.0, -0.5, 0.3, 0.1, -2.0, 1, 3.0, [0, 1, 2], [0.7], 0.0, 1.0, 1)
def test_lazy_trajectory_reads_are_the_dense_records_bit_for_bit(
        a, scale, amp, omega, offset, start, k, ratio, cuts, ts, lo, hi, chunk):
    # Any A, P's sign and a zero, e = 0, a record_dt / dt ratio that is not a whole
    # number, and a t_end off the record grid, whose record count floors.
    sys = SystemSpec("scalar_ode", 1, "linear+trig",
                     {"A": [[a]], "forcing": [[[amp, omega, 0.4]]], "offset": [offset]})
    cfg = IntegratorConfig(method="rk4_fixed", dt=0.1 / ratio, t_end=0.1 * k + 0.03,
                           record_dt=0.1, blowup_bound=1e300)
    rhs = build_ode_rhs(sys)
    nsub = math.ceil(ratio - 1e-12)
    with patch.object(systems, "_rk4_coeffs", _scaled_coeffs(scale)), \
            patch.object(systems, "_PASS", chunk):
        part = _rk4_particular(rhs, systems._rk4_coeffs(rhs.A, 0.1 / nsub), 0.1 / nsub, k * nsub)
        assume(part is not None)
        y0 = np.zeros(1) if start is None else part([0.0])[0] + start
        lazy = integrate_ode(sys, y0, cfg)
        dense = _rk4_record(rhs, y0, cfg)
    assert isinstance(lazy, LazySignal) and len(lazy) == len(dense) == k + 1
    sig = Signal(0.0, 0.1, dense)
    for i, j in zip(cuts, cuts[1:]):
        got = lazy[i:j]
        assert got.shape == dense[i:j].shape and got.tobytes() == dense[i:j].tobytes()
    times = 0.1 * k * np.array(ts)
    assert lazy.values(times).tobytes() == sig.values(times).tobytes()
    lo = 0.1 * k * lo  # [lo, hi] holds a grid point
    hi = lo + 0.1 * (1 + k * hi)
    want = sig.restrict(lo, hi)
    got = lazy.restrict(lo, hi)
    assert (got.t0, got.dt) == (want.t0, want.dt)
    assert got.samples.tobytes() == want.samples.tobytes()
    # Min and max pick floats, so the fold is the whole array's; a zero's sign may
    # differ, which the state box's + 0.0 drops.
    for x, y in zip(lazy.extremes, (dense.min(axis=0), dense.max(axis=0))):
        assert np.array_equal(x, y)
    assert lazy.samples.tobytes() == dense.tobytes()
    assert lazy.values(times).tobytes() == sig.values(times).tobytes()


def _s1_trajectory(t_end):
    cfg = build_scenario("s1-opial-scalar")
    u0 = affine_rhs(cfg.system).steady_state()(0.0)[0]
    return integrate_ode(cfg.system, u0, replace(cfg.integrator, t_end=t_end))


def test_s1_trajectory_holds_no_record_array():
    # The 2,150,001 records of s1's default horizon would take 17.2 MB.
    assert build_scenario("s1-opial-scalar").integrator.t_end == 215_000.0
    tracemalloc.start()
    try:
        traj = _s1_trajectory(215_000.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(traj, LazySignal) and len(traj) == 2_150_001
    assert "samples" not in vars(traj)
    assert peak < 4e6


def test_s1_reads_of_the_trajectory_form_no_samples(tmp_path):
    # The state box, the omega sample, the entire-trajectory estimate and the
    # trajectory.csv window read row slices only.
    traj = _s1_trajectory(3000.0)
    times = (700.0, 1300.05, 1900.0, 2500.0)
    returns = ReturnSequence(times, (0.1,) * 4, (0.5,) * 4)
    em = RunManifest(build_scenario("s1-opial-scalar"), tmp_path / "out")
    _check_state_box(em, *traj.extremes, [[-10.0, 10.0]])
    assert em.summary["state_box"]["status"] == "pass"
    omega_fiber_sample(traj, returns, 100.0)
    entire_trajectory_estimate(traj, returns, 60.0)
    traj.restrict(0.0, 1000.0)
    assert "samples" not in vars(traj)


@pytest.mark.parametrize("chunk", [1, 7, 1 << 14])
def test_lazy_trajectory_blowup_is_raised_by_the_record_pass(chunk):
    # An unstable scalar system on the closed form: the first record past the
    # bound, whatever chunk it falls in, with the message the dense records give.
    sys = SystemSpec("scalar_ode", 1, "linear+trig",
                     {"A": [[0.5]], "forcing": [[[1.0, 1.0, 0.0]]], "offset": [0.25]})
    cfg = IntegratorConfig(method="rk4_fixed", dt=0.05, record_dt=0.1, t_end=100.0,
                           blowup_bound=10.0)
    with patch.object(systems, "_PASS", chunk), \
            patch.object(systems, "_rk4_affine_steps", side_effect=AssertionError("loop ran")), \
            pytest.raises(BlowupDetected) as err:
        integrate_ode(sys, [1.0], cfg)
    assert str(err.value) == "state norm 10.5434 exceeds bound 10 at t=3"
