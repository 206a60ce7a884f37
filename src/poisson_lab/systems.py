"""Equation families and integrators producing Signals.

A :class:`SystemSpec` names one equation family (scalar or cooperative ODE,
single-delay DDE, 1-D parabolic system) plus its time-dependent forcing, and
the integrators here realize the solution operator: state at time t as a
function of the start state and the forcing phase.  The forcing family is
represented lazily by the shift parameter ``base_shift`` on closed-form
forcings, which keeps time translates exact.

Every registered system has one affine right-hand side type,
:class:`LinearTrigRhs`: u'(t) = A u(t) + A_delay u(t - r) + g(t) with a
trigonometric forcing g.  The ODE has no delay term; the parabolic method of
lines is such an ODE on the (species, node) grid, with A the mirrored-ghost
Laplacian plus decay.  Fixed-step RK4 on u' = A u + g(t), with inputs g that
do not depend on the current state, is exactly the recurrence
y_{k+1} = P(hA) y_k + q_k, with P the degree-4 Taylor polynomial of exp(hA)
and q_k a fixed combination of g at t_k, t_k + h/2 and t_k + h.  With the
trigonometric g of the ODE and parabolic kinds it is solved in closed form,
y_k = P^k (y_0 - y_p,0) + y_p,k (one solve per frequency), at the record
steps only.  The DDE method of steps, whose inputs add A_delay times the
delayed solution, and ill-conditioned systems run it step by step.  Steps
are indexed by integers, t_k = t0 + k h: the dense and batch
drivers take nsub = ceil(record_dt / dt) steps of h = record_dt / nsub per
record interval, so the step that runs is the step configured.  The snapshot
driver restarts that driver once per span between snapshots, as one record
interval on the system translated to the span's start: the cocycle identity
phi(t + s, x, g) = phi(t, phi(s, x, g), theta_s g).

Adaptive Dormand-Prince 5(4) on the ODE runs each trial step as one step
map: for the affine system the seven stages are linear in the state and in
the forcing's sines at the stage times, so y5 - y and the error estimate
are a polynomial in h, with matrix coefficients built once per call,
applied to [y; sines; 1].  It never calls the right-hand side.

Integration of one trajectory is strictly sequential; distinct trajectories
(ordered-pair batteries, probe sweeps) are independent and the batch helpers
run them side by side in one vectorized pass.

Monotonicity of the affine form is decided exactly from the signs of its
matrices: Kamke's condition (A off the diagonal >= 0) for the ODE and
parabolic kinds, the quasimonotone condition (also A_delay >= 0) for the DDE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import (
    BlowupDetected,
    ConfigInvalid,
    DimensionMismatch,
    GridTooCoarse,
    HistoryDomainMismatch,
    StepUnderflow,
    UnknownRegistryKey,
)
from .signals import _CHUNK, _MAX_FLOATS, LazySignal, Signal, sample_function

KINDS = ("scalar_ode", "cooperative_ode", "dde_single_delay", "parabolic_1d")

_DEFAULT_BLOWUP = 1e9


@dataclass(frozen=True)
class SystemSpec:
    """Declarative description of one equation family.

    ``rhs`` names the right-hand side; ``params`` are its real parameters
    (matrices as nested lists, forcing terms as (amplitude, frequency, phase)
    triples).
    ``base_shift`` selects the time translate of the forcing, i.e. which
    member of the forcing's hull drives this trajectory.
    """

    kind: str
    dim: int
    rhs: str
    params: Mapping = field(default_factory=dict)
    base_shift: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigInvalid(f"unknown system kind {self.kind!r}")
        if type(self.dim) is not int or self.dim < 1:
            raise ConfigInvalid(f"dim must be an integer >= 1, got {self.dim!r}")
        object.__setattr__(self, "params", dict(self.params))

    def shifted(self, tau: float) -> "SystemSpec":
        """The same system driven by the tau-translate of its forcing."""
        return replace(self, base_shift=self.base_shift + tau)


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "rk45_adaptive"
    dt: float = 1e-2
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    t_end: float = 100.0
    record_dt: float = 0.05
    space_points: int = 0
    blowup_bound: float | None = None

    def __post_init__(self):
        if self.method not in ("rk4_fixed", "rk45_adaptive"):
            raise ConfigInvalid(f"unknown method {self.method!r}")
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ConfigInvalid("dt must be positive")
        if not all(0 < tol < math.inf for tol in (self.rel_tol, self.abs_tol)):
            raise ConfigInvalid("tolerances must be positive and finite")
        if not (self.t_end > 0 and math.isfinite(self.t_end)):
            raise ConfigInvalid("t_end must be positive")
        if not (self.record_dt > 0 and math.isfinite(self.record_dt)):
            raise ConfigInvalid("record_dt must be positive and finite")
        if type(self.space_points) is not int or self.space_points < 0:
            raise ConfigInvalid(f"space_points must be an integer >= 0, got {self.space_points!r}")
        if self.blowup_bound is not None and not 0 < self.blowup_bound < math.inf:
            raise ConfigInvalid("blowup_bound must be positive and finite")
        if not (math.isfinite(self.record_dt / self.dt)
                and math.isfinite(self.t_end / self.dt)):
            raise ConfigInvalid("dt is too small: record_dt/dt or t_end/dt overflows")
        if self.record_dt < self.dt - 1e-15:
            raise ConfigInvalid("record_dt must be >= dt")

    @property
    def bound(self) -> float:
        return self.blowup_bound if self.blowup_bound is not None else _DEFAULT_BLOWUP


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------

def _fold_terms(components: Sequence[Sequence], dim: int, base_shift: float):
    """Stack per-component (amp, omega, phase) triples into matrix form.

    The base shift is folded into the phases, so the translate of the
    forcing is exact.
    """
    if len(components) > dim:
        raise ConfigInvalid("the forcing has more components than the system")
    rows, amps, omegas, phases = [], [], [], []
    for i, terms in enumerate(components):
        for amp, omega, phase in terms:
            rows.append(i)
            amps.append(float(amp))
            omegas.append(float(omega))
            phases.append(float(phase) + float(omega) * base_shift)
    proj = np.zeros((dim, len(amps)))
    proj[rows, np.arange(len(amps))] = amps
    return proj, np.asarray(omegas), np.asarray(phases)


# Grid steps per angle-addition block of ``TrigSum.on_grid``.
_BLOCK = 256


class TrigSum:
    """offset + Im(V e^{i theta}), theta = omegas t + phases, as ts -> (len(ts),
    dim): a forcing (V = proj, real) or the periodic solution it drives.

    Called, it is the direct formula, the reference.  ``shifted`` and
    ``on_grid`` turn the angles at fixed times t by angle addition, f(t + tau)
    = offset + [cos(omegas tau), sin(omegas tau)] @ M(t): a few multiplies per
    value, where numpy's sin at a long run's arguments costs about 30 (their
    reduction is slow: J.-M. Muller, Elementary Functions, 3rd ed., 2016,
    ch. 11).  They are within 16 u (1 + max |omega t|) sum |V| of it, u = 2^-53.
    """

    def __init__(self, V, omegas, phases, offset=0.0):
        self.V, self.omegas, self.phases, self.offset = V, omegas, phases, offset

    def angles(self, ts) -> np.ndarray:
        return np.outer(ts, self.omegas) + self.phases

    def __call__(self, ts) -> np.ndarray:
        theta = self.angles(ts)
        out = np.sin(theta) @ self.V.real.T + self.offset
        return out + np.cos(theta) @ self.V.imag.T if np.iscomplexobj(self.V) else out

    def _turns(self, ts) -> np.ndarray:
        """M(t) at the times ts, shape (2k, len(ts), dim)."""
        W = np.exp(1j * self.angles(ts)).T[..., None] * self.V.T[:, None]
        return np.concatenate((W.imag, W.real))

    def _rotations(self, taus) -> np.ndarray:
        a = np.outer(taus, self.omegas)
        return np.concatenate((np.cos(a), np.sin(a)), axis=1)

    def shifted(self, ts) -> Callable:
        """taus -> the values at ts + tau, shape (len(taus), len(ts), dim), each
        batch one product with the M(ts) formed here."""
        M = self._turns(ts)
        shape = M.shape[1:]
        M = M.reshape(len(M), shape[0] * shape[1])
        return lambda taus: (self._rotations(taus) @ M).reshape((len(taus),) + shape) + self.offset

    def on_grid(self, t0: float, dt: float, k0: int, n: int) -> np.ndarray:
        """The values at t0 + k dt, k = k0 .. k0 + n - 1, turned from the times at
        the multiples of ``_BLOCK``.  Summed term by term, unlike a BLAS product,
        each value is the same whatever the array's shape, so a chunked grid
        reads a whole one's."""
        b0 = k0 // _BLOCK
        M = self._turns(t0 + dt * (_BLOCK * np.arange(b0, (k0 + n - 1) // _BLOCK + 1)))
        R = self._rotations(dt * np.arange(min(_BLOCK, k0 + n - b0 * _BLOCK)))
        out = np.zeros((M.shape[1], len(R), len(self.V)))
        for r, m in zip(R.T, M):
            out += m[:, None] * r[:, None]
        out = out.reshape(-1, len(self.V)) + self.offset
        return out[k0 - b0 * _BLOCK:][:n]


class LinearTrigRhs:
    """u'(t) = A u(t) + A_delay u(t - r) + offset + proj sin(omegas t + phases).

    The one right-hand side of every registered system: the ODE has no delay
    term (``A_delay`` None), the DDE a single delay r > 0, and the parabolic
    method of lines is an ODE on the flattened (species, node) grid.
    """

    def __init__(self, A, proj, omegas, phases, offset=None, A_delay=None, r=0.0):
        self.A = np.asarray(A, dtype=float)
        n = self.dim = self.A.shape[0] if self.A.ndim else 0
        if self.A.shape != (n, n):
            raise ConfigInvalid("A must be square")
        self.proj = np.asarray(proj, dtype=float)
        if self.proj.shape[0] != n:
            raise ConfigInvalid("matrix size does not match spec.dim")
        self.omegas = np.asarray(omegas, dtype=float)
        self.phases = np.asarray(phases, dtype=float)
        self.offset = np.zeros(n) if offset is None else np.asarray(offset, dtype=float)
        if self.offset.shape != (n,):
            raise ConfigInvalid("offset must have one entry per component")
        self.A_delay = None if A_delay is None else np.asarray(A_delay, dtype=float)
        if self.A_delay is not None:
            if self.A_delay.shape != (n, n):
                raise ConfigInvalid("A_delay must have the shape of A")
            if not 0 < r < math.inf:
                raise ConfigInvalid("delay must be positive and finite")
        self.r = float(r)
        delayed = () if self.A_delay is None else (self.A_delay,)
        if not all(np.isfinite(x).all() for x in (self.A, self.proj, self.omegas,
                                                  self.phases, self.offset) + delayed):
            raise ConfigInvalid("matrices, offset and forcing terms must be finite")
        self.forcing = TrigSum(self.proj, self.omegas, self.phases, self.offset)

    def __call__(self, t: float, u: np.ndarray, u_past=None) -> np.ndarray:
        p = self.forcing([t])[0]
        if u.ndim == 2:
            p = p[:, None]
        if u_past is None:
            return self.A @ u + p
        return self.A @ u + self.A_delay @ u_past + p

    def steady_state(self):
        """The forced steady state as a callable ts -> (len(ts), dim):
        x_0 + sum_j Im(x_j e^{i (omega_j t + phi_j)}), where (s I - A -
        e^{-s r} A_delay) x = src for s = 0 with src = offset and for
        s = i omega_j with src = proj_j, the characteristic matrix of
        J. K. Hale and S. M. Verduyn Lunel, Introduction to Functional
        Differential Equations, Springer, 1993."""
        s = np.concatenate(([0.0], 1j * self.omegas))[:, None, None]
        mats = s * np.eye(self.dim) - self.A
        if self.A_delay is not None:
            mats = mats - np.exp(-s * self.r) * self.A_delay
        return _solve_sources(self, mats, np.column_stack([self.offset, self.proj]).T)


class ReactionDiffusion:
    """w_t = nu w_xx + f(t, x, w) on [0, L] with Neumann walls.

    The registered reaction is affine in the state: -decay * w plus a
    separable space-time source amp_profile(x) * sin(omega t + phase).
    """

    def __init__(self, nu, L, decay, source_amp, omega, phase, base_shift,
                 profile="one-plus-cos"):
        self.nu = np.atleast_1d(np.asarray(nu, dtype=float))
        self.n_species = self.nu.size
        if np.any(self.nu <= 0):
            raise ConfigInvalid("diffusivities must be positive")
        if not L > 0:
            raise ConfigInvalid("domain length must be positive")
        self.L = float(L)
        self.decay = np.atleast_1d(np.asarray(decay, dtype=float))
        self.source_amp = np.atleast_1d(np.asarray(source_amp, dtype=float))
        if self.decay.size != self.n_species or self.source_amp.size != self.n_species:
            raise ConfigInvalid("decay/source_amp must have one entry per species")
        self.omega = float(omega)
        self.phase = float(phase) + self.omega * base_shift
        if profile not in ("one-plus-cos", "flat"):
            raise ConfigInvalid(f"unknown source profile {profile!r}")
        self.profile_kind = profile
        if not np.isfinite(np.concatenate((self.nu, self.decay, self.source_amp,
                                           [self.L, self.omega, self.phase]))).all():
            raise ConfigInvalid("reaction parameters must be finite")

    def stable_step(self, m: int) -> float:
        """The explicit diffusion stability limit 0.35 dx^2 / max nu on m
        nodes; a node spacing past 1e154 gives inf, no limit."""
        dx = self.L / (m - 1)
        return 0.35 * dx * dx / float(self.nu.max())

    def method_of_lines(self, m: int):
        """The system on m nodes as u' = A u + p(t), u the flattened
        (species, node) field.  A is nu times the Laplacian with mirrored ghost
        nodes (u[-1] = u[1]), which conserves the trapezoid-weight spatial
        mean, minus the decay; p(t) = amp profile(xs) sin(omega t + phase)."""
        dx = self.L / (m - 1)
        xs = dx * np.arange(m)
        lap = np.diag(np.ones(m - 1), 1) + np.diag(np.ones(m - 1), -1) - 2.0 * np.eye(m)
        lap[0, 1] = lap[-1, -2] = 2.0
        with np.errstate(over="ignore", invalid="ignore"):  # LinearTrigRhs rejects it
            A = np.kron(np.diag(self.nu), lap / (dx * dx)) - np.diag(np.repeat(self.decay, m))
            prof = np.ones(m) if self.profile_kind == "flat" else 1.0 + np.cos(np.pi * xs / self.L)
            proj = np.outer(self.source_amp, prof).reshape(-1, 1)
        return LinearTrigRhs(A, proj, [self.omega], [self.phase])


def require_known_keys(given: Mapping, accepted, what: str) -> None:
    """ConfigInvalid naming the keys of ``given`` outside ``accepted``, and the accepted ones."""
    unknown = given.keys() - set(accepted)
    if unknown:
        raise ConfigInvalid(f"unknown {what} {', '.join(sorted(map(str, unknown)))} "
                            f"(accepted: {', '.join(accepted)})")


def build_ode_rhs(spec: SystemSpec) -> LinearTrigRhs:
    if spec.kind not in ("scalar_ode", "cooperative_ode"):
        raise ConfigInvalid(f"{spec.kind} is not an ODE kind")
    if spec.rhs != "linear+trig":
        raise UnknownRegistryKey(f"no ODE right-hand side {spec.rhs!r}")
    p = spec.params
    require_known_keys(p, ("A", "forcing", "offset"), f"{spec.rhs} params")
    if p.get("A") is None:
        raise ConfigInvalid("linear+trig requires a coupling matrix 'A'")
    proj, omegas, phases = _fold_terms(p.get("forcing", []), spec.dim, spec.base_shift)
    return LinearTrigRhs(p["A"], proj, omegas, phases, p.get("offset"))


def build_dde_rhs(spec: SystemSpec) -> LinearTrigRhs:
    if spec.kind != "dde_single_delay":
        raise ConfigInvalid(f"{spec.kind} is not a DDE kind")
    if spec.rhs != "delay-linear":
        raise UnknownRegistryKey(f"no DDE right-hand side {spec.rhs!r}")
    p = spec.params
    require_known_keys(p, ("A_self", "A_delay", "delay", "forcing"), f"{spec.rhs} params")
    if "delay" not in p:
        raise ConfigInvalid("delay-linear requires 'delay' > 0")
    if p.get("A_delay") is None:
        raise ConfigInvalid("delay-linear requires a delayed coupling matrix 'A_delay'")
    proj, omegas, phases = _fold_terms(p.get("forcing", []), spec.dim, spec.base_shift)
    return LinearTrigRhs(p.get("A_self"), proj, omegas, phases,
                         A_delay=p["A_delay"], r=p["delay"])


def build_reaction(spec: SystemSpec) -> ReactionDiffusion:
    if spec.kind != "parabolic_1d":
        raise ConfigInvalid(f"{spec.kind} is not a parabolic kind")
    if spec.rhs != "rd-scalar":
        raise UnknownRegistryKey(f"no reaction {spec.rhs!r}")
    p = spec.params
    require_known_keys(p, ("nu", "L", "decay", "source_amp", "omega", "phase", "profile"),
                       f"{spec.rhs} params")
    reaction = ReactionDiffusion(
        p.get("nu", [1.0]), p.get("L", 1.0),
        p.get("decay", [0.0] * spec.dim),
        p.get("source_amp", [0.0] * spec.dim),
        p.get("omega", 1.0), p.get("phase", 0.0), spec.base_shift,
        p.get("profile", "one-plus-cos"),
    )
    if reaction.n_species != spec.dim:
        raise ConfigInvalid(f"dim {spec.dim} != the reaction's {reaction.n_species} species")
    return reaction


def affine_rhs(spec: SystemSpec, m: int = 8) -> LinearTrigRhs:
    """The right-hand side of any kind; the parabolic one on m nodes."""
    if spec.kind == "dde_single_delay":
        return build_dde_rhs(spec)
    if spec.kind == "parabolic_1d":
        return build_reaction(spec).method_of_lines(m)
    return build_ode_rhs(spec)


# ---------------------------------------------------------------------------
# forcing synthesis (closed-form base signals)
# ---------------------------------------------------------------------------

_SQRT2 = math.sqrt(2.0)


def _levitan_h(ts: np.ndarray) -> np.ndarray:
    return 2.0 + np.cos(ts) + np.cos(_SQRT2 * ts)


_FORCINGS: dict[str, Callable] = {
    "levitan-base": _levitan_h,
    "levitan-phi": lambda ts: 1.0 / _levitan_h(ts),
    "levitan-psi": lambda ts: np.sin(1.0 / _levitan_h(ts)),
}


def _trig_sum(components) -> TrigSum:
    if components is None:
        raise ConfigInvalid("trig-sum needs forcing components")
    return TrigSum(*_fold_terms(components, len(components), 0.0))


def forcing_signal(key: str, t0: float, t_end: float, dt: float, *,
                   components=None) -> Signal:
    """The closed-form forcing sampled on [t0, t_end] as a Signal; a
    ``trig-sum`` forcing is the ``LazySignal`` of its ``TrigSum``, sampled by it
    when read.  The named families stay on the spline: ``classify`` reads
    levitan's functions at tens of millions of points, where a cubic is
    cheaper than their three transcendentals."""
    if key == "trig-sum":
        f = _trig_sum(components)
        return LazySignal(partial(f.on_grid, t0, dt), t0, dt,
                          int(round((t_end - t0) / dt)) + 1, exact=f)
    if key not in _FORCINGS:
        raise UnknownRegistryKey(f"no forcing {key!r}")
    return sample_function(_FORCINGS[key], t0, t_end, dt)


# ---------------------------------------------------------------------------
# fixed-step RK4 as an affine recurrence
# ---------------------------------------------------------------------------

def _check_records(Y: np.ndarray, ts, bound: float) -> None:
    """BlowupDetected at the first record Y[i] (time ts[i]) with max norm > bound or not finite."""
    m = np.abs(Y).max(axis=tuple(range(1, Y.ndim)))
    bad = ~(m <= bound)
    if bad.any():
        i = int(np.argmax(bad))
        raise BlowupDetected(f"state norm {m[i]:g} exceeds bound {bound:g} at t={ts[i]:g}")


def _rk4_coeffs(A: np.ndarray, h: float):
    """One RK4 step of u' = A u + p(t), written out: (P, C0, Ch).

    y_{k+1} = P y_k + q_k with Z = h A, P = I + Z + Z^2/2 + Z^3/6 + Z^4/24
    and q_k = C0 p(t_k) + Ch p(t_k + h/2) + (h/6) p(t_k + h), where
    C0 = (h/6)(I + Z + Z^2/2 + Z^3/4) and Ch = (h/6)(4I + 2Z + Z^2/2).
    """
    eye = np.eye(A.shape[0])
    Z = h * A
    Z2 = Z @ Z
    Z3 = Z2 @ Z
    P = eye + Z + Z2 / 2.0 + Z3 / 6.0 + (Z3 @ Z) / 24.0
    C0 = (h / 6.0) * (eye + Z + Z2 / 2.0 + Z3 / 4.0)
    Ch = (h / 6.0) * (4.0 * eye + 2.0 * Z + Z2 / 2.0)
    return P, C0, Ch


def _solve_sources(rhs, mats, B) -> TrigSum:
    """x_0 + sum_j Im(x_j e^{i (omega_j t + phi_j)}) from mats[j] x_j = B[j]:
    row 0 is the offset's, whose x_0 is real, the rows after it the forcing
    terms'.  A zero right-hand side is not solved; its x_j is 0."""
    live = B.any(axis=1)
    X = np.zeros(B.shape, complex)
    X[live] = np.linalg.solve(mats[live], B[live, :, None])[..., 0]
    return TrigSum(X[1:].T, rhs.omegas, rhs.phases, X[0].real)


def _rk4_particular(rhs, coeffs, h: float, n: int):
    """The periodic solution y_p,k = y_c + sum_j Im(v_j e^{i theta_jk}) as a TrigSum,
    theta_jk = omega_j t_k + phi_j, of the RK4 recurrence for the inputs
    offset + proj sin(omegas t + phases): (I - P) y_c = (C0 + Ch + (h/6) I)
    offset and (z_j I - P) v_j = (C0 + w_j Ch + (h/6) z_j I) proj_j, with
    w_j = e^{i omega_j h/2} and z_j = w_j^2 (A. V. Oppenheim and R. W. Schafer,
    Discrete-Time Signal Processing, 3rd ed., 2010, ch. 2).  None, so that
    the caller runs the loop, when a coefficient overflows or a solved matrix
    has sigma_min * n < 1 for the n steps to run: near a singular A or a
    resonance the closed form cancels, the loop not.
    """
    P, C0, Ch = coeffs
    if not all(np.isfinite(x).all() for x in coeffs):
        return None
    eye = np.eye(len(P))
    w = np.concatenate(([1.0], np.exp(0.5j * h * rhs.omegas)))[:, None, None]
    z = w * w
    src = np.column_stack([rhs.offset, rhs.proj]).T[:, :, None]
    B = ((C0 + w * Ch + (h / 6.0) * z * eye) @ src)[..., 0]
    mats = z * eye - P
    if (np.linalg.svd(mats[B.any(axis=1)], compute_uv=False)[:, -1] * n < 1.0).any():
        return None
    return _solve_sources(rhs, mats, B)


def _rk4_affine_steps(coeffs, y: np.ndarray, F: np.ndarray, h: float) -> np.ndarray:
    """States after n steps of y <- P y + q_k, given the stage inputs F.

    F[2k], F[2k + 1], F[2k + 2] are what the right-hand side adds to A y at
    the start, midpoint and end of step k: q_k = C0 F[2k] + Ch F[2k + 1] +
    (h/6) F[2k + 2].  F has shape (2n + 1, dim) when a whole batch shares it,
    else (2n + 1,) + y.shape.  One small matrix product per step: the path of
    the DDE, whose inputs are not trigonometric, and of the systems that
    ``_rk4_particular`` turns away.  Returns (n,) + y.shape.
    """
    P, C0, Ch = coeffs
    if F.ndim == 2:
        q = F[:-1:2] @ C0.T + F[1::2] @ Ch.T + (h / 6.0) * F[2::2]
        if y.ndim == 2:
            q = q[:, :, None]
    else:
        q = C0 @ F[:-1:2] + Ch @ F[1::2] + (h / 6.0) * F[2::2]
    return _affine_steps(P, y, q)


def _affine_steps(P: np.ndarray, y: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The states of y <- P y + q[k], k = 0 .. len(q) - 1, bit for bit those
    of ``y = P @ y + q[k]``.  A state of one entry steps on Python floats as
    (p v + 0.0) + q_k: matmul sums its products from 0.0, which turns a -0.0
    product into +0.0.  A wider state steps into its output row with
    ``np.matmul(..., out=)``, the same product, and then adds q[k]."""
    if y.size == 1:
        p, v, vs = float(P[0, 0]), float(y.flat[0]), []
        for qk in q.ravel().tolist():
            v = (p * v + 0.0) + qk
            vs.append(v)
        return np.array(vs).reshape((len(q),) + y.shape)
    out = np.empty((len(q),) + y.shape)
    for k in range(len(q)):
        y = np.matmul(P, y, out=out[k])
        y += q[k]
    return out


class _ScalarRecords:
    """rows(a, m, out=None): records a .. a + m - 1 of the closed form of a one-entry
    state, into ``out`` when given: record 0 is y, record r is y_p,k + P**k e at
    k = r nsub, e = y - y_p,0.  Each is a function of r alone (``TrigSum.on_grid``
    gives the same bits however the grid is cut, and ``**`` is elementwise), so any
    cut of the records reads the same bits.  A chunk whose first power is 0 takes the
    signed zeros that ``**`` gives for every later one instead of raising P."""

    def __init__(self, P: float, part, y: np.ndarray, nsub: int, h: float):
        self.P, self.part, self.y, self.nsub, self.h = P, part, y.copy(), nsub, h
        self.tail = (1,) * (y.ndim - 1)
        self.e = y - part([0.0])[0].reshape(-1, *self.tail)

    def __call__(self, a: int, m: int, out=None) -> np.ndarray:
        P, y, e = self.P, self.y, self.e
        out = np.empty((m,) + y.shape) if out is None else out[:m]
        if a == 0 and m:
            out[0] = y
        r0 = max(a, 1)
        if r0 < a + m:
            ks = self.nsub * np.arange(r0, a + m)
            yp = self.part.on_grid(0.0, self.nsub * self.h, r0, ks.size)
            at = out[r0 - a :]
            at[...] = yp.reshape(yp.shape + self.tail)
            with np.errstate(over="ignore", invalid="ignore"):  # the record check raises
                pw = (P ** ks if P ** ks[:1] != 0.0
                      else np.where(ks & 1, np.copysign(0.0, P), 0.0))
                # A zero homogeneous part stays 0 instead of 0 * inf.
                at += np.where(e == 0.0, 0.0, np.multiply.outer(pw, e))
        return out


# Records per chunk of the record pass of a lazy trajectory, formed into one
# buffer: 2^16 records with fresh temporaries take twice as long, from page faults.
_PASS = 1 << 14


def _rk4_record(rhs, y: np.ndarray, cfg: IntegratorConfig, t0: float = 0.0,
                lazy: bool = False):
    """RK4 from t=0 on the record grid: the states; step k starts at k h.  Blowup
    messages name the record times (formed per chunk, as ``_record_times`` does) plus t0.

    In closed form record r is P^k (y_0 - y_p,0) + y_p,k at k = r nsub: P**k
    for a one-entry state (``_ScalarRecords``), else one product with M = P^nsub
    per record.  With ``lazy``, a one-entry state in closed form is not held: the
    result is a ``LazySignal`` on the record grid whose rows are formed when read.
    Its record pass forms every record once, ``_PASS`` per chunk into one buffer,
    to check each chunk for blowup and to fold the per-component extremes.
    """
    if cfg.method != "rk4_fixed":
        raise ConfigInvalid(f"method {cfg.method!r}: this integrator runs rk4_fixed only")
    records = _record_count(cfg)
    nsub = max(1, math.ceil(cfg.record_dt / cfg.dt - 1e-12))
    h = cfg.record_dt / nsub
    tail = (1,) * (y.ndim - 1)
    per_chunk = max(1, _CHUNK // y.size)  # loop steps or records, times the state size
    # The records before the solves' temporaries: after them, the batch runs of
    # catalog-mixed peaked 1.2 MB higher (glibc's heap layout).
    out = None if lazy else np.empty((records,) + y.shape)
    with np.errstate(over="ignore", invalid="ignore"):  # the chunk check raises
        coeffs = _rk4_coeffs(rhs.A, h)
        steps = (records - 1) * nsub
        part = _rk4_particular(rhs, coeffs, h, steps)
        P = coeffs[0]
        rows = None if part is None or P.shape != (1, 1) else _ScalarRecords(
            P[0, 0], part, y, nsub, h)
        if lazy and rows is not None:
            buf, lo, hi = np.empty((min(_PASS, records),) + y.shape), rows.y, rows.y
            for r0 in range(1, records, _PASS):
                r1 = min(r0 + _PASS, records)
                Y = rows(r0, r1 - r0, buf)
                _check_records(Y, t0 + cfg.record_dt * np.arange(r0, r1), cfg.bound)
                lo, hi = np.minimum(lo, Y.min(axis=0)), np.maximum(hi, Y.max(axis=0))
            return LazySignal(rows, 0.0, cfg.record_dt, records, extremes=(lo, hi))
        if out is None:
            out = np.empty((records,) + y.shape)
        out[0] = y
        if part is None:
            for k0 in range(0, steps, per_chunk):
                states = _rk4_affine_steps(coeffs, y, rhs.forcing.on_grid(
                    0.0, 0.5 * h, 2 * k0, 2 * min(per_chunk, steps - k0) + 1), h)
                y = states[-1]
                # The records r with k0 < r nsub <= k0 + len(states).
                r = np.arange(k0 // nsub + 1, (k0 + len(states)) // nsub + 1)
                out[r] = states[r * nsub - k0 - 1]
                _check_records(out[r], t0 + cfg.record_dt * r, cfg.bound)
            return out
        if rows is None:
            M = np.linalg.matrix_power(P, nsub)
            e = y - part([0.0])[0].reshape(-1, *tail)
        for r0 in range(1, records, per_chunk):
            r1 = min(r0 + per_chunk, records)
            if rows is not None:
                rows(r0, r1 - r0, out[r0:r1])
            else:
                yp = part.on_grid(0.0, nsub * h, r0, r1 - r0)
                out[r0:r1] = yp.reshape(yp.shape + tail)
                for r in range(r0, r1):
                    e = M @ e
                    out[r] += e
            _check_records(out[r0:r1], t0 + cfg.record_dt * np.arange(r0, r1), cfg.bound)
    return out


# ---------------------------------------------------------------------------
# adaptive Dormand-Prince 5(4)
# ---------------------------------------------------------------------------

_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
_POWERS = np.arange(8.0)


def _dopri5_table(rhs) -> tuple:
    """The trial step of u' = A u + offset + proj sin(omegas t + phases) as
    polynomial coefficients T, shape (8, 2d, d + 7k + 1) for k forcing terms,
    each T[q] flattened, and the (c_i, omega_j, phase_j) of its 7k stage
    sines, stage-major.

    The stage derivatives K = (k_1 .. k_7) solve K = 1 (x) A y + G +
    h (a (x) A) K, with a the strictly lower 7 x 7 stage matrix and G_i the
    forcing at t + c_i h.  a is nilpotent, so K = sum_{p<7} h^p (a^p (x) A^p)
    (1 (x) A y + G), and for a weight row w (b for y5 - y, e for the error
    estimate) h (w (x) I) K = sum_p h^(p+1) [(w a^p 1) (A^(p+1) y + A^p offset)
    + sum_i (w a^p)_i A^p proj s_i], with s_i the sines at stage i.  So
    (sum_q h^q T[q]) [y; s_1 .. s_7; 1] is y5 - y in its first d rows and
    the error estimate in the last d (J. R. Dormand and P. J. Prince,
    J. Comput. Appl. Math. 6, 1980, 19-26; E. Hairer, S. P. Norsett and
    G. Wanner, Solving Ordinary Differential Equations I, 2nd ed., 1993,
    sec. II.4).  a^p (x) A^p is never formed.
    """
    d, k = rhs.dim, rhs.omegas.size
    a = np.zeros((7, 7))
    for i, row in enumerate(_DP_A):
        a[i, :len(row)] = row
    weights = np.array([a[6], _DP_E])
    T = np.zeros((8, 2, d, d + 7 * k + 1))
    Ap = np.eye(d)
    for p in range(7):
        total = weights.sum(axis=1)[:, None, None]
        T[p + 1, :, :, :d] = total * (Ap @ rhs.A)
        T[p + 1, :, :, d:-1] = np.einsum("ri,mj->rmij", weights, Ap @ rhs.proj).reshape(2, d, -1)
        T[p + 1, :, :, -1] = total[..., 0] * (Ap @ rhs.offset)
        weights = weights @ a
        Ap = Ap @ rhs.A
    stages = (np.repeat(_DP_C, k), np.tile(rhs.omegas, 7), np.tile(rhs.phases, 7))
    return T.reshape(8, -1), stages


def _dopri5_trials(rhs, v: np.ndarray):
    """The trial steps of ``_dopri5_table(rhs)`` as (t, h) -> y5 - y then h err,
    one list, of the step of size h from y at t: one matrix-vector product
    with sum_q h^q T[q].  ``v`` is [y; s; 1] with y in place; the stage sines
    s are written into it.  Their angles are formed as
    ``LinearTrigRhs.__call__`` forms them at t + c_i h, on flat tiled arrays:
    numpy's fixed cost per call is lower without broadcasting.  Every array a
    trial forms, the angles, h^q, the step map and the product, is a buffer
    of the run written with ``out``: the same ufuncs and BLAS shapes, so the
    same bits, without an allocation per call."""
    T, (c, w, p) = _dopri5_table(rhs)
    mul, add = np.multiply, np.add
    angles, sines, hq = np.empty(c.size), v[-1 - c.size:-1], np.empty(_POWERS.size)
    S = np.empty(T.shape[1])
    step_map, out = S.reshape(-1, v.size), np.empty(T.shape[1] // v.size)

    def trial(t: float, h: float) -> list:
        add(mul(c, h, angles), t, angles)
        add(mul(angles, w, angles), p, angles)
        np.sin(angles, sines)
        np.matmul(np.power(h, _POWERS, hq), T, S)
        return np.matmul(step_map, v, out).tolist()
    return trial


def _dopri5(rhs, y0, cfg: IntegratorConfig, times) -> np.ndarray:
    """Embedded 5(4) pair with max-norm step control from t = 0: the states
    at the increasing ``times``, one row each.  Every target ends a step
    exactly; the step size carries over to the next.  Each trial step is one
    step map (``_dopri5_table``), so the right-hand side is never called.

    A trial makes the fewest numpy calls: the stage sines, h^q @ T and the
    product with [y; s; 1] stay numpy calls into buffers (``_dopri5_trials``),
    as they set the rounding, and the per-component control runs on Python
    floats, whose IEEE + - * / and abs give numpy's bits.  Python's max drops a NaN where numpy's keeps
    it, so a NaN ratio is kept by hand: it rejects the trial."""
    d = rhs.dim
    v = np.concatenate((np.asarray(y0, dtype=float), np.empty(7 * rhs.omegas.size), (1.0,)))
    y = v[:d].tolist()
    atol, rtol, bound = cfg.abs_tol, cfg.rel_tol, cfg.bound
    t, h_next, ay = 0.0, cfg.dt, [abs(x) for x in y]
    out = np.empty((len(times), d))
    # A huge A overflows T; the NaN that follows rejects every trial step
    # until StepUnderflow, as the stage loop's overflowing stages do.
    with np.errstate(over="ignore", invalid="ignore"):
        trial = _dopri5_trials(rhs, v)
        for n, t_target in enumerate(times.tolist()):
            eps_t = 1e-12 * max(1.0, abs(t_target))
            while t < t_target - eps_t:
                h = min(h_next, t_target - t)
                while True:
                    if h < 1e-14 * max(1.0, abs(t)):
                        raise StepUnderflow(f"step {h:g} underflow at t={t:g}")
                    step = trial(t, h)
                    y5 = [a + b for a, b in zip(y, step)]
                    ratios = [abs(e) / (atol + rtol * (a if a > abs(b) else abs(b)))
                              for a, b, e in zip(ay, y5, step[d:])]
                    err = math.nan if math.isnan(sum(ratios)) else max(ratios)
                    if err <= 1.0:
                        t += h
                        y = v[:d] = y5
                        ay = [abs(x) for x in y]
                        if not max(ay) <= bound:  # y holds no NaN: its ratio rejects it
                            _check_records(v[None, :d], (t,), bound)
                        h_next = h * min(5.0, max(0.2, 0.9 * max(err, 1e-16) ** -0.2))
                        break
                    h *= min(1.0, max(0.2, 0.9 * err ** -0.2))
            out[n] = y
    return out


# ---------------------------------------------------------------------------
# ODE drivers
# ---------------------------------------------------------------------------

def _record_count(cfg: IntegratorConfig) -> int:
    return int(math.floor(cfg.t_end / cfg.record_dt + 1e-9)) + 1


def _record_times(cfg: IntegratorConfig) -> np.ndarray:
    return cfg.record_dt * np.arange(_record_count(cfg))


def _start(u0, shape: tuple, name: str) -> np.ndarray:
    """``u0`` as a float array of ``shape``, whose str entries are free (batch)
    axes: DimensionMismatch naming the shape, or ConfigInvalid unless finite."""
    u = np.asarray(u0, dtype=float)
    if u.ndim != len(shape) or any(got != want for got, want in zip(u.shape, shape)
                                   if not isinstance(want, str)):
        raise DimensionMismatch(f"{name} must have shape ({', '.join(map(str, shape))})")
    if not np.isfinite(u).all():
        raise ConfigInvalid(f"{name} must be finite")
    return u


def integrate_ode(sys: SystemSpec, u0, cfg: IntegratorConfig) -> Signal:
    """Solve the ODE from u0 at t=0 and sample the result on the record grid: a
    ``LazySignal`` on RK4's closed-form path with a one-entry state (see
    ``_rk4_record``), else a Signal of every record."""
    rhs = build_ode_rhs(sys)
    u = _start(np.atleast_1d(u0), (sys.dim,), "initial state")
    if cfg.method != "rk4_fixed":
        return Signal(0.0, cfg.record_dt, _dopri5(rhs, u, cfg, _record_times(cfg)))
    Y = _rk4_record(rhs, u, cfg, lazy=True)
    return Y if isinstance(Y, Signal) else Signal(0.0, cfg.record_dt, Y)


def integrate_ode_snapshots(sys: SystemSpec, u0, cfg: IntegratorConfig,
                            snapshot_times) -> np.ndarray:
    """States at the given times only (no dense recording).

    With RK4 each span between snapshots is one record interval of the
    dense driver on ``sys.shifted(t_prev)``, restarted from the state at
    t_prev: nsub = ceil(span / dt) equal steps.
    """
    rhs = build_ode_rhs(sys)
    y = _start(np.atleast_1d(u0), (sys.dim,), "initial state")
    times = np.asarray(snapshot_times, dtype=float)
    if not (np.all((times >= 0) & (times < math.inf)) and np.all(np.diff(times) > 0)):
        raise ConfigInvalid("snapshot times must be finite, positive and increasing")
    if cfg.method != "rk4_fixed":
        return _dopri5(rhs, y, cfg, times)
    out = np.empty((times.size, sys.dim))
    t_prev = 0.0
    for i, t in enumerate(times):
        span = t - t_prev
        if span > 0:
            span_cfg = replace(cfg, dt=min(cfg.dt, span), record_dt=span, t_end=span)
            y = _rk4_record(build_ode_rhs(sys.shifted(t_prev)), y, span_cfg, t_prev)[-1]
        out[i] = y
        t_prev = t
    return out


def integrate_ode_batch(sys: SystemSpec, U0, cfg: IntegratorConfig):
    """Fixed-step RK4 over a batch of starts; U0 has shape (dim, batch).

    Returns (times, Y) with Y of shape (n_rec, dim, batch).  Used by the
    ordered-pair batteries, which are embarrassingly parallel.
    """
    rhs = build_ode_rhs(sys)
    return _record_times(cfg), _rk4_record(rhs, _start(U0, (sys.dim, "batch"), "batch starts"), cfg)


# ---------------------------------------------------------------------------
# DDE method of steps
# ---------------------------------------------------------------------------

# Cubic Lagrange weights at the half node, row j - s for the stencil nodes
# s .. s+3 (offsets 0.5, 1.5, 2.5).
_HALF_W = np.array([
    (5 / 16, 15 / 16, -5 / 16, 1 / 16),     # nodes j .. j+3,   x = 0.5
    (-1 / 16, 9 / 16, 9 / 16, -1 / 16),     # nodes j-1 .. j+2, x = 1.5
    (1 / 16, -5 / 16, 15 / 16, 5 / 16),     # nodes j-2 .. j+1, x = 2.5
])


def _half_values(V: np.ndarray) -> np.ndarray:
    """Cubic interpolation at the half nodes j + 1/2 of one delay interval.

    V holds the interval's n + 1 nodes.  The stencils stay inside it: its
    ends are breakpoints (multiples of the delay), where the solution loses
    smoothness.  Fewer than 3 steps per delay take the linear midpoint.

    The interior rows (stencil s = j - 1) read four shifted slices of V, the
    first and last rows their four end nodes; each sum keeps the order of the
    stencil's terms, so every value keeps its bits.
    """
    n = len(V) - 1
    if n < 3:
        return 0.5 * (V[:-1] + V[1:])
    out = np.empty((n,) + V.shape[1:])
    w = _HALF_W[1]
    out[1:-1] = w[0] * V[:-3] + w[1] * V[1:-2] + w[2] * V[2:-1] + w[3] * V[3:]
    for row, w, E in ((0, _HALF_W[0], V[:4]), (-1, _HALF_W[2], V[-4:])):
        out[row] = w[0] * E[0] + w[1] * E[1] + w[2] * E[2] + w[3] * E[3]
    return out


def _validate_history(history: Signal, r: float, dim: int) -> None:
    tol = 1e-9 * max(1.0, r)
    if abs(history.t0 + r) > tol or abs(history.t_end) > tol:
        raise HistoryDomainMismatch(
            f"history must cover exactly [-{r:g}, 0], got "
            f"[{history.t0:g}, {history.t_end:g}]"
        )
    if history.dim != dim:
        raise DimensionMismatch("history dimension does not match system")


def integrate_dde(sys: SystemSpec, history: Signal, cfg: IntegratorConfig) -> Signal:
    """Method of steps for a single-delay system.

    The step is snapped to divide the delay so breakpoints stay on-grid, and
    delayed values are read by cubic interpolation of the computed solution.
    The output coincides with the history on [-r, 0].
    """
    rhs = build_dde_rhs(sys)
    _validate_history(history, rhs.r, sys.dim)
    U, k_rec = _dde_core(rhs, lambda ts: history.values(ts)[:, :, None], cfg)
    return Signal(-rhs.r, k_rec, U[:, :, 0])


def integrate_dde_batch(sys: SystemSpec, history_states: np.ndarray,
                        cfg: IntegratorConfig):
    """Constant-history batch variant; history_states has shape (dim, batch)."""
    H = _start(history_states, (sys.dim, "batch"), "history batch")
    rhs = build_dde_rhs(sys)
    U, k_rec = _dde_core(rhs, lambda ts: np.broadcast_to(H, (len(ts),) + H.shape), cfg)
    return -rhs.r + k_rec * np.arange(U.shape[0]), U


def _delay_substeps(r: float, dt: float) -> int:
    """Steps per delay interval, so that the step r / n_sub is at most dt."""
    if not math.isfinite(r / dt):
        raise ConfigInvalid("dt is too small: delay/dt overflows")
    return max(1, int(math.ceil(r / dt - 1e-12)))


def _dde_core(rhs, hist_vals, cfg):
    """Method of steps on the nodes -r + i h, with a trailing batch axis:
    (the record nodes, the record step).

    Step i reads the delayed solution at nodes i - n_sub, i - n_sub + 1/2
    and i - n_sub + 1, all in the delay interval before its own.  So each
    interval of n_sub steps runs through the affine engine's step loop, with
    A_delay times those values added to the forcing as per-state stage inputs.
    """
    if cfg.method != "rk4_fixed":
        raise ConfigInvalid(f"method {cfg.method!r}: the DDE integrator runs rk4_fixed only")
    r = rhs.r
    n_sub = _delay_substeps(r, cfg.dt)
    h = r / n_sub
    k_rec = max(1, int(round(cfg.record_dt / h)))
    n_fwd = int(math.ceil(cfg.t_end / h - 1e-9))
    # Extend so the last record node is at or beyond t_end.
    total = n_sub + int(math.ceil(n_fwd / k_rec) * k_rec)
    hist = hist_vals(-r + h * np.arange(n_sub + 1))
    U = np.empty((total + 1,) + hist.shape[1:])
    U[: n_sub + 1] = hist
    D = np.empty((2 * n_sub + 1,) + hist.shape[1:])
    with np.errstate(over="ignore", invalid="ignore"):  # the record check raises
        coeffs = _rk4_coeffs(rhs.A, h)
        for i in range(n_sub, total, n_sub):
            n = min(n_sub, total - i)
            D[::2] = U[i - n_sub:i + 1]
            D[1::2] = _half_values(U[i - n_sub:i + 1])
            F = (rhs.forcing.on_grid(-r, 0.5 * h, 2 * i, 2 * n + 1)[:, :, None]
                 + rhs.A_delay @ D[:2 * n + 1])
            U[i + 1:i + n + 1] = _rk4_affine_steps(coeffs, U[i], F, h)
            rec = np.arange(-(-(i + 1) // k_rec) * k_rec, i + n + 1, k_rec)
            _check_records(U[rec], -r + h * rec, cfg.bound)
    return U[::k_rec].copy(), k_rec * h


# ---------------------------------------------------------------------------
# parabolic method of lines
# ---------------------------------------------------------------------------

def integrate_parabolic(sys: SystemSpec, u0, cfg: IntegratorConfig) -> Signal:
    """Method of lines on [0, L]: central Laplacian, ghost-node Neumann walls.

    The step is capped at the explicit diffusion stability limit and snapped
    to divide record_dt.  The Signal holds the (species, node) field flattened:
    column s m + j is species s at the node x_j = j L / (m - 1).
    """
    Y = _parabolic_core(sys, np.asarray(u0, dtype=float), cfg, batch=False)
    return Signal(0.0, cfg.record_dt, Y.reshape(len(Y), -1))


def integrate(sys: SystemSpec, start, cfg: IntegratorConfig) -> Signal:
    """One trajectory of any kind from ``start``: the ODE state, the DDE
    history Signal or the parabolic start field."""
    if sys.kind == "dde_single_delay":
        return integrate_dde(sys, start, cfg)
    if sys.kind == "parabolic_1d":
        return integrate_parabolic(sys, start, cfg)
    return integrate_ode(sys, start, cfg)


def integrate_parabolic_batch(sys: SystemSpec, U0, cfg: IntegratorConfig):
    """Batch variant; U0 has shape (n_species, m, batch).  Returns (times, Y)
    with Y of shape (n_rec, n_species, m, batch)."""
    return _record_times(cfg), _parabolic_core(sys, np.asarray(U0, dtype=float), cfg, batch=True)


def _parabolic_core(sys, W0, cfg, batch):
    reaction = build_reaction(sys)
    n = reaction.n_species
    if W0.ndim == 1 + batch and n == 1:
        W0 = W0[None]
    W0 = _start(W0, (n, "m", "b")[:2 + batch], "initial field")
    m = W0.shape[1]
    if cfg.space_points and cfg.space_points != m:
        raise ConfigInvalid("space_points does not match the initial field")
    if m < 8:
        raise GridTooCoarse(f"space_points={m} < 8")
    rhs = reaction.method_of_lines(m)
    Y = _rk4_record(rhs, W0.reshape((n * m,) + W0.shape[2:]),
                    replace(cfg, dt=min(cfg.dt, reaction.stable_step(m))))
    return Y.reshape((len(Y),) + W0.shape)


# The most rounding, in radians, of a forcing phase omega t, about |omega t| 2^-53
# (N. J. Higham, Accuracy and Stability of Numerical Algorithms, SIAM 2002, ch. 2).
_PHASE_BAR = 1e-6


def require_countable(sys: SystemSpec, cfg: IntegratorConfig, m: int) -> None:
    """Raise ConfigInvalid when integrating ``sys`` under ``cfg`` (on m nodes
    for the parabolic kind) needs more records, steps or delay steps than an
    array can hold, or reads a forcing phase omega t rounded by more than
    ``_PHASE_BAR`` by t_end (translated by the base shift)."""
    h, counts = cfg.dt, {"t_end / record_dt": cfg.t_end / cfg.record_dt}
    if sys.kind == "dde_single_delay":
        r = build_dde_rhs(sys).r
        counts["delay / dt"] = r / h
        h = r / _delay_substeps(r, h)
    elif sys.kind == "parabolic_1d" and m >= 8:  # smaller grids raise GridTooCoarse
        h = min(h, build_reaction(sys).stable_step(m))
    if cfg.method == "rk4_fixed":
        counts.update({"t_end / step": cfg.t_end / h, "record_dt / step": cfg.record_dt / h})
    for name, count in counts.items():
        if not count <= _MAX_FLOATS:
            raise ConfigInvalid(f"{name} = {count:.3g} is more than an array can hold")
    for omega in ([build_reaction(sys).omega] if sys.kind == "parabolic_1d" else
                  _fold_terms(sys.params.get("forcing", []), sys.dim, 0.0)[1].tolist()):
        T = cfg.t_end + abs(sys.base_shift)  # checked numeric at load if a term exists
        if omega and not abs(omega) * T * 2.0 ** -53 <= _PHASE_BAR:
            raise ConfigInvalid(f"forcing frequency {omega:.3g} at t = {T:.3g}: float64 rounds "
                                f"its phase by more than {_PHASE_BAR:g} rad")


# ---------------------------------------------------------------------------
# monotonicity checks
# ---------------------------------------------------------------------------

def quasimonotone_check(sys: SystemSpec) -> tuple | None:
    """Exact cooperativity test of the affine right-hand side.

    The ODE and parabolic kinds need Kamke's condition: every off-diagonal
    entry of A is >= 0 (the parabolic A is the method of lines on 8 nodes,
    whose grid couplings nu/dx^2 are positive).  The DDE kind needs the
    quasimonotone condition: also every entry of A_delay is >= 0 (H. L. Smith,
    Monotone Dynamical Systems, AMS 1995, ch. 3 and 5).  For an affine system
    these signs decide the condition on the whole state space.  Returns None
    when they hold, else the witness (i, j), the first negative entry in
    column order.
    """
    rhs = affine_rhs(sys)
    bad = (rhs.A < 0) & ~np.eye(rhs.dim, dtype=bool)
    if rhs.A_delay is not None:
        bad |= rhs.A_delay < 0
    hits = np.argwhere(bad.T)  # rows (j, i), in column order of A
    if hits.size == 0:
        return None
    j, i = hits[0]
    return int(i), int(j)
