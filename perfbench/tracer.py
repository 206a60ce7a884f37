"""Outside-in tracing of poisson_lab for the traced benchmark run.

The tracer wraps public functions of the package at every module attribute
where they are bound (``classify`` is bound in ``recurrence``, ``scenarios``,
``cli`` and the package itself), so calls made between modules are seen
without editing the package.  Each wrapped call records a span
``[name, start, end, parent]`` in memory; the spans are written out when the
run ends.  The objects returned by the right-hand-side factories are replaced
by counting proxies, so RHS calls are counted where the integrators make them.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute) pairs that get a span.  Functions are wrapped at every
# binding of the same object in any loaded poisson_lab module.
SPAN_TARGETS = {
    "systems": (
        "integrate_ode", "integrate_ode_snapshots", "integrate_ode_batch",
        "integrate_dde", "integrate_dde_batch",
        "integrate_parabolic", "integrate_parabolic_batch",
        "forcing_signal", "quasimonotone_check",
    ),
    "signals": (
        "discrepancy_profile", "shift_discrepancy", "read_signal_csv",
        "write_signal_csv", "sup_distance",
    ),
    "recurrence": (
        "classify", "bebutov_profile", "poisson_returns",
        "quasi_periodic_fit", "comparability_profile",
    ),
    "limits": (
        "gamma_extract", "omega_fiber_sample", "entire_trajectory_estimate",
        "convergence_check", "comparison_battery", "contraction_check",
    ),
    "scenarios": ("run_scenario",),
    "cli": ("main",),
}

# RHS factory -> the counter kind of what it returns.
RHS_FACTORIES = {
    "build_ode_rhs": "ode",
    "build_dde_rhs": "dde",
    "build_reaction": "parabolic",
}

# Integrator -> the RHS kind it drives.
INTEGRATOR_KIND = {
    "integrate_ode": "ode",
    "integrate_ode_snapshots": "ode",
    "integrate_ode_batch": "ode",
    "integrate_dde": "dde",
    "integrate_dde_batch": "dde",
    "integrate_parabolic": "parabolic",
    "integrate_parabolic_batch": "parabolic",
}

_METHOD_LABEL = {"rk4_fixed": "rk4", "rk45_adaptive": "dopri5"}


def _arg(args, kwargs, pos, name):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else None


class _CountedRhs:
    """Delegates to a right-hand side and counts its evaluations."""

    def __init__(self, inner, counter: list):
        self._inner = inner
        self._counter = counter

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __call__(self, *args):
        self._counter[0] += 1
        return self._inner(*args)

    def scalar_fn(self):
        fn = self._inner.scalar_fn()
        if fn is None:
            return None
        counter = self._counter

        def counted(t, x):
            counter[0] += 1
            return fn(t, x)

        return counted

    def reaction(self, *args):
        self._counter[0] += 1
        return self._inner.reaction(*args)


class Tracer:
    """Installs span wrappers and RHS-counting proxies; aggregates the spans."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._rhs_counters = {k: [0] for k in RHS_FACTORIES.values()}
        self.counts: dict[str, float] = defaultdict(float)
        self._restore: list[tuple] = []

    # -- counters -----------------------------------------------------------

    def rhs_calls(self, kind: str) -> int:
        return self._rhs_counters[kind][0]

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "poisson_lab" or name.startswith("poisson_lab.")}
        for mod_name, attrs in SPAN_TARGETS.items():
            mod = mods[f"poisson_lab.{mod_name}"]
            for attr in attrs:
                orig = getattr(mod, attr)
                self._rebind(mods, orig, self._wrap(f"{mod_name}.{attr}", orig, attr))
        systems = mods["poisson_lab.systems"]
        for attr, kind in RHS_FACTORIES.items():
            orig = getattr(systems, attr)
            self._rebind(mods, orig, self._proxy_factory(orig, kind))
        sig_cls = mods["poisson_lab.signals"].Signal
        orig_values = sig_cls.values
        self._restore.append((sig_cls, "values", orig_values))
        sig_cls.values = self._wrap("signals.Signal.values", orig_values, "values")

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def _rebind(self, mods, orig, wrapper) -> None:
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._restore.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def _proxy_factory(self, factory, kind):
        counter = self._rhs_counters[kind]

        def build(*args, **kwargs):
            return _CountedRhs(factory(*args, **kwargs), counter)

        return build

    def _wrap(self, name, fn, attr):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        label_of = self._labeller(name, attr)
        before, after = self._hooks(attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = label_of(args, kwargs) if label_of else name
            state = before(args, kwargs) if before else None
            rec = [label, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after:
                after(counts, state, args, kwargs, result)
            return result

        return wrapper

    @staticmethod
    def _labeller(name, attr):
        if attr != "integrate_ode":
            return None

        def label(args, kwargs):
            cfg = _arg(args, kwargs, 2, "cfg")
            return f"{name}.{_METHOD_LABEL.get(cfg.method, cfg.method)}"

        return label

    def _hooks(self, attr):
        """(before, after) callbacks that turn call arguments into counts."""
        if attr in INTEGRATOR_KIND:
            kind = INTEGRATOR_KIND[attr]

            def before(args, kwargs):
                return self.rhs_calls(kind)

            def after(counts, calls0, args, kwargs, result):
                calls = self.rhs_calls(kind) - calls0
                counts[f"integrator_rhs.{kind}"] += calls
                cfg = _arg(args, kwargs, 2, "cfg")
                if kind != "ode" or (attr != "integrate_ode_batch"
                                     and cfg.method != "rk4_fixed"):
                    return
                if attr == "integrate_ode_snapshots":
                    times = np.asarray(_arg(args, kwargs, 3, "snapshot_times"))
                    horizon = float(times[-1]) if times.size else 0.0
                else:
                    horizon = cfg.t_end
                counts["rk4.rhs_calls"] += calls
                counts["rk4.configured_steps"] += horizon / cfg.dt

            return before, after

        per_arg = {
            "discrepancy_profile": (1, "taus", "signals.discrepancy_profile.taus"),
            "bebutov_profile": (1, "taus", "recurrence.bebutov_profile.taus"),
            "values": (1, "ts", "signals.Signal.values.points"),
        }
        if attr in per_arg:
            pos, pname, key = per_arg[attr]

            def after(counts, state, args, kwargs, result):
                counts[key] += np.size(_arg(args, kwargs, pos, pname))

            return None, after
        if attr == "read_signal_csv":
            def after(counts, state, args, kwargs, result):
                counts["signals.read_signal_csv.rows"] += len(result)

            return None, after
        if attr == "write_signal_csv":
            def after(counts, state, args, kwargs, result):
                counts["signals.write_signal_csv.rows"] += len(
                    _arg(args, kwargs, 0, "sig"))

            return None, after
        if attr == "poisson_returns":
            def after(counts, state, args, kwargs, result):
                counts["poisson_returns.scheduled"] += len(
                    _arg(args, kwargs, 1, "epsilon_schedule"))
                counts["poisson_returns.found"] += len(result)

            return None, after
        return None, None

    # -- aggregation --------------------------------------------------------

    def _self_times(self):
        """Self time of each span: duration minus what its children cover."""
        child = [0.0] * len(self.spans)
        for label, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [(s[2] - s[1]) - c for s, c in zip(self.spans, child)]

    def _outermost(self, match):
        """Spans selected by ``match`` with no selected ancestor."""
        spans = self.spans
        for i, (label, t0, t1, parent) in enumerate(spans):
            if not match(label):
                continue
            p = parent
            while p >= 0 and not match(spans[p][0]):
                p = spans[p][3]
            if p < 0:
                yield i

    def total(self, label: str, lo: float = -math.inf, hi: float = math.inf) -> float:
        """Time inside spans named ``label`` (recursion counted once)."""
        return sum(self.spans[i][2] - self.spans[i][1]
                   for i in self._outermost(lambda s: s == label)
                   if self.spans[i][1] >= lo and self.spans[i][2] <= hi)

    def coverage(self, prefixes: tuple, lo: float, hi: float) -> float:
        """Time in [lo, hi] covered by spans whose name has one of the prefixes."""
        covered = 0.0
        for i in self._outermost(lambda s: s.startswith(prefixes)):
            t0, t1 = self.spans[i][1], self.spans[i][2]
            covered += max(0.0, min(t1, hi) - max(t0, lo))
        return covered

    def summary(self) -> dict:
        """Per-layer metrics derived from the spans and counters."""
        selfs = self._self_times()
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for (label, *_), s in zip(self.spans, selfs):
            calls[label] += 1
            self_s[label] += s
        c = self.counts
        out = {}
        for mod_name, attrs in SPAN_TARGETS.items():
            for attr in attrs:
                name = f"{mod_name}.{attr}"
                if name == "systems.integrate_ode":
                    for meth in ("rk4", "dopri5"):
                        out[f"{name}.{meth}.s"] = self.total(f"{name}.{meth}")
                else:
                    out[f"{name}.s"] = self.total(name)
        for name in ("recurrence.classify", "scenarios.run_scenario", "cli.main"):
            out[f"{name}.self_s"] = self_s[name]
        out["recurrence.classify.calls"] = calls["recurrence.classify"]
        out["signals.shift_discrepancy.calls"] = calls["signals.shift_discrepancy"]
        out["signals.Signal.values.calls"] = calls["signals.Signal.values"]
        for key in ("signals.Signal.values.points", "signals.discrepancy_profile.taus",
                    "recurrence.bebutov_profile.taus", "signals.read_signal_csv.rows",
                    "signals.write_signal_csv.rows"):
            out[key] = c[key]
        sched = c["poisson_returns.scheduled"]
        out["recurrence.poisson_returns.found_ratio"] = (
            c["poisson_returns.found"] / sched if sched else 0.0)
        for kind in RHS_FACTORIES.values():
            busy = sum(v for k, v in out.items() if k.startswith("systems.")
                       and k.endswith(".s")
                       and INTEGRATOR_KIND.get(k.split(".")[1]) == kind)
            out[f"systems.rhs_calls.{kind}"] = self.rhs_calls(kind)
            out[f"systems.rhs_calls_per_s.{kind}"] = (
                c[f"integrator_rhs.{kind}"] / busy if busy else 0.0)
        steps = c["rk4.configured_steps"]
        out["systems.rhs_per_configured_step.rk4"] = (
            c["rk4.rhs_calls"] / steps if steps else 0.0)
        out["trace.spans"] = len(self.spans)
        return out

    def dump(self, path) -> None:
        """Write the spans and counters as JSON (times relative to the first span)."""
        origin = self.spans[0][1] if self.spans else 0.0
        payload = {
            "fields": ["name", "start_s", "end_s", "parent"],
            "spans": [[n, t0 - origin, t1 - origin, p] for n, t0, t1, p in self.spans],
            "counts": dict(self.counts),
            "rhs_calls": {k: self.rhs_calls(k) for k in self._rhs_counters},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
