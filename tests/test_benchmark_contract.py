"""The traced benchmark run binds package names; they must keep resolving.

``perfbench/tracer.py`` wraps every function named in ``SPAN_TARGETS`` and
every factory in ``RHS_FACTORIES`` at each module attribute bound to it.
The file is imported as it is, never edited.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    if not TRACER.is_file():
        pytest.skip("perfbench/tracer.py is not part of this checkout")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _bindings():
    import poisson_lab.cli  # noqa: F401  (loads every module the tracer binds)

    mods = [importlib.import_module(name) for name in (
        "poisson_lab", "poisson_lab.cli", "poisson_lab.limits",
        "poisson_lab.recurrence", "poisson_lab.scenarios",
        "poisson_lab.signals", "poisson_lab.systems")]
    out = {(m.__name__, k): v for m in mods for k, v in vars(m).items()
           if callable(v)}
    out[("Signal", "values")] = mods[5].Signal.values
    return out


def test_traced_names_resolve(tracer):
    _bindings()
    for mod_name, attrs in tracer.SPAN_TARGETS.items():
        mod = importlib.import_module(f"poisson_lab.{mod_name}")
        for attr in attrs:
            assert callable(getattr(mod, attr, None)), f"{mod_name}.{attr}"
    systems = importlib.import_module("poisson_lab.systems")
    for attr in tracer.RHS_FACTORIES:
        assert callable(getattr(systems, attr, None)), f"systems.{attr}"


def test_tracer_install_round_trips(tracer):
    before = _bindings()
    t = tracer.Tracer()
    t.install()
    try:
        during = _bindings()
        wrapped = [k for k in before if during[k] is not before[k]]
        assert ("poisson_lab.scenarios", "comparison_battery") in wrapped
        assert ("poisson_lab.systems", "build_ode_rhs") in wrapped
    finally:
        t.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracer_sees_both_profiles_of_classify(tracer):
    """``bebutov_profile`` lives in ``signals``; the ``recurrence`` binding the
    tracer wraps is the one ``classify`` calls."""
    import numpy as np

    from poisson_lab.signals import sample_function

    sig = sample_function(np.sin, 0.0, 50.0, 0.05)
    recurrence = importlib.import_module("poisson_lab.recurrence")
    t = tracer.Tracer()
    t.install()
    try:
        recurrence.classify(sig)
    finally:
        t.uninstall()
    names = {span[0] for span in t.spans}
    assert {"recurrence.classify", "recurrence.bebutov_profile",
            "signals.discrepancy_profile"} <= names
