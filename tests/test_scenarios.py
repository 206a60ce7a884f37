import json
import math

import numpy as np
from hypothesis import HealthCheck, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from poisson_lab.scenarios import (
    RunManifest,
    _check_state_box,
    build_scenario,
    load_scenario_config,
    run_scenario,
)

_VALUES = st.sampled_from([0.0, -0.0]) | st.floats(-1e300, 1e300)


def _same_float(a: float, b: float) -> bool:
    """Equal, with the sign of a zero too."""
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])  # tmp_path stays empty
@given(samples=arrays(np.float64, st.tuples(st.integers(1, 40), st.integers(1, 3)), elements=_VALUES))
@example(samples=np.zeros((5, 1)))
@example(samples=np.full((4, 2), -0.0))
@example(samples=np.array([[0.0], [-0.0], [0.0]]))
@example(samples=np.array([[-3.0, 0.0], [2.0, -0.0]]))
def test_state_box_value_is_the_largest_magnitude_bit_for_bit(tmp_path, samples):
    # The value comes from the per-component extremes, with no |x| array; it is
    # np.abs's max bit for bit, an all-zero trajectory reading 0.0, not -0.0.
    # A check writes nothing, so the run's directory is not made.
    out = tmp_path / "out"
    em = RunManifest(build_scenario("s4-dde-linear"), out)
    _check_state_box(em, samples, [[-1.0, 1.0]] * samples.shape[1])
    assert _same_float(em.summary["state_box"]["value"], float(np.abs(samples).max()))
    assert not out.exists()


def test_generic_run_of_a_zero_trajectory_reports_positive_zero(tmp_path):
    cfg = tmp_path / "zero.json"
    cfg.write_text(json.dumps({
        "name": "zero-run",
        "system": {"kind": "scalar_ode", "dim": 1, "rhs": "linear+trig",
                   "params": {"A": [[-1.0]], "forcing": [[]]}},
        "integrator": {"method": "rk4_fixed", "dt": 0.05, "t_end": 20.0, "record_dt": 0.1},
        "analysis": {"u0": [0.0]},
    }))
    manifest = run_scenario(load_scenario_config(cfg), tmp_path / "out")
    assert not np.any(np.loadtxt(tmp_path / "out" / "trajectory.csv", delimiter=",",
                                 skiprows=1)[:, 1])
    assert _same_float(manifest.summary["integration"]["value"], 0.0)
