import os
import subprocess
import sys
from pathlib import Path

from poisson_lab.scenarios import CATALOG

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_all_scenarios.py"


def test_quick_catalog_runs_from_the_checkout(tmp_path):
    # No PYTHONPATH and a foreign working directory: the script must find
    # the package in the checkout's src/ by itself.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(_SCRIPT), str(tmp_path / "out"), "--quick"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    summary = [ln.split()[0] for ln in proc.stdout.splitlines() if not ln.startswith(" ")]
    assert summary == list(CATALOG)


# Each integrator kind of the catalog on its scenario's system, shortened,
# then a CSV read and classified (the spline build and the QR of the fit).
_INTEGRATOR_KINDS = """
import sys
from dataclasses import replace
import numpy as np
from poisson_lab.recurrence import classify
from poisson_lab.scenarios import build_scenario
from poisson_lab.signals import Signal, read_signal_csv, sample_function, write_signal_csv
from poisson_lab.systems import (integrate_dde, integrate_ode, integrate_ode_batch,
                                 integrate_ode_snapshots, integrate_parabolic)

def short(name, t_end):
    cfg = build_scenario(name)
    return cfg.system, replace(cfg.integrator, method="rk4_fixed", t_end=t_end)

s1, cfg = short("s1-opial-scalar", 50.0)
integrate_ode(s1, [0.0], cfg)
s3, cfg = short("s3-coop-2d", 10.0)
integrate_ode_batch(s3, np.zeros((2, 3)), cfg)
integrate_ode_snapshots(s3, [0.0, 0.0], cfg, [2.5, 10.0])
s5, cfg = short("s5-rd-scalar", 1.0)
integrate_parabolic(s5, np.zeros((1, cfg.space_points)), cfg)
s4, cfg = short("s4-dde-linear", 5.0)
r = s4.params["delay"]
integrate_dde(s4, Signal(-r, r / 2, np.zeros((3, 1))), cfg)
write_signal_csv(sample_function(lambda t: np.sin(t) + np.sin(np.sqrt(2.0) * t),
                                 0.0, 400.0, 0.05), sys.argv[1])
report = classify(read_signal_csv(sys.argv[1]))
assert report.verdict("quasi_periodic").verdict == "yes"
print("scipy" in sys.modules)
"""


def test_integrators_leave_scipy_signal_unimported(tmp_path):
    """No part of the package imports scipy: not the integrators, the CSV
    reader and its spline, nor classify and its QR fit."""
    env = {**os.environ, "PYTHONPATH": str(_SCRIPT.parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", _INTEGRATOR_KINDS, str(tmp_path / "sig.csv")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
