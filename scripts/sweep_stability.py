#!/usr/bin/env python3
"""Uniform-stability moduli delta(eps) for the ODE scenarios.

Probes shells of start states around an anchor trajectory and reports the
supremum of the shell radii whose probes stay eps-close on the horizon,
eps / M with M the largest probe deviation per unit radius (exact for
these affine systems).  Both systems contract from the start, so M = 1
and delta = eps: a probe's largest deviation is its start offset.
"""

import math

import numpy as np

from poisson_lab.limits import contraction_check, uniform_stability_estimate
from poisson_lab.systems import SystemSpec

SQRT2 = math.sqrt(2.0)

SYSTEMS = {
    "s1 scalar": SystemSpec(
        "scalar_ode", 1, "linear+trig",
        {"A": [[-1.0]], "forcing": [[[1.0, 1.0, 0.0], [1.0, SQRT2, 0.0]]]}),
    "s3 cooperative": SystemSpec(
        "cooperative_ode", 2, "linear+trig",
        {"A": [[-2.0, 1.0], [1.0, -2.0]],
         "forcing": [[[1.0, 1.0, 0.0]], [[1.0, 1.0, math.pi / 2]]]}),
}


def main() -> int:
    eps_list = [0.3, 0.1, 0.03, 0.01]
    for label, sys in SYSTEMS.items():
        anchor = np.zeros(sys.dim)
        table = uniform_stability_estimate(sys, anchor, eps_list, probes=12,
                                           horizon=20.0, seed=1)
        contracting = contraction_check(sys, pairs=12, horizon=10.0, seed=1)
        print(f"{label}  (contracting-evidence: {bool(contracting)})")
        for eps, delta in table:
            print(f"  eps = {eps:6.3f}   delta_hat = {delta:10.6f}   "
                  f"ratio {delta / eps:6.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
