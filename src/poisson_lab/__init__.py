"""poisson-lab: monotone nonautonomous systems under recurrent forcing.

Integrates monotone ODE / delay / parabolic systems driven by recurrent
forcings, classifies the recurrence character of trajectories, and checks
the convergence of all trajectories toward the distinguished recurrent one.
The modules are the interface: import names from ``poisson_lab.signals``,
``systems``, ``recurrence``, ``limits``, ``scenarios`` and ``cli``.
"""

__version__ = "0.1.0"

from . import errors, signals, systems, recurrence, limits, scenarios  # noqa: F401
