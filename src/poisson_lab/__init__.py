"""poisson-lab: monotone nonautonomous systems under recurrent forcing.

Integrates monotone ODE / delay / parabolic systems driven by recurrent
forcings, classifies the recurrence character of trajectories, and checks
the convergence of all trajectories toward the distinguished recurrent one.
"""

__version__ = "0.1.0"

from . import errors  # noqa: F401
from .signals import (  # noqa: F401
    Signal,
    Window,
    bebutov_distance,
    read_signal_csv,
    sample_function,
    shift,
    shift_discrepancy,
    sup_distance,
    write_signal_csv,
)
from .systems import (  # noqa: F401
    IntegratorConfig,
    SystemSpec,
    forcing_signal,
    integrate_dde,
    integrate_ode,
    integrate_parabolic,
    quasimonotone_check,
)
from .recurrence import (  # noqa: F401
    ClassifyConfig,
    ComparabilityProfile,
    RecurrenceReport,
    ReturnSequence,
    TauGrid,
    classify,
    comparability_profile,
    default_classify_config,
    poisson_returns,
    quasi_periodic_fit,
)
from .limits import (  # noqa: F401
    ConvergenceReport,
    OmegaSample,
    contraction_check,
    convergence_check,
    entire_trajectory_estimate,
    gamma_extract,
    omega_fiber_sample,
)
from .scenarios import (  # noqa: F401
    CATALOG,
    RunManifest,
    ScenarioConfig,
    build_scenario,
    load_scenario_config,
    run_scenario,
)
