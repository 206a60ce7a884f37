"""Exception types shared across the package.

Every error raised by poisson-lab derives from :class:`PoissonLabError` so
callers (notably the CLI) can separate usage problems from scientific
failures.
"""


class PoissonLabError(Exception):
    """Base class for all poisson-lab errors."""


class DimensionMismatch(PoissonLabError):
    """Two signals or states with incompatible component counts."""


class WindowOutOfDomain(PoissonLabError):
    """A window (or its shift) does not fit inside a signal's domain."""


class ShiftOutOfDomain(PoissonLabError):
    """A time shift leaves no common domain."""


class DomainMismatch(PoissonLabError):
    """Two signals whose domains do not overlap enough to compare."""


class ParseError(PoissonLabError):
    """Malformed signal file (bad header, non-numeric data, non-uniform grid)."""


class ConfigInvalid(PoissonLabError):
    """Scenario or integrator configuration failed validation."""


class UnknownRegistryKey(ConfigInvalid):
    """A right-hand-side or forcing key that is not registered."""


class BlowupDetected(PoissonLabError):
    """A trajectory left the configured state bound or became non-finite."""


class StepUnderflow(PoissonLabError):
    """Adaptive step control pushed the step below the machine floor."""


class HistoryDomainMismatch(PoissonLabError):
    """A delay-equation history segment does not cover exactly [-r, 0]."""


class GridTooCoarse(ConfigInvalid):
    """Spatial grid with too few points for the parabolic scheme."""


class InsufficientReturns(PoissonLabError):
    """Fewer usable base return times than an operation requires."""


class NotCauchy(PoissonLabError):
    """Snapshot gaps of an extraction run fail the Cauchy criterion."""
