"""Exception types shared across the package."""


class NmflowError(Exception):
    """Base class for all package-specific errors."""


class NonHermitianError(NmflowError, ValueError):
    """Input matrix violates the Hermiticity tolerance."""


class DimMismatchError(NmflowError, ValueError):
    """Subsystem dimensions are inconsistent with the matrix shape."""


class NotAStateError(NmflowError, ValueError):
    """Reconstructed operator fails the density-matrix checks (trace/PSD)."""


class BadIntervalError(NmflowError, ValueError):
    """Time interval violates 0 <= t <= s."""


class UnphysicalError(NmflowError, ValueError):
    """Channel parameters produce a non-CPTP map at the requested time."""


class SingularMapError(NmflowError, ValueError):
    """Intermediate map does not exist (preceding evolution not bijective)."""


class NonCommutingError(NmflowError, ValueError):
    """Ensemble states do not commute pairwise; closed-form guessing unavailable."""


class UnphysicalProbeError(NmflowError, ValueError):
    """Probe parameters violate the physicality constraint p < exp(-alpha*tau)."""


class NotYetNonMarkovianError(NmflowError, ValueError):
    """Probe time tau does not lie past the onset t_0 of negative rates."""


class NeverBreakingError(NmflowError, ValueError):
    """Negativity of the evolved maximally entangled state never reaches zero."""


class BoundaryStateError(NmflowError, ValueError):
    """Stationary-state parameter a12 not inside |a12| < 1/4 (the boundary, beyond or NaN)."""


class ConvergenceError(NmflowError, ArithmeticError):
    """An iterative kernel did not converge within its bound of steps."""


class ConfigParseError(NmflowError, ValueError):
    """Experiment configuration is malformed."""


class PrecisionLossWarning(UserWarning):
    """Measured values sit close enough to machine epsilon to be untrustworthy."""
