"""Exception hierarchy shared across the package."""


class DiskcalError(Exception):
    """Base class for all package-specific errors."""


class StepTooCoarse(DiskcalError):
    """A time discretization cannot resolve the requested quantity.

    Raised when a winding stays unresolved after its time grid is refined
    (some argument step reaches a quarter turn), and by flow step control
    when refinement is exhausted.
    """


class PointOutsideDisk(DiskcalError):
    """A point left the closed unit disk beyond the boundary tolerance."""


class NotAreaPreserving(DiskcalError):
    """A map's Jacobian determinant deviates too far from 1."""


class BoundaryNotConstant(DiskcalError):
    """A Hamiltonian is not constant on the unit circle at some time."""


class QMaxExceeded(DiskcalError):
    """Continued-fraction denominators outgrew the iteration budget."""


class ScaleTooLarge(DiskcalError):
    """A perturbation scale exceeds the range of the bound being tested."""


class ConfigError(DiskcalError):
    """A run configuration is malformed or inconsistent."""


class DepthUnreliable(UserWarning):
    """Continued-fraction digits past the double-precision horizon."""
