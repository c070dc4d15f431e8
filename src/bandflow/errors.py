"""Exception types shared across the package."""


class BandflowError(Exception):
    """Base class for all bandflow-specific failures."""


class ToleranceFailure(BandflowError):
    """A constructed object would fall outside its advertised invariant bounds."""


class QuadratureFailure(BandflowError):
    """Adaptive quadrature could not meet the requested tolerance."""


class NegativeRadicand(BandflowError):
    """A radicand that should be nonnegative fell below the roundoff window."""


class DivisionNearZero(BandflowError):
    """A quotient was requested at a point where the denominator is ~ 0."""


class BoundaryViolation(BandflowError):
    """A radial bump fails to vanish at the band boundary."""


class TangencyViolation(BandflowError):
    """A vector field (or its stream potential) is not tangent to the boundary."""


class ConvergenceFailure(BandflowError):
    """An iterative solver (eigenvalue scan, mode sweep) failed to settle."""
