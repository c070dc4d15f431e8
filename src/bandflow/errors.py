"""Exception types shared across the package."""


class BandflowError(Exception):
    """Base class for all bandflow-specific failures."""


class EventNotReached(BandflowError):
    """The profile integration never attained the requested height.

    Signals integration blow-up or an inconsistent surface description.
    A validated surface can raise it too: SurfaceSpec(1.0, 0.999) does.
    At a = 1 the meridian is a circle through the pole, where c2 - b is
    positive only on a short arc around the top; a solver step can jump
    over that whole arc, so c2 - b never changes sign at a step end and
    the event is missed.  Covering such inputs is open work (ROADMAP.md,
    item 5).
    """


class ToleranceFailure(BandflowError):
    """A constructed object drifted outside its advertised invariant bounds."""


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
