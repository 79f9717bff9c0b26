"""Exception hierarchy shared across the package."""


class BilliardError(Exception):
    """Base class for every error raised by this package."""


class NonGenericPoint(BilliardError):
    """Two elliptic coordinates collide (point too close to a focal conic)."""


class NegativeRadicand(BilliardError):
    """Elliptic coordinates violate the interleaving inequalities."""


class SingularLine(BilliardError):
    """A caustic parameter collides with a squared semiaxis or a twin root."""


class NonTransverse(BilliardError):
    """The line does not cross the ellipsoid transversally."""


class SingularCaustic(BilliardError):
    """Caustic parameter too close to a singular value."""


class DegenerateImpact(BilliardError):
    """Tangential impact: the outward velocity is orthogonal to the normal."""


class DegenerateOrbit(BilliardError):
    """Orbit confined to a coordinate hyperplane or 2-periodic chord."""


class FeasibilityError(BilliardError):
    """The requested reversor cannot occur for this caustic type."""


class BranchOutOfRange(BilliardError):
    """Sign-branch selector outside the valid range."""


class NoSolutionInComponent(BilliardError):
    """Frequency inversion found no solution in the requested component."""


class QuadratureNotConverged(BilliardError):
    """A period integral missed its tolerance at the finest quadrature level."""


class UnsupportedDimension(BilliardError):
    """Operation not available for this ambient dimension."""


class VerificationFailed(BilliardError):
    """A trajectory failed one or more verification checks."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report
