"""Exception hierarchy for the gfe package; an error of a geodesic solve or
a projection carries ``point``, the C-order flat index over the batch's
leading axes of its lowest failing point, and other errors None."""


class GFEError(Exception):
    """Base class for all errors raised by this package."""

    point: int | None = None


class DimensionMismatchError(GFEError):
    """Operands live on different manifolds or have incompatible shapes."""


class CutLocusError(GFEError):
    """The Riemannian logarithm is undefined (antipodal points, angle pi)."""


class ProjectionUndefinedError(GFEError):
    """The closest-point projection is undefined at the requested argument."""


class SingularMatrixError(GFEError):
    """Matrix input to the polar iteration is singular or has non-positive determinant."""


class NonConvergenceError(GFEError):
    """An iterative solver did not reach its tolerance in the allowed number of steps."""


class IndefiniteHessianError(GFEError):
    """Newton converged to a critical point that is not a local minimum."""


class SingularSystemError(GFEError):
    """The linear system for an implicit derivative is numerically singular."""


class AdmissibilityError(GFEError):
    """Nodal values are too spread out for the interpolation to be trusted."""


class OutsideElementError(GFEError):
    """Reference coordinate lies outside the closed reference element."""


class PointOutsideDomainError(GFEError):
    """Domain point is not contained in any grid element."""


class LineSearchFailure(GFEError):
    """Armijo backtracking underflowed without finding an acceptable step."""
