"""Exception types raised by spdmeans."""


class SpdMeansError(Exception):
    """Base class for all spdmeans errors."""


class ShapeError(SpdMeansError):
    """Operands have incompatible dimensions."""


class DomainError(SpdMeansError):
    """A scalar argument lies outside the domain of the requested function."""


class NotPositiveDefinite(SpdMeansError):
    """A matrix required to be positive definite is not."""


class NumericalFailure(SpdMeansError):
    """A dense linear-algebra kernel failed to converge."""


class SingularTransform(SpdMeansError):
    """A congruence transform matrix is numerically singular."""


class MeasureError(SpdMeansError):
    """A measure violates its normalization or support constraints."""


class EmptyInput(MeasureError):
    """An operation received an empty collection: a measure with no atom."""


class Incomparable(SpdMeansError):
    """Two measures are structurally incomparable under the partial order."""


class MonotonicityViolation(SpdMeansError):
    """The decreasing-net property failed beyond tolerance (numerics bug)."""


class NonConvergence(SpdMeansError):
    """An iterative solver exhausted its iteration budget.

    Attributes
    ----------
    iterations : int
        Number of iterations performed.
    """

    def __init__(self, message, iterations=0):
        super().__init__(message)
        self.iterations = iterations
