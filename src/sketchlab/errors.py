"""Exception hierarchy shared across the package."""


class SketchLabError(Exception):
    """Base class for all package-specific errors."""


# numerics
class DegenerateResidual(SketchLabError):
    """Vector lies (numerically) in the span of the basis."""


class RankDeficient(SketchLabError):
    """Matrix has numerical rank below the number of rows."""


# lattice
class FullRank(SketchLabError):
    """Matrix has a trivial integer kernel."""


class BoundViolated(SketchLabError):
    """Internal length-bound assertion failed; signals a reduction bug."""


class TooManyRows(SketchLabError):
    """Sketch has too many rows for the pre-processing guarantee."""


class LengthBoundUnachieved(SketchLabError):
    """Reduction could not certify the target basis length."""

    def __init__(self, message, achieved=None, target=None):
        super().__init__(message)
        self.achieved = achieved
        self.target = target


class DependentInput(SketchLabError):
    """Input vectors are linearly dependent."""


class DegenerateLattice(SketchLabError):
    """Generating set does not span the required space."""


# dgauss
class NonPositiveVariance(SketchLabError):
    """Variance parameter must be strictly positive."""


class VarianceTooSmall(SketchLabError):
    """Covariance falls below the smoothing margin for exact discrete sampling."""


class VarianceTooLarge(SketchLabError):
    """Variance lies above the ceiling where float64 sampling stays exact."""


# sketch
class DimensionMismatch(SketchLabError):
    """Vector dimension does not match the sketch."""


class BadParams(SketchLabError):
    """Construction parameters outside the supported regime."""


# attack
class OracleFailure(SketchLabError):
    """Oracle raised while answering a query."""


class NoExploitFound(SketchLabError):
    """A certificate judged spurious (zero exploits). verify_certificate
    reports that case as its zero report and raises nothing; the name stays
    for callers that catch it."""


class NoPositives(SketchLabError):
    """Oracle never answered 1 on the sampled queries."""


# stats / harddist
class TooFewSamples(SketchLabError):
    """Not enough samples for the requested estimator."""


class PreconditionUnmet(SketchLabError):
    """Statistical-harness precondition (floor or rank) does not hold."""


class DimensionTooLarge(SketchLabError):
    """Dimension exceeds what the estimator can handle."""
