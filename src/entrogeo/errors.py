"""Exception hierarchy shared across the package."""


class EntrogeoError(Exception):
    """Base class for all package-specific errors."""


class DomainError(EntrogeoError):
    """An argument lies outside the admissible domain."""


class DegenerateDistribution(EntrogeoError):
    """A probability hit {0, 1}; the score function is undefined."""


class MetricDegenerate(EntrogeoError):
    """The metric fell below the positivity floor along a trajectory."""


class StepFailure(EntrogeoError):
    """The adaptive ODE integrator could not meet its tolerance."""


class QuadratureFailure(EntrogeoError):
    """Adaptive quadrature did not converge within its budget."""


class RootFailure(EntrogeoError):
    """The root finder did not converge within its budget."""


class OutOfValidity(EntrogeoError):
    """A geodesic was evaluated beyond its validity interval."""


class NoSignChange(EntrogeoError):
    """A root bracket does not straddle a sign change."""
