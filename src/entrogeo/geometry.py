"""Fisher metric and geodesics on one-parameter probability paths.

For a binary path p_w = sin^2(f(theta)) the Fisher information reduces
to g(theta) = 4 f'(theta)^2 = (2*gamma/hbar)^2 * shape(theta)^2, and the
geodesic equation in the affine parameter xi reads

    theta'' + (1 / (2 g)) (dg/dtheta) theta'^2 = 0,

equivalently d/dxi (g * theta') - (1/2) (dg/dtheta) theta'^2 = 0.  Both
formulations are integrated numerically; closed forms exist for each
driving scheme and carry an explicit validity interval ending at the
closed form's singularity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property
from typing import TYPE_CHECKING, Callable, Optional

from .errors import (
    DegenerateDistribution,
    DomainError,
    MetricDegenerate,
    OutOfValidity,
    StepFailure,
)
from .schemes import PROFILES, DrivingScheme, ProbabilityPath, SchemeKind

if TYPE_CHECKING:
    import numpy as np

_METRIC_FLOOR = 1e-12
_ODE_TOL = 1e-10  # rtol and atol of the geodesic integration
_P_FLOOR = 1e-12
_VALIDITY_MARGIN = 0.999


class MetricSource(str, Enum):
    CLOSED_FORM = "closed_form"


class GeodesicFormulation(str, Enum):
    CHRISTOFFEL = "christoffel"
    DIVERGENCE = "divergence"


@dataclass(frozen=True)
class MetricField:
    """Fisher information g(theta) with its theta-derivative."""

    g: Callable[[float], float]
    dg_dtheta: Callable[[float], float]
    source: MetricSource
    kind: Optional[SchemeKind] = None


@cache
def _numpy():
    """numpy, imported on first use: a scalar geodesic evaluation is too
    cheap to pay for an import statement on every call."""
    import numpy
    return numpy


def metric_scale(gamma, hbar=1.0):
    """g0 = (2*gamma/hbar)^2 in g = g0 * m(lam * theta); floats or arrays."""
    return (2.0 * gamma / hbar) ** 2


def metric_factor(kind, u):
    """m(u) = g/g0 at u = lam * theta, elementwise with numpy."""
    import numpy as np
    return PROFILES[kind].m(np, u)


def shape_factor(kind, u):
    """Intensity shape w(u) = intensity/gamma, elementwise with numpy."""
    import numpy as np
    return PROFILES[kind].w(np, u)


def fisher_closed_form(scheme: DrivingScheme) -> MetricField:
    """Closed-form Fisher information g = (2*gamma/hbar)^2 * shape^2.

    Raises OverflowError if g0 = (2*gamma/hbar)^2 is not finite: ** raises
    only on its own overflow, and an inf 2*gamma/hbar squares to inf.
    """
    g0 = metric_scale(scheme.gamma, scheme.hbar)
    if not math.isfinite(g0):
        raise OverflowError(f"g0 = (2*gamma/hbar)^2 is not finite at gamma = "
                            f"{scheme.gamma!r}, hbar = {scheme.hbar!r}")
    lam = scheme.u_scale
    profile = PROFILES[scheme.kind]
    return MetricField(
        g=lambda th: g0 * profile.m(math, lam * th),
        dg_dtheta=lambda th: g0 * lam * profile.dm(math, lam * th),
        source=MetricSource.CLOSED_FORM,
        kind=scheme.kind,
    )


def fisher_numeric(path: ProbabilityPath, theta: float) -> float:
    """Fisher information from central differences of the log-probabilities.

    Step balances truncation against round-off at double precision.
    """
    h = 1e-6 * max(1.0, abs(theta))
    pw, pp = path.probabilities(theta)
    if min(pw, pp) < _P_FLOOR:
        raise DegenerateDistribution(
            f"p = ({pw}, {pp}) at theta={theta}: score function undefined"
        )
    if theta - h < 0:
        raise DomainError(f"theta={theta} too close to 0 for step h={h}")
    pw_hi, pp_hi = path.probabilities(theta + h)
    pw_lo, pp_lo = path.probabilities(theta - h)
    dlog_w = (math.log(pw_hi) - math.log(pw_lo)) / (2.0 * h)
    dlog_p = (math.log(pp_hi) - math.log(pp_lo)) / (2.0 * h)
    return pw * dlog_w**2 + pp * dlog_p**2


@dataclass(frozen=True)
class Geodesic:
    """Closed-form geodesic theta(xi) for one driving scheme.

    Valid on the half-open interval [xi0, validity_end); evaluation
    outside raises OutOfValidity.
    """

    scheme: DrivingScheme
    xi0: float
    theta0: float
    thetadot0: float
    validity_end: float

    def check_window(self, xi: float) -> None:
        """Raise OutOfValidity unless xi0 <= xi < validity_end; NaN is outside."""
        if not self.xi0 <= xi < self.validity_end:
            raise OutOfValidity(
                f"xi outside [{self.xi0}, {self.validity_end}) for "
                f"{self.scheme.kind.value} geodesic"
            )

    @staticmethod
    def check_duration(tau: float) -> None:
        """Raise DomainError unless tau > 0; NaN is not."""
        if not tau > 0:
            raise DomainError(f"tau={tau} must be positive")

    def check_span(self, tau0: float, tau: float) -> None:
        """The window rule for an integral over [tau0, tau0 + tau]: tau0 passes
        ``check_window``, tau ``check_duration``, and the end lies before
        validity_end (else DomainError)."""
        self.check_window(tau0)
        self.check_duration(tau)
        if not tau0 + tau < self.validity_end:
            raise DomainError(f"window [{tau0}, {tau0 + tau}] exceeds geodesic validity "
                              f"(ends at {self.validity_end})")

    def _eval(self, form, xi):
        np = _numpy()
        # Scalars skip the array conversion, but both paths call numpy's
        # elementwise kernels: where numpy uses SIMD arcsin/log1p,
        # math.asin/log1p round some inputs differently, and theta(xi)
        # must not depend on whether xi came in an array.
        scalar = isinstance(xi, (float, int))
        if scalar:
            self.check_window(xi)
        else:
            xi = np.asarray(xi, dtype=float)
            # a NaN entry passes: numpy's comparisons are false for it
            outside = (xi < self.xi0) | (xi >= self.validity_end)
            if outside.any():
                self.check_window(float(xi[outside][0]))
        out = form(np, self.scheme.u_scale, self.theta0, self.thetadot0, xi - self.xi0)
        return float(out) if scalar or not out.ndim else out

    def theta(self, xi):
        return self._eval(PROFILES[self.scheme.kind].theta, xi)

    def thetadot(self, xi):
        return self._eval(PROFILES[self.scheme.kind].thetadot, xi)


def geodesic_closed_form(
    scheme: DrivingScheme, xi0: float, theta0: float, thetadot0: float
) -> Geodesic:
    """Closed-form geodesic launched from (theta0 > 0, thetadot0 > 0)."""
    if theta0 <= 0 or thetadot0 <= 0:
        raise DomainError("geodesics require theta0 > 0 and thetadot0 > 0")
    end = xi0 + PROFILES[scheme.kind].validity(math, scheme.u_scale, theta0, thetadot0)
    return Geodesic(
        scheme=scheme, xi0=xi0, theta0=theta0, thetadot0=thetadot0, validity_end=end
    )


@dataclass(frozen=True)
class SampledGeodesic:
    """Numeric geodesic solution at evenly spaced samples of [xi0, xi_end].

    ``state`` is the solver's second component: theta' in the Christoffel
    form, m = g * theta' in the divergence form, whose ``thetadot`` divides
    by ``g`` on first read.
    """

    xi: np.ndarray
    theta: np.ndarray
    state: np.ndarray
    formulation: GeodesicFormulation
    g: Callable[[float], float]

    @cached_property
    def thetadot(self) -> np.ndarray:
        import numpy as np
        if self.formulation is GeodesicFormulation.CHRISTOFFEL:
            return self.state
        return self.state / np.array([self.g(t) for t in self.theta])


def geodesic_numeric(
    metric: MetricField,
    xi0: float,
    theta0: float,
    thetadot0: float,
    xi_end: float,
    formulation: GeodesicFormulation = GeodesicFormulation.CHRISTOFFEL,
    validity_end: float = math.inf,
    n_samples: int = 201,
) -> SampledGeodesic:
    """Integrate the geodesic ODE in either formulation.

    Refuses to step past _VALIDITY_MARGIN * validity_end when a finite
    singularity location is supplied; the closed form knows it.  The metric
    must stay above _METRIC_FLOOR * g(theta0) along the path: the floor is
    relative, since g scales with (gamma/hbar)^2.  A metric that is not
    finite at theta0, a divergence-form state g(theta0) * thetadot0 past
    the float range, or a theta that overflows along the path raises
    OverflowError.
    """
    import numpy as np

    from ._rk45 import TOO_SMALL_STEP, rk45

    formulation = GeodesicFormulation(formulation)
    if theta0 <= 0 or thetadot0 <= 0:
        raise DomainError("geodesics require theta0 > 0 and thetadot0 > 0")
    if not (math.isfinite(xi0) and math.isfinite(xi_end)):
        # RK45 does not return on a non-finite span
        raise DomainError(f"integration span [{xi0}, {xi_end}] must be finite")
    if not xi_end > xi0:
        raise DomainError(f"integration span [{xi0}, {xi_end}] needs xi_end > xi0")
    if n_samples < 1:
        raise DomainError(f"n_samples={n_samples} must be at least 1")
    if math.isfinite(validity_end):
        cap = xi0 + _VALIDITY_MARGIN * (validity_end - xi0)
        if xi_end > cap:
            raise OutOfValidity(
                f"xi_end={xi_end} too close to the singularity at {validity_end}"
            )

    g_start = metric.g(theta0)
    dg_start = metric.dg_dtheta(theta0)
    if not (math.isfinite(g_start) and math.isfinite(dg_start)):
        # such as an inf factor of g times an underflowed one; a NaN first
        # derivative makes RK45's first step NaN, and it never returns
        raise OverflowError(f"g({theta0}) = {g_start}, dg/dtheta = {dg_start}: not finite")
    # an underflowed g(theta0) = 0 gives floor 0, which g = 0 does not pass
    floor = _METRIC_FLOOR * g_start

    def guard(theta: float) -> float:
        # past an overflowed theta the solver keeps taking finite steps
        # across the whole span, which can take forever
        if not math.isfinite(theta):
            # no sign: a stage sum such as -56/15 * theta' can overflow to
            # -inf while theta rises
            raise OverflowError("theta overflowed along the geodesic")
        g = metric.g(theta)
        if g <= floor:
            raise MetricDegenerate(f"g({theta}) = {g} at or below the positivity floor {floor}")
        return g

    # the right-hand sides run on Python floats, which round as numpy's
    # do; the guard has refused g <= floor before g divides
    if formulation is GeodesicFormulation.CHRISTOFFEL:
        def rhs(xi, y):
            th, thd = y.tolist()
            g = guard(th)
            return [thd, -0.5 * metric.dg_dtheta(th) / g * thd * thd]

        y0 = [theta0, thetadot0]
    else:
        # State (theta, m) with m = g * thetadot.
        def rhs(xi, y):
            th, m = y.tolist()
            g = guard(th)
            thd = m / g
            return [thd, 0.5 * metric.dg_dtheta(th) * thd * thd]

        y0 = [theta0, g_start * thetadot0]
        if not math.isfinite(y0[1]):
            raise OverflowError(f"g(theta0) * thetadot0 = {g_start} * {thetadot0} is not finite")

    xi_grid = np.linspace(xi0, xi_end, n_samples)
    # the solver's step-size estimate may overflow for huge states; a
    # non-finite result is refused by the caller, not warned about here
    with np.errstate(all="ignore"):
        sol = rk45(rhs, xi0, xi_end, y0, xi_grid, _ODE_TOL)
    if not sol.success:
        raise StepFailure(f"geodesic integration failed: {TOO_SMALL_STEP}")
    # on success the solution covers all of xi_grid
    return SampledGeodesic(xi=xi_grid, theta=sol.y[0], state=sol.y[1],
                           formulation=formulation, g=metric.g)


def geodesic_residual(metric: MetricField, geo: Geodesic, xi: float) -> float:
    """Residual of theta'' + (1/2g) g' theta'^2 along a closed-form geodesic.

    theta'' is taken by central differences of the analytic thetadot.
    """
    h = 1e-6 * max(1.0, abs(xi - geo.xi0))
    thdd = (geo.thetadot(xi + h) - geo.thetadot(xi - h)) / (2.0 * h)
    th = geo.theta(xi)
    thd = geo.thetadot(xi)
    return thdd + 0.5 * metric.dg_dtheta(th) / metric.g(th) * thd * thd
