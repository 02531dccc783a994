"""Length, divergence, entropic speed/rate, and complexity along paths.

For a trajectory theta(xi) on a metric g(theta):

    speed      v(xi)   = sqrt(g) * |theta'|
    length     L(tau)  = int_0^tau v dxi
    divergence I(tau)  = int_0^tau g * theta'^2 dxi           (>= L^2/tau)
    rate       r(xi)   = g * theta'^2 = v^2
    complexity C(tau)  = (1/tau) int_0^tau L(tau') dtau'

Along geodesics v is constant, I = L^2/tau, and dC/dtau = v/2.  The rate
admits a second, metric-free route through the score function of the
underlying probability path; agreement of the two routes is a key check.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

from ._ode import quad
from .errors import DomainError
from .geometry import (
    Geodesic,
    MetricField,
    fisher_closed_form,
    fisher_numeric,
    geodesic_closed_form,
)
from .schemes import DrivingScheme, ProbabilityPath

_QUAD_EPSREL = 1e-10
_QUAD_EPSABS = 1e-12
_QUAD_LIMIT = 200


@dataclass(frozen=True)
class ParamTrajectory:
    """Parametrized curve theta(xi), not necessarily a geodesic."""

    theta_of_xi: Callable[[float], float]
    thetadot_of_xi: Callable[[float], float]
    xi_range: tuple[float, float]

    @classmethod
    def from_geodesic(cls, geo: Geodesic, xi_range: tuple[float, float]) -> "ParamTrajectory":
        """The geodesic over xi_range = (start, end), under the window rule:
        OutOfValidity unless xi0 <= start < validity_end, DomainError
        unless start < end < validity_end."""
        geo.check_span(xi_range[0], xi_range[1] - xi_range[0])
        return cls(theta_of_xi=geo.theta, thetadot_of_xi=geo.thetadot, xi_range=xi_range)

    def _check(self, xi: float) -> None:
        lo, hi = self.xi_range
        if not (lo <= xi <= hi):
            raise DomainError(f"xi={xi} outside [{lo}, {hi}]")


@dataclass(frozen=True)
class PathMetricsReport:
    """Scalar summary of one scheme's geodesic over a duration tau."""

    v_E: float
    r_E: float
    length: float
    divergence: float
    igc: float
    igc_rate: float
    tau: float


def _quad(f, a: float, b: float) -> float:
    """The integral of f over [a, b] at the library's tolerances."""
    return quad(f, a, b, _QUAD_EPSABS, _QUAD_EPSREL, _QUAD_LIMIT)


def _speed(metric: MetricField, traj: ParamTrajectory, xi: float) -> float:
    return math.sqrt(metric.g(traj.theta_of_xi(xi))) * abs(traj.thetadot_of_xi(xi))


def _rate(metric: MetricField, traj: ParamTrajectory, xi: float) -> float:
    return metric.g(traj.theta_of_xi(xi)) * traj.thetadot_of_xi(xi) ** 2


def entropic_speed(metric: MetricField, traj: ParamTrajectory, xi: float) -> float:
    """Instantaneous metric speed sqrt(g(theta)) * |theta'| at xi."""
    traj._check(xi)
    return _speed(metric, traj, xi)


def thermodynamic_length(metric: MetricField, traj: ParamTrajectory) -> float:
    """L = int sqrt(g) |theta'| dxi over the trajectory range."""
    lo, hi = traj.xi_range
    return _quad(lambda xi: _speed(metric, traj, xi), lo, hi)


def thermodynamic_divergence(metric: MetricField, traj: ParamTrajectory) -> float:
    """I = int g * theta'^2 dxi; total entropy produced along the path."""
    lo, hi = traj.xi_range
    return _quad(lambda xi: _rate(metric, traj, xi), lo, hi)


def entropy_rate_metric(metric: MetricField, traj: ParamTrajectory, xi: float) -> float:
    """Entropy production rate g * theta'^2 (the divergence integrand)."""
    traj._check(xi)
    return _rate(metric, traj, xi)


def entropy_rate_score(path: ProbabilityPath, traj: ParamTrajectory, xi: float) -> float:
    """Entropy production rate from the score function:

        sum_x p_x(theta) * (d log p_x / dxi)^2,

    i.e. the finite-difference Fisher information times theta'^2.
    """
    traj._check(xi)
    th = traj.theta_of_xi(xi)
    thd = traj.thetadot_of_xi(xi)
    if thd == 0.0:
        return 0.0
    return fisher_numeric(path, th) * thd * thd


def igc(
    metric: MetricField, geodesic: Geodesic, tau: float, tau0: float = 0.0
) -> tuple[float, float]:
    """Information geometric complexity C(tau) and its rate dC/dtau.

    C(tau) = (1/tau) int_0^tau L(tau') dtau' with
    L(tau') = int_{tau0}^{tau0+tau'} v dxi and v = sqrt(g(theta)) theta'
    along the geodesic.  Cauchy's formula for repeated integration turns
    the nested integral into one, int_0^tau L = int_{tau0}^{tau0+tau}
    (tau0 + tau - xi) v(xi) dxi.  The rate follows from the Leibniz rule,
    dC/dtau = (L(tau) - C(tau)) / tau.

    The window rule, through ``ParamTrajectory.from_geodesic``:
    OutOfValidity unless xi0 <= tau0 < validity_end, DomainError unless
    tau0 < tau0 + tau < validity_end, so a tau too small to move tau0 too.
    """
    end = tau0 + tau
    traj = ParamTrajectory.from_geodesic(geodesic, (tau0, end))
    avg = _quad(lambda xi: (end - xi) * _speed(metric, traj, xi), tau0, end) / tau
    rate = (thermodynamic_length(metric, traj) - avg) / tau
    return avg, rate


class LaunchPoint(NamedTuple):
    """Entropic speed v_E, rate r_E = v_E^2 and IGC slope dC/dtau = v_E / 2
    at a geodesic's launch point; all three are constant along it."""

    v_E: float
    r_E: float
    igc_rate: float


def launch_speed_and_rate(
    scheme: DrivingScheme, theta0: float, thetadot0: float
) -> LaunchPoint:
    """The metric route: v_E = sqrt(g(theta0)) * thetadot0 and
    r_E = g(theta0) * thetadot0^2.  It builds no geodesic, so it stays
    defined past the oscillating intensity's turning points."""
    if theta0 < 0:
        raise DomainError(f"theta0={theta0} must be nonnegative")
    return _launch(fisher_closed_form(scheme), theta0, thetadot0)


def _launch(metric: MetricField, theta0: float, thetadot0: float) -> LaunchPoint:
    g = metric.g(theta0)
    if g < sys.float_info.min:
        # 0 or subnormal: sqrt(g) has lost digits that the shape route keeps
        raise OverflowError(f"g({theta0}) = {g} is below the smallest normal float")
    v = math.sqrt(g) * thetadot0
    return LaunchPoint(v_E=v, r_E=g * thetadot0 * thetadot0, igc_rate=0.5 * v)


def launch_from_shape(
    scheme: DrivingScheme, theta0: float, thetadot0: float
) -> LaunchPoint:
    """The shape route: v_E = (2 gamma/hbar) * shape(theta0) * thetadot0,
    with r_E = v_E^2 and dC/dtau = v_E / 2."""
    v = 2.0 * scheme.gamma / scheme.hbar * scheme.shape(theta0) * thetadot0
    return LaunchPoint(v_E=v, r_E=v**2, igc_rate=0.5 * v)


def report(
    scheme: DrivingScheme,
    theta0: float,
    thetadot0: float,
    tau: float,
    xi0: float = 0.0,
    tau0: float = 0.0,
) -> PathMetricsReport:
    """Full metrics report for one scheme's geodesic over the window
    [tau0, tau0 + tau].

    Closed form along the geodesic: the speed v and rate r = v^2 are
    constant there, so L = v tau, I = r tau, C = v tau / 2 and
    dC/dtau = v / 2, with v, r and v / 2 from ``launch_speed_and_rate``
    at the launch point, whatever the window.  The quadrature routes
    ``thermodynamic_length``, ``thermodynamic_divergence`` and ``igc``
    compute the same fields for any trajectory and serve as its oracle.
    """
    Geodesic.check_duration(tau)
    # built before the geodesic, so that (2 gamma/hbar)^2 past the float
    # range is the error reported when the window is also invalid
    metric = fisher_closed_form(scheme)
    geo = geodesic_closed_form(scheme, xi0, theta0, thetadot0)
    geo.check_span(tau0, tau)
    v, r, slope = _launch(metric, theta0, thetadot0)
    return PathMetricsReport(
        v_E=v, r_E=r, length=v * tau, divergence=r * tau,
        igc=slope * tau, igc_rate=slope, tau=tau,
    )
