"""Length, divergence, speed/rate, and complexity along trajectories."""
import math

import pytest

from entrogeo import (
    DegenerateDistribution,
    DomainError,
    DrivingScheme,
    MetricField,
    OutOfValidity,
    ParamTrajectory,
    SchemeKind,
    entropic_speed,
    entropy_rate_metric,
    entropy_rate_score,
    fisher_closed_form,
    geodesic_closed_form,
    igc,
    integrated_phase,
    probability_path,
    report,
    thermodynamic_divergence,
    thermodynamic_length,
)
from entrogeo.pathmetrics import launch_from_shape, launch_speed_and_rate

ALL_KINDS = list(SchemeKind)


def igc_rate_fd(metric, geodesic, tau, tau0=0.0):
    """Finite-difference cross-check of the IGC rate."""
    dt = 1e-4 * tau
    hi, _ = igc(metric, geodesic, tau + dt, tau0)
    lo, _ = igc(metric, geodesic, tau - dt, tau0)
    return (hi - lo) / (2.0 * dt)


def scheme_of(kind, lam=0.5):
    return DrivingScheme.resonant(kind, lam=lam)


# Frozen: v_E = 2 gamma thetadot0 shape(1) at gamma = pi/4, lam = 0.5,
# thetadot0 = 0.1.
V_E = {
    SchemeKind.CONSTANT: 0.15707963267948966,
    SchemeKind.OSCILLATING: 0.13785034646766525,
    SchemeKind.POWER_LAW: 0.069813170079773182,
    SchemeKind.EXPONENTIAL: 0.095273613236509,
}


class TestGeodesicMetrics:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_report_closed_form_consistency(self, kind):
        scheme = scheme_of(kind)
        tau = 1.0
        rep = report(scheme, 1.0, 0.1, tau)
        v = V_E[kind]
        assert rep.v_E == pytest.approx(v, rel=1e-12)
        assert rep.r_E == pytest.approx(v * v, rel=1e-12)
        assert rep.length == pytest.approx(v * tau, rel=1e-9)
        assert rep.divergence == pytest.approx(v * v * tau, rel=1e-9)
        assert rep.igc == pytest.approx(0.5 * v * tau, rel=1e-9)
        assert rep.igc_rate == pytest.approx(0.5 * v, rel=1e-8)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_igc_rate_finite_difference(self, kind):
        scheme = scheme_of(kind)
        metric = fisher_closed_form(scheme)
        geo = geodesic_closed_form(scheme, 0.0, 1.0, 0.1)
        _, rate = igc(metric, geo, 1.0)
        fd = igc_rate_fd(metric, geo, 1.0)
        assert rate == pytest.approx(fd, rel=1e-6)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_igc_is_one_level_of_quadrature(self, kind):
        # a nested quadrature, L(tau') integrated over tau', took 462 g calls
        scheme = scheme_of(kind)
        metric = fisher_closed_form(scheme)
        calls = []

        def g(th):
            calls.append(th)
            return metric.g(th)

        counting = MetricField(g=g, dg_dtheta=metric.dg_dtheta, source=metric.source)
        igc(counting, geodesic_closed_form(scheme, 0.0, 1.0, 0.1), 1.0)
        assert 0 < len(calls) < 100

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_asymptotic_slope(self, kind):
        scheme = scheme_of(kind)
        slope = launch_from_shape(scheme, 1.0, 0.1).igc_rate
        assert slope == pytest.approx(0.5 * V_E[kind], rel=1e-12)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_metric_route_refuses_negative_theta0(self, kind):
        with pytest.raises(DomainError, match="theta0=-0.5 must be nonnegative"):
            launch_speed_and_rate(scheme_of(kind), -0.5, 0.1)

    @pytest.mark.parametrize("gamma", [1e-300, 1e-155], ids=["zero", "subnormal"])
    def test_metric_route_refuses_underflowed_g(self, gamma):
        # g = (2 gamma)^2 is 0 or subnormal, while the shape route's
        # 2 gamma * thetadot0 is still a normal float
        scheme = DrivingScheme(kind=SchemeKind.CONSTANT, gamma=gamma)
        with pytest.raises(OverflowError, match="below the smallest normal float"):
            launch_speed_and_rate(scheme, 1.0, 1.0)
        with pytest.raises(OverflowError, match="below the smallest normal float"):
            report(scheme, 1.0, 1.0, 1.0)

    def test_metric_route_keeps_smallest_normal_g(self):
        scheme = DrivingScheme(kind=SchemeKind.CONSTANT, gamma=0.5 * math.sqrt(2.0**-1022))
        assert launch_speed_and_rate(scheme, 1.0, 1.0).r_E == 2.0**-1022


class TestNonGeodesic:
    def test_cauchy_schwarz_strict_for_reparametrization(self):
        scheme = scheme_of(SchemeKind.EXPONENTIAL)
        metric = fisher_closed_form(scheme)
        geo = geodesic_closed_form(scheme, 0.0, 1.0, 0.1)
        tau = 1.0
        traj = ParamTrajectory(
            theta_of_xi=lambda xi: geo.theta(xi * xi / tau),
            thetadot_of_xi=lambda xi: 2 * xi / tau * geo.thetadot(xi * xi / tau),
            xi_range=(0.0, tau),
        )
        L = thermodynamic_length(metric, traj)
        I = thermodynamic_divergence(metric, traj)
        assert I * tau - L**2 > 1e-3 * I * tau

    def test_speed_not_constant_off_geodesic(self):
        scheme = scheme_of(SchemeKind.POWER_LAW)
        metric = fisher_closed_form(scheme)
        geo = geodesic_closed_form(scheme, 0.0, 1.0, 0.1)
        traj = ParamTrajectory(
            theta_of_xi=lambda xi: geo.theta(xi * xi),
            thetadot_of_xi=lambda xi: 2 * xi * geo.thetadot(xi * xi),
            xi_range=(0.0, 1.0),
        )
        v0 = entropic_speed(metric, traj, 0.25)
        v1 = entropic_speed(metric, traj, 0.75)
        assert abs(v1 - v0) / v1 > 0.1


class TestRates:
    def test_score_route_agrees_with_metric_route(self):
        scheme = scheme_of(SchemeKind.OSCILLATING)
        metric = fisher_closed_form(scheme)
        path = probability_path(scheme)
        geo = geodesic_closed_form(scheme, 0.0, 1.0, 0.1)
        traj = ParamTrajectory.from_geodesic(geo, (0.0, 1.0))
        for xi in (0.1, 0.5, 0.9):
            rm = entropy_rate_metric(metric, traj, xi)
            rs = entropy_rate_score(path, traj, xi)
            assert rs == pytest.approx(rm, rel=1e-8)

    def test_score_route_rejects_degenerate_point(self):
        scheme = DrivingScheme(kind=SchemeKind.CONSTANT, gamma=1.0)
        path = probability_path(scheme)
        traj = ParamTrajectory(
            theta_of_xi=lambda xi: xi,
            thetadot_of_xi=lambda xi: 1.0,
            xi_range=(0.0, math.pi),
        )
        with pytest.raises(DegenerateDistribution):
            entropy_rate_score(path, traj, 0.5 * math.pi)

    def test_zero_velocity_gives_zero_rate(self):
        scheme = DrivingScheme(kind=SchemeKind.CONSTANT, gamma=1.0)
        path = probability_path(scheme)
        traj = ParamTrajectory(
            theta_of_xi=lambda xi: 1.0,
            thetadot_of_xi=lambda xi: 0.0,
            xi_range=(0.0, 1.0),
        )
        assert entropy_rate_score(path, traj, 0.3) == 0.0


class TestDomainGuards:
    def test_xi_outside_range(self):
        scheme = scheme_of(SchemeKind.CONSTANT)
        metric = fisher_closed_form(scheme)
        geo = geodesic_closed_form(scheme, 0.0, 1.0, 0.1)
        traj = ParamTrajectory.from_geodesic(geo, (0.0, 1.0))
        with pytest.raises(DomainError):
            entropic_speed(metric, traj, 2.0)

    def test_igc_requires_positive_tau(self):
        scheme = scheme_of(SchemeKind.CONSTANT)
        metric = fisher_closed_form(scheme)
        geo = geodesic_closed_form(scheme, 0.0, 1.0, 0.1)
        with pytest.raises(DomainError):
            igc(metric, geo, 0.0)
        # NaN fails every comparison, so only "not tau > 0" refuses it
        with pytest.raises(DomainError):
            igc(metric, geo, math.nan)

    def test_igc_window_must_respect_validity(self):
        scheme = scheme_of(SchemeKind.EXPONENTIAL)
        metric = fisher_closed_form(scheme)
        geo = geodesic_closed_form(scheme, 0.0, 1.0, 0.1)  # valid to xi = 20
        with pytest.raises(DomainError):
            igc(metric, geo, 25.0)


class TestGeodesicWindow:
    # exponential at lam = 0.5 launched at xi0 = 1.0: igc and from_geodesic
    # refuse a window that starts before the launch, as report does
    SCHEME = DrivingScheme.resonant(SchemeKind.EXPONENTIAL, lam=0.5)
    GEO = geodesic_closed_form(SCHEME, 1.0, 1.0, 0.1)

    @pytest.mark.parametrize("tau0", [0.999, 0.99, math.nan])
    def test_igc_start_outside_validity(self, tau0):
        with pytest.raises(OutOfValidity):
            igc(fisher_closed_form(self.SCHEME), self.GEO, 1.0, tau0=tau0)

    def test_from_geodesic_start_before_launch(self):
        with pytest.raises(OutOfValidity):
            ParamTrajectory.from_geodesic(self.GEO, (0.999, 1.999))


# (lam, gamma, hbar, theta0, thetadot0, tau, xi0, tau0); gamma None means
# resonant, and the constant kind takes gamma = (pi/2) hbar lam there
CROSS_POINTS = [
    (0.2, None, 1.0, 1.0, 0.1, 1.0, 0.0, 0.0),
    (1.2, None, 1.0, 0.8, 0.05, 3.0, 0.25, 0.5),  # shifted window
    (2.0, 0.8, 0.7, 0.5, 0.2, 0.5, 0.0, 0.0),  # gamma pinned off resonance
    (0.7, 1.3, 1.0, 1.1, 0.3, 0.8, -0.4, 0.1),  # pinned, shifted window
]


def cross_scheme(kind, lam, gamma, hbar):
    if gamma is None:
        return DrivingScheme.resonant(kind, lam=lam, hbar=hbar)
    return DrivingScheme(kind=kind, gamma=gamma, lam=lam, hbar=hbar)


@pytest.mark.parametrize("point", CROSS_POINTS, ids=lambda p: f"lam{p[0]}-tau0{p[7]}")
@pytest.mark.parametrize("kind", ALL_KINDS)
class TestClosedFormReport:
    """``report`` is closed form along the geodesic; each field is checked
    against routes that do not assume constant speed."""

    def test_matches_quadrature(self, kind, point):
        lam, gamma, hbar, th0, thd0, tau, xi0, tau0 = point
        scheme = cross_scheme(kind, lam, gamma, hbar)
        rep = report(scheme, th0, thd0, tau, xi0=xi0, tau0=tau0)
        metric = fisher_closed_form(scheme)
        geo = geodesic_closed_form(scheme, xi0, th0, thd0)
        traj = ParamTrajectory.from_geodesic(geo, (tau0, tau0 + tau))
        c, c_rate = igc(metric, geo, tau, tau0)
        assert rep.length == pytest.approx(thermodynamic_length(metric, traj), rel=1e-9)
        assert rep.divergence == pytest.approx(
            thermodynamic_divergence(metric, traj), rel=1e-9)
        assert rep.igc == pytest.approx(c, rel=1e-9)
        assert rep.igc_rate == pytest.approx(c_rate, rel=1e-9)
        assert rep.tau == tau

    def test_length_matches_phase_difference(self, kind, point):
        # sqrt(g) = 2|f'|, so L = 2|f(theta_b) - f(theta_a)| on a monotone path
        lam, gamma, hbar, th0, thd0, tau, xi0, tau0 = point
        scheme = cross_scheme(kind, lam, gamma, hbar)
        rep = report(scheme, th0, thd0, tau, xi0=xi0, tau0=tau0)
        geo = geodesic_closed_form(scheme, xi0, th0, thd0)
        f_a = integrated_phase(scheme, geo.theta(tau0))
        f_b = integrated_phase(scheme, geo.theta(tau0 + tau))
        assert rep.length == pytest.approx(2.0 * abs(f_b - f_a), rel=1e-12)
        assert rep.divergence * tau == pytest.approx(rep.length**2, rel=1e-12)


class TestReportWindow:
    # exponential at lam = 0.5, thetadot0 = 0.1 is valid on [xi0, xi0 + 20)
    SCHEME = DrivingScheme.resonant(SchemeKind.EXPONENTIAL, lam=0.5)

    @pytest.mark.parametrize("tau", [0.0, -1.0, math.nan])
    def test_tau_must_be_positive(self, tau):
        with pytest.raises(DomainError, match="tau"):
            report(self.SCHEME, 1.0, 0.1, tau)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_tau0_before_xi0(self, kind):
        with pytest.raises(OutOfValidity):
            report(scheme_of(kind), 1.0, 0.1, 1.0, xi0=0.25, tau0=0.1)

    @pytest.mark.parametrize("tau0,tau", [(0.0, 25.0), (15.0, 5.0), (19.0, math.inf)])
    def test_window_end_past_validity(self, tau0, tau):
        with pytest.raises(DomainError, match="exceeds geodesic validity"):
            report(self.SCHEME, 1.0, 0.1, tau, tau0=tau0)

    @pytest.mark.parametrize("tau0", [20.0, 21.0, math.nan])
    def test_tau0_at_or_past_validity(self, tau0):
        with pytest.raises(OutOfValidity):
            report(self.SCHEME, 1.0, 0.1, 1.0, tau0=tau0)

    @pytest.mark.parametrize("xi0,tau0,text", [
        (0.0, 20.0, "xi outside [0.0, 20.0) for exponential geodesic"),
        (0.25, 0.1, "xi outside [0.25, 20.25) for exponential geodesic"),
        (0.0, math.nan, "xi outside [0.0, 20.0) for exponential geodesic"),
    ], ids=["at-validity-end", "before-xi0", "nan"])
    def test_window_outside_validity_text(self, xi0, tau0, text):
        # report() and Geodesic.theta refuse a point outside [xi0, end)
        # with one text
        with pytest.raises(OutOfValidity) as exc:
            report(self.SCHEME, 1.0, 0.1, 1.0, xi0=xi0, tau0=tau0)
        assert str(exc.value) == text
        geo = geodesic_closed_form(self.SCHEME, xi0, 1.0, 0.1)
        with pytest.raises(OutOfValidity) as exc:
            geo.theta(tau0)
        assert str(exc.value) == text

    @pytest.mark.parametrize("tau0", [0.5, 3.0, 19.0])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_later_window_has_launch_speed_and_rate(self, kind, tau0):
        # v and r are constant along a geodesic, so a later window reports
        # the launch point's bits
        scheme = scheme_of(kind, lam=0.05)
        at_launch = report(scheme, 1.0, 0.1, 0.5)
        later = report(scheme, 1.0, 0.1, 0.5, tau0=tau0)
        assert (later.v_E, later.r_E) == (at_launch.v_E, at_launch.r_E)

    def test_constant_kind_has_no_validity_end(self):
        scheme = scheme_of(SchemeKind.CONSTANT)
        rep = report(scheme, 1.0, 0.1, 1e6, tau0=1e3)
        assert rep.length == pytest.approx(V_E[SchemeKind.CONSTANT] * 1e6, rel=1e-15)
        with pytest.raises(DomainError, match="exceeds geodesic validity"):
            report(scheme, 1.0, 0.1, math.inf)
