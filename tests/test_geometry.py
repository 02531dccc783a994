"""Fisher metrics and geodesics: closed forms, numerics, and domains."""
import math

import numpy as np
import pytest

from entrogeo import (
    DegenerateDistribution,
    DomainError,
    DrivingScheme,
    GeodesicFormulation,
    MetricField,
    OutOfValidity,
    SchemeKind,
    fisher_closed_form,
    fisher_numeric,
    geodesic_closed_form,
    geodesic_numeric,
    probability_path,
)
from entrogeo.geometry import geodesic_residual

IC = dict(xi0=0.0, theta0=1.0, thetadot0=0.1)


def scheme_of(kind, lam=0.5):
    return DrivingScheme.resonant(kind, lam=lam)


class TestFisher:
    # Frozen: g(0.7) = (2 gamma)^2 shape(0.7)^2 at gamma = pi/4, lam = 0.5.
    CASES = [
        (SchemeKind.CONSTANT, 2.4674011002723395),
        (SchemeKind.OSCILLATING, 2.1772867773563944),
        (SchemeKind.POWER_LAW, 0.74285607629741446),
        (SchemeKind.EXPONENTIAL, 1.2252751249539979),
    ]

    @pytest.mark.parametrize("kind,expected", CASES)
    def test_closed_form_oracle(self, kind, expected):
        metric = fisher_closed_form(scheme_of(kind))
        assert metric.g(0.7) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("kind", list(SchemeKind))
    def test_dg_matches_g_slope(self, kind):
        metric = fisher_closed_form(scheme_of(kind))
        h = 1e-6
        for th in (0.3, 0.9, 1.7):
            fd = (metric.g(th + h) - metric.g(th - h)) / (2 * h)
            assert metric.dg_dtheta(th) == pytest.approx(fd, abs=1e-6, rel=1e-6)

    @pytest.mark.parametrize("gamma,hbar", [(1e308, 1.0), (1.0, 1e-308)])
    def test_overflowed_scale_is_refused(self, gamma, hbar):
        # (2 gamma/hbar)^2 is inf without ** raising: inf ** 2 is inf
        scheme = DrivingScheme(kind=SchemeKind.CONSTANT, gamma=gamma, hbar=hbar)
        with pytest.raises(OverflowError, match=r"g0 = \(2\*gamma/hbar\)\^2 is not finite"):
            fisher_closed_form(scheme)

    def test_numeric_rejects_degenerate_point(self):
        s = DrivingScheme(kind=SchemeKind.CONSTANT, gamma=1.0)
        path = probability_path(s)
        with pytest.raises(DegenerateDistribution):
            fisher_numeric(path, 0.5 * math.pi)  # p_wperp = 0 exactly

    def test_numeric_rejects_step_past_zero(self):
        # p = (0.23, 0.77) at f = gamma * theta = 0.5, but theta < h = 1e-6
        s = DrivingScheme(kind=SchemeKind.CONSTANT, gamma=1e6)
        with pytest.raises(DomainError, match="too close to 0 for step h=1e-06"):
            fisher_numeric(probability_path(s), 5e-7)


class TestClosedFormGeodesics:
    # Frozen theta(1) from the four closed forms at IC, lam = 0.5.
    THETA_AT_1 = [
        (SchemeKind.CONSTANT, 1.1000000000000001),
        (SchemeKind.OSCILLATING, 1.1014488145509189),
        (SchemeKind.POWER_LAW, 1.103448275862069),
        (SchemeKind.EXPONENTIAL, 1.1025865887751012),
    ]
    # Frozen singularity locations xi* for the same initial conditions.
    VALIDITY = [
        (SchemeKind.CONSTANT, math.inf),
        (SchemeKind.OSCILLATING, 11.863828749615172),
        (SchemeKind.POWER_LAW, 30.0),
        (SchemeKind.EXPONENTIAL, 20.0),
    ]

    @pytest.mark.parametrize("kind,expected", THETA_AT_1)
    def test_theta_oracle(self, kind, expected):
        geo = geodesic_closed_form(scheme_of(kind), **IC)
        assert geo.theta(1.0) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("kind,expected", VALIDITY)
    def test_validity_end(self, kind, expected):
        geo = geodesic_closed_form(scheme_of(kind), **IC)
        if math.isinf(expected):
            assert math.isinf(geo.validity_end)
        else:
            assert geo.validity_end == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("kind", [k for k, e in VALIDITY if math.isfinite(e)])
    def test_out_of_validity_raises(self, kind):
        geo = geodesic_closed_form(scheme_of(kind), **IC)
        with pytest.raises(OutOfValidity):
            geo.theta(geo.validity_end + 1.0)
        with pytest.raises(OutOfValidity):
            geo.theta(-0.5)

    @pytest.mark.parametrize("kind", list(SchemeKind))
    def test_scalar_and_array_evaluation_agree_bitwise(self, kind):
        geo = geodesic_closed_form(scheme_of(kind), **IC)
        xi = np.linspace(0.0, 0.999 * min(geo.validity_end, 50.0), 4001)
        for f in (geo.theta, geo.thetadot):
            assert [f(x) for x in xi.tolist()] == f(xi).tolist()

    def test_oscillating_needs_positive_cos(self):
        # cos(2.6) < 0: the launch point sits past a turning point
        s = DrivingScheme.resonant(SchemeKind.OSCILLATING, lam=2.6)
        with pytest.raises(DomainError):
            geodesic_closed_form(s, 0.0, 1.0, 0.1)

    def test_oscillating_launch_past_turning_point_rejected(self):
        # lam*theta0 = 6.5 has cos > 0, but lies past the turning point at
        # pi/2: asin's principal branch would give theta(xi0) = 0.4336
        s = DrivingScheme.resonant(SchemeKind.OSCILLATING, lam=0.5)
        with pytest.raises(DomainError):
            geodesic_closed_form(s, 0.0, 13.0, 0.1)

    @pytest.mark.parametrize("theta0", [0.1, 1.0, 3.0, 0.999 * math.pi])
    def test_oscillating_launch_inside_domain_starts_at_theta0(self, theta0):
        s = DrivingScheme.resonant(SchemeKind.OSCILLATING, lam=0.5)
        geo = geodesic_closed_form(s, 0.0, theta0, 0.1)
        assert geo.theta(0.0) == pytest.approx(theta0, rel=1e-12)

    @pytest.mark.parametrize("kind", list(SchemeKind))
    def test_residual_vanishes(self, kind):
        scheme = scheme_of(kind)
        metric = fisher_closed_form(scheme)
        geo = geodesic_closed_form(scheme, **IC)
        end = min(geo.validity_end, 10.0)
        for xi in np.linspace(0.05, 0.85 * end, 20):
            assert abs(geodesic_residual(metric, geo, xi)) <= 1e-8

    @pytest.mark.parametrize("kind", list(SchemeKind))
    def test_affine_reparametrization(self, kind):
        a, b = 1.5, -0.25
        geo = geodesic_closed_form(scheme_of(kind), **IC)
        moved = geodesic_closed_form(
            scheme_of(kind), a * IC["xi0"] + b, IC["theta0"], IC["thetadot0"] / a
        )
        for xi in np.linspace(0.0, 1.0, 9):
            assert moved.theta(a * xi + b) == pytest.approx(geo.theta(xi), abs=1e-12)


class TestNumericGeodesics:
    @pytest.mark.parametrize("kind", list(SchemeKind))
    @pytest.mark.parametrize("form", list(GeodesicFormulation))
    def test_matches_closed_form(self, kind, form):
        scheme = scheme_of(kind)
        metric = fisher_closed_form(scheme)
        geo = geodesic_closed_form(scheme, **IC)
        num = geodesic_numeric(
            metric, 0.0, 1.0, 0.1, 1.0, formulation=form,
            validity_end=geo.validity_end,
        )
        assert np.max(np.abs(num.theta - np.asarray(geo.theta(num.xi)))) <= 1e-6
        assert np.max(np.abs(num.thetadot - np.asarray(geo.thetadot(num.xi)))) <= 1e-6

    def test_divergence_thetadot_is_computed_on_first_read(self):
        # the geodesic subcommand never reads theta', so the solve must not
        # pay for one g(theta) call per sample
        closed = fisher_closed_form(scheme_of(SchemeKind.EXPONENTIAL))
        calls = []

        def g(th):
            calls.append(th)
            return closed.g(th)

        metric = MetricField(g=g, dg_dtheta=closed.dg_dtheta, source=closed.source)
        num = geodesic_numeric(metric, 0.0, 1.0, 0.1, 1.0,
                               formulation=GeodesicFormulation.DIVERGENCE, n_samples=51)
        solved = len(calls)
        thetadot = num.thetadot
        assert len(calls) == solved + 51
        assert num.thetadot is thetadot and len(calls) == solved + 51
        # the same scalar g as before, so the same bits
        assert np.array_equal(thetadot, num.state / np.array([closed.g(t) for t in num.theta]))

    def test_dense_evaluation(self):
        # xi = 0.37 is the middle sample of [0, 0.74]
        scheme = scheme_of(SchemeKind.EXPONENTIAL)
        metric = fisher_closed_form(scheme)
        geo = geodesic_closed_form(scheme, **IC)
        num = geodesic_numeric(metric, 0.0, 1.0, 0.1, 0.74,
                               validity_end=geo.validity_end, n_samples=3)
        assert num.xi[1] == 0.37
        assert num.theta[1] == pytest.approx(geo.theta(0.37), abs=1e-8)
        assert num.thetadot[1] == pytest.approx(geo.thetadot(0.37), abs=1e-8)

    def test_refuses_integration_into_singularity(self):
        scheme = scheme_of(SchemeKind.EXPONENTIAL)
        metric = fisher_closed_form(scheme)
        geo = geodesic_closed_form(scheme, **IC)  # ends at xi = 20
        with pytest.raises(OutOfValidity):
            geodesic_numeric(metric, 0.0, 1.0, 0.1, 19.999,
                             validity_end=geo.validity_end)

    def test_overflowed_divergence_state_names_its_cause(self):
        # y0 = g(theta0) * thetadot0 is inf here; the solver used to reject
        # it as "initial state y0 must be finite"
        metric = fisher_closed_form(scheme_of(SchemeKind.CONSTANT))
        with pytest.raises(OverflowError, match=r"g\(theta0\) \* thetadot0"):
            geodesic_numeric(metric, 0.0, 1.0, 1e308, 2.0,
                             formulation=GeodesicFormulation.DIVERGENCE, n_samples=3)
