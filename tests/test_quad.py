"""The adaptive G7-K15 quadrature of ``entrogeo._ode`` against its
test-only oracles, ``scipy.integrate.quad`` and ``mpmath.quad``, and its
node table against exact polynomial integrals."""
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as scipy_quad

from entrogeo import (
    DrivingScheme,
    ParamTrajectory,
    QuadratureFailure,
    SchemeKind,
    field_intensity,
    fisher_closed_form,
    thermodynamic_length,
)
from entrogeo._ode import _gk15, quad
from entrogeo.pathmetrics import _QUAD_EPSABS, _QUAD_EPSREL, _QUAD_LIMIT

EPS = 2.0**-52
# verify's phase-quadrature tolerances
PHASE_EPSABS, PHASE_EPSREL = 1e-14, 1e-12


def _quad(f, a, b):
    return quad(f, a, b, _QUAD_EPSABS, _QUAD_EPSREL, _QUAD_LIMIT)


# --- failures ------------------------------------------------------------

@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_integrand_fails(bad):
    # nan > tol is False, so without a finite check the loop would stop
    # and return nan
    def f(x):
        return bad if x > 0.7 else x

    with pytest.raises(QuadratureFailure, match="not finite"):
        _quad(f, 0.0, 1.0)


def test_overflowing_sum_fails():
    # every value finite, the weighted sum is not
    with pytest.raises(QuadratureFailure, match="not finite"):
        _quad(lambda x: 1e308, 0.0, 10.0)


def test_subdivision_limit_fails():
    # sin(1/x) oscillates without end at 0: every bisection there leaves
    # another panel that no 15-point rule resolves
    with pytest.raises(QuadratureFailure, match=f"subdivision limit {_QUAD_LIMIT}"):
        _quad(lambda x: math.sin(1.0 / x), 0.0, 1.0)


def test_panel_too_narrow_fails():
    # the integral is 10, but the singularity at 1 keeps the last panel
    # worst until its nodes are a few ulp apart and no longer sample the
    # integrand, whose K15 - G7 can then be small by chance (9.7434565
    # came out without the width check)
    def f(x):
        return (1.0 - x) ** -0.9 if x < 1.0 else 0.0

    with pytest.raises(QuadratureFailure, match="too narrow to bisect"):
        quad(f, 0.0, 1.0, _QUAD_EPSABS, _QUAD_EPSREL, 10_000)


def test_limit_counts_panels():
    # a kink at 1/3 needs a few bisections, so one panel is too few
    def kink(x):
        return abs(x - 1.0 / 3.0)

    assert _quad(kink, 0.0, 1.0) == pytest.approx(5.0 / 18.0, rel=_QUAD_EPSREL)
    with pytest.raises(QuadratureFailure, match="subdivision limit 1"):
        quad(kink, 0.0, 1.0, _QUAD_EPSABS, _QUAD_EPSREL, 1)


def test_length_route_reports_limit():
    # the length of an unresolvable trajectory ends in QuadratureFailure,
    # which the CLI maps to exit 3
    metric = fisher_closed_form(DrivingScheme.resonant(SchemeKind.CONSTANT, lam=0.5))
    traj = ParamTrajectory(theta_of_xi=lambda xi: 1.0,
                           thetadot_of_xi=lambda xi: math.sin(1.0 / xi),
                           xi_range=(0.0, 1.0))
    with pytest.raises(QuadratureFailure, match="subdivision limit"):
        thermodynamic_length(metric, traj)


def test_reversed_limits_negate():
    assert _quad(math.exp, 2.0, 0.5) == -_quad(math.exp, 0.5, 2.0)
    assert _quad(math.exp, 0.5, 2.0) == pytest.approx(math.exp(2.0) - math.exp(0.5),
                                                     rel=_QUAD_EPSREL)


def test_empty_interval_is_zero():
    def never(x):
        raise AssertionError("evaluated on an empty interval")

    assert _quad(never, 1.5, 1.5) == 0.0


# --- node table ----------------------------------------------------------

def _abs_moment(k, a, b):
    """int_a^b |x|^k dx, the scale of the rounding error of a rule on x^k."""
    def prim(x):
        return math.copysign(abs(x) ** (k + 1) / (k + 1), x)

    return prim(b) - prim(a)


@st.composite
def intervals(draw):
    a = draw(st.floats(-3.0, 3.0))
    b = a + draw(st.floats(1e-3, 3.0))
    return (b, a) if draw(st.booleans()) else (a, b)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(ab=intervals(), k=st.integers(0, 22))
def test_rules_integrate_monomials_exactly(ab, k):
    # K15 is exact to degree 3 * 7 + 1 = 22, G7 to 2 * 7 - 1 = 13; what
    # is left is rounding: of the nodes, the weights and the sums, growing
    # with k through the derivative of x^k
    a, b = ab
    exact = float((Fraction(b) ** (k + 1) - Fraction(a) ** (k + 1)) / (k + 1))
    ulp = 2 * (k + 1) * EPS * abs(_abs_moment(k, a, b))
    kronrod, gauss = _gk15(lambda x: x**k, a, b)
    assert abs(kronrod - exact) <= ulp
    if k <= 13:
        assert abs(gauss - exact) <= ulp


def test_gauss_rule_is_not_exact_past_degree_13():
    # the check above has power: G7 misses x^14 on [0, 1] by far more
    # than rounding
    _, gauss = _gk15(lambda x: x**14, 0.0, 1.0)
    assert abs(gauss - 1.0 / 15.0) > 1e6 * EPS


# --- oracles -------------------------------------------------------------

KINDS = list(SchemeKind)


@st.composite
def integrands(draw):
    """(f, a, b, epsabs, epsrel): one of the integrands the library hands
    to the quadrature, for a drawn scheme and a drawn increasing
    trajectory theta(xi) = theta0 + b xi + (c / w) sin(w xi), c < b, off
    the geodesic so that the speed is not constant."""
    kind = draw(st.sampled_from(KINDS))
    lam = draw(st.floats(0.1, 2.0))
    scheme = DrivingScheme.resonant(kind, lam=lam)
    which = draw(st.sampled_from(["speed", "rate", "igc", "phase"]))
    # the oscillating kind needs lam * theta < pi/2
    theta_cap = 0.95 * math.pi / 2 / lam
    theta0 = draw(st.floats(0.05, 0.5)) * theta_cap
    if which == "phase":
        def phase(t):
            return field_intensity(scheme, t) / scheme.hbar

        return phase, 0.0, theta0, PHASE_EPSABS, PHASE_EPSREL
    tau = draw(st.floats(0.1, 2.0))
    # theta stays below theta0 + 2 b tau <= theta_cap
    b = draw(st.floats(0.05, 1.0)) * (theta_cap - theta0) / (2 * tau)
    c = draw(st.floats(0.0, 0.95)) * b
    w = draw(st.floats(0.5, 30.0))
    traj = ParamTrajectory(
        theta_of_xi=lambda xi: theta0 + b * xi + c / w * math.sin(w * xi),
        thetadot_of_xi=lambda xi: b + c * math.cos(w * xi),
        xi_range=(0.0, tau),
    )
    metric = fisher_closed_form(scheme)

    def speed(xi):
        return math.sqrt(metric.g(traj.theta_of_xi(xi))) * abs(traj.thetadot_of_xi(xi))

    if which == "speed":
        f = speed
    elif which == "rate":
        def f(xi):
            return metric.g(traj.theta_of_xi(xi)) * traj.thetadot_of_xi(xi) ** 2
    else:
        # igc's Cauchy-weighted speed
        def f(xi):
            return (tau - xi) * speed(xi)
    return f, 0.0, tau, _QUAD_EPSABS, _QUAD_EPSREL


@settings(max_examples=120, deadline=None, derandomize=True)
@given(problem=integrands())
def test_matches_scipy_and_mpmath(problem):
    f, a, b, epsabs, epsrel = problem
    got = quad(f, a, b, epsabs, epsrel, _QUAD_LIMIT)
    with mpmath.workdps(20):
        ref = float(mpmath.quad(lambda x: f(float(x)), [a, b]))
    ref_scipy, _ = scipy_quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=_QUAD_LIMIT)
    tol = max(epsabs, epsrel * abs(ref))
    assert abs(got - ref) <= tol
    assert abs(got - ref_scipy) <= tol
