"""The RK45 and brentq ports against scipy, their test-only oracle: the
same bits for the same inputs, failures included."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq as scipy_brentq

from entrogeo import (
    DrivingScheme,
    GeodesicFormulation,
    MetricField,
    MetricSource,
    SchemeKind,
    StepFailure,
    fisher_closed_form,
    geodesic_closed_form,
    geodesic_numeric,
)
from entrogeo._ode import brentq
from entrogeo._rk45 import TOO_SMALL_STEP, rk45
from entrogeo.schemes import PROFILES

TOL = 1e-10  # the geodesic integration's rtol and atol


def _geodesic_rhs(metric, form):
    """Both right-hand sides of geodesic_numeric, without its guards."""
    if form is GeodesicFormulation.CHRISTOFFEL:
        def rhs(xi, y):
            th, thd = y
            return [thd, -0.5 * metric.dg_dtheta(th) / metric.g(th) * thd * thd]
    else:
        def rhs(xi, y):
            th, m = y
            thd = m / metric.g(th)
            return [thd, 0.5 * metric.dg_dtheta(th) * thd * thd]
    return rhs


@st.composite
def geodesic_launches(draw):
    """(metric, formulation, theta0, thetadot0, xi_end, n_samples)."""
    kind = draw(st.sampled_from(list(SchemeKind)))
    form = draw(st.sampled_from(list(GeodesicFormulation)))
    lam = draw(st.floats(0.1, 2.0))
    # the oscillating kind needs lam * theta0 < pi/2
    theta0 = draw(st.floats(0.05, 0.95)) * math.pi / 2 / lam
    thetadot0 = draw(st.floats(0.05, 1.0))
    n_samples = draw(st.sampled_from([1, 2, 201, 2001]))
    scheme = DrivingScheme.resonant(kind, lam=lam)
    geo = geodesic_closed_form(scheme, 0.0, theta0, thetadot0)
    xi_end = min(1.0, 0.5 * geo.validity_end)
    return fisher_closed_form(scheme), form, theta0, thetadot0, xi_end, n_samples


def _ivp_problem(launch):
    """(rhs, xi_end, y0, t_eval) of geodesic_numeric's integration."""
    metric, form, theta0, thetadot0, xi_end, n_samples = launch
    y0 = [theta0, thetadot0 if form is GeodesicFormulation.CHRISTOFFEL
          else metric.g(theta0) * thetadot0]
    return _geodesic_rhs(metric, form), xi_end, y0, np.linspace(0.0, xi_end, n_samples)


def geodesic_problems():
    return geodesic_launches().map(_ivp_problem)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(problem=geodesic_problems())
def test_rk45_matches_solve_ivp(problem):
    rhs, xi_end, y0, grid = problem
    ref = solve_ivp(rhs, (0.0, xi_end), y0, method="RK45", rtol=TOL, atol=TOL, t_eval=grid)
    got = rk45(rhs, 0.0, xi_end, y0, grid, TOL)
    assert ref.success and got.success
    assert np.array_equal(got.t, ref.t)
    assert np.array_equal(got.y, ref.y)
    assert got.nfev == ref.nfev


@settings(max_examples=100, deadline=None, derandomize=True)
@given(launch=geodesic_launches())
def test_geodesic_numeric_matches_solve_ivp(launch):
    # geodesic_numeric itself, guards and all, against the mirror rhs
    rhs, xi_end, y0, grid = _ivp_problem(launch)
    ref = solve_ivp(rhs, (0.0, xi_end), y0, method="RK45", rtol=TOL, atol=TOL, t_eval=grid)
    metric, form, theta0, thetadot0, _, n_samples = launch
    got = geodesic_numeric(metric, 0.0, theta0, thetadot0, xi_end, form, n_samples=n_samples)
    assert ref.success
    assert np.array_equal(got.xi, ref.t)
    assert np.array_equal(got.theta, ref.y[0])
    assert np.array_equal(got.state, ref.y[1])


@pytest.mark.parametrize("rhs,nfev,success", [
    # d1 = inf, so the initial step h0 is 0 and d2 divides 0 by it; the
    # run ends with success and an all-NaN y
    (lambda t, y: [1e308], 1946, True),
    (lambda t, y: [1.0 if t <= 0.5 else math.inf], 614, False),
    (lambda t, y: [1.0 if t <= 0.5 else math.nan], 614, False),
], ids=["overflowed-first-step", "inf-past-half", "nan-past-half"])
def test_rk45_leaving_the_float_range_matches_solve_ivp(rhs, nfev, success):
    # the step control divides by numpy scalars: inf or nan, not an exception
    grid = np.linspace(0.0, 1.0, 11)
    with np.errstate(all="ignore"):
        ref = solve_ivp(rhs, (0.0, 1.0), [1.0], method="RK45", rtol=TOL, atol=TOL, t_eval=grid)
        got = rk45(rhs, 0.0, 1.0, [1.0], grid, TOL)
    assert got.success is ref.success is success
    assert got.nfev == ref.nfev == nfev
    assert np.array_equal(got.t, ref.t)
    assert np.array_equal(got.y, ref.y, equal_nan=True)


def test_rk45_failure_matches_solve_ivp():
    # y' = y^2, y(0) = 1 is 1/(1 - t): the step shrinks below the float
    # spacing just before t = 1
    def rhs(t, y):
        return y * y

    grid = np.linspace(0.0, 2.0, 21)
    with np.errstate(all="ignore"):
        ref = solve_ivp(rhs, (0.0, 2.0), [1.0], method="RK45", rtol=TOL, atol=TOL, t_eval=grid)
        got = rk45(rhs, 0.0, 2.0, [1.0], grid, TOL)
    assert not ref.success and not got.success
    assert ref.message == TOO_SMALL_STEP
    assert got.nfev == ref.nfev == 7802
    assert np.array_equal(got.t, grid[:10]) and np.array_equal(got.t, ref.t)
    assert np.array_equal(got.y, ref.y)


def test_geodesic_step_failure():
    # a field whose declared slope makes the Christoffel form theta'' =
    # theta'^2, so theta' = 1/(1 - xi) blows up at xi = 1 while g stays 1
    field = MetricField(g=lambda th: 1.0, dg_dtheta=lambda th: -2.0,
                        source=MetricSource.CLOSED_FORM)
    with pytest.raises(StepFailure, match=f"geodesic integration failed: {TOO_SMALL_STEP}"):
        geodesic_numeric(field, 0.0, 1.0, 1.0, 2.0, n_samples=3)


# Brackets with a sign change of m_a - m_b, in u = lam * theta0.  Every
# pair of kinds but (oscillating, constant) crosses at u = 0 and not again
# in (0, 1.2]; the exponential and power-law kinds cross again at u* = 2.51.
CROSSING_PAIRS = [(a, b) for a in SchemeKind for b in SchemeKind
                  if a is not b and {a, b} != {SchemeKind.OSCILLATING, SchemeKind.CONSTANT}]


@st.composite
def root_problems(draw):
    theta0 = draw(st.floats(0.1, 3.0))
    if draw(st.booleans()):
        kind_a, kind_b = draw(st.permutations([SchemeKind.EXPONENTIAL, SchemeKind.POWER_LAW]))
        u_lo, u_hi = draw(st.floats(0.01, 2.5)), draw(st.floats(2.52, 100.0))
    else:
        kind_a, kind_b = draw(st.sampled_from(CROSSING_PAIRS))
        u_lo, u_hi = draw(st.floats(-0.9, -1e-3)), draw(st.floats(1e-3, 1.2))
    xtol = draw(st.sampled_from([1e-10, 2e-12, 1e-14]))
    maxiter = draw(st.sampled_from([3, 10, 4000]))
    m_a, m_b = PROFILES[kind_a].m, PROFILES[kind_b].m

    def diff(lam):
        return m_a(math, lam * theta0) - m_b(math, lam * theta0)

    return diff, u_lo / theta0, u_hi / theta0, xtol, maxiter


@settings(max_examples=300, deadline=None, derandomize=True)
@given(problem=root_problems())
def test_brentq_matches_scipy(problem):
    diff, lo, hi, xtol, maxiter = problem

    root, res = scipy_brentq(diff, lo, hi, xtol=xtol, maxiter=maxiter,
                             full_output=True, disp=False)
    ref = (root, res.converged, res.iterations)
    assert brentq(diff, lo, hi, xtol, maxiter) == ref


@pytest.mark.parametrize("a,b", [(0.0, 1.0), (-1.0, 0.0)])
def test_brentq_returns_a_zero_at_an_end(a, b):
    def f(x):
        return x

    root, res = scipy_brentq(f, a, b, full_output=True)
    # scipy leaves its iteration count unset here (seen as 1 and as garbage)
    assert brentq(f, a, b, 2e-12, 100)[:2] == (root, res.converged) == (0.0, True)


def test_brentq_refuses_a_bracket_without_sign_change():
    with pytest.raises(ValueError, match="f\\(a\\) and f\\(b\\) must have different signs"):
        scipy_brentq(math.cos, 0.0, 1.0)
    with pytest.raises(ValueError, match="f\\(a\\) and f\\(b\\) must have different signs"):
        brentq(math.cos, 0.0, 1.0, 2e-12, 100)


def test_brentq_unconverged_matches_scipy():
    def residual(u):
        return (1.0 + u) ** 2 - math.exp(u)

    root, res = scipy_brentq(residual, 1.0, 100.0, maxiter=5, full_output=True, disp=False)
    assert (res.converged, res.iterations) == (False, 5)
    assert brentq(residual, 1.0, 100.0, 2e-12, 5) == (root, False, 5)
