"""The three numerical solvers the library runs, in numpy and Python: the
Dormand-Prince RK45 integrator of ``scipy.integrate.solve_ivp``, Brent's
bracketing root finder ``scipy.optimize.brentq``, and an adaptive
Gauss-Kronrod quadrature.

The RK45 and brentq ports do scipy's arithmetic with the same numpy calls
in the same order, so they return scipy's bits; that was shown against
scipy 1.17.1 (tests/test_ode.py compares them over drawn inputs), and the
golden corpus stays the byte gate.  Only what the library uses is kept:
forward integration with ``t_eval`` and no events, and brentq's default
relative tolerance.

The quadrature is not a port of ``scipy.integrate.quad``: it keeps only
QUADPACK's 15-point Kronrod rule and its bisection of the worst panel, so
its results agree with scipy's to the requested tolerance, not to the
bit.  No printed number depends on it.

References:
- J. R. Dormand, P. J. Prince, "A family of embedded Runge-Kutta
  formulae", J. Comput. Appl. Math. 6(1), 19-26, 1980: the 5(4) tableau.
- L. F. Shampine, "Some practical Runge-Kutta formulas", Math. Comp.
  46(173), 135-150, 1986: the quartic dense output ``_P``.
- E. Hairer, S. P. Norsett, G. Wanner, *Solving Ordinary Differential
  Equations I*, section II.4: the initial step and the step-size control.
- R. P. Brent, *Algorithms for Minimization without Derivatives*, 1973,
  ch. 4: the root finder.
- R. Piessens, E. de Doncker-Kapenga, C. W. Ueberhuber, D. K. Kahaner,
  *QUADPACK*, Springer, 1983: the G7-K15 table of QK15 and the
  bisection of QAG.
"""
from __future__ import annotations

import heapq
import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import QuadratureFailure

_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
# Shampine's optimum c_6; a cubic in the step fraction for each stage
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423],
])
_SAFETY = 0.9  # multiplies steps computed from the asymptotic error
_MIN_FACTOR = 0.2  # smallest step decrease
_MAX_FACTOR = 10  # largest step increase
_ERROR_ORDER = 4  # of the embedded error estimator
_ERROR_EXPONENT = -1 / (_ERROR_ORDER + 1)

# solve_ivp's message when success is False
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."

# brentq's default relative tolerance, 4 * eps, which is also its floor
_BRENT_RTOL = 8.881784197001252e-16

# QUADPACK's QK15: the positive Kronrod nodes, largest first, with their
# Kronrod weights and, on every second node, the 7-point Gauss weight
# (0 on the nodes Kronrod added); the centre carries both rules' last weight
_GK15 = (
    (0.991455371120812639206854697526329, 0.022935322010529224963732008058970, 0.0),
    (0.949107912342758524526189684047851, 0.063092092629978553290700663189204,
     0.129484966168869693270611432679082),
    (0.864864423359769072789712788640926, 0.104790010322250183839876322541518, 0.0),
    (0.741531185599394439863864773280788, 0.140653259715525918745189590510238,
     0.279705391489276667901467771423780),
    (0.586087235467691130294144845693013, 0.169004726639267902826583426598550, 0.0),
    (0.405845151377397166906606412076961, 0.190350578064785409913256402421014,
     0.381830050505118944950369775488975),
    (0.207784955007898467600689403773245, 0.204432940075298892414161999234649, 0.0),
)
_GK15_CENTRE = (0.209482141084727828012999174891714, 0.417959183673469387755102040816327)
# QUADPACK's QAG stops bisecting a panel whose halves are within 100 ulp
# of their ends: the nodes there no longer sample the integrand
_NARROW = 200 * 2.0**-52


class OdeResult(NamedTuple):
    """The fields of ``solve_ivp``'s result that the port reproduces."""

    t: np.ndarray
    y: np.ndarray  # shape (n, len(t))
    success: bool  # False: the step shrank below the float spacing at t
    nfev: int


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, t0, y0, t_bound, f0, tol):
    """scipy's ``select_initial_step`` for a forward span of nonzero length."""
    interval_length = abs(t_bound - t0)
    scale = tol + np.abs(y0) * tol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    y1 = y0 + h0 * f0
    f1 = fun(t0 + h0, y1)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (_ERROR_ORDER + 1))
    return min(100 * h0, h1, interval_length)


def _rk_step(fun, t, y, f, h, K):
    """One Dormand-Prince step; fills the stages K, the last row f_new."""
    K[0] = f
    for s, (a, c) in enumerate(zip(_A[1:], _C[1:]), start=1):
        dy = np.dot(K[:s].T, a[:s]) * h
        K[s] = fun(t + c * h, y + dy)
    y_new = y + h * np.dot(K[:-1].T, _B)
    f_new = fun(t + h, y_new)
    K[-1] = f_new
    return y_new, f_new


def rk45(fun: Callable, t0: float, t_bound: float, y0, t_eval: np.ndarray, tol: float) -> OdeResult:
    """``solve_ivp(fun, (t0, t_bound), y0, method="RK45", t_eval=t_eval,
    rtol=tol, atol=tol)`` for t_bound > t0, an increasing ``t_eval``
    inside the span and tol >= 100 eps.

    Returns the solution at each point of ``t_eval`` the solver got past;
    on failure that is a leading part of ``t_eval``.  A non-finite ``y0``
    raises ValueError.
    """
    t, t_bound = float(t0), float(t_bound)
    y = np.asarray(y0).astype(float, copy=False)
    if not np.isfinite(y).all():
        raise ValueError("All components of the initial state `y0` must be finite.")
    nfev = 0

    def f(t, y):
        nonlocal nfev
        nfev += 1
        return np.asarray(fun(t, y), dtype=float)

    fy = f(t, y)
    h_abs = _initial_step(f, t, y, t_bound, fy, tol)
    K = np.empty((len(_C) + 1, y.size), dtype=y.dtype)
    ts, ys, i_eval = [], [], 0
    while True:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        accepted = rejected = False
        while not accepted:
            if h_abs < min_step:
                t_out, y_out = (np.hstack(ts), np.hstack(ys)) if ts else ([], [])
                return OdeResult(t_out, y_out, False, nfev)
            t_new = t + h_abs
            if t_new - t_bound > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = np.abs(h)
            y_new, f_new = _rk_step(f, t, y, fy, h, K)
            scale = tol + np.maximum(np.abs(y), np.abs(y_new)) * tol
            error_norm = _rms(np.dot(K.T, _E) * h / scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                accepted = True
            else:
                h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
                rejected = True
        t_old, y_old = t, y
        t, y, fy = t_new, y_new, f_new

        # the points of t_eval this step passed, t included, from the
        # step's dense output
        i_new = np.searchsorted(t_eval, t, side="right")
        t_step = t_eval[i_eval:i_new]
        if t_step.size > 0:
            Q = K.T.dot(_P)
            h = t - t_old
            x = (t_step - t_old) / h
            p = np.cumprod(np.tile(x, (Q.shape[1], 1)), axis=0)
            y_step = h * np.dot(Q, p)
            y_step += y_old[:, None]
            ts.append(t_step)
            ys.append(y_step)
            i_eval = i_new
        if t - t_bound >= 0:
            return OdeResult(np.hstack(ts), np.hstack(ys), True, nfev)


def brentq(f: Callable[[float], float], a: float, b: float, xtol: float, maxiter: int):
    """A root of f in [a, b] as scipy's C ``brentq`` finds it, at its
    default rtol: (root, converged, iterations) as in its RootResults.

    f must not return NaN.  Raises ValueError when f(a) and f(b) have the
    same sign.  A zero at an end returns that end after no iteration;
    scipy leaves its iteration count unset there (seen as 1 and as
    garbage such as 1386542560).
    """
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre, True, 0
    if fcur == 0:
        return xcur, True, 0
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for iteration in range(1, maxiter + 1):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        # the tolerance is 2 * delta
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur, True, iteration

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            # C's MIN(x, y) is x < y ? x : y
            bound = abs(spre) if abs(spre) < 3 * abs(sbis) - delta else 3 * abs(sbis) - delta
            if 2 * abs(stry) < bound:
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    return xcur, False, maxiter


def _gk15(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """The 15-point Kronrod and the 7-point Gauss estimates of the
    integral of f over [a, b], from the same 15 values of f."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fc = f(c)
    kronrod = _GK15_CENTRE[0] * fc
    gauss = _GK15_CENTRE[1] * fc
    for x, wk, wg in _GK15:
        dx = h * x
        pair = f(c - dx) + f(c + dx)
        kronrod += wk * pair
        gauss += wg * pair
    return kronrod * h, gauss * h


def _panel(f, a, b):
    """A heap entry for [a, b]: (-error, a, b, value), the worst panel first."""
    kronrod, gauss = _gk15(f, a, b)
    error = abs(kronrod - gauss)
    if not math.isfinite(error):
        # also catches a non-finite value: kronrod - gauss is then nan or inf
        raise QuadratureFailure(
            f"integrand or its error estimate not finite on [{a}, {b}]"
        )
    return -error, a, b, kronrod


def quad(f: Callable[[float], float], a: float, b: float,
         epsabs: float, epsrel: float, limit: int) -> float:
    """The integral of f from a to b by adaptive G7-K15 quadrature.

    Bisects the panel with the largest |K15 - G7| until the sum of those
    estimates is at most max(epsabs, epsrel * |integral|), then returns the
    panels' K15 values summed with ``math.fsum``.  Reversed limits give the
    negated integral and a == b gives 0.0.  Raises QuadratureFailure when
    the estimate needs more than ``limit`` panels, when a panel gets too
    narrow to bisect, or when a value of f or an error estimate is not
    finite.
    """
    if a == b:
        return 0.0
    if b < a:
        return -quad(f, b, a, epsabs, epsrel, limit)
    panels = [_panel(f, a, b)]
    while True:
        total = math.fsum(p[3] for p in panels)
        error = -math.fsum(p[0] for p in panels)
        if error <= max(epsabs, epsrel * abs(total)):
            return total
        if len(panels) >= limit:
            raise QuadratureFailure(
                f"subdivision limit {limit} reached on [{a}, {b}]: "
                f"error estimate {error:.3g} for the value {total:.17g}"
            )
        _, lo, hi, _ = heapq.heappop(panels)
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi) or hi - lo <= _NARROW * max(abs(lo), abs(hi)):
            raise QuadratureFailure(f"panel [{lo}, {hi}] too narrow to bisect")
        heapq.heappush(panels, _panel(f, lo, mid))
        heapq.heappush(panels, _panel(f, mid, hi))
