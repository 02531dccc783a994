"""The Dormand-Prince RK45 integrator of ``scipy.integrate.solve_ivp``,
ported with numpy.

The port does scipy's float operations in the same order, so it returns
scipy's bits; that was shown against scipy 1.17.1 (tests/test_ode.py
compares them over drawn inputs), and the golden corpus stays the byte
gate.  Only what the library uses is kept: forward integration with
``t_eval`` and no events.  It is the one solver of the package that
needs numpy, so it lives apart from the scalar solvers in ``_ode`` and
is imported only where a geodesic is integrated.

Two kinds of call stay numpy's, where plain Python would change a
result:
- the four sums (the stage sums, the new solution, the error estimate
  and the dense output's Q.p) stay ``np.dot``: OpenBLAS may fuse or
  reorder their products, so a Python sum differs in the last bit, and
  Python 3.11 has no ``math.fma`` to do as it does;
- the step control divides by numpy scalars: a step estimate of 0 or
  inf then gives inf or nan, as in scipy, where a Python float
  division by zero raises.

References:
- J. R. Dormand, P. J. Prince, "A family of embedded Runge-Kutta
  formulae", J. Comput. Appl. Math. 6(1), 19-26, 1980: the 5(4) tableau.
- L. F. Shampine, "Some practical Runge-Kutta formulas", Math. Comp.
  46(173), 135-150, 1986: the quartic dense output ``_P``.
- E. Hairer, S. P. Norsett, G. Wanner, *Solving Ordinary Differential
  Equations I*, section II.4: the initial step and the step-size control.
"""
from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

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
# the stages after the first: (s, A[s, :s], c_s)
_STAGES = tuple((s, _A[s, :s], float(_C[s])) for s in range(1, len(_C)))
_SAFETY = 0.9  # multiplies steps computed from the asymptotic error
_MIN_FACTOR = 0.2  # smallest step decrease
_MAX_FACTOR = 10  # largest step increase
_ERROR_ORDER = 4  # of the embedded error estimator
_ERROR_EXPONENT = -1 / (_ERROR_ORDER + 1)

# solve_ivp's message when success is False
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


class OdeResult(NamedTuple):
    """The fields of ``solve_ivp``'s result that the port reproduces."""

    t: np.ndarray
    y: np.ndarray  # shape (n, len(t))
    success: bool  # False: the step shrank below the float spacing at t
    nfev: int


def _rms(x):
    # np.linalg.norm's own arithmetic for a 1-D real array; a numpy
    # scalar, so that a division by it gives inf or nan, not an exception
    return np.sqrt(x.dot(x)) / x.size ** 0.5


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
    f1 = np.asarray(fun(t0 + h0, y1), dtype=float)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (_ERROR_ORDER + 1))
    return min(100 * h0, h1, interval_length)


def _rk_step(fun, t, y, h, K, stages, K_b):
    """One Dormand-Prince step from the first stage K[0]: fills K[1:],
    f_new in the last row, and returns y_new."""
    for s, K_s, a, c in stages:
        K[s] = fun(t + c * h, y + np.dot(K_s, a) * h)
    y_new = y + h * np.dot(K_b, _B)
    K[-1] = fun(t + h, y_new)
    return y_new


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
    # row s of K is stage s; the first stage of a step is the last of the
    # step before it
    K = np.empty((len(_C) + 1, y.size), dtype=y.dtype)
    K[0] = fun(t, y)
    h_abs = _initial_step(fun, t, y, t_bound, K[0], tol)
    nfev = 2  # f(t0) and the initial step's trial
    stages = tuple((s, K[:s].T, a, c) for s, a, c in _STAGES)
    K_b, K_t = K[:-1].T, K.T
    ts, ys, i_eval = [], [], 0
    while True:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
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
            h_abs = abs(h)
            y_new = _rk_step(fun, t, y, h, K, stages, K_b)
            nfev += 6  # five stages and f_new
            scale = tol + np.maximum(np.abs(y), np.abs(y_new)) * tol
            error_norm = _rms(np.dot(K_t, _E) * h / scale)
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
        t, y = t_new, y_new

        # the points of t_eval this step passed, t included, from the
        # step's dense output
        i_new = np.searchsorted(t_eval, t, side="right")
        if i_new > i_eval:
            t_step = t_eval[i_eval:i_new]
            Q = K_t.dot(_P)
            h = t - t_old
            # rows x, x^2, x^3, x^4
            p = np.empty((Q.shape[1], t_step.size))
            np.divide(t_step - t_old, h, out=p[0])
            for k in range(1, len(p)):
                np.multiply(p[k - 1], p[0], out=p[k])
            y_step = h * np.dot(Q, p)
            y_step += y_old[:, None]
            ts.append(t_step)
            ys.append(y_step)
            i_eval = i_new
        if t - t_bound >= 0:
            return OdeResult(np.hstack(ts), np.hstack(ys), True, nfev)
        K[0] = K[-1]
