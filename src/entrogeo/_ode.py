"""The two scalar solvers the library runs, in plain Python: Brent's
bracketing root finder ``scipy.optimize.brentq`` and an adaptive
Gauss-Kronrod quadrature.  Neither needs numpy; the RK45 integrator,
the one solver that does, is in ``_rk45``.

The brentq port does the arithmetic of scipy's C code in the same order,
so it returns scipy's bits; that was shown against scipy 1.17.1
(tests/test_ode.py compares them over drawn inputs).  Only brentq's
default relative tolerance is kept.

The quadrature is not a port of ``scipy.integrate.quad``: it keeps only
QUADPACK's 15-point Kronrod rule and its bisection of the worst panel, so
its results agree with scipy's to the requested tolerance, not to the
bit.  No printed number depends on it.

References:
- R. P. Brent, *Algorithms for Minimization without Derivatives*, 1973,
  ch. 4: the root finder.
- R. Piessens, E. de Doncker-Kapenga, C. W. Ueberhuber, D. K. Kahaner,
  *QUADPACK*, Springer, 1983: the G7-K15 table of QK15 and the
  bisection of QAG.
"""
from __future__ import annotations

import heapq
import math
from typing import Callable

from .errors import QuadratureFailure

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
