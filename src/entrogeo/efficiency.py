"""Entropic efficiency measures and scheme ranking.

Three measures in [0, 1] compare paths by their constant entropy
production rates r:

    eta1(r) = 1 - r / r_max          (hottest path least efficient)
    eta2(r) = r_min / r              (coolest path most efficient)
    eta_sym(r_l, r_m) = 1 - |r_l - r_m| / (r_l + r_m)

r_min and r_max are taken from the set of rates being ranked, not from
external ideals.  All three induce the same ordering.

Each measure takes two Python floats or ints and returns a float, or
arrays that broadcast together and returns an array with the same bits
per entry; numpy is imported only for arrays.  Ints are converted with
float() first.  eta1 and eta2 raise DomainError on a rate outside their
domain, NaN included, in either form; eta_sym passes NaN through.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ._ode import brentq
from .errors import DomainError, NoSignChange, RootFailure
from .geometry import metric_factor, metric_scale
from .pathmetrics import launch_speed_and_rate
from .schemes import PROFILES, DrivingScheme, SchemeKind, resonant_gamma

_BRENT_XTOL = 1e-10
# halving the widest finite bracket (< 2**1025) down to xtol takes ~1,060
# steps, and Brent's safeguarded steps were seen to need up to 1,238
_BRENT_MAXITER = 4000


# a pair of these takes the scalar path, after float()
_SCALAR = (float, int)


def eta1(r, r_max):
    """Asymmetric efficiency 1 - r/r_max; the hottest path scores 0.

    Floats or arrays, as ``eta_sym``.  Needs r_max > 0 and
    0 <= r <= r_max; anything else, NaN included, raises DomainError.
    """
    if isinstance(r, _SCALAR) and isinstance(r_max, _SCALAR):
        r, r_max = float(r), float(r_max)
        if not r_max > 0:
            raise DomainError(f"r_max={r_max} must be positive")
        if not (0.0 <= r <= r_max):
            raise DomainError(f"need 0 <= r <= r_max, got r={r}, r_max={r_max}")
        return 1.0 - r / r_max
    import numpy as np
    r, r_max = np.asarray(r, dtype=float), np.asarray(r_max, dtype=float)
    if not (r_max > 0).all():
        raise DomainError("every r_max must be positive")
    if not ((0.0 <= r) & (r <= r_max)).all():
        raise DomainError("need 0 <= r <= r_max for every pair")
    with np.errstate(all="ignore"):  # inf / inf gives NaN, as with floats
        return 1.0 - r / r_max


def eta2(r, r_min):
    """Asymmetric efficiency r_min/r; the coolest path scores 1.

    Floats or arrays, as ``eta_sym``.  Needs r_min > 0 and r >= r_min;
    anything else, NaN included, raises DomainError.
    """
    if isinstance(r, _SCALAR) and isinstance(r_min, _SCALAR):
        r, r_min = float(r), float(r_min)
        if not r_min > 0:
            raise DomainError(f"r_min={r_min} must be positive")
        if not r >= r_min:
            raise DomainError(f"need r >= r_min, got r={r}, r_min={r_min}")
        return r_min / r
    import numpy as np
    r, r_min = np.asarray(r, dtype=float), np.asarray(r_min, dtype=float)
    if not (r_min > 0).all():
        raise DomainError("every r_min must be positive")
    if not (r >= r_min).all():
        raise DomainError("need r >= r_min for every pair")
    with np.errstate(all="ignore"):  # inf / inf gives NaN, as with floats
        return r_min / r


def eta_sym(r_l, r_m):
    """Symmetric efficiency 1 - |r_l - r_m| / (r_l + r_m) of rates >= 0.

    Takes two Python floats or ints, or arrays that broadcast together and
    give an array; both give the same bits for the same rates.  Two zero
    rates are equally efficient: 0/0 gives 1.  A negative rate raises
    DomainError; NaN passes through.
    """
    if isinstance(r_l, _SCALAR) and isinstance(r_m, _SCALAR):
        r_l, r_m = float(r_l), float(r_m)
        if r_l < 0 or r_m < 0:
            raise DomainError(f"rates must be nonnegative, got ({r_l}, {r_m})")
        total = r_l + r_m
        return 1.0 - abs(r_l - r_m) / total if total else 1.0
    import numpy as np
    r_l, r_m = np.asarray(r_l, dtype=float), np.asarray(r_m, dtype=float)
    if (r_l < 0).any() or (r_m < 0).any():
        raise DomainError("rates must be nonnegative")
    with np.errstate(all="ignore"):  # overflow to inf and inf - inf, as with floats
        total = r_l + r_m
        return np.where(total == 0.0, 1.0, 1.0 - np.abs(r_l - r_m) / total)


@dataclass(frozen=True)
class RankedEntry:
    label: str
    r_E: float
    eta1: float
    eta2: float
    eta_sym: float
    igc_slope: float


@dataclass(frozen=True)
class EfficiencyRanking:
    """Per-scheme rates and efficiencies, ordered by descending eta_sym.

    Ties are broken by input order and flagged.
    """

    entries: tuple[RankedEntry, ...]
    order: tuple[str, ...]
    has_ties: bool


def resonant_rate(kind, lam, theta0, thetadot0):
    """The rate r_E of ``pathmetrics.launch_speed_and_rate`` for
    ``DrivingScheme.resonant(kind, lam)`` (hbar = 1) at each lam of an
    array: g0(lam) * m(lam * theta0) * thetadot0^2, with numpy's
    elementwise kernels in place of ``math``."""
    g0 = metric_scale(resonant_gamma(lam))
    return g0 * metric_factor(kind, lam * theta0) * thetadot0 * thetadot0


def rank_schemes(
    schemes: Sequence[DrivingScheme], theta0: float, thetadot0: float
) -> EfficiencyRanking:
    """Rank schemes by entropic efficiency at shared (theta0, thetadot0)."""
    if len(schemes) < 2:
        raise DomainError("ranking needs at least two schemes")
    points = [launch_speed_and_rate(s, theta0, thetadot0) for s in schemes]
    rates = [p.r_E for p in points]
    r_min, r_max = min(rates), max(rates)
    labels = []
    for i, s in enumerate(schemes):
        label = s.kind.value
        if label in labels:
            label = f"{label}#{i}"
        labels.append(label)
    entries = tuple(
        RankedEntry(
            label=lab, r_E=r,
            eta1=eta1(r, r_max), eta2=eta2(r, r_min), eta_sym=eta_sym(r, r_min),
            igc_slope=p.igc_rate,
        )
        for lab, r, p in zip(labels, rates, points)
    )
    # Descending eta_sym == ascending r_E; stable sort keeps input order on ties.
    ordered = sorted(entries, key=lambda e: -e.eta_sym)
    has_ties = len({e.eta_sym for e in entries}) < len(entries)
    return EfficiencyRanking(
        entries=entries, order=tuple(e.label for e in ordered), has_ties=has_ties
    )


def rate_crossover(
    scheme_a: SchemeKind,
    scheme_b: SchemeKind,
    theta0: float,
    lambda_bracket: tuple[float, float],
) -> float:
    """Value of lam where the two schemes' entropy rates cross at theta0.

    Rates are compared at shared gamma, so only the metric factors
    m(lam * theta0) matter.  A bracket end where lam * theta0 overflows
    raises OverflowError, and one where both factors underflow to 0
    raises NoSignChange.
    """
    m_a, m_b = PROFILES[SchemeKind(scheme_a)].m, PROFILES[SchemeKind(scheme_b)].m

    def diff(lam: float) -> float:
        return m_a(math, lam * theta0) - m_b(math, lam * theta0)

    a, b = lambda_bracket
    for lam in lambda_bracket:
        if not math.isfinite(lam * theta0):
            raise OverflowError(f"lambda*theta0 = {lam}*{theta0} is not finite")
    # where both factors underflow to 0, diff is exactly 0 and brentq would
    # return that end as the root
    for lam in lambda_bracket:
        if m_a(math, lam * theta0) == m_b(math, lam * theta0) == 0.0:
            raise NoSignChange(
                f"both rates underflow to 0 at lambda={lam}; use a narrower bracket"
            )
    fa, fb = diff(a), diff(b)
    if fa == 0.0 and fb == 0.0:
        raise NoSignChange("rates are identical on the bracket")
    if fa * fb > 0.0:
        raise NoSignChange(
            f"no sign change on [{a}, {b}]: diff({a})={fa}, diff({b})={fb}"
        )
    root, converged, iterations = brentq(diff, a, b, _BRENT_XTOL, _BRENT_MAXITER)
    if not converged:
        raise RootFailure(f"no crossover within {iterations} iterations on [{a}, {b}]")
    return root


def region_boundary_scale() -> float:
    """Root u* of (1 + u)^2 = exp(u), u > 0: the exponential scheme is the
    cooler one exactly when lam * theta0 >= u*.

    Closed form u* = -2 W_{-1}(-exp(-1/2)/2) - 1, correctly rounded.
    """
    return 2.5128624172523395


def region_boundary_residual(u: float) -> float:
    """(1 + u)^2 - exp(u), zero at u = region_boundary_scale()."""
    return (1.0 + u) ** 2 - math.exp(u)


def check_ranking_preservation(rates: Sequence[float]) -> bool:
    """True iff eta1, eta2, and eta_sym rank the rates identically.

    Each measure is a monotone non-increasing function of the rate, so
    identical ranking is equivalent to every measure's score being
    non-increasing along the rates sorted ascending.  Checking
    monotonicity directly keeps rounding-induced score ties (where two
    nearly equal rates collapse under one measure but not another) from
    registering as disagreement.
    """
    if len(rates) < 2:
        raise DomainError("need at least two rates")
    if any(r <= 0 for r in rates):
        raise DomainError("rates must be positive")
    r_min, r_max = min(rates), max(rates)
    ascending = sorted(rates)
    for vals in (
        [eta1(r, r_max) for r in ascending],
        [eta2(r, r_min) for r in ascending],
        [eta_sym(r, r_min) for r in ascending],
    ):
        if any(b > a for a, b in zip(vals, vals[1:])):
            return False
    return True
