"""Two-level canonical ensemble: entropy curve, fluctuations, and the
entropy-rate decomposition.

Levels sit at -eps (lower) and +eps (upper), gap 2*eps.  Entropy is
dimensionless per element (Boltzmann's constant is 1), so the maximum is
log 2 at U = 0; the U > 0 branch has negative temperature (inverted
populations).  Along a driving trajectory beta(xi) the entropy production
rate factorizes as

    r = deltaE^2(beta) * (dbeta/dxi)^2,

with deltaE^2 the energy-fluctuation variance, equal to the Fisher
information of the Gibbs family at beta.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import DomainError

_BETA_DIFF_STEP = 1e-6


@dataclass(frozen=True)
class TwoLevelEnsemble:
    """N independent two-level elements with levels at +/- epsilon."""

    epsilon: float
    n_elements: int = 1

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.n_elements < 1:
            raise ValueError("n_elements must be >= 1")

    @property
    def u_max(self) -> float:
        return self.n_elements * self.epsilon


def _xlogx(x: float) -> float:
    return 0.0 if x == 0.0 else x * math.log(x)


def entropy_of_energy(ens: TwoLevelEnsemble, U: float) -> float:
    """Dimensionless entropy per element, sigma(U) = -(p1 log p1 + p2 log p2).

    p2 = (U + N*eps) / (2*N*eps) is the upper-level occupation implied
    by the average energy U.  x*log(x) extends continuously to 0.
    """
    umax = ens.u_max
    if not (-umax <= U <= umax):
        raise DomainError(f"U={U} outside [-{umax}, {umax}]")
    p2 = (U + umax) / (2.0 * umax)
    p1 = 1.0 - p2
    return -(_xlogx(p1) + _xlogx(p2))


def gibbs_probabilities(ens: TwoLevelEnsemble, beta: float) -> tuple[float, float]:
    """Occupations (p_lower, p_upper) at inverse temperature beta.

    Negative beta (population inversion) is allowed; the ratio is
    computed through a logistic form, which is overflow-safe.
    """
    if not math.isfinite(beta):
        raise DomainError("beta must be finite")
    # p1 = e^{beta*eps}/Z = 1/(1 + e^{-2*beta*eps})
    x = 2.0 * beta * ens.epsilon
    if x >= 0:
        p1 = 1.0 / (1.0 + math.exp(-x))
    else:
        e = math.exp(x)
        p1 = e / (1.0 + e)
    return p1, 1.0 - p1


def energy_variance(ens: TwoLevelEnsemble, beta: float) -> float:
    """Variance of the energy per element; equals the Fisher information
    of the Gibbs family at beta."""
    p1, p2 = gibbs_probabilities(ens, beta)
    e1, e2 = -ens.epsilon, ens.epsilon
    mean = p1 * e1 + p2 * e2
    return p1 * (e1 - mean) ** 2 + p2 * (e2 - mean) ** 2


def beta_from_upper_probability(ens: TwoLevelEnsemble, p_upper: float) -> float:
    """Invert p_upper = e^{-beta*eps}/Z in closed form (logit)."""
    if not (0.0 < p_upper < 1.0):
        raise DomainError(f"p_upper={p_upper} must lie strictly in (0, 1)")
    return math.log((1.0 - p_upper) / p_upper) / (2.0 * ens.epsilon)


def entropy_rate_canonical(
    ens: TwoLevelEnsemble, beta_of_xi: Callable[[float], float], xi: float
) -> float:
    """Entropy production rate deltaE^2(beta) * (dbeta/dxi)^2, with
    dbeta/dxi by central difference."""
    beta = beta_of_xi(xi)
    dbeta = (beta_of_xi(xi + _BETA_DIFF_STEP) - beta_of_xi(xi - _BETA_DIFF_STEP)) / (
        2.0 * _BETA_DIFF_STEP
    )
    return energy_variance(ens, beta) * dbeta * dbeta


def entropy_rate_probability_velocity(
    ens: TwoLevelEnsemble, p_upper_of_xi: Callable[[float], float], xi: float
) -> float:
    """Entropy production rate via (dp1/dxi)^2 * (1/p1 + 1/p2)."""
    h = _BETA_DIFF_STEP
    p2 = p_upper_of_xi(xi)
    p1 = 1.0 - p2
    if min(p1, p2) < 1e-12:
        raise DomainError(f"degenerate occupation ({p1}, {p2}) at xi={xi}")
    dp1 = -(p_upper_of_xi(xi + h) - p_upper_of_xi(xi - h)) / (2.0 * h)
    return dp1 * dp1 * (1.0 / p1 + 1.0 / p2)
