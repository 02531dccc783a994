"""Driving schemes for a transversally driven two-level system.

Four transverse-field intensity profiles are supported,

    constant     w(t) = gamma
    oscillating  w(t) = gamma * cos(lam * t)
    power_law    w(t) = gamma / (1 + lam * t)**2
    exponential  w(t) = gamma * exp(-lam * t)

On resonance the success probability depends only on the integrated
phase f(t) = int_0^t w(t') / hbar dt', through p_w = sin^2(f).  The
statistical parameter theta is identified with the elapsed time t.

Each kind's closed forms live in one ``Profile`` in ``PROFILES``, written
in u = lam * theta (lam := 1 for the constant kind).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

from .errors import DomainError

_DOMAIN_TOL = 1e-12
_HALF_PI = 0.5 * math.pi


class SchemeKind(str, Enum):
    CONSTANT = "constant"
    OSCILLATING = "oscillating"
    POWER_LAW = "power_law"
    EXPONENTIAL = "exponential"


@dataclass(frozen=True)
class Profile:
    """Closed forms of one scheme kind in u = lam * theta.

    Every callable takes the math namespace ``xp`` first: ``math`` for
    Python floats, ``numpy`` for arrays.  theta and thetadot are always
    evaluated with ``numpy`` (see ``Geodesic``) and may use its
    elementwise ``minimum``; their launch-point terms in theta0 are
    scalars and use ``math``.  The metric factor m keeps its own form
    instead of w(u)**2, which rounds differently.
    """

    w: Callable  # (xp, u) -> intensity shape w/gamma
    m: Callable  # (xp, u) -> metric factor g/g0 = w(u)**2, g0 = (2 gamma/hbar)**2
    dm: Callable  # (xp, u) -> dm/du
    phase: Callable  # (xp, u) -> F(u) = int_0^u w; f(theta) = gamma/(hbar lam) F(u)
    # geodesic through (theta0, thetadot0) at s = xi - xi0 = 0:
    theta: Callable  # (xp, lam, theta0, thetadot0, s) -> theta
    thetadot: Callable  # (xp, lam, theta0, thetadot0, s) -> dtheta/dxi
    validity: Callable  # (xp, lam, theta0, thetadot0) -> s where theta(s) ends
    u_max: float  # upper end of the admissible u interval


def _oscillating_theta(xp, lam, th0, thd0, s):
    arg = lam * math.cos(lam * th0) * thd0 * s + math.sin(lam * th0)
    return xp.asin(xp.minimum(arg, 1.0)) / lam


def _oscillating_thetadot(xp, lam, th0, thd0, s):
    arg = lam * math.cos(lam * th0) * thd0 * s + math.sin(lam * th0)
    return math.cos(lam * th0) * thd0 / xp.sqrt(1.0 - arg * arg)


def _oscillating_validity(xp, lam, th0, thd0):
    # past u = pi/2 the launch point lies beyond a turning point, where
    # asin in theta(s) would return the wrong branch
    u0 = lam * th0
    if not 0.0 < u0 < _HALF_PI:
        raise DomainError(f"oscillating geodesic needs 0 < lam*theta0 < pi/2, got {u0}")
    return (1.0 - xp.sin(u0)) / (lam * thd0 * xp.cos(u0))


def _power_law_theta(xp, lam, th0, thd0, s):
    d = (1.0 + lam * th0) - lam * thd0 * s
    return ((1.0 + lam * th0) ** 2 / d - 1.0) / lam


def _power_law_thetadot(xp, lam, th0, thd0, s):
    d = (1.0 + lam * th0) - lam * thd0 * s
    return thd0 * (1.0 + lam * th0) ** 2 / (d * d)


PROFILES: dict[SchemeKind, Profile] = {
    # u ** 0 is 1 shaped like u, for every u
    SchemeKind.CONSTANT: Profile(
        w=lambda xp, u: u**0,
        m=lambda xp, u: u**0,
        dm=lambda xp, u: 0.0 * u**0,
        phase=lambda xp, u: u,
        theta=lambda xp, lam, th0, thd0, s: th0 + thd0 * s,
        thetadot=lambda xp, lam, th0, thd0, s: thd0 * s**0,
        validity=lambda xp, lam, th0, thd0: math.inf,
        u_max=math.inf,
    ),
    SchemeKind.OSCILLATING: Profile(
        w=lambda xp, u: xp.cos(u),
        m=lambda xp, u: xp.cos(u) ** 2,
        dm=lambda xp, u: -xp.sin(2.0 * u),
        phase=lambda xp, u: xp.sin(u),
        theta=_oscillating_theta,
        thetadot=_oscillating_thetadot,
        validity=_oscillating_validity,
        u_max=_HALF_PI,
    ),
    SchemeKind.POWER_LAW: Profile(
        w=lambda xp, u: (1.0 + u) ** -2,
        m=lambda xp, u: (1.0 + u) ** -4,
        dm=lambda xp, u: -4.0 * (1.0 + u) ** -5,
        phase=lambda xp, u: 1.0 - 1.0 / (1.0 + u),
        theta=_power_law_theta,
        thetadot=_power_law_thetadot,
        validity=lambda xp, lam, th0, thd0: (1.0 + lam * th0) / (lam * thd0),
        u_max=math.inf,
    ),
    SchemeKind.EXPONENTIAL: Profile(
        w=lambda xp, u: xp.exp(-u),
        m=lambda xp, u: xp.exp(-2.0 * u),
        dm=lambda xp, u: -2.0 * xp.exp(-2.0 * u),
        phase=lambda xp, u: -xp.expm1(-u),
        theta=lambda xp, lam, th0, thd0, s: th0 - xp.log1p(-lam * thd0 * s) / lam,
        thetadot=lambda xp, lam, th0, thd0, s: thd0 / (1.0 - lam * thd0 * s),
        validity=lambda xp, lam, th0, thd0: 1.0 / (lam * thd0),
        u_max=math.inf,
    ),
}


def resonant_gamma(lam, hbar=1.0):
    """Intensity scale gamma = (pi/2) * hbar * lam at which the success
    probability reaches one; floats or arrays."""
    return 0.5 * math.pi * hbar * lam


@dataclass(frozen=True)
class DrivingScheme:
    """A transverse-field profile with intensity scale ``gamma``.

    ``lam`` (inverse-time units) shapes the decay/oscillation and is
    required for every kind except CONSTANT, and for CONSTANT when
    ``gamma`` is omitted.  An omitted ``gamma`` is the
    resonant gamma = (pi/2) * hbar * lam, which lets the success
    probability reach one; a given ``gamma`` is used as is.
    """

    kind: SchemeKind
    gamma: Optional[float] = None
    lam: Optional[float] = None
    hbar: float = 1.0
    # Derived once in __post_init__, as the scalar paths read them on every
    # call; ==, hash and repr leave them out.
    # u_scale is lam in u = lam * theta, 1 for the constant kind (no lam);
    # theta_max is the upper end of the admissible theta interval.
    u_scale: float = field(init=False, repr=False, compare=False)
    theta_max: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        kind = SchemeKind(self.kind)
        object.__setattr__(self, "kind", kind)
        # "not x > 0" also rejects NaN, for which every comparison is false
        if not (self.hbar > 0 and math.isfinite(self.hbar)):
            raise ValueError("hbar must be positive and finite")
        if kind is not SchemeKind.CONSTANT or self.gamma is None:
            if self.lam is None or not (self.lam > 0 and math.isfinite(self.lam)):
                raise ValueError(f"{kind.value} scheme requires finite lam > 0")
        if self.gamma is None:
            object.__setattr__(self, "gamma", resonant_gamma(self.lam, self.hbar))
        if not (self.gamma > 0 and math.isfinite(self.gamma)):
            raise ValueError("gamma must be positive and finite")
        u_scale = 1.0 if kind is SchemeKind.CONSTANT else self.lam
        object.__setattr__(self, "u_scale", u_scale)
        object.__setattr__(self, "theta_max", PROFILES[kind].u_max / u_scale)

    @classmethod
    def resonant(cls, kind, lam: float, hbar: float = 1.0) -> "DrivingScheme":
        """Scheme with gamma = (pi/2) * hbar * lam."""
        return cls(kind=kind, lam=lam, hbar=hbar)

    def _check_theta(self, theta: float) -> None:
        if theta < -_DOMAIN_TOL:
            raise DomainError(f"theta={theta} is negative")
        tmax = self.theta_max
        if theta > tmax * (1.0 + _DOMAIN_TOL):
            raise DomainError(
                f"theta={theta} beyond admissible range [0, {tmax}] "
                f"for {self.kind.value} scheme"
            )

    def shape(self, theta: float) -> float:
        """Dimensionless intensity shape w(theta)/gamma, domain-checked."""
        self._check_theta(theta)
        return PROFILES[self.kind].w(math, self.u_scale * theta)


def field_intensity(scheme: DrivingScheme, t: float) -> float:
    """Transverse-field intensity w(t) of the scheme at time t >= 0."""
    return scheme.gamma * scheme.shape(t)


def integrated_phase(scheme: DrivingScheme, theta: float) -> float:
    """Accumulated phase f(theta) = int_0^theta w(t')/hbar dt' (closed form)."""
    scheme._check_theta(theta)
    lam = scheme.u_scale
    return scheme.gamma / scheme.hbar / lam * PROFILES[scheme.kind].phase(math, lam * theta)


def standard_schemes(lam: float = 0.5, hbar: float = 1.0) -> list[DrivingScheme]:
    """The four schemes at shared gamma = (pi/2) * hbar * lam."""
    return [DrivingScheme.resonant(kind, lam=lam, hbar=hbar) for kind in SchemeKind]


@dataclass(frozen=True)
class ProbabilityPath:
    """Binary probability path theta -> (p_w, p_wperp) induced by a scheme."""

    scheme: DrivingScheme

    def phase(self, theta: float) -> float:
        return integrated_phase(self.scheme, theta)

    def p_w(self, theta: float) -> float:
        return math.sin(self.phase(theta)) ** 2

    def probabilities(self, theta: float) -> tuple[float, float]:
        f = self.phase(theta)
        return math.sin(f) ** 2, math.cos(f) ** 2


def probability_path(scheme: DrivingScheme) -> ProbabilityPath:
    """Probability path with p_w = sin^2(f(theta)) for the given scheme."""
    return ProbabilityPath(scheme=scheme)


@dataclass(frozen=True)
class AmplitudePair:
    """Unitary propagator amplitudes (alpha, beta); see ``amplitudes``."""

    alpha: complex
    beta: complex

    def unitarity_defect(self) -> float:
        return abs(abs(self.alpha) ** 2 + abs(self.beta) ** 2 - 1.0)


def amplitudes(b: float, phase_Phi: float, phi_omega: float) -> AmplitudePair:
    """Propagator amplitudes for detuning b, accumulated phase Phi, and
    transverse-field phase phi_omega.

    Phi is supplied by the caller (Phi = sqrt(1+b^2) * integrated phase),
    so the algebraic identities here stay decoupled from quadrature.
    """
    root = math.sqrt(1.0 + b * b)
    half = 0.5 * phi_omega
    alpha = complex(math.cos(phase_Phi), -(b / root) * math.sin(phase_Phi))
    alpha *= complex(math.cos(half), math.sin(half))
    beta_mod = math.sin(phase_Phi) / root
    beta_arg = half - 0.5 * math.pi
    beta = beta_mod * complex(math.cos(beta_arg), math.sin(beta_arg))
    return AmplitudePair(alpha=alpha, beta=beta)


def transition_probability(alpha_beta: AmplitudePair, x: float) -> float:
    """Probability of landing on the target state given source overlap x.

    x = <w|s> must lie in [-1, 1].
    """
    if abs(x) > 1.0 + _DOMAIN_TOL:
        raise DomainError(f"source overlap x={x} outside [-1, 1]")
    x = min(1.0, max(-1.0, x))
    a, bt = alpha_beta.alpha, alpha_beta.beta
    cross = (a * bt.conjugate() + a.conjugate() * bt).real
    return (
        abs(a) ** 2 * x * x
        + abs(bt) ** 2 * (1.0 - x * x)
        + cross * x * math.sqrt(1.0 - x * x)
    )
