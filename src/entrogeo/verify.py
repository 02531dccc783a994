"""Named invariant checks spanning all modules: the acceptance criteria.

Each check raises AssertionError on failure; `run_checks` collects
results and is the engine behind the CLI `verify` command, and the test
suite runs every entry of `CHECKS` in process.  Randomized checks use a
fixed seed so runs are reproducible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import efficiency, thermo
from ._ode import quad
from .geometry import (
    GeodesicFormulation,
    fisher_closed_form,
    fisher_numeric,
    geodesic_closed_form,
    geodesic_numeric,
    geodesic_residual,
)
from .pathmetrics import (
    ParamTrajectory,
    entropic_speed,
    entropy_rate_metric,
    entropy_rate_score,
    igc,
    launch_from_shape,
    launch_speed_and_rate,
    thermodynamic_divergence,
    thermodynamic_length,
)
from .schemes import (
    DrivingScheme,
    SchemeKind,
    amplitudes,
    field_intensity,
    integrated_phase,
    probability_path,
    standard_schemes,
    transition_probability,
)

_SEED = 20230817


def _random_thetas(rng, scheme: DrivingScheme, n: int):
    """n thetas drawn uniformly from the inner 90 % of [0, theta_max]."""
    hi = scheme.theta_max
    if not math.isfinite(hi):
        hi = 5.0
    return rng.uniform(0.05 * hi, 0.95 * hi, size=n).tolist()


# --- schemes -----------------------------------------------------------

def check_normalization():
    rng = np.random.default_rng(_SEED)
    for scheme in standard_schemes():
        path = probability_path(scheme)
        for th in _random_thetas(rng, scheme, 100):
            pw, pp = path.probabilities(th)
            assert abs(pw + pp - 1.0) <= 1e-14, f"{scheme.kind}: p sum off at {th}"
            assert -1e-15 <= pw <= 1.0 + 1e-15


def check_phase_quadrature():
    rng = np.random.default_rng(_SEED + 1)
    for scheme in standard_schemes():
        for th in _random_thetas(rng, scheme, 100):
            closed = integrated_phase(scheme, th)
            numeric = quad(
                lambda t: field_intensity(scheme, t) / scheme.hbar,
                0.0, th, epsabs=1e-14, epsrel=1e-12, limit=50,
            )
            assert abs(closed - numeric) <= 1e-10 * max(1.0, abs(closed)), (
                f"{scheme.kind}: phase mismatch at theta={th}: {closed} vs {numeric}"
            )


def check_constant_period():
    scheme = DrivingScheme(kind=SchemeKind.CONSTANT, gamma=1.3, hbar=1.0)
    path = probability_path(scheme)
    period = math.pi * scheme.hbar / scheme.gamma
    rng = np.random.default_rng(_SEED + 2)
    for th in rng.uniform(0.0, 5.0, size=50).tolist():
        assert abs(path.p_w(th + period) - path.p_w(th)) <= 1e-12


def check_amplitude_unitarity():
    rng = np.random.default_rng(_SEED + 3)
    # row by row, the same values as 1,000 rounds of three scalar draws
    draws = rng.uniform([-10.0, 0.0, 0.0], [10.0, 10.0, 2 * math.pi], size=(1000, 3))
    for b, phi, pw in draws.tolist():
        pair = amplitudes(b, phi, pw)
        assert pair.unitarity_defect() <= 1e-12


def check_transition_consistency():
    rng = np.random.default_rng(_SEED + 4)
    for scheme in standard_schemes():
        path = probability_path(scheme)
        for th in _random_thetas(rng, scheme, 100):
            pair = amplitudes(0.0, path.phase(th), rng.uniform(0, 2 * math.pi))
            assert abs(transition_probability(pair, 0.0) - path.p_w(th)) <= 1e-12


# --- geometry ----------------------------------------------------------

def check_fisher_identity():
    rng = np.random.default_rng(_SEED + 5)
    for scheme in standard_schemes():
        metric = fisher_closed_form(scheme)
        for th in _random_thetas(rng, scheme, 100):
            h = 1e-6 * max(1.0, th)
            fprime = (
                integrated_phase(scheme, th + h) - integrated_phase(scheme, th - h)
            ) / (2.0 * h)
            assert abs(metric.g(th) - 4.0 * fprime**2) <= 1e-8 * max(1.0, metric.g(th))


def check_fisher_numeric():
    rng = np.random.default_rng(_SEED + 6)
    for scheme in standard_schemes():
        metric = fisher_closed_form(scheme)
        path = probability_path(scheme)
        n = 0
        for th in _random_thetas(rng, scheme, 400):
            pw, pp = path.probabilities(th)
            if min(pw, pp) < 1e-3:  # skip near-degenerate points
                continue
            g_num = fisher_numeric(path, th)
            g_cl = metric.g(th)
            assert abs(g_num - g_cl) <= 1e-6 * g_cl, (
                f"{scheme.kind} at theta={th}: {g_num} vs {g_cl}"
            )
            n += 1
            if n >= 100:
                break
        assert n >= 100, f"{scheme.kind}: too few usable sample points"


_IC = dict(theta0=1.0, thetadot0=0.1, xi0=0.0)


def _launched():
    """(scheme, metric, geodesic, tau) of each standard scheme's geodesic
    launched at ``_IC``; tau is a window well inside its validity."""
    for scheme in standard_schemes():
        geo = geodesic_closed_form(scheme, **_IC)
        yield scheme, fisher_closed_form(scheme), geo, min(1.0, 0.4 * (geo.validity_end - geo.xi0))


def check_geodesic_residual():
    for scheme, metric, geo, _ in _launched():
        end = min(geo.validity_end, geo.xi0 + 10.0)
        for xi in np.linspace(geo.xi0 + 0.01, geo.xi0 + 0.9 * (end - geo.xi0), 50).tolist():
            res = geodesic_residual(metric, geo, xi)
            assert abs(res) <= 1e-8, f"{scheme.kind}: residual {res} at xi={xi}"


def check_geodesic_oracle():
    for scheme, metric, geo, _ in _launched():
        for form in GeodesicFormulation:
            num = geodesic_numeric(
                metric, geo.xi0, geo.theta0, geo.thetadot0, 1.0,
                formulation=form, validity_end=geo.validity_end,
            )
            err = np.max(np.abs(num.theta - np.asarray(geo.theta(num.xi))))
            assert err <= 1e-6, f"{scheme.kind}/{form}: max error {err}"


def check_formulation_agreement():
    rng = np.random.default_rng(_SEED + 7)
    for scheme in standard_schemes():
        metric = fisher_closed_form(scheme)
        th0 = rng.uniform(0.5, 1.5)
        thd0 = rng.uniform(0.05, 0.2)
        geo = geodesic_closed_form(scheme, 0.0, th0, thd0)
        end = min(1.0, 0.5 * (geo.validity_end - geo.xi0))
        a = geodesic_numeric(metric, 0.0, th0, thd0, end,
                             GeodesicFormulation.CHRISTOFFEL, geo.validity_end)
        b = geodesic_numeric(metric, 0.0, th0, thd0, end,
                             GeodesicFormulation.DIVERGENCE, geo.validity_end)
        assert np.max(np.abs(a.theta - b.theta)) <= 1e-8


def check_speed_constancy():
    for scheme, metric, geo, _ in _launched():
        end = min(geo.validity_end * 0.5, 2.0)
        num = geodesic_numeric(metric, geo.xi0, geo.theta0, geo.thetadot0, end,
                               validity_end=geo.validity_end)
        v = np.sqrt([metric.g(t) for t in num.theta.tolist()]) * num.thetadot
        assert np.std(v) / np.mean(v) <= 1e-7, f"{scheme.kind}: speed drift"


def check_affine_invariance():
    a, b = 2.0, 3.0
    for scheme, _, geo, _ in _launched():
        rescaled = geodesic_closed_form(
            scheme, a * geo.xi0 + b, geo.theta0, geo.thetadot0 / a
        )
        for xi in np.linspace(0.0, 1.0, 17).tolist():
            assert abs(rescaled.theta(a * xi + b) - geo.theta(xi)) <= 1e-12


# --- pathmetrics -------------------------------------------------------

def _quadratic_reparam(geo, tau: float) -> ParamTrajectory:
    # theta(xi) = theta_geo(xi^2 / tau): same point set, non-constant speed
    return ParamTrajectory(
        theta_of_xi=lambda xi: geo.theta(xi * xi / tau),
        thetadot_of_xi=lambda xi: 2.0 * xi / tau * geo.thetadot(xi * xi / tau),
        xi_range=(0.0, tau),
    )


def check_cauchy_schwarz():
    rng = np.random.default_rng(_SEED + 8)
    for scheme, metric, geo, tau in _launched():
        # quadratic reparametrization: strict inequality
        traj = _quadratic_reparam(geo, tau)
        length = thermodynamic_length(metric, traj)
        div = thermodynamic_divergence(metric, traj)
        gap = (div * tau - length**2) / (div * tau)
        assert gap >= 1e-3, f"{scheme.kind}: CS gap {gap} not strict"
        # random monotone reparametrizations: inequality always holds
        for _ in range(50):
            amp = rng.uniform(0.1, 0.9)
            reparam = ParamTrajectory(
                theta_of_xi=lambda xi, a=amp: geo.theta(
                    tau * ((1 - a) * (xi / tau) + a * (xi / tau) ** 2)
                ),
                thetadot_of_xi=lambda xi, a=amp: (
                    ((1 - a) + 2 * a * xi / tau)
                    * geo.thetadot(tau * ((1 - a) * (xi / tau) + a * (xi / tau) ** 2))
                ),
                xi_range=(0.0, tau),
            )
            l2 = thermodynamic_length(metric, reparam) ** 2
            i_tau = thermodynamic_divergence(metric, reparam) * tau
            assert i_tau >= l2 * (1.0 - 1e-12)
            assert (i_tau - l2) / i_tau >= 1e-3 * amp**2


def check_geodesic_equality():
    for _, metric, geo, tau in _launched():
        traj = ParamTrajectory.from_geodesic(geo, (0.0, tau))
        length = thermodynamic_length(metric, traj)
        div = thermodynamic_divergence(metric, traj)
        assert abs(div - length**2 / tau) / div <= 1e-6


def check_rate_routes():
    rng = np.random.default_rng(_SEED + 9)
    for scheme, metric, geo, tau in _launched():
        path = probability_path(scheme)
        traj = ParamTrajectory.from_geodesic(geo, (0.0, tau))
        n = 0
        for xi in rng.uniform(0.0, tau, size=400).tolist():
            th = geo.theta(xi)
            pw, pp = path.probabilities(th)
            if min(pw, pp) < 1e-3:
                continue
            rm = entropy_rate_metric(metric, traj, xi)
            rs = entropy_rate_score(path, traj, xi)
            assert abs(rm - rs) <= 1e-8 * max(1.0, rm), f"{scheme.kind} xi={xi}"
            # r = v^2 identity
            v = entropic_speed(metric, traj, xi)
            assert abs(rm - v * v) <= 1e-10 * max(1.0, rm)
            n += 1
            if n >= 100:
                break
        assert n >= 100, f"{scheme.kind}: too few usable sample points"


def check_slope_law():
    for scheme, metric, geo, tau in _launched():
        _, rate = igc(metric, geo, tau)
        traj = ParamTrajectory.from_geodesic(geo, (0.0, tau))
        v = entropic_speed(metric, traj, 0.0)
        assert abs(rate / v - 0.5) <= 1e-6, f"{scheme.kind}: dC/dtau != v/2"
        slope = launch_from_shape(scheme, geo.theta0, geo.thetadot0).igc_rate
        assert abs(rate - slope) <= 1e-6 * max(1.0, slope)


def check_rate_ordering():
    theta0, thetadot0 = 1.0, 0.1
    for lam in np.linspace(0.1, 30.0, 120).tolist():
        u = lam * theta0
        # Chain holds only where it is claimed: cos(u) must be positive
        # for the oscillating geodesic to exist at theta0.
        chain = 0.0 < math.cos(u) and math.exp(-u) <= (1 + u) ** -2 <= math.cos(u) <= 1.0
        if not chain:
            continue
        rates = {
            s.kind: launch_speed_and_rate(s, theta0, thetadot0).r_E / s.gamma**2
            for s in standard_schemes(lam=lam)
        }
        assert (
            rates[SchemeKind.EXPONENTIAL]
            <= rates[SchemeKind.POWER_LAW]
            <= rates[SchemeKind.OSCILLATING]
            <= rates[SchemeKind.CONSTANT]
        ), f"ordering violated at lambda={lam}"


# --- efficiency --------------------------------------------------------

def check_efficiency_range():
    rng = np.random.default_rng(_SEED + 10)
    draws = rng.uniform(1e-6, 1e6, size=(10_000, 2))
    lo, hi = draws.min(axis=1), draws.max(axis=1)
    for etas in (
        efficiency.eta1(lo, hi),
        efficiency.eta2(hi, lo),
        efficiency.eta_sym(draws[:, 0], draws[:, 1]),
    ):
        assert np.all((0.0 <= etas) & (etas <= 1.0))


def check_efficiency_monotonicity():
    r_min = 0.7
    v = np.linspace(math.sqrt(r_min), 100.0, 20_000)
    etas = efficiency.eta_sym(r_min, v * v)
    assert np.all(np.diff(etas) <= 1e-15), "eta_sym not non-increasing in v"


def check_ranking_agreement():
    rng = np.random.default_rng(_SEED + 11)
    for _ in range(1000):
        size = rng.integers(2, 9)
        rates = rng.uniform(0.01, 100.0, size=size).tolist()
        assert efficiency.check_ranking_preservation(rates)


def check_crossover():
    lam_star = efficiency.rate_crossover(
        SchemeKind.EXPONENTIAL, SchemeKind.POWER_LAW, 1.0, (1.0, 5.0)
    )
    assert abs(lam_star - 2.51) <= 0.01, f"crossover at {lam_star}"
    u = efficiency.region_boundary_scale()
    assert abs((1.0 + u) ** 2 - math.exp(u)) <= 1e-8
    assert abs(lam_star - u) <= 1e-8  # theta0 = 1


# --- thermo ------------------------------------------------------------

def check_entropy_curve():
    ens = thermo.TwoLevelEnsemble(epsilon=1.0, n_elements=3)
    assert abs(thermo.entropy_of_energy(ens, 0.0) - math.log(2.0)) <= 1e-14
    assert thermo.entropy_of_energy(ens, ens.u_max) == 0.0
    assert thermo.entropy_of_energy(ens, -ens.u_max) == 0.0
    grid = np.linspace(-ens.u_max, ens.u_max, 1000)
    sig = np.array([thermo.entropy_of_energy(ens, u) for u in grid.tolist()])
    assert np.all(np.diff(sig, 2) < 0.0), "sigma not concave"
    assert np.max(np.abs(sig - sig[::-1])) <= 1e-14, "sigma not symmetric"


def check_gibbs_fisher():
    ens = thermo.TwoLevelEnsemble(epsilon=1.0)
    h = 1e-6
    for beta in np.linspace(-2.0, 2.0, 41).tolist():
        var = thermo.energy_variance(ens, beta)
        p_hi = thermo.gibbs_probabilities(ens, beta + h)
        p_lo = thermo.gibbs_probabilities(ens, beta - h)
        p = thermo.gibbs_probabilities(ens, beta)
        fisher = sum(
            pi * ((math.log(hi) - math.log(lo)) / (2 * h)) ** 2
            for pi, hi, lo in zip(p, p_hi, p_lo)
        )
        assert abs(var - fisher) <= 1e-8 * max(1.0, var)


def check_er4_identity():
    # Worked example: p = (sin^2, cos^2), theta = (pi/2) xi, rate = pi^2,
    # through all three routes and two epsilon normalizations.
    constant = DrivingScheme(kind=SchemeKind.CONSTANT, gamma=1.0, hbar=1.0)
    path = probability_path(constant)
    traj = ParamTrajectory(
        theta_of_xi=lambda xi: 0.5 * math.pi * xi,
        thetadot_of_xi=lambda xi: 0.5 * math.pi,
        xi_range=(0.0, 1.0),
    )
    p_upper = lambda xi: math.sin(0.5 * math.pi * xi) ** 2
    target = math.pi**2
    for xi in (0.21, 0.4, 0.5, 0.77):
        r_score = entropy_rate_score(path, traj, xi)
        assert abs(r_score - target) <= 1e-8 * target
        for eps in (1.0, 0.7):
            ens = thermo.TwoLevelEnsemble(epsilon=eps)
            beta_of_xi = lambda x: thermo.beta_from_upper_probability(ens, p_upper(x))
            r_canon = thermo.entropy_rate_canonical(ens, beta_of_xi, xi)
            assert abs(r_canon - target) <= 1e-8 * target, f"eps={eps}, xi={xi}"
        r_vel = thermo.entropy_rate_probability_velocity(
            thermo.TwoLevelEnsemble(epsilon=1.0), p_upper, xi
        )
        assert abs(r_vel - target) <= 1e-8 * target


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    message: str = ""


CHECKS: dict[str, Callable[[], None]] = {
    "normalization": check_normalization,
    "phase-quadrature": check_phase_quadrature,
    "constant-period": check_constant_period,
    "amplitude-unitarity": check_amplitude_unitarity,
    "transition-consistency": check_transition_consistency,
    "fisher-identity": check_fisher_identity,
    "fisher-numeric": check_fisher_numeric,
    "geodesic-residual": check_geodesic_residual,
    "geodesic-oracle": check_geodesic_oracle,
    "formulation-agreement": check_formulation_agreement,
    "speed-constancy": check_speed_constancy,
    "affine-invariance": check_affine_invariance,
    "cauchy-schwarz": check_cauchy_schwarz,
    "geodesic-equality": check_geodesic_equality,
    "rate-routes": check_rate_routes,
    "slope-law": check_slope_law,
    "rate-ordering": check_rate_ordering,
    "efficiency-range": check_efficiency_range,
    "efficiency-monotonicity": check_efficiency_monotonicity,
    "ranking-agreement": check_ranking_agreement,
    "crossover": check_crossover,
    "entropy-curve": check_entropy_curve,
    "gibbs-fisher": check_gibbs_fisher,
    "er4-identity": check_er4_identity,
}


def run_checks(name_filter: Optional[str] = None) -> list[CheckResult]:
    """Run all (or filtered) invariant checks; never raises."""
    checks = CHECKS
    if name_filter:
        checks = {k: v for k, v in checks.items() if name_filter in k}
    results = []
    for name, fn in checks.items():
        try:
            fn()
        except AssertionError as exc:
            results.append(CheckResult(name=name, passed=False, message=str(exc)))
        except Exception as exc:  # unexpected: still reported, named
            results.append(
                CheckResult(name=name, passed=False, message=f"{type(exc).__name__}: {exc}")
            )
        else:
            results.append(CheckResult(name=name, passed=True))
    return results
