"""Two-level canonical ensemble: entropy curve, fluctuations, rates."""
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from entrogeo import (
    DomainError,
    TwoLevelEnsemble,
    beta_from_upper_probability,
    energy_variance,
    entropy_of_energy,
    entropy_rate_canonical,
    entropy_rate_probability_velocity,
    gibbs_probabilities,
)

ENS = TwoLevelEnsemble(epsilon=1.0)


class TestEntropyCurve:
    def test_maximum_at_zero(self):
        assert entropy_of_energy(ENS, 0.0) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_half_energy_frozen_value(self):
        # binary entropy of p = 3/4
        ens = TwoLevelEnsemble(epsilon=1.0, n_elements=4)
        assert entropy_of_energy(ens, 2.0) == pytest.approx(
            0.56233514461880829, rel=1e-14
        )

    def test_endpoints_are_pure(self):
        assert entropy_of_energy(ENS, ENS.u_max) == 0.0
        assert entropy_of_energy(ENS, -ENS.u_max) == 0.0

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            entropy_of_energy(ENS, 1.5)

    @given(u=st.floats(-0.999, 0.999))
    def test_symmetric(self, u):
        assert entropy_of_energy(ENS, u) == pytest.approx(
            entropy_of_energy(ENS, -u), abs=1e-14
        )


class TestGibbs:
    def test_infinite_temperature(self):
        assert gibbs_probabilities(ENS, 0.0) == (0.5, 0.5)

    def test_cold_limit_no_overflow(self):
        p1, p2 = gibbs_probabilities(ENS, 500.0)
        assert p1 == pytest.approx(1.0)
        p1, p2 = gibbs_probabilities(ENS, -500.0)
        assert p2 == pytest.approx(1.0)

    def test_nonfinite_beta_rejected(self):
        with pytest.raises(DomainError):
            gibbs_probabilities(ENS, math.inf)

    def test_variance_maximal_at_beta_zero(self):
        assert energy_variance(ENS, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert energy_variance(ENS, 1.0) < 1.0

    def test_beta_roundtrip(self):
        for p in (0.1, 0.25, 0.5, 0.9):
            beta = beta_from_upper_probability(ENS, p)
            assert gibbs_probabilities(ENS, beta)[1] == pytest.approx(p, rel=1e-12)

    def test_beta_frozen_value(self):
        # p_upper = 1/4 -> beta = log(3) / 2 at eps = 1
        assert beta_from_upper_probability(ENS, 0.25) == pytest.approx(
            0.54930614433405489, rel=1e-15
        )

    def test_beta_domain(self):
        with pytest.raises(DomainError):
            beta_from_upper_probability(ENS, 0.0)


class TestRates:
    def test_routes_agree_on_generic_protocol(self):
        p_upper = lambda xi: 0.3 + 0.2 * math.sin(xi)
        beta_of_xi = lambda xi: beta_from_upper_probability(ENS, p_upper(xi))
        for xi in (0.2, 0.7, 1.4):
            canon = entropy_rate_canonical(ENS, beta_of_xi, xi)
            vel = entropy_rate_probability_velocity(ENS, p_upper, xi)
            assert canon == pytest.approx(vel, rel=1e-7)

    def test_epsilon_independence(self):
        # The rate depends only on the occupation trajectory, not on eps.
        p_upper = lambda xi: 0.3 + 0.2 * math.sin(xi)
        out = []
        for eps in (0.5, 1.0, 2.0):
            ens = TwoLevelEnsemble(epsilon=eps)
            beta_of_xi = lambda xi: beta_from_upper_probability(ens, p_upper(xi))
            out.append(entropy_rate_canonical(ens, beta_of_xi, 0.9))
        assert out[0] == pytest.approx(out[1], rel=1e-7)
        assert out[1] == pytest.approx(out[2], rel=1e-7)

    def test_degenerate_occupation_rejected(self):
        with pytest.raises(DomainError):
            entropy_rate_probability_velocity(ENS, lambda xi: xi, 1.0)


class TestConstruction:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TwoLevelEnsemble(epsilon=0.0)
        with pytest.raises(ValueError):
            TwoLevelEnsemble(epsilon=1.0, n_elements=0)
