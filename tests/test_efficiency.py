"""Efficiency measures, scheme ranking, and rate crossovers."""
import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from entrogeo import (
    DomainError,
    DrivingScheme,
    NoSignChange,
    SchemeKind,
    eta1,
    eta2,
    eta_sym,
    rank_schemes,
    rate_crossover,
    region_boundary_scale,
)
from entrogeo import cli
from entrogeo.efficiency import check_ranking_preservation
from entrogeo.pathmetrics import launch_speed_and_rate

positive = st.floats(1e-6, 1e6)


class TestMeasures:
    def test_point_values(self):
        assert eta1(1.0, 4.0) == pytest.approx(0.75, abs=0.0)
        assert eta2(4.0, 1.0) == pytest.approx(0.25, abs=0.0)
        assert eta_sym(3.0, 1.0) == pytest.approx(0.5, abs=0.0)

    def test_extremes(self):
        assert eta1(2.0, 2.0) == 0.0
        assert eta1(0.0, 5.0) == 1.0
        assert eta2(2.0, 2.0) == 1.0
        assert eta2(1e12, 1.0) == pytest.approx(0.0, abs=1e-11)
        assert eta_sym(7.0, 7.0) == 1.0

    @given(a=positive, b=positive)
    def test_eta_sym_symmetric_and_bounded(self, a, b):
        assert eta_sym(a, b) == eta_sym(b, a)
        assert 0.0 <= eta_sym(a, b) <= 1.0

    @given(r=positive, scale=st.floats(1.0, 1e6))
    def test_asymmetric_measures_bounded(self, r, scale):
        assert 0.0 <= eta1(r, r * scale) <= 1.0
        assert 0.0 <= eta2(r * scale, r) <= 1.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            eta1(5.0, 4.0)
        with pytest.raises(DomainError):
            eta1(1.0, 0.0)
        with pytest.raises(DomainError):
            eta2(0.5, 1.0)
        with pytest.raises(DomainError):
            eta_sym(-1.0, 1.0)

    @pytest.mark.parametrize("measure, args", [
        (eta_sym, (1, 3)), (eta_sym, (1, 3.0)), (eta_sym, (0, 0)),
        (eta1, (1, 4)), (eta1, (1.0, 3)), (eta2, (4, 1)), (eta2, (3, 2.0)),
    ], ids=lambda x: getattr(x, "__name__", repr(x)))
    def test_python_ints_take_the_float_path(self, measure, args):
        got = measure(*args)
        assert type(got) is float
        assert got.hex() == measure(*map(float, args)).hex()
        json.dumps({"eta": got})


rate = st.one_of(st.just(0.0), st.floats(0.0, 1e308), st.just(math.nan))


positive_rate = st.floats(min_value=0.0, exclude_min=True)  # inf included

# (measure, rates, pair -> arguments in the measure's domain)
ARRAY_MEASURES = {
    "eta_sym": (eta_sym, rate, lambda a, b: (a, b)),
    "eta1": (eta1, positive_rate, lambda a, b: (min(a, b), max(a, b))),
    "eta2": (eta2, positive_rate, lambda a, b: (max(a, b), min(a, b))),
}

# one pair outside the measure's domain, as (measure, first, second)
BAD_PAIRS = {
    "eta1-r-above-r_max": (eta1, 5.0, 4.0),
    "eta1-negative-r": (eta1, -1.0, 4.0),
    "eta1-zero-r_max": (eta1, 0.0, 0.0),
    "eta1-negative-r_max": (eta1, -2.0, -1.0),
    "eta1-nan-r": (eta1, math.nan, 4.0),
    "eta1-nan-r_max": (eta1, 1.0, math.nan),
    "eta2-r-below-r_min": (eta2, 0.5, 1.0),
    "eta2-zero-r_min": (eta2, 1.0, 0.0),
    "eta2-negative-r_min": (eta2, 1.0, -1.0),
    "eta2-nan-r": (eta2, math.nan, 1.0),
    "eta2-nan-r_min": (eta2, 1.0, math.nan),
}


class TestMeasureArrays:
    @pytest.mark.parametrize("measure, rates, order", ARRAY_MEASURES.values(),
                             ids=ARRAY_MEASURES.keys())
    @given(data=st.data())
    def test_array_equals_scalar_bitwise(self, measure, rates, order, data):
        pairs = data.draw(st.lists(
            st.tuples(rates, rates).map(lambda p: order(*p)), min_size=1, max_size=20))
        first = np.array([a for a, _ in pairs])
        second = np.array([b for _, b in pairs])
        got = measure(first, second)
        assert got.shape == first.shape
        for (a, b), x in zip(pairs, got.tolist()):
            want = measure(a, b)
            assert (math.isnan(want) and math.isnan(x)) or (
                np.float64(x).tobytes() == np.float64(want).tobytes()), (a, b)

    @pytest.mark.parametrize("measure, a, b", BAD_PAIRS.values(), ids=BAD_PAIRS.keys())
    def test_one_bad_entry_raises_as_scalar(self, measure, a, b):
        with pytest.raises(DomainError):
            measure(a, b)
        good = (1.0, 4.0) if measure is eta1 else (4.0, 1.0)
        with pytest.raises(DomainError):
            measure(np.array([good[0], a, good[0]]), np.array([good[1], b, good[1]]))
        measure(np.array([good[0]] * 3), np.array([good[1]] * 3))  # no error


class TestEtaSymArrays:
    def test_two_zero_rates_are_equally_efficient(self):
        assert eta_sym(0.0, 0.0) == 1.0
        assert eta_sym(0.0, 5.0) == 0.0
        assert eta_sym(np.zeros(3), np.zeros(3)).tolist() == [1.0, 1.0, 1.0]
        # one array, one float, broadcast
        assert eta_sym(np.array([0.0, 2.0]), 0.0).tolist() == [1.0, 0.0]

    def test_negative_array_entry_raises(self):
        with pytest.raises(DomainError):
            eta_sym(np.array([1.0, -1e-300]), np.array([1.0, 1.0]))
        with pytest.raises(DomainError):
            eta_sym(np.array([1.0, 2.0]), np.array([3.0, -4.0]))

    def test_nan_passes_through(self):
        assert math.isnan(eta_sym(math.nan, 1.0))
        assert np.isnan(eta_sym(np.array([math.nan, 1.0]), 1.0)).tolist() == [True, False]


class TestRanking:
    def test_rank_orders_by_rate(self):
        schemes = [
            DrivingScheme.resonant(k, lam=0.5)
            for k in (SchemeKind.OSCILLATING, SchemeKind.POWER_LAW, SchemeKind.EXPONENTIAL)
        ]
        ranking = rank_schemes(schemes, 1.0, 0.1)
        # Coolest first: at lam=0.5 shapes^2 are pow < exp < osc.
        assert ranking.order == ("power_law", "exponential", "oscillating")
        assert not ranking.has_ties
        for e in ranking.entries:
            assert 0.0 <= e.eta1 <= 1.0
            assert 0.0 <= e.eta2 <= 1.0
            assert 0.0 <= e.eta_sym <= 1.0

    def test_identical_schemes_tie_in_input_order(self):
        s = DrivingScheme.resonant(SchemeKind.EXPONENTIAL, lam=0.5)
        ranking = rank_schemes([s, s], 1.0, 0.1)
        assert ranking.has_ties
        assert ranking.order == ("exponential", "exponential#1")
        assert all(e.eta_sym == 1.0 for e in ranking.entries)

    def test_needs_two_schemes(self):
        s = DrivingScheme.resonant(SchemeKind.EXPONENTIAL, lam=0.5)
        with pytest.raises(DomainError):
            rank_schemes([s], 1.0, 0.1)

    def test_rate_extends_past_oscillating_turning_point(self):
        # lam * theta0 = 18: the pointwise rate is still defined (cos(18) != 0)
        s = DrivingScheme.resonant(SchemeKind.OSCILLATING, lam=18.0)
        r = launch_speed_and_rate(s, 1.0, 1.0).r_E
        expected = (2.0 * s.gamma) ** 2 * math.cos(18.0) ** 2
        assert r == pytest.approx(expected, rel=1e-12)

    @given(
        rates=st.lists(st.floats(1e-3, 1e3), min_size=2, max_size=8)
    )
    def test_measures_agree_on_order(self, rates):
        assert check_ranking_preservation(rates)

    def test_preservation_rejects_bad_input(self):
        with pytest.raises(DomainError):
            check_ranking_preservation([1.0])
        with pytest.raises(DomainError):
            check_ranking_preservation([1.0, -2.0])


class TestCrossover:
    def test_boundary_scale_frozen(self):
        assert region_boundary_scale() == pytest.approx(2.5128624172523395, abs=1e-10)

    def test_boundary_scale_matches_lambertw_oracle(self):
        # u* = -2 W_{-1}(-exp(-1/2)/2) - 1, from 1 + u = exp(u/2)
        with mpmath.workdps(50):
            oracle = float(-2 * mpmath.lambertw(-mpmath.exp(-0.5) / 2, -1).real - 1)
        assert region_boundary_scale() == oracle

    def test_figure2_region_prints_boundary_digits(self, capsys):
        assert cli.main(["figure2", "--lambda-count", "11", "--grid-count", "3"]) == 0
        assert "# u_star = 2.5128624172523395\n" in capsys.readouterr().out

    def test_crossover_scales_inversely_with_theta0(self):
        # lam* theta0 = u*, so doubling theta0 halves lam*.
        lam_star = rate_crossover(
            SchemeKind.EXPONENTIAL, SchemeKind.POWER_LAW, 2.0, (0.5, 3.0)
        )
        assert lam_star == pytest.approx(1.2564312086261697, abs=1e-9)

    def test_no_sign_change(self):
        with pytest.raises(NoSignChange):
            rate_crossover(
                SchemeKind.EXPONENTIAL, SchemeKind.POWER_LAW, 1.0, (3.0, 5.0)
            )

    def test_identical_schemes_rejected(self):
        with pytest.raises(NoSignChange):
            rate_crossover(
                SchemeKind.EXPONENTIAL, SchemeKind.EXPONENTIAL, 1.0, (1.0, 5.0)
            )
