"""Driving schemes, probability paths, and propagator amplitudes."""
import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrogeo import (
    DomainError,
    DrivingScheme,
    SchemeKind,
    amplitudes,
    field_intensity,
    integrated_phase,
    probability_path,
    transition_probability,
)
from entrogeo.schemes import resonant_gamma

LAM_KINDS = [SchemeKind.OSCILLATING, SchemeKind.POWER_LAW, SchemeKind.EXPONENTIAL]


class TestConstruction:
    def test_resonant_gamma_derived(self):
        s = DrivingScheme(kind=SchemeKind.EXPONENTIAL, lam=0.5)
        assert s.gamma == pytest.approx(0.25 * math.pi, abs=0.0)

    def test_resonant_classmethod(self):
        s = DrivingScheme.resonant(SchemeKind.POWER_LAW, lam=2.0, hbar=3.0)
        assert s.gamma == pytest.approx(3.0 * math.pi, rel=1e-15)

    def test_explicit_gamma_opts_out(self):
        s = DrivingScheme(kind=SchemeKind.EXPONENTIAL, gamma=1.0, lam=0.5)
        assert s.gamma == 1.0

    @pytest.mark.parametrize("lam,hbar", [(0.5, 1.0), (0.7, 1.0), (2.0, 3.0), (1e-8, 0.3)])
    def test_resonant_constant_kind(self, lam, hbar):
        # the constant kind takes the same resonant gamma as the lam-shaped ones
        s = DrivingScheme.resonant(SchemeKind.CONSTANT, lam, hbar)
        assert s.gamma == resonant_gamma(lam, hbar)

    def test_constant_without_gamma_needs_lam(self):
        with pytest.raises(ValueError, match="lam"):
            DrivingScheme(kind=SchemeKind.CONSTANT)

    @pytest.mark.parametrize("kind", LAM_KINDS)
    def test_lam_required(self, kind):
        with pytest.raises(ValueError, match="lam"):
            DrivingScheme(kind=kind, gamma=1.0)

    def test_positive_parameters_required(self):
        with pytest.raises(ValueError):
            DrivingScheme(kind=SchemeKind.CONSTANT, gamma=-1.0)
        with pytest.raises(ValueError):
            DrivingScheme(kind=SchemeKind.CONSTANT, gamma=1.0, hbar=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("param", ["gamma", "lam", "hbar"])
    def test_nonfinite_parameters_rejected(self, param, bad):
        kw = dict(kind=SchemeKind.EXPONENTIAL, gamma=1.0, lam=0.5, hbar=1.0)
        kw[param] = bad
        with pytest.raises(ValueError, match=param):
            DrivingScheme(**kw)

    def test_kind_coerced_from_string(self):
        s = DrivingScheme(kind="constant", gamma=1.0)
        assert s.kind is SchemeKind.CONSTANT


class TestDomain:
    def test_oscillating_theta_max(self):
        s = DrivingScheme.resonant(SchemeKind.OSCILLATING, lam=0.5)
        assert s.theta_max == pytest.approx(math.pi, rel=1e-15)
        with pytest.raises(DomainError):
            s.shape(math.pi * 1.01)

    def test_unbounded_kinds(self):
        for kind in (SchemeKind.CONSTANT, SchemeKind.POWER_LAW, SchemeKind.EXPONENTIAL):
            s = (
                DrivingScheme(kind=kind, gamma=1.0)
                if kind is SchemeKind.CONSTANT
                else DrivingScheme.resonant(kind, lam=0.5)
            )
            assert math.isinf(s.theta_max)
            s.shape(100.0)  # no error

    def test_negative_theta_rejected(self):
        s = DrivingScheme(kind=SchemeKind.CONSTANT, gamma=1.0)
        with pytest.raises(DomainError):
            s.shape(-0.1)


class TestStoredScales:
    """u_scale and theta_max are derived once, at construction."""

    @pytest.mark.parametrize("kind", list(SchemeKind))
    def test_reading_leaves_eq_hash_repr(self, kind):
        s, fresh = DrivingScheme.resonant(kind, lam=0.7), DrivingScheme.resonant(kind, lam=0.7)
        before = (hash(s), repr(s))
        assert s.u_scale == (1.0 if kind is SchemeKind.CONSTANT else 0.7)
        assert s.theta_max > 0
        assert s == fresh
        assert (hash(s), repr(s)) == before == (hash(fresh), repr(fresh))

    def test_replace_recomputes(self):
        s = DrivingScheme.resonant(SchemeKind.OSCILLATING, lam=0.5)
        assert (s.u_scale, s.theta_max) == (0.5, 0.5 * math.pi / 0.5)
        t = dataclasses.replace(s, lam=2.0)
        assert (t.u_scale, t.theta_max) == (2.0, 0.5 * math.pi / 2.0)
        assert (s.u_scale, s.theta_max) == (0.5, 0.5 * math.pi / 0.5)

    @pytest.mark.parametrize("name", ["u_scale", "theta_max", "lam"])
    def test_assignment_refused(self, name):
        s = DrivingScheme.resonant(SchemeKind.EXPONENTIAL, lam=0.5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(s, name, 3.0)
        assert (s.lam, s.u_scale, s.theta_max) == (0.5, 0.5, math.inf)


class TestPhase:
    # Frozen closed-form values at gamma = hbar = 1, lam = 0.5, theta = 1.
    CASES = [
        (SchemeKind.CONSTANT, 1.0),
        (SchemeKind.OSCILLATING, 0.95885107720840601),   # 2 sin(1/2)
        (SchemeKind.POWER_LAW, 0.66666666666666674),     # 2 (1 - 1/1.5)
        (SchemeKind.EXPONENTIAL, 0.78693868057473315),   # 2 (1 - e^{-1/2})
    ]

    @pytest.mark.parametrize("kind,expected", CASES)
    def test_integrated_phase_oracle(self, kind, expected):
        if kind is SchemeKind.CONSTANT:
            s = DrivingScheme(kind=kind, gamma=1.0)
        else:
            s = DrivingScheme(kind=kind, gamma=1.0, lam=0.5)
        assert integrated_phase(s, 1.0) == pytest.approx(expected, rel=1e-15)

    def test_field_intensity_at_zero_is_gamma(self):
        for kind in LAM_KINDS:
            s = DrivingScheme.resonant(kind, lam=0.7)
            assert field_intensity(s, 0.0) == pytest.approx(s.gamma, rel=1e-15)

    @given(theta=st.floats(0.0, 3.0))
    def test_probabilities_normalized(self, theta):
        s = DrivingScheme(kind=SchemeKind.EXPONENTIAL, gamma=1.0, lam=0.5)
        pw, pp = probability_path(s).probabilities(theta)
        assert pw + pp == pytest.approx(1.0, abs=1e-14)
        assert 0.0 <= pw <= 1.0

    def test_constant_success_at_quarter_period(self):
        s = DrivingScheme(kind=SchemeKind.CONSTANT, gamma=1.0)
        path = probability_path(s)
        assert path.p_w(0.5 * math.pi) == pytest.approx(1.0, abs=1e-15)
        assert path.p_w(0.0) == 0.0


class TestAmplitudes:
    @settings(max_examples=300)
    @given(
        b=st.floats(-20, 20),
        phi=st.floats(0, 20),
        pw=st.floats(0, 2 * math.pi),
    )
    def test_unitarity(self, b, phi, pw):
        assert amplitudes(b, phi, pw).unitarity_defect() <= 1e-12

    def test_on_resonance_transition_matches_sin_squared(self):
        pair = amplitudes(0.0, 0.7, 1.3)
        assert transition_probability(pair, 0.0) == pytest.approx(
            math.sin(0.7) ** 2, abs=1e-15
        )

    def test_full_overlap_returns_survival(self):
        pair = amplitudes(0.4, 0.7, 1.3)
        assert transition_probability(pair, 1.0) == pytest.approx(
            abs(pair.alpha) ** 2, abs=1e-15
        )

    def test_overlap_out_of_range(self):
        pair = amplitudes(0.0, 0.7, 0.0)
        with pytest.raises(DomainError):
            transition_probability(pair, 1.5)

    @given(x=st.floats(-1, 1))
    def test_transition_probability_in_unit_interval(self, x):
        pair = amplitudes(0.3, 1.1, 0.9)
        p = transition_probability(pair, x)
        assert -1e-12 <= p <= 1.0 + 1e-12
