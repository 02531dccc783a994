"""The rewritten checks of ``entrogeo.verify`` see the same samples, bit
for bit, as the scalar draws they replace: one array draw against the
interleaved scalar calls, row minima and maxima against min/max, and the
theta samples against the array the checks drew before."""
import math

import numpy as np
import pytest

from entrogeo import DrivingScheme, SchemeKind, efficiency, verify
from entrogeo.schemes import PROFILES, standard_schemes


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def _recording(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call's arguments."""
    calls, real = [], getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_amplitude_unitarity_draws(monkeypatch):
    calls = _recording(monkeypatch, verify, "amplitudes")
    verify.check_amplitude_unitarity()
    rng = np.random.default_rng(verify._SEED + 3)
    scalar = [
        (rng.uniform(-10, 10), rng.uniform(0, 10), rng.uniform(0, 2 * math.pi))
        for _ in range(1000)
    ]
    assert _bits(calls) == _bits(scalar)
    assert all(type(x) is float for row in calls for x in row)


def test_efficiency_range_draws(monkeypatch):
    eta1_calls = _recording(monkeypatch, efficiency, "eta1")
    eta2_calls = _recording(monkeypatch, efficiency, "eta2")
    verify.check_efficiency_range()
    draws = np.random.default_rng(verify._SEED + 10).uniform(1e-6, 1e6, size=(10_000, 2))
    lo = [min(a, b) for a, b in draws.tolist()]
    hi = [max(a, b) for a, b in draws.tolist()]
    [(lo1, hi1)], [(hi2, lo2)] = eta1_calls, eta2_calls
    assert _bits(lo1) == _bits(lo2) == _bits(lo)
    assert _bits(hi1) == _bits(hi2) == _bits(hi)


def _array_thetas(rng, scheme, n, margin=0.05):
    """The theta samples as an array, with theta_max computed on each call."""
    u_scale = 1.0 if scheme.kind is SchemeKind.CONSTANT else scheme.lam
    hi = PROFILES[scheme.kind].u_max / u_scale
    if not math.isfinite(hi):
        hi = 5.0
    return rng.uniform(margin * hi, (1.0 - margin) * hi, size=n)


SCHEMES = standard_schemes() + standard_schemes(lam=3.7) + [
    DrivingScheme(kind=SchemeKind.CONSTANT, gamma=1.3)]


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: f"{s.kind.value}-{s.lam}")
def test_random_thetas(scheme):
    got = verify._random_thetas(np.random.default_rng(verify._SEED), scheme, 400)
    want = _array_thetas(np.random.default_rng(verify._SEED), scheme, 400)
    assert _bits(got) == _bits(want)
    assert all(type(th) is float for th in got)
