"""Golden-output gate: every CLI case in tests/golden/ reproduces its
recorded exit code, stdout, stderr and written files byte for byte.

On a host whose numpy build or CPU features differ from the recorded
fingerprint, numpy's SIMD kernels may round the last bit differently.
There the floats are compared at <= 2 ulp instead, with a warning that
says so; every other byte, exit code included, must still match.
"""
import importlib.util
import json
import math
import warnings
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden_regen", Path(__file__).parent / "golden" / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

MAX_ULPS = 2


def _fingerprint_mismatch():
    recorded = json.loads(regen.FINGERPRINT.read_text())
    here = regen.fingerprint()
    return sorted(k for k in recorded if recorded[k] != here.get(k))


def _close_text(got: str, want: str) -> str:
    """'' if the texts match apart from floats within MAX_ULPS, else the
    first difference."""
    g, w = regen._NUMBER.split(got), regen._NUMBER.split(want)
    if len(g) != len(w):
        return f"token count {len(g)} != {len(w)}"
    for i, (a, b) in enumerate(zip(g, w)):
        if i % 2 == 0:
            if a != b:
                return f"text {a!r} != {b!r}"
        else:
            x, y = float(a), float(b)
            if x != y and abs(x - y) > MAX_ULPS * math.ulp(max(abs(x), abs(y))):
                return f"number {a} != {b} (more than {MAX_ULPS} ulp)"
    return ""


@pytest.mark.parametrize("name", regen.CASES)
def test_golden_output(name):
    got = regen.run_case(regen.CASES[name])
    want = regen.load_case(name)
    assert sorted(got) == sorted(want), f"{name}: outputs {sorted(got)} != {sorted(want)}"
    mismatch = _fingerprint_mismatch()
    if not mismatch:
        for key in want:
            assert got[key] == want[key], f"{name}/{key} differs from the golden bytes"
        return
    warnings.warn(
        f"golden corpus recorded on another host ({', '.join(mismatch)} differ): "
        f"floats compared at <= {MAX_ULPS} ulp, all other bytes exactly"
    )
    assert got["exit_code"] == want["exit_code"]
    for key in want:
        diff = _close_text(got[key].decode(), want[key].decode())
        assert not diff, f"{name}/{key}: {diff}"


def test_ulp_comparison_rejects_a_changed_digit():
    want = "# entrogeo v0.1.0 figure1 abc123\nlambda,x\n0.5,0.30000000000000004\n"
    assert _close_text(want, want) == ""
    assert _close_text(want.replace("0.30000000000000004", "0.30000000000000027"), want)
    assert _close_text(want.replace("0.30000000000000004", "0.30000000000000007"), want) == ""
    assert _close_text(want.replace("abc123", "abc124"), want)


def test_diff_names_each_changed_number():
    old = '{\n  "v_E": 0.1,\n  "tau": 1.0\n}\n'
    new = old.replace("0.1", "0.10000000000000002")
    assert regen.diff_lines(old, new) == ['2: "v_E": 0.1 -> 0.10000000000000002 (1 ulp)']
    assert regen.diff_lines(old, old.replace("tau", "tau0")) == [
        """3: '  "tau": 1.0' -> '  "tau0": 1.0'"""]
    assert regen.ulp_distance(-0.0, 5e-324) == regen.ulp_distance(0.0, 5e-324) == 1
    assert regen.ulp_distance(-5e-324, 5e-324) == 2
