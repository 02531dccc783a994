"""Cold start: no subcommand loads scipy, nor the sympy/mpmath test
oracles: ``metrics`` is closed form, ``geodesic`` and ``crossover`` run the
package's own RK45 and brentq, and ``verify`` its own quadrature.  Only the
subcommands that build arrays (``geodesic``, ``figure1``, ``figure2`` and
``verify``) load numpy; the scalar ones and argv refused before any array
is built start without it.

Each case runs in a fresh interpreter, since a module stays in
``sys.modules`` once any test in this process has imported it.
"""
import subprocess
import sys

import pytest

_CLI_CASE = """
import contextlib, io, sys
from entrogeo import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        rc = cli.main({argv!r})
    except SystemExit as exc:  # argparse's --version action exits
        rc = exc.code
assert rc == {rc}, rc
"""

CASES = {
    "import entrogeo": "import entrogeo",
    "import entrogeo.cli": "import entrogeo.cli",
    "--version": _CLI_CASE.format(argv=["--version"], rc=0),
    "figure1": _CLI_CASE.format(
        argv=["figure1", "--lambda-count", "11", "--tau-count", "11"], rc=0),
    "figure2": _CLI_CASE.format(
        argv=["figure2", "--lambda-count", "11", "--grid-count", "5"], rc=0),
    "table1": _CLI_CASE.format(argv=["table1", "--lambda", "18"], rc=0),
    **{
        f"metrics {kind}": _CLI_CASE.format(
            argv=["metrics", "--scheme", kind]
            + ([] if kind == "constant" else ["--lambda", "0.5"]), rc=0)
        for kind in ("constant", "oscillating", "power_law", "exponential")
    },
    "metrics shifted window": _CLI_CASE.format(
        argv=["metrics", "--scheme", "oscillating", "--lambda", "1.2", "--theta0", "0.8",
              "--thetadot0", "0.05", "--tau", "3", "--xi0", "0.25", "--tau0", "0.5"],
        rc=0),
    **{
        f"geodesic {kind}": _CLI_CASE.format(
            argv=["geodesic", "--scheme", kind]
            + ([] if kind == "constant" else ["--lambda", "0.5"]), rc=0)
        for kind in ("constant", "oscillating", "power_law", "exponential")
    },
    "crossover": _CLI_CASE.format(argv=["crossover"], rc=0),
    "verify": _CLI_CASE.format(argv=["verify"], rc=0),
    "domain error": _CLI_CASE.format(
        argv=["metrics", "--scheme", "power_law", "--lambda", "-1"], rc=2),
}


HEAVY = ("scipy", "sympy", "mpmath")


@pytest.mark.parametrize("code", CASES.values(), ids=CASES.keys())
def test_scipy_not_loaded(code):
    probe = code + f"\nimport sys\nprint([m for m in {HEAVY!r} if m in sys.modules])\n"
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


NUMPY_FREE = {
    **{name: CASES[name] for name in (
        "import entrogeo", "import entrogeo.cli", "--version", "table1", "crossover",
        "metrics constant", "metrics oscillating", "metrics power_law", "metrics exponential",
        "metrics shifted window", "domain error")},
    # lam * theta0 = 3 is past the oscillating turning point
    "geodesic domain error": _CLI_CASE.format(
        argv=["geodesic", "--scheme", "oscillating", "--lambda", "1", "--theta0", "3"], rc=2),
    "figure1 domain error": _CLI_CASE.format(
        argv=["figure1", "--lambda-count", "1", "--tau-count", "1"], rc=2),
}


@pytest.mark.parametrize("code", NUMPY_FREE.values(), ids=NUMPY_FREE.keys())
def test_numpy_not_loaded(code):
    probe = code + "\nimport sys\nprint('numpy' in sys.modules)\n"
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def test_verify_runs_without_scipy():
    # None in sys.modules makes any import of scipy raise ImportError
    probe = 'import sys\nsys.modules["scipy"] = None\n' + CASES["verify"]
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
