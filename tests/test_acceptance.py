"""Acceptance suite.

Each acceptance criterion is written once, as a named check in
``entrogeo.verify.CHECKS``: the geodesic and Fisher oracles, the
constant-speed / minimum-entropy equality, Cauchy-Schwarz strictness,
dual-route rates, the pi^2 worked example, the crossover, the slope law,
scheme ranking, efficiency monotonicity, amplitude unitarity and the
ensemble entropy curve.  ``test_check`` runs every one in process, the
same code ``entrogeo verify`` runs.

The tests after it hold what no check covers: speed constancy along the
closed-form geodesic, the figure-2 ratios as emitted, the table-1 order
at lambda = 18, dC/dv = 1/2 across launch speeds, and CLI determinism.
"""
import json
import subprocess
import sys

import numpy as np
import pytest

from entrogeo import (
    DrivingScheme,
    ParamTrajectory,
    SchemeKind,
    cli,
    entropic_speed,
    fisher_closed_form,
    geodesic_closed_form,
    igc,
)
from entrogeo.pathmetrics import launch_speed_and_rate
from entrogeo.schemes import standard_schemes
from entrogeo.verify import CHECKS


@pytest.mark.parametrize("name", list(CHECKS))
def test_check(name):
    CHECKS[name]()


def test_03_constant_speed_minimum_entropy():
    """v_E is constant to 1e-7 along the closed-form geodesic (101 points).

    I = L^2/tau is `geodesic-equality`, r = v^2 is `rate-routes`, and the
    numeric geodesic's speed is `speed-constancy`.
    """
    for scheme in standard_schemes():
        metric = fisher_closed_form(scheme)
        geo = geodesic_closed_form(scheme, 0.0, 1.0, 0.1)
        tau = min(1.0, 0.4 * (geo.validity_end - geo.xi0))
        traj = ParamTrajectory.from_geodesic(geo, (0.0, tau))
        v = np.array([entropic_speed(metric, traj, x) for x in np.linspace(0.0, tau, 101)])
        assert np.std(v) / np.mean(v) <= 1e-7, f"{scheme.kind.value}: speed drift"


def test_09_figure_ratios(tmp_path):
    """figure2's CSV: R_r = R_C^2 to 1e-10; R_C(0.5) = e^{-1/2} * 2.25 to 1e-10."""
    out = tmp_path / "f2.csv"
    assert cli.main(["figure2", "--grid-count", "2", "--output", str(out)]) == 0
    lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    table = np.array([line.split(",") for line in lines[1:]], dtype=float)
    cols = dict(zip(lines[0].split(","), table.T))
    assert np.max(np.abs(cols["ratio_rate"] - cols["ratio_igc"] ** 2)) <= 1e-10
    row = np.argmin(np.abs(cols["lambda"] - 0.5))
    assert abs(cols["lambda"][row] - 0.5) <= 1e-12
    assert abs(cols["ratio_igc"][row] - 1.3646939843534251) <= 1e-10  # frozen oracle value


def test_10_ranking(capsys):
    """lambda = 18 orders the rates strictly; table1 conforms at 18, not at 0.5.

    Order preservation over random rates is `ranking-agreement`.
    """
    rates = {s.kind: launch_speed_and_rate(s, 1.0, 1.0).r_E for s in standard_schemes(lam=18.0)}
    assert (
        rates[SchemeKind.EXPONENTIAL]
        < rates[SchemeKind.POWER_LAW]
        < rates[SchemeKind.CONSTANT]
    )
    for lam, conforms in ((18.0, True), (0.5, False)):
        assert cli.main(["table1", "--lambda", str(lam)]) == 0
        assert json.loads(capsys.readouterr().out)["table_conformance"] is conforms


def test_11_efficiency_monotonicity():
    """dC/dtau = v_E / 2 to 1e-6 across launch speeds, so dC/dv_E = 1/2 >= 0.

    eta_sym(r_min, v^2) non-increasing in v is `efficiency-monotonicity`.
    """
    scheme = DrivingScheme(kind=SchemeKind.EXPONENTIAL, gamma=1.0, lam=0.5, hbar=1.0)
    metric = fisher_closed_form(scheme)
    for thd0 in (0.05, 0.1, 0.2):
        geo = geodesic_closed_form(scheme, 0.0, 1.0, thd0)
        tau = 0.4 * (geo.validity_end - geo.xi0)
        _, rate = igc(metric, geo, tau)
        v0 = entropic_speed(metric, ParamTrajectory.from_geodesic(geo, (0.0, tau)), 0.0)
        assert abs(rate / v0 - 0.5) <= 1e-6, f"thetadot0={thd0}"


def test_14_cli_determinism(tmp_path):
    """Repeated figure runs are bit-identical."""
    def run(cmd, out):
        subprocess.run(
            [sys.executable, "-m", "entrogeo.cli", *cmd, "--output", str(out)],
            check=True, capture_output=True,
        )
        return out.read_bytes()

    f1a = run(["figure1", "--lambda-count", "31", "--tau-count", "31"], tmp_path / "a1.csv")
    f1b = run(["figure1", "--lambda-count", "31", "--tau-count", "31"], tmp_path / "b1.csv")
    assert f1a == f1b
    f2a = run(["figure2", "--lambda-count", "31", "--grid-count", "21"], tmp_path / "a2.csv")
    f2b = run(["figure2", "--lambda-count", "31", "--grid-count", "21"], tmp_path / "b2.csv")
    assert f2a == f2b
    assert (tmp_path / "a2_region.csv").read_bytes() == (tmp_path / "b2_region.csv").read_bytes()
