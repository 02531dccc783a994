"""CLI contract: exit codes, output format, determinism."""
import itertools
import json
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

from entrogeo import __version__
from entrogeo.efficiency import region_boundary_scale

ENTROGEO = [sys.executable, "-m", "entrogeo.cli"]


def run(*args, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        ENTROGEO + list(args), capture_output=True, text=True, env=full_env
    )


class TestExitCodes:
    def test_metrics_ok(self):
        assert run("metrics", "--scheme", "constant", "--gamma", "1").returncode == 0

    def test_missing_lambda_is_usage_error(self):
        res = run("metrics", "--scheme", "exponential")
        assert res.returncode == 2
        assert "lambda" in res.stderr

    def test_zero_gamma_is_usage_error(self):
        # 0 is a given value, not a missing one: it must not become gamma = 1
        res = run("metrics", "--scheme", "constant", "--gamma", "0")
        assert res.returncode == 2
        assert "error:" in res.stderr

    def test_negative_tau_is_usage_error(self):
        res = run("metrics", "--scheme", "constant", "--tau", "-1")
        assert res.returncode == 2

    def test_bad_range_is_usage_error(self):
        res = run("figure1", "--lambda-start", "3", "--lambda-stop", "1")
        assert res.returncode == 2

    def test_geodesic_past_validity_is_usage_error(self):
        # exponential with lam=0.5, thetadot0=0.1 is valid up to xi = 20
        res = run(
            "geodesic", "--scheme", "exponential", "--lambda", "0.5",
            "--xi-end", "25",
        )
        assert res.returncode == 2

    def test_crossover_without_sign_change_is_usage_error(self):
        res = run("crossover", "--bracket", "3", "5")
        assert res.returncode == 2

    @pytest.mark.parametrize("argv", [
        ["metrics", "--scheme", "exponential", "--lambda", "nan"],
        ["metrics", "--scheme", "exponential", "--lambda", "0.5", "--gamma", "nan"],
        ["metrics", "--scheme", "constant", "--gamma", "inf"],
        ["metrics", "--scheme", "constant", "--hbar", "inf"],
        ["geodesic", "--scheme", "exponential", "--lambda", "0.5", "--xi-end", "nan"],
        ["geodesic", "--scheme", "constant", "--xi-end", "inf"],
        ["geodesic", "--scheme", "exponential", "--lambda", "0.5", "--samples", "0"],
        ["figure1", "--theta0", "nan"],
        ["figure1", "--lambda-c", "inf"],
        ["figure2", "--thetadot0", "nan"],
        ["figure2", "--grid-theta0-max", "nan"],
        ["crossover", "--bracket", "nan", "5"],
        ["table1", "--lambda", "inf"],
    ], ids=["lambda-nan", "gamma-nan", "gamma-inf", "hbar-inf", "xi-end-nan",
            "xi-end-inf", "samples-0", "figure1-theta0-nan", "figure1-lambda-c-inf",
            "figure2-thetadot0-nan", "figure2-grid-theta0-max-nan",
            "crossover-bracket-nan", "table1-lambda-inf"])
    def test_nonfinite_or_degenerate_input_is_usage_error(self, argv):
        # a hang here used to be the failure mode, hence the timeout
        res = subprocess.run(ENTROGEO + argv, capture_output=True, text=True, timeout=60)
        assert res.returncode == 2, res.stdout + res.stderr
        assert "error:" in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("argv,option", [
        (["figure1", "--theta0", "nan"], "--theta0"),
        (["figure1", "--lambda-c", "inf"], "--lambda-c"),
        (["figure2", "--thetadot0", "nan"], "--thetadot0"),
        (["figure2", "--grid-theta0-max", "nan"], "--grid-theta0-max"),
        (["crossover", "--bracket", "nan", "5"], "--bracket"),
        (["table1", "--lambda", "inf"], "--lambda"),
    ], ids=["figure1-theta0", "figure1-lambda-c", "figure2-thetadot0",
            "figure2-grid-theta0-max", "crossover-bracket", "table1-lambda"])
    def test_nonfinite_argument_is_named(self, argv, option):
        # these used to exit 0 with rows of nan, or exit 2 naming another cause
        res = subprocess.run(ENTROGEO + argv, capture_output=True, text=True, timeout=60)
        assert res.returncode == 2, res.stdout + res.stderr
        assert res.stderr.startswith(f"error: {option} must be finite"), res.stderr
        assert res.stdout == ""

    @pytest.mark.parametrize("argv", [
        ["metrics", "--scheme", "exponential", "--lambda", "1e300"],
        ["metrics", "--scheme", "constant", "--gamma", "1e300"],
        ["metrics", "--scheme", "power_law", "--lambda", "1e200", "--gamma", "1"],
        ["table1", "--lambda", "1e300"],
        ["geodesic", "--scheme", "power_law", "--lambda", "1e300"],
    ], ids=["metrics-exponential", "metrics-constant-gamma", "metrics-power_law",
            "table1", "geodesic-power_law"])
    def test_derived_overflow_is_usage_error(self, argv):
        # finite argv whose derived quantities overflow a float; this used
        # to end in an OverflowError traceback with exit 1
        res = subprocess.run(ENTROGEO + argv, capture_output=True, text=True, timeout=60)
        assert res.returncode == 2, res.stdout + res.stderr
        assert res.stderr.startswith("error: a derived quantity left the float range")
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("argv", [
        ["figure2", "--thetadot0", "1e300"],
        ["figure1", "--tau-start=-1.7e308", "--tau-stop", "1.7e308"],
        ["figure1", "--lambda-start=-1", "--lambda-count", "5", "--tau-count", "5"],
        ["metrics", "--scheme", "constant", "--thetadot0", "1e150", "--tau", "1e200"],
    ], ids=["figure2-rate-overflow", "figure1-tau-grid-overflow", "figure1-power-law-pole",
            "metrics-json-infinity"])
    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "file"])
    def test_nonfinite_result_is_usage_error(self, argv, to_file, tmp_path):
        # finite argv whose results are not: these used to exit 0 writing
        # nan/inf CSV cells (with a numpy RuntimeWarning) or JSON Infinity
        if to_file:
            argv = argv + ["--output", str(tmp_path / "out")]
        res = subprocess.run(ENTROGEO + argv, capture_output=True, text=True, timeout=60)
        assert res.returncode == 2, res.stdout + res.stderr
        assert res.stderr.startswith("error: a derived quantity left the float range"), res.stderr
        assert "Warning" not in res.stderr
        assert res.stdout == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["geodesic", "--scheme", "oscillating", "--lambda", "0.5", "--theta0", "13"],
        ["metrics", "--scheme", "oscillating", "--lambda", "0.5", "--theta0", "13"],
    ], ids=["geodesic", "metrics"])
    def test_oscillating_launch_past_turning_point_is_usage_error(self, argv):
        res = subprocess.run(ENTROGEO + argv, capture_output=True, text=True, timeout=60)
        assert res.returncode == 2, res.stdout + res.stderr
        assert res.stderr.startswith("error:")
        assert res.stdout == ""

    # exponential at lam = 0.5, thetadot0 = 0.1 (default) is valid on [xi0, xi0 + 20)
    @pytest.mark.parametrize("window", [
        ["--xi0", "0.25", "--tau0", "0.1"],
        ["--tau", "25"],
        ["--tau0", "15", "--tau", "5"],
        ["--tau0", "20"],
        ["--tau0", "21"],
    ], ids=["tau0-before-xi0", "end-past-validity", "end-at-validity",
            "tau0-at-validity", "tau0-past-validity"])
    def test_metrics_window_outside_validity_is_usage_error(self, window):
        argv = ["metrics", "--scheme", "exponential", "--lambda", "0.5", *window]
        res = subprocess.run(ENTROGEO + argv, capture_output=True, text=True, timeout=60)
        assert res.returncode == 2, res.stdout + res.stderr
        assert res.stderr.startswith("error:")
        assert res.stdout == ""

    def test_verify_ok(self):
        assert run("verify", "--filter", "crossover").returncode == 0

    def test_verify_injected_failure(self):
        res = run("verify", "--filter", "injected", "--inject-failure")
        assert res.returncode == 1
        assert "FAIL injected" in res.stdout

    def test_verify_empty_filter_is_usage_error(self):
        assert run("verify", "--filter", "no-such-check").returncode == 2


class TestOutputs:
    def test_metrics_json_payload(self):
        res = run("metrics", "--scheme", "exponential", "--lambda", "0.5",
                  "--theta0", "1", "--thetadot0", "0.1", "--tau", "1")
        doc = json.loads(res.stdout)
        assert doc["tool"] == f"entrogeo v{__version__}"
        assert doc["command"] == "metrics"
        assert len(doc["config_hash"]) == 12
        c, ref = doc["computed"], doc["closed_form"]
        assert c["v_E"] == pytest.approx(ref["v_E"], rel=1e-9)
        assert c["igc_rate"] == pytest.approx(ref["igc_rate"], rel=1e-6)

    def test_csv_header_line(self, tmp_path):
        out = tmp_path / "f1.csv"
        run("figure1", "--lambda-count", "11", "--tau-count", "11",
            "--output", str(out))
        lines = out.read_text().splitlines()
        assert lines[0].startswith(f"# entrogeo v{__version__} figure1 ")
        header = next(l for l in lines if not l.startswith("#"))
        assert header.split(",")[0] == "lambda"
        # 11 rows follow the header
        assert len([l for l in lines if not l.startswith("#")]) == 12

    def test_config_hash_tracks_config(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("figure1", "--lambda-count", "11", "--tau-count", "11", "--output", str(a))
        run("figure1", "--lambda-count", "21", "--tau-count", "21", "--output", str(b))
        hash_a = a.read_text().splitlines()[0].split()[-1]
        hash_b = b.read_text().splitlines()[0].split()[-1]
        assert hash_a != hash_b

    def test_hash_independent_of_output_path(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "other-name.csv"
        run("figure1", "--lambda-count", "11", "--tau-count", "11", "--output", str(a))
        run("figure1", "--lambda-count", "11", "--tau-count", "11", "--output", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_geodesic_columns_agree(self, tmp_path):
        out = tmp_path / "geo.csv"
        run("geodesic", "--scheme", "power_law", "--lambda", "0.5",
            "--xi-end", "1", "--output", str(out))
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        for row in rows:
            xi, closed, _, christoffel, divergence = map(float, row.split(","))
            assert abs(christoffel - closed) <= 1e-6
            assert abs(divergence - closed) <= 1e-6

    def test_table1_entries(self):
        res = run("table1", "--lambda", "18")
        doc = json.loads(res.stdout)
        assert doc["table_conformance"] is True
        assert [e["scheme"] for e in doc["entries"]] == [
            "constant", "oscillating", "power_law", "exponential"
        ]
        for e in doc["entries"]:
            assert e["igc_slope"] > 0

    # every sign combination of the grid maxima, 0 included, and products
    # past the float range (inf, so the flag is 1)
    @pytest.mark.parametrize("theta0_max,lambda_max", [
        *itertools.product(["-4", "0", "4"], ["-6", "0", "6"]),
        ("1e200", "1e200"), ("-1e200", "1e200"),
    ])
    def test_region_flags_match_predicate(self, theta0_max, lambda_max):
        n = 7
        argv = ["figure2", "--lambda-count", "3", "--grid-count", str(n),
                f"--grid-theta0-max={theta0_max}", f"--grid-lambda-max={lambda_max}"]
        res = subprocess.run(ENTROGEO + argv, capture_output=True, text=True, timeout=60)
        assert res.returncode == 0, res.stderr
        assert res.stderr == ""
        lines = res.stdout.splitlines()
        rows = [l.split(",") for l in lines[lines.index("theta0,lambda,exp_cooler") + 1:]]
        theta0s = np.linspace(float(theta0_max) / n, float(theta0_max), n).tolist()
        lams = np.linspace(float(lambda_max) / n, float(lambda_max), n).tolist()
        assert [(float(th), float(lam)) for th, lam, _ in rows] == [
            (th, lam) for th in theta0s for lam in lams]
        u_star = region_boundary_scale()
        for th, lam, flag in rows:
            assert flag == ("1" if float(lam) * float(th) >= u_star else "0"), (th, lam)

    def test_crossover_values(self):
        doc = json.loads(run("crossover").stdout)
        assert abs(doc["lambda_star"] - 2.51) <= 0.01
        assert abs(doc["boundary_residual"]) <= 1e-8


class TestDeterminismAndThreads:
    def test_region_grid_is_deterministic(self, tmp_path):
        outs = []
        for i in range(2):
            out = tmp_path / f"f2_{i}.csv"
            run("figure2", "--lambda-count", "11", "--grid-count", "13",
                "--output", str(out))
            region = tmp_path / f"f2_{i}_region.csv"
            outs.append(out.read_bytes() + region.read_bytes())
        assert outs[0] == outs[1]

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        out = tmp_path / "f1.csv"
        run("figure1", "--lambda-count", "11", "--tau-count", "11",
            "--output", str(out))
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".entrogeo-")]
        assert leftovers == []
        assert out.exists()

    def test_written_files_follow_umask(self, tmp_path):
        out = tmp_path / "f2.csv"
        subprocess.run(
            ENTROGEO + ["figure2", "--lambda-count", "11", "--grid-count", "5",
                        "--output", str(out)],
            capture_output=True, umask=0o022, check=True,
        )
        for path in (out, tmp_path / "f2_region.csv"):
            assert stat.S_IMODE(path.stat().st_mode) == 0o644, path.name

    def test_version_flag(self):
        res = run("--version")
        assert res.returncode == 0
        assert __version__ in res.stdout
