"""CLI contract: exit codes, output format, determinism."""
import argparse
import ast
import io
import itertools
import json
import math
import os
import re
import stat
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrogeo import DrivingScheme, SchemeKind, __version__, cli, efficiency, eta_sym, verify
from entrogeo.efficiency import region_boundary_scale
from entrogeo.pathmetrics import launch_speed_and_rate

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

    @pytest.mark.parametrize("argv,message", [
        (["figure1", "--lambda-start", "3", "--lambda-stop", "1"],
         "lambda range needs count >= 2 and stop > start"),
        (["figure1", "--tau-start", "3", "--tau-stop", "1"],
         "tau range needs count >= 2 and stop > start"),
        (["figure1", "--lambda-count", "5", "--tau-count", "6"],
         "lambda and tau grids must have equal counts"),
        (["figure2", "--grid-count", "1"], "grid-count must be >= 2"),
        (["figure2", "--lambda-count", "1"], "lambda range needs count >= 2 and stop > start"),
        (["geodesic", "--scheme", "exponential"], "--lambda > 0 required for this scheme"),
        (["metrics", "--scheme", "power_law", "--lambda", "0"],
         "--lambda > 0 required for this scheme"),
    ], ids=["lambda-range", "tau-range", "grid-counts", "grid-count", "figure2-lambda-range",
            "geodesic-lambda", "metrics-lambda"])
    def test_argument_rule_message(self, argv, message, capsys):
        assert _main_outcome(argv, capsys) == (2, "", f"error: {message}\n")

    def test_unexpected_exception_is_internal_error(self, monkeypatch, capsys):
        # an exception no handler names is a defect, not a verification
        # failure (exit 1): one stderr line, no traceback
        def broken(*args):
            raise KeyError("rank")

        monkeypatch.setattr(efficiency, "rank_schemes", broken)
        assert _main_outcome(["table1"], capsys) == (4, "", "internal error: KeyError: 'rank'\n")

    @pytest.mark.parametrize("target,text", [
        ("missing/x.json", "No such file or directory"),
        ("directory", "Is a directory"),
    ], ids=["missing-directory", "directory"])
    def test_unwritable_output_is_usage_error(self, target, text, tmp_path, capsys):
        # one stderr line that names the user's path, not the temp file
        (tmp_path / "directory").mkdir()
        path = str(tmp_path / target)
        argv = ["metrics", "--scheme", "constant", "--output", path]
        assert _main_outcome(argv, capsys) == (2, "", f"error: cannot write {path}: {text}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["directory"]
        assert list((tmp_path / "directory").iterdir()) == []

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
        ["geodesic", "--scheme", "constant", "--thetadot0", "1e308", "--xi-end", "2",
         "--samples", "3"],
        ["metrics", "--scheme", "power_law", "--lambda", "1e-300", "--thetadot0", "1e-30"],
        ["geodesic", "--scheme", "exponential", "--lambda", "1e-300", "--thetadot0", "1e-30"],
        ["crossover", "--bracket", "-1", "5"],
        ["geodesic", "--scheme", "power_law", "--lambda", "1e308", "--samples", "3"],
        ["geodesic", "--scheme", "constant", "--thetadot0", "1e300", "--xi-end", "1e300",
         "--samples", "3"],
        ["crossover", "--scheme-a", "oscillating", "--bracket", "1", "1e308", "--theta0", "20"],
        ["crossover", "--scheme-a", "power_law", "--scheme-b", "exponential",
         "--bracket", "1", "1e308", "--theta0", "20"],
        ["metrics", "--scheme", "constant", "--gamma", "1e-300", "--thetadot0", "1"],
        ["metrics", "--scheme", "constant", "--gamma", "1e-155", "--thetadot0", "1"],
    ], ids=["metrics-exponential", "metrics-constant-gamma", "metrics-power_law",
            "table1", "geodesic-power_law", "geodesic-divergence-state",
            "metrics-validity-end-underflow", "geodesic-validity-end-underflow",
            "crossover-power-law-pole", "geodesic-nan-metric", "geodesic-theta-overflow",
            "crossover-oscillating-u-overflow", "crossover-u-overflow",
            "metrics-launch-g-zero", "metrics-launch-g-subnormal"])
    def test_derived_overflow_is_usage_error(self, argv):
        # finite argv whose derived quantities leave the float range: an
        # overflow, an underflowed divisor (lam * thetadot0 = 0 in the
        # validity end), a pole ((1 + u)^-4 at u = -1) or a launch-point
        # g = (2 gamma)^2 below the smallest normal float; these used to
        # end in a traceback with exit 1.  Two geodesics never returned:
        # at lam = 1e308, g0 = inf times an underflowed m(u) = 0 is a NaN
        # metric; past an overflowed theta the solver kept stepping
        res = subprocess.run(ENTROGEO + argv, capture_output=True, text=True, timeout=60)
        assert res.returncode == 2, res.stdout + res.stderr
        assert res.stderr.startswith("error: a derived quantity left the float range")
        assert "Traceback" not in res.stderr

    def test_theta_overflow_names_no_sign(self):
        # theta rises from theta0 = 1, but RK45's stage weight -56/15 times
        # theta' = 1e308 overflows to -inf, so the message names no sign
        res = run("geodesic", "--scheme", "constant", "--thetadot0", "1e308", "--xi-end", "3")
        assert res.returncode == 2, res.stdout + res.stderr
        assert res.stderr == ("error: a derived quantity left the float range "
                              "(theta overflowed along the geodesic)\n")
        assert res.stdout == ""

    @pytest.mark.parametrize("argv,gamma", [
        (["metrics", "--scheme", "constant", "--gamma", "1e308", "--thetadot0", "1e-300"],
         "1e+308"),
        (["metrics", "--scheme", "power_law", "--lambda", "1e308", "--tau", "1e-160",
          "--tau0", "5e-324"], "1.5707963267948966e+308"),
    ], ids=["constant-gamma", "power_law-resonant-gamma"])
    def test_overflowed_metric_scale_is_named(self, argv, gamma):
        # 2 gamma/hbar = inf, and inf ** 2 does not raise: these exited 2
        # only because the JSON writer refused a NaN or inf result
        res = run(*argv)
        assert res.returncode == 2, res.stdout + res.stderr
        assert res.stderr == ("error: a derived quantity left the float range (g0 = "
                              f"(2*gamma/hbar)^2 is not finite at gamma = {gamma}, hbar = 1.0)\n")
        assert res.stdout == ""

    @pytest.mark.parametrize("argv", [
        ["figure2", "--thetadot0", "1e300"],
        ["figure1", "--tau-start=-1.7e308", "--tau-stop", "1.7e308"],
        ["figure1", "--lambda-start=-1", "--lambda-count", "5", "--tau-count", "5"],
        ["metrics", "--scheme", "constant", "--thetadot0", "1e150", "--tau", "1e200"],
        ["geodesic", "--scheme", "constant", "--thetadot0", "20", "--xi-end", "1e308",
         "--samples", "3"],
    ], ids=["figure2-rate-overflow", "figure1-tau-grid-overflow", "figure1-power-law-pole",
            "metrics-json-infinity", "geodesic-theta-overflow"])
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

    @pytest.mark.parametrize("kind", ["constant", "oscillating", "power_law", "exponential"])
    @pytest.mark.parametrize("span", [["--xi-end", "0"], ["--xi0", "0.5", "--xi-end", "0.5"]],
                             ids=["xi-end-0", "xi-end-at-xi0"])
    def test_empty_integration_span_is_usage_error(self, kind, span):
        # solve_ivp returns no samples for a zero-length span; this used to
        # end in an IndexError traceback with exit 1
        lam = [] if kind == "constant" else ["--lambda", "0.5"]
        argv = ["geodesic", "--scheme", kind, *lam, *span]
        res = subprocess.run(ENTROGEO + argv, capture_output=True, text=True, timeout=60)
        assert res.returncode == 2, res.stdout + res.stderr
        assert res.stderr.startswith("error:"), res.stderr
        assert "Traceback" not in res.stderr
        assert res.stdout == ""

    def test_huge_launch_speed_geodesic_is_quiet(self):
        # the rows are finite, but the solver's first-step estimate overflows;
        # its RuntimeWarnings used to reach stderr
        argv = ["geodesic", "--scheme", "constant", "--thetadot0", "1e300", "--samples", "3"]
        res = subprocess.run(ENTROGEO + argv, capture_output=True, text=True, timeout=60)
        assert res.returncode == 0, res.stdout + res.stderr
        assert res.stderr == ""

    def test_small_lambda_geodesic_is_integrated(self):
        # g = (pi lambda)^2 m(u) is ~1e-13 here, but the metric is as regular
        # as at lambda = 0.5; an absolute floor on g used to refuse it (exit 3)
        argv = ["geodesic", "--scheme", "exponential", "--lambda", "1e-7", "--samples", "21"]
        res = subprocess.run(ENTROGEO + argv, capture_output=True, text=True, timeout=60)
        assert res.returncode == 0, res.stderr
        assert res.stderr == ""
        rows = [l for l in res.stdout.splitlines() if not l.startswith("#")][1:]
        assert len(rows) == 21
        for row in rows:
            _, closed, _, christoffel, divergence = map(float, row.split(","))
            assert abs(christoffel - closed) <= 1e-6
            assert abs(divergence - closed) <= 1e-6

    def test_underflowed_metric_is_numerical_failure(self):
        # g0 = (pi * 1e-300)^2 underflows to 0: no floor relative to g(theta0)
        # can accept it, and the run ends in a typed failure
        argv = ["geodesic", "--scheme", "exponential", "--lambda", "1e-300"]
        res = subprocess.run(ENTROGEO + argv, capture_output=True, text=True, timeout=60)
        assert res.returncode == 3, res.stdout + res.stderr
        assert res.stderr.startswith("numerical failure:"), res.stderr
        assert "Traceback" not in res.stderr
        assert res.stdout == ""

    def test_samples_above_cap_is_usage_error(self, capsys):
        # refused before the scheme is built or any grid is allocated
        n = cli._MAX_SAMPLES + 1
        argv = ["geodesic", "--scheme", "constant", "--samples", str(n)]
        assert _main_outcome(argv, capsys) == (
            2, "", f"error: --samples={n} is above the cap of {cli._MAX_SAMPLES}\n")

    def test_verify_ok(self):
        assert run("verify", "--filter", "crossover").returncode == 0

    def test_verify_injected_failure(self, monkeypatch, capsys):
        def breach():
            raise AssertionError("tolerance breach")

        def crash():
            raise ValueError("bad value")

        monkeypatch.setitem(verify.CHECKS, "injected-breach", breach)
        monkeypatch.setitem(verify.CHECKS, "injected-error", crash)
        assert cli.main(["verify", "--filter", "injected"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            "FAIL injected-breach: tolerance breach",
            "FAIL injected-error: ValueError: bad value",
            "0/2 invariants passed",
        ]

    def test_verify_empty_filter_is_usage_error(self):
        assert run("verify", "--filter", "no-such-check").returncode == 2


# Every float option of every subcommand (--bracket has its own test), with
# a base argv that runs fast.
_FLOAT_OPTIONS = {
    ("metrics", "--scheme", "exponential", "--lambda", "0.5"): [
        "--gamma", "--lambda", "--hbar", "--theta0", "--thetadot0", "--xi0", "--tau", "--tau0"],
    ("geodesic", "--scheme", "exponential", "--lambda", "0.5", "--samples", "3"): [
        "--gamma", "--lambda", "--hbar", "--theta0", "--thetadot0", "--xi0", "--xi-end"],
    ("figure1", "--lambda-count", "3", "--tau-count", "3"): [
        "--theta0", "--lambda-start", "--lambda-stop", "--tau-start", "--tau-stop", "--lambda-c"],
    ("figure2", "--lambda-count", "3", "--grid-count", "3"): [
        "--theta0", "--thetadot0", "--lambda-start", "--lambda-stop",
        "--grid-theta0-max", "--grid-lambda-max"],
    ("table1",): ["--lambda", "--theta0", "--thetadot0", "--hbar"],
    ("crossover",): ["--theta0"],
}


def _main_outcome(argv, capsys):
    try:
        rc = cli.main(argv)
    except SystemExit as exc:  # argparse errors
        rc = exc.code
    out, err = capsys.readouterr()
    return rc, out, err


class TestCrossoverBracket:
    # a bracket of width 1e50 needs ~200 halvings; scipy's default cap of
    # 100 iterations ended these in a RuntimeError traceback with exit 1
    @pytest.mark.parametrize("argv,lam_star", [
        (["crossover", "--bracket", "1", "1e50"], 2.5128624172523395),
        (["crossover", "--bracket", "1", "1e80"], 2.5128624172603082),
        (["crossover", "--scheme-a=constant", "--scheme-b=exponential",
          "--bracket", "-1", "1e300"], 0.0),
    ], ids=["wide", "power-law-subnormal-end", "root-at-zero"])
    def test_wide_bracket_converges(self, argv, lam_star, capsys):
        rc, out, err = _main_outcome(argv, capsys)
        assert (rc, err) == (0, "")
        assert abs(json.loads(out)["lambda_star"] - lam_star) <= 1e-9

    # both metric factors underflow to 0 at the upper end, where their
    # difference is exactly 0 and the root finder took that end for the root
    @pytest.mark.parametrize("bracket", [["1", "1e300"], ["0.5", "1e81"]])
    def test_underflowed_bracket_end_is_refused(self, bracket, capsys):
        rc, out, err = _main_outcome(["crossover", "--bracket", *bracket], capsys)
        assert (rc, out) == (2, "")
        assert err.startswith(f"error: both rates underflow to 0 at lambda={float(bracket[1])}")
        assert "narrower bracket" in err

    def test_unconverged_root_is_numerical_failure(self, monkeypatch, capsys):
        monkeypatch.setattr(efficiency, "_BRENT_MAXITER", 5)
        rc, out, err = _main_outcome(["crossover", "--bracket", "1", "1e50"], capsys)
        assert rc == 3 and out == ""
        assert err.startswith("numerical failure: no crossover within 5 iterations"), err


class TestNegativeExponentFloats:
    """argparse's negative-number pattern has no exponent, so it read a
    separate word such as -1e-3 as an option: `figure1 --tau-start -1e-3`
    exited 2 with "expected one argument"."""

    @pytest.mark.parametrize("base,option", [
        (base, option) for base, options in _FLOAT_OPTIONS.items() for option in options
    ], ids=lambda v: v if isinstance(v, str) else v[0])
    def test_separate_word_equals_joined_form(self, base, option, capsys):
        joined = _main_outcome([*base, f"{option}=-1e-3"], capsys)
        separate = _main_outcome([*base, option, "-1e-3"], capsys)
        assert separate == joined
        assert "expected one argument" not in joined[2]

    @pytest.mark.parametrize("option", ["--tau-sta", "--lambda-sto", "--lambda-c"])
    def test_abbreviated_option(self, option, capsys):
        base = ["figure1", "--lambda-count", "3", "--tau-count", "3"]
        joined = _main_outcome([*base, f"{option}=-1e-3"], capsys)
        separate = _main_outcome([*base, option, "-1e-3"], capsys)
        assert separate == joined

    # --bracket takes two words, so it has no joined form; its plain
    # decimal form -0.001 is read as a value already
    @pytest.mark.parametrize("pair", [("-1e-3", "5"), ("1", "-1e-3")],
                             ids=["first", "second"])
    def test_bracket_values(self, pair, capsys):
        decimal = _main_outcome(
            ["crossover", "--bracket", *(v.replace("-1e-3", "-0.001") for v in pair)], capsys)
        exponent = _main_outcome(["crossover", "--bracket", *pair], capsys)
        assert exponent == decimal
        assert "expected 2 arguments" not in decimal[2]


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


def _csv_table(text, header_start):
    """Header and float rows of the CSV document whose header starts with
    ``header_start``; .17g cells read back to the exact doubles."""
    lines = text.splitlines()
    i = next(j for j, line in enumerate(lines) if line.startswith(header_start))
    rows = []
    for line in lines[i + 1:]:
        if line.startswith("#"):
            break
        rows.append([float(x) for x in line.split(",")])
    return lines[i].split(","), rows


class TestColumnsFromLibrary:
    """Each printed rate and efficiency is the library's value."""

    # exp(-2 u) underflows to 0 past u ~ 372, where eta of 0 against 0 is 1
    @pytest.mark.parametrize("argv", [
        ["figure1"],
        ["figure1", "--lambda-stop", "400", "--lambda-count", "401", "--tau-count", "401"],
    ], ids=["defaults", "underflow"])
    def test_figure1_eta_is_eta_sym_of_rtilde(self, argv, capsys):
        assert cli.main(argv) == 0
        header, rows = _csv_table(capsys.readouterr().out, "lambda,")
        kinds = [h[len("rtilde_"):] for h in header if h.startswith("rtilde_")]
        for row in rows:
            cell = dict(zip(header, row))
            r_min = min(cell[f"rtilde_{k}"] for k in kinds)
            for k in kinds:
                assert cell[f"eta_{k}"] == eta_sym(cell[f"rtilde_{k}"], r_min), (k, row)

    # math's and numpy's kernels round some inputs differently; the worst
    # distance measured over these 14,424 cells is 3 ulp
    MAX_ULPS = 4

    @pytest.mark.parametrize("theta0", ["1", "0.8", "1.7"])
    @pytest.mark.parametrize("thetadot0", ["0.1", "0.37", "2.5", "7"])
    def test_figure2_rates_are_entropy_rate_of_scheme(self, theta0, thetadot0, capsys):
        argv = ["figure2", "--theta0", theta0, "--thetadot0", thetadot0,
                "--lambda-start", "0.01", "--grid-count", "2"]
        assert cli.main(argv) == 0
        header, rows = _csv_table(capsys.readouterr().out, "lambda,re_exponential")
        assert len(rows) == 601
        for lam, re_exp, re_pow, *_ in rows:
            for kind, got in ((SchemeKind.EXPONENTIAL, re_exp), (SchemeKind.POWER_LAW, re_pow)):
                want = launch_speed_and_rate(
                    DrivingScheme.resonant(kind, lam), float(theta0), float(thetadot0)).r_E
                assert abs(got - want) <= self.MAX_ULPS * math.ulp(want), (kind, lam)

    # the exponential kind at lambda = 0.5, thetadot0 = 0.1 is one point where
    # two formulas for r_E once differed by 1 ulp
    @pytest.mark.parametrize("lam,theta0,thetadot0", [
        ("0.5", "1", "0.1"), ("1.2", "0.8", "0.05"), ("0.3", "0.4", "2.5"), ("2", "0.5", "7"),
    ])
    def test_table1_and_metrics_agree_bit_for_bit(self, lam, theta0, thetadot0, capsys):
        point = ["--lambda", lam, "--theta0", theta0, "--thetadot0", thetadot0]
        assert cli.main(["table1", *point]) == 0
        table = {e["scheme"]: e for e in json.loads(capsys.readouterr().out)["entries"]}
        for scheme in table:
            # table1's constant scheme has the resonant gamma, as an omitted
            # gamma gives the other kinds
            gamma = repr(DrivingScheme.resonant(SchemeKind(scheme), float(lam)).gamma)
            argv = ["metrics", "--scheme", scheme, "--gamma", gamma, *point, "--tau", "0.01"]
            assert cli.main(argv) == 0
            computed = json.loads(capsys.readouterr().out)["computed"]
            assert table[scheme]["r_E"] == computed["r_E"], scheme
            assert table[scheme]["igc_slope"] == computed["igc_rate"], scheme

    def test_cli_computes_no_formula(self):
        # the emitters format what the library computes: no per-kind table
        # and no elementary function of math or numpy in cli.py
        banned = {"exp", "expm1", "log", "log1p", "sqrt", "sin", "cos", "pi"}
        tree = ast.parse(Path(cli.__file__).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                assert node.id != "PROFILES", node.lineno
            elif isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
                assert "PROFILES" not in names, node.lineno
                if node.module in ("math", "numpy"):
                    assert not names & banned, node.lineno
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in ("math", "np", "numpy"):
                    assert node.attr not in banned, (node.lineno, node.attr)
        # metrics and table1 print the library's launch-point routes as they are
        for fn in tree.body:
            if isinstance(fn, ast.FunctionDef) and fn.name in ("cmd_metrics", "cmd_table1"):
                for node in ast.walk(fn):
                    assert not isinstance(node, (ast.BinOp, ast.UnaryOp)), (fn.name, node.lineno)


    def test_main_reads_no_subcommand_argument(self):
        # main() parses, checks finiteness, dispatches and maps errors; each
        # subcommand checks the arguments it uses
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        options = {"command"} | {a.dest for p in sub.choices.values() for a in p._actions}
        assert {"scheme", "lam", "grid_count"} <= options
        tree = ast.parse(Path(cli.__file__).read_text())
        main = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
        read = set()
        for node in ast.walk(main):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "args":
                read.add(node.attr)
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr":
                read.add(getattr(node.args[1], "value", None))
        assert not read & options, sorted(read & options)


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


# floats at and past every edge of the domain: non-finite, signed zero,
# subnormal, tiny, ordinary, resonant and huge
EDGE_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 5e-324, 1e-300, 1e-30,
               1e-8, 0.5, 0.5 * math.pi, 3.0, 20.0, 1e300, 1e308]
KINDS = [k.value for k in SchemeKind]


@st.composite
def fuzz_argv(draw):
    # argparse keeps the last value of a repeated option, so the drawn
    # ones override the base argv's
    base, floats = draw(st.sampled_from(sorted(_FLOAT_OPTIONS.items())))
    values = draw(st.dictionaries(st.sampled_from(floats), st.sampled_from(EDGE_FLOATS)))
    argv = [*base, *(f"{name}={x!r}" for name, x in values.items())]
    if "--scheme" in base:
        argv.append(f"--scheme={draw(st.sampled_from(KINDS))}")
    if base[0] == "crossover":
        argv += [f"--scheme-a={draw(st.sampled_from(KINDS))}",
                 f"--scheme-b={draw(st.sampled_from(KINDS))}"]
        if draw(st.booleans()):
            argv += ["--bracket", *(repr(draw(st.sampled_from(EDGE_FLOATS))) for _ in "ab")]
    return argv


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv=fuzz_argv())
def test_every_argv_ends_in_a_documented_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse refusing the argv
            assert exc.code == 2, argv
            return
    assert rc in (0, 2, 3), (argv, rc, err.getvalue())
    lines = err.getvalue().splitlines()
    if rc == 0:
        assert lines == [], (argv, lines)
    else:
        assert len(lines) == 1 and lines[0].startswith(("error:", "numerical failure:")), (
            argv, lines)
    assert not re.search(r"(?i)\bnan\b|\binf", out.getvalue()), argv


# Edge floats from EDGE_FLOATS in the options of the two subcommands that
# run an iterative solver, each in a child with a timeout: a hang is the
# failure the in-process property cannot see.
_HANG_ARGV = [
    ["geodesic", "--scheme", "power_law", "--lambda", "1e308"],
    ["geodesic", "--scheme", "constant", "--thetadot0", "1e300", "--xi-end", "1e300"],
    ["geodesic", "--scheme", "constant", "--thetadot0", "1e-300", "--xi-end", "1e300"],
    ["geodesic", "--scheme", "constant", "--thetadot0", "1e308", "--xi-end", "3"],
    ["geodesic", "--scheme", "exponential", "--lambda", "1e-300"],
    ["geodesic", "--scheme", "oscillating", "--lambda", "1e300", "--xi-end", "1e-300"],
    ["geodesic", "--scheme", "power_law", "--lambda", "0.5", "--thetadot0", "1e300",
     "--xi-end", "1e-300", "--samples", "2"],
    ["geodesic", "--scheme", "exponential", "--lambda", "0.5", "--xi-end", "nan"],
    ["geodesic", "--scheme", "constant", "--xi-end", "1e308", "--samples", "0"],
    ["crossover", "--bracket", "0", "1e308"],
    ["crossover", "--scheme-a", "oscillating", "--scheme-b", "constant",
     "--bracket", "1e-300", "1e308"],
    ["crossover", "--scheme-a", "exponential", "--scheme-b", "constant",
     "--bracket", "-1e300", "1e-300"],
    ["crossover", "--bracket", "-inf", "5"],
]


@pytest.mark.parametrize("argv", _HANG_ARGV, ids=" ".join)
def test_solver_argv_ends_in_time(argv):
    res = subprocess.run(ENTROGEO + argv, capture_output=True, text=True, timeout=60)
    assert res.returncode in (0, 2, 3), (res.returncode, res.stderr)
    assert "Traceback" not in res.stderr
    assert "Warning" not in res.stderr
