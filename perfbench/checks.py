"""Output checks for the benchmark, each against a route independent of
the code path that produced the output.

Every check raises CheckFailed with a one-line reason; the loop counts
that op as failed.
"""
from __future__ import annotations

import json
import math
import re

import numpy as np

STAMP = re.compile(r"^# entrogeo v\S+ (\S+) ([0-9a-f]{12})$")
VERSION = re.compile(r"^\d+\.\d+\.\d+\n$")


class CheckFailed(Exception):
    """An op's output did not hold."""


def require(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


def rel_close(a: float, b: float, rtol: float) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= rtol * max(abs(a), abs(b))


def boundary_scale() -> float:
    """Root u* > 0 of 2 log(1 + u) = u by Newton's method, independent of
    entrogeo's bracketing root finder."""
    u = 2.5
    for _ in range(50):
        step = (2.0 * math.log1p(u) - u) / (2.0 / (1.0 + u) - 1.0)
        u -= step
        if abs(step) < 1e-15 * u:
            break
    return u


U_STAR = boundary_scale()


def shape(kind: str, lam: float, theta: float) -> float:
    """Intensity shape w(theta)/gamma, written out here rather than taken
    from entrogeo."""
    u = lam * theta
    if kind == "constant":
        return 1.0
    if kind == "oscillating":
        return math.cos(u)
    if kind == "power_law":
        return (1.0 + u) ** -2
    return math.exp(-u)


def _reject_constant(token: str):
    raise CheckFailed(f"non-finite JSON value {token}")


def parse_json(text: str, command: str) -> dict:
    """Parse a CLI JSON document; NaN and Infinity tokens fail."""
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"{command}: bad JSON: {exc}") from None
    require(doc.get("command") == command, f"{command}: wrong command field")
    require(
        re.fullmatch(r"[0-9a-f]{12}", str(doc.get("config_hash", ""))) is not None,
        f"{command}: missing config hash",
    )
    return doc


def parse_csv(text: str, command: str, n_cols: int) -> np.ndarray:
    """Parse a CLI CSV document into a (rows, n_cols) array.

    The first line must be the config-hash stamp for ``command``; every
    value must be finite.
    """
    lines = text.split("\n")
    m = STAMP.match(lines[0])
    require(m is not None and m.group(1) == command, f"{command}: missing config-hash stamp")
    i = 1
    while i < len(lines) and lines[i].startswith("#"):
        i += 1
    require(i < len(lines) and len(lines[i].split(",")) == n_cols, f"{command}: bad header")
    body = "\n".join(lines[i + 1:]).replace(",", " ").split()
    try:
        values = np.array(body, dtype=float)
    except ValueError:
        raise CheckFailed(f"{command}: unparsable value") from None
    require(values.size % n_cols == 0, f"{command}: ragged rows")
    require(bool(np.all(np.isfinite(values))), f"{command}: NaN or inf in output")
    return values.reshape(-1, n_cols)


def check_region(text: str, n: int) -> None:
    """figure2's region file: n^2 rows, each flag equal to lam*theta0 >= u*."""
    grid = parse_csv(text, "figure2-region", 3)
    require(grid.shape[0] == n * n, f"figure2-region: {grid.shape[0]} rows, want {n * n}")
    want = (grid[:, 1] * grid[:, 0] >= U_STAR).astype(float)
    require(bool(np.array_equal(grid[:, 2], want)), "figure2-region: flag disagrees with u*")


def check_domain_error(returncode: int, stdout: str, stderr: str) -> None:
    """An out-of-domain invocation exits 2 with a one-line error."""
    require(returncode == 2, f"out-of-domain input exited {returncode}, want 2")
    require("Traceback" not in stderr, "out-of-domain input printed a traceback")
    require(stderr.startswith("error:"), "out-of-domain input gave no error line")
    require(stdout == "", "out-of-domain input wrote to stdout")


def check_metrics(doc: dict) -> None:
    c, cf = doc["computed"], doc["closed_form"]
    require(rel_close(c["igc_rate"], cf["igc_rate"], 1e-6), "metrics: igc_rate off closed form")
    require(rel_close(c["v_E"] ** 2, c["r_E"], 1e-6), "metrics: v_E^2 != r_E")


def check_geodesic(rows: np.ndarray, n_samples: int) -> None:
    require(rows.shape[0] == n_samples, f"geodesic: {rows.shape[0]} rows, want {n_samples}")
    closed, chris, div = rows[:, 1], rows[:, 3], rows[:, 4]
    require(float(np.max(np.abs(chris - closed))) <= 1e-6, "geodesic: christoffel off closed form")
    require(float(np.max(np.abs(div - closed))) <= 1e-6, "geodesic: divergence off closed form")


def check_table1(doc: dict) -> None:
    require(doc["lambda"] == 18.0 and doc["table_conformance"] is True,
            "table1: no conformance at lambda = 18")


def check_crossover(doc: dict) -> None:
    require(doc["theta0"] == 1.0, "crossover: theta0 != 1")
    require(abs(doc["lambda_star"] - doc["u_star"]) <= 1e-8, "crossover: lambda_star != u_star")
    require(abs(doc["u_star"] - U_STAR) <= 1e-12, "crossover: u_star off Newton root")


def check_verify(text: str, n_checks: int) -> None:
    lines = text.splitlines()
    require(len(lines) == n_checks + 1, f"verify: {len(lines)} lines, want {n_checks + 1}")
    require(all(line.startswith("PASS ") for line in lines[:-1]), "verify: a line is not PASS")
    require(lines[-1] == f"{n_checks}/{n_checks} invariants passed", "verify: bad summary")
