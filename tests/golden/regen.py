"""Golden-output corpus for the ``entrogeo`` CLI.

Each case is one argv.  Its recorded outcome is the exit code, stdout,
stderr and every file the run writes, each stored byte for byte under
``tests/golden/<case>/``.  ``fingerprint.json`` records the numpy build
and CPU features the corpus was made on: numpy's SIMD ``exp``/``log1p``/
``arcsin`` may round differently in the last bit on another CPU.

Regenerate (a reviewed act: name each changed byte in CHANGES.md):

    PYTHONPATH=src python tests/golden/regen.py

Compare without writing: print every changed number with its recorded
value, its new value and their distance in ulp, and exit 1 if any byte
changed:

    PYTHONPATH=src python tests/golden/regen.py --diff
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import re
import shutil
import struct
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
FINGERPRINT = HERE / "fingerprint.json"

# "{out}" stands for a fresh output directory; the config hash excludes
# --output, so the recorded bytes do not depend on where it lives.
CASES = {
    "metrics-constant": ["metrics", "--scheme", "constant"],
    "metrics-oscillating": ["metrics", "--scheme", "oscillating", "--lambda", "0.5"],
    "metrics-power_law": ["metrics", "--scheme", "power_law", "--lambda", "0.5"],
    "metrics-exponential": ["metrics", "--scheme", "exponential", "--lambda", "0.5"],
    "metrics-constant-gamma": [
        "metrics", "--scheme", "constant", "--gamma", "1.3", "--hbar", "0.7",
        "--theta0", "0.4", "--thetadot0", "0.3", "--tau", "2",
    ],
    "metrics-power_law-gamma": [
        "metrics", "--scheme", "power_law", "--gamma", "0.8", "--lambda", "1.5",
        "--theta0", "0.5", "--thetadot0", "0.2", "--tau", "2",
    ],
    "metrics-oscillating-window": [
        "metrics", "--scheme", "oscillating", "--lambda", "1.2", "--theta0", "0.8",
        "--thetadot0", "0.05", "--tau", "3", "--xi0", "0.25", "--tau0", "0.5",
    ],
    "geodesic-constant": ["geodesic", "--scheme", "constant", "--xi-end", "2",
                          "--samples", "41"],
    "geodesic-oscillating": ["geodesic", "--scheme", "oscillating", "--lambda", "0.5",
                             "--xi-end", "2", "--samples", "41"],
    "geodesic-power_law": ["geodesic", "--scheme", "power_law", "--lambda", "0.5",
                           "--xi-end", "2", "--samples", "41"],
    "geodesic-exponential": ["geodesic", "--scheme", "exponential", "--lambda", "0.5",
                             "--xi-end", "2", "--samples", "41"],
    "figure1": ["figure1", "--lambda-count", "31", "--tau-count", "31"],
    "figure2": ["figure2", "--lambda-count", "31", "--grid-count", "9",
                "--output", "{out}/fig2.csv"],
    "figure1-negative-tau": ["figure1", "--lambda-count", "5", "--tau-count", "5",
                             "--tau-start=-2"],
    "figure2-negative-grid": ["figure2", "--grid-theta0-max", "-4", "--grid-lambda-max", "-6",
                              "--grid-count", "9", "--lambda-count", "5"],
    "figure2-mixed-grid": ["figure2", "--grid-theta0-max", "4", "--grid-lambda-max", "-6",
                           "--grid-count", "5", "--lambda-count", "3"],
    "table1": ["table1"],
    "crossover": ["crossover"],
    "domain-error": ["metrics", "--scheme", "power_law", "--lambda", "-1"],
}


def fingerprint() -> dict:
    """What decides the last bit of a float on this host."""
    import numpy as np
    from numpy._core._multiarray_umath import __cpu_features__

    return {
        "numpy": np.__version__,
        "cpu_features": sorted(k for k, on in __cpu_features__.items() if on),
        "machine": platform.machine(),
        "libc": " ".join(platform.libc_ver()),
    }


def run_case(argv: list[str]) -> dict[str, bytes]:
    """Run one argv through ``cli.main`` in this process; return its
    outcome as {"exit_code", "stdout", "stderr", "file.<name>"...}."""
    from entrogeo import cli

    out_dir = Path(tempfile.mkdtemp(prefix="entrogeo-golden-"))
    try:
        argv = [a.replace("{out}", str(out_dir)) for a in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse errors
                rc = exc.code
        outcome = {
            "exit_code": f"{rc}\n".encode(),
            "stdout": stdout.getvalue().encode(),
            "stderr": stderr.getvalue().encode(),
        }
        for path in sorted(out_dir.iterdir()):
            outcome[f"file.{path.name}"] = path.read_bytes()
        return outcome
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def load_case(name: str) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted((HERE / name).iterdir())}


_NUMBER = re.compile(r"(-?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)")


def ulp_distance(a: float, b: float) -> int:
    """Number of doubles from a to b; -0.0 and 0.0 are one point."""
    def ordinal(x: float) -> int:
        bits = struct.unpack("<q", struct.pack("<d", x))[0]
        return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)

    return abs(ordinal(a) - ordinal(b))


def diff_lines(old: str, new: str) -> list[str]:
    """One line per changed number, '<line>: <prefix> <old> -> <new> (<n> ulp)',
    or per changed line whose text apart from its numbers differs."""
    old_lines, new_lines = old.splitlines(), new.splitlines()
    if len(old_lines) != len(new_lines):
        return [f"line count {len(old_lines)} -> {len(new_lines)}"]
    out = []
    for n, (a, b) in enumerate(zip(old_lines, new_lines), 1):
        if a == b:
            continue
        ta, tb = _NUMBER.split(a), _NUMBER.split(b)
        if len(ta) != len(tb) or ta[::2] != tb[::2]:
            out.append(f"{n}: {a!r} -> {b!r}")
            continue
        for i in range(1, len(ta), 2):
            if ta[i] != tb[i]:
                prefix = "".join(ta[:i]).strip()
                dist = ulp_distance(float(ta[i]), float(tb[i]))
                out.append(f"{n}: {prefix} {ta[i]} -> {tb[i]} ({dist} ulp)")
    return out


def diff() -> int:
    """Print what regenerating would change; 1 if anything would."""
    changed = 0
    for name, argv in CASES.items():
        got = run_case(argv)
        want = load_case(name) if (HERE / name).is_dir() else {}
        for key in sorted(set(got) | set(want)):
            if got.get(key) == want.get(key):
                continue
            changed += 1
            if key not in got or key not in want:
                print(f"{name}/{key}: {'added' if key in got else 'removed'}")
                continue
            for line in diff_lines(want[key].decode(), got[key].decode()):
                print(f"{name}/{key}:{line}")
    print(f"{changed} changed outputs in {len(CASES)} cases")
    return 1 if changed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description="Regenerate or compare the golden corpus.")
    parser.add_argument("--diff", action="store_true",
                        help="compare with the recorded corpus and write nothing")
    if parser.parse_args().diff:
        return diff()
    for name, argv in CASES.items():
        case_dir = HERE / name
        shutil.rmtree(case_dir, ignore_errors=True)
        case_dir.mkdir()
        for key, data in run_case(argv).items():
            (case_dir / key).write_bytes(data)
    FINGERPRINT.write_text(json.dumps(fingerprint(), indent=1) + "\n")
    print(f"wrote {len(CASES)} cases to {HERE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
