"""Per-layer measurements, each taken from outside by timing calls into one
public entrogeo function at a fixed reference point.

The reference point is the exponential scheme at lam = 0.5 with
theta0 = 1, thetadot0 = 0.1, tau = 1 and xi_end = 1.  Every probe returns
``{name: (value, unit, calls)}``, where ``calls`` is the number of calls
its value was taken over.  The ``*_g_evals`` counts come from a counting
``MetricField`` and repeat exactly from run to run.
"""
from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

from importtime import package_cumulative_s, package_self_s, parse_importtime
from workloads import _run_cli_main

REF_LAM, REF_THETA0, REF_THETADOT0, REF_TAU = 0.5, 1.0, 0.1, 1.0


def _median_call_s(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _median_batch_s(fn, batch: int, batches: int = 5) -> float:
    """Median over ``batches`` of the mean time per call in a batch."""
    times = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(batch):
            fn()
        times.append((time.perf_counter() - t0) / batch)
    return statistics.median(times)


class Probes:
    def __init__(self, root: Path, workdir: Path, smoke: bool):
        self.root, self.workdir, self.smoke = root, workdir, smoke
        self.out: dict[str, tuple[float, str, int]] = {}
        self.failures: list[str] = []
        self.checked = 0

    def _ms(self, name: str, fn, reps: int) -> None:
        reps = 1 if self.smoke else reps
        self.out[name] = (_median_call_s(fn, reps) * 1e3, "ms", reps)

    def _us(self, name: str, fn, batch: int) -> None:
        batch = max(1, batch // 50) if self.smoke else batch
        self.out[name] = (_median_batch_s(fn, batch) * 1e6, "us", 5 * batch)

    def _count(self, name: str, value: int, unit: str = "count") -> None:
        self.out[name] = (value, unit, 1)

    def _expect(self, ok: bool, what: str) -> None:
        self.checked += 1
        if not ok:
            self.failures.append(what)

    def run_all(self) -> dict[str, tuple[float, str, int]]:
        from entrogeo import cli  # noqa: F401  (warm: the import is measured apart)
        self.imports()
        self.cli_commands()
        self.cli_large()
        self.library()
        self.verify()
        return self.out

    # --- import ------------------------------------------------------

    def imports(self) -> None:
        reps = 1 if self.smoke else 3
        runs = []
        for _ in range(reps):
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", "import entrogeo.cli"],
                capture_output=True, text=True, cwd=self.root, timeout=120,
            )
            self._expect(proc.returncode == 0, "import entrogeo.cli failed")
            runs.append(parse_importtime(proc.stderr))
        for name, fn in (
            ("import.total_ms", lambda r: package_cumulative_s(r, "entrogeo")),
            ("import.scipy_ms", lambda r: package_cumulative_s(r, "scipy")),
            ("import.numpy_ms", lambda r: package_cumulative_s(r, "numpy")),
            ("import.entrogeo_self_ms", lambda r: package_self_s(r, "entrogeo")),
        ):
            self.out[name] = (statistics.median(fn(r) for r in runs) * 1e3, "ms", reps)
        bare = lambda: subprocess.run([sys.executable, "-c", "pass"], timeout=60, check=True)
        self._ms("import.interp_ms", bare, 5)

    # --- cli ---------------------------------------------------------

    def _cli(self, argv: list[str]) -> None:
        from entrogeo import cli
        rc, _, _ = _run_cli_main(cli, argv)
        self._expect(rc == 0, f"cli {' '.join(argv)} exited {rc}")

    def cli_commands(self) -> None:
        wd = self.workdir
        commands = {
            "version": ["--version"],
            **{f"metrics_{k}": ["metrics", "--scheme", k]
               + ([] if k == "constant" else ["--lambda", str(REF_LAM)])
               for k in ("constant", "oscillating", "power_law", "exponential")},
            "geodesic": ["geodesic", "--scheme", "exponential", "--lambda", str(REF_LAM)],
            "figure1": ["figure1", "--output", str(wd / "probe1.csv")],
            "figure2": ["figure2", "--output", str(wd / "probe2.csv")],
            "table1": ["table1"],
            "crossover": ["crossover"],
        }
        for cmd, argv in commands.items():
            self._ms(f"cli.{cmd}_ms", lambda a=argv: self._cli(a), 3 if cmd == "figure2" else 5)

    def cli_large(self) -> None:
        n, m = (40, 2001) if self.smoke else (400, 20001)
        f1, f2 = self.workdir / "probe_large1.csv", self.workdir / "probe_large2.csv"
        self._ms("cli.figure2_large_ms", lambda: self._cli(
            ["figure2", "--grid-count", str(n), "--output", str(f2)]), 2)
        self._ms("cli.figure1_large_ms", lambda: self._cli(
            ["figure1", "--lambda-count", str(m), "--tau-count", str(m), "--output", str(f1)]), 2)
        written = sum(p.stat().st_size for p in (f1, f2, self.workdir / "probe_large2_region.csv"))
        self._count("cli.bytes_out", written, "bytes")

    # --- library -----------------------------------------------------

    def library(self) -> None:
        from entrogeo import efficiency, pathmetrics as PM, schemes as S, thermo as T
        from entrogeo.geometry import (
            GeodesicFormulation, MetricField, fisher_closed_form,
            geodesic_closed_form, geodesic_numeric,
        )

        exp = S.SchemeKind.EXPONENTIAL
        scheme = S.DrivingScheme.resonant(exp, lam=REF_LAM)
        metric = fisher_closed_form(scheme)
        geo = geodesic_closed_form(scheme, 0.0, REF_THETA0, REF_THETADOT0)
        traj = PM.ParamTrajectory.from_geodesic(geo, (0.0, REF_TAU))

        def counting():
            calls = [0]

            def g(theta):
                calls[0] += 1
                return metric.g(theta)
            return MetricField(g=g, dg_dtheta=metric.dg_dtheta,
                               source=metric.source, kind=metric.kind), calls

        def numeric(m, form):
            return geodesic_numeric(m, 0.0, REF_THETA0, REF_THETADOT0, 1.0,
                                    form, geo.validity_end)

        self._ms("pathmetrics.report_ms",
                 lambda: PM.report(scheme, REF_THETA0, REF_THETADOT0, REF_TAU), 10)
        self._ms("pathmetrics.igc_ms", lambda: PM.igc(metric, geo, REF_TAU), 10)
        self._ms("pathmetrics.thermodynamic_length_ms",
                 lambda: PM.thermodynamic_length(metric, traj), 30)
        self._ms("pathmetrics.thermodynamic_divergence_ms",
                 lambda: PM.thermodynamic_divergence(metric, traj), 30)
        m, calls = counting()
        PM.igc(m, geo, REF_TAU)
        self._count("pathmetrics.igc_g_evals", calls[0])
        m, calls = counting()
        PM.thermodynamic_length(m, traj)
        self._count("pathmetrics.length_g_evals", calls[0])

        forms = GeodesicFormulation
        self._ms("geometry.geodesic_numeric_christoffel_ms",
                 lambda: numeric(metric, forms.CHRISTOFFEL), 30)
        self._ms("geometry.geodesic_numeric_divergence_ms",
                 lambda: numeric(metric, forms.DIVERGENCE), 30)
        m, calls = counting()
        numeric(m, forms.CHRISTOFFEL)
        numeric(m, forms.DIVERGENCE)
        self._count("geometry.ode_g_evals", calls[0])
        self._us("geometry.geodesic_theta_scalar_us", lambda: geo.theta(0.5), 2000)
        self._us("geometry.fisher_closed_form_us",
                 lambda: fisher_closed_form(scheme).g(REF_THETA0), 2000)

        self._us("schemes.integrated_phase_us",
                 lambda: S.integrated_phase(scheme, REF_THETA0), 5000)
        self._us("schemes.shape_us", lambda: scheme.shape(REF_THETA0), 5000)
        self._us("schemes.driving_scheme_init_us",
                 lambda: S.DrivingScheme.resonant(exp, lam=REF_LAM), 5000)

        four = [S.DrivingScheme(kind=S.SchemeKind.CONSTANT, gamma=0.5 * math.pi * REF_LAM)] + [
            S.DrivingScheme.resonant(k, lam=REF_LAM)
            for k in (S.SchemeKind.OSCILLATING, S.SchemeKind.POWER_LAW, exp)
        ]
        self._us("efficiency.rank_schemes_us",
                 lambda: efficiency.rank_schemes(four, REF_THETA0, REF_THETADOT0), 1000)
        self._us("efficiency.rate_crossover_us",
                 lambda: efficiency.rate_crossover(exp, S.SchemeKind.POWER_LAW, 1.0, (1.0, 5.0)),
                 500)
        self._us("efficiency.region_boundary_scale_us", efficiency.region_boundary_scale, 1000)

        ens = T.TwoLevelEnsemble(epsilon=1.0)
        p_upper = lambda xi: math.sin(0.5 * math.pi * xi) ** 2
        beta_of_xi = lambda xi: T.beta_from_upper_probability(ens, p_upper(xi))
        self._us("thermo.entropy_rate_canonical_us",
                 lambda: T.entropy_rate_canonical(ens, beta_of_xi, 0.4), 2000)
        self._us("thermo.entropy_of_energy_us", lambda: T.entropy_of_energy(ens, 0.3), 5000)

    # --- verify ------------------------------------------------------

    def verify(self) -> None:
        from entrogeo import verify

        def run_all():
            results = verify.run_checks()
            self._expect(all(r.passed for r in results), "verify.run_checks had a FAIL")

        self._ms("verify.run_checks_ms", run_all, 2)
        for name, fn in verify.CHECKS.items():
            def one(fn=fn, name=name):
                try:
                    fn()
                except AssertionError as exc:
                    self._expect(False, f"verify {name}: {exc}")
                else:
                    self._expect(True, name)
            self._ms(f"verify.{name}_ms", one, 2)
