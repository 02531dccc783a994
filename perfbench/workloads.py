"""The benchmark's four workloads.

Each workload makes its inputs from the seed in ``setup``, runs one op
per ``run`` call (the timed part) and checks that op's output in
``check``, which returns the CSV/JSON bytes the op wrote.  All four are
closed loops with one client: the next op starts when the last one and
its check are done.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
import subprocess
import sys
import time
from pathlib import Path

from checks import (
    CheckFailed,
    check_crossover,
    check_domain_error,
    check_geodesic,
    check_metrics,
    check_region,
    check_table1,
    check_verify,
    parse_csv,
    parse_json,
    rel_close,
    require,
    shape,
    VERSION,
)
from importtime import parse_importtime, top_level_total

KINDS = ("constant", "oscillating", "power_law", "exponential")


def _f(x: float) -> str:
    return repr(float(x))


def _point(rng: random.Random) -> tuple[float, float, float, float]:
    """(lam, theta0, thetadot0, tau) inside every scheme's validity window.

    lam * theta0 <= 1 keeps cos(lam * theta0) >= 0.54, so the oscillating
    geodesic lives at least 1.95 past xi0, beyond any tau or xi_end drawn
    here.
    """
    return (rng.uniform(0.2, 1.0), rng.uniform(0.5, 1.0),
            rng.uniform(0.05, 0.15), rng.uniform(0.25, 1.0))


def _scheme_args(kind: str, lam: float, rng: random.Random) -> list[str]:
    if kind == "constant":
        return ["--scheme", kind, "--gamma", _f(rng.uniform(0.5, 2.0))]
    return ["--scheme", kind, "--lambda", _f(lam)]


def _read(path: Path) -> str:
    try:
        return path.read_text()
    except FileNotFoundError:
        raise CheckFailed(f"{path.name} not written") from None


def _run_cli_main(cli, argv: list[str]) -> tuple[int, str, str]:
    """``cli.main(argv)`` in this process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse's --version and usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


class Workload:
    name = ""
    #: op classes in one cycle of the fixed mix; a run covers at least one
    #: cycle and weights per-class means by it.
    mix: tuple[str, ...] = ("op",)
    #: True when ops run in the benchmark process (set-up then includes
    #: interpreter start and the imports).
    in_process = True
    seed_note = ""

    def __init__(self, root: Path, workdir: Path, seed: int, smoke: bool):
        self.root, self.workdir, self.seed, self.smoke = root, workdir, seed, smoke

    def setup(self) -> None:
        raise NotImplementedError

    def op_class(self, i: int) -> str:
        return self.mix[i % len(self.mix)]

    def prepare(self, i: int) -> None:
        """Untimed work before op ``i``, such as removing old outputs."""

    def run(self, i: int, tracer):
        raise NotImplementedError

    def check(self, i: int, out) -> int:
        raise NotImplementedError

    def annotate(self, i: int, out, tracer, op_span: int) -> None:
        """Untimed spans added after a traced op."""

    def close(self) -> None:
        pass


class CliCold(Workload):
    """Sequential ``python -m entrogeo.cli`` children over a fixed mix.

    Out-of-domain invocations make up 3 of the 13 ops; each must exit 2.
    Non-finite and zero inputs are left out: ``--xi-end nan`` hangs, and a
    hang has no latency.
    """

    name = "cli-cold"
    in_process = False
    mix = ("version", "metrics_constant", "metrics_oscillating",
           "metrics_power_law", "metrics_exponential", "geodesic",
           "figure1", "figure2", "table1", "crossover",
           "domain_lambda", "domain_oscillating", "domain_count")
    cycles = 64

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.fig1 = self.workdir / "fig1.csv"
        self.fig2 = self.workdir / "fig2.csv"
        self.fig2_region = self.workdir / "fig2_region.csv"
        self.ops = [self._argv(cls, rng) for _ in range(self.cycles) for cls in self.mix]
        self._startup = None
        self._cli = None

    def _argv(self, cls: str, rng: random.Random) -> list[str]:
        lam, th0, thd0, tau = _point(rng)
        ic = ["--theta0", _f(th0), "--thetadot0", _f(thd0)]
        if cls == "version":
            return ["--version"]
        if cls.startswith("metrics_"):
            kind = cls[len("metrics_"):]
            return ["metrics", *_scheme_args(kind, lam, rng), *ic, "--tau", _f(tau)]
        if cls == "geodesic":
            kind = rng.choice(KINDS)
            return ["geodesic", *_scheme_args(kind, lam, rng), *ic,
                    "--xi-end", _f(rng.uniform(0.5, 1.0))]
        if cls == "figure1":
            return ["figure1", "--theta0", _f(rng.uniform(0.8, 1.2)),
                    "--lambda-c", _f(lam), "--output", str(self.fig1)]
        if cls == "figure2":
            return ["figure2", "--theta0", _f(rng.uniform(0.8, 1.2)),
                    "--thetadot0", _f(rng.uniform(0.5, 1.5)), "--output", str(self.fig2)]
        if cls == "table1":
            return ["table1", "--thetadot0", _f(rng.uniform(0.5, 1.5))]
        if cls == "crossover":
            return ["crossover", "--bracket", _f(rng.uniform(1.0, 2.0)), _f(rng.uniform(3.0, 5.0))]
        if cls == "domain_lambda":
            kind = rng.choice(KINDS[1:])
            return ["metrics", "--scheme", kind, "--lambda", _f(-rng.uniform(0.2, 2.0))]
        if cls == "domain_oscillating":
            # cos(lam * theta0) < 0: no oscillating geodesic starts there
            lam = rng.uniform(0.5, 1.5)
            theta0 = rng.uniform(0.55 * math.pi, 1.45 * math.pi) / lam
            return ["geodesic", "--scheme", "oscillating", "--lambda", _f(lam),
                    "--theta0", _f(theta0)]
        return ["figure1", "--lambda-count", "1", "--tau-count", "1"]

    def _spawn(self, argv: list[str], importtime: bool) -> subprocess.CompletedProcess:
        cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
               "-m", "entrogeo.cli", *argv]
        return subprocess.run(cmd, capture_output=True, text=True, cwd=self.root, timeout=120)

    def prepare(self, i: int) -> None:
        for p in (self.fig1, self.fig2, self.fig2_region):
            p.unlink(missing_ok=True)

    def run(self, i: int, tracer):
        return self._spawn(self.ops[i % len(self.ops)], importtime=tracer.enabled)

    def check(self, i: int, proc: subprocess.CompletedProcess) -> int:
        cls = self.op_class(i)
        stderr = "".join(line for line in proc.stderr.splitlines(keepends=True)
                         if not line.startswith("import time:"))
        if cls.startswith("domain_"):
            check_domain_error(proc.returncode, proc.stdout, stderr)
            return len(proc.stdout)
        require(proc.returncode == 0, f"{cls}: exit {proc.returncode}: {stderr.strip()[-200:]}")
        require("Traceback" not in stderr, f"{cls}: traceback on stderr")
        written = len(proc.stdout)
        if cls == "version":
            require(VERSION.match(proc.stdout) is not None, "version: bad output")
        elif cls.startswith("metrics_"):
            check_metrics(parse_json(proc.stdout, "metrics"))
        elif cls == "geodesic":
            check_geodesic(parse_csv(proc.stdout, "geodesic", 5), 201)
        elif cls == "figure1":
            text = _read(self.fig1)
            require(parse_csv(text, "figure1", 14).shape[0] == 301, "figure1: row count")
            written += len(text)
        elif cls == "figure2":
            text, region = _read(self.fig2), _read(self.fig2_region)
            require(parse_csv(text, "figure2", 6).shape[0] == 601, "figure2: row count")
            check_region(region, 201)
            written += len(text) + len(region)
        elif cls == "table1":
            check_table1(parse_json(proc.stdout, "table1"))
        elif cls == "crossover":
            check_crossover(parse_json(proc.stdout, "crossover"))
        return written

    def annotate(self, i: int, proc, tracer, op_span: int) -> None:
        """Split the child's wall time into its imports (from ``-X
        importtime``) and its work (``cli.main`` replayed in this process
        after a warm import)."""
        if self._cli is None:
            bare = subprocess.run([sys.executable, "-X", "importtime", "-c", "pass"],
                                  capture_output=True, text=True, timeout=60)
            self._startup = {e.name for e in parse_importtime(bare.stderr)}
            from entrogeo import cli
            self._cli = cli
        imports = top_level_total(parse_importtime(proc.stderr), exclude=self._startup)
        t0 = time.perf_counter()
        _run_cli_main(self._cli, self.ops[i % len(self.ops)])
        work = time.perf_counter() - t0
        start = tracer.spans[op_span].start
        tracer.record("import.modules", start, start + imports, op_span)
        tracer.record(f"cli.{self.op_class(i)}", start + imports, start + imports + work, op_span)


class LibSweep(Workload):
    """One seed-drawn point (lam, theta0, thetadot0, tau) per op, through
    the library for each of the four schemes: ``report``, both geodesic
    ODE formulations and the canonical-ensemble rate route, then
    ``rank_schemes`` over the four.  Each op writes its results as one
    JSON line, as a sweep script would.

    An op covers all four kinds so that every op does the same mix of
    work: with one kind per op, the p98.6 tail of a ~28 ms op followed
    single host hiccups and moved 2x between runs.
    """

    name = "lib-sweep"
    pool = 1024

    def setup(self) -> None:
        from entrogeo import efficiency, geometry, pathmetrics, schemes, thermo
        self.efficiency, self.geometry, self.pathmetrics = efficiency, geometry, pathmetrics
        self.schemes, self.thermo = schemes, thermo
        self.ens = thermo.TwoLevelEnsemble(epsilon=1.0)
        rng = random.Random(self.seed)
        self.points = []
        for _ in range(self.pool):
            lam, _, thd0, tau = _point(rng)
            # lam * theta0 <= 0.9: at lam * theta0 = 1 the constant scheme's
            # path reaches p = 1, where beta is infinite and the canonical
            # rate route is undefined
            th0 = rng.uniform(0.5, min(1.0, 0.9 / lam))
            self.points.append((lam, th0, thd0, tau))
        self.sink = open(self.workdir / "lib-sweep.jsonl", "w")

    def close(self) -> None:
        self.sink.close()

    def run(self, i: int, tracer):
        G, PM, S = self.geometry, self.pathmetrics, self.schemes
        lam, th0, thd0, tau = self.points[i % self.pool]
        with tracer.span("schemes.driving_scheme_init"):
            all4 = [S.DrivingScheme(kind=S.SchemeKind.CONSTANT, gamma=0.5 * math.pi * lam)] + [
                S.DrivingScheme.resonant(S.SchemeKind(k), lam=lam) for k in KINDS[1:]
            ]
        per_kind = []
        for scheme in all4:
            with tracer.span("pathmetrics.report"):
                rep = PM.report(scheme, th0, thd0, tau)
            with tracer.span("geometry.geodesic_closed_form"):
                geo = G.geodesic_closed_form(scheme, 0.0, th0, thd0)
            with tracer.span("geometry.fisher_closed_form"):
                metric = G.fisher_closed_form(scheme)
            nums = []
            for form in (G.GeodesicFormulation.CHRISTOFFEL, G.GeodesicFormulation.DIVERGENCE):
                with tracer.span(f"geometry.geodesic_numeric_{form.value}"):
                    nums.append(G.geodesic_numeric(metric, 0.0, th0, thd0, tau, form,
                                                   geo.validity_end))
            xi, rate = self._thermo_rate(scheme, geo, tau, tracer)
            per_kind.append((rep, geo, nums, xi, rate))
        with tracer.span("efficiency.rank_schemes"):
            ranking = self.efficiency.rank_schemes(all4, th0, thd0)
        record = {
            "lambda": lam, "theta0": th0, "thetadot0": thd0, "tau": tau,
            "order": list(ranking.order),
            **{kind: {"v_E": rep.v_E, "r_E": rep.r_E, "length": rep.length,
                      "divergence": rep.divergence, "igc": rep.igc,
                      "igc_rate": rep.igc_rate, "xi": xi, "r_canonical": rate}
               for kind, (rep, _, _, xi, rate) in zip(KINDS, per_kind)},
        }
        line = json.dumps(record, allow_nan=False) + "\n"
        self.sink.write(line)
        return per_kind, ranking, len(line)

    def _thermo_rate(self, scheme, geo, tau: float, tracer):
        """delta E^2 (d beta/d xi)^2 along the geodesic, at whichever of
        three points has its upper occupation farthest from 0 and 1."""
        T = self.thermo
        path = self.schemes.probability_path(scheme)
        p_upper = lambda x: path.p_w(geo.theta(x))
        xi = max((0.25 * tau, 0.5 * tau, 0.75 * tau),
                 key=lambda x: min(p_upper(x), 1.0 - p_upper(x)))
        beta_of_xi = lambda x: T.beta_from_upper_probability(self.ens, p_upper(x))
        with tracer.span("thermo.entropy_rate_canonical"):
            return xi, T.entropy_rate_canonical(self.ens, beta_of_xi, xi)

    def check(self, i: int, out) -> int:
        per_kind, ranking, written = out
        lam, th0, thd0, tau = self.points[i % self.pool]
        gamma = 0.5 * math.pi * lam  # shared by the four schemes (hbar = 1)
        rates = {kd: (2.0 * gamma * shape(kd, lam, th0) * thd0) ** 2 for kd in KINDS}
        for kind, (rep, geo, nums, _, rate) in zip(KINDS, per_kind):
            v = math.sqrt(rates[kind])
            require(rel_close(rep.v_E, v, 1e-9), f"{kind}: v_E off closed form")
            require(rel_close(rep.r_E, rep.v_E ** 2, 1e-6), f"{kind}: r_E != v_E^2")
            require(rel_close(rep.length, v * tau, 1e-6), f"{kind}: L != v_E tau")
            require(rel_close(rep.divergence, v * v * tau, 1e-6), f"{kind}: I != r_E tau")
            require(rel_close(rep.igc_rate, 0.5 * v, 1e-6), f"{kind}: dC/dtau != v_E/2")
            require(math.isfinite(rep.igc), f"{kind}: igc not finite")
            for num in nums:
                err = max(abs(a - b) for a, b in zip(num.theta, geo.theta(num.xi)))
                require(err <= 1e-6, f"{kind}/{num.formulation.value}: geodesic off closed form")
            require(rel_close(rate, rep.r_E, 1e-6), f"{kind}: canonical rate != r_E")
        for e in ranking.entries:
            require(rel_close(e.r_E, rates[e.label], 1e-9), f"rank: {e.label} rate off closed form")
        require(list(ranking.order) == sorted(KINDS, key=rates.get), "rank: wrong order")
        return written


class EmitLarge(Workload):
    """``cli.main`` in this process, writing large figures to files: one
    op is ``figure2`` at a grid count near 400 followed by ``figure1`` at
    counts near 20 001.  Pairing the two keeps every op the same mix."""

    name = "emit-large"

    def setup(self) -> None:
        from entrogeo import cli
        self.cli = cli
        rng = random.Random(self.seed)
        n0, m0 = (40, 2001) if self.smoke else (400, 20001)
        self.points = [(n0 + rng.randint(-n0 // 20, n0 // 20),
                        m0 + rng.randint(-(m0 // 20), m0 // 20),
                        rng.uniform(0.8, 1.2)) for _ in range(256)]
        self.fig1 = self.workdir / "large1.csv"
        self.fig2 = self.workdir / "large2.csv"
        self.fig2_region = self.workdir / "large2_region.csv"

    def prepare(self, i: int) -> None:
        for p in (self.fig1, self.fig2, self.fig2_region):
            p.unlink(missing_ok=True)

    def run(self, i: int, tracer):
        n, m, th0 = self.points[i % len(self.points)]
        with tracer.span("cli.figure2_large"):
            rc2 = self.cli.main(["figure2", "--grid-count", str(n), "--output", str(self.fig2)])
        with tracer.span("cli.figure1_large"):
            rc1 = self.cli.main(["figure1", "--theta0", _f(th0), "--lambda-count", str(m),
                                 "--tau-count", str(m), "--output", str(self.fig1)])
        return rc2, rc1

    def check(self, i: int, out) -> int:
        n, m, _ = self.points[i % len(self.points)]
        require(out == (0, 0), f"emit-large: exit codes {out}")
        fig2, region, fig1 = _read(self.fig2), _read(self.fig2_region), _read(self.fig1)
        require(parse_csv(fig2, "figure2", 6).shape[0] == 601, "figure2: row count")
        check_region(region, n)
        require(parse_csv(fig1, "figure1", 14).shape[0] == m, "figure1: row count")
        return len(fig2) + len(region) + len(fig1)


class VerifySuite(Workload):
    """``entrogeo verify`` run in this process through ``cli.main``: all
    24 invariants of ``verify.CHECKS``, each required to pass."""

    name = "verify-suite"
    seed_note = "verify.run_checks uses its own fixed seed; --seed has no effect"

    def setup(self) -> None:
        from entrogeo import cli, verify
        self.cli, self.verify = cli, verify

    def run(self, i: int, tracer):
        checks = self.verify.CHECKS
        if not tracer.enabled:
            return _run_cli_main(self.cli, ["verify"])
        saved = dict(checks)
        checks.update({k: tracer.wrap(f"verify.{k}", fn) for k, fn in saved.items()})
        try:
            with tracer.span("cli.verify"):
                return _run_cli_main(self.cli, ["verify"])
        finally:
            checks.update(saved)

    def check(self, i: int, out) -> int:
        rc, stdout, stderr = out
        require(rc == 0, f"verify: exit {rc}")
        require(stderr == "", "verify: wrote to stderr")
        check_verify(stdout, len(self.verify.CHECKS))
        return len(stdout)


WORKLOADS = {w.name: w for w in (CliCold, LibSweep, EmitLarge, VerifySuite)}
