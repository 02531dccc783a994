"""Command-line surface: single-shot metric queries, figure/table data
emitters, crossover root finding, and the invariant verification suite.

Exit codes: 0 ok, 1 verification failure, 2 usage/domain error,
3 numerical failure, 4 internal error (an exception no other code
names: a defect, reported on one stderr line); an unwritable ``--output``
exits 2.  CSV output is deterministic (17 significant digits, atomic
writes) and every run is stamped with a config hash.
``geodesic --samples`` is capped at 10**6 (exit 2 above it),
because the ODE solver holds every sample in memory.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from . import __version__, efficiency, pathmetrics
from .errors import (
    DegenerateDistribution,
    DomainError,
    MetricDegenerate,
    NoSignChange,
    OutOfValidity,
    QuadratureFailure,
    RootFailure,
    StepFailure,
)
from .geometry import (
    GeodesicFormulation,
    fisher_closed_form,
    geodesic_closed_form,
    geodesic_numeric,
    metric_factor,
    shape_factor,
)
from .schemes import DrivingScheme, SchemeKind, standard_schemes

if TYPE_CHECKING:
    import numpy as np

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_DOMAIN = 2
EXIT_NUMERICAL = 3
EXIT_INTERNAL = 4

_DOMAIN_ERRORS = (DomainError, OutOfValidity, NoSignChange, DegenerateDistribution, ValueError)
_NUMERICAL_ERRORS = (QuadratureFailure, RootFailure, StepFailure, MetricDegenerate)


# rows turned into Python floats at a time; bounds the transient lists
_CHUNK_ROWS = 4096
# the ODE solver holds every sample of `geodesic` at once, so streaming the
# CSV cannot bound its memory; a million rows are ~0.1 GB of CSV and a
# ~0.4 GB peak resident set
_MAX_SAMPLES = 10**6


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _config_hash(args) -> str:
    """Hash of the run configuration: every argument except the handler and
    the output destination, so identical configs hash identically no
    matter where the file lands."""
    cfg = {k: v for k, v in vars(args).items() if k not in ("func", "output")}
    payload = json.dumps(cfg, sort_keys=True, default=str).encode()
    return hashlib.sha256(payload).hexdigest()[:12]


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".entrogeo-")
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "w") as fh:
            # mkstemp makes the file 0600; give it the mode open() would
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, output: Optional[str]) -> None:
    if not output:
        sys.stdout.write(text)
        return
    try:
        _atomic_write(output, text)
    except OSError as exc:  # name the user's path, not the temp file
        raise DomainError(f"cannot write {output}: {exc.strerror or exc}") from None


def _csv(
    command: str,
    args,
    comments: Sequence[str],
    header: Sequence[str],
    blocks: Iterable[str],
) -> str:
    """The stamped CSV text; each of ``blocks`` is one or more whole lines."""
    head = [f"# entrogeo v{__version__} {command} {_config_hash(args)}"]
    head += [f"# {c}" for c in comments]
    head.append(",".join(header))
    return "\n".join([*head, *blocks]) + "\n"


def _format_rows(*columns: np.ndarray) -> list[str]:
    """CSV lines of equal-length numeric columns, as blocks of up to
    ``_CHUNK_ROWS`` lines for ``_csv``.

    Byte contract: every cell is ``%.17g`` of its float64 value, exactly
    what ``f"{x:.17g}"`` writes.  Seventeen significant digits round-trip
    every double, and the digits are fixed by the value alone, so output
    is bit-identical for one config.  ``repr`` is faster but writes the
    shortest round-trip form (0.1, not 0.10000000000000001), so it would
    change the bytes of every recorded output.

    Raises OverflowError, before any text is made, if a cell is nan or inf.
    """
    import numpy as np
    table = np.column_stack(columns)
    finite = np.isfinite(table)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise OverflowError(f"CSV cell at row {row + 1}, column {col + 1} is {table[row, col]}")
    template = ",".join(["%.17g"] * table.shape[1])
    return [
        "\n".join([template % tuple(row) for row in table[a:a + _CHUNK_ROWS].tolist()])
        for a in range(0, len(table), _CHUNK_ROWS)
    ]


def _json_text(command: str, args, payload: dict) -> str:
    doc = {
        "tool": f"entrogeo v{__version__}",
        "command": command,
        "config_hash": _config_hash(args),
        **payload,
    }
    try:
        return json.dumps(doc, indent=2, sort_keys=False, allow_nan=False) + "\n"
    except ValueError as exc:  # nan or inf, which JSON cannot carry
        raise OverflowError(f"{command} result is not finite") from exc


def _build_scheme(args) -> DrivingScheme:
    kind = SchemeKind(args.scheme)
    if kind is SchemeKind.CONSTANT:
        gamma = 1.0 if args.gamma is None else args.gamma
        return DrivingScheme(kind=kind, gamma=gamma, hbar=args.hbar)
    if args.lam is None or args.lam <= 0:
        raise DomainError("--lambda > 0 required for this scheme")
    return DrivingScheme(kind=kind, gamma=args.gamma, lam=args.lam, hbar=args.hbar)


# --- subcommands ---------------------------------------------------------

def cmd_metrics(args) -> int:
    scheme = _build_scheme(args)
    rep = pathmetrics.report(
        scheme, args.theta0, args.thetadot0, args.tau, xi0=args.xi0, tau0=args.tau0
    )
    shape = pathmetrics.launch_from_shape(scheme, args.theta0, args.thetadot0)
    payload = {
        "scheme": scheme.kind.value,
        "gamma": scheme.gamma,
        "lambda": scheme.lam,
        "hbar": scheme.hbar,
        "computed": {
            "v_E": rep.v_E,
            "r_E": rep.r_E,
            "length": rep.length,
            "divergence": rep.divergence,
            "igc": rep.igc,
            "igc_rate": rep.igc_rate,
            "tau": rep.tau,
        },
        "closed_form": shape._asdict(),
    }
    _emit(_json_text("metrics", args, payload), args.output)
    return EXIT_OK


def cmd_geodesic(args) -> int:
    if args.samples > _MAX_SAMPLES:
        raise DomainError(f"--samples={args.samples} is above the cap of {_MAX_SAMPLES}")
    scheme = _build_scheme(args)
    metric = fisher_closed_form(scheme)
    geo = geodesic_closed_form(scheme, args.xi0, args.theta0, args.thetadot0)
    num_c, num_d = (
        geodesic_numeric(metric, args.xi0, args.theta0, args.thetadot0, args.xi_end,
                         form, geo.validity_end, n_samples=args.samples)
        for form in GeodesicFormulation
    )
    import numpy as np
    theta_cf = np.asarray(geo.theta(num_c.xi))
    thetadot_cf = np.asarray(geo.thetadot(num_c.xi))
    text = _csv(
        "geodesic", args,
        comments=[
            "theta_closed: closed-form geodesic theta(xi)",
            "theta_christoffel: second-order form theta'' + (g'/2g) theta'^2 = 0",
            "theta_divergence: first-order form d/dxi(g theta') = (g'/2) theta'^2",
        ],
        header=["xi", "theta_closed", "thetadot_closed",
                "theta_christoffel", "theta_divergence"],
        blocks=_format_rows(num_c.xi, theta_cf, thetadot_cf, num_c.theta, num_d.theta),
    )
    _emit(text, args.output)
    return EXIT_OK


def cmd_figure1(args) -> int:
    _check_range(args, "lambda")
    _check_range(args, "tau")
    if args.lambda_count != args.tau_count:
        raise DomainError("lambda and tau grids must have equal counts")
    import numpy as np
    theta0 = args.theta0
    kinds = list(SchemeKind)
    # a pole or an overflow, in the grids too, is caught by the finite
    # check in _format_rows
    with np.errstate(all="ignore"):
        lam = np.linspace(args.lambda_start, args.lambda_stop, args.lambda_count)
        tau = np.linspace(args.tau_start, args.tau_stop, args.tau_count)
        rtilde = {k: metric_factor(k, lam * theta0) for k in kinds}
        r_min = np.vstack([rtilde[k] for k in kinds]).min(axis=0)
        eta = {k: efficiency.eta_sym(rtilde[k], r_min) for k in kinds}
        # panel (c): rescaled complexity vs tau at fixed lambda
        u_c = np.float64(args.lambda_c) * theta0
        ctilde = {k: float(shape_factor(k, u_c)) * tau for k in kinds}
    text = _csv(
        "figure1", args,
        comments=[
            "rtilde_<scheme>: rescaled entropy production rate, "
            "r_E = (2 gamma/hbar)^2 thetadot0^2 * rtilde",
            "eta_<scheme>: symmetric entropic efficiency against the "
            "per-lambda minimum rate of the four schemes",
            f"ctilde_<scheme>: rescaled complexity C = (gamma/hbar) thetadot0 "
            f"* ctilde at lambda = {args.lambda_c}",
        ],
        header=(
            ["lambda"]
            + [f"rtilde_{k.value}" for k in kinds]
            + [f"eta_{k.value}" for k in kinds]
            + ["tau"]
            + [f"ctilde_{k.value}" for k in kinds]
        ),
        blocks=_format_rows(
            lam, *(rtilde[k] for k in kinds), *(eta[k] for k in kinds),
            tau, *(ctilde[k] for k in kinds),
        ),
    )
    _emit(text, args.output)
    return EXIT_OK


def cmd_figure2(args) -> int:
    _check_range(args, "lambda")
    if args.grid_count < 2:
        raise DomainError("grid-count must be >= 2")
    import numpy as np
    # an overflow, in the grid too, is caught by the finite check in _format_rows
    with np.errstate(all="ignore"):
        lam = np.linspace(args.lambda_start, args.lambda_stop, args.lambda_count)
        u = lam * args.theta0
        exp_kind, pow_kind = SchemeKind.EXPONENTIAL, SchemeKind.POWER_LAW
        re_exp = efficiency.resonant_rate(exp_kind, lam, args.theta0, args.thetadot0)
        re_pow = efficiency.resonant_rate(pow_kind, lam, args.theta0, args.thetadot0)
        exp_cooler = (re_exp <= re_pow).astype(float)
        # at shared gamma, C and sqrt(r) scale with the shape w(u)
        ratio_igc = shape_factor(exp_kind, u) / shape_factor(pow_kind, u)
        ratio_rate = ratio_igc**2
    text = _csv(
        "figure2", args,
        comments=[
            "re_*: entropy production rate (pi lambda thetadot0)^2 * shape^2 "
            "with gamma = (pi/2) hbar lambda",
            "exp_cooler: 1 when re_exponential <= re_powerlaw",
            "ratio_igc: C_exponential / C_powerlaw = exp(-u) (1+u)^2, u = lambda theta0",
            "ratio_rate: r_exponential / r_powerlaw = ratio_igc^2",
        ],
        header=["lambda", "re_exponential", "re_powerlaw", "exp_cooler",
                "ratio_igc", "ratio_rate"],
        blocks=_format_rows(lam, re_exp, re_pow, exp_cooler, ratio_igc, ratio_rate),
    )

    # panel (b): region grid over (theta0, lambda)
    u_star = efficiency.region_boundary_scale()
    n = args.grid_count
    theta0_grid = np.linspace(args.grid_theta0_max / n, args.grid_theta0_max, n)
    lam_grid = np.linspace(args.grid_lambda_max / n, args.grid_lambda_max, n)
    # IEEE products are correctly rounded and commutative, so each flag is
    # the scalar test lam * theta0 >= u_star; a product past the float range
    # is inf, as in Python, and inf >= u_star is the right answer
    with np.errstate(over="ignore"):
        flags = np.multiply.outer(theta0_grid, lam_grid) >= u_star
    # n^2 rows from 2n distinct coordinates: each lambda cell's text (flag
    # included) is made once, and each theta0 block is one join
    lam_cells = [(f"{_fmt(v)},0", f"{_fmt(v)},1") for v in lam_grid.tolist()]
    blocks = []
    for th_v, row in zip(theta0_grid.tolist(), flags):
        prefix = f"{_fmt(th_v)},"
        blocks.append(prefix + f"\n{prefix}".join(map(tuple.__getitem__, lam_cells, row.tolist())))
    region_text = _csv(
        "figure2-region", args,
        comments=[
            "exp_cooler: 1 when lambda*theta0 >= u_star with (1+u_star)^2 = exp(u_star)",
            f"u_star = {_fmt(u_star)}",
        ],
        header=["theta0", "lambda", "exp_cooler"],
        blocks=blocks,
    )
    _emit(text, args.output)
    stem, ext = os.path.splitext(args.output or "")
    _emit(region_text, args.output and f"{stem}_region{ext or '.csv'}")
    return EXIT_OK


_TABLE_ORDER = (SchemeKind.EXPONENTIAL, SchemeKind.POWER_LAW,
                SchemeKind.OSCILLATING, SchemeKind.CONSTANT)


def cmd_table1(args) -> int:
    schemes = standard_schemes(lam=args.lam, hbar=args.hbar)
    ranking = efficiency.rank_schemes(schemes, args.theta0, args.thetadot0)
    expected = tuple(k.value for k in _TABLE_ORDER)
    conforms = ranking.order == expected
    payload = {
        "lambda": args.lam,
        "theta0": args.theta0,
        "thetadot0": args.thetadot0,
        "entries": [
            {
                "scheme": e.label,
                "r_E": e.r_E,
                "eta1": e.eta1,
                "eta2": e.eta2,
                "eta_sym": e.eta_sym,
                "igc_slope": e.igc_slope,
            }
            for e in ranking.entries
        ],
        "order": list(ranking.order),
        "table_conformance": conforms,
        "expected_order": list(expected),
        "has_ties": ranking.has_ties,
    }
    _emit(_json_text("table1", args, payload), args.output)
    return EXIT_OK


def cmd_crossover(args) -> int:
    lam_star = efficiency.rate_crossover(
        SchemeKind(args.scheme_a), SchemeKind(args.scheme_b),
        args.theta0, (args.bracket[0], args.bracket[1]),
    )
    u_star = efficiency.region_boundary_scale()
    payload = {
        "lambda_star": lam_star,
        "theta0": args.theta0,
        "u_star": u_star,
        "boundary_residual": efficiency.region_boundary_residual(u_star),
    }
    _emit(_json_text("crossover", args, payload), args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_checks

    results = run_checks(name_filter=args.filter)
    if not results:
        print(f"no invariant matches filter {args.filter!r}", file=sys.stderr)
        return EXIT_DOMAIN
    failed = 0
    for res in results:
        if res.passed:
            print(f"PASS {res.name}")
        else:
            failed += 1
            print(f"FAIL {res.name}: {res.message}")
    print(f"{len(results) - failed}/{len(results)} invariants passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAIL


# --- argument parsing ----------------------------------------------------

def _is_float(word: str) -> bool:
    try:
        float(word)
    except ValueError:
        return False
    return True


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads a negative float word such as -1e-3 as the
    value of a float option.  argparse's negative-number pattern has no
    exponent, so it took ``--tau-start -1e-3`` for two options; it reads a
    word with a space in it as a value, and float() ignores the space.
    Subparsers are made with this class too and parse their own words."""

    def __init__(self, *args, **kwargs):
        # option string -> number of float values it takes, 0 for the others
        self.float_slots: dict[str, int] = {}
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        slots = (action.nargs or 1) if action.type is float else 0
        self.float_slots.update(dict.fromkeys(action.option_strings, slots))
        return action

    def parse_known_args(self, args=None, namespace=None):
        words, slots = list(sys.argv[1:] if args is None else args), 0
        for i, word in enumerate(words):
            if slots:
                slots -= 1
                if word.startswith("-") and _is_float(word):
                    words[i] = " " + word
            elif word in self.float_slots:
                slots = self.float_slots[word]
            elif word.startswith("--"):
                # argparse also takes an unambiguous prefix of an option
                match = [n for option, n in self.float_slots.items() if option.startswith(word)]
                slots = match[0] if len(match) == 1 else 0
        return super().parse_known_args(words, namespace)


def _add_scheme_args(p):
    p.add_argument("--scheme", required=True,
                   choices=[k.value for k in SchemeKind])
    p.add_argument("--gamma", type=float, default=None,
                   help="field intensity scale; defaults to the resonance value")
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--hbar", type=float, default=1.0)


def _add_ic_args(p):
    p.add_argument("--theta0", type=float, default=1.0)
    p.add_argument("--thetadot0", type=float, default=0.1)
    p.add_argument("--xi0", type=float, default=0.0)


def _add_range(p, name, start, stop, count):
    p.add_argument(f"--{name}-start", type=float, default=start)
    p.add_argument(f"--{name}-stop", type=float, default=stop)
    p.add_argument(f"--{name}-count", type=int, default=count)


def _check_range(args, name):
    start = getattr(args, f"{name}_start")
    stop = getattr(args, f"{name}_stop")
    count = getattr(args, f"{name}_count")
    if count < 2 or stop <= start:
        raise DomainError(f"{name} range needs count >= 2 and stop > start")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="entrogeo",
        description="Fisher-metric geodesics, entropy production, and "
                    "efficiency ranking for driven two-level systems",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("metrics", help="single-point path metrics report")
    _add_scheme_args(p)
    _add_ic_args(p)
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--tau0", type=float, default=0.0)
    p.add_argument("--output", default=None)
    p.add_argument("--format", choices=["json"], default="json")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("geodesic", help="sampled geodesic, closed form vs numeric")
    _add_scheme_args(p)
    _add_ic_args(p)
    p.add_argument("--xi-end", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=201)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_geodesic)

    p = sub.add_parser("figure1", help="rates, efficiencies, and complexity sweeps")
    p.add_argument("--theta0", type=float, default=1.0)
    _add_range(p, "lambda", 0.0, 3.0, 301)
    _add_range(p, "tau", 0.0, 10.0, 301)
    p.add_argument("--lambda-c", type=float, default=0.5,
                   help="lambda used for the complexity-vs-tau columns")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_figure1)

    p = sub.add_parser("figure2", help="exponential vs power-law comparison")
    p.add_argument("--theta0", type=float, default=1.0)
    p.add_argument("--thetadot0", type=float, default=1.0)
    _add_range(p, "lambda", 0.0, 6.0, 601)
    p.add_argument("--grid-count", type=int, default=201)
    p.add_argument("--grid-theta0-max", type=float, default=4.0)
    p.add_argument("--grid-lambda-max", type=float, default=6.0)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_figure2)

    p = sub.add_parser("table1", help="efficiency ranking of the four schemes")
    p.add_argument("--lambda", dest="lam", type=float, default=18.0)
    p.add_argument("--theta0", type=float, default=1.0)
    p.add_argument("--thetadot0", type=float, default=1.0)
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("crossover", help="lambda where two schemes' rates cross")
    p.add_argument("--scheme-a", default=SchemeKind.EXPONENTIAL.value,
                   choices=[k.value for k in SchemeKind])
    p.add_argument("--scheme-b", default=SchemeKind.POWER_LAW.value,
                   choices=[k.value for k in SchemeKind])
    p.add_argument("--theta0", type=float, default=1.0)
    p.add_argument("--bracket", type=float, nargs=2, default=[1.0, 5.0])
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_crossover)

    p = sub.add_parser("verify", help="run the invariant suite")
    p.add_argument("--filter", default=None,
                   help="run only invariants whose name contains this substring")
    p.set_defaults(func=cmd_verify)

    return parser


def _check_finite(args) -> None:
    """Reject nan/inf in every float argument, --bracket's pair included."""
    for dest, value in vars(args).items():
        values = value if isinstance(value, list) else [value]
        for x in values:
            if isinstance(x, float) and not math.isfinite(x):
                name = "lambda" if dest == "lam" else dest.replace("_", "-")
                raise DomainError(f"--{name} must be finite, got {x}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_finite(args)
        return args.func(args)
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (OverflowError, ZeroDivisionError) as exc:
        # finite inputs whose derived quantities do not fit in a float: an
        # overflow such as g0 = (2 gamma/hbar)^2, a divisor that underflowed
        # to 0, or a profile evaluated at its pole
        print(f"error: a derived quantity left the float range ({exc.args[-1]})",
              file=sys.stderr)
        return EXIT_DOMAIN
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
