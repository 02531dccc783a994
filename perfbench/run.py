"""entrogeo benchmark: four closed-loop workloads, end-to-end metrics and a
traced run with per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lib-sweep --seed 1 --seconds 18 --trace 0

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every
per-layer metric, each with its unit; the last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  See README.md
for the workloads and what each metric should respond to.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli-cold", "lib-sweep", "emit-large", "verify-suite")
#: set-ups per timed run; set_up_s is their median
SETUPS = 3
#: a run must end within this many seconds
DEADLINE_S = 170.0


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def host_record(args) -> dict:
    """Host and provenance of this result."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "missing"

    init = (ROOT / "src" / "entrogeo" / "__init__.py").read_text()
    m = re.search(r'__version__ = "([^"]+)"', init)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "entrogeo": m.group(1) if m else "unknown",
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": {"PYTHONPATH": "src", "ENTROGEO_THREADS": "unset",
                "PYTHONDONTWRITEBYTECODE": "unset"},
    }


def git_commit() -> str:
    """HEAD's commit read from .git, or 'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn_worker(args, role: str, deadline: float) -> tuple[float, dict]:
    """Start worker.py; return its start time and its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("ENTROGEO_THREADS", None)
    # Cache bytecode as a default interpreter does, so every start after
    # the first loads entrogeo's .pyc files whatever the caller's shell sets.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--role", role, "--setups", str(args.setups),
           "--root", str(ROOT)]
    if args.smoke:
        cmd.append("--smoke")
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{args.workload} worker ran past the deadline") from None
    if proc.returncode != 0:
        raise RuntimeError(f"{args.workload} worker exited {proc.returncode}")
    lines = [ln for ln in out.splitlines() if ln.strip()]
    return started, json.loads(lines[-1])


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its
    value; the minimum (percentile 0) when there are ten samples or fewer."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return 0.0, xs[0]
    return 100.0 * (n - 10) / n, xs[n - 11]


def mix_means(records: list, mix: list[str]) -> tuple[float, float, float]:
    """Seconds, CPU seconds and bytes per op, averaged per op class and
    weighted by the fixed mix, so a partly run cycle does not shift them."""
    by_class: dict[str, list] = {}
    for cls, lat, cpu, written, _, _ in records:
        by_class.setdefault(cls, []).append((lat, cpu, written))
    lat = cpu = written = 0.0
    for cls in mix:
        rows = by_class[cls]
        lat += statistics.fmean(r[0] for r in rows) / len(mix)
        cpu += statistics.fmean(r[1] for r in rows) / len(mix)
        written += statistics.fmean(r[2] for r in rows) / len(mix)
    return lat, cpu, written


def end_to_end(setups: list[float], run: dict, report: list[str]) -> dict:
    records = [r for r in run["records"] if not r[5]]
    lats = [r[1] for r in records]
    lat, cpu, written = mix_means(records, run["mix"])
    pct, tail_s = tail(lats)
    report.append(f"setup_s is the median of {len(setups)} set-ups: "
                  + ", ".join(f"{s:.4f}" for s in setups))
    report.append(f"op_p50_ms over n={len(lats)} ops; op_tail_ms is p{pct:.1f} of n={len(lats)}")
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (1.0 / lat, "1/s"),
        "op_p50_ms": (statistics.median(lats) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "cpu_per_op_ms": (cpu * 1e3, "ms"),
        "peak_rss_mb": (run["peak_rss_kb"] * 1024 / 1e6, "MB"),
        "out_mb_per_s": (written / lat / 1e6, "MB/s"),
    }


def per_layer(run: dict, report: list[str]) -> dict:
    plain = [r[1] for r in run["records"] if not r[5]]
    traced = [r[1] for r in run["records"] if r[5]]
    ratio = statistics.fmean(traced) / statistics.fmean(plain)
    report.append(f"tracing overhead: untraced ops_per_s / traced ops_per_s = {ratio:.4f} "
                  f"over {len(traced)} op pairs")
    n_ops = max(1, len(traced))
    total = sum(s for s, _ in run["self_times"].values())
    for layer, (self_s, spans) in sorted(run["self_times"].items(), key=lambda kv: -kv[1][0]):
        report.append(f"self time {layer:12s} {self_s / n_ops * 1e3:10.4f} ms/op "
                      f"{100 * self_s / total:6.2f}%  {spans} spans")
    metrics = {"trace.overhead_ratio": (ratio, "ratio")}
    for name, (value, unit, calls) in run["probes"].items():
        metrics[name] = (value, unit)
        report.append(f"layer {name} = {value:.6g} {unit} over {calls} calls")
    return metrics


def write_trace(args, host: dict, run: dict) -> Path:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{args.workload}-seed{args.seed}.json"
    doc = {"host": host, "self_times": run["self_times"],
           "layers": {k: dict(zip(("value", "unit", "calls"), v))
                      for k, v in run["probes"].items()},
           "spans": run["spans"]}
    path.write_text(json.dumps(doc))
    return path


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs and one set-up, for the harness self-test")
    args = p.parse_args(argv)
    args.setups = 1 if args.smoke or args.trace else SETUPS
    if not (ROOT / "src" / "entrogeo" / "cli.py").is_file():
        return fail(f"no entrogeo sources under {ROOT / 'src'}")
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    deadline = time.monotonic() + DEADLINE_S

    host = host_record(args)
    report = [f"host: {json.dumps(host)}"]
    # In-process set-up runs from the worker's start, so each sample is
    # its own worker; cli-cold repeats its set-up inside one worker.
    in_process = args.workload != "cli-cold"
    extra = args.setups - 1 if in_process and not args.trace else 0
    try:
        workers = [spawn_worker(args, "setup", deadline) for _ in range(extra)]
        workers.append(spawn_worker(args, "run", deadline))
    except RuntimeError as exc:
        return fail(str(exc))
    run = workers[-1][1]
    if in_process:
        setups = [res["ready_at"] - started for started, res in workers]
    else:
        setups = run["setup_samples"]
    attempted = sum(res["attempted"] for _, res in workers)
    failures = [msg for _, res in workers for msg in res["failures"]]

    if run["seed_note"]:
        report.append(f"note: {run['seed_note']}")
    if args.trace:
        metrics = per_layer(run, report)
        report.append(f"trace written to {write_trace(args, host, run).relative_to(ROOT)}")
    else:
        metrics = end_to_end(setups, run, report)
    failed = len(failures)
    report.append(f"fail_ratio = {failed / attempted:.6f} ({failed} of {attempted} attempted)")
    for msg in failures[:10]:
        report.append(f"FAILED {msg}")
    for name, (value, unit) in metrics.items():
        report.append(f"metric {name} = {value!r} {unit}")
    print("\n".join(report))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
