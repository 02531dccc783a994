"""One benchmark process: set a workload up, then (role ``run``) run its
closed loop and, when traced, its spans and the per-layer probes.

``run.py`` starts this file with PYTHONPATH pointing at the checkout's
``src`` and prints the JSON line this writes last on stdout.
"""
from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import CheckFailed  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NULL = NullTracer()


def _cpu_s() -> float:
    """User + system CPU of this process and its reaped children."""
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


class Loop:
    """Runs ops and keeps one record per attempted op."""

    def __init__(self, wl):
        self.wl = wl
        self.records: list[list] = []  # [class, latency_s, cpu_s, bytes, ok, traced]
        self.failures: list[str] = []

    def attempt(self, i: int, tracer) -> float:
        wl = self.wl
        wl.prepare(i)
        tracer.op = i
        ok, written, out, sid = True, 0, None, None
        c0, t0 = _cpu_s(), time.perf_counter()
        try:
            if tracer.enabled:
                with tracer.span(f"op.{wl.name}") as sid:
                    out = wl.run(i, tracer)
            else:
                out = wl.run(i, tracer)
        except Exception as exc:  # the op failed: count it and keep going
            ok = False
            self.failures.append(f"op {i}: {type(exc).__name__}: {exc}")
        latency, cpu = time.perf_counter() - t0, _cpu_s() - c0
        if ok:
            try:
                written = wl.check(i, out)
            except CheckFailed as exc:
                ok = False
                self.failures.append(f"op {i}: {exc}")
            except Exception as exc:
                ok = False
                self.failures.append(f"op {i}: check raised {type(exc).__name__}: {exc}")
            if tracer.enabled:
                wl.annotate(i, out, tracer, sid)
        self.records.append([wl.op_class(i), latency, cpu, written, ok, tracer.enabled])
        return latency

    def run(self, seconds: float, tracer) -> None:
        """Ops until ``seconds`` of op time are measured and every class
        of the mix has run.  Traced runs pair each op: once plain, then the
        same op traced, so the two modes see the same inputs."""
        measured, i, seen = 0.0, 0, set()
        while measured < seconds or len(seen) < len(set(self.wl.mix)):
            measured += self.attempt(i, NULL)
            if tracer.enabled:
                measured += self.attempt(i, tracer)
            seen.add(self.wl.op_class(i))
            i += 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("setup", "run"), required=True)
    p.add_argument("--setups", type=int, default=1)
    p.add_argument("--root", required=True)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)

    root = Path(args.root)
    outputs = HERE / ".work"
    outputs.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=outputs))
    try:
        return _work(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _work(args, root: Path, workdir: Path) -> int:
    wl = WORKLOADS[args.workload](root, workdir, args.seed, args.smoke)
    loop = Loop(wl)
    result: dict = {"setup_samples": []}
    # Set-up: the imports (in-process workloads), inputs from the seed and
    # one untimed warm-up op.  The parent times in-process set-up from the
    # moment it started this process; cli-cold times it here, repeatedly.
    for _ in range(1 if wl.in_process else args.setups):
        t0 = time.monotonic()
        wl.setup()
        warm = Loop(wl)
        warm.attempt(0, NULL)
        result["setup_samples"].append(time.monotonic() - t0)
        loop.failures += warm.failures
    attempted = len(result["setup_samples"])
    result["ready_at"] = time.monotonic()
    if args.role == "run":
        tracer = Tracer() if args.trace else NULL
        loop.run(args.seconds, tracer)
        if args.trace:
            from probes import Probes
            probes = Probes(root, workdir, args.smoke)
            result["probes"] = probes.run_all()
            attempted += probes.checked
            loop.failures += probes.failures
            result["self_times"] = tracer.self_times()
            result["spans"] = tracer.dump()
    wl.close()
    result["records"] = loop.records
    result["failures"] = loop.failures
    result["attempted"] = attempted + len(loop.records)
    result["peak_rss_kb"] = resource.getrusage(
        resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN).ru_maxrss
    result["seed_note"] = wl.seed_note
    result["mix"] = list(wl.mix)
    sys.stdout.write("\n" + json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
