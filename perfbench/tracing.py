"""Spans recorded by the benchmark around its calls into entrogeo.

A span's name is ``<layer>.<call>``; the layer is the entrogeo module
called (``import``, ``cli``, ``schemes``, ``geometry``, ``pathmetrics``,
``efficiency``, ``thermo``, ``verify``), or ``op`` for the root span of
one benchmark op.  Spans stay in memory until the run ends.
"""
from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Records nested spans; ``op`` tags each with the current op id."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = -1

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        self._stack.append(sid)
        try:
            yield sid
        finally:
            self._stack.pop()
            self.spans[sid].end = time.perf_counter()

    def record(self, name: str, start: float, end: float, parent: int) -> None:
        """Add a span timed elsewhere, such as inside a child process."""
        self.spans.append(Span(name, start, end, parent, self.op))

    def wrap(self, name: str, fn):
        """``fn`` with each call recorded as a span called ``name``."""
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Per layer: total self time in seconds and span count.

        Self time is a span's duration minus the durations of its direct
        children, which never overlap one another.
        """
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for s, c in zip(self.spans, covered):
            out[s.layer][0] += (s.end - s.start) - c
            out[s.layer][1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


class NullTracer:
    """Stand-in for untraced ops: ``span`` records nothing."""

    enabled = False
    op = -1
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null
