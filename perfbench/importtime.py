"""Parse the log that ``python -X importtime`` writes to stderr.

Each line reads ``import time: <self us> | <cumulative us> | <indent><name>``
with two spaces of indent per nesting level; a module's line follows the
lines of the modules it imported.
"""
from __future__ import annotations

from dataclasses import dataclass, field

_PREFIX = "import time:"


@dataclass
class Entry:
    name: str
    self_us: int
    cumulative_us: int
    children: list["Entry"] = field(default_factory=list)


def parse_importtime(stderr: str) -> list[Entry]:
    """Top-level entries of an importtime log, children attached."""
    pending: dict[int, list[Entry]] = {}
    for line in stderr.splitlines():
        if not line.startswith(_PREFIX):
            continue
        fields = line[len(_PREFIX):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the column header
        raw = fields[2][1:]
        level = (len(raw) - len(raw.lstrip(" "))) // 2
        entry = Entry(raw.strip(), int(fields[0]), int(fields[1]), pending.pop(level + 1, []))
        pending.setdefault(level, []).append(entry)
    return pending.get(0, [])


def _walk(entries: list[Entry]):
    for e in entries:
        yield e
        yield from _walk(e.children)


def _in_package(name: str, package: str) -> bool:
    return name == package or name.startswith(package + ".")


def package_cumulative_s(roots: list[Entry], package: str) -> float:
    """Seconds spent importing ``package``: the cumulative time of each
    outermost entry that belongs to it."""
    total, stack = 0, list(roots)
    while stack:
        e = stack.pop()
        if _in_package(e.name, package):
            total += e.cumulative_us
        else:
            stack.extend(e.children)
    return total * 1e-6


def package_self_s(roots: list[Entry], package: str) -> float:
    """Seconds spent in the module bodies of ``package`` alone."""
    return sum(e.self_us for e in _walk(roots) if _in_package(e.name, package)) * 1e-6


def top_level_total(roots: list[Entry], exclude: set[str] = frozenset()) -> float:
    """Seconds of all top-level imports except those named in ``exclude``
    (the interpreter's own start-up imports)."""
    return sum(e.cumulative_us for e in roots if e.name not in exclude) * 1e-6
