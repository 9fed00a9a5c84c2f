"""In-memory span recorder for the traced benchmark run.

A span is one call into a pipeline layer: its name, start and end on
the process's ``perf_counter`` clock, the span that was open when it
began (its parent), and the CPU time the process tree spent inside it
(this process's threads plus every child process reaped meanwhile, so
forked pool workers count once they are joined).  Spans live in a list
until :meth:`Tracer.dump` writes them out, so recording costs two
clock reads and a list append per call.

Stdlib only: importing this module must not pull in ``repro`` or
numpy, because the traced child times ``import repro`` itself.
"""

from __future__ import annotations

import contextlib
import json
import resource
import time
from collections import defaultdict
from typing import Dict, List


def _cpu_seconds() -> float:
    """CPU time of this process plus its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Tracer:
    """Records nested spans and per-layer counters."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Time the enclosed block as one span named ``name``.

        Yields the span's record, so the caller may rename it once the
        outcome is known (a store lookup becomes a hit or a miss).
        """
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        cpu = _cpu_seconds()
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            record["cpu_s"] = _cpu_seconds() - cpu
            record["wall_s"] = record["end"] - record["start"]
            self._open.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans,
                       "counters": dict(self.counters)}, handle)


def self_times(spans: List[dict]) -> Dict[str, float]:
    """Total self time per span name.

    A span's self time is its duration minus the time its direct
    children cover.  Spans nest strictly (they come from ``with``
    blocks on one thread), so the children's intervals never overlap
    and their durations can simply be summed.
    """
    child_time: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["wall_s"]
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span["name"]] += span["wall_s"] - child_time[span["id"]]
    return dict(totals)


def inclusive(spans: List[dict], name: str,
              field: str = "wall_s") -> float:
    """Sum of ``field`` over every span called ``name``."""
    return sum(span[field] for span in spans if span["name"] == name)

