"""In-memory spans and counters recorded around the benchmark's calls into carpetlab.

A span has a name, a start and an end (``time.perf_counter`` seconds), the id
of the span that encloses it, and the id of the run (one timed pass, or the
set-up) that it belongs to.  Counters recorded at the same boundary ride on the
span.  Nothing is written until the caller serializes ``Tracer.spans`` at the
end of the run.
"""

from __future__ import annotations

import resource
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


def peak_rss_mb() -> float:
    """High-water resident memory of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Span:
    id: int
    name: str
    run: str
    parent: int | None
    start: float
    end: float = 0.0
    rss_mb: float = 0.0
    counters: dict = field(default_factory=dict)


class Tracer:
    """Records nested spans while ``enabled``; otherwise spans are discarded.

    Disabled spans still hand a scratch ``Span`` to the caller, so code that
    attaches counters runs unchanged whether tracing is on or off.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.enabled = False
        self.run = ""
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield Span(-1, name, self.run, None, 0.0)
            return
        sp = Span(len(self.spans), name, self.run,
                  self._open[-1] if self._open else None, time.perf_counter())
        self.spans.append(sp)
        self._open.append(sp.id)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            sp.rss_mb = peak_rss_mb()
            self._open.pop()

    def as_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval that children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children[s.id], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def totals_by_run(spans: list[Span]) -> dict[str, dict[str, float]]:
    """run -> {span name -> summed self time, counter name -> summed count}.

    Counter keys are the counter names themselves (``cellgraph.vertices``);
    time keys are the span name with an ``_s`` suffix.
    """
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        row = out[s.run]
        row[s.name + "_s"] += selfs[s.id]
        for key, value in s.counters.items():
            row[key] += value
    return out
