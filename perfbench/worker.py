"""Run one benchmark workload in this interpreter and print one JSON line.

The driver (``run.py``) starts this file in a fresh interpreter per
measurement, so peak memory and import time never carry over between
workloads.  The timeline is: import carpetlab from the checkout's ``src``
(timed as ``cli.import_s``), set up the workload's given inputs, note the
moment of the first timed call (``t_ready``, a system-wide monotonic clock the
driver compares with its spawn time), then run timed passes until
``--seconds`` have elapsed.

With ``--trace 1`` passes alternate untraced and traced; the traced ones
record spans around every call into carpetlab, and the difference of the two
medians is the tracing overhead.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import sys
import time
from collections import Counter
from types import SimpleNamespace

from spans import Tracer, peak_rss_mb, totals_by_run

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
LAYERS = ("geometry", "cellgraph", "walks", "spectral", "bricks", "heat", "cli")


class Bench:
    """Runs operations (timed calls into one layer) and counts their failures."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.attempted = 0
        self.failed: Counter = Counter()

    def op(self, name: str, call, check=None, count=None):
        """Call ``call()`` under a span named ``name``; None if it failed.

        ``check(result)`` returns None or a one-line problem; ``count(result)``
        returns counters for the span.  A raise or a problem counts one
        failure against the layer (the part of ``name`` before the dot), and
        the run goes on.
        """
        self.attempted += 1
        try:
            with self.tracer.span(name) as span:
                result = call()
            if count is not None:
                span.counters.update(count(result))
            problem = check(result) if check is not None else None
        except Exception as exc:  # any failure of the call is a result to count
            result, problem = None, f"{type(exc).__name__}: {exc}"
        if problem:
            self.fail(name, problem)
            return None
        return result

    def fail(self, name: str, problem: str) -> None:
        self.failed[name.split(".")[0]] += 1
        print(f"FAIL {name}: {problem}", file=sys.stderr)

    def guarded(self, name: str, body) -> None:
        """Run set-up or pass glue; an escaping error is one failure, not a crash."""
        try:
            body()
        except Exception as exc:
            self.attempted += 1
            self.fail(name, f"{type(exc).__name__}: {exc}")


def import_carpetlab() -> float:
    """Import carpetlab from the checkout; refuse any other copy."""
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import carpetlab.cli  # noqa: F401  (imports every module of the package)
    elapsed = time.perf_counter() - t0
    origin = os.path.abspath(sys.modules["carpetlab"].__file__)
    if not origin.startswith(SRC + os.sep):
        raise SystemExit(f"carpetlab imported from {origin}, not from {SRC}")
    return elapsed


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
    }


def run_workload(name: str, *, seed: int, seconds: float, trace: bool,
                 small: bool, reference: dict, work: str,
                 setup_only: bool = False, import_s: float = 0.0) -> dict:
    """Set up ``name`` and run timed passes; carpetlab must be importable."""
    import workloads as wl

    b = Bench()
    ctx = SimpleNamespace(small=small, top=2 if small else 3, reference=reference,
                          work=work, src=SRC, inputs=wl.draw_inputs(seed, small))
    b.tracer.enabled, b.tracer.run = trace, "setup"
    with b.tracer.span("bench.setup"):
        b.guarded("setup", lambda: wl.SETUP[name](b, ctx))
    t_ready = time.monotonic()
    if setup_only:
        return {"t_ready": t_ready, "attempted": b.attempted,
                "failed": sum(b.failed.values())}

    passes, first_peak = [], None
    deadline = time.perf_counter() + seconds
    while True:
        # traced passes come first, so the first one sees memory grow
        traced = trace and len(passes) % 2 == 0
        b.tracer.enabled, b.tracer.run = traced, f"pass{len(passes)}"
        t0 = time.perf_counter()
        with b.tracer.span("bench.pass"):
            b.guarded("pass", lambda: wl.PASS[name](b, ctx))
        passes.append({"traced": traced, "seconds": time.perf_counter() - t0})
        if first_peak is None:  # set-up plus one pass, however many passes fit
            first_peak = peak_rss_mb()
        if time.perf_counter() >= deadline and len(passes) >= (2 if trace else 1):
            break

    result = {
        "t_ready": t_ready,
        "passes": passes,
        "attempted": b.attempted,
        "failed": sum(b.failed.values()),
        "peak_rss_mb": first_peak,
    }
    if trace:
        result["per_layer"] = layer_metrics(b, passes, import_s)
        result["spans"] = b.tracer.as_json()
    return result


def layer_metrics(b: Bench, passes: list[dict], import_s: float) -> dict:
    """Per-layer numbers of a traced run: set-up totals plus traced-pass medians."""
    runs = totals_by_run(b.tracer.spans)
    setup = runs.pop("setup", {})
    keys = set(setup).union(*runs.values())
    out = {key: setup.get(key, 0.0)
           + statistics.median(row.get(key, 0.0) for row in runs.values())
           for key in keys}
    rates = [row.get("walks.path_steps", 0) / row["walks.simulate_s"]
             for row in runs.values() if row.get("walks.simulate_s")]
    out["walks.steps_per_s"] = statistics.median(rates) if rates else 0.0
    out["cli.import_s"] = import_s
    for layer in LAYERS:
        out[f"{layer}.failed"] = b.failed[layer]
        # later passes only repeat the first one's high-water mark
        out[f"{layer}.rss_mb"] = max(
            (s.rss_mb for s in b.tracer.spans
             if s.run in ("setup", "pass0") and s.name.startswith(layer + ".")),
            default=0.0)
    traced = statistics.median(p["seconds"] for p in passes if p["traced"])
    untraced = statistics.median(p["seconds"] for p in passes if not p["traced"])
    out["trace.run_s"] = traced
    out["trace.overhead_s"] = traced - untraced
    out["fail_frac"] = sum(b.failed.values()) / max(b.attempted, 1)
    return out


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--work", required=True)
    args = p.parse_args(argv)

    import_s = import_carpetlab()
    with open(os.path.join(HERE, "reference.json")) as f:
        reference = json.load(f)
    result = run_workload(args.workload, seed=args.seed, seconds=args.seconds,
                          trace=bool(args.trace), small=args.small,
                          reference=reference, work=args.work,
                          setup_only=args.setup_only, import_s=import_s)
    if not args.setup_only:
        result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
