"""carpetlab benchmark driver: one workload, measured in fresh interpreters.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload build --seed 1 --seconds 20 --trace 0

Workloads are ``build``, ``constants``, ``walk`` and ``certify`` (see
``workloads.py`` for what each one stresses and why).  The driver starts five
or more interpreters (``worker.py``) one at a time; each sets up, and together
they run timed passes for ``--seconds`` (see ``measure``).  It prints a report,
then as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The full result, with the environment
record and (traced runs) every span, is written under ``perfbench/out/``.

``--small`` runs every workload at levels <= 2, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from worker import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("build", "constants", "walk", "certify")
# An untraced run starts at least SETUPS workers, and more (up to MAX_SETUPS)
# while their set-ups add up to less than SETUP_SAMPLE_S; setup_s is the median.
SETUPS, MAX_SETUPS, SETUP_SAMPLE_S = 5, 11, 2.5
RUN_LIMIT = 170.0  # seconds for all workers of one run together
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER = {
    **{f"geometry.{k}_s": "s" for k in ("parse_spec", "validate")},
    **{f"cellgraph.{k}_s": "s"
       for k in ("build_graph", "build_graph_n4", "build_wall", "save", "load")},
    "cellgraph.vertices": "count",
    "cellgraph.edges": "count",
    **{f"walks.{k}_s": "s"
       for k in ("build_kernel", "exact_check", "mean_hitting", "simulate")},
    "walks.path_steps": "count",
    "walks.steps_per_s": "1/s",
    **{f"spectral.{k}_s": "s"
       for k in ("poincare", "resistance", "face_gap", "pinned_gap", "scaling_fit")},
    "spectral.iterations": "count",
    **{f"bricks.{k}_s": "s" for k in ("ramp", "boundary_linear", "cutoff")},
    "bricks.certificates": "count",
    **{f"heat.{k}_s": "s" for k in ("rows", "subgaussian_fit", "ball_checks", "besov")},
    **{f"cli.{k}_s": "s" for k in ("import", "validate", "graph_cold", "graph_warm")},
    **{f"{layer}.failed": "count" for layer in LAYERS},
    **{f"{layer}.rss_mb": "MiB" for layer in LAYERS},
    "bench.setup_s": "s",
    "bench.pass_s": "s",
    "fail_frac": "ratio",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
}


def child_env() -> tuple[dict, int]:
    """Environment for the workers: BLAS/OpenMP threads capped at nproc."""
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in THREAD_CAPS:
        try:
            cap = min(int(env.get(var, nproc)), nproc)
        except ValueError:
            cap = nproc
        env[var] = str(max(cap, 1))
    return env, nproc


def git_sha() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_child(cmd: list[str], env: dict, deadline: float) -> tuple[float, dict]:
    """Run one worker to completion; return its spawn time and its JSON line."""
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - t_spawn, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and its CLI children
        proc.communicate()
        raise SystemExit(f"worker passed the {RUN_LIMIT:.0f} s run limit: {cmd}")
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with {proc.returncode}: {cmd}")
    return t_spawn, json.loads(out.strip().splitlines()[-1])


def measure(base: list[str], env: dict, seconds: float, trace: int) -> list:
    """(spawn time, result) of each worker, run one at a time.

    Untraced: the first SETUPS workers share ``seconds`` of timed passes, so
    the passes come from several processes; once the time is used up the rest
    only set up.  Traced: one worker runs every pass, so all spans share a clock.
    """
    deadline = time.monotonic() + RUN_LIMIT
    if trace:
        return [run_child(base + ["--seconds", str(seconds)], env, deadline)]
    children, spent, sampled = [], 0.0, 0.0
    while len(children) < SETUPS or (sampled < SETUP_SAMPLE_S
                                     and len(children) < MAX_SETUPS):
        if spent < seconds:
            cmd = base + ["--seconds", str(seconds / SETUPS)]
        else:
            cmd = base + ["--setup-only", "--seconds", "0"]
        t_spawn, result = run_child(cmd, env, deadline)
        children.append((t_spawn, result))
        spent += sum(q["seconds"] for q in result.get("passes", []))
        sampled += result["t_ready"] - t_spawn
    return children


def tail_note(samples: list[float]) -> str:
    """Median, count, and the highest percentile with >= 10 samples beyond it."""
    n = len(samples)
    note = f"median {statistics.median(samples):.4f} s over {n} passes"
    for p in (99.9, 99.0, 90.0, 50.0):
        if n * (100.0 - p) / 100.0 >= 10:
            value = sorted(samples)[math.ceil(p / 100.0 * n) - 1]
            return f"{note}; p{p:g} {value:.4f} s"
    return f"{note}; no percentile has 10 samples beyond it"


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="carpetlab benchmark driver")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--small", action="store_true",
                   help="levels <= 2 only (the benchmark's own tests)")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "carpetlab", "__init__.py")):
        print(f"error: no carpetlab sources under {ROOT}/src", file=sys.stderr)
        return 2
    env, nproc = child_env()
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=OUT)
    base = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--trace", str(args.trace), "--work", work] + (
                ["--small"] if args.small else [])
    try:
        children = measure(base, env, args.seconds, args.trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    measuring = [c for _, c in children if "passes" in c]
    passes = [q for c in measuring for q in c["passes"]]
    untraced = [q["seconds"] for q in passes if not q["traced"]]
    if args.trace:
        measured, table = measuring[0]["per_layer"], PER_LAYER
    else:
        measured = {"run_s": statistics.median(untraced),
                    "setup_s": statistics.median(c["t_ready"] - t for t, c in children),
                    "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in measuring)}
        table = END_TO_END
    metrics = {name: {"value": measured.get(name, 0.0), "unit": unit}
               for name, unit in table.items()}
    env_record = {"git": git_sha(), "nproc": nproc,
                  "thread_caps": {v: env[v] for v in THREAD_CAPS},
                  **measuring[0]["env"]}
    attempted = sum(c["attempted"] for _, c in children)
    failed = sum(c["failed"] for _, c in children)
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": metrics}

    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    with open(os.path.join(OUT, tag + ".json"), "w") as f:
        json.dump({**summary, "env": env_record, "passes": passes,
                   "setup_samples": [c["t_ready"] - t for t, c in children],
                   "spans": measuring[0].get("spans", [])}, f)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + json.dumps(env_record, sort_keys=True))
    print(f"run_s: {tail_note(untraced)}")
    print(f"operations: {attempted} attempted, {failed} failed")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(f"result and spans: {os.path.relpath(os.path.join(OUT, tag + '.json'), ROOT)}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
