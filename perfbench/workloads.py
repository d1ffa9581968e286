"""The four benchmark workloads: set-up, one timed pass, and output checks.

Each workload stresses one layer and leaves the others almost idle, so that a
change to one layer shows on one workload and is predicted to leave the rest
unchanged:

* ``build``: construction and exact ``Fraction`` arithmetic, from scratch,
  up to level 4 of ``carpet26`` (456,976 vertices), with ``offgrid158`` to
  keep the off-grid threshold contacts in play, and the CLI end to end.
* ``constants``: a few large spectral solves on prebuilt graphs.
* ``walk``: the Monte Carlo sampling loop on prebuilt kernels.
* ``certify``: many small pinned systems plus exact brick certificates, and
  the heat-kernel, ball and Besov checks.

Every call into carpetlab goes through ``Bench.op``, which times it, counts it
and checks its output.  Checks use only bounds the repository already pins:
exact residuals are exactly 0, counts and constants match ``reference.json``
(relative tolerance 1e-8, the dense-versus-iterative agreement that
``tests/test_spectral.py`` pins), and the Monte Carlo, brick, heat, ball and
Besov checks are those of the acceptance gate.

The workload seed drives every random choice (simulate seeds, start vertices,
cutoff words, heat sources) through ``draw_inputs``; the program receives only
the drawn inputs.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
from scipy.sparse.csgraph import shortest_path

import carpetlab as cl
from carpetlab.bricks import BrickWorkspace, build_cutoff
from carpetlab.cellgraph import (
    build_graph,
    build_wall,
    load_graph,
    save_graph,
    walk_measure,
)
from carpetlab.geometry import locate_word, validate
from carpetlab.heat import (
    admissible_centers,
    ball_checks,
    besov_comparison,
    diffusive_window,
    heat_rows,
    subgaussian_fit,
)
from carpetlab.spectral import (
    face_gap_constants,
    face_resistance,
    face_resistance_upper_check,
    pinned_face_gap,
    poincare_constant,
    scaling_fit,
)
from carpetlab.walks import (
    build_kernel,
    build_wall_kernel,
    coupling_check,
    fiber_distribution,
    mean_hitting,
    oscillation_stats,
    reversibility_residual,
    simulate,
    stochasticity_residual,
    wall_bottom_mask,
    wilson_lower_bound,
)

REL_TOL = 1e-8
CUTOFF_WORDS = 6  # level-1 words per cutoff level (2 in small mode)


# ---------------------------------------------------------------------------
# checks: each returns None when the output is right, else a one-line problem
# ---------------------------------------------------------------------------


def close(what: str, value: float, ref: float) -> str | None:
    rel = abs(value - ref) / abs(ref)
    if rel <= REL_TOL:
        return None
    return f"{what} = {value!r}, reference {ref!r} (relative error {rel:.1e})"


def is_zero(what: str):
    return lambda value: None if value == 0 else f"{what} residual {value} != 0"


def graph_counts(g) -> dict:
    return {"cellgraph.vertices": g.num_vertices,
            "cellgraph.edges": len(g.indices) // 2}


def counts_match(ref: dict):
    def check(g):
        got = {"vertices": g.num_vertices, "edges": len(g.indices) // 2}
        return None if got == ref else f"counts {got} != reference {ref}"
    return check


def same_arrays(g):
    def check(h):
        for key in ("indptr", "indices", "corners", "grid_word"):
            if not np.array_equal(getattr(g, key), getattr(h, key)):
                return f"loaded {key} differs from the built graph"
        return None
    return check


def certificates_pass(brick) -> str | None:
    bad = [k for k, c in brick.certificates.items() if not c.get("pass")]
    return f"certificates failed: {bad}" if bad else None


def certificate_count(brick) -> dict:
    return {"bricks.certificates": sum(bool(c.get("pass"))
                                       for c in brick.certificates.values())}


def iterations(*infos) -> dict:
    return {"spectral.iterations": sum(i.iterations for i in infos)}


def path_steps(sim) -> dict:
    """Steps until each path met every stopping condition (horizon if censored)."""
    times = list(sim.first_hits.values())
    if sim.osc_times is not None:
        times.append(sim.osc_times[:, -1])
    stacked = np.stack(times)
    stop = np.where((stacked >= 0).all(axis=0), stacked.max(axis=0),
                    sim.horizon)
    return {"walks.path_steps": int(stop.sum())}


# ---------------------------------------------------------------------------
# seed-driven inputs
# ---------------------------------------------------------------------------


def draw_inputs(seed: int, small: bool) -> SimpleNamespace:
    """Every random choice of every workload, from the workload seed alone."""
    rng = random.Random(seed)
    faces = [(axis, side) for axis in range(3) for side in (0, 1)]
    return SimpleNamespace(
        walk_seed=rng.getrandbits(63),
        wall_seed=rng.getrandbits(63),
        start_rank=rng.random(),  # position on the far face
        wall_rank=rng.random(),
        words={n: sorted(rng.sample(range(26), 2 if small else CUTOFF_WORDS))
               for n in (1, 2)},
        heat_corner=rng.choice(list(itertools.product((0, 1), repeat=3))),
        heat_faces=rng.sample(faces, 2),
    )


def pick(mask: np.ndarray, rank: float) -> int:
    idx = np.nonzero(mask)[0]
    return int(idx[int(rank * len(idx))])


# ---------------------------------------------------------------------------
# build: construction and exact checks from scratch
# ---------------------------------------------------------------------------


def setup_build(b, ctx) -> None:
    prebuild(b, ctx, {"carpet26": (), "offgrid158": ()})
    top = ctx.top
    ctx.levels = {"carpet26": range(1, top + 1) if ctx.small else (1, 2, 3, 4),
                  "offgrid158": range(1, top)}
    ctx.wall = (1, top - 1)


def pass_build(b, ctx) -> None:
    work = tempfile.mkdtemp(dir=ctx.work)
    try:
        build_from_scratch(b, ctx, work)
        cli_pass(b, ctx, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def build_from_scratch(b, ctx, work: str) -> None:
    ref = ctx.reference["graphs"]
    graphs, kernels = {}, {}
    for name, levels in ctx.levels.items():
        spec = ctx.specs[name]
        b.op("geometry.validate", lambda: validate(spec),
             check=lambda r: None if r.passed else "validation failed")
        for n in levels:
            key = f"{name}_n{n}"
            g = b.op("cellgraph.build_graph_n4" if n == 4 else "cellgraph.build_graph",
                     lambda: build_graph(spec, n),
                     check=counts_match(ref[key]), count=graph_counts)
            path = os.path.join(work, key + ".graph")
            b.op("cellgraph.save", lambda: save_graph(g, path))
            b.op("cellgraph.load", lambda: load_graph(spec, path),
                 check=same_arrays(g))
            # build_kernel itself decides the exact row sums and raises on a
            # nonzero residual; the separate stochasticity pass is skipped at
            # level 4 only, where it would add ~5 s of Fraction arithmetic.
            k = b.op("walks.build_kernel", lambda: build_kernel(g))
            if n < 4:
                b.op("walks.exact_check", lambda: stochasticity_residual(k),
                     check=is_zero("stochasticity"))
            b.op("walks.exact_check", lambda: reversibility_residual(k),
                 check=is_zero("reversibility"))
            graphs[key], kernels[key] = g, k
    m, n = ctx.wall
    cell = graphs[f"carpet26_n{n}"]
    wall = b.op("cellgraph.build_wall",
                lambda: build_wall(ctx.specs["carpet26"], m, n, cell_graph=cell),
                check=counts_match(ref[f"wall_{m}_{n}"]), count=graph_counts)
    wk = b.op("walks.build_kernel", lambda: build_wall_kernel(wall))
    b.op("walks.exact_check", lambda: stochasticity_residual(wk),
         check=is_zero("wall stochasticity"))
    b.op("walks.exact_check", lambda: reversibility_residual(wk),
         check=is_zero("wall reversibility"))
    b.op("walks.exact_check",
         lambda: coupling_check(wk, kernels[f"carpet26_n{n}"])["exact_residual"],
         check=is_zero("coupling"))


def cli_pass(b, ctx, work: str) -> None:
    """Cold validate, cold graph and warm (cache-hit) graph, each a fresh CLI process."""
    level = ctx.top
    spec = os.path.join(ctx.src, "carpetlab", "configs", "carpet26.json")
    env = dict(os.environ, PYTHONPATH=ctx.src)

    def cli(out: str, *argv: str):
        return subprocess.run(
            [sys.executable, "-m", "carpetlab.cli", "--spec", spec, "--out", out,
             *argv], env=env, capture_output=True, text=True, timeout=150)

    def ok_validate(proc):
        if proc.returncode != 0:
            return f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
        return "a condition failed" if "FAIL" in proc.stdout else None

    ref = ctx.reference["graphs"][f"carpet26_n{level}"]
    cache = os.path.join(work, "cli", "cache")
    stamp = {}

    def ok_graph(warm: bool):
        def check(proc):
            if proc.returncode != 0:
                return f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
            stats = json.loads(proc.stdout.splitlines()[-1])
            got = {"vertices": stats["vertices"], "edges": stats["edges"]}
            if got != ref:
                return f"counts {got} != reference {ref}"
            files = sorted(os.listdir(cache))
            seen = {f: os.stat(os.path.join(cache, f)).st_mtime_ns for f in files}
            if warm and seen != stamp:
                return "warm run rewrote the graph cache instead of loading it"
            stamp.update(seen)
            return None if files else "no graph cache written"
        return check

    b.op("cli.validate", lambda: cli(os.path.join(work, "cli_validate"), "validate"),
         check=ok_validate)
    out = os.path.join(work, "cli")
    b.op("cli.graph_cold", lambda: cli(out, "graph", "--level", str(level)),
         check=ok_graph(False))
    b.op("cli.graph_warm", lambda: cli(out, "graph", "--level", str(level)),
         check=ok_graph(True))


# ---------------------------------------------------------------------------
# shared set-up: prebuilt graphs and kernels that a workload takes as given
# ---------------------------------------------------------------------------


def prebuild(b, ctx, graphs: dict[str, tuple[int, ...]], kernels=()) -> None:
    """Parse the specs and build the named graphs (and kernels) into ``ctx``."""
    ref = ctx.reference["graphs"]
    ctx.specs, ctx.graphs, ctx.kernels = {}, {}, {}
    for name, levels in graphs.items():
        spec = ctx.specs[name] = b.op("geometry.parse_spec",
                                      lambda: cl.builtin_spec(name))
        for n in levels:
            key = f"{name}_n{n}"
            ctx.graphs[key] = b.op("cellgraph.build_graph",
                                   lambda: build_graph(spec, n),
                                   check=counts_match(ref[key]),
                                   count=graph_counts)
    for key in kernels:
        ctx.kernels[key] = b.op("walks.build_kernel",
                                lambda: build_kernel(ctx.graphs[key]))


# ---------------------------------------------------------------------------
# constants: large spectral solves on prebuilt graphs
# ---------------------------------------------------------------------------


def setup_constants(b, ctx) -> None:
    top = ctx.top
    prebuild(b, ctx, {"carpet26": range(1, top + 1), "offgrid158": (top - 1,)},
             kernels=[f"carpet26_n{top}"])


def pass_constants(b, ctx) -> None:
    ref = ctx.reference["constants"]
    lams, rfs = {}, {}
    for key, g in ctx.graphs.items():
        r = ref[key]
        p = b.op("spectral.poincare", lambda: poincare_constant(g),
                 check=lambda p: close(f"lambda {key}", p.value, r["lambda"]),
                 count=lambda p: iterations(p.info))
        f = b.op("spectral.resistance", lambda: face_resistance(g),
                 check=lambda f: close(f"R_F {key}", f.value, r["r_face"]),
                 count=lambda f: iterations(f.info))

        def gap_check(fg):
            ratio = fg["opposite"] / fg["adjacent"]  # acceptance criterion 05
            if not 0.25 <= ratio <= 4.0:
                return f"face-gap ratio {ratio} outside [0.25, 4]"
            return (close(f"adjacent gap {key}", fg["adjacent"], r["face_gap_adjacent"])
                    or close(f"opposite gap {key}", fg["opposite"], r["face_gap_opposite"]))

        b.op("spectral.face_gap", lambda: face_gap_constants(g), check=gap_check,
             count=lambda fg: iterations(fg["adjacent_info"], fg["opposite_info"]))
        b.op("spectral.pinned_gap", lambda: pinned_face_gap(g),
             check=lambda pg: close(f"pinned gap {key}", pg["value"], r["pinned_face_gap"]),
             count=lambda pg: iterations(pg["info"]))
        if key.startswith("carpet26") and p is not None and f is not None:
            lams[g.n], rfs[g.n] = p.value, f.value

    spec = ctx.specs["carpet26"]
    levels = (ctx.top - 1, ctx.top)
    fit_ref = ctx.reference["fits"][f"{levels[0]}..{levels[1]}"]

    def fits():
        return (scaling_fit(spec, "r_face", {n: rfs[n] for n in levels}),
                scaling_fit(spec, "inv_lambda_scaled",
                            {n: spec.N**n / lams[n] for n in levels}))

    def fit_check(pair):
        bound = face_resistance_upper_check(spec, rfs)
        if not bound["pass"]:
            return f"face resistance above (k/(4k-4))^n: {bound['levels']}"
        return (close("rho_R", pair[0].rho, fit_ref["r_face"])
                or close("rho_lambda", pair[1].rho, fit_ref["inv_lambda_scaled"]))

    b.op("spectral.scaling_fit", fits, check=fit_check)

    g = ctx.graphs[f"carpet26_n{ctx.top}"]
    far = g.face_set(0, 1)
    far_ref = np.array(ctx.reference["far_face_hitting"][str(ctx.top)])

    def hitting_check(h):
        err = np.abs(h.exact[far] - far_ref) / far_ref
        if err.max() > REL_TOL or (h.exact[g.face_set(0, 0)] != 0).any():
            return f"far-face hitting times off reference (worst relative {err.max():.1e})"
        return None

    b.op("walks.mean_hitting",
         lambda: mean_hitting(ctx.kernels[f"carpet26_n{ctx.top}"], g.face_set(0, 0)),
         check=hitting_check)


# ---------------------------------------------------------------------------
# walk: the per-path sampling loop on prebuilt kernels
# ---------------------------------------------------------------------------


def setup_walk(b, ctx) -> None:
    top = ctx.top
    m, n = 1, top - 1
    prebuild(b, ctx, {"carpet26": sorted({n, top})}, kernels=[f"carpet26_n{top}"])
    g = ctx.graphs[f"carpet26_n{top}"]
    ctx.target, ctx.far = g.face_set(0, 0), g.face_set(0, 1)
    far_ref = ctx.reference["far_face_hitting"][str(top)]
    pos = int(ctx.inputs.start_rank * len(far_ref))
    ctx.start, ctx.exact_mean = int(np.nonzero(ctx.far)[0][pos]), far_ref[pos]
    ctx.horizon = int(25 * max(far_ref))
    ctx.paths = 400 if ctx.small else 4000

    spec = ctx.specs["carpet26"]
    wall = b.op("cellgraph.build_wall",
                lambda: build_wall(spec, m, n, cell_graph=ctx.graphs[f"carpet26_n{n}"]),
                check=counts_match(ctx.reference["graphs"][f"wall_{m}_{n}"]),
                count=graph_counts)
    ctx.wall_kernel = b.op("walks.build_kernel", lambda: build_wall_kernel(wall))
    cg = wall.cell_graph
    ctx.bottom = wall_bottom_mask(wall)
    ctx.folded = (cg.face_set(0, 0)[wall.fold], cg.face_set(0, 1)[wall.fold])
    ctx.need = spec.k**m + 1
    ctx.wall_start = fiber_distribution(wall, pick(cg.face_set(0, 1), ctx.inputs.wall_rank))
    ctx.wall_paths = 500 if ctx.small else 2500


def pass_walk(b, ctx) -> None:
    def mc_check(sim):  # acceptance criterion 09: MC mean within 3 SE of exact
        tr = oscillation_stats(sim)
        if abs(tr.mean_t1 - ctx.exact_mean) <= 3 * tr.se_t1:
            return None
        return f"MC mean {tr.mean_t1:.2f} +- {tr.se_t1:.2f} vs exact {ctx.exact_mean:.2f}"

    b.op("walks.simulate",
         lambda: simulate(ctx.kernels[f"carpet26_n{ctx.top}"], ctx.start,
                          paths=ctx.paths, horizon=ctx.horizon,
                          seed=ctx.inputs.walk_seed, workers=1,
                          oscillation=(ctx.target, ctx.far)),
         check=mc_check, count=path_steps)

    def wall_check(sim):  # acceptance criterion 10: Wilson bound >= (1/55)^(k^m+1)
        tau = sim.first_hits["bottom"]
        t_need = sim.osc_times[:, ctx.need - 1]
        success = (tau >= 0) & ((t_need < 0) | (tau <= t_need))
        lower = wilson_lower_bound(int(success.sum()), sim.paths)
        threshold = (1.0 / 55.0) ** ctx.need
        return None if lower >= threshold else f"Wilson lower {lower} < {threshold}"

    b.op("walks.simulate",
         lambda: simulate(ctx.wall_kernel, ctx.wall_start, paths=ctx.wall_paths,
                          horizon=5000, seed=ctx.inputs.wall_seed, workers=1,
                          targets={"bottom": ctx.bottom}, oscillation=ctx.folded,
                          max_osc=ctx.need),
         check=wall_check, count=path_steps)


# ---------------------------------------------------------------------------
# certify: bricks with exact certificates, heat rows, ball and Besov checks
# ---------------------------------------------------------------------------


def setup_certify(b, ctx) -> None:
    top = ctx.top
    prebuild(b, ctx, {"carpet26": range(1, top + 1)},
             kernels=[] if ctx.small else ["carpet26_n3"])
    spec = ctx.specs["carpet26"]
    ctx.d_h = math.log(spec.N) / math.log(spec.k)
    ctx.d_w, ctx.rho = ctx.reference["d_w"], ctx.reference["rho"]
    if ctx.small:
        return  # heat and ball checks need level 3 (diffusive window, clearance)
    g = ctx.graphs["carpet26_n3"]
    half = Fraction(1, 2)
    points = [tuple(Fraction(c) for c in ctx.inputs.heat_corner)] + [
        tuple(Fraction(side) if o == axis else half for o in range(3))
        for axis, side in ctx.inputs.heat_faces]
    ctx.sources = [g.index_of(locate_word(spec, p, 3)) for p in points]
    depth = shortest_path(g.adjacency(), unweighted=True, indices=ctx.sources)
    ctx.distances = {s: depth[i].astype(np.int64) for i, s in enumerate(ctx.sources)}
    ctx.window = diffusive_window(2 * ctx.reference["constants"]["carpet26_n3"]["lambda"],
                                  points=9)
    ctx.pi3 = walk_measure(g)
    ctx.centers = admissible_centers(g, r_max=4, count=20)


def pass_certify(b, ctx) -> None:
    spec = ctx.specs["carpet26"]
    levels = range(1, ctx.top + 1)
    ws = BrickWorkspace(spec, graphs=dict(ctx.graphs))
    for m in levels:
        b.op("bricks.ramp", lambda: ws.ramp(m),
             check=certificates_pass, count=certificate_count)
    for n in levels:
        b.op("bricks.boundary_linear", lambda: ws.boundary_linear(n),
             check=certificates_pass, count=certificate_count)
    for n in range(1, ctx.top):
        for word in ctx.inputs.words[n]:
            b.op("bricks.cutoff", lambda: build_cutoff(ws, (word,), n, 3),
                 check=certificates_pass, count=certificate_count)
    if not ctx.small:
        heat_and_balls(b, ctx)
    ratios = []

    def band_check(rep):  # acceptance criterion 14
        ratios.append(rep["ratio"])
        band = max(ratios) / min(ratios)
        return None if band < 10 else f"Besov ratio band {band:.2f} >= 10"

    for n in levels:
        r_list = [j * 3.0**-n for j in (2, 4)] + ([8 / 27] if n == 3 else [])
        b.op("heat.besov",
             lambda: besov_comparison(ctx.graphs[f"carpet26_n{n}"],
                                      ws.boundary_linear(n).values, r_list,
                                      ctx.d_h, ctx.d_w, ctx.rho),
             check=band_check)


def heat_and_balls(b, ctx) -> None:
    snaps = b.op("heat.rows",
                 lambda: heat_rows(ctx.kernels["carpet26_n3"], ctx.sources,
                                   ctx.window, theta=0.5))

    def slope_check(fit):  # acceptance criterion 12
        dev = abs(fit.on_diag_slope - fit.predicted_slope) / abs(fit.predicted_slope)
        return None if dev < 0.15 else f"on-diagonal slope off by {dev:.1%}"

    b.op("heat.subgaussian_fit",
         lambda: subgaussian_fit(snaps, ctx.d_h, ctx.d_w, ctx.distances),
         check=slope_check)

    def band_check(rep):  # acceptance criterion 13
        bands = {k: rep.band(k) for k in
                 ("volume_ratio", "poincare_ratio", "capacity_ratio")}
        return None if all(v < 10 for v in bands.values()) else f"bands {bands}"

    b.op("heat.ball_checks",
         lambda: ball_checks(ctx.graphs["carpet26_n3"], ctx.pi3, ctx.d_h, ctx.d_w,
                             ctx.centers, [2, 3, 4], helper_graphs=dict(ctx.graphs)),
         check=band_check)


SETUP = {"build": setup_build, "constants": setup_constants,
         "walk": setup_walk, "certify": setup_certify}
PASS = {"build": pass_build, "constants": pass_constants,
        "walk": pass_walk, "certify": pass_certify}
