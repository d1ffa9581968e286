"""Command-line orchestration: validate, build, measure, fit, simulate.

Every run writes a manifest next to its artifacts; outputs are deterministic
byte-for-byte given the manifest (fixed seeds, sorted keys, no timestamps).
Graph caches are keyed by the spec hash and never consulted across hash
changes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .geometry import (
    BudgetError,
    IfsSpec,
    SolverError,
    SpecError,
    locate_word,
    parse_spec,
    separation_constant,
    validate,
)


def _json_default(obj):
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not serializable: {type(obj)}")


def _null_undefined(obj):
    """Replace non-finite floats (undefined statistics) by None, recursively."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {k: _null_undefined(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_null_undefined(v) for v in obj]
    return obj


def _write_json(path: str, payload) -> None:
    with open(path, "w") as f:
        json.dump(_null_undefined(payload), f, indent=2, sort_keys=True,
                  allow_nan=False, default=_json_default)
        f.write("\n")


def _load_spec(args) -> IfsSpec:
    with open(args.spec) as f:
        return parse_spec(f.read())


def _manifest(args, spec: IfsSpec, command: str) -> dict:
    skip = {"func", "out", "spec"}
    return {
        "tool": "carpetlab",
        "version": __version__,
        "command": command,
        "spec_path": os.path.relpath(args.spec),
        "spec_hash": spec.spec_hash(),
        "args": {
            k: v for k, v in sorted(vars(args).items())
            if k not in skip and not callable(v)
        },
    }


def _out_dir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _graph_cached(args, spec: IfsSpec, level: int):
    """The cached graph under --out, rebuilt if unusable; both obey --max-vertices."""
    from .cellgraph import build_graph, check_budget, load_graph, save_graph

    check_budget(spec, level, args.max_vertices)
    cache_dir = os.path.join(args.out, "cache")
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, f"{spec.spec_hash()[:16]}_n{level}.graph")
    if not args.no_cache and os.path.exists(path):
        try:
            graph = load_graph(spec, path)
            if (graph.n, graph.point_contact_edges) == (level, True):
                return graph
        except SpecError:
            pass
    graph = build_graph(spec, level, max_vertices=args.max_vertices)
    save_graph(graph, path)
    return graph


def _opts(args):
    from .spectral import SolveOptions

    return SolveOptions(tol=args.tolerance)


def _parse_levels(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(t) for t in text.split(",")]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    spec = _load_spec(args)
    report = validate(spec)
    doc = report.as_dict()
    for name, cond in doc["conditions"].items():
        line = f"{name}: {'pass' if cond['pass'] else 'FAIL'}"
        if not cond["pass"]:
            line += f"  witness={json.dumps(cond['witness'], default=_json_default)}"
        print(line)
    out = _out_dir(args)
    _write_json(os.path.join(out, "validation.json"), doc)
    _write_json(os.path.join(out, "manifest.json"),
                _manifest(args, spec, "validate"))
    return 0 if report.passed else 1


def cmd_graph(args) -> int:
    from .cellgraph import degree_report, export_adjacency_json

    spec = _load_spec(args)
    graph = _graph_cached(args, spec, args.level)
    stats = {
        "level": args.level,
        "vertices": graph.num_vertices,
        "edges": int(len(graph.indices) // 2),
        "max_degree": int(graph.degrees.max()),
        "degree_report": degree_report(graph),
        "threshold_C": graph.threshold,
    }
    print(json.dumps(stats, default=_json_default))
    out = _out_dir(args)
    _write_json(os.path.join(out, f"graph_n{args.level}.json"), stats)
    if args.export_json:
        path = os.path.join(out, f"adjacency_n{args.level}.json")
        with open(path, "w") as f:
            f.write(export_adjacency_json(graph))
    _write_json(os.path.join(out, "manifest.json"),
                _manifest(args, spec, "graph"))
    return 0


def cmd_constants(args) -> int:
    from .spectral import (
        ConstantsTable,
        face_gap_constants,
        face_resistance,
        face_resistance_upper_check,
        pinned_face_gap,
        poincare_constant,
        resistance_probe,
        sigma_supremum,
    )

    spec = _load_spec(args)
    opts = _opts(args)
    levels = _parse_levels(args.levels)
    quantities = args.quantities.split(",")
    table = ConstantsTable()
    graphs = {}
    for n in levels:
        graphs[n] = _graph_cached(args, spec, n)
    for n in levels:
        g = graphs[n]
        if "lambda" in quantities:
            res = poincare_constant(g, opts)
            table.add(n, "lambda", res.value, res.info, opts.tol)
        if "r_face" in quantities:
            res = face_resistance(g, opts)
            table.add(n, "r_face", res.value, res.info, opts.tol)
        if "script_r" in quantities:
            fg = face_gap_constants(g, opts)
            table.add(n, "script_r", fg["adjacent"], fg["adjacent_info"], opts.tol)
            table.add(n, "script_r_tilde", fg["opposite"],
                      fg["opposite_info"], opts.tol)
    if "r_bar" in quantities:
        for n in levels:
            if n < 2:
                continue
            rb = pinned_face_gap(graphs[n], opts)
            table.add(n, "r_bar", rb["value"], rb.get("info"), opts.tol)
    if "sigma" in quantities:
        for m in (1, 2):
            if 1 + m > max(levels):
                continue
            rep = sigma_supremum(spec, m, [1], opts, graphs=graphs,
                                 max_vertices=args.max_vertices)
            table.add(m, "sigma_probe", rep["value"], None, opts.tol)
    if "r_probe" in quantities:
        probes = [(d,) for d in range(spec.N)]
        for m in (1, 2):
            if 1 + m > max(levels):
                continue
            rep = resistance_probe(spec, m, probes, args.l_star, opts,
                                   graphs=graphs,
                                   max_vertices=args.max_vertices)
            if rep["value"] is not None:
                table.add(m, "r_probe", rep["value"], None, opts.tol)
    out = _out_dir(args)
    with open(os.path.join(out, "constants.csv"), "w") as f:
        f.write(table.to_csv())
    with open(os.path.join(out, "constants.json"), "w") as f:
        f.write(table.to_json())
        f.write("\n")
    if "r_face" in quantities:
        chk = face_resistance_upper_check(spec, table.values("r_face"))
        _write_json(os.path.join(out, "face_resistance_bound.json"), chk)
        print("face resistance bound:", "pass" if chk["pass"] else "FAIL")
    print(table.to_csv().strip())
    _write_json(os.path.join(out, "manifest.json"),
                _manifest(args, spec, "constants"))
    return 0


def cmd_fit(args) -> int:
    from .spectral import ConstantsTable, scaling_fit

    spec = _load_spec(args)
    with open(args.table) as f:
        table = ConstantsTable.from_csv(f.read())
    levels = _parse_levels(args.levels) if args.levels else None
    values = table.values(args.quantity)
    if args.quantity == "lambda" and args.as_inverse_scaled:
        values = {n: spec.N**n / v for n, v in values.items()}
        quantity = "inv_lambda_scaled"
    else:
        quantity = args.quantity
    if levels:
        values = {n: v for n, v in values.items() if n in levels}
    fit = scaling_fit(spec, quantity, values)
    doc = fit.as_dict()
    print(json.dumps(doc, default=_json_default))
    out = _out_dir(args)
    _write_json(os.path.join(out, f"fit_{args.quantity}.json"), doc)
    _write_json(os.path.join(out, "manifest.json"), _manifest(args, spec, "fit"))
    return 0


def cmd_walk(args) -> int:
    from .cellgraph import middle_layers
    from .spectral import poincare_constant
    from .walks import (
        build_kernel,
        mean_hitting,
        oscillation_stats,
        quick_oscillation_check,
        simulate,
    )

    spec = _load_spec(args)
    opts = _opts(args)
    graph = _graph_cached(args, spec, args.level)
    kernel = build_kernel(graph)
    lam = poincare_constant(graph, opts).value
    target = graph.face_set(0, 0)
    exact = mean_hitting(kernel, target, opts)
    if args.start == "upper-layer":
        _, upper, _ = middle_layers(graph)
        start = upper.astype(float) / upper.sum()
        exact_ref = float(exact.exact[upper].mean())
    else:
        far = graph.face_set(0, 1)
        start = far.astype(float) / far.sum()
        exact_ref = float(exact.exact[far].mean())
    horizon = max(int(args.horizon_mult * lam), int(20 * exact.exact.max()))
    sim = simulate(kernel, start, paths=args.paths, horizon=horizon,
                   seed=args.seed, oscillation=(target, graph.face_set(0, 1)))
    trace = oscillation_stats(sim)
    report = {
        "level": args.level,
        "lambda": lam,
        "start": args.start,
        "exact_mean_from_start": exact_ref,
        "mc_mean_t1": trace.mean_t1,
        "mc_se_t1": trace.se_t1,
        "mean_gap": trace.mean_gap,
        "censored_t2": trace.censored_t2,
        "flagged": trace.flagged,
        "horizon": horizon,
        "paths": args.paths,
        "seed": args.seed,
        "quick_oscillation": quick_oscillation_check(
            trace, lam, c_hat=float(exact.exact.max() / lam)),
    }
    report = _null_undefined(report)
    print(json.dumps(report, allow_nan=False, default=_json_default))
    out = _out_dir(args)
    _write_json(os.path.join(out, f"walk_n{args.level}.json"), report)
    _write_json(os.path.join(out, "manifest.json"), _manifest(args, spec, "walk"))
    return 0


def cmd_wall(args) -> int:
    from .cellgraph import build_wall
    from .spectral import poincare_constant
    from .walks import (
        build_kernel,
        build_wall_kernel,
        coupling_check,
        reversibility_residual,
        stochasticity_residual,
        wall_hitting_report,
    )

    spec = _load_spec(args)
    opts = _opts(args)
    cell_graph = _graph_cached(args, spec, args.n)
    wall = build_wall(spec, args.m, args.n, cell_graph=cell_graph,
                      max_vertices=args.max_vertices)
    wall_kernel = build_wall_kernel(wall)
    cell_kernel = build_kernel(cell_graph)
    lam = poincare_constant(cell_graph, opts).value
    coupling = coupling_check(wall_kernel, cell_kernel)
    horizon = int(args.horizon_mult * lam * (spec.k ** args.m + 1))
    rep = wall_hitting_report(wall_kernel, paths=args.paths, seed=args.seed,
                              horizon=horizon)
    doc = {
        "m": args.m,
        "n": args.n,
        "coupling_exact_residual": str(coupling["exact_residual"]),
        "coupling_float_residual": coupling["float_residual"],
        "stochasticity_residual": str(stochasticity_residual(wall_kernel)),
        "reversibility_residual": str(reversibility_residual(wall_kernel)),
        "bottom_hitting": {
            "paths": rep["paths"],
            "successes": rep["successes"],
            "estimate": rep["estimate"],
            "wilson_lower": rep["wilson_lower"],
            "threshold": rep["threshold"],
            "pass": rep["pass"],
        },
        "exact_mean_max": float(rep["exact_mean"].max()),
        "horizon": horizon,
    }
    print(json.dumps(doc, default=_json_default))
    out = _out_dir(args)
    _write_json(os.path.join(out, f"wall_m{args.m}_n{args.n}.json"), doc)
    _write_json(os.path.join(out, "manifest.json"), _manifest(args, spec, "wall"))
    return 0


def cmd_brick(args) -> int:
    from .bricks import BrickWorkspace, build_cutoff

    spec = _load_spec(args)
    opts = _opts(args)
    graphs = {}
    for lvl in range(1, args.level + (2 if args.kind == "cutoff" else 1)):
        graphs[lvl] = _graph_cached(args, spec, lvl)
    ws = BrickWorkspace(spec, opts, max_vertices=args.max_vertices,
                        graphs=graphs)
    if args.kind == "g":
        brick = ws.ramp(args.level)
    elif args.kind == "f":
        brick = ws.boundary_linear(args.level)
    elif args.kind == "cutoff":
        word = tuple(int(t) for t in args.word.split(",")) if args.word else (0,)
        brick = build_cutoff(ws, word, args.level, args.l_star, opts)
    else:
        raise SpecError(f"unknown brick kind {args.kind}")
    doc = brick.to_json_dict()
    print(json.dumps({k: doc[k] for k in ("kind", "level", "energy",
                                          "certificates")},
                     default=_json_default))
    out = _out_dir(args)
    _write_json(os.path.join(out, f"brick_{args.kind}_{args.level}.json"), doc)
    _write_json(os.path.join(out, "manifest.json"),
                _manifest(args, spec, "brick"))
    return 0


def _resolve_sources(spec: IfsSpec, graph, names: str) -> list[int]:
    out = []
    half = Fraction(1, 2)
    for name in names.split(","):
        if name == "corner":
            word = locate_word(spec, (Fraction(0), Fraction(0), Fraction(0)),
                               graph.n)
        elif name == "center-face":
            word = locate_word(spec, (half, half, Fraction(0)), graph.n)
        elif name == "center-edge":
            word = locate_word(spec, (half, Fraction(0), Fraction(0)), graph.n)
        else:
            word = tuple(int(t) for t in name.split("/"))
        out.append(graph.index_of(word))
    return out


def cmd_heat(args) -> int:
    from .cellgraph import _bfs_depths
    from .heat import diffusive_window, heat_rows, holder_estimate, subgaussian_fit
    from .spectral import poincare_constant
    from .walks import build_kernel

    spec = _load_spec(args)
    opts = _opts(args)
    graph = _graph_cached(args, spec, args.level)
    kernel = build_kernel(graph)
    lam = poincare_constant(graph, opts).value
    if args.times == "dyadic":
        times = diffusive_window(2 * lam, points=9)
    else:
        times = [int(t) for t in args.times.split(",")]
    sources = _resolve_sources(spec, graph, args.sources)
    snaps = heat_rows(kernel, sources, times, theta=args.theta)
    dists = {s: _bfs_depths(graph, s) for s in sources}
    d_h = math.log(spec.N) / math.log(spec.k)
    fit = subgaussian_fit(snaps, d_h, args.d_w, dists)
    hold = holder_estimate(snaps, dists, args.d_w)
    doc = {
        "level": args.level,
        "theta": args.theta,
        "times": times,
        "sources": sources,
        "on_diag_slope": fit.on_diag_slope,
        "predicted_slope": fit.predicted_slope,
        "on_diag_r2": fit.on_diag_r2,
        "off_diag": fit.off_diag,
        "holder": hold,
        "max_drift": max(s.max_drift for s in snaps),
    }
    print(json.dumps({k: doc[k] for k in ("on_diag_slope", "predicted_slope",
                                          "holder")}, default=_json_default))
    out = _out_dir(args)
    _write_json(os.path.join(out, f"heat_n{args.level}.json"), doc)
    if args.export_csv:
        import gzip
        import io

        name = f"heat_rows_n{args.level}.csv" + (".gz" if args.gzip else "")
        path = os.path.join(out, name)
        # mtime=0: the gzip header carries no clock, so the bytes are reproducible
        with (io.TextIOWrapper(gzip.GzipFile(path, "wb", mtime=0)) if args.gzip
              else open(path, "w")) as f:
            f.write("source,target,time,value\n")
            for snap in snaps:
                for s, row in snap.rows.items():
                    nz = np.nonzero(row > 1e-300)[0]
                    for v in nz:
                        f.write(f"{s},{v},{snap.time},{row[v]!r}\n")
    _write_json(os.path.join(out, "manifest.json"), _manifest(args, spec, "heat"))
    return 0


def cmd_report(args) -> int:
    """Light end-to-end battery at levels <= 2 with a one-file summary."""
    from .cellgraph import build_wall, degree_report
    from .spectral import (
        face_resistance,
        face_resistance_upper_check,
        poincare_constant,
    )
    from .walks import (
        build_kernel,
        build_wall_kernel,
        coupling_check,
        hitting_time_bands,
    )

    spec = _load_spec(args)
    opts = _opts(args)
    vrep = validate(spec)
    summary = {"validation": vrep.as_dict(), "spec_hash": spec.spec_hash()}
    if vrep.passed:
        graphs = {n: _graph_cached(args, spec, n) for n in (1, 2)}
        lams = {n: poincare_constant(graphs[n], opts).value for n in (1, 2)}
        rfs = {n: face_resistance(graphs[n], opts).value for n in (1, 2)}
        kernels = {n: build_kernel(graphs[n]) for n in (1, 2)}
        wall = build_wall(spec, 1, 1, cell_graph=graphs[1])
        wall_kernel = build_wall_kernel(wall)
        summary.update({
            "lambda": lams,
            "r_face": rfs,
            "face_bound": face_resistance_upper_check(spec, rfs),
            "coupling_residual": str(
                coupling_check(wall_kernel, kernels[1])["exact_residual"]),
            "hitting_bands": hitting_time_bands(kernels, lams),
            "degree_report": degree_report(graphs[2]),
            "c_star": separation_constant(spec),
        })
    out = _out_dir(args)
    _write_json(os.path.join(out, "report.json"), summary)
    _write_json(os.path.join(out, "manifest.json"),
                _manifest(args, spec, "report"))
    print(json.dumps({"pass": vrep.passed}, default=_json_default))
    return 0 if vrep.passed else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Argument errors exit 2 with one line on stderr, like bad specs."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="carpetlab",
        description="cell-graph laboratory for 3D unconstrained carpets",
    )
    p.add_argument("--spec", required=True, help="carpet config JSON path")
    p.add_argument("--out", default="runs", help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-vertices", type=int, default=500_000)
    p.add_argument("--tolerance", type=float, default=1e-10)
    p.add_argument("--no-cache", action="store_true")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="run the five carpet conditions")
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("graph", help="build and cache a level graph")
    sp.add_argument("--level", type=int, required=True)
    sp.add_argument("--export-json", action="store_true")
    sp.set_defaults(func=cmd_graph)

    sp = sub.add_parser("constants", help="per-level constants table")
    sp.add_argument("--levels", default="1..2")
    sp.add_argument("--quantities",
                    default="lambda,r_face,script_r")
    sp.add_argument("--l-star", type=int, default=10)
    sp.set_defaults(func=cmd_constants)

    sp = sub.add_parser("fit", help="scaling fit from a constants table")
    sp.add_argument("--table", required=True)
    sp.add_argument("--quantity", default="r_face")
    sp.add_argument("--levels", default="")
    sp.add_argument("--as-inverse-scaled", action="store_true",
                    help="fit N^n/value instead of the raw quantity")
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("walk", help="Monte Carlo vs exact hitting times")
    sp.add_argument("--level", type=int, default=2)
    sp.add_argument("--paths", type=_positive_int, default=10_000)
    sp.add_argument("--horizon-mult", type=float, default=50.0)
    sp.add_argument("--start", choices=["face", "upper-layer"], default="face",
                    help="oscillation start: the far face or the upper layer")
    sp.set_defaults(func=cmd_walk)

    sp = sub.add_parser("wall", help="wall kernel checks and bottom hitting")
    sp.add_argument("--m", type=int, default=1)
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--paths", type=_positive_int, default=4000)
    sp.add_argument("--horizon-mult", type=float, default=50.0)
    sp.set_defaults(func=cmd_wall)

    sp = sub.add_parser("brick", help="build a certified brick function")
    sp.add_argument("kind", choices=["g", "f", "cutoff"])
    sp.add_argument("--level", type=int, required=True)
    sp.add_argument("--word", default="")
    sp.add_argument("--l-star", type=int, default=3)
    sp.set_defaults(func=cmd_brick)

    sp = sub.add_parser("heat", help="heat kernel rows and shape fits")
    sp.add_argument("--level", type=int, default=3)
    sp.add_argument("--sources", default="corner,center-face")
    sp.add_argument("--times", default="dyadic")
    sp.add_argument("--theta", type=float, default=0.5)
    sp.add_argument("--d-w", type=float, default=2.09,
                    help="walk dimension from the scaling fit")
    sp.add_argument("--export-csv", action="store_true")
    sp.add_argument("--gzip", action="store_true",
                    help="compress the exported row CSV")
    sp.set_defaults(func=cmd_heat)

    sp = sub.add_parser("report", help="light end-to-end summary battery")
    sp.set_defaults(func=cmd_report)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"error: {exc}; lower the level or raise --max-vertices",
              file=sys.stderr)
        return 3
    except (SolverError, MemoryError) as exc:
        print(f"error: {exc or 'out of memory'}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
