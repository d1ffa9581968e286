"""SHA-256 fingerprints of the Monte Carlo engine's output.

Every array that ``walks.simulate`` returns (start states, each first-hit
array and the oscillation times) is hashed with its dtype and shape.  The
cases cover the three kinds of start (a scalar state, a float distribution
and an integer array) on carpet26 level 2, and the (1,2) wall with its
bottom target, the folded oscillation and a fiber start, each at two seeds.
The committed ``simulate_hashes.json`` was written by this script on the
commit that still sharded paths across threads; ``tests/test_golden.py``
recomputes the hashes with the current code and compares them.

    PYTHONPATH=src python tests/golden/simulate_hashes.py [--out FILE]
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os

import numpy as np

import carpetlab as cl
from carpetlab.cellgraph import build_graph, build_wall
from carpetlab.walks import (build_kernel, build_wall_kernel,
                             fiber_distribution, simulate, wall_bottom_mask)

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_OUT = os.path.join(HERE, "simulate_hashes.json")

_spec = importlib.util.spec_from_file_location(
    "construction_hashes", os.path.join(HERE, "construction_hashes.py"))
_construction = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_construction)
array_hash = _construction.array_hash

SEEDS = (5, 2026)
STARTS = ("scalar", "distribution", "array")
PATHS = 300


def result_hashes(sim) -> dict[str, str]:
    out = {"start_states": array_hash(sim.start_states),
           "osc_times": array_hash(sim.osc_times)}
    out.update({f"first_hits/{name}": array_hash(hits)
                for name, hits in sim.first_hits.items()})
    return out


def cell_hashes(start_kind: str, seed: int) -> dict[str, str]:
    g = build_graph(cl.builtin_spec("carpet26"), 2)
    near, far, side = g.face_set(0, 0), g.face_set(0, 1), g.face_set(1, 0)
    if start_kind == "scalar":
        start = int(np.flatnonzero(far & ~side)[0])
    elif start_kind == "distribution":
        start = far.astype(float) / far.sum()
    else:
        start = (np.arange(PATHS, dtype=np.int64) * 37) % g.num_vertices
    return result_hashes(simulate(
        build_kernel(g), start, paths=PATHS, horizon=600, seed=seed,
        targets={"near": near, "side": side},
        oscillation=(near, far)))


def wall_hashes(seed: int) -> dict[str, str]:
    spec = cl.builtin_spec("carpet26")
    wall = build_wall(spec, 1, 2, cell_graph=build_graph(spec, 2))
    cg = wall.cell_graph
    far = int(np.flatnonzero(cg.face_set(0, 1))[0])
    return result_hashes(simulate(
        build_wall_kernel(wall), fiber_distribution(wall, far), paths=PATHS,
        horizon=1500, seed=seed, targets={"bottom": wall_bottom_mask(wall)},
        oscillation=(cg.face_set(0, 0)[wall.fold], cg.face_set(0, 1)[wall.fold]),
        max_osc=4))


def cases() -> list[str]:
    keys = [f"carpet26/n2/{kind}/seed{seed}" for kind in STARTS for seed in SEEDS]
    return keys + [f"carpet26/wall_m1_n2/fiber/seed{seed}" for seed in SEEDS]


def compute(key: str) -> dict[str, str]:
    _, where, kind, seed = key.split("/")
    seed = int(seed[len("seed"):])
    return wall_hashes(seed) if where.startswith("wall_") else cell_hashes(kind, seed)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=DEFAULT_OUT)
    args = ap.parse_args()
    doc = {key: compute(key) for key in cases()}
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
