"""SHA-256 fingerprints of the construction path: graphs, walls and kernels.

Each stored array is hashed together with its dtype and shape, so a change of
index width counts as a change.  The committed ``construction_hashes.json``
was written by this script on the commit before the vectorized construction
landed; ``tests/test_golden.py`` recomputes the hashes with the current code
and compares them.

    PYTHONPATH=src python tests/golden/construction_hashes.py [--out FILE]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os

import numpy as np

import carpetlab as cl
from carpetlab.cellgraph import build_graph, build_wall
from carpetlab.walks import build_kernel, build_wall_kernel

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_OUT = os.path.join(HERE, "construction_hashes.json")

GRAPHS = {"carpet26": (1, 2, 3), "menger": (1, 2, 3), "offgrid158": (1, 2)}
WALLS = ((1, 1), (1, 2))  # (m, n) walls of carpet26


def array_hash(arr: np.ndarray) -> str:
    arr = np.ascontiguousarray(arr)
    digest = hashlib.sha256(f"{arr.dtype.str}{arr.shape}".encode())
    digest.update(arr.tobytes())
    return f"{arr.dtype.str}:{digest.hexdigest()}"


def kernel_hashes(kernel) -> dict[str, str]:
    P = kernel.P
    return {"P.data": array_hash(P.data), "P.indices": array_hash(P.indices),
            "P.indptr": array_hash(P.indptr), "dens": array_hash(kernel.dens)}


def case_hashes(name: str, n: int, point_contact: bool) -> dict[str, str]:
    g = build_graph(cl.builtin_spec(name), n, point_contact_edges=point_contact)
    out = {"indptr": array_hash(g.indptr), "indices": array_hash(g.indices)}
    out.update(kernel_hashes(build_kernel(g)))
    return out


def wall_hashes(m: int, n: int) -> dict[str, str]:
    spec = cl.builtin_spec("carpet26")
    wall = build_wall(spec, m, n, cell_graph=build_graph(spec, n))
    out = {"indptr": array_hash(wall.indptr), "indices": array_hash(wall.indices),
           "fold": array_hash(wall.fold)}
    out.update(kernel_hashes(build_wall_kernel(wall)))
    return out


def cases() -> list[str]:
    keys = [f"{name}/n{n}/point_contact={int(pc)}"
            for name, levels in GRAPHS.items() for n in levels for pc in (1, 0)]
    return keys + [f"carpet26/wall_m{m}_n{n}" for m, n in WALLS]


def compute(key: str) -> dict[str, str]:
    name, rest = key.split("/", 1)
    if rest.startswith("wall_"):
        m, n = (int(t[1:]) for t in rest[len("wall_"):].split("_"))
        return wall_hashes(m, n)
    level, pc = rest.split("/")
    return case_hashes(name, int(level[1:]), pc.endswith("1"))


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
