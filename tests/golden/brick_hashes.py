"""SHA-256 fingerprints of the certified brick functions.

For each ramp, boundary-linear function and cut-off the script hashes the
reduced ``p/q`` strings of every exact value (through the ``values_exact``
serializer), the float ``values`` and the domain, and records the energy,
the energy ladder, the certificates and, for boundary-linear functions, the
region coherence report.  The committed ``brick_hashes.json`` was last
written by this script when the solvers moved to the in-repo PCG with the
word-prefix preconditioner, whose inner products do not depend on the BLAS
thread count; ``tests/test_golden.py`` recomputes the hashes with the
current code and compares them.

    PYTHONPATH=src python tests/golden/brick_hashes.py [--out FILE]
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os

import carpetlab as cl
from carpetlab.bricks import BrickWorkspace, build_cutoff, region_coherence_report

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_OUT = os.path.join(HERE, "brick_hashes.json")

_spec = importlib.util.spec_from_file_location(
    "construction_hashes", os.path.join(HERE, "construction_hashes.py"))
_construction = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_construction)
array_hash = _construction.array_hash

LEVELS = {"carpet26": (1, 2, 3), "offgrid158": (1, 2), "menger": (1, 2)}
CUTOFFS = {"carpet26": ((0, 4, 13), (1, 2)), "offgrid158": ((0,), (1,))}
L_STAR = 3


def brick_hashes(brick) -> dict:
    doc = brick.to_json_dict()
    exact = "\n".join(doc.get("values_exact", []))
    out = {"exact": hashlib.sha256(exact.encode()).hexdigest(),
           "values": array_hash(brick.values),
           "domain": array_hash(brick.domain),
           "energy": repr(brick.energy),
           "certificates": json.dumps(brick.certificates, sort_keys=True)}
    if "energy_ladder" in brick.meta:
        out["energy_ladder"] = [repr(e) for e in brick.meta["energy_ladder"]]
    return out


def cases() -> list[str]:
    keys = [f"{name}/{kind}/n{n}" for name, levels in LEVELS.items()
            for kind in ("ramp", "boundary_linear") for n in levels]
    return keys + [f"{name}/cutoff/w{w}_n{n}" for name, (words, ns) in CUTOFFS.items()
                   for w in words for n in ns]


def compute(key: str) -> dict:
    name, kind, arg = key.split("/")
    ws = BrickWorkspace(cl.builtin_spec(name))
    if kind == "ramp":
        return brick_hashes(ws.ramp(int(arg[1:])))
    if kind == "boundary_linear":
        brick = ws.boundary_linear(int(arg[1:]))
        out = brick_hashes(brick)
        rep = region_coherence_report(ws, brick)
        out["coherence"] = [str(rep["max_deep_mismatch"]),
                            repr(rep["max_scaled_mismatch"])]
        return out
    word, n = arg[1:].split("_n")
    return brick_hashes(build_cutoff(ws, (int(word),), int(n), L_STAR))


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
