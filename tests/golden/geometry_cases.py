"""Exact level-1 geometry verdicts on bundled and perturbed carpets.

For every case the script records the full validation report (witnesses
included), the edge-threshold constants ``(C', C)`` or the ``SpecError`` text
they raise, and the separation constant ``c_*``.  The cases are the bundled
configs plus, for carpet26 and offgrid158, every single-cell deletion and
every shift of one coordinate of one cell by +1/(2k) or -1/(4k), and one
shift by 1/(3 * 2**40) that needs integers past int64; shifts that leave the
cube or duplicate a cell are not carpets and are skipped.  Two two-cell specs
have a diagonal nearest gap, one of them past int64.  The
committed ``geometry_cases.json`` was written by this script with the
per-pair ``Fraction`` code, before validation moved to integer arrays;
``tests/test_golden.py`` recomputes every case and compares.

    PYTHONPATH=src python tests/golden/geometry_cases.py [--out FILE]
"""

from __future__ import annotations

import argparse
import json
import os
from fractions import Fraction
from functools import lru_cache

import carpetlab as cl
from carpetlab.geometry import (
    IfsSpec,
    SpecError,
    edge_threshold_constants,
    format_rational,
    separation_constant,
    validate,
)

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_OUT = os.path.join(HERE, "geometry_cases.json")

BUNDLED = ("carpet26", "menger", "diagonal_demo", "offgrid158")
PERTURBED = ("carpet26", "offgrid158")
# a shift whose denominator puts the lattice keys past the int64 range
WIDE = Fraction(1, 3 * 2**40)


def _shift(cells, i: int, axis: int, delta: Fraction):
    moved = list(cells[i])
    moved[axis] += delta
    return cells[:i] + (tuple(moved),) + cells[i + 1:]


def _perturbations(base: IfsSpec):
    """(key, cells) of every single-cell deletion and single-axis shift."""
    cells = base.cells
    for i in range(base.N):
        yield f"del/{i}", cells[:i] + cells[i + 1:]
    for i in range(base.N):
        for axis in range(3):
            for sign, delta in (("+", Fraction(1, 2 * base.k)),
                                ("-", Fraction(-1, 4 * base.k))):
                yield f"shift/{i}/{axis}{sign}", _shift(cells, i, axis, delta)
    # the cell is flush to one face only, which keeps a sliver of it uncovered
    i = base.digit_of_corner((Fraction(1, 3), Fraction(1, 3), Fraction(0)))
    yield f"wide/{i}/1+", _shift(cells, i, 1, WIDE)


@lru_cache(maxsize=None)
def _specs() -> dict[str, IfsSpec]:
    out = {name: cl.builtin_spec(name) for name in BUNDLED}
    # the nearest disjoint pair is diagonal, so c_* is a sqrt lower bound
    pair = ((Fraction(0), Fraction(0), Fraction(0)),
            (Fraction(5, 12), Fraction(5, 12), Fraction(0)))
    out["diagonal_gap"] = IfsSpec(name="diagonal_gap", k=3, cells=pair)
    out["diagonal_gap/wide"] = IfsSpec(name="wide", k=3,
                                       cells=_shift(pair, 1, 1, WIDE))
    for name in PERTURBED:
        base = out[name]
        for key, cells in _perturbations(base):
            try:
                out[f"{name}/{key}"] = IfsSpec(name=key, k=base.k, cells=cells)
            except SpecError:
                pass  # outside the cube or a duplicate cell: not a carpet
    return out


def cases() -> list[str]:
    return list(_specs())


def compute(key: str) -> dict:
    spec = _specs()[key]
    try:
        thresholds = [format_rational(c) for c in edge_threshold_constants(spec)]
    except SpecError as exc:
        thresholds = {"error": str(exc)}
    return {
        "validate": validate(spec).as_dict(),
        "thresholds": thresholds,
        "separation": format_rational(separation_constant(spec)),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=DEFAULT_OUT)
    args = ap.parse_args()
    doc = {key: compute(key) for key in cases()}
    lines = [f"{json.dumps(key)}: {json.dumps(doc[key], sort_keys=True)}"
             for key in sorted(doc)]
    with open(args.out, "w") as f:
        f.write("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
