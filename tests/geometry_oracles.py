"""Per-box ``Fraction`` references that tests compare the array code against.

``box_intersection`` classifies the contact of two cubes exactly,
``fold_word`` folds a wall cell onto its level-n image one box at a time, and
``adapted_audit`` checks the separation constant one vertex pair at a time.
None is used by the package: cell graphs, walls and validation decide the
same questions on integer arrays.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from carpetlab.cellgraph import CellGraph, _bfs_depths, build_graph
from carpetlab.geometry import (
    Box,
    IfsSpec,
    Isometry,
    SpecError,
    Vec3,
    Word,
    cell_box,
    separation_constant,
)


@dataclass(frozen=True)
class Intersection:
    """Exact intersection of two boxes.

    ``kind`` is one of ``empty/point/segment/rectangle/box``; ``measure`` is
    the length/area/volume for segment/rectangle/box and 0/1 for empty/point.
    ``extents`` holds the per-axis overlap lengths of the witness geometry.
    """

    kind: str
    measure: Fraction
    corner: Vec3 | None
    extents: tuple[Fraction, Fraction, Fraction] | None


def box_intersection(a: Box, b: Box) -> Intersection:
    los, lens = [], []
    degenerate = 0
    for o in range(3):
        lo = max(a.corner[o], b.corner[o])
        hi = min(a.corner[o] + a.side, b.corner[o] + b.side)
        if lo > hi:
            return Intersection("empty", Fraction(0), None, None)
        los.append(lo)
        lens.append(hi - lo)
        if hi == lo:
            degenerate += 1
    kind = ("box", "rectangle", "segment", "point")[degenerate]
    measure = Fraction(1)
    if kind != "point":
        for ln in lens:
            if ln > 0:
                measure *= ln
    corner = (los[0], los[1], los[2])
    return Intersection(kind, measure, corner, tuple(lens))


def apply_box(g: Isometry, box: Box) -> Box:
    """Image of ``box`` under the cube isometry ``g``."""
    def image(x):
        return tuple((1 - x[g.perm[o]]) if g.flip[o] else x[g.perm[o]]
                     for o in range(3))

    lo = image(box.corner)
    hi = image(tuple(c + box.side for c in box.corner))
    return Box(corner=tuple(min(a, b) for a, b in zip(lo, hi)), side=box.side)


def fold_box(box: Box, m: int, k: int) -> Box:
    """Fold the k^m-scaled box back into the unit cube.

    Each scaled coordinate interval must sit inside one monotone branch of
    the tent map; a straddling interval means the box is not a wall cell.
    """
    scale = Fraction(k) ** m
    corner = []
    for o in range(3):
        a = box.corner[o] * scale
        h = box.side * scale
        j = a // 1  # floor
        if a + h > j + 1:
            raise SpecError(
                f"scaled interval [{a}, {a + h}] straddles a fold line; "
                "not a wall cell"
            )
        local = a - j
        corner.append(local if j % 2 == 0 else 1 - local - h)
    return Box(corner=tuple(corner), side=box.side * scale)


@lru_cache(maxsize=32)
def _level_corner_index(spec: IfsSpec, n: int) -> dict[Vec3, Word]:
    out: dict[Vec3, Word] = {}
    for word in itertools.product(range(spec.N), repeat=n):
        out[cell_box(spec, word).corner] = word
    return out


def fold_word(spec: IfsSpec, m: int, n: int, word: Word) -> Word:
    """Word of the level-n cell obtained by folding a wall cell of length m+n.

    ``word`` must have length m+n with its m-prefix flush to the x2=0 face;
    raises when the folded box matches no level-n cell (wall membership
    violated).
    """
    if len(word) != m + n:
        raise SpecError(f"word length {len(word)} != m+n = {m + n}")
    folded = fold_box(cell_box(spec, word), m, spec.k)
    v = _level_corner_index(spec, n).get(folded.corner)
    if v is None:
        raise SpecError(f"folded box corner {folded.corner} matches no level-{n} cell")
    return v


def adapted_audit(spec: IfsSpec, n: int, l_star: int,
                  graph: CellGraph | None = None) -> dict:
    """Empirical separation audit for the neighborhood radius l_star.

    Checks that any two level-n cells with no connecting path of <= l_star
    edges sit at Euclidean distance >= c_* k^-n.  Exact integer comparisons;
    intended for n <= 2.
    """
    if graph is None:
        graph = build_graph(spec, n)
    c_star = separation_constant(spec)
    count = graph.num_vertices
    # threshold in scaled units: dist >= c* k^-n  <=>  dist_scaled >= c* L
    bound = c_star * graph.side_scaled
    bound_sq_num = bound.numerator**2
    bound_sq_den = bound.denominator**2
    violations = []
    for u in range(count):
        depth = _bfs_depths(graph, u, limit=l_star)
        far = np.nonzero((depth < 0) | (depth > l_star))[0]
        far = far[far > u]
        cu = graph.corners[u]
        for v in far:
            gaps = np.maximum(
                np.maximum(cu, graph.corners[v])
                - np.minimum(cu, graph.corners[v])
                - graph.side_scaled,
                0,
            )
            dist_sq = int((gaps.astype(object) ** 2).sum())
            if dist_sq * bound_sq_den < bound_sq_num:
                violations.append((graph.word_of(u), graph.word_of(int(v))))
    return {"l_star": l_star, "pass": not violations, "violations": violations[:10]}
