"""Exact-rational geometry of the carpet IFS.

Everything in this module is computed over ``fractions.Fraction`` so that the
decision procedures (cell overlap, face cover, symmetry, contact
classification) are exact.  Floating point never enters; irrational carpets
are out of scope and must be supplied as rational surrogates.

Conventions used throughout the package:

* the unit cube is ``[0,1]^3`` and a level-n cell is an axis-aligned cube of
  side ``k**-n``;
* words are plain tuples of 0-based digit indices into ``IfsSpec.cells``;
* axes are 0-based (axis 0 is the first coordinate), faces are keyed by
  ``(axis, side)`` with ``side`` in ``{0, 1}``.
"""

from __future__ import annotations

import itertools
import json
import hashlib
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import Iterable, Sequence

Vec3 = tuple[Fraction, Fraction, Fraction]
Word = tuple[int, ...]

HALF = Fraction(1, 2)


class SpecError(ValueError):
    """Raised when a carpet description violates a structural invariant."""


def parse_rational(text: str | int) -> Fraction:
    """Parse a ``"p/q"`` string (or bare integer string/int) into a Fraction."""
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str):
        raise SpecError(f"rational must be a string, got {type(text).__name__}")
    parts = text.strip().split("/")
    try:
        if len(parts) == 1:
            return Fraction(int(parts[0]))
        if len(parts) == 2:
            num, den = int(parts[0]), int(parts[1])
            if den <= 0:
                raise SpecError(f"denominator must be positive in {text!r}")
            return Fraction(num, den)
    except ValueError as exc:
        raise SpecError(f"malformed rational {text!r}") from exc
    raise SpecError(f"malformed rational {text!r}")


def format_rational(q: Fraction) -> str:
    """Serialize a Fraction canonically as ``"p/q"``."""
    return f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class IfsSpec:
    """Exact description of the iterated function system x -> x/k + c_i.

    The single source of geometric truth: every graph, measure and constant
    in the package is derived from ``(k, cells)``.
    """

    name: str
    k: int
    cells: tuple[Vec3, ...]

    def __post_init__(self) -> None:
        if self.k < 3:
            raise SpecError(f"scale factor k={self.k} must be >= 3")
        top = 1 - Fraction(1, self.k)
        seen = set()
        for c in self.cells:
            if len(c) != 3:
                raise SpecError(f"cell {c} is not a 3-vector")
            for t in c:
                if t < 0 or t > top:
                    raise SpecError(
                        f"translation {tuple(map(format_rational, c))} outside "
                        f"[0, {format_rational(top)}]^3"
                    )
            if c in seen:
                raise SpecError(f"duplicate cell {tuple(map(format_rational, c))}")
            seen.add(c)
        if not self.cells:
            raise SpecError("empty cell list")

    @property
    def N(self) -> int:
        return len(self.cells)

    @property
    def min_cells(self) -> int:
        """Lower bound on N forced by the face-cover requirement."""
        k = self.k
        return 8 + 12 * (k - 2) + 6 * (k - 2) ** 2

    @property
    def max_cells(self) -> int:
        return self.k**3 - 1

    def canonical_json(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "k": self.k,
                "cells": [[format_rational(t) for t in c] for c in self.cells],
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    def spec_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    def digit_of_corner(self, corner: Vec3) -> int:
        return _corner_index(self)[corner]


@lru_cache(maxsize=64)
def _corner_index(spec: IfsSpec) -> dict[Vec3, int]:
    return {c: i for i, c in enumerate(spec.cells)}


def parse_spec(text: str) -> IfsSpec:
    """Parse a carpet config document (see README for the JSON schema).

    Structural problems (a wrong type for ``k`` or ``cells``, bad rationals,
    out-of-range translations, duplicate cells, k < 3) raise
    :class:`SpecError`.  The N-bounds condition is *not*
    enforced here; it is reported by :func:`validate` so that undersized
    carpets (e.g. the Menger sponge) can still be analyzed for their failure
    witnesses.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SpecError("config must be a JSON object")
    for key in ("k", "cells"):
        if key not in doc:
            raise SpecError(f"config missing required key {key!r}")
    k, cells = doc["k"], doc["cells"]
    if not isinstance(k, int) or isinstance(k, bool):
        raise SpecError(f"k must be an integer, got {k!r}")
    if not isinstance(cells, list) or not all(isinstance(c, list) for c in cells):
        raise SpecError("cells must be a list of [x1, x2, x3] translations")
    cells = tuple(tuple(parse_rational(t) for t in cell) for cell in cells)
    return IfsSpec(name=str(doc.get("name", "carpet")), k=k, cells=cells)


# ---------------------------------------------------------------------------
# boxes and intersections
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Box:
    """Axis-aligned cube ``[corner, corner + side]^3`` (side > 0)."""

    corner: Vec3
    side: Fraction

    def interval(self, axis: int) -> tuple[Fraction, Fraction]:
        return self.corner[axis], self.corner[axis] + self.side


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


def cell_box(spec: IfsSpec, word: Word) -> Box:
    """Exact cube of the cell addressed by ``word`` (empty word -> unit cube)."""
    k = Fraction(spec.k)
    corner = [Fraction(0)] * 3
    scale = Fraction(1)
    for digit in word:
        if not 0 <= digit < spec.N:
            raise SpecError(f"digit {digit} out of range [0, {spec.N})")
        c = spec.cells[digit]
        for o in range(3):
            corner[o] += c[o] * scale
        scale /= k
    return Box(corner=tuple(corner), side=scale)


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


def _sqrt_lower_bound(q: Fraction) -> Fraction:
    # floor(2^53 * sqrt(q)) / 2^53: rational lower bound within 2^-53
    if q == 0:
        return Fraction(0)
    p, d = q.numerator, q.denominator
    shift = 1 << 53
    return Fraction(isqrt(p * d * shift * shift), d * shift)


# ---------------------------------------------------------------------------
# the 48 self-isometries of the cube
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Isometry:
    """Signed coordinate permutation of the unit cube.

    Output coordinate ``o`` reads input coordinate ``perm[o]`` and reflects
    it (``x -> 1-x``) when ``flip[o]`` is set.
    """

    perm: tuple[int, int, int]
    flip: tuple[bool, bool, bool]

    def apply_point(self, x: Sequence[Fraction]) -> Vec3:
        return tuple(
            (1 - x[self.perm[o]]) if self.flip[o] else x[self.perm[o]] for o in range(3)
        )

    def apply_box(self, box: Box) -> Box:
        lo = self.apply_point(box.corner)
        hi = self.apply_point(tuple(c + box.side for c in box.corner))
        corner = tuple(min(a, b) for a, b in zip(lo, hi))
        return Box(corner=corner, side=box.side)

    def compose(self, other: "Isometry") -> "Isometry":
        """Return the isometry mapping x to self(other(x))."""
        perm = tuple(other.perm[self.perm[o]] for o in range(3))
        flip = tuple(self.flip[o] ^ other.flip[self.perm[o]] for o in range(3))
        return Isometry(perm, flip)  # type: ignore[arg-type]


def axis_reflection(axis: int) -> Isometry:
    flip = [False, False, False]
    flip[axis] = True
    return Isometry((0, 1, 2), tuple(flip))  # type: ignore[arg-type]


def axis_swap(a: int, b: int) -> Isometry:
    perm = [0, 1, 2]
    perm[a], perm[b] = perm[b], perm[a]
    return Isometry(tuple(perm), (False, False, False))  # type: ignore[arg-type]


def isometry_group() -> tuple[Isometry, ...]:
    """All 48 self-isometries of the cube."""
    out = []
    for perm in itertools.permutations(range(3)):
        for flips in itertools.product((False, True), repeat=3):
            out.append(Isometry(perm, flips))
    return tuple(out)


@lru_cache(maxsize=64)
def digit_map(spec: IfsSpec, g: Isometry) -> tuple[int, ...]:
    """Permutation of digits induced by g (g maps cell i onto cell digit_map[i]).

    Words map digitwise: the image of the cell of ``w`` is the cell of
    ``tuple(digit_map[d] for d in w)``.  Raises if g does not preserve the
    cell multiset (symmetry violated).
    """
    index = _corner_index(spec)
    side = Fraction(1, spec.k)
    out = []
    for i, c in enumerate(spec.cells):
        image = g.apply_box(Box(corner=c, side=side))
        j = index.get(image.corner)
        if j is None:
            raise SpecError(
                f"isometry {g} does not map cell {i} onto a cell; symmetry violated"
            )
        out.append(j)
    return tuple(out)


def apply_isometry(spec: IfsSpec, g: Isometry, word: Word) -> Word:
    dm = digit_map(spec, g)
    return tuple(dm[d] for d in word)


# ---------------------------------------------------------------------------
# validation of the carpet conditions
# ---------------------------------------------------------------------------


@dataclass
class ConditionResult:
    passed: bool
    witness: object = None


@dataclass
class ValidationReport:
    """Per-condition verdicts; ``passed`` iff all five conditions hold."""

    non_overlapping: ConditionResult
    face_included: ConditionResult
    strong_connectivity: ConditionResult
    symmetry: ConditionResult
    n_bounds: ConditionResult

    @property
    def passed(self) -> bool:
        return all(
            c.passed
            for c in (
                self.non_overlapping,
                self.face_included,
                self.strong_connectivity,
                self.symmetry,
                self.n_bounds,
            )
        )

    def as_dict(self) -> dict:
        def enc(v):
            if isinstance(v, Fraction):
                return format_rational(v)
            if isinstance(v, (tuple, list)):
                return [enc(t) for t in v]
            if isinstance(v, dict):
                return {k: enc(t) for k, t in v.items()}
            return v

        return {
            "pass": self.passed,
            "conditions": {
                name: {"pass": c.passed, "witness": enc(c.witness)}
                for name, c in (
                    ("non_overlapping", self.non_overlapping),
                    ("face_included", self.face_included),
                    ("strong_connectivity", self.strong_connectivity),
                    ("symmetry", self.symmetry),
                    ("N_bounds", self.n_bounds),
                )
            },
        }


def _check_face_cover(spec: IfsSpec, axis: int, side: int):
    """Exact decision: is face (axis,side) exactly tiled by flush cell faces?

    Runs an interval sweep over the two tangential axes.  Returns None on
    success or a witness rectangle (corner2d, size2d) of an uncovered patch.
    """
    s = Fraction(side)
    h = Fraction(1, spec.k)
    t1, t2 = [o for o in range(3) if o != axis]
    rects = []
    for c in spec.cells:
        flush = (c[axis] == 0) if side == 0 else (c[axis] + h == 1)
        if flush:
            rects.append(((c[t1], c[t1] + h), (c[t2], c[t2] + h)))
    if not rects:
        return ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)))
    xs = sorted({v for (u, _) in rects for v in u} | {Fraction(0), Fraction(1)})
    for x0, x1 in zip(xs, xs[1:]):
        if x1 <= x0:
            continue
        spans = sorted(v for (u, v) in rects if u[0] <= x0 and u[1] >= x1)
        cursor = Fraction(0)
        for lo, hi in spans:
            if lo > cursor:
                return ((x0, cursor), (x1 - x0, lo - cursor))
            cursor = max(cursor, hi)
        if cursor < 1:
            return ((x0, cursor), (x1 - x0, 1 - cursor))
    return None


def validate(spec: IfsSpec) -> ValidationReport:
    """Run the five exact decision procedures on a parsed carpet."""
    side = Fraction(1, spec.k)
    boxes = [Box(corner=c, side=side) for c in spec.cells]
    n = spec.N

    # pairwise overlap volume must be zero
    overlap = ConditionResult(True)
    inters: dict[tuple[int, int], Intersection] = {}
    for i in range(n):
        for j in range(i + 1, n):
            inter = box_intersection(boxes[i], boxes[j])
            inters[(i, j)] = inter
            if inter.kind == "box" and overlap.passed:
                overlap = ConditionResult(False, {"pair": (i, j)})

    # all six faces exactly covered by flush cell faces
    face = ConditionResult(True)
    for axis in range(3):
        for s in (0, 1):
            wit = _check_face_cover(spec, axis, s)
            if wit is not None:
                face = ConditionResult(
                    False,
                    {"face": (axis + 1, s), "uncovered_corner": wit[0], "size": wit[1]},
                )
                break
        if not face.passed:
            break

    # contact graph connected and no diagonal-only point contacts
    connect = ConditionResult(True)
    adj = [[] for _ in range(n)]
    for (i, j), inter in inters.items():
        if inter.kind != "empty":
            adj[i].append(j)
            adj[j].append(i)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    if len(seen) != n:
        connect = ConditionResult(
            False, {"reason": "disconnected", "component": sorted(seen)}
        )
    else:
        for (i, j), inter in inters.items():
            if inter.kind != "point":
                continue
            pt = inter.corner
            covered = any(
                m not in (i, j)
                and all(
                    boxes[m].corner[o] <= pt[o] <= boxes[m].corner[o] + side
                    for o in range(3)
                )
                for m in range(n)
            )
            if not covered:
                connect = ConditionResult(
                    False, {"reason": "diagonal", "pair": (i, j), "point": pt}
                )
                break

    # the 48 isometries must preserve the cell multiset
    sym = ConditionResult(True)
    corner_set = set(spec.cells)
    for g in isometry_group():
        bad = None
        for c in spec.cells:
            image = g.apply_box(Box(corner=c, side=side))
            if image.corner not in corner_set:
                bad = c
                break
        if bad is not None:
            sym = ConditionResult(
                False, {"isometry": {"perm": g.perm, "flip": g.flip}, "cell": bad}
            )
            break

    nb = ConditionResult(True)
    if not (spec.min_cells <= n <= spec.max_cells):
        nb = ConditionResult(
            False, {"N": n, "min": spec.min_cells, "max": spec.max_cells}
        )

    return ValidationReport(overlap, face, connect, sym, nb)


# ---------------------------------------------------------------------------
# contact constants
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def edge_threshold_constants(spec: IfsSpec) -> tuple[Fraction, Fraction]:
    """(C', C): projection unit and the contact-measure threshold constant.

    C' is k times the smallest positive axis-projection length among pairwise
    cell intersections; C = C'^2/81 is the threshold separating "substantial"
    segment/rectangle contacts from slivers in the cell-graph edge rule.
    """
    side = Fraction(1, spec.k)
    boxes = [Box(corner=c, side=side) for c in spec.cells]
    best: Fraction | None = None
    for i in range(spec.N):
        for j in range(i + 1, spec.N):
            inter = box_intersection(boxes[i], boxes[j])
            if inter.kind in ("empty", "point") or inter.extents is None:
                continue
            for ln in inter.extents:
                if ln > 0 and (best is None or ln < best):
                    best = ln
    if best is None:
        raise SpecError("no cell pair with a positive intersection projection")
    c_prime = spec.k * best
    return c_prime, c_prime * c_prime / 81


def separation_constant(spec: IfsSpec) -> Fraction:
    """1/2 capped multiple of the smallest gap between disjoint level-1 cells.

    Exact when the nearest disjoint pair is axis-aligned (at most one positive
    coordinate gap); otherwise a rational sqrt lower bound within 2**-53.
    """
    side = Fraction(1, spec.k)
    boxes = [Box(corner=c, side=side) for c in spec.cells]
    best_sq: Fraction | None = None
    best_gaps: tuple[Fraction, ...] | None = None
    for i in range(spec.N):
        for j in range(i + 1, spec.N):
            gaps = []
            for o in range(3):
                gap = max(boxes[i].corner[o], boxes[j].corner[o]) - min(
                    boxes[i].corner[o] + side, boxes[j].corner[o] + side
                )
                gaps.append(max(gap, Fraction(0)))
            sq = sum((g * g for g in gaps), start=Fraction(0))
            if sq == 0:
                continue  # touching cells do not enter the minimum
            if best_sq is None or sq < best_sq:
                best_sq, best_gaps = sq, tuple(gaps)
    if best_sq is None:
        return HALF  # all cells pairwise touching: empty min treated as +inf
    positive = [g for g in best_gaps if g > 0]
    dist = positive[0] if len(positive) == 1 else _sqrt_lower_bound(best_sq)
    return min(HALF, spec.k * dist)


# ---------------------------------------------------------------------------
# the folding map
# ---------------------------------------------------------------------------


def fold_point(x: Sequence[Fraction]) -> Vec3:
    """Coordinatewise tent map onto [0,1] (period 2, reflecting at integers)."""
    out = []
    for t in x:
        r = Fraction(t) % 2
        out.append(min(r, 2 - r))
    return tuple(out)


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
    index = _level_corner_index(spec, n)
    v = index.get(folded.corner)
    if v is None:
        raise SpecError(f"folded box corner {folded.corner} matches no level-{n} cell")
    return v


# ---------------------------------------------------------------------------
# grid helpers used by config factories and tests
# ---------------------------------------------------------------------------


def grid_cells(k: int, removed: Iterable[tuple[int, int, int]] = ()) -> tuple[Vec3, ...]:
    """All k^3 grid translations except ``removed`` (given as integer triples)."""
    removed = set(removed)
    out = []
    for idx in itertools.product(range(k), repeat=3):
        if idx in removed:
            continue
        out.append(tuple(Fraction(t, k) for t in idx))
    return tuple(out)


def locate_word(spec: IfsSpec, point: Sequence[Fraction], n: int) -> Word:
    """Some level-n word whose cube contains ``point`` (smallest digits win)."""
    x = [Fraction(t) for t in point]
    word = []
    for _ in range(n):
        found = None
        for i, c in enumerate(spec.cells):
            if all(c[o] <= x[o] <= c[o] + Fraction(1, spec.k) for o in range(3)):
                found = i
                break
        if found is None:
            raise SpecError(f"point {tuple(x)} is outside every cell")
        word.append(found)
        x = [(t - spec.cells[found][o]) * spec.k for o, t in enumerate(x)]
    return tuple(word)
