"""Exact-rational geometry of the carpet IFS.

Specs hold ``fractions.Fraction`` translations.  The decision procedures
(cell overlap, face cover, symmetry, contact classification) and the contact
constants read one table of the level-1 cells, scaled to integers over one
common denominator, and of all their pairs, so every decision stays exact.
Floating point never enters; irrational carpets are out of scope and must be
supplied as rational surrogates.

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
from math import isqrt, lcm
from typing import NamedTuple, Sequence

import numpy as np

Vec3 = tuple[Fraction, Fraction, Fraction]
Word = tuple[int, ...]

HALF = Fraction(1, 2)


class SpecError(ValueError):
    """Raised when a carpet description violates a structural invariant."""


class BudgetError(RuntimeError):
    """Vertex budget exceeded; retry with a smaller level or a larger budget."""


class SolverError(RuntimeError):
    """A solve did not reach its residual bound, or a factorization failed."""


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
# cells as boxes, and the level-1 cells on one integer lattice
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Box:
    """Axis-aligned cube ``[corner, corner + side]^3`` (side > 0)."""

    corner: Vec3
    side: Fraction


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


class _PairTable(NamedTuple):
    corners: np.ndarray  # (N, 3) level-1 cell corners in units of 1/scale
    scale: int  # k times the lcm of the translation denominators
    side: int  # scale // k, the side of a level-1 cell
    i: np.ndarray  # the cell pairs (i[p], j[p]), i < j, in row-major order
    j: np.ndarray
    lens: np.ndarray  # (pairs, 3) overlap side - |C[i] - C[j]|; negative is a gap


@lru_cache(maxsize=64)
def _pair_table(spec: IfsSpec) -> _PairTable:
    """The level-1 cells as integers over one common denominator, and all pairs.

    Every pairwise decision of this module reads the per-axis overlaps
    ``lens``, so it stays exact.  Past the int64 range (lattice keys reach
    ``scale**3``) the arrays hold Python integers.
    """
    side = lcm(*(t.denominator for c in spec.cells for t in c))
    scale = spec.k * side
    corners = np.array(
        [[t.numerator * (scale // t.denominator) for t in c] for c in spec.cells],
        dtype=np.int64 if scale**3 < 2**63 else object,
    )
    i, j = np.triu_indices(spec.N, 1)
    lens = side - np.abs(corners[i] - corners[j])
    for a in (corners, i, j, lens):
        a.flags.writeable = False
    return _PairTable(corners, scale, side, i, j, lens)


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


def _image_digits(spec: IfsSpec, group: Sequence[Isometry]) -> np.ndarray:
    """Row g: the digit of the cell that g maps each cell onto, -1 where none."""
    t = _pair_table(spec)
    perm = np.array([g.perm for g in group])
    flip = np.array([g.flip for g in group])[:, None, :]
    c = t.corners
    moved = c[:, perm].swapaxes(0, 1)  # (isometry, cell, axis)
    image = np.where(flip, t.scale - t.side - moved, moved)

    def key(x):  # corners lie in [0, scale), so this is one-to-one
        return (x[..., 0] * t.scale + x[..., 1]) * t.scale + x[..., 2]

    order = np.argsort(key(c))
    keys, wanted = key(c)[order], key(image)
    pos = np.minimum(np.searchsorted(keys, wanted), spec.N - 1)
    return np.where(keys[pos] == wanted, order[pos], -1)


@lru_cache(maxsize=64)
def digit_map(spec: IfsSpec, g: Isometry) -> tuple[int, ...]:
    """Permutation of digits induced by g (g maps cell i onto cell digit_map[i]).

    Words map digitwise: the image of the cell of ``w`` is the cell of
    ``tuple(digit_map[d] for d in w)``.  Raises if g does not preserve the
    cell multiset (symmetry violated).
    """
    image = _image_digits(spec, [g])[0]
    bad = np.flatnonzero(image < 0)
    if bad.size:
        raise SpecError(
            f"isometry {g} does not map cell {bad[0]} onto a cell; symmetry violated"
        )
    return tuple(image.tolist())


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


def _face_gap(t: _PairTable, axis: int, side: int):
    """Exact decision: is face (axis,side) exactly tiled by flush cell faces?

    Sweeps slabs of the first tangential axis and, inside each slab, the
    spans of the cells crossing it in order.  Returns None on success or a
    witness rectangle (corner2d, size2d) of an uncovered patch, in units of
    1/scale.
    """
    c, h, top = t.corners, t.side, t.scale
    t1, t2 = [o for o in range(3) if o != axis]
    flush = c[:, axis] == (0 if side == 0 else top - h)
    a, b = c[flush, t1], c[flush, t2]
    xs = np.unique(np.concatenate([a, a + h, [0, top]]))
    for x0, x1 in zip(xs[:-1], xs[1:]):
        lo = np.sort(b[(a <= x0) & (a + h >= x1)])
        # cursor[m]: the slab is covered from 0 up to here before span m
        cursor = np.concatenate([[0], np.maximum.accumulate(lo + h)])
        gap = np.flatnonzero(lo > cursor[:-1])
        if gap.size:
            m = gap[0]
            return (x0, cursor[m]), (x1 - x0, lo[m] - cursor[m])
        if cursor[-1] < top:
            return (x0, cursor[-1]), (x1 - x0, top - cursor[-1])
    return None


def validate(spec: IfsSpec) -> ValidationReport:
    """Run the five exact decision procedures on a parsed carpet."""
    t = _pair_table(spec)
    c, h, n = t.corners, t.side, spec.N

    def exact(*xs):
        return tuple(Fraction(int(x), t.scale) for x in xs)

    def pair(p):
        return int(t.i[p]), int(t.j[p])

    # pairwise overlap volume must be zero
    overlap = ConditionResult(True)
    inside = np.flatnonzero((t.lens > 0).all(axis=1))
    if inside.size:
        overlap = ConditionResult(False, {"pair": pair(inside[0])})

    # all six faces exactly covered by flush cell faces
    face = ConditionResult(True)
    for axis, s in itertools.product(range(3), (0, 1)):
        wit = _face_gap(t, axis, s)
        if wit is not None:
            face = ConditionResult(
                False,
                {"face": (axis + 1, s), "uncovered_corner": exact(*wit[0]),
                 "size": exact(*wit[1])},
            )
            break

    # contact graph connected and no diagonal-only point contacts
    connect = ConditionResult(True)
    touch = (t.lens >= 0).all(axis=1)
    adj = np.zeros((n, n), dtype=bool)
    adj[t.i[touch], t.j[touch]] = True
    adj |= adj.T
    seen = np.arange(n) == 0
    while (grown := seen | adj[seen].any(axis=0)).sum() > seen.sum():
        seen = grown
    if not seen.all():
        connect = ConditionResult(
            False, {"reason": "disconnected", "component": np.flatnonzero(seen).tolist()}
        )
    else:
        point = np.flatnonzero((t.lens == 0).all(axis=1))
        pts = np.maximum(c[t.i[point]], c[t.j[point]])[:, None]
        holders = ((c <= pts) & (pts <= c + h)).all(axis=2).sum(axis=1)
        lonely = np.flatnonzero(holders < 3)  # held by the pair alone
        if lonely.size:
            connect = ConditionResult(
                False,
                {"reason": "diagonal", "pair": pair(point[lonely[0]]),
                 "point": exact(*pts[lonely[0], 0])},
            )

    # the 48 isometries must preserve the cell multiset
    sym = ConditionResult(True)
    group = isometry_group()
    missing = _image_digits(spec, group) < 0
    broken = np.flatnonzero(missing.any(axis=1))
    if broken.size:
        g = group[broken[0]]
        bad = np.flatnonzero(missing[broken[0]])[0]
        sym = ConditionResult(
            False,
            {"isometry": {"perm": g.perm, "flip": g.flip}, "cell": spec.cells[bad]},
        )

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
    t = _pair_table(spec)
    lens = t.lens[(t.lens >= 0).all(axis=1)]  # point contacts add no positive length
    positive = lens[lens > 0]
    if not positive.size:
        raise SpecError("no cell pair with a positive intersection projection")
    c_prime = Fraction(spec.k * int(positive.min()), t.scale)
    return c_prime, c_prime * c_prime / 81


def separation_constant(spec: IfsSpec) -> Fraction:
    """1/2 capped multiple of the smallest gap between disjoint level-1 cells.

    Exact when the nearest disjoint pair is axis-aligned (at most one positive
    coordinate gap); otherwise a rational sqrt lower bound within 2**-53.
    """
    t = _pair_table(spec)
    gaps = np.maximum(-t.lens, 0)
    sq = (gaps * gaps).sum(axis=1)
    apart = np.flatnonzero(sq > 0)  # touching cells do not enter the minimum
    if not apart.size:
        return HALF  # all cells pairwise touching: empty min treated as +inf
    best = apart[np.argmin(sq[apart])]
    positive = gaps[best][gaps[best] > 0]
    if len(positive) == 1:
        dist = Fraction(int(positive[0]), t.scale)
    else:
        dist = _sqrt_lower_bound(Fraction(int(sq[best]), t.scale**2))
    return min(HALF, spec.k * dist)


# ---------------------------------------------------------------------------
# point location
# ---------------------------------------------------------------------------


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
