"""Level-n cell graphs, wall graphs, face sets and vertex measures.

Vertices of the level-n graph are the N^n words in lexicographic order, so a
word is identified with its base-N integer index and prefix blocks are
contiguous index ranges.  All geometric predicates run on integer-scaled
corners (scale S = k^n * L with L the lcm of translation denominators, so
every cell has side L), which keeps graph construction exact.

Construction follows the self-similarity.  G_n is N copies of level n-1, one
per level-1 block (block b holds the words b.w as the index range b*N^(n-1) +
w), joined by the edges between blocks.  Contacts between blocks lie on the
block boundaries, so only the level-(n-1) cells on those faces, copied into
each block, are classified; each CSR row is the block row shifted, with the
cross neighbours before and after it.  Corners, grid flags and component
labels lift the same way, so G_n is checked to be connected without a pass
over it.  Specs with interior (non-grid) digits also lift G', the same cells
with every grid flag false, which those blocks copy.  Contacts are classified
by array code: cells are bucketed by corner // L (one cell per bucket in a
valid spec) and neighbours are found by ``searchsorted`` on the bucket keys;
walls fold onto the level-n graph through the same keys.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from .geometry import (
    BudgetError,
    IfsSpec,
    Isometry,
    SpecError,
    Word,
    _pair_table,
    edge_threshold_constants,
    digit_map,
    format_rational,
    parse_rational,
)

CACHE_MAGIC = b"CGPH"
CACHE_VERSION = 2


def word_index(word: Word, N: int) -> int:
    idx = 0
    for d in word:
        idx = idx * N + d
    return idx


def index_word(idx: int, n: int, N: int) -> Word:
    digits = []
    for _ in range(n):
        digits.append(idx % N)
        idx //= N
    return tuple(reversed(digits))


def _digit_arrays(n: int, N: int, count: int) -> list[np.ndarray]:
    """digit_arrays[j][i] = j-th digit of word i (vectorized base-N expansion)."""
    idx = np.arange(count, dtype=np.int64)
    out = []
    for j in range(n):
        out.append((idx // N ** (n - 1 - j)) % N)
    return out


class _Edges:
    """Neighbour lists in CSR form (``indptr``, ``indices``)."""

    @property
    def num_vertices(self) -> int:
        return len(self.indptr) - 1

    def neighbors(self, u: int) -> np.ndarray:
        return self.indices[self.indptr[u] : self.indptr[u + 1]]

    def adjacency(self) -> csr_matrix:
        """A new unit-weight adjacency matrix."""
        data = np.ones(len(self.indices), dtype=np.float64)
        v = self.num_vertices
        return csr_matrix((data, self.indices, self.indptr), shape=(v, v))

    @cached_property
    def _bfs_adjacency(self) -> csr_matrix:
        """The adjacency that every breadth-first search of this graph reuses."""
        return self.adjacency()


@dataclass
class CellGraph(_Edges):
    """Immutable level-n cell graph with face sets and contact metadata."""

    spec: IfsSpec
    n: int
    indptr: np.ndarray
    indices: np.ndarray
    corners: np.ndarray  # (V, 3) int64, scaled by self.scale
    scale: int  # corners are corner * scale, cell side is side_scaled
    side_scaled: int
    grid_word: np.ndarray  # bool: every digit touches the cube boundary
    threshold: Fraction  # contact-measure threshold constant C
    point_contact_edges: bool

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr).astype(np.int64)

    def face_set(self, axis: int, side: int) -> np.ndarray:
        if side == 0:
            return self.corners[:, axis] == 0
        return self.corners[:, axis] + self.side_scaled == self.scale

    def boundary(self) -> np.ndarray:
        out = np.zeros(self.num_vertices, dtype=bool)
        for axis in range(3):
            for side in (0, 1):
                out |= self.face_set(axis, side)
        return out

    def word_of(self, idx: int) -> Word:
        return index_word(idx, self.n, self.spec.N)

    def index_of(self, word: Word) -> int:
        return word_index(word, self.spec.N)

    def block_range(self, prefix: Word) -> tuple[int, int]:
        """Index range of the block prefix.W_(n-m) (contiguous in lex order)."""
        m = len(prefix)
        size = self.spec.N ** (self.n - m)
        start = word_index(prefix, self.spec.N) * size
        return start, start + size


def middle_layers(graph: CellGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(I, I+, I-): cells meeting the middle plane / upper / lower x1 halves."""
    lo = 2 * graph.corners[:, 0]
    hi = 2 * (graph.corners[:, 0] + graph.side_scaled)
    mid = graph.scale
    middle = (lo <= mid) & (hi >= mid)
    upper = hi >= mid
    lower = lo <= mid
    return middle, upper, lower


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def _scaled_geometry(spec: IfsSpec, n: int):
    """Integer corner array for all level-n cells plus (scale, side) ints."""
    table = _pair_table(spec)
    digit_corners = np.asarray(table.corners, dtype=np.int64)
    count = spec.N**n
    corners = np.zeros((count, 3), dtype=np.int64)
    for j, digits in enumerate(_digit_arrays(n, spec.N, count)):
        corners += digit_corners[digits] * (spec.k ** (n - 1 - j))
    return corners, spec.k**n * table.side, table.side


_OVERLAP = "cells overlap with positive volume; spec is invalid"

# the 13 bucket offsets lexicographically above (0, 0, 0): each unordered pair
# of distinct neighbouring buckets is reached from exactly one of its ends
_POSITIVE_OFFSETS = [
    (dx, dy, dz)
    for dx in (-1, 0, 1)
    for dy in (-1, 0, 1)
    for dz in (-1, 0, 1)
    if (dx, dy, dz) > (0, 0, 0)
]


def _bucket_keys(corners: np.ndarray, side: int, width: int) -> np.ndarray:
    """Integer key of the bucket corner // side, shifted so offsets of -1 fit."""
    b = corners // side + 1
    return (b[:, 0] * width + b[:, 1]) * width + b[:, 2]


def _adjacency(corners: np.ndarray, side: int, grid: np.ndarray,
               threshold: Fraction, point_contact: bool):
    """CSR adjacency of equal cubes of side ``side`` (exact integer decisions).

    Cells are bucketed by corner // side.  Two cells in one bucket differ by
    less than a side on every axis and so overlap, hence every bucket of a
    valid spec holds one cell and touching cells sit in neighbouring buckets.
    All candidate pairs of one bucket offset are classified at once; the
    targets are searched in key order, which is sorted.
    """
    count = len(corners)
    width = int(corners.max(initial=0)) // side + 3
    keys = _bucket_keys(corners, side, width)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    if (sorted_keys[1:] == sorted_keys[:-1]).any():
        raise SpecError(_OVERLAP)
    num, den = threshold.numerator, threshold.denominator
    wide = side * side * max(num, den) >= 2**63  # measures leave int64
    src, dst = [], []
    for dx, dy, dz in _POSITIVE_OFFSETS:
        target = sorted_keys + (dx * width + dy) * width + dz
        pos = np.minimum(np.searchsorted(sorted_keys, target), count - 1)
        hit = np.flatnonzero(sorted_keys[pos] == target)
        i, j = order[hit], order[pos[hit]]
        lens = side - np.abs(corners[i] - corners[j])  # overlap per axis
        touch = (lens[:, 0] >= 0) & (lens[:, 1] >= 0) & (lens[:, 2] >= 0)
        i, j, lens = i[touch], j[touch], lens[touch]
        positive = lens > 0
        flat = 3 - positive.sum(axis=1)  # number of degenerate axes
        if (flat == 0).any():
            raise SpecError(_OVERLAP)
        # segment length (flat == 2) or rectangle area (flat == 1)
        measure = np.where(positive, lens, 1).astype(object if wide else np.int64)
        measure = measure[:, 0] * measure[:, 1] * measure[:, 2]
        # segment: len > C k^-n  <=>  len*den > num*L; rectangle: area*den > num*L^2
        edge = np.where(
            flat == 3,
            point_contact,
            np.where(flat == 2, measure * den > num * side,
                     measure * den > num * side * side),
        )
        # grid pairs: exact full-face match only
        full_face = (flat == 1) & (measure == side * side)
        edge = np.where(grid[i] & grid[j], full_face, edge)
        src.append(i[edge])
        dst.append(j[edge])
    pairs = np.concatenate(src + dst)
    indptr = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(np.bincount(pairs, minlength=count), out=indptr[1:])
    # row-major order of the (row, column) pairs, neighbours ascending
    pairs *= count
    pairs += np.concatenate(dst + src)
    pairs.sort()
    pairs %= count
    return indptr, pairs


def check_budget(spec: IfsSpec, n: int, max_vertices: int) -> None:
    """Raise unless n >= 0 and the N^n vertices of level n fit in ``max_vertices``."""
    if n < 0:
        raise SpecError("level must be >= 0")
    if spec.N**n > max_vertices:
        raise BudgetError(f"level {n} needs {spec.N**n} vertices > budget {max_vertices}")


@dataclass(frozen=True)
class _Digits:
    """What every lift reads: the level-1 cells and the contact rule."""

    corners: np.ndarray  # (N, 3) int64, scaled so that a cell has side ``side``
    grid: np.ndarray  # bool: the cell touches the cube boundary
    faces: np.ndarray  # (N, 6) bool: faces (low x y z, high x y z) towards a meeting cell
    k: int
    side: int
    threshold: Fraction
    point_contact: bool


def _digits(spec: IfsSpec, point_contact: bool) -> _Digits:
    """The level-1 data of ``spec``; faces come from the exact pair table."""
    table = _pair_table(spec)
    corners = np.asarray(table.corners, dtype=np.int64)
    top = table.scale - table.side
    meet = (table.lens >= 0).all(axis=1)
    i, j = table.i[meet], table.j[meet]
    towards_j = np.concatenate([corners[j] < corners[i], corners[j] > corners[i]],
                               axis=1)
    faces = np.zeros((spec.N, 6), dtype=bool)
    np.logical_or.at(faces, i, towards_j)
    np.logical_or.at(faces, j, np.roll(towards_j, 3, axis=1))
    return _Digits(corners=corners,
                   grid=((corners == 0) | (corners == top)).any(axis=1),
                   faces=faces, k=spec.k, side=table.side,
                   threshold=edge_threshold_constants(spec)[1],
                   point_contact=point_contact)


@dataclass
class _Level:
    """One level-m graph as the lift builds it: CSR, cells and components."""

    indptr: np.ndarray
    indices: np.ndarray
    corners: np.ndarray
    grid: np.ndarray
    labels: np.ndarray | None  # component of each vertex; None when unneeded
    parts: int


def _point(grid: bool) -> _Level:
    """Level 0: one cell, the unit cube, with no edges."""
    return _Level(np.zeros(2, dtype=np.int64), np.zeros(0, dtype=np.int64),
                  np.zeros((1, 3), dtype=np.int64), np.array([grid]),
                  np.zeros(1, dtype=np.int64), 1)


def _lift(d: _Digits, m: int, levels: tuple[_Level, ...], which: np.ndarray,
          labels: bool) -> _Level:
    """Level m from N level-(m-1) blocks: block b is a copy of ``levels[which[b]]``.

    Block b holds the cells ``k^(m-1) * d.corners[b] + sub.corners`` with grid
    flags ``d.grid[b] & sub.grid``.  Blocks have disjoint interiors, so two
    cells of different blocks touch only where both touch the boundary of
    their block, on a face towards a block that meets the other one.
    ``_adjacency`` runs on those cells alone and keeps the pairs that cross
    blocks.  Row u of block b then reads [cross neighbours before block b,
    the copied row shifted by b*N^(m-1), cross neighbours after block b];
    each part is sorted, so they merge without a sort.  The components are
    those of the quotient whose nodes are the block components, joined by
    the cross edges.
    """
    size, blocks = len(levels[0].corners), len(which)
    count = blocks * size
    sub_scale = d.k ** (m - 1) * d.side
    shift = d.corners * d.k ** (m - 1)
    sub_corners = levels[0].corners
    sub_grid = np.stack([g.grid for g in levels])[which]  # (blocks, size)
    cell_faces = np.concatenate([sub_corners == 0, sub_corners + d.side == sub_scale],
                                axis=1)
    on_face = np.flatnonzero(cell_faces.any(axis=1))
    block, cell = np.nonzero((d.faces[:, None, :] & cell_faces[on_face]).any(axis=2))
    cell = on_face[cell]
    cand_ptr, cand_idx = _adjacency(shift[block] + sub_corners[cell], d.side,
                                    d.grid[block] & sub_grid[block, cell],
                                    d.threshold, d.point_contact)
    # candidates are in global order, so the cross entries stay row-major sorted
    glob = block * size + cell
    src = np.repeat(np.arange(len(glob)), np.diff(cand_ptr))
    cross = block[src] != block[cand_idx]
    rows, cols = glob[src[cross]], glob[cand_idx[cross]]

    indptr = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(np.stack([np.diff(g.indptr) for g in levels])[which], out=indptr[1:])
    before = cols < rows - rows % size
    pos = np.arange(len(cols)) + np.where(before, indptr[rows], indptr[rows + 1])
    indptr[1:] += np.cumsum(np.bincount(rows, minlength=count))
    indices = np.empty(int(indptr[-1]), dtype=np.int64)
    indices[pos] = cols
    copied = np.ones(len(indices), dtype=bool)
    copied[pos] = False
    for b in range(blocks):
        lo, hi = indptr[b * size], indptr[(b + 1) * size]
        segment = indices[lo:hi]
        segment[copied[lo:hi]] = levels[which[b]].indices + b * size

    parts = np.array([g.parts for g in levels])[which]
    first = np.zeros(blocks, dtype=np.int64)  # first quotient node of each block
    np.cumsum(parts[:-1], out=first[1:])
    local = np.stack([g.labels for g in levels])

    def node(u):
        b, r = np.divmod(u, size)
        return first[b] + local[which[b], r]

    quotient = csr_matrix((np.ones(len(rows), dtype=np.int8), (node(rows), node(cols))),
                          shape=(int(parts.sum()),) * 2)
    ncomp, qlabels = connected_components(quotient, directed=False)
    return _Level(indptr, indices,
                  (shift[:, None, :] + sub_corners).reshape(-1, 3),
                  (d.grid[:, None] & sub_grid).ravel(),
                  qlabels[node(np.arange(count))] if labels else None, int(ncomp))


def build_graph(
    spec: IfsSpec,
    n: int,
    *,
    point_contact_edges: bool = True,
    max_vertices: int = 500_000,
) -> CellGraph:
    """Build the level-n cell graph.

    Edges follow the two-case contact rule: grid-word pairs are adjacent iff
    their cubes share an exact full face; other pairs are adjacent iff their
    contact is a point (when ``point_contact_edges``) or a segment/rectangle
    whose measure exceeds the threshold C*k^-n / C*k^-2n.

    G_n is lifted from G_(n-1), down to the one-cell level 0 (``_lift``):
    level-1 block b holds a copy of G_(n-1) when digit b touches the cube
    boundary and of G'_(n-1) otherwise.  G' is the same recursion with every
    grid flag false; only specs with interior digits build it.  Raises
    :class:`SpecError` when two cells overlap (decided at level 1) or G_n is
    disconnected.
    """
    check_budget(spec, n, max_vertices)
    d = _digits(spec, point_contact_edges)
    g, g_prime = _point(True), _point(False)
    mixed = not d.grid.all()
    for m in range(1, n + 1):
        labels = m < n
        g_next = _lift(d, m, (g, g_prime) if mixed else (g,),
                       (~d.grid).astype(np.intp), labels)
        if mixed and labels:
            g_prime = _lift(d, m, (g_prime,), np.zeros(spec.N, dtype=np.intp), labels)
        g = g_next
    if g.parts != 1:
        raise SpecError(f"level-{n} cell graph is disconnected ({g.parts} parts)")
    return CellGraph(
        spec=spec,
        n=n,
        indptr=g.indptr,
        indices=g.indices,
        corners=g.corners,
        scale=spec.k**n * d.side,
        side_scaled=d.side,
        grid_word=g.grid,
        threshold=d.threshold,
        point_contact_edges=point_contact_edges,
    )


# ---------------------------------------------------------------------------
# balls, distances, neighborhoods
# ---------------------------------------------------------------------------


def _bfs_depths(graph: CellGraph, start: int | np.ndarray, limit: int | None = None):
    """Edge distance from the nearest start vertex; -1 beyond ``limit``."""
    dist = dijkstra(graph._bfs_adjacency, indices=np.atleast_1d(start),
                    unweighted=True, limit=np.inf if limit is None else limit,
                    min_only=True)
    return np.where(np.isfinite(dist), dist, -1).astype(np.int64)


def neighborhood(graph: CellGraph, u: int, l_star: int) -> np.ndarray:
    """Vertices reachable from u with at most l_star edges (boolean mask)."""
    depth = _bfs_depths(graph, u, limit=l_star)
    return (depth >= 0) & (depth <= l_star)


def word_permutation(graph: CellGraph, g: Isometry) -> np.ndarray:
    """Vertex permutation induced by an isometry (digitwise relabeling)."""
    dm = np.array(digit_map(graph.spec, g), dtype=np.int64)
    count = graph.num_vertices
    out = np.zeros(count, dtype=np.int64)
    N = graph.spec.N
    for j, digits in enumerate(_digit_arrays(graph.n, N, count)):
        out = out * N + dm[digits]
    return out


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------


def walk_measure(graph: CellGraph) -> np.ndarray:
    """Degree measure with a +1 boundary bonus (the walk's reversing measure)."""
    deg = graph.degrees
    bad = (deg == 0) & ~graph.boundary()
    if bad.any():
        raise SpecError("zero-degree interior vertex; graph is disconnected")
    return deg + graph.boundary().astype(np.int64)


def degree_report(graph: CellGraph) -> dict:
    """Max degree and whether the walk measure stays within 8x counting."""
    deg = graph.degrees
    pi = walk_measure(graph)
    return {
        "max_degree": int(deg.max()),
        "pi_le_8": bool((pi <= 8).all()),
        "max_pi": int(pi.max()),
    }


# ---------------------------------------------------------------------------
# wall graphs
# ---------------------------------------------------------------------------


@dataclass
class WallGraph(_Edges):
    """Stack of level-n blocks over the bottom-face (x2=0) level-m prefixes.

    Vertices are (prefix, suffix) pairs ordered lexicographically; adjacency
    is the level-(m+n) contact rule restricted to the wall.  ``fold`` sends
    each vertex to its level-n image under the coordinatewise tent map and
    ``outside_degree`` counts wall neighbors outside the vertex's own block.
    """

    spec: IfsSpec
    m: int
    n: int
    prefixes: list[Word]
    indptr: np.ndarray
    indices: np.ndarray
    fold: np.ndarray  # wall vertex -> level-n vertex index
    outside_degree: np.ndarray
    pi: np.ndarray  # reversing measure pi_{m,n}
    cell_graph: CellGraph  # the level-n graph the wall folds onto

    @property
    def block_size(self) -> int:
        return self.spec.N**self.n

    def vertex_word(self, u: int) -> Word:
        b = self.block_size
        return self.prefixes[u // b] + index_word(u % b, self.n, self.spec.N)


def bottom_face_prefixes(spec: IfsSpec, m: int) -> list[Word]:
    """Level-m words flush to the x2=0 face, in lexicographic order."""
    import itertools as _it

    bottom_digits = [i for i, c in enumerate(spec.cells) if c[1] == 0]
    return [tuple(w) for w in _it.product(bottom_digits, repeat=m)]


def build_wall(
    spec: IfsSpec,
    m: int,
    n: int,
    *,
    cell_graph: CellGraph | None = None,
    max_vertices: int = 500_000,
    point_contact_edges: bool = True,
) -> WallGraph:
    """Build the wall graph of level-n blocks attached to the x2=0 face."""
    if cell_graph is None:
        cell_graph = build_graph(spec, n, max_vertices=max_vertices,
                                 point_contact_edges=point_contact_edges)
    prefixes = bottom_face_prefixes(spec, m)
    bs = spec.N**n
    count = len(prefixes) * bs
    if count > max_vertices:
        raise BudgetError(f"wall ({m},{n}) needs {count} vertices > budget")

    # scaled level-(m+n) corners of wall cells: prefix * k^n + suffix
    pm, _, side = _scaled_geometry(spec, m)
    prefix_rows = np.array(
        [word_index(p, spec.N) for p in prefixes], dtype=np.int64
    )
    pm = pm[prefix_rows]
    cn = cell_graph.corners
    corners = np.repeat(pm * (spec.k**n), bs, axis=0) + np.tile(cn, (len(prefixes), 1))

    suffix_grid = cell_graph.grid_word
    grid = np.tile(suffix_grid, len(prefixes))  # bottom prefixes are grid words
    _, threshold = edge_threshold_constants(spec)
    indptr, indices = _adjacency(corners, side, grid, threshold,
                                 point_contact_edges)

    # fold each wall cell onto its level-n image by integer tent-map algebra
    scale_n = cell_graph.scale
    turns, r = np.divmod(corners, scale_n)
    if (r + side > scale_n).any():
        raise SpecError("wall cell straddles a fold line")
    folded = np.where(turns % 2 == 0, r, scale_n - r - side)
    # a level-n cell is the only one in its bucket; match buckets, then corners
    width = max(int(cn.max(initial=0)), int(folded.max(initial=0))) // side + 3
    cell_keys = _bucket_keys(cn, side, width)
    order = np.argsort(cell_keys)
    folded_keys = _bucket_keys(folded, side, width)
    pos = np.minimum(np.searchsorted(cell_keys[order], folded_keys), len(cn) - 1)
    fold = order[pos]
    if not (cn[fold] == folded).all():
        raise SpecError("folded wall cell matches no level-n cell")

    deg_wall = np.diff(indptr)
    deg_cell = cell_graph.degrees[fold]
    outside = deg_wall - deg_cell
    if outside.min() < 0 or outside.max() > 2:
        raise SpecError(
            f"wall outside degree out of range [0, 2]: "
            f"[{outside.min()}, {outside.max()}]"
        )
    pi_cell = walk_measure(cell_graph)
    return WallGraph(
        spec=spec,
        m=m,
        n=n,
        prefixes=prefixes,
        indptr=indptr,
        indices=indices,
        fold=fold,
        outside_degree=outside.astype(np.int64),
        pi=pi_cell[fold],
        cell_graph=cell_graph,
    )


# ---------------------------------------------------------------------------
# graph cache
# ---------------------------------------------------------------------------


def save_graph(graph: CellGraph, path: str) -> None:
    """Write the versioned binary cache: header JSON + raw numpy buffers."""
    meta = {
        "spec_hash": graph.spec.spec_hash(),
        "n": graph.n,
        "C": format_rational(graph.threshold),
        "scale": graph.scale,
        "side": graph.side_scaled,
        "point_contact_edges": graph.point_contact_edges,
        "spec": json.loads(graph.spec.canonical_json()),
    }
    blob = json.dumps(meta, sort_keys=True).encode()
    with open(path, "wb") as f:
        f.write(CACHE_MAGIC)
        f.write(struct.pack("<II", CACHE_VERSION, len(blob)))
        f.write(blob)
        for arr in (graph.indptr, graph.indices, graph.corners,
                    graph.grid_word):
            np.save(f, arr, allow_pickle=False)


def load_graph(spec: IfsSpec, path: str) -> CellGraph:
    """Load a cached graph.

    Raises :class:`SpecError` on a magic, version or spec-hash mismatch and
    on any file that does not decode (truncated or garbled), so callers can
    treat every unusable cache as a miss.
    """
    try:
        with open(path, "rb") as f:
            if f.read(4) != CACHE_MAGIC:
                raise SpecError("bad cache magic")
            version, blob_len = struct.unpack("<II", f.read(8))
            if version != CACHE_VERSION:
                raise SpecError(f"cache version {version} != {CACHE_VERSION}")
            meta = json.loads(f.read(blob_len))
            if meta["spec_hash"] != spec.spec_hash():
                raise SpecError("cache spec hash mismatch; rebuild required")
            indptr, indices, corners, grid = (np.load(f, allow_pickle=False)
                                              for _ in range(4))
        return CellGraph(
            spec=spec,
            n=int(meta["n"]),
            indptr=indptr,
            indices=indices,
            corners=corners,
            scale=int(meta["scale"]),
            side_scaled=int(meta["side"]),
            grid_word=grid,
            threshold=parse_rational(meta["C"]),
            point_contact_edges=bool(meta["point_contact_edges"]),
        )
    except SpecError:
        raise
    except (struct.error, ValueError, KeyError, TypeError, EOFError) as exc:
        raise SpecError(f"unreadable graph cache: {exc}") from exc


def export_adjacency_json(graph: CellGraph) -> str:
    """Adjacency as JSON for interop: list of neighbor lists in vertex order.

    The neighbor lists are written as a byte matrix with one line per "[",
    neighbor or "]" in output order; zero bytes (leading zeros, the comma
    before a row's first neighbor) are dropped.
    """
    head = json.dumps({"n": graph.n, "N": graph.spec.N,
                       "spec_hash": graph.spec.spec_hash()}, separators=(",", ":"))
    v, deg, idx = graph.num_vertices, graph.degrees, graph.indices.astype(np.int64)
    opens = graph.indptr[:-1] + 2 * np.arange(v)
    neighbors = np.arange(len(idx)) + np.repeat(2 * np.arange(v) + 1, deg)
    width = len(str(int(idx.max(initial=0))))
    powers = 10 ** np.arange(width - 1, -1, -1)
    digits = idx[:, None] // powers
    chars = np.zeros((len(idx) + 2 * v, width + 1), dtype=np.uint8)
    chars[neighbors, 0] = ord(",")
    chars[opens[deg > 0] + 1, 0] = 0
    chars[neighbors, 1:] = np.where((digits > 0) | (powers == 1),
                                    digits % 10 + ord("0"), 0)
    chars[opens[1:], 0] = ord(",")
    chars[opens, 1] = ord("[")
    chars[opens + deg + 1, 0] = ord("]")
    body = chars[chars > 0].tobytes().decode()
    return f'{head[:-1]},"adjacency":[{body}]}}'
