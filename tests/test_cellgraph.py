"""Cell graphs, walls, face sets, measures, caching."""

import json
from fractions import Fraction

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

import carpetlab as cl
import carpetlab.cellgraph as cellgraph
from carpetlab.cellgraph import (
    BudgetError,
    _adjacency,
    _bfs_depths,
    _scaled_geometry,
    bottom_face_prefixes,
    build_graph,
    build_wall,
    degree_report,
    export_adjacency_json,
    load_graph,
    middle_layers,
    neighborhood,
    save_graph,
    walk_measure,
    word_permutation,
)
from carpetlab.geometry import (
    IfsSpec,
    SpecError,
    _pair_table,
    axis_reflection,
    cell_box,
    edge_threshold_constants,
)
from geometry_oracles import adapted_audit, box_intersection, fold_word

F = Fraction


def corner_index(lab, *coords):
    return lab.graph(1).index_of(
        (lab.spec.digit_of_corner(tuple(F(c, 3) for c in coords)),)
    )


def test_level1_structure(lab):
    g = lab.graph(1)
    assert g.num_vertices == 26
    c = corner_index(lab, 0, 0, 0)
    assert g.degrees[c] == 3
    # edge-sharing grid cells are NOT adjacent (Case-1 only)
    edge_cell = corner_index(lab, 1, 1, 0)
    assert edge_cell not in g.neighbors(c)
    assert int(g.face_set(0, 0).sum()) == 9
    assert int(g.boundary().sum()) == 26


def test_level2_counts(lab):
    g = lab.graph(2)
    assert g.num_vertices == 676
    assert bool(g.grid_word.all())


def test_middle_layers(lab):
    middle, upper, lower = middle_layers(lab.graph(1))
    assert int(middle.sum()) == 8
    assert bool((middle == (upper & lower)).all())


def test_case1_exactness_bruteforce(lab):
    # adjacency of grid words must coincide with exact face matching
    g = lab.graph(1)
    spec = lab.spec
    for u in range(26):
        bu = cell_box(spec, (u,))
        nbrs = set(g.neighbors(u).tolist())
        for v in range(26):
            if v == u:
                continue
            bv = cell_box(spec, (v,))
            inter = box_intersection(bu, bv)
            face_match = inter.kind == "rectangle" and inter.measure == F(1, 9)
            assert (v in nbrs) == face_match


def test_edge_symmetry_no_loops(lab):
    g = lab.graph(2)
    u = np.repeat(np.arange(g.num_vertices), np.diff(g.indptr))
    assert not (u == g.indices).any()
    pairs = set(zip(u.tolist(), g.indices.tolist()))
    assert all((v, w) in pairs for (w, v) in pairs)


def test_graph_distance_and_ball(lab):
    g = lab.graph(1)
    c = corner_index(lab, 0, 0, 0)
    far = corner_index(lab, 2, 2, 2)
    depth = _bfs_depths(g, c)
    assert depth[far] == 6 and depth[c] == 0
    assert (_bfs_depths(g, c, limit=0) == 0).sum() == 1


def _bfs_depths_loop(graph, start, limit=None):
    """Per-vertex frontier BFS: the reference for the csgraph traversal."""
    depth = np.full(graph.num_vertices, -1, dtype=np.int64)
    frontier = [int(s) for s in np.atleast_1d(start)]
    depth[frontier] = 0
    d = 0
    while frontier and (limit is None or d < limit):
        nxt = []
        for u in frontier:
            for v in graph.indices[graph.indptr[u]:graph.indptr[u + 1]]:
                if depth[v] < 0:
                    depth[v] = d + 1
                    nxt.append(int(v))
        frontier = nxt
        d += 1
    return depth


@pytest.mark.parametrize("name,n", [("carpet26", 1), ("carpet26", 2), ("carpet26", 3),
                                    ("offgrid158", 1), ("offgrid158", 2)])
def test_bfs_depths_match_loop(graph_of, name, n):
    g = graph_of(name, n)
    boundary = np.nonzero(g.boundary())[0]
    for start in (0, g.num_vertices // 2, boundary, boundary[::7]):
        for limit in (None, 0, 1, 3):
            got = _bfs_depths(g, start, limit)
            assert got.dtype == np.int64
            assert np.array_equal(got, _bfs_depths_loop(g, start, limit))


def test_neighborhood(lab):
    g = lab.graph(1)
    c = corner_index(lab, 0, 0, 0)
    assert int(neighborhood(g, c, 0).sum()) == 1
    n1 = neighborhood(g, c, 1)
    assert int(n1.sum()) == 4
    assert bool(neighborhood(g, c, 10).all())


def test_touching_grid_words_within_four(lab):
    # touching cells are joined by a path of length at most 4 (<= 3 edges)
    g = lab.graph(1)
    spec = lab.spec
    for u in range(26):
        bu = cell_box(spec, (u,))
        depth = _bfs_depths(g, u)
        for v in range(u + 1, 26):
            if box_intersection(bu, cell_box(spec, (v,))).kind != "empty":
                assert 0 <= depth[v] <= 3


def test_isometry_equivariance(lab):
    g = lab.graph(2)
    perm = word_permutation(g, axis_reflection(1))
    u = np.repeat(np.arange(g.num_vertices), np.diff(g.indptr))
    pairs = set(zip(u.tolist(), g.indices.tolist()))
    sample = list(pairs)[::97]
    for (a, b) in sample:
        assert (int(perm[a]), int(perm[b])) in pairs
    # face sets map to face sets under the induced face permutation
    f = g.face_set(1, 0)
    image = np.zeros_like(f)
    image[perm] = f
    assert bool((image == g.face_set(1, 1)).all())


def test_measures(lab):
    g = lab.graph(1)
    assert g.num_vertices == 26
    pi = walk_measure(g)
    c = corner_index(lab, 0, 0, 0)
    assert pi[c] == 4
    rep = degree_report(g)
    assert rep["pi_le_8"] and rep["max_degree"] <= 7


def test_budget(spec26):
    with pytest.raises(BudgetError):
        build_graph(spec26, 3, max_vertices=1000)


def test_wall_structure(lab):
    wall = lab.wall(1, 1)
    assert wall.num_vertices == 9 * 26
    assert len(bottom_face_prefixes(lab.spec, 1)) == 9
    assert set(np.unique(wall.outside_degree)) <= {0, 1, 2}
    # fold table is surjective onto the level-1 words
    assert set(wall.fold.tolist()) == set(range(26))
    # wall measure equals the cell measure at the folded image
    pi1 = walk_measure(lab.graph(1))
    assert bool((wall.pi == pi1[wall.fold]).all())


def test_wall_m0_trivial(lab):
    wall = lab.wall(0, 1)
    assert wall.num_vertices == 26
    assert bool((wall.fold == np.arange(26)).all())
    assert bool((wall.outside_degree == 0).all())


def test_wall_edges_are_level_edges(lab):
    # every wall edge must be a level-(m+n) contact
    wall = lab.wall(1, 1)
    spec = lab.spec
    u = np.repeat(np.arange(wall.num_vertices), np.diff(wall.indptr))
    for a, b in list(zip(u.tolist(), wall.indices.tolist()))[::53]:
        wa, wb = wall.vertex_word(a), wall.vertex_word(b)
        inter = box_intersection(cell_box(spec, wa), cell_box(spec, wb))
        assert inter.kind in ("rectangle", "segment", "point")


def test_wall_fold_commutes_with_faces(lab):
    wall = lab.wall(1, 2)
    g = lab.graph(2)
    # folded faces pull back to whole layers: spot-check the x2 faces exist
    for s in (0, 1):
        mask = g.face_set(1, s)[wall.fold]
        assert mask.any()


@pytest.mark.parametrize("name,m,n", [
    ("carpet26", 1, 1), ("carpet26", 2, 1), ("offgrid158", 1, 1), ("menger", 1, 1),
])
def test_wall_fold_matches_fold_word(graph_of, name, m, n):
    # the integer tent-map fold agrees with the per-box Fraction fold
    g = graph_of(name, n)
    wall = build_wall(g.spec, m, n, cell_graph=g)
    got = [g.word_of(int(v)) for v in wall.fold]
    want = [fold_word(g.spec, m, n, wall.vertex_word(u))
            for u in range(wall.num_vertices)]
    assert got == want


def test_adapted_audit(spec26, lab):
    assert adapted_audit(spec26, 1, 3, graph=lab.graph(1))["pass"]
    assert adapted_audit(spec26, 2, 3, graph=lab.graph(2))["pass"]


def test_cache_roundtrip(tmp_path, lab, spec26):
    g = lab.graph(2)
    path = tmp_path / "g2.graph"
    save_graph(g, str(path))
    loaded = load_graph(spec26, str(path))
    assert loaded.num_vertices == g.num_vertices
    assert bool((loaded.indices == g.indices).all())
    assert loaded.threshold == g.threshold
    other = cl.builtin_spec("menger")
    with pytest.raises(SpecError, match="hash"):
        load_graph(other, str(path))


def test_truncated_cache_raises_spec_error(tmp_path, lab, spec26):
    path = tmp_path / "g1.graph"
    save_graph(lab.graph(1), str(path))
    raw = path.read_bytes()
    for length in range(len(raw)):
        path.write_bytes(raw[:length])
        with pytest.raises(SpecError):
            load_graph(spec26, str(path))


def test_export_adjacency(lab):
    doc = export_adjacency_json(lab.graph(1))
    assert '"n":1' in doc.replace(" ", "")


@pytest.mark.parametrize("name,n", [("carpet26", 0), ("carpet26", 2),
                                    ("offgrid158", 1)])
def test_export_adjacency_matches_json_dumps(name, n):
    # level 0 has one vertex and an empty neighbor list
    g = build_graph(cl.builtin_spec(name), n)
    want = json.dumps(
        {"n": g.n, "N": g.spec.N, "spec_hash": g.spec.spec_hash(),
         "adjacency": [[int(v) for v in g.neighbors(u)]
                       for u in range(g.num_vertices)]},
        separators=(",", ":"))
    assert export_adjacency_json(g).encode() == want.encode()


def direct_graph(spec, n, point_contact=True):
    """(indptr, indices, corners, grid) from ``_adjacency`` on all N^n cells.

    The oracle of the lifted build: a word is a grid word iff every digit
    touches the cube boundary.
    """
    corners, _, side = _scaled_geometry(spec, n)
    table = _pair_table(spec)
    top = table.scale - table.side
    digit_grid = ((table.corners == 0) | (table.corners == top)).any(axis=1)
    words = np.arange(spec.N**n)
    grid = np.ones(len(words), dtype=bool)
    for j in range(n):
        grid &= digit_grid[words // spec.N ** (n - 1 - j) % spec.N]
    _, threshold = edge_threshold_constants(spec)
    return (*_adjacency(corners, side, grid, threshold, point_contact), corners, grid)


@pytest.mark.parametrize("name,n", [
    ("carpet26", 0), ("carpet26", 1), ("carpet26", 2), ("carpet26", 3),
    ("menger", 1), ("menger", 2), ("menger", 3), ("offgrid158", 1), ("offgrid158", 2),
])
@pytest.mark.parametrize("point_contact", [True, False])
def test_lifted_graph_matches_direct_build(name, n, point_contact):
    g = build_graph(cl.builtin_spec(name), n, point_contact_edges=point_contact)
    want = direct_graph(g.spec, n, point_contact)
    for got, ref in zip((g.indptr, g.indices, g.corners, g.grid_word), want):
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("name,n", [("carpet26", 3), ("offgrid158", 2)])
def test_lift_never_sees_the_whole_level(monkeypatch, name, n):
    # the pair classifier and the component count only see candidate cells
    # and the quotient of the block components, never all N^n cells
    sizes = []

    def adjacency(corners, *args):
        sizes.append(len(corners))
        return _adjacency(corners, *args)

    def components(graph, **kwargs):
        sizes.append(graph.shape[0])
        return connected_components(graph, **kwargs)

    monkeypatch.setattr(cellgraph, "_adjacency", adjacency)
    monkeypatch.setattr(cellgraph, "connected_components", components)
    spec = cl.builtin_spec(name)
    build_graph(spec, n)
    assert sizes and max(sizes) < spec.N**n


# level-1 cells of k = 3 specs, corners in units of 1/3
THIRDS = {
    # a face pair plus an isolated far cell
    "split": ((0, 0, 0), (1, 0, 0), (2, 2, 2)),
    # point contacts only at the origin cell; the centre is an interior digit
    "points": ((0, 0, 0), (1, 1, 1), (1, 2, 1), (2, 1, 2)),
    # four level-1 parts, whose copies the cross edges join part by part
    "scatter": ((0, 0, 2), (0, 1, 2), (0, 2, 1), (0, 2, 2), (1, 2, 2), (2, 0, 0),
                (2, 0, 2), (2, 1, 2), (2, 2, 0)),
}


def thirds_spec(name):
    cells = tuple(tuple(F(c, 3) for c in cell) for cell in THIRDS[name])
    return IfsSpec(name=name, k=3, cells=cells)


def test_connectivity_enforced():
    # the level-1 build must reject the split spec
    with pytest.raises(SpecError, match="disconnected"):
        build_graph(thirds_spec("split"), 1)


@pytest.mark.parametrize("name,n,parts", [
    ("split", 1, 2), ("split", 2, 6), ("split", 3, 18), ("points", 1, 1),
    ("points", 2, 2), ("points", 3, 8), ("scatter", 1, 4), ("scatter", 2, 28),
    ("scatter", 3, 237),
])
def test_part_count_matches_direct_build(name, n, parts):
    # the lift counts parts through the block components; the inner levels
    # report theirs instead of raising
    spec = thirds_spec(name)
    indptr, indices, _, _ = direct_graph(spec, n)
    v = len(indptr) - 1
    adjacency = csr_matrix((np.ones(len(indices)), indices, indptr), shape=(v, v))
    assert connected_components(adjacency, directed=False)[0] == parts
    if parts == 1:
        assert np.array_equal(build_graph(spec, n).indices, indices)
        return
    with pytest.raises(SpecError) as info:
        build_graph(spec, n)
    assert str(info.value) == f"level-{n} cell graph is disconnected ({parts} parts)"


def overlapping_carpet26():
    """carpet26 plus the cell (0, 0, 1/6), which overlaps two boundary cells."""
    spec = cl.builtin_spec("carpet26")
    cells = spec.cells + ((F(0), F(0), F(1, 6)),)
    return IfsSpec(name="overlap", k=3, cells=cells)


def test_overlapping_cells_are_reported():
    with pytest.raises(SpecError) as info:
        build_graph(overlapping_carpet26(), 1)
    assert str(info.value) == "cells overlap with positive volume; spec is invalid"


def test_overlap_is_reported_at_level_2():
    # overlap is decided at level 1 and on the cross candidates alone
    with pytest.raises(SpecError) as info:
        build_graph(overlapping_carpet26(), 2)
    assert str(info.value) == "cells overlap with positive volume; spec is invalid"


def test_overlap_across_buckets_is_reported():
    # scaled by L = 6 the corners sit in buckets 0 and 1, yet the cubes overlap
    cells = ((F(1, 6), F(0), F(0)), (F(1, 3), F(0), F(0)))
    with pytest.raises(SpecError, match="overlap with positive volume"):
        build_graph(IfsSpec(name="slide", k=3, cells=cells), 1)
