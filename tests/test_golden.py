"""Differential oracles for the array-built construction, walks and bricks.

``golden/construction_hashes.json`` holds SHA-256 hashes of graph, wall and
kernel arrays written by the per-pair reference construction,
``golden/simulate_hashes.json`` those of the Monte Carlo output written by
the thread-sharded engine, ``golden/brick_hashes.json`` those of the brick
functions written by the per-vertex ``Fraction`` path, and
``golden/geometry_cases.json`` the validation reports and contact constants
written by the per-pair ``Fraction`` geometry; the current code must
reproduce all four exactly.  The level-1 oracle re-derives
every edge from ``box_intersection`` and the contact rule, pair by pair, and
the voxel oracle rebuilds on-grid graphs as face graphs of occupied voxels.
The kernels and their exact checks are compared with the sort-key code of
``walk_oracles``, on every construction case and on corrupted copies.
"""

import dataclasses
import importlib.util
import itertools
import json
import os
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

import carpetlab as cl
from carpetlab.cellgraph import build_graph, build_wall
from carpetlab.geometry import (
    SpecError,
    cell_box,
    edge_threshold_constants,
)
from carpetlab.walks import (
    build_kernel,
    build_wall_kernel,
    coupling_check,
    reversibility_residual,
    stochasticity_residual,
)
from geometry_oracles import box_intersection
from walk_oracles import (
    build_kernel_by_sort,
    build_wall_kernel_by_sort,
    coupling_by_product,
    reversibility_by_search,
    stochasticity_by_product,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def _hash_module(name):
    path = os.path.join(GOLDEN, f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    with open(os.path.join(GOLDEN, f"{name}.json")) as f:
        return module, json.load(f)


hashes, REFERENCE = _hash_module("construction_hashes")
sim_hashes, SIM_REFERENCE = _hash_module("simulate_hashes")
brick_hashes, BRICK_REFERENCE = _hash_module("brick_hashes")
geometry_cases, GEOMETRY_REFERENCE = _hash_module("geometry_cases")


def test_reference_covers_every_case():
    assert sorted(REFERENCE) == sorted(hashes.cases())


@pytest.mark.parametrize("case", hashes.cases())
def test_construction_hashes_match_reference(case):
    assert hashes.compute(case) == REFERENCE[case]


def _case_kernels(case):
    """(kernel, sort-key oracle kernel, cell kernel or None) of one case."""
    name, rest = case.split("/", 1)
    spec = cl.builtin_spec(name)
    if rest.startswith("wall_"):
        m, n = (int(t[1:]) for t in rest[len("wall_"):].split("_"))
        cell = build_graph(spec, n)
        wall = build_wall(spec, m, n, cell_graph=cell)
        return build_wall_kernel(wall), build_wall_kernel_by_sort(wall), build_kernel(cell)
    level, pc = rest.split("/")
    g = build_graph(spec, int(level[1:]), point_contact_edges=pc.endswith("1"))
    return build_kernel(g), build_kernel_by_sort(g), None


def _rebuilt(kernel, rows, cols, dens, descending=False):
    """The kernel with entries (rows, cols, dens), rows in order and columns
    ascending, or descending (a non-canonical CSR)."""
    size = kernel.num_states
    order = np.lexsort((-cols if descending else cols, rows))
    rows, cols, dens = rows[order], cols[order], dens[order]
    indptr = np.searchsorted(rows, np.arange(size + 1))
    P = sp.csr_matrix((1.0 / dens.astype(float), cols, indptr), shape=(size, size))
    return dataclasses.replace(kernel, P=P, dens=dens)


def _corruptions(kernel):
    """(label, corrupted copy) pairs; every copy keeps int64 denominators."""
    P, dens = kernel.P, kernel.dens
    rows = np.repeat(np.arange(kernel.num_states), np.diff(P.indptr))
    cols = P.indices.astype(np.int64)
    off = np.flatnonzero(rows != cols)
    j = off[len(off) // 2]
    changed, near = dens.copy(), dens.copy()
    changed[j] += 1
    near[j] = 2**62  # int64, but the lcm products leave it
    others = rows != rows[j]
    unlooped = np.setdiff1d(np.arange(kernel.num_states), rows[rows == cols])
    if len(unlooped):  # a new self-loop of probability 1/7
        r = unlooped[len(unlooped) // 2]
        looped = _rebuilt(kernel, np.append(rows, r), np.append(cols, r),
                          np.append(dens, 7))
    else:  # an existing self-loop changes
        looped = dataclasses.replace(kernel, dens=np.where(rows == cols, dens + 1, dens))
    kept = np.arange(len(dens)) != j
    return [("changed denominator", _rebuilt(kernel, rows, cols, changed)),
            ("dropped transpose", _rebuilt(kernel, rows[kept], cols[kept], dens[kept])),
            ("empty row", _rebuilt(kernel, rows[others], cols[others], dens[others])),
            ("self-loop", looped),
            ("denominator near 2**62", dataclasses.replace(kernel, dens=near)),
            ("unsorted columns", _rebuilt(kernel, rows, cols, dens, descending=True)),
            ("unsorted and changed", _rebuilt(kernel, rows, cols, changed,
                                              descending=True))]


@pytest.mark.parametrize("case", hashes.cases())
def test_kernels_and_exact_checks_match_sort_key_oracles(case):
    kernel, oracle, cell = _case_kernels(case)
    for field in ("indptr", "indices", "data"):
        new, old = getattr(kernel.P, field), getattr(oracle.P, field)
        assert new.dtype == old.dtype and np.array_equal(new, old), field
    assert kernel.dens.dtype == oracle.dens.dtype
    assert np.array_equal(kernel.dens, oracle.dens)
    assert stochasticity_residual(kernel) == stochasticity_by_product(oracle) == 0
    assert reversibility_residual(kernel) == reversibility_by_search(oracle) == 0
    if cell is not None:
        assert coupling_check(kernel, cell)["exact_residual"] == 0
        assert coupling_by_product(oracle, cell) == 0
    for label, bad in _corruptions(kernel):
        assert stochasticity_residual(bad) == stochasticity_by_product(bad), label
        assert reversibility_residual(bad) == reversibility_by_search(bad), label
        if cell is not None:
            assert (coupling_check(bad, cell)["exact_residual"]
                    == coupling_by_product(bad, cell)), label


@pytest.mark.parametrize("case", ["carpet26/n2/point_contact=1", "carpet26/wall_m1_n1"])
def test_exact_checks_with_denominators_past_int64(case):
    kernel, _, _ = _case_kernels(case)
    P = kernel.P
    rows = np.repeat(np.arange(kernel.num_states), np.diff(P.indptr))
    j = int(np.flatnonzero(rows != P.indices)[0])
    d = int(kernel.dens[j])
    huge = kernel.dens.astype(object)
    huge[j] = d * 2**70
    bad = dataclasses.replace(kernel, dens=huge)
    # the other rows still sum to 1, so row rows[j] alone misses 1/d - 1/huge[j]
    assert stochasticity_residual(bad) == Fraction(1, d) - Fraction(1, d * 2**70)
    assert reversibility_residual(bad) == reversibility_by_search(bad) != 0


def test_simulate_reference_covers_every_case():
    assert sorted(SIM_REFERENCE) == sorted(sim_hashes.cases())


@pytest.mark.parametrize("case", sim_hashes.cases())
def test_simulate_hashes_match_reference(case):
    assert sim_hashes.compute(case) == SIM_REFERENCE[case]


def test_brick_reference_covers_every_case():
    assert sorted(BRICK_REFERENCE) == sorted(brick_hashes.cases())


@pytest.mark.parametrize("case", brick_hashes.cases())
def test_brick_hashes_match_reference(case):
    assert brick_hashes.compute(case) == BRICK_REFERENCE[case]


def test_geometry_reference_covers_every_case():
    assert sorted(GEOMETRY_REFERENCE) == sorted(geometry_cases.cases())


@pytest.mark.parametrize("family", sorted({key.split("/")[0]
                                            for key in geometry_cases.cases()}))
def test_geometry_cases_match_reference(family):
    keys = [key for key in geometry_cases.cases() if key.split("/")[0] == family]
    wrong = [key for key in keys
             if geometry_cases.compute(key) != GEOMETRY_REFERENCE[key]]
    assert not wrong, f"{len(wrong)} of {len(keys)} cases differ, first {wrong[0]}"


def _oracle_edges(spec, point_contact):
    """Level-1 edges from exact box intersections and the two-case rule."""
    _, C = edge_threshold_constants(spec)
    side = Fraction(1, spec.k)
    top = 1 - side
    grid = [any(t == 0 or t == top for t in c) for c in spec.cells]
    boxes = [cell_box(spec, (i,)) for i in range(spec.N)]
    edges = set()
    for i, j in itertools.combinations(range(spec.N), 2):
        inter = box_intersection(boxes[i], boxes[j])
        assert inter.kind != "box"
        if grid[i] and grid[j]:
            edge = inter.kind == "rectangle" and inter.measure == side * side
        elif inter.kind == "point":
            edge = point_contact
        elif inter.kind == "segment":
            edge = inter.measure > C * side
        elif inter.kind == "rectangle":
            edge = inter.measure > C * side * side
        else:
            edge = False
        if edge:
            edges |= {(i, j), (j, i)}
    return edges


@pytest.mark.parametrize("point_contact", [True, False])
@pytest.mark.parametrize("name", ["carpet26", "menger", "offgrid158"])
def test_level1_edges_match_box_intersection(name, point_contact):
    spec = cl.builtin_spec(name)
    g = build_graph(spec, 1, point_contact_edges=point_contact)
    got = {(u, int(v)) for u in range(g.num_vertices) for v in g.neighbors(u)}
    assert got == _oracle_edges(spec, point_contact)


@pytest.mark.parametrize("name", ["carpet26", "menger"])
def test_on_grid_graph_is_voxel_face_adjacency(name):
    # every cell of these specs touches the cube boundary, so every word is a
    # grid word and the cell graph is the face graph of the occupied voxels
    spec = cl.builtin_spec(name)
    g = build_graph(spec, 3)
    side, count = g.side_scaled, g.num_vertices
    assert g.grid_word.all() and (g.corners % side == 0).all()
    ids = np.full((spec.k**3,) * 3, -1)
    ids[tuple((g.corners // side).T)] = np.arange(count)
    rows, cols = [], []
    for axis in range(3):
        lattice = np.moveaxis(ids, axis, 0)
        a, b = lattice[:-1], lattice[1:]
        both = (a >= 0) & (b >= 0)
        rows += [a[both], b[both]]
        cols += [b[both], a[both]]
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    assert (np.bincount(rows, minlength=count) == g.degrees).all()
    assert (np.sort(rows * count + cols) % count == g.indices).all()


def test_diagonal_demo_still_rejected():
    spec = cl.builtin_spec("diagonal_demo")
    for point_contact in (True, False):
        with pytest.raises(SpecError,
                           match="no cell pair with a positive intersection projection"):
            build_graph(spec, 1, point_contact_edges=point_contact)


THREAD_RUN = """
import json, sys
from carpetlab.cli import main
sys.path.insert(0, sys.argv[1])
import brick_hashes
assert main(["--spec", "carpet26.json", "--out", "runs", "constants", "--levels", "1..3",
             "--quantities", "lambda,r_face,script_r,r_bar"]) == 0
print(json.dumps(brick_hashes.compute("carpet26/ramp/n3"), sort_keys=True))
"""


def test_artifacts_independent_of_blas_threads(tmp_path):
    # the solvers' inner products are numpy pairwise sums, not BLAS dot
    # products, so the floats come out the same at any OpenBLAS thread count
    import subprocess
    import sys

    import carpetlab

    src = os.path.dirname(os.path.dirname(carpetlab.__file__))
    seen = []
    for threads in ("1", "2", "4"):
        root = tmp_path / f"threads{threads}"
        root.mkdir()
        (root / "carpet26.json").write_text(carpetlab.builtin_config("carpet26"))
        env = {**os.environ, "PYTHONPATH": src,
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", THREAD_RUN, GOLDEN], cwd=root,
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        artifacts = {p.name: p.read_bytes()
                     for p in sorted((root / "runs").iterdir()) if p.is_file()}
        assert "constants.csv" in artifacts
        seen.append((proc.stdout, artifacts))
    assert seen[0] == seen[1] == seen[2]
