"""End-to-end checks on a genuinely off-grid carpet (k=6, 158 cells).

The six interior cells sit off the 1/6 grid and attach to the shell through
rectangle contacts, so this configuration exercises the measure-threshold
contact rule, the off-grid kernel assembly and the folding coupling on a
second geometry.
"""

from fractions import Fraction

import numpy as np
import pytest

import carpetlab as cl
from carpetlab.geometry import (
    cell_box,
    edge_threshold_constants,
    separation_constant,
    validate,
)
from carpetlab.cellgraph import build_graph, build_wall, walk_measure
from carpetlab.spectral import face_resistance, poincare_constant
from carpetlab.walks import (
    build_kernel,
    build_wall_kernel,
    coupling_check,
    reversibility_residual,
    stochasticity_residual,
)

F = Fraction


@pytest.fixture(scope="module")
def spec():
    return cl.builtin_spec("offgrid158")


@pytest.fixture(scope="module")
def g1(spec):
    return build_graph(spec, 1)


def test_validates(spec):
    assert validate(spec).passed
    assert spec.N == 158 and spec.min_cells == 152


def test_constants(spec):
    cp, c = edge_threshold_constants(spec)
    assert cp == F(1, 2) and c == F(1, 324)
    assert separation_constant(spec) == F(1, 2)


def test_offgrid_cells_are_not_grid_words(spec, g1):
    glued = [i for i, cell in enumerate(spec.cells)
             if any(t.denominator == 12 for t in cell)]
    assert len(glued) == 6
    for i in glued:
        assert not g1.grid_word[i]
        # glued through four rectangle contacts with the shell
        assert g1.degrees[i] == 4


def test_level1_graph_connected_and_symmetric(g1):
    u = np.repeat(np.arange(g1.num_vertices), np.diff(g1.indptr))
    pairs = set(zip(u.tolist(), g1.indices.tolist()))
    assert all((b, a) in pairs for (a, b) in pairs)


def test_kernel_exactness(g1):
    k = build_kernel(g1)
    assert stochasticity_residual(k) == 0
    assert reversibility_residual(k) == 0


def test_wall_coupling_exact(spec, g1):
    wall = build_wall(spec, 1, 1, cell_graph=g1)
    assert wall.num_vertices == 36 * 158
    wk = build_wall_kernel(wall)
    ck = build_kernel(g1)
    assert coupling_check(wk, ck)["exact_residual"] == 0


def test_spectral_sanity(spec, g1):
    lam = poincare_constant(g1).value
    r = face_resistance(g1).value
    assert lam > 0 and r > 0
    # explicit face-resistance decay bound at level 1: alpha = k/(4k-4) = 0.3
    assert r <= 6 / 20


def test_brick_boundary_on_offgrid(spec, g1):
    from carpetlab.bricks import BrickWorkspace

    ws = BrickWorkspace(spec, graphs={1: g1})
    fb = ws.boundary_linear(1)
    assert fb.certificates["boundary_midpoints"]["pass"]
    bdry = np.nonzero(g1.boundary())[0]
    for u in bdry[::19]:
        box = cell_box(spec, g1.word_of(int(u)))
        assert Fraction(fb.num[u], fb.den) == box.corner[0] + box.side / 2


def test_cutoff_on_offgrid(spec, g1):
    from carpetlab.bricks import BrickWorkspace, build_cutoff
    from geometry_oracles import adapted_audit

    assert adapted_audit(spec, 1, 3, graph=g1)["pass"]
    ws = BrickWorkspace(spec, graphs={1: g1})
    brick = build_cutoff(ws, (0,), 1, 3)
    assert brick.certificates["plateau"]["pass"]
    assert brick.certificates["support"]["pass"]
    assert brick.certificates["resistance_lower_bound"]["pass"]
