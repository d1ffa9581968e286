"""Exact geometry: parsing, validation, constants, isometries, folding."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import carpetlab as cl
from carpetlab.geometry import (
    Box,
    IfsSpec,
    Isometry,
    SpecError,
    axis_reflection,
    axis_swap,
    cell_box,
    digit_map,
    edge_threshold_constants,
    format_rational,
    isometry_group,
    locate_word,
    parse_rational,
    parse_spec,
    separation_constant,
    validate,
)
from geometry_oracles import apply_box, box_intersection, fold_box, fold_word

F = Fraction
HALF = F(1, 2)


def test_parse_rational_roundtrip():
    assert parse_rational("2/6") == F(1, 3)
    assert parse_rational("0") == 0
    assert format_rational(F(1, 3)) == "1/3"
    with pytest.raises(SpecError):
        parse_rational("1/0")
    with pytest.raises(SpecError):
        parse_rational("x/3")


def test_parse_spec_grid26(spec26):
    assert spec26.N == 26
    assert spec26.k == 3
    assert spec26.min_cells == 26


def test_parse_spec_out_of_range():
    doc = '{"name":"bad","k":3,"cells":[["1/3","0","5/3"]]}'
    with pytest.raises(SpecError, match="outside"):
        parse_spec(doc)


def test_parse_spec_duplicate():
    doc = '{"name":"bad","k":3,"cells":[["0","0","0"],["0/1","0","0"]]}'
    with pytest.raises(SpecError, match="duplicate"):
        parse_spec(doc)


def test_menger_parses_but_fails_n_bounds(menger):
    rep = validate(menger)
    assert not rep.n_bounds.passed
    assert not rep.face_included.passed
    # witness is the missing center patch of a face
    assert rep.face_included.witness["size"] == (F(1, 3), F(1, 3))


def test_cell_box_examples(spec26):
    assert cell_box(spec26, ()) == Box((F(0), F(0), F(0)), F(1))
    d = spec26.digit_of_corner((F(2, 3), F(2, 3), F(2, 3)))
    assert cell_box(spec26, (d,)) == Box((F(2, 3), F(2, 3), F(2, 3)), F(1, 3))
    d0 = spec26.digit_of_corner((F(0), F(0), F(0)))
    d2 = spec26.digit_of_corner((F(2, 3), F(0), F(0)))
    assert cell_box(spec26, (d0, d2)) == Box((F(2, 9), F(0), F(0)), F(1, 9))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 25), min_size=0, max_size=4),
       st.lists(st.integers(0, 25), min_size=0, max_size=3))
def test_cell_box_multiplicative(w, w2):
    spec = cl.builtin_spec("carpet26")
    box = cell_box(spec, tuple(w + w2))
    outer = cell_box(spec, tuple(w))
    inner = cell_box(spec, tuple(w2))
    scale = outer.side
    assert box.side == inner.side * scale
    assert box.corner == tuple(
        outer.corner[o] + inner.corner[o] * scale for o in range(3)
    )


def test_box_intersection_kinds():
    a = Box((F(0), F(0), F(0)), F(1, 3))
    rect = box_intersection(a, Box((F(1, 3), F(0), F(0)), F(1, 3)))
    assert rect.kind == "rectangle" and rect.measure == F(1, 9)
    seg = box_intersection(a, Box((F(1, 3), F(1, 3), F(0)), F(1, 3)))
    assert seg.kind == "segment" and seg.measure == F(1, 3)
    assert box_intersection(a, Box((F(2, 3), F(2, 3), F(2, 3)), F(1, 3))).kind == "empty"
    pt = box_intersection(a, Box((F(1, 3), F(1, 3), F(1, 3)), F(1, 3)))
    assert pt.kind == "point" and pt.measure == 1


def test_box_intersection_symmetric_and_isometry_invariant(spec26):
    a = cell_box(spec26, (0,))
    b = cell_box(spec26, (1,))
    fwd = box_intersection(a, b)
    assert fwd == box_intersection(b, a)
    for g in isometry_group()[:8]:
        ia, ib = apply_box(g, a), apply_box(g, b)
        assert box_intersection(ia, ib).measure == fwd.measure
        assert box_intersection(ia, ib).kind == fwd.kind


def test_validate_passes_26(spec26):
    assert validate(spec26).passed


def test_validate_diagonal_witness():
    rep = validate(cl.builtin_spec("diagonal_demo"))
    assert not rep.strong_connectivity.passed
    assert rep.strong_connectivity.witness["reason"] == "diagonal"


def test_validate_symmetry_closure(spec26):
    # relabeling the cells by any isometry leaves the verdicts unchanged
    g = isometry_group()[7]
    dm = digit_map(spec26, g)
    cells = tuple(spec26.cells[dm.index(i)] for i in range(spec26.N))
    relabeled = IfsSpec(name="r", k=3, cells=cells)
    assert validate(relabeled).passed


def test_threshold_constants(spec26):
    cp, c = edge_threshold_constants(spec26)
    assert cp == 1 and c == F(1, 81)


def test_threshold_constants_grid_spec_always_one():
    removed = {(1, 1, 1), (0, 1, 1)}
    cells = tuple(tuple(F(t, 3) for t in idx)
                  for idx in itertools.product(range(3), repeat=3) if idx not in removed)
    spec = IfsSpec(name="g", k=3, cells=cells)
    cp, _ = edge_threshold_constants(spec)
    assert cp == 1


def test_threshold_constants_off_grid_half():
    # two cells overlapping by a 1/(2k) sliver in x2
    cells = (
        (F(0), F(0), F(0)),
        (F(1, 3), F(1, 6), F(0)),
    )
    spec = IfsSpec(name="sliver", k=3, cells=cells)
    cp, c = edge_threshold_constants(spec)
    assert cp == HALF and c == F(1, 324)


def test_separation_constant(spec26):
    assert separation_constant(spec26) == HALF


def test_separation_constant_close_pair():
    cells = ((F(0), F(0), F(0)), (F(5, 12), F(0), F(0)))
    spec = IfsSpec(name="close", k=3, cells=cells)
    # gap 1/12 = 1/(4k); capped value is k * 1/12 = 1/4
    assert separation_constant(spec) == F(1, 4)


def test_separation_constant_all_touching():
    cells = ((F(0), F(0), F(0)), (F(1, 3), F(0), F(0)))
    spec = IfsSpec(name="touch", k=3, cells=cells)
    assert separation_constant(spec) == HALF


def test_isometry_group_is_a_group():
    group = isometry_group()
    assert len(group) == 48
    keys = {(g.perm, g.flip) for g in group}
    for g in group[:12]:
        for h in group[:12]:
            comp = g.compose(h)
            assert (comp.perm, comp.flip) in keys


def test_apply_isometry_examples(spec26):
    def apply(g, word):
        return tuple(digit_map(spec26, g)[d] for d in word)

    corner = spec26.digit_of_corner((F(0), F(0), F(0)))
    refl = axis_reflection(0)
    image = apply(refl, (corner,))
    assert cell_box(spec26, image).corner == (F(2, 3), F(0), F(0))
    swap = axis_swap(0, 1)
    w = (spec26.digit_of_corner((F(0), F(2, 3), F(1, 3))),)
    image = apply(swap, w)
    assert cell_box(spec26, image).corner == (F(2, 3), F(0), F(1, 3))
    ident = Isometry((0, 1, 2), (False, False, False))
    assert apply(ident, (1, 2, 3)) == (1, 2, 3)
    # reflections are involutions on words
    assert apply(refl, apply(refl, w)) == w
    # the digit map moves each cell's box as the isometry moves the cube
    for spec in (spec26, cl.builtin_spec("offgrid158")):
        for g in isometry_group():
            dm = digit_map(spec, g)
            for d in range(spec.N):
                assert cell_box(spec, (dm[d],)) == apply_box(g, cell_box(spec, (d,)))


def test_fold_word_identity_at_m0(spec26):
    for w in [(0,), (13,), (25,)]:
        assert fold_word(spec26, 0, 1, w) == w


def test_fold_word_reverses_orientation(spec26):
    # wall cell with x1-extent [4/9, 5/9] folds onto [1/3, 2/3]
    from carpetlab.cellgraph import bottom_face_prefixes

    target = None
    for p in bottom_face_prefixes(spec26, 1):
        for s in range(26):
            if cell_box(spec26, p + (s,)).corner[0] == F(4, 9):
                target = p + (s,)
                break
        if target:
            break
    box = cell_box(spec26, fold_word(spec26, 1, 1, target))
    assert (box.corner[0], box.corner[0] + box.side) == (F(1, 3), F(2, 3))


def test_fold_box_straddle_error():
    with pytest.raises(SpecError, match="straddles"):
        fold_box(Box((F(5, 6), F(0), F(0)), F(1, 3)), 1, 3)


def test_fold_word_box_identity(spec26):
    # the folded box of every wall word equals the box of its folded word
    from carpetlab.cellgraph import bottom_face_prefixes

    for p in bottom_face_prefixes(spec26, 1)[:3]:
        for s in (0, 7, 25):
            u = p + (s,)
            folded = fold_box(cell_box(spec26, u), 1, 3)
            v = fold_word(spec26, 1, 1, u)
            assert cell_box(spec26, v) == folded


def test_locate_word(spec26):
    w = locate_word(spec26, (HALF, HALF, F(0)), 2)
    box = cell_box(spec26, w)
    assert all(box.corner[o] <= HALF <= box.corner[o] + box.side for o in (0, 1))
    assert box.corner[2] == 0
