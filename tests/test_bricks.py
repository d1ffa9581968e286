"""Certified brick functions: ramps, boundary-linear, cutoffs."""

import math
from fractions import Fraction

import numpy as np
import pytest

from carpetlab.geometry import SpecError, axis_reflection, cell_box
from carpetlab.cellgraph import word_permutation
from carpetlab import bricks
from carpetlab.bricks import (
    BrickWorkspace,
    _certify_midpoints,
    _certify_ramp,
    bottom_slab_mask,
    build_cutoff,
    orbit_symmetrize,
    region_coherence_report,
)
from carpetlab.spectral import dirichlet_energy, face_resistance

F = Fraction


def test_axis_projections(lab):
    spec = lab.spec
    box = cell_box(spec, ())
    assert (box.corner[0], box.side) == (F(0), F(1))
    d = spec.digit_of_corner((F(2, 3), F(0), F(0)))
    box = cell_box(spec, (d,))
    assert (box.corner[0], box.side) == (F(2, 3), F(1, 3))
    assert cell_box(spec, (d, d, d)).side == F(1, 27)


def test_orbit_symmetrize_bitwise(lab):
    g = lab.graph(1)
    rng = np.random.default_rng(0)
    f = rng.standard_normal(26)
    sym = orbit_symmetrize(g, f, 0)
    perm = word_permutation(g, axis_reflection(1))
    assert bool((sym == sym[perm]).all())  # bitwise equality


def test_harmonic_pair(lab):
    ws = lab.ws
    for m in (1, 2):
        h, hp = ws.harmonic(m), ws.harmonic(m, slab=True)
        g = ws.graph(m)
        assert h.min() >= 0 and h.max() <= 1
        # minimizer energy equals the inverse face resistance
        r = face_resistance(g).value
        assert dirichlet_energy(g, h) == pytest.approx(1.0 / r, rel=1e-8)
        # symmetry under both transverse reflections, bitwise
        for axis in (1, 2):
            perm = word_permutation(g, axis_reflection(axis))
            assert bool((h == h[perm]).all())
        # slab minimizer is pinned exactly
        assert bool((hp[bottom_slab_mask(g)] == 0.0).all())
        assert bool((hp[g.face_set(2, 1)] == 1.0).all())


def test_each_minimizer_solved_once(lab, monkeypatch):
    # a ramp needs h at its level and h' one level down, so bricks at levels
    # 1..3 solve h three times and h' twice
    calls = []
    solve = bricks._pinned_harmonic
    monkeypatch.setattr(bricks, "_pinned_harmonic",
                        lambda *args: calls.append(args) or solve(*args))
    ws = _fresh(lab)
    for m in (1, 2, 3):
        ws.ramp(m)
    for n in (1, 2, 3):
        ws.boundary_linear(n)
    assert len(calls) == 5


def test_ramp_certificates(lab):
    ws = lab.ws
    for m in (1, 2):
        ramp = ws.ramp(m)
        assert ramp.certificates["symmetry_range_boundary"]["pass"]
        if m >= 2:
            assert ramp.certificates["recursion"]["pass"]
            assert ramp.certificates["recursion"]["checked"] > 0
            assert ramp.certificates["grid_planes"]["pass"]
            assert ramp.certificates["grid_planes"]["checked"] > 0


def test_ramp_level1_is_restricted_minimizer(lab):
    ws = lab.ws
    ramp = ws.ramp(1)
    h = ws.harmonic(1)
    dom = np.nonzero(ramp.domain)[0]
    for u in dom:
        assert float(F(ramp.num[u], ramp.den)) == h[u]


def test_boundary_linear_certificates(lab):
    ws = lab.ws
    for n in (1, 2):
        fb = ws.boundary_linear(n)
        assert fb.certificates["boundary_midpoints"]["pass"]
        assert fb.certificates["sandwich"]["pass"]
        g = ws.graph(n)
        bdry = np.nonzero(g.boundary())[0]
        for u in bdry[:: max(1, len(bdry) // 40)]:
            box = cell_box(lab.spec, g.word_of(int(u)))
            assert F(fb.num[u], fb.den) == box.corner[0] + box.side / 2


def test_boundary_linear_coherence(lab):
    ws = lab.ws
    fb = ws.boundary_linear(2)
    rep = region_coherence_report(ws, fb)
    assert rep["max_deep_mismatch"] == 0
    # overwritten-branch mismatch stays within one overwrite span
    assert rep["max_scaled_mismatch"] <= 1.0 + 1e-9


def test_boundary_linear_energy_band(lab):
    ws = lab.ws
    ratios = []
    for n in (1, 2):
        fb = ws.boundary_linear(n)
        ratios.append(fb.energy * lab.lam(n) / 26**n)
    assert max(ratios) / min(ratios) < 3.0


def test_energy_ladder_recorded(lab):
    fb = lab.ws.boundary_linear(2)
    ladder = fb.meta["energy_ladder"]
    assert len(ladder) == 3  # seed + one entry per overwrite stage
    assert all(v > 0 for v in ladder)


def test_cutoff_certificates_all_words_n1(lab):
    ws = lab.ws
    g2 = ws.graph(2)
    for wd in range(0, 26, 5):
        brick = build_cutoff(ws, (wd,), 1, 3)
        assert brick.certificates["plateau"]["pass"]
        assert brick.certificates["support"]["pass"]
        rc = brick.certificates["resistance_lower_bound"]
        assert rc["pass"]
        if rc["resistance"] is not None:
            assert rc["bound"] <= rc["resistance"] * (1 + 1e-9)
        lo, hi = brick.certificates["plateau"]["block"]
        assert bool((brick.values[lo:hi] == 1.0).all())
        assert brick.values.min() >= 0.0 and brick.values.max() <= 1.0


def test_cutoff_support_values_zero(lab):
    ws = lab.ws
    brick = build_cutoff(ws, (0,), 1, 3)
    from carpetlab.cellgraph import neighborhood

    g1 = ws.graph(1)
    nbhd = neighborhood(g1, 0, 3)
    outside = np.repeat(~nbhd, 26)
    assert outside.any()
    assert bool((brick.values[outside] == 0.0).all())


def test_cutoff_vacuous_neighborhood(lab):
    # with the default adapted radius the level-1 neighborhood is everything:
    # the support condition holds vacuously and no resistance pairing exists
    ws = lab.ws
    brick = build_cutoff(ws, (0,), 1, 10)
    rc = brick.certificates["resistance_lower_bound"]
    assert rc["pass"] and rc["resistance"] is None


def test_cutoff_slope_increment_bound(lab):
    # between adjacent cells the clipped pieces move by at most
    # sqrt(3)/c_star times the cell diagonal; spot-check on edges
    ws = lab.ws
    brick = build_cutoff(ws, (0,), 1, 3)
    g2 = ws.graph(2)
    u = np.repeat(np.arange(g2.num_vertices), np.diff(g2.indptr))
    v = g2.indices
    diffs = np.abs(brick.values[u] - brick.values[v])
    slope = math.sqrt(3) / float(ws.c_star)
    # adjacent level-2 cells have centers within sqrt(3)*2/9; the brick's
    # profile factor adds one cell of slack
    bound = slope * (math.sqrt(3) * 2 / 9 + 1 / 9) + 1e-9
    assert diffs.max() <= bound


def test_cutoff_energy_band_across_n(lab):
    ws = lab.ws
    vals = []
    for n in (1, 2):
        brick = build_cutoff(ws, (0,), n, 3)
        vals.append(brick.energy * lab.lam(n) / 26**n)
    assert max(vals) / min(vals) < 3.0


def test_cutoff_word_required(lab):
    with pytest.raises(SpecError):
        build_cutoff(lab.ws, (), 1, 3)


# Mutation checks: each certificate family must reject a brick whose exact
# values were changed by the smallest step.  Every check builds a fresh
# workspace, so the session's cached bricks stay intact.


def _fresh(lab):
    return BrickWorkspace(lab.spec, graphs=lab.graphs)


def _mirror_fixed(graph, mask):
    """First vertex in ``mask`` that the x2 reflection leaves in place."""
    perm = word_permutation(graph, axis_reflection(1))
    return int(np.flatnonzero(mask & (perm == np.arange(graph.num_vertices)))[0])


def _x1_interior(graph):
    c0 = graph.corners[:, 0]
    return (c0 != 0) & (c0 + graph.side_scaled != graph.scale)


def _assert_rejects(family, u, certify, *args):
    with pytest.raises(SpecError, match=f"{family} certificate failed at vertex {u}$"):
        certify(*args)


def test_ramp_symmetry_rejects_one_ulp(lab):
    ws = _fresh(lab)
    h = ws.harmonic(1)
    u = int(np.flatnonzero(ws.ramp(1).domain & (h > 0) & (h < 1))[0])
    h = h.copy()
    h[u] = np.nextafter(h[u], 2.0)
    ws._harmonic[(1, False)], ws._ramps = h, {}
    with pytest.raises(SpecError, match="ramp symmetry certificate failed"):
        ws.ramp(1)


@pytest.mark.parametrize("face,step,check", [
    (None, 1, "symmetry"), (1, 1, "range"), (0, 1, "zero-boundary"),
    (1, -1, "one-boundary"),
])
def test_ramp_certificates_reject_one_numerator(lab, face, step, check):
    ws = _fresh(lab)
    ramp = ws.ramp(1)
    g = ws.graph(1)
    if face is None:
        perm = word_permutation(g, axis_reflection(1))
        u = int(np.flatnonzero(ramp.domain & (perm != np.arange(26)))[0])
    else:
        u = _mirror_fixed(g, ramp.domain & g.face_set(0, face))
    ramp.num[u] += step
    _assert_rejects(f"ramp {check}", u, _certify_ramp, ws, ramp)


def test_ramp_recursion_rejects_one_numerator(lab):
    ws = _fresh(lab)
    ramp = ws.ramp(2)
    g = ws.graph(2)
    shelf = bottom_slab_mask(g, depth=2)  # the level-2 recursion set
    u = _mirror_fixed(g, shelf & _x1_interior(g))
    ramp.num[u] += 1
    _assert_rejects("ramp recursion", u, _certify_ramp, ws, ramp)


def test_ramp_grid_planes_reject_one_numerator(lab):
    ws = _fresh(lab)
    ramp = ws.ramp(3)
    g = ws.graph(3)
    # double-bottom words whose last digit is off the x3=2/3 shelf, so the
    # recursion certificate does not see them
    c0, side, third = g.corners[:, 0], g.side_scaled, g.scale // 3
    on_plane = (c0 % third == 0) | ((c0 + side) % third == 0)
    last_off_shelf = (g.corners[:, 2] // side) % 3 != 2
    u = _mirror_fixed(g, bottom_slab_mask(g, depth=2) & on_plane & last_off_shelf
                      & _x1_interior(g))
    ramp.num[u] += 1
    _assert_rejects("ramp grid-plane", u, _certify_ramp, ws, ramp)


def test_boundary_midpoints_reject_one_numerator(lab):
    ws = _fresh(lab)
    fb = ws.boundary_linear(2)
    g = ws.graph(2)
    u = int(np.flatnonzero(g.boundary())[7])
    fb.num[u] += 1
    _assert_rejects("boundary-linear", u, _certify_midpoints, g, fb)


def test_cutoff_plateau_rejects_one_numerator(lab):
    ws = _fresh(lab)
    fb = ws.boundary_linear(1)
    fb.num[5] = fb.den + 1
    with pytest.raises(SpecError, match="cutoff plateau certificate failed"):
        build_cutoff(ws, (0,), 1, 3)


def test_cutoff_support_rejects_short_radius(lab):
    # with f in [0, 1] every block at offset >= 2 cells is certified, so the
    # support check is broken through the neighborhood radius instead
    with pytest.raises(SpecError, match="cutoff support certificate failed"):
        build_cutoff(_fresh(lab), (0,), 1, 1)
