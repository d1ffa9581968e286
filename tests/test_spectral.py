"""Energies, Poincare constants, resistances, gap constants, fits."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from carpetlab.geometry import SpecError, axis_swap, isometry_group
from carpetlab.cellgraph import neighborhood, word_permutation
from carpetlab.spectral import (
    ConstantsTable,
    SolveOptions,
    dirichlet_energy,
    effective_resistance,
    face_gap_constants,
    face_resistance,
    face_resistance_upper_check,
    laplacian,
    pinned_face_gap,
    poincare_constant,
    resistance_probe,
    scaling_fit,
    sigma_census,
    sigma_pair,
    sigma_supremum,
)
from carpetlab.walks import build_kernel, mean_hitting

F = Fraction


def test_energy_constant_zero(toy):
    g = toy(3, [(0, 1), (1, 2)])
    assert dirichlet_energy(g, np.ones(3)) == 0.0


def test_energy_single_edge_counts_both_directions(toy):
    g = toy(2, [(0, 1)])
    assert dirichlet_energy(g, np.array([0.0, 1.0])) == 2.0


def test_energy_matches_assembled_laplacian(lab):
    g = lab.graph(1)
    rng = np.random.default_rng(5)
    f = rng.standard_normal(g.num_vertices)
    # independent dense assembly of the doubled Laplacian
    a = np.zeros((26, 26))
    for u in range(26):
        for v in g.neighbors(u):
            a[u, v] = 1
    dense = 2.0 * (np.diag(a.sum(1)) - a)
    assert abs(dirichlet_energy(g, f) - f @ dense @ f) < 1e-12 * abs(f @ dense @ f)


def test_poincare_toy_values(toy):
    k2 = toy(2, [(0, 1)])
    assert abs(poincare_constant(k2).value - 0.25) < 1e-12
    p3 = toy(3, [(0, 1), (1, 2)])
    assert abs(poincare_constant(p3).value - 0.5) < 1e-12


def test_poincare_needs_two_vertices(toy):
    with pytest.raises(SpecError, match="at least 2 vertices"):
        poincare_constant(toy(1, []))


def test_poincare_dense_vs_iterative(lab):
    g = lab.graph(2)
    dense = 1.0 / np.linalg.eigvalsh(laplacian(g).toarray())[1]
    it = poincare_constant(g)
    assert it.info.method == "lobpcg"
    assert abs(dense - it.value) <= 1e-8 * dense


# Oracles for the iterative solvers: dense eigvalsh/solve/lstsq on small
# graphs, sparse LU (and shift-invert, which factorizes) on the larger ones.
DIFF_CASES = [("carpet26", 1, "dense"), ("carpet26", 2, "dense"),
              ("menger", 1, "dense"), ("menger", 2, "dense"),
              ("offgrid158", 1, "dense"),
              ("carpet26", 3, "splu"), ("offgrid158", 2, "splu")]


def _oracle_solve(kind, A, b):
    if kind == "dense":
        return np.linalg.solve(A.toarray(), b)
    return spla.splu(A.tocsc()).solve(b)


def _oracle_gap(kind, L):
    if kind == "dense":
        return np.linalg.eigvalsh(L.toarray())[1]
    vals = spla.eigsh(L, k=2, sigma=-1e-8 * L.diagonal().max(), which="LM",
                      return_eigenvectors=False)
    return np.sort(vals)[1]


def _oracle_pinv_form(kind, L, v):
    """v.L+ v for v orthogonal to the constants."""
    if kind == "dense":
        return v @ np.linalg.lstsq(L.toarray(), v, rcond=None)[0]
    # grounding vertex 0 leaves a solution of L x = v, since sum(v) = 0
    return v[1:] @ _oracle_solve(kind, L[1:, 1:], v[1:])


@pytest.mark.parametrize("name,n,kind", DIFF_CASES)
def test_solvers_match_oracles(graph_of, name, n, kind):
    g = graph_of(name, n)
    L = laplacian(g)
    assert poincare_constant(g).gap == pytest.approx(_oracle_gap(kind, L), rel=1e-8)
    zero, one = g.face_set(0, 0), g.face_set(0, 1)
    f = one.astype(float)
    free = ~(zero | one)
    f[free] = _oracle_solve(kind, L[free][:, free], -(L[free] @ f))
    assert face_resistance(g).value == pytest.approx(1.0 / (f @ (L @ f)), rel=1e-8)
    target = g.face_set(1, 0)
    a = target[~zero] / target.sum()
    pinned = a @ _oracle_solve(kind, L[~zero][:, ~zero], a)
    assert pinned_face_gap(g)["value"] == pytest.approx(pinned, rel=1e-8)
    fg = face_gap_constants(g)
    for key, other in (("adjacent", g.face_set(1, 0)), ("opposite", one)):
        v = zero / zero.sum() - other / other.sum()
        assert fg[key] == pytest.approx(_oracle_pinv_form(kind, L, v), rel=1e-8)


# Pinned sets that are not faces: the word-prefix aggregates are restricted to
# the free vertices, and some of them are wholly pinned.  splu is the oracle.
PINNED_CASES = [("carpet26", 2), ("carpet26", 3), ("menger", 2), ("menger", 3),
                ("offgrid158", 1), ("offgrid158", 2)]


def _random_pinned(g, seed=7):
    """Random vertices plus whole random aggregates of the finest coarse level."""
    N = g.spec.N
    rng = np.random.default_rng(seed)
    whole = np.repeat(rng.random(g.num_vertices // N) < 0.1, N)
    return whole | (rng.random(g.num_vertices) < 0.3), whole, rng


def _oracle_potential(g, set_a, set_b):
    L = laplacian(g)
    f = set_b.astype(float)
    free = ~(set_a | set_b)
    f[free] = _oracle_solve("splu", L[free][:, free], -(L[free] @ f))
    return f, 1.0 / (f @ (L @ f))


def _check_resistance(g, set_a, set_b):
    f, value = _oracle_potential(g, set_a, set_b)
    res = effective_resistance(g, set_a, set_b)
    assert res.value == pytest.approx(value, rel=1e-8)
    assert np.abs(res.potential - f).max() <= 1e-8


@pytest.mark.parametrize("name,n", PINNED_CASES)
def test_resistance_block_against_outside_matches_splu(graph_of, name, n):
    # as in build_cutoff: a level-1 block against the blocks beyond its ring
    g = graph_of(name, n)
    bs = g.spec.N ** (n - 1)
    set_a = np.zeros(g.num_vertices, dtype=bool)
    set_a[:bs] = True
    set_b = np.repeat(~neighborhood(graph_of(name, 1), 0, 1), bs)
    assert set_b.any()
    _check_resistance(g, set_a, set_b)


@pytest.mark.parametrize("name,n", [c for c in PINNED_CASES if c[1] > 1])
def test_resistance_random_pinning_matches_splu(graph_of, name, n):
    g = graph_of(name, n)
    pinned, whole, rng = _random_pinned(g)
    assert whole.any() and not pinned.all()
    set_a = pinned & (rng.random(g.num_vertices) < 0.5)
    _check_resistance(g, set_a, pinned & ~set_a)


@pytest.mark.parametrize("name,n", PINNED_CASES)
def test_mean_hitting_random_target_matches_splu(graph_of, name, n):
    g = graph_of(name, n)
    target, _, _ = _random_pinned(g, seed=11)
    k = build_kernel(g)
    A = sp.identity(int((~target).sum())) - k.P[~target][:, ~target]
    h = _oracle_solve("splu", A, np.ones(A.shape[0]))
    rep = mean_hitting(k, target)
    assert np.all(np.abs(rep.exact[~target] - h) <= 1e-8 * h)
    assert (rep.exact[target] == 0).all()


def test_resistance_toy_values(toy):
    k2 = toy(2, [(0, 1)])
    a = np.array([True, False])
    b = np.array([False, True])
    assert abs(effective_resistance(k2, a, b).value - 0.5) < 1e-12
    p3 = toy(3, [(0, 1), (1, 2)])
    ends_a = np.array([True, False, False])
    ends_b = np.array([False, False, True])
    assert abs(effective_resistance(p3, ends_a, ends_b).value - 1.0) < 1e-12


def test_resistance_monotone_under_edge_addition(toy):
    base = toy(4, [(0, 1), (1, 2), (2, 3)])
    more = toy(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    a = np.array([True, False, False, False])
    b = np.array([False, False, False, True])
    r0 = effective_resistance(base, a, b).value
    r1 = effective_resistance(more, a, b).value
    assert r1 <= r0 + 1e-12


def test_resistance_errors(toy):
    g = toy(2, [(0, 1)])
    both = np.array([True, True])
    with pytest.raises(SpecError):
        effective_resistance(g, both, np.array([False, False]))
    with pytest.raises(SpecError):
        effective_resistance(g, both, both)


def test_face_resistance_isometry_invariant(lab):
    g = lab.graph(1)
    r_x = face_resistance(g).value
    r_swapped = effective_resistance(g, g.face_set(1, 0), g.face_set(1, 1)).value
    assert abs(r_x - r_swapped) <= 1e-10 * r_x


def test_face_resistance_upper_check(lab, spec26):
    values = {n: face_resistance(lab.graph(n)).value for n in (1, 2)}
    rep = face_resistance_upper_check(spec26, values)
    assert rep["pass"] and rep["alpha"] == pytest.approx(3 / 8)
    assert rep["levels"][1]["bound"] > rep["levels"][2]["bound"]


def test_sigma_two_singletons(toy, spec26, lab):
    # hand value: two adjacent blocks of size 1 give a.L+ a = 1/2
    g1 = lab.graph(1)
    w = g1.word_of(0)
    w2 = g1.word_of(int(g1.neighbors(0)[0]))
    res = sigma_pair(g1, w, w2, 0)
    assert res["value"] == pytest.approx(0.5, rel=1e-10)


def test_sigma_symmetric_and_selfconsistent(lab):
    g1, g2 = lab.graph(1), lab.graph(2)
    w = g1.word_of(0)
    w2 = g1.word_of(int(g1.neighbors(0)[0]))
    fwd = sigma_pair(g2, w, w2, 1)
    bwd = sigma_pair(g2, w2, w, 1)
    assert fwd["value"] == pytest.approx(bwd["value"], rel=1e-9)
    # self-consistency: re-evaluate the defining ratio on the maximizer
    x = fwd["maximizer"]
    subset = fwd["subset"]
    lo1, hi1 = g2.block_range(w)
    lo2, hi2 = g2.block_range(w2)
    full = np.zeros(g2.num_vertices)
    full[np.nonzero(subset)[0]] = x
    gap = full[lo1:hi1].mean() - full[lo2:hi2].mean()
    energy = dirichlet_energy(g2, full, subset=subset)
    assert 26 * gap**2 / energy == pytest.approx(fwd["value"], rel=1e-8)


def test_sigma_census_orbits(lab):
    reps = sigma_census(lab.graph(1))
    # the 26-cell level-1 graph has few face-contact orbit types
    assert 1 <= len(reps) <= 6


def sigma_census_loop(graph):
    """Per-edge reference for sigma_census: first edge of each orbit key."""
    perms = [word_permutation(graph, g) for g in isometry_group()]
    seen = set()
    out = []
    u_arr = np.repeat(np.arange(graph.num_vertices), np.diff(graph.indptr))
    for u, v in zip(u_arr.tolist(), graph.indices.tolist()):
        if u > v:
            continue
        key = min(
            (min(p[u], p[v]), max(p[u], p[v])) for p in perms
        )
        if key in seen:
            continue
        seen.add(key)
        out.append((graph.word_of(u), graph.word_of(v)))
    return out


@pytest.mark.parametrize("name, n", [
    ("carpet26", 1), ("carpet26", 2), ("offgrid158", 1), ("menger", 1),
])
def test_sigma_census_matches_loop(graph_of, name, n):
    g = graph_of(name, n)
    assert sigma_census(g) == sigma_census_loop(g)


def test_face_gap_constants(lab):
    for n in (1, 2):
        fg = face_gap_constants(lab.graph(n))
        ratio = fg["opposite"] / fg["adjacent"]
        assert 0.25 <= ratio <= 4.0


def test_face_gap_swap_invariance(lab):
    g = lab.graph(1)
    fg = face_gap_constants(g)
    # relabel axes 1<->2: the adjacent-face constant is unchanged
    perm = word_permutation(g, axis_swap(0, 1))
    L = laplacian(g)
    v = np.zeros(26)
    f10 = g.face_set(0, 0)
    f20 = g.face_set(1, 0)
    v[f10] += 1 / f10.sum()
    v[f20] -= 1 / f20.sum()
    vp = np.zeros(26)
    vp[perm] = v
    from carpetlab.spectral import _solve_pd as _solve_singular_psd

    x, _ = _solve_singular_psd(L, vp, SolveOptions())
    assert vp @ x == pytest.approx(fg["adjacent"], rel=1e-9)


def test_pinned_face_gap(lab):
    rep = pinned_face_gap(lab.graph(2))
    assert rep["value"] > 0
    fg = face_gap_constants(lab.graph(2))
    assert fg["adjacent"] <= 2 * rep["value"] * (1 + 1e-9)


def test_pinned_face_gap_scaling(toy):
    # doubling all edge weights halves the constrained gap value
    g1 = toy(3, [(0, 1), (1, 2)])
    a = np.array([0.0, 0.0, 1.0])
    from carpetlab.spectral import _solve_pd

    L1 = laplacian(g1).tocsc()[1:, 1:]
    x1, _ = _solve_pd(L1, a[1:], SolveOptions())
    L2 = (2 * laplacian(g1)).tocsc()[1:, 1:]
    x2, _ = _solve_pd(L2, a[1:], SolveOptions())
    assert a[1:] @ x2 == pytest.approx(0.5 * (a[1:] @ x1), rel=1e-12)


def test_resistance_probe_monotone(lab, spec26):
    probes_small = [(0,), (1,)]
    probes_big = [(d,) for d in range(6)]
    opts = SolveOptions()
    small = resistance_probe(spec26, 1, probes_small, 3, opts, graphs=lab.graphs)
    big = resistance_probe(spec26, 1, probes_big, 3, opts, graphs=lab.graphs)
    assert big["value"] <= small["value"] + 1e-12


def test_resistance_probe_skips_when_neighborhood_covers(lab, spec26):
    rep = resistance_probe(spec26, 1, [(0,)], 10, SolveOptions(),
                           graphs=lab.graphs)
    assert rep["value"] is None
    assert rep["probes"][0]["skipped"]


def test_scaling_fit_exact_geometric(spec26):
    fit = scaling_fit(spec26, "r_face", {n: 2.0**-n for n in (1, 2, 3)})
    assert fit.slope == pytest.approx(-math.log(2), abs=1e-12)
    assert fit.residual < 1e-12
    assert fit.rho == pytest.approx(2.0)
    assert fit.d_h == pytest.approx(math.log(26) / math.log(3))


def test_scaling_fit_needs_two_points(spec26):
    with pytest.raises(SpecError):
        scaling_fit(spec26, "r_face", {1: 0.5})


def test_constants_table_roundtrip():
    table = ConstantsTable()
    table.add(1, "lambda", 0.5)
    table.add(2, "lambda", 4.5)
    text = table.to_csv()
    back = ConstantsTable.from_csv(text)
    assert back.values("lambda") == {1: 0.5, 2: 4.5}


def test_chain_band_levels12(lab):
    # the renormalization chain at desk scale: N^n R_F / lambda and the
    # sigma/lambda ratio stay within a factor-10 band across levels 1..2
    vals = []
    sig = []
    for n in (1, 2):
        r = face_resistance(lab.graph(n)).value
        vals.append(26**n * r / lab.lam(n))
    for m in (1,):
        rep = sigma_supremum(lab.spec, m, [1], graphs=lab.graphs)
        sig.append(rep["value"] / lab.lam(m))
    assert max(vals) / min(vals) < 10
    assert all(s > 0 for s in sig)


def test_sigma_over_lambda_band(lab):
    # block-gap constants track the Poincare constants across probe depths
    ratios = []
    for m in (1, 2):
        rep = sigma_supremum(lab.spec, m, [1], graphs=lab.graphs)
        ratios.append(rep["value"] / lab.lam(m))
    assert max(ratios) / min(ratios) < 10


def test_face_gap_scaled_band(lab):
    # face-average gap constants scaled by N^n/lambda_n stay bounded below
    vals = []
    for n in (1, 2, 3):
        fg = face_gap_constants(lab.graph(n))
        vals.append(fg["adjacent"] * 26**n / lab.lam(n))
    assert max(vals) / min(vals) < 10
    assert min(vals) > 0


def test_resistance_probe_scaled_band(lab):
    opts = SolveOptions()
    probes = [(d,) for d in range(0, 26, 5)]  # corner/edge/face orbit spread
    vals = []
    for m in (1, 2):
        rep = resistance_probe(lab.spec, m, probes, 3, opts, graphs=lab.graphs)
        assert rep["value"] is not None
        vals.append(rep["value"] * 26**m / lab.lam(m))
    assert max(vals) / min(vals) < 10
