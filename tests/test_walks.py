"""Kernels, coupling, hitting solves, oscillation machinery, Monte Carlo."""

import dataclasses
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from carpetlab.cellgraph import build_graph, build_wall
from carpetlab.geometry import SolverError, SpecError
from carpetlab.spectral import dirichlet_energy
from carpetlab.walks import (
    WalkKernel,
    _path_generator,
    build_kernel,
    build_wall_kernel,
    coupling_check,
    fiber_distribution,
    hitting_time_bands,
    kernel_energy,
    lazy_kernel,
    mean_hitting,
    oscillation_bound,
    oscillation_stats,
    quick_oscillation_check,
    reversibility_residual,
    sampling_tables,
    simulate,
    step_tables,
    stochasticity_residual,
    wall_bottom_mask,
    wall_hitting_report,
    wilson_lower_bound,
)

F = Fraction


def two_state_kernel(p: float) -> WalkKernel:
    P = sp.csr_matrix(np.array([[1 - p, p], [0.0, 1.0]]))
    return WalkKernel(kind="lazy", n=0, m=None, P=P,
                      pi=np.array([1, 1]), dens=None)


def cycle_kernel() -> WalkKernel:
    P = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    return WalkKernel(kind="lazy", n=0, m=None, P=P,
                      pi=np.array([1, 1]), dens=None)


def test_cell_kernel_corner_row(lab):
    k = lab.kernel(1)
    g = lab.graph(1)
    c = g.index_of((lab.spec.digit_of_corner((F(0), F(0), F(0))),))
    row = k.P[c].toarray().ravel()
    assert row[c] == pytest.approx(0.25)
    for v in g.neighbors(c):
        assert row[v] == pytest.approx(0.25)
    assert row.sum() == pytest.approx(1.0)


def test_exact_residuals(lab):
    for n in (1, 2):
        k = lab.kernel(n)
        assert stochasticity_residual(k) == 0
        assert reversibility_residual(k) == 0
    wk = lab.wall_kernel(1, 1)
    assert stochasticity_residual(wk) == 0
    assert reversibility_residual(wk) == 0


def _off_diagonal_entry(kernel, u):
    """Storage index of the first off-diagonal entry of row u."""
    P = kernel.P
    row = np.arange(P.indptr[u], P.indptr[u + 1])
    return int(row[P.indices[row] != u][0])


def _with_den(kernel, j, den):
    dens = kernel.dens.copy()
    dens[j] = den
    return dataclasses.replace(kernel, dens=dens)


def _without_entry(kernel, j):
    P = kernel.P
    keep = np.ones(P.nnz, dtype=bool)
    keep[j] = False
    rows = np.repeat(np.arange(kernel.num_states), np.diff(P.indptr))[keep]
    indptr = np.searchsorted(rows, np.arange(kernel.num_states + 1))
    Q = sp.csr_matrix((P.data[keep], P.indices[keep], indptr), shape=P.shape)
    return dataclasses.replace(kernel, P=Q, dens=kernel.dens[keep])


def test_exact_checks_report_a_corrupt_cell_entry(lab):
    k = lab.kernel(2)
    j = _off_diagonal_entry(k, 0)
    d = int(k.dens[j])
    assert d == int(k.pi[0])  # cell rows: 1/pi(u) to every neighbour
    bad = _with_den(k, j, d + 1)
    # row 0 loses 1/d - 1/(d+1); its edge had conductance pi(0)/d = 1 both ways
    assert stochasticity_residual(bad) == F(1, d * (d + 1))
    assert reversibility_residual(bad) == 1 - F(d, d + 1)


def test_exact_checks_report_a_corrupt_wall_entry(lab):
    wk = lab.wall_kernel(1, 1)
    ck = lab.kernel(1)
    j = _off_diagonal_entry(wk, 0)
    d = int(wk.dens[j])
    bad = _with_den(wk, j, d + 1)
    drift = F(1, d) - F(1, d + 1)
    assert stochasticity_residual(bad) == drift
    assert reversibility_residual(bad) == int(wk.pi[0]) * drift
    assert coupling_check(bad, ck)["exact_residual"] == drift
    assert coupling_check(bad, ck)["float_residual"] == float(drift)


@pytest.mark.parametrize("upper", [True, False])
def test_reversibility_detects_a_missing_transpose(lab, upper):
    k = lab.kernel(2)
    rows = np.repeat(np.arange(k.num_states), np.diff(k.P.indptr))
    side = k.P.indices > rows if upper else k.P.indices < rows
    j = int(np.flatnonzero(side)[0])
    assert reversibility_residual(_without_entry(k, j)) == F(1)


def test_exact_checks_at_level_zero(spec26):
    g = build_graph(spec26, 0)
    assert g.num_vertices == 1 and len(g.indices) == 0
    k = build_kernel(g)
    assert k.P.nnz == 1 and int(k.dens[0]) == 1  # the boundary self-loop
    assert stochasticity_residual(k) == 0
    assert reversibility_residual(k) == 0
    wk = build_wall_kernel(build_wall(spec26, 0, 0, cell_graph=g))
    assert coupling_check(wk, k)["exact_residual"] == 0
    assert stochasticity_residual(_with_den(k, 0, 3)) == F(2, 3)
    assert reversibility_residual(_with_den(k, 0, 3)) == 0  # a self-loop
    empty = _without_entry(k, 0)
    assert stochasticity_residual(empty) == 1
    assert reversibility_residual(empty) == 0


def _traced(fn):
    """fn() and its temporaries: the traced peak above the memory it keeps."""
    tracemalloc.start()
    try:
        result = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - kept


def test_kernel_build_and_reversibility_temporaries_stay_small(lab):
    # both work on the kernel's CSR arrays, with no row*V+col sort keys
    g = lab.graph(3)
    kernel, build_bytes = _traced(lambda: build_kernel(g))
    P = kernel.P
    own = P.data.nbytes + P.indices.nbytes + P.indptr.nbytes + kernel.dens.nbytes
    residual, check_bytes = _traced(lambda: reversibility_residual(kernel))
    assert residual == 0
    assert build_bytes < 3 * own
    assert check_bytes < 3 * own


def wall_conductances(kernel: WalkKernel) -> set[Fraction]:
    """Distinct off-diagonal conductance values pi(u)P(u,v) of a wall kernel."""
    rows = np.repeat(np.arange(kernel.num_states), np.diff(kernel.P.indptr))
    off = rows != kernel.P.indices
    pairs = np.unique(np.stack([np.asarray(kernel.pi)[rows[off]], kernel.dens[off]]),
                      axis=1)
    return {Fraction(int(p), int(d)) for p, d in pairs.T}


def test_wall_conductance_values(lab):
    values = wall_conductances(lab.wall_kernel(1, 1))
    assert values <= {F(1), F(1, 2), F(1, 3)}


def test_wall_m0_kernel_equals_cell_kernel(lab):
    wk = lab.wall_kernel(0, 1)
    ck = lab.kernel(1)
    assert (wk.P - ck.P).nnz == 0


def test_coupling_exact_and_negative_control(lab):
    wk = lab.wall_kernel(1, 1)
    ck = lab.kernel(1)
    assert coupling_check(wk, ck)["exact_residual"] == 0
    # perturbing one wall entry must break the identity
    bad = wk.P.copy().tolil()
    u = 0
    v = bad.rows[0][0]
    bad[u, v] += 1e-3
    wk_bad = WalkKernel(kind="wall", n=wk.n, m=wk.m, P=bad.tocsr(),
                        pi=wk.pi, dens=None, wall=wk.wall)
    wk_bad.dens = wk.dens
    res = _float_coupling_residual(wk_bad, ck)
    assert res > 1e-4


def _float_coupling_residual(wall_kernel, cell_kernel):
    wall = wall_kernel.wall
    fold = wall.fold
    worst = 0.0
    for u in range(wall_kernel.num_states):
        row = wall_kernel.P[u]
        pushed = {}
        for j, v in zip(row.data, row.indices):
            pushed[fold[v]] = pushed.get(fold[v], 0.0) + j
        base = int(fold[u])
        crow = cell_kernel.P[base]
        expected = dict(zip(crow.indices.tolist(), crow.data.tolist()))
        for key in set(pushed) | set(expected):
            worst = max(worst, abs(pushed.get(key, 0.0) - expected.get(key, 0.0)))
    return worst


def test_kernel_energy_identity(lab):
    # <f - Pf, f>_pi equals half the ordered-pair energy on cell graphs
    g = lab.graph(1)
    k = lab.kernel(1)
    rng = np.random.default_rng(2)
    for _ in range(10):
        f = rng.standard_normal(26)
        assert kernel_energy(k, f) == pytest.approx(
            0.5 * dirichlet_energy(g, f), rel=1e-12)


def test_wall_energy_sandwich(lab):
    wall = lab.wall(1, 1)
    wk = lab.wall_kernel(1, 1)
    rng = np.random.default_rng(3)
    for _ in range(100):
        f = rng.standard_normal(wk.num_states)
        ratio = kernel_energy(wk, f) / (0.5 * dirichlet_energy(wall, f))
        assert 1 / 3 - 1e-12 <= ratio <= 1 + 1e-12


def test_mean_hitting_two_state():
    k = two_state_kernel(0.2)
    rep = mean_hitting(k, np.array([False, True]))
    assert rep.exact[0] == pytest.approx(5.0)
    assert rep.exact[1] == 0.0


def mean_hitting_exact_rational(kernel: WalkKernel, target: np.ndarray,
                                size_cap: int = 600) -> list[Fraction]:
    """Rational mean-hitting vector by sparse elimination (small systems).

    Oracle path for calibration: exact on graphs with at most ``size_cap``
    free states.
    """
    target = np.asarray(target, dtype=bool)
    free = np.nonzero(~target)[0]
    if len(free) > size_cap:
        raise ValueError(f"{len(free)} free states exceed exact-solve cap {size_cap}")
    pos = {int(g): i for i, g in enumerate(free)}
    indptr, indices, dens = kernel.P.indptr, kernel.P.indices, kernel.dens
    rows = []
    rhs = []
    for g in free:
        row = {pos[int(g)]: Fraction(1)}
        for j in range(indptr[g], indptr[g + 1]):
            v = int(indices[j])
            if v in pos:
                row[pos[v]] = row.get(pos[v], Fraction(0)) - Fraction(1, int(dens[j]))
        rows.append(row)
        rhs.append(Fraction(1))
    # forward elimination with column->rows tracking (no pivoting needed:
    # the killed system is a strictly diagonally dominant M-matrix)
    col_rows: list[set[int]] = [set() for _ in range(len(free))]
    for i, row in enumerate(rows):
        for c in row:
            col_rows[c].add(i)
    for i in range(len(free)):
        prow = rows[i]
        piv = prow[i]
        for j in list(col_rows[i]):
            if j <= i:
                continue
            other = rows[j]
            factor = other.pop(i) / piv
            col_rows[i].discard(j)
            if factor == 0:
                continue
            rhs[j] -= factor * rhs[i]
            for c, val in prow.items():
                if c == i:
                    continue
                cur = other.get(c)
                new = (cur if cur is not None else Fraction(0)) - factor * val
                if new == 0:
                    if cur is not None:
                        del other[c]
                        col_rows[c].discard(j)
                else:
                    other[c] = new
                    if cur is None:
                        col_rows[c].add(j)
    sol = [None] * len(free)
    for i in range(len(free) - 1, -1, -1):
        row = rows[i]
        acc = rhs[i]
        for c, val in row.items():
            if c != i:
                acc -= val * sol[c]
        sol[i] = acc / row[i]
    out = [Fraction(0)] * kernel.num_states
    for g, i in pos.items():
        out[g] = sol[i]
    return out


def test_mean_hitting_unreachable_target_is_a_spec_error():
    # two 2-cycles: the target sits in one, so the other never reaches it
    P = sp.csr_matrix(np.kron(np.eye(2), [[0.0, 1.0], [1.0, 0.0]]))
    k = WalkKernel(kind="lazy", n=0, m=None, P=P, pi=np.ones(4), dens=None)
    with pytest.raises(SpecError, match="unreachable"):
        mean_hitting(k, np.array([True, False, False, False]))
    assert mean_hitting(k, np.array([True, False, True, False])).exact.tolist() == [0, 1, 0, 1]


def test_mean_hitting_solver_failure_is_a_solver_error(lab, monkeypatch):
    import carpetlab.spectral as spectral

    monkeypatch.setattr(spectral, "MAXITER", 1)
    with pytest.raises(SolverError):
        mean_hitting(lab.kernel(2), lab.graph(2).face_set(0, 0))


def test_mean_hitting_rational_oracle(lab):
    k = lab.kernel(1)
    g = lab.graph(1)
    target = g.face_set(0, 0)
    flt = mean_hitting(k, target)
    ex = mean_hitting_exact_rational(k, target)
    for u in range(26):
        assert abs(flt.exact[u] - float(ex[u])) < 1e-9 * max(1.0, float(ex[u]))


@pytest.mark.parametrize("name,n,kind", [
    ("carpet26", 1, "dense"), ("carpet26", 2, "dense"), ("menger", 1, "dense"),
    ("menger", 2, "dense"), ("offgrid158", 1, "dense"),
    ("carpet26", 3, "splu"), ("offgrid158", 2, "splu")])
def test_mean_hitting_matches_oracle(graph_of, name, n, kind):
    # the unscaled killed system (I - P_ff) h = 1, solved by a dense or LU oracle
    g = graph_of(name, n)
    target = g.face_set(0, 0)
    k = build_kernel(g)
    A = sp.identity(int((~target).sum())) - k.P[~target][:, ~target]
    ones = np.ones(A.shape[0])
    if kind == "dense":
        h = np.linalg.solve(A.toarray(), ones)
    else:
        h = spla.splu(A.tocsc()).solve(ones)
    rep = mean_hitting(k, target)
    assert rep.info.method == "pcg"
    assert np.abs(rep.exact[~target] - h).max() <= 1e-8 * h.min()
    assert (rep.exact[target] == 0).all()


def test_mean_hitting_symmetry(lab):
    # values are invariant under the face stabilizer (x2 reflection)
    from carpetlab.cellgraph import word_permutation
    from carpetlab.geometry import axis_reflection

    g = lab.graph(1)
    k = lab.kernel(1)
    h = mean_hitting(k, g.face_set(0, 0)).exact
    perm = word_permutation(g, axis_reflection(1))
    assert np.allclose(h, h[perm])


def test_mean_hitting_start_inside_target(lab):
    g = lab.graph(1)
    k = lab.kernel(1)
    rep = mean_hitting(k, np.ones(26, dtype=bool))
    assert bool((rep.exact == 0).all())


def test_superharmonic_minimum_on_paths(lab):
    # off the target, h is P-superharmonic: h >= 1 + (Ph restricted)
    g = lab.graph(1)
    k = lab.kernel(1)
    target = g.face_set(0, 0)
    h = mean_hitting(k, target).exact
    resid = h - (k.P @ h) - 1.0
    assert resid[~target].min() > -1e-9


def test_oscillation_bound_values():
    assert oscillation_bound(0.0, 0.5) == 0.0
    assert oscillation_bound(0.125, 0.5) == pytest.approx(0.75)
    for t in (0.01, 0.1, 0.5, 1.0):
        assert oscillation_bound(t, 1 / 27) <= 1.0 + 1e-12
    # monotone increasing
    grid = [oscillation_bound(t, 1 / 27) for t in np.linspace(0, 1, 9)]
    assert all(a <= b + 1e-12 for a, b in zip(grid, grid[1:]))


def test_simulate_start_on_target_gives_zero(lab):
    g = lab.graph(1)
    k = lab.kernel(1)
    t0 = g.face_set(0, 0)
    start = int(np.nonzero(t0)[0][0])
    sim = simulate(k, start, paths=50, horizon=50, seed=1,
                   oscillation=(t0, g.face_set(0, 1)))
    assert bool((sim.osc_times[:, 0] == 0).all())


@pytest.mark.parametrize("start", [
    np.array([1, 2, 3]), 999, -1,
    pytest.param(np.full(25, 1 / 25), id="distribution of the wrong length"),
    pytest.param(3.7, id="non-integer scalar"),
    pytest.param(np.append(np.full(25, 0.08), -1.0), id="negative weight"),
    pytest.param(np.zeros(26), id="zero sum"),
])
def test_simulate_rejects_bad_start(lab, start):
    g = lab.graph(1)
    with pytest.raises(SpecError, match="start"):
        simulate(lab.kernel(1), start, paths=5, horizon=10, seed=1,
                 oscillation=(g.face_set(0, 0), g.face_set(0, 1)))


@pytest.mark.parametrize("make", [
    pytest.param(lambda near, far: dict(oscillation=(near[:-1], far)),
                 id="short oscillation set"),
    pytest.param(lambda near, far: dict(oscillation=(near, np.append(far, True))),
                 id="long oscillation set"),
    pytest.param(lambda near, far: dict(oscillation=(near, far),
                                        targets={"t": near[:-1]}),
                 id="short target"),
    pytest.param(lambda near, far: dict(targets={"t": np.append(near, False)}),
                 id="long target"),
    pytest.param(lambda near, far: dict(targets={"t": 2 * near.astype(int)}),
                 id="two in an integer mask"),
    pytest.param(lambda near, far: dict(targets={"t": near.astype(float)}),
                 id="float mask"),
    pytest.param(lambda near, far: dict(oscillation=(near, far), max_osc=0),
                 id="max_osc 0"),
])
def test_simulate_rejects_bad_masks(lab, make):
    g = lab.graph(1)
    kw = make(g.face_set(0, 0), g.face_set(0, 1))
    with pytest.raises(SpecError, match="mask|max_osc"):
        simulate(lab.kernel(1), 0, paths=5, horizon=10, seed=1, **kw)


def test_simulate_takes_01_masks(lab):
    g = lab.graph(1)
    near, far = g.face_set(0, 0), g.face_set(0, 1)
    side = g.face_set(1, 0)
    runs = [simulate(lab.kernel(1), 5, paths=20, horizon=300, seed=4,
                     targets={"side": conv(side)},
                     oscillation=(conv(near), conv(far)))
            for conv in (lambda m: m, lambda m: m.astype(np.int64),
                         lambda m: m.astype(np.uint8))]
    for sim in runs[1:]:
        assert sim.osc_times.tobytes() == runs[0].osc_times.tobytes()
        assert (sim.first_hits["side"].tobytes()
                == runs[0].first_hits["side"].tobytes())


def test_oscillation_stats_needs_two_hits(lab):
    g = lab.graph(1)
    sim = simulate(lab.kernel(1), 5, paths=5, horizon=10, seed=1, max_osc=1,
                   oscillation=(g.face_set(0, 0), g.face_set(0, 1)))
    with pytest.raises(SpecError, match="max_osc"):
        oscillation_stats(sim)


def test_two_cycle_gap_is_one():
    k = cycle_kernel()
    m0 = np.array([True, False])
    m1 = np.array([False, True])
    sim = simulate(k, 0, paths=20, horizon=10, seed=0, oscillation=(m0, m1))
    trace = oscillation_stats(sim)
    assert trace.mean_t1 == 0.0
    assert trace.mean_gap == 1.0


def test_mc_matches_exact_small(lab):
    g = lab.graph(1)
    k = lab.kernel(1)
    target = g.face_set(0, 0)
    start = int(np.nonzero(g.face_set(0, 1))[0][0])
    exact = mean_hitting(k, target).exact[start]
    sim = simulate(k, start, paths=4000, horizon=2000, seed=3,
                   oscillation=(target, g.face_set(0, 1)))
    trace = oscillation_stats(sim)
    assert trace.censored_t1 == 0.0
    assert abs(trace.mean_t1 - exact) <= 3 * trace.se_t1


def test_quick_oscillation_check(lab):
    g = lab.graph(2)
    k = lab.kernel(2)
    t0, t1 = g.face_set(0, 0), g.face_set(0, 1)
    h = mean_hitting(k, t0).exact
    c_hat = float(h.max() / lab.lam(2))
    start_dist = t1.astype(float) / t1.sum()
    sim = simulate(k, start_dist, paths=1500, horizon=4000, seed=5,
                   oscillation=(t0, t1))
    trace = oscillation_stats(sim)
    rep = quick_oscillation_check(trace, lab.lam(2), c_hat)
    assert rep["pass"]


def test_hitting_time_bands(lab):
    bands = hitting_time_bands({1: lab.kernel(1), 2: lab.kernel(2)},
                               {1: lab.lam(1), 2: lab.lam(2)})
    for n in (1, 2):
        assert bands[n]["T"] >= bands[n]["t"] > 0


def test_wilson_bound():
    assert wilson_lower_bound(0, 100) == 0.0
    assert 0.4 < wilson_lower_bound(50, 100) < 0.5
    assert wilson_lower_bound(100, 100) > 0.95


def test_wall_hitting_report(lab):
    wk = lab.wall_kernel(1, 1)
    rep = wall_hitting_report(wk, paths=800, seed=11, horizon=1500)
    assert rep["pass"]
    assert rep["wilson_lower"] >= rep["threshold"]
    assert rep["exact_mean"].max() > 0
    bottom = wall_bottom_mask(wk.wall)
    assert bool((rep["exact_mean"][bottom] == 0).all())


def test_fiber_distribution(lab):
    wall = lab.wall(1, 1)
    nu = fiber_distribution(wall, 0)
    assert nu.sum() == pytest.approx(1.0)
    assert int((nu > 0).sum()) == 9  # one preimage per bottom-face prefix


def test_wall_m0_hitting_reduces_to_cell(lab):
    wk0 = lab.wall_kernel(0, 1)
    ck = lab.kernel(1)
    g = lab.graph(1)
    target = g.face_set(0, 0)
    a = mean_hitting(wk0, wall_bottom_mask(wk0.wall)).exact
    b = mean_hitting(ck, target).exact
    assert np.allclose(a, b)


def test_minimum_principle_on_connected_set(lab):
    # the minimum of the hitting vector over a connected set avoiding the
    # target is attained at a vertex with a neighbor outside the set
    g = lab.graph(1)
    k = lab.kernel(1)
    target = g.face_set(0, 0)
    h = mean_hitting(k, target).exact
    inside = np.nonzero(g.face_set(0, 1))[0]  # far face, connected
    m = inside[np.argmin(h[inside])]
    nbrs = g.neighbors(int(m))
    assert any(v not in set(inside.tolist()) for v in nbrs)


def test_lazy_kernel_rows(lab):
    k = lazy_kernel(lab.kernel(1), 0.5)
    rows = np.asarray(k.P.sum(axis=1)).ravel()
    assert np.allclose(rows, 1.0, atol=1e-14)
    assert (k.P.diagonal() >= 0.5 - 1e-14).all()


def _loop_sampling_tables(kernel):
    """Per-state loop that filled the sampling tables before vectorization."""
    indptr, indices, data = kernel.P.indptr, kernel.P.indices, kernel.P.data
    width = int(np.diff(indptr).max())
    cum = np.ones((kernel.num_states, width), dtype=np.float64)
    tgt = np.zeros((kernel.num_states, width), dtype=np.int64)
    for u in range(kernel.num_states):
        lo, hi = indptr[u], indptr[u + 1]
        cum[u, : hi - lo] = np.cumsum(data[lo:hi])
        cum[u, hi - lo - 1 :] = 1.0
        tgt[u, : hi - lo] = indices[lo:hi]
        tgt[u, hi - lo :] = indices[hi - 1]
    return cum, tgt


@pytest.mark.parametrize("which", ["cell1", "cell2", "cell3", "wall12", "lazy2"])
def test_sampling_tables_match_row_loop(lab, which):
    kernel = {"cell1": lambda: lab.kernel(1), "cell2": lambda: lab.kernel(2),
              "cell3": lambda: lab.kernel(3),
              "wall12": lambda: lab.wall_kernel(1, 2),
              "lazy2": lambda: lazy_kernel(lab.kernel(2), 0.5)}[which]()
    cum, tgt = sampling_tables(kernel.P)
    want_cum, want_tgt = _loop_sampling_tables(kernel)
    assert cum.dtype == want_cum.dtype and tgt.dtype == want_tgt.dtype
    assert cum.tobytes() == want_cum.tobytes()
    assert tgt.tobytes() == want_tgt.tobytes()


def _loop_simulate(kernel, start, *, paths, horizon, seed, targets=None,
                   oscillation=None, max_osc=2):
    """The per-step engine ``simulate`` replaced: each step counts the running
    sums below the draw and records hits through a per-step callback."""
    chunk = 256
    names = list(targets or {})
    cum, tgt = sampling_tables(kernel.P)
    width = cum.shape[1]
    gens = [_path_generator(seed, p) for p in range(paths)]
    if np.isscalar(start):
        states = np.full(paths, int(start), dtype=np.int64)
    elif len(np.atleast_1d(start)) == kernel.num_states and np.issubdtype(
            np.asarray(start).dtype, np.floating):
        cdf = np.cumsum(np.asarray(start, dtype=np.float64))
        cdf /= cdf[-1]
        draws = np.array([g.random() for g in gens])
        states = np.searchsorted(cdf, draws).astype(np.int64)
    else:
        states = np.asarray(start, dtype=np.int64)[:paths].copy()
    start_states = states.copy()
    first = {name: np.full(paths, -1, dtype=np.int64) for name in names}
    osc = np.full((paths, max_osc), -1, dtype=np.int64) if oscillation else None
    phase = np.zeros(paths, dtype=np.int64)

    def record(t, idx, st):
        for name in names:
            fresh = (first[name][idx] < 0) & targets[name][st]
            first[name][idx[fresh]] = t
        if osc is not None:
            m0, m1 = oscillation
            while True:
                undone = phase[idx] < max_osc
                cur = np.where(phase[idx] % 2 == 0, m0[st], m1[st])
                hit = undone & cur
                if not hit.any():
                    break
                rows = idx[hit]
                osc[rows, phase[rows]] = t
                phase[rows] += 1

    def done(idx):
        ok = np.ones(len(idx), dtype=bool)
        for name in names:
            ok &= first[name][idx] >= 0
        if osc is not None:
            ok &= phase[idx] >= max_osc
        return ok

    active = np.arange(paths, dtype=np.int64)
    record(0, active, states)
    active = active[~done(active)]
    t = 0
    while t < horizon and len(active):
        steps = min(chunk, horizon - t)
        buf = np.empty((len(active), steps))
        for row, p in enumerate(active):
            buf[row] = gens[p].random(steps)
        st = states[active]
        for s in range(steps):
            sel = (buf[:, s][:, None] > cum[st]).sum(axis=1)
            sel = np.minimum(sel, width - 1)
            st = tgt[st, sel]
            record(t + s + 1, active, st)
        states[active] = st
        t += steps
        active = active[~done(active)]
    return first, osc, start_states


def _explicit_kernel(rows):
    """Kernel with the given rows of (column, probability); zeros are stored."""
    indptr = np.cumsum([0] + [len(r) for r in rows])
    cols = np.array([c for r in rows for c, _ in r])
    data = np.array([p for r in rows for _, p in r], dtype=np.float64)
    P = sp.csr_matrix((data, cols, indptr), shape=(len(rows), len(rows)))
    assert P.nnz == len(data)
    return WalkKernel(kind="lazy", n=0, m=None, P=P, pi=np.ones(len(rows)),
                      dens=None)


# zero-probability entries first, in the middle (two in a row) and last
ZERO_ENTRY_ROWS = [
    [(0, 0.0), (1, 0.5), (2, 0.0), (3, 0.0), (4, 0.5)],
    [(0, 0.25), (2, 0.25), (3, 0.5), (4, 0.0)],
    [(1, 1 / 3), (2, 0.0), (3, 1 / 3), (4, 1 / 3)],
    [(0, 0.0), (0, 0.0), (2, 0.5), (4, 0.5)],
    [(1, 0.5), (3, 0.5)],
]
# running sums 0.3 and 0.31 share a bucket until K = 128
FINE_ROWS = [[(0, 0.3), (1, 0.01), (2, 0.69)], [(0, 0.5), (2, 0.5)],
             [(1, 0.25), (2, 0.75)]]


@pytest.fixture(scope="module")
def engine_kernels(lab, graph_of):
    return {
        "cell1": lambda: lab.kernel(1), "cell2": lambda: lab.kernel(2),
        "cell3": lambda: lab.kernel(3),
        "offgrid1": lambda: build_kernel(graph_of("offgrid158", 1)),
        "offgrid2": lambda: build_kernel(graph_of("offgrid158", 2)),
        "menger2": lambda: build_kernel(graph_of("menger", 2)),
        "wall11": lambda: lab.wall_kernel(1, 1),
        "wall12": lambda: lab.wall_kernel(1, 2),
        "lazy2": lambda: lazy_kernel(lab.kernel(2), 0.5),
        "zero_entry": lambda: _explicit_kernel(ZERO_ENTRY_ROWS),
        "fine": lambda: _explicit_kernel(FINE_ROWS),
    }


def _engine_case(kernel, start_kind, paths, seed):
    """Start, two targets and oscillation sets that share a state."""
    size = kernel.num_states
    rng = np.random.default_rng(seed)
    m0, m1 = rng.random(size) < 0.25, rng.random(size) < 0.25
    m0[0] = m1[0] = True
    targets = {"a": rng.random(size) < 0.1, "b": rng.random(size) < 0.05}
    if start_kind == "scalar":
        start = size - 1
    elif start_kind == "distribution":
        start = rng.random(size)
    else:
        start = rng.integers(0, size, paths)
    return start, targets, (m0, m1)


def _assert_engines_agree(kernel, start, **kw):
    sim = simulate(kernel, start, **kw)
    first, osc, start_states = _loop_simulate(kernel, start, **kw)
    assert sim.start_states.tobytes() == start_states.tobytes()
    assert sim.first_hits.keys() == first.keys()
    for name, hits in first.items():
        assert sim.first_hits[name].dtype == hits.dtype
        assert sim.first_hits[name].tobytes() == hits.tobytes()
    assert sim.osc_times.shape == osc.shape
    assert sim.osc_times.tobytes() == osc.tobytes()


@pytest.mark.parametrize("start_kind", ["scalar", "distribution", "array"])
@pytest.mark.parametrize("which", ["cell1", "cell2", "cell3", "offgrid1",
                                   "offgrid2", "menger2", "wall11", "wall12",
                                   "lazy2", "zero_entry", "fine"])
def test_simulate_matches_step_loop(engine_kernels, which, start_kind):
    kernel = engine_kernels[which]()
    start, targets, sets = _engine_case(kernel, start_kind, 40, 7)
    _assert_engines_agree(kernel, start, paths=40, horizon=600, seed=3,
                          targets=targets, oscillation=sets, max_osc=3)


@pytest.mark.parametrize("paths", [1, 30])
@pytest.mark.parametrize("max_osc", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("horizon", [1, 255, 256, 257, 600])
def test_simulate_matches_step_loop_at_chunk_edges(engine_kernels, horizon,
                                                   max_osc, paths):
    kernel = engine_kernels["wall12"]()
    start, targets, sets = _engine_case(kernel, "array", paths, horizon)
    # sparse sets, so that some paths stay censored at every horizon
    sets = tuple(m & (np.arange(kernel.num_states) % 7 == 0) for m in sets)
    _assert_engines_agree(kernel, start, paths=paths, horizon=horizon,
                          seed=max_osc, targets=targets, oscillation=sets,
                          max_osc=max_osc)


@pytest.mark.parametrize("which,want_K", [
    ("cell1", 4), ("cell3", 8), ("offgrid1", 8), ("offgrid2", 32),
    ("menger2", 8), ("wall11", 16), ("wall12", 16), ("lazy2", 16),
    ("zero_entry", 2), ("fine", 128)])
def test_guide_buckets_hold_one_running_sum(engine_kernels, which, want_K):
    P = engine_kernels[which]().P
    cum, tgt, guide = step_tables(P)
    K = guide.shape[1]
    assert K == want_K
    assert guide.dtype == np.uint8

    def crowded(K):
        for row in cum:
            below = np.unique(row[row < 1])
            if len(np.unique(np.floor(K * below))) < len(below):
                return True
        return False

    assert not crowded(K) and (K == 1 or crowded(K // 2))
    edges = np.arange(K) / K
    assert (guide == (cum[:, None, :] < edges[None, :, None]).sum(axis=2)).all()
    want_cum, want_tgt = sampling_tables(P)
    assert cum.tobytes() == want_cum.tobytes()
    # only stored zero-probability entries change their target
    moved = tgt != want_tgt
    assert (cum[:, 1:][moved[:, 1:]] == cum[:, :-1][moved[:, 1:]]).all()
    assert not moved[:, 0].any()


def test_step_tables_reject_running_sums_too_close(lab):
    # a very lazy kernel would need a guide table of about 2^22 buckets a row
    with pytest.raises(SpecError, match="2\\^-16"):
        step_tables(lazy_kernel(lab.kernel(1), 1e-6).P)
