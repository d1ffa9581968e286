"""Heat kernel snapshots, shape fits, ball checks, Besov functional."""

import math

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import carpetlab as cl
from carpetlab.geometry import SpecError
from carpetlab.cellgraph import _bfs_depths, build_graph, walk_measure
from carpetlab.spectral import DEFAULT_OPTS, dirichlet_energy, laplacian
from carpetlab.walks import WalkKernel
from carpetlab.heat import (
    _ball_poincare,
    _block_diameters,
    _tents,
    admissible_centers,
    ball_checks,
    besov_comparison,
    besov_energy,
    diffusive_window,
    heat_rows,
    holder_estimate,
    subgaussian_fit,
    torus_kernel,
)

D_H = math.log(26) / math.log(3)
D_W = 2.09


def test_heat_rows_time_zero(lab):
    k = lab.kernel(1)
    snaps = heat_rows(k, [0, 5], [0], theta=0.5)
    assert snaps[0].rows[0][0] == 1.0
    assert snaps[0].rows[5].sum() == 1.0


def test_heat_rows_semigroup(lab):
    k = lab.kernel(1)
    s8, s12, s20 = heat_rows(k, [3], [8, 12, 20], theta=0.5)
    from carpetlab.walks import lazy_kernel

    P = lazy_kernel(k, 0.5).P
    row = s8.rows[3].copy()
    for _ in range(12):
        row = P.T @ row
    assert np.abs(row - s20.rows[3]).max() < 1e-12


def test_parity_oscillation_negative_control():
    # theta=1 on a 2-cycle: the return probability alternates 1,0,1,...
    P = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    k = WalkKernel(kind="lazy", n=0, m=None, P=P, pi=np.array([1, 1]),
                   dens=None)
    snaps = heat_rows(k, [0], [0, 1, 2, 3], theta=1.0)
    returns = [s.rows[0][0] for s in snaps]
    assert returns == [1.0, 0.0, 1.0, 0.0]


def test_lazy_positivity(lab):
    k = lab.kernel(1)
    snaps = heat_rows(k, [0], [1, 2, 7], theta=0.5)
    for s in snaps:
        assert s.rows[0][0] > 0


def test_reversibility_of_snapshots(lab):
    # p_i(u,v)/pi(v) symmetric: spot-check via two sources
    g = lab.graph(1)
    k = lab.kernel(1)
    pi = walk_measure(g).astype(float)
    snaps = heat_rows(k, [0, 7], [9], theta=0.5)
    row0, row7 = snaps[0].rows[0], snaps[0].rows[7]
    assert row0[7] / pi[7] == pytest.approx(row7[0] / pi[0], rel=1e-10)


def test_torus_slope():
    kernel, dist = torus_kernel(16)
    times = [8, 12, 16, 24, 32, 48, 64]
    snaps = heat_rows(kernel, [0], times, theta=0.5)
    fit = subgaussian_fit(snaps, 3.0, 2.0, {0: dist})
    assert abs(fit.on_diag_slope - (-1.5)) / 1.5 < 0.1
    assert fit.on_diag_r2 > 0.99


def test_subgaussian_fit_needs_points(lab):
    k = lab.kernel(1)
    snaps = heat_rows(k, [0], [4, 8], theta=0.5)
    with pytest.raises(SpecError):
        subgaussian_fit(snaps, D_H, D_W, {0: np.zeros(26, dtype=np.int64)})


def test_diffusive_window():
    times = diffusive_window(400.0)
    assert times[0] >= 16 and times[-1] <= 200
    assert len(times) >= 5
    with pytest.raises(SpecError):
        diffusive_window(8.0)


def test_off_diag_slopes_negative(lab):
    g = lab.graph(2)
    k = lab.kernel(2)
    times = [4, 5, 6, 8, 10, 12]
    snaps = heat_rows(k, [0], times, theta=0.5)
    dist = {0: _bfs_depths(g, 0)}
    fit = subgaussian_fit(snaps, D_H, D_W, dist)
    assert fit.off_diag
    for rep in fit.off_diag.values():
        assert rep["slope"] < 0


def loop_off_diag(snapshots, d_w, distances):
    """Oracle: the off-diagonal fits with one mask per distance shell."""
    off = {}
    for snap in snapshots:
        t = snap.time
        xs, ys = [], []
        for s, row in snap.rows.items():
            dist = distances[s]
            dmax = int(dist.max())
            shell_mean = np.zeros(dmax + 1)
            for d in range(dmax + 1):
                sel = dist == d
                if sel.any():
                    shell_mean[d] = row[sel].mean()
            d_lo = max(1, int(round(t ** (1.0 / d_w))))
            for d in range(d_lo, dmax + 1):
                if shell_mean[d] > 1e-290:
                    xs.append((d**d_w / t) ** (1.0 / (d_w - 1.0)))
                    ys.append(math.log(shell_mean[d]))
        if len(xs) >= 4:
            A = np.vstack([xs, np.ones(len(xs))]).T
            (slope, intercept), res, *_ = np.linalg.lstsq(A, ys, rcond=None)
            r2 = 1.0 - res[0] / ((ys - np.mean(ys)) ** 2).sum()
            off[t] = {"slope": slope, "intercept": intercept, "r2": r2,
                      "points": len(xs)}
    return off


def test_subgaussian_fit_matches_shell_loop(lab):
    g = lab.graph(3)
    times = [4, 8, 16, 32, 64, 128]
    snaps = heat_rows(lab.kernel(3), [0, 5000, 9000], times, theta=0.5)
    # a BFS limit leaves vertices unreached (-1), which no shell holds
    dist = {0: _bfs_depths(g, 0), 5000: _bfs_depths(g, 5000, limit=12),
            9000: _bfs_depths(g, 9000)}
    assert (dist[5000] < 0).any()
    got = subgaussian_fit(snaps, D_H, D_W, dist).off_diag
    want = loop_off_diag(snaps, D_W, dist)
    assert got.keys() == want.keys() and len(want) == len(times)
    for t in times:
        assert got[t] == pytest.approx(want[t], rel=1e-12, abs=0), t


def test_ball_checks_level3_smoke(lab):
    g = lab.graph(3)
    pi = walk_measure(g)
    centers = admissible_centers(g, r_max=2, count=4)
    rep = ball_checks(g, pi, D_H, D_W, centers, [2], helper_graphs=lab.graphs)
    assert rep.rows
    for key in ("volume_ratio", "poincare_ratio", "capacity_ratio"):
        assert rep.band(key) < 10
    # tent certificates are asserted inside ball_checks; row sanity here
    for row in rep.rows:
        assert row["volume_ratio"] > 0


def dense_ball_poincare(graph, pi, ball, ball2):
    """Oracle: the generalized eigenproblem on all of 2B, dense, first vertex pinned."""
    keep = np.nonzero(ball2)[0]
    p = pi[keep].astype(float) * ball[keep]
    variance = np.diag(p) - np.outer(p, p) / p.sum()
    L = laplacian(graph, ball2).toarray()
    return sla.eigh(variance[1:, 1:], L[1:, 1:], eigvals_only=True)[-1]


def block_adjacency(graph, m):
    """Oracle: adjacency of the level-m blocks of ``graph`` (self-loops dropped)."""
    bs = graph.spec.N**m
    blocks = graph.num_vertices // bs
    u = np.repeat(np.arange(graph.num_vertices), np.diff(graph.indptr)) // bs
    v = graph.indices // bs
    keep = u != v
    return sp.coo_matrix((np.ones(keep.sum()), (u[keep], v[keep])),
                         shape=(blocks, blocks)).tocsr()


def sliced_tent(L, block_adj, m, block, N):
    """Oracle: one tent's Dirichlet problem sliced out of the level Laplacian,
    solved directly."""
    bs = N**m
    inside = np.arange(block * bs, (block + 1) * bs)
    ring1 = np.sort(block_adj[block].indices)
    free = (ring1[:, None] * bs + np.arange(bs)).ravel()
    rows = L[free]
    rhs = -np.asarray(rows[:, inside].sum(axis=1)).ravel()
    x = spla.spsolve(rows[:, free].tocsc(), rhs)
    return np.concatenate([inside, free]), np.concatenate([np.ones(bs), x])


def oracle_ball_checks(graph, pi, d_h, d_w, centers, radii, helper_graphs):
    """Oracle: the ball rows from whole-graph BFS, dense 2B eigenproblems,
    sliced tents and the whole-graph energy."""
    diam = _block_diameters(graph, helper_graphs, max_m=max(1, graph.n - 1))
    L = laplacian(graph)
    block_adj = {m: block_adjacency(graph, m) for m in range(graph.n)}
    bdry_depth = _bfs_depths(graph, np.nonzero(graph.boundary())[0])
    rows = []
    for c in centers:
        depth = _bfs_depths(graph, c)
        for r in radii:
            if r < 2 or bdry_depth[c] <= 2 * r:
                continue
            ball = (depth >= 0) & (depth < r)
            ball2 = (depth >= 0) & (depth < 2 * r)
            m = max([mm for mm in range(1, graph.n) if 2 * (diam[mm] + 1) <= r],
                    default=0)
            psi = np.zeros(graph.num_vertices)
            for b in sorted(set((np.nonzero(ball)[0] // graph.spec.N**m).tolist())):
                idx, vals = sliced_tent(L, block_adj[m], m, b, graph.spec.N)
                psi[idx] = np.maximum(psi[idx], vals)
            rows.append({
                "center": int(c), "radius": int(r), "tent_level": m,
                "volume_ratio": float(pi[ball].sum()) / r**d_h,
                "poincare_ratio": dense_ball_poincare(graph, pi, ball, ball2) / r**d_w,
                "capacity_ratio": dirichlet_energy(graph, psi) / r ** (d_h - d_w),
            })
    return rows


def test_ball_poincare_large_ball(lab):
    # a double ball of 1399 vertices, far above the certify radii
    g = lab.graph(3)
    pi = walk_measure(g)
    center = int(np.argmax(_bfs_depths(g, np.nonzero(g.boundary())[0])))
    depth = _bfs_depths(g, center)
    ball, ball2 = (depth >= 0) & (depth < 6), (depth >= 0) & (depth < 12)
    assert ball2.sum() == 1399
    got = _ball_poincare(g, pi, ball, ball2)
    assert got == pytest.approx(dense_ball_poincare(g, pi, ball, ball2), rel=1e-10)


@pytest.mark.parametrize("name,n,radii,count", [("carpet26", 3, [2, 3, 4], 20),
                                                ("offgrid158", 2, [2, 3], 8)])
def test_ball_checks_match_oracle(graph_of, name, n, radii, count):
    graphs = {m: graph_of(name, m) for m in range(1, n + 1)}
    g = graphs[n]
    pi = walk_measure(g)
    spec = g.spec
    d_h = math.log(spec.N) / math.log(spec.k)
    centers = admissible_centers(g, r_max=max(radii), count=count)
    got = ball_checks(g, pi, d_h, D_W, centers, radii, helper_graphs=dict(graphs))
    want = oracle_ball_checks(g, pi, d_h, D_W, centers, radii, dict(graphs))
    assert len(got.rows) == len(want) == len(centers) * len(radii)
    for row, ref in zip(got.rows, want):
        assert row == pytest.approx(ref, rel=1e-10, abs=0)


def test_level1_tents_match_oracle(lab):
    # no admissible radius at level 3 reaches m = 1, so check those tents
    # directly, in one batch.  PCG stops at relative residual 1e-10, which
    # leaves errors near 1e-9 in the smallest values of these ring systems of
    # a few hundred vertices; the m = 0 tents of the rows above are solved
    # to round-off
    g = lab.graph(3)
    cache = {}
    blocks = [0, 13, 100]
    L, block_adj = laplacian(g), block_adjacency(g, 1)
    for (idx, vals), b in zip(_tents(g, 1, blocks, cache, DEFAULT_OPTS), blocks):
        want_idx, want_vals = sliced_tent(L, block_adj, 1, b, 26)
        assert np.array_equal(idx, want_idx)
        assert vals == pytest.approx(want_vals, rel=1e-8, abs=0)
    assert set(cache) == {(1, b) for b in blocks}


def test_ball_checks_requires_clearance(lab):
    g = lab.graph(2)
    pi = walk_measure(g)
    with pytest.raises(SpecError):
        # no level-2 vertex is 4+ steps from the border
        centers = admissible_centers(g, r_max=2, count=4)
        ball_checks(g, pi, D_H, D_W, centers, [2])


def test_holder_degenerate_flagged():
    # complete graph at late times: oscillation collapses, estimate flagged
    n = 8
    P = sp.csr_matrix((np.ones((n, n)) - np.eye(n)) / (n - 1))
    k = WalkKernel(kind="lazy", n=0, m=None, P=P, pi=np.ones(n, dtype=int),
                   dens=None)
    snaps = heat_rows(k, [0], [64, 96, 128], theta=0.5)
    dist = {0: np.ones(n, dtype=np.int64)}
    rep = holder_estimate(snaps, dist, 2.0)
    assert rep["flagged"] or rep["beta"] <= 0.05


def test_holder_positive_on_carpet(lab):
    g = lab.graph(2)
    k = lab.kernel(2)
    times = [4, 5, 6, 8, 10, 12]
    snaps = heat_rows(k, [0], times, theta=0.5)
    rep = holder_estimate(snaps, {0: _bfs_depths(g, 0)}, D_W)
    assert rep["beta"] > 0 and not rep["flagged"]


def test_besov_constant_zero(lab):
    g = lab.graph(1)
    rep = besov_energy(g, np.ones(26), [1 / 3, 2 / 3], D_H, D_W)
    assert rep["sup"] == 0.0


def test_besov_quadratic_homogeneity(lab):
    g = lab.graph(1)
    rng = np.random.default_rng(1)
    f = rng.standard_normal(26)
    one = besov_energy(g, f, [2 / 3], D_H, D_W)["sup"]
    two = besov_energy(g, 2 * f, [2 / 3], D_H, D_W)["sup"]
    assert two == pytest.approx(4 * one, rel=1e-12)


def test_besov_resolution_error(lab):
    g = lab.graph(1)
    with pytest.raises(SpecError):
        besov_energy(g, np.ones(26), [1 / 9], D_H, D_W)


def test_besov_comparison_brick(lab):
    fb = lab.ws.boundary_linear(1)
    rep = besov_comparison(lab.graph(1), fb.values, [2 / 3], D_H, D_W, 2.6)
    assert rep["ratio"] > 0 and math.isfinite(rep["ratio"])


def pair_sum_besov(graph, f, radii, d_h, d_w):
    """Oracle: every ordered pair of cells, |2*scale*(x-y)|^2 < (2*scale*r)^2 - 0.5."""
    x = (graph.corners * 2 + graph.side_scaled).astype(np.float64)
    assert 3 * x.max() ** 2 < 2**52  # the squared distances are exact integers
    norm = (x * x).sum(axis=1)
    count = graph.num_vertices
    totals = np.zeros(len(radii))
    for lo in range(0, count, 256):
        hi = min(lo + 256, count)
        dist_sq = norm[lo:hi, None] + norm[None, lo:] - 2.0 * (x[lo:hi] @ x[lo:].T)
        # a pair (i, j) with j >= hi also stands for (j, i); the square block
        # j < hi already holds both orders
        weight = np.where(np.arange(lo, count) < hi, 1.0, 2.0)
        sq = (f[lo:hi, None] - f[None, lo:]) ** 2 * weight
        for i, r in enumerate(radii):
            inside = dist_sq < (2 * graph.scale * r) ** 2 - 0.5
            totals[i] += np.add.reduce(sq, axis=None, where=inside)
    return {r: t / count**2 / r ** (d_h + d_w) for r, t in zip(radii, totals)}


@pytest.mark.parametrize("name,n", [("carpet26", 1), ("carpet26", 2),
                                    ("offgrid158", 1), ("offgrid158", 2)])
def test_besov_matches_pair_sum(name, n):
    g = build_graph(cl.builtin_spec(name), n)
    side = g.side_scaled / g.scale
    # r = side reaches no other cell; r = 2 exceeds the diameter sqrt(3), so
    # every ordered pair is in range
    radii = [side, 1.5 * side, 2 * side, 4 * side, 0.5, 2.0]
    f = np.random.default_rng(n).standard_normal(g.num_vertices)
    got = besov_energy(g, f, radii, D_H, D_W)["profile"]
    want = pair_sum_besov(g, f, radii, D_H, D_W)
    assert got.keys() == want.keys()
    for r in radii:
        assert got[r] == pytest.approx(want[r], rel=1e-12, abs=0), r
    assert got[side] == 0.0 and got[2.0] > 0
    const = besov_energy(g, np.full(g.num_vertices, 0.3), radii, D_H, D_W)
    assert all(v == 0.0 for v in const["profile"].values())
