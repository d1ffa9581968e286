"""Discrete heat kernels on cell graphs and their shape diagnostics.

Rows of the lazy walk are evolved by sparse multiplication and checkpointed
at requested times; the fits compare the on/off-diagonal decay against the
sub-Gaussian template t^(-d_H/d_W) * exp(-c (d^d_W / t)^(1/(d_W-1))).  At
grain level the checks are slope and band tests, never absolute constants:
the correct discrete normalization constant is not pinned by theory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .cellgraph import CellGraph, _bfs_depths, build_graph
from .geometry import SpecError
from .spectral import SolveOptions, DEFAULT_OPTS, _dot, _solve_pd, dirichlet_energy
from .walks import WalkKernel, lazy_kernel


@dataclass
class KernelSnapshot:
    """Selected source rows of the lazy kernel at a fixed time index."""

    n: int
    theta: float
    time: int
    rows: dict[int, np.ndarray]
    max_drift: float


def heat_rows(kernel: WalkKernel, sources: list[int], times: list[int],
              theta: float = 0.5) -> list[KernelSnapshot]:
    """Evolve delta rows of the theta-lazy kernel; checkpoint at ``times``.

    Rows are renormalized when float drift accumulates; the worst drift per
    checkpoint is logged in the snapshot.
    """
    if not 0 < theta <= 1:
        raise SpecError("laziness must be in (0, 1]")
    times = sorted(set(int(t) for t in times))
    if times and times[0] < 0:
        raise SpecError("times must be nonnegative")
    if theta == 1.0:
        P = kernel.P
    else:
        P = lazy_kernel(kernel, theta).P
    PT = P.T.tocsr()
    size = kernel.num_states
    vecs = {s: None for s in sources}
    for s in sources:
        v = np.zeros(size)
        v[s] = 1.0
        vecs[s] = v
    out = []
    t = 0
    for target in times:
        while t < target:
            for s in sources:
                vecs[s] = PT @ vecs[s]
            t += 1
        drift = 0.0
        rows = {}
        for s in sources:
            total = vecs[s].sum()
            drift = max(drift, abs(total - 1.0))
            if abs(total - 1.0) > 1e-12:
                vecs[s] = vecs[s] / total
            rows[s] = vecs[s].copy()
        out.append(KernelSnapshot(n=kernel.n, theta=theta, time=target,
                                  rows=rows, max_drift=drift))
    return out


def diffusive_window(lam: float, lo: int = 16, hi_frac: float = 0.5,
                     points: int = 8) -> list[int]:
    """Geometric time grid inside the diffusive window [lo, hi_frac*lam]."""
    hi = int(lam * hi_frac)
    if hi < lo + 4:
        raise SpecError("diffusive window empty; increase the level")
    grid = np.unique(np.geomspace(lo, hi, points).astype(int))
    if len(grid) < 5:
        raise SpecError("diffusive window too small; increase the level")
    return [int(t) for t in grid]


@dataclass
class SubGaussianFit:
    on_diag_slope: float
    on_diag_r2: float
    predicted_slope: float
    off_diag: dict[int, dict]
    times: list[int]
    d_h: float
    d_w: float


def _linfit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    A = np.vstack([x, np.ones_like(x)]).T
    coef, res, *_ = np.linalg.lstsq(A, y, rcond=None)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    ss_res = float(res[0]) if len(res) else 0.0
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(coef[0]), float(coef[1]), r2


def subgaussian_fit(snapshots: list[KernelSnapshot], d_h: float, d_w: float,
                    distances: dict[int, np.ndarray]) -> SubGaussianFit:
    """Fit the sub-Gaussian template to snapshot rows.

    On-diagonal: slope of log p_t(s,s) vs log t across snapshots (predicted
    -d_H/d_W).  Off-diagonal: per time, slope of log of the shell-averaged
    row against (d^d_W / t)^(1/(d_W-1)) over the sub-Gaussian range of d.
    """
    if len(snapshots) < 5:
        raise SpecError("need at least 5 time points for the fit")
    times = [s.time for s in snapshots]
    sources = list(snapshots[0].rows)
    # on-diagonal: average the per-source log values at each time
    logs = []
    for snap in snapshots:
        vals = [snap.rows[s][s] for s in sources]
        logs.append(np.log(np.mean(vals)))
    slope, _, r2 = _linfit(np.log(np.array(times, float)), np.array(logs))

    # shell d of a source: the vertices at distance d (-1 marks unreached ones)
    reached = {s: distances[s] >= 0 for s in sources}
    sizes = {s: np.bincount(distances[s][reached[s]]) for s in sources}
    off = {}
    for snap in snapshots:
        t = snap.time
        xs, ys = [], []
        for s in sources:
            sums = np.bincount(distances[s][reached[s]], weights=snap.rows[s][reached[s]],
                               minlength=len(sizes[s]))
            shell_mean = sums / np.maximum(sizes[s], 1)  # an empty shell holds 0
            # sub-Gaussian range: beyond the diffusive scale, positive mass
            d = np.arange(max(1, int(round(t ** (1.0 / d_w)))), len(shell_mean))
            d = d[shell_mean[d] > 1e-290]
            xs.append((d**d_w / t) ** (1.0 / (d_w - 1.0)))
            ys.append(np.log(shell_mean[d]))
        xs, ys = np.concatenate(xs), np.concatenate(ys)
        if len(xs) >= 4:
            s_off, b_off, r2_off = _linfit(xs, ys)
            off[t] = {"slope": s_off, "intercept": b_off, "r2": r2_off,
                      "points": len(xs)}
    return SubGaussianFit(
        on_diag_slope=slope, on_diag_r2=r2,
        predicted_slope=-d_h / d_w, off_diag=off, times=times,
        d_h=d_h, d_w=d_w,
    )


# ---------------------------------------------------------------------------
# ball checks on the level slice
# ---------------------------------------------------------------------------


@dataclass
class BallCheckReport:
    rows: list[dict]

    def band(self, key: str) -> float:
        vals = [r[key] for r in self.rows]
        return max(vals) / min(vals)


def _csr_entries(graph: CellGraph, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Position in ``rows`` and neighbor of every adjacency entry of ``rows``."""
    start = graph.indptr[rows]
    count = graph.indptr[rows + 1] - start
    pos = np.repeat(np.arange(len(rows)), count)
    offset = np.arange(len(pos)) - np.repeat(np.cumsum(count) - count, count)
    return pos, graph.indices[start[pos] + offset]


def _ball_poincare(graph: CellGraph, pi: np.ndarray, ball: np.ndarray,
                   ball2: np.ndarray) -> float:
    """Worst-f variance-on-B over energy-on-2B (generalized eigenvalue).

    The variance form in pi-weights, diag(p) - p p^T / mass, lives on B.  For
    fixed f on B the energy on 2B is least for the harmonic extension to
    C = 2B minus B, where it is f^T S f with the Schur complement S = L_BB -
    L_BC L_CC^-1 L_CB of the Laplacian induced on 2B.  L_CC is nonsingular
    because every vertex of a BFS ball reaches B inside 2B.  Both forms are
    constant-invariant, so pinning the first vertex of B leaves the sup
    unchanged.
    """
    keep = np.flatnonzero(ball2)
    inner = ball[keep]
    size, nb = len(keep), int(inner.sum())
    # the Laplacian induced on 2B, numbered B first (2 vertices or more for
    # r >= 2), then C (nonempty: 2B reaches depth r), each in vertex order
    rank = np.empty(size, dtype=np.int64)
    rank[np.argsort(~inner, kind="stable")] = np.arange(size)
    at, nbr = _csr_entries(graph, keep)
    pos = np.minimum(np.searchsorted(keep, nbr), size - 1)
    induced = keep[pos] == nbr
    u, v, diag = rank[at[induced]], rank[pos[induced]], np.arange(size)
    L = sp.csr_matrix(
        (np.r_[np.full(len(u), -2.0), 2.0 * np.bincount(u, minlength=size)],
         (np.r_[u, diag], np.r_[v, diag])), shape=(size, size))
    rows_b = L[:nb].toarray()
    cross = rows_b[:, nb:]
    schur = rows_b[:, :nb] - cross @ spla.splu(L[nb:, nb:].tocsc()).solve(cross.T.copy())
    p = pi[keep[inner]].astype(float)
    variance = np.diag(p) - np.outer(p, p) / p.sum()
    vals = sla.eigh(variance[1:, 1:], schur[1:, 1:], eigvals_only=True,
                    subset_by_index=[nb - 2, nb - 2])
    return float(vals[0])


def _tents(graph: CellGraph, m: int, blocks: list[int], cache: dict,
           opts: SolveOptions) -> list[tuple[np.ndarray, np.ndarray]]:
    """Indices and values of each block's tent on the block and its block ring.

    The tent is 1 on the block, harmonic on the neighbor blocks and 0 beyond
    them.  ``cache`` maps (m, block) to tents, shared across centers and
    radii.  The tents not cached yet are solved together: one block-diagonal
    system holds, for each, the level Laplacian's rows 2 deg(u) e_u -
    2 sum_{v ~ u} e_v at its ring vertices, restricted to the ring, with the
    block's 1 moved to the right-hand side.
    """
    bs = graph.spec.N**m
    todo = np.array([b for b in blocks if (m, b) not in cache], dtype=np.int64)
    if len(todo):
        # sorted keys tent * nblocks + ring block; a key's position times bs
        # is where that ring block's vertices sit in the system
        nblocks = graph.num_vertices // bs
        at, nbr = _csr_entries(graph, (todo[:, None] * bs + np.arange(bs)).ravel())
        keys = np.unique(at // bs * nblocks + nbr // bs)
        keys = keys[keys % nblocks != todo[keys // nblocks]]
        tent, ring = np.divmod(keys, nblocks)
        free = (ring[:, None] * bs + np.arange(bs)).ravel()
        row, nbr = _csr_entries(graph, free)
        owner = tent[row // bs]
        key = owner * nblocks + nbr // bs
        at = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
        link = keys[at] == key
        diag = np.arange(len(free))
        A = sp.csr_matrix(
            (np.r_[np.full(link.sum(), -2.0), 2.0 * graph.degrees[free]],
             (np.r_[row[link], diag], np.r_[at[link] * bs + nbr[link] % bs, diag])),
            shape=(len(free), len(free)))
        rhs = 2.0 * np.bincount(row, weights=nbr // bs == todo[owner],
                                minlength=len(free))
        x, _ = _solve_pd(A, rhs, opts)
        stops = np.cumsum(np.bincount(tent, minlength=len(todo))) * bs
        for b, lo, hi in zip(todo.tolist(), np.r_[0, stops[:-1]], stops):
            cache[(m, b)] = (
                np.concatenate([np.arange(b * bs, (b + 1) * bs), free[lo:hi]]),
                np.concatenate([np.ones(bs), x[lo:hi]]))
    return [cache[(m, b)] for b in blocks]


def _block_diameters(graph: CellGraph, spec_graphs: dict[int, CellGraph],
                     max_m: int) -> dict[int, int]:
    """BFS diameter of the level-m graph for m = 0..max_m (cached builds)."""
    out = {0: 0}
    for m in range(1, max_m + 1):
        if m not in spec_graphs:
            spec_graphs[m] = build_graph(graph.spec, m)
        g = spec_graphs[m]
        seeds = range(0, g.num_vertices, max(1, g.num_vertices // 8))
        out[m] = max(int(_bfs_depths(g, s).max()) for s in seeds)
    return out


def ball_checks(graph: CellGraph, pi: np.ndarray, d_h: float, d_w: float,
                centers: list[int], radii: list[int],
                opts: SolveOptions = DEFAULT_OPTS,
                helper_graphs: dict[int, CellGraph] | None = None
                ) -> BallCheckReport:
    """Volume, Poincare and capacity ratios over a (center, radius) sample.

    Volume: pi(B)/r^d_H.  Poincare: worst-f variance/energy against r^d_W,
    a dense eigenproblem on B after the Schur reduction of 2B (see
    ``_ball_poincare``).  Capacity: energy of a max-of-block-tents cutoff
    that is 1 on B and 0 off 2B, against r^(d_H - d_W); a ball's uncached
    tents are solved as one system, and the energy is summed over the edges
    at the cutoff's support.  Every ball works on index sets read from the
    CSR arrays, never on sliced whole-graph matrices.  Centers must sit 2r
    away from the border.
    """
    helper_graphs = helper_graphs if helper_graphs is not None else {}
    diam = _block_diameters(graph, helper_graphs, max_m=max(1, graph.n - 1))
    tent_cache = {}
    bdry_depth = _bfs_depths(graph, np.nonzero(graph.boundary())[0])
    rows = []
    for c in centers:
        depth = _bfs_depths(graph, c, limit=2 * max(radii, default=0))
        for r in radii:
            if r < 2 or bdry_depth[c] <= 2 * r:
                continue  # needs clearance from the border
            ball = (depth >= 0) & (depth < r)
            ball2 = (depth >= 0) & (depth < 2 * r)
            vol = float(pi[ball].sum()) / r**d_h
            poin = _ball_poincare(graph, pi, ball, ball2) / r**d_w
            # capacity: blocks of the largest m whose diameter fits r/2
            m = max((mm for mm in range(1, graph.n) if 2 * (diam[mm] + 1) <= r),
                    default=0)
            blocks = np.unique(np.flatnonzero(ball) // graph.spec.N**m).tolist()
            psi = np.zeros(graph.num_vertices)
            for idx, vals in _tents(graph, m, blocks, tent_cache, opts):
                psi[idx] = np.maximum(psi[idx], vals)
            if not (psi[ball] == 1.0).all():
                raise SpecError("tent cutoff is not 1 on the ball")
            if (psi[~ball2] != 0.0).any():
                raise SpecError("tent cutoff leaks outside the double ball")
            # ordered-pair energy on the edges at psi's support; an edge
            # leaving the support is met from one end only, so it counts twice
            support = np.flatnonzero(psi)
            at, nbr = _csr_entries(graph, support)
            diff = psi[support][at] - psi[nbr]
            energy = _dot(diff**2, np.where(psi[nbr] == 0.0, 2.0, 1.0))
            cap = energy / r ** (d_h - d_w)
            rows.append({
                "center": int(c), "radius": int(r), "tent_level": m,
                "volume_ratio": vol, "poincare_ratio": poin,
                "capacity_ratio": cap,
            })
    if not rows:
        raise SpecError("no admissible (center, radius) pairs")
    return BallCheckReport(rows)


def admissible_centers(graph: CellGraph, r_max: int, count: int = 20) -> list[int]:
    """Deterministic sample of centers at depth > 2*r_max from the border."""
    depth = _bfs_depths(graph, np.nonzero(graph.boundary())[0])
    inside = np.nonzero(depth > 2 * r_max)[0]
    if len(inside) == 0:
        raise SpecError("no vertices deep enough for the requested radius")
    step = max(1, len(inside) // count)
    return [int(v) for v in inside[::step][:count]]


# ---------------------------------------------------------------------------
# Hoelder/oscillation exponent
# ---------------------------------------------------------------------------


def holder_estimate(snapshots: list[KernelSnapshot],
                    distances: dict[int, np.ndarray], d_w: float,
                    probes: int = 6) -> dict:
    """Empirical space-time oscillation exponent of the kernel rows.

    For dyadic box scales eps, the oscillation over time pairs within
    eps * t0 and space balls of radius (eps * t0)^(1/d_W) is regressed
    against eps; the slope is the Hoelder exponent estimate.
    """
    if len(snapshots) < 2:
        raise SpecError("need at least 2 time points")
    times = np.array([s.time for s in snapshots], dtype=float)
    t0 = times.max()
    sources = list(snapshots[0].rows)
    size = len(snapshots[0].rows[sources[0]])
    rng = np.random.default_rng(11)
    probe_centers = rng.choice(size, size=min(probes, size), replace=False)
    xs, ys = [], []
    for j in range(1, 6):
        eps = 2.0**-j
        dt = eps * t0
        dx = max(1, int(round((eps * t0) ** (1.0 / d_w))))
        osc = 0.0
        snaps = [s for s in snapshots if s.time >= t0 - dt]
        for s_idx in sources:
            dist_row = distances[s_idx]
            for y0 in probe_centers:
                sel = None
                hi, lo = -math.inf, math.inf
                for snap in snaps:
                    row = snap.rows[s_idx]
                    if sel is None:
                        # ball around y0 in graph metric via the source BFS
                        # triangle bound: |d(s,y)-d(s,y0)| <= d(y,y0)
                        sel = np.abs(dist_row - dist_row[y0]) <= dx
                    vals = row[sel]
                    hi = max(hi, float(vals.max()))
                    lo = min(lo, float(vals.min()))
                osc = max(osc, hi - lo)
        if osc > 0:
            xs.append(math.log(eps))
            ys.append(math.log(osc))
    if len(xs) < 2:
        return {"beta": 0.0, "flagged": True, "points": len(xs)}
    slope, _, r2 = _linfit(np.array(xs), np.array(ys))
    return {"beta": slope, "r2": r2, "flagged": slope <= 0, "points": len(xs)}


# ---------------------------------------------------------------------------
# Besov-type energy functional
# ---------------------------------------------------------------------------


def besov_energy(graph: CellGraph, f: np.ndarray, r_list: list[float],
                 d_h: float, d_w: float) -> dict:
    """Range-r averaged squared increments against the renormalized energy.

    I_r = r^(-d_H-d_W) * avg over ordered cell pairs within Euclidean
    distance < r of (f(x)-f(y))^2, with the uniform probability measure on
    cells and center-to-center distances.  Returns the profile and sup.

    The doubled centers 2*scale*c are integers; divided by their gcd they
    index a lattice carrying the indicator m, f and f^2.  Summed over the
    symmetric ball of offsets delta, the pair sum is 2*sum [corr(m, f^2) -
    corr(f, f)](delta), one FFT correlation for every range at once.  The
    ball rule is the exact integer test |2*scale*(x-y)|^2 < (2*scale*r)^2 - 0.5,
    restricted to offsets that some pair of cells realizes.
    """
    radii = sorted(float(r) for r in r_list)
    side = graph.side_scaled / graph.scale
    if not radii or radii[0] < side:
        raise SpecError(f"ranges {radii} must reach the cell resolution {side}")
    doubled = graph.corners * 2 + graph.side_scaled
    doubled -= doubled.min(axis=0)
    g = max(1, int(np.gcd.reduce(doubled.ravel())))
    lattice = doubled // g
    # zero padding by the largest ball radius keeps wrap-around out of the ball
    reach = int(2 * graph.scale * radii[-1] / g) + 1
    shape = tuple(int(e + min(reach, e - 1)) for e in lattice.max(axis=0) + 1)
    h = f - f[0]  # increments are unchanged; a constant f gives exactly 0
    grids = np.zeros((3, *shape))
    grids[(slice(None), *lattice.T)] = [np.ones(len(h)), h, h * h]
    m_hat, f_hat, f2_hat = np.fft.rfftn(grids, axes=(1, 2, 3))
    pairs, corr = np.fft.irfftn(
        [m_hat.conj() * m_hat, m_hat.conj() * f2_hat - f_hat.conj() * f_hat],
        s=shape, axes=(1, 2, 3))
    x, y, z = (np.minimum(np.arange(s), s - np.arange(s)) ** 2 for s in shape)
    dist_sq = (g * g * (x[:, None, None] + y[:, None] + z)).astype(np.float64)
    # offsets that no pair of cells realizes hold only FFT round-off
    dist_sq[pairs < 0.5] = np.inf
    dist_sq[0, 0, 0] = np.inf  # a cell paired with itself adds 0
    profile = {}
    for r in radii:
        inside = dist_sq < (2 * graph.scale * r) ** 2 - 0.5
        total = 2.0 * float(corr[inside].sum())
        profile[r] = total / graph.num_vertices**2 / r ** (d_h + d_w)
    return {"profile": profile, "sup": max(profile.values())}


def besov_comparison(graph: CellGraph, f: np.ndarray, r_list: list[float],
                     d_h: float, d_w: float, rho: float) -> dict:
    """sup_r I_r against the renormalized graph energy rho^-n * energy(f)."""
    rep = besov_energy(graph, f, r_list, d_h, d_w)
    energy = dirichlet_energy(graph, f)
    norm = rho ** (-graph.n) * energy
    return {**rep, "normalized_energy": norm,
            "ratio": rep["sup"] / norm if norm > 0 else math.inf}


# ---------------------------------------------------------------------------
# torus control graph
# ---------------------------------------------------------------------------


def torus_kernel(L: int) -> tuple[WalkKernel, np.ndarray]:
    """Nearest-neighbor kernel on the discrete 3-torus plus BFS distances.

    Control case for the on-diagonal slope: the lazy walk must show the
    classical -3/2 power.
    """
    size = L**3
    idx = np.arange(size)
    x, rem = np.divmod(idx, L * L)
    y, z = np.divmod(rem, L)
    rows, cols = [], []
    for axis_vals, stride in ((x, L * L), (y, L), (z, 1)):
        for sgn in (+1, -1):
            wrap = (axis_vals + sgn) % L - axis_vals
            cols.append(idx + wrap * stride)
            rows.append(idx)
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    P = sp.csr_matrix((np.full(len(rows), 1.0 / 6.0), (rows, cols)),
                      shape=(size, size))
    pi = np.full(size, 6, dtype=np.int64)
    dens = np.full(P.nnz, 6, dtype=np.int64)
    kernel = WalkKernel(kind="cell", n=0, m=None, P=P, pi=pi, dens=dens,
                        graph=None, wall=None)
    dist = (np.minimum(x, L - x) + np.minimum(y, L - y)
            + np.minimum(z, L - z)).astype(np.int64)
    return kernel, dist
