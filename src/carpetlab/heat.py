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

from .cellgraph import CellGraph, _bfs_depths
from .geometry import SpecError
from .spectral import SolveOptions, DEFAULT_OPTS, _solve_pd, dirichlet_energy, laplacian
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

    off = {}
    for snap in snapshots:
        t = snap.time
        xs, ys = [], []
        for s in sources:
            dist = distances[s]
            row = snap.rows[s]
            dmax = int(dist.max())
            shell_mean = np.zeros(dmax + 1)
            for d in range(dmax + 1):
                sel = dist == d
                if sel.any():
                    shell_mean[d] = row[sel].mean()
            # sub-Gaussian range: beyond the diffusive scale, positive mass
            d_lo = max(1, int(round(t ** (1.0 / d_w))))
            for d in range(d_lo, dmax + 1):
                if shell_mean[d] > 1e-290:
                    xs.append((d**d_w / t) ** (1.0 / (d_w - 1.0)))
                    ys.append(math.log(shell_mean[d]))
        if len(xs) >= 4:
            s_off, b_off, r2_off = _linfit(np.array(xs), np.array(ys))
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
        vals = [r[key] for r in self.rows if r.get(key) is not None]
        if not vals:
            return math.inf
        return max(vals) / min(vals)


def _ball_poincare(graph: CellGraph, pi: np.ndarray, ball: np.ndarray,
                   ball2: np.ndarray, opts: SolveOptions) -> float:
    """Worst-f variance-on-B over energy-on-2B (generalized eigenvalue).

    The variance form in pi-weights is diag(p) - p p^T / mass, with p equal
    to pi on B and 0 on the rest of 2B.  Both forms are constant-invariant,
    so pinning the first vertex of 2B to 0 leaves the sup unchanged.
    """
    keep = np.nonzero(ball2)[0]
    if len(keep) < 3:
        return 0.0
    pib = pi[keep].astype(float) * ball[keep]
    mass = pib.sum()
    p = pib[1:]
    L_red = laplacian(graph, ball2)[1:, 1:]
    if len(p) <= 1200:
        A = np.diag(p) - np.outer(p, p) / mass
        top = len(p) - 1
        vals = sla.eigh(A, L_red.toarray(), eigvals_only=True,
                        subset_by_index=[top, top])
        return float(vals[0])

    def a_mat(f):
        return p * (f - (p @ f) / mass)

    # power iteration on L^-1 M (similar to a symmetric PSD operator)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(len(p))
    val = 0.0
    for _ in range(300):
        y, _ = _solve_pd(L_red, a_mat(x), opts)
        norm = np.linalg.norm(y)
        if norm == 0:
            return 0.0
        y /= norm
        new = float(y @ a_mat(y)) / float(y @ (L_red @ y))
        if abs(new - val) <= 1e-9 * max(new, 1e-300):
            val = new
            break
        val = new
        x = y
    return val


class _TentCache:
    """Resistance-optimal block tents, shared across centers and radii."""

    def __init__(self, graph: CellGraph, opts: SolveOptions):
        self.graph = graph
        self.opts = opts
        self.L = laplacian(graph)
        self.cache: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        self._block_adj: dict[int, sp.csr_matrix] = {}

    def block_adjacency(self, m: int) -> sp.csr_matrix:
        if m not in self._block_adj:
            g = self.graph
            bs = g.spec.N**m
            blocks = g.num_vertices // bs
            u = np.repeat(np.arange(g.num_vertices), np.diff(g.indptr)) // bs
            v = g.indices // bs
            keep = u != v
            data = np.ones(keep.sum())
            adj = sp.coo_matrix((data, (u[keep], v[keep])),
                                shape=(blocks, blocks)).tocsr()
            adj.data[:] = 1.0
            self._block_adj[m] = adj
        return self._block_adj[m]

    def tent(self, m: int, block: int) -> tuple[np.ndarray, np.ndarray]:
        """Indices and values of the tent on the block and its block ring.

        The tent is 1 on the block, harmonic on the neighbor blocks and 0
        beyond them.  Every neighbor of a vertex in a neighbor block lies in
        the block, a neighbor block or the second block ring, so the level
        Laplacian's rows there are those of the Laplacian induced on the
        three.
        """
        key = (m, block)
        if key not in self.cache:
            bs = self.graph.spec.N**m
            inside = np.arange(block * bs, (block + 1) * bs)
            ring1 = np.sort(self.block_adjacency(m)[block].indices)
            free = (ring1[:, None] * bs + np.arange(bs)).ravel()
            x = np.zeros(0)
            if len(free):
                rows = self.L[free]
                rhs = -np.asarray(rows[:, inside].sum(axis=1)).ravel()
                x, _ = _solve_pd(rows[:, free], rhs, self.opts)
            self.cache[key] = (np.concatenate([inside, free]),
                               np.concatenate([np.ones(bs), x]))
        return self.cache[key]


def _block_diameters(graph: CellGraph, spec_graphs: dict[int, CellGraph],
                     max_m: int) -> dict[int, int]:
    """BFS diameter of the level-m graph for m = 0..max_m (cached builds)."""
    from .cellgraph import build_graph

    out = {0: 0}
    for m in range(1, max_m + 1):
        g = spec_graphs.get(m)
        if g is None:
            g = build_graph(graph.spec, m)
            spec_graphs[m] = g
        ecc = 0
        seeds = range(0, g.num_vertices, max(1, g.num_vertices // 8))
        for s in seeds:
            depth = _bfs_depths(g, int(s))
            ecc = max(ecc, int(depth.max()))
        out[m] = ecc
    return out


def ball_checks(graph: CellGraph, pi: np.ndarray, d_h: float, d_w: float,
                centers: list[int], radii: list[int],
                opts: SolveOptions = DEFAULT_OPTS,
                helper_graphs: dict[int, CellGraph] | None = None
                ) -> BallCheckReport:
    """Volume, Poincare and capacity ratios over a (center, radius) sample.

    Volume: pi(B)/r^d_H.  Poincare: worst-f variance/energy against r^d_W.
    Capacity: energy of a max-of-block-tents cutoff that is 1 on B and 0 off
    2B, against r^(d_H - d_W).  Centers must sit 2r away from the border.
    """
    helper_graphs = helper_graphs if helper_graphs is not None else {}
    diam = _block_diameters(graph, helper_graphs, max_m=max(1, graph.n - 1))
    tents = _TentCache(graph, opts)
    bdry_depth = _bfs_depths(graph, np.nonzero(graph.boundary())[0])
    rows = []
    for c in centers:
        depth = _bfs_depths(graph, c)
        for r in radii:
            if r < 2:
                continue
            if bdry_depth[c] <= 2 * r:
                continue  # needs clearance from the border
            ball = (depth >= 0) & (depth < r)
            ball2 = (depth >= 0) & (depth < 2 * r)
            vol = float(pi[ball].sum()) / r**d_h
            poin = _ball_poincare(graph, pi, ball, ball2, opts) / r**d_w
            # capacity: blocks of the largest m whose diameter fits r/2
            m = 0
            for mm in range(1, graph.n):
                if 2 * (diam[mm] + 1) <= r:
                    m = mm
            bs = graph.spec.N**m
            blocks = sorted(set((np.nonzero(ball)[0] // bs).tolist()))
            psi = np.zeros(graph.num_vertices)
            for b in blocks:
                idx, vals = tents.tent(m, int(b))
                psi[idx] = np.maximum(psi[idx], vals)
            energy = dirichlet_energy(graph, psi)
            if not (psi[ball] == 1.0).all():
                raise SpecError("tent cutoff is not 1 on the ball")
            if (psi[~ball2] != 0.0).any():
                raise SpecError("tent cutoff leaks outside the double ball")
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
