"""Graph energies, Poincaré constants, effective resistances and scaling fits.

The quadratic form used everywhere is the ordered-pair energy: every edge is
counted in both directions, so the assembled Laplacian is 2*(D - A).  The
random-walk identities in :mod:`carpetlab.walks` compare against the per-edge
(half) energy; see the README for the convention table.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .cellgraph import CellGraph, build_graph, neighborhood, word_index
from .geometry import IfsSpec, SolverError, SpecError, Word


MAXITER = 20000  # iteration cap of every PCG and LOBPCG run


@dataclass
class SolveOptions:
    """Iterative solver knobs shared across the module."""

    tol: float = 1e-10

    def __post_init__(self) -> None:
        if not (0 < self.tol <= 1e-4):
            raise ValueError("tolerance must be in (0, 1e-4]")


DEFAULT_OPTS = SolveOptions()


@dataclass
class SolveInfo:
    method: str
    iterations: int
    residual: float


# ---------------------------------------------------------------------------
# energy and Laplacian
# ---------------------------------------------------------------------------


def _edge_arrays(graph) -> tuple[np.ndarray, np.ndarray]:
    u = np.repeat(np.arange(graph.num_vertices), np.diff(graph.indptr))
    return u, graph.indices


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product as numpy's pairwise sum, the same at any BLAS thread count."""
    return float(np.add.reduce(a * b))


def dirichlet_energy(graph, f: np.ndarray, subset: np.ndarray | None = None) -> float:
    """Ordered-pair graph energy of f (each edge counted twice)."""
    u, v = _edge_arrays(graph)
    if subset is not None:
        keep = subset[u] & subset[v]
        u, v = u[keep], v[keep]
    d = f[u] - f[v]
    return _dot(d, d)


def laplacian(graph, subset: np.ndarray | None = None) -> sp.csr_matrix:
    """Doubled graph Laplacian 2*(D - A), optionally induced on a subset."""
    adj = graph.adjacency()
    if subset is not None:
        keep = np.nonzero(subset)[0]
        adj = adj[keep][:, keep]
    deg = np.asarray(adj.sum(axis=1)).ravel()
    return (2.0 * (sp.diags(deg) - adj)).tocsr()


def _solve_pd(A: sp.spmatrix, b: np.ndarray, opts: SolveOptions, M=None):
    """PCG for A x = b to relative residual opts.tol; raises SolverError otherwise.

    ``M`` is a :func:`_word_prefix_preconditioner` of A (Jacobi by default).
    When every row of A sums to zero, as for a Laplacian, PCG runs on the
    mean-free subspace, which A maps into itself and where A need only be
    positive semidefinite: b and every preconditioned residual are projected
    onto it.  Inner products are :func:`_dot`, so x does not depend on the
    BLAS thread count.
    """
    M = M if M is not None else _word_prefix_preconditioner(A)
    if not (A @ np.ones(A.shape[0])).any():
        b = b - b.mean()
        apply = lambda r: (z := M(r)) - z.mean()
    else:
        apply = M
    bnorm = math.sqrt(_dot(b, b))
    x = np.zeros_like(b)
    r = b.copy()
    z = apply(r)
    p, rz = z, _dot(r, z)
    stop = opts.tol * bnorm
    steps = 0
    while math.sqrt(_dot(r, r)) > stop and steps < MAXITER:
        q = A @ p
        alpha = rz / _dot(p, q)
        x += alpha * p
        r -= alpha * q
        z = apply(r)
        rz_old, rz = rz, _dot(r, z)
        p = z + (rz / rz_old) * p
        steps += 1
    e = A @ x - b
    res = math.sqrt(_dot(e, e)) / max(bnorm, 1e-300)
    if math.sqrt(_dot(r, r)) > stop or not res <= 1e-6:
        raise SolverError(f"CG failed to converge ({steps} iterations, residual {res})")
    return x, SolveInfo("pcg", steps, float(res))


def _solve_free(L: sp.csr_matrix, keep: np.ndarray, b: np.ndarray, graph, opts: SolveOptions):
    """Solve L[keep][:, keep] x = b, preconditioned on the free vertices ``keep``."""
    A = L[keep][:, keep]
    return _solve_pd(A, b, opts, _word_prefix_preconditioner(A, graph, keep))


# ---------------------------------------------------------------------------
# Poincare constant
# ---------------------------------------------------------------------------


@dataclass
class PoincareResult:
    value: float  # largest variance at unit (ordered) energy
    gap: float  # smallest nonzero eigenvalue of the doubled Laplacian
    info: SolveInfo


def poincare_constant(graph, opts: SolveOptions = DEFAULT_OPTS) -> PoincareResult:
    """Largest mean-centered variance at unit energy = 1/gap(2(D-A)).

    LOBPCG finds the gap against the constant vector, preconditioned by
    :func:`_word_prefix_preconditioner`, to residual opts.tol * 2 max diag (a
    bound on ||L||); the gap's error is of the order of that residual squared.
    """
    L = laplacian(graph)
    size = L.shape[0]
    if size < 2:
        raise SpecError("the Poincare constant needs a graph with at least 2 vertices")
    if size - 1 < 5:  # a dense solve is exact and cheap on so few vertices
        return _dense_poincare(L)
    tol = opts.tol * 2.0 * float(L.diagonal().max())
    gap, vec, steps = _lobpcg(L, _word_prefix_preconditioner(L, graph), tol)
    e = L @ vec - gap * vec
    res = math.sqrt(_dot(e, e))
    if gap <= 0 or not res <= tol:
        raise SolverError(f"LOBPCG failed (gap {gap}, residual {res}); disconnected?")
    return PoincareResult(1.0 / gap, gap, SolveInfo("lobpcg", steps, res / gap))


def _dense_poincare(L: sp.csr_matrix) -> PoincareResult:
    """Gap by dense eigh, for graphs too small for a LOBPCG block."""
    gap = float(np.linalg.eigvalsh(L.toarray())[1])
    return PoincareResult(1.0 / gap, gap, SolveInfo("eigh", 1, 0.0))


def _lobpcg(L: sp.csr_matrix, M, tol: float):
    """Lowest eigenpair of L against the constants: LOBPCG with block size 1.

    Each step is Rayleigh-Ritz on span(x, w, p): the iterate, its mean-free
    preconditioned residual w = M(Lx - lam x) and the previous search
    direction, orthonormalized by two Gram-Schmidt passes (a direction that
    falls into the span of the others is dropped).  The images under L ride
    along, so one step costs one product with L.  Stops once
    ||Lx - lam x|| <= tol for the unit x, or after MAXITER steps.
    """
    x = np.random.default_rng(0).standard_normal(L.shape[0])
    x -= x.mean()
    x /= math.sqrt(_dot(x, x))
    Lx, p, Lp = L @ x, None, None
    for steps in range(MAXITER + 1):
        lam = _dot(x, Lx)
        r = Lx - lam * x
        if steps == MAXITER or math.sqrt(_dot(r, r)) <= tol:
            return lam, x, steps
        w = M(r)
        w -= w.mean()
        basis, images = [x], [Lx]
        for v, Lv in ((w, None), (p, Lp)):
            if v is None:
                continue
            before = math.sqrt(_dot(v, v))
            for _ in range(2):
                for u, Lu in zip(basis, images):
                    c = _dot(u, v)
                    v = v - c * u
                    if Lv is not None:
                        Lv = Lv - c * Lu
            nrm = math.sqrt(_dot(v, v))
            if not nrm > 1e-10 * before:
                continue
            v = v / nrm
            basis.append(v)
            images.append(L @ v if Lv is None else Lv / nrm)
        if len(basis) == 1:
            return lam, x, steps
        gram = np.array([[_dot(u, Lv) for Lv in images] for u in basis])
        c = np.linalg.eigh(0.5 * (gram + gram.T))[1][:, 0]
        p = sum(ci * v for ci, v in zip(c[1:], basis[1:]))
        Lp = sum(ci * Lv for ci, Lv in zip(c[1:], images[1:]))
        x, Lx = c[0] * x + p, c[0] * Lx + Lp
        scale = 1.0 / math.sqrt(_dot(x, x))
        x, Lx = x * scale, Lx * scale
        scale = 1.0 / math.sqrt(_dot(p, p))
        p, Lp = p * scale, Lp * scale


def _word_prefix_preconditioner(A: sp.spmatrix, graph=None, keep: np.ndarray | None = None):
    """M(r) = D^-1 r + sum_m P_m A_m^-1 P_m^T r, word lengths m in {n-2, n-1}, m >= 1.

    The unknowns of A are the vertices ``keep`` (sorted; all by default) of
    the level-n ``graph``.  P_m is constant on each aggregate, the free
    vertices of one level-m word-prefix block, a contiguous run of unknowns:
    np.add.reduceat restricts, np.repeat prolongs.  A_m = P_m^T A P_m,
    shifted by 1e-10 max diag off singularity, is the only matrix
    factorized.  A level-1 graph has no coarse level, and without a graph
    (unknowns that are not word-indexed) M is Jacobi.  A failed factorization
    (SuperLU out of memory at large N^m) raises SolverError.
    """
    inv = 1.0 / A.diagonal()
    n = graph.n if graph is not None else 1
    idx = np.arange(A.shape[0]) if keep is None else keep
    coarse = []
    for m in range(max(1, n - 2), n):
        block = idx // graph.spec.N ** (n - m)
        first = np.r_[True, block[1:] != block[:-1]]
        starts = np.flatnonzero(first)
        size = len(starts)
        P = sp.csr_matrix((np.ones(len(idx)), np.cumsum(first) - 1, np.arange(len(idx) + 1)),
                          shape=(len(idx), size))
        C = (P.T @ (A @ P)).tocsc()
        C = C + 1e-10 * C.diagonal().max() * sp.identity(size, format="csc")
        try:
            coarse.append((starts, np.diff(np.r_[starts, len(idx)]), spla.splu(C)))
        except (SystemError, RuntimeError, MemoryError) as exc:
            raise SolverError(
                f"coarse factorization with {size} unknowns failed: {exc}") from exc

    def apply(r: np.ndarray) -> np.ndarray:
        z = inv * r
        for starts, counts, lu in coarse:
            z += np.repeat(lu.solve(np.add.reduceat(r, starts)), counts)
        return z

    return apply


# ---------------------------------------------------------------------------
# effective resistance
# ---------------------------------------------------------------------------


@dataclass
class ResistanceResult:
    value: float
    potential: np.ndarray
    info: SolveInfo


def effective_resistance(
    graph,
    set_a: np.ndarray,
    set_b: np.ndarray,
    opts: SolveOptions = DEFAULT_OPTS,
) -> ResistanceResult:
    """Effective resistance between disjoint vertex sets (ordered energy).

    Solves the Dirichlet problem f|A = 0, f|B = 1 and returns 1/energy(f).
    """
    set_a = np.asarray(set_a, dtype=bool)
    set_b = np.asarray(set_b, dtype=bool)
    if not set_a.any() or not set_b.any():
        raise SpecError("resistance endpoints must be nonempty")
    if (set_a & set_b).any():
        raise SpecError("resistance endpoints must be disjoint")
    f = np.zeros(graph.num_vertices)
    f[set_b] = 1.0
    free = ~(set_a | set_b)
    info = SolveInfo("pinned", 0, 0.0)
    if free.any():
        L = laplacian(graph)
        keep = np.nonzero(free)[0]
        x, info = _solve_free(L, keep, -(L[keep] @ f), graph, opts)
        f[keep] = x
    energy = dirichlet_energy(graph, f)
    if energy <= 0:
        raise SpecError("A and B are not connected through the graph")
    return ResistanceResult(1.0 / energy, f, info)


def face_resistance(graph: CellGraph, opts: SolveOptions = DEFAULT_OPTS) -> ResistanceResult:
    """Resistance between the two opposite x1 faces of the level slice."""
    return effective_resistance(
        graph, graph.face_set(0, 0), graph.face_set(0, 1), opts
    )


def face_resistance_upper_check(spec: IfsSpec, values: dict[int, float]) -> dict:
    """Check the explicit face-resistance decay bound (k/(4k-4))^n per level.

    The bound comes from counting the (4k-4)^n disjoint straight chains along
    the side shells; it is constant-free, so it is asserted directly.
    """
    alpha = spec.k / (4.0 * spec.k - 4.0)
    rows = {}
    for n, value in sorted(values.items()):
        bound = alpha**n
        rows[n] = {"value": value, "bound": bound, "pass": bool(value <= bound)}
    return {"alpha": alpha, "levels": rows, "pass": all(r["pass"] for r in rows.values())}


def resistance_probe(
    spec: IfsSpec,
    m: int,
    probe_words: list[Word],
    l_star: int,
    opts: SolveOptions = DEFAULT_OPTS,
    *,
    graphs: dict[int, CellGraph] | None = None,
    max_vertices: int = 500_000,
) -> dict:
    """Smallest block-to-far-complement resistance over the probe words.

    For each probe w the quantity is the resistance between the block w.W_m
    and the blocks outside the l_star-edge neighborhood of w, inside the
    level-(|w|+m) graph.  Probes whose neighborhood swallows the whole level
    are skipped with a warning entry.
    """
    graphs = graphs if graphs is not None else {}
    per_probe = []
    best = None
    for w in probe_words:
        if len(w) == 0:
            raise SpecError("probe words must be nonempty")
        level = len(w) + m
        if len(w) not in graphs:
            graphs[len(w)] = build_graph(spec, len(w), max_vertices=max_vertices)
        base = graphs[len(w)]
        mask = neighborhood(base, word_index(w, spec.N), l_star)
        if mask.all():
            per_probe.append({"word": w, "skipped": "neighborhood covers level"})
            continue
        if level not in graphs:
            graphs[level] = build_graph(spec, level, max_vertices=max_vertices)
        g = graphs[level]
        bs = spec.N**m
        set_a = np.zeros(g.num_vertices, dtype=bool)
        lo, hi = g.block_range(w)
        set_a[lo:hi] = True
        set_b = np.repeat(~mask, bs)
        res = effective_resistance(g, set_a, set_b, opts)
        per_probe.append({"word": w, "value": res.value})
        if best is None or res.value < best:
            best = res.value
    return {"m": m, "l_star": l_star, "value": best, "probes": per_probe}


# ---------------------------------------------------------------------------
# block-average gap constants
# ---------------------------------------------------------------------------


def sigma_pair(
    graph: CellGraph,
    w: Word,
    w2: Word,
    m: int,
    opts: SolveOptions = DEFAULT_OPTS,
) -> dict:
    """Largest squared block-average gap at unit energy, scaled by N^m.

    ``graph`` must be the level-(|w|+m) graph; the two blocks w.W_m, w2.W_m
    are paired with the signed averaging vector and one deflated solve gives
    the supremum value a.L+ a (times N^m).
    """
    if len(w) != len(w2) or len(w) + m != graph.n:
        raise SpecError("sigma pair levels are inconsistent with the graph")
    lo1, hi1 = graph.block_range(w)
    lo2, hi2 = graph.block_range(w2)
    subset = np.zeros(graph.num_vertices, dtype=bool)
    subset[lo1:hi1] = True
    subset[lo2:hi2] = True
    L = laplacian(graph, subset)
    keep = np.nonzero(subset)[0]
    ncomp, _ = sp.csgraph.connected_components(L, directed=False)
    if ncomp != 1:
        raise SpecError("two-block graph is disconnected; contact rule anomaly")
    bs = graph.spec.N**m
    a = np.zeros(len(keep))
    a[np.searchsorted(keep, np.arange(lo1, hi1))] = 1.0 / bs
    a[np.searchsorted(keep, np.arange(lo2, hi2))] = -1.0 / bs
    x, info = _solve_pd(L, a, opts, _word_prefix_preconditioner(L, graph, keep))
    value = graph.spec.N**m * _dot(a, x)
    return {
        "value": value,
        "maximizer": x,
        "subset": subset,
        "info": info,
    }


def sigma_census(graph: CellGraph) -> list[tuple[Word, Word]]:
    """One adjacent pair per isometry-orbit of the level's edge set.

    Each edge u < v is keyed by the smallest (min, max) image pair over the
    48 isometries; the first edge of each key, in edge order, is kept.
    """
    from .cellgraph import word_permutation
    from .geometry import isometry_group

    perms = np.stack([word_permutation(graph, g) for g in isometry_group()])
    u, v = _edge_arrays(graph)
    u, v = u[u < v], v[u < v]
    pu, pv = perms[:, u], perms[:, v]
    keys = (np.minimum(pu, pv) * graph.num_vertices + np.maximum(pu, pv)).min(axis=0)
    first = np.sort(np.unique(keys, return_index=True)[1])
    return [(graph.word_of(int(u[i])), graph.word_of(int(v[i]))) for i in first]


def sigma_supremum(
    spec: IfsSpec,
    m: int,
    census_levels: list[int],
    opts: SolveOptions = DEFAULT_OPTS,
    *,
    graphs: dict[int, CellGraph] | None = None,
    max_vertices: int = 500_000,
) -> dict:
    """Max block-gap constant over a finite census of adjacent pairs.

    The true supremum ranges over all levels; the probe census (default
    levels <= 2) is recorded in the output so consumers can see what was
    actually maximized.
    """
    graphs = graphs if graphs is not None else {}
    best = None
    probes = []
    for nprime in census_levels:
        if nprime not in graphs:
            graphs[nprime] = build_graph(spec, nprime, max_vertices=max_vertices)
        level = nprime + m
        if level not in graphs:
            graphs[level] = build_graph(spec, level, max_vertices=max_vertices)
        for w, w2 in sigma_census(graphs[nprime]):
            val = sigma_pair(graphs[level], w, w2, m, opts)["value"]
            probes.append({"pair": (w, w2), "value": val})
            if best is None or val > best:
                best = val
    if best is None:
        raise SpecError("empty census")
    return {"m": m, "value": best, "census_levels": census_levels, "probes": probes}


def face_gap_constants(
    graph: CellGraph, opts: SolveOptions = DEFAULT_OPTS
) -> dict:
    """Squared face-average gap constants at unit energy.

    ``adjacent`` pairs the x1=0 face with the x2=0 face (neighboring faces);
    ``opposite`` pairs x1=0 with x1=1.  Both are v.L+ v values for the signed
    normalized indicator v.
    """
    L = laplacian(graph)
    M = _word_prefix_preconditioner(L, graph)
    out = {}
    f10 = graph.face_set(0, 0)
    for key, other in (("adjacent", graph.face_set(1, 0)),
                       ("opposite", graph.face_set(0, 1))):
        v = np.zeros(graph.num_vertices)
        v[f10] += 1.0 / f10.sum()
        v[other] -= 1.0 / other.sum()
        x, info = _solve_pd(L, v, opts, M)
        out[key] = _dot(v, x)
        out[f"{key}_info"] = info
    return out


def pinned_face_gap(
    graph: CellGraph, opts: SolveOptions = DEFAULT_OPTS
) -> dict:
    """Supremum of (avg over x2=0 face of f)^2 / energy among f = 0 on x1=0.

    One Dirichlet-constrained solve; returns 0 with a warning when the
    pinning forces the face average to vanish.
    """
    pinned = graph.face_set(0, 0)
    target = graph.face_set(1, 0)
    free = ~pinned
    a_full = np.zeros(graph.num_vertices)
    a_full[target] = 1.0 / target.sum()
    if not (target & free).any():
        return {"value": 0.0, "warning": "target face entirely pinned"}
    L = laplacian(graph)
    keep = np.nonzero(free)[0]
    a = a_full[keep]
    x, info = _solve_free(L, keep, a, graph, opts)
    return {"value": _dot(a, x), "info": info}


# ---------------------------------------------------------------------------
# constants table and scaling fits
# ---------------------------------------------------------------------------


@dataclass
class ConstantsRow:
    level: int
    quantity: str
    value: float
    method: str = ""
    tolerance: float = 0.0
    iterations: int = 0


@dataclass
class ConstantsTable:
    rows: list[ConstantsRow] = field(default_factory=list)

    def add(self, level: int, quantity: str, value: float,
            info: SolveInfo | None = None, tolerance: float = 0.0) -> None:
        self.rows.append(
            ConstantsRow(
                level=level,
                quantity=quantity,
                value=float(value),
                method=info.method if info else "",
                tolerance=tolerance,
                iterations=info.iterations if info else 0,
            )
        )

    def values(self, quantity: str) -> dict[int, float]:
        return {r.level: r.value for r in self.rows if r.quantity == quantity}

    def to_csv(self) -> str:
        lines = ["level,quantity,value,method,tolerance,iterations"]
        for r in self.rows:
            lines.append(
                f"{r.level},{r.quantity},{r.value!r},{r.method},"
                f"{r.tolerance!r},{r.iterations}"
            )
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps([asdict(r) for r in self.rows], indent=2)

    @classmethod
    def from_csv(cls, text: str) -> "ConstantsTable":
        rows = []
        for line in text.strip().splitlines()[1:]:
            level, quantity, value, method, tolerance, iterations = line.split(",")
            rows.append(
                ConstantsRow(int(level), quantity, float(value), method,
                             float(tolerance), int(iterations))
            )
        return cls(rows)


@dataclass
class ScalingFit:
    """Least-squares fit of log(value) against the level index."""

    quantity: str
    points: list[tuple[int, float]]
    slope: float
    intercept: float
    residual: float
    rho: float
    d_h: float
    d_w: float

    def as_dict(self) -> dict:
        return {
            "quantity": self.quantity,
            "points": self.points,
            "slope": self.slope,
            "intercept": self.intercept,
            "residual": self.residual,
            "rho": self.rho,
            "d_H": self.d_h,
            "d_W": self.d_w,
        }


# how each supported quantity's log-slope converts into the renormalization
# factor: r_face ~ rho^-n, lambda ~ (N/rho)^n, inv_lambda_scaled ~ rho^n
_RHO_MODES = {
    "r_face": lambda slope, N: math.exp(-slope),
    "lambda": lambda slope, N: N * math.exp(-slope),
    "inv_lambda_scaled": lambda slope, N: math.exp(slope),
}


def scaling_fit(spec: IfsSpec, quantity: str, values: dict[int, float]) -> ScalingFit:
    """Fit log(value) vs level and derive (rho, d_W) for known quantities."""
    pts = sorted(values.items())
    if len(pts) < 2:
        raise SpecError("scaling fit needs at least 2 levels")
    ns = np.array([p[0] for p in pts], dtype=float)
    logs = np.array([math.log(p[1]) for p in pts])
    A = np.vstack([ns, np.ones_like(ns)]).T
    coef, res, *_ = np.linalg.lstsq(A, logs, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    residual = float(np.sqrt(res[0])) if len(res) else 0.0
    mode = _RHO_MODES.get(quantity)
    if mode is None:
        raise SpecError(f"unknown scaling quantity {quantity!r}")
    rho = mode(slope, spec.N)
    if rho <= 0:
        raise SpecError("fitted renormalization factor must be positive")
    d_h = math.log(spec.N) / math.log(spec.k)
    d_w = d_h - math.log(rho) / math.log(spec.k)
    return ScalingFit(quantity, [(int(n), float(v)) for n, v in pts],
                      slope, intercept, residual, rho, d_h, d_w)
