"""Reversible random walks on cell graphs and walls.

Kernels are assembled exactly: every transition probability is 1/d for an
integer d recorded next to the float matrix, so stochasticity, detailed
balance and the wall-to-cell folding identity can be verified with zero
residual.  A kernel is the graph's CSR merged with its boundary self-loops,
and the checks work on the kernel's CSR arrays: integer identities on common
denominators, with each entry's transpose found by one CSR transpose.
``Fraction`` values are formed only where an identity fails, so a reported
residual is the exact maximum.

The Monte Carlo engine draws each trajectory from its own counter-based
``Philox`` stream keyed by (master seed, trajectory index), so a path's
trajectory depends only on the seed, its index and its start.  Paths advance
together 256 steps at a time.  A step inverts the row's running sums through
a guide table (Chen and Asau, 1974) in constant time, whatever the degree,
and stores a small label of the new state; first hits and alternating hits
are read off the labels once per chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from .cellgraph import CellGraph, WallGraph, walk_measure
from .geometry import SpecError
from .spectral import (SolveOptions, DEFAULT_OPTS, SolveInfo, _solve_pd,
                       _word_prefix_preconditioner)


@dataclass
class WalkKernel:
    """Row-stochastic kernel with its reversing measure and exact entries.

    ``dens[j]`` is the exact denominator of the j-th stored entry, i.e.
    P.data[j] == 1/dens[j] as a rational number.
    """

    kind: str  # cell | wall | lazy
    n: int
    m: int | None
    P: sp.csr_matrix
    pi: np.ndarray
    dens: np.ndarray | None
    graph: CellGraph | None = None
    wall: WallGraph | None = None

    @property
    def num_states(self) -> int:
        return self.P.shape[0]


def _assemble(edges, dens, loops, loop_dens, **fields) -> WalkKernel:
    """Kernel of ``edges`` (ascending neighbour lists, denominators ``dens``)
    and a self-loop of denominator ``loop_dens[u]`` in each row u of ``loops``,
    merged by scipy as canonical CSR.  Callers check rows once ``dens`` is freed."""
    shape = (edges.num_vertices,) * 2
    K = (sp.csr_matrix((dens, edges.indices, edges.indptr), shape=shape)
         + sp.csr_matrix((loop_dens[loops], np.flatnonzero(loops),
                          np.append(0, np.cumsum(loops))), shape=shape))
    return WalkKernel(P=sp.csr_matrix((1.0 / K.data, K.indices, K.indptr),
                                      shape=shape), dens=K.data, **fields)


def _rows_exact(kernel: WalkKernel) -> WalkKernel:
    res = stochasticity_residual(kernel)
    if res != 0:
        raise SpecError(f"kernel rows do not sum to 1 exactly (residual {res})")
    return kernel


def build_kernel(graph: CellGraph) -> WalkKernel:
    """Nearest-neighbor walk on the level-n graph.

    From w: probability 1/pi(w) to each neighbor, plus a 1/pi(w) self-loop
    exactly when w is a border word (pi adds the +1 there).
    """
    pi = walk_measure(graph)
    return _rows_exact(_assemble(graph, np.repeat(pi, graph.degrees), graph.boundary(),
                                 pi, kind="cell", n=graph.n, m=None, pi=pi, graph=graph))


def build_wall_kernel(wall: WallGraph) -> WalkKernel:
    """Walk on the wall: block moves at full rate, cross-block and boundary
    self-loop moves shared across (outside_degree + 1) options."""
    pi = wall.pi
    bs = wall.block_size
    shared = pi * (wall.outside_degree + 1)
    rows = np.repeat(np.arange(wall.num_vertices), np.diff(wall.indptr))
    dens = np.where(wall.indices // bs == rows // bs, pi[rows], shared[rows])
    return _rows_exact(_assemble(wall, dens, wall.cell_graph.boundary()[wall.fold],
                                 shared, kind="wall", n=wall.n, m=wall.m, pi=pi,
                                 wall=wall))


def lazy_kernel(kernel: WalkKernel, theta: float = 0.5) -> WalkKernel:
    """(1-theta) I + theta P; float-only (used by the heat module)."""
    if not 0 < theta < 1:
        raise SpecError("laziness must be in (0, 1)")
    size = kernel.num_states
    P = (theta * kernel.P + (1 - theta) * sp.identity(size, format="csr")).tocsr()
    return WalkKernel(kind="lazy", n=kernel.n, m=kernel.m, P=P,
                      pi=kernel.pi, dens=None, graph=kernel.graph,
                      wall=kernel.wall)


# ---------------------------------------------------------------------------
# exact assembly checks
# ---------------------------------------------------------------------------


def _exact_dens(kernel: WalkKernel) -> np.ndarray:
    """The denominator of every stored entry, in storage order; all positive."""
    if kernel.dens is None:
        raise SpecError("exact entries not available for this kernel kind")
    if (kernel.dens <= 0).any():
        raise SpecError("kernel denominators must be positive")
    return kernel.dens


def _exact_ints(bound: int, *arrays: np.ndarray) -> list[np.ndarray]:
    """The arrays as int64, or as Python ints when ``bound`` leaves int64."""
    dtype = np.int64 if bound < 2**63 else object
    return [np.asarray(a).astype(dtype, copy=False) for a in arrays]


def _max_group_sum(starts: np.ndarray, dens: np.ndarray, minus: int = 0) -> Fraction:
    """Exact max over groups of |sum 1/dens - minus|, on a common multiple.

    Group g is entries starts[g]..starts[g+1]-1, and a negative denominator
    subtracts its term.  The terms fill one entry-sized buffer in place.
    """
    if len(starts) == 0:
        return Fraction(0)
    size = np.diff(np.append(starts, len(dens)))
    big = int(size.max())
    top = max(int(dens.max()), -int(dens.min()))
    (dens,) = _exact_ints(top**big * (big + minus), dens)
    common = np.lcm.reduceat(dens, starts)
    terms = np.repeat(common, size)
    terms //= dens
    total = np.add.reduceat(terms, starts)
    total -= minus * common
    return max((abs(Fraction(int(total[g]), int(common[g])))
                for g in np.flatnonzero(total)), default=Fraction(0))


def stochasticity_residual(kernel: WalkKernel) -> Fraction:
    """Max |row sum - 1| in exact arithmetic, each row summed on the lcm of
    its denominators (0 for well-formed kernels, 1 with an empty row)."""
    indptr = kernel.P.indptr
    filled = np.diff(indptr) > 0
    worst = _max_group_sum(indptr[:-1][filled], _exact_dens(kernel), minus=1)
    return worst if filled.all() else max(worst, Fraction(1))


def reversibility_residual(kernel: WalkKernel) -> Fraction:
    """Max |pi(u)P(u,v) - pi(v)P(v,u)| in exact arithmetic (1 if asymmetric).

    One CSR transpose of the storage positions pairs each entry with its
    transpose; the support is symmetric iff it has the ``indptr`` and sorted
    ``indices`` of P.  An entry and its transpose compare pi(u)*d_vu, pi(v)*d_uv.
    """
    dens, P = _exact_dens(kernel), kernel.P
    if P.nnz == 0:
        return Fraction(0)
    where = sp.csr_matrix((np.arange(P.nnz, dtype=P.indices.dtype), P.indices,
                           P.indptr), shape=P.shape)
    if not where.has_sorted_indices:
        where = where.sorted_indices()  # a copy: P keeps its own order
    T = where.T.tocsr()
    if not (np.array_equal(T.indptr, where.indptr)
            and np.array_equal(T.indices, where.indices)):
        return Fraction(1)  # asymmetric support
    back = np.empty_like(T.data)
    back[where.data] = T.data  # back[j]: the storage position of j's transpose
    del where, T
    pi = np.asarray(kernel.pi)
    pi, d_uv = _exact_ints(2 * int(np.abs(pi).max()) * int(dens.max()), pi, dens)
    rhs = pi[P.indices]
    rhs *= d_uv  # pi(v)*d_uv of entry (u, v)
    diff = rhs[back]  # pi(u)*d_vu, the right-hand side of the transpose
    diff -= rhs
    return max((abs(Fraction(int(diff[j]), int(d_uv[j]) * int(d_uv[back[j]])))
                for j in np.flatnonzero(diff)), default=Fraction(0))


def kernel_energy(kernel: WalkKernel, f: np.ndarray) -> float:
    """<f - Pf, f> in l2(pi): the per-edge (unordered) conductance form."""
    pf = kernel.P @ f
    return float(((f - pf) * f * kernel.pi).sum())


def coupling_check(wall_kernel: WalkKernel, cell_kernel: WalkKernel) -> dict:
    """Verify that folding wall rows reproduces the cell rows exactly.

    For every wall state u the fold-pushforward of its transition row must
    equal the cell row at fold(u).  Returns exact and float residuals.
    """
    wall = wall_kernel.wall
    if wall is None or cell_kernel.graph is None:
        raise SpecError("coupling check needs a wall kernel and a cell kernel")
    if wall.cell_graph.num_vertices != cell_kernel.num_states:
        raise SpecError("kernel dimensions do not match")
    fold = wall.fold
    size = cell_kernel.num_states
    W, C = wall_kernel.P, cell_kernel.P
    # pushed wall entries (u, fold[v], 1/d) against the cell row fold[u]
    # pulled back to u as (u, v, 1/-d); keys u*V+v group both sides
    pulled = sp.csr_matrix((-_exact_dens(cell_kernel), C.indices, C.indptr),
                           shape=C.shape)[fold]
    base = np.arange(wall_kernel.num_states) * size
    keys = np.concatenate([np.repeat(base, np.diff(W.indptr)) + fold[W.indices],
                           np.repeat(base, np.diff(pulled.indptr)) + pulled.indices])
    order = np.argsort(keys, kind="stable")
    starts = np.flatnonzero(np.diff(keys[order], prepend=-1))
    dens = np.concatenate([_exact_dens(wall_kernel), pulled.data])[order]
    worst = _max_group_sum(starts, dens)
    return {"exact_residual": worst, "float_residual": float(worst)}


# ---------------------------------------------------------------------------
# exact hitting solves
# ---------------------------------------------------------------------------


@dataclass
class HittingReport:
    target: np.ndarray
    exact: np.ndarray
    info: SolveInfo
    mc_mean: float | None = None
    mc_se: float | None = None
    mc_paths: int = 0
    seed: int | None = None
    lam: float | None = None


def mean_hitting(kernel: WalkKernel, target: np.ndarray,
                 opts: SolveOptions = DEFAULT_OPTS) -> HittingReport:
    """Expected steps to reach ``target`` from every state (killed solve).

    The target must meet every component of the kernel's graph, or some
    hitting time is infinite (SpecError); a solve that fails to converge
    raises SolverError.
    """
    target = np.asarray(target, dtype=bool)
    if not target.any():
        raise SpecError("hitting target must be nonempty")
    _, part = sp.csgraph.connected_components(kernel.P, directed=False)
    hit = np.zeros(part.max() + 1, dtype=bool)
    hit[part[target]] = True
    if not hit[part].all():
        raise SpecError("hitting target is unreachable from some states")
    h = np.zeros(kernel.num_states)
    free = ~target
    if free.any():
        # diag(pi)(I - P_ff) is symmetric because the kernel is reversible
        keep = np.nonzero(free)[0]
        pi = kernel.pi[keep].astype(np.float64)
        A = (sp.diags(pi) @ (sp.identity(len(keep)) - kernel.P[keep][:, keep])).tocsr()
        M = _word_prefix_preconditioner(A, kernel.graph, keep)
        x, first = _solve_pd(A, pi, opts, M)
        # h runs from 1 next to the target to thousands far from it: one
        # refinement solve on the true residual carries opts.tol to the small values
        fix, second = _solve_pd(A, pi - A @ x, opts, M)
        h[keep] = x + fix
        info = SolveInfo("pcg", first.iterations + second.iterations,
                         first.residual * second.residual)
    else:
        info = SolveInfo("pinned", 0, 0.0)
    return HittingReport(target=target, exact=h, info=info)


def hitting_time_bands(kernels: dict[int, WalkKernel],
                       lams: dict[int, float]) -> dict:
    """Per level: extremes of mean-hitting/lam for the x1=0 face target.

    t(n) minimizes over the opposite face, T(n) maximizes over all states;
    cross-level stability of both is the associated acceptance check.
    """
    out = {}
    for n, kernel in sorted(kernels.items()):
        graph = kernel.graph
        rep = mean_hitting(kernel, graph.face_set(0, 0))
        lam = lams[n]
        opp = graph.face_set(0, 1)
        out[n] = {
            "t": float(rep.exact[opp].min() / lam),
            "T": float(rep.exact.max() / lam),
        }
    return out


# ---------------------------------------------------------------------------
# oscillation bounds
# ---------------------------------------------------------------------------


def oscillation_bound(t: float, c1: float = 1.0 / 27.0) -> float:
    """inf over L of (L*t/c1 + (1-c1)^L): the quick-oscillation trade-off."""
    if t < 0:
        raise SpecError("time ratio must be >= 0")
    if not 0 < c1 < 1:
        raise SpecError("c1 must be in (0,1)")
    if t == 0:
        return 0.0
    best = 1.0  # L = 0
    decay = 1.0
    term = 1.0
    L = 0
    while True:
        L += 1
        decay *= 1.0 - c1
        term = L * t / c1 + decay
        best = min(best, term)
        if decay < 1e-18 or L * t / c1 > best:
            break
    return best


# ---------------------------------------------------------------------------
# Monte Carlo engine
# ---------------------------------------------------------------------------


@dataclass
class SimulationResult:
    paths: int
    horizon: int
    seed: int
    first_hits: dict[str, np.ndarray]  # step index or -1 when censored
    osc_times: np.ndarray | None  # (paths, max_osc), -1 when censored
    start_states: np.ndarray


def sampling_tables(P: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """Padded row-wise running sums of a row-stochastic ``P`` and targets.

    The last column of each row and the padding are pinned to 1.0, and the
    padding targets repeat the row's last target, so a uniform draw u moves
    state s to ``tgt[s, (u > cum[s]).sum()]``.
    """
    indptr, indices, data = P.indptr, P.indices, P.data
    size = P.shape[0]
    deg = np.diff(indptr)
    width = int(deg.max())
    rows = np.repeat(np.arange(size), deg)
    cols = np.arange(len(indices)) - indptr[rows]
    cum = np.zeros((size, width), dtype=np.float64)
    cum[rows, cols] = data
    cum = np.cumsum(cum, axis=1)
    cum[np.arange(width) >= deg[:, None] - 1] = 1.0
    tgt = np.repeat(indices[indptr[1:] - 1].astype(np.int64)[:, None], width, axis=1)
    tgt[rows, cols] = indices
    return cum, tgt


def step_tables(P: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``sampling_tables`` plus a guide table that makes one step O(1).

    K is the smallest power of two such that no two distinct running sums
    below 1 of one row fall in one bucket [b/K, (b+1)/K), and
    ``guide[s, b] = #{j : cum[s, j] < b/K}``.  For u in [0, 1) take
    b = floor(K*u), exact because K is a power of two, j = guide[s, b] and

        next = tgt[s, j + (u > cum[s, j])].

    Proof that this is ``tgt[s, (u > cum[s]).sum()]``: the sums below 1 are
    nondecreasing and come first in the row, so j is the first index with
    cum[s, j] >= b/K.  Sums below b/K are below u, sums at or above
    (b+1)/K (the pinned 1.0 included) are not, and the only sums in the
    bucket equal cum[s, j].  The count is therefore j when u <= cum[s, j],
    and otherwise j plus the number of copies of cum[s, j].  A copy after
    the first belongs to a stored zero-probability entry, which the count
    never selects, so the returned ``tgt`` sends such an entry to the next
    larger sum's target and j + 1 lands there.  Copies are left out of the
    bucket test, so K exists whenever the positive probabilities do; K
    beyond 2**16 raises ``SpecError``.
    """
    cum, tgt = sampling_tables(P)
    lo, hi = cum[:, :-1], cum[:, 1:]
    split = (hi < 1) & (hi > lo)
    a, b = lo[split], hi[split]
    K = 1
    while True:
        same = np.floor(K * a) == np.floor(K * b)
        if not same.any():
            break
        a, b, K = a[same], b[same], 2 * K
        if K > 2**16:
            raise SpecError("running sums of a kernel row closer than 2^-16")
    size, width = cum.shape
    bucket = np.minimum(np.floor(K * cum), K).astype(np.int64)
    counts = np.bincount((np.arange(size)[:, None] * (K + 1) + bucket).ravel(),
                         minlength=size * (K + 1)).reshape(size, K + 1)
    guide = np.zeros((size, K), dtype=np.min_scalar_type(width - 1))
    guide[:, 1:] = np.cumsum(counts[:, : K - 1], axis=1)
    s, j = np.nonzero((hi < 1) & (hi == lo))
    tgt[s, j + 1] = tgt[s, (cum[s] <= hi[s, j][:, None]).sum(axis=1)]
    return cum, tgt, guide


def _path_generator(seed: int, index: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _state_mask(mask, size: int, what: str) -> np.ndarray:
    """``mask`` as a boolean array over the states; 0/1 integers are allowed."""
    arr = np.asarray(mask)
    if (arr.shape != (size,) or arr.dtype.kind not in "biu"
            or not ((arr == 0) | (arr == 1)).all()):
        raise SpecError(f"{what} must be a boolean mask over the {size} states")
    return arr.astype(bool)


def simulate(kernel: WalkKernel, start, *, paths: int, horizon: int,
             seed: int, workers: int = 1,
             targets: dict[str, np.ndarray] | None = None,
             oscillation: tuple[np.ndarray, np.ndarray] | None = None,
             max_osc: int = 2) -> SimulationResult:
    """Run ``paths`` trajectories and record first-hit/oscillation times.

    ``start`` is one state, a float distribution over the states (each path
    draws its start from its own stream), or an integer state per path;
    anything else, such as a non-integer scalar or a distribution of the
    wrong length, raises :class:`SpecError`.
    ``targets`` maps names to state masks (first-hit times are recorded);
    ``oscillation`` gives the alternating pair of masks whose alternating
    hit times are collected up to ``max_osc``.  Masks are boolean or 0/1
    arrays with one entry per state.  Path p draws from a ``Philox`` stream
    keyed by (seed, p), 256 steps at a time.  ``workers`` is accepted and
    ignored: every path runs in the calling thread.

    A step costs O(1) per path through the guide table of
    :func:`step_tables`.  Inside a chunk each step stores only a label of
    the new state, one bit per oscillation set and per target; first hits
    and alternating hits are found after the chunk with ``argmax``.
    """
    if horizon < 1 or paths < 1:
        raise SpecError("horizon and paths must be >= 1")
    chunk = 256
    size = kernel.num_states
    names = list(targets or {})
    sets = [np.zeros(size, dtype=bool)] * 2
    if oscillation is not None:
        if max_osc < 1:
            raise SpecError("max_osc must be >= 1")
        m0, m1 = oscillation
        sets = [_state_mask(m, size, "oscillation set") for m in (m0, m1)]
    masks = sets + [_state_mask(targets[name], size, f"target {name!r}")
                    for name in names]
    cum, tgt, guide = step_tables(kernel.P)
    width, K = cum.shape[1], guide.shape[1]
    cum, tgt, guide = (K * cum).ravel(), tgt.ravel(), guide.ravel()
    code = np.zeros(size, dtype=np.min_scalar_type(1 << (len(masks) - 1)))
    for bit, mask in enumerate(masks):
        code[mask] |= 1 << bit
    gens = [_path_generator(seed, p) for p in range(paths)]
    start = np.asarray(start)
    if np.issubdtype(start.dtype, np.floating) and start.ndim == 1:
        if len(start) != size or not (np.isfinite(start) & (start >= 0)).all() \
                or not start.sum() > 0:
            raise SpecError(f"a start distribution needs {size} finite nonnegative "
                            "weights with a positive sum")
        cdf = np.cumsum(start.astype(np.float64))
        cdf /= cdf[-1]
        draws = np.array([g.random() for g in gens])
        states = np.searchsorted(cdf, draws).astype(np.int64)
    elif not np.issubdtype(start.dtype, np.integer) or start.ndim > 1:
        raise SpecError("start must be an integer state, a float distribution "
                        "over the states or an integer state per path")
    elif start.ndim == 0:
        states = np.full(paths, int(start), dtype=np.int64)
    else:
        states = start[:paths].astype(np.int64)
    if len(states) != paths:
        raise SpecError(f"start gives {len(states)} states for {paths} paths")
    if states.min() < 0 or states.max() >= size:
        raise SpecError(f"start states must lie in [0, {size})")
    start_states = states.copy()

    first = {name: np.full(paths, -1, dtype=np.int64) for name in names}
    osc = np.full((paths, max_osc), -1, dtype=np.int64) if oscillation else None
    phase = np.zeros(paths, dtype=np.int64)

    def scan(labels: np.ndarray, t0: int, idx: np.ndarray) -> None:
        """Record the hits in ``labels`` (steps x paths ``idx``) from time t0."""
        for bit, name in enumerate(names, start=2):
            hits = (labels & (1 << bit)) != 0
            at = hits.argmax(axis=0)
            fresh = (first[name][idx] < 0) & hits[at, np.arange(len(idx))]
            first[name][idx[fresh]] = t0 + at[fresh]
        if osc is None:
            return
        when = np.arange(len(labels))[:, None]
        cols = np.flatnonzero(phase[idx] < max_osc)
        pos = np.zeros(len(cols), dtype=np.int64)
        while len(cols):
            # one alternating hit per pass, searched from the path's last one:
            # a state in both sets gives two hits at one step
            rows = idx[cols]
            want = (1 << phase[rows] % 2).astype(labels.dtype)
            hit = ((labels[:, cols] & want) != 0) & (when >= pos)
            pos = hit.argmax(axis=0)
            found = hit[pos, np.arange(len(cols))]
            rows, cols, pos = rows[found], cols[found], pos[found]
            osc[rows, phase[rows]] = t0 + pos
            phase[rows] += 1
            more = phase[rows] < max_osc
            cols, pos = cols[more], pos[more]

    def done(idx):
        ok = np.ones(len(idx), dtype=bool)
        for name in names:
            ok &= first[name][idx] >= 0
        if osc is not None:
            ok &= phase[idx] >= max_osc
        return ok

    active = np.arange(paths, dtype=np.int64)
    scan(code[states][None, :], 0, active)
    active = active[~done(active)]
    t = 0
    while t < horizon and len(active):
        steps = min(chunk, horizon - t)
        # each path fills a row of a small block, which is copied transposed:
        # the step loop reads one contiguous row of draws per step
        draws = np.empty((steps, len(active)))
        block = np.empty((min(512, len(active)), steps))
        for lo in range(0, len(active), len(block)):
            part = active[lo : lo + len(block)].tolist()
            for row, p in enumerate(part):
                gens[p].random(out=block[row])
            draws[:, lo : lo + len(part)] = block[: len(part)].T
        draws *= K  # exact: the bucket is int(K*u), compared as K*u > K*cum
        labels = np.empty((steps, len(active)), dtype=code.dtype)
        st = states[active]
        for s, v in enumerate(draws):
            row = st * width + guide[st * K + v.astype(np.int64)]
            st = tgt[row + (v > cum[row])]
            labels[s] = code[st]
        states[active] = st
        scan(labels, t + 1, active)
        t += steps
        active = active[~done(active)]
    return SimulationResult(paths=paths, horizon=horizon, seed=seed,
                            first_hits=first, osc_times=osc,
                            start_states=start_states)


@dataclass
class OscillationTrace:
    """Aggregates of the alternating face-hitting times."""

    mean_t1: float
    se_t1: float
    mean_gap: float
    se_gap: float
    censored_t1: float
    censored_t2: float
    paths: int
    flagged: bool


def oscillation_stats(result: SimulationResult) -> OscillationTrace:
    if result.osc_times is None:
        raise SpecError("simulation did not track oscillation times")
    if result.osc_times.shape[1] < 2:
        raise SpecError("oscillation statistics need max_osc >= 2")
    t1 = result.osc_times[:, 0]
    t2 = result.osc_times[:, 1]
    ok1 = t1 >= 0
    ok2 = ok1 & (t2 >= 0)
    cens2 = 1.0 - ok2.mean()
    vals1 = t1[ok1].astype(float)
    gaps = (t2[ok2] - t1[ok2]).astype(float)
    mean1 = float(vals1.mean()) if len(vals1) else math.nan
    se1 = float(vals1.std(ddof=1) / math.sqrt(len(vals1))) if len(vals1) > 1 else math.nan
    meang = float(gaps.mean()) if len(gaps) else math.nan
    seg = float(gaps.std(ddof=1) / math.sqrt(len(gaps))) if len(gaps) > 1 else math.nan
    return OscillationTrace(
        mean_t1=mean1, se_t1=se1, mean_gap=meang, se_gap=seg,
        censored_t1=float(1.0 - ok1.mean()), censored_t2=float(cens2),
        paths=result.paths, flagged=bool(cens2 >= 0.05),
    )


def quick_oscillation_check(trace: OscillationTrace, lam: float,
                            c_hat: float, c1: float = 1.0 / 27.0) -> dict:
    """Compare E[T2-T1] against the oscillation bound at the empirical scale."""
    t = trace.mean_t1 / (c_hat * lam)
    bound = oscillation_bound(min(t, 1.0), c1) * c_hat * lam
    slack = 3.0 * (trace.se_gap if math.isfinite(trace.se_gap) else 0.0)
    return {
        "lhs": trace.mean_gap,
        "bound": bound,
        "pass": bool(trace.mean_gap <= bound + slack),
        "t": t,
    }


def wilson_lower_bound(successes: int, trials: int, z: float = 1.6449) -> float:
    """One-sided lower confidence bound for a binomial proportion."""
    if trials == 0:
        return 0.0
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = phat + z * z / (2 * trials)
    rad = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
    return max(0.0, (center - rad) / denom)


def wall_bottom_mask(wall: WallGraph) -> np.ndarray:
    """Wall cells flush to the x1=0 face of the whole cube (bottom layer)."""
    suffix_mask = wall.cell_graph.face_set(0, 0)
    bs = wall.block_size
    from .geometry import cell_box

    prefix_flag = np.array(
        [cell_box(wall.spec, p).corner[0] == 0 for p in wall.prefixes]
    )
    return np.repeat(prefix_flag, bs) & np.tile(suffix_mask, len(wall.prefixes))


def fiber_distribution(wall: WallGraph, cell_vertex: int) -> np.ndarray:
    """Uniform start distribution over the fold fiber of a level-n vertex."""
    mask = wall.fold == cell_vertex
    if not mask.any():
        raise SpecError("empty fold fiber")
    return mask.astype(np.float64) / mask.sum()


def wall_hitting_report(wall_kernel: WalkKernel, *, paths: int, seed: int,
                        horizon: int, workers: int = 1,
                        start=None) -> dict:
    """Exact and Monte Carlo analysis of hitting the wall's bottom layer.

    Tracks the folded oscillation times alongside the bottom-hit time and
    reports the Wilson 95% lower bound for P(hit before the (k^m+1)-th
    folded oscillation), to be compared against (1/55)^(k^m+1).  ``workers``
    is accepted and ignored, as in :func:`simulate`.
    """
    wall = wall_kernel.wall
    spec = wall.spec
    bottom = wall_bottom_mask(wall)
    exact = mean_hitting(wall_kernel, bottom)
    cg = wall.cell_graph
    mask0 = cg.face_set(0, 0)[wall.fold]
    mask1 = cg.face_set(0, 1)[wall.fold]
    need = spec.k**wall.m + 1
    if start is None:
        # default start: fiber over the far face, the hardest folded layer
        far = int(np.nonzero(cg.face_set(0, 1))[0][0])
        start = fiber_distribution(wall, far)
    sim = simulate(wall_kernel, start, paths=paths, horizon=horizon,
                   seed=seed, targets={"bottom": bottom}, oscillation=(mask0, mask1),
                   max_osc=need)
    tau = sim.first_hits["bottom"]
    t_need = sim.osc_times[:, need - 1]
    hit = tau >= 0
    osc_done = t_need >= 0
    success = (hit & ~osc_done) | (hit & osc_done & (tau <= t_need))
    s = int(success.sum())
    lower = wilson_lower_bound(s, paths)
    threshold = (1.0 / 55.0) ** need
    return {
        "exact_mean": exact.exact,
        "paths": paths,
        "successes": s,
        "estimate": s / paths,
        "wilson_lower": lower,
        "threshold": threshold,
        "pass": bool(lower >= threshold),
        "simulation": sim,
    }

