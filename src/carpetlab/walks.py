"""Reversible random walks on cell graphs and walls.

Kernels are assembled exactly: every transition probability is 1/d for an
integer d recorded next to the float matrix, so stochasticity, detailed
balance and the wall-to-cell folding identity can be verified with zero
residual.  Kernels are built as arrays from the graph's CSR; the checks are
integer identities on common denominators, and ``Fraction`` values are formed
only where an identity fails, so a reported residual is the exact maximum.

The Monte Carlo engine draws each trajectory from its own counter-based
stream keyed by (master seed, trajectory index), which makes aggregates
independent of the worker count.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .cellgraph import CellGraph, WallGraph, walk_measure
from .geometry import SpecError
from .spectral import SolveOptions, DEFAULT_OPTS, SolveInfo, _solve_pd, dirichlet_energy

try:  # gmpy2 speeds up the exact solves considerably but is optional
    from gmpy2 import mpq as _mpq
except ImportError:  # pragma: no cover
    _mpq = Fraction


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

    # padded-row sampling tables, built lazily for the simulator
    _cum: np.ndarray | None = None
    _tgt: np.ndarray | None = None

    def kernel_hash(self) -> str:
        if self.graph is not None:
            spec_hash = self.graph.spec.spec_hash()
        elif self.wall is not None:
            spec_hash = self.wall.spec.spec_hash()
        else:
            spec_hash = "detached"
        payload = json.dumps(
            {"kind": self.kind, "n": self.n, "m": self.m,
             "spec": spec_hash}, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def sampling_tables(self) -> tuple[np.ndarray, np.ndarray]:
        if self._cum is None:
            indptr, indices, data = self.P.indptr, self.P.indices, self.P.data
            deg = np.diff(indptr)
            width = int(deg.max())
            rows = np.repeat(np.arange(self.num_states), deg)
            cols = np.arange(len(indices)) - indptr[rows]
            # row-wise running sums, the last column of each row and the
            # padding pinned to 1.0; padding targets repeat the last target
            cum = np.zeros((self.num_states, width), dtype=np.float64)
            cum[rows, cols] = data
            cum = np.cumsum(cum, axis=1)
            cum[np.arange(width) >= deg[:, None] - 1] = 1.0
            tgt = np.repeat(indices[indptr[1:] - 1].astype(np.int64)[:, None],
                            width, axis=1)
            tgt[rows, cols] = indices
            object.__setattr__(self, "_cum", cum)
            object.__setattr__(self, "_tgt", tgt)
        return self._cum, self._tgt


def _assemble(rows_u, rows_v, rows_den, size, pi, kind, n, m, graph, wall):
    order = np.argsort(rows_u * size + rows_v, kind="stable")
    u, v, den = rows_u[order], rows_v[order], rows_den[order].astype(np.int64)
    data = 1.0 / den
    indptr = np.searchsorted(u, np.arange(size + 1))
    P = sp.csr_matrix((data, v, indptr), shape=(size, size))
    return WalkKernel(kind=kind, n=n, m=m, P=P, pi=pi, dens=den,
                      graph=graph, wall=wall)


def build_kernel(graph: CellGraph) -> WalkKernel:
    """Nearest-neighbor walk on the level-n graph.

    From w: probability 1/pi(w) to each neighbor, plus a 1/pi(w) self-loop
    exactly when w is a border word (pi adds the +1 there).
    """
    pi = walk_measure(graph)
    loops = np.flatnonzero(graph.boundary())
    rows = np.concatenate([np.repeat(np.arange(graph.num_vertices), graph.degrees),
                           loops])
    cols = np.concatenate([graph.indices, loops])
    kernel = _assemble(rows, cols, pi[rows], graph.num_vertices, pi,
                       "cell", graph.n, None, graph, None)
    _check_rows_exact(kernel)
    return kernel


def build_wall_kernel(wall: WallGraph) -> WalkKernel:
    """Walk on the wall: block moves at full rate, cross-block and boundary
    self-loop moves shared across (outside_degree + 1) options."""
    pi = wall.pi
    bs = wall.block_size
    shared = pi * (wall.outside_degree + 1)
    loops = np.flatnonzero(wall.cell_graph.boundary()[wall.fold])
    rows = np.repeat(np.arange(wall.num_vertices), np.diff(wall.indptr))
    dens = np.where(wall.indices // bs == rows // bs, pi[rows], shared[rows])
    kernel = _assemble(np.concatenate([rows, loops]),
                       np.concatenate([wall.indices, loops]),
                       np.concatenate([dens, shared[loops]]),
                       wall.num_vertices, pi, "wall", wall.n, wall.m, None, wall)
    _check_rows_exact(kernel)
    return kernel


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


def _check_rows_exact(kernel: WalkKernel) -> None:
    res = stochasticity_residual(kernel)
    if res != 0:
        raise SpecError(f"kernel rows do not sum to 1 exactly (residual {res})")


def _exact_entries(kernel: WalkKernel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row, column, denominator) of every stored entry; denominators > 0."""
    if kernel.dens is None:
        raise SpecError("exact entries not available for this kernel kind")
    if (kernel.dens <= 0).any():
        raise SpecError("kernel denominators must be positive")
    indptr = kernel.P.indptr
    rows = np.repeat(np.arange(kernel.num_states), np.diff(indptr))
    return rows, kernel.P.indices.astype(np.int64), kernel.dens


def _exact_ints(bound: int, *arrays: np.ndarray) -> list[np.ndarray]:
    """The arrays as int64, or as Python ints when ``bound`` leaves int64."""
    dtype = np.int64 if bound < 2**63 else object
    return [np.asarray(a).astype(dtype) for a in arrays]


def _max_group_sum(starts: np.ndarray, nums: np.ndarray, dens: np.ndarray) -> Fraction:
    """Exact max over groups of |sum nums/dens|, summed on each group's lcm.

    Group g is entries starts[g]..starts[g+1]-1; denominators are positive.
    """
    if len(starts) == 0:
        return Fraction(0)
    size = np.diff(np.append(starts, len(dens)))
    big = int(size.max())
    bound = int(np.abs(nums).max()) * int(dens.max()) ** big * big
    nums, dens = _exact_ints(bound, nums, dens)
    common = np.lcm.reduceat(dens, starts)
    total = np.add.reduceat(nums * (np.repeat(common, size) // dens), starts)
    return max((abs(Fraction(int(total[g]), int(common[g])))
                for g in np.flatnonzero(total != 0)), default=Fraction(0))


def stochasticity_residual(kernel: WalkKernel) -> Fraction:
    """Max |row sum - 1| in exact arithmetic (0 for well-formed kernels).

    Each row is summed on the lcm of its denominators; the -1 rides on the
    first entry of the row.  An empty row has residual exactly 1.
    """
    _, _, dens = _exact_entries(kernel)
    indptr = kernel.P.indptr.astype(np.int64)
    filled = np.diff(indptr) > 0
    starts = indptr[:-1][filled]
    nums = np.ones(len(dens), dtype=np.int64)
    nums[starts] -= dens[starts]
    worst = _max_group_sum(starts, nums, dens)
    return max(worst, Fraction(1)) if not filled.all() else worst


def reversibility_residual(kernel: WalkKernel) -> Fraction:
    """Max |pi(u)P(u,v) - pi(v)P(v,u)| in exact arithmetic.

    Each entry meets its transpose through ``searchsorted`` on u*V+v keys and
    is compared as pi(u)*d_vu == pi(v)*d_uv.  Asymmetric support gives 1.
    """
    rows, cols, dens = _exact_entries(kernel)
    if len(dens) == 0:
        return Fraction(0)
    size = kernel.num_states
    keys = rows * size + cols
    order = np.argsort(keys, kind="stable")
    keys, transposed = keys[order], cols * size + rows
    pos = np.minimum(np.searchsorted(keys, transposed), len(keys) - 1)
    if (keys[pos] != transposed).any():
        return Fraction(1)  # asymmetric support
    back = order[pos]
    pi = np.asarray(kernel.pi)
    pi, d_uv = _exact_ints(2 * int(np.abs(pi).max()) * int(dens.max()), pi, dens)
    d_vu = d_uv[back]
    diff = pi[rows] * d_vu - pi[cols] * d_uv
    return max((abs(Fraction(int(diff[j]), int(d_uv[j]) * int(d_vu[j])))
                for j in np.flatnonzero(diff != 0)), default=Fraction(0))


def wall_conductances(kernel: WalkKernel) -> set[Fraction]:
    """Distinct off-diagonal conductance values pi(u)P(u,v) of a wall kernel."""
    rows, cols, dens = _exact_entries(kernel)
    off = rows != cols
    pairs = np.unique(np.stack([np.asarray(kernel.pi)[rows[off]], dens[off]]), axis=1)
    return {Fraction(int(p), int(d)) for p, d in pairs.T}


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
    # pushed wall entries (u, fold[v], +1/d) against the cell row fold[u]
    # pulled back to u as (u, v, -1/d); keys u*V+v group both sides
    rows_w, cols_w, dens_w = _exact_entries(wall_kernel)
    _, cols_c, dens_c = _exact_entries(cell_kernel)
    pulled = sp.csr_matrix((dens_c, cols_c, cell_kernel.P.indptr),
                           shape=cell_kernel.P.shape)[fold]
    rows_c = np.repeat(np.arange(wall_kernel.num_states), np.diff(pulled.indptr))
    keys = np.concatenate([rows_w * size + fold[cols_w],
                           rows_c * size + pulled.indices])
    order = np.argsort(keys, kind="stable")
    starts = np.flatnonzero(np.diff(keys[order], prepend=-1))
    nums = np.where(order < len(rows_w), 1, -1)
    dens = np.concatenate([dens_w, pulled.data])[order]
    worst = _max_group_sum(starts, nums, dens)
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
    """Expected steps to reach ``target`` from every state (killed solve)."""
    target = np.asarray(target, dtype=bool)
    if not target.any():
        raise SpecError("hitting target must be nonempty")
    h = np.zeros(kernel.num_states)
    free = ~target
    if free.any():
        # diag(pi)(I - P_ff) is symmetric because the kernel is reversible
        keep = np.nonzero(free)[0]
        pi = kernel.pi[keep].astype(np.float64)
        A = (sp.diags(pi) @ (sp.identity(len(keep)) - kernel.P[keep][:, keep])).tocsr()
        try:
            x, info = _solve_pd(A, pi, opts)
        except RuntimeError as exc:
            raise SpecError("hitting system is singular; target unreachable") from exc
        h[keep] = x
    else:
        info = SolveInfo("pinned", 0, 0.0)
    return HittingReport(target=target, exact=h, info=info)


def mean_hitting_exact_rational(kernel: WalkKernel, target: np.ndarray,
                                size_cap: int = 600) -> list[Fraction]:
    """Rational mean-hitting vector by sparse elimination (small systems).

    Oracle path for calibration: exact on graphs with at most ``size_cap``
    free states.
    """
    target = np.asarray(target, dtype=bool)
    free = np.nonzero(~target)[0]
    if len(free) > size_cap:
        raise SpecError(f"{len(free)} free states exceed exact-solve cap {size_cap}")
    pos = {int(g): i for i, g in enumerate(free)}
    indptr, indices, dens = kernel.P.indptr, kernel.P.indices, kernel.dens
    rows = []
    rhs = []
    for g in free:
        row = {pos[int(g)]: _mpq(1)}
        for j in range(indptr[g], indptr[g + 1]):
            v = int(indices[j])
            if v in pos:
                row[pos[v]] = row.get(pos[v], _mpq(0)) - _mpq(1, int(dens[j]))
        rows.append(row)
        rhs.append(_mpq(1))
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
                new = (cur if cur is not None else _mpq(0)) - factor * val
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
        out[g] = Fraction(int(sol[i].numerator), int(sol[i].denominator))
    return out


def killed_operator_report(kernel: WalkKernel, target: np.ndarray,
                           lam: float) -> dict:
    """Top eigenvalue s of the pi-symmetrized killed kernel and (1-s)*lam."""
    target = np.asarray(target, dtype=bool)
    free = np.nonzero(~target)[0]
    if len(free) == 0:
        return {"s": 0.0, "c2_empirical": lam}
    P_ff = kernel.P[free][:, free]
    sqrt_pi = np.sqrt(kernel.pi[free].astype(np.float64))
    S = sp.diags(sqrt_pi) @ P_ff @ sp.diags(1.0 / sqrt_pi)
    S = (S + S.T) * 0.5
    if S.shape[0] <= 2:
        vals = np.linalg.eigvalsh(S.toarray())
        s = float(vals[-1])
    else:
        s = float(spla.eigsh(S, k=1, which="LA",
                             return_eigenvectors=False)[0])
    return {"s": s, "c2_empirical": (1.0 - s) * lam}


def supnorm_report(kernel: WalkKernel, lam: float,
                   sample: list[int] | None = None) -> dict:
    """Estimate of the l2->linf norm of the kernel power at time [lam]+1.

    By reversibility the squared norm restricted to a start state u equals
    p_{2t}(u,u)/pi(u); the report maximizes over a start sample (an
    estimate, not an optimized bound) and compares against N^(-n/2) scaling.
    """
    t = int(lam) + 1
    size = kernel.num_states
    if sample is None:
        sample = list(range(0, size, max(1, size // 12)))
    PT = kernel.P.T.tocsr()
    worst = 0.0
    for u in sample:
        v = np.zeros(size)
        v[u] = 1.0
        for _ in range(2 * t):
            v = PT @ v
        worst = max(worst, math.sqrt(max(v[u], 0.0) / kernel.pi[u]))
    return {"time": t, "norm_estimate": worst,
            "scaled": worst * math.sqrt(size)}


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


def stacked_oscillation_bound(t: float, *, m: int, k: int,
                              c1: float = 1.0 / 27.0,
                              c2: float = 1.0,
                              block_success: float | None = None,
                              tol: float = 1e-12) -> float:
    """Series bound for the wall's bottom-hitting time in units of lam.

    The i-th folded oscillation window contributes the i-fold composition of
    the oscillation bound, weighted by the chance that the bottom layer has
    not been reached in any earlier batch of k^m + 1 oscillations (success
    rate per batch from the explicit layer-crossing constant 1/55 unless
    overridden).  The iterates stabilize at the fixed point of the bound, so
    the geometric remainder is summed in closed form once they do.
    """
    block = k**m + 1
    if block_success is None:
        block_success = (1.0 / 55.0) ** block
    if not 0 < block_success <= 1:
        raise SpecError("block success rate must be in (0, 1]")
    fail = 1.0 - block_success
    pref = c2 / (1.0 - fail)
    total = 0.0
    iterate = float(t)
    i = 0
    while True:
        total += pref * fail ** (i // block) * iterate
        nxt = oscillation_bound(min(iterate, 1.0), c1)
        if abs(nxt - iterate) < 1e-15 or i > 100_000:
            star = nxt
            break
        iterate = nxt
        i += 1
    # closed-form tail: sum over i' > i of fail^(i'//block) times the fixed
    # point; i'+1 = a*block + r splits the first partial batch off
    a, r = divmod(i + 1, block)
    if fail > 0:
        tail_weight = (block - r) * fail**a + block * fail ** (a + 1) / (1.0 - fail)
    else:
        tail_weight = (block - r) if a == 0 else 0.0
    total += pref * tail_weight * star
    return total


# ---------------------------------------------------------------------------
# Nash-type inequality report
# ---------------------------------------------------------------------------


def nash_exponent(spec, lams: dict[int, float]) -> float:
    """Smallest usable volume exponent >= d_H for the Nash check."""
    d_h = math.log(spec.N) / math.log(spec.k)
    req = d_h
    for n, lam in lams.items():
        need = (n * math.log(spec.N) + math.log(lam)) / (n * math.log(spec.k)) - 2.0
        req = max(req, need)
    return req


def nash_report(graph: CellGraph, kernel: WalkKernel, lam: float,
                kappa: float, *, samples: int = 48, seed: int = 7) -> dict:
    """Max over sample functions of LHS/RHS in the Nash inequality (C = 1)."""
    rng = np.random.default_rng(seed)
    pi = kernel.pi.astype(np.float64)
    count = graph.num_vertices
    n = graph.n
    vol = graph.spec.N ** (-2.0 * n / kappa)
    worst = 0.0
    for i in range(samples):
        kind = i % 3
        if kind == 0:
            f = rng.standard_normal(count)
        elif kind == 1:
            f = (rng.random(count) < rng.uniform(0.05, 0.5)).astype(float)
        else:
            f = rng.standard_normal(count)
            for _ in range(3):  # crude smoothing toward low modes
                f = kernel.P @ f
        l2 = float((f * f * pi).sum())
        l1 = float((np.abs(f) * pi).sum())
        if l1 <= 0 or l2 <= 0:
            continue
        lhs = l2 ** (1.0 + 2.0 / kappa)
        rhs = (lam * dirichlet_energy(graph, f) + l2) * vol * l1 ** (4.0 / kappa)
        worst = max(worst, lhs / rhs)
    return {"kappa": kappa, "empirical_c": worst}


# ---------------------------------------------------------------------------
# Monte Carlo engine
# ---------------------------------------------------------------------------


@dataclass
class SimulationResult:
    paths: int
    horizon: int
    seed: int
    workers: int
    first_hits: dict[str, np.ndarray]  # step index or -1 when censored
    osc_times: np.ndarray | None  # (paths, max_osc), -1 when censored
    start_states: np.ndarray


def _path_generator(seed: int, index: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _run_shard(kernel: WalkKernel, start, lo: int, hi: int, horizon: int,
               seed: int, masks: dict[str, np.ndarray],
               osc_masks, max_osc: int, out_first, out_osc, out_start,
               chunk: int = 256) -> None:
    cum, tgt = kernel.sampling_tables()
    width = cum.shape[1]
    count = hi - lo
    gens = [_path_generator(seed, lo + i) for i in range(count)]
    if np.isscalar(start):
        states = np.full(count, int(start), dtype=np.int64)
    elif len(np.atleast_1d(start)) == kernel.num_states and np.issubdtype(
            np.asarray(start).dtype, np.floating):
        cdf = np.cumsum(np.asarray(start, dtype=np.float64))
        cdf /= cdf[-1]
        draws = np.array([g.random() for g in gens])
        states = np.searchsorted(cdf, draws).astype(np.int64)
    else:
        states = np.asarray(start, dtype=np.int64)[lo:hi].copy()
    out_start[lo:hi] = states

    names = list(masks)
    first = {name: np.full(count, -1, dtype=np.int64) for name in names}
    osc = np.full((count, max_osc), -1, dtype=np.int64) if osc_masks else None
    phase = np.zeros(count, dtype=np.int64)

    def record(t: int, idx: np.ndarray, st: np.ndarray) -> None:
        for name in names:
            mask = masks[name]
            fresh = (first[name][idx] < 0) & mask[st]
            first[name][idx[fresh]] = t
        if osc is not None:
            m0, m1 = osc_masks
            while True:
                # re-check after each toggle: consecutive stopping times may
                # coincide when a state lies in both alternating sets
                undone = phase[idx] < max_osc
                cur = np.where(phase[idx] % 2 == 0, m0[st], m1[st])
                hit = undone & cur
                if not hit.any():
                    break
                rows = idx[hit]
                osc[rows, phase[rows]] = t
                phase[rows] += 1

    active = np.arange(count, dtype=np.int64)
    record(0, active, states)

    def done(idx):
        ok = np.ones(len(idx), dtype=bool)
        for name in names:
            ok &= first[name][idx] >= 0
        if osc is not None:
            ok &= phase[idx] >= max_osc
        return ok

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
        keep = ~done(active)
        active = active[keep]
    for name in names:
        out_first[name][lo:hi] = first[name]
    if osc is not None:
        out_osc[lo:hi] = osc


def simulate(kernel: WalkKernel, start, *, paths: int, horizon: int,
             seed: int, workers: int = 1,
             targets: dict[str, np.ndarray] | None = None,
             oscillation: tuple[np.ndarray, np.ndarray] | None = None,
             max_osc: int = 2) -> SimulationResult:
    """Run ``paths`` trajectories and record first-hit/oscillation times.

    ``targets`` maps names to vertex masks (first-hit times are recorded);
    ``oscillation`` gives the alternating pair of masks whose alternating
    hit times are collected up to ``max_osc``.  Results are bit-identical
    for any worker count at a fixed seed.
    """
    if horizon < 1:
        raise SpecError("horizon must be >= 1")
    targets = targets or {}
    out_first = {name: np.full(paths, -1, dtype=np.int64) for name in targets}
    out_osc = (np.full((paths, max_osc), -1, dtype=np.int64)
               if oscillation else None)
    out_start = np.zeros(paths, dtype=np.int64)
    bounds = np.linspace(0, paths, workers + 1).astype(int)
    jobs = [
        (lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo
    ]
    if len(jobs) <= 1:
        for lo, hi in jobs:
            _run_shard(kernel, start, lo, hi, horizon, seed, targets,
                       oscillation, max_osc, out_first, out_osc, out_start)
    else:
        kernel.sampling_tables()  # build once before threading
        with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
            futs = [
                pool.submit(_run_shard, kernel, start, lo, hi, horizon, seed,
                            targets, oscillation, max_osc, out_first, out_osc,
                            out_start)
                for lo, hi in jobs
            ]
            for f in futs:
                f.result()
    return SimulationResult(paths=paths, horizon=horizon, seed=seed,
                            workers=workers, first_hits=out_first,
                            osc_times=out_osc, start_states=out_start)


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
    folded oscillation), to be compared against (1/55)^(k^m+1).
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
                   seed=seed, workers=workers,
                   targets={"bottom": bottom}, oscillation=(mask0, mask1),
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


# ---------------------------------------------------------------------------
# optional trajectory log
# ---------------------------------------------------------------------------

TRAJ_MAGIC = b"CWLK"


def save_trajectories(path: str, kernel: WalkKernel, states: np.ndarray,
                      seed: int) -> None:
    """Compact binary trajectory log (header JSON + uint32 state matrix)."""
    meta = json.dumps({
        "seed": seed,
        "kernel": kernel.kernel_hash(),
        "paths": int(states.shape[0]),
        "steps": int(states.shape[1]),
    }).encode()
    with open(path, "wb") as f:
        f.write(TRAJ_MAGIC)
        f.write(struct.pack("<I", len(meta)))
        f.write(meta)
        f.write(states.astype(np.uint32).tobytes(order="C"))
