"""Certified building-brick functions on cell graphs.

Three constructions, each bundled with machine-checked certificates:

* ``ramp``: the recursive slab function that is 0 on the x1=0 side, 1 on the
  x1=1 side of the bottom-x3 slab, pinned to the grid planes;
* ``boundary_linear``: a function on the whole level whose border values are
  exactly the cell midpoints c_w, with energy comparable to N^n / lam_n;
* ``cutoff``: a plateau function that is 1 on a block and vanishes off the
  block's adapted neighborhood, certifying a resistance lower bound.

Dirichlet solves run in floats; every certified identity is arranged so that
it only mixes pinned (exactly 0/1) solver entries with rational data, and the
checks run over exact lifts of the stored values.  Reflection symmetry of the
solver outputs is enforced bitwise by orbit averaging.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .cellgraph import CellGraph, _digit_arrays, build_graph, word_index
from .geometry import (
    IfsSpec,
    Isometry,
    SpecError,
    Word,
    axis_reflection,
    axis_swap,
    cell_box,
    separation_constant,
)
from .cellgraph import neighborhood, word_permutation
from .spectral import (
    DEFAULT_OPTS,
    SolveOptions,
    dirichlet_energy,
    effective_resistance,
    laplacian,
    _solve_pd,
)


def axis_projections(spec: IfsSpec, word: Word) -> tuple[Fraction, Fraction, Fraction]:
    """(a, b, c): x1 extent endpoints and midpoint of the cell of ``word``."""
    box = cell_box(spec, word)
    a = box.corner[0]
    return a, a + box.side, a + box.side / 2


@dataclass
class BrickFunction:
    kind: str
    level: int
    domain: np.ndarray  # boolean mask over the level's vertices
    values: np.ndarray  # float64, 0 outside the domain
    exact: list  # Fraction per vertex (None outside the domain)
    energy: float
    certificates: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        idx = np.nonzero(self.domain)[0]
        out = {
            "kind": self.kind,
            "level": self.level,
            "energy": self.energy,
            "certificates": {
                k: {kk: vv for kk, vv in v.items() if kk != "witness_vertex"}
                for k, v in self.certificates.items()
            },
            "vertices": idx.tolist(),
            "values": [float(self.values[i]) for i in idx],
        }
        if all(self.exact[i] is not None for i in idx):
            out["values_exact"] = [
                f"{self.exact[i].numerator}/{self.exact[i].denominator}" for i in idx
            ]
        return out


def _subgroup(generators: list[Isometry]) -> list[Isometry]:
    seen = {(g.perm, g.flip): g for g in generators}
    frontier = list(seen.values())
    while frontier:
        nxt = []
        for g in frontier:
            for h in list(seen.values()):
                for comp in (g.compose(h), h.compose(g)):
                    key = (comp.perm, comp.flip)
                    if key not in seen:
                        seen[key] = comp
                        nxt.append(comp)
        frontier = nxt
    return list(seen.values())


def orbit_symmetrize(graph: CellGraph, f: np.ndarray,
                     generators: list[Isometry]) -> np.ndarray:
    """Average f over the word action of the generated subgroup.

    The per-vertex average is computed over the sorted orbit multiset, so the
    result is bitwise constant along orbits (exact symmetry certificates rely
    on this).
    """
    group = _subgroup(generators + [Isometry((0, 1, 2), (False, False, False))])
    images = np.stack([word_permutation(graph, g) for g in group])
    vals = f[images]  # (|G|, V)
    vals.sort(axis=0)
    return vals.sum(axis=0) / len(group)


def _pinned_harmonic(graph: CellGraph, zero_mask, one_mask,
                     sym: list[Isometry], opts: SolveOptions) -> np.ndarray:
    """Energy minimizer with the given 0/1 boundary data, orbit-symmetrized."""
    if (zero_mask & one_mask).any():
        raise SpecError("harmonic boundary sets overlap")
    f = np.zeros(graph.num_vertices)
    f[one_mask] = 1.0
    free = ~(zero_mask | one_mask)
    if free.any():
        L = laplacian(graph)
        keep = np.nonzero(free)[0]
        rhs = -(L[keep] @ f)
        x, _ = _solve_pd(L[keep][:, keep], rhs, opts)
        f[keep] = x
    if sym:
        f = orbit_symmetrize(graph, f, sym)
        f[zero_mask] = 0.0
        f[one_mask] = 1.0
    return f


def bottom_slab_mask(graph: CellGraph, axis: int = 2, depth: int = 1) -> np.ndarray:
    """Words whose first ``depth`` digits all touch the {x_axis = 0} face."""
    spec = graph.spec
    digit_ok = np.array([c[axis] == 0 for c in spec.cells], dtype=bool)
    count = graph.num_vertices
    mask = np.ones(count, dtype=bool)
    arrays = _digit_arrays(graph.n, spec.N, count)
    for j in range(depth):
        mask &= digit_ok[arrays[j]]
    return mask


class BrickWorkspace:
    """Caches graphs, harmonic pairs and the ramp ladder per carpet."""

    def __init__(self, spec: IfsSpec, opts: SolveOptions = DEFAULT_OPTS,
                 max_vertices: int = 500_000,
                 graphs: dict[int, CellGraph] | None = None):
        self.spec = spec
        self.opts = opts
        self.max_vertices = max_vertices
        self.graphs: dict[int, CellGraph] = graphs if graphs is not None else {}
        self._harmonic: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._ramps: dict[int, BrickFunction] = {}
        self._boundary_linear: dict[int, BrickFunction] = {}
        self._c_star: Fraction | None = None

    def graph(self, level: int) -> CellGraph:
        if level not in self.graphs:
            self.graphs[level] = build_graph(self.spec, level,
                                             max_vertices=self.max_vertices)
        return self.graphs[level]

    @property
    def c_star(self) -> Fraction:
        if self._c_star is None:
            self._c_star = separation_constant(self.spec)
        return self._c_star

    # -- harmonic pair ------------------------------------------------

    def harmonic_pair(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """(h, h') on level m: the opposite-face and slab-to-face minimizers.

        h is 0 on the x1=0 face and 1 on the x1=1 face; h' is 0 on the whole
        bottom-x3 slab and 1 on the x3=1 face.  Both come back bitwise
        symmetric under the reflections fixing their boundary data.
        """
        if m not in self._harmonic:
            g = self.graph(m)
            h = _pinned_harmonic(
                g, g.face_set(0, 0), g.face_set(0, 1),
                [axis_reflection(1), axis_reflection(2), axis_swap(1, 2)],
                self.opts,
            )
            hp = _pinned_harmonic(
                g, bottom_slab_mask(g), g.face_set(2, 1),
                [axis_reflection(0), axis_reflection(1), axis_swap(0, 1)],
                self.opts,
            )
            self._harmonic[m] = (h, hp)
        return self._harmonic[m]

    def ramp(self, m: int) -> BrickFunction:
        if m not in self._ramps:
            self._ramps[m] = build_ramp(self, m)
        return self._ramps[m]

    def boundary_linear(self, n: int) -> BrickFunction:
        if n not in self._boundary_linear:
            self._boundary_linear[n] = build_boundary_linear(self, n)
        return self._boundary_linear[n]


def _lift(x: float) -> Fraction:
    return Fraction(x)


def build_ramp(ws: BrickWorkspace, m: int) -> BrickFunction:
    """Level-m ramp on the bottom-x3 slab with certified linear traces.

    The construction blends the opposite-face minimizer into a rescaled copy
    of the previous ramp using the slab-to-face minimizer as the blending
    weight; all four certificates are checked exactly and a failure is a
    hard error naming the vertex.
    """
    if m < 1:
        raise SpecError("ramp level must be >= 1")
    spec = ws.spec
    graph = ws.graph(m)
    domain = bottom_slab_mask(graph)
    count = graph.num_vertices
    exact: list = [None] * count
    h_m, _ = ws.harmonic_pair(m)
    k = spec.k
    bs = spec.N ** (m - 1)

    if m == 1:
        for u in np.nonzero(domain)[0]:
            exact[u] = _lift(float(h_m[u]))
    else:
        _, hp_prev = ws.harmonic_pair(m - 1)
        h_prev = ws.harmonic_pair(m - 1)[0]
        a_digit = [c[0] for c in spec.cells]
        for u in np.nonzero(domain)[0]:
            i, w = divmod(int(u), bs)
            hw = _lift(float(hp_prev[w]))
            exact[u] = (
                _lift(float(h_m[u])) * hw
                + (a_digit[i] + _lift(float(h_prev[w])) / k) * (1 - hw)
            )

    values = np.zeros(count)
    for u in np.nonzero(domain)[0]:
        values[u] = float(exact[u])
    energy = dirichlet_energy(graph, values, subset=domain)
    brick = BrickFunction(
        kind="ramp", level=m, domain=domain, values=values, exact=exact,
        energy=energy,
    )
    _certify_ramp(ws, brick)
    return brick


def _certify_ramp(ws: BrickWorkspace, brick: BrickFunction) -> None:
    spec = ws.spec
    m = brick.level
    graph = ws.graph(m)
    k = spec.k
    domain_idx = np.nonzero(brick.domain)[0]
    scale = graph.scale
    side = graph.side_scaled

    # (a) reflection symmetry in x2, range [0,1], pinned extremes
    perm = word_permutation(graph, axis_reflection(1))
    for u in domain_idx:
        v = int(perm[u])
        if not brick.domain[v] or brick.exact[u] != brick.exact[v]:
            raise SpecError(f"ramp symmetry certificate failed at vertex {u}")
        val = brick.exact[u]
        if val < 0 or val > 1:
            raise SpecError(f"ramp range certificate failed at vertex {u}")
        c0 = int(graph.corners[u, 0])
        if c0 == 0 and val != 0:
            raise SpecError(f"ramp zero-boundary certificate failed at {u}")
        if c0 + side == scale and val != 1:
            raise SpecError(f"ramp one-boundary certificate failed at {u}")
    brick.certificates["symmetry_range_boundary"] = {"pass": True}

    # (c) one-step recursion on the top-x3 shelf of the second slab layer
    if m >= 2:
        prev = ws.ramp(m - 1)
        gp = ws.graph(m - 1)
        bs = spec.N ** (m - 1)
        bot = [i for i, c in enumerate(spec.cells) if c[2] == 0]
        shelf = bottom_slab_mask(gp)  # domain of the previous ramp
        # suffix must also end on the x3=1 side at its own depth
        top_prev = _top_shelf_mask(gp)
        a_digit = [c[0] for c in spec.cells]
        checked = 0
        for i in bot:
            for w in np.nonzero(shelf & top_prev)[0]:
                u = i * bs + int(w)
                want = a_digit[i] + prev.exact[int(w)] / k
                if brick.exact[u] != want:
                    raise SpecError(f"ramp recursion certificate failed at {u}")
                checked += 1
        brick.certificates["recursion"] = {"pass": True, "checked": checked}

    # (d) exact grid-plane values l/k on the double-bottom slab
    if m >= 2:
        double = bottom_slab_mask(graph, depth=2)
        checked = 0
        for u in np.nonzero(double)[0]:
            a_scaled = int(graph.corners[u, 0])
            b_scaled = a_scaled + side
            for l in range(1, k):
                plane = l * scale // k
                if plane * k != l * scale:
                    continue
                if a_scaled == plane or b_scaled == plane:
                    if brick.exact[u] != Fraction(l, k):
                        raise SpecError(
                            f"ramp grid-plane certificate failed at {u}"
                        )
                    checked += 1
        brick.certificates["grid_planes"] = {"pass": True, "checked": checked}


def _top_shelf_mask(graph: CellGraph) -> np.ndarray:
    """Words of the bottom-x3 slab whose remaining digits stay on x3=1.

    For the level-(m-1) ramp domain this is the shelf where the slab-to-face
    minimizer is pinned to 1, i.e. first digit on x3=0 and the suffix word
    flush to the x3=1 face of the first digit's cell.
    """
    n = graph.n
    if n == 1:
        # single digit: the shelf needs the suffix condition vacuously
        return np.ones(graph.num_vertices, dtype=bool)
    spec = graph.spec
    top_digit = np.array(
        [c[2] + Fraction(1, spec.k) == 1 for c in spec.cells], dtype=bool
    )
    count = graph.num_vertices
    arrays = _digit_arrays(n, spec.N, count)
    mask = np.ones(count, dtype=bool)
    for j in range(1, n):
        mask &= top_digit[arrays[j]]
    return mask


# ---------------------------------------------------------------------------
# boundary-linear brick
# ---------------------------------------------------------------------------


def build_boundary_linear(ws: BrickWorkspace, n: int) -> BrickFunction:
    """Level-n function equal to the cell midpoint c_w on every border word.

    Seeded by the opposite-face minimizer, then layer-by-layer overwritten
    with rescaled ramps on the x3-bottom slabs, affinely squeezed, snapped to
    c_w on the bottom face and finally reflected into the four side regions.
    """
    if n < 1:
        raise SpecError("boundary-linear level must be >= 1")
    spec = ws.spec
    graph = ws.graph(n)
    count = graph.num_vertices
    k = spec.k
    N = spec.N

    seed = ws.harmonic_pair(n)[0]
    exact: list = [_lift(float(x)) for x in seed]
    ladder = [dirichlet_energy(graph, seed)]
    overwrite_depth = np.zeros(count, dtype=np.int64)  # 0 = never overwritten

    bot3 = np.array([c[2] == 0 for c in spec.cells], dtype=bool)
    arrays = _digit_arrays(n, N, count)
    prefix_ok = np.ones(count, dtype=bool)
    for m in range(1, n + 1):
        # prefix: first m-1 digits on x3=0; tau: digit m-1 also on x3=0
        stage = prefix_ok & bot3[arrays[m - 1]]
        ramp = ws.ramp(n - m + 1)
        suffix_size = N ** (n - m + 1)
        prefix_size = N ** (m - 1)
        shift = Fraction(1, k ** (m - 1))
        prefix_a: dict[int, Fraction] = {}
        for u in np.nonzero(stage)[0]:
            p, t = divmod(int(u), suffix_size)
            a_p = prefix_a.get(p)
            if a_p is None:
                a_p = cell_box(spec,
                               _index_word_cached(p, m - 1, N)).corner[0]
                prefix_a[p] = a_p
            exact[u] = a_p + ramp.exact[t] * shift
            overwrite_depth[u] = m
        prefix_ok = stage
        vals = np.array([float(x) for x in exact])
        ladder.append(dirichlet_energy(graph, vals))

    # affine squeeze into [1/(2k^n), 1 - 1/(2k^n)]
    kn = Fraction(k) ** n
    lo = 1 / (2 * kn)
    slope = (kn - 1) / kn
    exact = [slope * x + lo for x in exact]

    # slice sandwich check: on the depth-(n-1) x3 shelf, the pre-snap
    # function must stay within half a cell of the linear envelope of the
    # length-(n-2) prefix
    sandwich = {"checked": 0, "pass": True}
    if n >= 2:
        shelf = bottom_slab_mask(graph, depth=n - 1)
        halfcell = 1 / (2 * kn)
        pref_span = Fraction(1, k ** (n - 2))
        pref_size = N * N
        pref_corner: dict[int, Fraction] = {}
        for u in np.nonzero(shelf)[0]:
            p = int(u) // pref_size
            a_p = pref_corner.get(p)
            if a_p is None:
                a_p = cell_box(spec, _index_word_cached(p, n - 2, N)).corner[0]
                pref_corner[p] = a_p
            if not (a_p - halfcell <= exact[u] <= a_p + pref_span + halfcell):
                sandwich = {"checked": sandwich["checked"], "pass": False,
                            "witness_vertex": int(u)}
                break
            sandwich["checked"] += 1
    if not sandwich["pass"]:
        raise SpecError("pre-snap sandwich certificate failed")

    # snap the x3=0 face to the exact midpoints
    snap_mask = graph.face_set(2, 0)
    mid = _midpoints(graph)
    for u in np.nonzero(snap_mask)[0]:
        exact[u] = mid[u]

    # four-region reflection: assign each word to its nearest side face and
    # pull the value from the x3=0 branch through the matching reflection
    scale, side = graph.scale, graph.side_scaled
    c1 = graph.corners[:, 1]
    c2 = graph.corners[:, 2]
    dists = np.stack([
        c1,                       # x2 = 0 face
        scale - (c1 + side),      # x2 = 1 face
        c2,                       # x3 = 0 face
        scale - (c2 + side),      # x3 = 1 face
    ])
    region = np.argmin(dists, axis=0)  # ties go to the smallest (axis, side)
    ties = int((np.sum(dists == dists[region, np.arange(count)], axis=0) > 1).sum())

    swap = axis_swap(1, 2)
    maps = {
        2: None,  # x3=0 region keeps the constructed branch
        3: word_permutation(graph, axis_reflection(2)),
        0: word_permutation(graph, swap),
        1: word_permutation(graph, swap.compose(axis_reflection(1))),
    }
    base = list(exact)
    for reg, perm in maps.items():
        if perm is None:
            continue
        for u in np.nonzero(region == reg)[0]:
            exact[u] = base[int(perm[u])]

    values = np.array([float(x) for x in exact])
    energy = dirichlet_energy(graph, values)
    brick = BrickFunction(
        kind="boundary_linear", level=n, domain=np.ones(count, dtype=bool),
        values=values, exact=exact, energy=energy,
        meta={"energy_ladder": ladder, "region": region,
              "region_maps": maps, "ties": ties,
              "overwrite_depth": overwrite_depth, "pre_reflect": base},
    )
    brick.certificates["sandwich"] = sandwich

    # border certificate: exact midpoint values on every border word
    bdry = graph.boundary()
    for u in np.nonzero(bdry)[0]:
        if exact[u] != mid[u]:
            raise SpecError(
                f"boundary-linear certificate failed at vertex {u}"
            )
    brick.certificates["boundary_midpoints"] = {
        "pass": True, "checked": int(bdry.sum())
    }
    return brick


_INDEX_WORD_CACHE: dict = {}


def _index_word_cached(idx: int, length: int, N: int) -> Word:
    key = (idx, length, N)
    w = _INDEX_WORD_CACHE.get(key)
    if w is None:
        from .cellgraph import index_word

        w = index_word(idx, length, N)
        _INDEX_WORD_CACHE[key] = w
    return w


def _midpoints(graph: CellGraph) -> list:
    scale, side = graph.scale, graph.side_scaled
    return [
        Fraction(int(c), scale) + Fraction(side, 2 * scale)
        for c in graph.corners[:, 0]
    ]


def region_coherence_report(ws: BrickWorkspace, brick: BrickFunction) -> dict:
    """Branch disagreement where the four reflection regions meet.

    For every vertex with a neighbor in another region, compares its value
    against what the neighbor's branch would assign there.  Deep (never
    overwritten) vertices must agree exactly; overwritten ones may differ by
    the span of their overwrite stage, reported as max |delta| * k^(depth-1).
    """
    graph = ws.graph(brick.level)
    region = brick.meta["region"]
    maps = brick.meta["region_maps"]
    depth = brick.meta["overwrite_depth"]
    base = brick.meta["pre_reflect"]
    snap = graph.face_set(2, 0)
    k = ws.spec.k
    worst_deep = Fraction(0)
    worst_scaled = 0.0
    u_arr = np.repeat(np.arange(graph.num_vertices), np.diff(graph.indptr))
    v_arr = graph.indices
    cross = region[u_arr] != region[v_arr]
    for u, v in zip(u_arr[cross].tolist(), v_arr[cross].tolist()):
        own = maps[int(region[u])]
        other = maps[int(region[v])]
        img_self = u if own is None else int(own[u])
        img_other = u if other is None else int(other[u])
        delta = abs(base[img_self] - base[img_other])
        deep = (depth[img_self] == 0 and depth[img_other] == 0
                and not snap[img_self] and not snap[img_other])
        if deep:
            worst_deep = max(worst_deep, delta)
        else:
            eff = max(int(depth[img_self]), int(depth[img_other]), 1)
            worst_scaled = max(worst_scaled, float(delta) * k ** (eff - 1))
    return {"max_deep_mismatch": worst_deep, "max_scaled_mismatch": worst_scaled}


# ---------------------------------------------------------------------------
# cutoff brick
# ---------------------------------------------------------------------------


def build_cutoff(ws: BrickWorkspace, word: Word, n: int, l_star: int,
                 opts: SolveOptions | None = None) -> BrickFunction:
    """Plateau function: 1 on word.W_n, 0 off the adapted neighborhood.

    Six clipped affine pieces (one per axis and direction) with slope
    sqrt(3)/c_star are combined by min and shifted; the plateau and support
    certificates are decided exactly by comparing the rational affine parts
    against c_star/sqrt(3) via squares.
    """
    opts = opts or ws.opts
    spec = ws.spec
    m = len(word)
    if m < 1:
        raise SpecError("cutoff word must be nonempty")
    level = m + n
    graph = ws.graph(level)
    base_graph = ws.graph(m)
    fn = ws.boundary_linear(n)
    gn = ws.graph(n)
    count = graph.num_vertices
    bs = spec.N**n

    # f along each axis: pull the x1-profile through the axis swap
    f_axis = []
    for o in range(3):
        if o == 0:
            perm = np.arange(gn.num_vertices)
        else:
            perm = word_permutation(gn, axis_swap(0, o))
        f_axis.append([fn.exact[int(perm[t])] for t in range(gn.num_vertices)])

    c_star = ws.c_star
    slope = math.sqrt(3.0) / float(c_star)
    thr_sq = c_star * c_star / 3  # (c*/sqrt(3))^2, for exact sign decisions

    w_idx = word_index(word, spec.N)
    nbhd = neighborhood(base_graph, w_idx, l_star)
    w_corner = cell_box(spec, word).corner
    km = Fraction(spec.k) ** m

    values = np.empty(count)
    prefix_words = [
        _index_word_cached(p, m, spec.N) for p in range(spec.N**m)
    ]
    fo_float = [np.array([float(x) for x in f_axis[o]]) for o in range(3)]
    plateau_fail = support_fail = None
    for p, pw in enumerate(prefix_words):
        corner = cell_box(spec, pw).corner
        delta = [km * (corner[o] - w_corner[o]) for o in range(3)]
        deltaf = [float(d) for d in delta]
        block = slice(p * bs, (p + 1) * bs)
        pieces = np.empty((6, bs))
        for o in range(3):
            fo = fo_float[o]
            pieces[2 * o] = np.maximum(-1.0, slope * (fo + deltaf[o]))
            pieces[2 * o + 1] = np.maximum(-1.0, slope * (1.0 - fo - deltaf[o]))
        values[block] = np.minimum(0.0, pieces.min(axis=0)) + 1.0

        if p == w_idx:
            # plateau: every rational affine part must be >= 0 on the block
            for t in range(bs):
                for o in range(3):
                    if f_axis[o][t] < 0 or f_axis[o][t] > 1:
                        plateau_fail = (p, t, o)
        elif not nbhd[p]:
            # support: some affine part must be <= -c*/sqrt(3), exactly
            for t in range(bs):
                ok = False
                for o in range(3):
                    q1 = f_axis[o][t] + delta[o]
                    q2 = 1 - f_axis[o][t] - delta[o]
                    if (q1 < 0 and q1 * q1 >= thr_sq) or (
                            q2 < 0 and q2 * q2 >= thr_sq):
                        ok = True
                        break
                if not ok:
                    support_fail = (p, t)
                    break
            if support_fail:
                break

    if plateau_fail is not None:
        raise SpecError(f"cutoff plateau certificate failed at {plateau_fail}")
    if support_fail is not None:
        raise SpecError(
            f"cutoff support certificate failed at {support_fail}; "
            "check l_star/c_star"
        )

    # the exact certificates prove these values; pin them so float rounding
    # at the clip threshold cannot leak into the plateau or the support
    lo, hi = w_idx * bs, (w_idx + 1) * bs
    values[lo:hi] = 1.0
    outside = np.repeat(~nbhd, bs)
    values[outside] = 0.0
    energy = dirichlet_energy(graph, values)
    if values.min() < 0.0 or values.max() > 1.0:
        raise SpecError("cutoff range certificate failed")

    brick = BrickFunction(
        kind="cutoff", level=level,
        domain=np.ones(count, dtype=bool), values=values,
        exact=[None] * count, energy=energy,
        meta={"word": word, "n": n, "l_star": l_star},
    )
    brick.certificates["plateau"] = {"pass": True, "block": [lo, hi]}
    brick.certificates["support"] = {
        "pass": True, "outside_blocks": int((~nbhd).sum())
    }

    # resistance certificate: 1/energy lower-bounds the block resistance
    if outside.any():
        set_a = np.zeros(count, dtype=bool)
        set_a[lo:hi] = True
        res = effective_resistance(graph, set_a, outside, opts)
        ok = 1.0 / energy <= res.value * (1 + 1e-9)
        brick.certificates["resistance_lower_bound"] = {
            "pass": bool(ok),
            "bound": 1.0 / energy,
            "resistance": res.value,
        }
        if not ok:
            raise SpecError("cutoff resistance certificate failed")
    else:
        brick.certificates["resistance_lower_bound"] = {
            "pass": True, "bound": 1.0 / energy, "resistance": None,
        }
    return brick
