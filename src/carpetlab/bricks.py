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
checks run over exact lifts of the stored values.  A brick keeps its exact
values as integer numerators over one common denominator, and every check
compares cross-multiplied integers.  Reflection symmetry of the solver
outputs is enforced bitwise by orbit averaging.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .cellgraph import (
    CellGraph,
    _digit_arrays,
    _scaled_geometry,
    build_graph,
    neighborhood,
    word_index,
    word_permutation,
)
from .geometry import (
    IfsSpec,
    SpecError,
    Word,
    axis_reflection,
    axis_swap,
    isometry_group,
    separation_constant,
)
from .spectral import (
    DEFAULT_OPTS,
    SolveOptions,
    dirichlet_energy,
    effective_resistance,
)


@dataclass
class BrickFunction:
    kind: str
    level: int
    domain: np.ndarray  # boolean mask over the level's vertices
    values: np.ndarray  # float64, 0 outside the domain
    num: np.ndarray | None  # Python ints, exact value num[u] / den; None for cutoffs
    den: int
    energy: float
    certificates: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        idx = np.nonzero(self.domain)[0]
        out = {
            "kind": self.kind,
            "level": self.level,
            "energy": self.energy,
            "certificates": self.certificates,
            "vertices": idx.tolist(),
            "values": self.values[idx].tolist(),
        }
        if self.num is not None:
            gcd = np.gcd(self.num[idx], self.den)
            out["values_exact"] = [
                f"{p}/{q}" for p, q in zip(self.num[idx] // gcd, self.den // gcd)
            ]
        return out


def _lift(x: np.ndarray) -> tuple[np.ndarray, int]:
    """Exact (num, den) of a float array: x == num / den with den a power of 2."""
    mant, exp = np.frexp(x)
    exp = exp.astype(np.int64) - 53
    low = min(int(exp.min()), 0)
    num = (mant * 2.0**53).astype(np.int64).astype(object)
    return num << (exp - low).astype(object), 1 << -low


def _floats(num: np.ndarray, den: int) -> np.ndarray:
    """num / den as float64, each entry correctly rounded (int true division)."""
    return (num / den).astype(np.float64)


def _common(num_a: np.ndarray, den_a: int, num_b: np.ndarray, den_b: int):
    """(num_a', num_b', den): both numerator arrays over one common denominator."""
    den = math.lcm(den_a, den_b)
    return num_a * (den // den_a), num_b * (den // den_b), den


def _require(ok: np.ndarray, where: np.ndarray, message: str) -> None:
    """Raise SpecError naming the entry of ``where`` at the first False of ``ok``."""
    bad = np.flatnonzero(~ok)
    if len(bad):
        raise SpecError(message.format(where.ravel()[bad[0]]))


def orbit_symmetrize(graph: CellGraph, f: np.ndarray, axis: int) -> np.ndarray:
    """Average f over the word action of the isometries fixing the x_axis direction.

    These are the 8 signed permutations of the other two axes.  The
    per-vertex average is computed over the sorted orbit multiset, so the
    result is bitwise constant along orbits (exact symmetry certificates rely
    on this).
    """
    group = [g for g in isometry_group() if g.perm[axis] == axis and not g.flip[axis]]
    images = np.stack([word_permutation(graph, g) for g in group])
    vals = f[images]  # (|G|, V)
    vals.sort(axis=0)
    return vals.sum(axis=0) / len(group)


def _pinned_harmonic(graph: CellGraph, zero_mask, one_mask, axis: int,
                     opts: SolveOptions) -> np.ndarray:
    """Energy minimizer with the given 0/1 boundary data, symmetrized about ``axis``.

    The minimizer takes values in [0, 1] (maximum principle), so the solver's
    rounding outside that range is clipped away.
    """
    f = effective_resistance(graph, zero_mask, one_mask, opts).potential
    f = np.clip(orbit_symmetrize(graph, f, axis), 0.0, 1.0)
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
        self._harmonic: dict[tuple[int, bool], np.ndarray] = {}
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

    def harmonic(self, m: int, slab: bool = False) -> np.ndarray:
        """h on level m, or h' with ``slab``, each solved on first use.

        h is 0 on the x1=0 face and 1 on the x1=1 face; h' is 0 on the whole
        bottom-x3 slab and 1 on the x3=1 face.  Both come back bitwise
        symmetric under the reflections fixing their boundary data.  A ramp
        needs h' only one level down, so the two are cached apart.
        """
        if (m, slab) not in self._harmonic:
            g = self.graph(m)
            zero, one, axis = ((bottom_slab_mask(g), g.face_set(2, 1), 2) if slab
                               else (g.face_set(0, 0), g.face_set(0, 1), 0))
            self._harmonic[(m, slab)] = _pinned_harmonic(g, zero, one, axis, self.opts)
        return self._harmonic[(m, slab)]

    def ramp(self, m: int) -> BrickFunction:
        if m not in self._ramps:
            self._ramps[m] = build_ramp(self, m)
        return self._ramps[m]

    def boundary_linear(self, n: int) -> BrickFunction:
        if n not in self._boundary_linear:
            self._boundary_linear[n] = build_boundary_linear(self, n)
        return self._boundary_linear[n]


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
    h_m = ws.harmonic(m)

    if m == 1:
        num, den = _lift(np.where(domain, h_m, 0.0))
    else:
        h_prev, hp_prev = ws.harmonic(m - 1), ws.harmonic(m - 1, slab=True)
        u = np.flatnonzero(domain)
        first, w = np.divmod(u, spec.N ** (m - 1))
        # one power-of-two denominator D for the three minimizers; the x1
        # corner of digit i is a[i] / (k L)
        lifted, D = _lift(np.concatenate([h_m[u], hp_prev[w], h_prev[w]]))
        h, hw, hprev = lifted.reshape(3, len(u))
        digit_corners, _, L = _scaled_geometry(spec, 1)
        a = digit_corners[first, 0].astype(object)
        # h hw + (a / (k L) + hprev / (k D)) (1 - hw), over k L D^2
        num = np.zeros(graph.num_vertices, dtype=object)
        num[u] = h * hw * (spec.k * L) + (a * D + hprev * L) * (D - hw)
        den = spec.k * L * D * D

    values = _floats(num, den)
    energy = dirichlet_energy(graph, values, subset=domain)
    brick = BrickFunction(
        kind="ramp", level=m, domain=domain, values=values, num=num, den=den,
        energy=energy,
    )
    _certify_ramp(ws, brick)
    return brick


def _certify_ramp(ws: BrickWorkspace, brick: BrickFunction) -> None:
    spec = ws.spec
    m = brick.level
    graph = ws.graph(m)
    k = spec.k
    num, den = brick.num, brick.den
    u = np.flatnonzero(brick.domain)
    scale = graph.scale
    side = graph.side_scaled

    # (a) reflection symmetry in x2, range [0,1], pinned extremes
    v = word_permutation(graph, axis_reflection(1))[u]
    val = num[u]
    c0 = graph.corners[u, 0]
    _require(brick.domain[v] & (val == num[v]), u,
             "ramp symmetry certificate failed at vertex {}")
    _require((val >= 0) & (val <= den), u, "ramp range certificate failed at vertex {}")
    _require((c0 != 0) | (val == 0), u,
             "ramp zero-boundary certificate failed at vertex {}")
    _require((c0 + side != scale) | (val == den), u,
             "ramp one-boundary certificate failed at vertex {}")
    brick.certificates["symmetry_range_boundary"] = {"pass": True}

    # (c) one-step recursion on the top-x3 shelf of the second slab layer
    if m >= 2:
        prev = ws.ramp(m - 1)
        gp = ws.graph(m - 1)
        bot = np.array([i for i, c in enumerate(spec.cells) if c[2] == 0])
        # suffix must also end on the x3=1 side at its own depth
        w = np.flatnonzero(bottom_slab_mask(gp) & _top_shelf_mask(gp))
        target = bot[:, None] * spec.N ** (m - 1) + w
        digit_corners, _, L = _scaled_geometry(spec, 1)
        a = digit_corners[bot, 0].astype(object)[:, None]
        # num / den == a / (k L) + prev.num / (k prev.den), cross-multiplied
        want = (a * prev.den + prev.num[w] * L) * den
        _require(num[target] * (k * L * prev.den) == want, target,
                 "ramp recursion certificate failed at vertex {}")
        brick.certificates["recursion"] = {"pass": True, "checked": int(target.size)}

    # (d) exact grid-plane values l/k on the double-bottom slab
    if m >= 2:
        u = np.flatnonzero(bottom_slab_mask(graph, depth=2))
        ell = np.array([ell for ell in range(1, k) if ell * scale % k == 0])
        plane = ell * scale // k
        a_scaled = graph.corners[u, 0][:, None]
        rows, cols = np.nonzero((a_scaled == plane) | (a_scaled + side == plane))
        _require(num[u[rows]] * k == ell[cols].astype(object) * den, u[rows],
                 "ramp grid-plane certificate failed at vertex {}")
        brick.certificates["grid_planes"] = {"pass": True, "checked": len(rows)}


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

    seed = ws.harmonic(n)
    num, den = _lift(seed)
    vals = seed.copy()
    ladder = [dirichlet_energy(graph, seed)]
    overwrite_depth = np.zeros(count, dtype=np.int64)  # 0 = never overwritten

    bot3 = np.array([c[2] == 0 for c in spec.cells], dtype=bool)
    arrays = _digit_arrays(n, N, count)
    prefix_ok = np.ones(count, dtype=bool)
    for m in range(1, n + 1):
        # prefix: first m-1 digits on x3=0; tau: digit m-1 also on x3=0
        stage = prefix_ok & bot3[arrays[m - 1]]
        ramp = ws.ramp(n - m + 1)
        u = np.flatnonzero(stage)
        p, t = np.divmod(u, N ** (n - m + 1))
        # a_p + ramp / k^(m-1), where the prefix corner is a_p = corner / scale
        corner, scale, L = _scaled_geometry(spec, m - 1)
        num, stage_num, den = _common(
            num, den, corner[p, 0].astype(object) * ramp.den + ramp.num[t] * L,
            scale * ramp.den)
        num[u] = stage_num
        vals[u] = _floats(stage_num, den)
        overwrite_depth[u] = m
        prefix_ok = stage
        ladder.append(dirichlet_energy(graph, vals))

    # affine squeeze into [1/(2k^n), 1 - 1/(2k^n)]: x -> ((k^n - 1) x + 1/2) / k^n
    kn = k**n
    num = 2 * (kn - 1) * num + den
    den = 2 * kn * den

    # slice sandwich check: on the depth-(n-1) x3 shelf, the pre-snap
    # function must stay within half a cell of the linear envelope of the
    # length-(n-2) prefix; with a_p = c / (k^(n-2) L), all bounds are over
    # 2 k^n L
    sandwich = {"checked": 0, "pass": True}
    if n >= 2:
        u = np.flatnonzero(bottom_slab_mask(graph, depth=n - 1))
        corner, _, L = _scaled_geometry(spec, n - 2)
        c = corner[u // (N * N), 0].astype(object)
        x = num[u] * (2 * kn * L)
        _require(((2 * k * k * c - L) * den <= x)
                 & (x <= (2 * k * k * (c + L) + L) * den),
                 u, "pre-snap sandwich certificate failed at vertex {}")
        sandwich["checked"] = len(u)

    # snap the x3=0 face to the exact midpoints (2 corner + side) / (2 scale)
    scale, side = graph.scale, graph.side_scaled
    mid = (2 * graph.corners[:, 0] + side).astype(object)
    num, mid, den = _common(num, den, mid, 2 * scale)
    snap = graph.face_set(2, 0)
    num[snap] = mid[snap]

    # four-region reflection: assign each word to its nearest side face and
    # pull the value from the x3=0 branch through the matching reflection
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
    maps = np.stack([  # row r maps a region-r word to its x3=0 branch source
        word_permutation(graph, swap),
        word_permutation(graph, swap.compose(axis_reflection(1))),
        np.arange(count),  # the x3=0 region keeps the constructed branch
        word_permutation(graph, axis_reflection(2)),
    ])
    base = num
    num = base[maps[region, np.arange(count)]]

    values = _floats(num, den)
    energy = dirichlet_energy(graph, values)
    brick = BrickFunction(
        kind="boundary_linear", level=n, domain=np.ones(count, dtype=bool),
        values=values, num=num, den=den, energy=energy,
        meta={"energy_ladder": ladder, "region": region,
              "region_maps": maps, "ties": ties,
              "overwrite_depth": overwrite_depth, "pre_reflect": base},
    )
    brick.certificates["sandwich"] = sandwich
    _certify_midpoints(graph, brick)
    return brick


def _certify_midpoints(graph: CellGraph, brick: BrickFunction) -> None:
    """Border certificate: the exact midpoint value on every border word."""
    u = np.flatnonzero(graph.boundary())
    mid = (2 * graph.corners[u, 0] + graph.side_scaled).astype(object)
    _require(brick.num[u] * (2 * graph.scale) == mid * brick.den, u,
             "boundary-linear certificate failed at vertex {}")
    brick.certificates["boundary_midpoints"] = {"pass": True, "checked": len(u)}


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
    u = np.repeat(np.arange(graph.num_vertices), np.diff(graph.indptr))
    v = graph.indices
    cross = region[u] != region[v]
    u, v = u[cross], v[cross]
    own = maps[region[u], u]
    other = maps[region[v], u]
    delta = np.abs(base[own] - base[other])
    deep = (depth[own] == 0) & (depth[other] == 0) & ~snap[own] & ~snap[other]
    eff = np.maximum(np.maximum(depth[own], depth[other]), 1)[~deep]
    scaled = _floats(delta[~deep], brick.den) * ws.spec.k ** (eff - 1)
    return {"max_deep_mismatch": Fraction(delta[deep].max(initial=0), brick.den),
            "max_scaled_mismatch": float(scaled.max(initial=0.0))}


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

    # f along each axis: pull the x1-profile through the axis swap; f_num
    # holds the numerators over fn.den
    perm = np.stack([np.arange(bs)] + [word_permutation(gn, axis_swap(0, o))
                                       for o in (1, 2)])
    f_num, f_float = fn.num[perm], fn.values[perm]  # (3, bs)

    c_star = ws.c_star
    slope = math.sqrt(3.0) / float(c_star)

    w_idx = word_index(word, spec.N)
    nbhd = neighborhood(base_graph, w_idx, l_star)
    # offsets k^m (corner_p - corner_w) of every level-m prefix, over L
    corners, _, L = _scaled_geometry(spec, m)
    offset = corners - corners[w_idx]

    # plateau: every rational affine part must be >= 0 on the word's block
    t, o = np.nonzero(((f_num < 0) | (f_num > fn.den)).T)
    if len(t):
        raise SpecError(
            f"cutoff plateau certificate failed at {(w_idx, int(t[0]), int(o[0]))}")

    # support: an affine part q = Q / (den L) with Q < 0 and q^2 >= c*^2 / 3,
    # decided as 3 c_den^2 Q^2 >= c_num^2 (den L)^2
    f_scaled = f_num * L
    lhs = 3 * c_star.denominator**2
    rhs = (c_star.numerator * fn.den * L) ** 2

    values = np.empty(count)
    for p in range(spec.N**m):
        delta = offset[p][:, None]
        shift = delta / L
        lo = np.maximum(-1.0, slope * (f_float + shift))
        hi = np.maximum(-1.0, slope * (1.0 - f_float - shift))
        piece = np.minimum(lo, hi).min(axis=0)
        values[p * bs:(p + 1) * bs] = np.minimum(0.0, piece) + 1.0
        if not nbhd[p]:
            q1 = f_scaled + delta.astype(object) * fn.den
            q2 = fn.den * L - q1
            far = (((q1 < 0) & (lhs * q1 * q1 >= rhs))
                   | ((q2 < 0) & (lhs * q2 * q2 >= rhs)))
            bad = np.flatnonzero(~far.any(axis=0))
            if len(bad):
                raise SpecError(
                    f"cutoff support certificate failed at {(p, int(bad[0]))}; "
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
        num=None, den=1, energy=energy,
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
