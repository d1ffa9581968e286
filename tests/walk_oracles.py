"""Sort-key references that tests compare the CSR kernel code against.

``build_kernel_by_sort`` and ``build_wall_kernel_by_sort`` assemble a kernel
by one stable ``argsort`` of the global ``row*V + col`` keys of its entries.
``reversibility_by_search`` meets each entry's transpose through
``searchsorted`` on those keys, and ``max_group_sum_by_product`` sums each
group of fractions on its lcm from a separate numerator array.  They are the
code that ``carpetlab.walks`` used before its exact path worked on the CSR
arrays, and none is used by the package.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from carpetlab.cellgraph import walk_measure
from carpetlab.walks import WalkKernel


def _assemble(rows_u, rows_v, rows_den, size):
    order = np.argsort(rows_u * size + rows_v, kind="stable")
    u, v, den = rows_u[order], rows_v[order], rows_den[order].astype(np.int64)
    indptr = np.searchsorted(u, np.arange(size + 1))
    return sp.csr_matrix((1.0 / den, v, indptr), shape=(size, size)), den


def build_kernel_by_sort(graph) -> WalkKernel:
    pi = walk_measure(graph)
    loops = np.flatnonzero(graph.boundary())
    rows = np.concatenate([np.repeat(np.arange(graph.num_vertices), graph.degrees),
                           loops])
    cols = np.concatenate([graph.indices, loops])
    P, den = _assemble(rows, cols, pi[rows], graph.num_vertices)
    return WalkKernel(kind="cell", n=graph.n, m=None, P=P, pi=pi, dens=den,
                      graph=graph)


def build_wall_kernel_by_sort(wall) -> WalkKernel:
    pi = wall.pi
    bs = wall.block_size
    shared = pi * (wall.outside_degree + 1)
    loops = np.flatnonzero(wall.cell_graph.boundary()[wall.fold])
    rows = np.repeat(np.arange(wall.num_vertices), np.diff(wall.indptr))
    dens = np.where(wall.indices // bs == rows // bs, pi[rows], shared[rows])
    P, den = _assemble(np.concatenate([rows, loops]),
                       np.concatenate([wall.indices, loops]),
                       np.concatenate([dens, shared[loops]]), wall.num_vertices)
    return WalkKernel(kind="wall", n=wall.n, m=wall.m, P=P, pi=pi, dens=den,
                      wall=wall)


def _exact_ints(bound, *arrays):
    dtype = np.int64 if bound < 2**63 else object
    return [np.asarray(a).astype(dtype) for a in arrays]


def _entries(kernel):
    indptr = kernel.P.indptr
    rows = np.repeat(np.arange(kernel.num_states), np.diff(indptr))
    return rows, kernel.P.indices.astype(np.int64), kernel.dens


def max_group_sum_by_product(starts, nums, dens) -> Fraction:
    """Exact max over groups of |sum nums/dens|, summed on each group's lcm."""
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


def stochasticity_by_product(kernel) -> Fraction:
    _, _, dens = _entries(kernel)
    indptr = kernel.P.indptr.astype(np.int64)
    filled = np.diff(indptr) > 0
    starts = indptr[:-1][filled]
    nums = np.ones(len(dens), dtype=np.int64)
    nums[starts] -= dens[starts]
    worst = max_group_sum_by_product(starts, nums, dens)
    return max(worst, Fraction(1)) if not filled.all() else worst


def reversibility_by_search(kernel) -> Fraction:
    rows, cols, dens = _entries(kernel)
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


def coupling_by_product(wall_kernel, cell_kernel) -> Fraction:
    fold = wall_kernel.wall.fold
    size = cell_kernel.num_states
    rows_w, cols_w, dens_w = _entries(wall_kernel)
    _, cols_c, dens_c = _entries(cell_kernel)
    pulled = sp.csr_matrix((dens_c, cols_c, cell_kernel.P.indptr),
                           shape=cell_kernel.P.shape)[fold]
    rows_c = np.repeat(np.arange(wall_kernel.num_states), np.diff(pulled.indptr))
    keys = np.concatenate([rows_w * size + fold[cols_w],
                           rows_c * size + pulled.indices])
    order = np.argsort(keys, kind="stable")
    starts = np.flatnonzero(np.diff(keys[order], prepend=-1))
    nums = np.where(order < len(rows_w), 1, -1)
    dens = np.concatenate([dens_w, pulled.data])[order]
    return max_group_sum_by_product(starts, nums, dens)
