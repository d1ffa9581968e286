"""Shared fixtures: one lab per session so graphs/kernels build once."""

import numpy as np
import pytest

import carpetlab as cl
from carpetlab.bricks import BrickWorkspace
from carpetlab.cellgraph import build_graph, build_wall
from carpetlab.spectral import poincare_constant
from carpetlab.walks import build_kernel, build_wall_kernel


class Lab:
    """Lazy per-spec cache of graphs, kernels, walls and constants."""

    def __init__(self, spec):
        self.spec = spec
        self.graphs = {}
        self.kernels = {}
        self.walls = {}
        self.wall_kernels = {}
        self.lams = {}
        self.ws = BrickWorkspace(spec, graphs=self.graphs)

    def graph(self, n):
        if n not in self.graphs:
            self.graphs[n] = build_graph(self.spec, n)
        return self.graphs[n]

    def kernel(self, n):
        if n not in self.kernels:
            self.kernels[n] = build_kernel(self.graph(n))
        return self.kernels[n]

    def wall(self, m, n):
        if (m, n) not in self.walls:
            self.walls[(m, n)] = build_wall(self.spec, m, n,
                                            cell_graph=self.graph(n))
        return self.walls[(m, n)]

    def wall_kernel(self, m, n):
        if (m, n) not in self.wall_kernels:
            self.wall_kernels[(m, n)] = build_wall_kernel(self.wall(m, n))
        return self.wall_kernels[(m, n)]

    def lam(self, n):
        if n not in self.lams:
            self.lams[n] = poincare_constant(self.graph(n)).value
        return self.lams[n]


@pytest.fixture(scope="session")
def spec26():
    return cl.builtin_spec("carpet26")


@pytest.fixture(scope="session")
def menger():
    return cl.builtin_spec("menger")


@pytest.fixture(scope="session")
def lab(spec26):
    return Lab(spec26)


class ToyGraph:
    """Minimal graph object (CSR edges) for solver unit tests."""

    n = 1  # a level-1 graph: no coarse word level, so its solves use Jacobi

    def __init__(self, n, edges):
        import scipy.sparse as sp

        rows, cols = [], []
        for u, v in edges:
            rows += [u, v]
            cols += [v, u]
        adj = sp.csr_matrix(
            (np.ones(len(rows)), (rows, cols)), shape=(n, n)
        )
        adj.sum_duplicates()
        adj.data[:] = 1.0
        self._adj = adj
        self.indptr = adj.indptr
        self.indices = adj.indices

    @property
    def num_vertices(self):
        return self._adj.shape[0]

    def adjacency(self):
        return self._adj

    def neighbors(self, u):
        return self.indices[self.indptr[u]:self.indptr[u + 1]]


@pytest.fixture(scope="session")
def graph_of(lab):
    """Graph of a bundled config by name and level, built once per session."""
    graphs = {}

    def get(name, n):
        if name == "carpet26":
            return lab.graph(n)
        if (name, n) not in graphs:
            graphs[name, n] = build_graph(cl.builtin_spec(name), n)
        return graphs[name, n]

    return get


@pytest.fixture
def toy():
    return ToyGraph
