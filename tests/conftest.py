import math
import random

import pytest
from hypothesis import strategies as st

from graphgrav import GeodesicTable, GraphGravError, build_graph, edge_key


def random_connected_graph(rng, n, p=0.45, lo=0.5, hi=2.0):
    """Random connected graph with uniform lengths in [lo, hi]."""
    verts = [str(k) for k in range(n)]
    while True:
        edges = []
        for a in range(n):
            for b in range(a + 1, n):
                if rng.random() < p:
                    edges.append((verts[a], verts[b], rng.uniform(lo, hi)))
        try:
            return build_graph(verts, edges)
        except GraphGravError:
            continue


@st.composite
def connected_graphs(draw):
    """Random connected graph on 2 to 9 vertices, a random spanning tree plus
    random chords, with lengths log-uniform in [1e-6, 1e3]."""
    n = draw(st.integers(2, 9))
    verts = [str(k) for k in range(n)]
    pairs = {(draw(st.integers(0, k - 1)), k) for k in range(1, n)}  # spanning tree
    index = st.integers(0, n - 1)
    for a, b in draw(st.lists(st.tuples(index, index), max_size=2 * n)):
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    log_length = st.floats(math.log(1e-6), math.log(1e3))
    edges = [(verts[a], verts[b], math.exp(draw(log_length))) for a, b in sorted(pairs)]
    return build_graph(verts, edges)


def teom_rho(g, setting, i):
    """c_i/d_i, with c and d summed neighbour by neighbour."""
    inv = 0.0
    inv2 = 0.0
    for w in g.neighbors(i):
        ell = setting[edge_key(i, w)]
        inv += 1.0 / ell
        inv2 += 1.0 / (ell * ell)
    return inv / inv2


def teom_residual(g, setting, i, j):
    """Scalar tree equation of motion at the interior edge (i, j), the oracle
    for the array system in ``dynamics``:

        (c_i^2/d_i^2 + c_j^2/d_j^2) / P - c_i/d_i - c_j/d_j
    """
    ri = teom_rho(g, setting, i)
    rj = teom_rho(g, setting, j)
    return (ri * ri + rj * rj) / setting[edge_key(i, j)] - ri - rj


def nogo_sum(g, region, setting):
    """Scalar no-go indicator: (c_i/d_i)/P_ij - 1 summed over boundary
    vertices i in repr order and their neighbours j inside the region."""
    total = 0.0
    for i in sorted(region.boundary_vertices, key=repr):
        ratio = teom_rho(g, setting, i)
        for j in g.neighbors(i):
            if j in region.vertices:
                total += ratio / setting[edge_key(i, j)] - 1.0
    return total


@pytest.fixture
def line3():
    """Path a-b-c with unit lengths."""
    return build_graph(["a", "b", "c"], [("a", "b", 1.0), ("b", "c", 1.0)])


@pytest.fixture
def line3_geo(line3):
    return GeodesicTable(line3)


@pytest.fixture
def triangle_112():
    """Triangle with lengths 1, 1, 2; the long edge ties with the path."""
    return build_graph(
        ["a", "b", "c"], [("a", "b", 1.0), ("b", "c", 1.0), ("a", "c", 2.0)]
    )


@pytest.fixture
def rng():
    return random.Random(20240811)
