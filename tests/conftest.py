import heapq
import math
import random

import pytest
from hypothesis import strategies as st

from graphgrav import Distribution, GeodesicTable, GraphGravError, WeightedGraph, build_graph, edge_key
from graphgrav.errors import UnbalancedMass
from graphgrav.graph import _require_table
from graphgrav.transport import _require_unit_total

SSP_TOL = 1e-13


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
def connected_graphs(draw, lo=1e-6, hi=1e3):
    """Random connected graph on 2 to 9 vertices, a random spanning tree plus
    random chords, with lengths log-uniform in [lo, hi]."""
    n = draw(st.integers(2, 9))
    verts = [str(k) for k in range(n)]
    pairs = {(draw(st.integers(0, k - 1)), k) for k in range(1, n)}  # spanning tree
    index = st.integers(0, n - 1)
    for a, b in draw(st.lists(st.tuples(index, index), max_size=2 * n)):
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    log_length = st.floats(math.log(lo), math.log(hi))
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
    vertices i in string order and their neighbours j inside the region."""
    total = 0.0
    for i in sorted(region.boundary_vertices):
        ratio = teom_rho(g, setting, i)
        for j in g.neighbors(i):
            if j in region.vertices:
                total += ratio / setting[edge_key(i, j)] - 1.0
    return total


# ---------------------------------------------------------------------------
# successive-shortest-path min-cost flow (uncapacitated)


def wasserstein_oracle(g: WeightedGraph, geo: GeodesicTable, mu: Distribution, nu: Distribution) -> float:
    """Same optimum as :func:`wasserstein`, via successive shortest paths on
    the bipartite graph of the full, un-netted supports with costs from
    ``geo.dist``.  It shares only the input checks of ``wasserstein``; kept
    structurally independent for testing."""
    _require_table(g, geo)
    _require_unit_total(sum(mu.mass.values()))
    _require_unit_total(sum(nu.mass.values()))
    sources, sinks = mu.support, nu.support
    supply, demand = [mu(v) for v in sources], [nu(v) for v in sinks]
    n_src = len(sources)
    arcs = []
    for a, u in enumerate(sources):
        for b, v in enumerate(sinks):
            arcs.append((a, n_src + b, geo.dist(u, v)))
    total, _, _ = _min_cost_flow(n_src + len(sinks), arcs, supply + [-m for m in demand])
    return total


def _min_cost_flow(n_nodes, arcs, supply):
    """Uncapacitated min-cost flow with nonnegative arc costs.

    ``arcs`` is a list of (tail, head, cost).  ``supply`` holds the net mass
    each node must send (positive) or absorb (negative).  Returns
    (total_cost, flows, potentials); flows are keyed by arc index.
    """
    adj = [[] for _ in range(n_nodes)]
    for k, (a, b, c) in enumerate(arcs):
        adj[a].append((k, b, c, +1))  # forward
        adj[b].append((k, a, -c, -1))  # backward, usable while flow > 0
    flow = [0.0] * len(arcs)
    pot = [0.0] * n_nodes
    excess = list(supply)
    inf = float("inf")
    for _ in range(4 * (n_nodes + len(arcs)) + 16):
        s = max(range(n_nodes), key=lambda k: excess[k])
        if excess[s] <= SSP_TOL:
            break
        dist = [inf] * n_nodes
        prev_arc = [None] * n_nodes
        dist[s] = 0.0
        heap = [(0.0, s)]
        seen = [False] * n_nodes
        while heap:
            d, x = heapq.heappop(heap)
            if seen[x]:
                continue
            seen[x] = True
            for k, y, c, sign in adj[x]:
                if sign < 0 and flow[k] <= 0.0:
                    continue
                rc = c + pot[x] - pot[y]
                if rc < 0.0:
                    rc = 0.0  # float dust; reduced costs are nonnegative
                nd = d + rc
                if nd < dist[y]:
                    dist[y] = nd
                    prev_arc[y] = (k, x, sign)
                    heapq.heappush(heap, (nd, y))
        t = None
        best = inf
        for k in range(n_nodes):
            if excess[k] < 0.0 and dist[k] < best:
                best = dist[k]
                t = k
        if t is None:
            if any(excess[k] < -10.0 * SSP_TOL for k in range(n_nodes)):
                raise UnbalancedMass("flow problem is infeasible")
            break  # only rounding dust remains
        for k in range(n_nodes):
            pot[k] += dist[k] if dist[k] < best else best
        # path capacity limited only by the backward arcs traversed
        amount = min(excess[s], -excess[t])
        node = t
        while node != s:
            k, x, sign = prev_arc[node]
            if sign < 0:
                amount = min(amount, flow[k])
            node = x
        node = t
        while node != s:
            k, x, sign = prev_arc[node]
            flow[k] += sign * amount
            node = x
        excess[s] -= amount
        excess[t] += amount
    if max(excess) > 10.0 * SSP_TOL:
        raise RuntimeError("min-cost flow failed to route all mass")
    total = sum(f * arcs[k][2] for k, f in enumerate(flow) if f > 0.0)
    return total, flow, pot


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
