"""Vertex probability distributions and exact transportation costs.

Two independent solvers compute the same optimal cost: a dense transportation
simplex over the support-by-support geodesic cost matrix, started from a
least-cost basis (the primary path), and a successive-shortest-path min-cost
flow on the bipartite support graph (the verification oracle).  A third
formulation moves mass only along graph edges and doubles as the source of
1-Lipschitz dual potentials.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .errors import TOutOfRange, UnbalancedMass, UnknownVertex
from .graph import GeodesicTable, WeightedGraph, local_sums

MASS_TOL = 1e-12
FLOW_TOL = 1e-15


@dataclass(frozen=True)
class Distribution:
    """Sparse probability mass over vertices; masses sum to 1."""

    mass: dict

    def __post_init__(self):
        total = 0.0
        for v, m in self.mass.items():
            if m < -MASS_TOL:
                raise UnbalancedMass(f"negative mass {m} at {v!r}")
            total += m
        if abs(total - 1.0) > 1e-10:
            raise UnbalancedMass(f"masses sum to {total}, expected 1")

    @property
    def support(self):
        return tuple(sorted((v for v, m in self.mass.items() if m > 0), key=repr))

    def __call__(self, v):
        return self.mass.get(v, 0.0)


@dataclass(frozen=True)
class TransportPlan:
    """Optimal flows between two distributions and their total cost.

    ``source_potential``/``sink_potential`` are the simplex dual variables;
    they satisfy u_s + v_t <= cost(s, t) with equality on every cell that
    carries flow.
    """

    flows: dict
    cost: float
    source_potential: dict = field(default_factory=dict)
    sink_potential: dict = field(default_factory=dict)


def neighbor_distribution(g: WeightedGraph, geo: GeodesicTable, i, t: float) -> Distribution:
    """Lazy-walk distribution: keeps 1-t at i and spreads t over the neighbors
    proportionally to the inverse squared geodesic length."""
    if not 0.0 < t < 1.0:
        raise TOutOfRange(f"t must lie in (0, 1), got {t}")
    _, inv2 = local_sums(g, geo, i)
    mass = {i: 1.0 - t}
    for w in g.neighbors(i):
        p = geo.dist(i, w)
        mass[w] = mass.get(w, 0.0) + t / (p * p) / inv2
    return Distribution(mass)


def wasserstein(g: WeightedGraph, geo: GeodesicTable, mu: Distribution, nu: Distribution) -> TransportPlan:
    """Exact optimal transport between mu and nu under geodesic costs.

    Solved by a dense transportation simplex on the supports, started from
    a least-cost basis (cheapest cells first, so mass shared by mu and nu
    mostly stays put); Bland's rule resolves degenerate pivots so
    termination is guaranteed.
    """
    sources = _checked_support(g, mu)
    sinks = _checked_support(g, nu)
    if abs(sum(mu.mass.values()) - sum(nu.mass.values())) > 1e-10:
        raise UnbalancedMass("distributions carry different total mass")
    supply = [mu(v) for v in sources]
    demand = [nu(v) for v in sinks]
    cost = [[geo.dist(u, v) for v in sinks] for u in sources]
    flow, u_pot, v_pot = _transportation_simplex(supply, demand, cost)
    flows = {}
    total = 0.0
    for (a, b), f in flow.items():
        if f > FLOW_TOL:
            flows[(sources[a], sinks[b])] = f
            total += f * cost[a][b]
    return TransportPlan(
        flows=flows,
        cost=total,
        source_potential={sources[a]: u_pot[a] for a in range(len(sources))},
        sink_potential={sinks[b]: v_pot[b] for b in range(len(sinks))},
    )


def wasserstein_oracle(g: WeightedGraph, geo: GeodesicTable, mu: Distribution, nu: Distribution) -> float:
    """Same optimum as :func:`wasserstein`, via successive shortest paths on
    the bipartite support graph.  Kept structurally independent for testing."""
    sources = _checked_support(g, mu)
    sinks = _checked_support(g, nu)
    if abs(sum(mu.mass.values()) - sum(nu.mass.values())) > 1e-10:
        raise UnbalancedMass("distributions carry different total mass")
    n_src = len(sources)
    nodes = n_src + len(sinks)
    arcs = []
    for a, u in enumerate(sources):
        for b, v in enumerate(sinks):
            arcs.append((a, n_src + b, geo.dist(u, v)))
    supply = [mu(u) for u in sources] + [-nu(v) for v in sinks]
    total, _, _ = _min_cost_flow(nodes, arcs, supply)
    return total


def edge_move_cost(g: WeightedGraph, geo: GeodesicTable, mu: Distribution, nu: Distribution):
    """Transportation cost when mass may only hop between graph neighbors,
    each hop charged the geodesic length of that edge.

    Returns (cost, potential) where potential is 1-Lipschitz across every
    edge and satisfies sum(potential * (mu - nu)) == cost at the optimum.
    """
    _checked_support(g, mu)
    _checked_support(g, nu)
    index = {v: k for k, v in enumerate(g.vertices)}
    arcs = []
    for u, v in g.edges:
        p = geo.dist(u, v)
        arcs.append((index[u], index[v], p))
        arcs.append((index[v], index[u], p))
    supply = [mu(v) - nu(v) for v in g.vertices]
    total, _, pot = _min_cost_flow(len(index), arcs, supply)
    f = {v: -pot[index[v]] for v in g.vertices}
    return total, f


def _checked_support(g, dist):
    support = dist.support
    for v in support:
        if v not in g:
            raise UnknownVertex(f"distribution has mass at unknown vertex {v!r}")
    return support


# ---------------------------------------------------------------------------
# transportation simplex


def _least_cost_start(supply, demand, cost):
    """Least-cost (matrix-minimum) basic feasible solution.

    Cells are taken cheapest first; each gets as much mass as its open row
    and column allow and then closes exactly one of them, so the basis is a
    spanning tree of m + n - 1 cells.  Zero-cost cells come first, so mass
    shared by two overlapping distributions stays put.  Also returns
    1 + the largest absolute cost, read off the sorted cells.
    """
    m, n = len(supply), len(demand)
    a = list(supply)
    b = list(demand)
    cells = sorted((cost[i][j], i, j) for i in range(m) for j in range(n))
    row_open = [True] * m
    col_open = [True] * n
    rows_left, cols_left = m, n
    flow = {}
    basis = []
    for _, i, j in cells:
        if not (row_open[i] and col_open[j]):
            continue
        q = min(a[i], b[j])
        flow[(i, j)] = q
        basis.append((i, j))
        if rows_left == 1 and cols_left == 1:
            break
        a[i] -= q
        b[j] -= q
        # close exactly one line so the basis stays a spanning tree
        if (a[i] <= b[j] and rows_left > 1) or cols_left == 1:
            row_open[i] = False
            rows_left -= 1
        else:
            col_open[j] = False
            cols_left -= 1
    scale = 1.0 + max(abs(cells[0][0]), abs(cells[-1][0]))
    return flow, basis, scale


def _basis_duals(basis, cost, m, n):
    u = [None] * m
    v = [None] * n
    rows = {i: [] for i in range(m)}
    cols = {j: [] for j in range(n)}
    for (i, j) in basis:
        rows[i].append(j)
        cols[j].append(i)
    u[0] = 0 * abs(cost[0][0])  # a zero of the costs' own type
    stack = [("r", 0)]
    while stack:
        kind, k = stack.pop()
        if kind == "r":
            for j in rows[k]:
                if v[j] is None:
                    v[j] = cost[k][j] - u[k]
                    stack.append(("c", j))
        else:
            for i in cols[k]:
                if u[i] is None:
                    u[i] = cost[i][k] - v[k]
                    stack.append(("r", i))
    return u, v


def _basis_cycle(basis, enter):
    """Alternating cycle created by adding ``enter`` to the basis tree.

    Returns the cycle as a list of cells starting with ``enter``; odd
    positions give up flow when the entering cell gains it.
    """
    ei, ej = enter
    rows = {}
    cols = {}
    for (i, j) in basis:
        rows.setdefault(i, []).append(j)
        cols.setdefault(j, []).append(i)
    # path from column ej back to row ei through the basis tree
    parent = {("c", ej): None}
    queue = [("c", ej)]
    target = ("r", ei)
    while queue:
        node = queue.pop()
        if node == target:
            break
        kind, k = node
        if kind == "c":
            for i in cols.get(k, ()):
                nxt = ("r", i)
                if nxt not in parent:
                    parent[nxt] = node
                    queue.append(nxt)
        else:
            for j in rows.get(k, ()):
                nxt = ("c", j)
                if nxt not in parent:
                    parent[nxt] = node
                    queue.append(nxt)
    # walk back collecting cells
    cycle = [enter]
    node = target
    while parent[node] is not None:
        kind, k = node
        pkind, pk = parent[node]
        cell = (k, pk) if kind == "r" else (pk, k)
        cycle.append(cell)
        node = parent[node]
    return cycle


def _transportation_simplex(supply, demand, cost, max_pivots=100000):
    m, n = len(supply), len(demand)
    flow, basis, scale = _least_cost_start(supply, demand, cost)
    tol = 1e-12 * scale
    for _ in range(max_pivots):
        u, v = _basis_duals(basis, cost, m, n)
        in_basis = set(basis)
        enter = None
        # Bland's rule: first improving cell in a fixed scan order
        for i in range(m):
            for j in range(n):
                if (i, j) in in_basis:
                    continue
                if cost[i][j] - u[i] - v[j] < -tol:
                    enter = (i, j)
                    break
            if enter:
                break
        if enter is None:
            return ({c: flow[c] for c in basis}, u, v)
        cycle = _basis_cycle(basis, enter)
        givers = cycle[1::2]
        theta = min(flow[c] for c in givers)
        leave = min((c for c in givers if flow[c] <= theta), key=lambda c: c)
        for k, c in enumerate(cycle):
            if k == 0:
                flow[c] = theta  # entering cells are non-basic and carry no flow
            elif k % 2 == 1:
                flow[c] = max(flow[c] - theta, 0 * theta)  # a zero of the flows' own type
            else:
                flow[c] = flow[c] + theta
        flow[leave] = 0.0
        basis[basis.index(leave)] = enter
        del flow[leave]
    raise RuntimeError("transportation simplex failed to terminate")


# ---------------------------------------------------------------------------
# successive-shortest-path min-cost flow (uncapacitated)


def _min_cost_flow(n_nodes, arcs, supply, tol=1e-13):
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
        if excess[s] <= tol:
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
            if any(excess[k] < -10.0 * tol for k in range(n_nodes)):
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
    if max(excess) > 10.0 * tol:
        raise RuntimeError("min-cost flow failed to route all mass")
    total = sum(f * arcs[k][2] for k, f in enumerate(flow) if f > 0.0)
    return total, flow, pot
