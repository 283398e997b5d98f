"""Vertex probability distributions and exact transportation costs.

Each solve nets mu against nu first.  Under a metric cost the optimal cost
depends only on mu - nu (Kantorovich-Rubinstein duality), so the mass
min(mu(v), nu(v)) stays at v at cost 0, and the LP moves only the rest:
its sources are the vertices where mu exceeds nu, with supply mu - nu, and
its sinks those where nu exceeds mu, with demand nu - mu.

One solver computes the optimal cost: a dense transportation simplex over
the sources-by-sinks geodesic cost matrix, started from a least-cost
basis.  It returns its row and column potentials with the flow, and
``_certificate_gap`` checks the pair against the LP optimality conditions
(primal and dual feasibility, zero duality gap), which prove the flow
optimal; the reproduction sweep of criterion 11 runs it on every solve, the
solves of ``wasserstein`` do not.  The test suite keeps a
successive-shortest-path min-cost flow on the un-netted supports as an
independent oracle.

The distributions and the solver read each neighbour walk, and each cost
matrix with its least-cost cell order, from the geodesic table, which
computes them once; the sources and sinks of an edge do not change as its
limit halves t, so the solves of one limit share one cost block.

The simplex keeps its basis tree across pivots.  One walk, ``_hang``, sets
each node's potential for Bland pricing along its tree path from row 0, and
its parent and depth, from which the entering cell's cycle is read.  It
runs once from row 0 at the start and, after each pivot, only over the
subtree the leaving cell cut off, re-hung from the entering cell.  Costs may
be negative.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadParams, UnbalancedMass, UnknownVertex
from .graph import GeodesicTable, WeightedGraph, _require_table

MAX_PIVOTS = 100000


@dataclass(frozen=True)
class Distribution:
    """Sparse probability mass over vertices: masses >= 0 that sum to 1 within 1e-10."""

    mass: dict

    def __post_init__(self):
        total = 0.0
        for v, m in self.mass.items():
            if not m >= 0:  # NaN fails too
                raise UnbalancedMass(f"mass {m} at {v!r} is not a nonnegative number")
            total += m
        _require_unit_total(total)

    @property
    def support(self):
        return tuple(sorted(v for v, m in self.mass.items() if m > 0))

    def __call__(self, v):
        return self.mass.get(v, 0.0)


@dataclass(frozen=True)
class TransportPlan:
    """Optimal flows between two distributions, the mass both hold on the
    diagonal, the cost per unit of mass of each (keyed like the flows, 0 on
    the diagonal, else read from the cost block) and their total cost."""

    flows: dict
    unit_costs: dict
    cost: float


def neighbor_distribution(geo: GeodesicTable, i, t: float) -> Distribution:
    """Lazy-walk distribution: keeps 1-t at i and spreads t over the neighbors
    proportionally to the inverse squared geodesic length."""
    if not 0.0 < t < 1.0:
        raise BadParams(f"t must lie in (0, 1), got {t}")
    _, inv2, pairs = geo.walk(i)
    mass = {i: 1.0 - t}
    for w, p in pairs:
        mass[w] = t / (p * p) / inv2  # a simple graph lists w once, never as i
    return Distribution(mass)


def wasserstein(g: WeightedGraph, geo: GeodesicTable, mu: Distribution, nu: Distribution) -> TransportPlan:
    """Exact optimal transport between mu and nu under geodesic costs.

    The plan keeps the mass mu and nu share in place, on the diagonal at
    cost 0, and moves the rest by a dense transportation simplex on the
    netted problem (see the module docstring), started from a least-cost
    basis; Bland's rule resolves degenerate pivots so termination is
    guaranteed.  Raises BadParams if ``geo`` is not the table of ``g``.
    """
    _require_table(g, geo)
    sources, sinks, supply, demand, cost, cells, stay = _transport_problem(geo, mu, nu)
    flow = _transportation_simplex(supply, demand, cost, cells)[0] if cells else {}
    flows = {(v, v): f for v, f in stay.items()}
    unit_costs = dict.fromkeys(flows, 0.0)
    total = 0.0
    for (a, b), f in flow.items():
        if f > 0:
            cell = (sources[a], sinks[b])
            flows[cell] = f
            unit_costs[cell] = cost[a][b]
            total += f * cost[a][b]
    return TransportPlan(flows=flows, unit_costs=unit_costs, cost=total)


def _require_unit_total(total):
    """The mass rule of a distribution: its masses sum to 1 within 1e-10."""
    if not abs(total - 1.0) <= 1e-10:  # NaN fails too
        raise UnbalancedMass(f"masses sum to {total}, expected 1")


def _transport_problem(geo, mu, nu):
    """The netted problem ``wasserstein`` solves: sources and sinks in vertex
    order, supply and demand, the cost block and its cells, and the mass
    {v: min(mu(v), nu(v))} that stays.  Each total is checked again (a
    distribution built around ``__post_init__`` may break the rule), and a
    support vertex outside ``geo.graph`` raises UnknownVertex, netted away or
    not.  A side, and the cells, are empty when mu equals nu or the totals
    differ within the mass rule."""
    _require_unit_total(sum(mu.mass.values()))
    _require_unit_total(sum(nu.mass.values()))
    sources, sinks, supply, demand, stay = [], [], [], [], {}
    for v in sorted(mu.mass.keys() | nu.mass.keys()):
        a, b = mu.mass.get(v, 0.0), nu.mass.get(v, 0.0)
        if a > b:
            sources.append(v)
            supply.append(a - b)
            a = b
        elif b > a:
            sinks.append(v)
            demand.append(b - a)
        elif not a > 0:
            continue  # in neither support
        if v not in geo.graph:
            raise UnknownVertex(f"unknown vertex {v!r}")
        if a > 0:
            stay[v] = a  # the smaller mass
    cost, cells = geo.cost_block(tuple(sources), tuple(sinks))
    return sources, sinks, supply, demand, cost, cells, stay


# ---------------------------------------------------------------------------
# transportation simplex


def _least_cost_start(supply, demand, cells):
    """Least-cost (matrix-minimum) basic feasible solution.

    ``cells`` are the cost matrix's cells in the order of
    ``graph.cells_by_cost``, cheapest first.  Each gets as much mass as its
    open row and column allow and then closes exactly one of them, so the
    basis is a spanning tree of m + n - 1 cells.  Also returns 1 + the
    largest absolute cost, read off the sorted cells.
    """
    m, n = len(supply), len(demand)
    a = list(supply)
    b = list(demand)
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


def _hang(adj, pot, up, depth, top):
    """Walk the basis tree below ``top``, whose potential, depth and edge up
    are set, and set those of every node below it.

    Nodes are the rows 0..m-1 and the columns m..m+n-1; basic cell (i, j)
    is the edge between i and m + j, and ``adj`` lists each node's edges as
    (other node, cost[i][j], (i, j)).  Each potential comes from its
    parent's, pot[x] + pot[y] = cost[i][j], along the node's unique tree
    path from row 0.
    """
    stack = [top]
    while stack:
        x = stack.pop()
        parent = up[x][0]
        for y, c, cell in adj[x]:
            if y != parent:
                pot[y] = c - pot[x]
                up[y] = (x, cell)
                depth[y] = depth[x] + 1
                stack.append(y)


def _transportation_simplex(supply, demand, cost, cells):
    m, n = len(supply), len(demand)
    flow, basis, scale = _least_cost_start(supply, demand, cells)
    tol = 1e-12 * scale
    # the basis tree, kept across pivots: potentials rows first, fixed by
    # pot[0] = 0, and each node's depth and edge up as (parent, cell)
    adj = [[] for _ in range(m + n)]
    for cell in basis:
        i, j = cell
        adj[i].append((m + j, cost[i][j], cell))
        adj[m + j].append((i, cost[i][j], cell))
    pot = [None] * (m + n)
    pot[0] = 0 * abs(cost[0][0])  # a zero of the costs' own type
    up = [(None, None)] * (m + n)
    depth = [0] * (m + n)
    _hang(adj, pot, up, depth, 0)
    for _ in range(MAX_PIVOTS):
        u, v = pot[:m], pot[m:]
        enter = None
        # Bland's rule: first improving cell in a fixed scan order; a basic
        # cell prices at 0 up to rounding, far above -tol, so it never enters
        for i in range(m):
            row, ui = cost[i], u[i]
            for j in range(n):
                if row[j] - ui - v[j] < -tol:
                    enter = (i, j)
                    break
            if enter:
                break
        if enter is None:
            return ({c: flow[c] for c in basis}, u, v)
        # the entering cell closes a cycle with the tree path from its row
        # to its column: climb from both ends to their common ancestor;
        # odd positions of the cycle give up flow
        a, b = enter[0], m + enter[1]
        from_row, from_col = [], []
        while a != b:
            if depth[a] >= depth[b]:
                a, cell = up[a]
                from_row.append(cell)
            else:
                b, cell = up[b]
                from_col.append(cell)
        cycle = [enter, *from_row, *reversed(from_col)]
        givers = cycle[1::2]
        theta = min(flow[c] for c in givers)
        leave = min(c for c in givers if flow[c] <= theta)
        for k, c in enumerate(cycle):
            if k == 0:
                flow[c] = theta  # entering cells are non-basic and carry no flow
            elif k % 2 == 1:
                flow[c] = max(flow[c] - theta, 0 * theta)  # a zero of the flows' own type
            else:
                flow[c] = flow[c] + theta
        basis[basis.index(leave)] = enter
        del flow[leave]
        i, j = leave
        adj[i].remove((m + j, cost[i][j], leave))
        adj[m + j].remove((i, cost[i][j], leave))
        i, j = enter
        adj[i].append((m + j, cost[i][j], enter))
        adj[m + j].append((i, cost[i][j], enter))
        # the leaving cell cut off the subtree that holds the entering
        # cell's endpoint on its side of the cycle: hang it from the other
        top, parent = (i, m + j) if leave in from_row else (m + j, i)
        pot[top] = cost[i][j] - pot[parent]
        up[top] = (parent, enter)
        depth[top] = depth[parent] + 1
        _hang(adj, pot, up, depth, top)
    raise RuntimeError("transportation simplex failed to terminate")


def _certificate_gap(supply, demand, cost, flow, u, v):
    """The largest of the primal infeasibility of ``flow`` (its marginals
    against supply and demand, and flow >= 0), the dual infeasibility of
    the potentials (max u_i + v_j - c_ij) and the duality gap
    |sum f c - (sum supply u + sum demand v)|.  It is 0 only if the flow is
    optimal, and is computed in the inputs' own arithmetic, so exact inputs
    give exactly 0 at the optimum."""
    rows, cols = list(supply), list(demand)
    for (i, j), f in flow.items():
        rows[i] -= f
        cols[j] -= f
    primal = max([abs(r) for r in rows + cols] + [-f for f in flow.values()])
    dual = max(ui + vj - c for ui, row in zip(u, cost) for vj, c in zip(v, row))
    primal_cost = sum(f * cost[i][j] for (i, j), f in flow.items())
    dual_cost = sum(s * ui for s, ui in zip(supply, u)) + sum(d * vj for d, vj in zip(demand, v))
    return max(primal, dual, abs(primal_cost - dual_cost))
