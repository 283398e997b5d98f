"""Edge curvature at finite walk laziness t, its t -> 0 limit, and the
closed-form value that is exact on trees.

The transportation cost between the two neighbor distributions of an edge is
piecewise linear in t, so kappa_t(t)/t is exactly constant below the first
breakpoint; the limit is found by halving t until two successive slopes
agree.  kappa_t is accumulated as sum(flow * (P - cost)) / P rather than
1 - W/P, which stays accurate when t is many orders below the edge scale.
"""

from __future__ import annotations

from .errors import NoConvergence, NotAnEdge
from .graph import GeodesicTable, WeightedGraph, edge_key, local_sums
from .transport import neighbor_distribution, wasserstein

LIMIT_TOL = 1e-10
INITIAL_T = 0.25
MAX_HALVINGS = 60


def _require_edge(g, i, j):
    if not g.has_edge(i, j):
        raise NotAnEdge(f"({i!r}, {j!r}) is not an edge")


def kappa_t(g: WeightedGraph, geo: GeodesicTable, i, j, t: float) -> float:
    """1 - W(t)/P for the edge between i and j."""
    _require_edge(g, i, j)
    mu = neighbor_distribution(g, geo, i, t)
    nu = neighbor_distribution(g, geo, j, t)
    p = geo.dist(i, j)
    plan = wasserstein(g, geo, mu, nu)
    acc = 0.0
    for (a, b), f in plan.flows.items():
        acc += f * (p - geo.dist(a, b))
    return acc / p


def kappa(g: WeightedGraph, geo: GeodesicTable, i, j) -> float:
    """Limit of kappa_t(t)/t as t -> 0, found by halving from t = 1/4."""
    t = INITIAL_T
    prev = kappa_t(g, geo, i, j, t) / t
    for _ in range(MAX_HALVINGS):
        t *= 0.5
        cur = kappa_t(g, geo, i, j, t) / t
        if abs(cur - prev) < LIMIT_TOL:
            return cur
        prev = cur
    raise NoConvergence(
        f"curvature slope for edge ({i!r}, {j!r}) did not stabilize "
        f"after {MAX_HALVINGS} halvings"
    )


def kappa_tree_closed(g: WeightedGraph, geo: GeodesicTable, i, j) -> float:
    """Closed-form curvature 2/P^2 (1/d_i + 1/d_j) - 1/P (c_i/d_i + c_j/d_j).

    Equals the transport limit on trees; on other graphs it is a lower bound
    for the transport value (the underlying plan is feasible, not optimal).
    """
    _require_edge(g, i, j)
    p = geo.dist(i, j)
    ci, di = local_sums(g, geo, i)
    cj, dj = local_sums(g, geo, j)
    return (2.0 / (p * p)) * (1.0 / di + 1.0 / dj) - (ci / di + cj / dj) / p


def edge_curvatures(g: WeightedGraph, geo: GeodesicTable, edges=None) -> dict:
    """Limit curvature for every edge in ``edges`` (default: all of E(g))."""
    out = {}
    for u, v in (g.edges if edges is None else edges):
        out[edge_key(u, v)] = kappa(g, geo, u, v)
    return out
