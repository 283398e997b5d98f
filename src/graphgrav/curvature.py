"""Edge curvature at finite walk laziness t, its t -> 0 limit, and the
closed-form value that is exact on trees and gives the limit, with no
solve, on every edge whose neighbourhood metric is a double star.

Elsewhere the transport cost is piecewise linear in t, so kappa_t(t)/t is
exactly constant below the first breakpoint; the limit is found by halving t
until two successive slopes agree.  kappa_t sums flow * (P - cost) / P rather
than taking 1 - W/P, which stays accurate when t is far below the edge scale.
"""

from __future__ import annotations

from .errors import NoConvergence
from .graph import GeodesicTable, _require_edges, edge_key
from .transport import neighbor_distribution, wasserstein

LIMIT_TOL = 1e-10
INITIAL_T = 0.25
MAX_HALVINGS = 60


def kappa_t(geo: GeodesicTable, i, j, t: float) -> float:
    """1 - W(t)/P for the edge between i and j of ``geo.graph``."""
    _require_edges(geo.graph, [edge_key(i, j)])
    mu = neighbor_distribution(geo, i, t)
    nu = neighbor_distribution(geo, j, t)
    p = geo.dist(i, j)
    plan = wasserstein(geo.graph, geo, mu, nu)
    acc = 0.0
    for cell, f in plan.flows.items():
        acc += f * (p - plan.unit_costs[cell])
    return acc / p


def kappa(geo: GeodesicTable, i, j) -> float:
    """Limit of kappa_t(t)/t as t -> 0: `kappa_tree_closed`, with no solve,
    where d(a, b) = d(a, i) + d(i, j) + d(j, b) for every other neighbour a of
    i and b of j (a shared neighbour c fails at d(c, c) = 0), else the halving
    limit.  The test allows 1e-12 d(i, j) of rounding; an edge whose rounding
    exceeds that, at an extreme length ratio, takes the solve."""
    p = geo.dist(i, j)
    near_j = [(b, pb) for b, pb in geo.walk(j)[2] if b != i]
    if all(geo.dist(a, b) >= pa + p + pb - 1e-12 * p
           for a, pa in geo.walk(i)[2] if a != j for b, pb in near_j):
        return kappa_tree_closed(geo, i, j)
    return _kappa_transport(geo, i, j)


def _kappa_transport(geo: GeodesicTable, i, j) -> float:
    """Limit of kappa_t(t)/t as t -> 0, found by halving from t = 1/4."""
    t = INITIAL_T
    prev = kappa_t(geo, i, j, t) / t
    for _ in range(MAX_HALVINGS):
        t *= 0.5
        cur = kappa_t(geo, i, j, t) / t
        if abs(cur - prev) < LIMIT_TOL:
            return cur
        prev = cur
    raise NoConvergence(
        f"curvature slope for edge ({i!r}, {j!r}) did not stabilize "
        f"after {MAX_HALVINGS} halvings"
    )


def kappa_tree_closed(geo: GeodesicTable, i, j) -> float:
    """Closed-form curvature 2/P^2 (1/d_i + 1/d_j) - 1/P (c_i/d_i + c_j/d_j).

    Equals the transport limit on trees; on other graphs it is a lower bound
    for the transport value (the underlying plan is feasible, not optimal).
    """
    _require_edges(geo.graph, [edge_key(i, j)])
    p = geo.dist(i, j)
    ci, di, _ = geo.walk(i)
    cj, dj, _ = geo.walk(j)
    return (2.0 / (p * p)) * (1.0 / di + 1.0 / dj) - (ci / di + cj / dj) / p


def edge_curvatures(geo: GeodesicTable, edges=None) -> dict:
    """Limit curvature for every edge in ``edges`` (default: all of E(geo.graph))."""
    out = {}
    for u, v in (geo.graph.edges if edges is None else edges):
        out[edge_key(u, v)] = kappa(geo, u, v)
    return out
