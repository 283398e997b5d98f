"""The gravitational action: edge-curvature sums, boundary closed forms,
bounds, and the complete-graph partial-cost action.

The closed forms for regions apply on trees whose boundary vertices each
have a unique edge into the region interior; the extrinsic-curvature term is
never materialized, only the summed expression every bound uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .curvature import edge_curvatures, kappa_tree_closed
from .dynamics import is_tree
from .errors import NonpositiveInput, NonUniqueInwardEdge, NotAnEdge, NotATree, NotComplete, NotHexRegion
from .graph import GeodesicTable, Region, WeightedGraph, edge_key, local_sums, sigma_edges


@dataclass(frozen=True)
class ActionReport:
    total: float
    per_edge: dict
    bound_upper: float
    variant: str
    closed_form: float | None = field(default=None)


def action_plain(g: WeightedGraph, geo: GeodesicTable, edge_set=None) -> ActionReport:
    """Sum of limit curvatures over ``edge_set`` (default: all edges)."""
    per_edge = edge_curvatures(g, geo, edge_set)
    return ActionReport(
        total=sum(per_edge.values()),
        per_edge=per_edge,
        bound_upper=bound_upper_global(g),
        variant="plain",
    )


def _closed_form_parts(g, geo, region):
    """The closed-form curvature of every edge of E(Sigma), and the interior
    vertex sum of 2 - c^2/d in a fixed vertex order."""
    per_edge = {
        edge_key(u, v): kappa_tree_closed(g, geo, u, v) for u, v in sigma_edges(g, region)
    }
    interior = 0.0
    for i in sorted(region.interior, key=repr):
        c, d = local_sums(g, geo, i)
        interior += 2.0 - c * c / d
    return per_edge, interior


def _inward_edge(g, region, i):
    inward = [j for j in g.neighbors(i) if j in region.interior]
    if len(inward) != 1:
        raise NonUniqueInwardEdge(
            f"boundary vertex {i!r} has {len(inward)} edges into the interior"
        )
    return inward[0]


def action_ghy(g: WeightedGraph, region: Region) -> ActionReport:
    """Action with the Dirichlet boundary term, in summed closed form:

        sum_interior (2 - c_i^2/d_i)  -  sum_boundary c_i^2/d_i

    Requires a tree whose boundary vertices each have a unique inward edge.
    The lengths of edges leaving the region enter through the boundary c, d.
    """
    if not is_tree(g):
        raise NotATree("boundary closed forms are defined on trees")
    geo = GeodesicTable(g)
    per_edge, total = _closed_form_parts(g, geo, region)
    for i in sorted(region.boundary_vertices, key=repr):
        _inward_edge(g, region, i)
        c, d = local_sums(g, geo, i)
        total -= c * c / d
    return ActionReport(
        total=total,
        per_edge=per_edge,
        bound_upper=bound_upper_global(g),
        variant="ghy",
    )


def action_region_plain(g: WeightedGraph, region: Region) -> ActionReport:
    """Plain action over E(Sigma) in closed form; identical to summing the
    edge curvatures, with the boundary vertices contributing

        2 P^-2 / (P^-2 + D_i)  -  P^-1 (P^-1 + C_i) / (P^-2 + D_i)

    through their unique inward edge of length P."""
    if not is_tree(g):
        raise NotATree("boundary closed forms are defined on trees")
    per_edge, total = _closed_form_parts(g, GeodesicTable(g), region)
    for i in sorted(region.boundary_vertices, key=repr):
        i0 = _inward_edge(g, region, i)
        p_inv = 1.0 / g.length(i, i0)
        c_out = 0.0
        d_out = 0.0
        for j in g.neighbors(i):
            if j != i0:
                c_out += 1.0 / g.length(i, j)
                d_out += 1.0 / g.length(i, j) ** 2
        total += boundary_term(p_inv, c_out, d_out)
    return ActionReport(
        total=total,
        per_edge=per_edge,
        bound_upper=bound_upper_global(g),
        variant="plain",
    )


def boundary_term(p_inv: float, c_out: float, d_out: float) -> float:
    """Boundary vertex contribution to the plain region action; at most 1."""
    denom = p_inv * p_inv + d_out
    return (2.0 * p_inv * p_inv - p_inv * (p_inv + c_out)) / denom


def boundary_minimizer(c_out: float, d_out: float) -> float:
    """Inward length minimizing the boundary term: 1/C + sqrt(1/C^2 + 1/D)."""
    if not c_out > 0 or not d_out > 0:
        raise NonpositiveInput("boundary sums must be positive")
    return 1.0 / c_out + math.sqrt(1.0 / (c_out * c_out) + 1.0 / d_out)


def tree_action_hex(g: WeightedGraph, geo: GeodesicTable, region: Region) -> ActionReport:
    """Tree-action of a hexagonal-lattice region: the closed-form curvature
    summed over E(Sigma).

    ``closed_form`` carries the vertex-sum identity
    sum_interior (2 - c^2/d) - sum_boundary 1/3, which matches ``total``
    whenever the boundary-incident lengths are constant."""
    _require_hex_region(g, region)
    per_edge, identity = _closed_form_parts(g, geo, region)
    identity -= len(region.boundary_vertices) / 3.0
    return ActionReport(
        total=sum(per_edge.values()),
        per_edge=per_edge,
        bound_upper=bound_upper_global(g),
        variant="tree_action",
        closed_form=identity,
    )


def _require_hex_region(g, region):
    for i in region.interior:
        if g.degree(i) != 3:
            raise NotHexRegion(f"interior vertex {i!r} has degree {g.degree(i)}, need 3")
    verts = region.vertices
    for i in region.boundary_vertices:
        inside = sum(1 for j in g.neighbors(i) if j in verts)
        if inside != 1:
            raise NotHexRegion(
                f"boundary vertex {i!r} has {inside} edges inside the region, need 1"
            )


def bound_upper_global(g: WeightedGraph) -> float:
    """Upper bound 2|E| on the action of any finite graph."""
    return 2.0 * g.num_edges


def ratio_bounds(g: WeightedGraph, geo: GeodesicTable, i):
    """The ratio c_i^2/d_i at vertex i, and whether 1 < c_i^2/d_i <= deg(i).

    Degree-1 vertices sit exactly at the lower end, so the strict bound is
    only required for degree >= 2; the upper bound is tight exactly when all
    incident geodesics are equal.
    """
    c, d = local_sums(g, geo, i)
    ratio = c * c / d
    deg = g.degree(i)
    lower_ok = ratio > 1.0 if deg >= 2 else abs(ratio - 1.0) < 1e-12
    return ratio, lower_ok and ratio <= deg + 1e-9


def partial_action_complete(g: WeightedGraph, geo: GeodesicTable) -> float:
    """Action built from the one-sided partial costs on a complete graph.

    The t -> 0 limit of (1 - W^p/P)/(2t) is (1 + P^-2/d_i)/2 termwise, so the
    double sum collapses to sum_i (1 + deg(i))/2 = n^2/2 for K_n.
    """
    verts = g.vertices
    n = len(verts)
    for a in range(n):
        for b in range(a + 1, n):
            if not g.has_edge(verts[a], verts[b]):
                raise NotComplete(f"missing edge ({verts[a]!r}, {verts[b]!r})")
    total = 0.0
    for i in verts:
        _, d = local_sums(g, geo, i)
        for j in g.neighbors(i):
            p = geo.dist(i, j)
            total += 0.5 * (1.0 + 1.0 / (p * p) / d)
    return total


def partial_cost(g: WeightedGraph, geo: GeodesicTable, i, j, t: float) -> float:
    """One-sided partial cost (1 - t - t P^-2/d_i) P for the edge i -> j."""
    if not g.has_edge(i, j):
        raise NotAnEdge(f"({i!r}, {j!r}) is not an edge")
    p = geo.dist(i, j)
    _, d = local_sums(g, geo, i)
    return (1.0 - t - t / (p * p) / d) * p

