"""The gravitational action: edge-curvature sums, vertex-sum closed forms
and bounds.

Each boundary vertex of a region action's region needs a unique edge into
the region.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curvature import edge_curvatures, kappa_tree_closed
from .dynamics import _require_tree
from .errors import NonUniqueInwardEdge, NotHexRegion
from .graph import GeodesicTable, Region, WeightedGraph, _require_table, sigma_edges


@dataclass(frozen=True)
class ActionReport:
    total: float
    per_edge: dict
    bound_upper: float
    variant: str
    closed_form: float | None


def _report(g, per_edge, variant, total=None, closed_form=None):
    """The report of an action on ``g``: a plain action's total is the sum of
    the edge curvatures it reports (only the GHY vertex sum gives its own
    ``total``), and ``bound_upper`` is 2|E|, the bound on any finite graph."""
    if total is None:
        total = sum(per_edge.values())
    return ActionReport(total, per_edge, 2.0 * g.num_edges, variant, closed_form)


def action_plain(g: WeightedGraph, geo: GeodesicTable, edge_set=None) -> ActionReport:
    """Sum of limit curvatures over ``edge_set`` (default: all edges); ``geo``
    must be the table of ``g`` (BadParams)."""
    _require_table(g, geo)
    return _report(g, edge_curvatures(geo, edge_set), "plain")


def _closed_form_parts(geo, region):
    """The closed-form curvature of every edge of E(Sigma), the interior
    vertex sum of 2 - c^2/d, and c^2/d of each boundary vertex in a fixed
    order; raises NonUniqueInwardEdge if a boundary vertex has no edge into
    the region or more than one."""
    verts = region.vertices
    boundary = []
    for i in sorted(region.boundary_vertices):
        inward = sum(j in verts for j in geo.graph.neighbors(i))
        if inward != 1:
            raise NonUniqueInwardEdge(f"boundary vertex {i!r} has {inward} edges into the region")
        c, d, _ = geo.walk(i)
        boundary.append(c * c / d)
    per_edge = {(u, v): kappa_tree_closed(geo, u, v) for u, v in sigma_edges(geo.graph, region)}
    interior = 0.0
    for i in sorted(region.interior):
        c, d, _ = geo.walk(i)
        interior += 2.0 - c * c / d
    return per_edge, interior, boundary


def action_ghy(g: WeightedGraph, region: Region) -> ActionReport:
    """Action with the Dirichlet boundary term, in summed closed form:

        sum_interior (2 - c_i^2/d_i)  -  sum_boundary c_i^2/d_i

    Requires a tree whose boundary vertices each have a unique edge into the
    region.  The lengths of edges leaving it enter through the boundary c, d.
    """
    _require_tree(g)
    per_edge, total, boundary = _closed_form_parts(GeodesicTable(g), region)
    for ratio in boundary:
        total -= ratio
    return _report(g, per_edge, "ghy", total)


def action_region_plain(g: WeightedGraph, region: Region) -> ActionReport:
    """Plain action over E(Sigma): the sum of the closed-form edge
    curvatures, on a tree whose boundary vertices each have a unique edge
    into the region."""
    _require_tree(g)
    per_edge, _, _ = _closed_form_parts(GeodesicTable(g), region)
    return _report(g, per_edge, "plain")


def tree_action_hex(g: WeightedGraph, geo: GeodesicTable, region: Region) -> ActionReport:
    """Tree-action of a hexagonal-lattice region: the closed-form curvature
    summed over E(Sigma).

    ``closed_form`` carries the vertex-sum identity
    sum_interior (2 - c^2/d) - sum_boundary 1/3, which matches ``total``
    whenever the boundary-incident lengths are constant.  ``geo`` must be
    the table of ``g`` (BadParams)."""
    _require_table(g, geo)
    _require_hex_region(g, region)
    per_edge, identity, boundary = _closed_form_parts(geo, region)
    return _report(g, per_edge, "tree_action", closed_form=identity - len(boundary) / 3.0)


def _require_hex_region(g, region):
    for i in region.interior:
        if g.degree(i) != 3:
            raise NotHexRegion(f"interior vertex {i!r} has degree {g.degree(i)}, need 3")


def ratio_bounds(geo: GeodesicTable, i):
    """The ratio c_i^2/d_i at vertex i, and whether 1 < c_i^2/d_i <= deg(i).

    Degree-1 vertices sit exactly at the lower end, so the strict bound is
    only required for degree >= 2; the upper bound is tight exactly when all
    incident geodesics are equal.
    """
    c, d, _ = geo.walk(i)
    ratio = c * c / d
    deg = geo.graph.degree(i)
    lower_ok = ratio > 1.0 if deg >= 2 else abs(ratio - 1.0) < 1e-12
    return ratio, lower_ok and ratio <= deg + 1e-9
