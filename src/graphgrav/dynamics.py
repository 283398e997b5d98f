"""Edge-length equations of motion on trees.

On a tree the geodesic between neighbors is the edge itself, so every
quantity here is a rational function of the edge lengths; no transport solve
is involved.  Leaves of a finite tree are read as the cut of a deeper tree:
residuals are only defined on interior edges, whose endpoints both have their
full neighborhoods present.

The tree equation of motion is computed in one place, ``_tree_system``, from
the tree's lengths-free index (``_tree_index``), built on a graph's first call
and kept while it lives; Newton's first system adds the Jacobian's pattern.
``search.newton_solve_teom`` drives the system over the free lengths,
``verify_solution`` evaluates it with every edge fixed, and ``nogo_indicator``
reads its vertex sums from the same index.  Each function that builds or reads
arrays imports numpy itself, so importing this module does not.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from types import SimpleNamespace

from .errors import BadParams, NotATree
from .graph import Region, WeightedGraph, _check_length, _require_edges, edge_key

_INDEXES = weakref.WeakKeyDictionary()  # tree -> its _build_index, which holds no reference to it


@dataclass(frozen=True)
class Setting:
    """An assignment edge -> positive length, the unknown of the equations
    of motion.  May be partial (boundary data) or cover all of E(g)."""

    lengths: dict

    def __post_init__(self):
        for key, val in self.lengths.items():
            _check_length(key, val)

    def __getitem__(self, key):
        return self.lengths[key]

    def __contains__(self, key):
        return key in self.lengths


@dataclass(frozen=True)
class EomReport:
    residuals: dict
    max_abs_residual: float
    is_solution: bool


def _require_tree(g):
    if g.num_edges != len(g.vertices) - 1:
        raise NotATree("operation is defined on trees only")


def interior_edges(g: WeightedGraph):
    """Edges whose endpoints both have their full neighborhoods present,
    i.e. neither endpoint is a leaf of the truncation."""
    return tuple((u, v) for u, v in g.edges if g.degree(u) > 1 and g.degree(v) > 1)


def _build_index(g):
    """What the system of tree g reads that does not depend on lengths, shared
    by every call on g.  ``interior`` numbers the interior edges (the rows) in
    ``g.edges`` order and ``slot`` the vertices in ``g.vertices`` order; ``pair``
    and ``rows`` hold each row's end slots and edge position.  ``pattern`` stays
    empty until ``_tree_system`` builds it for Newton.  ``place`` and ``ratios``
    read lengths by position."""
    import numpy as np
    position = {key: p for p, key in enumerate(g.edges)}
    interior = {key: r for r, key in enumerate(interior_edges(g))}
    slot = {v: s for s, v in enumerate(g.vertices)}
    half = [(slot[v], position[edge_key(v, w)]) for v in slot for w in g.neighbors(v)]
    at, col = np.array(half, dtype=int).reshape(-1, 2).T

    def place(lengths):  # the lengths at their edges' g.edges positions, NaN where none is given
        ell = np.full(len(position), np.nan)
        ell[[position[key] for key in lengths]] = list(lengths.values())
        return ell

    def ratios(ell):
        # (rho, d) at every slot: c, d sum 1/l, 1/l^2 over its half-edges (at, col) in
        # g.neighbors order, rho = c/d; bincount adds in input order, as a scalar loop
        d = np.bincount(at, (1.0 / (ell * ell))[col])
        return np.bincount(at, (1.0 / ell)[col]) / d, d

    return SimpleNamespace(
        interior=interior, slot=slot, place=place, ratios=ratios,
        pair=np.array([[slot[key[s]] for key in interior] for s in (0, 1)], dtype=int),
        rows=np.array([position[key] for key in interior], dtype=int),
        pattern=np.zeros((3, 0), dtype=int),
    )


def _tree_index(g):
    """``_build_index(g)``, built on the first call for g and dropped with g."""
    return _INDEXES.get(g) or _INDEXES.setdefault(g, _build_index(g))


def _tree_system(g, free, fixed):
    """The tree equation of motion at every interior edge (i, j),

        (rho_i^2 + rho_j^2) / P - rho_i - rho_j,   rho = c/d,

    and its exact Jacobian, as functions of the log-lengths x of the ``free``
    interior edges.  Lengths sit in one array at their ``g.edges`` positions:
    the ``fixed`` map fills it once, x the free entries on each call.  Row r
    belongs to the r-th interior edge; the tree's index gives every position.
    """
    import numpy as np
    index = _tree_index(g)
    ell = index.place(fixed)  # each call rewrites every free entry from its x
    free_rows = [index.interior[key] for key in free]
    free_at = index.rows[free_rows]

    def residual(x):
        ell[free_at] = np.exp(x)
        ri, rj = index.ratios(ell)[0][index.pair]
        return (ri * ri + rj * rj) / ell[index.rows] - ri - rj

    if free and not index.pattern.size:  # Newton's first system on g; verification has no free edge
        # (row, end slot, column) wherever an interior edge's column meets a row's edge at that end
        index.pattern = np.array([(index.interior[k], index.slot[w], c) for key, c in index.interior.items()
                                  for w in key for k in (edge_key(w, u) for u in g.neighbors(w))
                                  if k in index.interior], dtype=int).reshape(-1, 3).T
    # the pattern's entries in a free column, in the pattern's order, so that
    # bincount adds as before; an all-fixed system keeps none
    column = np.full(len(index.interior), -1)
    column[free_rows] = range(len(free))
    e_row, e_vertex, e_col = index.pattern[:, column[index.pattern[2]] >= 0]
    e_edge, e_free, e_col = index.rows[e_row], index.rows[e_col], column[e_col]
    shape = (len(index.interior), len(free))
    cell, own = e_row * shape[1] + e_col, e_edge == e_free

    def jacobian(x):
        # d rho_w/d x_f = (2 rho_w/l_f - 1)/(l_f d_w); a free row's own P splits over its ends
        ell[free_at] = np.exp(x)
        rho, d = index.ratios(ell)
        p, ell_f, rho_w = ell[e_edge], ell[e_free], rho[e_vertex]
        drho = (2.0 * rho_w / ell_f - 1.0) / (ell_f * d[e_vertex])
        values = (2.0 * rho_w / p - 1.0) * drho - own * rho_w * rho_w / p
        return np.bincount(cell, values, shape[0] * shape[1]).reshape(shape)

    return residual, jacobian


def _unit_scaled(lengths, skip=()):
    """(lengths * 2^k, k): k = -round(mean log2 l) over the lengths of the edges
    not in ``skip`` (0 if none), by ``math.fsum``, so k does not depend on their
    order.  A power of two scales a float exactly, so the residual, of degree 1
    in the lengths, is 2^k times its value at the given lengths wherever l*l and
    1/(l*l) stay finite there; c/(d P) is unchanged."""
    logs = [math.log2(ell) for key, ell in lengths.items() if key not in skip]
    k = -round(math.fsum(logs) / len(logs)) if logs else 0
    return {key: math.ldexp(ell, k) for key, ell in lengths.items()}, k


def _require_tol(tol):
    """Raise BadParams unless the tolerance is positive and finite (NaN is neither)."""
    if not 0.0 < tol < math.inf:
        raise BadParams(f"tol must be positive and finite, got {tol}")


def verify_solution(g: WeightedGraph, setting: Setting, tol: float = 1e-9) -> EomReport:
    """Residual of every interior edge.  A residual is a length: a solution
    keeps them all below tol (positive and finite) times the power of two
    nearest the geometric mean of the leaf (non-interior) edges' lengths, the
    data ``newton_solve_teom`` holds fixed, so it stays a solution under
    ``scale_setting``."""
    _require_tol(tol)
    _require_tree(g)
    _require_edges(g, setting.lengths)
    index = _tree_index(g)
    if index.interior and len(setting.lengths) < g.num_edges:  # then some edge at a row's end is missing
        at_ends = (edge_key(v, w) for row in index.interior for v in row for w in g.neighbors(v))
        key = next(key for key in at_ends if key not in setting.lengths)
        raise BadParams(f"setting does not cover edge {key!r}")
    lengths, k = _unit_scaled(setting.lengths, index.interior)
    residual, _ = _tree_system(g, (), lengths)
    values = residual(()).tolist()  # no free log-lengths
    worst = max(map(abs, values), default=0.0)
    residuals = {key: math.ldexp(r, -k) for key, r in zip(index.interior, values)}
    return EomReport(residuals, math.ldexp(worst, -k), worst < tol)


def scale_setting(setting: Setting, lam: float) -> Setting:
    """Divide every length by lam; solutions stay solutions."""
    if not lam > 0:
        raise BadParams("scale factor must be positive to keep lengths positive")
    return Setting({key: ell / lam for key, ell in setting.lengths.items()})


def nogo_indicator(g: WeightedGraph, region: Region, setting: Setting) -> float:
    """Sum over boundary vertices i and inward neighbors j of
    (c_i/d_i)/P_ij - 1.  A negative value certifies that no bulk solution is
    compatible with the given boundary-incident lengths."""
    _require_tree(g)
    _require_edges(g, setting.lengths)
    sigma = region.vertices
    boundary = sorted(region.boundary_vertices)
    index = _tree_index(g)
    lengths, _ = _unit_scaled(setting.lengths)
    rho = index.ratios(index.place(lengths))[0].tolist()  # NaN at a vertex with an edge not given
    total = 0.0
    for i in boundary:
        for j in g.neighbors(i):
            if edge_key(i, j) not in lengths:
                raise BadParams(f"setting does not cover edge {edge_key(i, j)!r}")
            if j in sigma:
                total += rho[index.slot[i]] / lengths[edge_key(i, j)] - 1.0
    return total
