"""Edge-length equations of motion on trees.

On a tree the geodesic between neighbors is the edge itself, so every
quantity here is a rational function of the edge lengths; no transport solve
is involved.  Leaves of a finite tree are read as the cut of a deeper tree:
residuals are only defined on interior edges, whose endpoints both have their
full neighborhoods present.

The tree equation of motion is computed in one place, ``_tree_system``, over
edge and half-edge index arrays: ``search.newton_solve_teom`` drives it over
the free lengths, and ``verify_solution`` evaluates it with every edge fixed.
``nogo_indicator`` reads its vertex sums from the same helper.  Each function
that builds or reads arrays imports numpy itself, so importing this module does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BadParams, NotATree
from .graph import Region, WeightedGraph, _check_length, _require_edges, edge_key


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
    return tuple(
        (u, v) for u, v in g.edges if g.degree(u) > 1 and g.degree(v) > 1
    )


def _vertex_ratios(g, vertices, index):
    """(rho, d) at ``vertices`` as a function of the length array, whose entry
    index[key] is the length of edge key: c and d sum 1/l and 1/l^2 over the
    half-edges, in ``g.neighbors`` order, and rho = c/d.  np.bincount adds in
    input order, so these are the floats of a scalar loop over neighbours."""
    import numpy as np
    half_edges = []
    for k, v in enumerate(vertices):
        for w in g.neighbors(v):
            key = edge_key(v, w)
            if key not in index:
                raise BadParams(f"setting does not cover edge {key!r}")
            half_edges.append((k, index[key]))
    at, col = np.array(half_edges, dtype=int).reshape(-1, 2).T

    def ratios(ell):
        d = np.bincount(at, (1.0 / (ell * ell))[col], len(vertices))
        return np.bincount(at, (1.0 / ell)[col], len(vertices)) / d, d

    return ratios


def _tree_system(g, interior, free, fixed):
    """The tree equation of motion at every interior edge (i, j),

        (rho_i^2 + rho_j^2) / P - rho_i - rho_j,   rho = c/d,

    and its exact Jacobian, as functions of the free log-lengths x.

    Lengths sit in one array, the ``fixed`` map's first and the free edges'
    after them; residual row r belongs to ``interior[r]``.  Vertex sums are
    taken only at the ends of interior edges, whose degrees exceed 1.
    """
    import numpy as np
    index = {key: k for k, key in enumerate([*fixed, *free])}
    ends = list(dict.fromkeys(v for key in interior for v in key))
    ratios = _vertex_ratios(g, ends, index)
    slot = {v: k for k, v in enumerate(ends)}
    pair = np.array([[slot[key[s]] for key in interior] for s in (0, 1)], dtype=int)
    rows = np.array([index[key] for key in interior], dtype=int)
    fixed_lengths = np.array(list(fixed.values()), dtype=float)

    def residual(x):
        ell = np.concatenate([fixed_lengths, np.exp(x)])
        ri, rj = ratios(ell)[0][pair]
        return (ri * ri + rj * rj) / ell[rows] - ri - rj

    # Jacobian entries (row, w, col): free edge col meets the row's edge at its
    # end w; built from the free edges, so an all-fixed system builds none
    row_of = {key: r for r, key in enumerate(interior)}
    entries = [
        (row_of[k], slot[w], col)
        for col, key in enumerate(free) for w in key
        for k in (edge_key(w, u) for u in g.neighbors(w)) if k in row_of
    ]
    e_row, e_vertex, e_col = np.array(entries, dtype=int).reshape(-1, 3).T
    e_edge, e_free = rows[e_row], len(fixed) + e_col
    shape = (len(interior), len(free))

    def jacobian(x):
        # d rho_w/d x_f = (2 rho_w/l_f - 1)/(l_f d_w); a free row's own P splits over its ends
        ell = np.concatenate([fixed_lengths, np.exp(x)])
        rho, d = ratios(ell)
        p, ell_f, rho_w = ell[e_edge], ell[e_free], rho[e_vertex]
        drho = (2.0 * rho_w / ell_f - 1.0) / (ell_f * d[e_vertex])
        values = (2.0 * rho_w / p - 1.0) * drho - (e_edge == e_free) * rho_w * rho_w / p
        return np.bincount(e_row * shape[1] + e_col, values, shape[0] * shape[1]).reshape(shape)

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
    interior = interior_edges(g)
    lengths, k = _unit_scaled(setting.lengths, set(interior))
    residual, _ = _tree_system(g, interior, (), lengths)
    values = residual(()).tolist()  # no free log-lengths
    worst = max(map(abs, values), default=0.0)
    residuals = {key: math.ldexp(r, -k) for key, r in zip(interior, values)}
    return EomReport(residuals, math.ldexp(worst, -k), worst < tol)


def scale_setting(setting: Setting, lam: float) -> Setting:
    """Divide every length by lam; solutions stay solutions."""
    if not lam > 0:
        raise BadParams("scale factor must be positive to keep lengths positive")
    return Setting({key: ell / lam for key, ell in setting.lengths.items()})


def t1_next_ratios(r: float):
    """Inverse-length ratios admissible after r on a line solution."""
    if not 1 < r < math.inf:
        raise BadParams(f"ratio must exceed 1, got {r}")
    return tuple(sorted({r, (r + 1.0) / (r - 1.0)}))


def nogo_indicator(g: WeightedGraph, region: Region, setting: Setting) -> float:
    """Sum over boundary vertices i and inward neighbors j of
    (c_i/d_i)/P_ij - 1.  A negative value certifies that no bulk solution is
    compatible with the given boundary-incident lengths."""
    _require_tree(g)
    _require_edges(g, setting.lengths)
    import numpy as np
    sigma = region.vertices
    boundary = sorted(region.boundary_vertices)
    lengths, _ = _unit_scaled(setting.lengths)
    ratios = _vertex_ratios(g, boundary, {key: k for k, key in enumerate(lengths)})
    rho, _ = ratios(np.array(list(lengths.values()), dtype=float))
    total = 0.0
    for i, ratio in zip(boundary, rho.tolist()):
        for j in g.neighbors(i):
            if j in sigma:
                total += ratio / lengths[edge_key(i, j)] - 1.0
    return total


def geometric_half_half_stats(q: int, r: float):
    """Curvature and c^2/d ratio of the geometric half-half solution on the
    degree-(q+1) tree with progression ratio r.

    Returns ((3-q)/(1+q) - 2r/(1+r^2), (q+1)(1+r)^2 / (2(1+r^2))).
    The formulas need an even vertex degree, so q must be odd.
    """
    if q < 1 or q % 2 == 0:
        raise BadParams(f"q must be odd and >= 1, got {q}")
    if not 0 < r < math.inf:
        raise BadParams(f"progression ratio must be positive, got {r}")
    kappa = (3.0 - q) / (1.0 + q) - 2.0 * r / (1.0 + r * r)
    ratio = (q + 1.0) * (1.0 + r) ** 2 / (2.0 * (1.0 + r * r))
    return kappa, ratio


def two_progression_x(alpha: float, y: float):
    """Roots x of  alpha*y*(y+1)*(x^2+1) = x*(x+1)*(y^2+1).

    These are the admissible second ratios of a two-progression solution with
    scale alpha and first ratio y; the caller filters for positivity.
    """
    if not alpha > 0 or not y > 0:
        raise BadParams("alpha and y must be positive")
    a = alpha * y * (y + 1.0) - (y * y + 1.0)
    b = -(y * y + 1.0)
    c = alpha * y * (y + 1.0)
    if abs(a) < 1e-14 * (abs(b) + abs(c)):
        # quadratic degenerates to a line (the constant solution sits here)
        return (-c / b,)
    disc = b * b - 4.0 * a * c
    if disc < 0:
        raise BadParams(f"discriminant {disc} is negative")
    root = math.sqrt(disc)
    return tuple(sorted({(-b - root) / (2.0 * a), (-b + root) / (2.0 * a)}))
