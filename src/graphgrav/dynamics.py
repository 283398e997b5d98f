"""Edge-length equations of motion on trees.

On a tree the geodesic between neighbors is the edge itself, so every
quantity here is a rational function of the edge lengths; no transport solve
is involved.  Leaves of a finite tree are read as the cut of a deeper tree:
residuals are only defined on interior edges, whose endpoints both have their
full neighborhoods present.

The tree equation of motion is computed in one place, ``_tree_system``, over
edge and half-edge index arrays: ``search.newton_solve_teom`` drives it over
the free lengths, and ``verify_solution`` evaluates it with every edge fixed.
``nogo_indicator`` reads its vertex sums from the same helper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadParams,
    NegativeDiscriminant,
    NonpositiveLength,
    NonpositiveScale,
    NotATree,
    QNotOdd,
    RatioNotGreaterThanOne,
)
from .graph import Region, WeightedGraph, edge_key


@dataclass(frozen=True)
class Setting:
    """An assignment edge -> positive length, the unknown of the equations
    of motion.  May be partial (boundary data) or cover all of E(g)."""

    lengths: dict

    def __post_init__(self):
        for key, val in self.lengths.items():
            if not val > 0 or not math.isfinite(val):
                raise NonpositiveLength(f"length for edge {key!r} must be positive, got {val}")

    def __getitem__(self, key):
        return self.lengths[key]

    def __contains__(self, key):
        return key in self.lengths

    def merged_with(self, other: "Setting") -> "Setting":
        out = dict(self.lengths)
        out.update(other.lengths)
        return Setting(out)


def setting_from_pairs(pairs) -> Setting:
    """Setting from (u, v, length) triples."""
    return Setting({edge_key(u, v): float(ell) for u, v, ell in pairs})


@dataclass(frozen=True)
class EomReport:
    residuals: dict
    max_abs_residual: float
    is_solution: bool


def is_tree(g: WeightedGraph) -> bool:
    return g.num_edges == len(g.vertices) - 1


def _require_tree(g):
    if not is_tree(g):
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


def verify_solution(g: WeightedGraph, setting: Setting, tol: float = 1e-9) -> EomReport:
    """Residual of every interior edge; a solution keeps them all below tol."""
    _require_tree(g)
    interior = interior_edges(g)
    residual, _ = _tree_system(g, interior, (), setting.lengths)
    values = residual(np.zeros(0)).tolist()
    worst = max(map(abs, values), default=0.0)
    return EomReport(dict(zip(interior, values)), worst, worst < tol)


def scale_setting(setting: Setting, lam: float) -> Setting:
    """Divide every length by lam; solutions stay solutions."""
    if not lam > 0:
        raise NonpositiveScale("scale factor must be positive to keep lengths positive")
    return Setting({key: ell / lam for key, ell in setting.lengths.items()})


def t1_next_ratios(r: float):
    """Inverse-length ratios admissible after r on a line solution."""
    if not r > 1:
        raise RatioNotGreaterThanOne(f"ratio must exceed 1, got {r}")
    return tuple(sorted({r, (r + 1.0) / (r - 1.0)}))


def nogo_indicator(g: WeightedGraph, region: Region, setting: Setting) -> float:
    """Sum over boundary vertices i and inward neighbors j of
    (c_i/d_i)/P_ij - 1.  A negative value certifies that no bulk solution is
    compatible with the given boundary-incident lengths."""
    _require_tree(g)
    sigma = region.vertices
    boundary = sorted(region.boundary_vertices, key=repr)
    lengths = setting.lengths
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
        raise QNotOdd(f"q must be odd and >= 1, got {q}")
    if not r > 0:
        raise NonpositiveScale(f"progression ratio must be positive, got {r}")
    kappa = (3.0 - q) / (1.0 + q) - 2.0 * r / (1.0 + r * r)
    ratio = (q + 1.0) * (1.0 + r) ** 2 / (2.0 * (1.0 + r * r))
    return kappa, ratio


def two_progression_x(alpha: float, y: float):
    """Roots x of  alpha*y*(y+1)*(x^2+1) = x*(x+1)*(y^2+1).

    These are the admissible second ratios of a two-progression solution with
    scale alpha and first ratio y; the caller filters for positivity.
    """
    if not alpha > 0 or not y > 0:
        raise NonpositiveScale("alpha and y must be positive")
    a = alpha * y * (y + 1.0) - (y * y + 1.0)
    b = -(y * y + 1.0)
    c = alpha * y * (y + 1.0)
    if abs(a) < 1e-14 * (abs(b) + abs(c)):
        # quadratic degenerates to a line (the constant solution sits here)
        return (-c / b,)
    disc = b * b - 4.0 * a * c
    if disc < 0:
        raise NegativeDiscriminant(f"discriminant {disc} is negative")
    root = math.sqrt(disc)
    return tuple(sorted({(-b - root) / (2.0 * a), (-b + root) / (2.0 * a)}))


# Setting JSON interface: {"lengths": [{"u": str, "v": str, "len": float}]}

def setting_to_json(setting: Setting) -> dict:
    rows = [
        {"u": str(u), "v": str(v), "len": ell}
        for (u, v), ell in sorted(setting.lengths.items(), key=lambda kv: repr(kv[0]))
    ]
    return {"lengths": rows}


def setting_from_json(doc: dict) -> Setting:
    return setting_from_pairs(
        (str(e["u"]), str(e["v"]), float(e["len"])) for e in doc["lengths"]
    )
