"""Edge-length equations of motion on trees.

On a tree the geodesic between neighbors is the edge itself, so every
quantity here is a rational function of the edge lengths; no transport solve
is involved.  Leaves of a finite tree are read as the cut of a deeper tree:
residuals are only defined on interior edges, whose endpoints both have their
full neighborhoods present.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    BadParams,
    BoundaryEdge,
    NegativeDiscriminant,
    NonpositiveLength,
    NonpositiveScale,
    NotAnEdge,
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


def _length_of(g, setting, u, v):
    key = edge_key(u, v)
    if setting is None:
        return g.length(u, v)
    if key not in setting:
        raise BadParams(f"setting does not cover edge {key!r}")
    return setting[key]


def _vertex_sums(g, setting, i):
    inv = 0.0
    inv2 = 0.0
    for w in g.neighbors(i):
        ell = _length_of(g, setting, i, w)
        inv += 1.0 / ell
        inv2 += 1.0 / (ell * ell)
    return inv, inv2


def interior_edges(g: WeightedGraph):
    """Edges whose endpoints both have their full neighborhoods present,
    i.e. neither endpoint is a leaf of the truncation."""
    return tuple(
        (u, v) for u, v in g.edges if g.degree(u) > 1 and g.degree(v) > 1
    )


def teom_residual(g: WeightedGraph, setting: Setting, i, j) -> float:
    """Residual of the tree equation of motion at the edge between i and j:

        (c_i^2/d_i^2 + c_j^2/d_j^2) / P - c_i/d_i - c_j/d_j
    """
    _require_tree(g)
    if not g.has_edge(i, j):
        raise NotAnEdge(f"({i!r}, {j!r}) is not an edge")
    if g.degree(i) <= 1 or g.degree(j) <= 1:
        raise BoundaryEdge(
            f"edge ({i!r}, {j!r}) touches a truncation leaf; residual undefined"
        )
    p = _length_of(g, setting, i, j)
    ci, di = _vertex_sums(g, setting, i)
    cj, dj = _vertex_sums(g, setting, j)
    ri = ci / di
    rj = cj / dj
    return (ri * ri + rj * rj) / p - ri - rj


def verify_solution(g: WeightedGraph, setting: Setting, tol: float = 1e-9) -> EomReport:
    """Residual of every interior edge; a solution keeps them all below tol."""
    _require_tree(g)
    residuals = {}
    worst = 0.0
    for u, v in interior_edges(g):
        r = teom_residual(g, setting, u, v)
        residuals[edge_key(u, v)] = r
        worst = max(worst, abs(r))
    return EomReport(residuals=residuals, max_abs_residual=worst, is_solution=worst < tol)


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
    total = 0.0
    for i in sorted(region.boundary_vertices, key=repr):
        ci, di = _vertex_sums(g, setting, i)
        ratio = ci / di
        for j in g.neighbors(i):
            if j in sigma:
                total += ratio / _length_of(g, setting, i, j) - 1.0
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
