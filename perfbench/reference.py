"""Reference computations for the benchmark's correctness checks.

Nothing here imports graphgrav.  A graph is given as a vertex list and a list
of (u, v, length) triples; distances come from ``scipy.sparse.csgraph`` and
the Lin-Lu-Yau curvature from a linear program written from its limit-free
definition (Münch and Wojciechowski, 2019):

    kappa(x, y) = min { (Lf(x) - Lf(y)) / d(x, y) :
                        f 1-Lipschitz, f(y) - f(x) = d(x, y) }

with the walk Laplacian Lf(x) = sum_w p_x(w) (f(w) - f(x)) and
p_x(w) proportional to 1 / d(x, w)^2 over the graph neighbours w of x.
Only the values of f on the two closed neighbourhoods enter, and a function
that is 1-Lipschitz there extends to the whole graph, so the Lipschitz
constraints are written on that set alone.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

# Well below the checks' 1e-9, so that they do not rest on HiGHS's 1e-7 defaults.
LP_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


class RefGraph:
    """Plain weighted graph with all-pairs geodesic distances."""

    def __init__(self, vertices, edges):
        self.vertices = list(vertices)
        self.index = {v: k for k, v in enumerate(self.vertices)}
        self.edges = [(u, v, float(ell)) for u, v, ell in edges]
        self.adj = {v: [] for v in self.vertices}
        for u, v, _ in self.edges:
            self.adj[u].append(v)
            self.adj[v].append(u)
        n = len(self.vertices)
        rows = [self.index[u] for u, _, _ in self.edges]
        cols = [self.index[v] for _, v, _ in self.edges]
        vals = [ell for _, _, ell in self.edges]
        mat = csr_matrix((vals, (rows, cols)), shape=(n, n))
        self.dist = dijkstra(mat, directed=False)

    def d(self, a, b):
        return float(self.dist[self.index[a], self.index[b]])

    def walk(self, x):
        """Neighbour weights p_x(w), proportional to 1/d(x, w)^2."""
        inv2 = {w: 1.0 / self.d(x, w) ** 2 for w in self.adj[x]}
        total = sum(inv2.values())
        return {w: val / total for w, val in inv2.items()}

    def sums(self, x):
        """(sum 1/P, sum 1/P^2) over the neighbours of x, P the geodesic."""
        ps = [self.d(x, w) for w in self.adj[x]]
        return sum(1.0 / p for p in ps), sum(1.0 / (p * p) for p in ps)


def lly_kappa(rg: RefGraph, x, y) -> float:
    """Lin-Lu-Yau curvature of the edge (x, y) from the limit-free LP."""
    px, py = rg.walk(x), rg.walk(y)
    support = sorted({x, y} | set(px) | set(py), key=rg.vertices.index)
    col = {v: k for k, v in enumerate(support)}
    n = len(support)
    dxy = rg.d(x, y)
    obj = np.zeros(n)
    for w, m in px.items():
        obj[col[w]] += m
    obj[col[x]] -= 1.0
    for w, m in py.items():
        obj[col[w]] -= m
    obj[col[y]] += 1.0
    a_ub = []
    b_ub = []
    for a in support:
        for b in support:
            if a != b:
                row = np.zeros(n)
                row[col[a]] = 1.0
                row[col[b]] = -1.0
                a_ub.append(row)
                b_ub.append(rg.d(a, b))
    a_eq = np.zeros((2, n))
    a_eq[0, col[y]] = 1.0
    a_eq[0, col[x]] = -1.0
    a_eq[1, col[x]] = 1.0  # pin f(x) = 0; the objective ignores constants
    res = linprog(
        obj / dxy,
        A_ub=np.array(a_ub),
        b_ub=np.array(b_ub),
        A_eq=a_eq,
        b_eq=np.array([dxy, 0.0]),
        bounds=[(None, None)] * n,
        method="highs",
        options=LP_OPTIONS,
    )
    if res.status != 0:
        raise RuntimeError(f"reference LP failed on edge ({x!r}, {y!r}): {res.message}")
    return float(res.fun)


def tree_kappa(rg: RefGraph, x, y) -> float:
    """2/P^2 (1/d_x + 1/d_y) - (c_x/d_x + c_y/d_y)/P, exact on trees and a
    lower bound for the curvature on any graph."""
    p = rg.d(x, y)
    cx, dx = rg.sums(x)
    cy, dy = rg.sums(y)
    return (2.0 / (p * p)) * (1.0 / dx + 1.0 / dy) - (cx / dx + cy / dy) / p


def action(rg: RefGraph) -> float:
    """Sum of the LP curvature over every edge."""
    return math.fsum(lly_kappa(rg, u, v) for u, v, _ in rg.edges)


def ghy_action(rg: RefGraph, interior, boundary) -> float:
    """Tree action with the Dirichlet term in vertex-sum form:
    sum over interior (2 - c^2/d) minus sum over boundary c^2/d."""
    total = 0.0
    for i in interior:
        c, d = rg.sums(i)
        total += 2.0 - c * c / d
    for i in boundary:
        c, d = rg.sums(i)
        total -= c * c / d
    return total


def teom_residual(adj, length, i, j) -> float:
    """Tree equation of motion at edge (i, j), with rho = c/d:
    (rho_i^2 + rho_j^2) / P - rho_i - rho_j."""

    def rho(v):
        c = sum(1.0 / length(v, w) for w in adj[v])
        d = sum(1.0 / length(v, w) ** 2 for w in adj[v])
        return c / d

    ri, rj = rho(i), rho(j)
    return (ri * ri + rj * rj) / length(i, j) - ri - rj
