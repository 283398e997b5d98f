"""Tests of the benchmark's own code.

    python3 -m pytest perfbench

The reference computations must reproduce the paper's values without
graphgrav, and every workload's check must reject a result corrupted by a
small amount, so that no check passes vacuously.
"""

import dataclasses
import math

import pytest

import reference as ref
import tracing
import workloads
from worker import import_graphgrav

gg = import_graphgrav()


def ref_action(edges):
    vertices = sorted({v for e in edges for v in e[:2]})
    return ref.action(ref.RefGraph(vertices, edges))


def double_star(inner, x_others, y_others):
    """Edge (x, y) of length ``inner`` with pendant edges of the given
    lengths at x and at y: on a tree the curvature of (x, y) sees no more."""
    edges = [("x", "y", inner)]
    edges += [("x", f"a{k}", ell) for k, ell in enumerate(x_others)]
    edges += [("y", f"b{k}", ell) for k, ell in enumerate(y_others)]
    return ref.RefGraph(sorted({v for e in edges for v in e[:2]}), edges)


def test_triangle_extremes():
    assert ref_action([("a", "b", 1.0), ("b", "c", 1.0), ("a", "c", 1.0)]) == pytest.approx(4.5, abs=1e-12)
    assert ref_action([("a", "b", 1.0), ("b", "c", 1.0), ("a", "c", 2.0)]) == pytest.approx(3.6, abs=1e-12)


def test_square_minimum():
    s = 1.0 + math.sqrt(2.0)
    edges = [("a", "b", s), ("b", "c", s), ("c", "d", 1.0), ("a", "d", 1.0)]
    assert ref_action(edges) == pytest.approx(6.0 - 2.0 * math.sqrt(2.0), abs=1e-12)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_complete_graph_constant(n):
    edges = [(a, b, 1.0) for a in range(n) for b in range(a + 1, n)]
    assert ref_action(edges) == pytest.approx(n * n / 2.0, abs=1e-10)


@pytest.mark.parametrize("q", [1, 2, 3])
def test_constant_tree_curvature(q):
    rg = double_star(1.0, [1.0] * q, [1.0] * q)
    want = 2.0 * (1 - q) / (1 + q)
    assert ref.lly_kappa(rg, "x", "y") == pytest.approx(want, abs=1e-12)
    assert ref.tree_kappa(rg, "x", "y") == pytest.approx(want, abs=1e-12)


def test_geometric_half_half_curvature():
    # degree 4, ratio r = 2: two edges up and two down at every vertex, each
    # level 1/r as long as the one below.
    r = 2.0
    rg = double_star(1.0, [1.0, r, r], [1.0, 1.0 / r, 1.0 / r])
    assert ref.lly_kappa(rg, "x", "y") == pytest.approx(-0.8, abs=1e-12)
    assert ref.tree_kappa(rg, "x", "y") == pytest.approx(-0.8, abs=1e-12)


def test_residual_vanishes_on_solutions():
    r = 2.0
    lengths = {("x", "y"): 1.0, ("x", "a"): 1.0, ("x", "b"): r, ("x", "c"): r,
               ("y", "d"): 1.0, ("y", "e"): 1.0 / r, ("y", "f"): 1.0 / r}
    adj = {}
    for u, v in lengths:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)

    def length(u, v):
        return lengths.get((u, v), lengths.get((v, u)))

    assert abs(ref.teom_residual(adj, length, "x", "y")) < 1e-14
    lengths[("x", "b")] = 1.5
    assert abs(ref.teom_residual(adj, length, "x", "y")) > 1e-3


def shifted(rep, key, delta):
    per_edge = dict(rep.per_edge)
    per_edge[key] += delta
    return dataclasses.replace(rep, per_edge=per_edge, total=rep.total + delta)


def test_action_dense_rejects_shifted_kappa():
    work = workloads.ActionDense(gg, 1)
    inp = work.inputs[0]
    rep = work.operate(inp)
    assert work.check(inp, rep) == []
    assert work.check(inp, shifted(rep, inp.lp_edges[0], 1e-6))


def test_action_sparse_rejects_shifted_kappa():
    work = workloads.ActionSparse(gg, 1)
    inp = work.inputs[0]
    out = work.operate(inp)
    assert work.check(inp, out) == []
    for part, key in (("hex_plain", inp.hex_lp_edges[0]), ("tree_plain", inp.tree_lp_edges[0])):
        bad = dict(out)
        bad[part] = shifted(out[part], key, 1e-6)
        assert work.check(inp, bad)


def test_eom_newton_rejects_moved_length():
    work = workloads.EomNewton(gg, 1)
    inp = work.inputs[0]
    res = work.operate(inp)
    assert work.check(inp, res) == []
    lengths = dict(res.setting.lengths)
    lengths[work.interior[3]] *= 1.0 + 1e-6
    bad = dataclasses.replace(res, setting=gg.Setting(lengths))
    assert work.check(inp, bad)


def test_extremal_search_rejects_shifted_objective():
    work = workloads.ExtremalSearch(gg, 1)
    inp = work.inputs[0]
    res = work.operate(inp)
    assert work.check(inp, res) == []
    assert work.check(inp, dataclasses.replace(res, objective=res.objective + 1e-6))


def test_tracer_counts_and_restores():
    original = gg.curvature.kappa
    g = gg.gen_complete(4)
    with tracing.Tracer(gg) as tracer:
        gg.action_plain(g, gg.GeodesicTable(g))
    assert gg.curvature.kappa is original
    layers = tracer.metrics(1, {})
    assert layers["curvature.limits"] == 6
    assert layers["curvature.solves_per_limit"] == 2.0
    assert layers["transport.solves"] == 12
    # dist(i, j) reads row j when it exists, so the last vertex needs no row
    assert layers["graph.rows"] == 3
    assert layers["transport.cells_mean"] == 16
