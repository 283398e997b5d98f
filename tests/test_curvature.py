from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings

import graphgrav.curvature as curvature
from graphgrav import (
    GeodesicTable,
    action_plain,
    build_graph,
    edge_curvatures,
    gen_complete,
    gen_cycle,
    gen_hex_region,
    gen_tree,
    kappa,
    kappa_t,
    kappa_tree_closed,
    sigma_edges,
    HexRegionSpec,
)
from graphgrav.curvature import _kappa_transport
from graphgrav.errors import BadParams, NotAnEdge

from conftest import connected_graphs, random_connected_graph


class TestKappaT:
    def test_line_value(self, line3, line3_geo):
        # W = 1 - t on the unit path, so kappa_t = t
        assert kappa_t(line3_geo, "a", "b", 0.3) == pytest.approx(0.3)

    def test_linear_regime_near_zero(self, line3, line3_geo):
        t = 1e-6
        limit = kappa(line3_geo, "a", "b")
        assert kappa_t(line3_geo, "a", "b", t) == pytest.approx(t * limit, rel=1e-9)

    def test_triangle_upper_bound(self):
        g = gen_complete(3)
        geo = GeodesicTable(g)
        val = kappa_t(geo, "0", "1", 0.3)
        c0, d0 = geo.walk("0")[:2]
        c1, d1 = geo.walk("1")[:2]
        assert val <= 0.3 / geo.dist("0", "1") * (c0 / d0 + c1 / d1) + 1e-12

    def test_not_an_edge(self, line3, line3_geo):
        with pytest.raises(NotAnEdge):
            kappa_t(line3_geo, "a", "c", 0.3)

    def test_t_out_of_range(self, line3, line3_geo):
        with pytest.raises(BadParams, match=r"t must lie in \(0, 1\), got 1.0"):
            kappa_t(line3_geo, "a", "b", 1.0)

    def test_limit_reports_no_convergence(self, line3, line3_geo, monkeypatch):
        from graphgrav.errors import NoConvergence

        monkeypatch.setattr(curvature, "MAX_HALVINGS", 0)
        with pytest.raises(NoConvergence):
            _kappa_transport(line3_geo, "a", "b")


class TestKappaLimit:
    def test_short_path(self, line3, line3_geo):
        assert kappa(line3_geo, "a", "b") == pytest.approx(1.0)

    def test_tree_interior(self):
        g = gen_tree(3, 2)
        geo = GeodesicTable(g)
        assert kappa(geo, "0", "1") == pytest.approx(-1.0)

    def test_unit_triangle(self):
        g = gen_complete(3)
        geo = GeodesicTable(g)
        assert kappa(geo, "0", "1") == pytest.approx(1.5)

    def test_concave_in_t(self, rng):
        for _ in range(15):
            g = random_connected_graph(rng, rng.randint(4, 7))
            geo = GeodesicTable(g)
            edges = list(g.edges)
            u, v = edges[rng.randrange(len(edges))]
            k1, k2, k4 = (kappa_t(geo, u, v, t) for t in (0.1, 0.2, 0.4))
            assert k2 >= (2.0 * k1 + k4) / 3.0 - 1e-9

    @pytest.mark.parametrize("g", [gen_complete(4), gen_tree(2, 3)], ids=["K4", "tree"])
    def test_slope_holds_down_to_the_last_halving(self, g):
        # the t-scale masses stay in the plan however small they get, so
        # kappa_t/t keeps the limit's value at every t that kappa may try.
        # Leaf edges are left out: a leaf's stay mass 1 - t is rounded, and
        # the flows that carry its t-scale mass are differences of masses
        # near 1, with an absolute error of about 1e-16 at any t
        geo = GeodesicTable(g)
        for u, v in g.edges:
            if len(g.neighbors(u)) == 1 or len(g.neighbors(v)) == 1:
                continue
            limit = _kappa_transport(geo, u, v)
            for k in range(61):
                t = 0.25 * 2.0**-k
                assert kappa_t(geo, u, v, t) / t == pytest.approx(limit, rel=1e-10)

    @given(connected_graphs())
    @settings(max_examples=60, deadline=None)
    def test_independent_of_query_history(self, g):
        # a geodesic must not depend on which queries came before it, or the
        # curvature of an edge would depend on the order the edges are visited
        per_edge = action_plain(g, GeodesicTable(g)).per_edge
        for u, v in g.edges:
            assert per_edge[(u, v)] == kappa(GeodesicTable(g), u, v)
        assert per_edge == edge_curvatures(GeodesicTable(g), g.edges[::-1])


class TestTreeClosedForm:
    def test_leaf_edge(self, line3, line3_geo):
        assert kappa_tree_closed(line3_geo, "a", "b") == pytest.approx(1.0)

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_uniform_tree(self, q):
        g = gen_tree(q, 2)
        geo = GeodesicTable(g)
        # interior edge of the constant tree
        assert kappa_tree_closed(geo, "0", "1") == pytest.approx(2.0 * (1 - q) / (1 + q))

    def test_matches_limit_on_random_trees(self, rng):
        for q, depth in ((1, 3), (2, 2), (3, 2)):
            g = gen_tree(q, depth)
            lengths = {key: rng.uniform(0.5, 2.0) for key in g.lengths()}
            g = g.with_lengths(lengths)
            geo = GeodesicTable(g)
            for u, v in g.edges:
                assert _kappa_transport(geo, u, v) == pytest.approx(
                    kappa_tree_closed(geo, u, v), abs=1e-8
                )

    def test_lower_bounds_kappa_on_hexagons(self, rng):
        g, region = gen_hex_region(HexRegionSpec(1))
        lengths = {key: rng.uniform(0.5, 2.0) for key in g.lengths()}
        g2 = g.with_lengths(lengths)
        geo = GeodesicTable(g2)
        for u, v in sigma_edges(g2, region):
            assert kappa_tree_closed(geo, u, v) <= _kappa_transport(geo, u, v) + 1e-9

    def test_strong_boundary_equality(self):
        # constant lengths everywhere: the transport saturates the tree plan
        g, region = gen_hex_region(HexRegionSpec(1))
        geo = GeodesicTable(g)
        for u, v in sigma_edges(g, region):
            assert _kappa_transport(geo, u, v) == pytest.approx(
                kappa_tree_closed(geo, u, v), abs=1e-9
            )


def closed_form_exact(geo, i, j):
    """`kappa_tree_closed` in exact arithmetic on the table's float geodesics."""
    p = Fraction(geo.dist(i, j))
    sums = []
    for w in (i, j):
        inv = [1 / Fraction(q) for _, q in geo.walk(w)[2]]
        sums.append((sum(inv), sum(x * x for x in inv)))
    (ci, di), (cj, dj) = sums
    return 2 / (p * p) * (1 / di + 1 / dj) - (ci / di + cj / dj) / p


class TestDoubleStarDispatch:
    """kappa takes the tree closed form, with no solve, where every cost
    between the closed neighbourhoods of the edge is a double-star distance,
    and the halving limit everywhere else."""

    def test_unit_square_solves(self):
        # no common neighbours, but the far ends of each edge are 1 apart, not
        # the 3 of a double star: the closed form reads 0, the transport 1
        g = gen_cycle(4)
        geo = GeodesicTable(g)
        for u, v in g.edges:
            assert kappa_tree_closed(geo, u, v) == pytest.approx(0.0, abs=1e-15)
            assert kappa(geo, u, v) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("far", [3.0, 3.5, 5.0])
    def test_square_with_a_long_fourth_edge(self, far):
        # d(0, 3) = min(far, 3.5): the neighbours 0 and 3 of the edge 1-2 are at
        # their double-star distance exactly when the fourth edge is at least
        # as long as the path 0-1-2-3; no other edge ever is
        g = build_graph(
            list("0123"), [("0", "1", 0.5), ("1", "2", 1.0), ("2", "3", 2.0), ("0", "3", far)]
        )
        for u, v in g.edges:
            geo = GeodesicTable(g)
            got = kappa(geo, u, v)
            assert (not geo._blocks) == (far >= 3.5 and (u, v) == ("1", "2"))
            assert got == pytest.approx(_kappa_transport(geo, u, v), abs=1e-10)

    def test_non_edges_raise(self):
        # a-c share the neighbour b; a-d share none and fail the distance test
        g = build_graph(list("abcd"), [("a", "b", 1.0), ("b", "c", 1.0), ("c", "d", 1.0)])
        geo = GeodesicTable(g)
        for u, v in (("a", "c"), ("a", "d")):
            with pytest.raises(NotAnEdge):
                kappa(geo, u, v)

    @given(connected_graphs(1e-3, 1e2))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_halving_limit(self, g):
        geo = GeodesicTable(g)
        for u, v in g.edges:
            want = _kappa_transport(geo, u, v)
            assert abs(kappa(geo, u, v) - want) <= 1e-10 * max(1.0, abs(want))

    @given(connected_graphs())
    @settings(max_examples=150, deadline=None)
    def test_closed_form_is_exact_over_the_length_box(self, g):
        # the halving limit itself is off by up to about 6e-8 at the extreme
        # length ratios of [1e-6, 1e3], so the oracle here is the closed form
        # in exact arithmetic; edges that would solve read None
        geo = GeodesicTable(g)
        with mock.patch.object(curvature, "_kappa_transport", return_value=None):
            shortcut = {(u, v): kappa(geo, u, v) for u, v in g.edges}
        for (u, v), got in shortcut.items():
            if got is not None:
                want = closed_form_exact(geo, u, v)
                assert abs(Fraction(got) - want) <= 1e-13 * max(1, abs(want))
