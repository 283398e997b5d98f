import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphgrav import (
    GeodesicTable,
    Setting,
    action_ghy,
    action_plain,
    action_region_plain,
    bound_upper_global,
    boundary_minimizer,
    boundary_term,
    build_graph,
    constant_setting,
    extract_region,
    find_perfect_matching,
    gen_complete,
    gen_cycle,
    gen_hex_region,
    gen_tree,
    hex_strong_fixed_edges,
    local_sums,
    matching_setting,
    partial_action_complete,
    partial_cost,
    ratio_bounds,
    sigma_edges,
    tree_action_hex,
    HexRegionSpec,
)
from graphgrav.errors import (
    NonpositiveInput,
    NonUniqueInwardEdge,
    NotAnEdge,
    NotATree,
    NotComplete,
    NotHexRegion,
)

from conftest import random_connected_graph


def ball(g, root, radius):
    depth = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            for w in g.neighbors(v):
                if w not in depth:
                    depth[w] = depth[v] + 1
                    nxt.append(w)
        frontier = nxt
    return [v for v, d in depth.items() if d <= radius]


class TestPlainAction:
    def test_triangle_constant(self):
        g = gen_complete(3)
        assert action_plain(g, GeodesicTable(g)).total == pytest.approx(4.5)

    def test_triangle_112(self):
        g = gen_complete(3).with_lengths(
            {("0", "1"): 1.0, ("1", "2"): 1.0, ("0", "2"): 2.0}
        )
        assert action_plain(g, GeodesicTable(g)).total == pytest.approx(3.6)

    def test_square_minimum(self):
        s = 1.0 + math.sqrt(2.0)
        g = gen_cycle(4).with_lengths(
            {("0", "1"): s, ("1", "2"): s, ("2", "3"): 1.0, ("0", "3"): 1.0}
        )
        assert action_plain(g, GeodesicTable(g)).total == pytest.approx(
            6.0 - 2.0 * math.sqrt(2.0)
        )

    def test_total_is_edge_sum(self, rng):
        g = random_connected_graph(rng, 5)
        rep = action_plain(g, GeodesicTable(g))
        assert rep.total == pytest.approx(sum(rep.per_edge.values()))

    def test_rejects_non_edge(self, line3, line3_geo):
        with pytest.raises(NotAnEdge):
            action_plain(line3, line3_geo, [("a", "b"), ("a", "c")])


class TestGhy:
    def test_small_tree_value(self):
        g = gen_tree(2, 2)
        region = extract_region(g, ball(g, "0", 1))
        assert action_ghy(g, region).total == pytest.approx(-10.0)

    def test_constant_boundary_minimality(self, rng):
        g = gen_tree(2, 3)
        region = extract_region(g, ball(g, "0", 2))
        const = action_ghy(g, region).total
        inner = {
            key
            for key in g.lengths()
            if key in {tuple(sorted(e)) for e in sigma_edges(g, region)}
        }
        for _ in range(60):
            lengths = {key: 1.0 for key in g.lengths()}
            for key in inner:
                lengths[key] = rng.uniform(0.4, 2.5)
            assert action_ghy(g.with_lengths(lengths), region).total >= const - 1e-9

    def test_matching_limit_vertex_terms(self):
        # with a vanishing matching each vertex ratio tends to 1
        g = gen_tree(1, 2)  # path of 4 edges, no perfect matching; use 3-edge path
        g = build_graph(
            ["0", "1", "2", "3"],
            [("0", "1", 1.0), ("1", "2", 1.0), ("2", "3", 1.0)],
        )
        m = find_perfect_matching(g)
        s = matching_setting(g, m, 1e-4)
        g2 = g.with_lengths(s.lengths)
        geo = GeodesicTable(g2)
        for v in g2.vertices:
            c, d = local_sums(g2, geo, v)
            assert c * c / d == pytest.approx(1.0, abs=1e-3)

    def test_matching_dominates_random(self, rng):
        g = build_graph(
            ["0", "1", "2", "3"],
            [("0", "1", 1.0), ("1", "2", 1.0), ("2", "3", 1.0)],
        )
        region = extract_region(g, list(g.vertices))
        m = find_perfect_matching(g)
        best_matching = action_ghy(
            g.with_lengths(matching_setting(g, m, 1e-4).lengths), region
        ).total
        for _ in range(200):
            lengths = {key: rng.uniform(0.4, 2.5) for key in g.lengths()}
            assert action_ghy(g.with_lengths(lengths), region).total <= best_matching

    def test_requires_tree(self):
        g = gen_complete(3)
        region = extract_region(g, list(g.vertices))
        with pytest.raises(NotATree):
            action_ghy(g, region)

    def test_requires_unique_inward_edge(self):
        # region with an isolated boundary pair: no edge into the interior
        g = build_graph(
            ["0", "1", "2"], [("0", "1", 1.0), ("1", "2", 1.0)]
        )
        region = extract_region(g, ["0"])
        with pytest.raises(NonUniqueInwardEdge):
            action_ghy(g, region)


class TestRegionPlain:
    def test_matches_direct_sum_on_random_trees(self, rng):
        for q, depth in ((2, 3), (3, 2)):
            g = gen_tree(q, depth)
            lengths = {key: rng.uniform(0.5, 2.0) for key in g.lengths()}
            g = g.with_lengths(lengths)
            region = extract_region(g, ball(g, "0", depth - 1))
            direct = action_plain(g, GeodesicTable(g), sigma_edges(g, region)).total
            closed = action_region_plain(g, region).total
            assert closed == pytest.approx(direct, abs=1e-9)

    def test_boundary_term_vanishing_edge(self):
        # a matching edge of length eps drives the boundary term to 1
        assert boundary_term(1.0 / 1e-8, 2.0, 2.0) == pytest.approx(1.0, abs=1e-7)

    @given(
        st.floats(min_value=0.01, max_value=100.0),
        st.floats(min_value=0.01, max_value=10.0),
        st.floats(min_value=0.01, max_value=10.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_boundary_term_at_most_one(self, p, c_out, d_out):
        assert boundary_term(1.0 / p, c_out, d_out) <= 1.0 + 1e-12


class TestBoundaryMinimizer:
    @pytest.mark.parametrize(
        "c, d, want",
        [
            (2.0, 2.0, 0.5 + math.sqrt(3.0) / 2.0),
            (1.0, 1.0, 1.0 + math.sqrt(2.0)),
        ],
    )
    def test_closed_form(self, c, d, want):
        assert boundary_minimizer(c, d) == pytest.approx(want, abs=1e-5)

    def test_scan_confirms_minimum(self):
        c_out = d_out = 2.0
        best_p = boundary_minimizer(c_out, d_out)
        # golden-section search over (0, 10] as an independent check
        phi = (math.sqrt(5.0) - 1.0) / 2.0
        lo, hi = 1e-3, 10.0
        for _ in range(80):
            m1 = hi - phi * (hi - lo)
            m2 = lo + phi * (hi - lo)
            if boundary_term(1.0 / m1, c_out, d_out) < boundary_term(1.0 / m2, c_out, d_out):
                hi = m2
            else:
                lo = m1
        assert 0.5 * (lo + hi) == pytest.approx(best_p, abs=1e-6)

    def test_rejects_nonpositive(self):
        with pytest.raises(NonpositiveInput):
            boundary_minimizer(0.0, 1.0)


class TestHexTreeAction:
    def test_constant_value(self):
        g, region = gen_hex_region(HexRegionSpec(1))
        rep = tree_action_hex(g, GeodesicTable(g), region)
        n_int = len(region.interior)
        n_bdy = len(region.boundary_vertices)
        assert rep.total == pytest.approx(-n_int - n_bdy / 3.0)
        assert rep.closed_form == pytest.approx(rep.total, abs=1e-9)

    def test_identity_with_free_interior(self, rng):
        g, region = gen_hex_region(HexRegionSpec(1))
        free = [k for k in g.lengths() if k not in hex_strong_fixed_edges(g, region)]
        lengths = {key: 1.0 for key in g.lengths()}
        for key in free:
            lengths[key] = rng.uniform(0.5, 2.0)
        g2 = g.with_lengths(lengths)
        rep = tree_action_hex(g2, GeodesicTable(g2), region)
        assert rep.closed_form == pytest.approx(rep.total, abs=1e-9)

    def test_lower_bounds_plain_action(self, rng):
        g, region = gen_hex_region(HexRegionSpec(1))
        lengths = {key: rng.uniform(0.5, 2.0) for key in g.lengths()}
        g2 = g.with_lengths(lengths)
        geo = GeodesicTable(g2)
        s_t = tree_action_hex(g2, geo, region).total
        s_plain = action_plain(g2, geo, sigma_edges(g2, region)).total
        assert s_t <= s_plain + 1e-9

    def test_rejects_wrong_degree(self):
        g = gen_tree(3, 2)  # interior degree 4
        region = extract_region(g, ball(g, "0", 1))
        with pytest.raises(NotHexRegion):
            tree_action_hex(g, GeodesicTable(g), region)


class TestBounds:
    def test_complete_graph_bound(self):
        for n in (3, 4, 5):
            g = gen_complete(n)
            assert bound_upper_global(g) == n * (n - 1)

    def test_single_edge_tree(self):
        # one edge between two leaves: curvature 2, bound 2|E| = 2 is tight
        g = build_graph(["a", "b"], [("a", "b", 1.0)])
        rep = action_plain(g, GeodesicTable(g))
        assert rep.total == pytest.approx(2.0)
        assert rep.bound_upper == 2.0
        assert rep.total <= rep.bound_upper + 1e-12

    def test_random_graphs_below_bound(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(4, 7))
            rep = action_plain(g, GeodesicTable(g))
            assert rep.total <= rep.bound_upper + 1e-9


class TestRatioBounds:
    def test_constant_attains_degree(self):
        g = gen_complete(4)
        geo = GeodesicTable(g)
        ratio, ok = ratio_bounds(g, geo, "0")
        assert ratio == pytest.approx(g.degree("0"))
        assert ok

    def test_matching_limit(self):
        g = gen_complete(4)
        m = find_perfect_matching(g)
        g2 = g.with_lengths(matching_setting(g, m, 1e-4).lengths)
        geo = GeodesicTable(g2)
        for v in g2.vertices:
            ratio, ok = ratio_bounds(g2, geo, v)
            assert ratio == pytest.approx(1.0, abs=1e-3)
            assert ok

    def test_two_lengths(self):
        g = build_graph(["a", "b", "c"], [("a", "b", 1.0), ("b", "c", 2.0)])
        geo = GeodesicTable(g)
        ratio, ok = ratio_bounds(g, geo, "b")
        assert ratio == pytest.approx(9.0 / 5.0)
        assert ok
        # a leaf sits exactly at the lower end, which it may
        assert ratio_bounds(g, geo, "a") == (1.0, True)


class TestPartialCosts:
    def test_complete_graphs(self):
        for n in (3, 4):
            g = gen_complete(n)
            assert partial_action_complete(g, GeodesicTable(g)) == pytest.approx(n * n / 2.0)

    def test_any_lengths(self, rng):
        g = gen_complete(4)
        lengths = {key: rng.uniform(0.5, 2.0) for key in g.lengths()}
        g2 = g.with_lengths(lengths)
        assert partial_action_complete(g2, GeodesicTable(g2)) == pytest.approx(8.0)

    def test_rejects_incomplete(self):
        g = gen_cycle(4)
        with pytest.raises(NotComplete):
            partial_action_complete(g, GeodesicTable(g))

    def test_pairing_lower_bound(self, rng):
        # 2 W >= W^p(i->j) + W^p(j->i) at small t
        from graphgrav import neighbor_distribution, wasserstein

        t = 1e-4
        for n in (4, 5, 6):
            g = gen_complete(n)
            lengths = {key: rng.uniform(0.5, 2.0) for key in g.lengths()}
            g2 = g.with_lengths(lengths)
            geo = GeodesicTable(g2)
            for u, v in g2.edges:
                w = wasserstein(
                    g2,
                    geo,
                    neighbor_distribution(g2, geo, u, t),
                    neighbor_distribution(g2, geo, v, t),
                ).cost
                paired = partial_cost(g2, geo, u, v, t) + partial_cost(g2, geo, v, u, t)
                assert 2.0 * w >= paired - 1e-12
