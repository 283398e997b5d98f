import math
import random
import re
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphgrav import (
    GeodesicTable,
    action_ghy,
    action_plain,
    action_region_plain,
    build_graph,
    extract_region,
    find_perfect_matching,
    gen_complete,
    gen_cycle,
    gen_hex_region,
    gen_tree,
    hex_strong_fixed_edges,
    matching_setting,
    neighbor_distribution,
    ratio_bounds,
    sigma_edges,
    tree_action_hex,
    wasserstein,
    HexRegionSpec,
)
from graphgrav.curvature import _kappa_transport
from graphgrav.errors import (
    BadParams,
    NonUniqueInwardEdge,
    NotAnEdge,
    NotATree,
    NotHexRegion,
)

from conftest import connected_graphs, random_connected_graph

# the whole length box, and inside it a corner, a narrow band and unit lengths
LENGTH_BOX = st.one_of(
    connected_graphs(1e-6, 1e3),
    connected_graphs(1e-6, 1e-5),
    connected_graphs(0.5, 2.0),
    connected_graphs(1.0, 1.0),
)


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


def adjacent_boundary_tree():
    """A tree and a region of it whose boundary vertices b and c are adjacent."""
    edges = [("l", "i0", 1.0), ("i0", "b", 1.3), ("b", "c", 0.7), ("c", "j0", 1.1),
             ("j0", "m", 0.9), ("b", "p", 1.7), ("c", "q", 0.6)]
    g = build_graph(sorted({v for e in edges for v in e[:2]}), edges)
    return g, ["l", "i0", "b", "c", "j0", "m"]


class TestPlainAction:
    def test_triangle_constant(self):
        g = gen_complete(3)
        assert action_plain(g, GeodesicTable(g)).total == pytest.approx(4.5)

    def test_triangle_112(self):
        g = gen_complete(3).with_lengths(
            {("0", "1"): 1.0, ("1", "2"): 1.0, ("0", "2"): 2.0}
        )
        assert action_plain(g, GeodesicTable(g)).total == pytest.approx(3.6)

    def test_refuses_a_table_of_another_graph(self):
        # read through the unit triangle's table, the 1:1:2 triangle gave 4.5
        g = gen_complete(3)
        g2 = g.with_lengths({("0", "1"): 1.0, ("1", "2"): 1.0, ("0", "2"): 2.0})
        with pytest.raises(BadParams, match="built for another graph"):
            action_plain(g2, GeodesicTable(g))

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

    @given(
        connected_graphs(1e-3, 1e2),
        st.floats(math.log(1e-2), math.log(1e2)),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_ignores_common_scale_and_vertex_names(self, g, log_scale, rand):
        # S is a sum of dimensionless curvatures over the graph, so neither a
        # common rescaling nor a relabelling may move it; the drawn graphs hold
        # edges on both sides of kappa's closed-form dispatch
        s = action_plain(g, GeodesicTable(g)).total
        lam = math.exp(log_scale)
        scaled = g.with_lengths({key: lam * ell for key, ell in g.lengths().items()})
        names = list(g.vertices)
        rand.shuffle(names)
        name = dict(zip(g.vertices, names))
        renamed = build_graph(names, [(name[u], name[v], ell) for (u, v), ell in g.lengths().items()])
        for h in (scaled, renamed):
            assert abs(action_plain(h, GeodesicTable(h)).total - s) <= 1e-9 * max(1.0, abs(s))

    @given(LENGTH_BOX, st.integers(-7, 7))
    @settings(max_examples=150, deadline=None)
    def test_power_of_two_scale_is_exact_over_the_length_box(self, g, e):
        # a factor 2^e moves no mantissa, so every step of kappa scales
        # exactly; a general factor does not, and moves kappa by up to 2e-7
        rep = action_plain(g, GeodesicTable(g))
        scaled = g.with_lengths({key: math.ldexp(ell, e) for key, ell in g.lengths().items()})
        again = action_plain(scaled, GeodesicTable(scaled))
        assert again.per_edge == rep.per_edge
        assert again.total == rep.total

    @given(LENGTH_BOX)
    @settings(max_examples=150, deadline=None)
    def test_bounds_hold_over_the_length_box(self, g):
        # S <= 2|E| within the 1e-9 that `bounds` allows: a lone edge reads
        # kappa = 2 up to an ulp
        geo = GeodesicTable(g)
        rep = action_plain(g, geo)
        assert rep.total <= rep.bound_upper + 1e-9
        assert rep.bound_upper == 2 * g.num_edges
        assert all(ratio_bounds(geo, v)[1] for v in g.vertices)


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
            c, d = geo.walk(v)[:2]
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
        # a one-vertex region: its boundary vertex has no edge into the region
        g = build_graph(
            ["0", "1", "2"], [("0", "1", 1.0), ("1", "2", 1.0)]
        )
        region = extract_region(g, ["0"])
        with pytest.raises(NonUniqueInwardEdge):
            action_ghy(g, region)

    @pytest.mark.parametrize("action", [action_ghy, action_region_plain])
    def test_rejects_boundary_vertex_with_two_edges_into_the_region(self, action):
        # b and c are adjacent boundary vertices: each has one neighbour in
        # the interior and one, the other, on the boundary
        g, sigma = adjacent_boundary_tree()
        with pytest.raises(NonUniqueInwardEdge, match=re.escape("'b' has 2 edges into the region")):
            action(g, extract_region(g, sigma))


class TestRegionPlain:
    def test_boundary_pair_without_interior(self):
        # each boundary vertex's one neighbour in the region is the other
        g, _ = adjacent_boundary_tree()
        rep = action_region_plain(g, extract_region(g, ["b", "c"]))
        assert rep.total == pytest.approx(sum(rep.per_edge.values()), abs=1e-12)

    def test_matches_direct_sum_on_random_trees(self, rng):
        for q, depth in ((2, 3), (3, 2)):
            g = gen_tree(q, depth)
            lengths = {key: rng.uniform(0.5, 2.0) for key in g.lengths()}
            g = g.with_lengths(lengths)
            region = extract_region(g, ball(g, "0", depth - 1))
            geo = GeodesicTable(g)
            direct = sum(_kappa_transport(geo, u, v) for u, v in sigma_edges(g, region))
            closed = action_region_plain(g, region).total
            assert closed == pytest.approx(direct, abs=1e-9)

    def test_boundary_term_vanishing_edge(self):
        # an inward edge of length eps drives each boundary vertex's share of
        # the {x, y} action to 1 (C = D = 2: two leaves at 1 on each end)
        assert double_star_action(2.0, 2.0)(1e-8) == pytest.approx(2.0, abs=1e-7)

    @given(
        st.floats(min_value=0.01, max_value=100.0),
        st.integers(min_value=1, max_value=4),
        st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_boundary_term_at_most_one(self, p, leaves, outward):
        # {x, y} has two boundary vertices and no interior, at any inward P
        c_out, d_out = leaves / outward, leaves / (outward * outward)
        assert double_star_action(c_out, d_out)(p) <= 2.0 + 1e-12


class TestTotalIsEdgeSum:
    @pytest.mark.parametrize("seed", range(10))
    def test_trees_and_hex_regions(self, seed):
        # every plain action reports the sum of its per-edge curvatures, bit
        # for bit, at random lengths
        rng = random.Random(seed)
        tree = gen_tree(2, 3)
        tree = tree.with_lengths({key: rng.uniform(0.5, 2.0) for key in tree.lengths()})
        hexg, hex_region = gen_hex_region(HexRegionSpec(2))
        hexg = hexg.with_lengths({key: rng.uniform(0.5, 2.0) for key in hexg.lengths()})
        hex_geo = GeodesicTable(hexg)
        reports = [
            action_plain(tree, GeodesicTable(tree)),
            action_region_plain(tree, extract_region(tree, ball(tree, "0", 2))),
            action_plain(hexg, hex_geo, sigma_edges(hexg, hex_region)),
            tree_action_hex(hexg, hex_geo, hex_region),
        ]
        for rep in reports:
            assert rep.total == sum(rep.per_edge.values())


def double_star_action(c_out, d_out):
    """The plain region action of {x, y} on a double star, as a function of
    the length P of x-y.  Each end has C^2/D leaves at length C/D, so both
    boundary vertices see the outward sums C = sum 1/l and D = sum 1/l^2."""
    leaves, outward = round(c_out * c_out / d_out), c_out / d_out
    ends = [(f"{v}{k}", v) for v in "xy" for k in range(leaves)]
    edges = [("x", "y", 1.0), *((leaf, v, outward) for leaf, v in ends)]
    g = build_graph(["x", "y", *(leaf for leaf, _ in ends)], edges)
    region = extract_region(g, ["x", "y"])

    def action(p):
        lengths = {key: outward for key in g.lengths()}
        lengths["x", "y"] = p
        return action_region_plain(g.with_lengths(lengths), region).total

    return action


def boundary_minimizer(c_out, d_out):
    """Inward length that minimizes the boundary term: 1/C + sqrt(1/C^2 + 1/D)."""
    return 1.0 / c_out + math.sqrt(1.0 / (c_out * c_out) + 1.0 / d_out)


class TestBoundaryMinimizer:
    @pytest.mark.parametrize(
        "c, d, want",
        [
            (2.0, 2.0, 0.5 + math.sqrt(3.0) / 2.0),
            (1.0, 1.0, 1.0 + math.sqrt(2.0)),
        ],
    )
    def test_closed_form(self, c, d, want):
        assert boundary_minimizer(c, d) == pytest.approx(want, abs=1e-12)
        # golden-section search of the region action over P in (0, 10]
        action = double_star_action(c, d)
        phi = (math.sqrt(5.0) - 1.0) / 2.0
        lo, hi = 1e-3, 10.0
        for _ in range(80):
            m1 = hi - phi * (hi - lo)
            m2 = lo + phi * (hi - lo)
            if action(m1) < action(m2):
                hi = m2
            else:
                lo = m1
        assert 0.5 * (lo + hi) == pytest.approx(want, abs=1e-6)

    def test_scan_confirms_minimum(self):
        # C = 6, D = 12: three leaves at 1/2 per end, least at P = 1/2; no P
        # on a log grid over [1e-2, 1e2] gives a smaller action
        action = double_star_action(6.0, 12.0)
        p = boundary_minimizer(6.0, 12.0)
        assert p == pytest.approx(0.5, abs=1e-12)
        assert min(action(10.0 ** (k / 100.0)) for k in range(-200, 201)) >= action(p) - 1e-12


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

    def test_refuses_a_table_of_another_graph(self):
        g, region = gen_hex_region(HexRegionSpec(1))
        g2 = g.with_lengths({key: 2.0 for key in g.lengths()})
        with pytest.raises(BadParams, match="built for another graph"):
            tree_action_hex(g2, GeodesicTable(g), region)

    def test_lower_bounds_plain_action(self, rng):
        g, region = gen_hex_region(HexRegionSpec(1))
        lengths = {key: rng.uniform(0.5, 2.0) for key in g.lengths()}
        g2 = g.with_lengths(lengths)
        geo = GeodesicTable(g2)
        s_t = tree_action_hex(g2, geo, region).total
        s_plain = sum(_kappa_transport(geo, u, v) for u, v in sigma_edges(g2, region))
        assert s_t <= s_plain + 1e-9

    def test_rejects_wrong_degree(self):
        g = gen_tree(3, 2)  # interior degree 4
        region = extract_region(g, ball(g, "0", 1))
        with pytest.raises(NotHexRegion):
            tree_action_hex(g, GeodesicTable(g), region)

    def test_rejects_boundary_vertex_with_two_inward_edges(self):
        # without one pendant, the perimeter vertex it hung from becomes a
        # boundary vertex with its two patch neighbours inside
        g, region = gen_hex_region(HexRegionSpec(1))
        pendant = min(region.boundary_vertices)
        (v,) = [w for w in g.neighbors(pendant) if w in region.vertices]
        cut = extract_region(g, region.vertices - {pendant})
        with pytest.raises(NonUniqueInwardEdge, match=re.escape(f"{v!r} has 2 edges into the region")):
            tree_action_hex(g, GeodesicTable(g), cut)


class TestHexStrongBoundaryMinimum:
    """On hex r2 with ``hex_strong_fixed_edges`` held at 1, the plain action
    S over E(Sigma) rises linearly from the constant setting along every
    sampled direction of the free region edges: evidence, not a proof, that
    the constant setting is a sharp local minimum (the closed-form tree
    curvature alone is flat there to first order)."""

    @pytest.fixture(scope="class")
    def hex_action(self):
        g, region = gen_hex_region(HexRegionSpec(2))
        edges = sigma_edges(g, region)
        fixed = hex_strong_fixed_edges(g, region)
        free = [key for key in edges if key not in fixed]

        def action(moved):
            g2 = g.with_lengths({key: moved.get(key, 1.0) for key in g.lengths()})
            return action_plain(g2, GeodesicTable(g2), edges).total

        return action, free

    def test_setup(self, hex_action):
        action, free = hex_action
        assert len(free) == 12
        assert action({}) == pytest.approx(-28.0, abs=1e-9)

    @pytest.mark.parametrize("h", [1e-6, 1e-4])
    def test_slope_two_both_ways_along_each_free_edge(self, hex_action, h):
        action, free = hex_action
        s0 = action({})
        for key in free:
            assert (action({key: 1.0 + h}) - s0) / h == pytest.approx(2.0, abs=2 * h)
            assert (action({key: 1.0 - h}) - s0) / h == pytest.approx(2.0, abs=2 * h)

    def test_linear_rise_along_random_directions(self, hex_action):
        action, free = hex_action
        s0 = action({})
        rand = random.Random(0)
        h = 1e-5
        for _ in range(20):
            d = {key: rand.gauss(0.0, 1.0) for key in free}
            rise = action({key: 1.0 + h * x for key, x in d.items()}) - s0
            assert rise >= 0.5 * h * sum(map(abs, d.values()))


class TestBounds:
    def test_complete_graph_bound(self):
        for n in (3, 4, 5):
            g = gen_complete(n)
            assert action_plain(g, GeodesicTable(g)).bound_upper == n * (n - 1)

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
        ratio, ok = ratio_bounds(geo, "0")
        assert ratio == pytest.approx(g.degree("0"))
        assert ok

    def test_matching_limit(self):
        g = gen_complete(4)
        m = find_perfect_matching(g)
        g2 = g.with_lengths(matching_setting(g, m, 1e-4).lengths)
        geo = GeodesicTable(g2)
        for v in g2.vertices:
            ratio, ok = ratio_bounds(geo, v)
            assert ratio == pytest.approx(1.0, abs=1e-3)
            assert ok

    def test_two_lengths(self):
        g = build_graph(["a", "b", "c"], [("a", "b", 1.0), ("b", "c", 2.0)])
        geo = GeodesicTable(g)
        ratio, ok = ratio_bounds(geo, "b")
        assert ratio == pytest.approx(9.0 / 5.0)
        assert ok
        # a leaf sits exactly at the lower end, which it may
        assert ratio_bounds(geo, "a") == (1.0, True)

    @pytest.mark.parametrize(
        "deg, ratio, ok",
        [
            (2, 1.0 - 1e-9, False), (2, 1.0, False), (2, 1.0 + 1e-9, True),  # strict at degree >= 2
            (2, 2.0, True), (2, 2.0 + 1e-8, False), (3, 3.0, True), (3, 3.0 + 1e-8, False),  # deg bounds
            (1, 1.0 - 1e-9, False), (1, 1.0, True), (1, 1.0 + 1e-9, False),  # a leaf sits at 1
        ],
    )
    def test_verdict_on_each_side_of_each_bound(self, deg, ratio, ok):
        # a stand-in table: vertex "v" of degree deg with c = d = ratio, so c^2/d reads ratio
        geo = SimpleNamespace(graph=SimpleNamespace(degree=lambda v: deg), walk=lambda v: (ratio, ratio, ()))
        assert ratio_bounds(geo, "v") == (pytest.approx(ratio), ok)


def one_sided_cost(geo, i, j, t):
    """Partial cost (1 - t - t P^-2/d_i) P of the edge i -> j: the cost of
    moving i's distribution onto j's when only i's own mass moves."""
    p = geo.dist(i, j)
    _, d, _ = geo.walk(i)
    return (1.0 - t - t / (p * p) / d) * p


def partial_cost_limit(geo, i, j):
    """The t -> 0 limit of 1 - (W^p(i->j) + W^p(j->i)) / (2 P t), that is
    1 + (P^-2/d_i + P^-2/d_j)/2, which bounds kappa_ij by the pairing bound."""
    p = geo.dist(i, j)
    return 1.0 + 0.5 * sum(1.0 / (p * p) / geo.walk(v)[1] for v in (i, j))


class TestPartialCosts:
    def test_complete_graphs(self):
        # at constant lengths the limit is attained on every edge, and the
        # edge limits sum to n^2/2, the action's maximum on K_n
        for n in (3, 4, 5, 6):
            g = gen_complete(n)
            geo = GeodesicTable(g)
            rep = action_plain(g, geo)
            for (u, v), k in rep.per_edge.items():
                assert k == pytest.approx(partial_cost_limit(geo, u, v), abs=1e-9)
            assert rep.total == pytest.approx(n * n / 2.0, abs=1e-9)

    def test_any_lengths(self, rng):
        # sum_j P_ij^-2 / d_i = 1 at each vertex, so the limits sum to n^2/2
        # at any lengths, and each bounds its edge's curvature
        for n in (3, 4, 5, 6):
            g = gen_complete(n)
            for _ in range(10):
                g2 = g.with_lengths({key: rng.uniform(0.5, 2.0) for key in g.lengths()})
                geo = GeodesicTable(g2)
                per_edge = action_plain(g2, geo).per_edge
                assert sum(partial_cost_limit(geo, u, v) for u, v in g2.edges) == pytest.approx(n * n / 2.0)
                for (u, v), k in per_edge.items():
                    assert k <= partial_cost_limit(geo, u, v) + 1e-9

    def test_pairing_lower_bound(self, rng):
        # 2 W >= W^p(i->j) + W^p(j->i) at small t
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
                    neighbor_distribution(geo, u, t),
                    neighbor_distribution(geo, v, t),
                ).cost
                paired = one_sided_cost(geo, u, v, t) + one_sided_cost(geo, v, u, t)
                assert 2.0 * w >= paired - 1e-12
