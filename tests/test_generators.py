import pytest

from graphgrav import (
    GeodesicTable,
    build_graph,
    constant_setting,
    edge_key,
    extract_region,
    find_perfect_matching,
    gen_complete,
    gen_cycle,
    gen_hex_region,
    gen_tree,
    half_half_setting,
    hex_strong_fixed_edges,
    kappa_tree_closed,
    matching_setting,
    scale_setting,
    sigma_edges,
    t1_setting,
    two_progression_setting,
    two_progression_x,
    geometric_half_half_stats,
    verify_solution,
    HexRegionSpec,
)
from graphgrav.errors import (
    BadParams,
    NonpositiveLength,
    NotAnEdge,
    TooLarge,
)
from graphgrav.graph import WeightedGraph


class TestTrees:
    @pytest.mark.parametrize(
        "q, depth, n_vertices",
        [(1, 5, 11), (2, 2, 10), (3, 1, 5), (3, 4, 161)],
    )
    def test_vertex_counts(self, q, depth, n_vertices):
        g = gen_tree(q, depth)
        assert len(g.vertices) == n_vertices
        assert g.num_edges == n_vertices - 1

    def test_degrees(self):
        g = gen_tree(2, 3)
        degrees = sorted(g.degree(v) for v in g.vertices)
        # leaves have degree 1, all others the full q+1
        assert set(degrees) == {1, 3}
        assert degrees.count(3) == 10

    def test_star(self):
        g = gen_tree(3, 1)
        assert g.num_edges == 4
        assert g.degree("0") == 4

    def test_rejects_bad_params(self):
        with pytest.raises(BadParams):
            gen_tree(0, 3)
        with pytest.raises(BadParams):
            gen_tree(2, 0)

    def test_size_cap(self):
        # about 3^60 vertices: the count is checked before anything is built
        with pytest.raises(TooLarge):
            gen_tree(2, 60)
        with pytest.raises(TooLarge):
            half_half_setting(3, 60, 2.0)


class TestCompleteAndCycle:
    def test_complete_counts(self):
        assert gen_complete(4).num_edges == 6

    def test_cycle3_equals_complete3(self):
        assert set(gen_cycle(3).edges) == set(gen_complete(3).edges)

    def test_cycle4_diagonal(self):
        g = gen_cycle(4)
        assert GeodesicTable(g).dist("0", "2") == pytest.approx(2.0)

    def test_rejects_small(self):
        with pytest.raises(BadParams):
            gen_complete(2)
        with pytest.raises(BadParams):
            gen_cycle(2)

    @pytest.mark.parametrize(
        "make", [lambda: gen_complete(448), lambda: gen_cycle(100_000)], ids=["complete-448", "cycle-100000"]
    )
    def test_size_cap(self, make):
        # 100 128 and 100 000 edges: one above the cap that trees have
        with pytest.raises(TooLarge, match="capped at 99999 edges"):
            make()


class TestConstantSetting:
    def test_values(self):
        g = gen_tree(2, 2)
        s = constant_setting(g, 1.0)
        assert set(s.lengths) == set(g.lengths())
        assert all(v == 1.0 for v in s.lengths.values())

    def test_scaling_matches(self):
        g = gen_tree(2, 2)
        assert scale_setting(constant_setting(g, 1.0), 2.0).lengths == constant_setting(
            g, 0.5
        ).lengths

    def test_solves_trees(self):
        g = gen_tree(3, 2)
        assert verify_solution(g, constant_setting(g, 2.0)).is_solution

    def test_rejects_nonpositive(self):
        with pytest.raises(NonpositiveLength):
            constant_setting(gen_tree(1, 1), 0.0)


class TestMatchings:
    def test_k4(self):
        g = gen_complete(4)
        m = find_perfect_matching(g)
        assert isinstance(m, frozenset)
        assert all(edge_key(u, v) in g.lengths() for u, v in m)
        assert {v for edge in m for v in edge} == set(g.vertices)
        assert len(m) == 2

    def test_odd_graph(self):
        assert find_perfect_matching(gen_complete(5)) is None

    def test_path_of_three_edges(self):
        g = build_graph(
            ["0", "1", "2", "3"],
            [("0", "1", 1.0), ("1", "2", 1.0), ("2", "3", 1.0)],
        )
        m = find_perfect_matching(g)
        assert m == frozenset({("0", "1"), ("2", "3")})

    def test_no_matching_on_star(self):
        assert find_perfect_matching(gen_tree(3, 1)) is None  # 5 vertices

    def test_even_order_without_matching(self):
        # a 4-cycle with two pendant vertices on one of its vertices
        g = build_graph(
            [str(k) for k in range(6)],
            [("0", "1", 1.0), ("1", "2", 1.0), ("2", "3", 1.0), ("0", "3", 1.0),
             ("2", "4", 1.0), ("2", "5", 1.0)],
        )
        assert find_perfect_matching(g) is None

    def test_failed_remainders_are_searched_once(self, monkeypatch):
        # a chain of five 4-cycles ending in a 3-leaf star, which has no
        # perfect matching: each of the 2^5 matchings of the cycles leaves the
        # star, and only the memo keeps it from being searched 2^5 times
        edges = []
        for b in range(5):
            c = [f"c{b}{k}" for k in range(4)]
            edges += [(c[k], c[(k + 1) % 4], 1.0) for k in range(4)]
            edges.append((c[2], f"c{b + 1}0" if b < 4 else "s0", 1.0))
        edges += [("s0", f"s{k}", 1.0) for k in (1, 2, 3)]
        g = build_graph(sorted({v for e in edges for v in e[:2]}), edges)
        calls = []
        neighbors = WeightedGraph.neighbors
        monkeypatch.setattr(WeightedGraph, "neighbors", lambda self, v: calls.append(v) or neighbors(self, v))
        assert find_perfect_matching(g) is None
        assert len(calls) < 2**5

    def test_size_cap(self):
        with pytest.raises(TooLarge):
            find_perfect_matching(gen_cycle(26))

    def test_overlapping_edges_rejected(self):
        with pytest.raises(BadParams, match="matching edges share a vertex"):
            matching_setting(gen_complete(4), frozenset({("0", "1"), ("1", "2"), ("2", "3")}), 1e-4)

    def test_non_edges_rejected(self):
        # disjoint pairs that cover C4 but are its diagonals, not its edges
        with pytest.raises(NotAnEdge, match="is not an edge"):
            matching_setting(gen_cycle(4), frozenset({("0", "2"), ("1", "3")}), 1e-4)

    def test_matching_setting(self):
        g = gen_complete(4)
        m = find_perfect_matching(g)
        s = matching_setting(g, m, 1e-4)
        for key, val in s.lengths.items():
            assert val == (1e-4 if key in m else 1.0)

    def test_matching_setting_requires_perfect(self):
        g = gen_complete(4)
        with pytest.raises(BadParams, match="matching does not cover every vertex"):
            matching_setting(g, frozenset({("0", "1")}), 1e-4)

    def test_action_trend_toward_vertex_count(self):
        from graphgrav import action_plain

        g = gen_complete(4)
        m = find_perfect_matching(g)
        gaps = []
        for eps in (1e-3, 1e-4):
            g2 = g.with_lengths(matching_setting(g, m, eps).lengths)
            gaps.append(abs(action_plain(g2, GeodesicTable(g2)).total - 4.0))
        assert gaps[1] < gaps[0]


class TestHexRegion:
    @pytest.mark.parametrize("radius", [0, -1])
    def test_rejects_radius_below_one(self, radius):
        with pytest.raises(BadParams, match="radius must be >= 1"):
            HexRegionSpec(radius)

    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_size_formula(self, radius):
        g, _ = gen_hex_region(HexRegionSpec(radius))
        assert (len(g.vertices), g.num_edges) == (6 * (radius + 2) ** 2, 9 * (radius + 2) ** 2 - 3 * (radius + 2))

    def test_size_cap(self):
        # 9 * 106^2 - 3 * 106 = 100 806 edges, counted before the faces are laid out
        with pytest.raises(TooLarge, match="capped at 99999 edges"):
            gen_hex_region(HexRegionSpec(104))

    def test_single_hexagon(self):
        g, region = gen_hex_region(HexRegionSpec(1))
        assert len(region.interior) == 6
        assert len(region.boundary_vertices) == 6

    def test_interior_degree_three(self):
        g, region = gen_hex_region(HexRegionSpec(2))
        assert all(g.degree(v) == 3 for v in region.interior)

    def test_pendants_have_unique_inward_edge(self):
        g, region = gen_hex_region(HexRegionSpec(2))
        verts = region.vertices
        for v in region.boundary_vertices:
            inside = [w for w in g.neighbors(v) if w in verts]
            assert len(inside) == 1

    def test_region_matches_definition(self):
        g, region = gen_hex_region(HexRegionSpec(1))
        again = extract_region(g, region.vertices)
        assert again == region

    def test_faces_are_hexagons(self):
        from graphgrav.generators import _hex_face, _hex_id

        g, _ = gen_hex_region(HexRegionSpec(2))
        cycle = [_hex_id(v) for v in _hex_face(0, 0)]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            assert edge_key(a, b) in g.lengths()
        assert len(set(cycle)) == 6

    def test_strong_fixed_edges_leave_free_interior(self):
        g, region = gen_hex_region(HexRegionSpec(2))
        fixed = hex_strong_fixed_edges(g, region)
        sigma = set(sigma_edges(g, region))
        # every boundary edge and the pendant stalks are pinned
        assert all(edge_key(u, v) in fixed for u, v in region.boundary_edges)
        # but the deep interior stays adjustable
        free_inside = [key for key in sigma if key not in fixed]
        assert free_inside


class TestT1Setting:
    def test_edge_count(self):
        g, s = t1_setting([2.0, 3.0, 2.0])
        assert g.num_edges == 4
        assert set(s.lengths) == set(g.lengths())

    def test_rejects_nonpositive_ratio(self):
        with pytest.raises(BadParams):
            t1_setting([2.0, -1.0])


class TestHalfHalf:
    def test_geometric_structure(self):
        q, depth, r = 3, 3, 2.0
        s = half_half_setting(q, depth, r)
        g = gen_tree(q, depth)
        assert set(s.lengths) == set(g.lengths())
        for v in g.vertices:
            if g.degree(v) != q + 1:
                continue
            incident = sorted(s.lengths[edge_key(v, w)] for w in g.neighbors(v))
            low, high = set(incident[: (q + 1) // 2]), set(incident[(q + 1) // 2 :])
            assert len(low) == 1 and len(high) == 1
            ratio = incident[-1] / incident[0]
            assert ratio == pytest.approx(r)

    def test_geometric_is_solution(self):
        s = half_half_setting(3, 4, 3.0)
        assert verify_solution(gen_tree(3, 4), s).is_solution

    def test_mixed_chain_is_solution(self):
        chain = [2.0, 3.0, 3.0, 2.0, 3.0]
        s = half_half_setting(3, 3, chain)
        assert verify_solution(gen_tree(3, 3), s).is_solution

    def test_line_case(self):
        # q = 1 degenerates to a geometric chain on the path
        s = half_half_setting(1, 3, 2.0)
        assert verify_solution(gen_tree(1, 3), s).is_solution
        assert len(set(s.lengths.values())) == 6

    def test_curvature_matches_formula(self):
        q, r = 3, 2.0
        g = gen_tree(q, 3)
        s = half_half_setting(q, 3, r)
        g2 = g.with_lengths(s.lengths)
        geo = GeodesicTable(g2)
        want, _ = geometric_half_half_stats(q, r)
        for u, v in g2.edges:
            if g2.degree(u) > 1 and g2.degree(v) > 1:
                assert kappa_tree_closed(geo, u, v) == pytest.approx(want, abs=1e-9)

    def test_rejects_constant_chain(self):
        with pytest.raises(BadParams, match="ratios must exceed 1, got 1.0"):
            half_half_setting(3, 3, 1.0)

    def test_rejects_even_q(self):
        with pytest.raises(BadParams, match="half-half settings need odd q, got 2"):
            half_half_setting(2, 3, 2.0)

    def test_rejects_wrong_chain_length(self):
        with pytest.raises(BadParams, match="need 5 ratios for depth 3, got 2"):
            half_half_setting(3, 3, [2.0, 3.0])

    def test_rejects_off_family_ratio(self):
        with pytest.raises(BadParams, match="ratio 2.5 is outside the admissible pair for r0=2.0"):
            half_half_setting(3, 3, [2.0, 3.0, 2.5, 2.0, 3.0])

    def test_rejects_depth_zero(self):
        with pytest.raises(BadParams):
            half_half_setting(3, 0, 2.0)


class TestTwoProgression:
    def x_ref(self):
        return max(two_progression_x(0.25, 3.0))

    def test_is_solution(self):
        s = two_progression_setting(3, 1, 1, 0.25, self.x_ref(), 3.0, 3)
        rep = verify_solution(gen_tree(3, 3), s)
        assert rep.is_solution

    def test_m_paths_are_geometric(self):
        # stepping along the x-class edge multiplies the local lengths by x:
        # the continuation of the root's x-edge has length x^2
        x = self.x_ref()
        s = two_progression_setting(3, 1, 1, 0.25, x, 3.0, 3)
        g = gen_tree(3, 3)
        x_child = next(
            w for w in g.neighbors("0") if s.lengths[edge_key("0", w)] == pytest.approx(x)
        )
        child_lengths = [
            s.lengths[edge_key(x_child, w)] for w in g.neighbors(x_child) if w != "0"
        ]
        assert any(val == pytest.approx(x * x) for val in child_lengths)

    def test_alpha_one_equal_ratios_is_half_half(self):
        x = 2.0
        s = two_progression_setting(3, 1, 1, 1.0, x, x, 3)
        g = gen_tree(3, 3)
        for v in g.vertices:
            if g.degree(v) != 4:
                continue
            incident = sorted(s.lengths[edge_key(v, w)] for w in g.neighbors(v))
            assert incident[1] / incident[0] == pytest.approx(1.0)
            assert incident[3] / incident[1] == pytest.approx(x)

    def test_rejects_inconsistent_counts(self):
        with pytest.raises(BadParams, match=r"need 2\(m\+s\) = q\+1, got m=2 s=1 q=3"):
            two_progression_setting(3, 2, 1, 0.25, 0.5, 3.0, 3)

    @pytest.mark.parametrize("alpha", [0.0, -0.25])
    def test_rejects_nonpositive_alpha(self, alpha):
        with pytest.raises(BadParams, match="alpha, x, y must all be positive"):
            two_progression_setting(3, 1, 1, alpha, 0.5, 3.0, 3)

    def test_rejects_depth_zero(self):
        with pytest.raises(BadParams):
            two_progression_setting(3, 1, 1, 0.25, self.x_ref(), 3.0, 0)

    def test_covers_all_edges_positively(self):
        s = two_progression_setting(3, 1, 1, 0.25, self.x_ref(), 3.0, 3)
        g = gen_tree(3, 3)
        assert set(s.lengths) == set(g.lengths())
        assert all(v > 0 for v in s.lengths.values())


def test_every_generated_setting_is_positive_and_covering():
    cases = [
        (gen_tree(3, 3), half_half_setting(3, 3, 2.0)),
        (gen_tree(3, 2), two_progression_setting(3, 1, 1, 1.0, 2.0, 2.0, 2)),
        (gen_complete(4), constant_setting(gen_complete(4), 1.3)),
    ]
    g, s = t1_setting([2.0, 3.0, 2.0])
    cases.append((g, s))
    for g, s in cases:
        assert set(s.lengths) == set(g.lengths())
        assert all(val > 0 for val in s.lengths.values())
