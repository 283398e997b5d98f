import pytest

from graphgrav import (
    GeodesicTable,
    gen_complete,
    gen_hex_region,
    gen_tree,
    kappa,
    kappa_t,
    kappa_tree_closed,
    local_sums,
    sigma_edges,
    HexRegionSpec,
)
from graphgrav.errors import NotAnEdge, TOutOfRange

from conftest import random_connected_graph


class TestKappaT:
    def test_line_value(self, line3, line3_geo):
        # W = 1 - t on the unit path, so kappa_t = t
        assert kappa_t(line3, line3_geo, "a", "b", 0.3) == pytest.approx(0.3)

    def test_linear_regime_near_zero(self, line3, line3_geo):
        t = 1e-6
        limit = kappa(line3, line3_geo, "a", "b")
        assert kappa_t(line3, line3_geo, "a", "b", t) == pytest.approx(t * limit, rel=1e-9)

    def test_triangle_upper_bound(self):
        g = gen_complete(3)
        geo = GeodesicTable(g)
        val = kappa_t(g, geo, "0", "1", 0.3)
        c0, d0 = local_sums(g, geo, "0")
        c1, d1 = local_sums(g, geo, "1")
        assert val <= 0.3 / geo.dist("0", "1") * (c0 / d0 + c1 / d1) + 1e-12

    def test_not_an_edge(self, line3, line3_geo):
        with pytest.raises(NotAnEdge):
            kappa_t(line3, line3_geo, "a", "c", 0.3)

    def test_t_out_of_range(self, line3, line3_geo):
        with pytest.raises(TOutOfRange):
            kappa_t(line3, line3_geo, "a", "b", 1.0)

    def test_limit_reports_no_convergence(self, line3, line3_geo, monkeypatch):
        import graphgrav.curvature as curvature
        from graphgrav.errors import NoConvergence

        monkeypatch.setattr(curvature, "MAX_HALVINGS", 0)
        with pytest.raises(NoConvergence):
            kappa(line3, line3_geo, "a", "b")


class TestKappaLimit:
    def test_short_path(self, line3, line3_geo):
        assert kappa(line3, line3_geo, "a", "b") == pytest.approx(1.0)

    def test_tree_interior(self):
        g = gen_tree(3, 2)
        geo = GeodesicTable(g)
        assert kappa(g, geo, "0", "1") == pytest.approx(-1.0)

    def test_unit_triangle(self):
        g = gen_complete(3)
        geo = GeodesicTable(g)
        assert kappa(g, geo, "0", "1") == pytest.approx(1.5)

    def test_concave_in_t(self, rng):
        for _ in range(15):
            g = random_connected_graph(rng, rng.randint(4, 7))
            geo = GeodesicTable(g)
            edges = list(g.edges)
            u, v = edges[rng.randrange(len(edges))]
            k1, k2, k4 = (kappa_t(g, geo, u, v, t) for t in (0.1, 0.2, 0.4))
            assert k2 >= (2.0 * k1 + k4) / 3.0 - 1e-9


class TestTreeClosedForm:
    def test_leaf_edge(self, line3, line3_geo):
        assert kappa_tree_closed(line3, line3_geo, "a", "b") == pytest.approx(1.0)

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_uniform_tree(self, q):
        g = gen_tree(q, 2)
        geo = GeodesicTable(g)
        # interior edge of the constant tree
        assert kappa_tree_closed(g, geo, "0", "1") == pytest.approx(2.0 * (1 - q) / (1 + q))

    def test_matches_limit_on_random_trees(self, rng):
        for q, depth in ((1, 3), (2, 2), (3, 2)):
            g = gen_tree(q, depth)
            lengths = {key: rng.uniform(0.5, 2.0) for key in g.lengths()}
            g = g.with_lengths(lengths)
            geo = GeodesicTable(g)
            for u, v in g.edges:
                assert kappa(g, geo, u, v) == pytest.approx(
                    kappa_tree_closed(g, geo, u, v), abs=1e-8
                )

    def test_lower_bounds_kappa_on_hexagons(self, rng):
        g, region = gen_hex_region(HexRegionSpec(1))
        lengths = {key: rng.uniform(0.5, 2.0) for key in g.lengths()}
        g2 = g.with_lengths(lengths)
        geo = GeodesicTable(g2)
        for u, v in sigma_edges(g2, region):
            assert kappa_tree_closed(g2, geo, u, v) <= kappa(g2, geo, u, v) + 1e-9

    def test_strong_boundary_equality(self):
        # constant lengths everywhere: the transport saturates the tree plan
        g, region = gen_hex_region(HexRegionSpec(1))
        geo = GeodesicTable(g)
        for u, v in sigma_edges(g, region):
            assert kappa(g, geo, u, v) == pytest.approx(
                kappa_tree_closed(g, geo, u, v), abs=1e-9
            )
