import random
from fractions import Fraction

import pytest

from graphgrav import (
    Distribution,
    GeodesicTable,
    build_graph,
    edge_move_cost,
    gen_tree,
    local_sums,
    neighbor_distribution,
    wasserstein,
    wasserstein_oracle,
)
from graphgrav.errors import TOutOfRange, UnbalancedMass
from graphgrav.transport import _least_cost_start, _transportation_simplex

from conftest import random_connected_graph


class TestNeighborDistribution:
    def test_symmetric_split(self, line3, line3_geo):
        mu = neighbor_distribution(line3, line3_geo, "b", 0.5)
        assert mu.mass == pytest.approx({"b": 0.5, "a": 0.25, "c": 0.25})

    def test_leaf(self, line3, line3_geo):
        mu = neighbor_distribution(line3, line3_geo, "a", 0.3)
        assert mu.mass == pytest.approx({"a": 0.7, "b": 0.3})

    def test_uneven_lengths(self):
        g = build_graph(["a", "b", "c"], [("a", "b", 1.0), ("b", "c", 2.0)])
        mu = neighbor_distribution(g, GeodesicTable(g), "b", 0.3)
        assert mu.mass == pytest.approx({"b": 0.7, "a": 0.24, "c": 0.06})

    @pytest.mark.parametrize("t", [0.0, 1.0, -0.2, 1.5])
    def test_t_range(self, line3, line3_geo, t):
        with pytest.raises(TOutOfRange):
            neighbor_distribution(line3, line3_geo, "b", t)

    def test_sums_to_one(self, rng):
        for _ in range(20):
            g = random_connected_graph(rng, rng.randint(3, 8))
            geo = GeodesicTable(g)
            v = g.vertices[rng.randrange(len(g.vertices))]
            mu = neighbor_distribution(g, geo, v, rng.uniform(0.01, 0.99))
            assert sum(mu.mass.values()) == pytest.approx(1.0, abs=1e-12)


class TestDeltas:
    def test_delta(self):
        assert Distribution({"a": 1.0, "b": 0.0}).support == ("a",)

    def test_self_cost_zero(self, line3, line3_geo):
        assert wasserstein(line3, line3_geo, Distribution({"a": 1.0}), Distribution({"a": 1.0})).cost == 0.0

    def test_pair_cost_is_geodesic(self, line3, line3_geo):
        plan = wasserstein(line3, line3_geo, Distribution({"a": 1.0}), Distribution({"c": 1.0}))
        assert plan.cost == pytest.approx(2.0)
        assert plan.flows == pytest.approx({("a", "c"): 1.0})


class TestWasserstein:
    def test_line_cost(self, line3, line3_geo):
        # mass 1-2t slides one step, t/2 slides two steps: cost 1-t for t<1/2
        for t in (0.1, 0.3, 0.45):
            mu = neighbor_distribution(line3, line3_geo, "a", t)
            nu = neighbor_distribution(line3, line3_geo, "b", t)
            assert wasserstein(line3, line3_geo, mu, nu).cost == pytest.approx(1.0 - t)

    def test_identical_distributions(self, line3, line3_geo):
        mu = neighbor_distribution(line3, line3_geo, "b", 0.4)
        assert wasserstein(line3, line3_geo, mu, mu).cost == pytest.approx(0.0, abs=1e-12)

    def test_unbalanced_rejected(self, line3, line3_geo):
        lop = Distribution({"a": 0.7, "b": 0.3})
        bad = Distribution.__new__(Distribution)
        object.__setattr__(bad, "mass", {"a": 0.5})
        with pytest.raises(UnbalancedMass):
            wasserstein(line3, line3_geo, lop, bad)

    def test_unknown_support_rejected(self, line3, line3_geo):
        from graphgrav.errors import UnknownVertex

        with pytest.raises(UnknownVertex):
            wasserstein(line3, line3_geo, Distribution({"zz": 1.0}), Distribution({"a": 1.0}))

    def test_marginals_and_duals(self, rng):
        for _ in range(25):
            g = random_connected_graph(rng, rng.randint(4, 8))
            geo = GeodesicTable(g)
            edges = list(g.edges)
            u, v = edges[rng.randrange(len(edges))]
            t = rng.uniform(0.05, 0.9)
            mu = neighbor_distribution(g, geo, u, t)
            nu = neighbor_distribution(g, geo, v, t)
            plan = wasserstein(g, geo, mu, nu)
            # marginals
            row = {}
            col = {}
            for (a, b), f in plan.flows.items():
                assert f > 0.0
                row[a] = row.get(a, 0.0) + f
                col[b] = col.get(b, 0.0) + f
            for a, m in row.items():
                assert m == pytest.approx(mu(a), abs=1e-10)
            for b, m in col.items():
                assert m == pytest.approx(nu(b), abs=1e-10)
            # dual feasibility and complementary slackness
            for a in plan.source_potential:
                for b in plan.sink_potential:
                    slack = (
                        geo.dist(a, b)
                        - plan.source_potential[a]
                        - plan.sink_potential[b]
                    )
                    assert slack > -1e-9
                    if (a, b) in plan.flows and plan.flows[(a, b)] > 1e-12:
                        assert abs(slack) < 1e-9

    def test_symmetry(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(4, 7))
            geo = GeodesicTable(g)
            edges = list(g.edges)
            u, v = edges[rng.randrange(len(edges))]
            mu = neighbor_distribution(g, geo, u, 0.3)
            nu = neighbor_distribution(g, geo, v, 0.3)
            assert wasserstein(g, geo, mu, nu).cost == pytest.approx(
                wasserstein(g, geo, nu, mu).cost, abs=1e-10
            )

    def test_lower_bound_from_deltas(self, rng):
        # W(D_i, D_j) >= P_ij - t c_i/d_i - t c_j/d_j
        for _ in range(15):
            g = random_connected_graph(rng, rng.randint(4, 7))
            geo = GeodesicTable(g)
            edges = list(g.edges)
            u, v = edges[rng.randrange(len(edges))]
            t = rng.uniform(0.05, 0.95)
            mu = neighbor_distribution(g, geo, u, t)
            nu = neighbor_distribution(g, geo, v, t)
            cost = wasserstein(g, geo, mu, nu).cost
            cu, du = local_sums(g, geo, u)
            cv, dv = local_sums(g, geo, v)
            assert cost >= geo.dist(u, v) - t * (cu / du + cv / dv) - 1e-9


class TestExactSimplex:
    """Fraction masses with small integer costs (many ties) or Fraction
    costs: the start, every pivot and the potentials stay exact, so
    feasibility and optimality hold exactly."""

    @staticmethod
    def _masses(rng, k):
        w = [rng.randint(0, 4) for _ in range(k)]
        w[rng.randrange(k)] += 1
        return [Fraction(x, sum(w)) for x in w]

    @staticmethod
    def _assert_marginals(flow, supply, demand):
        for i, a in enumerate(supply):
            assert sum(f for (r, _), f in flow.items() if r == i) == a
        for j, b in enumerate(demand):
            assert sum(f for (_, c), f in flow.items() if c == j) == b

    def _assert_optimal(self, supply, demand, cost):
        flow, u, v = _transportation_simplex(supply, demand, cost)
        assert all(isinstance(f, Fraction) for f in flow.values() if f)
        self._assert_marginals(flow, supply, demand)
        for i in range(len(supply)):
            for j in range(len(demand)):
                reduced = cost[i][j] - u[i] - v[j]
                assert reduced >= 0
                if flow.get((i, j)):
                    assert reduced == 0
        return u, v

    @pytest.mark.parametrize("m, n", [(1, 1), (1, 4), (4, 1), (2, 3), (5, 5), (6, 4)])
    def test_fraction_problems(self, m, n):
        rng = random.Random(f"exact:{m}x{n}")
        for _ in range(25):
            supply = self._masses(rng, m)
            demand = self._masses(rng, n)
            cost = [[rng.randint(0, 5) for _ in range(n)] for _ in range(m)]

            start, basis, _ = _least_cost_start(supply, demand, cost)
            assert len(basis) == len(set(basis)) == m + n - 1
            root = list(range(m + n))  # rows 0..m-1, columns m..m+n-1

            def find(x):
                while root[x] != x:
                    x = root[x]
                return x

            for i, j in basis:  # m + n - 1 cells and no cycle: a spanning tree
                a, b = find(i), find(m + j)
                assert a != b
                root[a] = b
            self._assert_marginals(start, supply, demand)

            self._assert_optimal(supply, demand, cost)

    def test_fraction_costs_give_fraction_potentials(self):
        half, third = Fraction(1, 2), Fraction(1, 3)
        cost = [[third, Fraction(2, 7)], [Fraction(5, 3), Fraction(0)]]
        u, v = self._assert_optimal([half, half], [third, 2 * third], cost)
        assert (u, v) == ([0, Fraction(-2, 7)], [third, Fraction(2, 7)])
        assert all(isinstance(p, Fraction) for p in u + v)
        rng = random.Random("exact:fraction-costs")
        for _ in range(50):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            cost = [[Fraction(rng.randint(0, 40), rng.randint(1, 9)) for _ in range(n)] for _ in range(m)]
            u, v = self._assert_optimal(self._masses(rng, m), self._masses(rng, n), cost)
            assert all(isinstance(p, Fraction) for p in u + v)


class TestOracle:
    def test_matches_simplex(self, rng):
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(3, 8))
            geo = GeodesicTable(g)
            edges = list(g.edges)
            u, v = edges[rng.randrange(len(edges))]
            t = rng.uniform(0.05, 0.95)
            mu = neighbor_distribution(g, geo, u, t)
            nu = neighbor_distribution(g, geo, v, t)
            assert wasserstein(g, geo, mu, nu).cost == pytest.approx(
                wasserstein_oracle(g, geo, mu, nu), abs=1e-8
            )

    def test_two_point(self, line3, line3_geo):
        assert wasserstein_oracle(line3, line3_geo, Distribution({"a": 1.0}), Distribution({"c": 1.0})) == pytest.approx(2.0)

    def test_same_distribution(self, line3, line3_geo):
        mu = neighbor_distribution(line3, line3_geo, "b", 0.2)
        assert wasserstein_oracle(line3, line3_geo, mu, mu) == pytest.approx(0.0, abs=1e-12)


class TestEdgeMoves:
    def test_neighbor_moves_match_direct_transport(self, rng):
        # moving mass edge by edge at geodesic prices costs exactly the
        # optimal transport value, because geodesics satisfy the triangle
        # inequality
        for _ in range(25):
            g = random_connected_graph(rng, rng.randint(3, 6))
            geo = GeodesicTable(g)
            edges = list(g.edges)
            u, v = edges[rng.randrange(len(edges))]
            t = rng.uniform(0.05, 0.95)
            mu = neighbor_distribution(g, geo, u, t)
            nu = neighbor_distribution(g, geo, v, t)
            direct = wasserstein(g, geo, mu, nu).cost
            moved, pot = edge_move_cost(g, geo, mu, nu)
            assert moved == pytest.approx(direct, abs=1e-8)
            # the potential is a 1-Lipschitz certificate of optimality
            assert sum(pot[x] * (mu(x) - nu(x)) for x in g.vertices) == pytest.approx(
                direct, abs=1e-8
            )
            for a, b in g.edges:
                assert abs(pot[a] - pot[b]) <= geo.dist(a, b) + 1e-9

    def test_tree_transport(self, rng):
        g = gen_tree(2, 2)
        geo = GeodesicTable(g)
        mu = neighbor_distribution(g, geo, "0", 0.25)
        nu = neighbor_distribution(g, geo, "1", 0.25)
        moved, _ = edge_move_cost(g, geo, mu, nu)
        assert moved == pytest.approx(wasserstein(g, geo, mu, nu).cost, abs=1e-10)
