import math
import random
from fractions import Fraction

import pytest

from graphgrav import (
    Distribution,
    GeodesicTable,
    action_plain,
    build_graph,
    gen_complete,
    gen_tree,
    neighbor_distribution,
    wasserstein,
)
from graphgrav.errors import BadParams, UnbalancedMass, UnknownVertex
from graphgrav import transport
from graphgrav.graph import cells_by_cost
from graphgrav.transport import _certificate_gap, _least_cost_start, _transport_problem, _transportation_simplex

from conftest import _min_cost_flow, random_connected_graph, wasserstein_oracle


class TestNeighborDistribution:
    def test_symmetric_split(self, line3, line3_geo):
        mu = neighbor_distribution(line3_geo, "b", 0.5)
        assert mu.mass == pytest.approx({"b": 0.5, "a": 0.25, "c": 0.25})

    def test_leaf(self, line3, line3_geo):
        mu = neighbor_distribution(line3_geo, "a", 0.3)
        assert mu.mass == pytest.approx({"a": 0.7, "b": 0.3})

    def test_uneven_lengths(self):
        g = build_graph(["a", "b", "c"], [("a", "b", 1.0), ("b", "c", 2.0)])
        mu = neighbor_distribution(GeodesicTable(g), "b", 0.3)
        assert mu.mass == pytest.approx({"b": 0.7, "a": 0.24, "c": 0.06})

    @pytest.mark.parametrize("t", [0.0, 1.0, -0.2, 1.5])
    def test_t_range(self, line3, line3_geo, t):
        with pytest.raises(BadParams, match=r"t must lie in \(0, 1\)"):
            neighbor_distribution(line3_geo, "b", t)

    def test_sums_to_one(self, rng):
        for _ in range(20):
            g = random_connected_graph(rng, rng.randint(3, 8))
            geo = GeodesicTable(g)
            v = g.vertices[rng.randrange(len(g.vertices))]
            mu = neighbor_distribution(geo, v, rng.uniform(0.01, 0.99))
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
            mu = neighbor_distribution(line3_geo, "a", t)
            nu = neighbor_distribution(line3_geo, "b", t)
            assert wasserstein(line3, line3_geo, mu, nu).cost == pytest.approx(1.0 - t)

    def test_identical_distributions(self, line3, line3_geo):
        mu = neighbor_distribution(line3_geo, "b", 0.4)
        assert wasserstein(line3, line3_geo, mu, mu).cost == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("solve", [wasserstein, wasserstein_oracle])
    def test_unbalanced_rejected(self, line3, line3_geo, solve):
        lop = Distribution({"a": 0.7, "b": 0.3})
        bad = Distribution.__new__(Distribution)
        object.__setattr__(bad, "mass", {"a": 0.5})
        with pytest.raises(UnbalancedMass):
            solve(line3, line3_geo, lop, bad)

    def test_masses_must_sum_to_one(self):
        with pytest.raises(UnbalancedMass, match="sum to"):
            Distribution({"a": 0.7, "b": 0.2})

    def test_masses_must_be_nonnegative(self):
        with pytest.raises(UnbalancedMass, match="not a nonnegative number"):
            Distribution({"a": -1e-13, "b": 1.0 + 1e-13})

    def test_solves_every_pair_that_passes_the_mass_rule(self):
        # each total lies within 1e-10 of 1, as Distribution requires, and
        # the two totals differ by 1.8e-10
        g = gen_complete(3)
        geo = GeodesicTable(g)
        mu = Distribution({"0": 0.5 + 0.9e-10, "1": 0.5})
        nu = Distribution({"1": 0.5 - 0.9e-10, "2": 0.5})
        assert wasserstein(g, geo, mu, nu).cost == pytest.approx(0.5)
        _, _, supply, demand, cost, cells, _ = _transport_problem(geo, mu, nu)
        flow, pot_u, pot_v = _transportation_simplex(supply, demand, cost, cells)
        assert _certificate_gap(supply, demand, cost, flow, pot_u, pot_v) < 1e-8

    @pytest.mark.parametrize("solve", [wasserstein, wasserstein_oracle])
    def test_nan_mass_rejected(self, line3, line3_geo, solve):
        # NaN fails every comparison, so it must fail the checks, not pass them
        point = Distribution({"c": 1.0})
        with pytest.raises(UnbalancedMass):
            solve(line3, line3_geo, Distribution({"a": math.nan, "b": 1.0}), point)
        unchecked = Distribution.__new__(Distribution)
        object.__setattr__(unchecked, "mass", {"a": math.nan, "b": 1.0})
        with pytest.raises(UnbalancedMass):
            solve(line3, line3_geo, unchecked, point)

    @pytest.mark.parametrize("solve", [wasserstein, wasserstein_oracle])
    def test_unknown_support_rejected(self, line3, line3_geo, solve):
        with pytest.raises(UnknownVertex):
            solve(line3, line3_geo, Distribution({"zz": 1.0}), Distribution({"a": 1.0}))

    @pytest.mark.parametrize("solve", [wasserstein, wasserstein_oracle])
    def test_refuses_a_table_of_another_graph(self, line3, triangle_112, solve):
        a, c = Distribution({"a": 1.0}), Distribution({"c": 1.0})
        with pytest.raises(BadParams, match="built for another graph"):
            solve(line3, GeodesicTable(triangle_112), a, c)

    def test_marginals_and_duals(self, rng):
        for _ in range(25):
            g = random_connected_graph(rng, rng.randint(4, 8))
            geo = GeodesicTable(g)
            edges = list(g.edges)
            u, v = edges[rng.randrange(len(edges))]
            t = rng.uniform(0.05, 0.9)
            mu = neighbor_distribution(geo, u, t)
            nu = neighbor_distribution(geo, v, t)
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
            # the optimality certificate of the simplex that wasserstein
            # runs, on the same cost block
            _, _, supply, demand, cost, cells, _ = _transport_problem(geo, mu, nu)
            flow, pot_u, pot_v = _transportation_simplex(supply, demand, cost, cells)
            assert _certificate_gap(supply, demand, cost, flow, pot_u, pot_v) < 1e-9

    def test_symmetry(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(4, 7))
            geo = GeodesicTable(g)
            edges = list(g.edges)
            u, v = edges[rng.randrange(len(edges))]
            mu = neighbor_distribution(geo, u, 0.3)
            nu = neighbor_distribution(geo, v, 0.3)
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
            mu = neighbor_distribution(geo, u, t)
            nu = neighbor_distribution(geo, v, t)
            cost = wasserstein(g, geo, mu, nu).cost
            cu, du = geo.walk(u)[:2]
            cv, dv = geo.walk(v)[:2]
            assert cost >= geo.dist(u, v) - t * (cu / du + cv / dv) - 1e-9


class TestNettedProblem:
    """wasserstein solves mu - nu alone: the mass both distributions hold
    stays on the diagonal at cost 0, and the LP moves the rest."""

    def test_plan_has_the_marginals_and_keeps_shared_mass_in_place(self, rng):
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(3, 8))
            geo = GeodesicTable(g)
            edges = list(g.edges)
            u, v = edges[rng.randrange(len(edges))]
            t = rng.uniform(0.05, 0.95)
            mu = neighbor_distribution(geo, u, t)
            nu = neighbor_distribution(geo, v, t)
            plan = wasserstein(g, geo, mu, nu)
            row, col = {}, {}
            for (a, b), f in plan.flows.items():
                row[a] = row.get(a, 0.0) + f
                col[b] = col.get(b, 0.0) + f
            assert row.keys() == set(mu.support) and col.keys() == set(nu.support)
            assert all(abs(m - mu(a)) <= 1e-15 for a, m in row.items())
            assert all(abs(m - nu(b)) <= 1e-15 for b, m in col.items())
            for x in g.vertices:
                shared = min(mu(x), nu(x))
                assert plan.flows.get((x, x), 0.0) == shared
                if shared > 0:
                    assert plan.unit_costs[(x, x)] == 0.0

    def test_same_distribution_costs_zero_with_no_simplex(self, rng, monkeypatch):
        def no_simplex(*args):
            raise AssertionError("the simplex ran")

        monkeypatch.setattr(transport, "_transportation_simplex", no_simplex)
        g = random_connected_graph(rng, 6)
        geo = GeodesicTable(g)
        for x in g.vertices:
            mu = neighbor_distribution(geo, x, 0.3)
            plan = wasserstein(g, geo, mu, mu)
            assert plan.cost == 0.0
            assert plan.flows == {(a, a): mu(a) for a in mu.support}

    def test_unit_complete_graph_solves_one_by_one(self, monkeypatch):
        # on unit K4 both walks give each common neighbour t/3, so only the
        # two ends of the edge are left to move
        shapes = []
        simplex = transport._transportation_simplex

        def spy(supply, demand, cost, cells):
            shapes.append((len(supply), len(demand)))
            return simplex(supply, demand, cost, cells)

        monkeypatch.setattr(transport, "_transportation_simplex", spy)
        g = gen_complete(4)
        action_plain(g, GeodesicTable(g))
        assert shapes == [(1, 1)] * 12

    @pytest.mark.parametrize("excess", [0.9e-10, -0.9e-10])
    def test_one_empty_side_within_the_mass_rule(self, excess):
        # the totals differ by 0.9e-10, which the mass rule allows, and
        # netting leaves sources or sinks alone, so nothing is solved
        g = gen_complete(3)
        geo = GeodesicTable(g)
        mu = Distribution({"0": 0.5 + excess, "1": 0.5})
        nu = Distribution({"0": 0.5, "1": 0.5})
        sources, sinks, _, _, _, cells, _ = _transport_problem(geo, mu, nu)
        assert (len(sources), len(sinks), cells) == ((1, 0) if excess > 0 else (0, 1)) + ((),)
        plan = wasserstein(g, geo, mu, nu)
        assert plan.cost == 0.0
        assert plan.flows == {("0", "0"): 0.5 + min(excess, 0.0), ("1", "1"): 0.5}

    @pytest.mark.parametrize("solve", [wasserstein, wasserstein_oracle])
    @pytest.mark.parametrize("excess", [0.0, 0.9e-10])
    def test_netted_away_unknown_vertex_is_refused(self, solve, excess):
        # zz holds mass in both distributions, so netting removes it (with
        # excess > 0 it is the only source, and no sink is left)
        g = gen_complete(3)
        mu = Distribution({"1" if excess else "0": 0.5, "zz": 0.5 + excess})
        nu = Distribution({"1": 0.5, "zz": 0.5})
        with pytest.raises(UnknownVertex, match="zz"):
            solve(g, GeodesicTable(g), mu, nu)


def assert_spanning_tree(cells, m, n):
    """m + n - 1 distinct cells and no cycle among rows 0..m-1 and columns
    m..m+n-1: a spanning tree."""
    assert len(cells) == len(set(cells)) == m + n - 1
    root = list(range(m + n))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for i, j in cells:
        a, b = find(i), find(m + j)
        assert a != b
        root[a] = b


def tree_potentials(cells, cost, m, n):
    """Potentials of a basis tree from a fresh walk from row 0: pot[0] = 0
    and pot[i] + pot[m + j] = cost[i][j] on every cell."""
    adj = [[] for _ in range(m + n)]
    for i, j in cells:
        adj[i].append((m + j, cost[i][j]))
        adj[m + j].append((i, cost[i][j]))
    pot = {0: 0}
    stack = [0]
    while stack:
        x = stack.pop()
        for y, c in adj[x]:
            if y not in pot:
                pot[y] = c - pot[x]
                stack.append(y)
    return [pot[x] for x in range(m)], [pot[x] for x in range(m, m + n)]


class TestExactSimplex:
    """Fraction masses with small integer costs (many ties) or Fraction
    costs, negative ones included, and float masses in eighths with
    integer-valued costs: the start, every pivot and the potentials stay
    exact, so the optimality certificate is exactly 0.  Shapes with one
    short side give deep, unbalanced basis trees."""

    @staticmethod
    def _masses(rng, k):
        w = [rng.randint(0, 4) for _ in range(k)]
        w[rng.randrange(k)] += 1
        return [Fraction(x, sum(w)) for x in w]

    @staticmethod
    def _eighths(rng, k):
        w = [0] * k
        for _ in range(8):
            w[rng.randrange(k)] += 1
        return [x / 8 for x in w]

    @staticmethod
    def _assert_marginals(flow, supply, demand):
        for i, a in enumerate(supply):
            assert sum(f for (r, _), f in flow.items() if r == i) == a
        for j, b in enumerate(demand):
            assert sum(f for (_, c), f in flow.items() if c == j) == b

    def _assert_optimal(self, supply, demand, cost):
        m, n = len(supply), len(demand)
        flow, u, v = _transportation_simplex(supply, demand, cost, cells_by_cost(cost))
        assert all(isinstance(f, type(supply[0])) for f in flow.values() if f)
        assert_spanning_tree(list(flow), m, n)
        # potentials of the basis tree price every basic cell, zero-flow
        # ones too, at exactly 0; the certificate covers the rest
        assert (u, v) == tree_potentials(list(flow), cost, m, n)
        assert _certificate_gap(supply, demand, cost, flow, u, v) == 0
        return u, v

    @pytest.mark.parametrize(
        "m, n", [(1, 1), (1, 4), (4, 1), (2, 3), (5, 5), (6, 4), (1, 9), (9, 1), (9, 8)]
    )
    def test_fraction_problems(self, m, n):
        rng = random.Random(f"exact:{m}x{n}")
        for _ in range(25):
            supply = self._masses(rng, m)
            demand = self._masses(rng, n)
            cost = [[rng.randint(0, 5) for _ in range(n)] for _ in range(m)]

            start, basis, _ = _least_cost_start(supply, demand, cells_by_cost(cost))
            assert_spanning_tree(basis, m, n)
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

    @pytest.mark.parametrize("m, n", [(1, 9), (9, 1), (9, 8), (3, 7)])
    def test_negative_fraction_costs(self, m, n):
        rng = random.Random(f"exact:negative:{m}x{n}")
        for _ in range(25):
            cost = [[Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(n)] for _ in range(m)]
            u, v = self._assert_optimal(self._masses(rng, m), self._masses(rng, n), cost)
            assert all(isinstance(p, Fraction) for p in u + v)

    @pytest.mark.parametrize("m, n", [(2, 3), (5, 5), (6, 4), (9, 8), (3, 7)])
    def test_float_ties_pivot_at_zero(self, m, n):
        # masses in eighths and integer-valued costs keep float arithmetic
        # exact; tied masses leave zero-flow basic cells, so the simplex
        # makes degenerate (theta = 0) pivots in floats, as with Fractions
        rng = random.Random(f"exact:eighths:{m}x{n}")
        for _ in range(25):
            supply, demand = self._eighths(rng, m), self._eighths(rng, n)
            cost = [[float(rng.randint(-3, 5)) for _ in range(n)] for _ in range(m)]
            self._assert_optimal(supply, demand, cost)


def float_problem(rng, m, n):
    """Float masses on m sources and n sinks with equal totals, and float
    costs in [-3, 5]."""
    supply = [rng.uniform(0.1, 1.0) for _ in range(m)]
    demand = [rng.uniform(0.1, 1.0) for _ in range(n)]
    total = sum(supply)
    demand = [b * total / sum(demand) for b in demand]
    return supply, demand, [[rng.uniform(-3.0, 5.0) for _ in range(n)] for _ in range(m)]


def test_negative_float_costs_match_shifted_min_cost_flow():
    # the flow oracle needs costs >= 0; shifting every cost by s adds s per
    # unit of mass and leaves the optimal plan unchanged
    rng = random.Random("simplex:negative-costs")
    for _ in range(60):
        m, n = rng.choice([(1, 9), (9, 1), (9, 8), (rng.randint(1, 7), rng.randint(1, 7))])
        supply, demand, cost = float_problem(rng, m, n)
        total = sum(supply)
        flow, _, _ = _transportation_simplex(supply, demand, cost, cells_by_cost(cost))
        simplex_cost = sum(f * cost[i][j] for (i, j), f in flow.items())
        shift = -min(min(row) for row in cost)
        arcs = [(i, m + j, cost[i][j] + shift) for i in range(m) for j in range(n)]
        shifted, _, _ = _min_cost_flow(m + n, arcs, supply + [-b for b in demand])
        assert simplex_cost == pytest.approx(shifted - shift * total, rel=1e-10)


class TestCertificate:
    """On problems where the simplex pivots, the least-cost start with the
    potentials of its basis tree fails the certificate by more than the
    simplex's pricing tolerance, and the simplex's optimum passes it."""

    @staticmethod
    def _float_problems():
        rng = random.Random("certificate:float")
        for _ in range(60):
            m, n = rng.choice([(1, 9), (9, 1), (9, 8), (rng.randint(2, 7), rng.randint(2, 7))])
            supply, demand, cost = float_problem(rng, m, n)
            yield supply, demand, cost, cells_by_cost(cost)

    @staticmethod
    def _graph_problems():
        # neighbour distributions on random graphs, as in criterion 11
        rng = random.Random("certificate:graphs")
        for _ in range(100):
            g = random_connected_graph(rng, rng.randint(4, 8))
            geo = GeodesicTable(g)
            edges = list(g.edges)
            x, y = edges[rng.randrange(len(edges))]
            t = rng.uniform(0.1, 0.9)
            mu = neighbor_distribution(geo, x, t)
            nu = neighbor_distribution(geo, y, t)
            yield _transport_problem(geo, mu, nu)[2:6]

    @staticmethod
    def _assert_separates(problems):
        """Check each problem; return how many of them the simplex pivots on."""
        pivoted = 0
        for supply, demand, cost, cells in problems:
            start, basis, scale = _least_cost_start(supply, demand, cells)
            flow, u, v = _transportation_simplex(supply, demand, cost, cells)
            tol = 1e-12 * scale  # the simplex's pricing tolerance
            assert _certificate_gap(supply, demand, cost, flow, u, v) <= tol
            if set(flow) != set(basis):  # Bland's rule never returns to a basis
                pivoted += 1
                start_u, start_v = tree_potentials(basis, cost, len(supply), len(demand))
                assert _certificate_gap(supply, demand, cost, start, start_u, start_v) > tol
        return pivoted

    def test_float_problems(self):
        assert self._assert_separates(self._float_problems()) >= 20

    def test_graph_problems(self):
        assert self._assert_separates(self._graph_problems()) >= 10


class TestBasisPotentials:
    """The potentials the simplex returns are exactly those of a fresh walk
    of its returned basis tree from row 0, after however many pivots."""

    @staticmethod
    def _assert_walked(supply, demand, cost, cells):
        m, n = len(supply), len(demand)
        flow, u, v = _transportation_simplex(supply, demand, cost, cells)
        assert_spanning_tree(list(flow), m, n)
        assert (u, v) == tree_potentials(list(flow), cost, m, n)

    @pytest.mark.parametrize("m, n", [(1, 9), (9, 1), (9, 8)])
    def test_float_problems(self, m, n):
        rng = random.Random(f"potentials:{m}x{n}")
        for _ in range(40):
            supply, demand, cost = float_problem(rng, m, n)
            self._assert_walked(supply, demand, cost, cells_by_cost(cost))

    def test_complete_graph_blocks(self):
        rng = random.Random("potentials:K8")
        base = gen_complete(8)
        for _ in range(3):
            g = base.with_lengths({key: rng.uniform(0.5, 2.0) for key in base.edges})
            geo = GeodesicTable(g)
            for x, y in g.edges:
                for t in (0.9, 1e-3):
                    mu = neighbor_distribution(geo, x, t)
                    nu = neighbor_distribution(geo, y, t)
                    cost, cells = geo.cost_block(mu.support, nu.support)
                    self._assert_walked([mu(a) for a in mu.support], [nu(b) for b in nu.support], cost, cells)


class TestOracle:
    def test_matches_simplex(self, rng):
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(3, 8))
            geo = GeodesicTable(g)
            edges = list(g.edges)
            u, v = edges[rng.randrange(len(edges))]
            t = rng.uniform(0.05, 0.95)
            mu = neighbor_distribution(geo, u, t)
            nu = neighbor_distribution(geo, v, t)
            assert wasserstein(g, geo, mu, nu).cost == pytest.approx(
                wasserstein_oracle(g, geo, mu, nu), abs=1e-12
            )

    def test_two_point(self, line3, line3_geo):
        assert wasserstein_oracle(line3, line3_geo, Distribution({"a": 1.0}), Distribution({"c": 1.0})) == pytest.approx(2.0)

    def test_same_distribution(self, line3, line3_geo):
        mu = neighbor_distribution(line3_geo, "b", 0.2)
        assert wasserstein_oracle(line3, line3_geo, mu, mu) == pytest.approx(0.0, abs=1e-12)


def edge_move_cost(g, geo, mu, nu):
    """Transportation cost when mass may only hop between graph neighbors,
    each hop charged the geodesic length of that edge.

    Returns (cost, potential) where potential is 1-Lipschitz across every
    edge and satisfies sum(potential * (mu - nu)) == cost at the optimum.
    """
    index = {v: k for k, v in enumerate(g.vertices)}
    arcs = []
    for u, v in g.edges:
        p = geo.dist(u, v)
        arcs.append((index[u], index[v], p))
        arcs.append((index[v], index[u], p))
    supply = [mu(v) - nu(v) for v in g.vertices]
    total, _, pot = _min_cost_flow(len(index), arcs, supply)
    return total, {v: -pot[index[v]] for v in g.vertices}


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
            mu = neighbor_distribution(geo, u, t)
            nu = neighbor_distribution(geo, v, t)
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
        mu = neighbor_distribution(geo, "0", 0.25)
        nu = neighbor_distribution(geo, "1", 0.25)
        moved, _ = edge_move_cost(g, geo, mu, nu)
        assert moved == pytest.approx(wasserstein(g, geo, mu, nu).cost, abs=1e-10)
