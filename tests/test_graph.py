import gc
import itertools
import math
import re
import weakref

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from graphgrav import (
    GeodesicTable,
    HexRegionSpec,
    Setting,
    action_plain,
    build_graph,
    edge_key,
    extract_region,
    gen_complete,
    gen_cycle,
    gen_hex_region,
    gen_tree,
    kappa,
    neighbor_distribution,
    sigma_edges,
)
from graphgrav.cli import _edge_list
from graphgrav.errors import (
    BadParams,
    Disconnected,
    DisconnectedRegion,
    DuplicateEdge,
    EmptyRegion,
    NonpositiveLength,
    NotAnEdge,
    SelfLoop,
    UnknownVertex,
)
from graphgrav.cli import _graph_from_json, _graph_to_json

from conftest import connected_graphs, random_connected_graph


def brute_force_distance(g, i, j):
    """Shortest path by enumerating all simple paths; oracle for Dijkstra."""
    best = 0.0 if i == j else float("inf")
    stack = [(i, {i}, 0.0)]
    while stack:
        v, seen, acc = stack.pop()
        if v == j and acc < best:
            best = acc
        for w in g.neighbors(v):
            if w not in seen:
                stack.append((w, seen | {w}, acc + g.length(v, w)))
    return best


class TestBuildGraph:
    def test_path(self, line3):
        assert line3.vertices == ("a", "b", "c")
        assert line3.num_edges == 2
        assert line3.length("b", "a") == 1.0

    def test_triangle(self, triangle_112):
        assert triangle_112.num_edges == 3
        assert edge_key("c", "a") in triangle_112.lengths()

    @pytest.mark.parametrize(
        "edges, err",
        [
            ([("a", "b", 0.0)], NonpositiveLength),
            ([("a", "b", -1.0)], NonpositiveLength),
            ([("a", "b", float("nan"))], NonpositiveLength),
            ([("a", "a", 1.0)], SelfLoop),
            ([("a", "b", 1.0), ("b", "a", 2.0)], DuplicateEdge),
            ([("a", "z", 1.0)], UnknownVertex),
            ([(["a"], "b", 1.0)], BadParams),  # checked before it is hashed
        ],
    )
    def test_rejects(self, edges, err):
        with pytest.raises(err):
            build_graph(["a", "b"], edges)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_one_length_rule(self, line3, bad):
        # build_graph, with_lengths and Setting share one check and message
        for make in (
            lambda: build_graph(["a", "b"], [("b", "a", bad)]),
            lambda: line3.with_lengths({("a", "b"): bad, ("b", "c"): 1.0}),
            lambda: Setting({("a", "b"): bad}),
        ):
            with pytest.raises(NonpositiveLength, match=r"edge \('a', 'b'\) must be positive and finite"):
                make()

    @pytest.mark.parametrize("ids", [[0, 1], ["0", 1], [("0",), "1"], ["0", ["1"]]])
    def test_rejects_an_id_that_is_not_a_string(self, ids):
        bad = next(v for v in ids if not isinstance(v, str))
        with pytest.raises(BadParams, match=re.escape(f"vertex id {bad!r} is not a string")):
            build_graph(ids, [(*ids, 1.0)])

    def test_rejects_no_vertices(self):
        with pytest.raises(BadParams, match="graph needs at least one vertex"):
            build_graph([], [])

    def test_rejects_a_vertex_listed_twice(self):
        with pytest.raises(BadParams, match="a vertex id is listed twice"):
            build_graph(["a", "a", "b"], [("a", "b", 1.0)])

    def test_neighbors_of_unknown_vertex(self, line3):
        with pytest.raises(UnknownVertex):
            line3.neighbors("z")

    def test_rejects_disconnected(self):
        with pytest.raises(Disconnected):
            build_graph(["a", "b", "c", "d"], [("a", "b", 1.0), ("c", "d", 1.0)])

    def test_length_of_missing_edge(self, line3):
        with pytest.raises(NotAnEdge):
            line3.length("a", "c")

    def test_with_lengths_demands_cover(self, line3):
        with pytest.raises(BadParams, match=re.escape("no length given for edge ('b', 'c')")):
            line3.with_lengths({("a", "b"): 2.0})

    def test_one_edge_order_whatever_order_the_edges_are_given_in(self):
        # the triangle a-b, b-c, a-c, given in that order and reversed
        edges = [("a", "b", 1.0), ("b", "c", 1.0), ("a", "c", 1.0)]
        for given_edges in (edges, edges[::-1]):
            g = build_graph(["a", "b", "c"], given_edges)
            assert list(g.lengths()) == list(g.edges) == [("a", "b"), ("a", "c"), ("b", "c")]
            with pytest.raises(BadParams, match=re.escape("no length given for edge ('a', 'c')")):
                g.with_lengths({("a", "b"): 2.0})

    def test_with_lengths_rejects_a_non_edge(self, line3):
        with pytest.raises(NotAnEdge):
            line3.with_lengths({("a", "b"): 2.0, ("b", "c"): 1.0, ("a", "c"): 1.0})


class TestEdgeKey:
    ids = st.one_of(st.sampled_from(["-1", "0", "1", "10", "9", "a", "a b"]), st.text(max_size=3))

    @given(ids, ids)
    def test_either_order_gives_one_key(self, u, v):
        assume(u != v)
        assert edge_key(u, v) == edge_key(v, u) in ((u, v), (v, u))
        g = build_graph([u, v], [(v, u, 2.0)])
        assert edge_key(u, v) in g.lengths() and g.length(u, v) == 2.0
        assert GeodesicTable(g).dist(u, v) == GeodesicTable(g).dist(v, u) == 2.0

    @given(st.lists(st.text(max_size=3), min_size=2, max_size=2, unique=True))
    def test_smaller_string_first(self, pair):
        assert edge_key(*pair) == tuple(sorted(pair))


@st.composite
def string_id_graphs(draw):
    """A tree or a cycle on up to 7 arbitrary string ids, with random lengths."""
    ids = draw(st.lists(st.text(max_size=3), min_size=2, max_size=7, unique=True))
    if len(ids) > 2 and draw(st.booleans()):
        pairs = list(zip(ids, ids[1:] + ids[:1]))
    else:  # each id after the first hangs from an earlier one
        pairs = [(ids[draw(st.integers(0, k - 1))], ids[k]) for k in range(1, len(ids))]
    lengths = st.floats(0.5, 2.0)
    return build_graph(ids, [(u, v, draw(lengths)) for u, v in pairs])


class TestStringOrder:
    @given(string_id_graphs(), st.floats(0.1, 0.9))
    @settings(max_examples=200, deadline=None)
    def test_every_order_is_string_order(self, g, t):
        assert g.edges == tuple(sorted(g.edges))
        assert all(u < v for u, v in g.edges)
        geo = GeodesicTable(g)
        for v in g.vertices:
            assert g.neighbors(v) == tuple(sorted(g.neighbors(v)))
            support = neighbor_distribution(geo, v, t).support
            assert support == tuple(sorted(support))
        rows = _edge_list(dict(reversed(g.lengths().items())), "len")
        assert [(row["u"], row["v"]) for row in rows] == list(g.edges)


class TestGeodesics:
    def test_path_additive(self, line3, line3_geo):
        assert line3_geo.dist("a", "c") == pytest.approx(2.0)

    def test_identity(self, line3, line3_geo):
        assert line3_geo.dist("b", "b") == 0.0

    def test_long_edge_tie(self, triangle_112):
        geo = GeodesicTable(triangle_112)
        assert geo.dist("a", "c") == pytest.approx(
            brute_force_distance(triangle_112, "a", "c")
        )

    def test_unknown_vertex(self, line3_geo):
        with pytest.raises(UnknownVertex):
            line3_geo.dist("a", "zz")

    def test_matches_brute_force(self, rng):
        for _ in range(20):
            g = random_connected_graph(rng, rng.randint(3, 6))
            geo = GeodesicTable(g)
            for i, j in itertools.combinations(g.vertices, 2):
                assert geo.dist(i, j) == pytest.approx(brute_force_distance(g, i, j))

    def test_triangle_inequality(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(4, 7))
            geo = GeodesicTable(g)
            for i, j, k in itertools.permutations(g.vertices, 3):
                assert geo.dist(i, j) + geo.dist(j, k) >= geo.dist(i, k) - 1e-12

    def test_tree_edge_is_geodesic(self, rng):
        # on a tree the direct edge is always the unique path
        from graphgrav import gen_tree

        g = gen_tree(2, 3)
        lengths = {key: rng.uniform(0.5, 2.0) for key in g.lengths()}
        g = g.with_lengths(lengths)
        geo = GeodesicTable(g)
        for u, v in g.edges:
            assert geo.dist(u, v) == pytest.approx(g.length(u, v))


@st.composite
def graphs_and_queries(draw):
    """A graph from ``connected_graphs`` and random vertex pairs to query in
    order."""
    g = draw(connected_graphs())
    vertex = st.sampled_from(g.vertices)
    queries = draw(st.lists(st.tuples(vertex, vertex), max_size=4 * len(g.vertices)))
    return g, queries


class TestLazyGeodesics:
    """Queries resume a paused search per source; every answer must be the
    float that a fresh table gives, whatever was asked before it."""

    @given(graphs_and_queries())
    @settings(max_examples=150, deadline=None)
    def test_queries_match_drained_rows(self, case):
        g, queries = case
        geo = GeodesicTable(g)
        for i, j in queries:
            got = geo.dist(i, j)
            if i == j:
                assert got == 0.0
                continue
            assert got == GeodesicTable(g).dist(i, j)
        fresh = GeodesicTable(g)
        for i, j in itertools.product(g.vertices, repeat=2):
            assert geo.dist(i, j) == fresh.dist(i, j)
        with pytest.raises(UnknownVertex):
            geo.dist(g.vertices[0], "missing")
        with pytest.raises(UnknownVertex):
            geo.dist("missing", "missing")

    def test_table_is_not_a_reference_cycle(self, rng):
        # a paused search that held its table would leave every table to the
        # cycle collector, and memory would grow between collections
        g = random_connected_graph(rng, 6)
        geo = GeodesicTable(g)
        geo.dist(g.vertices[0], g.vertices[-1])
        ref = weakref.ref(geo)
        gc.disable()
        try:
            del geo
            assert ref() is None
        finally:
            gc.enable()

    @staticmethod
    def _settled_per_edge(g):
        geo = GeodesicTable(g)
        action_plain(g, geo)
        return sum(len(settled) for settled, _ in geo._searches.values()) / g.num_edges

    @pytest.mark.parametrize(
        "small, large",
        [
            (gen_hex_region(HexRegionSpec(4))[0], gen_hex_region(HexRegionSpec(8))[0]),
            (gen_tree(2, 5), gen_tree(2, 8)),
        ],
        ids=["hex", "tree"],
    )
    def test_action_settles_a_bounded_ball_per_edge(self, small, large):
        # a query settles only the ball up to its target, so the work per
        # edge must not grow with the graph; full rows would grow with |V|
        assert self._settled_per_edge(large) <= 1.5 * self._settled_per_edge(small)


class TestLocalSums:
    def test_unit_degree3(self):
        g = build_graph(
            ["c", "x", "y", "z"],
            [("c", "x", 1.0), ("c", "y", 1.0), ("c", "z", 1.0)],
        )
        assert GeodesicTable(g).walk("c")[:2] == pytest.approx((3.0, 3.0))

    def test_mixed_lengths(self):
        g = build_graph(["a", "b", "c"], [("a", "b", 1.0), ("b", "c", 2.0)])
        c, d = GeodesicTable(g).walk("b")[:2]
        assert (c, d) == pytest.approx((1.5, 1.25))

    @given(st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=25, deadline=None)
    def test_leaf(self, a):
        g = build_graph(["u", "v"], [("u", "v", a)])
        c, d = GeodesicTable(g).walk("u")[:2]
        assert c == pytest.approx(1.0 / a)
        assert d == pytest.approx(1.0 / a**2)


class TestTableMemos:
    """A table computes each vertex's walk and each netted cost block once;
    the memos must give the floats of the direct loops."""

    @given(connected_graphs(), st.floats(1e-9, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_walks_match_direct_loop(self, g, t):
        geo = GeodesicTable(g)
        for i in g.vertices:
            inv = inv2 = 0.0
            mass = {i: 1.0 - t}
            for w in g.neighbors(i):
                p = geo.dist(i, w)
                inv += 1.0 / p
                inv2 += 1.0 / (p * p)
            for w in g.neighbors(i):
                p = geo.dist(i, w)
                mass[w] = t / (p * p) / inv2
            for _ in range(2):  # computed, then read from the memo
                assert geo.walk(i)[:2] == (inv, inv2)
                assert neighbor_distribution(geo, i, t).mass == mass

    def test_complete_graph_builds_a_cost_block_per_solving_edge(self, rng):
        # every edge of K_n solves; which vertices its netted problem takes
        # as sources and sinks does not change as the limit halves t, so all
        # of one edge's solves ask for one block (two edges may share one)
        g = gen_complete(10)
        g = g.with_lengths({key: rng.uniform(0.25, 4.0) for key in g.edges})
        geo = GeodesicTable(g)
        asked = []
        cost_block = geo.cost_block

        def spy(sources, sinks):
            asked.append((sources, sinks))
            return cost_block(sources, sinks)

        geo.cost_block = spy
        for u, v in g.edges:
            asked.clear()
            kappa(geo, u, v)
            assert len(asked) >= 2 and len(set(asked)) == 1
        blocks = dict(geo._blocks)
        assert 1 < len(blocks) <= g.num_edges
        action_plain(g, geo)
        assert geo._blocks == blocks

    def test_one_cost_block_per_edge_that_solves(self, rng):
        # an edge whose neighbourhood metric is a double star takes no solve,
        # so a tree builds no block
        g = gen_tree(2, 4)
        g = g.with_lengths({key: rng.uniform(0.5, 2.0) for key in g.edges})
        geo = GeodesicTable(g)
        action_plain(g, geo)
        assert len(geo._blocks) == 0
        # on C5 the edge k-(k+1) takes the closed form when its far side, the
        # path (k+2)-(k+3)-(k+4), is at least as long as the other three edges;
        # every other edge solves twice on one block
        solving = set()
        for _ in range(20):
            ell = [rng.uniform(0.5, 2.0) for _ in range(5)]
            g = gen_cycle(5)
            g = g.with_lengths({edge_key(str(k), str((k + 1) % 5)): ell[k] for k in range(5)})
            geo = GeodesicTable(g)
            action_plain(g, geo)
            far = [ell[(k + 2) % 5] + ell[(k + 3) % 5] for k in range(5)]
            solves = sum(f < sum(ell) - f for f in far)
            assert len(geo._blocks) == solves
            solving.add(solves)
        assert min(solving) < 5 == max(solving)


def fig1_graph():
    # square i1-i2-i4-i3 plus spikes i5 at i1 and i6 at i2
    return build_graph(
        ["i1", "i2", "i3", "i4", "i5", "i6"],
        [
            ("i1", "i2", 1.0),
            ("i1", "i3", 1.0),
            ("i2", "i4", 1.0),
            ("i3", "i4", 1.0),
            ("i1", "i5", 1.0),
            ("i2", "i6", 1.0),
        ],
    )


class TestRegions:
    def test_whole_graph_is_closed(self, line3):
        region = extract_region(line3, ["a", "b", "c"])
        assert region.boundary_vertices == frozenset()
        assert region.boundary_edges == frozenset()
        assert region.interior == frozenset({"a", "b", "c"})

    def test_square_with_spikes(self):
        g = fig1_graph()
        region = extract_region(g, ["i1", "i2", "i3", "i4"])
        assert region.boundary_vertices == frozenset({"i1", "i2"})
        assert region.boundary_edges == frozenset(
            {("i1", "i2"), ("i1", "i5"), ("i2", "i6")}
        )
        assert region.interior == frozenset({"i3", "i4"})
        assert set(sigma_edges(g, region)) == {
            ("i1", "i2"),
            ("i1", "i3"),
            ("i2", "i4"),
            ("i3", "i4"),
        }

    def test_star_minus_leaf(self):
        g = build_graph(
            ["c", "x", "y", "z"],
            [("c", "x", 1.0), ("c", "y", 1.0), ("c", "z", 1.0)],
        )
        region = extract_region(g, ["c", "x", "y"])
        assert region.boundary_vertices == frozenset({"c"})

    def test_empty_region(self, line3):
        with pytest.raises(EmptyRegion):
            extract_region(line3, [])

    def test_unknown_vertex(self, line3):
        with pytest.raises(UnknownVertex, match="'zz'"):
            extract_region(line3, ["a", "zz"])

    @pytest.mark.parametrize("bad", [["a"], 0])
    def test_id_that_is_not_a_string(self, line3, bad):
        # checked before the region's vertex set is hashed
        with pytest.raises(BadParams, match=re.escape(f"vertex id {bad!r} is not a string")):
            extract_region(line3, [bad, "b"])

    def test_disconnected_region(self, line3):
        with pytest.raises(DisconnectedRegion):
            extract_region(line3, ["a", "c"])

    def test_matches_definition_on_random_graphs(self, rng):
        for _ in range(25):
            g = random_connected_graph(rng, rng.randint(4, 10))
            sigma = set()
            start = g.vertices[0]
            frontier = [start]
            budget = rng.randint(1, len(g.vertices))
            while frontier and len(sigma) < budget:
                v = frontier.pop()
                if v in sigma:
                    continue
                sigma.add(v)
                frontier.extend(g.neighbors(v))
            region = extract_region(g, sigma)
            # re-derive straight from the definition
            boundary = {
                v for v in sigma if any(w not in sigma for w in g.neighbors(v))
            }
            bedges = set()
            for u, v in g.edges:
                if u in boundary and v in boundary:
                    bedges.add((u, v))
                elif u in boundary and v not in sigma:
                    bedges.add((u, v))
                elif v in boundary and u not in sigma:
                    bedges.add((u, v))
            assert region.boundary_vertices == frozenset(boundary)
            assert region.boundary_edges == frozenset(bedges)
            assert region.interior == frozenset(sigma - boundary)


def test_json_round_trip(triangle_112):
    doc = _graph_to_json(triangle_112)
    g2 = _graph_from_json(doc)
    assert g2.vertices == triangle_112.vertices
    assert set(g2.edges) == set(triangle_112.edges)
    for u, v in g2.edges:
        assert g2.length(u, v) == triangle_112.length(u, v)
