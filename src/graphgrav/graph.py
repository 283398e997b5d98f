"""Weighted graphs, geodesic distances and their vertex sums, and regions.

Vertex ids are strings, ordered as strings: an undirected edge is keyed by its
smaller id first, and edge and neighbour lists are sorted.  Structures are
immutable after construction; anything that changes lengths goes through
:meth:`WeightedGraph.with_lengths` and gets a fresh geodesic table.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .errors import (
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


def edge_key(u, v):
    """Order-normalized key for the undirected edge between u and v: the
    smaller id first."""
    return (u, v) if u <= v else (v, u)


def _check_length(key, ell):
    """Raise NonpositiveLength unless the length of edge ``key`` is positive
    and finite (NaN is neither)."""
    if not 0.0 < ell < math.inf:
        raise NonpositiveLength(f"length for edge {key!r} must be positive and finite, got {ell}")


def _require_ids(ids):
    """Raise BadParams unless every vertex id is a string; called before any
    hashing, so an unhashable id is refused alike."""
    for v in ids:
        if not isinstance(v, str):
            raise BadParams(f"vertex id {v!r} is not a string")


def _require_table(g, geo):
    """Raise BadParams unless ``geo`` is the geodesic table built for ``g``."""
    if geo.graph is not g:
        raise BadParams("the geodesic table was built for another graph")


def _require_edges(g, keys):
    """Raise NotAnEdge unless every key in ``keys`` is an edge's `edge_key`."""
    for key in keys:
        if key not in g._lengths:
            raise NotAnEdge(f"{key!r} is not an edge")


class WeightedGraph:
    """Connected simple graph with strictly positive edge lengths.

    Use :func:`build_graph` to construct; the constructor assumes validated
    input.
    """

    __slots__ = ("_vertices", "_adj", "_lengths")

    def __init__(self, vertices, adj, lengths):
        self._vertices = tuple(vertices)
        self._adj = adj
        self._lengths = lengths

    @property
    def vertices(self):
        return self._vertices

    @property
    def edges(self):
        return tuple(self._lengths)

    @property
    def num_edges(self):
        return len(self._lengths)

    def __contains__(self, v):
        return v in self._adj

    def neighbors(self, v):
        if v not in self._adj:
            raise UnknownVertex(f"unknown vertex {v!r}")
        return self._adj[v]

    def degree(self, v):
        return len(self.neighbors(v))

    def length(self, u, v):
        key = edge_key(u, v)
        if key not in self._lengths:
            raise NotAnEdge(f"no edge between {u!r} and {v!r}")
        return self._lengths[key]

    def lengths(self):
        """Copy of the edge -> length map, in `edges` order."""
        return dict(self._lengths)

    def with_lengths(self, new_lengths):
        """Same topology with edge lengths replaced.

        ``new_lengths`` maps normalized edge keys to positive values; it must
        name no other pair (NotAnEdge) and cover every edge (BadParams).
        """
        _require_edges(self, new_lengths)
        out = {}
        for key in self._lengths:
            if key not in new_lengths:
                raise BadParams(f"no length given for edge {key!r}")
            val = float(new_lengths[key])
            _check_length(key, val)
            out[key] = val
        return WeightedGraph(self._vertices, self._adj, out)


def build_graph(vertex_ids, weighted_edges):
    """Validate and build a WeightedGraph.

    ``weighted_edges`` is an iterable of (u, v, length) triples.  Raises
    BadParams on no vertices or an id that is not a string or listed twice,
    else SelfLoop, UnknownVertex, NonpositiveLength, DuplicateEdge or Disconnected.
    """
    vertices = list(vertex_ids)
    if not vertices:
        raise BadParams("graph needs at least one vertex")
    _require_ids(vertices)
    vset = set(vertices)
    if len(vset) < len(vertices):
        raise BadParams("a vertex id is listed twice")
    lengths = {}
    adj = {v: [] for v in vertices}
    for u, v, ell in weighted_edges:
        _require_ids((u, v))
        if u == v:
            raise SelfLoop(f"self-loop at {u!r}")
        if u not in vset or v not in vset:
            raise UnknownVertex(f"edge ({u!r}, {v!r}) references unknown vertex")
        key = edge_key(u, v)
        ell = float(ell)
        _check_length(key, ell)
        if key in lengths:
            raise DuplicateEdge(f"duplicate edge {key!r}")
        lengths[key] = ell
        adj[u].append(v)
        adj[v].append(u)
    adj = {v: tuple(sorted(nbrs)) for v, nbrs in adj.items()}
    if not _connected(adj, vset):
        raise Disconnected("graph is not connected")
    return WeightedGraph(vertices, adj, dict(sorted(lengths.items())))


def _connected(adj, within):
    """Whether the nonempty vertex set ``within`` is connected by the edges
    of the adjacency map ``adj`` that join two of its vertices."""
    start = next(iter(within))
    seen = {start}
    stack = [start]
    while stack:
        for w in adj[stack.pop()]:
            if w in within and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(within)


def _search(g: WeightedGraph, source, settled):
    """Dijkstra from ``source`` that pauses after each vertex it settles into
    ``settled``; it holds no table, so no table is a reference cycle."""
    dist = {}  # tentative distances; the source is settled on the first pop
    heap = [(0.0, source)]  # equal distances pop by id, a str
    while heap:
        d, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled[u] = d
        yield
        for w in g._adj[u]:
            nd = d + g._lengths[edge_key(u, w)]
            if w not in settled and (w not in dist or nd < dist[w]):
                dist[w] = nd
                heapq.heappush(heap, (nd, w))


class GeodesicTable:
    """Everything that depends only on the lengths of ``graph``, computed on
    first use and kept for the table's life; build a new one after `with_lengths`.

    - Distances come from one paused Dijkstra search per source: a query
      resumes it only until the target is settled, so it costs time in the
      ball of radius d(i, j).  The source of a pair is the first vertex of
      its `edge_key`, so a distance is the same float whatever was asked
      before it.
    - `walk(i)` holds each vertex's neighbour geodesics and their inverse
      sums.
    - `cost_block(sources, sinks)` holds the cost matrix of each netted
      transport problem (see `transport`) with its cells in least-cost order.
    """

    def __init__(self, g: WeightedGraph):
        self.graph = g
        self._searches = {}  # source -> ({vertex: distance} settled so far, search)
        self._walks = {}  # vertex -> (sum 1/P, sum 1/P^2, ((neighbour, P), ...))
        self._blocks = {}  # (sources, sinks) -> (cost rows, cells_by_cost of them)

    def dist(self, i, j):
        if i not in self.graph._adj or j not in self.graph._adj:
            raise UnknownVertex(f"unknown vertex in pair ({i!r}, {j!r})")
        if i == j:
            return 0.0
        i, j = edge_key(i, j)  # one source per pair fixes the float
        settled, search = self._searches.get(i) or self._dijkstra(i)
        while j not in settled:
            next(search)
        return settled[j]

    def walk(self, i):
        """(sum of 1/P, sum of 1/P^2, ((w, P), ...)) over the neighbours w of
        i in ``g.neighbors`` order, where P is the geodesic distance from i
        to w (at most the direct edge length)."""
        walk = self._walks.get(i)
        if walk is None:
            pairs = tuple((w, self.dist(i, w)) for w in self.graph.neighbors(i))
            inv = 0.0
            inv2 = 0.0
            for _, p in pairs:
                inv += 1.0 / p
                inv2 += 1.0 / (p * p)
            walk = self._walks[i] = inv, inv2, pairs
        return walk

    def cost_block(self, sources, sinks):
        """Geodesic cost matrix between two tuples of vertices, as a list of
        rows (tuple rows built from generators raised peak RSS), and its
        cells from `cells_by_cost`."""
        block = self._blocks.get((sources, sinks))
        if block is None:
            cost = [[self.dist(u, v) for v in sinks] for u in sources]
            block = self._blocks[sources, sinks] = cost, cells_by_cost(cost)
        return block

    def _dijkstra(self, source):
        settled = {}
        self._searches[source] = settled, _search(self.graph, source, settled)
        return self._searches[source]


def cells_by_cost(cost):
    """Cells of a cost matrix as (cost, i, j), cheapest first, ties broken by
    row and then column: the order of the transportation simplex's
    least-cost start."""
    return tuple(sorted((c, i, j) for i, row in enumerate(cost) for j, c in enumerate(row)))


@dataclass(frozen=True)
class Region:
    """A finite connected induced subgraph with its vertex/edge boundary."""

    interior: frozenset
    boundary_vertices: frozenset
    boundary_edges: frozenset

    @property
    def vertices(self):
        return self.interior | self.boundary_vertices


def extract_region(g: WeightedGraph, sigma_vertices) -> Region:
    """Region over ``sigma_vertices``: boundary vertices are those with at
    least one neighbor outside, boundary edges those between two boundary
    vertices or leaving the region.  An id that is not a string raises
    BadParams, an unknown one UnknownVertex."""
    ordered = list(sigma_vertices)
    _require_ids(ordered)
    sigma = set(ordered)
    if not sigma:
        raise EmptyRegion("region must contain at least one vertex")
    for v in ordered:  # in the given order, so the message names the same vertex
        if v not in g:
            raise UnknownVertex(f"unknown vertex {v!r}")
    if not _connected(g._adj, sigma):
        raise DisconnectedRegion("induced subgraph is not connected")
    boundary = {v for v in sigma if any(w not in sigma for w in g.neighbors(v))}
    bedges = set()
    for v in boundary:
        for w in g.neighbors(v):
            if w not in sigma or w in boundary:
                bedges.add(edge_key(v, w))
    return Region(
        interior=frozenset(sigma - boundary),
        boundary_vertices=frozenset(boundary),
        boundary_edges=frozenset(bedges),
    )


def sigma_edges(g: WeightedGraph, region: Region):
    """Edges of the induced subgraph on the region's vertices."""
    verts = region.vertices
    out = []
    for u, v in g.edges:
        if u in verts and v in verts:
            out.append((u, v))
    return tuple(out)
