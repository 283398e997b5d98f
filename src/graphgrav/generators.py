"""Constructors for the graph families and edge-length families under study:
regular-tree truncations, complete graphs, cycles, hexagonal-lattice regions,
perfect-matching settings, line-solution chains, half-half settings, and
two-progression settings.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dynamics import Setting, t1_next_ratios
from .errors import BadParams, TooLarge
from .graph import Region, WeightedGraph, _require_edges, build_graph, edge_key, extract_region

MAX_EDGES = 99_999


def _require_size(edges: int):
    """Raise TooLarge above MAX_EDGES edges: every generator asks first."""
    if edges > MAX_EDGES:
        raise TooLarge(f"generated graphs are capped at {MAX_EDGES} edges")


def _tree_edges(q: int, depth: int) -> list:
    """Edges of the gen_tree(q, depth) truncation as (parent, child, k) in
    breadth-first order, k being the child's index among its parent's
    children.  Ids are breadth-first: the root "0" has children 1..q+1 and
    vertex v >= 1 has children q+2+(v-1)q .. q+1+vq.  Raises TooLarge above
    MAX_EDGES edges, checked ring by ring."""
    count, ring = 1, q + 1
    for _ in range(depth):
        count += ring
        _require_size(count - 1)
        ring *= q
    edges = [("0", str(w), w - 1) for w in range(1, q + 2)]
    for w in range(q + 2, count):
        v, k = divmod(w - 2, q)
        edges.append((str(v), str(w), k))
    return edges


def gen_tree(q: int, depth: int) -> WeightedGraph:
    """Unit-length truncation of the tree where every vertex has degree q+1.

    The root sits at depth 0 and each vertex within depth-1 carries its full
    q+1 neighbors; the depth ring consists of cut leaves.
    """
    if q < 1 or depth < 1:
        raise BadParams("need q >= 1 and depth >= 1")
    edges = _tree_edges(q, depth)
    return build_graph(["0"] + [w for _, w, _ in edges], [(v, w, 1.0) for v, w, _ in edges])


def gen_complete(n: int) -> WeightedGraph:
    if n < 3:
        raise BadParams("need n >= 3")
    _require_size(n * (n - 1) // 2)
    verts = [str(k) for k in range(n)]
    edges = [(verts[a], verts[b], 1.0) for a in range(n) for b in range(a + 1, n)]
    return build_graph(verts, edges)


def gen_cycle(n: int) -> WeightedGraph:
    if n < 3:
        raise BadParams("need n >= 3")
    _require_size(n)
    verts = [str(k) for k in range(n)]
    edges = [(verts[k], verts[(k + 1) % n], 1.0) for k in range(n)]
    return build_graph(verts, edges)


def constant_setting(g: WeightedGraph, a: float) -> Setting:
    return Setting({key: float(a) for key in g.lengths()})


# ---------------------------------------------------------------------------
# perfect matchings


def find_perfect_matching(g: WeightedGraph):
    """A perfect matching of g as a frozenset of edge keys, or None.
    Exhaustive with memoized failure states; limited to 24 vertices."""
    verts = g.vertices
    if len(verts) > 24:
        raise TooLarge("perfect-matching search is capped at 24 vertices")
    if len(verts) % 2 == 1:
        return None
    dead = set()

    def extend(unmatched):
        if not unmatched:
            return []
        if unmatched in dead:
            return None
        u = min(unmatched)
        for v in g.neighbors(u):
            if v in unmatched:
                rest = extend(unmatched - {u, v})
                if rest is not None:
                    return [edge_key(u, v)] + rest
        dead.add(unmatched)
        return None

    picked = extend(frozenset(verts))
    return None if picked is None else frozenset(picked)


def matching_setting(g: WeightedGraph, m: frozenset, eps: float) -> Setting:
    """Matched edges get length eps, the rest length 1.  The edge keys in m
    must cover every vertex of g exactly once.

    Driving eps to zero realizes the degenerate matching limit while keeping
    every length positive.
    """
    _require_edges(g, m)
    covered = {v for edge in m for v in edge}
    if len(covered) < 2 * len(m):
        raise BadParams("matching edges share a vertex")
    if len(covered) < len(g.vertices):
        raise BadParams("matching does not cover every vertex")
    return Setting({key: float(eps) if key in m else 1.0 for key in g.lengths()})


# ---------------------------------------------------------------------------
# line solutions and half-half settings


def t1_setting(ratios):
    """Path graph plus setting whose inverse lengths follow ``ratios``.

    The first edge has length 1 and edge k+1 has inverse length equal to
    ratios[k] times that of edge k; the chain solves the line equations of
    motion exactly when every ratio comes from the two-value family of its
    predecessor.
    """
    lengths = [1.0]
    for r in ratios:
        if not r > 0:
            raise BadParams("ratios must be positive")
        lengths.append(lengths[-1] / r)
    verts = [str(k) for k in range(len(lengths) + 1)]
    edges = [(verts[k], verts[k + 1], lengths[k]) for k in range(len(lengths))]
    g = build_graph(verts, edges)
    return g, Setting({edge_key(u, v): ell for u, v, ell in edges})


def valid_t1_chain(r0: float, picks) -> list:
    """Ratio chain over the admissible pair {r0, (r0+1)/(r0-1)}.

    ``picks`` is an iterable of 0/1 choices selecting which of the two values
    each step uses.
    """
    pair = t1_next_ratios(r0)
    return [pair[p] for p in picks]


def half_half_setting(q: int, depth: int, ratios) -> Setting:
    """Half-half setting on the gen_tree(q, depth) truncation.

    Every vertex is given (q+1)/2 edges toward lower levels and (q+1)/2
    toward higher levels; the per-level lengths follow the inverse-length
    ratio chain ``ratios`` (a single value r > 1 gives the geometric family).
    The chain needs 2*depth - 1 entries, all drawn from the two-value family
    of the first.
    """
    if q < 1 or q % 2 == 0:
        raise BadParams(f"half-half settings need odd q, got {q}")
    if depth < 1:
        raise BadParams("need depth >= 1")
    n_trans = 2 * depth
    if isinstance(ratios, (int, float)):
        chain = [float(ratios)] * (n_trans - 1)
    else:
        chain = [float(r) for r in ratios]
    if len(chain) != n_trans - 1:
        raise BadParams(f"need {n_trans - 1} ratios for depth {depth}, got {len(chain)}")
    for r in chain:
        if not r > 1.0:
            raise BadParams(f"ratios must exceed 1, got {r}")
    r0 = chain[0]
    admissible = t1_next_ratios(r0)
    for r in chain:
        if min(abs(r - a) for a in admissible) > 1e-9:
            raise BadParams(f"ratio {r} is outside the admissible pair for r0={r0}")
    # inverse lengths per level transition, lowest level first
    inv = [1.0]
    for r in chain:
        inv.append(inv[-1] * r)
    level_len = {n: 1.0 / inv[k] for k, n in enumerate(range(-depth, depth))}

    half = (q + 1) // 2
    level = {"0": 0}
    went_up = {"0": True}  # the root counts as reached by a step up
    lengths = {}
    for v, w, k in _tree_edges(q, depth):
        went_up[w] = k < (half if went_up[v] else half - 1)
        level[w] = level[v] + (1 if went_up[w] else -1)
        lengths[edge_key(v, w)] = level_len[min(level[v], level[w])]
    return Setting(lengths)


def two_progression_setting(q: int, m: int, s: int, alpha: float, x: float, y: float, depth: int) -> Setting:
    """Two-geometric-progression setting on gen_tree(q, depth).

    Each vertex sees m edges of relative length 1, m of x, s of alpha, and s
    of alpha*y; stepping along an m-class edge multiplies the local scale by
    x or 1/x, and along an s-class edge by y or 1/y.
    """
    if m < 0 or s < 0 or 2 * (m + s) != q + 1:
        raise BadParams(f"need 2(m+s) = q+1, got m={m} s={s} q={q}")
    if not (alpha > 0 and x > 0 and y > 0):
        raise BadParams("alpha, x, y must all be positive")
    if depth < 1:
        raise BadParams("need depth >= 1")
    rel = {"u": 1.0, "x": float(x), "a": float(alpha), "ay": float(alpha) * float(y)}
    # traversing a class: scale factor for the child, and which of the
    # child's class slots the traversed edge occupies
    step = {
        "u": (1.0 / x, "x"),
        "x": (float(x), "u"),
        "a": (1.0 / y, "ay"),
        "ay": (float(y), "a"),
    }
    scale = {"0": 1.0}
    spent = {"0": None}  # class slot used up by the parent edge
    lengths = {}
    for v, w, k in _tree_edges(q, depth):
        if k == 0:
            quota = {"u": m, "x": m, "a": s, "ay": s}
            if spent[v] is not None:
                quota[spent[v]] -= 1
            order = [cls for cls in ("u", "x", "a", "ay") for _ in range(quota[cls])]
        cls = order[k]
        lengths[edge_key(v, w)] = scale[v] * rel[cls]
        factor, occupied = step[cls]
        scale[w] = scale[v] * factor
        spent[w] = occupied
    return Setting(lengths)


# ---------------------------------------------------------------------------
# hexagonal lattice regions


HEX_PADDING = 2


@dataclass(frozen=True)
class HexRegionSpec:
    """Flower of hexagons of the given radius, padded by ``HEX_PADDING``
    rings of constant-length lattice so the strong boundary condition can be
    imposed by construction."""

    radius: int

    def __post_init__(self):
        if self.radius < 1:
            raise BadParams("radius must be >= 1")


def _hex_neighbors(v):
    a, b, s = v
    if s == 0:
        return ((a, b, 1), (a - 1, b, 1), (a, b - 1, 1))
    return ((a, b, 0), (a + 1, b, 0), (a, b + 1, 0))


def _hex_face(p, q):
    return (
        (p, q, 0),
        (p, q, 1),
        (p + 1, q, 0),
        (p + 1, q - 1, 1),
        (p + 1, q - 1, 0),
        (p, q - 1, 1),
    )


def _hex_id(v):
    return f"{v[0]},{v[1]},{v[2]}"


def gen_hex_region(spec: HexRegionSpec):
    """Hexagonal-lattice patch with a pendant boundary ring and padding.

    Returns (graph, region).  The region consists of the hexagon flower plus
    one pendant vertex per perimeter vertex; each pendant has exactly one
    edge into the region, matching the unique-inward-edge picture, and two
    edges into the padding.  All lengths start at 1; the padded patch of
    radius r has 9(r+2)^2 - 3(r+2) edges.
    """
    _require_size(9 * (spec.radius + 2) ** 2 - 3 * (spec.radius + 2))
    faces = [
        (p, q)
        for p in range(-spec.radius, spec.radius + 1)
        for q in range(-spec.radius, spec.radius + 1)
        if (abs(p) + abs(q) + abs(p + q)) // 2 <= spec.radius - 1
    ]
    patch = set()
    for p, q in faces:
        patch.update(_hex_face(p, q))
    pendants = set()
    for v in patch:
        for w in _hex_neighbors(v):
            if w not in patch:
                pendants.add(w)
    sigma = patch | pendants
    shell = set(sigma)
    for _ in range(HEX_PADDING + 1):
        grown = set(shell)
        for v in shell:
            grown.update(_hex_neighbors(v))
        shell = grown
    edges = set()
    for v in shell:
        for w in _hex_neighbors(v):
            if w in shell:
                edges.add(edge_key(_hex_id(v), _hex_id(w)))
    g = build_graph(
        sorted(_hex_id(v) for v in shell),
        [(u, v, 1.0) for u, v in sorted(edges)],
    )
    region = extract_region(g, {_hex_id(v) for v in sigma})
    return g, region


def hex_strong_fixed_edges(g: WeightedGraph, region: Region) -> frozenset:
    """Edges pinned by the strong boundary condition: the boundary edges and
    everything within two edge-steps of them."""
    fixed = {edge_key(u, v) for u, v in region.boundary_edges}
    frontier = set(fixed)
    for _ in range(2):
        grown = set()
        for u, v in frontier:
            for x in (u, v):
                for w in g.neighbors(x):
                    key = edge_key(x, w)
                    if key not in fixed:
                        grown.add(key)
        fixed |= grown
        frontier = grown
    return frozenset(fixed)
