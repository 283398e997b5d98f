"""The four workloads: seeded inputs, the timed operation and its checks.

Every workload is a fixed list of ``round_size`` inputs of one kind and one
size, generated from the seed; a run repeats the whole list.  ``operate``
is the timed call into graphgrav.  ``check`` compares one result with the
independent computations of ``reference`` and returns the failures found;
``run_checks`` adds the checks that need further graphgrav calls.
"""

from __future__ import annotations

import math
import random
from collections import deque, namedtuple

TOL = 1e-9


def _ref():
    """The reference module, imported on first use: its scipy imports must
    stay out of the measured set-up time."""
    import reference

    return reference


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _ref_graph(g):
    return _ref().RefGraph(g.vertices, [(u, v, g.length(u, v)) for u, v in g.edges])


def _close(a, b):
    return abs(a - b) <= TOL * max(1.0, abs(b))


def _depths(g, root):
    depth = {root: 0}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for w in g.neighbors(v):
            if w not in depth:
                depth[w] = depth[v] + 1
                queue.append(w)
    return depth


def _action_errors(label, rep, rg, lp_edges, num_edges):
    """S is the sum of the per-edge values and at most 2|E|; the tree
    closed form bounds every kappa from below; kappa equals the LP on
    ``lp_edges``."""
    ref = _ref()
    errs = []
    if not _close(rep.total, math.fsum(rep.per_edge.values())):
        errs.append(f"{label}: S={rep.total!r} is not the sum of its edges")
    if rep.total > 2.0 * num_edges + TOL:
        errs.append(f"{label}: S={rep.total!r} exceeds 2|E|={2 * num_edges}")
    for (u, v), k in rep.per_edge.items():
        closed = ref.tree_kappa(rg, u, v)
        if closed > k + TOL:
            errs.append(f"{label}: tree closed form {closed!r} above kappa {k!r} on ({u}, {v})")
    for u, v in lp_edges:
        want = ref.lly_kappa(rg, u, v)
        if abs(rep.per_edge[(u, v)] - want) > TOL:
            errs.append(f"{label}: kappa {rep.per_edge[(u, v)]!r} != LP {want!r} on ({u}, {v})")
    return errs


def _scale_errors(gg, label, g, total, edges, lam):
    """S must not change when every length is multiplied by ``lam``."""
    scaled = g.with_lengths({key: lam * ell for key, ell in g.lengths().items()})
    again = gg.action_plain(scaled, gg.GeodesicTable(scaled), edges).total
    if not _close(again, total):
        return [f"{label}: S={total!r} becomes {again!r} under rescaling by {lam!r}"]
    return []


class Workload:
    """Defaults: no checks beyond ``check`` and no counts read from results."""

    def run_checks(self, results):
        return []

    def counts(self, result):
        return {}


DenseInput = namedtuple("DenseInput", "graph lp_edges")


class ActionDense(Workload):
    """``action_plain`` on K_10 with log-uniform lengths in [1/4, 4]."""

    n = 10
    round_size = 44
    lp_sample = 12

    def __init__(self, gg, seed):
        self.gg = gg
        rng = random.Random(f"action-dense:{seed}")
        base = gg.gen_complete(self.n)
        self.inputs = [
            DenseInput(
                base.with_lengths({key: _log_uniform(rng, 0.25, 4.0) for key in base.edges}),
                rng.sample(base.edges, self.lp_sample),
            )
            for _ in range(self.round_size)
        ]
        self.scale = _log_uniform(rng, 0.1, 10.0)

    def operate(self, inp):
        return self.gg.action_plain(inp.graph, self.gg.GeodesicTable(inp.graph))

    def check(self, inp, rep):
        g = inp.graph
        return _action_errors("K10", rep, _ref_graph(g), inp.lp_edges, len(g.edges))

    def run_checks(self, results):
        gg = self.gg
        errs = _scale_errors(gg, "K10", self.inputs[0].graph, results[0].total, None, self.scale)
        const = gg.gen_complete(self.n)
        total = gg.action_plain(const, gg.GeodesicTable(const)).total
        if not _close(total, self.n * self.n / 2.0):
            errs.append(f"constant K{self.n}: S={total!r}, expected n^2/2")
        return errs


# one seeded length setting on the hexagonal region and on the tree
SparseInput = namedtuple("SparseInput", "hex_graph tree hex_lp_edges tree_lp_edges")


class ActionSparse(Workload):
    """``action_plain`` beside its closed forms: ``tree_action_hex`` on a
    hexagonal region of radius 4, ``action_ghy`` and ``action_region_plain``
    on the degree-3 tree of depth 6."""

    hex_radius = 4
    tree_depth = 6
    lp_sample = 6
    round_size = 30

    def __init__(self, gg, seed):
        self.gg = gg
        rng = random.Random(f"action-sparse:{seed}")
        hex_graph, self.hex_region = gg.gen_hex_region(gg.HexRegionSpec(self.hex_radius))
        pinned = gg.hex_strong_fixed_edges(hex_graph, self.hex_region)
        self.hex_sigma = gg.sigma_edges(hex_graph, self.hex_region)
        tree = gg.gen_tree(2, self.tree_depth)
        depth = _depths(tree, "0")
        self.tree_region = gg.extract_region(
            tree, [v for v in tree.vertices if depth[v] < self.tree_depth]
        )
        self.tree_sigma = gg.sigma_edges(tree, self.tree_region)
        self.inputs = []
        for _ in range(self.round_size):
            hex_lengths = {
                key: 1.0 if key in pinned else _log_uniform(rng, 0.5, 2.0)
                for key in hex_graph.edges
            }
            tree_lengths = {key: _log_uniform(rng, 0.5, 2.0) for key in tree.edges}
            self.inputs.append(
                SparseInput(
                    hex_graph.with_lengths(hex_lengths),
                    tree.with_lengths(tree_lengths),
                    rng.sample(self.hex_sigma, self.lp_sample),
                    rng.sample(tree.edges, self.lp_sample),
                )
            )
        self.scale = _log_uniform(rng, 0.1, 10.0)

    def operate(self, inp):
        gg = self.gg
        hex_geo = gg.GeodesicTable(inp.hex_graph)
        tree_geo = gg.GeodesicTable(inp.tree)
        return {
            "hex_plain": gg.action_plain(inp.hex_graph, hex_geo, self.hex_sigma),
            "hex_closed": gg.tree_action_hex(inp.hex_graph, hex_geo, self.hex_region),
            "tree_plain": gg.action_plain(inp.tree, tree_geo),
            "tree_ghy": gg.action_ghy(inp.tree, self.tree_region),
            "tree_region": gg.action_region_plain(inp.tree, self.tree_region),
        }

    def check(self, inp, out):
        ref = _ref()
        num_hex = len(inp.hex_graph.edges)
        rg = _ref_graph(inp.hex_graph)
        errs = _action_errors("hex", out["hex_plain"], rg, inp.hex_lp_edges, num_hex)
        closed = out["hex_closed"]
        for (u, v), k in closed.per_edge.items():
            if abs(k - ref.tree_kappa(rg, u, v)) > TOL:
                errs.append(f"hex: tree curvature {k!r} is not the closed form on ({u}, {v})")
        if closed.total > out["hex_plain"].total + TOL:
            errs.append(f"hex: S_T={closed.total!r} above S_Sigma={out['hex_plain'].total!r}")
        if not _close(closed.closed_form, closed.total):
            errs.append(f"hex: vertex sum {closed.closed_form!r} != edge sum {closed.total!r}")

        rg = _ref_graph(inp.tree)
        plain = out["tree_plain"]
        errs += _action_errors("tree", plain, rg, inp.tree_lp_edges, len(inp.tree.edges))
        for (u, v), k in plain.per_edge.items():
            if abs(k - ref.tree_kappa(rg, u, v)) > TOL:
                errs.append(f"tree: kappa {k!r} is not the closed form on ({u}, {v})")
        region = self.tree_region
        ghy = ref.ghy_action(rg, region.interior, region.boundary_vertices)
        if not _close(out["tree_ghy"].total, ghy):
            errs.append(f"tree: action_ghy {out['tree_ghy'].total!r} != vertex sum {ghy!r}")
        edge_sum = math.fsum(plain.per_edge[key] for key in self.tree_sigma)
        if not _close(out["tree_region"].total, edge_sum):
            errs.append(
                f"tree: action_region_plain {out['tree_region'].total!r} != edge sum {edge_sum!r}"
            )
        return errs

    def run_checks(self, results):
        inp, out = self.inputs[0], results[0]
        return _scale_errors(
            self.gg, "hex", inp.hex_graph, out["hex_plain"].total, self.hex_sigma, self.scale
        ) + _scale_errors(self.gg, "tree", inp.tree, out["tree_plain"].total, None, self.scale)


EomInput = namedtuple("EomInput", "constant boundary init seed")


class EomNewton(Workload):
    """``newton_solve_teom`` on the degree-3 tree of depth 5 (45 free
    edges) with every non-interior edge fixed at one seeded constant."""

    depth = 5
    tol = 1e-10
    restarts = 3
    round_size = 60

    def __init__(self, gg, seed):
        self.gg = gg
        rng = random.Random(f"eom-newton:{seed}")
        self.tree = gg.gen_tree(2, self.depth)
        self.interior = list(gg.interior_edges(self.tree))
        inner = set(self.interior)
        self.inputs = []
        for _ in range(self.round_size):
            c = _log_uniform(rng, 0.5, 2.0)
            boundary = gg.Setting({key: c for key in self.tree.edges if key not in inner})
            init = gg.Setting({key: c * math.exp(rng.uniform(-0.3, 0.3)) for key in self.interior})
            self.inputs.append(EomInput(c, boundary, init, rng.randrange(2**31)))

    def operate(self, inp):
        return self.gg.newton_solve_teom(
            self.tree, inp.boundary, inp.init, tol=self.tol, restarts=self.restarts, seed=inp.seed
        )

    def check(self, inp, res):
        ref = _ref()
        errs = []
        if not res.converged:
            errs.append(f"Newton did not converge (residual {res.objective!r})")
        lengths = res.setting.lengths
        if set(lengths) != set(self.tree.edges):
            return errs + ["solution does not cover every edge"]
        worst = max(abs(lengths[key] / inp.constant - 1.0) for key in self.tree.edges)
        if worst > 1e-8:
            errs.append(f"solution is not the boundary constant (relative gap {worst!r})")
        adj = {v: self.tree.neighbors(v) for v in self.tree.vertices}

        def length(u, v):
            return lengths[(u, v) if (u, v) in lengths else (v, u)]

        res_max = max(abs(ref.teom_residual(adj, length, u, v)) for u, v in self.interior)
        if res_max > 1e-9:
            errs.append(f"recomputed residual {res_max!r} above 1e-9")
        return errs

    def counts(self, result):
        return {"search.newton_iters": result.iterations}


class ExtremalSearch(Workload):
    """Single-start ``extremize_action`` for the triangle minimum, one
    Nelder-Mead seed per input."""

    round_size = 68

    def __init__(self, gg, seed):
        self.gg = gg
        rng = random.Random(f"extremal-search:{seed}")
        self.graph = gg.gen_complete(3)
        self.inputs = [rng.randrange(2**31) for _ in range(self.round_size)]

    def operate(self, search_seed):
        return self.gg.extremize_action(self.graph, None, "min", restarts=1, seed=search_seed)

    def check(self, search_seed, res):
        ref = _ref()
        errs = []
        edges = [(u, v, ell) for (u, v), ell in res.setting.lengths.items()]
        want = ref.action(ref.RefGraph(self.graph.vertices, edges))
        if not _close(res.objective, want):
            errs.append(f"objective {res.objective!r} != reference action {want!r}")
        if not 18.0 / 5.0 - TOL <= res.objective <= 9.0 / 2.0 + TOL:
            errs.append(f"objective {res.objective!r} outside [18/5, 9/2]")
        if res.objective > 2.0 * len(edges) + TOL:
            errs.append(f"objective {res.objective!r} above 2|E|")
        return errs

    def counts(self, result):
        return {"search.nm_evals": result.iterations}


WORKLOADS = {
    "action-dense": ActionDense,
    "action-sparse": ActionSparse,
    "eom-newton": EomNewton,
    "extremal-search": ExtremalSearch,
}
