"""Reproduction harness: recomputes the published extremal values and
solution families and checks each against its stated tolerance.

Every criterion is a pure function returning a CriterionResult; run_all
executes them in order.  The same rows back the command-line ``reproduce``
subcommand and the acceptance test suite.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass

from .action import action_ghy, action_plain, partial_action_complete, ratio_bounds, tree_action_hex
from .curvature import kappa, kappa_t, kappa_tree_closed
from .dynamics import (
    Setting,
    geometric_half_half_stats,
    interior_edges,
    nogo_indicator,
    scale_setting,
    two_progression_x,
    verify_solution,
)
from .errors import GraphGravError
from .generators import (
    HexRegionSpec,
    constant_setting,
    find_perfect_matching,
    gen_complete,
    gen_cycle,
    gen_hex_region,
    gen_tree,
    half_half_setting,
    hex_strong_fixed_edges,
    matching_setting,
    t1_setting,
    two_progression_setting,
    valid_t1_chain,
)
from .graph import GeodesicTable, build_graph, edge_key, extract_region, local_sums, sigma_edges
from .search import newton_solve_teom
from .transport import neighbor_distribution, wasserstein, wasserstein_oracle

SEED = 42


@dataclass(frozen=True)
class CriterionResult:
    num: int
    name: str
    passed: bool
    computed: str
    expected: str
    note: str = ""


def _action_value(g, lengths=None):
    g2 = g.with_lengths(lengths) if lengths is not None else g
    return action_plain(g2, GeodesicTable(g2)).total


def _tree_depths(g, root="0"):
    depth = {root: 0}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for w in g.neighbors(v):
            if w not in depth:
                depth[w] = depth[v] + 1
                queue.append(w)
    return depth


def _random_connected(rng, n):
    verts = [str(k) for k in range(n)]
    while True:
        edges = []
        for a in range(n):
            for b in range(a + 1, n):
                if rng.random() < 0.45:
                    edges.append((verts[a], verts[b], rng.uniform(0.5, 2.0)))
        try:
            return build_graph(verts, edges)
        except GraphGravError:
            continue


def criterion_1() -> CriterionResult:
    got = _action_value(gen_complete(3))
    return CriterionResult(
        1, "triangle, constant lengths: maximum action 9/2",
        abs(got - 4.5) < 1e-7, f"{got:.12f}", "4.5 within 1e-7",
    )


def criterion_2() -> CriterionResult:
    g = gen_complete(3)
    got = _action_value(g, {("0", "1"): 1.0, ("1", "2"): 1.0, ("0", "2"): 2.0})
    return CriterionResult(
        2, "triangle, lengths 1:1:2: minimum action 18/5",
        abs(got - 3.6) < 1e-7, f"{got:.12f}", "3.6 within 1e-7",
    )


def criterion_3() -> CriterionResult:
    g = gen_cycle(4)
    s = 1.0 + math.sqrt(2.0)
    got = _action_value(g, {("0", "1"): s, ("1", "2"): s, ("2", "3"): 1.0, ("0", "3"): 1.0})
    want = 6.0 - 2.0 * math.sqrt(2.0)
    return CriterionResult(
        3, "square, lengths (1+sqrt2, 1+sqrt2, 1, 1): minimum action 6-2sqrt2",
        abs(got - want) < 1e-6, f"{got:.12f}", f"{want:.12f} within 1e-6",
    )


def criterion_4() -> CriterionResult:
    g = gen_cycle(4)
    got = _action_value(
        g, {("0", "1"): 1001.0, ("1", "2"): 1000.0, ("2", "3"): 1e-6, ("0", "3"): 1.0}
    )
    return CriterionResult(
        4, "square, near-degenerate lengths: action approaches supremum 5",
        abs(got - 5.0) < 0.05, f"{got:.6f}", "5 within 0.05",
        note="supremum, not attained",
    )


def criterion_5() -> CriterionResult:
    rng = random.Random(SEED)
    details = []
    ok = True
    for n in (3, 4, 5):
        g = gen_complete(n)
        const = _action_value(g)
        ok &= abs(const - n * n / 2.0) < 1e-6
        worst = -math.inf
        for _ in range(200):
            g2 = g.with_lengths({key: rng.uniform(0.5, 2.0) for key in g.lengths()})
            geo = GeodesicTable(g2)
            got = action_plain(g2, geo).total
            ok &= got <= partial_action_complete(g2, geo) + 1e-6
            worst = max(worst, got)
        details.append(f"K{n}: const {const:.8f}, best random {worst:.8f}")
    return CriterionResult(
        5, "complete graphs: constant setting attains the maximum n^2/2",
        ok, "; ".join(details), "n^2/2 within 1e-6; no random setting above its partial-cost action n^2/2",
    )


def criterion_6() -> CriterionResult:
    g = gen_complete(4)
    m = find_perfect_matching(g)
    vals = {}
    for eps in (1e-4, 1e-5):
        vals[eps] = _action_value(g, matching_setting(g, m, eps).lengths)
    ok = abs(vals[1e-4] - 4.0) < 1e-2 and abs(vals[1e-5] - 4.0) < abs(vals[1e-4] - 4.0)
    return CriterionResult(
        6, "K4 perfect-matching limit: action tends to n = 4",
        ok, f"S(1e-4)={vals[1e-4]:.8f}, S(1e-5)={vals[1e-5]:.8f}",
        "4 within 1e-2 at eps=1e-4, closing as eps shrinks",
    )


def criterion_7() -> CriterionResult:
    ok = True
    details = []
    for q, depth in ((1, 4), (2, 3), (3, 3)):
        g = gen_tree(q, depth)
        rep = verify_solution(g, constant_setting(g, 1.0), tol=1e-12)
        ok &= rep.max_abs_residual < 1e-12
        geo = GeodesicTable(g)
        want = 2.0 * (1 - q) / (1 + q)
        worst = max(
            abs(kappa(g, geo, u, v) - want) for u, v in interior_edges(g)
        )
        ok &= worst < 1e-8
        details.append(f"T{q}: residual {rep.max_abs_residual:.1e}, kappa gap {worst:.1e}")
    return CriterionResult(
        7, "constant trees: residuals vanish, curvature 2(1-q)/(1+q)",
        ok, "; ".join(details), "residuals < 1e-12, kappa within 1e-8",
    )


def criterion_8() -> CriterionResult:
    q, depth, r = 3, 5, 2.0
    g = gen_tree(q, depth)
    setting = half_half_setting(q, depth, r)
    rep = verify_solution(g, setting)
    g2 = g.with_lengths(setting.lengths)
    geo = GeodesicTable(g2)
    want = geometric_half_half_stats(q, r)[0]
    worst = max(abs(kappa(g2, geo, u, v) - want) for u, v in interior_edges(g2))
    ok = rep.is_solution and worst < 1e-8
    return CriterionResult(
        8, "geometric half-half on T3 (r=2, depth 5): solution with curvature -0.8",
        ok, f"max residual {rep.max_abs_residual:.1e}, kappa gap {worst:.1e}",
        "is_solution; kappa within 1e-8 of -0.8",
    )


def criterion_9() -> CriterionResult:
    x = max(two_progression_x(0.25, 3.0))
    setting = two_progression_setting(3, 1, 1, 0.25, x, 3.0, 4)
    g = gen_tree(3, 4)
    rep = verify_solution(g, setting)
    ok = rep.is_solution and rep.max_abs_residual < 1e-9
    return CriterionResult(
        9, "two-progression solution on T3 (alpha=1/4, y=3, x=(sqrt46-5)/7)",
        ok, f"x={x:.10f}, max residual {rep.max_abs_residual:.1e}",
        "is_solution with max residual < 1e-9",
    )


def criterion_10() -> CriterionResult:
    rng = random.Random(SEED)
    ok = True
    notes = []
    for trial in range(3):
        chain = valid_t1_chain(2.0, [rng.randint(0, 1) for _ in range(12)])
        g, s = t1_setting(chain)
        rep = verify_solution(g, s)
        ok &= rep.is_solution
    # breaking any position: rescale so the broken edge has unit length,
    # the residual there must be visible
    worst_break = math.inf
    base = valid_t1_chain(2.0, [rng.randint(0, 1) for _ in range(12)])
    for pos in range(12):
        for rogue in (1.5, 2.5, 4.0):
            chain = list(base)
            chain[pos] = rogue
            g, s = t1_setting(chain)
            # normalize the first deviating edge to unit length so the
            # violation is judged at a common scale
            broken_key = edge_key(str(pos + 1), str(pos + 2))
            s = scale_setting(s, s[broken_key])
            rep = verify_solution(g, s)
            worst_break = min(worst_break, rep.max_abs_residual)
    ok &= worst_break > 1e-3
    notes.append(f"weakest broken-chain residual {worst_break:.2e}")
    return CriterionResult(
        10, "line solutions: 12-step ratio chains over {2, 3} solve; broken chains do not",
        ok, "; ".join(notes), "solutions exact; any break leaves residual > 1e-3",
    )


def criterion_11() -> CriterionResult:
    rng = random.Random(SEED)
    ok = True
    worst_gap = 0.0
    for _ in range(100):
        g = _random_connected(rng, rng.randint(4, 8))
        geo = GeodesicTable(g)
        edges = list(g.edges)
        u, v = edges[rng.randrange(len(edges))]
        t = rng.uniform(0.1, 0.9)
        mu = neighbor_distribution(g, geo, u, t)
        nu = neighbor_distribution(g, geo, v, t)
        gap = abs(wasserstein(g, geo, mu, nu).cost - wasserstein_oracle(g, geo, mu, nu))
        worst_gap = max(worst_gap, gap)
        ok &= gap < 1e-8
        # concavity and the local upper bound at fixed t samples
        k1, k2, k4 = (kappa_t(g, geo, u, v, tt) for tt in (0.1, 0.2, 0.4))
        ok &= k2 >= (2.0 * k1 + k4) / 3.0 - 1e-9
        p = geo.dist(u, v)
        cu, du = local_sums(g, geo, u)
        cv, dv = local_sums(g, geo, v)
        for tt, kk in ((0.1, k1), (0.2, k2), (0.4, k4)):
            ok &= kk <= tt / p * (cu / du + cv / dv) + 1e-9
        for w in g.vertices:
            ok &= ratio_bounds(g, geo, w)[1]
        rep = action_plain(g, geo)
        ok &= rep.total <= rep.bound_upper + 1e-9
    return CriterionResult(
        11, "property sweep on 100 random graphs: transport oracle, concavity, bounds",
        ok, f"largest primal-oracle gap {worst_gap:.2e}",
        "oracle gap < 1e-8; concavity, curvature bound, 1 < c^2/d <= deg, S <= 2|E|",
    )


def criterion_12() -> CriterionResult:
    g, region = gen_hex_region(HexRegionSpec(2))
    geo = GeodesicTable(g)
    edges = sigma_edges(g, region)
    worst_eq = max(
        abs(kappa(g, geo, u, v) - kappa_tree_closed(g, geo, u, v)) for u, v in edges
    )
    rep = tree_action_hex(g, geo, region)
    identity_gap = abs(rep.total - rep.closed_form)
    rng = random.Random(SEED)
    free = [key for key in g.lengths() if key not in hex_strong_fixed_edges(g, region)]
    dominated = True
    for _ in range(50):
        lengths = {key: 1.0 for key in g.lengths()}
        for key in free:
            lengths[key] = rng.uniform(0.5, 2.0)
        g2 = g.with_lengths(lengths)
        geo2 = GeodesicTable(g2)
        s_t = tree_action_hex(g2, geo2, region).total
        s_sigma = action_plain(g2, geo2, edges).total
        dominated &= s_t <= s_sigma + 1e-9
    ok = worst_eq < 1e-8 and identity_gap < 1e-9 and dominated
    return CriterionResult(
        12, "hexagon region (radius 2, strong boundary): tree-curvature matches and bounds",
        ok,
        f"max |kappa - tree| {worst_eq:.1e}; identity gap {identity_gap:.1e}",
        "equality within 1e-8; vertex-sum identity within 1e-9; S_T <= S_Sigma on 50 settings",
    )


def criterion_13() -> CriterionResult:
    g = gen_tree(2, 3)
    depth = _tree_depths(g)
    region = extract_region(g, [v for v in g.vertices if depth[v] <= 2])
    interior = [edge_key(u, v) for u, v in interior_edges(g)]
    boundary = Setting(
        {key: 1.0 for key in g.lengths() if key not in set(interior)}
    )
    rng = random.Random(SEED)
    all_constant = True
    for k in range(100):
        init = Setting(
            {key: math.exp(rng.uniform(math.log(0.5), math.log(2.0))) for key in interior}
        )
        res = newton_solve_teom(g, boundary, init, restarts=6, seed=SEED + k)
        vals = [res.setting[key] for key in interior]
        all_constant &= res.converged and (max(vals) - min(vals)) < 1e-8
    const_val = action_ghy(g, region).total
    floor = math.inf
    for _ in range(200):
        lengths = {key: 1.0 for key in g.lengths()}
        for key in interior:
            lengths[key] = rng.uniform(0.4, 2.5)
        floor = min(floor, action_ghy(g.with_lengths(lengths), region).total)
    ok = all_constant and floor >= const_val - 1e-9
    return CriterionResult(
        13, "Dirichlet boundary term: Newton finds only the constant; it minimizes",
        ok, f"constant value {const_val:.6f}, random floor {floor:.6f}",
        "100 inits converge to constant (spread < 1e-8); 200 settings above constant - 1e-9",
    )


def criterion_14() -> CriterionResult:
    g = gen_tree(2, 3)
    depth = _tree_depths(g)
    region = extract_region(g, [v for v in g.vertices if depth[v] <= 2])
    leaf = [key for key in g.lengths() if max(depth[key[0]], depth[key[1]]) == 3]
    inward = [key for key in g.lengths() if {depth[key[0]], depth[key[1]]} == {1, 2}]
    root_ring = [key for key in g.lengths() if min(depth[key[0]], depth[key[1]]) == 0]
    data = {key: 1.0 for key in leaf}
    data.update({key: 1.5 for key in inward})
    boundary = Setting(data)
    indicator = nogo_indicator(g, region, boundary)
    rng = random.Random(SEED)
    failures = 0
    for k in range(50):
        init = Setting(
            {key: math.exp(rng.uniform(math.log(0.5), math.log(2.0))) for key in root_ring}
        )
        res = newton_solve_teom(g, boundary, init)
        failures += not res.converged
    ok = indicator < 0 and failures == 50
    return CriterionResult(
        14, "no-go boundary data (inward edges longest): negative indicator, no solution",
        ok, f"indicator {indicator:.6f}; {failures}/50 runs fail to converge",
        "indicator < 0 and all 50 Newton runs (no restarts) end unconverged",
    )


CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
    criterion_12,
    criterion_13,
    criterion_14,
)


def run_all():
    return [fn() for fn in CRITERIA]
