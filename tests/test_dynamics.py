import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphgrav import (
    Setting,
    build_graph,
    constant_setting,
    extract_region,
    gen_complete,
    gen_cycle,
    gen_tree,
    geometric_half_half_stats,
    half_half_setting,
    interior_edges,
    newton_solve_teom,
    nogo_indicator,
    scale_setting,
    t1_next_ratios,
    t1_setting,
    two_progression_x,
    valid_t1_chain,
    verify_solution,
)
from graphgrav.cli import _setting_from_json, _setting_to_json
from graphgrav.errors import (
    BadParams,
    NotATree,
    NotAnEdge,
)

from conftest import nogo_sum, teom_residual


def random_tree_setting(q, depth, seed, lo=1e-8, hi=1e8):
    g = gen_tree(q, depth)
    rng = random.Random(seed)
    span = (math.log(lo), math.log(hi))
    return g, rng, Setting({key: math.exp(rng.uniform(*span)) for key in g.edges})


def random_region(g, rng):
    """A ball of random radius around a random vertex."""
    ball = {rng.choice(g.vertices)}
    frontier = list(ball)
    for _ in range(rng.randint(1, 3)):
        frontier = [w for v in frontier for w in g.neighbors(v) if w not in ball]
        ball.update(frontier)
    return extract_region(g, sorted(ball))


class TestResiduals:
    def test_constant_tree_is_solution(self):
        for q in (1, 2, 3):
            g = gen_tree(q, 3)
            rep = verify_solution(g, constant_setting(g, 1.0), tol=1e-12)
            assert rep.is_solution
            assert rep.max_abs_residual == 0.0

    @pytest.mark.parametrize("length", [1e200, 1e-200])
    def test_constant_tree_is_solution_at_any_scale(self, length):
        # l*l overflows at 1e200 and 1/(l*l) at 1e-200
        g = gen_tree(2, 2)
        rep = verify_solution(g, constant_setting(g, length))
        assert rep.is_solution
        assert rep.max_abs_residual <= 1e-15 * length

    def test_tol_is_read_at_the_leaf_edges_power_of_two(self):
        # leaves at 1 and interior edges at 1/16: tol is read at the leaves'
        # scale 2^0, not at the geometric mean of every length
        g = gen_tree(2, 3)
        interior = set(interior_edges(g))
        setting = Setting({key: 1 / 16 if key in interior else 1.0 for key in g.edges})
        worst = verify_solution(g, setting).max_abs_residual
        assert worst == pytest.approx(0.00811, rel=1e-3)
        assert verify_solution(g, setting, tol=2.0 * worst).is_solution
        # at 2^0 the residual is read as it is, and tol is a strict bound
        assert not verify_solution(g, setting, tol=worst).is_solution

    def test_default_tol_is_1e_9(self):
        # one interior edge 1e-9 off the constant: the residual, 1.33e-9,
        # fails the default tol and passes 2e-9
        g = gen_tree(2, 3)
        lengths = constant_setting(g, 1.0).lengths
        lengths[interior_edges(g)[0]] = 1.0 + 1e-9
        report = verify_solution(g, Setting(lengths))
        assert 1e-9 < report.max_abs_residual < 2e-9 and not report.is_solution
        assert verify_solution(g, Setting(lengths), tol=2e-9).is_solution

    def test_verdict_does_not_depend_on_key_order(self):
        # the leaves' log2 sum to 6 = 12 * 1/2: a plain sum lands above or
        # below it by key order, so its mean rounds to 0 or 1, and at a tol
        # between the residual's readings at 2^0 and 2^-1 the verdict would
        # follow; fsum sums exactly, whatever the order
        g = gen_tree(2, 3)
        interior = set(interior_edges(g))
        leaves = [key for key in g.edges if key not in interior]
        rng = random.Random(0)
        logs = [rng.uniform(-3.0, 3.0) for _ in leaves[1:]]
        logs.append(len(leaves) / 2 - math.fsum(logs))
        lengths = {key: 2.0**a for key, a in zip(leaves, logs)}
        lengths.update({key: math.exp(rng.uniform(-0.5, 0.5)) for key in interior})
        orders = [rng.sample(list(lengths), len(lengths)) for _ in range(20)]
        plain = {round(sum(math.log2(lengths[k]) for k in order if k not in interior) / len(leaves)) for order in orders}
        assert plain == {0, 1}
        tol = 0.75 * verify_solution(g, Setting(lengths)).max_abs_residual
        report = verify_solution(g, Setting(lengths), tol=tol)
        assert not report.is_solution
        for order in orders:
            assert verify_solution(g, Setting({key: lengths[key] for key in order}), tol=tol) == report

    def test_alternating_ratios_solve(self):
        g, s = t1_setting([2.0, 3.0, 2.0, 3.0, 3.0, 2.0])
        assert verify_solution(g, s).is_solution

    def test_local_extremum_breaks(self):
        # interior edge strictly longest among its neighbors
        g, _ = t1_setting([2.0, 2.0, 2.0, 2.0])
        s = Setting({key: 1.0 for key in g.lengths()})
        bumped = dict(s.lengths)
        bumped[("2", "3")] = 1.7
        rep = verify_solution(g, Setting(bumped))
        assert abs(rep.residuals[("2", "3")]) > 1e-3

    def test_perturbed_constant_not_solution(self, rng):
        g = gen_tree(2, 3)
        lengths = {key: 1.0 for key in g.lengths()}
        keys = sorted(lengths)
        lengths[keys[rng.randrange(len(keys))]] = 1.1
        assert not verify_solution(g, Setting(lengths)).is_solution

    def test_boundary_edges_have_no_residual(self):
        g = gen_tree(2, 2)
        rep = verify_solution(g, constant_setting(g, 1.0))
        assert list(rep.residuals) == list(interior_edges(g))
        assert all(g.degree(u) > 1 and g.degree(v) > 1 for u, v in rep.residuals)

    def test_missing_length_rejected(self):
        g = gen_tree(2, 2)
        lengths = constant_setting(g, 1.0).lengths
        del lengths[next(iter(interior_edges(g)))]
        with pytest.raises(BadParams, match="does not cover edge"):
            verify_solution(g, Setting(lengths))

    def test_non_tree_rejected(self):
        g = gen_complete(3)
        with pytest.raises(NotATree):
            verify_solution(g, constant_setting(g, 1.0))

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_tol_outside_its_domain_rejected(self, tol):
        # an exact solution is no test of a tolerance that nothing passes,
        # or that everything does
        g = gen_tree(2, 3)
        with pytest.raises(BadParams, match=f"tol must be positive and finite, got {tol}"):
            verify_solution(g, constant_setting(g, 1.0), tol=tol)

    def test_non_edge_rejected(self):
        # a length on a non-edge would move the unit scale of the tolerance
        # and pass this non-solution
        g = gen_tree(2, 3)
        lengths = constant_setting(g, 1.0).lengths
        lengths[interior_edges(g)[0]] = 1.0 + 4e-9
        assert not verify_solution(g, Setting(lengths)).is_solution
        lengths[("x", "y")] = 2.0**200
        with pytest.raises(NotAnEdge):
            verify_solution(g, Setting(lengths))

    def test_max_min_exclusion(self, rng):
        # any interior edge strictly extremal among its neighbors has
        # a visible residual there
        for _ in range(20):
            g = gen_tree(2, 2)
            lengths = {key: rng.uniform(0.8, 1.2) for key in g.lengths()}
            target = ("0", "1")
            neighbor_vals = [
                lengths[key]
                for key in lengths
                if key != target and ("0" in key or "1" in key)
            ]
            lengths[target] = max(neighbor_vals) * 1.5
            rep = verify_solution(g, Setting(lengths))
            assert abs(rep.residuals[target]) > 1e-12


class TestScalarOracle:
    """The array system against the scalar formula, bit for bit, on lengths
    far outside Newton's box: both add the same floats in the same order."""

    @given(
        st.sampled_from([1, 2, 3]),
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_residuals_equal_oracle(self, q, depth, seed):
        g, _, s = random_tree_setting(q, depth, seed)
        rep = verify_solution(g, s)
        want = {(u, v): teom_residual(g, s, u, v) for u, v in interior_edges(g)}
        assert rep.residuals == want
        assert rep.max_abs_residual == max(abs(r) for r in want.values())

    @given(
        st.sampled_from([1, 2, 3]),
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_nogo_equals_oracle(self, q, depth, seed):
        g, rng, s = random_tree_setting(q, depth, seed)
        region = random_region(g, rng)
        # boundary data: only the lengths at the boundary vertices are given
        data = Setting(
            {key: ell for key, ell in s.lengths.items() if region.boundary_vertices & set(key)}
        )
        assert nogo_indicator(g, region, data) == nogo_sum(g, region, s)

    def test_nogo_equals_oracle_on_ids_that_sort_apart_by_repr(self):
        # "1'" has the repr "1'" in double quotes, which sorts before every
        # single-quoted repr, while as a string it sorts between "1" and "10";
        # the boundary sum is taken in string order, so the floats agree
        g0 = gen_tree(2, 3)
        name = {v: v + "'" if int(v) % 2 else v for v in g0.vertices}
        sigma = [name[v] for v in g0.vertices if int(v) <= 9]  # the root's ball of radius 2
        for seed in range(200):
            rng = random.Random(seed)
            g = build_graph(
                list(name.values()),
                [(name[u], name[v], rng.uniform(0.5, 2.0)) for u, v in g0.edges],
            )
            region = extract_region(g, sigma)
            s = Setting(g.lengths())
            data = Setting({key: ell for key, ell in s.lengths.items() if region.boundary_vertices & set(key)})
            assert nogo_indicator(g, region, data) == nogo_sum(g, region, s)


class TestDegenerate:
    """Trees without an interior edge: nothing to evaluate or solve."""

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_star(self, q):
        g, _, s = random_tree_setting(q, 1, q, lo=0.5, hi=2.0)
        assert not interior_edges(g)
        rep = verify_solution(g, s)
        assert (rep.residuals, rep.max_abs_residual, rep.is_solution) == ({}, 0.0, True)
        leaf = next(v for v in g.vertices if g.degree(v) == 1)
        region = extract_region(g, [v for v in g.vertices if v != leaf])
        assert nogo_indicator(g, region, s) == nogo_sum(g, region, s) != 0.0
        res = newton_solve_teom(g, s, Setting({}))
        assert (res.converged, res.iterations, res.restarts_used) == (True, 0, 0)
        assert res.setting.lengths == s.lengths

    def test_single_vertex(self):
        rep = verify_solution(build_graph(["a"], []), Setting({}))
        assert (rep.residuals, rep.max_abs_residual, rep.is_solution) == ({}, 0.0, True)


class TestScaling:
    def test_divides(self):
        g = gen_tree(2, 2)
        s = scale_setting(constant_setting(g, 1.0), 2.0)
        assert all(v == pytest.approx(0.5) for v in s.lengths.values())

    def test_identity(self):
        g = gen_tree(2, 2)
        s = constant_setting(g, 1.0)
        assert scale_setting(s, 1.0).lengths == s.lengths

    @pytest.mark.parametrize("lam", [0.5, 2.0, 7.0])
    def test_solutions_stay_solutions(self, lam):
        g, s = t1_setting(valid_t1_chain(2.0, [0, 1, 1, 0, 1]))
        assert verify_solution(g, scale_setting(s, lam)).is_solution

    @given(
        st.sampled_from([1, 2, 3]),
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=-500, max_value=500),
    )
    @settings(max_examples=40, deadline=None)
    def test_power_of_two_scales_residuals_exactly(self, q, depth, seed, k):
        g, rng, s = random_tree_setting(q, depth, seed)
        scaled = Setting({key: math.ldexp(ell, k) for key, ell in s.lengths.items()})
        rep, rep_k = verify_solution(g, s), verify_solution(g, scaled)
        assert rep_k.residuals == {key: math.ldexp(r, k) for key, r in rep.residuals.items()}
        assert rep_k.max_abs_residual == math.ldexp(rep.max_abs_residual, k)
        region = random_region(g, rng)
        assert nogo_indicator(g, region, scaled) == nogo_indicator(g, region, s)

    def test_rejects_nonpositive(self):
        g = gen_tree(2, 2)
        with pytest.raises(BadParams, match="scale factor must be positive"):
            scale_setting(constant_setting(g, 1.0), -1.0)


class TestRatioFamily:
    def test_two_values(self):
        assert t1_next_ratios(2.0) == (2.0, 3.0)

    def test_involution(self):
        assert t1_next_ratios(3.0) == (2.0, 3.0)

    def test_fixed_point(self):
        r = 1.0 + math.sqrt(2.0)
        for val in t1_next_ratios(r):
            assert val == pytest.approx(r)

    def test_requires_ratio_above_one(self):
        with pytest.raises(BadParams, match="ratio must exceed 1, got 1.0"):
            t1_next_ratios(1.0)

    @pytest.mark.parametrize("r", [math.inf, math.nan])
    def test_requires_finite_ratio(self, r):
        with pytest.raises(BadParams, match=f"ratio must exceed 1, got {r}"):
            t1_next_ratios(r)

    @given(st.floats(min_value=1.001, max_value=50.0))
    @settings(max_examples=30, deadline=None)
    def test_family_is_involutive(self, r):
        vals = t1_next_ratios(r)
        partner = max(vals) if min(vals) == pytest.approx(r) else min(vals)
        back = (partner + 1.0) / (partner - 1.0)
        assert back == pytest.approx(r, rel=1e-9)

    def test_chain_lengths_monotonic(self, rng):
        from graphgrav import edge_key

        chain = valid_t1_chain(2.0, [rng.randint(0, 1) for _ in range(10)])
        _, s = t1_setting(chain)
        ordered = [s[edge_key(str(k), str(k + 1))] for k in range(len(chain) + 1)]
        assert all(a > b for a, b in zip(ordered, ordered[1:]))


class TestNogo:
    def _star(self, inward, outward):
        g = gen_tree(2, 2)
        lengths = {}
        for u, v in g.edges:
            lengths[(u, v)] = inward if "0" in (u, v) else outward
        region = extract_region(g, ["0", "1", "2", "3"])
        return g, region, Setting(lengths)

    def test_constant_data_gives_zero(self):
        g, region, s = self._star(1.0, 1.0)
        assert nogo_indicator(g, region, s) == pytest.approx(0.0, abs=1e-12)

    def test_long_inward_edge_negative(self):
        g, region, s = self._star(1.5, 1.0)
        assert nogo_indicator(g, region, s) < 0.0

    def test_short_inward_edge_positive(self):
        g, region, s = self._star(0.7, 1.0)
        assert nogo_indicator(g, region, s) > 0.0

    def test_non_edge_rejected(self):
        g, region, s = self._star(1.0, 1.0)
        with pytest.raises(NotAnEdge):
            nogo_indicator(g, region, Setting({**s.lengths, ("1", "2"): 1.0}))


class TestHalfHalfFormulas:
    @pytest.mark.parametrize(
        "q, r, want_kappa, want_ratio",
        [
            (3, 1.0, -1.0, 4.0),
            (1, 2.0, 0.2, 1.8),
            (5, 1.0, -4.0 / 3.0, 6.0),
        ],
    )
    def test_values(self, q, r, want_kappa, want_ratio):
        k, ratio = geometric_half_half_stats(q, r)
        assert k == pytest.approx(want_kappa)
        assert ratio == pytest.approx(want_ratio)

    @given(st.floats(min_value=0.05, max_value=20.0))
    @example(1.0)
    @settings(max_examples=30, deadline=None)
    def test_line_curvature_positive(self, r):
        # q = 1: kappa = (1 - r)^2 / (1 + r^2), positive except at r = 1
        k, _ = geometric_half_half_stats(1, r)
        assert k == pytest.approx((1.0 - r) ** 2 / (1.0 + r * r), rel=1e-9, abs=1e-15)
        if r == 1.0:
            assert k == 0.0
        elif abs(r - 1.0) > 1e-6:  # closer to 1, kappa is below rounding
            assert k > 0.0

    def test_rejects_even_q(self):
        with pytest.raises(BadParams, match="q must be odd and >= 1, got 2"):
            geometric_half_half_stats(2, 1.0)

    def test_rejects_nonpositive_ratio(self):
        with pytest.raises(BadParams, match="progression ratio must be positive, got 0.0"):
            geometric_half_half_stats(1, 0.0)

    @pytest.mark.parametrize("r", [math.inf, math.nan])
    def test_rejects_non_finite_ratio(self, r):
        with pytest.raises(BadParams, match=f"progression ratio must be positive, got {r}"):
            geometric_half_half_stats(3, r)

    def test_invariant_under_ratio_inversion(self):
        k1, r1 = geometric_half_half_stats(3, 2.0)
        k2, r2 = geometric_half_half_stats(3, 0.5)
        assert k1 == pytest.approx(k2)
        assert r1 == pytest.approx(r2)


class TestTwoProgression:
    def test_reference_root(self):
        roots = two_progression_x(0.25, 3.0)
        assert max(roots) == pytest.approx((math.sqrt(46.0) - 5.0) / 7.0)

    def test_returns_both_roots(self):
        # a = -7, b = -10, c = 3: two distinct roots, -(5 + sqrt 46)/7 and (sqrt 46 - 5)/7
        roots = two_progression_x(0.25, 3.0)
        assert roots == pytest.approx([-(5.0 + math.sqrt(46.0)) / 7.0, (math.sqrt(46.0) - 5.0) / 7.0])
        for x in roots:
            assert 0.25 * 3.0 * 4.0 * (x * x + 1.0) == pytest.approx(x * (x + 1.0) * 10.0)

    def test_constant_embeds(self):
        assert 1.0 in [pytest.approx(r) for r in two_progression_x(1.0, 1.0)]
        # just off the constant, the x^2 coefficient is below 1e-14 (|b| + |c|): one root
        assert two_progression_x(1 + 2**-46, 1.0) == pytest.approx((1.0,))

    def test_rejects_nonpositive_alpha(self):
        for alpha, y in ((0.0, 3.0), (0.25, 0.0)):  # y too
            with pytest.raises(BadParams, match="alpha and y must be positive"):
                two_progression_x(alpha, y)

    @given(
        st.floats(min_value=0.2, max_value=2.0),
        st.floats(min_value=0.5, max_value=4.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_roots_satisfy_identity(self, alpha, y):
        try:
            roots = two_progression_x(alpha, y)
        except BadParams as exc:
            assert "discriminant" in str(exc)
            return
        for x in roots:
            lhs = alpha * y * (y + 1.0) * (x * x + 1.0)
            rhs = x * (x + 1.0) * (y * y + 1.0)
            assert lhs == pytest.approx(rhs, abs=1e-10 * (1 + abs(lhs)))


class TestHalfHalfEquivalence:
    def test_residuals_match_path_levels(self):
        # perturb one level of a geometric half-half setting; the tree
        # residuals must equal the line residuals level for level
        depth = 3
        chain = valid_t1_chain(2.0, [0, 1, 0, 1, 0])
        hh = half_half_setting(3, depth, chain)
        g = gen_tree(3, depth)
        level_values = sorted(set(hh.lengths.values()), reverse=True)
        bumped = {
            key: (val * 1.17 if val == level_values[2] else val)
            for key, val in hh.lengths.items()
        }
        rep_tree = verify_solution(g, Setting(bumped))
        # the matching line: same level lengths in order
        path_lengths = [
            val * 1.17 if val == level_values[2] else val for val in level_values
        ]
        verts = [str(k) for k in range(len(path_lengths) + 1)]
        gp = build_graph(
            verts,
            [(verts[k], verts[k + 1], path_lengths[k]) for k in range(len(path_lengths))],
        )
        rep_path = verify_solution(gp, Setting(gp.lengths()))
        tree_by_len = {}
        for (u, v), r in rep_tree.residuals.items():
            tree_by_len.setdefault(round(bumped[(u, v)], 12), set()).add(round(r, 12))
        path_by_len = {
            round(gp.length(u, v), 12): round(r, 12)
            for (u, v), r in rep_path.residuals.items()
        }
        for length, residuals in tree_by_len.items():
            assert len(residuals) == 1
            if length in path_by_len:
                assert abs(next(iter(residuals)) - path_by_len[length]) < 1e-12


def test_setting_json_round_trip():
    g = gen_tree(2, 2)
    s = constant_setting(g, 1.5)
    doc = _setting_to_json(s)
    assert _setting_from_json(doc).lengths == s.lengths


def test_is_tree():
    # the tree gate counts edges: a connected graph is a tree when it has one
    # edge fewer than vertices
    g = gen_tree(2, 2)
    assert verify_solution(g, constant_setting(g, 1.0)).is_solution
    for g in (gen_complete(3), gen_cycle(4)):
        with pytest.raises(NotATree):
            verify_solution(g, constant_setting(g, 1.0))
