import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest

import graphgrav
from graphgrav import (
    GeodesicTable,
    Setting,
    action_plain,
    edge_key,
    extract_region,
    extremize_action,
    gen_complete,
    gen_cycle,
    gen_tree,
    half_half_setting,
    interior_edges,
    newton_solve_teom,
    nogo_indicator,
    verify_solution,
)
from graphgrav.dynamics import _tree_system
from graphgrav.errors import BadParams, NoFreeEdges, NotATree
from graphgrav.search import LOG_LENGTH_HI, LOG_LENGTH_LO

from conftest import teom_residual


def tree_depths(g, root="0"):
    depth = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            for w in g.neighbors(v):
                if w not in depth:
                    depth[w] = depth[v] + 1
                    nxt.append(w)
        frontier = nxt
    return depth


def leaf_boundary(g):
    interior = {edge_key(u, v) for u, v in interior_edges(g)}
    return Setting({key: 1.0 for key in g.lengths() if key not in interior}), interior


def random_init(rng, keys, lo=0.5, hi=2.0):
    return Setting({key: math.exp(rng.uniform(math.log(lo), math.log(hi))) for key in keys})


def central_difference(fun, x, step):
    """Central-difference Jacobian of fun at x: the oracle for the exact one."""
    jac = np.zeros((fun(x).size, x.size))
    for k in range(x.size):
        bump = np.zeros_like(x)
        bump[k] = step
        jac[:, k] = (fun(x + bump) - fun(x - bump)) / (2.0 * step)
    return jac


def tree_system_at(g, lengths, fixed_interior=()):
    """The array system of g with every edge at ``lengths`` and the free
    log-lengths x; the edges in ``fixed_interior`` are fixed as well."""
    interior = [edge_key(u, v) for u, v in interior_edges(g)]
    free = [key for key in interior if key not in fixed_interior]
    fixed = {key: ell for key, ell in lengths.items() if key not in free}
    residual, jacobian = _tree_system(g, interior, free, fixed)
    return residual, jacobian, np.log([lengths[key] for key in free]), interior


class TestTreeSystem:
    CASES = [(2, 4, 0), (3, 3, 0), (2, 4, 5)]  # (q, depth, fixed interior edges)

    def _lengths(self, g, seed):
        rng = random.Random(seed)
        return {key: math.exp(rng.uniform(math.log(1e-2), math.log(1e2))) for key in g.lengths()}

    @pytest.mark.parametrize("q, depth, n_fixed", CASES)
    def test_jacobian_matches_finite_differences(self, q, depth, n_fixed):
        g = gen_tree(q, depth)
        for seed in range(10):
            lengths = self._lengths(g, seed)
            interior = [edge_key(u, v) for u, v in interior_edges(g)]
            fixed_interior = set(random.Random(seed).sample(interior, n_fixed))
            residual, jacobian, x, _ = tree_system_at(g, lengths, fixed_interior)
            jac = jacobian(x)
            assert jac.shape == (len(interior), len(interior) - n_fixed)
            # Richardson step on two central differences: error O(step^4)
            h = 1e-3
            oracle = (
                4.0 * central_difference(residual, x, h) - central_difference(residual, x, 2 * h)
            ) / 3.0
            # an entry that nearly cancels loses digits in any difference
            # quotient, so the absolute slack follows the size of its row
            row_scale = np.max(np.abs(jac), axis=1, keepdims=True)
            assert np.all(np.abs(jac - oracle) <= 1e-6 * (np.abs(oracle) + row_scale))

    @pytest.mark.parametrize("q, depth", [(2, 4), (3, 3)])
    def test_residual_matches_teom_residual(self, q, depth):
        g = gen_tree(q, depth)
        lengths = self._lengths(g, 0)
        residual, _, x, interior = tree_system_at(g, lengths)
        want = [teom_residual(g, Setting(lengths), u, v) for u, v in interior]
        np.testing.assert_allclose(residual(x), want, rtol=1e-12, atol=0.0)


def test_import_leaves_scipy_optimize_unloaded():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(graphgrav.__file__)))
    code = "import sys, graphgrav; print('scipy.optimize' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


class TestNewton:
    def test_constant_boundary_gives_constant(self):
        g = gen_tree(2, 3)
        boundary, interior = leaf_boundary(g)
        rng = random.Random(0)
        res = newton_solve_teom(g, boundary, random_init(rng, interior), restarts=6)
        assert res.converged
        vals = [res.setting[key] for key in interior]
        assert max(vals) - min(vals) < 1e-8
        assert vals[0] == pytest.approx(1.0, abs=1e-6)

    def test_converged_outputs_verify(self):
        g = gen_tree(2, 3)
        boundary, interior = leaf_boundary(g)
        rng = random.Random(1)
        res = newton_solve_teom(g, boundary, random_init(rng, interior), restarts=6)
        assert res.converged
        assert verify_solution(g, res.setting).is_solution

    def test_converges_only_to_constant(self):
        # without internal restarts some starts stall, but no run may land
        # anywhere other than the constant solution
        for q, depth in ((2, 3), (3, 2)):
            g = gen_tree(q, depth)
            boundary, interior = leaf_boundary(g)
            for seed in range(25):
                res = newton_solve_teom(
                    g, boundary, random_init(random.Random(seed), interior)
                )
                if res.converged:
                    vals = [res.setting[key] for key in interior]
                    assert max(vals) - min(vals) < 1e-8

    def test_half_half_boundary_recovers_half_half(self):
        q, depth = 3, 3
        g = gen_tree(q, depth)
        reference = half_half_setting(q, depth, 2.0)
        boundary, interior = leaf_boundary(g)
        boundary = Setting(
            {key: reference[key] for key in g.lengths() if key not in interior}
        )
        init = Setting({key: 1.0 for key in interior})
        res = newton_solve_teom(g, boundary, init, restarts=8)
        assert res.converged
        assert verify_solution(g, res.setting).is_solution

    def test_nogo_boundary_never_converges(self):
        g = gen_tree(2, 3)
        depth = tree_depths(g)
        data = {}
        for key in g.lengths():
            top = max(depth[key[0]], depth[key[1]])
            if top == 3:
                data[key] = 1.0
            elif top == 2:
                data[key] = 1.5
        boundary = Setting(data)
        region = extract_region(g, [v for v in g.vertices if depth[v] <= 2])
        assert nogo_indicator(g, region, boundary) < 0.0
        free = [key for key in g.lengths() if key not in boundary]
        for seed in range(10):
            res = newton_solve_teom(
                g, boundary, random_init(random.Random(seed), free), restarts=2
            )
            assert not res.converged

    def test_missing_boundary_rejected(self):
        g = gen_tree(2, 2)
        with pytest.raises(BadParams):
            newton_solve_teom(g, Setting({}), Setting({key: 1.0 for key in g.lengths()}))

    def test_non_tree_rejected(self):
        g = gen_complete(4)
        with pytest.raises(NotATree):
            newton_solve_teom(g, Setting({}), Setting({}))

    @pytest.mark.parametrize("start", [1e-7, 2e3])
    def test_start_outside_box_rejected(self, start):
        g = gen_tree(2, 3)
        boundary, interior = leaf_boundary(g)
        init = Setting({key: start for key in interior})
        with pytest.raises(BadParams, match="within"):
            newton_solve_teom(g, boundary, init)


class TestExtremize:
    def test_triangle_maximum(self):
        res = extremize_action(gen_complete(3), None, "max", restarts=6, seed=3)
        assert res.objective == pytest.approx(4.5, abs=1e-6)
        # maximizer is constant up to scale; gauge fixes geometric mean to 1
        vals = sorted(res.setting.lengths.values())
        assert vals[-1] / vals[0] == pytest.approx(1.0, abs=1e-3)

    def test_triangle_minimum(self):
        res = extremize_action(gen_complete(3), None, "min", restarts=4, seed=3)
        assert res.objective == pytest.approx(3.6, abs=1e-6)

    def test_square_minimum_not_above_reference(self):
        # the reference setting (1+sqrt2, 1+sqrt2, 1, 1) gives 6 - 2 sqrt2;
        # the optimizer may do better in the shortcut corner of the box
        res = extremize_action(gen_cycle(4), None, "min", restarts=6, seed=3)
        assert res.objective <= 6.0 - 2.0 * math.sqrt(2.0) + 1e-6

    @pytest.mark.parametrize("seed", range(6))
    def test_square_maximum_approaches_supremum(self, seed):
        # the supremum 5 is approached, never attained: one geodesic collapses
        # while two others blow up with a unit offset.  The relation is read on
        # geodesic lengths: an edge longer than its detour does not enter the
        # action, so its raw length is wherever the search left it.
        res = extremize_action(gen_cycle(4), None, "max", restarts=6, seed=seed)
        assert 4.9 <= res.objective < 5.0
        g = gen_cycle(4).with_lengths(res.setting.lengths)
        geo = GeodesicTable(g)
        d = sorted(geo.dist(u, v) for u, v in g.edges)
        assert d[3] - d[2] == pytest.approx(d[1], rel=1e-2)

    def test_objective_is_reproducible(self):
        from graphgrav import GeodesicTable, action_plain, gen_complete

        res = extremize_action(gen_complete(3), None, "max", restarts=2, seed=9)
        g = gen_complete(3).with_lengths(res.setting.lengths)
        again = action_plain(g, GeodesicTable(g)).total
        assert again == pytest.approx(res.objective, abs=1e-8)

    @pytest.mark.parametrize(
        "g, seeds",
        [(gen_complete(3), [0]), (gen_cycle(4), range(10))],
        ids=["triangle", "square"],
    )
    def test_box_flag_reads_the_optimizer_point(self, g, seeds, monkeypatch):
        # the flag is read at the Nelder-Mead point, before the gauge shift,
        # which can move a length onto the box edge (the triangle's longest,
        # seed 0) or off it
        from scipy import optimize

        minimize = optimize.minimize
        points = []

        def recording(*args, **kwargs):
            out = minimize(*args, **kwargs)
            points.append(out.x)
            return out

        monkeypatch.setattr(optimize, "minimize", recording)
        flags = set()
        for seed in seeds:
            points.clear()
            res = extremize_action(g, None, "max", restarts=1, seed=seed)
            (x,) = points
            on_box = bool(np.any(x < LOG_LENGTH_LO + 1e-6) or np.any(x > LOG_LENGTH_HI - 1e-6))
            assert res.at_box_boundary is on_box
            flags.add(on_box)
        if g.num_edges == 3:
            assert flags == {False}
            assert max(res.setting.lengths.values()) == pytest.approx(1e3)
        else:
            assert flags == {True, False}

    def test_gauge_shift_stays_in_box(self):
        # a shift to geometric mean 1 would stretch the longest edge to 5.6e3
        res = extremize_action(gen_complete(3), None, "max", restarts=1, seed=0)
        lengths = res.setting.lengths
        assert all(1e-6 <= ell <= 1e3 for ell in lengths.values())
        mean = math.exp(math.fsum(math.log(ell) for ell in lengths.values()) / len(lengths))
        g = gen_complete(3).with_lengths({key: ell / mean for key, ell in lengths.items()})
        assert res.objective == pytest.approx(action_plain(g, GeodesicTable(g)).total, abs=1e-9)

    def test_no_free_edges(self):
        g = gen_complete(3)
        fixed = Setting({key: 1.0 for key in g.lengths()})
        with pytest.raises(NoFreeEdges):
            extremize_action(g, fixed, "max")

    def test_deterministic_under_seed(self):
        a = extremize_action(gen_complete(3), None, "min", restarts=2, seed=5)
        b = extremize_action(gen_complete(3), None, "min", restarts=2, seed=5)
        assert a.setting.lengths == b.setting.lengths
        assert a.objective == b.objective
