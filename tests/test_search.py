import gc
import math
import os
import random
import re
import subprocess
import sys
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

import graphgrav
from graphgrav import (
    GeodesicTable,
    Setting,
    action_plain,
    build_graph,
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
from graphgrav import dynamics
from graphgrav.dynamics import _tree_index, _tree_system, _unit_scaled
from graphgrav.errors import BadParams, NotAnEdge, NotATree, SingularJacobian
from graphgrav.search import LOG_LENGTH_HI, LOG_LENGTH_LO, MAX_LOG_STEP, MAX_NEWTON_ITER, _newton_run

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
    residual, jacobian = _tree_system(g, free, fixed)
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


class TestTreeIndex:
    """Each tree's lengths-free index is built on its first call, read by
    every later one, and dropped with the tree; Newton's first system adds
    the Jacobian pattern to it."""

    @staticmethod
    def _calls():
        """Newton with only the leaf edges fixed, Newton with 5 interior edges
        fixed as well (overdetermined), ``verify_solution`` and
        ``nogo_indicator``, each as a function of a fresh ``gen_tree(2, 4)``."""
        t = gen_tree(2, 4)
        leaves, interior = leaf_boundary(t)
        rng = random.Random(4)
        init = random_init(rng, sorted(interior))
        five = Setting({**leaves.lengths, **random_init(rng, rng.sample(sorted(interior), 5)).lengths})
        lengths = Setting({key: math.exp(rng.uniform(-1.0, 1.0)) for key in t.edges})
        region = extract_region(t, [v for v in t.vertices if int(v) < 10])
        return [
            lambda g: newton_solve_teom(g, leaves, init),
            lambda g: newton_solve_teom(g, five, init, restarts=1),
            lambda g: verify_solution(g, lengths),
            lambda g: nogo_indicator(g, region, lengths),
        ]

    def test_one_build_serves_every_call_bit_for_bit(self, monkeypatch):
        built = []
        build = dynamics._build_index
        monkeypatch.setattr(dynamics, "_build_index", lambda g: built.append(g) or build(g))
        shared = gen_tree(2, 4)
        for call in self._calls():
            # repr writes each float exactly, and -0.0 apart from 0.0
            assert repr(call(shared)) == repr(call(gen_tree(2, 4)))
        assert [g is shared for g in built] == [True, False, False, False, False]

    def test_jacobian_pattern_is_built_for_newton_only(self, monkeypatch):
        # a spy index records each attribute written after its build
        writes = []

        class Spy(SimpleNamespace):
            def __setattr__(self, name, value):
                writes.append(name)
                super().__setattr__(name, value)

        build = dynamics._build_index
        monkeypatch.setattr(dynamics, "_build_index", lambda g: Spy(**vars(build(g))))
        newton, overdetermined, verify, nogo = self._calls()
        g = gen_tree(2, 4)
        verify(g)
        nogo(g)
        assert writes == [] and _tree_index(g).pattern.size == 0
        newton(g)
        pattern = _tree_index(g).pattern
        assert writes == ["pattern"] and pattern.size
        overdetermined(g)
        newton(g)
        assert writes == ["pattern"] and _tree_index(g).pattern is pattern

    def test_index_dies_with_its_tree(self):
        # an index that held its tree, or a cycle through it, would keep
        # every tree Newton ever saw until the cycle collector ran
        g = gen_tree(2, 3)
        newton_solve_teom(g, leaf_boundary(g)[0])  # the pattern too
        refs = weakref.ref(g), weakref.ref(_tree_index(g).ratios), weakref.ref(_tree_index(g).pattern)
        assert _tree_index(g) is _tree_index(g) and _tree_index(g).pattern.size
        gc.disable()
        try:
            del g
            assert [ref() for ref in refs] == [None, None, None]
        finally:
            gc.enable()


def test_import_leaves_scipy_optimize_unloaded():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(graphgrav.__file__)))
    code = "import sys, graphgrav; print('scipy.optimize' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_numpy_loads_only_when_an_array_path_runs():
    """The package, its command line, the curvature and action paths, and the
    set-up of a Newton run (``interior_edges`` and a boundary ``Setting``) run
    on the standard library; Newton loads numpy on its first call."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(graphgrav.__file__)))
    code = (
        "import sys, graphgrav, graphgrav.cli\n"
        "seen = ['numpy' in sys.modules]\n"
        "g = graphgrav.gen_complete(4)\n"
        "geo = graphgrav.GeodesicTable(g)\n"
        "graphgrav.action_plain(g, geo), graphgrav.edge_curvatures(geo), graphgrav.kappa_t(geo, '0', '1', 0.5)\n"
        "seen.append('numpy' in sys.modules)\n"
        "t = graphgrav.gen_tree(2, 3)\n"
        "inner = set(graphgrav.interior_edges(t))\n"
        "boundary = graphgrav.Setting({k: 1.0 for k in t.edges if k not in inner})\n"
        "seen.append('numpy' in sys.modules)\n"
        "graphgrav.newton_solve_teom(t, boundary)\n"
        "print(seen + ['numpy' in sys.modules])\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[False, False, False, True]"


def test_unknown_objective_is_refused_before_scipy_loads():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(graphgrav.__file__)))
    code = (
        "import sys, graphgrav\n"
        "try:\n"
        "    graphgrav.extremize_action(graphgrav.gen_complete(3), None, 'median')\n"
        "except graphgrav.errors.BadParams as err:\n"
        "    print(err, 'scipy.optimize' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "objective must be 'max' or 'min', got median False"


def test_non_edge_in_fixed_is_refused_before_scipy_loads():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(graphgrav.__file__)))
    code = (
        "import sys, graphgrav\n"
        "fixed = graphgrav.Setting({('0', '2'): 1.0})\n"
        "try:\n"
        "    graphgrav.extremize_action(graphgrav.gen_cycle(4), fixed, 'max')\n"
        "except graphgrav.errors.NotAnEdge as err:\n"
        "    print(err, 'scipy.optimize' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "('0', '2') is not an edge False"


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

    @pytest.mark.parametrize("scale", [1e-5, 1e-3, 1.0, 500.0])
    def test_converged_means_verified_at_every_scale(self, scale):
        # converged is verify_solution's verdict, which reads tol at the
        # lengths' power of two, so it holds at every common scale
        g = gen_tree(2, 5)
        interior = interior_edges(g)
        boundary = Setting({key: scale for key in g.edges if key not in interior})
        rng = random.Random(7)
        converged = 0
        for _ in range(100):
            init = Setting({key: scale * math.exp(rng.uniform(-0.3, 0.3)) for key in interior})
            res = newton_solve_teom(g, boundary, init, restarts=3)
            report = verify_solution(g, res.setting, tol=1e-12)
            assert res.converged == report.is_solution
            # the reported lengths are the ones whose residual was judged
            assert res.objective == report.max_abs_residual
            converged += res.converged
        assert converged == 100

    @pytest.mark.parametrize("seed, iterations", [(83, 6), (393, 5)])
    def test_run_goes_on_until_its_verdict_passes(self, seed, iterations):
        # the lengths' own power of two is one below the leaf edges', at which
        # both the run and verify_solution read tol, so the last start stops
        # on the first step below tol there and its setting passes
        g = gen_tree(2, 3)
        interior = interior_edges(g)
        rng = random.Random(seed)
        lo, hi = math.log(0.05), math.log(20.0)
        boundary = {key: math.exp(rng.uniform(lo, hi)) for key in g.edges if key not in interior}
        res = newton_solve_teom(g, Setting(boundary), tol=1e-7, restarts=2, seed=0)
        assert (res.converged, res.iterations, res.restarts_used) == (True, iterations, 2)
        report = verify_solution(g, res.setting, tol=1e-7)
        assert report.is_solution and report.max_abs_residual == res.objective
        assert _unit_scaled(res.setting.lengths)[1] == _unit_scaled(boundary)[1] + 1

    def test_verdict_reads_the_power_of_two_of_the_reported_lengths(self):
        # at the boundary sqrt(2) the leaf edges' mean log2 is just above 1/2,
        # so tol is read at 2^-1: the run stops at 6 iterations on a residual
        # of 1.33e-15, which reads 6.7e-16 there, and verify_solution reads
        # the reported setting, in g.edges order as the command line writes
        # it, at the same power of two
        g = gen_tree(2, 3)
        interior = interior_edges(g)
        boundary = Setting({key: math.sqrt(2.0) for key in g.edges if key not in interior})
        res = newton_solve_teom(g, boundary, tol=1e-15, seed=0)
        report = verify_solution(g, res.setting, tol=1e-15)
        assert (res.converged, report.is_solution, res.iterations) == (True, True, 6)
        assert 1e-15 < res.objective == report.max_abs_residual < 2e-15
        assert list(res.setting.lengths) == list(g.edges)

    def test_verdict_holds_with_interior_edges_fixed(self):
        # fixing interior edges too leaves tol read at the leaf edges' power of
        # two, here one below that of every fixed length, for the run as for
        # verify_solution
        g = gen_tree(2, 3)
        interior = interior_edges(g)
        rng = random.Random(83)
        lo, hi = math.log(0.05), math.log(20.0)
        leaves = {key: math.exp(rng.uniform(lo, hi)) for key in g.edges if key not in interior}
        solution = newton_solve_teom(g, Setting(leaves), tol=1e-13, restarts=5, seed=0)
        boundary = Setting({key: solution.setting[key] for key in g.edges if key != interior[0]})
        init = Setting({interior[0]: 1.01 * solution.setting[interior[0]]})
        assert _unit_scaled(boundary.lengths)[1] == _unit_scaled(leaves)[1] + 1
        verdicts = []
        for u in range(-16, 17):
            tol = solution.objective * 2.0 ** (u / 8)
            res = newton_solve_teom(g, boundary, init, tol=tol)
            assert res.converged == verify_solution(g, res.setting, tol=tol).is_solution
            verdicts.append(res.converged)
        assert True in verdicts and False in verdicts

    def test_missing_boundary_rejected(self):
        g = gen_tree(2, 2)
        with pytest.raises(BadParams):
            newton_solve_teom(g, Setting({}), Setting({key: 1.0 for key in g.lengths()}))

    def test_missing_boundary_named_in_edge_order(self):
        # the path a-b-c-d given from its far end: a-b is the first
        # non-interior edge in `g.edges` order, c-d the first in file order
        g = build_graph(list("abcd"), [("c", "d", 1.0), ("b", "c", 1.0), ("a", "b", 1.0)])
        with pytest.raises(BadParams, match=re.escape("non-interior edge ('a', 'b')")):
            newton_solve_teom(g, Setting({}), Setting({("b", "c"): 1.0}))

    def test_non_tree_rejected(self):
        g = gen_complete(4)
        with pytest.raises(NotATree):
            newton_solve_teom(g, Setting({}), Setting({}))

    @pytest.mark.parametrize("which", ["boundary", "init"])
    def test_non_edge_rejected(self, which):
        g = gen_tree(2, 2)
        boundary, interior = leaf_boundary(g)
        settings = {"boundary": boundary, "init": Setting({key: 1.0 for key in interior})}
        settings[which] = Setting({**settings[which].lengths, ("1", "2"): 1.0})
        with pytest.raises(NotAnEdge):
            newton_solve_teom(g, settings["boundary"], settings["init"])

    def test_singular_jacobian_steps_by_least_squares(self):
        # r = (s - 1, 2s - 1) with s = x0 + x1: the Jacobian [[1, 1], [2, 2]]
        # is singular, and the least-squares step sets s = 3/5 split evenly;
        # the next least-squares step is zero, so the run stops unconverged
        def residual(x):
            s = x[0] + x[1]
            return np.array([s - 1.0, 2.0 * s - 1.0])

        def jacobian(x):
            return np.array([[1.0, 1.0], [2.0, 2.0]])

        x, worst, iterations, converged = _newton_run(residual, jacobian, np.zeros(2), 1e-12)
        assert x == pytest.approx([0.3, 0.3])
        assert worst == pytest.approx(0.4)
        assert not converged
        assert iterations == 2

    def test_jacobian_neither_solver_reads_is_refused(self):
        # solve refuses [[0, nan], [0, nan]] as singular, and the least-squares
        # SVD does not converge on it (LAPACK may print DLASCL lines to fd 2)
        jac = np.array([[0.0, math.nan], [0.0, math.nan]])
        with pytest.raises(SingularJacobian, match="cannot solve the Newton system") as info:
            _newton_run(lambda x: np.ones(2), lambda x: jac, np.zeros(2), 1e-12)
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)

    def test_run_stops_on_the_first_residual_below_tol(self):
        # r(x) = x^3 from x = 1/2: each step multiplies x by 2/3, so after 4
        # steps |r| = (1/8)(8/27)^4 = 9.6e-4 < 1e-3, but not below 5e-4,
        # which only a fifth step brings it under
        def run(tol):
            return _newton_run(lambda x: x**3, lambda x: np.diag(3.0 * x * x), np.array([0.5]), tol)

        _, worst, iterations, converged = run(1e-3)
        assert (iterations, converged) == (4, True) and worst > 5e-4
        # tol is a strict bound: a residual equal to it takes one more step
        assert run(worst)[2:] == (5, True)
        _, worst, iterations, converged = run(5e-4)
        assert (iterations, converged) == (5, True) and worst < 5e-4

    def test_run_ends_at_the_iteration_cap(self):
        # r(x) = x with a Jacobian 1000 times too steep: each step takes 1/1000
        # of x off, so the run ends unconverged at the cap on the residual of
        # the x it returns
        x, worst, iterations, converged = _newton_run(
            lambda x: x, lambda x: np.diag(1e3 * np.ones_like(x)), np.ones(1), 1e-12)
        assert (iterations, converged) == (MAX_NEWTON_ITER, False)
        assert worst == x[0] == pytest.approx(0.999**MAX_NEWTON_ITER)

    @pytest.mark.parametrize("m", [9, -30, 500])
    @pytest.mark.parametrize("with_init", [True, False], ids=["init", "random-starts"])
    def test_scaling_the_data_by_a_power_of_two_scales_the_result(self, m, with_init):
        # the run reads the data at the boundary's power of two, so the
        # result scales exactly and nothing else changes
        g = gen_tree(2, 3)
        interior = interior_edges(g)
        rng = random.Random(4)
        boundary = {key: math.exp(rng.uniform(-0.5, 0.5)) for key in g.edges if key not in interior}
        init = {key: math.exp(rng.uniform(-0.5, 0.5)) for key in interior}

        def solve(e):
            start = Setting({key: math.ldexp(ell, e) for key, ell in init.items()}) if with_init else None
            bnd = Setting({key: math.ldexp(ell, e) for key, ell in boundary.items()})
            return newton_solve_teom(g, bnd, start, restarts=2, seed=3)

        base, scaled = solve(0), solve(m)
        assert base.converged
        assert (scaled.iterations, scaled.converged, scaled.restarts_used) == (
            base.iterations, base.converged, base.restarts_used)
        assert {key: math.ldexp(ell, -m) for key, ell in scaled.setting.lengths.items()} == base.setting.lengths
        assert math.ldexp(scaled.objective, -m) == base.objective

    @pytest.mark.parametrize("scale", [900.0, 5e3, 1e-7])
    def test_random_starts_follow_the_boundary_scale(self, scale):
        # the start draw and the box are read at the boundary's power of
        # two, so a boundary outside the box is no obstacle
        g = gen_tree(2, 3)
        interior = interior_edges(g)
        boundary = Setting({key: scale for key in g.edges if key not in interior})
        res = newton_solve_teom(g, boundary)
        assert res.converged
        assert all(ell == pytest.approx(scale, rel=1e-9) for ell in res.setting.lengths.values())

    def test_negative_restarts_rejected(self):
        g = gen_tree(2, 2)
        boundary, _ = leaf_boundary(g)
        with pytest.raises(BadParams, match="restarts must be >= 0, got -1"):
            newton_solve_teom(g, boundary, restarts=-1)

    def test_restarts_used_is_the_start_kept(self, monkeypatch):
        # criterion 14's no-go data: no start converges, and the least
        # residual is start 0's, not the last start's
        g = gen_tree(2, 3)
        depth = tree_depths(g)
        boundary = Setting({
            key: 1.0 if max(depth[key[0]], depth[key[1]]) == 3 else 1.5
            for key in g.lengths() if max(depth[key[0]], depth[key[1]]) >= 2
        })
        runs = []
        newton_run = graphgrav.search._newton_run

        def recording(*args):
            out = newton_run(*args)
            runs.append(out)
            return out

        monkeypatch.setattr(graphgrav.search, "_newton_run", recording)
        res = newton_solve_teom(g, boundary, restarts=3, seed=1)
        assert not res.converged and len(runs) == 4
        worst = [w for _, w, _, _ in runs]
        kept = worst.index(min(worst))
        assert kept != 3
        assert res.restarts_used == kept
        assert (res.objective, res.iterations) == (worst[kept], runs[kept][2])

    def test_equal_residuals_keep_the_first_start(self):
        # every edge fixed off the constant: each start reads the same
        # residual, and the first is kept
        g = gen_tree(2, 3)
        lengths = {key: 1.0 for key in g.edges}
        lengths[interior_edges(g)[0]] = 1.5
        res = newton_solve_teom(g, Setting(lengths), restarts=2)
        assert (res.converged, res.iterations, res.restarts_used) == (False, 0, 0)

    def test_default_seed_is_42(self):
        # with no init every start is drawn from the seed
        g = gen_tree(2, 3)
        boundary, _ = leaf_boundary(g)
        res = newton_solve_teom(g, boundary)
        assert res == newton_solve_teom(g, boundary, seed=42) != newton_solve_teom(g, boundary, seed=43)

    def test_run_kept_on_the_floor_is_flagged(self):
        # starts at e^{+-0.3} fall into the spurious valley of the docstring
        # and end with a free length at the floor of the box; converged runs
        # from the same data end inside it
        g = gen_tree(2, 5)
        interior = interior_edges(g)
        boundary = Setting({key: 1.0 for key in g.edges if key not in interior})
        for s in range(3):
            signs = np.random.default_rng(s).choice([-1.0, 1.0], size=len(interior))
            init = Setting({key: math.exp(0.3 * sign) for key, sign in zip(interior, signs)})
            res = newton_solve_teom(g, boundary, init, tol=1e-10)
            low = min(math.log(res.setting[key]) for key in interior)
            # the trial that leaves the box is projected onto it
            assert not res.converged and low == LOG_LENGTH_LO
            assert res.at_box_boundary
        res = newton_solve_teom(g, boundary, tol=1e-10)
        assert res.converged and not res.at_box_boundary

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_tol_outside_its_domain_rejected(self, tol):
        g = gen_tree(2, 2)
        boundary, _ = leaf_boundary(g)
        with pytest.raises(BadParams, match="tol must be positive and finite"):
            newton_solve_teom(g, boundary, tol=tol)

    def test_step_past_the_box_is_projected_onto_it(self):
        # the root of r(x) = x - x* lies below the floor: the iterates walk down
        # by the trust region and stop on the floor itself
        target = LOG_LENGTH_LO - 1.0
        x, worst, iterations, converged = _newton_run(
            lambda x: x - target, lambda x: np.eye(1), np.zeros(1), 1e-12)
        assert x[0] == LOG_LENGTH_LO and worst == 1.0 and not converged
        assert iterations == math.ceil(-LOG_LENGTH_LO / MAX_LOG_STEP) + 1

    @pytest.mark.parametrize("init", [True, False], ids=["init", "random-starts"])
    def test_negative_seed_rejected(self, init):
        # with an init that converges at start 0 the seed is never drawn from
        g = gen_tree(2, 2)
        boundary, interior = leaf_boundary(g)
        start = Setting({key: 1.0 for key in interior}) if init else None
        with pytest.raises(BadParams, match="seed must be >= 0, got -1"):
            newton_solve_teom(g, boundary, start, seed=-1)

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

    @pytest.mark.parametrize("g, fixed, seeds, one_end_seen", [
        (gen_complete(3), {}, range(3), True),
        (gen_cycle(4), {}, range(10), False),
        (gen_cycle(4), {("0", "1"): 1.0}, range(3), True),
    ], ids=["triangle", "square", "square-fixed"])
    def test_box_flag_follows_the_rule_on_the_reported_point(self, g, fixed, seeds, one_end_seen):
        # the point is on the box when no move the search may make takes it
        # off: with every edge free the common scale moves, so a length must
        # sit at each end; with fixed data one end is enough
        flags, one_end = set(), False
        for seed in seeds:
            res = extremize_action(g, Setting(fixed), "max", restarts=1, seed=seed)
            x = [math.log(ell) for key, ell in res.setting.lengths.items() if key not in fixed]
            low, high = min(x) < LOG_LENGTH_LO + 1e-6, max(x) > LOG_LENGTH_HI - 1e-6
            assert res.at_box_boundary is ((low and high) if not fixed else (low or high))
            flags.add(res.at_box_boundary)
            one_end |= low != high
        # a length at one end only, where the two rules differ, shows with
        # fixed data and on the triangle, where in seeds 1 and 2 the longest
        # edge reaches the top end but a ratio below 1e9 leaves the scale
        # free to move it off; every square run ends on both ends or neither
        assert one_end is one_end_seen
        assert flags == {True, False}
    @pytest.mark.parametrize("g, objective, bound", [
        (gen_complete(4), "min", lambda v: v <= 4.0 + 1e-9),
        (gen_cycle(5), "max", lambda v: v >= 5.99985),
    ], ids=["K4-min", "C5-max"])
    def test_degenerate_limits_are_reached_with_no_edge_fixed(self, g, objective, bound):
        # the K4 perfect-matching limit 4 and the C5 maximum 6 lie where a
        # length ratio grows without bound; a wall on the common scale, which
        # the action cannot see, would stop the search short of them
        for seed in range(3):
            res = extremize_action(g, None, objective, restarts=2, seed=seed)
            assert bound(res.objective), (seed, res.objective)

    @pytest.mark.parametrize("g, fixed, objective, restarts, seed", [
        (gen_complete(4), {}, "min", 2, 1),
        (gen_cycle(4), {("0", "1"): 1.0, ("1", "2"): 1.0}, "max", 1, 0),
        (gen_cycle(4), {}, "max", 1, 9),
    ], ids=["K4-min", "C4-max-fixed", "C4-max"])
    def test_run_pressed_against_the_box_ends_on_it(self, g, fixed, objective, restarts, seed):
        # each point is projected onto the box, so a run that presses against
        # it reports a length exactly on an end, and the flag reads that point
        res = extremize_action(g, Setting(fixed), objective, restarts=restarts, seed=seed)
        x = {math.log(ell) for key, ell in res.setting.lengths.items() if key not in fixed}
        assert x & {LOG_LENGTH_LO, LOG_LENGTH_HI}
        assert res.at_box_boundary

    def test_negative_seed_rejected(self):
        with pytest.raises(BadParams, match="seed must be >= 0, got -1"):
            extremize_action(gen_complete(3), None, "max", restarts=1, seed=-1)

    @pytest.mark.parametrize("fixed", [{}, {("0", "1"): 1.0}], ids=["free", "fixed"])
    def test_objective_is_the_measured_action_of_the_reported_setting(self, fixed, monkeypatch):
        # no evaluation after Nelder-Mead's last: the objective is the value
        # it measured, at the very lengths it reports
        calls = []
        action = graphgrav.search.action_plain

        def counting(*args):
            calls.append(1)
            return action(*args)

        from scipy import optimize

        minimize = optimize.minimize
        seen = []  # evaluations made when each Nelder-Mead run returns

        def recording(*args, **kwargs):
            out = minimize(*args, **kwargs)
            seen.append(len(calls))
            return out

        monkeypatch.setattr(graphgrav.search, "action_plain", counting)
        monkeypatch.setattr(optimize, "minimize", recording)
        res = extremize_action(gen_cycle(4), Setting(fixed), "max", restarts=2, seed=1)
        assert len(seen) == 2 and len(calls) == seen[-1]
        g = gen_cycle(4).with_lengths(res.setting.lengths)
        assert type(res.objective) is float
        assert res.objective == action(g, GeodesicTable(g)).total

    def test_gauge_shift_stays_in_box(self):
        # a shift to geometric mean 1 would stretch the longest edge to 5.6e3
        res = extremize_action(gen_complete(3), None, "max", restarts=1, seed=0)
        lengths = res.setting.lengths
        assert all(1e-6 <= ell <= 1e3 for ell in lengths.values())
        mean = math.exp(math.fsum(math.log(ell) for ell in lengths.values()) / len(lengths))
        g = gen_complete(3).with_lengths({key: ell / mean for key, ell in lengths.items()})
        assert res.objective == pytest.approx(action_plain(g, GeodesicTable(g)).total, abs=1e-9)

    @pytest.mark.parametrize("m", [9, -30, 500])
    def test_scaling_the_fixed_data_by_a_power_of_two_scales_the_result(self, m):
        # the box and the starts are read at the fixed data's power of two
        g = gen_cycle(4)
        fixed = {("0", "1"): 1.0, ("2", "3"): 1.0}

        def search(e):
            data = Setting({key: math.ldexp(ell, e) for key, ell in fixed.items()})
            return extremize_action(g, data, "max", restarts=2, seed=1)

        base, scaled = search(0), search(m)
        assert (scaled.iterations, scaled.converged, scaled.restarts_used, scaled.at_box_boundary) == (
            base.iterations, base.converged, base.restarts_used, base.at_box_boundary)
        assert {key: math.ldexp(ell, -m) for key, ell in scaled.setting.lengths.items()} == base.setting.lengths
        assert scaled.objective == base.objective

    def test_unknown_objective_rejected(self):
        with pytest.raises(BadParams, match="objective must be 'max' or 'min', got mean"):
            extremize_action(gen_complete(3), None, objective="mean")

    @pytest.mark.parametrize("restarts", [0, -1])
    def test_restarts_below_one_rejected(self, restarts):
        with pytest.raises(BadParams, match=f"restarts must be >= 1, got {restarts}"):
            extremize_action(gen_complete(3), None, "max", restarts=restarts)

    @staticmethod
    def _record_runs(monkeypatch, maxfev=None):
        """Record every Nelder-Mead result, with the evaluation cap replaced
        by ``maxfev`` when given."""
        from scipy import optimize

        minimize = optimize.minimize
        runs = []

        def recording(*args, options, **kwargs):
            if maxfev is not None:
                options = {**options, "maxfev": maxfev}
            runs.append(minimize(*args, options=options, **kwargs))
            return runs[-1]

        monkeypatch.setattr(optimize, "minimize", recording)
        return runs

    @pytest.mark.parametrize("g, objective, restarts, seed", [
        (gen_complete(3), "min", 4, 3), (gen_cycle(4), "max", 3, 0),
    ], ids=["K3-min", "C4-max"])
    def test_restarts_used_is_the_start_kept(self, g, objective, restarts, seed, monkeypatch):
        runs = self._record_runs(monkeypatch)
        res = extremize_action(g, None, objective, restarts=restarts, seed=seed)
        values = [out.fun for out in runs]
        assert len(runs) == restarts
        assert res.restarts_used == values.index(min(values))
        assert res.iterations == sum(out.nfev for out in runs)
        sign = -1.0 if objective == "max" else 1.0
        assert res.objective == pytest.approx(sign * min(values), rel=1e-8)

    @pytest.mark.parametrize("maxfev", [20, None])
    def test_converged_is_the_kept_run_success(self, maxfev, monkeypatch):
        # every start lies inside the box, so no run ends worse than its start;
        # only a run that spends its evaluation cap reports a failure
        runs = self._record_runs(monkeypatch, maxfev)
        res = extremize_action(gen_complete(3), None, "min", restarts=2, seed=0)
        assert res.converged is (maxfev is None)
        assert res.converged is bool(runs[res.restarts_used].success)

    def test_no_free_edges(self):
        g = gen_complete(3)
        fixed = Setting({key: 1.0 for key in g.lengths()})
        with pytest.raises(BadParams, match="no free edges to vary"):
            extremize_action(g, fixed, "max")

    def test_deterministic_under_seed(self):
        a = extremize_action(gen_complete(3), None, "min", restarts=2, seed=5)
        b = extremize_action(gen_complete(3), None, "min", restarts=2, seed=5)
        assert a.setting.lengths == b.setting.lengths
        assert a.objective == b.objective
