"""Damped Newton with the exact Jacobian for the tree equations of motion, and
Nelder-Mead extremal-action search, whose scipy.optimize loads only when it runs.

The tree system itself, residual and Jacobian, lives in ``dynamics``; Newton
here only drives it, inside the log-length box [1e-6, 1e3].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .action import action_plain
from .dynamics import Setting, _tree_system, interior_edges, is_tree
from .errors import BadParams, NoFreeEdges, NotATree, SingularJacobian
from .graph import GeodesicTable, WeightedGraph, edge_key

LOG_LENGTH_LO = math.log(1e-6)
LOG_LENGTH_HI = math.log(1e3)
MAX_DAMPINGS = 30
MAX_LOG_STEP = 1.0  # trust region in log-length space


@dataclass(frozen=True)
class SearchResult:
    setting: Setting
    objective: float
    iterations: int
    converged: bool
    restarts_used: int
    at_box_boundary: bool = False


def newton_solve_teom(
    g: WeightedGraph,
    boundary: Setting,
    init: Setting,
    tol: float = 1e-12,
    max_iter: int = 200,
    restarts: int = 0,
    seed: int = 42,
) -> SearchResult:
    """Damped Newton on the log-lengths of the non-fixed interior edges.

    ``boundary`` must fix at least every non-interior edge; fixing interior
    edges as well is allowed and leaves an overdetermined system, solved in
    the least-squares sense.  Residuals of every interior edge must drop
    below tol for convergence; the objective reported is the final maximum
    absolute residual.

    Free lengths are confined to [1e-6, 1e3].  The truncated equations have
    spurious residual valleys in which a cluster of sibling edges shrinks to
    zero together; their residuals fall below any usable tolerance only
    outside this box, so the box keeps a converged run meaningful.  When the
    run from ``init`` stalls, up to ``restarts`` fresh starts are taken near
    the scale of the boundary data.
    """
    if not is_tree(g):
        raise NotATree("the equations of motion are solved on trees only")
    interior = [edge_key(u, v) for u, v in interior_edges(g)]
    interior_set = set(interior)
    edge_keys = set(g.lengths())
    for key in edge_keys:
        if key not in interior_set and key not in boundary:
            raise BadParams(f"boundary must fix non-interior edge {key!r}")
    free = [key for key in interior if key not in boundary]
    for key in free:
        if key not in init:
            raise BadParams(f"init must give a length for free edge {key!r}")
    fixed = {key: boundary[key] for key in boundary.lengths if key in edge_keys}

    x0 = np.array([math.log(init[key]) for key in free], dtype=float)
    residual, jacobian = _tree_system(g, interior, free, fixed)
    result = _newton_run(residual, jacobian, x0, tol, max_iter)
    used = 0
    if not result[2] and free and restarts > 0:
        rng = np.random.default_rng(seed)
        anchor = float(np.mean([math.log(v) for v in fixed.values()])) if fixed else 0.0
        for _ in range(restarts):
            used += 1
            spread = rng.uniform(-0.3, 0.3, size=len(free))
            retry = _newton_run(residual, jacobian, anchor + spread, tol, max_iter)
            if retry[2]:
                result = retry
                break
            if retry[1] < result[1]:
                result = retry
    x, worst, converged, iterations = result
    lengths = {**fixed, **{key: math.exp(val) for key, val in zip(free, x.tolist())}}
    return SearchResult(
        setting=Setting(lengths),
        objective=worst,
        iterations=iterations,
        converged=converged,
        restarts_used=used,
    )


def _outside_box(x):
    return x.size and (np.min(x) < LOG_LENGTH_LO or np.max(x) > LOG_LENGTH_HI)


def _newton_run(residual, jacobian, x, tol, max_iter):
    """One damped Newton descent; returns (x, max_abs_residual, converged, iters).
    Every iterate stays inside the box; a step that leaves it is damped."""
    if _outside_box(x):
        raise BadParams("initial free lengths must lie within [1e-6, 1e3]")
    res = residual(x)
    iterations = 0
    converged = bool(np.max(np.abs(res), initial=0.0) < tol)
    while not converged and iterations < max_iter and x.size:
        jac = jacobian(x)
        try:
            if jac.shape[0] == jac.shape[1]:
                step = np.linalg.solve(jac, -res)
            else:
                step, *_ = np.linalg.lstsq(jac, -res, rcond=None)
        except np.linalg.LinAlgError as exc:
            try:
                step, *_ = np.linalg.lstsq(jac, -res, rcond=None)
            except np.linalg.LinAlgError:
                raise SingularJacobian("cannot solve the Newton system") from exc
        biggest = float(np.max(np.abs(step), initial=0.0))
        if biggest > MAX_LOG_STEP:
            step = step * (MAX_LOG_STEP / biggest)
        norm0 = float(np.linalg.norm(res))
        lam = 1.0
        improved = False
        for _ in range(MAX_DAMPINGS):
            trial = x + lam * step
            trial_res = None if _outside_box(trial) else residual(trial)
            if trial_res is not None and float(np.linalg.norm(trial_res)) < norm0:
                x, res = trial, trial_res
                improved = True
                break
            lam *= 0.5
        iterations += 1
        if not improved:
            break
        converged = bool(np.max(np.abs(res)) < tol)
    worst = float(np.max(np.abs(res), initial=0.0))
    return x, worst, converged and worst < tol, iterations


def extremize_action(
    g: WeightedGraph,
    fixed: Setting | None,
    objective: str = "max",
    restarts: int = 20,
    seed: int = 42,
) -> SearchResult:
    """Nelder-Mead over the log-lengths of the free edges, restarted from
    random interior points of the box [1e-6, 1e3].

    The action is invariant under a common rescaling of all lengths, so when
    every edge is free the best setting is rescaled to the geometric mean
    closest to 1 that keeps every length inside the box.
    """
    from scipy import optimize
    if objective not in ("max", "min"):
        raise BadParams(f"objective must be 'max' or 'min', got {objective}")
    fixed_map = dict(fixed.lengths) if fixed is not None else {}
    free = [key for key in g.edges if key not in fixed_map]
    if not free:
        raise NoFreeEdges("no free edges to vary")
    sign = -1.0 if objective == "max" else 1.0

    def value(x):
        if np.any(x < LOG_LENGTH_LO) or np.any(x > LOG_LENGTH_HI):
            return 1e9
        lengths = dict(fixed_map)
        for k, key in enumerate(free):
            lengths[key] = math.exp(float(x[k]))
        g2 = g.with_lengths(lengths)
        geo = GeodesicTable(g2)
        return sign * action_plain(g2, geo).total

    rng = np.random.default_rng(seed)
    best = None
    best_x = None
    evals = 0
    for _ in range(max(1, restarts)):
        x0 = rng.uniform(math.log(0.2), math.log(5.0), size=len(free))
        out = optimize.minimize(
            value,
            x0,
            method="Nelder-Mead",
            options={"xatol": 1e-8, "fatol": 1e-12, "maxfev": 10_000},
        )
        evals += out.nfev
        if best is None or out.fun < best:
            best = out.fun
            best_x = out.x
    at_edge = bool(
        np.any(best_x < LOG_LENGTH_LO + 1e-6) or np.any(best_x > LOG_LENGTH_HI - 1e-6)
    )
    # gauge-fix: common rescaling leaves the action unchanged, and the shift
    # nearest to geometric mean 1 that keeps every length in the box is taken
    if not fixed_map:
        best_x = best_x + np.clip(-np.mean(best_x), LOG_LENGTH_LO - best_x.min(), LOG_LENGTH_HI - best_x.max())
    lengths = dict(fixed_map)
    for k, key in enumerate(free):
        lengths[key] = math.exp(float(best_x[k]))
    setting = Setting(lengths)
    g2 = g.with_lengths(lengths)
    achieved = action_plain(g2, GeodesicTable(g2)).total
    return SearchResult(
        setting=setting,
        objective=achieved,
        iterations=evals,
        converged=bool(best is not None and best < 1e8),
        restarts_used=max(1, restarts),
        at_box_boundary=at_edge,
    )
