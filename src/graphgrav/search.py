"""Damped Newton with the exact Jacobian for the tree equations of motion, and
Nelder-Mead extremal-action search, whose scipy.optimize loads only when it runs.
numpy too loads on a search's first call, not with this module.

The tree system itself, residual and Jacobian, lives in ``dynamics``; Newton
here only drives it.  Both searches project onto the length box [1e-6, 1e3].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .action import action_plain
from .dynamics import Setting, _require_tol, _require_tree, _tree_system, _unit_scaled, interior_edges
from .errors import BadParams, SingularJacobian
from .graph import GeodesicTable, WeightedGraph, _require_edges

LOG_LENGTH_LO = math.log(1e-6)
LOG_LENGTH_HI = math.log(1e3)
MAX_DAMPINGS = 30
MAX_NEWTON_ITER = 200
MAX_LOG_STEP = 1.0  # trust region in log-length space


@dataclass(frozen=True)
class SearchResult:
    """``objective``, ``iterations``: Newton's largest residual and iterations in
    the start kept, or the action and evaluations over all Nelder-Mead starts.
    ``at_box_boundary``: no move of the search takes the reported point off the box."""

    setting: Setting
    objective: float
    iterations: int
    converged: bool
    restarts_used: int
    at_box_boundary: bool


def newton_solve_teom(
    g: WeightedGraph,
    boundary: Setting,
    init: Setting | None = None,
    tol: float = 1e-12,
    restarts: int = 0,
    seed: int = 42,
) -> SearchResult:
    """Damped Newton on the log-lengths of the non-fixed interior edges.

    ``boundary`` and ``init`` name edges of g only.  ``boundary`` must fix
    at least every non-interior edge; fixing interior edges too leaves an
    overdetermined system, solved in the least-squares sense.  Each of up to
    1 + ``restarts`` starts stops as soon as its lengths pass ``verify_solution``
    at tol (finite, > 0); the first that passes is kept, else the first with
    the least residual: ``restarts_used`` is its 0-based index and the
    objective its final maximum absolute residual.  Start 0 is ``init`` when
    given; every other start puts each free log-length at the mean log of
    the boundary lengths plus U[-0.3, 0.3], drawn from ``seed``.

    The run reads the boundary and ``init`` scaled exactly by the power of
    two that brings the leaf edges' geometric mean nearest 1, the scale at
    which ``verify_solution`` reads tol, so a run stops on that same test, and
    scales its result back; at that scale free lengths lie in [1e-6, 1e3].
    The truncated equations have spurious residual valleys in which a
    cluster of sibling edges shrinks to zero together; their residuals fall
    below any usable tolerance only outside this box, so the box keeps a
    converged run meaningful and flags (``at_box_boundary``) a run kept on it.
    """
    _require_tol(tol)
    if restarts < 0:
        raise BadParams(f"restarts must be >= 0, got {restarts}")
    if seed < 0:
        raise BadParams(f"seed must be >= 0, got {seed}")
    _require_tree(g)
    interior = interior_edges(g)
    interior_set = set(interior)
    _require_edges(g, [*boundary.lengths, *(init.lengths if init is not None else ())])
    for key in g.lengths():
        if key not in interior_set and key not in boundary:
            raise BadParams(f"boundary must fix non-interior edge {key!r}")
    free = [key for key in interior if key not in boundary]
    for key in free if init is not None else ():
        if key not in init:
            raise BadParams(f"init must give a length for free edge {key!r}")
    import numpy as np
    fixed, k = _unit_scaled(boundary.lengths, interior_set)
    anchor = float(np.sum([math.log(v) for v in fixed.values()])) / len(fixed) if fixed else 0.0
    residual, jacobian = _tree_system(g, interior, free, fixed)
    rng = best = None
    for start in range(restarts + 1):
        if start == 0 and init is not None:
            x0 = np.array([math.log(math.ldexp(init[key], k)) for key in free], dtype=float)
        else:
            rng = rng or np.random.default_rng(seed)
            x0 = anchor + rng.uniform(-0.3, 0.3, size=len(free))
        x, worst, iterations, converged = _newton_run(residual, jacobian, x0, tol)
        if best is None or converged or worst < best[1]:
            best = (x, worst, iterations, converged, start)
        if converged:
            break
    x, worst, iterations, converged, start = best
    # in g.edges order, as the command line writes them; ldexp undoes the scaling exactly
    found = dict(zip(free, (math.ldexp(ell, -k) for ell in np.exp(x).tolist())))
    setting = Setting({**g.lengths(), **boundary.lengths, **found})
    return SearchResult(setting, math.ldexp(worst, -k), iterations, converged, start, _on_box(x, False))


def _to_box(x):
    return x.clip(LOG_LENGTH_LO, LOG_LENGTH_HI)


def _on_box(x, free_scale):
    """Whether no move takes the log-lengths x off the box, to 1e-6: with a free
    common scale a length sits at each end, with fixed data one end suffices."""
    low = x.min(initial=LOG_LENGTH_HI) < LOG_LENGTH_LO + 1e-6
    high = x.max(initial=LOG_LENGTH_LO) > LOG_LENGTH_HI - 1e-6
    return bool(low and high if free_scale else low or high)


def _newton_run(residual, jacobian, x, tol):
    """One damped Newton descent; returns (x, max_abs_residual, iterations, converged),
    and stops once converged: max_abs_residual < tol.  Each damped trial is
    projected onto the box, so every iterate stays in it."""
    import numpy as np
    if not np.array_equal(_to_box(x), x):
        raise BadParams("initial free lengths must lie within [1e-6, 1e3]")
    res = residual(x)
    for iterations in range(MAX_NEWTON_ITER + 1):
        worst = float(np.max(np.abs(res), initial=0.0))
        converged = worst < tol  # a NaN residual does not pass
        if converged or iterations == MAX_NEWTON_ITER or not x.size:
            break
        jac = jacobian(x)
        try:  # numpy refuses a singular or a non-square system alike
            step = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError as exc:
            try:
                step, *_ = np.linalg.lstsq(jac, -res, rcond=None)
            except np.linalg.LinAlgError:
                raise SingularJacobian("cannot solve the Newton system") from exc
        biggest = float(np.max(np.abs(step), initial=0.0))
        if biggest > MAX_LOG_STEP:
            step = step * (MAX_LOG_STEP / biggest)
        norm0 = float(np.linalg.norm(res))
        for k in range(MAX_DAMPINGS):
            trial = _to_box(x + 0.5**k * step)
            trial_res = residual(trial)
            if float(np.linalg.norm(trial_res)) < norm0:
                x, res = trial, trial_res
                break
        else:  # no damped trial descends: the step counts, and the run ends at x
            return x, worst, iterations + 1, converged
    return x, worst, iterations, converged


def extremize_action(
    g: WeightedGraph,
    fixed: Setting | None,
    objective: str = "max",
    restarts: int = 20,
    seed: int = 42,
) -> SearchResult:
    """Nelder-Mead over the log-lengths of the free edges, restarted from
    random interior points of the box [1e-6, 1e3].  ``restarts`` >= 1 starts
    run and the first with the least value is kept: ``restarts_used`` is its
    0-based index, ``converged`` False if its run spent the evaluation cap.

    The action is invariant under a common rescaling of all lengths, so the
    box and the starts are read at the fixed lengths' power of two, as in
    ``newton_solve_teom``.  Each x is evaluated, reported and flagged at its
    projection onto the box, shifted first, when every edge is free, to the
    geometric mean nearest 1 in the box, which then bounds only the ratio, at 1e9.
    """
    if objective not in ("max", "min"):
        raise BadParams(f"objective must be 'max' or 'min', got {objective}")
    if restarts < 1:
        raise BadParams(f"restarts must be >= 1, got {restarts}")
    if seed < 0:
        raise BadParams(f"seed must be >= 0, got {seed}")
    fixed_map, k = _unit_scaled(fixed.lengths if fixed is not None else {})
    _require_edges(g, fixed_map)
    import numpy as np
    from scipy import optimize
    free = [key for key in g.edges if key not in fixed_map]
    if not free:
        raise BadParams("no free edges to vary")
    sign = -1.0 if objective == "max" else 1.0

    def point(x):  # the point evaluated, reported and flagged for x
        if not fixed_map:  # shift to the geometric mean nearest 1 that keeps x in the box
            t = x.tolist()
            x = x + min(max(-sum(t) / len(t), LOG_LENGTH_LO - min(t)), LOG_LENGTH_HI - max(t))
        return _to_box(x)

    def lengths_at(x):
        return {**fixed_map, **dict(zip(free, map(math.exp, x.tolist())))}

    def value(x):
        g2 = g.with_lengths(lengths_at(point(x)))
        return sign * action_plain(g2, GeodesicTable(g2)).total

    rng = np.random.default_rng(seed)
    runs = []
    for _ in range(restarts):
        x0 = rng.uniform(math.log(0.2), math.log(5.0), size=len(free))
        options = {"xatol": 1e-8, "fatol": 1e-12, "maxfev": 10_000}
        runs.append(optimize.minimize(value, x0, method="Nelder-Mead", options=options))
    start = min(range(restarts), key=lambda k: runs[k].fun)
    best_x = point(runs[start].x)
    return SearchResult(
        setting=Setting({key: math.ldexp(ell, -k) for key, ell in lengths_at(best_x).items()}),
        objective=float(sign * runs[start].fun),
        iterations=sum(out.nfev for out in runs),
        converged=bool(runs[start].success),
        restarts_used=start,
        at_box_boundary=_on_box(best_x, free_scale=not fixed_map),
    )
