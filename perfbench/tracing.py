"""Per-layer counts and times, taken by wrapping graphgrav's functions.

A ``Tracer`` used as a context manager replaces each traced function by a
wrapper wherever graphgrav's modules hold a reference to it, so calls from
one module into another are seen as well, and restores the originals on
exit.  Each wrapper counts its calls and records inclusive time and self
time (inclusive time less the time of traced calls made inside it).  A name
that a later version of graphgrav no longer has is skipped; its metrics then
read 0.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute) pairs; "Class.method" patches the method on the class.
TRACED = (
    ("graph", "GeodesicTable.row"),
    ("graph", "GeodesicTable._dijkstra"),
    ("graph", "GeodesicTable.__init__"),
    ("graph", "WeightedGraph.with_lengths"),
    ("transport", "wasserstein"),
    ("transport", "neighbor_distribution"),
    ("curvature", "kappa"),
    ("curvature", "kappa_t"),
    ("curvature", "kappa_tree_closed"),
    ("action", "action_ghy"),
    ("action", "action_region_plain"),
    ("action", "tree_action_hex"),
    ("dynamics", "teom_residual"),
    ("dynamics", "_residual_raw"),
    ("search", "_fd_jacobian"),
    ("search", "extremize_action"),
)
LINEAR_SOLVERS = ("solve", "lstsq")


class Tracer:
    def __init__(self, gg):
        self.gg = gg
        self.calls = {}
        self.total_s = {}
        self.self_s = {}
        self.cells = 0
        self._child_s = []  # one accumulator per open traced call
        self._undo = []

    def _wrap(self, name, fn, before=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            self._child_s.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self._child_s.pop()
                if self._child_s:
                    self._child_s[-1] += dt
                self.calls[name] = self.calls.get(name, 0) + 1
                self.total_s[name] = self.total_s.get(name, 0.0) + dt
                self.self_s[name] = self.self_s.get(name, 0.0) + dt - child

        return wrapper

    def _on_solve(self, args):
        self.cells += len(args[2].support) * len(args[3].support)

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def __enter__(self):
        hooks = {"wasserstein": self._on_solve}
        modules = [m for k, m in sys.modules.items() if k == "graphgrav" or k.startswith("graphgrav.")]
        for mod_name, attr in TRACED:
            owner = getattr(self.gg, mod_name)
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            fn = getattr(owner, path[-1], None) if owner is not None else None
            if fn is None:
                continue
            wrapper = self._wrap(attr, fn, hooks.get(attr))
            if len(path) > 1:
                self._patch(owner, path[-1], wrapper)
                continue
            for mod in modules:
                if mod.__dict__.get(path[-1]) is fn:
                    self._patch(mod, path[-1], wrapper)
        import numpy.linalg

        for attr in LINEAR_SOLVERS:
            self._patch(numpy.linalg, attr, self._wrap("linalg", getattr(numpy.linalg, attr)))
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)
        return False

    def metrics(self, ops, counts):
        """Per-operation layer metrics over ``ops`` traced operations;
        ``counts`` holds totals read from the results (iterations)."""
        ops = max(ops, 1)

        def per_op(value):
            return value / ops

        def ms(names, table):
            return per_op(1e3 * sum(table.get(n, 0.0) for n in names))

        solves = self.calls.get("wasserstein", 0)
        limits = self.calls.get("kappa", 0)
        evals = counts.get("search.nm_evals", 0)
        residuals = ("teom_residual", "_residual_raw")
        return {
            "graph.row_ms": ms(["GeodesicTable.row"], self.total_s),
            "graph.rows": per_op(self.calls.get("GeodesicTable._dijkstra", 0)),
            "graph.rebuild_ms": ms(["WeightedGraph.with_lengths", "GeodesicTable.__init__"], self.total_s),
            "transport.solves": per_op(solves),
            "transport.solve_ms": ms(["wasserstein"], self.self_s),
            "transport.cells_mean": self.cells / solves if solves else 0.0,
            "transport.distribution_ms": ms(["neighbor_distribution"], self.self_s),
            "curvature.limits": per_op(limits),
            "curvature.solves_per_limit": self.calls.get("kappa_t", 0) / limits if limits else 0.0,
            "curvature.closed_form_ms": ms(["kappa_tree_closed"], self.self_s),
            "action.closed_form_ms": ms(
                ["action_ghy", "action_region_plain", "tree_action_hex"], self.self_s
            ),
            "dynamics.residual_evals": per_op(sum(self.calls.get(n, 0) for n in residuals)),
            "dynamics.residual_ms": ms(residuals, self.total_s),
            "search.newton_iters": per_op(counts.get("search.newton_iters", 0)),
            "search.jacobian_ms": ms(["_fd_jacobian"], self.total_s),
            "search.linear_solve_ms": ms(["linalg"], self.total_s),
            "search.nm_evals": per_op(evals),
            "search.eval_ms": 1e3 * self.total_s.get("extremize_action", 0.0) / evals if evals else 0.0,
        }
