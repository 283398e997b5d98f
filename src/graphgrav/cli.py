"""Command-line interface.

Subcommands: gen, curvature, action, verify-eom, solve-eom, search, bounds,
reproduce.  All input and output is JSON; runs are deterministic for a given
--seed.  Exit codes: 0 success, 1 semantic failure (not a solution, criterion
failed), 2 input error, 3 invariant violation.  Each ``cmd_*`` returns its
document (None when it writes none) and its verdict; ``main`` alone writes the
document, to stdout or to --out, and turns the verdict into exit 0 or 1.

Every input file is read in one load stage before the command runs; only a
failure there (malformed JSON, an unreadable file, a missing key, a value of
the wrong type, a tree-only gen setting for another family) is an input
error.  An internal error later on is not caught: it ends with a traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import reproduce as repro
from .action import action_ghy, action_plain, action_region_plain, ratio_bounds, tree_action_hex
from .curvature import edge_curvatures, kappa_t
from .dynamics import Setting, verify_solution
from .errors import DuplicateEdge, GraphGravError
from .generators import (
    HexRegionSpec,
    constant_setting,
    find_perfect_matching,
    gen_complete,
    gen_cycle,
    gen_hex_region,
    gen_tree,
    half_half_setting,
    matching_setting,
    two_progression_setting,
    two_progression_x,
)
from .graph import GeodesicTable, build_graph, edge_key, extract_region
from .search import extremize_action, newton_solve_teom

EXIT_OK = 0
EXIT_SEMANTIC = 1
EXIT_PARSE = 2
EXIT_INVARIANT = 3


# The file formats, all with string vertex ids:
#   graph    {"vertices": [id], "edges": [{"u": id, "v": id, "len": float}]}
#   setting  {"lengths": [{"u": id, "v": id, "len": float}]}
#   region   {"sigma": [id]}
# Every edge list is written by `_edge_list`, in `g.edges` order; no file may name an edge twice.


def _edge_list(values, field):
    """The ``{"u", "v", field}`` rows of an edge-key -> number map, in `g.edges` (string) order."""
    return [{"u": u, "v": v, field: values[u, v]} for u, v in sorted(values)]


def _graph_to_json(g):
    return {"vertices": list(g.vertices), "edges": _edge_list(g.lengths(), "len")}


def _graph_from_json(doc):
    vertices = [str(v) for v in doc["vertices"]]
    edges = [(str(e["u"]), str(e["v"]), float(e["len"])) for e in doc["edges"]]
    return build_graph(vertices, edges)


def _setting_to_json(setting):
    return {"lengths": _edge_list(setting.lengths, "len")}


def _setting_from_json(doc):
    lengths = {}
    for e in doc["lengths"]:
        key = edge_key(str(e["u"]), str(e["v"]))
        if key in lengths:
            raise DuplicateEdge(f"duplicate edge {key!r}")
        lengths[key] = float(e["len"])
    return Setting(lengths)


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _emit(doc, out_path):
    # a non-finite number is an internal error, not output
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_inputs(args):
    """The load stage: read and parse every input file the command names,
    after refusing a tree-only ``gen --setting`` for another family.

    Returns the graph as ``g``, with the lengths of ``--setting`` applied
    where the command takes them, and each setting file (setting, candidate,
    boundary, init, fixed) under its own name.  A region is read only by the
    action variants that use one.
    """
    if getattr(args, "family", "tree") != "tree" and args.setting in ("half-half", "two-progression"):
        raise ValueError(f"--setting {args.setting} applies to trees only")
    if not hasattr(args, "graph"):
        return {}
    inp = {"g": _graph_from_json(_load_json(args.graph))}
    for name in ("setting", "candidate", "boundary", "init", "fixed"):
        path = getattr(args, name, None)
        inp[name] = _setting_from_json(_load_json(path)) if path else None
    if inp["setting"] is not None:
        inp["g"] = inp["g"].with_lengths(inp["setting"].lengths)
    if getattr(args, "variant", "plain") != "plain":
        if not args.region:
            raise ValueError("this variant needs --region")
        sigma = [str(v) for v in _load_json(args.region)["sigma"]]
        inp["region"] = extract_region(inp["g"], sigma)
    return inp


def cmd_gen(args, _inp):
    setting = None
    region = None
    if args.family == "tree":
        g = gen_tree(args.q, args.depth)
        if args.setting == "half-half":
            setting = half_half_setting(args.q, args.depth, args.ratio)
        elif args.setting == "two-progression":
            # by default the larger root, the one criterion 9 takes
            x = max(two_progression_x(args.alpha, args.y)) if args.x is None else args.x
            setting = two_progression_setting(
                args.q, args.m, args.s, args.alpha, x, args.y, args.depth
            )
    elif args.family == "complete":
        g = gen_complete(args.n)
    elif args.family == "cycle":
        g = gen_cycle(args.n)
    else:
        g, region = gen_hex_region(HexRegionSpec(args.radius))
    if setting is None:
        if args.setting == "matching":
            m = find_perfect_matching(g)
            if m is None:
                print("no perfect matching exists", file=sys.stderr)
                return None, False
            setting = matching_setting(g, m, args.eps)
        elif args.setting == "constant":
            setting = constant_setting(g, args.length)
    doc = {"graph": _graph_to_json(g)}
    if setting is not None:
        doc["setting"] = _setting_to_json(setting)
    if region is not None:
        doc["region"] = {"sigma": sorted(region.vertices)}
    return doc, True


def cmd_curvature(args, inp):
    g = inp["g"]
    geo = GeodesicTable(g)
    if args.t is not None:
        per_edge = {(u, v): kappa_t(geo, u, v, args.t) for u, v in g.edges}
        mode = {"t": args.t}
    else:
        per_edge = edge_curvatures(geo)
        mode = {"t": "limit"}
    return {**mode, "edges": _edge_list(per_edge, "kappa"), "total": sum(per_edge.values())}, True


def cmd_action(args, inp):
    g = inp["g"]
    geo = GeodesicTable(g)
    if args.variant == "ghy":
        rep = action_ghy(g, inp["region"])
    elif args.variant == "region-plain":
        rep = action_region_plain(g, inp["region"])
    elif args.variant == "tree-hex":
        rep = tree_action_hex(g, geo, inp["region"])
    else:
        rep = action_plain(g, geo)
    doc = {
        "variant": rep.variant,
        "total": rep.total,
        "bound_upper": rep.bound_upper,
        "edges": _edge_list(rep.per_edge, "kappa"),
    }
    if rep.closed_form is not None:
        doc["closed_form"] = rep.closed_form
    return doc, True


def cmd_verify_eom(args, inp):
    rep = verify_solution(inp["g"], inp["candidate"], tol=args.tol)
    doc = {
        "is_solution": rep.is_solution,
        "max_abs_residual": rep.max_abs_residual,
        "residuals": _edge_list(rep.residuals, "residual"),
    }
    return doc, rep.is_solution


def cmd_solve_eom(args, inp):
    res = newton_solve_teom(
        inp["g"], inp["boundary"], inp["init"], tol=args.tol, restarts=args.restarts, seed=args.seed
    )
    doc = {
        "converged": res.converged,
        "max_abs_residual": res.objective,
        "iterations": res.iterations,
        "restarts_used": res.restarts_used,
        "setting": _setting_to_json(res.setting),
    }
    return doc, res.converged


def cmd_search(args, inp):
    res = extremize_action(
        inp["g"], inp["fixed"], objective=args.objective, restarts=args.restarts, seed=args.seed
    )
    doc = {
        "objective": args.objective,
        "best": res.objective,
        "evaluations": res.iterations,
        "restarts_used": res.restarts_used,
        "at_box_boundary": res.at_box_boundary,
        "setting": _setting_to_json(res.setting),
    }
    if res.at_box_boundary:
        doc["note"] = "best point sits on the length box; treat as supremum evidence"
    return doc, True


def cmd_bounds(_args, inp):
    g = inp["g"]
    geo = GeodesicTable(g)
    rep = action_plain(g, geo)
    ratios = []
    ratios_ok = True
    for v in g.vertices:
        ratio, ok = ratio_bounds(geo, v)
        ratios_ok &= ok
        ratios.append({"vertex": v, "ratio": ratio, "degree": g.degree(v), "ok": ok})
    doc = {
        "action": rep.total,
        "bound_upper": rep.bound_upper,
        "bound_holds": rep.total <= rep.bound_upper + 1e-9,
        "vertex_ratios": ratios,
    }
    return doc, doc["bound_holds"] and ratios_ok


def cmd_reproduce(args, _inp):
    rows = repro.run_all()
    width = max(len(r.name) for r in rows)
    for r in rows:
        print(f"[{'PASS' if r.passed else 'FAIL'}] {r.num:2d}  {r.name:<{width}}  {r.computed}")
    print(f"{sum(r.passed for r in rows)}/{len(rows)} criteria passed")
    return ([dataclasses.asdict(r) for r in rows] if args.out else None), all(r.passed for r in rows)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="graphgrav",
        description="Ricci curvature, action, and edge-length equations of motion on weighted graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the arguments several commands share, each declared once
    graph = argparse.ArgumentParser(add_help=False)
    graph.add_argument("graph")
    graph_setting = argparse.ArgumentParser(add_help=False, parents=[graph])
    graph_setting.add_argument("--setting")

    p = sub.add_parser("gen", help="generate a graph family and setting")
    p.add_argument("family", choices=["tree", "complete", "cycle", "hex"])
    p.add_argument("--q", type=int, default=3)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--radius", type=int, default=2)
    p.add_argument(
        "--setting",
        choices=["constant", "matching", "half-half", "two-progression", "none"],
        default="constant",
    )
    p.add_argument("--length", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=1e-4)
    p.add_argument("--ratio", type=float, default=2.0)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--alpha", type=float, default=0.25)
    p.add_argument("--x", type=float, default=None)
    p.add_argument("--y", type=float, default=3.0)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("curvature", parents=[graph_setting], help="per-edge curvature (limit or fixed t)")
    p.add_argument("--t", type=float, default=None)
    p.set_defaults(func=cmd_curvature)

    p = sub.add_parser("action", parents=[graph_setting], help="action of a graph or region")
    p.add_argument(
        "--variant", choices=["plain", "ghy", "region-plain", "tree-hex"], default="plain"
    )
    p.add_argument("--region")
    p.set_defaults(func=cmd_action)

    p = sub.add_parser(
        "verify-eom", parents=[graph], help="check a setting against the tree equations of motion"
    )
    p.add_argument("candidate", metavar="setting")  # not --setting: the graph keeps its lengths
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_verify_eom)

    p = sub.add_parser(
        "solve-eom", parents=[graph], help="solve the tree equations of motion under boundary data"
    )
    p.add_argument("boundary")
    p.add_argument("--init")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--restarts", type=int, default=0,
                   help="random starts after the first (RESTARTS >= 0): up to 1 + RESTARTS run "
                   "until one converges; restarts_used is the 0-based index of the start kept")
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_solve_eom)

    p = sub.add_parser("search", parents=[graph], help="extremize the action over free edge lengths")
    p.add_argument("--objective", choices=["min", "max"], required=True)
    p.add_argument("--fixed")
    p.add_argument("--restarts", type=int, default=20,
                   help="Nelder-Mead starts (RESTARTS >= 1), where solve-eom counts starts after "
                   "the first; restarts_used is the 0-based index of the start kept")
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("bounds", parents=[graph_setting], help="action bound and vertex ratio checks")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("reproduce", help="recompute the published values and report pass/fail")
    p.set_defaults(func=cmd_reproduce)

    for p in sub.choices.values():  # last, so --help lists it after each command's own options
        p.add_argument("--out")
    return parser


def main(argv=None):
    """Run one command: its JSON document goes to stdout, or to --out instead,
    and exit 1 reports the document's verdict."""
    args = build_parser().parse_args(argv)
    try:
        try:
            inp = _load_inputs(args)
        except (KeyError, TypeError, ValueError, OSError) as exc:
            print(f"input error: {exc}", file=sys.stderr)
            return EXIT_PARSE
        doc, ok = args.func(args, inp)
    except GraphGravError as exc:
        print(f"invariant violation: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    if doc is not None:
        _emit(doc, args.out)
    return EXIT_OK if ok else EXIT_SEMANTIC
