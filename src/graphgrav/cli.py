"""Command-line interface.

Subcommands: gen, curvature, action, verify-eom, solve-eom, search, bounds,
reproduce.  All input and output is JSON; runs are deterministic for a given
--seed.  Exit codes: 0 success, 1 semantic failure (not a solution, criterion
failed), 2 input error, 3 invariant violation.

Every input file is read in one load stage before the command runs; only a
failure there (malformed JSON, an unreadable file, a missing key or a value
of the wrong type) is an input error.  An internal error later on is not
caught: it ends the run with a traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys

from . import reproduce as repro
from .action import action_ghy, action_plain, action_region_plain, ratio_bounds, tree_action_hex
from .curvature import edge_curvatures, kappa_t
from .dynamics import Setting, interior_edges, setting_from_json, setting_to_json, verify_solution
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
    matching_setting,
    two_progression_setting,
)
from .graph import (
    GeodesicTable,
    edge_key,
    graph_from_json,
    graph_to_json,
    load_json,
    region_from_json,
    region_to_json,
)
from .search import extremize_action, newton_solve_teom

EXIT_OK = 0
EXIT_SEMANTIC = 1
EXIT_PARSE = 2
EXIT_INVARIANT = 3


def _emit(doc, out_path):
    text = json.dumps(doc, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_inputs(args):
    """The load stage: read and parse every input file the command names.

    Returns the graph as ``g``, with the lengths of ``--setting`` applied
    where the command takes them, and each setting file (setting, boundary,
    init, fixed) under its own name.  A region is read only by the action
    variants that use one.
    """
    if args.command in ("gen", "reproduce"):
        return {}
    inp = {"g": graph_from_json(load_json(args.graph))}
    for name in ("setting", "boundary", "init", "fixed"):
        path = getattr(args, name, None)
        inp[name] = setting_from_json(load_json(path)) if path else None
    if args.command != "verify-eom" and inp["setting"] is not None:
        inp["g"] = inp["g"].with_lengths(inp["setting"])
    if getattr(args, "variant", "plain") != "plain":
        if not args.region:
            raise ValueError("this variant needs --region")
        inp["region"] = region_from_json(load_json(args.region), inp["g"])
    return inp


def _edge_rows(per_edge):
    return [
        {"u": str(u), "v": str(v), "kappa": val}
        for (u, v), val in sorted(per_edge.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1])))
    ]


def cmd_gen(args, inp):
    setting = None
    region = None
    if args.setting in ("half-half", "two-progression") and args.family != "tree":
        print(f"--setting {args.setting} applies to trees only", file=sys.stderr)
        return EXIT_PARSE
    if args.family == "tree":
        g = gen_tree(args.q, args.depth)
        if args.setting == "half-half":
            setting = half_half_setting(args.q, args.depth, args.ratio)
        elif args.setting == "two-progression":
            setting = two_progression_setting(
                args.q, args.m, args.s, args.alpha, args.x, args.y, args.depth
            )
    elif args.family == "complete":
        g = gen_complete(args.n)
    elif args.family == "cycle":
        g = gen_cycle(args.n)
    else:
        g, region = gen_hex_region(HexRegionSpec(args.radius, args.margin))
    if setting is None:
        if args.setting == "matching":
            m = find_perfect_matching(g)
            if m is None:
                print("no perfect matching exists", file=sys.stderr)
                return EXIT_SEMANTIC
            setting = matching_setting(g, m, args.eps)
        elif args.setting == "constant":
            setting = constant_setting(g, args.length)
    doc = {"graph": graph_to_json(g)}
    if setting is not None:
        doc["setting"] = setting_to_json(setting)
    if region is not None:
        doc["region"] = region_to_json(region)
    _emit(doc, args.out)
    return EXIT_OK


def cmd_curvature(args, inp):
    g = inp["g"]
    geo = GeodesicTable(g)
    if args.t is not None:
        per_edge = {edge_key(u, v): kappa_t(g, geo, u, v, args.t) for u, v in g.edges}
        mode = {"t": args.t}
    else:
        per_edge = edge_curvatures(g, geo)
        mode = {"t": "limit"}
    doc = {**mode, "edges": _edge_rows(per_edge), "total": sum(per_edge.values())}
    _emit(doc, args.out)
    return EXIT_OK


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
        "edges": _edge_rows(rep.per_edge),
    }
    if rep.closed_form is not None:
        doc["closed_form"] = rep.closed_form
    _emit(doc, args.out)
    return EXIT_OK


def cmd_verify_eom(args, inp):
    rep = verify_solution(inp["g"], inp["setting"], tol=args.tol)
    doc = {
        "is_solution": rep.is_solution,
        "max_abs_residual": rep.max_abs_residual,
        "residuals": [
            {"u": str(u), "v": str(v), "residual": r}
            for (u, v), r in sorted(rep.residuals.items())
        ],
    }
    _emit(doc, args.out)
    return EXIT_OK if rep.is_solution else EXIT_SEMANTIC


def cmd_solve_eom(args, inp):
    g, boundary, init = inp["g"], inp["boundary"], inp["init"]
    if init is None:
        free = [edge_key(u, v) for u, v in interior_edges(g) if edge_key(u, v) not in boundary]
        rng = random.Random(args.seed)
        init = Setting(
            {key: math.exp(rng.uniform(math.log(0.5), math.log(2.0))) for key in free}
        )
    res = newton_solve_teom(
        g, boundary, init, tol=args.tol, restarts=args.restarts, seed=args.seed
    )
    doc = {
        "converged": res.converged,
        "max_abs_residual": res.objective,
        "iterations": res.iterations,
        "restarts_used": res.restarts_used,
        "setting": setting_to_json(res.setting),
    }
    _emit(doc, args.out)
    return EXIT_OK if res.converged else EXIT_SEMANTIC


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
        "setting": setting_to_json(res.setting),
    }
    if res.at_box_boundary:
        doc["note"] = "best point sits on the length box; treat as supremum evidence"
    _emit(doc, args.out)
    return EXIT_OK


def cmd_bounds(args, inp):
    g = inp["g"]
    geo = GeodesicTable(g)
    rep = action_plain(g, geo)
    ratios = []
    ratios_ok = True
    for v in g.vertices:
        ratio, ok = ratio_bounds(g, geo, v)
        ratios_ok &= ok
        ratios.append({"vertex": str(v), "ratio": ratio, "degree": g.degree(v), "ok": ok})
    doc = {
        "action": rep.total,
        "bound_upper": rep.bound_upper,
        "bound_holds": rep.total <= rep.bound_upper + 1e-9,
        "vertex_ratios": ratios,
    }
    _emit(doc, args.out)
    return EXIT_OK if doc["bound_holds"] and ratios_ok else EXIT_SEMANTIC


def cmd_reproduce(args, inp):
    rows = repro.run_all()
    width = max(len(r.name) for r in rows)
    all_ok = True
    for r in rows:
        status = "PASS" if r.passed else "FAIL"
        all_ok &= r.passed
        print(f"[{status}] {r.num:2d}  {r.name:<{width}}  {r.computed}")
    print(f"{sum(r.passed for r in rows)}/{len(rows)} criteria passed")
    if args.out:
        doc = [
            {
                "num": r.num,
                "name": r.name,
                "passed": r.passed,
                "computed": r.computed,
                "expected": r.expected,
                "note": r.note,
            }
            for r in rows
        ]
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return EXIT_OK if all_ok else EXIT_SEMANTIC


def build_parser():
    parser = argparse.ArgumentParser(
        prog="graphgrav",
        description="Ricci curvature, action, and edge-length equations of motion on weighted graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph family and setting")
    p.add_argument("family", choices=["tree", "complete", "cycle", "hex"])
    p.add_argument("--q", type=int, default=3)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--radius", type=int, default=2)
    p.add_argument("--margin", type=int, default=2)
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
    p.add_argument("--x", type=float, default=0.2546185690178954)
    p.add_argument("--y", type=float, default=3.0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("curvature", help="per-edge curvature (limit or fixed t)")
    p.add_argument("graph")
    p.add_argument("--setting")
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_curvature)

    p = sub.add_parser("action", help="action of a graph or region")
    p.add_argument("graph")
    p.add_argument("--setting")
    p.add_argument(
        "--variant", choices=["plain", "ghy", "region-plain", "tree-hex"], default="plain"
    )
    p.add_argument("--region")
    p.add_argument("--out")
    p.set_defaults(func=cmd_action)

    p = sub.add_parser("verify-eom", help="check a setting against the tree equations of motion")
    p.add_argument("graph")
    p.add_argument("setting")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify_eom)

    p = sub.add_parser("solve-eom", help="solve the tree equations of motion under boundary data")
    p.add_argument("graph")
    p.add_argument("boundary")
    p.add_argument("--init")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--restarts", type=int, default=0)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out")
    p.set_defaults(func=cmd_solve_eom)

    p = sub.add_parser("search", help="extremize the action over free edge lengths")
    p.add_argument("graph")
    p.add_argument("--objective", choices=["min", "max"], required=True)
    p.add_argument("--fixed")
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("bounds", help="action bound and vertex ratio checks")
    p.add_argument("graph")
    p.add_argument("--setting")
    p.add_argument("--out")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("reproduce", help="recompute the published values and report pass/fail")
    p.add_argument("--out")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        try:
            inp = _load_inputs(args)
        except (KeyError, TypeError, ValueError, OSError) as exc:
            print(f"input error: {exc}", file=sys.stderr)
            return EXIT_PARSE
        return args.func(args, inp)
    except GraphGravError as exc:
        print(f"invariant violation: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
