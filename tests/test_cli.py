import argparse
import json
import math
import os
import random
import subprocess
import sys

import pytest

import graphgrav
from graphgrav import (
    HexRegionSpec,
    Setting,
    action_ghy,
    action_region_plain,
    build_graph,
    constant_setting,
    edge_key,
    extract_region,
    gen_complete,
    gen_cycle,
    gen_hex_region,
    gen_tree,
    half_half_setting,
    interior_edges,
)
from graphgrav.cli import _graph_from_json, _graph_to_json, _setting_to_json, build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_triangle(tmp_path):
    graph = {
        "vertices": ["a", "b", "c"],
        "edges": [
            {"u": "a", "v": "b", "len": 1.0},
            {"u": "b", "v": "c", "len": 1.0},
            {"u": "a", "v": "c", "len": 1.0},
        ],
    }
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(graph))
    return str(path)


def write_path3(tmp_path):
    graph = {
        "vertices": ["a", "b", "c"],
        "edges": [
            {"u": "a", "v": "b", "len": 1.0},
            {"u": "b", "v": "c", "len": 1.0},
        ],
    }
    path = tmp_path / "path3.json"
    path.write_text(json.dumps(graph))
    return str(path)


def write_gen_doc(tmp_path, doc):
    """Split the output of ``gen`` into a graph file and a setting file."""
    graph_file = tmp_path / "g.json"
    setting_file = tmp_path / "s.json"
    graph_file.write_text(json.dumps(doc["graph"]))
    setting_file.write_text(json.dumps(doc["setting"]))
    return str(graph_file), str(setting_file)


class TestCurvatureCommand:
    def test_triangle_limit(self, tmp_path, capsys):
        code, out = run(capsys, "curvature", write_triangle(tmp_path))
        assert code == 0
        doc = json.loads(out)
        assert all(e["kappa"] == pytest.approx(1.5) for e in doc["edges"])
        assert doc["total"] == pytest.approx(4.5)

    def test_path_edges(self, tmp_path, capsys):
        code, out = run(capsys, "curvature", write_path3(tmp_path))
        doc = json.loads(out)
        assert code == 0
        assert [e["kappa"] for e in doc["edges"]] == pytest.approx([1.0, 1.0])

    def test_fixed_t(self, tmp_path, capsys):
        code, out = run(capsys, "curvature", write_path3(tmp_path), "--t", "0.3")
        doc = json.loads(out)
        assert doc["t"] == 0.3
        assert [e["kappa"] for e in doc["edges"]] == pytest.approx([0.3, 0.3])

    def test_fixed_t_far_below_the_edge_scale(self, tmp_path, capsys):
        path = tmp_path / "k4.json"
        path.write_text(json.dumps(_graph_to_json(gen_complete(4))))
        code, out = run(capsys, "curvature", str(path), "--t", "1e-16")
        assert code == 0
        kappas = [e["kappa"] for e in json.loads(out)["edges"]]
        assert kappas == pytest.approx([4e-16 / 3] * 6, rel=1e-10, abs=0)

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _ = run(capsys, "curvature", str(bad))
        assert code == 2

    def test_missing_file(self, capsys):
        code, _ = run(capsys, "curvature", "/nonexistent/graph.json")
        assert code == 2


class TestGenAndVerify:
    def test_tree_round_trip(self, tmp_path, capsys):
        out_path = tmp_path / "tree.json"
        code, _ = run(
            capsys, "gen", "tree", "--q", "2", "--depth", "2", "--out", str(out_path)
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        code, out = run(capsys, "verify-eom", *write_gen_doc(tmp_path, doc))
        assert code == 0
        assert json.loads(out)["is_solution"] is True

    def test_perturbed_constant_fails(self, tmp_path, capsys):
        out_path = tmp_path / "tree.json"
        run(capsys, "gen", "tree", "--q", "2", "--depth", "2", "--out", str(out_path))
        doc = json.loads(out_path.read_text())
        doc["setting"]["lengths"][0]["len"] = 1.3
        code, out = run(capsys, "verify-eom", *write_gen_doc(tmp_path, doc))
        assert code == 1
        assert json.loads(out)["is_solution"] is False

    def test_non_tree_invariant_error(self, tmp_path, capsys):
        graph_file = write_triangle(tmp_path)
        setting = {
            "lengths": [
                {"u": "a", "v": "b", "len": 1.0},
                {"u": "b", "v": "c", "len": 1.0},
                {"u": "a", "v": "c", "len": 1.0},
            ]
        }
        setting_file = tmp_path / "s.json"
        setting_file.write_text(json.dumps(setting))
        code, _ = run(capsys, "verify-eom", graph_file, str(setting_file))
        assert code == 3

    @pytest.mark.parametrize(
        "flags",
        [
            ["--q", "2", "--length", "1e200"],
            ["--q", "3", "--setting", "two-progression"],
            ["--q", "3", "--setting", "two-progression", "--alpha", "0.3"],
            ["--q", "3", "--setting", "two-progression", "--y", "2.5"],
        ],
        ids=["constant-1e200", "two-progression", "alpha-0.3", "y-2.5"],
    )
    def test_generated_setting_is_a_solution(self, tmp_path, capsys, flags):
        code, out = run(capsys, "gen", "tree", "--depth", "2", *flags)
        assert code == 0
        code, out = run(capsys, "verify-eom", *write_gen_doc(tmp_path, json.loads(out)))
        assert code == 0
        assert json.loads(out)["is_solution"] is True

    def test_hex_emits_region(self, tmp_path, capsys):
        code, out = run(capsys, "gen", "hex", "--radius", "1")
        doc = json.loads(out)
        assert code == 0
        assert "region" in doc and len(doc["region"]["sigma"]) == 12

    def test_half_half_setting(self, capsys):
        code, out = run(
            capsys, "gen", "tree", "--q", "3", "--depth", "2",
            "--setting", "half-half", "--ratio", "2.0",
        )
        doc = json.loads(out)
        assert code == 0
        lengths = {row["len"] for row in doc["setting"]["lengths"]}
        assert len(lengths) == 4  # one value per level transition

    def test_complete_matching_setting(self, capsys):
        code, out = run(capsys, "gen", "complete", "--n", "4", "--setting", "matching", "--eps", "0.01")
        assert code == 0
        rows = json.loads(out)["setting"]["lengths"]
        assert sorted(row["len"] for row in rows) == [0.01, 0.01, 1.0, 1.0, 1.0, 1.0]
        short = [(row["u"], row["v"]) for row in rows if row["len"] == 0.01]
        assert len({v for edge in short for v in edge}) == 4  # disjoint edges

    def test_odd_cycle_has_no_matching(self, capsys):
        assert main(["gen", "cycle", "--n", "5", "--setting", "matching"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "no perfect matching" in captured.err

    def test_half_half_needs_a_tree(self, capsys):
        # refused in the load stage, like every other exit 2
        for setting in ("half-half", "two-progression"):
            assert main(["gen", "complete", "--setting", setting]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"input error: --setting {setting} applies to trees only\n"


class TestActionCommand:
    def test_plain(self, tmp_path, capsys):
        code, out = run(capsys, "action", write_triangle(tmp_path))
        doc = json.loads(out)
        assert code == 0
        assert doc["total"] == pytest.approx(4.5)
        assert doc["bound_upper"] == 6.0

    def test_ghy_needs_region(self, tmp_path, capsys):
        code, _ = run(capsys, "action", write_path3(tmp_path), "--variant", "ghy")
        assert code == 2

    def test_tree_hex_on_generated_region(self, tmp_path, capsys):
        _, out = run(capsys, "gen", "hex", "--radius", "1")
        doc = json.loads(out)
        (tmp_path / "g.json").write_text(json.dumps(doc["graph"]))
        (tmp_path / "r.json").write_text(json.dumps(doc["region"]))
        code, out = run(
            capsys, "action", str(tmp_path / "g.json"),
            "--variant", "tree-hex", "--region", str(tmp_path / "r.json"),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["closed_form"] == pytest.approx(doc["total"], abs=1e-9)

    @pytest.mark.parametrize("variant, action", [("ghy", action_ghy), ("region-plain", action_region_plain)])
    def test_region_variants_on_generated_tree(self, tmp_path, capsys, variant, action):
        _, out = run(capsys, "gen", "tree", "--q", "2", "--depth", "3")
        graph = json.loads(out)["graph"]
        sigma = [str(v) for v in range(10)]  # breadth-first ids: depth <= 2
        (tmp_path / "g.json").write_text(json.dumps(graph))
        (tmp_path / "r.json").write_text(json.dumps({"sigma": sigma}))
        code, out = run(
            capsys, "action", str(tmp_path / "g.json"),
            "--variant", variant, "--region", str(tmp_path / "r.json"),
        )
        assert code == 0
        g = gen_tree(2, 3)
        assert json.loads(out)["total"] == action(g, extract_region(g, sigma)).total


class TestSolveAndBounds:
    def test_solve_constant(self, tmp_path, capsys):
        run_code, _ = run(
            capsys, "gen", "tree", "--q", "2", "--depth", "2",
            "--out", str(tmp_path / "t.json"),
        )
        doc = json.loads((tmp_path / "t.json").read_text())
        graph_file = tmp_path / "g.json"
        graph_file.write_text(json.dumps(doc["graph"]))
        # boundary = leaf-touching edges of the depth-2 tree
        import graphgrav as gg

        g = _graph_from_json(doc["graph"])
        interior = {gg.edge_key(u, v) for u, v in gg.interior_edges(g)}
        boundary = {
            "lengths": [
                {"u": u, "v": v, "len": 1.0}
                for (u, v) in g.edges
                if gg.edge_key(u, v) not in interior
            ]
        }
        boundary_file = tmp_path / "b.json"
        boundary_file.write_text(json.dumps(boundary))
        code, out = run(
            capsys, "solve-eom", str(graph_file), str(boundary_file),
            "--restarts", "4", "--seed", "7",
        )
        assert code == 0
        assert json.loads(out)["converged"] is True

    @pytest.mark.parametrize("scale", [1e-4, 1e-2, 1.0, 100.0])
    def test_solve_without_init_verifies(self, tmp_path, capsys, scale):
        # without --init the start is drawn around the boundary's scale, and
        # --tol is read at that scale as verify-eom reads it
        g = gen_tree(2, 4)
        interior = interior_edges(g)
        boundary = {
            "lengths": [{"u": u, "v": v, "len": scale} for u, v in g.edges if (u, v) not in interior]
        }
        graph_file, boundary_file = tmp_path / "g.json", tmp_path / "b.json"
        graph_file.write_text(json.dumps(_graph_to_json(g)))
        boundary_file.write_text(json.dumps(boundary))
        setting_file = tmp_path / "s.json"
        for seed in range(10):
            code, out = run(
                capsys, "solve-eom", str(graph_file), str(boundary_file),
                "--restarts", "0", "--seed", str(seed), "--tol", "1e-12",
            )
            assert code == 0
            setting_file.write_text(json.dumps(json.loads(out)["setting"]))
            code, _ = run(capsys, "verify-eom", str(graph_file), str(setting_file), "--tol", "1e-12")
            assert code == 0

    def test_bounds(self, tmp_path, capsys):
        code, out = run(capsys, "bounds", write_triangle(tmp_path))
        doc = json.loads(out)
        assert code == 0
        assert doc["bound_holds"] is True


class TestSearchCommand:
    @pytest.mark.parametrize("objective, on_box", [("max", True), ("min", False)])
    def test_box_note_follows_the_flag(self, tmp_path, capsys, objective, on_box):
        # the square's maximum is a supremum at the length box, its minimum is not
        (tmp_path / "c4.json").write_text(json.dumps(_graph_to_json(gen_cycle(4))))
        code, out = run(
            capsys, "search", str(tmp_path / "c4.json"),
            "--objective", objective, "--restarts", "1", "--seed", "9",
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["at_box_boundary"] is on_box
        assert doc.get("note") == ("best point sits on the length box; treat as supremum evidence" if on_box else None)


def test_output_is_deterministic(tmp_path, capsys):
    graph = write_triangle(tmp_path)
    _, first = run(capsys, "curvature", graph)
    _, second = run(capsys, "curvature", graph)
    assert first == second


def _hex_file(tmp_path):
    g, _ = gen_hex_region(HexRegionSpec(3))
    rng = random.Random(3)
    g = g.with_lengths({key: math.exp(rng.uniform(-1.0, 1.0)) for key in g.edges})
    path = tmp_path / "hex.json"
    path.write_text(json.dumps(_graph_to_json(g)))
    return [str(path)]


def _tree_boundary_files(tmp_path):
    g = gen_tree(2, 3)
    interior = {edge_key(u, v) for u, v in interior_edges(g)}
    boundary = {
        "lengths": [{"u": u, "v": v, "len": 1.0} for u, v in g.edges if edge_key(u, v) not in interior]
    }
    (tmp_path / "tree.json").write_text(json.dumps(_graph_to_json(g)))
    (tmp_path / "boundary.json").write_text(json.dumps(boundary))
    return [str(tmp_path / "tree.json"), str(tmp_path / "boundary.json"), "--restarts", "2"]


def _half_half_files(tmp_path):
    setting = half_half_setting(3, 3, 2.0)
    (tmp_path / "tree.json").write_text(json.dumps(_graph_to_json(gen_tree(3, 3))))
    (tmp_path / "setting.json").write_text(json.dumps(_setting_to_json(setting)))
    return [str(tmp_path / "tree.json"), str(tmp_path / "setting.json")]


def _c4_file(tmp_path):
    (tmp_path / "c4.json").write_text(json.dumps(_graph_to_json(gen_cycle(4))))
    return [str(tmp_path / "c4.json"), "--objective", "min", "--restarts", "1"]


def _no_files(tmp_path):
    return []


@pytest.mark.parametrize(
    "command, inputs, extra",
    [
        ("action", _hex_file, []),
        ("curvature", _hex_file, []),
        ("curvature", _hex_file, ["--t", "0.3"]),
        ("verify-eom", _half_half_files, []),
        ("solve-eom", _tree_boundary_files, []),
        ("search", _c4_file, []),
        ("gen", _no_files, ["tree", "--setting", "two-progression"]),
        ("gen", _no_files, ["tree", "--q", "3", "--setting", "half-half"]),
        ("gen", _no_files, ["hex", "--radius", "2"]),
        ("gen", _no_files, ["complete", "--n", "4", "--setting", "matching"]),
    ],
    ids=[
        "action", "curvature", "curvature-t", "verify-eom", "solve-eom", "search",
        "gen-two-progression", "gen-half-half", "gen-hex", "gen-matching",
    ],
)
def test_output_is_identical_across_hash_seeds(tmp_path, command, inputs, extra):
    # any set-ordered iteration would show up in the output
    argv = [command, *inputs(tmp_path), *extra]
    src = os.path.dirname(os.path.dirname(graphgrav.__file__))
    outs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
        cmd = [sys.executable, "-m", "graphgrav", *argv]
        outs.append(subprocess.run(cmd, env=env, capture_output=True, check=True).stdout)
    assert outs[0] == outs[1]
    doc = json.loads(outs[0])
    if command in ("action", "curvature"):
        with open(argv[1]) as fh:
            assert len(doc["edges"]) == len(json.load(fh)["edges"])
    elif command == "verify-eom":
        assert doc["is_solution"] and doc["residuals"]
    else:
        assert doc["setting"]["lengths"]


def _subcommands():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sorted(sub.choices)


# inputs per command; reproduce prints its table and writes rows, not the table, to --out
OUT_INPUTS = {
    "action": _hex_file,
    "bounds": _hex_file,
    "curvature": _hex_file,
    "gen": lambda tmp_path: ["tree"],
    "search": _c4_file,
    "solve-eom": _tree_boundary_files,
    "verify-eom": _half_half_files,
}


@pytest.mark.parametrize("command", [c for c in _subcommands() if c != "reproduce"])
def test_out_writes_the_bytes_printed(tmp_path, capsys, command):
    # a command missing from OUT_INPUTS fails here until it is added
    argv = [command, *OUT_INPUTS[command](tmp_path)]
    code, printed = run(capsys, *argv)
    out = tmp_path / "out.json"
    assert run(capsys, *argv, "--out", str(out)) == (code, "")
    assert out.read_bytes() == printed.encode()


class TestExitCodes:
    def test_internal_error_is_not_an_input_error(self, tmp_path, monkeypatch):
        import graphgrav.cli as cli

        def broken(*args, **kwargs):
            raise TypeError("internal bug")

        monkeypatch.setattr(cli, "action_plain", broken)
        with pytest.raises(TypeError, match="internal bug"):
            main(["action", write_triangle(tmp_path)])

    def test_non_finite_output_is_an_internal_error(self, tmp_path, capsys, monkeypatch):
        import graphgrav.cli as cli
        from graphgrav.dynamics import EomReport

        def nan_report(g, setting, tol):
            return EomReport({("0", "1"): math.nan}, math.nan, False)

        monkeypatch.setattr(cli, "verify_solution", nan_report)
        _, out = run(capsys, "gen", "tree", "--q", "2", "--depth", "2")
        files = write_gen_doc(tmp_path, json.loads(out))
        with pytest.raises(ValueError, match="JSON compliant"):
            main(["verify-eom", *files])
        assert capsys.readouterr().out == ""

    def test_missing_key_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b"}]}))
        assert main(["action", str(path)]) == 2
        assert capsys.readouterr().err.startswith("input error")

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    def test_tol_outside_its_domain_is_an_invariant_violation(self, tmp_path, capsys, tol):
        # verify-eom on an exact solution, solve-eom on data it solves
        graph, boundary = _tree_boundary_files(tmp_path)[:2]
        setting = tmp_path / "setting.json"
        setting.write_text(json.dumps(_setting_to_json(constant_setting(gen_tree(2, 3), 1.0))))
        for argv in (["verify-eom", graph, str(setting)], ["solve-eom", graph, boundary]):
            assert main([*argv, "--tol", tol]) == 3
            out, err = capsys.readouterr()
            assert out == "" and "BadParams: tol must be positive and finite" in err
        assert main(["verify-eom", graph, str(setting)]) == 0

    def test_init_missing_a_free_edge_is_an_invariant_violation(self, tmp_path, capsys):
        graph, boundary = _tree_boundary_files(tmp_path)[:2]
        init = tmp_path / "init.json"
        init.write_text(json.dumps({"lengths": []}))
        code, _ = run(capsys, "solve-eom", graph, boundary, "--init", str(init))
        assert code == 3

    def test_setting_missing_an_edge_is_bad_params(self, tmp_path, capsys):
        # a partial setting file leaves an edge without a length, for every
        # command that applies --setting to the graph
        graph = write_triangle(tmp_path)
        setting = tmp_path / "s.json"
        setting.write_text(json.dumps({"lengths": [{"u": "a", "v": "b", "len": 2.0}]}))
        for command in ("action", "curvature", "bounds"):
            assert main([command, graph, "--setting", str(setting)]) == 3
            out, err = capsys.readouterr()
            assert out == ""
            assert err == "invariant violation: BadParams: no length given for edge ('a', 'c')\n"

    def test_setting_naming_a_non_edge_is_an_invariant_violation(self, tmp_path, capsys):
        (tmp_path / "k3.json").write_text(json.dumps(_graph_to_json(gen_complete(3))))
        setting = {"lengths": [{"u": "0", "v": "1", "len": 1.0}, {"u": "0", "v": "2", "len": 1.0},
                               {"u": "1", "v": "2", "len": 1.0}, {"u": "0", "v": "9", "len": 1.0}]}
        (tmp_path / "s.json").write_text(json.dumps(setting))
        assert main(["action", str(tmp_path / "k3.json"), "--setting", str(tmp_path / "s.json")]) == 3
        fixed = {"lengths": [{"u": "0", "v": "9", "len": 1.0}]}
        (tmp_path / "fixed.json").write_text(json.dumps(fixed))
        argv = [str(tmp_path / "k3.json"), "--objective", "min", "--restarts", "1"]
        assert main(["search", *argv, "--fixed", str(tmp_path / "fixed.json")]) == 3
        graph, boundary = _tree_boundary_files(tmp_path)[:2]
        doc = json.loads((tmp_path / "boundary.json").read_text())
        doc["lengths"].append({"u": "0", "v": "9", "len": 1.0})
        (tmp_path / "boundary.json").write_text(json.dumps(doc))
        assert main(["solve-eom", graph, boundary]) == 3
        assert capsys.readouterr().err.count("NotAnEdge") == 3

    def test_graph_listing_a_vertex_twice_is_an_invariant_violation(self, tmp_path, capsys):
        graph = {"vertices": ["a", "a", "b"], "edges": [{"u": "a", "v": "b", "len": 1.0}]}
        (tmp_path / "g.json").write_text(json.dumps(graph))
        assert main(["curvature", str(tmp_path / "g.json")]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "invariant violation: BadParams: a vertex id is listed twice\n"

    @pytest.mark.parametrize("reverse", [False, True], ids=["same-order", "reversed"])
    def test_setting_naming_an_edge_twice_is_an_invariant_violation(self, tmp_path, capsys, reverse):
        def write(name, rows):
            # the first row again, with another length
            u, v = (rows[0]["v"], rows[0]["u"]) if reverse else (rows[0]["u"], rows[0]["v"])
            (tmp_path / name).write_text(json.dumps({"lengths": [*rows, {"u": u, "v": v, "len": 2.0}]}))
            return str(tmp_path / name)

        k3 = tmp_path / "k3.json"
        k3.write_text(json.dumps(_graph_to_json(gen_complete(3))))
        k3_rows = _setting_to_json(Setting(gen_complete(3).lengths()))["lengths"]
        graph, boundary = _tree_boundary_files(tmp_path)[:2]
        boundary_rows = json.loads((tmp_path / "boundary.json").read_text())["lengths"]
        init_rows = [{"u": u, "v": v, "len": 1.0} for u, v in interior_edges(gen_tree(2, 3))]
        runs = [
            ["action", str(k3), "--setting", write("s.json", k3_rows)],
            ["solve-eom", graph, write("b.json", boundary_rows)],
            ["solve-eom", graph, boundary, "--init", write("i.json", init_rows)],
            ["search", str(k3), "--objective", "min", "--restarts", "1",
             "--fixed", write("f.json", k3_rows[:1])],
        ]
        for argv in runs:
            assert main(argv) == 3
            captured = capsys.readouterr()
            assert captured.out == "" and "DuplicateEdge" in captured.err

    def test_negative_restarts_is_an_invariant_violation(self, tmp_path, capsys):
        graph, boundary = _tree_boundary_files(tmp_path)[:2]
        assert main(["solve-eom", graph, boundary, "--restarts", "-1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "invariant violation: BadParams: restarts must be >= 0, got -1\n"

    @pytest.mark.parametrize("restarts", ["0", "-1"])
    def test_search_with_no_start_is_an_invariant_violation(self, tmp_path, capsys, restarts):
        graph = write_triangle(tmp_path)
        assert main(["search", graph, "--objective", "max", "--restarts", restarts]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"invariant violation: BadParams: restarts must be >= 1, got {restarts}\n"

    @pytest.mark.parametrize("command", ["solve-eom", "search"])
    def test_negative_seed_is_an_invariant_violation(self, tmp_path, capsys, command):
        graph, boundary = _tree_boundary_files(tmp_path)[:2]
        argv = [graph, boundary] if command == "solve-eom" else [graph, "--objective", "max"]
        assert main([command, *argv, "--seed", "-1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "invariant violation: BadParams: seed must be >= 0, got -1\n"

    def test_oversized_tree_is_refused(self, capsys):
        assert main(["gen", "tree", "--depth", "60"]) == 3
        assert "TooLarge" in capsys.readouterr().err

    def test_hex_radius_zero_is_refused(self, capsys):
        assert main(["gen", "hex", "--radius", "0"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "invariant violation: BadParams: radius must be >= 1\n"


def _prefix_tree():
    # "a" is a prefix of "a b", whose next character sorts below the quote
    # that ends "a" in a repr: plain string order puts ("a", ...) first, and
    # an order by the repr of the edge keys would put ("a b", ...) first
    edges = [("a", "z"), ("a b", "z"), ("a", "p"), ("a", "q"), ("a b", "r"), ("a b", "s"), ("t", "z")]
    return build_graph(["a", "a b", "p", "q", "r", "s", "t", "z"], [(u, v, 1.0) for u, v in edges])


def _pairs(rows):
    return [(row["u"], row["v"]) for row in rows]


def test_every_edge_list_is_in_graph_edge_order(tmp_path, capsys):
    g = _prefix_tree()
    interior = interior_edges(g)
    assert interior == (("a", "z"), ("a b", "z")) and list(interior) == sorted(interior)
    assert sorted(interior, key=repr) != sorted(interior)
    assert _pairs(_graph_to_json(g)["edges"]) == list(g.edges)
    assert _pairs(_setting_to_json(Setting(g.lengths()))["lengths"]) == list(g.edges)
    graph, setting, boundary = (tmp_path / name for name in ("g.json", "s.json", "b.json"))
    graph.write_text(json.dumps(_graph_to_json(g)))
    setting.write_text(json.dumps(_setting_to_json(Setting(g.lengths()))))
    boundary.write_text(json.dumps(
        _setting_to_json(Setting({key: 1.0 for key in g.edges if key not in interior}))
    ))
    for argv in (["curvature"], ["curvature", "--t", "0.2"], ["action"]):
        code, out = run(capsys, argv[0], str(graph), *argv[1:])
        assert code == 0
        assert _pairs(json.loads(out)["edges"]) == list(g.edges)
    _, out = run(capsys, "verify-eom", str(graph), str(setting))
    assert _pairs(json.loads(out)["residuals"]) == list(interior)
    code, out = run(capsys, "solve-eom", str(graph), str(boundary))
    assert code == 0
    assert _pairs(json.loads(out)["setting"]["lengths"]) == list(g.edges)


def test_package_runs_as_a_module(tmp_path, capsys):
    # ``python -m graphgrav`` needs no installed console script
    argv = ["bounds", write_triangle(tmp_path)]
    src = os.path.dirname(os.path.dirname(graphgrav.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "graphgrav", *argv], env=env, capture_output=True)
    assert proc.returncode == 0
    assert proc.stdout.decode() == run(capsys, *argv)[1]


def test_unknown_region_vertex_error_is_identical_across_hash_seeds(tmp_path):
    graph = tmp_path / "k5.json"
    graph.write_text(json.dumps(_graph_to_json(gen_complete(5))))
    region = tmp_path / "region.json"
    region.write_text(json.dumps({"sigma": ["3", "30", "20", "10", "40"]}))
    argv = ["action", str(graph), "--variant", "ghy", "--region", str(region)]
    src = os.path.dirname(os.path.dirname(graphgrav.__file__))
    errs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
        cmd = [sys.executable, "-m", "graphgrav", *argv]
        proc = subprocess.run(cmd, env=env, capture_output=True)
        assert proc.returncode == 3
        errs.append(proc.stderr)
    assert errs[0] == errs[1]
    assert b"'30'" in errs[0]


class TestReproduceCommand:
    def _stub(self, passed):
        from graphgrav.reproduce import CriterionResult

        def make(num, ok):
            def fn():
                return CriterionResult(num, f"stub {num}", ok, "x", "y")

            return fn

        return tuple(make(k + 1, ok) for k, ok in enumerate(passed))

    def test_all_pass_exits_zero(self, tmp_path, capsys, monkeypatch):
        import graphgrav.cli as cli

        monkeypatch.setattr(cli.repro, "run_all", lambda: [fn() for fn in self._stub([True, True])])
        out_file = tmp_path / "rows.json"
        code, out = run(capsys, "reproduce", "--out", str(out_file))
        assert code == 0
        assert "2/2 criteria passed" in out
        rows = [
            {"num": k, "name": f"stub {k}", "passed": True, "computed": "x", "expected": "y", "note": ""}
            for k in (1, 2)
        ]
        assert out_file.read_text() == json.dumps(rows, indent=2, sort_keys=True) + "\n"

    def test_failure_exits_one(self, capsys, monkeypatch):
        import graphgrav.cli as cli

        monkeypatch.setattr(cli.repro, "run_all", lambda: [fn() for fn in self._stub([True, False])])
        code, out = run(capsys, "reproduce")
        assert code == 1
        assert "[FAIL]" in out
