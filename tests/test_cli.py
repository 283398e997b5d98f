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
    edge_key,
    gen_complete,
    gen_cycle,
    gen_hex_region,
    gen_tree,
    half_half_setting,
    interior_edges,
    setting_to_json,
)
from graphgrav.cli import main
from graphgrav.graph import graph_to_json


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
        graph_file = tmp_path / "g.json"
        setting_file = tmp_path / "s.json"
        graph_file.write_text(json.dumps(doc["graph"]))
        setting_file.write_text(json.dumps(doc["setting"]))
        code, out = run(capsys, "verify-eom", str(graph_file), str(setting_file))
        assert code == 0
        assert json.loads(out)["is_solution"] is True

    def test_perturbed_constant_fails(self, tmp_path, capsys):
        out_path = tmp_path / "tree.json"
        run(capsys, "gen", "tree", "--q", "2", "--depth", "2", "--out", str(out_path))
        doc = json.loads(out_path.read_text())
        doc["setting"]["lengths"][0]["len"] = 1.3
        graph_file = tmp_path / "g.json"
        setting_file = tmp_path / "s.json"
        graph_file.write_text(json.dumps(doc["graph"]))
        setting_file.write_text(json.dumps(doc["setting"]))
        code, out = run(capsys, "verify-eom", str(graph_file), str(setting_file))
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

        g = gg.graph_from_json(doc["graph"])
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

    def test_bounds(self, tmp_path, capsys):
        code, out = run(capsys, "bounds", write_triangle(tmp_path))
        doc = json.loads(out)
        assert code == 0
        assert doc["bound_holds"] is True


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
    path.write_text(json.dumps(graph_to_json(g)))
    return [str(path)]


def _tree_boundary_files(tmp_path):
    g = gen_tree(2, 3)
    interior = {edge_key(u, v) for u, v in interior_edges(g)}
    boundary = {
        "lengths": [{"u": u, "v": v, "len": 1.0} for u, v in g.edges if edge_key(u, v) not in interior]
    }
    (tmp_path / "tree.json").write_text(json.dumps(graph_to_json(g)))
    (tmp_path / "boundary.json").write_text(json.dumps(boundary))
    return [str(tmp_path / "tree.json"), str(tmp_path / "boundary.json"), "--restarts", "2"]


def _half_half_files(tmp_path):
    setting = half_half_setting(3, 3, 2.0)
    (tmp_path / "tree.json").write_text(json.dumps(graph_to_json(gen_tree(3, 3))))
    (tmp_path / "setting.json").write_text(json.dumps(setting_to_json(setting)))
    return [str(tmp_path / "tree.json"), str(tmp_path / "setting.json")]


def _c4_file(tmp_path):
    (tmp_path / "c4.json").write_text(json.dumps(graph_to_json(gen_cycle(4))))
    return [str(tmp_path / "c4.json"), "--objective", "min", "--restarts", "1"]


@pytest.mark.parametrize(
    "command, inputs, extra",
    [
        ("action", _hex_file, []),
        ("curvature", _hex_file, []),
        ("curvature", _hex_file, ["--t", "0.3"]),
        ("verify-eom", _half_half_files, []),
        ("solve-eom", _tree_boundary_files, []),
        ("search", _c4_file, []),
    ],
    ids=["action", "curvature", "curvature-t", "verify-eom", "solve-eom", "search"],
)
def test_output_is_identical_across_hash_seeds(tmp_path, command, inputs, extra):
    # which search answers a geodesic query depends on the order of earlier
    # queries, so any set-ordered iteration would show up in the output
    argv = [command, *inputs(tmp_path), *extra]
    src = os.path.dirname(os.path.dirname(graphgrav.__file__))
    outs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
        cmd = [sys.executable, "-m", "graphgrav.cli", *argv]
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


class TestExitCodes:
    def test_internal_error_is_not_an_input_error(self, tmp_path, monkeypatch):
        import graphgrav.cli as cli

        def broken(*args, **kwargs):
            raise TypeError("internal bug")

        monkeypatch.setattr(cli, "action_plain", broken)
        with pytest.raises(TypeError, match="internal bug"):
            main(["action", write_triangle(tmp_path)])

    def test_missing_key_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b"}]}))
        assert main(["action", str(path)]) == 2
        assert capsys.readouterr().err.startswith("input error")

    def test_init_missing_a_free_edge_is_an_invariant_violation(self, tmp_path, capsys):
        graph, boundary = _tree_boundary_files(tmp_path)[:2]
        init = tmp_path / "init.json"
        init.write_text(json.dumps({"lengths": []}))
        code, _ = run(capsys, "solve-eom", graph, boundary, "--init", str(init))
        assert code == 3

    def test_oversized_tree_is_refused(self, capsys):
        assert main(["gen", "tree", "--depth", "60"]) == 3
        assert "TooLarge" in capsys.readouterr().err


def test_unknown_region_vertex_error_is_identical_across_hash_seeds(tmp_path):
    graph = tmp_path / "k5.json"
    graph.write_text(json.dumps(graph_to_json(gen_complete(5))))
    region = tmp_path / "region.json"
    region.write_text(json.dumps({"sigma": ["3", "30", "20", "10", "40"]}))
    argv = ["action", str(graph), "--variant", "ghy", "--region", str(region)]
    src = os.path.dirname(os.path.dirname(graphgrav.__file__))
    errs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
        cmd = [sys.executable, "-m", "graphgrav.cli", *argv]
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
        assert len(json.loads(out_file.read_text())) == 2

    def test_failure_exits_one(self, capsys, monkeypatch):
        import graphgrav.cli as cli

        monkeypatch.setattr(cli.repro, "run_all", lambda: [fn() for fn in self._stub([True, False])])
        code, out = run(capsys, "reproduce")
        assert code == 1
        assert "[FAIL]" in out
