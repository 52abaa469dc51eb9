import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import dichroma
from dichroma.cli import run
from dichroma.core import Digraph, Graph, bidirect
from dichroma.errors import GraphFormatError
from dichroma.generators import kneser, rook
from dichroma.graphio import format_graph, parse_graph_text
from dichroma.records import revalidate_coloring, strip_runtime


def test_parse_examples():
    g = parse_graph_text("g 3 3\ne 0 1\ne 1 2\ne 0 2\n")
    assert isinstance(g, Graph) and g.m == 3
    d = parse_graph_text("d 3 3\na 0 1\na 1 2\na 2 0\n")
    assert isinstance(d, Digraph) and d.arcs == ((0, 1), (1, 2), (2, 0))


def test_parse_diagnostics_carry_line_numbers():
    with pytest.raises(GraphFormatError) as err:
        parse_graph_text("g 3 1\ne 0 0\n")
    assert "line 2" in str(err.value) and "loop" in str(err.value)
    with pytest.raises(GraphFormatError) as err:
        parse_graph_text("g 3 2\ne 0 1\ne 1 0\n")
    assert "duplicate" in str(err.value)
    with pytest.raises(GraphFormatError) as err:
        parse_graph_text("g 2 1\ne 0 5\n")
    assert "out of range" in str(err.value)
    with pytest.raises(GraphFormatError) as err:
        parse_graph_text("x 2 1\n")
    assert "header" in str(err.value)
    with pytest.raises(GraphFormatError):
        parse_graph_text("g 2 2\ne 0 1\n")  # count mismatch
    with pytest.raises(GraphFormatError):
        parse_graph_text("g 2 1\na 0 1\n")  # arc line in a graph


def test_round_trip_with_labels():
    for obj in (kneser(4, 2), rook(3), bidirect(kneser(4, 2))):
        back = parse_graph_text(format_graph(obj))
        assert back == obj
        assert parse_graph_text(format_graph(back)) == back


def test_comments_and_blank_lines_ignored():
    text = "# a comment\n\ng 2 1\n# another\ne 0 1\n"
    assert parse_graph_text(text).m == 1


def _run(capsys, argv):
    code = run(argv)
    return code, capsys.readouterr().out


def test_cli_gen_solve_pipeline(tmp_path, capsys):
    code, out = _run(capsys, ["gen", "kneser", "5", "2"])
    assert code == 0
    path = tmp_path / "petersen.g"
    path.write_text(out)
    code, out = _run(capsys, ["solve", "chromatic", str(path)])
    assert code == 0 and out.strip() == "chromatic 3"


def test_cli_usage_errors(capsys):
    assert run(["nonsense"]) == 2
    assert run(["solve"]) == 2
    code, _ = _run(capsys, ["gen", "named", "Zmost"])
    assert code == 2


def test_cli_budget_exit_code(tmp_path, capsys):
    code, out = _run(capsys, ["gen", "kneser", "6", "2", "--out", str(tmp_path / "g.g")])
    assert code == 0
    # 45 edges exceed the default 24-edge orientation budget
    code, _ = _run(capsys, ["solve", "graph-dichromatic", str(tmp_path / "g.g")])
    assert code == 3


def test_cli_solve_json_certificate_revalidates(tmp_path, capsys):
    path = tmp_path / "g.g"
    code, out = _run(capsys, ["gen", "kneser", "4", "2"])
    path.write_text(out)
    code, out = _run(capsys, ["solve", "chromatic", str(path), "--format", "json"])
    assert code == 0
    record = json.loads(out)
    assert record["schema"] == "dichroma.result.v1"
    cert = record["certificate"]
    assert cert["exact"] and cert["value"] == 2
    graph = parse_graph_text(path.read_text())
    assert revalidate_coloring(graph, cert["witness"], directed_classes=False)


def test_cli_dicoloring_certificate_revalidates(tmp_path, capsys):
    path = tmp_path / "d.g"
    code, out = _run(capsys, ["gen", "named", "C5"])
    (tmp_path / "c5.g").write_text(out)
    code, out = _run(capsys, ["orient", "random", str(tmp_path / "c5.g"), "--seed", "4"])
    path.write_text(out)
    code, out = _run(capsys, ["solve", "dichromatic", str(path), "--format", "json"])
    record = json.loads(out)
    cert = record["certificate"]
    digraph = parse_graph_text(path.read_text())
    assert revalidate_coloring(digraph, cert["witness"], directed_classes=True)


def test_cli_check_coloring(tmp_path, capsys):
    gpath = tmp_path / "k3.g"
    code, out = _run(capsys, ["gen", "named", "K3"])
    gpath.write_text(out)
    cpath = tmp_path / "colours.json"
    cpath.write_text(json.dumps({"palette": [0, 1, 2], "assignment": [0, 1, 2]}))
    code, out = _run(capsys, ["check", "coloring", str(gpath), "--coloring", str(cpath)])
    assert code == 0 and "proper True" in out
    cpath.write_text(json.dumps({"palette": [0, 1], "assignment": [0, 1, 1]}))
    code, out = _run(capsys, ["check", "coloring", str(gpath), "--coloring", str(cpath)])
    assert code == 0 and "proper False" in out


def test_cli_check_dicoloring(tmp_path, capsys):
    dpath = tmp_path / "c3.d"
    dpath.write_text("d 3 3\na 0 1\na 1 2\na 2 0\n")
    cpath = tmp_path / "colours.json"
    cpath.write_text(json.dumps({"palette": [1, 2], "assignment": [1, 1, 2]}))
    code, out = _run(capsys, ["check", "dicoloring", str(dpath), "--coloring", str(cpath)])
    assert code == 0 and "proper True" in out
    cpath.write_text(json.dumps({"palette": [1], "assignment": [1, 1, 1]}))
    code, out = _run(capsys, ["check", "dicoloring", str(dpath), "--coloring", str(cpath)])
    assert code == 0 and "proper False" in out


def test_cli_check_cover_with_beta(tmp_path, capsys):
    code, out = _run(capsys, ["gen", "rook", "3"])
    (tmp_path / "r3.g").write_text(out)
    code, out = _run(capsys, ["orient", "random", str(tmp_path / "r3.g"), "--seed", "1"])
    (tmp_path / "d.g").write_text(out)
    code, out = _run(capsys, ["check", "cover", str(tmp_path / "d.g"), "--beta", "3"])
    assert code == 0 and "covers_all_acyclic True" in out


def test_cli_product_and_named(tmp_path, capsys):
    code, out = _run(capsys, ["gen", "named", "K3"])
    (tmp_path / "k3.g").write_text(out)
    code, out = _run(capsys, ["product", "tensor", str(tmp_path / "k3.g"),
                              str(tmp_path / "k3.g")])
    assert code == 0
    assert parse_graph_text(out) == rook(3)


def test_cli_mc_biclique_json(capsys):
    code, out = _run(capsys, ["mc", "biclique", "--graph", "K4", "--l", "2",
                              "--trials", "500", "--seed", "1", "--format", "json"])
    assert code == 0
    record = json.loads(out)
    assert record["trials"] == 500
    assert 0.0 <= record["ci_low"] <= record["estimate"] <= record["ci_high"] <= 1.0


def test_cli_bound_commands(capsys):
    code, out = _run(capsys, ["bound", "g", "--l1", "2", "--l2", "1", "--n", "4",
                              "--s", "1", "--t", "1", "--u", "2"])
    assert code == 0 and abs(float(out) - 0.6065306597126334) < 1e-12
    code, out = _run(capsys, ["bound", "concentration", "--n", "1", "--c", "1",
                              "--t", "2"])
    assert code == 0 and abs(float(out) - 0.2706705664732254) < 1e-12
    code, out = _run(capsys, ["bound", "expectation", "--m", "4", "--u", "4",
                              "--k", "1", "--a", "1"])
    assert code == 0 and float(out) == 3.0


def test_cli_embed(capsys):
    code, out = _run(capsys, ["embed", "rook-in-kneser", "--n", "6", "--k", "2",
                              "--format", "json"])
    assert code == 0
    record = json.loads(out)
    assert record["verified"] and record["source_vertices"] == 9


def test_cli_verify_kneser(capsys):
    code, out = _run(capsys, ["verify", "kneser-chi"])
    assert code == 0 and "ok" in out


def test_cli_verify_json_deterministic_across_threads(capsys):
    argv = ["verify", "sabidussi", "--max-n", "3", "--pairs", "12", "--seed", "5",
            "--format", "json"]
    code_a, out_a = _run(capsys, argv + ["--threads", "1"])
    code_b, out_b = _run(capsys, argv + ["--threads", "8"])
    assert code_a == code_b == 0
    a = strip_runtime(json.loads(out_a))
    b = strip_runtime(json.loads(out_b))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_cli_check_cover_with_collection_file(tmp_path, capsys):
    code, out = _run(capsys, ["gen", "named", "P3"])
    (tmp_path / "p3.g").write_text(out)
    code, out = _run(capsys, ["orient", "random", str(tmp_path / "p3.g"), "--seed", "0"])
    (tmp_path / "d.g").write_text(out)
    whole = tmp_path / "col.json"
    whole.write_text(json.dumps({"members": [[0, 1, 2]], "s": 1, "t": 3}))
    code, out = _run(capsys, ["check", "cover", str(tmp_path / "d.g"),
                              "--collection", str(whole)])
    assert code == 0 and "covers_all_acyclic True" in out
    small = tmp_path / "small.json"
    small.write_text(json.dumps({"members": [[0], [1], [2]], "s": 3, "t": 1}))
    code, out = _run(capsys, ["check", "cover", str(tmp_path / "d.g"),
                              "--collection", str(small), "--format", "json"])
    assert code == 0
    record = json.loads(out)
    assert record["covers_all_acyclic"] is False
    assert record["counterexample"]


def test_cli_check_semicover(tmp_path, capsys):
    code, out = _run(capsys, ["gen", "rook", "2"])
    (tmp_path / "r2.g").write_text(out)
    code, out = _run(capsys, ["gen", "named", "K2"])
    (tmp_path / "k2.g").write_text(out)
    code, out = _run(capsys, ["product", "tensor", str(tmp_path / "k2.g"),
                              str(tmp_path / "r2.g")])
    (tmp_path / "prod.g").write_text(out)
    code, out = _run(capsys, ["orient", "random", str(tmp_path / "prod.g"),
                              "--seed", "3"])
    (tmp_path / "d.g").write_text(out)
    code, out = _run(capsys, ["check", "semicover", str(tmp_path / "d.g"),
                              "--beta", "2", "--lambda", "3"])
    assert code == 0 and "semicovers_all_acyclic" in out


def test_cli_verify_bidirect_csv(capsys):
    code, out = _run(capsys, ["verify", "bidirect", "--max-n", "4",
                              "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("chi,")
    assert len(lines) == 1 + 1 + 2 + 4 + 11


def test_cli_verify_catalogue(capsys):
    code, out = _run(capsys, ["verify", "catalogue", "--format", "json"])
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_cli_threads_env_fallback(monkeypatch, capsys):
    import dichroma.cli as cli
    from dichroma.parallel import default_threads

    monkeypatch.setenv("DICHROMA_THREADS", "3")
    assert default_threads() == 3
    monkeypatch.setenv("DICHROMA_THREADS", "junk")
    assert default_threads() == 1
    monkeypatch.delenv("DICHROMA_THREADS")
    assert default_threads() == 1

    seen = []
    original = cli.estimate_biclique_event

    def spy(*args, threads, **kwargs):
        seen.append(threads)
        return original(*args, threads=threads, **kwargs)

    monkeypatch.setattr(cli, "estimate_biclique_event", spy)
    mc = ["mc", "biclique", "--graph", "K4", "--l", "1", "--trials", "4"]
    monkeypatch.setenv("DICHROMA_THREADS", "2")
    assert run(mc) == 0
    assert run(mc + ["--threads", "3"]) == 0
    monkeypatch.delenv("DICHROMA_THREADS")
    assert run(mc) == 0
    assert seen == [2, 3, 1]


@pytest.mark.parametrize("argv", [
    ["verify", "sabidussi", "--max-n", "4", "--pairs", "5", "--threads", "1"],
    ["verify", "tensor-bound"],
    ["verify", "bidirect", "--max-n", "5"],
    ["verify", "kneser-chi"],
    ["verify", "catalogue"],
])
def test_cli_verify_budget_is_not_a_violation(monkeypatch, capsys, argv):
    from dichroma.solvers import _Deadline

    monkeypatch.setattr(_Deadline, "check", lambda self: True)
    code, out = _run(capsys, argv)
    assert code == 3
    assert "VIOLATED" not in out and "unknown" in out
    code, out = _run(capsys, argv + ["--format", "json"])
    record = json.loads(out)
    assert code == 3 and record["ok"] is False
    assert record["params"].get("violations", 0) == 0 and record["params"]["unknown"] > 0


def test_cli_verify_stops_at_one_deadline(capsys):
    # every row of the exhaustive 5-vertex check, 232,221 products, takes
    # about a minute in all; one deadline of a second cuts it short
    started = time.perf_counter()
    code, out = _run(capsys, ["verify", "sabidussi", "--max-n", "5", "--pairs", "0",
                              "--timeout-s", "1", "--threads", "1"])
    assert code == 3
    assert "unknown" in out and "VIOLATED" not in out
    assert time.perf_counter() - started < 30


def test_cli_import_leaves_numpy_unloaded():
    # catalogues up to 5 vertices (4 oriented) are canonicalised without it;
    # the worker pool, exact bounds and CSV output import their modules
    # only when a command runs them
    src = str(Path(dichroma.__file__).resolve().parents[1])
    probe = ("import sys, dichroma.cli; print('numpy' in sys.modules); "
             "print([m for m in ('concurrent.futures', 'fractions', 'csv', 'pickle') "
             "if m in sys.modules]); "
             "from dichroma.catalogue import digraph_catalogue, graphs_up_to; "
             "digraph_catalogue(4); graphs_up_to(5); print('numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    assert out.split() == ["False", "[]", "False"]


def test_traced_layer_targets_resolve():
    # the benchmark's tracer wraps each (module, attribute) of TARGETS in
    # bench/layers.py by getattr after importing dichroma.cli, so a rename
    # there would crash every traced run
    root = Path(__file__).resolve().parents[1]
    src = str(Path(dichroma.__file__).resolve().parents[1])
    probe = ("import importlib.util, sys, dichroma.cli; "
             "spec = importlib.util.spec_from_file_location('layers', sys.argv[1]); "
             "layers = importlib.util.module_from_spec(spec); spec.loader.exec_module(layers); "
             "print([(m, a) for m, a, *_ in layers.TARGETS "
             "if not callable(getattr(sys.modules.get(m), a, None))])")
    out = subprocess.run([sys.executable, "-c", probe, str(root / "bench" / "layers.py")],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("argv", [
    ["mc", "biclique", "--l", "2", "--trials", "3", "--threads", "1"],
    ["mc", "biclique", "--l", "2", "--trials", "3", "--threads", "2"],
    ["orient", "certified", "--l", "2", "--seed", "3"],  # certifies C4 in time
])
def test_cli_biclique_commands_honour_timeout(monkeypatch, tmp_path, capsys, argv):
    from dichroma.generators import complete_bipartite, cycle_graph
    from dichroma.solvers import _Deadline

    g = complete_bipartite(4, 4) if argv[0] == "mc" else cycle_graph(4)
    path = tmp_path / "input.g"
    path.write_text(format_graph(g))
    assert run(argv[:2] + [str(path)] + argv[2:]) == 0
    capsys.readouterr()
    monkeypatch.setattr(_Deadline, "check", lambda self: True)
    for fmt in ("text", "json"):
        code = run(argv[:2] + [str(path)] + argv[2:] + ["--format", fmt])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert "budget exceeded" in captured.err and "Traceback" not in captured.err


def test_cli_gen_borsuk_round_trip(tmp_path, capsys):
    code, out = _run(capsys, ["gen", "borsuk", "--n", "1", "--a", "1.9",
                              "--cube-side", "0.31", "--delta", "0.05"])
    assert code == 0
    g = parse_graph_text(out)
    assert g.n == 24
    assert parse_graph_text(format_graph(g)) == g


def test_cli_orient_enumerate(tmp_path, capsys):
    code, out = _run(capsys, ["gen", "named", "P3"])
    (tmp_path / "p3.g").write_text(out)
    code, out = _run(capsys, ["orient", "enumerate", str(tmp_path / "p3.g"),
                              "--format", "json"])
    record = json.loads(out)
    assert record["count"] == 4
    assert record["orientations"][0] == "00"


@pytest.mark.parametrize("argv", [
    ["check", "coloring", "{graph}", "--coloring", "{colouring}"],
    ["bound", "g", "--n", "10", "--s", "2", "--t", "2", "--u", "3", "--l1", "3", "--l2", "2"],
    ["embed", "rook-in-kneser", "--n", "6", "--k", "2"],
    ["orient", "enumerate", "{graph}"],
])
def test_cli_commands_without_csv_refuse_it(tmp_path, capsys, argv):
    graph = tmp_path / "k3.g"
    graph.write_text(format_graph(kneser(3, 1)))
    colouring = tmp_path / "colours.json"
    colouring.write_text(json.dumps({"palette": [0, 1, 2], "assignment": [0, 1, 2]}))
    argv = [a.format(graph=graph, colouring=colouring) for a in argv]
    assert run(argv + ["--format", "csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "has no csv output" in captured.err
    code, out = _run(capsys, argv)
    assert code == 0 and out and not out.startswith("{")
    code, out = _run(capsys, argv + ["--format", "json"])
    assert code == 0 and json.loads(out)["command"] == " ".join(argv[:2])


def test_cli_version(capsys):
    assert run(["--version"]) == 0


def test_cli_commands_share_one_parser(tmp_path, capsys):
    # the argument tree is built once per process: a usage error and
    # --version in between leave a repeated solve byte-identical
    path = tmp_path / "petersen.g"
    path.write_text(format_graph(kneser(5, 2)))
    solve = ["solve", "graph-dichromatic", str(path), "--format", "json"]
    outputs = []
    for argv, expected in ((solve, 0), (["solve", "nonsense"], 2),
                           (["--version"], 0), (solve, 0)):
        assert run(argv) == expected
        outputs.append(capsys.readouterr().out)
    first, last = (re.sub(r'\n  "runtime_ms": [^\n]*', "", out) for out in (outputs[0], outputs[3]))
    assert first == last and '"runtime_ms"' not in first
    assert json.loads(first)["certificate"]["value"] == 2
    assert outputs[2].strip() == f"dichroma {dichroma.__version__}"


def test_cli_timeout_in_arboricity_search(monkeypatch, tmp_path, capsys):
    from dichroma import solvers

    path = tmp_path / "petersen.g"
    path.write_text(format_graph(kneser(5, 2)))
    armed = []
    forest_clash = solvers._forest_clash
    monkeypatch.setattr(solvers, "_forest_clash",
                        lambda *args: armed.append(True) or forest_clash(*args))
    monkeypatch.setattr(solvers._Deadline, "check", lambda self: bool(armed))
    code = run(["solve", "graph-dichromatic", str(path), "--format", "json"])
    captured = capsys.readouterr()
    assert code == 3 and "Traceback" not in captured.err
    cert = json.loads(captured.out)["certificate"]
    assert not cert["exact"] and cert["lower"] <= 2 <= cert["upper"] == 3
