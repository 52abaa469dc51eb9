import argparse
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import dichroma
from dichroma.cli import run
from dichroma.core import (
    Deadline, Digraph, Graph, bidirect, is_proper_coloring, is_proper_dicoloring,
)
from dichroma.errors import GraphFormatError
from dichroma.generators import kneser, named_graph, rook
from dichroma.graphio import format_graph, parse_graph_text
from dichroma.randomized import RngSpec, random_orientation
from dichroma.records import coloring_from_payload, strip_runtime


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
    # 2^44 reversal pairs of 45 edges: the deadline ends the sweep, and
    # chi = 4 and a = 3 leave the bracket [2, 3]
    code, out = _run(capsys, ["solve", "graph-dichromatic", str(tmp_path / "g.g"),
                              "--timeout-s", "1", "--format", "json"])
    assert code == 3
    cert = json.loads(out)["certificate"]
    assert cert["exact"] is False and (cert["lower"], cert["upper"]) == (2, 3)


def test_cli_budget_exit_code_past_64_edges(tmp_path, capsys):
    code, out = _run(capsys, ["gen", "multipartite", "1", "12",
                              "--out", str(tmp_path / "k12.g")])
    assert code == 0
    # K12's 66 edges: 2^65 reversal pairs, bracketed by a = 6 at the deadline
    code, out = _run(capsys, ["solve", "graph-dichromatic", str(tmp_path / "k12.g"),
                              "--timeout-s", "1", "--format", "json"])
    assert code == 3
    cert = json.loads(out)["certificate"]
    assert cert["exact"] is False and cert["upper"] == 6 and 1 <= cert["lower"] <= 6


def test_cli_solve_has_no_size_cap(tmp_path, capsys):
    code, out = _run(capsys, ["gen", "rook", "9", "--out", str(tmp_path / "rook9.g")])
    assert code == 0
    code, out = _run(capsys, ["solve", "chromatic", str(tmp_path / "rook9.g")])
    assert code == 0 and out == "chromatic 9\n"


def _deep_input(name: str) -> str:
    """Graph text for a named graph (C999), or for a directed cycle,
    bidirected cycle or directed path ("directed C1200", "bidirected
    C999", "directed P1024")."""
    kind, _, named = name.rpartition(" ")
    n = int(named[1:])
    if not kind:
        return format_graph(named_graph(named))
    arcs = [(i, i + 1) for i in range(n - 1)]
    if named[0] == "C":
        arcs.append((n - 1, 0))
    if kind == "bidirected":
        arcs += [(v, u) for u, v in arcs]
    return format_graph(Digraph(n, arcs))


# inputs about 1,000 vertices deep, past Python's default recursion limit;
# the orientation sweep of C999 cannot finish, so it ends at its deadline
@pytest.mark.parametrize("source, argv, code, out", [
    ("C999", ["solve", "chromatic"], 0, "chromatic 3"),
    ("bidirected C999", ["solve", "dichromatic"], 0, "dichromatic 3"),
    ("C999", ["solve", "graph-dichromatic", "--timeout-s", "1"], 3, "graph-dichromatic in [1,2]"),
    ("P1200", ["solve", "list-chromatic"], 0, "list-chromatic 2"),
    ("C1201", ["solve", "list-chromatic"], 0, "list-chromatic 3"),
    ("directed C1200", ["solve", "list-dichromatic"], 0, "list-dichromatic 2"),
    ("directed P1024", ["check", "cover", "--beta", "1"], 0, "covers_all_acyclic False"),
    ("directed P2048", ["check", "semicover", "--beta", "1"], 0, "semicovers_all_acyclic False"),
])
def test_cli_deep_inputs_finish(tmp_path, capsys, source, argv, code, out):
    path = tmp_path / "deep.txt"
    path.write_text(_deep_input(source))
    got_code, got = _run(capsys, argv + [str(path)])
    assert (got_code, got.splitlines()[0]) == (code, out)


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
    assert is_proper_coloring(graph, coloring_from_payload(cert["witness"]))


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
    assert is_proper_dicoloring(digraph, coloring_from_payload(cert["witness"]))


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
    code, out = _run(capsys, ["check", "cover", str(tmp_path / "d.g"), "--beta", "3",
                              "--format", "json"])
    assert code == 0 and json.loads(out)["params"] == {"collection": None, "beta": 3}


def test_cli_product_and_named(tmp_path, capsys):
    code, out = _run(capsys, ["gen", "named", "K3"])
    (tmp_path / "k3.g").write_text(out)
    code, out = _run(capsys, ["product", "tensor", str(tmp_path / "k3.g"),
                              str(tmp_path / "k3.g")])
    assert code == 0
    assert parse_graph_text(out) == rook(3)


def test_cli_mc_biclique_json(monkeypatch, tmp_path, capsys):
    code, out = _run(capsys, ["mc", "biclique", "--graph", "K4", "--l", "2",
                              "--trials", "500", "--seed", "1", "--format", "json"])
    assert code == 0
    record = json.loads(out)
    assert record["trials"] == 500 and record["params"]["graph"] == "K4"
    assert 0.0 <= record["ci_low"] <= record["estimate"] <= record["ci_high"] <= 1.0
    # the record names the graph's source: its file, or stdin
    path = tmp_path / "k4.txt"
    path.write_text(format_graph(kneser(4, 1)))
    mc = ["mc", "biclique", "--l", "1", "--trials", "3", "--format", "json"]
    code, out = _run(capsys, [*mc[:2], str(path), *mc[2:]])
    assert code == 0 and json.loads(out)["params"]["graph"] == str(path)
    monkeypatch.setattr(sys, "stdin", io.StringIO(path.read_text()))
    code, out = _run(capsys, mc)
    assert code == 0 and json.loads(out)["params"]["graph"] == "stdin"


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
    # the seed is recorded once, in the suite's summary
    assert "seed" not in a and a["params"]["seed"] == 5


def test_cli_mc_acceptance_json_same_at_one_and_two_threads(tmp_path, capsys):
    # the trials share one search, set up before the workers fork
    (tmp_path / "d.g").write_text(format_graph(random_orientation(rook(3), RngSpec(2))))
    argv = ["mc", "acceptance", str(tmp_path / "d.g"), "--beta", "1", "--l1", "3",
            "--l2", "1", "--trials", "40", "--seed", "3", "--format", "json"]
    code_a, out_a = _run(capsys, argv + ["--threads", "1"])
    code_b, out_b = _run(capsys, argv + ["--threads", "2"])
    assert code_a == code_b == 0
    a = strip_runtime(json.loads(out_a))
    assert a == strip_runtime(json.loads(out_b))
    assert 0 < a["successes"] < a["trials"] == 40


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
    assert record["params"] == {"collection": str(small), "beta": None}
    code, out = _run(capsys, ["mc", "acceptance", str(tmp_path / "d.g"), "--collection",
                              str(whole), "--trials", "3", "--l1", "2", "--l2", "1",
                              "--format", "json"])
    assert code == 0 and json.loads(out)["params"] == {
        "l1": 2, "l2": 1, "trials": 3, "collection": str(whole), "beta": None}


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
    # --threads defaults to 1; no environment variable changes that
    import dichroma.randomized as randomized

    seen = []
    original = randomized.estimate_biclique_event

    def spy(*args, threads, **kwargs):
        seen.append(threads)
        return original(*args, threads=threads, **kwargs)

    monkeypatch.setattr(randomized, "estimate_biclique_event", spy)
    mc = ["mc", "biclique", "--graph", "K4", "--l", "1", "--trials", "4"]
    assert run(mc) == 0
    assert run(mc + ["--threads", "3"]) == 0
    assert seen == [1, 3]


@pytest.mark.parametrize("argv", [
    ["verify", "sabidussi", "--max-n", "4", "--pairs", "5", "--threads", "1"],
    ["verify", "tensor-bound"],
    ["verify", "bidirect", "--max-n", "5"],
    ["verify", "kneser-chi"],
    ["verify", "catalogue"],
])
def test_cli_verify_budget_is_not_a_violation(monkeypatch, capsys, argv):
    monkeypatch.setattr(Deadline, "check", lambda self: True)
    code, out = _run(capsys, argv)
    assert code == 3
    assert "VIOLATED" not in out and "unknown" in out
    assert out.startswith(f"verify {argv[1]}: ")
    code, out = _run(capsys, argv + ["--format", "json"])
    record = json.loads(out)
    assert code == 3 and record["ok"] is False
    assert record["command"] == f"verify {argv[1]}"
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
    # the package is pure Python, sphere samples and catalogues included;
    # the worker pool, exact bounds and CSV output import their modules
    # only when a command runs them
    src = str(Path(dichroma.__file__).resolve().parents[1])
    probe = ("import sys, dichroma.cli; print('numpy' in sys.modules); "
             "print([m for m in ('concurrent.futures', 'fractions', 'csv', 'pickle') "
             "if m in sys.modules]); "
             "from dichroma.catalogue import digraph_catalogue, graphs_up_to, "
             "oriented_catalogue; from dichroma.verify import bidirect_suite; "
             "from dichroma.generators import borsuk_points, simplex_coloring; "
             "digraph_catalogue(4); graphs_up_to(7); oriented_catalogue(5); "
             "simplex_coloring(borsuk_points(2, 1.5, 0.5)[1]); "
             "print(bidirect_suite().ok, 'numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    assert out.split() == ["False", "[]", "True", "False"]


@pytest.mark.parametrize("argv", [["verify", "bidirect", "--max-n", "8"],
                                  ["verify", "tensor-bound", "--max-n", "6"]])
def test_cli_catalogue_build_stops_at_the_deadline(argv):
    # the 8-vertex graph catalogue and the 6-vertex oriented one each take
    # seconds to build; a one-second deadline cuts the build short
    src = str(Path(dichroma.__file__).resolve().parents[1])
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "dichroma.cli", *argv, "--timeout-s", "1"],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("dichroma: budget exceeded: deadline reached building the ")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("-vertex catalogue\n")
    assert time.perf_counter() - started < 30


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
    ["mc", "acceptance", "--l1", "2", "--l2", "1", "--beta", "1", "--trials", "3"],
])
def test_cli_biclique_commands_honour_timeout(monkeypatch, tmp_path, capsys, argv):
    from dichroma.generators import complete_bipartite, cycle_graph
    from dichroma.randomized import RngSpec, random_orientation
    g = {"biclique": complete_bipartite(4, 4), "certified": cycle_graph(4),
         "acceptance": random_orientation(rook(3), RngSpec(0))}[argv[1]]
    path = tmp_path / "input.g"
    path.write_text(format_graph(g))
    assert run(argv[:2] + [str(path)] + argv[2:]) == 0
    capsys.readouterr()
    monkeypatch.setattr(Deadline, "check", lambda self: True)
    for fmt in ("text", "json"):
        code = run(argv[:2] + [str(path)] + argv[2:] + ["--format", fmt])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert "budget exceeded" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["check", "cover", "{digraph}", "--collection", "{whole}"],
    ["check", "semicover", "{doubled}", "--beta", "1", "--lambda", "3"],
])
def test_cli_check_cover_honours_timeout(monkeypatch, tmp_path, capsys, argv):
    (tmp_path / "c3.d").write_text("d 3 3\na 0 1\na 1 2\na 2 0\n")
    (tmp_path / "k2.d").write_text(format_graph(bidirect(Graph(2, [(0, 1)]))))
    (tmp_path / "whole.json").write_text(json.dumps({"members": [[0, 1, 2]], "s": 1, "t": 3}))
    argv = [a.format(digraph=tmp_path / "c3.d", doubled=tmp_path / "k2.d",
                     whole=tmp_path / "whole.json") for a in argv]
    assert run(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(Deadline, "check", lambda self: True)
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("dichroma: budget exceeded: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["solve", "chromatic", "{graph}"],
    ["mc", "biclique", "--graph", "K4", "--l", "2", "--trials", "3"],
    ["verify", "kneser-chi"],
    ["orient", "certified", "{graph}", "--l", "1"],
    ["check", "cover", "{digraph}", "--collection", "{whole}"],
])
def test_cli_timeout_must_be_positive(tmp_path, capsys, argv):
    (tmp_path / "k3.g").write_text(format_graph(kneser(3, 1)))
    (tmp_path / "c3.d").write_text("d 3 3\na 0 1\na 1 2\na 2 0\n")
    (tmp_path / "whole.json").write_text(json.dumps({"members": [[0, 1, 2]], "s": 1, "t": 3}))
    argv = [a.format(graph=tmp_path / "k3.g", digraph=tmp_path / "c3.d",
                     whole=tmp_path / "whole.json") for a in argv]
    assert run(argv + ["--timeout-s", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "dichroma: timeout must be positive\n"


def test_cli_gen_accepts_any_timeout(capsys):
    code, out = _run(capsys, ["gen", "kneser", "5", "2", "--timeout-s", "0"])
    assert code == 0 and parse_graph_text(out) == kneser(5, 2)


def test_cli_gen_borsuk_round_trip(tmp_path, capsys):
    code, out = _run(capsys, ["gen", "borsuk", "--n", "1", "--a", "1.9",
                              "--cube-side", "0.31", "--delta", "0.05"])
    assert code == 0
    g = parse_graph_text(out)
    assert g.n == 24
    assert parse_graph_text(format_graph(g)) == g


def test_cli_gen_borsuk_stops_at_the_deadline(monkeypatch, capsys):
    # every clock read says time is up, so the pair scan stops at its first row
    monkeypatch.setattr(Deadline, "expired", lambda self: True)
    assert run(["gen", "borsuk", "--n", "1", "--a", "1.9", "--cube-side", "0.31"]) == 3
    assert capsys.readouterr() == (
        "", "dichroma: budget exceeded: timeout during the Borsuk pair scan\n")


def test_cli_gen_borsuk_prunes_a_large_lattice():
    # 5^11 lattice keys: a scan of every key ran for minutes
    src = str(Path(dichroma.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "dichroma.cli", "gen", "borsuk", "--n", "10",
                           "--a", "1.5", "--cube-side", "0.9", "--timeout-s", "1"],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stdout) == (0, "g 0 0\n")


def test_cli_gen_borsuk_refuses_a_huge_lattice_at_once():
    # the refusal bounds the per-axis table (3e9 entries here), which is
    # built before the deadline is first polled; the child's address space
    # is capped so that losing the refusal fails fast instead of filling RAM
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(Path(dichroma.__file__).resolve().parents[1])
    started = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "dichroma.cli", "gen", "borsuk", "--n", "1",
                           "--a", "1.5", "--cube-side", "1e-9", "--timeout-s", "10"],
                          capture_output=True, text=True, timeout=60, preexec_fn=cap,
                          env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "lattice scan too large" in proc.stderr
    assert time.monotonic() - started < 10


@pytest.mark.parametrize("header, code", [("g 5000 0", 0), ("d 5000 0", 0),
                                          ("g 5001 0", 2), ("d 1000000 0", 2)])
def test_cli_refuses_a_header_past_the_vertex_limit(monkeypatch, capsys, header, code):
    # the empty graph is decided at once; the limit stops the parser first
    monkeypatch.setattr(sys, "stdin", io.StringIO(header + "\n"))
    solve = "chromatic" if header[0] == "g" else "dichromatic"
    assert run(["solve", solve]) == code
    if code:
        count = header.split()[1]
        assert capsys.readouterr().err == f"dichroma: {count} vertices exceed limit 5000\n"


@pytest.mark.parametrize("argv", [["biclique", "--graph", "K4", "--l", "1"],
                                  ["acceptance", "-", "--l1", "2", "--l2", "1"]])
def test_cli_mc_runs_a_billion_trials_in_bounded_memory(argv):
    # 10^9 trials listed up front would need tens of GB; under a 1 GB
    # address-space limit the run must still reach its deadline
    resource = pytest.importorskip("resource")
    src = str(Path(dichroma.__file__).resolve().parents[1])

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run([sys.executable, "-m", "dichroma.cli", "mc", *argv,
                           "--trials", "1000000000", "--timeout-s", "1", "--threads", "1"],
                          input="d 1 0\n", capture_output=True, text=True, timeout=120,
                          preexec_fn=limit, env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("dichroma: budget exceeded: ")


def test_cli_orient_enumerate(tmp_path, capsys):
    code, out = _run(capsys, ["gen", "named", "P3"])
    (tmp_path / "p3.g").write_text(out)
    code, out = _run(capsys, ["orient", "enumerate", str(tmp_path / "p3.g"),
                              "--format", "json"])
    record = json.loads(out)
    assert record["count"] == 4
    assert record["orientations"][0] == "00"
    # the count is 2^m, and only --max-list orientations are listed
    (tmp_path / "kg62.g").write_text(format_graph(kneser(6, 2)))
    code, out = _run(capsys, ["orient", "enumerate", str(tmp_path / "kg62.g")])
    assert code == 0 and out == "orientations 35184372088832\n"
    code, out = _run(capsys, ["orient", "enumerate", str(tmp_path / "kg62.g"),
                              "--format", "json"])
    listed = json.loads(out)["orientations"]
    assert len(listed) == 64 and listed[:2] == ["0" * 45, "0" * 44 + "1"]


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
    monkeypatch.setattr(Deadline, "check", lambda self: bool(armed))
    code = run(["solve", "graph-dichromatic", str(path), "--format", "json"])
    captured = capsys.readouterr()
    assert code == 3 and "Traceback" not in captured.err
    cert = json.loads(captured.out)["certificate"]
    assert not cert["exact"] and cert["lower"] <= 2 <= cert["upper"] == 2


def test_cli_output_is_pinned(tmp_path, capsys):
    # the exact bytes each analysis command writes, as text and as JSON
    # (runtime_ms stripped), so a change to the shared renderer shows here
    # bidirected K_{2,4}: list dichromatic number 3, and the rejecting
    # 2-assignment is the classic one with lists {1,2}, {3,4} on one side
    k24 = bidirect(Graph(6, [(u, v) for u in (0, 1) for v in range(2, 6)]))
    for name, obj in (("k3.g", kneser(3, 1)), ("p3.g", Graph(3, [(0, 1), (1, 2)])),
                      ("petersen.g", kneser(5, 2)), ("k24.d", k24)):
        (tmp_path / name).write_text(format_graph(obj))
    colouring = tmp_path / "colours.json"
    colouring.write_text(json.dumps({"palette": [0, 1, 2], "assignment": [0, 1, 2]}))
    check = ["check", "coloring", str(tmp_path / "k3.g"), "--coloring", str(colouring)]
    bound = ["bound", "g", "--l1", "2", "--l2", "1", "--n", "4", "--s", "1", "--t", "1",
             "--u", "2"]
    version = dichroma.__version__
    cases = [
        (["solve", "chromatic", str(tmp_path / "petersen.g")], "chromatic 3\n"),
        (check, "proper True\n"),
        (["mc", "biclique", "--graph", "K4", "--l", "2", "--trials", "50", "--seed", "1"],
         "ci_high 1.0\nci_low 0.9286524008666414\nestimate 1.0\nsuccesses 50\ntrials 50\n"),
        (bound, "0.6065306597126334\n"),
        (["embed", "rook-in-kneser", "--n", "6", "--k", "2"],
         "embedded 9 vertices into 15; adjacency preserved\n"),
        (["orient", "enumerate", str(tmp_path / "p3.g")], "orientations 4\n"),
        (["verify", "kneser-chi"],
         "verify kneser-chi: ok\n  cases: 6\n  unknown: 0\n  violations: 0\n"),
        (bound + ["--format", "json"],
         '{\n  "command": "bound g",\n  "params": {\n    "l1": 2,\n    "l2": 1,\n'
         '    "n": 4,\n    "s": 1,\n    "t": 1,\n    "u": 2\n  },\n'
         f'  "schema": "dichroma.result.v1",\n  "tool_version": "{version}",\n'
         '  "value": 0.6065306597126334\n}\n'),
        (check + ["--format", "json"],
         '{\n  "command": "check coloring",\n  "params": {},\n  "proper": true,\n'
         f'  "schema": "dichroma.result.v1",\n  "tool_version": "{version}"\n}}\n'),
        (["solve", "list-dichromatic", str(tmp_path / "k24.d"), "--format", "json"],
         '{\n  "certificate": {\n'
         '    "detail": "3 meets the upper bound 1 + in/out-degeneracy",\n'
         '    "exact": true,\n    "lower": 3,\n    "rejecting_assignment": {\n'
         '      "k": 2,\n      "lists": [\n'
         '        [\n          1,\n          2\n        ],\n'
         '        [\n          3,\n          4\n        ],\n'
         '        [\n          1,\n          3\n        ],\n'
         '        [\n          1,\n          4\n        ],\n'
         '        [\n          2,\n          3\n        ],\n'
         '        [\n          2,\n          4\n        ]\n'
         '      ],\n      "palette": [\n        1,\n        2,\n        3,\n        4\n      ]\n'
         '    },\n    "upper": 3,\n    "value": 3\n  },\n'
         '  "command": "solve list-dichromatic",\n  "params": {\n    "timeout_s": 120\n  },\n'
         f'  "schema": "dichroma.result.v1",\n  "tool_version": "{version}"\n}}\n'),
    ]
    for argv, expected in cases:
        code, out = _run(capsys, argv)
        assert code == 0
        assert re.sub(r'\n  "runtime_ms": [^\n]*', "", out) == expected, argv


def test_cli_solve_csv_reads_back(monkeypatch, tmp_path, capsys):
    import csv

    path = tmp_path / "petersen.g"
    path.write_text(format_graph(kneser(5, 2)))
    solve = ["solve", "graph-dichromatic", str(path), "--format", "csv"]
    code, out = _run(capsys, solve)
    reader = csv.DictReader(out.splitlines())
    assert code == 0 and reader.fieldnames == ["command", "exact", "lower", "upper", "value"]
    assert list(reader) == [{"command": "solve graph-dichromatic", "exact": "True",
                             "lower": "2", "upper": "2", "value": "2"}]
    # the command's deadline also runs while the input is parsed; it
    # reports time up from the solve's first poll on
    parse = dichroma.graphio.parse_graph_text

    def parse_then_expire(text, deadline=None):
        obj = parse(text, deadline)
        monkeypatch.setattr(Deadline, "check", lambda self: True)
        return obj

    monkeypatch.setattr(dichroma.graphio, "parse_graph_text", parse_then_expire)
    code, out = _run(capsys, solve)
    assert code == 3
    assert list(csv.DictReader(out.splitlines())) == [
        {"command": "solve graph-dichromatic", "exact": "False",
         "lower": "1", "upper": "2", "value": ""}]


@pytest.mark.parametrize("argv", [
    ["solve", "chromatic", "{missing}"],
    ["solve", "chromatic", "{dir}"],
    ["check", "coloring", "{graph}", "--coloring", "{missing}"],
    ["check", "cover", "{digraph}", "--collection", "{missing}"],
    ["solve", "chromatic", "{graph}", "--out", "{missing}/out.txt"],
])
def test_cli_file_errors_exit_2(tmp_path, capsys, argv):
    (tmp_path / "k3.g").write_text(format_graph(kneser(3, 1)))
    (tmp_path / "c3.d").write_text("d 3 3\na 0 1\na 1 2\na 2 0\n")
    argv = [a.format(missing=tmp_path / "missing", dir=tmp_path, graph=tmp_path / "k3.g",
                     digraph=tmp_path / "c3.d") for a in argv]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("dichroma: ")
    assert "Traceback" not in captured.err
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("flag, payload", [
    ("--collection", {"s": 1}),
    ("--collection", [1, 2]),
    ("--collection", {"members": [1, 2], "s": 2, "t": 1}),
    ("--collection", {"members": [[0, 3]], "s": 1, "t": 2}),
    ("--collection", {"members": [[0, -1]], "s": 1, "t": 2}),
    ("--collection", {"members": [[0]], "s": "1", "t": 1}),
    ("--coloring", {"palette": 5, "assignment": [0, 1, 2]}),
    ("--coloring", {"palette": [0, 1, 2], "assignment": [0, [1], 2]}),
    ("--coloring", {"palette": [0, 1, 2]}),
    ("--coloring", [0, 1, 2]),
    ("--coloring", {"palette": [0, 1, 2], "assignment": [0, 1, True]}),
])
def test_cli_malformed_json_inputs_exit_2(tmp_path, capsys, flag, payload):
    (tmp_path / "c3.d").write_text("d 3 3\na 0 1\na 1 2\na 2 0\n")
    data = tmp_path / "input.json"
    data.write_text(json.dumps(payload))
    cmd = ["check", "cover"] if flag == "--collection" else ["check", "dicoloring"]
    assert run(cmd + [str(tmp_path / "c3.d"), flag, str(data)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith(f"dichroma: {data}: expected a JSON object with ")


def test_cli_size_limit_is_a_usage_error(capsys):
    # a request over a construction's size limit is refused before any
    # search starts, so it exits as a usage error, not as a spent deadline
    assert run(["gen", "kneser", "40", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "budget exceeded" not in captured.err
    assert captured.err == "dichroma: C(40,10) = 847660528 exceeds limit 5000\n"


@pytest.mark.parametrize("argv", [
    ["orient", "certified", "{graph}", "--l", "2", "--max-attempts", "0"],
    ["mc", "biclique", "--graph", "K4", "--l", "2", "--trials", "3", "--threads", "-5"],
    ["mc", "acceptance", "{graph}", "--l1", "2", "--l2", "1", "--trials", "3", "--threads", "0"],
    ["verify", "sabidussi", "--threads", "x"],
    ["orient", "enumerate", "{graph}", "--max-list", "-1"],
    ["verify", "sabidussi", "--max-n", "3", "--pairs", "-1"],
    ["verify", "bidirect", "--max-n", "-1"],
    ["verify", "tensor-bound", "--max-n", "0"],
    ["verify", "sabidussi", "--max-n", "-1"],
    ["verify", "sabidussi", "--pairs", "3", "--pair-max-n", "0"],
])
def test_cli_counts_must_be_positive(tmp_path, capsys, argv):
    # a malformed count is a usage error, before any search or worker starts
    (tmp_path / "k3.g").write_text(format_graph(kneser(3, 1)))
    assert run([a.format(graph=tmp_path / "k3.g") for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "budget exceeded" not in captured.err
    assert f"error: argument {argv[-2]}: " in captured.err and "Traceback" not in captured.err


def test_cli_zero_counts_are_accepted(tmp_path, capsys):
    (tmp_path / "k3.g").write_text(format_graph(kneser(3, 1)))
    code, out = _run(capsys, ["orient", "enumerate", str(tmp_path / "k3.g"),
                              "--max-list", "0", "--format", "json"])
    assert code == 0 and json.loads(out)["orientations"] == []
    code, out = _run(capsys, ["verify", "sabidussi", "--max-n", "3", "--pairs", "0",
                              "--format", "json"])
    params = json.loads(out)["params"]
    assert code == 0 and params["random_pairs"] == 0 and params["pairs"] == 105
    # --max-n 0 leaves only the random pairs
    code, out = _run(capsys, ["verify", "sabidussi", "--max-n", "0", "--pairs", "2",
                              "--format", "json"])
    params = json.loads(out)["params"]
    assert code == 0 and params["random_pairs"] == 2 and params["pairs"] == 2


def test_cli_certification_failure_exits_3(tmp_path, capsys):
    code, out = _run(capsys, ["gen", "multipartite", "2", "4"])
    path = tmp_path / "k2222.g"
    path.write_text(out)
    code = run(["orient", "certified", str(path), "--l", "2", "--max-attempts", "3"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == ("dichroma: budget exceeded: "
                            "no breaking orientation found in 3 attempts\n")


# The modules bench/layers.py wraps right after `import dichroma.cli`:
# Tracer.install reads each from sys.modules, so the CLI registers them
# there as lazy handles whose code runs on first attribute access.
TRACED_MODULES = ("randomized", "graphio", "records", "solvers", "catalogue",
                  "products", "verify", "parallel")

# Prints the dichroma modules whose code has run, then those registered
# but not yet run, telling them apart by type alone: any attribute access
# would run a lazy module's code.
EXECUTED_PROBE = ("import sys, types; ran = [m for m, mod in sorted(sys.modules.items()) "
                  "if m.split('.')[0] == 'dichroma' and type(mod) is types.ModuleType]; "
                  "print(' '.join(ran)); print(' '.join(sorted(m for m in sys.modules "
                  "if m.split('.')[0] == 'dichroma' and m not in ran)))")


def _executed(env, prelude: str) -> tuple[set, set]:
    out = subprocess.run([sys.executable, "-c", f"{prelude}; {EXECUTED_PROBE}"],
                         capture_output=True, text=True, env=env, check=True).stdout
    ran, lazy = out.splitlines()[-2:]  # after whatever the prelude printed
    return set(ran.split()), set(lazy.split())


def test_cli_import_loads_only_eager_modules(tmp_path):
    src = str(Path(dichroma.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    probe = "import sys, dichroma.cli; print(' '.join(sorted(sys.modules)))"
    loaded = set(subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                                env=env, check=True).stdout.split())
    assert not loaded & {"dichroma.covers", "dichroma.generators", "dataclasses", "inspect"}
    ran, lazy = _executed(env, "import dichroma.cli")
    assert ran == {"dichroma", "dichroma.core", "dichroma.errors", "dichroma.cli"}
    assert lazy == {f"dichroma.{m}" for m in TRACED_MODULES}
    # each command that needs a lazy module imports it itself
    cli = [sys.executable, "-m", "dichroma.cli"]
    rook = subprocess.run(cli + ["gen", "rook", "3"], capture_output=True, text=True,
                          env=env, check=True).stdout
    assert rook.startswith("g 9 18\n")
    digraph = subprocess.run(cli + ["orient", "random", "--seed", "1"], input=rook,
                             capture_output=True, text=True, env=env, check=True).stdout
    assert digraph.startswith("d 9 18\n")
    (tmp_path / "d.g").write_text(digraph)
    for argv, expected in ((["embed", "rook-in-kneser", "--n", "6", "--k", "2"],
                            "embedded 9 vertices into 15; adjacency preserved\n"),
                           (["verify", "kneser-chi"], "verify kneser-chi: ok\n"),
                           (["check", "cover", str(tmp_path / "d.g"), "--beta", "3"],
                            "covers_all_acyclic True\n")):
        proc = subprocess.run(cli + argv, capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith(expected)


def test_cli_lazy_modules_import_as_usual():
    # a module the CLI registered lazily still imports by its dotted name
    src = str(Path(dichroma.__file__).resolve().parents[1])
    probe = ("import dichroma.cli, dichroma.verify; from dichroma import solvers; "
             "print(callable(dichroma.verify.kneser_chi_suite), "
             "callable(solvers.dichromatic_number))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    assert out.split() == ["True", "True"]


@pytest.mark.parametrize("argv, untouched", [
    (["bound", "g", "--l1", "3", "--l2", "2", "--n", "10", "--s", "2", "--t", "2", "--u", "3"],
     {"solvers", "verify", "catalogue", "products", "parallel"}),
    (["check", "cover", "{d}", "--beta", "3"],
     {"solvers", "verify", "catalogue", "products", "parallel"}),
    (["embed", "rook-in-kneser", "--n", "6", "--k", "2"],
     {"solvers", "verify", "catalogue", "parallel"}),
])
def test_cli_command_runs_only_the_modules_it_calls(tmp_path, argv, untouched):
    src = str(Path(dichroma.__file__).resolve().parents[1])
    path = tmp_path / "d.g"
    path.write_text(format_graph(random_orientation(rook(3), RngSpec(1))))
    argv = [a.format(d=path) for a in argv]
    _, lazy = _executed({**os.environ, "PYTHONPATH": src},
                        f"from dichroma.cli import run; assert run({argv!r}) == 0")
    assert {f"dichroma.{m}" for m in untouched} <= lazy


def _subcommands(parser) -> dict:
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


# One argv per leaf, with its required arguments and a few common options.
LEAF_ARGS = {
    ("gen", "kneser"): ["5", "2"],
    ("gen", "multipartite"): ["2", "3"],
    ("gen", "rook"): ["3"],
    ("gen", "borsuk"): ["--n", "2", "--a", "1.5", "--cube-side", "0.5", "--delta", "0.1"],
    ("gen", "named"): ["K4"],
    ("product", "cartesian"): ["a.g", "b.g"],
    ("product", "tensor"): ["a.g", "b.g"],
    ("orient", "random"): [],
    ("orient", "enumerate"): ["g.g", "--max-list", "3"],
    ("orient", "certified"): ["--l", "2", "--break-cliques", "--max-attempts", "9"],
    ("solve", "chromatic"): ["g.g"],
    ("solve", "dichromatic"): [],
    ("solve", "graph-dichromatic"): ["g.g"],
    ("solve", "list-chromatic"): ["g.g"],
    ("solve", "list-dichromatic"): ["d.g"],
    ("check", "coloring"): ["g.g", "--coloring", "c.json"],
    ("check", "dicoloring"): ["--coloring", "c.json"],
    ("check", "cover"): ["d.g", "--collection", "c.json"],
    ("check", "semicover"): ["--lambda", "3", "--beta", "1"],
    ("mc", "biclique"): ["--graph", "K4", "--trials", "3", "--l", "2"],
    ("mc", "acceptance"): ["d.g", "--trials", "3", "--l1", "2", "--l2", "1"],
    ("bound", "g"): ["--n", "10", "--s", "2", "--t", "2", "--u", "3", "--l1", "3", "--l2", "2"],
    ("bound", "concentration"): ["--n", "10", "--c", "1", "--t", "2"],
    ("bound", "expectation"): ["--m", "3", "--u", "4", "--k", "2", "--a", "1"],
    ("verify", "sabidussi"): ["--max-n", "3", "--pairs", "4", "--pair-max-n", "4"],
    ("verify", "bidirect"): ["--max-n", "5"],
    ("verify", "kneser-chi"): [],
    ("verify", "catalogue"): ["--seed", "3"],
    ("verify", "tensor-bound"): ["--max-n", "3", "--threads", "2"],
    ("embed", "rook-in-kneser"): ["--n", "6", "--k", "2"],
    ("embed", "kneser-tensor"): ["--n", "6", "--k", "2", "--n1", "4", "--k1", "1"],
}


# The options of each leaf besides --timeout-s, --format and --out, which
# every leaf takes: exactly those its handler reads.
LEAF_OPTIONS = {
    ("gen", "borsuk"): {"--n", "--a", "--delta", "--cube-side"},
    ("orient", "random"): {"--seed"},
    ("orient", "enumerate"): {"--max-list"},
    ("orient", "certified"): {"--l", "--seed", "--max-attempts", "--break-cliques"},
    ("check", "coloring"): {"--coloring"},
    ("check", "dicoloring"): {"--coloring"},
    ("check", "cover"): {"--collection", "--beta"},
    ("check", "semicover"): {"--collection", "--beta", "--lambda"},
    ("mc", "biclique"): {"--graph", "--trials", "--l", "--seed", "--threads"},
    ("mc", "acceptance"): {"--collection", "--trials", "--beta", "--l1", "--l2", "--seed",
                           "--threads"},
    ("bound", "g"): {"--l1", "--l2", "--n", "--s", "--t", "--u"},
    ("bound", "concentration"): {"--n", "--c", "--t"},
    ("bound", "expectation"): {"--m", "--u", "--k", "--a"},
    ("verify", "sabidussi"): {"--seed", "--threads", "--max-n", "--pairs", "--pair-max-n"},
    ("verify", "bidirect"): {"--threads", "--max-n"},
    ("verify", "kneser-chi"): {"--threads"},
    ("verify", "catalogue"): {"--seed", "--threads"},
    ("verify", "tensor-bound"): {"--threads", "--max-n"},
    ("embed", "rook-in-kneser"): {"--n", "--k"},
    ("embed", "kneser-tensor"): {"--n", "--k", "--n1", "--k1"},
}


def test_cli_leaves_take_only_the_options_they_read():
    from dichroma.cli import _build_parser

    full = _build_parser(None)
    slots = 0
    for group, sub in _subcommands(full).items():
        for leaf, parser in _subcommands(sub).items():
            options = [a.option_strings[0] for a in parser._actions
                       if a.option_strings and a.option_strings[0] != "-h"]
            assert len(options) == len(set(options))
            assert set(options) == {"--timeout-s", "--format", "--out"} | \
                LEAF_OPTIONS.get((group, leaf), set()), (group, leaf)
            slots += len(options)
    assert slots == 153


def test_cli_leaves_refuse_options_they_do_not_read(tmp_path, capsys):
    (tmp_path / "g.g").write_text(format_graph(kneser(4, 1)))
    for argv in (["solve", "chromatic", str(tmp_path / "g.g"), "--l", "3"],
                 ["gen", "kneser", "5", "2", "--seed", "1"],
                 ["verify", "kneser-chi", "--seed", "5"]):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments" in captured.err
    for argv, flag in ((["orient", "certified", str(tmp_path / "g.g")], "--l"),
                       (["mc", "biclique", "--graph", "K4", "--trials", "3"], "--l"),
                       (["mc", "acceptance", "--trials", "3", "--l1", "2"], "--l2"),
                       (["bound", "g", "--n", "4", "--s", "1", "--t", "1", "--u", "2",
                         "--l2", "1"], "--l1")):
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"required: {flag}\n" in captured.err


@pytest.mark.parametrize("argv", [
    ["check", "cover", "d.g"],
    ["check", "semicover", "d.g", "--lambda", "3"],
    ["mc", "acceptance", "d.g", "--trials", "3", "--l1", "2", "--l2", "1"],
])
def test_cli_collection_and_beta_exclude_each_other(capsys, argv):
    # --beta only shapes the inferred rook collection, so with a file it would go unread
    assert run(argv + ["--collection", "c.json", "--beta", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --beta: not allowed with argument --collection" in captured.err


def test_cli_group_parser_parses_as_the_full_tree():
    from dichroma.cli import _build_parser

    full = _build_parser(None)
    assert set(LEAF_ARGS) == {(group, leaf) for group, sub in _subcommands(full).items()
                              for leaf in _subcommands(sub)}
    for (group, leaf), rest in LEAF_ARGS.items():
        argv = [group, leaf, *rest, "--format", "json", "--timeout-s", "5"]
        one = _build_parser(group)
        assert set(_subcommands(one)) == set(_subcommands(full))
        assert one.parse_args(argv) == full.parse_args(argv)


def test_cli_group_parser_prints_the_full_tree_text(monkeypatch, capsys):
    # help, usage errors and --version read the same with the per-group
    # tree that run builds as with the whole tree
    import dichroma.cli as cli

    argvs = [["--help"], ["--version"], [], ["nosuch"], ["solve"], ["solve", "nosuch"],
             ["solve", "chromatic", "--seed", "x"]]
    argvs += [[group, "--help"] for group in dict.fromkeys(g for g, _ in LEAF_ARGS)]
    argvs += [[group, leaf, "--help"] for group, leaf in LEAF_ARGS]
    argvs += [["gen", "kneser"], ["gen", "borsuk", "--n", "2"], ["check", "coloring"],
              ["mc", "biclique"], ["bound", "g"], ["embed", "kneser-tensor", "--n", "6"]]
    per_group = []
    for argv in argvs:
        code = run(argv)
        per_group.append((code, *capsys.readouterr()))
    full = cli._build_parser(None)
    monkeypatch.setattr(cli, "_build_parser", lambda group: full)
    for argv, seen in zip(argvs, per_group):
        code = run(argv)
        assert (code, *capsys.readouterr()) == seen, argv
    assert per_group[0][0] == 0 and per_group[0][1].startswith("usage: dichroma ")
    assert per_group[5][0] == 2 and "invalid choice: 'nosuch'" in per_group[5][2]


def test_graph_text_round_trip_both_kinds():
    for obj in (Graph(4, [(3, 0), (1, 2)]), Digraph(4, [(3, 0), (0, 3), (2, 1)])):
        text = format_graph(obj)
        assert parse_graph_text(text) == obj and format_graph(parse_graph_text(text)) == text


def test_cli_product_of_graph_and_digraph_exits_2(tmp_path, capsys):
    (tmp_path / "a.g").write_text("g 2 1\ne 0 1\n")
    (tmp_path / "b.d").write_text("d 2 1\na 0 1\n")
    for left, right in (("a.g", "b.d"), ("b.d", "a.g")):
        code = run(["product", "cartesian", str(tmp_path / left), str(tmp_path / right)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "needs two graphs or two digraphs" in captured.err


def test_cli_bound_g_writes_an_overflow_as_null(capsys):
    argv = ["bound", "g", "--l1", "3", "--l2", "1", "--n", "1", "--s", "1000000000",
            "--t", "1", "--u", "1000000"]
    code, out = _run(capsys, argv + ["--format", "json"])
    assert code == 0 and "Infinity" not in out and json.loads(out)["value"] is None
    code, out = _run(capsys, argv)
    assert code == 0 and out == "inf\n"


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_cli_rejects_non_finite_parameters(tmp_path, capsys, value):
    (tmp_path / "k2.d").write_text(format_graph(bidirect(Graph(2, [(0, 1)]))))
    for argv in (["bound", "concentration", "--n", "3", "--c", value, "--t", "1"],
                 ["bound", "concentration", "--n", "3", "--c", "1", "--t", value],
                 ["check", "semicover", str(tmp_path / "k2.d"), "--beta", "1",
                  "--lambda", value]):
        for fmt in ("text", "json"):
            code = run(argv + ["--format", fmt])
            captured = capsys.readouterr()
            assert (code, captured.out) == (2, ""), argv
            assert "Traceback" not in captured.err


def test_record_json_refuses_non_finite_numbers():
    from dichroma.records import record_json

    assert json.loads(record_json({"value": 1.5})) == {"value": 1.5}
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            record_json({"value": bad})


def test_cli_mc_acceptance_with_a_bound_beyond_64_bits(tmp_path):
    # C(68, 34) > 2**64 sublists per vertex; the rank draw must still end
    (tmp_path / "d1.txt").write_text("d 1 0\n")
    src = str(Path(dichroma.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "dichroma.cli", "mc", "acceptance", str(tmp_path / "d1.txt"),
         "--l1", "68", "--l2", "34", "--trials", "1", "--timeout-s", "2"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0 and "successes 1\n" in proc.stdout


HUGE = "1" + "0" * 400


@pytest.mark.parametrize("argv, value", [
    (["concentration", "--n", "3", "--c", "1e-200", "--t", "1"], 0.0),
    (["concentration", "--n", HUGE, "--c", "1", "--t", "1"], 2.0),
    (["g", "--l1", HUGE, "--l2", "1", "--n", "4", "--s", "1", "--t", "1", "--u", "2"],
     math.exp(-2.0)),
    (["g", "--l1", HUGE, "--l2", "1", "--n", HUGE, "--s", "1", "--t", "1", "--u", "2"], 0.0),
    # both terms of log g overflow, and their logarithms tie as floats
    (["g", "--l1", "3", "--l2", "1", "--n", "2444345872659853" + "0" * 385, "--s", "2",
      "--t", "1", "--u", HUGE], None),
    (["expectation", "--m", HUGE, "--u", "4", "--k", "1", "--a", "1"], math.inf),
    (["expectation", "--m", "3", "--u", "10000000", "--k", "5000000", "--a", "1"], 1.5),
    # both overflow, but the gain's logarithm is the larger: g = inf
    (["g", "--l1", "3", "--l2", "1", "--n", HUGE, "--s", "2", "--t", "1", "--u", HUGE], math.inf),
])
def test_cli_bounds_past_the_float_range(capsys, argv, value):
    # a value the floats cannot decide exits 2 with one line, never a guess
    for fmt in ("text", "json"):
        code = run(["bound"] + argv + ["--format", fmt])
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        if value is None:
            assert (code, captured.out) == (2, "")
            assert captured.err.startswith("dichroma: cannot decide g")
            assert captured.err.count("\n") == 1
        elif fmt == "text":
            assert code == 0 and float(captured.out) == pytest.approx(value)
        else:
            got = json.loads(captured.out)["value"]
            assert code == 0 and got == (None if math.isinf(value) else pytest.approx(value))


@pytest.mark.parametrize("argv", [
    ["gen", "named", "K6000"],
    ["gen", "named", "C6000"],
    ["gen", "named", "P6000"],
    ["gen", "named", "K3000,3000"],
    ["mc", "biclique", "--graph", "K6000", "--trials", "1", "--l", "2"],
])
def test_cli_named_graphs_obey_the_vertex_limit(capsys, argv):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "dichroma: 6000 vertices exceed limit 5000\n"


# K2,4 with every edge as a digon: chi = 2, list dichromatic number 3 (as
# chi_l(K2,4) = 3), closed by 1 + in/out-degeneracy after the 2-sweep
# finds the rejecting assignment below
BIDIRECTED_K24 = "d 6 16\n" + "".join(
    f"a {u} {v}\na {v} {u}\n" for u in (0, 1) for v in range(2, 6))
LIST_DICHROMATIC_K24 = """{
  "certificate": {
    "detail": "3 meets the upper bound 1 + in/out-degeneracy",
    "exact": true,
    "lower": 3,
    "rejecting_assignment": {
      "k": 2,
      "lists": [
        [
          1,
          2
        ],
        [
          3,
          4
        ],
        [
          1,
          3
        ],
        [
          1,
          4
        ],
        [
          2,
          3
        ],
        [
          2,
          4
        ]
      ],
      "palette": [
        1,
        2,
        3,
        4
      ]
    },
    "upper": 3,
    "value": 3
  },
  "command": "solve list-dichromatic",
  "params": {
    "timeout_s": 120
  },
  "schema": "dichroma.result.v1",
  "tool_version": "0.1.0"
}
"""


def test_cli_list_dichromatic_json_golden(tmp_path, capsys):
    path = tmp_path / "k24.d"
    path.write_text(BIDIRECTED_K24)
    code, out = _run(capsys, ["solve", "list-dichromatic", str(path), "--format", "json"])
    assert code == 0
    assert re.sub(r'\n  "runtime_ms": [^\n]*', "", out) == LIST_DICHROMATIC_K24


def test_cli_refuses_past_the_edge_limit_before_building(capsys):
    # K5000 is at the vertex limit; its 12.5M edges are refused before any is built
    t0 = time.perf_counter()
    assert run(["gen", "named", "K5000"]) == 2
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "dichroma: 12497500 edges exceed limit 2000000\n"
