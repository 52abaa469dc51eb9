"""The three workloads: seeded batches of dichroma command lines, each
with the check its output must pass.

A batch is built from the benchmark seed alone. Input graphs are written
as graph-text files under the run's work directory; the program receives
only those files and, for Monte Carlo commands, a --seed. Expected values
come from bench/oracles.py or from bench/reference.json, never from the
package under test.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import oracles as O

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# Catalogue sizes from the OEIS: graphs A000088 (1, 2, 4, 11, 34, 156,
# 1044), oriented graphs A001174 (1, 2, 7, 42), bipartite graphs A033995
# (1, 2, 3, 7, 13, 35, 88), each for 1.. vertices.
GRAPHS_UP_TO_6 = 208
GRAPHS_UP_TO_7 = 1252
NON_BIPARTITE_UP_TO_7 = GRAPHS_UP_TO_7 - (1 + 2 + 3 + 7 + 13 + 35 + 88)
DIGRAPHS_UP_TO_4 = (1 + 2 + 7 + 42) + (1 + 2 + 4 + 11) - 4  # edgeless ones once
CATALOGUE_PAIRS_4 = DIGRAPHS_UP_TO_4 * (DIGRAPHS_UP_TO_4 + 1) // 2
SABIDUSSI_RANDOM_PAIRS = 200
CATALOGUE_DUAL_RANDOM = 40
CATALOGUE_CHECKS = DIGRAPHS_UP_TO_4 + CATALOGUE_DUAL_RANDOM + (1 + 3 + 10) + 1 + 6

Check = Callable[[int, str], Optional[str]]


@dataclass
class Command:
    """One timed command: a single argv, or several joined by pipes."""

    label: str
    stages: list[list[str]]
    check: Check
    same_as: Optional[str] = None  # label whose output this one must repeat


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def _certificate(code: int, out: str, expected: int) -> tuple[Optional[str], dict]:
    if code != 0:
        return f"exit code {code}", {}
    cert = json.loads(out)["certificate"]
    if not cert["exact"] or cert["value"] != expected:
        return f"value {cert['value']} (exact={cert['exact']}), expected {expected}", cert
    return None, cert


def _witness_error(cert: dict, n: int, links, directed: bool) -> Optional[str]:
    w = cert.get("witness")
    if w is None:
        return "no witness"
    ok = (O.proper_dicolouring if directed else O.proper_colouring)(n, links, w["assignment"])
    if not ok:
        return "witness is not a proper colouring"
    if len(set(w["assignment"])) > cert["value"]:
        return "witness uses more colours than the value"
    return None


def dichromatic_check(n: int, arcs, expected: int) -> Check:
    def check(code: int, out: str) -> Optional[str]:
        err, cert = _certificate(code, out, expected)
        return err or _witness_error(cert, n, arcs, True)
    return check


def chromatic_check(n: int, edges, expected: int) -> Check:
    def check(code: int, out: str) -> Optional[str]:
        err, cert = _certificate(code, out, expected)
        return err or _witness_error(cert, n, edges, False)
    return check


def graph_dichromatic_check(n: int, edges, expected: int) -> Check:
    base = sorted((min(u, v), max(u, v)) for u, v in edges)

    def check(code: int, out: str) -> Optional[str]:
        err, cert = _certificate(code, out, expected)
        if err:
            return err
        bits = cert.get("witness_orientation", "")
        if len(bits) != len(base):
            return "witness orientation has the wrong length"
        arcs = [(v, u) if b == "1" else (u, v) for (u, v), b in zip(base, bits)]
        if O.is_acyclic_on(O.out_masks(n, arcs), range(n)) and expected > 1:
            return "witness orientation is acyclic"
        return _witness_error(cert, n, arcs, True)
    return check


def list_check(n: int, links, expected: int, directed: bool) -> Check:
    """Value, the bound chain chi <= value <= 1 + degeneracy, and a
    rejecting (value-1)-assignment that really rejects."""
    if directed:
        lower = O.dichromatic_by_partitions(n, links)
        upper = 1 + O.inout_degeneracy(n, links)
        class_ok = O.acyclic_class_test(n, links)
    else:
        both = list(links) + [(v, u) for u, v in links]
        lower = O.dichromatic_by_partitions(n, both)
        upper = 1 + O.degeneracy(n, links)
        class_ok = O.independent_class_test(n, links)

    def check(code: int, out: str) -> Optional[str]:
        err, cert = _certificate(code, out, expected)
        if err:
            return err
        if not lower <= cert["value"] <= upper:
            return f"value {cert['value']} outside [{lower}, {upper}]"
        if expected > 1:
            rej = cert.get("rejecting_assignment")
            if rej is None or rej["k"] != expected - 1:
                return "missing rejecting assignment"
            if any(len(lst) != rej["k"] for lst in rej["lists"]) or len(rej["lists"]) != n:
                return "rejecting assignment has the wrong shape"
            if O.list_colourable(rej["lists"], class_ok):
                return "rejecting assignment admits a colouring"
        return None
    return check


def _solve(work: Path, kind: str, label: str, n: int, links, directed: bool, check: Check) -> Command:
    path = _write(work / f"{label}.txt", O.graph_text(n, links, directed))
    return Command(label, [["solve", kind, path, "--format", "json"]], check)


def _relabelled(rng: O.Rng, n: int, links) -> list[tuple[int, int]]:
    return O.relabel(links, rng.permutation(n))


def exact_solve(seed: int, work: Path) -> list[Command]:
    """Few deep searches (tournaments, orientation sweeps) against many
    solves that bounds close at once."""
    rng = O.Rng(10, seed)
    ref = json.loads(REFERENCE.read_text())
    cmds: list[Command] = []

    def solve(*args):
        cmds.append(_solve(work, *args))

    # Relabelling a tournament reorders the solver's search and moves its
    # cost by more than 10x, so the pool keeps its labels and the seed only
    # decides whether every arc is reversed: same value, same search tree.
    for i, t in enumerate(ref["tournaments"]):
        arcs = [tuple(a) for a in t["arcs"]]
        if rng.u64() >> 63:
            arcs = [(v, u) for u, v in arcs]
        solve("dichromatic", f"tournament{i}", t["n"], arcs, True,
              dichromatic_check(t["n"], arcs, t["dichromatic"]))

    for g, copies in zip(ref["graph_dichromatic"], (2, 4)):
        for c in range(copies):
            edges = _relabelled(rng, g["n"], g["edges"])
            solve("graph-dichromatic", f"sweep-{g['name']}-{c}", g["n"], edges, False,
                  graph_dichromatic_check(g["n"], edges, g["value"]))

    families = [(f"KG({a},{b})", O.kneser_edges(a, b), a - 2 * b + 2)
                for a, b in ((5, 2), (6, 2), (7, 2), (7, 3))]
    families += [(f"rook({q})", O.rook_edges(q), q) for q in (3, 4, 5, 6)]
    for name, (n, edges), chi in families:
        for c in range(2):
            relabelled = _relabelled(rng, n, edges)
            solve("chromatic", f"chromatic-{name}-{c}", n, relabelled, False,
                  chromatic_check(n, relabelled, chi))

    for name, (n, edges) in (("KG(5,2)", O.kneser_edges(5, 2)), ("KG(6,2)", O.kneser_edges(6, 2)),
                             ("KG(7,2)", O.kneser_edges(7, 2)), ("rook(4)", O.rook_edges(4)),
                             ("rook(5)", O.rook_edges(5))):
        for c in range(6):
            arcs = O.oriented_arcs(_relabelled(rng, n, edges), rng.u64())
            solve("dichromatic", f"orientation-{name}-{c}", n, arcs, True,
                  dichromatic_check(n, arcs, O.dichromatic_by_search(n, arcs)))

    # Directed Sabidussi identity: the product's value is the larger
    # factor value, each factor solved by set partitions.
    for c in range(40):
        n1, n2 = 1 + rng.below(5), 1 + rng.below(5)
        a1, a2 = O.random_digraph(rng, n1), O.random_digraph(rng, n2)
        n, arcs = O.cartesian_arcs(n1, a1, n2, a2)
        expected = max(O.dichromatic_by_partitions(n1, a1), O.dichromatic_by_partitions(n2, a2))
        solve("dichromatic", f"product-{c}", n, arcs, True, dichromatic_check(n, arcs, expected))

    return rng.shuffle(cmds)


def list_solve(seed: int, work: Path) -> list[Command]:
    """Canonical list-assignment sweeps: instances whose lower bound meets
    the degeneracy bound next to instances where it does not."""
    rng = O.Rng(20, seed)
    ref = json.loads(REFERENCE.read_text())
    cmds: list[Command] = []
    # As with tournaments, relabelling moves a digraph's sweep cost by up to
    # 60%; reversing every arc keeps the search tree and the value.
    for i, d in enumerate(ref["list_digraphs"]):
        arcs = [tuple(a) for a in d["arcs"]]
        if rng.u64() >> 63:
            arcs = [(v, u) for u, v in arcs]
        cmds.append(_solve(work, "list-dichromatic", f"digraph{i}-n{d['n']}-l{d['list_dichromatic']}",
                           d["n"], arcs, True, list_check(d["n"], arcs, d["list_dichromatic"], True)))
    for g in ref["list_graphs"]:
        edges = _relabelled(rng, g["n"], g["edges"])
        cmds.append(_solve(work, "list-chromatic", f"graph-{g['name']}", g["n"], edges, False,
                           list_check(g["n"], edges, g["list_chromatic"], False)))
    return rng.shuffle(cmds)


# --- cli-session -----------------------------------------------------------

def _suite_check(suite: str, random_pairs: int = 0) -> Check:
    def check(code: int, out: str) -> Optional[str]:
        if code != 0:
            return f"exit code {code}"
        rec = json.loads(out)
        params, rows = rec["params"], rec["rows"]
        if rec.get("ok") is not True:
            return "suite reported a violation"
        if suite == "sabidussi":
            if params["pairs"] != CATALOGUE_PAIRS_4 + random_pairs:
                return f"{params['pairs']} pairs, expected {CATALOGUE_PAIRS_4 + random_pairs}"
            if any(r["chi_product"] != max(r["chi_left"], r["chi_right"]) or not r["modular_proper"]
                   for r in rows):
                return "a product row breaks the Sabidussi identity"
        elif suite == "tensor-bound":
            if params["pairs"] != CATALOGUE_PAIRS_4:
                return f"{params['pairs']} pairs, expected {CATALOGUE_PAIRS_4}"
            if any(r["chi_product"] > min(r["chi_left"], r["chi_right"]) for r in rows):
                return "a tensor row exceeds the smaller factor"
        elif suite == "bidirect":
            if params["graphs"] != GRAPHS_UP_TO_6:
                return f"{params['graphs']} graphs, expected {GRAPHS_UP_TO_6}"
            if any(r["chi"] != r["dichi"] for r in rows):
                return "a bidirected graph changed value"
        elif suite == "kneser-chi":
            if len(rows) != 6 or any(r["chi"] != r["n"] - 2 * r["k"] + 2 for r in rows):
                return "a Kneser row breaks chi = n - 2k + 2"
        else:
            if params["checks"] != CATALOGUE_CHECKS:
                return f"{params['checks']} checks, expected {CATALOGUE_CHECKS}"
            counts = [r["count"] for r in rows if r["check"] == "enl-evidence" and "count" in r]
            if counts != [NON_BIPARTITE_UP_TO_7]:
                return f"non-bipartite graphs up to 7 vertices: {counts}"
            if not all(r["equal"] for r in rows):
                return "a cross-check row failed"
        return None
    return check


def _mc_check(trials: int, successes: int) -> Check:
    def check(code: int, out: str) -> Optional[str]:
        if code != 0:
            return f"exit code {code}"
        rec = json.loads(out)
        if rec["trials"] != trials or rec["successes"] != successes:
            return f"{rec['successes']}/{rec['trials']} successes, recomputed {successes}/{trials}"
        return None
    return check


def _certified_check(sides, l: int) -> Check:
    side_a, side_b = sides
    edges = {(a, b) for a in side_a for b in side_b}

    def check(code: int, out: str) -> Optional[str]:
        if code != 0:
            return f"exit code {code}"
        kind, n, arcs = O.parse_text(out)
        if kind != "d" or n != len(side_a) + len(side_b) or len(arcs) != len(edges):
            return "output is not an orientation of the input"
        if {(min(u, v), max(u, v)) for u, v in arcs} != edges:
            return "output is not an orientation of the input"
        if O.has_acyclic_biclique(side_a, side_b, arcs, l):
            return f"output keeps an acyclic {l}+{l} biclique"
        return None
    return check


def _embed_check(source, target) -> Check:
    (ns, es), (nt, et) = source, target
    src = {(min(u, v), max(u, v)) for u, v in es}
    tgt = {(min(u, v), max(u, v)) for u, v in et}

    def check(code: int, out: str) -> Optional[str]:
        if code != 0:
            return f"exit code {code}"
        rec = json.loads(out)
        f = rec["mapping"]
        if rec["source_vertices"] != ns or rec["target_vertices"] != nt or len(f) != ns:
            return "embedding sizes differ from the reference constructions"
        if len(set(f)) != ns or not all(0 <= w < nt for w in f):
            return "mapping is not injective"
        for u in range(ns):
            for v in range(u + 1, ns):
                image = (min(f[u], f[v]), max(f[u], f[v]))
                if ((u, v) in src) != (image in tgt):
                    return f"mapping breaks adjacency at ({u},{v})"
        return None
    return check


def _bound_check(expected: float) -> Check:
    def check(code: int, out: str) -> Optional[str]:
        if code != 0:
            return f"exit code {code}"
        value = json.loads(out)["value"]
        if not math.isclose(value, expected, rel_tol=1e-9, abs_tol=1e-300):
            return f"bound {value}, expected {expected}"
        return None
    return check


def _proper_check(expected: bool) -> Check:
    def check(code: int, out: str) -> Optional[str]:
        if code != 0:
            return f"exit code {code}"
        got = json.loads(out)["proper"]
        return None if got is expected else f"proper={got}, expected {expected}"
    return check


def _gen_check(n: int, edges) -> Check:
    want = sorted((min(u, v), max(u, v)) for u, v in edges)

    def check(code: int, out: str) -> Optional[str]:
        if code != 0:
            return f"exit code {code}"
        kind, got_n, links = O.parse_text(out)
        if kind != "g" or got_n != n or sorted(links) != want:
            return "generated graph differs from the reference construction"
        return None
    return check


def _tensor_edges(g1, g2) -> tuple[int, list[tuple[int, int]]]:
    (n1, e1), (n2, e2) = g1, g2
    edges = []
    for a, b in e1:
        for c, d in e2:
            edges.append((a * n2 + c, b * n2 + d))
            edges.append((a * n2 + d, b * n2 + c))
    return n1 * n2, edges


def _clean_miss_seed(rng: O.Rng, edges, sides, l: int, keys) -> int:
    """First seed drawn from rng for which every orientation derived with
    the given key tuples has no acyclic l+l biclique. Each such scan is
    exhaustive, so the command's cost does not depend on where a hit
    would have been found."""
    while True:
        seed = rng.below(1 << 31)
        if not any(O.has_acyclic_biclique(*sides, O.oriented_arcs(edges, O.derive(seed, *k)), l)
                   for k in keys):
            return seed


def cli_session(seed: int, work: Path) -> list[Command]:
    """Fresh processes: start-up on every command, cold catalogues, the
    thread fan-out and exhaustive biclique scans."""
    rng = O.Rng(30, seed)
    cmds: list[Command] = []

    for suite in ("sabidussi", "bidirect", "kneser-chi", "catalogue", "tensor-bound"):
        extra = ["--seed", str(rng.below(1 << 31))] if suite in ("sabidussi", "catalogue") else []
        pairs = SABIDUSSI_RANDOM_PAIRS if suite == "sabidussi" else 0
        for threads in (1, 2):
            cmds.append(Command(
                f"verify-{suite}-t{threads}",
                [["verify", suite, "--threads", str(threads), "--format", "json"] + extra],
                _suite_check(suite, pairs),
                same_as=f"verify-{suite}-t1" if threads == 2 else None))

    side_a, side_b = list(range(10)), list(range(10, 20))
    k1010 = [(a, b) for a in side_a for b in side_b]
    graph = _write(work / "k10-10.txt", O.graph_text(20, k1010, False))
    trials, l = 2, 6
    mc_seed = _clean_miss_seed(rng, k1010, (side_a, side_b), l,
                               [(O.DOMAIN_TRIAL, i) for i in range(trials)])
    for threads in (1, 2):
        cmds.append(Command(
            f"mc-biclique-t{threads}",
            [["mc", "biclique", graph, "--l", str(l), "--trials", str(trials),
              "--seed", str(mc_seed), "--threads", str(threads), "--format", "json"]],
            _mc_check(trials, 0), same_as="mc-biclique-t1" if threads == 2 else None))
    cert_seed = _clean_miss_seed(rng, k1010, (side_a, side_b), l, [(0,)])
    cmds.append(Command("orient-certified",
                        [["orient", "certified", graph, "--l", str(l), "--seed", str(cert_seed)]],
                        _certified_check((side_a, side_b), l)))

    families = {"kneser": O.kneser_edges, "rook": O.rook_edges, "multipartite": O.multipartite_edges}
    shapes = [("kneser", (5, 2)), ("kneser", (6, 2)), ("kneser", (7, 2)), ("kneser", (7, 3)),
              ("rook", (3,)), ("rook", (4,)), ("rook", (5,)), ("multipartite", (3, 3))]
    for family, params in shapes:
        n, edges = families[family](*params)
        s = rng.below(1 << 31)
        arcs = O.oriented_arcs(edges, s)
        cmds.append(Command(
            f"pipeline-{family}{''.join(map(str, params))}",
            [["gen", family, *map(str, params)], ["orient", "random", "--seed", str(s)],
             ["solve", "dichromatic", "--format", "json"]],
            dichromatic_check(n, arcs, O.dichromatic_by_search(n, arcs))))

    for n, k in ((6, 2), (8, 2), (9, 3)):
        q = n // k
        cmds.append(Command(f"embed-rook-in-kneser-{n}-{k}",
                            [["embed", "rook-in-kneser", "--n", str(n), "--k", str(k), "--format", "json"]],
                            _embed_check(O.rook_edges(q), O.kneser_edges(n, k))))
    for n, k, n1, k1 in ((8, 2, 4, 1), (10, 3, 6, 2)):
        source = _tensor_edges(O.kneser_edges(n1, k1), O.kneser_edges(n - n1, k - k1))
        cmds.append(Command(f"embed-kneser-tensor-{n}-{k}-{n1}-{k1}",
                            [["embed", "kneser-tensor", "--n", str(n), "--k", str(k),
                              "--n1", str(n1), "--k1", str(k1), "--format", "json"]],
                            _embed_check(source, O.kneser_edges(n, k))))

    for c in range(2):
        l1 = 2 + rng.below(4)
        l2 = 1 + rng.below(l1 - 1)
        n, s, t, u = 4 + rng.below(60), 1 + rng.below(5), 1 + rng.below(4), 1 + rng.below(6)
        cmds.append(Command(f"bound-g-{c}", [["bound", "g", "--l1", str(l1), "--l2", str(l2), "--n", str(n),
                                               "--s", str(s), "--t", str(t), "--u", str(u), "--format", "json"]],
                            _bound_check(O.g_bound(l1, l2, n, s, t, u))))
        n, cc, t = 1 + rng.below(1000), 0.5 + rng.below(8) / 4, rng.below(200) / 4
        cmds.append(Command(f"bound-concentration-{c}",
                            [["bound", "concentration", "--n", str(n), "--c", str(cc), "--t", str(t),
                              "--format", "json"]],
                            _bound_check(O.concentration_bound(n, cc, t))))
        u = 2 + rng.below(20)
        m, k, a = rng.below(100), 1 + rng.below(u), rng.below(u)
        cmds.append(Command(f"bound-expectation-{c}",
                            [["bound", "expectation", "--m", str(m), "--u", str(u), "--k", str(k),
                              "--a", str(a), "--format", "json"]],
                            _bound_check(O.expected_avoiding(m, u, k, a))))

    for c in range(7):
        n = 8
        arcs = O.random_digraph(rng, n)
        assignment = [rng.below(3) for _ in range(n)]
        digraph = _write(work / f"check-{c}.txt", O.graph_text(n, arcs, True))
        colouring = _write(work / f"check-{c}.json",
                           json.dumps({"palette": [0, 1, 2], "assignment": assignment}))
        cmds.append(Command(f"check-dicoloring-{c}",
                            [["check", "dicoloring", digraph, "--coloring", colouring, "--format", "json"]],
                            _proper_check(O.proper_dicolouring(n, arcs, assignment))))

    for family, params, (n, edges) in (("kneser", (6, 2), O.kneser_edges(6, 2)),
                                       ("kneser", (7, 3), O.kneser_edges(7, 3)),
                                       ("rook", (5,), O.rook_edges(5)),
                                       ("multipartite", (3, 3), O.multipartite_edges(3, 3)),
                                       ("multipartite", (2, 5), O.multipartite_edges(2, 5))):
        cmds.append(Command(f"gen-{family}{''.join(map(str, params))}",
                            [["gen", family, *map(str, params)]], _gen_check(n, edges)))

    return rng.shuffle(cmds)


WORKLOADS = {"exact-solve": exact_solve, "list-solve": list_solve, "cli-session": cli_session}
IN_PROCESS = {"exact-solve", "list-solve"}
