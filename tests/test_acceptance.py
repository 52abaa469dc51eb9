"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its runtime against the stated budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import io
import json
import math
import time
from contextlib import redirect_stdout
from itertools import combinations

from dichroma.catalogue import graphs_up_to, random_digraph
from dichroma.cli import run as cli_run
from dichroma.core import (
    Deadline,
    Digraph,
    ListAssignment,
    apply_orientation,
    bidirect,
    enumerate_orientations,
    is_acyclic,
)
from dichroma.covers import SetCollection, verify_cover_all_acyclic
from dichroma.generators import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    embed_kneser_tensor,
    embed_rook_in_kneser,
    kneser,
    named_graph,
    rook,
)
from dichroma.products import tensor_product
from dichroma.randomized import (
    RngSpec,
    count_acyclic_orientations,
    estimate_biclique_event,
    find_acyclic_biclique,
    stream_u64,
)
from dichroma.solvers import (
    chromatic_number,
    dichromatic_number,
    list_chromatic_number,
    list_dichromatic_number,
)
from dichroma.verify import (
    bidirect_suite,
    cycle_orientation,
    kneser_chi_suite,
    sabidussi_suite,
    tensor_upper_bound_suite,
)

from oracles import brute_covers_all_acyclic_partitions


class _Stopwatch:
    def __init__(self, number, name, budget_s):
        self.number = number
        self.name = name
        self.budget_s = budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(
            f"criterion {self.number:02d} {self.name}: {verdict} "
            f"({elapsed:.1f}s, budget {self.budget_s}s)"
        )
        assert elapsed < self.budget_s, f"criterion {self.number} over budget"
        return False


def test_criterion_01_kneser_chromatic_identity():
    with _Stopwatch(1, "kneser-chi", 60):
        result = kneser_chi_suite(deadline=Deadline(540))
        assert result.ok
        assert {(r["n"], r["k"]) for r in result.rows} == {
            (4, 1), (5, 1), (5, 2), (6, 2), (7, 2), (7, 3)
        }
        for row in result.rows:
            assert row["chi"] == row["expected"]


def test_criterion_02_sabidussi_equality():
    with _Stopwatch(2, "sabidussi", 600):
        result = sabidussi_suite(
            max_n=4, random_pairs=200, pair_max_n=5, seed=7, deadline=Deadline(540)
        )
        assert result.ok
        assert result.summary["pairs"] >= 2411
        for row in result.rows:
            assert row["chi_product"] == row["expected"]
            assert row["modular_proper"]


def test_criterion_03_bidirected_correspondence():
    with _Stopwatch(3, "bidirect", 300):
        result = bidirect_suite(max_n=6, deadline=Deadline(540))
        assert result.ok
        assert result.summary["graphs"] == 1 + 2 + 4 + 11 + 34 + 156


def test_criterion_04_acyclic_orientation_counts():
    with _Stopwatch(4, "orientation-counts", 30):
        assert count_acyclic_orientations(complete_graph(3)) == 6
        assert count_acyclic_orientations(complete_bipartite(2, 2)) == 14
        for l in (1, 2, 3):
            count = count_acyclic_orientations(complete_bipartite(l, l))
            assert count <= math.factorial(2 * l)


MC_GRID = ("K4", "K2,2", "K2,3", "K3,3", "K2,4", "K3,4", "K5", "C4", "C5", "C6")


def _exact_biclique_probability(g, l):
    hits = total = 0
    for o in enumerate_orientations(g):
        total += 1
        if find_acyclic_biclique(apply_orientation(g, o), l) is not None:
            hits += 1
    return hits / total


def test_criterion_05_monte_carlo_vs_exact():
    with _Stopwatch(5, "mc-vs-exact", 300):
        cells = [(name, l) for name in MC_GRID for l in (1, 2, 3)]
        assert len(cells) == 30
        covered = 0
        for i, (name, l) in enumerate(cells):
            g = named_graph(name)
            assert g.m <= 12
            exact = _exact_biclique_probability(g, l)
            est = estimate_biclique_event(g, l, 400, RngSpec(1).derive(i))
            covered += est.ci_low <= exact <= est.ci_high
        assert covered >= math.ceil(0.93 * 30)


def test_criterion_06_list_thinning_bound_grid():
    """Sweep every tiny instance; the applicability requirement
    4*t*u <= (l1-l2)*n is unsatisfiable for t >= 1 and u >= l1 there, so
    the bound holds with zero violations (vacuously), which the sweep
    demonstrates rather than assumes."""
    with _Stopwatch(6, "thinning-bound", 600):
        from dichroma.covers import estimate_acceptance_probability

        rng = RngSpec(13)
        qualifying = 0
        violations = 0
        instance = 0
        for n in range(2, 5):
            for l1 in (2, 3):
                for l2 in range(1, l1):
                    for u in range(l1, n * l1 + 1):
                        d = random_digraph(n, rng.derive(instance))
                        instance += 1
                        members = tuple(
                            frozenset(c) for c in combinations(range(n), min(2, n))
                        )
                        col = SetCollection(members, len(members), min(2, n))
                        L1 = ListAssignment(
                            tuple(range(1, u + 1)),
                            (frozenset(range(1, l1 + 1)),) * n,
                            l1,
                        )
                        est = estimate_acceptance_probability(
                            d, col, L1, l2, 20, rng.derive(instance, 1)
                        )
                        if est.hypothesis_ok and est.bound < 1.0:
                            qualifying += 1
                            # exact enumeration over all sublist assignments
                            from test_covers import _exact_acceptance

                            exact = _exact_acceptance(d, col, L1, l2)
                            if not float(exact) < est.bound:
                                violations += 1
        assert violations == 0
        assert qualifying == 0  # the hypothesis never binds at this scale

        # supplementary non-vacuous anchor just above the tiny grid:
        # isolated vertices with one singleton member satisfy the
        # hypothesis and accept nothing, staying under the bound
        d = Digraph(9)
        col = SetCollection((frozenset({0}),), 1, 1)
        L1 = ListAssignment.uniform(9, (1, 2))
        est = estimate_acceptance_probability(d, col, L1, 1, 50, RngSpec(3))
        assert est.hypothesis_ok and est.bound < 1.0
        assert est.event.estimate < est.bound


def test_criterion_07_cover_checker_oracle_equivalence():
    with _Stopwatch(7, "cover-oracle", 300):
        rng = RngSpec(23)
        mismatches = 0
        for i in range(100):
            n = 1 + stream_u64(rng, 0x71, i) % 8
            d = random_digraph(n, rng.derive(i, 0))
            member_count = 1 + stream_u64(rng, 0x72, i) % 5
            members = []
            for j in range(member_count):
                mask = stream_u64(rng, 0x73, i * 8 + j) & ((1 << n) - 1)
                members.append(frozenset(v for v in range(n) if mask >> v & 1))
            col = SetCollection(
                tuple(members), member_count, max((len(m) for m in members), default=0)
            )
            fast = verify_cover_all_acyclic(d, col) is None
            slow, _ = brute_covers_all_acyclic_partitions(n, d.arcs, members)
            mismatches += fast != slow
        assert mismatches == 0


def test_criterion_08_embedding_witnesses():
    with _Stopwatch(8, "embeddings", 120):
        for n in range(4, 13):
            for k in range(2, 5):
                if k > n:
                    continue
                witness = embed_rook_in_kneser(n, k)
                assert witness.source == rook(n // k)
                assert witness.target.n == math.comb(n, k)
        for (n, k, n1, k1) in ((7, 3, 3, 1), (8, 4, 4, 2)):
            witness = embed_kneser_tensor(n, k, n1, k1)
            assert witness.source == tensor_product(
                kneser(n1, k1), kneser(n - n1, k - k1)
            )
        try:
            embed_kneser_tensor(7, 3, 3, 3)
        except ValueError:
            pass
        else:
            raise AssertionError("k1 = k must be rejected")


def test_criterion_09_tensor_upper_bound():
    with _Stopwatch(9, "tensor-bound", 300):
        result = tensor_upper_bound_suite(max_n=4, deadline=Deadline(540))
        assert result.ok
        for row in result.rows:
            assert row["chi_product"] <= row["bound"]


def test_criterion_10_list_solvers():
    with _Stopwatch(10, "list-solvers", 120):
        c3 = Digraph(3, [(0, 1), (1, 2), (2, 0)])
        assert list_dichromatic_number(c3, Deadline(540)).value == 2
        assert list_chromatic_number(cycle_graph(4), Deadline(540)).value == 2
        assert list_chromatic_number(complete_graph(3), Deadline(540)).value == 3


def test_criterion_11_small_graph_evidence():
    with _Stopwatch(11, "chi3-forces-dichi2", 600):
        checked = 0
        for g in graphs_up_to(7):
            if chromatic_number(g, Deadline(540)).value < 3:
                continue
            checked += 1
            o = cycle_orientation(g)
            assert o is not None  # chromatic number 3 needs a cycle
            d = apply_orientation(g, o)
            assert not is_acyclic(d)
            assert dichromatic_number(d, Deadline(540)).value >= 2
        assert checked > 500  # most 7-vertex graphs need three colours


def _cli_json(argv) -> dict:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli_run(argv)
    assert code == 0, f"exit {code} from {argv}"
    payload = json.loads(buffer.getvalue())
    payload.pop("runtime_ms", None)
    return payload


def test_criterion_12_thread_count_determinism(tmp_path):
    with _Stopwatch(12, "determinism", 600):
        sab = ["verify", "sabidussi", "--max-n", "4", "--pairs", "200",
               "--seed", "7", "--format", "json"]
        a = _cli_json(sab + ["--threads", "1"])
        b = _cli_json(sab + ["--threads", "8"])
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

        for graph, l in (("K3,3", 2), ("K4", 2), ("C5", 1)):
            mc = ["mc", "biclique", "--graph", graph, "--l", str(l),
                  "--trials", "400", "--seed", "1", "--format", "json"]
            a = _cli_json(mc + ["--threads", "1"])
            b = _cli_json(mc + ["--threads", "8"])
            assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

        rook_path = tmp_path / "rook3.g"
        orient_path = tmp_path / "d.g"
        with redirect_stdout(io.StringIO()) as out:
            assert cli_run(["gen", "rook", "3", "--out", str(rook_path)]) == 0
            assert cli_run(["orient", "random", str(rook_path), "--seed", "2",
                            "--out", str(orient_path)]) == 0
        acc = ["mc", "acceptance", str(orient_path), "--beta", "1",
               "--l1", "2", "--l2", "1", "--trials", "60", "--seed", "5",
               "--format", "json"]
        a = _cli_json(acc + ["--threads", "1"])
        b = _cli_json(acc + ["--threads", "8"])
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
