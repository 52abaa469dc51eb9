import hashlib
import math
import random
from itertools import count

import pytest

from dichroma.core import Deadline, Graph, is_proper_coloring
from dichroma.errors import BudgetExceededError, LimitExceededError
from dichroma.generators import (
    EmbeddingWitness,
    borsuk_points,
    borsuk_sample,
    complete_bipartite,
    complete_graph,
    complete_multipartite,
    embed_kneser_tensor,
    embed_rook_in_kneser,
    kneser,
    named_graph,
    regular_simplex,
    rook,
    simplex_coloring,
)
from dichroma.graphio import format_graph
from dichroma.products import tensor_product
from dichroma.solvers import chromatic_number


def test_kneser_examples():
    petersen = kneser(5, 2)
    assert (petersen.n, petersen.m) == (10, 15)
    matching = kneser(4, 2)
    assert (matching.n, matching.m) == (6, 3)
    single = kneser(3, 3)
    assert (single.n, single.m) == (1, 0)


def test_kneser_adjacency_is_disjointness():
    g = kneser(5, 2)
    # labels carry the subsets; cross-check adjacency from them
    import re

    sets = [frozenset(map(int, re.findall(r"\d+", lab))) for lab in g.labels]
    for u in range(g.n):
        for v in range(u + 1, g.n):
            assert g.has_edge(u, v) == (not sets[u] & sets[v])


def test_kneser_colex_indexing():
    g = kneser(4, 2)
    assert g.labels == ("{1,2}", "{1,3}", "{2,3}", "{1,4}", "{2,4}", "{3,4}")


def test_kneser_limits():
    with pytest.raises(ValueError):
        kneser(3, 0)
    with pytest.raises(LimitExceededError):
        kneser(30, 15)


@pytest.mark.parametrize("build, edges", [
    (lambda: complete_graph(2001), 2001 * 2000 // 2),
    (lambda: complete_bipartite(1415, 1415), 1415 * 1415),
    (lambda: complete_multipartite(1000, 5), 10_000_000),
    (lambda: kneser(100, 2), 4950 * 4753 // 2),
    (lambda: rook(50), 2500 * 49 * 49 // 2),
])
def test_families_refuse_past_the_edge_limit_before_building(build, edges):
    # every one is under the vertex limit; the count comes from the parameters
    with pytest.raises(LimitExceededError, match=f"^{edges} edges exceed limit 2000000$"):
        build()


def test_edge_limit_is_exact(monkeypatch):
    import dichroma.generators as generators

    # each family's computed count is its real edge count: at a limit of 10
    # those with exactly 10 edges build and those just past it refuse
    monkeypatch.setattr(generators, "DEFAULT_EDGE_LIMIT", 10)
    at_limit = (complete_graph(5), complete_bipartite(2, 5), complete_multipartite(1, 5),
                kneser(5, 1))
    assert [g.m for g in at_limit] == [10] * 4
    assert (kneser(4, 2).m, rook(2).m, complete_multipartite(2, 2).m) == (3, 2, 4)
    for build in (lambda: complete_graph(6), lambda: complete_bipartite(1, 11),
                  lambda: complete_multipartite(2, 3), lambda: kneser(5, 2), lambda: rook(3)):
        with pytest.raises(LimitExceededError, match="^1[1-8] edges exceed limit 10$"):
            build()


def test_kneser_n1_is_complete():
    for n in range(1, 9):
        g = kneser(n, 1)
        assert (g.n, g.m) == (n, n * (n - 1) // 2)


def test_complete_multipartite_examples():
    octahedron = complete_multipartite(2, 3)
    assert (octahedron.n, octahedron.m) == (6, 12)
    assert complete_multipartite(1, 5).m == 10  # K5
    assert complete_multipartite(4, 1).m == 0
    assert complete_multipartite(2, 3).labels[0] == "p0:0"


def test_rook_examples():
    assert (rook(2).n, rook(2).m) == (4, 2)
    g = rook(3)
    assert (g.n, g.m) == (9, 18)
    assert all(g.adj[v].bit_count() == 4 for v in range(9))
    assert (rook(1).n, rook(1).m) == (1, 0)


def test_rook_equals_tensor_of_complete_graphs():
    for n in range(1, 7):
        assert rook(n) == tensor_product(complete_graph(n), complete_graph(n))


def test_kneser_chromatic_identity_grid():
    # every (n, k) with C(n, k) <= 40 and 1 <= k <= n/2
    for n in range(2, 41):
        for k in range(1, n // 2 + 1):
            if math.comb(n, k) > 40:
                continue
            cert = chromatic_number(kneser(n, k), Deadline(300))
            assert cert.exact and cert.value == n - 2 * k + 2, (n, k)


def test_named_graphs():
    assert named_graph("K4").m == 6
    assert named_graph("C5").m == 5
    assert named_graph("P4").m == 3
    assert named_graph("K2,3").m == 6
    assert named_graph("petersen").m == 15
    with pytest.raises(ValueError):
        named_graph("Q3")


def test_borsuk_config_validation():
    with pytest.raises(ValueError):
        borsuk_sample(n=1, a=2.0, cube_side=0.3)
    with pytest.raises(ValueError):
        borsuk_sample(n=1, a=1.0, cube_side=0.3, delta=0.9)
    with pytest.raises(ValueError):
        borsuk_sample(n=0, a=1.0, cube_side=0.3)


def test_borsuk_sample_chromatic_floor():
    # ~40 circle points at a near-diameter threshold: odd cycles force 3 colours
    g = borsuk_sample(n=1, a=1.9, cube_side=0.26, delta=0.05)
    assert g.n == 40
    assert min(g.adj[v].bit_count() for v in range(g.n)) >= 1
    cert = chromatic_number(g, Deadline(300))
    assert cert.exact and cert.value >= 3


def test_borsuk_single_cube_degenerate():
    g = borsuk_sample(n=1, a=1.0, cube_side=10.0)
    assert g.n <= 1 and g.m == 0


def test_borsuk_distances_never_exceed_diameter():
    _, pts = borsuk_points(n=1, a=1.9, cube_side=0.31, delta=0.05)
    dmax = max(
        math.dist(pts[i], pts[j])
        for i in range(len(pts))
        for j in range(i + 1, len(pts))
    )
    assert dmax <= 2.0 + 1e-12


def test_borsuk_point_scaling():
    # halving the pitch multiplies the count by about 2^(n+1)
    for n in (1, 2):
        coarse = borsuk_sample(n=n, a=1.5, cube_side=0.5).n
        fine = borsuk_sample(n=n, a=1.5, cube_side=0.25).n
        ratio = fine / coarse
        assert 0.5 * 2 ** (n + 1) <= ratio <= 1.5 * 2 ** (n + 1)


def _dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def test_regular_simplex_geometry():
    for dim in (2, 3, 5):
        v = regular_simplex(dim)
        assert len(v) == dim + 1 and all(len(row) == dim for row in v)
        for i in range(dim + 1):
            for j in range(dim + 1):
                want = 1.0 if i == j else -1.0 / dim
                assert math.isclose(_dot(v[i], v[j]), want, abs_tol=1e-12)


def test_simplex_coloring_tie_break():
    tri = regular_simplex(2)
    colouring = simplex_coloring([tri[0]])
    # the point sits at vertex 0, so colours 1 and 2 tie; lowest index wins
    assert colouring.assignment == (1,)


def test_simplex_coloring_antipodal_split():
    rng = random.Random(12)
    pts = []
    for _ in range(50):
        x = [rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = math.sqrt(_dot(x, x))
        pts.append([c / norm for c in x])
    both = pts + [[-c for c in p] for p in pts]
    colouring = simplex_coloring(both)
    simplex = regular_simplex(3)
    for i in range(50):
        row = sorted(_dot(both[i], s) for s in simplex)
        if abs(row[0] - row[1]) < 1e-9:
            continue  # tie: the rule may merge antipodal colours
        assert colouring.assignment[i] != colouring.assignment[50 + i]


def test_simplex_coloring_proper_above_threshold():
    _, pts = borsuk_points(n=1, a=1.9, cube_side=0.26, delta=0.05)
    colouring = simplex_coloring(pts)

    def proper_at(a: float) -> bool:
        # same point set, adjacency rebuilt at threshold a
        edges = [
            (i, j)
            for i in range(len(pts))
            for j in range(i + 1, len(pts))
            if math.dist(pts[j], pts[i]) >= a
        ]
        return is_proper_coloring(Graph(len(pts), edges), colouring)

    # bisect for the properness threshold of this fixed sample
    lo, hi = 1.0, 1.999
    assert proper_at(hi)
    if proper_at(lo):
        return
    for _ in range(25):
        mid = (lo + hi) / 2
        if proper_at(mid):
            hi = mid
        else:
            lo = mid
    assert proper_at(hi) and not proper_at(lo)


def test_simplex_coloring_rejects_bad_input():
    with pytest.raises(ValueError, match="points must be unit vectors"):
        simplex_coloring([[0.5, 0.0]])
    for flat_empty_or_ragged in ([], [0.0, 1.0], [[0.0, 1.0], [0.0, 0.0, 1.0]]):
        with pytest.raises(ValueError, match="need a nonempty 2d array of points"):
            simplex_coloring(flat_empty_or_ragged)
    with pytest.raises(ValueError, match=r"points must live in R\^\(n\+1\) with n >= 1"):
        simplex_coloring([[1.0]])


# SHA-256 of format_graph(borsuk_sample(*args)), recorded from the numpy
# sampler this pure-Python one replaced: the same keys, labels and edges
BORSUK_GOLDEN = {
    (1, 1.2, 0.3): "6c5c2a14deb1d5005bf4d8cbbc11eeda5b36f2ae51728631507f191228f9f8df",
    (1, 1.9, 0.26, 0.05): "b759241b5680de7705e7eb737d44aa8b34fb92856161f71b09c74dd57f48ab98",
    (1, 1.99, 0.05): "95a4444582d00204a8c9d9ff28aaeddaf83833721a44be283366031d1dbb966b",
    (2, 1.3, 0.4): "41e7e5258598a21f4b44bf28c96bc8cad50d065c219c88d82d566574de14c01a",
    (2, 1.5, 0.25): "a2b27334999394ab98a1f6997d6b008ad07c2bbc1bdfabb9868d6da5bdd3dd73",
    (2, 1.8, 0.3, 0.05): "c2eba374b6a4eda519797a4da8a8a7c9fefd2e5de433b9d9409df292c8812dcf",
    (2, 1.95, 0.2): "22221a69dc576957ba72de9485ec7b3edb515ed1680a925b0e951a0216c351e3",
    (3, 1.2, 0.6): "08b5c0dd12fd42c6ef747f533c25da9a46928c4c9ceb3584df84dc6f703bdef2",
    (3, 1.7, 0.3): "bf9c29d89d51480541a602c5886f9b16b89fc4668efc46128c6ee5c97a9d704b",
    (3, 1.9, 0.35): "27b83ea0cf4b977ff8c5c69a5b7bb24e29acd8953d5111f7cbea6896f8f0eb74",
    (3, 1.99, 0.2): "9e6bd53869989d474380f57c4ccb0543c01828c65bed7cba3e9d48480067d62c",
    (4, 1.5, 0.5): "a3ee6c93c4abaa54da4c410f5af9e98abe20ce82069eaab4fcbc9782193b23ff",
    (4, 1.8, 0.35): "25f2a9e131d702634a501c005829d3ae0b0e1f4961896d011955d7c1db260410",
    (4, 1.99, 0.4): "c4a1d5a4551c3dba907a1b85ae3b026181d490faafd5626e7141c00e8c4df16b",
    (5, 1.5, 0.5): "d8c3631d6b93d1045557d7ac8103d98fbcd997b8fd59c4908540f868827f194c",
    (5, 1.8, 0.45): "2665b1c6f958c3fa02ebcf4be386194db700ea9d53a0c287e1b52e24ff147ccc",
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("args", list(BORSUK_GOLDEN), ids=str)
def test_borsuk_sample_matches_recorded_graphs(args):
    assert _digest(format_graph(borsuk_sample(*args))) == BORSUK_GOLDEN[args]


@pytest.mark.parametrize("args, digest", [
    ((2, 1.5, 0.25), "f0bcd34568ee58e37140b5e71b525c246a6ffd4197cc74cf966a1d723465dd7c"),
    ((3, 1.7, 0.3), "ea49106204d4be7f1ff05c836c15270fc948edf0e1795188b4663b0c6e5343c6"),
], ids=str)
def test_simplex_coloring_matches_recorded_assignments(args, digest):
    # SHA-256 of the comma-joined colours, recorded from the numpy colouring
    colouring = simplex_coloring(borsuk_points(*args)[1])
    assert _digest(",".join(map(str, colouring.assignment))) == digest


def test_borsuk_lattice_scan_is_pruned(monkeypatch):
    # 5^11 = 48.8M lattice keys, none within the ball: no prefix of three
    # coordinates stays inside it, so the scan polls 5 + 10 + 20 prefixes
    polls = []
    check = Deadline.check
    monkeypatch.setattr(Deadline, "check", lambda self: polls.append(1) or check(self))
    assert borsuk_sample(10, 1.5, 0.9).n == 0
    assert len(polls) == 35


def test_borsuk_refusal_bounds_the_axis_table_not_the_lattice():
    # 5^21 lattice keys, none within the ball, on an axis table of 5 entries
    assert borsuk_sample(20, 1.5, 0.9).n == 0
    # radius 1.5: a table of 18,753 entries is scanned until the sample
    # passes the vertex limit, one of 21,429 is refused before it is built
    with pytest.raises(LimitExceededError, match="sample exceeds 5000 points"):
        borsuk_points(1, 1.5, 1.6e-4)
    with pytest.raises(LimitExceededError, match="lattice scan too large"):
        borsuk_points(1, 1.5, 1.4e-4)


@pytest.mark.parametrize("poll, calls, where", [
    ("check", 50, "lattice scan"),  # the 1-sphere scan polls 121 prefixes
    ("expired", 5, "pair scan"),
])
def test_borsuk_polls_the_deadline(monkeypatch, poll, calls, where):
    polls = count(1)
    monkeypatch.setattr(Deadline, poll, lambda self: next(polls) >= calls)
    with pytest.raises(BudgetExceededError, match=f"timeout during the Borsuk {where}"):
        borsuk_sample(1, 1.9, 0.26, 0.05, Deadline(300))


def test_embed_rook_in_kneser_examples():
    w = embed_rook_in_kneser(6, 2)
    assert w.source == rook(3)
    assert w.source.m == 18
    w = embed_rook_in_kneser(4, 2)
    assert w.source == rook(2)
    degenerate = embed_rook_in_kneser(3, 2)
    assert degenerate.source.n == 1
    with pytest.raises(ValueError):
        embed_rook_in_kneser(4, 1)


def test_embed_rook_in_kneser_grid():
    for n in range(4, 13):
        for k in range(2, min(4, n) + 1):
            if k > n:
                continue
            w = embed_rook_in_kneser(n, k)
            assert w.source.n == (n // k) ** 2


def test_embed_kneser_tensor_examples():
    w = embed_kneser_tensor(7, 3, 3, 1)
    assert w.source.n == 3 * 6
    assert w.source == tensor_product(kneser(3, 1), kneser(4, 2))
    w = embed_kneser_tensor(8, 4, 4, 2)
    assert w.source.n == 36
    assert w.source == tensor_product(kneser(4, 2), kneser(4, 2))
    with pytest.raises(ValueError):
        embed_kneser_tensor(7, 3, 3, 3)  # k2 = 0


def test_embedding_witness_rejects_bad_maps():
    g = complete_graph(2)
    h = Graph(2)
    with pytest.raises(ValueError):
        EmbeddingWitness(g, h, (0, 1))
    with pytest.raises(ValueError):
        EmbeddingWitness(g, complete_graph(3), (0, 0))
