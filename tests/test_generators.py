import math

import numpy as np
import pytest

from dichroma.core import Deadline, Graph, is_proper_coloring
from dichroma.errors import LimitExceededError
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
    assert all(g.degree(v) == 4 for v in range(9))
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
    assert min(g.degree(v) for v in range(g.n)) >= 1
    cert = chromatic_number(g, Deadline(300))
    assert cert.exact and cert.value >= 3


def test_borsuk_single_cube_degenerate():
    g = borsuk_sample(n=1, a=1.0, cube_side=10.0)
    assert g.n <= 1 and g.m == 0


def test_borsuk_distances_never_exceed_diameter():
    _, pts = borsuk_points(n=1, a=1.9, cube_side=0.31, delta=0.05)
    dmax = max(
        float(np.linalg.norm(pts[i] - pts[j]))
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


def test_regular_simplex_geometry():
    for dim in (2, 3, 5):
        v = regular_simplex(dim)
        gram = v @ v.T
        assert np.allclose(np.diag(gram), 1.0)
        off = gram[~np.eye(dim + 1, dtype=bool)]
        assert np.allclose(off, -1.0 / dim)


def test_simplex_coloring_tie_break():
    tri = regular_simplex(2)
    colouring = simplex_coloring([tri[0]])
    # the point sits at vertex 0, so colours 1 and 2 tie; lowest index wins
    assert colouring.assignment == (1,)


def test_simplex_coloring_antipodal_split():
    rng = np.random.default_rng(12)
    pts = rng.normal(size=(50, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    both = np.vstack([pts, -pts])
    colouring = simplex_coloring(both)
    dots = both @ regular_simplex(3).T
    for i in range(50):
        row = sorted(dots[i])
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
            if float(np.linalg.norm(pts[j] - pts[i])) >= a
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
    with pytest.raises(ValueError):
        simplex_coloring([[0.5, 0.0]])


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
