import math
import random
import sys
from fractions import Fraction
from itertools import combinations

import pytest

from dichroma.catalogue import graph_catalogue, graphs_up_to, random_digraph
from dichroma.core import (
    _subset_acyclic,
    Deadline,
    Digraph,
    Graph,
    apply_orientation,
    bidirect,
    enumerate_orientations,
    is_acyclic,
    iter_bits,
    mask_of,
)
from dichroma.errors import BudgetExceededError, CertificationError
from dichroma.generators import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
    rook,
)
from dichroma.randomized import (
    DOMAIN_ORIENTATION,
    _cross_arcs_acyclic,
    _first_chain,
    RngSpec,
    certified_breaking_orientation,
    concentration_bound,
    count_acyclic_orientations,
    estimate_biclique_event,
    expected_avoiding_count,
    find_acyclic_biclique,
    find_acyclic_clique,
    g_bound,
    random_orientation,
    stream_u64,
    uniform_below,
    wilson_interval,
)


from oracles import (
    acyclic_by_dfs,
    brute_acyclic_biclique,
    brute_count_acyclic_orientations,
    chromatic_polynomial,
)


def test_random_orientation_edgeless():
    d = random_orientation(Graph(5), RngSpec(0))
    assert d.n == 5 and d.m == 0


def test_random_orientation_reproducible_golden():
    d = random_orientation(complete_graph(4), RngSpec(42))
    assert d.arcs == ((0, 2), (1, 0), (1, 3), (2, 1), (2, 3), (3, 0))
    again = random_orientation(complete_graph(4), RngSpec(42))
    assert again.arcs == d.arcs


@pytest.mark.parametrize("seed", [0, 1, 42, 2**63 + 5, 2**64 - 1, -3])
def test_random_orientation_bits_are_the_stream_top_bits(seed):
    # the hoisted prefix leaves every draw as stream_u64 makes it
    spec = RngSpec(seed)
    for g in (Graph(3), path_graph(2), complete_graph(80), path_graph(3001)):
        arcs = [(v, u) if stream_u64(spec, DOMAIN_ORIENTATION, j) >> 63 else (u, v)
                for j, (u, v) in enumerate(g.edges)]
        assert random_orientation(g, spec) == Digraph(g.n, arcs, labels=g.labels)


def test_orientation_bits_are_fair():
    spec = RngSpec(123)
    bits = [stream_u64(spec, DOMAIN_ORIENTATION, j) >> 63 for j in range(10_000)]
    mean = sum(bits) / len(bits)
    assert 0.48 <= mean <= 0.52  # binomial 3 sigma around 1/2


def test_count_acyclic_orientations_examples(monkeypatch):
    assert count_acyclic_orientations(complete_graph(3)) == 6
    assert count_acyclic_orientations(complete_bipartite(2, 2)) == 14
    assert count_acyclic_orientations(path_graph(3)) == 4
    # no edge cap: a fired deadline, given or the default, stops the count
    monkeypatch.setattr(Deadline, "check", lambda self: True)
    for deadline in (Deadline(60), None):
        with pytest.raises(BudgetExceededError):
            count_acyclic_orientations(rook(3), deadline)


def _reference_acyclic_orientation_count(g, deadline):
    """The count count_acyclic_orientations replaced: each orientation
    built as in-masks from a code whose bit j orients edge j backwards,
    polling deadline once per code."""
    full = (1 << g.n) - 1
    count = 0
    for code in range(1 << g.m):
        if deadline.check():
            raise BudgetExceededError("unknown: orientation count ran out of time")
        ins = [0] * g.n
        for j, (u, v) in enumerate(g.edges):
            if code >> j & 1:
                ins[u] |= 1 << v
            else:
                ins[v] |= 1 << u
        count += _subset_acyclic(ins, full)
    return count


def test_count_acyclic_orientations_matches_mask_loop():
    for g in graphs_up_to(5) + [complete_bipartite(3, 3), complete_bipartite(3, 4)]:
        new, old = Deadline(), Deadline()
        count = count_acyclic_orientations(g, new)
        assert count == _reference_acyclic_orientation_count(g, old), g.edges
        assert new.ticks == old.ticks == 1 << g.m
    # a spent deadline stops both at the same poll, its first clock reading
    for count in (count_acyclic_orientations, _reference_acyclic_orientation_count):
        spent = Deadline()
        spent.at = 0.0
        with pytest.raises(BudgetExceededError,
                           match="^unknown: orientation count ran out of time$"):
            count(complete_bipartite(3, 4), spent)
        assert spent.ticks == 1024


def test_count_acyclic_orientations_oracles():
    for g in graph_catalogue(5):
        direct = count_acyclic_orientations(g)
        assert direct == brute_count_acyclic_orientations(g.n, g.edges)
        assert direct == abs(chromatic_polynomial(g.n, g.edges, -1))


def test_biclique_count_respects_factorial_bound():
    for l in (1, 2, 3):
        count = count_acyclic_orientations(complete_bipartite(l, l))
        assert count <= math.factorial(2 * l)


def test_find_acyclic_biclique_examples():
    assert find_acyclic_biclique(bidirect(complete_graph(4)), 1) is None
    one_way = Digraph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    hit = find_acyclic_biclique(one_way, 2)
    assert hit == ((0, 1), (2, 3))
    cyclic_c4 = Digraph(4, [(0, 2), (2, 1), (1, 3), (3, 0)])
    assert find_acyclic_biclique(cyclic_c4, 2) is None
    assert find_acyclic_biclique(cyclic_c4, 1) is not None


def _reference_biclique_scan(d, l):
    """The scan find_acyclic_biclique replaced: every (S, T) pair in
    lexicographic order, each tested by Kahn's algorithm."""
    g = d.underlying_graph()
    for s_tuple in combinations(range(g.n), l):
        common = (1 << g.n) - 1
        for v in s_tuple:
            common &= g.adj[v]
        common &= ~mask_of(s_tuple)
        common &= ~((1 << (s_tuple[0] + 1)) - 1)
        for t_tuple in combinations(list(iter_bits(common)), l):
            if _cross_arcs_acyclic(d, mask_of(s_tuple), mask_of(t_tuple)):
                return (s_tuple, t_tuple)
    return None


def test_find_acyclic_biclique_matches_reference_scan():
    # digons included
    pick = random.Random(20)
    for seed in range(1000):
        n = pick.randint(1, 9)
        d = random_digraph(n, RngSpec(seed))
        for l in (1, 2, 3):
            assert find_acyclic_biclique(d, l) == _reference_biclique_scan(d, l), (seed, l)


def test_cross_arcs_acyclic_matches_dfs_oracle():
    # digons included; S and T are random disjoint vertex sets, either empty
    pick = random.Random(31)
    cyclic = 0
    for seed in range(400):
        n = pick.randint(1, 9)
        d = random_digraph(n, RngSpec(700 + seed))
        side = [pick.randrange(3) for _ in range(n)]  # 0: in S, 1: in T, 2: in neither
        s = {v for v in range(n) if side[v] == 0}
        t = {v for v in range(n) if side[v] == 1}
        cross = [(u, v) for u, v in d.arcs if u in s and v in t or u in t and v in s]
        expected = acyclic_by_dfs(n, cross)
        assert _cross_arcs_acyclic(d, mask_of(s), mask_of(t)) == expected, seed
        cyclic += not expected
    assert 50 < cyclic < 350


def test_find_acyclic_biclique_oracle_all_orientations():
    for g in (complete_bipartite(2, 3), complete_bipartite(3, 3)):
        for o in enumerate_orientations(g):
            d = apply_orientation(g, o)
            expected = brute_acyclic_biclique(d.n, d.arcs, 2)
            hit = find_acyclic_biclique(d, 2)
            if hit is None:
                assert not expected
            else:
                assert frozenset(map(frozenset, hit)) in expected


def test_find_acyclic_biclique_k10_10():
    # the S nodes visited, one deadline poll each, are those of the
    # recursive scan the explicit stack replaced: 270 to the hit, 848 for
    # the verified miss
    k = complete_bipartite(10, 10)
    d = random_orientation(k, RngSpec(3))
    hit = ((0, 3, 4, 5, 6, 8), (10, 11, 14, 17, 18, 19))
    deadline = Deadline(300)
    assert find_acyclic_biclique(d, 6, deadline) == hit and deadline.ticks == 270
    cross = [(u, v) for u, v in d.arcs if {u, v} <= set(hit[0] + hit[1])]
    assert acyclic_by_dfs(d.n, cross)
    miss = random_orientation(k, RngSpec(5))
    deadline = Deadline(300)
    assert find_acyclic_biclique(miss, 6, deadline) is None and deadline.ticks == 848


def test_biclique_scan_goes_deeper_than_the_recursion_limit():
    # S grows one vertex per level; with the limit lowered to 60 frames
    # above this one, l = 200 is past it
    l = 200
    one_way = Digraph(2 * l, [(u, v) for u in range(l) for v in range(l, 2 * l)])
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        hit = find_acyclic_biclique(one_way, l)
    finally:
        sys.setrecursionlimit(limit)
    assert hit == (tuple(range(l)), tuple(range(l, 2 * l)))


def test_biclique_scans_poll_deadline(monkeypatch):
    monkeypatch.setattr(Deadline, "check", lambda self: True)
    d = random_orientation(complete_bipartite(3, 3), RngSpec(0))
    with pytest.raises(BudgetExceededError):
        find_acyclic_biclique(d, 2, deadline=Deadline(60))
    with pytest.raises(BudgetExceededError):
        find_acyclic_clique(d, 2, deadline=Deadline(60))
    with pytest.raises(BudgetExceededError):
        estimate_biclique_event(complete_bipartite(3, 3), 2, 4, RngSpec(1),
                                deadline=Deadline(60))
    with pytest.raises(BudgetExceededError):
        certified_breaking_orientation(complete_bipartite(3, 3), 2, RngSpec(1),
                                       deadline=Deadline(60))
    # without a deadline the scans poll one of the default solve timeout
    with pytest.raises(BudgetExceededError):
        find_acyclic_biclique(d, 1)
    with pytest.raises(BudgetExceededError):
        find_acyclic_clique(d, 2)


def test_find_acyclic_clique():
    transitive = Digraph(3, [(0, 1), (0, 2), (1, 2)])
    assert find_acyclic_clique(transitive, 3) == (0, 1, 2)
    cyclic = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    assert find_acyclic_clique(cyclic, 3) is None


def _recursive_acyclic_clique(d, l, deadline):
    """Reference for find_acyclic_clique: the same search, recursing once
    per clique vertex, with the same cut (a branch stops once fewer
    allowed vertices remain than it still needs) and the same prefix test,
    here by depth-first search on each grown clique."""
    adj = [o | i for o, i in zip(d.outs, d.ins)]

    def rec(clique, allowed):
        if deadline.check():
            raise BudgetExceededError("unknown: clique scan ran out of time")
        if len(clique) == l:
            return tuple(clique)
        rest = list(iter_bits(allowed))
        while len(rest) >= l - len(clique):
            v, rest = rest[0], rest[1:]
            if acyclic_by_dfs(*_induced_arcs(d, clique + [v])):
                hit = rec(clique + [v], mask_of(rest) & adj[v])
                if hit is not None:
                    return hit
        return None

    return rec([], (1 << d.n) - 1)


def _leaf_checked_acyclic_clique(d, l):
    """Reference for find_acyclic_clique without cut or prefix test: every
    l-clique in lexicographic order, each tested for acyclicity whole."""
    adj = [o | i for o, i in zip(d.outs, d.ins)]

    def rec(clique, allowed):
        if len(clique) == l:
            return tuple(clique) if acyclic_by_dfs(*_induced_arcs(d, clique)) else None
        start = clique[-1] + 1 if clique else 0
        for v in iter_bits(allowed & ~((1 << start) - 1)):
            hit = rec(clique + [v], allowed & adj[v])
            if hit is not None:
                return hit
        return None

    return rec([], (1 << d.n) - 1)


def _induced_arcs(d, vertices):
    index = {v: i for i, v in enumerate(vertices)}
    return len(vertices), [(index[u], index[v]) for u, v in d.arcs if u in index and v in index]


def _recursive_first_chain(cols, l):
    """Reference for _first_chain: the lexicographically first l positions
    of pairwise comparable entries, recursing once per position."""
    usable = [i for i, c in enumerate(cols) if c is not None]

    def comparable(i, j):
        both = cols[i] & cols[j]
        return both in (cols[i], cols[j])

    def rec(chosen, allowed):
        if len(chosen) == l:
            return chosen
        while len(allowed) >= l - len(chosen):
            i, allowed = allowed[0], allowed[1:]
            hit = rec(chosen + [i], [j for j in allowed if comparable(i, j)])
            if hit is not None:
                return hit
        return None

    return rec([], usable)


def test_clique_and_chain_searches_match_recursive_references():
    # same answer and the same number of deadline polls as recursive
    # searches, and the same clique as testing whole cliques
    rng = random.Random(26)
    for trial in range(60):
        d = random_digraph(4 + trial % 6, RngSpec(300 + trial))
        for l in range(1, 5):
            mine, ref = Deadline(300), Deadline(300)
            hit = find_acyclic_clique(d, l, mine)
            assert hit == _recursive_acyclic_clique(d, l, ref)
            assert mine.ticks == ref.ticks
            assert hit == _leaf_checked_acyclic_clique(d, l)
        cols = [None if rng.random() < 0.2 else rng.getrandbits(4) for _ in range(rng.randrange(9))]
        for l in range(1, 6):
            assert _first_chain(cols, l) == _recursive_first_chain(cols, l)


def test_clique_and_chain_searches_go_deeper_than_the_recursion_limit():
    n = 1100  # past Python's default recursion limit of 1000
    transitive = Digraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    assert find_acyclic_clique(transitive, n) == tuple(range(n))
    # the cut ends a near-complete search at once: K60 holds 60 59-cliques
    tournament = random_orientation(complete_graph(60), RngSpec(0))
    assert find_acyclic_clique(tournament, 59, Deadline(5)) is None
    chain = [(1 << i) - 1 for i in range(n)]
    assert _first_chain(chain, n) == list(range(n))


def test_certified_breaking_single_biclique():
    # the 4-cycle is one complete bipartite pair; a fourth of the
    # orientations make it cyclic, so rejection sampling lands quickly
    c4 = cycle_graph(4)
    d = certified_breaking_orientation(c4, 2, RngSpec(3), max_attempts=500)
    assert find_acyclic_biclique(d, 2) is None
    assert not is_acyclic(d)


def test_certified_breaking_cliques():
    k3 = complete_graph(3)
    d = certified_breaking_orientation(
        k3, 3, RngSpec(1), max_attempts=500, break_cliques=True
    )
    assert find_acyclic_clique(d, 3) is None


def test_certified_breaking_vacuous():
    p4 = path_graph(4)
    d = certified_breaking_orientation(p4, 2, RngSpec(0), max_attempts=5)
    assert d.m == p4.m  # no 2+2 biclique exists, first draw is accepted


def test_certified_breaking_outside_regime():
    # a single arc is always acyclic, so l=1 can never be broken
    with pytest.raises(CertificationError):
        certified_breaking_orientation(path_graph(3), 1, RngSpec(0), max_attempts=20)
    # every 2+2 pattern cannot be made cyclic at once: the common
    # neighbourhood of two grid cells has three cells, and a two-valued
    # row cannot alternate on every pair of them
    with pytest.raises(CertificationError):
        certified_breaking_orientation(rook(4), 2, RngSpec(0), max_attempts=30)


def test_estimate_biclique_event_exact_anchor():
    est = estimate_biclique_event(complete_bipartite(2, 2), 2, 2000, RngSpec(7))
    assert est.ci_low <= 14 / 16 <= est.ci_high
    assert abs(est.estimate - 0.875) < 0.05


def test_estimate_biclique_event_degenerate():
    est = estimate_biclique_event(complete_graph(3), 3, 50, RngSpec(1))
    assert est.estimate == 0.0  # no 3+3 biclique in a triangle


def test_estimate_below_union_bound():
    # the analytic bound n^(4l) * 2^(-l*l) binds only when below one;
    # those cells are biclique-free at this scale, so the frequency is zero
    for g in (complete_graph(2), path_graph(3)):
        for l in (5, 6):
            bound = g.n ** (4 * l) * 2.0 ** (-l * l)
            if bound >= 1:
                continue
            est = estimate_biclique_event(g, l, 200, RngSpec(4))
            assert est.estimate <= bound


def test_estimate_threads_deterministic():
    a = estimate_biclique_event(complete_bipartite(2, 2), 2, 400, RngSpec(9), threads=1)
    b = estimate_biclique_event(complete_bipartite(2, 2), 2, 400, RngSpec(9), threads=4)
    assert a == b


def test_g_bound_examples():
    value = g_bound(l1=2, l2=1, n=4, s=1, t=1, u=2)
    assert abs(value - math.exp(-0.5)) < 1e-12
    # vanishing exponent recovers s^u * exp(-n/2)
    value = g_bound(l1=10**6, l2=1, n=4, s=1, t=1, u=2)
    assert abs(value - math.exp(-2.0)) < 1e-6
    with pytest.raises(ValueError):
        g_bound(l1=1, l2=1, n=4, s=1, t=1, u=2)


def test_g_bound_positive_and_decreasing_in_n():
    last = None
    for n in range(2, 40):
        value = g_bound(l1=3, l2=1, n=n, s=2, t=1, u=3)
        assert value > 0
        if last is not None:
            assert value < last
        last = value


def test_expected_avoiding_count_examples():
    assert expected_avoiding_count(4, 4, 1, 1) == 3
    assert expected_avoiding_count(7, 9, 3, 0) == 7
    assert expected_avoiding_count(5, 4, 3, 2) == 0
    exact = expected_avoiding_count(5, 7, 2, 3)
    assert exact == Fraction(5 * math.comb(4, 2), math.comb(7, 2))


def test_expected_avoiding_count_matches_the_binomial_ratio():
    for u in range(1, 9):
        for k in range(1, u + 1):
            for a in range(0, u + 2):
                want = Fraction(3 * math.comb(u - a, k), math.comb(u, k)) if a + k <= u else 0
                assert expected_avoiding_count(3, u, k, a) == want
    # the shorter product keeps a million-colour palette instant
    assert expected_avoiding_count(3, 10**7, 5 * 10**6, 1) == Fraction(3, 2)


# With l1=3, l2=1, s=2, t=1 and u=10**400, this n makes the logarithms of
# both overflowing terms of log g equal as floats.
TIED_N = 2444345872659853 * 10**385


def test_bounds_past_the_float_range():
    huge = 10**400
    assert concentration_bound(3, 1e-200, 1.0) == 0.0
    assert concentration_bound(huge, 1.0, 1.0) == 2.0
    # the squares overflow, yet t^2 / (2 c^2 n) is 0.5
    assert concentration_bound(1, 1e200, 1e200) == pytest.approx(2 * math.exp(-0.5))
    assert g_bound(huge, 1, 4, 1, 1, 2) == pytest.approx(math.exp(-2.0))
    assert g_bound(huge, 1, huge, 1, 1, 2) == 0.0
    assert g_bound(3, 1, huge, 1, 1, 2) == 0.0
    assert g_bound(3, 1, 1, 10**9, 1, 10**6) == math.inf
    # both terms of log g overflow: the larger logarithm decides the sign
    assert g_bound(3, 1, huge, 2, 1, huge) == math.inf
    assert g_bound(3, 1, 100 * huge, 2, 1, huge) == 0.0
    # only logarithms that tie in floating point leave g undecided
    with pytest.raises(ValueError, match="both terms"):
        g_bound(3, 1, TIED_N, 2, 1, huge)


def test_concentration_bound_examples():
    assert abs(concentration_bound(1, 1.0, 2.0) - 2 * math.exp(-2)) < 1e-12
    assert concentration_bound(10, 0.5, 0.0) == 2.0
    values = [concentration_bound(5, 1.0, t / 4) for t in range(0, 20)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_shrinking_ratio_function_is_increasing():
    # f(x) = (1 - a/x)^x grows in x for x > a
    for a in (0.5, 1.0, 2.0, 5.0):
        xs = [a + 0.1 + 0.3 * i for i in range(40)]
        vals = [(1 - a / x) ** x for x in xs]
        assert all(u <= v + 1e-15 for u, v in zip(vals, vals[1:]))


def test_wilson_interval_basics():
    lo, hi = wilson_interval(0, 100)
    assert lo == pytest.approx(0.0, abs=1e-12) and hi < 0.05
    lo, hi = wilson_interval(100, 100)
    assert hi == pytest.approx(1.0) and lo > 0.95
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi


def test_uniform_below_one_word_path_unchanged():
    # bounds up to 2**64 read one stream word per try, as they always have
    rng = RngSpec(5)
    for bound in (1, 3, 10**9, (1 << 63) + 1, 1 << 64):
        limit = (1 << 64) - (1 << 64) % bound
        for index in range(20):
            words = (stream_u64(rng, 9, index, c) for c in range(1000))
            want = next(w for w in words if w < limit) % bound
            assert uniform_below(rng, 9, index, bound) == want


@pytest.mark.parametrize("bound", [(1 << 64) + 1, 10**30])
def test_uniform_below_beyond_one_word(bound):
    # two words per try, high word first, rejected above the largest
    # multiple of bound below 2**128
    rng = RngSpec(7)
    limit = (1 << 128) - (1 << 128) % bound
    values = []
    for index in range(40):
        w = [stream_u64(rng, 9, index, c) for c in range(200)]
        tries = (w[i] << 64 | w[i + 1] for i in range(0, 200, 2))
        want = next(v for v in tries if v < limit) % bound
        got = uniform_below(rng, 9, index, bound)
        assert got == want and 0 <= got < bound
        values.append(got)
    assert max(values) > bound // 2  # the high word is used


@pytest.mark.parametrize("c, t", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan),
                                  (1.0, math.inf)])
def test_concentration_bound_rejects_non_finite(c, t):
    with pytest.raises(ValueError):
        concentration_bound(3, c, t)
