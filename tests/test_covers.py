import math
from fractions import Fraction
from itertools import combinations, product as iproduct

import pytest

from dichroma.core import (
    Coloring,
    Deadline,
    Digraph,
    ListAssignment,
    bidirect,
    is_proper_dicoloring,
)
from dichroma.covers import (
    SetCollection,
    _covered_partition_search,
    build_rook_collection,
    estimate_acceptance_probability,
    sample_sublists,
    verify_cover_all_acyclic,
    verify_semicover_all_acyclic,
)
from dichroma.catalogue import random_digraph
from dichroma.errors import BudgetExceededError
from dichroma.generators import complete_graph, rook
from dichroma.products import tensor_product
from dichroma.randomized import RngSpec, random_orientation, stream_u64

from oracles import acyclic_by_dfs, brute_semicovers_all_acyclic_partitions, relabel

C3 = Digraph(3, [(0, 1), (1, 2), (2, 0)])


def test_set_collection_validation():
    with pytest.raises(ValueError):
        SetCollection((frozenset({0}), frozenset({1})), s=1, t=1)
    with pytest.raises(ValueError):
        SetCollection((frozenset({0, 1}),), s=1, t=1)
    ok = SetCollection((frozenset({0, 1}),), s=3, t=2)
    assert ok.member_masks() == [0b11]


def test_build_rook_collection_small():
    col = build_rook_collection(3, 1)
    assert len(col.members) == 54
    assert col.s == 54 and col.t == 4
    assert max(len(m) for m in col.members) == 4
    assert min(len(m) for m in col.members) == 3  # block on the line


def test_build_rook_collection_guard_branch():
    # the default block side floor(124 ln 3) = 136 exceeds n: single member V
    col = build_rook_collection(3)
    assert col == build_rook_collection(3, 136)
    assert col.members == (frozenset(range(9)),)
    assert col.s == 1
    d = random_orientation(rook(3), RngSpec(0))
    assert verify_cover_all_acyclic(d, col) is None


def test_build_rook_collection_single_vertex():
    col = build_rook_collection(1)
    assert col.members == (frozenset({0}),)
    d = Digraph(1)
    assert verify_cover_all_acyclic(d, col) is None


def test_rook_collection_declared_bounds_grid():
    for n in range(1, 7):
        for beta in range(0, 4):
            col = build_rook_collection(n, beta)
            assert len(col.members) <= col.s
            assert all(len(m) <= col.t for m in col.members)
            if 1 <= beta <= n:
                assert len(col.members) == 2 * n * math.comb(n, beta) ** 2 == col.s
                assert col.t == n + beta * beta
                if beta <= n - 1:
                    assert max(len(m) for m in col.members) == col.t


def test_verify_cover_examples():
    acyclic = Digraph(3, [(0, 1), (1, 2)])
    whole = SetCollection((frozenset(range(3)),), 1, 3)
    assert verify_cover_all_acyclic(acyclic, whole) is None
    singletons = SetCollection(tuple(frozenset({v}) for v in range(3)), 3, 1)
    missed = verify_cover_all_acyclic(C3, singletons)
    assert missed is not None and len(missed) == 2


def test_verify_cover_rook4_regression():
    # value frozen from the first verified run (seeded orientation)
    d = random_orientation(rook(4), RngSpec(2))
    col = build_rook_collection(4, 2)
    missed = verify_cover_all_acyclic(d, col)
    assert sorted(missed) == [0, 1, 2, 3, 4, 7, 8, 12]
    # counterexample re-validates: acyclic but inside no member
    assert acyclic_by_dfs(*relabel(d.arcs, missed))
    assert all(not missed <= m for m in col.members)


def test_verify_cover_stops_at_first_counterexample():
    # the second of the 2,504 maximal acyclic sets lies in no member; the
    # check returns the same set as a full listing would, after a few of
    # the 144,826 search nodes that listing visits
    d = random_orientation(rook(5), RngSpec(1))
    deadline = Deadline()
    missed = verify_cover_all_acyclic(d, build_rook_collection(5, 2), deadline)
    assert sorted(missed) == [0, 1, 2, 3, 4, 5, 6, 11, 16]
    assert deadline.ticks < 100


def test_verify_semicover_bidirected_k2xh():
    h = complete_graph(3)
    d = bidirect(tensor_product(complete_graph(2), h))
    singles = SetCollection(tuple(frozenset({v}) for v in range(3)), 3, 1)
    assert verify_semicover_all_acyclic(d, singles, 2.0) is None


def test_verify_semicover_empty_collection():
    d = Digraph(2)  # one vertex per side, no arcs
    empty = SetCollection((), 1, 1)
    assert verify_semicover_all_acyclic(d, empty, 5.0) is not None


def test_verify_semicover_k2xrook3_regression():
    # value frozen from the first verified run (seeded orientation)
    d = random_orientation(tensor_product(complete_graph(2), rook(3)), RngSpec(5))
    col = build_rook_collection(3, 1)
    missed = verify_semicover_all_acyclic(d, col, 4.0)
    assert sorted(missed) == list(range(17))
    assert acyclic_by_dfs(*relabel(d.arcs, missed))


def test_sample_sublists_identity_and_empty():
    L = ListAssignment.uniform(4, (1, 2, 3))
    assert sample_sublists(L, 3, RngSpec(0)).lists == L.lists
    empty = sample_sublists(L, 0, RngSpec(0))
    assert all(len(lst) == 0 for lst in empty.lists)


def test_sample_sublists_uniform():
    L = ListAssignment.uniform(1, (1, 2, 3, 4))
    counts: dict[frozenset, int] = {}
    colour_hits = {c: 0 for c in (1, 2, 3, 4)}
    for i in range(10_000):
        drawn = sample_sublists(L, 2, RngSpec(31).derive(i))
        counts[drawn.lists[0]] = counts.get(drawn.lists[0], 0) + 1
        for c in drawn.lists[0]:
            colour_hits[c] += 1
    assert len(counts) == 6
    # binomial 3 sigma around 1/6
    sigma = math.sqrt(10_000 * (1 / 6) * (5 / 6))
    for value in counts.values():
        assert abs(value - 10_000 / 6) <= 3 * sigma
    # each colour survives with frequency l2/l1 = 1/2
    sigma_c = math.sqrt(10_000 * 0.5 * 0.5)
    for value in colour_hits.values():
        assert abs(value - 5_000) <= 3 * sigma_c


def _parts(f: Coloring) -> list[frozenset[int]]:
    """The nonempty colour classes of f."""
    return [frozenset(v for v, c in enumerate(f.assignment) if c == colour)
            for colour in set(f.assignment)]


def _fresh_search(d, C, L, deadline=None):
    """One covered-partition search for L alone, as mc acceptance runs it,
    with its colours as a Coloring over L's palette, or None."""
    colour = _covered_partition_search(d, C, L.palette, deadline)(L.lists)
    return None if colour is None else Coloring(L.palette, tuple(colour))


def test_covered_partition_search_examples():
    whole = SetCollection((frozenset(range(3)),), 1, 3)
    acyclic = Digraph(3, [(0, 1), (1, 2)])
    full = ListAssignment.uniform(3, (1,))
    found = _fresh_search(acyclic, whole, full)
    assert found == Coloring((1,), (1, 1, 1))
    empty_lists = ListAssignment((1, 2), (frozenset(),) * 3, 0)
    assert _fresh_search(acyclic, whole, empty_lists) is None
    two_subsets = SetCollection(
        tuple(frozenset(c) for c in combinations(range(3), 2)), 3, 2
    )
    lists12 = ListAssignment.uniform(3, (1, 2))
    found = _fresh_search(C3, two_subsets, lists12)
    assert found is not None
    # each nonempty class inside some member
    assert all(any(part <= m for m in two_subsets.members) for part in _parts(found))
    assert all(c in lst for c, lst in zip(found.assignment, lists12.lists))
    for part in _parts(found):
        assert acyclic_by_dfs(*relabel(C3.arcs, part))


def test_acceptance_search_polls_deadline(monkeypatch):
    whole = SetCollection((frozenset(range(3)),), 1, 3)
    L1 = ListAssignment.uniform(3, (1, 2))
    assert _fresh_search(C3, whole, L1, Deadline(60)) is not None
    monkeypatch.setattr(Deadline, "check", lambda self: True)
    # a given deadline, and without one Deadline()
    for deadline in (Deadline(60), None):
        with pytest.raises(BudgetExceededError):
            _fresh_search(C3, whole, L1, deadline)
    with pytest.raises(BudgetExceededError):
        estimate_acceptance_probability(C3, whole, L1, 1, 4, RngSpec(1),
                                        deadline=Deadline(60))


def _brute_accepts(d: Digraph, member_sets: list[set[int]], lists) -> bool:
    """Whether some assignment drawn from lists has every class acyclic
    and inside a member, by trying them all."""
    for assignment in iproduct(*lists):
        classes: dict[int, set[int]] = {}
        for v, c in enumerate(assignment):
            classes.setdefault(c, set()).add(v)
        if all(
            any(block <= m for m in member_sets)
            and acyclic_by_dfs(*relabel(d.arcs, block))
            for block in classes.values()
        ):
            return True
    return False


def _exact_acceptance(d: Digraph, col: SetCollection, L1: ListAssignment, l2: int):
    """Exhaustive ground truth over every sublist assignment."""
    options = [list(combinations(sorted(lst), l2)) for lst in L1.lists]
    member_sets = [set(m) for m in col.members]
    hits = 0
    total = 0
    for choice in iproduct(*options):
        total += 1
        hits += _brute_accepts(d, member_sets, choice)
    return Fraction(hits, total)


def _random_cover_case(rng: RngSpec, i: int):
    """A seeded digraph on at most 5 vertices, a random collection (which
    may leave vertices in no member), random 0..3-lists over 1..4 and a
    sublist size."""
    n = stream_u64(rng, 0x91, i) % 6
    d = random_digraph(n, rng.derive(i, 0))
    members = []
    for j in range(stream_u64(rng, 0x92, i) % 7):
        mask = stream_u64(rng, 0x93, i * 8 + j) & ((1 << n) - 1)
        members.append(frozenset(v for v in range(n) if mask >> v & 1))
    col = SetCollection(tuple(members), max(1, len(members)), max(1, n))
    l1 = stream_u64(rng, 0x94, i) % 4
    lists = [sorted(range(1, 5), key=lambda c: stream_u64(rng, 0x95, (i * 8 + v) * 8 + c))[:l1]
             for v in range(n)]
    L1 = ListAssignment((1, 2, 3, 4), lists, l1)
    # below l1, the bound g needs l2 >= 1 and n >= 1
    l2 = 1 + stream_u64(rng, 0x96, i) % l1 if l1 and n else l1
    return d, col, L1, l2


def test_reused_cover_search_matches_fresh_searches_and_brute_force():
    """One search per estimate, reused across trials, against a fresh
    search set up per trial and the brute oracle."""
    rng = RngSpec(43)
    cases = [_random_cover_case(rng, i) for i in range(150)]
    uncovered = SetCollection((frozenset({0, 1}),), 1, 2)  # vertex 2 in no member
    cases += [
        (C3, uncovered, ListAssignment.uniform(3, (1, 2, 3)), 2),
        (Digraph(0), SetCollection((), 1, 1), ListAssignment((1,), (), 1), 1),
        (C3, SetCollection((frozenset(range(3)),), 1, 3), ListAssignment((1,), ((),) * 3, 0), 0),
        # an unsorted palette of negative and huge colours
        (C3, SetCollection((frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})), 3, 2),
         ListAssignment((10**9, -10**9, -1, 7),
                        ((10**9, -10**9, -1), (-1, 7, 10**9), (-10**9, 7, -1)), 3), 2),
    ]
    seen = set()
    for i, (d, col, L1, l2) in enumerate(cases):
        trials = 6
        samples = [sample_sublists(L1, l2, rng.derive(i, 1, t)) for t in range(trials)]
        member_sets = [set(m) for m in col.members]
        hits = 0
        for L2 in samples:
            found = _fresh_search(d, col, L2)
            assert (found is not None) == _brute_accepts(d, member_sets, L2.lists), (i, L2)
            if found is not None:
                assert all(c in lst for c, lst in zip(found.assignment, L2.lists))
                assert all(any(part <= m for m in col.members) for part in _parts(found))
                assert is_proper_dicoloring(d, found)
            hits += found is not None
        find = _covered_partition_search(d, col, L1.palette, None)
        assert [find(L2.lists) is not None for L2 in samples] == [
            _fresh_search(d, col, L2) is not None for L2 in samples]
        est = estimate_acceptance_probability(d, col, L1, l2, trials, rng.derive(i, 1))
        assert est.event.successes == hits, i
        uncovered_vertex = not set(range(d.n)) <= set().union(*col.members)
        seen.add((d.n == 0, l2 == 0, uncovered_vertex, 0 < hits < trials))
    # an empty digraph, empty lists, a vertex in no member and mixed
    # outcomes each occur
    assert all(any(flags[j] for flags in seen) for j in range(4))
    with pytest.raises(ValueError, match="does not cover the vertex set"):
        estimate_acceptance_probability(C3, uncovered, ListAssignment.uniform(2, (1, 2)),
                                        1, 4, RngSpec(1))


class _FireAt(Deadline):
    """A deadline whose poll number fire says time is up."""

    def __init__(self, fire: float):
        super().__init__(60)
        self.fire = fire

    def check(self) -> bool:
        self.ticks += 1
        return self.ticks >= self.fire


def test_reused_cover_search_raises_when_its_deadline_fires():
    d = random_orientation(rook(3), RngSpec(1))
    col = build_rook_collection(3, 1)
    L1 = ListAssignment.uniform(9, (1, 2, 3))

    def estimate(trials, deadline):
        return estimate_acceptance_probability(d, col, L1, 2, trials, RngSpec(7),
                                               deadline=deadline)

    first, whole = _FireAt(math.inf), _FireAt(math.inf)
    estimate(1, first)
    full = estimate(20, whole)
    assert first.ticks < whole.ticks
    # polls inside later trials, after the first trial's search succeeded
    for fire in (first.ticks + 2, (first.ticks + whole.ticks) // 2, whole.ticks):
        with pytest.raises(BudgetExceededError, match="partition search ran out of time"):
            estimate(20, _FireAt(fire))
    assert estimate(20, _FireAt(whole.ticks + 1)) == full


def test_estimate_acceptance_probability_hypothesis_case():
    # nine isolated vertices, one singleton member: the applicability
    # hypothesis 4tu <= (l1-l2)n holds and no covered partition exists
    d = Digraph(9)
    col = SetCollection((frozenset({0}),), 1, 1)
    L1 = ListAssignment.uniform(9, (1, 2))
    est = estimate_acceptance_probability(d, col, L1, 1, 60, RngSpec(3))
    assert est.hypothesis_ok
    assert est.event.estimate == 0.0
    assert 0.0 <= est.bound < 1.0
    assert est.event.estimate < est.bound


def test_estimate_acceptance_probability_deterministic_when_l2_is_l1():
    whole = SetCollection((frozenset(range(3)),), 1, 3)
    L1 = ListAssignment.uniform(3, (1, 2))
    est = estimate_acceptance_probability(C3, whole, L1, 2, 25, RngSpec(1))
    assert est.event.estimate in (0.0, 1.0)


def test_estimate_acceptance_probability_full_lists():
    whole = SetCollection((frozenset(range(3)),), 1, 3)
    acyclic = Digraph(3, [(0, 1)])
    L1 = ListAssignment.uniform(3, (1, 2))
    est = estimate_acceptance_probability(acyclic, whole, L1, 1, 40, RngSpec(8))
    assert est.event.estimate == 1.0
    assert est.bound >= 1.0 or not est.hypothesis_ok


def test_exact_acceptance_matches_monte_carlo_and_search():
    d = Digraph(3, [(0, 1), (1, 2), (2, 0)])
    col = SetCollection(
        (frozenset({0, 1}), frozenset({2}), frozenset({1, 2})), 4, 2
    )
    L1 = ListAssignment.uniform(3, (1, 2, 3))
    exact = _exact_acceptance(d, col, L1, 2)
    est = estimate_acceptance_probability(d, col, L1, 2, 400, RngSpec(17))
    assert est.event.ci_low - 1e-9 <= float(exact) <= est.event.ci_high + 1e-9


def test_cross_product_implication_machinery():
    """The list-number transfer needs four hypotheses at once. Checking
    them mechanically over a desk-scale sweep shows the numeric ones force
    the doubled-graph side to be far larger than anything solvable here,
    so the implication is tested vacuously; the semicover ingredient is
    exercised on its own."""
    from dichroma.randomized import g_bound

    h = complete_graph(3)
    doubled = bidirect(tensor_product(complete_graph(2), h))
    singles = SetCollection(tuple(frozenset({v}) for v in range(3)), 3, 1)
    qualifying = []
    for lam in (1.0, 2.0):
        semicovers = verify_semicover_all_acyclic(doubled, singles, lam) is None
        assert semicovers  # every acyclic part is one-sided or a paired vertex
        for l1 in (2, 3):
            for l2 in range(1, l1):
                for m_edges in (1, 3):
                    cond_sizes = 8 * singles.t * l1 <= (l1 - l2) * h.n
                    cond_bound = (
                        m_edges
                        * g_bound(l1, l2, h.n, singles.s, singles.t, 2 * l1) ** 2
                        < 1.0
                    )
                    cond_lam = lam * l1 <= h.n
                    if semicovers and cond_sizes and cond_bound and cond_lam:
                        qualifying.append((lam, l1, l2, m_edges))
    # 8*t*l1 <= (l1-l2)*n forces n >= 16 with t >= 1, beyond this sweep
    assert qualifying == []


def test_thinning_hypothesis_unsatisfiable_at_tiny_scale():
    """With t >= 1, u >= l1 > l2 >= 1 the requirement 4tu <= (l1-l2)n
    cannot hold for n <= 4 and l1 <= 3, so the exact-enumeration bound
    comparison is vacuous there; the sweep asserts exactly that."""
    qualifying = 0
    for n in range(1, 5):
        for l1 in range(2, 4):
            for l2 in range(1, l1):
                for u in range(l1, 13):
                    for t in range(1, n + 1):
                        if 4 * t * u <= (l1 - l2) * n:
                            qualifying += 1
    assert qualifying == 0


def test_semicover_checker_oracle_equivalence():
    """verify_semicover_all_acyclic against set-partition enumeration on
    seeded digraphs with even vertex counts, members over the first side."""
    rng = RngSpec(29)
    outcomes = []
    for i in range(100):
        n = 2 * (1 + stream_u64(rng, 0x81, i) % 4)
        d = random_digraph(n, rng.derive(i, 0))
        half = n // 2
        member_count = stream_u64(rng, 0x82, i) % 6
        members = []
        for j in range(member_count):
            mask = stream_u64(rng, 0x83, i * 8 + j) & ((1 << half) - 1)
            members.append(frozenset(v for v in range(half) if mask >> v & 1))
        col = SetCollection(
            tuple(members), member_count, max((len(m) for m in members), default=0)
        )
        lam = 1 + stream_u64(rng, 0x84, i) % 3
        fast = verify_semicover_all_acyclic(d, col, lam) is None
        slow, _ = brute_semicovers_all_acyclic_partitions(n, d.arcs, members, lam)
        assert fast == slow, (i, n, members, lam)
        outcomes.append((fast, lam))
    # both verdicts occur, under every threshold
    assert set(outcomes) == {(ok, lam) for ok in (True, False) for lam in (1, 2, 3)}
