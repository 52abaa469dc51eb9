import json
import time
from collections import Counter
from itertools import combinations, count, product as iproduct
from pathlib import Path

import pytest

from dichroma.catalogue import digraph_catalogue, graph_catalogue, random_digraph
from dichroma.core import (
    Coloring,
    Deadline,
    Digraph,
    Graph,
    ListAssignment,
    Orientation,
    apply_orientation,
    bidirect,
    induced_subdigraph,
    is_acyclic,
    is_proper_coloring,
    is_proper_dicoloring,
)
from dichroma.generators import (
    complete_bipartite,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    kneser,
    path_graph,
    rook,
)
from dichroma.products import cartesian_product
from dichroma.randomized import RngSpec, random_orientation
from dichroma import solvers
from dichroma.solvers import (
    _canonical_prefixes,
    _class_test,
    _degree_order,
    _forest_clash,
    _greedy_coloring,
    _search_dicoloring,
    _smallest_last,
    _vertex_arboricity,
    canonical_list_assignments,
    chromatic_number,
    dichromatic_number,
    dichromatic_number_of_graph,
    find_acceptable_coloring,
    find_acceptable_dicoloring,
    list_chromatic_number,
    list_dichromatic_number,
    sabidussi_coloring,
)

from oracles import (
    _column_multisets,
    brute_chromatic,
    brute_list_chromatic,
    brute_list_dichromatic,
    brute_list_dicolourable,
    brute_min_acyclic_parts,
    induces_forest,
)

C3 = Digraph(3, [(0, 1), (1, 2), (2, 0)])
# five vertices with in/out-degeneracy 3 and list dichromatic number 3, so
# the k = 3 level sweeps all 35,775 canonical assignments
FIVE = Digraph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 0), (1, 3), (1, 4), (2, 0), (2, 3),
                   (2, 4), (3, 0), (3, 1), (3, 2), (4, 0), (4, 1), (4, 2)])


def test_chromatic_examples():
    assert chromatic_number(kneser(5, 2), Deadline(300)).value == 3
    assert chromatic_number(complete_graph(4), Deadline(300)).value == 4
    assert chromatic_number(kneser(6, 2), Deadline(300)).value == 4


def test_chromatic_witness_revalidates():
    g = kneser(5, 2)
    cert = chromatic_number(g, Deadline(300))
    assert cert.exact and is_proper_coloring(g, cert.witness)
    assert len(set(cert.witness.assignment)) == cert.value


def test_chromatic_against_oracle():
    from dichroma.catalogue import graphs_up_to

    for g in graphs_up_to(5):
        assert chromatic_number(g, Deadline(300)).value == brute_chromatic(g.n, g.edges)


def test_dichromatic_examples():
    assert dichromatic_number(C3, Deadline(300)).value == 2
    acyclic = Digraph(4, [(0, 1), (1, 2), (2, 3)])
    assert dichromatic_number(acyclic, Deadline(300)).value == 1
    assert dichromatic_number(bidirect(complete_graph(3)), Deadline(300)).value == 3


def test_dichromatic_witness_revalidates():
    d = bidirect(kneser(5, 2))
    cert = dichromatic_number(d, Deadline(300))
    assert cert.exact and cert.value == 3
    assert is_proper_dicoloring(d, cert.witness)


def test_dichromatic_against_partition_oracle():
    rng = RngSpec(99)
    targets = list(digraph_catalogue(3)) + [
        random_digraph(4 + i % 2, rng.derive(i)) for i in range(30)
    ]
    for d in targets:
        assert dichromatic_number(d, Deadline(300)).value == brute_min_acyclic_parts(d.n, d.arcs)


def test_dichromatic_number_of_graph_examples():
    tree = path_graph(5)
    assert dichromatic_number_of_graph(tree, Deadline(300)).value == 1
    assert dichromatic_number_of_graph(cycle_graph(5), Deadline(300)).value == 2
    cert = dichromatic_number_of_graph(complete_graph(3), Deadline(300))
    assert cert.value == 2
    # the witness orientation reaches the maximum
    from dichroma.core import apply_orientation

    d = apply_orientation(complete_graph(3), cert.witness_orientation)
    assert dichromatic_number(d, Deadline(300)).value == 2


def test_dichromatic_number_of_graph_against_full_sweep():
    # no reversal-pair merging, no early exit: plain maximum over all
    # orientations with the partition-enumeration oracle per orientation
    from dichroma.catalogue import graphs_up_to
    from dichroma.core import apply_orientation, enumerate_orientations

    for g in graphs_up_to(4):
        brute = 1 if g.n else 0
        for o in enumerate_orientations(g):
            d = apply_orientation(g, o)
            brute = max(brute, brute_min_acyclic_parts(d.n, d.arcs))
        assert dichromatic_number_of_graph(g, Deadline(300)).value == brute


def _reference_sweep(g):
    """The orientation sweep without the arboricity bound: one orientation
    of each reversal pair in lexicographic order, stopping only once the
    chromatic number is reached."""
    chi = chromatic_number(g, Deadline(300))
    if g.m == 0:
        value = 1 if g.n else 0
        return value, True, Orientation(g, ()), Coloring((0,), (0,) * g.n)
    best, best_orientation, best_witness = 0, None, None
    m, full = g.m, (1 << g.m) - 1
    for code in range(1 << m):
        if code > full ^ code:
            continue
        o = Orientation(g, tuple(bool(code >> (m - 1 - j) & 1) for j in range(m)))
        cert = dichromatic_number(apply_orientation(g, o), Deadline(300))
        if cert.value > best:
            best, best_orientation, best_witness = cert.value, o, cert.witness
        if chi.exact and best == chi.value:
            break
    return best, True, best_orientation, best_witness


def test_dichromatic_number_of_graph_matches_reference_sweep():
    from dichroma.catalogue import graphs_up_to

    named = [kneser(5, 2), complete_multipartite(2, 3), complete_bipartite(3, 3),
             complete_graph(5), complete_graph(6)]
    for g in graphs_up_to(6) + named:
        cert = dichromatic_number_of_graph(g, Deadline(300))
        got = (cert.value, cert.exact, cert.witness_orientation, cert.witness)
        assert got == _reference_sweep(g), g


def test_dichromatic_number_of_graph_names_its_bound():
    cert = dichromatic_number_of_graph(kneser(5, 2), Deadline(300))
    assert cert.detail.startswith("stopped at the vertex-arboricity bound 2 after 26 ")
    cert = dichromatic_number_of_graph(complete_multipartite(2, 3), Deadline(300))
    assert cert.detail.startswith("stopped at the vertex-arboricity bound 2 after 7 ")
    cert = dichromatic_number_of_graph(complete_bipartite(3, 3), Deadline(300))
    assert cert.detail.startswith("stopped at the vertex-arboricity bound 2 after ")
    cert = dichromatic_number_of_graph(complete_graph(6), Deadline(300))
    assert cert.value == 2 and cert.detail.startswith("full sweep after 16384 ")


def test_orientation_sweep_runs_no_chromatic_solve(monkeypatch):
    # a(G) <= chi(G): each colour class is independent, so a forest, and
    # the chromatic number never lowers the sweep's bound
    from dichroma.catalogue import graphs_up_to

    calls = []
    chromatic = solvers.chromatic_number
    monkeypatch.setattr(solvers, "chromatic_number",
                        lambda *args: calls.append(args) or chromatic(*args))
    for g in graphs_up_to(5) + [complete_bipartite(3, 3), kneser(5, 2)]:
        assert dichromatic_number_of_graph(g, Deadline(300)).exact
    assert calls == []


def test_forest_clash_against_oracle():
    from dichroma.catalogue import graphs_up_to

    for g in graphs_up_to(5):
        for mask in range(1 << g.n):
            members = [u for u in range(g.n) if mask >> u & 1]
            if not induces_forest(g.edges, members):
                continue
            for v in range(g.n):
                if not mask >> v & 1:
                    grown = induces_forest(g.edges, members + [v])
                    assert _forest_clash(g.adj, mask, v) == (not grown), (g, mask, v)


def _arboricity(g):
    return _vertex_arboricity(g.adj, Deadline(300)).value


def test_vertex_arboricity_known_values():
    for n in range(1, 8):
        assert _arboricity(complete_graph(n)) == (n + 1) // 2
    for n in range(3, 9):
        assert _arboricity(cycle_graph(n)) == 2
    star = complete_bipartite(1, 5)
    for tree in (path_graph(1), path_graph(6), star):
        assert _arboricity(tree) == 1
    for g in (kneser(5, 2), complete_multipartite(2, 3), complete_bipartite(3, 3)):
        assert _arboricity(g) == 2


def test_dichromatic_number_of_graph_limit(monkeypatch):
    # no edge cap: the deadline alone stops KG(6,2)'s sweep of 2^44
    # reversal pairs, with a = 3 bounding every orientation;
    # the sweep reads the clock after every orientation
    _fire_after(monkeypatch, 3000, "expired")
    cert = dichromatic_number_of_graph(kneser(6, 2), Deadline(300))
    assert not cert.exact and (cert.lower, cert.upper) == (2, 3)
    assert "timeout during the orientation sweep" in cert.detail
    d = apply_orientation(kneser(6, 2), cert.witness_orientation)
    assert is_proper_dicoloring(d, cert.witness) and len(set(cert.witness.assignment)) == 2


def test_orientation_sweep_reads_the_clock_per_orientation(monkeypatch):
    # every clock read from the first orientation on says time is up, so
    # the sweep stops after it; a sweep that read the clock only every
    # 1,024 polls ran on far past a short deadline
    armed = []
    orient = solvers.apply_orientation

    def arm(*args):
        armed.append(True)
        return orient(*args)

    monkeypatch.setattr(solvers, "apply_orientation", arm)
    monkeypatch.setattr(Deadline, "expired", lambda self: bool(armed))
    cert = dichromatic_number_of_graph(kneser(6, 2), Deadline(300))
    assert not cert.exact
    assert cert.detail.endswith("after 1 orientations")


def test_dichromatic_number_of_graph_past_64_edges(monkeypatch):
    # 66 edges: the sweep's 2^65 reversal pairs exceed sys.maxsize, and the
    # deadline still ends it with a = 6 bounding every orientation
    g = complete_graph(12)
    _fire_after(monkeypatch, 5000)
    cert = dichromatic_number_of_graph(g, Deadline(300))
    assert not cert.exact and (cert.lower, cert.upper) == (2, 6)
    assert "timeout inside orientation solve" in cert.detail


def test_find_acceptable_dicoloring_examples():
    lists2 = ListAssignment.uniform(3, (1, 2))
    got = find_acceptable_dicoloring(C3, lists2)
    assert got is not None and is_proper_dicoloring(C3, got)
    lists1 = ListAssignment.uniform(3, (1,))
    assert find_acceptable_dicoloring(C3, lists1) is None
    acyclic = Digraph(3, [(0, 1), (1, 2)])
    weird = ListAssignment((1, 2, 3), (frozenset({1}), frozenset({2}), frozenset({3})), 1)
    got = find_acceptable_dicoloring(acyclic, weird)
    assert got is not None and got.assignment == (1, 2, 3)


def test_list_dichromatic_examples():
    cert = list_dichromatic_number(C3, Deadline(300))
    assert cert.value == 2
    # the stored witness rejects every colouring at k-1
    assert cert.rejecting_assignment is not None
    assert find_acceptable_dicoloring(C3, cert.rejecting_assignment) is None
    acyclic = Digraph(3, [(0, 1), (0, 2)])
    assert list_dichromatic_number(acyclic, Deadline(300)).value == 1
    c4 = bidirect(cycle_graph(4))
    assert list_dichromatic_number(c4, Deadline(300)).value == 2


def _reference_greedy(clash, order):
    """First fit as a loop of its own: the reference for _greedy_coloring."""
    colour = [-1] * len(order)
    class_masks = []
    for v in order:
        for c, cm in enumerate(class_masks):
            if not clash(cm, v):
                colour[v] = c
                class_masks[c] |= 1 << v
                break
        else:
            colour[v] = len(class_masks)
            class_masks.append(1 << v)
    return colour


def _reference_search(clash, order, k, deadline):
    """The k-class search written recursively, polling deadline at every
    node, each vertex trying the used classes and one unused one: the
    reference for _search_dicoloring."""
    n = len(order)
    colour = [-1] * n
    class_masks = [0] * k

    def rec(i, used):
        if deadline.check():
            raise solvers._TimeUp
        if i == n:
            return True
        v = order[i]
        for c in range(used + 1 if used < k else k):
            if clash(class_masks[c], v):
                continue
            colour[v] = c
            class_masks[c] |= 1 << v
            if rec(i + 1, used if c < used else c + 1):
                return True
            class_masks[c] &= ~(1 << v)
        colour[v] = -1
        return False

    return list(colour) if rec(0, 0) else None


def test_k_search_and_first_fit_match_recursive_references():
    # same colouring or None and the same number of deadline polls, for
    # every k up to the first-fit count, under all three class tests
    rng = RngSpec(77)
    structures = list(digraph_catalogue(4)) + list(graph_catalogue(5))
    structures += [random_digraph(n, rng.derive(n, i)) for n in (6, 7, 8) for i in range(8)]
    searched = 0
    for obj in structures:
        adj = [o | i for o, i in zip(obj.outs, obj.ins)]
        order = _degree_order(adj)
        for clash in (_class_test(adj), _class_test(obj.outs, obj.ins),
                      _class_test(adj, forests=True)):
            greedy = _greedy_coloring(clash, order)
            assert greedy == _reference_greedy(clash, order)
            for k in range(1, max(greedy, default=-1) + 2):
                ours, theirs = Deadline(300), Deadline(300)
                assert (_search_dicoloring(clash, order, k, ours)
                        == _reference_search(clash, order, k, theirs)), (obj, k)
                assert ours.ticks == theirs.ticks
                searched += 1
    assert searched > 800


def test_list_chromatic_examples(monkeypatch):
    assert list_chromatic_number(complete_bipartite(2, 2), Deadline(300)).value == 2
    assert list_chromatic_number(complete_graph(3), Deadline(300)).value == 3
    assert list_chromatic_number(Graph(4), Deadline(300)).value == 1
    # ch(K_{2*r}) = r (Erdos, Rubin and Taylor, 1979); value and rejecting
    # 2-assignment are pinned from the sweep that searched every canonical
    # assignment, whose k = 3 level (2,406,208 classes) is too slow to rerun
    undecided = solvers._undecided_assignments
    searched = Counter()

    def spy(search, n, k):
        for item in undecided(search, n, k):
            searched[k] += 1
            yield item

    monkeypatch.setattr(solvers, "_undecided_assignments", spy)
    # each k = 3 level searches the first last list of its 35,775 canonical
    # prefixes, then only the last lists made wholly of blocked colours
    for g, lists, palette, blocked_lists in (
        (complete_bipartite(3, 3), ((1, 2), (1, 3), (2, 3)) * 2, (1, 2, 3), 201),
        (complete_multipartite(2, 3), ((1, 2),) * 6, (1, 2), 23_961),
    ):
        searched.clear()
        cert = list_chromatic_number(g, Deadline(300))
        assert cert.exact and cert.value == 3
        assert cert.detail == "every canonical 3-assignment accepts a colouring"
        assert cert.rejecting_assignment == ListAssignment(palette, lists, 2)
        assert searched[3] == 35_775 + blocked_lists


def _first_use_assignments(n, k):
    """Reference for canonical_list_assignments: every k-list assignment on
    n vertices in first-use normal form, renamings of one another included,
    in the order the canonical generator keeps."""
    if n == 0:
        yield ListAssignment((), (), k)
        return
    if k == 0:
        yield ListAssignment((), (frozenset(),) * n, 0)
        return
    lists = []

    def rec(i, top):
        if i == n:
            yield tuple(lists), top
            return
        for fresh in range(0, k + 1):
            if k - fresh > top:
                continue
            new_part = frozenset(range(top + 1, top + fresh + 1))
            for old in combinations(range(1, top + 1), k - fresh):
                lists.append(frozenset(old) | new_part)
                yield from rec(i + 1, top + fresh)
                lists.pop()

    for chosen, top in rec(0, 0):
        yield ListAssignment(tuple(range(1, top + 1)), chosen, k)


def _column_multiset(L):
    """The renaming class of L: the sorted vertex sets its colours cover."""
    columns = {}
    for v, lst in enumerate(L.lists):
        for c in lst:
            columns[c] = columns.get(c, 0) | 1 << v
    return tuple(sorted(columns.values()))


CLASS_SIZES = [(n, k) for n in range(6) for k in range(3)] + [(n, 3) for n in range(5)] + [(3, 4)]


@pytest.mark.parametrize("n,k", CLASS_SIZES)
def test_canonical_assignments_are_first_of_each_renaming_class(n, k):
    seen = set()
    firsts = []
    for L in _first_use_assignments(n, k):
        key = _column_multiset(L)
        if key not in seen:
            seen.add(key)
            firsts.append(L)
    got = list(canonical_list_assignments(n, k))
    assert got == firsts
    # each assignment is built from the lists of the one before: consecutive
    # assignments share the list objects up to their first different list
    for a, b in zip(got, got[1:]):
        j = next(j for j, (x, y) in enumerate(zip(a.lists, b.lists)) if x != y)
        assert all(a.lists[i] is b.lists[i] for i in range(j))


@pytest.mark.parametrize("n,k", [(n, k) for n, k in CLASS_SIZES if n])
def test_prefix_walk_yields_the_first_changed_list(n, k):
    # the sweep restarts its search at this index, keeping the colours of
    # the vertices below it, so it must be where the prefix's lists first
    # differ in value from the previous prefix's
    walk = [(tuple(lists), start) for lists, _, _, start in _canonical_prefixes(n, k)]
    assert walk[0][1] == 0
    for (a, _), (b, start) in zip(walk, walk[1:]):
        assert start == next(j for j, (x, y) in enumerate(zip(a, b)) if x != y)


@pytest.mark.parametrize("n,k,classes", [
    (4, 2, 139), (5, 2, 1750), (4, 3, 862), (3, 4, 81), (4, 4, 4079),
])
def test_canonical_assignments_count_renaming_classes(n, k, classes):
    yielded = sum(1 for _ in canonical_list_assignments(n, k))
    assert yielded == classes == sum(1 for _ in _column_multisets(n, k))


def _single_walk_assignments(n, k):
    """Reference for canonical_list_assignments: the same enumeration as
    one recursive walk that builds the last vertex's lists in place, each
    assignment as a (palette, lists, k) tuple."""
    if n == 0:
        yield (), (), k
        return
    lists = []
    columns = [0] * (n * k + 1)

    def rec(i, top):
        twin, seen = [0] * (top + 1), {}
        for c in range(1, top + 1):
            twin[c] = seen.get(columns[c], 0)
            seen[columns[c]] = c
        for fresh in range(0, k + 1):
            if k - fresh > top:
                continue
            new_part = tuple(range(top + 1, top + fresh + 1))
            for old in combinations(range(1, top + 1), k - fresh):
                if any(twin[c] and twin[c] not in old for c in old):
                    continue
                lst = old + new_part
                if i == n - 1:
                    yield tuple(range(1, top + fresh + 1)), (*lists, lst), k
                    continue
                for c in lst:
                    columns[c] |= 1 << i
                lists.append(lst)
                yield from rec(i + 1, top + fresh)
                lists.pop()
                for c in lst:
                    columns[c] ^= 1 << i

    yield from rec(0, 0)


@pytest.mark.parametrize("n,k", [(n, k) for n in range(6) for k in range(4)] + [(6, 2)])
def test_canonical_assignments_match_the_single_walk(n, k):
    # the prefix walk followed by the last vertex's lists yields exactly
    # what one walk over all n vertices yields
    got = [tuple(L) for L in canonical_list_assignments(n, k)]
    assert got == list(_single_walk_assignments(n, k))


@pytest.mark.parametrize("n,k", CLASS_SIZES)
def test_canonical_assignments_pass_validation(n, k):
    # the enumerator skips ListAssignment's checks; rebuilding through them
    # must give the same value, with every list a sorted tuple
    for a in canonical_list_assignments(n, k):
        assert a == ListAssignment(a.palette, a.lists, a.k)
        assert all(type(lst) is tuple for lst in a.lists)


BIG = 10**9
# (structure, palette, lists, the colouring the search returns, or None)
ODD_PALETTES = [
    (Digraph(4, [(0, 1), (1, 2), (2, 0), (1, 3), (3, 0), (2, 3), (3, 2)]), (-7, -5, BIG, BIG + 1),
     ({-5, BIG}, {-5, BIG + 1}, {BIG, -5}, {-7, BIG}), (BIG, -5, -5, -7)),
    (C3, (-7, -5, BIG, BIG + 1), ({-5, BIG}, {-5, BIG + 1}, {BIG, -5}), (BIG, -5, -5)),
    (C3, (-3, -2, BIG), ({-3},) * 3, None),
    (complete_bipartite(3, 3), (-2, -1, BIG),
     ({-1, BIG}, {-1, -2}, {-2, BIG}) * 2, None),
    (complete_bipartite(3, 3), (-9, BIG - 1), ({-9, BIG - 1},) * 6,
     (BIG - 1, BIG - 1, BIG - 1, -9, -9, -9)),
    (cycle_graph(5), (-4, 0, BIG - 1), ({-4, 0},) * 4 + ({BIG - 1, -4},), (0, -4, 0, -4, BIG - 1)),
    # an unsorted palette: the search still tries each list in ascending order
    (C3, (BIG + 3, -BIG, 0, -1), ({BIG + 3, -BIG}, {-BIG, 0}, {-1, -BIG}), (BIG + 3, -BIG, -BIG)),
]


@pytest.mark.parametrize("obj, palette, lists, expected", ODD_PALETTES)
def test_find_acceptable_on_palettes_outside_the_canonical_range(obj, palette, lists, expected):
    # colours are tried in ascending order, negative and huge ones included
    find = find_acceptable_coloring if isinstance(obj, Graph) else find_acceptable_dicoloring
    got = find(obj, ListAssignment(palette, lists, len(lists[0])))
    assert got == (None if expected is None else Coloring(palette, expected))


def test_canonical_assignments_first_use_form():
    for n, k in ((3, 2), (5, 2), (4, 3)):
        for L in canonical_list_assignments(n, k):
            seen_max = 0
            for lst in L.lists:
                fresh = sorted(c for c in lst if c > seen_max)
                assert fresh == list(range(seen_max + 1, seen_max + 1 + len(fresh)))
                seen_max += len(fresh)


def _accepts_all_brute(d: Digraph, k: int) -> bool:
    """Brute ground truth: every k-list assignment over palette [n*k]
    accepts some colouring (palette that large captures all assignments
    up to renaming)."""
    n = d.n
    palette = tuple(range(1, n * k + 1))
    all_lists = [frozenset(c) for c in combinations(palette, k)]
    for chosen in iproduct(all_lists, repeat=n):
        L = ListAssignment(palette, chosen, k)
        if find_acceptable_dicoloring(d, L) is None:
            return False
    return True


def test_canonical_enumeration_matches_full_enumeration():
    targets = [
        C3,
        Digraph(2, [(0, 1), (1, 0)]),
        Digraph(3, [(0, 1), (1, 0), (1, 2)]),
    ]
    for d in targets:
        for k in (1, 2):
            canonical_all = all(
                find_acceptable_dicoloring(d, L) is not None
                for L in canonical_list_assignments(d.n, k)
            )
            assert canonical_all == _accepts_all_brute(d, k)


def _full_sweep(obj, finder):
    """List number by sweeping the reference assignments level by level,
    with the search set up afresh for every assignment and no bound, and
    the first rejecting assignment of the level below it."""
    if obj.n == 0:
        return 0, None
    rejecting = None
    for k in count(1):
        first = next((L for L in _first_use_assignments(obj.n, k) if finder(obj, L) is None),
                     None)
        if first is None:
            return k, rejecting
        rejecting = first


def _check_list_certificate(obj, cert, finder, expected):
    assert cert.exact and cert.value == cert.lower == cert.upper == expected
    if expected > 1:
        rej = cert.rejecting_assignment
        assert rej is not None and rej.k == expected - 1
        assert finder(obj, rej) is None


def test_list_dichromatic_matches_full_sweep():
    for d in digraph_catalogue(4):
        cert = list_dichromatic_number(d, Deadline(300))
        expected, rejecting = _full_sweep(d, find_acceptable_dicoloring)
        _check_list_certificate(d, cert, find_acceptable_dicoloring, expected)
        assert cert.rejecting_assignment == rejecting


def test_list_chromatic_matches_full_sweep():
    for g in graph_catalogue(4):
        cert = list_chromatic_number(g, Deadline(300))
        expected, rejecting = _full_sweep(g, find_acceptable_coloring)
        _check_list_certificate(g, cert, find_acceptable_coloring, expected)
        assert cert.rejecting_assignment == rejecting


def test_list_numbers_against_brute_force():
    for d in digraph_catalogue(3):
        _check_list_certificate(d, list_dichromatic_number(d, Deadline(300)),
                                find_acceptable_dicoloring,
                                brute_list_dichromatic(d.n, d.arcs))
        g = d.underlying_graph()
        _check_list_certificate(g, list_chromatic_number(g, Deadline(300)),
                                find_acceptable_coloring,
                                brute_list_chromatic(g.n, g.edges))


def test_list_bound_closes_without_sweep():
    # chi = 1 + degeneracy = 4: the levels below end at their first
    # (uniform) assignment, and k = 4 needs no sweep
    cert = list_chromatic_number(complete_graph(4), Deadline(300))
    assert cert.value == 4 and "1 + degeneracy" in cert.detail
    cert = list_dichromatic_number(bidirect(complete_graph(4)), Deadline(300))
    assert cert.value == 4 and "1 + in/out-degeneracy" in cert.detail
    # C4 is 2-choosable below its bound 3, so the k = 2 sweep decides
    cert = list_chromatic_number(cycle_graph(4), Deadline(300))
    assert cert.value == 2 and "every canonical 2-assignment" in cert.detail


def test_list_dichromatic_below_bound_on_five_vertices():
    # in/out-degeneracy 3, so the bound is 4; the k = 3 sweep decides
    cert = list_dichromatic_number(FIVE, Deadline(60))
    assert cert.exact and cert.value == 3
    assert cert.detail == "every canonical 3-assignment accepts a colouring"
    rej = cert.rejecting_assignment
    assert rej.k == 2 and not brute_list_dicolourable(5, FIVE.arcs, rej.lists)


def _rescanning_smallest_last(outs, ins):
    """Reference for _smallest_last: rescan every remaining vertex for the
    least min(d+, d-) at each removal, lowest index first on ties; the
    reversed removal order and the largest minimum met."""
    n = len(outs)
    alive = (1 << n) - 1
    removed = []
    worst = 0
    for _ in range(n):
        best_v, best_d = -1, n + 1
        for v in range(n):
            if alive >> v & 1:
                dv = min((outs[v] & alive).bit_count(), (ins[v] & alive).bit_count())
                if dv < best_d:
                    best_v, best_d = v, dv
        removed.append(best_v)
        worst = max(worst, best_d)
        alive &= ~(1 << best_v)
    return removed[::-1], worst


def _fresh_sweep(obj, finder):
    """List number by the canonical sweep of all of obj up to 1 +
    in/out-degeneracy, with the search set up afresh for every assignment,
    and the first rejecting assignment of the level below it."""
    upper = 1 + _rescanning_smallest_last(obj.outs, obj.ins)[1]
    rejecting = None
    for k in range(1, upper):
        first = next((L for L in canonical_list_assignments(obj.n, k) if finder(obj, L) is None),
                     None)
        if first is None:
            return k, rejecting
        rejecting = first
    return upper, rejecting


def _k_core(obj, k):
    """The vertices left once every vertex with fewer than k out- or
    in-neighbours among those left is removed, in increasing order."""
    alive = set(range(obj.n))
    while True:
        mask = sum(1 << v for v in alive)
        low = {v for v in alive
               if min((obj.outs[v] & mask).bit_count(), (obj.ins[v] & mask).bit_count()) < k}
        if not low:
            return sorted(alive)
        alive -= low


def test_list_sweep_reusing_colourings_matches_fresh_searches(monkeypatch):
    # the sweep keeps the last accepted colouring on the leading vertices
    # whose lists did not change; searching every assignment afresh must
    # give the same value and rejecting assignment, and every colouring the
    # sweep accepts, which covers the level's k-core, must be drawn from the
    # lists and pass the core checker on the subdigraph the k-core induces
    undecided = solvers._undecided_assignments
    checked = []

    def spy(search, n, k):
        for top, lists, start in undecided(search, n, k):
            yield top, lists, start
            # resumed only once the search accepted lists
            colour = tuple(search.colour)
            members = _k_core(obj, k)
            assert len(colour) == len(lists) == len(members) == n
            assert all(c in lst for c, lst in zip(colour, lists))
            sub = induced_subdigraph(obj, members)
            assert proper(sub, Coloring(tuple(sorted(set(colour))), colour))
            checked.append(True)

    monkeypatch.setattr(solvers, "_undecided_assignments", spy)
    digraphs = [random_digraph(5, RngSpec(s)) for s in range(20)] + list(digraph_catalogue(4))
    digraphs += [random_digraph(5 + i % 2, RngSpec(2000 + i)) for i in range(40)]
    cases = [(d, list_dichromatic_number, find_acceptable_dicoloring, is_proper_dicoloring)
             for d in digraphs]
    cases += [(g, list_chromatic_number, find_acceptable_coloring, is_proper_coloring)
              for g in graph_catalogue(5)]
    for obj, solve, finder, proper in cases:
        cert = solve(obj, Deadline(300))
        assert cert.exact
        assert (cert.value, cert.rejecting_assignment) == _fresh_sweep(obj, finder)
    assert len(checked) > 2_000


def test_bucket_peel_matches_rescanning_reference():
    # same order and degeneracy, for min(d+, d-) and for the underlying
    # graph's degree; the vertices of core number >= k are the k-core
    objs = list(digraph_catalogue(5)) + list(graph_catalogue(6))
    objs += [random_digraph(n, RngSpec(70 + n)) for n in range(6, 13)]
    for obj in objs:
        adj = [o | i for o, i in zip(obj.outs, obj.ins)]
        for outs, ins in ((obj.outs, obj.ins), (adj, adj)):
            order, core = _smallest_last(outs, ins)
            assert (order, max(core, default=0)) == _rescanning_smallest_last(outs, ins)
        order, core = _smallest_last(obj.outs, obj.ins)
        for k in range(1, max(core, default=0) + 2):
            members = _k_core(obj, k)
            assert sorted(order[:len(members)]) == members == [v for v in range(obj.n)
                                                                  if core[v] >= k]


def test_bucket_peel_reads_the_clock_at_every_removal(monkeypatch):
    path = Digraph(4000, [(i, i + 1) for i in range(3999)])
    reads = []
    monkeypatch.setattr(Deadline, "expired", lambda self: reads.append(1) or len(reads) > 50)
    with pytest.raises(solvers._TimeUp):
        _smallest_last(path.outs, path.ins, Deadline(300))
    assert len(reads) == 51
    cert = list_dichromatic_number(path, Deadline(300))
    assert not cert.exact and (cert.lower, cert.upper) == (1, 4000)
    assert cert.detail == "timeout while peeling the k-cores"


def _bench_list_instances():
    ref = json.loads((Path(__file__).resolve().parents[1] / "bench" / "reference.json").read_text())
    return ([Digraph(d["n"], [tuple(a) for a in d["arcs"]]) for d in ref["list_digraphs"]]
            + [Graph(g["n"], [tuple(e) for e in g["edges"]]) for g in ref["list_graphs"]])


def test_list_core_sweep_matches_full_sweep():
    # levels sweep only their k-core: the value is the full sweep's, the
    # lifted rejecting assignment is rejected by the oracle, and it is the
    # full sweep's own whenever the swept levels' cores are all of V
    objs = list(digraph_catalogue(4)) + list(graph_catalogue(5))
    objs += [random_digraph(5 + i % 2, RngSpec(1000 + i)) for i in range(40)]
    objs += _bench_list_instances()
    shrunk = 0
    for obj in objs:
        graph = isinstance(obj, Graph)
        finder = find_acceptable_coloring if graph else find_acceptable_dicoloring
        cert = (list_chromatic_number if graph else list_dichromatic_number)(obj, Deadline(300))
        value, rejecting = _fresh_sweep(obj, finder)
        assert cert.exact and cert.value == value
        if value > 1:
            rej = cert.rejecting_assignment
            assert rej == ListAssignment(rej.palette, rej.lists, rej.k)
            assert rej.k == value - 1 and len(rej.lists) == obj.n
            core = _k_core(obj, value - 1)
            assert all(rej.lists[v] == tuple(range(1, value)) for v in range(obj.n)
                       if v not in core)
            # a digon is a directed cycle, so a graph's lists are tried on
            # its bidirection
            arcs = (bidirect(obj) if graph else obj).arcs
            assert not brute_list_dicolourable(obj.n, arcs, rej.lists)
            if len(core) == obj.n:
                assert rej == rejecting
            else:
                shrunk += 1
    assert shrunk > 5


def test_list_core_sweep_reaches_eight_vertices():
    # FIVE with a pendant directed path: the k = 3 level sweeps the five
    # vertices of the 3-core, where the full sweep would face 8 vertices
    d = Digraph(8, list(FIVE.arcs) + [(0, 5), (5, 6), (6, 7)])
    started = time.monotonic()
    cert = list_dichromatic_number(d, Deadline(60))
    assert time.monotonic() - started < 1
    assert cert.exact and cert.value == 3
    assert cert.detail == ("every canonical 3-assignment on the 5-vertex in/out 3-core "
                           "accepts a colouring")
    rej = cert.rejecting_assignment
    assert rej.k == 2 and not brute_list_dicolourable(8, d.arcs, rej.lists)


def _fire_after(monkeypatch, calls: int, poll: str = "check") -> None:
    """Make every solve deadline report time up from the given call of
    its poll (check, or expired, the clock read) on."""
    polls = count(1)
    monkeypatch.setattr(Deadline, poll, lambda self: next(polls) >= calls)


def test_list_search_polls_deadline(monkeypatch):
    d = bidirect(cycle_graph(4))  # bracket [2, 3] once k = 1 is rejected
    _fire_after(monkeypatch, 1)
    cert = list_dichromatic_number(d, Deadline(300))
    assert not cert.exact and (cert.lower, cert.upper) == (1, 3)
    assert "timeout at k=1" in cert.detail
    _fire_after(monkeypatch, 100)  # inside the k = 2 sweep
    cert = list_dichromatic_number(d, Deadline(300))
    assert not cert.exact and cert.value is None
    assert (cert.lower, cert.upper) == (2, 3) and "timeout at k=2" in cert.detail
    assert cert.rejecting_assignment.k == 1
    _fire_after(monkeypatch, 1)
    cert = list_chromatic_number(cycle_graph(4), Deadline(300))
    assert not cert.exact and (cert.lower, cert.upper) == (1, 3)


@pytest.mark.parametrize("obj, solve, calls, k", [
    (cycle_graph(4), list_chromatic_number, 100, 2),
    (FIVE, list_dichromatic_number, 2_000, 3),
], ids=["C4", "five"])
def test_list_sweep_polls_deadline_in_prefix_searches(monkeypatch, obj, solve, calls, k):
    # the deadline fires inside a search that kept the last accepted
    # colouring on the unchanged leading lists and searched only the rest
    starts = []
    find = solvers._ListSearch.find

    def spy(self, lists, start=0):
        starts.append(start)
        return find(self, lists, start)

    monkeypatch.setattr(solvers._ListSearch, "find", spy)
    _fire_after(monkeypatch, calls)
    cert = solve(obj, Deadline(300))
    assert starts[-1] > 0
    assert not cert.exact and cert.value is None
    assert (cert.lower, cert.upper) == (k, k + 1)
    assert cert.detail.startswith(f"timeout at k={k} after ")
    assert cert.rejecting_assignment.k == k - 1


def test_dichromatic_timeout_keeps_bracket(monkeypatch):
    tournament = random_orientation(complete_graph(12), RngSpec(3))
    full = dichromatic_number(tournament, Deadline(300))
    _fire_after(monkeypatch, 1)
    for d, lower in ((tournament, 2), (bidirect(cycle_graph(5)), 2)):
        cert = dichromatic_number(d, Deadline(300))
        assert not cert.exact and cert.value is None
        assert cert.lower == lower and cert.upper is not None
        assert is_proper_dicoloring(d, cert.witness)
        assert len(set(cert.witness.assignment)) <= cert.upper
    assert dichromatic_number(tournament, Deadline(300)).lower <= full.value


def test_graph_dichromatic_timeout_keeps_bracket(monkeypatch):
    # Petersen: the forest first fit finds 2 forests, and every orientation
    # has dichromatic number 2
    petersen = kneser(5, 2)
    _fire_after(monkeypatch, 1)
    cert = dichromatic_number_of_graph(petersen, Deadline(300))
    assert not cert.exact and cert.value is None
    assert cert.upper == 2
    assert cert.lower <= 2 <= cert.upper
    # a deadline that fires during the sweep keeps the maximum so far; K6
    # sweeps in full (a(K6) = 3 > 2), and its bracket ends at a
    _fire_after(monkeypatch, 2000)
    cert = dichromatic_number_of_graph(complete_graph(6), Deadline(300))
    assert not cert.exact and cert.lower == 2 and cert.upper == 3
    assert "timeout" in cert.detail


def _fire_in_arboricity_search(monkeypatch) -> None:
    """Make the deadline fire from the first forest class test on."""
    armed = []
    forest_clash = solvers._forest_clash

    def arm(*args):
        armed.append(True)
        return forest_clash(*args)

    monkeypatch.setattr(solvers, "_forest_clash", arm)
    monkeypatch.setattr(Deadline, "check", lambda self: bool(armed))


def test_graph_dichromatic_timeout_in_arboricity_search(monkeypatch):
    petersen = kneser(5, 2)
    _fire_in_arboricity_search(monkeypatch)
    cert = dichromatic_number_of_graph(petersen, Deadline(300))
    assert not cert.exact and cert.value is None
    assert cert.lower <= 2 <= cert.upper == 2
    assert "timeout" in cert.detail


def test_sabidussi_coloring_examples():
    single = Coloring((0,), (0,))
    prod = sabidussi_coloring(single, single, 1)
    assert prod.assignment == (0,)
    fg = Coloring((0, 1), (0, 0, 1))
    fh = Coloring((0, 1), (0, 1, 1))
    f = sabidussi_coloring(fg, fh, 2)
    assert is_proper_dicoloring(cartesian_product(C3, C3), f)
    k3 = bidirect(complete_graph(3))
    ident = Coloring((0, 1, 2), (0, 1, 2))
    f = sabidussi_coloring(ident, ident, 3)
    assert is_proper_dicoloring(cartesian_product(k3, k3), f)
    with pytest.raises(ValueError):
        sabidussi_coloring(ident, ident, 2)


def test_budget_flags_instead_of_lying():
    g = kneser(8, 2)
    cert = chromatic_number(g, Deadline(0.0001))
    if not cert.exact:
        assert cert.lower <= 6 <= cert.upper
        assert "timeout" in cert.detail
    # no vertex cap: the clique bound closes the 81-vertex rook graph
    big = rook(9)
    cert = chromatic_number(big, Deadline(300))
    assert cert.exact and cert.value == 9
    assert is_proper_coloring(big, cert.witness)


def test_list_budget_flags(monkeypatch):
    # no palette cap: the deadline stops the k = 3 level (n*k = 12)
    d = bidirect(complete_graph(4))
    _fire_after(monkeypatch, 8)
    cert = list_dichromatic_number(d, Deadline(300))
    assert not cert.exact and (cert.lower, cert.upper) == (3, 4)
    assert "timeout at k=3" in cert.detail
    assert cert.rejecting_assignment.k == 2


def test_empty_structures():
    assert chromatic_number(Graph(0)).value == 0
    assert dichromatic_number(Digraph(0)).value == 0
    cert = dichromatic_number_of_graph(Graph(0))
    assert cert.value == 0 and cert.witness_orientation == Orientation(Graph(0), ())
    assert list_chromatic_number(Graph(0)).value == 0
