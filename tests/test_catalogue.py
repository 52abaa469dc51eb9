import hashlib
import itertools
import random

import pytest

from dichroma import catalogue
from dichroma.catalogue import (
    _arc_positions,
    _augment,
    _canonical_masks,
    _edge_positions,
    bidirected_catalogue,
    digraph_catalogue,
    graph_catalogue,
    graphs_up_to,
    oriented_catalogue,
    random_digraph,
)
from dichroma.core import Deadline, is_acyclic
from dichroma.errors import BudgetExceededError, LimitExceededError
from dichroma.randomized import RngSpec

from oracles import brute_canonical_masks, isomorphic_graphs

KNOWN_GRAPH_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
KNOWN_ORIENTED_COUNTS = {1: 1, 2: 2, 3: 7, 4: 42, 5: 582}

# sha256 of repr() of the (n, edges) tuples of graph_catalogue(1..7) and of
# the (n, arcs) tuples of oriented_catalogue(1..5), in catalogue order, as
# the per-permutation loop canonicalisers produced them
GRAPH_DIGEST = "6d3f70d7b79652338613bf1e5f0548d7f8061dd1a0a17dfef7722a6c87789ae3"
ORIENTED_DIGEST = "566cb674fc72839c301862926341a87a066bd811e4d194c1ce0753c666cf10d8"

EDGES, ARCS = (_edge_positions, True), (_arc_positions, False)


def _relabel(mask, perm, positions, symmetric):
    index = {p: i for i, p in enumerate(positions)}
    image = 0
    for i, (u, v) in enumerate(positions):
        if mask >> i & 1:
            a, b = perm[u], perm[v]
            image |= 1 << index[(min(a, b), max(a, b)) if symmetric else (a, b)]
    return image


def _digest(items) -> str:
    return hashlib.sha256(repr(tuple(items)).encode()).hexdigest()


def _assert_pinned():
    graphs = [(g.n, g.edges) for n in range(1, 8) for g in graph_catalogue(n)]
    oriented = [(d.n, d.arcs) for n in range(1, 6) for d in oriented_catalogue(n)]
    assert _digest(graphs) == GRAPH_DIGEST
    assert _digest(oriented) == ORIENTED_DIGEST


def test_catalogues_pinned():
    _assert_pinned()


@pytest.mark.parametrize("kind, max_n", [(EDGES, 5), (ARCS, 4)])
def test_canonical_masks_match_brute_force_on_every_mask(kind, max_n):
    pairs, symmetric = kind
    for n in range(max_n + 1):
        positions = pairs(n)
        masks = list(range(1 << len(positions)))
        assert _canonical_masks(n, masks, positions, symmetric) == brute_canonical_masks(
            n, masks, positions, symmetric)


@pytest.mark.parametrize("kind, n, count", [(EDGES, 7, 500), (ARCS, 5, 500), (ARCS, 7, 20)])
def test_canonical_masks_on_random_masks(kind, n, count):
    # arcs on 7 vertices: 42-bit masks and 5,040 permutations
    pairs, symmetric = kind
    positions = pairs(n)
    rng = random.Random(1998 + n)
    masks = [rng.getrandbits(len(positions)) for _ in range(count)]
    canonical = _canonical_masks(n, masks, positions, symmetric)
    assert canonical == brute_canonical_masks(n, masks, positions, symmetric)
    relabelled = [_relabel(m, rng.sample(range(n), n), positions, symmetric) for m in masks]
    assert _canonical_masks(n, relabelled, positions, symmetric) == canonical


def _extension_masks(n, parents, positions, symmetric):
    """The canonical extension path: sorted distinct least masks of every
    parent (the pairs of a member on n-1 vertices) with a new last vertex
    joined to the others in every possible way."""
    index = {p: i for i, p in enumerate(positions)}
    joins = [0]
    for v in range(n - 1):
        ways = [0, 1 << index[(v, n - 1)]]
        if not symmetric:
            ways.append(1 << index[(n - 1, v)])
        joins = [x | way for x in joins for way in ways]
    candidates = [sum(1 << index[p] for p in pairs) | x for pairs in parents for x in joins]
    return sorted(set(_canonical_masks(n, candidates, positions, symmetric)))


def test_augmentation_matches_extension():
    for n in range(2, 7):
        parents = [g.edges for g in graph_catalogue(n - 1)]
        index = {p: i for i, p in enumerate(_edge_positions(n - 1))}
        parent_masks = [sum(1 << index[e] for e in edges) for edges in parents]
        assert _augment(n - 1, parent_masks, None) == _extension_masks(
            n, parents, _edge_positions(n), True)


def _clear_catalogues():
    for build in (graph_catalogue, oriented_catalogue, bidirected_catalogue):
        build.cache_clear()


def test_catalogue_builds_poll_the_deadline(monkeypatch):
    _clear_catalogues()
    polls = itertools.count(1)
    monkeypatch.setattr(Deadline, "expired", lambda self: next(polls) > 150)
    # 104 polls build 2..6 vertices, once per parent in each of two passes
    with pytest.raises(BudgetExceededError, match="7-vertex"):
        graphs_up_to(7, Deadline(60))
    polls = itertools.count(1)
    # oriented digraphs poll once per orbit: 2 + 7 + 42 on 2..4 vertices
    with pytest.raises(BudgetExceededError, match="5-vertex"):
        digraph_catalogue(5, Deadline(60))
    # the levels finished before the deadline are cached, on n alone, and
    # the levels cut short cached nothing
    monkeypatch.setattr(Deadline, "expired", lambda self: True)
    assert len(graph_catalogue(6, Deadline(60))) == 156
    assert len(oriented_catalogue(4, Deadline(60))) == 42
    for build, n in ((graph_catalogue, 7), (oriented_catalogue, 5)):
        with pytest.raises(BudgetExceededError):
            build(n, Deadline(60))
    monkeypatch.undo()
    assert graph_catalogue(7, Deadline(60)) is graph_catalogue(7)
    _assert_pinned()


def test_catalogues_past_their_memory_limit_are_refused(monkeypatch):
    # refused before any level is built, also when every level up to n is asked for
    _clear_catalogues()

    def build_level(*args, **kwargs):
        raise AssertionError("a catalogue level was built")

    monkeypatch.setattr(catalogue, "_augment", build_level)
    monkeypatch.setattr(catalogue, "_canonical_masks", build_level)
    for build, n in ((graph_catalogue, 9), (oriented_catalogue, 7),
                     (graphs_up_to, 9), (digraph_catalogue, 7)):
        with pytest.raises(LimitExceededError, match="catalogues stop at"):
            build(n)


def test_canonical_masks_trivial_inputs():
    assert _canonical_masks(0, [0], (), True) == [0]
    assert _canonical_masks(2, [1], _edge_positions(2), True) == [1]
    assert _canonical_masks(1, [0], (), False) == [0]
    assert _canonical_masks(4, [], _edge_positions(4), True) == []


def test_graph_class_counts():
    for n, count in KNOWN_GRAPH_COUNTS.items():
        assert len(graph_catalogue(n)) == count


def _degrees(n, edges):
    return tuple(sorted(sum(v in e for e in edges) for v in range(n)))


def test_graph_catalogue_holds_each_sampled_class_once():
    # relabelled copies of 200 random 8-vertex graphs each match exactly
    # one catalogue member, the same one for both copies
    members = {}
    for g in graph_catalogue(8):
        members.setdefault(_degrees(8, g.edges), []).append(g.edges)
    positions = _edge_positions(8)
    rng = random.Random(1998 + 8)
    for _ in range(200):
        mask = rng.getrandbits(len(positions))
        matches = []
        for m in (mask, _relabel(mask, rng.sample(range(8), 8), positions, True)):
            edges = [p for i, p in enumerate(positions) if m >> i & 1]
            matches.append([c for c in members[_degrees(8, edges)]
                            if isomorphic_graphs(8, edges, c)])
        assert len(matches[0]) == 1 and matches[0] == matches[1]


def test_oriented_class_counts():
    for n, count in KNOWN_ORIENTED_COUNTS.items():
        assert len(oriented_catalogue(n)) == count


def test_tournament_counts_inside_oriented():
    # tournaments are the oriented digraphs with all pairs joined
    for n, expected in ((3, 2), (4, 4)):
        full = [d for d in oriented_catalogue(n) if d.m == n * (n - 1) // 2]
        assert len(full) == expected


def test_catalogue_union_counts():
    assert len(digraph_catalogue(4)) == 66
    assert len(digraph_catalogue(5)) == 681  # OEIS A001174, summed over n <= 5
    per_n = {}
    for d in digraph_catalogue(4):
        per_n[d.n] = per_n.get(d.n, 0) + 1
    assert per_n == {1: 1, 2: 3, 3: 10, 4: 52}


def test_no_duplicates_up_to_labels():
    seen = set()
    for g in graphs_up_to(6):
        key = (g.n, g.edges)
        assert key not in seen
        seen.add(key)


def test_bidirected_have_no_orientation():
    for d in bidirected_catalogue(3):
        if d.m:
            assert not is_acyclic(d)


def test_random_digraph_deterministic():
    a = random_digraph(5, RngSpec(77))
    b = random_digraph(5, RngSpec(77))
    assert a.arcs == b.arcs
    c = random_digraph(5, RngSpec(78))
    assert c.arcs != a.arcs


def test_random_digraph_state_mix():
    # over many draws every pair state should appear
    states = set()
    for i in range(50):
        d = random_digraph(2, RngSpec(5).derive(i))
        if d.m == 0:
            states.add("none")
        elif d.m == 2:
            states.add("digon")
        elif d.arcs == ((0, 1),):
            states.add("fwd")
        else:
            states.add("rev")
    assert states == {"none", "digon", "fwd", "rev"}
