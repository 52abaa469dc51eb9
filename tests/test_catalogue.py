import hashlib
import itertools
import random

import pytest

from dichroma import catalogue
from dichroma.catalogue import (
    _arc_positions,
    _augment,
    _edge_positions,
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
KNOWN_ORIENTED_COUNTS = {1: 1, 2: 2, 3: 7, 4: 42, 5: 582, 6: 21480}

# sha256 of repr() of the (n, edges) tuples of graph_catalogue(1..7) and of
# the (n, arcs) tuples of oriented_catalogue(1..5), in catalogue order: the
# graphs as the per-permutation loop canonicalisers produced them, the
# oriented digraphs once every member was checked to be the brute-force least
# mask in the star-first arc order
GRAPH_DIGEST = "6d3f70d7b79652338613bf1e5f0548d7f8061dd1a0a17dfef7722a6c87789ae3"
ORIENTED_DIGEST = "09deb067b5aef641747085d63db8890377c895ff92b8fa2aef3422acab733725"

# (pair order, unordered pairs, catalogue)
EDGES = (_edge_positions, True, graph_catalogue)
ARCS = (_arc_positions, False, oriented_catalogue)


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


def _member_masks(kind, n):
    pairs, _, build = kind
    index = {p: i for i, p in enumerate(pairs(n))}
    return [sum(1 << index[p] for p in member.pairs) for member in build(n)]


def _pair_states(n, kind, states):
    """The mask of each tuple of per-pair states: for each unordered pair u < v
    in combinations order, 0 leaves it empty, 1 sets (u, v) and 2 (v, u)."""
    pairs, symmetric, _ = kind
    index = {p: i for i, p in enumerate(pairs(n))}
    ways = [(0, 1 << index[(u, v)]) if symmetric else (0, 1 << index[(u, v)], 1 << index[(v, u)])
            for u, v in itertools.combinations(range(n), 2)]
    return [sum(way[s] for way, s in zip(ways, state)) for state in states]


@pytest.mark.parametrize("kind, max_n", [(EDGES, 5), (ARCS, 4)])
def test_canonical_masks_match_brute_force_on_every_mask(kind, max_n):
    # the members are exactly the least masks of every graph or oriented
    # digraph, so each member is its own least mask and each class has one
    pairs, symmetric, _ = kind
    for n in range(max_n + 1):
        states = itertools.product(range(3 - symmetric), repeat=n * (n - 1) // 2)
        masks = _pair_states(n, kind, states)
        least = sorted(set(brute_canonical_masks(n, masks, pairs(n), symmetric)))
        assert _member_masks(kind, n) == least


@pytest.mark.parametrize("kind, n, count", [(EDGES, 7, 500), (ARCS, 5, 500), (ARCS, 6, 200)])
def test_canonical_masks_on_random_masks(kind, n, count):
    # the least mask of each random graph or oriented digraph is a member
    pairs, symmetric, _ = kind
    rng = random.Random(1998 + n)
    states = [[rng.randrange(3 - symmetric) for _ in range(n * (n - 1) // 2)] for _ in range(count)]
    least = brute_canonical_masks(n, _pair_states(n, kind, states), pairs(n), symmetric)
    assert set(least) <= set(_member_masks(kind, n))


def _extension_masks(n, kind):
    """The canonical extension path: sorted distinct least masks of every
    member on n-1 vertices with a new last vertex joined to the others in
    every possible way."""
    pairs, symmetric, build = kind
    positions = pairs(n)
    index = {p: i for i, p in enumerate(positions)}
    joins = [0]
    for v in range(n - 1):
        ways = [0, 1 << index[(v, n - 1)]]
        if not symmetric:
            ways.append(1 << index[(n - 1, v)])
        joins = [x | way for x in joins for way in ways]
    candidates = [sum(1 << index[p] for p in member.pairs) | x
                  for member in build(n - 1) for x in joins]
    return sorted(set(brute_canonical_masks(n, candidates, positions, symmetric)))


def test_augmentation_matches_extension():
    # so every member on up to 6 vertices (graphs) or 5 (oriented digraphs)
    # is the brute-force least mask of its class, and each class has one
    for kind, stride, max_n in ((EDGES, 1, 6), (ARCS, 2, 5)):
        for n in range(2, max_n + 1):
            parents = _member_masks(kind, n - 1)
            assert (_augment(n - 1, parents, kind[0], stride, None) == _extension_masks(n, kind)
                    == _member_masks(kind, n))


def _clear_catalogues():
    for build in (graph_catalogue, oriented_catalogue):
        build.cache_clear()


def test_catalogue_builds_poll_the_deadline(monkeypatch):
    _clear_catalogues()
    polls = itertools.count(1)
    monkeypatch.setattr(Deadline, "expired", lambda self: next(polls) > 150)
    # 104 polls build 2..6 vertices, once per parent in each of two passes
    with pytest.raises(BudgetExceededError, match="7-vertex"):
        graphs_up_to(7, Deadline(60))
    polls = itertools.count(1)
    monkeypatch.setattr(Deadline, "expired", lambda self: next(polls) > 50)
    # oriented levels poll the same way: 20 polls build 2..4 vertices
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
    for build, n in ((graph_catalogue, 9), (oriented_catalogue, 7),
                     (graphs_up_to, 9), (digraph_catalogue, 7)):
        with pytest.raises(LimitExceededError, match="catalogues stop at"):
            build(n)


def test_canonical_masks_trivial_inputs():
    assert _augment(0, [0], _edge_positions, 1, None) == [0]
    assert _augment(0, [0], _arc_positions, 2, None) == [0]
    assert _augment(1, [0], _edge_positions, 1, None) == [0, 1]
    assert _augment(1, [0], _arc_positions, 2, None) == [0, 1]
    assert _augment(4, [], _edge_positions, 1, None) == []


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
    bidirected = [d for d in digraph_catalogue(3) if any(o & i for o, i in zip(d.outs, d.ins))]
    assert len(bidirected) == 4  # the graphs on 2 and 3 vertices with an edge
    for d in bidirected:
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
