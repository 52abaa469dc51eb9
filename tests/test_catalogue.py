import hashlib
import random

import pytest

from dichroma import catalogue
from dichroma.catalogue import (
    _arc_positions,
    _canonical_masks,
    _edge_positions,
    bidirected_catalogue,
    digraph_catalogue,
    graph_catalogue,
    graphs_up_to,
    oriented_catalogue,
    random_digraph,
)
from dichroma.core import is_acyclic
from dichroma.randomized import RngSpec

from oracles import brute_canonical_masks

KNOWN_GRAPH_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
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


def _both_paths(monkeypatch, n, masks, positions, symmetric):
    """_canonical_masks with every input gathered by numpy, then with every
    input gathered in pure Python; the two must agree."""
    results = []
    for work in (0, 1 << 62):
        monkeypatch.setattr(catalogue, "_PYTHON_WORK", work)
        results.append(_canonical_masks(n, masks, positions, symmetric))
    assert results[0] == results[1]
    return results[0]


def _digest(items) -> str:
    return hashlib.sha256(repr(tuple(items)).encode()).hexdigest()


def test_catalogues_pinned():
    graphs = [(g.n, g.edges) for n in range(1, 8) for g in graph_catalogue(n)]
    oriented = [(d.n, d.arcs) for n in range(1, 6) for d in oriented_catalogue(n)]
    assert _digest(graphs) == GRAPH_DIGEST
    assert _digest(oriented) == ORIENTED_DIGEST


@pytest.mark.parametrize("kind, max_n", [(EDGES, 5), (ARCS, 4)])
def test_canonical_masks_match_brute_force_on_every_mask(monkeypatch, kind, max_n):
    pairs, symmetric = kind
    for n in range(max_n + 1):
        positions = pairs(n)
        masks = list(range(1 << len(positions)))
        assert _both_paths(monkeypatch, n, masks, positions, symmetric) == brute_canonical_masks(
            n, masks, positions, symmetric)


@pytest.mark.parametrize("kind, n, count", [(EDGES, 7, 500), (ARCS, 5, 500), (ARCS, 7, 20)])
def test_canonical_masks_on_random_masks(monkeypatch, kind, n, count):
    # arcs on 7 vertices need 42 bits, past the int32 masks
    pairs, symmetric = kind
    positions = pairs(n)
    rng = random.Random(1998 + n)
    masks = [rng.getrandbits(len(positions)) for _ in range(count)]
    canonical = _both_paths(monkeypatch, n, masks, positions, symmetric)
    assert canonical == brute_canonical_masks(n, masks, positions, symmetric)
    relabelled = [_relabel(m, rng.sample(range(n), n), positions, symmetric) for m in masks]
    assert _both_paths(monkeypatch, n, relabelled, positions, symmetric) == canonical


def test_canonical_masks_trivial_inputs():
    assert _canonical_masks(0, [0], (), True) == [0]
    assert _canonical_masks(2, [1], _edge_positions(2), True) == [1]
    assert _canonical_masks(1, [0], (), False) == [0]
    assert _canonical_masks(4, [], _edge_positions(4), True) == []


def test_graph_class_counts():
    for n, count in KNOWN_GRAPH_COUNTS.items():
        assert len(graph_catalogue(n)) == count


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
