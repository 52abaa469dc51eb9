from itertools import islice

import pytest

from dichroma.catalogue import graph_catalogue, graphs_up_to, random_digraph
from dichroma.core import (
    Coloring,
    Deadline,
    Digraph,
    Graph,
    Orientation,
    _extension_cyclic,
    _maximal_acyclic_masks,
    apply_orientation,
    bidirect,
    enumerate_orientations,
    induced_subdigraph,
    induced_subgraph,
    is_acyclic,
    is_proper_coloring,
    is_proper_dicoloring,
    maximal_acyclic_sets,
)
from dichroma.errors import BudgetExceededError
from dichroma.randomized import RngSpec

from oracles import acyclic_by_permutation, brute_maximal_acyclic_sets

C3 = Digraph(3, [(0, 1), (1, 2), (2, 0)])
K3 = Graph(3, [(0, 1), (1, 2), (0, 2)])
P3 = Graph(3, [(0, 1), (1, 2)])


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])
    with pytest.raises(ValueError):
        Graph(2, [], labels=["a", "a"])


def test_digraph_validation():
    with pytest.raises(ValueError):
        Digraph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Digraph(3, [(0, 1), (0, 1)])
    # opposite arcs are fine
    d = Digraph(2, [(0, 1), (1, 0)])
    assert d.m == 2 and d.outs[0] & d.ins[0] == 0b10


def test_is_acyclic_examples():
    assert is_acyclic(C3) is False
    assert is_acyclic(Digraph(1)) is True
    # transitive tournament on 4 vertices
    tt = Digraph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert is_acyclic(tt) is True
    # a digon alone is a cycle
    assert is_acyclic(Digraph(2, [(0, 1), (1, 0)])) is False


def test_bidirect_examples():
    assert bidirect(K3).m == 6
    assert bidirect(Graph(5)).m == 0
    d = bidirect(P3)
    assert d.m == 4 and is_acyclic(d) is False


def test_apply_orientation_examples():
    low_high = Orientation(K3, (False, False, False))
    assert is_acyclic(apply_orientation(K3, low_high)) is True
    cyclic = Orientation(K3, (False, True, False))  # 0->1, 2->0 wait edges (0,1),(0,2),(1,2)
    d = apply_orientation(K3, cyclic)
    # edges of K3 sorted: (0,1),(0,2),(1,2); bits F,T,F give 0->1, 2->0, 1->2
    assert sorted(d.arcs) == [(0, 1), (1, 2), (2, 0)]
    assert is_acyclic(d) is False
    empty = Graph(0)
    assert apply_orientation(empty, Orientation(empty, ())).n == 0


def test_apply_orientation_mismatch():
    other = Graph(3, [(0, 1)])
    with pytest.raises(ValueError):
        apply_orientation(K3, Orientation(other, (False,)))


def test_enumerate_orientations_counts():
    orientations = list(enumerate_orientations(K3))
    assert len(orientations) == 8
    assert len({o.direction for o in orientations}) == 8
    cyclic = sum(
        not is_acyclic(apply_orientation(K3, o)) for o in orientations
    )
    assert cyclic == 2
    assert len(list(enumerate_orientations(Graph(2, [(0, 1)])))) == 2
    path = list(enumerate_orientations(P3))
    assert len(path) == 4
    assert all(is_acyclic(apply_orientation(P3, o)) for o in path)


def test_enumerate_orientations_order_and_limit():
    first, second = list(enumerate_orientations(P3))[:2]
    assert first.direction == (False, False)
    assert second.direction == (False, True)
    # the stream is lazy, so a caller takes a prefix of any size
    big = Graph(20, [(u, v) for u in range(10) for v in range(10, 20)])
    prefix = list(islice(enumerate_orientations(big), 3))
    assert [o.direction[-2:] for o in prefix] == [(False, False), (False, True), (True, False)]
    assert not any(prefix[0].direction[:-2])


def test_is_proper_coloring():
    assert is_proper_coloring(K3, Coloring((0, 1, 2), (0, 1, 2)))
    assert not is_proper_coloring(K3, Coloring((0, 1), (0, 1, 1)))


def test_is_proper_dicoloring_examples():
    assert is_proper_dicoloring(C3, Coloring((1, 2), (1, 1, 2)))
    assert not is_proper_dicoloring(C3, Coloring((1,), (1, 1, 1)))
    assert is_proper_dicoloring(bidirect(K3), Coloring((1, 2, 3), (1, 2, 3)))


def test_maximal_acyclic_sets_examples(monkeypatch):
    assert maximal_acyclic_sets(C3) == [
        frozenset({0, 1}),
        frozenset({0, 2}),
        frozenset({1, 2}),
    ]
    acyclic = Digraph(4, [(0, 1), (1, 2), (0, 3)])
    assert maximal_acyclic_sets(acyclic) == [frozenset({0, 1, 2, 3})]
    assert maximal_acyclic_sets(bidirect(K3)) == [
        frozenset({0}),
        frozenset({1}),
        frozenset({2}),
    ]
    # no vertex cap: a fired deadline, given or the default, stops the search
    monkeypatch.setattr(Deadline, "check", lambda self: True)
    for deadline in (Deadline(60), None):
        with pytest.raises(BudgetExceededError):
            maximal_acyclic_sets(Digraph(5), deadline)


def test_deadline_must_be_positive():
    for seconds in (0, -1):
        with pytest.raises(ValueError, match="timeout must be positive"):
            Deadline(seconds)


def _reference_maximal_masks(d, deadline):
    """The maximal acyclic set search written recursively, polling
    deadline at every node: the reference for _maximal_acyclic_masks."""
    def rec(mask, start):
        if deadline.check():
            raise BudgetExceededError("unknown: acyclic-set search ran out of time")
        grew = False
        for v in range(start, d.n):
            if not _extension_cyclic(d.outs, d.ins, mask, v):
                grew = True
                yield from rec(mask | 1 << v, v + 1)
        if grew:
            return
        for v in range(start):
            if not mask >> v & 1 and not _extension_cyclic(d.outs, d.ins, mask, v):
                return
        yield mask

    return rec(0, 0)


def test_maximal_acyclic_masks_match_recursive_reference():
    # the same sets in the same order, each yielded after the same number
    # of deadline polls, so each as soon as it is found
    rng = RngSpec(99)
    cases = [Digraph(0)] + [random_digraph(1 + i % 8, rng.derive(i)) for i in range(60)]
    for d in cases:
        ours, theirs = Deadline(60), Deadline(60)
        got = [(m, ours.ticks) for m in _maximal_acyclic_masks(d, ours)]
        assert got == [(m, theirs.ticks) for m in _reference_maximal_masks(d, theirs)]
        assert ours.ticks == theirs.ticks


def test_maximal_acyclic_sets_against_oracle():
    rng = RngSpec(2024)
    for i in range(40):
        d = random_digraph(1 + i % 6, rng.derive(i))
        assert maximal_acyclic_sets(d) == brute_maximal_acyclic_sets(d.n, d.arcs)


def test_is_acyclic_against_permutation_oracle():
    rng = RngSpec(5)
    for i in range(60):
        d = random_digraph(1 + i % 6, rng.derive(i))
        assert is_acyclic(d) == acyclic_by_permutation(d.n, d.arcs)


def test_induced_subdigraph():
    sub = induced_subdigraph(C3, [0, 1])
    assert sub.n == 2 and sub.arcs == ((0, 1),)
    assert sub.labels == ("0", "1")
    whole = induced_subdigraph(C3, [0, 1, 2])
    assert whole.arcs == C3.arcs
    k4 = bidirect(Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)]))
    sub3 = induced_subdigraph(k4, [0, 2, 3])
    assert sub3.m == 6
    for induce, x in ((induced_subdigraph, C3), (induced_subgraph, Graph(3))):
        with pytest.raises(ValueError):
            induce(x, [5])


def test_induced_subgraph_labels():
    g = Graph(3, [(0, 1), (1, 2)], labels=["a", "b", "c"])
    sub = induced_subgraph(g, [1, 2])
    assert sub.labels == ("b", "c") and sub.edges == ((0, 1),)


def _is_forest(g: Graph) -> bool:
    # union-find cycle check, independent of orientation machinery
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in g.edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def test_forest_iff_all_orientations_acyclic():
    for g in graphs_up_to(5):
        all_acyclic = all(
            is_acyclic(apply_orientation(g, o)) for o in enumerate_orientations(g)
        )
        assert all_acyclic == _is_forest(g)


def test_bidirect_collapses_to_graph_coloring():
    # no acyclic 2-subset of a bidirected graph contains an edge
    for g in graphs_up_to(4):
        d = bidirect(g)
        for u, v in g.edges:
            assert not is_proper_dicoloring(
                d,
                Coloring(
                    tuple(range(g.n)),
                    tuple(0 if x in (u, v) else x for x in range(g.n)),
                ),
            )
    # and dicolouring the bidirected digraph is exactly colouring the graph
    from itertools import product as iproduct

    for g in graphs_up_to(4):
        d = bidirect(g)
        palette = tuple(range(max(g.n, 1)))
        for assignment in iproduct(palette, repeat=g.n):
            f = Coloring(palette, assignment)
            assert is_proper_coloring(g, f) == is_proper_dicoloring(d, f)


def test_orientation_count_power_of_two():
    from dichroma.generators import complete_bipartite

    for g in graph_catalogue(4):
        assert len(set(o.direction for o in enumerate_orientations(g))) == 1 << g.m
    twelve = complete_bipartite(3, 4)
    assert twelve.m == 12
    assert len(set(o.direction for o in enumerate_orientations(twelve))) == 1 << 12


def test_graph_and_digraph_never_equal():
    g, d = Graph(2, [(0, 1)]), Digraph(2, [(0, 1)])
    assert g != d and d != g
    assert {g: "graph", d: "digraph"} == {Graph(2, [(1, 0)]): "graph",
                                          Digraph(2, [(0, 1)]): "digraph"}


def test_graph_masks_are_symmetric():
    for g in (K3, P3, Graph(4, [(3, 0), (2, 1)])):
        assert g.outs == g.ins == g.adj
        assert g.edges == g.pairs and all(u < v for u, v in g.edges)


def test_underlying_graph_collapses_a_digon():
    d = Digraph(3, [(0, 1), (1, 0), (2, 1)], labels=["a", "b", "c"])
    assert d.underlying_graph() == Graph(3, [(0, 1), (1, 2)], labels=["a", "b", "c"])
