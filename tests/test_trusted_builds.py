"""Every builder that goes through the trusted mask constructor gives the
structure the validating constructor gives for the same pairs and labels:
equal, with equal hash, pairs, masks and labels."""

from itertools import product

import pytest

from dichroma.catalogue import digraph_catalogue, graphs_up_to, random_digraph
from dichroma.core import (
    Deadline,
    Digraph,
    Graph,
    apply_orientation,
    bidirect,
    enumerate_orientations,
    induced_subdigraph,
)
from dichroma.generators import cycle_graph, kneser, named_graph
from dichroma.products import cartesian_product, tensor_product
from dichroma.randomized import RngSpec
from dichroma.solvers import _smallest_last


def assert_same(built, reference) -> None:
    assert type(built) is type(reference)
    assert built == reference and hash(built) == hash(reference)
    assert built.pairs == reference.pairs
    assert built.outs == reference.outs and built.ins == reference.ins
    assert built.labels == reference.labels


def validated(kind, n, pairs, labels=None):
    return kind(n, pairs, labels=labels)


def pair_labels(x, y):
    return [f"({x.label(u)},{y.label(v)})" for u in range(x.n) for v in range(y.n)]


def reference_cartesian(x, y):
    ny = y.n
    pairs = [(u * ny + a, u * ny + b) for u in range(x.n) for a, b in y.pairs]
    pairs += [(a * ny + v, b * ny + v) for a, b in x.pairs for v in range(ny)]
    return validated(type(x), x.n * ny, pairs, pair_labels(x, y))


def reference_tensor(x, y):
    ys = y.pairs + (tuple((d, c) for c, d in y.pairs) if isinstance(y, Graph) else ())
    pairs = [(a * y.n + c, b * y.n + d) for a, b in x.pairs for c, d in ys]
    return validated(type(x), x.n * y.n, pairs, pair_labels(x, y))


def test_catalogue_members():
    for s in graphs_up_to(6) + digraph_catalogue(4):
        assert_same(s, validated(type(s), s.n, s.pairs, s.labels))


def test_bidirect_and_underlying_graph():
    for g in graphs_up_to(6) + [kneser(5, 2)]:
        assert_same(bidirect(g), validated(Digraph, g.n, g.pairs + tuple(
            (v, u) for u, v in g.pairs), g.labels))
    for d in digraph_catalogue(4) + [bidirect(kneser(5, 2))]:
        assert_same(d.underlying_graph(), validated(Graph, d.n, {
            (min(u, v), max(u, v)) for u, v in d.pairs}, d.labels))


def _factor_pairs():
    small = digraph_catalogue(3)
    yield from product(small, small)
    for i in range(200):
        x = random_digraph(1 + i % 5, RngSpec(i))
        y = random_digraph(1 + 7 * i % 6, RngSpec(1000 + i))
        yield x, y
        yield x.underlying_graph(), y.underlying_graph()
    labelled = kneser(5, 2)
    yield labelled, cycle_graph(3)
    yield bidirect(labelled), random_digraph(4, RngSpec(9))


def test_products():
    for x, y in _factor_pairs():
        assert_same(cartesian_product(x, y), reference_cartesian(x, y))
        assert_same(tensor_product(x, y), reference_tensor(x, y))


def test_product_labels_stay_distinct():
    # "(a,b" + "c)" and "(a" + "b,c)" meet only when both factors have a
    # label with a comma; the product then fails as the validated one does
    x = Graph(2, labels=["a", "a,b"])
    y = Graph(2, labels=["b,c", "c"])
    for build in (cartesian_product, tensor_product, reference_cartesian):
        with pytest.raises(ValueError, match="pairwise distinct"):
            build(x, y)


def _reference_core(d, members):
    index = {v: i for i, v in enumerate(members)}
    pairs = [(index[u], index[v]) for u, v in d.pairs if u in index and v in index]
    return validated(type(d), len(members), pairs, [d.label(v) for v in members])


def test_list_level_cores():
    digraphs = digraph_catalogue(4) + [random_digraph(5 + i % 2, RngSpec(i)) for i in range(40)]
    for d in digraphs + [g.underlying_graph() for g in digraphs[-10:]]:
        order, core = _smallest_last(d.outs, d.ins, Deadline())
        for k in range(1, max(core, default=0) + 1):
            members = sorted(order[:sum(c >= k for c in core)])
            assert_same(induced_subdigraph(d, members), _reference_core(d, members))
        assert_same(induced_subdigraph(d, range(0, d.n, 2)),
                    _reference_core(d, list(range(0, d.n, 2))))


def test_every_orientation():
    for g in (named_graph("K4"), named_graph("C5"), Graph(4, [(0, 3), (1, 2)])):
        seen = set()
        for o in enumerate_orientations(g):
            arcs = [(v, u) if rev else (u, v) for (u, v), rev in zip(g.edges, o.direction)]
            d = apply_orientation(g, o)
            assert_same(d, validated(Digraph, g.n, arcs, g.labels))
            seen.add(d)
        assert len(seen) == 1 << g.m
