import pytest

from dichroma.catalogue import digraph_catalogue, graphs_up_to, random_digraph
from dichroma.core import Digraph, Graph, bidirect
from dichroma.generators import complete_graph, rook
from dichroma.products import cartesian_product, tensor_product
from dichroma.randomized import RngSpec
from dichroma.solvers import dichromatic_number

from oracles import brute_digraph_product

C3 = Digraph(3, [(0, 1), (1, 2), (2, 0)])
K2 = complete_graph(2)


def test_cartesian_digraph_counts():
    p = cartesian_product(C3, C3)
    assert (p.n, p.m) == (9, 18)


def test_cartesian_k2_square_is_c4():
    p = cartesian_product(K2, K2)
    assert (p.n, p.m) == (4, 4)
    assert all(p.adj[v].bit_count() == 2 for v in range(4))


def test_cartesian_identity_factor():
    single = Graph(1)
    g = Graph(3, [(0, 1), (1, 2)], labels=["a", "b", "c"])
    p = cartesian_product(g, single)
    assert p.n == g.n and p.edges == g.edges


def test_tensor_examples():
    assert tensor_product(complete_graph(3), complete_graph(3)) == rook(3)
    p = tensor_product(C3, C3)
    assert (p.n, p.m) == (9, 9)
    assert dichromatic_number(p).value == 2
    edgeless = Graph(4)
    assert tensor_product(complete_graph(3), edgeless).m == 0


def test_tensor_c3_is_three_cycles():
    p = tensor_product(C3, C3)
    # component trace: (i, j) -> (i+1, j+1) gives three disjoint 3-cycles
    comps = set()
    for u, v in p.arcs:
        comps.add((u % 3 - u // 3) % 3)
        assert (v // 3, v % 3) == ((u // 3 + 1) % 3, (u % 3 + 1) % 3)
    assert len(comps) == 3


def test_mixed_kinds_rejected():
    with pytest.raises(TypeError):
        cartesian_product(K2, C3)
    with pytest.raises(TypeError):
        tensor_product(C3, K2)


def test_product_count_identities():
    graphs = graphs_up_to(5)
    for x in graphs:
        for y in graphs:
            cart = cartesian_product(x, y)
            tens = tensor_product(x, y)
            assert cart.n == tens.n == x.n * y.n
            assert cart.m == x.n * y.m + y.n * x.m
            assert tens.m == 2 * x.m * y.m


def test_bidirect_commutes_with_products():
    graphs = graphs_up_to(4)
    for x in graphs:
        for y in graphs:
            for product in (cartesian_product, tensor_product):
                left = bidirect(product(x, y))
                right = product(bidirect(x), bidirect(y))
                assert left == right


def test_row_major_labels():
    g = Graph(2, [], labels=["x", "y"])
    h = Graph(2, [], labels=["0", "1"])
    p = cartesian_product(g, h)
    assert p.labels == ("(x,0)", "(x,1)", "(y,0)", "(y,1)")


def test_digraph_products_against_oracle():
    # every pair of digraphs on at most 3 vertices, plus random pairs with
    # digons, labelled so that the labels of both factors show
    pairs = [(x, y) for x in digraph_catalogue(3) for y in digraph_catalogue(3)]
    rng = RngSpec(11)
    for i in range(40):
        x = random_digraph(1 + i % 5, rng.derive(2 * i))
        y = random_digraph(1 + i // 8, rng.derive(2 * i + 1))
        pairs.append((x, Digraph(y.n, y.arcs, labels=[f"y{v}" for v in range(y.n)])))
    assert sum(any(d.outs[v] & d.ins[v] for v in range(d.n)) for _, d in pairs[-40:]) > 20
    for x, y in pairs:
        for kind, product in (("cartesian", cartesian_product), ("tensor", tensor_product)):
            p = product(x, y)
            labels = [[d.label(v) for v in range(d.n)] for d in (x, y)]
            arcs, want = brute_digraph_product(kind, x.n, x.arcs, labels[0], y.n, y.arcs, labels[1])
            assert isinstance(p, Digraph) and p.n == x.n * y.n
            assert list(p.arcs) == arcs and list(p.labels) == want, (kind, x, y)
