from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from dichroma.core import (
    Coloring,
    Digraph,
    Graph,
    apply_orientation,
    bidirect,
    enumerate_orientations,
    is_acyclic,
    is_proper_dicoloring,
)
from dichroma.graphio import format_graph, parse_graph_text
from dichroma.products import cartesian_product
from dichroma.randomized import (
    RngSpec,
    random_orientation,
    wilson_interval,
    expected_avoiding_count,
)
from dichroma.solvers import dichromatic_number, sabidussi_coloring

from oracles import acyclic_by_dfs


@st.composite
def graphs(draw, max_n=6):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    return Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


@st.composite
def digraphs(draw, max_n=5):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    return Digraph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


@given(graphs(max_n=5))
@settings(max_examples=60, deadline=None)
def test_orientations_cover_and_never_digon(g):
    if g.m > 6:
        return
    for o in enumerate_orientations(g):
        d = apply_orientation(g, o)
        assert d.underlying_graph().edges == g.edges
        assert all(d.outs[v] & d.ins[v] == 0 for v in range(d.n))


@given(graphs())
@settings(max_examples=80, deadline=None)
def test_bidirect_underlying_round_trip(g):
    assert bidirect(g).underlying_graph().edges == g.edges


@given(digraphs())
@settings(max_examples=120, deadline=None)
def test_acyclicity_matches_dfs_oracle(d):
    assert is_acyclic(d) == acyclic_by_dfs(d.n, d.arcs)


@given(graphs(), st.integers(min_value=0, max_value=2**63 - 1))
@settings(max_examples=60, deadline=None)
def test_random_orientation_is_an_orientation(g, seed):
    d = random_orientation(g, RngSpec(seed))
    assert d.m == g.m
    assert d.underlying_graph().edges == g.edges


_LABEL_CHARS = st.characters(
    blacklist_categories=("Cs", "Cc"), blacklist_characters="\n\r"
)


@given(graphs(), st.data())
@settings(max_examples=60, deadline=None)
def test_graph_text_round_trip(g, data):
    if g.n:
        labels = data.draw(
            st.lists(
                st.text(_LABEL_CHARS, min_size=1, max_size=8).map(str.strip).filter(bool),
                min_size=g.n,
                max_size=g.n,
                unique=True,
            )
        )
        g = Graph(g.n, g.edges, labels=labels)
    assert parse_graph_text(format_graph(g)) == g


@given(digraphs(max_n=4), digraphs(max_n=4))
@settings(max_examples=25, deadline=None)
def test_modular_product_coloring_proper(x, y):
    if x.n == 0 or y.n == 0:
        return
    cx = dichromatic_number(x)
    cy = dichromatic_number(y)
    n_colours = max(cx.value, cy.value, 1)
    f = sabidussi_coloring(cx.witness, cy.witness, n_colours)
    assert is_proper_dicoloring(cartesian_product(x, y), f)


@given(st.integers(min_value=0, max_value=500), st.integers(min_value=1, max_value=500))
def test_wilson_interval_contains_point_estimate(successes, trials):
    if successes > trials:
        return
    lo, hi = wilson_interval(successes, trials)
    assert 0.0 <= lo <= successes / trials <= hi <= 1.0


@given(
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=12),
)
def test_expected_avoiding_count_range(m, u, a):
    for k in range(1, u + 1):
        value = expected_avoiding_count(m, u, k, a)
        assert Fraction(0) <= value <= Fraction(m)
