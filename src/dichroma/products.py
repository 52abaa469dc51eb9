"""Cartesian and tensor products of graphs and digraphs.

Product vertices are indexed row-major (left index * right order + right
index) and labelled by the pair of operand labels. Graphs and digraphs
are never coerced into each other; bidirect explicitly when needed.
"""

from __future__ import annotations

from .core import Digraph, Graph

__all__ = ["cartesian_product", "tensor_product"]


def _pair_labels(x, y) -> list[str]:
    return [
        f"({x.label(u)},{y.label(v)})" for u in range(x.n) for v in range(y.n)
    ]


def _factor_pairs(x, y, name: str):
    """The edges, or arcs, of two factors of the same kind."""
    if type(x) is not type(y) or not isinstance(x, (Graph, Digraph)):
        raise TypeError(f"{name} product needs two graphs or two digraphs")
    return x.pairs, y.pairs


def cartesian_product(x, y):
    """Move along one coordinate at a time: adjacency in one factor with
    equality in the other."""
    xs, ys = _factor_pairs(x, y, "cartesian")
    pairs = []
    for u in range(x.n):
        for a, b in ys:
            pairs.append((u * y.n + a, u * y.n + b))
    for a, b in xs:
        for v in range(y.n):
            pairs.append((a * y.n + v, b * y.n + v))
    return type(x)(x.n * y.n, pairs, labels=_pair_labels(x, y))


def tensor_product(x, y):
    """Move along both coordinates at once: componentwise adjacency. An
    edge of a graph y counts as an arc in each direction."""
    xs, ys = _factor_pairs(x, y, "tensor")
    if isinstance(y, Graph):
        ys += tuple((d, c) for c, d in ys)
    pairs = []
    for a, b in xs:
        for c, d in ys:
            pairs.append((a * y.n + c, b * y.n + d))
    return type(x)(x.n * y.n, pairs, labels=_pair_labels(x, y))
