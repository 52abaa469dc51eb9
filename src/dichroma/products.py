"""Cartesian and tensor products of graphs and digraphs.

Product vertices are indexed row-major (left index * right order + right
index) and labelled by the pair of operand labels. Graphs and digraphs
are never coerced into each other; bidirect explicitly when needed.
"""

from __future__ import annotations

from .core import Digraph, Graph, _check_labels, iter_bits

__all__ = ["cartesian_product", "tensor_product"]


def _pair_labels(x, y) -> tuple[str, ...]:
    """Each product vertex's (left label,right label), an unlabelled vertex
    named by its index; distinct unless both factors have commas in labels."""
    xl = x.labels or range(x.n)
    yl = y.labels or range(y.n)
    return _check_labels(x.n * y.n, [f"({a},{b})" for a in xl for b in yl])


def _same_kind(x, y, name: str) -> None:
    if type(x) is not type(y) or not isinstance(x, (Graph, Digraph)):
        raise TypeError(f"{name} product needs two graphs or two digraphs")


def _spread(mask: int, ny: int) -> int:
    """Bit a of mask moved to bit a * ny: the first vertex of each row
    (a, *) of a product with a right factor of order ny."""
    out = 0
    for a in iter_bits(mask):
        out |= 1 << a * ny
    return out


def _product(x, y, rows):
    """The product whose out- (in-) neighbour masks rows gives from the
    factors' out- (in-) neighbour masks."""
    outs = rows(x.outs, y.outs)
    ins = None if x._symmetric else rows(x.ins, y.ins)
    return type(x)._from_masks(x.n * y.n, outs, ins, _pair_labels(x, y))


def cartesian_product(x, y):
    """Move along one coordinate at a time: adjacency in one factor with
    equality in the other. Row (u, v) is y's row v shifted to block u,
    plus one bit per neighbour of u in x."""
    _same_kind(x, y, "cartesian")
    ny = y.n

    def rows(xs, ys):
        return [ys[v] << u * ny | spread << v
                for u, spread in enumerate(_spread(row, ny) for row in xs) for v in range(ny)]

    return _product(x, y, rows)


def tensor_product(x, y):
    """Move along both coordinates at once: componentwise adjacency. An
    edge of a graph y counts as an arc in each direction. Row (a, c) is
    y's row c copied into the block of each neighbour of a in x: one
    multiplication, since the copies do not overlap."""
    _same_kind(x, y, "tensor")

    def rows(xs, ys):
        return [spread * yrow for spread in (_spread(row, y.n) for row in xs) for yrow in ys]

    return _product(x, y, rows)
