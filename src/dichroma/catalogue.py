"""Canonical catalogues of small graphs and digraphs.

A graph or digraph on n vertices is a bit mask over vertex pairs: bit i
stands for the i-th unordered pair (graphs) or ordered pair (digraphs).
Its canonical form is the least mask over all n! vertex permutations.
`_canonical_masks` finds it for many masks at once. For each permutation
it builds one lookup table per 7-bit slice of the mask, mapping each of
the 128 slice values to the bits of its image; the image of a whole mask
is the OR of one table entry per slice. Small inputs (every catalogue up
to 5 vertices for graphs and 4 for oriented digraphs) gather the entries
in pure Python, which costs less than importing numpy. Larger ones import
numpy on first use and gather for every mask and a block of permutations
at once, the block sized to keep each temporary near 128 KiB, with int32
masks while they fit in 31 bits.

Both catalogues are generated by canonical extension (McKay,
"Isomorph-free exhaustive generation", J. Algorithms 1998): each
canonical member on n-1 vertices gets a new last vertex joined to the
others in every possible way, and one representative per canonical mask
is kept. Known class counts are asserted in the tests (1, 2, 4, 11, 34,
156, 1044 for graphs; 1, 2, 7, 42, 582 for oriented digraphs; 1, 1, 2, 4
for tournaments).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, islice, permutations
from math import factorial

from .core import Digraph, Graph, bidirect
from .randomized import DOMAIN_PAIR, RngSpec, stream_u64

__all__ = [
    "graph_catalogue",
    "graphs_up_to",
    "oriented_catalogue",
    "bidirected_catalogue",
    "digraph_catalogue",
    "random_digraph",
]

_SLICE = 7
_SLICE_MASK = (1 << _SLICE) - 1
# permutations x masks up to which the tables are gathered in pure Python,
# which costs less than importing numpy (every catalogue up to 5 vertices
# for graphs and 4 for oriented digraphs)
_PYTHON_WORK = 1 << 16
# permutations x masks per gathered numpy temporary: 128 KiB of int32
_BLOCK_ELEMENTS = 1 << 15


@lru_cache(maxsize=None)
def _edge_positions(n: int) -> tuple[tuple[int, int], ...]:
    return tuple(combinations(range(n), 2))


@lru_cache(maxsize=None)
def _arc_positions(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((u, v) for u in range(n) for v in range(n) if u != v)


def _slice_table(bits: list[int]) -> list[int]:
    """Entry x is the OR of bits[j] over the set bits j of x."""
    table = [0]
    for bit in bits:
        table += [x | bit for x in table]
    return table


def _canonical_masks(n: int, masks: list[int], positions, symmetric: bool) -> list[int]:
    """Least mask over all vertex permutations, for each input mask. Bit i
    stands for positions[i]; symmetric means the positions are unordered
    pairs, so a permuted pair is looked up either way round."""
    if n <= 1 or not masks:
        return list(masks)
    index = {}
    for i, (u, v) in enumerate(positions):
        index[(u, v)] = i
        if symmetric:
            index[(v, u)] = i
    # per permutation, the image bit of each position
    images = ([1 << index[(perm[u], perm[v])] for u, v in positions]
              for perm in permutations(range(n)))
    if factorial(n) * len(masks) > _PYTHON_WORK:
        return _canonical_masks_numpy(n, masks, len(positions), images)
    best = list(masks)
    for image in images:
        tables = [_slice_table(image[s : s + _SLICE]) for s in range(0, len(image), _SLICE)]
        for j, x in enumerate(masks):
            y = 0
            for table in tables:
                y |= table[x & _SLICE_MASK]
                x >>= _SLICE
            if y < best[j]:
                best[j] = y
    return best


def _canonical_masks_numpy(n: int, masks: list[int], m: int, images) -> list[int]:
    """The same tables built and gathered by numpy, for a block of
    permutations and every mask at once."""
    import numpy as np

    dtype = np.int32 if m <= 31 else np.int64
    slices = -(-m // _SLICE)
    arr = np.asarray(masks, dtype=dtype)
    # column s*128 + x of a block's tables holds the image of value x in slice s
    keys = [((arr >> (_SLICE * s)) & _SLICE_MASK).astype(np.intp) + (s << _SLICE)
            for s in range(slices)]
    value_bits = ((np.arange(1 << _SLICE)[:, None] >> np.arange(_SLICE)) & 1).astype(dtype)
    block = min(factorial(n), max(1, _BLOCK_ELEMENTS // len(arr)))
    best = arr.copy()
    image = np.empty((block, len(arr)), dtype=dtype)
    part = np.empty_like(image)
    bits = np.zeros((block, slices * _SLICE), dtype=dtype)
    while True:
        chunk = list(islice(images, block))
        if not chunk:
            return best.tolist()
        b = len(chunk)
        bits[:b, :m] = chunk
        tables = (bits[:b].reshape(b, slices, _SLICE) @ value_bits.T).reshape(b, -1)
        np.take(tables, keys[0], axis=1, out=image[:b], mode="clip")
        for key in keys[1:]:
            np.take(tables, key, axis=1, out=part[:b], mode="clip")
            np.bitwise_or(image[:b], part[:b], out=image[:b])
        np.minimum(best, image[:b].min(axis=0), out=best)


def _canonical_extensions(n: int, parents, positions, symmetric: bool) -> list[int]:
    """Sorted distinct canonical masks of every parent (the pairs of a
    member on n-1 vertices) with a new last vertex joined to the others in
    every possible way: by an edge or not when symmetric, else by no arc
    or an arc either way."""
    index = {p: i for i, p in enumerate(positions)}
    joins = [0]
    for v in range(n - 1):
        ways = [0, 1 << index[(v, n - 1)]]
        if not symmetric:
            ways.append(1 << index[(n - 1, v)])
        joins = [x | way for x in joins for way in ways]
    candidates: list[int] = []
    for pairs in parents:
        base = sum(1 << index[p] for p in pairs)
        candidates.extend(base | x for x in joins)
    return sorted(set(_canonical_masks(n, candidates, positions, symmetric)))


def _from_mask(cls, n: int, positions, mask: int):
    return cls(n, [p for i, p in enumerate(positions) if mask >> i & 1])


@lru_cache(maxsize=None)
def graph_catalogue(n: int) -> tuple[Graph, ...]:
    """All graphs on exactly n vertices, one per isomorphism class."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n <= 1:
        return (Graph(n),)
    positions = _edge_positions(n)
    parents = [g.edges for g in graph_catalogue(n - 1)]
    masks = _canonical_extensions(n, parents, positions, True)
    return tuple(_from_mask(Graph, n, positions, m) for m in masks)


def graphs_up_to(max_n: int) -> list[Graph]:
    """One representative per isomorphism class, 1..max_n vertices."""
    out: list[Graph] = []
    for n in range(1, max_n + 1):
        out.extend(graph_catalogue(n))
    return out


@lru_cache(maxsize=None)
def oriented_catalogue(n: int) -> tuple[Digraph, ...]:
    """All orientations of graphs on n vertices (no digons), one per
    isomorphism class."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n <= 1:
        return (Digraph(n),)
    positions = _arc_positions(n)
    parents = [d.arcs for d in oriented_catalogue(n - 1)]
    masks = _canonical_extensions(n, parents, positions, False)
    out = [_from_mask(Digraph, n, positions, m) for m in masks]
    out.sort(key=lambda d: (d.m, d.arcs))
    return tuple(out)


@lru_cache(maxsize=None)
def bidirected_catalogue(n: int) -> tuple[Digraph, ...]:
    """Bidirected versions of the canonical graphs on n vertices."""
    return tuple(bidirect(g) for g in graph_catalogue(n))


def digraph_catalogue(max_n: int) -> list[Digraph]:
    """Oriented plus bidirected representatives on 1..max_n vertices, with
    the shared edgeless digraphs listed once."""
    out: list[Digraph] = []
    for n in range(1, max_n + 1):
        seen: set[tuple] = set()
        for d in oriented_catalogue(n) + bidirected_catalogue(n):
            key = (d.n, d.arcs)
            if key not in seen:
                seen.add(key)
                out.append(d)
    return out


def random_digraph(n: int, rng: RngSpec) -> Digraph:
    """Each unordered pair independently gets no arc, one arc either way,
    or a digon, each with probability 1/4."""
    arcs = []
    for idx, (u, v) in enumerate(combinations(range(n), 2)):
        state = stream_u64(rng, DOMAIN_PAIR, idx) & 3
        if state == 1:
            arcs.append((u, v))
        elif state == 2:
            arcs.append((v, u))
        elif state == 3:
            arcs.append((u, v))
            arcs.append((v, u))
    return Digraph(n, arcs)
