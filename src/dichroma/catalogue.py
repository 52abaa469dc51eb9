"""Canonical catalogues of small graphs and digraphs.

A graph or digraph on n vertices is a bit mask over vertex pairs: bit i
stands for the i-th unordered pair in `combinations` order (graphs), or
the i-th ordered pair in star-first order (digraphs): the arcs (0, v),
(v, 0) for each v, then the order on the other n-1 vertices. Its canonical
form is the least mask over all n! vertex permutations. One relabelling
primitive tabulates, per slice of five positions, the image of each slice
value under each of a list of permutations, so all images of a mask are
a few list slices ORed by `map`.

Both catalogues come by canonical augmentation (McKay, "Isomorph-free
exhaustive generation", J. Algorithms 1998). In either order the pairs
that avoid vertex 0 are the top bits, the order on n-1 vertices shifted up
by one vertex, so the least mask of G is least(G - v) << s(n-1) | N(v) for
the vertex v placed at 0, where vertex 0 has s = 1 position per other
vertex for graphs and s = 2 for digraphs. A canonical parent P on n-1
vertices with a new vertex 0 joined to x (never by both arcs, for oriented
digraphs) is thus canonical exactly when x is least in its Aut(P)-orbit
and no vertex w gives a smaller (least(G - w), N(w) mapped onto it). An
orbit table of every mask on n-1 vertices, filled by relabelling the
parents, gives least(G - w) and that map, and Aut(P). Class counts are
asserted in the tests (1, 2, 4, 11, 34, 156, 1044, 12346 for graphs;
1, 2, 7, 42, 582, 21480 for oriented digraphs; 1, 1, 2, 4 for tournaments).

Catalogues are cached per n. A deadline passed in is polled per parent,
in each of two passes, while a level is built; a build it cuts short
raises BudgetExceededError and caches nothing.
"""

from __future__ import annotations

from functools import lru_cache, wraps
from itertools import combinations, compress, count, permutations
from operator import or_
from typing import Optional

from .core import Deadline, Digraph, Graph, bidirect, iter_bits
from .errors import BudgetExceededError, LimitExceededError
from .randomized import DOMAIN_PAIR, RngSpec, stream_u64

__all__ = [
    "graph_catalogue",
    "graphs_up_to",
    "oriented_catalogue",
    "digraph_catalogue",
    "random_digraph",
]

# positions per table slice: 32 entries per permutation and slice
_SLICE = 5
_SLICE_MASK = (1 << _SLICE) - 1


@lru_cache(maxsize=None)
def _edge_positions(n: int) -> tuple[tuple[int, int], ...]:
    return tuple(combinations(range(n), 2))


@lru_cache(maxsize=None)
def _arc_positions(n: int) -> tuple[tuple[int, int], ...]:
    """Star-first: the arcs (0, v), (v, 0) for each v, then the order on
    n - 1 vertices shifted up by one vertex."""
    if n <= 1:
        return ()
    star = tuple(arc for v in range(1, n) for arc in ((0, v), (v, 0)))
    return star + tuple((u + 1, v + 1) for u, v in _arc_positions(n - 1))


def _table(columns: list[list[int]], perms: int) -> list[int]:
    """Entry x * perms + i is the OR of columns[j][i] over the set bits j
    of x: the image of x under permutation i."""
    table = [0] * perms
    for column in columns:
        table += map(or_, table, column * (len(table) // perms))
    return table


def _relabeller(perms, positions) -> tuple[int, list[list[int]]]:
    """Tables for _images: permutation p moves vertex u to p[u], so bit i
    moves to the bit of the permuted pair. A pair whose reverse is not a
    position of its own is unordered."""
    index = {pair: i for i, pair in enumerate(positions)}
    for (u, v), i in list(index.items()):
        index.setdefault((v, u), i)
    moves = [[1 << index[(p[u], p[v])] for p in perms] for u, v in positions]
    return len(perms), [_table(moves[s : s + _SLICE], len(perms))
                        for s in range(0, len(moves), _SLICE)]


def _images(relabeller, x: int) -> list[int]:
    """The image of mask x under each permutation of the relabeller."""
    perms, tables = relabeller
    out = [0] * perms
    for table in tables:
        key = (x & _SLICE_MASK) * perms
        out = map(or_, out, table[key : key + perms])
        x >>= _SLICE
    return list(out)


def _poll(deadline: Optional[Deadline], n: int) -> None:
    if deadline is not None and deadline.expired():
        raise BudgetExceededError(f"deadline reached building the {n}-vertex catalogue")


def _augment(k: int, parents: list[int], positions, stride: int,
             deadline: Optional[Deadline]) -> list[int]:
    """Ascending least masks of the members on k + 1 vertices, from the
    ascending least masks of those on k vertices (see the module doc).
    positions(n) orders the pairs on n vertices; the new vertex 0 has
    stride positions per old vertex, and a join may set at most one."""
    from array import array  # here, so that importing the CLI does not load it

    perms = list(permutations(range(k)))
    f = len(perms)
    star = stride * k
    relabeller = _relabeller(perms, positions(k))
    # entry y * f + i: the join y moved by the inverse of perms[i]
    inverses = [sorted(range(k), key=p.__getitem__) for p in perms]
    inverse = _table([[1 << stride * q[v] + b for q in inverses]
                      for v in range(k) for b in range(stride)], f)
    # entry of mask Q: p * f + i where perms[i] moves parents[p] onto Q
    orbits = array("i", bytes(4 << len(positions(k))))
    least = []  # per parent, the least join in each Aut(P)-orbit
    for p, mask in enumerate(parents):
        _poll(deadline, k + 1)
        images = _images(relabeller, mask)
        for q, entry in dict(zip(images, count(p * f))).items():
            orbits[q] = entry
        automorphisms = compress(count(), map(mask.__eq__, images))
        least.append(list(map(min, zip(*(inverse[a::f] for a in automorphisms)))))
    # moving vertex w to 0 turns the mask of G into (G - w) << star | N(w);
    # a relabelling maps ORs to ORs, so the images of P << star | x are
    # those of P << star ORed with those of x
    fronts = _relabeller([(*range(1, w + 1), 0, *range(w + 1, k + 1)) for w in range(1, k + 1)],
                         positions(k + 1))
    joins = [_images(fronts, x) for x in range(1 << star)]
    low = (1 << star) - 1
    both = sum(1 << 2 * v for v in range(k)) if stride == 2 else 0  # arcs (0, v), (v, 0)
    out = []
    for p, mask in enumerate(parents):
        _poll(deadline, k + 1)
        lo, hi, orbit_least = p * f, p * f + f, least[p]
        rest = _images(fronts, mask << star)
        for x in range(1 << star):
            if orbit_least[x] != x or x & x >> 1 & both:
                continue
            for image in map(or_, rest, joins[x]):
                entry = orbits[image >> star]
                if entry < lo:
                    break  # G - w is a smaller parent
                if entry < hi and orbit_least[inverse[(image & low) * f + entry - lo]] < x:
                    break  # G - w is P, and N(w) maps below x
            else:
                out.append(mask << star | x)
    return out


def _cached_on_n(build):
    """Cache a catalogue on n alone; the deadline only bounds a build."""
    cache: dict = {}

    @wraps(build)
    def catalogue(n: int, deadline: Optional[Deadline] = None):
        if n < 0:
            raise ValueError("n must be nonnegative")
        if n not in cache:
            cache[n] = build(n, deadline)
        return cache[n]

    catalogue.cache_clear = cache.clear
    return catalogue


def _masks(pair_lists, positions) -> list[int]:
    index = {p: i for i, p in enumerate(positions)}
    return [sum(1 << index[p] for p in pairs) for pairs in pair_lists]


def _from_mask(cls, n: int, positions, mask: int):
    """The member whose pairs are the positions of mask's set bits."""
    outs = [0] * n
    ins = outs if cls is Graph else [0] * n
    for i in iter_bits(mask):
        u, v = positions[i]
        outs[u] |= 1 << v
        ins[v] |= 1 << u
    return cls._from_masks(n, outs, ins, None)


@_cached_on_n
def graph_catalogue(n: int, deadline: Optional[Deadline] = None) -> tuple[Graph, ...]:
    """All graphs on exactly n vertices, one per isomorphism class, in
    ascending least mask."""
    if n <= 1:
        return (Graph(n),)
    if n > 8:  # the orbit table on 8 vertices would hold 2**28 entries (1 GiB)
        raise LimitExceededError("graph catalogues stop at 8 vertices")
    parents = _masks((g.edges for g in graph_catalogue(n - 1, deadline)), _edge_positions(n - 1))
    masks = _augment(n - 1, parents, _edge_positions, 1, deadline)
    return tuple(_from_mask(Graph, n, _edge_positions(n), m) for m in masks)


def graphs_up_to(max_n: int, deadline: Optional[Deadline] = None) -> list[Graph]:
    """One representative per isomorphism class, 1..max_n vertices."""
    if max_n >= 1:
        graph_catalogue(max_n, deadline)  # a size past the limit fails before any build
    out: list[Graph] = []
    for n in range(1, max_n + 1):
        out.extend(graph_catalogue(n, deadline))
    return out


@_cached_on_n
def oriented_catalogue(n: int, deadline: Optional[Deadline] = None) -> tuple[Digraph, ...]:
    """All orientations of graphs on n vertices (no digons), one per
    isomorphism class, in ascending least mask."""
    if n <= 1:
        return (Digraph(n),)
    if n > 6:  # the orbit table on 6 vertices would hold 2**30 entries (4 GiB)
        raise LimitExceededError("oriented catalogues stop at 6 vertices")
    parents = _masks((d.arcs for d in oriented_catalogue(n - 1, deadline)), _arc_positions(n - 1))
    masks = _augment(n - 1, parents, _arc_positions, 2, deadline)
    return tuple(_from_mask(Digraph, n, _arc_positions(n), m) for m in masks)


def digraph_catalogue(max_n: int, deadline: Optional[Deadline] = None) -> list[Digraph]:
    """Oriented plus bidirected representatives on 1..max_n vertices. Both
    catalogues list ascending least masks, so each starts with the
    edgeless digraph, listed once; every other bidirected member has a
    digon, and no oriented one has."""
    if max_n >= 1:
        oriented_catalogue(max_n, deadline)  # a size past the limit fails before any build
    out: list[Digraph] = []
    for n in range(1, max_n + 1):
        out.extend(oriented_catalogue(n, deadline))
        out.extend(bidirect(g) for g in graph_catalogue(n, deadline)[1:])
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
