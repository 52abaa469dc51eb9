"""Canonical catalogues of small graphs and digraphs.

A graph or digraph on n vertices is a bit mask over vertex pairs: bit i
stands for the i-th unordered pair in `combinations` order (graphs) or
the i-th ordered pair in row-major order (digraphs). Its canonical form
is the least mask over all n! vertex permutations. One relabelling
primitive tabulates, per slice of five positions, the image of each slice
value under each of a list of permutations, so all images of a mask are
a few list slices ORed by `map`.

Graphs come by canonical augmentation (McKay, "Isomorph-free exhaustive
generation", J. Algorithms 1998). The pairs that avoid vertex 0 are the
top C(n-1, 2) bits, so the least mask of G is least(G - v) << (n-1) | N(v)
for the vertex v placed at 0. A canonical parent P on n-1 vertices with a
new vertex 0 joined to x is thus canonical exactly when x is least in its
Aut(P)-orbit and no vertex w gives a smaller (least(G - w), N(w) mapped
onto it). An orbit table of every mask on n-1 vertices, filled by
relabelling the parents, gives least(G - w) and that map, and Aut(P).
The row-major arc order has no such prefix, so each canonical oriented
digraph on n-1 vertices gets a new last vertex joined in every possible
way, and each orbit met among these candidates is expanded once. Class
counts are asserted in the tests (1, 2, 4, 11, 34, 156, 1044, 12346 for
graphs; 1, 2, 7, 42, 582 for oriented digraphs; 1, 1, 2, 4 for
tournaments).

Catalogues are cached per n. A deadline passed in is polled per parent
(per orbit for oriented digraphs) while a level is built; a build it cuts
short raises BudgetExceededError and caches nothing.
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
    "bidirected_catalogue",
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
    return tuple((u, v) for u in range(n) for v in range(n) if u != v)


def _table(columns: list[list[int]], perms: int) -> list[int]:
    """Entry x * perms + i is the OR of columns[j][i] over the set bits j
    of x: the image of x under permutation i."""
    table = [0] * perms
    for column in columns:
        table += map(or_, table, column * (len(table) // perms))
    return table


def _relabeller(perms, positions, symmetric: bool) -> tuple[int, list[list[int]]]:
    """Tables for _images: permutation p moves vertex u to p[u], so bit i
    (positions[i], unordered when symmetric) moves to the bit of the
    permuted pair."""
    index = {}
    for i, (u, v) in enumerate(positions):
        index[(u, v)] = i
        if symmetric:
            index[(v, u)] = i
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


def _canonical_masks(n: int, masks: list[int], positions, symmetric: bool,
                     deadline: Optional[Deadline] = None) -> list[int]:
    """Least mask over all vertex permutations, for each input mask. Bit i
    stands for positions[i]; symmetric means the positions are unordered
    pairs. Each orbit is expanded once, at its first input mask."""
    if n <= 1 or not masks:
        return list(masks)
    relabeller = _relabeller(list(permutations(range(n))), positions, symmetric)
    wanted = set(masks)
    least: dict[int, int] = {}
    for x in masks:
        if x not in least:
            _poll(deadline, n)
            images = _images(relabeller, x)
            lowest = min(images)
            for y in wanted.intersection(images):
                least[y] = lowest
    return [least[x] for x in masks]


def _augment(k: int, parents: list[int], deadline: Optional[Deadline]) -> list[int]:
    """Ascending least masks of the graphs on k + 1 vertices, from the
    ascending least masks of those on k vertices (see the module doc)."""
    from array import array  # here, so that importing the CLI does not load it

    perms = list(permutations(range(k)))
    f = len(perms)
    relabeller = _relabeller(perms, _edge_positions(k), True)
    # entry y * f + i: the vertex set y moved by the inverse of perms[i]
    inverses = [sorted(range(k), key=p.__getitem__) for p in perms]
    inverse = _table([[1 << q[v] for q in inverses] for v in range(k)], f)
    # entry of mask Q: p * f + i where perms[i] moves parents[p] onto Q
    orbits = array("i", bytes(4 << len(_edge_positions(k))))
    least = []  # per parent, the least vertex set in each Aut(P)-orbit
    for p, mask in enumerate(parents):
        _poll(deadline, k + 1)
        images = _images(relabeller, mask)
        for q, entry in dict(zip(images, count(p * f))).items():
            orbits[q] = entry
        automorphisms = compress(count(), map(mask.__eq__, images))
        least.append(list(map(min, zip(*(inverse[a::f] for a in automorphisms)))))
    # moving vertex w to 0 turns the mask of G into (G - w) << k | N(w); a
    # relabelling maps ORs to ORs, so the images of P << k | x are those of
    # P << k ORed with those of x
    fronts = _relabeller([(*range(1, w + 1), 0, *range(w + 1, k + 1)) for w in range(1, k + 1)],
                         _edge_positions(k + 1), True)
    joins = [_images(fronts, x) for x in range(1 << k)]
    low = (1 << k) - 1
    out = []
    for p, mask in enumerate(parents):
        _poll(deadline, k + 1)
        lo, hi, orbit_least = p * f, p * f + f, least[p]
        rest = _images(fronts, mask << k)
        for x in range(1 << k):
            if orbit_least[x] != x:
                continue
            for image in map(or_, rest, joins[x]):
                entry = orbits[image >> k]
                if entry < lo:
                    break  # G - w is a smaller parent
                if entry < hi and orbit_least[inverse[(image & low) * f + entry - lo]] < x:
                    break  # G - w is P, and N(w) maps below x
            else:
                out.append(mask << k | x)
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
    positions = _edge_positions(n)
    return tuple(_from_mask(Graph, n, positions, m) for m in _augment(n - 1, parents, deadline))


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
    isomorphism class."""
    if n <= 1:
        return (Digraph(n),)
    if n > 6:  # the 21,480 parents on 6 vertices give 15.6 million candidates
        raise LimitExceededError("oriented catalogues stop at 6 vertices")
    positions = _arc_positions(n)
    index = {p: i for i, p in enumerate(positions)}
    joins = [0]  # the new last vertex: no arc, or an arc either way, to each other
    for v in range(n - 1):
        ways = (0, 1 << index[(v, n - 1)], 1 << index[(n - 1, v)])
        joins = [x | way for x in joins for way in ways]
    parents = _masks((d.arcs for d in oriented_catalogue(n - 1, deadline)), positions)
    candidates = [base | x for base in parents for x in joins]
    masks = sorted(set(_canonical_masks(n, candidates, positions, False, deadline)))
    out = [_from_mask(Digraph, n, positions, m) for m in masks]
    out.sort(key=lambda d: (d.m, d.arcs))
    return tuple(out)


@_cached_on_n
def bidirected_catalogue(n: int, deadline: Optional[Deadline] = None) -> tuple[Digraph, ...]:
    """Bidirected versions of the canonical graphs on n vertices."""
    return tuple(bidirect(g) for g in graph_catalogue(n, deadline))


def digraph_catalogue(max_n: int, deadline: Optional[Deadline] = None) -> list[Digraph]:
    """Oriented plus bidirected representatives on 1..max_n vertices, with
    the shared edgeless digraphs listed once."""
    if max_n >= 1:
        oriented_catalogue(max_n, deadline)  # a size past the limit fails before any build
    out: list[Digraph] = []
    for n in range(1, max_n + 1):
        seen: set[Digraph] = set()
        for d in oriented_catalogue(n, deadline) + bidirected_catalogue(n, deadline):
            if d not in seen:
                seen.add(d)
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
