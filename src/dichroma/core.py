"""Graph and digraph primitives, and the Deadline every search polls.

Vertices are dense indices 0..n-1; any semantic identity (a k-subset, a
lattice point, a coordinate pair) lives in an optional per-vertex label.
Adjacency is kept as one integer bitmask per vertex so that subset and
neighbourhood tests are single machine operations. All values here but a
Deadline's poll counter are immutable after construction and safe to
share between threads (a structure's pairs are cached on first use, the
same tuple whoever computes it).

Graph(...) and Digraph(...) validate outside input. Every builder in the
package whose output is valid by construction fills the masks itself and
hands them to the one trusted constructor, _Structure._from_masks.
"""

from __future__ import annotations

import time
from collections import namedtuple
from functools import partial
from operator import or_
from types import GeneratorType
from typing import Iterable, Iterator, Optional, Sequence

from .errors import BudgetExceededError, LimitExceededError

__all__ = [
    "Deadline",
    "Graph",
    "Digraph",
    "Orientation",
    "Coloring",
    "ListAssignment",
    "iter_bits",
    "mask_of",
    "is_acyclic",
    "bidirect",
    "apply_orientation",
    "enumerate_orientations",
    "is_proper_coloring",
    "is_proper_dicoloring",
    "maximal_acyclic_sets",
    "induced_subdigraph",
    "induced_subgraph",
]


DEFAULT_VERTEX_LIMIT = 5000


def _vertex_count(n: int, name: str = "") -> int:
    """n, or LimitExceededError when it passes DEFAULT_VERTEX_LIMIT; name,
    if given, says what n counts."""
    if n > DEFAULT_VERTEX_LIMIT:
        said = f"{name} = {n} exceeds" if name else f"{n} vertices exceed"
        raise LimitExceededError(f"{said} limit {DEFAULT_VERTEX_LIMIT}")
    return n


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _depth_first(root: Iterator) -> Iterator:
    """The items of a recursive generator that yields each recursive call
    (yield child) where it would delegate to it (yield from child), in the
    same order: each child runs to its end on an explicit stack, so the
    depth is not bounded by Python's recursion limit."""
    stack = [root]
    while stack:
        for item in stack[-1]:
            if isinstance(item, GeneratorType):
                stack.append(item)
                break
            yield item
        else:
            stack.pop()


def mask_of(vertices: Iterable[int]) -> int:
    """Pack an iterable of vertex indices into a bitmask."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


class Deadline:
    """The one budget of every search: an instant seconds from now. A
    command makes one and passes it down; searches poll it and stop with
    a flagged bracket or BudgetExceededError. at is an absolute clock
    reading, so forked workers share it."""

    __slots__ = ("at", "ticks")

    def __init__(self, seconds: float = 120.0):
        if seconds <= 0:
            raise ValueError("timeout must be positive")
        self.at = time.monotonic() + seconds
        self.ticks = 0

    def check(self) -> bool:
        """True when time is up; polls the clock every 1024 calls."""
        self.ticks += 1
        if self.ticks & 1023:
            return False
        return self.expired()

    def expired(self) -> bool:
        """True when time is up, reading the clock now."""
        return time.monotonic() > self.at


def _check_labels(n: int, labels) -> tuple[str, ...] | None:
    if labels is None:
        return None
    out = tuple(str(x) for x in labels)
    if len(out) != n:
        raise ValueError(f"expected {n} labels, got {len(out)}")
    if len(set(out)) != n:
        raise ValueError("labels must be pairwise distinct")
    return out


class _Structure:
    """What a graph and a digraph share: n vertices, the sorted tuple of
    pairs (no loops, none repeated), optional distinct labels, and one
    out- and one in-neighbour bitmask per vertex. A structure equals only
    one of its own kind.

    __init__ checks every pair and label; _from_masks checks nothing.
    Either way the masks are what is kept; the sorted pairs are read off
    them row by row on first use, so a structure nobody lists, such as a
    product a solver only searches, never builds them."""

    __slots__ = ("n", "_pairs", "labels", "outs", "ins")
    _noun = "arc"
    _symmetric = False

    def __init__(self, n: int, pairs: Iterable[Sequence[int]], labels):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        noun, symmetric = self._noun, self._symmetric
        outs = [0] * n
        ins = outs if symmetric else [0] * n  # a graph's one mask list takes both ends
        for u, v in pairs:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"{noun} ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if symmetric and v < u:
                u, v = v, u
            if outs[u] >> v & 1:
                raise ValueError(f"duplicate {noun} ({u},{v})")
            outs[u] |= 1 << v
            ins[v] |= 1 << u
        self._fill(n, outs, ins, _check_labels(n, labels))

    @classmethod
    def _from_masks(cls, n: int, outs: Iterable[int], ins: Optional[Iterable[int]], labels):
        """The structure with these out- and in-neighbour masks (ins is
        not read for a graph) and these labels (a tuple of distinct
        strings, or None), taken as they are: the caller guarantees that
        the masks agree and hold no loop and no bit at or above n."""
        self = object.__new__(cls)
        self._fill(n, outs, ins, labels)
        return self

    def _fill(self, n: int, outs, ins, labels) -> None:
        self.n = n
        self.labels = labels
        self.outs = outs = tuple(outs)
        self.ins = outs if self._symmetric else tuple(ins)
        self._pairs = None

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        if self._pairs is None:
            pairs = []
            for u, row in enumerate(self.outs):
                if self._symmetric:
                    row = row >> u << u  # each edge once, from its lower end
                while row:
                    low = row & -row
                    pairs.append((u, low.bit_length() - 1))
                    row ^= low
            self._pairs = tuple(pairs)
        return self._pairs

    @property
    def m(self) -> int:
        return len(self.pairs)

    def label(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else str(v)

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.n == other.n
            and self.outs == other.outs  # the masks hold the same pairs
            and self.labels == other.labels
        )

    def __hash__(self) -> int:
        return hash((self.n, self.pairs, self.labels))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, m={self.m})"


class Graph(_Structure):
    """Simple undirected graph (no loops, no multi-edges): the symmetric
    case, each edge stored once as (lower, higher) and outs = ins = adj.

    ``edges`` is sorted by (min endpoint, max endpoint); that order fixes
    the edge indexing used by orientation streams, so it must not change
    between releases.
    """

    __slots__ = ()
    _noun = "edge"
    _symmetric = True

    def __init__(self, n: int, edges: Iterable[Sequence[int]] = (), labels=None):
        super().__init__(n, edges, labels)

    edges = property(lambda self: self.pairs, doc="The edges: a read-only view of pairs.")
    adj = property(lambda self: self.outs, doc="The neighbour masks: a view of outs.")

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.outs[u] >> v & 1)


class Digraph(_Structure):
    """Directed graph with no loops and at most one arc per ordered pair.

    A pair of opposite arcs (a digon) is allowed and counts as a directed
    cycle of length two.
    """

    __slots__ = ()

    def __init__(self, n: int, arcs: Iterable[Sequence[int]] = (), labels=None):
        super().__init__(n, arcs, labels)

    arcs = property(lambda self: self.pairs, doc="The arcs: a read-only view of pairs.")

    def underlying_graph(self) -> Graph:
        """The graph with an edge wherever an arc runs either way; both
        arcs of a digon become one edge."""
        return Graph._from_masks(self.n, map(or_, self.outs, self.ins), None, self.labels)


class _Validated:
    """Base of a namedtuple whose __new__ validates or normalises: _make,
    and _replace, which builds through _make, go through __new__ instead
    of tuple.__new__, so they cannot return a record __new__ refuses."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class Orientation(_Validated, namedtuple("Orientation", "base direction")):
    """One direction per edge of a base graph.

    ``direction[j]`` refers to the j-th edge of ``base.edges``; False means
    the arc runs from the lower to the higher endpoint.
    """

    __slots__ = ()

    def __new__(cls, base: Graph, direction: tuple[bool, ...]):
        if len(direction) != base.m:
            raise ValueError(f"{len(direction)} direction bits for {base.m} edges")
        return super().__new__(cls, base, direction)


class Coloring(_Validated, namedtuple("Coloring", "palette assignment")):
    """A total assignment of palette colours to vertices 0..n-1."""

    __slots__ = ()

    def __new__(cls, palette: tuple[int, ...], assignment: tuple[int, ...]):
        allowed = set(palette)
        if len(allowed) != len(palette):
            raise ValueError("palette colours must be distinct")
        for v, c in enumerate(assignment):
            if c not in allowed:
                raise ValueError(f"vertex {v} assigned colour {c} outside palette")
        return super().__new__(cls, palette, assignment)

    @property
    def n(self) -> int:
        return len(self.assignment)


class ListAssignment(_Validated, namedtuple("ListAssignment", "palette lists k")):
    """Per-vertex colour lists of a common size k over an explicit palette.

    Each list is stored as a sorted tuple, so searches try a vertex's
    colours in ascending order without sorting; any iterable of colours
    is accepted and normalised."""

    __slots__ = ()

    def __new__(cls, palette: tuple[int, ...], lists: Iterable[Iterable[int]], k: int):
        allowed = set(palette)
        if len(allowed) != len(palette):
            raise ValueError("palette colours must be distinct")
        lists = tuple(tuple(sorted(set(lst))) for lst in lists)
        for v, lst in enumerate(lists):
            if len(lst) != k:
                raise ValueError(f"list of vertex {v} has size {len(lst)}, not {k}")
            if not allowed.issuperset(lst):
                raise ValueError(f"list of vertex {v} leaves the palette")
        return super().__new__(cls, palette, lists, k)

    @property
    def n(self) -> int:
        return len(self.lists)

    @classmethod
    def uniform(cls, n: int, colours: Iterable[int]) -> "ListAssignment":
        """The assignment giving every vertex the same list."""
        lst = tuple(sorted(set(colours)))
        return _trusted_list_assignment((lst, (lst,) * n, len(lst)))


# ListAssignment((palette, lists, k)) without validation or normalisation,
# for builders whose palette holds distinct colours and whose lists are
# sorted k-tuples drawn from it.
_trusted_list_assignment = partial(tuple.__new__, ListAssignment)


def _subset_acyclic(ins: Sequence[int], mask: int) -> bool:
    """Kahn-style elimination restricted to the vertices in ``mask``."""
    alive = mask
    changed = True
    while alive and changed:
        changed = False
        rest = alive
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            if ins[v] & alive == 0:
                alive ^= low
                changed = True
    return alive == 0


def _extension_cyclic(outs: Sequence[int], ins: Sequence[int], mask: int, v: int) -> bool:
    """True iff adding v to the acyclic vertex set ``mask`` closes a cycle.

    A cycle through v exists iff some in-neighbour of v inside the set is
    reachable from an out-neighbour of v inside the set (a digon partner is
    the one-step case).
    """
    start = outs[v] & mask
    goal = ins[v] & mask
    if not start or not goal:
        return False
    reach = 0
    frontier = start
    while frontier:
        if frontier & goal:
            return True
        reach |= frontier
        nxt = 0
        rest = frontier
        while rest:
            low = rest & -rest
            w = low.bit_length() - 1
            rest ^= low
            nxt |= outs[w] & mask
        frontier = nxt & ~reach
    return False


def is_acyclic(d: Digraph) -> bool:
    """Decide whether d has no directed cycle (a digon counts as one)."""
    return _subset_acyclic(d.ins, (1 << d.n) - 1)


def bidirect(g: Graph) -> Digraph:
    """Replace every edge by the two opposite arcs."""
    return Digraph._from_masks(g.n, g.outs, g.outs, g.labels)


def apply_orientation(g: Graph, o: Orientation) -> Digraph:
    """Turn g into the oriented digraph selected by o."""
    if o.base is not g and o.base != g:
        raise ValueError("orientation was built for a different graph")
    outs, ins = [0] * g.n, [0] * g.n
    for (u, v), rev in zip(g.pairs, o.direction):
        if rev:
            u, v = v, u
        outs[u] |= 1 << v
        ins[v] |= 1 << u
    return Digraph._from_masks(g.n, outs, ins, g.labels)


def enumerate_orientations(g: Graph) -> Iterator[Orientation]:
    """Stream all 2^m orientations of g in lexicographic direction order.

    The direction tuple is read as a binary word with edge 0 as the most
    significant bit, so consecutive orientations differ like a counter.
    The stream is lazy: a caller takes as many as it can afford.
    """
    m = g.m
    for code in range(1 << m):
        direction = tuple(bool(code >> (m - 1 - j) & 1) for j in range(m))
        yield Orientation(g, direction)


def is_proper_coloring(g: Graph, f: Coloring) -> bool:
    """True iff no edge of g joins two vertices of the same colour."""
    if f.n != g.n:
        raise ValueError("colouring does not cover the vertex set")
    a = f.assignment
    return all(a[u] != a[v] for u, v in g.edges)


def _class_masks(f: Coloring) -> list[int]:
    """The vertex masks of the nonempty colour classes of f."""
    masks: dict[int, int] = {}
    for v, c in enumerate(f.assignment):
        masks[c] = masks.get(c, 0) | 1 << v
    return list(masks.values())


def is_proper_dicoloring(d: Digraph, f: Coloring) -> bool:
    """True iff every colour class induces an acyclic subdigraph of d."""
    if f.n != d.n:
        raise ValueError("colouring does not cover the vertex set")
    return all(_subset_acyclic(d.ins, m) for m in _class_masks(f))


def _maximal_acyclic_masks(d: Digraph, deadline: Optional[Deadline]) -> Iterator[int]:
    """The masks of maximal_acyclic_sets(d, deadline), in its order, each
    yielded as soon as the search finds it."""
    n = d.n
    outs, ins = d.outs, d.ins
    deadline = deadline or Deadline()

    def rec(mask: int, start: int) -> Iterator:
        if deadline.check():
            raise BudgetExceededError("unknown: acyclic-set search ran out of time")
        grew = False
        for v in range(start, n):
            if not _extension_cyclic(outs, ins, mask, v):
                grew = True
                yield rec(mask | 1 << v, v + 1)
        if grew:
            return
        for v in range(start):
            if not mask >> v & 1 and not _extension_cyclic(outs, ins, mask, v):
                return
        yield mask

    return _depth_first(rec(0, 0))


def maximal_acyclic_sets(d: Digraph, deadline: Optional[Deadline] = None) -> list[frozenset[int]]:
    """All inclusion-maximal vertex sets inducing acyclic subdigraphs, in
    lexicographic order of their sorted vertex tuples.

    Depth-first extension in increasing vertex order visits every acyclic
    set exactly once (acyclicity is hereditary); a set is kept when no
    single vertex can be added without closing a cycle. Kept sets are
    leaves of the search and none is a prefix of another, so the search
    meets them in lexicographic order. deadline (else Deadline()) is
    polled at every node and raises BudgetExceededError.
    """
    return [frozenset(iter_bits(m)) for m in _maximal_acyclic_masks(d, deadline)]


def induced_subdigraph(x: Digraph | Graph, s: Iterable[int]) -> Digraph | Graph:
    """Subdigraph, or for a Graph subgraph, on the vertices of s,
    re-indexed in increasing order; induced_subgraph is the same function.

    The original identity of each vertex survives in the labels (the old
    label when x is labelled, the old index otherwise).
    """
    keep = sorted(set(s))
    for v in keep:
        if not 0 <= v < x.n:
            raise ValueError(f"vertex {v} out of range")
    index = {v: i for i, v in enumerate(keep)}
    keep_mask = mask_of(keep)

    def rows(masks: Sequence[int]) -> list[int]:
        out = []
        for v in keep:
            row = 0
            for w in iter_bits(masks[v] & keep_mask):
                row |= 1 << index[w]
            out.append(row)
        return out

    outs = rows(x.outs)
    ins = None if x._symmetric else rows(x.ins)
    return type(x)._from_masks(len(keep), outs, ins, tuple(x.label(v) for v in keep))


induced_subgraph = induced_subdigraph
