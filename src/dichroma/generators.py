"""Constructors for the graph families the toolkit studies.

Kneser vertices are indexed colexicographically so indices are stable
across runs; coordinates and subsets are preserved in labels. Sphere
points and simplex vertices are tuples of floats, computed in pure Python.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left, bisect_right
from collections import namedtuple
from functools import reduce
from itertools import combinations, repeat
from operator import add, mul
from typing import Sequence

from .core import DEFAULT_VERTEX_LIMIT, Coloring, Deadline, Graph, _Validated, _vertex_count
from .errors import BudgetExceededError, DichromaError, LimitExceededError
from .products import tensor_product
from .randomized import mix64

__all__ = [
    "EmbeddingWitness",
    "kneser",
    "complete_multipartite",
    "rook",
    "complete_graph",
    "cycle_graph",
    "path_graph",
    "complete_bipartite",
    "named_graph",
    "borsuk_points",
    "borsuk_sample",
    "regular_simplex",
    "simplex_coloring",
    "embed_rook_in_kneser",
    "embed_kneser_tensor",
]

DEFAULT_EDGE_LIMIT = 2_000_000


def _edge_count(m: int) -> None:
    """LimitExceededError when an edge count m, computed from a family's
    parameters before any edge is built, passes DEFAULT_EDGE_LIMIT."""
    if m > DEFAULT_EDGE_LIMIT:
        raise LimitExceededError(f"{m} edges exceed limit {DEFAULT_EDGE_LIMIT}")


def _colex_subsets(n: int, k: int) -> list[tuple[int, ...]]:
    """All k-subsets of {1..n} in colexicographic order."""
    subs = list(combinations(range(1, n + 1), k))
    subs.sort(key=lambda s: tuple(reversed(s)))
    return subs


def _set_label(s: Sequence[int]) -> str:
    return "{" + ",".join(str(x) for x in s) + "}"


def kneser(n: int, k: int) -> Graph:
    """Kneser graph: k-subsets of {1..n}, adjacent iff disjoint."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    count = _vertex_count(math.comb(n, k), f"C({n},{k})")
    # each k-subset is disjoint from C(n-k, k) others
    _edge_count(count * math.comb(n - k, k) // 2)
    subs = _colex_subsets(n, k)
    masks = [sum(1 << (x - 1) for x in s) for s in subs]
    edges = [
        (i, j)
        for i in range(count)
        for j in range(i + 1, count)
        if masks[i] & masks[j] == 0
    ]
    return Graph(count, edges, labels=[_set_label(s) for s in subs])


def complete_multipartite(m: int, r: int) -> Graph:
    """Complete r-partite graph with m vertices per part; labels carry the
    part index."""
    if m < 1 or r < 1:
        raise ValueError("need m >= 1 and r >= 1")
    n = _vertex_count(m * r)
    _edge_count(math.comb(n, 2) - r * math.comb(m, 2))
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if u // m != v // m
    ]
    labels = [f"p{v // m}:{v % m}" for v in range(n)]
    return Graph(n, edges, labels=labels)


def rook(n: int) -> Graph:
    """Vertices {1..n} x {1..n} in row-major order; (i,j) ~ (i',j') iff the
    rows and the columns both differ: the tensor product of two complete
    graphs K_n, labels included."""
    if n < 1:
        raise ValueError("need n >= 1")
    _vertex_count(n * n)
    # n^2 vertices, each adjacent to the (n-1)^2 cells off its row and column
    _edge_count(n * n * (n - 1) ** 2 // 2)
    return tensor_product(complete_graph(n), complete_graph(n))


def complete_graph(n: int) -> Graph:
    _vertex_count(n)
    _edge_count(n * (n - 1) // 2)
    return Graph(
        n,
        [(u, v) for u in range(n) for v in range(u + 1, n)],
        labels=[str(v + 1) for v in range(n)],
    )


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph(_vertex_count(n), [(v, (v + 1) % n) for v in range(n)])


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("a path needs at least 1 vertex")
    return Graph(_vertex_count(n), [(v, v + 1) for v in range(n - 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise ValueError("both sides must be nonempty")
    n = _vertex_count(a + b)
    _edge_count(a * b)
    return Graph(n, [(u, a + v) for u in range(a) for v in range(b)])


_NAMED_RE = re.compile(r"^([KCP])(\d+)(?:,(\d+))?$")


def named_graph(name: str) -> Graph:
    """Small named families: Kn, Cn, Pn, Ka,b, and 'petersen'."""
    if name.lower() == "petersen":
        return kneser(5, 2)
    m = _NAMED_RE.match(name)
    if not m:
        raise ValueError(f"unknown graph name {name!r}")
    kind, first, second = m.group(1), int(m.group(2)), m.group(3)
    if kind == "K" and second is not None:
        return complete_bipartite(first, int(second))
    if second is not None:
        raise ValueError(f"unknown graph name {name!r}")
    if kind == "K":
        return complete_graph(first)
    if kind == "C":
        return cycle_graph(first)
    return path_graph(first)


def _dot(u: Sequence[float], v: Sequence[float]) -> float:
    """The products summed in coordinate order; sum() would compensate on
    Python 3.12+ and move the last bits of every point."""
    return reduce(add, map(mul, u, v), 0.0)


def _unit(v: Sequence[float]) -> tuple[float, ...] | None:
    """v over its length, or None for the zero vector."""
    norm = math.sqrt(_dot(v, v))
    return tuple(x / norm for x in v) if norm else None


def _unit_hash_direction(key: tuple[int, ...], dim: int) -> tuple[float, ...]:
    """Deterministic pseudo-random unit vector keyed by lattice coordinates."""
    h = 0x5D1C_E5E5
    for c in key:
        h = mix64(h ^ mix64(c & ((1 << 64) - 1)))
    coords = []
    for axis in range(dim):
        h = mix64(h + axis + 1)
        coords.append((h >> 11) / float(1 << 53) * 2.0 - 1.0)
    return _unit(coords) or (1.0,) + (0.0,) * (dim - 1)


def borsuk_points(n: int, a: float, cube_side: float, delta: float = 0.0,
                  deadline: Deadline | None = None,
                  ) -> tuple[list[tuple[int, ...]], list[tuple[float, ...]]]:
    """Lattice keys and sphere points sampling the unit n-sphere in R^(n+1)
    for the graph joining points at distance >= a.

    Takes the lattice cubes of side cube_side inside the ball of radius
    1+2*delta, nudges each centre by a key-derived offset so projections
    collide only with probability zero, and projects it onto the sphere.
    delta = 0 stands for (2-a)/2, the largest cap radius for which the
    triangle inequality joins opposite caps completely. Keys come in
    product order; a prefix whose far corner already leaves the ball is
    dropped. deadline (else Deadline()) is polled at every prefix.
    """
    if n < 1:
        raise ValueError("sphere dimension must be at least 1")
    if not 0.0 < a < 2.0:
        raise ValueError("need 0 < a < 2")
    delta = delta or (2.0 - a) / 2.0
    if not 0.0 < delta <= (2.0 - a) / 2.0:
        raise ValueError("need 0 < delta <= (2-a)/2")
    if cube_side <= 0.0:
        raise ValueError("cube_side must be positive")
    deadline = deadline or Deadline()
    dim = n + 1
    c = cube_side
    radius = 1.0 + 2.0 * delta
    span = int(math.floor(radius / c)) + 1
    # the per-axis table far below has 2*span+1 entries and is built before
    # the first deadline poll: without a bound a tiny cube_side runs out of
    # memory, not time. A table this long would also break the vertex
    # limit, since the cubes along one axis through the centre number
    # about 2*span.
    if 2 * span + 1 > 4 * DEFAULT_VERTEX_LIMIT:
        raise LimitExceededError("lattice scan too large; increase cube_side")
    eps = c * 1e-3
    r2 = radius * radius
    far = [(k, max((c * k) * (c * k), (c * k + c) * (c * k + c)))
           for k in range(-span, span + 1)]

    def keys_from(prefix: tuple[int, ...], total: float):
        if len(prefix) == dim:
            yield prefix
            return
        for k, term in far:
            if deadline.check():
                raise BudgetExceededError("timeout during the Borsuk lattice scan")
            if total + term <= r2:
                yield from keys_from(prefix + (k,), total + term)

    keys, points = [], []
    for key in keys_from((), 0.0):
        point = _unit([c * k + c / 2.0 + eps * x
                       for k, x in zip(key, _unit_hash_direction(key, dim))])
        if point is None:
            continue
        keys.append(key)
        points.append(point)
        if len(points) > DEFAULT_VERTEX_LIMIT:
            raise LimitExceededError(
                f"sample exceeds {DEFAULT_VERTEX_LIMIT} points; increase cube_side")
    return keys, points


def borsuk_sample(n: int, a: float, cube_side: float, delta: float = 0.0,
                  deadline: Deadline | None = None) -> Graph:
    """The graph on the sample of borsuk_points(n, a, cube_side, delta),
    joining p and q when (q_k - p_k)^2 summed over k in order is >= a*a.
    On the sphere that needs |p_0 + q_0| <= sqrt(4 - a*a), so each point
    meets only the later points, by first coordinate, in that window
    around -p_0. deadline (else Deadline()) is read once per point."""
    deadline = deadline or Deadline()
    keys, points = borsuk_points(n, a, cube_side, delta, deadline)
    seen: dict[tuple[float, ...], int] = {}
    for idx, p in enumerate(points):
        if seen.setdefault(p, idx) != idx:
            raise DichromaError(f"perturbation failed to separate lattice cubes "
                                f"{keys[seen[p]]} and {keys[idx]}")
    a2 = a * a
    reach = math.sqrt(4.0 - a2 + 1e-9)  # the slack absorbs rounding
    order = sorted(range(len(points)), key=lambda i: points[i][0])
    columns = [[points[i][k] for i in order] for k in range(n + 1)]
    edges = []
    for pos, i in enumerate(order):
        if deadline.expired():
            raise BudgetExceededError("timeout during the Borsuk pair scan")
        p = points[i]
        lo = max(pos + 1, bisect_left(columns[0], -p[0] - reach))
        hi = bisect_right(columns[0], -p[0] + reach)
        dist2 = repeat(0.0)
        for column, x in zip(columns, p):
            diffs = [y - x for y in column[lo:hi]]
            dist2 = list(map(add, dist2, map(mul, diffs, diffs)))
        edges += [(i, j) for j, d2 in zip(order[lo:hi], dist2) if d2 >= a2]
    labels = ["Q(" + ",".join(str(k) for k in key) + ")" for key in keys]
    return Graph(len(keys), edges, labels=labels)


def regular_simplex(dim: int) -> tuple[tuple[float, ...], ...]:
    """dim+1 unit vectors in R^dim with pairwise inner product -1/dim."""
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    v = [[0.0] * dim for _ in range(dim + 1)]
    for i in range(dim):
        v[i][i] = math.sqrt(max(0.0, 1.0 - _dot(v[i][:i], v[i][:i])))
        for k in range(i + 1, dim + 1):
            v[k][i] = (-1.0 / dim - _dot(v[i][:i], v[k][:i])) / v[i][i]
    return tuple(map(tuple, v))


def simplex_coloring(points: Sequence[Sequence[float]]) -> Coloring:
    """Colour unit vectors in R^(n+1) by the nearest-facet rule of a fixed
    inscribed regular simplex: colour = argmin_i <x, s_i>, ties to the
    lowest index. Uses n+2 colours."""
    try:
        pts = [tuple(map(float, p)) for p in points]
    except TypeError:
        pts = []
    if not pts or len({len(p) for p in pts}) > 1:
        raise ValueError("need a nonempty 2d array of points")
    dim = len(pts[0])
    if dim < 2:
        raise ValueError("points must live in R^(n+1) with n >= 1")
    if any(abs(math.sqrt(_dot(p, p)) - 1.0) > 1e-9 for p in pts):
        raise ValueError("points must be unit vectors")
    simplex = regular_simplex(dim)
    dots = [[_dot(p, s) for s in simplex] for p in pts]
    return Coloring(tuple(range(dim + 1)), tuple(row.index(min(row)) for row in dots))


class EmbeddingWitness(_Validated, namedtuple("EmbeddingWitness", "source target mapping")):
    """An injective vertex map realising the source as an induced subgraph
    of the target; verified exhaustively at construction."""

    __slots__ = ()

    def __new__(cls, source: Graph, target: Graph, mapping: tuple[int, ...]):
        if len(mapping) != source.n:
            raise ValueError("mapping must cover the source vertex set")
        if len(set(mapping)) != len(mapping):
            raise ValueError("mapping must be injective")
        for w in mapping:
            if not 0 <= w < target.n:
                raise ValueError(f"image vertex {w} out of range")
        for u in range(source.n):
            for v in range(u + 1, source.n):
                if source.has_edge(u, v) != target.has_edge(mapping[u], mapping[v]):
                    raise ValueError(f"map does not preserve adjacency on ({u},{v})")
        return super().__new__(cls, source, target, mapping)


def _kneser_vertices(n: int, k: int, subsets) -> tuple[Graph, tuple[int, ...]]:
    """kneser(n, k), and the vertex of it that is each k-subset of
    subsets, found in one index of its colex-ordered vertices."""
    target = kneser(n, k)
    index = {frozenset(s): i for i, s in enumerate(_colex_subsets(n, k))}
    return target, tuple(index[frozenset(s)] for s in subsets)


def embed_rook_in_kneser(n: int, k: int) -> EmbeddingWitness:
    """Embed the q x q rook graph, q = floor(n/k), into the Kneser graph of
    k-subsets of {1..n}: cell (i,j) becomes {i} joined with the j-th of q
    fixed disjoint (k-1)-blocks drawn from the remaining ground set."""
    if k < 2 or k > n:
        raise ValueError("need 2 <= k <= n")
    q = n // k
    if q + q * (k - 1) > n:
        raise DichromaError("ground set too small for the block allocation")
    blocks = [
        tuple(range(q + j * (k - 1) + 1, q + (j + 1) * (k - 1) + 1))
        for j in range(q)
    ]
    target, mapping = _kneser_vertices(n, k, [(i + 1,) + b for i in range(q) for b in blocks])
    return EmbeddingWitness(rook(q), target, mapping)


def embed_kneser_tensor(n: int, k: int, n1: int, k1: int) -> EmbeddingWitness:
    """Embed the tensor product of two smaller Kneser graphs into the big
    one by uniting a k1-subset of {1..n1} with a k2-subset of the shifted
    remainder, where k2 = k - k1 and n2 = n - n1."""
    n2 = n - n1
    k2 = k - k1
    if k1 < 1 or k2 < 1:
        raise ValueError("both block list sizes must be at least 1")
    if 2 * k1 > n1 or 2 * k2 > n2:
        raise ValueError("each block needs room for two disjoint subsets")
    source = tensor_product(kneser(n1, k1), kneser(n2, k2))
    second = [tuple(x + n1 for x in b) for b in _colex_subsets(n2, k2)]
    united = [a + b for a in _colex_subsets(n1, k1) for b in second]
    target, mapping = _kneser_vertices(n, k, united)
    return EmbeddingWitness(source, target, mapping)
