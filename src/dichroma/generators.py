"""Constructors for the graph families the toolkit studies.

Kneser vertices are indexed colexicographically so indices are stable
across runs; coordinates and subsets are preserved in labels. numpy is
imported inside the sphere-sample and simplex functions, the only ones
that use it, so importing this module does not load it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import combinations, product
from typing import TYPE_CHECKING, Sequence

from .core import Coloring, Graph, induced_subgraph
from .errors import DichromaError, LimitExceededError
from .randomized import mix64

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "BorsukSampleConfig",
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

DEFAULT_VERTEX_LIMIT = 5000


def _colex_subsets(n: int, k: int) -> list[tuple[int, ...]]:
    """All k-subsets of {1..n} in colexicographic order."""
    subs = list(combinations(range(1, n + 1), k))
    subs.sort(key=lambda s: tuple(reversed(s)))
    return subs


def _set_label(s: Sequence[int]) -> str:
    return "{" + ",".join(str(x) for x in s) + "}"


def kneser(n: int, k: int, max_vertices: int = DEFAULT_VERTEX_LIMIT) -> Graph:
    """Kneser graph: k-subsets of {1..n}, adjacent iff disjoint."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    count = math.comb(n, k)
    if count > max_vertices:
        raise LimitExceededError(f"C({n},{k}) = {count} exceeds limit {max_vertices}")
    subs = _colex_subsets(n, k)
    masks = [sum(1 << (x - 1) for x in s) for s in subs]
    edges = [
        (i, j)
        for i in range(count)
        for j in range(i + 1, count)
        if masks[i] & masks[j] == 0
    ]
    return Graph(count, edges, labels=[_set_label(s) for s in subs])


def complete_multipartite(m: int, r: int, max_vertices: int = DEFAULT_VERTEX_LIMIT) -> Graph:
    """Complete r-partite graph with m vertices per part; labels carry the
    part index."""
    if m < 1 or r < 1:
        raise ValueError("need m >= 1 and r >= 1")
    n = m * r
    if n > max_vertices:
        raise LimitExceededError(f"{n} vertices exceed limit {max_vertices}")
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if u // m != v // m
    ]
    labels = [f"p{v // m}:{v % m}" for v in range(n)]
    return Graph(n, edges, labels=labels)


def rook(n: int, max_vertices: int = DEFAULT_VERTEX_LIMIT) -> Graph:
    """Vertices {1..n} x {1..n} in row-major order; (i,j) ~ (i',j') iff the
    rows and the columns both differ. Labels match tensor-product labels of
    two complete graphs, so the constructions coincide verbatim."""
    if n < 1:
        raise ValueError("need n >= 1")
    count = n * n
    if count > max_vertices:
        raise LimitExceededError(f"{count} vertices exceed limit {max_vertices}")
    edges = []
    for a in range(count):
        ia, ja = divmod(a, n)
        for b in range(a + 1, count):
            ib, jb = divmod(b, n)
            if ia != ib and ja != jb:
                edges.append((a, b))
    labels = [f"({v // n + 1},{v % n + 1})" for v in range(count)]
    return Graph(count, edges, labels=labels)


def complete_graph(n: int) -> Graph:
    return Graph(
        n,
        [(u, v) for u in range(n) for v in range(u + 1, n)],
        labels=[str(v + 1) for v in range(n)],
    )


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph(n, [(v, (v + 1) % n) for v in range(n)])


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("a path needs at least 1 vertex")
    return Graph(n, [(v, v + 1) for v in range(n - 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise ValueError("both sides must be nonempty")
    return Graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])


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


@dataclass(frozen=True)
class BorsukSampleConfig:
    """Finite sample of the distance-threshold graph on the unit n-sphere.

    The sphere lives in R^(n+1); points at Euclidean distance >= a are
    adjacent. delta defaults to (2-a)/2, the largest cap radius for which
    the triangle inequality makes opposite caps completely joined.
    cube_side is the lattice pitch; centres get a deterministic
    index-keyed nudge before radial projection so projections collide
    only with probability zero.
    """

    n: int
    a: float
    cube_side: float
    delta: float = 0.0
    perturbation_scale: float = 1.0
    max_points: int = DEFAULT_VERTEX_LIMIT

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("sphere dimension must be at least 1")
        if not 0.0 < self.a < 2.0:
            raise ValueError("need 0 < a < 2")
        if self.delta == 0.0:
            object.__setattr__(self, "delta", (2.0 - self.a) / 2.0)
        if not 0.0 < self.delta <= (2.0 - self.a) / 2.0:
            raise ValueError("need 0 < delta <= (2-a)/2")
        if self.cube_side <= 0.0:
            raise ValueError("cube_side must be positive")


def _unit_hash_direction(key: tuple[int, ...], dim: int) -> np.ndarray:
    """Deterministic pseudo-random unit vector keyed by lattice coordinates."""
    import numpy as np

    h = 0x5D1C_E5E5
    for c in key:
        h = mix64(h ^ mix64(c & ((1 << 64) - 1)))
    coords = []
    for axis in range(dim):
        h = mix64(h + axis + 1)
        coords.append((h >> 11) / float(1 << 53) * 2.0 - 1.0)
    vec = np.array(coords)
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        vec = np.zeros(dim)
        vec[0] = 1.0
        return vec
    return vec / norm


def borsuk_points(cfg: BorsukSampleConfig) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Lattice keys and projected sphere points of the sample.

    Enumerates the axis-aligned lattice cubes of side cube_side contained
    in the closed ball of radius 1+2*delta, perturbs each centre and
    projects it radially onto the sphere.
    """
    import numpy as np

    dim = cfg.n + 1
    c = cfg.cube_side
    radius = 1.0 + 2.0 * cfg.delta
    span = int(math.floor(radius / c)) + 1
    if (2 * span + 1) ** dim > 50_000_000:
        raise LimitExceededError("lattice scan too large; increase cube_side")
    eps = cfg.perturbation_scale * c * 1e-3
    keys: list[tuple[int, ...]] = []
    points: list[np.ndarray] = []
    grid = range(-span, span + 1)
    r2 = radius * radius

    def corners_within(key: tuple[int, ...]) -> bool:
        total = 0.0
        for k in key:
            lo = c * k
            hi = c * k + c
            total += max(lo * lo, hi * hi)
        return total <= r2

    for key in product(grid, repeat=dim):
        if not corners_within(key):
            continue
        centre = np.array([c * k + c / 2.0 for k in key])
        x = centre + eps * _unit_hash_direction(key, dim)
        norm = float(np.linalg.norm(x))
        if norm == 0.0:
            continue
        keys.append(key)
        points.append(x / norm)
        if len(points) > cfg.max_points:
            raise LimitExceededError(
                f"sample exceeds {cfg.max_points} points; increase cube_side"
            )
    return keys, np.array(points) if points else np.zeros((0, dim))


def borsuk_sample(cfg: BorsukSampleConfig) -> Graph:
    """Finite induced sample of the sphere graph described by cfg."""
    import numpy as np

    keys, points = borsuk_points(cfg)
    seen: dict[tuple[float, ...], int] = {}
    for idx, p in enumerate(points):
        t = tuple(float(x) for x in p)
        if t in seen:
            raise DichromaError(
                f"perturbation failed to separate lattice cubes "
                f"{keys[seen[t]]} and {keys[idx]}"
            )
        seen[t] = idx
    count = len(keys)
    edges = []
    a2 = cfg.a * cfg.a
    for i in range(count):
        diffs = points[i + 1 :] - points[i]
        dist2 = np.einsum("ij,ij->i", diffs, diffs)
        for off in np.nonzero(dist2 >= a2)[0]:
            edges.append((i, i + 1 + int(off)))
    labels = ["Q(" + ",".join(str(k) for k in key) + ")" for key in keys]
    return Graph(count, edges, labels=labels)


def regular_simplex(dim: int) -> np.ndarray:
    """dim+1 unit vectors in R^dim with pairwise inner product -1/dim."""
    import numpy as np

    if dim < 1:
        raise ValueError("dimension must be at least 1")
    v = np.zeros((dim + 1, dim))
    for i in range(dim):
        v[i, i] = math.sqrt(max(0.0, 1.0 - float(np.dot(v[i, :i], v[i, :i]))))
        for k in range(i + 1, dim + 1):
            v[k, i] = (-1.0 / dim - float(np.dot(v[i, :i], v[k, :i]))) / v[i, i]
    return v


def simplex_coloring(points: Sequence[Sequence[float]]) -> Coloring:
    """Colour unit vectors in R^(n+1) by the nearest-facet rule of a fixed
    inscribed regular simplex: colour = argmin_i <x, s_i>, ties to the
    lowest index. Uses n+2 colours."""
    import numpy as np

    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("need a nonempty 2d array of points")
    dim = pts.shape[1]
    if dim < 2:
        raise ValueError("points must live in R^(n+1) with n >= 1")
    norms = np.linalg.norm(pts, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-9):
        raise ValueError("points must be unit vectors")
    simplex = regular_simplex(dim)
    dots = pts @ simplex.T
    assignment = tuple(int(np.argmin(row)) for row in dots)
    return Coloring(tuple(range(dim + 1)), assignment)


@dataclass(frozen=True)
class EmbeddingWitness:
    """An injective vertex map realising the source as an induced subgraph
    of the target; verified exhaustively at construction."""

    source: Graph
    target: Graph
    mapping: tuple[int, ...]

    def __post_init__(self):
        if len(self.mapping) != self.source.n:
            raise ValueError("mapping must cover the source vertex set")
        if len(set(self.mapping)) != len(self.mapping):
            raise ValueError("mapping must be injective")
        for w in self.mapping:
            if not 0 <= w < self.target.n:
                raise ValueError(f"image vertex {w} out of range")
        for u in range(self.source.n):
            for v in range(u + 1, self.source.n):
                if self.source.has_edge(u, v) != self.target.has_edge(
                    self.mapping[u], self.mapping[v]
                ):
                    raise ValueError(
                        f"map does not preserve adjacency on ({u},{v})"
                    )

    def induced_image(self) -> Graph:
        return induced_subgraph(self.target, self.mapping)


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
    target = kneser(n, k)
    subset_index = {
        frozenset(s): idx for idx, s in enumerate(_colex_subsets(n, k))
    }
    mapping = []
    for cell in range(q * q):
        i, j = divmod(cell, q)
        mapping.append(subset_index[frozenset((i + 1,) + blocks[j])])
    return EmbeddingWitness(rook(q), target, tuple(mapping))


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
    from .products import tensor_product

    source = tensor_product(kneser(n1, k1), kneser(n2, k2))
    target = kneser(n, k)
    subset_index = {
        frozenset(s): idx for idx, s in enumerate(_colex_subsets(n, k))
    }
    first = _colex_subsets(n1, k1)
    second = _colex_subsets(n2, k2)
    mapping = []
    for a_idx in range(len(first)):
        for b_idx in range(len(second)):
            united = frozenset(first[a_idx]) | frozenset(
                x + n1 for x in second[b_idx]
            )
            mapping.append(subset_index[united])
    return EmbeddingWitness(source, target, tuple(mapping))
