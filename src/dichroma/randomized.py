"""Random orientations, acyclic biclique detection, and probability bounds.

Randomness is counter-based: every draw is a pure function of
(seed, domain, object index, counter), so results never depend on
evaluation order, platform, or worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

from .core import (
    Digraph,
    Graph,
    Orientation,
    _subset_acyclic,
    apply_orientation,
    iter_bits,
    mask_of,
)
from .errors import BudgetExceededError, CertificationError, LimitExceededError
from .solvers import _Deadline

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "RngSpec",
    "GBoundParams",
    "ExpectationParams",
    "EventEstimate",
    "mix64",
    "stream_u64",
    "uniform_below",
    "wilson_interval",
    "random_orientation",
    "count_acyclic_orientations",
    "find_acyclic_biclique",
    "find_acyclic_clique",
    "certified_breaking_orientation",
    "estimate_biclique_event",
    "g_bound",
    "g_bound_log",
    "expected_avoiding_count",
    "concentration_bound",
]

_M64 = (1 << 64) - 1

# Domain tags keep unrelated draw streams disjoint.
DOMAIN_ORIENTATION = 0x01
DOMAIN_TRIAL = 0x02
DOMAIN_SUBLIST = 0x03
DOMAIN_PAIR = 0x04

_Z95 = 1.959963984540054


def mix64(x: int) -> int:
    """SplitMix64 finaliser; a fixed 64-bit avalanche permutation."""
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


@dataclass(frozen=True)
class RngSpec:
    """A 64-bit master seed plus the derivation rule for per-object streams.

    Equal specs produce identical draws regardless of the order in which
    objects are sampled.
    """

    seed: int

    def __post_init__(self):
        object.__setattr__(self, "seed", self.seed & _M64)

    def derive(self, *keys: int) -> "RngSpec":
        s = self.seed
        for k in keys:
            s = mix64(s ^ mix64(k & _M64))
        return RngSpec(s)


def stream_u64(spec: RngSpec, domain: int, index: int, counter: int = 0) -> int:
    """The ``counter``-th 64-bit word of stream (seed, domain, index)."""
    s = mix64(spec.seed ^ mix64(domain & _M64))
    s = mix64(s ^ mix64(index & _M64))
    return mix64(s + counter)


def uniform_below(spec: RngSpec, domain: int, index: int, bound: int) -> int:
    """Exactly uniform integer in [0, bound) via rejection on the stream."""
    if bound <= 0:
        raise ValueError("bound must be positive")
    limit = (1 << 64) - ((1 << 64) % bound)
    counter = 0
    while True:
        v = stream_u64(spec, domain, index, counter)
        if v < limit:
            return v % bound
        counter += 1


def wilson_interval(successes: int, trials: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials == 0:
        return (0.0, 1.0)
    p = successes / trials
    denom = 1.0 + z * z / trials
    centre = p + z * z / (2 * trials)
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))
    lo = 0.0 if successes == 0 else max(0.0, (centre - half) / denom)
    hi = 1.0 if successes == trials else min(1.0, (centre + half) / denom)
    return (lo, hi)


@dataclass(frozen=True)
class EventEstimate:
    """Monte Carlo frequency of an event with its 95% Wilson interval."""

    successes: int
    trials: int
    estimate: float
    ci_low: float
    ci_high: float

    @classmethod
    def from_counts(cls, successes: int, trials: int) -> "EventEstimate":
        lo, hi = wilson_interval(successes, trials)
        est = successes / trials if trials else 0.0
        return cls(successes, trials, est, lo, hi)


def random_orientation(g: Graph, rng: RngSpec) -> Digraph:
    """Orient every edge by an independent fair bit from its own stream."""
    direction = tuple(
        bool(stream_u64(rng, DOMAIN_ORIENTATION, j) >> 63) for j in range(g.m)
    )
    return apply_orientation(g, Orientation(g, direction))


def count_acyclic_orientations(g: Graph, limit: int = 25) -> int:
    """Exact number of acyclic orientations of g, by full enumeration."""
    m = g.m
    if m > limit:
        raise LimitExceededError(f"{m} edges exceed the enumeration limit {limit}")
    n = g.n
    edges = g.edges
    full = (1 << n) - 1
    count = 0
    for code in range(1 << m):
        ins = [0] * n
        for j, (u, v) in enumerate(edges):
            if code >> j & 1:
                ins[u] |= 1 << v
            else:
                ins[v] |= 1 << u
        if _subset_acyclic(ins, full):
            count += 1
    return count


def _cross_arcs_acyclic(d: Digraph, s_mask: int, t_mask: int) -> bool:
    """Acyclicity of the bipartite subdigraph spanned by arcs between S and T."""
    verts = list(iter_bits(s_mask | t_mask))
    index = {v: i for i, v in enumerate(verts)}
    ins = [0] * len(verts)
    for v in verts:
        other_side = t_mask if s_mask >> v & 1 else s_mask
        for u in iter_bits(d.ins[v] & other_side):
            ins[index[v]] |= 1 << index[u]
    return _subset_acyclic(ins, (1 << len(verts)) - 1)


def _first_chain(cols: list[Optional[int]], l: int) -> Optional[list[int]]:
    """Positions of the lexicographically first l entries of cols that are
    pairwise comparable under inclusion, skipping None entries, or None.

    Comparability is pairwise, so the search is a clique search in the
    comparability graph, cut as soon as too few positions remain."""
    usable = 0
    comp = [0] * len(cols)
    for i, ci in enumerate(cols):
        if ci is None:
            continue
        for j in iter_bits(usable):
            cj = cols[j]
            both = ci & cj
            if both == ci or both == cj:
                comp[i] |= 1 << j
                comp[j] |= 1 << i
        usable |= 1 << i

    def rec(chosen: list[int], allowed: int) -> Optional[list[int]]:
        need = l - len(chosen)
        if not need:
            return chosen
        while allowed.bit_count() >= need:
            low = allowed & -allowed
            allowed ^= low
            i = low.bit_length() - 1
            hit = rec(chosen + [i], allowed & comp[i])
            if hit is not None:
                return hit
        return None

    return rec([], usable)


def _combination_rank(positions: list[int], c: int) -> int:
    """1-based rank of a sorted position tuple among combinations(range(c),
    len(positions)) in lexicographic order."""
    l = len(positions)
    rank, prev = 1, -1
    for j, p in enumerate(positions):
        for x in range(prev + 1, p):
            rank += math.comb(c - 1 - x, l - 1 - j)
        prev = p
    return rank


def find_acyclic_biclique(
    d: Digraph,
    l: int,
    partition_hint: Optional[tuple[Iterable[int], Iterable[int]]] = None,
    max_pairs: int = 2_000_000,
    deadline: Optional[_Deadline] = None,
) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Search for disjoint S, T of size l, complete bipartite in the
    underlying graph, whose arcs between the sides are acyclic.

    The scan is exhaustive; ``partition_hint`` restricts S to the first and
    T to the second given side. Returns the lexicographically first (S, T)
    or None for a verified miss.

    The arcs between S and T form a bipartite tournament once no vertex of
    T has a digon into S, and a bipartite tournament is acyclic iff it has
    no directed 4-cycle, i.e. iff the sets N-(t) & S over t in T form a
    chain under inclusion (Bang-Jensen and Gutin, Digraphs, 2009). S is
    grown one vertex at a time while at least l common neighbours remain;
    T is grown only while the chain condition holds. ``max_pairs`` bounds
    the (S, T) pairs covered, pruned ones included, and ``deadline`` (a
    solvers._Deadline shared by one command) is polled at every S node;
    either raises BudgetExceededError.
    """
    if l < 1:
        raise ValueError("l must be at least 1")
    g = d.underlying_graph()
    n = g.n
    adj, ins, outs = g.adj, d.ins, d.outs
    if partition_hint is not None:
        side_s = sorted(set(partition_hint[0]))
        side_t_mask = mask_of(partition_hint[1])
        ordered = True
    else:
        side_s = list(range(n))
        side_t_mask = (1 << n) - 1
        ordered = False
    examined = 0

    def scan_t(s_mask: int, common: int) -> Optional[tuple[int, ...]]:
        nonlocal examined
        cands = list(iter_bits(common))
        cols = [None if ins[t] & outs[t] & s_mask else ins[t] & s_mask for t in cands]
        pos = _first_chain(cols, l)
        # the pairs combinations(cands, l) visits up to the hit, or all of them
        c = len(cands)
        examined += math.comb(c, l) if pos is None else _combination_rank(pos, c)
        if examined > max_pairs:
            raise BudgetExceededError("unknown: biclique scan exceeded its pair budget")
        return None if pos is None else tuple(cands[i] for i in pos)

    def scan_s(start: int, s_tuple: tuple[int, ...], s_mask: int, common: int):
        if deadline is not None and deadline.check():
            raise BudgetExceededError("unknown: biclique scan ran out of time")
        if len(s_tuple) == l:
            t_tuple = scan_t(s_mask, common)
            return None if t_tuple is None else (s_tuple, t_tuple)
        for i in range(start, len(side_s) - (l - len(s_tuple)) + 1):
            v = side_s[i]
            c = common & adj[v]
            if not s_tuple and not ordered:
                # Unordered {S, T}: demand min(T) > min(S) to see each pair once.
                c &= ~((2 << v) - 1)
            # adj[v] excludes v, so S never meets its own common neighbours
            if c.bit_count() >= l:
                hit = scan_s(i + 1, s_tuple + (v,), s_mask | 1 << v, c)
                if hit is not None:
                    return hit
        return None

    hit = scan_s(0, (), 0, side_t_mask)
    if hit is not None and not _cross_arcs_acyclic(d, mask_of(hit[0]), mask_of(hit[1])):
        raise RuntimeError(f"chain test and Kahn's algorithm disagree on {hit}")
    return hit


def find_acyclic_clique(
    d: Digraph, l: int, max_cliques: int = 2_000_000, deadline: Optional[_Deadline] = None
):
    """Search for an l-clique of the underlying graph whose induced
    orientation in d is acyclic (i.e. a transitive tournament).
    ``deadline`` is polled at every node, as in find_acyclic_biclique."""
    if l < 1:
        raise ValueError("l must be at least 1")
    g = d.underlying_graph()
    n = g.n
    examined = 0

    def rec(clique: list[int], allowed: int):
        nonlocal examined
        if deadline is not None and deadline.check():
            raise BudgetExceededError("unknown: clique scan ran out of time")
        if len(clique) == l:
            examined += 1
            if examined > max_cliques:
                raise BudgetExceededError("unknown: clique scan exceeded its budget")
            if _subset_acyclic(d.ins, mask_of(clique)):
                return tuple(clique)
            return None
        start = clique[-1] + 1 if clique else 0
        for v in iter_bits(allowed & ~((1 << start) - 1)):
            hit = rec(clique + [v], allowed & g.adj[v])
            if hit is not None:
                return hit
        return None

    return rec([], (1 << n) - 1)


def certified_breaking_orientation(
    g: Graph,
    l: int,
    rng: RngSpec,
    max_attempts: int = 200,
    break_cliques: bool = False,
    timeout: Optional[float] = None,
) -> Digraph:
    """Rejection-sample an orientation in which every complete bipartite
    l+l subgraph (and, optionally, every l-clique) contains a directed
    cycle, verified exhaustively.

    Raises CertificationError when the attempts run out, which signals
    parameters outside the regime where such orientations are plentiful,
    and BudgetExceededError when ``timeout`` seconds, shared by all
    attempts, run out.
    """
    deadline = None if timeout is None else _Deadline(timeout)
    for attempt in range(max_attempts):
        d = random_orientation(g, rng.derive(attempt))
        if find_acyclic_biclique(d, l, deadline=deadline) is not None:
            continue
        if break_cliques and find_acyclic_clique(d, l, deadline=deadline) is not None:
            continue
        return d
    raise CertificationError(
        f"no breaking orientation found in {max_attempts} attempts"
    )


def estimate_biclique_event(
    g: Graph, l: int, trials: int, rng: RngSpec, threads: int = 1,
    timeout: Optional[float] = None,
) -> EventEstimate:
    """Monte Carlo frequency of 'some acyclic l+l biclique survives' under
    uniformly random orientations of g. When ``timeout`` seconds, shared
    by all trials, run out, raises BudgetExceededError instead of
    returning a partial count."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    from .parallel import parallel_map

    # Forked workers share the deadline: its instant is an absolute clock
    # reading, and each worker polls its own copy.
    deadline = None if timeout is None else _Deadline(timeout)

    def one(i: int) -> bool:
        d = random_orientation(g, rng.derive(DOMAIN_TRIAL, i))
        return find_acyclic_biclique(d, l, deadline=deadline) is not None

    hits = parallel_map(one, range(trials), threads)
    return EventEstimate.from_counts(sum(hits), trials)


@dataclass(frozen=True)
class GBoundParams:
    """Parameters of the list-thinning failure bound.

    l1 and l2 are the original and sampled list sizes, n the vertex count,
    s and t the collection bounds, u the palette size.
    """

    l1: int
    l2: int
    n: int
    s: int
    t: int
    u: int

    def __post_init__(self):
        if not self.l1 > self.l2 >= 1:
            raise ValueError("need l1 > l2 >= 1")
        for name in ("n", "s", "t", "u"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")


def g_bound_log(p: GBoundParams) -> float:
    """Natural log of the bound, the safe form for large s^u."""
    exponent = 4.0 * p.l2 * p.t * p.u / ((p.l1 - p.l2) * p.n)
    return p.u * math.log(p.s) - 0.5 * p.n * math.pow(2.0, -exponent)


def g_bound(p: GBoundParams) -> float:
    """Value s^u * exp(-(n/2) * 2^(-4*l2*t*u/((l1-l2)*n))), via log space."""
    try:
        return math.exp(g_bound_log(p))
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class ExpectationParams:
    """Parameters of the expected count of list-avoiding vertices: part
    size m, palette size u, list size k, forbidden-set size a."""

    m: int
    u: int
    k: int
    a: int

    def __post_init__(self):
        if self.m < 0 or self.a < 0:
            raise ValueError("m and a must be nonnegative")
        if not 1 <= self.k <= self.u:
            raise ValueError("need 1 <= k <= u")


def expected_avoiding_count(p: ExpectationParams) -> Fraction:
    """Exact rational m * C(u-a, k) / C(u, k); zero when a + k > u."""
    from fractions import Fraction

    if p.a + p.k > p.u:
        return Fraction(0)
    return Fraction(p.m) * Fraction(math.comb(p.u - p.a, p.k), math.comb(p.u, p.k))


def concentration_bound(n: int, c: float, t: float) -> float:
    """Two-sided tail bound 2*exp(-t^2 / (2*c^2*n)) for a random variable
    moved by at most c per independent trial."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if c <= 0:
        raise ValueError("c must be positive")
    if t < 0:
        raise ValueError("t must be nonnegative")
    return 2.0 * math.exp(-(t * t) / (2.0 * c * c * n))
