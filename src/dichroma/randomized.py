"""Random orientations, acyclic biclique detection, and probability bounds.

Randomness is counter-based: every draw is a pure function of
(seed, domain, object index, counter), so results never depend on
evaluation order, platform, or worker count.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from functools import partial
from typing import TYPE_CHECKING, NamedTuple, Optional

from .core import (
    Deadline,
    Digraph,
    Graph,
    Orientation,
    _Validated,
    _depth_first,
    _extension_cyclic,
    _subset_acyclic,
    apply_orientation,
    enumerate_orientations,
    is_acyclic,
    iter_bits,
    mask_of,
)
from .errors import BudgetExceededError, CertificationError

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "RngSpec",
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


class RngSpec(_Validated, namedtuple("RngSpec", "seed")):
    """A 64-bit master seed plus the derivation rule for per-object streams.

    Equal specs produce identical draws regardless of the order in which
    objects are sampled.
    """

    __slots__ = ()

    def __new__(cls, seed: int):
        return super().__new__(cls, seed & _M64)

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
    """Exactly uniform integer in [0, bound) via rejection on the stream.
    Each try reads ceil(bits/64) consecutive words, one for a bound of at
    most 2**64, as one big-endian integer."""
    if bound <= 0:
        raise ValueError("bound must be positive")
    words = max(1, -(-(bound - 1).bit_length() // 64))
    span = 1 << (64 * words)
    limit = span - span % bound  # at least span / 2, so a try succeeds half the time
    counter = 0
    while True:
        v = 0
        for _ in range(words):
            v = v << 64 | stream_u64(spec, domain, index, counter)
            counter += 1
        if v < limit:
            return v % bound


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials == 0:
        return (0.0, 1.0)
    z = _Z95
    p = successes / trials
    denom = 1.0 + z * z / trials
    centre = p + z * z / (2 * trials)
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))
    lo = 0.0 if successes == 0 else max(0.0, (centre - half) / denom)
    hi = 1.0 if successes == trials else min(1.0, (centre + half) / denom)
    return (lo, hi)


class EventEstimate(NamedTuple):
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
    """Orient every edge by an independent fair bit from its own stream:
    edge j gets the top bit of stream_u64(rng, DOMAIN_ORIENTATION, j),
    whose prefix, the same for every edge, is mixed once."""
    prefix = mix64(rng.seed ^ mix64(DOMAIN_ORIENTATION))
    direction = tuple(mix64(mix64(prefix ^ mix64(j))) >> 63 == 1 for j in range(g.m))
    return apply_orientation(g, Orientation(g, direction))


def count_acyclic_orientations(g: Graph, deadline: Optional[Deadline] = None) -> int:
    """Exact number of acyclic orientations of g, by full enumeration of
    its 2^m orientations. deadline (else Deadline()) is polled at every
    orientation and raises BudgetExceededError."""
    deadline = deadline or Deadline()
    count = 0
    for o in enumerate_orientations(g):
        if deadline.check():
            raise BudgetExceededError("unknown: orientation count ran out of time")
        count += is_acyclic(apply_orientation(g, o))
    return count


def _cross_arcs_acyclic(d: Digraph, s_mask: int, t_mask: int) -> bool:
    """Acyclicity of the bipartite subdigraph spanned by arcs between S and T."""
    ins = [i & (t_mask if s_mask >> v & 1 else s_mask) for v, i in enumerate(d.ins)]
    return _subset_acyclic(ins, s_mask | t_mask)


def _first_clique(adj, allowed: int, l: int, clash=None,
                  deadline: Optional[Deadline] = None) -> Optional[list[int]]:
    """The lexicographically first l vertices of the mask allowed that are
    pairwise adjacent under the neighbour masks adj, or None. With clash,
    a vertex v joins the vertices chosen before it (mask) only when
    clash(mask, v) is false; for a hereditary property this test on each
    prefix finds the first clique that has it.

    A branch stops once fewer allowed vertices remain than it still needs.
    deadline, when given, is polled at every node. The search runs on an
    explicit stack (core._depth_first), so l may pass the recursion limit."""

    def rec(mask: int, allowed: int):
        if deadline is not None and deadline.check():
            raise BudgetExceededError("unknown: clique scan ran out of time")
        need = l - mask.bit_count()
        if not need:
            yield mask
            return
        while allowed.bit_count() >= need:
            low = allowed & -allowed
            allowed ^= low
            v = low.bit_length() - 1
            if clash is None or not clash(mask, v):
                yield rec(mask | low, allowed & adj[v])

    hit = next(_depth_first(rec(0, allowed)), None)
    return None if hit is None else list(iter_bits(hit))


def _first_chain(cols: list[Optional[int]], l: int) -> Optional[list[int]]:
    """Positions of the lexicographically first l entries of cols that are
    pairwise comparable under inclusion, skipping None entries, or None.

    Comparability is pairwise, so this is the first l-clique
    (_first_clique) of the comparability graph."""
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
    return _first_clique(comp, usable, l)


def find_acyclic_biclique(
    d: Digraph,
    l: int,
    deadline: Optional[Deadline] = None,
) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Search for disjoint S, T of size l, complete bipartite in the
    underlying graph, whose arcs between the sides are acyclic.

    The scan is exhaustive. Returns the lexicographically first (S, T) or
    None for a verified miss.

    The arcs between S and T form a bipartite tournament once no vertex of
    T has a digon into S, and a bipartite tournament is acyclic iff it has
    no directed 4-cycle, i.e. iff the sets N-(t) & S over t in T form a
    chain under inclusion (Bang-Jensen and Gutin, Digraphs, 2009). S is
    grown one vertex at a time while at least l common neighbours remain;
    T is grown only while the chain condition holds. ``deadline`` (else
    Deadline()) is polled at every S node and raises BudgetExceededError.
    S is grown on an explicit stack (core._depth_first), so l is not
    bounded by Python's recursion limit.
    """
    if l < 1:
        raise ValueError("l must be at least 1")
    n, ins, outs = d.n, d.ins, d.outs
    adj = [o | i for o, i in zip(outs, ins)]
    deadline = deadline or Deadline()

    def scan_t(s_mask: int, common: int) -> Optional[tuple[int, ...]]:
        cands = list(iter_bits(common))
        cols = [None if ins[t] & outs[t] & s_mask else ins[t] & s_mask for t in cands]
        pos = _first_chain(cols, l)
        return None if pos is None else tuple(cands[i] for i in pos)

    def scan_s(start: int, s_tuple: tuple[int, ...], s_mask: int, common: int):
        if deadline.check():
            raise BudgetExceededError("unknown: biclique scan ran out of time")
        if len(s_tuple) == l:
            t_tuple = scan_t(s_mask, common)
            if t_tuple is not None:
                yield s_tuple, t_tuple
            return
        for v in range(start, n - (l - len(s_tuple)) + 1):
            c = common & adj[v]
            if not s_tuple:
                # Unordered {S, T}: demand min(T) > min(S) to see each pair once.
                c &= ~((2 << v) - 1)
            # adj[v] excludes v, so S never meets its own common neighbours
            if c.bit_count() >= l:
                yield scan_s(v + 1, s_tuple + (v,), s_mask | 1 << v, c)

    hit = next(_depth_first(scan_s(0, (), 0, (1 << n) - 1)), None)
    if hit is not None and not _cross_arcs_acyclic(d, mask_of(hit[0]), mask_of(hit[1])):
        raise RuntimeError(f"chain test and Kahn's algorithm disagree on {hit}")
    return hit


def find_acyclic_clique(d: Digraph, l: int, deadline: Optional[Deadline] = None):
    """The lexicographically first l-clique of the underlying graph whose
    induced orientation in d is acyclic (i.e. a transitive tournament), or
    None. Acyclicity is hereditary, so each vertex joins the clique only
    when it closes no cycle with those before it (_extension_cyclic).
    ``deadline`` (else Deadline()) is polled at every node and raises
    BudgetExceededError, as in find_acyclic_biclique."""
    if l < 1:
        raise ValueError("l must be at least 1")
    outs, ins = d.outs, d.ins
    adj = [o | i for o, i in zip(outs, ins)]
    hit = _first_clique(adj, (1 << d.n) - 1, l, partial(_extension_cyclic, outs, ins),
                        deadline or Deadline())
    return None if hit is None else tuple(hit)


def certified_breaking_orientation(
    g: Graph,
    l: int,
    rng: RngSpec,
    max_attempts: int = 200,
    break_cliques: bool = False,
    deadline: Optional[Deadline] = None,
) -> Digraph:
    """Rejection-sample an orientation in which every complete bipartite
    l+l subgraph (and, optionally, every l-clique) contains a directed
    cycle, verified exhaustively.

    Raises CertificationError when the attempts run out, which signals
    parameters outside the regime where such orientations are plentiful,
    and BudgetExceededError when ``deadline`` (else Deadline()), shared
    by all attempts, runs out.
    """
    deadline = deadline or Deadline()
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
    deadline: Optional[Deadline] = None,
) -> EventEstimate:
    """Monte Carlo frequency of 'some acyclic l+l biclique survives' under
    uniformly random orientations of g. When ``deadline`` (else
    Deadline()), shared by all trials, runs out, raises
    BudgetExceededError instead of returning a partial count."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    from .parallel import parallel_map

    # Forked workers share the deadline: its instant is an absolute clock
    # reading, and each worker polls its own copy.
    deadline = deadline or Deadline()

    def one(i: int) -> bool:
        d = random_orientation(g, rng.derive(DOMAIN_TRIAL, i))
        return find_acyclic_biclique(d, l, deadline=deadline) is not None

    hits = parallel_map(one, range(trials), threads)
    return EventEstimate.from_counts(sum(hits), trials)


def g_bound_log(l1: int, l2: int, n: int, s: int, t: int, u: int) -> float:
    """Natural log of the list-thinning failure bound g, +-inf past the float
    range. l1 and l2 are the original and sampled list sizes, n the vertex
    count, s and t the collection bounds, u the palette size."""
    if not l1 > l2 >= 1:
        raise ValueError("need l1 > l2 >= 1")
    for name, value in (("n", n), ("s", s), ("t", t), ("u", u)):
        if value < 1:
            raise ValueError(f"{name} must be positive")
    try:
        exponent = 4.0 * l2 * t * u / ((l1 - l2) * n)
        if exponent < math.inf:  # else the product 4.0*l2*t*u overflowed
            return u * math.log(s) - 0.5 * n * math.pow(2.0, -exponent)
    except OverflowError:  # an integer past the float range
        pass
    # the terms u*log(s) and (n/2)*2^-exponent from their logarithms, inf past the float range
    log_gain = math.log(u) + math.log(math.log(s)) if s > 1 else -math.inf
    exponent = _exp(math.log(4 * l2 * t * u) - math.log((l1 - l2) * n))
    log_loss = math.log(n) - (1.0 + exponent) * math.log(2.0)
    gain, loss = _exp(log_gain), _exp(log_loss)
    if gain == loss == math.inf:
        # the larger term decides the sign; only a tie leaves it open
        if log_gain == log_loss:
            raise ValueError("cannot decide g: both terms of its logarithm overflow the float range")
        return math.inf if log_gain > log_loss else -math.inf
    return gain - loss


def _exp(x: float) -> float:
    """e^x, inf where that overflows a float."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def g_bound(l1: int, l2: int, n: int, s: int, t: int, u: int) -> float:
    """Value s^u * exp(-(n/2) * 2^(-4*l2*t*u/((l1-l2)*n))), via log space."""
    return _exp(g_bound_log(l1, l2, n, s, t, u))


def expected_avoiding_count(m: int, u: int, k: int, a: int) -> Fraction:
    """Expected count of list-avoiding vertices, the exact rational
    m * C(u-a, k) / C(u, k) for part size m, palette size u, list size k
    and forbidden-set size a; zero when a + k > u."""
    from fractions import Fraction

    if m < 0 or a < 0:
        raise ValueError("m and a must be nonnegative")
    if not 1 <= k <= u:
        raise ValueError("need 1 <= k <= u")
    if a + k > u:
        return Fraction(0)
    # C(u-a,k)/C(u,k) as the shorter of prod_{i<a} (u-k-i)/(u-i) and prod_{i<k} (u-a-i)/(u-i)
    j = min(a, k)
    return Fraction(m) * Fraction(math.perm(u - (a + k - j), j), math.perm(u, j))


def concentration_bound(n: int, c: float, t: float) -> float:
    """Two-sided tail bound 2*exp(-t^2 / (2*c^2*n)) for a random variable
    moved by at most c per independent trial."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not c > 0:  # NaN too
        raise ValueError("c must be positive")
    if not t >= 0:
        raise ValueError("t must be nonnegative")
    if math.isinf(c) or math.isinf(t):
        raise ValueError("c and t must be finite")
    if t == 0:
        return 2.0
    tiny, huge = sys.float_info.min, sys.float_info.max
    square, scale = t * t, 2.0 * c * c * n if n <= huge else math.inf
    if tiny <= square <= huge and tiny <= scale <= huge:
        return 2.0 * math.exp(-square / scale)
    # a product left the normal float range: the exponent t^2/(2c^2 n) from its logarithm
    return 2.0 * math.exp(-_exp(2.0 * (math.log(t) - math.log(c)) - math.log(2 * n)))
