"""Set collections, cover and semicover predicates, and the acceptance
machinery that pairs sampled sublists against covered acyclic partitions.

A collection declares the bounds (s, t) it promises: at most s members,
each of at most t vertices. Members are kept as an indexed list, so the
same vertex set may legitimately appear more than once (the rook
collection below is declared through a product construction and its
advertised size counts the product).
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import combinations
from typing import Iterable, NamedTuple, Optional

from .core import (
    Deadline,
    Digraph,
    ListAssignment,
    Partition,
    _extension_cyclic,
    iter_bits,
    mask_of,
    maximal_acyclic_sets,
)
from .errors import BudgetExceededError, LimitExceededError
from .randomized import (
    DOMAIN_SUBLIST,
    EventEstimate,
    GBoundParams,
    RngSpec,
    g_bound,
    uniform_below,
)

__all__ = [
    "SetCollection",
    "SemicoverSpec",
    "RookCollectionParams",
    "CheckReport",
    "AcceptanceEstimate",
    "build_rook_collection",
    "is_covered",
    "accepts",
    "verify_cover_all_acyclic",
    "is_semicovered",
    "verify_semicover_all_acyclic",
    "sample_sublists",
    "exists_accepted_covered_partition",
    "estimate_acceptance_probability",
]

_MEMBER_LIMIT = 2_000_000


class SetCollection(namedtuple("SetCollection", "members s t")):
    """An (s,t)-collection: at most s vertex subsets, each of size <= t."""

    __slots__ = ()

    def __new__(cls, members: tuple[frozenset[int], ...], s: int, t: int):
        if len(members) > s:
            raise ValueError(f"{len(members)} members exceed the bound s={s}")
        for i, member in enumerate(members):
            if len(member) > t:
                raise ValueError(f"member {i} has {len(member)} vertices, above t={t}")
        return super().__new__(cls, members, s, t)

    def member_masks(self) -> list[int]:
        return [mask_of(m) for m in self.members]


class SemicoverSpec(namedtuple("SemicoverSpec", "collection lam")):
    """A collection together with the size threshold below which one side
    of a two-sided part may be excused."""

    __slots__ = ()

    def __new__(cls, collection: SetCollection, lam: float):
        if lam <= 0:
            raise ValueError("the threshold must be positive")
        return super().__new__(cls, collection, lam)


class RookCollectionParams(namedtuple("RookCollectionParams", "n beta")):
    """Parameters of the line-and-block collection over an n x n rook
    graph; beta defaults to floor(124 * ln n)."""

    __slots__ = ()

    def __new__(cls, n: int, beta: Optional[int] = None):
        if n < 1:
            raise ValueError("n must be at least 1")
        if beta is None:
            beta = int(math.floor(124 * math.log(n)))
        if beta < 0:
            raise ValueError("beta must be nonnegative")
        return super().__new__(cls, n, beta)


def build_rook_collection(p: RookCollectionParams) -> SetCollection:
    """Every row and column of the n x n grid united with every beta x beta
    block A x B; when beta leaves [1, n] the blocks degenerate to the whole
    vertex set and the collection collapses to {V}.

    Declared bounds: s = max(1, 2n * C(n,beta)^2), t = n + beta^2 (lifted
    to n^2 in the degenerate branch, where the single member is V itself).
    """
    n, beta = p.n, p.beta

    def cell(i: int, j: int) -> int:
        return i * n + j

    everything = frozenset(range(n * n))
    s_declared = max(1, 2 * n * math.comb(n, beta) ** 2)
    if not 1 <= beta <= n:
        t_declared = max(n + beta * beta, n * n)
        return SetCollection((everything,), s_declared, t_declared)
    expected = 2 * n * math.comb(n, beta) ** 2
    if expected > _MEMBER_LIMIT:
        raise LimitExceededError(
            f"collection would have {expected} members, above {_MEMBER_LIMIT}"
        )
    lines: list[frozenset[int]] = []
    for i in range(n):
        lines.append(frozenset(cell(i, j) for j in range(n)))
    for j in range(n):
        lines.append(frozenset(cell(i, j) for i in range(n)))
    blocks: list[frozenset[int]] = []
    for rows in combinations(range(n), beta):
        for cols in combinations(range(n), beta):
            blocks.append(frozenset(cell(i, j) for i in rows for j in cols))
    members = tuple(line | block for line in lines for block in blocks)
    return SetCollection(members, s_declared, n + beta * beta)


def is_covered(P: Partition, C: SetCollection) -> bool:
    """True iff every nonempty part sits inside some member."""
    masks = C.member_masks()
    for part in P.parts:
        if not part:
            continue
        pm = mask_of(part)
        if not any(pm & ~m == 0 for m in masks):
            return False
    return True


def accepts(L: ListAssignment, P: Partition) -> bool:
    """True iff each vertex's part colour appears on that vertex's list."""
    if L.palette != P.palette:
        raise ValueError("list assignment and partition use different palettes")
    if L.n != P.n:
        raise ValueError("list assignment and partition cover different vertex sets")
    for colour, part in zip(P.palette, P.parts):
        for v in part:
            if colour not in L.lists[v]:
                return False
    return True


class CheckReport(NamedTuple):
    """Outcome of a cover/semicover verification with a counterexample."""

    ok: bool
    counterexample: Optional[frozenset[int]] = None


def verify_cover_all_acyclic(
    d: Digraph, C: SetCollection, deadline: Optional[Deadline] = None
) -> CheckReport:
    """Decide whether every acyclic partition of d is covered by C.

    Containment is monotone, so it is enough that every inclusion-maximal
    acyclic set lies inside a member; completing a set to a partition uses
    singleton parts and therefore presumes a palette of at least n colours.
    deadline bounds the search for those sets, as in maximal_acyclic_sets.
    """
    masks = C.member_masks()
    for aset in maximal_acyclic_sets(d, deadline):
        am = mask_of(aset)
        if not any(am & ~m == 0 for m in masks):
            return CheckReport(False, aset)
    return CheckReport(True, None)


def _split_sides(part: Iterable[int], n_half: int) -> tuple[frozenset[int], frozenset[int]]:
    s1 = frozenset(v for v in part if v < n_half)
    s2 = frozenset(v - n_half for v in part if v >= n_half)
    return s1, s2


def _side_ok(side: frozenset[int], masks: list[int]) -> bool:
    sm = mask_of(side)
    return any(sm & ~m == 0 for m in masks)


def _part_semicovered(
    part: Iterable[int], n_half: int, masks: list[int], lam: float
) -> bool:
    s1, s2 = _split_sides(part, n_half)
    in1, in2 = _side_ok(s1, masks), _side_ok(s2, masks)
    if in1 and in2:
        return True
    if in1 and len(s1) < lam:
        return True
    if in2 and len(s2) < lam:
        return True
    return False


def is_semicovered(P: Partition, spec: SemicoverSpec) -> bool:
    """Semicover test for a partition of a doubled vertex set {1,2} x V(H):
    each nonempty part must have both sides inside members, or one side
    inside a member and smaller than the threshold."""
    if P.n % 2:
        raise ValueError("vertex set must split into two equal sides")
    n_half = P.n // 2
    masks = spec.collection.member_masks()
    return all(
        _part_semicovered(part, n_half, masks, spec.lam)
        for part in P.parts
        if part
    )


def verify_semicover_all_acyclic(
    d: Digraph, spec: SemicoverSpec, deadline: Optional[Deadline] = None
) -> CheckReport:
    """Decide whether every acyclic partition of d (on {1,2} x V(H)) is
    semicovered. The semicover condition is inherited by subsets, so
    checking the maximal acyclic sets suffices, as for plain covers;
    deadline as in verify_cover_all_acyclic."""
    if d.n % 2:
        raise ValueError("vertex set must split into two equal sides")
    n_half = d.n // 2
    masks = spec.collection.member_masks()
    for aset in maximal_acyclic_sets(d, deadline):
        if not _part_semicovered(aset, n_half, masks, spec.lam):
            return CheckReport(False, aset)
    return CheckReport(True, None)


def _unrank_combination(items: list[int], k: int, rank: int) -> frozenset[int]:
    """The rank-th k-subset of items in lexicographic order."""
    out = []
    start = 0
    n = len(items)
    for slot in range(k):
        for pos in range(start, n):
            rest = math.comb(n - pos - 1, k - slot - 1)
            if rank < rest:
                out.append(items[pos])
                start = pos + 1
                break
            rank -= rest
    return frozenset(out)


def sample_sublists(L1: ListAssignment, l2: int, rng: RngSpec) -> ListAssignment:
    """Replace each list by a uniformly random l2-subset of itself, drawn
    from a per-vertex stream so the result is order-independent."""
    if not 0 <= l2 <= L1.k:
        raise ValueError("sublist size must lie between 0 and the list size")
    if l2 == L1.k:
        return ListAssignment(L1.palette, L1.lists, L1.k)
    total = math.comb(L1.k, l2)
    lists = []
    for v in range(L1.n):
        rank = uniform_below(rng, DOMAIN_SUBLIST, v, total)
        lists.append(_unrank_combination(sorted(L1.lists[v]), l2, rank))
    return ListAssignment(L1.palette, tuple(lists), l2)


def exists_accepted_covered_partition(
    d: Digraph,
    C: SetCollection,
    L: ListAssignment,
    deadline: Optional[Deadline] = None,
) -> tuple[bool, Optional[Partition]]:
    """Search for a palette-indexed partition that is covered by C,
    accepted by L, and acyclic per part.

    Each colour class is confined to the members still containing all of
    its vertices (colours with empty classes stay unconstrained, matching
    partitions with empty parts); backtracking assigns vertices in index
    order with incremental class-acyclicity and member filtering.
    ``deadline`` (else Deadline()) is polled at every node and raises
    BudgetExceededError.
    """
    if L.n != d.n:
        raise ValueError("list assignment does not cover the vertex set")
    n = d.n
    palette = L.palette
    u = len(palette)
    colour_pos = {c: i for i, c in enumerate(palette)}
    member_masks = C.member_masks()
    all_members = (1 << len(member_masks)) - 1
    members_with: list[int] = []
    for v in range(n):
        mask = 0
        for idx, mm in enumerate(member_masks):
            if mm >> v & 1:
                mask |= 1 << idx
        members_with.append(mask)
    outs, ins = d.outs, d.ins
    alive = [all_members] * u
    class_masks = [0] * u
    assignment: list[Optional[int]] = [None] * n
    deadline = deadline or Deadline()

    def rec(v: int) -> bool:
        if deadline.check():
            raise BudgetExceededError("unknown: partition search ran out of time")
        if v == n:
            return True
        for colour in sorted(L.lists[v]):
            i = colour_pos[colour]
            narrowed = alive[i] & members_with[v]
            if not narrowed:
                continue
            if _extension_cyclic(outs, ins, class_masks[i], v):
                continue
            saved = alive[i]
            alive[i] = narrowed
            class_masks[i] |= 1 << v
            assignment[v] = colour
            if rec(v + 1):
                return True
            assignment[v] = None
            class_masks[i] &= ~(1 << v)
            alive[i] = saved
        return False

    if not rec(0):
        return (False, None)
    parts = []
    for i in range(u):
        parts.append(frozenset(iter_bits(class_masks[i])))
    return (True, Partition(n, palette, tuple(parts)))


class AcceptanceEstimate(NamedTuple):
    """Monte Carlo acceptance frequency next to the analytic bound it is
    meant to respect; the bound only binds when hypothesis_ok and < 1.
    Degenerate sampling (l2 = l1) leaves the bound vacuous."""

    event: EventEstimate
    bound: float
    hypothesis_ok: bool
    params: Optional[GBoundParams]


def estimate_acceptance_probability(
    d: Digraph,
    C: SetCollection,
    L1: ListAssignment,
    l2: int,
    trials: int,
    rng: RngSpec,
    threads: int = 1,
    deadline: Optional[Deadline] = None,
) -> AcceptanceEstimate:
    """Sample l2-sublists of L1 and measure how often some covered acyclic
    partition is accepted; reports the Wilson interval and the bound
    g(l1, l2, n, s, t, u) with its applicability hypothesis
    4*t*u <= (l1-l2)*n. When ``deadline`` (else Deadline()), shared by
    all trials, runs out, raises BudgetExceededError instead of returning
    a partial count."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if l2 < L1.k:
        params = GBoundParams(L1.k, l2, d.n, C.s, C.t, len(L1.palette))
        bound = g_bound(params)
        hypothesis_ok = 4 * params.t * params.u <= (params.l1 - params.l2) * params.n
    else:
        params = None
        bound = math.inf
        hypothesis_ok = False
    from .parallel import parallel_map

    # shared by forked workers, as in estimate_biclique_event
    deadline = deadline or Deadline()

    def one(i: int) -> bool:
        L2 = sample_sublists(L1, l2, rng.derive(i))
        ok, _ = exists_accepted_covered_partition(d, C, L2, deadline)
        return ok

    hits = parallel_map(one, range(trials), threads)
    return AcceptanceEstimate(
        EventEstimate.from_counts(sum(hits), trials),
        bound,
        hypothesis_ok,
        params,
    )
