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
from typing import Callable, NamedTuple, Optional

from .core import (
    Deadline,
    Digraph,
    ListAssignment,
    _Validated,
    _extension_cyclic,
    _maximal_acyclic_masks,
    _trusted_list_assignment,
    iter_bits,
    mask_of,
)
from .errors import BudgetExceededError, LimitExceededError
from .randomized import (
    DOMAIN_SUBLIST,
    EventEstimate,
    RngSpec,
    g_bound,
    uniform_below,
)

__all__ = [
    "SetCollection",
    "AcceptanceEstimate",
    "build_rook_collection",
    "verify_cover_all_acyclic",
    "verify_semicover_all_acyclic",
    "sample_sublists",
    "estimate_acceptance_probability",
]

_MEMBER_LIMIT = 2_000_000


class SetCollection(_Validated, namedtuple("SetCollection", "members s t")):
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


def build_rook_collection(n: int, beta: Optional[int] = None) -> SetCollection:
    """Every row and column of the n x n grid united with every beta x beta
    block A x B; beta defaults to floor(124 * ln n). When beta leaves
    [1, n] the blocks degenerate to the whole vertex set and the
    collection collapses to {V}.

    Declared bounds: s = max(1, 2n * C(n,beta)^2), t = n + beta^2 (lifted
    to n^2 in the degenerate branch, where the single member is V itself).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if beta is None:
        beta = int(math.floor(124 * math.log(n)))
    if beta < 0:
        raise ValueError("beta must be nonnegative")

    def cell(i: int, j: int) -> int:
        return i * n + j

    everything = frozenset(range(n * n))
    s_declared = max(1, 2 * n * math.comb(n, beta) ** 2)
    if not 1 <= beta <= n:
        t_declared = max(n + beta * beta, n * n)
        return SetCollection((everything,), s_declared, t_declared)
    if s_declared > _MEMBER_LIMIT:
        raise LimitExceededError(
            f"collection would have {s_declared} members, above {_MEMBER_LIMIT}"
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


def _inside_some(mask: int, members: list[int]) -> bool:
    return any(mask & ~m == 0 for m in members)


def _semicovered(mask: int, n_half: int, members: list[int], lam: float) -> bool:
    """Both sides of a part of {1,2} x V(H) inside members, or one side
    inside a member and smaller than lam."""
    s1, s2 = mask & ((1 << n_half) - 1), mask >> n_half
    in1, in2 = _inside_some(s1, members), _inside_some(s2, members)
    return (in1 and in2) or (in1 and s1.bit_count() < lam) or (in2 and s2.bit_count() < lam)


def _half(n: int, lam: float) -> int:
    """The side size of a doubled vertex set, after checking lam."""
    if not lam > 0:  # NaN too
        raise ValueError("the threshold must be positive")
    if lam == math.inf:
        raise ValueError("the threshold must be finite")
    if n % 2:
        raise ValueError("vertex set must split into two equal sides")
    return n // 2


def _first_maximal_failing(
    d: Digraph, holds: Callable[[int], bool], deadline: Optional[Deadline]
) -> Optional[frozenset[int]]:
    """The first maximal acyclic set of d whose mask fails holds, or None.
    For a test that subsets inherit, this decides every acyclic partition
    of d: each acyclic set lies in a maximal one, and a maximal one is a
    part of the partition that singletons complete (which presumes a
    palette of at least n colours). The search stops at that set."""
    for mask in _maximal_acyclic_masks(d, deadline):
        if not holds(mask):
            return frozenset(iter_bits(mask))
    return None


def verify_cover_all_acyclic(
    d: Digraph, C: SetCollection, deadline: Optional[Deadline] = None
) -> Optional[frozenset[int]]:
    """The first maximal acyclic set of d inside no member of C, or None
    when every acyclic partition of d is covered by C. deadline bounds the
    search for those sets, as in maximal_acyclic_sets."""
    members = C.member_masks()
    return _first_maximal_failing(d, lambda mask: _inside_some(mask, members), deadline)


def verify_semicover_all_acyclic(
    d: Digraph, C: SetCollection, lam: float, deadline: Optional[Deadline] = None
) -> Optional[frozenset[int]]:
    """The first maximal acyclic set of d (on {1,2} x V(H)) that is not
    semicovered with threshold lam > 0, or None when every acyclic
    partition of d is: a part is semicovered when both its sides lie
    inside members, or one side lies inside a member and has fewer than
    lam vertices. deadline as in verify_cover_all_acyclic."""
    n_half = _half(d.n, lam)
    members = C.member_masks()
    return _first_maximal_failing(
        d, lambda mask: _semicovered(mask, n_half, members, lam), deadline)


def _unrank_combination(items: tuple[int, ...], k: int, rank: int) -> tuple[int, ...]:
    """The rank-th k-subset of items in lexicographic order, in the order
    of items."""
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
    return tuple(out)


def sample_sublists(L1: ListAssignment, l2: int, rng: RngSpec) -> ListAssignment:
    """Replace each list by a uniformly random l2-subset of itself, drawn
    from a per-vertex stream so the result is order-independent."""
    if not 0 <= l2 <= L1.k:
        raise ValueError("sublist size must lie between 0 and the list size")
    if l2 == L1.k:
        return L1
    total = math.comb(L1.k, l2)
    lists = []
    for v in range(L1.n):
        rank = uniform_below(rng, DOMAIN_SUBLIST, v, total)
        lists.append(_unrank_combination(L1.lists[v], l2, rank))
    return _trusted_list_assignment((L1.palette, tuple(lists), l2))


def _covered_partition_search(
    d: Digraph, C: SetCollection, palette: tuple[int, ...], deadline: Optional[Deadline]
) -> Callable[[tuple], Optional[list[int]]]:
    """find(lists): a colouring of d drawn from lists over palette whose
    classes are acyclic and each inside one member of C, or None. Set up
    once: the solvers' list search, whose class test also fails once no
    member holds every vertex of the class, polling deadline (else
    Deadline()) at every node; find raises BudgetExceededError when it
    runs out. That search never tests an empty class, so find is None for
    all lists when some vertex lies in no member."""
    from .solvers import _TimeUp, _degeneracy_order, _palette_search

    n = d.n
    members_with = [0] * n  # vertex -> the mask of the members holding it
    for idx, mm in enumerate(C.member_masks()):
        for v in iter_bits(mm & ((1 << n) - 1)):
            members_with[v] |= 1 << idx
    if not all(members_with):
        return lambda lists: None
    outs, ins = d.outs, d.ins

    def clash(cm: int, v: int) -> bool:
        alive = members_with[v]
        rest = cm
        while rest and alive:
            low = rest & -rest
            alive &= members_with[low.bit_length() - 1]
            rest ^= low
        return not alive or _extension_cyclic(outs, ins, cm, v)

    search = _palette_search(clash, _degeneracy_order(d), palette, deadline or Deadline())

    def find(lists) -> Optional[list[int]]:
        try:
            return search(lists)
        except _TimeUp:
            raise BudgetExceededError("unknown: partition search ran out of time") from None

    return find


class AcceptanceEstimate(NamedTuple):
    """Monte Carlo acceptance frequency next to the analytic bound it is
    meant to respect; the bound only binds when hypothesis_ok and < 1.
    Degenerate sampling (l2 = l1) leaves the bound vacuous."""

    event: EventEstimate
    bound: float
    hypothesis_ok: bool


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
    if L1.n != d.n:
        raise ValueError("list assignment does not cover the vertex set")
    u = len(L1.palette)
    if l2 < L1.k:
        bound = g_bound(L1.k, l2, d.n, C.s, C.t, u)
        hypothesis_ok = 4 * C.t * u <= (L1.k - l2) * d.n
    else:
        bound = math.inf
        hypothesis_ok = False
    from .parallel import parallel_map

    # set up once and inherited by forked workers, with its deadline, as
    # in estimate_biclique_event; each trial only runs its find
    find = _covered_partition_search(d, C, L1.palette, deadline)

    def one(i: int) -> bool:
        return find(sample_sublists(L1, l2, rng.derive(i)).lists) is not None

    hits = parallel_map(one, range(trials), threads)
    return AcceptanceEstimate(
        EventEstimate.from_counts(sum(hits), trials),
        bound,
        hypothesis_ok,
    )
