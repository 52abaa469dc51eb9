"""Exact chromatic / dichromatic / list solvers at desk scale.

All searches are deterministic: vertices branch in a fixed order, colour
symmetry is broken by allowing at most one previously unused colour, and
list assignments are enumerated in a canonical first-use normal form.
Budget exhaustion never produces a silent wrong answer; it returns a
flagged certificate carrying the best bracketing interval.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from itertools import combinations
from typing import Iterator, Optional

from .core import (
    Coloring,
    Digraph,
    Graph,
    ListAssignment,
    Orientation,
    _extension_cyclic,
    apply_orientation,
    is_acyclic,
)
from .errors import LimitExceededError

__all__ = [
    "SolveBudget",
    "Certificate",
    "chromatic_number",
    "dichromatic_number",
    "dichromatic_number_of_graph",
    "find_acceptable_coloring",
    "find_acceptable_dicoloring",
    "list_chromatic_number",
    "list_dichromatic_number",
    "canonical_list_assignments",
    "sabidussi_coloring",
]


@dataclass(frozen=True)
class SolveBudget:
    """Resource limits for the exact solvers.

    orientation_limit caps edge counts for orientation sweeps (2^m work),
    assignment_limit caps n*k for canonical list enumeration.
    """

    vertex_limit: int = 64
    orientation_limit: int = 24
    assignment_limit: int = 64
    timeout: float = 120.0

    def __post_init__(self):
        if min(self.vertex_limit, self.orientation_limit, self.assignment_limit) < 1:
            raise ValueError("limits must be positive")
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")


DEFAULT_BUDGET = SolveBudget()


@dataclass
class Certificate:
    """Result of an exact solve.

    When exact, value = lower = upper and the witness (if any) re-validates
    against the checkers in core. On budget exhaustion exact is False and
    [lower, upper] brackets the true value; detail describes what was
    exhausted or interrupted.
    """

    value: Optional[int]
    exact: bool
    lower: int
    upper: Optional[int]
    witness: Optional[Coloring] = None
    witness_orientation: Optional[Orientation] = None
    rejecting_assignment: Optional[ListAssignment] = None
    detail: str = ""


class _Deadline:
    __slots__ = ("at", "ticks")

    def __init__(self, seconds: float):
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


class _TimeUp(Exception):
    pass


def _degree_order(masks) -> list[int]:
    return sorted(range(len(masks)), key=lambda v: (-masks[v].bit_count(), v))


def _greedy_clique(adj) -> list[int]:
    """Greedy clique in descending-degree order; a valid lower bound."""
    clique: list[int] = []
    mask = 0
    for v in _degree_order(adj):
        if adj[v] & mask == mask:
            clique.append(v)
            mask |= 1 << v
    return clique


def _greedy_graph_coloring(adj, order) -> list[int]:
    colour = [-1] * len(adj)
    class_masks: list[int] = []
    for v in order:
        for c, cm in enumerate(class_masks):
            if not cm & adj[v]:
                colour[v] = c
                class_masks[c] |= 1 << v
                break
        else:
            colour[v] = len(class_masks)
            class_masks.append(1 << v)
    return colour


def _greedy_dicoloring(outs, ins, order) -> list[int]:
    colour = [-1] * len(outs)
    class_masks: list[int] = []
    for v in order:
        for c, cm in enumerate(class_masks):
            if not _extension_cyclic(outs, ins, cm, v):
                colour[v] = c
                class_masks[c] |= 1 << v
                break
        else:
            colour[v] = len(class_masks)
            class_masks.append(1 << v)
    return colour


def _search_graph_coloring(adj, order, k, deadline) -> Optional[list[int]]:
    """Find a proper k-colouring or prove none exists.

    Branches over vertices in the given order; a vertex may use at most
    one colour beyond those already used, which breaks class-permutation
    symmetry.
    """
    n = len(adj)
    colour = [-1] * n
    class_masks = [0] * k

    def rec(i: int, used: int) -> bool:
        if deadline.check():
            raise _TimeUp
        if i == n:
            return True
        v = order[i]
        bit = 1 << v
        cap = used + 1 if used < k else k
        for c in range(cap):
            if class_masks[c] & adj[v]:
                continue
            colour[v] = c
            class_masks[c] |= bit
            if rec(i + 1, max(used, c + 1)):
                return True
            class_masks[c] &= ~bit
        colour[v] = -1
        return False

    return list(colour) if rec(0, 0) else None


def _search_dicoloring(outs, ins, order, k, deadline) -> Optional[list[int]]:
    """Digraph analogue of _search_graph_coloring with incremental
    per-class cycle detection."""
    n = len(outs)
    colour = [-1] * n
    class_masks = [0] * k

    def rec(i: int, used: int) -> bool:
        if deadline.check():
            raise _TimeUp
        if i == n:
            return True
        v = order[i]
        bit = 1 << v
        cap = used + 1 if used < k else k
        for c in range(cap):
            if _extension_cyclic(outs, ins, class_masks[c], v):
                continue
            colour[v] = c
            class_masks[c] |= bit
            if rec(i + 1, max(used, c + 1)):
                return True
            class_masks[c] &= ~bit
        colour[v] = -1
        return False

    return list(colour) if rec(0, 0) else None


def _exact_certificate(k: int, assignment: list[int], detail: str) -> Certificate:
    palette = tuple(range(max(k, 1)))
    witness = Coloring(palette, tuple(assignment)) if assignment is not None else None
    return Certificate(k, True, k, k, witness=witness, detail=detail)


def chromatic_number(
    g: Graph, b: SolveBudget = DEFAULT_BUDGET, deadline: Optional[_Deadline] = None
) -> Certificate:
    """Exact chromatic number with a proper-colouring witness. deadline,
    when given, is shared with an enclosing solve and replaces b.timeout."""
    if g.n > b.vertex_limit:
        raise LimitExceededError(f"{g.n} vertices exceed budget {b.vertex_limit}")
    if g.n == 0:
        return Certificate(0, True, 0, 0, witness=Coloring((), ()), detail="empty")
    if deadline is None:
        deadline = _Deadline(b.timeout)
    adj = g.adj
    order = _degree_order(adj)
    clique = _greedy_clique(adj)
    lower = max(1, len(clique))
    greedy = _greedy_graph_coloring(adj, order)
    upper = max(greedy) + 1
    if lower == upper:
        return _exact_certificate(upper, greedy, f"clique of {lower} meets greedy")
    k = lower
    try:
        while k < upper:
            found = _search_graph_coloring(adj, order, k, deadline)
            if found is not None:
                return _exact_certificate(k, found, f"refuted {k - 1}" if k > lower else "found at lower bound")
            k += 1
    except _TimeUp:
        witness = Coloring(tuple(range(upper)), tuple(greedy))
        return Certificate(
            None, False, k, upper, witness=witness,
            detail=f"timeout while testing {k} colours",
        )
    return _exact_certificate(upper, greedy, f"all k in [{lower},{upper}) refuted")


def _digon_graph(d: Digraph) -> Graph:
    edges = [(u, v) for u, v in d.arcs if u < v and d.has_arc(v, u)]
    return Graph(d.n, edges)


def _digon_lower_bound(d: Digraph, deadline: _Deadline) -> int:
    """Chromatic number of the digon graph: digon endpoints cannot share a
    class."""
    dg = _digon_graph(d)
    if not dg.m:
        return 1
    order = _degree_order(dg.adj)
    clique = _greedy_clique(dg.adj)
    greedy = _greedy_graph_coloring(dg.adj, order)
    k, hi = max(1, len(clique)), max(greedy) + 1
    while k < hi and _search_graph_coloring(dg.adj, order, k, deadline) is None:
        k += 1
    return k


def dichromatic_number(
    d: Digraph, b: SolveBudget = DEFAULT_BUDGET, deadline: Optional[_Deadline] = None
) -> Certificate:
    """Exact dichromatic number: smallest k admitting a partition into k
    acyclic classes, found by k-ascending backtracking. deadline as in
    chromatic_number."""
    if d.n > b.vertex_limit:
        raise LimitExceededError(f"{d.n} vertices exceed budget {b.vertex_limit}")
    if d.n == 0:
        return Certificate(0, True, 0, 0, witness=Coloring((), ()), detail="empty")
    if deadline is None:
        deadline = _Deadline(b.timeout)
    outs, ins = d.outs, d.ins
    total = [outs[v] | ins[v] for v in range(d.n)]
    order = _degree_order(total)
    greedy = _greedy_dicoloring(outs, ins, order)
    upper = max(greedy) + 1
    # 2 once any directed cycle exists
    k = lower = 1 if is_acyclic(d) else 2
    try:
        k = lower = max(lower, _digon_lower_bound(d, deadline))
        if lower >= upper:
            return _exact_certificate(upper, greedy, "lower bound meets greedy")
        while k < upper:
            found = _search_dicoloring(outs, ins, order, k, deadline)
            if found is not None:
                return _exact_certificate(k, found, f"exact at k={k}")
            k += 1
        return _exact_certificate(upper, greedy, f"all k in [{lower},{upper}) refuted")
    except _TimeUp:
        witness = Coloring(tuple(range(upper)), tuple(greedy))
        return Certificate(
            None, False, k, upper, witness=witness,
            detail=f"timeout while testing {k} colours",
        )


def dichromatic_number_of_graph(
    g: Graph, b: SolveBudget = DEFAULT_BUDGET, deadline: Optional[_Deadline] = None
) -> Certificate:
    """Maximum dichromatic number over all orientations of g.

    Orientations paired by full reversal have equal value, so only one of
    each pair is solved. Stops early once the chromatic number of g (an
    upper bound for every orientation) is reached. One deadline, of
    b.timeout unless an enclosing deadline is given, covers the chromatic
    solve and every orientation solve.
    """
    if g.m > b.orientation_limit:
        raise LimitExceededError(
            f"{g.m} edges exceed the orientation budget {b.orientation_limit}"
        )
    if deadline is None:
        deadline = _Deadline(b.timeout)
    chi = chromatic_number(g, b, deadline)
    if g.m == 0:
        value = 1 if g.n else 0
        witness = Coloring((0,), (0,) * g.n) if g.n else Coloring((), ())
        return Certificate(
            value, True, value, value, witness=witness,
            witness_orientation=Orientation(g, ()), detail="no edges",
        )
    best = 0
    best_orientation = None
    best_witness = None
    full = (1 << g.m) - 1
    m = g.m
    for code in range(1 << m):
        if code > full ^ code:
            continue
        direction = tuple(bool(code >> (m - 1 - j) & 1) for j in range(m))
        o = Orientation(g, direction)
        d = apply_orientation(g, o)
        cert = dichromatic_number(d, b, deadline)
        if not cert.exact:
            return Certificate(
                None, False, max(best, cert.lower), chi.upper,
                detail="timeout inside an orientation solve",
            )
        if cert.value > best:
            best = cert.value
            best_orientation = o
            best_witness = cert.witness
        if chi.exact and best == chi.value:
            break
        if deadline.check():
            return Certificate(
                None, False, best, chi.upper, witness=best_witness,
                witness_orientation=best_orientation,
                detail="timeout during the orientation sweep",
            )
    return Certificate(
        best, True, best, best, witness=best_witness,
        witness_orientation=best_orientation,
        detail="maximum over all orientations (reversal pairs merged)",
    )


def _smallest_last(outs, ins) -> tuple[list[int], int]:
    """Smallest-last elimination by min(d+, d-) in what remains (lowest
    index first on ties): the reversed removal order, and the largest
    minimum met at a removal, the in/out-degeneracy. A graph passes
    outs = ins = adj and gets its degeneracy."""
    n = len(outs)
    alive = (1 << n) - 1
    removed = []
    worst = 0
    for _ in range(n):
        best_v, best_d = -1, n + 1
        rest = alive
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            dv = min((outs[v] & alive).bit_count(), (ins[v] & alive).bit_count())
            if dv < best_d:
                best_v, best_d = v, dv
        removed.append(best_v)
        worst = max(worst, best_d)
        alive &= ~(1 << best_v)
    removed.reverse()
    return removed, worst


def _degeneracy_order(adj) -> list[int]:
    """Smallest-last elimination order of the underlying graph."""
    return _smallest_last(adj, adj)[0]


class _ListSearch:
    """List colouring of one structure, set up once: the search order, the
    class test clash(class mask, v) (true when v may not join the class)
    and the solve's deadline, polled at every node when given. A graph is
    the symmetric case outs = ins = adj with independent classes."""

    __slots__ = ("outs", "ins", "order", "clash", "deadline")

    def __init__(self, obj, deadline: Optional[_Deadline] = None):
        if isinstance(obj, Graph):
            adj = self.outs = self.ins = obj.adj
            self.clash = lambda cm, v: cm & adj[v]
        else:
            self.outs, self.ins = obj.outs, obj.ins
            self.clash = partial(_extension_cyclic, obj.outs, obj.ins)
        self.order = _degeneracy_order([o | i for o, i in zip(self.outs, self.ins)])
        self.deadline = deadline

    def find(self, lists) -> Optional[list[int]]:
        """Backtracking search for a colouring drawn from the per-vertex
        lists whose classes all pass the class test."""
        order, clash, deadline = self.order, self.clash, self.deadline
        n = len(order)
        colour: list[Optional[int]] = [None] * n
        class_masks: dict[int, int] = {}

        def rec(i: int) -> bool:
            if deadline is not None and deadline.check():
                raise _TimeUp
            if i == n:
                return True
            v = order[i]
            for c in sorted(lists[v]):
                cm = class_masks.get(c, 0)
                if not clash(cm, v):
                    colour[v] = c
                    class_masks[c] = cm | 1 << v
                    if rec(i + 1):
                        return True
                    class_masks[c] = cm
            colour[v] = None
            return False

        return list(colour) if rec(0) else None


def _find_acceptable(obj, L: ListAssignment, search: Optional[_ListSearch]) -> Optional[Coloring]:
    if L.n != obj.n:
        raise ValueError("list assignment does not cover the vertex set")
    if obj.n == 0:
        return Coloring(L.palette, ())
    found = (search or _ListSearch(obj)).find(L.lists)
    if found is None:
        return None
    return Coloring(L.palette, tuple(found))


def find_acceptable_dicoloring(
    d: Digraph, L: ListAssignment, search: Optional[_ListSearch] = None
) -> Optional[Coloring]:
    """A proper dicolouring drawn from the lists, or a verified None.
    search, when given, is the set-up a list solve made once for d."""
    return _find_acceptable(d, L, search)


def find_acceptable_coloring(
    g: Graph, L: ListAssignment, search: Optional[_ListSearch] = None
) -> Optional[Coloring]:
    """Proper-colouring counterpart of find_acceptable_dicoloring."""
    return _find_acceptable(g, L, search)


def canonical_list_assignments(n: int, k: int) -> Iterator[ListAssignment]:
    """k-list assignments on n vertices in first-use normal form.

    Scanning vertices in index order, every colour beyond the current
    maximum must be the next unused integer. Every assignment over any
    palette is a renaming of at least one normal form, so quantifying
    over these decides list colourability; a palette of n*k colours
    suffices. Classes whose symmetric colours diverge later can appear
    more than once, which costs time but never correctness.
    """
    if n == 0:
        yield ListAssignment((), (), k)
        return
    if k == 0:
        yield ListAssignment((), (frozenset(),) * n, 0)
        return

    lists: list[frozenset[int]] = []

    def rec(i: int, top: int) -> Iterator[tuple[tuple[frozenset[int], ...], int]]:
        if i == n:
            yield tuple(lists), top
            return
        for fresh in range(0, k + 1):
            if k - fresh > top:
                continue
            new_part = frozenset(range(top + 1, top + fresh + 1))
            for old in combinations(range(1, top + 1), k - fresh):
                lists.append(frozenset(old) | new_part)
                yield from rec(i + 1, top + fresh)
                lists.pop()

    for chosen, top in rec(0, 0):
        yield ListAssignment(tuple(range(1, top + 1)), chosen, k)


def _list_number(obj, b: SolveBudget, deadline: Optional[_Deadline]) -> Certificate:
    """Smallest k at which every canonical k-assignment accepts, with
    chi_l <= 1 + in/out-degeneracy (Bensmail, Harutyunyan and Le, 2018)
    closing the search: k levels below it end at their first rejecting
    assignment, and the level that reaches it needs no sweep."""
    n = obj.n
    if n == 0:
        return Certificate(0, True, 0, 0, detail="empty")
    if deadline is None:
        deadline = _Deadline(b.timeout)
    search = _ListSearch(obj, deadline)
    bound = "degeneracy" if isinstance(obj, Graph) else "in/out-degeneracy"
    upper = 1 + _smallest_last(search.outs, search.ins)[1]
    rejecting: Optional[ListAssignment] = None
    k = 1
    while True:
        if k >= upper:
            return Certificate(
                k, True, k, k, rejecting_assignment=rejecting,
                detail=f"{k} meets the upper bound 1 + {bound}",
            )
        if n * k > b.assignment_limit:
            return Certificate(
                None, False, k, upper, rejecting_assignment=rejecting,
                detail=f"palette n*k={n * k} exceeds the assignment budget",
            )
        tested = 0
        try:
            for L in canonical_list_assignments(n, k):
                tested += 1
                if search.find(L.lists) is None:
                    rejecting = L
                    break
            else:
                return Certificate(
                    k, True, k, k, rejecting_assignment=rejecting,
                    detail=f"every canonical {k}-assignment accepts a colouring",
                )
        except _TimeUp:
            return Certificate(
                None, False, k, upper, rejecting_assignment=rejecting,
                detail=f"timeout at k={k} after {tested} assignments",
            )
        k += 1


def list_dichromatic_number(
    d: Digraph, b: SolveBudget = DEFAULT_BUDGET, deadline: Optional[_Deadline] = None
) -> Certificate:
    """Exact list dichromatic number by canonical assignment enumeration;
    the certificate keeps a rejecting assignment for the value below.
    deadline as in chromatic_number."""
    return _list_number(d, b, deadline)


def list_chromatic_number(
    g: Graph, b: SolveBudget = DEFAULT_BUDGET, deadline: Optional[_Deadline] = None
) -> Certificate:
    """Exact list chromatic (choice) number, same machinery with
    independent-set classes."""
    return _list_number(g, b, deadline)


def sabidussi_coloring(fG: Coloring, fH: Coloring, N: int) -> Coloring:
    """Colour the Cartesian product (row-major) by the sum of the factor
    colours modulo N. Factor colours must already live in 0..N-1."""
    if N < 1:
        raise ValueError("N must be positive")
    for f in (fG, fH):
        for c in f.assignment:
            if not 0 <= c < N:
                raise ValueError(f"colour {c} not representable modulo {N}")
    assignment = tuple(
        (a + b) % N for a in fG.assignment for b in fH.assignment
    )
    return Coloring(tuple(range(N)), assignment)
