"""Exact chromatic / dichromatic / list solvers at desk scale.

Every colouring search is deterministic and runs one iterative
backtracking routine, _ListSearch.find, over per-vertex colour lists in a
vertex order the caller fixes. The k-class searches give every vertex
the list 0..k-1 and let it open at most one unused class, which breaks
colour symmetry; list assignments are enumerated one per colour-renaming
class, in a canonical first-use normal form, over the in/out k-core only:
one bucket-queue peel by min(d+, d-) gives every level's core, the search
order and the 1 + in/out-degeneracy bound. The list sweep searches once
per canonical prefix (all lists but the last vertex's): a last list
holding a colour that the last vertex may take beside the prefix's
colouring accepts unsearched, so K3,3 and K_{2,2,2} search about 36,000
and 60,000 of their 2,406,208 level-3 classes. Budget exhaustion never
produces a silent wrong answer; it returns a flagged certificate
carrying the best bracketing interval.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations
from typing import Iterator, NamedTuple, Optional

from .core import (
    Coloring,
    Deadline,
    Digraph,
    Graph,
    ListAssignment,
    Orientation,
    _depth_first,
    _extension_cyclic,
    _trusted_list_assignment,
    apply_orientation,
    enumerate_orientations,
    induced_subdigraph,
    is_acyclic,
    iter_bits,
)
from .errors import BudgetExceededError

__all__ = [
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


class Certificate(NamedTuple):
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


def _class_test(outs, ins=None):
    """The class test clash(class mask, v), true when v may not join the
    class: v has a neighbour in it (a graph, outs = adj) or v closes a
    directed cycle in it (a digraph, outs and ins). Closures, not partial
    objects: Python-to-Python calls are cheaper, and _extension_cyclic is
    looked up at each call."""
    if ins is None:
        return lambda mask, v: outs[v] & mask
    return lambda mask, v: _extension_cyclic(outs, ins, mask, v)


def _search_dicoloring(search, k) -> Optional[list[int]]:
    """Find a colouring of the vertices of search with k classes that all
    pass its class test, or prove none exists; with the tests of
    _class_test it colours a graph or dicolours a digraph, with
    _forest_clash it partitions a graph into induced forests.

    The list search with every list 0..k-1 and the first-use break: a
    vertex may open at most one class beyond those already used, which
    breaks class-permutation symmetry.
    """
    found = search.find([tuple(range(k))] * len(search.colour), 0, True)
    return search.colour if found else None


def _exact_certificate(k: int, assignment: list[int], detail: str) -> Certificate:
    witness = Coloring(tuple(range(k)), tuple(assignment))
    return Certificate(k, True, k, k, witness=witness, detail=detail)


def _least_classes(clash, order, lower, deadline, raise_lower=None) -> Certificate:
    """The fewest classes passing clash that partition the vertices of
    order, searched upward from lower (first raised to raise_lower() when
    given) to the class count of the first-fit colouring in order. One
    _ListSearch with n colours serves the solve: first fit is its first
    descent at k = n, which never backtracks and runs before the search
    gets deadline, and every k-level reuses it. On a timeout the bracket
    is [classes under test, first fit], with the first-fit colouring as
    witness."""
    n = len(order)
    if not n:
        return Certificate(0, True, 0, 0, witness=Coloring((), ()), detail="empty")
    search = _ListSearch(clash, order, n)
    search.find([tuple(range(n))] * n, 0, True)
    greedy = list(search.colour)
    upper = max(greedy) + 1
    search.deadline = deadline
    k = lower
    try:
        if raise_lower is not None:
            k = lower = max(lower, raise_lower())
        if lower >= upper:
            return _exact_certificate(upper, greedy, f"lower bound {lower} meets greedy")
        while k < upper:
            found = _search_dicoloring(search, k)
            if found is not None:
                return _exact_certificate(k, found, f"refuted {k - 1}" if k > lower else "found at lower bound")
            k += 1
    except BudgetExceededError:
        witness = Coloring(tuple(range(upper)), tuple(greedy))
        return Certificate(
            None, False, k, upper, witness=witness,
            detail=f"timeout while testing {k} colours",
        )
    return _exact_certificate(upper, greedy, f"all k in [{lower},{upper}) refuted")


def _exact_value(cert: Certificate) -> int:
    """The value of an exact certificate; BudgetExceededError for a
    timed-out one."""
    if not cert.exact:
        raise BudgetExceededError(f"unknown: {cert.detail}")
    return cert.value


def chromatic_number(g: Graph, deadline: Optional[Deadline] = None) -> Certificate:
    """Exact chromatic number with a proper-colouring witness, searched up
    from a greedy clique. The search polls deadline (else Deadline()) and
    returns a flagged bracket when it ends."""
    adj = g.adj
    return _least_classes(
        _class_test(adj), _degree_order(adj), len(_greedy_clique(adj)),
        deadline or Deadline(),
    )


def _digon_lower_bound(outs, ins, deadline: Deadline) -> int:
    """Chromatic number of the digon graph, whose neighbourhoods are
    outs[v] & ins[v]: digon endpoints cannot share a class."""
    digons = [o & i for o, i in zip(outs, ins)]
    if not any(digons):
        return 1
    return _exact_value(_least_classes(
        _class_test(digons), _degree_order(digons), len(_greedy_clique(digons)), deadline
    ))


def dichromatic_number(d: Digraph, deadline: Optional[Deadline] = None) -> Certificate:
    """Exact dichromatic number: smallest k admitting a partition into k
    acyclic classes, searched up from 2 once any directed cycle exists
    and from the digon graph's chromatic number. deadline as in
    chromatic_number."""
    outs, ins = d.outs, d.ins
    deadline = deadline or Deadline()
    return _least_classes(
        _class_test(outs, ins), _degree_order([o | i for o, i in zip(outs, ins)]),
        1 if is_acyclic(d) else 2, deadline,
        partial(_digon_lower_bound, outs, ins, deadline),
    )


def _forest_clash(adj, mask: int, v: int) -> bool:
    """True iff adding v to the induced forest on mask closes a cycle: v
    has two neighbours in one tree of that forest."""
    rest = adj[v] & mask
    while rest & (rest - 1):
        low = rest & -rest
        tree = frontier = low
        while frontier:
            if tree & rest != low:
                return True
            nxt = 0
            while frontier:
                bit = frontier & -frontier
                nxt |= adj[bit.bit_length() - 1]
                frontier ^= bit
            frontier = nxt & mask & ~tree
            tree |= frontier
        rest &= ~tree
    return False


def _vertex_arboricity(adj, deadline: Deadline) -> Certificate:
    """The fewest induced forests partitioning the vertices; on a timeout,
    the bracket ends at the first-fit forest count."""
    return _least_classes(lambda mask, v: _forest_clash(adj, mask, v), _degree_order(adj), 1,
                          deadline)


def dichromatic_number_of_graph(g: Graph, deadline: Optional[Deadline] = None) -> Certificate:
    """Maximum dichromatic number over all orientations of g.

    Orientations paired by full reversal have equal value, so only one of
    each pair is solved, in lexicographic order. The sweep stops once the
    maximum meets the vertex arboricity of g, the fewest induced forests
    partitioning V, which bounds every orientation: a forest is acyclic
    under every orientation (Chartrand, Kronk and Wall, 1968). It is at
    most the chromatic number, since each colour class is an independent
    set and so a forest. One deadline (else Deadline()) covers the
    arboricity and orientation solves; the sweep reads its clock after
    every orientation, since most orientation solves close on bounds
    after a poll or two.
    """
    deadline = deadline or Deadline()
    forests = _vertex_arboricity(g.adj, deadline)
    if not forests.exact:
        return Certificate(
            None, False, 1, forests.upper,
            detail="timeout while partitioning into induced forests",
        )
    bound = forests.value
    best = -1  # the empty graph's one orientation still becomes the witness
    best_orientation = None
    best_witness = None
    solved = 0
    # the first half of the lexicographic order holds one of each pair;
    # range, unlike islice, takes a stop beyond sys.maxsize (m >= 64)
    for _, o in zip(range(((1 << g.m) + 1) // 2), enumerate_orientations(g)):
        d = apply_orientation(g, o)
        cert = dichromatic_number(d, deadline)
        solved += 1
        if not cert.exact:
            return Certificate(
                None, False, max(best, cert.lower), bound,
                detail=f"timeout inside orientation solve {solved}",
            )
        if cert.value > best:
            best = cert.value
            best_orientation = o
            best_witness = cert.witness
        if best == bound:
            detail = f"stopped at the vertex-arboricity bound {bound}"
            break
        if deadline.expired():
            return Certificate(
                None, False, best, bound, witness=best_witness,
                witness_orientation=best_orientation,
                detail=f"timeout during the orientation sweep after {solved} orientations",
            )
    else:
        detail = "full sweep"
    return Certificate(
        best, True, best, best, witness=best_witness,
        witness_orientation=best_orientation,
        detail=f"{detail} after {solved} orientations (reversal pairs merged)",
    )


def _smallest_last(outs, ins, deadline: Optional[Deadline] = None) -> tuple[list[int], list[int]]:
    """Smallest-last elimination by min(d+, d-) in what remains, lowest
    index first on ties: the reversed removal order, and each vertex's
    core number, the largest minimum met at a removal up to its own. The
    vertices of core number at least k, a prefix of the order, are the
    in/out k-core: what is left once every vertex with min(d+, d-) < k is
    peeled. A graph passes outs = ins = adj and gets its k-cores.

    Bucket d is the mask of the vertices whose minimum is d; a removal
    moves each neighbour down at most one bucket. The clock of deadline,
    when given, is read at every removal (BudgetExceededError)."""
    n = len(outs)
    d_out = [o.bit_count() for o in outs]
    d_in = [i.bit_count() for i in ins]
    key = [min(a, b) for a, b in zip(d_out, d_in)]
    buckets = [0] * (n + 1)
    for v, d in enumerate(key):
        buckets[d] |= 1 << v
    alive = (1 << n) - 1
    removed: list[int] = []
    core = [0] * n
    low = worst = 0
    for _ in range(n):
        if deadline is not None and deadline.expired():
            raise BudgetExceededError("unknown: peeling the k-cores ran out of time")
        while not buckets[low]:
            low += 1
        bucket = buckets[low]
        bit = bucket & -bucket
        u = bit.bit_length() - 1
        buckets[low] = bucket ^ bit
        alive ^= bit
        worst = max(worst, low)
        core[u] = worst
        removed.append(u)
        # u's out-neighbours lose an in-arc, its in-neighbours an out-arc
        for rest, degrees in ((outs[u] & alive, d_in), (ins[u] & alive, d_out)):
            while rest:
                wbit = rest & -rest
                rest ^= wbit
                w = wbit.bit_length() - 1
                degrees[w] -= 1
                d = min(d_out[w], d_in[w])
                if d != key[w]:
                    buckets[key[w]] ^= wbit
                    buckets[d] |= wbit
                    key[w] = d
        low = max(low - 1, 0)
    removed.reverse()
    return removed, core


def _degeneracy_order(obj) -> list[int]:
    """Smallest-last elimination order of the underlying graph of obj."""
    adj = [o | i for o, i in zip(obj.outs, obj.ins)]
    return _smallest_last(adj, adj)[0]


class _ListSearch:
    """The one backtracking search of this module, set up once: the
    vertex order, the class test clash(class mask, v) (true when v may not
    join the class), the number of colours, 0..colours-1, which index the
    class masks, and the deadline, polled at every node when given (it
    raises BudgetExceededError), which may be set between searches. The
    search never tests an empty class, so the class test must accept
    every singleton class.

    colour holds the colouring of the last search, or None on the vertices
    it failed to colour."""

    __slots__ = ("orders", "clash", "deadline", "colour", "masks", "tried")

    def __init__(self, clash, order, colours: int, deadline: Optional[Deadline] = None):
        n = len(order)
        self.clash = clash
        self.orders = {0: order}  # j -> the order restricted to j..n-1, built on first use
        self.deadline = deadline
        self.colour: list[Optional[int]] = [None] * n
        self.masks = [0] * colours  # colour -> the vertices colour gives it
        self.tried = [0] * n  # per search depth, how many colours of its list were tried

    def find(self, lists, start: int = 0, first_use: bool = False) -> bool:
        """Search for a colouring drawn from the per-vertex lists whose
        classes all pass the class test, trying each list in its stored
        order; with first_use a vertex tries nothing after the first empty
        class on its list (when all lists are equal, empty classes differ
        only by name). A start above 0 needs the last search to have
        succeeded: the vertices below start keep its colours, which must
        still be drawn from lists, and only the rest are searched. True
        when found, the colouring then in colour."""
        order = self.orders.get(start)
        if order is None:
            order = self.orders[start] = [v for v in self.orders[0] if v >= start]
        clash, deadline = self.clash, self.deadline
        colour, tried = self.colour, self.tried
        if start:
            masks = self.masks
            for v in order:
                masks[colour[v]] ^= 1 << v
        else:
            masks = self.masks = [0] * len(self.masks)
        n = len(order)
        i = p = 0  # the depth of the current node, and its next colour's index
        if deadline is not None and deadline.check():
            raise BudgetExceededError("unknown: partition search ran out of time")
        while i < n:
            v = order[i]
            lst = lists[v]
            end = len(lst)
            while p < end:
                c = lst[p]
                cm = masks[c]
                p += 1
                if cm:
                    if clash(cm, v):
                        continue
                elif first_use:
                    p = end
                colour[v] = c
                masks[c] = cm | 1 << v
                tried[i] = p
                i += 1
                p = 0
                if deadline is not None and deadline.check():
                    raise BudgetExceededError("unknown: partition search ran out of time")
                break
            else:
                colour[v] = None
                if not i:
                    return False
                i -= 1
                v = order[i]
                masks[colour[v]] ^= 1 << v
                p = tried[i]
        return True

    def blocked(self, v: int, colours: int) -> int:
        """The colours of the mask colours (bit c for colour c) whose class
        in the last colouring, v left out, v may not join."""
        masks, clash, out = self.masks, self.clash, 0
        off = ~(1 << v)
        while colours:
            bit = colours & -colours
            colours ^= bit
            mask = masks[bit.bit_length() - 1] & off
            if mask and clash(mask, v):
                out |= bit
        return out


def _palette_search(clash, order, palette, deadline: Optional[Deadline] = None):
    """find(lists): a colouring drawn from lists over palette whose classes
    all pass clash, or None, by one _ListSearch that sees each colour as
    its index in palette; each list is still tried in its stored order."""
    index = {c: i for i, c in enumerate(palette)}
    search = _ListSearch(clash, order, len(palette), deadline)

    def find(lists) -> Optional[list[int]]:
        found = search.find([tuple([index[c] for c in lst]) for lst in lists])
        return [palette[i] for i in search.colour] if found else None

    return find


def _find_acceptable(obj, L: ListAssignment) -> Optional[Coloring]:
    if L.n != obj.n:
        raise ValueError("list assignment does not cover the vertex set")
    clash = _class_test(obj.outs, None if isinstance(obj, Graph) else obj.ins)
    colour = _palette_search(clash, _degeneracy_order(obj), L.palette)(L.lists)
    return None if colour is None else Coloring(L.palette, tuple(colour))


def find_acceptable_dicoloring(d: Digraph, L: ListAssignment) -> Optional[Coloring]:
    """A proper dicolouring drawn from the lists, or a verified None."""
    return _find_acceptable(d, L)


def find_acceptable_coloring(g: Graph, L: ListAssignment) -> Optional[Coloring]:
    """Proper-colouring counterpart of find_acceptable_dicoloring."""
    return _find_acceptable(g, L)


def _holds_twins(colours: tuple[int, ...], twin: list[int]) -> bool:
    """Whether colours holds the twin of each of its colours (0: none)."""
    return not any(twin[c] and twin[c] not in colours for c in colours)


def _vertex_lists(top: int, twin: list[int], k: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """The canonical k-lists of a vertex met after the colours 1..top, in
    order, each with the largest colour in use after it: those with fewer
    fresh colours first, the old colours in lexicographic order, and an old
    colour only together with its twin (see canonical_list_assignments)."""
    for fresh in range(0, k + 1):
        if k - fresh > top:
            continue
        new_part = tuple(range(top + 1, top + fresh + 1))
        for old in combinations(range(1, top + 1), k - fresh):
            if not _holds_twins(old, twin):
                continue
            # every colour of old is below those of new_part: the list is sorted
            yield old + new_part, top + fresh


def _canonical_prefixes(n: int, k: int) -> Iterator[tuple[list, int, list[int], int]]:
    """The canonical lists of vertices 0..n-2 (n >= 1), in the order of
    canonical_list_assignments: for each, the lists (one list object the
    walk reuses, so copy what is kept), the largest colour on them, the
    last vertex's twin table, where twin[c] is the largest lower colour
    whose column equals c's, or 0, and the first vertex whose list differs
    from the previous prefix's (0 for the first prefix)."""
    lists: list[tuple[int, ...]] = []
    columns = [0] * (n * k + 1)
    last = n - 1

    def rec(i: int, top: int, start: int) -> Iterator:
        # start: the first changed list of the first prefix below this node
        twin, seen = [0] * (top + 1), {}
        for c in range(1, top + 1):
            twin[c] = seen.get(columns[c], 0)
            seen[columns[c]] = c
        if i == last:
            yield lists, top, twin, start
            return
        bit = 1 << i
        for lst, new_top in _vertex_lists(top, twin, k):
            for c in lst:
                columns[c] |= bit
            lists.append(lst)
            yield rec(i + 1, new_top, start)
            start = i
            lists.pop()
            for c in lst:
                columns[c] ^= bit

    return _depth_first(rec(0, 0, 0))


def canonical_list_assignments(n: int, k: int) -> Iterator[ListAssignment]:
    """One k-list assignment on n vertices per colour-renaming class.

    Scanning vertices in index order, every colour beyond the current
    maximum must be the next unused integer (first-use normal form), and
    colours whose columns (the vertices so far whose lists hold them) are
    equal are interchangeable, so a colour joins a list only together
    with every lower colour of the same column. What is yielded is the
    first of each class in the unfiltered first-use order. Every
    assignment over any palette is a renaming of exactly one of these,
    and renaming preserves colourability, so quantifying over them
    decides list colourability; a palette of n*k colours suffices.

    Each canonical prefix (_canonical_prefixes) is followed by the last
    vertex's lists (_vertex_lists); _list_number walks the same two pieces.
    """
    if n == 0:
        yield ListAssignment((), (), k)
        return
    palettes = [tuple(range(1, top + 1)) for top in range(n * k + 1)]
    for lists, top, twin, _ in _canonical_prefixes(n, k):
        for lst, new_top in _vertex_lists(top, twin, k):
            yield _trusted_list_assignment((palettes[new_top], (*lists, lst), k))


def _undecided_assignments(search: _ListSearch, n: int, k: int) -> Iterator:
    """The canonical k-assignments of n >= 1 vertices that the colourings
    found so far leave undecided, in canonical order, each as (top, lists,
    start) with palette 1..top, the lists below start those of the one
    before. The caller searches each with search.find from start > 0, else
    or on failure from 0, and stops at the first rejection: every
    assignment left out accepts.

    Per canonical prefix (the lists of vertices 0..n-2) the first last
    list, 1..k, is yielded. Its colouring colours the prefix, and the last
    vertex w accepts any colour whose class in it, w left out, w may join:
    every colour beyond the prefix's, and every old colour not blocked
    (_ListSearch.blocked). So a last list holding such a safe colour
    accepts, and only the lists made wholly of blocked old colours are
    yielded, in lexicographic order, which is canonical order, with start
    0, since the last colouring blocks all their colours. Each colouring
    found only shrinks the blocked set, and once fewer than k colours are
    blocked the rest of the prefix accepts unenumerated.
    A full assignment accepts iff some colour of L(w) is safe under some
    colouring of the prefix, so the first rejection is the first
    rejecting canonical assignment."""
    first = tuple(range(1, k + 1))
    w = n - 1
    for prefix, top, twin, start in _canonical_prefixes(n, k):
        yield max(top, k), (*prefix, first), start
        blocked = search.blocked(w, (2 << top) - 2)  # among colours 1..top
        last = first
        while blocked.bit_count() >= k:
            for lst in combinations(iter_bits(blocked), k):
                if lst > last and _holds_twins(lst, twin):
                    break
            else:
                break
            yield top, (*prefix, lst), 0
            blocked &= search.blocked(w, blocked)
            last = lst


def _lift(L: ListAssignment, members: list[int], n: int) -> ListAssignment:
    """L, an assignment of the vertices of members in their order, on all
    n vertices: the others get the list 1..k, which the palette holds."""
    lists = [tuple(range(1, L.k + 1))] * n
    for v, lst in zip(members, L.lists):
        lists[v] = lst
    return _trusted_list_assignment((L.palette, tuple(lists), L.k))


def _list_number(obj, deadline: Optional[Deadline]) -> Certificate:
    """Smallest k at which every canonical k-assignment of the in/out
    k-core accepts (Bensmail, Harutyunyan and Le, 2018).

    A vertex with fewer than k out- (or in-) neighbours among those peeled
    after it keeps a colour of its k-list that none of them uses, so,
    coloured in reverse peeling order, it closes no monochromatic cycle
    (in a graph: with degree below k, it meets no neighbour of its colour).
    So obj is k-list-colourable iff its k-core is. A rejecting assignment
    of the core is lifted to obj by giving each peeled vertex the list
    1..k, and an empty k-core is the bound chi_l <= 1 + in/out-degeneracy.
    Each level searches along the peel's order restricted to the core;
    while it can, it searches only the vertices from the first list that
    changed on, the last colouring kept below them. Only the assignments
    that _undecided_assignments yields are searched: an assignment accepts iff
    its last vertex has a safe colour, one whose class it may join in
    some colouring of the other vertices' lists, and the colourings found
    for the same prefix show most of them. So the value and the first
    rejecting assignment are those of the sweep over every canonical
    assignment; a timeout's detail counts the assignments searched."""
    n = obj.n
    if n == 0:
        return Certificate(0, True, 0, 0, detail="empty")
    deadline = deadline or Deadline()
    graph = isinstance(obj, Graph)
    kind = "" if graph else "in/out "
    bound = "degeneracy" if graph else "in/out-degeneracy"
    try:
        order, core = _smallest_last(obj.outs, obj.ins, deadline)
    except BudgetExceededError:
        return Certificate(None, False, 1, n, detail="timeout while peeling the k-cores")
    upper = 1 + max(core)
    rejecting: Optional[ListAssignment] = None
    k = 1
    while True:
        size = sum(c >= k for c in core)
        if not size:
            return Certificate(
                k, True, k, k, rejecting_assignment=rejecting,
                detail=f"{k} meets the upper bound 1 + {bound}",
            )
        # the k-core is the prefix of order whose core numbers reach k
        if size == n:
            members, sub, sub_order = None, obj, order
        else:
            # induced_subdigraph re-indexes the core in increasing order
            members = sorted(order[:size])
            index = {v: i for i, v in enumerate(members)}
            sub, sub_order = induced_subdigraph(obj, members), [index[v] for v in order[:size]]
        # the canonical k-assignments draw from the palette 1..size*k
        search = _ListSearch(_class_test(sub.outs, None if graph else sub.ins), sub_order,
                             size * k + 1, deadline)
        searched = 0
        try:
            for top, lists, start in _undecided_assignments(search, size, k):
                searched += 1
                if not (start and search.find(lists, start) or search.find(lists)):
                    L = _trusted_list_assignment((tuple(range(1, top + 1)), lists, k))
                    rejecting = L if members is None else _lift(L, members, n)
                    break
            else:
                where = "" if members is None else f" on the {size}-vertex {kind}{k}-core"
                return Certificate(
                    k, True, k, k, rejecting_assignment=rejecting,
                    detail=f"every canonical {k}-assignment{where} accepts a colouring",
                )
        except BudgetExceededError:
            return Certificate(
                None, False, k, upper, rejecting_assignment=rejecting,
                detail=f"timeout at k={k} after {searched} searched assignments",
            )
        k += 1


def list_dichromatic_number(d: Digraph, deadline: Optional[Deadline] = None) -> Certificate:
    """Exact list dichromatic number by canonical assignment enumeration;
    the certificate keeps a rejecting assignment for the value below.
    deadline as in chromatic_number."""
    return _list_number(d, deadline)


def list_chromatic_number(g: Graph, deadline: Optional[Deadline] = None) -> Certificate:
    """Exact list chromatic (choice) number, same machinery with
    independent-set classes."""
    return _list_number(g, deadline)


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
