"""Desk-scale verification suites behind the `verify` subcommands.

Each suite returns structured rows (one per checked instance) plus an
overall flag; the CLI renders them as text, JSON, or CSV. Suites are
deterministic for a given seed and independent of the worker count.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Optional

from .catalogue import digraph_catalogue, graphs_up_to, random_digraph
from .core import (
    Deadline,
    Digraph,
    Graph,
    Orientation,
    _subset_acyclic,
    apply_orientation,
    bidirect,
    is_acyclic,
    is_proper_dicoloring,
    mask_of,
)
from .parallel import parallel_map
from .products import cartesian_product, tensor_product
from .randomized import RngSpec, uniform_below
from .solvers import (
    Certificate,
    _smallest_last,
    chromatic_number,
    dichromatic_number,
    dichromatic_number_of_graph,
    list_chromatic_number,
    list_dichromatic_number,
    sabidussi_coloring,
)

__all__ = [
    "SuiteResult",
    "exhaustive_dichromatic",
    "cycle_orientation",
    "sabidussi_suite",
    "tensor_upper_bound_suite",
    "bidirect_suite",
    "kneser_chi_suite",
    "catalogue_suite",
    "KNESER_CHI_CASES",
]

KNESER_CHI_CASES = ((4, 1), (5, 1), (5, 2), (6, 2), (7, 2), (7, 3))

_DOM_SIZE = 0x51


class SuiteResult(namedtuple("SuiteResult", "name ok rows summary unknown")):
    """ok means no row violates the property; unknown counts the rows a
    solve left undecided on its budget, which are neither passed nor
    violated."""

    __slots__ = ()


def _exact_value(cert: Optional[Certificate]) -> Optional[int]:
    return cert.value if cert is not None and cert.exact else None


class _SuiteSolves:
    """Runs every solve of one suite call under a single deadline (else
    Deadline()), shared by forked workers because its instant is an
    absolute clock reading. A solve due after the deadline is not started:
    it gives None, so its row reads unknown. The suite's catalogue builds
    poll the same deadline, and one it cuts short raises
    BudgetExceededError, since no row exists yet."""

    def __init__(self, deadline: Optional[Deadline]):
        self.deadline = deadline or Deadline()

    def cert(self, solver, obj) -> Optional[Certificate]:
        if self.deadline.expired():
            return None
        return solver(obj, self.deadline)

    def value(self, solver, obj) -> Optional[int]:
        """The exact value, or None when the solve was cut short."""
        return _exact_value(self.cert(solver, obj))


def _result(name: str, rows: list[dict], columns: tuple[str, ...], **summary) -> SuiteResult:
    """The suite's result: a row with a False check column is a violation, one
    with no False but some None is unknown; summary gains both counts."""
    violations = unknown = 0
    for r in rows:
        results = [r[c] for c in columns]
        if False in results:
            violations += 1
        elif None in results:
            unknown += 1
    return SuiteResult(name, not violations, rows,
                       {**summary, "violations": violations, "unknown": unknown}, unknown)


def _set_partitions(items: list[int]):
    """All partitions of items into nonempty blocks (Bell-number many)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1 :]
        yield [[first]] + part


def exhaustive_dichromatic(d: Digraph) -> int:
    """Second, independent strategy: minimum number of blocks over all set
    partitions whose blocks all induce acyclic subdigraphs."""
    if d.n == 0:
        return 0
    best = d.n
    for part in _set_partitions(list(range(d.n))):
        if len(part) >= best:
            continue
        if all(_subset_acyclic(d.ins, mask_of(block)) for block in part):
            best = len(part)
            if best == 1:
                break
    return best


def cycle_orientation(g: Graph) -> Optional[Orientation]:
    """An orientation turning one cycle of g into a directed cycle (other
    edges run low to high); None when g is a forest.

    The cycle comes from the 2-core, the vertices of core number at least
    2 (solvers._smallest_last), empty iff g is a forest. Each of them has
    two neighbours in it, so a walk inside it that never steps straight
    back closes a simple cycle at its first repeated vertex."""
    core = _smallest_last(g.adj, g.adj)[1]
    inside = mask_of(v for v in range(g.n) if core[v] >= 2)
    if not inside:
        return None
    seq: list[int] = []
    seen = back = 0
    v = (inside & -inside).bit_length() - 1
    while not seen >> v & 1:
        seen |= 1 << v
        seq.append(v)
        step = g.adj[v] & inside & ~back
        v, back = (step & -step).bit_length() - 1, 1 << v
    seq = seq[seq.index(v):]
    arcs = set(zip(seq, seq[1:] + seq[:1]))
    return Orientation(g, tuple((v, u) in arcs for u, v in g.edges))


def _random_pair(rng: RngSpec, i: int, max_n: int) -> tuple[Digraph, Digraph]:
    r = rng.derive(i)
    n_g = 1 + uniform_below(r, _DOM_SIZE, 0, max_n)
    n_h = 1 + uniform_below(r, _DOM_SIZE, 1, max_n)
    return random_digraph(n_g, r.derive(100)), random_digraph(n_h, r.derive(101))


def _product_rows(pairs: list[tuple[str, Digraph, Digraph]], solves: _SuiteSolves,
                  threads: int, fill) -> list[dict]:
    """One row per pair, its product columns from fill(g, h, factors), where
    factors holds both factors' exact certificates, or is None when a
    factor solve ran out of budget or the deadline has passed; fill then
    keeps None for what it could not decide."""
    cache: dict[Digraph, Optional[Certificate]] = {}

    def factor(d: Digraph) -> Optional[Certificate]:
        if d not in cache:
            cache[d] = solves.cert(dichromatic_number, d)
        return cache[d]

    for _, g, h in pairs:
        factor(g)
        factor(h)

    def solve(task: tuple[str, Digraph, Digraph]) -> dict:
        tag, g, h = task
        factors = factor(g), factor(h)
        cg, ch = map(_exact_value, factors)
        known = cg is not None and ch is not None and not solves.deadline.expired()
        return {"pair": tag, "n_left": g.n, "n_right": h.n, "chi_left": cg, "chi_right": ch,
                **fill(g, h, factors if known else None)}

    return parallel_map(solve, pairs, threads)


def _catalogue_pairs(max_n: int, deadline: Deadline) -> list[tuple[str, Digraph, Digraph]]:
    entries = digraph_catalogue(max_n, deadline)
    return [(f"cat:{i}x{j}", entries[i], entries[j])
            for i in range(len(entries)) for j in range(i, len(entries))]


def sabidussi_suite(
    max_n: int = 4,
    random_pairs: int = 200,
    pair_max_n: int = 5,
    seed: int = 7,
    threads: int = 1,
    deadline: Optional[Deadline] = None,
) -> SuiteResult:
    """Dichromatic number of every Cartesian product equals the maximum of
    the factors, and the modular sum colouring of optimal factor
    colourings is proper."""
    solves = _SuiteSolves(deadline)
    pairs = _catalogue_pairs(max_n, solves.deadline)
    rng = RngSpec(seed)
    for i in range(random_pairs):
        g, h = _random_pair(rng, i, pair_max_n)
        pairs.append((f"rand:{i}", g, h))

    def fill(g: Digraph, h: Digraph, factors) -> dict:
        value = expected = proper = None
        if factors is not None:
            fg, fh = factors
            prod = cartesian_product(g, h)
            value = solves.value(dichromatic_number, prod)
            expected = max(fg.value, fh.value)
            modular = sabidussi_coloring(fg.witness, fh.witness, max(expected, 1))
            proper = is_proper_dicoloring(prod, modular)
        return {"chi_product": value, "expected": expected,
                "equal": None if value is None else value == expected, "modular_proper": proper}

    rows = _product_rows(pairs, solves, threads, fill)
    return _result("sabidussi", rows, ("equal", "modular_proper"), pairs=len(rows),
                   catalogue_max_n=max_n, random_pairs=random_pairs, seed=seed)


def tensor_upper_bound_suite(
    max_n: int = 4,
    threads: int = 1,
    deadline: Optional[Deadline] = None,
) -> SuiteResult:
    """Dichromatic number of every tensor product stays below the minimum
    of the factors (an optimal factor colouring pulls back)."""
    solves = _SuiteSolves(deadline)

    def fill(g: Digraph, h: Digraph, factors) -> dict:
        value = bound = None
        if factors is not None:
            value = solves.value(dichromatic_number, tensor_product(g, h))
            bound = min(f.value for f in factors)
        return {"chi_product": value, "bound": bound,
                "within_bound": None if value is None else value <= bound}

    rows = _product_rows(_catalogue_pairs(max_n, solves.deadline), solves, threads, fill)
    return _result("tensor-bound", rows, ("within_bound",), pairs=len(rows),
                   catalogue_max_n=max_n)


def bidirect_suite(max_n: int = 6, deadline: Optional[Deadline] = None) -> SuiteResult:
    """Chromatic number of each catalogue graph equals the dichromatic
    number of its bidirected digraph."""
    solves = _SuiteSolves(deadline)
    graphs = graphs_up_to(max_n, solves.deadline)

    def solve(item: tuple[int, Graph]) -> dict:
        idx, g = item
        chi = solves.value(chromatic_number, g)
        dchi = solves.value(dichromatic_number, bidirect(g))
        return {"graph": idx, "n": g.n, "m": g.m, "chi": chi, "dichi": dchi,
                "equal": None if chi is None or dchi is None else chi == dchi}

    rows = [solve(item) for item in enumerate(graphs)]
    return _result("bidirect", rows, ("equal",), graphs=len(rows), max_n=max_n)


def kneser_chi_suite(deadline: Optional[Deadline] = None) -> SuiteResult:
    """Exact chromatic numbers of the disjointness graphs match n-2k+2."""
    from .generators import kneser

    solves = _SuiteSolves(deadline)
    rows = []
    for n, k in KNESER_CHI_CASES:
        g = kneser(n, k)
        chi = solves.value(chromatic_number, g)
        expected = n - 2 * k + 2
        rows.append({"n": n, "k": k, "vertices": g.n, "chi": chi, "expected": expected,
                     "equal": None if chi is None else chi == expected})
    return _result("kneser-chi", rows, ("equal",), cases=len(rows))


def _mohar_wu_bound(n: int, k: int) -> int:
    return math.floor((n - 2 * k + 2) / (8 * math.log2(n / k)))


def catalogue_suite(seed: int = 11, deadline: Optional[Deadline] = None) -> SuiteResult:
    """Cross-checks among the solvers: backtracking versus exhaustive
    partition enumeration, list/ordinary monotonicity, the small-graph
    evidence that chromatic number >= 3 forces dichromatic number >= 2,
    and consistency with the known Kneser lower bound."""
    from .generators import kneser

    solves = _SuiteSolves(deadline)
    rows: list[dict] = []

    # Strategy agreement on the catalogue plus random digraphs.
    dual_targets = [(f"cat:{i}", d)
                    for i, d in enumerate(digraph_catalogue(4, solves.deadline))]
    rng = RngSpec(seed)
    for i in range(40):
        n = 1 + uniform_below(rng.derive(i), _DOM_SIZE, 2, 5)
        dual_targets.append((f"rand:{i}", random_digraph(n, rng.derive(i, 7))))

    def dual(item: tuple[str, Digraph]) -> dict:
        tag, d = item
        a = solves.value(dichromatic_number, d)
        b = exhaustive_dichromatic(d)
        return {"check": "dual-strategy", "instance": tag, "backtracking": a,
                "partitions": b, "equal": None if a is None else a == b}

    rows.extend(dual(item) for item in dual_targets)

    # Monotonicity chains on small digraphs.
    for i, d in enumerate(digraph_catalogue(3, solves.deadline)):
        under = d.underlying_graph()
        dichi = solves.value(dichromatic_number, d)
        ldichi = solves.value(list_dichromatic_number, d)
        lchi = solves.value(list_chromatic_number, under)
        chi = solves.value(chromatic_number, under)
        good = None
        if None not in (dichi, ldichi, lchi, chi):
            good = dichi <= ldichi <= lchi and dichi <= chi
        rows.append(
            {"check": "monotonicity", "instance": f"cat:{i}", "dichi": dichi,
             "list_dichi": ldichi, "list_chi": lchi, "chi": chi, "equal": good}
        )

    # chi >= 3 forces a cycle, hence an orientation of dichromatic number 2.
    enl_checked = 0
    for i, g in enumerate(graphs_up_to(7, solves.deadline)):
        chi = solves.value(chromatic_number, g)
        if chi is not None and chi < 3:
            continue
        good = None
        if chi is not None:
            enl_checked += 1
            o = cycle_orientation(g)
            good = o is not None
            if good:
                d = apply_orientation(g, o)
                # a sound lower bound, so an inexact certificate decides too
                good = not is_acyclic(d)
                if good:
                    cert = solves.cert(dichromatic_number, d)
                    good = None if cert is None else cert.lower >= 2
        if not good:
            rows.append({"check": "enl-evidence", "instance": f"graph:{i}",
                         "chi": chi, "equal": good})
    rows.append({"check": "enl-evidence", "instance": "all<= 7",
                 "count": enl_checked, "equal": True})

    # Known Kneser lower bound never exceeds the exact value.
    for n, k in ((2, 1), (3, 1), (4, 1), (5, 1), (4, 2), (6, 3)):
        g = kneser(n, k)
        value = solves.value(dichromatic_number_of_graph, g)
        bound = _mohar_wu_bound(n, k)
        rows.append({"check": "kneser-lower-bound", "instance": f"KG({n},{k})",
                     "value": value, "bound": bound,
                     "equal": None if value is None else value >= bound})

    return _result("catalogue", rows, ("equal",), checks=len(rows), seed=seed)
