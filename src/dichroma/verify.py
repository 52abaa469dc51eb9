"""Desk-scale verification suites behind the `verify` subcommands.

Each suite returns structured rows (one per checked instance) plus an
overall flag; the CLI renders them as text, JSON, or CSV. Suites are
deterministic for a given seed and independent of the worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .catalogue import digraph_catalogue, graphs_up_to, random_digraph
from .core import (
    Coloring,
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
from .generators import kneser
from .parallel import parallel_map
from .products import cartesian_product, tensor_product
from .randomized import RngSpec, uniform_below
from .solvers import (
    DEFAULT_BUDGET,
    Certificate,
    SolveBudget,
    _Deadline,
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


@dataclass
class SuiteResult:
    """ok means no row violates the property; unknown counts the rows a
    solve left undecided on its budget, which are neither passed nor
    violated."""

    name: str
    ok: bool
    rows: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    unknown: int = 0


def _exact_value(cert: Optional[Certificate]) -> Optional[int]:
    return cert.value if cert is not None and cert.exact else None


class _SuiteSolves:
    """Runs every solve of one suite call under a single deadline of
    budget.timeout, shared by forked workers because its instant is an
    absolute clock reading. A solve due after the deadline is not started:
    it gives None, so its row reads unknown."""

    def __init__(self, budget: SolveBudget):
        self.budget = budget
        self.deadline = _Deadline(budget.timeout)

    def cert(self, solver, obj) -> Optional[Certificate]:
        if self.deadline.expired():
            return None
        return solver(obj, self.budget, self.deadline)

    def value(self, solver, obj) -> Optional[int]:
        """The exact value, or None when the solve was cut short."""
        return _exact_value(self.cert(solver, obj))


def _tally(rows: list[dict], *checks: str) -> tuple[int, int]:
    """Rows failing some check (violations), and rows with none failed but
    some left undecided (None)."""
    violations = unknown = 0
    for r in rows:
        results = [r[c] for c in checks]
        if False in results:
            violations += 1
        elif None in results:
            unknown += 1
    return violations, unknown


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


def _find_cycle(g: Graph) -> Optional[list[int]]:
    """Vertices of some simple cycle of g in traversal order, or None.

    In an undirected depth-first search every non-tree edge reaches an
    ancestor, so the parent chain from v closes the cycle at w.
    """
    from .core import iter_bits

    visited = [False] * g.n
    parent = [-1] * g.n

    def dfs(v: int, par: int) -> Optional[list[int]]:
        visited[v] = True
        for w in iter_bits(g.adj[v]):
            if w == par:
                continue
            if visited[w]:
                path = [v]
                x = v
                while x != w:
                    x = parent[x]
                    path.append(x)
                return path
            parent[w] = v
            hit = dfs(w, v)
            if hit is not None:
                return hit
        return None

    for root in range(g.n):
        if not visited[root]:
            hit = dfs(root, -1)
            if hit is not None:
                return hit
    return None


def cycle_orientation(g: Graph) -> Optional[Orientation]:
    """An orientation turning one cycle of g into a directed cycle (other
    edges run low to high); None when g is a forest."""
    seq = _find_cycle(g)
    if seq is None:
        return None
    want: dict[tuple[int, int], tuple[int, int]] = {}
    for a, b in zip(seq, seq[1:] + seq[:1]):
        want[(min(a, b), max(a, b))] = (a, b)
    direction = []
    for u, v in g.edges:
        direction.append(want.get((u, v)) == (v, u))
    return Orientation(g, tuple(direction))


def _random_pair(rng: RngSpec, i: int, max_n: int) -> tuple[Digraph, Digraph]:
    r = rng.derive(i)
    n_g = 1 + uniform_below(r, _DOM_SIZE, 0, max_n)
    n_h = 1 + uniform_below(r, _DOM_SIZE, 1, max_n)
    return random_digraph(n_g, r.derive(100)), random_digraph(n_h, r.derive(101))


def _product_rows(
    kind: str,
    pairs: list[tuple[str, Digraph, Digraph]],
    solves: _SuiteSolves,
    threads: int,
) -> list[dict]:
    """One row per pair; a row whose factor or product solve ran out of
    budget, or that comes after the deadline, keeps None for what it
    could not decide, with equal (or within_bound) None."""
    cache: dict[tuple[int, tuple], Optional[int]] = {}
    witnesses: dict[tuple[int, tuple], Coloring] = {}

    def chi(d: Digraph) -> Optional[int]:
        key = (d.n, d.arcs)
        if key not in cache:
            cert = solves.cert(dichromatic_number, d)
            cache[key] = _exact_value(cert)
            witnesses[key] = cert.witness if cert is not None else None
        return cache[key]

    for _, g, h in pairs:
        chi(g)
        chi(h)

    def solve(task: tuple[str, Digraph, Digraph]) -> dict:
        tag, g, h = task
        cg, ch = chi(g), chi(h)
        row = {"pair": tag, "n_left": g.n, "n_right": h.n, "chi_left": cg, "chi_right": ch}
        known = cg is not None and ch is not None and not solves.deadline.expired()
        if kind == "cartesian":
            value = expected = proper = None
            if known:
                prod = cartesian_product(g, h)
                value = solves.value(dichromatic_number, prod)
                expected = max(cg, ch)
                fg = witnesses[(g.n, g.arcs)]
                fh = witnesses[(h.n, h.arcs)]
                modular = sabidussi_coloring(fg, fh, max(expected, 1))
                proper = is_proper_dicoloring(prod, modular)
            return {
                **row,
                "chi_product": value,
                "expected": expected,
                "equal": None if value is None else value == expected,
                "modular_proper": proper,
            }
        value = solves.value(dichromatic_number, tensor_product(g, h)) if known else None
        bound = min(cg, ch) if known else None
        return {
            **row,
            "chi_product": value,
            "bound": bound,
            "within_bound": None if value is None else value <= bound,
        }

    return parallel_map(solve, pairs, threads)


def _catalogue_pairs(max_n: int, random_pairs: int, pair_max_n: int, seed: int):
    entries = digraph_catalogue(max_n)
    pairs: list[tuple[str, Digraph, Digraph]] = []
    for i in range(len(entries)):
        for j in range(i, len(entries)):
            pairs.append((f"cat:{i}x{j}", entries[i], entries[j]))
    rng = RngSpec(seed)
    for i in range(random_pairs):
        g, h = _random_pair(rng, i, pair_max_n)
        pairs.append((f"rand:{i}", g, h))
    return pairs


def sabidussi_suite(
    max_n: int = 4,
    random_pairs: int = 200,
    pair_max_n: int = 5,
    seed: int = 7,
    threads: int = 1,
    budget: SolveBudget = DEFAULT_BUDGET,
) -> SuiteResult:
    """Dichromatic number of every Cartesian product equals the maximum of
    the factors, and the modular sum colouring of optimal factor
    colourings is proper."""
    solves = _SuiteSolves(budget)
    pairs = _catalogue_pairs(max_n, random_pairs, pair_max_n, seed)
    rows = _product_rows("cartesian", pairs, solves, threads)
    violations, unknown = _tally(rows, "equal", "modular_proper")
    return SuiteResult(
        "sabidussi",
        not violations,
        rows,
        {
            "pairs": len(rows),
            "violations": violations,
            "unknown": unknown,
            "catalogue_max_n": max_n,
            "random_pairs": random_pairs,
            "seed": seed,
        },
        unknown,
    )


def tensor_upper_bound_suite(
    max_n: int = 4,
    random_pairs: int = 0,
    pair_max_n: int = 4,
    seed: int = 7,
    threads: int = 1,
    budget: SolveBudget = DEFAULT_BUDGET,
) -> SuiteResult:
    """Dichromatic number of every tensor product stays below the minimum
    of the factors (an optimal factor colouring pulls back)."""
    solves = _SuiteSolves(budget)
    pairs = _catalogue_pairs(max_n, random_pairs, pair_max_n, seed)
    rows = _product_rows("tensor", pairs, solves, threads)
    violations, unknown = _tally(rows, "within_bound")
    return SuiteResult(
        "tensor-upper-bound",
        not violations,
        rows,
        {"pairs": len(rows), "violations": violations, "unknown": unknown,
         "catalogue_max_n": max_n},
        unknown,
    )


def bidirect_suite(
    max_n: int = 6, threads: int = 1, budget: SolveBudget = DEFAULT_BUDGET
) -> SuiteResult:
    """Chromatic number of each catalogue graph equals the dichromatic
    number of its bidirected digraph."""
    solves = _SuiteSolves(budget)
    graphs = graphs_up_to(max_n)

    def solve(item: tuple[int, Graph]) -> dict:
        idx, g = item
        chi = solves.value(chromatic_number, g)
        dchi = solves.value(dichromatic_number, bidirect(g))
        equal = None if chi is None or dchi is None else chi == dchi
        return {"graph": idx, "n": g.n, "m": g.m, "chi": chi, "dichi": dchi,
                "equal": equal}

    rows = parallel_map(solve, list(enumerate(graphs)), threads)
    violations, unknown = _tally(rows, "equal")
    return SuiteResult(
        "bidirect",
        not violations,
        rows,
        {"graphs": len(rows), "violations": violations, "unknown": unknown, "max_n": max_n},
        unknown,
    )


def kneser_chi_suite(
    cases=KNESER_CHI_CASES, budget: SolveBudget = DEFAULT_BUDGET
) -> SuiteResult:
    """Exact chromatic numbers of the disjointness graphs match n-2k+2."""
    solves = _SuiteSolves(budget)
    rows = []
    for n, k in cases:
        g = kneser(n, k)
        chi = solves.value(chromatic_number, g)
        rows.append(
            {
                "n": n,
                "k": k,
                "vertices": g.n,
                "chi": chi,
                "expected": n - 2 * k + 2,
                "equal": None if chi is None else chi == n - 2 * k + 2,
            }
        )
    violations, unknown = _tally(rows, "equal")
    return SuiteResult("kneser-chi", not violations, rows,
                       {"cases": len(rows), "violations": violations, "unknown": unknown},
                       unknown)


def _mohar_wu_bound(n: int, k: int) -> int:
    return math.floor((n - 2 * k + 2) / (8 * math.log2(n / k)))


def catalogue_suite(
    seed: int = 11,
    dual_max_n: int = 4,
    dual_random: int = 40,
    dual_random_n: int = 5,
    list_max_n: int = 3,
    enl_max_n: int = 7,
    threads: int = 1,
    budget: SolveBudget = DEFAULT_BUDGET,
) -> SuiteResult:
    """Cross-checks among the solvers: backtracking versus exhaustive
    partition enumeration, list/ordinary monotonicity, the small-graph
    evidence that chromatic number >= 3 forces dichromatic number >= 2,
    and consistency with the known Kneser lower bound."""
    solves = _SuiteSolves(budget)
    rows: list[dict] = []

    # Strategy agreement on the catalogue plus random digraphs.
    dual_targets = [(f"cat:{i}", d) for i, d in enumerate(digraph_catalogue(dual_max_n))]
    rng = RngSpec(seed)
    for i in range(dual_random):
        n = 1 + uniform_below(rng.derive(i), _DOM_SIZE, 2, dual_random_n)
        dual_targets.append((f"rand:{i}", random_digraph(n, rng.derive(i, 7))))

    def dual(item: tuple[str, Digraph]) -> dict:
        tag, d = item
        a = solves.value(dichromatic_number, d)
        b = exhaustive_dichromatic(d)
        return {"check": "dual-strategy", "instance": tag, "backtracking": a,
                "partitions": b, "equal": None if a is None else a == b}

    rows.extend(parallel_map(dual, dual_targets, threads))

    # Monotonicity chains on small digraphs.
    for i, d in enumerate(digraph_catalogue(list_max_n)):
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
    for i, g in enumerate(graphs_up_to(enl_max_n)):
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
    rows.append({"check": "enl-evidence", "instance": f"all<= {enl_max_n}",
                 "count": enl_checked, "equal": True})

    # Known Kneser lower bound never exceeds the exact value.
    for n, k in ((2, 1), (3, 1), (4, 1), (5, 1), (4, 2), (6, 3)):
        g = kneser(n, k)
        value = solves.value(dichromatic_number_of_graph, g)
        bound = _mohar_wu_bound(n, k)
        rows.append({"check": "kneser-lower-bound", "instance": f"KG({n},{k})",
                     "value": value, "bound": bound,
                     "equal": None if value is None else value >= bound})

    violations, unknown = _tally(rows, "equal")
    return SuiteResult(
        "catalogue",
        not violations,
        rows,
        {"checks": len(rows), "unknown": unknown, "seed": seed},
        unknown,
    )
