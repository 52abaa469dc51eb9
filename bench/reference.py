"""Regenerate bench/reference.json: the fixed instance pool of the
exact-solve and list-solve workloads and its expected values.

    python3 bench/reference.py

Every value is computed by bench/oracles.py, which shares no code with
the dichroma package. The values are invariant under relabelling and
under reversing every arc, which is all a benchmark seed does to these
instances, so they are computed once here instead of on every run.
"""

from __future__ import annotations

import json
import sys
import time
from itertools import combinations
from pathlib import Path

import oracles as O

OUT = Path(__file__).resolve().parent / "reference.json"
TOURNAMENTS = 24


def tournament(i: int) -> tuple[int, list]:
    n = 20 + i % 7
    rng = O.Rng(1, i)
    return n, [(u, v) if rng.u64() >> 63 else (v, u) for u, v in combinations(range(n), 2)]


def list_pool() -> list[dict]:
    """Digraphs on 4-5 vertices whose list dichromatic number follows from
    chi <= chi_l <= 1 + in/out-degeneracy, or from chi = 2 and a brute-force
    check that every 2-list assignment admits an acyclic colouring."""
    wanted = {  # (n, chi, degeneracy) -> count
        (4, 3, 2): 14,
        (5, 2, 1): 8, (5, 2, 2): 7,
        (4, 2, 1): 7, (4, 2, 2): 6,
    }
    pool = []
    for n in (4, 5):
        i = 0
        while any(c for (wn, _, _), c in wanted.items() if wn == n):
            i += 1
            arcs = O.random_digraph(O.Rng(2, n, i), n)
            chi = O.dichromatic_by_partitions(n, arcs)
            dgn = O.inout_degeneracy(n, arcs)
            key = (n, chi, dgn)
            if not wanted.get(key):
                continue
            if chi == dgn + 1:
                value, method = chi, "chi meets 1 + in/out-degeneracy"
            elif O.every_assignment_colourable(n, 2, O.acyclic_class_test(n, arcs)):
                value, method = 2, "chi = 2 and every 2-assignment accepts"
            else:
                continue
            wanted[key] -= 1
            pool.append({"n": n, "arcs": arcs, "dichromatic": chi,
                         "inout_degeneracy": dgn, "list_dichromatic": value,
                         "method": method, "generator": [2, n, i]})
    return pool


def list_graphs() -> list[dict]:
    out = []
    for name, (n, edges) in (("C4", (4, [(0, 1), (1, 2), (2, 3), (0, 3)])),
                             ("K2,3", (5, [(a, b) for a in (0, 1) for b in (2, 3, 4)])),
                             ("K4", (4, list(combinations(range(4), 2))))):
        dgn = O.degeneracy(n, edges)
        if name == "K4":
            value, method = 4, "clique of 4 meets 1 + degeneracy"
        elif O.every_assignment_colourable(n, 2, O.independent_class_test(n, edges)):
            value, method = 2, "bipartite and every 2-assignment accepts"
        else:
            raise SystemExit(f"{name} is not 2-choosable")
        out.append({"name": name, "n": n, "edges": edges, "degeneracy": dgn,
                    "list_chromatic": value, "method": method})
    return out


def max_over_orientations(n: int, edges) -> int:
    """Largest dichromatic number over every orientation, by checking each
    orientation for a cycle and for a 2-dicolouring."""
    best = 1
    m = len(edges)
    for code in range(1 << m):
        arcs = [(v, u) if code >> j & 1 else (u, v) for j, (u, v) in enumerate(edges)]
        if best < 2 and not O.is_acyclic_on(O.out_masks(n, arcs), range(n)):
            best = 2
        if not O.k_dicolourable(n, arcs, 2):
            best = max(best, O.dichromatic_by_search(n, arcs))
    return best


def main() -> None:
    started = time.perf_counter()
    ref: dict = {"regenerate": "python3 bench/reference.py"}
    ref["tournaments"] = []
    for i in range(TOURNAMENTS):
        n, arcs = tournament(i)
        t = time.perf_counter()
        value = O.dichromatic_by_search(n, arcs)
        print(f"tournament {i}: n={n} value={value} ({time.perf_counter() - t:.1f}s)",
              file=sys.stderr, flush=True)
        ref["tournaments"].append({"n": n, "arcs": arcs, "dichromatic": value,
                                   "generator": [1, i]})
    ref["list_digraphs"] = list_pool()
    ref["list_graphs"] = list_graphs()
    ref["graph_dichromatic"] = []
    for name, (n, edges) in (("KG(5,2)", O.kneser_edges(5, 2)),
                             ("K2,2,2", O.multipartite_edges(2, 3))):
        value = max_over_orientations(n, edges)
        print(f"{name}: max over orientations {value}", file=sys.stderr, flush=True)
        ref["graph_dichromatic"].append({"name": name, "n": n, "edges": edges,
                                         "value": value})
    OUT.write_text(json.dumps(ref, separators=(",", ":")) + "\n")
    print(f"wrote {OUT} in {time.perf_counter() - started:.0f}s", file=sys.stderr)


if __name__ == "__main__":
    main()
