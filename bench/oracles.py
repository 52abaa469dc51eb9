"""Reference computations for the benchmark's output checks.

Nothing here imports the dichroma package. Graphs are plain vertex counts
with arc or edge lists (turned into one bitmask per vertex where a search
needs speed), and every value the checks compare against is computed by
a method of its own: set partitions, colourings drawn from the lists,
column-multiset enumeration of list assignments, the nested
out-neighbourhood (chain) criterion for bicliques, and published formulas.
The SplitMix64 stream is re-implemented from its specification so that
seeded program outputs can be reproduced draw for draw.
"""

from __future__ import annotations

import math
from itertools import combinations

M64 = (1 << 64) - 1
DOMAIN_ORIENTATION = 0x01
DOMAIN_TRIAL = 0x02


# --- SplitMix64 streams -------------------------------------------------

def mix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & M64
    return x ^ (x >> 31)


def derive(seed: int, *keys: int) -> int:
    s = seed & M64
    for k in keys:
        s = mix64(s ^ mix64(k & M64))
    return s


def stream_u64(seed: int, domain: int, index: int, counter: int = 0) -> int:
    s = mix64((seed & M64) ^ mix64(domain))
    s = mix64(s ^ mix64(index & M64))
    return mix64(s + counter)


def oriented_arcs(edges, seed: int) -> list[tuple[int, int]]:
    """The orientation a seed selects: edge j (edges sorted by endpoints)
    is reversed when the top bit of word j of the orientation stream is
    set."""
    arcs = []
    for j, (u, v) in enumerate(sorted(edges)):
        rev = stream_u64(seed, DOMAIN_ORIENTATION, j) >> 63
        arcs.append((v, u) if rev else (u, v))
    return arcs


class Rng:
    """Counter-based generator for the benchmark's own inputs."""

    def __init__(self, *keys: int):
        self.seed = derive(0x62656E6368, *keys)
        self.i = 0

    def u64(self) -> int:
        self.i += 1
        return mix64(self.seed ^ mix64(self.i))

    def below(self, bound: int) -> int:
        limit = (1 << 64) - (1 << 64) % bound
        while True:
            x = self.u64()
            if x < limit:
                return x % bound

    def shuffle(self, items: list) -> list:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
        return items

    def permutation(self, n: int) -> list[int]:
        return self.shuffle(list(range(n)))


# --- graph families -----------------------------------------------------

def kneser_edges(n: int, k: int) -> tuple[int, list[tuple[int, int]]]:
    """k-subsets of {1..n} in colexicographic order, adjacent iff disjoint."""
    subs = sorted(combinations(range(1, n + 1), k), key=lambda s: s[::-1])
    sets = [frozenset(s) for s in subs]
    edges = [(i, j) for i in range(len(sets)) for j in range(i + 1, len(sets))
             if not sets[i] & sets[j]]
    return len(sets), edges


def rook_edges(q: int) -> tuple[int, list[tuple[int, int]]]:
    """Cells of a q x q board in row-major order, adjacent iff row and
    column both differ."""
    cells = [(i, j) for i in range(q) for j in range(q)]
    edges = [(a, b) for a in range(len(cells)) for b in range(a + 1, len(cells))
             if cells[a][0] != cells[b][0] and cells[a][1] != cells[b][1]]
    return len(cells), edges


def multipartite_edges(m: int, r: int) -> tuple[int, list[tuple[int, int]]]:
    n = m * r
    return n, [(u, v) for u in range(n) for v in range(u + 1, n) if u // m != v // m]


def cartesian_arcs(n1, arcs1, n2, arcs2) -> tuple[int, list[tuple[int, int]]]:
    """Row-major Cartesian product: (a, x) -> (b, x) for an arc a->b of the
    first factor, (a, x) -> (a, y) for an arc x->y of the second."""
    arcs = [(a * n2 + x, b * n2 + x) for a, b in arcs1 for x in range(n2)]
    arcs += [(a * n2 + x, a * n2 + y) for a in range(n1) for x, y in arcs2]
    return n1 * n2, arcs


def random_digraph(rng: Rng, n: int) -> list[tuple[int, int]]:
    """Each pair gets no arc, one arc either way, or a digon, each with
    probability 1/4."""
    arcs = []
    for u, v in combinations(range(n), 2):
        state = rng.u64() >> 62
        if state in (1, 3):
            arcs.append((u, v))
        if state in (2, 3):
            arcs.append((v, u))
    return arcs


def relabel(pairs, perm) -> list[tuple[int, int]]:
    return [(perm[u], perm[v]) for u, v in pairs]


def graph_text(n: int, pairs, directed: bool) -> str:
    tag = "a" if directed else "e"
    lines = [f"{'d' if directed else 'g'} {n} {len(pairs)}"]
    lines += [f"{tag} {u} {v}" for u, v in pairs]
    return "\n".join(lines) + "\n"


def parse_text(text: str) -> tuple[str, int, list[tuple[int, int]]]:
    """Header kind, vertex count and links of a graph-text document."""
    kind, n, links = None, 0, []
    for line in text.splitlines():
        f = line.split()
        if not f or f[0].startswith("#") or f[0] == "l":
            continue
        if kind is None:
            kind, n = f[0], int(f[1])
        else:
            links.append((int(f[1]), int(f[2])))
    return kind, n, links


# --- acyclicity and dicolouring ------------------------------------------

def out_masks(n: int, arcs) -> list[int]:
    outs = [0] * n
    for u, v in arcs:
        outs[u] |= 1 << v
    return outs


def in_masks(n: int, arcs) -> list[int]:
    ins = [0] * n
    for u, v in arcs:
        ins[v] |= 1 << u
    return ins


def is_acyclic_on(outs, members) -> bool:
    """Grey/black depth-first search restricted to ``members``."""
    members = set(members)
    state = dict.fromkeys(members, 0)
    for root in members:
        if state[root]:
            continue
        stack = [(root, iter(_bits(outs[root])))]
        state[root] = 1
        while stack:
            v, it = stack[-1]
            for w in it:
                if w not in members:
                    continue
                if state[w] == 1:
                    return False
                if state[w] == 0:
                    state[w] = 1
                    stack.append((w, iter(_bits(outs[w]))))
                    break
            else:
                state[v] = 2
                stack.pop()
    return True


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def proper_dicolouring(n: int, arcs, assignment) -> bool:
    if len(assignment) != n:
        return False
    outs = out_masks(n, arcs)
    classes: dict[int, list[int]] = {}
    for v, c in enumerate(assignment):
        classes.setdefault(c, []).append(v)
    return all(is_acyclic_on(outs, cls) for cls in classes.values())


def proper_colouring(n: int, edges, assignment) -> bool:
    return len(assignment) == n and all(assignment[u] != assignment[v] for u, v in edges)


def set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1:]
        yield [[first]] + part


def dichromatic_by_partitions(n: int, arcs) -> int:
    """Fewest blocks over all set partitions into acyclic blocks (n <= 7)."""
    if n == 0:
        return 0
    outs = out_masks(n, arcs)
    best = n
    for part in set_partitions(list(range(n))):
        if len(part) < best and all(is_acyclic_on(outs, b) for b in part):
            best = len(part)
    return best


def _closes_cycle(outs, ins, cls: int, v: int) -> bool:
    """Whether v joined to the acyclic vertex set ``cls`` lies on a cycle:
    some in-neighbour of v in cls is reachable inside cls from some
    out-neighbour of v."""
    goal = ins[v] & cls
    seen = outs[v] & cls
    if not goal or not seen:
        return False
    todo = seen
    while todo:
        if todo & goal:
            return True
        low = todo & -todo
        todo ^= low
        fresh = outs[low.bit_length() - 1] & cls & ~seen
        seen |= fresh
        todo |= fresh
    return False


def k_dicolourable(n: int, arcs, k: int) -> bool:
    """Backtracking over colour classes; vertices in decreasing order of
    out-degree times in-degree, and a vertex may open at most one new
    class."""
    outs, ins = out_masks(n, arcs), in_masks(n, arcs)
    order = sorted(range(n), key=lambda v: (-(bin(outs[v]).count("1") * bin(ins[v]).count("1")), -v))
    classes = [0] * k

    def place(i: int, opened: int) -> bool:
        if i == n:
            return True
        v = order[i]
        for c in range(min(opened + 1, k)):
            if _closes_cycle(outs, ins, classes[c], v):
                continue
            classes[c] |= 1 << v
            if place(i + 1, max(opened, c + 1)):
                return True
            classes[c] &= ~(1 << v)
        return False

    return place(0, 0)


def dichromatic_by_search(n: int, arcs) -> int:
    k = 0 if n == 0 else 1
    while n and not k_dicolourable(n, arcs, k):
        k += 1
    return k


def inout_degeneracy(n: int, arcs) -> int:
    """max over induced subdigraphs H of min over v of min(d+_H, d-_H),
    by repeatedly deleting a vertex where that minimum is smallest."""
    outs, ins = out_masks(n, arcs), in_masks(n, arcs)
    alive = set(range(n))
    alive_mask = (1 << n) - 1
    best = 0
    while alive:
        v = min(alive, key=lambda w: (min(bin(outs[w] & alive_mask).count("1"),
                                          bin(ins[w] & alive_mask).count("1")), w))
        best = max(best, min(bin(outs[v] & alive_mask).count("1"),
                             bin(ins[v] & alive_mask).count("1")))
        alive.discard(v)
        alive_mask &= ~(1 << v)
    return best


def degeneracy(n: int, edges) -> int:
    arcs = list(edges) + [(v, u) for u, v in edges]
    return inout_degeneracy(n, arcs)


# --- list colouring -------------------------------------------------------

def list_assignments(n: int, k: int):
    """Every k-list assignment on n vertices up to renaming of colours, as
    a tuple of colour columns: column c is the set (bitmask) of vertices
    whose list holds colour c. Columns are emitted in non-increasing
    order, so each multiset appears once."""
    need = [k] * n

    def rec(limit: int, cols: list[int]):
        open_mask = sum(1 << v for v in range(n) if need[v])
        if not open_mask:
            yield tuple(cols)
            return
        # The next column is the largest one left, so it holds the highest
        # vertex still short of colours; columns never exceed the last one.
        top = 1 << (open_mask.bit_length() - 1)
        sub = open_mask
        while sub:
            if sub & top and sub <= limit:
                for v in _bits(sub):
                    need[v] -= 1
                cols.append(sub)
                yield from rec(sub, cols)
                cols.pop()
                for v in _bits(sub):
                    need[v] += 1
            sub = (sub - 1) & open_mask

    yield from rec((1 << n) - 1, [])


def lists_of(n: int, columns) -> list[list[int]]:
    lists = [[] for _ in range(n)]
    for c, col in enumerate(columns):
        for v in _bits(col):
            lists[v].append(c)
    return lists


def list_colourable(lists, class_ok) -> bool:
    """Whether some choice of one colour per vertex from its list makes
    every colour class pass ``class_ok`` (a predicate on vertex lists)."""
    n = len(lists)
    choice = [0] * n

    def rec(i: int) -> bool:
        if i == n:
            classes: dict[int, list[int]] = {}
            for v, c in enumerate(choice):
                classes.setdefault(c, []).append(v)
            return all(class_ok(cls) for cls in classes.values())
        for c in lists[i]:
            choice[i] = c
            if rec(i + 1):
                return True
        return False

    return rec(0)


def acyclic_class_test(n: int, arcs):
    outs = out_masks(n, arcs)
    return lambda cls: is_acyclic_on(outs, cls)


def independent_class_test(n: int, edges):
    adj = out_masks(n, list(edges) + [(v, u) for u, v in edges])
    return lambda cls: not any(adj[v] >> w & 1 for v in cls for w in cls)


def every_assignment_colourable(n: int, k: int, class_ok) -> bool:
    return all(list_colourable(lists_of(n, cols), class_ok)
               for cols in list_assignments(n, k))


# --- bicliques in orientations of complete bipartite graphs -------------

def _longest_chain(masks: list[int]) -> int:
    """Longest chain under inclusion in a list of sets (bitmasks)."""
    masks = sorted(masks, key=lambda m: bin(m).count("1"))
    best = [1] * len(masks)
    for i, m in enumerate(masks):
        for j in range(i):
            if masks[j] & ~m == 0 and best[j] + 1 > best[i]:
                best[i] = best[j] + 1
    return max(best, default=0)


def has_acyclic_biclique(side_a, side_b, arcs, l: int) -> bool:
    """Whether some S in side_a and T in side_b, both of size l, span an
    acyclic set of cross arcs, for an orientation of the complete
    bipartite graph between the sides. The cross arcs of (S, T) form a
    bipartite tournament, which is acyclic iff it has no directed 4-cycle,
    i.e. iff the sets N+(s) & T (s in S) are nested; so S exists for T iff
    the sets N+(a) & T over a in side_a hold a chain of length l."""
    pos = {b: i for i, b in enumerate(side_b)}
    outs = {a: 0 for a in side_a}
    for u, v in arcs:
        if u in outs and v in pos:
            outs[u] |= 1 << pos[v]
    for t in combinations(range(len(side_b)), l):
        tm = sum(1 << i for i in t)
        if _longest_chain([outs[a] & tm for a in side_a]) >= l:
            return True
    return False


# --- analytic bounds ------------------------------------------------------

def g_bound(l1, l2, n, s, t, u) -> float:
    return math.exp(u * math.log(s) - 0.5 * n * 2.0 ** (-4.0 * l2 * t * u / ((l1 - l2) * n)))


def concentration_bound(n, c, t) -> float:
    return 2.0 * math.exp(-(t * t) / (2.0 * c * c * n))


def expected_avoiding(m, u, k, a) -> float:
    return 0.0 if a + k > u else m * math.comb(u - a, k) / math.comb(u, k)
