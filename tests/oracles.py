"""Independent reference implementations used only by the tests.

Everything here is deliberately brute-force and shares no code with the
package: acyclicity by topological permutation search or by three-state
depth-first search, colouring numbers by assignment enumeration, induced
forests by counting edges against components, acyclic orientation counts
by the chromatic polynomial, canonical forms of graph and digraph masks
by trying every relabelling, graph isomorphism by backtracking over
vertex images, digraph products by testing every pair of product
vertices against the definition.
"""

from collections import defaultdict
from itertools import combinations, permutations, product


def acyclic_by_permutation(n, arcs):
    """A digraph is acyclic iff some vertex order makes every arc forward."""
    arcs = list(arcs)
    for perm in permutations(range(n)):
        pos = {v: i for i, v in enumerate(perm)}
        if all(pos[u] < pos[v] for u, v in arcs):
            return True
    return False


def acyclic_by_dfs(n, arcs):
    """Cycle detection by grey/black depth-first search."""
    adj = defaultdict(list)
    for u, v in arcs:
        adj[u].append(v)
    state = [0] * n

    def visit(v):
        state[v] = 1
        for w in adj[v]:
            if state[w] == 1:
                return False
            if state[w] == 0 and not visit(w):
                return False
        state[v] = 2
        return True

    return all(state[v] != 0 or visit(v) for v in range(n))


def induced_arcs(arcs, block):
    block = set(block)
    return [(u, v) for u, v in arcs if u in block and v in block]


def relabel(arcs, block):
    order = sorted(block)
    pos = {v: i for i, v in enumerate(order)}
    return len(order), [(pos[u], pos[v]) for u, v in induced_arcs(arcs, block)]


def brute_maximal_acyclic_sets(n, arcs):
    """Subset enumeration plus an explicit maximality filter."""
    acyclic = []
    for r in range(n + 1):
        for sub in combinations(range(n), r):
            if acyclic_by_permutation(*relabel(arcs, sub)):
                acyclic.append(frozenset(sub))
    acyclic_set = set(acyclic)
    out = []
    for s in acyclic:
        if any(s < t for t in acyclic_set):
            continue
        out.append(s)
    return sorted(out, key=sorted)


def brute_chromatic(n, edges, max_k=None):
    if n == 0:
        return 0
    for k in range(1, (max_k or n) + 1):
        for assignment in product(range(k), repeat=n):
            if all(assignment[u] != assignment[v] for u, v in edges):
                return k
    raise AssertionError("no colouring found")


def brute_dichromatic(n, arcs, acyclic=acyclic_by_dfs):
    if n == 0:
        return 0
    for k in range(1, n + 1):
        for assignment in product(range(k), repeat=n):
            blocks = defaultdict(list)
            for v, c in enumerate(assignment):
                blocks[c].append(v)
            if all(acyclic(*relabel(arcs, b)) for b in blocks.values()):
                return k
    raise AssertionError("no dicolouring found")


def induces_forest(edges, subset):
    """S induces a forest iff |E(S)| = |S| - components(S), with the
    components found by union-find."""
    subset = set(subset)
    inside = [(u, v) for u, v in edges if u in subset and v in subset]
    parent = {v: v for v in subset}

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    components = len(subset)
    for u, v in inside:
        ru, rv = root(u), root(v)
        if ru != rv:
            parent[ru] = rv
            components -= 1
    return len(inside) == len(subset) - components


def brute_count_acyclic_orientations(n, edges):
    edges = list(edges)
    count = 0
    for bits in product((0, 1), repeat=len(edges)):
        arcs = [(v, u) if b else (u, v) for (u, v), b in zip(edges, bits)]
        if acyclic_by_dfs(n, arcs):
            count += 1
    return count


def chromatic_polynomial(n, edges, x):
    """Deletion-contraction; |P(-1)| counts acyclic orientations."""
    edges = tuple(sorted(set(tuple(sorted(e)) for e in edges)))
    if not edges:
        return x**n
    (u, v), rest = edges[0], edges[1:]
    deleted = chromatic_polynomial(n, rest, x)
    merged = []
    for a, b in rest:
        a2 = u if a == v else a
        b2 = u if b == v else b
        a2, b2 = (a2, b2) if a2 < b2 else (b2, a2)
        if a2 != b2:
            merged.append((a2, b2))
    # relabel the contracted vertex set down to 0..n-2
    used = sorted(set(range(n)) - {v})
    pos = {w: i for i, w in enumerate(used)}
    merged = [(pos[a], pos[b]) for a, b in merged]
    contracted = chromatic_polynomial(n - 1, merged, x)
    return deleted - contracted


def set_partitions(items):
    """All partitions of items into nonempty blocks."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1 :]
        yield [[first]] + part


def brute_covers_all_acyclic_partitions(n, arcs, members):
    """Every partition into acyclic blocks has all blocks inside members.

    Palette-indexed partitions with at least n colours add only empty
    parts, which every nonempty collection covers trivially, so plain set
    partitions decide the question.
    """
    member_sets = [set(m) for m in members]
    for part in set_partitions(list(range(n))):
        if not all(acyclic_by_dfs(*relabel(arcs, b)) for b in part):
            continue
        for block in part:
            if not any(set(block) <= m for m in member_sets):
                return False, part
    return True, None


def brute_semicovers_all_acyclic_partitions(n, arcs, members, lam):
    """Every partition of {1,2} x V(H), vertices 0..n/2-1 on the first side
    and n/2..n-1 on the second, into acyclic blocks has each block
    semicovered: both sides inside members, or one side inside a member
    and smaller than lam. Empty parts add nothing: with no members every
    part fails, the nonempty ones included, so plain set partitions decide
    the question, as for covers."""
    half = n // 2
    member_sets = [set(m) for m in members]

    def inside(side):
        return any(side <= m for m in member_sets)

    for part in set_partitions(list(range(n))):
        if not all(acyclic_by_dfs(*relabel(arcs, b)) for b in part):
            continue
        for block in part:
            first = {v for v in block if v < half}
            second = {v - half for v in block if v >= half}
            if not ((inside(first) and inside(second))
                    or any(inside(side) and len(side) < lam for side in (first, second))):
                return False, part
    return True, None


def brute_min_acyclic_parts(n, arcs):
    """Dichromatic number via set-partition enumeration."""
    if n == 0:
        return 0
    best = n
    for part in set_partitions(list(range(n))):
        if len(part) >= best:
            continue
        if all(acyclic_by_dfs(*relabel(arcs, b)) for b in part):
            best = len(part)
    return best


def _column_multisets(n, k):
    """Every k-list assignment on n vertices up to renaming colours: the
    multiset of colour columns (the vertex set whose lists hold a colour),
    listed in non-increasing order, covering each vertex exactly k times."""
    def rec(limit, cols, cover):
        if all(c == k for c in cover):
            yield list(cols)
            return
        for col in range(limit, 0, -1):
            members = [v for v in range(n) if col >> v & 1]
            if any(cover[v] == k for v in members):
                continue
            for v in members:
                cover[v] += 1
            cols.append(col)
            yield from rec(col, cols, cover)
            cols.pop()
            for v in members:
                cover[v] -= 1

    yield from rec((1 << n) - 1, [], [0] * n)


def _some_pick_passes(n, options, class_ok):
    """Some choice of one option per vertex gives classes (the vertices
    sharing a choice) that all pass class_ok."""
    return any(
        all(class_ok([v for v in range(n) if pick[v] == j]) for j in set(pick))
        for pick in product(*options)
    )


def _brute_list_number(n, class_ok):
    """Smallest k at which every k-list assignment admits a choice of one
    colour per vertex whose colour classes all pass class_ok."""
    if n == 0:
        return 0
    for k in range(1, n + 1):
        if all(
            _some_pick_passes(
                n, [[j for j, col in enumerate(cols) if col >> v & 1] for v in range(n)],
                class_ok)
            for cols in _column_multisets(n, k)
        ):
            return k
    raise AssertionError("no list size up to n accepts")


def _dicycle_free(arcs):
    return lambda block: acyclic_by_dfs(*relabel(arcs, block))


def brute_list_dicolourable(n, arcs, lists):
    """Some colour from each vertex's list leaves every colour class
    inducing an acyclic subdigraph."""
    return _some_pick_passes(n, [sorted(lst) for lst in lists], _dicycle_free(arcs))


def brute_list_dichromatic(n, arcs):
    return _brute_list_number(n, _dicycle_free(arcs))


def brute_list_chromatic(n, edges):
    return _brute_list_number(
        n, lambda block: not any(u in block and v in block for u, v in edges))


def brute_acyclic_biclique(n, arcs, l):
    """Every unordered pair {S, T} of disjoint l-sets, complete bipartite in
    the underlying graph, whose arcs between S and T form no directed
    cycle, as a set of frozensets of two frozensets."""
    arcs = list(arcs)
    linked = {frozenset(a) for a in arcs}
    found = set()
    for s in combinations(range(n), l):
        rest = [v for v in range(n) if v not in s]
        for t in combinations(rest, l):
            if any(frozenset((u, v)) not in linked for u in s for v in t):
                continue
            cross = [(u, v) for u, v in arcs if (u in s and v in t) or (u in t and v in s)]
            if acyclic_by_dfs(n, cross):
                found.add(frozenset((frozenset(s), frozenset(t))))
    return found


def brute_canonical_masks(n, masks, positions, symmetric):
    """Least mask over all vertex relabellings, for each input mask. Bit i
    of a mask stands for the vertex pair positions[i], unordered when
    symmetric."""
    index = {p: i for i, p in enumerate(positions)}
    bits = [[i for i in range(len(positions)) if mask >> i & 1] for mask in masks]
    best = list(masks)
    for perm in permutations(range(n)):
        image = []
        for u, v in positions:
            a, b = perm[u], perm[v]
            if symmetric and a > b:
                a, b = b, a
            image.append(1 << index[(a, b)])
        for j, on in enumerate(bits):
            best[j] = min(best[j], sum(map(image.__getitem__, on)))
    return best


def isomorphic_graphs(n, edges_a, edges_b):
    """Whether some vertex bijection maps edges_a onto edges_b, by a
    backtracking search: vertex v of a goes to an unused vertex of b of the
    same degree that is adjacent to the images of exactly the earlier
    vertices v is adjacent to."""
    if len(edges_a) != len(edges_b):
        return False
    adj_a = [set() for _ in range(n)]
    adj_b = [set() for _ in range(n)]
    for adj, edges in ((adj_a, edges_a), (adj_b, edges_b)):
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
    image = []

    def extend(v):
        if v == n:
            return True
        for w in range(n):
            if (w not in image and len(adj_b[w]) == len(adj_a[v])
                    and all((u in adj_a[v]) == (image[u] in adj_b[w]) for u in range(v))):
                image.append(w)
                if extend(v + 1):
                    return True
                image.pop()
        return False

    return extend(0)


def brute_digraph_product(kind, n1, arcs1, labels1, n2, arcs2, labels2):
    """Sorted arcs and labels of the "cartesian" or "tensor" product of two
    digraphs. Vertex (u, v) is numbered u * n2 + v and labelled
    "(label of u,label of v)". (u, v) -> (x, y) is an arc of the
    cartesian product when one coordinate is equal and the other moves
    along an arc of its factor, and of the tensor product when both move
    along arcs."""
    a1, a2 = set(arcs1), set(arcs2)
    pairs = list(product(range(n1), range(n2)))
    arcs = []
    for i, (u, v) in enumerate(pairs):
        for j, (x, y) in enumerate(pairs):
            if kind == "cartesian":
                joined = (u == x and (v, y) in a2) or (v == y and (u, x) in a1)
            else:
                joined = (u, x) in a1 and (v, y) in a2
            if joined:
                arcs.append((i, j))
    labels = [f"({labels1[u]},{labels2[v]})" for u, v in pairs]
    return arcs, labels
