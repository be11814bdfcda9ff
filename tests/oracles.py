"""Test-only reference implementations.

``brute_na_minimum`` shares no code with ``gridnet``.  ``plain_search_slice``
is the search loop without the orbit memo: one BFS per candidate, through
gridnet's generators, row builders and ``bounded_diameter``.  The
summation forms
of the Moore bounds, the arc-relaxation distance oracle and the
isomorphism test use only gridnet's error types, ``Digraph`` accessors and,
for the isomorphism invariants, its plain BFS.

Import from test modules as ``from oracles import ...``; pytest puts the
``tests`` directory on ``sys.path`` for them.
"""

from collections import Counter, deque
from itertools import islice, product
from typing import Optional

from gridnet.bounds import BoundsError
from gridnet.families import FAMILIES
from gridnet.graphs import Digraph, GraphError, _bfs_dist, bounded_diameter
from gridnet.search import WITNESS_CAP

ISO_ORDER_CAP = 128
ORACLE_ORDER_CAP = 512


def brute_na_minimum(n):
    """Independent oracle: full product enumeration, plain BFS, no pruning.

    Enumerates every New Amsterdam step set at order n as the README defines
    the family (all steps odd, alpha != beta, step sum 0 mod n) and returns
    the least diameter among the strongly connected ones.
    """

    def diam(out):
        best = 0
        for s in range(n):
            dist = [-1] * n
            dist[s] = 0
            q = deque([s])
            while q:
                u = q.popleft()
                for v in out[u]:
                    if dist[v] < 0:
                        dist[v] = dist[u] + 1
                        q.append(v)
            if min(dist) < 0:
                return None
            best = max(best, max(dist))
        return best

    best = None
    for a, b, g, d in product(range(1, n, 2), repeat=4):
        if a == b or (a + b + g + d) % n:
            continue
        out = [
            tuple({(i + a) % n, (i + b) % n})
            if i % 2 == 0
            else tuple({(i + g) % n, (i + d) % n})
            for i in range(n)
        ]
        dd = diam(out)
        if dd is not None and (best is None or dd < best):
            best = dd
    return best


def plain_search_slice(family, n, stop, mod4_filter):
    """``search._run_search`` without the orbit memo: BFS on every candidate.

    ``stop`` None evaluates every candidate, otherwise the first ``stop``.
    """
    fam = FAMILIES[family]
    generate = fam.candidates
    candidates = generate(n, mod4_filter=True) if mod4_filter else generate(n)
    sources = range(fam.period)
    best = None
    optima = []
    n_optima = 0
    examined = 0
    for steps in islice(candidates, stop):
        examined += 1
        d = bounded_diameter(fam.rows(n, steps), n, best, sources)
        if d is None:
            continue
        if best is None or d < best:
            best = d
            optima = [steps]
            n_optima = 1
        elif d == best:
            n_optima += 1
            if len(optima) < WITNESS_CAP:
                optima.append(steps)
    return best, optima, n_optima, examined


def moore_ds_sum(k: int) -> int:
    """Summation form 1 + sum_{n=1..k} 4n."""
    if k < 0:
        raise BoundsError(f"diameter must be non-negative, got {k}")
    return 1 + sum(4 * n for n in range(1, k + 1))


def moore_na_sum(k: int) -> int:
    """Summation forms: 2(1 + sum 4m) for odd k = 2n+1, 2 sum (4m-2) for even k = 2n."""
    if k < 1:
        raise BoundsError(f"diameter must be at least 1, got {k}")
    if k % 2 == 1:
        n = (k - 1) // 2
        return 2 * (1 + sum(4 * m for m in range(1, n + 1)))
    n = k // 2
    return 2 * sum(4 * m - 2 for m in range(1, n + 1))


def moore_mh_sum(k: int) -> int:
    """Doubling form: a Manhattan digraph is a line digraph of a New
    Amsterdam digraph one diameter down, so the bound is 2*moore_na(k-1)."""
    if k < 2:
        raise BoundsError(f"diameter must be at least 2, got {k}")
    return 2 * moore_na_sum(k - 1)


def all_pairs_oracle(g: Digraph) -> tuple[tuple[Optional[int], ...], ...]:
    """Exact distance matrix by iterated arc relaxation (independent of BFS).

    O(N^3)-ish; capped at order 512.
    """
    n = g.order
    if n > ORACLE_ORDER_CAP:
        raise GraphError(f"order {n} exceeds oracle cap {ORACLE_ORDER_CAP}")
    inf = n  # any finite distance is < n
    arcs = list(g.arcs())
    rows = []
    for i in range(n):
        d = [inf] * n
        d[i] = 0
        changed = True
        while changed:
            changed = False
            for u, v in arcs:
                du = d[u]
                if du + 1 < d[v]:
                    d[v] = du + 1
                    changed = True
        rows.append(tuple(x if x < inf else None for x in d))
    return tuple(rows)


def _vertex_invariants(g: Digraph) -> list[tuple]:
    indeg = g.in_degrees()
    eccs = []
    for v in range(g.order):
        raw = _bfs_dist(g.out_arcs, g.order, v)
        eccs.append(max(raw) if min(raw) >= 0 else -1)
    return [
        (len(g.out_arcs[v]), indeg[v], eccs[v]) for v in range(g.order)
    ]


def are_isomorphic(g1: Digraph, g2: Digraph, cap: int = ISO_ORDER_CAP) -> bool:
    """Backtracking isomorphism test with invariant pruning; orders <= cap."""
    if g1.order > cap or g2.order > cap:
        raise GraphError(f"order exceeds isomorphism cap {cap}")
    if g1.order != g2.order or g1.arc_count != g2.arc_count:
        return False
    inv1 = _vertex_invariants(g1)
    inv2 = _vertex_invariants(g2)
    if Counter(inv1) != Counter(inv2):
        return False

    n = g1.order
    adj1 = [frozenset(h) for h in g1.out_arcs]
    adj2 = [frozenset(h) for h in g2.out_arcs]
    # Most-constrained-first: rarest invariant classes early.
    class_size = Counter(inv1)
    order1 = sorted(range(n), key=lambda v: (class_size[inv1[v]], v))
    cands = {v: [w for w in range(n) if inv2[w] == inv1[v]] for v in order1}

    mapping: dict[int, int] = {}
    used = [False] * n

    def extend(idx: int) -> bool:
        if idx == n:
            return True
        v = order1[idx]
        for w in cands[v]:
            if used[w]:
                continue
            ok = True
            for u, x in mapping.items():
                if ((v in adj1[u]) != (w in adj2[x])) or (
                    (u in adj1[v]) != (x in adj2[w])
                ):
                    ok = False
                    break
            if (v in adj1[v]) != (w in adj2[w]):
                ok = False
            if not ok:
                continue
            mapping[v] = w
            used[w] = True
            if extend(idx + 1):
                return True
            del mapping[v]
            used[w] = False
        return False

    return extend(0)
