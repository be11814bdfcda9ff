"""Test-only reference implementations.

``brute_na_minimum`` shares no code with ``gridnet``.  ``all_candidates``
lists a family's candidates by their keys, with none of the orbit walks'
loops.  ``plain_search_slice`` is the search loop without orbit
representatives or gauge orbits: one BFS per candidate, through
``all_candidates``, gridnet's step classes and ``bounded_diameter``.
``line_digraph_checks_per_candidate`` is ``verify line-digraph`` the same
way: two BFS per candidate, through the same enumeration, classes and
``line_classes``; ``sandwich_checks_per_candidate`` is ``verify sandwich``
with one ``check_diameter_sandwich`` per DS candidate.
``line_digraph_by_arcs`` builds a line digraph arc by arc, without the
line classes that ``graphs.line_digraph`` reads.  The paper's
condition systems of the step translations, and the residues, gauge
classes and class labels of the Manhattan mod-4 space, read only the
parameter records; ``gauge_closure`` finds an NA gauge orbit by search.
The summation forms of the Moore bounds, the arc-relaxation distance
oracle, the degree tests and the isomorphism test use only gridnet's error
types, ``Digraph`` accessors and, for the directed-cycle test and the
isomorphism invariants, its diameter and plain BFS.

Import from test modules as ``from oracles import ...``; pytest puts the
``tests`` directory on ``sys.path`` for them.
"""

import math
from collections import Counter, deque
from itertools import product
from typing import Optional

from gridnet.bounds import BoundsError
from gridnet.constructions import check_diameter_sandwich
from gridnet.families import (
    FAMILIES,
    DoubleStepGraph,
    ManhattanDigraph,
    NewAmsterdamDigraph,
    format_params,
)
from gridnet.graphs import (
    Digraph,
    GraphError,
    _bfs_dist,
    bounded_diameter,
    diameter,
    line_classes,
)
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


def all_candidates(fam, n):
    """Every candidate of family class ``fam`` at order n once, in key order.

    The key's steps run over their ranges in lexicographic order, the
    other steps follow from them, and the tuples that break the family's
    conditions or the record's canonical order are dropped.  DS: 1 <= a <
    b <= N/2 with gcd(N, a, b) = 1.  NA: odd alpha < beta and odd gamma,
    delta = -(alpha+beta+gamma), kept when gamma <= delta.  MH: odd a0, a2,
    a1, b0, b1 with b0 != a0 and b1 != a1, and b2, a3, b3 from the sums.
    """
    odds = range(1, n, 2)
    if fam.tag == "ds":
        half = range(1, n // 2 + 1)
        for a, b in product(half, repeat=2):
            if a < b and math.gcd(n, a, b) == 1:
                yield (a, b)
    elif fam.tag == "na":
        for alpha, beta, gamma in product(odds, repeat=3):
            delta = -(alpha + beta + gamma) % n
            if alpha < beta and gamma <= delta:
                yield (alpha, beta, gamma, delta)
    else:
        for a0, a2, a1, b0, b1 in product(odds, repeat=5):
            if b0 != a0 and b1 != a1:
                s = a0 + a2
                yield (a0, b0, a1, b1, a2, (s - b0) % n, (-s - a1) % n, (-s - b1) % n)


def plain_search_slice(family, n, in_space=None):
    """``search._minimise`` without orbit representatives: BFS on every candidate.

    ``in_space``, when given, keeps only the candidates it accepts; with
    ``in_mod4_space`` this is ``_minimise`` over ``Mod4ManhattanDigraph``
    without gauge orbits.
    """
    fam = FAMILIES[family]
    candidates = all_candidates(fam, n)
    if in_space is not None:
        candidates = filter(in_space, candidates)
    best = None
    optima = []
    n_optima = 0
    examined = 0
    for steps in candidates:
        examined += 1
        d = bounded_diameter(fam.classes(n, steps), n, best)
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


def line_digraph_checks_per_candidate(n, kernel=bounded_diameter):
    """``verify line-digraph`` at order n without orbits: (checks, FAIL lines).

    Two BFS by ``kernel`` per candidate.  A candidate is checked when its
    line digraph has order 2N (the NA digraph is 2-regular) and its digraph
    is strongly connected; it fails unless D(L) = D + 1.
    """
    na = NewAmsterdamDigraph
    checks = 0
    failed = []
    for steps in all_candidates(na, n):
        classes = na.classes(n, steps)
        line, order = line_classes(classes, n)
        if order != 2 * n:
            continue
        d = kernel(classes, n, None)
        if d is None:
            continue
        checks += 1
        if kernel(line, order, None) != d + 1:
            failed.append(f"FAIL line-digraph {format_params(na(n, *steps))}")
    return checks, failed


def sandwich_checks_per_candidate(n, sandwich=check_diameter_sandwich):
    """``verify sandwich`` at order n without orbits: (checks, FAIL lines).

    One ``sandwich`` report per DS candidate, in enumeration order, and one
    check per derived digraph; a check fails when its diameter leaves the
    report's range.
    """
    ds = DoubleStepGraph
    checks = 0
    failed = []
    for steps in all_candidates(ds, n):
        p = ds(n, *steps)
        r = sandwich(p)
        checks += len(r.checks)
        failed += [
            f"FAIL {kind} {format_params(p)}: k={r.k} "
            f"derived={derived} not in [{low},{high}]"
            for kind, derived, low, high in r.checks
            if not low <= derived <= high
        ]
    return checks, failed


def line_digraph_by_arcs(g):
    """The line digraph built arc by arc: one vertex per arc, numbered by
    (tail, out-list position), and arc u -> v leads to every arc out of v."""
    if g.arc_count == 0:
        raise GraphError("line digraph of an arcless digraph is undefined")
    succ = []
    total = 0
    for heads in g.out_arcs:
        succ.append(tuple(range(total, total + len(heads))))
        total += len(heads)
    return Digraph(total, tuple(succ[v] for heads in g.out_arcs for v in heads))


def check_na_conditions(ds: DoubleStepGraph, na: NewAmsterdamDigraph) -> list[str]:
    """Violations of the ds->na condition system for an arbitrary NA candidate.

    (i) all steps odd; (ii) alpha+gamma = -beta-delta = 2a;
    (iii) beta+gamma = -alpha-delta = 2b (all mod N_NA).
    """
    failures: list[str] = []
    n = na.n
    if n != 2 * ds.n:
        failures.append(f"order {n} != 2*{ds.n}")
        return failures
    if any(s % 2 == 0 for s in na.steps):
        failures.append("(i) some step is even")
    a2, b2 = (2 * ds.a) % n, (2 * ds.b) % n
    alpha, beta, gamma, delta = na.steps
    if (alpha + gamma) % n != a2 or (-(beta + delta)) % n != a2:
        failures.append("(ii) alpha+gamma = -beta-delta = 2a fails")
    if (beta + gamma) % n != b2 or (-(alpha + delta)) % n != b2:
        failures.append("(iii) beta+gamma = -alpha-delta = 2b fails")
    return failures


def check_mh_conditions(na: NewAmsterdamDigraph, mh: ManhattanDigraph) -> list[str]:
    """Violations of the na->mh condition system for an arbitrary MH candidate.

    (i) all steps odd; (ii) a0+a2 = -(a1+a3) = b0+b2 = -(b1+b3);
    (iii) a0+a1 = 2alpha, b1+b2 = 2beta, b3-a1 = 2delta, b0-a0 = 2gamma
    (all mod N_MH).
    """
    failures: list[str] = []
    n = mh.n
    if n != 2 * na.n:
        failures.append(f"order {n} != 2*{na.n}")
        return failures
    if any(s % 2 == 0 for s in mh.steps):
        failures.append("(i) some step is even")
    s = (mh.a0 + mh.a2) % n
    if not (
        (-(mh.a1 + mh.a3)) % n == s
        and (mh.b0 + mh.b2) % n == s
        and (-(mh.b1 + mh.b3)) % n == s
    ):
        failures.append("(ii) a0+a2 = -(a1+a3) = b0+b2 = -(b1+b3) fails")
    pairs = (
        ("a0+a1 = 2alpha", mh.a0 + mh.a1, 2 * na.alpha),
        ("b1+b2 = 2beta", mh.b1 + mh.b2, 2 * na.beta),
        ("b3-a1 = 2delta", mh.b3 - mh.a1, 2 * na.delta),
        ("b0-a0 = 2gamma", mh.b0 - mh.a0, 2 * na.gamma),
    )
    for label, lhs, rhs in pairs:
        if lhs % n != rhs % n:
            failures.append(f"(iii) {label} fails")
    return failures


def in_mod4_space(steps: tuple[int, ...]) -> bool:
    """Whether Manhattan steps (a0, b0, ..., a3, b3), N a multiple of 4,
    have a_j = 3 and b_j = 1 (mod 4): the space that ``search_mh``
    searches by default."""
    a0, b0, a1, b1, a2, b2, a3, b3 = steps
    return (a0 % 4 == a1 % 4 == a2 % 4 == a3 % 4 == 3
            and b0 % 4 == b1 % 4 == b2 % 4 == b3 % 4 == 1)


def gauge(n: int, steps: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    """Manhattan steps after relabelling each vertex v by v + g[v % 4].

    Each g_r must be 0 (mod 4), so that residues stay put.  A step s out of
    residue r, which leads to residue r' = r + s, becomes s + g_r' - g_r;
    residue r steps by the pair of class -r (mod 4).
    """
    out = []
    for i, s in enumerate(steps):
        r = -(i // 2) % 4
        out.append((s + g[(r + s) % 4] - g[r]) % n)
    return tuple(out)


def na_gauge(n: int, steps: tuple[int, ...], e: int) -> tuple[int, ...]:
    """New Amsterdam steps after relabelling each odd vertex v by v + e.

    e must be even, so that parities stay put.  The steps out of the even
    vertices lead to odd ones and gain e; those out of the odd vertices
    lose it.
    """
    alpha, beta, gamma, delta = steps
    return ((alpha + e) % n, (beta + e) % n, (gamma - e) % n, (delta - e) % n)


def gauge_class(n: int, steps: tuple[int, ...]) -> frozenset:
    """Every gauge image of Manhattan steps: g_0 = 0 and g_1, g_2, g_3 free
    multiples of 4 (a common shift of all four is a translation)."""
    return frozenset(
        gauge(n, steps, (0, *g)) for g in product(range(0, n, 4), repeat=3)
    )


def mod4_na_class(n: int, steps: tuple[int, ...]) -> tuple[int, int]:
    """The label (s, t) = ((a0+a2+a1-b0)/4, (b1+a0)/4) mod N/4 of mod-4
    Manhattan steps: ``gauge`` keeps both sums, so it names the gauge class,
    and class (s, t) is the line digraph of NA gauge class (s, t) of order
    N/2 (README)."""
    a0, b0, a1, b1, a2 = steps[:5]
    return (a0 + a2 + a1 - b0) % n // 4, (b1 + a0) % n // 4


def gauge_closure(m: int, s: int, t: int) -> frozenset:
    """The NA gauge classes of Z_m^2 reachable from (s, t) by x -> ux for the
    units u of Z_m, (s, t) -> (t, s) and (s, t) -> (s, -t), found by search."""
    units = [u for u in range(m) if math.gcd(u, m) == 1]
    start = (s % m, t % m)
    reached, todo = {start}, [start]
    while todo:
        x, y = todo.pop()
        for image in [(u * x % m, u * y % m) for u in units] + [(y, x), (x, -y % m)]:
            if image not in reached:
                reached.add(image)
                todo.append(image)
    return frozenset(reached)


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


def achievable_range_na_closed(d: int) -> tuple[int, int]:
    """The paper's NA order range at diameter d, as its closed form.

    Odd d >= 3: (d-1)^2 - 2d + 10 <= N <= d^2 + 1.
    Even d >= 2: d^2 - 2d + 4 <= N <= d^2 - 2d + 6 (the missing order).
    """
    if d < (3 if d % 2 else 2):
        raise BoundsError(f"no NA order range at diameter {d}")
    if d % 2:
        return ((d - 1) ** 2 - 2 * d + 10, d * d + 1)
    return (d * d - 2 * d + 4, d * d - 2 * d + 6)


def achievable_range_mh_closed(d: int) -> tuple[int, int]:
    """The paper's MH order range at diameter d, as its closed form.

    Even d >= 4: 2[(d-2)^2 - 2(d-1) + 10] <= N <= 2[(d-1)^2 + 1].
    Odd d >= 5: 2[(d-1)^2 - 2(d-1) + 4] <= N <= 2[(d-1)^2 - 2(d-1) + 6]
    (the missing order).
    """
    if d < (5 if d % 2 else 4):
        raise BoundsError(f"no MH order range at diameter {d}")
    if d % 2 == 0:
        return (2 * ((d - 2) ** 2 - 2 * (d - 1) + 10), 2 * ((d - 1) ** 2 + 1))
    e = (d - 1) ** 2 - 2 * (d - 1)
    return (2 * (e + 4), 2 * (e + 6))


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


def _in_degrees(g: Digraph) -> list[int]:
    indeg = [0] * g.order
    for heads in g.out_arcs:
        for v in heads:
            indeg[v] += 1
    return indeg


def is_regular(g: Digraph) -> Optional[int]:
    """The common out/in-degree if the digraph is regular, else None."""
    degs = {*map(len, g.out_arcs), *_in_degrees(g)}
    return degs.pop() if len(degs) == 1 else None


def is_directed_cycle(g: Digraph) -> bool:
    return (
        all(len(heads) == 1 for heads in g.out_arcs)
        and diameter(g) is not None
    )


def _vertex_invariants(g: Digraph) -> list[tuple]:
    indeg = _in_degrees(g)
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
