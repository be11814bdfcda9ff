"""Generic digraph core.

Immutable adjacency-list digraphs plus all distance machinery used by the
step-graph families: BFS distance profiles, line digraph, and
byte-deterministic DOT / JSON exports, and two diameter routines that
answer different questions by different algorithms.  ``bounded_diameter``
is the search kernel: bit-parallel BFS on a step digraph given by its step
classes, from one vertex per translation class, with an early exit at a
limit; ``step_rows`` and ``line_classes`` give the rows and the line
digraph of such a digraph.
``reach_diameter`` certifies a step digraph given by the same classes by
reach sets from every vertex, one set per translation class and one level
loop for every period, without calling it; ``diameter`` is its case of one
class per vertex, for any ``Digraph``, such as one read as JSON.  The
independent all-pairs distance oracle, the regularity and directed-cycle
tests and the isomorphism test that the suite checks these against live in
``tests/oracles.py``.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from typing import Iterator, NamedTuple, Optional, Sequence


class GridnetError(ValueError):
    """Base of the errors the library raises for invalid input: the CLI
    reports any of them as a validation failure."""


class GraphError(GridnetError):
    """Raised for malformed digraphs or out-of-contract arguments."""


class _DigraphFields(NamedTuple):
    order: int
    out_arcs: tuple[tuple[int, ...], ...]


class Digraph(_DigraphFields):
    """Immutable digraph on vertices 0..order-1 with ordered out-lists.

    Parallel arcs are forbidden; loops are representable but never produced
    by the step-graph families.
    """

    __slots__ = ()

    def __new__(cls, order: int, out_arcs: tuple[tuple[int, ...], ...]) -> "Digraph":
        if order < 1:
            raise GraphError(f"order must be positive, got {order}")
        if len(out_arcs) != order:
            raise GraphError(f"out_arcs has {len(out_arcs)} rows for order {order}")
        for u, heads in enumerate(out_arcs):
            if len(set(heads)) != len(heads):
                raise GraphError(f"duplicate out-arcs at vertex {u}: {heads}")
            for v in heads:
                if not 0 <= v < order:
                    raise GraphError(f"arc {u}->{v} out of range 0..{order - 1}")
        return tuple.__new__(cls, (order, out_arcs))

    @classmethod
    def _make(cls, iterable):  # so that _make and _replace check too
        return cls(*iterable)

    @classmethod
    def from_lists(cls, order: int, lists: Sequence[Sequence[int]]) -> "Digraph":
        return cls(order, tuple(tuple(heads) for heads in lists))

    @property
    def arc_count(self) -> int:
        return sum(len(heads) for heads in self.out_arcs)

    def arcs(self) -> Iterator[tuple[int, int]]:
        """Arcs in the fixed order: by tail, then out-list position."""
        for u, heads in enumerate(self.out_arcs):
            for v in heads:
                yield (u, v)


class DistanceProfile(NamedTuple):
    """Single-source BFS result.

    ``dist`` entries are exact shortest-path lengths, with None marking
    unreachable vertices.  ``eccentricity`` is the largest distance, or None
    when some vertex is unreachable (the convention of ``diameter``).
    ``farthest`` holds every vertex attaining it: the unreachable vertices
    in the None case, and {source} for the one-vertex digraph.
    """

    source: int
    dist: tuple[Optional[int], ...]
    eccentricity: Optional[int]
    farthest: frozenset[int]


def _bfs_dist(out_arcs: Sequence[Sequence[int]], n: int, source: int) -> list[int]:
    """Distance vector with -1 for unreachable."""
    dist = [-1] * n
    dist[source] = 0
    queue = deque((source,))
    while queue:
        u = queue.popleft()
        du1 = dist[u] + 1
        for v in out_arcs[u]:
            if dist[v] < 0:
                dist[v] = du1
                queue.append(v)
    return dist


def bfs_profile(g: Digraph, source: int) -> DistanceProfile:
    if not 0 <= source < g.order:
        raise GraphError(f"source {source} out of range for order {g.order}")
    raw = _bfs_dist(g.out_arcs, g.order, source)
    dist = tuple(d if d >= 0 else None for d in raw)
    ecc = None if None in dist else max(dist)
    farthest = frozenset(v for v, d in enumerate(dist) if d == ecc)
    return DistanceProfile(source, dist, ecc, farthest)


def diameter(g: Digraph) -> Optional[int]:
    """Max eccentricity over all sources, or None when not strongly connected.

    reach_diameter with every vertex its own class (_vertex_classes), so
    every rotation is by 0.
    """
    return reach_diameter(_vertex_classes(g), g.order)


def _vertex_classes(g: Digraph) -> list[list[int]]:
    """g as a step digraph of period N: row u's steps are (v - u) mod N."""
    n = g.order
    return [[(v - u) % n for v in heads] for u, heads in enumerate(g.out_arcs)]


def reach_diameter(classes: Sequence[Sequence[int]], n: int) -> Optional[int]:
    """Diameter of the step digraph on Z_n with these classes, or None.

    The digraph is bounded_diameter's: vertex i steps to i + x (mod n) for
    each x in ``classes[i % p]``, where p = len(classes) divides n.  Shifting
    by a multiple m of p is an automorphism (the digraph is a Z_{n/p}-lift
    of one on Z_p), so the reach set of vertex c + m is that of c rotated
    by m, and the p sets of the vertices 0..p-1 carry them all.
    ``reach[r]`` is the bit set of the vertices within k arcs of r.  Each
    out-neighbour v = r + x is the head (c, m), c = v mod p and m = v - c,
    and one level ORs into ``reach[r]`` the set of c rotated by m: shifted
    left by m, the carry past bit n folded back once.  The diameter is the
    first k at which every set is full; a level that changes no set before
    that means some vertex never reaches some other, and None is returned.
    This costs D * (p + arcs out of 0..p-1) big-int ORs and shares no code
    with ``bounded_diameter``, so it certifies what the searches find by a
    second algorithm.
    """
    p = len(classes)
    full = (1 << n) - 1
    heads = [[(v % p, v - v % p) for v in ((r + x) % n for x in steps)]
             for r, steps in enumerate(classes)]
    reach = [1 << r for r in range(p)]
    k = 0
    while any(s != full for s in reach):
        level = []
        for s, row in zip(reach, heads):
            for c, m in row:
                s |= reach[c] << m
            level.append(s & full | s >> n)
        if level == reach:
            return None
        reach = level
        k += 1
    return k


@lru_cache(maxsize=32)
def period_layout(n: int, p: int) -> tuple[int, int, tuple[int, ...]]:
    """(sources, full, class masks) of the period BFS on Z_n with period p.

    Source s, vertex s, owns the bits [2ns, 2ns + n), one per vertex, and
    the n bits above them take the carry of a shift.  ``full`` sets every
    vertex bit of every block; class mask r the bits of the vertices i = r
    (mod p).  p must divide n.
    """
    blocks = sum(1 << 2 * n * s for s in range(p))
    sources = sum(1 << (2 * n + 1) * s for s in range(p))
    residue = int("1".rjust(p, "0") * (n // p), 2) * blocks
    return sources, ((1 << n) - 1) * blocks, tuple(residue << r for r in range(p))


def bounded_diameter(
    classes: Sequence[Sequence[int]], n: int, limit: Optional[int]
) -> Optional[int]:
    """Diameter of the step digraph on Z_n with these classes, or None.

    Vertex i steps to i + x (mod n) for each x in ``classes[i % p]``, the
    steps residues 0..n-1 that may repeat, and p = len(classes) divides n.
    Shifting every vertex by p is then an automorphism, so the sources
    0..p-1 represent every vertex: their largest eccentricity is the
    diameter, and the digraph is strongly connected iff they reach every
    vertex.  None means it is not, or the diameter exceeds ``limit``.

    BFS runs from all p sources at once on one int laid out by the cached
    period_layout(n, p), so a search over one order lays it out once.  Each
    class mask is paired with its steps once per call.  One level shifts
    the frontier's slice of each class by each of its steps, folds the
    carry back once and keeps the new bits.  It stops as soon as the next
    level would pass ``limit``.  That early exit is what makes the
    exhaustive step searches affordable; it never changes which candidates
    attain the running minimum.
    """
    sources, full, masks = period_layout(n, len(classes))
    pairs = tuple(zip(masks, classes))
    frontier, unseen = sources, full ^ sources
    k = 0
    while unseen:
        if k == limit:
            return None
        level = 0
        for mask, steps in pairs:
            f = frontier & mask
            for x in steps:
                level |= f << x
        frontier = (level | level >> n) & unseen
        if not frontier:
            return None
        unseen ^= frontier
        k += 1
    return k


def step_rows(classes: Sequence[Sequence[int]], n: int) -> list[tuple[int, ...]]:
    """Out-rows of the step digraph on Z_n with these classes (see
    bounded_diameter), coincident heads merged."""
    p = len(classes)
    merged = [tuple(dict.fromkeys(steps)) for steps in classes]
    return [tuple((i + x) % n for x in merged[i % p]) for i in range(n)]


def line_classes(
    classes: Sequence[Sequence[int]], n: int
) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(classes, order) of the line digraph of the step digraph on Z_n.

    Its vertices are numbered as in line_digraph(Digraph(n, step_rows)).
    Shifting by the period p sends arc (u, j) to (u + p, j), which adds
    the number A of arcs out of vertices 0..p-1 to every arc index: the
    line digraph is a step digraph on Z_{A n / p} with period A.  Arc c < A
    leaves residue r by step x, and r + x = m p + t: it leads to the arcs
    e < A out of residue t, m periods on, by the steps m A + e - c.
    """
    p = len(classes)
    merged = [tuple(dict.fromkeys(steps)) for steps in classes]
    succ, arcs = [], 0
    for steps in merged:
        succ.append(range(arcs, arcs + len(steps)))
        arcs += len(steps)
    order = arcs * n // p
    line: list[tuple[int, ...]] = []
    for r, steps in enumerate(merged):
        for x in steps:
            m, t = divmod(r + x, p)
            shift = m * arcs - len(line)
            line.append(tuple((shift + e) % order for e in succ[t]))
    return tuple(line), order


def line_digraph(g: Digraph) -> Digraph:
    """Line digraph: one vertex per arc of g, numbered by (tail, out-list
    position).  Arc u -> v leads to every arc out of v.  It is the step
    digraph of line_classes of g's classes of period N, as in diameter."""
    if g.arc_count == 0:
        raise GraphError("line digraph of an arcless digraph is undefined")
    line, order = line_classes(_vertex_classes(g), g.order)
    return Digraph(order, tuple(step_rows(line, order)))


def to_dot(g: Digraph) -> str:
    """DOT export; byte-deterministic for a given digraph."""
    lines = ["digraph {"]
    lines.extend(f"  {v};" for v in range(g.order))
    lines.extend(f"  {u} -> {v};" for u, v in g.arcs())
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json(g: Digraph) -> str:
    """JSON adjacency export; byte-deterministic for a given digraph."""
    import json

    payload = {"order": g.order, "arcs": [list(h) for h in g.out_arcs]}
    return json.dumps(payload, separators=(",", ":")) + "\n"


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def from_json(text: str) -> Digraph:
    """Parse ``{"order": N, "arcs": [[heads of 0], [heads of 1], ...]}``.

    Order and heads must be JSON integers (not booleans) and every row a
    list; anything else, nesting too deep to parse included, raises
    GraphError, as do the Digraph checks.
    """
    import json

    try:
        payload = json.loads(text)
        order = payload["order"]
        arcs = payload["arcs"]
    except (json.JSONDecodeError, RecursionError) as exc:
        raise GraphError(f"malformed digraph JSON: {exc}") from exc
    except KeyError as exc:  # a JSON object without the key
        missing = exc.args[0]
        raise GraphError(f'malformed digraph JSON: missing key "{missing}"') from exc
    except TypeError as exc:  # any other JSON value
        raise GraphError('malformed digraph JSON: the payload must be an object '
                         'with "order" and "arcs"') from exc
    if not _is_int(order):
        raise GraphError(f"malformed digraph JSON: order {order!r} is not an integer")
    if not isinstance(arcs, list):
        raise GraphError("malformed digraph JSON: arcs is not a list of rows")
    for u, heads in enumerate(arcs):
        if not isinstance(heads, list):
            raise GraphError(f"malformed digraph JSON: row {u} is not a list")
        for v in heads:
            if not _is_int(v):
                raise GraphError(
                    f"malformed digraph JSON: head {v!r} of vertex {u} "
                    "is not an integer"
                )
    return Digraph.from_lists(order, arcs)
