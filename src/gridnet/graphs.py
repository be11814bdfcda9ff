"""Generic digraph core.

Immutable adjacency-list digraphs plus all distance machinery used by the
step-graph families: BFS distance profiles, diameter, line digraph, and
byte-deterministic DOT / JSON exports.  The independent all-pairs distance
oracle and the isomorphism test that the suite checks these against live
in ``tests/oracles.py``.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

class GraphError(ValueError):
    """Raised for malformed digraphs or out-of-contract arguments."""


@dataclass(frozen=True)
class Digraph:
    """Immutable digraph on vertices 0..order-1 with ordered out-lists.

    Parallel arcs are forbidden; loops are representable but never produced
    by the step-graph families.
    """

    order: int
    out_arcs: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.order < 1:
            raise GraphError(f"order must be positive, got {self.order}")
        if len(self.out_arcs) != self.order:
            raise GraphError(
                f"out_arcs has {len(self.out_arcs)} rows for order {self.order}"
            )
        for u, heads in enumerate(self.out_arcs):
            if len(set(heads)) != len(heads):
                raise GraphError(f"duplicate out-arcs at vertex {u}: {heads}")
            for v in heads:
                if not 0 <= v < self.order:
                    raise GraphError(f"arc {u}->{v} out of range 0..{self.order - 1}")

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

    def in_degrees(self) -> list[int]:
        indeg = [0] * self.order
        for heads in self.out_arcs:
            for v in heads:
                indeg[v] += 1
        return indeg

    def is_regular(self) -> Optional[int]:
        """The common out/in-degree if the digraph is regular, else None."""
        degs = {len(heads) for heads in self.out_arcs}
        if len(degs) != 1:
            return None
        d = degs.pop()
        if any(x != d for x in self.in_degrees()):
            return None
        return d

    def is_directed_cycle(self) -> bool:
        return (
            all(len(heads) == 1 for heads in self.out_arcs)
            and diameter(self) is not None
        )


@dataclass(frozen=True)
class DistanceProfile:
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
    """Max eccentricity over all sources, or None when not strongly connected."""
    return bounded_diameter(g.out_arcs, g.order)


def bounded_diameter(
    out_arcs: Sequence[Sequence[int]],
    n: int,
    limit: Optional[int] = None,
    sources: Optional[Iterable[int]] = None,
) -> Optional[int]:
    """Max eccentricity over ``sources`` (default: every vertex), or None.

    None means some source fails to reach every vertex, or some eccentricity
    exceeds ``limit``.  With all sources that is the diameter.  When every
    vertex is the image of a source under an automorphism, as with the
    translation classes of the step families, the given sources suffice for
    both the diameter and strong connectivity.  Rows may repeat a head.

    BFS runs level by level and stops as soon as the next level would pass
    ``limit``.  That early exit is what makes the exhaustive step searches
    affordable; it never changes which candidates attain the running minimum.
    """
    best = 0
    for source in range(n) if sources is None else sources:
        seen = [False] * n
        seen[source] = True
        frontier = [source]
        reached = 1
        ecc = 0
        while reached < n:
            if limit is not None and ecc >= limit:
                return None
            level = []
            for u in frontier:
                for v in out_arcs[u]:
                    if not seen[v]:
                        seen[v] = True
                        level.append(v)
            if not level:
                return None
            ecc += 1
            reached += len(level)
            frontier = level
        if ecc > best:
            best = ecc
    return best


def line_digraph(g: Digraph) -> Digraph:
    """Line digraph: one vertex per arc of g, ordered by (tail, out-list position)."""
    if g.arc_count == 0:
        raise GraphError("line digraph of an arcless digraph is undefined")
    offsets = [0] * g.order
    total = 0
    for u in range(g.order):
        offsets[u] = total
        total += len(g.out_arcs[u])
    new_out = []
    for u in range(g.order):
        for v in g.out_arcs[u]:
            new_out.append(tuple(offsets[v] + j for j in range(len(g.out_arcs[v]))))
    return Digraph(total, tuple(new_out))


def to_dot(g: Digraph) -> str:
    """DOT export; byte-deterministic for a given digraph."""
    lines = ["digraph {"]
    lines.extend(f"  {v};" for v in range(g.order))
    lines.extend(f"  {u} -> {v};" for u, v in g.arcs())
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json(g: Digraph) -> str:
    """JSON adjacency export; byte-deterministic for a given digraph."""
    payload = {"order": g.order, "arcs": [list(h) for h in g.out_arcs]}
    return json.dumps(payload, separators=(",", ":")) + "\n"


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def from_json(text: str) -> Digraph:
    """Parse ``{"order": N, "arcs": [[heads of 0], [heads of 1], ...]}``.

    Order and heads must be JSON integers (not booleans) and every row a
    list; anything else raises GraphError, as do the Digraph checks.
    """
    try:
        payload = json.loads(text)
        order = payload["order"]
        arcs = payload["arcs"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise GraphError(f"malformed digraph JSON: {exc}") from exc
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
