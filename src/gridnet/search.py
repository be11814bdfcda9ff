"""Exhaustive minimum-diameter search over step parameters.

For a family and order, enumerate every valid step choice and take the
minimum diameter; this is the independent oracle behind the optimality and
non-attainability claims.  Each candidate is evaluated straight from its
step arithmetic: the family's row builder gives the successor rows, and BFS
runs only from one vertex per translation class (0 for DS, 0-1 for NA, 0-3
for MH).  Only the reported witnesses are compiled into a ``Digraph``, and
each is re-verified there by all-source BFS.

The candidate space is cut into contiguous slices, one per worker.  Slice
results merge in slice order, so the kept witnesses are the first
``WITNESS_CAP`` optima in enumeration order, as in one serial pass, and
results are byte-identical for any worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Optional, Sequence

from . import bounds
from .constructions import na_to_mh
from .families import (
    ROW_BUILDERS,
    DoubleStepGraph,
    FamilyParams,
    ManhattanDigraph,
    NewAmsterdamDigraph,
    compile_ds,
    compile_mh,
    compile_na,
    compile_params,
    format_params,
)
from .graphs import bounded_diameter, diameter, line_digraph

WITNESS_CAP = 32
DEFAULT_CAP_DS = 200
DEFAULT_CAP_NA = 120
DEFAULT_CAP_MH = 48
# search_mh via NA searches order N/2, so it shares the NA cap.
DEFAULT_CAP_MH_VIA_NA = 2 * DEFAULT_CAP_NA


class SearchError(ValueError):
    pass


@dataclass(frozen=True)
class SearchResult:
    family: str
    n: int
    min_diameter: Optional[int]  # None: no strongly connected instance
    # The first WITNESS_CAP optima in enumeration order, listed sorted by steps.
    witnesses: tuple[FamilyParams, ...]
    witness_total: int
    candidates_examined: int
    moore_bound_for_min: Optional[int]
    meets_theorem_prediction: str  # "yes" | "no" | "not-covered"

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "min_diameter": self.min_diameter,
            "witnesses": [format_params(w) for w in self.witnesses],
            "witness_total": self.witness_total,
            "candidates_examined": self.candidates_examined,
            "moore_bound_for_min": self.moore_bound_for_min,
            "meets_theorem_prediction": self.meets_theorem_prediction,
        }


def default_workers() -> int:
    value = os.environ.get("GRIDNET_WORKERS", "")
    try:
        return max(1, int(value))
    except ValueError:
        return 1


def _worker_count(workers: Optional[int]) -> int:
    """Requested workers (default ``GRIDNET_WORKERS``), clamped to 1..cpu_count."""
    requested = default_workers() if workers is None else workers
    return max(1, min(requested, os.cpu_count() or 1))


def _ds_candidates(n: int) -> Iterator[tuple[int, int]]:
    """Unordered valid step pairs 1 <= a < b <= N//2."""
    for a in range(1, n // 2 + 1):
        for b in range(a + 1, n // 2 + 1):
            if (a + b) % n == 0:  # a = -b
                continue
            if math.gcd(n, math.gcd(a, b)) != 1:
                continue
            yield (a, b)


def _na_candidates(n: int) -> Iterator[tuple[int, int, int, int]]:
    """Odd alpha < beta; odd gamma <= delta with delta forced by the step sum."""
    odds = range(1, n, 2)
    for alpha in odds:
        for beta in range(alpha + 2, n, 2):
            for gamma in odds:
                delta = (-(alpha + beta + gamma)) % n
                if gamma <= delta:
                    yield (alpha, beta, gamma, delta)


def _mh_candidates(
    n: int, mod4_filter: bool = False
) -> Iterator[tuple[int, int, int, int, int, int, int, int]]:
    """Free odd a0,a1,a2,b0,b1; a3,b2,b3 forced by the sum conditions.

    Yields (a0,b0,a1,b1,a2,b2,a3,b3).  With mod4_filter, restricts to
    a_j = 3, b_j = 1 (mod 4).
    """
    a_vals = range(3, n, 4) if mod4_filter else range(1, n, 2)
    b_vals = range(1, n, 4) if mod4_filter else range(1, n, 2)
    for a0 in a_vals:
        for a2 in a_vals:
            s = (a0 + a2) % n
            for a1 in a_vals:
                a3 = (-s - a1) % n
                if mod4_filter and a3 % 4 != 3:
                    continue
                for b0 in b_vals:
                    if b0 == a0:
                        continue
                    b2 = (s - b0) % n
                    if b2 == a2 or (mod4_filter and b2 % 4 != 1):
                        continue
                    for b1 in b_vals:
                        if b1 == a1:
                            continue
                        b3 = (-s - b1) % n
                        if b3 == a3 or (mod4_filter and b3 % 4 != 1):
                            continue
                        yield (a0, b0, a1, b1, a2, b2, a3, b3)


def _candidates(family: str, n: int, mod4_filter: bool) -> Iterator[tuple[int, ...]]:
    if family == "ds":
        return _ds_candidates(n)
    if family == "na":
        return _na_candidates(n)
    return _mh_candidates(n, mod4_filter)


def _search_slice(
    family: str, n: int, start: int, stop: int, mod4_filter: bool
) -> tuple[Optional[int], list[tuple[int, ...]], int, int]:
    """Evaluate candidates [start, stop); return (best, optima, n_optima, examined).

    ``optima`` holds the first WITNESS_CAP candidates attaining ``best``, in
    enumeration order.
    """
    rows_of, period = ROW_BUILDERS[family]
    sources = range(period)
    best: Optional[int] = None
    optima: list[tuple[int, ...]] = []
    n_optima = 0
    examined = 0
    for steps in islice(_candidates(family, n, mod4_filter), start, stop):
        examined += 1
        d = bounded_diameter(rows_of(n, steps), n, best, sources)
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


def _run_search(
    family: str, n: int, workers: Optional[int], mod4_filter: bool = False
) -> tuple[Optional[int], list[tuple[int, ...]], int, int]:
    workers = _worker_count(workers)
    total = sum(1 for _ in _candidates(family, n, mod4_filter))
    if workers == 1 or total < 2 * workers:
        return _search_slice(family, n, 0, total, mod4_filter)
    chunk = -(-total // workers)
    slices = [
        (family, n, i * chunk, min((i + 1) * chunk, total), mod4_filter)
        for i in range(workers)
        if i * chunk < total
    ]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(_search_slice_star, slices))
    return _merge(parts)


def _merge(
    parts: Sequence[tuple[Optional[int], list[tuple[int, ...]], int, int]],
) -> tuple[Optional[int], list[tuple[int, ...]], int, int]:
    """Combine the results of contiguous slices, given in slice order.

    Equals ``_search_slice`` over the union of the slices: each slice keeps
    its first optima in enumeration order, so concatenating the slices that
    attain the overall minimum and keeping the first WITNESS_CAP gives the
    serial witnesses.
    """
    best = min((p[0] for p in parts if p[0] is not None), default=None)
    optima: list[tuple[int, ...]] = []
    n_optima = 0
    examined = 0
    for p_best, p_opt, p_count, p_examined in parts:
        examined += p_examined
        if p_best is not None and p_best == best:
            optima.extend(p_opt)
            n_optima += p_count
    return best, optima[:WITNESS_CAP], n_optima, examined


def _search_slice_star(args):
    return _search_slice(*args)


def _steps_to_params(family: str, n: int, steps: tuple[int, ...]) -> FamilyParams:
    if family == "ds":
        return DoubleStepGraph(n, *steps)
    if family == "na":
        return NewAmsterdamDigraph(n, *steps)
    return ManhattanDigraph(n, *steps)


def _prediction(family: str, n: int, min_d: Optional[int]) -> str:
    if min_d is None:
        return "not-covered"
    if family == "ds":
        k = 0
        while bounds.moore_ds(k) < n:
            k += 1
        return "yes" if min_d == k else "no"
    if family == "na":
        expected = bounds.theorem_42_expected_diameter(n)
    else:
        expected = bounds.theorem_43_expected_diameter(n)
    if expected is None:
        return "not-covered"
    return "yes" if min_d == expected else "no"


def _moore_at(family: str, d: int) -> int:
    if family == "ds":
        return bounds.moore_ds(d)
    if family == "na":
        return bounds.moore_na(d)
    return bounds.moore_mh(d)


def _finish(
    family: str,
    n: int,
    best: Optional[int],
    optima: list[tuple[int, ...]],
    n_optima: int,
    examined: int,
) -> SearchResult:
    witnesses = tuple(_steps_to_params(family, n, s) for s in sorted(optima))
    for w in witnesses:  # re-verify on insert
        if diameter(compile_params(w, strict=False)) != best:
            raise SearchError(f"witness {format_params(w)} fails re-verification")
    moore = _moore_at(family, best) if best is not None else None
    return SearchResult(
        family=family,
        n=n,
        min_diameter=best,
        witnesses=witnesses,
        witness_total=n_optima,
        candidates_examined=examined,
        moore_bound_for_min=moore,
        meets_theorem_prediction=_prediction(family, n, best),
    )


def search_ds(
    n: int, cap: int = DEFAULT_CAP_DS, workers: Optional[int] = None
) -> SearchResult:
    if n < 3:
        raise SearchError(f"order must be at least 3, got {n}")
    if n > cap:
        raise SearchError(f"order {n} exceeds cap {cap}")
    best, optima, n_optima, examined = _run_search("ds", n, workers)
    return _finish("ds", n, best, optima, n_optima, examined)


def search_na(
    n: int, cap: int = DEFAULT_CAP_NA, workers: Optional[int] = None
) -> SearchResult:
    if n < 4 or n % 2 != 0:
        raise SearchError(f"order must be an even integer >= 4, got {n}")
    if n > cap:
        raise SearchError(f"order {n} exceeds cap {cap}")
    best, optima, n_optima, examined = _run_search("na", n, workers)
    return _finish("na", n, best, optima, n_optima, examined)


def search_mh(
    n: int,
    cap: Optional[int] = None,
    workers: Optional[int] = None,
    direct: bool = False,
    mod4_filter: bool = False,
) -> SearchResult:
    """Minimum diameter over Manhattan digraphs of order n.

    Default mode runs search_na(n/2) and lifts the optimum through the
    line-digraph relation (min diameter + 1, witnesses via na_to_mh);
    direct mode enumerates the Manhattan step space itself.  ``cap`` bounds
    n in either mode; it defaults to DEFAULT_CAP_MH_VIA_NA via NA and to
    DEFAULT_CAP_MH in direct mode.
    """
    if n < 8 or n % 4 != 0:
        raise SearchError(f"order must be a multiple of 4 >= 8, got {n}")
    if direct:
        cap = DEFAULT_CAP_MH if cap is None else cap
        if n > cap:
            raise SearchError(f"order {n} exceeds direct-mode cap {cap}")
        best, optima, n_optima, examined = _run_search(
            "mh", n, workers, mod4_filter=mod4_filter
        )
        return _finish("mh", n, best, optima, n_optima, examined)

    cap = DEFAULT_CAP_MH_VIA_NA if cap is None else cap
    if n > cap:
        raise SearchError(f"order {n} exceeds via-NA cap {cap}")
    inner = search_na(n // 2, cap=n // 2, workers=workers)
    if inner.min_diameter is None:
        return SearchResult(
            "mh", n, None, (), 0, inner.candidates_examined, None, "not-covered"
        )
    best = inner.min_diameter + 1
    mapped = []
    for w in inner.witnesses:
        mh = na_to_mh(w)
        if diameter(compile_mh(mh, strict=False)) == best:
            mapped.append(mh.steps)
    return _finish("mh", n, best, mapped, len(mapped), inner.candidates_examined)


@dataclass(frozen=True)
class SweepRow:
    theorem: str
    k: int
    n: int
    predicted: int
    constructed: Optional[int]
    via_na: Optional[int] = None  # theorem 4.3 only: line digraph of the NA
    searched_min: Optional[int] = None

    @property
    def passed(self) -> bool:
        if self.constructed != self.predicted:
            return False
        if self.via_na is not None and self.via_na != self.predicted:
            return False
        if self.searched_min is not None and self.searched_min != self.predicted:
            return False
        return True


def theorem_41_params(n: int, k: int) -> DoubleStepGraph:
    return DoubleStepGraph(n, k, k + 1)


def theorem_42_params(n: int, k: int) -> NewAmsterdamDigraph:
    """Canonical NA steps beta = -alpha = 1, gamma = -delta = 2k+1."""
    return NewAmsterdamDigraph(n, -1, 1, 2 * k + 1, -(2 * k + 1))


def theorem_43_params(n: int, k: int) -> ManhattanDigraph:
    """Canonical MH steps a = (1,-3,1,1), b = (4k+3, 4k+3, -4k-1, -4k-5)."""
    return ManhattanDigraph(
        n, 1, 4 * k + 3, -3, 4 * k + 3, 1, -4 * k - 1, 1, -4 * k - 5
    )


def _orders_42(k: int) -> list[tuple[int, int]]:
    rows = [(4 * k * k + 2, 2 * k + 1)]
    rows += [
        (n, 2 * k + 1) for n in range(4 * k * k + 4, 4 * k * k + 4 * k + 3, 2)
    ]
    rows.append((4 * k * k + 4 * k + 4, 2 * k + 2))
    rows += [
        (n, 2 * k + 3)
        for n in range(4 * k * k + 4 * k + 8, 4 * (k + 1) ** 2 + 3, 2)
    ]
    return rows


def _orders_43(k: int) -> list[tuple[int, int]]:
    rows = [(n, 2 * k + 2) for n in range(8 * k * k + 8, 8 * k * k + 8 * k + 5, 4)]
    rows.append((8 * k * k + 8 * k + 8, 2 * k + 3))
    rows += [
        (n, 2 * k + 4)
        for n in range(8 * k * k + 8 * k + 16, 8 * (k + 1) ** 2 + 5, 4)
    ]
    return rows


def sweep_verify(
    theorem: str,
    k_max: int,
    exhaustive: bool = False,
    workers: Optional[int] = None,
) -> list[SweepRow]:
    """BFS-verify a theorem's predicted diameters over its stated order ranges.

    With exhaustive=True also runs the full step search per order to confirm
    the prediction is the true minimum (slower; honors the family caps).
    """
    if theorem not in ("4.1", "4.2", "4.3"):
        raise SearchError(f"unknown theorem {theorem!r}")
    rows: list[SweepRow] = []
    for k in range(1, k_max + 1):
        if theorem == "4.1":
            lo = bounds.moore_ds(k - 1) + 1
            hi = bounds.moore_ds(k)
            for n in range(lo, hi + 1):
                g = compile_ds(theorem_41_params(n, k), strict=False)
                searched = (
                    search_ds(n, workers=workers).min_diameter
                    if exhaustive and n >= 3
                    else None
                )
                rows.append(SweepRow("4.1", k, n, k, diameter(g), None, searched))
        elif theorem == "4.2":
            for n, predicted in _orders_42(k):
                g = compile_na(theorem_42_params(n, k), strict=False)
                searched = (
                    search_na(n, workers=workers).min_diameter if exhaustive else None
                )
                rows.append(
                    SweepRow("4.2", k, n, predicted, diameter(g), None, searched)
                )
        else:
            for n, predicted in _orders_43(k):
                g = compile_mh(theorem_43_params(n, k), strict=False)
                na = theorem_42_params(n // 2, k)
                via = diameter(line_digraph(compile_na(na, strict=False)))
                searched = (
                    search_mh(n, workers=workers).min_diameter if exhaustive else None
                )
                rows.append(
                    SweepRow("4.3", k, n, predicted, diameter(g), via, searched)
                )
    return rows
