"""Exhaustive minimum-diameter search over step parameters.

For a family and order, enumerate every valid step choice and take the
minimum diameter; this is the independent oracle behind the optimality and
non-attainability claims.  The family's record in ``FAMILIES`` supplies
the candidates, the Moore bound and the theorem prediction.  Each candidate
is evaluated straight from its step arithmetic: the record's row builder
gives the successor rows, and BFS runs only from one vertex per
translation class (0 for DS, 0-1 for NA, 0-3 for MH).  Only the reported
witnesses are compiled into a ``Digraph``, and each is re-verified there by
all-source BFS.

The candidate space is cut into contiguous slices, one per worker.  Slice
results merge in slice order, so the kept witnesses are the first
``WITNESS_CAP`` optima in enumeration order, as in one serial pass, and
results are byte-identical for any worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Optional, Sequence

from . import bounds
from .constructions import na_to_mh
from .families import (
    FAMILIES,
    DoubleStepGraph,
    Family,
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


def _enumerate(family: str, n: int, mod4_filter: bool) -> Iterator[tuple[int, ...]]:
    generate = FAMILIES[family].candidates
    # Only the Manhattan generator takes the filter; the others never see it.
    return generate(n, mod4_filter=True) if mod4_filter else generate(n)


def _search_slice(
    family: str, n: int, start: int, stop: int, mod4_filter: bool
) -> tuple[Optional[int], list[tuple[int, ...]], int, int]:
    """Evaluate candidates [start, stop); return (best, optima, n_optima, examined).

    ``optima`` holds the first WITNESS_CAP candidates attaining ``best``, in
    enumeration order.
    """
    fam = FAMILIES[family]
    rows_of, sources = fam.rows, range(fam.period)
    best: Optional[int] = None
    optima: list[tuple[int, ...]] = []
    n_optima = 0
    examined = 0
    for steps in islice(_enumerate(family, n, mod4_filter), start, stop):
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
    total = sum(1 for _ in _enumerate(family, n, mod4_filter))
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


def _prediction(fam: Family, n: int, min_d: Optional[int]) -> str:
    expected = None if min_d is None else fam.predict(n)
    if expected is None:
        return "not-covered"
    return "yes" if min_d == expected else "no"


def _finish(
    family: str,
    n: int,
    best: Optional[int],
    optima: list[tuple[int, ...]],
    n_optima: int,
    examined: int,
) -> SearchResult:
    fam = FAMILIES[family]
    witnesses = tuple(fam.params(n, *s) for s in sorted(optima))
    for w in witnesses:  # re-verify on insert
        if diameter(compile_params(w, strict=False)) != best:
            raise SearchError(f"witness {format_params(w)} fails re-verification")
    moore = fam.moore(best) if best is not None else None
    return SearchResult(
        family=family,
        n=n,
        min_diameter=best,
        witnesses=witnesses,
        witness_total=n_optima,
        candidates_examined=examined,
        moore_bound_for_min=moore,
        meets_theorem_prediction=_prediction(fam, n, best),
    )


def search_ds(
    n: int, cap: int = DEFAULT_CAP_DS, workers: Optional[int] = None
) -> SearchResult:
    if n < 3:
        raise SearchError(f"order must be at least 3, got {n}")
    return _search_capped("ds", n, cap, workers)


def search_na(
    n: int, cap: int = DEFAULT_CAP_NA, workers: Optional[int] = None
) -> SearchResult:
    if n < 4 or n % 2 != 0:
        raise SearchError(f"order must be an even integer >= 4, got {n}")
    return _search_capped("na", n, cap, workers)


def _search_capped(
    family: str, n: int, cap: int, workers: Optional[int]
) -> SearchResult:
    if n > cap:
        raise SearchError(f"order {n} exceeds cap {cap}")
    return _finish(family, n, *_run_search(family, n, workers))


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
        return _finish("mh", n, *_run_search("mh", n, workers, mod4_filter))

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
