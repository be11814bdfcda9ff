"""Exhaustive minimum-diameter search over step parameters.

For a family and order, enumerate every valid step choice and take the
minimum diameter; this is the independent oracle behind the optimality and
non-attainability claims.  The family's record in ``FAMILIES`` supplies
the candidates, the Moore bound and the theorem prediction.  Each candidate
is evaluated straight from its step arithmetic: the record's row builder
gives the successor rows, and BFS runs only from one vertex per
translation class (0 for DS, 0-1 for NA, 0-3 for MH).  Candidates whose
digraphs are isomorphic under a multiplier map x -> ux form an orbit (the
record's orbit map lists it), and BFS runs once per orbit: the other members
read its result from a memo.  Only the reported witnesses are compiled into
a ``Digraph``, and each is re-verified there by all-source BFS.

A search is one pass over the enumeration in this process, so the orbit
memo is shared by every candidate.  The kept witnesses are the first
``WITNESS_CAP`` optima in enumeration order.  The ``workers`` keyword is
accepted for existing callers and has no effect.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Optional

from . import bounds
from .constructions import na_to_mh
from .families import (
    FAMILIES,
    DoubleStepGraph,
    Family,
    FamilyParams,
    ManhattanDigraph,
    NewAmsterdamDigraph,
    compile_params,
    family_diameter,
    format_params,
    line_diameter,
)
from .graphs import bounded_diameter, diameter
from .graphs import line_digraph  # noqa: F401  (not called; perfbench/layers.py traces it)

WITNESS_CAP = 32
DEFAULT_CAP_DS = 200
DEFAULT_CAP_NA = 120
DEFAULT_CAP_MH = 48
# search_mh via NA searches order N/2, so it shares the NA cap.
DEFAULT_CAP_MH_VIA_NA = 2 * DEFAULT_CAP_NA
# Memo value of a candidate pruned by the running minimum or not strongly
# connected; the memo's 16-bit slots hold any diameter of an order below it.
PRUNED = 0xFFFF


class SearchError(ValueError):
    pass


def __getattr__(name: str):
    # No search calls ProcessPoolExecutor; perfbench/layers.py reads and swaps
    # it on install.  Loaded on first access, so the CLI never imports
    # multiprocessing.
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        globals()[name] = ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


def _enumerate(family: str, n: int, mod4_filter: bool) -> Iterator[tuple[int, ...]]:
    generate = FAMILIES[family].candidates
    # Only the Manhattan generator takes the filter; the others never see it.
    return generate(n, mod4_filter=True) if mod4_filter else generate(n)


def _run_search(
    family: str, n: int, mod4_filter: bool = False, stop: Optional[int] = None
) -> tuple[Optional[int], list[tuple[int, ...]], int, int]:
    """Evaluate the candidates; return (best, optima, n_optima, examined).

    ``optima`` holds the first WITNESS_CAP candidates attaining ``best``, in
    enumeration order.  ``stop`` None runs to the end of the enumeration;
    otherwise only the first ``stop`` candidates are evaluated.

    BFS runs once per multiplier orbit.  Its result goes to the memo slot
    of every image, and the later candidates of the orbit read it there.
    A slot holds 0 until evaluated (a candidate's diameter is at least 1),
    an exact diameter, or PRUNED.  Storing "pruned" for good is sound
    because the limit ``best`` only falls.  An exact value above the
    current ``best`` neither beats nor ties it, so it counts as pruned, as
    BFS with that limit would return.
    """
    fam = FAMILIES[family]
    rows_of, sources, orbit = fam.rows, range(fam.period), fam.orbit
    size, slot = fam.slots(n)
    memo = array("H", bytes(2 * size))
    best: Optional[int] = None
    optima: list[tuple[int, ...]] = []
    n_optima = 0
    examined = 0
    for steps in islice(_enumerate(family, n, mod4_filter), stop):
        examined += 1
        d = memo[slot(steps)]
        if not d:
            found = bounded_diameter(rows_of(n, steps), n, best, sources)
            d = PRUNED if found is None else found
            for image in orbit(n, steps):
                memo[slot(image)] = d
        if d == PRUNED:
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
    """Minimum diameter over DS digraphs of order n; ``workers`` is ignored."""
    if n < 3:
        raise SearchError(f"order must be at least 3, got {n}")
    return _search_capped("ds", n, cap)


def search_na(
    n: int, cap: int = DEFAULT_CAP_NA, workers: Optional[int] = None
) -> SearchResult:
    """Minimum diameter over NA digraphs of order n; ``workers`` is ignored."""
    if n < 4 or n % 2 != 0:
        raise SearchError(f"order must be an even integer >= 4, got {n}")
    return _search_capped("na", n, cap)


def _search_capped(family: str, n: int, cap: int) -> SearchResult:
    if n > cap:
        raise SearchError(f"order {n} exceeds cap {cap}")
    return _finish(family, n, *_run_search(family, n))


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
    DEFAULT_CAP_MH in direct mode.  The lift keeps the images whose
    period-BFS diameter is the lifted minimum; _finish certifies them by
    all-source BFS.  ``workers`` is accepted and ignored.
    """
    if n < 8 or n % 4 != 0:
        raise SearchError(f"order must be a multiple of 4 >= 8, got {n}")
    if direct:
        cap = DEFAULT_CAP_MH if cap is None else cap
        if n > cap:
            raise SearchError(f"order {n} exceeds direct-mode cap {cap}")
        return _finish("mh", n, *_run_search("mh", n, mod4_filter))

    cap = DEFAULT_CAP_MH_VIA_NA if cap is None else cap
    if n > cap:
        raise SearchError(f"order {n} exceeds via-NA cap {cap}")
    inner = search_na(n // 2, cap=n // 2)
    if inner.min_diameter is None:
        return SearchResult(
            "mh", n, None, (), 0, inner.candidates_examined, None, "not-covered"
        )
    best = inner.min_diameter + 1
    mapped = []
    for w in inner.witnesses:
        mh = na_to_mh(w)
        if family_diameter(mh, strict=False) == best:
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
        """The constructed diameter, and each optional one given, is predicted."""
        optional = (self.via_na, self.searched_min)
        return self.constructed == self.predicted and all(
            d is None or d == self.predicted for d in optional
        )


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


# Theorem -> (family, its canonical steps at order n in case k, the orders
# of case k).  The family's predict gives each order's diameter, and None
# at the one order per case that the canonical steps do not reach.
_THEOREMS = {
    "4.1": ("ds", theorem_41_params,
            lambda k: range(bounds.moore_ds(k - 1) + 1, bounds.moore_ds(k) + 1)),
    "4.2": ("na", theorem_42_params,
            lambda k: range(4 * k * k + 2, 4 * (k + 1) ** 2 + 3, 2)),
    "4.3": ("mh", theorem_43_params,
            lambda k: range(8 * k * k + 8, 8 * (k + 1) ** 2 + 5, 4)),
}


def sweep_verify(
    theorem: str,
    k_max: int,
    exhaustive: bool = False,
    workers: Optional[int] = None,
) -> list[SweepRow]:
    """BFS-verify a theorem's predicted diameters over its stated order ranges.

    The canonical steps' diameter comes from family_diameter; theorem 4.3
    also checks the line digraph of the canonical NA digraph of order N/2,
    by line_diameter.
    With exhaustive=True also runs the full step search per order to confirm
    the prediction is the true minimum (slower; honors the family caps).
    ``workers`` is accepted and ignored.
    """
    if theorem not in _THEOREMS:
        raise SearchError(f"unknown theorem {theorem!r}")
    family, params_at, orders = _THEOREMS[theorem]
    predict = FAMILIES[family].predict
    # Looked up by name on each call, so a wrapper swapped into this module
    # sees the searches.
    search = globals()["search_" + family]
    rows: list[SweepRow] = []
    for k in range(1, k_max + 1):
        for n in orders(k):
            predicted = predict(n)
            if predicted is None:
                continue
            constructed = family_diameter(params_at(n, k), strict=False)
            via = None
            if family == "mh":
                via = line_diameter(theorem_42_params(n // 2, k), strict=False)
            # Theorem 4.1 starts at order 2, below search_ds's least order.
            searched = search(n).min_diameter if exhaustive and n >= 3 else None
            rows.append(SweepRow(theorem, k, n, predicted, constructed, via, searched))
    return rows
