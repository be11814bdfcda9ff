"""Exhaustive minimum-diameter search over step parameters.

For a family and order, take the minimum diameter over every valid step
choice: the independent oracle behind the optimality and non-attainability
claims.  A record class of ``families`` supplies the walk over its
candidates' orbits and the orbit map, and its family's theorem in
``bounds.THEOREMS`` the Moore bound and the prediction.  Candidates that the
class's maps make isomorphic form an orbit.  ``_minimise`` runs BFS once
per orbit, on its representative, the member first in enumeration order,
which the class's ``representatives`` walk yields with the orbit's size.
Every search is ``_minimise`` over one class: the family's own in
``FAMILIES``, or for ``search_mh``'s default mode
``families.Mod4ManhattanDigraph``, the mod-4 space a_j = 3 and b_j = 1
(mod 4) by NA's gauge orbits.  Its BFS is graphs.bounded_diameter on the
step classes: the out-steps of each residue mod the period, searched from
one vertex per translation class at once, with no per-vertex rows.  Each
reported witness is re-verified by ``graphs.reach_diameter`` on the same
classes, an algorithm that shares no code with that BFS.

A search is one pass over the representatives in this process.  The kept
witnesses are the first ``WITNESS_CAP`` optima in enumeration order, taken
from the optimal orbits.  The ``workers`` keyword is accepted for existing
callers and has no effect.
"""

from __future__ import annotations

from itertools import islice
from typing import NamedTuple, Optional

from . import bounds
from .constructions import na_to_mh
from .families import (
    FAMILIES,
    DoubleStepGraph,
    FamilyError,
    FamilyParams,
    ManhattanDigraph,
    Mod4ManhattanDigraph,
    NewAmsterdamDigraph,
    family_diameter,
    format_params,
    line_diameter,
)
from .graphs import GridnetError, bounded_diameter, reach_diameter
# Not called; perfbench/layers.py traces them.
from .graphs import diameter, line_digraph  # noqa: F401

WITNESS_CAP = 32
DEFAULT_CAP_DS = 200
DEFAULT_CAP_NA = 120
DEFAULT_CAP_MH = 64
# Each mod-4 Manhattan class is the line digraph of an NA digraph of order
# N/2, so the mod-4 search takes twice the NA cap.
DEFAULT_CAP_MH_MOD4 = 2 * DEFAULT_CAP_NA


class SearchError(GridnetError):
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


class SearchResult(NamedTuple):
    family: str
    n: int
    min_diameter: Optional[int]  # None: no strongly connected instance
    # The first WITNESS_CAP optima in enumeration order, listed sorted by steps.
    witnesses: tuple[FamilyParams, ...]
    witness_total: int
    candidates_examined: int
    moore_bound_for_min: Optional[int]  # None: no minimum, or a bound below n
    meets_theorem_prediction: str  # "yes" | "no" | "not-covered"

    def to_json_dict(self) -> dict:
        return {**self._asdict(),
                "witnesses": [format_params(w) for w in self.witnesses]}


def _minimise(
    fam: type[FamilyParams], n: int
) -> tuple[Optional[int], list[tuple[int, ...]], int, int]:
    """Minimise over the orbits of ``fam``: (best, optima, n_optima, examined).

    ``fam.representatives(n)`` yields each orbit's key-least member with the
    orbit's size, in key order, so the representatives meet the running
    minimum ``best`` as the orbits' first members would.  One BFS per orbit,
    on ``fam.classes`` of its representative, counts the size as that many
    candidates examined and, when it attains ``best``, as that many optima:
    every member has the same diameter, and BFS with the limit ``best``
    returns None exactly when it exceeds the limit, which only falls.
    ``optima`` are the first WITNESS_CAP members, in key order, of the
    optimal orbits.
    """
    best: Optional[int] = None
    optimal_reps: list[tuple[int, ...]] = []
    n_optima = 0
    examined = 0
    for steps, size in fam.representatives(n):
        examined += size
        d = bounded_diameter(fam.classes(n, steps), n, best)
        if d is None:
            continue
        if best is None or d < best:
            best = d
            optimal_reps = [steps]
            n_optima = size
        elif d == best:
            optimal_reps.append(steps)
            n_optima += size
    return best, _first_members(fam, n, optimal_reps), n_optima, examined


def _first_members(
    fam: type[FamilyParams], n: int, reps: list[tuple[int, ...]]
) -> list[tuple[int, ...]]:
    """The first WITNESS_CAP members of the orbits of ``reps``, in key order.

    ``reps`` are representatives in key order, and every member of an orbit
    follows its representative, so the expansion stops at the first
    representative past a full list, and reads each orbit WITNESS_CAP deep.
    """
    first: list[tuple[int, ...]] = []
    for rep in reps:
        if len(first) == WITNESS_CAP and fam.key(first[-1]) < fam.key(rep):
            break
        first = sorted([*first, *islice(fam.orbit(n, rep), WITNESS_CAP)], key=fam.key)
        del first[WITNESS_CAP:]
    return first


def _prediction(theorem: str, n: int, min_d: Optional[int]) -> str:
    expected = None if min_d is None else bounds.predicted_diameter(theorem, n)
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
    witnesses = tuple(fam(n, *s) for s in sorted(optima))
    for w in witnesses:  # re-verify on insert
        if reach_diameter(fam.classes(n, w.steps), n) != best:
            raise SearchError(f"witness {format_params(w)} fails re-verification")
    theorem = bounds.theorem_of(family)
    moore = bounds.THEOREMS[theorem].moore(best) if best is not None else None
    if moore is not None and moore < n:
        moore = None
    return SearchResult(
        family=family,
        n=n,
        min_diameter=best,
        witnesses=witnesses,
        witness_total=n_optima,
        candidates_examined=examined,
        moore_bound_for_min=moore,
        meets_theorem_prediction=_prediction(theorem, n, best),
    )


def search_ds(
    n: int, cap: int = DEFAULT_CAP_DS, workers: Optional[int] = None
) -> SearchResult:
    """Minimum diameter over DS digraphs of order n; ``workers`` is ignored."""
    if n < 3:
        raise SearchError(f"order must be at least 3, got {n}")
    return _search(DoubleStepGraph, n, cap)


def search_na(
    n: int, cap: int = DEFAULT_CAP_NA, workers: Optional[int] = None
) -> SearchResult:
    """Minimum diameter over NA digraphs of order n; ``workers`` is ignored."""
    if n < 4 or n % FAMILIES["na"].period:
        raise SearchError(f"order must be an even integer >= 4, got {n}")
    return _search(NewAmsterdamDigraph, n, cap)


def _search(
    fam: type[FamilyParams], n: int, cap: int, cap_name: str = "cap"
) -> SearchResult:
    if n > cap:
        raise SearchError(f"order {n} exceeds {cap_name} {cap}")
    return _finish(fam.tag, n, *_minimise(fam, n))


def search_mh(
    n: int,
    cap: Optional[int] = None,
    workers: Optional[int] = None,
    direct: bool = False,
) -> SearchResult:
    """Minimum diameter over Manhattan digraphs of order n.

    Default mode searches the mod-4 space a_j = 3, b_j = 1 (mod 4), one BFS
    per gauge orbit of ``Mod4ManhattanDigraph``.  Every class of it is the
    line digraph of an NA-type digraph of order n/2 (alpha = beta allowed),
    so its cap DEFAULT_CAP_MH_MOD4 is twice the NA cap; up to that cap its
    minimum is search_na(n/2)'s plus one.  Direct mode walks the whole
    Manhattan step space by ``ManhattanDigraph``'s orbits, up to
    DEFAULT_CAP_MH.  Both report the counts of the space they search, and
    witnesses as ``mh`` records.  ``cap`` bounds n in either mode;
    ``workers`` is accepted and ignored.
    """
    if n < 8 or n % FAMILIES["mh"].period:
        raise SearchError(f"order must be a multiple of 4 >= 8, got {n}")
    if direct:
        fam, cap_name, default = ManhattanDigraph, "direct-mode cap", DEFAULT_CAP_MH
    else:
        fam, cap_name, default = Mod4ManhattanDigraph, "mod-4 cap", DEFAULT_CAP_MH_MOD4
    return _search(fam, n, default if cap is None else cap, cap_name)


class SweepRow(NamedTuple):
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
    """Canonical MH steps na_to_mh(theorem_42_params(n/2, k)):
    a = (1,-3,1,1), b = (4k+3, 4k+3, -4k-1, -4k-5)."""
    if n % FAMILIES["mh"].period:  # n // 2 would round an odd n down to another order
        raise FamilyError(f"order {n} is not a multiple of 4")
    return na_to_mh(theorem_42_params(n // 2, k))


# Theorem -> its canonical steps at order n in case k.
_THEOREMS = {"4.1": theorem_41_params, "4.2": theorem_42_params,
             "4.3": theorem_43_params}


def sweep_verify(theorem: str, k_max: int, exhaustive: bool = False) -> list[SweepRow]:
    """BFS-verify a theorem's predicted diameters over its stated order ranges.

    The canonical steps' diameter comes from family_diameter; theorem 4.3
    also checks the line digraph of the canonical NA digraph of order N/2,
    by line_diameter.  Orders with no prediction, or whose canonical steps
    are not a valid record of the family (theorem 4.1 at orders 2 and 3,
    where ds:2,1,2 and ds:3,1,2 have b = 0 and a = -b), give no row.
    With exhaustive=True also runs the full step search per order to confirm
    the prediction is the true minimum (slower; honors the family caps).
    An order that two cases share (a boundary order) is searched once.
    """
    if theorem not in _THEOREMS:
        raise SearchError(f"unknown theorem {theorem!r}")
    params_at, family = _THEOREMS[theorem], bounds.THEOREMS[theorem].family
    # Looked up by name on each call, so a wrapper swapped into this module
    # sees the searches.
    search = globals()["search_" + family]
    searched_min: dict[int, Optional[int]] = {}
    rows: list[SweepRow] = []
    for k in range(1, k_max + 1):
        for n in bounds.case_orders(theorem, k):
            predicted = bounds.predicted_diameter(theorem, n)
            if predicted is None:
                continue
            params = params_at(n, k)
            if params.validate():
                continue
            constructed = family_diameter(params)
            via = None
            if family == "mh":
                via = line_diameter(theorem_42_params(n // 2, k))
            if exhaustive and n not in searched_min:
                searched_min[n] = search(n).min_diameter
            rows.append(SweepRow(theorem, k, n, predicted, constructed, via,
                                 searched_min.get(n)))
    return rows
