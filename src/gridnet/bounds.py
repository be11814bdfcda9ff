"""Moore-like bounds, achievable-order ranges and theorem predictions.

Each Moore bound is its closed form.  The tests cross-assert it against an
independent summation form (``tests/oracles.py``) instead of trusting the
algebra.

``THEOREMS`` states each family's Moore bound and its theorem's cases
(4.1 DS, 4.2 NA, 4.3 MH) once, as data; ``Theorem.family`` alone says which
belong to a family.  The predictions, the case of an order, the orders of a
case, its missing order, the paper's order range at a diameter and the
bounds report are read from it, with the step between orders the family's
period in ``families.FAMILIES``.  The tests hold the paper's closed forms of
the ranges as the check.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from .families import FAMILIES
from .graphs import GridnetError


class BoundsError(GridnetError):
    pass


def moore_ds(k: int) -> int:
    """Max order of a double-step graph with diameter k: 2k^2 + 2k + 1."""
    if k < 0:
        raise BoundsError(f"diameter must be non-negative, got {k}")
    return 2 * k * k + 2 * k + 1


def moore_na(k: int) -> int:
    """Max order of a New Amsterdam digraph with diameter k.

    k^2 + 1 for odd k, k^2 for even k.
    """
    if k < 1:
        raise BoundsError(f"diameter must be at least 1, got {k}")
    return k * k + 1 if k % 2 == 1 else k * k


def moore_mh(k: int) -> int:
    """Max order of a Manhattan digraph with diameter k.

    2(k-1)^2 for odd k, 2[(k-1)^2 + 1] for even k.
    """
    if k < 2:
        raise BoundsError(f"diameter must be at least 2, got {k}")
    km1 = k - 1
    return 2 * km1 * km1 if k % 2 == 1 else 2 * (km1 * km1 + 1)


class Theorem(NamedTuple):
    """A family's Moore bound ``moore(k)`` (the largest order at diameter k)
    and its theorem's cases for its canonical steps.  Case k >= 1 holds the
    orders first(k), first(k) + P, ..., P the family's period
    (``FAMILIES[family].period``), split into segments (last, d): diameter
    d up to order last, and d None at the missing order.
    The paper's order ranges start at diameter ``least_range_d`` (None: no
    range).  At k = 0 the lambdas give the missing orders 6 (NA) and 12 (MH),
    where case 1's first range starts, and the NA range 4..6 at d=2."""

    family: str
    moore: Callable[[int], int]
    first: Callable[[int], int]
    segments: Callable[[int], tuple[tuple[int, Optional[int]], ...]]
    least_range_d: Optional[int]


THEOREMS = {
    "4.1": Theorem("ds", moore_ds, lambda k: moore_ds(k - 1) + 1,
                   lambda k: ((moore_ds(k), k),), None),
    "4.2": Theorem("na", moore_na, lambda k: 4 * k * k + 2,
                   lambda k: ((4 * k * k + 4 * k + 2, 2 * k + 1),
                              (4 * k * k + 4 * k + 4, 2 * k + 2),
                              (4 * k * k + 4 * k + 6, None),
                              (4 * (k + 1) ** 2 + 2, 2 * k + 3)), 2),
    "4.3": Theorem("mh", moore_mh, lambda k: 8 * k * k + 8,
                   lambda k: ((8 * k * k + 8 * k + 4, 2 * k + 2),
                              (8 * k * k + 8 * k + 8, 2 * k + 3),
                              (8 * k * k + 8 * k + 12, None),
                              (8 * (k + 1) ** 2 + 4, 2 * k + 4)), 4),
}


def theorem_of(family: str) -> str:
    """The name of the theorem in THEOREMS that covers ``family``."""
    for name, t in THEOREMS.items():
        if t.family == family:
            return name
    raise BoundsError(f"unknown family {family!r}")


def _least(holds: Callable[[int], bool], k: int) -> int:
    """The least case from k on where ``holds``, which stays true once true:
    doubling, then bisecting, in O(log k) tests (the case ends grow with k)."""
    high = max(k, 1)
    while not holds(high):
        k, high = high + 1, 2 * high
    while k < high:
        mid = (k + high) // 2
        k, high = (k, mid) if holds(mid) else (mid + 1, high)
    return k


def case_of(theorem: str, n: int) -> int:
    """The least case k holding order n."""
    segments = THEOREMS[theorem].segments
    return _least(lambda k: segments(k)[-1][0] >= n, 1)


def case_orders(theorem: str, k: int) -> range:
    """Every order of case k, the missing one included."""
    t = THEOREMS[theorem]
    return range(t.first(k), t.segments(k)[-1][0] + 1, FAMILIES[t.family].period)


def missing_order(theorem: str, k: int) -> Optional[int]:
    """The order of case k that the canonical steps miss (none for 4.1)."""
    return next((n for n, d in THEOREMS[theorem].segments(k) if d is None), None)


def predicted_diameter(theorem: str, n: int, k: Optional[int] = None) -> Optional[int]:
    """Diameter the canonical steps achieve at order n in case k (by
    default the least case holding n); None where case k misses n."""
    t = THEOREMS[theorem]
    step = FAMILIES[t.family].period
    if n % step != 0:
        raise BoundsError(f"order must be a multiple of {step}, got {n}")
    if k is None:
        k = case_of(theorem, n)
    if k < 1:
        raise BoundsError(f"k must be at least 1, got {k}")
    if n < t.first(k):
        return None
    return next((d for last, d in t.segments(k) if n <= last), None)


def achievable_range(theorem: str, d: int) -> tuple[int, int]:
    """Order range the paper gives at diameter d, read from THEOREMS.

    Case k's segments have diameters d0, d0+1, the missing order, then
    d0+2.  The range at d0 runs from the order after case k-1's missing
    order (one family period on) to the end of case k's first segment; at
    d0+1, from case k's second segment to its missing order, which is
    open: NA orders 14 and 30 are unattained at d=4 and 6 (minima 5 and 7),
    and MH order 28 reaches d=5 only with steps that break the mod-4
    condition (mh:28,1,3,1,9,1,27,25,17).

    The printed NA ranges leave out order 6: case 1 of 4.2 and ``search na
    --n 6`` give diameter 3 there, yet the range at d=3 is 8..10, and the
    only range holding 6 is d=2's 4..6, where 6 is the missing order.  The
    ranges keep the paper's values.
    """
    t = THEOREMS[theorem]
    if t.least_range_d is None or d < t.least_range_d:
        raise BoundsError(f"theorem {theorem} gives no order range at diameter {d}")
    k = _least(lambda k: t.segments(k)[1][1] >= d, 0)
    (last, d0), (second, _) = t.segments(k)[:2]
    if d == d0:
        return missing_order(theorem, k - 1) + FAMILIES[t.family].period, last
    return second, missing_order(theorem, k)


class BoundsReport(NamedTuple):
    family: str  # "ds" | "na" | "mh"
    k: int
    moore_value: int
    range_low: Optional[int] = None
    range_high: Optional[int] = None
    missing_order: Optional[int] = None


def bounds_report(family: str, k: int) -> BoundsReport:
    """Moore bound plus (for na/mh) the paper's order range at diameter k.

    The missing_order flag marks the range's upper end when the canonical
    steps do not reach diameter k there: the paper's open order, at the
    even NA and odd MH diameters.  It need not be attained at diameter k;
    see achievable_range.
    """
    theorem = theorem_of(family)
    value = THEOREMS[theorem].moore(k)
    try:
        low, high = achievable_range(theorem, k)
    except BoundsError:
        return BoundsReport(family, k, value)
    missing = high if predicted_diameter(theorem, high) != k else None
    return BoundsReport(family, k, value, low, high, missing)
