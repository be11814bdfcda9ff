"""Moore-like bounds, achievable-order ranges and theorem predictions.

Each bound is its closed form.  The tests cross-assert it against an
independent summation form (``tests/oracles.py``) instead of trusting the
algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


class BoundsError(ValueError):
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


def na_missing_order(k: int) -> int:
    """The one even order per k not reached by the canonical NA steps."""
    return 4 * k * k + 4 * k + 6


def mh_missing_order(k: int) -> int:
    """The one order (mult. of 4) per k not reached by the canonical MH steps."""
    return 8 * k * k + 8 * k + 12


def achievable_range_na(d: int) -> tuple[int, int]:
    """Order range the paper gives at diameter d for New Amsterdam digraphs.

    Odd d >= 3: (d-1)^2 - 2d + 10 <= N <= d^2 + 1.
    Even d >= 2: d^2 - 2d + 4 <= N <= d^2 - 2d + 6.  The even upper value is
    the paper's open missing order (na_missing_order), not a known-achievable
    one: the canonical steps do not reach it, and exhaustive search finds it
    unattained at d=4 (N=14) and d=6 (N=30), whose minima are 5 and 7.
    """
    if d % 2 == 1:
        if d < 3:
            raise BoundsError(f"odd diameter must be at least 3, got {d}")
        return ((d - 1) ** 2 - 2 * d + 10, d * d + 1)
    if d < 2:
        raise BoundsError(f"even diameter must be at least 2, got {d}")
    return (d * d - 2 * d + 4, d * d - 2 * d + 6)


def achievable_range_mh(d: int) -> tuple[int, int]:
    """Order range the paper gives at diameter d for Manhattan digraphs.

    Even d >= 4: 2[(d-2)^2 - 2(d-1) + 10] <= N <= 2[(d-1)^2 + 1].
    Odd d >= 5: 2[(d-1)^2 - 2(d-1) + 4] <= N <= 2[(d-1)^2 - 2(d-1) + 6].
    The odd upper value is the paper's open missing order (mh_missing_order),
    not a known-achievable one: the canonical steps do not reach it.  At
    d=5 (N=28) only the lift of NA witnesses has been searched, which is not
    an exhaustive Manhattan search, so whether 28 is attained stays open.
    """
    if d % 2 == 0:
        if d < 4:
            raise BoundsError(f"even diameter must be at least 4, got {d}")
        return (2 * ((d - 2) ** 2 - 2 * (d - 1) + 10), 2 * ((d - 1) ** 2 + 1))
    if d < 5:
        raise BoundsError(f"odd diameter must be at least 5, got {d}")
    e = (d - 1) ** 2 - 2 * (d - 1)
    return (2 * (e + 4), 2 * (e + 6))


def infer_k_na(n_na: int) -> int:
    """Smallest k whose New Amsterdam case ranges contain order n_na."""
    if n_na < 2 or n_na % 2 != 0:
        raise BoundsError(f"order must be a positive even integer, got {n_na}")
    k = 1
    while 4 * (k + 1) ** 2 + 2 < n_na:
        k += 1
    return k


def infer_k_mh(n_mh: int) -> int:
    """Smallest k whose Manhattan case ranges contain order n_mh."""
    if n_mh < 4 or n_mh % 4 != 0:
        raise BoundsError(f"order must be a positive multiple of 4, got {n_mh}")
    k = 1
    while 8 * (k + 1) ** 2 + 4 < n_mh:
        k += 1
    return k


def theorem_41_expected_diameter(n: int) -> int:
    """Diameter the double-step steps (k, k+1) achieve at order n: the
    smallest k with moore_ds(k) >= n."""
    k = 0
    while moore_ds(k) < n:
        k += 1
    return k


def theorem_42_expected_diameter(n_na: int, k: Optional[int] = None) -> Optional[int]:
    """Diameter the canonical NA steps (beta=-alpha=1, gamma=-delta=2k+1)
    achieve at order n_na, or None where no case covers it.

    Cases: N = 4k^2+2 -> 2k+1 (companion); 4k^2+4 <= N <= 4k^2+4k+2 -> 2k+1;
    N = 4k^2+4k+4 -> 2k+2; 4k^2+4k+8 <= N <= 4(k+1)^2+2 -> 2k+3;
    N = 4k^2+4k+6 is the missing value.
    """
    if n_na % 2 != 0:
        raise BoundsError(f"order must be even, got {n_na}")
    if k is None:
        k = infer_k_na(n_na)
    if k < 1:
        raise BoundsError(f"k must be at least 1, got {k}")
    if n_na == 4 * k * k + 2:
        return 2 * k + 1
    if 4 * k * k + 4 <= n_na <= 4 * k * k + 4 * k + 2:
        return 2 * k + 1
    if n_na == 4 * k * k + 4 * k + 4:
        return 2 * k + 2
    if 4 * k * k + 4 * k + 8 <= n_na <= 4 * (k + 1) ** 2 + 2:
        return 2 * k + 3
    return None


def theorem_43_expected_diameter(n_mh: int, k: Optional[int] = None) -> Optional[int]:
    """Diameter the canonical MH steps achieve at order n_mh, or None.

    Cases: 8k^2+8 <= N <= 8k^2+8k+4 -> 2k+2; N = 8k^2+8k+8 -> 2k+3;
    8k^2+8k+16 <= N <= 8(k+1)^2+4 -> 2k+4; N = 8k^2+8k+12 is the missing value.
    """
    if n_mh % 4 != 0:
        raise BoundsError(f"order must be a multiple of 4, got {n_mh}")
    if k is None:
        k = infer_k_mh(n_mh)
    if k < 1:
        raise BoundsError(f"k must be at least 1, got {k}")
    if 8 * k * k + 8 <= n_mh <= 8 * k * k + 8 * k + 4:
        return 2 * k + 2
    if n_mh == 8 * k * k + 8 * k + 8:
        return 2 * k + 3
    if 8 * k * k + 8 * k + 16 <= n_mh <= 8 * (k + 1) ** 2 + 4:
        return 2 * k + 4
    return None


@dataclass(frozen=True)
class BoundsReport:
    family: str  # "ds" | "na" | "mh"
    k: int
    moore_value: int
    range_low: Optional[int] = None
    range_high: Optional[int] = None
    missing_order: Optional[int] = None


def bounds_report(family: str, k: int) -> BoundsReport:
    """Moore bound plus (for na/mh) the paper's order range at diameter k.

    The missing_order flag marks the upper end of the range at the even NA
    and odd MH diameters: the paper's open order, which the canonical steps
    do not reach.  It is not known to be achievable at diameter k; see
    achievable_range_na and achievable_range_mh.
    """
    if family == "ds":
        return BoundsReport("ds", k, moore_ds(k))
    if family == "na":
        moore = moore_na(k)
        try:
            low, high = achievable_range_na(k)
        except BoundsError:
            return BoundsReport("na", k, moore)
        missing = na_missing_order((k - 2) // 2) if k % 2 == 0 else None
        return BoundsReport("na", k, moore, low, high, missing)
    if family == "mh":
        moore = moore_mh(k)
        try:
            low, high = achievable_range_mh(k)
        except BoundsError:
            return BoundsReport("mh", k, moore)
        missing = mh_missing_order((k - 3) // 2) if k % 2 == 1 else None
        return BoundsReport("mh", k, moore, low, high, missing)
    raise BoundsError(f"unknown family {family!r}")
