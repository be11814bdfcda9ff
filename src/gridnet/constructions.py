"""Step-translation maps between the families.

Each map doubles the order and carries the explicit particular solution of
the corresponding condition system; it passes its input through
families.require_valid first.  The tests check every map against the
condition systems themselves (``tests/oracles.py``).  The chain DS -> NA ->
MH is written once: ds_to_mh is the composition.  check_diameter_sandwich
derives the chain of one DS graph and bounds both derived diameters;
``verify sandwich`` calls it through families.FamilyParams.orbit_checks,
once per DS multiplier orbit, on which all three diameters are constant
(README: the NA gauge class of ds_to_na(a, b) is (a, -b), and na_to_mh(X)
is isomorphic to the line digraph of X).
"""

from __future__ import annotations

from typing import NamedTuple

from .families import (
    DoubleStepGraph,
    FamilyError,
    ManhattanDigraph,
    NewAmsterdamDigraph,
    family_diameter,
    require_valid,
)
from .graphs import diameter  # noqa: F401  (not called; perfbench/layers.py traces it)


def ds_to_na(p: DoubleStepGraph) -> NewAmsterdamDigraph:
    """Double-step graph on N -> New Amsterdam digraph on 2N.

    Steps: alpha = -1, beta = 2(b-a)-1, gamma = 2a+1, delta = -2b+1.
    """
    require_valid(p)
    a, b = p.a, p.b
    return NewAmsterdamDigraph(
        2 * p.n,
        alpha=-1,
        beta=2 * (b - a) - 1,
        gamma=2 * a + 1,
        delta=-2 * b + 1,
    )


def na_to_mh(p: NewAmsterdamDigraph) -> ManhattanDigraph:
    """New Amsterdam digraph on N -> Manhattan digraph on 2N.

    Steps: a = (1, 2α-1, 1, -2α-1), b = (2γ+1, 2β+2γ-1, -2γ+1, -2β-2γ-1).
    """
    require_valid(p)
    alpha, beta, gamma = p.alpha, p.beta, p.gamma
    return ManhattanDigraph(
        2 * p.n,
        a0=1,
        b0=2 * gamma + 1,
        a1=2 * alpha - 1,
        b1=2 * beta + 2 * gamma - 1,
        a2=1,
        b2=-2 * gamma + 1,
        a3=-2 * alpha - 1,
        b3=-2 * beta - 2 * gamma - 1,
    )


def ds_to_mh(p: DoubleStepGraph) -> ManhattanDigraph:
    """Double-step graph on N -> Manhattan digraph on 4N: na_to_mh(ds_to_na(p)).

    Steps: a = (1, -3, 1, 1), b = (4a+3, 4b-1, -4a-1, -4b-1).
    """
    return na_to_mh(ds_to_na(p))


class SandwichReport(NamedTuple):
    ds: DoubleStepGraph
    k: int
    na_diameter: int
    mh_diameter: int

    @property
    def checks(self) -> tuple[tuple[str, int, int, int], ...]:
        """(kind, derived diameter, low, high) for each derived digraph."""
        k = self.k
        return (
            ("na-from-ds", self.na_diameter, 2 * k, 2 * k + 1),
            ("mh-from-ds", self.mh_diameter, 2 * k + 1, 2 * k + 2),
        )

    @property
    def passed(self) -> bool:
        return all(low <= d <= high for _, d, low, high in self.checks)


def check_diameter_sandwich(p: DoubleStepGraph) -> SandwichReport:
    """Check 2k <= D_NA <= 2k+1 and 2k+1 <= D_MH <= 2k+2 for k = D(G).

    The chain is derived once, na = ds_to_na(p) and mh = na_to_mh(na), and
    each of the three digraphs gets one period BFS.
    """
    na = ds_to_na(p)
    mh = na_to_mh(na)
    require_valid(mh)
    k = family_diameter(p)
    if k is None:
        raise FamilyError(f"double-step graph {p} is not strongly connected")
    na_d, mh_d = family_diameter(na), family_diameter(mh)
    if na_d is None or mh_d is None:
        raise FamilyError(f"derived digraph of {p} is not strongly connected")
    return SandwichReport(p, k, na_d, mh_d)
