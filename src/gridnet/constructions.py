"""Step-translation maps between the families.

Each map doubles the order and carries the explicit particular solution of
the corresponding condition system; it passes its input through
families.require_valid first.  The condition checkers let callers validate
alternative solutions of the same systems.  The chain DS -> NA ->
MH is written once: ds_to_mh is the composition.  check_diameter_sandwich
derives the chain of one DS graph and bounds both derived diameters.
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
