"""Parameter records and compilation for the three step-graph families.

Double-step graphs live on Z_N with undirected steps +-a, +-b.  New
Amsterdam digraphs live on even Z_N with odd steps alpha, beta out of the
even vertices and gamma, delta out of the odd ones, the four steps summing
to 0 mod N.  Manhattan digraphs live on Z_N with N a multiple of 4 and one
odd step pair (a_j, b_j) per residue class mod 4.

Steps are stored as canonical residues in 0..N-1 (negative inputs reduce
on entry).  Each family is described once, by its ``Family`` record in
``FAMILIES``: parameter class, validator, row builder (plain successor
tuples for (N, steps), on which the search runs BFS directly), translation
period, candidate generator, orbit map and memo slots, Moore bound and
theorem predictor.  Callers look the record up by tag or by ``params.tag``
instead of branching on the family.  Compilation deduplicates coincident
heads of the same rows so the resulting Digraph never carries parallel arcs,
even for degenerate step choices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Callable, ClassVar, Iterator, Optional, Sequence, Union

from . import bounds
from .graphs import Digraph, bounded_diameter, line_rows


class FamilyError(ValueError):
    """Raised when compiling parameters with hard validity violations."""


@dataclass(frozen=True)
class Validation:
    errors: tuple[str, ...]
    warnings: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.errors


def _reduce(step: int, n: int) -> int:
    return step % n


@dataclass(frozen=True)
class DoubleStepGraph:
    tag: ClassVar[str] = "ds"

    n: int
    a: int
    b: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise FamilyError(f"order must be positive, got {self.n}")
        object.__setattr__(self, "a", _reduce(self.a, self.n))
        object.__setattr__(self, "b", _reduce(self.b, self.n))

    @property
    def steps(self) -> tuple[int, int]:
        return (self.a, self.b)


@dataclass(frozen=True)
class NewAmsterdamDigraph:
    tag: ClassVar[str] = "na"

    n: int
    alpha: int
    beta: int
    gamma: int
    delta: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise FamilyError(f"order must be at least 2, got {self.n}")
        for name in ("alpha", "beta", "gamma", "delta"):
            object.__setattr__(self, name, _reduce(getattr(self, name), self.n))

    @property
    def steps(self) -> tuple[int, int, int, int]:
        return (self.alpha, self.beta, self.gamma, self.delta)


@dataclass(frozen=True)
class ManhattanDigraph:
    tag: ClassVar[str] = "mh"

    n: int
    a0: int
    b0: int
    a1: int
    b1: int
    a2: int
    b2: int
    a3: int
    b3: int

    def __post_init__(self) -> None:
        if self.n < 4:
            raise FamilyError(f"order must be at least 4, got {self.n}")
        for name in ("a0", "b0", "a1", "b1", "a2", "b2", "a3", "b3"):
            object.__setattr__(self, name, _reduce(getattr(self, name), self.n))

    @property
    def steps(self) -> tuple[int, ...]:
        return (self.a0, self.b0, self.a1, self.b1, self.a2, self.b2, self.a3, self.b3)

    def step_pair(self, j: int) -> tuple[int, int]:
        return (self.steps[2 * j], self.steps[2 * j + 1])


FamilyParams = Union[DoubleStepGraph, NewAmsterdamDigraph, ManhattanDigraph]


def validate_ds(p: DoubleStepGraph) -> Validation:
    errors: list[str] = []
    warnings: list[str] = []
    n, a, b = p.n, p.a, p.b
    if a == 0:
        errors.append("step a = 0 (mod N)")
    if b == 0:
        errors.append("step b = 0 (mod N)")
    if a == b:
        errors.append("a = b (mod N)")
    if a == (-b) % n:
        errors.append("a = -b (mod N)")
    if math.gcd(n, a, b) != 1:
        errors.append(f"gcd(N,a,b) = {math.gcd(n, a, b)} != 1")
    if (2 * a) % n == 0 and a != 0:
        warnings.append("2a = 0 (mod N): step a is self-inverse, out-degree < 4")
    if (2 * b) % n == 0 and b != 0:
        warnings.append("2b = 0 (mod N): step b is self-inverse, out-degree < 4")
    return Validation(tuple(errors), tuple(warnings))


def validate_na(p: NewAmsterdamDigraph) -> Validation:
    errors: list[str] = []
    warnings: list[str] = []
    n = p.n
    if n % 2 != 0:
        errors.append(f"order {n} is odd")
        return Validation(tuple(errors), tuple(warnings))
    for name, step in zip(("alpha", "beta", "gamma", "delta"), p.steps):
        if step % 2 == 0:
            errors.append(f"step {name} = {step} is even")
    if p.alpha == p.beta:
        errors.append("alpha = beta (mod N)")
    if sum(p.steps) % n != 0:
        errors.append(f"alpha+beta+gamma+delta = {sum(p.steps) % n} != 0 (mod N)")
    if p.gamma == p.delta:
        warnings.append("gamma = delta (mod N): odd vertices have out-degree 1")
    return Validation(tuple(errors), tuple(warnings))


def validate_mh(p: ManhattanDigraph) -> Validation:
    errors: list[str] = []
    warnings: list[str] = []
    n = p.n
    if n % 4 != 0:
        errors.append(f"order {n} is not a multiple of 4")
        return Validation(tuple(errors), tuple(warnings))
    for j in range(4):
        aj, bj = p.step_pair(j)
        if aj % 2 == 0:
            errors.append(f"step a{j} = {aj} is even")
        if bj % 2 == 0:
            errors.append(f"step b{j} = {bj} is even")
        if aj == bj:
            errors.append(f"a{j} = b{j} (mod N)")
    s = (p.a0 + p.a2) % n
    if (-(p.a1 + p.a3)) % n != s:
        errors.append("a0+a2 != -(a1+a3) (mod N)")
    if (p.b0 + p.b2) % n != s:
        errors.append("b0+b2 != a0+a2 (mod N)")
    if (-(p.b1 + p.b3)) % n != s:
        errors.append("-(b1+b3) != a0+a2 (mod N)")
    for j in range(4):
        aj, bj = p.step_pair(j)
        if aj % 4 != 3:
            warnings.append(f"a{j} = {aj % 4} (mod 4), not 3")
        if bj % 4 != 1:
            warnings.append(f"b{j} = {bj % 4} (mod 4), not 1")
    return Validation(tuple(errors), tuple(warnings))


def _dedup(heads: tuple[int, ...]) -> tuple[int, ...]:
    seen: list[int] = []
    for h in heads:
        if h not in seen:
            seen.append(h)
    return tuple(seen)


def _pair_rows(n: int, pairs: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    """Out-rows on Z_n where vertex i steps by ``pairs[i % len(pairs)]``."""
    p = len(pairs)
    rows: list = [None] * n
    for r, (x, y) in enumerate(pairs):
        rows[r::p] = [((i + x) % n, (i + y) % n) for i in range(r, n, p)]
    return rows


def ds_rows(n: int, steps: tuple[int, ...]) -> list[tuple[int, ...]]:
    """i -> i+a, i-a, i+b, i-b (mod N); coincident heads are kept."""
    a, b = steps
    return [((i + a) % n, (i - a) % n, (i + b) % n, (i - b) % n) for i in range(n)]


def na_rows(n: int, steps: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Even i -> i+alpha, i+beta; odd i -> i+gamma, i+delta (mod N)."""
    return _pair_rows(n, (steps[0:2], steps[2:4]))


def mh_rows(n: int, steps: tuple[int, ...]) -> list[tuple[int, ...]]:
    """i in V_j -> i+a_j, i+b_j (mod N), with classes indexed by j = -i (mod 4).

    The clockwise class indexing is the one under which the step-translated
    Manhattan digraph coincides with the line digraph of its New Amsterdam
    digraph (and extends the parity convention there, since -i = i mod 2).
    Residues i = 0, 1, 2, 3 (mod 4) therefore take the pairs of V_0, V_3,
    V_2, V_1.
    """
    return _pair_rows(n, (steps[0:2], steps[6:8], steps[4:6], steps[2:4]))


def ds_candidates(n: int) -> Iterator[tuple[int, int]]:
    """Unordered valid step pairs 1 <= a < b <= N//2 (so a + b < N: a != -b)."""
    for a in range(1, n // 2 + 1):
        for b in range(a + 1, n // 2 + 1):
            if math.gcd(n, a, b) == 1:
                yield (a, b)


def na_candidates(n: int) -> Iterator[tuple[int, int, int, int]]:
    """Odd alpha < beta; odd gamma <= delta with delta forced by the step sum."""
    odds = range(1, n, 2)
    for alpha in odds:
        for beta in range(alpha + 2, n, 2):
            for gamma in odds:
                delta = (-(alpha + beta + gamma)) % n
                if gamma <= delta:
                    yield (alpha, beta, gamma, delta)


def mh_candidates(
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


@lru_cache(maxsize=8)
def _units(n: int) -> tuple[int, ...]:
    return tuple(u for u in range(1, n) if math.gcd(u, n) == 1)


def ds_orbit(n: int, steps: tuple[int, ...]) -> Iterator[tuple[int, int]]:
    """x -> ux for each unit u: steps (ua, ub), each folded to min(s, N-s)."""
    a, b = steps
    for u in _units(n):
        x, y = u * a % n, u * b % n
        x, y = min(x, n - x), min(y, n - y)
        yield (x, y) if x < y else (y, x)


def na_orbit(n: int, steps: tuple[int, ...]) -> Iterator[tuple[int, int, int, int]]:
    """x -> ux for each unit u, with and without the shift x -> x+1.

    The shift swaps the roles of the even and odd vertices:
    (alpha, beta, gamma, delta) -> (gamma, delta, alpha, beta).  An image
    with alpha = beta comes from gamma = delta and is no candidate.
    """
    alpha, beta, gamma, delta = steps
    for u in _units(n):
        a, b, c, d = u * alpha % n, u * beta % n, u * gamma % n, u * delta % n
        if a > b:
            a, b = b, a
        if c > d:
            c, d = d, c
        yield (a, b, c, d)
        if c != d:
            yield (c, d, a, b)


def mh_orbit(n: int, steps: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """x -> ux + t for each unit u and t = 0..3, and the a/b swaps.

    Residue r = i mod 4 steps by the pair of class -r mod 4 (see mh_rows).
    The map sends residue r to ur + t and scales its pair by u.  Swapping
    a and b in both even classes, or in both odd classes, keeps the sum
    conditions and the digraph itself.
    """
    by_residue = [steps[2 * (-r % 4):][:2] for r in range(4)]
    for u in _units(n):
        for t in range(4):
            classes: list = [None] * 4
            for r, (x, y) in enumerate(by_residue):
                classes[-(u * r + t) % 4] = (u * x % n, u * y % n)
            (a0, b0), (a1, b1), (a2, b2), (a3, b3) = classes
            yield (a0, b0, a1, b1, a2, b2, a3, b3)
            yield (b0, a0, a1, b1, b2, a2, a3, b3)
            yield (a0, b0, b1, a1, a2, b2, b3, a3)
            yield (b0, a0, b1, a1, b2, a2, b3, a3)


# Memo slots: a candidate is fixed by the steps its generator chooses (the
# others are forced), so those steps, read as digits, index a dense table.
# Each returns (table size, slot of a candidate).


def ds_slots(n: int) -> tuple[int, Callable[[tuple[int, ...]], int]]:
    """Digits a, b in 1..N/2."""
    h = n // 2 + 1
    return h * h, lambda s: s[0] * h + s[1]


def na_slots(n: int) -> tuple[int, Callable[[tuple[int, ...]], int]]:
    """Digits alpha, beta, gamma (odd, so halved); delta is forced."""
    h = n // 2
    return h ** 3, lambda s: ((s[0] >> 1) * h + (s[1] >> 1)) * h + (s[2] >> 1)


def mh_slots(n: int) -> tuple[int, Callable[[tuple[int, ...]], int]]:
    """Digits a0, b0, a1, b1, a2 (odd, so halved); a3, b2, b3 are forced."""
    h = n // 2
    return h ** 5, lambda s: (
        (((s[0] >> 1) * h + (s[1] >> 1)) * h + (s[2] >> 1)) * h + (s[3] >> 1)
    ) * h + (s[4] >> 1)


@dataclass(frozen=True)
class Family:
    """Everything that differs between the three families, stated once.

    ``rows(n, steps)`` lists the successors of each vertex.  The out-steps
    of vertex i depend only on i mod ``period``, so shifting every vertex by
    the period is an automorphism and vertices 0..period-1 represent every
    translation class: their eccentricities give the diameter.
    ``candidates(n)`` yields every valid step tuple of order n once, up to
    the family's symmetry.  ``orbit(n, steps)`` yields, in candidate form,
    the steps of digraphs isomorphic to that of ``steps`` under the maps
    x -> ux (u a unit of Z_N), combined with translations; from any member
    it yields the whole orbit, the member included, so one BFS serves every
    candidate in it.  ``slots(n)`` gives the size of a dense table and the
    index in it of a candidate step tuple.  ``moore(k)`` is the largest
    order at diameter k; ``predict(n)`` is the diameter the paper's theorem
    gives at order n, or None where no case covers n.
    """

    params: type
    validate: Callable[..., Validation]
    rows: Callable[[int, tuple[int, ...]], list[tuple[int, ...]]]
    period: int
    candidates: Callable[..., Iterator[tuple[int, ...]]]
    orbit: Callable[[int, tuple[int, ...]], Iterator[tuple[int, ...]]]
    slots: Callable[[int], tuple[int, Callable[[tuple[int, ...]], int]]]
    moore: Callable[[int], int]
    predict: Callable[[int], Optional[int]]

    @property
    def tag(self) -> str:
        return self.params.tag


FAMILIES: dict[str, Family] = {
    f.tag: f
    for f in (
        Family(DoubleStepGraph, validate_ds, ds_rows, 1, ds_candidates,
               ds_orbit, ds_slots,
               bounds.moore_ds, bounds.theorem_41_expected_diameter),
        Family(NewAmsterdamDigraph, validate_na, na_rows, 2, na_candidates,
               na_orbit, na_slots,
               bounds.moore_na, bounds.theorem_42_expected_diameter),
        Family(ManhattanDigraph, validate_mh, mh_rows, 4, mh_candidates,
               mh_orbit, mh_slots,
               bounds.moore_mh, bounds.theorem_43_expected_diameter),
    )
}


def validate(p: FamilyParams) -> Validation:
    return FAMILIES[p.tag].validate(p)


def _family_of(p: FamilyParams, strict: bool) -> Family:
    """The record of p's family; with ``strict``, hard violations raise."""
    if strict:
        v = validate(p)
        if not v.ok:
            raise FamilyError("; ".join(v.errors))
    return FAMILIES[p.tag]


def family_rows(p: FamilyParams, strict: bool = True) -> list[tuple[int, ...]]:
    """The family's rows of p with coincident heads merged.

    These are the out-lists of compile_params, without the Digraph.  With
    ``strict``, hard validity violations raise FamilyError first.
    """
    return [_dedup(heads) for heads in _family_of(p, strict).rows(p.n, p.steps)]


def compile_params(p: FamilyParams, strict: bool = True) -> Digraph:
    """family_rows(p, strict) as a Digraph."""
    return Digraph(p.n, tuple(family_rows(p, strict)))


def _period(fam: Family, n: int) -> int:
    """fam.period if it divides n (the shift is then an automorphism), else n."""
    return fam.period if n % fam.period == 0 else n


def family_diameter(p: FamilyParams, strict: bool = True) -> Optional[int]:
    """Diameter of p's digraph, or None when it is not strongly connected.

    BFS runs on the family's rows from one vertex per translation class,
    as in the search, without building a Digraph.  ``strict`` validates as
    in compile_params.
    """
    fam = _family_of(p, strict)
    sources = range(_period(fam, p.n))
    return bounded_diameter(fam.rows(p.n, p.steps), p.n, None, sources)


def line_diameter(p: FamilyParams, strict: bool = True) -> Optional[int]:
    """Diameter of the line digraph of p's digraph, or None as in diameter.

    The line digraph is that of compile_params(p), numbered as in
    graphs.line_digraph, but no Digraph is built.  Shifting by the period
    sends arc (u, j) to (u + period, j), so it adds the number of arcs out
    of vertices 0..period-1 to every arc index (mod the arc count): BFS from
    those arcs alone gives the diameter.  When the period does not divide
    the order, BFS runs from every arc.  ``strict`` validates as in
    compile_params.
    """
    rows = family_rows(p, strict)
    arcs = line_rows(rows)
    period = _period(FAMILIES[p.tag], p.n)
    sources = range(sum(len(heads) for heads in rows[:period]))
    return bounded_diameter(arcs, len(arcs), None, sources)


# Per-family names for the same compiler, for callers that name the family.
compile_ds = compile_na = compile_mh = compile_params


def format_params(p: FamilyParams) -> str:
    """Canonical text form, e.g. ``na:10,9,1,3,7`` (residues in 0..N-1)."""
    return p.tag + ":" + ",".join(str(x) for x in (p.n,) + p.steps)


def parse_params(text: str) -> FamilyParams:
    """Parse ``ds:N,a,b`` / ``na:N,α,β,γ,δ`` / ``mh:N,a0,b0,...,a3,b3``."""
    try:
        tag, rest = text.strip().split(":", 1)
        values = [int(tok) for tok in rest.split(",")]
    except ValueError as exc:
        raise FamilyError(f"malformed parameter text {text!r}") from exc
    family = FAMILIES.get(tag.strip().lower())
    if family is None or len(values) != len(fields(family.params)):
        raise FamilyError(f"malformed parameter text {text!r}")
    return family.params(*values)
