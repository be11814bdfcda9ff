"""Parameter records and compilation for the three step-graph families.

Double-step graphs live on Z_N with undirected steps +-a, +-b.  New
Amsterdam digraphs live on even Z_N with odd steps alpha, beta out of the
even vertices and gamma, delta out of the odd ones, the four steps summing
to 0 mod N.  Manhattan digraphs live on Z_N with N a multiple of 4 and one
odd step pair (a_j, b_j) per residue class mod 4.

Steps are stored as canonical residues in 0..N-1 (negative inputs reduce
on entry).  Each family's arcs are described once, by a row builder that
maps (N, steps) to plain successor tuples; the search runs BFS on those
rows directly.  Compilation deduplicates coincident heads of the same rows
so the resulting Digraph never carries parallel arcs, even for degenerate
step choices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

from .graphs import Digraph


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


def validate(p: FamilyParams) -> Validation:
    if isinstance(p, DoubleStepGraph):
        return validate_ds(p)
    if isinstance(p, NewAmsterdamDigraph):
        return validate_na(p)
    return validate_mh(p)


def _dedup(heads: tuple[int, ...]) -> tuple[int, ...]:
    seen: list[int] = []
    for h in heads:
        if h not in seen:
            seen.append(h)
    return tuple(seen)


def _check_strict(p: FamilyParams, strict: bool) -> None:
    if strict:
        v = validate(p)
        if not v.ok:
            raise FamilyError("; ".join(v.errors))


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


# Family tag -> (row builder, translation period).  The out-steps of vertex
# i depend only on i mod the period, so shifting every vertex by the period
# is an automorphism and vertices 0..period-1 represent every translation
# class: their eccentricities give the diameter.
ROW_BUILDERS = {"ds": (ds_rows, 1), "na": (na_rows, 2), "mh": (mh_rows, 4)}


def _digraph(n: int, rows: list[tuple[int, ...]]) -> Digraph:
    return Digraph(n, tuple(_dedup(heads) for heads in rows))


def compile_ds(p: DoubleStepGraph, strict: bool = True) -> Digraph:
    """Arc-symmetric digraph: i -> i+a, i-a, i+b, i-b (mod N)."""
    _check_strict(p, strict)
    return _digraph(p.n, ds_rows(p.n, p.steps))


def compile_na(p: NewAmsterdamDigraph, strict: bool = True) -> Digraph:
    """Even i -> i+alpha, i+beta; odd i -> i+gamma, i+delta (mod N)."""
    _check_strict(p, strict)
    return _digraph(p.n, na_rows(p.n, p.steps))


def compile_mh(p: ManhattanDigraph, strict: bool = True) -> Digraph:
    """i in V_j -> i+a_j, i+b_j (mod N), with classes indexed by j = -i (mod 4)."""
    _check_strict(p, strict)
    return _digraph(p.n, mh_rows(p.n, p.steps))


def compile_params(p: FamilyParams, strict: bool = True) -> Digraph:
    if isinstance(p, DoubleStepGraph):
        return compile_ds(p, strict)
    if isinstance(p, NewAmsterdamDigraph):
        return compile_na(p, strict)
    return compile_mh(p, strict)


def family_tag(p: FamilyParams) -> str:
    if isinstance(p, DoubleStepGraph):
        return "ds"
    if isinstance(p, NewAmsterdamDigraph):
        return "na"
    return "mh"


def format_params(p: FamilyParams) -> str:
    """Canonical text form, e.g. ``na:10,9,1,3,7`` (residues in 0..N-1)."""
    if isinstance(p, DoubleStepGraph):
        fields = (p.n, p.a, p.b)
    elif isinstance(p, NewAmsterdamDigraph):
        fields = (p.n,) + p.steps
    else:
        fields = (p.n,) + p.steps
    return family_tag(p) + ":" + ",".join(str(x) for x in fields)


def parse_params(text: str) -> FamilyParams:
    """Parse ``ds:N,a,b`` / ``na:N,α,β,γ,δ`` / ``mh:N,a0,b0,...,a3,b3``."""
    try:
        tag, rest = text.strip().split(":", 1)
        values = [int(tok) for tok in rest.split(",")]
    except ValueError as exc:
        raise FamilyError(f"malformed parameter text {text!r}") from exc
    tag = tag.strip().lower()
    if tag == "ds" and len(values) == 3:
        return DoubleStepGraph(*values)
    if tag == "na" and len(values) == 5:
        return NewAmsterdamDigraph(*values)
    if tag == "mh" and len(values) == 9:
        return ManhattanDigraph(*values)
    raise FamilyError(f"malformed parameter text {text!r}")
