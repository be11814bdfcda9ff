"""Parameter records and compilation for the three step-graph families.

Double-step graphs live on Z_N with undirected steps +-a, +-b.  New
Amsterdam digraphs live on even Z_N with odd steps alpha, beta out of the
even vertices and gamma, delta out of the odd ones, the four steps summing
to 0 mod N.  Manhattan digraphs live on Z_N with N a multiple of 4 and one
odd step pair (a_j, b_j) per residue class mod 4.

Each family is described once, by its parameter record class, a
``FamilyParams`` subclass: tag, translation period, step fields,
validator, step classes (the out-steps of residues 0..period-1, on which
the search runs graphs.bounded_diameter and graphs.reach_diameter
directly), candidate generator, enumeration key, orbit map and
``representatives``, the one walk over the orbits that the search and
``verify`` share.  DS and MH orbits are multiplier orbits.  NA orbits are
gauge orbits, which ``gauge_orbits`` lists from the DS orbits of the
quotient ring, for the NA walk and the mod-4 Manhattan search alike.
``FAMILIES`` maps each tag to its class; callers look the class up by tag,
or call a record's own methods, instead of branching on the family.  Only
compilation builds per-vertex rows, by graphs.step_rows, which merges
coincident heads so that a Digraph never carries parallel arcs.
require_valid is the one validity gate: compile_params (when strict) and
the step translations call it, and family_diameter and line_diameter never
validate.  Moore bounds and theorems are in ``bounds.THEOREMS``.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, ClassVar, Iterator, NamedTuple, Optional, Sequence

from .graphs import (
    Digraph,
    GridnetError,
    bounded_diameter,
    line_classes,
    step_rows,
)


class FamilyError(GridnetError):
    """Raised for malformed parameters or ones that violate their family's
    conditions."""


class FamilyParams(tuple):
    """What the three parameter record classes share, and what each defines.

    A record is the tuple ``(n, *steps)``: the order ``n``, then the step
    fields its class declares after it, each reduced mod n on entry.
    ``steps`` is that tuple's tail.  A class also declares its ``tag`` and
    its ``period``: the out-steps of vertex i depend only on i mod period,
    and the order must be a positive multiple of it, so that shifting every
    vertex by the period is an automorphism.

    Each class body defines its family's operations once.  ``p.validate()``
    returns the conditions that the record p violates, empty when p is
    valid.  The others are static methods on step tuples:

    ``classes(n, steps)`` lists the out-steps of residues 0..period-1:
    vertex i steps to i + x (mod n) for each x in ``classes[i % period]``.
    Vertices 0..period-1 represent every translation class: their
    eccentricities give the diameter, which graphs.bounded_diameter finds
    from the classes alone, with no per-vertex rows.
    ``candidates(n)`` yields every valid step tuple of order n once, up to
    the family's symmetry, in increasing ``key`` order.
    ``key(steps)`` is the enumeration key: the steps the generator chooses,
    in its nesting order, so that sorting by key is enumeration order.
    ``orbit(n, steps)`` yields the candidates whose digraphs the family's
    maps make isomorphic to that of ``steps``, each once and in key order;
    from any member it yields the whole orbit, the member included.
    ``representatives(n)`` yields each orbit's key-least member with the
    orbit's size, in key order; the search runs one BFS per representative,
    and ``orbit_checks`` one check.

    DS and MH orbits are multiplier orbits: the images under x -> ux (u a
    unit of Z_N), combined with translations, found by the ``weight`` test
    below.  NA orbits are the coarser gauge orbits of ``gauge_orbits``.
    Each class describes one space, its family's valid step tuples; the
    mod-4 Manhattan subspace is searched apart (``search._mod4_search``).
    """

    __slots__ = ()
    tag: ClassVar[str]
    period: ClassVar[int]

    def __new__(cls, *args: int, **kwargs: int) -> "FamilyParams":
        # The field tuple's __new__ binds positional and keyword arguments.
        n, *steps = super().__new__(cls, *args, **kwargs)
        if n < cls.period:
            raise FamilyError(f"order must be at least {cls.period}, got {n}")
        if n % cls.period:
            raise FamilyError(f"order must be a multiple of {cls.period}, got {n}")
        return tuple.__new__(cls, (n, *[step % n for step in steps]))

    @classmethod
    def _make(cls, iterable):  # so that _make and _replace check and reduce too
        return cls(*iterable)

    @property
    def steps(self) -> tuple[int, ...]:
        return self[1:]

    @classmethod
    def representatives(cls, n: int) -> Iterator[tuple[tuple[int, ...], int]]:
        """Yield (steps, orbit size) for each multiplier orbit's key-least member.

        ``candidates(n, least_leads=True)`` skips candidates whose leading
        step some map lowers (and, for MH, whose second key digit a map
        keeping the lead lowers).  ``weight(n, steps)`` is the orbit's size
        if ``steps`` is its key-least member, else None.  Only the maps that
        keep the least leading step can give an image of smaller key: those
        with ux = lead for the step x that the map moves to the lead.  The
        test walks these maps and returns None at the first image of
        smaller key; otherwise it returns the orbit's size
        (orbit-stabiliser): the number of maps over the number that fix it.
        """
        weight = cls.weight
        for steps in cls.candidates(n, least_leads=True):
            size = weight(n, steps)
            if size is not None:
                yield steps, size

    @classmethod
    def orbit_checks(
        cls, n: int, check: Callable[[FamilyParams], tuple[int, list[str]]]
    ) -> tuple[int, list[str]]:
        """(checks, FAIL lines) of ``check`` over the candidates of order n.

        ``check(p)`` returns the number of checks p makes and the FAIL lines
        of those that fail.  It runs on each orbit's representative, which
        counts as the orbit's size times that number: sound when every
        orbit map is an isomorphism of the digraphs the check measures.
        Isomorphic NA digraphs have isomorphic line digraphs, so gamma !=
        delta, strong connectivity, D and D(L) hold on a whole gauge orbit.
        The DS maps act on ds_to_na(a, b)'s gauge class (a, -b) mod N as
        NA gauge maps (``gauge_orbits``), and na_to_mh(X) is isomorphic to
        L(X) (README).  A failing orbit is checked again member by member,
        in key order: its FAIL lines are those of one check per candidate,
        in enumeration order.
        """
        checks = 0
        failing: set[tuple[int, ...]] = set()
        for steps, size in cls.representatives(n):
            count, failed = check(cls(n, *steps))
            checks += count * size
            if failed:
                failing.update(cls.orbit(n, steps))
        return checks, [line for steps in sorted(failing, key=cls.key)
                        for line in check(cls(n, *steps))[1]]


def _leads(
    n: int, values: Sequence[int], least_leads: bool
) -> Iterator[tuple[int, list[bool]]]:
    """Yield each lead value with ``ok``: which steps may go with it.

    Without ``least_leads`` every value leads and every step is ok.  With
    it, a lead is kept only if it is the least of ``values`` sharing its
    gcd with N, and ok[x] holds when the least value sharing gcd(x, N) is
    no smaller than the lead.  The family's maps can put a step x into the
    lead as exactly the values sharing gcd(x, N), so these are the
    candidates whose leading step no map makes smaller.
    """
    if not least_leads:
        ok = [True] * n
        for v in values:
            yield v, ok
        return
    least: dict[int, int] = {}
    for v in values:
        least.setdefault(math.gcd(v, n), v)
    reach = [least.get(math.gcd(x, n), 0) for x in range(n)]
    for v in values:
        if reach[v] == v:
            yield v, [r >= v for r in reach]


def _kept_pairs(
    n: int,
    values: Sequence[int],
    total: int,
    a2: int,
    ok: list[bool],
    solutions: Sequence[Sequence[int]],
) -> list[tuple[int, int]]:
    """The pairs (x, total - x) for x in values that may fill classes j, j + 2.

    Both steps must pass ``ok``, and a unit u sending either step to the
    lead (listed in ``solutions``) must not scale the other below a2: the
    map of ManhattanDigraph.weight that moves classes j, j + 2 to 0, 2
    would give a smaller key.
    """
    kept = []
    for x in values:
        y = (total - x) % n
        if (ok[x] and ok[y] and all(u * y % n >= a2 for u in solutions[x])
                and all(u * x % n >= a2 for u in solutions[y])):
            kept.append((x, y))
    return kept


@lru_cache(maxsize=8)
def _units(n: int) -> tuple[int, ...]:
    return tuple(u for u in range(n) if math.gcd(u, n) == 1)


@lru_cache(maxsize=16)
def _solutions(n: int, lead: int) -> tuple[tuple[int, ...], ...]:
    """Entry x lists the units u with ux = lead (mod N); one x per unit."""
    found: list[list[int]] = [[] for _ in range(n)]
    for u in _units(n):
        found[lead * pow(u, -1, n) % n].append(u)
    return tuple(map(tuple, found))


class _DoubleStepFields(NamedTuple):
    n: int
    a: int
    b: int


class DoubleStepGraph(FamilyParams, _DoubleStepFields):
    __slots__ = ()
    tag = "ds"
    period = 1

    def validate(self) -> tuple[str, ...]:
        """The double-step conditions violated; empty when valid."""
        errors: list[str] = []
        n, a, b = self.n, self.a, self.b
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
        return tuple(errors)

    @staticmethod
    def classes(n: int, steps: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        """Every vertex steps by a, -a, b, -b (mod N); coincident steps are kept."""
        a, b = steps
        return ((a, -a % n, b, -b % n),)

    @staticmethod
    def candidates(n: int, least_leads: bool = False) -> Iterator[tuple[int, int]]:
        """Unordered valid step pairs 1 <= a < b <= N//2 (so a + b < N: a != -b)."""
        half = range(1, n // 2 + 1)
        for a, ok in _leads(n, half, least_leads):
            for b in range(a + 1, n // 2 + 1):
                if ok[b] and math.gcd(n, a, b) == 1:
                    yield (a, b)

    @staticmethod
    def orbit(n: int, steps: tuple[int, ...]) -> Iterator[tuple[int, int]]:
        """The pairs of ``_gauge_orbit(n, a, b)``, steps folded to min(s, N-s)."""
        images = {tuple(sorted((min(x, n - x), min(y, n - y))))
                  for x, y in _gauge_orbit(n, *steps)}
        return iter(sorted(images))

    @staticmethod
    def key(steps: tuple[int, ...]) -> tuple[int, ...]:
        return steps

    @staticmethod
    def weight(n: int, steps: tuple[int, ...]) -> Optional[int]:
        """Maps keep the lead when u.a or u.b is +-a; fold the other step."""
        a, b = steps
        fixed = 0
        for lead in (a, n - a):
            solutions = _solutions(n, lead)
            for x, y in ((a, b), (b, a)):
                for u in solutions[x]:
                    image = u * y % n
                    image = min(image, n - image)
                    if image < b:
                        return None
                    fixed += image == b
        return len(_units(n)) // fixed


class _NewAmsterdamFields(NamedTuple):
    n: int
    alpha: int
    beta: int
    gamma: int
    delta: int


class NewAmsterdamDigraph(FamilyParams, _NewAmsterdamFields):
    __slots__ = ()
    tag = "na"
    period = 2

    def validate(self) -> tuple[str, ...]:
        """The New Amsterdam conditions violated; empty when valid."""
        errors: list[str] = []
        for name, step in zip(("alpha", "beta", "gamma", "delta"), self.steps):
            if step % 2 == 0:
                errors.append(f"step {name} = {step} is even")
        if self.alpha == self.beta:
            errors.append("alpha = beta (mod N)")
        if sum(self.steps) % self.n != 0:
            errors.append(
                f"alpha+beta+gamma+delta = {sum(self.steps) % self.n} != 0 (mod N)"
            )
        return tuple(errors)

    @staticmethod
    def classes(n: int, steps: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        """Even vertices step by alpha, beta; odd ones by gamma, delta."""
        return (steps[0:2], steps[2:4])

    @staticmethod
    def candidates(n: int) -> Iterator[tuple[int, int, int, int]]:
        """Odd alpha < beta; odd gamma <= delta with delta forced by the step sum."""
        odds = range(1, n, 2)
        for alpha in odds:
            for beta in range(alpha + 2, n, 2):
                for gamma in odds:
                    delta = (-(alpha + beta + gamma)) % n
                    if gamma <= delta:
                        yield (alpha, beta, gamma, delta)

    @staticmethod
    def orbit(n: int, steps: tuple[int, ...]) -> Iterator[tuple[int, int, int, int]]:
        """The candidates of the classes of steps' gauge orbit, lead by lead:
        those ordered steps with alpha < beta and gamma <= delta, since the
        orbit holds the classes of the swaps alpha <-> beta, gamma <-> delta.
        """
        m = n // 2
        alpha, _, gamma, delta = steps
        classes = _gauge_orbit(m, (alpha + gamma) // 2 % m, (alpha + delta) // 2 % m)
        for alpha in range(1, n, 2):
            members = []
            for s, t in classes:
                beta = (alpha - 2 * (s + t)) % n
                gamma, delta = (2 * s - alpha) % n, (2 * t - alpha) % n
                if alpha < beta and gamma <= delta:
                    members.append((alpha, beta, gamma, delta))
            yield from sorted(members)

    @staticmethod
    def key(steps: tuple[int, ...]) -> tuple[int, ...]:
        return steps[:3]

    @staticmethod
    def representatives(n: int) -> Iterator[tuple[tuple[int, int, int, int], int]]:
        """Yield (steps, orbit size) for each gauge orbit's key-least member.

        Each class (s, t) of ``gauge_orbits(N/2)`` with s + t != 0 holds one
        ordered tuple with alpha = 1 < beta.  The least of them is the
        key-least member: it has gamma <= delta, as class (t, s) holds its swap.
        """
        m = n // 2
        reps = []
        for orbit in gauge_orbits(m):
            tuples = [(1, (1 - 2 * (s + t)) % n, (2 * s - 1) % n, (2 * t - 1) % n)
                      for s, t in orbit if (s + t) % m]
            if tuples:
                rep = min(tuples)
                reps.append((rep, len(tuples) * m // (2 if rep[2] == rep[3] else 4)))
        return iter(sorted(reps))


def _gauge_orbit(m: int, s: int, t: int) -> frozenset[tuple[int, int]]:
    """The NA gauge classes isomorphic to class (s, t) of order N = 2m.

    Shifting the odd vertices by an even e maps (alpha, beta, gamma, delta)
    to (alpha+e, beta+e, gamma-e, delta-e), so class (s, t) =
    ((alpha+gamma)/2, (alpha+delta)/2) mod m, the ordered steps
    (alpha, alpha-2s-2t, 2s-alpha, 2t-alpha) for odd alpha, is isomorphic.
    A candidate is 4 of them, or 2 when gamma = delta (s = t).  Units of
    Z_m scale (s, t); gamma <-> delta, alpha <-> beta and x -> x+1 map it
    to (t, s), (-t, -s) and (s, -t).  The orbit is whole: NA drops its
    classes with s + t = 0 (alpha = beta), the mod-4 search keeps them.
    """
    images = set()
    for u in _units(m):
        x, y = u * s % m, u * t % m
        images.update(((x, y), (y, x), (x, -y % m), (-y % m, x)))
    return frozenset(images)


def gauge_orbits(m: int) -> Iterator[frozenset[tuple[int, int]]]:
    """Yield each gauge orbit of the classes Z_m^2 once (``_gauge_orbit``).

    Its maps, the units and the signed permutations of (s, t), form the DS
    multiplier group on the step pairs {+-a, +-b} of Z_m.  So the classes
    with s, t != 0, s != +-t and gcd(m, s, t) = 1 have the orbits of (a, -b)
    for (a, b) in ``DoubleStepGraph.representatives(m)``.  A class of gcd g
    is g times a class of Z_{m/g} of gcd 1: such a class, or one in the
    orbit of (0, 1) or of (1, 1), which are one orbit at m/g = 1.
    """
    for g in [g for g in range(1, m + 1) if m % g == 0]:
        q = m // g
        seeds = [(a, -b) for (a, b), _ in DoubleStepGraph.representatives(q)]
        seeds += [(0, 1), (1, 1)] if q > 1 else [(0, 0)]
        for s, t in seeds:
            yield _gauge_orbit(m, g * s % m, g * t % m)


class _ManhattanFields(NamedTuple):
    n: int
    a0: int
    b0: int
    a1: int
    b1: int
    a2: int
    b2: int
    a3: int
    b3: int


class ManhattanDigraph(FamilyParams, _ManhattanFields):
    __slots__ = ()
    tag = "mh"
    period = 4

    def validate(self) -> tuple[str, ...]:
        """The Manhattan conditions violated; empty when valid.

        The residues a_j = 3, b_j = 1 (mod 4) are no condition here: they
        define the mod-4 subspace, which search_mh searches by gauge orbits.
        """
        errors: list[str] = []
        n = self.n
        for j in range(4):
            aj, bj = self.steps[2 * j:2 * j + 2]
            if aj % 2 == 0:
                errors.append(f"step a{j} = {aj} is even")
            if bj % 2 == 0:
                errors.append(f"step b{j} = {bj} is even")
            if aj == bj:
                errors.append(f"a{j} = b{j} (mod N)")
        s = (self.a0 + self.a2) % n
        if (-(self.a1 + self.a3)) % n != s:
            errors.append("a0+a2 != -(a1+a3) (mod N)")
        if (self.b0 + self.b2) % n != s:
            errors.append("b0+b2 != a0+a2 (mod N)")
        if (-(self.b1 + self.b3)) % n != s:
            errors.append("-(b1+b3) != a0+a2 (mod N)")
        return tuple(errors)

    @staticmethod
    def classes(n: int, steps: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        """Residue i mod 4 steps by the pair (a_j, b_j) of class j = -i (mod 4).

        The clockwise class indexing is the one under which the step-translated
        Manhattan digraph coincides with the line digraph of its New Amsterdam
        digraph (and extends the parity convention there, since -i = i mod 2).
        Residues 0, 1, 2, 3 therefore take the pairs of V_0, V_3, V_2, V_1.
        """
        return (steps[0:2], steps[6:8], steps[4:6], steps[2:4])

    @staticmethod
    def candidates(
        n: int, least_leads: bool = False
    ) -> Iterator[tuple[int, int, int, int, int, int, int, int]]:
        """Free odd a0,a1,a2,b0,b1; a3,b2,b3 forced by the sum conditions.

        Yields (a0,b0,a1,b1,a2,b2,a3,b3).  The odd classes' pairs (a1, a3)
        and (b1, b3) both sum to -s = -(a0+a2), so they range over one list.

        With ``least_leads`` the step pairs of classes j and j + 2, (a0, a2),
        (a1, a3), (b0, b2) and (b1, b3), must also keep a2, the second key
        digit, from falling under the maps that keep the lead (_kept_pairs).
        """
        odds = range(1, n, 2)
        for a0, ok in _leads(n, odds, least_leads):
            # Without least_leads no map is tried, so every pair is kept.
            solutions = _solutions(n, a0) if least_leads else ((),) * n
            for a2 in odds:
                s = (a0 + a2) % n
                if not _kept_pairs(n, (a0,), s, a2, ok, solutions):
                    continue
                odd_pairs = _kept_pairs(n, odds, -s, a2, ok, solutions)
                b02 = _kept_pairs(n, odds, s, a2, ok, solutions)
                for a1, a3 in odd_pairs:
                    for b0, b2 in b02:
                        if b0 == a0:
                            continue
                        for b1, b3 in odd_pairs:
                            if b1 != a1:
                                yield (a0, b0, a1, b1, a2, b2, a3, b3)

    @staticmethod
    def orbit(n: int, steps: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        """x -> ux + t for each unit u and t = 0..3, and the a/b swaps.

        Residue r = i mod 4 steps by the pair of class -r mod 4 (see classes).
        The map sends residue r to ur + t and scales its pair by u.  Swapping
        a and b in both even classes, or in both odd classes, keeps the sum
        conditions and the digraph itself.
        """
        by_residue = [steps[2 * (-r % 4):][:2] for r in range(4)]
        images = set()
        for u in _units(n):
            for t in range(4):
                classes: list = [None] * 4
                for r, (x, y) in enumerate(by_residue):
                    classes[-(u * r + t) % 4] = (u * x % n, u * y % n)
                (a0, b0), (a1, b1), (a2, b2), (a3, b3) = classes
                images.update(((a0, b0, a1, b1, a2, b2, a3, b3),
                               (b0, a0, a1, b1, b2, a2, a3, b3),
                               (a0, b0, b1, a1, a2, b2, b3, a3),
                               (b0, a0, b1, a1, b2, a2, b3, a3)))
        return iter(sorted(images, key=ManhattanDigraph.key))

    @staticmethod
    def key(steps: tuple[int, ...]) -> tuple[int, ...]:
        return steps[0], steps[4], steps[2], steps[1], steps[3]

    @staticmethod
    def weight(n: int, steps: tuple[int, ...]) -> Optional[int]:
        """Maps keep the lead when they send the class j holding x to class 0.

        With t = uj (mod 4) class j + i goes to class ui, so classes j, j + 2,
        j + u and j - u become 0, 2, 1 and 3.  If x is b_j the even classes
        swap; the odd classes may swap either way.
        """
        pairs = (steps[0:2], steps[2:4], steps[4:6], steps[6:8])
        lead, a2, a1, b0, b1 = ManhattanDigraph.key(steps)
        solutions = _solutions(n, lead)
        fixed = 0
        for j in range(4):
            for even in (0, 1):
                lead_pair, pair2 = pairs[j], pairs[(j + 2) % 4]
                for u in solutions[lead_pair[even]]:
                    image_a2 = u * pair2[even] % n
                    if image_a2 != a2:
                        if image_a2 < a2:
                            return None
                        continue
                    pair1 = pairs[(j + u) % 4]
                    image_b0 = u * lead_pair[1 - even] % n
                    for odd in (0, 1):
                        image = (u * pair1[odd] % n, image_b0, u * pair1[1 - odd] % n)
                        if image < (a1, b0, b1):
                            return None
                        fixed += image == (a1, b0, b1)
        return 16 * len(_units(n)) // fixed


FAMILIES: dict[str, type[FamilyParams]] = {
    cls.tag: cls for cls in (DoubleStepGraph, NewAmsterdamDigraph, ManhattanDigraph)
}


def require_valid(p: FamilyParams) -> None:
    """Raise FamilyError listing the conditions p violates, if any."""
    errors = p.validate()
    if errors:
        raise FamilyError("; ".join(errors))


def compile_params(p: FamilyParams, strict: bool = True) -> Digraph:
    """p's digraph: step_rows of the family's classes, coincident heads
    merged.  With ``strict``, require_valid(p) first."""
    if strict:
        require_valid(p)
    return Digraph(p.n, tuple(step_rows(p.classes(p.n, p.steps), p.n)))


def family_diameter(p: FamilyParams) -> Optional[int]:
    """Diameter of p's digraph, or None when it is not strongly connected.

    graphs.bounded_diameter of the family's classes; p is not validated.
    """
    return bounded_diameter(p.classes(p.n, p.steps), p.n, None)


def line_diameter(p: FamilyParams) -> Optional[int]:
    """Diameter of the line digraph of p's digraph, or None as in diameter.

    graphs.bounded_diameter of the line classes of the family's classes;
    p is not validated.
    """
    line, order = line_classes(p.classes(p.n, p.steps), p.n)
    return bounded_diameter(line, order, None)


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
    if family is None or len(values) != len(family._fields):
        raise FamilyError(f"malformed parameter text {text!r}")
    return family(*values)
