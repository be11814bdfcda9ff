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
directly), enumeration key, orbit map and ``representatives``, the one
walk over the orbits that the search and ``verify`` share.  DS and MH
orbits are multiplier orbits.  NA orbits are gauge orbits, which
``gauge_orbits`` lists from the DS orbits of the quotient ring, for the NA
walk and for ``Mod4ManhattanDigraph``, the mod-4 Manhattan space's.
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
from heapq import merge
from itertools import product
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
    The candidates of order n are the family's valid step tuples in the
    record's canonical order (DS a < b <= N/2, NA alpha < beta and gamma <=
    delta).  ``key(steps)`` is the enumeration key: the steps that force
    the others, in the order the walk nests its loops, so that sorting by
    key is walk order.
    ``orbit(n, steps)`` yields the candidates whose digraphs the family's
    maps make isomorphic to that of ``steps``, each once and in key order;
    from any member it yields the whole orbit, the member included.
    ``representatives(n)`` yields each orbit's key-least member with the
    orbit's size, in key order; the search runs one BFS per representative,
    and ``orbit_checks`` one check.  No other walk lists the candidates.

    DS and MH orbits are multiplier orbits: the images under x -> ux (u a
    unit of Z_N), combined with translations.  Their walks skip the leading
    steps that a map lowers (``_leads``, ``_kept_pairs``) and test each
    remaining candidate on the maps that keep its leading steps.  NA
    orbits are the coarser gauge orbits of ``gauge_orbits``.  Each class
    describes one space: its family's valid step tuples, or for
    ``Mod4ManhattanDigraph`` the mod-4 Manhattan subspace.
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


def _leads(n: int, values: Sequence[int]) -> Iterator[tuple[int, list[bool]]]:
    """Yield each lead value with ``ok``: which steps may go with it.

    A lead is kept only if it is the least of ``values`` sharing its gcd
    with N, and ok[x] holds when the least value sharing gcd(x, N) is no
    smaller than the lead.  The family's maps can put a step x into the
    lead as exactly the values sharing gcd(x, N), so these are the
    candidates whose leading step no map makes smaller.
    """
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
    map that moves classes j, j + 2 to 0, 2 would give a smaller key
    (``ManhattanDigraph.representatives``).
    """
    kept = []
    for x in values:
        y = (total - x) % n
        if (ok[x] and ok[y] and all(u * y % n >= a2 for u in solutions[x])
                and all(u * x % n >= a2 for u in solutions[y])):
            kept.append((x, y))
    return kept


@lru_cache(maxsize=8)
def _units(n: int) -> tuple[tuple[int, int], ...]:
    """The pairs (u, u^-1) of the units u of Z_N, in increasing u."""
    return tuple((u, pow(u, -1, n)) for u in range(n) if math.gcd(u, n) == 1)


def _solutions(n: int, lead: int) -> list[tuple[int, ...]]:
    """Entry x lists the units u with ux = lead (mod N); one x per unit."""
    found: list[tuple[int, ...]] = [()] * n
    for u, inverse in _units(n):
        found[lead * inverse % n] += (u,)
    return found


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
    def orbit(n: int, steps: tuple[int, ...]) -> Iterator[tuple[int, int]]:
        """The pairs of ``_gauge_orbit(n, a, b)``, steps folded to min(s, N-s)."""
        images = {tuple(sorted((min(x, n - x), min(y, n - y))))
                  for x, y in _gauge_orbit(n, *steps)}
        return iter(sorted(images))

    @staticmethod
    def key(steps: tuple[int, ...]) -> tuple[int, ...]:
        return steps

    @staticmethod
    def representatives(n: int) -> Iterator[tuple[tuple[int, int], int]]:
        """Yield ((a, b), orbit size) for each multiplier orbit's key-least
        member, in key order.

        The candidates are the pairs 1 <= a < b <= N/2 (so a + b < N: a !=
        -b) with gcd(N, a, b) = 1, a a least lead (``_leads``).  Only the
        maps that keep the lead can lower the key: those with u.x = +-a for
        x = a or b.  Each folds the other step to min(uy, N - uy); the pair
        is no representative if one falls below b.  Otherwise the orbit's
        size is the number of units over the number of these maps that fix
        b (orbit-stabiliser).  u.x = -a is u.(N - x) = a, so one
        ``_solutions`` table serves both signs, made once per lead that has
        a candidate.
        """
        half = n // 2
        units = len(_units(n))
        for a, ok in _leads(n, range(1, half + 1)):
            solutions = None
            for b in range(a + 1, half + 1):
                if not ok[b] or math.gcd(n, a, b) != 1:
                    continue
                if solutions is None:
                    solutions = _solutions(n, a)
                fixed = 0
                for x, y in ((b, a), (n - b, a), (a, b), (n - a, b)):
                    for u in solutions[x]:
                        image = u * y % n
                        image = min(image, n - image)
                        if image < b:
                            break
                        fixed += image == b
                    else:
                        continue
                    break  # an image below b: not the orbit's least pair
                else:
                    yield (a, b), units // fixed


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
    to (t, s), (-t, -s) and (s, -t).  The orbit is whole: NA drops its classes
    with s + t = 0 (alpha = beta), ``Mod4ManhattanDigraph`` keeps them.
    """
    images = set()
    for u, _ in _units(m):
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
        define the subspace that ``Mod4ManhattanDigraph`` walks.
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
    def orbit(n: int, steps: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        """x -> ux + t for each unit u and t = 0..3, and the a/b swaps.

        Residue r = i mod 4 steps by the pair of class -r mod 4 (see classes).
        The map sends residue r to ur + t and scales its pair by u.  Swapping
        a and b in both even classes, or in both odd classes, keeps the sum
        conditions and the digraph itself.
        """
        by_residue = [steps[2 * (-r % 4):][:2] for r in range(4)]
        images = set()
        for u, _ in _units(n):
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
    def representatives(n: int) -> Iterator[tuple[tuple[int, ...], int]]:
        """Yield (steps, orbit size) for each orbit's key-least member, in key order.

        The candidates have free odd a0, a2, a1, b0, b1 (the key, in loop
        order) and a3, b2, b3 forced by the sum conditions: the odd classes'
        pairs (a1, a3) and (b1, b3) both sum to -s = -(a0+a2), so they range
        over one list, and (b0, b2) sums to s.  a0 is a least lead
        (``_leads``), and the step pairs of classes j and j + 2 must keep a2
        from falling under the maps that keep the lead (``_kept_pairs``).

        Only the maps that keep a0 and a2 can lower the rest of the key.
        Map (u, j, even) sends class j to 0 and scales by a unit u with
        u.x = a0 for x = a_j (even = 0) or b_j (even = 1).  Classes j + 2,
        j + u and j - u go to 2, 1 and 3, the even classes swap a and b
        when x is b_j, and the odd classes may swap either way, so the
        least image of (a1, b0, b1) is (min(p, q), u.x', max(p, q)): x' is
        x's other step and (p, q) is class j + u's pair, both scaled by u.
        The map keeps a2 when u scales x's partner in class j + 2 to a2.
        These units are listed once per kept pair and orientation, and a
        candidate is tested only on the maps its own four pairs carry.  It
        is its orbit's key-least member when no image is below (a1, b0,
        b1), and the orbit's size is 16 phi(N) (units, 4 shifts, 2 swaps
        each) over the number of images equal to it (orbit-stabiliser).
        The identity fixes every candidate, and its odd swap gives (b1, b0,
        a1): the walk counts the one and takes b1 > a1 as its loop bound.
        """
        odds = range(1, n, 2)
        group = 16 * len(_units(n))
        for a0, ok in _leads(n, odds):
            solutions = _solutions(n, a0)
            for a2 in odds:
                s = (a0 + a2) % n
                if not _kept_pairs(n, (a0,), s, a2, ok, solutions):
                    continue
                odd_pairs = _kept_pairs(n, odds, -s, a2, ok, solutions)
                b02 = _kept_pairs(n, odds, s, a2, ok, solutions)
                even_keeps, odd_keeps = (
                    {x: [u for u in solutions[x] if u * y % n == a2]
                     for pair in pairs for x, y in (pair, pair[::-1])}
                    for pairs in (b02, odd_pairs))
                keeps = (even_keeps, odd_keeps) * 2
                # The maps (u, j, even) that each step carries, by loop level.
                b_maps = [[(u, j, 1) for j, x in ((1, b1), (3, b3))
                           for u in odd_keeps[x]] for b1, b3 in odd_pairs]
                for i, (a1, a3) in enumerate(odd_pairs):
                    a_maps = [(u, j, 0) for j, x in enumerate((a0, a1, a2, a3))
                              for u in keeps[j][x] if (u, j) != (1, 0)]
                    for b0, b2 in b02:
                        if b0 == a0:
                            continue
                        ab_maps = a_maps + [(u, j, 1) for j, x in ((0, b0), (2, b2))
                                            for u in even_keeps[x]]
                        for (b1, b3), maps in zip(odd_pairs[i + 1:], b_maps[i + 1:]):
                            pairs = ((a0, b0), (a1, b1), (a2, b2), (a3, b3))
                            key = (a1, b0, b1)
                            fixed = 1  # the identity
                            for u, j, even in ab_maps + maps:
                                p, q = pairs[(j + u) % 4]
                                p, q = u * p % n, u * q % n
                                image = (min(p, q), u * pairs[j][1 - even] % n, max(p, q))
                                if image < key:
                                    break
                                fixed += image == key
                            else:
                                yield (a0, b0, a1, b1, a2, b2, a3, b3), group // fixed


def _mod4_members(n: int, s: int, t: int) -> Iterator[tuple[int, ...]]:
    """Mod-4 Manhattan class (s, t)'s members in key order, by (a0, a2, a1)."""
    for a0, a2, a1 in product(range(3, n, 4), repeat=3):
        c = a0 + a2
        b0, b1 = (c + a1 - 4 * s) % n, (4 * t - a0) % n
        yield (a0, b0, a1, b1, a2, (c - b0) % n, (-c - a1) % n, (-c - b1) % n)


class Mod4ManhattanDigraph(ManhattanDigraph):
    """The mod-4 Manhattan space, a_j = 3 and b_j = 1 (mod 4), by gauge orbits.

    The space has (N/4)^5 candidates, one at each value of the free steps
    (a0, a2, a1, b0, b1).  Relabelling residue r by v -> v + g_r, each
    g_r = 0 (mod 4), is an isomorphism (README), and its invariants
    (s, t) = ((a0+a2+a1-b0)/4, (b1+a0)/4) mod N/4 name (N/4)^2 classes.
    Class (s, t) is the line digraph of NA class (s, t) of order N/2, so
    the orbits are those of ``gauge_orbits(N/4)``, s + t = 0 included.
    The class is in neither ``FAMILIES`` nor the package's exports: the
    search reports its optima as ``ManhattanDigraph`` records.
    """

    __slots__ = ()

    @staticmethod
    def orbit(n: int, steps: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        """The members of the classes of steps' gauge orbit, merged in key order."""
        a0, b0, a1, b1, a2 = steps[:5]
        classes = _gauge_orbit(n // 4, (a0 + a2 + a1 - b0) % n // 4, (b1 + a0) % n // 4)
        return merge(*(_mod4_members(n, s, t) for s, t in classes),
                     key=ManhattanDigraph.key)

    @staticmethod
    def representatives(n: int) -> Iterator[tuple[tuple[int, ...], int]]:
        """Yield (steps, orbit size) for each gauge orbit's key-least member.

        A class's key-least member has a0 = a2 = a1 = 3, b0 = (9 - 4s) mod N
        and b1 = (4t - 3) mod N, which force the rest; the orbit's is that of
        its least class by (b0, b1).  Each class has (N/4)^3 members.
        """
        m = n // 4
        reps = []
        for orbit in gauge_orbits(m):
            b0, b1 = min(((9 - 4 * s) % n, (4 * t - 3) % n) for s, t in orbit)
            reps.append(((3, b0, 3, b1, 3, (6 - b0) % n, -9 % n, (-6 - b1) % n),
                         len(orbit) * m**3))
        return iter(sorted(reps))


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
