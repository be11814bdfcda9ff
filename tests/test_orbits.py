"""Orbits and the search's orbit representatives.

Each family's ``orbit`` map lists, in key order, the candidates whose
digraphs its maps make isomorphic to a candidate's: for DS and MH the
maps x -> ux (u a unit of Z_N) combined with translations, for NA the
gauge orbits of the (s, t) classes, which ``families.gauge_orbits`` lists
from the DS orbits of Z_{N/2}.  ``search._minimise(cls, n)`` runs BFS once
per orbit, on the member that comes first in enumeration order (least
``key``), which the class's ``representatives`` walk yields with the
orbit's size; for DS and MH that walk skips the leads that some map
lowers and tests each remaining candidate on the maps that keep its
leading steps.  These tests check the maps against brute force, the
representatives against the orbits they list (over the candidates of
``oracles.all_candidates``, which shares no loop with the walks), the
orbit sizes against closed-form counts, and the search against
``plain_search_slice``, the same loop with one BFS per candidate.  The
mod-4 Manhattan space is walked over the same gauge orbits, of Z_{N/4}, by
``families.Mod4ManhattanDigraph``; its cases check that walk, its orbits
and its search the same way, with the orbits found by
``oracles.gauge_closure``.
"""

import math
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gridnet import search
from gridnet.families import (
    FAMILIES,
    ManhattanDigraph,
    Mod4ManhattanDigraph,
    NewAmsterdamDigraph,
    compile_params,
    gauge_orbits,
)
from gridnet.graphs import bounded_diameter, diameter

from oracles import (
    all_candidates,
    gauge_closure,
    in_mod4_space,
    mod4_na_class,
    na_gauge,
    plain_search_slice,
)


@lru_cache(maxsize=4)
def candidate_set(family, n):
    return frozenset(all_candidates(FAMILIES[family], n))


def assert_keys_distinct(family, steps_list):
    key = FAMILIES[family].key
    assert len({key(s) for s in steps_list}) == len(steps_list)


@pytest.mark.parametrize(
    "family,orders",
    [("na", range(4, 31, 2)), ("ds", range(3, 41)), ("mh", (8, 12))],
)
def test_every_image_is_an_isomorphic_candidate(family, orders):
    fam = FAMILIES[family]
    for n in orders:
        diameters = {
            steps: diameter(compile_params(fam(n, *steps), strict=False))
            for steps in all_candidates(fam, n)
        }
        assert_keys_distinct(family, list(diameters))
        for steps, d in diameters.items():
            images = list(fam.orbit(n, steps))
            assert steps in images
            for image in images:
                assert diameters[image] == d, (n, steps, image)


def gauge_class_of(family, n, steps):
    """What ``orbit(n, steps)`` reads: the NA gauge class (s, t), the same
    for the m/2 or m candidates that share it; DS and MH read all steps."""
    if family != "na":
        return steps
    m = n // 2
    alpha, _, gamma, delta = steps
    return (alpha + gamma) // 2 % m, (alpha + delta) // 2 % m


def assert_orbit_sound(family, n, steps):
    fam = FAMILIES[family]
    images = set(fam.orbit(n, steps))
    assert steps in images

    def reduced_diameter(s):
        return bounded_diameter(fam.classes(n, s), n, None)

    d = reduced_diameter(steps)
    listed = set()
    for image in images:
        assert image in candidate_set(family, n), image
        cls = gauge_class_of(family, n, image)
        if cls not in listed:
            listed.add(cls)
            assert set(fam.orbit(n, image)) == images, image
        assert reduced_diameter(image) == d, image
    assert_keys_distinct(family, list(images))


@settings(max_examples=60, deadline=None)
@given(st.integers(5, 100), st.integers(0, 10**6), st.integers(0, 10**6))
def test_double_step_orbit_property(n, x, y):
    a, b = sorted((x % (n // 2) + 1, y % (n // 2) + 1))
    assume(a < b and math.gcd(n, a, b) == 1)
    assert_orbit_sound("ds", n, (a, b))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 30), st.lists(st.integers(0, 10**6), min_size=3, max_size=3))
def test_new_amsterdam_orbit_property(half, raw):
    n = 2 * half
    alpha, beta, gamma = (2 * (x % half) + 1 for x in raw)
    delta = -(alpha + beta + gamma) % n
    assume(alpha != beta)
    steps = (min(alpha, beta), max(alpha, beta), min(gamma, delta), max(gamma, delta))
    assert_orbit_sound("na", n, steps)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.lists(st.integers(0, 10**6), min_size=5, max_size=5))
def test_manhattan_orbit_property(quarter, raw):
    n = 4 * quarter
    a0, b0, a1, b1, a2 = (2 * (x % (2 * quarter)) + 1 for x in raw)
    s = a0 + a2
    steps = (a0, b0, a1, b1, a2, (s - b0) % n, (-s - a1) % n, (-s - b1) % n)
    assume(not ManhattanDigraph(n, *steps).validate())
    assert_orbit_sound("mh", n, steps)


SEARCH_CASES = (
    [("na", n, False) for n in range(4, 61, 2)]
    + [("ds", n, False) for n in range(3, 61)]
    + [("mh", n, f) for n in (8, 12, 16) for f in (False, True)]
    + [("mh", n, True) for n in (20, 24, 28)]
)


def space_class(family, mod4):
    """The record class that walks the space: the family's, or the mod-4 one."""
    return Mod4ManhattanDigraph if mod4 else FAMILIES[family]


@pytest.mark.parametrize("family,n,mod4", SEARCH_CASES)
def test_memo_matches_one_bfs_per_candidate(family, n, mod4):
    in_space = in_mod4_space if mod4 else None
    assert (search._minimise(space_class(family, mod4), n)
            == plain_search_slice(family, n, in_space))


# (family, order, mod4) spaces small enough to list every orbit.
SPACES = (
    [("ds", n, False) for n in range(3, 41)]
    + [("na", n, False) for n in range(4, 31, 2)]
    + [("mh", n, False) for n in (8, 12, 16, 20, 24)]
    + [("mh", n, True) for n in (8, 12, 16)]
)


def space_orbits(family, n, mod4):
    """Each candidate of the space with its orbit: set(orbit) within the space.

    A mod-4 orbit is the union of the gauge classes (``mod4_na_class``)
    that ``gauge_closure`` reaches from one of them.
    """
    fam = FAMILIES[family]
    candidates = list(all_candidates(fam, n))
    orbits = {}
    if mod4:
        candidates = [s for s in candidates if in_mod4_space(s)]
        by_class = {}
        for steps in candidates:
            by_class.setdefault(mod4_na_class(n, steps), []).append(steps)
        for cls in by_class:
            orbit = frozenset(steps for image in gauge_closure(n // 4, *cls)
                              for steps in by_class[image])
            orbits.update(dict.fromkeys(orbit, orbit))
        return candidates, orbits
    in_space = frozenset(candidates)
    for steps in candidates:
        if steps not in orbits:
            orbit = frozenset(fam.orbit(n, steps)) & in_space
            orbits.update(dict.fromkeys(orbit, orbit))
    return candidates, orbits


@pytest.mark.parametrize("family,n,mod4", SPACES)
def test_representative_is_the_key_least_orbit_member(family, n, mod4):
    fam = space_class(family, mod4)
    candidates, orbits = space_orbits(family, n, mod4)
    assert sorted(candidates, key=fam.key) == candidates
    reps = {min(orbit, key=fam.key) for orbit in set(orbits.values())}
    # The walk yields each orbit's key-least member once, in key order,
    # with the orbit's size, and ``orbit`` lists the orbit in key order:
    # for the mod-4 walk, which runs BFS once per orbit of gauge classes,
    # the merge of its classes.
    walk = list(fam.representatives(n))
    assert [steps for steps, _ in walk] == sorted(reps, key=fam.key)
    for steps, size in walk:
        assert size == len(orbits[steps]), steps
        assert list(fam.orbit(n, steps)) == sorted(orbits[steps], key=fam.key)


@pytest.mark.parametrize("n", (8, 12, 16))
def test_mod4_orbit_from_any_member(n):
    # From every member of the space, not only its representative, the
    # orbit is the space's candidates in the classes that gauge_closure
    # reaches from the member's class, in key order.
    mh = Mod4ManhattanDigraph
    candidates, orbits = space_orbits("mh", n, True)
    expected = {orbit: sorted(orbit, key=mh.key) for orbit in set(orbits.values())}
    assert len(candidates) == (n // 4) ** 5
    for steps in candidates:
        assert list(mh.orbit(n, steps)) == expected[orbits[steps]], steps


@pytest.mark.parametrize("family,n", [("ds", 60), ("na", 30), ("mh", 12)])
def test_weights_count_orbits_with_nontrivial_stabilisers(family, n):
    # An orbit's size is the group's order over the representative's
    # stabiliser: orbits of different sizes show stabilisers beyond the
    # maps that fix every candidate, and the sizes still add up to the
    # candidate count.
    fam = FAMILIES[family]
    candidates, orbits = space_orbits(family, n, False)
    weights = dict(fam.representatives(n))
    assert weights == {min(o, key=fam.key): len(o) for o in orbits.values()}
    assert sum(weights.values()) == len(candidates)
    assert len(set(weights.values())) > 1


@pytest.mark.parametrize("n", range(4, 41, 2))
def test_na_gauge_orbits_partition_the_candidates(n):
    # Each candidate lies in exactly one orbit, every orbit yields each
    # member once and in key order, and the orbit of any member is its
    # representative's.
    na = NewAmsterdamDigraph
    seen = []
    for rep, size in na.representatives(n):
        members = list(na.orbit(n, rep))
        assert members == sorted(set(members)), rep
        assert (members[0], len(members)) == (rep, size)
        assert all(list(na.orbit(n, m)) == members for m in members[::7]), rep
        seen += members
    assert sorted(seen) == list(all_candidates(na, n))


def test_gauge_orbits_partition_the_classes():
    # Every class of Z_m^2 lies in exactly one listed orbit, and up to
    # m = 60 each listed orbit is the one that the gauge maps reach.
    for m in range(1, 151):
        orbits = list(gauge_orbits(m))
        classes = [cls for orbit in orbits for cls in orbit]
        assert len(classes) == len(set(classes)) == m * m, m
        if m <= 60:
            for orbit in orbits:
                assert orbit == gauge_closure(m, *min(orbit)), (m, min(orbit))


def na_candidate_count(n):
    """The NA candidates of order N = 2M: C(M,2)(M+1)/2 for odd M, and
    C(M,2)M/2 + C(M,2) - M^2/4 for even M."""
    m = n // 2
    pairs = m * (m - 1) // 2
    if m % 2:
        return pairs * (m + 1) // 2
    return pairs * m // 2 + pairs - m * m // 4


def test_na_orbit_sizes_sum_to_the_closed_form():
    for n in range(4, 61, 2):
        assert na_candidate_count(n) == sum(1 for _ in all_candidates(NewAmsterdamDigraph, n))
    for n in range(4, 401, 2):
        sizes = [size for _, size in NewAmsterdamDigraph.representatives(n)]
        assert sum(sizes) == na_candidate_count(n), n


def test_mod4_orbit_sizes_sum_to_the_space():
    for n in range(8, 241, 4):
        walk = Mod4ManhattanDigraph.representatives(n)
        assert sum(size for _, size in walk) == (n // 4) ** 5, n


@pytest.mark.parametrize("n", range(4, 17, 2))
def test_na_gauge_is_an_isomorphism(n):
    # The digraph of (alpha+e, beta+e, gamma-e, delta-e) is the original
    # relabelled by v -> v+e on the odd vertices, for every even e.
    na = NewAmsterdamDigraph
    for steps in all_candidates(na, n):
        rows = compile_params(na(n, *steps), strict=False).out_arcs
        for e in range(0, n, 2):
            relabel = [(v + e * (v % 2)) % n for v in range(n)]
            image = [None] * n
            for u, heads in enumerate(rows):
                image[relabel[u]] = {relabel[v] for v in heads}
            gauged = compile_params(na(n, *na_gauge(n, steps, e)), strict=False)
            assert [set(h) for h in gauged.out_arcs] == image, (steps, e)


def test_direct_search_counts_at_32():
    r = search.search_mh(32, direct=True)
    assert (r.min_diameter, r.witness_total, r.candidates_examined) == (
        5, 32_768, 921_600)


@pytest.fixture
def kernel_calls(monkeypatch):
    """The argument tuples of every search-kernel call the test makes."""
    calls = []

    def counting(*args):
        calls.append(args)
        return bounded_diameter(*args)

    monkeypatch.setattr(search, "bounded_diameter", counting)
    return calls


@pytest.mark.parametrize(
    "family,n,bfs_calls",
    [("na", 60, 48), ("na", 78, 23), ("mh", 16, 256), ("mh", 12, 135),
     ("ds", 200, 92)],
)
def test_one_bfs_per_orbit(kernel_calls, family, n, bfs_calls):
    search._minimise(FAMILIES[family], n)
    assert len(kernel_calls) == bfs_calls


@pytest.mark.parametrize("n,bfs_calls", [(8, 3), (64, 19), (108, 17), (240, 116)])
def test_mod4_search_runs_one_bfs_per_gauge_orbit(kernel_calls, n, bfs_calls):
    assert search._minimise(Mod4ManhattanDigraph, n)[3] == (n // 4) ** 5
    assert len(kernel_calls) == bfs_calls


def test_mod4_witnesses_run_past_the_first_digits(monkeypatch):
    # Real optima fill the 32 witnesses at a0 = 3 from N = 12 to 64.  Under
    # a kernel that makes one whole orbit optimal, the witnesses are its 32
    # key-least members.  At N = 8 the orbit of class (0, 1) has two classes
    # and 16 members, at a0 = 3 and 7, so every gauge shift of the member
    # rule is exercised; at N = 16 the four classes of (1, 1) are merged
    # past the 32nd member.
    mh = ManhattanDigraph
    for n, cls, leads in ((8, (0, 1), {3, 7}), (16, (1, 1), {3})):
        m = n // 4
        na_classes = gauge_closure(m, *cls)
        orbit = sorted((s for s in all_candidates(mh, n)
                        if in_mod4_space(s) and mod4_na_class(n, s) in na_classes),
                       key=mh.key)
        assert len(orbit) == len(na_classes) * m**3
        assert {steps[0] for steps in orbit[:32]} == leads
        optimal = mh.classes(n, orbit[0])

        def kernel(classes, order, limit):
            d = 1 if classes == optimal else 2
            return None if limit is not None and d > limit else d

        monkeypatch.setattr(search, "bounded_diameter", kernel)
        assert (search._minimise(Mod4ManhattanDigraph, n)
                == (1, orbit[:32], len(orbit), m**5)), n
