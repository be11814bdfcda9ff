"""Multiplier orbits and the search's orbit representatives.

Each family's ``orbit`` map lists the candidates whose digraphs are
isomorphic to a candidate's under x -> ux (u a unit of Z_N) combined with
translations.  ``search._run_search`` runs BFS once per orbit, on the
member that comes first in enumeration order (least ``key``), which the
family's ``weight`` test recognises and weighs by the orbit's size.  These
tests check the maps against brute force, the representative tests against
the orbits they list, and the search against ``plain_search_slice``, the
same loop with one BFS per candidate.
"""

import math
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gridnet import search
from gridnet.families import FAMILIES, ManhattanDigraph, compile_params
from gridnet.graphs import bounded_diameter, diameter

from oracles import plain_search_slice


@lru_cache(maxsize=4)
def candidate_set(family, n):
    return frozenset(FAMILIES[family].candidates(n))


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
            for steps in fam.candidates(n)
        }
        assert_keys_distinct(family, list(diameters))
        for steps, d in diameters.items():
            images = list(fam.orbit(n, steps))
            assert steps in images
            for image in images:
                assert diameters[image] == d, (n, steps, image)


def assert_orbit_sound(family, n, steps):
    fam = FAMILIES[family]
    images = set(fam.orbit(n, steps))
    assert steps in images

    def reduced_diameter(s):
        return bounded_diameter(fam.classes(n, s), n, None)

    d = reduced_diameter(steps)
    for image in images:
        assert image in candidate_set(family, n), image
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
    [("na", n, False) for n in range(4, 41, 2)]
    + [("ds", n, False) for n in range(3, 61)]
    + [("mh", n, f) for n in (8, 12, 16) for f in (False, True)]
    + [("mh", n, True) for n in (20, 24, 28)]
)


@pytest.mark.parametrize("family,n,mod4_filter", SEARCH_CASES)
def test_memo_matches_one_bfs_per_candidate(family, n, mod4_filter):
    assert search._run_search(family, n, mod4_filter) == (
        plain_search_slice(family, n, mod4_filter)
    )


# (family, order, mod4_filter) spaces small enough to list every orbit.
SPACES = (
    [("ds", n, False) for n in range(3, 41)]
    + [("na", n, False) for n in range(4, 31, 2)]
    + [("mh", n, False) for n in (8, 12, 16)]
    + [("mh", n, True) for n in (8, 12, 16)]
)


def space_orbits(family, n, mod4_filter):
    """Each candidate of the space with its orbit: set(orbit) within the space."""
    fam = FAMILIES[family]
    space = {"mod4_filter": True} if mod4_filter else {}
    candidates = list(fam.candidates(n, **space))
    in_space = frozenset(candidates)
    orbits = {}
    for steps in candidates:
        if steps not in orbits:
            orbit = frozenset(fam.orbit(n, steps)) & in_space
            orbits.update(dict.fromkeys(orbit, orbit))
    return candidates, orbits


@pytest.mark.parametrize("family,n,mod4_filter", SPACES)
def test_representative_is_the_key_least_orbit_member(family, n, mod4_filter):
    fam = FAMILIES[family]
    space = {"mod4_filter": True} if mod4_filter else {}
    candidates, orbits = space_orbits(family, n, mod4_filter)
    assert sorted(candidates, key=fam.key) == candidates
    # The least-lead walk skips only candidates that are no representative,
    # and the weight test then tells the representatives apart.
    walked = list(fam.candidates(n, least_leads=True, **space))
    assert sorted(walked, key=fam.key) == walked
    assert set(walked) <= set(candidates)
    reps = {s for s in candidates if s == min(orbits[s], key=fam.key)}
    assert reps <= set(walked)
    for steps in walked:
        orbit = orbits[steps]
        weight = fam.weight(n, steps, **space)
        assert (weight is not None) == (steps in reps), steps
        if weight is not None:
            assert weight == len(orbit), steps
            assert set(fam.orbit(n, steps, **space)) == orbit, steps


@pytest.mark.parametrize("family,n", [("ds", 60), ("na", 30), ("mh", 12)])
def test_weights_count_orbits_with_nontrivial_stabilisers(family, n):
    # The weight is the group's order over the representative's stabiliser:
    # orbits of different sizes show stabilisers beyond the maps that fix
    # every candidate, and the weights still add up to the candidate count.
    fam = FAMILIES[family]
    candidates, orbits = space_orbits(family, n, False)
    weights = {}
    for steps in fam.candidates(n, least_leads=True):
        weight = fam.weight(n, steps)
        if weight is not None:
            weights[steps] = weight
    assert weights == {min(o, key=fam.key): len(o) for o in orbits.values()}
    assert sum(weights.values()) == len(candidates)
    assert len(set(weights.values())) > 1


def test_direct_search_counts_at_32():
    r = search.search_mh(32, direct=True)
    assert (r.min_diameter, r.witness_total, r.candidates_examined) == (
        5, 32_768, 921_600)


@pytest.mark.parametrize(
    "family,n,bfs_calls",
    [("na", 60, 316), ("na", 78, 380), ("mh", 16, 256), ("mh", 12, 135),
     ("ds", 200, 92)],
)
def test_one_bfs_per_orbit(monkeypatch, family, n, bfs_calls):
    calls = []

    def counting(*args):
        calls.append(args)
        return bounded_diameter(*args)

    monkeypatch.setattr(search, "bounded_diameter", counting)
    search._run_search(family, n)
    assert len(calls) == bfs_calls
