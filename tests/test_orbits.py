"""Multiplier orbits and the search's orbit memo.

Each family's ``orbit`` map lists the candidates whose digraphs are
isomorphic to a candidate's under x -> ux (u a unit of Z_N) combined with
translations.  ``search._run_search`` runs BFS once per orbit and reads
the other members' diameters from a dense memo.  These tests check the maps
against brute force and the memoised search against ``plain_search_slice``,
the same loop with one BFS per candidate.
"""

import math
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gridnet import search
from gridnet.families import FAMILIES, compile_params
from gridnet.graphs import bounded_diameter, diameter

from oracles import plain_search_slice


@lru_cache(maxsize=4)
def candidate_set(family, n):
    return frozenset(FAMILIES[family].candidates(n))


def assert_slots_distinct(family, n, steps_list):
    size, slot = FAMILIES[family].slots(n)
    slots = {slot(s) for s in steps_list}
    assert len(slots) == len(steps_list)
    assert all(0 <= i < size for i in slots)


@pytest.mark.parametrize(
    "family,orders",
    [("na", range(4, 31, 2)), ("ds", range(3, 41)), ("mh", (8, 12))],
)
def test_every_image_is_an_isomorphic_candidate(family, orders):
    fam = FAMILIES[family]
    for n in orders:
        diameters = {
            steps: diameter(compile_params(fam.params(n, *steps), strict=False))
            for steps in fam.candidates(n)
        }
        assert_slots_distinct(family, n, list(diameters))
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
        return bounded_diameter(fam.rows(n, s), n, None, range(fam.period))

    d = reduced_diameter(steps)
    for image in images:
        assert image in candidate_set(family, n), image
        assert set(fam.orbit(n, image)) == images, image
        assert reduced_diameter(image) == d, image
    assert_slots_distinct(family, n, list(images))


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
    assume(FAMILIES["mh"].validate(FAMILIES["mh"].params(n, *steps)).ok)
    assert_orbit_sound("mh", n, steps)


MEMO_CASES = (
    [("na", n, False) for n in range(4, 41, 2)]
    + [("ds", n, False) for n in range(3, 61)]
    + [("mh", n, f) for n in (8, 12, 16) for f in (False, True)]
)


@pytest.mark.parametrize("family,n,mod4_filter", MEMO_CASES)
def test_memo_matches_one_bfs_per_candidate(family, n, mod4_filter):
    assert search._run_search(family, n, mod4_filter) == (
        plain_search_slice(family, n, None, mod4_filter)
    )


def test_memo_holds_diameters_past_one_byte():
    # DS (1, 2) at N = 1100 has diameter 275; its image (2, 549) is the
    # 823rd candidate and reads that value back from the memo.
    n, stop = 1100, 823
    assert search._run_search("ds", n, stop=stop) == (
        plain_search_slice("ds", n, stop, False)
    )


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
