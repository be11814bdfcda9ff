"""The search kernel against the all-source diameter of the compiled digraph.

The search evaluates a candidate from its successor rows with BFS from one
vertex per translation class only.  These tests check that this gives the
all-source ``diameter`` of the compiled ``Digraph``, for every limit.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridnet.families import (
    FAMILIES,
    DoubleStepGraph,
    ManhattanDigraph,
    NewAmsterdamDigraph,
    compile_params,
)
from gridnet.graphs import bounded_diameter, diameter

PARAMS = {"ds": DoubleStepGraph, "na": NewAmsterdamDigraph, "mh": ManhattanDigraph}


def assert_kernel_matches(family, n, steps):
    rows_of, period = FAMILIES[family].rows, FAMILIES[family].period
    rows = rows_of(n, steps)
    sources = range(period)
    expected = diameter(compile_params(PARAMS[family](n, *steps), strict=False))
    assert bounded_diameter(rows, n, None, sources) == expected
    if expected is None:
        assert bounded_diameter(rows, n, n, sources) is None
        return
    for limit in range(expected):
        assert bounded_diameter(rows, n, limit, sources) is None
    assert bounded_diameter(rows, n, expected, sources) == expected


@pytest.mark.parametrize(
    "family,orders",
    [
        ("na", range(4, 31, 2)),
        ("ds", range(3, 41)),
        ("mh", (8, 12)),
    ],
)
def test_every_small_candidate(family, orders):
    for n in orders:
        for steps in FAMILIES[family].candidates(n):
            assert_kernel_matches(family, n, steps)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40), st.integers(-50, 50), st.integers(-50, 50))
@example(8, 4, 1)  # 2a = 0: self-inverse step
@example(12, 6, 6)  # a = b, self-inverse
@example(10, 3, 7)  # a = -b
@example(9, 3, 6)  # gcd(N, a, b) = 3: not strongly connected
@example(1, 0, 0)
def test_double_step_property(n, a, b):
    assert_kernel_matches("ds", n, (a % n, b % n))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 20), st.lists(st.integers(0, 10**6), min_size=4, max_size=4))
@example(7, [1, 3, 5, 5])  # gamma = delta: odd vertices have out-degree 1
@example(5, [1, 1, 3, 3])  # alpha = beta as well
@example(3, [2, 4, 0, 0])  # even steps, zero steps
@example(1, [1, 1, 1, 1])  # the two-vertex digraph
def test_new_amsterdam_property(half, steps):
    n = 2 * half
    assert_kernel_matches("na", n, tuple(s % n for s in steps))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10), st.lists(st.integers(0, 10**6), min_size=8, max_size=8))
@example(2, [1, 1, 3, 3, 5, 5, 7, 7])  # a_j = b_j in every class
@example(3, [1, 7, 3, 7, 1, 9, 1, 5])  # an odd-step sum-preserving choice
def test_manhattan_property(quarter, steps):
    n = 4 * quarter
    assert_kernel_matches("mh", n, tuple(s % n for s in steps))
