"""The search kernel against the all-source diameter of the compiled digraph.

The search evaluates a candidate from its successor rows with BFS from one
vertex per translation class only.  These tests check that this gives the
all-source ``diameter`` of the compiled ``Digraph``, for every limit; that
diameter comes from reach sets, a second algorithm, not from BFS.  The
same holds for line digraphs, where ``line_diameter`` runs BFS only from
the arcs out of one period of vertices.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridnet.families import (
    FAMILIES,
    DoubleStepGraph,
    FamilyError,
    ManhattanDigraph,
    NewAmsterdamDigraph,
    compile_params,
    family_diameter,
    family_rows,
    line_diameter,
    parse_params,
)
from gridnet.graphs import (
    bounded_diameter,
    diameter,
    line_digraph,
    line_rows,
    regular_degree,
)

PARAMS = {"ds": DoubleStepGraph, "na": NewAmsterdamDigraph, "mh": ManhattanDigraph}


def assert_kernel_matches(family, n, steps):
    rows_of, period = FAMILIES[family].rows, FAMILIES[family].period
    rows = rows_of(n, steps)
    sources = range(period)
    params = PARAMS[family](n, *steps)
    expected = diameter(compile_params(params, strict=False))
    assert bounded_diameter(rows, n, None, sources) == expected
    assert family_diameter(params) == expected
    if expected is None:
        assert bounded_diameter(rows, n, n, sources) is None
        return
    for limit in range(expected):
        assert bounded_diameter(rows, n, limit, sources) is None
    assert bounded_diameter(rows, n, expected, sources) == expected


def assert_line_kernel_matches(family, n, steps):
    params = PARAMS[family](n, *steps)
    lg = line_digraph(compile_params(params, strict=False))
    assert line_rows(family_rows(params)) == list(lg.out_arcs)
    assert line_diameter(params) == diameter(lg)


@pytest.mark.parametrize(
    "params",
    [
        DoubleStepGraph(6, 2, 4),  # gcd(N, a, b) = 2
        NewAmsterdamDigraph(6, 2, 1, 3, 0),  # even steps
        ManhattanDigraph(8, 2, 3, 1, 3, 1, 5, 1, 7),  # an even step
    ],
    ids=["ds", "na", "mh"],
)
def test_family_diameter_measures_invalid_params(params):
    # family_rows and the period-BFS diameters never validate: they measure
    # what compile_params(params, strict=False) builds.
    g = compile_params(params, strict=False)
    assert family_rows(params) == list(g.out_arcs)
    assert family_diameter(params) == diameter(g)
    assert line_diameter(params) == diameter(line_digraph(g))


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


@pytest.mark.parametrize(
    "family,orders",
    [
        ("ds", range(3, 31)),
        ("na", range(4, 31, 2)),  # gamma = delta candidates included
        ("mh", (8,)),
    ],
)
def test_line_diameter_every_small_candidate(family, orders):
    for n in orders:
        for steps in FAMILIES[family].candidates(n):
            assert_line_kernel_matches(family, n, steps)


def test_line_digraph_filter_on_rows():
    # The 2-regular NA candidates are those with gamma != delta: the odd
    # vertices then have two out-arcs and the even ones two in-arcs.
    na = FAMILIES["na"]
    for n in range(4, 31, 2):
        for steps in na.candidates(n):
            p = na.params(n, *steps)
            on_rows = regular_degree(family_rows(p)) == 2
            assert on_rows == (compile_params(p, strict=False).is_regular() == 2)
            assert on_rows == (steps[2] != steps[3])


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40), st.integers(-50, 50), st.integers(-50, 50))
@example(8, 4, 1)  # 2a = 0: self-inverse step
@example(12, 6, 6)  # a = b, self-inverse
@example(10, 3, 7)  # a = -b
@example(9, 3, 6)  # gcd(N, a, b) = 3: not strongly connected
@example(1, 0, 0)
def test_double_step_property(n, a, b):
    assert_kernel_matches("ds", n, (a % n, b % n))
    assert_line_kernel_matches("ds", n, (a % n, b % n))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 20), st.lists(st.integers(0, 10**6), min_size=4, max_size=4))
@example(7, [1, 3, 5, 5])  # gamma = delta: odd vertices have out-degree 1
@example(5, [1, 1, 3, 3])  # alpha = beta as well
@example(3, [2, 4, 0, 0])  # even steps, zero steps
@example(1, [1, 1, 1, 1])  # the two-vertex digraph
def test_new_amsterdam_property(half, steps):
    n = 2 * half
    assert_kernel_matches("na", n, tuple(s % n for s in steps))
    assert_line_kernel_matches("na", n, tuple(s % n for s in steps))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10), st.lists(st.integers(0, 10**6), min_size=8, max_size=8))
@example(2, [1, 1, 3, 3, 5, 5, 7, 7])  # a_j = b_j in every class
@example(3, [1, 7, 3, 7, 1, 9, 1, 5])  # an odd-step sum-preserving choice
def test_manhattan_property(quarter, steps):
    n = 4 * quarter
    assert_kernel_matches("mh", n, tuple(s % n for s in steps))
    assert_line_kernel_matches("mh", n, tuple(s % n for s in steps))


def test_order_not_a_multiple_of_the_period():
    # Shifting by the period would then be no automorphism, and the period's
    # vertices would not represent every vertex: no record has such an order.
    for params, orders in ((NewAmsterdamDigraph, (5, 7, 9)),
                           (ManhattanDigraph, (6, 10, 18))):
        arity = len(params._fields) - 1
        for n in orders:
            message = f"order must be a multiple of {params.period}, got {n}"
            with pytest.raises(FamilyError, match=message):
                params(n, *(1,) * arity)
            with pytest.raises(FamilyError, match=message):
                parse_params(f"{params.tag}:{n}" + ",1" * arity)
