"""The search kernel against the all-source diameter of the compiled digraph.

The search evaluates a candidate from its step classes, the out-steps of
residues 0..p-1, with one bit-parallel BFS from the p vertices 0..p-1.
These tests check that this gives the all-source ``diameter`` of the
compiled ``Digraph``, for every limit; that diameter comes from reach sets,
a second algorithm.  The same holds for line digraphs, whose classes
``graphs.line_classes`` derives from one period's arcs.
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
    line_diameter,
    parse_params,
)
from gridnet.graphs import (
    bounded_diameter,
    diameter,
    line_classes,
    line_digraph,
    step_rows,
)
from oracles import all_candidates, is_regular

def assert_kernel_matches(family, n, steps):
    params = FAMILIES[family](n, *steps)
    classes = params.classes(n, steps)
    expected = diameter(compile_params(params, strict=False))
    assert bounded_diameter(classes, n, None) == expected
    assert family_diameter(params) == expected
    if expected is None:
        assert bounded_diameter(classes, n, n) is None
        return
    for limit in range(expected):
        assert bounded_diameter(classes, n, limit) is None
    assert bounded_diameter(classes, n, expected) == expected


def assert_line_kernel_matches(family, n, steps):
    params = FAMILIES[family](n, *steps)
    lg = line_digraph(compile_params(params, strict=False))
    line, order = line_classes(params.classes(n, steps), n)
    assert step_rows(line, order) == list(lg.out_arcs)
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
    # The period-BFS diameters never validate: they measure what
    # compile_params(params, strict=False) builds.
    g = compile_params(params, strict=False)
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
        for steps in all_candidates(FAMILIES[family], n):
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
        for steps in all_candidates(FAMILIES[family], n):
            assert_line_kernel_matches(family, n, steps)


def test_line_digraph_filter_on_classes():
    # The line digraph has one vertex per arc, so its order is 2N exactly
    # when the NA candidate is 2-regular: when gamma != delta, the odd
    # vertices then have two out-arcs and the even ones two in-arcs.
    na = FAMILIES["na"]
    for n in range(4, 31, 2):
        for steps in all_candidates(na, n):
            _, order = line_classes(na.classes(n, steps), n)
            two_regular = is_regular(compile_params(na(n, *steps), strict=False)) == 2
            assert (order == 2 * n) == two_regular == (steps[2] != steps[3])


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


@st.composite
def records(draw, max_order):
    """A record of any family, of order up to ``max_order``, valid or not.

    Steps are drawn from all residues, from 0, 1, N/2 and N-1, and from the
    steps drawn before, so zero, self-inverse and repeated steps are common.
    """
    params = draw(st.sampled_from(list(FAMILIES.values())))
    n = params.period * draw(st.integers(1, max_order // params.period))
    special = st.sampled_from([0, 1, n // 2, n - 1])
    steps: list[int] = []
    for _ in params._fields[1:]:
        drawn = [st.integers(0, n - 1), special]
        if steps:
            drawn.append(st.sampled_from(steps))
        steps.append(draw(st.one_of(*drawn)))
    return params(n, *steps)


@settings(max_examples=150, deadline=None)
@given(records(max_order=200))
@example(DoubleStepGraph(200, 1, 0))  # the two-way cycle: D = 100
@example(NewAmsterdamDigraph(198, 1, 1, 1, 1))  # the directed cycle
@example(ManhattanDigraph(200, 0, 100, 100, 0, 1, 1, 199, 199))
def test_kernel_every_limit_large_orders(p):
    # Periods 1, 2 and 4; a source block of 2N bits spans up to 7 machine
    # words, so shifts and the carry fold cross word boundaries.
    assert_kernel_matches(p.tag, p.n, p.steps)


# Smaller orders: the reach-set diameter of a line digraph of up to 4N
# vertices is the slow side of this comparison.
@settings(max_examples=100, deadline=None)
@given(records(max_order=120))
@example(NewAmsterdamDigraph(8, 1, 1, 3, 3))  # every class repeats its step
@example(ManhattanDigraph(4, 0, 0, 1, 2, 0, 2, 3, 3))
def test_line_classes_are_the_line_digraph(p):
    assert_line_kernel_matches(p.tag, p.n, p.steps)


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
