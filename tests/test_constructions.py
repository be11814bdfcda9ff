import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gridnet.constructions import (
    check_diameter_sandwich,
    check_mh_conditions,
    check_na_conditions,
    ds_to_mh,
    ds_to_na,
    na_to_mh,
)
from gridnet.families import (
    FAMILIES,
    DoubleStepGraph,
    FamilyError,
    NewAmsterdamDigraph,
    compile_ds,
    compile_mh,
    compile_na,
    compile_params,
    family_diameter,
    family_rows,
    line_diameter,
    validate_ds,
    validate_mh,
    validate_na,
)
from gridnet.graphs import diameter, line_digraph, regular_degree
from oracles import are_isomorphic


def valid_ds_instances(n_max):
    for n in range(3, n_max + 1):
        for a in range(1, n // 2 + 1):
            for b in range(a + 1, n // 2 + 1):
                p = DoubleStepGraph(n, a, b)
                if validate_ds(p).ok:
                    yield p


class TestDsToNa:
    def test_consecutive_steps_give_canonical_na(self):
        for k in (1, 2, 3, 5):
            n = 4 * k * k + 6  # any order with valid steps (k, k+1)
            na = ds_to_na(DoubleStepGraph(n, k, k + 1))
            assert na.beta == 1 and na.alpha == (-1) % (2 * n)
            assert na.gamma == 2 * k + 1 and na.delta == (-(2 * k + 1)) % (2 * n)

    def test_g13_derivation(self):
        na = ds_to_na(DoubleStepGraph(13, 2, 3))
        assert na == NewAmsterdamDigraph(26, -1, 1, 5, -5)
        assert diameter(compile_na(na)) == 5  # k=2 sandwich allows {4,5}

    def test_condition_system_holds(self):
        for p in valid_ds_instances(20):
            na = ds_to_na(p)
            assert check_na_conditions(p, na) == []
            assert validate_na(na).ok

    def test_rejects_invalid_input(self):
        with pytest.raises(FamilyError):
            ds_to_na(DoubleStepGraph(6, 2, 4))


class TestNaToMh:
    def test_canonical_na_steps_give_canonical_mh(self):
        for k in (1, 2, 3):
            n = 4 * k * k + 4
            na = NewAmsterdamDigraph(n, -1, 1, 2 * k + 1, -(2 * k + 1))
            mh = na_to_mh(na)
            m = 2 * n
            assert (mh.a0, mh.a1, mh.a2, mh.a3) == (1, (-3) % m, 1, 1)
            assert (mh.b0, mh.b1, mh.b2, mh.b3) == (
                (4 * k + 3) % m,
                (4 * k + 3) % m,
                (-4 * k - 1) % m,
                (-4 * k - 5) % m,
            )

    def test_condition_system_holds(self):
        for p in valid_ds_instances(16):
            na = ds_to_na(p)
            mh = na_to_mh(na)
            assert check_mh_conditions(na, mh) == []
            assert validate_mh(mh).ok

    def test_sum_conditions_common_value_is_2(self):
        for p in valid_ds_instances(16):
            mh = na_to_mh(ds_to_na(p))
            m = mh.n
            assert (mh.a0 + mh.a2) % m == 2
            assert (-(mh.a1 + mh.a3)) % m == 2
            assert (mh.b0 + mh.b2) % m == 2
            assert (-(mh.b1 + mh.b3)) % m == 2

    def test_extremal_20_vertex_instance(self):
        mh = na_to_mh(NewAmsterdamDigraph(10, -1, 1, 3, -3))
        assert mh.n == 20
        assert diameter(compile_mh(mh)) == 4


class TestDsToMh:
    def test_composition_identity(self):
        for p in valid_ds_instances(24):
            assert ds_to_mh(p) == na_to_mh(ds_to_na(p))

    def test_g13_derivation(self):
        mh = ds_to_mh(DoubleStepGraph(13, 2, 3))
        assert mh.n == 52
        assert (mh.b0, mh.b1, mh.b2, mh.b3) == (11, 11, 43 , 39)  # 4a+3,4b-1,-4a-1,-4b-1
        assert diameter(compile_mh(mh)) == 6  # k=2 sandwich allows {5,6}


class TestDiameterSandwich:
    def test_na_example(self):
        r = check_diameter_sandwich("na-from-ds", DoubleStepGraph(5, 1, 2))
        assert r.k == 1 and (r.low, r.high) == (2, 3) and r.passed

    def test_mh_example(self):
        r = check_diameter_sandwich("mh-from-ds", DoubleStepGraph(13, 2, 3))
        assert r.k == 2 and (r.low, r.high) == (5, 6) and r.passed

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            check_diameter_sandwich("bogus", DoubleStepGraph(5, 1, 2))

    def test_exhaustive_small_sweep(self):
        for p in valid_ds_instances(24):
            assert check_diameter_sandwich("na-from-ds", p).passed
            assert check_diameter_sandwich("mh-from-ds", p).passed

    def test_mh_matches_line_digraph_diameter(self):
        for p in valid_ds_instances(20):
            na = ds_to_na(p)
            g = compile_na(na)
            if g.is_regular() != 2 or g.is_directed_cycle():
                continue
            d_mh = diameter(compile_mh(na_to_mh(na)))
            d_l = diameter(line_digraph(g))
            assert d_mh == d_l == diameter(g) + 1


def two_regular_na_candidates(n_max):
    na = FAMILIES["na"]
    for n in range(4, n_max + 1, 2):
        for steps in na.candidates(n):
            p = na.params(n, *steps)
            if regular_degree(family_rows(p)) == 2:
                yield p


class TestLineDigraphIsManhattan:
    """The Manhattan digraph na_to_mh(p) is the line digraph of p's digraph."""

    def test_line_diameter_is_derived_mh_diameter(self):
        checked = 0
        for p in two_regular_na_candidates(20):
            assert line_diameter(p) == family_diameter(na_to_mh(p)), p
            checked += 1
        assert checked == 585

    def test_line_digraph_isomorphic_to_derived_mh(self):
        # Small orders only: the backtracking isomorphism test is slow above.
        checked = 0
        for p in two_regular_na_candidates(8):
            lg = line_digraph(compile_params(p))
            assert are_isomorphic(lg, compile_params(na_to_mh(p))), p
            checked += 1
        assert checked == 14


@st.composite
def valid_ds(draw, n_max=200):
    """An arbitrary valid double-step graph of order at most n_max."""
    n = draw(st.integers(3, n_max))
    a = draw(st.integers(1, n - 1))
    # Drawn from the valid partners of a: rejecting invalid draws is slow,
    # since the boundary values hypothesis favours (b = a, b = 0) are invalid.
    partners = [b for b in range(1, n) if validate_ds(DoubleStepGraph(n, a, b)).ok]
    assume(partners)
    return DoubleStepGraph(n, a, draw(st.sampled_from(partners)))


@settings(max_examples=300, deadline=None)
@given(valid_ds())
def test_derived_steps_satisfy_the_condition_systems(p):
    na = ds_to_na(p)
    assert check_na_conditions(p, na) == []
    assert validate_na(na).ok
    mh = na_to_mh(na)
    assert check_mh_conditions(na, mh) == []
    assert validate_mh(mh).ok


@settings(max_examples=300, deadline=None)
@given(valid_ds())
def test_ds_to_mh_is_the_composition(p):
    assert ds_to_mh(p) == na_to_mh(ds_to_na(p))
