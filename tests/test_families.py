from dataclasses import fields
from itertools import product

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from gridnet.families import (
    FAMILIES,
    DoubleStepGraph,
    FamilyError,
    ManhattanDigraph,
    NewAmsterdamDigraph,
    compile_ds,
    compile_mh,
    compile_na,
    compile_params,
    format_params,
    parse_params,
    validate_ds,
    validate_mh,
    validate_na,
)
from gridnet.graphs import diameter


class TestValidateDs:
    def test_moore_steps_ok(self):
        assert validate_ds(DoubleStepGraph(13, 2, 3)).ok

    def test_gcd_violation(self):
        v = validate_ds(DoubleStepGraph(6, 2, 4))
        assert any("gcd" in e for e in v.errors)

    def test_negated_step_violation(self):
        v = validate_ds(DoubleStepGraph(5, 1, 4))
        assert any("a = -b" in e for e in v.errors)

    def test_zero_step_violation(self):
        assert not validate_ds(DoubleStepGraph(6, 6, 1)).ok

    def test_self_inverse_step_is_warning(self):
        v = validate_ds(DoubleStepGraph(8, 1, 4))
        assert v.ok
        assert any("self-inverse" in w for w in v.warnings)


class TestValidateNa:
    def test_extremal_instance_ok(self):
        assert validate_na(NewAmsterdamDigraph(10, -1, 1, 3, -3)).ok

    def test_gamma_equals_delta_is_warning_only(self):
        v = validate_na(NewAmsterdamDigraph(6, -1, 1, 3, 3))
        assert v.ok
        assert any("gamma = delta" in w for w in v.warnings)

    def test_sum_ok(self):
        assert validate_na(NewAmsterdamDigraph(8, 1, 3, 5, 7)).ok  # sum 16 = 0 mod 8

    def test_sum_violation(self):
        v = validate_na(NewAmsterdamDigraph(8, 1, 3, 5, 5))
        assert any("alpha+beta+gamma+delta" in e for e in v.errors)

    def test_even_step_violation(self):
        assert not validate_na(NewAmsterdamDigraph(8, 2, 3, 5, 6)).ok

    def test_odd_order_violation(self):
        assert not validate_na(NewAmsterdamDigraph(9, 1, 3, 5, 7)).ok


class TestValidateMh:
    def test_canonical_20_vertex_steps(self):
        v = validate_mh(ManhattanDigraph(20, 1, 7, -3, 7, 1, -5, 1, -9))
        assert v.ok
        assert any("(mod 4)" in w for w in v.warnings)  # a0 = 1, not 3

    def test_even_step_hard_violation(self):
        assert not validate_mh(ManhattanDigraph(20, 2, 7, -3, 7, 1, -5, 1, -9)).ok

    def test_sum_condition_hard_violation(self):
        v = validate_mh(ManhattanDigraph(20, 1, 9, -3, 7, 1, -5, 1, -9))
        assert any("b0+b2" in e for e in v.errors)

    def test_order_not_multiple_of_4(self):
        assert not validate_mh(ManhattanDigraph(18, 1, 7, -3, 7, 1, -5, 1, -9)).ok


class TestCompile:
    def test_ds_out_degree_4_diameter_1(self):
        g = compile_ds(DoubleStepGraph(5, 1, 2))
        assert all(len(h) == 4 for h in g.out_arcs)
        assert diameter(g) == 1

    def test_ds_arc_symmetric(self):
        g = compile_ds(DoubleStepGraph(13, 2, 3))
        arcs = set(g.arcs())
        assert all((v, u) in arcs for u, v in arcs)

    def test_na_bipartite_and_diameter(self):
        g = compile_na(NewAmsterdamDigraph(10, -1, 1, 3, -3))
        assert all((u - v) % 2 == 1 for u, v in g.arcs())
        assert diameter(g) == 3

    def test_mh_diameter_4(self):
        g = compile_mh(ManhattanDigraph(20, 1, 7, -3, 7, 1, -5, 1, -9))
        assert all(len(h) == 2 for h in g.out_arcs)
        assert diameter(g) == 4

    def test_mh_class_transitions_consistent(self):
        p = ManhattanDigraph(20, 1, 7, -3, 7, 1, -5, 1, -9)
        g = compile_mh(p)
        # all arcs out of one residue class land in a single class fixed by
        # the step residues
        for j in range(4):
            landing = {
                frozenset(v % 4 for v in g.out_arcs[i])
                for i in range(20)
                if i % 4 == j
            }
            assert len(landing) == 1

    def test_strict_compile_rejects_hard_violations(self):
        with pytest.raises(FamilyError):
            compile_ds(DoubleStepGraph(6, 2, 4))

    def test_loose_compile_dedups(self):
        g = compile_na(NewAmsterdamDigraph(6, -1, 1, 3, 3), strict=False)
        assert g.out_arcs[1] == (4,)

    def test_compiled_never_has_duplicate_out_arcs(self):
        for n in range(3, 30):
            for a in range(1, n // 2 + 1):
                for b in range(a + 1, n // 2 + 1):
                    g = compile_ds(DoubleStepGraph(n, a, b), strict=False)
                    for heads in g.out_arcs:
                        assert len(set(heads)) == len(heads)

    def test_valid_na_strongly_connected_iff_finite_diameter(self):
        # finite diameter and strong connectivity coincide by construction;
        # just check the compiled instances of a small sweep agree with BFS
        for n in range(4, 17, 2):
            for gamma in range(1, n, 2):
                p = NewAmsterdamDigraph(n, 1, n - 1, gamma, -gamma)
                if not validate_na(p).ok:
                    continue
                g = compile_na(p)
                d = diameter(g)
                if d is not None:
                    assert d >= 1


class TestParamText:
    @pytest.mark.parametrize(
        "text,canonical",
        [
            ("ds:13,2,3", "ds:13,2,3"),
            ("na:10,-1,1,3,-3", "na:10,9,1,3,7"),
            ("mh:20,1,7,-3,7,1,-5,1,-9", "mh:20,1,7,17,7,1,15,1,11"),
        ],
    )
    def test_parse_format(self, text, canonical):
        p = parse_params(text)
        assert format_params(p) == canonical
        assert parse_params(format_params(p)) == p

    @pytest.mark.parametrize("bad", ["", "ds:1,2", "xx:3,1,2", "na:10,1,2", "ds:a,b,c"])
    def test_malformed(self, bad):
        with pytest.raises(FamilyError):
            parse_params(bad)


# Each generator's symmetry: the canonical representative it yields for a
# step tuple.  DS steps are unordered and signed (a < b <= N/2 under +-); the
# two NA out-pairs are unordered (alpha < beta, gamma <= delta).  MH uses no
# symmetry reduction (test_mh_generator_with_and_without_mod4_filter).
CANONICAL = {
    "ds": lambda n, s: tuple(sorted(min(x, n - x) for x in s)),
    "na": lambda n, s: (*sorted(s[:2]), *sorted(s[2:])),
}


def arity(family):
    return len(fields(family.params)) - 1  # the fields after the order n


def brute_force_classes(family, n, values):
    """Canonical forms of every step tuple over ``values`` that validates."""
    return {
        CANONICAL[family.tag](n, steps)
        for steps in product(values, repeat=arity(family))
        if family.validate(family.params(n, *steps)).ok
    }


class TestRegistry:
    # validate_na and validate_mh reject every even step (TestValidateNa,
    # TestValidateMh), so where all residues are too many to enumerate, odd
    # residues cover every valid tuple.
    @pytest.mark.parametrize(
        "tag,orders,odd_only",
        [
            ("ds", range(1, 31), False),
            ("na", range(2, 13, 2), False),
            ("na", range(14, 23, 2), True),
        ],
    )
    def test_generator_yields_each_valid_class_once(self, tag, orders, odd_only):
        family = FAMILIES[tag]
        for n in orders:
            values = range(1, n, 2) if odd_only else range(n)
            generated = list(family.candidates(n))
            assert len(generated) == len(set(generated)), n
            assert set(generated) == brute_force_classes(family, n, values), n

    def test_mh_generator_with_and_without_mod4_filter(self):
        # The filter keeps a_j = 3, b_j = 1 (mod 4): the valid tuples that
        # validate_mh gives no warning.
        valid, warning_free = set(), set()
        for steps in product(range(1, 8, 2), repeat=8):
            v = validate_mh(ManhattanDigraph(8, *steps))
            if v.ok:
                valid.add(steps)
                if not v.warnings:
                    warning_free.add(steps)
        mh = FAMILIES["mh"]
        for mod4_filter, expected, count in (
            (False, valid, 576),
            (True, warning_free, 32),
        ):
            generated = list(mh.candidates(8, mod4_filter=mod4_filter))
            assert len(generated) == len(set(generated)) == count
            assert set(generated) == expected

    def test_records_are_keyed_by_their_params_tag(self):
        for tag, family in FAMILIES.items():
            assert family.tag == family.params.tag == tag


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(FAMILIES)), st.integers(1, 64), st.data())
def test_format_parse_round_trip(tag, n, data):
    family = FAMILIES[tag]
    steps = data.draw(
        st.lists(
            st.integers(-(10**4), 10**4),
            min_size=arity(family),
            max_size=arity(family),
        )
    )
    try:
        p = family.params(n, *steps)
    except FamilyError:  # order below the family's minimum
        reject()
    assert parse_params(format_params(p)) == p


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(FAMILIES)), st.integers(1, 64), st.data())
def test_compile_never_yields_parallel_arcs(tag, n, data):
    family = FAMILIES[tag]
    steps = data.draw(
        st.lists(st.integers(0, n - 1), min_size=arity(family), max_size=arity(family))
    )
    try:
        p = family.params(n, *steps)
    except FamilyError:  # order below the family's minimum
        reject()
    for heads in compile_params(p, strict=False).out_arcs:
        assert len(set(heads)) == len(heads)
