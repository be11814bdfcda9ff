from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridnet.families import (
    FAMILIES,
    DoubleStepGraph,
    FamilyError,
    FamilyParams,
    ManhattanDigraph,
    NewAmsterdamDigraph,
    compile_ds,
    compile_mh,
    compile_na,
    compile_params,
    format_params,
    gauge_orbits,
    parse_params,
)
from gridnet.graphs import diameter
from oracles import (
    all_candidates,
    are_isomorphic,
    gauge,
    gauge_class,
    in_mod4_space,
    mod4_na_class,
)


class TestValidateDs:
    def test_moore_steps_ok(self):
        assert not DoubleStepGraph(13, 2, 3).validate()

    def test_gcd_violation(self):
        errors = DoubleStepGraph(6, 2, 4).validate()
        assert any("gcd" in e for e in errors)

    def test_negated_step_violation(self):
        errors = DoubleStepGraph(5, 1, 4).validate()
        assert any("a = -b" in e for e in errors)

    def test_zero_step_violation(self):
        assert DoubleStepGraph(6, 6, 1).validate()

    def test_self_inverse_step_is_valid(self):
        assert not DoubleStepGraph(8, 1, 4).validate()


class TestValidateNa:
    def test_extremal_instance_ok(self):
        assert not NewAmsterdamDigraph(10, -1, 1, 3, -3).validate()

    def test_gamma_equals_delta_is_valid(self):
        assert not NewAmsterdamDigraph(6, -1, 1, 3, 3).validate()

    def test_sum_ok(self):
        assert not NewAmsterdamDigraph(8, 1, 3, 5, 7).validate()  # sum 16 = 0 mod 8

    def test_sum_violation(self):
        errors = NewAmsterdamDigraph(8, 1, 3, 5, 5).validate()
        assert any("alpha+beta+gamma+delta" in e for e in errors)

    def test_even_step_violation(self):
        assert NewAmsterdamDigraph(8, 2, 3, 5, 6).validate()

    def test_odd_order_violation(self):
        # The record admits only even orders, so no validator sees one.
        with pytest.raises(FamilyError, match="multiple of 2, got 9"):
            NewAmsterdamDigraph(9, 1, 3, 5, 7)


class TestValidateMh:
    def test_canonical_20_vertex_steps(self):
        # Valid although a0 = 1, not 3 (mod 4): the residues only define
        # the mod-4 space that search_mh searches by default.
        assert not ManhattanDigraph(20, 1, 7, -3, 7, 1, -5, 1, -9).validate()

    def test_even_step_hard_violation(self):
        assert ManhattanDigraph(20, 2, 7, -3, 7, 1, -5, 1, -9).validate()
        errors = ManhattanDigraph(20, 1, 2, -3, 7, 1, -5, 1, -9).validate()
        assert "step b0 = 2 is even" in errors

    def test_sum_condition_hard_violation(self):
        errors = ManhattanDigraph(20, 1, 9, -3, 7, 1, -5, 1, -9).validate()
        assert any("b0+b2" in e for e in errors)

    def test_order_not_multiple_of_4(self):
        # The record admits only multiples of 4, so no validator sees one.
        with pytest.raises(FamilyError, match="multiple of 4, got 18"):
            ManhattanDigraph(18, 1, 7, -3, 7, 1, -5, 1, -9)


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
                if p.validate():
                    continue
                g = compile_na(p)
                d = diameter(g)
                if d is not None:
                    assert d >= 1


class TestRecords:
    def test_steps_reduce_mod_n(self):
        assert DoubleStepGraph(13, -2, 16).steps == (11, 3)
        p = NewAmsterdamDigraph(n=10, alpha=-1, beta=11, gamma=3, delta=-13)
        assert (p.alpha, p.beta, p.gamma, p.delta) == (9, 1, 3, 7)
        q = ManhattanDigraph(20, -1, 21, 3, -3, 41, 5, -19, 7)
        assert q.steps == (19, 1, 3, 17, 1, 5, 1, 7)
        assert DoubleStepGraph(13, 2, 3)._replace(a=-1).steps == (12, 3)
        assert DoubleStepGraph._make((13, -2, 16)).steps == (11, 3)
        with pytest.raises(FamilyError):
            DoubleStepGraph(13, 2, 3)._replace(n=0)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(FAMILIES)), st.data())
    def test_steps_are_the_named_fields(self, tag, data):
        family = FAMILIES[tag]
        n = draw_order(family, data)
        raw = data.draw(st.lists(st.integers(-200, 200), min_size=arity(family),
                                 max_size=arity(family)))
        p = family(n, *raw)
        named = tuple(getattr(p, name) for name in type(p).__match_args__[1:])
        assert p.steps == named == tuple(x % n for x in raw)
        assert isinstance(p, FamilyParams)

    def test_least_order_is_the_period(self):
        for family in FAMILIES.values():
            period = family.period
            zeros = (0,) * arity(family)
            assert family(period, *zeros).n == period
            with pytest.raises(FamilyError,
                               match=f"order must be at least {period}, got "):
                family(period - 1, *zeros)

    def test_equality_hash_and_repr(self):
        p, q = DoubleStepGraph(13, 2, 3), DoubleStepGraph(13, 15, -10)
        assert p == q and hash(p) == hash(q)
        assert p != DoubleStepGraph(13, 3, 2)
        assert repr(p) == "DoubleStepGraph(n=13, a=2, b=3)"
        assert NewAmsterdamDigraph(12, 9, 1, 3, 11) != ManhattanDigraph(
            12, 9, 1, 3, 11, 0, 0, 0, 0)
        assert len({p, q, DoubleStepGraph(n=13, a=2, b=3)}) == 1

    @pytest.mark.parametrize("tag", sorted(FAMILIES))
    def test_fields_are_read_only(self, tag):
        family = FAMILIES[tag]
        p = family(family.period, *(1,) * arity(family))
        with pytest.raises(AttributeError):
            p.n = 8
        with pytest.raises(AttributeError):
            setattr(p, family.__match_args__[1], 0)


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


# Each family's candidate form (``oracles.all_candidates``): the canonical
# representative of a step tuple.  DS steps are unordered and signed (a < b
# <= N/2 under +-); the two NA out-pairs are unordered (alpha < beta, gamma
# <= delta).  MH uses no symmetry reduction: every valid tuple is one.
CANONICAL = {
    "ds": lambda n, s: tuple(sorted(min(x, n - x) for x in s)),
    "na": lambda n, s: (*sorted(s[:2]), *sorted(s[2:])),
    "mh": lambda n, s: s,
}


def arity(family):
    return len(family.__match_args__) - 1  # the fields after the order n


def draw_order(family, data):
    """An order from 1 to 64 that the family's record admits."""
    return family.period * data.draw(st.integers(1, 64 // family.period))


def brute_force_classes(family, n, values):
    """Canonical forms of every step tuple over ``values`` that validates."""
    return {
        CANONICAL[family.tag](n, steps)
        for steps in product(values, repeat=arity(family))
        if not family(n, *steps).validate()
    }


class TestRegistry:
    # The NA and MH validators reject every even step (TestValidateNa,
    # TestValidateMh), so where all residues are too many to enumerate, odd
    # residues cover every valid tuple.
    @pytest.mark.parametrize(
        "tag,orders,odd_only",
        [
            ("ds", range(1, 31), False),
            ("na", range(2, 13, 2), False),
            ("na", range(14, 23, 2), True),
            ("mh", (8,), True),
        ],
    )
    def test_generator_yields_each_valid_class_once(self, tag, orders, odd_only):
        family = FAMILIES[tag]
        for n in orders:
            values = range(1, n, 2) if odd_only else range(n)
            generated = list(all_candidates(family, n))
            assert len(generated) == len(set(generated)), n
            assert set(generated) == brute_force_classes(family, n, values), n

    def test_records_are_keyed_by_their_params_tag(self):
        for tag, family in FAMILIES.items():
            assert family.tag == tag


class TestMod4GaugeClasses:
    """Relabelling residue r by v -> v + g_r, each g_r = 0 (mod 4), keeps
    the mod-4 space and splits it into gauge classes, which
    ``mod4_na_class`` labels by the NA gauge classes (s, t) of Z_{N/4}^2.
    search_mh's default mode runs one BFS per orbit of
    ``gauge_orbits(N/4)``, whose classes must then be isomorphic."""

    def test_every_candidate_lies_in_one_class_of_full_size(self):
        mh = FAMILIES["mh"]
        for n in range(8, 33, 4):
            space = [s for s in all_candidates(mh, n) if in_mod4_space(s)]
            classes = {}
            for steps in space:
                if steps not in classes:
                    cls = gauge_class(n, steps)
                    classes.update(dict.fromkeys(cls, cls))
            assert classes.keys() == set(space), n
            distinct = set(classes.values())
            assert sum(map(len, distinct)) == len(space) == (n // 4) ** 5, n
            assert {len(cls) for cls in distinct} == {(n // 4) ** 3}, n
            # Each class has one label, and the labels are all of Z_{N/4}^2.
            labels = [{mod4_na_class(n, s) for s in cls} for cls in distinct]
            assert {len(label) for label in labels} == {1}, n
            assert len(set().union(*labels)) == len(distinct) == (n // 4) ** 2, n

    def test_every_class_of_an_orbit_is_isomorphic_to_its_representative(self):
        # A class's key-least member is at a0 = a2 = a1 = 3; the orbit's
        # representative is the least of these.
        mh = FAMILIES["mh"]
        for n in range(8, 25, 4):
            least = {mod4_na_class(n, s): s for s in all_candidates(mh, n)
                     if in_mod4_space(s) and s[0] == s[4] == s[2] == 3}
            for orbit in gauge_orbits(n // 4):
                rep = compile_params(ManhattanDigraph(n, *min(least[c] for c in orbit)))
                for cls in orbit:
                    member = compile_params(ManhattanDigraph(n, *least[cls]))
                    assert are_isomorphic(member, rep), (n, cls)

    def test_each_member_is_its_representative_relabelled(self):
        for n in (8, 12, 16):
            for b0, b1 in product(range(1, n, 4), repeat=2):
                rep = ManhattanDigraph(n, 3, b0, 3, b1, 3, 6 - b0, -9, -6 - b1)
                rows = compile_params(rep).out_arcs
                for g1, g2, g3 in product(range(0, n, 4), repeat=3):
                    g = (0, g1, g2, g3)
                    relabel = [(v + g[v % 4]) % n for v in range(n)]
                    relabelled = [None] * n
                    for v, heads in enumerate(rows):
                        relabelled[relabel[v]] = {relabel[w] for w in heads}
                    member = ManhattanDigraph(n, *gauge(n, rep.steps, g))
                    assert in_mod4_space(member.steps)
                    rows_of_member = compile_params(member).out_arcs
                    assert list(map(set, rows_of_member)) == relabelled


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(FAMILIES)), st.data())
def test_format_parse_round_trip(tag, data):
    family = FAMILIES[tag]
    n = draw_order(family, data)
    steps = data.draw(
        st.lists(
            st.integers(-(10**4), 10**4),
            min_size=arity(family),
            max_size=arity(family),
        )
    )
    p = family(n, *steps)
    assert parse_params(format_params(p)) == p


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(FAMILIES)), st.data())
def test_compile_never_yields_parallel_arcs(tag, data):
    family = FAMILIES[tag]
    n = draw_order(family, data)
    steps = data.draw(
        st.lists(st.integers(0, n - 1), min_size=arity(family), max_size=arity(family))
    )
    p = family(n, *steps)
    for heads in compile_params(p, strict=False).out_arcs:
        assert len(set(heads)) == len(heads)
