import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gridnet.constructions import check_diameter_sandwich, ds_to_mh, ds_to_na, na_to_mh
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
    family_diameter,
    line_diameter,
)
from gridnet.graphs import Digraph, diameter, line_digraph
from oracles import (
    all_candidates,
    are_isomorphic,
    check_mh_conditions,
    check_na_conditions,
    in_mod4_space,
    is_directed_cycle,
    is_regular,
)


def valid_ds_instances(n_max):
    for n in range(3, n_max + 1):
        for a in range(1, n // 2 + 1):
            for b in range(a + 1, n // 2 + 1):
                p = DoubleStepGraph(n, a, b)
                if not p.validate():
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
            assert not na.validate()

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
            assert not mh.validate()

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


def shifted(p, **deltas):
    """p with each named step moved by its delta (the record reduces it)."""
    return type(p)(p.n, *(getattr(p, f) + deltas.get(f, 0)
                          for f in type(p).__match_args__[1:]))


class TestConditionCheckers:
    """Each named failure of the condition checkers, on perturbed steps."""

    DS = DoubleStepGraph(13, 2, 3)
    NA = NewAmsterdamDigraph(10, -1, 1, 3, -3)

    def test_na_order_mismatch(self):
        na = ds_to_na(self.DS)
        wrong = NewAmsterdamDigraph(28, *na.steps)
        assert check_na_conditions(self.DS, wrong) == ["order 28 != 2*13"]

    @pytest.mark.parametrize(
        "deltas,failure",
        [
            # Adding N/2 to every step makes each one even and keeps the sums.
            (dict(alpha=13, beta=13, gamma=13, delta=13), "(i) some step is even"),
            (dict(alpha=2, delta=-2), "(ii) alpha+gamma = -beta-delta = 2a fails"),
            (dict(beta=2, delta=-2), "(iii) beta+gamma = -alpha-delta = 2b fails"),
        ],
        ids=["i", "ii", "iii"],
    )
    def test_na_named_failure(self, deltas, failure):
        na = ds_to_na(self.DS)
        assert check_na_conditions(self.DS, shifted(na, **deltas)) == [failure]

    def test_mh_order_mismatch(self):
        mh = na_to_mh(self.NA)
        wrong = ManhattanDigraph(24, *mh.steps)
        assert check_mh_conditions(self.NA, wrong) == ["order 24 != 2*10"]

    @pytest.mark.parametrize(
        "deltas,failures",
        [
            # Moving a0, a3, b0, b1 by +1 and the others by -1 makes each
            # step even and keeps every sum and difference.
            (dict(a0=1, a1=-1, a2=-1, a3=1, b0=1, b1=1, b2=-1, b3=-1),
             ["(i) some step is even"]),
            (dict(a2=2), ["(ii) a0+a2 = -(a1+a3) = b0+b2 = -(b1+b3) fails"]),
            (dict(a1=2, a3=-2),
             ["(iii) a0+a1 = 2alpha fails", "(iii) b3-a1 = 2delta fails"]),
            (dict(b0=2, b2=-2),
             ["(iii) b1+b2 = 2beta fails", "(iii) b0-a0 = 2gamma fails"]),
        ],
        ids=["i", "ii", "iii-a", "iii-b"],
    )
    def test_mh_named_failures(self, deltas, failures):
        mh = na_to_mh(self.NA)
        assert check_mh_conditions(self.NA, shifted(mh, **deltas)) == failures


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
        r = check_diameter_sandwich(DoubleStepGraph(5, 1, 2))
        assert r.k == 1 and r.checks[0] == ("na-from-ds", 3, 2, 3)
        assert r.passed

    def test_mh_example(self):
        r = check_diameter_sandwich(DoubleStepGraph(13, 2, 3))
        assert r.k == 2 and r.checks[1] == ("mh-from-ds", 6, 5, 6)
        assert r.passed

    def test_invalid_ds_raises(self):
        with pytest.raises(FamilyError):
            check_diameter_sandwich(DoubleStepGraph(6, 2, 4))  # gcd(N, a, b) = 2

    def test_exhaustive_small_sweep(self):
        for p in valid_ds_instances(24):
            assert check_diameter_sandwich(p).passed

    def test_diameters_are_constant_on_each_ds_orbit(self):
        # verify sandwich checks one member per multiplier orbit: every
        # candidate has its representative's k, D_NA and D_MH, and the
        # orbits cover the candidates.
        ds = FAMILIES["ds"]
        for n in range(4, 41):
            covered = set()
            for rep, size in ds.representatives(n):
                want = check_diameter_sandwich(ds(n, *rep))[1:]
                members = set(ds.orbit(n, rep))
                assert len(members) == size
                covered |= members
                for steps in members:
                    r = check_diameter_sandwich(ds(n, *steps))
                    assert r[1:] == want, r
            assert covered == set(all_candidates(ds, n)), n

    def test_mh_matches_line_digraph_diameter(self):
        for p in valid_ds_instances(20):
            na = ds_to_na(p)
            g = compile_na(na)
            if is_regular(g) != 2 or is_directed_cycle(g):
                continue
            d_mh = diameter(compile_mh(na_to_mh(na)))
            d_l = diameter(line_digraph(g))
            assert d_mh == d_l == diameter(g) + 1


def two_regular_na_candidates(n_max):
    na = FAMILIES["na"]
    for n in range(4, n_max + 1, 2):
        for steps in all_candidates(na, n):
            p = na(n, *steps)
            if is_regular(compile_params(p, strict=False)) == 2:
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


def root_line_digraph(m, alpha, beta, gamma, delta):
    """The line digraph of the NA step digraph on Z_m, one vertex per arc.

    Built from the arcs themselves, so that with alpha = beta (mod m) the
    two parallel arcs out of each even vertex stay two vertices:
    graphs.line_classes merges coincident steps.
    """
    arcs = [(v, (v + x) % m) for v in range(m)
            for x in ((alpha, beta) if v % 2 == 0 else (gamma, delta))]
    return Digraph.from_lists(len(arcs), [
        [f for f, (tail, _) in enumerate(arcs) if tail == head]
        for _, head in arcs
    ])


def test_mod4_class_is_the_line_digraph_of_its_na_root():
    # Every mod-4 gauge class has one member with b = (1, -3, 1, 1):
    # (a0, 1, a1, -3, 2 - a0, 1, -2 - a1, 1) for a0, a1 = 3 (mod 4).  It is
    # the line digraph of Y = NA(N/2; 1, (a0+a1)/2, (1-a0)/2, -(3+a1)/2):
    # the lemma by which the mod-4 minimum at N is the NA minimum at N/2,
    # plus 1 (test_search).  Y has alpha = beta, parallel arcs, when
    # a0 + a1 = 2 (mod N): N/4 classes.
    checked = parallel = 0
    for n in range(8, 25, 4):
        for a0 in range(3, n, 4):
            for a1 in range(3, n, 4):
                mh = ManhattanDigraph(n, a0, 1, a1, -3, 2 - a0, 1, -2 - a1, 1)
                assert in_mod4_space(mh.steps) and not mh.validate()
                root = root_line_digraph(n // 2, 1, (a0 + a1) // 2, (1 - a0) // 2,
                                         -(3 + a1) // 2)
                assert are_isomorphic(compile_params(mh), root), mh
                checked += 1
                parallel += (a0 + a1) % n == 2
    assert (checked, parallel) == (90, 20)


@st.composite
def valid_ds(draw, n_max=200):
    """An arbitrary valid double-step graph of order at most n_max."""
    n = draw(st.integers(3, n_max))
    a = draw(st.integers(1, n - 1))
    # Drawn from the valid partners of a: rejecting invalid draws is slow,
    # since the boundary values hypothesis favours (b = a, b = 0) are invalid.
    partners = [b for b in range(1, n) if not DoubleStepGraph(n, a, b).validate()]
    assume(partners)
    return DoubleStepGraph(n, a, draw(st.sampled_from(partners)))


@settings(max_examples=300, deadline=None)
@given(valid_ds())
def test_derived_steps_satisfy_the_condition_systems(p):
    na = ds_to_na(p)
    assert check_na_conditions(p, na) == []
    assert not na.validate()
    mh = na_to_mh(na)
    assert check_mh_conditions(na, mh) == []
    assert not mh.validate()


@settings(max_examples=300, deadline=None)
@given(valid_ds())
def test_ds_to_mh_is_the_composition(p):
    assert ds_to_mh(p) == na_to_mh(ds_to_na(p))
