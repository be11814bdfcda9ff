import pytest

from gridnet.bounds import (
    THEOREMS,
    BoundsError,
    BoundsReport,
    achievable_range,
    bounds_report,
    case_of,
    missing_order,
    moore_ds,
    moore_mh,
    moore_na,
    predicted_diameter,
    theorem_of,
)
from gridnet.families import FAMILIES

from oracles import (
    achievable_range_mh_closed,
    achievable_range_na_closed,
    moore_ds_sum,
    moore_mh_sum,
    moore_na_sum,
)


class TestMooreBounds:
    def test_ds_spot_values(self):
        assert moore_ds(0) == 1
        assert moore_ds(1) == 5
        assert moore_ds(2) == 13
        assert moore_ds(3) == 25

    def test_na_spot_values(self):
        assert moore_na(1) == 2
        assert moore_na(3) == 10
        assert moore_na(4) == 16

    def test_mh_spot_values(self):
        assert moore_mh(3) == 8
        assert moore_mh(4) == 20
        assert moore_mh(5) == 32

    def test_closed_forms_match_summation_forms(self):
        for k in range(0, 101):
            assert moore_ds(k) == moore_ds_sum(k)
        for k in range(1, 101):
            assert moore_na(k) == moore_na_sum(k)
        for k in range(2, 101):
            assert moore_mh(k) == moore_mh_sum(k)

    def test_negative_diameter_rejected(self):
        with pytest.raises(BoundsError):
            moore_ds(-1)
        with pytest.raises(BoundsError):
            moore_na(0)
        with pytest.raises(BoundsError):
            moore_mh(1)


class TestAchievableRanges:
    def test_na_examples(self):
        assert achievable_range("4.2", 3) == (8, 10)
        assert achievable_range("4.2", 4) == (12, 14)
        assert achievable_range("4.2", 5) == (16, 26)

    def test_mh_examples(self):
        assert achievable_range("4.3", 4) == (16, 20)
        assert achievable_range("4.3", 5) == (24, 28)
        assert achievable_range("4.3", 6) == (32, 52)

    def test_na_odd_upper_bound_attains_moore(self):
        for k in range(1, 51):
            d = 2 * k + 1
            assert achievable_range("4.2", d)[1] == moore_na(d)

    def test_na_odd_lower_bound_matches_case_c_boundary(self):
        # (D-1)^2 - 2D + 10 at D = 2k+3 equals the case-(c) start 4k^2+4k+8
        for k in range(0, 51):
            d = 2 * k + 3
            assert achievable_range("4.2", d)[0] == 4 * k * k + 4 * k + 8

    def test_mh_even_upper_bound_attains_moore(self):
        for k in range(2, 51):
            d = 2 * k
            assert achievable_range("4.3", d)[1] == moore_mh(d)

    def test_preconditions(self):
        with pytest.raises(BoundsError):
            achievable_range("4.2", 1)
        with pytest.raises(BoundsError):
            achievable_range("4.3", 3)


@pytest.mark.parametrize(
    "theorem,closed",
    [
        ("4.2", achievable_range_na_closed),
        ("4.3", achievable_range_mh_closed),
    ],
    ids=["na", "mh"],
)
def test_ranges_from_theorems_match_closed_forms(theorem, closed):
    # A scan over the cases would not finish at the huge diameters.
    for d in [*range(-3, 201), 10**12, 10**12 + 1, 10**18 + 1]:
        try:
            expected = closed(d)
        except BoundsError:
            with pytest.raises(BoundsError):
                achievable_range(theorem, d)
        else:
            assert achievable_range(theorem, d) == expected, d


def test_case_of_huge_order():
    assert case_of("4.2", 4 * 10**12 + 4) == 10**6
    assert case_of("4.2", 4 * 10**12 + 2) == 10**6 - 1
    assert case_of("4.3", 8 * 10**12 + 4) == 10**6 - 1
    assert predicted_diameter("4.2", 4 * 10**12 + 4 * 10**6 + 6) is None


def test_case_of_is_the_least_case_holding_the_order():
    for theorem, t in THEOREMS.items():
        for n in range(-2, 3000):
            k = case_of(theorem, n)
            assert t.segments(k)[-1][0] >= n, (theorem, n)
            assert k == 1 or t.segments(k - 1)[-1][0] < n, (theorem, n)


class TestTheoremTable:
    def test_each_family_belongs_to_exactly_one_theorem(self):
        owners = sorted(t.family for t in THEOREMS.values())
        assert owners == sorted(FAMILIES)
        for name, t in THEOREMS.items():
            assert theorem_of(t.family) == name

    def test_moore_bound_is_the_family_bound(self):
        moore = {"ds": moore_ds, "na": moore_na, "mh": moore_mh}
        for t in THEOREMS.values():
            assert t.moore is moore[t.family]


def test_theorem_41_gives_no_range():
    with pytest.raises(BoundsError):
        achievable_range("4.1", 3)


class TestCasePredictions:
    def test_na_k1_cases(self):
        assert predicted_diameter("4.2", 10, 1) == 3  # case (a)
        assert predicted_diameter("4.2", 12, 1) == 4  # case (b)
        assert predicted_diameter("4.2", 14, 1) is None  # missing value
        assert predicted_diameter("4.2", 16, 1) == 5  # case (c)
        assert predicted_diameter("4.2", 6, 1) == 3  # companion 4k^2+2

    def test_mh_k1_cases(self):
        assert predicted_diameter("4.3", 20, 1) == 4
        assert predicted_diameter("4.3", 24, 1) == 5
        assert predicted_diameter("4.3", 28, 1) is None  # missing value
        assert predicted_diameter("4.3", 32, 1) == 6

    def test_missing_orders(self):
        assert missing_order("4.2", 1) == 14
        assert missing_order("4.2", 2) == 30
        assert missing_order("4.3", 1) == 28

    def test_k_inference_matches_explicit_k(self):
        for n in range(6, 200, 2):
            k = case_of("4.2", n)
            assert predicted_diameter("4.2", n) == predicted_diameter("4.2", n, k)
        for n in range(16, 400, 4):
            k = case_of("4.3", n)
            assert predicted_diameter("4.3", n) == predicted_diameter("4.3", n, k)

    def test_na_cases_tile_with_one_gap_per_k(self):
        for k in range(1, 30):
            lo, hi = 4 * k * k + 2, 4 * (k + 1) ** 2 + 2
            uncovered = [
                n
                for n in range(lo, hi + 1, 2)
                if predicted_diameter("4.2", n, k) is None
            ]
            assert uncovered == [4 * k * k + 4 * k + 6]

    def test_mh_cases_tile_with_one_gap_per_k(self):
        for k in range(1, 30):
            lo, hi = 8 * k * k + 8, 8 * (k + 1) ** 2 + 4
            uncovered = [
                n
                for n in range(lo, hi + 1, 4)
                if predicted_diameter("4.3", n, k) is None
            ]
            assert uncovered == [8 * k * k + 8 * k + 12]

    def test_odd_order_rejected(self):
        with pytest.raises(BoundsError):
            predicted_diameter("4.2", 9)


# The case statements of Theorems 4.2 and 4.3, written out from the paper:
# the diameter the canonical steps give at order n of case k.
def na_case(n, k):
    if 4 * k * k + 2 <= n <= 4 * k * k + 4 * k + 2:
        return 2 * k + 1
    if n == 4 * k * k + 4 * k + 4:
        return 2 * k + 2
    if n == 4 * k * k + 4 * k + 6:
        return None
    assert 4 * k * k + 4 * k + 8 <= n <= 4 * (k + 1) ** 2 + 2
    return 2 * k + 3


def mh_case(n, k):
    if 8 * k * k + 8 <= n <= 8 * k * k + 8 * k + 4:
        return 2 * k + 2
    if n == 8 * k * k + 8 * k + 8:
        return 2 * k + 3
    if n == 8 * k * k + 8 * k + 12:
        return None
    assert 8 * k * k + 8 * k + 16 <= n <= 8 * (k + 1) ** 2 + 4
    return 2 * k + 4


@pytest.mark.parametrize(
    "theorem,case,first,last,step",
    [
        ("4.2", na_case,
         lambda k: 4 * k * k + 2, lambda k: 4 * (k + 1) ** 2 + 2, 2),
        ("4.3", mh_case,
         lambda k: 8 * k * k + 8, lambda k: 8 * (k + 1) ** 2 + 4, 4),
    ],
    ids=["4.2", "4.3"],
)
def test_case_table_matches_case_statements(theorem, case, first, last, step):
    for k in range(1, 41):
        for n in range(first(k), last(k) + 1, step):
            assert predicted_diameter(theorem, n, k) == case(n, k), (n, k)
            assert predicted_diameter(theorem, n) == case(n, k), (n, k)


def test_theorem_41_is_least_diameter_whose_moore_bound_holds_n():
    k = 0
    for n in range(2, 5001):
        while moore_ds(k) < n:
            k += 1
        assert predicted_diameter("4.1", n) == k, n


class TestBoundsReport:
    def test_ds_report(self):
        r = bounds_report("ds", 3)
        assert r.moore_value == 25
        assert r.range_low is None

    def test_na_even_report_flags_missing_order(self):
        r = bounds_report("na", 4)
        assert (r.range_low, r.range_high) == (12, 14)
        assert r.missing_order == 14

    def test_mh_odd_report_flags_missing_order(self):
        r = bounds_report("mh", 5)
        assert (r.range_low, r.range_high) == (24, 28)
        assert r.missing_order == 28

    def test_unknown_family(self):
        with pytest.raises(BoundsError):
            bounds_report("xx", 3)

    def test_ds_reports_moore_bound_only(self):
        for k in range(0, 61):
            assert bounds_report("ds", k) == BoundsReport("ds", k, moore_ds(k))

    @pytest.mark.parametrize(
        "family,moore,theorem,first,missing",
        [
            ("na", moore_na, "4.2", 1,
             lambda k: missing_order("4.2", (k - 2) // 2) if k % 2 == 0 else None),
            ("mh", moore_mh, "4.3", 2,
             lambda k: missing_order("4.3", (k - 3) // 2) if k % 2 == 1 else None),
        ],
        ids=["na", "mh"],
    )
    def test_report_is_range_with_missing_order(
        self, family, moore, theorem, first, missing
    ):
        for k in [*range(first, 61), 10**12, 10**12 + 1]:
            try:
                low, high = achievable_range(theorem, k)
            except BoundsError:
                expected = BoundsReport(family, k, moore(k))
            else:
                expected = BoundsReport(family, k, moore(k), low, high, missing(k))
            assert bounds_report(family, k) == expected
