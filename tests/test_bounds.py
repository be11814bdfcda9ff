import pytest

from gridnet.bounds import (
    BoundsError,
    achievable_range_mh,
    achievable_range_na,
    bounds_report,
    infer_k_mh,
    infer_k_na,
    mh_missing_order,
    moore_ds,
    moore_mh,
    moore_na,
    na_missing_order,
    theorem_42_expected_diameter,
    theorem_43_expected_diameter,
)

from oracles import moore_ds_sum, moore_mh_sum, moore_na_sum


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
        assert achievable_range_na(3) == (8, 10)
        assert achievable_range_na(4) == (12, 14)
        assert achievable_range_na(5) == (16, 26)

    def test_mh_examples(self):
        assert achievable_range_mh(4) == (16, 20)
        assert achievable_range_mh(5) == (24, 28)
        assert achievable_range_mh(6) == (32, 52)

    def test_na_odd_upper_bound_attains_moore(self):
        for k in range(1, 51):
            d = 2 * k + 1
            assert achievable_range_na(d)[1] == moore_na(d)

    def test_na_odd_lower_bound_matches_case_c_boundary(self):
        # (D-1)^2 - 2D + 10 at D = 2k+3 equals the case-(c) start 4k^2+4k+8
        for k in range(0, 51):
            d = 2 * k + 3
            assert achievable_range_na(d)[0] == 4 * k * k + 4 * k + 8

    def test_mh_even_upper_bound_attains_moore(self):
        for k in range(2, 51):
            d = 2 * k
            assert achievable_range_mh(d)[1] == moore_mh(d)

    def test_preconditions(self):
        with pytest.raises(BoundsError):
            achievable_range_na(1)
        with pytest.raises(BoundsError):
            achievable_range_mh(3)


class TestCasePredictions:
    def test_na_k1_cases(self):
        assert theorem_42_expected_diameter(10, 1) == 3  # case (a)
        assert theorem_42_expected_diameter(12, 1) == 4  # case (b)
        assert theorem_42_expected_diameter(14, 1) is None  # missing value
        assert theorem_42_expected_diameter(16, 1) == 5  # case (c)
        assert theorem_42_expected_diameter(6, 1) == 3  # companion 4k^2+2

    def test_mh_k1_cases(self):
        assert theorem_43_expected_diameter(20, 1) == 4
        assert theorem_43_expected_diameter(24, 1) == 5
        assert theorem_43_expected_diameter(28, 1) is None  # missing value
        assert theorem_43_expected_diameter(32, 1) == 6

    def test_missing_orders(self):
        assert na_missing_order(1) == 14
        assert na_missing_order(2) == 30
        assert mh_missing_order(1) == 28

    def test_k_inference_matches_explicit_k(self):
        for n in range(6, 200, 2):
            k = infer_k_na(n)
            assert theorem_42_expected_diameter(n) == theorem_42_expected_diameter(n, k)
        for n in range(16, 400, 4):
            k = infer_k_mh(n)
            assert theorem_43_expected_diameter(n) == theorem_43_expected_diameter(n, k)

    def test_na_cases_tile_with_one_gap_per_k(self):
        for k in range(1, 30):
            lo, hi = 4 * k * k + 2, 4 * (k + 1) ** 2 + 2
            uncovered = [
                n
                for n in range(lo, hi + 1, 2)
                if theorem_42_expected_diameter(n, k) is None
            ]
            assert uncovered == [4 * k * k + 4 * k + 6]

    def test_mh_cases_tile_with_one_gap_per_k(self):
        for k in range(1, 30):
            lo, hi = 8 * k * k + 8, 8 * (k + 1) ** 2 + 4
            uncovered = [
                n
                for n in range(lo, hi + 1, 4)
                if theorem_43_expected_diameter(n, k) is None
            ]
            assert uncovered == [8 * k * k + 8 * k + 12]

    def test_odd_order_rejected(self):
        with pytest.raises(BoundsError):
            theorem_42_expected_diameter(9)


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
