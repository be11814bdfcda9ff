import json
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor

import pytest

from gridnet import search
from gridnet.bounds import (
    mh_missing_order,
    moore_ds,
    moore_mh,
    moore_na,
    na_missing_order,
)
from gridnet.families import compile_params, format_params
from gridnet.graphs import diameter
from gridnet.search import (
    DEFAULT_CAP_MH_VIA_NA,
    SearchError,
    search_ds,
    search_mh,
    search_na,
    sweep_verify,
    theorem_42_params,
)

from oracles import brute_na_minimum


class TestSearchDs:
    def test_n5(self):
        r = search_ds(5)
        assert r.min_diameter == 1
        assert any(w.steps == (1, 2) for w in r.witnesses)
        assert r.meets_theorem_prediction == "yes"

    def test_n13(self):
        r = search_ds(13)
        assert r.min_diameter == 2
        assert any(w.steps == (2, 3) for w in r.witnesses)

    def test_n6(self):
        assert search_ds(6).min_diameter == 2

    def test_moore_lower_bound_holds(self):
        for n in range(4, 30):
            r = search_ds(n)
            assert n <= moore_ds(r.min_diameter)

    def test_no_valid_instances_at_order_3(self):
        # the only available step pair is (1, 2) with 2 = -1 (mod 3)
        r = search_ds(3)
        assert r.min_diameter is None and r.candidates_examined == 0

    def test_cap(self):
        with pytest.raises(SearchError):
            search_ds(300)


class TestSearchNa:
    def test_n10_is_moore_optimal(self):
        r = search_na(10)
        assert r.min_diameter == 3
        assert r.moore_bound_for_min == moore_na(3) == 10
        assert r.meets_theorem_prediction == "yes"

    def test_n14_missing_value_true_minimum(self):
        # The exceptional order 4k^2+4k+6 at k=1.  Exhaustive enumeration
        # (certified by brute_na_minimum in tests/oracles.py) gives minimum
        # diameter 5, not 4: some step sets push the eccentricity of
        # vertex 0 or of vertex 1 to 4, but none pushes both.
        r = search_na(14)
        assert r.min_diameter == brute_na_minimum(14) == 5
        assert r.meets_theorem_prediction == "not-covered"

    def test_n16_case_c_non_attainability(self):
        r = search_na(16)
        assert r.min_diameter == brute_na_minimum(16) == 5

    def test_n30_missing_value_true_minimum(self):
        assert search_na(30).min_diameter == 7

    def test_vertex0_eccentricity_reaches_4_at_n14(self):
        # The source of the exceptional-order discrepancy: from vertex 0
        # some step sets reach everything within 4, e.g. (1,3,3,7).
        from gridnet.families import NewAmsterdamDigraph, compile_na
        from gridnet.graphs import bfs_profile

        g = compile_na(NewAmsterdamDigraph(14, 1, 3, 3, 7))
        assert bfs_profile(g, 0).eccentricity == 4
        assert diameter(g) == 5

    def test_witnesses_reverify(self):
        r = search_na(12)
        assert r.min_diameter == 4
        for w in r.witnesses:
            assert diameter(compile_params(w, strict=False)) == r.min_diameter

    def test_moore_lower_bound_holds(self):
        for n in range(4, 27, 2):
            r = search_na(n)
            assert n <= moore_na(r.min_diameter)

    def test_odd_order_rejected(self):
        with pytest.raises(SearchError):
            search_na(9)


class TestSearchMh:
    def test_n20_via_na(self):
        r = search_mh(20)
        assert r.min_diameter == 4
        assert r.moore_bound_for_min == moore_mh(4) == 20
        assert r.meets_theorem_prediction == "yes"

    def test_n28_via_na(self):
        # the Manhattan exceptional order at k=1: lifted NA minimum 5 + 1
        assert search_mh(28).min_diameter == 6

    def test_direct_agrees_with_via_na_n20(self):
        direct = search_mh(20, direct=True, workers=4)
        via = search_mh(20)
        assert direct.min_diameter == via.min_diameter == 4
        for w in direct.witnesses:
            assert diameter(compile_params(w, strict=False)) == 4

    def test_direct_agrees_with_via_na_n12(self):
        assert (
            search_mh(12, direct=True).min_diameter == search_mh(12).min_diameter
        )

    def test_bad_order_rejected(self):
        with pytest.raises(SearchError):
            search_mh(18)

    def test_via_na_honours_cap(self):
        with pytest.raises(SearchError, match="cap 24"):
            search_mh(28, cap=24)
        with pytest.raises(SearchError):
            search_mh(DEFAULT_CAP_MH_VIA_NA + 4)

    def test_via_na_default_cap_covers_theorem_43_sweep(self):
        # verify 4.3 --exhaustive runs search_mh up to order 8(k+1)^2+4
        assert DEFAULT_CAP_MH_VIA_NA >= 8 * 5 * 5 + 4


class TestDeterminism:
    def test_worker_count_independence(self):
        results = [
            json.dumps(search_na(16, workers=w).to_json_dict(), sort_keys=True)
            for w in (1, 2, 8)
        ]
        assert results[0] == results[1] == results[2]

    def test_witness_order_lexicographic(self):
        r = search_na(16, workers=2)
        texts = [format_params(w) for w in r.witnesses]
        assert texts == sorted(texts, key=lambda t: [int(x) for x in t[3:].split(",")])


class TestWorkerClamp:
    @pytest.fixture(autouse=True)
    def no_pool(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("no worker process may start")

        monkeypatch.setattr(search, "ProcessPoolExecutor", refuse)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)

    def test_search_on_one_cpu_stays_in_process(self):
        assert search_na(16, workers=64).min_diameter == 5


class TestLazyPool:
    def test_cli_import_loads_no_process_pool(self):
        src = os.path.dirname(os.path.dirname(search.__file__))
        code = (
            "import sys, gridnet.cli; "
            "print(sorted(m for m in ('concurrent.futures.process', "
            "'multiprocessing') if m in sys.modules))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True, timeout=60,
        ).stdout
        assert out.strip() == "[]"

    def test_search_with_workers_loads_no_process_pool(self):
        src = os.path.dirname(os.path.dirname(search.__file__))
        code = (
            "import sys\n"
            "from gridnet import cli, search\n"
            "search.search_na(16, workers=2)\n"
            "cli.main(['search', 'na', '--n', '16', '--workers', '2'])\n"
            "print(sorted(m for m in ('concurrent.futures.process', "
            "'multiprocessing') if m in sys.modules))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True, timeout=60,
        ).stdout
        assert out.splitlines()[-1] == "[]"

    def test_pool_class_resolves_through_module(self):
        assert search.ProcessPoolExecutor is ProcessPoolExecutor
        with pytest.raises(AttributeError):
            search.NoSuchName


class TestSweepVerify:
    def test_theorem_41(self):
        rows = sweep_verify("4.1", 4)
        assert rows and all(r.passed for r in rows)

    def test_theorem_42(self):
        rows = sweep_verify("4.2", 3)
        assert rows and all(r.passed for r in rows)
        # the canonical steps never appear at the missing orders
        assert all(r.n != 4 * r.k * r.k + 4 * r.k + 6 for r in rows)

    def test_theorem_43_with_line_digraph_route(self):
        rows = sweep_verify("4.3", 2)
        assert rows and all(r.passed for r in rows)
        assert all(r.via_na == r.predicted for r in rows)

    def test_exhaustive_mode_confirms_predictions_small(self):
        rows = sweep_verify("4.1", 2, exhaustive=True)
        # order 3 has no valid instance at all, so no searched minimum
        assert all(r.searched_min == r.predicted for r in rows if r.n >= 4)

    def test_canonical_na_steps_suboptimal_at_missing_order(self):
        # at N=14 the theorem steps give 5; so does everything else
        g = compile_params(theorem_42_params(14, 1), strict=False)
        assert diameter(g) == 5
        assert search_na(14).min_diameter == 5

    def test_unknown_theorem(self):
        with pytest.raises(SearchError):
            sweep_verify("4.4", 1)


# (n, predicted) of each case, written out from the theorem statements.
# Theorem 4.2, k=1: N=6 -> 3; 8..10 -> 3; 12 -> 4; 16..18 -> 5 (14 missing).
# k=2: 18 -> 5; 20..26 -> 5; 28 -> 6; 32..38 -> 7 (30 missing).
# Theorem 4.3, k=1: 16..20 -> 4; 24 -> 5; 32..36 -> 6 (28 missing).
# k=2: 40..52 -> 6; 56 -> 7; 64..76 -> 8 (60 missing).
CASE_ROWS = {
    ("4.2", 1): [(6, 3), (8, 3), (10, 3), (12, 4), (16, 5), (18, 5)],
    ("4.2", 2): [(18, 5), (20, 5), (22, 5), (24, 5), (26, 5), (28, 6),
                 (32, 7), (34, 7), (36, 7), (38, 7)],
    ("4.3", 1): [(16, 4), (20, 4), (24, 5), (32, 6), (36, 6)],
    ("4.3", 2): [(40, 6), (44, 6), (48, 6), (52, 6), (56, 7),
                 (64, 8), (68, 8), (72, 8), (76, 8)],
}


def _rows_by_k(theorem, k_max):
    by_k = {}
    for r in sweep_verify(theorem, k_max):
        by_k.setdefault(r.k, []).append(r)
    return by_k


@pytest.mark.parametrize("theorem", ["4.2", "4.3"])
def test_sweep_rows_match_theorem_cases(theorem):
    by_k = _rows_by_k(theorem, 2)
    for k in (1, 2):
        assert [(r.n, r.predicted) for r in by_k[k]] == CASE_ROWS[theorem, k]


@pytest.mark.parametrize(
    "theorem,first,last,step,missing",
    [
        ("4.2", lambda k: 4 * k * k + 2, lambda k: 4 * (k + 1) ** 2 + 2, 2,
         na_missing_order),
        ("4.3", lambda k: 8 * k * k + 8, lambda k: 8 * (k + 1) ** 2 + 4, 4,
         mh_missing_order),
    ],
    ids=["4.2", "4.3"],
)
def test_sweep_covers_each_case_but_the_missing_order(
    theorem, first, last, step, missing
):
    by_k = _rows_by_k(theorem, 6)
    assert sorted(by_k) == list(range(1, 7))
    for k, rows in by_k.items():
        expected = [n for n in range(first(k), last(k) + 1, step) if n != missing(k)]
        assert [r.n for r in rows] == expected
        assert all(r.passed for r in rows)
