import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gridnet.bounds import BoundsError, bounds_report
from gridnet.cli import main
from gridnet.families import (
    FAMILIES,
    DoubleStepGraph,
    FamilyError,
    compile_ds,
    compile_params,
    format_params,
    parse_params,
)
from gridnet.graphs import GraphError, GridnetError, diameter, from_json, to_dot, to_json
from gridnet.search import SearchError, search_na

from oracles import (
    all_candidates,
    line_digraph_checks_per_candidate,
    sandwich_checks_per_candidate,
)
from test_graphs import MALFORMED_TYPES

# The benchmark's answer gate, loaded by path: perfbench/ is no package.
_spec = importlib.util.spec_from_file_location(
    "perfbench_gate", Path(__file__).resolve().parent.parent / "perfbench" / "gate.py"
)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)
REFERENCE = gate.load_reference()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("key", sorted(REFERENCE))
def test_benchmark_call_gives_its_reference_answer(capsys, key):
    # Each benchmark call's exit code and stdout, byte for byte, as the
    # benchmark's gate records them in perfbench/reference.json.
    argv = key.split()
    code, out, _ = run(capsys, *argv)
    fp = gate.fingerprint(argv, code, out.encode())
    assert gate.mismatch(REFERENCE, argv, fp) is None


class TestGen:
    def test_dot(self, capsys):
        code, out, _ = run(capsys, "gen", "ds:5,1,2")
        assert code == 0
        assert out == to_dot(compile_ds(DoubleStepGraph(5, 1, 2)))

    def test_json(self, capsys):
        code, out, _ = run(capsys, "gen", "ds:5,1,2", "--format", "json")
        assert code == 0
        assert out == to_json(compile_ds(DoubleStepGraph(5, 1, 2)))

    def test_validation_failure_exit_1(self, capsys):
        code, _, err = run(capsys, "gen", "ds:6,2,4")
        assert code == 1
        assert "gcd" in err

    def test_loose_compiles_anyway(self, capsys):
        code, out, _ = run(capsys, "gen", "ds:6,2,4", "--loose")
        assert code == 0
        assert out.startswith("digraph")

    def test_loose_does_not_admit_an_order_off_the_period(self, capsys):
        # --loose relaxes only the step conditions; the order is the record's.
        code, out, err = run(capsys, "gen", "--loose", "na:9,1,3,5,7")
        assert code == 64
        assert out == ""
        assert "order must be a multiple of 2, got 9" in err


class TestDiameter:
    def test_extremal_na(self, capsys):
        code, out, _ = run(capsys, "diameter", "na:10,-1,1,3,-3")
        assert code == 0
        assert out.strip() == "3"

    def test_json_roundtrip_via_stdin(self, capsys, monkeypatch, tmp_path):
        _, text, _ = run(capsys, "gen", "na:10,-1,1,3,-3", "--format", "json")
        path = tmp_path / "g.json"
        path.write_text(text)
        code, out, _ = run(capsys, "diameter", "--input", str(path))
        assert code == 0
        assert out.strip() == "3"

    def test_missing_argument_usage_error(self, capsys):
        code, out, err = run(capsys, "diameter")
        assert code == 64
        assert out == ""
        assert err.startswith("error: one of the arguments params --input is required")
        assert "usage: gridnet diameter" in err

    @pytest.mark.parametrize("text", MALFORMED_TYPES)
    def test_mistyped_json_exit_1(self, capsys, tmp_path, text):
        path = tmp_path / "g.json"
        path.write_text(text)
        code, out, err = run(capsys, "diameter", "--input", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: malformed digraph JSON")

    def test_non_utf8_file_exit_1(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b'\xff\xfe{"order":1,"arcs":[[]]}')
        code, out, err = run(capsys, "diameter", "--input", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_non_utf8_stdin_exit_1(self, capsys, monkeypatch):
        raw = io.BytesIO(b'\xff\xfe{"order":1,"arcs":[[]]}')
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(raw, encoding="utf-8"))
        code, out, err = run(capsys, "diameter", "--input", "-")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_deeply_nested_stdin_exit_1(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("[" * 100000))
        code, out, err = run(capsys, "diameter", "--input", "-")
        assert code == 1
        assert out == ""
        assert err.startswith("error: malformed digraph JSON")
        assert "Traceback" not in err

    def test_malformed_params_usage_error(self, capsys):
        # An order off the family's period is no record, like malformed text.
        for text in ("bogus", "na:9,1,3,5,7", "mh:18,1,7,-3,7,1,-5,1,-9"):
            code, out, err = run(capsys, "diameter", text)
            assert code == 64, text
            assert out == "" and "usage" in err, text

    def test_params_and_input_together_usage_error(self, capsys, tmp_path):
        # The digraph would come from the file and the parameters be ignored.
        _, text, _ = run(capsys, "gen", "ds:5,1,2", "--format", "json")
        path = tmp_path / "g.json"
        path.write_text(text)
        code, out, err = run(capsys, "diameter", "na:10,-1,1,3,-3",
                             "--input", str(path))
        assert code == 64
        assert out == ""
        assert err.startswith("error: argument --input: not allowed with argument params")
        assert "usage: gridnet diameter" in err

    def test_params_measured_on_step_classes(self, capsys, monkeypatch):
        # A record is measured on its step classes alone, with no per-vertex
        # rows (step_rows) and no Digraph built: every candidate of these
        # orders prints the diameter of its compiled digraph, and an invalid
        # record its validation error.
        from gridnet import cli, families, graphs

        orders = {"ds": range(4, 31), "na": range(4, 31, 2), "mh": (8, 12)}
        records = [FAMILIES[tag](n, *steps) for tag, ns in orders.items()
                   for n in ns for steps in all_candidates(FAMILIES[tag], n)]
        expected = "".join(
            f"{'not strongly connected' if d is None else d}\n"
            for d in map(diameter, map(compile_params, records))
        )

        def no_rows(*args):
            raise AssertionError("per-vertex rows built")

        parser = cli._build_parser()  # one build for the ten thousand calls
        monkeypatch.setattr(cli, "_build_parser", lambda: parser)
        monkeypatch.setattr(families, "step_rows", no_rows)
        monkeypatch.setattr(graphs, "Digraph", no_rows)
        codes = {main(["diameter", format_params(p)]) for p in records}
        assert (codes, *capsys.readouterr()) == ({0}, expected, "")
        assert run(capsys, "diameter", "na:10,1,1,3,5") == (
            1, "", "error: alpha = beta (mod N)\n"
        )


class TestBounds:
    def test_ds_text(self, capsys):
        code, out, _ = run(capsys, "bounds", "ds", "--k", "3")
        assert code == 0
        assert "25" in out

    def test_na_json(self, capsys):
        code, out, _ = run(capsys, "bounds", "na", "--k", "4", "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["moore_value"] == 16
        assert payload["missing_order"] == 14

    def test_printed_na_ranges_leave_out_order_6(self, capsys):
        # The paper's range at diameter 3 is 8..10, yet order 6 has diameter 3
        # (case 1 of Theorem 4.2) and the search finds it.  The output keeps
        # the paper's values; this pins them, so a change to them is deliberate.
        code, out, _ = run(capsys, "bounds", "na", "--k", "3", "--json")
        assert code == 0
        payload = json.loads(out)
        assert (payload["range_low"], payload["range_high"]) == (8, 10)
        code, out, _ = run(capsys, "search", "na", "--n", "6", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["min_diameter"] == 3
        assert payload["meets_theorem_prediction"] == "yes"

    def test_json_keys(self, capsys):
        _, out, _ = run(capsys, "bounds", "mh", "--k", "3", "--json")
        assert set(json.loads(out)) == {"family", "k", "moore_value", "range_low",
                                        "range_high", "missing_order"}


class TestDerive:
    def test_na_from_ds(self, capsys):
        code, out, _ = run(capsys, "derive", "na", "ds:13,2,3")
        assert code == 0
        assert out.strip() == "na:26,25,1,5,21"

    def test_mh_from_na(self, capsys):
        code, out, _ = run(capsys, "derive", "mh", "na:10,-1,1,3,-3")
        assert code == 0
        assert out.strip() == "mh:20,1,7,17,7,1,15,1,11"

    def test_mh_from_ds_composes(self, capsys):
        _, via_na, _ = run(capsys, "derive", "na", "ds:13,2,3")
        _, direct, _ = run(capsys, "derive", "mh", "ds:13,2,3")
        _, composed, _ = run(capsys, "derive", "mh", via_na.strip())
        assert direct == composed

    def test_wrong_family_usage_error(self, capsys):
        code, _, _ = run(capsys, "derive", "na", "na:10,-1,1,3,-3")
        assert code == 64


class TestSearch:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "search", "ds", "--n", "13")
        assert code == 0
        assert "min_diameter" in out and "2" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "search", "na", "--n", "10", "--format", "json")
        payload = json.loads(out)
        assert payload["min_diameter"] == 3
        assert payload["meets_theorem_prediction"] == "yes"

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "search", "na", "--n", "10", "--format", "csv")
        header, row = out.strip().splitlines()
        assert header.startswith("family,n,min_diameter")
        assert row.startswith("na,10,3,")
        # No minimum, no bound and no witnesses are empty cells.
        code, out, _ = run(capsys, "search", "ds", "--n", "3", "--format", "csv")
        assert (code, out) == (0, f"{header}\nds,3,,0,0,,not-covered,\n")

    def test_cap_exceeded_exit_1(self, capsys):
        code, _, err = run(capsys, "search", "ds", "--n", "50", "--cap", "40")
        assert code == 1

    @pytest.mark.parametrize(
        "argv,message",
        [
            # --direct is an option of search mh alone, which has no
            # --mod4-filter: its default mode searches the mod-4 space.
            (("ds", "--n", "13", "--direct"), "unrecognized arguments: --direct"),
            (("na", "--n", "10", "--direct"), "unrecognized arguments: --direct"),
            (("mh", "--mod4-filter", "--n", "16"),
             "unrecognized arguments: --mod4-filter"),
            (("ds", "--n", "13", "--workers", "-3"),
             "argument --workers: must be at least 1, got -3"),
            (("na", "--n", "10", "--workers", "0"),
             "argument --workers: must be at least 1, got 0"),
            (("mh", "--n", "12", "--direct", "--workers", "0"),
             "argument --workers: must be at least 1, got 0"),
            (("na", "--n", "10", "--workers", "two"),
             "argument --workers: invalid integer value: 'two'"),
            (("na", "--n", "10", "--cap", "0"),
             "argument --cap: must be at least 1, got 0"),
            (("na", "--n", "10", "--cap", "-1"),
             "argument --cap: must be at least 1, got -1"),
        ],
        ids=["ds", "na", "mh-mod4-filter", "ds-workers-3", "na-workers0",
             "mh-direct-workers0", "na-workers-two", "cap0", "cap-1"],
    )
    def test_options_that_do_not_apply_rejected(self, capsys, argv, message):
        code, out, err = run(capsys, "search", *argv)
        assert code == 64
        assert out == ""
        assert err.startswith(f"error: {message}\nusage: gridnet search {argv[0]} ")

    def test_mh_takes_the_mod4_cap(self, capsys):
        # Every mod-4 class is the line digraph of an NA digraph of order
        # N/2, so the default mod-4 search takes twice the NA cap, 240.
        code, out, _ = run(capsys, "search", "mh", "--n", "68")
        assert code == 0
        assert "min_diameter              8" in out
        assert "candidates_examined       1419857" in out
        code, out, err = run(capsys, "search", "mh", "--n", "244")
        assert (code, out, err) == (1, "", "error: order 244 exceeds mod-4 cap 240\n")
        code, out, _ = run(capsys, "search", "mh", "--n", "244", "--cap", "244")
        assert code == 0
        assert "min_diameter              12" in out

    def test_workers_one_accepted(self, capsys):
        code, out, _ = run(capsys, "search", "ds", "--n", "13", "--workers", "1")
        assert code == 0
        assert "min_diameter              2" in out

    def test_mh_mod4_cap_exceeded_exit_1(self, capsys):
        code, _, err = run(capsys, "search", "mh", "--n", "28", "--cap", "24")
        assert code == 1
        assert "cap 24" in err


class TestVerify:
    def test_theorem_41_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "4.1", "--k-max", "3")
        assert code == 0
        assert "0 failures" in out

    def test_theorem_41_lists_only_double_step_orders(self, capsys):
        # ds:2,1,2 (b = 0) and ds:3,1,2 (a = -b) are no DS graphs.
        code, out, _ = run(capsys, "verify", "4.1", "--k-max", "1", "--exhaustive",
                           "--csv")
        assert code == 0
        assert out.splitlines()[1:] == ["4.1,1,4,1,1,,1,pass", "4.1,1,5,1,1,,1,pass",
                                        "theorem 4.1: 2 orders, 0 failures"]

    def test_theorem_42_csv(self, capsys):
        code, out, _ = run(capsys, "verify", "4.2", "--k-max", "2", "--csv")
        assert code == 0
        assert out.splitlines()[0] == "theorem,k,n,predicted,constructed,via_na,searched_min,pass"

    def test_sandwich_small(self, capsys):
        code, out, _ = run(capsys, "verify", "sandwich", "--n-max", "15")
        assert code == 0
        assert "0 failures" in out

    def test_line_digraph_small(self, capsys):
        code, out, _ = run(capsys, "verify", "line-digraph", "--n-max", "12")
        assert code == 0
        assert "0 failures" in out

    def test_line_digraph_reads_each_representatives_classes_once(
        self, capsys, monkeypatch
    ):
        # The check runs once per gauge orbit, on the step classes
        # alone: one classes call per representative evaluated (the 2-regular
        # ones, gamma != delta), and no per-vertex rows of the digraph
        # (step_rows) or its line digraph (the Digraph that
        # graphs.line_digraph builds).
        from gridnet import families, graphs

        na = FAMILIES["na"]
        classes = na.classes
        reads = []

        def counting_classes(n, steps):
            reads.append((n, steps))
            return classes(n, steps)

        def no_rows(*args):
            raise AssertionError("per-vertex rows built")

        monkeypatch.setattr(na, "classes", staticmethod(counting_classes))
        monkeypatch.setattr(families, "step_rows", no_rows)
        monkeypatch.setattr(graphs, "Digraph", no_rows)
        code, out, _ = run(capsys, "verify", "line-digraph", "--n-max", "24")
        assert code == 0
        assert out == "line-digraph: 1039 checks, 0 failures\n"
        evaluated = [(n, steps) for n in range(4, 25, 2)
                     for steps, _ in na.representatives(n) if steps[2] != steps[3]]
        assert reads == evaluated

    @pytest.mark.parametrize("lie", [False, True], ids=["kernel", "lying-kernel"])
    def test_line_digraph_equals_the_per_candidate_oracle(
        self, capsys, monkeypatch, lie
    ):
        # Each even order's batch from 4 to 40, and stdout at --n-max 40,
        # equal the per-candidate loop's.  The lying kernel adds one to the
        # diameter of the digraph of every member of one gauge orbit at
        # order 20, so that orbit fails as a whole: one FAIL line per
        # member, in enumeration order.
        from gridnet import cli, graphs

        na = FAMILIES["na"]
        kernel = graphs.bounded_diameter
        if lie:
            rep, size = next(
                (steps, size) for steps, size in na.representatives(20)
                if size > 2 and steps[2] != steps[3]
                and kernel(na.classes(20, steps), 20, None) is not None
            )
            members = {(20, m) for m in na.orbit(20, rep)}
            assert len(members) == size

            def kernel(classes, n, limit, real=graphs.bounded_diameter):
                d = real(classes, n, limit)
                return d + 1 if (n, sum(classes, ())) in members else d

            monkeypatch.setattr(cli, "bounded_diameter", kernel)
        checks, failed = 0, []
        for n in range(4, 41, 2):
            count, lines = line_digraph_checks_per_candidate(n, kernel)
            assert na.orbit_checks(n, cli._line_digraph_check) == (count, lines), n
            checks += count
            failed += lines
        code, out, _ = run(capsys, "verify", "line-digraph", "--n-max", "40")
        summary = f"line-digraph: {checks} checks, {len(failed)} failures"
        assert out.splitlines() == failed + [summary]
        assert code == (2 if failed else 0)
        if lie:
            assert failed == [
                f"FAIL line-digraph {format_params(na(20, *steps))}"
                for steps in all_candidates(na, 20) if (20, steps) in members
            ]
            assert len(failed) == size
        else:
            assert summary == "line-digraph: 8238 checks, 0 failures"

    def test_sandwich_runs_once_per_orbit(self, capsys, monkeypatch):
        # 148 DS multiplier orbits of order 4 to 28 hold the 706 candidates,
        # two checks each.
        from gridnet import cli

        sandwich = cli.check_diameter_sandwich
        calls = []

        def counting_sandwich(p):
            calls.append(p)
            return sandwich(p)

        monkeypatch.setattr(cli, "check_diameter_sandwich", counting_sandwich)
        code, out, _ = run(capsys, "verify", "sandwich", "--n-max", "28")
        assert code == 0
        assert out == "sandwich: 1412 checks, 0 failures\n"
        assert len(calls) == 148

    @pytest.mark.parametrize("lie", [False, True], ids=["kernel", "lying-kernel"])
    def test_sandwich_equals_the_per_candidate_oracle(
        self, capsys, monkeypatch, lie
    ):
        # Each order's batch from 4 to 40, and stdout at --n-max 40, equal
        # the per-candidate loop's.  The lying sandwich adds one to D_NA on
        # every member of one order-20 orbit whose D_NA is 2k+1, so that
        # orbit fails as a whole: one FAIL line per member, in enumeration
        # order.
        from gridnet import cli

        ds = FAMILIES["ds"]
        sandwich = cli.check_diameter_sandwich
        if lie:
            real = sandwich
            # An odd D_NA is 2k+1, the top of its range.
            rep, size = next(
                (steps, size) for steps, size in ds.representatives(20)
                if size > 2 and real(ds(20, *steps)).na_diameter % 2
            )
            members = {ds(20, *m) for m in ds.orbit(20, rep)}
            assert len(members) == size

            def sandwich(p):
                r = real(p)
                return r._replace(na_diameter=r.na_diameter + 1) if p in members else r

            monkeypatch.setattr(cli, "check_diameter_sandwich", sandwich)
        checks, failed = 0, []
        for n in range(4, 41):
            count, lines = sandwich_checks_per_candidate(n, sandwich)
            assert ds.orbit_checks(n, cli._sandwich_check) == (count, lines), n
            checks += count
            failed += lines
        code, out, _ = run(capsys, "verify", "sandwich", "--n-max", "40")
        summary = f"sandwich: {checks} checks, {len(failed)} failures"
        assert out.splitlines() == failed + [summary]
        assert code == (2 if failed else 0)
        if lie:
            reports = [real(ds(20, *steps)) for steps in all_candidates(ds, 20)]
            assert failed == [
                f"FAIL na-from-ds {format_params(r.ds)}: k={r.k} "
                f"derived={r.na_diameter + 1} not in [{2 * r.k},{2 * r.k + 1}]"
                for r in reports if r.ds in members
            ]
            assert len(failed) == size
        else:
            assert summary == "sandwich: 4210 checks, 0 failures"

    @pytest.mark.parametrize(
        "claim,fail,summary",
        [
            ("sandwich", "FAIL na-from-ds ds:5,1,2: k=1 derived=4 not in [2,3]",
             "sandwich: 26 checks, 1 failures"),
            ("line-digraph", "FAIL line-digraph na:4,1,3,1,3",
             "line-digraph: 12 checks, 1 failures"),
        ],
    )
    def test_one_failed_check(self, capsys, monkeypatch, claim, fail, summary):
        from gridnet import cli

        sandwich, bounded = cli.check_diameter_sandwich, cli.bounded_diameter

        def wrong_sandwich(p):
            r = sandwich(p)
            if p == DoubleStepGraph(5, 1, 2):
                return r._replace(na_diameter=r.na_diameter + 1)
            return r

        def wrong_line(classes, n, limit):
            # The one order-8 line digraph (period 4) is that of na:4,1,3,1,3.
            d = bounded(classes, n, limit)
            return d + 1 if (n, len(classes)) == (8, 4) else d

        monkeypatch.setattr(cli, "check_diameter_sandwich", wrong_sandwich)
        monkeypatch.setattr(cli, "bounded_diameter", wrong_line)
        code, out, _ = run(capsys, "verify", claim, "--n-max", "8")
        assert code == 2
        assert out == f"{fail}\n{summary}\n"

    @pytest.mark.parametrize("claim", ["sandwich", "line-digraph"])
    def test_csv_rejected_where_there_are_no_rows(self, capsys, claim):
        code, out, err = run(capsys, "verify", claim, "--n-max", "8", "--csv")
        assert code == 64
        assert out == ""
        assert err.startswith(
            f"error: unrecognized arguments: --csv\nusage: gridnet verify {claim} "
        )

    def test_structural_claim_help_lists_only_its_option(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["verify", "sandwich", "-h"])
        out = capsys.readouterr().out
        assert exited.value.code == 0
        assert out.startswith("usage: gridnet verify sandwich")
        assert "--n-max" in out and "--k-max" not in out

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("sandwich", "--n-max", "0"),
             "argument --n-max: must be at least 4, got 0"),
            (("sandwich", "--n-max", "2"),
             "argument --n-max: must be at least 4, got 2"),
            # No DS graph has order 3: its steps need a < b <= N/2.
            (("sandwich", "--n-max", "3"),
             "argument --n-max: must be at least 4, got 3"),
            (("line-digraph", "--n-max", "3"),
             "argument --n-max: must be at least 4, got 3"),
            (("4.1", "--k-max", "0"), "argument --k-max: must be at least 1, got 0"),
            (("4.3", "--k-max", "-2"), "argument --k-max: must be at least 1, got -2"),
            (("sandwich", "--n-max", "4.5"),
             "argument --n-max: invalid integer value: '4.5'"),
            (("4.2", "--k-max", "x"), "argument --k-max: invalid integer value: 'x'"),
            # verify has no --workers option, whatever its value.
            (("4.1", "--k-max", "1", "--workers", "0"),
             "unrecognized arguments: --workers 0"),
            (("4.2", "--workers", "-2"), "unrecognized arguments: --workers -2"),
            (("4.3", "--k-max", "1", "--workers", "0", "--exhaustive"),
             "unrecognized arguments: --workers 0"),
        ],
        ids=["sandwich-0", "sandwich-2", "sandwich-3", "line-digraph-3", "4.1-k0",
             "4.3-k-2", "sandwich-n-max-4.5", "4.2-k-max-x", "4.1-workers0",
             "4.2-workers-2", "4.3-workers0"],
    )
    def test_vacuous_ranges_rejected(self, capsys, argv, message):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 64
        assert out == ""
        assert err.startswith(f"error: {message}\nusage: gridnet verify {argv[0]} ")

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("sandwich", "--n-max", "8", "--exhaustive"),
             "unrecognized arguments: --exhaustive"),
            (("sandwich", "--n-max", "8", "--workers", "2"),
             "unrecognized arguments: --workers 2"),
            (("line-digraph", "--n-max", "8", "--k-max", "9"),
             "unrecognized arguments: --k-max 9"),
            (("4.1", "--k-max", "1", "--n-max", "8"),
             "unrecognized arguments: --n-max 8"),
            (("4.2", "--n-max", "8"), "unrecognized arguments: --n-max 8"),
        ],
        ids=["sandwich-exhaustive", "sandwich-workers", "line-digraph-k-max",
             "4.1-n-max", "4.2-n-max"],
    )
    def test_options_that_do_not_apply_rejected(self, capsys, argv, message):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 64
        assert out == ""
        assert err.startswith(f"error: {message}\nusage: gridnet verify {argv[0]} ")


class TestTable:
    def test_na_table(self, capsys):
        code, out, _ = run(capsys, "table", "na", "--k-max", "2")
        assert code == 0
        assert "pass" in out

    def test_mh_table_csv(self, capsys):
        code, out, _ = run(capsys, "table", "mh", "--k-max", "1", "--csv")
        assert code == 0
        assert "4.3,1,20,4,4,4" in out

    def test_k_max_below_one_rejected(self, capsys):
        code, out, err = run(capsys, "table", "na", "--k-max", "0")
        assert code == 64
        assert out == ""
        assert err.startswith("error: argument --k-max: must be at least 1, got 0")


def test_unknown_verb_exit_64(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 64
    assert "usage" in err


BAD_GRAPH = '{"order": 2, "arcs": [[5],[0]]}'

# One input of each error kind: (error class, the call raising it, the CLI
# call with its stdin, the message).
ERROR_INPUTS = [
    (FamilyError, lambda: compile_params(parse_params("ds:10,0,0")),
     ["gen", "ds:10,0,0"], "",
     "step a = 0 (mod N); step b = 0 (mod N); a = b (mod N); a = -b (mod N); "
     "gcd(N,a,b) = 10 != 1"),
    (GraphError, lambda: from_json(BAD_GRAPH),
     ["diameter", "--input", "-"], BAD_GRAPH, "arc 0->5 out of range 0..1"),
    (BoundsError, lambda: bounds_report("mh", 1),
     ["bounds", "mh", "--k", "1"], "", "diameter must be at least 2, got 1"),
    (SearchError, lambda: search_na(7),
     ["search", "na", "--n", "7"], "", "order must be an even integer >= 4, got 7"),
    (FileNotFoundError, lambda: open("missing-graph.json"),
     ["diameter", "--input", "missing-graph.json"], "",
     "[Errno 2] No such file or directory: 'missing-graph.json'"),
]


def test_out_of_memory_exits_1_with_one_error_line(capsys, monkeypatch):
    # A valid record too large to build, such as ds:30000001,1,2 under a
    # small address-space limit, ends in one line and not a traceback.
    from gridnet import cli

    def too_large(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "compile_params", too_large)
    assert run(capsys, "gen", "ds:30000001,1,2") == (1, "", "error: out of memory\n")


# Integers past the interpreter's digit limit for str(), 4300 by default.
DIGIT_LIMIT = "error: Exceeds the limit (4300 digits) for integer string conversion"


@pytest.mark.parametrize("argv, error", [
    # 1 << N overflows before anything of order N is built.
    (["diameter", "ds:100000000000000000000,1,2"], "error: out of memory\n"),
    # A 4,400-digit Moore bound, and a 4,301-digit derived order.
    (["bounds", "na", "--k", "9" * 2200], DIGIT_LIMIT),
    (["bounds", "na", "--k", "9" * 2200, "--json"], DIGIT_LIMIT),
    (["derive", "na", f"ds:{'9' * 4300},1,2"], DIGIT_LIMIT),
], ids=["diameter-order-1e20", "bounds-text", "bounds-json", "derive-na"])
def test_too_large_a_number_exits_1_with_one_error_line(capsys, argv, error):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(error) and err.count("\n") == 1


class TestOneErrorBase:
    @pytest.mark.parametrize("cls", [FamilyError, GraphError, BoundsError, SearchError])
    def test_every_error_class_is_a_gridnet_error(self, cls):
        assert issubclass(cls, GridnetError)
        assert issubclass(cls, ValueError)

    @pytest.mark.parametrize(
        "cls, call, argv, stdin, message", ERROR_INPUTS,
        ids=[case[0].__name__ for case in ERROR_INPUTS],
    )
    def test_each_kind_exits_1_with_one_error_line(self, cls, call, argv,
                                                   stdin, message):
        with pytest.raises(cls) as raised:
            call()
        assert str(raised.value) == message
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "gridnet.cli", *argv], input=stdin,
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            1, "", f"error: {message}\n"
        )
