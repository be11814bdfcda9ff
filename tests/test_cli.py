import io
import json
import sys

import pytest

from gridnet.cli import main
from gridnet.families import DoubleStepGraph, compile_ds
from gridnet.graphs import to_dot, to_json

from test_graphs import MALFORMED_TYPES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        code, _, err = run(capsys, "diameter")
        assert code == 64

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

    def test_malformed_params_usage_error(self, capsys):
        code, _, err = run(capsys, "diameter", "bogus")
        assert code == 64
        assert "usage" in err


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

    def test_cap_exceeded_exit_1(self, capsys):
        code, _, err = run(capsys, "search", "ds", "--n", "50", "--cap", "40")
        assert code == 1

    @pytest.mark.parametrize("family,n", [("ds", "13"), ("na", "10")])
    def test_mh_only_options_ignored_by_other_families(self, capsys, family, n):
        _, plain, _ = run(capsys, "search", family, "--n", n)
        code, out, _ = run(
            capsys, "search", family, "--n", n, "--direct", "--mod4-filter"
        )
        assert code == 0
        assert out == plain

    def test_mh_via_na_cap_exceeded_exit_1(self, capsys):
        code, _, err = run(capsys, "search", "mh", "--n", "28", "--cap", "24")
        assert code == 1
        assert "cap 24" in err


class TestVerify:
    def test_theorem_41_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "4.1", "--k-max", "3")
        assert code == 0
        assert "0 failures" in out

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

    @pytest.mark.parametrize("claim", ["sandwich", "line-digraph"])
    def test_csv_rejected_where_there_are_no_rows(self, capsys, claim):
        code, out, err = run(capsys, "verify", claim, "--n-max", "8", "--csv")
        assert code == 64
        assert out == ""
        assert err.startswith(f"error: verify {claim} has no CSV output")


class TestTable:
    def test_na_table(self, capsys):
        code, out, _ = run(capsys, "table", "na", "--k-max", "2")
        assert code == 0
        assert "pass" in out

    def test_mh_table_csv(self, capsys):
        code, out, _ = run(capsys, "table", "mh", "--k-max", "1", "--csv")
        assert code == 0
        assert "4.3,1,20,4,4,4" in out


def test_unknown_verb_exit_64(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 64
    assert "usage" in err
