import argparse
import ast
import contextlib
import csv
import gc
import glob
import io
import json
import os
import pickle
import random
import re
import shutil
import subprocess
import sys
import threading
from types import SimpleNamespace
from xml.etree import ElementTree

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import checkmate
from checkmate import cli, diffs, engine, frame, from_dict, results
from checkmate.charts import _BAR_COLORS
from checkmate.engine import RuleOutcome, check_that, confront
from checkmate.errors import DataError

from conftest import SAMPLE_DATA, SAMPLE_RULES, SAMPLE_V2


def _flags(command):
    """The flags ``command`` reads, as ``cli.COMMANDS`` lists them."""
    return cli.COMMANDS[command][1].split()


def _rules_args(command, rules):
    """``--rules rules`` for a command that reads a rule file, else nothing."""
    return ["--rules", rules] if "--rules" in _flags(command) else []


class TestIngestCsv:
    def write(self, tmp_path, text):
        p = tmp_path / "data.csv"
        p.write_text(text)
        return str(p)

    def test_type_inference(self, tmp_path):
        path = self.write(tmp_path, "n,s,b\n1,abc,true\n2.5,def,FALSE\n")
        df = cli.ingest_csv(path)
        assert [c.type for c in df.columns] == ["number", "text", "boolean"]
        assert list(df.column("n").values) == [1.0, 2.5]
        assert df.column("b").values == [True, False]

    def test_missing_tokens(self, tmp_path):
        path = self.write(tmp_path, "x,y\n1,4\n,5\nNA,6\n")
        df = cli.ingest_csv(path)
        assert df.column("x").cells() == [1.0, None, None]

    def test_numbers_with_missing_stay_numeric(self, tmp_path):
        path = self.write(tmp_path, "x\n1\nNA\n2\n")
        assert cli.ingest_csv(path).column("x").type == "number"

    def test_mixed_column_falls_back_to_text(self, tmp_path):
        path = self.write(tmp_path, "x\n1\nabc\n")
        df = cli.ingest_csv(path)
        assert df.column("x").type == "text"
        assert df.column("x").values == ["1", "abc"]

    def test_numbers_then_text_in_last_cell_is_text(self, tmp_path):
        path = self.write(tmp_path, "x,y\n1,a\nNA,b\n2.5,c\nabc,d\n")
        col = cli.ingest_csv(path).column("x")
        assert col.type == "text"
        assert col.values == ["1", "", "2.5", "abc"]
        assert col.missing == [False, True, False, False]

    def test_booleans_with_missing_stay_boolean(self, tmp_path):
        path = self.write(tmp_path, "b,n\nTRUE,1\nNA,2\nfalse,3\n,4\n")
        col = cli.ingest_csv(path).column("b")
        assert col.type == "boolean"
        assert col.values == [True, False, False, False]
        assert col.missing == [False, True, False, True]

    def test_all_missing_column_is_number(self, tmp_path):
        path = self.write(tmp_path, "x,y\nNA,1\n,2\n")
        col = cli.ingest_csv(path).column("x")
        assert (col.type, list(col.values), col.missing) == ("number", [0.0, 0.0], [True, True])

    def test_all_missing_column_gives_na_to_a_numeric_rule(self, tmp_path, capsys):
        path = self.write(tmp_path, "x,y\nNA,1\n,2\n")
        rules = tmp_path / "r.txt"
        rules.write_text("x > 0\n")
        out = tmp_path / "out.json"
        argv = ["check", path, "--rules", str(rules), "--format", "json", "--out", str(out)]
        assert cli.main(argv) == 0
        [row] = json.loads(out.read_text())["summary"]
        assert (row["items"], row["nNA"], row["error"]) == (2, 2, False)

    def test_header_only(self, tmp_path):
        path = self.write(tmp_path, "a,b\n")
        df = cli.ingest_csv(path)
        assert df.names == ["a", "b"] and df.n == 0
        assert [c.type for c in df.columns] == ["number", "number"]

    def test_ragged_row_reports_line(self, tmp_path):
        path = self.write(tmp_path, "a,b\n1,2\n3\n")
        with pytest.raises(DataError) as exc:
            cli.ingest_csv(path)
        assert "line 3" in str(exc.value)

    def test_ragged_row_after_multiline_field_reports_its_physical_line(self, tmp_path):
        path = self.write(tmp_path, 'a,b\n1,"x\ny"\n2,z,extra\n')
        with pytest.raises(DataError) as exc:
            cli.ingest_csv(path)
        assert str(exc.value) == f"{path}: line 4: expected 2 fields, got 3"

    @settings(derandomize=True, max_examples=150, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.lists(st.lists(st.lists(st.sampled_from(["a", ",", '"', "\n", "\r", "\r\n"]),
                                   max_size=3).map("".join), min_size=1, max_size=3),
                 min_size=1, max_size=5),
        st.sampled_from(["\n", "\r\n", "\r"]),
    )
    def test_ragged_row_line_is_where_the_csv_reader_starts_it(self, tmp_path, rows, eol):
        p = tmp_path / "data.csv"
        with open(p, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator=eol).writerows([["h1", "h2"], *rows, ["1", "2", "3"]])
        with open(p, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            next(reader)
            line = reader.line_num + 1
            for record in reader:
                if len(record) != 2:
                    break
                line = reader.line_num + 1
        with pytest.raises(DataError) as exc:
            cli.ingest_csv(str(p))
        assert str(exc.value) == f"{p}: line {line}: expected 2 fields, got {len(record)}"

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            cli.ingest_csv(str(tmp_path / "nope.csv"))

    def test_emit_ingest_round_trip(self, tmp_path, retailers):
        tokens = {None: "NA", True: "TRUE", False: "FALSE"}
        p = tmp_path / "copy.csv"
        with open(p, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(retailers.names)
            columns = [c.cells() for c in retailers.columns]
            for row in zip(*columns):
                writer.writerow([tokens.get(c, c) if type(c) is not float else repr(c)
                                 for c in row])
        again = cli.ingest_csv(str(p))
        assert again.names == retailers.names
        for name in retailers.names:
            assert again.column(name).type == retailers.column(name).type
            assert again.column(name).cells() == retailers.column(name).cells()

    def test_not_utf8_is_a_data_error(self, tmp_path, capsys):
        p = tmp_path / "latin.csv"
        p.write_bytes(b"x,y\n\xff\xfe,1\n")
        with pytest.raises(DataError, match="latin.csv"):
            cli.ingest_csv(str(p))
        assert cli.main(["check", str(p), "--rules", SAMPLE_RULES]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {p}: 'utf-8' codec can't decode")
        assert "Traceback" not in err

    def test_csv_error_is_a_data_error(self, tmp_path, capsys):
        p = tmp_path / "wide.csv"
        p.write_text("x\n" + "1" * (csv.field_size_limit() + 1) + "\n")
        assert cli.main(["check", str(p), "--rules", SAMPLE_RULES]) == 3
        assert capsys.readouterr().err == (
            f"error: cannot read {p}: field larger than field limit ({csv.field_size_limit()})\n"
        )

    @pytest.mark.parametrize("text", ["x\n1\n", "x\n1\n2,3\n", ""])
    def test_gc_state_of_the_caller_is_kept(self, tmp_path, text):
        path = self.write(tmp_path, text)
        for enabled in (False, True):
            (gc.enable if enabled else gc.disable)()
            try:
                cli.ingest_csv(path)
            except DataError:
                pass
            finally:
                assert gc.isenabled() is enabled
                gc.enable()

    def test_missing_cells_are_sorted_indices(self, tmp_path):
        path = self.write(tmp_path, "x,s,b\nNA,,TRUE\n1,a,\n,NA,NA\n")
        df = cli.ingest_csv(path)
        assert [(c.type, list(c.values), c.na) for c in df.columns] == [
            ("number", [0.0, 1.0, 0.0], (0, 2)),
            ("text", ["", "a", ""], (0, 2)),
            ("boolean", [True, False, False], (1, 2)),
        ]


class TestCsvHeader:
    @pytest.fixture
    def rules(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("x > 0\n")
        return str(path)

    def test_byte_order_mark_is_skipped(self, tmp_path, rules, capsys):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfid,x\na,1\nb,-1\n")
        assert cli.ingest_csv(str(path)).names == ["id", "x"]
        code = cli.main(["check", str(path), "--rules", rules, "--key", "id", "--format", "csv"])
        assert code == 1
        out, err = capsys.readouterr()
        assert err == "Confrontations: 1\nWith fails    : 1\nWarnings      : 0\nErrors        : 0\n"
        assert out == ("id,name,value,expression\na,V1,TRUE,(x - 0) > -1e-08\n"
                       "b,V1,FALSE,(x - 0) > -1e-08\n")

    def test_duplicate_column_is_named(self, tmp_path, rules, capsys):
        path = tmp_path / "dup.csv"
        path.write_text("id,x,x\na,1,2\n")
        with pytest.raises(DataError, match="^" + re.escape(f"{path}: duplicate column name 'x'") + "$"):
            cli.ingest_csv(str(path))
        assert cli.main(["check", str(path), "--rules", rules]) == 3
        assert capsys.readouterr() == ("", f"error: {path}: duplicate column name 'x'\n")

    def test_frame_names_the_first_name_taken_twice(self):
        columns = [checkmate.Column(n, "number", [1.0]) for n in ("a", "b", "c", "b", "a")]
        with pytest.raises(DataError, match="^duplicate column name 'a'$"):
            checkmate.DataFrame(columns)


class TestEmit:
    @pytest.fixture
    def validation(self, retailers, retailer_rules):
        from checkmate.engine import confront

        return confront(retailers, retailer_rules, key="id")

    def test_json_keys(self, validation):
        out = io.StringIO()
        cli.emit(validation, "json", out)
        payload = json.loads(out.getvalue())
        assert set(payload) == {"summary", "records"}
        assert len(payload["summary"]) == 6
        assert len(payload["records"]) == 301
        assert payload["records"][0]["id"] == "RET01"

    def test_csv_record_header(self, validation):
        out = io.StringIO()
        cli.emit(validation, "csv", out)
        lines = out.getvalue().splitlines()
        assert lines[0] == "id,name,value,expression"
        assert len(lines) == 302
        assert lines[1].startswith("RET01,st,")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("per_write", [1, 2, 59, 60, 61])
    def test_records_written_in_slices_are_the_same_bytes(self, validation, monkeypatch, fmt,
                                                          per_write):
        # 60 records per rule but one for the mean's; the default slice holds them all
        whole = io.StringIO()
        cli.emit(validation, fmt, whole)
        monkeypatch.setattr(cli, "_RECORDS_PER_WRITE", per_write)
        writes = []
        cli.emit(validation, fmt, SimpleNamespace(write=writes.append))
        assert "".join(writes) == whole.getvalue()
        records = [w for w in writes if "RET" in w]
        assert max(w.count("RET") for w in records) == min(per_write, 60)

    def test_text_table_alignment(self, validation):
        out = io.StringIO()
        cli.emit(validation, "text", out)
        lines = out.getvalue().splitlines()
        assert lines[0].split() == [
            "name", "items", "passes", "fails", "nNA", "error", "warning", "expression",
        ]
        assert len(lines) == 7

    def test_summary_csv(self, validation):
        out = io.StringIO()
        cli.emit_summary(validation, "csv", out)
        lines = out.getvalue().splitlines()
        assert lines[0] == "name,items,passes,fails,nNA,error,warning,expression"
        assert lines[1].startswith("st,60,54,0,6,FALSE,FALSE,")


def _reference_json(v):
    """The JSON emit as one json.dumps over every record, each a dict."""
    summary = [{h: getattr(r, h) for h in results.SummaryRow._fields} for r in results.summarize(v)]
    records = [
        {"id": r.id, "name": r.name, "value": r.value, "expression": r.expression}
        for r in results.to_records(v)
    ]
    return json.dumps({"summary": summary, "records": records}, indent=2) + "\n"


def _reference_csv(v):
    """The CSV emit as csv.writer over every record."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["id", "name", "value", "expression"])
    text = {True: "TRUE", False: "FALSE", None: "NA"}
    for r in results.to_records(v):
        writer.writerow(["NA" if r.id is None else r.id, r.name, text[r.value], r.expression])
    return out.getvalue()


def _assert_streams_match_reference(v):
    for fmt, reference in (("json", _reference_json), ("csv", _reference_csv)):
        out = io.StringIO()
        cli.emit(v, fmt, out)
        assert out.getvalue() == reference(v), fmt


AWKWARD_KEYS = ['say "hi"', "back\\slash", "a,b", "two\nlines", "caf\u00e9 \u2603", "\t", "NA"]

# record-aligned, dataset-level, aggregate and errored rules, with quotes in the expression
MIXED_RULES = (
    "x > 0", "nrow(.) >= 2", "mean(x, na.rm = TRUE) > 0", "y > 0", 'k %in% c("a,b", "\\\\")',
)


class TestStreamedEmit:
    @pytest.fixture
    def awkward(self):
        return from_dict({"k": AWKWARD_KEYS, "x": [1.0, -1.0, None, 2.0, 1.0, -1.0, None]})

    def test_sample_keyed_and_unkeyed(self, retailers, retailer_rules):
        _assert_streams_match_reference(confront(retailers, retailer_rules, key="id"))
        _assert_streams_match_reference(confront(retailers, retailer_rules))
        for settled in (True, False):  # na.value settles the NA cells
            v = confront(retailers, retailer_rules, key="id", opts={"na.value": settled})
            assert all(not o.na for o in v.outcomes)
            _assert_streams_match_reference(v)

    @pytest.mark.parametrize("key", ["k", None])
    def test_awkward_key_text_and_mixed_rules(self, awkward, key):
        v = check_that(awkward, *MIXED_RULES, key=key)
        assert [o.error is not None for o in v.outcomes] == [False, False, False, True, False]
        _assert_streams_match_reference(v)

    def test_dataset_rule_under_key_has_null_id(self, awkward):
        v = check_that(awkward, "x > 0", "nrow(.) >= 2", key="k")
        out = io.StringIO()
        cli.emit(v, "json", out)
        records = json.loads(out.getvalue())["records"]
        assert [r["id"] for r in records] == AWKWARD_KEYS + [None]
        _assert_streams_match_reference(v)

    def test_numeric_key(self):
        # ids as R's as.character prints the numbers: 15 significant digits, and
        # scientific notation when it is narrower
        keys = [1.0, 2.5, 30.0, 0.1 + 0.2, 1e15, 1.2345678901234568e17, 100000.0, 123456.0,
                0.0001, 0.001]
        xs = [1.0, None, -1.0] + [1.0] * 7
        v = check_that(from_dict({"k": keys, "x": xs}), "x > 0", key="k")
        assert v.key_values == ["1", "2.5", "30", "0.3", "1e+15", "1.23456789012346e+17",
                                "1e+05", "123456", "1e-04", "0.001"]
        _assert_streams_match_reference(v)

    def test_non_finite_numeric_key(self, tmp_path, capsys):
        # ids as R's as.character prints the numbers
        (tmp_path / "k.csv").write_text("k,x\n1,1\ninf,1\nnan,1\n1e20,1\n-inf,1\n")
        (tmp_path / "k.txt").write_text("x > 0\n")
        argv = ["check", str(tmp_path / "k.csv"), "--rules", str(tmp_path / "k.txt"), "--key", "k",
                "--format", "csv"]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        ids = [row["id"] for row in csv.DictReader(io.StringIO(out[out.index("id,"):]))]
        assert ids == ["1", "Inf", "NaN", "1e+20", "-Inf"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_boolean_key(self, tmp_path, capsys, fmt):
        # ids as R's as.character prints logicals, as the value column does
        (tmp_path / "k.csv").write_text("k,x\ntrue,1\nfalse,2\n")
        (tmp_path / "k.txt").write_text("x > 0\n")
        argv = ["check", str(tmp_path / "k.csv"), "--rules", str(tmp_path / "k.txt"), "--key", "k",
                "--format", fmt]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        body = out[out.index("id," if fmt == "csv" else "{"):]
        if fmt == "csv":
            ids = [row["id"] for row in csv.DictReader(io.StringIO(body))]
        else:
            ids = [row["id"] for row in json.loads(body)["records"]]
        assert ids == ["TRUE", "FALSE"]

    def test_every_rule_errored_gives_no_records(self):
        v = check_that(from_dict({"x": [1.0, 2.0]}), "y > 0", "z > 0")
        out = io.StringIO()
        cli.emit(v, "json", out)
        assert json.loads(out.getvalue())["records"] == []
        _assert_streams_match_reference(v)

    def test_empty_frame_gives_no_records(self):
        _assert_streams_match_reference(check_that(from_dict({"x": []}), "x > 0"))

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(
        st.lists(st.text(max_size=6), min_size=1, max_size=6),
        st.lists(st.sampled_from([1.0, -1.0, None]), min_size=6, max_size=6),
        st.sampled_from(["NA", True, False]),
    )
    def test_random_key_text(self, keys, xs, na_value):
        df = from_dict({"k": keys, "x": xs[: len(keys)]})
        for key in ("k", None):
            v = check_that(df, *MIXED_RULES, key=key, opts={"na.value": na_value})
            if na_value != "NA":  # na.value settles the NA cells
                assert all(not o.na for o in v.outcomes)
            _assert_streams_match_reference(v)

    def test_text_builds_no_records(self, monkeypatch, retailers, retailer_rules):
        v = confront(retailers, retailer_rules, key="id")

        def refuse(_):
            raise AssertionError("text emit must not build records")

        monkeypatch.setattr(results, "to_records", refuse)
        out = io.StringIO()
        cli.emit(v, "text", out)
        assert len(out.getvalue().splitlines()) == 7

    def test_emit_builds_no_tri_state_list(self, monkeypatch, retailers, retailer_rules):
        v = confront(retailers, retailer_rules, key="id")

        def emitted():
            outs = []
            for write in (cli.emit, cli.emit_summary):
                for fmt in ("csv", "json", "text"):
                    out = io.StringIO()
                    write(v, fmt, out)
                    outs.append(out.getvalue())
            return outs

        def refuse(_):
            raise AssertionError("emit must read values and na, not build tri-state lists")

        want = emitted()
        monkeypatch.setattr(RuleOutcome, "result", property(refuse))
        assert emitted() == want


@pytest.mark.parametrize(
    "argv, calls",
    [(["check", "--format", "text"], 1), (["check", "--format", "json"], 1),
     (["check", "--format", "csv"], 0), (["summary"], 1)],
    ids=["check-text", "check-json", "check-csv", "summary"],
)
def test_summarize_runs_once_per_report(monkeypatch, capsys, argv, calls):
    summarize, seen = results.summarize, []
    monkeypatch.setattr(results, "summarize", lambda v: seen.append(v) or summarize(v))
    argv = [argv[0], SAMPLE_DATA, "--rules", SAMPLE_RULES, "--key", "id", *argv[1:]]
    assert cli.main(argv) == 1
    assert len(seen) == calls


class TestCheckCommand:
    def test_exit_one_with_banner(self, capsys):
        code = cli.main(
            ["check", SAMPLE_DATA, "--rules", SAMPLE_RULES, "--key", "id"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "Confrontations: 6" in captured.out
        assert "With fails    : 2" in captured.out
        assert "Errors        : 0" in captured.out

    def test_json_on_standard_output_is_json_alone(self, capsys):
        argv = ["check", SAMPLE_DATA, "--rules", SAMPLE_RULES, "--key", "id", "--format", "json"]
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert len(json.loads(out)["summary"]) == 6
        assert err.startswith("Confrontations: 6\nWith fails    : 2\n")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_with_out_the_banner_stays_on_standard_output(self, tmp_path, capsys, fmt):
        out_file = tmp_path / f"out.{fmt}"
        argv = ["check", SAMPLE_DATA, "--rules", SAMPLE_RULES, "--format", fmt, "--out", str(out_file)]
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert (out.startswith("Confrontations: 6\n"), err) == (True, "")
        assert "Confrontations" not in out_file.read_text()

    def test_passes_give_exit_zero(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("x\n1\n2\n")
        rules = tmp_path / "r.txt"
        rules.write_text("x > 0\n")
        assert cli.main(["check", str(data), "--rules", str(rules)]) == 0

    def test_rule_file_with_byte_order_mark(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("x\n1\n2\n")
        rules = tmp_path / "r.txt"
        rules.write_bytes(b"\xef\xbb\xbfr1: x > 0\n")
        assert cli.main(["summary", str(data), "--rules", str(rules)]) == 0
        captured = capsys.readouterr()
        assert "r1" in captured.out and captured.err == ""

    def test_set_option_changes_outcome(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("x\n1\nNA\n")
        rules = tmp_path / "r.txt"
        rules.write_text("x > 0\n")
        assert cli.main(["check", str(data), "--rules", str(rules)]) == 0
        code = cli.main(
            ["check", str(data), "--rules", str(rules), "--set", "na.value=FALSE"]
        )
        assert code == 1

    def test_unknown_rule_variable_gives_exit_two(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("x\n1\n")
        rules = tmp_path / "r.txt"
        rules.write_text("y > 0\n")
        assert cli.main(["check", str(data), "--rules", str(rules)]) == 2

    def test_a_misused_function_gives_exit_two(self, tmp_path, capsys):
        rules = tmp_path / "r.txt"
        rules.write_text("is.na(.)\n")
        assert cli.main(["check", SAMPLE_DATA, "--rules", str(rules)]) == 2
        assert "Errors        : 1\n" in capsys.readouterr().out

    def test_strict_flags_unverifiable_only(self, tmp_path, capsys):
        # every result is NA: x is present but its comparison partner is missing
        data = tmp_path / "d.csv"
        data.write_text("x,y\n1,NA\nNA,2\n")
        rules = tmp_path / "r.txt"
        rules.write_text("x > y\n")
        assert cli.main(["check", str(data), "--rules", str(rules)]) == 0
        assert (
            cli.main(["check", str(data), "--rules", str(rules), "--strict"]) == 2
        )

    def test_missing_data_file_exit_three(self, tmp_path, capsys):
        assert cli.main(["check", "nope.csv", "--rules", SAMPLE_RULES]) == 3

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        cli.main(
            [
                "check", SAMPLE_DATA, "--rules", SAMPLE_RULES, "--key", "id",
                "--format", "json", "--out", str(out),
            ]
        )
        payload = json.loads(out.read_text())
        assert len(payload["summary"]) == 6

    def test_rules_path_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(cli.RULES_PATH_ENV, os.path.dirname(SAMPLE_RULES))
        code = cli.main(
            ["check", SAMPLE_DATA, "--rules", os.path.basename(SAMPLE_RULES)]
        )
        assert code == 1


class TestLintCommand:
    def test_clean_file(self, capsys):
        assert cli.main(["lint", "--rules", SAMPLE_RULES]) == 0
        assert "6 rule(s) parsed" in capsys.readouterr().out

    def test_non_validating_rule_exit_two(self, tmp_path, capsys):
        p = tmp_path / "r.txt"
        p.write_text("x > 0\nmean(x)\n")
        assert cli.main(["lint", "--rules", str(p)]) == 2
        assert "[002] mean(x)" in capsys.readouterr().err

    def test_cyclic_include_exit_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a.txt").write_text("---\ninclude: [b.txt]\n---\nx > 0\n")
        (tmp_path / "b.txt").write_text("---\ninclude: [a.txt]\n---\ny > 0\n")
        assert cli.main(["lint", "--rules", "a.txt"]) == 2

    def test_missing_file_exit_three(self, tmp_path, capsys):
        assert cli.main(["lint", "--rules", str(tmp_path / "nope.txt")]) == 3

    def test_parenthesized_rule_is_kept(self, tmp_path, capsys):
        p = tmp_path / "r.txt"
        p.write_text("(x > 0)\n")
        assert cli.main(["lint", "--rules", str(p)]) == 0
        assert capsys.readouterr() == ("1 rule(s) parsed\n", "")
        v = check_that(from_dict({"x": [1.0, -1.0]}), "(x > 0)")
        assert [(o.expression, o.result) for o in v.outcomes] == [("(x > 0)", [True, False])]

    @pytest.mark.parametrize(
        "name, text, where",
        [
            ("bad.txt", "x > 0\ny >\n", "bad.txt:2"),
            ("bad.yml", "rules:\n- expr: x > 0\n- expr: x >\n", "bad.yml: rule entry 2"),
        ],
    )
    def test_syntax_error_exit_two_names_location(self, tmp_path, capsys, name, text, where):
        p = tmp_path / name
        p.write_text(text)
        assert cli.main(["lint", "--rules", str(p)]) == 2
        assert where in capsys.readouterr().err


class TestRuleTextErrors:
    @pytest.mark.parametrize(
        "rule, message",
        [
            ("café > 0", "unexpected character 'é' (line 1, column 4)"),
            ("x > ²", "unexpected character '²' (line 1, column 5)"),
            ("(" * 2000 + "x" + ")" * 2000 + " > 0", "expression nested deeper than 150 levels"),
            ("!" * 2000 + "x", "expression nested deeper than 150 levels"),
            ("-" * 2000 + "x > 0", "expression nested deeper than 150 levels"),
            (" + ".join(["x"] * 3000) + " > 0", "expression nested deeper than 150 levels"),
        ],
        ids=["letter", "superscript", "parentheses", "not", "negate", "sum"],
    )
    def test_check_exits_three_and_lint_two(self, tmp_path, capsys, rule, message):
        data = tmp_path / "d.csv"
        data.write_text("x\n1\n")
        rules = tmp_path / "r.txt"
        rules.write_text(rule + "\n", encoding="utf-8")
        assert cli.main(["check", str(data), "--rules", str(rules)]) == 3
        assert capsys.readouterr().err == f"error: {rules}:1: {message}\n"
        assert cli.main(["lint", "--rules", str(rules)]) == 2
        assert capsys.readouterr().err == f"error: {rules}:1: {message}\n"

    def test_macros_nested_too_deep(self, tmp_path, capsys):
        # each body is within the limit; m2 and every later macro is not
        terms = " + ".join(["x"] * 139)
        lines = [f"m1 := x + {terms}"] + [f"m{k} := m{k - 1} + {terms}" for k in (2, 3, 4)]
        data = tmp_path / "d.csv"
        data.write_text("x\n1\n")
        rules = tmp_path / "r.txt"
        rules.write_text("\n".join([*lines, "m4 + m4 > 0"]) + "\n")
        assert cli.main(["check", str(data), "--rules", str(rules)]) == 3
        assert capsys.readouterr().err == "error: expression nested deeper than 150 levels\n"
        assert cli.main(["lint", "--rules", str(rules)]) == 2
        assert capsys.readouterr().err == "error: expression nested deeper than 150 levels\n"

    def test_macro_kept_by_functional_dependency_is_one_level(self, tmp_path, capsys):
        # the body is 150 levels deep; the dependency keeps the name m, inserting nothing
        data = tmp_path / "d.csv"
        data.write_text("m,x,z\n1,1,1\n2,1,2\n3,1,3\n")
        rules = tmp_path / "r.txt"
        rules.write_text("m := " + " + ".join(["x"] * 150) + "\nr: m ~ z\n")
        assert cli.main(["lint", "--rules", str(rules)]) == 0
        assert capsys.readouterr() == ("1 rule(s) parsed\n", "")
        out = tmp_path / "report.json"
        argv = ["check", str(data), "--rules", str(rules), "--format", "json", "--out", str(out)]
        assert cli.main(argv) == 0
        records = json.loads(out.read_text())["records"]
        assert [(r["name"], r["expression"]) for r in records] == [("r", "m ~ z")] * 3


class TestRuleFileValueTypes:
    """A rule-file value of the wrong YAML type, an option value that ``--set`` would
    reject, or YAML nested too deeply is a rule-file error naming the file."""

    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("r.yml", "rules: 5\n", "'rules' must be a list of mappings"),
            ("r.yml", "rules: abc\n", "'rules' must be a list of mappings"),
            ("r.yml", "include: 5\n", "'include' must be a file name or a list of them"),
            ("r.yml", "include: [5]\n", "'include' must be a file name or a list of them"),
            ("r.yml", "options: [1]\n", "'options' must be a mapping"),
            ("r.txt", "---\ninclude: 5\n---\nx > 0\n",
             "'include' must be a file name or a list of them"),
            ("r.txt", "---\noptions: [1]\n---\nx > 0\n", "'options' must be a mapping"),
            ("r.txt", "---\n5\n---\nx > 0\n", "expected a mapping in the front matter"),
            ("r.yml", "rules:\n- expr: x > 0\n  created: 5\n",
             "rule entry 1: bad 'created' timestamp: 5"),
            ("r.yml", "options:\n  lin.eq.eps: abc\nrules:\n- expr: x > 0\n",
             "lin.eq.eps must be a nonnegative number, got 'abc'"),
            ("r.txt", "---\noptions: {lin.eq.eps: abc}\n---\nx > 0\n",
             "lin.eq.eps must be a nonnegative number, got 'abc'"),
            ("r.txt", "---\noptions: {raise: never}\n---\nx > 0\n",
             "invalid value for raise: 'never'"),
            # the tab sends the text to the pure-Python loader, which recurses per level
            ("r.yml", "# a\tb\nrules: " + "[" * 3000 + "\n", "invalid YAML: nested too deeply"),
        ],
        ids=["rules", "rules-text", "include", "include-item", "options",
             "front-include", "front-options", "front-scalar", "created",
             "option-value", "front-option-value", "front-option-choice", "deep"],
    )
    def test_check_exits_three_and_lint_two(self, tmp_path, monkeypatch, capsys, name, text,
                                            message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d.csv").write_text("x\n1\n")
        (tmp_path / name).write_text(text)
        assert cli.main(["check", "d.csv", "--rules", name]) == 3
        assert capsys.readouterr() == ("", f"error: {name}: {message}\n")
        assert cli.main(["lint", "--rules", name]) == 2
        assert capsys.readouterr() == ("", f"error: {name}: {message}\n")


class TestYamlSyntaxErrors:
    """The pure-Python loader's message, with its source excerpt, is the one reported,
    whichever loader read the file first."""

    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("tab.yml", "rules:\n\t- expr: x > 0\n",
             "tab.yml: invalid YAML: while scanning for the next token\n"
             "found character '\\t' that cannot start any token\n"
             '  in "<unicode string>", line 2, column 1:\n'
             "    \t- expr: x > 0\n"
             "    ^\n"),
            ("quote.yml", 'rules:\n- expr: "x > 0\n',
             "quote.yml: invalid YAML: while scanning a quoted scalar\n"
             '  in "<unicode string>", line 2, column 9:\n'
             '    - expr: "x > 0\n'
             "            ^\n"
             "found unexpected end of stream\n"
             '  in "<unicode string>", line 3, column 1:\n'
             "    \n"
             "    ^\n"),
            ("indent.yml", "rules:\n  - expr: x > 0\n   name: a\n",
             "indent.yml: invalid YAML: while parsing a block collection\n"
             '  in "<unicode string>", line 2, column 3:\n'
             "      - expr: x > 0\n"
             "      ^\n"
             "expected <block end>, but found '<block mapping start>'\n"
             '  in "<unicode string>", line 3, column 4:\n'
             "       name: a\n"
             "       ^\n"),
            ("tab.txt", "---\ninclude:\n\t- a.txt\n---\nx > 0\n",
             "tab.txt: bad front matter: while scanning for the next token\n"
             "found character '\\t' that cannot start any token\n"
             '  in "<unicode string>", line 2, column 1:\n'
             "    \t- a.txt\n"
             "    ^\n"),
            ("quote.txt", '---\noptions: {raise: "none}\n---\nx > 0\n',
             "quote.txt: bad front matter: while scanning a quoted scalar\n"
             '  in "<unicode string>", line 1, column 18:\n'
             '    options: {raise: "none}\n'
             "                     ^\n"
             "found unexpected end of stream\n"
             '  in "<unicode string>", line 1, column 24:\n'
             '    options: {raise: "none}\n'
             "                           ^\n"),
            ("indent.txt", "---\noptions:\n  raise: none\n na.value: FALSE\n---\nx > 0\n",
             "indent.txt: bad front matter: while parsing a block mapping\n"
             '  in "<unicode string>", line 1, column 1:\n'
             "    options:\n"
             "    ^\n"
             "expected <block end>, but found '<block mapping start>'\n"
             '  in "<unicode string>", line 3, column 2:\n'
             "     na.value: FALSE\n"
             "     ^\n"),
        ],
        ids=["tab", "quote", "indent", "front-tab", "front-quote", "front-indent"],
    )
    def test_message_has_the_source_excerpt(self, tmp_path, monkeypatch, capsys, name, text,
                                            message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d.csv").write_text("x\n1\n")
        (tmp_path / name).write_text(text)
        assert cli.main(["check", "d.csv", "--rules", name]) == 3
        assert capsys.readouterr() == ("", f"error: {message}")
        assert cli.main(["lint", "--rules", name]) == 2
        assert capsys.readouterr() == ("", f"error: {message}")


class TestInfiniteLiteral:
    """A number literal past the float range is inf, rendered as 1e999."""

    @pytest.fixture
    def rules(self, tmp_path):
        p = tmp_path / "r.txt"
        p.write_text("big: x > 1e999999\nneg: x > -1e999999\n")
        return p

    def test_check_lint_and_export_exit_codes(self, tmp_path, rules, capsys):
        data = tmp_path / "d.csv"
        data.write_text("x\n1\n")
        assert cli.main(["check", str(data), "--rules", str(rules)]) == 1
        assert "(x - 1e999) > -1e-08" in capsys.readouterr().out
        assert cli.main(["lint", "--rules", str(rules)]) == 0
        for name in ("r.yml", "r.csv", "r2.txt"):
            assert cli.main(["export", "--rules", str(rules), "--out", str(tmp_path / name)]) == 0
        assert "Traceback" not in capsys.readouterr().err

    def test_yaml_export_round_trip(self, tmp_path, rules, capsys):
        from checkmate import rule_io

        out = tmp_path / "r.yml"
        assert cli.main(["export", "--rules", str(rules), "--out", str(out)]) == 0
        assert "expr: x > 1e999\n" in out.read_text()
        before, _ = rule_io.read_rules(str(rules))
        after, _ = rule_io.read_rules(str(out))
        assert [r.body for r in after.rules] == [r.body for r in before.rules]


class TestExportCommand:
    def test_yaml(self, tmp_path, capsys):
        out = tmp_path / "rules.yml"
        assert cli.main(["export", "--rules", SAMPLE_RULES, "--out", str(out)]) == 0
        from checkmate import rule_io

        rs, _ = rule_io.read_rules(str(out))
        assert rs.names() == ["st", "to", "or", "st.cs", "bl", "mn"]

    def test_csv_table(self, tmp_path, capsys):
        out = tmp_path / "rules.csv"
        assert cli.main(["export", "--rules", SAMPLE_RULES, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "name,rule,label,description,origin,created"
        assert len(lines) == 7

    def test_text(self, tmp_path, capsys):
        out = tmp_path / "rules.txt"
        assert cli.main(["export", "--rules", SAMPLE_RULES, "--out", str(out)]) == 0
        text = out.read_text()
        assert "st: (staff - 0) >= -1e-08" not in text  # no rewriting on export
        assert "st: staff >= 0" in text

    def test_text_export_reimports(self, tmp_path, capsys):
        out = tmp_path / "rules.txt"
        cli.main(["export", "--rules", SAMPLE_RULES, "--out", str(out)])
        from checkmate import rule_io

        rs, warnings = rule_io.read_rules(str(out))
        assert not warnings
        assert rs.names() == ["st", "to", "or", "st.cs", "bl", "mn"]

    def test_text_export_keeps_the_options(self, tmp_path, capsys):
        rules = tmp_path / "r.yml"
        rules.write_text("options:\n  lin.eq.eps: 0.5\nrules:\n- expr: x == y\n  name: r1\n")
        data = tmp_path / "d.csv"
        data.write_text("x,y\n1,1.2\n1,2\n")
        out = tmp_path / "r.txt"
        assert cli.main(["export", "--rules", str(rules), "--out", str(out)]) == 0
        capsys.readouterr()
        for path in (rules, out):
            assert cli.main(["summary", str(data), "--rules", str(path), "--format", "csv"]) == 1
            assert "r1,2,1,1,0,FALSE,FALSE,abs(x - y) < 0.5" in capsys.readouterr().out

    def test_text_export_refuses_what_text_cannot_hold(self, tmp_path, capsys):
        rules = tmp_path / "r.yml"  # a block scalar holds a line break inside the string
        rules.write_text('rules:\n- expr: |\n    x == "a\n    b"\n  name: r1\n')
        out = tmp_path / "n.txt"
        assert cli.main(["export", "--rules", str(rules), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"error: {out}: rule 'r1' cannot be written to a text rule file: its text holds a "
            "line break; export to .yaml instead\n"
        )
        assert not out.exists()


class TestCompareCommands:
    @pytest.fixture
    def two_versions(self, tmp_path):
        v1 = tmp_path / "v1.csv"
        v1.write_text("x\n1\n-1\nNA\n")
        v2 = tmp_path / "v2.csv"
        v2.write_text("x\n1\n1\n-1\n")
        rules = tmp_path / "r.txt"
        rules.write_text("x >= 0\n")
        return str(v1), str(v2), str(rules)

    def test_compare_csv_output(self, two_versions, capsys):
        v1, v2, rules = two_versions
        code = cli.main(["compare", v1, v2, "--rules", rules, "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "status,v1,v2"
        rows = {line.split(",")[0]: line.split(",")[1:] for line in lines[1:]}
        assert rows["validations"] == ["3", "3"]
        assert rows["new_satisfied"] == ["0", "1"]
        assert rows["new_violated"] == ["0", "1"]

    def test_cells_json_output(self, two_versions, capsys):
        v1, v2, _ = two_versions
        assert cli.main(["cells", v1, v2, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        rows = {r["status"]: r for r in payload["statuses"]}
        assert rows["cells"]["v2"] == 3
        assert rows["imputed"]["v2"] == 1
        assert rows["adapted"]["v2"] == 1

    @pytest.fixture
    def status_and_b(self, tmp_path):
        """Two versions, the first named like the status column, and a rule file."""
        for name in ("status", "b"):
            (tmp_path / f"{name}.csv").write_text("x\n1\n-1\n")
        (tmp_path / "r.txt").write_text("x >= 0\n")
        return [str(tmp_path / "status.csv"), str(tmp_path / "b.csv")], str(tmp_path / "r.txt")

    @pytest.mark.parametrize("fmt", ["csv", "json", "text"])
    @pytest.mark.parametrize("command", ["compare", "cells"])
    def test_version_named_status_exit_three(self, status_and_b, capsys, command, fmt):
        # its counts would take the place of the status names
        data, rules = status_and_b
        assert cli.main([command, *data, *_rules_args(command, rules), "--format", fmt]) == 3
        assert capsys.readouterr() == (
            "", "error: a version named 'status' would share the name of the status column\n"
        )

    @pytest.mark.parametrize("command", ["compare", "cells"])
    def test_version_named_status_leaves_out_as_it_was(
        self, status_and_b, tmp_path, capsys, command
    ):
        data, rules = status_and_b
        out = tmp_path / "o.csv"
        out.write_bytes(b"keep\n")
        assert cli.main([command, *data, *_rules_args(command, rules), "--out", str(out)]) == 3
        assert out.read_bytes() == b"keep\n"

    @pytest.mark.parametrize("versions", [1, 2])
    def test_plot_of_a_version_named_status(self, status_and_b, tmp_path, versions):
        data, rules = status_and_b
        out = tmp_path / "chart.svg"
        assert cli.main(["plot", *data[:versions], "--rules", rules, "--out", str(out)]) == 0
        assert out.read_text().startswith("<svg")

    def test_compare_needs_two_files(self, two_versions, capsys):
        v1, _, rules = two_versions
        assert cli.main(["compare", v1, "--rules", rules]) == 3

    @pytest.mark.parametrize(
        "command, versions",
        [("compare", 2), ("plot", 2), ("plot", 1), ("check", 1), ("summary", 1), ("export", 0)],
    )
    def test_rule_file_warnings_reach_stderr(
        self, two_versions, tmp_path, capsys, command, versions
    ):
        *data, rules = two_versions
        with open(rules, "a") as fh:
            fh.write("bad: x + 1\n")
        out = str(tmp_path / "out.txt")
        cli.main([command, *data[:versions], "--rules", rules, "--out", out])
        err = capsys.readouterr().err
        assert "Invalid syntax detected" in err
        assert "[002] x + 1" in err


def _reference_status_table(table, fmt):
    """The status table as the writer over one dict per row wrote it, which
    keyed each row by "status" and by the version names."""
    rows = []
    for status in table.statuses:
        row = {"status": status}
        for i, version in enumerate(table.version_names):
            row[version] = table.counts[status][i]
        rows.append(row)
    header = ["status"] + list(table.version_names)
    out = io.StringIO()
    if fmt == "json":
        json.dump({"statuses": rows}, out, indent=2)
        out.write("\n")
    elif fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([row[h] for h in header])
    else:
        cells = [[str(row[h]) for h in header] for row in rows]
        widths = [max([len(h)] + [len(r[i]) for r in cells]) for i, h in enumerate(header)]
        out.write("  ".join(h.rjust(w) for h, w in zip(header, widths)).rstrip() + "\n")
        for r in cells:
            out.write("  ".join(c.rjust(w) for c, w in zip(r, widths)).rstrip() + "\n")
    return out.getvalue()


AWKWARD_VERSIONS = [",", 'say "hi"', "two\nlines", "caf\u00e9 \u2603", "NA", " v ", ""]


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(
    st.lists(
        st.sampled_from(AWKWARD_VERSIONS) | st.text(max_size=6).filter(lambda t: t != "status"),
        min_size=1, max_size=5, unique=True,
    ),
    st.sampled_from([diffs.VALIDATION_STATUSES, diffs.CELL_STATUSES]),
    st.data(),
)
def test_status_table_matches_the_dict_row_writer(versions, statuses, data):
    counts = {
        s: data.draw(st.lists(st.integers(0, 10**9), min_size=len(versions), max_size=len(versions)))
        for s in statuses
    }
    table = diffs.StatusTable(statuses, versions, counts, "sequential")
    for fmt in ("csv", "json", "text"):
        out = io.StringIO()
        cli.emit(table, fmt, out)
        assert out.getvalue() == _reference_status_table(table, fmt), fmt


class TestPlotCommand:
    def test_bar_chart(self, tmp_path, capsys):
        out = tmp_path / "chart.svg"
        code = cli.main(
            ["plot", SAMPLE_DATA, "--rules", SAMPLE_RULES, "--out", str(out)]
        )
        assert code == 0
        svg = out.read_text()
        assert svg.startswith("<svg")
        for color in _BAR_COLORS:
            assert color in svg

    def test_line_chart(self, tmp_path, capsys):
        v1 = tmp_path / "v1.csv"
        v1.write_text("x\n1\n-1\n")
        v2 = tmp_path / "v2.csv"
        v2.write_text("x\n1\n1\n")
        rules = tmp_path / "r.txt"
        rules.write_text("x >= 0\n")
        out = tmp_path / "chart.svg"
        code = cli.main(
            ["plot", str(v1), str(v2), "--rules", str(rules), "--out", str(out)]
        )
        assert code == 0
        assert "<polyline" in out.read_text()

    def test_a_rule_name_is_escaped(self, tmp_path, capsys):
        rules = tmp_path / "r.yml"
        rules.write_text(
            'rules:\n- expr: staff >= 0\n  name: "a<b & c"\n'
            '- expr: turnover >= 0\n  name: "d>e"\n'
        )
        out = tmp_path / "chart.svg"
        assert cli.main(["plot", SAMPLE_DATA, "--rules", str(rules), "--out", str(out)]) == 0
        ElementTree.parse(out)
        svg = out.read_text()
        assert ">a&lt;b &amp; c</text>" in svg and ">d&gt;e</text>" in svg

    def test_version_names_are_escaped(self, tmp_path, capsys):
        data = [str(tmp_path / "R&D.csv"), str(tmp_path / "v<2.csv")]
        for path in data:
            shutil.copy(SAMPLE_DATA, path)
        out = tmp_path / "chart.svg"
        assert cli.main(["plot", *data, "--rules", SAMPLE_RULES, "--out", str(out)]) == 0
        ElementTree.parse(out)
        svg = out.read_text()
        assert ">R&amp;D</text>" in svg and ">v&lt;2</text>" in svg


CHECK = [SAMPLE_DATA, "--rules", SAMPLE_RULES]


# a command line of each command that writes --out, by test id
OUT_COMMANDS = {
    "check": ["check", *CHECK],
    "check-csv": ["check", *CHECK, "--format", "csv"],
    "check-json": ["check", *CHECK, "--format", "json"],  # more than one buffer's worth
    "summary": ["summary", *CHECK],
    "compare": ["compare", SAMPLE_DATA, SAMPLE_V2, "--rules", SAMPLE_RULES],
    "cells": ["cells", SAMPLE_DATA, SAMPLE_V2],
    "plot": ["plot", *CHECK],
    "plot-versions": ["plot", SAMPLE_DATA, SAMPLE_V2, "--rules", SAMPLE_RULES],
    "export": ["export", "--rules", SAMPLE_RULES],
}


@pytest.mark.parametrize("argv", OUT_COMMANDS.values(), ids=list(OUT_COMMANDS))
def test_out_into_missing_directory_exit_three(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "out.txt"
    assert cli.main([*argv, "--out", str(target)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {target}: ")
    assert "Traceback" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("argv", OUT_COMMANDS.values(), ids=list(OUT_COMMANDS))
def test_out_to_a_full_device_exit_three(capsys, argv):
    # the device opens but fails every write: at a write past the buffer, or at
    # the flush on close for a smaller output
    assert cli.main([*argv, "--out", "/dev/full"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write /dev/full: ") and err.count("\n") == 1


@pytest.fixture(params=[True, False], ids=["unbuffered", "buffered"])
def stdio_env(request):
    """This process's environment with PYTHONUNBUFFERED set, or unset (as users
    normally run): unset, a failed write may only show at a flush."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if request.param:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@contextlib.contextmanager
def _closed_pipe():
    """The write end of a pipe whose read end is closed already, so that every
    write to it fails and none races a reader."""
    r, w = os.pipe()
    os.close(r)
    try:
        yield w
    finally:
        os.close(w)


class TestFailedWriteToStandardStreams:
    """A failed write to standard output or error is exit 3, whether or not the
    streams are buffered; a child process, as in-process capsys has no descriptor."""

    CHECK_JSON = ["check", SAMPLE_DATA, "--rules", SAMPLE_RULES, "--format", "json"]

    def run(self, argv, env, **streams):
        return _python("-m", "checkmate.cli", *argv, env=env, **streams)

    def assert_one_error_line(self, proc):
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("error: cannot write standard output: ")
        assert proc.stderr.count("\n") == 1 and "Exception ignored" not in proc.stderr

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
    @pytest.mark.parametrize(
        "argv", [["summary", SAMPLE_DATA, "--rules", SAMPLE_RULES], ["lint", "--rules", SAMPLE_RULES]],
        ids=["summary", "lint"],
    )
    def test_stdout_to_a_full_device(self, stdio_env, argv):
        with open("/dev/full", "w") as full:
            self.assert_one_error_line(self.run(argv, stdio_env, stdout=full))

    def test_stdout_into_a_closed_pipe(self, stdio_env):
        with _closed_pipe() as w:
            proc = self.run(self.CHECK_JSON, stdio_env, stdout=w)
        # standard output holds the JSON alone, so the banner went to standard error
        banner = "Confrontations: 6\nWith fails    : 2\nWarnings      : 0\nErrors        : 0\n"
        assert proc.stderr.startswith(banner)
        proc.stderr = proc.stderr[len(banner):]
        self.assert_one_error_line(proc)

    def test_stdout_and_stderr_into_a_closed_pipe(self, stdio_env):
        with _closed_pipe() as w:
            assert self.run(self.CHECK_JSON, stdio_env, stdout=w, stderr=w).returncode == 3

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
    @pytest.mark.parametrize(
        "argv, stream",
        [(["--help"], "stdout"), (["check", "-h"], "stdout"), (["bogus"], "stderr"),
         (["check", "--format", "xml"], "stderr")],
        ids=["help", "command help", "unknown command", "bad choice"],
    )
    def test_argparse_output_to_a_full_device(self, stdio_env, argv, stream):
        with open("/dev/full", "w") as full:
            proc = self.run(argv, stdio_env, **{stream: full})
        assert proc.returncode == 3
        assert (proc.stdout or "") + (proc.stderr or "") == ""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
    def test_stderr_to_a_full_device(self, stdio_env):
        argv = ["check", "nope.csv", "--rules", SAMPLE_RULES]
        with open("/dev/full", "w") as full:
            proc = self.run(argv, stdio_env, stderr=full)
        assert (proc.returncode, proc.stdout) == (3, "")


class TestVersionNames:
    @pytest.mark.parametrize("command", ["compare", "cells", "plot"])
    def test_two_files_with_one_name_exit_three(self, tmp_path, capsys, command):
        first, second = tmp_path / "d1" / "v.csv", tmp_path / "d2" / "v.csv"
        for path in (first, second):
            path.parent.mkdir()
            path.write_text("x\n1\n")
        out = tmp_path / "out.txt"
        argv = [command, str(first), str(second), *_rules_args(command, SAMPLE_RULES),
                "--out", str(out)]
        assert cli.main(argv) == 3
        assert capsys.readouterr() == (
            "", f"error: data files {first} and {second} share the version name 'v'\n"
        )
        assert not out.exists()


class TestNodeLimit:
    @pytest.fixture
    def rules(self, tmp_path):
        uses = [", ".join([name] * 140) for name in ("x", "m1", "m2")]
        path = tmp_path / "r.txt"
        path.write_text(
            f"m1 := c({uses[0]})\nm2 := c({uses[1]})\nm3 := c({uses[2]})\nall(m3 > 0)\n"
        )
        return str(path)

    def test_check_exit_three(self, rules, capsys):
        assert cli.main(["check", SAMPLE_DATA, "--rules", rules]) == 3
        assert capsys.readouterr().err == "error: expression expands to more than 100000 nodes\n"

    def test_lint_exit_two(self, rules, capsys):
        assert cli.main(["lint", "--rules", rules]) == 2
        assert capsys.readouterr() == ("", "error: expression expands to more than 100000 nodes\n")


class TestInternalError:
    def test_exit_four_on_one_line(self, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise ZeroDivisionError("float division by zero")

        monkeypatch.setattr(engine, "confront_csv", broken)
        assert cli.main(["check", SAMPLE_DATA, "--rules", SAMPLE_RULES]) == 4
        assert capsys.readouterr() == (
            "", "error: internal: ZeroDivisionError: float division by zero\n"
        )


# tokens of the rule language, and words next to it
ATOMS = ["x", "y", "s", "m", "G", "0", "2.5", "1e400", "NA", "TRUE", "'a'", '"[[a]"']
OPERATORS = ["+", "-", "*", "/", "^", "<", "<=", "==", "!=", ">=", ">", "%in%", "&", "|"]
FUNCTIONS = ["mean", "sum", "median", "cor", "abs", "grepl", "all", "any", "is.na",
             "is.numeric", "c", "var_group", "nrow", "names", "duplicated", "is_unique",
             "is_complete", "all_complete"]
RULE_TOKENS = [*ATOMS, *OPERATORS, *FUNCTIONS, "FALSE", "!", "~", ":=", "=", "(", ")", ",", ".",
               ":", "if", "na.rm", "#", "---", "é", '"']
CSV_CELLS = ["NA", "", "nan", "inf", "1e400", "1_000", "é", '"', '"a,b"', "1", "-2.5", "0",
             "TRUE", "false", "abc"]

# well-formed rules, which mostly get as far as evaluation
_EXPRESSIONS = st.recursive(
    st.sampled_from(ATOMS),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(OPERATORS), inner).map(" ".join),
        st.tuples(st.sampled_from(FUNCTIONS), st.lists(inner, max_size=2)).map(
            lambda call: f"{call[0]}({', '.join(call[1])})"
        ),
        st.tuples(inner, inner).map(lambda parts: "if ({}) {}".format(*parts)),
    ),
    max_leaves=6,
)
RULE_LINES = st.one_of(
    _EXPRESSIONS,
    st.sampled_from(
        ["m := x / y", "G := var_group(x, y)", "x + s ~ y", "mean(x, na.rm = TRUE) > 0"]
    ),
    st.lists(st.sampled_from(RULE_TOKENS), min_size=1, max_size=6).map(" ".join),
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(
    rule_text=st.lists(RULE_LINES, max_size=4).map("\n".join),
    rows=st.lists(st.lists(st.sampled_from(CSV_CELLS), min_size=3, max_size=3), max_size=4),
)
def test_random_input_gets_a_documented_exit_code(fuzz_dir, rule_text, rows):
    data, rules = str(fuzz_dir / "data.csv"), str(fuzz_dir / "rules.txt")
    with open(data, "w", encoding="utf-8") as fh:
        fh.write("".join(",".join(row) + "\n" for row in [["x", "y", "s"], *rows]))
    with open(rules, "w", encoding="utf-8") as fh:
        fh.write(rule_text)
    for argv in (
        ["check", data, "--rules", rules, "--format", "json"],
        ["summary", data, "--rules", rules, "--key", "x", "--format", "csv"],
        ["lint", "--rules", rules],
    ):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        assert code in (0, 1, 2, 3), (argv[0], stderr.getvalue())


class TestSetOption:
    def test_compare_honours_na_value(self, tmp_path, capsys):
        v1 = tmp_path / "v1.csv"
        v1.write_text("x\n1\nNA\n")
        v2 = tmp_path / "v2.csv"
        v2.write_text("x\n-1\nNA\n")
        rules = tmp_path / "r.txt"
        rules.write_text("x > 0\n")

        def counts(*extra):
            argv = ["compare", str(v1), str(v2), "--rules", str(rules), "--format", "json"]
            assert cli.main(argv + list(extra)) == 0
            rows = json.loads(capsys.readouterr().out)["statuses"]
            return {r["status"]: (r["v1"], r["v2"]) for r in rows}

        plain = counts()
        forced = counts("--set", "na.value=FALSE")
        assert plain["unverifiable"] == (1, 1) and plain["violated"] == (0, 1)
        assert forced["unverifiable"] == (0, 0) and forced["violated"] == (1, 2)

    @pytest.mark.parametrize(
        "argv",
        [["lint", "--rules", SAMPLE_RULES]],
        ids=["lint"],
    )
    def test_invalid_value_exit_three_everywhere(self, argv, capsys):
        # lint confronts no data but checks every value; the commands that
        # apply no option refuse --set (TestFlags)
        assert cli.main([*argv, "--set", "lin.eq.eps=abc"]) == 3
        assert "error: lin.eq.eps must be a nonnegative number" in capsys.readouterr().err

    def test_unknown_option_exit_three(self, capsys):
        assert cli.main(["lint", "--rules", SAMPLE_RULES, "--set", "no.such=1"]) == 3
        assert "error: unknown option 'no.such'" in capsys.readouterr().err


class TestUsage:
    def test_unknown_command(self, capsys):
        assert cli.main(["frobnicate"]) == 3

    def test_check_without_rules(self, capsys):
        assert cli.main(["check", SAMPLE_DATA]) == 3

    def test_bad_set_syntax(self, capsys):
        assert (
            cli.main(["check", SAMPLE_DATA, "--rules", SAMPLE_RULES, "--set", "oops"])
            == 3
        )

    def test_bad_set_number(self, capsys):
        argv = ["check", SAMPLE_DATA, "--rules", SAMPLE_RULES, "--set", "lin.eq.eps=abc"]
        assert cli.main(argv) == 3
        assert "error: lin.eq.eps must be a nonnegative number" in capsys.readouterr().err

    def test_bad_created_timestamp_exit_three(self, tmp_path, capsys):
        rules = tmp_path / "r.yml"
        rules.write_text("rules:\n- expr: staff >= 0\n  created: yesterday\n")
        assert cli.main(["check", SAMPLE_DATA, "--rules", str(rules)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "r.yml: rule entry 1" in err


class TestFlags:
    """Each command takes exactly the flags ``cli.COMMANDS`` lists for it; any
    other is a usage error before anything is read or written."""

    # the flags each command does not read
    DROPPED = [(c, f) for c in cli.COMMANDS for f in cli._FLAGS if f not in _flags(c)]

    @staticmethod
    def args(flag, command, out):
        """The arguments that give ``flag`` to ``command`` a value it can run with;
        a command that compares versions (``--how``) gets two data files."""
        return {
            "data": [SAMPLE_DATA, SAMPLE_V2] if "--how" in _flags(command) else [SAMPLE_DATA],
            "--rules": ["--rules", SAMPLE_RULES],
            "--key": ["--key", "id"],
            "--format": ["--format", "json"],
            "--out": ["--out", str(out)],
            "--set": ["--set", "na.value=FALSE"],
            "--how": ["--how", "to_first"],
            "--strict": ["--strict"],
        }[flag]

    def argv(self, command, out):
        """A command line of ``command`` that gives every flag it reads."""
        return [command, *(a for f in _flags(command) for a in self.args(f, command, out))]

    def test_subparsers_offer_the_table(self):
        actions = cli.build_parser()._actions
        (commands,) = [a.choices for a in actions if isinstance(a, argparse._SubParsersAction)]
        assert list(commands) == list(cli.COMMANDS)
        for name, sub in commands.items():
            offered = [(a.option_strings or [a.dest])[0] for a in sub._actions if a.dest != "help"]
            assert offered == _flags(name), name

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_every_flag_read_runs(self, tmp_path, capsys, command):
        out = tmp_path / "out.txt"
        assert cli.main(self.argv(command, out)) in (0, 1)
        assert out.exists() == ("--out" in _flags(command))

    @pytest.mark.parametrize("command, flag", DROPPED, ids=[f"{c}:{f}" for c, f in DROPPED])
    def test_flag_not_read_exit_three(self, tmp_path, capsys, command, flag):
        out = tmp_path / "out.txt"
        extra = self.args(flag, command, out)
        assert cli.main([*self.argv(command, out), *extra]) == 3
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert f"error: unrecognized arguments: {' '.join(extra)}\n" in stderr
        assert not out.exists()

    def test_readme_table_is_the_table(self):
        with open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8") as fh:
            rows = [line.strip().strip("|").split("|") for line in fh if line.startswith("  |")]
        header = [cell.strip(" `") for cell in rows[0][1:]]
        assert header == list(cli._FLAGS)
        table = {row[0].strip(" `"): [f for f, cell in zip(header, row[1:]) if cell.strip()]
                 for row in rows[2:]}
        assert table == {c: _flags(c) for c in cli.COMMANDS}


SRC = os.path.dirname(os.path.dirname(checkmate.__file__))


def _python(*args, env=None, **streams):
    """``python args`` with the package importable, in ``env`` (by default this
    process's environment); stdout and stderr are captured unless ``streams``
    sends them elsewhere."""
    env = dict(os.environ if env is None else env, PYTHONPATH=SRC)
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **streams}
    return subprocess.run([sys.executable, *args], env=env, text=True, timeout=60, **streams)


# the modules that read or apply rules, which a command that reads none need not load
RULE_MODULES = ("checkmate.engine", "checkmate.dsl", "checkmate.rules", "checkmate.rule_io")


class TestPackaging:
    def test_module_entry_point_runs_without_warnings(self):
        # the CLI is imported once, by runpy, which would warn had the package imported it first
        proc = _python("-W", "error", "-m", "checkmate.cli", "--help")
        assert proc.returncode == 0, proc.stderr

    def test_cli_import_leaves_yaml_unloaded(self):
        proc = _python("-c", "import sys, checkmate.cli; print('yaml' in sys.modules)")
        assert proc.stdout.strip() == "False", proc.stderr

    def test_package_import_leaves_cli_unloaded(self):
        proc = _python("-c", "import sys, checkmate; print('checkmate.cli' in sys.modules)")
        assert proc.stdout.strip() == "False", proc.stderr

    def test_no_public_name_imports_the_cli(self):
        proc = _python(
            "-c",
            "import sys, checkmate\n"
            "for name in checkmate.__all__:\n"
            "    getattr(checkmate, name)\n"
            "print('checkmate.cli' in sys.modules)",
        )
        assert proc.stdout.strip() == "False", proc.stderr

    def test_cli_import_leaves_unused_modules_unloaded(self):
        # each costs start-up that a command which does not use it would pay
        unused = ("dataclasses", "inspect", "statistics", "json", "checkmate.diffs",
                  "checkmate.results", "checkmate.charts", *RULE_MODULES)
        proc = _python(
            "-c", f"import sys, checkmate.cli; print([m for m in {unused!r} if m in sys.modules])"
        )
        assert proc.stdout.strip() == "[]", proc.stderr

    @pytest.mark.parametrize("cpus", [1, 2], ids=["in-process", "workers"])
    def test_cells_loads_no_rule_module(self, tmp_path, cpus):
        # cells reads no rule, so it pays the start-up of none of the rule modules
        paths = []
        for i in range(1, 3):
            paths.append(str(tmp_path / f"v{i}.csv"))
            with open(paths[-1], "w") as fh:
                fh.write("x,y\n1,a\n2,NA\n")
        proc = _python(
            "-c",
            "import os, sys\n"
            "from checkmate import cli\n"
            f"cli._usable_cpus = lambda: {cpus}\n"
            "code = cli.main(['cells', *sys.argv[1:], '--out', os.devnull])\n"
            f"print(code, [m for m in {RULE_MODULES!r} if m in sys.modules])",
            *paths,
        )
        assert proc.stdout.strip() == "0 []", proc.stderr

    def test_cells_refuses_set_before_loading_a_rule_module(self, tmp_path):
        # cells applies no option, so a --set is a usage error, not a value to check
        out = tmp_path / "out.txt"
        proc = _python(
            "-c",
            "import sys\n"
            "from checkmate import cli\n"
            "code = cli.main(['cells', *sys.argv[1:]])\n"
            f"print(code, [m for m in {RULE_MODULES!r} if m in sys.modules])",
            SAMPLE_DATA, SAMPLE_V2, "--set", "raise=error", "--out", str(out),
        )
        assert proc.stdout.strip() == "3 []", proc.stderr
        assert "error: unrecognized arguments: --set raise=error\n" in proc.stderr
        assert not out.exists()

    def test_package_import_loads_no_submodule(self):
        proc = _python(
            "-c",
            "import sys, checkmate; print([m for m in sys.modules if m.startswith('checkmate.')])",
        )
        assert proc.stdout.strip() == "[]", proc.stderr

    def test_public_names_resolve(self):
        proc = _python(
            "-c",
            "import checkmate\n"
            "names = {n: getattr(checkmate, n) for n in checkmate.__all__}\n"
            "assert set(checkmate.__all__) <= set(dir(checkmate))\n"
            "scope = {}\n"
            "exec('from checkmate import *', scope)\n"
            "assert all(scope[n] is names[n] for n in checkmate.__all__)\n"
            "print(len(names))",
        )
        assert proc.stdout.strip() == str(len(checkmate.__all__)), proc.stderr

    def test_sources_parse_as_python_3_10(self):
        # the oldest Python that pyproject.toml admits; the grammar check is best-effort
        paths = sorted(glob.glob(os.path.join(SRC, "checkmate", "*.py")))
        assert paths
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                ast.parse(fh.read(), path, feature_version=(3, 10))

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            checkmate.nope


@pytest.fixture
def four_files(tmp_path):
    paths = []
    for i, text in enumerate(["x\n1\n", "x\n1\n2,3\n", "x\n2\n", "x\n4,5\n"], start=1):
        path = tmp_path / f"v{i}.csv"
        path.write_text(text)
        paths.append(str(path))
    rules = tmp_path / "r.txt"
    rules.write_text("x >= 0\n")
    return paths, str(rules)


class TestPerVersionWorkers:
    """``compare``, ``cells`` and multi-version ``plot`` read (and confront) the
    versions in worker processes when there is more than one usable CPU."""

    @pytest.mark.parametrize("cpus", [1, 2], ids=["in-process", "workers"])
    @pytest.mark.parametrize("command", ["compare", "cells", "plot"])
    def test_first_bad_file_is_reported(self, four_files, tmp_path, usable_cpus, capsys,
                                        command, cpus):
        usable_cpus(cpus)
        paths, rules = four_files
        out = tmp_path / "out.svg"
        assert cli.main([command, *paths, *_rules_args(command, rules), "--out", str(out)]) == 3
        assert capsys.readouterr() == (
            "", f"error: {paths[1]}: line 3: expected 1 fields, got 2\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["compare", "cells"])
    def test_worker_that_dies_is_an_internal_error(self, four_files, monkeypatch, usable_cpus,
                                                   capsys, command):
        pools = usable_cpus(2)
        # this process takes a share of the files too; only the forked child dies
        module, name = (engine, "read_confronting") if command == "compare" else (cli, "ingest_csv")
        test_pid, read = os.getpid(), getattr(module, name)

        def dies_in_a_child(path, *args, **kwargs):
            return read(path, *args, **kwargs) if os.getpid() == test_pid else os._exit(1)

        monkeypatch.setattr(module, name, dies_in_a_child)
        paths, rules = four_files
        assert cli.main([command, paths[0], paths[2], *_rules_args(command, rules)]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: internal: RuntimeError: a worker process exited with code 1 and no result\n"
        assert err.count("\n") == 1 and "Traceback" not in err
        assert len(pools) == 1

    @pytest.mark.parametrize("command", ["compare", "cells"])
    def test_worker_that_sends_half_a_result_is_an_internal_error(
        self, four_files, monkeypatch, usable_cpus, capsys, command
    ):
        usable_cpus(2)
        # the forked child pickles its results, writes half of them and exits 0
        test_pid, dumps = os.getpid(), pickle.dumps

        def half_in_a_child(obj, file):
            data = dumps(obj)
            file.write(data if os.getpid() == test_pid else data[: len(data) // 2])

        monkeypatch.setattr(pickle, "dump", half_in_a_child)
        paths, rules = four_files
        assert cli.main([command, paths[0], paths[2], *_rules_args(command, rules)]) == 4
        assert capsys.readouterr() == (
            "", "error: internal: RuntimeError: a worker process exited with code 0 and no result\n"
        )

    @pytest.mark.parametrize("cells", [1, 100_000], ids=["nothing-sent", "part-sent"])
    def test_worker_whose_result_does_not_pickle_is_an_internal_error(
        self, four_files, monkeypatch, usable_cpus, capsys, cells
    ):
        usable_cpus(2)
        # the child's result ends in a lock, after more than a pipe holds in the second case:
        # the pickle written as it is made fails once part of it is sent
        test_pid, ingest = os.getpid(), cli.ingest_csv

        def unpicklable_in_a_child(path):
            if os.getpid() == test_pid:
                return ingest(path)
            return [*map(str, range(cells)), threading.Lock()]

        monkeypatch.setattr(cli, "ingest_csv", unpicklable_in_a_child)
        paths, _ = four_files
        assert cli.main(["cells", paths[0], paths[2]]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: internal: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("bad", [(1, 3), (3, 5), (2, 4, 5), (5,)])
    def test_first_bad_file_of_any_share_is_reported(self, tmp_path, usable_cpus, capsys,
                                                     cpus, bad):
        # the files are dealt out in turn to 2 or 3 processes; this process takes v0, v2, v4
        # (2 CPUs) or v0, v3 (3 CPUs)
        pools = usable_cpus(cpus)
        paths = []
        for i in range(6):
            path = tmp_path / f"v{i}.csv"
            path.write_text("x\n1\n2,3\n" if i in bad else "x\n1\n")
            paths.append(str(path))
        assert cli.main(["cells", *paths]) == 3
        assert capsys.readouterr() == (
            "", f"error: {paths[min(bad)]}: line 3: expected 1 fields, got 2\n"
        )
        assert len(pools) == 1

    @pytest.mark.parametrize("command", ["compare", "cells"])
    def test_no_child_process_is_left(self, four_files, usable_cpus, capsys, command):
        pools = usable_cpus(2)
        paths, rules = four_files
        # a bad file in this process's share, then in the child's, then none
        for files, code in [(paths[1:], 3), (paths[:2], 3), (paths[:1] + paths[2:3], 0)]:
            assert cli.main([command, *files, *_rules_args(command, rules)]) == code
        assert len(pools) == 3
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("command", ["compare", "cells"])
    def test_workers_leave_pool_modules_unloaded(self, four_files, command):
        paths, rules = four_files
        argv = [command, paths[0], paths[2], *_rules_args(command, rules)]
        proc = _python(
            "-c",
            "import sys\n"
            "from checkmate import cli\n"
            "cli._usable_cpus, forked, batches = (lambda: 2), cli._forked, []\n"
            "cli._forked = lambda *args: batches.append(args[2]) or forked(*args)\n"
            f"code = cli.main({argv!r})\n"
            "loaded = [m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules]\n"
            "print(code, batches, loaded)",
        )
        assert proc.stdout.splitlines()[-1] == "0 [2] []", proc.stderr

    def test_confront_error_comes_after_every_read(self, four_files, usable_cpus, capsys, cpus=2):
        # with raise=error the first version's confrontation fails, yet a file
        # that cannot be read is reported first, as when all are read before
        usable_cpus(cpus)
        paths, _ = four_files
        rules = os.path.join(os.path.dirname(paths[0]), "y.txt")
        with open(rules, "w") as fh:
            fh.write("y >= 0\n")
        argv = ["compare", paths[0], paths[1], "--rules", rules, "--set", "raise=error"]
        assert cli.main(argv) == 3
        assert capsys.readouterr().err == (
            f"error: {paths[1]}: line 3: expected 1 fields, got 2\n"
        )
        assert cli.main(["compare", paths[0], paths[2], "--rules", rules, "--set", "raise=error"]) == 3
        assert capsys.readouterr().err == "error: object 'y' not found\n"


class TestVersionFold:
    """``compare`` and ``cells`` fold the versions in file order: a mismatch of
    shapes waits for every file, and only two versions are held."""

    def write(self, tmp_path, texts):
        paths = []
        for i, text in enumerate(texts, start=1):
            path = tmp_path / f"v{i}.csv"
            path.write_text(text)
            paths.append(str(path))
        (tmp_path / "r.txt").write_text("x >= 0\n")
        return paths, str(tmp_path / "r.txt")

    # with 2 CPUs this process does v1 and v3, and the child v2 and v4
    @pytest.mark.parametrize("cpus", [1, 2], ids=["in-process", "workers"])
    @pytest.mark.parametrize("ragged", [3, 4], ids=["own-share", "child-share"])
    @pytest.mark.parametrize("command", ["compare", "cells"])
    def test_unreadable_file_after_a_mismatch_is_reported(self, tmp_path, usable_cpus, capsys,
                                                          command, ragged, cpus):
        pools = usable_cpus(cpus)
        texts = ["x\n1\n", "y\n1\n", "x\n2\n", "x\n3\n"]
        texts[ragged - 1] = "x\n1\n2,3\n"
        paths, rules = self.write(tmp_path, texts)
        assert cli.main([command, *paths, *_rules_args(command, rules)]) == 3
        assert capsys.readouterr() == (
            "", f"error: {paths[ragged - 1]}: line 3: expected 1 fields, got 2\n"
        )
        assert len(pools) == (cpus > 1)

    @pytest.mark.parametrize("cpus", [1, 2], ids=["in-process", "workers"])
    @pytest.mark.parametrize("command", ["compare", "cells"])
    def test_a_mismatch_alone_is_exit_three(self, tmp_path, usable_cpus, capsys, command, cpus):
        usable_cpus(cpus)
        paths, rules = self.write(tmp_path, ["x\n1\n", "y\n1\n", "x\n2\n", "x\n3\n"])
        out = tmp_path / "out.csv"
        for sink in ([], ["--out", str(out)]):
            assert cli.main([command, *paths, *_rules_args(command, rules), *sink]) == 3
            assert capsys.readouterr() == (
                "", "error: dataset versions differ in shape or column names\n"
            )
        assert not out.exists()

    @pytest.mark.parametrize("cpus", [1, 2], ids=["in-process", "workers"])
    def test_pairs_closed_after_the_first_leave_no_child_or_pipe(self, tmp_path, usable_cpus,
                                                               cpus):
        pools = usable_cpus(cpus)
        paths, _ = self.write(tmp_path, [f"x\n{i}\n" for i in range(4)])
        fds = "/proc/self/fd"
        before = os.listdir(fds) if os.path.isdir(fds) else None
        pairs = cli._per_version(cli.ingest_csv, paths)
        assert next(pairs) == ("v1", cli.ingest_csv(paths[0]))
        pairs.close()
        assert len(pools) == (cpus > 1)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        if before is not None:
            assert sorted(os.listdir(fds)) == sorted(before)

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in kB, and fork")
    @pytest.mark.parametrize("cpus", [1, 2], ids=["in-process", "workers"])
    def test_peak_memory_does_not_grow_with_the_number_of_files(self, tmp_path, cpus):
        # a text-heavy file: a frame of it is far larger than the file
        rng = random.Random(5)
        data = tmp_path / "d.csv"
        with open(data, "w") as fh:
            fh.write("id,name,city,note,x\n")
            for i in range(40_000):
                fh.write(f"r{i:06d},name {rng.randrange(10**6)},city{rng.randrange(40)},"
                         f"note {i} {rng.randrange(10**9)},{rng.randrange(1000)}\n")
        copies = []
        for i in range(1, 9):
            copies.append(tmp_path / f"v{i}.csv")
            shutil.copyfile(data, copies[-1])

        def peak_kb(statement, *args):
            # forked while python is small, the child's wait4 peak is its own and its
            # workers', as the benchmark measures it: a process started by this large
            # one would report at least this one's peak
            proc = _python(
                "-c",
                "import os, sys\n"
                "from checkmate import cli\n"
                f"cli._usable_cpus = lambda: {cpus}\n"
                "pid = os.fork()\n"
                "if pid == 0:\n"
                f"    {statement}\n"
                "    os._exit(0)\n"
                "_, status, usage = os.wait4(pid, 0)\n"
                "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)",
                *map(str, args),
            )
            code, kb = proc.stdout.split()
            assert code == "0", proc.stderr
            return int(kb)

        held = "frames = [cli.ingest_csv(sys.argv[1]) for _ in range({})]"
        frame = peak_kb(held.format(2), data) - peak_kb(held.format(1), data)
        assert frame > 4096  # kB held per frame
        cells = "if cli.main(['cells', *sys.argv[1:], '--out', os.devnull]): os._exit(1)"
        two, eight = peak_kb(cells, *copies[:2]), peak_kb(cells, *copies)
        assert eight - two < frame / 2, (two, eight, frame)


class TestVersionFoldBlockByBlock(TestVersionFold):
    """The folds again, on versions read in blocks of one or two rows, so that
    ``compare`` evaluates its rule on each block as it reads, as ``check`` does
    a file longer than a block: a file error and a mismatch still come first."""

    @pytest.fixture(autouse=True, params=[1, 2], ids=["blocks-of-1", "blocks-of-2"])
    def block_rows(self, request, monkeypatch):
        monkeypatch.setattr(frame, "_BLOCK_ROWS", request.param)  # forked workers inherit it

    # these read no rule, so they read as with whole blocks
    test_pairs_closed_after_the_first_leave_no_child_or_pipe = None
    test_peak_memory_does_not_grow_with_the_number_of_files = None

    @pytest.mark.parametrize("cpus", [1, 2], ids=["in-process", "workers"])
    def test_confront_error_comes_after_every_read(self, four_files, usable_cpus, capsys, cpus):
        TestPerVersionWorkers.test_confront_error_comes_after_every_read(
            self, four_files, usable_cpus, capsys, cpus
        )

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("cpus", [1, 2], ids=["in-process", "workers"])
    def test_a_version_read_from_a_pipe(self, tmp_path, usable_cpus, capsys, cpus):
        # a pipe cannot be read twice, so its header comes from the one reading
        usable_cpus(cpus)
        texts = ["x,y\n1,a\n-2,b\nNA,c\n", "x,y\n1,a\n2,b\n3,NA\n", "x,y\n-1,a\n2,b\n3,c\n"]
        paths, rules = self.write(tmp_path, texts)
        argv = ["compare", *paths, "--rules", rules, "--format", "csv"]
        assert cli.main(argv) == 0
        from_files = capsys.readouterr()
        fifo = str(tmp_path / "v2.csv")
        os.replace(paths[1], str(tmp_path / "v2.txt"))
        os.mkfifo(fifo)

        def write():
            with open(fifo, "w") as pipe:  # waits until the reader opens it
                pipe.write(texts[1])

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        assert cli.main(argv) == 0
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert capsys.readouterr() == from_files
        assert from_files.out.startswith("status,v1,v2,v3\nvalidations,3,3,3\n")


class TestRulesBeforeData:
    """Every command reads its rule file before its data files, so a rule-file
    error is reported even when a data file is bad too."""

    @pytest.mark.parametrize(
        "command, versions",
        [("check", 1), ("summary", 1), ("plot", 1), ("compare", 2), ("plot", 2)],
    )
    def test_rules_error_is_reported(self, tmp_path, monkeypatch, capsys, command, versions):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a.csv").write_text("x\n1\n")
        (tmp_path / "bad.csv").write_text("x\n1,2\n")
        (tmp_path / "badrules.txt").write_text("x >=\n")
        data = ["bad.csv", "a.csv"][:versions]
        argv = [command, *data, "--rules", "badrules.txt", "--out", "out.svg"]
        assert cli.main(argv) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: badrules.txt:1: ")


class TestNanTolerance:
    """A NaN tolerance is rejected like any other value that is not a nonnegative number."""

    def test_set_exit_three(self, tmp_path, capsys):
        (tmp_path / "n.csv").write_text("x,y\n1,1\n2,2\n")
        (tmp_path / "n.txt").write_text("x == y\n")
        argv = ["summary", str(tmp_path / "n.csv"), "--rules", str(tmp_path / "n.txt"),
                "--set", "lin.eq.eps=nan"]
        assert cli.main(argv) == 3
        assert capsys.readouterr() == (
            "", "error: lin.eq.eps must be a nonnegative number, got nan\n"
        )

    @pytest.mark.parametrize(
        "name, text",
        [("r.yml", "options:\n  lin.eq.eps: .nan\nrules:\n- expr: x > 0\n"),
         ("r.yml", "options:\n  lin.eq.eps: nan\nrules:\n- expr: x > 0\n"),
         ("r.txt", "---\noptions: {lin.eq.eps: nan}\n---\nx > 0\n")],
        ids=["yaml-float", "yaml-text", "front-matter"],
    )
    def test_rule_file_check_three_lint_two(self, tmp_path, monkeypatch, capsys, name, text):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d.csv").write_text("x\n1\n")
        (tmp_path / name).write_text(text)
        message = f"error: {name}: lin.eq.eps must be a nonnegative number, got nan\n"
        assert cli.main(["check", "d.csv", "--rules", name]) == 3
        assert capsys.readouterr() == ("", message)
        assert cli.main(["lint", "--rules", name]) == 2
        assert capsys.readouterr() == ("", message)


@pytest.mark.parametrize("text", ["1_0", "\u0661", "0.\u0665", "\u00a01"])
def test_a_tolerance_r_does_not_read_as_a_number_exit_three(capsys, text):
    # Python's float reads each of these, as it would a CSV cell that R reads as text
    argv = ["lint", "--rules", SAMPLE_RULES, "--set", f"lin.ineq.eps={text}"]
    assert cli.main(argv) == 3
    assert capsys.readouterr() == (
        "", f"error: lin.ineq.eps must be a nonnegative number, got {text!r}\n"
    )


class TestUndecodableRuleFile:
    """A rule file that is not UTF-8 is a rule-file error, as one that cannot be opened."""

    @pytest.mark.parametrize(
        "name, files, unreadable",
        [("r.txt", {"r.txt": b"x > 0 # caf\xe9\n"}, "r.txt"),
         ("r.yml", {"r.yml": b"rules:\n- expr: x > 0\n  description: caf\xe9\n"}, "r.yml"),
         ("r.txt", {"r.txt": b"---\ninclude: i.txt\n---\nx > 0\n", "i.txt": b"caf\xe9 > 0\n"},
          os.path.join(".", "i.txt"))],
        ids=["text", "yaml", "included"],
    )
    def test_check_three_lint_two(self, tmp_path, monkeypatch, capsys, name, files, unreadable):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d.csv").write_text("x\n1\n")
        for file, data in files.items():
            (tmp_path / file).write_bytes(data)
        message = f"error: cannot read {unreadable}: 'utf-8' codec can't decode byte 0xe9 in position "
        assert cli.main(["check", "d.csv", "--rules", name]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(message) and err.count("\n") == 1
        assert cli.main(["lint", "--rules", name]) == 2
        assert capsys.readouterr() == (out, err)


def test_cli_import_leaves_worker_modules_unloaded():
    proc = _python(
        "-c",
        "import sys, checkmate.cli; "
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))",
    )
    assert proc.stdout.strip() == "[]", proc.stderr


def test_gc_threshold_of_the_caller_is_kept(capsys):
    before = gc.get_threshold()
    cli.main(["summary", SAMPLE_DATA, "--rules", SAMPLE_RULES])
    assert gc.get_threshold() == before
