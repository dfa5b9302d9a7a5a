"""Row-local rules evaluated on each block of rows as a CSV file is read.

``engine.confront_csv`` must give what ``confront(ingest_csv(path), ...)``
gives, whatever ``frame._BLOCK_ROWS`` is: the same outcomes, warnings and
errors, raised in the same order. Each hazard of evaluating block by block
has a test of its own here.
"""

import json
import os
import threading
from collections import defaultdict
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import legacy_ingest
from checkmate import cli, dsl, frame, rule_io
from checkmate.engine import confront, confront_csv
from checkmate.frame import Column, ingest_csv
from checkmate.rules import new_ruleset
from conftest import SAMPLE_DATA, SAMPLE_RULES, SAMPLE_V2
from test_golden import GOLDEN, SAMPLE_BANNER

BLOCK_ROWS = [1, 2, 3, frame._BLOCK_ROWS]
SAMPLE_V3 = os.path.join(GOLDEN, "retailers_v3.csv")


def _outcome_of(run):
    """What ``run()`` gives, its creation time masked; or its error's type and
    message, a defect's too."""
    try:
        v = run()
    except Exception as err:
        return type(err), str(err)
    v.created = None
    return v


def _assert_streams_as_whole(path, rs, block_rows, key=None, opts=None):
    """The result of ``confront_csv`` with ``block_rows`` rows to a block, in
    one range and, where ``fork`` is, in two if it has two full blocks,
    asserted equal to that of ``confront`` on the whole file as
    ``csv.reader`` reads it."""
    with mock.patch.object(frame, "_plain", lambda path, workers: None):
        whole = _outcome_of(lambda: confront(ingest_csv(path), rs, key=key, opts=opts))
    for workers in [1, 2] if hasattr(os, "fork") else [1]:
        with mock.patch.object(frame, "_BLOCK_ROWS", block_rows):
            streamed = _outcome_of(lambda: confront_csv(path, rs, key=key, opts=opts,
                                                        workers=workers))
        assert streamed == whole
    return streamed


def _rules(*sources):
    rs, warnings = new_ruleset([(None, s) for s in sources])
    assert not warnings
    return rs


def _write(tmp_path, text: str, name: str = "data.csv") -> str:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# Which rules are row-local
# ---------------------------------------------------------------------------

ROW_LOCAL = [
    "x > 0", "x + y == 3", "if (x > 1) y < 2", "is.na(x) | y >= 0", "s %in% c('a', 'b')",
    "x %in% c(1, 2, NA)", "s %in% 'a'", "grepl('^a', s)", "abs(x - y) <= 1", "!(x < y) & b",
    "x / y > 0", "(x - 1)^0.5 >= 0", "-x < 0", "s == 'a' | is.na(s)", "b & TRUE", "is_na(s)",
    "grepl('[[a]', s)", "x > 1 | TRUE", "(x > NA)", "z > 0",
]
WHOLE_COLUMN = [
    "x > c(1, 2)", "c(x) > 0", "mean(x, na.rm = TRUE) > 0", "is_unique(s)", "nrow(.) > 2",
    "ncol(.) == 5", "sum(y) < 10", "x %in% y", "x %in% c(y)", "x > max(y)", "s ~ b", "all(b)",
    "grepl(s, s)", "grepl(x = 'a', s)", "1 > 0", "TRUE | FALSE", "nrow() > 1", "is.numeric(x)",
    "duplicated(s) | x > 0", "x > median(x)", "mean(z) > 0",
]


@pytest.mark.parametrize("source", ROW_LOCAL)
def test_a_row_local_rule(source):
    assert dsl.reach(dsl.parse_expression(source)) == "rows"


@pytest.mark.parametrize("source", WHOLE_COLUMN)
def test_a_rule_that_is_not_row_local(source):
    assert dsl.reach(dsl.parse_expression(source)) in ("columns", "frame")


@pytest.mark.parametrize("source, reads", [
    ("nrow(.) > 2", False), ("number_of_records(.) > 2", False), ("nrow() > 2", False),
    ("ncol(.) == 5", True), ("ncol() == 5", True), ("'x' %in% names(.)", True),
    ("is_unique(.)", True), ("x > 0", False), ("mean(x) > nrow(.)", False),
])
def test_a_rule_that_reads_the_dataset_beyond_its_row_count(source, reads):
    assert (dsl.reach(dsl.parse_expression(source)) == "frame") is reads


# ---------------------------------------------------------------------------
# Independence of the block size
# ---------------------------------------------------------------------------

# a rule file of row-local and whole-column rules, with one rule that errors
MIXED_RULES = """
st: staff >= 0
pr: profit <= turnover
sc: if (staff > 0) staff.costs > 0
bl: turnover + other.rev == total.rev
ms: is.na(staff) | staff %in% c(0, 1, 2, 3)
ab: abs(profit) < 1000000
id: grepl("^RET", id)
mn: mean(profit, na.rm = TRUE) >= 1
uq: is_unique(id)
nr: nrow(.) > 10
er: id > 0
"""


@pytest.mark.parametrize("block_rows", BLOCK_ROWS)
@pytest.mark.parametrize("key", [None, "id"])
@pytest.mark.parametrize("rules", ["sample", "mixed"])
@pytest.mark.parametrize("data", [SAMPLE_DATA, SAMPLE_V2, SAMPLE_V3], ids=["v1", "v2", "v3"])
def test_a_golden_file_confronts_as_whole(tmp_path, data, rules, key, block_rows):
    if rules == "sample":
        rs, _ = rule_io.read_rules(SAMPLE_RULES)
    else:
        rs, _ = rule_io.read_rules(_write(tmp_path, MIXED_RULES, "rules.txt"))
    v = _assert_streams_as_whole(data, rs, block_rows, key=key)
    assert v.n_records == 60


@pytest.mark.parametrize("block_rows", BLOCK_ROWS)
@pytest.mark.parametrize("keyed", ["keyed", "unkeyed"])
@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("command", ["check", "summary"])
def test_sample_output_at_any_block_size(capsys, command, fmt, keyed, block_rows):
    args = [command, SAMPLE_DATA, "--rules", SAMPLE_RULES, "--format", fmt]
    with mock.patch.object(frame, "_BLOCK_ROWS", block_rows):
        assert cli.main(args + (["--key", "id"] if keyed == "keyed" else [])) == 1
    with open(os.path.join(GOLDEN, f"sample_{command}_{keyed}.{fmt}"), encoding="utf-8") as fh:
        expected = fh.read()
    stderr = SAMPLE_BANNER if command == "check" and fmt != "text" else ""
    assert capsys.readouterr() == (expected, stderr)


@pytest.mark.parametrize("block_rows", BLOCK_ROWS)
def test_plot_of_one_file_at_any_block_size(tmp_path, block_rows):
    out = str(tmp_path / "plot.svg")
    with mock.patch.object(frame, "_BLOCK_ROWS", block_rows):
        assert cli.main(["plot", SAMPLE_DATA, "--rules", SAMPLE_RULES, "--out", out]) == 0
    with open(os.path.join(GOLDEN, "cli", "plot_one.json"), encoding="utf-8") as fh:
        expected = json.load(fh)["out"]
    with open(out, encoding="utf-8") as fh:
        assert fh.read() == expected


# cells by kind; the odd cell of another kind turns a column to text late
NUMBER_CELLS = ["1", "-2", "0", "2.5", "3", "inf", "-inf", "nan", "1e3", "007"]
TEXT_CELLS = ["a", "b", "abc", "TRUE", "x y"]
BOOLEAN_CELLS = ["TRUE", "false", "true", "FALSE"]
MISSING_CELLS = ["NA", ""]


@st.composite
def csv_files(draw):
    """A header ``id,x,y,s,b`` and a few rows: x and y mostly numbers, s text and
    b booleans, with missing cells and the odd cell of another kind."""
    pools = {"x": NUMBER_CELLS, "y": NUMBER_CELLS, "s": TEXT_CELLS, "b": BOOLEAN_CELLS}
    rows = []
    for i in range(draw(st.integers(0, 9))):
        row = [f"r{i}" if draw(st.integers(0, 19)) else draw(st.sampled_from(["", "r0"]))]
        for name, pool in pools.items():
            which = draw(st.integers(0, 11))
            pool = MISSING_CELLS if which < 2 else NUMBER_CELLS + TEXT_CELLS if which == 2 else pool
            row.append(draw(st.sampled_from(pool)))
        rows.append(",".join(f'"{c}"' if " " in c else c for c in row))
    return "id,x,y,s,b\n" + "".join(r + "\n" for r in rows)


@settings(derandomize=True, max_examples=250, deadline=None, database=None)
@given(
    text=csv_files(),
    sources=st.lists(st.sampled_from(ROW_LOCAL + WHOLE_COLUMN), min_size=1, max_size=4),
    key=st.sampled_from([None, "id"]),
    na_value=st.sampled_from(["NA", True, False]),
    raise_=st.sampled_from(["none", "none", "error", "all"]),
)
def test_random_files_and_rules_confront_as_whole(tmp_path_factory, text, sources, key,
                                                  na_value, raise_):
    path = _write(tmp_path_factory.mktemp("stream"), text)
    rs = _rules(*sources)
    opts = {"na.value": na_value, "raise": raise_}
    for block_rows in BLOCK_ROWS:
        _assert_streams_as_whole(path, rs, block_rows, key=key, opts=opts)


# ---------------------------------------------------------------------------
# Each hazard of evaluating block by block
# ---------------------------------------------------------------------------


def _rows(*rows: str, header: str = "x,y") -> str:
    return header + "\n" + "".join(r + "\n" for r in rows)


@pytest.mark.parametrize("raise_", ["error", "all"])
@pytest.mark.parametrize("block_rows", BLOCK_ROWS)
def test_a_file_error_comes_before_a_rule_error(tmp_path, block_rows, raise_):
    # the rule fails to evaluate on the first block; the short row is at line 7
    path = _write(tmp_path, _rows("a,1", "b,2", "c,3", "d,4", "e,5", "f"))
    err = _assert_streams_as_whole(path, _rules("x > 0"), block_rows, opts={"raise": raise_})
    assert err == (frame.DataError, f"{path}: line 7: expected 2 fields, got 1")


@pytest.mark.parametrize("raise_", ["error", "all"])
@pytest.mark.parametrize("block_rows", BLOCK_ROWS)
def test_a_key_error_comes_before_a_rule_error(tmp_path, block_rows, raise_):
    path = _write(tmp_path, _rows("a,1", "b,2", "c,3", "d,4", ",5"))
    err = _assert_streams_as_whole(path, _rules("x > 0"), block_rows, key="x",
                                   opts={"raise": raise_})
    assert err == (frame.DataError, "key column 'x' has missing cells")


@pytest.mark.parametrize("raise_", ["error", "all"])
@pytest.mark.parametrize("block_rows", BLOCK_ROWS)
def test_the_first_rule_error_in_rule_order_is_raised(tmp_path, block_rows, raise_):
    path = _write(tmp_path, _rows("a,1", "b,2", "c,3", "d,4", "e,5"))
    # the row-local rule fails on the first block, before the file is read; the
    # whole-column rule before it fails only once it is
    rs = _rules("mean(x) > 0", "x > 0")
    err = _assert_streams_as_whole(path, rs, block_rows, opts={"raise": raise_})
    assert err[1] == "mean expects a number operand, got text"
    rs = _rules("x > 0", "mean(x) > 0")  # x > 0 is rewritten to x - 0 > -1e-08
    err = _assert_streams_as_whole(path, rs, block_rows, opts={"raise": raise_})
    assert err[1] == "- expects a number operand, got text"


@pytest.mark.parametrize("block_rows", BLOCK_ROWS)
def test_a_warning_under_raise_all_is_raised_after_the_file_is_read(tmp_path, block_rows):
    path = _write(tmp_path, _rows("1,1", "-1,1", "2,1", "3,1", "4", header="x,y"))
    err = _assert_streams_as_whole(path, _rules("x^0.5 >= 0"), block_rows, opts={"raise": "all"})
    assert err == (frame.DataError, f"{path}: line 6: expected 2 fields, got 1")


@pytest.mark.parametrize("block_rows", BLOCK_ROWS)
def test_two_nodes_that_each_give_nans_give_two_warnings(tmp_path, block_rows):
    # inf - inf is NaN: a - a on the first row, b - b on the fourth
    path = _write(tmp_path, _rows("inf,1", "1,2", "2,3", "3,inf", header="a,b"))
    v = _assert_streams_as_whole(path, _rules("(a - a) + (b - b) >= 0"), block_rows)
    assert v.outcomes[0].warnings == ["NaNs produced", "NaNs produced"]


@pytest.mark.parametrize("block_rows", BLOCK_ROWS)
def test_one_node_that_gives_nans_in_two_blocks_gives_one_warning(tmp_path, block_rows):
    path = _write(tmp_path, _rows("inf,1", "1,2", "2,3", "inf,4", header="a,b"))
    v = _assert_streams_as_whole(path, _rules("(b - b) + (a - a) >= 0"), block_rows)
    assert v.outcomes[0].warnings == ["NaNs produced"]


@pytest.mark.parametrize("block_rows", BLOCK_ROWS)
def test_warnings_keep_the_order_of_evaluation(tmp_path, block_rows):
    # the later block warns of the node evaluated first
    path = _write(tmp_path, _rows("1,1,x", "2,2,y", "3,3,z", "inf,4,w", header="a,b,s"))
    v = _assert_streams_as_whole(path, _rules("(a - a) >= 0 | grepl('[[a]', s)"), block_rows)
    assert v.outcomes[0].warnings == ["NaNs produced", "Possible nested set at position 1"]


@pytest.mark.parametrize("block_rows", BLOCK_ROWS)
def test_a_pattern_warning_is_given_once(tmp_path, block_rows):
    path = _write(tmp_path, _rows(*"abcdefg", header="s"))
    v = _assert_streams_as_whole(path, _rules("grepl('[[a]', s)"), block_rows)
    assert v.outcomes[0].warnings == ["Possible nested set at position 1"]


@pytest.mark.parametrize("block_rows", BLOCK_ROWS)
def test_an_error_first_seen_in_a_late_block_ends_the_rule(tmp_path, block_rows):
    # x is a number column until its last cell: the whole column is text
    path = _write(tmp_path, _rows("1,1", "2,2", "3,3", "4,4", "five,5"))
    v = _assert_streams_as_whole(path, _rules("x > 0", "y > 0", "grepl('[0-9]', x)"), block_rows)
    assert [o.error for o in v.outcomes] == ["- expects a number operand, got text", None, None]
    assert v.outcomes[2].result == [True] * 4 + [False]


@pytest.mark.parametrize("block_rows", BLOCK_ROWS)
def test_a_number_column_that_turns_to_text_late(tmp_path, block_rows):
    path = _write(tmp_path, _rows("1,a", "NA,b", "2,c", "x1,d", header="x,s"))
    rs = _rules("x == '1' | x == 'x1'", "is.na(x)", "x %in% c('2', 'x1')", "s != 'a'")
    v = _assert_streams_as_whole(path, rs, block_rows)
    assert [o.result for o in v.outcomes[:3]] == [
        [True, None, False, True], [False, True, False, False], [False, None, True, True]]


@pytest.mark.parametrize("block_rows", BLOCK_ROWS)
def test_a_column_that_ends_up_boolean(tmp_path, block_rows):
    # missing cells first: a number column until its booleans come
    path = _write(tmp_path, _rows("NA,1", ",2", "TRUE,3", "false,4"))
    v = _assert_streams_as_whole(path, _rules("x | y > 3", "is.na(x)"), block_rows)
    assert v.outcomes[0].result == [None, None, True, True]


@pytest.mark.parametrize("block_rows", BLOCK_ROWS)
def test_a_boolean_column_that_turns_to_text_late(tmp_path, block_rows):
    path = _write(tmp_path, _rows("TRUE,1", "false,2", "NA,3", "maybe,4"))
    v = _assert_streams_as_whole(path, _rules("x == 'TRUE'", "x | y > 3"), block_rows)
    assert v.outcomes[0].result == [True, False, None, False]
    assert v.outcomes[1].error == "| expects a logical operand, got text"


@pytest.mark.parametrize("na_value", ["NA", True, False])
@pytest.mark.parametrize("block_rows", BLOCK_ROWS)
def test_na_value_settles_missing_items_as_whole(tmp_path, block_rows, na_value):
    path = _write(tmp_path, _rows("1,NA", "NA,2", "3,-3", ",4", "5,5"))
    rs = _rules("x > 0", "x + y > 0", "if (x > 2) y > 0", "mean(y, na.rm = TRUE) > 0")
    v = _assert_streams_as_whole(path, rs, block_rows, opts={"na.value": na_value})
    assert v.outcomes[1].na == ((0, 1, 3) if na_value == "NA" else ())


@pytest.mark.parametrize("block_rows", BLOCK_ROWS)
def test_a_header_only_file_is_evaluated_once(tmp_path, block_rows):
    path = _write(tmp_path, "x,s\n")  # a column of no cells is a number column
    rs = _rules("x > 0", "grepl('a', s)", "nrow(.) == 0")
    v = _assert_streams_as_whole(path, rs, block_rows)
    assert [o.tally() for o in v.outcomes] == [(0, 0, 0, 0), (0, 0, 0, 0), (1, 1, 0, 0)]
    assert v.outcomes[1].error == "grepl expects a text operand, got number"


@pytest.mark.parametrize("block_rows", BLOCK_ROWS)
def test_rules_that_read_no_column_count_every_row(tmp_path, block_rows):
    path = _write(tmp_path, _rows(*map(str, range(7)), header="x"))
    v = _assert_streams_as_whole(path, _rules("x >= 0", "nrow(.) == 7"), block_rows)
    assert (v.n_records, v.outcomes[1].result) == (7, [True])


@pytest.mark.parametrize("block_rows", BLOCK_ROWS)
def test_names_of_the_dataset_are_every_column(tmp_path, block_rows):
    path = _write(tmp_path, _rows("1,2", "3,4", "5,6"))
    rs = _rules("x > 0", "ncol(.) == 2", "'y' %in% names(.)")
    v = _assert_streams_as_whole(path, rs, block_rows)
    assert [o.result for o in v.outcomes[1:]] == [[True], [True]]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("block_rows", BLOCK_ROWS)
def test_a_pipe_whose_column_turns_to_text_late(tmp_path, block_rows):
    text = _rows("1,1", "2,2", "3,3", "4,4", "five,5")
    fifo = tmp_path / "data.csv"
    os.mkfifo(fifo)

    def write():
        with open(fifo, "w", encoding="utf-8") as pipe:  # waits until the reader opens it
            pipe.write(text)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    rs = _rules("x > 0", "y > 0", "mean(y) > 0")
    with mock.patch.object(frame, "_BLOCK_ROWS", block_rows):
        from_pipe = _outcome_of(lambda: confront_csv(str(fifo), rs))
    writer.join(timeout=10)
    assert not writer.is_alive()
    path = _write(tmp_path, text, "f.csv")
    assert from_pipe == _outcome_of(lambda: confront(ingest_csv(path), rs))


# ---------------------------------------------------------------------------
# Memory: a column that only row-local rules read is never built whole
# ---------------------------------------------------------------------------


def test_a_column_only_row_local_rules_read_is_never_built_whole(tmp_path, monkeypatch, capsys,
                                                                 usable_cpus):
    usable_cpus(1)  # one range: a held column is built whole, not joined from ranges
    rows = [f"r{i},{i},{i % 7 - 1},{i * 3},{'ax'[i % 2]}{i}" for i in range(40)]
    data = _write(tmp_path, _rows(*rows, header="id,a,b,c,s"))
    rules = _write(tmp_path, "a >= 0\nif (a > 1) b > 0\ngrepl('x', s)\nmean(c) > 0\n"
                             "id != 'r3'\nnrow(.) > 1\n", "rules.txt")
    longest = defaultdict(int)  # column name -> most cells a Column of it was built with
    init = Column.__init__

    def recording(self, name, type, values, na=()):
        longest[name] = max(longest[name], len(values))
        init(self, name, type, values, na)

    monkeypatch.setattr(Column, "__init__", recording)
    monkeypatch.setattr(frame, "_BLOCK_ROWS", 4)
    assert cli.main(["check", data, "--rules", rules, "--key", "id", "--format", "text"]) == 1
    assert {name: longest[name] for name in "abs"} == {"a": 4, "b": 4, "s": 4}
    assert (longest["c"], longest["id"]) == (40, 40)
    assert "Confrontations: 6" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Raw text: a number column turned to text reads as written
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("block_rows", BLOCK_ROWS)
def test_canonical_integers_turned_to_text_are_read_as_written(tmp_path, block_rows):
    cells = ["1", "-2", "NA", "0", "", "30", "999999999999999", "-12", "007", "-0", "-01", "+5",
             "1.0", "1e3", "1234567890123456", " 7", "NAN", "inf", "7", "abc"]
    path = _write(tmp_path, "x\n" + "".join((c or '""') + "\n" for c in cells))
    with mock.patch.object(frame, "_BLOCK_ROWS", block_rows):
        column = ingest_csv(path).column("x")
    assert column == legacy_ingest.ingest_csv(path).column("x")
    assert column.cells() == [None if c in ("", "NA") else c for c in cells]
