"""The vector type that frame columns and evaluation results share, and the
CSV reader that builds them a block of rows at a time."""

import copy
import math
import os
import pickle
import sys
import threading
from array import array
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import legacy_ingest
from checkmate import Column, DataFrame, check_that, dsl, eval_expr, from_dict, frame, ingest_csv
from checkmate.engine import Value as EngineValue
from checkmate.errors import DataError, EvalError
from checkmate.frame import FILLERS, Value
from conftest import SAMPLE_DATA


class TestColumnIsAValue:
    def test_a_boolean_column_is_a_logical_vector(self):
        col = Column("b", "boolean", [True, False, False], (2,))
        assert isinstance(col, Value)
        assert (col.kind, col.type, len(col)) == ("logical", "boolean", 3)

    @pytest.mark.parametrize("type_, kind", [("number", "number"), ("text", "text"),
                                             ("boolean", "logical")])
    def test_type_round_trips(self, type_, kind):
        col = Column("c", type_, [FILLERS[kind]], (0,))
        assert col.kind == kind
        assert Column(col.name, col.type, col.values, col.na) == col

    def test_the_logical_kind_is_not_a_column_type(self):
        with pytest.raises(DataError, match="unknown column type 'logical'"):
            Column("b", "logical", [True])

    def test_cells_is_a_method_of_a_column_and_a_property_of_a_vector(self):
        col = Column("x", "number", [1.0, 0.0], (1,))
        assert col.cells() == [1.0, None]
        assert Value("number", [1.0, 0.0], (1,)).cells == [1.0, None]
        assert col.missing == [False, True]

    def test_the_engine_evaluates_to_the_same_type(self):
        assert EngineValue is Value
        v = eval_expr(dsl.parse_expression("x + 1"), from_dict({"x": [1.0, None]}))
        assert type(v) is Value and v.frame is None
        assert (v.kind, v.values, v.na) == ("number", [2.0, 0.0], (1,))


def test_a_pickled_frame_comes_back_equal():
    # the cells command sends frames back from forked worker processes
    df = from_dict(
        {"x": [1.5, None, float("inf")], "s": ["a", None, ""], "b": [True, None, False]}
    )
    back = pickle.loads(pickle.dumps(df))
    assert back == df
    # a NaN cell equals a NaN at the same index, and -0.0 still equals 0.0
    nan = from_dict({"x": [math.nan, 1.0, -0.0], "s": ["a", None, "b"]})
    assert pickle.loads(pickle.dumps(nan)) == nan and copy.deepcopy(nan) == nan
    assert nan == from_dict({"x": [math.nan, 1.0, 0.0], "s": ["a", None, "b"]})
    assert nan != from_dict({"x": [1.0, math.nan, 0.0], "s": ["a", None, "b"]})
    assert nan != from_dict({"x": [math.nan, 1.0, 0.0], "s": ["a", None, "c"]})
    assert [(c.name, c.type, c.kind, type(c.values)) for c in back.columns] == [
        ("x", "number", "number", array), ("s", "text", "text", list),
        ("b", "boolean", "logical", list),
    ]
    assert back.column("x").values.typecode == "d"
    assert back.column("s").cells() == ["a", None, ""]
    assert isinstance(back, DataFrame)


# one column's cells as Python values, the kind every reader gives them (or
# "error"), and the same cells as CSV text: None where CSV cannot express them
READER_CASES = {
    "all missing": ([None, None], "number", ["NA", ""]),
    "empty": ([], "number", []),
    "integer": ([1, None, -2], "number", ["1", "NA", "-2"]),
    "float": ([1.5, None], "number", ["1.5", ""]),
    "bool": ([True, None, False], "logical", ["TRUE", "NA", "false"]),
    "text": (["a", None, "1"], "text", ["a", "", "1"]),
    "bool and number": ([1, True], "error", None),
}


def _read(reader):
    """The kind, values and missing indices of what ``reader()`` returns, or "error"."""
    try:
        v = reader()
    except (DataError, EvalError):
        return "error"
    return v.kind, v.values, v.na


@pytest.mark.parametrize("cells, kind, csv_cells", READER_CASES.values(), ids=list(READER_CASES))
def test_every_reader_types_cells_alike(tmp_path, cells, kind, csv_cells):
    identifier = dsl.Identifier("x")
    read = {
        "from_dict": _read(lambda: from_dict({"x": cells}).column("x")),
        "reference list": _read(lambda: eval_expr(identifier, DataFrame(), {"x": cells})),
    }
    if csv_cells is not None:
        path = tmp_path / "data.csv"
        path.write_text("x,y\n" + "".join(f"{c},0\n" for c in csv_cells))
        read["csv"] = _read(lambda: ingest_csv(str(path)).column("x"))
    first = read["from_dict"]
    assert all(r == first for r in read.values()), read
    assert (first if first == "error" else first[0]) == kind


class TestNumberStorage:
    """A number column keeps its cells in an ``array('d')``, whichever reader made it."""

    def test_every_reader_stores_numbers_as_doubles(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x,s\n1,a\nNA,b\n2.5,c\n")
        read = {
            "csv": ingest_csv(str(path)).column("x"),
            "from_dict": from_dict({"x": [1, None, 2.5]}).column("x"),
            "reference list": eval_expr(dsl.Identifier("x"), DataFrame(), {"x": [1, None, 2.5]}),
        }
        for v in read.values():
            assert (type(v.values), v.values.typecode) == (array, "d")
            assert (list(v.values), v.na) == ([1.0, 0.0, 2.5], (1,))
        assert type(ingest_csv(str(path)).column("s").values) is list

    def test_a_csv_number_column_takes_8_bytes_a_cell(self, tmp_path):
        n = 10_000
        path = tmp_path / "data.csv"
        path.write_text("x\n" + "".join(f"{i * 0.5}\n" for i in range(n)))
        values = ingest_csv(str(path)).column("x").values
        assert len(values) == n
        assert sys.getsizeof(values) < 9 * n + 128

    @pytest.mark.parametrize("cells", [[10**400], [1.0, None, -(10**309)]])
    def test_an_integer_no_double_holds_is_an_error_naming_the_column(self, cells):
        with pytest.raises(DataError, match="^column 'big': a cell is not a double"):
            from_dict({"big": cells})

    def test_a_number_column_of_text_is_an_error_naming_the_column(self):
        with pytest.raises(DataError, match="^column 'x': a cell is not a double"):
            Column("x", "number", ["a"])

    def test_a_reference_integer_no_double_holds_is_a_rule_error(self):
        (outcome,) = check_that(DataFrame(), "is.numeric(big)", ref={"big": [10**400]}).outcomes
        assert outcome.error.startswith("column 'big': a cell is not a double")


def test_a_mixed_reference_list_is_a_rule_error():
    v = check_that(DataFrame(), "is.numeric(x)", ref={"x": [1, True]})
    assert v.outcomes[0].error == "reference vector mixes cell types"


class TestDeclaredTypes:
    def test_cells_that_contradict_the_declared_type_are_an_error(self):
        with pytest.raises(DataError, match="column 'x': declared text, but its cells are number"):
            from_dict({"x": [1.0]}, {"x": "text"})

    def test_mixed_cells_are_an_error_that_names_the_column(self):
        with pytest.raises(DataError, match="column 'x': mixed cell types"):
            from_dict({"x": [1.0, "a"]}, {"x": "text"})

    @pytest.mark.parametrize("type_", ["number", "text", "boolean"])
    def test_a_list_with_no_present_cell_takes_any_declared_type(self, type_):
        col = from_dict({"x": [None, None]}, {"x": type_}).column("x")
        assert (col.type, col.cells()) == (type_, [None, None])

    @pytest.mark.parametrize("cells", [[1.0], [None]])
    def test_an_unknown_type_keeps_its_message(self, cells):
        with pytest.raises(DataError, match="unknown column type 'float'"):
            from_dict({"x": cells}, {"x": "float"})


# ---------------------------------------------------------------------------
# The block reader against the whole-file reader it replaced
# ---------------------------------------------------------------------------


def _read_csv(read, path: str):
    """Each column's name, type, values (as repr, so that nan equals nan) and
    NA indices, as ``read(path)`` gives them; or its DataError's message."""
    try:
        df = read(path)
    except DataError as err:
        return str(err)
    return [(c.name, c.type, list(map(repr, c.values)), c.na) for c in df.columns]


WHOLE_FILE = 4096  # rows to a block that takes any file of these tests whole, as _BLOCK_ROWS does


def _assert_readers_agree(path: str, block_rows: int):
    """What ``ingest_csv`` reads from ``path`` with ``block_rows`` rows to a
    block, asserted equal to what the whole-file reader read."""
    with mock.patch.object(frame, "_BLOCK_ROWS", block_rows):
        new = _read_csv(ingest_csv, path)
    assert new == _read_csv(legacy_ingest.ingest_csv, path)
    return new


NUMBER_CELLS = ["0", "-2.5", "1e3", " 7 ", "nan", "inf", "-Infinity"]
BOOLEAN_CELLS = ["TRUE", "false", "true", "FALSE"]
# "1_0", "\u0663" (Arabic-Indic 3) and "\u00a07" (after a no-break space) are text in R
TEXT_CELLS = ["True", "abc", "a,b", 'say "hi"', "two\nlines", "cr\rhere", "crlf\r\nhere",
              "1_0", "\u0663", "\u00a07"]
MISSING_CELLS = ["", "NA"]
ANY_CELL = NUMBER_CELLS + BOOLEAN_CELLS + TEXT_CELLS + MISSING_CELLS


def _csv_field(cell: str, quote: bool) -> str:
    if quote or any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


@st.composite
def csv_texts(draw):
    """A CSV file's text: a header and rows whose columns mostly keep to one
    kind of cell, with the odd cell of another kind, row of another length,
    quoted field, byte-order mark or missing last line end."""
    width = draw(st.integers(0, 3))
    header = ["x", "y", "z"][:width]
    if draw(st.integers(0, 9)) == 0:
        header = draw(st.lists(st.sampled_from(header or ["x"]), min_size=width, max_size=width))
    pools = [draw(st.sampled_from([NUMBER_CELLS, BOOLEAN_CELLS, TEXT_CELLS, []])) + MISSING_CELLS
             for _ in header]
    rows = [header]
    for _ in range(draw(st.integers(0, 9))):
        row = [draw(st.sampled_from(pool if draw(st.integers(0, 5)) else ANY_CELL))
               for pool in pools]
        if draw(st.integers(0, 14)) == 0:
            row = row[:-1] if draw(st.booleans()) else row + ["1"]
        rows.append(row)
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    # a row of one empty field is written "", as an empty line is a row of no fields
    lines = [",".join(_csv_field(c, row == [""] or draw(st.integers(0, 7)) == 0) for c in row)
             for row in rows]
    text = end.join(lines) + draw(st.sampled_from([end, ""]))
    return draw(st.sampled_from(["", "\ufeff"])) + text


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("ingest") / "data.csv")


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(text=csv_texts(), block_rows=st.integers(1, 3))
def test_block_reader_agrees_with_the_whole_file_reader(csv_path, text, block_rows):
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)
    _assert_readers_agree(csv_path, block_rows)


# a one-column file: an empty cell is written "", as an empty line is a row of no fields
READ_CASES = {
    "number meets text late":
        ("x\n1\n2\n3\nabc\n4\n", ("text", ["'1'", "'2'", "'3'", "'abc'", "'4'"])),
    "number meets a boolean late":
        ("x\n1\nNA\n2\nTRUE\n", ("text", ["'1'", "''", "'2'", "'TRUE'"])),
    "every boolean token":
        ('b\ntrue\nTRUE\nNA\nfalse\n""\nFALSE\n', ("boolean", ["True"] * 2 + ["False"] * 4)),
    "boolean broken late":
        ("b\nTRUE\nfalse\nNA\nyes\n", ("text", ["'TRUE'", "'false'", "''", "'yes'"])),
    "boolean broken by a number":
        ('b\ntrue\n""\nFALSE\n0\n', ("text", ["'true'", "''", "'FALSE'", "'0'"])),
    "missing then numbers":
        ('x\nNA\n""\nNA\n2.5\n', ("number", ["0.0"] * 3 + ["2.5"])),
    "missing then text":
        ('x\nNA\n""\nNA\nabc\n', ("text", ["''"] * 3 + ["'abc'"])),
    "missing then booleans":
        ('x\nNA\n""\nNA\nTRUE\nfalse\n', ("boolean", ["False"] * 3 + ["True", "False"])),
    "missing then numbers then text":
        ('x\n""\nNA\n1\n""\nz\n', ("text", ["''", "''", "'1'", "''", "'z'"])),
    "all missing": ('x\nNA\n""\nNA\n""\n', ("number", ["0.0"] * 4)),
    "nan and inf":
        ("x\nnan\ninf\n-inf\nNaN\n1\n", ("number", ["nan", "inf", "-inf", "nan", "1.0"])),
    # Python's float reads these two, R's type.convert does not
    "an underscore in a number late": ("x\n1\n2\n1_000\n", ("text", ["'1'", "'2'", "'1_000'"])),
    "digits other than ASCII late": ("x\n1\n\u0661\u0662\n", ("text", ["'1'", "'\u0661\u0662'"])),
}


@pytest.mark.parametrize("block_rows", [1, 2, 3, WHOLE_FILE])
@pytest.mark.parametrize("text, expected", READ_CASES.values(), ids=list(READ_CASES))
def test_a_column_typed_across_blocks(tmp_path, block_rows, text, expected):
    path = tmp_path / "data.csv"
    path.write_text(text)
    (column,) = _assert_readers_agree(str(path), block_rows)
    assert column[1:3] == expected


ERROR_CASES = {
    # three quoted fields hold the three line breaks, each one more line
    "short row after line breaks": (
        'x,y\n"a\nb",1\n"c\rd",2\n"e\r\nf",3\n4\n', "line 8: expected 2 fields, got 1"
    ),
    "long row after line breaks": (
        'x,y\r\n"a\r\nb",1\r\n"c\nd",2\r\n5,6\r\n7,8,9\r\n', "line 7: expected 2 fields, got 3"
    ),
    "empty file": ("", "empty file"),
    "a name taken twice": ("x,x\n1,2\n3,4\n5,6\n", "duplicate column name 'x'"),
}


@pytest.mark.parametrize("block_rows", [1, 2, 3, WHOLE_FILE])
@pytest.mark.parametrize("text, message", ERROR_CASES.values(), ids=list(ERROR_CASES))
def test_an_error_is_reported_as_it_was(tmp_path, block_rows, text, message):
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode())
    assert _assert_readers_agree(str(path), block_rows) == f"{path}: {message}"


@pytest.mark.parametrize("block_rows", [1, 2, WHOLE_FILE])
def test_an_unreadable_cell_after_a_short_row_is_reported(tmp_path, block_rows):
    path = tmp_path / "data.csv"
    # the byte that does not decode comes well after the first chunk the file is read in
    path.write_bytes(b"x,y\n1,2\n3\n" + b"4,5\n" * 10_000 + b"6,\xff\n")
    message = _assert_readers_agree(str(path), block_rows)
    assert message.startswith(f"cannot read {path}: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize("block_rows", [1, WHOLE_FILE])
@pytest.mark.parametrize("text", ["\ufeffx,y\n1,a\n2,b\n", "x,y\n", "x,y"],
                         ids=["byte-order mark", "header only", "header without line end"])
def test_a_header_and_its_columns(tmp_path, block_rows, text):
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8")
    columns = _assert_readers_agree(str(path), block_rows)
    assert [c[:2] for c in columns] == [("x", "number"), ("y", "text" if "a" in text else "number")]


def test_a_text_column_holds_each_distinct_text_once(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("s\n" + "abc\nxyz\n" * 50)
    with mock.patch.object(frame, "_BLOCK_ROWS", 7):
        values = ingest_csv(str(path)).column("s").values
    assert len(set(map(id, values))) == 2


class TestMostlyDistinctText:
    """A text column with more than ``_DISTINCT_CAP`` distinct texts, more
    than half its cells, stops deduplicating: its later cells stay as read."""

    CAP = frame._DISTINCT_CAP

    def _read(self, tmp_path, cells: list[str]):
        path = tmp_path / "data.csv"
        path.write_text("s\n" + "".join((c or '""') + "\n" for c in cells))
        with mock.patch.object(frame, "_BLOCK_ROWS", 100):
            return ingest_csv(str(path)).column("s")

    def test_a_mostly_distinct_column_keeps_no_dict_after_the_cap(self, tmp_path):
        cells = ["early"] * 10 + [f"id{i}" for i in range(self.CAP + 200)] + ["late"] * 10
        col = self._read(tmp_path, cells)
        assert (col.type, col.values) == ("text", cells)
        assert len(set(map(id, col.values[:10]))) == 1  # deduplicated before the cap
        assert len(set(map(id, col.values[-10:]))) == 10  # not after it
        reader = frame._ColumnReader()
        for start in range(0, len(cells), 100):
            reader.add(tuple(cells[start : start + 100]))
        assert reader.distinct is None

    def test_a_column_of_repeats_keeps_its_dict(self, tmp_path):
        # as many distinct texts, but each twice: never more than half the cells
        cells = [f"id{i // 2}" for i in range(2 * self.CAP + 400)] + ["late"] * 10
        col = self._read(tmp_path, cells)
        assert col.values == cells
        assert len(set(map(id, col.values[-10:]))) == 1

    def test_a_column_past_the_cap_is_never_boolean(self, tmp_path):
        cells = [f"id{i}" for i in range(self.CAP + 1)] + ["TRUE", "false", "NA", ""] * 50
        col = self._read(tmp_path, cells)
        assert col.type == "text"
        assert col.cells() == cells[: self.CAP + 1] + ["TRUE", "false", None, None] * 50


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("block_rows", [7, WHOLE_FILE])
def test_data_from_a_pipe_reads_as_from_the_file(tmp_path, block_rows):
    fifo = tmp_path / "data.csv"
    os.mkfifo(fifo)
    with open(SAMPLE_DATA, "rb") as fh:
        data = fh.read()

    def write():
        with open(fifo, "wb") as pipe:  # waits until the reader opens the pipe
            pipe.write(data)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    with mock.patch.object(frame, "_BLOCK_ROWS", block_rows):
        from_pipe = ingest_csv(str(fifo))
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert from_pipe == ingest_csv(SAMPLE_DATA)
