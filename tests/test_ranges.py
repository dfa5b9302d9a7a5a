"""A plain CSV file read in byte ranges, each split at its commas.

``frame.read_csv`` reads a regular file as plain (no quote, NUL or lone
carriage return) in byte ranges, one per worker process and at most one per
full block of ``frame._BLOCK_ROWS`` rows, and any other file, or a regular
one whose ranges meet a block that is not plain or a line ``csv.reader``
would read otherwise, by ``csv.reader``. Either way the frame, the
validation and every error must be those of the ``csv.reader`` path.
"""

import csv
import os
import signal
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import legacy_ingest
from checkmate import cli, frame
from checkmate.engine import confront, confront_csv
from checkmate.frame import ingest_csv, read_csv
from checkmate.rules import new_ruleset

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="ranges are read by forked workers")


def _rules(*sources):
    rs, warnings = new_ruleset([(None, s) for s in sources])
    assert not warnings
    return rs


def _write(tmp_path, data: bytes, name: str = "data.csv") -> str:
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


def _outcome_of(run):
    """What ``run()`` gives, a validation's creation time masked; or its error's type and
    message."""
    try:
        got = run()
    except Exception as err:
        return type(err), str(err)
    if hasattr(got, "created"):
        got.created = None
    return got


def _by_csv_reader():
    """A context in which every file is read by ``csv.reader``."""
    return mock.patch.object(frame, "_plain", lambda path, workers: None)


@pytest.fixture
def ranges(monkeypatch):
    """The list of range counts read by forked workers since, a file of two
    or more blocks being cut into up to as many ranges as there are workers."""
    made, forked = [], frame._forked

    def recorded(fn, items, workers):
        if workers > 1:
            made.append(workers)
        return forked(fn, items, workers)

    monkeypatch.setattr(frame, "_forked", recorded)
    return made


def _rows(*rows: str, header: str = "x,y") -> bytes:
    return (header + "\n" + "".join(r + "\n" for r in rows)).encode()


# ---------------------------------------------------------------------------
# What is plain
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("data", [
    b'x,y\n1,2\n3,"4"\n', b"x,y\n1,2\n3,4\x00\n", b"x,y\n1,2\r3,4\n", b"x,y\n1,2\n3,4\r",
    b"x,y\r\n1,2\r\r\n", b'"x",y\n1,2\n',
], ids=["quote", "nul", "lone-cr", "cr-at-the-end", "cr-before-crlf", "quoted-header"])
def test_a_file_that_is_not_plain_takes_the_csv_reader_path(tmp_path, data):
    path = _write(tmp_path, data)
    with mock.patch.object(frame, "_row_blocks", wraps=frame._row_blocks) as by_csv_reader:
        got = _outcome_of(lambda: ingest_csv(path))
    assert by_csv_reader.call_count == 1
    assert got == _outcome_of(lambda: legacy_ingest.ingest_csv(path))


@pytest.mark.parametrize("data", [
    b"x,y\r\n1,2\r\n3,4\r\n", b"\xef\xbb\xbfx,y\n1,2\n3,4\n", b"x,y\n1,2\n3,4",
    b"x,y\r\n1,2\n3,4\r\n", b"x\n", b"x,y",
], ids=["crlf", "bom", "no-final-newline", "mixed-line-ends", "header-only", "header-alone"])
def test_a_plain_file_reads_as_the_csv_reader_reads_it(tmp_path, data):
    path = _write(tmp_path, data)
    assert frame._plain(path, 1) is not None
    with mock.patch.object(frame, "_row_blocks", side_effect=AssertionError("not plain")):
        df = ingest_csv(path)
    assert df == legacy_ingest.ingest_csv(path)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_pipe_is_not_plain(tmp_path):
    fifo = tmp_path / "data.csv"
    os.mkfifo(fifo)
    assert frame._plain(str(fifo), 2) is None  # and it is not opened, so not drained


def test_ranges_are_cut_just_after_a_newline_one_per_full_block(tmp_path, monkeypatch):
    monkeypatch.setattr(frame, "_BLOCK_ROWS", 2)  # two lines of 5 bytes: 10 bytes
    for rows, end, workers, count in [
        (3, "\n", 4, 1),  # fewer than two blocks
        (4, "\n", 2, 2), (4, "\n", 1, 1),  # two blocks
        (4, "", 2, 1),  # two blocks but for the last newline: 19 bytes
        (40, "\n", 4, 4), (40, "", 4, 4), (9, "\n", 9, 4),  # more blocks than ranges
        (0, "\n", 2, 1), (0, "", 2, 1),  # the header alone
    ]:
        data = "\n".join(["x,y", *(f"{i:02},y" for i in range(rows))]) + end
        path = _write(tmp_path, data.encode())
        header, spans = frame._plain(path, workers)
        assert (header, len(spans)) == (["x", "y"], count)
        assert spans[0][0] == min(len("x,y\n"), len(data)) and spans[-1][1] == len(data)
        assert all(a < b == c for (a, b), (c, _) in zip(spans, spans[1:]))
        assert all(data[b - 1] == "\n" for _, b in spans[:-1])


# ---------------------------------------------------------------------------
# Random plain files, in 1 to 3 ranges, against the whole-file reader
# ---------------------------------------------------------------------------

PLAIN_CELLS = ["0", "-2.5", "1e3", " 7 ", "nan", "inf", "abc", "x y", "true", "FALSE", "TRUE",
               "NA", "", "1_0", "\u0663"]


@st.composite
def plain_files(draw):
    """The bytes of a plain CSV file: columns that mostly keep to one kind of
    cell, LF or CRLF line ends, with or without a byte-order mark and a last
    line end."""
    width = draw(st.integers(1, 3))
    pools = [draw(st.sampled_from([["0", "-2.5", "1e3", " 7 ", "nan", "inf"], ["abc", "x y"],
                                   ["true", "FALSE", "TRUE"]])) + ["NA", ""]
             for _ in range(width)]
    rows = [["x", "y", "z"][:width]]
    for _ in range(draw(st.integers(0, 12))):
        rows.append([draw(st.sampled_from(pool if draw(st.integers(0, 7)) else PLAIN_CELLS))
                     for pool in pools])
    if width == 1:  # an empty line is no row of one empty cell
        rows = [row if row != [""] else ["NA"] for row in rows]
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(map(",".join, rows)) + draw(st.sampled_from([end, ""]))
    return (draw(st.sampled_from(["", "\ufeff"])) + text).encode()


@pytest.fixture(scope="module")
def plain_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("plain") / "data.csv")


@needs_fork
@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(data=plain_files(), block_rows=st.integers(1, 3), workers=st.integers(1, 3))
def test_a_plain_file_in_ranges_reads_as_the_whole_file_reader(plain_path, data, block_rows,
                                                                workers):
    with open(plain_path, "wb") as fh:
        fh.write(data)
    assert frame._plain(plain_path, workers) is not None
    with mock.patch.object(frame, "_BLOCK_ROWS", block_rows):
        got = _outcome_of(lambda: read_csv(plain_path, workers=workers))
    assert got == _outcome_of(lambda: legacy_ingest.ingest_csv(plain_path))


# ---------------------------------------------------------------------------
# Each hazard of reading in ranges: the csv.reader path's result
# ---------------------------------------------------------------------------

# eight rows in blocks of two, so that two ranges split them four and four
EIGHT = [f"r{i},{i}" for i in range(8)]


def _assert_ranges_read_as_csv_reader(tmp_path, ranges, data: bytes, rs, key=None,
                                      opts=None):
    path = _write(tmp_path, data)
    with mock.patch.object(frame, "_BLOCK_ROWS", 2):
        with _by_csv_reader():
            expected = _outcome_of(lambda: confront_csv(path, rs, key=key, opts=opts))
        got = _outcome_of(lambda: confront_csv(path, rs, key=key, opts=opts, workers=2))
    assert ranges == [2]
    assert got == expected
    return got


# each line and the error csv.reader reports, or None where it reads the file
SECOND_RANGE_PROBLEMS = {
    "empty line": (EIGHT[:6] + ["", "r7,7"], "line 8: expected 2 fields, got 0"),
    "short row": (EIGHT[:6] + ["r6"] + EIGHT[7:], "line 8: expected 2 fields, got 1"),
    "long row": (EIGHT[:6] + ["r6,6,6"] + EIGHT[7:], "line 8: expected 2 fields, got 3"),
    "over-long field": (EIGHT[:6] + ["r6," + "9" * 200] + EIGHT[7:], "field larger than"),
    "bad UTF-8": (EIGHT[:6] + ["r6,\udcff"] + EIGHT[7:], "can't decode byte 0xff"),
    "quote": (EIGHT[:6] + ['r6,"6"'] + EIGHT[7:], None),
    "quoted comma": (EIGHT[:6] + ['r6,"6,5"'] + EIGHT[7:], None),
    "NUL": (EIGHT[:6] + ["r6,6\0"] + EIGHT[7:],
            None if sys.version_info >= (3, 11) else "line contains NUL"),
    "lone CR": (EIGHT[:6] + ["r6,6\rr6b,5"] + EIGHT[7:], None),
}


@needs_fork
@pytest.mark.parametrize("problem", SECOND_RANGE_PROBLEMS)
def test_a_problem_in_the_second_range_is_the_csv_reader_error(tmp_path, ranges,
                                                                request, problem):
    lines, message = SECOND_RANGE_PROBLEMS[problem]
    data = ("id,x\n" + "".join(line + "\n" for line in lines)).encode("utf-8", "surrogateescape")
    old = csv.field_size_limit(100)  # the forked workers inherit it
    request.addfinalizer(lambda: csv.field_size_limit(old))
    got = _assert_ranges_read_as_csv_reader(tmp_path, ranges, data,
                                            _rules("x >= 0"))
    if message is None:
        assert got.n_records == len(lines) + ("\r" in "".join(lines))
    else:
        assert got[0] is frame.DataError and message in got[1]


@needs_fork
def test_a_missing_key_cell_in_the_second_range(tmp_path, ranges):
    data = _rows(*EIGHT[:6], ",6", *EIGHT[7:], header="id,x")
    err = _assert_ranges_read_as_csv_reader(tmp_path, ranges, data,
                                            _rules("x >= 0", "mean(x) > 0"), key="id")
    assert err == (frame.DataError, "key column 'id' has missing cells")


@needs_fork
@pytest.mark.parametrize("rules", [("x >= 0",), ("x >= 0", "is_unique(x)"), ("ncol(.) == 2",)],
                         ids=["passed-on", "held", "frame"])
@pytest.mark.parametrize("late", ["text", "TRUE", "NA"])
def test_a_kind_that_changes_between_ranges(tmp_path, ranges, rules, late):
    rows = EIGHT[:6] + [f"r6,{late}", f"r7,{late}"]
    v = _assert_ranges_read_as_csv_reader(tmp_path, ranges,
                                          _rows(*rows, header="id,x"), _rules(*rules), key="id")
    assert v.n_records == 8


@needs_fork
@pytest.mark.parametrize("cell", ["text", "TRUE"])
@pytest.mark.parametrize("missing_first", [False, True], ids=["missing-last", "missing-first"])
def test_a_column_all_missing_in_one_range_takes_the_kind_of_the_other(tmp_path, ranges, cell,
                                                                      missing_first):
    cells = [cell] * 4 + ["NA"] * 4
    rows = [f"r{i},{c}" for i, c in enumerate(cells[::-1] if missing_first else cells)]
    path = _write(tmp_path, _rows(*rows, header="id,note"))
    with mock.patch.object(frame, "_BLOCK_ROWS", 2), \
            mock.patch.object(frame, "_row_blocks", wraps=frame._row_blocks) as by_csv_reader:
        df = read_csv(path, workers=2)
    assert ranges == [2] and by_csv_reader.call_count == 0  # read once, in two ranges
    assert df == legacy_ingest.ingest_csv(path)


@needs_fork
@pytest.mark.parametrize("raise_", ["none", "error", "all"])
@pytest.mark.parametrize("late", ["-1", "abc"], ids=["warning", "error"])
def test_the_first_warning_or_error_in_the_second_range(tmp_path, ranges, raise_,
                                                        late):
    # x^0.5 of -1 warns "NaNs produced"; of a text cell, in a block of text, it errors
    rows = [f"r{i},{i},{i}" for i in range(6)] + [f"r6,{late},{late}", "r7,7,-2"]
    rs = _rules("x^0.5 >= 0", "y^0.5 >= 0", "mean(y) > 0")
    got = _assert_ranges_read_as_csv_reader(tmp_path, ranges,
                                            _rows(*rows, header="id,x,y"), rs, key="id",
                                            opts={"raise": raise_})
    raised = raise_ == "all" or raise_ == "error" and late == "abc"
    assert isinstance(got, tuple) is raised
    if not raised:
        first = got.outcomes[0]
        assert (first.warnings, first.error is None) == (
            (["NaNs produced"], True) if late == "-1" else ([], False))


@needs_fork
def test_ranges_give_the_validation_of_one_process(tmp_path, ranges):
    rows = [f"r{i},{i % 5 - 1},{'ab'[i % 2]}{i},{'TRUE' if i % 3 else 'NA'}" for i in range(40)]
    rs = _rules("x >= 0", "grepl('a', s)", "b | x > 1", "mean(x) > 0", "is_unique(id)",
                "nrow(.) == 40", "if (x > 1) s != 'a3'")
    for na_value in ["NA", True, False]:
        ranges.clear()
        v = _assert_ranges_read_as_csv_reader(tmp_path, ranges,
                                              _rows(*rows, header="id,x,s,b"), rs, key="id",
                                              opts={"na.value": na_value})
        assert v.n_records == 40 and v.key_values[39] == "r39"


# ---------------------------------------------------------------------------
# The CLI's workers
# ---------------------------------------------------------------------------


@pytest.fixture
def survey(tmp_path):
    rows = [f"r{i},{i % 7 - 1},city{i % 3}" for i in range(64)]
    data = _write(tmp_path, _rows(*rows, header="id,x,city"))
    rules = tmp_path / "rules.txt"
    rules.write_text("x >= 0\nmean(x) > 0\nis_unique(id)\n")
    return ["check", data, "--rules", str(rules), "--key", "id", "--format", "csv"]


@needs_fork
def test_a_killed_worker_is_an_internal_error(survey, usable_cpus, monkeypatch, capsys):
    pools = usable_cpus(2)
    monkeypatch.setattr(frame, "_BLOCK_ROWS", 8)
    test_pid, cells = os.getpid(), frame._cells

    def killed_in_a_child(data, width):
        if os.getpid() != test_pid:
            os.kill(os.getpid(), signal.SIGKILL)
        return cells(data, width)

    monkeypatch.setattr(frame, "_cells", killed_in_a_child)
    assert cli.main(survey) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: internal: RuntimeError: a worker process exited with code -9 and no "
                   "result\n")
    assert pools == [2]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [1, 2], ids=["in-process", "workers"])
def test_check_forks_one_worker_per_usable_cpu(survey, usable_cpus, monkeypatch, capsys, cpus):
    pools = usable_cpus(cpus)
    monkeypatch.setattr(frame, "_BLOCK_ROWS", 8)
    assert cli.main(survey) == 1
    out = capsys.readouterr().out
    assert pools == ([2] if cpus > 1 else [])
    usable_cpus(1)
    assert cli.main(survey) == 1
    assert capsys.readouterr().out == out


@needs_fork
def test_a_file_forks_a_worker_from_two_full_blocks(tmp_path, usable_cpus, monkeypatch):
    pools = usable_cpus(2)
    monkeypatch.setattr(frame, "_BLOCK_ROWS", 8)
    rules = tmp_path / "rules.txt"
    rules.write_text("x >= 0\n")
    for rows, forked in [(15, []), (16, [2])]:  # lines of one length
        data = _write(tmp_path, _rows(*(f"r{i:02},{i % 7}" for i in range(rows)), header="id,x"))
        assert cli.main(["check", data, "--rules", str(rules), "--out", os.devnull]) == 0
        assert pools == forked


# ---------------------------------------------------------------------------
# A column no rule reads is never converted
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cpus", [1, 2], ids=["in-process", "workers"])
@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "csv-reader"])
def test_a_column_no_rule_reads_is_never_converted(tmp_path, monkeypatch, usable_cpus, quoted,
                                                   cpus):
    usable_cpus(cpus)
    # u is numbers, then text from row 20 on; no rule reads it
    rows = [f"r{i},{i % 5},{1000 + i if i < 20 else f'late{i}'}" for i in range(40)]
    text = _rows(*rows, header="id,x,u").decode()
    if quoted:
        text = text.replace("late", '"late')
        text = "\n".join(line + '"' if '"' in line else line for line in text.split("\n"))
    path = _write(tmp_path, text.encode())
    read, add = [], frame._ColumnReader.add

    def recording(self, raw):
        read.extend(raw)
        add(self, raw)

    monkeypatch.setattr(frame, "_BLOCK_ROWS", 4)
    rs = _rules("x >= 0", "is_unique(id)")
    whole = _outcome_of(lambda: confront(legacy_ingest.ingest_csv(path), rs, key="id"))
    monkeypatch.setattr(frame._ColumnReader, "add", recording)
    with mock.patch.object(frame, "_row_blocks", wraps=frame._row_blocks) as by_csv_reader:
        got = _outcome_of(lambda: confront_csv(path, rs, key="id", workers=cpus))
    assert by_csv_reader.call_count == quoted  # a quote sends the file to csv.reader, once
    assert got == whole
    assert "r39" in read or cpus > 1  # a child's reads are not seen here
    assert not {c for c in read if c.startswith(("10", "late"))}
