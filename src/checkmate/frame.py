"""Minimal typed data frame and its CSV input.

A vector (``Value``) has a kind, ``number``, ``text`` or ``logical``, and
stores its values with missing cells filled (``0.0``, ``""`` or ``False``)
next to the sorted indices of its missing cells. A frame holds named
equal-length columns, each a vector with a name, and its row count, given
when it has no column. A number column keeps its cells in an ``array('d')``,
8 bytes a cell; every other vector keeps a list. A CSV file is read a block
of rows at a time, a plain one of two or more blocks in byte ranges that
forked workers may share, and ``read_csv`` may pass some columns on block by
block instead of holding them.
"""

from __future__ import annotations

import csv
import gc
import os
import sys
from array import array
from bisect import bisect_left
from itertools import chain, compress, islice, repeat
from operator import lt

from .errors import DataError
from .record import Record

FILLERS = {"number": 0.0, "text": "", "logical": False}  # by kind: the value at a missing cell
_KIND_OF_TYPE = {"number": "number", "text": "text", "boolean": "logical"}  # column type -> kind


def fill(values: list, na, filler) -> list:
    """Put ``filler`` at the row indices ``na`` of ``values``, in place."""
    for i in na:
        values[i] = filler
    return values


class Value(Record):
    """A typed vector: ``values`` holds ``FILLERS[kind]`` at the missing cells,
    whose sorted indices are ``na``.

    A number vector's ``values`` is any sequence of floats that supports
    iteration, indexing, ``len``, slicing and ``* n``: an ``array('d')`` in a
    frame column, a list in a result of evaluation. Code that reads vectors
    does not tell the two apart."""

    __slots__ = _fields = ("kind", "values", "na")
    frame = None  # a whole dataset, for the evaluator's value of '.'; a vector has none

    def __init__(self, kind: str, values: list | None = None, na: tuple = ()):
        self.kind = kind
        self.values = [] if values is None else values
        self.na = na

    def __len__(self):
        return len(self.values)

    def __eq__(self, other):
        """Equal fields, where a NaN cell equals a NaN at the same index, as a
        copy of the vector has NaN objects of its own or, in an array, none."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        a, b = self.values, other.values
        same = a == b or len(a) == len(b) and all(x == y or x != x and y != y for x, y in zip(a, b))
        fields = [f for f in self._fields if f != "values"]
        return same and all(getattr(self, f) == getattr(other, f) for f in fields)

    @property
    def cells(self) -> list:
        """The values with None at missing cells."""
        return fill(list(self.values), self.na, None)


class Column(Value):
    """A named vector, made from its column type: number, text or boolean
    (kind ``logical``). A number column keeps integer cells as doubles, as R does."""

    __slots__ = ("name",)
    _fields = ("name", "type", "values", "na")

    def __init__(self, name: str, type: str, values, na=()):
        if type not in _KIND_OF_TYPE:
            raise DataError(f"unknown column type {type!r}")
        kind = _KIND_OF_TYPE[type]
        if kind == "number" and getattr(values, "typecode", None) != "d":
            try:
                values = array("d", values)
            except (OverflowError, TypeError) as err:  # 10**400, say, or a text cell
                raise DataError(f"column {name!r}: a cell is not a double: {err}") from err
        na = tuple(na)
        if na and not (0 <= na[0] and na[-1] < len(values) and all(map(lt, na, na[1:]))):
            raise DataError(f"column {name!r}: missing-cell indices out of order or range")
        self.name, self.kind, self.values, self.na = name, kind, values, na

    @property
    def type(self) -> str:
        return "boolean" if self.kind == "logical" else self.kind

    @property
    def missing(self) -> list[bool]:
        """Per-cell missingness, derived from ``na``."""
        return fill([False] * len(self.values), self.na, True)

    cells = Value.cells.fget  # on a column a method: column.cells()


class DataFrame(Record):
    _fields = ("columns",)
    __slots__ = (*_fields, "_by_name", "n")

    def __init__(self, columns: list[Column] | None = None, n: int = 0):
        self.columns = [] if columns is None else columns
        self._by_name = {c.name: c for c in self.columns}
        if len(self._by_name) != len(self.columns):
            # the first column whose name a later column takes again
            name = next(c.name for c in self.columns if self._by_name[c.name] is not c)
            raise DataError(f"duplicate column name {name!r}")
        lengths = {len(c.values) for c in self.columns}
        if len(lengths) > 1:
            raise DataError("columns differ in length")
        self.n = lengths.pop() if lengths else n

    @property
    def names(self) -> list[str]:
        return [c.name for c in self.columns]

    def column(self, name: str) -> Column:
        try:
            return self._by_name[name]
        except KeyError:
            raise DataError(f"no column named {name!r}") from None

    def has_column(self, name: str) -> bool:
        return name in self._by_name

    def get(self, name: str) -> Column | None:
        """The column named ``name``, or None."""
        return self._by_name.get(name)


def _infer_type(name: str, cells: list) -> str:
    """The type the present cells share; number when no cell is present."""
    present = [v for v in cells if v is not None]
    if present and all(isinstance(v, bool) for v in present):
        return "boolean"
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in present):
        return "number"
    if all(isinstance(v, str) for v in present):
        return "text"
    raise DataError(f"column {name!r}: mixed cell types")


def from_dict(data: dict[str, list], types: dict[str, str] | None = None) -> DataFrame:
    """Build a frame from name -> cell-list pairs; None marks a missing cell.

    A type given in ``types`` must be the one the column's present cells share.
    Number cells are stored as doubles: an integer no double holds is a
    DataError naming the column."""
    types = types or {}
    cols = []
    for name, cells in data.items():
        inferred = _infer_type(name, cells)
        ctype = types.get(name) or inferred
        na = tuple(i for i, v in enumerate(cells) if v is None)
        if ctype != inferred and ctype in _KIND_OF_TYPE and len(na) < len(cells):
            raise DataError(f"column {name!r}: declared {ctype}, but its cells are {inferred}")
        filler = FILLERS.get(_KIND_OF_TYPE.get(ctype))
        cols.append(Column(name, ctype, [filler if v is None else v for v in cells], na))
    return DataFrame(cols)


# ---------------------------------------------------------------------------
# CSV input
# ---------------------------------------------------------------------------

_MISSING_TOKENS = frozenset(("", "NA"))
# each cell of a boolean column mapped to its value, missing tokens to the filler
_BOOL_CELLS = {"true": True, "TRUE": True, "false": False, "FALSE": False,
               **dict.fromkeys(_MISSING_TOKENS, False)}
_BLOCK_ROWS = 1024  # rows read and converted at a time; only one block is held as strings
_DISTINCT_CAP = 2048  # distinct texts past which a mostly-distinct column keeps no dict


def beyond_r_numbers(text: str) -> bool:
    """Whether ``text`` holds what Python's ``float`` reads in a number and R's
    ``type.convert`` does not: an underscore or a character outside ASCII."""
    return "_" in text or not text.isascii()


class _ColumnReader:
    """One CSV column, converted a block of cells at a time.

    A column is a number column until a cell that is not missing fails to
    parse as a decimal or is ``beyond_r_numbers``. Until then it keeps each
    block's cells joined by NUL, which no decimal holds; from those it becomes
    a text column, whose cells go through ``distinct`` so that each distinct
    text is one object. A column with more than ``_DISTINCT_CAP`` distinct
    texts, more than half its cells, drops ``distinct`` and keeps later cells
    as read. A text column whose cells are all true/false or missing is
    boolean. Unless ``held``, it keeps only the last block's cells.
    """

    __slots__ = ("na", "values", "joined", "distinct", "held")

    def __init__(self):
        self.na: list[int] = []
        self.values = array("d")  # the numbers; a list of texts once the column is text
        self.joined: list[str] | None = []  # a number column's cells, a string per block
        self.distinct: dict[str, str] | None = {}  # None once the column is mostly distinct
        self.held = True

    def add(self, raw: tuple[str, ...]) -> None:
        if not self.held:  # the last block's cells go; a number column stays one
            self.na, self.values, self.joined = [], self.values[:0], self.joined and []
        start = len(self.values)
        missing = list(compress(range(len(raw)), map(_MISSING_TOKENS.__contains__, raw)))
        self.na += map(start.__add__, missing)
        if self.joined is not None:
            joined = "\0".join(raw)
            try:
                if beyond_r_numbers(joined):  # a cell of this block is text in R
                    raise ValueError
                numbers = list(map(float, fill(list(raw), missing, "0") if missing else raw))
            except ValueError:  # a text column from here on, its cells so far rebuilt
                cells = list(chain.from_iterable(s.split("\0") for s in self.joined))
                self.joined = None
                self.values = list(map(self.distinct.setdefault, cells, cells))
            else:
                self.values.fromlist(numbers)
                self.joined.append(joined)
                return
        if self.distinct is None:
            self.values += raw
            return
        self.values += map(self.distinct.setdefault, raw, raw)
        if len(self.distinct) > _DISTINCT_CAP and 2 * len(self.distinct) > len(self.values):
            self.distinct = None

    def column(self, name: str, start: int | None = None) -> Column:
        """The column read, typed as the cells so far type it: all of it, or a
        copy of its cells from row ``start`` on."""
        values, na = self.values, self.na
        if start is not None:
            values, na = values[start:], [i - start for i in na[bisect_left(na, start):]]
        if self.joined is not None:
            return Column(name, "number", values, na)
        # true/false never parses as a decimal; a column past the cap has too many texts
        if self.distinct is not None and self.distinct.keys() <= _BOOL_CELLS.keys():
            return Column(name, "boolean", list(map(_BOOL_CELLS.__getitem__, values)), na)
        return Column(name, "text", fill(values, na, ""), na)


def _line_after(records: list[list[str]]) -> int:
    """The physical line after a file's first CSV ``records``: each record takes
    one line, and one more for each line break (\\n, \\r or \\r\\n, as the file
    is read) in its quoted fields."""
    fields = chain.from_iterable(records)
    return 1 + len(records) + sum(f.count("\n") + f.count("\r") - f.count("\r\n") for f in fields)


class _Irregular(Exception):
    """A plain read met a line that only ``csv.reader`` reads as it should."""


def _plain(path: str, workers: int) -> tuple[list[str], list[tuple[int, int]]] | None:
    """For a regular file, which is read as plain until a block shows it is
    not: its header and up to ``workers`` byte ranges of its rows, at most
    one per full block (as many bytes as its first block has), cut just
    after a newline; _Irregular if the header line is not plain. Else (a
    pipe, say) None."""
    if not os.path.isfile(path):
        return None
    with open(path, "rb") as fh:
        head = fh.readline()
        header = _cells(head, head.count(b",") + 1)[0]
        header[0] = header[0].removeprefix("\ufeff")
        if header == [""]:
            raise _Irregular
        start, end = len(head), os.fstat(fh.fileno()).st_size
        block = len(_next_lines(fh, end)) or 1  # all the rows, if fewer than a block
        n = max(1, min(workers, (end - start) // block))
        cuts = [start]
        for k in range(1, n):  # just after the first newline from the k-th n-th on
            fh.seek(start + (end - start) * k // n - 1)
            fh.readline()
            cuts.append(fh.tell())
    spans = [(a, b) for a, b in zip(cuts, [*cuts[1:], end]) if a < b]
    return header, spans or [(start, end)]


def _next_lines(fh, end: int) -> bytes:
    """The next ``_BLOCK_ROWS`` lines of ``fh`` before byte ``end``, which
    follows a newline or ends the file."""
    start = fh.tell()
    data = b"".join(islice(fh, _BLOCK_ROWS))
    if fh.tell() > end:  # lines of the next range
        data = data[: end - start]
        fh.seek(end)
    return data


def _cells(data: bytes, width: int) -> tuple[list[str], int]:
    """The cells of lines ``data``, row after row, and the count of rows;
    _Irregular unless they are plain (no quote, NUL or carriage return but
    before a newline) and each has ``width`` fields as ``csv.reader`` reads
    it, none past its size limit (and UnicodeDecodeError unless UTF-8)."""
    if b'"' in data or b"\0" in data or data.count(b"\r") != data.count(b"\r\n"):
        raise _Irregular
    text = data.decode().replace("\r", "")
    if not text.endswith("\n"):  # the file's last line
        text += "\n"
    rows, limit = text.count("\n"), csv.field_size_limit()
    cells = text.replace("\n", "\n,").split(",")  # a line's last cell keeps its newline
    cells.pop()  # the nothing after the last newline
    ends = "".join(cells[width - 1::width])
    if (len(cells) != rows * width or ends.count("\n") != rows  # so every newline ends a line
            or width == 1 and (text[0] == "\n" or "\n\n" in text)  # an empty line has no field
            or len(text) >= limit and max(map(len, cells)) >= limit):
        raise _Irregular
    cells[width - 1::width] = ends.split("\n")[:-1]
    return cells, rows


def _range_blocks(path: str, span: tuple[int, int], width: int):
    """The blocks of a byte range of a plain file, each its cells and its
    count of rows."""
    with open(path, "rb") as fh:
        fh.seek(span[0])
        while data := _next_lines(fh, span[1]):
            yield _cells(data, width)


def _row_blocks(path: str, reader, width: int):
    """The blocks of the rows ``csv.reader`` reads, each its cells and its
    count of rows; a row of other than ``width`` fields is a DataError."""
    start = reader.line_num  # the physical lines before the block
    while block := list(islice(reader, _BLOCK_ROWS)):
        if set(map(len, block)) - {width}:
            i, row = next((i, r) for i, r in enumerate(block) if len(r) != width)
            line = start + _line_after(block[:i])
            for _ in reader:  # an unreadable cell further on is reported instead
                pass
            raise DataError(f"{path}: line {line}: expected {width} fields, got {len(row)}")
        yield list(chain.from_iterable(block)), len(block)
        del block  # freed before the next block is read, not after
        start = reader.line_num


def _planned(plan, header: list[str], blocks) -> tuple:
    """What ``plan(header)`` gives once the first of ``blocks`` is read, if that
    block is full and the header names no column twice, else a plan of
    nothing; and the blocks from the first, let go once the next is asked for."""
    first = list(islice(blocks, 1))
    full = first and first[0][1] == _BLOCK_ROWS and len(set(header)) == len(header)
    return plan(header) if plan and full else (None, (), None), chain(iter(first), blocks)


def _read_blocks(blocks, header: list[str], keep, blocked, on_block) -> tuple[list[Column], int]:
    """The columns ``keep`` names (all when None) and the count of rows of
    ``blocks``; each column ``blocked`` names goes to ``on_block`` block by
    block, as the last rows of a frame, and no other column is converted."""
    width, count = len(header), 0
    columns = [_ColumnReader() for _ in header]
    for c, name in zip(columns, header):
        c.held = keep is None or name in keep
    fed = [(j, c) for j, (c, name) in enumerate(zip(columns, header)) if c.held or name in blocked]
    for cells, rows in blocks:
        for j, c in fed:
            c.add(cells[j::width])
        del cells
        if on_block is not None:
            on_block(DataFrame([c.column(name, len(c.values) - rows)
                                for c, name in zip(columns, header) if name in blocked]))
        count += rows
    return [c.column(name) for c, name in zip(columns, header) if c.held], count


def ingest_csv(path: str) -> DataFrame:
    """Read an RFC-4180 CSV with a header row, inferring column types: ``read_csv`` with no plan."""
    return read_csv(path)


def read_csv(path: str, plan=None, workers: int = 1) -> DataFrame:
    """Read an RFC-4180 CSV with a header row, inferring column types.

    Empty cells and the literal NA are missing. A column is boolean when its
    other cells are true/false (either case) and there is one, number when
    they parse as decimals as R reads them (or there is none, as in
    ``from_dict``), text otherwise. A leading UTF-8 byte-order mark is
    skipped. The file is read front to back, ``_BLOCK_ROWS`` rows at a time.

    A regular file is read as plain, each block split at its commas, in up
    to ``workers`` byte ranges, at most one per full block of rows (one for a
    file of fewer than two blocks): this process reads the first range, a
    forked child each other one. Anything else, a pipe say, is read by
    ``csv.reader``, and so is the whole file after all if a block is not
    plain or has a line ``csv.reader`` would read otherwise or refuse (see
    ``_cells``), or a held column is of another kind in another range and
    neither range has it all missing: the frame and errors are the same
    either way.

    Once a full first block is read, ``plan(header)``, if given, names the
    columns to hold (all when None) and those to pass on, block by block, to
    the function it gives last, as frames typed as the range so far types
    them; the frame returned holds the former, with every row, and no other
    column is converted. That function's ``take()`` gives what a child's
    blocks gave, as ``pickle`` takes it, and ``join`` adds it in, in range
    order. ``plan`` is called again if a plain read is abandoned. A file
    whose header names a column twice is not planned.
    """
    # the blocks and columns hold only strings and floats, so the cyclic
    # collector's passes over them find nothing; it is paused while they grow
    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            plain = _plain(path, workers)
            if plain is not None:
                header, spans = plain
                sources = [_range_blocks(path, span, len(header)) for span in spans]
                return _read_sources(path, plan, header, sources)
        except (_Irregular, OSError, UnicodeDecodeError):
            pass  # csv.reader reads it, or reports what it meets
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)  # reads any file once, so a pipe too
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file") from None
            return _read_sources(path, plan, header, [_row_blocks(path, reader, len(header))])
    except (OSError, UnicodeDecodeError, csv.Error) as err:
        raise DataError(f"cannot read {path}: {err}") from err
    finally:
        if enabled:
            gc.enable()


def _read_sources(path: str, plan, header: list[str], sources: list) -> DataFrame:
    """The frame of the blocks of ``sources``, under ``header``, as ``read_csv``
    reads it: this process reads the first source, a forked child each other
    one, and each source's columns are added in order to those before."""
    (keep, blocked, on_block), sources[0] = _planned(plan, header, sources[0])
    reader = os.getpid()

    def read(blocks) -> tuple:
        """A source's held columns, rows and, in a child, what ``on_block`` took."""
        held, count = _read_blocks(blocks, header, keep, blocked, on_block)
        return held, count, on_block.take() if on_block and os.getpid() != reader else None

    columns, count = None, 0
    for part, n, taken in _forked(read, sources, len(sources)):
        if columns is None:
            columns = part
        else:
            for j, c in enumerate(columns):  # each column of the range added, then dropped
                more = part.pop(0)
                if more.kind != c.kind:
                    c, more = _one_kind(c, more)
                    columns[j] = c
                c.values += more.values
                c.na += tuple(map(count.__add__, more.na))
        if taken is not None:
            on_block.join(taken)
        count += n
    try:  # no record under an empty header
        return DataFrame(columns, count if header else 0)
    except DataError as err:  # a header that names a column twice
        raise DataError(f"{path}: {err}") from None


def _one_kind(a: Column, b: Column) -> tuple[Column, Column]:
    """Columns ``a`` and ``b`` of two kinds as one: the one all missing (read
    as a number column) takes the other's kind, its cells filled as that kind
    fills them; _Irregular if neither is all missing."""
    if len(a.na) == len(a.values):
        return Column(a.name, b.type, [FILLERS[b.kind]] * len(a.values), a.na), b
    if len(b.na) == len(b.values):
        return a, Column(b.name, a.type, [FILLERS[a.kind]] * len(b.values), b.na)
    raise _Irregular


# ---------------------------------------------------------------------------
# Worker processes
# ---------------------------------------------------------------------------


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _forked(fn, items: list, workers: int):
    """``fn`` of each item (a data file, or the blocks of a byte range of one),
    in order, as asked for: all made here with fewer than two ``workers`` or
    no ``os.fork``, else dealt out in turn to ``workers`` processes. This one
    does the first of each round, and a forked child each other one, sending
    a pickle of each result (or of its first error) into a pipe as it makes
    it, unpickled here."""
    if workers < 2 or not hasattr(os, "fork"):
        yield from map(fn, items)
        return
    import pickle
    import signal

    # a child would write out again what is still buffered here
    sys.stdout.flush()
    sys.stderr.flush()
    pids, pipes = [], {}  # the j-th child does items[j::workers]; pid -> read end, until reaped
    try:
        for first in range(1, workers):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child: it leaves only through os._exit
                try:
                    with open(w, "wb") as pipe:
                        try:  # sent as made: the write waits for the parent to read it
                            for item in items[first::workers]:
                                pickle.dump(fn(item), pipe)
                                pipe.flush()
                        except Exception as err:  # the parent raises it after the files before it
                            pickle.dump(err, pipe)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(w)
            pids.append(pid)
            pipes[pid] = open(r, "rb")
        for i, item in enumerate(items):
            if not i % workers:
                yield fn(item)  # an error here comes before those of later files
                continue
            pid = pids[i % workers - 1]
            try:
                result = pickle.load(pipes[pid])
            except (EOFError, pickle.UnpicklingError):  # nothing, or a cut stream
                result = None
            if i + workers >= len(items) or result is None or isinstance(result, Exception):
                pipes.pop(pid).close()  # the child's last, or it sends no more
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                if code or result is None:
                    raise RuntimeError(f"a worker process exited with code {code} and no result")
                if isinstance(result, Exception):
                    raise result
            yield result
            del result  # else it is held while the next one is unpickled
    finally:  # left early: stop the children still at work
        for pid, pipe in pipes.items():
            os.kill(pid, signal.SIGKILL)
            pipe.close()
            os.waitpid(pid, 0)
