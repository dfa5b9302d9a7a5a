"""Minimal typed data frame and its CSV input.

A vector (``Value``) has a kind, ``number``, ``text`` or ``logical``, and
stores its values with missing cells filled (``0.0``, ``""`` or ``False``)
next to the sorted indices of its missing cells. A frame holds named
equal-length columns, each a vector with a name.
"""

from __future__ import annotations

import csv
import gc
from itertools import chain, compress, filterfalse
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
    whose sorted indices are ``na``."""

    __slots__ = _fields = ("kind", "values", "na")
    frame = None  # a whole dataset, for the evaluator's value of '.'; a vector has none

    def __init__(self, kind: str, values: list | None = None, na: tuple = ()):
        self.kind = kind
        self.values = [] if values is None else values
        self.na = na

    def __len__(self):
        return len(self.values)

    @property
    def cells(self) -> list:
        """The values with None at missing cells."""
        return fill(list(self.values), self.na, None)


class Column(Value):
    """A named vector, made from its column type: number, text or boolean
    (kind ``logical``)."""

    __slots__ = ("name",)
    _fields = ("name", "type", "values", "na")

    def __init__(self, name: str, type: str, values: list, na=()):
        if type not in _KIND_OF_TYPE:
            raise DataError(f"unknown column type {type!r}")
        na = tuple(na)
        if na and not (0 <= na[0] and na[-1] < len(values) and all(map(lt, na, na[1:]))):
            raise DataError(f"column {name!r}: missing-cell indices out of order or range")
        self.name, self.kind, self.values, self.na = name, _KIND_OF_TYPE[type], values, na

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
    __slots__ = (*_fields, "_by_name")

    def __init__(self, columns: list[Column] | None = None):
        self.columns = [] if columns is None else columns
        self._by_name = {c.name: c for c in self.columns}
        if len(self._by_name) != len(self.columns):
            # the first column whose name a later column takes again
            name = next(c.name for c in self.columns if self._by_name[c.name] is not c)
            raise DataError(f"duplicate column name {name!r}")
        lengths = {len(c.values) for c in self.columns}
        if len(lengths) > 1:
            raise DataError("columns differ in length")

    @property
    def n(self) -> int:
        return len(self.columns[0].values) if self.columns else 0

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


def _infer_type(cells: list) -> str:
    present = [v for v in cells if v is not None]
    if present and all(isinstance(v, bool) for v in present):
        return "boolean"
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in present):
        return "number"
    if all(isinstance(v, str) for v in present):
        return "text"
    raise DataError("mixed cell types in one column")


def from_dict(data: dict[str, list], types: dict[str, str] | None = None) -> DataFrame:
    """Build a frame from name -> cell-list pairs; None marks a missing cell."""
    types = types or {}
    cols = []
    for name, cells in data.items():
        ctype = types.get(name) or _infer_type(cells)
        filler = FILLERS.get(_KIND_OF_TYPE.get(ctype))
        na = tuple(i for i, v in enumerate(cells) if v is None)
        cols.append(Column(name, ctype, [filler if v is None else v for v in cells], na))
    return DataFrame(cols)


# ---------------------------------------------------------------------------
# CSV input
# ---------------------------------------------------------------------------

_MISSING_TOKENS = frozenset(("", "NA"))
_BOOL_TOKENS = {"true": True, "TRUE": True, "false": False, "FALSE": False}
# each token mapped to its value, missing tokens to the filler
_BOOL_CELLS = {**_BOOL_TOKENS, **dict.fromkeys(_MISSING_TOKENS, False)}


def _column(name: str, raw: tuple[str, ...]) -> Column:
    """Classify and convert one column of CSV text, each step one C-level pass."""
    na = tuple(compress(range(len(raw)), map(_MISSING_TOKENS.__contains__, raw)))
    first = next(filterfalse(_MISSING_TOKENS.__contains__, raw), None)
    if first in _BOOL_TOKENS and all(map(_BOOL_CELLS.__contains__, raw)):
        return Column(name, "boolean", list(map(_BOOL_CELLS.__getitem__, raw)), na)
    if first is not None and first not in _BOOL_TOKENS:
        try:
            values = list(map(float, fill(list(raw), na, "0") if na else raw))
        except ValueError:
            pass
        else:
            return Column(name, "number", values, na)
    return Column(name, "text", fill(list(raw), na, ""), na)


def _line_after(records: list[list[str]]) -> int:
    """The physical line after a file's first CSV ``records``: each record takes
    one line, and one more for each line break (\\n, \\r or \\r\\n, as the file
    is read) in its quoted fields."""
    fields = chain.from_iterable(records)
    return 1 + len(records) + sum(f.count("\n") + f.count("\r") - f.count("\r\n") for f in fields)


def ingest_csv(path: str) -> DataFrame:
    """Read an RFC-4180 CSV with a header row, inferring column types.

    A column is boolean when every non-empty cell is true/false (either case),
    number when every non-empty cell parses as a decimal, text otherwise.
    Empty cells and the literal NA are missing. A leading UTF-8 byte-order
    mark is skipped.
    """
    # the row lists hold only strings, so the cyclic collector's passes over
    # them find nothing; it is paused while they exist
    enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file") from None
            rows = list(reader)
        width = len(header)
        if set(map(len, rows)) - {width}:
            i, row = next((i, r) for i, r in enumerate(rows) if len(r) != width)
            line = _line_after([header, *rows[:i]])
            raise DataError(f"{path}: line {line}: expected {width} fields, got {len(row)}")
        raw = list(zip(*rows)) if rows else [()] * width
        del rows
    except (OSError, UnicodeDecodeError, csv.Error) as err:
        raise DataError(f"cannot read {path}: {err}") from err
    finally:
        if enabled:
            gc.enable()
    try:
        return DataFrame([_column(name, cells) for name, cells in zip(header, raw)])
    except DataError as err:  # a header that names a column twice
        raise DataError(f"{path}: {err}") from None
