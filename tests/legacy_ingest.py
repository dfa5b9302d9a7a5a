"""The whole-file CSV reader that ``checkmate.frame.ingest_csv`` replaced,
kept as the reference for the differential tests in ``test_frame.py``.

It read every row of the file into a list of strings with
``list(csv.reader(...))``, transposed the rows with ``zip(*rows)`` and only
then gave each column its type. The code is kept as it was, written against
the frame types that ``checkmate.frame`` still has, except that a cell holding
``_`` or a character outside ASCII makes its column text, as in R.
"""

from __future__ import annotations

import csv
import gc
from itertools import chain, compress, filterfalse

from checkmate.errors import DataError
from checkmate.frame import Column, DataFrame, fill

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
    # float reads "1_000" and other digits than ASCII ones, R's type.convert does not
    if first not in _BOOL_TOKENS and all(c.isascii() and "_" not in c for c in raw):
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

    Empty cells and the literal NA are missing. A column is boolean when its
    other cells are true/false (either case) and there is one, number when
    they parse as decimals (or there is none, as in ``from_dict``), text
    otherwise. A leading UTF-8 byte-order mark is skipped.
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
