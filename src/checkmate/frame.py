"""Minimal typed data frame and its CSV input and output.

A frame holds named equal-length columns with per-cell missingness.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

from .errors import DataError

COLUMN_TYPES = ("number", "text", "boolean")


@dataclass
class Column:
    name: str
    type: str  # number|text|boolean
    values: list
    missing: list[bool]

    def __post_init__(self):
        if self.type not in COLUMN_TYPES:
            raise DataError(f"unknown column type {self.type!r}")
        if len(self.values) != len(self.missing):
            raise DataError(f"column {self.name!r}: values and missing mask differ in length")

    def cells(self) -> list:
        """Values with missing cells replaced by None."""
        return [None if m else v for v, m in zip(self.values, self.missing)]


@dataclass
class DataFrame:
    columns: list[Column] = field(default_factory=list)

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise DataError("duplicate column names")
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
        for c in self.columns:
            if c.name == name:
                return c
        raise DataError(f"no column named {name!r}")

    def has_column(self, name: str) -> bool:
        return any(c.name == name for c in self.columns)


def _infer_type(cells: list) -> str:
    present = [v for v in cells if v is not None]
    if all(isinstance(v, bool) for v in present):
        if present:
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
        missing = [v is None for v in cells]
        fillers = {"number": 0.0, "text": "", "boolean": False}
        values = [fillers[ctype] if v is None else v for v in cells]
        cols.append(Column(name, ctype, values, missing))
    return DataFrame(cols)


# ---------------------------------------------------------------------------
# CSV input and output
# ---------------------------------------------------------------------------

_BOOL_TOKENS = {"true": True, "TRUE": True, "false": False, "FALSE": False}
_MISSING_TOKENS = frozenset(("", "NA"))


def _column(name: str, raw: list[str]) -> Column:
    """Classify and convert one column of CSV text in one pass over its cells."""
    missing = [c in _MISSING_TOKENS for c in raw]
    if not all(missing):
        if all(m or c in _BOOL_TOKENS for c, m in zip(raw, missing)):
            values = [False if m else _BOOL_TOKENS[c] for c, m in zip(raw, missing)]
            return Column(name, "boolean", values, missing)
        try:
            values = [0.0 if m else float(c) for c, m in zip(raw, missing)]
        except ValueError:
            pass
        else:
            return Column(name, "number", values, missing)
    values = ["" if m else c for c, m in zip(raw, missing)]
    return Column(name, "text", values, missing)


def ingest_csv(path: str) -> DataFrame:
    """Read an RFC-4180 CSV with a header row, inferring column types.

    A column is boolean when every non-empty cell is true/false (either case),
    number when every non-empty cell parses as a decimal, text otherwise.
    Empty cells and the literal NA are missing.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file") from None
            rows = []
            for lineno, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    raise DataError(
                        f"{path}: line {lineno}: expected {len(header)} fields, got {len(row)}"
                    )
                rows.append(row)
    except OSError as err:
        raise DataError(f"cannot read {path}: {err}") from err

    return DataFrame([_column(name, [row[j] for row in rows]) for j, name in enumerate(header)])


def emit_csv_frame(df: DataFrame, out) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(df.names)
    for i in range(df.n):
        row = []
        for col in df.columns:
            cell = None if col.missing[i] else col.values[i]
            row.append(_cell_text(cell, col.type))
        writer.writerow(row)


def _cell_text(cell, ctype: str) -> str:
    if cell is None:
        return "NA"
    if ctype == "boolean":
        return "TRUE" if cell else "FALSE"
    if ctype == "number":
        return str(int(cell)) if cell == int(cell) else repr(cell)
    return cell
