"""Version-over-version decompositions of validation results and cell changes.

``compare_validations`` counts transitions of per-cell rule outcomes
(satisfied / violated / unverifiable) between dataset versions;
``compare_cells`` classifies raw data cells (unadapted / adapted / imputed /
removed / still missing). Versions are compared sequentially or each against
the first.

Each takes a dict of versions by name or (name, version) pairs in order, and
holds only the reference version and the one being read. An error making a later pair is raised
first, then a mismatch of shapes, then the first version whose tally fails.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import compress
from operator import itemgetter, ne
from typing import TYPE_CHECKING

from .errors import CheckmateError, DataError
from .frame import DataFrame, fill
from .record import Record

if TYPE_CHECKING:
    from .rules import RuleSet

VALIDATION_STATUSES = (
    "validations",
    "verifiable",
    "unverifiable",
    "still_unverifiable",
    "new_unverifiable",
    "satisfied",
    "still_satisfied",
    "new_satisfied",
    "violated",
    "still_violated",
    "new_violated",
)

CELL_STATUSES = (
    "cells",
    "available",
    "still_available",
    "unadapted",
    "adapted",
    "imputed",
    "missing",
    "still_missing",
    "removed",
)


class StatusTable(Record):
    __slots__ = _fields = ("statuses", "version_names", "counts", "mode")

    def __init__(
        self, statuses: tuple[str, ...], version_names: list[str], counts: dict, mode: str
    ):
        self.statuses, self.version_names = statuses, version_names
        self.counts = counts  # status -> one count per version
        self.mode = mode  # sequential | to_first

    def column(self, version: str) -> dict[str, int]:
        i = self.version_names.index(version)
        return {s: self.counts[s][i] for s in self.statuses}


def _fold(versions, how: str, statuses: tuple[str, ...], shape, tally) -> StatusTable:
    """The status table of ``tally(name, item, ref)`` of each version against the
    item of its reference version (the first one's against itself)."""
    if how not in ("sequential", "to_first"):
        raise DataError(f"unknown comparison mode {how!r}")
    names, tallies, ref, error = [], [], None, None
    for name, item in versions.items() if isinstance(versions, dict) else versions:
        names.append(name)
        if ref is None:
            ref, first = item, shape(item)
        if shape(item) != first:
            error = DataError("dataset versions differ in shape or column names")
        elif error is None:  # after an error, versions are only read
            try:
                tallies.append(tally(name, item, ref))
            except CheckmateError as err:
                error = err
        if how == "sequential":
            ref = item
        del item  # else it is held while the next version is made
    if not names:
        raise DataError("at least one dataset version is required")
    if error is not None:
        raise error
    return StatusTable(statuses, names, {s: [t[s] for t in tallies] for s in statuses}, how)


_OUTCOME_STATUSES = ("satisfied", "violated", "unverifiable")


def _bitsets(values: bytes, na: tuple) -> list[int]:
    """Per status, an int with bit 8i set where item i has it: built in C, a byte an item."""
    passes = int.from_bytes(values, "little")  # 0 at an unverifiable item
    nas = int.from_bytes(fill(bytearray(len(values)), na, 1), "little")
    every = int.from_bytes(b"\x01" * len(values), "little")
    return [passes, every ^ passes ^ nas, nas]


def version(shape: tuple, validation) -> tuple:
    """One version as ``tally_validations`` takes it: ``shape``, (rows, column names), and
    per outcome of ``validation()`` its name, error, item count and ``_bitsets``, or its error."""
    try:
        outcomes = [
            (o.name, o.error, o.tally()[0], _bitsets(o.values or b"", o.na))
            for o in validation().outcomes
        ]
    except CheckmateError as err:
        outcomes = err
    return shape, outcomes


def confront_version(df: DataFrame, rs: RuleSet, opts: dict | None = None) -> tuple:
    """``version`` of ``df`` confronted with ``rs``; ``opts`` as for ``confront``."""
    from .engine import confront

    return version((df.n, df.names), lambda: confront(df, rs, opts=opts))


def _validation_tally(name: str, version: tuple, ref: tuple) -> dict[str, int]:
    """The outcome statuses of one ``confront_version`` result against ``ref``'s."""
    outcomes, ref_outcomes = version[1], ref[1]
    if isinstance(outcomes, CheckmateError):
        raise outcomes
    for rule, error, _, _ in outcomes:
        if error is not None:
            raise DataError(f"rule {rule!r} errored on version {name!r}: {error}")
    if [o[2] for o in outcomes] != [o[2] for o in ref_outcomes]:
        raise DataError("versions produced differing result counts")
    tally = dict.fromkeys(VALIDATION_STATUSES, 0)
    for (*_, bits), (*_, ref_bits) in zip(outcomes, ref_outcomes):
        for status, now, before in zip(_OUTCOME_STATUSES, bits, ref_bits):
            tally[status] += now.bit_count()
            tally["still_" + status] += (now & before).bit_count()
    for status in _OUTCOME_STATUSES:
        tally["new_" + status] = tally[status] - tally["still_" + status]
    tally["verifiable"] = tally["satisfied"] + tally["violated"]
    tally["validations"] = tally["verifiable"] + tally["unverifiable"]
    return tally


def tally_validations(
    versions: dict[str, tuple] | Iterable[tuple[str, tuple]], how: str = "sequential"
) -> StatusTable:
    """Count outcome transitions per version against its reference version, from
    ``confront_version`` of each version."""
    return _fold(versions, how, VALIDATION_STATUSES, itemgetter(0), _validation_tally)


def compare_validations(
    rs: RuleSet,
    versions: dict[str, DataFrame] | Iterable[tuple[str, DataFrame]],
    how: str = "sequential",
    opts: dict | None = None,
) -> StatusTable:
    """Count outcome transitions per version against its reference version.

    ``opts`` are call-level confrontation options, as for ``confront``.
    """

    def confronted():  # a generator: no version is read before ``how`` is checked
        for name, df in versions.items() if isinstance(versions, dict) else versions:
            yield name, confront_version(df, rs, opts)
            del df  # else it is held while the next version is made

    return tally_validations(confronted(), how)


def _cell_tally(frame: DataFrame, ref: DataFrame) -> dict[str, int]:
    """The cell statuses of ``frame`` against ``ref``, a frame of its shape."""
    tally = dict.fromkeys(CELL_STATUSES, 0)
    for col in frame.columns:
        ref_col = ref.column(col.name)
        missing, ref_missing = set(col.na), set(ref_col.na)
        still_missing = len(missing & ref_missing)
        tally["missing"] += len(missing)
        tally["still_missing"] += still_missing
        tally["removed"] += len(missing) - still_missing
        tally["imputed"] += len(ref_missing) - still_missing
        gone = missing | ref_missing
        a, b = col.values, ref_col.values
        # no cell differs from itself, as in the first version against itself
        changed = set() if a is b else set(compress(range(len(a)), map(ne, a, b))) - gone
        adapted = len(changed)
        if col.kind == ref_col.kind == "number":
            # NaN is unequal to itself, yet a cell NaN in both versions is unchanged
            adapted -= sum(1 for j in changed if a[j] != a[j] and b[j] != b[j])
        tally["adapted"] += adapted
        tally["unadapted"] += len(a) - len(gone) - adapted
    tally["still_available"] = tally["unadapted"] + tally["adapted"]
    tally["available"] = tally["still_available"] + tally["imputed"]
    tally["cells"] = tally["available"] + tally["missing"]
    return tally


def compare_cells(
    versions: dict[str, DataFrame] | Iterable[tuple[str, DataFrame]], how: str = "sequential"
) -> StatusTable:
    """Classify every data cell against its counterpart in the reference version."""
    return _fold(versions, how, CELL_STATUSES, lambda df: (df.n, df.names),
                 lambda _, df, ref: _cell_tally(df, ref))


def chart_data(table: StatusTable) -> list[tuple[str, str, int]]:
    """Long-form (status, version, count) triples in status-then-version order."""
    out = []
    for status in table.statuses:
        for i, version in enumerate(table.version_names):
            out.append((status, version, table.counts[status][i]))
    return out
