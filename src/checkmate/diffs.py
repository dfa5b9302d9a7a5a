"""Version-over-version decompositions of validation results and cell changes.

``compare_validations`` counts transitions of per-cell rule outcomes
(satisfied / violated / unverifiable) between dataset versions;
``compare_cells`` classifies raw data cells (unadapted / adapted / imputed /
removed / still missing). Versions are compared sequentially or each against
the first.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import compress
from operator import ne

from .engine import confront
from .errors import CheckmateError, DataError
from .frame import DataFrame, fill
from .record import Record
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


def _check_how(how: str):
    if how not in ("sequential", "to_first"):
        raise DataError(f"unknown comparison mode {how!r}")


def _check_versions(shapes: list[tuple[int, list[str]]]):
    """Each version's (rows, column names) must be the first one's."""
    if not shapes:
        raise DataError("at least one dataset version is required")
    if any(shape != shapes[0] for shape in shapes[1:]):
        raise DataError("dataset versions differ in shape or column names")


def _table(statuses: tuple[str, ...], names: list[str], tallies: list[dict], how: str):
    """The status table of one tally (status -> count) per version."""
    return StatusTable(statuses, names, {s: [t[s] for t in tallies] for s in statuses}, how)


_OUTCOME_STATUSES = ("satisfied", "violated", "unverifiable")


def _bitsets(values: bytes, na: tuple) -> list[int]:
    """Per status, an int with bit 8i set where item i has it: built in C, a byte an item."""
    passes = int.from_bytes(values, "little")  # 0 at an unverifiable item
    nas = int.from_bytes(fill(bytearray(len(values)), na, 1), "little")
    every = int.from_bytes(b"\x01" * len(values), "little")
    return [passes, every ^ passes ^ nas, nas]


def confront_version(df: DataFrame, rs: RuleSet, opts: dict | None = None) -> tuple:
    """What ``tally_validations`` needs of one version: its (rows, column names)
    and, per rule outcome, its name, error, item count and ``_bitsets``.

    An error of the confrontation takes the place of the outcomes rather than
    being raised, so that a mismatch of shapes is reported first, whichever
    version fails.
    """
    try:
        outcomes = [
            (o.name, o.error, o.tally()[0], _bitsets(o.values or b"", o.na))
            for o in confront(df, rs, opts=opts).outcomes
        ]
    except CheckmateError as err:
        outcomes = err
    return (df.n, df.names), outcomes


def tally_validations(versions: dict[str, tuple], how: str = "sequential") -> StatusTable:
    """Count outcome transitions per version against its reference version, from
    ``confront_version`` of each version."""
    _check_how(how)
    _check_versions([shape for shape, _ in versions.values()])
    names = list(versions)
    results = []
    for name, (_, outcomes) in versions.items():
        if isinstance(outcomes, CheckmateError):
            raise outcomes
        for rule, error, _, _ in outcomes:
            if error is not None:
                raise DataError(f"rule {rule!r} errored on version {name!r}: {error}")
        results.append(outcomes)
    if len({tuple(items for _, _, items, _ in r) for r in results}) > 1:
        raise DataError("versions produced differing result counts")

    tallies = []
    for i, cur in enumerate(results):
        ref = results[max(i - 1, 0) if how == "sequential" else 0]
        tally = dict.fromkeys(VALIDATION_STATUSES, 0)
        for (*_, bits), (*_, ref_bits) in zip(cur, ref):
            for status, now, before in zip(_OUTCOME_STATUSES, bits, ref_bits):
                tally[status] += now.bit_count()
                tally["still_" + status] += (now & before).bit_count()
        for status in _OUTCOME_STATUSES:
            tally["new_" + status] = tally[status] - tally["still_" + status]
        tally["verifiable"] = tally["satisfied"] + tally["violated"]
        tally["validations"] = tally["verifiable"] + tally["unverifiable"]
        tallies.append(tally)
    return _table(VALIDATION_STATUSES, names, tallies, how)


def compare_validations(
    rs: RuleSet,
    versions: dict[str, DataFrame],
    how: str = "sequential",
    opts: dict | None = None,
) -> StatusTable:
    """Count outcome transitions per version against its reference version.

    ``opts`` are call-level confrontation options, as for ``confront``.
    """
    _check_how(how)
    return tally_validations(
        {name: confront_version(df, rs, opts) for name, df in versions.items()}, how
    )


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
    """Classify every data cell against its counterpart in the reference version.

    ``versions`` is a dict of frames by name or (name, frame) pairs in order, of
    which only the frame a later one is compared with is kept. A mismatch of
    shapes is raised once all are read: an error making a later pair comes first.
    """
    _check_how(how)
    names, shapes, tallies, ref = [], [], [], None
    for name, frame in versions.items() if isinstance(versions, dict) else versions:
        names.append(name)
        shapes.append((frame.n, frame.names))
        if shapes.count(shapes[0]) == len(shapes):  # after a mismatch, versions are only read
            tallies.append(_cell_tally(frame, frame if ref is None else ref))
        if ref is None or how == "sequential":
            ref = frame
        del frame  # else it is held while the next version is made
    _check_versions(shapes)
    return _table(CELL_STATUSES, names, tallies, how)


def chart_data(table: StatusTable) -> list[tuple[str, str, int]]:
    """Long-form (status, version, count) triples in status-then-version order."""
    out = []
    for status in table.statuses:
        for i, version in enumerate(table.version_names):
            out.append((status, version, table.counts[status][i]))
    return out
