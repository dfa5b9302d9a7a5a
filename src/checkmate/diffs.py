"""Version-over-version decompositions of validation results and cell changes.

``compare_validations`` counts transitions of per-cell rule outcomes
(satisfied / violated / unverifiable) between dataset versions;
``compare_cells`` classifies raw data cells (unadapted / adapted / imputed /
removed / still missing). Versions are compared sequentially or each against
the first.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import confront
from .errors import DataError
from .frame import DataFrame
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


@dataclass
class StatusTable:
    statuses: tuple[str, ...]
    version_names: list[str]
    counts: dict[str, list[int]]  # status -> one count per version
    mode: str  # sequential | to_first

    def column(self, version: str) -> dict[str, int]:
        i = self.version_names.index(version)
        return {s: self.counts[s][i] for s in self.statuses}


def _check_versions(versions: dict[str, DataFrame]):
    if not versions:
        raise DataError("at least one dataset version is required")
    frames = list(versions.values())
    first = frames[0]
    for f in frames[1:]:
        if f.n != first.n or f.names != first.names:
            raise DataError("dataset versions differ in shape or column names")


def _reference_index(i: int, how: str) -> int:
    if i == 0:
        return 0
    return i - 1 if how == "sequential" else 0


def _status(cell) -> str:
    if cell is True:
        return "satisfied"
    if cell is False:
        return "violated"
    return "unverifiable"


def compare_validations(
    rs: RuleSet,
    versions: dict[str, DataFrame],
    how: str = "sequential",
    opts: dict | None = None,
) -> StatusTable:
    """Count outcome transitions per version against its reference version.

    ``opts`` are call-level confrontation options, as for ``confront``.
    """
    if how not in ("sequential", "to_first"):
        raise DataError(f"unknown comparison mode {how!r}")
    _check_versions(versions)
    names = list(versions)
    cell_sets = []
    for name in names:
        validation = confront(versions[name], rs, opts=opts)
        cells = []
        for outcome in validation.outcomes:
            if outcome.error is not None:
                raise DataError(
                    f"rule {outcome.name!r} errored on version {name!r}: {outcome.error}"
                )
            cells.extend(outcome.result)
        cell_sets.append(cells)
    lengths = {len(c) for c in cell_sets}
    if len(lengths) > 1:
        raise DataError("versions produced differing result counts")

    counts = {s: [] for s in VALIDATION_STATUSES}
    for i, cells in enumerate(cell_sets):
        ref = cell_sets[_reference_index(i, how)]
        tally = {s: 0 for s in VALIDATION_STATUSES}
        for cur, prev in zip(cells, ref):
            status = _status(cur)
            tally["validations"] += 1
            tally[status] += 1
            if status != "unverifiable":
                tally["verifiable"] += 1
            same = status == _status(prev)
            tally[("still_" if same else "new_") + status] += 1
        for s in VALIDATION_STATUSES:
            counts[s].append(tally[s])
    return StatusTable(VALIDATION_STATUSES, names, counts, how)


def compare_cells(versions: dict[str, DataFrame], how: str = "sequential") -> StatusTable:
    """Classify every data cell against its counterpart in the reference version."""
    if how not in ("sequential", "to_first"):
        raise DataError(f"unknown comparison mode {how!r}")
    _check_versions(versions)
    names = list(versions)
    frames = [versions[n] for n in names]

    counts = {s: [] for s in CELL_STATUSES}
    for i, frame in enumerate(frames):
        ref = frames[_reference_index(i, how)]
        tally = {s: 0 for s in CELL_STATUSES}
        for col in frame.columns:
            ref_col = ref.column(col.name)
            for row in range(frame.n):
                tally["cells"] += 1
                cur = None if col.missing[row] else col.values[row]
                prev = None if ref_col.missing[row] else ref_col.values[row]
                if cur is None:
                    tally["missing"] += 1
                    tally["still_missing" if prev is None else "removed"] += 1
                else:
                    tally["available"] += 1
                    if prev is None:
                        tally["imputed"] += 1
                    else:
                        tally["still_available"] += 1
                        tally["unadapted" if cur == prev else "adapted"] += 1
        for s in CELL_STATUSES:
            counts[s].append(tally[s])
    return StatusTable(CELL_STATUSES, names, counts, how)


def chart_data(table: StatusTable) -> list[tuple[str, str, int]]:
    """Long-form (status, version, count) triples in status-then-version order."""
    out = []
    for status in table.statuses:
        for i, version in enumerate(table.version_names):
            out.append((status, version, table.counts[status][i]))
    return out
