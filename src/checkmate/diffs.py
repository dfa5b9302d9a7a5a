"""Version-over-version decompositions of validation results and cell changes.

``compare_validations`` counts transitions of per-cell rule outcomes
(satisfied / violated / unverifiable) between dataset versions;
``compare_cells`` classifies raw data cells (unadapted / adapted / imputed /
removed / still missing). Versions are compared sequentially or each against
the first.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import compress
from operator import ne

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


def _check_versions(versions: dict[str, DataFrame], how: str):
    if how not in ("sequential", "to_first"):
        raise DataError(f"unknown comparison mode {how!r}")
    if not versions:
        raise DataError("at least one dataset version is required")
    frames = list(versions.values())
    first = frames[0]
    for f in frames[1:]:
        if f.n != first.n or f.names != first.names:
            raise DataError("dataset versions differ in shape or column names")


def _table(statuses: tuple[str, ...], names: list[str], tallies: list[dict], how: str):
    """The status table of one tally (status -> count) per version."""
    return StatusTable(statuses, names, {s: [t[s] for t in tallies] for s in statuses}, how)


_OUTCOME_STATUS = {True: "satisfied", False: "violated"}


def compare_validations(
    rs: RuleSet,
    versions: dict[str, DataFrame],
    how: str = "sequential",
    opts: dict | None = None,
) -> StatusTable:
    """Count outcome transitions per version against its reference version.

    ``opts`` are call-level confrontation options, as for ``confront``.
    """
    _check_versions(versions, how)
    names = list(versions)
    results = []
    for name in names:
        validation = confront(versions[name], rs, opts=opts)
        for outcome in validation.outcomes:
            if outcome.error is not None:
                raise DataError(
                    f"rule {outcome.name!r} errored on version {name!r}: {outcome.error}"
                )
        results.append([outcome.result for outcome in validation.outcomes])
    if len({tuple(map(len, r)) for r in results}) > 1:
        raise DataError("versions produced differing result counts")

    tallies = []
    for i, cur in enumerate(results):
        ref = results[max(i - 1, 0) if how == "sequential" else 0]
        pairs = Counter()  # (current, reference) outcome pair -> cells; at most 9 pairs
        for cells, ref_cells in zip(cur, ref):
            pairs.update(zip(cells, ref_cells))
        tally = dict.fromkeys(VALIDATION_STATUSES, 0)
        for (now, before), n in pairs.items():
            status = _OUTCOME_STATUS.get(now, "unverifiable")
            tally[status] += n
            same = status == _OUTCOME_STATUS.get(before, "unverifiable")
            tally[("still_" if same else "new_") + status] += n
        tally["verifiable"] = tally["satisfied"] + tally["violated"]
        tally["validations"] = tally["verifiable"] + tally["unverifiable"]
        tallies.append(tally)
    return _table(VALIDATION_STATUSES, names, tallies, how)


def compare_cells(versions: dict[str, DataFrame], how: str = "sequential") -> StatusTable:
    """Classify every data cell against its counterpart in the reference version."""
    _check_versions(versions, how)
    names = list(versions)
    frames = list(versions.values())
    tallies = []
    for i, frame in enumerate(frames):
        ref = frames[max(i - 1, 0) if how == "sequential" else 0]
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
            changed = set(compress(range(len(a)), map(ne, a, b))) - gone
            adapted = len(changed)
            if col.type == ref_col.type == "number":
                # NaN is unequal to itself, yet a cell NaN in both versions is unchanged
                adapted -= sum(1 for j in changed if a[j] != a[j] and b[j] != b[j])
            tally["adapted"] += adapted
            tally["unadapted"] += len(a) - len(gone) - adapted
        tally["still_available"] = tally["unadapted"] + tally["adapted"]
        tally["available"] = tally["still_available"] + tally["imputed"]
        tally["cells"] = tally["available"] + tally["missing"]
        tallies.append(tally)
    return _table(CELL_STATUSES, names, tallies, how)


def chart_data(table: StatusTable) -> list[tuple[str, str, int]]:
    """Long-form (status, version, count) triples in status-then-version order."""
    out = []
    for status in table.statuses:
        for i, version in enumerate(table.version_names):
            out.append((status, version, table.counts[status][i]))
    return out
