"""Summaries, aggregation, sorting, and record-level export of validation results."""

from __future__ import annotations

from itertools import chain, repeat

from .engine import Validation, kleene_not
from .errors import DataError
from .record import Record


class SummaryRow(Record):
    __slots__ = _fields = (
        "name", "items", "passes", "fails", "nNA", "error", "warning", "expression"
    )

    def __init__(
        self, name: str, items: int, passes: int, fails: int, nNA: int, error: bool,
        warning: bool, expression: str,
    ):
        self.name, self.items, self.passes, self.fails = name, items, passes, fails
        self.nNA, self.error, self.warning, self.expression = nNA, error, warning, expression


class RecordRow(Record):
    __slots__ = _fields = ("id", "name", "value", "expression")

    def __init__(self, id: str | None, name: str, value: bool | None, expression: str):
        self.id, self.name, self.value, self.expression = id, name, value, expression


def summarize(v: Validation) -> list[SummaryRow]:
    return [
        SummaryRow(o.name, *o.tally(), o.error is not None, bool(o.warnings), o.expression)
        for o in v.outcomes
    ]


def all_pass(v: Validation, na_rm: bool = False):
    """Kleene conjunction over every result cell of every rule."""
    tallies = [o.tally() for o in v.outcomes]
    if any(fails for _, _, fails, _ in tallies):
        return False
    if not na_rm and any(nas for *_, nas in tallies):
        return None
    return True


def any_fail(v: Validation, na_rm: bool = False):
    """Kleene disjunction of the negated result cells."""
    return kleene_not(all_pass(v, na_rm))


class ResultMatrix(Record):
    """Column-per-rule matrix of tri-state cells, all sharing one length."""

    __slots__ = _fields = ("rule_names", "rows")

    def __init__(self, rule_names: list[str], rows: list[list]):
        self.rule_names = rule_names
        self.rows = rows  # length x len(rule_names)

    @property
    def n_rows(self):
        return len(self.rows)


def values(v: Validation, simplify: bool = True):
    """Group results by length into matrices.

    With ``simplify`` a single matrix comes back when all outcomes share one
    length; otherwise (and always without ``simplify``) a dict keyed by length.
    """
    groups: dict[int, list] = {}  # length -> the outcomes of that length
    for o in v.outcomes:
        if o.values is not None:
            groups.setdefault(len(o.values), []).append(o)
    by_length = {
        m: ResultMatrix([o.name for o in g], list(map(list, zip(*(o.result for o in g)))))
        for m, g in groups.items()
    }
    if simplify and len(by_length) == 1:
        return next(iter(by_length.values()))
    return by_length


class AggregateRow(Record):
    __slots__ = _fields = ("key", "npass", "nfail", "nNA")

    def __init__(self, key: str, npass: int, nfail: int, nNA: int):
        self.key = key  # rule name, or record key / 1-based index
        self.npass, self.nfail, self.nNA = npass, nfail, nNA

    @property
    def total(self):
        return self.npass + self.nfail + self.nNA

    @property
    def rel_pass(self):
        return self.npass / self.total if self.total else 0.0

    @property
    def rel_fail(self):
        return self.nfail / self.total if self.total else 0.0

    @property
    def rel_na(self):
        return self.nNA / self.total if self.total else 0.0


def aggregate_results(v: Validation, by: str = "rule") -> list[AggregateRow]:
    """Pass/fail/NA counts and proportions per rule or per record."""
    if by == "rule":
        return [AggregateRow(o.name, *o.tally()[1:]) for o in v.outcomes if o.values is not None]
    if by != "record":
        raise DataError(f"unknown aggregation {by!r}")
    n = v.n_records
    aligned = [o for o in v.outcomes if o.values is not None and len(o.values) == n]
    if not aligned:
        raise DataError("no record-aligned outcomes to aggregate by record")
    passes = map(sum, zip(*(o.values for o in aligned)))  # 0 at an unverifiable item
    nas = [0] * n
    for i in chain.from_iterable(o.na for o in aligned):
        nas[i] += 1
    keys = v.key_values or [str(i + 1) for i in range(n)]
    return [AggregateRow(k, p, len(aligned) - p - q, q) for k, p, q in zip(keys, passes, nas)]


def sort_results(v: Validation, by: str = "rule", decreasing: bool = False) -> list[AggregateRow]:
    """Aggregate and order by the number of passes, ties keeping input order."""
    rows = aggregate_results(v, by)
    return sorted(rows, key=lambda r: r.npass, reverse=decreasing)


def to_records(v: Validation) -> list[RecordRow]:
    """One row per rule-item; record-aligned outcomes carry the key id."""
    rows = []
    for o in v.outcomes:
        if o.values is not None:
            ids = v.key_values if v.aligned(o.values) else repeat(None)
            rows += map(RecordRow, ids, repeat(o.name), o.result, repeat(o.expression))
    return rows


def collect_errors(v: Validation) -> list[str]:
    return [f"{o.name}: {o.error}" for o in v.outcomes if o.error is not None]


def collect_warnings(v: Validation) -> list[str]:
    out = []
    for o in v.outcomes:
        for w in o.warnings:
            out.append(f"{o.name}: {w}")
    return out
