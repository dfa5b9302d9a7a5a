"""Evaluates rule sets against data frames with three-valued logic.

Results are tri-state per item: True, False, or None for unverifiable.
Logical connectives follow Kleene strong three-valued logic; arithmetic and
comparisons propagate missing values.

Every operand and result is a ``frame.Value``, the vector type of a frame
column: its values with missing cells filled, next to the sorted indices of
its missing cells. A column is read without conversion. An operation maps
over the values in C and settles missingness with set operations on the
indices.
"""

from __future__ import annotations

import math
import operator
import os
import re as _re
import warnings as _warnings
from collections import Counter
from datetime import datetime
from functools import lru_cache, partial
from itertools import chain, compress, repeat

from . import dsl
from .errors import DataError, EvalError
from .frame import FILLERS, DataFrame, Value, fill, from_dict, ingest_csv, read_csv
from .record import Record
from .rules import OptionSet, Rule, RuleSet, new_ruleset, select

_NA_KEY = object()  # a missing cell in a grouping key; equal to no value
_NAN_KEY = object()  # a NaN cell in a grouping key: as in R, equal to any NaN but not to NA


class _Dataset(Value):
    """The value of ``.`` or of a reference frame: a whole frame, of kind
    ``frame`` and with no cells."""

    __slots__ = ("frame",)
    _fields = ("kind", "frame")

    def __init__(self, frame: DataFrame):
        super().__init__("frame")
        self.frame = frame


def _scalar(kind: str, cell) -> Value:
    """A one-cell vector from a tri-state cell (None = missing)."""
    return Value(kind, [FILLERS[kind]], (0,)) if cell is None else Value(kind, [cell])


def _union(p: tuple, q: tuple) -> tuple:
    """The sorted union of two sorted index tuples."""
    if not q or p is q:
        return p
    if not p:
        return q
    return tuple(sorted({*p, *q}))


def _present(values: list, na) -> list:
    """The values outside the missing indices ``na``."""
    if not na:
        return values
    return list(compress(values, fill(bytearray(b"\x01") * len(values), na, 0)))


def _keys(v) -> list:
    """A column's or vector's values as keys: each missing cell is ``_NA_KEY``
    and each NaN ``_NAN_KEY``, so that NaN keys alike, as in R's ``duplicated``
    and ``match``, however many NaN objects the cells are."""
    values = v.values
    nan = ()
    if v.kind == "number":  # NaN is the one float unequal to itself; no other kind holds one
        nan = list(compress(range(len(values)), map(operator.ne, values, values)))
    if not (nan or v.na):
        return values
    return fill(fill(list(values), nan, _NAN_KEY), v.na, _NA_KEY)


def _length(a: Value, b: Value) -> int:
    """The length two operands combine to: equal lengths, or one of length 1."""
    la, lb = len(a), len(b)
    if la == lb or lb == 1:
        return la
    if la == 1:
        return lb
    raise EvalError(f"cannot combine vectors of lengths {la} and {lb}")


def _spread(v: Value, n: int) -> Value:
    """v at length n: itself, or its one cell repeated."""
    if len(v) == n:
        return v
    return Value(v.kind, v.values * n, tuple(range(n)) if v.na else ())


def _pair(a: Value, b: Value):
    """Both operands' values at their common length, a one-cell operand's as an
    iterator that repeats its cell, and the union of their missing indices."""
    n = _length(a, b)
    va, vb = (v.values if len(v) == n else repeat(v.values[0], n) for v in (a, b))
    return va, vb, _union(*(v.na if len(v) == n or not v.na else tuple(range(n)) for v in (a, b)))


def _require(v: Value, kind: str, what: str):
    if v.kind != kind:
        raise EvalError(f"{what} expects a {kind} operand, got {v.kind}")


# ---------------------------------------------------------------------------
# Kleene connectives
# ---------------------------------------------------------------------------


def kleene_not(a):
    return None if a is None else not a


def _kleene(op: str, fn, a: Value, b: Value, warn) -> Value:
    """``a & b`` (``fn`` is ``operator.and_``) or ``a | b`` over vectors: NA
    unless a present FALSE (for &) or TRUE (for |) settles the cell.

    A missing cell holds FALSE, so the C-level ``and``/``or`` of the values
    is already right at every cell that ends up present.
    """
    _require(a, "logical", op)
    _require(b, "logical", op)
    n = _length(a, b)
    a, b = _spread(a, n), _spread(b, n)
    va, vb = a.values, b.values
    values = list(map(fn, va, vb))
    # a cell missing on one side stays missing where the other side is missing
    # too or holds the value that does not settle it: TRUE for &, FALSE for |
    undecided = bool if fn is operator.and_ else operator.not_
    na = set(a.na).intersection(b.na)
    na.update(compress(a.na, map(undecided, map(vb.__getitem__, a.na))))
    na.update(compress(b.na, map(undecided, map(va.__getitem__, b.na))))
    return Value("logical", values, tuple(sorted(na)))


# ---------------------------------------------------------------------------
# Evaluator
# ---------------------------------------------------------------------------


def _compare(op: str, fn, lhs: Value, rhs: Value, warn) -> Value:
    if lhs.kind == "frame" or rhs.kind == "frame":
        raise EvalError(f"cannot compare whole datasets with {op}")
    if lhs.kind != rhs.kind:
        raise EvalError(f"cannot compare {lhs.kind} with {rhs.kind}")
    va, vb, na = _pair(lhs, rhs)
    return Value("logical", fill(list(map(fn, va, vb)), na, False), na)


def _member(op: str, fn, lhs: Value, rhs: Value, warn) -> Value:
    if lhs.kind == "frame" or rhs.kind == "frame":
        raise EvalError("cannot apply %in% to a whole dataset")
    if lhs.kind != rhs.kind:
        raise EvalError(f"cannot test {lhs.kind} membership in a {rhs.kind} vector")
    members = set(_keys(rhs))
    members.discard(_NA_KEY)
    values = list(map(members.__contains__, _keys(lhs)))
    return Value("logical", fill(values, lhs.na, False), lhs.na)


def _as_r(op, a, b):
    """``op(a, b)`` where Python raises, as R has it: ±inf, NaN, or None
    (missing) for 0/0."""
    try:
        return op(a, b)
    except ZeroDivisionError:
        if op is operator.pow:  # a zero base to a negative power
            return math.copysign(math.inf, a) if b % 2 == 1 else math.inf
        return math.inf if a > 0 else -math.inf if a < 0 else None
    except OverflowError:  # only ^ overflows; a negative base needs an integer power
        if a < 0 and b % 1:
            return math.nan
        return -math.inf if a < 0 and b % 2 == 1 else math.inf


def _not_real(c) -> bool:
    return c != c or type(c) is complex


def _arithmetic(op: str, fn, lhs: Value, rhs: Value, warn) -> Value:
    """``fn`` cell by cell; a NaN or complex result from present cells is
    missing, and gives the warning ``NaNs produced`` to ``warn``.

    Whatever the filled values at missing cells give is overwritten before
    the result is checked; for / and ^ they are 1.0 first, since a filled
    0.0 divisor or base would raise and send every cell the slow way.
    """
    _require(lhs, "number", op)
    _require(rhs, "number", op)
    va, vb, na = _pair(lhs, rhs)
    if na and fn in (operator.truediv, operator.pow):
        va, vb = fill(list(va), na, 1.0), fill(list(vb), na, 1.0)
    try:
        out = list(map(fn, va, vb))
    except (ZeroDivisionError, OverflowError):  # paired again: a repeated cell's iterator is spent
        out = list(map(partial(_as_r, fn), *_pair(lhs, rhs)[:2]))
        na = _union(na, tuple(compress(range(len(out)), map(operator.is_, out, repeat(None)))))
    fill(out, na, 0.0)
    # NaN is the one float unequal to itself; complex comes only from ^
    if any(map(operator.ne, out, out)) or (fn is operator.pow and complex in map(type, out)):
        warn(RuntimeWarning("NaNs produced"))
        bad = tuple(compress(range(len(out)), map(_not_real, out)))
        na = _union(na, bad)
        fill(out, bad, 0.0)
    return Value("number", out, na)


# binary operator -> (handler, the function it applies cell by cell); the keys
# are those of dsl._BINARY_PREC, and a handler takes the operator, that
# function, both operands and the function the evaluation's warnings go to
_BINARY = {
    "|": (_kleene, operator.or_),
    "&": (_kleene, operator.and_),
    "<": (_compare, operator.lt),
    "<=": (_compare, operator.le),
    "==": (_compare, operator.eq),
    "!=": (_compare, operator.ne),
    ">=": (_compare, operator.ge),
    ">": (_compare, operator.gt),
    "%in%": (_member, None),
    "+": (_arithmetic, operator.add),
    "-": (_arithmetic, operator.sub),
    "*": (_arithmetic, operator.mul),
    "/": (_arithmetic, operator.truediv),
    "^": (_arithmetic, operator.pow),
}

# Unary.op -> (operand kind, cell function, name in messages); the keys are
# those of dsl._UNARY
_UNARY = {"!": ("logical", operator.not_, "!"), "negate": ("number", operator.neg, "unary -")}


class _Pattern(str):
    """Pattern text that ``re``'s compile cache, keyed by type as well as text,
    has seen only from ``_compiled``: compiling it raises its warnings even
    when the same text was compiled elsewhere in the process."""


# larger than re's own cache (512 patterns), so a pattern that drops out of
# this one has dropped out of that one too and warns again when recompiled
@lru_cache(maxsize=1024)
def _compiled(pattern: str) -> tuple[_re.Pattern, tuple[Warning, ...]]:
    """A pattern's regex and the warnings its compile raised."""
    with _warnings.catch_warnings(record=True) as caught:
        _warnings.simplefilter("always")
        rx = _re.compile(_Pattern(pattern))
    return rx, tuple(w.message for w in caught)


def _mean(xs: list) -> float:
    """R's mean of present cells: NaN where infinities of both signs meet, and
    the mean of doubles whose sum no double holds."""
    try:
        return math.fsum(xs) / len(xs)
    except ValueError:  # inf + -inf
        return math.nan
    except OverflowError:  # the sum, not the mean, is beyond the doubles
        return 2 * _mean([x / 2 for x in xs])


def _median(xs: list) -> float:
    """R's median: of an even count, ``_mean`` of the two middle cells."""
    xs, half = sorted(xs), len(xs) // 2
    return xs[half] if len(xs) % 2 else _mean(xs[half - 1 : half + 1])


class Evaluator:
    """Evaluates a rewritten expression in the scope of one data frame."""

    def __init__(self, df: DataFrame, ref=None):
        self.df = df
        # names -> frames, vectors or cell lists; or a frame, whose columns are the names
        self.ref = ref if isinstance(ref, DataFrame) else dict(ref or {})
        # what the evaluation warned of, in order, keyed by the number of nodes
        # evaluated before the one that gave it: the same on any rows
        self.warnings: dict[int, list[Warning]] = {}
        self.evaluated = 0

    # -- scope --------------------------------------------------------------

    def lookup(self, name: str) -> Value:
        value = self.df.get(name)
        if value is None:
            value = self.ref.get(name)
            if value is None:
                raise EvalError(f"object {name!r} not found")
        if isinstance(value, DataFrame):
            return _Dataset(value)
        if not isinstance(value, Value):  # a cell list, typed as from_dict types a column
            try:
                (value,) = from_dict({name: list(value)}).columns
            except DataError as err:  # mixed kinds, or (with a cause) a number no double holds
                message = str(err) if err.__cause__ else "reference vector mixes cell types"
                raise EvalError(message) from None
        return Value(value.kind, value.values, value.na)  # its own lists, without a name

    # -- dispatch -----------------------------------------------------------

    def eval(self, e: dsl.Expression) -> Value:
        handler = _EVAL.get(type(e))
        if handler is None:
            raise EvalError(f"cannot evaluate {type(e).__name__}")
        value = handler(self, e)
        self.evaluated += 1
        return value

    def warn(self, warning: Warning) -> None:
        """Note a warning of the node being evaluated."""
        self.warnings.setdefault(self.evaluated, []).append(warning)

    def eval_unary(self, e: dsl.Unary) -> Value:
        operand = self.eval(e.operand)
        kind, fn, what = _UNARY[e.op]
        _require(operand, kind, what)
        values = fill(list(map(fn, operand.values)), operand.na, FILLERS[kind])
        return Value(kind, values, operand.na)

    def eval_binary(self, e: dsl.Binary) -> Value:
        lhs = self.eval(e.lhs)
        rhs = self.eval(e.rhs)
        if e.op not in _BINARY:
            raise EvalError(f"unknown operator {e.op!r}")
        handler, fn = _BINARY[e.op]
        return handler(e.op, fn, lhs, rhs, self.warn)

    # -- function calls -----------------------------------------------------

    def eval_call(self, e: dsl.Call) -> Value:
        builtin = BUILTINS.get(e.fname.replace(".", "_"))
        if builtin is None:
            raise EvalError(f"unknown function {e.fname!r}")
        return builtin(self, e)

    def _positional(self, e: dsl.Call, count: int, allow_named=()) -> list[Value]:
        for k in e.named_args:
            if k not in allow_named:
                raise EvalError(f"{e.fname} got an unexpected argument {k!r}")
        if len(e.args) != count:
            raise EvalError(f"{e.fname} expects {count} argument(s), got {len(e.args)}")
        return [self.eval(a) for a in e.args]

    def _na_rm(self, e: dsl.Call) -> bool:
        if "na.rm" not in e.named_args:
            return False
        v = self.eval(e.named_args["na.rm"])
        if v.kind != "logical" or len(v) != 1 or v.na:
            raise EvalError("na.rm must be TRUE or FALSE")
        return v.values[0]

    def _the_frame(self, e: dsl.Call) -> DataFrame:
        if len(e.args) == 0:
            return self.df
        (v,) = self._positional(e, 1)
        if v.kind != "frame":
            raise EvalError(f"{e.fname} expects the dataset '.'")
        return v.frame

    def _nrow(self, e):
        return Value("number", [float(self._the_frame(e).n)])

    def _abs(self, e):
        (v,) = self._positional(e, 1)
        _require(v, "number", "abs")
        return Value("number", list(map(abs, v.values)), v.na)

    def _reduced(self, e, kind) -> tuple[list, bool]:
        """A reduction's one argument: its present values, and whether a
        missing cell is left in (no na.rm)."""
        (v,) = self._positional(e, 1, allow_named=("na.rm",))
        _require(v, kind, e.fname)
        na_rm = self._na_rm(e)
        return _present(v.values, v.na), bool(v.na) and not na_rm

    def _logical_reduce(self, e, empty, shortcut):
        present, has_na = self._reduced(e, "logical")
        if shortcut in present:
            return _scalar("logical", shortcut)
        return _scalar("logical", None if has_na else empty)

    def _numeric_aggregate(self, e, fn, empty=None):
        """``fn`` of the present values; of none, R's ``empty`` (missing for mean
        and median), with R's warning when that is infinite."""
        present, has_na = self._reduced(e, "number")
        if has_na:
            return _scalar("number", None)
        if present:
            return Value("number", [float(fn(present))])
        if empty in (math.inf, -math.inf):
            returning = "Inf" if empty > 0 else "-Inf"
            self.warn(
                RuntimeWarning(f"no non-missing arguments to {e.fname}; returning {returning}")
            )
        return _scalar("number", empty)

    def _cor(self, e):
        x, y = self._positional(e, 2)
        _require(x, "number", "cor")
        _require(y, "number", "cor")
        if len(x) != len(y):
            raise EvalError("cor expects vectors of equal length")
        na = _union(x.na, y.na)
        xs, ys = _present(x.values, na), _present(y.values, na)
        if len(xs) < 2:
            return _scalar("number", None)
        import statistics  # with fractions and decimal, 3 ms: imported on first use

        try:
            r = statistics.correlation(xs, ys)
        except statistics.StatisticsError:
            return _scalar("number", None)
        return Value("number", [r])

    def _grepl(self, e):
        pattern, v = self._positional(e, 2)
        if pattern.kind != "text" or len(pattern) != 1 or pattern.na:
            raise EvalError("grepl expects a pattern string as first argument")
        _require(v, "text", "grepl")
        try:
            rx, warnings = _compiled(pattern.values[0])
        except _re.error as err:
            raise EvalError(f"grepl: invalid pattern {pattern.values[0]!r}: {err}") from err
        for w in warnings:
            self.warn(w)
        return Value("logical", fill(list(map(bool, map(rx.search, v.values))), v.na, False), v.na)

    def _key_vectors(self, e: dsl.Call) -> list[Value]:
        """The arguments of a key function, each at the common length."""
        if not e.args:
            raise EvalError(f"{e.fname} expects at least one argument")
        if e.named_args:
            raise EvalError(f"{e.fname} takes no named arguments")
        vectors = [self.eval(a) for a in e.args]
        n = max(len(v) for v in vectors)
        out = []
        for v in vectors:
            if v.kind == "frame":
                raise EvalError(f"{e.fname} expects column vectors")
            if len(v) not in (1, n):
                raise EvalError(f"cannot combine vectors of lengths {len(v)} and {n}")
            out.append(_spread(v, n))
        return out

    def _key_rows(self, e: dsl.Call) -> list:
        """One key per row: the cell itself for one argument, else a tuple."""
        keys = list(map(_keys, self._key_vectors(e)))
        return keys[0] if len(keys) == 1 else list(zip(*keys))

    def _duplicated(self, e):
        rows = self._key_rows(e)
        first: dict = {}  # key -> index of its first occurrence
        index = range(len(rows))
        return Value("logical", list(map(operator.ne, map(first.setdefault, rows, index), index)))

    def _is_unique(self, e):
        rows = self._key_rows(e)
        counts = Counter(rows)
        return Value("logical", list(map(operator.eq, map(counts.__getitem__, rows), repeat(1))))

    def _is_complete(self, e):
        vectors = self._key_vectors(e)
        na = set().union(*(v.na for v in vectors))
        return Value("logical", fill([True] * len(vectors[0]), na, False))

    def _type_test(self, e, kind):
        (v,) = self._positional(e, 1)
        return Value("logical", [v.kind == kind])

    def _is_na(self, e):
        (v,) = self._positional(e, 1)
        if v.kind == "frame":
            raise EvalError("is.na expects a vector")
        return Value("logical", fill([False] * len(v), v.na, True))

    def _c(self, e):
        if e.named_args:
            raise EvalError("c takes no named arguments")
        literals = set(map(type, e.args))
        if len(literals) == 1 and (kind := _LITERAL_KINDS.get(*literals)):  # a code list
            return Value(kind, [a.value for a in e.args])
        vectors = [self.eval(a) for a in e.args]
        # a logical vector of missing cells only takes the others' kind
        kinds = {v.kind for v in vectors if v.kind != "logical" or len(v.na) < len(v)}
        kinds.discard("frame")
        if len(kinds) > 1:
            raise EvalError("c cannot mix cell types")
        kind = kinds.pop() if kinds else "logical"
        values, na = [], []
        for v in vectors:
            if v.kind == "frame":
                raise EvalError("c expects vectors")
            na.extend(i + len(values) for i in v.na)
            values.extend(v.values if v.kind == kind else [FILLERS[kind]] * len(v))
        return Value(kind, values, tuple(na))


_LITERAL_KINDS = {dsl.NumberLit: "number", dsl.StringLit: "text"}  # literal type -> vector kind


# built-in function -> fn(evaluator, call); a name's dots are spelled as
# underscores, so is.na and is_na are one function
BUILTINS = {
    "nrow": Evaluator._nrow,
    "number_of_records": Evaluator._nrow,
    "ncol": lambda ev, e: Value("number", [float(len(ev._the_frame(e).columns))]),
    "names": lambda ev, e: Value("text", list(ev._the_frame(e).names)),
    "abs": Evaluator._abs,
    "all": lambda ev, e: ev._logical_reduce(e, True, False),
    "any": lambda ev, e: ev._logical_reduce(e, False, True),
    "mean": lambda ev, e: ev._numeric_aggregate(e, _mean),
    "sum": lambda ev, e: ev._numeric_aggregate(e, sum, 0.0),
    "min": lambda ev, e: ev._numeric_aggregate(e, min, math.inf),
    "max": lambda ev, e: ev._numeric_aggregate(e, max, -math.inf),
    "median": lambda ev, e: ev._numeric_aggregate(e, _median),
    "cor": Evaluator._cor,
    "grepl": Evaluator._grepl,
    "duplicated": Evaluator._duplicated,
    "is_unique": Evaluator._is_unique,
    "all_unique": lambda ev, e: Value("logical", [all(ev._is_unique(e).values)]),
    "is_complete": Evaluator._is_complete,
    "all_complete": lambda ev, e: Value("logical", [all(ev._is_complete(e).values)]),
    "is_numeric": lambda ev, e: ev._type_test(e, "number"),
    "is_character": lambda ev, e: ev._type_test(e, "text"),
    "is_logical": lambda ev, e: ev._type_test(e, "logical"),
    "is_na": Evaluator._is_na,
    "c": Evaluator._c,
}


def _unrewritten(ev: Evaluator, e: dsl.Implication) -> Value:
    raise EvalError("implication must be rewritten before evaluation")


_EVAL = {
    dsl.NumberLit: lambda ev, e: Value("number", [e.value]),
    dsl.StringLit: lambda ev, e: Value("text", [e.value]),
    dsl.BoolLit: lambda ev, e: Value("logical", [e.value]),
    dsl.MissingLit: lambda ev, e: _scalar("logical", None),
    dsl.Identifier: lambda ev, e: ev.lookup(e.name),
    dsl.DatasetRef: lambda ev, e: _Dataset(ev.df),
    dsl.Paren: lambda ev, e: ev.eval(e.inner),
    dsl.Unary: Evaluator.eval_unary,
    dsl.Binary: Evaluator.eval_binary,
    dsl.Call: Evaluator.eval_call,
    dsl.FuncDep: lambda ev, e: _functional_dependency(e, ev.df),
    dsl.Implication: _unrewritten,
}


def eval_expr(e: dsl.Expression, df: DataFrame, ref=None) -> Value:
    """Evaluate a rewritten expression against a frame, then issue its warnings
    through ``warnings.warn``."""
    ev = Evaluator(df, ref)
    try:
        return ev.eval(e)
    finally:
        for w in chain.from_iterable(ev.warnings.values()):
            _warnings.warn(w)


# ---------------------------------------------------------------------------
# Functional dependencies
# ---------------------------------------------------------------------------


def _functional_dependency(fd: dsl.FuncDep, df: DataFrame) -> Value:
    for name in fd.determinant + fd.dependent:
        if not df.has_column(name):
            raise EvalError(f"object {name!r} not found")
    det = [_keys(df.column(name)) for name in fd.determinant]
    dep = [df.column(name) for name in fd.dependent]
    keys = det[0] if len(det) == 1 else zip(*det)  # a tuple is kept only for a new group
    combos = _keys(dep[0]) if len(dep) == 1 else list(zip(*map(_keys, dep)))
    first: dict = {}  # determinant key -> row of its first record
    rows = range(df.n)
    refs = list(map(first.setdefault, keys, rows))
    values = list(map(operator.eq, combos, map(combos.__getitem__, refs)))
    dep_na = set().union(*(c.na for c in dep))
    if not dep_na:
        return Value("logical", values)
    # unverifiable: a missing dependent cell here or in the group's first record
    dep_na.update(compress(rows, map(dep_na.__contains__, refs)))
    na = tuple(sorted(dep_na))
    return Value("logical", fill(values, na, False), na)


def eval_fd(fd: dsl.FuncDep, df: DataFrame) -> list:
    """Tri-state per-record check of a functional dependency.

    Records are grouped on the determinant combination (missing is its own
    key); the group's first record in row order sets the reference dependent
    combination. A record with a missing dependent cell is unverifiable.
    """
    return _functional_dependency(fd, df).cells


# ---------------------------------------------------------------------------
# Confrontation
# ---------------------------------------------------------------------------


class RuleOutcome(Record):
    """A rule's result: ``values`` holds one byte per item, 1 for a pass and 0
    for a fail or an unverifiable item, whose sorted indices are ``na``; None
    and () when errored."""

    _fields = ("name", "expression", "result", "error", "warnings")
    __slots__ = ("name", "expression", "values", "na", "error", "warnings")

    def __init__(
        self, name: str, expression: str, result: list | None = None, error: str | None = None,
        warnings: list[str] | None = None,
    ):
        self.name = name
        self.expression = expression
        self.na = () if result is None else tuple(i for i, c in enumerate(result) if c is None)
        self.values = None if result is None else bytes(fill(list(result), self.na, False))
        self.error = error
        self.warnings = [] if warnings is None else warnings

    @property
    def result(self) -> list | None:
        """The tri-state cells (None = unverifiable), a new list per read; None when errored."""
        return None if self.values is None else fill(list(map(bool, self.values)), self.na, None)

    def tally(self) -> tuple[int, int, int, int]:
        """Items, passes, fails and unverifiable items; all 0 when errored."""
        values = self.values or b""
        items, passes, nas = len(values), values.count(1), len(self.na)
        return items, passes, items - passes - nas, nas


class Validation(Record):
    __slots__ = _fields = ("outcomes", "key_name", "key_values", "created", "n_records")

    def __init__(
        self, outcomes: list[RuleOutcome], key_name: str | None = None,
        key_values: list[str] | None = None, created: datetime | None = None, n_records: int = 0,
    ):
        self.outcomes, self.key_name, self.key_values = outcomes, key_name, key_values
        self.created, self.n_records = created, n_records

    def __len__(self):
        return len(self.outcomes)

    def aligned(self, cells: list) -> bool:
        """Whether a rule's items are the records, so each carries its key id."""
        return self.key_values is not None and len(cells) == self.n_records

    def subset(self, selector) -> "Validation":
        """Select outcomes by 1-based index or by rule name."""
        names = [o.name for o in self.outcomes]
        picked = select(self.outcomes, names, selector, DataError)
        return Validation(picked, self.key_name, self.key_values, self.created, self.n_records)


def prepare_rule(rule: Rule, opts: OptionSet) -> dsl.Expression:
    """Implication and tolerance rewriting with resolved options."""
    body = dsl.rewrite_implication(rule.body)
    return dsl.rewrite_tolerance(body, opts.lin_eq_eps, opts.lin_ineq_eps)


def _key_id(value: float) -> str:
    """``_as_character(value)``, quicker for an integer below 1e15 in magnitude
    with fewer than five trailing zeros: its digits, as no narrower form exists."""
    if -1e15 < value < 1e15 and value.is_integer():
        digits = str(int(value))
        if not digits.endswith("00000"):
            return digits
    return _as_character(value)


def _as_character(value: float) -> str:
    """A number as R's ``as.character`` writes it: 15 significant digits, in
    scientific notation when that is narrower (a tie keeps fixed notation) or
    when the number has more than 15 integer digits, and an exponent of at
    least two digits."""
    if value != value:
        return "NaN"
    if value in (math.inf, -math.inf):
        return "Inf" if value > 0 else "-Inf"
    if value == 0:
        return "0"
    mantissa, exponent = f"{value:.14e}".split("e")
    digits, exp = mantissa.lstrip("-").replace(".", "").rstrip("0"), int(exponent)
    sci = f"{mantissa.rstrip('0').rstrip('.')}e{exp:+03d}"
    fixed = f"{value:.{max(0, len(digits) - 1 - exp)}f}"
    return sci if exp >= 15 or len(sci) < len(fixed) else fixed


class _Outcome:
    """A rule's outcome, evaluated on blocks of rows in turn as on all of them
    at once: their items in turn, the warnings of each node as in the first
    block where it gives any, in evaluation order, and the first error."""

    __slots__ = ("body", "evaluator", "raise_", "na_cell", "outcome", "values", "na", "warned")

    def __init__(self, rule: Rule, resolved: OptionSet, ref=None):
        self.body, self.raise_ = prepare_rule(rule, resolved), resolved.raise_
        self.evaluator = Evaluator(None, ref)  # one for every block
        self.outcome = RuleOutcome(rule.name, dsl.render(self.body))
        self.na_cell = resolved.na_value if resolved.na_value in (True, False) else None
        self.values, self.na, self.warned = bytearray(), [], {}

    def add(self, df: DataFrame) -> None:
        if self.outcome.error is not None:
            return
        try:
            evaluator = self.evaluator
            evaluator.df, evaluator.warnings, evaluator.evaluated = df, {}, 0
            value = evaluator.eval(self.body)
            if value.kind != "logical":
                raise EvalError(f"rule {self.outcome.name!r} does not evaluate to a logical value")
        except EvalError as err:
            self.outcome.error = str(err)
            return
        start = len(self.values)
        # a copy: a logical vector may hold TRUE at a missing cell
        self.values += fill(bytearray(value.values), value.na, self.na_cell or False)
        if self.na_cell is None and value.na:  # else na.value settles them
            self.na += map(start.__add__, value.na) if start else value.na
        for site, given in evaluator.warnings.items():  # as the first block to give any
            self.warned.setdefault(site, [str(w) for w in given])

    def done(self, df: DataFrame | None = None) -> RuleOutcome:
        """The outcome, after the rows of ``df`` if given; its error (under
        raise=all, its first warning) raised as the ``raise`` option says."""
        if df is not None:
            self.add(df)
        o = self.outcome
        if o.error is None:
            o.values, o.na = bytes(self.values), tuple(self.na)
            o.warnings = [w for site in sorted(self.warned) for w in self.warned[site]]
        if self.raise_ != "none" and (o.error is not None or o.warnings and self.raise_ == "all"):
            raise EvalError(o.warnings[0] if o.error is None else o.error)
        return o


def _validation(df: DataFrame, key: str | None, outcomes, now=None) -> Validation:
    """The validation of ``df`` by ``outcomes``, made as asked for once the key is checked."""
    key_values = None
    if key is not None:
        if not df.has_column(key):
            raise DataError(f"unknown key column {key!r}")
        col = df.column(key)
        if col.na:
            raise DataError(f"key column {key!r} has missing cells")
        # ids as R's as.character writes the cells
        to_id = {"number": _key_id, "logical": ("FALSE", "TRUE").__getitem__}.get(col.kind, str)
        key_values = list(map(to_id, col.values))
    return Validation(list(outcomes), key, key_values, now or datetime.now(), df.n)


def confront(
    df: DataFrame,
    rs: RuleSet,
    key: str | None = None,
    ref=None,
    opts: dict | None = None,
    now: datetime | None = None,
) -> Validation:
    """Evaluate every rule of a rule set against one frame, in rule order,
    once the key is checked; under raise=error or all, the first rule that
    fails raises. ``confront_csv`` gives the same for a CSV file."""
    resolved = rs.resolved_options(opts)
    return _validation(df, key, (_Outcome(rule, resolved, ref).done(df) for rule in rs.rules), now)


def confront_csv(path: str, rs: RuleSet, key=None, opts=None, workers: int = 1) -> Validation:
    """``confront(ingest_csv(path), rs, key=key, opts=opts)``; but once a full
    block of rows is read, each rule whose ``dsl.reach`` is rows is evaluated
    on each block as it is read. A column is then held whole only if another
    rule or the key reads it, and every column is if a rule's reach is frame
    or the file cannot be read twice (a pipe). Should a column read block by
    block change kind between blocks, the whole file is confronted after all.
    A regular file is read in up to ``workers`` byte ranges, at most one per
    full block of rows, each by a process of its own that evaluates those
    rules on its blocks, unless a block is not plain (see ``read_csv``)."""
    return read_confronting(path, rs, key, opts, workers)[1]()


class _Blocks:
    """The row-local rules' outcomes, evaluated on each block of rows as it is
    read, and the (name, kind) of each column the blocks held."""

    def __init__(self, items: list):
        self.items, self.kinds = items, set()

    def __call__(self, block: DataFrame) -> None:
        self.kinds.update((column.name, column.kind) for column in block.columns)
        for i in self.items:
            i.add(block)

    def take(self) -> tuple:
        """The kinds, and each rule's items, missing items, warnings and error."""
        return self.kinds, [(i.values, i.na, i.warned, i.outcome.error) for i in self.items]

    def join(self, taken: tuple) -> None:
        """Add what ``take`` gave, as if its blocks came next."""
        kinds, pieces = taken
        self.kinds |= kinds
        for i, (values, na, warned, error) in zip(self.items, pieces):
            if i.outcome.error is None:
                start = len(i.values)
                i.values += values
                i.na += map(start.__add__, na)
                for site, given in warned.items():
                    i.warned.setdefault(site, given)
                i.outcome.error = error


def read_confronting(path: str, rs: RuleSet, key=None, opts=None, workers: int = 1) -> tuple:
    """``path`` read as ``confront_csv`` reads it, in up to ``workers`` byte ranges, at most
    one per full block of rows: (rows, every header name), and a function giving
    ``confront_csv``'s validation, which raises any error of confronting, not of reading."""
    resolved, items, local, names = rs.resolved_options(opts), [], [], []
    keep, blocks = None, _Blocks([])

    def plan(header: list[str]):  # made again, from the start, if a plain read is abandoned
        nonlocal keep, blocks
        names[:] = header
        items[:] = (_Outcome(rule, resolved) for rule in rs.rules)
        reaches = [dsl.reach(i.body) for i in items]
        local[:] = (r == "rows" for r in reaches)
        whole = [i.body for i, row in zip(items, local) if not row]
        if os.path.isfile(path) and "frame" not in reaches:
            keep = {key, *chain.from_iterable(map(dsl.variables, whole))}
        blocks = _Blocks(list(compress(items, local)))
        return keep, {n for i in blocks.items for n in dsl.variables(i.body)}, blocks

    df = read_csv(path, plan, workers)
    shape, kinds = (df.n, names or df.names), blocks.kinds  # unplanned, every column is held
    if len(items) < len(rs.rules) or len(kinds) > len(dict(kinds)):  # unplanned, or a kind changed
        return shape, partial(confront, df if keep is None else ingest_csv(path), rs, key, opts=opts)
    outcomes = (i.done(None if row else df) for i, row in zip(items, local))
    return shape, partial(_validation, df, key, outcomes)


def check_that(df: DataFrame, *sources: str, key=None, ref=None, opts=None) -> Validation:
    """Shorthand: build a rule set from source strings and confront it."""
    if not sources:
        raise DataError("a rule set must contain at least one rule")
    rs, _ = new_ruleset([(None, s) for s in sources])
    return confront(df, rs, key=key, ref=ref, opts=opts)
