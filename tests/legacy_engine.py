"""The evaluator that the columnar one in ``checkmate.engine`` replaced, kept
as the reference for ``test_evaluator_differential.py``.

It stores a vector as one list of cells with None for missing ones and
computes missingness again in every operation. It is kept as it was, with
four changes: a zero base to a negative power gives Inf, as in R, where it
used to take the division rule's NA for 0/0; every NaN is one key value
in ``duplicated``, ``is_unique``, ``%in%`` and functional dependencies, as in
R, where two NaN cells used to be one key only when they were one object;
``sum``, ``min`` and ``max`` of no present value give R's 0, Inf (with
R's warning) and -Inf (likewise), where they used to give NA; and ``mean``
gives R's NaN of both infinities and R's finite mean of doubles whose sum
overflows, where it used to raise.
"""

from __future__ import annotations

import math
import operator
import re as _re
import statistics
import warnings as _warnings
from collections import Counter
from dataclasses import dataclass, field

from checkmate import dsl
from checkmate.errors import EvalError
from checkmate.frame import DataFrame


@dataclass
class Value:
    """An evaluation result: a typed vector of cells (None = missing)."""

    kind: str  # logical|number|text|frame
    cells: list = field(default_factory=list)
    frame: DataFrame | None = None

    def __len__(self):
        return len(self.cells)


def _mean(cells):
    """R's mean: NaN of inf and -inf; of cells whose sum no double holds, the
    mean of cells scaled by a power of two, scaled back."""
    try:
        return statistics.fmean(cells)
    except ValueError:
        return math.nan
    except OverflowError:
        scale = 2.0 ** len(cells).bit_length()
        return _mean([c / scale for c in cells]) * scale


def _logical(cells):
    return Value("logical", cells)


_NAN = object()  # every NaN cell, as a key


def _key(cell):
    """A cell as a key: NaN, the one value unequal to itself, is ``_NAN``."""
    return _NAN if cell != cell else cell


def _number(cells):
    return Value("number", cells)


def _text(cells):
    return Value("text", cells)


# ---------------------------------------------------------------------------
# Kleene connectives
# ---------------------------------------------------------------------------


def kleene_and(a, b):
    if a is False or b is False:
        return False
    if a is None or b is None:
        return None
    return True


def kleene_or(a, b):
    if a is True or b is True:
        return True
    if a is None or b is None:
        return None
    return False


def kleene_not(a):
    return None if a is None else not a


# ---------------------------------------------------------------------------
# Evaluator
# ---------------------------------------------------------------------------

_CMP = {
    "<": operator.lt,
    "<=": operator.le,
    "==": operator.eq,
    "!=": operator.ne,
    ">=": operator.ge,
    ">": operator.gt,
}

_ARITH = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "^": operator.pow,
}


def _as_r(op, a, b):
    """``op(a, b)`` where Python raises, as R has it: ±inf, NaN, or NA for 0/0."""
    try:
        return op(a, b)
    except ZeroDivisionError:
        if op is operator.pow:  # 0 to a negative power
            return math.copysign(math.inf, a) if b % 2 == 1 else math.inf
        return math.inf if a > 0 else -math.inf if a < 0 else None
    except OverflowError:  # only ^ overflows; a negative base needs an integer power
        if a < 0 and b % 1:
            return math.nan
        return -math.inf if a < 0 and b % 2 == 1 else math.inf


class Evaluator:
    """Evaluates a rewritten expression in the scope of one data frame."""

    def __init__(self, df: DataFrame, ref=None):
        self.df = df
        self.ref = self._normalize_ref(ref)

    @staticmethod
    def _normalize_ref(ref):
        if ref is None:
            return {}
        if isinstance(ref, DataFrame):
            return {c.name: c.cells() for c in ref.columns}
        return dict(ref)

    # -- scope --------------------------------------------------------------

    def lookup(self, name: str) -> Value:
        if self.df.has_column(name):
            col = self.df.column(name)
            kind = {"number": "number", "text": "text", "boolean": "logical"}[col.type]
            return Value(kind, col.cells())
        if name in self.ref:
            value = self.ref[name]
            if isinstance(value, DataFrame):
                return Value("frame", frame=value)
            if isinstance(value, Value):
                return value
            return self._vector_from_list(list(value))
        raise EvalError(f"object {name!r} not found")

    @staticmethod
    def _vector_from_list(cells: list) -> Value:
        present = [c for c in cells if c is not None]
        # changed since it was replaced: a list with no present cell is a
        # number vector, as frame.from_dict types it (it used to be logical)
        if present and all(isinstance(c, bool) for c in present):
            return _logical(cells)
        if all(isinstance(c, (int, float)) for c in present):
            return _number(cells)
        if all(isinstance(c, str) for c in present):
            return _text(cells)
        raise EvalError("reference vector mixes cell types")

    # -- dispatch -----------------------------------------------------------

    def eval(self, e: dsl.Expression) -> Value:
        handler = _EVAL.get(type(e))
        if handler is None:
            raise EvalError(f"cannot evaluate {type(e).__name__}")
        return handler(self, e)

    def eval_unary(self, e: dsl.Unary) -> Value:
        operand = self.eval(e.operand)
        if e.op == "!":
            self._require(operand, "logical", "!")
            return _logical([kleene_not(c) for c in operand.cells])
        self._require(operand, "number", "unary -")
        return _number([None if c is None else -c for c in operand.cells])

    def _require(self, v: Value, kind: str, what: str):
        if v.kind != kind:
            raise EvalError(f"{what} expects a {kind} operand, got {v.kind}")

    @staticmethod
    def _broadcast(a: Value, b: Value):
        la, lb = len(a), len(b)
        if la == lb:
            return a.cells, b.cells
        if la == 1:
            return a.cells * lb, b.cells
        if lb == 1:
            return a.cells, b.cells * la
        raise EvalError(f"cannot combine vectors of lengths {la} and {lb}")

    def eval_binary(self, e: dsl.Binary) -> Value:
        if e.op == "%in%":
            return self.eval_in(e)
        lhs = self.eval(e.lhs)
        rhs = self.eval(e.rhs)
        if e.op in ("&", "|"):
            self._require(lhs, "logical", e.op)
            self._require(rhs, "logical", e.op)
            la, lb = self._broadcast(lhs, rhs)
            fn = kleene_and if e.op == "&" else kleene_or
            return _logical([fn(a, b) for a, b in zip(la, lb)])
        if e.op in _CMP:
            if lhs.kind == "frame" or rhs.kind == "frame":
                raise EvalError(f"cannot compare whole datasets with {e.op}")
            if lhs.kind != rhs.kind:
                raise EvalError(f"cannot compare {lhs.kind} with {rhs.kind}")
            op = _CMP[e.op]
            la, lb = self._broadcast(lhs, rhs)
            return _logical(
                [None if a is None or b is None else op(a, b) for a, b in zip(la, lb)]
            )
        if e.op in _ARITH:
            self._require(lhs, "number", e.op)
            self._require(rhs, "number", e.op)
            op = _ARITH[e.op]
            la, lb = self._broadcast(lhs, rhs)
            try:
                out = [None if a is None or b is None else op(a, b) for a, b in zip(la, lb)]
            except (ZeroDivisionError, OverflowError):
                out = [None if a is None or b is None else _as_r(op, a, b) for a, b in zip(la, lb)]
            nan = any(map(operator.ne, out, out))  # NaN is the one float unequal to itself
            if nan or (op is operator.pow and complex in map(type, out)):  # complex only from ^
                _warnings.warn("NaNs produced", RuntimeWarning)
                out = [None if c != c or type(c) is complex else c for c in out]
            return _number(out)
        raise EvalError(f"unknown operator {e.op!r}")

    def eval_in(self, e: dsl.Binary) -> Value:
        lhs = self.eval(e.lhs)
        rhs = self.eval(e.rhs)
        if lhs.kind == "frame" or rhs.kind == "frame":
            raise EvalError("cannot apply %in% to a whole dataset")
        if lhs.kind != rhs.kind:
            raise EvalError(f"cannot test {lhs.kind} membership in a {rhs.kind} vector")
        members = set(_key(c) for c in rhs.cells if c is not None)
        return _logical([None if c is None else _key(c) in members for c in lhs.cells])

    # -- function calls -----------------------------------------------------

    def eval_call(self, e: dsl.Call) -> Value:
        fname = e.fname
        handler = getattr(self, "_fn_" + fname.replace(".", "_"), None)
        if handler is None:
            raise EvalError(f"unknown function {fname!r}")
        return handler(e)

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
        if v.kind != "logical" or len(v) != 1 or v.cells[0] is None:
            raise EvalError("na.rm must be TRUE or FALSE")
        return v.cells[0]

    def _the_frame(self, e: dsl.Call) -> DataFrame:
        if len(e.args) == 0:
            return self.df
        (v,) = self._positional(e, 1)
        if v.kind != "frame":
            raise EvalError(f"{e.fname} expects the dataset '.'")
        return v.frame

    def _fn_nrow(self, e):
        return _number([float(self._the_frame(e).n)])

    _fn_number_of_records = _fn_nrow

    def _fn_ncol(self, e):
        return _number([float(len(self._the_frame(e).columns))])

    def _fn_names(self, e):
        return _text(list(self._the_frame(e).names))

    def _fn_abs(self, e):
        (v,) = self._positional(e, 1)
        self._require(v, "number", "abs")
        return _number([None if c is None else abs(c) for c in v.cells])

    def _reduced_cells(self, e, kind):
        """Cells of a reduction's one argument, without missing ones under na.rm."""
        (v,) = self._positional(e, 1, allow_named=("na.rm",))
        self._require(v, kind, e.fname)
        if self._na_rm(e):
            return [c for c in v.cells if c is not None]
        return v.cells

    def _logical_reduce(self, e, empty, shortcut):
        result = empty
        for c in self._reduced_cells(e, "logical"):
            if c is shortcut:
                return _logical([shortcut])
            if c is None:
                result = None
        return _logical([result])

    def _fn_all(self, e):
        return self._logical_reduce(e, True, False)

    def _fn_any(self, e):
        return self._logical_reduce(e, False, True)

    def _numeric_aggregate(self, e, fn, empty=None):
        cells = self._reduced_cells(e, "number")
        if any(c is None for c in cells):
            return _number([None])
        if not cells:
            if empty in (math.inf, -math.inf):
                _warnings.warn(
                    f"no non-missing arguments to {e.fname}; "
                    f"returning {'Inf' if empty > 0 else '-Inf'}",
                    RuntimeWarning,
                )
            return _number([empty])
        return _number([float(fn(cells))])

    def _fn_mean(self, e):
        return self._numeric_aggregate(e, _mean)

    def _fn_sum(self, e):
        return self._numeric_aggregate(e, sum, 0.0)

    def _fn_min(self, e):
        return self._numeric_aggregate(e, min, math.inf)

    def _fn_max(self, e):
        return self._numeric_aggregate(e, max, -math.inf)

    def _fn_median(self, e):
        return self._numeric_aggregate(e, statistics.median)

    def _fn_cor(self, e):
        x, y = self._positional(e, 2)
        self._require(x, "number", "cor")
        self._require(y, "number", "cor")
        if len(x) != len(y):
            raise EvalError("cor expects vectors of equal length")
        pairs = [(a, b) for a, b in zip(x.cells, y.cells) if a is not None and b is not None]
        if len(pairs) < 2:
            return _number([None])
        try:
            r = statistics.correlation([p[0] for p in pairs], [p[1] for p in pairs])
        except statistics.StatisticsError:
            return _number([None])
        return _number([r])

    def _fn_grepl(self, e):
        pattern, v = self._positional(e, 2)
        if pattern.kind != "text" or len(pattern) != 1 or pattern.cells[0] is None:
            raise EvalError("grepl expects a pattern string as first argument")
        self._require(v, "text", "grepl")
        try:
            rx = _re.compile(pattern.cells[0])
        except _re.error as err:
            raise EvalError(f"grepl: invalid pattern {pattern.cells[0]!r}: {err}") from err
        return _logical(
            [None if c is None else rx.search(c) is not None for c in v.cells]
        )

    def _key_rows(self, e: dsl.Call) -> list[tuple]:
        if not e.args:
            raise EvalError(f"{e.fname} expects at least one argument")
        if e.named_args:
            raise EvalError(f"{e.fname} takes no named arguments")
        vectors = [self.eval(a) for a in e.args]
        n = max(len(v) for v in vectors)
        cols = []
        for v in vectors:
            if v.kind == "frame":
                raise EvalError(f"{e.fname} expects column vectors")
            cells = v.cells * n if len(v) == 1 and n > 1 else v.cells
            if len(cells) != n:
                raise EvalError(f"cannot combine vectors of lengths {len(cells)} and {n}")
            cols.append(list(map(_key, cells)))
        return list(zip(*cols))

    def _fn_duplicated(self, e):
        first: dict[tuple, int] = {}  # row -> index of its first occurrence
        return _logical([first.setdefault(row, i) != i for i, row in enumerate(self._key_rows(e))])

    def _fn_is_unique(self, e):
        rows = self._key_rows(e)
        counts = Counter(rows)
        return _logical([counts[row] == 1 for row in rows])

    def _fn_all_unique(self, e):
        cells = self._fn_is_unique(e).cells
        return _logical([all(cells)])

    def _fn_is_complete(self, e):
        rows = self._key_rows(e)
        return _logical([None not in row for row in rows])

    def _fn_all_complete(self, e):
        cells = self._fn_is_complete(e).cells
        return _logical([all(cells)])

    def _type_test(self, e, kind):
        (v,) = self._positional(e, 1)
        return _logical([v.kind == kind])

    def _fn_is_numeric(self, e):
        return self._type_test(e, "number")

    def _fn_is_character(self, e):
        return self._type_test(e, "text")

    def _fn_is_logical(self, e):
        return self._type_test(e, "logical")

    def _fn_is_na(self, e):
        (v,) = self._positional(e, 1)
        if v.kind == "frame":
            raise EvalError("is.na expects a vector")
        return _logical([c is None for c in v.cells])

    def _fn_c(self, e):
        if e.named_args:
            raise EvalError("c takes no named arguments")
        vectors = [self.eval(a) for a in e.args]
        kinds = {v.kind for v in vectors if v.kind != "logical" or any(
            c is not None for c in v.cells)}
        kinds.discard("frame")
        if len(kinds) > 1:
            raise EvalError("c cannot mix cell types")
        cells = []
        for v in vectors:
            if v.kind == "frame":
                raise EvalError("c expects vectors")
            cells.extend(v.cells)
        kind = kinds.pop() if kinds else "logical"
        return Value(kind, cells)


def _unrewritten(ev: Evaluator, e: dsl.Implication) -> Value:
    raise EvalError("implication must be rewritten before evaluation")


_EVAL = {
    dsl.NumberLit: lambda ev, e: _number([e.value]),
    dsl.StringLit: lambda ev, e: _text([e.value]),
    dsl.BoolLit: lambda ev, e: _logical([e.value]),
    dsl.MissingLit: lambda ev, e: _logical([None]),
    dsl.Identifier: lambda ev, e: ev.lookup(e.name),
    dsl.DatasetRef: lambda ev, e: Value("frame", frame=ev.df),
    dsl.Paren: lambda ev, e: ev.eval(e.inner),
    dsl.Unary: Evaluator.eval_unary,
    dsl.Binary: Evaluator.eval_binary,
    dsl.Call: Evaluator.eval_call,
    dsl.FuncDep: lambda ev, e: _logical(eval_fd(e, ev.df)),
    dsl.Implication: _unrewritten,
}


def eval_expr(e: dsl.Expression, df: DataFrame, ref=None) -> Value:
    """Evaluate a rewritten expression against a frame."""
    return Evaluator(df, ref).eval(e)


# ---------------------------------------------------------------------------
# Functional dependencies
# ---------------------------------------------------------------------------


def eval_fd(fd: dsl.FuncDep, df: DataFrame) -> list:
    """Tri-state per-record check of a functional dependency.

    Records are grouped on the determinant combination (missing is its own
    key); the group's first record in row order sets the reference dependent
    combination. A record with a missing dependent cell is unverifiable.
    """
    for name in fd.determinant + fd.dependent:
        if not df.has_column(name):
            raise EvalError(f"object {name!r} not found")
    det = [list(map(_key, df.column(name).cells())) for name in fd.determinant]
    dep = [list(map(_key, df.column(name).cells())) for name in fd.dependent]
    combos = list(zip(*dep))
    reference: dict[tuple, tuple] = {}
    refs = map(reference.setdefault, zip(*det), combos)
    return [
        None if None in combo or None in ref else combo == ref
        for combo, ref in zip(combos, refs)
    ]
