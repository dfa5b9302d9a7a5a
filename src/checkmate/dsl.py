"""Lexer, parser, classifier, rewriters, and renderer for the validation rule DSL.

A rule is a single expression such as ``staff >= 0``,
``if (staff > 0) staff.costs > 0`` or ``city + street ~ postal_code``.
Besides plain rules, two directives are recognized: macro definitions
(``med := median(x)``) and variable-group definitions
(``G := var_group(x, y, z)``).
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import LexError, ParseError

# ---------------------------------------------------------------------------
# Operator table: the lexer, the parser and the renderer all read it
# ---------------------------------------------------------------------------

# precedence levels, loosest to tightest
PREC_OR = 1
PREC_AND = 2
PREC_NOT = 3
PREC_CMP = 4
PREC_ADD = 5
PREC_MUL = 6
PREC_NEG = 7
PREC_POW = 8
PREC_ATOM = 9

LEFT, RIGHT, NONASSOC = "left", "right", "non-associative"

COMPARISON_OPS = {"<", "<=", "==", "!=", ">=", ">", "%in%"}

# binary operator -> (level, associativity)
_BINARY_PREC = {
    "|": (PREC_OR, LEFT),
    "&": (PREC_AND, LEFT),
    **{op: (PREC_CMP, NONASSOC) for op in sorted(COMPARISON_OPS)},
    "+": (PREC_ADD, LEFT),
    "-": (PREC_ADD, LEFT),
    "*": (PREC_MUL, LEFT),
    "/": (PREC_MUL, LEFT),
    "^": (PREC_POW, RIGHT),
}

# prefix operator -> (Unary.op, level); its operand binds at least as tightly
_PREFIX = {"!": ("!", PREC_NOT), "-": ("negate", PREC_NEG)}
_UNARY = {op: (text, prec) for text, (op, prec) in _PREFIX.items()}

# deepest expression tree a rule may have; deeper ones would exhaust the stack
# of the recursive passes over the tree
MAX_DEPTH = 150

# most nodes one rule entry may expand into through macros and variable groups;
# every pass after expansion visits each copy of a repeated body
MAX_NODES = 100_000

# ---------------------------------------------------------------------------
# Tokens
# ---------------------------------------------------------------------------

# the words that are not identifiers
_WORD_KINDS = {
    "if": "keyword", "TRUE": "boolean-literal", "FALSE": "boolean-literal", "NA": "missing-literal"
}

_OPERATOR_TEXTS = sorted({*_BINARY_PREC, *_PREFIX, "~", "=", ":="}, key=lambda op: (-len(op), op))

# one named group per token kind; operators longest first so '<=' wins over '<'
_TOKEN_RE = re.compile(
    "|".join(
        f"(?P<{kind}>{pattern})"
        for kind, pattern in [
            ("newline", r"\n"),
            ("space", r"[ \t\r]+|#[^\n]*"),
            ("number", r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?"),
            ("string", r'"[^"\\]*(?:\\.[^"\\]*)*"' + "|" + r"'[^'\\]*(?:\\.[^'\\]*)*'"),
            ("unterminated", r"[\"']"),
            ("word", r"[A-Za-z][A-Za-z0-9._]*"),
            ("operator", "|".join(map(re.escape, _OPERATOR_TEXTS))),
            ("punctuation", r"[(),.]"),
            ("error", r"."),
        ]
    ),
    re.DOTALL,
)


class Token(NamedTuple):
    kind: str  # identifier|number|string|boolean-literal|missing-literal|operator|punctuation|keyword
    text: str
    line: int
    column: int


def tokenize(source: str) -> list[Token]:
    """Split rule source into tokens. ``#`` starts a comment to end of line."""
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(source):
        kind, text, column = m.lastgroup, m.group(), m.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "unterminated":
            raise LexError("unterminated string literal", line, column)
        elif kind == "error":
            raise LexError(f"unexpected character {text!r}", line, column)
        elif kind != "space":
            if kind == "word":
                kind = _WORD_KINDS.get(text, "identifier")
            tokens.append(Token(kind, text, line, column))
    return tokens


# ---------------------------------------------------------------------------
# Abstract syntax tree: nodes never change after construction, so trees may
# share subtrees
# ---------------------------------------------------------------------------


class Expression:
    """Base class for rule-body AST nodes."""


@dataclass(frozen=True)
class NumberLit(Expression):
    value: float


@dataclass(frozen=True)
class StringLit(Expression):
    value: str


@dataclass(frozen=True)
class BoolLit(Expression):
    value: bool


@dataclass(frozen=True)
class MissingLit(Expression):
    pass


@dataclass(frozen=True)
class Identifier(Expression):
    name: str


@dataclass(frozen=True)
class DatasetRef(Expression):
    pass


@dataclass(frozen=True)
class Paren(Expression):
    """Explicit grouping; kept in the tree so rendering is reproducible."""

    inner: Expression


@dataclass(frozen=True)
class Unary(Expression):
    op: str  # '!' or 'negate'
    operand: Expression


@dataclass(frozen=True)
class Binary(Expression):
    op: str
    lhs: Expression
    rhs: Expression


@dataclass(frozen=True)
class Call(Expression):
    fname: str
    args: list[Expression] = field(default_factory=list)
    named_args: dict[str, Expression] = field(default_factory=dict)


@dataclass(frozen=True)
class Implication(Expression):
    condition: Expression
    consequent: Expression


@dataclass(frozen=True)
class FuncDep(Expression):
    determinant: list[str]
    dependent: list[str]


@dataclass(frozen=True)
class MacroDef:
    name: str
    body: Expression


@dataclass(frozen=True)
class GroupDef:
    name: str
    members: list[str]


@dataclass(frozen=True)
class RuleExpr:
    body: Expression


Directive = MacroDef | GroupDef | RuleExpr

# ---------------------------------------------------------------------------
# Tree walking: per node type, one children reader and one rebuilder serve every pass
# ---------------------------------------------------------------------------


# node type -> the direct children of a node, left to right; leaves are absent.
# A functional dependency's names count as identifiers.
_CHILDREN = {
    Paren: lambda e: [e.inner],
    Unary: lambda e: [e.operand],
    Binary: lambda e: [e.lhs, e.rhs],
    Call: lambda e: [*e.args, *e.named_args.values()],
    Implication: lambda e: [e.condition, e.consequent],
    FuncDep: lambda e: [Identifier(name) for name in (*e.determinant, *e.dependent)],
}


def children(e: Expression) -> list[Expression]:
    """Direct sub-expressions of a node, left to right."""
    listed = _CHILDREN.get(type(e))
    return listed(e) if listed else []


def _rename(names: list[str], fn) -> list[str]:
    """Map variable names through ``fn``.

    A functional dependency lists plain names, so a name that ``fn`` turns into
    anything but an identifier (say, a macro with an expression body) stays.
    """
    mapped = [fn(Identifier(name)) for name in names]
    return [m.name if type(m) is Identifier else name for m, name in zip(mapped, names)]


def _rebuild_binary(e: Binary, fn) -> Expression:
    lhs, rhs = fn(e.lhs), fn(e.rhs)
    return e if lhs is e.lhs and rhs is e.rhs else Binary(e.op, lhs, rhs)


def _rebuild_call(e: Call, fn) -> Expression:
    args = [fn(a) for a in e.args]
    named = {k: fn(v) for k, v in e.named_args.items()}
    if all(map(operator.is_, args, e.args)) and all(
        map(operator.is_, named.values(), e.named_args.values())
    ):
        return e
    return Call(e.fname, args, named)


def _rebuild_implication(e: Implication, fn) -> Expression:
    p, q = fn(e.condition), fn(e.consequent)
    return e if p is e.condition and q is e.consequent else Implication(p, q)


def _rebuild_funcdep(e: FuncDep, fn) -> Expression:
    det, dep = _rename(e.determinant, fn), _rename(e.dependent, fn)
    return e if det == e.determinant and dep == e.dependent else FuncDep(det, dep)


# node type -> the node with ``fn`` applied to each direct child, left to right,
# in the order of _CHILDREN; leaves are absent. Written out per type: the walks
# call it for every node of every rule.
_REBUILD = {
    Paren: lambda e, fn: e if (inner := fn(e.inner)) is e.inner else Paren(inner),
    Unary: lambda e, fn: e if (operand := fn(e.operand)) is e.operand else Unary(e.op, operand),
    Binary: _rebuild_binary,
    Call: _rebuild_call,
    Implication: _rebuild_implication,
    FuncDep: _rebuild_funcdep,
}


def rebuild(e: Expression, fn) -> Expression:
    """Node with ``fn`` applied to each direct child, left to right.

    ``e`` itself comes back when ``fn`` returns every child unchanged (the same
    object), so a pass copies only the paths it changes; leaves come back as is.
    """
    make = _REBUILD.get(type(e))
    return make(e, fn) if make else e


def extent(e: Expression) -> tuple[int, int]:
    """Levels and nodes in the tree of ``e``, counted no further than level ``MAX_DEPTH + 1``."""
    level, levels, nodes = [e], 0, 0
    while level and levels <= MAX_DEPTH:
        levels += 1
        nodes += len(level)
        level = [child for node in level for child in children(node)]
    return levels, nodes


def node_precedence(e: Expression) -> int:
    if isinstance(e, Binary):
        return _BINARY_PREC[e.op][0]
    if isinstance(e, Unary):
        return _UNARY[e.op][1]
    if isinstance(e, (Implication, FuncDep)):
        return 0
    return PREC_ATOM


# ---------------------------------------------------------------------------
# Parser (recursive descent, precedence climbing for operators)
# ---------------------------------------------------------------------------

_TOO_DEEP = f"expression nested deeper than {MAX_DEPTH} levels"
_TOO_BIG = f"expression expands to more than {MAX_NODES} nodes"


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = [*tokens, None, None]  # peek(1) may look past the end
        self.pos = 0
        self.depth = 1  # tree level of the sub-expression being parsed

    def peek(self, offset=0) -> Token | None:
        return self.tokens[self.pos + offset]

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError(f"expected {text!r}, found end of input")
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.line, tok.column)
        return self.next()

    def at(self, text: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.text == text

    def label(self, sep: str) -> str | None:
        """Consume ``name <sep>`` and return the name; None, consuming nothing, if not there."""
        tok, nxt = self.peek(), self.peek(1)
        if tok is None or tok.kind != "identifier" or nxt is None or nxt.text != sep:
            return None
        self.pos += 2
        return tok.text

    def nested(self, parse, *args) -> Expression:
        """A sub-expression one level down; stops before the stack runs out."""
        if self.depth == MAX_DEPTH:
            raise ParseError(_TOO_DEEP)
        self.depth += 1
        e = parse(*args)
        self.depth -= 1
        return e

    def shallow(self, e: Expression) -> Expression:
        """``e``, read in full, once its tree is known to be at most ``MAX_DEPTH`` levels deep."""
        # every level of a tree takes a token of its own
        if self.pos > MAX_DEPTH and extent(e)[0] > MAX_DEPTH:
            raise ParseError(_TOO_DEEP)
        return e

    # directive level -------------------------------------------------------

    def parse_directive(self) -> Directive:
        name = self.label(":=")
        if name is None:
            body = self.parse_expression(allow_fd=True)
            self.end_of_input()
            return RuleExpr(self.shallow(body))
        body = self.parse_expression()
        self.end_of_input()
        if isinstance(body, Call) and body.fname == "var_group":
            for arg in body.args:
                if not isinstance(arg, Identifier):
                    raise ParseError("var_group members must be variable names")
            if body.named_args or not body.args:
                raise ParseError("var_group expects one or more variable names")
            members = [a.name for a in body.args]
            return GroupDef(name, members)
        return MacroDef(name, self.shallow(body))

    def end_of_input(self):
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected {tok.text!r}", tok.line, tok.column)

    # expression levels -----------------------------------------------------

    def parse_expression(self, allow_fd: bool = False) -> Expression:
        tok = self.peek()
        if tok is not None and tok.kind == "keyword" and tok.text == "if":
            self.next()
            self.expect("(")
            cond = self.nested(self.parse_expression)
            self.expect(")")
            consequent = self.nested(self.parse_expression)
            return Implication(cond, consequent)
        e = self.parse_binary(PREC_OR)
        if allow_fd and self.at("~"):
            self.next()
            rhs = self.parse_binary(PREC_OR)
            return FuncDep(self._identifier_sum(e), self._identifier_sum(rhs))
        return e

    def _identifier_sum(self, e: Expression) -> list[str]:
        """Flatten ``a + b + c`` into a name list for functional dependencies."""
        if isinstance(e, Identifier):
            return [e.name]
        if isinstance(e, Binary) and e.op == "+":
            return self._identifier_sum(e.lhs) + self._identifier_sum(e.rhs)
        raise ParseError("functional dependency sides must be sums of variable names")

    def parse_binary(self, min_prec: int) -> Expression:
        """An operand followed by the operators that bind at least as tightly as ``min_prec``."""
        tok = self.peek()
        prefix = _PREFIX.get(tok.text) if tok is not None else None
        if prefix is not None and prefix[1] >= min_prec:
            self.next()
            e = Unary(prefix[0], self.nested(self.parse_binary, prefix[1]))
        else:
            e = self.parse_atom()
        while (tok := self.peek()) is not None and tok.text in _BINARY_PREC:
            prec, assoc = _BINARY_PREC[tok.text]
            if prec < min_prec:
                break
            self.next()
            # the right operand of '^' may be negated: 2^-1
            rhs = self.nested(self.parse_binary, PREC_NEG if assoc == RIGHT else prec + 1)
            e = Binary(tok.text, e, rhs)
            again = self.peek()
            if assoc == NONASSOC and again is not None and again.text in COMPARISON_OPS:
                raise ParseError(
                    "comparison operators are non-associative", again.line, again.column
                )
        return e

    def parse_atom(self) -> Expression:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        if tok.kind == "number":
            self.next()
            return NumberLit(float(tok.text))
        if tok.kind == "string":
            self.next()
            raw = tok.text[1:-1]
            return StringLit(raw.replace('\\"', '"').replace("\\'", "'").replace("\\\\", "\\"))
        if tok.kind == "boolean-literal":
            self.next()
            return BoolLit(tok.text == "TRUE")
        if tok.kind == "missing-literal":
            self.next()
            return MissingLit()
        if tok.text == ".":
            self.next()
            return DatasetRef()
        if tok.text == "(":
            self.next()
            inner = self.nested(self.parse_expression)
            self.expect(")")
            return inner if isinstance(inner, Paren) else Paren(inner)
        if tok.kind == "identifier":
            self.next()
            if self.at("("):
                return self.parse_call(tok.text)
            return Identifier(tok.text)
        raise ParseError(f"unexpected {tok.text!r}", tok.line, tok.column)

    def parse_call(self, fname: str) -> Call:
        self.expect("(")
        args: list[Expression] = []
        named: dict[str, Expression] = {}
        if not self.at(")"):
            while True:
                name = self.label("=")
                if name is None:
                    args.append(self.nested(self.parse_expression))
                elif name in named:
                    raise ParseError(f"duplicate named argument {name!r}")
                else:
                    named[name] = self.nested(self.parse_expression)
                if self.at(","):
                    self.next()
                    continue
                break
        self.expect(")")
        return Call(fname, args, named)


def parse(source: str) -> Directive:
    """Parse a single rule or directive.

    A rule or macro body nested deeper than ``MAX_DEPTH`` levels (each operand,
    argument, ``if`` part and parenthesis pair is one level) is a ``ParseError``.
    """
    tokens = tokenize(source)
    if not tokens:
        raise ParseError("empty rule")
    return _Parser(tokens).parse_directive()


def parse_expression(source: str) -> Expression:
    """Parse rule source that must be a plain expression (no ``:=`` directive)."""
    d = parse(source)
    if not isinstance(d, RuleExpr):
        raise ParseError("expected an expression, found a definition")
    return d.body


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

VALIDATING_CALLS = {"all", "any", "grepl", "all_unique", "all_complete"}


def classify(d: Directive) -> str:
    """Return one of 'validating', 'macro', 'group', 'invalid'."""
    if isinstance(d, MacroDef):
        return "macro"
    if isinstance(d, GroupDef):
        return "group"
    body = d.body.inner if isinstance(d.body, Paren) else d.body
    if isinstance(body, (Implication, FuncDep)):
        return "validating"
    if isinstance(body, Unary) and body.op == "!":
        return "validating"
    if isinstance(body, Binary) and body.op in COMPARISON_OPS | {"&", "|"}:
        return "validating"
    if isinstance(body, Call):
        f = body.fname
        if f in VALIDATING_CALLS or f.startswith("is.") or f.startswith("is_"):
            return "validating"
    return "invalid"


# ---------------------------------------------------------------------------
# Macro substitution and group expansion
# ---------------------------------------------------------------------------


def substitute_macros(e: Expression, macros: dict[str, Expression]) -> Expression:
    """Replace identifiers that name a macro by the macro body.

    Bodies are inserted once, without re-scanning; a binary body is wrapped in
    parentheses when the surrounding operator binds at least as tightly. A
    result nested deeper than ``MAX_DEPTH`` levels, or one that inserts a body
    and has more than ``MAX_NODES`` nodes, is a ``ParseError``. The result
    shares each body among its uses, so the raise comes before any pass
    copies them.
    """
    if not macros:
        return e
    extents: dict[str, tuple[int, int]] = {}  # macro name -> levels and nodes of its body
    nodes = 0

    def walk(node: Expression, parent_prec: int, level: int) -> Expression:
        nonlocal nodes
        if type(node) is Identifier and node.name in macros:
            body = macros[node.name]
            wrap = isinstance(body, (Binary, Implication)) and parent_prec >= node_precedence(body)
            if node.name not in extents:
                extents[node.name] = extent(body)
            levels, size = extents[node.name]
            if level + wrap + levels - 1 > MAX_DEPTH:
                raise ParseError(_TOO_DEEP)
            nodes += wrap + size
            return Paren(body) if wrap else body
        nodes += 1
        # only operators pass their binding strength down; any other parent
        # (parentheses, call arguments, if) already delimits its children
        p = node_precedence(node) if type(node) in (Unary, Binary) else 0
        return rebuild(node, lambda child: walk(child, p, level + 1))

    try:
        out = walk(e, 0, 1)
    finally:
        del walk  # it refers to itself: break the cycle here, not in the cyclic collector
    if extents and nodes > MAX_NODES:
        raise ParseError(_TOO_BIG)
    return out


def expand_groups(e: Expression, groups: dict[str, list[str]]) -> list[Expression]:
    """Expand variable-group references over the Cartesian product of members.

    The first referenced group varies slowest; an expression referencing no
    group comes back as a one-element list. An expansion into more than
    ``MAX_NODES`` nodes in all is a ``ParseError``, raised before any copy is
    built.
    """
    if not groups:
        return [e]
    names, nodes = _census(e)
    referenced = [name for name in names if name in groups]
    if not referenced:
        return [e]
    if math.prod(len(groups[g]) for g in referenced) * nodes > MAX_NODES:
        raise ParseError(_TOO_BIG)
    out = []
    for combo in itertools.product(*(groups[g] for g in referenced)):
        mapping = {g: Identifier(m) for g, m in zip(referenced, combo)}
        out.append(substitute_macros(e, mapping))
    return out


# ---------------------------------------------------------------------------
# Rewrites
# ---------------------------------------------------------------------------


def _parenthesize(e: Expression) -> Expression:
    return e if isinstance(e, Paren) else Paren(e)


def rewrite_implication(e: Expression) -> Expression:
    """Turn every ``if (P) Q`` node into ``!(P) | (Q)``."""
    if type(e) is Implication:
        p = rewrite_implication(e.condition)
        q = rewrite_implication(e.consequent)
        return Binary("|", Unary("!", _parenthesize(p)), _parenthesize(q))
    return rebuild(e, rewrite_implication)


def _degree(e: Expression) -> int | None:
    """0 for a constant, 1 for a linear expression, else None: built from
    identifiers, numbers, +, -, negation and constant multiples."""
    if isinstance(e, NumberLit):
        return 0
    if isinstance(e, Identifier):
        return 1
    if isinstance(e, Paren):
        return _degree(e.inner)
    if isinstance(e, Unary) and e.op == "negate":
        return _degree(e.operand)
    if isinstance(e, Binary) and e.op in ("+", "-", "*"):
        lhs, rhs = _degree(e.lhs), _degree(e.rhs)
        if lhs is not None and rhs is not None:
            degree = lhs + rhs if e.op == "*" else max(lhs, rhs)
            return degree if degree <= 1 else None
    return None


def is_linear(e: Expression) -> bool:
    """Syntactic linearity: identifiers, numbers, +, -, and constant multiples."""
    return _degree(e) is not None


def rewrite_tolerance(e: Expression, eps_eq: float, eps_ineq: float) -> Expression:
    """Add machine-rounding slack to a top-level linear (in)equality."""
    if not isinstance(e, Binary):
        return e
    op = e.op
    if op not in ("==", ">=", "<=", ">", "<"):
        return e
    eps = eps_eq if op == "==" else eps_ineq
    if eps <= 0 or not (is_linear(e.lhs) and is_linear(e.rhs)):
        return e
    rhs = _parenthesize(e.rhs) if isinstance(e.rhs, Binary) else e.rhs
    diff = Binary("-", e.lhs, rhs)
    if op == "==":
        return Binary("<", Call("abs", [diff]), NumberLit(eps))
    slack = NumberLit(-eps) if op in (">=", ">") else NumberLit(eps)
    return Binary(op, Paren(diff), slack)


# ---------------------------------------------------------------------------
# Variable listing
# ---------------------------------------------------------------------------


def _census(e: Expression) -> tuple[list[str], int]:
    """Names of all identifiers in first-occurrence order, and the number of nodes."""
    seen: dict[str, None] = {}
    nodes = 0
    stack = [e]  # preorder: the leftmost child is taken next
    while stack:
        node = stack.pop()
        nodes += 1
        if type(node) is Identifier:
            seen.setdefault(node.name)
        stack.extend(reversed(children(node)))
    return list(seen), nodes


def variables(e: Expression) -> list[str]:
    """Names of all identifiers in first-occurrence order."""
    return _census(e)[0]


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

# '/' and '^' print tight; every other binary operator gets single spaces
_TIGHT_OPS = {"/", "^"}


def render_number(value: float) -> str:
    if value != value:  # NaN guard; should not occur in parsed rules
        return "NaN"
    if value in (math.inf, -math.inf):  # a literal past the float range reads back as inf
        return "1e999" if value > 0 else "-1e999"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _operand(child: Expression, parent_prec: int, tighter: bool) -> str:
    """Text of an operand, in parentheses when its operator binds too loosely."""
    cp = node_precedence(child)
    if cp < parent_prec or (tighter and cp == parent_prec):
        return "(" + render(child) + ")"
    return render(child)


def _render_binary(e: Binary) -> str:
    prec, assoc = _BINARY_PREC[e.op]
    # an operand at the operator's own level needs parentheses on the side the
    # operator does not associate towards
    left = _operand(e.lhs, prec, tighter=assoc != LEFT)
    right = _operand(e.rhs, prec, tighter=assoc != RIGHT)
    sep = "" if e.op in _TIGHT_OPS else " "
    return f"{left}{sep}{e.op}{sep}{right}"


def _render_call(e: Call) -> str:
    parts = [render(a) for a in e.args]
    parts += [f"{k} = {render(v)}" for k, v in e.named_args.items()]
    return f"{e.fname}({', '.join(parts)})"


# node type -> its canonical text
_RENDER = {
    NumberLit: lambda e: render_number(e.value),
    StringLit: lambda e: '"' + e.value.replace("\\", "\\\\").replace('"', '\\"') + '"',
    BoolLit: lambda e: "TRUE" if e.value else "FALSE",
    MissingLit: lambda e: "NA",
    Identifier: lambda e: e.name,
    DatasetRef: lambda e: ".",
    Paren: lambda e: "(" + render(e.inner) + ")",
    Unary: lambda e: _UNARY[e.op][0] + _operand(e.operand, _UNARY[e.op][1], tighter=False),
    Binary: _render_binary,
    Call: _render_call,
    Implication: lambda e: f"if ({render(e.condition)}) {render(e.consequent)}",
    FuncDep: lambda e: " + ".join(e.determinant) + " ~ " + " + ".join(e.dependent),
}


def render(e: Expression) -> str:
    """Deterministic canonical text of an expression."""
    return _RENDER[type(e)](e)


def render_directive(d: Directive) -> str:
    if isinstance(d, MacroDef):
        return f"{d.name} := {render(d.body)}"
    if isinstance(d, GroupDef):
        return f"{d.name} := var_group({', '.join(d.members)})"
    return render(d.body)
