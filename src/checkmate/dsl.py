"""Lexer, parser, classifier, rewriters, and renderer for the validation rule DSL.

A rule is a single expression such as ``staff >= 0``,
``if (staff > 0) staff.costs > 0`` or ``city + street ~ postal_code``.
Besides plain rules, two directives are recognized: macro definitions
(``med := median(x)``) and variable-group definitions
(``G := var_group(x, y, z)``).
"""

from __future__ import annotations

import copy
import itertools
import re
from dataclasses import dataclass, field

from .errors import LexError, ParseError

# ---------------------------------------------------------------------------
# Tokens
# ---------------------------------------------------------------------------

IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9._]*")
NUMBER_RE = re.compile(r"\d+(\.\d*)?([eE][+-]?\d+)?")

KEYWORDS = {"if"}
BOOL_LITERALS = {"TRUE", "FALSE"}
MISSING_LITERAL = "NA"

# longest first so e.g. '<=' wins over '<'
OPERATORS = [
    "%in%", ":=", "<=", ">=", "==", "!=", "<", ">", "!",
    "&", "|", "+", "-", "*", "/", "^", "~", "=",
]
PUNCTUATION = ["(", ")", ",", "."]


@dataclass(frozen=True)
class Token:
    kind: str  # identifier|number|string|boolean-literal|missing-literal|operator|punctuation|keyword
    text: str
    line: int
    column: int


def tokenize(source: str) -> list[Token]:
    """Split rule source into tokens. ``#`` starts a comment to end of line."""
    tokens = []
    i, line, col = 0, 1, 1
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        if ch.isdigit():
            m = NUMBER_RE.match(source, i)
            text = m.group(0)
            tokens.append(Token("number", text, line, col))
            i += len(text)
            col += len(text)
            continue
        if ch in "\"'":
            j = i + 1
            buf = []
            while j < n and source[j] != ch:
                if source[j] == "\\" and j + 1 < n:
                    buf.append(source[j : j + 2])
                    j += 2
                else:
                    buf.append(source[j])
                    j += 1
            if j >= n:
                raise LexError("unterminated string literal", line, col)
            text = source[i : j + 1]
            tokens.append(Token("string", text, line, col))
            col += j + 1 - i
            i = j + 1
            continue
        if ch.isalpha():
            m = IDENT_RE.match(source, i)
            text = m.group(0)
            if text in KEYWORDS:
                kind = "keyword"
            elif text in BOOL_LITERALS:
                kind = "boolean-literal"
            elif text == MISSING_LITERAL:
                kind = "missing-literal"
            else:
                kind = "identifier"
            tokens.append(Token(kind, text, line, col))
            i += len(text)
            col += len(text)
            continue
        for op in OPERATORS:
            if source.startswith(op, i):
                tokens.append(Token("operator", op, line, col))
                i += len(op)
                col += len(op)
                break
        else:
            if ch in PUNCTUATION:
                tokens.append(Token("punctuation", ch, line, col))
                i += 1
                col += 1
            else:
                raise LexError(f"unexpected character {ch!r}", line, col)
    return tokens


# ---------------------------------------------------------------------------
# Abstract syntax tree
# ---------------------------------------------------------------------------


class Expression:
    """Base class for rule-body AST nodes."""


@dataclass
class NumberLit(Expression):
    value: float


@dataclass
class StringLit(Expression):
    value: str


@dataclass
class BoolLit(Expression):
    value: bool


@dataclass
class MissingLit(Expression):
    pass


@dataclass
class Identifier(Expression):
    name: str


@dataclass
class DatasetRef(Expression):
    pass


@dataclass
class Paren(Expression):
    """Explicit grouping; kept in the tree so rendering is reproducible."""

    inner: Expression


@dataclass
class Unary(Expression):
    op: str  # '!' or 'negate'
    operand: Expression


@dataclass
class Binary(Expression):
    op: str
    lhs: Expression
    rhs: Expression


@dataclass
class Call(Expression):
    fname: str
    args: list[Expression] = field(default_factory=list)
    named_args: dict[str, Expression] = field(default_factory=dict)


@dataclass
class Implication(Expression):
    condition: Expression
    consequent: Expression


@dataclass
class FuncDep(Expression):
    determinant: list[str]
    dependent: list[str]


@dataclass
class MacroDef:
    name: str
    body: Expression


@dataclass
class GroupDef:
    name: str
    members: list[str]


@dataclass
class RuleExpr:
    body: Expression


Directive = MacroDef | GroupDef | RuleExpr

# ---------------------------------------------------------------------------
# Tree walking: one rebuilder per node type serves every pass over the tree
# ---------------------------------------------------------------------------


def _rename(names: list[str], fn) -> list[str]:
    """Map variable names through ``fn``.

    A functional dependency lists plain names, so a name that ``fn`` turns into
    anything but an identifier (say, a macro with an expression body) stays.
    """
    mapped = [fn(Identifier(name)) for name in names]
    return [m.name if type(m) is Identifier else name for m, name in zip(mapped, names)]


# node type -> copy of the node with ``fn`` applied to each direct child, left to
# right; leaves are absent. A functional dependency's names count as identifiers.
_REBUILD = {
    Paren: lambda e, fn: Paren(fn(e.inner)),
    Unary: lambda e, fn: Unary(e.op, fn(e.operand)),
    Binary: lambda e, fn: Binary(e.op, fn(e.lhs), fn(e.rhs)),
    Call: lambda e, fn: Call(
        e.fname, [fn(a) for a in e.args], {k: fn(v) for k, v in e.named_args.items()}
    ),
    Implication: lambda e, fn: Implication(fn(e.condition), fn(e.consequent)),
    FuncDep: lambda e, fn: FuncDep(_rename(e.determinant, fn), _rename(e.dependent, fn)),
}


def rebuild(e: Expression, fn) -> Expression:
    """Copy of a node with ``fn`` applied to each direct child; leaves come back as is."""
    make = _REBUILD.get(type(e))
    return make(e, fn) if make else e


def children(e: Expression) -> list[Expression]:
    """Direct sub-expressions of a node, left to right."""
    found = []

    def keep(child: Expression) -> Expression:
        found.append(child)
        return child

    rebuild(e, keep)
    return found


COMPARISON_OPS = {"<", "<=", "==", "!=", ">=", ">", "%in%"}

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

_BINARY_PREC = {
    "|": PREC_OR,
    "&": PREC_AND,
    "<": PREC_CMP,
    "<=": PREC_CMP,
    "==": PREC_CMP,
    "!=": PREC_CMP,
    ">=": PREC_CMP,
    ">": PREC_CMP,
    "%in%": PREC_CMP,
    "+": PREC_ADD,
    "-": PREC_ADD,
    "*": PREC_MUL,
    "/": PREC_MUL,
    "^": PREC_POW,
}


def node_precedence(e: Expression) -> int:
    if isinstance(e, Binary):
        return _BINARY_PREC[e.op]
    if isinstance(e, Unary):
        return PREC_NOT if e.op == "!" else PREC_NEG
    if isinstance(e, (Implication, FuncDep)):
        return 0
    return PREC_ATOM


# ---------------------------------------------------------------------------
# Parser (recursive descent)
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self, offset=0) -> Token | None:
        i = self.pos + offset
        return self.tokens[i] if i < len(self.tokens) else None

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

    # directive level -------------------------------------------------------

    def parse_directive(self) -> Directive:
        tok = self.peek()
        nxt = self.peek(1)
        if (
            tok is not None
            and tok.kind == "identifier"
            and nxt is not None
            and nxt.text == ":="
        ):
            name = self.next().text
            self.next()  # :=
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
            return MacroDef(name, body)
        body = self.parse_expression(allow_fd=True)
        self.end_of_input()
        return RuleExpr(body)

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
            cond = self.parse_expression()
            self.expect(")")
            consequent = self.parse_expression()
            return Implication(cond, consequent)
        e = self.parse_or()
        if allow_fd and self.at("~"):
            self.next()
            rhs = self.parse_or()
            return FuncDep(self._identifier_sum(e), self._identifier_sum(rhs))
        return e

    def _identifier_sum(self, e: Expression) -> list[str]:
        """Flatten ``a + b + c`` into a name list for functional dependencies."""
        if isinstance(e, Identifier):
            return [e.name]
        if isinstance(e, Binary) and e.op == "+":
            return self._identifier_sum(e.lhs) + self._identifier_sum(e.rhs)
        raise ParseError("functional dependency sides must be sums of variable names")

    def parse_or(self) -> Expression:
        e = self.parse_and()
        while self.at("|"):
            self.next()
            e = Binary("|", e, self.parse_and())
        return e

    def parse_and(self) -> Expression:
        e = self.parse_not()
        while self.at("&"):
            self.next()
            e = Binary("&", e, self.parse_not())
        return e

    def parse_not(self) -> Expression:
        if self.at("!"):
            self.next()
            return Unary("!", self.parse_not())
        return self.parse_comparison()

    def parse_comparison(self) -> Expression:
        e = self.parse_additive()
        tok = self.peek()
        if tok is not None and tok.text in COMPARISON_OPS:
            op = self.next().text
            rhs = self.parse_additive()
            again = self.peek()
            if again is not None and again.text in COMPARISON_OPS:
                raise ParseError(
                    "comparison operators are non-associative", again.line, again.column
                )
            return Binary(op, e, rhs)
        return e

    def parse_additive(self) -> Expression:
        e = self.parse_multiplicative()
        while self.at("+") or self.at("-"):
            op = self.next().text
            e = Binary(op, e, self.parse_multiplicative())
        return e

    def parse_multiplicative(self) -> Expression:
        e = self.parse_unary_minus()
        while self.at("*") or self.at("/"):
            op = self.next().text
            e = Binary(op, e, self.parse_unary_minus())
        return e

    def parse_unary_minus(self) -> Expression:
        if self.at("-"):
            self.next()
            return Unary("negate", self.parse_unary_minus())
        return self.parse_power()

    def parse_power(self) -> Expression:
        base = self.parse_atom()
        if self.at("^"):
            self.next()
            # right-associative
            return Binary("^", base, self.parse_unary_minus())
        return base

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
            inner = self.parse_expression()
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
                tok = self.peek()
                nxt = self.peek(1)
                if (
                    tok is not None
                    and tok.kind == "identifier"
                    and nxt is not None
                    and nxt.text == "="
                ):
                    name = self.next().text
                    self.next()  # =
                    if name in named:
                        raise ParseError(f"duplicate named argument {name!r}")
                    named[name] = self.parse_expression()
                else:
                    args.append(self.parse_expression())
                if self.at(","):
                    self.next()
                    continue
                break
        self.expect(")")
        return Call(fname, args, named)


def parse(source: str) -> Directive:
    """Parse a single rule or directive."""
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

VALIDATING_CALLS = {"all", "any", "grepl"}


def classify(d: Directive) -> str:
    """Return one of 'validating', 'macro', 'group', 'invalid'."""
    if isinstance(d, MacroDef):
        return "macro"
    if isinstance(d, GroupDef):
        return "group"
    body = d.body
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
        if f in ("all_unique", "all_complete"):
            return "validating"
    return "invalid"


# ---------------------------------------------------------------------------
# Macro substitution and group expansion
# ---------------------------------------------------------------------------


def substitute_macros(e: Expression, macros: dict[str, Expression]) -> Expression:
    """Replace identifiers that name a macro by the macro body.

    Bodies are inserted once, without re-scanning; a binary body is wrapped in
    parentheses when the surrounding operator binds at least as tightly.
    """
    if not macros:
        return e

    def walk(node: Expression, parent_prec: int) -> Expression:
        if type(node) is Identifier and node.name in macros:
            body = copy.deepcopy(macros[node.name])
            if isinstance(body, (Binary, Implication)) and parent_prec >= node_precedence(body):
                return Paren(body)
            return body
        # only operators pass their binding strength down; any other parent
        # (parentheses, call arguments, if) already delimits its children
        p = node_precedence(node) if type(node) in (Unary, Binary) else 0
        return rebuild(node, lambda child: walk(child, p))

    return walk(e, 0)


def expand_groups(e: Expression, groups: dict[str, list[str]]) -> list[Expression]:
    """Expand variable-group references over the Cartesian product of members.

    The first referenced group varies slowest; an expression referencing no
    group comes back as a one-element list.
    """
    referenced = [name for name in variables(e) if name in groups]
    if not referenced:
        return [e]
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


def _is_constant(e: Expression) -> bool:
    if isinstance(e, NumberLit):
        return True
    if isinstance(e, Paren):
        return _is_constant(e.inner)
    if isinstance(e, Unary) and e.op == "negate":
        return _is_constant(e.operand)
    if isinstance(e, Binary) and e.op in ("+", "-", "*"):
        return _is_constant(e.lhs) and _is_constant(e.rhs)
    return False


def is_linear(e: Expression) -> bool:
    """Syntactic linearity: identifiers, numbers, +, -, and constant multiples."""
    if isinstance(e, (Identifier, NumberLit)):
        return True
    if isinstance(e, Paren):
        return is_linear(e.inner)
    if isinstance(e, Unary) and e.op == "negate":
        return is_linear(e.operand)
    if isinstance(e, Binary):
        if e.op in ("+", "-"):
            return is_linear(e.lhs) and is_linear(e.rhs)
        if e.op == "*":
            return (_is_constant(e.lhs) and is_linear(e.rhs)) or (
                is_linear(e.lhs) and _is_constant(e.rhs)
            )
    return False


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


def variables(e: Expression) -> list[str]:
    """Names of all identifiers in first-occurrence order."""
    seen: dict[str, None] = {}

    def walk(node: Expression):
        if type(node) is Identifier:
            seen.setdefault(node.name)
        for child in children(node):
            walk(child)

    walk(e)
    return list(seen)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

# '/' and '^' print tight; every other binary operator gets single spaces
_TIGHT_OPS = {"/", "^"}


def render_number(value: float) -> str:
    if value != value:  # NaN guard; should not occur in parsed rules
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def render(e: Expression) -> str:
    """Deterministic canonical text of an expression."""
    if isinstance(e, NumberLit):
        return render_number(e.value)
    if isinstance(e, StringLit):
        return '"' + e.value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(e, BoolLit):
        return "TRUE" if e.value else "FALSE"
    if isinstance(e, MissingLit):
        return "NA"
    if isinstance(e, Identifier):
        return e.name
    if isinstance(e, DatasetRef):
        return "."
    if isinstance(e, Paren):
        return "(" + render(e.inner) + ")"
    if isinstance(e, Unary):
        operand = render(_child(e.operand, node_precedence(e), tighter=False))
        return ("!" if e.op == "!" else "-") + operand
    if isinstance(e, Binary):
        p = node_precedence(e)
        # comparisons do not chain, so an equal-level left operand needs parentheses too
        left = render(_child(e.lhs, p, tighter=e.op in COMPARISON_OPS))
        right = render(_child(e.rhs, p, tighter=e.op != "^"))
        sep = "" if e.op in _TIGHT_OPS else " "
        return f"{left}{sep}{e.op}{sep}{right}"
    if isinstance(e, Call):
        parts = [render(a) for a in e.args]
        parts += [f"{k} = {render(v)}" for k, v in e.named_args.items()]
        return f"{e.fname}({', '.join(parts)})"
    if isinstance(e, Implication):
        return f"if ({render(e.condition)}) {render(e.consequent)}"
    if isinstance(e, FuncDep):
        return " + ".join(e.determinant) + " ~ " + " + ".join(e.dependent)
    raise TypeError(f"cannot render {type(e).__name__}")


def _child(child: Expression, parent_prec: int, tighter: bool) -> Expression:
    """Wrap a child in parentheses when its operator binds too loosely."""
    cp = node_precedence(child)
    needs = cp < parent_prec or (tighter and cp == parent_prec)
    # left operand of a left-associative chain never needs parens at equal level
    if needs and not isinstance(child, Paren):
        return Paren(child)
    return child


def render_directive(d: Directive) -> str:
    if isinstance(d, MacroDef):
        return f"{d.name} := {render(d.body)}"
    if isinstance(d, GroupDef):
        return f"{d.name} := var_group({', '.join(d.members)})"
    return render(d.body)
