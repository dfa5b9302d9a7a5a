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
from collections import namedtuple

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

_OPERATOR_TEXTS = sorted({*_BINARY_PREC, *_PREFIX, "~", "=", ":="}, key=lambda op: (-len(op), op))

_NUMBER = r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?"
_STRING = r'"[^"\\]*(?:\\.[^"\\]*)*"' + "|" + r"'[^'\\]*(?:\\.[^'\\]*)*'"
_LITERAL = f"(?:{_NUMBER}|{_STRING})"
_LITERAL_RE = re.compile(f"(?P<number>{_NUMBER})|(?P<string>{_STRING})", re.DOTALL)
_WORD_END = r"(?![A-Za-z0-9._])"  # a reserved word is not the start of a longer name

# one named group per token kind; operators longest first so '<=' wins over '<'
_TOKEN_RE = re.compile(
    "|".join(
        f"(?P<{kind}>{pattern})"
        for kind, pattern in [
            ("space", r"[ \t\r\n]+|#[^\n]*"),
            ("number", _NUMBER),
            ("string", _STRING),
            ("unterminated", r"[\"']"),
            # c(...) of number or string literals, one token for the call and its arguments
            ("code_list", rf"c\([ \t]*{_LITERAL}(?:[ \t]*,[ \t]*{_LITERAL})*[ \t]*\)"),
            ("keyword", "if" + _WORD_END),
            ("boolean", "(?:TRUE|FALSE)" + _WORD_END),
            ("missing", "NA" + _WORD_END),
            ("identifier", r"[A-Za-z][A-Za-z0-9._]*"),
            ("operator", "|".join(map(re.escape, _OPERATOR_TEXTS))),
            ("punctuation", r"[(),.]"),
            ("error", r"."),
        ]
    ),
    re.DOTALL,
)


def tokenize(source: str) -> list[re.Match]:
    """Split rule source into tokens: the matches of ``_TOKEN_RE`` but space and
    comments, each of the kind its ``lastgroup`` names. ``#`` starts a comment
    to end of line."""
    tokens = []
    for tok in _TOKEN_RE.finditer(source):
        kind = tok.lastgroup
        if kind == "unterminated":
            raise LexError("unterminated string literal", *position(tok))
        if kind == "error":
            raise LexError(f"unexpected character {tok[0]!r}", *position(tok))
        if kind != "space":
            tokens.append(tok)
    return tokens


def position(tok: re.Match) -> tuple[int, int]:
    """Line and column of a token, both from 1: a line ends at each ``\\n`` of the
    source, and a column is one character."""
    start = tok.start()
    return tok.string.count("\n", 0, start) + 1, start - tok.string.rfind("\n", 0, start)


def _shown(tok: re.Match) -> str:
    """A token's text in a message: a code list is shown as the name it starts with."""
    return "c" if tok.lastgroup == "code_list" else tok[0]


# ---------------------------------------------------------------------------
# Abstract syntax tree: nodes never change after construction, so trees may
# share subtrees
# ---------------------------------------------------------------------------


class _Node:
    """Value semantics of the tuple-backed nodes: a node equals only nodes of its
    own type with equal fields, hashes as its fields do, refuses assignment
    (deletion fails as on any namedtuple), and is true even without fields."""

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is type(self):
            return tuple.__eq__(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    __hash__ = tuple.__hash__

    def __bool__(self):
        return True

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError  # on this error path only: a slow import

        raise FrozenInstanceError(f"cannot assign to field {name!r}")


class Expression(_Node):
    """Base class for rule-body AST nodes."""

    __slots__ = ()


# Each node type is a namedtuple of its fields under the _Node semantics.


class NumberLit(Expression, namedtuple("NumberLit", "value")):
    __slots__ = ()


class StringLit(Expression, namedtuple("StringLit", "value")):
    __slots__ = ()


class BoolLit(Expression, namedtuple("BoolLit", "value")):
    __slots__ = ()


class MissingLit(Expression, namedtuple("MissingLit", "")):
    __slots__ = ()


class Identifier(Expression, namedtuple("Identifier", "name")):
    __slots__ = ()


class DatasetRef(Expression, namedtuple("DatasetRef", "")):
    __slots__ = ()


class Paren(Expression, namedtuple("Paren", "inner")):
    """Explicit grouping; kept in the tree so rendering is reproducible."""

    __slots__ = ()


class Unary(Expression, namedtuple("Unary", "op operand")):
    __slots__ = ()  # op: '!' or 'negate'


class Binary(Expression, namedtuple("Binary", "op lhs rhs")):
    __slots__ = ()


class Call(Expression, namedtuple("Call", "fname args named_args")):
    __slots__ = ()  # args: a list of expressions; named_args: a dict of them

    def __new__(cls, fname: str, args: list | None = None, named_args: dict | None = None):
        args = [] if args is None else args
        return tuple.__new__(cls, (fname, args, {} if named_args is None else named_args))


class Implication(Expression, namedtuple("Implication", "condition consequent")):
    __slots__ = ()


class FuncDep(Expression, namedtuple("FuncDep", "determinant dependent")):
    __slots__ = ()  # each side a list of variable names


class MacroDef(_Node, namedtuple("MacroDef", "name body")):
    __slots__ = ()


class GroupDef(_Node, namedtuple("GroupDef", "name members")):
    __slots__ = ()  # members: a list of variable names


class RuleExpr(_Node, namedtuple("RuleExpr", "body")):
    __slots__ = ()


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


def census(e: Expression, macros: dict = {}) -> tuple[list[str], int, int, dict]:
    """Names of the identifiers in ``e`` in first-occurrence order, the levels of
    its tree and its nodes, in one preorder walk; with a macro table (see
    ``insert_macros``), those of ``e`` with its macros inserted, each counted
    from its table entry, and then the bodies inserted, by name."""
    names: dict[str, None] = {}
    inserted: dict[str, Expression] = {}
    levels = nodes = 0
    stack = [(e, None, 1)]  # (node, parent, level) in preorder: the leftmost child is taken next
    while stack:
        node, parent, level = stack.pop()
        nodes += 1
        if level > levels:
            levels = level
        if type(node) is not Identifier:
            stack.extend([(child, node, level + 1) for child in reversed(children(node))])
        elif node.name not in macros or (
            type(parent) is FuncDep and type(macros[node.name][0]) is not Identifier
        ):
            names[node.name] = None
        else:
            body, body_names, body_levels, size = macros[node.name]
            wrap = _wraps(body, parent)
            inserted[node.name] = body
            names.update(dict.fromkeys(body_names))
            levels = max(levels, level + wrap + body_levels - 1)
            nodes += wrap + size - 1
    return list(names), levels, nodes, inserted


def variables(e: Expression) -> list[str]:
    """Names of all identifiers in first-occurrence order."""
    return census(e)[0]


_LITERAL_NODES = (NumberLit, StringLit, BoolLit, MissingLit)
_CELLWISE_NODES = {Identifier, Paren, Unary, Binary, Implication, Call, *_LITERAL_NODES}
_CELLWISE_CALLS = {"is.na", "is_na", "abs", "grepl"}  # grepl of a literal pattern


def reach(e: Expression) -> str:
    """What of its dataset ``e`` reads, in one walk: ``"frame"`` when it reads
    the dataset beyond the row count (``ncol``, ``names``, or ``.`` other than
    as the argument of ``nrow``); else ``"rows"`` when it names a column and
    each block of rows gets from it what those rows get from the whole
    columns, as it is built from literals, names, cell-wise operators, ``if``,
    ``is.na``, ``abs`` and ``grepl`` of a literal pattern, with a vector
    literal, which R would recycle, only right of ``%in%``; else ``"columns"``."""
    named, cellwise, stack = False, True, [(e, None)]
    while stack:
        node, parent = stack.pop()
        kind, below = type(node), children(node)
        if kind is Call and node.fname in ("ncol", "names") or kind is DatasetRef and (
                type(parent) is not Call or parent.fname not in ("nrow", "number_of_records")):
            return "frame"
        if kind is Binary and node.op == "%in%":  # literal members right of it are one set
            listed = type(rhs := node.rhs) is Call and rhs.fname == "c" and not rhs.named_args
            if all(type(m) in _LITERAL_NODES for m in (rhs.args if listed else [rhs])):
                below = [node.lhs]
            else:
                cellwise = False
        elif kind not in _CELLWISE_NODES or kind is Call and (node.fname not in _CELLWISE_CALLS
                or node.fname == "grepl" and (not node.args or type(node.args[0]) is not StringLit)):
            cellwise = False
        named = named or kind is Identifier
        stack += [(child, node) for child in below]
    return "rows" if named and cellwise else "columns"


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


# token kind -> the node of a literal; a string loses its quotes and the escapes of \" \' \\
_LITERALS = {
    "number": lambda text: NumberLit(float(text)),
    "string": lambda text: StringLit(
        text[1:-1].replace('\\"', '"').replace("\\'", "'").replace("\\\\", "\\")),
    "boolean": lambda text: BoolLit(text == "TRUE"),
    "missing": lambda text: MissingLit(),
}


class _Parser:
    def __init__(self, tokens: list[re.Match]):
        self.tokens = [*tokens, None, None]  # peek(1) may look past the end
        self.pos = 0
        self.depth = 1  # tree level of the sub-expression being parsed

    def peek(self, offset=0) -> re.Match | None:
        return self.tokens[self.pos + offset]

    def next(self) -> re.Match:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, text: str) -> re.Match:
        tok = self.peek()
        if tok is None:
            raise ParseError(f"expected {text!r}, found end of input")
        if tok[0] != text:
            raise ParseError(f"expected {text!r}, found {_shown(tok)!r}", *position(tok))
        return self.next()

    def at(self, text: str) -> bool:
        tok = self.peek()
        return tok is not None and tok[0] == text

    def label(self, sep: str) -> str | None:
        """Consume ``name <sep>`` and return the name; None, consuming nothing, if not there."""
        tok, nxt = self.peek(), self.peek(1)
        if tok is None or tok.lastgroup != "identifier" or nxt is None or nxt[0] != sep:
            return None
        self.pos += 2
        return tok[0]

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
        # every level of a tree takes a token of its own, but for the two levels of a
        # code list, which take one; a path from the root passes at most one code list
        if self.pos >= MAX_DEPTH and census(e)[1] > MAX_DEPTH:
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
            raise ParseError(f"unexpected {_shown(tok)!r}", *position(tok))

    # expression levels -----------------------------------------------------

    def parse_expression(self, allow_fd: bool = False) -> Expression:
        tok = self.peek()
        if tok is not None and tok.lastgroup == "keyword":  # if
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
        prefix = _PREFIX.get(tok[0]) if tok is not None else None
        if prefix is not None and prefix[1] >= min_prec:
            self.next()
            e = Unary(prefix[0], self.nested(self.parse_binary, prefix[1]))
        else:
            e = self.parse_atom()
        while (tok := self.peek()) is not None and tok[0] in _BINARY_PREC:
            prec, assoc = _BINARY_PREC[tok[0]]
            if prec < min_prec:
                break
            self.next()
            # the right operand of '^' may be negated: 2^-1
            rhs = self.nested(self.parse_binary, PREC_NEG if assoc == RIGHT else prec + 1)
            e = Binary(tok[0], e, rhs)
            again = self.peek()
            if assoc == NONASSOC and again is not None and again[0] in COMPARISON_OPS:
                raise ParseError("comparison operators are non-associative", *position(again))
        return e

    def parse_atom(self) -> Expression:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        kind, text = tok.lastgroup, tok[0]
        literal = _LITERALS.get(kind)
        if literal is not None:
            self.next()
            return literal(text)
        if kind == "code_list":  # c(...) of literals, read as parse_call would read it
            self.next()
            items = _LITERAL_RE.finditer(text, 2)
            return Call("c", self.nested(lambda: [_LITERALS[m.lastgroup](m[0]) for m in items]))
        if text == ".":
            self.next()
            return DatasetRef()
        if text == "(":
            self.next()
            inner = self.nested(self.parse_expression)
            self.expect(")")
            return inner if isinstance(inner, Paren) else Paren(inner)
        if kind == "identifier":
            self.next()
            if self.at("("):
                return self.parse_call(text)
            return Identifier(text)
        raise ParseError(f"unexpected {text!r}", *position(tok))

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


def _wraps(body: Expression, parent: Expression | None) -> bool:
    """Whether ``body`` needs parentheses as a child of ``parent``: only operators
    pass their binding strength down; any other parent delimits its children."""
    prec = node_precedence(parent) if type(parent) in (Unary, Binary) else 0
    return isinstance(body, (Binary, Implication)) and prec >= node_precedence(body)


def _substitute(e: Expression, table: dict, parent: Expression | None = None) -> Expression:
    """``e`` with each identifier that ``table`` names replaced by its entry."""
    if type(e) is not Identifier:
        return rebuild(e, lambda child: _substitute(child, table, e))
    body = table.get(e.name, e)
    return Paren(body) if _wraps(body, parent) else body


def insert_macros(e: Expression, macros: dict) -> tuple[Expression, list[str], int, int]:
    """``e`` with the macros it names inserted, then the result's names, levels
    and nodes: the entry a macro table holds for a macro defined as ``e``.

    A name becomes its body, not re-scanned, in parentheses when the operator
    around it binds at least as tightly. A functional dependency lists plain
    names: it keeps a name whose body is not a name, as one node and one level.
    A result that inserts a body and is deeper than ``MAX_DEPTH`` levels or has
    more than ``MAX_NODES`` nodes is a ``ParseError``.
    """
    names, levels, nodes, inserted = census(e, macros)
    if inserted:
        if levels > MAX_DEPTH:
            raise ParseError(_TOO_DEEP)
        if nodes > MAX_NODES:
            raise ParseError(_TOO_BIG)
        e = _substitute(e, inserted)
    return e, names, levels, nodes


def expand(e: Expression, macros: dict, groups: dict[str, list[str]]) -> list[Expression]:
    """The rules ``e`` stands for, with macros inserted and variable groups expanded.

    ``macros`` maps a name to its ``insert_macros`` entry. The result comes
    back once per combination of the members of the groups it names, the
    first group named varying slowest; copies with more than ``MAX_NODES``
    nodes in all are a ``ParseError``, raised before any is built.
    """
    if not macros and not groups:
        return [e]
    e, names, _, nodes = insert_macros(e, macros)
    referenced = [name for name in names if name in groups]
    if not referenced:
        return [e]
    if math.prod(len(groups[g]) for g in referenced) * nodes > MAX_NODES:
        raise ParseError(_TOO_BIG)
    return [
        _substitute(e, {g: Identifier(m) for g, m in zip(referenced, combo)})
        for combo in itertools.product(*(groups[g] for g in referenced))
    ]


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
