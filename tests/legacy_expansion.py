"""The macro substitution and group expansion that ``checkmate.dsl.expand``
replaced, kept as the reference for ``test_expansion_differential.py``.

A rule was expanded in two passes, each with its own walk and its own count
of the size bounds: ``substitute_macros`` inserted macro bodies, then
``expand_groups`` took a census of the result and substituted each
combination of group members. The code is kept as it was, written against
the tree primitives that ``checkmate.dsl`` still has.
"""

from __future__ import annotations

import itertools
import math

from checkmate.dsl import (
    MAX_DEPTH,
    MAX_NODES,
    Binary,
    Expression,
    Identifier,
    Implication,
    Paren,
    Unary,
    children,
    node_precedence,
    rebuild,
)
from checkmate.errors import ParseError

_TOO_DEEP = f"expression nested deeper than {MAX_DEPTH} levels"
_TOO_BIG = f"expression expands to more than {MAX_NODES} nodes"


def extent(e: Expression) -> tuple[int, int]:
    """Levels and nodes in the tree of ``e``, counted no further than level ``MAX_DEPTH + 1``."""
    level, levels, nodes = [e], 0, 0
    while level and levels <= MAX_DEPTH:
        levels += 1
        nodes += len(level)
        level = [child for node in level for child in children(node)]
    return levels, nodes


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
