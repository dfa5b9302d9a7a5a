"""Property tests over generated rule ASTs and data: rendering, variable listing,
error positions, implication, Kleene laws, tolerance rewrites, summaries,
``na.value`` and operands left unchanged by evaluation."""

import itertools
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from checkmate import dsl, from_dict, summarize
from checkmate.engine import check_that, eval_expr
from checkmate.errors import ParseError
from checkmate.frame import DataFrame
from legacy_engine import kleene_not, kleene_or
from test_evaluator_differential import EXPRESSIONS, TRAP_REF, TRAPS, frames, refs

# fixed seed and size: the same examples every run, a few seconds in total
PINNED = settings(derandomize=True, max_examples=200, deadline=None, database=None)

NAMES = ["a", "b", "c", "x.y", "z_1"]
BINARY_OPS = ["|", "&", "<", "<=", "==", "!=", ">=", ">", "%in%", "+", "-", "*", "/", "^"]

# characters the lexer treats specially inside and around string literals
STRING_CHARS = "aZ0 #()\"'\\\n\té"

numbers = st.builds(dsl.NumberLit, st.floats(min_value=0, max_value=1e20, allow_nan=False))
strings = st.builds(dsl.StringLit, st.text(alphabet=STRING_CHARS, max_size=5))
# c(...) of number or string literals, which the lexer reads as one token
code_lists = st.builds(
    dsl.Call,
    st.just("c"),
    st.one_of(st.lists(numbers, min_size=1, max_size=4), st.lists(strings, min_size=1, max_size=4)),
)

leaves = st.one_of(
    numbers,
    strings,
    st.builds(dsl.BoolLit, st.booleans()),
    st.builds(dsl.MissingLit),
    st.builds(dsl.Identifier, st.sampled_from(NAMES)),
    st.builds(dsl.DatasetRef),
)


def _compound(kids):
    return st.one_of(
        # the parser folds doubled parentheses, so a Paren never holds a Paren
        st.builds(dsl.Paren, kids.filter(lambda k: type(k) is not dsl.Paren)),
        st.builds(dsl.Unary, st.sampled_from(["!", "negate"]), kids),
        st.builds(dsl.Binary, st.sampled_from(BINARY_OPS), kids, kids),
        st.builds(
            dsl.Call,
            st.sampled_from(["f", "is.na"]),
            st.lists(kids, max_size=2),
            st.dictionaries(st.sampled_from(["k", "na.rm"]), kids, max_size=1),
        ),
        st.builds(dsl.Implication, kids, kids),
    )


expressions = st.recursive(leaves, _compound, max_leaves=12)

# a functional dependency is only valid as a whole rule
rule_bodies = st.one_of(
    expressions,
    code_lists,
    st.builds(dsl.Binary, st.just("%in%"), expressions, code_lists),
    st.builds(
        dsl.FuncDep,
        st.lists(st.sampled_from(NAMES), min_size=1, max_size=3),
        st.lists(st.sampled_from(NAMES), min_size=1, max_size=2),
    ),
)


@PINNED
@given(rule_bodies)
def test_render_parse_render_is_stable(e):
    text = dsl.render(e)
    assert dsl.render(dsl.parse(text).body) == text


def _without_parens(e):
    return _without_parens(e.inner) if type(e) is dsl.Paren else dsl.rebuild(e, _without_parens)


@PINNED
@given(rule_bodies)
# a left-nested power, which must keep its parentheses: (a^b)^c
@example(dsl.Binary("^", dsl.Binary("^", *map(dsl.Identifier, "ab")), dsl.Identifier("c")))
def test_parse_inverts_render(e):
    assert _without_parens(dsl.parse(dsl.render(e)).body) == _without_parens(e)


@PINNED
@given(rule_bodies)
def test_variables_in_first_occurrence_order(e):
    tokens = dsl.tokenize(dsl.render(e))
    # identifiers that are neither called nor a named argument's key
    expected = [
        tok[0]
        for tok, nxt in itertools.zip_longest(tokens, tokens[1:])
        if tok.lastgroup == "identifier" and (nxt is None or nxt[0] not in ("(", "="))
    ]
    assert dsl.variables(e) == list(dict.fromkeys(expected))


# text between tokens: space, line breaks and comments
gaps = st.lists(st.sampled_from([" ", "\t", "\n", "\r\n", "# note\n"]), max_size=3).map("".join)


def _naive_position(text):
    """Line and column of the character that follows ``text``, counted character by character."""
    line, column = 1, 1
    for ch in text:
        line, column = (line + 1, 1) if ch == "\n" else (line, column + 1)
    return line, column


@PINNED
@given(st.lists(st.tuples(gaps, strings, gaps), min_size=1, max_size=3), gaps,
       st.sampled_from(["@", "y", "1", "("]))
def test_positions_count_every_line_break_before_them(clauses, gap, offender):
    """A position counts the line breaks inside string literals and comments as
    well as those between tokens, in an error and in ``dsl.position``."""
    prefix = "&".join(f"x{before}=={after}{dsl.render(s)}" for before, s, after in clauses) + gap
    source = prefix + offender
    with pytest.raises(ParseError) as exc:
        dsl.parse(source)
    assert (exc.value.line, exc.value.column) == _naive_position(prefix)
    if offender != "@":
        for tok in dsl.tokenize(source):
            assert dsl.position(tok) == _naive_position(source[: tok.start()])


def _children_from_fields(e):
    """Direct children read off a node's fields, left to right: the reference of
    ``dsl.children``. A functional dependency's names count as identifiers."""
    found = []
    for name in e._fields:
        value = getattr(e, name)
        if isinstance(value, dsl.Expression):
            found.append(value)
        elif isinstance(value, list):
            found += [v if isinstance(v, dsl.Expression) else dsl.Identifier(v) for v in value]
        elif isinstance(value, dict):
            found += value.values()
    return found


def _nodes(e):
    yield e
    for child in dsl.children(e):
        yield from _nodes(child)


@PINNED
@given(rule_bodies)
def test_children_are_the_fields(e):
    for node in _nodes(e):
        assert dsl.children(node) == _children_from_fields(node)


@PINNED
@given(rule_bodies)
def test_rebuild_without_change_is_the_node(e):
    for node in _nodes(e):
        assert dsl.rebuild(node, lambda child: child) is node


@PINNED
@given(rule_bodies)
def test_rewrite_implication_copies_only_implications(e):
    out = dsl.rewrite_implication(e)
    if not any(type(node) is dsl.Implication for node in _nodes(e)):
        assert out is e
    else:
        assert not any(type(node) is dsl.Implication for node in _nodes(out))


@PINNED
@given(rule_bodies, st.sets(st.sampled_from(NAMES)), expressions)
def test_substitute_unreferenced_macros_is_the_tree(e, names, body):
    entry = dsl.insert_macros(body, {})
    macros = {name: entry for name in names if name not in dsl.variables(e)}
    [out] = dsl.expand(e, macros, {})
    assert out is e


TRI = [True, False, None]
LOGICAL_NAMES = ["p", "q", "r"]

logical = st.recursive(
    st.builds(dsl.Identifier, st.sampled_from(LOGICAL_NAMES)),
    lambda kids: st.one_of(
        st.builds(dsl.Unary, st.just("!"), kids),
        st.builds(dsl.Binary, st.sampled_from(["&", "|"]), kids, kids),
        st.builds(dsl.Paren, kids.filter(lambda k: type(k) is not dsl.Paren)),
        st.builds(dsl.Implication, kids, kids),
    ),
    max_leaves=8,
)

# every assignment of {TRUE, FALSE, NA} to p, q, r, one per row
ALL_ROWS = from_dict(
    {name: list(col) for name, col in zip(LOGICAL_NAMES, zip(*itertools.product(TRI, repeat=3)))},
    {name: "boolean" for name in LOGICAL_NAMES},
)


def _cells(e):
    return eval_expr(dsl.rewrite_implication(e), ALL_ROWS).cells


@PINNED
@given(logical, logical)
def test_rewritten_implication_is_kleene_material_conditional(p, q):
    expected = [kleene_or(kleene_not(a), b) for a, b in zip(_cells(p), _cells(q))]
    assert _cells(dsl.Implication(p, q)) == expected


# ---------------------------------------------------------------------------
# Semantics over vectors: Kleene laws, tolerance, summaries, na.value
# ---------------------------------------------------------------------------


def _vector(e):
    return eval_expr(e, ALL_ROWS).cells


def _binary(op, a, b):
    return dsl.Binary(op, dsl.Paren(a), dsl.Paren(b))


def _not(a):
    return dsl.Unary("!", dsl.Paren(a))


@PINNED
@given(logical, logical)
def test_de_morgan_over_vectors(p, q):
    p, q = dsl.rewrite_implication(p), dsl.rewrite_implication(q)
    assert _vector(_not(_binary("&", p, q))) == _vector(_binary("|", _not(p), _not(q)))
    assert _vector(_not(_binary("|", p, q))) == _vector(_binary("&", _not(p), _not(q)))


@PINNED
@given(logical, logical)
def test_absorption_over_vectors(p, q):
    p, q = dsl.rewrite_implication(p), dsl.rewrite_implication(q)
    assert _vector(_binary("&", p, _binary("|", p, q))) == _vector(p)
    assert _vector(_binary("|", p, _binary("&", p, q))) == _vector(p)


# linear expressions over number columns with missing cells and near-ties
LINEAR_NAMES = ["u", "v", "w"]
linear = st.recursive(
    st.one_of(
        st.builds(dsl.Identifier, st.sampled_from(LINEAR_NAMES)),
        st.builds(dsl.NumberLit, st.sampled_from([0.0, 1.0, 0.1, 0.3, 2.5])),
    ),
    lambda kids: st.builds(dsl.Binary, st.sampled_from(["+", "-"]), kids, kids),
    max_leaves=5,
)
LINEAR_CELLS = st.sampled_from([None, 0.0, 0.1, 0.2, 0.3, 1.0, 1.0 + 1e-9, 2.5, -1.0])


@st.composite
def linear_frames(draw):
    n = draw(st.integers(1, 8))
    return from_dict(
        {name: draw(st.lists(LINEAR_CELLS, min_size=n, max_size=n)) for name in LINEAR_NAMES},
        {name: "number" for name in LINEAR_NAMES},
    )


@PINNED
@given(linear, linear, linear_frames(), st.sampled_from([1e-8, 1e-3, 0.5]))
def test_tolerance_rewrite_is_slack_on_the_difference(lhs, rhs, df, eps):
    left, right = (eval_expr(side, df).cells for side in (lhs, rhs))
    n = max(len(left), len(right))  # a literal-only side is one cell, repeated
    left, right = (cells * n if len(cells) == 1 else cells for cells in (left, right))
    diffs = [None if a is None or b is None else a - b for a, b in zip(left, right)]

    def rewritten(op):
        e = dsl.rewrite_tolerance(dsl.Binary(op, lhs, rhs), eps, eps)
        assert e != dsl.Binary(op, lhs, rhs)
        return eval_expr(e, df).cells

    assert rewritten("==") == [None if d is None else abs(d) < eps for d in diffs]
    assert rewritten(">=") == [None if d is None else d >= -eps for d in diffs]


COMPARISONS = st.builds(
    lambda a, op, b: f"{a} {op} {b}",
    st.sampled_from(LINEAR_NAMES + ["1", "0.2"]),
    st.sampled_from(["<", "<=", "==", "!=", ">=", ">"]),
    st.sampled_from(LINEAR_NAMES + ["1", "0.2"]),
)
RULE_SOURCES = st.lists(
    st.one_of(
        COMPARISONS,
        st.builds("if ({}) {}".format, COMPARISONS, COMPARISONS),
        st.builds("{} | {}".format, COMPARISONS, COMPARISONS),
        st.sampled_from(["mean(u) > 0", "mean(v, na.rm = TRUE) > 0", "is_unique(u, w)",
                         "u + v ~ w", "all(u > 0)", "nrow(.) > 3"]),
    ),
    min_size=1,
    max_size=6,
)
NA_VALUES = st.sampled_from(["NA", True, False])


@PINNED
@given(RULE_SOURCES, linear_frames(), NA_VALUES)
def test_summary_partitions_items(sources, df, na_value):
    for row in summarize(check_that(df, *sources, opts={"na.value": na_value})):
        assert row.passes + row.fails + row.nNA == row.items
        assert row.nNA == 0 or na_value == "NA"


@PINNED
@given(RULE_SOURCES, linear_frames(), st.sampled_from([True, False]))
def test_na_value_changes_exactly_the_missing_cells(sources, df, na_value):
    default = check_that(df, *sources)
    forced = check_that(df, *sources, opts={"na.value": na_value})
    for plain, settled in zip(default.outcomes, forced.outcomes):
        assert settled.result == [na_value if c is None else c for c in plain.result]


# ---------------------------------------------------------------------------
# Evaluation reads its operands and never writes them
# ---------------------------------------------------------------------------


def _trap(source, split=0, whole_frame=False):
    """An example over the frame and references with missing, zero and NaN
    cells where a write to an operand would show."""
    return example(dsl.parse_expression(source), TRAPS, TRAP_REF, split, whole_frame)


@PINNED
@given(EXPRESSIONS, frames(), refs(), st.integers(0, 6), st.booleans())
@_trap("x ^ y")
@_trap("y / x + x / z", 2, True)
@_trap("-abs(x) * one > z - one")
@_trap("c(x, NA) ^ c(NA, y)", 1, True)
@_trap('!b & grepl("a", s) | t < "b"', 4, True)
@_trap('x %in% z | s %in% c("b", NA) | flags | "" %in% codes')
@_trap('is_unique(t) & !duplicated(s, t) | is_complete(t, "") | is.na(y)', 3, True)
@_trap("mean(x, na.rm = TRUE) + sum(z) + median(nums, na.rm = TRUE) > cor(x, y)")
@_trap("t + b ~ s + z")
def test_evaluation_leaves_every_column_as_it_was(e, df, ref, split, whole_frame):
    """A result may share a column's lists, so no operation may write to an
    operand: every data and reference column keeps its ``values`` and ``na``,
    and every reference cell list its cells. With ``whole_frame`` the
    reference is a frame, holding the data's columns from ``split`` on."""
    if whole_frame:
        df, ref = DataFrame(df.columns[:split]), DataFrame(df.columns[split:])
        columns, lists = [*df.columns, *ref.columns], []
    else:
        columns = [*df.columns, *ref["ext"].columns]
        lists = [v for v in ref.values() if isinstance(v, list)]

    def state():
        # a number column's bytes, so a NaN cell equals itself; a copy of a
        # list holds the same cell objects, so a NaN cell equals its copy
        snapshots = [(c.values.tobytes() if c.kind == "number" else list(c.values), c.na)
                     for c in columns]
        return snapshots, [list(v) for v in lists]

    before = state()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            eval_expr(e, df, ref)
        except Exception:  # an ill-typed expression fails, and must leave them as well
            pass
    assert state() == before
