"""Property tests over generated rule ASTs: rendering, variable listing, implication."""

import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from checkmate import dsl, from_dict
from checkmate.engine import eval_expr, kleene_not, kleene_or

# fixed seed and size: the same examples every run, a few seconds in total
PINNED = settings(derandomize=True, max_examples=200, deadline=None, database=None)

NAMES = ["a", "b", "c", "x.y", "z_1"]
BINARY_OPS = ["|", "&", "<", "<=", "==", "!=", ">=", ">", "%in%", "+", "-", "*", "/", "^"]

# characters the lexer treats specially inside and around string literals
STRING_CHARS = "aZ0 #()\"'\\\n\té"

leaves = st.one_of(
    st.builds(dsl.NumberLit, st.floats(min_value=0, max_value=1e20, allow_nan=False)),
    st.builds(dsl.StringLit, st.text(alphabet=STRING_CHARS, max_size=5)),
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
        tok.text
        for tok, nxt in itertools.zip_longest(tokens, tokens[1:])
        if tok.kind == "identifier" and (nxt is None or nxt.text not in ("(", "="))
    ]
    assert dsl.variables(e) == list(dict.fromkeys(expected))


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
