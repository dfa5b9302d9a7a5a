"""The columnar evaluator checked against the per-cell one it replaced.

``legacy_engine`` is the evaluator that stored None in every missing cell.
Both evaluate the same generated expressions over the same generated
frames; their cells, warnings and error text must agree. The expressions
cover every node type and built-in function, with missing cells, one-cell
operands broadcast against columns, division by zero, ``^`` overflow and
NaN cells, and some are ill-typed on purpose so the error paths are
compared too.
"""

import math
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

import legacy_engine
from checkmate import dsl, engine, from_dict
from checkmate.rules import new_ruleset

PINNED = settings(derandomize=True, max_examples=400, deadline=None, database=None)

# missing cells and NaN twice as likely as any other cell
NUMBERS = st.sampled_from(
    [math.nan, None, 0.0, -1.0, 1e200, None, math.nan, -0.0, 1.0, 2.5, -1e200, math.inf]
)
TEXTS = st.sampled_from([None, None, "", "a", "ab", "b"])
FLAGS = st.sampled_from([None, True, False])
TYPES = {"x": "number", "y": "number", "z": "number", "s": "text", "t": "text", "b": "boolean"}
CELLS = {"number": NUMBERS, "text": TEXTS, "boolean": FLAGS}


@st.composite
def frames(draw):
    n = draw(st.sampled_from([6, 5, 4, 3, 2, 1, 0]))
    data = {name: draw(st.lists(CELLS[kind], min_size=n, max_size=n))
            for name, kind in TYPES.items()}
    return from_dict(data, TYPES)


@st.composite
def refs(draw):
    """Reference vectors (lists with None) and a reference frame."""
    return {
        "nums": draw(st.lists(st.sampled_from([None, 0, 1, 2.5, -1.0]), max_size=3)),
        "codes": draw(st.lists(TEXTS, max_size=3)),
        "flags": draw(st.lists(FLAGS, max_size=3)),
        "ext": from_dict({"e": draw(st.lists(NUMBERS, min_size=2, max_size=2)),
                          "f": draw(st.lists(TEXTS, min_size=2, max_size=2))}),
        "one": [draw(st.sampled_from([0.0, -2.0, 0.5, math.nan, 1e300]))],
        "pair": [draw(NUMBERS), 1.0],
    }


def ident(*names):
    return st.sampled_from([dsl.Identifier(n) for n in names])


NA_RM = st.sampled_from([dsl.BoolLit(True), dsl.BoolLit(False), dsl.MissingLit()])
LITERAL_NUMBERS = st.sampled_from([0.0, -1.0, 1.0, 0.5, 2.0, 3.0, 400.0, 1e308]).map(dsl.NumberLit)
PATTERNS = st.sampled_from(["a", "^a", "b$", "", "[", "(a|b)"]).map(dsl.StringLit)
DOT = st.just(dsl.DatasetRef())
COUNTS = st.sampled_from([
    dsl.Call("nrow", [dsl.DatasetRef()]), dsl.Call("ncol", [dsl.DatasetRef()]),
    dsl.Call("nrow", [dsl.Identifier("ext")]), dsl.Call("number_of_records"),
])


def functions(names, *args, named=st.just({})):
    """A call of one of the functions ``names``, one branch whatever their number."""
    return st.builds(lambda f, a, k: dsl.Call(f, list(a), k),
                     st.sampled_from(names), st.tuples(*args), named)


def binary(ops, lhs, rhs):
    return st.builds(dsl.Binary, st.sampled_from(ops), lhs, rhs)


def calls(fname, args):
    return st.builds(lambda a: dsl.Call(fname, a), args)


OPTIONAL_NA_RM = st.one_of(st.just({}), st.fixed_dictionaries({"na.rm": NA_RM}))
CMP = ["<", "<=", "==", "!=", ">=", ">"]


def typed(depth):
    """(number, logical, text) expression strategies, nested up to depth.

    Column references and the element-wise operators are listed more than
    once, so most expressions are vectors as long as the frame.
    """
    columns = ident("x", "y", "z")
    num = st.one_of(columns, columns, ident("nums", "one", "pair"), LITERAL_NUMBERS, COUNTS)
    logic = st.one_of(ident("b"), ident("b", "flags"), st.builds(dsl.BoolLit, st.booleans()),
                      st.just(dsl.MissingLit()))
    text = st.one_of(ident("s", "t"), ident("codes"),
                     st.sampled_from(["", "a", "b"]).map(dsl.StringLit),
                     calls("names", st.sampled_from([[dsl.DatasetRef()], [dsl.Identifier("ext")]])))
    for _ in range(depth):
        arith = binary(["+", "-", "*", "/", "^"], num, num)
        kleene = binary(["&", "|"], logic, logic)
        num_compare = binary(CMP, num, num)
        any_kind = st.one_of(num, text, logic)
        num, logic, text = (
            st.one_of(
                num, arith, arith, arith,
                st.builds(dsl.Unary, st.just("negate"), num),
                st.builds(dsl.Paren, num),
                calls("abs", st.tuples(num).map(list)),
                functions(["mean", "sum", "min", "max", "median"], num, named=OPTIONAL_NA_RM),
                functions(["cor"], num, num),
                calls("c", st.lists(st.one_of(num, st.just(dsl.MissingLit())), max_size=3)),
            ),
            st.one_of(
                logic, num_compare, num_compare, num_compare, kleene, kleene, kleene,
                binary(CMP, text, text),
                binary(CMP, logic, logic),
                st.builds(dsl.Unary, st.just("!"), logic),
                binary(["%in%"], num, num),
                binary(["%in%"], text, text),
                binary(["%in%"], logic, logic),
                functions(["grepl"], PATTERNS, text),
                functions(["is.na"], any_kind),
                calls("is_unique", st.lists(any_kind, min_size=1, max_size=3)),
                calls("duplicated", st.lists(any_kind, min_size=1, max_size=3)),
                calls("is_complete", st.lists(any_kind, min_size=1, max_size=3)),
                functions(["all_unique", "all_complete"], any_kind),
                functions(["all", "any"], logic, named=OPTIONAL_NA_RM),
                functions(["is.numeric", "is.character", "is.logical"], st.one_of(any_kind, DOT)),
            ),
            st.one_of(
                text, st.builds(dsl.Paren, text),
                calls("c", st.lists(st.one_of(text, st.just(dsl.MissingLit())), max_size=3)),
            ),
        )
    return num, logic, text


NUM, LOGIC, TEXT = typed(3)
ANY = st.one_of(NUM, LOGIC, TEXT, DOT, ident("nosuch"))
# ill-typed and odd combinations, so the error paths are compared as well
MIXED = st.one_of(
    st.builds(dsl.Binary, st.sampled_from(sorted(
        {"|", "&", "<", "==", "%in%", "+", "/", "^"})), ANY, ANY),
    st.builds(dsl.Unary, st.sampled_from(["!", "negate"]), ANY),
    st.builds(lambda f, a: dsl.Call(f, a), st.sampled_from(
        ["abs", "mean", "grepl", "is.na", "c", "cor", "is_unique", "nrow", "frobnicate"]),
        st.lists(ANY, max_size=3)),
    functions(["mean"], NUM, named=st.fixed_dictionaries({"na.rm": ANY})),
    functions(["sum"], NUM, named=st.fixed_dictionaries({"other": NUM})),
    st.builds(dsl.Implication, LOGIC, LOGIC),
)
# element-wise operators only, so nearly every result is a column-long vector
# with missing, NaN and infinite cells
ELEMENTWISE_NUM = st.recursive(
    st.one_of(ident("x", "y", "z"), LITERAL_NUMBERS, ident("one"),
              functions(["sum", "max"], ident("x", "y", "z"))),
    lambda kids: st.one_of(
        binary(["+", "-", "*", "/", "^"], kids, kids),
        st.builds(dsl.Unary, st.just("negate"), kids),
        calls("abs", st.tuples(kids).map(list)),
    ),
    max_leaves=6,
)
ELEMENTWISE = st.recursive(
    st.one_of(binary(CMP, ELEMENTWISE_NUM, ELEMENTWISE_NUM), ident("b"), st.just(dsl.MissingLit()),
              functions(["is.na"], ELEMENTWISE_NUM)),
    lambda kids: st.one_of(
        binary(["&", "|"], kids, kids), st.builds(dsl.Unary, st.just("!"), kids)
    ),
    max_leaves=4,
)
COLUMNS = st.lists(st.sampled_from(sorted(TYPES)), min_size=1, max_size=3)
FUNC_DEPS = st.builds(dsl.FuncDep, COLUMNS, COLUMNS)
EXPRESSIONS = st.one_of(LOGIC, NUM, TEXT, MIXED, FUNC_DEPS)


def _cell(c):
    if isinstance(c, float) and c != c:
        return "nan"
    return (type(c).__name__, c)


def evaluate(module, e, df, ref):
    """(kind, cells) or the error, and the warnings raised on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            v = module.eval_expr(e, df, ref)
            result = (v.kind, [_cell(c) for c in v.cells], v.frame is not None)
        except Exception as err:  # the two must fail alike, whatever the error
            result = ("raised", type(err).__name__, str(err))
    return result, [str(w.message) for w in caught]


# the cases a filled value at a missing cell could get wrong
TRAPS = from_dict(
    {"x": [0.0, None, -0.0, 2.0], "y": [-1.0, -1.0, None, 0.0], "z": [None, 1.0, None, 1.0],
     "s": ["a", None, "", "b"], "t": [None, "", "", None], "b": [None, True, False, None]},
    TYPES,
)
TRAP_REF = {"one": [0.0], "pair": [None, 1.0], "nums": [None, 0], "codes": [None, ""],
            "flags": [None], "ext": TRAPS}


@PINNED
@given(EXPRESSIONS, frames(), refs())
@example(dsl.parse_expression("x ^ y"), TRAPS, TRAP_REF)  # 0 to a negative power, at NA too
@example(dsl.parse_expression("y / x + x / z"), TRAPS, TRAP_REF)
@example(dsl.parse_expression("(x - 1e308 * 10) * z"), TRAPS, TRAP_REF)
@example(dsl.parse_expression('grepl("a", c(s, NA)) | c(t, NA) < "b"'), TRAPS, TRAP_REF)
@example(dsl.parse_expression("c(x, NA) ^ c(NA, y)"), TRAPS, TRAP_REF)
@example(dsl.parse_expression('x %in% z | s %in% c("b", NA)'), TRAPS, TRAP_REF)
# code lists, which the evaluator builds without evaluating each literal
@example(dsl.parse_expression('x %in% c(0, 2, 400) | s %in% c("a", "")'), TRAPS, TRAP_REF)
@example(dsl.parse_expression('c(1, "a") %in% s'), TRAPS, TRAP_REF)
@example(dsl.parse_expression('is_unique(t) & !duplicated(s, t) | is_complete(t, "")'),
         TRAPS, TRAP_REF)
@example(dsl.parse("t ~ z").body, TRAPS, TRAP_REF)  # a missing dependent in the first record
@example(dsl.parse("t + b ~ s + z").body, TRAPS, TRAP_REF)
def test_columnar_evaluator_matches_per_cell_evaluator(e, df, ref):
    assert evaluate(engine, e, df, ref) == evaluate(legacy_engine, e, df, ref)


@PINNED
@given(frames(), st.sampled_from(["x", "s", "b", "x + t"]),
       st.sampled_from(["y", "t", "b", "z + t", "y + b"]))
def test_functional_dependency_matches_per_cell_evaluator(df, det, dep):
    # one and two dependent columns, over number, text and boolean cells with NA and NaN
    fd = dsl.parse(f"{det} ~ {dep}").body
    assert engine.eval_fd(fd, df) == legacy_engine.eval_fd(fd, df)


@PINNED
@given(st.one_of(ELEMENTWISE, ELEMENTWISE_NUM), frames(), refs())
def test_elementwise_operators_match_per_cell_evaluator(e, df, ref):
    assert evaluate(engine, e, df, ref) == evaluate(legacy_engine, e, df, ref)


@PINNED
@given(st.one_of(ELEMENTWISE, LOGIC), frames(), st.sampled_from(["NA", True, False]),
       st.sampled_from(["none", "all"]))
def test_confront_matches_per_cell_outcomes(e, df, na_value, raise_):
    """A rule's result is the per-cell one with na.value at its missing cells;
    under raise=all its first warning or error is raised."""
    rs, _ = new_ruleset([("r", "x > 0")])
    rs.rules[0].body = e
    opts = {"na.value": na_value, "raise": raise_}
    body = engine.prepare_rule(rs.rules[0], rs.resolved_options(opts))
    (want, caught) = evaluate(legacy_engine, body, df, None)
    try:
        (outcome,) = engine.confront(df, rs, opts=opts).outcomes
    except Exception as err:  # as above: whatever the error
        assert raise_ == "all" and (want[0] == "raised" or caught)
        assert str(err) == (want[2] if want[0] == "raised" else caught[0])
        return
    if want[0] != "logical":
        assert outcome.result is None and outcome.error is not None
        return
    fill = None if na_value == "NA" else na_value
    assert outcome.result == [fill if c == ("NoneType", None) else c[1] for c in want[1]]
    assert outcome.warnings == caught
