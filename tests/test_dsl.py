import dataclasses
import itertools
import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from checkmate import dsl, engine, from_dict
from checkmate.engine import check_that, eval_expr
from checkmate.errors import LexError, ParseError
from checkmate.rules import new_ruleset


def body(source):
    d = dsl.parse(source)
    assert isinstance(d, dsl.RuleExpr)
    return d.body


a, b, c, x, y = (dsl.Identifier(name) for name in "abcxy")
B, U, N = dsl.Binary, dsl.Unary, dsl.NumberLit


class TestTokenize:
    def test_basic(self):
        kinds_texts = [(t.lastgroup, t[0]) for t in dsl.tokenize("staff >= 0")]
        assert kinds_texts == [
            ("identifier", "staff"),
            ("operator", ">="),
            ("number", "0"),
        ]

    def test_in_operator(self):
        texts = [t[0] for t in dsl.tokenize('x %in% c("a")')]
        assert "%in%" in texts

    def test_lexical_error_position(self):
        with pytest.raises(LexError) as exc:
            dsl.tokenize("a @ b")
        assert exc.value.line == 1
        assert exc.value.column == 3

    def test_comments_skipped(self):
        assert [t[0] for t in dsl.tokenize("x > 0 # positive")] == ["x", ">", "0"]

    def test_positions_are_one_based(self):
        assert dsl.position(dsl.tokenize("x")[0]) == (1, 1)

    @pytest.mark.parametrize(
        "source, error, message",
        [
            ('x == "a\nb" @', LexError, "unexpected character '@' (line 2, column 4)"),
            ('x == "a\nb" y', ParseError, "unexpected 'y' (line 2, column 4)"),
            ("x == 'a\n\nbc' >\n 1", ParseError,
             "comparison operators are non-associative (line 3, column 5)"),
        ],
    )
    def test_positions_count_line_breaks_inside_strings(self, source, error, message):
        with pytest.raises(error) as exc:
            dsl.parse(source)
        assert type(exc.value) is error and str(exc.value) == message

    def test_a_lex_error_is_a_parse_error(self):
        assert issubclass(LexError, ParseError)

    @pytest.mark.parametrize(
        "source, kind",
        [("if", "keyword"), ("TRUE", "boolean"), ("FALSE", "boolean"), ("NA", "missing"),
         ("NA_x", "identifier"), ("if.y", "identifier"), ("TRUE1", "identifier"),
         ("FALSE.", "identifier"), ("NAME", "identifier"), ("iff", "identifier")],
    )
    def test_a_reserved_word_is_not_the_start_of_a_name(self, source, kind):
        assert [t.lastgroup for t in dsl.tokenize(source)] == [kind]

    @pytest.mark.parametrize("source, char, column", [("café > 0", "é", 4), ("x > ²", "²", 5)])
    def test_non_ascii_character_is_a_lex_error(self, source, char, column):
        with pytest.raises(LexError) as exc:
            dsl.parse(source)
        assert str(exc.value) == f"unexpected character {char!r} (line 1, column {column})"

    def test_unicode_decimal_digit_is_a_number(self):
        assert body("x > ٣").rhs == N(3.0)


class TestParse:
    def test_balance_rule_shape(self):
        e = body("turnover + other.rev == total.rev")
        assert isinstance(e, dsl.Binary) and e.op == "=="
        assert isinstance(e.lhs, dsl.Binary) and e.lhs.op == "+"
        assert isinstance(e.rhs, dsl.Identifier) and e.rhs.name == "total.rev"

    def test_implication(self):
        e = body("if (staff > 0) staff.costs > 0")
        assert isinstance(e, dsl.Implication)
        assert isinstance(e.condition, dsl.Binary) and e.condition.op == ">"

    def test_functional_dependency(self):
        e = body("city + street ~ postal_code")
        assert isinstance(e, dsl.FuncDep)
        assert e.determinant == ["city", "street"]
        assert e.dependent == ["postal_code"]

    @pytest.mark.parametrize(
        "parse, source, message",
        [
            (dsl.parse, "G := var_group(x, 1)", "var_group members must be variable names"),
            (dsl.parse, "G := var_group()", "var_group expects one or more variable names"),
            (dsl.parse, "f(a = 1, a = 2)", "duplicate named argument 'a'"),
            (dsl.parse, " \t", "empty rule"),
            (dsl.parse_expression, "m := 1", "expected an expression, found a definition"),
        ],
    )
    def test_error_message(self, parse, source, message):
        with pytest.raises(ParseError) as caught:
            parse(source)
        assert str(caught.value) == message

    def test_group_definition(self):
        d = dsl.parse("G := var_group(x, y, z)")
        assert isinstance(d, dsl.GroupDef)
        assert d.name == "G" and d.members == ["x", "y", "z"]

    def test_macro_definition(self):
        d = dsl.parse("med := median(x)")
        assert isinstance(d, dsl.MacroDef) and d.name == "med"

    def test_precedence(self):
        e = body("a + b * c == d | e > 0 & f > 0")
        # '|' is loosest
        assert isinstance(e, dsl.Binary) and e.op == "|"
        assert e.lhs.op == "=="
        assert e.rhs.op == "&"

    def test_power_right_associative(self):
        e = body("x > 2 ^ 3 ^ 2")
        p = e.rhs
        assert p.op == "^" and p.rhs.op == "^"

    def test_nonassociative_comparison(self):
        with pytest.raises(ParseError):
            dsl.parse("a < b < c")

    def test_parse_error_reports_position(self):
        with pytest.raises(ParseError):
            dsl.parse("x >")

    def test_dot_is_dataset_ref(self):
        e = body("nrow(.) >= 100")
        assert isinstance(e.lhs.args[0], dsl.DatasetRef)

    @pytest.mark.parametrize(
        "source, tree",
        [
            ("-a^b", U("negate", B("^", a, b))),
            ("a^-b^c", B("^", a, U("negate", B("^", b, c)))),
            ("2^3^2", B("^", N(2.0), B("^", N(3.0), N(2.0)))),
            ("!a == b", U("!", B("==", a, b))),
            ("!!a", U("!", U("!", a))),
            ("- -a", U("negate", U("negate", a))),
            ("a - b - c", B("-", B("-", a, b), c)),
            ("a / b * c", B("*", B("/", a, b), c)),
            ("a & b | c", B("|", B("&", a, b), c)),
            ("x %in% c(1) & y", B("&", B("%in%", x, dsl.Call("c", [N(1.0)])), y)),
            ("if (a) b | c", dsl.Implication(a, B("|", b, c))),
            ("f(if (a) b)", dsl.Call("f", [dsl.Implication(a, b)])),
        ],
    )
    def test_precedence_and_associativity(self, source, tree):
        assert body(source) == tree

    @pytest.mark.parametrize(
        "source, message",
        [
            ("a < b < c", "comparison operators are non-associative (line 1, column 7)"),
            ("a == !b", "unexpected '!' (line 1, column 6)"),
            ("a ^ !b", "unexpected '!' (line 1, column 5)"),
        ],
    )
    def test_operator_error_text(self, source, message):
        with pytest.raises(ParseError) as exc:
            dsl.parse(source)
        assert str(exc.value) == message


def _quoted(text, quote):
    return quote + text.replace("\\", "\\\\").replace(quote, "\\" + quote) + quote


CODE_NUMBERS = st.one_of(
    st.integers(0, 10**9).map(str),
    st.sampled_from(["1.", "1e3", "\u0663", "0.5", "2E-2", "1.5e+2", "007", "1e999"]),
)
CODE_STRINGS = st.builds(
    _quoted, st.text(alphabet="a, ()\"'\\#\t\u00e9", max_size=6), st.sampled_from("\"'")
)
SEPARATORS = st.sampled_from([",", ", ", " ,", "\t,\t", " ,  "])


@st.composite
def code_lists(draw):
    """A code list on one line, as the texts of its items and of the separators between them."""
    items = draw(st.lists(st.one_of(CODE_NUMBERS, CODE_STRINGS), min_size=1, max_size=6))
    separators = draw(st.lists(SEPARATORS, min_size=len(items) - 1, max_size=len(items) - 1))
    return items, separators


def _code_list(items, separators, before=" "):
    return "c(" + before + "".join(map(str.__add__, items, [*separators, ""])) + ")"


class TestCodeList:
    """``c(...)`` of number and string literals on one line is one token, read
    into the tree that the same list read token by token gives."""

    def test_one_token(self):
        tokens = dsl.tokenize("x %in% c(1, 'a,)', 2e3)")
        assert [t.lastgroup for t in tokens] == ["identifier", "operator", "code_list"]
        assert tokens[2][0] == "c(1, 'a,)', 2e3)" and dsl.position(tokens[2]) == (1, 8)
        assert body("x %in% c(1, 'a,)', 2e3)").rhs == dsl.Call(
            "c", [N(1.0), dsl.StringLit("a,)"), N(2000.0)]
        )

    @pytest.mark.parametrize(
        "source",
        ["c(-1, 2)", "c(1, NA)", "c(TRUE)", "c(x, 1)", "c(k = 1)", "c(1, # one\n2)",
         "c(1,\n2)", "c(1, (2))", "c(1 2)", "c()", "abc(1, 2)", "c (1, 2)"],
    )
    def test_other_spellings_take_the_general_path(self, source):
        assert "code_list" not in [t.lastgroup for t in dsl.tokenize(source)]

    @pytest.mark.parametrize(
        "source, error, message",
        [
            ("2 c(1, 2)", ParseError, "unexpected 'c' (line 1, column 3)"),
            ("x %in% c(1, 2) 3", ParseError, "unexpected '3' (line 1, column 16)"),
            ("(c(1, 2)", ParseError, "expected ')', found end of input"),
            ("if c(1) x", ParseError, "expected '(', found 'c' (line 1, column 4)"),
            # a lex error beats an earlier parse error
            ("x %in% c(1, 2) > > 1 @", LexError, "unexpected character '@' (line 1, column 22)"),
            ("x %in% c(1, 2,)", ParseError, "unexpected ')' (line 1, column 15)"),
            ("x %in% c(1 2)", ParseError, "expected ')', found '2' (line 1, column 12)"),
            ("c(1, 2) ~ x", ParseError, "functional dependency sides must be sums of variable names"),
        ],
    )
    def test_errors_read_as_token_by_token(self, source, error, message):
        with pytest.raises(error) as exc:
            dsl.parse(source)
        assert type(exc.value) is error and str(exc.value) == message

    def test_depth(self):
        # each parenthesis pair is a level as read, the call one and its literals another
        deepest = "(" * 148 + "c(1, 2)" + ")" * 148
        assert body(deepest) == dsl.Paren(dsl.Call("c", [N(1.0), N(2.0)]))
        with pytest.raises(ParseError) as exc:
            dsl.parse("(" + deepest + ")")
        assert str(exc.value) == TOO_DEEP

    @settings(max_examples=300, deadline=None, database=None)
    @given(code_lists(), st.data())
    def test_same_tree_as_the_list_with_a_line_break(self, code_list, data):
        items, separators = code_list
        fused = _code_list(items, separators)
        assert [t.lastgroup for t in dsl.tokenize(fused)] == ["code_list"]
        if separators:  # a line break after a comma: the list read token by token
            i = data.draw(st.integers(0, len(separators) - 1))
            separators[i] = separators[i].replace(",", ",\n", 1)
        general = _code_list(items, separators, before="\n")
        assert "code_list" not in [t.lastgroup for t in dsl.tokenize(general)]
        assert body(fused) == body(general)
        assert dsl.parse("x %in% " + fused) == dsl.parse("x %in% " + general)


# rule text ``n`` levels deep in each shape that nests; ``v`` is a macro
DEEP_SHAPES = {
    "parentheses": lambda n: "v > " + "(" * (n - 2) + "0" + ")" * (n - 2),
    "calls": lambda n: "abs(" * (n - 2) + "v" + ")" * (n - 2) + " > 0",
    "sum": lambda n: " + ".join(["v"] * (n - 1)) + " > 0",
    "not": lambda n: "!" * (n - 3) + "(v > 0)",
    "if": lambda n: "if (v > 0) " * (n - 2) + "v > 0",
    "code list": lambda n: "abs(" * (n - 4) + "c(1) + v" + ")" * (n - 4) + " > 0",
    "sum of code lists": lambda n: " + ".join(["c(1)"] * (n - 3)) + " + v > 0",
}

TOO_DEEP = "expression nested deeper than 150 levels"


def _frames_down(count, fn):
    """``fn()``, called ``count`` stack frames below this one."""
    return fn() if count == 0 else _frames_down(count - 1, fn)


class TestDepthLimit:
    @pytest.mark.parametrize("shape", DEEP_SHAPES)
    def test_deepest_rule_confronts(self, shape):
        df = from_dict({"x": [1.0, -1.0, None]})
        rule = DEEP_SHAPES[shape](dsl.MAX_DEPTH)
        # headroom for a caller that is itself deep in the stack
        v = _frames_down(100, lambda: check_that(df, "v := x", rule))
        assert [o.error for o in v.outcomes] == [None]
        assert v.outcomes[0].result[2] is None

    @pytest.mark.parametrize("shape", DEEP_SHAPES)
    def test_one_level_deeper_is_a_parse_error(self, shape):
        with pytest.raises(ParseError) as exc:
            dsl.parse(DEEP_SHAPES[shape](dsl.MAX_DEPTH + 1))
        assert str(exc.value) == TOO_DEEP

    @pytest.mark.parametrize(
        "source",
        [
            "(" * 2000 + "x" + ")" * 2000,
            "!" * 2000 + "x",
            "-" * 2000 + "x > 0",
            " + ".join(["x"] * 3000) + " > 0",
            "m := " + " + ".join(["x"] * 3000),
        ],
        ids=["parentheses", "not", "negate", "sum", "macro"],
    )
    def test_overflow_is_a_parse_error(self, source):
        with pytest.raises(ParseError) as exc:
            dsl.parse(source)
        assert str(exc.value) == TOO_DEEP

    # (macro body, rule) pairs exactly MAX_DEPTH levels deep once substituted
    @pytest.mark.parametrize(
        "macro, rule",
        [
            ("!" * 146 + "(x > 0)", "!m"),
            (" + ".join(["x"] * 149), "m > 0"),
            # a sum under * is wrapped in parentheses, which take a level
            (" + ".join(["x"] * 147), "m * 2 > 0"),
        ],
        ids=["not", "sum", "parenthesized"],
    )
    def test_macro_substitution_depth(self, macro, rule):
        df = from_dict({"x": [1.0]})
        v = check_that(df, f"m := {macro}", rule)
        assert [o.error for o in v.outcomes] == [None]
        deeper = "!" + macro if macro.startswith("!") else "x + " + macro
        with pytest.raises(ParseError) as exc:
            check_that(df, f"m := {deeper}", rule)
        assert str(exc.value) == TOO_DEEP


TOO_BIG = "expression expands to more than 100000 nodes"


def _call_of(name, count):
    """``c(name, name, ...)``: 1 + ``count`` nodes when ``name`` is one node."""
    return "c(" + ", ".join([name] * count) + ")"


class TestNodeLimit:
    def test_chained_macros_fail_fast(self):
        # 141 nodes, then 1 + 140 * 141 = 19741, then 1 + 140 * 19741
        entries = [
            "m1 := " + _call_of("x", 140),
            "m2 := " + _call_of("m1", 140),
            "m3 := " + _call_of("m2", 140),
            "all(m3 > 0)",
        ]
        with pytest.raises(ParseError) as exc:
            new_ruleset([(None, source) for source in entries])
        assert str(exc.value) == TOO_BIG

    def test_product_of_groups_fails_fast(self):
        # 2 ** 14 combinations of a 29-node rule
        groups = [f"G{i} := var_group(x, y)" for i in range(14)]
        rule = " + ".join(f"G{i}" for i in range(14)) + " > 0"
        with pytest.raises(ParseError) as exc:
            new_ruleset([(None, source) for source in [*groups, rule]])
        assert str(exc.value) == TOO_BIG

    def test_largest_group_expansion_under_the_bound(self):
        # each expansion of G > 0 has 3 nodes
        members = [f"x{i}" for i in range(dsl.MAX_NODES // 3)]
        assert len(dsl.expand(body("G > 0"), {}, {"G": members})) == len(members)
        with pytest.raises(ParseError) as exc:
            dsl.expand(body("G > 0"), {}, {"G": [*members, "y"]})
        assert str(exc.value) == TOO_BIG

    def test_rule_at_the_bound_confronts(self):
        # all(c(<99 uses of a 1000-node macro>, <996 x>) > 0): 4 + 99000 + 996 nodes
        macro = "m := " + _call_of("x", 999)
        uses = ", ".join(["m"] * 99 + ["x"] * 996)
        df = from_dict({"x": [1.0]})
        v = check_that(df, macro, f"all(c({uses}) > 0)")
        assert [(o.error, o.result) for o in v.outcomes] == [(None, [True])]
        with pytest.raises(ParseError) as exc:
            check_that(df, macro, f"all(c({uses}, x) > 0)")
        assert str(exc.value) == TOO_BIG

    def test_rules_without_expansion_are_not_bounded(self):
        rule = "all(" + _call_of("x", dsl.MAX_NODES) + " > 0)"
        rs, _ = new_ruleset([(None, "m := x"), (None, rule)])
        assert len(rs) == 1


class TestClassify:
    @pytest.mark.parametrize(
        "source,expected",
        [
            ("x > 0", "validating"),
            ("mean(x)", "invalid"),
            ("!any(duplicated(id))", "validating"),
            ("if (x > 0) y > 0", "validating"),
            ("city ~ postal_code", "validating"),
            ("is.numeric(turnover)", "validating"),
            ("is_unique(id)", "validating"),
            ("all_complete(x, y)", "validating"),
            ('grepl("^sc", size)', "validating"),
            ("x %in% c(1, 2)", "validating"),
            ("x + 1", "invalid"),
            ("nrow(.)", "invalid"),
            ("(x > 0)", "validating"),
            ("((x > 0))", "validating"),
            ("(x + 1)", "invalid"),
            ("med := median(x)", "macro"),
            ("G := var_group(x, y)", "group"),
        ],
    )
    def test_classify(self, source, expected):
        assert dsl.classify(dsl.parse(source)) == expected


def macro_table(**sources):
    """Macro table of ``dsl.expand``: each name's ``dsl.insert_macros`` entry."""
    return {name: dsl.insert_macros(body(src), {}) for name, src in sources.items()}


class TestMacros:
    def test_fraction_example(self):
        macros = macro_table(fraction='mean(Species == "versicolor")')
        [e] = dsl.expand(body("fraction >= 0.25"), macros, {})
        assert dsl.render(e) == 'mean(Species == "versicolor") >= 0.25'

    def test_empty_table_is_identity(self):
        e = body("x > 0")
        assert [dsl.render(out) for out in dsl.expand(e, {}, {})] == ["x > 0"]

    def test_binary_body_is_parenthesized(self):
        macros = macro_table(m="a + b")
        [e] = dsl.expand(body("m + m > 2"), macros, {})
        assert dsl.render(e) == "(a + b) + (a + b) > 2"
        # oracle: both forms agree on a one-row frame
        df = from_dict({"a": [3.0], "b": [4.0]})
        direct = eval_expr(body("a + b + a + b > 2"), df).cells
        assert eval_expr(e, df).cells == direct

    def test_macro_names_never_leak(self):
        [e] = dsl.expand(body("m > c"), macro_table(m="a + b"), {})
        assert dsl.variables(e) == ["a", "b", "c"]

    def test_body_is_shared_and_frozen(self):
        macros = macro_table(m="a + b")
        [e] = dsl.expand(body("m > c"), macros, {})
        assert e.lhs is macros["m"][0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            macros["m"][0].op = "-"


class TestGroups:
    def test_single_group(self):
        out = dsl.expand(body("G >= 0"), {}, {"G": ["x", "y", "z"]})
        assert [dsl.render(e) for e in out] == ["x >= 0", "y >= 0", "z >= 0"]

    def test_no_group_referenced(self):
        out = dsl.expand(body("x > 0"), {}, {"G": ["a", "b"]})
        assert [dsl.render(e) for e in out] == ["x > 0"]

    def test_cartesian_product_row_major(self):
        out = dsl.expand(body("G < H"), {}, {"G": ["a", "b"], "H": ["c", "d"]})
        assert [dsl.render(e) for e in out] == ["a < c", "a < d", "b < c", "b < d"]

    def test_length_is_product_of_sizes(self):
        groups = {"G": ["a", "b", "c"], "H": ["d", "e"]}
        out = dsl.expand(body("G + H > 0"), {}, groups)
        assert len(out) == 6


class TestRewriteImplication:
    def test_example(self):
        e = dsl.rewrite_implication(body("if (staff > 0) staff.costs > 0"))
        assert dsl.render(e) == "!(staff > 0) | (staff.costs > 0)"

    def test_identity_without_implication(self):
        e = body("staff >= 0")
        assert dsl.render(dsl.rewrite_implication(e)) == "staff >= 0"

    def test_truth_table(self):
        rewritten = dsl.rewrite_implication(body("if (P) Q"))
        table = {}
        for p, q in itertools.product([True, False], repeat=2):
            df = from_dict({"P": [p], "Q": [q]}, {"P": "boolean", "Q": "boolean"})
            table[(p, q)] = eval_expr(rewritten, df).cells[0]
        assert table == {
            (False, False): True,
            (False, True): True,
            (True, False): False,
            (True, True): True,
        }

    def test_soundness_over_boolean_assignments(self):
        # eval(if (a & b) c | d) must match eval(!(a & b) | (c | d)) everywhere
        original = body("if (a & b) c | d")
        rewritten = dsl.rewrite_implication(original)
        reference = body("!(a & b) | (c | d)")
        for bits in itertools.product([True, False], repeat=4):
            df = from_dict(
                {k: [v] for k, v in zip("abcd", bits)},
                {k: "boolean" for k in "abcd"},
            )
            assert eval_expr(rewritten, df).cells == eval_expr(reference, df).cells


class TestRewriteTolerance:
    def test_inequality(self):
        e = dsl.rewrite_tolerance(body("staff >= 0"), 1e-8, 1e-8)
        assert dsl.render(e) == "(staff - 0) >= -1e-08"

    def test_equality(self):
        e = dsl.rewrite_tolerance(body("turnover + other.rev == total.rev"), 1e-8, 1e-8)
        assert dsl.render(e) == "abs(turnover + other.rev - total.rev) < 1e-08"

    def test_zero_epsilon_is_identity(self):
        e = body("turnover >= 0")
        assert dsl.rewrite_tolerance(e, 0.0, 0.0) is e

    def test_nonlinear_side_unchanged(self):
        e = body("mean(profit, na.rm = TRUE) >= 1")
        assert dsl.render(dsl.rewrite_tolerance(e, 1e-8, 1e-8)) == (
            "mean(profit, na.rm = TRUE) >= 1"
        )

    def test_constant_multiple_is_linear(self):
        e = dsl.rewrite_tolerance(body("profit <= 0.6 * turnover"), 1e-8, 1e-8)
        assert dsl.render(e) == "(profit - (0.6 * turnover)) <= 1e-08"

    def test_division_is_not_linear(self):
        e = body("profit/total.rev <= 0.6")
        assert dsl.rewrite_tolerance(e, 1e-8, 1e-8) is e

    def test_monotonicity_of_equality_slack(self):
        e = dsl.rewrite_tolerance(body("x == y"), 1e-6, 1e-6)
        df = from_dict({"x": [1.0], "y": [1.0 + 1e-9]})
        assert eval_expr(e, df).cells == [True]

    def test_strict_inequalities_get_slack(self):
        e = dsl.rewrite_tolerance(body("x > 0"), 1e-8, 1e-8)
        assert dsl.render(e) == "(x - 0) > -1e-08"
        e = dsl.rewrite_tolerance(body("x < 1"), 1e-8, 1e-8)
        assert dsl.render(e) == "(x - 1) < 1e-08"

    def test_not_equal_is_left_alone(self):
        e = body("x != y")
        assert dsl.rewrite_tolerance(e, 1e-8, 1e-8) is e


class TestVariables:
    def test_single(self):
        assert dsl.variables(body("staff >= 0")) == ["staff"]

    def test_first_occurrence_order(self):
        assert dsl.variables(body("turnover + other.rev == total.rev")) == [
            "turnover",
            "other.rev",
            "total.rev",
        ]

    def test_dataset_ref_contributes_nothing(self):
        assert dsl.variables(body("nrow(.) >= 100")) == []

    def test_named_args_are_not_variables(self):
        assert dsl.variables(body("mean(profit, na.rm = TRUE) >= 1")) == ["profit"]

    def test_functional_dependency_variables(self):
        assert dsl.variables(body("city + street ~ postal_code")) == [
            "city",
            "street",
            "postal_code",
        ]


RENDER_CORPUS = [
    "staff >= 0",
    "mean(profit,na.rm=TRUE)>=1",
    "if (staff > 0) staff.costs > 0",
    "city + street ~ postal_code",
    "!any(duplicated(id))",
    'x %in% c("a", "b")',
    "a + b * c - d / e ^ 2 > 0",
    "-x < 1",
    "(a | b) & !c",
    "nrow(.) >= 100",
    '"Species" %in% names(.)',
    "x != NA",
    "profit/total.rev <= 0.6",
    "G := var_group(x, y, z)",
    "med := median(x)",
    "is_complete(x, y)",
]


class TestRender:
    def test_named_arg_spacing(self):
        assert dsl.render(body("mean(profit,na.rm=TRUE)>=1")) == (
            "mean(profit, na.rm = TRUE) >= 1"
        )

    def test_rewritten_inequality(self):
        e = dsl.rewrite_tolerance(body("staff >= 0"), 1e-8, 1e-8)
        assert dsl.render(e) == "(staff - 0) >= -1e-08"

    @pytest.mark.parametrize("source", RENDER_CORPUS)
    def test_render_parse_idempotent(self, source):
        once = dsl.render_directive(dsl.parse(source))
        twice = dsl.render_directive(dsl.parse(once))
        assert once == twice

    def test_left_nested_power_keeps_parentheses(self):
        e = B("^", B("^", N(2.0), N(3.0)), N(2.0))
        assert dsl.render(e) == "(2^3)^2"
        df = from_dict({"x": [0.0]})
        assert eval_expr(dsl.parse_expression(dsl.render(e)), df).cells == [64.0]

    def test_scientific_threshold(self):
        assert dsl.render(dsl.NumberLit(1e-8)) == "1e-08"
        assert dsl.render(dsl.NumberLit(0.0001)) == "0.0001"
        assert dsl.render(dsl.NumberLit(0.5)) == "0.5"
        assert dsl.render(dsl.NumberLit(95.0)) == "95"


class TestVocabulary:
    """The evaluator dispatches from one table per vocabulary, and they match the parser's."""

    def test_binary_operators_are_the_parsers(self):
        assert set(engine._BINARY) == set(dsl._BINARY_PREC)

    def test_prefix_operators_are_the_parsers(self):
        assert set(engine._UNARY) == {op for op, _ in dsl._PREFIX.values()}

    def test_validating_calls_are_builtins(self):
        assert dsl.VALIDATING_CALLS <= set(engine.BUILTINS)

    def test_readme_lists_every_builtin_once(self):
        readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
        with open(readme, encoding="utf-8") as fh:
            text = fh.read()
        bullet = text[text.index("- **Rule language.**"):]
        bullet = bullet[: bullet.index("\n- **")]
        listed = re.search(r"The built-in functions are (.*?)\.\s", bullet, re.DOTALL).group(1)
        names = re.findall(r"`([\w.]+)`", listed)
        assert sorted(n.replace(".", "_") for n in names) == sorted(engine.BUILTINS)
