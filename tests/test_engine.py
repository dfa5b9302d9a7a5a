import itertools
import math
import random
import re
import tracemalloc
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from checkmate import dsl, engine, from_dict, ingest_csv
from checkmate.engine import (
    check_that,
    confront,
    eval_expr,
    eval_fd,
    kleene_not,
)
from checkmate.errors import DataError, EvalError
from checkmate.results import summarize
from checkmate.rules import new_ruleset, subset


def expr(source):
    return dsl.parse(source).body


def cells(source, df, ref=None):
    return eval_expr(expr(source), df, ref).cells


class TestKleene:
    """The evaluator's ``&``, ``|`` and ``!`` on all nine (P, Q) cell pairs,
    one pair per row, in the order of ``PAIRS``."""

    T, F, N = True, False, None
    PAIRS = list(itertools.product([T, F, N], repeat=2))
    DF = from_dict(
        {"P": [p for p, _ in PAIRS], "Q": [q for _, q in PAIRS]}, {"P": "boolean", "Q": "boolean"}
    )

    def table(self, source):
        """The cells of ``source`` by (P, Q) pair, each cell with its type."""
        return {pq: (c, type(c)) for pq, c in zip(self.PAIRS, cells(source, self.DF))}

    def expect(self, *column):
        return {pq: (c, type(c)) for pq, c in zip(self.PAIRS, column)}

    def test_and(self):
        T, F, N = self.T, self.F, self.N
        # rows P = T, F, NA; columns Q = T, F, NA
        assert self.table("P & Q") == self.expect(T, F, N, F, F, F, N, F, N)

    def test_or(self):
        T, F, N = self.T, self.F, self.N
        assert self.table("P | Q") == self.expect(T, T, T, T, F, N, T, N, N)

    def test_not(self):
        T, F, N = self.T, self.F, self.N
        assert self.table("!P") == self.expect(F, F, F, T, T, T, N, N, N)
        # the cell function results.any_fail uses
        assert [kleene_not(c) for c in (T, F, N)] == [F, T, N]

    def test_de_morgan(self):
        assert self.table("!(P & Q)") == self.table("!P | !Q")
        assert self.table("!(P | Q)") == self.table("!P & !Q")


class TestEvalExpr:
    def test_comparison(self):
        df = from_dict({"x": [1.0, -1.0, None]})
        assert cells("x >= 0", df) == [True, False, None]

    def test_missing_propagates_through_arithmetic(self):
        df = from_dict({"x": [1.0, None], "y": [2.0, 2.0]})
        assert cells("x + y > 0", df) == [True, None]

    def test_broadcast_scalar(self):
        df = from_dict({"x": [1.0, 2.0, 3.0]})
        assert cells("x > 2", df) == [False, False, True]

    def test_broadcast_length_error(self):
        df = from_dict({"x": [1.0, 2.0]})
        with pytest.raises(EvalError):
            cells("x > c(1, 2, 3)", df)

    def test_no_coercion_between_text_and_number(self):
        df = from_dict({"x": ["1", "2"]})
        with pytest.raises(EvalError):
            cells("x > 0", df)

    def test_logical_on_number_rejected(self):
        df = from_dict({"x": [1.0]})
        with pytest.raises(EvalError):
            cells("x | x", df)

    def test_unknown_variable(self):
        df = from_dict({"x": [1.0]})
        with pytest.raises(EvalError) as exc:
            cells("nosuch > 0", df)
        assert "nosuch" in str(exc.value)

    def test_membership(self):
        df = from_dict({"size": ["sc0", "sc9", None]})
        assert cells('size %in% c("sc0", "sc1")', df) == [True, False, None]

    def test_membership_against_reference(self):
        df = from_dict({"size": ["sc0", "sc9"]})
        result = cells("size %in% codelist", df, ref={"codelist": ["sc0", "sc1"]})
        assert result == [True, False]

    def test_division_by_zero_is_infinite(self):
        df = from_dict({"x": [1.0], "y": [0.0]})
        assert cells("x/y > 1000", df) == [True]

    def test_power(self):
        df = from_dict({"x": [3.0]})
        assert cells("x ^ 2 == 9", df) == [True]

    def test_power_overflow_is_infinite(self):
        df = from_dict({"x": [10.0, -10.0, None]})
        v = check_that(df, "x ^ 400 > 1e308", "x ^ 401 < -1e308", "x ^ 401 > 1e308")
        assert [o.result for o in v.outcomes] == [
            [True, True, None],
            [False, True, None],
            [True, False, None],
        ]
        assert [o.warnings for o in v.outcomes] == [[], [], []]

    @pytest.mark.parametrize(
        "rule, data",
        [
            ("x ^ 0.5 >= 0", [4.0, -4.0, None]),  # complex root
            ("x ^ 400.5 >= 0", [4.0, -10.0, None]),  # complex root that overflows
            ("x - 1e308 * 10 >= 0", [4.0, 1e308 * 10, None]),  # inf - inf
        ],
    )
    def test_nan_result_is_missing_with_a_warning(self, rule, data):
        df = from_dict({"x": data})
        (outcome,) = check_that(df, rule).outcomes
        assert outcome.result[1:] == [None, None]
        assert outcome.error is None
        assert outcome.warnings == ["NaNs produced"]
        with pytest.raises(EvalError, match="NaNs produced"):
            check_that(df, rule, opts={"raise": "all"})

    def test_zero_to_a_negative_power_is_infinite(self):
        df = from_dict({"x": [0.0, -0.0, 2.0, None]})
        (outcome,) = check_that(df, "x ^ -1 > 1e308").outcomes
        assert outcome.result == [True, False, False, None]
        assert outcome.warnings == []
        assert cells("x ^ -2 > 1e308", df) == [True, True, False, None]
        assert cells("x / 0 > 0", df)[:2] == [None, None]  # 0/0 stays missing

    def test_filled_missing_cells_neither_raise_nor_warn(self):
        # 0.0 fills the missing cells: 0/0, 0^-1 and 0*inf there must leave no trace
        df = from_dict({"x": [None, 2.0, None], "y": [0.0, None, None]})
        rules = ["y / x >= 0", "x ^ -1 > 0", "x * (1e308 * 10) > 0", "x / y > 0"]
        for opts in (None, {"raise": "all"}):
            v = check_that(df, *rules, opts=opts)
            assert [o.result for o in v.outcomes] == [
                [None, None, None], [None, True, None], [None, True, None], [None, None, None],
            ]
            assert [(o.error, o.warnings) for o in v.outcomes] == [(None, [])] * 4

    def test_missing_text_is_no_empty_string_key(self):
        df = from_dict({"k": [None, "", None], "v": [1.0, 2.0, 3.0]})
        assert cells("is_unique(k)", df) == [False, True, False]
        assert cells("duplicated(k)", df) == [False, False, True]
        assert cells("is_unique(k, v)", df) == [True, True, True]
        assert eval_fd(expr("k ~ v"), df) == [True, True, False]

    def test_vectors_keep_filled_values_and_sorted_missing_indices(self):
        df = from_dict({"x": [1.0, None, 3.0], "y": [None, 2.0, 1.0]})
        v = eval_expr(expr("x - y"), df)
        assert (v.values, v.na, v.cells) == ([0.0, 0.0, 2.0], (0, 1), [None, None, 2.0])
        v = eval_expr(expr("x > 2 | y > 1"), df)
        assert (v.values, v.na) == ([False, True, True], (0,))

    def test_unary_minus(self):
        df = from_dict({"x": [3.0, None]})
        assert cells("-x < 0", df) == [True, None]

    def test_dataset_functions(self):
        df = from_dict({"x": [1.0, 2.0], "y": [0.0, 0.0]})
        assert cells("nrow(.) >= 2", df) == [True]
        assert cells("ncol(.) == 2", df) == [True]
        assert cells('"x" %in% names(.)', df) == [True]
        assert cells("number_of_records() == 2", df) == [True]

    def test_reference_dataset(self):
        df = from_dict({"x": [1.0]})
        other = from_dict({"a": [1.0], "b": [2.0], "c": [3.0]})
        assert cells("ncol(ext) == 3", df, ref={"ext": other}) == [True]


class TestReferenceFrame:
    """``ref`` given as a whole frame: its columns are names of the scope."""

    DATA = from_dict({"x": [1.0, 2.0, 3.0], "shared": [1.0, 1.0, 1.0]})
    REF = from_dict(
        {"y": [2.0, None], "shared": [5.0, 5.0], "flag": [True, None], "code": ["a", None]}
    )

    def test_a_reference_column_is_found_by_name(self):
        assert cells("y", self.DATA, self.REF) == [2.0, None]
        assert cells("x > mean(y, na.rm = TRUE)", self.DATA, self.REF) == [False, False, True]
        assert cells('"a" %in% code', self.DATA, self.REF) == [True]

    def test_a_reference_column_keeps_its_kind(self):
        kinds = {name: eval_expr(expr(name), self.DATA, self.REF).kind for name in self.REF.names}
        assert kinds == {"y": "number", "shared": "number", "flag": "logical", "code": "text"}
        assert cells("flag & TRUE", self.DATA, self.REF) == [True, None]

    def test_a_data_column_shadows_a_reference_column(self):
        assert cells("shared", self.DATA, self.REF) == [1.0, 1.0, 1.0]

    def test_nrow_counts_the_data(self):
        assert cells("nrow(.)", self.DATA, self.REF) == [3.0]
        assert cells("number_of_records()", self.DATA, self.REF) == [3.0]

    def test_a_name_in_neither_is_not_found(self):
        with pytest.raises(EvalError, match="object 'nosuch' not found"):
            cells("nosuch", self.DATA, self.REF)

    def test_confront_reads_the_frame_for_every_rule(self):
        rs, _ = new_ruleset([("a", "x >= max(y, na.rm = TRUE)"), ("b", "sum(shared) == 3")])
        v = confront(self.DATA, rs, ref=self.REF)
        assert [o.result for o in v.outcomes] == [[False, True, True], [True]]


class TestBuiltins:
    def test_aggregates_with_missing(self):
        df = from_dict({"x": [1.0, 3.0, None]})
        assert cells("mean(x) >= 1", df) == [None]
        assert cells("mean(x, na.rm = TRUE) == 2", df) == [True]
        assert cells("sum(x, na.rm = TRUE) == 4", df) == [True]
        assert cells("min(x, na.rm = TRUE) == 1", df) == [True]
        assert cells("max(x, na.rm = TRUE) == 3", df) == [True]
        assert cells("median(x, na.rm = TRUE) == 2", df) == [True]

    @staticmethod
    def of_no_values(rule, tmp_path):
        """(result, warnings) of ``rule`` on an all-missing column and on a header-only file."""
        path = tmp_path / "header.csv"
        path.write_text("x\n")
        empty = [
            check_that(from_dict({"x": [None, None]}), rule.replace("x)", "x, na.rm = TRUE)")),
            check_that(ingest_csv(str(path)), rule),
        ]
        return [(o.result, o.warnings) for v in empty for o in v.outcomes]

    def test_sum_of_no_values_is_zero(self, tmp_path):
        assert self.of_no_values("sum(x) == 0", tmp_path) == [([True], [])] * 2

    def test_min_of_no_values_is_inf_with_a_warning(self, tmp_path):
        warned = ["no non-missing arguments to min; returning Inf"]
        assert self.of_no_values("min(x) > 1e308", tmp_path) == [([True], warned)] * 2

    def test_max_of_no_values_is_minus_inf_with_a_warning(self, tmp_path):
        warned = ["no non-missing arguments to max; returning -Inf"]
        assert self.of_no_values("max(x) < -1e308", tmp_path) == [([True], warned)] * 2

    def test_mean_of_no_values_is_missing(self, tmp_path):
        # R's NaN, which compares NA as a missing value does
        assert self.of_no_values("mean(x) > 0", tmp_path) == [([None], [])] * 2

    @pytest.mark.parametrize("xs", [[math.inf, -math.inf], [math.inf, -math.inf, 1e308, 1e308]])
    def test_mean_of_both_infinities_is_nan(self, xs):
        # R's NaN, as sum and median give here; not an error
        df = from_dict({"x": xs})
        v = eval_expr(expr("mean(x)"), df)
        assert math.isnan(v.values[0]) and v.na == ()
        assert check_that(df, "mean(x) > 0").outcomes[0].error is None

    @pytest.mark.parametrize("xs, mean", [
        ([1e308, 1e308], 1e308), ([-1e308, -1e308, 1e308], -1e308 / 3),
        ([1.7976931348623157e308] * 3, 1.7976931348623157e308), ([math.inf, 1e308, 1e308], math.inf),
    ])
    def test_mean_of_values_whose_sum_no_double_holds(self, xs, mean):
        # R sums in a wider type: mean(c(1e308, 1e308)) is 1e308
        assert cells("mean(x)", from_dict({"x": xs})) == [mean]

    @pytest.mark.parametrize("xs, median", [
        ([1e308, 1e308], 1e308), ([-1e308, 1e308, 1e308, 1e308], 1e308),
        ([1.7976931348623157e308] * 2, 1.7976931348623157e308), ([8.0, 1.0, 4.0, 2.0], 3.0),
        ([3.0, -1e308, 1e308], 3.0),
    ])
    def test_median_of_an_even_count_is_the_mean_of_the_middle_cells(self, xs, median):
        # R's median.default: mean(sort(x, partial = half + 0L:1L)[half + 0L:1L]),
        # which does not overflow; of an odd count, the middle cell
        assert cells("median(x)", from_dict({"x": xs})) == [median]

    def test_median_of_two_huge_cells_is_not_above_them(self):
        assert cells("median(x) > 1e308", from_dict({"x": [1e308, 1e308]})) == [False]

    def test_median_of_no_values_is_missing(self, tmp_path):
        assert self.of_no_values("median(x) > 0", tmp_path) == [([None], [])] * 2

    def test_all_any(self):
        df = from_dict({"x": [1.0, 2.0, None]})
        assert cells("all(x > 0)", df) == [None]
        assert cells("all(x > 0, na.rm = TRUE)", df) == [True]
        assert cells("any(x > 1.5)", df) == [True]
        assert cells("any(x > 99)", df) == [None]
        assert cells("any(x > 99, na.rm = TRUE)", df) == [False]

    def test_abs(self):
        df = from_dict({"x": [-2.0, 2.0, None]})
        assert cells("abs(x) == 2", df) == [True, True, None]

    def test_grepl(self):
        df = from_dict({"size": ["sc0", "mid", None]})
        assert cells('grepl("^sc", size)', df) == [True, False, None]

    def test_grepl_invalid_pattern_is_an_eval_error(self):
        df = from_dict({"size": ["sc0"]})
        with pytest.raises(EvalError, match=r"grepl: invalid pattern '\(': missing \)"):
            cells('grepl("(", size)', df)
        (outcome,) = check_that(df, "grepl('(', size)").outcomes
        assert outcome.error.startswith("grepl: invalid pattern '('")

    def test_duplicated_and_uniqueness(self):
        df = from_dict({"id": ["a", "b", "a"]})
        assert cells("duplicated(id)", df) == [False, False, True]
        assert cells("is_unique(id)", df) == [False, True, False]
        assert cells("all_unique(id)", df) == [False]
        assert cells("!any(duplicated(id))", df) == [False]

    def test_multi_column_uniqueness(self):
        df = from_dict({"a": ["x", "x"], "b": [1.0, 2.0]})
        assert cells("is_unique(a, b)", df) == [True, True]

    def test_completeness(self):
        df = from_dict({"x": [1.0, None], "y": [1.0, 1.0]})
        assert cells("is_complete(x, y)", df) == [True, False]
        assert cells("all_complete(x, y)", df) == [False]
        assert cells("is.na(x)", df) == [False, True]

    def test_type_tests(self):
        df = from_dict({"x": [1.0], "s": ["a"], "b": [True]}, {"b": "boolean"})
        assert cells("is.numeric(x)", df) == [True]
        assert cells("is.numeric(s)", df) == [False]
        assert cells("is.character(s)", df) == [True]
        assert cells("is.logical(b)", df) == [True]

    def test_cor(self):
        df = from_dict({"x": [1.0, 2.0, 3.0], "y": [2.0, 4.0, 6.0]})
        assert cells("cor(x, y) > 0.99", df) == [True]

    def test_cor_with_too_few_pairs(self):
        df = from_dict({"x": [1.0, None], "y": [2.0, 4.0]})
        assert cells("cor(x, y) > 0", df) == [None]

    def test_c_mixing_types_rejected(self):
        df = from_dict({"x": [1.0]})
        with pytest.raises(EvalError):
            cells('x %in% c(1, "a")', df)

    def test_unknown_function(self):
        df = from_dict({"x": [1.0]})
        with pytest.raises(EvalError):
            cells("frobnicate(x) > 0", df)


class TestFunctionalDependency:
    def test_postal_code_example(self):
        df = from_dict(
            {
                "city": ["Rome", "Rome", "Oslo", "Oslo"],
                "postal_code": ["00100", "00100", "0001", "0002"],
            }
        )
        fd = expr("city ~ postal_code")
        assert eval_fd(fd, df) == [True, True, True, False]

    def test_first_record_sets_reference(self):
        df = from_dict({"k": ["a", "a", "a"], "v": [1.0, 2.0, 1.0]})
        assert eval_fd(expr("k ~ v"), df) == [True, False, True]

    def test_missing_dependent_is_unverifiable(self):
        df = from_dict({"k": ["a", "a"], "v": [1.0, None]})
        assert eval_fd(expr("k ~ v"), df) == [True, None]

    def test_missing_determinant_is_its_own_group(self):
        df = from_dict({"k": [None, None], "v": [1.0, 2.0]})
        assert eval_fd(expr("k ~ v"), df) == [True, False]

    def test_multi_column_fd(self):
        df = from_dict(
            {
                "street": ["a", "a", "a"],
                "number": [1.0, 1.0, 2.0],
                "zip": ["x", "y", "x"],
            }
        )
        assert eval_fd(expr("street + number ~ zip"), df) == [True, False, True]

    def test_unknown_column(self):
        df = from_dict({"k": ["a"]})
        with pytest.raises(EvalError):
            eval_fd(expr("k ~ nope"), df)

    @pytest.mark.parametrize("source", ["g ~ v", "g ~ w", "g + w ~ v"])
    def test_few_groups_take_no_tuple_per_row(self, source):
        # one dependent column is compared as it is, and a determinant pair is
        # kept once per group: a tuple per row would be about 64 bytes a row more
        n = 20000
        df = from_dict({"g": [f"g{i % 10}" for i in range(n)],
                        "v": [float(i % 10) for i in range(n)],
                        "w": [f"w{i % 10}" for i in range(n)]})
        fd = expr(source)
        tracemalloc.start()
        try:
            assert eval_expr(fd, df).values == [True] * n
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * n

    def test_random_frames_match_pairwise_oracle(self):
        # oracle: a record holds iff its dependent combination equals that of
        # the first record sharing its determinant combination
        rng = random.Random(5150)
        for _ in range(300):
            n = rng.randint(1, 8)
            det = [rng.choice(["a", "b", None]) for _ in range(n)]
            dep = [rng.choice(["x", "y", None]) for _ in range(n)]
            df = from_dict({"d": det, "v": dep}, {"d": "text", "v": "text"})
            got = eval_fd(expr("d ~ v"), df)
            for i in range(n):
                first = min(j for j in range(n) if det[j] == det[i])
                if dep[i] is None or dep[first] is None:
                    assert got[i] is None
                else:
                    assert got[i] == (dep[i] == dep[first])


class TestNaNIsOneKeyValue:
    """As in R's ``duplicated`` and ``match``, every NaN is one key value and
    NA another, whether the NaN cells are one object, new objects, or read
    from a CSV file (where each read of a cell gives a new object)."""

    # rule -> its cells on x = NaN, NA, NaN, 1 and y = 1, 2, 1, NaN
    EXPECTED = {
        "is_unique(x)": [False, True, False, True],
        "duplicated(x)": [False, False, True, False],
        "is_unique(x, y)": [False, True, False, True],
        "x %in% y": [True, None, True, True],
        "y %in% x": [True, False, True, True],
        "x ~ y": [True, True, True, True],
        "y ~ x": [True, None, True, True],
    }

    def frames(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("x,y\nnan,1\nNA,2\nnan,1\n1,nan\n")
        fresh = [float("nan") for _ in range(3)]
        return {
            "csv": ingest_csv(str(path)),
            "one object": from_dict({"x": [math.nan, None, math.nan, 1.0],
                                     "y": [1.0, 2.0, 1.0, math.nan]}),
            "new objects": from_dict({"x": [fresh[0], None, fresh[1], 1.0],
                                      "y": [1.0, 2.0, 1.0, fresh[2]]}),
        }

    @pytest.mark.parametrize("source", list(EXPECTED))
    def test_every_reader_keys_nan_alike(self, tmp_path, source):
        got = {name: cells(source, df) for name, df in self.frames(tmp_path).items()}
        assert got == dict.fromkeys(got, self.EXPECTED[source])

    def test_a_nan_reference_cell_is_a_member(self):
        df = from_dict({"x": [float("nan"), 1.0]})
        assert cells("x %in% ref", df, {"ref": [float("nan")]}) == [True, False]


class TestConfront:
    def test_summary_counts_on_sample(self, retailers, retailer_rules):
        v = confront(retailers, retailer_rules, key="id")
        by_name = {row.name: row for row in summarize(v)}
        expected = {
            "st": (60, 54, 0, 6),
            "to": (60, 56, 0, 4),
            "or": (60, 23, 1, 36),
            "st.cs": (60, 50, 0, 10),
            "bl": (60, 19, 4, 37),
            "mn": (1, 1, 0, 0),
        }
        for name, (items, passes, fails, nas) in expected.items():
            row = by_name[name]
            assert (row.items, row.passes, row.fails, row.nNA) == (
                items,
                passes,
                fails,
                nas,
            ), name

    def test_key_values_recorded(self, retailers, retailer_rules):
        v = confront(retailers, retailer_rules, key="id")
        assert v.key_name == "id"
        assert v.key_values[0] == "RET01"
        assert v.n_records == 60

    def test_unknown_key(self, retailers, retailer_rules):
        with pytest.raises(DataError):
            confront(retailers, retailer_rules, key="nope")

    def test_key_with_missing_cells(self, retailer_rules):
        df = from_dict({"id": ["a", None], "staff": [1.0, 2.0]})
        with pytest.raises(DataError):
            confront(df, retailer_rules, key="id")

    def test_error_is_captured_per_rule(self, retailers):
        v = check_that(retailers, "staff >= 0", "employees >= 0")
        assert v.outcomes[0].error is None
        assert "employees" in v.outcomes[1].error
        assert v.outcomes[1].result is None

    def test_raise_error_propagates(self, retailers):
        rs, _ = new_ruleset([(None, "employees >= 0")])
        with pytest.raises(EvalError):
            confront(retailers, rs, opts={"raise": "error"})

    def test_na_value_false_transposes_na_to_fail(self, retailers, retailer_rules):
        only_to = subset(retailer_rules, ["to"])
        default = summarize(confront(retailers, only_to))[0]
        forced = summarize(confront(retailers, only_to, opts={"na.value": False}))[0]
        assert (default.passes, default.fails, default.nNA) == (56, 0, 4)
        assert (forced.passes, forced.fails, forced.nNA) == (56, 4, 0)

    def test_na_value_true(self, retailers, retailer_rules):
        only_to = subset(retailer_rules, ["to"])
        forced = summarize(confront(retailers, only_to, opts={"na.value": True}))[0]
        assert (forced.passes, forced.fails, forced.nNA) == (60, 0, 0)

    def test_tolerance_applies_to_expression(self, retailers, retailer_rules):
        v = confront(retailers, retailer_rules)
        by_name = {o.name: o for o in v.outcomes}
        assert by_name["st"].expression == "(staff - 0) >= -1e-08"
        assert by_name["bl"].expression == (
            "abs(turnover + other.rev - total.rev) < 1e-08"
        )
        assert by_name["st.cs"].expression == "!(staff > 0) | (staff.costs > 0)"
        assert by_name["mn"].expression == "mean(profit, na.rm = TRUE) >= 1"

    def test_zero_epsilon_changes_equality_outcome(self):
        df = from_dict({"x": [1.0], "y": [1.0 + 1e-12]})
        rs, _ = new_ruleset([(None, "x == y")])
        assert confront(df, rs).outcomes[0].result == [True]
        strict = confront(df, rs, opts={"lin.eq.eps": 0.0})
        assert strict.outcomes[0].result == [False]

    def test_subset_of_validation(self, retailers, retailer_rules):
        v = confront(retailers, retailer_rules, key="id")
        picked = v.subset(["bl", 1])
        assert [o.name for o in picked.outcomes] == ["bl", "st"]
        assert picked.key_values == v.key_values

    def test_check_that_matches_confront(self, retailers):
        direct = check_that(retailers, "staff >= 0")
        rs, _ = new_ruleset([(None, "staff >= 0")])
        via_ruleset = confront(retailers, rs)
        assert direct.outcomes[0].result == via_ruleset.outcomes[0].result

    def test_check_that_requires_rules(self, retailers):
        with pytest.raises(DataError):
            check_that(retailers)

    def test_non_logical_rule_is_an_error(self):
        # classify() drops this at rule-set build time, so drive confront directly
        df = from_dict({"x": [1.0]})
        rs, _ = new_ruleset([(None, "is.numeric(x)")])
        rs.rules[0].body = expr("x + 1")
        v = confront(df, rs)
        assert v.outcomes[0].error is not None


class TestPatternWarnings:
    """``re`` warns of a suspicious pattern once per process; a rule warns at every use."""

    NESTED = "Possible nested set at position 1"

    def test_every_use_warns(self):
        df = from_dict({"s": ["a", "b"]})
        v = check_that(df, "grepl('[[a]', s)", "grepl('[[a]', s)")
        assert [o.warnings for o in v.outcomes] == [[self.NESTED], [self.NESTED]]

    def test_every_use_raises_under_raise_all(self):
        df = from_dict({"s": ["a", "b"]})
        for _ in range(2):
            with pytest.raises(EvalError, match=self.NESTED):
                check_that(df, "grepl('[[b]', s)", opts={"raise": "all"})

    def test_a_compile_elsewhere_hides_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            re.compile("[[c]")
        (outcome,) = check_that(from_dict({"s": ["c"]}), "grepl('[[c]', s)").outcomes
        assert outcome.warnings == [self.NESTED]

    def test_eval_expr_issues_the_warnings(self):
        df = from_dict({"s": ["a"], "x": [-1.0]})
        for _ in range(2):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                eval_expr(expr("grepl('[[d]', s) | x ^ 0.5 > 0"), df)
            assert [(w.category, str(w.message)) for w in caught] == [
                (FutureWarning, self.NESTED), (RuntimeWarning, "NaNs produced"),
            ]


class TestRuleErrors:
    """Functions and operators given what they cannot take: each is a rule error,
    recorded in the outcome, and raised as an EvalError under ``raise=error``."""

    @pytest.mark.parametrize(
        "rule, message",
        [
            ("is.na(.)", "is.na expects a vector"),
            ("nrow(x) > 0", "nrow expects the dataset '.'"),
            ("is.na(c(x, .))", "c expects vectors"),
            ("is.na(c(x, k = 1))", "c takes no named arguments"),
            ("all(is_unique())", "is_unique expects at least one argument"),
            ("all(is_unique(x, k = 1))", "is_unique takes no named arguments"),
            ("all(is_unique(.))", "is_unique expects column vectors"),
            (". == 1", "cannot compare whole datasets with =="),
            (". %in% x", "cannot apply %in% to a whole dataset"),
            ("x %in% .", "cannot apply %in% to a whole dataset"),
        ],
    )
    def test_message(self, rule, message):
        df = from_dict({"x": [1.0, 2.0]})
        (outcome,) = check_that(df, rule).outcomes
        assert (outcome.result, outcome.error) == (None, message)
        with pytest.raises(EvalError) as caught:
            check_that(df, rule, opts={"raise": "error"})
        assert str(caught.value) == message

    def test_cor_of_a_constant_vector_is_missing_without_a_warning(self):
        # R gives NA too, warning "the standard deviation is zero"
        df = from_dict({"x": [1.0, 2.0, 3.0], "y": [1.0, 1.0, 1.0]})
        (outcome,) = check_that(df, "cor(x, y) > 0").outcomes
        assert (outcome.result, outcome.error, outcome.warnings) == ([None], None, [])


class TestKeyId:
    """A number key cell's id, as R's ``as.character`` writes it: the quick path
    for integers gives what the general formula gives."""

    @pytest.mark.parametrize("value, text", [
        (1.0, "1"), (-0.0, "0"), (30.0, "30"), (2.5, "2.5"), (100000.0, "1e+05"),
        (-100000.0, "-1e+05"), (120000.0, "120000"), (1200000.0, "1200000"),
        (100001.0, "100001"), (123456.0, "123456"), (999999999999999.0, "999999999999999"),
        (1e15, "1e+15"), (1.2345678901234568e17, "1.23456789012346e+17"), (0.0001, "1e-04"),
        (math.inf, "Inf"), (-math.inf, "-Inf"), (math.nan, "NaN"),
    ])
    def test_examples(self, value, text):
        assert engine._key_id(value) == engine._as_character(value) == text

    @settings(derandomize=True, max_examples=2000, database=None)
    @given(st.one_of(
        st.integers(-10**15, 10**15),
        st.builds(lambda m, e: m * 10**e, st.integers(-999, 999), st.integers(0, 16)),
    ))
    def test_the_quick_path_agrees_with_the_formula(self, n):
        assert engine._key_id(float(n)) == engine._as_character(float(n))
