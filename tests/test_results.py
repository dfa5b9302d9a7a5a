import random

import pytest

from checkmate import cli, from_dict
from checkmate.diffs import compare_validations
from checkmate.engine import RuleOutcome, Validation, Value, check_that, confront
from checkmate.errors import DataError
from checkmate.frame import Column, DataFrame
from checkmate.results import (
    ResultMatrix,
    aggregate_results,
    all_pass,
    any_fail,
    collect_errors,
    collect_warnings,
    sort_results,
    summarize,
    to_records,
    values,
)
from checkmate.rules import new_ruleset, subset


@pytest.fixture
def sample_validation(retailers, retailer_rules):
    return confront(retailers, retailer_rules, key="id")


class TestSummarize:
    def test_row_per_rule(self, sample_validation):
        rows = summarize(sample_validation)
        assert [r.name for r in rows] == ["st", "to", "or", "st.cs", "bl", "mn"]

    def test_counts_partition_items(self, sample_validation):
        for row in summarize(sample_validation):
            assert row.passes + row.fails + row.nNA == row.items
            assert not row.error and not row.warning

    def test_errored_rule_has_zero_items(self, retailers):
        v = check_that(retailers, "employees >= 0")
        row = summarize(v)[0]
        assert row.error is True
        assert (row.items, row.passes, row.fails, row.nNA) == (0, 0, 0, 0)


class TestAllPassAnyFail:
    def make(self, *cell_lists):
        outcomes = [
            RuleOutcome(f"V{i}", "x", result=list(cells))
            for i, cells in enumerate(cell_lists, start=1)
        ]
        return Validation(outcomes, n_records=max(map(len, cell_lists)))

    def test_all_true(self):
        v = self.make([True, True], [True])
        assert all_pass(v) is True
        assert any_fail(v) is False

    def test_one_false(self):
        v = self.make([True, False])
        assert all_pass(v) is False
        assert any_fail(v) is True

    def test_true_and_na_is_na(self):
        v = self.make([True, None])
        assert all_pass(v) is None
        assert any_fail(v) is None

    def test_na_rm_drops_missing(self):
        v = self.make([True, None])
        assert all_pass(v, na_rm=True) is True
        assert any_fail(v, na_rm=True) is False

    def test_false_beats_na(self):
        v = self.make([False, None])
        assert all_pass(v) is False
        assert any_fail(v) is True

    def test_duality(self):
        rng = random.Random(99)
        for _ in range(200):
            cells = [rng.choice([True, False, None]) for _ in range(rng.randint(1, 6))]
            v = self.make(cells)
            ap, af = all_pass(v), any_fail(v)
            # any_fail is the Kleene negation of all_pass
            assert af == (None if ap is None else not ap)


class TestValues:
    def test_mixed_lengths_keyed_by_length(self, sample_validation):
        out = values(sample_validation)
        assert set(out) == {60, 1}
        assert out[60].rule_names == ["st", "to", "or", "st.cs", "bl"]
        assert out[1].rule_names == ["mn"]
        assert out[60].n_rows == 60

    def test_single_length_simplifies_to_matrix(self, retailers, retailer_rules):
        record_rules = subset(retailer_rules, ["st", "to", "or"])
        out = values(confront(retailers, record_rules))
        assert isinstance(out, ResultMatrix)
        assert out.rule_names == ["st", "to", "or"]
        assert len(out.rows) == 60

    def test_simplify_off_always_dict(self, retailers, retailer_rules):
        record_rules = subset(retailer_rules, ["st"])
        out = values(confront(retailers, record_rules), simplify=False)
        assert set(out) == {60}

    def test_matrix_columns_match_outcomes(self, retailers, retailer_rules):
        record_rules = subset(retailer_rules, ["st", "bl"])
        v = confront(retailers, record_rules)
        matrix = values(v)
        for j, outcome in enumerate(v.outcomes):
            assert [row[j] for row in matrix.rows] == outcome.result

    def test_errored_rules_are_skipped(self, retailers):
        v = check_that(retailers, "staff >= 0", "employees >= 0")
        out = values(v)
        assert out.rule_names == ["V1"]


class TestAggregate:
    def test_by_rule_counts(self, sample_validation):
        rows = {r.key: r for r in aggregate_results(sample_validation)}
        bl = rows["bl"]
        assert (bl.npass, bl.nfail, bl.nNA) == (19, 4, 37)
        assert abs(bl.rel_pass - 19 / 60) < 1e-12
        assert abs(bl.rel_fail - 4 / 60) < 1e-12
        assert abs(bl.rel_na - 37 / 60) < 1e-12

    def test_by_record_counts(self, sample_validation):
        rows = aggregate_results(sample_validation, by="record")
        assert len(rows) == 60
        assert rows[0].key == "RET01"
        # only the five record-level rules contribute
        assert all(r.total == 5 for r in rows)
        total_pass = sum(r.npass for r in rows)
        assert total_pass == 54 + 56 + 23 + 50 + 19

    def test_by_record_without_key_uses_indices(self, retailers, retailer_rules):
        rows = aggregate_results(confront(retailers, retailer_rules), by="record")
        assert rows[0].key == "1" and rows[-1].key == "60"

    def test_unknown_grouping(self, sample_validation):
        with pytest.raises(DataError):
            aggregate_results(sample_validation, by="cell")

    def test_record_aggregation_needs_aligned_results(self, retailers, retailer_rules):
        scalar_only = subset(retailer_rules, ["mn"])
        v = confront(retailers, scalar_only)
        with pytest.raises(DataError):
            aggregate_results(v, by="record")


class TestSort:
    def test_ascending_by_passes(self, retailers):
        v = check_that(
            retailers,
            "turnover >= 0",
            "other.rev >= 0",
            "turnover + other.rev == total.rev",
        )
        rows = sort_results(v)
        assert [r.key for r in rows] == ["V3", "V2", "V1"]
        assert [r.npass for r in rows] == [19, 23, 56]

    def test_decreasing(self, retailers):
        v = check_that(retailers, "turnover >= 0", "other.rev >= 0")
        rows = sort_results(v, decreasing=True)
        assert [r.npass for r in rows] == [56, 23]

    def test_ties_keep_input_order(self):
        df = from_dict({"x": [1.0], "y": [1.0]})
        v = check_that(df, "x > 0", "y > 0")
        assert [r.key for r in sort_results(v)] == ["V1", "V2"]


class TestToRecords:
    def test_row_count(self, sample_validation):
        rows = to_records(sample_validation)
        # five record-aligned rules at 60 items each, plus one scalar rule
        assert len(rows) == 5 * 60 + 1

    def test_record_rows_carry_key(self, sample_validation):
        rows = to_records(sample_validation)
        assert rows[0].id == "RET01" and rows[0].name == "st"
        scalar = [r for r in rows if r.name == "mn"]
        assert len(scalar) == 1 and scalar[0].id is None

    def test_aligned_rules_are_the_keyed_ones(self, sample_validation):
        v = sample_validation
        keyed = {r.name for r in to_records(v) if r.id is not None}
        assert keyed == {o.name for o in v.outcomes if v.aligned(o.result)}
        assert len(keyed) == 5
        unkeyed = Validation(v.outcomes, n_records=v.n_records)
        assert not any(unkeyed.aligned(o.result) for o in v.outcomes)

    def test_values_round_trip(self, sample_validation):
        rows = to_records(sample_validation)
        st_values = [r.value for r in rows if r.name == "st"]
        outcome = sample_validation.outcomes[0]
        assert st_values == outcome.result


class TestOutcomeCells:
    """An outcome keeps one byte, 0 or 1, per item; what reads its cells gives
    booleans. ``type(...) is bool`` is checked, since ``1 == True``."""

    @pytest.fixture
    def validation(self):
        df = from_dict({"k": ["a", "b", "c"], "x": [1.0, None, -1.0]})
        rs, _ = new_ruleset([(None, "x >= 0"), (None, "x > 5"), (None, "nrow(.) == 3")])
        return confront(df, rs, key="k")

    def test_values_are_one_byte_per_item(self, validation):
        for o in validation.outcomes:
            assert type(o.values) is bytes and len(o.values) == o.tally()[0]
            assert set(o.values) <= {0, 1}
        built = RuleOutcome("r", "x", result=[True, None, False])
        assert (built.values, built.na) == (b"\x01\x00\x00", (1,))

    def test_every_reader_gives_booleans(self, validation):
        def cells_are_tri_state(cells):
            return all(c is None or type(c) is bool for c in cells)

        results = [o.result for o in validation.outcomes]
        assert results == [[True, None, False], [False, None, False], [True]]
        assert all(map(cells_are_tri_state, results))
        matrices = values(validation)
        assert all(cells_are_tri_state(row) for m in matrices.values() for row in m.rows)
        assert cells_are_tri_state(r.value for r in to_records(validation))
        rows = aggregate_results(validation, by="record")
        assert [(r.key, r.npass, r.nfail, r.nNA) for r in rows] == [
            ("a", 1, 1, 0), ("b", 0, 0, 2), ("c", 0, 2, 0)
        ]
        assert all(type(n) is int for r in rows for n in (r.npass, r.nfail, r.nNA))


class TestCollect:
    def test_errors(self, retailers):
        v = check_that(retailers, "staff >= 0", "employees >= 0")
        errors = collect_errors(v)
        assert len(errors) == 1
        assert errors[0].startswith("V2: ")
        assert "employees" in errors[0]

    def test_no_errors(self, sample_validation):
        assert collect_errors(sample_validation) == []

    def test_warnings(self):
        v = Validation(
            [RuleOutcome("V1", "x", result=[True], warnings=["watch out"])],
            n_records=1,
        )
        assert collect_warnings(v) == ["V1: watch out"]

    def test_no_warnings(self, sample_validation):
        assert collect_warnings(sample_validation) == []


class TestTrueAtAMissingCell:
    """A logical vector may hold TRUE at a missing cell (a user-built column or
    reference vector, or ``&``/``|`` over one): every count sees an NA there."""

    @pytest.fixture
    def df(self):
        return DataFrame([Column("b", "boolean", [True, True], na=(1,))])

    @pytest.fixture
    def rs(self):
        rs, _ = new_ruleset([(None, s) for s in ("b & TRUE", "b | FALSE", "r & TRUE", "r | FALSE")])
        return rs

    def test_one_pass_and_one_na_everywhere(self, df, rs):
        v = confront(df, rs, ref={"r": Value("logical", [True, True], (1,))})
        assert [o.result for o in v.outcomes] == [[True, None]] * 4
        assert [o.tally() for o in v.outcomes] == [(2, 1, 0, 1)] * 4
        assert [(r.items, r.passes, r.fails, r.nNA) for r in summarize(v)] == [(2, 1, 0, 1)] * 4
        assert [(r.npass, r.nfail, r.nNA) for r in aggregate_results(v, "record")] == [
            (4, 0, 0), (0, 0, 4)
        ]
        assert all_pass(v) is None and all_pass(v, na_rm=True) is True
        assert cli._validation_exit_code(v, strict=False) == 0
        assert cli._validation_exit_code(v, strict=True) == 0
        assert "With fails    : 0" in cli.banner(v)
        table = compare_validations(subset(rs, [1, 2]), {"v1": df, "v2": df})
        col = table.column("v2")
        assert (col["validations"], col["satisfied"], col["violated"], col["unverifiable"]) == (
            4, 2, 0, 2
        )
        assert col["still_satisfied"] == 2 and col["still_unverifiable"] == 2

    @pytest.mark.parametrize("na_value", [True, False])
    def test_na_value_settles_the_missing_cell(self, df, rs, na_value):
        v = confront(df, rs, ref={"r": Value("logical", [True, True], (1,))},
                     opts={"na.value": na_value})
        assert [o.result for o in v.outcomes] == [[True, na_value]] * 4
        passes = 1 + na_value
        assert [o.tally() for o in v.outcomes] == [(2, passes, 2 - passes, 0)] * 4
        assert all_pass(v) is na_value
