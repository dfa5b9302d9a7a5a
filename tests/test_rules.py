import gc
import itertools
from datetime import datetime

import pytest

from checkmate import confront, from_dict
from checkmate import rules as rules_mod
from checkmate.errors import OptionError, ParseError, RuleSetError
from checkmate.rules import (
    OptionSet,
    concat,
    get_metadata,
    global_options,
    meta_put,
    new_ruleset,
    resolve_options,
    set_metadata,
    set_options,
    subset,
    variables_matrix,
)

NOW = datetime(2020, 1, 2, 3, 4, 5)


def make(entries):
    rs, warnings = new_ruleset(entries, now=NOW)
    return rs, warnings


class TestNewRuleset:
    def test_invalid_entry_is_dropped_with_warning(self):
        rs, warnings = make([("st", "staff >= 0"), (None, "mean(x)")])
        assert rs.names() == ["st"]
        assert len(warnings) == 1
        assert "[002] mean(x)" in warnings[0]

    def test_auto_names(self):
        rs, _ = make([(None, "x>0"), (None, "y>0")])
        assert rs.names() == ["V1", "V2"]

    def test_named_directive_is_absorbed(self):
        rs, warnings = make([("G", "G := var_group(x,y)")])
        assert len(rs) == 0
        assert not warnings

    def test_group_expansion_names(self):
        rs, _ = make([(None, "G := var_group(x,y)"), ("rng", "G >= 0")])
        assert rs.names() == ["rng.1", "rng.2"]
        assert [r.source() for r in rs.rules] == ["x >= 0", "y >= 0"]

    def test_group_expansion_inside_functional_dependency(self):
        rs, _ = make([(None, "G := var_group(a, b)"), ("fd", "G ~ z")])
        assert rs.names() == ["fd.1", "fd.2"]
        assert [r.source() for r in rs.rules] == ["a ~ z", "b ~ z"]
        df = from_dict({"a": [1.0, 1.0, 2.0], "b": [1.0, 2.0, 2.0], "z": [1.0, 2.0, 3.0]})
        v = confront(df, rs)
        assert [o.error for o in v.outcomes] == [None, None]
        assert [o.result for o in v.outcomes] == [[True, False, True], [True, True, False]]

    def test_macro_substitution_applies_to_later_rules(self):
        rs, _ = make(
            [
                (None, 'fraction := mean(Species == "versicolor")'),
                ("vc_upr", "fraction >= 0.25"),
                ("vc_lwr", "fraction <= 0.50"),
            ]
        )
        assert [r.source() for r in rs.rules] == [
            'mean(Species == "versicolor") >= 0.25',
            'mean(Species == "versicolor") <= 0.5',
        ]

    @pytest.mark.parametrize(
        "entries, expected",
        [
            # a macro whose body is not a name stays a plain name in a functional
            # dependency, so the groups its body names do not count
            (["G := var_group(a, b)", "m := G + 1", "fd: m ~ z"], [("fd", "m ~ z")]),
            (
                ["G := var_group(a, b)", "m := G * 2", "r: m > 0"],
                [("r.1", "a * 2 > 0"), ("r.2", "b * 2 > 0")],
            ),
            (
                ["G := var_group(a, b)", "H := var_group(c, d)", "m := H + 1", "r: m * G > 0"],
                [
                    ("r.1", "(c + 1) * a > 0"),
                    ("r.2", "(c + 1) * b > 0"),
                    ("r.3", "(d + 1) * a > 0"),
                    ("r.4", "(d + 1) * b > 0"),
                ],
            ),
            # a group defined after the macro that names it still expands
            (
                ["m := G * 2", "G := var_group(a, b)", "r: m > 0"],
                [("r.1", "a * 2 > 0"), ("r.2", "b * 2 > 0")],
            ),
            (
                ["G := var_group(a, b)", "m := x", "fd: m + G ~ z"],
                [("fd.1", "x + a ~ z"), ("fd.2", "x + b ~ z")],
            ),
        ],
        ids=["fd-keeps-macro", "group-in-macro", "groups-in-and-out", "group-after", "fd-rename"],
    )
    def test_macros_and_groups_together(self, entries, expected):
        pairs = [entry.split(": ") if ": " in entry else (None, entry) for entry in entries]
        rs, _ = make(pairs)
        assert [(r.name, r.source()) for r in rs.rules] == expected

    def test_loading_leaves_no_reference_cycles(self):
        entries = [
            (None, "G := var_group(a, b)"),
            (None, "m := G * 2 + x"),
            (None, "n := if (m > 0) y > 0"),
            ("r", "m > 0 & !n"),
            ("fd", "m + G ~ z"),
            ("plain", "x >= 0"),
        ]
        make(entries)  # imports anything loading imports on first use
        gc.disable()
        try:
            gc.collect()
            make(entries)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_parse_error_aborts(self):
        with pytest.raises(ParseError):
            make([(None, "x >")])

    def test_default_metadata(self):
        rs, _ = make([("st", "staff >= 0")])
        rule = rs.rules[0]
        assert rule.meta == {"language": "dsl/1", "severity": "error"}
        assert rule.origin == "command-line"
        assert rule.created == NOW
        assert rule.label == "" and rule.description == ""


class TestSubset:
    def test_by_index(self):
        rs, _ = make([("minht", "height >= 40"), ("maxht", "height <= 95")])
        sub = subset(rs, [2])
        assert sub.names() == ["maxht"]
        assert sub.rules[0].source() == "height <= 95"

    def test_single_rule_keeps_metadata(self):
        rs, _ = make([("minht", "height >= 40"), ("maxht", "height <= 95")])
        rule = subset(rs, [1]).rules[0]
        assert rule.name == "minht"
        assert rule.origin == "command-line"
        assert rule.created == NOW
        assert set(rule.meta) == {"language", "severity"}

    def test_empty_selector(self):
        rs, _ = make([("a", "x > 0")])
        assert len(subset(rs, [])) == 0

    def test_all_indices_is_identity(self):
        rs, _ = make([("a", "x > 0"), ("b", "y > 0")])
        again = subset(rs, [1, 2])
        assert again.names() == rs.names()
        assert [r.source() for r in again.rules] == [r.source() for r in rs.rules]

    def test_unknown_name(self):
        rs, _ = make([("a", "x > 0")])
        with pytest.raises(RuleSetError):
            subset(rs, ["nope"])

    def test_index_out_of_range(self):
        rs, _ = make([("a", "x > 0")])
        with pytest.raises(RuleSetError):
            subset(rs, [2])


class TestMetadata:
    def test_label_assignment(self):
        rs, _ = make([("minht", "height >= 40"), ("maxht", "height <= 95")])
        rs2 = set_metadata(rs, "label", ["least height", "largest height"])
        assert get_metadata(rs2, "label") == ["least height", "largest height"]

    def test_set_get_round_trip(self):
        rs, _ = make([("a", "x > 0"), ("b", "y > 0")])
        values = ["one", "two"]
        assert get_metadata(set_metadata(rs, "description", values), "description") == values

    def test_duplicate_names_rejected(self):
        rs, _ = make([("a", "x > 0"), ("b", "y > 0")])
        with pytest.raises(RuleSetError):
            set_metadata(rs, "name", ["a", "a"])

    def test_length_mismatch(self):
        rs, _ = make([("a", "x > 0")])
        with pytest.raises(RuleSetError):
            set_metadata(rs, "label", ["x", "y"])

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda rs: set_metadata(rs, "bogus", ["x"]), "unknown metadata field 'bogus'"),
            (lambda rs: get_metadata(rs, "bogus"), "unknown metadata field 'bogus'"),
            (lambda rs: meta_put(rs, "k", [1, 2]), "expected 1 values, got 2"),
        ],
        ids=["set_metadata", "get_metadata", "meta_put"],
    )
    def test_error_message(self, call, message):
        rs, _ = make([("a", "x > 0")])
        with pytest.raises(RuleSetError) as caught:
            call(rs)
        assert str(caught.value) == message

    def test_meta_put(self):
        rs, _ = make([("a", "x > 0"), ("b", "y > 0")])
        rs2 = meta_put(rs, "severity", ["warning", "error"])
        assert [r.meta["severity"] for r in rs2.rules] == ["warning", "error"]

    def test_meta_put_empty(self):
        rs, _ = make([])
        assert len(meta_put(rs, "k", [])) == 0

    def test_meta_survives_subset(self):
        rs, _ = make([("a", "x > 0"), ("b", "y > 0")])
        rs2 = meta_put(rs, "team", ["t1", "t2"])
        assert subset(rs2, [2]).rules[0].meta["team"] == "t2"


class TestVariablesMatrix:
    def test_shared_variable(self):
        rs, _ = make([("minht", "height >= 40"), ("maxht", "height <= 95")])
        names, matrix = variables_matrix(rs)
        assert names == ["height"]
        assert matrix == [[True], [True]]

    def test_coverage_gap(self):
        rs, _ = make([("minht", "height >= 40")])
        names, _ = variables_matrix(rs)
        assert "weight" not in names

    def test_empty(self):
        rs, _ = make([])
        assert variables_matrix(rs) == ([], [])

    def test_rows_reproduce_rule_variables(self):
        rs, _ = make([("a", "x + y > 0"), ("b", "y < z")])
        names, matrix = variables_matrix(rs)
        for rule, row in zip(rs.rules, matrix):
            assert [n for n, used in zip(names, row) if used] == sorted(
                rule.variables(), key=names.index
            )


class TestConcat:
    def test_identity_with_empty(self):
        rs, _ = make([("a", "x > 0")])
        empty, _ = make([])
        assert concat(rs, empty).names() == ["a"]

    def test_lengths_add(self):
        a, _ = make([(None, "x > 0"), (None, "y > 0")])
        b, _ = make([("q", "z > 0")])
        assert len(concat(a, b)) == len(a) + len(b)

    def test_collision_suffix(self):
        a, _ = make([(None, "x > 0")])
        b, _ = make([(None, "y > 0")])
        assert concat(a, b).names() == ["V1", "V1.1"]

    def test_local_options_of_first_win(self):
        a, _ = make([("a", "x > 0")])
        b, _ = make([("b", "y > 0")])
        set_options(a, **{"lin.eq.eps": 0.0})
        set_options(b, **{"lin.eq.eps": 0.5})
        assert concat(a, b).local_options["lin.eq.eps"] == 0.0


class TestOptions:
    def test_defaults(self):
        opts = OptionSet()
        assert opts.na_value == "NA"
        assert opts.raise_ == "none"
        assert opts.lin_eq_eps == 1e-8
        assert opts.lin_ineq_eps == 1e-8
        # a field and a default per OPTIONS entry
        table = rules_mod.OPTIONS.values()
        assert opts._fields == tuple(opt.field for opt in table)
        assert [getattr(opts, opt.field) for opt in table] == [opt.default for opt in table]

    def test_local_options_flag(self):
        rs, _ = make([("a", "x == y")])
        assert rs.local_options is None
        set_options(rs, **{"lin.eq.eps": 0.0, "lin.ineq.eps": 0.0})
        assert rs.local_options is not None
        resolved = rs.resolved_options()
        assert resolved.lin_eq_eps == 0.0 and resolved.lin_ineq_eps == 0.0

    def test_global_affects_rulesets_without_local(self):
        rs, _ = make([("a", "x > 0")])
        set_options(raise_="error")
        assert rs.resolved_options().raise_ == "error"

    def test_local_snapshot_is_immune_to_global_changes(self):
        rs, _ = make([("a", "x > 0")])
        set_options(rs, **{"lin.eq.eps": 0.0})
        set_options(raise_="error")
        assert rs.resolved_options().raise_ == "none"

    def test_invalid_value(self):
        with pytest.raises(OptionError):
            set_options(na_value="MAYBE")

    @pytest.mark.parametrize("value", [1, 0, 1.0])
    def test_na_value_numbers_are_not_logical(self, value):
        # a number would reach the results as a cell that is neither pass nor fail
        with pytest.raises(OptionError):
            set_options(na_value=value)

    def test_unknown_option(self):
        with pytest.raises(OptionError):
            resolve_options({"frobnicate": 1})

    def test_shadowing_all_presence_patterns(self):
        # call beats local beats global, independently per option
        names = ["na.value", "raise", "lin.eq.eps", "lin.ineq.eps"]
        samples = {
            "na.value": (False, True, "NA"),
            "raise": ("error", "all", "none"),
            "lin.eq.eps": (0.5, 0.25, 1e-8),
            "lin.ineq.eps": (0.125, 0.0625, 1e-8),
        }
        defaults = OptionSet()
        for pattern in itertools.product(range(3), repeat=4):
            layers = ({}, {}, {})  # global, local, call
            for name, presence in zip(names, pattern):
                if presence >= 1:
                    layers[0][name] = samples[name][0]
                if presence >= 2:
                    layers[1][name] = samples[name][1]
            resolved = resolve_options(*layers)
            for name, presence in zip(names, pattern):
                attr = {"na.value": "na_value", "raise": "raise_",
                        "lin.eq.eps": "lin_eq_eps", "lin.ineq.eps": "lin_ineq_eps"}[name]
                if presence == 0:
                    assert getattr(resolved, attr) == getattr(defaults, attr)
                else:
                    assert getattr(resolved, attr) == samples[name][presence - 1]

    def test_global_snapshot_isolated(self):
        set_options(**{"lin.eq.eps": 0.5})
        snap = global_options.snapshot()
        snap["lin.eq.eps"] = 99
        assert global_options.snapshot()["lin.eq.eps"] == 0.5
