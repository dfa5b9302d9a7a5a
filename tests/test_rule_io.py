import os
import textwrap
from datetime import datetime

import pytest

from checkmate import rule_io
from checkmate.errors import CycleError, RuleIOError
from checkmate.rules import new_ruleset, set_metadata, set_options

NOW = datetime(2021, 6, 7, 8, 9, 10)

GENERAL_RULES_YML = textwrap.dedent(
    """\
    ---
    options:
      raise: none
      lin.eq.eps: 1.0e-08
      lin.ineq.eps: 1.0e-08
    ---
    rules:
    - expr: staff >= 0
      name: 'G1'
      label: 'nonnegative staff'
      description: |
        'Staff numbers cannot be negative'
      created: 2018-06-05 14:44:06
      origin:
      meta: []
    - expr: turnover >= 0
      name: 'G2'
      label: 'nonnegative income'
      description: |
        'Income cannot be negative (unlike in the
         definition of the tax office)'
      created: 2018-06-05 14:44:06
      origin:
      meta: []
    - expr: profit + total.costs == total.rev
      name: 'G3'
      label: 'Balance check'
      description: |
        'Economic profit is defined as the
         total revenue diminished with the
         total costs.'
      created: 2018-06-05 14:44:06
      origin:
      meta: []
    """
)

RULES_TXT = textwrap.dedent(
    """\
    ---
    include:
      - general_rules.yml
    ---

    # a reasonable profit
    profit/total.rev <= 0.6

    # We expect that the supermarket sector
    # is profitable on average
    mean(profit) >= 1
    """
)


@pytest.fixture
def two_file_setup(tmp_path, monkeypatch):
    (tmp_path / "general_rules.yml").write_text(GENERAL_RULES_YML)
    (tmp_path / "rules.txt").write_text(RULES_TXT)
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestTextInclude:
    def test_rule_order(self, two_file_setup):
        rs, _ = rule_io.read_rules("rules.txt", now=NOW)
        assert rs.names() == ["G1", "G2", "G3", "V1", "V2"]

    def test_origin_map(self, two_file_setup):
        rs, _ = rule_io.read_rules("rules.txt", now=NOW)
        origins = {r.name: r.origin for r in rs.rules}
        assert origins == {
            "G1": "./general_rules.yml",
            "G2": "./general_rules.yml",
            "G3": "./general_rules.yml",
            "V1": "rules.txt",
            "V2": "rules.txt",
        }

    def test_comment_block_becomes_description(self, two_file_setup):
        rs, _ = rule_io.read_rules("rules.txt", now=NOW)
        v2 = rs.rules[4]
        assert v2.description == (
            "We expect that the supermarket sector\nis profitable on average"
        )

    def test_included_options_become_local_options(self, two_file_setup):
        rs, _ = rule_io.read_rules("rules.txt", now=NOW)
        assert rs.local_options["lin.eq.eps"] == 1e-8

    def test_expressions(self, two_file_setup):
        rs, _ = rule_io.read_rules("rules.txt", now=NOW)
        assert rs.rules[3].source() == "profit/total.rev <= 0.6"

    def test_name_prefix(self, tmp_path):
        p = tmp_path / "named.txt"
        p.write_text("V01: staff >= 0\n")
        rs, _ = rule_io.read_rules(str(p), now=NOW)
        assert rs.names() == ["V01"]

    def test_macro_in_text_file(self, tmp_path):
        p = tmp_path / "macros.txt"
        p.write_text("med := median(x)\nupper: x <= med + 10\n")
        rs, _ = rule_io.read_rules(str(p), now=NOW)
        assert rs.rules[0].source() == "x <= median(x) + 10"

    def test_duplicate_include_loaded_once(self, tmp_path):
        (tmp_path / "base.txt").write_text("b: x > 0\n")
        (tmp_path / "mid.txt").write_text("---\ninclude: [base.txt]\n---\nm: y > 0\n")
        (tmp_path / "top.txt").write_text(
            "---\ninclude: [base.txt, mid.txt]\n---\nt: z > 0\n"
        )
        rs, _ = rule_io.read_rules(str(tmp_path / "top.txt"), now=NOW)
        assert rs.names() == ["b", "m", "t"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(RuleIOError):
            rule_io.read_rules(str(tmp_path / "nope.txt"))

    def test_parse_error_reports_file_and_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("x > 0\ny >\n")
        with pytest.raises(RuleIOError) as exc:
            rule_io.read_rules(str(p))
        assert "bad.txt:2" in str(exc.value)


class TestCycles:
    def test_two_file_cycle(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a.txt").write_text("---\ninclude: [b.txt]\n---\nx > 0\n")
        (tmp_path / "b.txt").write_text("---\ninclude: [a.txt]\n---\ny > 0\n")
        with pytest.raises(CycleError) as exc:
            rule_io.read_rules("a.txt")
        message = str(exc.value)
        assert "a.txt" in message and "b.txt" in message

    def test_three_file_cycle(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a.txt").write_text("---\ninclude: [b.txt]\n---\nx > 0\n")
        (tmp_path / "b.txt").write_text("---\ninclude: [c.txt]\n---\ny > 0\n")
        (tmp_path / "c.txt").write_text("---\ninclude: [a.txt]\n---\nz > 0\n")
        with pytest.raises(CycleError) as exc:
            rule_io.read_rules("a.txt")
        for name in ("a.txt", "b.txt", "c.txt"):
            assert name in str(exc.value)

    def test_self_include(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a.txt").write_text("---\ninclude: [a.txt]\n---\nx > 0\n")
        with pytest.raises(CycleError):
            rule_io.read_rules("a.txt")


class TestYaml:
    def test_fig3_labels_and_options(self, tmp_path):
        p = tmp_path / "general_rules.yml"
        p.write_text(GENERAL_RULES_YML)
        rs, _ = rule_io.read_rules(str(p), now=NOW)
        assert rs.names() == ["G1", "G2", "G3"]
        assert [r.label for r in rs.rules] == [
            "nonnegative staff",
            "nonnegative income",
            "Balance check",
        ]
        assert rs.local_options["lin.eq.eps"] == 1e-8
        assert rs.local_options["lin.ineq.eps"] == 1e-8
        assert rs.local_options["raise"] == "none"
        assert rs.rules[0].created == datetime(2018, 6, 5, 14, 44, 6)

    def test_entry_with_only_expr(self, tmp_path):
        p = tmp_path / "min.yml"
        p.write_text("rules:\n- expr: x > 0\n")
        rs, _ = rule_io.read_rules(str(p), now=NOW)
        rule = rs.rules[0]
        assert rule.name == "V1"
        assert rule.label == ""
        assert rule.origin == str(p)
        assert rule.created == NOW

    def test_missing_expr(self, tmp_path):
        p = tmp_path / "bad.yml"
        p.write_text("rules:\n- name: broken\n")
        with pytest.raises(RuleIOError) as exc:
            rule_io.read_rules(str(p))
        assert "entry 1" in str(exc.value)

    def test_unknown_option(self, tmp_path):
        p = tmp_path / "bad.yml"
        p.write_text("options:\n  wat: 1\nrules:\n- expr: x > 0\n")
        with pytest.raises(RuleIOError):
            rule_io.read_rules(str(p))

    def test_bad_created_names_file_and_entry(self, tmp_path):
        p = tmp_path / "bad.yml"
        p.write_text("rules:\n- expr: x > 0\n- expr: y > 0\n  created: yesterday\n")
        with pytest.raises(RuleIOError) as exc:
            rule_io.read_rules(str(p))
        assert "bad.yml: rule entry 2" in str(exc.value)

    def test_yaml_syntax_error(self, tmp_path):
        p = tmp_path / "bad.yml"
        p.write_text("rules: [unclosed\n")
        with pytest.raises(RuleIOError):
            rule_io.read_rules(str(p))


class TestExportYaml:
    def test_round_trip_equal(self, tmp_path):
        src = tmp_path / "general_rules.yml"
        src.write_text(GENERAL_RULES_YML)
        rs, _ = rule_io.read_rules(str(src), now=NOW)
        out = tmp_path / "exported.yml"
        rule_io.export_yaml(rs, str(out))
        rs2, _ = rule_io.read_rules(str(out), now=NOW)
        assert rs2.names() == rs.names()
        assert [r.source() for r in rs2.rules] == [r.source() for r in rs.rules]
        assert [r.label for r in rs2.rules] == [r.label for r in rs.rules]
        assert [r.created for r in rs2.rules] == [r.created for r in rs.rules]
        assert rs2.local_options == rs.local_options

    def test_export_import_export_is_byte_stable(self, tmp_path):
        src = tmp_path / "general_rules.yml"
        src.write_text(GENERAL_RULES_YML)
        rs, _ = rule_io.read_rules(str(src), now=NOW)
        first = tmp_path / "one.yml"
        second = tmp_path / "two.yml"
        rule_io.export_yaml(rs, str(first))
        rs2, _ = rule_io.read_rules(str(first), now=NOW)
        rule_io.export_yaml(rs2, str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_empty_ruleset(self, tmp_path):
        rs, _ = new_ruleset([], now=NOW)
        out = tmp_path / "empty.yml"
        rule_io.export_yaml(rs, str(out))
        assert "rules: []" in out.read_text()

    def test_no_options_key_without_local_options(self, tmp_path):
        rs, _ = new_ruleset([("a", "x > 0")], now=NOW)
        out = tmp_path / "plain.yml"
        rule_io.export_yaml(rs, str(out))
        assert "options:" not in out.read_text()


class TestTable:
    def test_round_trip(self):
        rs, _ = new_ruleset([("a", "x > 0"), ("b", "y <= 1")], now=NOW)
        rs = set_metadata(rs, "label", ["first", "second"])
        rows = rule_io.rules_to_table(rs)
        rs2 = rule_io.table_to_rules(rows, now=NOW)
        assert rs2.names() == ["a", "b"]
        assert [r.source() for r in rs2.rules] == ["x > 0", "y <= 1"]
        assert [r.label for r in rs2.rules] == ["first", "second"]

    def test_options_are_lost(self):
        rs, _ = new_ruleset([("a", "x == y")], now=NOW)
        set_options(rs, **{"lin.eq.eps": 0.0})
        rs2 = rule_io.table_to_rules(rule_io.rules_to_table(rs), now=NOW)
        assert rs2.local_options is None

    def test_empty_table(self):
        assert len(rule_io.table_to_rules([])) == 0

    def test_bad_row_reports_index(self):
        with pytest.raises(RuleIOError) as exc:
            rule_io.table_to_rules([{"name": "a", "rule": "x >"}])
        assert "row 1" in str(exc.value)
