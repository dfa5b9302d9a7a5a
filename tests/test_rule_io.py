import ast
import json
import os
import re
import tempfile
import textwrap
from datetime import datetime

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from checkmate import dsl, rule_io
from checkmate.errors import CycleError, RuleIOError
from checkmate.rules import (
    DEFAULT_META, Rule, RuleSet, new_ruleset, set_metadata, set_options,
)

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

    def test_byte_order_mark_before_a_rule_line(self, tmp_path):
        p = tmp_path / "bom.txt"
        p.write_bytes(b"\xef\xbb\xbfr1: x > 0\ny >\n")
        with pytest.raises(RuleIOError) as exc:
            rule_io.read_rules(str(p))
        # the line numbers do not move
        assert str(exc.value).startswith(f"{p}:2: ")
        p.write_bytes(b"\xef\xbb\xbfr1: x > 0\n")
        rs, _ = rule_io.read_rules(str(p), now=NOW)
        assert [(r.name, r.source()) for r in rs.rules] == [("r1", "x > 0")]

    def test_byte_order_mark_before_front_matter(self, tmp_path):
        p = tmp_path / "bom.txt"
        p.write_bytes(b"\xef\xbb\xbf---\noptions:\n  lin.eq.eps: 0.5\n---\nr1: x == 0\n")
        rs, _ = rule_io.read_rules(str(p), now=NOW)
        assert rs.names() == ["r1"]
        assert rs.local_options == {"lin.eq.eps": 0.5}

    def test_byte_order_mark_before_yaml(self, tmp_path):
        p = tmp_path / "bom.yml"
        p.write_bytes(b"\xef\xbb\xbfrules:\n- expr: x > 0\n  name: r1\n")
        rs, _ = rule_io.read_rules(str(p), now=NOW)
        assert [(r.name, r.source()) for r in rs.rules] == [("r1", "x > 0")]


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


@pytest.mark.parametrize(
    "file, text, message",
    [
        ("r.txt", "---\nbogus: 1\n---\nx > 0\n", "unknown front matter keys ['bogus']"),
        ("r.yml", "- expr: x > 0\n", "expected a mapping at the top level"),
        ("r.yml", "rules: [5]\n", "rule entry 1 is not a mapping"),
    ],
)
def test_rule_file_error_message(tmp_path, file, text, message):
    path = tmp_path / file
    path.write_text(text)
    with pytest.raises(RuleIOError) as caught:
        rule_io.read_rules(str(path))
    assert str(caught.value) == f"{path}: {message}"


def test_table_row_without_a_rule_error_message():
    with pytest.raises(RuleIOError) as caught:
        rule_io.table_to_rules([{"name": "a"}])
    assert str(caught.value) == "row 1: missing 'rule' column"


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

    @pytest.mark.parametrize(
        "name, text",
        [("r.yml", "options: {lin.eq.eps: 1e-6, na.value: 'TRUE'}\nrules:\n- expr: x > 0\n"),
         ("r.txt", "---\noptions: {lin.eq.eps: 1e-6, na.value: 'TRUE'}\n---\nx > 0\n")],
        ids=["yaml", "front-matter"],
    )
    def test_option_text_is_read_as_set_reads_it(self, tmp_path, name, text):
        # YAML 1.1 reads 1e-6 as a string
        p = tmp_path / name
        p.write_text(text)
        rs, _ = rule_io.read_rules(str(p))
        assert rs.local_options == {"lin.eq.eps": 1e-06, "na.value": True}

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

    @pytest.mark.parametrize(
        "text, key",
        [("rules:\n- expr: x > 0\n---\nrules:\n- expr: y > 0\n", "rules"),
         ("options: {raise: all}\n---\noptions: {lin.eq.eps: 0.5}\nrules:\n- expr: x > 0\n",
          "options")],
        ids=["rules", "options"],
    )
    def test_key_in_two_documents(self, tmp_path, text, key):
        # the later document would otherwise replace the earlier one's value
        p = tmp_path / "two.yml"
        p.write_text(text)
        with pytest.raises(RuleIOError) as exc:
            rule_io.read_rules(str(p))
        assert str(exc.value) == f"{p}: top-level key {key!r} is in more than one document"

    @pytest.mark.parametrize("meta, expected", [("", {}), ("[]", {}), ("{a: b}", {"a": "b"})],
                             ids=["null", "empty-list", "mapping"])
    def test_meta(self, tmp_path, meta, expected):
        # validate writes a rule without meta as `meta: []`
        p = tmp_path / "m.yml"
        p.write_text(f"rules:\n- expr: x > 0\n  meta: {meta}\n")
        rs, _ = rule_io.read_rules(str(p))
        assert rs.rules[0].meta == {**DEFAULT_META, **expected}

    @pytest.mark.parametrize("meta", ["5", "[a]", "text", "false"])
    def test_meta_that_is_not_a_mapping(self, tmp_path, meta):
        p = tmp_path / "m.yml"
        p.write_text(f"rules:\n- expr: x > 0\n- expr: y > 0\n  meta: {meta}\n")
        with pytest.raises(RuleIOError) as exc:
            rule_io.read_rules(str(p))
        assert str(exc.value) == f"{p}: rule entry 2: 'meta' must be a mapping"


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


# a rule name: one the text grammar holds, or any text
rule_names = st.one_of(
    st.from_regex(r"[A-Za-z][A-Za-z0-9._]{0,4}", fullmatch=True), st.text(min_size=1, max_size=4)
)
# any text, the line breaks of ``str.splitlines`` and the lexer's special characters often
free_text = st.text(
    st.one_of(st.sampled_from(" \t\n\r\x0b\x85\u2028#'\"\\:"), st.characters(codec="utf-8")),
    max_size=6,
)
# rule-set options; an empty set is written as none
option_sets = st.fixed_dictionaries({}, optional={
    "na.value": st.sampled_from(["NA", True, False]),
    "raise": st.sampled_from(["none", "error", "all"]),
    "lin.eq.eps": st.one_of(st.integers(0, 10), st.floats(min_value=0)),
    "lin.ineq.eps": st.floats(min_value=0),
})


@st.composite
def rule_sets(draw):
    """A rule set of ``x == "<text>"`` rules with any names, descriptions and options."""
    names = draw(st.lists(rule_names, min_size=1, max_size=4, unique=True))
    rules = [
        Rule(dsl.Binary("==", dsl.Identifier("x"), dsl.StringLit(draw(free_text))), name,
             description=draw(free_text), created=NOW)
        for name in names
    ]
    return RuleSet(rules, draw(option_sets))


def _comment_text(line):
    """What the reader keeps of a comment line: it loses its leading '#'s and
    the space around them."""
    return line.strip().lstrip("#").strip()


class TestExportText:
    @pytest.mark.parametrize("name", ["my rule", "2nd"])
    def test_refuses_a_name_the_reader_cannot_read(self, tmp_path, name):
        rs, _ = new_ruleset([("ok", "y > 0"), (name, "x > 0")], now=NOW)
        out = tmp_path / "n.txt"
        with pytest.raises(RuleIOError) as exc:
            rule_io.export_text(rs, str(out))
        assert str(exc.value) == (
            f"{out}: rule {name!r} cannot be written to a text rule file: its name is not a "
            "letter followed by letters, digits, '.' and '_'; export to .yaml instead"
        )
        assert not out.exists()

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(rule_sets(), st.sampled_from([".yml", ".txt"]))
    def test_export_then_read_round_trips(self, rs, ext):
        """A rule set read back from its export has the same names, rule texts
        and options; from text, descriptions as comment lines. Text refuses,
        writing nothing, a rule whose name or text it cannot hold."""
        holds = all(
            re.fullmatch(r"[A-Za-z][A-Za-z0-9._]*", r.name) and len(r.source().splitlines()) == 1
            for r in rs.rules
        )
        with tempfile.TemporaryDirectory() as work:
            path = os.path.join(work, "rules" + ext)
            if ext == ".txt" and not holds:
                with pytest.raises(RuleIOError):
                    rule_io.export_text(rs, path)
                assert not os.path.exists(path)
                return
            (rule_io.export_yaml if ext == ".yml" else rule_io.export_text)(rs, path)
            back, warnings = rule_io.read_rules(path, now=NOW)
        assert not warnings
        assert back.names() == rs.names()
        assert [r.source() for r in back.rules] == [r.source() for r in rs.rules]
        assert back.local_options == (rs.local_options or None)
        if ext == ".txt":
            assert [r.description for r in back.rules] == [
                "\n".join(_comment_text("# " + line) for line in r.description.splitlines())
                for r in rs.rules
            ]


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


class TestExpandedEntry:
    """The rules one group entry expands to each keep the entry's metadata and
    own their ``meta`` dict, whichever producer read the entry."""

    CREATED = datetime(2019, 1, 2, 3, 4, 5)

    @staticmethod
    def read(path):
        rs, warnings = rule_io.read_rules(str(path), now=NOW)
        assert warnings == []
        return rs

    def text(self, tmp_path):
        path = tmp_path / "rules.txt"
        path.write_text("g := var_group(a, b, c)\n# all positive\npos: g > 0\n")
        return self.read(path), ("", "all positive", str(path), NOW)

    def yaml(self, tmp_path):
        path = tmp_path / "rules.yaml"
        path.write_text(textwrap.dedent("""\
            rules:
            - expr: g := var_group(a, b, c)
            - expr: g > 0
              name: pos
              label: positive
              description: all positive
              origin: survey
              created: 2019-01-02 03:04:05
              meta: {owner: ops}
            """))
        return self.read(path), ("positive", "all positive", "survey", self.CREATED)

    def table(self, tmp_path):
        rows = [
            {"rule": "g := var_group(a, b, c)"},
            {"name": "pos", "rule": "g > 0", "label": "positive", "description": "all positive",
             "origin": "survey", "created": "2019-01-02 03:04:05"},
        ]
        return rule_io.table_to_rules(rows, now=NOW), (
            "positive", "all positive", "survey", self.CREATED
        )

    @pytest.mark.parametrize("producer", ["text", "yaml", "table"])
    def test_each_rule_keeps_the_entry_metadata_and_owns_its_meta(self, producer, tmp_path):
        rs, expected = getattr(self, producer)(tmp_path)
        assert rs.names() == ["pos.1", "pos.2", "pos.3"]
        assert [r.source() for r in rs] == ["a > 0", "b > 0", "c > 0"]
        for r in rs:
            assert (r.label, r.description, r.origin, r.created) == expected
        metas = [dict(r.meta) for r in rs]
        assert metas[0] == metas[1] == metas[2]
        assert metas[0].items() >= DEFAULT_META.items()
        rs.rules[1].meta["severity"] = "warning"
        assert [r.meta for r in rs] == [metas[0], {**metas[1], "severity": "warning"}, metas[2]]


# ---------------------------------------------------------------------------
# libyaml and the pure-Python loader
# ---------------------------------------------------------------------------

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FRONT_MATTER_RE = re.compile(r"^---\n(.*?)\n---$", re.MULTILINE | re.DOTALL)

needs_libyaml = pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML without libyaml")


def _strings(value):
    """Every string inside decoded JSON."""
    if isinstance(value, str):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from _strings(item)
    elif isinstance(value, list):
        for item in value:
            yield from _strings(item)


def _candidate_texts():
    """Every file under tests/ and sample/, every string in their JSON and in the test
    modules' source, and the front matter of each: whatever of it is YAML."""
    texts = []
    for top in ("tests", "sample"):
        for dirpath, _, files in os.walk(os.path.join(ROOT, top)):
            for name in sorted(files):
                if not name.endswith((".py", ".json", ".txt", ".yml", ".yaml", ".csv", ".text")):
                    continue
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    text = fh.read()
                texts.append(text)
                if name.endswith(".json") and text.startswith("{"):
                    texts += _strings(json.loads(text))
                elif name.endswith(".py"):
                    texts += [
                        node.value
                        for node in ast.walk(ast.parse(text))
                        if isinstance(node, ast.Constant) and isinstance(node.value, str)
                    ]
    return texts + [block for text in texts for block in FRONT_MATTER_RE.findall(text)]


def _reference(text, stream):
    """What the pure-Python loader alone reads: documents, or the error message."""
    try:
        if not stream:
            return yaml.load(text, Loader=yaml.SafeLoader)
        return [doc for doc in yaml.load_all(text, Loader=yaml.SafeLoader) if doc is not None]
    except yaml.YAMLError as err:
        return f"w: {err}"
    except Exception as err:  # a constructor's, such as a bad date
        return repr(err)


def _loaded(text, stream):
    """What rule_io reads: documents, or the error message."""
    try:
        return rule_io._load_yaml_text(text, "w", stream)
    except RuleIOError as err:
        return str(err)
    except Exception as err:
        return repr(err)


@needs_libyaml
def test_libyaml_reads_every_yaml_text_of_the_repository_alike():
    texts = _candidate_texts()
    for text in texts:
        for stream in (False, True):
            assert repr(_loaded(text, stream)) == repr(_reference(text, stream)), text
    fast = [t for t in texts if not rule_io._LIBYAML_DIFFERS.search(t)]
    assert len(fast) > 0.8 * len(texts)


# pieces of YAML syntax, including those libyaml and the pure-Python loader read apart
YAML_PIECES = [
    *"ab1 :-\n!&*'\"#[]{},?|>%@`.\t", "!!str", "!!int", "!!float", "!!bool", "!!timestamp",
    "!!set", "!!omap", "!foo", "%YAML 1.1\n", "%YAML 2.0\n", "%TAG ! tag:x,2000:\n", "- ", ": ",
    "---", "...", "\n  ", "~", "null", "0x1", "1_0", "1e3", ".inf", "yes", "2018-06-05",
    "2018-02-30", "\\", "\\t", "é", "\r\n", "\x01", "\x85", "\u2028", "\ufeff", "\U0001F600",
    "<<", "\xa0", "|-", ">+", "|2", "&a ", "*a", "? ", "rules:", "expr: x > 0", "include:",
]


@needs_libyaml
@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.lists(st.sampled_from(YAML_PIECES), max_size=14).map("".join), st.booleans())
@example("x: !", True)
@example("[is it?]", False)
@example("a: b\t", False)
@example("|#\n", False)
@example("!!int\r\n!foo+1!!bool1_0!!omap", True)
def test_libyaml_reads_generated_yaml_text_alike(text, stream):
    assert repr(_loaded(text, stream)) == repr(_reference(text, stream))


_label_text = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12)
_rule_items = st.fixed_dictionaries(
    {
        "expr": st.sampled_from(["x > 0", "if (a > 0) b >= 1", "a + b ~ c", "m := mean(x)",
                                 'grepl("^[a-z]+$", s)', "G := var_group(a, b)"]),
        "name": st.from_regex(r"[A-Za-z][A-Za-z0-9._]{0,6}", fullmatch=True),
    },
    optional={
        "label": _label_text,
        "description": _label_text,
        "created": st.sampled_from(["2018-06-05 14:44:06", "", None]),
        "origin": _label_text,
        "meta": st.dictionaries(st.sampled_from(["language", "severity", "x"]), _label_text,
                                max_size=2),
    },
)
_rule_files = st.fixed_dictionaries(
    {"rules": st.lists(_rule_items, max_size=4)},
    optional={
        "options": st.fixed_dictionaries(
            {},
            optional={"raise": st.sampled_from(["none", "errors", "all"]),
                      "lin.eq.eps": st.floats(0, 1), "na.value": st.sampled_from([None, True])},
        ),
        "include": st.lists(_label_text, max_size=2),
    },
)


@needs_libyaml
@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(_rule_files, st.booleans(), st.booleans(), st.sampled_from([20, 80]))
def test_libyaml_reads_generated_rule_files_alike(data, flow, unicode, width):
    text = yaml.safe_dump(data, sort_keys=False, default_flow_style=flow, allow_unicode=unicode,
                          width=width)
    documents = _reference(text, True)
    assert isinstance(documents, list)
    assert _loaded(text, True) == documents


def _rule_fields(rs):
    return rs.local_options, [
        (r.name, r.source(), r.label, r.description, r.origin, r.created, dict(r.meta))
        for r in rs.rules
    ]


def test_pure_python_loader_reads_the_same_rules(two_file_setup, monkeypatch):
    expected = rule_io.read_rules("rules.txt", now=NOW)
    # as when PyYAML is built without libyaml
    monkeypatch.setattr(yaml, "__with_libyaml__", False)
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    rs, warnings = rule_io.read_rules("rules.txt", now=NOW)
    assert (_rule_fields(rs), warnings) == (_rule_fields(expected[0]), expected[1])
    assert len(rs) == 5
