"""End-to-end acceptance checks.

Each test covers one release criterion and prints a single PASS line when its
assertions hold (run with ``pytest -s`` or ``-v`` to see them).
"""

import itertools
import random

import pytest

from checkmate import cli, dsl, from_dict, rule_io
from checkmate.diffs import compare_cells, compare_validations
from checkmate.engine import confront, eval_expr, eval_fd
from checkmate.errors import CycleError
from checkmate.results import (
    aggregate_results,
    sort_results,
    summarize,
    values,
)
from checkmate.rules import concat, new_ruleset

from conftest import SAMPLE_DATA, SAMPLE_RULES
from legacy_engine import kleene_not, kleene_or


def ok(criterion: str):
    print(f"ACCEPTANCE {criterion}: PASS")


def prepared(source, eps_eq=1e-8, eps_ineq=1e-8):
    body = dsl.rewrite_implication(dsl.parse(source).body)
    return dsl.render(dsl.rewrite_tolerance(body, eps_eq, eps_ineq))


def test_01_rewrite_strings_bit_exact():
    assert prepared("staff >= 0") == "(staff - 0) >= -1e-08"
    assert prepared("turnover + other.rev == total.rev") == (
        "abs(turnover + other.rev - total.rev) < 1e-08"
    )
    assert prepared("if (staff > 0) staff.costs > 0") == (
        "!(staff > 0) | (staff.costs > 0)"
    )
    assert prepared("mean(profit, na.rm = TRUE) >= 1") == (
        "mean(profit, na.rm = TRUE) >= 1"
    )
    ok("01 rewrite strings bit-exact")


def test_02_implication_truth_table():
    rewritten = dsl.rewrite_implication(dsl.parse("if (P) Q").body)
    # boolean corner: the material-implication table
    expected = {
        (True, True): True,
        (True, False): False,
        (False, True): True,
        (False, False): True,
    }
    for (p, q), want in expected.items():
        df = from_dict({"P": [p], "Q": [q]}, {"P": "boolean", "Q": "boolean"})
        assert eval_expr(rewritten, df).cells == [want]
    # all nine tri-state assignments follow Kleene's !(P) | (Q)
    for p, q in itertools.product([True, False, None], repeat=2):
        df = from_dict({"P": [p], "Q": [q]}, {"P": "boolean", "Q": "boolean"})
        got = eval_expr(rewritten, df).cells[0]
        assert got == kleene_or(kleene_not(p), q)
    ok("02 implication truth table")


def test_03_na_value_transposition(retailers, retailer_rules):
    # printed example pattern on the bundled data
    v_na = confront(retailers, retailer_rules)
    v_false = confront(retailers, retailer_rules, opts={"na.value": False})
    to_na = {r.name: r for r in summarize(v_na)}["to"]
    to_false = {r.name: r for r in summarize(v_false)}["to"]
    assert (to_na.passes, to_na.fails, to_na.nNA) == (56, 0, 4)
    assert (to_false.passes, to_false.fails, to_false.nNA) == (56, 4, 0)

    # property: nNA moves wholesale into fails, passes untouched
    rng = random.Random(1848)
    sources = ["x >= 0", "x + y == 1", "if (x > 0) y > 0", "y < 2", "all(x > -5)"]
    cases = 0
    while cases < 200:
        n = rng.randint(1, 20)
        df = from_dict(
            {
                "x": [rng.choice([None, -1.0, 0.0, 1.0]) for _ in range(n)],
                "y": [rng.choice([None, 0.0, 1.0, 2.0]) for _ in range(n)],
            },
            {"x": "number", "y": "number"},
        )
        rs, _ = new_ruleset([(None, rng.choice(sources))])
        before = summarize(confront(df, rs))[0]
        after = summarize(confront(df, rs, opts={"na.value": False}))[0]
        assert after.passes == before.passes
        assert after.fails == before.fails + before.nNA
        assert after.nNA == 0
        cases += 1
    ok("03 na.value transposition (200 random cases)")


def test_04_tolerance_off_switch(retailer_rules):
    for rule in retailer_rules.rules:
        assert prepared(rule.source(), 0.0, 0.0) in (
            rule.source(),
            # implications still rewrite; their source is not a comparison
            dsl.render(dsl.rewrite_implication(rule.body)),
        )
    # comparisons specifically must come back byte-identical
    for source in ("staff >= 0", "turnover + other.rev == total.rev", "x < 1"):
        body = dsl.parse(source).body
        assert dsl.render(dsl.rewrite_tolerance(body, 0.0, 0.0)) == source
    ok("04 tolerance off-switch")


def _status(cell):
    return "T" if cell is True else "F" if cell is False else "N"


def test_05_compare_partition_identities():
    rng = random.Random(510)
    pool = ["x >= 0", "y >= 0", "x + y == 1", "x < 2", "y != 0", "if (x > 0) y > 0"]
    for _ in range(40):
        rs, _ = new_ruleset(
            [(None, s) for s in rng.sample(pool, rng.randint(1, 6))]
        )
        n = rng.randint(1, 30)
        versions = {}
        for k in range(rng.randint(1, 5)):
            versions[f"v{k}"] = from_dict(
                {
                    "x": [rng.choice([None, -1.0, 0.0, 1.0]) for _ in range(n)],
                    "y": [rng.choice([None, -1.0, 0.0, 1.0]) for _ in range(n)],
                },
                {"x": "number", "y": "number"},
            )
        for how in ("sequential", "to_first"):
            table = compare_validations(rs, versions, how=how)
            for name in table.version_names:
                col = table.column(name)
                assert col["validations"] == col["verifiable"] + col["unverifiable"]
                assert col["verifiable"] == col["satisfied"] + col["violated"]
                for s in ("satisfied", "violated", "unverifiable"):
                    assert col[s] == col["still_" + s] + col["new_" + s]
        # self-comparison shows no transitions
        first = next(iter(versions.values()))
        self_cmp = compare_validations(rs, {"a": first, "b": first}).column("b")
        assert self_cmp["new_satisfied"] == 0
        assert self_cmp["new_violated"] == 0
        assert self_cmp["new_unverifiable"] == 0

    # engineered two-version frame reproducing the published arithmetic:
    # 1080 = 789 + 291, 755 = 741 + 14, 34 = 29 + 5
    transitions = (
        [("T", "T")] * 741
        + [("F", "T")] * 14
        + [("T", "F")] * 5
        + [("F", "F")] * 29
        + [("N", "N")] * 291
    )
    assert len(transitions) == 1080  # 18 rules x 60 records
    cell_value = {"T": 1.0, "F": -1.0, "N": None}
    names = [f"c{j}" for j in range(1, 19)]
    v1_data = {name: [] for name in names}
    v2_data = {name: [] for name in names}
    for idx, (before, after) in enumerate(transitions):
        name = names[idx // 60]
        v1_data[name].append(cell_value[before])
        v2_data[name].append(cell_value[after])
    types = {name: "number" for name in names}
    v1 = from_dict(v1_data, types)
    v2 = from_dict(v2_data, types)
    rs, _ = new_ruleset([(None, f"{name} >= 0") for name in names])

    # independent tally straight from the data cells
    tally = {}
    for name in names:
        for a, b in zip(v1_data[name], v2_data[name]):
            key = (
                _status(None if a is None else a >= 0),
                _status(None if b is None else b >= 0),
            )
            tally[key] = tally.get(key, 0) + 1
    assert tally == {
        ("T", "T"): 741,
        ("F", "T"): 14,
        ("T", "F"): 5,
        ("F", "F"): 29,
        ("N", "N"): 291,
    }

    col = compare_validations(rs, {"v1": v1, "v2": v2}).column("v2")
    assert col["validations"] == 1080
    assert col["verifiable"] == 789
    assert col["unverifiable"] == 291
    assert col["satisfied"] == 755
    assert col["still_satisfied"] == 741
    assert col["new_satisfied"] == 14
    assert col["violated"] == 34
    assert col["still_violated"] == 29
    assert col["new_violated"] == 5
    assert col["still_unverifiable"] == 291 and col["new_unverifiable"] == 0
    ref = compare_validations(rs, {"v1": v1, "v2": v2}).column("v1")
    assert ref["satisfied"] == 746 and ref["violated"] == 43
    ok("05 compare partition identities + published arithmetic")


def test_06_cells_partition_identities():
    rng = random.Random(1881)
    for _ in range(500):
        n = rng.randint(1, 8)
        cols = rng.randint(1, 3)

        def frame():
            return from_dict(
                {
                    f"c{j}": [
                        rng.choice([None, 1.0, 2.0, 3.0]) for _ in range(n)
                    ]
                    for j in range(cols)
                },
                {f"c{j}": "number" for j in range(cols)},
            )

        table = compare_cells({"v1": frame(), "v2": frame()})
        for name in table.version_names:
            col = table.column(name)
            assert col["available"] + col["missing"] == col["cells"]
            assert col["still_available"] + col["imputed"] == col["available"]
            assert col["unadapted"] + col["adapted"] == col["still_available"]
            assert col["still_missing"] + col["removed"] == col["missing"]
    ok("06 cells partition identities (500 random pairs)")


def test_07_fd_oracle_equivalence():
    fd = dsl.parse("d ~ v").body
    for n in range(1, 7):
        for det in itertools.product(["a", "b"], repeat=n):
            for dep in itertools.product(["x", "y"], repeat=n):
                df = from_dict(
                    {"d": list(det), "v": list(dep)},
                    {"d": "text", "v": "text"},
                )
                got = eval_fd(fd, df)
                # O(n^2) oracle: compare with the first record of the group
                for i in range(n):
                    first = min(j for j in range(n) if det[j] == det[i])
                    assert got[i] == (dep[i] == dep[first])
    ok("07 functional-dependency oracle equivalence (exhaustive n <= 6)")


YAML_RULES = """\
---
options:
  raise: none
---
rules:
- expr: staff >= 0
  name: 'G1'
  label: 'nonnegative staff'
  created: 2018-06-05 14:44:06
- expr: turnover >= 0
  name: 'G2'
  label: 'nonnegative income'
  created: 2018-06-05 14:44:06
- expr: profit + total.costs == total.rev
  name: 'G3'
  label: 'Balance check'
  created: 2018-06-05 14:44:06
"""

TEXT_RULES = """\
---
include:
  - general_rules.yml
---

# a reasonable profit
profit/total.rev <= 0.6

# profitable on average
mean(profit) >= 1
"""


def test_08_round_trips(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "general_rules.yml").write_text(YAML_RULES)
    (tmp_path / "rules.txt").write_text(TEXT_RULES)

    rs, _ = rule_io.read_rules("general_rules.yml")
    assert rs.names() == ["G1", "G2", "G3"]
    assert [r.label for r in rs.rules] == [
        "nonnegative staff",
        "nonnegative income",
        "Balance check",
    ]

    rule_io.export_yaml(rs, "one.yml")
    rs2, _ = rule_io.read_rules("one.yml")
    rule_io.export_yaml(rs2, "two.yml")
    assert (tmp_path / "one.yml").read_bytes() == (tmp_path / "two.yml").read_bytes()

    combined, _ = rule_io.read_rules("rules.txt")
    assert combined.names() == ["G1", "G2", "G3", "V1", "V2"]
    assert {r.name: r.origin for r in combined.rules} == {
        "G1": "./general_rules.yml",
        "G2": "./general_rules.yml",
        "G3": "./general_rules.yml",
        "V1": "rules.txt",
        "V2": "rules.txt",
    }
    ok("08 YAML/text round trips and include order")


def test_09_cycle_detection(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.txt").write_text("---\ninclude: [b.txt]\n---\nx > 0\n")
    (tmp_path / "b.txt").write_text("---\ninclude: [a.txt]\n---\ny > 0\n")
    with pytest.raises(CycleError) as exc:
        rule_io.read_rules("a.txt")
    assert "a.txt" in str(exc.value) and "b.txt" in str(exc.value)

    (tmp_path / "p.txt").write_text("---\ninclude: [q.txt]\n---\nx > 0\n")
    (tmp_path / "q.txt").write_text("---\ninclude: [r.txt]\n---\ny > 0\n")
    (tmp_path / "r.txt").write_text("---\ninclude: [p.txt]\n---\nz > 0\n")
    with pytest.raises(CycleError) as exc:
        rule_io.read_rules("p.txt")
    for name in ("p.txt", "q.txt", "r.txt"):
        assert name in str(exc.value)
    ok("09 cycle detection names every file")


def test_10_aggregate_and_sort():
    rng = random.Random(33)

    def placed(npass, nfail, nna):
        cells = [1.0] * npass + [-1.0] * nfail + [None] * nna
        rng.shuffle(cells)
        return cells

    data = {
        "a": placed(23, 1, 36),
        "b": placed(56, 0, 4),
        "c": placed(19, 4, 37),
    }
    # independent tally of the placements
    expected = {}
    for name, cells in data.items():
        expected[name] = (
            sum(1 for c in cells if c is not None and c >= 0),
            sum(1 for c in cells if c is not None and c < 0),
            sum(1 for c in cells if c is None),
        )
    assert expected == {"a": (23, 1, 36), "b": (56, 0, 4), "c": (19, 4, 37)}

    df = from_dict(data, {k: "number" for k in data})
    rs, _ = new_ruleset([(None, "a >= 0"), (None, "b >= 0"), (None, "c >= 0")])
    v = confront(df, rs)
    by_key = {r.key: r for r in aggregate_results(v)}
    assert (by_key["V1"].npass, by_key["V1"].nfail, by_key["V1"].nNA) == (23, 1, 36)
    assert (by_key["V2"].npass, by_key["V2"].nfail, by_key["V2"].nNA) == (56, 0, 4)
    assert (by_key["V3"].npass, by_key["V3"].nfail, by_key["V3"].nNA) == (19, 4, 37)

    ordered = sort_results(v)
    assert [r.key for r in ordered] == ["V3", "V1", "V2"]
    for row, want in zip(ordered, (19 / 60, 23 / 60, 56 / 60)):
        assert abs(row.rel_pass - want) < 1e-12
    ok("10 aggregate and sort semantics")


def test_11_values_shape_law(retailers):
    # {60, 60}: one matrix
    two = confront(
        retailers, new_ruleset([(None, "staff >= 0"), (None, "turnover >= 0")])[0]
    )
    out = values(two)
    assert not isinstance(out, dict)
    assert out.rule_names == ["V1", "V2"] and len(out.rows) == 60

    # {60, 60, 1}: a dict keyed by length
    three = confront(
        retailers,
        new_ruleset(
            [
                (None, "staff >= 0"),
                (None, "turnover >= 0"),
                (None, "mean(profit, na.rm = TRUE) >= 1"),
            ]
        )[0],
    )
    out = values(three)
    assert isinstance(out, dict) and set(out) == {60, 1}

    # concatenation law: values of a concatenated rule set are the
    # column-wise concatenation of the separate values
    rng = random.Random(77)
    pool = ["x >= 0", "y >= 0", "x < y", "x + y == 1", "x != 0", "y <= 2"]
    for _ in range(100):
        n = rng.randint(1, 10)
        df = from_dict(
            {
                "x": [rng.choice([None, -1.0, 0.0, 1.0]) for _ in range(n)],
                "y": [rng.choice([None, -1.0, 0.0, 1.0]) for _ in range(n)],
            },
            {"x": "number", "y": "number"},
        )
        a, _ = new_ruleset([("a1", rng.choice(pool)), ("a2", rng.choice(pool))])
        b, _ = new_ruleset([("b1", rng.choice(pool))])
        left = values(confront(df, a))
        right = values(confront(df, b))
        combined = values(confront(df, concat(a, b)))
        assert combined.rule_names == left.rule_names + right.rule_names
        for la, lb, row in zip(left.rows, right.rows, combined.rows):
            assert row == la + lb
    ok("11 values shape law + concatenation law (100 random validations)")


def test_12_cli_end_to_end(tmp_path, capsys):
    code = cli.main(["check", SAMPLE_DATA, "--rules", SAMPLE_RULES, "--key", "id"])
    captured = capsys.readouterr()
    assert code == 1
    assert "Confrontations: 6" in captured.out
    assert "With fails    : 2" in captured.out
    assert "Warnings      : 0" in captured.out
    assert "Errors        : 0" in captured.out

    bad = tmp_path / "bad.txt"
    bad.write_text("x > 0\nmean(x)\n")
    code = cli.main(["lint", "--rules", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert "[002] mean(x)" in captured.err
    ok("12 CLI end-to-end")
