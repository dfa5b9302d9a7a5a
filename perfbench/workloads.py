"""Seeded inputs and a plain-Python oracle for the checkmate benchmark.

Nothing here imports checkmate. Each workload is generated from its seed
into a work directory, and the expected result of every command is computed
directly from the generated cells, so the benchmark can tell a wrong answer
from a slow one. Every generated number is an integer, so no expected result
depends on the slack (``lin.eq.eps``/``lin.ineq.eps``) that checkmate adds
to linear comparisons.

A workload is a list of ``Command``s, run one after another. Each command
knows its CLI arguments, the exit code it must return, the file it writes,
and a ``check`` that compares that file (and the banner on stdout) with the
oracle. ``Command.trace`` describes the same command for ``traced.py``.
"""

from __future__ import annotations

import csv
import json
import operator
import os
import random
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from statistics import median
from typing import Callable

WORKLOADS = ("survey-summary", "survey-records", "rulebook", "versions")

# Full sizes are what the benchmark measures; small sizes serve the self-test.
FULL = {"survey_rows": 20_000, "book_rows": 200, "book_entries": 1500, "version_rows": 12_000}
SMALL = {"survey_rows": 400, "book_rows": 40, "book_entries": 200, "version_rows": 300}

N_VERSIONS = 4
BOOK_COLUMNS = 40
BOOK_YAML_SHARE = 10  # one rule-book entry in ten lives in the YAML file
BOOK_GROUP_SHARE = 10  # one rule-book entry in ten references a variable group

_OPS = {
    ">=": operator.ge,
    "<=": operator.le,
    "==": operator.eq,
    ">": operator.gt,
    "<": operator.lt,
}


# ---------------------------------------------------------------------------
# Tri-state helpers: True / False / None (unverifiable)
# ---------------------------------------------------------------------------


def t_not(a):
    return None if a is None else not a


def t_or(a, b):
    if a is True or b is True:
        return True
    if a is None or b is None:
        return None
    return False


def t_and(a, b):
    if a is False or b is False:
        return False
    if a is None or b is None:
        return None
    return True


def cmp_const(xs, op, k):
    f = _OPS[op]
    return [None if x is None else f(x, k) for x in xs]


def cmp_cols(xs, op, ys):
    f = _OPS[op]
    return [None if x is None or y is None else f(x, y) for x, y in zip(xs, ys)]


def fd_cells(det: list[list], dep: list[list]) -> list:
    """The group's first record in row order sets the expected dependent values."""
    reference = {}
    out = []
    for i in range(len(det[0])):
        key = tuple(col[i] for col in det)
        combo = tuple(col[i] for col in dep)
        ref = reference.setdefault(key, combo)
        if any(c is None for c in combo) or any(c is None for c in ref):
            out.append(None)
        else:
            out.append(combo == ref)
    return out


def unique_cells(cols: list[list]) -> list:
    rows = list(zip(*cols))
    counts = Counter(rows)
    return [counts[r] == 1 for r in rows]


def present(xs):
    return [x for x in xs if x is not None]


def exact_mean(xs):
    return Fraction(sum(xs), len(xs))


# ---------------------------------------------------------------------------
# Commands and cases
# ---------------------------------------------------------------------------


@dataclass
class Command:
    args: list[str]  # arguments after the program name
    expected_exit: int
    out: str  # the file the command writes
    check: Callable[[str, str], str | None]  # (out, stdout) -> error or None
    trace: dict  # the same command for traced.py


@dataclass
class Case:
    commands: list[Command]
    items: int  # tri-state items one pass of all commands produces


@dataclass
class RuleSpec:
    name: str
    kind: str
    cells: list  # expected tri-state result


def _write_csv(path: str, cols: dict[str, list]) -> None:
    names = list(cols)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(names)
        for row in zip(*(cols[n] for n in names)):
            w.writerow(["NA" if c is None else c for c in row])


def _counts(cells: list) -> tuple[int, int, int, int]:
    passes = sum(1 for c in cells if c is True)
    fails = sum(1 for c in cells if c is False)
    return len(cells), passes, fails, len(cells) - passes - fails


# ---------------------------------------------------------------------------
# Checks of command output against the oracle
# ---------------------------------------------------------------------------


def _check_banner(stdout: str, specs: list[RuleSpec]) -> str | None:
    with open(stdout, encoding="utf-8") as fh:
        fields = dict(
            (k.strip(), v.strip()) for k, _, v in (line.partition(":") for line in fh)
        )
    expected = {
        "Confrontations": str(len(specs)),
        "With fails": str(sum(1 for s in specs if _counts(s.cells)[2])),
        "Warnings": "0",
        "Errors": "0",
    }
    for key, want in expected.items():
        if fields.get(key) != want:
            return f"banner {key}: expected {want}, got {fields.get(key)}"
    return None


def _check_summary_rows(rows, specs: list[RuleSpec]) -> str | None:
    """rows: (name, items, passes, fails, nNA, error, warning) with str or int cells."""
    if len(rows) != len(specs):
        return f"expected {len(specs)} summary rows, got {len(rows)}"
    for row, spec in zip(rows, specs):
        name, *counts, error, warning = row
        want = _counts(spec.cells)
        if name != spec.name or tuple(int(c) for c in counts) != want:
            return f"rule {spec.name}: expected {want}, got {name} {counts}"
        if str(error).upper() != "FALSE" or str(warning).upper() != "FALSE":
            return f"rule {spec.name}: unexpected error/warning flag"
    return None


def text_check(specs: list[RuleSpec]):
    def check(out: str, stdout: str) -> str | None:
        problem = _check_banner(stdout, specs)
        if problem:
            return problem
        with open(out, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if not lines or lines[0].split() != [
            "name", "items", "passes", "fails", "nNA", "error", "warning", "expression"
        ]:
            return "text table header is wrong"
        rows = []
        for line in lines[1:]:
            parts = line.split(None, 7)
            if len(parts) != 8:
                return f"malformed text row {line!r}"
            rows.append(parts[:7])
        return _check_summary_rows(rows, specs)

    return check


def json_check(specs: list[RuleSpec], keys: list[str]):
    def check(out: str, stdout: str) -> str | None:
        problem = _check_banner(stdout, specs)
        if problem:
            return problem
        with open(out, encoding="utf-8") as fh:
            doc = json.load(fh)
        summary = [
            (r["name"], r["items"], r["passes"], r["fails"], r["nNA"], r["error"], r["warning"])
            for r in doc["summary"]
        ]
        problem = _check_summary_rows(summary, specs)
        if problem:
            return problem
        records = doc["records"]
        expected = sum(len(s.cells) for s in specs)
        if len(records) != expected:
            return f"expected {expected} records, got {len(records)}"
        it = iter(records)
        for spec in specs:
            aligned = len(spec.cells) == len(keys)
            for i, cell in enumerate(spec.cells):
                r = next(it)
                want_id = keys[i] if aligned else None
                if r["name"] != spec.name or r["value"] is not cell or r["id"] != want_id:
                    return f"record {spec.name}[{i}]: expected {want_id} {cell}, got {r}"
        return None

    return check


def table_check(statuses: tuple[str, ...], versions: list[str], counts: dict[str, list[int]]):
    def check(out: str, stdout: str) -> str | None:
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        want = [["status"] + versions] + [[s] + [str(c) for c in counts[s]] for s in statuses]
        if rows != want:
            for got, exp in zip(rows, want):
                if got != exp:
                    return f"status table: expected {exp}, got {got}"
            return f"status table: expected {len(want)} rows, got {len(rows)}"
        return None

    return check


def check_case(data: str, rules: str, key: str | None, fmt: str, out: str,
               specs: list[RuleSpec], check) -> Case:
    """One ``check`` command; it exits 1 when some rule has a fail."""
    key_args = ["--key", key] if key else []
    cmd = Command(
        ["check", data, "--rules", rules, *key_args, "--format", fmt, "--out", out],
        expected_exit=1 if any(_counts(s.cells)[2] for s in specs) else 0,
        out=out,
        check=check,
        trace={"command": "check", "data": [data], "rules": rules, "key": key,
               "format": fmt, "out": out, "kinds": {s.name: s.kind for s in specs}},
    )
    return Case([cmd], items=sum(len(s.cells) for s in specs))


# ---------------------------------------------------------------------------
# Survey: a retailer-like business survey
# ---------------------------------------------------------------------------

SIZES = ("sc0", "sc1", "sc2", "sc3")
EMAIL_PATTERN = "^[a-z0-9]+@[a-z]+[.][a-z]+$"
SURVEY_NUMERIC = ("staff", "staff.costs", "turnover", "other.rev", "total.rev", "profit")
NA_SHARE = 0.07


def survey_columns(rng: random.Random, n: int) -> dict[str, list]:
    n_cities, n_streets = max(2, n // 2000), 40
    postal = [
        [f"{1000 + c * n_streets + s}{chr(65 + (c + s) % 26)}{chr(65 + (7 * c + s) % 26)}"
         for s in range(n_streets)]
        for c in range(n_cities)
    ]
    cols = {name: [] for name in (
        "id", "size", "staff", "staff.costs", "turnover", "other.rev", "total.rev",
        "profit", "city", "street", "postal_code", "email",
    )}

    def na(value):
        return None if rng.random() < NA_SHARE else value

    for i in range(n):
        ids = cols["id"]
        # a few duplicated ids make is_unique(id) fail
        ids.append(ids[rng.randrange(i)] if i and rng.random() < 0.005 else f"S{i + 1:06d}")

        r = rng.random()
        cols["size"].append(None if r < 0.03 else "scX" if r < 0.04 else rng.choice(SIZES))

        r = rng.random()
        staff = -rng.randint(1, 5) if r < 0.01 else 0 if r < 0.11 else rng.randint(1, 250)
        if staff == 0:
            costs = rng.randint(1, 100) if rng.random() < 0.03 else 0
        else:
            costs = 0 if rng.random() < 0.01 else rng.randint(1_000, 500_000)
        cols["staff"].append(na(staff))
        cols["staff.costs"].append(na(costs))

        turnover = -rng.randint(1, 1_000) if rng.random() < 0.01 else rng.randint(0, 2_000_000)
        other = rng.randint(0, 100_000)
        total = turnover + other
        if rng.random() < 0.02:
            total += rng.choice((-1, 1)) * rng.randint(1, 500)
        cols["turnover"].append(na(turnover))
        cols["other.rev"].append(na(other))
        cols["total.rev"].append(na(total))
        cols["profit"].append(na(rng.randint(-50_000, 300_000)))

        c, s = rng.randrange(n_cities), rng.randrange(n_streets)
        cols["city"].append(None if rng.random() < 0.01 else f"city{c:03d}")
        cols["street"].append(None if rng.random() < 0.01 else f"street{s:02d}")
        r = rng.random()
        if r < 0.02:
            code = None
        elif r < 0.03:  # a wrong postal code breaks the dependency
            code = postal[rng.randrange(n_cities)][rng.randrange(n_streets)]
        else:
            code = postal[c][s]
        cols["postal_code"].append(code)

        r = rng.random()
        user = f"user{rng.randrange(10**6)}"
        domain = f"{rng.choice(('example', 'mail', 'post'))}.{rng.choice(('org', 'com', 'net'))}"
        cols["email"].append(
            None if r < 0.03 else f"{user}.{domain}" if r < 0.05 else f"{user}@{domain}"
        )
    return cols


def survey_rules(n: int) -> list[tuple[str, str, str, Callable[[dict], list]]]:
    """(name, kind, source, oracle) for the twelve survey rules."""
    min_rows = max(1, n // 2)
    rx = re.compile(EMAIL_PATTERN)
    return [
        ("st", "compare", "staff >= 0", lambda c: cmp_const(c["staff"], ">=", 0)),
        ("to", "compare", "turnover >= 0", lambda c: cmp_const(c["turnover"], ">=", 0)),
        ("pr", "compare", "profit <= turnover",
         lambda c: cmp_cols(c["profit"], "<=", c["turnover"])),
        ("sc", "conditional", "if (staff > 0) staff.costs > 0",
         lambda c: [t_or(t_not(a), b) for a, b in zip(
             cmp_const(c["staff"], ">", 0), cmp_const(c["staff.costs"], ">", 0))]),
        ("lg", "logic", "staff > 0 | staff.costs == 0",
         lambda c: [t_or(a, b) for a, b in zip(
             cmp_const(c["staff"], ">", 0), cmp_const(c["staff.costs"], "==", 0))]),
        ("bl", "balance", "turnover + other.rev == total.rev",
         lambda c: [None if a is None or b is None or t is None else a + b == t
                    for a, b, t in zip(c["turnover"], c["other.rev"], c["total.rev"])]),
        ("mn", "aggregate", "mean(profit, na.rm = TRUE) >= 1",
         lambda c: [exact_mean(present(c["profit"])) >= 1]),
        ("sz", "membership", 'size %in% c("sc0", "sc1", "sc2", "sc3")',
         lambda c: [None if s is None else s in SIZES for s in c["size"]]),
        ("fd", "fd", "city + street ~ postal_code",
         lambda c: fd_cells([c["city"], c["street"]], [c["postal_code"]])),
        ("em", "pattern", f'grepl("{EMAIL_PATTERN}", email)',
         lambda c: [None if e is None else rx.search(e) is not None for e in c["email"]]),
        ("uq", "unique", "is_unique(id)", lambda c: unique_cells([c["id"]])),
        ("nr", "dataset", f"nrow(.) >= {min_rows}", lambda c: [len(c["id"]) >= min_rows]),
    ]


def _write_survey_rules(path: str, rules) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# Survey rules: one or more of each rule kind\n\n")
        for name, kind, source, _ in rules:
            fh.write(f"# {kind}\n{name}: {source}\n\n")


def _survey_specs(rules, cols) -> list[RuleSpec]:
    return [RuleSpec(name, kind, oracle(cols)) for name, kind, _, oracle in rules]


def build_survey(work: str, seed: int, n: int, fmt: str) -> Case:
    rng = random.Random(f"survey:{seed}")
    cols = survey_columns(rng, n)
    rules = survey_rules(n)
    data, rule_path = os.path.join(work, "survey.csv"), os.path.join(work, "survey_rules.txt")
    _write_csv(data, cols)
    _write_survey_rules(rule_path, rules)
    specs = _survey_specs(rules, cols)
    check = text_check(specs) if fmt == "text" else json_check(specs, cols["id"])
    return check_case(data, rule_path, "id", fmt, os.path.join(work, f"survey.{fmt}"), specs, check)


# ---------------------------------------------------------------------------
# Rule book: thousands of generated rules on a small numeric table
# ---------------------------------------------------------------------------

# x37..x40 are balances of pairs of other columns
BALANCES = (("x37", "x01", "x02"), ("x38", "x03", "x04"), ("x39", "x05", "x06"),
            ("x40", "x07", "x08"))
GROUPS = {f"G{g + 1}": [f"x{5 * g + k + 1:02d}" for k in range(5)] for g in range(7)}
MACROS = {f"M{k + 1:02d}": f"x{(3 * k + 2) % 36 + 1:02d}" for k in range(11)}


def book_columns(rng: random.Random, n: int) -> dict[str, list]:
    cols = {}
    for j in range(1, BOOK_COLUMNS + 1):
        name = f"x{j:02d}"
        cells = []
        for i in range(n):
            r = rng.random()
            if r < 0.05:
                cells.append(None)
            elif r < 0.08:
                cells.append(-rng.randint(1, 20))
            else:
                cells.append(rng.randint(0, 200))
        cols[name] = cells
    for total, a, b in BALANCES:
        cells = []
        for x, y, old in zip(cols[a], cols[b], cols[total]):
            if old is None or x is None or y is None:
                cells.append(old)
            else:
                slip = rng.choice((-1, 1)) * rng.randint(1, 9) if rng.random() < 0.03 else 0
                cells.append(x + y + slip)
        cols[total] = cells
    return cols


def _book_median(cols, macro):
    return median(Fraction(x) for x in present(cols[MACROS[macro]]))


def _rule_templates(rng: random.Random, shape: random.Random, cols: dict[str, list], n: int):
    """Weighted (kind, make) triples. ``make`` takes the variable the rule is
    about (a column, or a group name when ``var`` is given) and returns the
    rule's source plus an oracle mapping a column name to expected cells.
    ``shape`` makes the choices that set how many items a rule yields, so
    that only columns and thresholds, not sizes, depend on the seed."""
    names = [f"x{j:02d}" for j in range(1, 37)]

    def other():
        return rng.choice(names)

    def compare(var):
        op = rng.choice((">=", "<="))
        t = rng.randint(-10, 20) if op == ">=" else rng.randint(150, 260)
        if var is None and shape.random() < 0.3:
            a, b = other(), other()
            return f"{a} - {b} <= {t}", lambda _: [
                None if x is None or y is None else x - y <= t
                for x, y in zip(cols[a], cols[b])]
        return f"{var or '{v}'} {op} {t}", lambda v: cmp_const(cols[v], op, t)

    def balance(var):
        total, a, b = rng.choice(BALANCES)
        src = rng.choice((f"{a} + {b} == {total}", f"{total} - {a} == {b}",
                          f"{total} - {a} - {b} == 0"))
        return src, lambda _: [
            None if x is None or y is None or s is None else x + y == s
            for x, y, s in zip(cols[a], cols[b], cols[total])]

    def conditional(var):
        b, t, u = other(), rng.randint(50, 150), rng.randint(-5, 10)
        return f"if ({var or '{v}'} > {t}) {b} >= {u}", lambda v: [
            t_or(t_not(p), q)
            for p, q in zip(cmp_const(cols[v], ">", t), cmp_const(cols[b], ">=", u))]

    def logic(var):
        b, t, u = other(), rng.randint(0, 100), rng.randint(100, 200)
        form = shape.randrange(3)
        if form == 0:
            return f"{var or '{v}'} >= {t} | {b} <= {u}", lambda v: [
                t_or(p, q)
                for p, q in zip(cmp_const(cols[v], ">=", t), cmp_const(cols[b], "<=", u))]
        if form == 1:
            return f"{var or '{v}'} >= 0 & {b} >= 0", lambda v: [
                t_and(p, q)
                for p, q in zip(cmp_const(cols[v], ">=", 0), cmp_const(cols[b], ">=", 0))]
        return f"!({var or '{v}'} < {t})", lambda v: [t_not(p) for p in cmp_const(cols[v], "<", t)]

    def aggregate(var):
        macro, t = rng.choice(sorted(MACROS)), rng.randint(-20, 60)
        form = shape.randrange(4) if var is None else shape.randrange(2)
        if form == 0:  # a column against a reference median
            def oracle(v, m=macro, t=t):
                return cmp_const(cols[v], "<=", _book_median(cols, m) * 2 + t)
            return f"{var or '{v}'} <= {macro} * 2 + {t}", oracle
        if form == 1:
            t = rng.randint(80, 120)
            return f"mean({var or '{v}'}, na.rm = TRUE) >= {t}", lambda v: [
                exact_mean(present(cols[v])) >= t]
        a = other()
        if form == 2:
            t = rng.randint(150, 220)
            return f"max({a}) <= {t}", lambda _: [
                None if None in cols[a] else max(cols[a]) <= t]
        t = rng.randint(60, 140)
        return f"{macro} >= {t}", lambda _, m=macro: [_book_median(cols, m) >= t]

    def membership(var):
        a = other()
        members = sorted(rng.sample(range(0, 201), 120))
        allowed = set(members)
        src = f"{a} %in% c({', '.join(map(str, members))})"
        return src, lambda _: [None if x is None else x in allowed for x in cols[a]]

    def dataset(var):
        t = shape.choice((n // 2, n, n + 1))
        return f"nrow(.) >= {t}", lambda _: [n >= t]

    def unique(var):
        a, b = other(), other()
        return f"is_unique({a}, {b})", lambda _: unique_cells([cols[a], cols[b]])

    def fd(var):
        a, b = other(), other()
        return f"{a} ~ {b}", lambda _: fd_cells([cols[a]], [cols[b]])

    return [
        ("compare", 30, compare), ("balance", 8, balance), ("conditional", 12, conditional),
        ("logic", 12, logic), ("aggregate", 14, aggregate), ("membership", 5, membership),
        ("dataset", 2, dataset), ("unique", 2, unique), ("fd", 2, fd),
    ]


GROUP_KINDS = ("compare", "conditional", "logic", "aggregate")


def book_entries(rng: random.Random, cols: dict[str, list], n: int, count: int):
    """Yield (name, kind, source, [expected cells per expanded rule])."""
    shape = random.Random("rulebook-shape")
    templates = _rule_templates(rng, shape, cols, n)
    kinds = [k for k, _, _ in templates]
    weights = [w for _, w, _ in templates]
    makers = {k: make for k, _, make in templates}
    names = [f"x{j:02d}" for j in range(1, 37)]
    for index in range(1, count + 1):
        if shape.randrange(BOOK_GROUP_SHARE) == 0:
            kind = shape.choice(GROUP_KINDS)
            group = shape.choice(sorted(GROUPS))
            source, oracle = makers[kind](group)
            expected = [oracle(member) for member in GROUPS[group]]
        else:
            kind = shape.choices(kinds, weights)[0]
            source, oracle = makers[kind](None)
            if "{v}" in source:
                var = rng.choice(names)
                source = source.replace("{v}", var)
                expected = [oracle(var)]
            else:
                expected = [oracle(None)]
        yield index, kind, source, expected


def _yaml_quote(text: str) -> str:
    return "'" + text.replace("'", "''") + "'"


def build_rulebook(work: str, seed: int, n: int, count: int) -> Case:
    rng = random.Random(f"rulebook:{seed}")
    cols = book_columns(rng, n)
    data = os.path.join(work, "book.csv")
    _write_csv(data, cols)

    defs = os.path.join(work, "book_defs.txt")
    with open(defs, "w", encoding="utf-8") as fh:
        fh.write("# Variable groups and reference medians shared by the rule book\n")
        for g, members in GROUPS.items():
            fh.write(f"{g} := var_group({', '.join(members)})\n")
        for m, col in MACROS.items():
            fh.write(f"{m} := median({col}, na.rm = TRUE)\n")

    yaml_specs, text_specs = [], []
    yaml_lines = ["rules:"]
    text_lines = ["---", "include:", "  - book_defs.txt", "  - book_meta.yaml", "---", ""]
    for index, kind, source, expected in book_entries(rng, cols, n, count):
        in_yaml = index % BOOK_YAML_SHARE == 0
        name = f"y{index:04d}" if in_yaml else f"r{index:04d}"
        if len(expected) == 1:
            names = [name]
        else:  # a group rule named R expands to R.1, R.2, ...
            names = [f"{name}.{k}" for k in range(1, len(expected) + 1)]
        specs = [RuleSpec(rn, kind, cells) for rn, cells in zip(names, expected)]
        if in_yaml:
            yaml_specs += specs
            yaml_lines += [
                f"  - expr: {_yaml_quote(source)}",
                f"    name: {name}",
                f"    label: {_yaml_quote(f'{kind} check {index}')}",
                f"    description: {_yaml_quote(f'Generated {kind} rule number {index}.')}",
                "    created: '2024-01-01 00:00:00'",
                "    origin: rulebook",
                "    meta:",
                f"      severity: {'warning' if index % 3 else 'error'}",
            ]
        else:
            text_specs += specs
            if index % 7 == 0:
                text_lines.append(f"# {kind} rule {index}")
            text_lines.append(f"{name}: {source}")
            if index % 5 == 0:
                text_lines.append("")
    meta = os.path.join(work, "book_meta.yaml")
    with open(meta, "w", encoding="utf-8") as fh:
        fh.write("\n".join(yaml_lines) + "\n")
    rule_path = os.path.join(work, "book_rules.txt")
    with open(rule_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(text_lines) + "\n")

    # included files are read first, so the YAML rules come first
    specs = yaml_specs + text_specs
    return check_case(data, rule_path, None, "text", os.path.join(work, "book.text"), specs,
                      text_check(specs))


# ---------------------------------------------------------------------------
# Versions: a survey edited step by step
# ---------------------------------------------------------------------------

VALIDATION_STATUSES = (
    "validations", "verifiable", "unverifiable", "still_unverifiable", "new_unverifiable",
    "satisfied", "still_satisfied", "new_satisfied", "violated", "still_violated",
    "new_violated",
)
CELL_STATUSES = (
    "cells", "available", "still_available", "unadapted", "adapted", "imputed",
    "missing", "still_missing", "removed",
)


def next_version(rng: random.Random, cols: dict[str, list]) -> dict[str, list]:
    """Impute some missing numbers, adapt some present ones, remove a few."""
    new = {k: list(v) for k, v in cols.items()}
    for name in SURVEY_NUMERIC:
        xs = new[name]
        for i, x in enumerate(xs):
            r = rng.random()
            if x is None:
                if r < 0.3:
                    xs[i] = rng.randint(0, 1_000)
            elif r < 0.02:
                xs[i] = x + rng.choice((-1, 1)) * rng.randint(1, 100)
            elif r < 0.03:
                xs[i] = None
    sizes = new["size"]
    for i, s in enumerate(sizes):
        if s is None and rng.random() < 0.5:
            sizes[i] = rng.choice(SIZES)
    return new


def _status(cell) -> str:
    return "satisfied" if cell is True else "violated" if cell is False else "unverifiable"


def expected_compare(flat: list[list]) -> dict[str, list[int]]:
    """Sequential transition counts of flattened per-version rule results."""
    counts = {s: [] for s in VALIDATION_STATUSES}
    for i, cells in enumerate(flat):
        prev = flat[max(i - 1, 0)]
        tally = Counter()
        for cur, old in zip(cells, prev):
            status = _status(cur)
            tally["validations"] += 1
            tally[status] += 1
            if status != "unverifiable":
                tally["verifiable"] += 1
            tally[("still_" if status == _status(old) else "new_") + status] += 1
        for s in VALIDATION_STATUSES:
            counts[s].append(tally[s])
    return counts


def expected_cells(frames: list[dict[str, list]]) -> dict[str, list[int]]:
    counts = {s: [] for s in CELL_STATUSES}
    for i, frame in enumerate(frames):
        ref = frames[max(i - 1, 0)]
        tally = Counter()
        for name, cells in frame.items():
            for cur, prev in zip(cells, ref[name]):
                tally["cells"] += 1
                if cur is None:
                    tally["missing"] += 1
                    tally["still_missing" if prev is None else "removed"] += 1
                else:
                    tally["available"] += 1
                    if prev is None:
                        tally["imputed"] += 1
                    else:
                        tally["still_available"] += 1
                        tally["unadapted" if cur == prev else "adapted"] += 1
        for s in CELL_STATUSES:
            counts[s].append(tally[s])
    return counts


def build_versions(work: str, seed: int, n: int) -> Case:
    rng = random.Random(f"versions:{seed}")
    frames = [survey_columns(rng, n)]
    for _ in range(N_VERSIONS - 1):
        frames.append(next_version(rng, frames[-1]))
    names = [f"v{i + 1}" for i in range(N_VERSIONS)]
    paths = [os.path.join(work, f"{v}.csv") for v in names]
    for path, frame in zip(paths, frames):
        _write_csv(path, frame)
    rules = survey_rules(n)
    rule_path = os.path.join(work, "survey_rules.txt")
    _write_survey_rules(rule_path, rules)

    flat = []
    for frame in frames:
        flat.append([c for spec in _survey_specs(rules, frame) for c in spec.cells])
    validations = expected_compare(flat)
    cells = expected_cells(frames)

    compare_out = os.path.join(work, "compare.csv")
    cells_out = os.path.join(work, "cells.csv")
    kinds = {name: kind for name, kind, _, _ in rules}
    compare = Command(
        ["compare", *paths, "--rules", rule_path, "--format", "csv", "--out", compare_out],
        expected_exit=0,
        out=compare_out,
        check=table_check(VALIDATION_STATUSES, names, validations),
        trace={"command": "compare", "data": paths, "rules": rule_path, "key": None,
               "format": "csv", "out": compare_out, "kinds": kinds},
    )
    cells_cmd = Command(
        ["cells", *paths, "--format", "csv", "--out", cells_out],
        expected_exit=0,
        out=cells_out,
        check=table_check(CELL_STATUSES, names, cells),
        trace={"command": "cells", "data": paths, "rules": None, "key": None,
               "format": "csv", "out": cells_out, "kinds": {}},
    )
    items = sum(validations["validations"]) + sum(cells["cells"])
    return Case([compare, cells_cmd], items=items)


def build(workload: str, seed: int, work: str, sizes: dict = FULL) -> Case:
    """Generate the inputs of one workload into ``work`` and return its commands."""
    os.makedirs(work, exist_ok=True)
    if workload == "survey-summary":
        return build_survey(work, seed, sizes["survey_rows"], "text")
    if workload == "survey-records":
        return build_survey(work, seed, sizes["survey_rows"], "json")
    if workload == "rulebook":
        return build_rulebook(work, seed, sizes["book_rows"], sizes["book_entries"])
    if workload == "versions":
        return build_versions(work, seed, sizes["version_rows"])
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
