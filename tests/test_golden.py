"""Every command's output, byte for byte.

``golden/sample_<command>_<keyed|unkeyed>.<format>`` holds what
``checkmate <command> sample/retailers_synthetic.csv --rules
sample/retailers_rules.txt --format <format> [--key id]`` printed on stdout
before the evaluator became columnar; ``check --format csv|json`` now writes
its banner to stderr instead, so that stdout is CSV or JSON alone.

``golden/cli/<case>.json`` holds, for each case of ``CASES``, the stdout,
stderr, exit code and ``--out`` file of ``checkmate <args>`` run in a
directory holding the sample, its rule file, two later versions of the
sample (``golden/retailers_v2.csv`` and ``retailers_v3.csv``, with cells
changed, imputed and removed) and the rule files of ``RULE_FILES``. A rule's
``created`` time is masked. Run this file as a script to write the cases
again (``PYTHONPATH=src python3 tests/test_golden.py``).

Any change to these files is a change of output that a release note has to
name.
"""

import contextlib
import io
import json
import os
import re
import shutil
import sys
import tempfile

import pytest

from checkmate import cli

from conftest import SAMPLE_DATA, SAMPLE_RULES

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
CASE_DIR = os.path.join(GOLDEN, "cli")

DATA, RULES = "retailers_synthetic.csv", "retailers_rules.txt"
VERSIONS = [DATA, "retailers_v2.csv", "retailers_v3.csv"]

RULE_FILES = {
    "invalid_rules.txt": "st: staff >= 0\nstaff + 1\nbl: turnover + other.rev == total.rev\n",
    "broken_rules.txt": "st: staff >= 0\nto: turnover >=\n",
}

CASES = {
    "lint": ["lint", "--rules", RULES],
    "lint_invalid": ["lint", "--rules", "invalid_rules.txt"],
    "lint_broken": ["lint", "--rules", "broken_rules.txt"],
    **{
        f"export_{ext}": ["export", "--rules", RULES, "--out", f"rules.{ext}"]
        for ext in ("yml", "csv", "txt")
    },
    **{
        f"{command}_{how}_{fmt}": [command, *VERSIONS, "--format", fmt, "--how", how]
        + (["--rules", RULES] if command == "compare" else [])
        for command in ("compare", "cells")
        for how in ("sequential", "to_first")
        for fmt in ("text", "csv", "json")
    },
    "plot_one": ["plot", DATA, "--rules", RULES, "--out", "plot.svg"],
    "plot_two": ["plot", *VERSIONS[:2], "--rules", RULES, "--out", "plot.svg"],
}

# what check writes before its output: on stderr when stdout holds CSV or JSON
SAMPLE_BANNER = "Confrontations: 6\nWith fails    : 2\nWarnings      : 0\nErrors        : 0\n"

_CREATED = re.compile(r"\d{4}-\d\d-\d\d \d\d:\d\d:\d\d")


@pytest.mark.parametrize("keyed", ["keyed", "unkeyed"])
@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("command", ["check", "summary"])
def test_sample_output_is_unchanged(capsys, command, fmt, keyed):
    args = [command, SAMPLE_DATA, "--rules", SAMPLE_RULES, "--format", fmt]
    assert cli.main(args + (["--key", "id"] if keyed == "keyed" else [])) == 1
    with open(os.path.join(GOLDEN, f"sample_{command}_{keyed}.{fmt}"), encoding="utf-8") as fh:
        expected = fh.read()
    stderr = SAMPLE_BANNER if command == "check" and fmt != "text" else ""
    assert capsys.readouterr() == (expected, stderr)


def _inputs(where: str) -> None:
    shutil.copy(SAMPLE_DATA, os.path.join(where, DATA))
    shutil.copy(SAMPLE_RULES, os.path.join(where, RULES))
    for name in VERSIONS[1:]:
        shutil.copy(os.path.join(GOLDEN, name), os.path.join(where, name))
    for name, text in RULE_FILES.items():
        with open(os.path.join(where, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def _run_case(args: list[str], where: str) -> dict:
    """What ``checkmate <args>`` does when run in ``where``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(where)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(list(args))
        out = None
        if "--out" in args:
            with open(args[args.index("--out") + 1], encoding="utf-8") as fh:
                out = _CREATED.sub("<created>", fh.read())
    finally:
        os.chdir(cwd)
    return {
        "args": args, "exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
        "out": out,
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_command_output_is_unchanged(tmp_path, case):
    _inputs(str(tmp_path))
    with open(os.path.join(CASE_DIR, f"{case}.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    assert _run_case(CASES[case], str(tmp_path)) == expected


@pytest.mark.parametrize("cpus", [1, 2], ids=["in-process", "workers"])
@pytest.mark.parametrize(
    "case", sorted(c for c in CASES if c.startswith(("compare_", "cells_")) or c == "plot_two")
)
def test_workers_and_in_process_give_the_same_output(tmp_path, usable_cpus, case, cpus):
    pools = usable_cpus(cpus)
    _inputs(str(tmp_path))
    with open(os.path.join(CASE_DIR, f"{case}.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    assert _run_case(CASES[case], str(tmp_path)) == expected
    assert len(pools) == (cpus > 1)


def _write_cases() -> None:
    os.makedirs(CASE_DIR, exist_ok=True)
    for case, args in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as where:
            _inputs(where)
            got = _run_case(args, where)
        with open(os.path.join(CASE_DIR, f"{case}.json"), "w", encoding="utf-8") as fh:
            json.dump(got, fh, indent=2, ensure_ascii=False)
            fh.write("\n")
        print(f"{case}: exit {got['exit']}", file=sys.stderr)


if __name__ == "__main__":
    _write_cases()
