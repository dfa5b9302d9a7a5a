"""The sample commands' output, byte for byte.

``golden/sample_<command>_<keyed|unkeyed>.<format>`` holds what
``checkmate <command> sample/retailers_synthetic.csv --rules
sample/retailers_rules.txt --format <format> [--key id]`` printed on stdout
before the evaluator became columnar. Any change to these files is a change
of output that a release note has to name.
"""

import os

import pytest

from checkmate import cli

from conftest import SAMPLE_DATA, SAMPLE_RULES

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


@pytest.mark.parametrize("keyed", ["keyed", "unkeyed"])
@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("command", ["check", "summary"])
def test_sample_output_is_unchanged(capsys, command, fmt, keyed):
    args = [command, SAMPLE_DATA, "--rules", SAMPLE_RULES, "--format", fmt]
    assert cli.main(args + (["--key", "id"] if keyed == "keyed" else [])) == 1
    with open(os.path.join(GOLDEN, f"sample_{command}_{keyed}.{fmt}"), encoding="utf-8") as fh:
        expected = fh.read()
    assert capsys.readouterr() == (expected, "")
