"""Command-line front end: check data files against rule files and report.

The commands are the keys of ``COMMANDS``.
Exit codes: 0 all validations pass, 1 at least one fail, 2 rule errors (or
only unverifiable results under --strict), 3 usage or I/O error, 4 an
internal error (a defect of checkmate, reported on one line).
"""

from __future__ import annotations

import argparse
import csv
import gc
import operator
import os
import sys
from contextlib import contextmanager, nullcontext
from itertools import islice, repeat
from types import SimpleNamespace
from typing import TYPE_CHECKING

from . import frame
from .errors import CheckmateError, DataError, ParseError, RuleIOError, RuleSetError
from .frame import fill, ingest_csv

if TYPE_CHECKING:
    from .diffs import StatusTable
    from .engine import Validation
    from .rules import RuleSet

# Each command imports what only it uses where it uses it (the rule modules,
# json, diffs, results, the charts): a command is a process of its own, and
# start-up, compiling each module anew where no bytecode is cached, is much of it.

RULES_PATH_ENV = "CHECKMATE_RULES_PATH"


# ---------------------------------------------------------------------------
# Emitters
# ---------------------------------------------------------------------------


def _summary_rows(v: Validation) -> tuple[list[str], list[list]]:
    """The summary table's header, ``SummaryRow``'s fields, and a row per rule."""
    from .results import SummaryRow, summarize

    header = list(SummaryRow._fields)
    return header, [[getattr(r, h) for h in header] for r in summarize(v)]


def _plain(value):
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if value is None:
        return "NA"
    return value


def _json_table(header: list[str], rows: list[list], title: str) -> str:
    """A json object whose one member ``title`` lists the rows as objects, as
    json.dumps(..., indent=2) lays it out."""
    import json

    return json.dumps({title: [dict(zip(header, row)) for row in rows]}, indent=2)


def _write_table(header: list[str], rows: list[list], fmt: str, out, title: str) -> None:
    """Rows as ``_json_table``, as csv, or as right-aligned text."""
    if fmt == "json":
        out.write(_json_table(header, rows, title) + "\n")
        return
    lines = [header] + [[str(_plain(cell)) for cell in row] for row in rows]
    if fmt == "csv":
        csv.writer(out, lineterminator="\n").writerows(lines)
        return
    widths = [max(map(len, column)) for column in zip(*lines)]
    for line in lines:
        out.write("  ".join(map(str.rjust, line, widths)).rstrip() + "\n")


_RECORDS_PER_WRITE = 4096  # records per write: a rule's records are never all held as text


def _write_records(v: Validation, out, id_text, tail_text, sep: str) -> bool:
    """Write a record per rule item, rule by rule, joined by ``sep``; whether any was written.

    A record is ``id_text(key id)``, or ``id_text(None)`` where the rule's
    items are not the records, followed by ``tail_text(outcome, cell)`` for
    its cell: True, False or None (unverifiable). Each id's text is made once
    per validation and each rule's tail once per cell, so an item costs one
    lookup and one concatenation. Records are joined and written
    ``_RECORDS_PER_WRITE`` at a time.
    """
    ids = None if v.key_values is None else list(map(id_text, v.key_values))
    unkeyed = repeat(id_text(None))
    written = False
    for o in v.outcomes:
        if not o.values:
            continue
        tails = {cell: tail_text(o, cell) for cell in (True, False, None)}
        cells = fill(list(map(tails.__getitem__, o.values)), o.na, tails[None])
        records = map(operator.add, ids if v.aligned(o.values) else unkeyed, cells)
        while part := sep.join(islice(records, _RECORDS_PER_WRITE)):
            if written:
                out.write(sep)
            out.write(part)
            written = True
    return written


def _write_json(v: Validation, out) -> None:
    """Write {"summary": ..., "records": ...} as json.dump(..., indent=2) lays it out."""
    import json

    def id_text(key):
        return '\n    {\n      "id": ' + json.dumps(key)

    def tail_text(o, cell):
        return (
            f',\n      "name": {json.dumps(o.name)},\n      "value": {json.dumps(cell)},'
            f'\n      "expression": {json.dumps(o.expression)}\n    }}'
        )

    head = _json_table(*_summary_rows(v), "summary")
    out.write(head[: -len("\n}")] + ',\n  "records": [')
    any_records = _write_records(v, out, id_text, tail_text, ",")
    out.write("\n  ]\n}\n" if any_records else "]\n}\n")


def _write_csv_records(v: Validation, out) -> None:
    """One (id, name, value, expression) row per rule item."""
    # writerow returns what its file's write returns, here the row's text
    line = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow
    out.write("id,name,value,expression\n")
    _write_records(
        v, out, lambda key: line([_plain(key), ""])[:-1],
        lambda o, cell: line([o.name, _plain(cell), o.expression]), "",
    )


def emit(payload, fmt: str, out) -> None:
    """Serialize a Validation or StatusTable as csv, json, or aligned text.

    For a Validation, text writes the per-rule summary only; json writes the
    summary and every rule item, csv every rule item, both streamed rule by
    rule.
    """
    from .engine import Validation

    if isinstance(payload, Validation):
        if fmt == "json":
            _write_json(payload, out)
        elif fmt == "csv":
            _write_csv_records(payload, out)
        else:
            emit_summary(payload, fmt, out)
        return
    from .diffs import StatusTable

    if isinstance(payload, StatusTable):
        _write_table(*_status_rows(payload), fmt, out, "statuses")
        return
    raise DataError(f"cannot emit {type(payload).__name__}")


def _status_rows(table: StatusTable) -> tuple[list[str], list[list]]:
    """A status table's header and rows; a version named ``status`` is refused."""
    if "status" in table.version_names:
        raise DataError("a version named 'status' would share the name of the status column")
    return ["status", *table.version_names], [[s, *table.counts[s]] for s in table.statuses]


def emit_summary(v: Validation, fmt: str, out) -> None:
    _write_table(*_summary_rows(v), fmt, out, "summary")


# ---------------------------------------------------------------------------
# Commands: each takes the parsed arguments and returns the exit code
# ---------------------------------------------------------------------------


def _rules_path(args: argparse.Namespace) -> str:
    """The --rules file as given, or else in the directory that ``RULES_PATH_ENV`` names."""
    if not args.rules:
        raise DataError("--rules is required for this command")
    if os.path.exists(args.rules):
        return args.rules
    search = os.environ.get(RULES_PATH_ENV)
    if search:
        candidate = os.path.join(search, args.rules)
        if os.path.exists(candidate):
            return candidate
    raise RuleIOError(f"rules file not found: {args.rules}")


def _load_rules(args: argparse.Namespace) -> RuleSet:
    """The --rules file's rule set; its warnings go to stderr."""
    from . import rule_io

    rs, warnings = rule_io.read_rules(_rules_path(args))
    for w in warnings:
        _say(w)
    return rs


def _to_null(stream) -> None:
    """Point a stream that failed a write at the null device, so that Python's
    flush of it at exit cannot fail again and make the exit code 120."""
    try:
        with open(os.devnull, "wb") as null:
            os.dup2(null.fileno(), stream.fileno())
    except (OSError, ValueError):  # a stream without a descriptor, as under a test
        pass


def _say(line: str) -> None:
    """Write ``line`` to standard error, or drop it: nothing is left to report a failure to."""
    try:
        print(line, file=sys.stderr, flush=True)
    except OSError:
        _to_null(sys.stderr)


@contextmanager
def _output(path: str | None, **kwargs):
    """``path`` open for writing, or else standard output, flushed at the end;
    failing to open, write, flush or close it is a DataError."""
    try:
        with open(path, "w", encoding="utf-8", **kwargs) if path else nullcontext(sys.stdout) as out:
            yield out
            out.flush()  # standard output is not closed, so a failed write shows here
    except OSError as err:
        if not path:
            _to_null(sys.stdout)
        raise DataError(f"cannot write {path or 'standard output'}: {err}") from err


def _validation_exit_code(v: Validation, strict: bool) -> int:
    if any(o.error is not None for o in v.outcomes):
        return 2
    _, passes, fails, nas = map(sum, zip((0, 0, 0, 0), *(o.tally() for o in v.outcomes)))
    if fails:
        return 1
    return 2 if strict and nas and not passes else 0


def banner(v: Validation) -> str:
    outcomes = v.outcomes
    return "\n".join(
        [
            f"Confrontations: {len(outcomes)}",
            f"With fails    : {sum(1 for o in outcomes if o.tally()[2])}",
            f"Warnings      : {sum(1 for o in outcomes if o.warnings)}",
            f"Errors        : {sum(1 for o in outcomes if o.error is not None)}",
        ]
    )


def _confront_single(args: argparse.Namespace) -> Validation:
    if len(args.data) != 1:
        raise DataError(f"{args.command} needs exactly one data file")
    from .engine import confront_csv

    rs, workers = _load_rules(args), frame._usable_cpus()
    return confront_csv(args.data[0], rs, key=args.key, opts=args.options, workers=workers)


def _per_version(fn, paths: list[str]):
    """(version name, ``fn(path)``) of each data file, the name being the file's
    base name, made one at a time as they are asked for.

    With more than one usable CPU and file and with ``fork``, ``_forked`` shares
    the files out; otherwise they are done here in turn. Either way the first
    failing file, in the order given, raises its error.
    """
    files: dict[str, str] = {}  # version name -> data file
    for path in paths:
        name = os.path.splitext(os.path.basename(path))[0]
        if name in files:
            raise DataError(f"data files {files[name]} and {path} share the version name {name!r}")
        files[name] = path
    workers = min(len(files), frame._usable_cpus())
    forked = workers > 1 and hasattr(os, "fork")
    results = (frame._forked(fn, list(files.values()), workers) if forked
               else map(fn, files.values()))
    # a new pair each time: zip would hold the last result while it makes the next
    return ((name, next(results)) for name in files)


def _compare_validations(args: argparse.Namespace) -> StatusTable:
    from . import diffs, engine

    rs = _load_rules(args)

    def confront_file(path):  # read as check reads its file
        return diffs.version(*engine.read_confronting(path, rs, opts=args.options))

    return diffs.tally_validations(_per_version(confront_file, args.data), how=args.how)


def _compare_cells(args: argparse.Namespace) -> StatusTable:
    from .diffs import compare_cells

    return compare_cells(_per_version(ingest_csv, args.data), how=args.how)


def _check(args: argparse.Namespace) -> int:
    v = _confront_single(args)
    if args.out or args.format == "text":
        with _output(None) as out:
            out.write(banner(v) + "\n")
    else:  # standard output holds the CSV or JSON alone
        _say(banner(v))
    with _output(args.out) as out:
        emit(v, args.format, out)
    return _validation_exit_code(v, args.strict)


def _summary(args: argparse.Namespace) -> int:
    v = _confront_single(args)
    with _output(args.out) as out:
        emit_summary(v, args.format, out)
    return _validation_exit_code(v, args.strict)


def _lint(args: argparse.Namespace) -> int:
    """Exit 2 for a rule file that does not load or that loads with warnings."""
    from . import rule_io

    path = _rules_path(args)
    try:
        rs, warnings = rule_io.read_rules(path)
    except (ParseError, RuleIOError, RuleSetError) as err:
        _say(f"error: {err}")
        return 2
    for w in warnings:
        _say(w)
    with _output(None) as out:
        out.write(f"{len(rs)} rule(s) parsed\n")
    return 2 if warnings else 0


def _export(args: argparse.Namespace) -> int:
    from . import rule_io

    rs = _load_rules(args)
    if not args.out:
        raise DataError("export needs --out")
    lower = args.out.lower()
    if lower.endswith((".yml", ".yaml")):
        rule_io.export_yaml(rs, args.out)
    elif lower.endswith(".csv"):
        rows = rule_io.rules_to_table(rs)
        with _output(args.out, newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rule_io.TABLE_COLUMNS), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
    else:
        rule_io.export_text(rs, args.out)
    return 0


def _status_command(table_of):
    """The command that writes the status table ``table_of(args)`` of two or more versions."""

    def command(args: argparse.Namespace) -> int:
        if len(args.data) < 2:
            raise DataError(f"{args.command} needs at least two data files")
        header, rows = _status_rows(table_of(args))  # refused before --out is opened
        with _output(args.out) as out:
            _write_table(header, rows, args.format, out, "statuses")
        return 0

    return command


def _plot(args: argparse.Namespace) -> int:
    if not args.out:
        raise DataError("plot needs --out")
    from .charts import svg_bar_chart, svg_line_chart

    if len(args.data) == 1:
        svg = svg_bar_chart(_confront_single(args))
    else:
        svg = svg_line_chart(_compare_validations(args))
    with _output(args.out) as fh:
        fh.write(svg + "\n")
    return 0


# command name -> its handler and the flags it reads, keys of ``_FLAGS``; the
# parser offers exactly these commands, each with exactly its flags
COMMANDS = {
    "check": (_check, "data --rules --key --format --out --set --strict"),
    "summary": (_summary, "data --rules --key --format --out --set --strict"),
    "lint": (_lint, "--rules --set"),
    "export": (_export, "--rules --out"),
    "compare": (_status_command(_compare_validations), "data --rules --format --out --set --how"),
    "cells": (_status_command(_compare_cells), "data --format --out --how"),
    "plot": (_plot, "data --rules --key --out --set --how"),
}


# ---------------------------------------------------------------------------
# Argument parsing and the one error boundary
# ---------------------------------------------------------------------------


_ASCII_SPACE = " \t\n\r\f\v"


def _parse_option(text: str) -> tuple[str, object]:
    from .rules import parse_option

    if "=" not in text:
        raise DataError(f"--set expects option=value, got {text!r}")
    name, raw = text.split("=", 1)
    # ASCII whitespace only, as around a CSV number cell: "\u00a01" is text there
    name = name.strip(_ASCII_SPACE)
    return name, parse_option(name, raw.strip(_ASCII_SPACE))


class _Parser(argparse.ArgumentParser):
    def _print_message(self, message, file=None):
        """Write help or a usage error as argparse does, but let a failed write
        raise: argparse would drop its OSError and exit 0 after a --help that
        reached no one."""
        if message:
            (file or sys.stderr).write(message)


# flag -> the keyword arguments of its ``add_argument``
_FLAGS = {
    "data": dict(nargs="*", help="CSV data file(s)"),
    "--rules": dict(help="rule file (text or YAML)"),
    "--key": dict(help="unique record identifier column"),
    "--format": dict(choices=["csv", "json", "text"], default="text"),
    "--out": dict(help="output path"),
    "--set": dict(
        action="append", default=[], metavar="OPTION=VALUE",
        help="confrontation option override (repeatable)",
    ),
    "--how": dict(choices=["sequential", "to_first"], default="sequential"),
    "--strict": dict(action="store_true"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="checkmate", description="Validate tabular data against a rule file.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in COMMANDS.items():
        p = sub.add_parser(name)
        for flag in flags.split():
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except (SystemExit, OSError) as err:  # argparse wrote help or a usage error, or failed to
        code = 0 if isinstance(err, SystemExit) and err.code in (0, None) else 3
        for stream in (sys.stdout, sys.stderr):
            try:
                stream.flush()  # buffered, a failed write shows here
            except OSError:
                _to_null(stream)
                code = 3
        return code
    # Loaded frames and results are large and acyclic; at the default
    # threshold the cyclic collector walks them over and over. Worker
    # processes inherit the setting.
    thresholds = gc.get_threshold()
    gc.set_threshold(100_000, 50, 100)
    try:
        args.options = dict(_parse_option(s) for s in getattr(args, "set", ())) or None
        return COMMANDS[args.command][0](args)
    except CheckmateError as err:
        _say(f"error: {err}")
        return 3
    except Exception as err:  # a defect of checkmate: report it without a traceback
        message = str(err).replace("\n", " ")
        _say(f"error: internal: {type(err).__name__}: {message}")
        return 4
    finally:
        gc.set_threshold(*thresholds)


if __name__ == "__main__":
    sys.exit(main())
