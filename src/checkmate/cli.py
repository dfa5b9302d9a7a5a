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
from contextlib import contextmanager
from itertools import repeat
from typing import TYPE_CHECKING

from . import rule_io
from .engine import Validation, confront
from .errors import CheckmateError, DataError, ParseError, RuleIOError, RuleSetError
from .frame import ingest_csv
from .rules import RuleSet, parse_option

if TYPE_CHECKING:
    from .diffs import StatusTable

# Each command imports what only it uses (json, diffs, results, the charts)
# where it uses it: a command is a process of its own, and start-up is a
# large part of its time.

RULES_PATH_ENV = "CHECKMATE_RULES_PATH"

# bar and legend colours, in the order of the pass, fail and NA counts
PALETTE = {"pass": "#2e7d32", "fail": "#c62828", "na": "#9e9e9e"}


# ---------------------------------------------------------------------------
# Emitters
# ---------------------------------------------------------------------------


_SUMMARY_HEADER = ["name", "items", "passes", "fails", "nNA", "error", "warning", "expression"]


def _summary_dicts(v: Validation) -> list[dict]:
    from .results import summarize

    return [{h: getattr(r, h) for h in _SUMMARY_HEADER} for r in summarize(v)]


def _status_dicts(table: StatusTable) -> list[dict]:
    out = []
    for status in table.statuses:
        row = {"status": status}
        for i, version in enumerate(table.version_names):
            row[version] = table.counts[status][i]
        out.append(row)
    return out


def _write_csv(rows: list[dict], header: list[str], out) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_plain(row[h]) for h in header])


def _plain(value):
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if value is None:
        return "NA"
    return value


def _write_text_table(rows: list[dict], header: list[str], out) -> None:
    cells = [[str(_plain(row[h])) for h in header] for row in rows]
    widths = [max([len(h)] + [len(r[i]) for r in cells]) for i, h in enumerate(header)]
    out.write("  ".join(h.rjust(w) for h, w in zip(header, widths)).rstrip() + "\n")
    for r in cells:
        out.write("  ".join(c.rjust(w) for c, w in zip(r, widths)).rstrip() + "\n")


def _write_table(rows: list[dict], header: list[str], fmt: str, out, title: str) -> None:
    """Rows as a json object with the one member ``title``, as csv, or as aligned text."""
    if fmt == "json":
        import json

        json.dump({title: rows}, out, indent=2)
        out.write("\n")
    elif fmt == "csv":
        _write_csv(rows, header, out)
    else:
        _write_text_table(rows, header, out)


_JSON_VALUE = {True: "true", False: "false", None: "null"}
_CSV_VALUE = {True: "TRUE", False: "FALSE", None: "NA"}


def _write_json(v: Validation, out) -> None:
    """Write {"summary": ..., "records": ...} as json.dump(..., indent=2) lays it out.

    The records are streamed rule by rule: a rule's name and expression and
    each key id are encoded once, so an item costs one table lookup.
    """
    import json

    head = json.dumps({"summary": _summary_dicts(v)}, indent=2)
    out.write(head[: -len("\n}")] + ',\n  "records": [')
    ids = None
    if v.key_values is not None:
        ids = ['\n    {\n      "id": ' + json.dumps(k) for k in v.key_values]
    separator = ""
    for o in v.outcomes:
        if not o.values:
            continue
        tails = {
            cell: f',\n      "name": {json.dumps(o.name)},\n      "value": {text},'
            f'\n      "expression": {json.dumps(o.expression)}\n    }}'
            for cell, text in _JSON_VALUE.items()
        }
        if v.aligned(o.values):
            items = map(operator.add, ids, map(tails.__getitem__, o.result))
        else:
            unkeyed = {cell: '\n    {\n      "id": null' + t for cell, t in tails.items()}
            items = map(unkeyed.__getitem__, o.result)
        out.write(separator)
        out.write(",".join(items))
        separator = ","
    out.write("\n  ]\n}\n" if separator else "]\n}\n")


def _write_csv_records(v: Validation, out) -> None:
    """One (id, name, value, expression) row per rule item, streamed rule by rule."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["id", "name", "value", "expression"])
    ids = [_plain(k) for k in v.key_values] if v.key_values is not None else None
    for o in v.outcomes:
        if o.values is None:
            continue
        values = map(_CSV_VALUE.__getitem__, o.result)
        if v.aligned(o.values):
            writer.writerows(zip(ids, repeat(o.name), values, repeat(o.expression)))
        else:
            writer.writerows(zip(repeat("NA"), repeat(o.name), values, repeat(o.expression)))


def emit(payload, fmt: str, out) -> None:
    """Serialize a Validation or StatusTable as csv, json, or aligned text.

    For a Validation, text writes the per-rule summary only; json writes the
    summary and every rule item, csv every rule item, both streamed rule by
    rule.
    """
    if isinstance(payload, Validation):
        if fmt == "json":
            _write_json(payload, out)
        elif fmt == "csv":
            _write_csv_records(payload, out)
        else:
            _write_text_table(_summary_dicts(payload), _SUMMARY_HEADER, out)
        return
    from .diffs import StatusTable

    if isinstance(payload, StatusTable):
        header = ["status"] + list(payload.version_names)
        _write_table(_status_dicts(payload), header, fmt, out, "statuses")
        return
    raise DataError(f"cannot emit {type(payload).__name__}")


def emit_summary(v: Validation, fmt: str, out) -> None:
    _write_table(_summary_dicts(v), _SUMMARY_HEADER, fmt, out, "summary")


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
    rs, warnings = rule_io.read_rules(_rules_path(args))
    for w in warnings:
        print(w, file=sys.stderr)
    return rs


def _open_out(path: str, **kwargs):
    try:
        return open(path, "w", encoding="utf-8", **kwargs)
    except OSError as err:
        raise DataError(f"cannot write {path}: {err}") from err


@contextmanager
def _output(args: argparse.Namespace):
    """The --out file, or stdout when none is given."""
    if not args.out:
        yield sys.stdout
        return
    with _open_out(args.out) as fh:
        yield fh


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
    rs = _load_rules(args)
    return confront(ingest_csv(args.data[0]), rs, key=args.key, opts=args.options)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _per_version(fn, paths: list[str]) -> dict:
    """``fn(path)`` of each data file, keyed by version name (the file's base name).

    With more than one usable CPU and file and with ``fork``, ``_forked`` shares
    them out; otherwise they are done here in turn. Either way the first
    failing file, in the order given, raises its error.
    """
    files: dict[str, str] = {}  # version name -> data file
    for path in paths:
        name = os.path.splitext(os.path.basename(path))[0]
        if name in files:
            raise DataError(f"data files {files[name]} and {path} share the version name {name!r}")
        files[name] = path
    workers = min(len(files), _usable_cpus())
    if workers > 1 and hasattr(os, "fork"):
        return dict(zip(files, _forked(fn, list(files.values()), workers)))
    return dict(zip(files, map(fn, files.values())))


def _forked(fn, paths: list[str], workers: int) -> list:
    """``fn`` of each path, in order, from at most ``workers`` runs of the paths:
    this process does the first while a forked child does each other one and
    sends back through a pipe one pickle of its results or of its first error."""
    import pickle
    import signal

    size = -(-len(paths) // workers)  # files per run, rounded up
    # a child would write out again what is still buffered here
    sys.stdout.flush()
    sys.stderr.flush()
    children, sent, codes = [], [], []  # (pid, read end of its pipe); its bytes; its exit code
    results = None
    try:
        for start in range(size, len(paths), size):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child: it leaves only through os._exit
                try:
                    # pickled whole before the write, which waits for the parent to read
                    try:
                        data = pickle.dumps(list(map(fn, paths[start : start + size])))
                    except Exception as err:  # the parent raises it after the files before it
                        data = pickle.dumps(err)
                    with open(w, "wb") as pipe:
                        pipe.write(data)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(w)
            children.append((pid, r))
        results = list(map(fn, paths[:size]))  # an error here comes before any child's
    finally:
        for pid, r in children:
            if results is None:  # left early: stop the children still at work
                os.kill(pid, signal.SIGKILL)
            with open(r, "rb") as pipe:
                sent.append(pipe.read())
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for code, data in zip(codes, sent):
        if code or not data:
            raise RuntimeError(f"a worker process exited with code {code} and no result")
        done = pickle.loads(data)
        if isinstance(done, Exception):
            raise done
        results += done
    return results


def _compare_validations(args: argparse.Namespace) -> StatusTable:
    from . import diffs

    rs = _load_rules(args)

    def confront_file(path):
        return diffs.confront_version(ingest_csv(path), rs, args.options)

    return diffs.tally_validations(_per_version(confront_file, args.data), how=args.how)


def _compare_cells(args: argparse.Namespace) -> StatusTable:
    from .diffs import compare_cells

    return compare_cells(_per_version(ingest_csv, args.data), how=args.how)


def _check(args: argparse.Namespace) -> int:
    v = _confront_single(args)
    print(banner(v))
    with _output(args) as out:
        emit(v, args.format, out)
    return _validation_exit_code(v, args.strict)


def _summary(args: argparse.Namespace) -> int:
    v = _confront_single(args)
    with _output(args) as out:
        emit_summary(v, args.format, out)
    return _validation_exit_code(v, args.strict)


def _lint(args: argparse.Namespace) -> int:
    """Exit 2 for a rule file that does not load or that loads with warnings."""
    path = _rules_path(args)
    try:
        rs, warnings = rule_io.read_rules(path)
    except (ParseError, RuleIOError, RuleSetError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    for w in warnings:
        print(w, file=sys.stderr)
    print(f"{len(rs)} rule(s) parsed")
    return 2 if warnings else 0


def _export(args: argparse.Namespace) -> int:
    rs = _load_rules(args)
    if not args.out:
        raise DataError("export needs --out")
    lower = args.out.lower()
    if lower.endswith((".yml", ".yaml")):
        rule_io.export_yaml(rs, args.out)
    elif lower.endswith(".csv"):
        rows = rule_io.rules_to_table(rs)
        with _open_out(args.out, newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rule_io.TABLE_COLUMNS), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
    else:
        with _open_out(args.out) as fh:
            for r in rs.rules:
                if r.description:
                    for line in r.description.splitlines():
                        fh.write(f"# {line}\n")
                fh.write(f"{r.name}: {r.source()}\n\n")
    return 0


def _status_command(table_of):
    """The command that writes the status table ``table_of(args)`` of two or more versions."""

    def command(args: argparse.Namespace) -> int:
        if len(args.data) < 2:
            raise DataError(f"{args.command} needs at least two data files")
        table = table_of(args)
        with _output(args) as out:
            emit(table, args.format, out)
        return 0

    return command


def _plot(args: argparse.Namespace) -> int:
    if not args.out:
        raise DataError("plot needs --out")
    from .charts import svg_bar_chart, svg_line_chart

    if len(args.data) == 1:
        svg = svg_bar_chart(_confront_single(args), PALETTE)
    else:
        svg = svg_line_chart(_compare_validations(args))
    with _open_out(args.out) as fh:
        fh.write(svg + "\n")
    return 0


# command name -> handler; the parser offers exactly these commands
COMMANDS = {
    "check": _check,
    "summary": _summary,
    "lint": _lint,
    "export": _export,
    "compare": _status_command(_compare_validations),
    "cells": _status_command(_compare_cells),
    "plot": _plot,
}


# ---------------------------------------------------------------------------
# Argument parsing and the one error boundary
# ---------------------------------------------------------------------------


def _parse_option(text: str) -> tuple[str, object]:
    if "=" not in text:
        raise DataError(f"--set expects option=value, got {text!r}")
    name, raw = text.split("=", 1)
    name = name.strip()
    return name, parse_option(name, raw.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="checkmate", description="Validate tabular data against a rule file."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("data", nargs="*", help="CSV data file(s)")
        p.add_argument("--rules", help="rule file (text or YAML)")
        p.add_argument("--key", help="unique record identifier column")
        p.add_argument("--format", choices=["csv", "json", "text"], default="text")
        p.add_argument("--out", help="output path")
        p.add_argument(
            "--set", action="append", default=[], metavar="OPTION=VALUE",
            help="confrontation option override (repeatable)",
        )
        p.add_argument("--how", choices=["sequential", "to_first"], default="sequential")
        p.add_argument("--strict", action="store_true")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as err:
        return 3 if err.code not in (0, None) else 0
    # Loaded frames and results are large and acyclic; at the default
    # threshold the cyclic collector walks them over and over. Worker
    # processes inherit the setting.
    thresholds = gc.get_threshold()
    gc.set_threshold(100_000, 50, 100)
    try:
        args.options = dict(_parse_option(s) for s in args.set) or None
        return COMMANDS[args.command](args)
    except CheckmateError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except Exception as err:  # a defect of checkmate: report it without a traceback
        message = str(err).replace("\n", " ")
        print(f"error: internal: {type(err).__name__}: {message}", file=sys.stderr)
        return 4
    finally:
        gc.set_threshold(*thresholds)


if __name__ == "__main__":
    sys.exit(main())
