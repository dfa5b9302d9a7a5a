"""Traced in-process run of one checkmate command.

Usage: python3 perfbench/traced.py SRC SPEC.json RESULT.json

SRC is the directory holding the ``checkmate`` package. SPEC.json describes
one command as ``workloads.Command.trace`` does. The pipeline calls the same
public functions, in the same order, as ``checkmate <command>`` and records
a span (id, name, start, end, parent) around each. A second pass, outside the
pipeline spans, times ``dsl.parse``, ``prepare_rule`` and ``eval_expr`` rule
by rule, and ``summarize`` and ``to_records`` once each; its numbers are
reported beside the pipeline's, never added into them. The tracing overhead
is the number of pipeline spans times the cost of one empty span, timed in
the same process. Spans, per-rule times, counts and the overhead are kept in
memory and written to RESULT.json at the end. The
banner goes to stdout and the command's output to its ``out`` file, exactly
as the CLI writes them, so the benchmark checks them the same way.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1]["id"] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run(spec: dict, tr: Tracer) -> dict:
    import checkmate
    from checkmate import cli, dsl, engine
    from checkmate.errors import EvalError

    command, fmt, out = spec["command"], spec["format"], spec["out"]
    counts = {"ingest_rows": 0, "items": 0, "rule_errors": 0}
    exit_code = 0
    v = rs = None
    frames = []

    with tr.span("pipeline"):
        for path in spec["data"]:
            with tr.span("cli.ingest"):
                frames.append(checkmate.ingest_csv(path))
            counts["ingest_rows"] += frames[-1].n
            counts.setdefault("ingest_rss_mb", peak_rss_mb())
        if spec["rules"]:
            with tr.span("rule_io.read_rules"):
                rs, warnings = checkmate.read_rules(spec["rules"])
            for w in warnings:
                print(w, file=sys.stderr)
        if command == "check":
            with tr.span("engine.confront"):
                v = checkmate.confront(frames[0], rs, key=spec["key"])
            with tr.span("cli.banner"):
                print(cli.banner(v))
            with tr.span("cli.emit"):
                with open(out, "w", encoding="utf-8") as fh:
                    cli.emit(v, fmt, fh)
            with tr.span("cli.exit_code"):
                exit_code = cli._validation_exit_code(v, False)
        else:
            versions = {
                os.path.splitext(os.path.basename(p))[0]: f for p, f in zip(spec["data"], frames)
            }
            if command == "compare":
                with tr.span("diffs.compare_validations"):
                    table = checkmate.compare_validations(rs, versions)
            else:
                with tr.span("diffs.compare_cells"):
                    table = checkmate.compare_cells(versions)
                counts["cells_classified"] = sum(table.counts["cells"])
            with tr.span("cli.emit"):
                with open(out, "w", encoding="utf-8") as fh:
                    cli.emit(table, fmt, fh)
            # the CLI exits 0 once a status table is written
    pipeline_spans = len(tr.spans)
    counts["emit_rss_mb"] = peak_rss_mb()
    counts["emit_bytes"] = os.path.getsize(out)

    rule_times = []
    with tr.span("detail"):
        if rs is not None:
            counts["rules"] = len(rs)
            sources = [r.source() for r in rs.rules]
            with tr.span("dsl.parse"):
                for src in sources:
                    dsl.parse(src)
            opts = rs.resolved_options(None)
            kinds = spec["kinds"]
            for frame in frames:
                if command == "compare":
                    with tr.span("engine.confront"):
                        validation = checkmate.confront(frame, rs)
                    _count_outcomes(validation, counts)
                with tr.span("engine.rules"):
                    for rule in rs.rules:
                        t0 = time.perf_counter()
                        body = engine.prepare_rule(rule, opts)
                        t1 = time.perf_counter()
                        try:
                            checkmate.eval_expr(body, frame)
                            error = False
                        except EvalError:
                            error = True
                        t2 = time.perf_counter()
                        rule_times.append({
                            "name": rule.name, "kind": kinds.get(rule.name, "other"),
                            "prepare_s": t1 - t0, "eval_s": t2 - t1,
                            "error": error,
                        })
        if v is not None:
            _count_outcomes(v, counts)
            with tr.span("results.summarize"):
                checkmate.summarize(v)
            with tr.span("results.to_records"):
                counts["records"] = len(checkmate.to_records(v))
    return {"exit_code": exit_code, "spans": tr.spans, "rules": rule_times, "counts": counts,
            "overhead_s": pipeline_spans * span_cost_s()}


def span_cost_s(samples: int = 2000) -> float:
    """Mean seconds one empty span costs, timed on a tracer of its own."""
    probe = Tracer()
    t0 = time.perf_counter()
    for _ in range(samples):
        with probe.span("probe"):
            pass
    return (time.perf_counter() - t0) / samples


def _count_outcomes(v, counts: dict) -> None:
    for o in v.outcomes:
        if o.result is None:
            counts["rule_errors"] += 1
        else:
            counts["items"] += len(o.result)


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    src, spec_path, result_path = argv
    sys.path.insert(0, src)
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    result = run(spec, Tracer())
    sys.stdout.flush()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
