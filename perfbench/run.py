"""Benchmark of the checkmate CLI on four seeded workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's inputs are generated from the seed into ``perfbench/_work``
(see ``workloads.py``), and deleted again at the end. The program is the
checkout's own ``src/checkmate``, run from source.

``--trace 0`` measures the end-to-end metrics. Each command of the workload
runs as its own child process calling ``checkmate.cli.main``, one at a time
(closed loop, one client). The workload's commands are repeated until
``--seconds`` is used up, at least ``MIN_PASSES`` times, and the medians are
reported. ``setup_s`` is the median wall time of ``SETUP_REPEATS`` children
that only import ``checkmate.cli``.

Times are reported at reference host speed. On a shared machine the speed
of the same CPU drifts by 15-25% over seconds to tens of seconds, which no
number of repeats within one run averages out. So every child is bracketed
by a calibration child (``CALIB_CHILD``), a fixed stand-in for the
pipeline's kind of work that runs no checkmate code, and its wall time is
scaled by ``CALIB_REF_S`` / (mean of the two calibrations): the time it
would have taken on a host where the calibration child takes
``CALIB_REF_S``. The raw medians are printed beside the result.

``--trace 1`` repeats traced passes (``traced.py``) and reports the median
per-layer metrics over them. Each traced child is bracketed by calibration
children like an untraced one, and its layer times are scaled by the same
factor. The tracing overhead is measured inside the traced child.

Every command's exit code, stderr and output are checked against the oracle
in ``workloads.py``; a command that fails any check counts in ``failed``.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import select
import shutil
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(HERE, "_work")
TRACED = os.path.join(HERE, "traced.py")

# Children put the checkout's src first on sys.path, so an installed copy of
# checkmate can never stand in for the code under test.
CLI_CHILD = (
    "import sys; sys.path.insert(0, sys.argv.pop(1)); "
    "from checkmate.cli import main; sys.exit(main(sys.argv[1:]))"
)
IMPORT_CHILD = "import sys; sys.path.insert(0, sys.argv[1]); import checkmate.cli"
# CSV parsing, float conversion, comparisons and JSON, as in the pipeline.
# A fresh process, like the commands, so start-up and page faults count too.
CALIB_CHILD = """
import csv, io, json
text = "\\n".join(",".join(str((i * 31 + j * 17) % 1000) for j in range(10)) for i in range(4000))
rows = list(csv.reader(io.StringIO(text)))
cols = [[float(r[j]) for r in rows] for j in range(10)]
cells = [[a >= b for a, b in zip(cols[j], cols[j + 1])] for j in range(9)]
json.dumps([{"id": str(i), "value": v} for col in cells[:3] for i, v in enumerate(col)], indent=2)
"""

CALIB_REF_S = 0.15  # the calibration child takes 0.12-0.23 s on the 2-vCPU host of the baseline
SETUP_REPEATS = 11
MIN_PASSES = 3
DEADLINE_S = 170  # a run must end within 180 s, whatever the program does

E2E_UNITS = {"wall_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}
EVAL_KINDS = ("compare", "conditional", "balance", "logic", "aggregate", "membership",
              "fd", "pattern", "unique", "dataset")
LAYER_UNITS = {
    "cli.ingest_s": "s", "cli.ingest_rows": "count", "cli.ingest_rss_mb": "MB",
    "cli.emit_s": "s", "cli.emit_bytes": "bytes", "cli.emit_rss_mb": "MB",
    "rule_io.read_rules_s": "s", "rules.count": "count", "dsl.parse_s": "s",
    "engine.confront_s": "s", "engine.prepare_s": "s", "engine.eval_s": "s",
    **{f"engine.eval_s.{k}": "s" for k in EVAL_KINDS},
    "engine.rule_eval_p50_s": "s", "engine.rule_eval_p99_s": "s",
    "engine.confront_overhead_s": "s", "engine.items": "count", "engine.rule_errors": "count",
    "results.summarize_s": "s", "results.to_records_s": "s", "results.records": "count",
    "diffs.compare_validations_s": "s", "diffs.compare_validations_self_s": "s",
    "diffs.compare_cells_s": "s", "diffs.cells_classified": "count",
    "trace.overhead_s": "s",
}


@dataclass
class Exit:
    code: int
    wall_s: float
    rss_mb: float
    timed_out: bool


def spawn(argv: list[str], stdout: str, stderr: str, deadline: float) -> Exit:
    """Run one child to completion; its own peak RSS comes from wait4."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, stdout, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr, flags, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], os.environ, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], max(0.0, deadline - time.monotonic()))
        if not ready:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    finally:
        os.close(pidfd)
    wall = time.perf_counter() - t0
    return Exit(os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024, not ready)


class Launcher:
    """Starts and reaps every child from a small helper process.

    Linux carries a process's peak RSS across exec, and a child made by fork
    or vfork starts from its parent's peak. This process grows while it
    holds the oracle and checks outputs, so its children would report at
    least that. The helper is forked while this process is still small, so
    a child's ``ru_maxrss`` is the child's own.
    """

    def __init__(self):
        req_r, req_w = os.pipe()
        resp_r, resp_w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            status = 1
            try:
                os.close(req_w)
                os.close(resp_r)
                with os.fdopen(req_r) as requests, os.fdopen(resp_w, "w") as responses:
                    for line in requests:
                        e = spawn(*json.loads(line))
                        responses.write(json.dumps(dataclasses.asdict(e)) + "\n")
                        responses.flush()
                status = 0
            except Exception:
                traceback.print_exc()
            finally:
                os._exit(status)
        os.close(req_r)
        os.close(resp_w)
        self.requests = os.fdopen(req_w, "w")
        self.responses = os.fdopen(resp_r)

    def spawn(self, argv: list[str], stdout: str, stderr: str, deadline: float) -> Exit:
        self.requests.write(json.dumps([argv, stdout, stderr, deadline]) + "\n")
        self.requests.flush()
        line = self.responses.readline()
        if not line:
            raise RuntimeError("the launcher process has died")
        return Exit(**json.loads(line))

    def close(self) -> None:
        self.requests.close()
        os.waitpid(self.pid, 0)
        self.responses.close()


class Tally:
    """Commands attempted and failed; a command's output is checked against
    the oracle once, and later byte-identical output is accepted by digest."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self._verified: dict[str, str] = {}

    def judge(self, cmd: workloads.Command, code: int, timed_out: bool,
              stdout: str, stderr: str) -> None:
        self.attempted += 1
        problem = self._problem(cmd, code, timed_out, stdout, stderr)
        if problem:
            self.failed += 1
            print(f"FAILED {' '.join(cmd.args[:1])}: {problem}", file=sys.stderr)

    def _problem(self, cmd, code, timed_out, stdout, stderr) -> str | None:
        if timed_out:
            return "timed out"
        with open(stderr, encoding="utf-8", errors="replace") as fh:
            err = fh.read()
        if "Traceback" in err:
            return "traceback on stderr:\n" + err[-2000:]
        if code != cmd.expected_exit:
            return f"exit code {code}, expected {cmd.expected_exit}"
        digest = hashlib.sha256()
        for path in (cmd.out, stdout):
            with open(path, "rb") as fh:
                digest.update(fh.read())
        if self._verified.get(cmd.out) == digest.hexdigest():
            return None
        problem = cmd.check(cmd.out, stdout)
        if problem is None:
            self._verified[cmd.out] = digest.hexdigest()
        return problem


class Bench:
    def __init__(self, case: workloads.Case, work: str, deadline: float, launcher: Launcher):
        self.case = case
        self.work = work
        self.deadline = deadline
        self.spawn = launcher.spawn
        self.tally = Tally()
        self.stdout = os.path.join(work, "child.stdout")
        self.stderr = os.path.join(work, "child.stderr")
        self.calibration = self.calibrate()

    def calibrate(self) -> float:
        """Seconds this host currently takes to run the calibration child."""
        log = os.path.join(self.work, "calibration.log")
        e = self.spawn(["-c", CALIB_CHILD], os.devnull, log, self.deadline)
        if e.code != 0 or e.timed_out:
            raise RuntimeError(f"the calibration child failed with exit code {e.code}")
        return e.wall_s

    def timed(self, argv: list[str]) -> tuple[Exit, float]:
        """Run one child; return its exit and the factor that scales its
        times to reference host speed."""
        before = self.calibration
        e = self.spawn(argv, self.stdout, self.stderr, self.deadline)
        self.calibration = self.calibrate()
        return e, CALIB_REF_S / ((before + self.calibration) / 2)

    def setup_s(self, repeats: int) -> tuple[float, float]:
        """Median (raw, reference-speed) wall time of a child that imports the CLI."""
        raw, scaled = [], []
        for _ in range(repeats):
            e, factor = self.timed(["-c", IMPORT_CHILD, SRC])
            if e.code != 0 or e.timed_out:
                raise RuntimeError(f"importing checkmate.cli failed with exit code {e.code}")
            raw.append(e.wall_s)
            scaled.append(e.wall_s * factor)
        return statistics.median(raw), statistics.median(scaled)

    def plain_pass(self) -> tuple[float, float, float]:
        """Run every command once; return (raw wall, reference-speed wall,
        highest child peak RSS)."""
        raw, wall, rss = 0.0, 0.0, 0.0
        for cmd in self.case.commands:
            e, factor = self.timed(["-c", CLI_CHILD, SRC, *cmd.args])
            self.tally.judge(cmd, e.code, e.timed_out, self.stdout, self.stderr)
            raw += e.wall_s
            wall += e.wall_s * factor
            rss = max(rss, e.rss_mb)
        return raw, wall, rss

    def traced_pass(self) -> list[dict]:
        """Run every command traced; return one result per command that
        completed, with its times scaled to reference host speed."""
        results = []
        for i, cmd in enumerate(self.case.commands):
            spec = os.path.join(self.work, f"trace{i}.spec.json")
            result = os.path.join(self.work, f"trace{i}.result.json")
            with open(spec, "w", encoding="utf-8") as fh:
                json.dump(cmd.trace, fh)
            if os.path.exists(result):
                os.remove(result)
            e, factor = self.timed([TRACED, SRC, spec, result])
            traced = None
            if e.code == 0 and not e.timed_out:
                with open(result, encoding="utf-8") as fh:
                    traced = _scaled(json.load(fh), factor)
            self.tally.judge(cmd, traced["exit_code"] if traced else -1, e.timed_out,
                             self.stdout, self.stderr)
            if traced:
                results.append(traced)
        return results

    def repeat(self, seconds: float, one_pass, min_passes: int) -> list:
        """Call one_pass until seconds would be overrun; returns [(value, wall)]."""
        out = []
        start = time.monotonic()
        while True:
            t0 = time.monotonic()
            value = one_pass()
            out.append((value, time.monotonic() - t0))
            typical = statistics.median(w for _, w in out)
            now = time.monotonic()
            if now + typical > self.deadline:
                break
            if len(out) >= min_passes and now - start + typical > seconds:
                break
        return out


def e2e_metrics(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """(metrics, raw figures printed beside them)."""
    raw_setup, setup = bench.setup_s(SETUP_REPEATS)
    passes = [v for v, _ in bench.repeat(seconds, bench.plain_pass, MIN_PASSES)]
    wall = statistics.median(w for _, w, _ in passes)
    metrics = {
        "wall_s": wall,
        "items_per_s": bench.case.items / wall,
        "peak_rss_mb": statistics.median(r for _, _, r in passes),
        "setup_s": setup,
    }
    raw = {
        "raw wall_s": statistics.median(w for w, _, _ in passes),
        "raw setup_s": raw_setup,
        "passes": len(passes),
    }
    return metrics, raw


def _scaled(traced: dict, factor: float) -> dict:
    """A traced child's result with every time multiplied by factor."""
    for s in traced["spans"]:
        s["start"] *= factor
        s["end"] *= factor
    for t in traced["rules"]:
        t["prepare_s"] *= factor
        t["eval_s"] *= factor
    traced["overhead_s"] *= factor
    return traced


def _durations(spans: list[dict], name: str) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def _nearest_rank(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(results: list[dict]) -> dict:
    """Per-layer metrics of one traced pass (one result per command)."""
    spans = [s for r in results for s in r["spans"]]
    rules = [t for r in results for t in r["rules"]]
    counts = [r["counts"] for r in results]

    def total(key):
        return sum(c.get(key, 0) for c in counts)

    def highest(key):
        return max((c.get(key, 0) for c in counts), default=0)

    m = {
        "cli.ingest_s": _durations(spans, "cli.ingest"),
        "cli.ingest_rows": total("ingest_rows"),
        "cli.ingest_rss_mb": highest("ingest_rss_mb"),
        "cli.emit_s": _durations(spans, "cli.emit"),
        "cli.emit_bytes": total("emit_bytes"),
        "cli.emit_rss_mb": highest("emit_rss_mb"),
        "rule_io.read_rules_s": _durations(spans, "rule_io.read_rules"),
        "rules.count": highest("rules"),
        "dsl.parse_s": _durations(spans, "dsl.parse"),
        "engine.confront_s": _durations(spans, "engine.confront"),
        "engine.prepare_s": sum(t["prepare_s"] for t in rules),
        "engine.eval_s": sum(t["eval_s"] for t in rules),
    }
    for kind in EVAL_KINDS:
        m[f"engine.eval_s.{kind}"] = sum(t["eval_s"] for t in rules if t["kind"] == kind)
    evals = [t["eval_s"] for t in rules]
    m.update({
        "engine.rule_eval_p50_s": _nearest_rank(evals, 0.50),
        "engine.rule_eval_p99_s": _nearest_rank(evals, 0.99),
        "engine.confront_overhead_s":
            m["engine.confront_s"] - m["engine.prepare_s"] - m["engine.eval_s"],
        "engine.items": total("items"),
        "engine.rule_errors": total("rule_errors"),
        "results.summarize_s": _durations(spans, "results.summarize"),
        "results.to_records_s": _durations(spans, "results.to_records"),
        "results.records": total("records"),
        "diffs.compare_validations_s": _durations(spans, "diffs.compare_validations"),
        "diffs.compare_cells_s": _durations(spans, "diffs.compare_cells"),
        "diffs.cells_classified": total("cells_classified"),
        "trace.overhead_s": sum(r["overhead_s"] for r in results),
    })
    # compare_validations confronts every version; its own share is the rest
    m["diffs.compare_validations_self_s"] = (
        m["diffs.compare_validations_s"] - m["engine.confront_s"]
        if m["diffs.compare_validations_s"] else 0.0
    )
    return m


def layer_report(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """(metrics, raw figures printed beside them). Layer times are at
    reference host speed."""
    traced = []

    def one_pass():
        results = bench.traced_pass()
        if len(results) == len(bench.case.commands):
            traced.append(layer_metrics(results))

    bench.repeat(seconds, one_pass, MIN_PASSES)
    raw = {"traced passes": len(traced)}
    if not traced:
        return {name: 0.0 for name in LAYER_UNITS}, raw
    return {name: statistics.median(t[name] for t in traced) for name in LAYER_UNITS}, raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "checkmate", "cli.py")):
        print(f"error: no checkmate sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    work = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    launcher = Launcher()
    try:
        case = workloads.build(args.workload, args.seed, work)
        bench = Bench(case, work, deadline, launcher)
        if args.trace:
            (values, raw), units = layer_report(bench, args.seconds), LAYER_UNITS
        else:
            (values, raw), units = e2e_metrics(bench, args.seconds), E2E_UNITS
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)

    tally = bench.tally
    for name, value in values.items():
        print(f"{args.workload:>15}  {name:<36} {value:>16.6f} {units[name]}")
    for name, value in raw.items():
        print(f"{args.workload:>15}  ({name} {value:.6g})")
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
