"""Self-test of the benchmark: generator, oracle, checks and metric names.

Usage, from the root of a checkout: python3 perfbench/selftest.py

At small sizes it checks that
- the same seed gives byte-identical inputs, and another seed other inputs;
- the oracle agrees with checkmate on every command of every workload, run
  through the CLI exactly as the benchmark runs it, traced and untraced, and
  the rules cover every rule kind the per-kind metrics name;
- each check rejects an output with one value changed;
- the metric names and units match BENCHMARK.json.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import filecmp
import json
import os
import shutil
import sys
import time

import run
import workloads

SEEDS = (1, 2)


def same_bytes(a: str, b: str) -> bool:
    names = sorted(os.listdir(a))
    if names != sorted(os.listdir(b)):
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    return not mismatch and not errors


def tamper(path: str) -> None:
    """Change one digit of the first data row (text, CSV) or one record (JSON)."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json"):
        at = text.index('"value": ', text.index('"records"')) + len('"value": ')
        flip = {"t": "false", "f": "true ", "n": "true"}[text[at]]
        end = at + {"t": 4, "f": 5, "n": 4}[text[at]]
        text = text[:at] + flip + text[end:]
    else:
        first_row = text.index("\n") + 1
        at = next(i for i in range(first_row, len(text)) if text[i].isdigit())
        text = text[:at] + str((int(text[at]) + 1) % 10) + text[at + 1:]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def main() -> int:
    problems = []
    root = os.path.join(run.WORK_ROOT, f"selftest-{os.getpid()}")
    launcher = run.Launcher()
    try:
        for name in workloads.WORKLOADS:
            dirs = [os.path.join(root, f"{name}-{k}") for k in range(3)]
            workloads.build(name, SEEDS[0], dirs[0], workloads.SMALL)
            workloads.build(name, SEEDS[0], dirs[1], workloads.SMALL)
            workloads.build(name, SEEDS[1], dirs[2], workloads.SMALL)
            if not same_bytes(dirs[0], dirs[1]):
                problems.append(f"{name}: the same seed gave different inputs")
            if same_bytes(dirs[0], dirs[2]):
                problems.append(f"{name}: different seeds gave the same inputs")

        kinds = set()
        for name in workloads.WORKLOADS:
            for seed in SEEDS:
                work = os.path.join(root, f"{name}-run-{seed}")
                case = workloads.build(name, seed, work, workloads.SMALL)
                bench = run.Bench(case, work, time.monotonic() + run.DEADLINE_S, launcher)
                bench.plain_pass()
                results = bench.traced_pass()
                for cmd in case.commands:
                    kinds.update(cmd.trace["kinds"].values())
                if bench.tally.failed or bench.tally.attempted != 2 * len(case.commands):
                    problems.append(f"{name} seed {seed}: {bench.tally.failed} of "
                                    f"{bench.tally.attempted} commands failed")
                    continue
                missing = set(run.LAYER_UNITS) - set(run.layer_metrics(results))
                if missing:
                    problems.append(f"{name}: traced run lacks {sorted(missing)}")
                for cmd in case.commands:
                    tamper(cmd.out)
                    if cmd.check(cmd.out, bench.stdout) is None:
                        problems.append(f"{name}: check accepted a tampered {cmd.args[0]} output")
        if not set(run.EVAL_KINDS) <= kinds:
            problems.append(f"no rule of kind {sorted(set(run.EVAL_KINDS) - kinds)}")

        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        declared = {
            0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]},
        }
        if declared[0] != run.E2E_UNITS or declared[1] != run.LAYER_UNITS:
            problems.append("metric names or units differ from BENCHMARK.json")
        if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
            problems.append("workload names differ from BENCHMARK.json")
    finally:
        launcher.close()
        shutil.rmtree(root, ignore_errors=True)

    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
