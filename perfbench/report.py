"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/report.py [--workload NAME ...] [--seeds 1-10] [--trace 0|1]

For every workload (default: all of BENCHMARK.json) it runs ``run.py`` once
per seed for BENCHMARK.json's ``run_seconds``, one run at a time, and prints for each metric the median over the
runs, the first and third quartiles (``statistics.quantiles(n=4)``), the
spread (q3 - q1) / median, and the metric's bound from BENCHMARK.json. It
also prints the same for the raw (unscaled) wall time ``run.py`` prints
beside its result, and the longest run.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}
    ok = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        results, longest = [], 0.0
        for seed in args.seeds:
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, *spec["command"][1:], "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=False,
            )
            longest = max(longest, time.monotonic() - t0)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            raw = re.search(r"\(raw wall_s ([-+.\deE]+)\)", proc.stdout)
            if raw:
                result["metrics"]["raw wall_s"] = {"value": float(raw.group(1)), "unit": "s"}
            ok = ok and result["correct"]
            results.append(result)
        if not results:
            continue
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"\n{workload}: {len(results)} runs, {failed}/{attempted} commands failed, "
              f"longest run {longest:.1f} s")
        print(f"  {'metric':<36} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name, bound in {**bounds, "raw wall_s": None}.items():
            values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
            if not values:
                continue
            unit = results[0]["metrics"][name]["unit"]
            mid = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (mid, mid, mid)
            spread = (q3 - q1) / mid if mid else 0.0
            print(f"  {name:<36} {mid:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.1%} "
                  f"{'' if bound is None else f'{bound:.0%}':>6} {unit}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
