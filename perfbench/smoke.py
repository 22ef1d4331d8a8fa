"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Runs run.py with --smoke (one tiny job per workload) with tracing off and
on, and checks that the result line is well formed, that every metric
BENCHMARK.json names for that mode is printed with its unit, and that the
only failures are known defects.  Takes about half a minute.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import workloads
from run import HERE, ROOT


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    expected = {0: bench["end_to_end"], 1: bench["per_layer"]}
    problems = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=180)
            where = f"{name} --trace {trace}"
            before = len(problems)
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} "
                                f"attempted={result['attempted']}")
            metrics = result["metrics"]
            if set(metrics) != {m["name"] for m in expected[trace]}:
                problems.append(f"{where}: metric names differ from BENCHMARK.json")
            for m in expected[trace]:
                got = metrics.get(m["name"], {})
                if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{where}: {m['name']} printed as {got}")
            print(("ok   " if len(problems) == before else "FAIL ") + where)
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
