"""Print the all-ones complex baseline table of ROADMAP.md.

    python3 perfbench/baseline.py

For d = 12 and 13, runs `fpcoh complex theorem --d d --primes 2` once
traced, for the layer times (build self time, the dense d∘d check in
matmul_mod, and rank), and once untraced, for peak RSS.  Dense storage is
the int64 size of every boundary matrix.  Each job is a fresh interpreter, as in run.py.
"""

from __future__ import annotations

import sys
import tempfile
import time

from run import HERE, run_job


def main() -> int:
    print("| d | build | d∘d verify | ranks | dense storage | peak RSS |")
    print("|---|-------|------------|-------|---------------|----------|")
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for d in (12, 13):
            argv = ["complex", "theorem", "--d", str(d), "--primes", "2"]
            traced, _ = run_job(argv, tmp, True, time.perf_counter())
            plain, _ = run_job(argv, tmp, False, time.perf_counter())
            if traced is None or plain is None or traced["rc"] or plain["rc"]:
                print(f"d = {d}: job failed", file=sys.stderr)
                return 1
            layers = traced["layers"]
            ranks = layers["linalg.rank_dense_s"] + layers["linalg.rank_sparse_s"]
            print(f"| {d} | {layers['complexes.build_s']:.2f} s "
                  f"| {layers['linalg.matmul_s']:.2f} s | {ranks:.2f} s "
                  f"| {layers['linalg.rank_cells'] * 8 / 2**20:.0f} MB "
                  f"| {plain['peak_rss_mb']:.0f} MB |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
