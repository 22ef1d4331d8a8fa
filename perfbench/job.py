"""Run one fpcoh CLI call in this fresh interpreter and record how it went.

    python3 perfbench/job.py RESULT.json [--trace] -- <fpcoh arguments>

`fpcoh.cli` is imported before the clock starts, so `seconds` covers
`main()` alone; interpreter start-up is the benchmark's `setup_s`.  Peak RSS
is the larger of this process and its reaped children (sweep pool workers).
`reference_s` lists the times of a fixed pure-Python kernel, run ten times
just before `main()`: how fast this host ran Python as the job started.
The kernel runs before the program does anything beyond its imports, so no
state the program leaves behind (heap, garbage collector, threads) can move
it.  The runner imports nothing the CLI does not, so peak RSS stays the
program's own.  With --trace the layer wrappers are installed first and the
per-layer totals are added to the record; without it nothing is wrapped.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def reference_kernel() -> float:
    """One timing of a fixed loop of dict and tuple work, the kind of work
    fpcoh's own inner loops do."""
    t = time.perf_counter()
    counts = {}
    for i in range(20_000):
        key = (i % 37, i % 23)
        counts[key] = counts.get(key, 0) + i * i % 7
    return time.perf_counter() - t


def main() -> int:
    result_path = sys.argv[1]
    traced = sys.argv[2] == "--trace"
    argv = sys.argv[sys.argv.index("--") + 1:]

    from fpcoh import cli

    tracer = None
    if traced:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    reference = [reference_kernel() for _ in range(10)]
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors exit through here
        rc = exc.code if isinstance(exc.code, int) else 1
    seconds = time.perf_counter() - t0

    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    record = {"rc": rc, "seconds": seconds, "peak_rss_mb": peak_kb / 1024,
              "reference_s": reference}
    if tracer is not None:
        tracer.uninstall()
        record["layers"] = tracer.layer_metrics()
    with open(result_path, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
