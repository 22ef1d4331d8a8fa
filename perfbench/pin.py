"""Write perfbench/pins.json: the sha256 of every job's --json document and
of every sweep row's verdict.

    python3 perfbench/pin.py

Run from the root of a checkout whose output is known to be right.  Each
sweep row is run here on its own, with `--flag=value` arguments, so its
pinned verdict does not come from the sweep path it later checks.  A job or
row whose exit code breaks the contract is refused, and nothing is written.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

import workloads
from run import HERE, PINS, ROOT, sha256, verdict_digest, verdict_exit

sys.path.insert(0, os.path.join(ROOT, "src"))
from fpcoh import cli  # noqa: E402


def run(argv, out) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(argv) + ["--json", out])


def main() -> int:
    singles, rows = workloads.every_job_and_row()
    pins = {"jobs": {}, "rows": {}}
    bad = []
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        out = os.path.join(tmp, "out.json")
        for argv in singles:
            rc = run(argv, out)
            if rc != 0:
                bad.append(f"exit {rc}: {' '.join(argv)}")
            with open(out, "rb") as fh:
                pins["jobs"][" ".join(argv)] = sha256(fh.read())
        for row in rows:
            run(workloads.row_argv(row), out)
            with open(out) as fh:
                (verdict,) = json.load(fh)["verdicts"]
            if verdict_exit(verdict) != workloads.row_expected_exit(row):
                bad.append(f"{verdict['status']}: {workloads.row_key(row)}")
            pins["rows"][workloads.row_key(row)] = verdict_digest(verdict)
    if bad:
        print("refusing to pin; these break the exit-code contract:", *bad, sep="\n  ")
        return 1
    with open(PINS, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(pins['jobs'])} jobs and {len(pins['rows'])} sweep rows")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
