"""The fpcoh benchmark: whole CLI runs, timed, checked and traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding `src/fpcoh`).
Every job is one `fpcoh` call in a fresh interpreter (perfbench/job.py), so
per-process caches never carry over from one job to the next.  A repetition
runs all jobs of the workload once; the run repeats them for S seconds.
`wall_s` sums each job's median time over the repetitions (see
`wall_seconds`); peak RSS and set-up time are medians.

--trace 0 prints the end-to-end metrics; nothing is wrapped.
--trace 1 alternates untraced and traced repetitions and prints the
per-layer metrics of the traced ones plus trace.overhead_frac.  The sweep
runs with --parallel 1 in both halves there, so its rows stay in the
traced process.

Every job's exit code is checked against the contract and its --json
document against a pinned sha256 (perfbench/pins.json, written by
perfbench/pin.py).  The last line of stdout is one JSON object; the exit
code is 1 when `correct` is false.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
JOB = os.path.join(HERE, "job.py")
PINS = os.path.join(HERE, "pins.json")
SETUP_FIRST = 3  # set-up samples before the first repetition; then one before each
RUN_LIMIT_S = 170  # every job is killed by then, so a run ends within 180 s
# job.py's reference kernel takes about this long (median) on the 2-vCPU
# Xeon VM the bounds were tuned on; wall_s is main() time scaled to that
# host speed.
REFERENCE_S = 0.006


def env() -> dict:
    src = os.path.join(ROOT, "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def verdict_digest(verdict: dict) -> str:
    return sha256(json.dumps(verdict, sort_keys=True).encode())


def verdict_exit(verdict: dict) -> int:
    """The exit code a one-verdict run has under the CLI contract."""
    status = verdict["status"]
    if status == "disagree":
        return 2
    if status == "outside-hypothesis" and verdict["payload"].get("comparison_agrees") is False:
        return 2
    return 1 if status == "error" else 0


def setup_sample(started: float) -> float:
    """CPU seconds the main thread of a fresh interpreter spends to start,
    import fpcoh.cli and build the parser.

    Wall time of the same steps moved by 27-37 % between sets of runs half
    an hour apart on a shared host while compute-bound work moved by 9 %:
    the rest was most likely waiting on the host (process start, page
    faults, waking an idle vCPU), not work of the program.  CPU time leaves
    that out, and leaves out the spinning of numpy's BLAS threads too."""
    code = "import fpcoh.cli as c, time; c.build_parser(); print(time.thread_time())"
    out = subprocess.run([sys.executable, "-c", code], env=env(), check=True,
                         capture_output=True, text=True,
                         timeout=max(1.0, RUN_LIMIT_S - (time.perf_counter() - started)))
    return float(out.stdout)


def run_job(argv, tmp, traced, started):
    """One fpcoh call in a fresh interpreter.  Returns (record, json_bytes);
    record is None when the job crashed or was killed at the time limit."""
    out = os.path.join(tmp, "out.json")
    res = os.path.join(tmp, "job.json")
    for path in (out, res):
        if os.path.exists(path):
            os.remove(path)
    cmd = [sys.executable, JOB, res] + (["--trace"] if traced else []) + ["--"]
    cmd += list(argv) + ["--json", out]
    proc = subprocess.Popen(cmd, env=env(), stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        _, err = proc.communicate(
            timeout=max(1.0, RUN_LIMIT_S - (time.perf_counter() - started)))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the job and any pool workers
        proc.communicate()
        print(f"killed at the time limit: {' '.join(argv)}", file=sys.stderr)
        return None, None
    if proc.returncode != 0 or not os.path.exists(res):
        print(f"job crashed: {' '.join(argv)}\n{err.decode(errors='replace')}",
              file=sys.stderr)
        return None, None
    with open(res) as fh:
        record = json.load(fh)
    data = None
    if os.path.exists(out):
        with open(out, "rb") as fh:
            data = fh.read()
    return record, data


def check_single(argv, record, data, pins) -> list[str]:
    """Failed job keys (empty when the job is correct)."""
    key = " ".join(argv)
    ok = (record is not None and record["rc"] == 0 and data is not None
          and sha256(data) == pins["jobs"].get(key))
    return [] if ok else [key]


def check_sweep(rows, record, data, pins) -> list[str]:
    """Failed row keys.  The sweep's own exit code must follow from its
    verdicts; each row must match its own expected exit code and digest."""
    keys = [workloads.row_key(r) for r in rows]
    if record is None or data is None:
        return keys
    verdicts = json.loads(data)["verdicts"]
    codes = {verdict_exit(v) for v in verdicts}
    contract_rc = 2 if 2 in codes else 1 if 1 in codes else 0
    if len(verdicts) != len(rows) or record["rc"] != contract_rc:
        return keys
    failed = []
    for row, key, verdict in zip(rows, keys, verdicts):
        if (verdict_exit(verdict) != workloads.row_expected_exit(row)
                or verdict_digest(verdict) != pins["rows"].get(key)):
            failed.append(key)
    return failed


def run_rep(name, spec, tmp, traced, parallel, pins, started) -> dict:
    """One repetition of a workload: every job once.  `walls` holds each
    job's main() time (see `wall_seconds`), None for a job that failed
    other than by a known defect, so a broken job never reads as fast."""
    peak, attempted, failed, layers = 0.0, 0, [], {}
    if sweep := workloads.is_sweep(name):
        config = os.path.join(tmp, f"{name}.json")
        with open(config, "w") as fh:
            json.dump(workloads.sweep_config(spec), fh)
        argv = ["sweep", "--config", config, "--parallel", str(parallel)]
        record, data = run_job(argv, tmp, traced, started)
        attempted = len(spec)
        failed = check_sweep(spec, record, data, pins)
        jobs = [(record, failed)]
    else:
        jobs = []
        for argv in spec:
            record, data = run_job(argv, tmp, traced, started)
            attempted += 1
            job_failed = check_single(argv, record, data, pins)
            failed += job_failed
            jobs.append((record, job_failed))
    walls = []
    for record, job_failed in jobs:
        if record is None:
            walls.append(None)
            continue
        ok = set(job_failed) <= set(workloads.KNOWN_DEFECTS)
        scale = 1.0 if sweep else REFERENCE_S / statistics.median(record["reference_s"])
        walls.append(record["seconds"] * scale if ok else None)
        peak = max(peak, record["peak_rss_mb"])
        for k, v in record.get("layers", {}).items():
            layers[k] = layers.get(k, 0) + v
    if layers:
        layers["incidence.basis_builds_per_block"] = (
            layers["incidence.basis_builds"] / layers["incidence.blocks"]
            if layers["incidence.blocks"] else 0.0)
        layers["determinantal.useful_row_frac"] = (
            layers["determinantal.slice_dim"] / layers["determinantal.gen_rows"]
            if layers["determinantal.gen_rows"] else 0.0)
    return {"seconds": [r and r["seconds"] for r, _ in jobs], "walls": walls,
            "peak": peak, "attempted": attempted, "failed": failed, "layers": layers}


def wall_seconds(reps) -> float:
    """Sum over the jobs of each job's median main() time.  A one-process
    job's time is scaled by REFERENCE_S over the reference kernel's time in
    that same job: reference seconds.

    Other tenants of a shared host slow it down in spells of seconds to
    minutes, by 20 % and more, and a spell slows the job and the kernel
    alike, so the scaled times repeat across runs where plain seconds do
    not.  The sweep runs its rows in two pool processes, whose pace a
    one-process kernel does not follow: scaled, its times spread wider than
    plain seconds, so they stay plain (figures in perfbench/README.md)."""
    per_job = zip(*(r["walls"] for r in reps))
    return sum(statistics.median([t for t in times if t is not None] or [0.0])
               for times in per_job)  # a job with no passing time makes the run fail


def units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one tiny job per workload (perfbench/smoke.py)")
    args = parser.parse_args()
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(ROOT, "src", "fpcoh", "cli.py")):
        print(f"no fpcoh source tree under {ROOT}; run from a checkout", file=sys.stderr)
        return 2
    with open(PINS) as fh:
        pins = json.load(fh)
    unit = units()
    spec = workloads.jobs(args.workload, args.seed, smoke=args.smoke)
    traced_mode = bool(args.trace)
    parallel = 1 if traced_mode else 2

    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=scratch)
    try:
        setup = [setup_sample(started) for _ in range(SETUP_FIRST)]
        # Each step is one repetition; in traced mode a pair, in alternating
        # order, so drift during the run hits both halves alike.
        plan = [(False,)] if not traced_mode else [(False, True), (True, False)]
        reps = {False: [], True: []}
        deadline = time.perf_counter() + args.seconds
        step_s = 0.0
        i = 0
        while True:
            t0 = time.perf_counter()
            setup.append(setup_sample(started))  # spread over the run, as host load is
            for traced in plan[i % len(plan)]:
                reps[traced].append(run_rep(args.workload, spec, tmp, traced,
                                            parallel, pins, started))
            step_s = max(step_s, time.perf_counter() - t0)
            i += 1
            now = time.perf_counter()
            if now + step_s > deadline or now - started + step_s > RUN_LIMIT_S - 10:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass

    every = reps[False] + reps[True]
    attempted = sum(r["attempted"] for r in every)
    failed_keys = [k for r in every for k in r["failed"]]
    unexpected = sorted(set(failed_keys) - set(workloads.KNOWN_DEFECTS))
    for key in sorted(set(failed_keys) & set(workloads.KNOWN_DEFECTS)):
        print(f"known defect, counted as failed: {key}: {workloads.KNOWN_DEFECTS[key]}")
    for key in unexpected:
        print(f"FAILED: {key}")

    untraced = reps[False]
    wall_s = wall_seconds(untraced)
    if not traced_mode:
        values = {
            "wall_s": wall_s,
            "peak_rss_mb": statistics.median(r["peak"] for r in untraced),
            "setup_s": statistics.median(setup),
            "ok_frac": 1 - len(failed_keys) / attempted,
        }
    else:
        traced = reps[True]
        layered = [r["layers"] for r in traced if r["layers"]]  # none if all crashed
        values = {k: statistics.median(layers[k] for layers in layered)
                  for k in (layered[0] if layered else {})}
        values["trace.overhead_frac"] = wall_seconds(traced) / wall_s - 1
    print(f"workload {args.workload}, seed {args.seed}: {len(untraced)} repetition(s) per half, "
          f"{attempted} jobs/rows attempted, {len(failed_keys)} failed")
    print("  untraced repetitions, plain seconds:",
          " ".join(f"{sum(t or 0 for t in r['seconds']):.3f}" for r in untraced))
    for k, v in values.items():
        print(f"  {k:40s} {v:14.6g} {unit[k]}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failed_keys),
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in values.items()},
    }))
    return 1 if unexpected else 0


if __name__ == "__main__":
    raise SystemExit(main())
