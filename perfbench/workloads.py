"""The benchmark's workloads: which fpcoh CLI calls each one makes.

A job is the argument list of one `fpcoh` call.  Every job except the sweep
must exit 0 (all comparisons agree).  The sweep is one job whose rows are
checked one by one; each row has the exit code it would have on its own.

The seed draws the generic weight sequence of `complex-allones` (from a
pinned pool, so every draw has a pinned digest) and the order of the sweep
rows; the fixed jobs are the same for every seed.

Sizes sit below the ones a user waits minutes for (all-ones d = 11 rather
than 12/13, the classical slice at n = 5 rather than 6): each job takes well
under a second, so a run holds ten or so repetitions and each job's median
time is steady on a shared host.
"""

from __future__ import annotations

import random

# -- complex-allones: build_complex and the dense d∘d check dominate, then
# rank.
GENERIC_D11 = [
    (2, 1, 3, 1, 2, 1, 1, 2, 1, 3, 1, 2),
    (1, 2, 1, 1, 3, 2, 1, 1, 2, 1, 3, 1),
    (3, 1, 1, 2, 1, 2, 3, 1, 1, 2, 1, 1),
    (4, 1, 2, 1, 1, 1, 2, 2, 1, 1, 3, 1),
    (2, 2, 1, 3, 1, 1, 1, 2, 3, 1, 1, 2),
    (5, 1, 1, 1, 2, 1, 3, 1, 2, 1, 1, 1),
    (1, 3, 2, 1, 1, 2, 1, 1, 1, 3, 2, 1),
    (6, 2, 1, 1, 1, 3, 1, 2, 1, 1, 2, 1),
]


def _complex_allones(rng):
    weights = ",".join(map(str, rng.choice(GENERIC_D11)))
    return [
        ["complex", "theorem", "--d", "11", "--primes", "2"],
        ["complex", "theorem", "--d", "11", "--primes", "3"],
        ["complex", "theorem", "--d", "11", "--primes", "5"],
        ["complex", "homology", f"--weights={weights}", "--prime", "3"],
    ]


# -- det-slices: Python-side generator expansion of redundant slice rows,
# rank on tall matrices, and rref_with_order for leading terms.
def _det_slices(rng):
    return [
        ["det", "filtration", "--n", "5", "--a", "4", "--b", "4", "--i", "2",
         "--prime", "2", "--classical", "--compare"],
        ["det", "filtration", "--n", "4", "--a", "6", "--b", "4", "--i", "2",
         "--prime", "3", "--compare"],
        ["det", "lead-terms", "--n", "5", "--a", "6", "--b", "3", "--prime", "3"],
        ["det", "lead-terms", "--n", "6", "--a", "5", "--b", "3", "--prime", "2"],
    ]


# -- sweep-mixed: a few hundred small rows through one `sweep --parallel 2`;
# per-row overhead (argparse, the pool, render_json, tiny linalg) dominates.
NEGATIVE_CONTROL = ("det filtration", {"n": 3, "a": 1, "b": 1, "i": 0, "prime": 2,
                                       "compare": True})
NEGATIVE_HEAD = ("complex homology", {"weights": "-9,1,1,1,1,1,1", "prime": 3})

# Rows whose failure is a known, documented defect of the program.  They stay
# in the workload and count as failed until the program is fixed.
KNOWN_DEFECTS = {
    "complex homology --weights=-9,1,1,1,1,1,1 --prime=3":
        "sweep passes --weights -9,... as two argv tokens and argparse "
        "rejects the value as an unknown flag; expected outcome is agree",
}


def sweep_rows() -> list[tuple[str, dict]]:
    """The fixed sweep rows, each giving exactly one verdict."""
    rows = []
    for d in range(1, 11):
        for p in (2, 3, 5, 7):
            rows.append(("complex theorem", {"d": d, "primes": p}))
    rows.append(("complex theorem", {"d": 11, "primes": 2}))
    for w0 in range(1, 5):
        for d in range(2, 7):
            for p in (2, 3):
                rows.append(("complex involution", {"w0": w0, "d": d, "primes": p}))
    for w0 in range(1, 5):
        for d in range(2, 6):
            for p, r in ((2, 3), (3, 2)):
                rows.append(("stable periodicity", {"w0": w0, "d": d, "prime": p, "r": r}))
    for w0 in range(1, 4):
        for d in range(2, 6):
            for p in (2, 3):
                rows.append(("stable hook", {"w0": w0, "d": d, "prime": p}))
    for weights in ("2,1,1,1", "1,2,1,1,1"):
        for split in range(len(weights.split(",")) - 1):
            for p in (2, 3):
                rows.append(("complex ses-check",
                             {"weights": weights, "split": split, "prime": p}))
    for d in range(1, 5):
        for e in range(0, 5):
            for p in (2, 3):
                rows.append(("incidence chars", {"n": 3, "d": d, "e": e, "prime": p}))
    for d in range(2, 6):
        for e in (d - 1, d):
            rows.append(("incidence chars", {"n": 3, "d": d, "e": e, "prime": 2,
                                             "compare": "char2"}))
    for n in (2, 3):
        for a in range(1, 4):
            for b in range(0, a + 1):
                for i in range(0, b + 1):
                    for p in (2, 3):
                        if a - b >= p - 1:
                            rows.append(("det filtration", {"n": n, "a": a, "b": b, "i": i,
                                                            "prime": p, "compare": True}))
    for n in (2, 3):
        for a in range(1, 5):
            for b in range(1, a + 1):
                for p in (2, 3):
                    if a - b >= p - 1:
                        rows.append(("det lead-terms", {"n": n, "a": a, "b": b, "prime": p}))
    for a in range(1, 5):
        for b in range(0, a + 1):
            rows.append(("char schur", {"a": a, "b": b, "n": 3}))
    for m in range(0, 4):
        for n in (2, 3, 4):
            rows.append(("char nim", {"m": m, "n": n}))
    rows.append(NEGATIVE_CONTROL)
    rows.append(NEGATIVE_HEAD)
    return rows


def row_key(row) -> str:
    """The row as one self-contained command line (`--flag=value` form)."""
    return " ".join(row_argv(row))


def row_argv(row) -> list[str]:
    command, flags = row
    argv = command.split()
    for key, value in flags.items():
        argv.append(f"--{key}" if value is True else f"--{key}={value}")
    return argv


def row_expected_exit(row) -> int:
    return 2 if row == NEGATIVE_CONTROL else 0


def sweep_config(rows) -> dict:
    return {"runs": [dict(command=command, **flags) for command, flags in rows]}


def _sweep_mixed(rng):
    rows = sweep_rows()
    rng.shuffle(rows)
    return rows


# Each builder takes the seeded Random and returns the single jobs, or for
# the sweep workload its rows.
WORKLOADS = {
    "complex-allones": _complex_allones,
    "det-slices": _det_slices,
    "sweep-mixed": _sweep_mixed,
}

# One tiny job per workload, for the benchmark's own smoke check.
SMOKE = {
    "complex-allones": lambda rng: [["complex", "theorem", "--d", "4", "--primes", "2"]],
    "det-slices": lambda rng: [["det", "filtration", "--n", "3", "--a", "2", "--b", "1",
                                "--i", "1", "--prime", "2", "--compare"]],
    "sweep-mixed": lambda rng: [("complex theorem", {"d": 3, "primes": 2}), NEGATIVE_HEAD],
}


def is_sweep(workload: str) -> bool:
    return workload == "sweep-mixed"


def jobs(workload: str, seed: int, smoke: bool = False):
    table = SMOKE if smoke else WORKLOADS
    return table[workload](random.Random(seed))


def every_job_and_row():
    """Everything that needs a pinned digest: all single jobs of every
    possible draw, and every sweep row (smoke ones included)."""
    singles, rows = [], list(sweep_rows())
    for name, build in list(WORKLOADS.items()) + list(SMOKE.items()):
        if is_sweep(name):
            continue
        for job in build(random.Random(0)):
            if job not in singles:
                singles.append(job)
    for weights in GENERIC_D11:
        job = ["complex", "homology", "--weights=" + ",".join(map(str, weights)),
               "--prime", "3"]
        if job not in singles:
            singles.append(job)
    for row in SMOKE["sweep-mixed"](None):
        if row not in rows:
            rows.append(row)
    return singles, rows
