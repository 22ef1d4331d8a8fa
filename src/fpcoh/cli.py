"""Command-line front end.

Subcommands evaluate the core engines and, where a closed formula or a
conjectured formula exists, compare against it and report a verdict per
checked statement.  Exit codes: 0 all comparisons agree (pure evaluations
count), 2 some comparison disagrees, 1 usage or parameter error.

`sweep --config FILE` expands a declarative grid into rows, each run as its
own command line by `_run_row`; `fpcoh.sweep` runs them, in a process pool
with several workers, and keeps only what the parent prints.  One
`verdicts.write_reports` call writes every command's reports, in the grid's
row-major order for a sweep and byte-identical across worker counts.

A well-formed command or sweep row is read straight from the `_LEAVES` table
(`_namespace`) and builds no parser; `sweep`, help and any argv argparse might
read another way or refuse go to the whole tree, built once per process, so
argparse prints every usage, error and help text.  The namespace names the
handler, looked up in this module when the command runs, so a handler
rebound after the build is the one that runs.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import signal
import sys
import threading
# `fpcoh.sweep` uses these; imported here so that a sweep's main() does not pay for them
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from itertools import product

from .characters import LaurentPolynomial, nim_poly, schur2, schur2_trunc
from .complexes import (
    build_complex,
    check_involution,
    check_stable_periodicity_hook,
    homology_dims,
    poincare_formula_all_ones,
    ses_dimension_check,
    stable_hook_cohomology,
)
from .determinantal import check_lead_terms, slice_characters
from .incidence import (
    char2_hypothesis,
    h1_char2_char,
    h1_small_weight_char,
    h1_window_char,
    h_characters,
    small_weights_hypothesis,
    window_hypothesis,
)
from .verdicts import (
    AGREE,
    DISAGREE,
    ERROR,
    OUTSIDE,
    exit_code,
    human_lines,
    same_file,
    verdict,
    write_reports,
)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; the scripting contract reserves 2 for
    mathematical disagreement, so usage errors are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _positive_int(text: str) -> int:
    try:
        if (value := int(text)) >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")


def _homology_summary(dims: tuple[int, ...]) -> str:
    """dims as a polynomial in t, e.g. "1 + 2*t^2"; "0" when all vanish."""
    parts = []
    for i, c in enumerate(dims):
        t = "t" if i == 1 else f"t^{i}"
        if c:
            parts.append(str(c) if i == 0 else t if c == 1 else f"{c}*{t}")
    return " + ".join(parts) or "0"


def _char_summary(f: LaurentPolynomial, count: int) -> str:
    """f as text, or its term count and dimension when the text would pass
    120 characters; k terms print in at least 5k - 4, so 25 or more never
    need formatting."""
    if count < 25 and len(text := str(f)) <= 120:
        return text
    return f"<{count} terms, dimension {f.dimension()}>"


def _char_witness(computed: LaurentPolynomial, expected: LaurentPolynomial) -> dict:
    exps, _ = (computed - expected).terms()[0]
    return {
        "exponents": list(exps),
        "computed": computed.coefficient(exps),
        "expected": expected.coefficient(exps),
    }


def _character(series: str, f: LaurentPolynomial) -> tuple[list, list, str]:
    """f's records, its dimension-table rows (sharing the records' exponent
    lists) and its summary, from one sorted pass over its terms."""
    records = f.to_records()
    table = [{"series": series, "multidegree": r["exponents"], "dimension": r["coeff"]}
             for r in records]
    return records, table, _char_summary(f, len(records))


def _character_payload(series: str, f: LaurentPolynomial) -> dict:
    records, table, summary = _character(series, f)
    return {"character": records, "dimension": f.dimension(), "summary": summary,
            "dimension_table": table}


# ---------------------------------------------------------------------------
# handlers; each returns (parameters, [verdict])


def _cmd_complex_homology(ns):
    params = {"weights": list(ns.weights), "prime": ns.prime}
    cx = build_complex(tuple(ns.weights), ns.prime)
    hom, dims = homology_dims(cx), cx.dimensions()
    payload = {
        "dimensions": list(dims),
        "ranks": list(cx.ranks()),
        "homology": list(hom),
        "summary": _homology_summary(hom),
        "dimension_table": [{"series": series, "degree": k, "dimension": v}
                            for series, row in (("chain", dims), ("homology", hom))
                            for k, v in enumerate(row)],
    }
    return params, [verdict("homology", params, AGREE, payload)]


def _cmd_complex_theorem(ns):
    if ns.d < 0:
        raise ValueError(f"need d >= 0, got d = {ns.d}")
    params = {"d": ns.d, "primes": list(ns.primes)}
    verdicts = []
    for p in ns.primes:
        brute = homology_dims(build_complex((1,) * (ns.d + 1), p))
        formula = poincare_formula_all_ones(ns.d, p)
        payload = {
            "brute": list(brute),
            "formula": list(formula),
            "summary": _homology_summary(formula),
        }
        status = AGREE
        if brute != formula:
            k = next(k for k, (x, y) in enumerate(zip(brute, formula)) if x != y)
            payload["witness"] = {"degree": k, "computed": brute[k], "expected": formula[k]}
            status = DISAGREE
        verdicts.append(verdict("all-ones-homology-formula", {"d": ns.d, "prime": p},
                                status, payload))
    return params, verdicts


def _cmd_complex_involution(ns):
    if ns.d < 1:  # d = 0 compares empty rank lists
        raise ValueError(f"need d >= 1, got d = {ns.d}")
    params, verdicts = {"w0": ns.w0, "d": ns.d, "primes": list(ns.primes)}, []
    for p in ns.primes:
        status, payload = check_involution(ns.w0, ns.d, p)
        verdicts.append(verdict("hook-involution", {"w0": ns.w0, "d": ns.d, "prime": p},
                                status, payload))
    return params, verdicts


def _cmd_complex_ses(ns):
    params = {"weights": list(ns.weights), "split": ns.split, "prime": ns.prime}
    return params, [verdict("ses-bookkeeping", params, *ses_dimension_check(
        tuple(ns.weights), ns.split, ns.prime))]


def _cmd_stable_hook(ns):
    params = {"w0": ns.w0, "d": ns.d, "prime": ns.prime}
    table = stable_hook_cohomology(ns.w0, ns.d, ns.prime)
    payload = {
        "cohomology": {str(j): v for j, v in table.items()},
        "summary": ", ".join(f"H^{j}={v}" for j, v in table.items() if v),
        "dimension_table": [{"series": "stable-cohomology", "degree": j, "dimension": v}
                            for j, v in table.items()],
    }
    return params, [verdict("stable-hook-cohomology", params, AGREE, payload)]


def _cmd_stable_periodicity(ns):
    params = {"w0": ns.w0, "d": ns.d, "prime": ns.prime, "r": ns.r}
    return params, [verdict("stable-periodicity", params, *check_stable_periodicity_hook(
        ns.w0, ns.d, ns.prime, ns.r))]


_COMPARE_SUBJECTS = {"h1-theorem": "h1-window-theorem", "small-weights": "h1-small-weights",
                     "char2": "h1-char2"}


def _cmd_incidence_chars(ns):
    if ns.compare == "char2" and ns.prime != 2:
        raise ValueError("--compare char2 requires --prime 2")
    params = {"n": ns.n, "d": ns.d, "e": ns.e, "prime": ns.prime}
    if ns.compare:
        params["compare"] = ns.compare
    if ns.no_symmetry:
        params["symmetry_reduce"] = False
    h0, h1 = h_characters(ns.n, ns.d, ns.e, ns.prime, symmetry_reduce=not ns.no_symmetry)
    h0_records, h0_table, h0_text = _character("h0", h0)
    h1_records, h1_table, h1_text = _character("h1", h1)
    payload = {
        "h0": h0_records,
        "h1": h1_records,
        "h0_dimension": h0.dimension(),
        "h1_dimension": h1.dimension(),
        "summary": f"h0 = {h0_text}; h1 = {h1_text}",
        "dimension_table": h0_table + h1_table,
    }
    status = AGREE
    if ns.compare:
        if ns.compare == "h1-theorem":
            met = window_hypothesis(ns.d, ns.e, ns.prime)
            target = h1_window_char(ns.n, ns.d, ns.e, ns.prime) if met else None
        elif ns.compare == "small-weights":
            met = small_weights_hypothesis(ns.d, ns.e, ns.prime)
            target = h1_small_weight_char(ns.n, ns.d, ns.e, ns.prime) if met else None
        else:
            met = char2_hypothesis(ns.d, ns.e)
            target = h1_char2_char(ns.n, ns.d, ns.e) if met else None
        payload["hypothesis_met"] = met
        if not met:
            status = OUTSIDE
        else:
            payload["target"] = target.to_records()
            if h1 != target:
                payload["witness"] = _char_witness(h1, target)
                status = DISAGREE
    subject = _COMPARE_SUBJECTS.get(ns.compare, "incidence-characters")
    return params, [verdict(subject, params, status, payload)]


def _cmd_det_filtration(ns):
    if ns.compare and ns.i > min(ns.a, ns.b):
        raise ValueError(f"--compare needs --i <= min(--a, --b) = {min(ns.a, ns.b)}: "
                         "the two-row Schur target holds only there")
    truncated = not ns.classical
    params = {"n": ns.n, "a": ns.a, "b": ns.b, "i": ns.i, "prime": ns.prime,
              "truncated": truncated}
    slices = slice_characters(ns.n, ns.a, ns.b, [ns.i, ns.i + 1], truncated, ns.prime)
    quotient = slices[ns.i] - slices[ns.i + 1]
    records, table, summary = _character("filtration-quotient", quotient)
    payload = {
        "quotient": records,
        "quotient_dimension": quotient.dimension(),
        "slice_dimension": slices[ns.i].dimension(),
        "summary": summary,
        "dimension_table": table,
    }
    status = AGREE
    if ns.compare:
        target = (schur2_trunc(ns.a + ns.b - ns.i, ns.i, ns.prime, ns.n) if truncated
                  else schur2(ns.a + ns.b - ns.i, ns.i, ns.n))
        met = (ns.a - ns.b >= ns.prime - 1) if truncated else True
        agrees = quotient == target
        payload["hypothesis_met"] = met
        payload["target"] = target.to_records()
        if not agrees:
            payload["witness"] = _char_witness(quotient, target)
        if not met:
            payload["comparison_agrees"] = agrees
            status = OUTSIDE
        elif not agrees:
            status = DISAGREE
    subject = "filtration-vs-schur" if ns.compare else "filtration-character"
    return params, [verdict(subject, params, status, payload)]


def _cmd_det_lead_terms(ns):
    params = {"n": ns.n, "a": ns.a, "b": ns.b, "prime": ns.prime}
    return params, [verdict("lead-term-containment", params, *check_lead_terms(
        ns.n, ns.a, ns.b, ns.prime))]


def _cmd_char_nim(ns):
    params = {"m": ns.m, "n": ns.n}
    payload = _character_payload("nim", nim_poly(ns.m, ns.n))
    return params, [verdict("nim-character", params, AGREE, payload)]


def _cmd_char_schur(ns):
    if ns.a < ns.b:
        raise ValueError("--a must be at least --b for a two-row shape")
    if ns.b < 0:
        raise ValueError("--b must be non-negative")
    params = {"a": ns.a, "b": ns.b, "n": ns.n}
    if ns.q is None:
        f = schur2(ns.a, ns.b, ns.n)
    else:
        params["q"] = ns.q
        f = schur2_trunc(ns.a, ns.b, ns.q, ns.n)
    return params, [verdict("schur-character", params, AGREE,
                            _character_payload("schur", f))]


# ---------------------------------------------------------------------------
# parser


_GROUPS = {"complex": "weighted path complexes", "stable": "stable hook cohomology",
           "incidence": "incidence cohomology characters",
           "det": "determinantal ideal filtrations", "char": "character ring evaluations"}

# Each leaf command: the name of its handler and its flags in order; a bare
# type is a mandatory flag of that type, a dict the flag's other settings.
_LEAVES = {
    "complex homology": ("_cmd_complex_homology", {"weights": _int_list, "prime": int}),
    "complex theorem": ("_cmd_complex_theorem", {"d": int, "primes": _int_list}),
    "complex involution": ("_cmd_complex_involution", {"w0": int, "d": int, "primes": _int_list}),
    "complex ses-check": ("_cmd_complex_ses", {"weights": _int_list, "split": int, "prime": int}),
    "stable hook": ("_cmd_stable_hook", {"w0": int, "d": int, "prime": int}),
    "stable periodicity": ("_cmd_stable_periodicity",
                           {"w0": int, "d": int, "prime": int, "r": int}),
    "incidence chars": ("_cmd_incidence_chars", {
        "n": int, "d": int, "e": int, "prime": int,
        "compare": {"choices": tuple(_COMPARE_SUBJECTS), "default": None},
        "no-symmetry": {"action": "store_true",
                        "help": "disable the symmetry reduction over multidegree orbits"},
    }),
    "det filtration": ("_cmd_det_filtration", {
        "n": int, "a": int, "b": int, "i": int, "prime": int,
        "classical": {"action": "store_true",
                      "help": "work in the plain polynomial ring instead of the truncation"},
        "compare": {"action": "store_true",
                    "help": "compare against the two-row Schur character"},
    }),
    "det lead-terms": ("_cmd_det_lead_terms", {"n": int, "a": int, "b": int, "prime": int}),
    "char nim": ("_cmd_char_nim", {"m": int, "n": int}),
    "char schur": ("_cmd_char_schur",
                   {"a": int, "b": int, "q": {"type": int, "default": None}, "n": int}),
}


def _settings(kind) -> dict:  # a flag's `add_argument` settings
    return kind if isinstance(kind, dict) else {"type": kind, "required": True}


@functools.cache
def build_parser() -> _Parser:
    """The whole `fpcoh` parser of this process, shared by every caller, so
    no caller may change it.  `ns.handler` names a handler in this module."""
    shared = argparse.ArgumentParser(add_help=False)
    # SUPPRESS keeps a leaf from clobbering values parsed before its name
    shared.add_argument("--json", metavar="PATH", default=argparse.SUPPRESS)
    shared.add_argument("--csv", metavar="PATH", default=argparse.SUPPRESS)

    parser = _Parser(prog="fpcoh", description=__doc__.splitlines()[0] if __doc__ else None)
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the verdict document to PATH")
    parser.add_argument("--csv", metavar="PATH", default=None,
                        help="write dimension tables to PATH")
    top = parser.add_subparsers(dest="group", required=True, metavar="GROUP")

    groups = {group: top.add_parser(group, help=text).add_subparsers(
        dest="action", required=True, metavar="ACTION") for group, text in _GROUPS.items()}
    for name, (handler, flags) in _LEAVES.items():
        group, action = name.split()
        q = groups[group].add_parser(action, parents=[shared])
        for flag, kind in flags.items():
            q.add_argument(f"--{flag}", **_settings(kind))
        q.set_defaults(handler=handler, command=name)

    q = top.add_parser("sweep", parents=[shared])
    q.add_argument("--parallel", type=_positive_int, metavar="N", default=None,
                   help="caps sweep worker count (default: available cores)")
    q.add_argument("--config", metavar="FILE", required=True)
    q.set_defaults(handler="_cmd_sweep", command="sweep")
    return parser


def _namespace(argv: list[str]) -> argparse.Namespace | None:
    """What `build_parser()` makes of an argv [--json P | --csv P]* GROUP
    ACTION (--FLAG=V | --FLAG V | --SWITCH)*, read from `_LEAVES` without a
    parser; a repeated flag keeps its last value.  None for an argv argparse
    might read another way or refuse: help, `--`, an abbreviation, a separate
    value starting with "-", a switch given a value, an unknown, missing or
    bad flag, an extra word, or `sweep`."""
    values, flags = {"json": None, "csv": None}, {"json": {}, "csv": {}}
    tokens = iter(argv)
    for token in tokens:
        if token[:2] != "--":  # GROUP ACTION, once
            command = f"{token} {next(tokens, '')}"
            if "command" in values or command not in _LEAVES:
                return None
            group, action = command.split()
            handler, leaf = _LEAVES[command]
            values.update(group=group, action=action, handler=handler, command=command)
            for flag, kind in leaf.items():
                flags[flag] = settings = _settings(kind)
                if not settings.get("required"):  # a switch defaults to False
                    values[flag.replace("-", "_")] = settings.get("default", False)
            continue
        flag, eq, text = token[2:].partition("=")
        settings = flags.get(flag)
        switch = settings is not None and settings.get("action") == "store_true"
        if settings is None or switch and eq:
            return None
        if not (switch or eq):
            text = next(tokens, "-")  # "-" when the value is missing
        if text == "--" or not eq and text[:1] == "-":
            return None  # argparse drops "--" from a value, and may read "-..." as a flag
        try:
            value = switch or settings.get("type", str)(text)
        except (ValueError, argparse.ArgumentTypeError):
            return None
        if value not in settings.get("choices", (value,)):
            return None
        values[flag.replace("-", "_")] = value
    done = "command" in values and all(f.replace("-", "_") in values for f in flags)
    return argparse.Namespace(**values) if done else None


# ---------------------------------------------------------------------------
# sweep orchestration


def expand_config(config: dict) -> list[list[str]]:
    """Row-major expansion of {"runs": [{"command": "...", key: value-or-list}]}
    into argv rows.  A list value is a sweep axis; scalars pass through.
    Valued flags become one "--key=value" token, so "--weights=-9,1,1" is
    never read as two flags.  A grid with no rows is refused."""
    if not isinstance(config, dict) or not isinstance(config.get("runs"), list):
        raise ValueError('sweep config must be an object with a "runs" list')
    rows = []
    for run in config["runs"]:
        if not isinstance(run, dict) or "command" not in run:
            raise ValueError('every run must be an object with a "command" entry')
        command = run["command"]
        words = command.split() if isinstance(command, str) else []
        if not words or words[0] == "sweep":
            raise ValueError(f"bad run command {command!r}")
        axes = []
        for key, value in run.items():
            if key == "command":
                continue
            if key in ("json", "csv"):
                raise ValueError(f"{key!r} is a report flag of the sweep itself, not of a row")
            values = value if isinstance(value, list) else [value]
            if not values:
                raise ValueError(f"empty sweep axis {key!r}")
            axes.append((key, values))
        for combo in product(*(vals for _, vals in axes)):
            argv = list(words)
            for (key, _), value in zip(axes, combo):
                if value is True:
                    argv.append(f"--{key}")
                elif value is not False and value is not None:
                    argv.append(f"--{key}={value}")
            rows.append(argv)
    if not rows:
        raise ValueError("sweep config expands to no rows")
    return rows


def _run_row(argv: list[str]) -> list[dict]:
    """One sweep row; stdout of the row is swallowed so the parent report
    stays the only output.  Any failure becomes an error verdict."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            ns = _namespace(argv) or build_parser().parse_args(argv)
            _, verdicts = globals()[ns.handler](ns)
        return verdicts
    except SystemExit:
        message = sink.getvalue().strip() or "usage error"
    except ValueError as exc:
        message = str(exc)
    except Exception as exc:  # a failed check in one row must not end the sweep
        return [_crash_verdict("sweep-row", argv, exc)]
    return [verdict("sweep-row", {"argv": list(argv)}, ERROR, {"message": message})]


def _crash_verdict(subject: str, argv: list[str], exc: Exception) -> dict:
    return verdict(subject, {"argv": list(argv)}, ERROR,
                   {"message": f"{type(exc).__name__}: {exc}"})


def _cmd_sweep(ns):
    try:
        with open(ns.config) as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read sweep config: {exc}") from exc
    for flag in ("json", "csv"):
        if getattr(ns, flag) is not None and same_file(getattr(ns, flag), ns.config):
            raise ValueError(f"--{flag} names the sweep config {ns.config}")
    rows = expand_config(config)
    params = {"config": os.path.basename(ns.config), "rows": len(rows)}
    from . import sweep  # only a sweep compiles it

    return params, sweep.run(ns, rows)


# ---------------------------------------------------------------------------
# entry point


def _stopped(signum, frame):  # SIGTERM's handler within `main`; `__main__.run` reads signum
    raise KeyboardInterrupt(signum)


def main(argv=None) -> int:
    # SIGTERM raises as ^C does, naming itself, so a stopped run removes its
    # temporary and spill files; only the main thread may set a handler
    term = (signal.signal(signal.SIGTERM, _stopped)
            if threading.current_thread() is threading.main_thread() else None)
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        ns = _namespace(argv) or build_parser().parse_args(argv)
        for flag in ("json", "csv"):  # argparse reads "--json=" as "" and "--json=--" as []
            if getattr(ns, flag) is not None and not getattr(ns, flag):
                print(f"fpcoh: --{flag} needs a file path", file=sys.stderr)
                return 1
        if ns.json is not None and ns.csv is not None and same_file(ns.json, ns.csv):
            print(f"fpcoh: --json and --csv both name {ns.csv}", file=sys.stderr)
            return 1
        try:
            params, verdicts = globals()[ns.handler](ns)
        except ValueError as exc:
            print(f"fpcoh: parameter error: {exc}", file=sys.stderr)
            return 1
        except Exception as exc:  # a failed internal check still gets a report
            verdicts = [_crash_verdict(ns.command, argv, exc)]
            params = verdicts[0]["parameters"]
            print(f"fpcoh: {type(exc).__name__}: {exc}", file=sys.stderr)
        for line in human_lines(verdicts):
            print(line)
        try:
            write_reports(ns, params, verdicts)
        except OSError as exc:
            print(f"fpcoh: cannot write report: {exc}", file=sys.stderr)
            return 1
        return exit_code(verdicts)
    finally:
        if term is not None:
            signal.signal(signal.SIGTERM, term)


if __name__ == "__main__":
    raise SystemExit(main())
