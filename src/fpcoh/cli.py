"""Command-line front end.

Subcommands evaluate the core engines and, where a closed formula or a
conjectured formula exists, compare against it and report a Verdict per
checked statement.  Exit codes: 0 all comparisons agree (pure evaluations
count), 2 some comparison disagrees, 1 usage or parameter error.

`sweep --config FILE` expands a declarative grid into rows and runs each row
through the same parser.  With several workers the rows go to a process pool
in strided chunks (chunk k holds rows k, k + count, ...); report order is the
grid's row-major order regardless of scheduling, and JSON output is
byte-identical across worker counts.  A killed worker breaks the pool: every
row of a chunk not yet returned then becomes a `sweep-row` error verdict, and
a chunk's rows return together.

The parser is built once per process and shared by `main()` and every sweep
row (pool workers fork after the build and inherit it).  It names each
command's handler instead of holding the function, and the handler is looked
up in this module when the command runs, so a handler rebound after the build
is the one that runs.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from itertools import product

from .characters import LaurentPolynomial, nim_poly, schur2, schur2_trunc
from .complexes import (
    PoincarePolynomial,
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
    UnsupportedRegimeError,
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
    Verdict,
    exit_code,
    human_lines,
    render_json,
    report_document,
    write_csv,
)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; the scripting contract reserves 2 for
    mathematical disagreement, so usage errors are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


def _int_list(text: str) -> list[int]:
    try:
        if values := [int(x) for x in text.split(",") if x.strip() != ""]:
            return values
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _positive_int(text: str) -> int:
    try:
        if (value := int(text)) >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")


def _timed(subject: str, parameters: dict, build) -> Verdict:
    t0 = time.perf_counter()
    status, payload = build()
    return Verdict(subject, parameters, status, payload, seconds=time.perf_counter() - t0)


def _char_summary(f: LaurentPolynomial) -> str:
    text = str(f)
    if len(text) > 120:
        return f"<{len(f.terms())} terms, dimension {f.dimension()}>"
    return text


def _char_witness(computed: LaurentPolynomial, expected: LaurentPolynomial) -> dict:
    exps, _ = (computed - expected).terms()[0]
    return {
        "exponents": list(exps),
        "computed": computed.coefficient(exps),
        "expected": expected.coefficient(exps),
    }


def _char_table(series: str, f: LaurentPolynomial) -> list[dict]:
    return [
        {"series": series, "multidegree": list(exps), "dimension": coeff}
        for exps, coeff in f.terms()
    ]


# ---------------------------------------------------------------------------
# handlers; each returns (parameters, [Verdict])


def _cmd_complex_homology(ns):
    w = tuple(ns.weights)
    params = {"weights": list(w), "prime": ns.prime}

    def build():
        cx = build_complex(w, ns.prime)
        hom = homology_dims(cx)
        table = [
            {"series": "chain", "degree": k, "dimension": cx.dimension(k)}
            for k in range(cx.d + 1)
        ]
        table += [
            {"series": "homology", "degree": k, "dimension": hom.coefficient(k)}
            for k in range(cx.d + 1)
        ]
        payload = {
            "dimensions": list(cx.dimensions()),
            "ranks": list(cx.ranks()),
            "homology": list(hom.coefficients),
            "summary": str(hom),
            "dimension_table": table,
        }
        return AGREE, payload

    return params, [_timed("homology", params, build)]


def _cmd_complex_theorem(ns):
    params = {"d": ns.d, "primes": list(ns.primes)}
    verdicts = []
    for p in ns.primes:
        vparams = {"d": ns.d, "prime": p}

        def build(p=p):
            brute = homology_dims(build_complex((1,) * (ns.d + 1), p))
            formula = poincare_formula_all_ones(ns.d, p)
            payload = {
                "brute": list(brute.coefficients),
                "formula": list(formula.coefficients),
                "summary": str(formula),
            }
            if brute == formula:
                return AGREE, payload
            k = next(
                i
                for i in range(ns.d + 1)
                if brute.coefficient(i) != formula.coefficient(i)
            )
            payload["witness"] = {
                "degree": k,
                "computed": brute.coefficient(k),
                "expected": formula.coefficient(k),
            }
            return DISAGREE, payload

        verdicts.append(_timed("all-ones-homology-formula", vparams, build))
    return params, verdicts


def _cmd_complex_involution(ns):
    if ns.d < 1:  # d = 0 compares empty rank lists
        raise ValueError(f"need d >= 1, got d = {ns.d}")
    params = {"w0": ns.w0, "d": ns.d, "primes": list(ns.primes)}
    verdicts = [
        _timed("hook-involution", {"w0": ns.w0, "d": ns.d, "prime": p},
               functools.partial(check_involution, ns.w0, ns.d, p))
        for p in ns.primes
    ]
    return params, verdicts


def _cmd_complex_ses(ns):
    params = {"weights": list(ns.weights), "split": ns.split, "prime": ns.prime}
    return params, [_timed("ses-bookkeeping", params, functools.partial(
        ses_dimension_check, tuple(ns.weights), ns.split, ns.prime))]


def _cmd_stable_hook(ns):
    params = {"w0": ns.w0, "d": ns.d, "prime": ns.prime}

    def build():
        table = stable_hook_cohomology(ns.w0, ns.d, ns.prime)
        payload = {
            "cohomology": {str(j): v for j, v in table.items()},
            "summary": ", ".join(f"H^{j}={v}" for j, v in table.items() if v),
            "dimension_table": [
                {"series": "stable-cohomology", "degree": j, "dimension": v}
                for j, v in table.items()
            ],
        }
        return AGREE, payload

    return params, [_timed("stable-hook-cohomology", params, build)]


def _cmd_stable_periodicity(ns):
    params = {"w0": ns.w0, "d": ns.d, "prime": ns.prime, "r": ns.r}
    return params, [_timed("stable-periodicity", params, functools.partial(
        check_stable_periodicity_hook, ns.w0, ns.d, ns.prime, ns.r))]


_COMPARE_CHOICES = ("h1-theorem", "small-weights", "char2")


def _cmd_incidence_chars(ns):
    params = {"n": ns.n, "d": ns.d, "e": ns.e, "prime": ns.prime}
    if ns.compare:
        params["compare"] = ns.compare
    if ns.no_symmetry:
        params["symmetry_reduce"] = False

    def build():
        pair = h_characters(ns.n, ns.d, ns.e, ns.prime, symmetry_reduce=not ns.no_symmetry)
        payload = {
            "h0": pair.h0.to_records(),
            "h1": pair.h1.to_records(),
            "h0_dimension": pair.h0.dimension(),
            "h1_dimension": pair.h1.dimension(),
            "summary": f"h0 = {_char_summary(pair.h0)}; h1 = {_char_summary(pair.h1)}",
            "dimension_table": _char_table("h0", pair.h0) + _char_table("h1", pair.h1),
        }
        if not ns.compare:
            return AGREE, payload
        if ns.compare == "h1-theorem":
            met = window_hypothesis(ns.d, ns.e, ns.prime)
            target = h1_window_char(ns.n, ns.d, ns.e, ns.prime) if met else None
        elif ns.compare == "small-weights":
            met = small_weights_hypothesis(ns.d, ns.e, ns.prime)
            target = h1_small_weight_char(ns.n, ns.d, ns.e, ns.prime) if met else None
        else:
            if ns.prime != 2:
                raise ValueError("--compare char2 requires --prime 2")
            met = char2_hypothesis(ns.d, ns.e)
            target = h1_char2_char(ns.n, ns.d, ns.e) if met else None
        payload["hypothesis_met"] = met
        if not met:
            return OUTSIDE, payload
        payload["target"] = target.to_records()
        if pair.h1 == target:
            return AGREE, payload
        payload["witness"] = _char_witness(pair.h1, target)
        return DISAGREE, payload

    subjects = {
        "h1-theorem": "h1-window-theorem",
        "small-weights": "h1-small-weights",
        "char2": "h1-char2",
    }
    subject = subjects.get(ns.compare, "incidence-characters")
    return params, [_timed(subject, params, build)]


def _cmd_det_filtration(ns):
    if ns.compare and ns.i > min(ns.a, ns.b):
        raise ValueError(f"--compare needs --i <= min(--a, --b) = {min(ns.a, ns.b)}: "
                         "the two-row Schur target holds only there")
    truncated = not ns.classical
    params = {"n": ns.n, "a": ns.a, "b": ns.b, "i": ns.i, "prime": ns.prime,
              "truncated": truncated}

    def build():
        slices = slice_characters(
            ns.n, ns.a, ns.b, [ns.i, ns.i + 1], truncated, ns.prime
        )
        quotient = slices[ns.i] - slices[ns.i + 1]
        payload = {
            "quotient": quotient.to_records(),
            "quotient_dimension": quotient.dimension(),
            "slice_dimension": slices[ns.i].dimension(),
            "summary": _char_summary(quotient),
            "dimension_table": _char_table("filtration-quotient", quotient),
        }
        if not ns.compare:
            return AGREE, payload
        if truncated:
            target = schur2_trunc(ns.a + ns.b - ns.i, ns.i, ns.prime, ns.n)
        else:
            target = schur2(ns.a + ns.b - ns.i, ns.i, ns.n)
        met = (ns.a - ns.b >= ns.prime - 1) if truncated else True
        agrees = quotient == target
        payload["hypothesis_met"] = met
        payload["target"] = target.to_records()
        if not agrees:
            payload["witness"] = _char_witness(quotient, target)
        if not met:
            payload["comparison_agrees"] = agrees
            return OUTSIDE, payload
        return (AGREE, payload) if agrees else (DISAGREE, payload)

    subject = "filtration-vs-schur" if ns.compare else "filtration-character"
    return params, [_timed(subject, params, build)]


def _cmd_det_lead_terms(ns):
    params = {"n": ns.n, "a": ns.a, "b": ns.b, "prime": ns.prime}
    return params, [_timed("lead-term-containment", params, functools.partial(
        check_lead_terms, ns.n, ns.a, ns.b, ns.prime))]


def _cmd_char_nim(ns):
    params = {"m": ns.m, "n": ns.n}

    def build():
        f = nim_poly(ns.m, ns.n)
        return AGREE, {
            "character": f.to_records(),
            "dimension": f.dimension(),
            "summary": _char_summary(f),
            "dimension_table": _char_table("nim", f),
        }

    return params, [_timed("nim-character", params, build)]


def _cmd_char_schur(ns):
    if ns.a < ns.b:
        raise ValueError("--a must be at least --b for a two-row shape")
    if ns.b < 0:
        raise ValueError("--b must be non-negative")
    params = {"a": ns.a, "b": ns.b, "n": ns.n}
    if ns.q is not None:
        params["q"] = ns.q

    def build():
        if ns.q is None:
            f = schur2(ns.a, ns.b, ns.n)
        else:
            f = schur2_trunc(ns.a, ns.b, ns.q, ns.n)
        return AGREE, {
            "character": f.to_records(),
            "dimension": f.dimension(),
            "summary": _char_summary(f),
            "dimension_table": _char_table("schur", f),
        }

    return params, [_timed("schur-character", params, build)]


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> _Parser:
    """The one `fpcoh` parser of this process, shared by every caller, so no
    caller may change it; `ns.handler` is the name of a handler in this
    module."""
    shared = argparse.ArgumentParser(add_help=False)
    # SUPPRESS keeps a leaf from clobbering values parsed before the
    # subcommand name
    shared.add_argument("--json", metavar="PATH", default=argparse.SUPPRESS)
    shared.add_argument("--csv", metavar="PATH", default=argparse.SUPPRESS)

    parser = _Parser(prog="fpcoh", description=__doc__.splitlines()[0] if __doc__ else None)
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the verdict document to PATH")
    parser.add_argument("--csv", metavar="PATH", default=None,
                        help="write dimension tables to PATH")
    top = parser.add_subparsers(dest="group", required=True, metavar="GROUP")

    def group(name, text):
        return top.add_parser(name, help=text).add_subparsers(
            dest="action", required=True, metavar="ACTION"
        )

    def leaf(actions, command, handler, **required):
        """A subcommand run by the handler named `handler`, whose flags
        `required` are all mandatory, in order."""
        q = actions.add_parser(command.split()[1], parents=[shared])
        for flag, kind in required.items():
            q.add_argument(f"--{flag}", type=kind, required=True)
        q.set_defaults(handler=handler, command=command)
        return q

    cx = group("complex", "weighted path complexes")
    leaf(cx, "complex homology", "_cmd_complex_homology", weights=_int_list, prime=int)
    leaf(cx, "complex theorem", "_cmd_complex_theorem", d=int, primes=_int_list)
    leaf(cx, "complex involution", "_cmd_complex_involution",
         w0=int, d=int, primes=_int_list)
    leaf(cx, "complex ses-check", "_cmd_complex_ses",
         weights=_int_list, split=int, prime=int)

    st = group("stable", "stable hook cohomology")
    leaf(st, "stable hook", "_cmd_stable_hook", w0=int, d=int, prime=int)
    leaf(st, "stable periodicity", "_cmd_stable_periodicity",
         w0=int, d=int, prime=int, r=int)

    inc = group("incidence", "incidence cohomology characters")
    q = leaf(inc, "incidence chars", "_cmd_incidence_chars", n=int, d=int, e=int, prime=int)
    q.add_argument("--compare", choices=_COMPARE_CHOICES, default=None)
    q.add_argument("--no-symmetry", action="store_true",
                   help="disable the symmetry reduction over multidegree orbits")

    det = group("det", "determinantal ideal filtrations")
    q = leaf(det, "det filtration", "_cmd_det_filtration",
             n=int, a=int, b=int, i=int, prime=int)
    q.add_argument("--classical", action="store_true",
                   help="work in the plain polynomial ring instead of the truncation")
    q.add_argument("--compare", action="store_true",
                   help="compare against the two-row Schur character")
    leaf(det, "det lead-terms", "_cmd_det_lead_terms", n=int, a=int, b=int, prime=int)

    ch = group("char", "character ring evaluations")
    leaf(ch, "char nim", "_cmd_char_nim", m=int, n=int)
    q = leaf(ch, "char schur", "_cmd_char_schur", a=int, b=int)
    q.add_argument("--q", type=int, default=None)
    q.add_argument("--n", type=int, required=True)

    q = top.add_parser("sweep", parents=[shared])
    q.add_argument("--parallel", type=_positive_int, metavar="N", default=None,
                   help="caps sweep worker count (default: available cores)")
    q.add_argument("--config", metavar="FILE", required=True)
    q.set_defaults(handler="_cmd_sweep", command="sweep")

    return parser


# ---------------------------------------------------------------------------
# sweep orchestration


def expand_config(config: dict) -> list[list[str]]:
    """Row-major expansion of {"runs": [{"command": "...", key: value-or-list}]}
    into argv rows.  A list value is a sweep axis; scalars pass through.
    Valued flags become one "--key=value" token, so "--weights=-9,1,1" is
    never read as two flags.  A grid with no rows is refused."""
    if not isinstance(config, dict) or "runs" not in config:
        raise ValueError('sweep config must be an object with a "runs" list')
    rows = []
    for run in config["runs"]:
        if "command" not in run:
            raise ValueError('every run needs a "command" entry')
        command = run["command"]
        if not isinstance(command, str) or command.split()[0] == "sweep":
            raise ValueError(f"bad run command {command!r}")
        axes = []
        for key, value in run.items():
            if key == "command":
                continue
            values = value if isinstance(value, list) else [value]
            if not values:
                raise ValueError(f"empty sweep axis {key!r}")
            axes.append((key, values))
        for combo in product(*(vals for _, vals in axes)):
            argv = command.split()
            for (key, _), value in zip(axes, combo):
                flag = f"--{key}"
                if value is True:
                    argv.append(flag)
                elif value is False or value is None:
                    pass
                else:
                    argv.append(f"{flag}={value}")
            rows.append(argv)
    if not rows:
        raise ValueError("sweep config expands to no rows")
    return rows


def _run_row(argv: list[str]) -> list[Verdict]:
    """One sweep row; stdout of the row is swallowed so the parent report
    stays the only output.  Any failure becomes an error verdict."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            ns = build_parser().parse_args(argv)
            _, verdicts = globals()[ns.handler](ns)
        return verdicts
    except SystemExit:
        return [Verdict("sweep-row", {"argv": list(argv)}, ERROR,
                        {"message": sink.getvalue().strip() or "usage error"})]
    except (ValueError, UnsupportedRegimeError) as exc:
        message = str(exc)
    except Exception as exc:  # a failed check in one row must not end the sweep
        return [_crash_verdict("sweep-row", argv, exc)]
    return [Verdict("sweep-row", {"argv": list(argv)}, ERROR, {"message": message})]


# Futures per pool worker: each future carries a pickle, a queue hop and a
# wake-up of the parent, so small rows travel in chunks; a grid of at most
# this many rows per worker still gets one row per future.
_CHUNKS_PER_WORKER = 8


def _run_rows(chunk: list[list[str]]) -> list[list[Verdict]]:
    """The verdicts of each row of one chunk, in the chunk's order."""
    return [_run_row(argv) for argv in chunk]


def _crash_verdict(subject: str, argv: list[str], exc: Exception) -> Verdict:
    return Verdict(subject, {"argv": list(argv)}, ERROR,
                   {"message": f"{type(exc).__name__}: {exc}"})


def _cmd_sweep(ns):
    with open(ns.config) as fh:
        config = json.load(fh)
    rows = expand_config(config)
    params = {"config": os.path.basename(ns.config), "rows": len(rows)}
    workers = min(ns.parallel or os.cpu_count(), len(rows))
    verdicts: list[Verdict] = []
    if workers == 1:
        for argv in rows:
            verdicts.extend(_run_row(argv))
        return params, verdicts
    # strided, so rows whose cost grows along a grid axis spread over all chunks
    count = min(len(rows), _CHUNKS_PER_WORKER * workers)
    by_row: list = [None] * len(rows)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_run_rows, rows[k::count]) for k in range(count)]
        for k, future in enumerate(futures):
            try:
                by_row[k::count] = future.result()
            except BrokenProcessPool as exc:  # every row not yet returned is lost
                by_row[k::count] = [[_crash_verdict("sweep-row", argv, exc)]
                                    for argv in rows[k::count]]
    return params, [v for row in by_row for v in row]


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    ns = build_parser().parse_args(argv)
    try:
        params, verdicts = globals()[ns.handler](ns)
    except UnsupportedRegimeError as exc:
        print(f"fpcoh: unsupported regime: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"fpcoh: parameter error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a failed internal check still gets a report
        verdicts = [_crash_verdict(ns.command, argv, exc)]
        params = verdicts[0].parameters
        print(f"fpcoh: {verdicts[0].payload['message']}", file=sys.stderr)
    for v, line in zip(verdicts, human_lines(verdicts)):
        print(line)
        summary = v.payload.get("summary")
        if summary:
            print(f"    {summary}")
    if ns.json:
        document = report_document(ns.command, params, verdicts)
        with open(ns.json, "w") as fh:
            fh.write(render_json(document))
    if ns.csv:
        write_csv(ns.csv, verdicts)
    return exit_code(verdicts)


if __name__ == "__main__":
    raise SystemExit(main())
