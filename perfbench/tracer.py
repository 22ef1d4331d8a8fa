"""Span tracer for one fpcoh process, installed from outside the package.

`Tracer.install()` replaces the public entry points of every fpcoh layer
with timing wrappers, in every fpcoh module namespace that binds them (the
CLI imports `build_complex`, `h_characters` and others by name, so patching
the defining module alone would miss those calls).  Spans are kept in
memory, one stack per thread, and reduced to per-layer metrics by
`layer_metrics()` once the traced call has returned.

Self time is a span's duration minus the part of it covered by its child
spans.  A span opened on a worker thread with an empty stack (the thread
pool inside `h_characters`) takes as parent the innermost span open on the
main thread, so block scans count as children of `h_characters`.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter

_clock = time.perf_counter


class Span:
    __slots__ = ("name", "parent", "start", "end", "children")

    def __init__(self, name: str, parent: "Span | None") -> None:
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.children: list[Span] = []

    def duration(self) -> float:
        return self.end - self.start

    def self_time(self) -> float:
        """Duration minus the union of the child intervals; children from
        pool threads may overlap each other."""
        covered = 0.0
        reach = self.start
        for c in sorted(self.children, key=lambda s: s.start):
            lo, hi = max(c.start, reach), min(c.end, self.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return self.duration() - covered


class _ThreadState:
    __slots__ = ("stack", "spans", "counts")

    def __init__(self) -> None:
        self.stack: list[Span] = []
        self.spans: list[Span] = []
        self.counts: Counter = Counter()


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._main = self._state()
        self._undo: list[tuple[object, str, object]] = []
        self.slices: list = []  # ideal-power slices, measured after the run

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState()
            self._local.state = st
            self._states.append(st)  # list.append is atomic under the GIL
        return st

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, func, name, before=None, after=None):
        """Wrap func.  `before(counts, args, kwargs)` may return a span name
        replacing `name`, or None to skip the span; `after(counts, args,
        result)` records counters from the result.  name=None makes a
        counter-only wrapper."""
        tracer = self

        def wrapper(*args, **kwargs):
            st = tracer._state()
            st.counts[func.__qualname__] += 1
            span_name = before(st.counts, args, kwargs) if before else name
            if span_name is None:
                result = func(*args, **kwargs)
            else:
                if st.stack:
                    parent = st.stack[-1]
                elif st is not tracer._main and tracer._main.stack:
                    parent = tracer._main.stack[-1]
                else:
                    parent = None
                span = Span(span_name, parent)
                st.stack.append(span)
                span.start = _clock()
                try:
                    result = func(*args, **kwargs)
                finally:
                    span.end = _clock()
                    st.stack.pop()
                    st.spans.append(span)
                    if parent is not None:
                        parent.children.append(span)
            if after:
                after(st.counts, args, result)
            return result

        return functools.wraps(func)(wrapper)

    def _patch_function(self, module, attr, name, before=None, after=None):
        original = getattr(module, attr)
        wrapped = self._wrap(original, name, before, after)
        for mod in _fpcoh_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, value))
                    setattr(mod, key, wrapped)

    def _patch_method(self, cls, attr, name, before=None, after=None):
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self._wrap(original, name, before, after))

    def install(self) -> None:
        from fpcoh import (
            characters,
            cli,
            combinatorics,
            complexes,
            determinantal,
            incidence,
            linalg,
            verdicts,
        )

        f = self._patch_function
        # cli: the entry point, every handler, and each sweep row
        f(cli, "main", "cli.main")
        f(cli, "_run_row", "cli.row")
        for attr in [a for a in vars(cli) if a.startswith("_cmd_")]:
            f(cli, attr, "cli.handler")
        f(verdicts, "render_json", "verdicts.render",
          after=lambda c, a, r: c.update({"json_bytes": len(r.encode())}))

        f(complexes, "build_complex", "complexes.build",
          after=lambda c, a, r: c.update({"cells": 1 << r.d}))
        f(complexes, "homology_dims", "complexes.homology")

        f(linalg, "matmul_mod", "linalg.matmul")
        f(linalg, "smith_invariants", "linalg.smith")
        f(linalg, "rref_with_order", "linalg.rref")

        def rank_path(counts, args, kwargs):
            m = args[0]
            if getattr(m, "_rank_cache", None) is not None or min(m.shape) == 0:
                return None  # cached or empty: no elimination runs
            threshold = args[1] if len(args) > 1 else kwargs.get("dense_threshold")
            if threshold is None:
                threshold = linalg.DENSE_COLUMN_THRESHOLD
            counts["rank_cells"] += m.rows * m.cols
            return "linalg.rank_sparse" if m.cols >= threshold else "linalg.rank_dense"

        self._patch_method(linalg.PrimeFieldMatrix, "rank", None, before=rank_path)

        f(incidence, "h_characters", "incidence.chars")
        f(incidence, "omega_block", "incidence.omega")
        f(incidence, "block_basis", "incidence.basis")

        poly = characters.LaurentPolynomial
        self._patch_method(poly, "__init__", None)
        for attr in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                     "__rmul__", "__neg__", "frobenius"):
            self._patch_method(poly, attr, "characters.arith")
        for attr in ("h", "h_trunc", "schur2", "schur2_trunc", "nim_poly"):
            f(characters, attr, "characters.formula")
        for attr in ("h1_window_char", "h1_small_weight_char", "h1_char2_char"):
            f(incidence, attr, "characters.formula")

        def keep_slice(counts, args, result):
            counts["gen_rows"] += sum(b.matrix.rows for b in result.blocks.values())
            self.slices.append(result)

        f(determinantal, "ideal_power_slice", "determinantal.slice", after=keep_slice)
        f(determinantal, "expand_minor_product", None)
        f(determinantal, "leading_monomials", "determinantal.lead")

        for attr in ("enumerate_A", "enumerate_ssyt", "enumerate_pssyt"):
            f(combinatorics, attr, "combinatorics.enum")

    def uninstall(self) -> None:
        while self._undo:
            target, attr, value = self._undo.pop()
            setattr(target, attr, value)

    # -- reduction --------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Additive per-layer totals for this process.  Call after
        uninstall(): the slice dimensions are taken here, untraced."""
        spans = [s for st in self._states for s in st.spans]
        counts: Counter = Counter()
        for st in self._states:
            counts.update(st.counts)

        self_s: Counter = Counter()
        outer_s: Counter = Counter()  # outermost spans of a name, inclusive
        for s in spans:
            self_s[s.name] += s.self_time()
            a = s.parent
            while a is not None and a.name != s.name:
                a = a.parent
            if a is None:
                outer_s[s.name] += s.duration()

        calls = Counter(s.name for s in spans)
        slice_dim = sum(slc.dimension() for slc in self.slices)
        return {
            "cli.self_s": self_s["cli.main"] + self_s["cli.row"] + self_s["cli.handler"],
            "cli.rows": counts["main"] + counts["_run_row"] - counts["_cmd_sweep"],
            "verdicts.render_s": self_s["verdicts.render"],
            "verdicts.json_bytes": counts["json_bytes"],
            "complexes.build_s": self_s["complexes.build"],
            "complexes.build_calls": calls["complexes.build"],
            "complexes.cells": counts["cells"],
            "complexes.homology_s": outer_s["complexes.homology"],
            "linalg.matmul_s": self_s["linalg.matmul"],
            "linalg.matmul_calls": calls["linalg.matmul"],
            "linalg.rank_sparse_s": self_s["linalg.rank_sparse"],
            "linalg.rank_sparse_calls": calls["linalg.rank_sparse"],
            "linalg.rank_dense_s": self_s["linalg.rank_dense"],
            "linalg.rank_calls": calls["linalg.rank_dense"] + calls["linalg.rank_sparse"],
            "linalg.rank_cells": counts["rank_cells"],
            "linalg.rref_s": self_s["linalg.rref"],
            "linalg.smith_s": self_s["linalg.smith"],
            "linalg.smith_calls": calls["linalg.smith"],
            "incidence.chars_s": outer_s["incidence.chars"],
            "incidence.self_s": self_s["incidence.chars"],
            "incidence.omega_s": outer_s["incidence.omega"],
            "incidence.blocks": calls["incidence.omega"],
            "incidence.basis_builds": calls["incidence.basis"],
            "characters.poly_builds": counts["LaurentPolynomial.__init__"],
            "characters.arith_calls": calls["characters.arith"],
            "characters.arith_s": self_s["characters.arith"],
            "characters.formula_s": outer_s["characters.formula"],
            "determinantal.slice_s": outer_s["determinantal.slice"],
            "determinantal.slices": calls["determinantal.slice"],
            "determinantal.gen_rows": counts["gen_rows"],
            "determinantal.slice_dim": slice_dim,
            "determinantal.expand_calls": counts["expand_minor_product"],
            "determinantal.lead_s": outer_s["determinantal.lead"],
            "combinatorics.enum_s": outer_s["combinatorics.enum"],
        }


def _fpcoh_modules():
    return [m for k, m in list(sys.modules.items())
            if (k == "fpcoh" or k.startswith("fpcoh.")) and m is not None]
