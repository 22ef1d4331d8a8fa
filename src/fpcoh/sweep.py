"""A sweep's rows, run in bounded memory.  `cli._cmd_sweep` imports this
module when a sweep starts, so a single command neither compiles nor holds
it.

The rows go to a process pool in strided chunks, or with one worker to the
same chunk function in this process.  A chunk returns per verdict only the
small record stdout and the exit code read.  With a report asked for, each
worker also appends every verdict's text to its own spill file,
`<report>.<8 hex digits>.<k>.spill` beside the report, and returns the byte
range, a `Spilled` record, so the parent never holds a payload.  The parent
makes one spill file per worker and reads it through the descriptor it made
it with; its name lasts only until its writer opens it.  ^C, SIGTERM (see
`cli.main`) and a failed worker start kill every worker, and no spill file
outlives the sweep but under SIGKILL.  A killed worker breaks the pool:
every row of a chunk not yet returned becomes a `sweep-row` error verdict.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import signal
import tempfile

from . import cli
from .verdicts import _ITEM, table_keys, verdict, write_value

# Futures per pool worker: each future carries a pickle, a queue hop and a
# wake-up of the parent, so small rows travel in chunks; a grid of at most
# this many rows per worker still gets one row per future.
_CHUNKS_PER_WORKER = 8

# The payload keys a sweep's parent reads: stdout and the exit code.
_PRINTED = ("summary", "witness", "comparison_agrees", "message")

_own = None  # in a pool worker, the `_Spill` its initializer took


class Spilled:
    """A verdict in a spill file, read by key as its small `record`, what
    stdout reads; `fd`, `start` and `end` locate the text `write_value`
    wrote at `_ITEM`, `table` is its `table_keys`, and `lost` the OSError
    that kept the text from the file, if one did.  The report writer knows
    one by its `blocks`; the class lives here, so that a single command does
    not compile it, and holds the record rather than copying it."""

    __slots__ = ("record", "fd", "start", "end", "table", "lost")

    def __init__(self, record: dict, fd=-1, start=0, end=0, table=(), lost=None):
        self.record, self.fd, self.start, self.end = record, fd, start, end
        self.table, self.lost = table, lost

    def __getitem__(self, key: str):
        return self.record[key]

    def blocks(self):
        """The text in blocks of at most 64 KiB, so a copy never holds it whole."""
        for offset in range(self.start, self.end, 1 << 16):
            yield os.pread(self.fd, min(self.end - offset, 1 << 16), offset)


def run(ns, rows: list[list[str]]) -> list[dict]:
    """Every row's verdicts in grid order; with a report asked for, each
    spilled one, or all once a spill file is lost, is a `Spilled` record."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(ns.parallel or cpus or 1, len(rows))
    # strided, so rows whose cost grows along a grid axis spread over all chunks
    count = 1 if workers == 1 else min(len(rows), _CHUNKS_PER_WORKER * workers)
    names, files, error = [], [], None  # the spill files made, one per worker, and their readers
    report = ns.json if ns.json is not None else ns.csv
    try:
        if report is not None:  # beside the report, unless it is written in place
            beside = not os.path.exists(report) or os.path.isfile(report)
            prefix = (os.path.realpath(report) if beside else
                      os.path.join(tempfile.gettempdir(), os.path.basename(report)))
            prefix += f".{os.urandom(4).hex()}"
            try:
                for name in (f"{prefix}.{k}.spill" for k in range(workers)):
                    files.append(os.open(name, os.O_RDONLY | os.O_CREAT | os.O_EXCL, 0o600))
                    names.append(name)
            except OSError as exc:  # the rows run as without a report, which names the error
                error = exc
        spills = [] if error else names
        tables = ns.csv is not None
        if workers == 1:
            chunks = [_run_chunk(rows, tables, _Spill(0, spills[0]) if spills else None)]
        else:
            chunks = [None] * count
            pool = cli.ProcessPoolExecutor(max_workers=workers, initializer=_start_worker,
                                           initargs=(spills, multiprocessing.Value("i")))
            futures = [pool.submit(_run_chunk, rows[k::count], tables) for k in range(count)]
            for k, future in enumerate(futures):
                try:
                    chunks[k] = future.result()
                except cli.BrokenProcessPool as exc:  # every row not yet returned is lost
                    chunks[k] = ([[(cli._crash_verdict("sweep-row", argv, exc), None)]
                                  for argv in rows[k::count]], None)
            pool.shutdown()
        error = error or next((failed for _, failed in chunks if failed), None)
    except BaseException as exc:  # ^C, SIGTERM or a worker that failed to start: a pool's
        # shutdown would wait for every queued chunk, so no worker is left to run one
        for child in multiprocessing.active_children():
            child.kill()
        error = exc  # and no record holds a descriptor
        raise
    finally:  # no spill file keeps its name past the sweep, nor a descriptor no record holds
        for name in names:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(name)
        for fd in files if error else ():
            os.close(fd)
    lost = error and OSError(error.errno, error.strerror, report)
    verdicts = []
    for i in range(len(rows)):  # row i is item i // count of chunk i % count
        for record, span in chunks[i % count][0][i // count]:
            if lost:
                record = Spilled(record, lost=lost)
            elif span:
                record = Spilled(record, files[span[0]], *span[1:])
            verdicts.append(record)
    return verdicts


class _Spill:
    """The spill file number k of a sweep, which one process appends its
    verdicts to.  A failed write, such as on a full disk, stops the file
    but not the rows; `failed` is its error."""

    def __init__(self, k: int, name: str):
        self.k, self.end, self.failed, self.fh = k, 0, None, None
        try:
            # "r+", as "w" would truncate the empty file, and on ext4 a file
            # truncated to nothing starts its writeback when closed
            self.fh = open(name, "r+", encoding="ascii")
            os.unlink(name)  # the parent reads it through the descriptor it made it with
        except OSError as exc:
            self.failed = exc

    def write(self, v: dict, tables: bool) -> tuple | None:
        """Append v's text as the report's "verdicts" list holds it.  Its
        span, (k, start, end, the keys its table entries hold when
        `tables`), or None once the file has failed."""
        if self.failed:
            return None
        try:
            start, self.end = self.end, self.end + write_value(v, _ITEM, self.fh)
        except OSError as exc:
            self.failed = exc
            return None
        return self.k, start, self.end, table_keys(v) if tables else ()

    def finish(self, close: bool) -> None:
        try:
            if self.fh:
                self.fh.close() if close else self.fh.flush()
        except OSError as exc:  # the last buffer did not reach the file
            self.failed = self.failed or exc


def _start_worker(names: list[str], taken) -> None:
    """Pool initializer: SIGTERM's default action, by which a broken pool ends
    its workers, and the worker's spill file, the first of names not taken."""
    global _own
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    if names:
        with taken.get_lock():
            k = taken.value
            taken.value += 1
        _own = _Spill(k, names[k])


def _run_chunk(chunk: list[list[str]], tables: bool,
               spill: _Spill | None = None) -> tuple[list[list[tuple]], OSError | None]:
    """Each row of one chunk, in the chunk's order, as (record, span) pairs
    per verdict, and the error that stopped the spill file, if one did.
    The record is the verdict with only the `_PRINTED` payload keys; span
    is where `_Spill.write` put the whole verdict, or None without a spill
    file.  spill is this process's only chunk's file, closed at its end; in
    a pool, a worker's chunks share its own, flushed at each chunk's end, so
    what a chunk returns is in the file even if the worker dies later."""
    own, rows = spill or _own, []
    try:
        for argv in chunk:
            row = []
            for v in cli._run_row(argv):  # through the module, where a tracer wraps it
                payload, span = v["payload"], own and own.write(v, tables)
                row.append((verdict(v["subject"], v["parameters"], v["status"],
                                    {k: payload[k] for k in _PRINTED if k in payload}), span))
            rows.append(row)
            v = payload = None  # not held while the next row runs
    finally:
        if own:
            own.finish(close=own is spill)
    return rows, own and own.failed
