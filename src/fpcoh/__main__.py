"""The process entry, for `python -m fpcoh` and the `fpcoh` console script."""

import os
import signal
import sys

from .cli import main


def run() -> int:
    """`cli.main`'s exit code; a run stopped by SIGINT or SIGTERM says so in
    one line on stderr, then ends by that signal, as a shell expects."""
    try:
        return main()
    except KeyboardInterrupt as stop:
        signum = signal.SIGTERM if stop.args == (signal.SIGTERM,) else signal.SIGINT
        sys.stdout.flush()
        print(f"fpcoh: stopped by {signum.name}", file=sys.stderr, flush=True)
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)
        return 128 + signum  # had the signal been blocked


if __name__ == "__main__":
    raise SystemExit(run())
