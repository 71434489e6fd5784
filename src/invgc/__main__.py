"""The command line as a process: `python -m invgc` and the installed
`invgc` script both run main()."""

import os
import sys

# The variables OpenBLAS reads for its thread count when it is loaded.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def main():
    """Run invgc.cli.main on sys.argv as the whole process.

    OpenBLAS starts at one thread unless the user chose.  Every product
    runs under simgraph's one-thread pin, so the pool OpenBLAS starts
    when numpy loads it never gets work, yet its threads spin on the
    core that a cosine pass's second worker needs: 85 ms of CPU for the
    bare import on a 2-core Xeon, about 130 ms for eval or apply.
    OPENBLAS_NUM_THREADS=1, set before cli imports numpy, starts no pool,
    in scipy's OpenBLAS too.  A variable the user set to a non-empty
    value wins (OpenBLAS reads an empty one as unset).  Importing invgc
    or invgc.cli sets nothing.

    The process ends through os._exit once stdout and stderr are flushed.
    Interpreter finalization tears down every module numpy and invgc
    loaded, 26-29 ms on a 2-core Xeon, and no command needs it: every
    file invgc writes is closed before cli.main returns, the task pool
    joins its threads, and invgc registers no atexit hook.  If a flush
    fails (a closed pipe, a full disk), sys.exit ends the process, so
    finalization reports the error.  An argparse exit (--help, a usage
    error) ends the same way; any other exception propagates.
    """
    if not any(os.environ.get(var) for var in _BLAS_THREAD_VARS):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    from . import cli

    try:
        code = cli.main()
    except SystemExit as e:
        if not (e.code is None or isinstance(e.code, int)):
            raise
        code = e.code or cli.EXIT_OK
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (AttributeError, OSError, ValueError):  # no stream, a failed write, a closed file
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    main()
