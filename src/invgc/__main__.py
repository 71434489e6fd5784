"""The command line as a process: `python -m invgc` and the installed
`invgc` script both run main()."""

import os

# The variables OpenBLAS reads for its thread count when it is loaded.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def main():
    """Run invgc.cli.run with OpenBLAS at one thread unless the user chose.

    Every product runs under simgraph's one-thread pin, so the worker
    pool OpenBLAS starts when numpy loads it never gets any work, yet
    its threads spin on the core that a cosine pass's second worker
    needs: 85 ms of CPU for the bare import on a 2-core Xeon, about
    130 ms for eval or apply.  OPENBLAS_NUM_THREADS=1, set before cli
    imports numpy, starts no pool; it reaches scipy's own OpenBLAS too.
    A variable the user set to a non-empty value wins (OpenBLAS reads an
    empty one as unset).  Only this entry sets it: importing invgc or
    invgc.cli does not.
    """
    if not any(os.environ.get(var) for var in _BLAS_THREAD_VARS):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    from .cli import run

    run()


if __name__ == "__main__":
    main()
