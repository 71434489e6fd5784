import os
import tracemalloc
from pathlib import Path

import pytest

import invgc

# The directory that holds the invgc package this test run imported:
# src/ for a checkout, site-packages for an installed copy.
INVGC_ROOT = Path(invgc.__file__).resolve().parents[1]


@pytest.fixture
def cli_env():
    """Environment for `python -m invgc` subprocesses.

    INVGC_ROOT goes first on PYTHONPATH, ahead of whatever the run
    inherited, so a child started in any cwd imports the same invgc tree
    as the tests, even when the inherited PYTHONPATH is relative.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(INVGC_ROOT), env.get("PYTHONPATH")]))
    return env


@pytest.fixture
def traced_peak():
    """traced_peak(fn, *args, **kwargs) -> (fn's result, the peak bytes
    tracemalloc traced while fn ran)."""

    def run(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            result = fn(*args, **kwargs)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return run


def pytest_collection_modifyitems(config, items):
    """Every warning a test under tests/ raises fails it.  The mark goes on
    here, not in pyproject's filterwarnings, which would also reach any
    other test tree run in the same session.  It goes first, so a test's
    own filterwarnings mark still takes precedence."""
    here = Path(__file__).parent
    for item in items:
        if here in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error"), append=False)
