"""The package namespace: public names resolve on first use."""

import ast
import importlib
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from invgc import cli, simgraph
from invgc.__main__ import _BLAS_THREAD_VARS

LIBRARY = ["core", "diagnostics", "embio", "retrieval", "simgraph", "synth", "theory", "tuner"]


def test_public_names_are_imported_on_first_use(cli_env):
    # a fresh interpreter, so no other test has imported a module yet
    run = (
        "import sys, importlib\n"
        "import invgc\n"
        "print(sorted(m for m in sys.modules if m.startswith('invgc.')))\n"
        "print(dir(invgc))\n"
        "print(invgc.__all__)\n"
        "from invgc import *\n"
        f"owners = [importlib.import_module('invgc.' + m) for m in {LIBRARY!r}]\n"
        "for name in invgc.__all__:\n"
        "    value = getattr(invgc, name)\n"
        "    assert any(vars(m).get(name) is value for m in owners), name\n"
        "    assert globals()[name] is value, name\n"
        "try:\n"
        "    invgc.no_such_name\n"
        "except AttributeError as e:\n"
        "    print(e)\n"
    )
    proc = subprocess.run([sys.executable, "-c", run], env=cli_env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded, listed, public, missing = proc.stdout.splitlines()
    assert loaded == "[]"
    public = eval(public)
    assert public == sorted(public) and len(public) == 51
    assert eval(listed) == sorted(
        public + LIBRARY + ["__all__", "__builtins__", "__cached__", "__doc__", "__file__",
                            "__loader__", "__name__", "__package__", "__path__", "__spec__",
                            "__version__"]
    )
    assert missing == "module 'invgc' has no attribute 'no_such_name'"


def test_the_installed_script_is_the_function_main_module_runs(monkeypatch):
    # an installed `invgc` must start and end its process as `python -m
    # invgc` does: with the BLAS thread default set, through os._exit
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as f:
        module, _, name = tomllib.load(f)["project"]["scripts"]["invgc"].partition(":")
    for var in _BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    ended = []
    monkeypatch.setattr(cli, "main", lambda argv=None: 3)
    monkeypatch.setattr(os, "_exit", ended.append)
    # runpy warns when invgc.__main__ is already imported
    monkeypatch.delitem(sys.modules, "invgc.__main__")
    runpy.run_module("invgc", run_name="__main__")
    assert ended == [3]
    assert os.environ.pop("OPENBLAS_NUM_THREADS") == "1"
    assert (module, name) == ("invgc.__main__", "main")
    script = getattr(importlib.import_module(module), name)
    script()
    assert ended == [3, 3]
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"


def test_the_blas_pin_is_found_on_the_numpy_pyproject_admits():
    # Without the pin every product falls back to a single-thread einsum,
    # about 4.7 times slower, and nothing says so; the floor is the numpy
    # whose wheel layout simgraph._find_blas_pin is tested against.
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as f:
        deps = tomllib.load(f)["project"]["dependencies"]
    floor, = (dep.removeprefix("numpy>=") for dep in deps if dep.startswith("numpy>="))
    assert np.lib.NumpyVersion(np.__version__) >= floor + ".0" * (2 - floor.count("."))
    pin = simgraph._BLAS_PIN
    assert pin is not None
    assert pin.get() >= 1


def _reaches_blas(node) -> bool:
    # Every numpy route to a BLAS product: @ and @=, a dot, matmul,
    # inner, vdot or tensordot of any object, an np.linalg call that is
    # not a per-axis reduction, and an einsum that may call tensordot.
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return isinstance(node.op, ast.MatMult)
    if isinstance(node, ast.Attribute):
        return node.attr in ("dot", "matmul", "inner", "vdot", "tensordot")
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return False
    f, keywords = node.func, {k.arg for k in node.keywords}
    if isinstance(f.value, ast.Attribute) and f.value.attr == "linalg":
        return "axis" not in keywords
    return f.attr == "einsum" and "optimize" in keywords


def test_every_matrix_product_goes_through_mm():
    # _mm holds BLAS at one thread, which keeps every result's bits
    # independent of the thread setting; a product that reaches BLAS
    # elsewhere would not be pinned.
    root = Path(__file__).resolve().parents[1]
    outside = []
    for path in sorted((root / "src" / "invgc").glob("*.py")):
        tree = ast.parse(path.read_bytes(), str(path))
        allowed = set()
        if path.name == "simgraph.py":
            mm, = (f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "_mm")
            allowed = {id(node) for node in ast.walk(mm)}
        outside += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if _reaches_blas(node) and id(node) not in allowed
        ]
    assert outside == []


def test_every_thread_is_started_by_the_one_task_pool():
    # simgraph._run_tasks is the one pool: it pins BLAS, copies the
    # caller's context into each worker and raises the first error in
    # task order.  A thread built elsewhere would do none of that.
    root = Path(__file__).resolve().parents[1]
    outside = []
    for path in sorted((root / "src" / "invgc").glob("*.py")):
        tree = ast.parse(path.read_bytes(), str(path))
        allowed = set()
        if path.name == "simgraph.py":
            pool, = (f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "_run_tasks")
            allowed = {id(node) for node in ast.walk(pool)}
        outside += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if (isinstance(node, ast.Attribute) and node.attr == "Thread"
                or isinstance(node, ast.Name) and node.id == "Thread"
                or isinstance(node, ast.alias) and node.name == "Thread")
            and id(node) not in allowed
        ]
    assert outside == []


def test_every_integer_check_is_the_one_count_check():
    # embio._check_count is the one rule for a count (a k, a size, a
    # seed): a finite integer in [lo, hi], refused with one message.  An
    # int(x) == x or int(x) != x test written anywhere else is a second rule.
    def integer_test(node):
        return (isinstance(node, ast.Compare) and len(node.ops) == 1
                and isinstance(node.ops[0], (ast.Eq, ast.NotEq))
                and any(isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                        and call.func.id == "int" and len(call.args) == 1
                        and ast.dump(call.args[0]) == ast.dump(other)
                        for call, other in ((node.left, node.comparators[0]),
                                            (node.comparators[0], node.left))))

    root = Path(__file__).resolve().parents[1]
    outside = []
    for path in sorted((root / "src" / "invgc").glob("*.py")):
        tree = ast.parse(path.read_bytes(), str(path))
        allowed = set()
        if path.name == "embio.py":
            check, = (f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "_check_count")
            allowed = {id(node) for node in ast.walk(check)}
        outside += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if integer_test(node) and id(node) not in allowed
        ]
    assert outside == []


def test_only_the_process_entry_ends_the_process_or_writes_the_environment():
    # invgc.__main__.main is the process: it alone sets the BLAS thread
    # default and ends through os._exit.  Anywhere else an os._exit would
    # end the caller's process, and an environment write outlive the call.
    ends = {"_exit", "putenv", "unsetenv"}
    writes = {"update", "setdefault", "pop", "popitem", "clear", "__setitem__", "__delitem__"}

    def environ(node):
        return (isinstance(node, ast.Attribute) and node.attr == "environ"
                or isinstance(node, ast.Name) and node.id == "environ")

    root = Path(__file__).resolve().parents[1]
    outside = []
    for path in sorted((root / "src" / "invgc").glob("*.py")):
        tree = ast.parse(path.read_bytes(), str(path))
        allowed = set()
        if path.name == "__main__.py":
            entry, = (f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "main")
            allowed = {id(node) for node in ast.walk(entry)}
        outside += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if (isinstance(node, ast.Attribute) and node.attr in ends
                or isinstance(node, ast.alias) and node.name in ends
                or isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load) and environ(node.value)
                or isinstance(node, ast.Attribute) and node.attr in writes and environ(node.value))
            and id(node) not in allowed
        ]
    assert outside == []


def test_every_tile_and_route_is_chosen_by_the_plan():
    # simgraph._plan decides every pass's blocks, every chunk and gather
    # piece, and every aggregate route, from the shapes alone.  A budget
    # read or a _row_blocks cut made anywhere else would be a second rule,
    # free to read the worker count or the host.
    rules = {"_BLOCK_CELLS", "_PARTITION_CELLS", "_GATHER_SHARE", "_row_blocks"}
    root = Path(__file__).resolve().parents[1]
    outside = []
    for path in sorted((root / "src" / "invgc").glob("*.py")):
        tree = ast.parse(path.read_bytes(), str(path))
        allowed = set()
        if path.name == "simgraph.py":
            for f in tree.body:
                if isinstance(f, ast.FunctionDef) and f.name == "_plan":
                    allowed = {id(node) for node in ast.walk(f)}
        outside += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in rules
                or isinstance(node, ast.Attribute) and node.attr in rules
                or isinstance(node, ast.alias) and node.name in rules)
            and id(node) not in allowed
        ]
    assert outside == []


def test_every_source_parses_as_the_oldest_python_it_supports():
    root = Path(__file__).resolve().parents[1]
    assert 'requires-python = ">=3.10"' in (root / "pyproject.toml").read_text(encoding="utf-8")
    sources = sorted((root / "src" / "invgc").glob("*.py"))
    assert len(sources) > 5
    for path in sources:
        ast.parse(path.read_bytes(), str(path), feature_version=(3, 10))
