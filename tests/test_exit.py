"""The process entry: `python -m invgc` flushes and ends through os._exit.

Each subprocess case runs the same argv twice, through `python -m invgc`
and through a child that ends as the entry used to, with
sys.exit(main()) and a full interpreter finalization; the two must agree
on every byte.  The entry also starts the process with OpenBLAS at one
thread, unless the user set its thread count.
"""

import os
import subprocess
import sys

import pytest

from invgc import cli, simgraph
from invgc.__main__ import _BLAS_THREAD_VARS, main

_FINALIZED = "import sys\nfrom invgc.cli import main\nsys.exit(main(sys.argv[1:]))\n"

# verify-theory at its defaults prints about 38 KB, more than one 8 KiB
# stdout buffer; the short case fits in one.
_LONG = ["verify-theory"]
_SHORT = ["verify-theory", "--n", "2", "--b", "0.2,0.6"]


def _envs(cli_env):
    # both with and without a buffered stdout, whatever the run inherited
    buffered = {k: v for k, v in cli_env.items() if k != "PYTHONUNBUFFERED"}
    return {"buffered": buffered, "unbuffered": dict(buffered, PYTHONUNBUFFERED="1")}


def _both(argv, env, **kw):
    """(fast, finalized): the two ways of running argv, as CompletedProcess."""
    return tuple(
        subprocess.run([sys.executable, *entry, *argv], env=env, **kw)
        for entry in (["-m", "invgc"], ["-c", _FINALIZED])
    )


@pytest.mark.parametrize("argv", [_LONG, _SHORT], ids=["long", "short"])
def test_stdout_is_the_in_process_mains_byte_for_byte(argv, cli_env, capsys):
    assert cli.main(argv) == 0
    want = capsys.readouterr().out.encode("utf-8")
    for name, env in _envs(cli_env).items():
        proc = subprocess.run([sys.executable, "-m", "invgc", *argv], env=env, capture_output=True)
        assert proc.returncode == 0, (name, proc.stderr)
        assert proc.stdout == want, name


@pytest.mark.parametrize("argv, code", [
    (_SHORT, 0),
    (["verify-theory", "--n", "2.5"], 1),
    (["frobnicate"], 1),
    (["diagnose", "--gallery", "no-such.emb"], 2),
    (["verify-theory", "--n", "3", "--b", "0.5,0.9", "--include-thm1", "--strict"], 3),
    (["--help"], 0),
], ids=["ok", "usage", "argparse-usage", "data", "strict", "help"])
def test_exit_code_and_streams_match_a_finalized_exit(argv, code, cli_env, tmp_path):
    # a buffered stdout still holds the output when main returns
    fast, slow = _both(argv, _envs(cli_env)["buffered"], cwd=tmp_path, capture_output=True)
    assert fast.returncode == code, fast.stderr
    assert (fast.returncode, fast.stdout, fast.stderr) == (slow.returncode, slow.stdout, slow.stderr)
    assert fast.stdout if code in (0, 3) else fast.stderr


def test_the_fast_exit_skips_atexit_hooks(cli_env):
    # the hook stands for all that finalization runs; a child that ends
    # through sys.exit runs it, so the check can fail
    hooked = (
        "import atexit, sys\n"
        "atexit.register(print, 'atexit hook ran')\n"
        "from invgc import cli\n"
        "from invgc.__main__ import main\n"
    )
    out = {}
    for name, end in (("run", "main()"), ("sys.exit", "sys.exit(cli.main(sys.argv[1:]))")):
        proc = subprocess.run(
            [sys.executable, "-c", hooked + end, *_SHORT], env=cli_env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        out[name] = proc.stdout
    assert out["run"].startswith("lemma2\t")
    assert "atexit hook ran" not in out["run"]
    assert out["sys.exit"] == out["run"] + "atexit hook ran\n"


def test_a_closed_stdout_pipe_exits_as_a_finalized_run(cli_env):
    for name, env in _envs(cli_env).items():
        for argv in (_SHORT, _LONG, ["--help"]):
            r, w = os.pipe()
            os.close(r)
            try:
                fast, slow = _both(argv, env, stdout=w, stderr=subprocess.PIPE)
            finally:
                os.close(w)
            assert (fast.returncode, fast.stderr) == (slow.returncode, slow.stderr), (name, argv)
    # unbuffered, the first print fails inside main
    r, w = os.pipe()
    os.close(r)
    try:
        fast, _ = _both(_SHORT, _envs(cli_env)["unbuffered"], stdout=w, stderr=subprocess.PIPE)
    finally:
        os.close(w)
    assert (fast.returncode, fast.stderr) == (2, b"invgc verify-theory: [Errno 32] Broken pipe\n")


class _Ended(Exception):
    pass


@pytest.fixture
def ended(monkeypatch):
    """The codes main passes to os._exit, which raises instead of ending.
    The BLAS thread count is set, so main leaves the environment alone."""
    codes = []

    def fake_exit(code):
        codes.append(code)
        raise _Ended

    monkeypatch.setattr(os, "_exit", fake_exit)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    return codes


@pytest.mark.parametrize("outcome, code", [
    (lambda: 3, 3),
    (lambda: sys.exit(), 0),
    (lambda: sys.exit(1), 1),
])
def test_run_ends_with_mains_code(outcome, code, ended, monkeypatch):
    monkeypatch.setattr(cli, "main", lambda argv=None: outcome())
    with pytest.raises(_Ended):
        main()
    assert ended == [code]


@pytest.mark.parametrize("error", [SystemExit("message"), KeyboardInterrupt(), RuntimeError("bug")])
def test_run_lets_other_exits_and_errors_through(error, ended, monkeypatch):
    def fail(argv=None):
        raise error

    monkeypatch.setattr(cli, "main", fail)
    with pytest.raises(type(error)) as info:
        main()
    assert info.value is error and ended == []


class _ClosedPipe:
    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


# sys.stdout is None when the process starts with file descriptor 1 closed
@pytest.mark.parametrize("stdout", [_ClosedPipe(), None], ids=["closed-pipe", "no-stdout"])
def test_a_failed_flush_falls_back_to_sys_exit(stdout, ended, monkeypatch):
    monkeypatch.setattr(cli, "main", lambda argv=None: 0)
    monkeypatch.setattr(sys, "stdout", stdout)
    with pytest.raises(SystemExit) as info:
        main()
    assert info.value.code == 0 and ended == []


# A child that runs the installed script's function and, where it ends
# the process, prints its numpy OpenBLAS thread count and its thread
# count, the BLAS pool's workers included.
_REPORT_AT_EXIT = (
    "import os\n"
    "end = os._exit\n"
    "def report(code):\n"
    "    from invgc import simgraph\n"
    "    print(simgraph._BLAS_PIN.get(), len(os.listdir('/proc/self/task')), flush=True)\n"
    "    end(code)\n"
    "os._exit = report\n"
    "from invgc.__main__ import main\n"
    "main()\n"
)
_TINY_COMMANDS = {
    "synth": ["synth", "--items", "4", "--refs", "6", "--dim", "3", "--out-prefix", "syn"],
    "verify-theory": ["verify-theory", "--n", "2", "--b", "0.5"],  # loads scipy's OpenBLAS too
}
needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")


def _blas_report(tmp_path, cli_env, argv, **blas_env):
    env = {k: v for k, v in cli_env.items() if k not in _BLAS_THREAD_VARS}
    proc = subprocess.run(
        [sys.executable, "-c", _REPORT_AT_EXIT, *argv], cwd=tmp_path,
        env=dict(env, **blas_env), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    threads, tasks = proc.stdout.splitlines()[-1].split()
    return int(threads), int(tasks)


@needs_proc
@pytest.mark.skipif(simgraph._BLAS_PIN is None, reason="numpy's OpenBLAS not found")
@pytest.mark.parametrize("command", sorted(_TINY_COMMANDS))
@pytest.mark.parametrize("blas_env", [{}, {"OPENBLAS_NUM_THREADS": ""}], ids=["unset", "empty"])
def test_the_cli_starts_no_blas_worker_pool_by_default(command, blas_env, tmp_path, cli_env):
    # every product runs at one BLAS thread, so a pool would only idle
    assert _blas_report(tmp_path, cli_env, _TINY_COMMANDS[command], **blas_env) == (1, 1)


@needs_proc
@pytest.mark.skipif(simgraph._BLAS_PIN is None, reason="numpy's OpenBLAS not found")
@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="OpenBLAS caps its threads at the CPUs")
@pytest.mark.parametrize("var", _BLAS_THREAD_VARS)
def test_a_blas_thread_variable_the_user_set_wins(var, tmp_path, cli_env):
    # the criterion-12 tests set one of these to compare against a real
    # 2-thread library
    threads, tasks = _blas_report(tmp_path, cli_env, _TINY_COMMANDS["synth"], **{var: "2"})
    assert threads == 2 and tasks > 1


def test_importing_invgc_leaves_the_environment_alone(cli_env):
    run = (
        "import os\n"
        "before = dict(os.environ)\n"
        "import invgc, invgc.cli, invgc.__main__\n"
        "invgc.simgraph  # a lazy name: loads simgraph and its BLAS lookup\n"
        "assert dict(os.environ) == before\n"
    )
    env = {k: v for k, v in cli_env.items() if k not in _BLAS_THREAD_VARS}
    proc = subprocess.run([sys.executable, "-c", run], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
