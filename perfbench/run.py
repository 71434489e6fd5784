"""The invgc benchmark: wall time of the invgc CLI on synthetic workloads.

    python3 perfbench/run.py --workload correct-L --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; nothing needs installing.  The
inputs come from ``invgc synth`` with the workload seed.  Every command
runs as ``sys.executable -m invgc`` with an absolute path to the
checkout's ``src`` and a temporary working directory, one at a time, and
every output is checked by perfbench/checks.py.

--trace 0 measures the end-to-end metrics, untraced.  --trace 1 runs
each command both untraced and under perfbench/spans.py, and reports the
per-layer metrics plus the tracing overhead.  Either way the last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics; the lines before it give the same figures for reading, with
the environment, the input digests and, traced, each command's overhead
and uncovered time.  setup_s, startup_s and wall_s are scaled to a
reference host speed by a calibration child that runs no invgc code (see
CALIBRATION_REF_S); the unscaled values are printed as "raw" lines.  The
full record goes to perfbench/out/.

attempted and failed count the workload's commands only.  A failed
start-up sample, synth call or calibration is reported as a problem and
makes correct false without counting as a command.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import spans
from workloads import WORKLOADS, Command

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 3
SAMPLE_SHARE = 0.3
RUN_LIMIT_S = 170.0
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
INPUT_SUFFIXES = {
    "gallery": ".gallery.emb", "query": ".query.emb", "refg": ".refg.emb",
    "refq": ".refq.emb", "rel": ".rel.tsv",
}
END_TO_END_UNITS = {
    "setup_s": "s", "startup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "recall_at_1": "%",
}


CALIBRATION = "import numpy, scipy.special"
CALIBRATION_REF_S = 0.4
"""Median time of the CALIBRATION child on the reference host: 2 vCPUs of a
2.1 GHz Xeon, Python 3.11.7, numpy 2.4.6, scipy 1.17.1.

That host speeds up and slows down every process together by 10-30% for
minutes at a time, which moves whole runs.  So the run samples CALIBRATION
(the imports invgc starts with, and no invgc code) next to every start-up
and synth sample, and the end-to-end times are scaled by CALIBRATION_REF_S
over its median: they read as at the reference speed.  The constant only
keeps the unit in seconds; it cancels in every comparison of two runs.  No
change to invgc can move the calibration; the unscaled times are printed
and kept as "raw".
"""


class Abort(Exception):
    """The run cannot finish: it would overrun RUN_LIMIT_S, or cannot calibrate."""


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    code: int
    stdout: str
    stderr: str


@dataclass
class Run:
    """One benchmark run: its clock, work directory and failure count."""

    workload: str
    seed: int
    work: Path
    started: float = field(default_factory=time.perf_counter)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    calibration: list = field(default_factory=list)
    synth_calls: int = 0

    def child(self, argv: list, traced_as: str | None = None, spans_out: Path | None = None) -> Child:
        """Run one invgc command, or spans.py around it when traced_as is set."""
        if traced_as is None:
            return self.spawn(["-m", "invgc", *argv])
        return self.spawn([str(BENCH / "spans.py"), "--out", str(spans_out), "--workload",
                           self.workload, "--command", traced_as, "--", *argv])

    def calibrate(self) -> None:
        """Time one CALIBRATION child, which runs no invgc code."""
        child = self.spawn(["-c", CALIBRATION])
        if child.code != 0:
            raise Abort(f"calibration failed: {child.stderr.strip()[-300:]}")
        self.calibration.append(child.wall_s)

    def spawn(self, python_args: list) -> Child:
        """Run sys.executable with python_args in the work directory and wait for it."""
        remaining = RUN_LIMIT_S - (time.perf_counter() - self.started)
        if remaining <= 0:
            raise Abort(f"no time left for {python_args[:3]} within {RUN_LIMIT_S:.0f} s")
        cmd = [sys.executable, *python_args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        cwd = self.work / "cwd"
        cwd.mkdir(exist_ok=True)
        out_path, err_path = self.work / "child.out", self.work / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            killed = threading.Event()
            timer = threading.Timer(remaining, lambda: (killed.set(), proc.kill()))
            timer.start()
            try:
                # wait4 gives this child's own rusage, so peak RSS is per child.
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if killed.is_set():
            raise Abort(f"{python_args[:3]} killed after {wall:.1f} s to end within {RUN_LIMIT_S:.0f} s")
        return Child(
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            maxrss_mb=usage.ru_maxrss * 1024 / 1e6,
            code=proc.returncode,
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        )

    def verdict(self, what: str, child: Child, problems: list, counted: bool = True) -> None:
        """Record a child's problems: a non-zero exit or a failed check.

        A counted child is one of the workload's commands; it adds to
        attempted, and to failed if it has a problem.
        """
        if child.code != 0:
            problems = [f"exit {child.code}: {child.stderr.strip()[-300:]}"] + list(problems)
        self.attempted += counted
        self.failed += counted and bool(problems)
        self.problems.extend(f"{what}: {p}" for p in problems)

    def command(self, command: Command, paths: dict, **traced) -> Child:
        child = self.child(command.argv(paths), **traced)
        problems = command.check(paths, child.stdout, self.seed) if child.code == 0 else []
        self.verdict(command.name, child, problems)
        return child


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def input_files(prefix: Path) -> dict:
    paths = {key: Path(f"{prefix}{suffix}") for key, suffix in INPUT_SUFFIXES.items()}
    for key in ("gallery", "query", "refg", "refq"):
        paths[f"{key}.ids"] = Path(f"{paths[key]}.ids")
    return paths


@dataclass
class Inputs:
    """What set-up built: the input paths and digests, and every synth sample."""

    synth_flags: tuple
    paths: dict
    digests: dict
    walls: list
    generate: list


def synth(run: Run, synth_flags: tuple, traced: bool, expect: dict | None) -> tuple:
    """Run invgc synth once into a fresh directory.

    Returns the directory, the input paths, their digests (None if synth
    failed), the wall time and, traced, the generate_cone_dataset time.
    With `expect`, the digests must equal it: every call builds the same bytes.
    """
    run.synth_calls += 1
    prefix = run.work / f"setup{run.synth_calls}" / "in"
    prefix.parent.mkdir()
    argv = ["synth", *synth_flags, "--seed", str(run.seed), "--out-prefix", str(prefix)]
    spans_out = prefix.parent / "spans.json"
    child = run.child(argv, *(("synth", spans_out) if traced else ()))
    files = input_files(prefix)
    digests, generate, problems = None, None, []
    if child.code == 0:
        digests = {key: sha256(p) for key, p in files.items() if p.exists()}
        if len(digests) != len(files) or (expect is not None and digests != expect):
            problems.append("synth output differs between calls or is incomplete")
        if traced:
            record = json.loads(spans_out.read_text(encoding="utf-8"))
            generate = sum(
                s["end"] - s["start"] for s in record["spans"] if s["name"] == "generate_cone_dataset"
            )
    run.verdict("synth", child, problems, counted=False)
    paths = {key: str(files[key]) for key in INPUT_SUFFIXES}
    return prefix.parent, paths, digests, child.wall_s, generate


def setup(run: Run, synth_flags: tuple, traced: bool) -> Inputs | None:
    """Build the inputs, after a calibration sample; None if synth failed.

    Traced, synth runs SETUP_REPEATS times in all, for the median
    generate_cone_dataset time; untraced, measure() takes the further
    synth samples.
    """
    run.calibrate()
    _, paths, digests, wall, generate = synth(run, synth_flags, traced, None)
    if digests is None:
        return None
    inputs = Inputs(synth_flags, paths, digests, [wall], [generate])
    for _ in range(SETUP_REPEATS - 1 if traced else 0):
        synth_sample(run, inputs, traced)
    return inputs


def synth_sample(run: Run, inputs: Inputs, traced: bool = False) -> None:
    """One more synth call, timed and checked against the inputs, then removed."""
    directory, _, digests, wall, generate = synth(run, inputs.synth_flags, traced, inputs.digests)
    if digests is not None:
        inputs.walls.append(wall)
        inputs.generate.append(generate)
    shutil.rmtree(directory)


def measure(run: Run, commands: tuple, inputs: Inputs, seconds: int) -> tuple:
    """Cycle through the commands untraced until `seconds` have passed.

    Before each command, sampling rounds run until they have taken
    SAMPLE_SHARE of the time so far (at least one round).  A round is a
    calibration sample, a ``--help`` start-up sample and a synth sample,
    so all three are sampled over the same stretch of time as the
    commands, and about as often on a workload of long commands as on
    one of short commands.
    The first cycle always completes; after it the loop stops at the
    first command whose last wall time would carry it past the deadline,
    so the run measures close to `seconds` and no more.  Returns each
    command's wall times and its children's peak RSS, the start-up times
    and the last report of each command.
    """
    walls = {c.name: [] for c in commands}
    rss = {c.name: [] for c in commands}
    startup, stdout, sampling_s, round_s = [], {}, 0.0, 0.0
    start = time.perf_counter()
    while True:
        for c in commands:
            if walls[commands[-1].name] and (
                time.perf_counter() - start + round_s + walls[c.name][-1] > seconds
            ):
                return walls, rss, startup, stdout
            while not startup or sampling_s < SAMPLE_SHARE * (time.perf_counter() - start):
                began = time.perf_counter()
                run.calibrate()
                child = run.child(["--help"])
                run.verdict("startup", child, [] if "usage:" in child.stdout else ["no usage text"],
                            counted=False)
                startup.append(child.wall_s)
                synth_sample(run, inputs)
                round_s = time.perf_counter() - began
                sampling_s += round_s
            child = run.command(c, inputs.paths)
            walls[c.name].append(child.wall_s)
            rss[c.name].append(child.maxrss_mb)
            stdout[c.name] = child.stdout


def traced_passes(run: Run, commands: tuple, paths: dict, seconds: int, generate_s: float) -> tuple:
    """Run passes of (untraced, traced) pairs per command while another fits in `seconds`.

    The first pass always runs.  Returns the per-layer metrics of each pass, each command's layer
    record per pass, and every span recorded.
    """
    passes, per_command, all_spans = [], {c.name: [] for c in commands}, []
    start, pass_s = time.perf_counter(), 0.0
    while not passes or time.perf_counter() - start + pass_s <= seconds:
        began = time.perf_counter()
        records = []
        for c in commands:
            plain = run.command(c, paths)
            spans_out = run.work / f"{c.name}.spans.json"
            traced = run.command(c, paths, traced_as=c.name, spans_out=spans_out)
            if traced.code != 0:
                continue
            record = json.loads(spans_out.read_text(encoding="utf-8"))
            for note in record["notes"]:
                print(f"note\t{c.name}\t{note}", file=sys.stderr)
            for s in record["spans"]:
                s["pass"] = len(passes)
            all_spans.extend(record["spans"])
            layers = spans.command_layers({
                "spans": record["spans"],
                "import_s": record["import_s"],
                "traced_wall_s": traced.wall_s,
                "untraced_wall_s": plain.wall_s,
                "untraced_cpu_s": plain.cpu_s,
            })
            records.append(layers)
            per_command[c.name].append(layers)
        passes.append(spans.pass_metrics(records, generate_s))
        pass_s = time.perf_counter() - began
    return passes, per_command, all_spans


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "invgc").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int, digests: dict) -> dict:
    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (TypeError, KeyError, AttributeError):
        openblas = None
    return {
        "commit": git_commit(),
        "src_sha256": src_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "openblas": openblas,
        "blas_thread_env": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "seed": seed,
        "inputs_sha256": digests,
    }


def _stats(values: list) -> dict:
    return {"median": statistics.median(values), "min": min(values), "max": max(values), "n": len(values)}


def end_to_end(run: Run, workload, inputs: Inputs, seconds: int) -> tuple:
    walls, rss, startup, stdout = measure(run, workload.commands, inputs, seconds)
    commands = {f"{name}_s": _stats(values) for name, values in walls.items()}
    try:
        recall = float(checks.parse_report(stdout[workload.recall_from])["R@1"])
    except (KeyError, ValueError):
        recall = 0.0
        run.problems.append(f"{workload.recall_from}: no R@1 in its report")
    raw = {
        "setup_s": statistics.median(inputs.walls),
        "startup_s": statistics.median(startup),
        "wall_s": sum(s["median"] for s in commands.values()),
    }
    speed = CALIBRATION_REF_S / statistics.median(run.calibration)
    metrics = {name: value * speed for name, value in raw.items()}
    # Each command's smallest peak RSS: a child that happens to hold on to
    # an extra megabyte or two does not move it, while a real increase
    # raises every sample.
    metrics.update(peak_rss_mb=max(min(v) for v in rss.values()), recall_at_1=recall)
    for name, s in commands.items():
        print(f"command\t{name}\t{s['median']!r}\ts\tn={s['n']}\tmin={s['min']!r}\tmax={s['max']!r}")
    for name, value in raw.items():
        print(f"raw\t{name}\t{value!r}\ts")
    print(f"calibration\t{statistics.median(run.calibration)!r}\ts\tn={len(run.calibration)}\tspeed={speed!r}")
    return metrics, {"commands": commands, "startup_s": startup, "setup_s": inputs.walls,
                     "peak_rss_mb": rss, "raw": raw, "calibration_s": run.calibration, "speed": speed}


def per_layer(run: Run, workload, inputs: Inputs, seconds: int) -> tuple:
    passes, per_command, all_spans = traced_passes(
        run, workload.commands, inputs.paths, seconds, statistics.median(inputs.generate)
    )
    metrics = {name: statistics.median(p[name] for p in passes) for name, _, _ in spans.PER_LAYER}
    commands = {}
    for name, layers in per_command.items():
        if not layers:
            continue
        commands[name] = {
            key: statistics.median(l[key] for l in layers)
            for key in ("traced_wall_s", "untraced_wall_s", "import_s", "uncovered_s")
        }
        c = commands[name]
        c["overhead_s"] = c["traced_wall_s"] - c["untraced_wall_s"]
        print(f"command\t{name}\ttraced_wall_s={c['traced_wall_s']!r}\tuntraced_wall_s={c['untraced_wall_s']!r}"
              f"\toverhead_s={c['overhead_s']!r}\timport_s={c['import_s']!r}\tuncovered_s={c['uncovered_s']!r}")
    return metrics, {"commands": commands, "passes": passes, "spans": all_spans}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the invgc CLI on one workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through the finally blocks that stop the child and
    # remove the work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "invgc" / "__init__.py").is_file():
        print(f"run.py: no invgc sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    scratch = BENCH / ".work"
    scratch.mkdir(exist_ok=True)
    run = Run(args.workload, args.seed, Path(tempfile.mkdtemp(dir=scratch)))
    try:
        inputs = setup(run, workload.synth, bool(args.trace))
        if inputs is None:
            print("run.py: set-up failed: " + "; ".join(run.problems), file=sys.stderr)
            return 3
        inputs.paths["out"] = str(run.work / "outputs")
        Path(inputs.paths["out"]).mkdir()
        env = environment(args.seed, inputs.digests)
        for key, value in env.items():
            print(f"env\t{key}\t{json.dumps(value)}")
        if args.trace:
            metrics, detail = per_layer(run, workload, inputs, args.seconds)
            units = {name: unit for name, unit, _ in spans.PER_LAYER}
        else:
            metrics, detail = end_to_end(run, workload, inputs, args.seconds)
            units = END_TO_END_UNITS
    except Abort as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    error_rate = run.failed / run.attempted
    for name, value in metrics.items():
        print(f"metric\t{name}\t{value!r}\t{units[name]}")
    print(f"metric\terror_rate\t{error_rate!r}\tfraction\t{run.failed}/{run.attempted}")
    for problem in run.problems:
        print(f"problem\t{problem}")
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace, "env": env,
        "metrics": metrics, "error_rate": error_rate, "problems": run.problems,
        **{k: v for k, v in detail.items() if k != "spans"},
    }
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if args.trace:
        Path(f"{stem}.spans.json").write_text(json.dumps(detail["spans"]), encoding="utf-8")
    print(json.dumps({
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
