"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/out/set1.json
    python3 perfbench/baseline.py --seeds 1-10 --traced --out perfbench/baseline.json
    python3 perfbench/baseline.py --seeds 11-20 --compare perfbench/baseline.json --out perfbench/out/set2.json

For every workload in BENCHMARK.json it runs perfbench/run.py once per
seed with the file's run_seconds, untraced, and records each end-to-end
metric's median, quartiles (statistics.quantiles, n=4) and spread, the
quartile distance as a share of the median.  The unscaled times that
run.py prints as "raw" lines get the same summary, so the effect of the
host-speed calibration shows.  A spread at or above a third of the
metric's bound is flagged.  --traced adds one traced run per workload on
the first seed.  --compare flags every median worse than the other
summary's by more than the bound.  The exit code is 1 if any run failed
or any flag was raised.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(spec: str) -> list:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return None, f"exit {out.returncode}: {out.stderr.strip()[-300:]}"
    result = json.loads(lines[-1])
    env = {k: json.loads(v) for _, k, v in (l.split("\t", 2) for l in lines if l.startswith("env\t"))}
    result["raw"] = {f[1]: float(f[2]) for f in (l.split("\t") for l in lines if l.startswith("raw\t"))}
    return (result, env), None


def summarise(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values), "q1": q1, "q3": q3,
        "spread": (q3 - q1) / statistics.median(values), "values": values,
    }


def worse_by(metric: dict, new: float, old: float) -> float:
    """Share by which new is worse than old in the metric's direction."""
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="a-b range or comma list")
    parser.add_argument("--traced", action="store_true", help="add one traced run per workload")
    parser.add_argument("--compare", help="a summary written earlier by this script")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)
    previous = json.loads(Path(args.compare).read_text(encoding="utf-8")) if args.compare else None
    flags, summary = [], {"run_seconds": seconds, "seeds": seeds, "workloads": {}}

    for name in names:
        runs, failures = [], []
        for seed in seeds:
            got, error = run_once(name, seed, seconds, 0)
            if error or not got[0]["correct"]:
                failures.append(f"seed {seed}: {error or got[0]}")
            if got:
                runs.append(got)
                summary.setdefault("env", {k: v for k, v in got[1].items()
                                           if k not in ("seed", "inputs_sha256")})
        entry = {"failures": failures, "attempted": sum(r["attempted"] for r, _ in runs),
                 "failed": sum(r["failed"] for r, _ in runs), "metrics": {}, "raw": {},
                 "inputs_sha256": {str(env["seed"]): env["inputs_sha256"] for _, env in runs}}
        flags.extend(f"{name} {f}" for f in failures)
        for metric, spec in metrics.items():
            values = [r["metrics"][metric]["value"] for r, _ in runs]
            if len(values) < 2:
                continue
            s = summarise(values)
            entry["metrics"][metric] = s
            line = (f"{name}\t{metric}\tmedian={s['median']:.6g}\t{spec['unit']}"
                    f"\tspread={s['spread']:.4f}\tbound={spec['bound']}")
            raw = [r["raw"][metric] for r, _ in runs if metric in r["raw"]]
            if len(raw) == len(values):
                entry["raw"][metric] = summarise(raw)
                line += f"\traw_spread={entry['raw'][metric]['spread']:.4f}"
            if s["spread"] >= spec["bound"] / 3:
                flags.append(f"{name} {metric}: spread {s['spread']:.4f} >= bound/3")
                line += "\tSPREAD"
            if previous and metric in previous["workloads"].get(name, {}).get("metrics", {}):
                old = previous["workloads"][name]["metrics"][metric]["median"]
                worse = worse_by(spec, s["median"], old)
                line += f"\tvs_previous={worse:+.4f}"
                if worse > spec["bound"]:
                    flags.append(f"{name} {metric}: {worse:+.4f} worse than --compare")
            print(line, flush=True)
        if args.traced:
            got, error = run_once(name, seeds[0], seconds, 1)
            if error or not got[0]["correct"]:
                flags.append(f"{name} traced: {error or got[0]}")
            else:
                entry["per_layer_seed"] = seeds[0]
                entry["per_layer"] = {k: v["value"] for k, v in got[0]["metrics"].items()}
        summary["workloads"][name] = entry

    summary["flags"] = flags
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    for flag in flags:
        print(f"flag\t{flag}")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
