"""The three benchmark workloads: synth inputs plus the commands timed on them.

Each command names its end-to-end metric stem (``apply_full`` reports
``apply_full_s``), builds its invgc argv from the input paths, and checks
its own output with perfbench.checks.  ``paths`` maps gallery, query,
refg, refq and rel to the synth outputs and ``out`` to a directory for
the files the commands write.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import checks

R_GRID_CELLS = 64  # the CLI's default 8 x 8 (r_g, r_q) grid
SWEEP_K_VALUES = [0.5 * i for i in range(1, 11)]  # --values 0.5:5:0.5
STEP = "0.01"


@dataclass(frozen=True)
class Command:
    name: str
    argv: Callable[[dict], list]
    check: Callable[[dict, str, int], list]  # (paths, stdout, seed) -> problems


@dataclass(frozen=True)
class Workload:
    synth: tuple  # synth flags besides --seed and --out-prefix
    commands: tuple
    recall_from: str  # the command whose report gives recall_at_1
    why: str


def _apply(variant: str, percent_flag: str | None) -> Command:
    def argv(p):
        extra = [percent_flag, "1"] if percent_flag else []
        return [
            "apply", "--gallery", p["gallery"], "--ref-gallery", p["refg"],
            "--ref-query", p["refq"], "--variant", variant, *extra,
            "--rg", STEP, "--rq", STEP, "--out", f"{p['out']}/{variant}.emb",
        ]

    def check(p, stdout, seed):
        return checks.check_apply(
            p, f"{p['out']}/{variant}.emb", variant, float(STEP), float(STEP),
            k=1.0, p=1.0, seed=seed,
        )

    return Command(f"apply_{variant}", argv, check)


def _eval(gallery_of: Callable[[dict], str]) -> Command:
    return Command(
        "eval",
        lambda p: ["eval", "--query", p["query"], "--gallery", gallery_of(p), "--relevance", p["rel"]],
        lambda p, stdout, seed: checks.check_eval(p["query"], gallery_of(p), p["rel"], stdout),
    )


def _val_sets(p) -> list:
    return [
        "--val-query", p["query"], "--val-gallery", p["gallery"], "--ref-gallery", p["refg"],
        "--ref-query", p["refq"], "--relevance", p["rel"],
    ]


def _tune(variant: str, k: float | None) -> Command:
    def check(p, stdout, seed):
        return (checks.check_tune(stdout, f"{p['out']}/tune_{variant}.tsv", R_GRID_CELLS)
                + checks.check_tune_recall(p, stdout, variant, k or 1.0))

    return Command(
        f"tune_{variant}",
        lambda p: ["tune", *_val_sets(p), "--variant", variant, *(["--k", str(k)] if k else []),
                   "--trace", f"{p['out']}/tune_{variant}.tsv"],
        check,
    )


SWEEP_K = Command(
    "sweep_k",
    lambda p: ["sweep", "--param", "k", "--values", "0.5:5:0.5", *_val_sets(p),
               "--variant", "local", "--rg", "0.1", "--rq", "0.1"],
    lambda p, stdout, seed: checks.check_sweep(stdout, "k", SWEEP_K_VALUES),
)

DIAGNOSE_INTRA = Command(
    "diagnose_intra",
    lambda p: ["diagnose", "--gallery", p["refg"]],
    lambda p, stdout, seed: checks.check_diagnose(stdout, "intra"),
)

DIAGNOSE_CROSS = Command(
    "diagnose_cross",
    lambda p: ["diagnose", "--gallery", p["gallery"], "--query", p["query"], "--relevance", p["rel"]],
    lambda p, stdout, seed: checks.check_diagnose(stdout, "cross"),
)

WORKLOADS = {
    "correct-L": Workload(
        synth=("--items", "2000", "--refs", "5000", "--dim", "256", "--spread", "0.15", "--qnoise", "0.5"),
        commands=(
            _apply("full", None),
            _apply("local", "--k"),
            _apply("avgpool", "--p"),
            _eval(lambda p: f"{p['out']}/full.emb"),
        ),
        recall_from="eval",
        why="two dense GEMMs (K=256, K=5000) dominate each apply; the only workload that writes outputs",
    ),
    "tune-S": Workload(
        synth=(),
        commands=(_tune("full", None), _tune("local", 1), SWEEP_K),
        recall_from="tune_full",
        why="hundreds of small r-independent similarity and adjacency recomputations and per-call overhead",
    ),
    "inspect-M": Workload(
        synth=("--items", "2000", "--refs", "5000", "--dim", "64"),
        commands=(DIAGNOSE_INTRA, DIAGNOSE_CROSS, _eval(lambda p: p["gallery"])),
        recall_from="eval",
        why="read-only: N x N similarity, the row sort in intra_mean_sim, the argsort rank loop and start-up",
    ),
}
