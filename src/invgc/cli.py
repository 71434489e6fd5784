"""Command-line entry point.

Subcommands: diagnose, apply, eval, tune, sweep, synth, verify-theory.
Each checks its usage, reads its inputs, writes its files, then prints.
Metric reports go to stdout as "key<TAB>value" lines; verify-theory and
sweep print multi-column TSV rows instead, one row per check or point.
Anything else (logs, errors) goes to stderr.

Exit codes: 0 success, 1 usage error, 2 data or validation error,
3 any failed check in a verify-theory run marked --strict.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings

# Each command imports the modules it runs, so it pays for no other.
# embio stays here: it imports numpy, which every command but --help
# needs, so --help's start-up still measures what the commands pay.
from . import embio
from ._choices import SWEEP_PARAMS, VARIANTS

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_THEORY = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage problems; this surface reserves 2
    # for data errors, so remap to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _emit(key, value) -> None:
    print(embio._line((key, value)))


_MAX_RANGE_POINTS = 1_000_000


def _parse_values(spec: str, number=float) -> list:
    """Parse "start:stop[:step]" (stop inclusive) or a comma list, whose
    items number() reads.

    A range of more than _MAX_RANGE_POINTS points is refused before its
    list is built, which would otherwise exhaust memory.
    """
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) not in (2, 3):
            raise UsageError(f"bad range {spec!r}, want start:stop[:step]")
        try:
            start, stop = float(parts[0]), float(parts[1])
            step = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError:
            raise UsageError(f"bad range {spec!r}") from None
        if not all(map(math.isfinite, (start, stop, step))):
            raise UsageError(f"bad range {spec!r}")
        if step <= 0:
            raise UsageError("range step must be > 0")
        if (stop - start) / step >= _MAX_RANGE_POINTS:
            raise UsageError(f"bad range {spec!r}")
        vals, i = [], 0
        while True:
            v = start + i * step
            if v > stop + 1e-9 * max(1.0, step):
                break
            vals.append(round(v, 12))
            i += 1
        if not vals:
            raise UsageError(f"range {spec!r} is empty")
        return vals
    try:
        vals = [number(t) for t in spec.split(",") if t]
    except ValueError:
        raise UsageError(f"bad list {spec!r}") from None
    if not vals:
        raise UsageError(f"list {spec!r} is empty")
    return vals


def _exact(item: str):
    # A float keeps 53 bits, so 9007199254740993 read as ...992: an item
    # written as an integer is read as an int.  One past a float's range
    # still reads as inf, which _parse_ints refuses.
    value = float(item)
    try:
        return int(item) if math.isfinite(value) else value
    except ValueError:
        return value


def _parse_ints(spec: str) -> list:
    vals = _parse_values(spec, number=_exact)
    bad = [v for v in vals if isinstance(v, float) and not v.is_integer()]
    if bad:
        raise UsageError(f"expected integers, got {bad[0]}")
    return [int(v) for v in vals]


def _load_set(path) -> embio.EmbeddingSet:
    return embio.load_embeddings(path, embio._format_for(path))


def _load_pairing(path, queries: embio.EmbeddingSet, gallery: embio.EmbeddingSet) -> dict:
    """The relevance map at path, every id in it resolved in the two sets."""
    rel = embio.load_relevance(path)
    report = embio.validate_pairing(queries, gallery, rel)
    if report.unknown_query_ids:
        raise ValueError(f"{path}: query id {report.unknown_query_ids[0]!r} is not in the query set")
    if report.unknown_gallery_ids:
        raise ValueError(f"{path}: gallery id {report.unknown_gallery_ids[0]!r} is not in the gallery")
    return rel


def _step_flag(args, field: str) -> str:
    """The option that set a step field ("r_g" or "r_q") in this command."""
    param = "rg" if field == "r_g" else "rq"
    if args.subcommand == "tune":
        return f"--{param}-grid"
    if args.subcommand == "sweep" and args.param == param:
        return "--values"
    return f"--{param}"


def _check_option(check, option: str, values) -> None:
    """check(option, v) for each value v, its ValueError a usage error."""
    try:
        for v in values:
            check(option, v)
    except ValueError as e:
        raise UsageError(str(e)) from None


def _cfg_from_args(args):
    from .core import InvGCConfig
    from .simgraph import _check_percent

    if args.k is not None and args.variant != "local":
        raise UsageError("--k applies only to --variant local")
    if args.p is not None and args.variant != "avgpool":
        raise UsageError("--p applies only to --variant avgpool")
    # tune has no --rg or --rq; an option left unset keeps InvGCConfig's default
    fields = {"rg": "r_g", "rq": "r_q", "k": "k_percent", "p": "p_percent"}
    given = {flag: getattr(args, flag, None) for flag in fields}
    for flag in ("k", "p"):
        if given[flag] is not None:
            _check_option(_check_percent, f"--{flag}", [given[flag]])
    return InvGCConfig(args.variant, **{fields[flag]: v for flag, v in given.items() if v is not None})


def _emit_degeneration(report, mode: str) -> None:
    _emit("mode", mode)
    _emit("mean_sim", report.mean_sim)
    for k in sorted(report.mean_sim_at):
        _emit(f"mean_sim_at_{k}", report.mean_sim_at[k])
    _emit("std_sim", report.std_sim)
    _emit("min_sim", report.min_sim)
    _emit("excluded_pairs", report.excluded_pairs)


def _emit_retrieval(report) -> None:
    for k in sorted(report.recall_at):
        _emit(f"R@{k}", report.recall_at[k])
    _emit("MdR", report.median_rank)
    _emit("MnR", report.mean_rank)


def _load_val_sets(args) -> tuple:
    """tune's and sweep's (valQ, valG, refG, refQ, relevance)."""
    valQ = _load_set(args.val_query)
    valG = _load_set(args.val_gallery)
    refG = _load_set(args.ref_gallery)
    refQ = _load_set(args.ref_query)
    return valQ, valG, refG, refQ, _load_pairing(args.relevance, valQ, valG)


def cmd_diagnose(args) -> int:
    from .diagnostics import cross_mean_sim, intra_mean_sim

    ks = _parse_ints(args.topk)
    if (args.query is None) != (args.relevance is None):
        raise UsageError("--query and --relevance must be given together")
    G = _load_set(args.gallery)
    if args.query is not None:
        Q = _load_set(args.query)
        rel = _load_pairing(args.relevance, Q, G)
        report = cross_mean_sim(G, Q, rel, ks, bins=args.bins)
    else:
        report = intra_mean_sim(G, ks, bins=args.bins)
    if args.dump_hist:
        embio._write_tsv(args.dump_hist, report.histogram)
    _emit_degeneration(report, "intra" if args.query is None else "cross")
    return EXIT_OK


def cmd_apply(args) -> int:
    from .core import inverse_convolve_dual

    cfg = _cfg_from_args(args)
    G = _load_set(args.gallery)
    refG = _load_set(args.ref_gallery)
    refQ = _load_set(args.ref_query)
    corrected = inverse_convolve_dual(G, refG, refQ, cfg)
    embio.save_embeddings(corrected, args.out, embio._format_for(args.out))
    _emit("out", args.out)
    _emit("rows", corrected.n)
    _emit("dims", corrected.d)
    return EXIT_OK


def cmd_eval(args) -> int:
    from .retrieval import evaluate

    Ks = _parse_ints(args.recall_at)
    Q = _load_set(args.query)
    G = _load_set(args.gallery)
    rel = _load_pairing(args.relevance, Q, G)
    _emit_retrieval(evaluate(Q, G, rel, Ks))
    return EXIT_OK


def _cfg_fields(cfg) -> list:
    """tune's config block as (key, value) pairs: the variant, the percent
    it reads, if any, and the two steps."""
    percent = {"local": [("k", cfg.k_percent)], "avgpool": [("p", cfg.p_percent)]}
    return [("variant", cfg.variant), *percent.get(cfg.variant, []), ("rg", cfg.r_g), ("rq", cfg.r_q)]


def cmd_tune(args) -> int:
    from .tuner import DEFAULT_R_GRID, grid_search

    cfg = _cfg_from_args(args)
    rg_grid = _parse_values(args.rg_grid) if args.rg_grid is not None else DEFAULT_R_GRID
    rq_grid = _parse_values(args.rq_grid) if args.rq_grid is not None else DEFAULT_R_GRID
    result = grid_search(
        *_load_val_sets(args),
        variant=cfg.variant, rg_grid=rg_grid, rq_grid=rq_grid,
        k_percent=cfg.k_percent, p_percent=cfg.p_percent,
    )
    if args.trace:
        rows = []
        for cell_cfg, *scores in result.grid_trace:
            # The cell's label, e.g. "local,k=1.0,rg=0.1,rq=0.0", then R@1, R@5, MnR.
            (_, variant), *rest = _cfg_fields(cell_cfg)
            label = ",".join([variant, *(f"{key}={embio._cell(v)}" for key, v in rest)])
            rows.append([label, *scores, "-"])
        embio._write_tsv(args.trace, rows)
    for key, value in _cfg_fields(result.best_cfg):
        _emit(key, value)
    _emit_retrieval(result.best_report)
    return EXIT_OK


def cmd_sweep(args) -> int:
    from .simgraph import _check_percent
    from .tuner import _check_ratio, sweep_param

    # --values sets the swept parameter, so its own flag would be ignored
    # ("ratio" has none), and only a ratio sweep draws with --seed.
    if getattr(args, args.param, None) is not None:
        raise UsageError(f"--{args.param} does not apply to --param {args.param}: --values sets it")
    if args.seed is not None and args.param != "ratio":
        raise UsageError("--seed applies only to --param ratio")
    cfg = _cfg_from_args(args)
    if args.param == "k" and cfg.variant != "local":
        raise UsageError("--param k requires --variant local")
    values = _parse_values(args.values)
    if args.param in ("k", "ratio"):
        _check_option(_check_percent if args.param == "k" else _check_ratio, "--values", values)
    seed = 0 if args.seed is None else args.seed
    curve = sweep_param(cfg, args.param, values, *_load_val_sets(args), seed=seed)
    for v, r1, ddeg in curve.points:
        print(embio._line((f"{curve.param_name}={embio._cell(v)}", r1, "-", "-", ddeg)))
    return EXIT_OK


def cmd_synth(args) -> int:
    from .synth import ConeConfig, generate_cone_dataset

    cfg = ConeConfig(
        n_items=args.items,
        n_ref=args.refs,
        dim=args.dim,
        cone_spread=args.spread,
        query_noise=args.qnoise,
        seed=args.seed,
    )
    *sets, rel = generate_cone_dataset(cfg)
    paths = [
        (key, f"{args.out_prefix}.{suffix}")
        for key, suffix in (
            ("gallery", "gallery.emb"), ("query", "query.emb"), ("ref_gallery", "refg.emb"),
            ("ref_query", "refq.emb"), ("relevance", "rel.tsv"),
        )
    ]
    for es, (_, path) in zip(sets, paths):
        embio.save_embeddings(es, path, "binary")
    embio.save_relevance(rel, paths[-1][1])
    for key, path in paths:
        _emit(key, path)
    return EXIT_OK


def cmd_verify_theory(args) -> int:
    from .theory import run_theory_suite

    ns = _parse_ints(args.n)
    bs = _parse_values(args.b)
    checks = run_theory_suite(
        ns, bs,
        mc_samples=args.mc_samples,
        seed=args.seed,
        include_thm1=args.include_thm1,
    )
    for c in checks:
        b_cell = "-" if c.b is None else embio._cell(c.b)
        if c.b2 is not None:
            b_cell = f"{b_cell},{embio._cell(c.b2)}"
        mc_cell = "-" if c.mc_estimate is None else c.mc_estimate
        print(embio._line((c.name, c.n, b_cell, c.exact_fraction, mc_cell, c.lower_bound, c.upper_bound, c.holds)))
    failed = sum(1 for c in checks if not c.holds)
    if failed:
        print(f"{failed} of {len(checks)} checks failed", file=sys.stderr)
    if args.strict and failed:
        return EXIT_THEORY
    return EXIT_OK


def _add_val_sets(p) -> None:
    """tune's and sweep's five input files, in their help order."""
    for flag in ("--val-query", "--val-gallery", "--ref-gallery", "--ref-query", "--relevance"):
        p.add_argument(flag, required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="invgc",
        description="Diagnose and correct representation degeneration in "
        "retrieval embedding sets; verify the supporting cap geometry.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("diagnose", help="degeneration report for a gallery")
    p.add_argument("--gallery", required=True)
    p.add_argument("--query")
    p.add_argument("--relevance")
    p.add_argument("--topk", default="1,10", help="comma list of k values")
    p.add_argument("--bins", type=int, default=20)
    p.add_argument("--dump-hist", help="write the NN histogram TSV here")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("apply", help="correct a gallery against reference sets")
    p.add_argument("--gallery", required=True)
    p.add_argument("--ref-gallery", required=True)
    p.add_argument("--ref-query", required=True)
    p.add_argument("--variant", required=True, choices=VARIANTS)
    p.add_argument("--k", type=float, help="percent, local variant only")
    p.add_argument("--p", type=float, help="percent, avgpool variant only")
    p.add_argument("--rg", type=float, required=True)
    p.add_argument("--rq", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("eval", help="R@K / MdR / MnR for a query set")
    p.add_argument("--query", required=True)
    p.add_argument("--gallery", required=True)
    p.add_argument("--relevance", required=True)
    p.add_argument("--recall-at", default="1,5,10")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("tune", help="grid-search r_g and r_q")
    _add_val_sets(p)
    p.add_argument("--variant", required=True, choices=VARIANTS)
    p.add_argument("--k", type=float)
    p.add_argument("--p", type=float)
    p.add_argument("--rg-grid", help="comma list or start:stop[:step]")
    p.add_argument("--rq-grid", help="comma list or start:stop[:step]")
    p.add_argument("--trace", help="write the full grid trace TSV here")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("sweep", help="one-parameter ablation curve")
    p.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    p.add_argument("--values", required=True, help="comma list or start:stop[:step]")
    _add_val_sets(p)
    p.add_argument("--variant", default="full", choices=VARIANTS)
    p.add_argument("--k", type=float)
    p.add_argument("--p", type=float)
    p.add_argument("--rg", type=float)
    p.add_argument("--rq", type=float)
    p.add_argument("--seed", type=int, help="ratio subsampling seed")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("synth", help="generate a cone-degenerate dataset")
    p.add_argument("--items", type=int, default=200)
    p.add_argument("--refs", type=int, default=1000)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--spread", type=float, default=0.15)
    p.add_argument("--qnoise", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("verify-theory", help="cap-geometry bound suite")
    p.add_argument("--n", default="2:16", help="dimensions, list or range")
    p.add_argument("--b", default="0.05:0.95:0.05", help="radii, list or range")
    p.add_argument("--mc-samples", type=int, default=0)
    p.add_argument("--seed", type=int, default=13)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--include-thm1", action="store_true")
    p.set_defaults(func=cmd_verify_theory)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # each warning is one stderr line, not Python's file:line report, until main returns
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(
            f"invgc {args.subcommand}: warning: {message}", file=sys.stderr)
        try:
            return args.func(args)
        except UsageError as e:
            print(f"invgc {args.subcommand}: error: {e}", file=sys.stderr)
            return EXIT_USAGE
        except (ValueError, OSError, MemoryError) as e:
            # a refused step (core.StepError) is worded for the option that set it
            message = e.named(_step_flag(args, e.field)) if hasattr(e, "named") else e
            print(f"invgc {args.subcommand}: {message}", file=sys.stderr)
            return EXIT_DATA


def run(argv=None):
    """main(argv) as a whole process: flush, then end it at once.

    Interpreter finalization tears down every module numpy and invgc
    loaded, 26-29 ms on a 2-core Xeon, and no command needs it: every
    file invgc writes is closed before main returns, _map_blocks and the
    dual update join their threads, and invgc registers no atexit hook.  So once stdout and
    stderr are flushed, the process ends through os._exit, which skips
    atexit hooks too.  If a flush fails (a closed pipe, a full disk) the
    process exits through sys.exit as before, so finalization reports the
    error as it always did.  An argparse exit (--help, a usage error)
    ends the same way; any other exception propagates.
    """
    try:
        code = main(argv)
    except SystemExit as e:
        if not (e.code is None or isinstance(e.code, int)):
            raise
        code = e.code or EXIT_OK
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (AttributeError, OSError, ValueError):  # no stream, a failed write, a closed file
        sys.exit(code)
    os._exit(code)
