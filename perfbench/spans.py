"""Spans for the traced run, and the per-layer metrics built from them.

Run as a script this is the traced child: it times ``import invgc.cli``,
wraps the public functions listed in WRAPPED, both in their defining
module and in every invgc module that imports them by name, calls
``invgc.cli.main(argv)`` in-process, and writes the spans it kept in
memory to a JSON file when main returns:

    python perfbench/spans.py --out spans.json --workload W --command C -- <invgc argv>

A span records name, start, end, parent, workload and command.  The
time the tracer spends measuring a span's attributes after the call is
kept as the span's ``overhead`` so that it is not charged to the parent.
A name missing from the program is logged as a note and reads as zero;
the run goes on.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import re
import statistics
import sys
import time
import warnings
from collections import defaultdict
from pathlib import Path

WRAPPED = (
    ("invgc.embio", "load_embeddings"),
    ("invgc.embio", "load_relevance"),
    ("invgc.embio", "save_embeddings"),
    ("invgc.simgraph", "unit_rows"),
    ("invgc.simgraph", "cosine_similarity_matrix"),
    ("invgc.simgraph", "adjacency_full"),
    ("invgc.simgraph", "adjacency_local"),
    ("invgc.simgraph", "adjacency_binary"),
    ("invgc.core", "inverse_convolve_dual"),
    ("invgc.core", "row_normalize"),
    ("invgc.retrieval", "rank_queries"),
    ("invgc.diagnostics", "intra_mean_sim"),
    ("invgc.diagnostics", "cross_mean_sim"),
    ("invgc.tuner", "grid_search"),
    ("invgc.tuner", "sweep_param"),
    ("invgc.synth", "generate_cone_dataset"),
)

ADJACENCY = ("adjacency_full", "adjacency_local", "adjacency_binary")
TUNER = ("grid_search", "sweep_param")
_ZERO_ROWS = re.compile(r"(\d+) zero-norm rows")


def _file_bytes(path) -> int:
    return sum(p.stat().st_size for p in (Path(path), Path(f"{path}.ids")) if p.exists())


def _adjacency_attrs(a, result):
    # Imported here, not at the top, so that cli.import_s times numpy's
    # import as part of invgc's.
    import numpy as np

    return {"nnz": int(np.count_nonzero(result.values)), "cells": int(result.values.size)}


MEASURES = {
    "load_embeddings": lambda a, r: {"bytes": _file_bytes(a["path"])},
    "load_relevance": lambda a, r: {"bytes": _file_bytes(a["path"])},
    "save_embeddings": lambda a, r: {"bytes": _file_bytes(a["path"])},
    "cosine_similarity_matrix": lambda a, r: {
        "flop": 2.0 * a["rows"].n * a["cols"].n * a["rows"].d
    },
    "adjacency_full": _adjacency_attrs,
    "adjacency_local": _adjacency_attrs,
    "adjacency_binary": _adjacency_attrs,
    "inverse_convolve_dual": lambda a, r: {
        "flop": 2.0 * a["G"].n * a["G"].d * (a["refG"].n + a["refQ"].n)
    },
    "rank_queries": lambda a, r: {"queries": a["Q"].n},
    "grid_search": lambda a, r: {"cells": len(r.grid_trace)},
    "sweep_param": lambda a, r: {"cells": len(r.points)},
}


class Tracer:
    """Keeps spans in memory for one traced command."""

    def __init__(self, workload: str, command: str):
        self.workload = workload
        self.command = command
        self.spans: list = []
        self.notes: list = []
        self._stack: list = []

    def wrap(self, name: str, fn):
        measure = MEASURES.get(name)
        signature = inspect.signature(fn)
        counts_warnings = name == "row_normalize"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "workload": self.workload,
                "command": self.command,
                "start": time.perf_counter(),
                "end": None,
                "overhead": 0.0,
                "attrs": {},
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            caught = []
            try:
                if counts_warnings:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = fn(*args, **kwargs)
                else:
                    result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            for w in caught:
                match = _ZERO_ROWS.search(str(w.message))
                if match:
                    span["attrs"]["degenerate_rows"] = int(match.group(1))
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            if measure is not None:
                try:
                    params = signature.bind(*args, **kwargs).arguments
                    span["attrs"].update(measure(params, result))
                except Exception as e:  # a changed signature must not stop the run
                    self.note(f"{name}: attributes not measured ({e!r})")
            span["overhead"] = time.perf_counter() - span["end"]
            return result

        return traced

    def note(self, message: str) -> None:
        if message not in self.notes:
            self.notes.append(message)


def install(tracer: Tracer) -> None:
    """Replace each WRAPPED function wherever an invgc module holds it."""
    for module_name, name in WRAPPED:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            tracer.note(f"{module_name} not importable; {name} reads zero")
            continue
        original = getattr(module, name, None)
        if not callable(original):
            tracer.note(f"{module_name}.{name} not found; its metrics read zero")
            continue
        wrapped = tracer.wrap(name, original)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "invgc":
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)


def self_times(spans: list) -> dict:
    """Span id -> duration minus the time its direct children cover."""
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"] + s.get("overhead", 0.0)
    return {s["id"]: s["end"] - s["start"] - covered[s["id"]] for s in spans}


def _under(spans: list, names) -> set:
    """Ids of spans that have an ancestor named in names."""
    by_id = {s["id"]: s for s in spans}
    found = set()
    for s in spans:
        parent = s["parent"]
        while parent is not None:
            if by_id[parent]["name"] in names:
                found.add(s["id"])
                break
            parent = by_id[parent]["parent"]
    return found


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


PER_LAYER = (
    ("cli.import_s", "s", "lower"),
    ("cli.cpu_per_wall", "ratio", "higher"),
    ("embio.load_s", "s", "lower"),
    ("embio.load_mb", "MB", "lower"),
    ("embio.save_s", "s", "lower"),
    ("embio.save_mb", "MB", "lower"),
    ("simgraph.cosine_s", "s", "lower"),
    ("simgraph.cosine_calls", "count", "lower"),
    ("simgraph.cosine_gflop", "GFLOP", "lower"),
    ("simgraph.cosine_gflops", "GFLOP/s", "higher"),
    ("simgraph.unit_rows_s", "s", "lower"),
    ("simgraph.adjacency_s", "s", "lower"),
    ("simgraph.adjacency_density", "fraction", "higher"),
    ("core.dual_s", "s", "lower"),
    ("core.dual_calls", "count", "lower"),
    ("core.aggregate_s", "s", "lower"),
    ("core.aggregate_gflop", "GFLOP", "lower"),
    ("core.aggregate_gflops", "GFLOP/s", "higher"),
    ("core.row_normalize_s", "s", "lower"),
    ("core.degenerate_rows", "count", "lower"),
    ("retrieval.rank_s", "s", "lower"),
    ("retrieval.queries", "count", "lower"),
    ("retrieval.rank_us_per_query", "us", "lower"),
    ("diagnostics.intra_s", "s", "lower"),
    ("diagnostics.cross_s", "s", "lower"),
    ("tuner.cells", "count", "lower"),
    ("tuner.dual_calls", "count", "lower"),
    ("tuner.self_s", "s", "lower"),
    ("tuner.cosine_per_cell", "count", "lower"),
    ("synth.generate_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.uncovered_s", "s", "lower"),
)
"""(name, unit, better) of every per-layer metric the traced run reports."""


def command_layers(record: dict) -> dict:
    """Layer totals of one traced command.

    record holds the child's spans and import_s, plus the wall times of
    the traced and the untraced run of the same argv and the untraced
    child's user+sys time.  Self times and attributes are summed per
    function name; "uncovered_s" is the traced wall time not covered by
    import_s and the span self times.
    """
    spans = record["spans"]
    own = self_times(spans)
    by_name = defaultdict(lambda: {"self": 0.0, "total": 0.0, "calls": 0})
    attrs = defaultdict(lambda: defaultdict(float))
    for s in spans:
        entry = by_name[s["name"]]
        entry["self"] += own[s["id"]]
        entry["total"] += s["end"] - s["start"]
        entry["calls"] += 1
        for key, value in s["attrs"].items():
            attrs[s["name"]][key] += value
    in_tuner = _under(spans, TUNER)
    tuned = defaultdict(int)
    for s in spans:
        if s["id"] in in_tuner:
            tuned[s["name"]] += 1
    return {
        "by_name": {k: dict(v) for k, v in by_name.items()},
        "attrs": {k: dict(v) for k, v in attrs.items()},
        "tuned_calls": dict(tuned),
        "import_s": record["import_s"],
        "traced_wall_s": record["traced_wall_s"],
        "untraced_wall_s": record["untraced_wall_s"],
        "untraced_cpu_s": record["untraced_cpu_s"],
        "uncovered_s": record["traced_wall_s"] - record["import_s"] - sum(own.values()),
    }


def pass_metrics(commands: list, generate_s: float) -> dict:
    """Per-layer metrics of one pass over a workload's commands.

    commands holds one command_layers() result per traced command.
    generate_s is the synth layer's time, measured during set-up.
    """
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    calls = defaultdict(int)
    attr = defaultdict(float)
    tuned = defaultdict(int)
    for c in commands:
        for name, e in c["by_name"].items():
            self_s[name] += e["self"]
            total_s[name] += e["total"]
            calls[name] += e["calls"]
        for name, values in c["attrs"].items():
            for key, value in values.items():
                attr[name, key] += value
        for name, n in c["tuned_calls"].items():
            tuned[name] += n

    def attr_sum(names, key):
        return sum(attr[n, key] for n in names)

    cosine_gflop = attr["cosine_similarity_matrix", "flop"] / 1e9
    aggregate_gflop = attr["inverse_convolve_dual", "flop"] / 1e9
    cells = attr_sum(TUNER, "cells")
    load_s = self_s["load_embeddings"] + self_s["load_relevance"]
    wall = sum(c["untraced_wall_s"] for c in commands)
    return {
        "cli.import_s": statistics.median(c["import_s"] for c in commands),
        "cli.cpu_per_wall": _ratio(sum(c["untraced_cpu_s"] for c in commands), wall),
        "embio.load_s": load_s,
        "embio.load_mb": attr_sum(("load_embeddings", "load_relevance"), "bytes") / 1e6,
        "embio.save_s": self_s["save_embeddings"],
        "embio.save_mb": attr["save_embeddings", "bytes"] / 1e6,
        "simgraph.cosine_s": self_s["cosine_similarity_matrix"],
        "simgraph.cosine_calls": calls["cosine_similarity_matrix"],
        "simgraph.cosine_gflop": cosine_gflop,
        "simgraph.cosine_gflops": _ratio(cosine_gflop, self_s["cosine_similarity_matrix"]),
        "simgraph.unit_rows_s": self_s["unit_rows"],
        "simgraph.adjacency_s": sum(self_s[n] for n in ADJACENCY),
        "simgraph.adjacency_density": _ratio(attr_sum(ADJACENCY, "nnz"), attr_sum(ADJACENCY, "cells")),
        "core.dual_s": total_s["inverse_convolve_dual"],
        "core.dual_calls": calls["inverse_convolve_dual"],
        "core.aggregate_s": self_s["inverse_convolve_dual"],
        "core.aggregate_gflop": aggregate_gflop,
        "core.aggregate_gflops": _ratio(aggregate_gflop, self_s["inverse_convolve_dual"]),
        "core.row_normalize_s": self_s["row_normalize"],
        "core.degenerate_rows": attr["row_normalize", "degenerate_rows"],
        "retrieval.rank_s": self_s["rank_queries"],
        "retrieval.queries": attr["rank_queries", "queries"],
        "retrieval.rank_us_per_query": _ratio(self_s["rank_queries"] * 1e6, attr["rank_queries", "queries"]),
        "diagnostics.intra_s": self_s["intra_mean_sim"],
        "diagnostics.cross_s": self_s["cross_mean_sim"],
        "tuner.cells": cells,
        "tuner.dual_calls": tuned["inverse_convolve_dual"],
        "tuner.self_s": sum(self_s[n] for n in TUNER),
        "tuner.cosine_per_cell": _ratio(tuned["cosine_similarity_matrix"], cells),
        "synth.generate_s": generate_s,
        "trace.overhead_s": sum(c["traced_wall_s"] - c["untraced_wall_s"] for c in commands),
        "trace.uncovered_s": sum(c["uncovered_s"] for c in commands),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one invgc command with spans recorded.")
    parser.add_argument("--out", required=True, help="JSON file for the spans")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--command", required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the invgc arguments")
    args = parser.parse_args(argv)
    invgc_argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    start = time.perf_counter()
    import invgc.cli

    import_s = time.perf_counter() - start
    tracer = Tracer(args.workload, args.command)
    install(tracer)
    code = 1
    try:
        code = invgc.cli.main(invgc_argv)
    finally:
        Path(args.out).write_text(
            json.dumps({"import_s": import_s, "exit": code, "notes": tracer.notes, "spans": tracer.spans}),
            encoding="utf-8",
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
