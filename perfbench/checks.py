"""Independent output checks for the benchmark.

Nothing here imports invgc: each check restates the documented file
format or formula in plain numpy, so a fast path that changes an answer
fails the check instead of passing as a speedup.  Every check returns a
list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

APPLY_ATOL = 1e-6
"""Tolerance on a corrected row against the float64 restatement.

The output file stores float32, whose rounding error on entries of a
unit-norm row is at most 2**-24 (about 6e-8); the restatement sums in a
different order, which adds about 1e-13.  1e-6 keeps a 16x margin over
both and still rejects any row moved by 1e-3.
"""

APPLY_SAMPLE_ROWS = 64
METRIC_ATOL = 1e-9
_HEADER = struct.Struct("<4sHHQQ")


def read_embeddings(path) -> tuple[list, np.ndarray]:
    """Ids and float64 rows of a binary embedding file plus its .ids sidecar."""
    raw = Path(path).read_bytes()
    magic, version, _reserved, n, d = _HEADER.unpack_from(raw)
    if magic != b"IGCE" or version != 1:
        raise ValueError(f"{path}: not a version-1 IGCE file")
    if len(raw) - _HEADER.size != n * d * 4:
        raise ValueError(f"{path}: payload size does not match {n} x {d}")
    data = np.frombuffer(raw, dtype="<f4", offset=_HEADER.size).reshape(n, d)
    sidecar = Path(str(path) + ".ids")
    ids = sidecar.read_text(encoding="utf-8").splitlines() if sidecar.exists() else [
        str(i) for i in range(n)
    ]
    return ids, data.astype(np.float64)


def read_relevance(path) -> dict:
    rel: dict = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        q, g = line.split("\t")
        rel.setdefault(q, set()).add(g)
    return rel


def parse_report(stdout: str) -> dict:
    """The "key<TAB>value" lines of a CLI report, values as strings."""
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition("\t")
        if sep:
            out[key] = value
    return out


def _unit(X: np.ndarray) -> np.ndarray:
    return X / np.linalg.norm(X, axis=1)[:, None]


def _top_share_mask(sims: np.ndarray, percent: float) -> np.ndarray:
    # Keep every entry >= the m-th largest of its row, so ties survive.
    m = max(1, math.ceil(percent / 100.0 * sims.shape[1]))
    thr = -np.sort(-sims, axis=1)[:, m - 1]
    return sims >= thr[:, None]


def expected_apply_rows(G, refG, refQ, rows, variant, rg, rq, k=1.0, p=100.0):
    """Restate the dual update for the chosen gallery rows.

    G' = 1/2 [norm(Gn - rg*A_g@refG) + norm(Gn - rq*A_q@refQ)], where Gn
    is G with unit rows and A is the variant's adjacency over the clipped
    cosines: full centers them by the mean over all of G x ref, local
    keeps the top k% of each row, avgpool sets the top p% to 1.  The
    workloads never use a gallery as its own reference, so no self pair
    is masked here; the caller checks that the id sets are disjoint.
    """
    Gn = _unit(G)
    halves = []
    for ref, r in ((refG, rg), (refQ, rq)):
        Rn = _unit(ref)
        sims = np.clip(Gn[rows] @ Rn.T, -1.0, 1.0)
        if variant == "full":
            adj = sims - np.clip(Gn @ Rn.T, -1.0, 1.0).mean()
        elif variant == "local":
            adj = np.where(_top_share_mask(sims, k), sims, 0.0)
        elif variant == "avgpool":
            adj = _top_share_mask(sims, p).astype(np.float64)
        else:
            raise ValueError(f"unknown variant {variant!r}")
        half = Gn[rows] - r * (adj @ ref)
        halves.append(half / np.linalg.norm(half, axis=1)[:, None])
    return 0.5 * (halves[0] + halves[1])


def sample_rows(n: int, seed: int, count: int = APPLY_SAMPLE_ROWS) -> np.ndarray:
    """Seed-chosen sorted row indices that the apply check recomputes."""
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(n, size=min(count, n), replace=False))


def check_apply(inputs: dict, out_path, variant, rg, rq, k=1.0, p=100.0, seed=0) -> list:
    gids, G = read_embeddings(inputs["gallery"])
    rgids, refG = read_embeddings(inputs["refg"])
    rqids, refQ = read_embeddings(inputs["refq"])
    if set(gids) & (set(rgids) | set(rqids)):
        return ["apply check assumes no self-reference, but ids overlap"]
    try:
        oids, out = read_embeddings(out_path)
    except (OSError, ValueError, struct.error) as e:
        return [f"apply output unreadable: {e}"]
    if oids != gids or out.shape != G.shape:
        return [f"apply output has ids/shape {len(oids)}x{out.shape}, want {G.shape}"]
    rows = sample_rows(G.shape[0], seed)
    want = expected_apply_rows(G, refG, refQ, rows, variant, rg, rq, k, p)
    err = np.abs(out[rows] - want)
    worst = float(err.max())
    if not worst <= APPLY_ATOL:
        row = int(rows[np.unravel_index(np.argmax(err), err.shape)[0]])
        return [f"apply {variant}: row {row} off by {worst:.3g} > {APPLY_ATOL}"]
    return []


def best_ranks(Q: np.ndarray, qids, G: np.ndarray, gids, rel: dict) -> np.ndarray:
    """1-based rank of each query's best relevant gallery row.

    Rows are ordered by descending cosine, ties by ascending row index.
    """
    sims = _unit(Q) @ _unit(G).T
    g_index = {g: i for i, g in enumerate(gids)}
    cols = np.arange(len(gids))
    ranks = np.empty(len(qids), dtype=np.int64)
    for qi, qid in enumerate(qids):
        row = sims[qi]
        best = len(gids)
        for j in (g_index[g] for g in rel[qid] if g in g_index):
            ahead = np.count_nonzero(row > row[j]) + np.count_nonzero((row == row[j]) & (cols < j))
            best = min(best, int(ahead) + 1)
        ranks[qi] = best
    return ranks


def check_eval(query_path, gallery_path, rel_path, stdout: str) -> list:
    qids, Q = read_embeddings(query_path)
    gids, G = read_embeddings(gallery_path)
    ranks = best_ranks(Q, qids, G, gids, read_relevance(rel_path)).astype(np.float64)
    want = {f"R@{k}": 100.0 * np.count_nonzero(ranks <= k) / ranks.size for k in (1, 5, 10)}
    want["MdR"] = float(np.median(ranks))
    want["MnR"] = float(ranks.mean())
    return _compare(parse_report(stdout), want, "eval")


def _compare(report: dict, want: dict, what: str) -> list:
    problems = []
    for key, value in want.items():
        try:
            got = float(report[key])
        except (KeyError, ValueError):
            problems.append(f"{what}: {key} missing or not a number")
            continue
        if not abs(got - value) <= METRIC_ATOL:
            problems.append(f"{what}: {key} is {got}, independent value {value}")
    return problems


def _parse_label(label: str) -> dict:
    # "local,k=1.0,rg=0.01,rq=0.02" -> {"variant": "local", "k": 1.0, ...}
    variant, *pairs = label.split(",")
    cell = {"variant": variant}
    for pair in pairs:
        key, _, value = pair.partition("=")
        cell[key] = float(value)
    return cell


def check_tune(stdout: str, trace_path, cells: int) -> list:
    """The reported best cell must be the best row of the grid trace.

    The key is (R@1, R@5, -MnR, -(rg + rq)); the first row in grid order
    wins a full tie.
    """
    try:
        lines = Path(trace_path).read_text(encoding="utf-8").splitlines()
    except OSError as e:
        return [f"tune trace unreadable: {e}"]
    if len(lines) != cells:
        return [f"tune trace has {len(lines)} rows, want {cells}"]
    best, best_key = None, None
    for line in lines:
        label, r1, r5, mnr, _ = line.split("\t")
        cell = _parse_label(label)
        cell.update({"R@1": float(r1), "R@5": float(r5), "MnR": float(mnr)})
        key = (cell["R@1"], cell["R@5"], -cell["MnR"], -(cell["rg"] + cell["rq"]))
        if best_key is None or key > best_key:
            best, best_key = cell, key
    want = {key: best[key] for key in ("rg", "rq", "R@1", "R@5", "MnR")}
    return _compare(parse_report(stdout), want, "tune")


def check_tune_recall(inputs: dict, stdout: str, variant: str, k: float = 1.0) -> list:
    """The reported best cell's R@1, R@5 and MnR, recomputed independently.

    The whole validation gallery is corrected by the restated dual update
    at the reported (rg, rq) and ranked by best_ranks, so a tuner whose
    every cell scores lower fails here even when its best cell is the
    best row of its own trace.
    """
    report = parse_report(stdout)
    try:
        rg, rq = float(report["rg"]), float(report["rq"])
    except (KeyError, ValueError):
        return ["tune: rg or rq missing or not a number"]
    gids, G = read_embeddings(inputs["gallery"])
    _, refG = read_embeddings(inputs["refg"])
    _, refQ = read_embeddings(inputs["refq"])
    qids, Q = read_embeddings(inputs["query"])
    corrected = expected_apply_rows(G, refG, refQ, np.arange(G.shape[0]), variant, rg, rq, k)
    ranks = best_ranks(Q, qids, corrected, gids, read_relevance(inputs["rel"])).astype(np.float64)
    want = {f"R@{n}": 100.0 * np.count_nonzero(ranks <= n) / ranks.size for n in (1, 5)}
    want["MnR"] = float(ranks.mean())
    return _compare(report, want, "tune")


def check_sweep(stdout: str, param: str, values: list) -> list:
    rows = [line.split("\t") for line in stdout.splitlines() if line]
    got = []
    for row in rows:
        name, _, value = row[0].partition("=")
        if name != param or len(row) != 5:
            return [f"sweep: unexpected row {row!r}"]
        got.append(float(value))
    if got != [float(v) for v in values]:
        return [f"sweep: rows for {got}, want one per value of {values}"]
    return []


def check_diagnose(stdout: str, mode: str) -> list:
    report = parse_report(stdout)
    if report.get("mode") != mode:
        return [f"diagnose: mode {report.get('mode')!r}, want {mode!r}"]
    problems = []
    for key in ("mean_sim", "mean_sim_at_1", "mean_sim_at_10", "std_sim", "min_sim"):
        try:
            value = float(report[key])
        except (KeyError, ValueError):
            problems.append(f"diagnose: {key} missing or not a number")
            continue
        if not -1.0 <= value <= 1.0:
            problems.append(f"diagnose: {key}={value} outside [-1, 1]")
    return problems
