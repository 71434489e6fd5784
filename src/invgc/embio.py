"""Embedding-set and relevance-map file I/O.

Two embedding formats are supported:

binary
    Header: bytes 0-3 ASCII "IGCE", u16 LE version (= 1), u16 LE reserved
    (= 0), u64 LE n_rows, u64 LE n_dims; then n_rows * n_dims IEEE-754
    float32 LE values, row-major.  Ids live in a sidecar file
    "<path>.ids" (UTF-8, one id per line, exactly n_rows lines, each
    ended by "\\n"; a "\\r\\n" ending reads too).  When the sidecar is
    absent, ids default to "0".."N-1".

tsv
    One row per line, "<id>\\t<v1>\\t...\\t<vd>", '.' decimal, no header,
    constant d across rows.

An id holds no "\\n" or "\\r", nor a tab in tsv: save_embeddings refuses
one that does, which its reader could not read back.

Relevance maps are TSV files of "query_id\\tgallery_id" lines; duplicate
lines collapse.

Storage is float32 (matching typical embedding exports); matrices are
widened to float64 in memory so downstream subtraction is stable.
"""

from __future__ import annotations

import math
import struct
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MAGIC = b"IGCE"
VERSION = 1
_HEADER = struct.Struct("<4sHHQQ")


class FormatError(ValueError):
    """A file does not conform to its declared format."""


@dataclass
class EmbeddingSet:
    """Ordered unique string ids plus an N x d float64 matrix."""

    ids: list
    data: np.ndarray

    def __post_init__(self):
        self.ids = list(self.ids)
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 2:
            raise ValueError(f"data must be 2-d, got shape {self.data.shape}")
        n, d = self.data.shape
        if n < 1 or d < 1:
            raise ValueError(f"need at least one row and one dimension, got {n} x {d}")
        if len(self.ids) != n:
            raise ValueError(f"{len(self.ids)} ids for {n} rows")
        dupes = [i for i, c in Counter(self.ids).items() if c > 1]
        if dupes:
            raise ValueError(f"duplicate ids: {sorted(dupes)[:5]}")
        if not np.isfinite(self.data).all():
            r, c = np.argwhere(~np.isfinite(self.data))[0]
            raise ValueError(f"non-finite value at row {r}, column {c}")

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]


@dataclass
class PairingReport:
    """Resolution findings for a relevance map against query/gallery sets."""

    ok: bool
    unknown_query_ids: list = field(default_factory=list)
    unknown_gallery_ids: list = field(default_factory=list)
    queries_without_relevance: list = field(default_factory=list)


def _sidecar(path: Path) -> Path:
    return Path(str(path) + ".ids")


# The characters that would end an id early in each format's reader.
_ID_BREAKS = {"binary": "\n\r", "tsv": "\n\r\t"}


def _check_ids_fit(ids: list, format: str) -> None:
    breaks = _ID_BREAKS.get(format, "")
    joined = "".join(ids)
    if any(c in joined for c in breaks):
        bad = next(i for i in ids if any(c in i for c in breaks))
        what = "line break" if format == "binary" else "tab or line break"
        raise ValueError(f"id {bad!r} holds a {what}, which the {format} format cannot store")


def _float32_payload(es: EmbeddingSet) -> np.ndarray:
    # The binary payload.  A value past float32's range would be stored
    # as an inf, which load_embeddings refuses, so it is refused here.
    # es.data is finite, so the cast overflows exactly where a float32
    # is not; a value that rounds to the largest float32 does not.
    try:
        with np.errstate(over="raise"):
            return np.ascontiguousarray(es.data, dtype="<f4")
    except FloatingPointError:
        with np.errstate(over="ignore"):
            r, c = np.argwhere(np.isinf(es.data.astype(np.float32)))[0]
        raise ValueError(
            f"value {float(es.data[r, c])!r} at id {es.ids[r]!r}, column {c} "
            "is past the float32 range the binary format stores"
        ) from None


def save_embeddings(es: EmbeddingSet, path, format: str = "binary") -> None:
    """Write an EmbeddingSet to disk in the given format.

    Binary writes the id sidecar next to the payload; tsv keeps ids
    inline.  Binary round-trips float32-representable data bit-exactly,
    and refuses, before the file is opened, a value whose float32 is not
    finite; a value that rounds to the largest float32 is stored as it.
    """
    path = Path(path)
    _check_ids_fit(es.ids, format)
    if format == "binary":
        payload = _float32_payload(es)
        with open(path, "wb") as f:
            f.write(_HEADER.pack(MAGIC, VERSION, 0, es.n, es.d))
            f.write(payload)
        with open(_sidecar(path), "w", encoding="utf-8") as f:
            f.write("".join(i + "\n" for i in es.ids))
    elif format == "tsv":
        with open(path, "w", encoding="utf-8") as f:
            for i, row in zip(es.ids, es.data):
                f.write(i + "\t" + "\t".join(repr(float(v)) for v in row) + "\n")
    else:
        raise ValueError(f"unknown format {format!r}")


def _load_binary(path: Path) -> EmbeddingSet:
    raw = path.read_bytes()
    if len(raw) < _HEADER.size:
        raise FormatError(f"{path}: truncated header, {len(raw)} bytes at offset 0")
    magic, version, _reserved, n, d = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r} at offset 0")
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version} at offset 4")
    # Refused here, before any id is built: a header that claims 2^40 rows
    # of zero dimensions would otherwise ask for 2^40 default ids.
    for count, what, offset in ((n, "rows", 8), (d, "dimensions", 16)):
        if count == 0:
            raise FormatError(f"{path}: zero {what} at offset {offset}")
    want = n * d * 4
    got = len(raw) - _HEADER.size
    if got != want:
        raise FormatError(
            f"{path}: payload is {got} bytes, expected {want} at offset {_HEADER.size}"
        )
    data = np.frombuffer(raw, dtype="<f4", offset=_HEADER.size)
    data = data.reshape(n, d).astype(np.float64)
    sidecar = _sidecar(path)
    if sidecar.exists():
        # "\n" ends each id, as save_embeddings writes it: str.splitlines
        # would also split at "\x85", "\u2028" and the like.
        with open(sidecar, encoding="utf-8", newline="") as f:
            ids = f.read().split("\n")
        if ids[-1] == "":
            ids.pop()
        ids = [i.removesuffix("\r") for i in ids]
        if len(ids) != n:
            raise FormatError(f"{sidecar}: {len(ids)} ids for {n} rows")
    else:
        ids = [str(i) for i in range(n)]
    try:
        return EmbeddingSet(ids, data)
    except ValueError as e:
        raise FormatError(f"{path}: {e}") from None


def _load_tsv(path: Path) -> EmbeddingSet:
    ids, rows = [], []
    with open(path, encoding="utf-8") as f:
        for ln, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                raise FormatError(f"{path}:{ln}: blank line")
            parts = line.split("\t")
            if len(parts) < 2:
                raise FormatError(f"{path}:{ln}: expected an id and at least one value")
            try:
                vals = [float(p) for p in parts[1:]]
            except ValueError:
                raise FormatError(f"{path}:{ln}: unparseable value") from None
            if not all(math.isfinite(v) for v in vals):
                raise FormatError(f"{path}:{ln}: non-finite value")
            ids.append(parts[0])
            rows.append(vals)
    if not rows:
        raise FormatError(f"{path}: empty file")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise FormatError(f"{path}: inconsistent dimensions {sorted(widths)}")
    try:
        return EmbeddingSet(ids, np.array(rows, dtype=np.float64))
    except ValueError as e:
        raise FormatError(f"{path}: {e}") from None


def load_embeddings(path, format: str = "binary") -> EmbeddingSet:
    """Read an EmbeddingSet from disk, validating ids and finiteness."""
    path = Path(path)
    if format == "binary":
        return _load_binary(path)
    if format == "tsv":
        return _load_tsv(path)
    raise ValueError(f"unknown format {format!r}")


def load_relevance(path) -> dict:
    """Read a relevance TSV into {query_id: set of gallery ids}."""
    path = Path(path)
    pairs: dict = {}
    with open(path, encoding="utf-8") as f:
        for ln, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                raise FormatError(f"{path}:{ln}: blank line")
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0] or not parts[1]:
                raise FormatError(f"{path}:{ln}: expected 'query_id<TAB>gallery_id'")
            pairs.setdefault(parts[0], set()).add(parts[1])
    return pairs


def save_relevance(rel: dict, path) -> None:
    """Write a relevance map as sorted "query_id\\tgallery_id" lines.

    An id that load_relevance could not read back, one that is empty or
    holds a tab or a line break, is refused before the file is opened.
    """
    ids = [*rel, *(g for gs in rel.values() for g in gs)]
    _check_ids_fit(ids, "tsv")
    if "" in ids:
        raise ValueError("id '' is empty, which the relevance format cannot store")
    with open(Path(path), "w", encoding="utf-8") as f:
        for q in sorted(rel):
            for g in sorted(rel[q]):
                f.write(f"{q}\t{g}\n")


def validate_pairing(queries: EmbeddingSet, gallery: EmbeddingSet, rel: dict) -> PairingReport:
    """Check that every relevance id resolves and every query is covered."""
    qset = set(queries.ids)
    gset = set(gallery.ids)
    unknown_q = sorted(q for q in rel if q not in qset)
    unknown_g = sorted({g for gs in rel.values() for g in gs if g not in gset})
    missing = sorted(q for q in queries.ids if q not in rel)
    ok = not (unknown_q or unknown_g or missing)
    return PairingReport(ok, unknown_q, unknown_g, missing)
