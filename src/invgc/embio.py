"""Embedding-set and relevance-map file I/O: every file format invgc
reads or writes is decided here.

Embeddings come in two formats; _format_for takes a path ending in
".tsv" as tsv and any other as binary.

binary
    Header: bytes 0-3 ASCII "IGCE", u16 LE version (= 1), u16 LE reserved
    (= 0), u64 LE n_rows, u64 LE n_dims; then n_rows * n_dims IEEE-754
    float32 LE values, row-major.  Ids live in a sidecar file
    "<path>.ids" (UTF-8, one id per line, exactly n_rows lines, each
    ended by "\\n"; a "\\r\\n" ending reads too).  When the sidecar is
    absent, ids default to "0".."N-1".

tsv
    One row per line, "<id>\\t<v1>\\t...\\t<vd>", no header, constant d.

Every TSV file (tsv embeddings, relevance maps, dump_ranks, the CLI's
histogram and grid trace) is UTF-8 lines of tab-joined _cell strings,
each ended by "\\n" (a "\\r\\n" ending reads too): a bool is "true" or
"false", a float repr(float(v)), anything else str(v).  _write_tsv
writes one, and _tsv_rows reads one and refuses a blank line, or (as
_utf8 does a sidecar's) a byte that is not UTF-8, as "path:line".  The
CLI's stdout rows come from the same _line.

An id holds no "\\n" or "\\r", nor a tab in tsv: save_embeddings refuses
one that does, which its reader could not read back.

Relevance maps are TSV files of "query_id\\tgallery_id" lines; duplicate
lines collapse.

Storage is float32 (matching typical embedding exports); matrices are
widened to float64 in memory so downstream subtraction is stable.
"""

from __future__ import annotations

import io
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


def _format_for(path) -> str:
    return "tsv" if str(path).endswith(".tsv") else "binary"


def _cell(v) -> str:
    if isinstance(v, float):
        return float.__repr__(v)  # repr(float(v)): a numpy float64 prints as a Python float
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _line(cells) -> str:
    return "\t".join(map(_cell, cells))


def _write_tsv(path, rows) -> None:
    with open(Path(path), "w", encoding="utf-8", newline="\n") as f:
        for row in rows:
            f.write(_line(row) + "\n")


def _utf8(path: Path) -> str:
    """The file at path as text, or a FormatError naming the line of its first
    byte that is not UTF-8, counting "\\r\\n", "\\r" and "\\n" endings."""
    raw = path.read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as e:
        ln = raw[: e.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n").count(b"\n") + 1
        raise FormatError(f"{path}:{ln}: not UTF-8") from None


def _tsv_rows(path: Path):
    """Yield (line number, cells) for each line of the TSV file at path."""
    with open(path, encoding="utf-8") as f:
        try:
            for ln, line in enumerate(f, 1):
                line = line.rstrip("\n")
                if not line:
                    raise FormatError(f"{path}:{ln}: blank line")
                yield ln, line.split("\t")
        except UnicodeDecodeError:
            _utf8(path)  # raises, naming the line
            raise


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
        _write_tsv(path, ([i, *row.tolist()] for i, row in zip(es.ids, es.data)))
    else:
        raise ValueError(f"unknown format {format!r}")


def _loaded_set(path: Path, ids: list, data: np.ndarray, id_file: Path) -> EmbeddingSet:
    """EmbeddingSet(ids, data), or a FormatError naming path; a repeated id
    is named at the line of id_file that repeats it, ids[0] being line 1."""
    try:
        return EmbeddingSet(ids, data)
    except ValueError as e:
        first = {}
        for ln, i in enumerate(ids, 1):
            if first.setdefault(i, ln) != ln:
                raise FormatError(f"{id_file}:{ln}: duplicate id {i!r}") from None
        raise FormatError(f"{path}: {e}") from None


_READ_VALUES = 1 << 18
"""float32 values _read_float32 reads at a time: a 1 MB buffer."""


def _read_float32(f, count: int) -> tuple:
    """(values, bytes read): count little-endian float32 values from the
    binary file f, widened into a float64 array through one buffer of at
    most _READ_VALUES values.  If f ends first, the bytes read fall short."""
    values = np.empty(count)
    buf = np.empty(min(count, _READ_VALUES), dtype="<f4")
    for start in range(0, count, len(buf)):
        part = buf[: count - start]
        read = f.readinto(part)
        if read < part.nbytes:
            return values, start * 4 + read
        values[start:start + len(part)] = part
    return values, count * 4


def _load_binary(path: Path) -> EmbeddingSet:
    # The file's size is checked against the header before the payload is
    # read, so a header that claims more rows than the file holds is
    # refused before its array is made.
    with open(path, "rb") as f:
        try:
            size = f.seek(0, io.SEEK_END)
            f.seek(0)
        except OSError:  # a pipe tells no size until it is read
            f = io.BytesIO(f.read())
            size = len(f.getbuffer())
        head = f.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise FormatError(f"{path}: truncated header, {len(head)} bytes at offset 0")
        magic, version, _reserved, n, d = _HEADER.unpack(head)
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
        got = size - _HEADER.size
        if got == want:
            values, got = _read_float32(f, n * d)  # short if the file shrank meanwhile
    if got != want:
        raise FormatError(
            f"{path}: payload is {got} bytes, expected {want} at offset {_HEADER.size}"
        )
    data = values.reshape(n, d)
    sidecar = _sidecar(path)
    if sidecar.exists():
        # "\n" ends each id, as save_embeddings writes it: str.splitlines
        # would also split at "\x85", "\u2028" and the like.
        ids = _utf8(sidecar).split("\n")
        if ids[-1] == "":
            ids.pop()
        ids = [i.removesuffix("\r") for i in ids]
        if len(ids) != n:
            raise FormatError(f"{sidecar}: {len(ids)} ids for {n} rows")
    else:
        ids = [str(i) for i in range(n)]
    return _loaded_set(path, ids, data, sidecar)


def _load_tsv(path: Path) -> EmbeddingSet:
    ids, rows = [], []
    for ln, (i, *cells) in _tsv_rows(path):
        if not cells:
            raise FormatError(f"{path}:{ln}: expected an id and at least one value")
        try:
            vals = [float(c) for c in cells]
        except ValueError:
            raise FormatError(f"{path}:{ln}: unparseable value") from None
        if not all(math.isfinite(v) for v in vals):
            raise FormatError(f"{path}:{ln}: non-finite value")
        ids.append(i)
        rows.append(vals)
    if not rows:
        raise FormatError(f"{path}: empty file")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise FormatError(f"{path}: inconsistent dimensions {sorted(widths)}")
    return _loaded_set(path, ids, np.array(rows, dtype=np.float64), path)


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
    for ln, cells in _tsv_rows(path):
        if len(cells) != 2 or not all(cells):
            raise FormatError(f"{path}:{ln}: expected 'query_id<TAB>gallery_id'")
        pairs.setdefault(cells[0], set()).add(cells[1])
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
    _write_tsv(path, ((q, g) for q in sorted(rel) for g in sorted(rel[q])))


def validate_pairing(queries: EmbeddingSet, gallery: EmbeddingSet, rel: dict) -> PairingReport:
    """Check that every relevance id resolves and every query is covered."""
    qset = set(queries.ids)
    gset = set(gallery.ids)
    unknown_q = sorted(q for q in rel if q not in qset)
    unknown_g = sorted({g for gs in rel.values() for g in gs if g not in gset})
    missing = sorted(q for q in queries.ids if q not in rel)
    ok = not (unknown_q or unknown_g or missing)
    return PairingReport(ok, unknown_q, unknown_g, missing)
