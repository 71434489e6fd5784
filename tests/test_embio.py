"""Round-trips and failure modes of the embedding and relevance file I/O."""

import os
import re
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from invgc import embio
from invgc.embio import (
    EmbeddingSet,
    FormatError,
    load_embeddings,
    load_relevance,
    save_embeddings,
    save_relevance,
    validate_pairing,
)


def random_set(rng, n, d, prefix="e"):
    data = rng.standard_normal((n, d))
    return EmbeddingSet([f"{prefix}{i}" for i in range(n)], data)


def test_binary_round_trip_is_exact_for_float32_data(tmp_path):
    rng = np.random.default_rng(3)
    for trial in range(10):
        n = int(rng.integers(1, 40))
        d = int(rng.integers(1, 12))
        es = random_set(rng, n, d)
        # storage is float32, so float32-representable input round-trips
        # without any loss
        es32 = EmbeddingSet(es.ids, es.data.astype(np.float32).astype(np.float64))
        path = tmp_path / f"t{trial}.emb"
        save_embeddings(es32, path, "binary")
        back = load_embeddings(path, "binary")
        assert back.ids == es32.ids
        assert back.data.dtype == np.float64
        assert_array_equal(back.data, es32.data)


def test_tsv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(4)
    es = random_set(rng, 17, 5)
    path = tmp_path / "t.tsv"
    save_embeddings(es, path, "tsv")
    back = load_embeddings(path, "tsv")
    assert back.ids == es.ids
    assert_array_equal(back.data, es.data)


def test_missing_sidecar_defaults_to_index_ids(tmp_path):
    rng = np.random.default_rng(5)
    es = random_set(rng, 6, 3)
    path = tmp_path / "t.emb"
    save_embeddings(es, path, "binary")
    (tmp_path / "t.emb.ids").unlink()
    back = load_embeddings(path, "binary")
    assert back.ids == [str(i) for i in range(6)]


def test_binary_header_errors(tmp_path):
    good = tmp_path / "good.emb"
    save_embeddings(EmbeddingSet(["a"], [[1.0, 2.0]]), good, "binary")
    raw = good.read_bytes()

    short = tmp_path / "short.emb"
    short.write_bytes(raw[:10])
    with pytest.raises(FormatError, match="truncated header"):
        load_embeddings(short, "binary")

    magic = tmp_path / "magic.emb"
    magic.write_bytes(b"XGCE" + raw[4:])
    with pytest.raises(FormatError, match="bad magic"):
        load_embeddings(magic, "binary")

    version = tmp_path / "version.emb"
    version.write_bytes(raw[:4] + b"\x02\x00" + raw[6:])
    with pytest.raises(FormatError, match="unsupported version 2"):
        load_embeddings(version, "binary")

    padded = tmp_path / "padded.emb"
    padded.write_bytes(raw + b"\x00\x00\x00\x00")
    with pytest.raises(FormatError, match="payload"):
        load_embeddings(padded, "binary")


@pytest.mark.parametrize("change", ["one byte short", "one byte long"])
def test_a_payload_one_byte_off_is_refused_with_its_size(change, tmp_path):
    # two rows of three float32 values are 24 bytes after the 24-byte header
    path = tmp_path / "t.emb"
    save_embeddings(EmbeddingSet(["a", "b"], [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]), path, "binary")
    raw = path.read_bytes()
    path.write_bytes(raw[:-1] if change == "one byte short" else raw + b"\x00")
    with pytest.raises(FormatError) as refused:
        load_embeddings(path, "binary")
    got = 23 if change == "one byte short" else 25
    assert str(refused.value) == f"{path}: payload is {got} bytes, expected 24 at offset 24"


def test_a_header_that_claims_more_rows_than_the_file_holds_is_refused_before_its_array(
        tmp_path, traced_peak):
    # 2**40 rows of 4 float32 values would be a 32 TB float64 array
    path = tmp_path / "claims.emb"
    path.write_bytes(struct.pack("<4sHHQQ", b"IGCE", 1, 0, 2**40, 4) + bytes(16))
    refused, peak = traced_peak(pytest.raises, FormatError, load_embeddings, path, "binary")
    assert peak < 1 << 20
    assert str(refused.value) == f"{path}: payload is 16 bytes, expected {2**44} at offset 24"


def test_a_binary_load_holds_its_float64_array_and_one_read_buffer(tmp_path, traced_peak):
    # 5000 x 256 values make a 10.24 MB float64 array.  The payload is read
    # into it through one 1 MB float32 buffer; holding the whole 5.12 MB
    # file and widening it in one copy peaks near 17 MB.
    rng = np.random.default_rng(8)
    es = EmbeddingSet([f"g{i}" for i in range(5000)],
                      rng.standard_normal((5000, 256)).astype(np.float32))
    path = tmp_path / "big.emb"
    save_embeddings(es, path, "binary")
    back, peak = traced_peak(load_embeddings, path, "binary")
    assert back.ids == es.ids
    assert_array_equal(back.data, es.data)
    assert peak < back.data.nbytes + embio._READ_VALUES * 4 + (1 << 20), peak


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_a_binary_payload_loads_from_a_pipe(tmp_path):
    # a pipe has no size to check first, so it is read whole, then checked
    rng = np.random.default_rng(9)
    es = EmbeddingSet([str(i) for i in range(7)], rng.standard_normal((7, 5)).astype(np.float32))
    path = tmp_path / "t.emb"
    save_embeddings(es, path, "binary")
    pipe = tmp_path / "pipe.emb"
    os.mkfifo(pipe)
    writer = threading.Thread(target=pipe.write_bytes, args=(path.read_bytes(),), daemon=True)
    writer.start()
    back = load_embeddings(pipe, "binary")
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert back.ids == es.ids
    assert_array_equal(back.data, es.data)


@pytest.mark.parametrize(("n", "d", "refusal"), [
    (10**6, 0, "zero dimensions at offset 16"),
    (0, 4, "zero rows at offset 8"),
])
def test_a_header_of_zero_rows_or_dimensions_is_refused_before_any_id(n, d, refusal, tmp_path, traced_peak):
    # With no sidecar, a reader that built the n default ids before it
    # checked d would hold a million strings here, about 70 MB.
    path = tmp_path / "empty.emb"
    path.write_bytes(struct.pack("<4sHHQQ", b"IGCE", 1, 0, n, d))
    refused, peak = traced_peak(pytest.raises, FormatError, load_embeddings, path, "binary")
    assert peak < 1 << 20
    assert str(refused.value) == f"{path}: {refusal}"


def test_sidecar_row_count_mismatch(tmp_path):
    path = tmp_path / "t.emb"
    save_embeddings(EmbeddingSet(["a", "b"], [[1.0], [2.0]]), path, "binary")
    (tmp_path / "t.emb.ids").write_text("a\n", encoding="utf-8")
    with pytest.raises(FormatError, match="1 ids for 2 rows"):
        load_embeddings(path, "binary")


# Ids of any text but the breaks each format refuses, among them "\x85",
# "\u2028", "\x0b", "\x0c" and "\x1c"-"\x1e", which str.splitlines splits at.
_ID_CHARS = st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r\t")
_SPLITLINES_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@settings(max_examples=60, deadline=None)
@given(
    ids=st.lists(st.text(st.one_of(_ID_CHARS, st.sampled_from(_SPLITLINES_BREAKS))),
                 min_size=1, max_size=6, unique=True),
    format=st.sampled_from(["binary", "tsv"]),
)
def test_text_ids_round_trip(ids, format, tmp_path_factory):
    path = tmp_path_factory.mktemp("ids") / "t.emb"
    data = np.arange(len(ids) * 2, dtype=np.float64).reshape(-1, 2) / 4
    save_embeddings(EmbeddingSet(ids, data), path, format)
    back = load_embeddings(path, format)
    assert back.ids == ids
    assert_array_equal(back.data, data)


def test_a_crlf_sidecar_loads(tmp_path):
    path = tmp_path / "t.emb"
    save_embeddings(EmbeddingSet(["a", "b"], [[1.0], [2.0]]), path, "binary")
    (tmp_path / "t.emb.ids").write_bytes(b"a\r\nb \r\n")
    assert load_embeddings(path, "binary").ids == ["a", "b "]


def test_a_sidecar_that_is_not_utf8_is_named_with_its_line(tmp_path):
    path = tmp_path / "t.emb"
    save_embeddings(EmbeddingSet(["a", "b", "c"], [[1.0], [2.0], [3.0]]), path, "binary")
    (tmp_path / "t.emb.ids").write_bytes(b"a\r\nb\n\xffc\n")
    with pytest.raises(FormatError) as refused:
        load_embeddings(path, "binary")
    assert str(refused.value) == f"{path}.ids:3: not UTF-8"


def test_a_tsv_embedding_file_that_is_not_utf8_is_named_with_its_line(tmp_path):
    # past the text reader's first 8 KB, with "\r\n", "\r" and "\n" endings
    path = tmp_path / "t.tsv"
    endings = [b"\r\n", b"\n", b"\r"]
    head = b"".join(b"e%d\t1.0%s" % (i, endings[i % 3]) for i in range(3000))
    assert len(head) > 8192
    path.write_bytes(head + b"x\t2.0\ny\xff\t3.0\n")
    with pytest.raises(FormatError) as refused:
        load_embeddings(path, "tsv")
    assert str(refused.value) == f"{path}:3002: not UTF-8"


def test_a_relevance_file_that_is_not_utf8_is_named_with_its_line(tmp_path):
    path = tmp_path / "rel.tsv"
    path.write_bytes(b"q0\tg0\nq1\tg\xff1\n")
    with pytest.raises(FormatError) as refused:
        load_relevance(path)
    assert str(refused.value) == f"{path}:2: not UTF-8"


@pytest.mark.parametrize("format, bad", [
    ("binary", "a\nb"), ("binary", "a\r"), ("tsv", "a\nb"), ("tsv", "\ra"), ("tsv", "a\tb"),
])
def test_an_id_its_format_cannot_hold_is_refused(format, bad, tmp_path):
    path = tmp_path / "t.emb"
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        save_embeddings(EmbeddingSet(["ok", bad], [[1.0], [2.0]]), path, format)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", [1e39, -1e39])
def test_binary_refuses_a_value_past_float32_and_writes_nothing(value, tmp_path):
    # 3.4028235e38 in row a rounds to the largest float32 and is not named
    es = EmbeddingSet(["a", "b"], [[1.0, 3.4028235e38], [3.0, value]])
    with pytest.raises(ValueError, match=re.escape(f"value {value!r} at id 'b', column 1 is past")):
        save_embeddings(es, tmp_path / "t.emb")
    assert list(tmp_path.iterdir()) == []
    save_embeddings(es, tmp_path / "t.tsv", "tsv")
    assert_array_equal(load_embeddings(tmp_path / "t.tsv", "tsv").data, es.data)


def test_binary_stores_values_up_to_the_largest_float32(tmp_path):
    # 3.4028235e38 is past the largest float32 but rounds to it.
    big = float(np.finfo(np.float32).max)
    es = EmbeddingSet(["a"], [[3.4e38, -3.4e38, 3.4028235e38, big]])
    save_embeddings(es, tmp_path / "t.emb")
    got = load_embeddings(tmp_path / "t.emb").data
    assert_array_equal(got, [[np.float32(3.4e38), -np.float32(3.4e38), big, big]])


def test_tsv_reports_offending_line(tmp_path):
    cases = [
        ("a\t1.0\n\nb\t2.0\n", ":2: blank line"),
        ("a\t1.0\nb\tx\n", ":2: unparseable value"),
        ("a\t1.0\nb\tinf\n", ":2: non-finite value"),
        ("justanid\n", ":1: expected an id"),
    ]
    for text, needle in cases:
        path = tmp_path / "t.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(FormatError, match=needle):
            load_embeddings(path, "tsv")


def test_a_duplicate_sidecar_id_is_named_with_the_sidecar_and_its_line(tmp_path):
    # the line is that of the first repeat: 'b' on line 3, not 'a' on line 4
    path = tmp_path / "t.emb"
    save_embeddings(EmbeddingSet(["a", "b", "c", "d"], np.eye(4)), path)
    (tmp_path / "t.emb.ids").write_text("a\nb\nb\na\n", encoding="utf-8")
    with pytest.raises(FormatError) as refused:
        load_embeddings(path)
    assert str(refused.value) == f"{path}.ids:3: duplicate id 'b'"
    # any other refusal of the set still names the payload
    (tmp_path / "t.emb.ids").unlink()
    raw = bytearray(path.read_bytes())
    raw[-4:] = struct.pack("<f", np.nan)
    path.write_bytes(raw)
    with pytest.raises(FormatError) as refused:
        load_embeddings(path)
    assert str(refused.value) == f"{path}: non-finite value at row 3, column 3"


def test_a_duplicate_tsv_id_is_named_with_its_line(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("a\t1.0\nb\t2.0\nb\t3.0\na\t4.0\n", encoding="utf-8")
    with pytest.raises(FormatError) as refused:
        load_embeddings(path, "tsv")
    assert str(refused.value) == f"{path}:3: duplicate id 'b'"


def test_tsv_rejects_ragged_and_empty_files(tmp_path):
    path = tmp_path / "ragged.tsv"
    path.write_text("a\t1.0\t2.0\nb\t3.0\n", encoding="utf-8")
    with pytest.raises(FormatError, match="inconsistent dimensions"):
        load_embeddings(path, "tsv")
    empty = tmp_path / "empty.tsv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(FormatError, match="empty file"):
        load_embeddings(empty, "tsv")


def test_unknown_format_rejected(tmp_path):
    es = EmbeddingSet(["a"], [[1.0]])
    with pytest.raises(ValueError, match="unknown format"):
        save_embeddings(es, tmp_path / "x", "csv")
    with pytest.raises(ValueError, match="unknown format"):
        load_embeddings(tmp_path / "x", "csv")


def test_embedding_set_validation():
    with pytest.raises(ValueError, match="2-d"):
        EmbeddingSet(["a"], [1.0, 2.0])
    with pytest.raises(ValueError, match="at least one row"):
        EmbeddingSet([], np.empty((0, 3)))
    with pytest.raises(ValueError, match="ids for"):
        EmbeddingSet(["a"], [[1.0], [2.0]])
    with pytest.raises(ValueError, match="duplicate ids"):
        EmbeddingSet(["a", "a"], [[1.0], [2.0]])
    with pytest.raises(ValueError, match="non-finite value at row 1, column 0"):
        EmbeddingSet(["a", "b"], [[1.0], [np.nan]])


def test_relevance_round_trip_collapses_duplicates(tmp_path):
    path = tmp_path / "rel.tsv"
    path.write_text("q1\tg2\nq0\tg0\nq1\tg2\nq1\tg1\n", encoding="utf-8")
    rel = load_relevance(path)
    assert rel == {"q0": {"g0"}, "q1": {"g1", "g2"}}
    out = tmp_path / "out.tsv"
    save_relevance(rel, out)
    assert out.read_text(encoding="utf-8") == "q0\tg0\nq1\tg1\nq1\tg2\n"


@pytest.mark.parametrize("rel, bad", [
    ({"q\t1": {"g1"}}, "q\t1"),
    ({"q1": {"g\n1"}}, "g\n1"),
    ({"q1": {"g\r1"}}, "g\r1"),
], ids=["tab", "newline", "carriage-return"])
def test_save_relevance_refuses_an_id_with_a_tab_or_line_break(tmp_path, rel, bad):
    # load_relevance would read such a line as the wrong number of fields
    out = tmp_path / "rel.tsv"
    want = f"id {bad!r} holds a tab or line break, which the tsv format cannot store"
    with pytest.raises(ValueError, match=re.escape(want)):
        save_relevance(rel, out)
    assert not out.exists()


@pytest.mark.parametrize("rel", [{"": {"g1"}}, {"q1": {"g1", ""}}], ids=["query", "gallery"])
def test_save_relevance_refuses_an_empty_id(tmp_path, rel):
    out = tmp_path / "rel.tsv"
    with pytest.raises(ValueError, match="id '' is empty"):
        save_relevance(rel, out)
    assert not out.exists()


def test_relevance_rejects_malformed_lines(tmp_path):
    for text in ("q1\n", "q1\tg1\tg2\n", "\tg1\n", "q1\t\n", "q1\tg1\n\n"):
        path = tmp_path / "rel.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(FormatError):
            load_relevance(path)


def test_validate_pairing_reports_every_mismatch():
    Q = EmbeddingSet(["q0", "q1", "q2"], np.eye(3))
    G = EmbeddingSet(["g0", "g1"], np.eye(2))
    ok = validate_pairing(Q, G, {"q0": {"g0"}, "q1": {"g1"}, "q2": {"g0"}})
    assert ok.ok
    assert ok.unknown_query_ids == []
    assert ok.unknown_gallery_ids == []
    assert ok.queries_without_relevance == []

    bad = validate_pairing(Q, G, {"q0": {"g0", "gX"}, "qX": {"g1"}})
    assert not bad.ok
    assert bad.unknown_query_ids == ["qX"]
    assert bad.unknown_gallery_ids == ["gX"]
    assert bad.queries_without_relevance == ["q1", "q2"]
