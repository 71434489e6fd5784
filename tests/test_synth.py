"""Synthetic cone datasets: shape, determinism, and degeneration control."""

import hashlib

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from invgc import simgraph
from invgc.cli import main
from invgc.diagnostics import degeneration_score
from invgc.embio import EmbeddingSet
from invgc.retrieval import evaluate
from invgc.simgraph import cosine_similarity_matrix
from invgc.synth import MODALITY_GAP, ConeConfig, generate_cone_dataset


def test_shapes_ids_and_unit_norms():
    cfg = ConeConfig(n_items=30, n_ref=50, dim=12, seed=2)
    G, Q, refG, refQ, rel = generate_cone_dataset(cfg)
    assert (G.n, G.d) == (30, 12)
    assert (Q.n, Q.d) == (30, 12)
    assert (refG.n, refG.d) == (50, 12)
    assert (refQ.n, refQ.d) == (50, 12)
    assert G.ids == [f"g{i}" for i in range(30)]
    assert Q.ids == [f"q{i}" for i in range(30)]
    assert refG.ids[0] == "rg0" and refQ.ids[-1] == "rq49"
    for es in (G, Q, refG, refQ):
        assert_allclose(np.linalg.norm(es.data, axis=1), 1.0, atol=1e-9)
    assert rel == {f"q{i}": {f"g{i}"} for i in range(30)}


def test_generation_is_seed_deterministic():
    a = generate_cone_dataset(ConeConfig(n_items=20, n_ref=30, dim=8, seed=11))
    b = generate_cone_dataset(ConeConfig(n_items=20, n_ref=30, dim=8, seed=11))
    for x, y in zip(a[:4], b[:4]):
        assert_array_equal(x.data, y.data)
    c = generate_cone_dataset(ConeConfig(n_items=20, n_ref=30, dim=8, seed=12))
    assert not np.array_equal(a[0].data, c[0].data)


def test_tighter_cones_are_more_degenerate():
    scores = []
    for spread in (1e-9, 0.05, 0.15, 0.5, 1.0):
        G = generate_cone_dataset(ConeConfig(cone_spread=spread))[0]
        scores.append(degeneration_score(G))
    assert all(a > b for a, b in zip(scores, scores[1:]))
    # regression anchors for the default shape at seed 7
    assert_allclose(
        scores,
        [
            1.0,
            0.998823839331558,
            0.9895998465865304,
            0.9036518363744449,
            0.7514393006527865,
        ],
        atol=1e-12,
    )


def test_default_dataset_baseline_metrics():
    G, Q, refG, refQ, rel = generate_cone_dataset(ConeConfig())
    assert_allclose(degeneration_score(G), 0.9895998465865304, atol=1e-12)
    rep = evaluate(Q, G, rel)
    assert rep.recall_at == {1: 89.0, 5: 99.5, 10: 100.0}
    assert rep.median_rank == 1.0
    assert_allclose(rep.mean_rank, 1.195, atol=1e-12)


def test_matched_queries_score_above_unmatched_ones():
    G, Q, _, _, _ = generate_cone_dataset(ConeConfig())
    sims = cosine_similarity_matrix(Q, G).values
    matched = np.diag(sims)
    off = sims[~np.eye(Q.n, dtype=bool)].reshape(Q.n, Q.n - 1)
    frac = np.mean(matched > off.mean(axis=1))
    assert frac >= 0.95


def test_query_side_offset_tightens_the_query_set():
    # the shared axis offset makes queries more mutually similar than
    # the gallery rows they derive from
    G, Q, _, _, _ = generate_cone_dataset(ConeConfig())
    assert MODALITY_GAP > 0.0
    assert degeneration_score(Q) > degeneration_score(G)


def test_zero_query_noise_is_allowed():
    # queries still differ from their gallery rows through the shared
    # axis offset, and the offset alone can misrank off-center items
    G, Q, refG, refQ, rel = generate_cone_dataset(
        ConeConfig(n_items=10, n_ref=12, dim=6, query_noise=0.0, seed=4)
    )
    assert not np.allclose(Q.data, G.data)
    assert_allclose(np.linalg.norm(Q.data, axis=1), 1.0, atol=1e-9)
    rep = evaluate(Q, G, rel, (1, 5))
    assert rep.recall_at[5] >= rep.recall_at[1] > 0.0


def test_generation_does_not_depend_on_the_blas_thread_count():
    # Above d = 10,000 OpenBLAS threads a dot product of two vectors, so
    # the axis norm is taken through the pinned _mm like every product.
    pin = simgraph._BLAS_PIN
    if pin is None:
        pytest.skip("numpy runs on a BLAS without the OpenBLAS thread symbols")
    cfg = ConeConfig(n_items=2, n_ref=2, dim=10001, seed=3)
    saved = pin.get()
    try:
        pin.set(1)
        one = generate_cone_dataset(cfg)
        pin.set(2)
        two = generate_cone_dataset(cfg)
    finally:
        pin.set(saved)
    for a, b in zip(one[:4], two[:4]):
        assert_array_equal(a.data, b.data)


def test_config_validation():
    with pytest.raises(ValueError, match="n_items must be an integer >= 2"):
        ConeConfig(n_items=1)
    with pytest.raises(ValueError, match="n_ref must be an integer >= 2"):
        ConeConfig(n_ref=0)
    with pytest.raises(ValueError, match="dim must be an integer >= 2"):
        ConeConfig(dim=1)
    with pytest.raises(ValueError, match="cone_spread must be finite and > 0"):
        ConeConfig(cone_spread=0.0)
    with pytest.raises(ValueError, match="query_noise must be finite and >= 0"):
        ConeConfig(query_noise=-0.1)
    with pytest.raises(ValueError, match=r"^seed must be an integer >= 0, got -1$"):
        ConeConfig(seed=-1)
    with pytest.raises(ValueError, match=r"^seed must be an integer >= 0, got 1\.5$"):
        ConeConfig(seed=1.5)


def test_an_infinite_or_fractional_size_is_refused():
    with pytest.raises(ValueError, match=r"^dim must be an integer >= 2, got inf$"):
        ConeConfig(dim=float("inf"))
    with pytest.raises(ValueError, match=r"^n_items must be an integer >= 2, got 2\.5$"):
        ConeConfig(n_items=2.5)
    # an integral float is taken as its int
    *sets, rel = generate_cone_dataset(ConeConfig(n_items=15.0, n_ref=20.0, dim=8.0, seed=5.0))
    *want, want_rel = generate_cone_dataset(ConeConfig(n_items=15, n_ref=20, dim=8, seed=5))
    assert rel == want_rel
    for got, expected in zip(sets, want):
        assert got.ids == expected.ids
        assert_array_equal(got.data, expected.data)


def test_spread_controls_reference_sets_too():
    tight = generate_cone_dataset(ConeConfig(cone_spread=0.05, seed=9))
    loose = generate_cone_dataset(ConeConfig(cone_spread=0.8, seed=9))
    assert degeneration_score(tight[2]) > degeneration_score(loose[2])


def test_gallery_is_independent_of_reference_count():
    small = generate_cone_dataset(ConeConfig(n_items=15, n_ref=20, dim=8, seed=5))
    large = generate_cone_dataset(ConeConfig(n_items=15, n_ref=200, dim=8, seed=5))
    assert_array_equal(small[0].data, large[0].data)
    assert_array_equal(small[1].data, large[1].data)


# The sha256 of each file `invgc synth` writes, by name after the prefix.
# The second set's reference rows span three chunks of the normalizer
# (2048 rows of width 16 each).  The draws are numpy's PCG64
# standard_normal stream, so another numpy may move them.
SYNTH_DIGESTS = {
    (): {
        "gallery.emb": "fb4f0295b555ef00f93d36c8b3479d066970d6a81305f62147f296c05b561f8f",
        "gallery.emb.ids": "f23be2cba5b94d1e25d55678b51830b5a026fdde9609424c069df8e1be28638b",
        "query.emb": "eeeb3bd35afa0c292a0f9cf83141c89b576aec0b9941990bb4839bac2f87187b",
        "query.emb.ids": "617c63de70f9e4e0888c2aa033ad27c4d0996991727ff69432176cca00e67320",
        "refg.emb": "9a2b77bb077c153aa3fab9885c374fc33209e36e86ffe14883b5d3b459c0a6f4",
        "refg.emb.ids": "6924b3ab1c6fe056da957212113fda8cb9f9d79fad694c7efd50c432566725c8",
        "refq.emb": "32d5f9af01d56d6a79a1592c1d450ca8c82c1cfaa85ee317b79e6b4fd9cbac72",
        "refq.emb.ids": "755503b2495ed3c7bd093acb8dc3bae8b6a4c4ea889890fe02a2d4ad67cc39a3",
        "rel.tsv": "017e92704fc187833ef82d805f239674de018266d4bb1b8f4a7103bdb3022fb5",
    },
    ("--items", "300", "--refs", "5000", "--dim", "16"): {
        "gallery.emb": "e57d04babd60f8b633138babb665abe07b73aae325d4a31ff28f94d559e8d5b7",
        "gallery.emb.ids": "042dca48130ed19dafed7ed0d2b57ba8c314eae6b9e394a54fa02e7afd1b28fd",
        "query.emb": "061fa4e342d84f52e5541bca04ee978a305b540c05f196fb5971a43869327976",
        "query.emb.ids": "b099d23b08304c026fc47d7da88d0edb596119d801fa8713ba7bb36284e67d11",
        "refg.emb": "08389c4faf109f9814b1b1e64b79e134d81f1f975401d602945344da4d8f0a18",
        "refg.emb.ids": "04b72083e05193ce606205f5147d24dce2f1a716c50fa293835c89e62ed9ec0c",
        "refq.emb": "47b17867340364251b73793cc529708248ed03192a5a634b2f62e7cb3a205f12",
        "refq.emb.ids": "4420e7470940597ccc66214b6b161217eb8f73e05697e23832e111765cca1aec",
        "rel.tsv": "b653423b9e13c00d1c7206456d23b1ca2bce89921b8573dbbd26c4ea0b30b4c4",
    },
}


@pytest.mark.parametrize("flags", list(SYNTH_DIGESTS))
def test_synth_writes_the_same_bytes_for_a_seed(flags, tmp_path, capsys):
    assert main(["synth", *flags, "--out-prefix", str(tmp_path / "s")]) == 0
    got = {
        path.name.removeprefix("s."): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.iterdir()
    }
    assert got == SYNTH_DIGESTS[flags]


def test_generation_holds_its_four_sets_and_one_draw(traced_peak):
    # Each set is built in place in its own draw, and the latent a query
    # set is drawn around is the one other array.  Building the formulas
    # with temporaries holds about three draws more.
    cfg = ConeConfig(n_items=500, n_ref=2000, dim=256, seed=1)
    sets, peak = traced_peak(generate_cone_dataset, cfg)
    outputs = sum(es.data.nbytes for es in sets[:4])
    draw = cfg.n_ref * cfg.dim * 8
    assert peak < outputs + 1.5 * draw, (peak, outputs, draw)
