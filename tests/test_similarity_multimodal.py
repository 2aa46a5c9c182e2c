"""Similarity-search correctness vs a numpy oracle + multimodal plumbing."""

import numpy as np
import pyarrow as pa
import pytest

import ray.data


def _emb_ds(n=200, dim=16, seed=9):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, dim))
    rows = [{"vec_id": i, "embedding": m[i].tolist()} for i in range(n)]
    return ray.data.from_items(rows), m


def _numpy_topk(m, q_idx, k):
    mn = m / np.linalg.norm(m, axis=1, keepdims=True)
    out = {}
    for qi in q_idx:
        sims = mn @ mn[qi]
        sims[qi] = -np.inf
        order = np.argsort(-np.round(sims, 6) + np.arange(len(sims)) * 1e-12)
        # deterministic: sort by (-rounded score, id)
        pairs = sorted(
            ((-(round(s, 6)), i) for i, s in enumerate(sims) if i != qi)
        )
        out[qi] = [i for _, i in pairs[:k]]
    return out


def test_brute_force_topk_matches_numpy(ray_session):
    from clickhouse_data_pipeline_ray.functions.similarity import brute_force_topk

    ds, m = _emb_ds()
    q_idx = [0, 1, 2]
    got = brute_force_topk(ds, m[q_idx], q_idx, k=5)
    want = _numpy_topk(m, q_idx, 5)
    for qi in q_idx:
        g = got[got["query_id"] == qi].sort_values("rank")["neighbor_id"].tolist()
        assert g == want[qi], f"query {qi}: {g} != {want[qi]}"


def test_topk_empty_vector_set_returns_empty(ray_session):
    """A zero-row pruned set (every probed IVF bucket empty, or an empty
    filtered batch on the distributed path) folds to an empty result —
    never a zero-size reshape / argpartition crash."""
    import pyarrow as pa

    from clickhouse_data_pipeline_ray.functions.similarity import (
        BruteForceTopK,
        brute_force_topk,
    )

    empty = pa.table(
        {
            "vec_id": pa.array([], pa.int64()),
            "embedding": pa.array([], pa.list_(pa.float32())),
        }
    )
    q = np.eye(2, 8)
    out = BruteForceTopK(queries=q, query_ids=np.array([0, 1]))(empty)
    assert out.num_rows == 0
    assert out.column_names == ["query_id", "neighbor_id", "score"]
    # latency (pa.Table) fold over the empty kernel output
    got = brute_force_topk(empty, q, [0, 1], k=3)
    assert len(got) == 0


def test_ivf_topk_high_recall(ray_session):
    from clickhouse_data_pipeline_ray.functions.similarity import ivf_topk

    ds, m = _emb_ds(n=300)
    q_idx = [0, 1]
    got = ivf_topk(ds, m[q_idx], q_idx, k=5, n_centroids=8, nprobe=4)
    want = _numpy_topk(m, q_idx, 5)
    for qi in q_idx:
        g = set(got[got["query_id"] == qi]["neighbor_id"])
        recall = len(g & set(want[qi])) / 5
        assert recall >= 0.4, f"query {qi}: recall {recall}"


def _media_ds():
    rows = [
        {"media_id": f"m-{i}", "mime": "image/fake", "payload": bytes([i]) * (100 + i)}
        for i in range(10)
    ]
    return ray.data.from_items(rows)


def test_image_decode_plumbing(ray_session):
    from clickhouse_data_pipeline_ray.functions.multimodal import (
        IMAGE_FEATURE_DIM,
        ImageDecode,
    )

    out = _media_ds().map_batches(
        ImageDecode,
        fn_constructor_kwargs={"decoder": "fake"},
        batch_format="pyarrow",
        batch_size=4,
        concurrency=2,
        num_cpus=0.5,
    )
    pdf = out.to_pandas().sort_values("media_id").reset_index(drop=True)
    assert len(pdf) == 10
    assert set(pdf.columns) == {"media_id", "height", "width", "channels", "feature"}
    assert all(len(f) == IMAGE_FEATURE_DIM for f in pdf["feature"])
    # deterministic: same payload -> same decode
    pdf2 = (
        _media_ds()
        .map_batches(
            ImageDecode,
            fn_constructor_kwargs={"decoder": "fake"},
            batch_format="pyarrow",
            batch_size=4,
            concurrency=1,
        )
        .to_pandas()
        .sort_values("media_id")
        .reset_index(drop=True)
    )
    assert (pdf["height"] == pdf2["height"]).all()


def test_image_decode_real_is_stubbed():
    from clickhouse_data_pipeline_ray.functions.multimodal import ImageDecode

    dec = ImageDecode(decoder="real")
    with pytest.raises(NotImplementedError):
        dec._decode_one(b"abc")


def test_video_frame_sample(ray_session):
    from clickhouse_data_pipeline_ray.functions.multimodal import VideoFrameSample

    out = _media_ds().map_batches(
        VideoFrameSample,
        fn_constructor_kwargs={"decoder": "fake", "frames_per_video": 3},
        batch_format="pyarrow",
        batch_size=4,
        concurrency=1,
    )
    pdf = out.to_pandas()
    assert len(pdf) == 30  # 10 videos x 3 frames
    assert set(pdf["frame_index"]) == {0, 1, 2}


def test_audio_features_plumbing(ray_session):
    from clickhouse_data_pipeline_ray.functions.multimodal import (
        AUDIO_FEATURE_DIM,
        AudioFeatures,
    )

    out = _media_ds().map_batches(
        AudioFeatures,
        fn_constructor_kwargs={"decoder": "fake", "target_sample_rate": 22_050},
        batch_format="pyarrow",
        batch_size=4,
        concurrency=2,
        num_cpus=0.5,
    )
    pdf = out.to_pandas().sort_values("media_id").reset_index(drop=True)
    assert len(pdf) == 10
    assert set(pdf.columns) == {"media_id", "duration_ms", "sample_rate", "feature"}
    assert (pdf["sample_rate"] == 22_050).all()
    assert all(len(f) == AUDIO_FEATURE_DIM for f in pdf["feature"])
    # deterministic: same payload bytes -> same fake decode
    pdf2 = (
        _media_ds()
        .map_batches(
            AudioFeatures,
            fn_constructor_kwargs={"decoder": "fake", "target_sample_rate": 22_050},
            batch_format="pyarrow",
            batch_size=4,
            concurrency=1,
        )
        .to_pandas()
        .sort_values("media_id")
        .reset_index(drop=True)
    )
    assert (pdf["duration_ms"] == pdf2["duration_ms"]).all()


def test_ivf_persisted_index_prunes_and_recalls(ray_session, tmp_path):
    """The persisted-index path: build once (bucket-partitioned parquet +
    centroids), search reads ONLY probed bucket dirs, recall matches the
    exact top-k closely."""
    from clickhouse_data_pipeline_ray.functions.similarity import (
        build_ivf_index,
        ivf_index_topk,
    )

    ds, m = _emb_ds(n=300, dim=16, seed=4)
    index_dir = str(tmp_path / "ivf")
    meta = build_ivf_index(ds, index_dir, n_centroids=8)
    assert meta["n_centroids"] == 8 and meta["dim"] == 16
    import os

    buckets = sorted(os.listdir(os.path.join(index_dir, "vectors")))
    assert len(buckets) >= 2 and all(b.startswith("ivf_bucket=") for b in buckets)
    # index holds every vector exactly once across buckets
    import pyarrow.dataset as pds

    total = sum(
        pds.dataset(os.path.join(index_dir, "vectors", b)).count_rows()
        for b in buckets
    )
    assert total == 300

    q_idx = [0, 5, 9]
    got = ivf_index_topk(index_dir, m[q_idx], q_idx, k=5, nprobe=4)
    want = _numpy_topk(m, q_idx, 5)
    hits = sum(
        len(set(got[got["query_id"] == qi]["neighbor_id"]) & set(want[qi]))
        for qi in q_idx
    )
    assert hits >= 0.6 * 5 * len(q_idx)  # nprobe=4/8 buckets: high recall
    # full-probe search must be exact
    got_full = ivf_index_topk(index_dir, m[q_idx], q_idx, k=5, nprobe=8)
    for qi in q_idx:
        g = got_full[got_full["query_id"] == qi].sort_values("rank")[
            "neighbor_id"
        ].tolist()
        assert g == want[qi]


def test_ivf_rebuild_is_idempotent(ray_session, tmp_path):
    """Rebuilding into a reused index_dir must not leave stale/duplicate
    vector files: same file count, identical search results."""
    import os

    import numpy as np
    import pandas as pd

    from clickhouse_data_pipeline_ray.functions.similarity import (
        build_ivf_index,
        ivf_index_topk,
    )

    rng = np.random.default_rng(23)
    emb = rng.standard_normal((300, 16))
    rows = [{"vec_id": i, "embedding": emb[i].tolist()} for i in range(300)]
    ds = ray.data.from_items(rows)
    idx = str(tmp_path / "ivf")

    build_ivf_index(ds, idx, n_centroids=8)

    def vec_files():
        out = []
        for root, _dirs, files in os.walk(os.path.join(idx, "vectors")):
            out += [os.path.join(root, f) for f in files if f.endswith(".parquet")]
        return sorted(out)

    files_1 = vec_files()
    r1 = ivf_index_topk(idx, emb[:3], [0, 1, 2], k=5, nprobe=3)

    # rebuild into the SAME dir (simulates retry after a partial failure)
    build_ivf_index(ds, idx, n_centroids=8)
    files_2 = vec_files()
    assert len(files_1) == len(files_2)  # no appended duplicates
    assert not os.path.exists(os.path.join(idx, "vectors.tmp"))
    r2 = ivf_index_topk(idx, emb[:3], [0, 1, 2], k=5, nprobe=3)
    pd.testing.assert_frame_equal(r1, r2)
    # duplicates would surface as repeated neighbor ids per query
    assert not r2.duplicated(subset=["query_id", "neighbor_id"]).any()


def test_ivf_rebuild_crash_refuses_to_answer(ray_session, tmp_path, monkeypatch):
    """A rebuild (16 → 8 centroids) that dies right after its vectors swap
    leaves an index that raises on read, not one that probes the new
    buckets with the old centroids; a clean rebuild restores the answers."""
    import pandas as pd

    from clickhouse_data_pipeline_ray.functions.similarity import (
        build_ivf_index,
        ivf_index_topk,
    )

    emb = np.random.default_rng(31).standard_normal((300, 16))
    ds = ray.data.from_items(
        [{"vec_id": i, "embedding": emb[i].tolist()} for i in range(300)]
    )
    idx = str(tmp_path / "ivf")
    build_ivf_index(ds, idx, n_centroids=16)
    want = ivf_index_topk(idx, emb[:5], list(range(5)), k=5, nprobe=4)
    real_save = np.save

    def save(file, arr, *a, **kw):
        if "centroids" in str(file):
            raise OSError("injected failure after the vectors swap")
        return real_save(file, arr, *a, **kw)

    monkeypatch.setattr(np, "save", save)
    with pytest.raises(OSError, match="injected"):
        build_ivf_index(ds, idx, n_centroids=8)
    monkeypatch.undo()
    with pytest.raises(FileNotFoundError):
        ivf_index_topk(idx, emb[:5], list(range(5)), k=5, nprobe=4)
    build_ivf_index(ds, idx, n_centroids=16)
    pd.testing.assert_frame_equal(
        ivf_index_topk(idx, emb[:5], list(range(5)), k=5, nprobe=4), want
    )


def test_codec_auto_probe_selects_numpy_here():
    """decoder='auto' must resolve to the pure-numpy tier in this container
    (no PIL/ffmpeg/torchaudio — real-library tier unavailable, numpy tier
    always available) while keeping the output schema identical."""
    import pyarrow as pa

    from clickhouse_data_pipeline_ray.functions.multimodal import (
        AudioFeatures,
        ImageDecode,
        VideoFrameSample,
        _codec_available,
        encode_bmp,
    )

    assert not _codec_available("image")
    assert ImageDecode(decoder="auto").decoder == "numpy"
    assert AudioFeatures(decoder="auto").decoder == "numpy"
    assert VideoFrameSample(decoder="auto").decoder == "numpy"

    arr = np.arange(9 * 12 * 3, dtype=np.uint8).reshape(9, 12, 3)
    batch = pa.table(
        {
            "media_id": ["m1"],
            "mime": ["image/bmp"],
            "payload": pa.array([encode_bmp(arr)], pa.binary()),
        }
    )
    out = ImageDecode(decoder="auto")(batch)
    assert out.column_names == ["media_id", "height", "width", "channels", "feature"]
    assert out.column("height")[0].as_py() == 9
    assert out.column("width")[0].as_py() == 12


def test_numpy_codecs_roundtrip_and_decode():
    """The pure-numpy BMP/WAV/Y4M codecs decode real planted payloads
    (public byte layouts, encode→decode round-trip exact)."""
    from clickhouse_data_pipeline_ray.functions import multimodal as M

    rng = np.random.default_rng(11)
    arr = rng.integers(0, 256, (13, 21, 3), dtype=np.uint8)
    assert np.array_equal(M.decode_bmp(M.encode_bmp(arr)), arr)
    s = rng.integers(-30000, 30000, 777).astype(np.int16)
    s2, sr = M.decode_wav(M.encode_wav(s, 16000))
    assert sr == 16000 and np.array_equal(s, s2)
    y = rng.integers(0, 256, (3, 8, 16), dtype=np.uint8)
    assert np.array_equal(M.decode_y4m(M.encode_y4m(y)), y)

    import pyarrow as pa

    # audio: exact pixel/sample-derived metadata
    wav = M.encode_wav(np.zeros(16 * 75, np.int16), 16000)
    t = pa.table({"media_id": [1], "payload": pa.array([wav], pa.binary())})
    out = M.AudioFeatures(decoder="numpy")(t)
    assert out.column("duration_ms")[0].as_py() == 75
    assert out.column("sample_rate")[0].as_py() == 16000
    # video: every frame surfaced with its exact constant-plane luma
    planes = np.stack(
        [np.full((8, 16), (7 * 5 + 13 * i) % 256, np.uint8) for i in range(3)]
    )
    t = pa.table({"media_id": [5], "payload": pa.array([M.encode_y4m(planes)], pa.binary())})
    out = M.VideoFrameSample(decoder="numpy", frames_per_video=4)(t)
    assert out.column("frame_index").to_pylist() == [0, 1, 2]
    assert out.column("mean_luma").to_pylist() == [(7 * 5 + 13 * i) % 256 for i in range(3)]


def test_table_latency_path_equals_dataset_path(ray_session, tmp_path):
    """The pa.Table (driver-side latency) path of brute_force_topk / ivf_topk
    / ivf_index_topk must return exactly what the distributed Dataset path
    returns — same kernels, same rounding, same tie-breaks."""
    import pyarrow as pa

    from clickhouse_data_pipeline_ray.functions.similarity import (
        brute_force_topk,
        build_ivf_index,
        ivf_index_topk,
        ivf_topk,
        kmeans_centroids,
    )

    ds, m = _emb_ds(n=300, dim=16, seed=31)
    tbl = pa.Table.from_pylist(
        [{"vec_id": i, "embedding": m[i].tolist()} for i in range(len(m))]
    )
    q = m[:5]
    qids = list(range(5))

    b_ds = brute_force_topk(ds, q, qids, k=4)
    b_tbl = brute_force_topk(tbl, q, qids, k=4)
    assert b_tbl.equals(b_ds)

    cents = kmeans_centroids(tbl, n_centroids=8)
    i_ds = ivf_topk(ds, q, qids, k=4, n_centroids=8, nprobe=3, centroids=cents)
    i_tbl = ivf_topk(tbl, q, qids, k=4, n_centroids=8, nprobe=3, centroids=cents)
    assert i_tbl.equals(i_ds)

    idx = str(tmp_path / "ivf")
    build_ivf_index(ds, idx, n_centroids=8)
    x_small = ivf_index_topk(idx, q, qids, k=4, nprobe=3)  # driver path
    x_dist = ivf_index_topk(idx, q, qids, k=4, nprobe=3, small_bytes=0)
    assert x_small.equals(x_dist)


def test_connected_components_union_find():
    from clickhouse_data_pipeline_ray.functions.dedup import connected_components

    # chain 1-2-3, clique 10-11-12, isolated pair 20-21
    comp = connected_components(
        [2, 1, 10, 10, 11, 20], [3, 2, 11, 12, 12, 21]
    )
    assert comp == {1: 1, 2: 1, 3: 1, 10: 10, 11: 10, 12: 10, 20: 20, 21: 20}
    assert connected_components([], []) == {}
    # merge order independence: late edge joining two grown components
    comp2 = connected_components([1, 3, 2], [2, 4, 3])
    assert set(comp2.values()) == {1}


def test_label_centroids_and_assign(ray_session):
    from clickhouse_data_pipeline_ray.functions.similarity import (
        CentroidAssign,
        label_centroids,
        nearest_centroid_confusion,
    )
    import pyarrow as pa

    # two labels with exact means: label 0 around (0,0), label 1 around (4,4)
    rows = [
        {"label": 0, "embedding": [1.0, -1.0]},
        {"label": 0, "embedding": [-1.0, 1.0]},
        {"label": 1, "embedding": [3.0, 5.0]},
        {"label": 1, "embedding": [5.0, 3.0]},
    ]
    ds = ray.data.from_items(rows)
    labels, cents = label_centroids(ds)
    assert labels.tolist() == [0, 1]
    np.testing.assert_allclose(cents, [[0.0, 0.0], [4.0, 4.0]])

    # tie-break: a point exactly equidistant from both centroids picks the
    # LOWEST label (row order of centroids is label-ascending)
    stage = CentroidAssign(centroids=cents, centroid_labels=labels)
    batch = pa.table({"label": [0, 1, 1], "embedding": [[0.1, 0.0], [3.9, 4.0], [2.0, 2.0]]})
    out = stage(batch)
    assert out.column("assigned_label").to_pylist() == [0, 1, 0]

    conf = nearest_centroid_confusion(ds).to_pandas()
    # well-separated clusters -> diagonal confusion
    assert conf.values.tolist() == [[0, 0, 2], [1, 1, 2]]


def test_connected_components_distributed_identity(ray_session):
    """The star-round distributed CC equals driver union-find on random
    graphs across densities (including multi-component, chains, cliques)."""
    from clickhouse_data_pipeline_ray.functions.dedup import (
        connected_components,
        connected_components_distributed,
    )

    rng = np.random.default_rng(7)
    for n_nodes, n_edges in [(12, 8), (50, 30), (200, 150), (300, 600)]:
        a = rng.integers(0, n_nodes, n_edges).astype(np.int64)
        b = rng.integers(0, n_nodes, n_edges).astype(np.int64)
        keep = a != b
        a, b = a[keep], b[keep]
        want = connected_components(a.tolist(), b.tolist())
        edges = ray.data.from_arrow(
            pa.table({"u": pa.array(a, pa.int64()), "v": pa.array(b, pa.int64())})
        )
        got_tbl = connected_components_distributed(edges, n_buckets=4)
        got = dict(
            zip(got_tbl.column("node").to_pylist(), got_tbl.column("rep").to_pylist())
        )
        assert got == want, (n_nodes, n_edges)

    # empty edge list
    empty = ray.data.from_arrow(
        pa.table({"u": pa.array([], pa.int64()), "v": pa.array([], pa.int64())})
    )
    assert connected_components_distributed(empty).num_rows == 0


def test_connected_components_auto_switch(ray_session):
    """Forcing driver_pair_limit=0 routes through the distributed path and
    yields the identical component dict."""
    from clickhouse_data_pipeline_ray.functions.dedup import (
        connected_components,
        connected_components_auto,
    )

    a = [2, 1, 10, 10, 11, 20, 500]
    b = [3, 2, 11, 12, 12, 21, 1]
    want = connected_components(a, b)
    got = connected_components_auto(a, b, driver_pair_limit=0)
    assert got == want

    # string doc ids (the minhash_dedup key shape) must survive the
    # distributed path: encoded via sorted uniques so the min-code root is
    # the min-id root, decoded back to the original keys
    sa = [f"d-{x:03d}" for x in a]
    sb = [f"d-{x:03d}" for x in b]
    want_s = connected_components(sa, sb)
    got_s = connected_components_auto(sa, sb, driver_pair_limit=0)
    assert got_s == want_s
    assert all(isinstance(k, str) for k in got_s)
def test_kmeans_lloyd_matches_numpy_reference(ray_session):
    """Distributed Lloyd equals a pure-numpy reference running the identical
    update rule from the identical init, and inertia never increases."""
    from clickhouse_data_pipeline_ray.functions.similarity import (
        _normalize,
        kmeans_lloyd,
    )

    rng = np.random.default_rng(3)
    # three separable cones + noise
    base = _normalize(rng.standard_normal((3, 8)))
    x = np.concatenate(
        [_normalize(base[i] + 0.15 * rng.standard_normal((40, 8))) for i in range(3)]
    )
    init = x[[0, 40, 80]]

    # numpy reference: same spherical rule (argmax cosine, mean, renormalize)
    ref = init.copy()
    ref_hist = []
    for _ in range(6):
        sims = x @ ref.T
        assign = np.argmax(sims, axis=1)
        ref_hist.append(float(np.sum(1.0 - sims[np.arange(len(x)), assign])))
        for c in range(3):
            m = x[assign == c]
            if len(m):
                ref[c] = m.mean(axis=0)
        ref = _normalize(ref)

    rows = [{"vec_id": i, "embedding": x[i].tolist()} for i in range(len(x))]
    ds = ray.data.from_items(rows).repartition(4)
    cents, hist = kmeans_lloyd(ds, init, iters=6, tol=0.0)
    np.testing.assert_allclose(cents, ref, atol=1e-9)
    np.testing.assert_allclose(hist, ref_hist, atol=1e-9)
    assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))

    # driver-side pa.Table path folds to the same answer
    tbl = pa.table(
        {
            "vec_id": pa.array(range(len(x)), pa.int64()),
            "embedding": pa.array([r.tolist() for r in x], pa.list_(pa.float64())),
        }
    )
    cents_t, hist_t = kmeans_lloyd(tbl, init, iters=6, tol=0.0)
    np.testing.assert_allclose(cents_t, cents, atol=1e-12)
    np.testing.assert_allclose(hist_t, hist, atol=1e-12)


def test_kmeans_lloyd_empty_cluster_and_early_stop():
    from clickhouse_data_pipeline_ray.functions.similarity import kmeans_lloyd

    # a far-off centroid that captures nothing must stay put
    x = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.1, 0.9]])
    tbl = pa.table(
        {
            "vec_id": pa.array(range(4), pa.int64()),
            "embedding": pa.array([r.tolist() for r in x], pa.list_(pa.float64())),
        }
    )
    init = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    cents, hist = kmeans_lloyd(tbl, init, iters=10, tol=1e-9)
    np.testing.assert_allclose(cents[2], [-1.0, 0.0], atol=1e-12)
    # converged well before 10 iterations (early stop on centroid shift)
    assert len(hist) < 10


def test_build_ivf_index_refined_recall_not_worse(ray_session, tmp_path):
    """refine_iters polishes the sample-trained centroids against the full
    corpus; the refined index must keep exact full-probe search and at least
    match the unrefined nprobe recall on this fixture."""
    from clickhouse_data_pipeline_ray.functions.similarity import (
        build_ivf_index,
        ivf_index_topk,
    )

    ds, m = _emb_ds(n=300, dim=16, seed=4)
    q_idx = [0, 5, 9]
    want = _numpy_topk(m, q_idx, 5)

    def hits(index_dir):
        got = ivf_index_topk(index_dir, m[q_idx], q_idx, k=5, nprobe=4)
        return sum(
            len(set(got[got["query_id"] == qi]["neighbor_id"]) & set(want[qi]))
            for qi in q_idx
        )

    plain = str(tmp_path / "plain")
    refined = str(tmp_path / "refined")
    build_ivf_index(ds, plain, n_centroids=8)
    build_ivf_index(ds, refined, n_centroids=8, refine_iters=3)
    assert hits(refined) >= hits(plain) - 1  # refinement must not regress
    # full probe stays exact regardless of centroid quality
    got_full = ivf_index_topk(refined, m[q_idx], q_idx, k=5, nprobe=8)
    for qi in q_idx:
        g = got_full[got_full["query_id"] == qi].sort_values("rank")[
            "neighbor_id"
        ].tolist()
        assert g == want[qi]


def test_confusion_distributed_combine_identical(ray_session):
    """Forcing the partial-row budget to 0 routes the confusion combine
    through the distributed groupby with identical output."""
    import clickhouse_data_pipeline_ray.functions.similarity as S

    rows = [
        {"label": i % 3, "embedding": [float(i % 3), float((i * 7) % 5)]}
        for i in range(60)
    ]
    ds = ray.data.from_items(rows).repartition(4)
    want = S.nearest_centroid_confusion(ds).to_pandas()
    old = S._CONFUSION_DRIVER_ROW_LIMIT
    S._CONFUSION_DRIVER_ROW_LIMIT = 0
    try:
        got = S.nearest_centroid_confusion(ds).to_pandas()
    finally:
        S._CONFUSION_DRIVER_ROW_LIMIT = old
    assert got.values.tolist() == want.values.tolist()
