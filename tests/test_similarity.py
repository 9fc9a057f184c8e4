"""Similarity search: brute-force exactness, IVF recall, near-dup pairs."""

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from aisafetyintervention_literatureextraction_ray.stages.similarity import (
    brute_force_topk,
    embedding_neardup_pairs,
    ivf_topk,
)

DIM = 32
N = 300


def _embeddings():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((N, DIM))
    # plant two near-dup pairs
    X[1] = X[0] + rng.standard_normal(DIM) * 0.01
    X[3] = X[2] + rng.standard_normal(DIM) * 0.01
    return X


@pytest.fixture(scope="module")
def data():
    X = _embeddings()
    df = pd.DataFrame({"vec_id": np.arange(N, dtype=np.int64),
                       "embedding": list(X)})
    return X, rd.from_pandas(df)


def _np_topk(X, Q, k):
    Xn = X / np.linalg.norm(X, axis=1, keepdims=True)
    Qn = Q / np.linalg.norm(Q, axis=1, keepdims=True)
    sims = Qn @ Xn.T
    return [set(np.argsort(-sims[q])[:k]) for q in range(len(Q))]


def test_brute_force_matches_numpy(data):
    X, ds = data
    Q = X[:4]
    out = brute_force_topk(ds, Q, k=7).to_pandas()
    expected = _np_topk(X, Q, 7)
    for q in range(4):
        got = set(out[out.query_id == q]["vec_id"])
        assert got == expected[q]
    # ranks are 1..k and cosine non-increasing within a query
    for q in range(4):
        sub = out[out.query_id == q].sort_values("rank")
        assert list(sub["rank"]) == list(range(1, 8))
        assert (np.diff(sub["cosine"]) <= 1e-12).all()


def test_ivf_recall(data):
    X, ds = data
    Q = X[:4]
    bf = brute_force_topk(ds, Q, k=5).to_pandas()
    # full probe => exact
    ivf_full = ivf_topk(ds, Q, k=5, n_centroids=8, nprobe=8).to_pandas()
    key = ["query_id", "vec_id"]
    assert set(map(tuple, ivf_full[key].itertuples(index=False))) == \
        set(map(tuple, bf[key].itertuples(index=False)))
    # partial probe: reasonable recall on random data
    ivf_p = ivf_topk(ds, Q, k=5, n_centroids=8, nprobe=4).to_pandas()
    inter = set(map(tuple, ivf_p[key].itertuples(index=False))) & \
        set(map(tuple, bf[key].itertuples(index=False)))
    assert len(inter) / len(bf) >= 0.5


def test_embedding_neardup(data):
    _, ds = data
    pairs = embedding_neardup_pairs(ds, cosine_threshold=0.98,
                                    mode="exact").to_pandas()
    got = set(map(tuple, pairs[["id_a", "id_b"]].itertuples(index=False)))
    assert (0, 1) in got and (2, 3) in got
    assert len(got) == 2  # random vectors in 32-d don't hit 0.98


def test_embedding_neardup_lsh_finds_planted(data):
    _, ds = data
    pairs = embedding_neardup_pairs(ds, cosine_threshold=0.98, mode="lsh",
                                    n_bands=8, planes_per_band=6).to_pandas()
    got = set(map(tuple, pairs[["id_a", "id_b"]].itertuples(index=False)))
    assert (0, 1) in got and (2, 3) in got


def test_semantic_dedup_recovers_planted(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from aisafetyintervention_literatureextraction_ray.stages.similarity import (
        semantic_dedup_pairs,
    )

    rng = np.random.default_rng(11)
    X = rng.normal(size=(200, 16))
    ids = np.arange(200, dtype=np.int64)
    # plant: 5 exact copies of vectors 0..4 under ids 1000..1004
    Xa = np.vstack([X, X[:5]])
    ida = np.concatenate([ids, np.arange(1000, 1005, dtype=np.int64)])
    ds = rd.from_arrow(pa.table({
        "vec_id": ida, "embedding": [list(map(float, r)) for r in Xa]}))
    out = semantic_dedup_pairs(ds, cosine_threshold=0.999,
                               n_centroids=4).to_pandas()
    got = set(zip(out["id_a"], out["id_b"]))
    assert {(i, 1000 + i) for i in range(5)} <= got
    assert (out["cos"] >= 0.999).all()


def test_kmeans_fixed_point_blobs():
    """Two separated blobs, k=2: every vector lands with its blob;
    init = the 2 smallest ids (one from each blob here); ids keep
    their input type; k > n and empty input degrade gracefully."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from aisafetyintervention_literatureextraction_ray.stages.similarity import (
        kmeans_fixed_point,
    )

    rng = np.random.default_rng(7)
    a = rng.normal(0.0, 0.02, (20, 4)) + np.array([1.0, 1.0, 0.0, 0.0])
    b = rng.normal(0.0, 0.02, (20, 4)) + np.array([-1.0, -1.0, 0.0, 0.0])
    vecs = np.concatenate([a, b]).astype(np.float32)
    ids = list(range(0, 40, 2))[:20] + list(range(1, 41, 2))[:20]
    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array(ids, pa.int64()),
        "embedding": pa.array(vecs.tolist(), pa.list_(pa.float32()))}
    )).repartition(4)
    out = kmeans_fixed_point(ds, k=2, n_iters=3).to_pandas()
    assert len(out) == 40
    lab = dict(zip(out["vec_id"], out["cluster"]))
    blob_a = {lab[i] for i in ids[:20]}
    blob_b = {lab[i] for i in ids[20:]}
    assert blob_a == {0} and blob_b == {1}  # id 0 is in blob a

    big_k = kmeans_fixed_point(ds, k=100, n_iters=2).to_pandas()
    assert len(big_k) == 40  # k > n: every vector its own centroid

    empty = rd.from_arrow(pa.table({
        "vec_id": pa.array([], pa.int64()),
        "embedding": pa.array([], pa.list_(pa.float32()))}))
    out_e = kmeans_fixed_point(empty, k=3)
    assert out_e.schema().names == ["vec_id", "cluster"]
    assert out_e.count() == 0
