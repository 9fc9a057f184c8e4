"""Canonicalization: planted near-dup pairs, union-find closure, LSH vs exact."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd
from hypothesis import given, settings
from hypothesis import strategies as st

from aisafetyintervention_literatureextraction_ray.pipelines import canonicalization
from aisafetyintervention_literatureextraction_ray.pipelines.canonicalization import (
    accept,
    candidate_pairs,
    merge,
)
from aisafetyintervention_literatureextraction_ray.stages.canonicalize import (
    make_pairgen,
    project_node_text,
    union_find,
)
from aisafetyintervention_literatureextraction_ray.stages.encode import (
    encode,
    vectors_to_arrow,
)


def _nodes_df():
    """3 planted paraphrase pairs (FIXTURES.md §6) + unrelated nodes."""
    rows = []

    def node(nid, name, aliases, desc):
        rows.append({"node_id": nid, "type": "concept", "name_norm": name.replace(" ", "_"),
                     "name": name, "aliases": aliases, "description": desc,
                     "concept_category": "Finding",
                     "intervention_lifecycle": None, "intervention_maturity": None,
                     "n_provenance": 1})

    node("n01", "reinforcement learning from human feedback",
         ["rlhf", "preference tuning"],
         "align model behaviour with human preference signals during training")
    node("n02", "rlhf preference tuning",
         ["reinforcement learning from human feedback"],
         "align model behaviour with human preference signals during training")
    node("n03", "deceptive model behaviour",
         ["model deception", "strategic deception"],
         "models induce false beliefs in overseers during evaluation")
    node("n04", "strategic model deception",
         ["deceptive model behaviour", "model deception"],
         "models induce false beliefs in overseers during evaluation")
    node("n05", "gradient noise injection",
         ["noise injected training"],
         "inject gaussian noise into gradients during training")
    node("n06", "noise injected gradient training",
         ["gradient noise injection"],
         "inject gaussian noise into gradients during training")
    # unrelated
    node("n20", "tokenizer vocabulary growth", ["vocab scaling"],
         "vocabulary size scales sublinearly with corpus size")
    node("n21", "benchmark saturation", ["eval ceiling"],
         "static benchmarks stop discriminating between frontier models")
    node("n22", "data curation pipelines", ["corpus filtering"],
         "multi-stage filtering of web-scale corpora before pretraining")
    node("n23", "sparse expert routing", ["mixture of experts"],
         "route tokens to specialized expert subnetworks")
    return pd.DataFrame(rows)


PLANTED = {("n01", "n02"), ("n03", "n04"), ("n05", "n06")}


def accept_pairs(pairs, **kw) -> pd.DataFrame:
    """The accept kernel over a whole candidate-pair dataset."""
    t = pa.Table.from_pandas(pairs.to_pandas(), preserve_index=False)
    return accept(t, **kw).to_pandas()


def _labels(accepted: pd.DataFrame) -> rd.Dataset:
    """Accepted pairs -> the union-find loser labels as a dataset."""
    remap = union_find(list(zip(accepted["id_a"], accepted["id_b"])))
    return rd.from_pandas(pd.DataFrame({
        "node_id": list(remap), "component_id": list(remap.values())}))


def _as_dict(labels) -> dict:
    """A remap dict, or a label dataset as the same dict."""
    if isinstance(labels, dict):
        return labels
    df = labels.to_pandas()
    return dict(zip(df["node_id"], df["component_id"]))


@pytest.fixture(scope="module")
def nodes_ds():
    return rd.from_pandas(_nodes_df())


def test_exact_mode_finds_planted_pairs(nodes_ds):
    pairs = candidate_pairs(nodes_ds, mode="exact", k=5)
    accepted = accept_pairs(pairs, threshold=0.25, top_n=None)
    got = set(zip(accepted["id_a"], accepted["id_b"]))
    assert got == PLANTED


def test_lsh_mode_finds_planted_pairs(nodes_ds):
    pairs = candidate_pairs(nodes_ds, mode="lsh", k=5)
    accepted = accept_pairs(pairs, threshold=0.25, top_n=None)
    got = set(zip(accepted["id_a"], accepted["id_b"]))
    assert got == PLANTED  # high-cosine pairs collide in >=1 band whp


def test_top_n_parity_mode(nodes_ds):
    """Reference parity: fixed top-n accepted pair list (merge.py:92)."""
    pairs = candidate_pairs(nodes_ds, mode="exact", k=5)
    accepted = accept_pairs(pairs, top_n=3)
    assert len(accepted) == 3
    assert set(zip(accepted["id_a"], accepted["id_b"])) == PLANTED
    # ordered by ascending distance like the reference's sorted()[:n]
    assert list(accepted["distance"]) == sorted(accepted["distance"])


def test_union_find_closure_and_determinism():
    remap = union_find([("b", "a"), ("c", "b"), ("e", "d")])
    assert remap["b"] == "a" and remap["c"] == "a" and remap["e"] == "d"
    # order-independent (the reference's sequential merge is not,
    # SURVEY.md §2.7 — closure is the intended semantics)
    remap2 = union_find([("e", "d"), ("c", "b"), ("b", "a")])
    assert remap == remap2


def test_apply_merges(nodes_ds):
    edges = rd.from_pandas(pd.DataFrame({
        "src_id": ["n02", "n20", "n01"],
        "pred": ["causes", "causes", "causes"],
        "dst_id": ["n03", "n04", "n04"],
        "subj": ["x", "x", "x"], "obj": ["y", "y", "y"],
        "description": ["d1", "d2", "d3"],
        "confidence": [2, 3, 4], "n_provenance": [1, 1, 1],
    }))
    accepted = pd.DataFrame({"id_a": ["n01", "n03"], "id_b": ["n02", "n04"],
                             "distance": [0.1, 0.1]})
    nodes2, edges2, _ = merge(_labels(accepted), nodes_ds, edges,
                              exchange="coalesce")
    ndf = nodes2.to_pandas()
    assert "n02" not in set(ndf["node_id"]) and "n04" not in set(ndf["node_id"])
    edf = edges2.to_pandas()
    # n02->n03 and n01->n04 both rewire to n01->n03 and dedupe into one
    # edge with max confidence and summed provenance
    rewired = edf[(edf.src_id == "n01") & (edf.dst_id == "n03")]
    assert len(rewired) == 1
    assert rewired.iloc[0]["confidence"] == 4
    assert rewired.iloc[0]["n_provenance"] == 2
    assert (edf[(edf.src_id == "n20")]["dst_id"] == "n03").all()


def test_encoder_determinism():
    t = pa.table({"text": ["alpha beta gamma", "delta epsilon"]})
    a = encode(t).column("embedding").to_pylist()
    b = encode(t).column("embedding").to_pylist()
    assert a == b
    v = np.array(a[0])
    assert abs(np.linalg.norm(v) - 1.0) < 1e-5


def test_text_projection_skips_empty():
    t = pa.table({
        "name": ["x", "y"],
        "aliases": [["a1", "a2"], []],
        "description": ["desc", ""],
        "concept_category": ["Finding", None],
    })
    out = project_node_text(t).column("text").to_pylist()
    assert out[0] == "name=x; aliases=a1, a2; description=desc; concept_category=Finding"
    assert out[1] == "name=y"


def _edges():
    return rd.from_pandas(pd.DataFrame({
        "src_id": ["n02", "n20"], "pred": ["causes", "causes"],
        "dst_id": ["n03", "n04"],
        "subj": ["x", "x"], "obj": ["y", "y"],
        "description": ["d1", "d2"], "confidence": [2, 3],
        "n_provenance": [1, 1],
    }))


def _canonicalize(nodes_ds, monkeypatch, node_limit):
    """canonicalize() with its measured node gate forced by the limit."""
    monkeypatch.setattr(canonicalization, "_LOCAL_NODE_LIMIT", node_limit)
    return canonicalization.canonicalize(
        nodes_ds, _edges(), mode="exact", k=5, top_n=None, threshold=0.25)


def test_canonicalize_distributed_branch_matches_local(nodes_ds, monkeypatch):
    """A node limit of 0 forces the DISTRIBUTED candidate path (stateless
    tasks, shuffle exchanges); it must produce the same accepted pairs,
    remap and surviving nodes as the one-task local placement."""
    n_l, e_l, acc_l, remap_l = _canonicalize(nodes_ds, monkeypatch, 50_000)
    n_d, e_d, acc_d, remap_d = _canonicalize(nodes_ds, monkeypatch, 0)
    acc_d = acc_d.to_pandas()
    assert remap_l == _as_dict(remap_d)
    assert (set(zip(acc_l["id_a"], acc_l["id_b"]))
            == set(zip(acc_d["id_a"], acc_d["id_b"])) == PLANTED)
    assert set(n_l.to_pandas()["node_id"]) == set(n_d.to_pandas()["node_id"])
    el = e_l.to_pandas().sort_values(["src_id", "pred", "dst_id"])
    ed = e_d.to_pandas().sort_values(["src_id", "pred", "dst_id"])
    assert el[["src_id", "pred", "dst_id", "confidence"]].to_numpy().tolist() \
        == ed[["src_id", "pred", "dst_id", "confidence"]].to_numpy().tolist()


def test_apply_merges_distributed_matches_broadcast(nodes_ds, placement):
    """The bucketed merge (join-based loser drop and rewire, shuffle
    re-reduce) produces the identical node and edge tables as the
    one-task merge on the same distributed connected-components
    labels."""
    from aisafetyintervention_literatureextraction_ray.functions.graph import (
        connected_components,
    )

    edges = rd.from_pandas(pd.DataFrame({
        "src_id": ["n02", "n20", "n01"],
        "pred": ["causes", "causes", "causes"],
        "dst_id": ["n03", "n04", "n04"],
        "subj": ["x", "x", "x"], "obj": ["y", "y", "y"],
        "description": ["d1", "d2", "d3"],
        "confidence": [2, 3, 4], "n_provenance": [1, 1, 1],
    }))
    accepted = pd.DataFrame({"id_a": ["n01", "n03"], "id_b": ["n02", "n04"],
                             "distance": [0.1, 0.1]})
    placement(0)
    labels = connected_components(rd.from_pandas(accepted),
                                  num_buckets=4).materialize()
    nodes_b, edges_b, _ = merge(labels, nodes_ds, edges, exchange="coalesce")
    nodes_d, edges_d, _ = merge(labels, nodes_ds, edges, exchange="shuffle")

    nb = nodes_b.to_pandas().sort_values("node_id").reset_index(drop=True)
    nd = (nodes_d.to_pandas()[nb.columns]
          .sort_values("node_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(nb, nd)

    key = ["src_id", "pred", "dst_id"]
    eb = edges_b.to_pandas().sort_values(key).reset_index(drop=True)
    ed = (edges_d.to_pandas()[eb.columns]
          .sort_values(key).reset_index(drop=True))
    pd.testing.assert_frame_equal(eb, ed)

    lab = labels.to_pandas()
    assert dict(zip(lab["node_id"], lab["component_id"])) == {
        "n01": "n01", "n02": "n01", "n03": "n03", "n04": "n03"}


def test_canonicalize_distributed_closure_end_to_end(nodes_ds, monkeypatch):
    """Above the node limit (forced to 0) the accepted pairs stay a
    dataset, the closure is connected components and the merge is
    join-based; it matches the one-task closure on the same threshold
    run — the fully driver-free canonicalization path."""
    n_l, e_l, acc_l, _ = _canonicalize(nodes_ds, monkeypatch, 50_000)
    n_d, e_d, acc_ds, labels = _canonicalize(nodes_ds, monkeypatch, 0)

    acc_d = acc_ds.to_pandas()
    assert (set(zip(acc_l["id_a"], acc_l["id_b"]))
            == set(zip(acc_d["id_a"], acc_d["id_b"])) == PLANTED)
    assert set(n_l.to_pandas()["node_id"]) == set(n_d.to_pandas()["node_id"])
    key = ["src_id", "pred", "dst_id"]
    el = e_l.to_pandas().sort_values(key).reset_index(drop=True)
    ed = e_d.to_pandas().sort_values(key).reset_index(drop=True)
    assert el[key + ["confidence", "n_provenance"]].to_numpy().tolist() \
        == ed[key + ["confidence", "n_provenance"]].to_numpy().tolist()


def test_canonicalize_auto_closure_measured_gate(nodes_ds, monkeypatch):
    """The MEASURED node count picks the placement: under the limit
    canonicalize returns the local remap/DataFrame shape; with a limit
    of 0 it routes to the distributed closure (dataset accepted pairs +
    CC labels) with identical surviving nodes/edges — no opt-in flag
    anywhere."""
    # small measured count -> the one-task closure (dict remap)
    n_l, e_l, acc_l, remap_l = _canonicalize(nodes_ds, monkeypatch, 50_000)
    assert isinstance(remap_l, dict)
    assert set(zip(acc_l["id_a"], acc_l["id_b"])) == PLANTED

    # limit 0 -> distributed closure (dataset labels), same graph
    n_d, e_d, acc_ds, labels = _canonicalize(nodes_ds, monkeypatch, 0)
    assert not isinstance(labels, dict)
    acc_d = acc_ds.to_pandas()
    assert set(zip(acc_d["id_a"], acc_d["id_b"])) == PLANTED
    assert set(n_l.to_pandas()["node_id"]) == set(n_d.to_pandas()["node_id"])
    key = ["src_id", "pred", "dst_id"]
    el = e_l.to_pandas().sort_values(key).reset_index(drop=True)
    ed = e_d.to_pandas().sort_values(key).reset_index(drop=True)
    assert el[key + ["confidence", "n_provenance"]].to_numpy().tolist() \
        == ed[key + ["confidence", "n_provenance"]].to_numpy().tolist()


def test_canonicalize_nothing_to_merge_keeps_columns(monkeypatch):
    """With no pair under the threshold the local placement still
    returns the typed accepted-pair frame and an empty remap, and the
    graph passes through unchanged."""
    df = _nodes_df()
    nodes = rd.from_pandas(df[df["node_id"] >= "n20"])
    n2, e2, acc, remap = _canonicalize(nodes, monkeypatch, 50_000)
    assert list(acc.columns) == ["id_a", "id_b", "distance"] and acc.empty
    assert remap == {}
    assert n2.count() == 4 and e2.count() == 2


def _pairgen_loop(group: pa.Table, k: int, max_group: int) -> pd.DataFrame:
    """The per-neighbour loop the vectorized pairgen replaced."""
    ids = group.column("node_id").to_numpy(zero_copy_only=False)
    n = group.num_rows
    rows_a, rows_b, dists = [], [], []
    if n >= 2:
        X = np.array(group.column("embedding").to_pylist(), np.float32)
        kk = min(k + 1, n)
        for start in range(0, n, max_group):
            chunk = X[start: start + max_group]
            sims = chunk @ X.T
            idx = np.argpartition(-sims, kk - 1, axis=1)[:, :kk]
            for i in range(chunk.shape[0]):
                gi = start + i
                for j in idx[i]:
                    if j == gi:
                        continue
                    a, b = (gi, j) if ids[gi] < ids[j] else (j, gi)
                    rows_a.append(ids[a])
                    rows_b.append(ids[b])
                    dists.append(1.0 - float(sims[i, j]))
    return pd.DataFrame({"id_a": pd.Series(rows_a, dtype=object),
                         "id_b": pd.Series(rows_b, dtype=object),
                         "distance": np.asarray(dists, dtype=np.float64)})


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 40),
       n_dups=st.integers(0, 20), k=st.sampled_from([0, 1, 5, 40]),
       max_group=st.sampled_from([4, 8192]))
@settings(max_examples=150, deadline=None)
def test_pairgen_matches_loop_reference(seed, n, n_dups, k, max_group):
    """Random unit embeddings with duplicated vectors (exact-tie
    similarities), any k and chunk size: the vectorized pairgen emits
    the loop's frame, row for row."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 8)).astype(np.float32)
    if n > 1:
        X[rng.integers(0, n, n_dups)] = X[n - 1]
    X /= np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1e-9)
    t = pa.table({"node_id": pa.array([f"n{i:02d}" for i in rng.permutation(n)],
                                      pa.string()),
                  "embedding": vectors_to_arrow(X)})
    got = make_pairgen(k=k, max_group=max_group)(t).to_pandas()
    pd.testing.assert_frame_equal(got, _pairgen_loop(t, k, max_group))
