"""ARD source, alias-index linking, extraction cap, quarantine, windows."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data as rd

from aisafetyintervention_literatureextraction_ray.fixtures import make_corpus
from aisafetyintervention_literatureextraction_ray.pipelines import graph_build as gb
from aisafetyintervention_literatureextraction_ray.pipelines.extraction import (
    extract_pipeline,
)
from aisafetyintervention_literatureextraction_ray.schemas import DOCS_SCHEMA
from aisafetyintervention_literatureextraction_ray.sources.ard import (
    read_ard_jsonl,
    write_ard_jsonl,
)
from aisafetyintervention_literatureextraction_ray.stages.extract import (
    TripleExtractor,
    assemble_full_text,
)
from aisafetyintervention_literatureextraction_ray.stages.validate import (
    validate_extractions,
)
from aisafetyintervention_literatureextraction_ray.stages.window import sessionize


def test_ard_jsonl_roundtrip(tmp_path):
    rows = [
        {"title": "Paper A", "authors": ["X", "Y"],
         "date_published": "2023-01-01", "url": "https://arxiv.org/abs/1",
         "abstract": None,
         "text": "first paragraph.\n\nsecond paragraph.\nthird."},
        {"title": "Paper B", "authors": [], "date_published": "unknown",
         "url": "", "abstract": "a", "text": ""},
    ]
    for name in ("a.jsonl", "a.jsonl.gz"):  # gzip-aware (merge.py:11-20)
        path = tmp_path / name
        write_ard_jsonl(rows, str(path))
        out = read_ard_jsonl(str(path)).to_pandas().sort_values("doc_id")
        assert len(out) == 2
        tbl = pa.Table.from_pandas(out.reset_index(drop=True),
                                   schema=DOCS_SCHEMA)
        assert tbl.schema.equals(DOCS_SCHEMA)
        a = out[out.title == "Paper A"].iloc[0]
        spans = list(a["spans"])
        assert [s["text"] for s in spans] == [
            "first paragraph.", "second paragraph.", "third."]
        assert [s["offset"] for s in spans] == [0, 1, 2]
        assert a["doc_id"] == "https_arxiv_org_abs_1"  # slugged url


def test_alias_index_resolves_aliases():
    docs, _ = make_corpus(60)
    extr = extract_pipeline(rd.from_arrow(docs), concurrency=(1, 2))
    nodes = gb.build_nodes(extr).materialize()
    index = gb.build_alias_index(nodes)
    # canonical name -> node id, the min id on a collision
    nmap = {}
    for norm, nid in sorted(nodes.to_pandas()[["name_norm", "node_id"]]
                            .itertuples(index=False)):
        nmap.setdefault(norm, nid)
    # canonical names resolve identically
    for norm, nid in nmap.items():
        assert index[norm] == nid
    # every alias of "rlhf" resolves to the rlhf node
    assert index["reinforcement_learning_from_human_feedback"] == nmap["rlhf"]
    assert index["preference_based_fine_tuning"] == nmap["rlhf"]
    # edges built with alias-form subjects resolve via the index (J5)
    triples = rd.from_pandas(pd.DataFrame({
        "doc_id": ["d1"], "chain_id": [0], "edge_idx": [0],
        "subj": ["Reinforcement Learning from Human Feedback"],
        "pred": ["refined_by"],
        "obj": ["Constitutional AI during RLHF"],  # alias of the intervention
        "description": ["x"], "confidence": [3],
    }))
    edges = gb.build_edges_and_mentions(triples, index)[0].to_pandas()
    assert len(edges) == 1
    assert edges.iloc[0]["src_id"] == nmap["rlhf"]


def test_extraction_cap():
    docs, _ = make_corpus(40)
    ex = TripleExtractor(max_triples_per_doc=1)
    out = ex(assemble_full_text(docs))
    for chains in out.column("logical_chains").to_pylist():
        assert sum(len(c["edges"]) for c in chains) <= 1
    # cap is deterministic: same input -> same kept triple
    out2 = TripleExtractor(max_triples_per_doc=1)(assemble_full_text(docs))
    assert out.equals(out2)


def test_validator_quarantine(tmp_path):
    docs, _ = make_corpus(20)
    extr_tbl = pa.Table.from_pandas(
        extract_pipeline(rd.from_arrow(docs), concurrency=(1, 2)).to_pandas())
    # corrupt one row: out-of-range confidence
    bad = extr_tbl.to_pylist()
    bad[3]["logical_chains"][0]["edges"][0]["edge_confidence"] = 9
    corrupted = pa.Table.from_pylist(bad, schema=extr_tbl.schema)
    qdir = tmp_path / "quarantine"
    good = validate_extractions(rd.from_arrow(corrupted),
                                quarantine_dir=str(qdir)).to_pandas()
    assert len(good) == len(bad) - 1
    qfiles = list(qdir.glob("*.parquet"))
    assert len(qfiles) == 1
    quarantined = pq.read_table(qfiles[0])
    assert quarantined.num_rows == 1
    assert quarantined.column("doc_id").to_pylist() == [bad[3]["doc_id"]]


def test_sessionize_matches_pandas():
    rng = np.random.default_rng(3)
    n = 2000
    df = pd.DataFrame({
        "user_id": rng.integers(0, 50, n),
        "ts": pd.Timestamp("2024-01-01")
        + pd.to_timedelta(rng.integers(0, 86_400, n), unit="s"),
    })
    got = sessionize(rd.from_pandas(df), key_col="user_id", ts_col="ts",
                     gap="30min").to_pandas()
    # reference computation
    exp_rows = []
    for uid, g in df.groupby("user_id"):
        g = g.sort_values("ts")
        sid = (g["ts"].diff() > pd.Timedelta("30min")).cumsum()
        agg = g.groupby(sid)["ts"].agg(["size", "min", "max"]).reset_index(drop=True)
        for i, row in agg.iterrows():
            exp_rows.append((uid, i, row["size"], row["min"], row["max"]))
    exp = pd.DataFrame(exp_rows, columns=["user_id", "session_id", "n_events",
                                          "start_ts", "end_ts"])
    key = ["user_id", "session_id"]
    got = got.sort_values(key).reset_index(drop=True)
    exp = exp.sort_values(key).reset_index(drop=True)
    assert len(got) == len(exp)
    assert (got["n_events"].to_numpy() == exp["n_events"].to_numpy()).all()
    assert (got["start_ts"].to_numpy() == exp["start_ts"].to_numpy()).all()


def test_mentions_provenance():
    from aisafetyintervention_literatureextraction_ray.pipelines.extraction import (
        triples_from_extractions,
    )

    docs, _ = make_corpus(50)
    extr = extract_pipeline(rd.from_arrow(docs), concurrency=(1, 2)).materialize()
    nodes = gb.build_nodes(extr).materialize()
    _, mentions = gb.build_edges_and_mentions(triples_from_extractions(extr),
                                              gb.build_alias_index(nodes))
    mentions = mentions.to_pandas()
    # one row per (doc, node) with pred=mentions; node ids all valid
    assert (mentions["pred"] == "mentions").all()
    assert not mentions.duplicated(subset=["doc_id", "node_id"]).any()
    assert set(mentions["node_id"]) <= set(nodes.to_pandas()["node_id"])
    total_mentions = sum(len(ns) for ns in extr.to_pandas()["nodes"])
    assert len(mentions) == total_mentions


def test_pdf_dir_source_roundtrip(tmp_path):
    """S1/P1: sorted glob + first_n cap; stub extraction recovers the
    planted text; extraction finds the planted fact (extract.py:32-35)."""
    import pyarrow as pa

    from aisafetyintervention_literatureextraction_ray.pipelines.extraction import (
        extract_pipeline,
        triples_from_extractions,
    )
    from aisafetyintervention_literatureextraction_ray.schemas import DOCS_SCHEMA
    from aisafetyintervention_literatureextraction_ray.sources.pdf import (
        read_pdf_dir,
        write_stub_pdf,
    )

    for i in range(5):
        write_stub_pdf(tmp_path / f"paper_{i}.pdf",
                       f"filler text {i}. reward hacking is mitigated by rlhf.")
    ds = read_pdf_dir(tmp_path, first_n=3, concurrency=1)
    t = pa.Table.from_pandas(ds.to_pandas(), schema=DOCS_SCHEMA)
    # the sorted listing + first_n cap is deterministic (which files are
    # selected); row arrival order is not a Dataset contract
    assert sorted(t.column("doc_id").to_pylist()) == [
        "paper_0", "paper_1", "paper_2"]
    spans = t.column("spans").to_pylist()
    assert all(s[0]["kind"] == "text" and s[1]["kind"] == "pdf" for s in spans)
    assert all("reward hacking" in s[0]["text"] for s in spans)
    assert all(s[1]["media_ref"].startswith("file://") for s in spans)

    tri = triples_from_extractions(
        extract_pipeline(read_pdf_dir(tmp_path), concurrency=1)).to_pandas()
    assert len(tri) == 5  # one planted fact per pdf
    assert set(tri["pred"]) == {"mitigated_by"}


def test_sliding_window_matches_reference():
    rng = np.random.default_rng(5)
    n = 500
    df = pd.DataFrame({
        "k": rng.choice(["a", "b"], n),
        "ts": pd.Timestamp("2024-01-01")
        + pd.to_timedelta(rng.integers(0, 36_000, n), unit="s"),
        "v": rng.random(n),
    })
    from aisafetyintervention_literatureextraction_ray.stages.window import (
        sliding_window,
    )

    got = (sliding_window(rd.from_pandas(df), "k", "ts", "v",
                          width=3, freq="h")
           .to_pandas().sort_values(["k", "window_end"]).reset_index(drop=True))
    # reference: each event counted in its own hour-bucket and the next 2
    rows = []
    for w in range(3):
        t = df.copy()
        t["window_end"] = t["ts"].dt.floor("h") + pd.Timedelta(hours=w)
        rows.append(t)
    exp = (pd.concat(rows).groupby(["k", "window_end"])
           .agg(n_events=("v", "size"), sum_value=("v", "sum"))
           .reset_index().sort_values(["k", "window_end"])
           .reset_index(drop=True))
    assert len(got) == len(exp)
    assert (got["n_events"].to_numpy() == exp["n_events"].to_numpy()).all()
    assert np.allclose(got["sum_value"], exp["sum_value"])


def test_asof_join_matches_merge_asof():
    rng = np.random.default_rng(6)
    left = pd.DataFrame({
        "id": np.arange(300),
        "key": rng.integers(0, 10, 300),
        "ts": pd.Timestamp("2024-01-01")
        + pd.to_timedelta(rng.integers(0, 86_400, 300), unit="s"),
    })
    right = pd.DataFrame({
        "key": rng.integers(0, 12, 80),
        "rts": pd.Timestamp("2024-01-01")
        + pd.to_timedelta(rng.integers(0, 86_400, 80), unit="s"),
        "price": rng.random(80).round(3),
    }).drop_duplicates(subset=["key", "rts"])
    from aisafetyintervention_literatureextraction_ray.stages.window import (
        asof_join,
    )

    got = (asof_join(rd.from_pandas(left), rd.from_pandas(right),
                     by_left="key", by_right="key",
                     on_left="ts", on_right="rts",
                     right_value_cols=["price"])
           .to_pandas().sort_values("id").reset_index(drop=True))
    exp = pd.merge_asof(
        left.sort_values("ts"), right.rename(columns={"rts": "ts"})
        .sort_values("ts"), on="ts", by="key",
        direction="backward").sort_values("id").reset_index(drop=True)
    assert len(got) == len(exp)
    assert np.allclose(got["price"].fillna(-1), exp["price"].fillna(-1))


def test_validator_rubric_checks(tmp_path):
    """Rubric-derived assertions (SURVEY §5.4): concepts never carry
    intervention fields; chains are non-empty."""
    from aisafetyintervention_literatureextraction_ray.fixtures import make_corpus
    from aisafetyintervention_literatureextraction_ray.stages.validate import (
        validate_extractions,
    )

    docs, _ = make_corpus(10)
    extr_tbl = pa.Table.from_pandas(
        extract_pipeline(rd.from_arrow(docs), concurrency=(1, 2)).to_pandas())
    rows = extr_tbl.to_pylist()
    rows[0]["nodes"][0]["intervention_maturity"] = 2  # concept w/ maturity
    if rows[0]["nodes"][0]["type"] == "intervention":
        rows[0]["nodes"][0]["type"] = "concept"
    rows[1]["logical_chains"].append({"title": "empty", "edges": []})
    corrupted = pa.Table.from_pylist(rows, schema=extr_tbl.schema)
    good = validate_extractions(rd.from_arrow(corrupted),
                                quarantine_dir=str(tmp_path / "q")).to_pandas()
    assert len(good) == len(rows) - 2
    kept = set(good["doc_id"])
    assert rows[0]["doc_id"] not in kept and rows[1]["doc_id"] not in kept


def test_range_join_agg_counts_and_exact_cents():
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from aisafetyintervention_literatureextraction_ray.stages.window import (
        range_join_agg,
    )

    left = rd.from_pandas(pd.DataFrame({
        "event_id": [1, 2, 3, 4],
        "user_id": [10, 10, 20, 30],
        "ts": pd.to_datetime(["2024-01-10", "2024-01-20",
                              "2024-01-10", "2024-01-10"]),
    }))
    right = rd.from_pandas(pd.DataFrame({
        "o_custkey": [10, 10, 10, 20],
        "o_orderdate": pd.to_datetime(["2024-01-05", "2024-01-09",
                                       "2024-01-19", "2024-01-03"]),
        "o_totalprice": [10.01, 20.02, 40.04, 5.55],
    }))
    out = range_join_agg(left, right, by_left="user_id",
                         by_right="o_custkey", on_left="ts",
                         on_right="o_orderdate", value_col="o_totalprice",
                         window="7D").to_pandas().sort_values("event_id")
    # event 1 (user 10 @ 01-10): orders 01-05 and 01-09 in (01-03, 01-10]
    # event 2 (user 10 @ 01-20): order 01-19 only
    # event 3 (user 20 @ 01-10): order 01-03 is outside the 7-day window
    # event 4 (user 30): no orders for that user at all
    assert out["n_in_window"].tolist() == [2, 1, 0, 0]
    assert out["sum_cents_in_window"].tolist() == [3003, 4004, 0, 0]


def test_grouped_topk_and_quantiles():
    import pandas as pd
    import ray.data as rd

    from aisafetyintervention_literatureextraction_ray.functions.agg import (
        grouped_quantiles,
        grouped_topk,
    )

    df = pd.DataFrame({
        "g": ["a"] * 5 + ["b"] * 3,
        "id": [1, 2, 3, 4, 5, 6, 7, 8],
        "v": [10, 50, 30, 50, 20, 7, 9, 8],
    })
    ds = rd.from_pandas(df)
    top = grouped_topk(ds, ["g"], "v", 2, ascending=False,
                       tiebreak="id").to_pandas()
    top = top.sort_values(["g", "rank"]).reset_index(drop=True)
    # ties on v=50 break on the id tiebreak (2 before 4)
    assert top[["g", "id", "rank"]].to_numpy().tolist() == [
        ["a", 2, 1], ["a", 4, 2], ["b", 7, 1], ["b", 8, 2]]

    q = grouped_quantiles(ds, ["g"], "v", [0.5, 0.9]).to_pandas()
    q = q.sort_values("g").reset_index(drop=True)
    # lower-index definition: sorted(a)=[10,20,30,50,50] -> q50 idx 2,
    # q90 idx floor(3.6)=3; sorted(b)=[7,8,9] -> q50 idx 1, q90 idx 1
    assert q["q50"].tolist() == [30, 8]
    assert q["q90"].tolist() == [50, 8]
    assert q["n"].tolist() == [5, 3]


def test_salted_topk_matches_unsalted_and_bounds_hot_keys():
    """North-rule skew mitigation: a head key holding ~90% of rows must
    (a) produce the identical top-k as the unsalted path and (b) reach
    the final exchange with at most k * num_salts rows."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from aisafetyintervention_literatureextraction_ray.functions.agg import (
        grouped_topk,
        salted_prefilter,
    )

    rng = np.random.default_rng(7)
    n = 4000
    df = pd.DataFrame({
        # planted Zipf head: 'rlhf' owns 90% of the rows
        "entity": np.where(rng.random(n) < 0.9, "rlhf",
                           rng.choice(["sft", "dpo", "cai"], n)),
        "id": np.arange(n),
        "score": rng.integers(0, 10**6, n),
    })
    ds = rd.from_pandas(df).repartition(8)

    plain = grouped_topk(ds, ["entity"], "score", 5, ascending=False,
                         tiebreak="id").to_pandas()
    salted = grouped_topk(ds, ["entity"], "score", 5, ascending=False,
                          tiebreak="id", num_salts=16).to_pandas()
    cols = ["entity", "id", "score", "rank"]
    lhs = plain[cols].sort_values(["entity", "rank"]).reset_index(drop=True)
    rhs = salted[cols].sort_values(["entity", "rank"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(lhs, rhs)

    # the pre-stage bound: every key's surviving row count <= k * salts
    pruned = salted_prefilter(ds, ["entity"], "score", 5, ascending=False,
                              tiebreak="id", num_salts=16).to_pandas()
    per_key = pruned.groupby("entity").size()
    assert per_key["rlhf"] <= 5 * 16
    assert (per_key <= 5 * 16).all()
    # and it is a strict prune on the hot key (3600 rows -> <= 80)
    assert per_key["rlhf"] < (df["entity"] == "rlhf").sum()


def test_stratified_sample_deterministic_and_unbiased():
    import hashlib

    import pandas as pd
    import ray.data as rd

    from aisafetyintervention_literatureextraction_ray.functions.sample import (
        stratified_sample,
    )

    df = pd.DataFrame({"id": range(4000),
                       "g": ["a" if i % 2 else "b" for i in range(4000)]})
    ds = rd.from_pandas(df)
    s1 = stratified_sample(ds, "id").to_pandas().sort_values("id")
    s2 = stratified_sample(ds, "id").to_pandas().sort_values("id")
    assert s1["id"].tolist() == s2["id"].tolist()      # pure function of id
    # keep-rate ~ 0x3000/0x10000 = 18.75% overall AND per stratum
    for frame, n in ((s1, 4000),
                     (s1[s1.g == "a"], 2000), (s1[s1.g == "b"], 2000)):
        assert 0.14 < len(frame) / n < 0.24
    # membership matches the documented predicate exactly
    exp = [i for i in df["id"]
           if hashlib.md5(str(i).encode()).hexdigest()[:4] <= "2fff"]
    assert s1["id"].tolist() == exp


def test_asof_right_reduce_matches_prereduced():
    import pandas as pd
    import ray.data as rd

    from aisafetyintervention_literatureextraction_ray.stages.window import (
        asof_join,
    )

    left = rd.from_pandas(pd.DataFrame({
        "k": [1, 1, 2], "ts": pd.to_datetime(
            ["2024-01-05", "2024-01-10", "2024-01-05"]),
    }))
    # duplicate (key, ts) rows on the right: reduce must pick the max
    right_df = pd.DataFrame({
        "rk": [1, 1, 1, 2],
        "rts": pd.to_datetime(["2024-01-02", "2024-01-02",
                               "2024-01-08", "2024-01-06"]),
        "v": [5.0, 9.0, 3.0, 7.0],
    })
    got = asof_join(left, rd.from_pandas(right_df), by_left="k",
                    by_right="rk", on_left="ts", on_right="rts",
                    right_value_cols=["v"],
                    right_reduce={"v": "max"}).to_pandas()
    got = got.sort_values(["k", "ts"]).reset_index(drop=True)
    # k=1 @01-05 -> max(5, 9)=9; k=1 @01-10 -> 3 (01-08 row);
    # k=2 @01-05 -> no order at-or-before -> null
    assert got["v"].tolist()[0] == 9.0
    assert got["v"].tolist()[1] == 3.0
    assert pd.isna(got["v"].tolist()[2])


def test_grouped_running_matches_pandas_window():
    from aisafetyintervention_literatureextraction_ray.functions.agg import (
        grouped_running,
    )

    df = pd.DataFrame({
        "k": [1, 1, 1, 2, 2, 3],
        "d": [3, 1, 2, 5, 4, 9],
        "id": [10, 11, 12, 13, 14, 15],
        "v": [100, 10, 20, 7, 5, 1],
    })
    got = grouped_running(rd.from_pandas(df), ["k"], ["d", "id"],
                          cum_cols=["v"], lag_cols=["v"], seq_col="seq",
                          lag_fill=-1).to_pandas()
    got = got.sort_values(["k", "d"]).reset_index(drop=True)
    # k=1 ordered by d: v = 10(d1), 20(d2), 100(d3)
    assert got.loc[got["k"] == 1, "v_running"].tolist() == [10, 30, 130]
    assert got.loc[got["k"] == 1, "v_prev"].tolist() == [-1, 10, 20]
    assert got.loc[got["k"] == 1, "seq"].tolist() == [1, 2, 3]
    assert got.loc[got["k"] == 2, "v_running"].tolist() == [5, 12]
    assert got.loc[got["k"] == 3, "seq"].tolist() == [1]
    # lag_fill keeps the column integer through the exchange
    assert got["v_prev"].dtype == np.int64


def test_pivot_counts_zero_fill_and_drop():
    from aisafetyintervention_literatureextraction_ray.functions.agg import (
        pivot_counts,
    )

    df = pd.DataFrame({
        "g": ["a", "a", "a", "b", "b"],
        "lab": ["x", "x", "y", "y", "zzz"],  # zzz not in values -> dropped
    })
    got = (pivot_counts(rd.from_pandas(df), ["g"], "lab", ["x", "y", "w"])
           .to_pandas().sort_values("g").reset_index(drop=True))
    assert got.columns.tolist() == ["g", "x", "y", "w"]
    assert got.loc[0].tolist() == ["a", 2, 1, 0]
    assert got.loc[1].tolist() == ["b", 0, 1, 0]


def test_hll_error_bound_and_merge():
    from aisafetyintervention_literatureextraction_ray.functions.sketch import (
        hll_distinct, hll_estimate, hll_merge, hll_partial,
    )

    n = 5000
    vals = np.arange(n, dtype=np.int64) * 131 + 17
    est = hll_estimate(hll_partial(vals))
    assert abs(est - n) / n < 0.05  # p=12 std err ~1.6%

    # merge is exactly the same sketch as a single pass (associative max)
    a, b = vals[:3000], vals[2000:]  # overlapping halves
    assert np.array_equal(hll_partial(vals),
                          hll_merge(hll_partial(a), hll_partial(b)))

    # end-to-end over a Dataset with duplicates across blocks
    df = pd.DataFrame({"u": np.concatenate([vals, vals[:2500]])})
    got = hll_distinct(rd.from_pandas(df), "u", p=12, batch_size=500)
    assert abs(got - n) / n < 0.05


def test_term_count_partial_edge_cases():
    from aisafetyintervention_literatureextraction_ray.functions.text import (
        term_count_partial,
    )

    t = pa.table({"text": ["The cat, the hat!", "dog dog", None, "", "42 ab"]})
    got = (term_count_partial(t).to_pandas()
           .sort_values("term").reset_index(drop=True))
    assert dict(zip(got["term"], got["n"])) == {
        "ab": 1, "cat": 1, "dog": 2, "hat": 1, "the": 2}


def test_bloom_filter_no_false_negatives():
    import numpy as np

    from aisafetyintervention_literatureextraction_ray.functions.sketch import (
        bloom_build, bloom_contains,
    )

    rng = np.random.default_rng(7)
    members = rng.choice(10_000_000, size=5000, replace=False)
    words, m, k = bloom_build(members)
    # zero false negatives — the exactness guarantee the anti-join needs
    assert bloom_contains(words, m, k, members).all()
    # false-positive rate near theory (~1% at 10 bits/key, k=7)
    probe = rng.choice(np.setdiff1d(np.arange(20_000_000), members),
                       size=20000, replace=False)
    fp = bloom_contains(words, m, k, probe).mean()
    assert fp < 0.03
    assert bloom_contains(words, m, k, np.array([], dtype=np.int64)).size == 0


def test_pack_documents_boundary_semantics():
    """A doc straddling a pack boundary belongs to the pack of its
    FIRST token; packs are per-key; blank docs cost 0 tokens."""
    import pandas as pd
    import ray.data as rd

    from aisafetyintervention_literatureextraction_ray.functions.pack import (
        pack_documents,
    )

    df = pd.DataFrame({
        "source": ["a", "a", "a", "b", "b"],
        "doc_id": [1, 2, 3, 1, 2],
        # token counts: 3, 4 (straddles cap=5 at start=3), 2, 0 (blank), 6
        "text": ["w w w", "x x x x", "y y", "   ", "z z z z z z"],
    })
    out = pack_documents(rd.from_pandas(df).repartition(3), 5).to_pandas()
    out = out.sort_values(["source", "doc_id"]).reset_index(drop=True)
    assert out["n_tokens"].tolist() == [3, 4, 2, 0, 6]
    # a/doc2 starts at offset 3 -> pack 0 even though it ends in pack 1;
    # a/doc3 starts at 7 -> pack 1; b restarts at 0
    assert out["pack_id"].tolist() == [0, 0, 1, 0, 0]
    assert out["offset_in_pack"].tolist() == [0, 3, 2, 0, 0]


def test_connected_components_paths_agree(placement):
    """Min-label propagation on both placements (the one task, then the
    bucketed body) on a graph with a 6-node chain (diameter 5 —
    multiple propagation rounds), a clique, a pair, and string ids on a
    second graph."""
    import pandas as pd
    import ray.data as rd

    from aisafetyintervention_literatureextraction_ray.functions.graph import (
        connected_components,
    )

    pairs = pd.DataFrame({
        "id_a": [5, 4, 3, 2, 1, 10, 10, 11, 20],
        "id_b": [6, 5, 4, 3, 2, 11, 12, 12, 21],
    })
    want = {1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1,
            10: 10, 11: 10, 12: 10, 20: 20, 21: 20}
    ds = rd.from_pandas(pairs).repartition(3)
    drv = connected_components(ds).to_pandas()
    assert dict(zip(drv["node_id"], drv["component_id"])) == want

    sp = rd.from_pandas(pd.DataFrame({"id_a": ["b", "c"],
                                      "id_b": ["a", "b"]}))
    out = connected_components(sp).to_pandas()
    assert dict(zip(out["node_id"], out["component_id"])) == {
        "a": "a", "b": "a", "c": "a"}

    # bucketed body: a diameter-3 chain forces multi-round label
    # propagation (kept short — each round is a real shuffle)
    placement(0)
    chain = rd.from_pandas(pd.DataFrame({
        "id_a": [3, 2, 1, 10], "id_b": [4, 3, 2, 11]})).repartition(2)
    dist = connected_components(chain, num_buckets=4).to_pandas()
    assert dict(zip(dist["node_id"], dist["component_id"])) == {
        1: 1, 2: 1, 3: 1, 4: 1, 10: 10, 11: 10}


def test_bm25_topk_ranking_sanity():
    """A doc saturated with the query terms outranks one without; blank
    docs score 0; k caps the output."""
    import pandas as pd
    import ray.data as rd

    from aisafetyintervention_literatureextraction_ray.functions.rank import (
        bm25_topk,
    )

    df = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": ["merge window hash merge", "merge of the sort run",
                 "no relevant terms here", "   "],
    })
    out = bm25_topk(rd.from_pandas(df), ["merge", "window", "hash"],
                    k=3).to_pandas()
    assert out["doc_id"].tolist()[0] == 1
    assert len(out) == 3
    assert out["bm25"].is_monotonic_decreasing
    scores = dict(zip(out["doc_id"], out["bm25"]))
    assert scores[1] > scores[2] > 0.0
    assert scores.get(3, 0.0) == 0.0 or 3 not in scores


def test_exact_dup_pairs_star_and_branches(monkeypatch):
    """Star edges per content group (n-1, hub = min id), no edges for
    unique texts; the semi-join's broadcast and exchange placements
    (forced through ``_BROADCAST_ROWS``) agree."""
    import pandas as pd
    import ray.data as rd

    from aisafetyintervention_literatureextraction_ray.functions import agg
    from aisafetyintervention_literatureextraction_ray.stages.dedup import (
        exact_dup_pairs,
    )

    df = pd.DataFrame({
        "doc_id": [1, 2, 3, 4, 5, 6],
        "text": ["same", "same", "same", "uniq a", "uniq b", "other dup"],
    })
    df = pd.concat([df, pd.DataFrame({"doc_id": [7], "text": ["other dup"]})],
                   ignore_index=True)
    ds = rd.from_pandas(df).repartition(3)
    want = {(1, 2), (1, 3), (6, 7)}
    monkeypatch.setattr(agg, "_BROADCAST_ROWS", 10**9)
    bc = exact_dup_pairs(ds).to_pandas()
    assert set(zip(bc["id_a"], bc["id_b"])) == want
    monkeypatch.setattr(agg, "_BROADCAST_ROWS", -1)
    jn = exact_dup_pairs(ds).to_pandas()
    assert set(zip(jn["id_a"], jn["id_b"])) == want


def test_bpe_token_counts_vs_whitespace():
    """BPE-ish pieces split punctuation/digits off words; whitespace
    runs count as pieces; blank text counts 0 words but its spaces are
    BPE pieces."""
    import pyarrow as pa

    from aisafetyintervention_literatureextraction_ray.functions.text import (
        bpe_token_counts,
        token_counts,
    )

    texts = pa.array(["don't stop", "a1b2", "x  y", ""])
    bpe = bpe_token_counts(texts).to_pylist()
    ws = token_counts(texts).to_pylist()
    # "don't stop" -> don | ' | t | _stop = 4 pieces, 2 words
    # "a1b2" -> a|1|b|2 = 4 pieces, 1 word
    # "x  y" -> x | ' ' (run collapses into ' y'? no: ' ?' prefers
    #   attaching ONE space to y, the extra space is a \s+ run) = 3
    assert bpe == [4, 4, 3, 0]
    assert ws == [2, 1, 2, 0]


def test_empty_edge_cases_no_crash(placement):
    """Review regressions: zero-dup corpora, zero accepted pairs and
    empty corpora must produce typed empty results, not crashes."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from aisafetyintervention_literatureextraction_ray.functions.graph import (
        connected_components,
    )
    from aisafetyintervention_literatureextraction_ray.functions.rank import (
        bm25_topk,
    )
    from aisafetyintervention_literatureextraction_ray.stages.dedup import (
        exact_dup_pairs,
    )

    # clean corpus: no exact dups anywhere (schema checked on the
    # Dataset — Ray's to_pandas drops column names on empty datasets)
    clean = rd.from_pandas(pd.DataFrame({
        "doc_id": [1, 2, 3], "text": ["a", "b", "c"]}))
    out = exact_dup_pairs(clean)
    assert out.count() == 0 and out.schema().names == ["id_a", "id_b"]

    # empty pair set -> typed empty label table on both CC placements
    empty_pairs = rd.from_arrow(pa.table({
        "id_a": pa.array([], type=pa.int64()),
        "id_b": pa.array([], type=pa.int64())}))
    lab = connected_components(empty_pairs)
    assert lab.count() == 0
    assert lab.schema().names == ["node_id", "component_id"]
    placement(0)
    assert connected_components(empty_pairs).count() == 0

    # empty corpus -> empty BM25 top-k; metachar/case-insensitive terms
    empty_docs = rd.from_arrow(pa.table({
        "doc_id": pa.array([], type=pa.int64()),
        "text": pa.array([], type=pa.string())}))
    assert len(bm25_topk(empty_docs, ["merge"]).to_pandas()) == 0
    docs = rd.from_pandas(pd.DataFrame({
        "doc_id": [1, 2], "text": ["the c++ merge path", "nothing here"]}))
    top = bm25_topk(docs, ["C++", "Merge"], k=1).to_pandas()
    assert top["doc_id"].tolist() == [1] and top["bm25"].iloc[0] > 0


def test_salted_topk_requires_tiebreak():
    import pandas as pd
    import pytest
    import ray.data as rd

    from aisafetyintervention_literatureextraction_ray.functions.agg import (
        grouped_topk,
    )

    ds = rd.from_pandas(pd.DataFrame({"g": ["a"], "v": [1], "id": [1]}))
    with pytest.raises(ValueError, match="tiebreak"):
        grouped_topk(ds, ["g"], "v", 1, num_salts=4)


def test_histogram_quantile_sketch_error_bound():
    """Estimate within one bin width of the exact lower-index quantile;
    empty input returns NaNs with n=0."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from aisafetyintervention_literatureextraction_ray.functions.sketch import (
        histogram_quantiles,
    )

    rng = np.random.default_rng(11)
    vals = rng.lognormal(3.0, 1.0, 20_000)
    ds = rd.from_pandas(pd.DataFrame({"v": vals})).repartition(8)
    est = histogram_quantiles(ds, "v", [0.5, 0.9, 0.99], bins=512)
    width = (est["hi"] - est["lo"]) / 512
    s = np.sort(vals)
    for q in (0.5, 0.9, 0.99):
        exact = s[int(np.floor((len(s) - 1) * q))]
        key = f"q{int(q * 100):02d}"
        assert abs(est[key] - exact) <= width + 1e-9, (q, est[key], exact)

    empty = rd.from_pandas(pd.DataFrame({"v": pd.Series([], dtype=float)}))
    e = histogram_quantiles(empty, "v", [0.5])
    assert e["n"] == 0 and np.isnan(e["q50"])


def test_grouped_histogram_quantiles_bound_and_exact_degenerate():
    """Per-key estimates within one bin width of exact; a constant-value
    key (width fallback) returns the exact value."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from aisafetyintervention_literatureextraction_ray.functions.sketch import (
        grouped_histogram_quantiles,
    )

    rng = np.random.default_rng(5)
    df = pd.DataFrame({
        "g": ["a"] * 5000 + ["b"] * 3000 + ["c"] * 10,
        "v": np.concatenate([rng.normal(100, 20, 5000),
                             rng.exponential(50, 3000),
                             np.full(10, 7.0)]),
    })
    out = (grouped_histogram_quantiles(
        rd.from_pandas(df).repartition(4), "g", "v", [0.5, 0.9], bins=128)
        .to_pandas().set_index("g"))
    for g in ("a", "b"):
        vals = np.sort(df[df["g"] == g]["v"].to_numpy())
        width = (vals[-1] - vals[0]) / 128
        for q in (0.5, 0.9):
            exact = vals[int(np.floor((len(vals) - 1) * q))]
            est = out.loc[g, f"q{int(q * 100):02d}"]
            assert abs(est - exact) <= width + 1e-9
    # constant key: lo == hi -> estimate is the constant itself
    assert out.loc["c", "q50"] == 7.0 and out.loc["c", "n"] == 10


def test_asof_and_bucketed_join_ids_above_2_53_exact():
    """int64 ids above 2^53 must survive the joins bit-exactly (payloads
    taken by row index, never float64 widening)."""
    import pandas as pd

    from aisafetyintervention_literatureextraction_ray.functions.agg import bucketed_join
    from aisafetyintervention_literatureextraction_ray.stages.window import asof_join

    big = 2**53 + 1  # not representable in float64
    left = rd.from_pandas(pd.DataFrame({
        "event_id": np.array([big, big + 2], dtype=np.int64),
        "user_id": np.array([1, 2], dtype=np.int64),
        "ts": pd.to_datetime(["2020-01-05", "2020-01-06"]),
    }))
    right = rd.from_pandas(pd.DataFrame({
        "o_custkey": np.array([1], dtype=np.int64),
        "o_orderdate": pd.to_datetime(["2020-01-01"]),
        "price": [10.0],
    }))
    out = asof_join(left, right, by_left="user_id", by_right="o_custkey",
                    on_left="ts", on_right="o_orderdate",
                    right_value_cols=["price"]).to_pandas()
    got = set(out["event_id"].astype("int64"))
    assert got == {big, big + 2}  # float64 would collapse big -> 2^53

    nodes = rd.from_pandas(pd.DataFrame({
        "nid": np.array([big, big + 2], dtype=np.int64),
        "payload": np.array([big + 4, big + 6], dtype=np.int64),
    }))
    labels = rd.from_pandas(pd.DataFrame({
        "nid2": np.array([big], dtype=np.int64),
        "lab": np.array([big + 8], dtype=np.int64),
    }))
    j = pa.concat_tables(
        bucketed_join(nodes, labels, left_key="nid", right_key="nid2",
                      right_value_cols=["lab"], how="left")
        .iter_batches(batch_format="pyarrow")).sort_by("nid")
    # the exchange output itself must be exact int64 Arrow — a final
    # .to_pandas() would widen the nullable lab column, but that is
    # pandas' own int64+null semantics, not the engine's
    assert j.column("lab").type == pa.int64()
    assert j.column("nid").to_pylist() == [big, big + 2]
    assert j.column("payload").to_pylist() == [big + 4, big + 6]
    assert j.column("lab").to_pylist() == [big + 8, None]
