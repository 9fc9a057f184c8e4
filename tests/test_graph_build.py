"""Graph materialization: dedup keys, endpoint resolution, idempotency."""

import pyarrow as pa
import pytest
import ray.data as rd

from aisafetyintervention_literatureextraction_ray.fixtures import make_corpus
from aisafetyintervention_literatureextraction_ray.functions.normalize import (
    normalize_name,
)
from aisafetyintervention_literatureextraction_ray.pipelines import graph_build as gb
from aisafetyintervention_literatureextraction_ray.pipelines.extraction import (
    extract_pipeline,
    triples_from_extractions,
)
from aisafetyintervention_literatureextraction_ray.schemas import (
    EDGES_SCHEMA,
    EXTRACTION_SCHEMA,
    NODES_SCHEMA,
)


@pytest.fixture(scope="module")
def built():
    docs, _ = make_corpus(120, seed=42)
    extr_tbl = pa.Table.from_pandas(
        extract_pipeline(rd.from_arrow(docs), concurrency=(1, 2)).to_pandas(),
        schema=EXTRACTION_SCHEMA)
    extr = rd.from_arrow(extr_tbl)
    nodes = gb.build_nodes(extr).to_pandas()
    nmap = gb.build_alias_index(gb.build_nodes(rd.from_arrow(extr_tbl)))
    edges, _ = gb.build_edges_and_mentions(
        triples_from_extractions(rd.from_arrow(extr_tbl)), nmap)
    return extr_tbl, nodes, nmap, edges.to_pandas()


def test_node_pk_unique(built):
    _, nodes, _, _ = built
    assert not nodes.duplicated(subset=["type", "name_norm"]).any()
    assert not nodes.duplicated(subset=["node_id"]).any()
    assert pa.Table.from_pandas(nodes, schema=NODES_SCHEMA).schema.equals(NODES_SCHEMA)


def test_edge_pk_unique_and_resolved(built):
    _, nodes, _, edges = built
    assert not edges.duplicated(subset=["src_id", "pred", "dst_id"]).any()
    node_ids = set(nodes["node_id"])
    assert set(edges["src_id"]) <= node_ids
    assert set(edges["dst_id"]) <= node_ids
    assert pa.Table.from_pandas(edges, schema=EDGES_SCHEMA).schema.equals(EDGES_SCHEMA)


def test_normalization_key():
    assert normalize_name("Reinforcement  Learning from Human-Feedback!") == \
        "reinforcement_learning_from_human_feedback"
    assert normalize_name("RLHF") == "rlhf"


def test_idempotent_rebuild(built):
    """Re-running the build over the same extractions yields the identical
    graph (MERGE re-run safety, db.py:36,42,51)."""
    extr_tbl, nodes, nmap, edges = built
    nodes2 = gb.build_nodes(rd.from_arrow(extr_tbl)).to_pandas()
    a = nodes.sort_values("node_id").reset_index(drop=True)
    b = nodes2.sort_values("node_id").reset_index(drop=True)
    assert a.drop(columns="aliases").equals(b.drop(columns="aliases"))
    assert all(list(x) == list(y) for x, y in zip(a["aliases"], b["aliases"]))
    edges2 = gb.build_edges_and_mentions(
        triples_from_extractions(rd.from_arrow(extr_tbl)), nmap)[0].to_pandas()
    key = ["src_id", "pred", "dst_id"]
    assert edges.sort_values(key).reset_index(drop=True).equals(
        edges2.sort_values(key).reset_index(drop=True))


def test_provenance_counts(built):
    extr_tbl, nodes, _, edges = built
    # total node provenance = number of (doc, node) mentions
    mentions = sum(len(ns) for ns in extr_tbl.column("nodes").to_pylist())
    assert nodes["n_provenance"].sum() == mentions
    assert (edges["n_provenance"] >= 1).all()


def test_papers_distinct(built):
    extr_tbl, _, _, _ = built
    p = gb.papers(rd.from_arrow(extr_tbl)).to_pandas()
    assert sorted(p["doc_id"]) == sorted(extr_tbl.column("doc_id").to_pylist())


def test_build_edges_shuffle_matches_broadcast():
    """J1 scale path: the bucketed placement (partitioned joins on the
    normalized name, the kernels once per block and once per bucket)
    gives the same edge and mention tables as the kernels run once over
    the whole tables, as the local placement does."""
    import pandas as pd

    docs, _ = make_corpus(60)
    extr_tbl = pa.Table.from_pandas(
        extract_pipeline(rd.from_arrow(docs), concurrency=(1, 2)).to_pandas(),
        schema=EXTRACTION_SCHEMA)
    triples = triples_from_extractions(rd.from_arrow(extr_tbl)).materialize()

    resolved = gb.resolve(
        pa.Table.from_pandas(triples.to_pandas()),
        gb.name_index(gb.reduce_nodes(extr_tbl)))
    local = (gb.reduce_edges(resolved).to_pandas(),
             gb.reduce_mentions(resolved).to_pandas())
    index = gb.build_alias_index(
        gb.build_nodes(rd.from_arrow(extr_tbl)).materialize())
    shuffle = [d.to_pandas()
               for d in gb.build_edges_and_mentions(triples, index)]
    for a, b, key in zip(local, shuffle, (gb.EDGE_KEY, gb.MENTION_KEY)):
        a = a.sort_values(key).reset_index(drop=True)
        b = b.sort_values(key).reset_index(drop=True)
        assert len(a) and list(a.columns) == list(b.columns)
        pd.testing.assert_frame_equal(a, b)


def test_node_reduce_is_order_and_block_free():
    """Mentions of one node key that disagree on description and
    aliases reduce to ONE row holding the column-wise MIN and the sorted
    alias union, whatever the row order and the block boundaries."""
    def doc(i, desc, aliases):
        node = {"name": "Alpha Method", "aliases": aliases,
                "type": "concept", "description": desc,
                "concept_category": "Method",
                "intervention_lifecycle": None,
                "intervention_maturity": None}
        other = dict(node, name="Beta", aliases=[], description="b")
        return {"doc_id": f"d{i}", "nodes": [node, other]}

    rows = [doc(0, "zeta description", ["z alias"]),
            doc(1, "alpha description", ["a alias"]),
            doc(2, "zeta description", ["m alias", "a alias"]),
            doc(3, "alpha description", [])]
    schema = pa.schema([EXTRACTION_SCHEMA.field("doc_id"),
                        EXTRACTION_SCHEMA.field("nodes")])
    want = {"name": "Alpha Method", "description": "alpha description",
            "aliases": ["a alias", "m alias", "z alias"], "n_provenance": 4}
    for order in ([0, 1, 2, 3], [2, 0, 3, 1]):
        tbl = pa.Table.from_pylist([rows[i] for i in order], schema=schema)
        outs = [gb.reduce_nodes(tbl)]
        for cuts in ([4], [1, 1, 1, 1], [1, 3]):
            blocks, at = [], 0
            for n in cuts:
                blocks.append(tbl.slice(at, n))
                at += n
            outs.append(pa.Table.from_pandas(
                gb.build_nodes(rd.from_arrow(blocks)).to_pandas(),
                schema=NODES_SCHEMA))
        for out in outs:
            got = [r for r in out.to_pylist() if r["name"] == "Alpha Method"]
            assert len(got) == 1 and out.num_rows == 2
            assert {k: got[0][k] for k in want} == want


def test_bucketed_join_left_keeps_unmatched():
    import pandas as pd
    import ray.data as rd

    from aisafetyintervention_literatureextraction_ray.functions.agg import (
        bucketed_join,
    )

    left = rd.from_pandas(pd.DataFrame(
        {"k": ["a", "b", "c"], "v": [1, 2, 3]}))
    right = rd.from_pandas(pd.DataFrame(
        {"key": ["a", "c"], "w": [10.0, 30.0]}))
    out = (bucketed_join(left, right, left_key="k", right_key="key",
                         right_value_cols=["w"], how="left")
           .to_pandas().sort_values("k").reset_index(drop=True))
    assert list(out["k"]) == ["a", "b", "c"]
    assert out["w"].tolist()[0] == 10.0 and out["w"].tolist()[2] == 30.0
    assert pd.isna(out["w"].tolist()[1])
    inner = (bucketed_join(left, right, left_key="k", right_key="key",
                           right_value_cols=["w"], how="inner")
             .to_pandas())
    assert set(inner["k"]) == {"a", "c"}


def _join_inputs(case: str):
    """Left/right tables for the ``bucketed_join`` property test: keys
    repeat on both sides, payloads are int64 above 2^53, lists and
    structs; ``case`` picks the key type or the degenerate side."""
    import numpy as np

    rng = np.random.default_rng(sum(map(ord, case)))
    big = 2**53 + 1
    lk = rng.integers(0, 12, 60)
    rk = rng.integers(0, 16, 40)
    if case == "big_ids":
        lk, rk = lk + 2**62, rk + 2**62
    left = pa.table({
        "k": pa.array(lk, pa.int64()),
        "lv": pa.array(big + 2 * np.arange(60), pa.int64()),
        "lst": pa.array([list(range(i % 4)) for i in range(60)],
                        pa.list_(pa.int64())),
        "st": pa.array([{"a": big + i, "b": str(i)} for i in range(60)])})
    right = pa.table({
        "rk": pa.array(rk, pa.int32() if case == "int32_key" else pa.int64()),
        "rv": pa.array(big + 2 * np.arange(40) + 1, pa.int64()),
        "rl": pa.array([[str(j)] * (j % 3) for j in range(40)],
                       pa.list_(pa.string())),
        "rs": pa.array([{"x": j, "y": [j, big]} for j in range(40)])})
    if case == "empty_right":
        right = right.slice(0, 0)
    return left, right


@pytest.mark.parametrize("placement", ["shuffle", "coalesce", "broadcast"])
@pytest.mark.parametrize("how", ["inner", "left"])
@pytest.mark.parametrize("case", ["repeated", "big_ids", "int32_key",
                                  "empty_right", "filtered_left",
                                  "filtered_right"])
def test_bucketed_join_matches_arrow_reference(case, how, placement,
                                               monkeypatch):
    """``bucketed_join`` against a row-by-row reference on the Arrow
    inputs: same rows (repeated keys give every combination, a left
    join keeps unmatched rows with null right values) and exactly the
    inputs' Arrow types -- list, struct and int64 above 2^53 included,
    with a right key of another integer type cast to the left key's.
    ``shuffle`` and ``broadcast`` force the join's two placements
    through ``_BROADCAST_ROWS``; ``coalesce`` runs its kernel on the
    one-bucket exchange."""
    import functools

    from aisafetyintervention_literatureextraction_ray.functions import agg

    left, right = _join_inputs(case)
    cols = ["rv", "rl", "rs"]

    def blocks(t: pa.Table, drop: bool) -> rd.Dataset:
        ds = rd.from_arrow([t.slice(i, 16) for i in range(0, max(
            t.num_rows, 1), 16)])
        if drop:  # every row filtered out; blocks keep their schema
            ds = ds.map_batches(lambda b: b.slice(0, 0),
                                batch_format="pyarrow")
        return ds

    import ray

    lds = blocks(left, case == "filtered_left")
    rds = blocks(right, case == "filtered_right")
    if placement == "coalesce":
        joined = agg.hash_exchange(
            [(lds, ["k"]), (rds, ["rk"])], functools.partial(
                agg._index_join, left_key="k", right_key="rk",
                right_value_cols=cols, how=how), exchange="coalesce")
    else:
        monkeypatch.setattr(agg, "_BROADCAST_ROWS",
                            10**9 if placement == "broadcast" else -1)
        joined = agg.bucketed_join(lds, rds, left_key="k", right_key="rk",
                                   right_value_cols=cols, how=how)
    out = pa.concat_tables(ray.get(joined.to_arrow_refs()))

    lrows = [] if case == "filtered_left" else left.to_pylist()
    rrows = [] if case == "filtered_right" else right.to_pylist()
    want = []
    for lr in lrows:
        hits = [rr for rr in rrows if rr["rk"] == lr["k"]]
        for rr in hits or ([{c: None for c in cols}] if how == "left"
                           else []):
            want.append({**lr, **{c: rr[c] for c in cols}})

    def canon(rows):
        return sorted(repr(sorted(r.items())) for r in rows)

    assert canon(out.to_pylist()) == canon(want)
    assert out.schema == pa.schema(list(left.schema)
                                   + [right.schema.field(c) for c in cols])


def test_broadcast_join_no_driver_gather(monkeypatch):
    """The broadcast placement joins each left block against the right
    blocks by reference in Ray tasks: no table reaches the driver
    through ``ray.get`` and nothing is ``ray.put``."""
    import pandas as pd
    import ray

    from aisafetyintervention_literatureextraction_ray.functions import agg

    left, right = _join_inputs("repeated")
    lds = rd.from_arrow([left.slice(i, 16) for i in range(0, 60, 16)])
    rds = rd.from_arrow([right.slice(i, 16) for i in range(0, 40, 16)])
    want = agg._index_join(left, right, left_key="k", right_key="rk",
                           right_value_cols=["rv"]).num_rows
    gathered, puts = [], []
    real_get, real_put = ray.get, ray.put

    def get(refs, *a, **kw):
        out = real_get(refs, *a, **kw)
        gathered.extend(x for x in (out if isinstance(out, list) else [out])
                        if isinstance(x, (pa.Table, pd.DataFrame)))
        return out

    def put(value, *a, **kw):
        puts.append(type(value))
        return real_put(value, *a, **kw)

    monkeypatch.setattr(agg, "_BROADCAST_ROWS", 10**9)
    monkeypatch.setattr(ray, "get", get)
    monkeypatch.setattr(ray, "put", put)
    refs = agg.bucketed_join(lds, rds, left_key="k", right_key="rk",
                             right_value_cols=["rv"]).to_arrow_refs()
    assert not gathered and not puts, (gathered, puts)
    monkeypatch.undo()
    assert len(refs) == 4
    assert sum(t.num_rows for t in ray.get(refs)) == want > 0


def test_incremental_nodes_equals_full_rebuild():
    """Key-scoped incremental maintenance == full rebuild: add docs,
    remove docs, leave an untouched node group, and check row-for-row
    equality including n_provenance changes."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from aisafetyintervention_literatureextraction_ray.pipelines.graph_build import (
        incremental_nodes,
        nodes_from_mentions,
    )

    def m(doc, nid, name, lc=None):
        return {"doc_id": doc, "name": name, "type": "concept",
                "description": f"d-{nid}", "concept_category": "cat",
                "intervention_lifecycle": lc,
                "intervention_maturity": None,
                "name_norm": name.lower(), "node_id": nid}

    old_rows = [
        m("d1", "n1", "Alpha"), m("d1", "n2", "Beta"),
        m("d2", "n2", "Beta"), m("d2", "n3", "Gamma", 3),
        m("d3", "n4", "Delta"),  # untouched by the delta
    ]
    add_rows = [m("d4", "n1", "Alpha"), m("d4", "n5", "Eps")]

    def tbl(rows):
        cols = {k: [r[k] for r in rows] for k in old_rows[0]}
        t = pa.table(cols)
        return t.set_column(
            t.schema.get_field_index("intervention_lifecycle"),
            "intervention_lifecycle",
            t["intervention_lifecycle"].cast(pa.int8())).set_column(
            t.schema.get_field_index("intervention_maturity"),
            "intervention_maturity",
            t["intervention_maturity"].cast(pa.int8()))

    old_m = rd.from_arrow(tbl(old_rows))
    add_m = rd.from_arrow(tbl(add_rows))
    removed = rd.from_arrow(pa.table({"doc_id": ["d2"]}))

    old_nodes = nodes_from_mentions(old_m)
    inc = incremental_nodes(old_nodes, old_m, add_m, removed
                            ).to_pandas().sort_values("node_id")

    new_rows = [r for r in old_rows if r["doc_id"] != "d2"] + add_rows
    full = nodes_from_mentions(rd.from_arrow(tbl(new_rows))
                               ).to_pandas().sort_values("node_id")
    pd.testing.assert_frame_equal(inc.reset_index(drop=True),
                                  full.reset_index(drop=True))
    prov = dict(zip(inc["node_id"], inc["n_provenance"]))
    # n1: d1+d4, n2: d1 only (d2 removed), n3: gone, n4 untouched, n5 new
    assert prov == {"n1": 2, "n2": 1, "n4": 1, "n5": 1}
