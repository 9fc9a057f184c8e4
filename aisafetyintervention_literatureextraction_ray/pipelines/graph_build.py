"""Graph materialization: extractions -> canonical nodes / edges / mentions.

Replaces the reference's per-row Cypher MERGE upserts into FalkorDB
(``db.py:34-54``: node key ``(label, name)`` at ``db.py:42``, edge key
``(src, type, dst)`` at ``db.py:50-53``) with deterministic keyed
reduces (SURVEY.md §2.5 A1/A2/A3).  Each step is ONE pure
``pa.Table -> pa.Table`` kernel:

* ``reduce_nodes`` (A1) — group by ``(type, name_norm)``: the
  column-wise MIN of every property, the sorted union of the aliases,
  ``n_provenance`` = distinct contributing docs.
* ``name_index`` (J5) — normalized surface form -> node_id.  Canonical
  names win over aliases; a remaining collision goes to the min
  node_id.
* ``resolve`` (J1) — two joins of the triples' normalized endpoint
  names against the index; a triple with an unknown endpoint drops.
* ``reduce_edges`` (A3) — group by ``(src_id, pred, dst_id)``: min
  surface forms and description, max confidence, summed provenance.
  The reference's ``SET`` is last-writer-wins in file order
  (``db.py:52``); file order is not defined for a parallel engine, so
  this is the deterministic equivalent.
* ``reduce_mentions`` — PAPER -[mentions]-> node provenance, one row
  per ``(doc_id, node_id)``.

Every reduce is associative and idempotent on its own output, so the
same kernel serves as the per-block partial and the per-bucket final
(a hot key costs one row per block in the exchange, SURVEY.md §4.2).

``build_graph`` makes the one placement decision: the measured triple
count against ``functions/agg.py::measured_exchange``'s limit.  At or
below it one Ray task streams the run dir's tables through the whole
chain, chunk by chunk, with no exchange at all.  Above it the bucketed
exchanges of ``functions/agg.py`` call the same kernels per bucket, and
endpoint resolution becomes two partitioned joins against the index
dataset.

Re-running the build is idempotent (a pure function of the extraction
outputs) — the analogue of MERGE re-run safety.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import ray
import ray.data as rd

from ..functions.agg import (
    bucketed_apply,
    bucketed_join,
    measured_exchange,
)
from ..functions.explode import explode_nodes
from ..functions.hashing import stable_id
from ..functions.normalize import normalize_names
from ..schemas import (
    EDGES_SCHEMA,
    MENTIONS_SCHEMA,
    NODES_SCHEMA,
    cast_batch,
)

NODE_KEY = ["type", "name_norm"]
EDGE_KEY = ["src_id", "pred", "dst_id"]
MENTION_KEY = ["doc_id", "node_id"]
_NODE_PROPS = ["name", "description", "concept_category",
               "intervention_lifecycle", "intervention_maturity"]
_EDGE_AGGS = [("subj", "min"), ("obj", "min"), ("description", "min"),
              ("confidence", "max"), ("n_provenance", "sum")]
_TRIPLE_COLS = ["doc_id", "subj", "pred", "obj", "description", "confidence"]
# normalized endpoint name -> the node id column it resolves to
_ENDPOINTS = (("subj_norm", "src_id"), ("obj_norm", "dst_id"))


# ---------------------------------------------------------------- kernels

def _arr(col) -> pa.Array:
    return col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col


def _grouped(t: pa.Table, keys: list[str], aggs: list[tuple]) -> pa.Table:
    """One row per key, sorted by key; aggregates keep their input
    column names."""
    out = t.group_by(keys, use_threads=False).aggregate(aggs)
    names = {f"{a[0]}_{a[1]}": a[0] for a in aggs}
    out = out.rename_columns([names.get(c, c) for c in out.column_names])
    return out.sort_by([(k, "ascending") for k in keys])


def reduce_nodes(t: pa.Table) -> pa.Table:
    """A1: extraction rows ``(doc_id, nodes)`` or node rows -> one
    NODES_SCHEMA row per ``(type, name_norm)``.

    Props are the column-wise MIN (the kg_nodes oracle's rule), so the
    result depends on no row order or block boundary.  A doc is one
    extraction row, so per-block distinct-doc counts sum to the
    distinct count."""
    if "nodes" in t.column_names:
        t = explode_nodes(t)
        t = t.append_column("name_norm", normalize_names(t["name"]))
        prov = ("doc_id", "count_distinct")
    else:
        prov = ("n_provenance", "sum")
    props = _grouped(t, NODE_KEY, [(c, "min") for c in _NODE_PROPS] + [prov])
    # alias union: the distinct (key, alias) pairs in key-then-alias
    # order, cut into one sorted list per props row by their counts
    al = _arr(t["aliases"])
    pairs = (t.select(NODE_KEY).take(pc.list_parent_indices(al))
             .append_column("alias", pc.list_flatten(al)).drop_null()
             .group_by(NODE_KEY + ["alias"], use_threads=False).aggregate([])
             .sort_by([(c, "ascending") for c in NODE_KEY + ["alias"]]))
    counts = props.select(NODE_KEY).join(
        pairs.group_by(NODE_KEY).aggregate([("alias", "count")]), NODE_KEY
    ).sort_by([(k, "ascending") for k in NODE_KEY])
    counts = pc.fill_null(counts["alias_count"], 0).to_numpy()
    aliases = pa.ListArray.from_arrays(
        pa.array(np.concatenate([[0], np.cumsum(counts)]), pa.int32()),
        _arr(pairs["alias"]))
    ids = [stable_id(ty, nn) for ty, nn in
           zip(props["type"].to_pylist(), props["name_norm"].to_pylist())]
    return cast_batch(pa.table({
        "node_id": pa.array(ids, pa.string()),
        **{c: props[c] for c in NODE_KEY + _NODE_PROPS},
        "aliases": aliases,
        "n_provenance": props[prov[0]],
    }), NODES_SCHEMA)


def name_index(t: pa.Table) -> pa.Table:
    """J5: node rows or index rows -> one ``(key, tag)`` row per
    normalized surface form, ``tag`` = rank + node_id with rank "0" for
    a canonical name and "1" for an alias, so the min tag is the rule:
    canonical names first, then the min node_id."""
    if "aliases" in t.column_names:
        al = _arr(t["aliases"])
        ids = _arr(t["node_id"])
        t = pa.table({
            "key": pa.concat_arrays([_arr(t["name_norm"]),
                                     normalize_names(pc.list_flatten(al))]),
            "tag": pa.concat_arrays([
                pc.binary_join_element_wise("0", ids, ""),
                pc.binary_join_element_wise(
                    "1", pc.take(ids, pc.list_parent_indices(al)), "")]),
        })
    return _grouped(t, ["key"], [("tag", "min")])


def _with_norms(t: pa.Table) -> pa.Table:
    return (t.select(_TRIPLE_COLS)
            .append_column("subj_norm", normalize_names(t["subj"]))
            .append_column("obj_norm", normalize_names(t["obj"])))


def _index_side(index: pa.Table, col: str) -> pa.Table:
    return pa.table({"key": index["key"],
                     col: pc.utf8_slice_codeunits(index["tag"], 1)})


def _edge_rows(t: pa.Table) -> pa.Table:
    """Resolved triples -> edge rows of one provenance each (doc_id
    kept for the mentions)."""
    return pa.table({
        **{c: t[c] for c in EDGE_KEY + ["subj", "obj", "description",
                                        "confidence", "doc_id"]},
        "n_provenance": pa.array(np.ones(t.num_rows, np.int64)),
    })


def resolve(triples: pa.Table, index: pa.Table) -> pa.Table:
    """J1: triples -> edge rows with ``src_id``/``dst_id`` from two
    inner joins on the normalized endpoint names."""
    t = _with_norms(triples)
    for key, col in _ENDPOINTS:
        t = t.join(_index_side(index, col), key, right_keys="key",
                   join_type="inner")
    return _edge_rows(t)


def reduce_edges(t: pa.Table) -> pa.Table:
    """A3: edge rows -> one EDGES_SCHEMA row per ``(src_id, pred,
    dst_id)``; also the re-dedup after a canonicalization merge."""
    return cast_batch(_grouped(t, EDGE_KEY, _EDGE_AGGS), EDGES_SCHEMA)


def reduce_mentions(t: pa.Table) -> pa.Table:
    """Edge rows or mention rows -> one MENTIONS_SCHEMA row per
    ``(doc_id, node_id)``, pred = "mentions": the legacy schema's
    implicit paper source (``prompts.py:96``) kept as a derived
    provenance edge.  A doc mentions a node iff the node is an endpoint
    of one of its resolved triples (the extractor declares only nodes
    that edges use)."""
    if "src_id" in t.column_names:
        ones = pa.array(np.ones(t.num_rows, np.int64))
        t = pa.concat_tables([
            pa.table({"doc_id": _arr(t["doc_id"]), "node_id": _arr(t[c]),
                      "n_mentions": ones}) for c in ("src_id", "dst_id")])
    out = _grouped(t, MENTION_KEY, [("n_mentions", "sum")])
    return cast_batch(out.append_column(
        "pred", pa.repeat(pa.scalar("mentions"), out.num_rows)),
        MENTIONS_SCHEMA)


# ------------------------------------------------------ bucketed placement

def _keyed(ds: rd.Dataset, keys: list[str], kernel,
           exchange: str = "shuffle") -> rd.Dataset:
    """``kernel`` once per block (partial), then once per key bucket."""
    return bucketed_apply(ds.map_batches(kernel, batch_format="pyarrow"),
                          keys, kernel, batch_format="pyarrow",
                          exchange=exchange)


def build_nodes(extractions: rd.Dataset) -> rd.Dataset:
    """extractions -> canonical nodes table (NODES_SCHEMA), bucketed."""
    return _keyed(extractions, NODE_KEY, reduce_nodes)


def build_alias_index(nodes: rd.Dataset) -> dict[str, str]:
    """The name index of ``nodes`` as a ``{key: node_id}`` dict."""
    batches = list(nodes.select_columns(["name_norm", "node_id", "aliases"])
                   .iter_batches(batch_format="pyarrow", batch_size=65536))
    if not batches:
        return {}
    idx = _index_side(name_index(pa.concat_tables(batches)), "node_id")
    return dict(zip(idx["key"].to_pylist(), idx["node_id"].to_pylist()))


def _link(triples: rd.Dataset, index: rd.Dataset):
    """Bucketed J1 + A3 + mentions: two partitioned joins against the
    index dataset, then the edge and mention reduces per bucket."""
    t = triples.map_batches(_with_norms, batch_format="pyarrow")
    for key, col in _ENDPOINTS:
        t = bucketed_join(
            t, index.map_batches(_index_side, fn_args=(col,),
                                 batch_format="pyarrow"),
            left_key=key, right_key="key", right_value_cols=[col])
    resolved = t.map_batches(_edge_rows, batch_format="pyarrow").materialize()
    return (_keyed(resolved, EDGE_KEY, reduce_edges),
            _keyed(resolved, MENTION_KEY, reduce_mentions))


def build_edges_and_mentions(triples: rd.Dataset, index: dict[str, str]):
    """triples + a ``{key: node_id}`` name index -> (edges, mentions),
    bucketed."""
    return _link(triples, rd.from_arrow(pa.table({
        "key": pa.array(list(index), pa.string()),
        "tag": pa.array([f"0{v}" for v in index.values()], pa.string())})))


# ------------------------------------------------------------ the one gate

_CHUNK_ROWS = 65536


def _chunks(path: str, columns: list[str]):
    """The parquet dataset at ``path`` as tables of about _CHUNK_ROWS
    rows (small files are merged up to it), ending with the remainder,
    which is typed-empty when nothing is left."""
    ds = pads.dataset(path)
    buf, n = [], 0
    for b in ds.to_batches(columns=columns, batch_size=_CHUNK_ROWS):
        buf.append(b)
        n += b.num_rows
        if n >= _CHUNK_ROWS:
            yield pa.Table.from_batches(buf)
            buf, n = [], 0
    yield pa.Table.from_batches(buf, ds.schema.empty_table()
                                .select(columns).schema)


@ray.remote(num_returns=3)
def _build_local(run_dir: str):
    """The whole chain in one task (not the driver: the tables never
    enter its heap), streamed: each chunk of input is reduced to its
    partial before the next is read, so memory follows the distinct
    keys, not the input rows."""
    nodes = reduce_nodes(pa.concat_tables(
        reduce_nodes(t) for t in
        _chunks(f"{run_dir}/extractions", ["doc_id", "nodes"])))
    index = name_index(nodes)
    edges, mentions = [], []
    for t in _chunks(f"{run_dir}/triples", _TRIPLE_COLS):
        resolved = resolve(t, index)
        edges.append(reduce_edges(resolved))
        mentions.append(reduce_mentions(resolved))
    return (nodes, reduce_edges(pa.concat_tables(edges)),
            reduce_mentions(pa.concat_tables(mentions)))


def build_graph(run_dir: str | Path, *, local_triple_limit: int = 2_000_000):
    """A run dir's ``extractions/`` + ``triples/`` -> ``(nodes, edges,
    mentions, gate)`` datasets.

    The one placement decision: the measured triple count (parquet
    metadata, no scan) against ``local_triple_limit``.  At or below it
    one task streams every kernel over the tables; above it the
    bucketed exchanges run the same kernels per bucket.  ``gate``
    records the measured count, the limit and the chosen exchange,
    which later keyed steps of the same build reuse.

    The default limit is measured, on generated run dirs and a 4-CPU
    local Ray: from 20k to 2M triples the one task took a third or
    less of the bucketed placement's wall time, and at 2M triples its
    peak RSS was about 1 GB.  Larger counts were not measured, so they
    take the bucketed placement."""
    run_dir = str(run_dir)
    n_triples = pads.dataset(f"{run_dir}/triples").count_rows()
    exchange = measured_exchange(n_triples, threshold=local_triple_limit)
    gate = {"triples_in": n_triples, "triple_limit": local_triple_limit,
            "exchange": exchange}
    if exchange == "coalesce":
        refs = _build_local.remote(run_dir)
        return (*(rd.from_arrow_refs([r]) for r in refs), gate)
    nodes = build_nodes(rd.read_parquet(
        f"{run_dir}/extractions", columns=["doc_id", "nodes"])).materialize()
    # materialized: both endpoint joins read it
    index = _keyed(nodes.select_columns(["name_norm", "node_id", "aliases"]),
                   ["key"], name_index).materialize()
    edges, mentions = _link(
        rd.read_parquet(f"{run_dir}/triples", columns=_TRIPLE_COLS), index)
    return nodes, edges, mentions, gate


def papers(extractions: rd.Dataset) -> rd.Dataset:
    """Distinct papers (A2, reference ``db.py:34-36`` PAPER MERGE).

    Implemented as a group-by-first rather than ``Dataset.unique`` (which
    collects to the driver): stays a distributed dataset.
    """
    from ..functions.agg import hash_aggregate

    return hash_aggregate(
        extractions.select_columns(["doc_id"]), ["doc_id"],
        [("doc_id", "count")],
        # one key per PAPER — scales with the corpus
        exchange="shuffle",
    ).select_columns(["doc_id"])


# --------------------------------------------- incremental maintenance

_NODES_FLAT_SCHEMA = pa.schema(
    [f for f in NODES_SCHEMA if f.name != "aliases"])


def nodes_from_mentions(mentions: rd.Dataset, *,
                        num_buckets: int | None = None) -> rd.Dataset:
    """Canonical node rows (NODES_SCHEMA minus aliases) from exploded
    node-mention rows: per (node_id, type, name_norm) the column-wise
    MIN of every property (exactly the kg_nodes oracle reduce) plus
    ``n_provenance = COUNT(DISTINCT doc_id)`` — two combiner-first
    keyed exchanges (props; distinct doc pairs) and one skinny join.
    The reduce is commutative/associative, which is what makes the
    key-scoped incremental rebuild below exact."""
    from ..functions.agg import bucketed_join, hash_aggregate

    props = hash_aggregate(
        mentions.select_columns(
            ["node_id", "type", "name_norm", "name", "description",
             "concept_category", "intervention_lifecycle",
             "intervention_maturity"]),
        ["node_id", "type", "name_norm"],
        [("name", "min"), ("description", "min"),
         ("concept_category", "min"),
         ("intervention_lifecycle", "min"),
         ("intervention_maturity", "min")],
        rename={"name_min": "name", "description_min": "description",
                "concept_category_min": "concept_category",
                "intervention_lifecycle_min": "intervention_lifecycle",
                "intervention_maturity_min": "intervention_maturity"},
        num_buckets=num_buckets, exchange="shuffle")
    prov = hash_aggregate(
        hash_aggregate(
            mentions.select_columns(["node_id", "doc_id"]),
            ["node_id", "doc_id"], [("doc_id", "count")],
            num_buckets=num_buckets, exchange="shuffle",
        ).select_columns(["node_id", "doc_id"]),
        ["node_id"], [("doc_id", "count")],
        rename={"doc_id_count": "n_provenance"},
        num_buckets=num_buckets, exchange="shuffle")
    joined = bucketed_join(
        props, prov, left_key="node_id", right_key="node_id",
        right_value_cols=["n_provenance"], num_buckets=num_buckets)
    return joined.map_batches(
        lambda b: cast_batch(b, _NODES_FLAT_SCHEMA),
        batch_format="pyarrow")


def incremental_nodes(old_nodes: rd.Dataset, old_mentions: rd.Dataset,
                      added_mentions: rd.Dataset,
                      removed_docs: rd.Dataset, *,
                      num_buckets: int | None = None) -> rd.Dataset:
    """Key-scoped incremental maintenance of the canonical node table
    (incremental view maintenance for the KG build): given the
    previous snapshot's node table + mention rows, the NEW mentions of
    added/changed docs, and the removed/changed doc-id set, rebuild
    ONLY the node groups a delta doc touches and carry every other row
    over untouched.  Extraction — the expensive LLM stage — runs only
    on the delta docs; group re-reduction is bounded by the affected
    key set, not the corpus.  Bit-equal to a full rebuild because the
    node reduce is a pure commutative/associative function of its
    group's mention rows (equivalence-tested).

    Scale shape: one inner join marks removed-doc mentions, one keyed
    distinct derives the affected key set K, one left-join anti filter
    drops removed-doc rows, one semi join scopes the re-reduce to K,
    and one left-join anti filter carries unaffected node rows — all
    bucketed skinny exchanges.  ``removed_docs``
    is a DATASET of ``(doc_id)`` (never a driver-side set), so delta
    size is unbounded.
    """
    from ..functions.agg import bucketed_join, hash_aggregate

    def flag_rows(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": t.column("doc_id"),
            "f": pa.array(np.ones(t.num_rows, np.int8))})

    rflag = removed_docs.map_batches(flag_rows, batch_format="pyarrow",
                                     zero_copy_batch=True)

    # affected keys: nodes mentioned by a removed doc or by a delta doc
    rem_keys = bucketed_join(
        old_mentions.select_columns(["node_id", "doc_id"]), rflag,
        left_key="doc_id", right_key="doc_id", right_value_cols=["f"],
        num_buckets=num_buckets,
    ).select_columns(["node_id"])
    k_set = hash_aggregate(
        rem_keys.union(added_mentions.select_columns(["node_id"])),
        ["node_id"], [("node_id", "count")],
        num_buckets=num_buckets, exchange="shuffle",
    ).select_columns(["node_id"]).map_batches(
        lambda t: t.append_column(
            "kf", pa.array(np.ones(t.num_rows, np.int8))),
        batch_format="pyarrow", zero_copy_batch=True).materialize()

    # new-snapshot mention rows: old minus removed docs, plus the delta
    kept = bucketed_join(
        old_mentions, rflag, left_key="doc_id", right_key="doc_id",
        right_value_cols=["f"], how="left", num_buckets=num_buckets,
    ).map_batches(
        lambda t: t.filter(pa.compute.is_null(t["f"])).drop_columns(
            ["f"]),
        batch_format="pyarrow", zero_copy_batch=True)
    scoped = bucketed_join(
        kept.union(added_mentions), k_set, left_key="node_id",
        right_key="node_id", right_value_cols=["kf"],
        num_buckets=num_buckets,
    ).map_batches(lambda t: t.drop_columns(["kf"]),
                  batch_format="pyarrow", zero_copy_batch=True)
    rebuilt = nodes_from_mentions(scoped, num_buckets=num_buckets)

    untouched = bucketed_join(
        old_nodes, k_set, left_key="node_id", right_key="node_id",
        right_value_cols=["kf"], how="left", num_buckets=num_buckets,
    ).map_batches(
        lambda t: t.filter(pa.compute.is_null(t["kf"])).drop_columns(
            ["kf"]),
        batch_format="pyarrow", zero_copy_batch=True)
    return untouched.union(rebuilt)
