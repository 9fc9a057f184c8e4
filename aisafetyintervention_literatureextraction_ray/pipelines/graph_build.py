"""Graph materialization: extractions -> canonical nodes / edges tables.

Replaces the reference's per-row Cypher MERGE upserts into FalkorDB
(``db.py:34-54``: node key ``(label, name)`` at ``db.py:42``, edge key
``(src, type, dst)`` at ``db.py:50-53``) with deterministic
group-by-reduce materialization (SURVEY.md §2.5 A1/A2/A3):

* node dedup  — group by ``(type, name_norm)``; alias set-union,
  provenance count, deterministic-first props.  The shuffle moves only
  per-batch PARTIAL aggregates (one row per key per batch), so head
  entities ("rlhf", "alignment", …) cost one row per block instead of
  one row per mention — the salted/combined two-stage aggregate of
  SURVEY.md §4.2 (A1's reduce is commutative+associative, so this is
  semantics-free).
* edge dedup  — same two-stage pattern on ``(src_id, pred, dst_id)``.
  The reference's ``SET`` is last-writer-wins in file order
  (``db.py:52``); file order is not defined for a parallel engine, so we
  pick the deterministic equivalent: max confidence, lexicographic-first
  description, provenance count.
* endpoint resolution — triples carry node *names* (string FKs,
  ``core.py:18-19``); they are resolved to node_ids with a broadcast
  name_norm -> node_id map (``ray.put`` once, read once per worker
  process by stateless map tasks — SURVEY.md §2.4 J1).  At 10^12-doc
  scale with an unbounded vocabulary the same step becomes a
  hash-shuffle ``Dataset.join`` on name_norm;
  the broadcast path is correct while the canonical-node table fits the
  object store (millions of nodes).

Re-running the whole build is idempotent (a pure function of the
extractions dataset) — the analogue of MERGE re-run safety.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from ..functions.explode import explode_nodes
from ..functions.hashing import stable_id
from ..functions.normalize import normalize_names
from ..functions.worker_state import process_cached, task_concurrency
from ..schemas import EDGES_SCHEMA, NODES_SCHEMA, cast_batch


# ------------------------------------------------------------------ nodes

def _node_partials(batch: pa.Table) -> pd.DataFrame:
    """Per-batch partial combine for the node-dedup aggregate."""
    flat = explode_nodes(batch)
    flat = flat.append_column("name_norm", normalize_names(flat.column("name")))
    df = flat.to_pandas()
    grouped = df.groupby(["type", "name_norm"], sort=False)
    out = grouped.agg(
        name=("name", "first"),
        description=("description", "first"),
        concept_category=("concept_category", "first"),
        intervention_lifecycle=("intervention_lifecycle", "first"),
        intervention_maturity=("intervention_maturity", "first"),
        n_provenance=("doc_id", "nunique"),
    ).reset_index()
    # alias union within the batch (kept as sorted tuple for determinism)
    out["aliases"] = grouped["aliases"].agg(
        lambda lists: sorted({a for lst in lists for a in lst})
    ).to_numpy()
    return out


def _node_final(group: pd.DataFrame) -> pd.DataFrame:
    """Final reduce per (type, name_norm) over partials (assoc+comm)."""
    aliases = sorted({a for lst in group["aliases"] for a in lst})
    first = group.sort_values("name", kind="stable").iloc[0]
    return pd.DataFrame(
        {
            "node_id": [stable_id(first["type"], first["name_norm"])],
            "type": [first["type"]],
            "name_norm": [first["name_norm"]],
            "name": [first["name"]],
            "aliases": [aliases],
            "description": [first["description"]],
            "concept_category": [first["concept_category"]],
            "intervention_lifecycle": [first["intervention_lifecycle"]],
            "intervention_maturity": [first["intervention_maturity"]],
            "n_provenance": [int(group["n_provenance"].sum())],
        }
    )


def build_nodes(extractions: rd.Dataset) -> rd.Dataset:
    """extractions -> canonical nodes table (NODES_SCHEMA).

    Exchange uses the bucketed reduce of ``functions/agg.py`` (coarse
    hash buckets, per-key reduce inside the bucket) instead of Ray's
    per-key sort groupby — same semantics, orders of magnitude faster
    with many distinct nodes.
    """
    from ..functions.agg import bucketed_group_map

    partials = extractions.map_batches(_node_partials, batch_format="pyarrow",
                                       zero_copy_batch=True)
    nodes = bucketed_group_map(partials, ["type", "name_norm"], _node_final)
    return nodes.map_batches(
        lambda b: cast_batch(b, NODES_SCHEMA), batch_format="pyarrow"
    )


# ------------------------------------------------------------------ edges

class _EndpointResolver:
    """Broadcast name_norm -> node_id lookup inside the edge stage (J1).

    The node map ships once via ``ray.put``; map tasks receive its ref
    boxed in ``fn_args`` and fetch it through ``_resolver``, which keeps
    ONE resolver per worker process, keyed on the ref's id: the map is
    deserialized and indexed on the first batch a process sees for that
    build and reused by every later task there, never per batch and
    never across builds.  The lookup itself is a vectorized hash join
    (``pd.Index.get_indexer``); no per-row Python.
    """

    def __init__(self, node_map: dict[str, str]) -> None:
        self.index = pd.Index(list(node_map.keys()))
        self.ids = np.asarray(list(node_map.values()), dtype=object)

    def lookup(self, names: pa.ChunkedArray | pa.Array) -> pa.Array:
        """node_id per surface name; null where the name is unknown."""
        norm = normalize_names(names).to_pandas().to_numpy()
        pos = self.index.get_indexer(norm)
        out = np.where(pos >= 0, self.ids[np.clip(pos, 0, None)], None)
        return pa.array(out, type=pa.string())

    def __call__(self, batch: pa.Table) -> pa.Table:
        t = pa.table({
            "src_id": self.lookup(batch.column("subj")),
            "pred": batch.column("pred"),
            "dst_id": self.lookup(batch.column("obj")),
            "subj": batch.column("subj"),
            "obj": batch.column("obj"),
            "description": batch.column("description"),
            "confidence": batch.column("confidence"),
            "doc_id": batch.column("doc_id"),
        })
        valid = pc.and_(pc.is_valid(t["src_id"]), pc.is_valid(t["dst_id"]))
        return t.filter(valid)

    def mentions(self, batch: pa.Table) -> pa.Table:
        """One ``(doc_id, node_id)`` row per resolved endpoint."""
        parts = []
        for col in ("subj", "obj"):
            t = pa.table({"doc_id": batch.column("doc_id"),
                          "node_id": self.lookup(batch.column(col))})
            parts.append(t.filter(pc.is_valid(t["node_id"])))
        return pa.concat_tables(parts)


def _resolver(boxed_ref: list) -> _EndpointResolver:
    (ref,) = boxed_ref
    return process_cached("node_map", ref.binary(),
                          lambda: _EndpointResolver(ray.get(ref)))


def _resolve_edges(batch: pa.Table, boxed_ref: list) -> pa.Table:
    return _resolver(boxed_ref)(batch)


def _resolve_mentions(batch: pa.Table, boxed_ref: list) -> pa.Table:
    return _resolver(boxed_ref).mentions(batch)


def _resolve(triples: rd.Dataset, fn, node_map: dict[str, str],
             concurrency: int | tuple[int, int]) -> rd.Dataset:
    """Map ``fn`` over ``triples`` as tasks sharing the broadcast map.
    The ref stays boxed so a task deserializes the map only when its
    process has not cached this build's resolver yet."""
    return triples.map_batches(
        fn, fn_args=([ray.put(node_map)],), batch_format="pyarrow",
        concurrency=task_concurrency(concurrency))


def node_id_map(nodes: rd.Dataset) -> dict[str, str]:
    """Collect the (small) canonical node key map for broadcast.

    name_norm collisions across node types resolve to the MIN node_id —
    deterministic regardless of block arrival order, and identical to
    the shuffle path's rank-tag rule (``node_index_dataset``)."""
    pairs: list[tuple[str, str]] = []
    for b in nodes.select_columns(["name_norm", "node_id"]).iter_batches(
            batch_format="pyarrow", batch_size=65536):
        pairs += zip(b.column("name_norm").to_pylist(),
                     b.column("node_id").to_pylist())
    out: dict[str, str] = {}
    for key, nid in sorted(pairs):
        out.setdefault(key, nid)
    return out


def build_alias_index(nodes: rd.Dataset) -> dict[str, str]:
    """J5: shared alias index — normalized surface form -> node_id.

    Generalizes the prompt's alias/canonical_name machinery
    (``prompts.py:94``, ``core.py:7``): every canonical name AND every
    alias resolves to its node.  Canonical names win over aliases on
    collision; remaining collisions resolve to the min node_id
    (deterministic).  Built from the (small, post-dedup) canonical node
    table and broadcast via ``ray.put``; at an unbounded-vocabulary
    scale the same index is a ``flat_map(aliases) -> groupby`` dataset
    joined instead of broadcast (SURVEY.md §2.4 J5).
    """
    tbl = pa.concat_tables(
        nodes.select_columns(["name_norm", "node_id", "aliases"])
        .iter_batches(batch_format="pyarrow", batch_size=65536)
    )
    norms = tbl.column("name_norm").to_pylist()
    ids = tbl.column("node_id").to_pylist()
    index: dict[str, str] = {}
    # canonical names first (min-id deterministic on collisions —
    # identical to the shuffle path's rank-tag min aggregate) ...
    for key, nid in sorted(zip(norms, ids)):
        index.setdefault(key, nid)
    # ... then aliases fill remaining keys (min-id deterministic),
    # normalized in one call over the flattened alias lists
    al = tbl.column("aliases").combine_chunks()
    alias_keys = normalize_names(pc.list_flatten(al)).to_pylist()
    alias_ids = pc.take(tbl.column("node_id"),
                        pc.list_parent_indices(al)).to_pylist()
    for key, nid in sorted(zip(alias_keys, alias_ids)):
        index.setdefault(key, nid)
    return index


def build_edges(triples: rd.Dataset, node_map: dict[str, str],
                *, concurrency: int | tuple[int, int] = (1, 8)) -> rd.Dataset:
    """triples + broadcast node map -> canonical edges table (EDGES_SCHEMA)."""
    from ..functions.agg import hash_aggregate

    partials = _resolve(triples, _resolve_edges, node_map, concurrency)
    # A3 last-wins-determinized reduce, fully Arrow-expressible:
    # min surface forms / description, max confidence, provenance =
    # row count (each (doc, subj, pred, obj) is unique post-extraction).
    edges = hash_aggregate(
        partials, ["src_id", "pred", "dst_id"],
        [("subj", "min"), ("obj", "min"), ("description", "min"),
         ("confidence", "max"), ("doc_id", "count")],
        rename={"subj_min": "subj", "obj_min": "obj",
                "description_min": "description",
                "confidence_max": "confidence",
                "doc_id_count": "n_provenance"},
        # the canonical EDGE key set scales with the corpus — never
        # coalesce it without a measured bound (the input is lazy here)
        exchange="shuffle",
    )
    return edges.map_batches(
        lambda b: cast_batch(b, EDGES_SCHEMA), batch_format="pyarrow"
    )


def node_index_dataset(nodes: rd.Dataset) -> rd.Dataset:
    """The alias index as a DATASET ``(key, node_id)`` — the
    unbounded-vocabulary form of ``build_alias_index``: every canonical
    name and every alias resolves to its node, canonical names win over
    aliases, residual collisions resolve to the min node_id.

    Priority is encoded as a rank prefix on the node id ('0' canonical,
    '1' alias) so one ``min`` aggregate implements the whole rule.
    """
    from ..functions.agg import hash_aggregate

    def _arr(x) -> pa.Array:
        return x.combine_chunks() if isinstance(x, pa.ChunkedArray) else x

    def expand(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"key": pa.array([], pa.string()),
                             "tag": pa.array([], pa.string())})
        al = _arr(t.column("aliases"))
        parent = pc.list_parent_indices(al)
        alias_norm = _arr(normalize_names(al.flatten()))
        alias_ids = _arr(pc.take(t.column("node_id"), parent))
        n_canon, n_alias = t.num_rows, len(alias_ids)
        key = pa.concat_arrays([_arr(t.column("name_norm")), alias_norm])
        ids = pa.concat_arrays([_arr(t.column("node_id")), alias_ids])
        rank = pa.array(["0"] * n_canon + ["1"] * n_alias,
                        type=pa.string())
        tag = pc.binary_join_element_wise(rank, ids, "")
        return pa.table({"key": key, "tag": tag})

    idx = hash_aggregate(
        nodes.select_columns(["name_norm", "node_id", "aliases"])
        .map_batches(expand, batch_format="pyarrow"),
        ["key"], [("tag", "min")], rename={"tag_min": "tag"},
        exchange="shuffle")
    return idx.map_batches(
        lambda t: pa.table({"key": t.column("key"),
                            "node_id": pc.utf8_slice_codeunits(
                                t.column("tag"), 1)}),
        batch_format="pyarrow")


def resolve_endpoints_shuffle(triples: rd.Dataset, nodes: rd.Dataset,
                              *, num_buckets: int | None = None
                              ) -> rd.Dataset:
    """Endpoint resolution as a DISTRIBUTED hash join (J1 scale path).

    The broadcast path (``_EndpointResolver``) is correct while the
    canonical node table fits the object store; at unbounded vocabulary
    the index becomes a dataset (``node_index_dataset``) and resolution
    becomes two partitioned joins on the normalized name, built on
    ``functions/agg.py::bucketed_join``.  Output: one row per resolved
    triple with ``src_id``/``dst_id`` attached (unresolved endpoints
    drop — inner-join semantics, same as the broadcast path's filter).
    """
    from ..functions.agg import bucketed_join

    idx = node_index_dataset(nodes).materialize()

    def add_norms(t: pa.Table) -> pa.Table:
        return (t.append_column("subj_norm",
                                normalize_names(t.column("subj")))
                .append_column("obj_norm", normalize_names(t.column("obj"))))

    t2 = triples.select_columns(
        ["doc_id", "subj", "pred", "obj", "description", "confidence"]
    ).map_batches(add_norms, batch_format="pyarrow")
    src_idx = idx.map_batches(
        lambda t: t.rename_columns(["key", "src_id"]),
        batch_format="pyarrow")
    dst_idx = idx.map_batches(
        lambda t: t.rename_columns(["key", "dst_id"]),
        batch_format="pyarrow")
    s = pa.string()
    t2_schema = pa.schema([
        ("doc_id", s), ("subj", s), ("pred", s), ("obj", s),
        ("description", s), ("confidence", pa.int8()),
        ("subj_norm", s), ("obj_norm", s)])
    j = bucketed_join(t2, src_idx, left_key="subj_norm", right_key="key",
                      right_value_cols=["src_id"], num_buckets=num_buckets,
                      left_schema=t2_schema,
                      right_schema=pa.schema([("key", s), ("src_id", s)]))
    return bucketed_join(
        j, dst_idx, left_key="obj_norm", right_key="key",
        right_value_cols=["dst_id"], num_buckets=num_buckets,
        left_schema=t2_schema.append(pa.field("src_id", s)),
        right_schema=pa.schema([("key", s), ("dst_id", s)]))


def build_edges_shuffle(triples: rd.Dataset, nodes: rd.Dataset,
                        *, num_buckets: int | None = None) -> rd.Dataset:
    """Canonical edges via the fully distributed J1 scale path
    (equivalence-tested against the broadcast ``build_edges``)."""
    from ..functions.agg import hash_aggregate

    edges = hash_aggregate(
        resolve_endpoints_shuffle(triples, nodes, num_buckets=num_buckets),
        ["src_id", "pred", "dst_id"],
        [("subj", "min"), ("obj", "min"), ("description", "min"),
         ("confidence", "max"), ("doc_id", "count")],
        rename={"subj_min": "subj", "obj_min": "obj",
                "description_min": "description",
                "confidence_max": "confidence",
                "doc_id_count": "n_provenance"},
        exchange="shuffle")
    return edges.map_batches(
        lambda b: cast_batch(b, EDGES_SCHEMA), batch_format="pyarrow"
    )


def build_edges_and_mentions_shuffle(triples: rd.Dataset, nodes: rd.Dataset,
                                     *, num_buckets: int | None = None):
    """The shuffle-path twin of ``build_edges_and_mentions``: one
    distributed endpoint-resolution pass (partitioned hash joins), the
    resolved rows pinned once and aggregated into BOTH canonical edges
    and mention provenance.  Chosen automatically by ``run_graph_build``
    when the canonical node table outgrows a broadcast."""
    from ..functions.agg import hash_aggregate

    resolved = resolve_endpoints_shuffle(
        triples, nodes, num_buckets=num_buckets).materialize()

    edges = hash_aggregate(
        resolved, ["src_id", "pred", "dst_id"],
        [("subj", "min"), ("obj", "min"), ("description", "min"),
         ("confidence", "max"), ("doc_id", "count")],
        rename={"subj_min": "subj", "obj_min": "obj",
                "description_min": "description",
                "confidence_max": "confidence",
                "doc_id_count": "n_provenance"},
        exchange="shuffle",
    ).map_batches(lambda b: cast_batch(b, EDGES_SCHEMA),
                  batch_format="pyarrow")

    def endpoints(t: pa.Table) -> pa.Table:
        return pa.concat_tables([
            pa.table({"doc_id": t.column("doc_id"),
                      "node_id": t.column("src_id")}),
            pa.table({"doc_id": t.column("doc_id"),
                      "node_id": t.column("dst_id")}),
        ])

    mentions = hash_aggregate(
        resolved.map_batches(endpoints, batch_format="pyarrow"),
        ["doc_id", "node_id"], [("node_id", "count")],
        rename={"node_id_count": "n_mentions"},
        exchange="shuffle",
    ).add_column("pred", lambda df: "mentions")
    return edges, mentions


def build_edges_and_mentions(triples: rd.Dataset, node_map: dict[str, str],
                             *, concurrency: int | tuple[int, int] = (1, 8)):
    """One endpoint-resolve pass feeding BOTH canonical edges (A3) and
    mentions provenance: the resolved triple rows are pinned once and
    aggregated twice (they are flat and far smaller than extractions)."""
    from ..functions.agg import hash_aggregate

    resolved = _resolve(triples, _resolve_edges, node_map,
                        concurrency).materialize()
    # resolved is materialized, so count() is free metadata: gate the
    # reduce exchange on the MEASURED row bound (edge keys <= resolved
    # rows; mention keys <= 2x — each row contributes two endpoints)
    from ..functions.agg import measured_exchange

    n_resolved = resolved.count()

    edges = hash_aggregate(
        resolved, ["src_id", "pred", "dst_id"],
        [("subj", "min"), ("obj", "min"), ("description", "min"),
         ("confidence", "max"), ("doc_id", "count")],
        rename={"subj_min": "subj", "obj_min": "obj",
                "description_min": "description",
                "confidence_max": "confidence",
                "doc_id_count": "n_provenance"},
        exchange=measured_exchange(n_resolved),
    ).map_batches(lambda b: cast_batch(b, EDGES_SCHEMA),
                  batch_format="pyarrow")

    def endpoints(t: pa.Table) -> pa.Table:
        return pa.concat_tables([
            pa.table({"doc_id": t.column("doc_id"),
                      "node_id": t.column("src_id")}),
            pa.table({"doc_id": t.column("doc_id"),
                      "node_id": t.column("dst_id")}),
        ])

    mentions = hash_aggregate(
        resolved.map_batches(endpoints, batch_format="pyarrow"),
        ["doc_id", "node_id"], [("node_id", "count")],
        rename={"node_id_count": "n_mentions"},
        exchange=measured_exchange(2 * n_resolved),
    ).add_column("pred", lambda df: "mentions")
    return edges, mentions


def build_mentions(triples: rd.Dataset, node_map: dict[str, str]
                   ) -> rd.Dataset:
    """PAPER -[MENTIONS]-> node provenance edges.

    The reference's legacy schema makes the paper the implicit source of
    every extraction (``prompts.py:96``; ingested as paper->node edges
    at ``db.py:50-53``).  The PaperSchema generation drops that, so we
    keep it as a derived provenance edge table (SURVEY.md §1.1.3):
    one row per (doc_id, node_id), pred = "mentions".

    Derived from the FLAT triples table (a node is mentioned by a doc
    iff it appears as an endpoint there — the extractor only declares
    nodes that edges use), so this never re-reads the nested extraction
    columns.
    """
    from ..functions.agg import hash_aggregate

    mentions = _resolve(triples.select_columns(["doc_id", "subj", "obj"]),
                        _resolve_mentions, node_map, (1, 8))
    out = hash_aggregate(mentions, ["doc_id", "node_id"],
                         [("node_id", "count")],
                         rename={"node_id_count": "n_mentions"},
                         # (doc, node) mention keys scale with the
                         # corpus; lazy input, no measured bound
                         exchange="shuffle")
    return out.add_column("pred", lambda df: "mentions")


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
        right_value_cols=["n_provenance"], num_buckets=num_buckets,
        left_schema=pa.schema([
            ("node_id", pa.string()), ("type", pa.string()),
            ("name_norm", pa.string()), ("name", pa.string()),
            ("description", pa.string()),
            ("concept_category", pa.string()),
            ("intervention_lifecycle", pa.int8()),
            ("intervention_maturity", pa.int8())]),
        right_schema=pa.schema([("node_id", pa.string()),
                                ("n_provenance", pa.int64())]))
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
    bucketed skinny exchanges with hoisted schemas.  ``removed_docs``
    is a DATASET of ``(doc_id)`` (never a driver-side set), so delta
    size is unbounded.
    """
    from ..functions.agg import bucketed_join, hash_aggregate

    m_schema = old_mentions.schema()
    m_schema = getattr(m_schema, "base_schema", m_schema)
    from ..functions.agg import pa_type_of
    m_schema = pa.schema([(n, pa_type_of(t)) for n, t in
                          zip(m_schema.names, m_schema.types)])

    def flag_rows(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": t.column("doc_id"),
            "f": pa.array(np.ones(t.num_rows, np.int8))})

    rflag = removed_docs.map_batches(flag_rows, batch_format="pyarrow",
                                     zero_copy_batch=True)
    rflag_schema = pa.schema([("doc_id", pa.string()), ("f", pa.int8())])

    # affected keys: nodes mentioned by a removed doc or by a delta doc
    rem_keys = bucketed_join(
        old_mentions.select_columns(["node_id", "doc_id"]), rflag,
        left_key="doc_id", right_key="doc_id", right_value_cols=["f"],
        num_buckets=num_buckets,
        left_schema=pa.schema([("node_id", pa.string()),
                               ("doc_id", pa.string())]),
        right_schema=rflag_schema,
    ).select_columns(["node_id"])
    k_set = hash_aggregate(
        rem_keys.union(added_mentions.select_columns(["node_id"])),
        ["node_id"], [("node_id", "count")],
        num_buckets=num_buckets, exchange="shuffle",
    ).select_columns(["node_id"]).map_batches(
        lambda t: t.append_column(
            "kf", pa.array(np.ones(t.num_rows, np.int8))),
        batch_format="pyarrow", zero_copy_batch=True).materialize()
    k_schema = pa.schema([("node_id", pa.string()), ("kf", pa.int8())])

    # new-snapshot mention rows: old minus removed docs, plus the delta
    kept = bucketed_join(
        old_mentions, rflag, left_key="doc_id", right_key="doc_id",
        right_value_cols=["f"], how="left", num_buckets=num_buckets,
        left_schema=m_schema, right_schema=rflag_schema,
    ).map_batches(
        lambda t: t.filter(pa.compute.is_null(t["f"])).drop_columns(
            ["f"]),
        batch_format="pyarrow", zero_copy_batch=True)
    scoped = bucketed_join(
        kept.union(added_mentions), k_set, left_key="node_id",
        right_key="node_id", right_value_cols=["kf"],
        num_buckets=num_buckets, left_schema=m_schema,
        right_schema=k_schema,
    ).map_batches(lambda t: t.drop_columns(["kf"]),
                  batch_format="pyarrow", zero_copy_batch=True)
    rebuilt = nodes_from_mentions(scoped, num_buckets=num_buckets)

    untouched = bucketed_join(
        old_nodes, k_set, left_key="node_id", right_key="node_id",
        right_value_cols=["kf"], how="left", num_buckets=num_buckets,
        left_schema=_NODES_FLAT_SCHEMA, right_schema=k_schema,
    ).map_batches(
        lambda t: t.filter(pa.compute.is_null(t["kf"])).drop_columns(
            ["kf"]),
        batch_format="pyarrow", zero_copy_batch=True)
    return untouched.union(rebuilt)
