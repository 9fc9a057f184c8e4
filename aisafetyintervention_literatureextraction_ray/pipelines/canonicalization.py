"""Canonicalization pipeline: near-duplicate node merge.

Target shape from SURVEY.md §3.3: ``nodes -> text projection -> encode
-> LSH bands -> per-bucket KNN pairs -> min distance per pair ->
threshold/top-n accept -> closure -> merge``.  Every step is one pure
``pa.Table -> pa.Table`` kernel (``stages/canonicalize.py``,
``stages/encode.py`` and the graph build's reduces), and both
placements run the same kernels:

* The candidate pairs and the closure read only the node table, so the
  measured node count against ``_LOCAL_NODE_LIMIT`` places them.  At or
  below it one Ray task runs encode -> buckets -> pairs -> accept ->
  union-find.  Above it the kernels run as stateless ``map_batches``
  tasks and bucketed exchanges, and the closure is
  ``functions/graph.py::connected_components``.
* The merge touches edges and mentions, which grow with the triples,
  so it takes the graph build's exchange: one task over the tables, or
  bucketed joins and reduces.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from ..functions.agg import bucketed_apply, bucketed_join, measured_exchange
from ..schemas import EDGES_SCHEMA, MENTIONS_SCHEMA, NODES_SCHEMA, cast_batch
from ..stages.canonicalize import (
    constant_bucket,
    lsh_buckets,
    make_pairgen,
    project_node_text,
    union_find,
)
from ..stages.encode import DEFAULT_DIM, encode
from .graph_build import (
    EDGE_KEY,
    MENTION_KEY,
    _grouped,
    _keyed,
    reduce_edges,
    reduce_mentions,
)

# the measured node count at or below which one task runs the pairs and
# the closure: ~50 MB of float32 embeddings at the limit.  Its crossover
# against the bucketed placement is not measured.
_LOCAL_NODE_LIMIT = 50_000
PAIR_KEY = ["id_a", "id_b"]
_LABELS_SCHEMA = pa.schema([("node_id", pa.string()),
                            ("component_id", pa.string())])


# ---------------------------------------------------------------- kernels

def _bucketed(t: pa.Table, *, mode: str, dim: int) -> pa.Table:
    """Node rows -> ``(node_id, embedding, bucket)`` rows: ``"exact"``
    is one bucket (global KNN, reference parity), ``"lsh"`` the bands
    of the banded similarity join (scale)."""
    t = encode(project_node_text(t), dim=dim).select(["node_id", "embedding"])
    return constant_bucket(t) if mode == "exact" else lsh_buckets(t, dim=dim)


def _check_mode(mode: str) -> None:
    if mode not in ("exact", "lsh"):
        raise ValueError(f"unknown mode {mode!r}")


def _min_distance(t: pa.Table) -> pa.Table:
    """The best distance per unordered pair (symmetric hits and pairs
    found in several bands collapse)."""
    return _grouped(t, PAIR_KEY, [("distance", "min")])


def _pairs(t: pa.Table, *, k: int) -> pa.Table:
    """Bucketed rows -> candidate pairs of every bucket in ``t``.  The
    rows of a bucket keep their input order (stable sort), and a
    singleton bucket makes no pair."""
    t = t.take(pc.sort_indices(t, [("bucket", "ascending")]))
    cuts = np.flatnonzero(np.diff(t["bucket"].to_numpy())) + 1
    pairgen = make_pairgen(k=k)
    return _min_distance(pa.concat_tables([pairgen(t.slice(0, 0))] + [
        pairgen(t.slice(lo, hi - lo))
        for lo, hi in zip([0, *cuts], [*cuts, t.num_rows]) if hi - lo >= 2]))


def accept(t: pa.Table, *, top_n: int | None = 30,
           threshold: float | None = None) -> pa.Table:
    """O3: threshold mode (the scale path) or the top-n cut by
    ``(distance, id_a, id_b)`` (reference parity, ``merge.py:92,115``).
    The top-n of per-block top-ns is the global top-n."""
    if threshold is not None:
        return t.filter(pc.less_equal(t["distance"], threshold))
    return t.sort_by([("distance", "ascending"), ("id_a", "ascending"),
                      ("id_b", "ascending")]).slice(0, top_n)


def _losers(labels: pa.Table) -> pa.Table:
    """Closure labels -> the rows of merged-away nodes only."""
    return cast_batch(labels.filter(pc.not_equal(labels["node_id"],
                                                 labels["component_id"])),
                      _LABELS_SCHEMA)


def _component(t: pa.Table):
    comp = t["component_id"]
    if pa.types.is_null(comp.type):  # all-null merge side
        comp = comp.cast(pa.string())
    return comp


def _drop_losers(t: pa.Table) -> pa.Table:
    """Node rows + their ``component_id`` -> the keepers (keeper props
    win, reference ``DELETE a`` at ``db.py:151``)."""
    comp = _component(t)
    return cast_batch(t.filter(pc.or_kleene(
        pc.is_null(comp), pc.equal(comp, t["node_id"]))
    ).drop_columns(["component_id"]), NODES_SCHEMA)


def _relabel(t: pa.Table, col: str) -> pa.Table:
    """Rows + the ``component_id`` of ``col`` -> ``col`` rewired to its
    keeper.  Self-loops from merged endpoints stay (parity with MERGE
    ``(b)-[r2]->(b)``, SURVEY.md §2.4 J4)."""
    comp = _component(t)
    out = t.drop_columns(["component_id"])
    return out.set_column(out.schema.get_field_index(col), col,
                          pc.coalesce(comp, t[col]))


def _keeper(t: pa.Table, col: str, labels: pa.Table) -> pa.Table:
    """The in-task left join: ``t`` + the label of its ``col``."""
    pos = pc.index_in(t[col], value_set=labels["node_id"].combine_chunks())
    return t.append_column("component_id",
                           pc.take(labels["component_id"], pos))


# ------------------------------------------------------- local placement

def _table(refs: list, schema: pa.Schema) -> pa.Table:
    """The blocks behind ``refs`` as one table; ``schema`` types the
    empty case (an empty block may carry no columns at all)."""
    tables = [t for t in ray.get(refs) if t.num_rows]
    return (pa.concat_tables(tables, promote_options="permissive")
            if tables else schema.empty_table())


@ray.remote(num_returns=2)
def _closure_local(node_refs: list, *, mode: str, k: int,
                   top_n: int | None, threshold: float | None, dim: int):
    """Encode -> buckets -> pairs -> accept -> union-find in one task."""
    accepted = accept(_pairs(_bucketed(_table(node_refs, NODES_SCHEMA),
                                       mode=mode, dim=dim), k=k),
                      top_n=top_n, threshold=threshold)
    remap = union_find(list(zip(accepted["id_a"].to_pylist(),
                                accepted["id_b"].to_pylist())))
    return accepted, pa.table({"node_id": list(remap),
                               "component_id": list(remap.values())},
                              schema=_LABELS_SCHEMA)


@ray.remote(num_returns=3)
def _merge_local(labels: list, nodes: list, edges: list, mentions):
    labels = _table(labels, _LABELS_SCHEMA)
    nodes = _drop_losers(_keeper(_table(nodes, NODES_SCHEMA), "node_id",
                                 labels))
    edges = _table(edges, EDGES_SCHEMA)
    for col in ("src_id", "dst_id"):
        edges = _relabel(_keeper(edges, col, labels), col)
    if mentions is not None:
        mentions = reduce_mentions(_relabel(_keeper(
            _table(mentions, MENTIONS_SCHEMA), "node_id", labels),
            "node_id"))
    return nodes, reduce_edges(edges), mentions


# ------------------------------------------------- bucketed placement

def candidate_pairs(nodes: rd.Dataset, *, mode: str = "exact", k: int = 40,
                    dim: int = DEFAULT_DIM) -> rd.Dataset:
    """nodes -> deduped candidate pairs ``(id_a, id_b, distance)`` as
    stateless tasks and bucketed exchanges."""
    _check_mode(mode)
    ds = nodes.map_batches(_bucketed, fn_kwargs={"mode": mode, "dim": dim},
                           batch_format="pyarrow")
    pairs = bucketed_apply(ds, ["bucket"], functools.partial(_pairs, k=k),
                           batch_format="pyarrow")
    return _keyed(pairs, PAIR_KEY, _min_distance)


def _merge_bucketed(labels, nodes, edges, mentions):
    def join(ds: rd.Dataset, col: str, schema: pa.Schema) -> rd.Dataset:
        return bucketed_join(
            ds, labels, left_key=col, right_key="node_id",
            right_value_cols=["component_id"], how="left",
            left_schema=schema, right_schema=_LABELS_SCHEMA)

    def cast(ds: rd.Dataset, schema: pa.Schema) -> rd.Dataset:
        return ds.map_batches(cast_batch, fn_args=(schema,),
                              batch_format="pyarrow")

    nodes = join(cast(nodes, NODES_SCHEMA), "node_id", NODES_SCHEMA
                 ).map_batches(_drop_losers, batch_format="pyarrow")
    edges = cast(edges, EDGES_SCHEMA)
    for col in ("src_id", "dst_id"):
        edges = join(edges, col, EDGES_SCHEMA).map_batches(
            _relabel, fn_args=(col,), batch_format="pyarrow")
    if mentions is not None:
        mentions = _keyed(join(cast(mentions, MENTIONS_SCHEMA), "node_id",
                               MENTIONS_SCHEMA).map_batches(
            _relabel, fn_args=("node_id",), batch_format="pyarrow"),
            MENTION_KEY, reduce_mentions)
    return nodes, _keyed(edges, EDGE_KEY, reduce_edges), mentions


# ------------------------------------------------------------ the one gate

def canonical_labels(nodes: rd.Dataset, *, mode: str = "exact", k: int = 40,
                     top_n: int | None = 30, threshold: float | None = None,
                     dim: int | None = None):
    """nodes -> ``(accepted, labels, gate)``: the accepted pairs, the
    ``(node_id, component_id)`` labels of the merged-away nodes (the
    keeper is the min id of its component) and the gate record.

    The one placement decision: the measured node count against
    ``_LOCAL_NODE_LIMIT``.  At or below it one task computes both
    outputs (no node row reaches the driver); above it the candidate
    pairs are bucketed exchanges and the closure is
    ``connected_components`` with its own measured gate."""
    _check_mode(mode)
    dim = dim or DEFAULT_DIM
    n_nodes = nodes.count()
    exchange = measured_exchange(n_nodes, threshold=_LOCAL_NODE_LIMIT)
    gate = {"canon_nodes_in": n_nodes, "canon_exchange": exchange}
    if exchange == "coalesce":
        refs = _closure_local.remote(nodes.to_arrow_refs(), mode=mode, k=k,
                                     top_n=top_n, threshold=threshold,
                                     dim=dim)
        return (*(rd.from_arrow_refs([r]) for r in refs), gate)
    from ..functions.graph import connected_components

    cut = functools.partial(accept, top_n=top_n, threshold=threshold)
    accepted = candidate_pairs(nodes, mode=mode, k=k, dim=dim).map_batches(
        cut, batch_format="pyarrow", batch_size=None)
    if threshold is None:
        accepted = accepted.repartition(1).map_batches(
            cut, batch_format="pyarrow", batch_size=None)
    accepted = accepted.materialize()
    labels = connected_components(accepted).map_batches(
        _losers, batch_format="pyarrow").materialize()
    return accepted, labels, gate


def merge(labels: rd.Dataset, nodes: rd.Dataset, edges: rd.Dataset,
          mentions: rd.Dataset | None = None, *, exchange: str):
    """J3/J4: apply ``(node_id, component_id)`` labels to the graph.
    Loser nodes drop, edge endpoints and mentions move to their keeper,
    and edges and mentions are re-reduced (``reduce_edges`` /
    ``reduce_mentions``).  ``exchange`` is the graph build's: one task
    at ``"coalesce"``, bucketed joins and reduces at ``"shuffle"``.
    Returns ``(nodes, edges, mentions)``."""
    if not labels.count():
        return nodes, edges, mentions
    if exchange == "shuffle":
        return _merge_bucketed(labels, nodes, edges, mentions)
    n, e, m = _merge_local.remote(
        labels.to_arrow_refs(), nodes.to_arrow_refs(), edges.to_arrow_refs(),
        None if mentions is None else mentions.to_arrow_refs())
    return (rd.from_arrow_refs([n]), rd.from_arrow_refs([e]),
            None if mentions is None else rd.from_arrow_refs([m]))


def canonicalize(nodes: rd.Dataset, edges: rd.Dataset, *,
                 mode: str = "exact", k: int = 40, top_n: int | None = 30,
                 threshold: float | None = None, dim: int | None = None):
    """Full canonicalization (merge.py ``run()`` analogue, merge.py:111-116)
    -> ``(nodes, edges, accepted, remap)``.

    With no graph build around it, the merge's exchange comes from the
    measured edge count.  When the closure ran as the local task (a
    small node table) the accepted pairs come back as a DataFrame and
    ``remap`` as a ``{loser: keeper}`` dict; otherwise both are
    datasets, ``remap`` the loser labels."""
    accepted, labels, gate = canonical_labels(
        nodes, mode=mode, k=k, top_n=top_n, threshold=threshold, dim=dim)
    nodes, edges, _ = merge(labels, nodes, edges,
                            exchange=measured_exchange(edges.count()))
    if gate["canon_exchange"] == "shuffle":
        return nodes, edges, accepted, labels
    # one typed block each (a zero-row Dataset.to_pandas loses columns)
    accepted, labels = (pa.concat_tables(ray.get(ds.to_arrow_refs()))
                        for ds in (accepted, labels))
    return (nodes, edges, accepted.to_pandas(),
            dict(zip(labels["node_id"].to_pylist(),
                     labels["component_id"].to_pylist())))
