"""End-to-end orchestration: extract -> link -> canonicalize -> materialize.

The run directory is a Lance-style layout of partitioned Parquet:

    <out>/extractions/part=K/*.parquet    (resumable, one dir per partition)
    <out>/triples/part=K/*.parquet
    <out>/graph/nodes/*.parquet           (global, rewritten atomically)
    <out>/graph/edges/*.parquet
    <out>/manifest.jsonl                  (lineage + per-partition metrics)

Extraction (the expensive, embarrassingly-parallel stage — per-doc, no
shuffle) is checkpointed per partition; the graph build (three keyed
shuffles, cheap relative to extraction) is recomputed from the
extraction outputs, which keeps it a pure deterministic function of
checkpointed state (re-run => identical graph, the MERGE idempotency
property of ``db.py:36,42,51``).
"""

from __future__ import annotations

import shutil
import time
from collections.abc import Callable
from pathlib import Path

import pyarrow.dataset as pads
import ray
import ray.data as rd

from ..state.lineage import Manifest, atomic_partition_dir, order_free_checksum
from .canonicalization import canonicalize
from .extraction import extract_pipeline, triples_from_extractions
from .graph_build import (
    build_alias_index,
    build_edges_and_mentions,
    build_edges_and_mentions_shuffle,
    build_nodes,
)


def run_partitioned_extraction(
    make_partition: Callable[[int], rd.Dataset],
    num_partitions: int,
    out_dir: str | Path,
    *,
    resume: bool = True,
    concurrency: int | tuple[int, int] | None = None,
    batch_size: int = 256,
    max_inflight: int = 2,
    max_triples_per_doc: int | None = None,
    max_block_mb: int | None = 64,
) -> dict:
    """Run extraction partition-by-partition with lineage checkpoints.

    ``make_partition(pid)`` returns the input Dataset for partition
    ``pid`` (a file shard, an index range, or a hash slice — the caller
    owns the physical partitioning, mirroring how a 100 TB corpus is
    already sharded in storage).  Completed partitions are skipped on
    resume; each partition writes extractions and triples atomically.

    Up to ``max_inflight`` partitions execute concurrently (driver
    threads submitting to the same Ray cluster) — overlapping one
    partition's fixed scheduling latency with another's compute, the
    single-node analogue of submitting one job per shard.
    """
    import threading
    from concurrent.futures import ThreadPoolExecutor

    import contextlib

    @contextlib.contextmanager
    def _block_cap():
        # SURVEY §7.4 "very wide rows": spans lists + chains structs
        # dominate block size; cap target blocks below Ray's 128 MB
        # default so batch x task concurrency fits the worker
        # heap.  DataContext is process-global — restore on exit so the
        # cap never leaks into unrelated Ray Data work.
        if max_block_mb is None:
            yield
            return
        from ray.data import DataContext

        ctx = DataContext.get_current()
        prev = ctx.target_max_block_size
        ctx.target_max_block_size = max_block_mb * 1024 * 1024
        try:
            yield
        finally:
            ctx.target_max_block_size = prev

    from ..stages.dedup import SKETCH_VERSION

    out = Path(out_dir)
    manifest = Manifest(out)
    done = manifest.completed("extract") if resume else {}
    # a resumed partition must carry the CURRENT sketch generation:
    # mixing MinHash signature generations across partitions makes
    # cross-partition near-dup estimates silently ~0 — re-extract any
    # partition recorded under an older (or unrecorded) generation
    done = {pid: row for pid, row in done.items()
            if row.get("sketch_version") == SKETCH_VERSION}
    stats = {"partitions": num_partitions, "skipped": 0, "ran": 0, "rows": 0}
    lock = threading.Lock()
    # Dataset CREATION is serialized (Ray's path resolution lazily
    # imports fsspec submodules, which races across threads); execution
    # (write_parquet below) runs concurrently.
    plan_lock = threading.Lock()

    def run_one(pid: int) -> None:
        t0 = time.time()
        with plan_lock:
            docs = make_partition(pid)
            extr = extract_pipeline(docs, concurrency=concurrency,
                                    batch_size=batch_size,
                                    max_triples_per_doc=max_triples_per_doc)
        # zstd checkpoints: measured 37% smaller than snappy on this
        # payload at no write-CPU cost — checkpoint write bandwidth is
        # the scarce resource at high parallelism (BASELINE.md probes)
        with atomic_partition_dir(out / "extractions", pid) as tmp:
            extr.write_parquet(str(tmp), min_rows_per_file=8192,
                               compression="zstd")
        # triples need only (doc_id, logical_chains): prune at the read
        with plan_lock:
            extr_part = rd.read_parquet(
                str(out / "extractions" / f"part={pid}"),
                columns=["doc_id", "logical_chains"])
            tri = triples_from_extractions(extr_part)
        with atomic_partition_dir(out / "triples", pid) as tmp:
            tri.write_parquet(str(tmp), min_rows_per_file=32768,
                              compression="zstd")
        ids = pads.dataset(out / "extractions" / f"part={pid}").to_table(
            columns=["doc_id"]).column("doc_id").to_pylist()
        with lock:
            manifest.mark("extract", pid, n_rows=len(ids),
                          checksum=order_free_checksum(ids),
                          wall_time_s=time.time() - t0,
                          extra={"sketch_version": SKETCH_VERSION})
            stats["ran"] += 1
            stats["rows"] += len(ids)

    todo = []
    for pid in range(num_partitions):
        if pid in done:
            stats["skipped"] += 1
            stats["rows"] += done[pid]["n_rows"]
        else:
            todo.append(pid)
    if todo:
        from concurrent.futures import as_completed

        with _block_cap(), \
                ThreadPoolExecutor(max_workers=max(1, max_inflight)) as pool:
            futures = [pool.submit(run_one, pid) for pid in todo]
            try:
                for f in as_completed(futures):
                    f.result()  # propagate the first failure
            except BaseException:
                for f2 in futures:
                    f2.cancel()  # fail fast: drop not-yet-started partitions
                raise
    return stats


def _rewire_mentions_labels(nodes, edges, mentions, labels):
    """Mention-provenance rewire for the DATASET-closure path (the
    measured gate chose ``apply_merges_distributed``): a left join
    against the ``(node_id, component_id)`` label table + coalesce +
    keyed re-dedup — the same join-based pattern as the edge rewire,
    no broadcast remap, no driver state.  Returns
    ``(nodes, edges, mentions2, n_merged)``; nodes/edges pass through
    (already rewired by the distributed closure)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..functions.agg import bucketed_join, hash_aggregate

    n_merged = labels.map_batches(
        lambda t: t.filter(pc.not_equal(t["node_id"], t["component_id"])),
        batch_format="pyarrow").count()
    if n_merged == 0:
        return nodes, edges, mentions, 0
    m = mentions.select_columns(["doc_id", "node_id", "n_mentions"])
    joined = bucketed_join(
        m, labels, left_key="node_id", right_key="node_id",
        right_value_cols=["component_id"], how="left",
        # the mention contract is fixed — pass it instead of probing
        # the lazy upstream pipeline for a schema
        left_schema=pa.schema([("doc_id", pa.string()),
                               ("node_id", pa.string()),
                               ("n_mentions", pa.int64())]),
        right_schema=labels.schema())

    def coalesce_node(t: pa.Table) -> pa.Table:
        comp = t["component_id"]
        if pa.types.is_null(comp.type):  # all-null merge side
            comp = comp.cast(t["node_id"].type)
        return pa.table({
            "doc_id": t["doc_id"],
            "node_id": pc.coalesce(comp, t["node_id"]),
            "n_mentions": t["n_mentions"],
        })

    mentions2 = hash_aggregate(
        joined.map_batches(coalesce_node, batch_format="pyarrow"),
        ["doc_id", "node_id"], [("n_mentions", "sum")],
        rename={"n_mentions_sum": "n_mentions"},
        exchange="shuffle",
    ).add_column("pred", lambda df: "mentions")
    return nodes, edges, mentions2, n_merged


def run_graph_build(out_dir: str | Path, *, canonicalize_mode: str | None = None,
                    top_n: int | None = None,
                    threshold: float | None = 0.2,
                    k: int = 40, dim: int | None = None,
                    broadcast_node_limit: int = 2_000_000,
                    canon_driver_threshold: int = 50_000,
                    closure: str = "auto",
                    closure_pair_limit: int = 2_000_000) -> dict:
    """extractions/* -> graph/nodes + graph/edges (+ optional near-dup merge).

    Endpoint resolution picks broadcast vs distributed-shuffle from the
    MEASURED canonical-node count (VERDICT r2 #5): at or below
    ``broadcast_node_limit`` the alias index ships once via ``ray.put``
    (map-side lookup, no shuffle); above it the index becomes a dataset
    and resolution runs as partitioned hash joins
    (``build_edges_and_mentions_shuffle``), since a broadcast dict of
    tens of millions of entries would be re-deserialized per worker and
    strain the object store.
    """
    out = Path(out_dir)
    manifest = Manifest(out)
    t0 = time.time()
    # node dedup needs only (doc_id, nodes) — never re-read the heavy
    # spans/chains columns (prune at the read, SURVEY.md brief).
    extr = rd.read_parquet(str(out / "extractions"),
                           columns=["doc_id", "nodes"])
    triples = rd.read_parquet(str(out / "triples"))

    # the canonical node table is small relative to the corpus and is
    # consumed three times (id map, canonicalization, write) — pin it
    # in the object store instead of recomputing the dedup per consumer.
    nodes = build_nodes(extr).materialize()
    if nodes.count() <= broadcast_node_limit:
        # J5: endpoint resolution goes through the shared alias index,
        # so surface-form variants (aliases) link to their canonical
        # node.
        alias_index = build_alias_index(nodes)
        edges, mentions = build_edges_and_mentions(triples, alias_index)
    else:
        edges, mentions = build_edges_and_mentions_shuffle(triples, nodes)

    n_merged = 0
    if canonicalize_mode:
        # default = threshold mode (the scale path, SURVEY.md §2.6 O3):
        # merge only true near-dups; pass top_n for reference-parity
        # fixed-k accepts.
        canon_kwargs = {"dim": dim} if dim is not None else {}
        nodes, edges, accepted, remap = canonicalize(
            nodes, edges, mode=canonicalize_mode, top_n=top_n,
            threshold=threshold if top_n is None else None,
            k=k, driver_threshold=canon_driver_threshold,
            closure=closure, closure_pair_limit=closure_pair_limit,
            **canon_kwargs)
        if not isinstance(remap, dict):
            # measured-gate distributed closure: ``remap`` is the label
            # DATASET (node_id, component_id) — rewire the mention
            # provenance with the same join-based pattern as the edge
            # rewire (no broadcast, no driver union-find)
            nodes, edges, mentions, n_merged = _rewire_mentions_labels(
                nodes, edges, mentions, remap)
        elif remap:
            n_merged = len(remap)
            # provenance follows the merge: rewire mention endpoints
            # through the same remap and re-dedup per (doc, node)
            from ..functions.agg import hash_aggregate

            import numpy as np
            import pandas as pd

            keys = sorted(remap)
            remap_ref = ray.put((pd.Index(keys),
                                 np.asarray([remap[k] for k in keys],
                                            dtype=object)))

            def rewire_mentions(t):
                # Arrow-native get_indexer remap (VERDICT r4 fix #1) —
                # no pandas round-trip on the driver-closure path
                import pyarrow as pa

                index, targets = ray.get(remap_ref)
                vals = t.column("node_id").to_numpy(zero_copy_only=False)
                pos = index.get_indexer(vals)
                out = np.where(pos >= 0, targets[np.clip(pos, 0, None)],
                               vals)
                return pa.table({
                    "doc_id": t.column("doc_id"),
                    "node_id": pa.array(
                        out, type=t.schema.field("node_id").type),
                    "n_mentions": t.column("n_mentions"),
                })

            # mentions is consumed exactly once below and written out
            # afterwards, so pinning it here costs no extra pass; the
            # free count() then gates the rewire-reduce exchange on the
            # measured key bound (rewired keys <= input rows)
            from ..functions.agg import measured_exchange

            mentions = mentions.materialize()
            mentions = hash_aggregate(
                mentions.map_batches(rewire_mentions, batch_format="pyarrow"),
                ["doc_id", "node_id"], [("n_mentions", "sum")],
                rename={"n_mentions_sum": "n_mentions"},
                exchange=measured_exchange(mentions.count()),
            ).add_column("pred", lambda df: "mentions")

    graph = out / "graph"
    if graph.exists():
        shutil.rmtree(graph)
    # the three sinks are independent pipelines — run them concurrently
    # (driver threads), overlapping their scheduling latencies
    from concurrent.futures import ThreadPoolExecutor

    sinks = [(nodes, graph / "nodes"), (edges, graph / "edges"),
             (mentions, graph / "mentions")]
    with ThreadPoolExecutor(max_workers=3) as pool:
        futs = [pool.submit(lambda d, p: d.write_parquet(str(p)), d, p)
                for d, p in sinks]
        for f in futs:
            f.result()

    n_nodes = pads.dataset(graph / "nodes").count_rows()
    n_edges = pads.dataset(graph / "edges").count_rows()
    wall = time.time() - t0
    manifest.mark("graph_build", 0, n_rows=n_edges, checksum=f"{n_nodes}n",
                  wall_time_s=wall,
                  extra={"n_nodes": n_nodes, "n_merged": n_merged})
    return {"n_nodes": n_nodes, "n_edges": n_edges, "n_merged": n_merged,
            "wall_time_s": wall}


def run_full(
    make_partition: Callable[[int], rd.Dataset],
    num_partitions: int,
    out_dir: str | Path,
    *,
    resume: bool = True,
    canonicalize_mode: str | None = "lsh",
    concurrency: int | tuple[int, int] | None = None,
    batch_size: int = 256,
    max_inflight: int = 2,
    doc_neardup: bool = True,
    max_triples_per_doc: int | None = None,
    canon_threshold: float | None = 0.2,
    canon_top_n: int | None = None,
    canon_k: int = 40,
    canon_dim: int | None = None,
    neardup_jaccard_threshold: float = 0.9,
    neardup_num_bands: int = 8,
    max_block_mb: int | None = 64,
) -> dict:
    """Full pipeline; returns the metrics dict (triples/sec headline)."""
    t0 = time.time()
    ext = run_partitioned_extraction(
        make_partition, num_partitions, out_dir, resume=resume,
        concurrency=concurrency, batch_size=batch_size,
        max_inflight=max_inflight, max_triples_per_doc=max_triples_per_doc,
        max_block_mb=max_block_mb)
    nd = (run_doc_neardup(out_dir,
                          jaccard_threshold=neardup_jaccard_threshold,
                          num_bands=neardup_num_bands)
          if doc_neardup else {"n_pairs": None})
    gb = run_graph_build(out_dir, canonicalize_mode=canonicalize_mode,
                         top_n=canon_top_n, threshold=canon_threshold,
                         k=canon_k, dim=canon_dim)
    wall = time.time() - t0
    n_triples = pads.dataset(Path(out_dir) / "triples").count_rows()
    return {
        "wall_time_s": wall,
        "n_docs": ext["rows"],
        "n_triples": n_triples,
        "triples_per_sec": n_triples / wall if wall > 0 else 0.0,
        "extract": ext,
        "neardup": nd,
        "graph": gb,
    }


def run_doc_neardup(out_dir: str | Path, *, jaccard_threshold: float = 0.9,
                    num_bands: int = 8) -> dict:
    """Document-level near-dup detection from the MinHash signatures the
    extraction pass already computed: band -> bucket -> verify -> pairs
    parquet (a first-class training-data-pipeline artifact)."""
    from ..stages.dedup import pairs_from_signatures

    out = Path(out_dir)
    manifest = Manifest(out)
    t0 = time.time()
    sigs = rd.read_parquet(str(out / "extractions"),
                           columns=["doc_id", "minhash_sig"])
    pairs = pairs_from_signatures(sigs, jaccard_threshold=jaccard_threshold,
                                  num_bands=num_bands)
    dest = out / "neardup_pairs"
    if dest.exists():
        shutil.rmtree(dest)
    pairs.write_parquet(str(dest))
    # an empty result writes no files at all
    n_pairs = pads.dataset(dest).count_rows() if dest.exists() else 0
    wall = time.time() - t0
    # no-silent-caps: any band-bucket truncation during this stage is
    # recorded in the run metrics + manifest, so a capped run is
    # distinguishable from full coverage in the lineage itself
    from ..functions.runstats import truncation_stats

    trunc = truncation_stats(reset=True)
    manifest.mark("doc_neardup", 0, n_rows=n_pairs, checksum=f"{n_pairs}p",
                  wall_time_s=wall,
                  extra={"truncations": trunc} if trunc else None)
    return {"n_pairs": n_pairs, "wall_time_s": wall, "truncations": trunc}
