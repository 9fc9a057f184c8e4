"""End-to-end orchestration: extract -> link -> canonicalize -> materialize.

The run directory is a Lance-style layout of partitioned Parquet:

    <out>/extractions/part=K/*.parquet    (resumable, one dir per partition)
    <out>/triples/part=K/*.parquet
    <out>/graph/nodes/*.parquet           (global, swapped in atomically)
    <out>/graph/edges/*.parquet
    <out>/graph/mentions/*.parquet
    <out>/neardup_pairs/*.parquet
    <out>/manifest.jsonl                  (lineage + per-stage metrics)

Extraction (the expensive, embarrassingly-parallel stage — per-doc, no
shuffle) is checkpointed per partition; the graph build (three keyed
reduces, cheap relative to extraction, placed by one measured gate in
``graph_build.build_graph``) is recomputed from the extraction outputs,
which keeps it a pure deterministic function of checkpointed state
(re-run => identical graph, the MERGE idempotency property of
``db.py:36,42,51``).
"""

from __future__ import annotations

import time
from collections.abc import Callable
from pathlib import Path

import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import ray.data as rd

from ..schemas import (
    EDGES_SCHEMA,
    EXTRACTION_SCHEMA,
    MENTIONS_SCHEMA,
    NODES_SCHEMA,
    TRIPLES_SCHEMA,
)
from ..state.lineage import Manifest, atomic_dir, order_free_checksum
from .canonicalization import canonicalize
from .extraction import extract_pipeline, triples_from_extractions
from .graph_build import build_graph, rewire_mentions


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
        with atomic_dir(out / "extractions" / f"part={pid}") as tmp:
            _write(extr, tmp, EXTRACTION_SCHEMA, min_rows_per_file=8192,
                   compression="zstd")
        # triples need only (doc_id, logical_chains): prune at the read
        with plan_lock:
            extr_part = rd.read_parquet(
                str(out / "extractions" / f"part={pid}"),
                columns=["doc_id", "logical_chains"])
            tri = triples_from_extractions(extr_part)
        with atomic_dir(out / "triples" / f"part={pid}") as tmp:
            _write(tri, tmp, TRIPLES_SCHEMA, min_rows_per_file=32768,
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


def _write(ds: rd.Dataset, path: Path, schema: pa.Schema, **kw) -> None:
    ds.write_parquet(str(path), **kw)
    if not any(path.glob("*.parquet")):
        # an empty Dataset writes no file: leave a typed empty table so
        # readers see the schema, not a missing directory
        path.mkdir(parents=True, exist_ok=True)
        pq.write_table(schema.empty_table(), path / "empty.parquet")


def run_graph_build(out_dir: str | Path, *, canonicalize_mode: str | None = None,
                    top_n: int | None = None,
                    threshold: float | None = 0.2,
                    k: int = 40, dim: int | None = None,
                    local_triple_limit: int = 2_000_000,
                    canon_driver_threshold: int = 50_000,
                    closure: str = "auto",
                    closure_pair_limit: int = 2_000_000) -> dict:
    """extractions/* -> graph/{nodes,edges,mentions} (+ optional near-dup
    merge).

    ``build_graph`` places the whole build from one measured gate: the
    triple count against ``local_triple_limit`` (one task at or below
    it, bucketed exchanges above it).  The mention rewire after a merge
    reuses that gate's exchange.  The three tables are written into a
    tmp sibling of ``graph/`` and swapped in only once all three are
    complete, so a failed build leaves the previous graph as it was.
    """
    out = Path(out_dir)
    manifest = Manifest(out)
    t0 = time.time()
    nodes, edges, mentions, gate = build_graph(
        out, local_triple_limit=local_triple_limit)

    n_merged = 0
    if canonicalize_mode:
        # default = threshold mode (the scale path, SURVEY.md §2.6 O3):
        # merge only true near-dups; pass top_n for reference-parity
        # fixed-k accepts.
        canon_kwargs = {"dim": dim} if dim is not None else {}
        nodes, edges, _, remap = canonicalize(
            nodes, edges, mode=canonicalize_mode, top_n=top_n,
            threshold=threshold if top_n is None else None,
            k=k, driver_threshold=canon_driver_threshold,
            closure=closure, closure_pair_limit=closure_pair_limit,
            **canon_kwargs)
        # provenance follows the merge
        mentions, n_merged = rewire_mentions(mentions, remap,
                                             exchange=gate["exchange"])

    # the three sinks are independent pipelines — run them concurrently
    # (driver threads), overlapping their scheduling latencies
    from concurrent.futures import ThreadPoolExecutor

    graph = out / "graph"
    with atomic_dir(graph) as tmp, ThreadPoolExecutor(max_workers=3) as pool:
        futs = [pool.submit(_write, d, tmp / name, schema)
                for d, name, schema in ((nodes, "nodes", NODES_SCHEMA),
                                        (edges, "edges", EDGES_SCHEMA),
                                        (mentions, "mentions",
                                         MENTIONS_SCHEMA))]
        for f in futs:
            f.result()

    n_nodes = pads.dataset(graph / "nodes").count_rows()
    n_edges = pads.dataset(graph / "edges").count_rows()
    wall = time.time() - t0
    manifest.mark("graph_build", 0, n_rows=n_edges, checksum=f"{n_nodes}n",
                  wall_time_s=wall,
                  extra={"n_nodes": n_nodes, "n_merged": n_merged, **gate})
    return {"n_nodes": n_nodes, "n_edges": n_edges, "n_merged": n_merged,
            "wall_time_s": wall, **gate}


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
    with atomic_dir(dest) as tmp:
        pairs.write_parquet(str(tmp))
    n_pairs = pads.dataset(dest).count_rows()
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
