"""Traced run: the build's blocking stages, then each module's public
functions one at a time, with a span around every call.

Spans live in memory (``Tracer.spans``) and are written out once, when
the run ends.  Each span holds its name, start and end (seconds on the
``perf_counter`` clock), its parent's id and, for in-process kernels,
the CPU seconds of the calling thread.
"""

from __future__ import annotations

import contextlib
import shutil
import time
from pathlib import Path

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import ray.data as rd

from aisafetyintervention_literatureextraction_ray.functions.explode import (
    explode_chain_edges,
)
from aisafetyintervention_literatureextraction_ray.pipelines import full
from aisafetyintervention_literatureextraction_ray.pipelines.canonicalization import (
    canonicalize,
)
from aisafetyintervention_literatureextraction_ray.pipelines.graph_build import (
    build_alias_index,
    build_edges_and_mentions,
    build_nodes,
)
from aisafetyintervention_literatureextraction_ray.sources.docs import read_docs
from aisafetyintervention_literatureextraction_ray.stages.dedup import MinHasher
from aisafetyintervention_literatureextraction_ray.stages.extract import (
    TripleExtractor,
    assemble_full_text,
)

from corpus import dir_bytes


class Tracer:
    """In-memory span recorder; spans of one run share ``trace_id``."""

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"trace_id": self.trace_id, "id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None,
               "thread_cpu_s": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        cpu0 = time.thread_time()
        try:
            yield rec
        finally:
            rec["thread_cpu_s"] = time.thread_time() - cpu0
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @staticmethod
    def wall(rec: dict) -> float:
        return rec["end"] - rec["start"]


def traced_build(tr: Tracer, cfg, make_partition, run_dir: Path) -> dict:
    """``run_full`` with the same arguments, as its three blocking stages
    called in sequence, each under its own span."""
    ex, cn, dd = cfg.extraction, cfg.canonicalization, cfg.dedup
    with tr.span("pipelines.full.run_full") as root:
        with tr.span("pipelines.full.run_partitioned_extraction") as s_ext:
            ext = full.run_partitioned_extraction(
                make_partition, cfg.num_partitions, run_dir,
                resume=cfg.resume, concurrency=ex.concurrency,
                batch_size=ex.batch_size, max_inflight=cfg.max_inflight,
                max_triples_per_doc=ex.max_triples_per_doc,
                max_block_mb=cfg.max_block_mb)
        with tr.span("pipelines.full.run_doc_neardup") as s_nd:
            nd = full.run_doc_neardup(
                run_dir, jaccard_threshold=dd.jaccard_threshold,
                num_bands=dd.num_bands)
        with tr.span("pipelines.full.run_graph_build") as s_gb:
            full.run_graph_build(
                run_dir, canonicalize_mode=cn.mode, top_n=cn.top_n,
                threshold=cn.threshold, k=cn.k, dim=cn.dim)
    stages = [s_ext, s_nd, s_gb]
    return {
        "pipelines.full.extraction_s": tr.wall(s_ext),
        "pipelines.full.neardup_s": tr.wall(s_nd),
        "pipelines.full.graph_build_s": tr.wall(s_gb),
        "pipelines.full.stage_sum_s": sum(tr.wall(s) for s in stages),
        "pipelines.full.traced_build_s": tr.wall(root),
        "stages.dedup.neardup_pairs": nd["n_pairs"],
        "stages.dedup.truncations": sum(
            v["groups"] for v in (nd["truncations"] or {}).values()),
        "state.lineage.partitions_ran": ext["ran"],
        "state.lineage.partitions_skipped": ext["skipped"],
        "state.lineage.checkpoint_bytes": (
            dir_bytes(run_dir / "extractions") + dir_bytes(run_dir / "triples")
            + (run_dir / "manifest.jsonl").stat().st_size),
    }


def kernel_layers(tr: Tracer, cfg, docs: pa.Table) -> dict:
    """Extraction kernels in-process on Arrow batches of ``docs`` (the
    docs the build extracts), timed by thread CPU."""
    ex = cfg.extraction
    extractor = TripleExtractor(max_triples_per_doc=ex.max_triples_per_doc)
    # a fresh MinHasher fed the same batches in the same order, so its
    # token cache warms exactly like the extractor's own
    minhasher = MinHasher()
    cpu = {"assemble": 0.0, "extract": 0.0, "minhash": 0.0, "explode": 0.0}
    triples = 0
    with tr.span("stages.extract.kernels"):
        for off in range(0, docs.num_rows, ex.batch_size):
            batch = docs.slice(off, ex.batch_size)
            with tr.span("stages.extract.assemble_full_text") as s:
                assembled = assemble_full_text(batch)
            cpu["assemble"] += s["thread_cpu_s"]
            with tr.span("stages.extract.TripleExtractor") as s:
                extracted = extractor(assembled)
            cpu["extract"] += s["thread_cpu_s"]
            texts = [t or "" for t in assembled.column("full_text").to_pylist()]
            with tr.span("stages.dedup.MinHasher.signatures") as s:
                minhasher.signatures(texts)
            cpu["minhash"] += s["thread_cpu_s"]
            with tr.span("functions.explode.explode_chain_edges") as s:
                tri = explode_chain_edges(extracted)
            cpu["explode"] += s["thread_cpu_s"]
            triples += tri.num_rows
    kdoc = docs.num_rows / 1000
    return {
        "stages.extract.assemble_cpu_s_per_kdoc": cpu["assemble"] / kdoc,
        "stages.extract.extractor_cpu_s_per_kdoc":
            (cpu["extract"] - cpu["minhash"]) / kdoc,
        "stages.extract.triples_found": triples,
        "stages.dedup.minhash_cpu_s_per_kdoc": cpu["minhash"] / kdoc,
        "functions.explode.explode_cpu_s_per_kdoc": cpu["explode"] / kdoc,
        "functions.explode.rows_out": triples,
        # the CPU the extraction stage's kernels need for these docs
        "_kernel_cpu_s": cpu["assemble"] + cpu["extract"],
    }


def read_layer(tr: Tracer, shard_dirs: list[Path]) -> dict:
    with tr.span("sources.docs.read_docs") as s:
        ds = read_docs([str(f) for d in shard_dirs
                        for f in sorted(d.glob("*.parquet"))]).materialize()
    return {"sources.docs.read_s": tr.wall(s),
            "sources.docs.rows": ds.count(),
            "sources.docs.bytes": ds.size_bytes()}


def graph_layers(tr: Tracer, cfg, run_dir: Path, scratch: Path) -> dict:
    """Graph build and canonicalization over a committed run directory,
    one public function at a time (the broadcast path ``run_graph_build``
    takes for a node table this small)."""
    cn = cfg.canonicalization
    extr = rd.read_parquet(str(run_dir / "extractions"),
                           columns=["doc_id", "nodes"])
    triples = rd.read_parquet(str(run_dir / "triples"))
    with tr.span("pipelines.graph_build.build_nodes") as s_nodes:
        nodes = build_nodes(extr).materialize()
    with tr.span("pipelines.graph_build.build_alias_index") as s_alias:
        alias_index = build_alias_index(nodes)
    with tr.span("pipelines.graph_build.build_edges_and_mentions") as s_link:
        edges, mentions = build_edges_and_mentions(triples, alias_index)
        edges, mentions = edges.materialize(), mentions.materialize()
    if scratch.exists():
        shutil.rmtree(scratch)
    with tr.span("pipelines.graph_build.write") as s_write:
        for name, ds in (("nodes", nodes), ("edges", edges),
                         ("mentions", mentions)):
            ds.write_parquet(str(scratch / name))
    with tr.span("pipelines.canonicalization.canonicalize") as s_canon:
        _, _, accepted, remap = canonicalize(
            nodes, edges, mode=cn.mode, top_n=cn.top_n,
            threshold=cn.threshold if cn.top_n is None else None,
            k=cn.k, dim=cn.dim)
    mentions_in = pads.dataset(run_dir / "extractions").to_table(
        columns=["nodes"]).column("nodes")
    return {
        "pipelines.graph_build.node_dedup_s": tr.wall(s_nodes),
        "pipelines.graph_build.alias_index_s": tr.wall(s_alias),
        "pipelines.graph_build.link_s": tr.wall(s_link),
        "pipelines.graph_build.write_s": tr.wall(s_write),
        "pipelines.graph_build.node_mentions_in":
            pc.sum(pc.list_value_length(mentions_in)).as_py() or 0,
        "pipelines.graph_build.nodes_out": nodes.count(),
        "pipelines.graph_build.triples_in": triples.count(),
        "pipelines.graph_build.edges_out": edges.count(),
        "pipelines.graph_build.mentions_out": mentions.count(),
        "pipelines.canonicalization.canonicalize_s": tr.wall(s_canon),
        "pipelines.canonicalization.accepted_pairs": len(accepted),
        # a node table below the driver threshold returns a dict remap
        "pipelines.canonicalization.merged": len(remap),
    }
