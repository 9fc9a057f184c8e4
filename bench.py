#!/usr/bin/env python
"""Benchmark harness (driver contract: prints ONE JSON line).

Headline: the full KG pipeline (interleave -> extract -> triples ->
node/edge dedup -> canonicalize -> materialize) over an interleaved-doc
corpus derived deterministically from ``$GRAFT_SF_DIR/documents.parquet``
replicated ``GRAFT_BENCH_REPLICAS`` times with distinct doc ids — input
size scales with sf and is identical across parallelism levels.

    python bench.py                 # sf0.1, num_cpus=$RAY_GRAFT_CPUS (32)
    python bench.py --scaling       # fresh 8-CPU and 32-CPU runs + efficiency

Output (last line is the JSON):
    {"metric": "kg_full_pipeline_sec", "value": <sec>, "unit": "sec",
     "queries": {...per-query sec...}, "sf": ..., "num_cpus": N,
     "n_docs": ..., "n_triples": ..., "triples_per_sec": ...}
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
REPLICAS = int(os.environ.get("GRAFT_BENCH_REPLICAS", "24"))
PARTITIONS = int(os.environ.get("GRAFT_BENCH_PARTITIONS", "4"))

# representative per-operator queries timed after the headline run
BENCH_QUERIES = [
    "pricing_summary", "top_revenue_parts", "customer_nation_rollup",
    "orders_by_segment", "exact_dedup_docs", "doc_token_stats",
    "top_docs_by_chars", "events_hourly_window", "events_sessionize",
    "events_sliding_window", "events_asof_orders", "knn_bruteforce",
    "ann_ivf_topk", "minhash_neardup_pairs", "simhash_neardup_pairs",
    "embedding_neardup_pairs", "resume_antijoin", "lang_id_distribution",
    "doc_quality_scores", "media_feature_extraction", "pdf_ingest",
    "orders_running_total", "events_hourly_type_pivot", "doc_top_terms",
    "approx_distinct_users", "pii_redaction", "doc_repetition_stats",
    "bloom_resume_antijoin", "semantic_dedup_pairs", "doc_decontaminate",
    "doc_chunks", "doc_pack_stats", "dedup_components", "bm25_search",
    "doc_mixture_sample", "doc_shuffle_head", "doc_bpe_token_stats",
    "price_quantile_sketch", "doc_sample_per_source",
    "chars_quantile_sketch_by_source",
    # graph analytics over the built KG.  The FIRST of these pays the
    # one-time shared KG input build for SF_DIR (extraction + triples,
    # cached under /tmp for the rest); the later ones time the operator
    # itself.
    "kg_pagerank", "kg_pagerank_seeded", "kg_degree_stats",
    "kg_triangles", "kg_bfs_hops", "kg_kcore", "kg_link_prediction",
    "kg_clustering_coeff",
    # interleaved-source scheduling + cross-source contamination
    "doc_interleave", "source_overlap_matrix",
    # bigram-LM quality scoring + exact heavy hitters + TF-IDF keywords
    "doc_lm_score", "term_heavy_hitters", "doc_tfidf_terms",
    "kg_components", "kg_hash_walks", "kg_scc", "kg_pmi_cooccurrence",
    "kg_pagerank_weighted",
    # round-5 session-2 additions: alternative centralities, evidence
    # distance, Luby MIS, rollup lattice, fixed-point centroids
    "kg_katz", "kg_sssp", "kg_mis", "orders_rollup",
    "embedding_label_centroids", "embedding_kmeans",
    "events_cohort_retention", "jaccard_join_pairs",
    "events_type_transitions", "corpus_snapshot_diff",
    "events_props_stats", "doc_rrf_fusion",
    "events_rolling_active_users",
    # round-5 session-3 additions
    "events_funnel", "doc_weighted_sample",
    "kg_truss", "customer_order_counts", "events_anomaly_hours",
    "doc_percentile_rank", "source_lang_entropy", "source_chars_gini",
    "events_trend_slope", "source_lang_kl", "orders_pareto_front",
    "events_burst_score", "events_top_paths", "orders_price_mad",
    "region_year_revenue", "events_ab_test",
    # round-5 session-4 additions
    "events_scd_intervals", "user_activity_balance", "events_dense_hours",
    "term_cmsketch_counts", "doc_editdist_pairs", "documents_profile",
    "kg_harmonic", "events_attribution", "parts_basket_rules",
    "kg_eccentricity", "corpus_zipf_slope", "kg_assortativity",
    "kg_reciprocity", "orders_benford",
    "kg_feature_propagation", "doc_ntile_quartiles",
    "top_customers_per_nation_rank",
    "orders_winsorized_mean", "events_dispersion", "orders_cube",
    "source_lexical_diversity", "events_autocorr", "events_independence",
    "kg_scc_levels", "part_supplier_risk", "nation_trade_matrix",
    "knn_label_accuracy", "priority_yoy_growth",
    "embedding_quantization_error", "customer_rfm_segments",
    "events_bounce_rate", "orders_moving_sum",
    "customers_above_nation_avg", "orders_bootstrap_ci",
    "doc_readability", "doc_naive_bayes", "kg_matching",
    "doc_minimizer_sketch", "kg_path_counts",
    "events_markov_stationary", "embedding_pq_codes",
    "events_runs_test", "kg_motif_census", "bpe_train_merges",
    "embedding_pq_buckets", "user_similarity_topk",
    "embedding_srp_signatures", "kg_dominators",
    "shipping_priority_topk", "doc_curation_gate",
    "forecast_revenue_change", "events_seasonal_profile",
    "customer_spend_deciles", "events_stickiness",
    # round-5 session-6 additions
    "local_supplier_volume", "large_orders_topk",
    "returned_orders_by_priority", "returned_item_losses",
    "er_blocking_stats",
    # round-5 session-7 additions
    "nation_volume_shipping", "nation_market_share", "nation_profit",
    "promo_revenue_share", "top_supplier_revenue",
    "brand_multirange_revenue", "part_supplier_counts",
    "small_qty_revenue_loss", "idle_rich_customers",
    "orders_reconciliation", "kg_msf", "ship_delay_percentiles",
    "orders_median_by_priority", "events_user_lifespan_percentiles",
    "exact_dup_cluster_sizes", "kg_diameter_2sweep",
    "embedding_power_iteration", "embedding_top_component_energy",
]


def _consume(result):
    import pyarrow as pa
    import ray.data as rd

    if isinstance(result, rd.Dataset):
        n = 0
        for b in result.iter_batches(batch_format="pyarrow"):
            n += b.num_rows
        return n
    if isinstance(result, pa.Table):
        return result.num_rows
    return len(result)


def make_partition_factory(sf_dir: str, replicas: int, partitions: int,
                           num_cpus: int):
    """Partition p = a contiguous slice of the replicated corpus.

    The base ``documents`` table is small (5k rows at sf0.1) and is
    broadcast ONCE via ``ray.put``; each partition is generated from
    ``ray.data.range`` with an explicit block count so derivation and
    extraction parallelize across every CPU — a single-file parquet
    read would otherwise pin the whole corpus to one or two blocks.
    (At real scale the corpus is already sharded in storage and the
    reader provides the blocks; this factory stands in for that.)
    """
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    from aisafetyintervention_literatureextraction_ray.sources.docs import (
        _interleave_batch,
    )

    base = pq.read_table(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    n_base = base.num_rows
    base_ref = ray.put(base)
    total = n_base * replicas

    # paper-sized documents: concatenate K base rows per doc so the per-doc
    # extraction work resembles a real document (~2-3 KB), not a tweet
    K_ROWS = int(os.environ.get("GRAFT_BENCH_DOC_ROWS", "8"))

    class Derive:
        def __init__(self) -> None:
            self.base = ray.get(base_ref)
            self.texts = self.base.column("text").to_pylist()

        def __call__(self, batch: pa.Table) -> pa.Table:
            idx = batch.column("id").to_numpy()
            rows = (idx % n_base).astype(np.int64)
            reps = (idx // n_base).astype(np.int64)
            # replica-dependent row mix -> replicas are textually
            # distinct documents (a corpus of exact clones would make
            # the pipeline's dedup stage quadratic by construction);
            # position-dependent replica offset so no (r, rep) pair can
            # alias another's full row set
            texts = [
                " ".join(self.texts[(r + (131 * j + 1) * (rep + 1)) % n_base]
                         for j in range(K_ROWS))
                for r, rep in zip(rows, reps)
            ]
            base_ids = self.base.column("doc_id").to_numpy()
            ids = base_ids[rows] + reps * 10_000_000
            t = pa.table({"doc_id": pa.array(ids), "text": pa.array(texts)})
            return _interleave_batch(t, 42)

        def __reduce__(self):  # plain function-like pickling for tasks
            return (Derive, ())

    def make_partition(pid: int):
        lo = pid * total // partitions
        hi = (pid + 1) * total // partitions
        blocks = max(8, num_cpus * 8)
        ds = rd.range(hi - lo, override_num_blocks=blocks)

        def shift(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            return t.set_column(0, "id", pc.add(t["id"], lo))

        return ds.map_batches(shift, batch_format="pyarrow").map_batches(
            Derive(), batch_format="pyarrow", batch_size=256)

    return make_partition


def run_headline(num_cpus: int) -> dict:
    import ray

    from aisafetyintervention_literatureextraction_ray.pipelines.full import (
        run_full,
    )

    # GRAFT_BENCH_DIR=/dev/shm gives the storage-variance CONTROL: on a
    # real N vs 4N cluster every node brings its own disk, so checkpoint
    # bandwidth scales with the cluster; on this single host the shared
    # disk is a FIXED resource whose co-tenant throughput swings 26-325
    # MB/s minute to minute (measured), which starves only the hi-CPU
    # leg. tmpfs models per-node-scaled storage; the default stays the
    # real disk for protocol continuity with earlier rounds.
    out_dir = (f"{os.environ.get('GRAFT_BENCH_DIR', '/tmp')}"
               f"/kg_bench_{num_cpus}")
    shutil.rmtree(out_dir, ignore_errors=True)
    make_partition = make_partition_factory(SF_DIR, REPLICAS, PARTITIONS,
                                            num_cpus)
    # extraction task caps sized so the two concurrent partitions
    # together fit the CPU budget with ~25% headroom for read/write
    # tasks (caps that pin every CPU starve the write stage, which
    # backpressures the extractors).
    inflight = min(2, PARTITIONS)
    conc = max(1, (num_cpus - max(2, num_cpus // 8)) // inflight)

    # untimed warm-up: pays worker-process import + pyc/page-cache costs
    # so the timed run measures compute + shuffle, not cold starts
    from aisafetyintervention_literatureextraction_ray.pipelines.extraction import (
        extract_pipeline,
    )

    warm = make_partition(0).limit(2000)
    extract_pipeline(warm, concurrency=conc, batch_size=256).materialize()

    # per-trial host probe taken immediately BEFORE the timed run (and
    # before its outcome is known): the shared host's co-tenant CPU
    # bursts on a minutes scale, so a single end-of-session probe can
    # miss which trials were clean — the per-trial value lets the
    # recorded median be audited against machine-recorded conditions
    trial_calib = host_calibration_sec()

    # headline = the north-rule pipeline (extract -> link -> canonicalize
    # -> materialize); the doc-dedup stage is timed separately below
    t0 = time.time()
    res = run_full(make_partition, PARTITIONS, out_dir, resume=False,
                   canonicalize_mode="lsh", concurrency=conc,
                   batch_size=256, max_inflight=inflight, doc_neardup=False)
    wall = time.time() - t0

    from aisafetyintervention_literatureextraction_ray.pipelines.full import (
        run_doc_neardup,
    )

    nd = run_doc_neardup(out_dir)
    return {
        "sec": round(wall, 2),
        "trial_calibration_sec": trial_calib,
        "n_docs": res["n_docs"],
        "n_triples": res["n_triples"],
        "triples_per_sec": round(res["n_triples"] / wall, 1),
        "extract_sec": round(sum(r["wall_time_s"] for r in
                                 __manifest_rows(out_dir, "extract")), 2),
        "graph_sec": round(res["graph"]["wall_time_s"], 2),
        "doc_neardup_sec": round(nd["wall_time_s"], 2),
    }


def __manifest_rows(out_dir: str, stage: str):
    from aisafetyintervention_literatureextraction_ray.state.lineage import (
        Manifest,
    )

    return [r for r in Manifest(out_dir).rows() if r["stage"] == stage]


def run_queries() -> dict:
    import __ray_entry__ as entrymod

    queries = entrymod.queries()
    out = {}
    for name in BENCH_QUERIES:
        t0 = time.time()
        _consume(queries[name](SF_DIR))
        out[name] = round(time.time() - t0, 2)
    return out


def host_calibration_sec(workers: int = 8) -> float:
    """Fixed parallel CPU workload: ``workers`` threads each run a
    constant matmul loop (numpy releases the GIL), so the wall time
    reflects MULTI-CORE contention from co-tenants — the thing that
    actually slows the pipeline on this shared host (measured drift up
    to ~3x; see BASELINE.md).  Reported alongside the headline so
    wall-clock comparisons across rounds can be normalized:
    headline_normalized ~ value / (host_calibration_sec / baseline).
    """
    from concurrent.futures import ThreadPoolExecutor

    import numpy as np

    def burn(seed: int) -> None:
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((512, 512))
        for _ in range(30):
            a = np.tanh(a @ a.T / 512.0)

    t0 = time.time()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(burn, range(workers)))
    return round(time.time() - t0, 3)


def host_disk_mbps() -> float:
    """Fsync'd sequential write throughput to the filesystem the bench
    run dirs live on (``/tmp/kg_bench_*`` — same mount as the probe, a
    real disk in this sandbox, 90-113 MB/s measured).  The pipeline's
    checkpoint writes bottleneck here first when the shared host's
    storage is contended.  Meaningless if /tmp is tmpfs on another
    host — compare only on this one."""
    import os

    buf = os.urandom(32 * 1024 * 1024)
    path = f"/tmp/.graft_disk_probe.{os.getpid()}"
    t0 = time.time()
    try:
        with open(path, "wb") as f:
            for _ in range(4):
                f.write(buf)
            f.flush()
            os.fsync(f.fileno())
        dt = time.time() - t0
    finally:
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
    return round(128 / dt, 1)


def main() -> None:
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    # warm the page cache so we measure compute+shuffle, not first read
    import pyarrow.dataset as pads

    for t in ("documents", "lineitem", "events", "embeddings", "customer",
              "orders", "nation", "region", "part"):
        pads.dataset(f"{SF_DIR}/{t}.parquet").to_table()

    # the shared host carries ~±10-15% run-to-run variance; the headline
    # is the median of GRAFT_BENCH_TRIALS runs (default 3) so one noisy
    # run does not move the recorded number
    n_trials = int(os.environ.get("GRAFT_BENCH_TRIALS", "3"))
    trials = [run_headline(NUM_CPUS) for _ in range(max(1, n_trials))]
    headline = sorted(trials, key=lambda h: h["sec"])[len(trials) // 2]
    queries = run_queries() if os.environ.get("GRAFT_BENCH_QUERIES", "1") == "1" \
        else {}
    ray.shutdown()
    print(json.dumps({
        "metric": "kg_full_pipeline_sec",
        "value": headline["sec"],
        "trials_sec": [h["sec"] for h in trials],
        "trial_calibrations_sec": [h["trial_calibration_sec"]
                                   for h in trials],
        "host_calibration_sec": host_calibration_sec(),
        "host_disk_mbps": host_disk_mbps(),
        "unit": "sec",
        "queries": queries,
        "sf": SF_DIR.rstrip("/").rsplit("sf", 1)[-1],
        "num_cpus": NUM_CPUS,
        "n_docs": headline["n_docs"],
        "n_triples": headline["n_triples"],
        "triples_per_sec": headline["triples_per_sec"],
        "extract_sec": headline["extract_sec"],
        "graph_sec": headline["graph_sec"],
        "doc_neardup_sec": headline["doc_neardup_sec"],
    }))


def scaling() -> None:
    """Same job at two parallelism levels (N and 4N CPUs) in fresh
    processes — the sandbox stand-in for N vs 4N nodes (BASELINE.md).

    Default levels are 7 and 28 (override with GRAFT_SCALING_CPUS,
    e.g. "8,32"): the machine has 32 cores shared with the Ray driver,
    raylet and object-store threads, so a num_cpus=32 worker fleet is
    oversubscribed against the harness itself; 28 leaves the harness
    off the measured budget, identically at both levels.
    """
    import statistics
    import subprocess

    lo, hi = (int(x) for x in
              os.environ.get("GRAFT_SCALING_CPUS", "7,28").split(","))
    assert hi == 4 * lo, "scaling levels must be N and 4N"
    # GRAFT_SCALING_REPEATS > 1 ALTERNATES the two legs (lo hi lo hi …)
    # and pairs per-leg MEDIANS: on a shared host whose co-tenant load
    # swings within minutes, pairing one lo leg with one hi leg taken
    # minutes apart measures the co-tenants, not the engine; medians of
    # interleaved legs cancel leg-independent noise.
    repeats = int(os.environ.get("GRAFT_SCALING_REPEATS", "1"))
    runs: dict[int, list[dict]] = {lo: [], hi: []}
    for _ in range(max(1, repeats)):
        for ncpu in (lo, hi):
            env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu),
                       GRAFT_BENCH_QUERIES="0",
                       # one trial per leg; repetition comes from the
                       # alternating outer loop
                       GRAFT_BENCH_TRIALS=os.environ.get(
                           "GRAFT_SCALING_TRIALS", "1"),
                       GRAFT_BENCH_REPLICAS=os.environ.get(
                           "GRAFT_BENCH_REPLICAS", "192"),
                       GRAFT_BENCH_PARTITIONS=os.environ.get(
                           "GRAFT_BENCH_PARTITIONS", "2"))
            out = subprocess.run([sys.executable, __file__], env=env,
                                 capture_output=True, text=True,
                                 check=True).stdout
            runs[ncpu].append(json.loads(out.strip().splitlines()[-1]))
    thr_lo = statistics.median(r["triples_per_sec"] for r in runs[lo])
    thr_hi = statistics.median(r["triples_per_sec"] for r in runs[hi])
    print(json.dumps({
        "cpus": [lo, hi],
        f"sec_{lo}": runs[lo][-1]["value"],
        f"sec_{hi}": runs[hi][-1]["value"],
        f"thr_{lo}": thr_lo,
        f"thr_{hi}": thr_hi,
        "thr_samples": {str(n): [r["triples_per_sec"] for r in runs[n]]
                        for n in (lo, hi)},
        "n_docs": runs[hi][-1]["n_docs"],
        "n_triples": runs[hi][-1]["n_triples"],
        "scaling_efficiency": round((thr_hi / thr_lo) / 4, 3),
        # per-level host probes from the child runs: a depressed hi-CPU
        # number with a depressed disk probe is storage contention, not
        # a scaling property (the hi-CPU run demands ~4x the checkpoint
        # write bandwidth per second)
        "host_probes": {str(n): [
            {"calibration_sec": r.get("host_calibration_sec"),
             "disk_mbps": r.get("host_disk_mbps")} for r in runs[n]]
            for n in (lo, hi)},
    }))


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        scaling()
    else:
        main()
