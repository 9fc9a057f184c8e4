"""Measuring process of the KG-build benchmark: one workload, one seed.

Set-up (timed as ``setup_s``, never part of a build): a fresh local Ray
session, the seeded corpus, the resume template (``grow_papers``) and two
full warm-up builds.  Then builds start back to back for ``--seconds``
seconds through ``config.run_with_config`` -- ``pipelines.full.run_full``
reading the corpus with ``sources.docs.read_docs`` -- and every build's
run directory is checked against the golden facts.  ``--trace 1``
instead alternates an untraced build with a traced one and a per-module
pass (``layers.py``), and reports the per-layer metrics.

Prints one detail line (host facts, every build time, set-up parts) and,
last, the result line.  Run it through ``run.py``, which bounds its
lifetime and reaps every process it leaves behind.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Fixed Ray budget and extraction parallelism.  Never derived from
# os.cpu_count(): hosts that expose 1 CPU to nproc but 4 to Ray must run
# the same plan.  One logical CPU hung the first extraction partition;
# two stalled some partitions for 15-20 s; four logical CPUs with one
# actor and one partition in flight ran steadily.
RAY_NUM_CPUS = 4
EXTRACT_CONCURRENCY = 1
MAX_INFLIGHT = 1
OBJECT_STORE_BYTES = 512 << 20
SYNTH_REPEATS = 3
# Build times keep falling over the first builds of a session while the
# Ray workers warm up (imports, pool growth): two untimed builds bring the
# timed ones to the steady state.
WARMUP_BUILDS = 2
# AF_UNIX socket paths are capped at 107 bytes; Ray appends ~65 to its
# temp dir, so a longer checkout path gets a system temp dir instead
MAX_RAY_TEMP_LEN = 40


def busy_cpu_s() -> float:
    """VM-wide busy CPU seconds: user+nice+system+irq+softirq."""
    with open("/proc/stat") as f:
        fields = f.readline().split()[1:]
    user, nice, system, _idle, _iowait, irq, softirq = map(int, fields[:7])
    return (user + nice + system + irq + softirq) / os.sysconf("SC_CLK_TCK")


def status_mb(field: str) -> float:
    with open("/proc/self/status") as f:
        return int(re.search(rf"{field}:\s+(\d+)", f.read()).group(1)) / 1024


def reset_peak_rss() -> float:
    """Restart the peak-RSS count; returns the RSS it starts from."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")
    return status_mb("VmRSS")


def host_facts() -> dict:
    nproc = subprocess.run(["nproc"], capture_output=True, text=True,
                           check=False).stdout.strip()
    return {"nproc": int(nproc) if nproc.isdigit() else None,
            "os_cpu_count": os.cpu_count(),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "ray_num_cpus": RAY_NUM_CPUS,
            "extract_concurrency": EXTRACT_CONCURRENCY,
            "max_inflight": MAX_INFLIGHT}


class Tally:
    """Correctness counts over every build of the invocation."""

    def __init__(self) -> None:
        self.runs = self.runs_failed = self.docs = self.docs_failed = 0

    def add(self, n_docs: int, n_failed_docs: int, run_ok: bool) -> None:
        self.runs += 1
        self.runs_failed += not run_ok
        self.docs += n_docs
        self.docs_failed += n_failed_docs


class Bench:
    """One workload's corpus, config and build, inside ``work``."""

    def __init__(self, workload: str, seed: int, scale: float, work: Path):
        import corpus
        from aisafetyintervention_literatureextraction_ray.config import (
            ExtractionConfig,
            PipelineConfig,
        )

        self.work = work
        self.wl = corpus.WORKLOADS[workload]
        synth = []
        for _ in range(SYNTH_REPEATS):
            t0 = time.perf_counter()
            self.corpus = corpus.generate(workload, seed, work, scale)
            synth.append(time.perf_counter() - t0)
        self.synth_s = statistics.median(synth)
        self.n_docs = self.corpus.docs.num_rows
        self.cfg = PipelineConfig(
            num_partitions=self.wl.shards, max_inflight=MAX_INFLIGHT,
            extraction=ExtractionConfig(concurrency=EXTRACT_CONCURRENCY))
        self.template = work / "template" if self.wl.template_shards else None

    def make_partition(self, pid: int):
        from aisafetyintervention_literatureextraction_ray.sources.docs import (
            read_docs,
        )

        return read_docs(str(self.corpus.shard_dir(pid)))

    def build_template(self) -> float:
        """Checkpoint the first shards once, as an earlier build would.
        Only the extraction checkpoints matter: a refresh rebuilds the
        graph and the near-dup pairs over every shard."""
        from aisafetyintervention_literatureextraction_ray.pipelines.full import (
            run_partitioned_extraction,
        )

        ex = self.cfg.extraction
        t0 = time.perf_counter()
        run_partitioned_extraction(
            self.make_partition, self.wl.template_shards, self.template,
            concurrency=ex.concurrency, batch_size=ex.batch_size,
            max_inflight=self.cfg.max_inflight,
            max_triples_per_doc=ex.max_triples_per_doc,
            max_block_mb=self.cfg.max_block_mb)
        return time.perf_counter() - t0

    def prepare(self, run_dir: Path) -> None:
        if run_dir.exists():
            shutil.rmtree(run_dir)
        if self.template is not None:
            shutil.copytree(self.template, run_dir)

    def extracted_shards(self) -> range:
        return range(self.wl.template_shards, self.wl.shards)

    def build(self, run_dir: Path) -> dict:
        from aisafetyintervention_literatureextraction_ray.config import (
            run_with_config,
        )

        return run_with_config(self.make_partition, str(run_dir), self.cfg)

    def check(self, run_dir: Path, tally: Tally) -> None:
        from checks import check_run

        n_bad, graph_ok = check_run(run_dir, self.corpus.docs,
                                    self.corpus.golden, self.wl.shards)
        tally.add(self.n_docs, n_bad, graph_ok and n_bad == 0)


def timed_build(bench: Bench, run_dir: Path, tally: Tally) -> dict:
    """One untraced build: prepare (untimed), build (timed), check."""
    from corpus import dir_bytes

    bench.prepare(run_dir)
    rss0 = reset_peak_rss()
    cpu0, t0 = busy_cpu_s(), time.perf_counter()
    try:
        bench.build(run_dir)
        ok = True
    except Exception:
        traceback.print_exc(file=sys.stderr)
        ok = False
    wall, cpu = time.perf_counter() - t0, busy_cpu_s() - cpu0
    rec = {"build_s": wall, "cpu_s_per_kdoc": cpu / (bench.n_docs / 1000),
           # the build's own allocations mostly reuse memory the process
           # already holds, so the peak is reported with its start point
           "driver_peak_rss_mb": status_mb("VmHWM"),
           "driver_start_rss_mb": rss0}
    if ok:
        rec["stored_bytes_per_input_byte"] = (
            dir_bytes(run_dir) / bench.corpus.input_bytes)
        bench.check(run_dir, tally)
    else:
        tally.add(bench.n_docs, bench.n_docs, False)
    shutil.rmtree(run_dir, ignore_errors=True)
    return rec


def traced_round(bench: Bench, run_dir: Path, tally: Tally, tr) -> dict:
    """Untraced build, traced build, then the per-module pass."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    import layers

    untraced = timed_build(bench, run_dir, tally)["build_s"]
    bench.prepare(run_dir)
    m = layers.traced_build(tr, bench.cfg, bench.make_partition, run_dir)
    bench.check(run_dir, tally)
    shards = [bench.corpus.shard_dir(p) for p in bench.extracted_shards()]
    m.update(layers.read_layer(tr, shards))
    docs = pa.concat_tables(pq.read_table(d) for d in shards)
    m.update(layers.kernel_layers(tr, bench.cfg, docs))
    m.update(layers.graph_layers(tr, bench.cfg, run_dir,
                                 bench.work / "layer_graph"))
    m["pipelines.full.untraced_build_s"] = untraced
    m["pipelines.full.tracing_overhead_s"] = (
        m["pipelines.full.traced_build_s"] - untraced)
    m["pipelines.full.extraction_overhead_s"] = (
        m["pipelines.full.extraction_s"] - m.pop("_kernel_cpu_s"))
    shutil.rmtree(run_dir, ignore_errors=True)
    return m


def ray_temp_dir(work_root: Path) -> Path:
    """A fresh dir for this session's Ray files: inside the checkout when
    the path is short enough for Ray's sockets, else in the system temp."""
    cand = work_root / f"r{os.getpid()}"
    if len(str(cand)) > MAX_RAY_TEMP_LEN:
        cand = Path(tempfile.gettempdir()) / f"kgb-ray-{os.getpid()}"
    cand.mkdir(parents=True)
    return cand


def start_ray(temp_dir: Path) -> float:
    """Fresh local session whose workers can import the package."""
    import ray

    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT), os.environ.get("PYTHONPATH")) if p)
    t0 = time.perf_counter()
    ray.init(address="local", num_cpus=RAY_NUM_CPUS,
             object_store_memory=OBJECT_STORE_BYTES, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             _temp_dir=str(temp_dir))

    @ray.remote(num_cpus=0)
    def probe() -> str:
        import aisafetyintervention_literatureextraction_ray as pkg

        return pkg.__file__

    # a worker that cannot import the package fails here, not as an
    # actor restart loop inside the first build
    ray.get(probe.remote(), timeout=60)
    return time.perf_counter() - t0


def summarize(recs: list[dict]) -> dict:
    def med(key):
        vals = [r[key] for r in recs if key in r]
        return statistics.median(vals) if vals else None

    return {
        "build_s": med("build_s"),
        "cpu_s_per_kdoc": med("cpu_s_per_kdoc"),
        "driver_peak_rss_mb": max(r["driver_peak_rss_mb"] for r in recs),
        "stored_bytes_per_input_byte": med("stored_bytes_per_input_byte"),
    }


def load_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="corpus size factor (tests use a tiny one)")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT))
    try:
        import corpus  # noqa: F401  (imports the package under test)
    except ImportError as exc:
        print(f"kgbench: cannot import the engine package: {exc}",
              file=sys.stderr)
        return 2
    if args.workload not in corpus.WORKLOADS:
        print(f"kgbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    units = load_units()

    import logging

    import ray
    from ray.data import DataContext

    logging.getLogger("ray").setLevel(logging.ERROR)
    work_root = ROOT / ".bench_run"
    work = work_root / f"{args.workload}-s{args.seed}-{os.getpid()}"
    temp_dir = ray_temp_dir(work_root)
    tally, recs, metrics_rounds = Tally(), [], []
    detail: dict = {"workload": args.workload, "seed": args.seed,
                    "trace": args.trace, "host": host_facts()}
    setup: dict = {}
    try:
        setup["ray_init_s"] = start_ray(temp_dir)
        DataContext.get_current().enable_progress_bars = False
        bench = Bench(args.workload, args.seed, args.scale, work)
        setup["synth_s"] = bench.synth_s
        if bench.template is not None:
            setup["template_s"] = bench.build_template()
        t0 = time.perf_counter()
        for _ in range(WARMUP_BUILDS):
            timed_build(bench, work / "warmup", tally)
        setup["warmup_s"] = time.perf_counter() - t0
        detail.update(n_docs=bench.n_docs, input_bytes=bench.corpus.input_bytes)

        from layers import Tracer

        tr = Tracer(f"{args.workload}-s{args.seed}")
        # a build starts only if, as long as the last one, it would end
        # within --seconds (the first always starts)
        start, last = time.perf_counter(), 0.0
        while time.perf_counter() - start + last < args.seconds:
            t0 = time.perf_counter()
            if args.trace:
                metrics_rounds.append(traced_round(bench, work / "run", tally, tr))
            else:
                recs.append(timed_build(bench, work / "run", tally))
            last = time.perf_counter() - t0
        if args.trace:
            spans_path = work_root / f"spans-{args.workload}-s{args.seed}.json"
            spans_path.write_text(json.dumps(tr.spans))
            detail["spans"] = str(spans_path.relative_to(ROOT))
    finally:
        ray.shutdown()
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(temp_dir, ignore_errors=True)

    detail["setup"] = setup
    if args.trace:
        values = {k: statistics.median(r[k] for r in metrics_rounds)
                  for k in (metrics_rounds[0] if metrics_rounds else {})}
        detail["rounds"] = len(metrics_rounds)
    else:
        values = summarize(recs) if recs else {}
        values["setup_s"] = sum(setup.values())
        values.update(
            doc_pass_share=1 - tally.docs_failed / max(1, tally.docs),
            run_pass_share=1 - tally.runs_failed / max(1, tally.runs))
        detail["build_s_all"] = [r["build_s"] for r in recs]
        # with fewer than ten builds no percentile above the median has
        # ten samples beyond it; the max is reported with its n instead
        detail["build_s_max"] = max(detail["build_s_all"], default=None)
        detail["builds"] = len(recs)
        detail["driver_start_rss_mb"] = max(
            (r["driver_start_rss_mb"] for r in recs), default=None)
    result = {
        "correct": tally.runs_failed == 0 and tally.docs_failed == 0,
        "attempted": max(1, tally.docs),
        "failed": tally.docs_failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items() if k in units and v is not None},
    }
    print(json.dumps(detail), flush=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
