"""Lineage / resume: kill-after-partition-k restart yields identical output."""

import shutil
from pathlib import Path

import numpy as np
import pyarrow.dataset as pads
import pytest
import ray.data as rd

from aisafetyintervention_literatureextraction_ray.fixtures import docs_batch
from aisafetyintervention_literatureextraction_ray.pipelines.full import (
    run_full,
    run_partitioned_extraction,
)
from aisafetyintervention_literatureextraction_ray.state.lineage import Manifest

N_DOCS, P = 80, 4


def make_part(pid):
    lo, hi = pid * N_DOCS // P, (pid + 1) * N_DOCS // P
    return rd.from_arrow(docs_batch(np.arange(lo, hi)))


@pytest.fixture()
def run_dir(tmp_path):
    d = tmp_path / "run"
    yield d
    shutil.rmtree(d, ignore_errors=True)


def _triples_table(run_dir):
    return (
        pads.dataset(Path(run_dir) / "triples")
        .to_table()
        .sort_by([("doc_id", "ascending"), ("chain_id", "ascending"),
                  ("edge_idx", "ascending")])
    )


def test_resume_after_partial_run(run_dir):
    # full reference run
    ref_dir = run_dir.parent / "ref"
    run_partitioned_extraction(make_part, P, ref_dir, concurrency=(1, 2))
    ref = _triples_table(ref_dir)

    # "crashed" run: only partitions 0-1 completed
    class Boom(RuntimeError):
        pass

    def flaky(pid):
        if pid >= 2:
            raise Boom()
        return make_part(pid)

    with pytest.raises(Boom):
        run_partitioned_extraction(flaky, P, run_dir, concurrency=(1, 2))
    m = Manifest(run_dir)
    assert sorted(m.completed("extract")) == [0, 1]

    # restart: completed partitions are skipped, output byte-identical
    stats = run_partitioned_extraction(make_part, P, run_dir, concurrency=(1, 2))
    assert stats["skipped"] == 2 and stats["ran"] == 2
    assert _triples_table(run_dir).equals(ref)


def test_no_partial_partition_visible(run_dir):
    """A crash mid-partition leaves no part=K directory behind (atomic
    tmp-dir rename)."""
    def exploding(pid):
        if pid == 1:
            raise RuntimeError("mid-run crash")
        return make_part(pid)

    with pytest.raises(RuntimeError):
        run_partitioned_extraction(exploding, P, run_dir, concurrency=(1, 2),
                                   max_inflight=1)
    parts = sorted(p.name for p in (run_dir / "extractions").iterdir())
    # the failed partition left nothing behind — no partial part=1, no
    # _tmp_part debris; partitions that were already in flight may have
    # completed (and are in the manifest)
    assert "part=1" not in parts
    assert not any(p.startswith("_tmp") for p in parts)
    completed = set(Manifest(run_dir).completed("extract"))
    assert {int(p.split("=")[1]) for p in parts} == completed


def test_manifest_metrics(run_dir):
    run_partitioned_extraction(make_part, P, run_dir, concurrency=(1, 2))
    rows = Manifest(run_dir).rows()
    assert len(rows) == P
    for r in rows:
        assert r["n_rows"] == N_DOCS // P
        assert r["wall_time_s"] > 0
        assert len(r["checksum"]) == 16


def test_full_run_idempotent(run_dir):
    r1 = run_full(make_part, P, run_dir, canonicalize_mode="lsh",
                  concurrency=(1, 2))
    r2 = run_full(make_part, P, run_dir, canonicalize_mode="lsh",
                  concurrency=(1, 2))
    assert r2["extract"]["skipped"] == P
    assert r1["n_triples"] == r2["n_triples"]
    assert r1["graph"]["n_nodes"] == r2["graph"]["n_nodes"]
    assert r1["graph"]["n_edges"] == r2["graph"]["n_edges"]


def _map_worker_actors() -> int:
    """Actors ever started for ``map_batches`` actor pools this session
    (dead ones included); Ray Data's own internal actors do not count."""
    from ray._private.state import actors

    return sum("MapWorker" in a.get("ActorClassName", "")
               for a in actors().values())


def test_build_starts_no_map_actor(run_dir):
    """Extraction and endpoint resolution run as tasks over per-process
    state: once a build has run, another build starts no actor pool."""
    run_full(make_part, P, run_dir.parent / "warm", concurrency=(1, 2))
    before = _map_worker_actors()
    r = run_full(make_part, P, run_dir, concurrency=(1, 2))
    assert r["extract"]["ran"] == P and r["graph"]["n_edges"] > 0
    assert _map_worker_actors() == before


def test_raw_response_persisted_per_partition(run_dir):
    """S4: every extraction partition carries the raw pre-parse JSON
    artifact, and it round-trips to the parsed columns."""
    import json

    run_partitioned_extraction(make_part, P, run_dir, concurrency=(1, 2))
    for pid in range(P):
        t = pads.dataset(Path(run_dir) / "extractions" / f"part={pid}").to_table(
            columns=["doc_id", "nodes", "logical_chains", "raw_response"])
        assert t.num_rows == N_DOCS // P
        assert t.column("raw_response").null_count == 0
        raw = json.loads(t.column("raw_response").to_pylist()[0])
        assert set(raw) == {"nodes", "logical_chains"}
        # raw is the same structure the parsed columns hold
        assert [n["name"] for n in raw["nodes"]] == [
            n["name"] for n in t.column("nodes").to_pylist()[0]]


def test_run_graph_build_shuffle_path_matches_broadcast(run_dir):
    """local_triple_limit=0 forces run_graph_build through the fully
    distributed placement (node index as a dataset + partitioned hash
    joins, the kernels per bucket); graph outputs must match the local
    placement, which runs the same kernels in one task, exactly."""
    from aisafetyintervention_literatureextraction_ray.pipelines.full import (
        run_graph_build,
    )

    run_partitioned_extraction(make_part, P, run_dir, concurrency=(1, 2))

    def snap():
        out = {}
        for t, keys in (("nodes", ["node_id"]),
                        ("edges", ["src_id", "pred", "dst_id"]),
                        ("mentions", ["doc_id", "node_id"])):
            df = (pads.dataset(Path(run_dir) / "graph" / t).to_table()
                  .to_pandas().sort_values(keys).reset_index(drop=True))
            out[t] = df
        return out

    r_b = run_graph_build(run_dir)  # triple count << default limit: local
    broadcast = snap()
    r_s = run_graph_build(run_dir, local_triple_limit=0)  # forced shuffle
    shuffle = snap()
    assert r_b["n_nodes"] == r_s["n_nodes"]
    assert r_b["n_edges"] == r_s["n_edges"]
    for t in ("nodes", "edges", "mentions"):
        b, s = broadcast[t], shuffle[t]
        assert sorted(b.columns) == sorted(s.columns)
        cols = sorted(b.columns)
        bb = b[cols].astype(str).to_numpy().tolist()
        ss = s[cols].astype(str).to_numpy().tolist()
        assert sorted(map(tuple, bb)) == sorted(map(tuple, ss)), t


def _graph_snapshot(run_dir) -> dict:
    out = {}
    for t, keys in (("nodes", ["node_id"]),
                    ("edges", ["src_id", "pred", "dst_id"]),
                    ("mentions", ["doc_id", "node_id"])):
        out[t] = (pads.dataset(Path(run_dir) / "graph" / t).to_table()
                  .to_pandas().sort_values(keys).reset_index(drop=True))
    return out


def _assert_same_graph(a: dict, b: dict) -> None:
    for t in ("nodes", "edges", "mentions"):
        assert sorted(a[t].columns) == sorted(b[t].columns)
        cols = sorted(a[t].columns)
        aa = a[t][cols].astype(str).to_numpy().tolist()
        bb = b[t][cols].astype(str).to_numpy().tolist()
        assert sorted(map(tuple, aa)) == sorted(map(tuple, bb)), t


def test_run_graph_build_distributed_closure_matches_driver(run_dir,
                                                            monkeypatch):
    """Forcing the measured canonicalization gate to the distributed
    side (a node limit of 0) must produce the same merged graph
    (nodes/edges/mentions) and merge count as the default one-task
    closure — the default pipeline reaches the distributed closure
    purely from measurement."""
    from aisafetyintervention_literatureextraction_ray.pipelines import (
        canonicalization,
    )
    from aisafetyintervention_literatureextraction_ray.pipelines.full import (
        run_graph_build,
    )

    run_partitioned_extraction(make_part, P, run_dir, concurrency=(1, 2))

    kw = dict(canonicalize_mode="exact", threshold=0.6)
    r_drv = run_graph_build(run_dir, **kw)
    driver = _graph_snapshot(run_dir)
    monkeypatch.setattr(canonicalization, "_LOCAL_NODE_LIMIT", 0)
    r_dst = run_graph_build(run_dir, **kw)
    dist = _graph_snapshot(run_dir)
    assert (r_drv["canon_exchange"], r_dst["canon_exchange"]) == (
        "coalesce", "shuffle")
    assert r_drv["n_merged"] > 0  # the gate must be exercised, not idle
    assert r_drv["n_merged"] == r_dst["n_merged"]
    assert r_drv["n_nodes"] == r_dst["n_nodes"]
    assert r_drv["n_edges"] == r_dst["n_edges"]
    _assert_same_graph(driver, dist)


def test_run_graph_build_top_n_canonical_placements_agree(run_dir,
                                                          monkeypatch):
    """Reference-parity top-n canonicalization gives the same nodes,
    edges, mentions and merge count on the default placement as on
    the forced-distributed one (the build's triple limit and the node
    limit both 0)."""
    from aisafetyintervention_literatureextraction_ray.pipelines import (
        canonicalization,
    )
    from aisafetyintervention_literatureextraction_ray.pipelines.full import (
        run_graph_build,
    )

    run_partitioned_extraction(make_part, P, run_dir, concurrency=(1, 2))
    kw = dict(canonicalize_mode="exact", top_n=30)
    r_loc = run_graph_build(run_dir, **kw)
    local = _graph_snapshot(run_dir)
    monkeypatch.setattr(canonicalization, "_LOCAL_NODE_LIMIT", 0)
    r_dst = run_graph_build(run_dir, local_triple_limit=0, **kw)
    dist = _graph_snapshot(run_dir)
    assert (r_loc["exchange"], r_dst["exchange"]) == ("coalesce", "shuffle")
    assert r_loc["n_merged"] > 0
    assert r_loc["n_merged"] == r_dst["n_merged"]
    _assert_same_graph(local, dist)


def test_run_graph_build_merge_exchange_follows_build_gate(run_dir,
                                                           monkeypatch):
    """A build above its triple limit whose node table is small still
    shuffles every keyed step after the canonicalization merge: the
    merge takes the build gate's exchange, not the node gate's."""
    from aisafetyintervention_literatureextraction_ray.functions import agg
    from aisafetyintervention_literatureextraction_ray.pipelines import (
        graph_build,
    )
    from aisafetyintervention_literatureextraction_ray.pipelines.full import (
        run_graph_build,
    )

    run_partitioned_extraction(make_part, P, run_dir, concurrency=(1, 2))
    steps = []
    real = agg.bucketed_apply

    def spy(ds, keys, fn, **kw):
        steps.append((tuple(keys), kw.get("exchange", "shuffle")))
        return real(ds, keys, fn, **kw)

    monkeypatch.setattr(agg, "bucketed_apply", spy)
    monkeypatch.setattr(graph_build, "bucketed_apply", spy)
    r = run_graph_build(run_dir, local_triple_limit=0,
                        canonicalize_mode="exact", threshold=0.6)
    assert r["exchange"] == "shuffle" and r["n_merged"] > 0
    edge_steps = [s for s in steps if s[0] == tuple(graph_build.EDGE_KEY)]
    assert len(edge_steps) == 2  # the build's edge reduce + the merge's
    assert {ex for _, ex in steps} == {"shuffle"}, steps


def test_local_canonicalization_no_driver_gather(run_dir, monkeypatch):
    """On the local placement canonicalization runs as Ray tasks over
    object refs: no table reaches the driver through ``ray.get`` and
    nothing is ``ray.put`` while the labels and the merge are
    computed."""
    import pandas as pd
    import pyarrow as pa
    import ray

    from aisafetyintervention_literatureextraction_ray.pipelines import full

    run_partitioned_extraction(make_part, P, run_dir, concurrency=(1, 2))
    active, gathered, puts = [], [], []
    real_get, real_put = ray.get, ray.put

    def watched(fn):
        def run(*a, **kw):
            active.append(fn.__name__)
            try:
                return fn(*a, **kw)
            finally:
                active.pop()
        return run

    def get(refs, *a, **kw):
        out = real_get(refs, *a, **kw)
        if active:
            gathered.extend(x for x in (out if isinstance(out, list)
                                        else [out])
                            if isinstance(x, (pa.Table, pd.DataFrame)))
        return out

    def put(value, *a, **kw):
        if active:
            puts.append(type(value))
        return real_put(value, *a, **kw)

    monkeypatch.setattr(full, "canonical_labels",
                        watched(full.canonical_labels))
    monkeypatch.setattr(full, "merge", watched(full.merge))
    monkeypatch.setattr(ray, "get", get)
    monkeypatch.setattr(ray, "put", put)
    r = full.run_graph_build(run_dir, canonicalize_mode="exact",
                             threshold=0.6)
    assert (r["exchange"], r["canon_exchange"]) == ("coalesce", "coalesce")
    assert r["n_merged"] > 0
    assert not gathered and not puts, (gathered, puts)


def _entity_free_part(pid):
    """Docs whose text names no gazetteer entity: zero node mentions."""
    import pyarrow as pa

    from aisafetyintervention_literatureextraction_ray.schemas import DOCS_SCHEMA

    return rd.from_arrow(pa.Table.from_pylist([
        {"doc_id": f"plain_{pid}_{i}", "title": "t", "authors": [],
         "date_published": None, "url": None,
         "spans": [{"kind": "text", "text": "nothing of note is said here.",
                    "media_ref": "", "offset": 0}]}
        for i in range(3)], schema=DOCS_SCHEMA))


@pytest.mark.parametrize("limit,exchange", [(2_000_000, "coalesce"),
                                            (-1, "shuffle")])
def test_run_graph_build_empty_corpus(run_dir, limit, exchange):
    """A corpus in which no entity is extracted builds typed-empty
    graph tables and a graph_build manifest row on both placements (a
    limit below any count, -1, forces the distributed one), with and
    without canonicalization."""
    from aisafetyintervention_literatureextraction_ray.pipelines.full import (
        run_graph_build,
    )
    from aisafetyintervention_literatureextraction_ray.schemas import (
        EDGES_SCHEMA,
        MENTIONS_SCHEMA,
        NODES_SCHEMA,
    )

    run_partitioned_extraction(_entity_free_part, 2, run_dir,
                               concurrency=(1, 2))
    for mode in (None, "lsh"):
        r = run_graph_build(run_dir, canonicalize_mode=mode,
                            local_triple_limit=limit)
        assert (r["n_nodes"], r["n_edges"], r["n_merged"],
                r["exchange"]) == (0, 0, 0, exchange)
        for name, schema in (("nodes", NODES_SCHEMA), ("edges", EDGES_SCHEMA),
                             ("mentions", MENTIONS_SCHEMA)):
            ds = pads.dataset(Path(run_dir) / "graph" / name)
            assert ds.count_rows() == 0
            assert ds.schema.remove_metadata() == schema, name
        (row,) = Manifest(run_dir).completed("graph_build").values()
        assert (row["n_rows"], row["n_nodes"]) == (0, 0)


def test_doc_neardup_no_pairs_writes_typed_empty(run_dir):
    """A corpus without near-dups leaves a typed-empty neardup_pairs/,
    not a directory without a schema."""
    from aisafetyintervention_literatureextraction_ray.pipelines.full import (
        run_doc_neardup,
    )
    from aisafetyintervention_literatureextraction_ray.schemas import (
        NEARDUP_SCHEMA,
    )

    run_partitioned_extraction(make_part, P, run_dir, concurrency=(1, 2))
    assert run_doc_neardup(run_dir)["n_pairs"] == 0
    ds = pads.dataset(Path(run_dir) / "neardup_pairs")
    assert ds.count_rows() == 0
    assert ds.schema.remove_metadata() == NEARDUP_SCHEMA


@pytest.mark.parametrize("limit,exchange", [(2_000_000, "coalesce"),
                                            (-1, "shuffle")])
def test_doc_neardup_placements_record_gate(run_dir, monkeypatch, limit,
                                            exchange):
    """Both placements of the near-dup gate (a limit below any count,
    -1, forces the bucketed one) find the same pairs, and the result and
    the manifest row record the measured count, the limit and the
    exchange."""
    from aisafetyintervention_literatureextraction_ray.pipelines.full import (
        run_doc_neardup,
    )
    from aisafetyintervention_literatureextraction_ray.schemas import (
        NEARDUP_SCHEMA,
    )
    from aisafetyintervention_literatureextraction_ray.stages import dedup

    # 2 partitions x 3 docs of one text: 15 pairs of jaccard 1.0
    run_partitioned_extraction(_entity_free_part, 2, run_dir,
                               concurrency=(1, 2))
    monkeypatch.setattr(dedup, "_LOCAL_SIG_LIMIT", limit)
    r = run_doc_neardup(run_dir)
    gate = {"sigs_in": 6, "sig_limit": limit, "exchange": exchange}
    assert {k: r[k] for k in gate} == gate and r["n_pairs"] == 15
    (row,) = Manifest(run_dir).completed("doc_neardup").values()
    assert {k: row[k] for k in gate} == gate and row["n_rows"] == 15
    t = pads.dataset(Path(run_dir) / "neardup_pairs").to_table()
    assert t.schema.remove_metadata() == NEARDUP_SCHEMA
    ids = sorted(f"plain_{p}_{i}" for p in range(2) for i in range(3))
    assert sorted(zip(t["id_a"].to_pylist(), t["id_b"].to_pylist(),
                      t["jaccard"].to_pylist())) == [
        (a, b, 1.0) for k, a in enumerate(ids) for b in ids[k + 1:]]


def test_local_doc_neardup_no_driver_gather(run_dir, monkeypatch):
    """On the local placement near-dup runs as one Ray task that reads
    the signatures itself: outside the sink's own write, no table
    reaches the driver through ``ray.get`` and nothing is ``ray.put``."""
    import pandas as pd
    import pyarrow as pa
    import ray

    from aisafetyintervention_literatureextraction_ray.pipelines import full

    run_partitioned_extraction(_entity_free_part, 2, run_dir,
                               concurrency=(1, 2))
    writing, gathered, puts = [], [], []
    real_get, real_put, real_write = ray.get, ray.put, full._write

    def get(refs, *a, **kw):
        out = real_get(refs, *a, **kw)
        if not writing:
            gathered.extend(x for x in (out if isinstance(out, list)
                                        else [out])
                            if isinstance(x, (pa.Table, pd.DataFrame)))
        return out

    def put(value, *a, **kw):
        if not writing:
            puts.append(type(value))
        return real_put(value, *a, **kw)

    def write(*a, **kw):
        writing.append(1)
        try:
            return real_write(*a, **kw)
        finally:
            writing.pop()

    monkeypatch.setattr(ray, "get", get)
    monkeypatch.setattr(ray, "put", put)
    monkeypatch.setattr(full, "_write", write)
    r = full.run_doc_neardup(run_dir)
    assert (r["exchange"], r["n_pairs"]) == ("coalesce", 15)
    assert not gathered and not puts, (gathered, puts)


def test_graph_swap_is_atomic(run_dir, monkeypatch):
    """A build whose writer fails after the first sink leaves the
    previous graph/ in place, readable and byte-for-byte unchanged."""
    import threading

    from aisafetyintervention_literatureextraction_ray.pipelines.full import (
        run_graph_build,
    )

    run_partitioned_extraction(make_part, P, run_dir, concurrency=(1, 2))
    run_graph_build(run_dir)
    graph = Path(run_dir) / "graph"

    def files():
        return {p.relative_to(graph): p.read_bytes()
                for p in sorted(graph.rglob("*")) if p.is_file()}

    before = files()
    write, lock, calls = rd.Dataset.write_parquet, threading.Lock(), []

    def write_then_fail(self, path, **kw):
        with lock:
            calls.append(path)
            first = len(calls) == 1
        if not first:
            raise OSError("disk full")
        return write(self, path, **kw)

    monkeypatch.setattr(rd.Dataset, "write_parquet", write_then_fail)
    with pytest.raises(OSError, match="disk full"):
        run_graph_build(run_dir)
    assert len(calls) == 3
    assert files() == before
    for name in ("nodes", "edges", "mentions"):
        assert pads.dataset(graph / name).count_rows() > 0


def test_atomic_dir_recovers_an_interrupted_swap(tmp_path):
    """A process that died between the swap's two renames left
    ``_old_<name>`` (the previous output), the complete ``_tmp_<name>``
    and no ``<name>``.  The next ``atomic_dir`` moves the previous output
    back, so a rebuild that fails too still leaves it readable."""
    from aisafetyintervention_literatureextraction_ray.state.lineage import (
        atomic_dir,
    )

    final = tmp_path / "graph"
    for name, text in (("_old_graph", "previous"), ("_tmp_graph", "new")):
        (tmp_path / name).mkdir()
        (tmp_path / name / "part.parquet").write_text(text)

    with pytest.raises(OSError, match="disk full"):
        with atomic_dir(final) as tmp:
            assert (final / "part.parquet").read_text() == "previous"
            assert not list(tmp.iterdir())
            raise OSError("disk full")
    assert (final / "part.parquet").read_text() == "previous"
    assert not (tmp_path / "_old_graph").exists()

    with atomic_dir(final) as tmp:
        (tmp / "part.parquet").write_text("rebuilt")
    assert (final / "part.parquet").read_text() == "rebuilt"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["graph"]


def test_local_build_is_chunk_free(run_dir, monkeypatch):
    """The one-task build streams its input chunk by chunk; chunks of a
    few rows give the same graph tables as one chunk per table."""
    from aisafetyintervention_literatureextraction_ray.pipelines import (
        graph_build as gb,
    )

    run_partitioned_extraction(make_part, P, run_dir, concurrency=(1, 2))
    whole = gb._build_local._function(str(run_dir))
    monkeypatch.setattr(gb, "_CHUNK_ROWS", 7)
    chunked = gb._build_local._function(str(run_dir))
    assert [t.num_rows for t in whole] == [t.num_rows for t in chunked]
    assert min(t.num_rows for t in whole) > 0
    for a, b in zip(whole, chunked):
        assert b.equals(a)
