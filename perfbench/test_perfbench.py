"""Tests of the KG-build benchmark itself.

    python3 -m pytest perfbench -q

The check tests run the extraction kernels in-process (no Ray); the
smoke tests run every workload end to end at a tiny scale.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pyarrow as pa
import pyarrow.compute as pc
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import corpus  # noqa: E402
from aisafetyintervention_literatureextraction_ray.functions.explode import (  # noqa: E402
    explode_chain_edges,
)
from aisafetyintervention_literatureextraction_ray.stages.extract import (  # noqa: E402
    TripleExtractor,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """A tiny corpus and its extraction outputs, built in-process."""
    c = corpus.generate("cold_papers", seed=3,
                        work=tmp_path_factory.mktemp("corpus"), scale=0.02)
    docs = pa.concat_tables(
        pa.parquet.read_table(c.shard_dir(p)) for p in range(len(c.shard_rows)))
    extr = TripleExtractor()(docs)
    return c, extr.select(["doc_id", "spans"]), explode_chain_edges(extr)


def doc_fail_share(c, extractions, triples) -> float:
    bad = checks.failed_docs(c.docs, c.golden, extractions, triples)
    return len(bad) / c.docs.num_rows


def test_clean_outputs_pass(built):
    assert doc_fail_share(*built) == 0


def test_corrupted_triple_fails_its_doc(built):
    c, extractions, triples = built
    objs = triples.column("obj").to_pylist()
    objs[0] = objs[0] + " (corrupted)"
    bad = triples.set_column(triples.schema.get_field_index("obj"), "obj",
                             pa.array(objs))
    assert doc_fail_share(c, extractions, bad) == 1 / c.docs.num_rows


def test_dropped_triple_fails_its_doc(built):
    c, extractions, triples = built
    assert doc_fail_share(c, extractions, triples.slice(1)) == \
        1 / c.docs.num_rows


def test_corrupted_span_fails_its_doc(built):
    c, extractions, triples = built
    rows = extractions.to_pylist()
    victim = next(r for r in rows if len(r["spans"]) > 1)
    victim["spans"][0], victim["spans"][1] = \
        victim["spans"][1], victim["spans"][0]
    bad = pa.Table.from_pylist(rows, schema=extractions.schema)
    assert doc_fail_share(c, bad, triples) == 1 / c.docs.num_rows


def test_missing_and_duplicated_docs_fail(built):
    c, extractions, triples = built
    dup = pa.concat_tables([extractions, extractions.slice(0, 1)])
    assert doc_fail_share(c, dup, triples) == 1 / c.docs.num_rows
    drop = extractions.filter(pc.invert(pc.equal(
        extractions.column("doc_id"), extractions.column("doc_id")[0])))
    assert doc_fail_share(c, drop, triples) == 1 / c.docs.num_rows


def test_corpus_is_a_function_of_the_seed(tmp_path):
    a = corpus.generate("grow_papers", 5, tmp_path / "a", scale=0.02)
    b = corpus.generate("grow_papers", 5, tmp_path / "b", scale=0.02)
    c = corpus.generate("grow_papers", 6, tmp_path / "c", scale=0.02)
    assert a.docs.equals(b.docs) and a.golden.equals(b.golden)
    assert not a.docs.equals(c.docs)


def run_bench(workload: str, trace: int) -> dict:
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--scale", "0.05"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert p.returncode == 0, p.stderr[-3000:]
    return json.loads(p.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run(workload, trace):
    res = run_bench(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0
    assert res["attempted"] >= 1
    want = SPEC["per_layer" if trace else "end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in want}
    for m in want:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert math.isfinite(got["value"])
    if not trace:
        assert res["metrics"]["doc_pass_share"]["value"] == 1.0
        assert res["metrics"]["run_pass_share"]["value"] == 1.0


def test_deadline_fails_the_run_and_reaps_the_session(tmp_path, capsys):
    import run

    token = f"sleep-{tmp_path.name}"
    script = tmp_path / "hang.py"
    script.write_text(
        "import subprocess, sys, time\n"
        f"subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(300)', '{token}'])\n"
        "print('partial', flush=True)\n"
        "time.sleep(300)\n")
    assert run.run([sys.executable, str(script)], deadline=2) == 0
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert res["correct"] is False
    assert res["metrics"]["run_pass_share"]["value"] == 0.0
    assert res["metrics"]["doc_pass_share"]["value"] == 0.0
    alive = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            if token in Path(f"/proc/{pid}/cmdline").read_text():
                alive.append(pid)
        except OSError:
            pass
    assert alive == []


def test_failed_measuring_process_prints_no_result(tmp_path, capsys):
    import run

    script = tmp_path / "fail.py"
    script.write_text("import sys\nsys.exit(3)\n")
    assert run.run([sys.executable, str(script)], deadline=30) == 3
    assert capsys.readouterr().out == ""
