"""Seeded inputs for the KG-build benchmark workloads.

Each workload is a DOCS_SCHEMA corpus written as partitioned parquet
(``corpus/part=K/data.parquet``) plus its golden facts.  Everything is a
pure function of ``(workload, seed, scale)`` and is generated in this
single process, before Ray starts any work, so the timed build sees only
the parquet files.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from aisafetyintervention_literatureextraction_ray.sources import docs as docs_src

# Vocabulary and length range of the word-soup texts in the flat
# ``documents(doc_id, text, ...)`` table the engine's driver contract
# reads.  The words are disjoint from every gazetteer alias and trigger,
# so base text can never assemble a fact the golden set lacks.
BASE_VOCAB = (
    "join hash row batch scan column customer filter small slow merge order "
    "vector line table data agg value key stream window a spark part group "
    "big sort query fast the"
).split()
BASE_ROWS = 500
BASE_WORDS = (10, 100)
# paper-sized docs: 8 base texts (~300 chars each) per doc
TEXTS_PER_PAPER = 8


@dataclass(frozen=True)
class Workload:
    n_docs: int
    shards: int
    template_shards: int = 0  # shards checkpointed once in set-up


WORKLOADS = {
    "cold_papers": Workload(n_docs=1600, shards=2),
    "grow_papers": Workload(n_docs=2000, shards=4, template_shards=3),
}


@dataclass
class Corpus:
    dir: Path            # corpus/part=K/data.parquet
    docs: pa.Table       # doc_id, spans (input order, sorted by doc_id)
    golden: pa.Table     # doc_id, subj, pred, obj
    shard_rows: list[int]

    @property
    def input_bytes(self) -> int:
        return dir_bytes(self.dir)

    def shard_dir(self, pid: int) -> Path:
        return self.dir / f"part={pid}"


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def _paper_documents(n_docs: int, seed: int) -> pa.Table:
    """The flat ``documents`` table papers are derived from: each row
    joins ``TEXTS_PER_PAPER`` seeded base texts."""
    rng = np.random.default_rng((seed, 17))
    base = [" ".join(rng.choice(BASE_VOCAB, size=int(rng.integers(*BASE_WORDS))))
            for _ in range(BASE_ROWS)]
    picks = rng.integers(0, BASE_ROWS, size=(n_docs, TEXTS_PER_PAPER))
    texts = [" ".join(base[j] for j in row) for row in picks]
    return pa.table({
        "doc_id": pa.array(np.arange(n_docs), pa.int64()),
        "text": texts,
        "lang": ["en"] * n_docs,
        "source": [f"src{i % 20}" for i in range(n_docs)],
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    })


def generate(name: str, seed: int, work: Path, scale: float = 1.0) -> Corpus:
    """Write the workload's corpus under ``work`` and return it."""
    wl = WORKLOADS[name]
    n = max(8 * wl.shards, round(wl.n_docs * scale))
    src = work / "documents"
    src.mkdir(parents=True, exist_ok=True)
    pq.write_table(_paper_documents(n, seed), src / "documents.parquet")
    flat = pq.read_table(src / "documents.parquet", columns=["doc_id", "text"])
    # the batch function ``interleave_from_documents`` maps, run here
    # in-process so synthesis needs no Ray workers
    docs = docs_src._interleave_batch(flat, seed)
    golden = docs_src.golden_for_documents(str(src), seed)

    out = work / "corpus"
    if out.exists():
        shutil.rmtree(out)
    bounds = [p * n // wl.shards for p in range(wl.shards + 1)]
    for pid in range(wl.shards):
        part = out / f"part={pid}"
        part.mkdir(parents=True)
        pq.write_table(docs.slice(bounds[pid], bounds[pid + 1] - bounds[pid]),
                       part / "data.parquet")
    return Corpus(
        dir=out,
        docs=docs.select(["doc_id", "spans"]).sort_by("doc_id"),
        golden=golden.select(["doc_id", "subj", "pred", "obj"]),
        shard_rows=[bounds[p + 1] - bounds[p] for p in range(wl.shards)],
    )
