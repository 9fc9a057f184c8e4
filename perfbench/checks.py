"""Output checks for one KG build against the corpus and its golden facts.

A doc fails when its ``(doc_id, subj, pred, obj)`` triple set differs
from golden, when its echoed ``(kind, text, media_ref, offset)`` span
sequence differs from the input, or when it is missing or duplicated in
the extractions.  A build fails when the committed run directory is
incomplete or ``graph/edges`` does not resolve, through
``graph/nodes``, to the golden distinct ``(subj, pred, obj)`` set.
"""

from __future__ import annotations

import json
from pathlib import Path

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads

TRIPLE_KEY = ["doc_id", "subj", "pred", "obj"]


def failed_docs(docs: pa.Table, golden: pa.Table, extractions: pa.Table,
                triples: pa.Table) -> set[str]:
    """Doc ids of ``docs`` that fail the triple or span-echo check.

    ``docs`` is the input ``(doc_id, spans)``; ``extractions`` holds the
    built ``(doc_id, spans)`` and ``triples`` the built
    ``(doc_id, subj, pred, obj)``.
    """
    ids = docs.column("doc_id").to_pylist()

    # span echo: exactly one extraction row per input doc, spans equal
    counts = pc.value_counts(extractions.column("doc_id")).to_pylist()
    bad = {c["values"] for c in counts if c["counts"] != 1}
    got = {r["doc_id"]: r["spans"] for r in extractions.to_pylist()}
    bad |= {r["doc_id"] for r in docs.to_pylist()
            if got.get(r["doc_id"]) != r["spans"]}

    # triples: per-doc set equality against golden
    want = golden.select(TRIPLE_KEY).to_pandas().drop_duplicates()
    have = triples.select(TRIPLE_KEY).to_pandas().drop_duplicates()
    diff = want.merge(have, on=TRIPLE_KEY, how="outer", indicator=True)
    bad |= set(diff.loc[diff["_merge"] != "both", "doc_id"])
    # an output doc absent from the input has no golden row to fail;
    # its invented facts fail ``graph_ok`` instead
    return bad & set(ids)


def graph_ok(run_dir: Path, golden: pa.Table, n_partitions: int) -> bool:
    """The committed graph resolves to the golden distinct facts."""
    rows = [json.loads(line) for line in
            (run_dir / "manifest.jsonl").read_text().splitlines() if line]
    if not {"doc_neardup", "graph_build"} <= {r["stage"] for r in rows}:
        return False
    done = {r["partition_id"] for r in rows if r["stage"] == "extract"}
    if done != set(range(n_partitions)):
        return False
    for sub in ("nodes", "edges", "mentions"):
        if not (run_dir / "graph" / sub).is_dir():
            return False
    nodes = pads.dataset(run_dir / "graph" / "nodes").to_table(
        columns=["node_id", "name"])
    edges = pads.dataset(run_dir / "graph" / "edges").to_table(
        columns=["src_id", "pred", "dst_id"])
    name = dict(zip(nodes.column("node_id").to_pylist(),
                    nodes.column("name").to_pylist()))
    got = set()
    for s, p, d in zip(*(edges.column(c).to_pylist()
                         for c in ("src_id", "pred", "dst_id"))):
        if s not in name or d not in name:
            return False
        got.add((name[s], p, name[d]))
    want = set(zip(*(golden.column(c).to_pylist()
                     for c in ("subj", "pred", "obj"))))
    return got == want


def check_run(run_dir: Path, docs: pa.Table, golden: pa.Table,
              n_partitions: int) -> tuple[int, bool]:
    """``(n_failed_docs, graph_ok)`` for one committed run directory."""
    extractions = pads.dataset(run_dir / "extractions").to_table(
        columns=["doc_id", "spans"])
    triples = pads.dataset(run_dir / "triples").to_table(columns=TRIPLE_KEY)
    n_bad = len(failed_docs(docs, golden, extractions, triples))
    return n_bad, graph_ok(run_dir, golden, n_partitions)
