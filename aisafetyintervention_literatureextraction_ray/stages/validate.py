"""Schema/bounds validation with a quarantine side output (SURVEY.md P4).

The reference validates with pydantic ``extra="forbid"`` models and
RAISES on the first bad record (``db.py:62`` ``OutputSchema(**data)``).
A streaming pipeline must not die on one malformed row: this stage
checks the PaperSchema bounds (edge_confidence 1-5 ``core.py:21``,
intervention_lifecycle 1-6 / maturity 1-4 ``core.py:11-12``, edge
endpoints resolving to declared nodes) per batch, passes valid rows
through, and writes invalid rows to a quarantine directory from within
the stateless map task (file name = content hash, so retries are
idempotent).
"""

from __future__ import annotations

from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq

from ..functions.hashing import stable_id


def _row_valid(nodes, chains) -> bool:
    declared = set()
    for n in nodes or []:
        if n["type"] not in ("concept", "intervention"):
            return False
        if n["type"] == "intervention":
            if not (n["intervention_lifecycle"] is not None
                    and 1 <= n["intervention_lifecycle"] <= 6):
                return False
            if not (n["intervention_maturity"] is not None
                    and 1 <= n["intervention_maturity"] <= 4):
                return False
        else:
            # rubric fpp.py:234: concepts never carry intervention fields
            if (n["intervention_lifecycle"] is not None
                    or n["intervention_maturity"] is not None):
                return False
        declared.add(n["name"])
    for chain in chains or []:
        if not chain["edges"]:  # rubric: chains are non-empty
            return False
        for e in chain["edges"]:
            if e["edge_confidence"] is None or not (1 <= e["edge_confidence"] <= 5):
                return False
            if e["source_node"] not in declared or e["target_node"] not in declared:
                return False
    return True


def quarantine_invalid(batch: pa.Table, quarantine_dir: str | None) -> pa.Table:
    """``map_batches`` task (``batch_format="pyarrow"``): valid rows out,
    invalid rows written to ``quarantine_dir`` (``None`` drops them
    silently)."""
    nodes = batch.column("nodes").to_pylist()
    chains = batch.column("logical_chains").to_pylist()
    mask = [_row_valid(n, c) for n, c in zip(nodes, chains)]
    if all(mask):
        return batch
    bad = batch.filter(pa.array([not m for m in mask]))
    if quarantine_dir and bad.num_rows:
        qdir = Path(quarantine_dir)
        qdir.mkdir(parents=True, exist_ok=True)
        # content-keyed name (the sorted bad doc ids): concurrent tasks
        # never collide and a retried task rewrites the same file
        key = stable_id(*sorted(bad.column("doc_id").to_pylist()))
        pq.write_table(bad, qdir / f"quarantine-{key}.parquet")
    return batch.filter(pa.array(mask))


def validate_extractions(ds, quarantine_dir: str | None = None,
                         batch_size: int = 1024):
    return ds.map_batches(
        quarantine_invalid, fn_kwargs={"quarantine_dir": quarantine_dir},
        batch_format="pyarrow", batch_size=batch_size)
