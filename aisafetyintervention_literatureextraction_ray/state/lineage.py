"""Per-partition checkpointed lineage (SURVEY.md §4.2).

Generalizes the reference's only resume mechanism — "output JSON file
exists => paper done" (``extract.py:68-71``) — to partition-grained
lineage for a distributed run: the input is processed as explicit
partitions; each completed partition appends a manifest row
``(stage, partition_id, n_rows, checksum, wall_time_s)``; on restart,
completed ``(stage, partition_id)`` pairs are skipped (the anti-join of
SURVEY.md §2.4 J2, applied at partition granularity so pruning happens
before any row is read).

The manifest doubles as the per-partition metrics stream the north rule
asks for.  Writes are atomic at line granularity (single append +
flush); every output directory (a partition's, the graph's, the
near-dup pairs') is written to a temp path and renamed, so a crash
mid-write leaves no partial output visible.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from ..functions.hashing import stable_u64


class Manifest:
    """Append-only JSONL lineage manifest for one pipeline run dir."""

    def __init__(self, run_dir: str | os.PathLike) -> None:
        self.run_dir = Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.path = self.run_dir / "manifest.jsonl"

    def rows(self) -> list[dict]:
        if not self.path.exists():
            return []
        with open(self.path, encoding="utf-8") as f:
            return [json.loads(line) for line in f if line.strip()]

    def completed(self, stage: str) -> dict[int, dict]:
        """Latest manifest row per completed partition of ``stage``."""
        out: dict[int, dict] = {}
        for row in self.rows():
            if row["stage"] == stage:
                out[int(row["partition_id"])] = row
        return out

    def mark(self, stage: str, partition_id: int, *, n_rows: int,
             checksum: str, wall_time_s: float, extra: dict | None = None) -> None:
        row = {
            "stage": stage,
            "partition_id": int(partition_id),
            "n_rows": int(n_rows),
            "checksum": checksum,
            "wall_time_s": round(float(wall_time_s), 3),
            "completed_at": time.time(),
        }
        if extra:
            row.update(extra)
        with open(self.path, "a", encoding="utf-8") as f:
            f.write(json.dumps(row) + "\n")
            f.flush()
            os.fsync(f.fileno())


def order_free_checksum(doc_ids: list[str]) -> str:
    """Order-independent content checksum over a partition's keys."""
    acc = 0
    for did in doc_ids:
        acc ^= stable_u64(did)
    return f"{acc:016x}"


def atomic_dir(final: Path):
    """Context for writing one output directory atomically.

    Usage::

        with atomic_dir(out / f"part={pid}") as tmp:
            ds.write_parquet(str(tmp))
        # on success tmp replaces ``final``; on failure ``final`` is
        # left as it was

    The output is built in the ``_tmp_<name>`` sibling; the previous
    ``final`` moves aside to ``_old_<name>`` only for the two renames
    of the swap, then is deleted.  A process that died between those
    two renames left ``_old_<name>`` and no ``final``: the next call
    moves it back first, so the previous output survives the crash.
    """
    import contextlib
    import shutil

    @contextlib.contextmanager
    def cm():
        tmp = final.with_name(f"_tmp_{final.name}")
        old = final.with_name(f"_old_{final.name}")
        if old.exists() and not final.exists():
            old.rename(final)
        for d in (tmp, old):
            if d.exists():
                shutil.rmtree(d)
        tmp.mkdir(parents=True)
        yield tmp
        if final.exists():
            final.rename(old)
        tmp.rename(final)
        shutil.rmtree(old, ignore_errors=True)

    return cm()
