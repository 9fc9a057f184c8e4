"""Per-worker-process state for stateless Ray Data map tasks.

The KG build's stateful stage (the triple extractor) runs as plain
``map_batches`` tasks, not actor pools:
Ray reuses its worker processes across tasks, so state built on the
first batch a process sees serves every later task in that process.
That costs one build per worker, not one actor pool per partition or
per build.

Each slot holds ONE entry, replaced when its key changes, so a task
is never served state built for other settings, and at most one state per slot stays resident per process.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable
from typing import Any

_SLOTS: dict[str, tuple[Hashable, Any]] = {}


def process_cached(slot: str, key: Hashable, build: Callable[[], Any]) -> Any:
    """This process's state for ``slot``, built by ``build()`` unless
    the entry already there was built for ``key``."""
    hit = _SLOTS.get(slot)
    if hit is not None and hit[0] == key:
        return hit[1]
    # release the old state before building its replacement
    _SLOTS.pop(slot, None)
    value = build()
    _SLOTS[slot] = (key, value)
    return value


def task_concurrency(concurrency: int | tuple[int, int] | None) -> int | None:
    """Cap on concurrent map tasks: an int as is, a ``(lo, hi)`` bound
    (the actor-pool form callers may still pass) as its upper bound."""
    if isinstance(concurrency, tuple):
        return concurrency[1]
    return concurrency
