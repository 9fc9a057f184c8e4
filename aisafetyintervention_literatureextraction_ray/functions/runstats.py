"""Loud truncation accounting for capped operators (VERDICT r3 #3).

Group caps (``stages/dedup.py::bucket_pairs``'s band bucket cap, the
SimHash ``max_group``) keep quadratic candidate generation bounded on
boilerplate-heavy corpora, but a silently-capped run reads as full
coverage.  Per the no-silent-caps rule, every truncation is reported:

* a ``logging.warning`` in the worker that truncated (visible in the
  Ray worker logs), and
* an increment on a tiny named counter actor (``num_cpus=0``, created
  lazily on the first truncation), which the driver reads after the
  run with :func:`truncation_stats`.

The actor call happens ONLY on the rare truncation path — the hot path
pays nothing — and stats failures never fail the pipeline.
"""

from __future__ import annotations

import logging

import ray

_NAME = "graft_truncation_stats"
_NAMESPACE = "graft_runstats"

log = logging.getLogger(__name__)


def _scoped_name() -> str:
    """Counter-actor name scoped by the current Ray JOB id (ADVICE r4):
    a bare global name persisted across driver sessions on a long-lived
    cluster and was shared by concurrent runs, so one run's
    ``reset=True`` could clobber another's counts.  Every driver
    session gets its own job id; workers spawned by that driver share
    it, so reports land in the session's own counter."""
    try:
        job_id = ray.get_runtime_context().get_job_id()
    except Exception:
        job_id = "nojob"
    return f"{_NAME}_{job_id}"


@ray.remote(num_cpus=0)
class _TruncationStats:
    """Per-session truncation counters keyed by operator kind."""

    def __init__(self) -> None:
        self._counts: dict[str, tuple[int, int]] = {}

    def add(self, kind: str, groups: int, dropped: int) -> None:
        g, d = self._counts.get(kind, (0, 0))
        self._counts[kind] = (g + groups, d + dropped)

    def snapshot(self) -> dict:
        return {k: {"groups": g, "dropped": d}
                for k, (g, d) in self._counts.items()}

    def reset(self) -> None:
        self._counts = {}


def report_truncation(kind: str, *, dropped: int, groups: int = 1) -> None:
    """Record a truncation event: warn in the local log and bump the
    named counter actor (fire-and-forget).  Safe to call from any Ray
    worker or the driver; a no-op counter-wise if Ray is down."""
    log.warning("%s: truncated %d group(s), dropped %d row(s) beyond the "
                "group cap — run coverage is PARTIAL for these groups",
                kind, groups, dropped)
    try:
        if not ray.is_initialized():
            return
        # detached so a transient map_batches worker's report outlives
        # its creator until the driver reads it; the job-scoped name
        # keeps it private to this driver session
        actor = _TruncationStats.options(
            name=_scoped_name(), namespace=_NAMESPACE, get_if_exists=True,
            lifetime="detached").remote()
        actor.add.remote(kind, groups, dropped)
    except Exception:  # stats must never fail the pipeline
        log.exception("truncation-stats actor unavailable")


def truncation_stats(*, reset: bool = False) -> dict:
    """Driver-side snapshot of all truncations reported this session:
    ``{kind: {"groups": n_truncated_groups, "dropped": n_rows_dropped}}``.
    Empty dict when nothing was truncated (the actor is only created on
    the first report).

    ``reset=True`` is the end-of-run read: it KILLS the detached
    counter actor after snapshotting instead of zeroing it — a detached
    actor outlives the driver by design, so a long-lived cluster would
    otherwise accumulate one per job forever.  A straggler report after
    the kill simply re-creates the actor with fresh counts, the same
    observable behavior a zeroing reset had."""
    try:
        actor = ray.get_actor(_scoped_name(), namespace=_NAMESPACE)
    except ValueError:
        return {}
    snap = ray.get(actor.snapshot.remote())
    if reset:
        ray.kill(actor, no_restart=True)
    return snap
