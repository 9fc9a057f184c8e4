"""Extraction pipeline: interleaved docs -> extractions -> triples.

Target shape from SURVEY.md §3.1: ``read(docs) ->
map_batches(assemble) -> map_batches(extract_batch) -> [write]``.  Both
maps are stateless Ray tasks; the extractor's compiled state lives in a
per-worker-process cache (``functions/worker_state.py``), so it is built
once per worker, not once per partition, and no actor pool is started.
Everything is lazy/streaming; nothing materializes the corpus.
"""

from __future__ import annotations

import ray
import ray.data as rd

from ..functions.explode import explode_chain_edges
from ..functions.worker_state import task_concurrency
from ..schemas import TRIPLES_SCHEMA, cast_batch
from ..stages.extract import assemble_full_text, extract_batch


def default_concurrency(frac: float = 0.75, lo: int = 1) -> int:
    """Cap on concurrent extraction tasks, sized from the cluster CPU
    budget.

    Leaves headroom (1-frac) so the read / write / shuffle stages are not
    starved (ray_guide.md: a stage that reserves every CPU serializes the
    pipeline).
    """
    cpus = int(ray.cluster_resources().get("CPU", 4)) if ray.is_initialized() else 4
    return max(lo, int(cpus * frac))


def extract_pipeline(
    docs: rd.Dataset,
    *,
    concurrency: int | tuple[int, int] | None = None,
    batch_size: int = 256,
    max_triples_per_doc: int | None = None,
) -> rd.Dataset:
    """docs (DOCS_SCHEMA) -> extractions (EXTRACTION_SCHEMA), streaming.

    ``concurrency`` caps the concurrent extraction tasks; a ``(lo, hi)``
    tuple caps them at ``hi``.
    """
    if concurrency is None:
        concurrency = default_concurrency()
    ds = docs.map_batches(assemble_full_text, batch_format="pyarrow",
                          batch_size=batch_size, zero_copy_batch=True)
    return ds.map_batches(
        extract_batch,
        fn_kwargs={"max_triples_per_doc": max_triples_per_doc},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=task_concurrency(concurrency),
        num_cpus=1,
    )


def triples_from_extractions(extractions: rd.Dataset) -> rd.Dataset:
    """Flatten logical_chains[].edges[] into the triples table.

    A triple is ``(edge.source_node, edge.type, edge.target_node)``
    (reference ``core.py:16-22``); the explode is pure Arrow
    (``functions/explode.py``) — stateless tasks, no shuffle (per-doc
    parallel on ``doc_id``, SURVEY.md §4.3).
    """
    return extractions.map_batches(
        lambda b: cast_batch(explode_chain_edges(b), TRIPLES_SCHEMA),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
