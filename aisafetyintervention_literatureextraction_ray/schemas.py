"""Pinned Arrow schemas for every stage boundary.

Arrow mirrors of the reference's data model (SURVEY.md §1.4):

* ``DOCS_SCHEMA``        — interleaved-document input table, shape fixed by
  BASELINE.json ``input_hint``.
* ``EXTRACTION_SCHEMA``  — per-doc structured extraction; exact Arrow mirror of
  the reference's ``PaperSchema`` pydantic model
  (reference ``src/local_graph_extraction/core.py:5-34``).
* ``TRIPLES_SCHEMA``     — flattened chain edges; a triple is
  ``(edge.source_node, edge.type, edge.target_node)``
  (reference ``core.py:16-22``).
* ``NODES_SCHEMA`` / ``EDGES_SCHEMA`` — materialized graph tables with the
  FalkorDB MERGE upsert keys ``(type, name_norm)`` / ``(src_id, pred,
  dst_id)`` (reference ``db.py:42`` / ``db.py:50-53``).

Schema enforcement replaces the reference's pydantic ``extra="forbid"``
gate (``core.py:13,22,28,34``): every pipeline stage casts its output to
the pinned schema, so drift fails fast instead of silently widening.
"""

from __future__ import annotations

import pyarrow as pa

# --------------------------------------------------------------------------
# Input: interleaved text + media documents (BASELINE.json input_hint)
# --------------------------------------------------------------------------

SPAN_TYPE = pa.struct(
    [
        pa.field("kind", pa.string()),       # "text" | "image" | "audio" | "pdf"
        pa.field("text", pa.string()),       # prose for kind=text, "" otherwise
        pa.field("media_ref", pa.string()),  # "" for text; "media://<doc>/<i>"
        pa.field("offset", pa.int32()),      # 0-based position within doc
    ]
)

DOCS_SCHEMA = pa.schema(
    [
        pa.field("doc_id", pa.string()),
        pa.field("spans", pa.list_(SPAN_TYPE)),
        pa.field("title", pa.string()),
        pa.field("authors", pa.list_(pa.string())),
        pa.field("date_published", pa.string()),
        pa.field("url", pa.string()),
    ]
)

# --------------------------------------------------------------------------
# Per-doc structured extraction (PaperSchema mirror, core.py:5-34)
# --------------------------------------------------------------------------

NODE_TYPE = pa.struct(
    [
        pa.field("name", pa.string()),
        pa.field("aliases", pa.list_(pa.string())),
        pa.field("type", pa.string()),  # "concept" | "intervention"
        pa.field("description", pa.string()),
        pa.field("concept_category", pa.string()),          # concept-only, else null
        pa.field("intervention_lifecycle", pa.int8()),      # 1-6, intervention-only
        pa.field("intervention_maturity", pa.int8()),       # 1-4, intervention-only
    ]
)

EDGE_TYPE = pa.struct(
    [
        pa.field("type", pa.string()),          # free-form relationship verb
        pa.field("source_node", pa.string()),   # by node name (string FK)
        pa.field("target_node", pa.string()),
        pa.field("description", pa.string()),
        pa.field("edge_confidence", pa.int8()),  # 1-5
    ]
)

CHAIN_TYPE = pa.struct(
    [
        pa.field("title", pa.string()),
        pa.field("edges", pa.list_(EDGE_TYPE)),
    ]
)

EXTRACTION_SCHEMA = pa.schema(
    [
        pa.field("doc_id", pa.string()),
        # spans are echoed through unchanged: the per-row invariant
        # (kind, text, media_ref, order) must survive extraction.
        pa.field("spans", pa.list_(SPAN_TYPE)),
        pa.field("nodes", pa.list_(NODE_TYPE)),
        pa.field("logical_chains", pa.list_(CHAIN_TYPE)),
        # per-doc MinHash signature over the assembled text, computed in
        # the same extraction pass (training pipelines dedup at ingest;
        # one scan produces both the KG structures and the dedup sketch).
        pa.field("minhash_sig", pa.list_(pa.uint32())),
        # S4: the extractor's full raw structured output as JSON, persisted
        # per partition BEFORE any downstream parsing — the analogue of the
        # reference's per-paper raw-response dump (extract.py:77-80).
        # Downstream stages never read it (every re-read prunes columns).
        pa.field("raw_response", pa.string()),
    ]
)

# --------------------------------------------------------------------------
# Flattened triples (SURVEY.md §1.4)
# --------------------------------------------------------------------------

TRIPLES_SCHEMA = pa.schema(
    [
        pa.field("doc_id", pa.string()),
        pa.field("chain_id", pa.int32()),
        pa.field("edge_idx", pa.int32()),
        pa.field("subj", pa.string()),
        pa.field("pred", pa.string()),
        pa.field("obj", pa.string()),
        pa.field("description", pa.string()),
        pa.field("confidence", pa.int8()),
    ]
)

# --------------------------------------------------------------------------
# Materialized graph tables (FalkorDB MERGE semantics, db.py:34-54)
# --------------------------------------------------------------------------

NODES_SCHEMA = pa.schema(
    [
        pa.field("node_id", pa.string()),     # stable hash of (type, name_norm)
        pa.field("type", pa.string()),
        pa.field("name_norm", pa.string()),   # upsert-key component
        pa.field("name", pa.string()),
        pa.field("aliases", pa.list_(pa.string())),
        pa.field("description", pa.string()),
        pa.field("concept_category", pa.string()),
        pa.field("intervention_lifecycle", pa.int8()),
        pa.field("intervention_maturity", pa.int8()),
        pa.field("n_provenance", pa.int64()),  # number of contributing docs
    ]
)

EDGES_SCHEMA = pa.schema(
    [
        pa.field("src_id", pa.string()),
        pa.field("pred", pa.string()),
        pa.field("dst_id", pa.string()),
        pa.field("subj", pa.string()),
        pa.field("obj", pa.string()),
        pa.field("description", pa.string()),
        pa.field("confidence", pa.int8()),
        pa.field("n_provenance", pa.int64()),
    ]
)

# PAPER -[mentions]-> node provenance edges, one row per (doc_id, node_id)
MENTIONS_SCHEMA = pa.schema(
    [
        pa.field("doc_id", pa.string()),
        pa.field("node_id", pa.string()),
        pa.field("n_mentions", pa.int64()),
        pa.field("pred", pa.string()),
    ]
)

GOLDEN_TRIPLES_SCHEMA = pa.schema(
    [
        pa.field("doc_id", pa.string()),
        pa.field("subj", pa.string()),
        pa.field("pred", pa.string()),
        pa.field("obj", pa.string()),
        pa.field("confidence", pa.int8()),
    ]
)


def cast_batch(batch: pa.Table, schema: pa.Schema) -> pa.Table:
    """Cast ``batch`` to the pinned ``schema`` (column order + types).

    The Arrow analogue of the reference's pydantic validation gate
    (``core.py:13`` ``extra="forbid"``): extra columns are an error,
    missing columns are an error, type drift is an error.
    """
    cols = []
    for field in schema:
        if field.name not in batch.column_names:
            raise ValueError(f"missing column {field.name!r}; have {batch.column_names}")
        cols.append(batch.column(field.name).cast(field.type))
    extra = set(batch.column_names) - set(schema.names)
    if extra:
        raise ValueError(f"unexpected columns {sorted(extra)}")
    return pa.Table.from_arrays(cols, schema=schema)
