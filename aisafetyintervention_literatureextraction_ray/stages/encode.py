"""Embedding encoder kernel (stateless, deterministic hashing encoder).

Replaces the reference's OpenAI Batch-API embedding round-trip
(``merge.py:35-70``: write request JSONL -> upload -> 24h batch job ->
poll -> parse vectors) with one pure ``pa.Table -> pa.Table`` function
that runs inside any ``map_batches`` task: vectors are just another
column (``list<float32>``), never a driver-resident matrix (the
reference holds all embeddings in driver RAM at ``merge.py:70`` — its
scalability ceiling, SURVEY.md ST5).

In-sandbox the encoder is a seeded feature-hashing model (dim 256
instead of the reference's 1536, ``merge.py:43``): tokens are hashed to
(index, sign) buckets, counts accumulated, L2-normalized.  Deterministic
across processes, so entity-linking results are exactly reproducible.
A model-backed encoder would replace the vector math in ``encode``
(loading its weights once per worker process through
``functions/worker_state.py::process_cached``); the Ray plumbing stays
the same.
"""

from __future__ import annotations

import re
from itertools import chain

import numpy as np
import pyarrow as pa

from ..functions.hashing import crc32_tokens

DEFAULT_DIM = 256
_TOKEN_RE = re.compile(r"[a-z0-9]+")


def encode(batch: pa.Table, *, dim: int = DEFAULT_DIM) -> pa.Table:
    """Add an ``embedding`` column (list<float32>[dim]) computed from
    ``text``: every token of the batch is crc32-hashed in one pass,
    its (bucket, sign) counts are summed with one ``np.add.at``, and
    each row is L2-normalized.  Sums of +-1 are exact in float32, so
    the result does not depend on the summation order."""
    toks = [_TOKEN_RE.findall((t or "").lower())
            for t in batch.column("text").to_pylist()]
    h = crc32_tokens(list(chain.from_iterable(toks))).astype(np.int64)
    rows = np.repeat(np.arange(len(toks)), [len(t) for t in toks])
    vecs = np.zeros((len(toks), dim), dtype=np.float32)
    np.add.at(vecs, (rows, h % dim),
              np.where((h >> 31) & 1, 1.0, -1.0).astype(np.float32))
    norms = np.linalg.norm(vecs, axis=1, keepdims=True)
    np.divide(vecs, norms, out=vecs, where=norms > 0)
    if "embedding" in batch.column_names:
        batch = batch.drop_columns(["embedding"])
    return batch.append_column("embedding", vectors_to_arrow(vecs))


def vectors_to_arrow(vecs: np.ndarray) -> pa.ListArray:
    """(n, d) float matrix -> plain list<float32> Arrow column.

    Deliberately NOT fixed_size_list: Ray Data auto-casts fixed-size
    lists to its tensor extension type, whose chunked pandas conversion
    fails inside ``map_groups`` (zero-copy constraint); plain lists
    round-trip everywhere.
    """
    n, d = vecs.shape
    offsets = pa.array(np.arange(0, (n + 1) * d, d, dtype=np.int32))
    return pa.ListArray.from_arrays(
        offsets, pa.array(vecs.reshape(-1).astype(np.float32),
                          type=pa.float32()))


def embeddings_to_numpy(col) -> np.ndarray:
    """Zero-copy-ish conversion of a (fixed_size_)list<float> column."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if isinstance(col, pa.ExtensionArray):
        # Ray's ArrowTensorArray (ndarray cells) and friends
        return np.stack(col.to_numpy(zero_copy_only=False))
    if isinstance(col, pa.FixedSizeListArray):
        dim = col.type.list_size
        return col.values.to_numpy(zero_copy_only=False).reshape(-1, dim)
    # plain list<float>: offsets must be uniform
    offsets = col.offsets.to_numpy(zero_copy_only=False)
    widths = np.diff(offsets)
    dim = int(widths[0]) if len(widths) else 0
    if len(widths) and not (widths == dim).all():
        raise ValueError("ragged embedding column")
    return (
        col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
        .reshape(-1, dim)
    )
