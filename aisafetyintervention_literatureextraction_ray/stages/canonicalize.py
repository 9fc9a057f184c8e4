"""Near-duplicate node canonicalization stages.

Ray-native rebuild of the reference's ``merge.py`` pipeline
(SURVEY.md §3.3): node-text projection (``db.py:81-96``) -> embed
(``merge.py:35-70``) -> ANN candidate pairs (``merge.py:72-105``) ->
best-distance-per-pair (``merge.py:85-91``) -> top-n/threshold accept
(``merge.py:92``) -> merge (``merge.py:107-109`` + ``db.py:106-155``).

Differences by design (documented in SURVEY.md §2.7):

* The reference builds ONE global usearch index in driver RAM
  (``merge.py:77-79``).  Here candidate generation is a banded
  similarity join: nodes are hashed into LSH bands/buckets and exact
  KNN runs per bucket — no global state, and the buckets shuffle when
  the node table is large.  ``exact`` mode (single bucket) reproduces
  the reference's global-KNN candidate set for parity tests at small
  scale.
* The reference merges accepted pairs sequentially without transitive
  closure (``merge.py:107-109``), which is order-dependent.  We compute
  the union-find closure over the accepted-pair set (order-independent,
  the semantically intended behavior); parity is asserted on the
  accepted-pair set itself.
* Keeper choice: the reference keeps ``node_a`` = the smaller id of the
  canonical ``(a, b), a < b`` pair key (``merge.py:88-89``, call at
  ``merge.py:107-109``).  We keep the minimum node_id per component.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .encode import embeddings_to_numpy

# ------------------------------------------------------------ text projection

_PROJ_KEYS = ("name", "aliases", "description", "concept_category",
              "intervention_lifecycle", "intervention_maturity")


def project_node_text(batch: pa.Table) -> pa.Table:
    """Render node props as ``"k=v; k=v"`` (reference ``db.py:81-96``).

    Vectorized: per-key prefix + element-wise join with null-skip;
    empty values become null and are skipped (the reference's
    ``len(v_str) > 0`` filter at ``db.py:95``); list values join with
    ``", "`` (``db.py:90-91``).  ``confidence``/``id`` style fields are
    excluded by the fixed key list; intervention lifecycle/maturity ints
    are stringified (reference ``db.py:89-91`` ``str(v)`` branch).
    """
    parts = []
    for key in _PROJ_KEYS:
        if key not in batch.column_names:
            continue
        col = batch.column(key)
        if pa.types.is_list(col.type) or pa.types.is_large_list(col.type):
            col = pc.binary_join(col, ", ")
        col = col.cast(pa.string())
        val = pc.if_else(pc.equal(pc.coalesce(col, ""), ""), pa.scalar(None, pa.string()), col)
        prefixed = pc.binary_join_element_wise(pa.scalar(f"{key}="), val, "")
        parts.append(prefixed)
    text = pc.binary_join_element_wise(*parts, "; ", null_handling="skip")
    if "text" in batch.column_names:
        batch = batch.drop_columns(["text"])
    return batch.append_column("text", text)


# ------------------------------------------------------------ LSH bucketing

@functools.lru_cache(maxsize=8)
def _planes(dim: int, n_bands: int, planes_per_band: int,
            seed: int) -> np.ndarray:
    """The seeded random hyperplanes: a pure function of its arguments
    (cached per worker process, never mutated)."""
    planes = np.random.default_rng(seed).standard_normal(
        (n_bands * planes_per_band, dim)).astype(np.float32)
    planes.setflags(write=False)
    return planes


def lsh_buckets(batch: pa.Table, *, dim: int, n_bands: int = 8,
                planes_per_band: int = 6, seed: int = 42) -> pa.Table:
    """Random-hyperplane banding: each row repeated once per band (all
    rows of band 0 first) with a ``bucket`` column keyed ``(band,
    bucket)``.  Rows sharing any band-bucket become KNN candidates."""
    if not batch.num_rows:
        return batch.append_column("bucket", pa.array([], pa.int64()))
    X = embeddings_to_numpy(batch.column("embedding")).astype(np.float32)
    planes = _planes(dim, n_bands, planes_per_band, seed)
    bits = ((X @ planes.T) > 0).reshape(len(X), n_bands, planes_per_band)
    bucket = (bits @ (1 << np.arange(planes_per_band, dtype=np.int64))
              + (np.arange(n_bands, dtype=np.int64) << 32))
    return batch.take(np.tile(np.arange(len(X)), n_bands)).append_column(
        "bucket", pa.array(bucket.T.ravel(), type=pa.int64()))


def constant_bucket(batch: pa.Table) -> pa.Table:
    """Exact mode: all rows in one bucket -> global KNN (parity with the
    reference's single driver-RAM index; small inputs only)."""
    return batch.append_column("bucket", pa.array(np.zeros(len(batch), np.int64)))


# ------------------------------------------------------------ pair generation

def make_pairgen(k: int = 40, id_col: str = "node_id",
                 max_group: int = 8192):
    """Per-bucket exact cosine KNN -> candidate pairs (id_a < id_b, distance).

    Mirrors ``merge.py:79-91``: K nearest per node, self-match dropped
    (F5), pair key canonicalized (min, max), best distance kept.  Groups
    larger than ``max_group`` are processed in row-chunks against the
    whole group (bounded memory; full coverage, no silent truncation).

    Takes and returns Arrow tables (``batch_format="pyarrow"``): Ray
    promotes uniform list columns to its tensor extension type after a
    shuffle, and that type's chunked pandas conversion fails.
    """

    def pairgen(group: pa.Table) -> pa.Table:
        n = group.num_rows
        col = group.column(id_col)
        ids = col.to_numpy(zero_copy_only=False)
        rows_a, rows_b, dists = [], [], []
        if n >= 2:
            X = embeddings_to_numpy(group.column("embedding")).astype(np.float32)
            kk = min(k + 1, n)
            for start in range(0, n, max_group):
                chunk = X[start: start + max_group]
                sims = chunk @ X.T  # vectors are L2-normalized upstream
                # top-(k+1) per row, then drop self
                idx = np.argpartition(-sims, kk - 1, axis=1)[:, :kk]
                gi = np.repeat(np.arange(len(chunk)), kk)
                j = idx.ravel()
                keep = j != gi + start
                gi, j = gi[keep], j[keep]
                dists.append(1.0 - sims[gi, j].astype(np.float64))
                gi = gi + start
                lt = ids[gi] < ids[j]
                rows_a.append(np.where(lt, gi, j))
                rows_b.append(np.where(lt, j, gi))
        a, b = (np.concatenate(r) if r else np.zeros(0, np.int64)
                for r in (rows_a, rows_b))
        return pa.table({
            "id_a": col.take(a), "id_b": col.take(b),
            "distance": pa.array(np.concatenate(dists) if dists
                                 else np.zeros(0), pa.float64())})

    return pairgen


# ------------------------------------------------------------ union-find

def union_find(pairs: list[tuple[str, str]]) -> dict[str, str]:
    """Transitive closure over accepted pairs -> {node_id: canon_id}.

    One process by design: accepted pairs are tiny relative to nodes
    (reference caps at top_n=30, ``merge.py:115``; threshold mode yields
    |pairs| ~ O(dup rate * nodes), still << corpus).  Only merged-away
    ids are keys.  Canon id = min id in the component (deterministic,
    order-independent).
    """
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            parent[hi] = lo
    return {x: find(x) for x in parent}
