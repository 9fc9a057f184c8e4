"""Bigram language-model quality scoring over a document corpus.

The perplexity-filter pattern of large-scale training-data pipelines
(CCNet / Gopher style): fit an n-gram LM on the corpus, score every
document by its average token log-probability, and let downstream
stages drop the tails.  Here the LM is an add-one-smoothed bigram
model fit on the corpus itself in ONE distributed pass, then applied
in a second pass — both expressed as skinny keyed exchanges, never a
driver-side vocabulary:

1. **fit**: per-block ``(doc_id, gram, occ)`` combiners (the ragged
   token->bigram expansion is pure index arithmetic; a gram repeated
   inside a block crosses the exchange once), then keyed sums produce
   the bigram table ``c(w1 w2)``, the prefix table ``c(w1 ·)`` and the
   vocabulary size ``V`` — three aggregates over the SAME combiner
   output, each a bounded-width exchange keyed on gram strings.
2. **score**: every per-doc bigram row joins its two counts on the
   gram / prefix key (partitioned ``bucketed_join``s — the LM is NOT
   assumed to fit a broadcast at corpus scale), and per-doc scores
   reduce with a keyed sum.

Exactness contract (the DuckDB oracle replays scores bit-for-bit):
the per-bigram log-probability ``ln((c(w1 w2) + 1) / (c(w1 ·) + V))``
is computed as the identical IEEE op tree on both sides (exact-int
doubles divide exactly; ``np.log`` mirrors SQL ``ln``), then snapped
to FIXED POINT — ``floor(lp * 1e9)`` as int64 — so the per-document
reduction is an INTEGER sum, bit-identical under any block structure
or summation order.  The final average divides two exact integers and
rounds to 6 decimals.  Tokenization is whitespace split of trimmed
text, byte-for-byte ``regexp_split_to_array(trim(text), '\\s+')``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from .agg import bucketed_join, column_type, hash_aggregate
from .text import ngram_key_partial

_FP = 1_000_000_000  # 1e-9 fixed-point grid for per-bigram log-probs


def bigram_lm_scores(ds: rd.Dataset, *, id_col: str = "doc_id",
                     text_col: str = "text",
                     num_buckets: int | None = None) -> rd.Dataset:
    """Per-document average bigram log-probability under the corpus's
    own add-one bigram LM.

    Output: ``(id_col, n_bigrams:int64, lm_score:float64)`` — one row
    per document with at least one bigram (documents of fewer than two
    tokens carry no signal and are excluded, as the oracle's unnest
    naturally excludes them).  ``lm_score`` is rounded to 6 decimals.
    """
    # one text scan -> (doc_id, gram, occ) combiner rows, reused by the
    # fit aggregates and the scoring join
    grams = ds.map_batches(
        lambda t: ngram_key_partial(t, key_col=id_col, text_col=text_col,
                                    n=2, keep_counts=True),
        batch_format="pyarrow", batch_size=1024,
        zero_copy_batch=True).materialize()
    id_type = column_type(grams, id_col) if grams.schema() else pa.string()

    def empty() -> rd.Dataset:
        return rd.from_arrow(pa.table({
            id_col: pa.array([], type=id_type),
            "n_bigrams": pa.array([], type=pa.int64()),
            "lm_score": pa.array([], type=pa.float64())}))

    if grams.count() == 0:
        return empty()

    # fit: corpus bigram counts, prefix counts, vocabulary size ---
    cb = hash_aggregate(grams.select_columns(["gram", "occ"]),
                        ["gram"], [("occ", "sum")],
                        rename={"occ_sum": "cb"},
                        num_buckets=num_buckets)

    def _w1(gram) -> pa.Array:
        # tokens are whitespace-split so they cannot contain the ' '
        # gram separator; element 0 is always the full first token
        w1 = pc.list_element(pc.split_pattern(gram, " "), 0)
        if isinstance(w1, pa.ChunkedArray):
            w1 = w1.combine_chunks()
        return w1

    def prefix(t: pa.Table) -> pa.Table:
        return pa.table({"w1": _w1(t["gram"]), "occ": t["occ"]})

    cu = hash_aggregate(
        grams.map_batches(prefix, batch_format="pyarrow",
                          zero_copy_batch=True),
        ["w1"], [("occ", "sum")], rename={"occ_sum": "cu"},
        num_buckets=num_buckets)

    def both_tokens(t: pa.Table) -> pa.Table:
        parts = pc.split_pattern(t["gram"], " ")
        flat = pc.list_flatten(parts)  # w1, w2 interleaved — same set
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        return pa.table({"tok": pc.unique(flat)})

    # V = distinct tokens over both bigram positions; the distinct
    # reduce runs on the (already deduped) bigram table, not the corpus
    vocab = hash_aggregate(
        cb.map_batches(both_tokens, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["tok"], [("tok", "count")], num_buckets=num_buckets)
    v_size = vocab.count()

    # score: join each per-doc bigram row with its two counts ---
    j1 = bucketed_join(grams, cb, left_key="gram", right_key="gram",
                       right_value_cols=["cb"], num_buckets=num_buckets)

    def add_w1(t: pa.Table) -> pa.Table:
        return t.append_column("w1", _w1(t["gram"]))

    j2 = bucketed_join(
        j1.map_batches(add_w1, batch_format="pyarrow",
                       zero_copy_batch=True),
        cu, left_key="w1", right_key="w1", right_value_cols=["cu"],
        num_buckets=num_buckets)

    def contrib(t: pa.Table) -> pa.Table:
        cb_ = t["cb"].to_numpy(zero_copy_only=False).astype(np.float64)
        cu_ = t["cu"].to_numpy(zero_copy_only=False).astype(np.float64)
        occ = t["occ"].to_numpy(zero_copy_only=False).astype(np.int64)
        # identical IEEE op tree to the SQL oracle:
        # ln((cb + 1.0) / (cu + V)) -> floor to the 1e-9 grid -> int64
        lp = np.log((cb_ + 1.0) / (cu_ + float(v_size)))
        fp = np.floor(lp * float(_FP)).astype(np.int64) * occ
        return pa.table({id_col: t[id_col],
                         "fp": pa.array(fp, type=pa.int64()),
                         "occ": pa.array(occ, type=pa.int64())})

    per_doc = hash_aggregate(
        j2.map_batches(contrib, batch_format="pyarrow",
                       zero_copy_batch=True),
        [id_col], [("fp", "sum"), ("occ", "sum")],
        rename={"fp_sum": "fp", "occ_sum": "n_bigrams"},
        num_buckets=num_buckets)

    def score(t: pa.Table) -> pa.Table:
        fp = t["fp"].to_numpy(zero_copy_only=False).astype(np.float64)
        nb = t["n_bigrams"].to_numpy(zero_copy_only=False).astype(
            np.float64)
        s = np.round(fp / (nb * float(_FP)), 6)
        return pa.table({id_col: t[id_col], "n_bigrams": t["n_bigrams"],
                         "lm_score": pa.array(s, type=pa.float64())})

    return per_doc.map_batches(score, batch_format="pyarrow",
                               zero_copy_batch=True)


def bigram_lm_oracle_sql(table: str = "documents", *,
                         id_col: str = "doc_id",
                         text_col: str = "text") -> str:
    """The DuckDB replay of :func:`bigram_lm_scores` (same tokenizer,
    same IEEE op tree, same fixed-point integer reduction)."""
    return f"""
    WITH t AS (
      SELECT {id_col},
             regexp_split_to_array(trim(coalesce({text_col}, '')),
                                   '\\s+') AS w
      FROM {table}),
    g AS (
      SELECT {id_col},
             unnest(list_transform(range(1, greatest(len(w), 1)),
                                   i -> w[i] || ' ' || w[i+1])) AS gram
      FROM t),
    b AS (
      SELECT {id_col}, gram, CAST(COUNT(*) AS BIGINT) AS occ
      FROM g GROUP BY {id_col}, gram),
    cb AS (SELECT gram, SUM(occ) AS cb FROM b GROUP BY gram),
    cu AS (SELECT split_part(gram, ' ', 1) AS w1, SUM(occ) AS cu
           FROM b GROUP BY 1),
    v AS (SELECT CAST(COUNT(DISTINCT tok) AS BIGINT) AS v FROM (
            SELECT split_part(gram, ' ', 1) AS tok FROM cb
            UNION SELECT split_part(gram, ' ', 2) FROM cb)),
    s AS (
      SELECT b.{id_col},
             SUM(CAST(FLOOR(LN((CAST(cb.cb AS DOUBLE) + 1.0)
                               / (CAST(cu.cu AS DOUBLE)
                                  + CAST(v.v AS DOUBLE)))
                            * 1000000000.0) AS BIGINT) * b.occ) AS fp,
             SUM(b.occ) AS nb
      FROM b JOIN cb USING (gram)
             JOIN cu ON cu.w1 = split_part(b.gram, ' ', 1)
             CROSS JOIN v
      GROUP BY b.{id_col})
    SELECT {id_col}, CAST(nb AS BIGINT) AS n_bigrams,
           ROUND(CAST(fp AS DOUBLE) / (CAST(nb AS DOUBLE)
                                       * 1000000000.0), 6) AS lm_score
    FROM s
    """
