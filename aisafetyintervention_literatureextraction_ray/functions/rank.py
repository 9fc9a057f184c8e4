"""BM25 ranked retrieval over a document corpus.

Full-text relevance ranking for a fixed query — the retrieval half of a
RAG / search-index pipeline — computed in two streaming passes:

1. **corpus statistics** (one pass): per-block partials of N, total
   token count and per-term document frequency collapse to a handful of
   scalars on the driver (a few KB regardless of corpus size) — the
   classic broadcast-side of a scoring join;
2. **scoring** (one pass): the scalars ship inside the task closure and
   every block is scored vectorized (compiled RE2 term counts +
   float64 numpy expression tree); global top-k via ``Dataset.sort`` +
   ``limit``.

Exactness contract: term frequency uses RE2 word-boundary counts and
document length uses the whitespace tokenizer — both bit-reproducible
in DuckDB (same RE2 engine), and the scoring expression is written as
the identical IEEE op tree on both sides (``np.log(1.0 + x)`` mirrors
SQL ``ln(1.0 + x)``; integer-valued doubles sum exactly, so ``avgdl``
is division of exact values).  Scores are rounded to 6 decimals BEFORE
the sort so tie order cannot diverge between engines.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from .text import token_counts

K1 = 1.2
B = 0.75


def _term_freqs(t: pa.Table, terms: list[str],
                text_col: str) -> tuple[pa.Array, list[np.ndarray]]:
    """(doc length, [tf per term]) — vectorized RE2 kernels.  Terms are
    lowercased (the text is) and regex-escaped so a metacharacter query
    like ``c++`` counts literally instead of breaking the pattern."""
    import re

    text = pc.utf8_lower(t.column(text_col))
    dl = token_counts(text)
    tfs = [
        pc.count_substring_regex(
            text, pattern=rf"\b{re.escape(term.lower())}\b")
        .to_numpy(zero_copy_only=False).astype(np.float64)
        for term in terms
    ]
    return dl, tfs


def bm25_topk(ds: rd.Dataset, terms: list[str], *, k: int = 10,
              id_col: str = "doc_id", text_col: str = "text",
              k1: float = K1, b: float = B) -> rd.Dataset:
    """Top-``k`` documents by BM25 score for the query ``terms``.

    Output: ``(id_col, bm25)`` sorted by score descending, id ascending.
    """
    terms = list(terms)

    def stats_partial(t: pa.Table) -> pa.Table:
        dl, tfs = _term_freqs(t, terms, text_col)
        cols = {
            "n": pa.array([t.num_rows], type=pa.int64()),
            "sum_dl": pa.array([pc.sum(dl).as_py() or 0], type=pa.int64()),
        }
        for i, tf in enumerate(tfs):
            cols[f"df{i}"] = pa.array([int((tf > 0).sum())], type=pa.int64())
        return pa.table(cols)

    stats = (ds.map_batches(stats_partial, batch_format="pyarrow",
                            batch_size=4096, zero_copy_batch=True)
             .to_pandas().sum())
    n = float(stats.get("n", 0) or 0)
    if n == 0:  # empty corpus: empty top-k, not a ZeroDivisionError
        # typed empty with the INPUT's id type (ADVICE r3): a string-id
        # corpus must get a string-typed empty result, same as the
        # non-empty path carries the id type through
        from .agg import column_type

        return rd.from_arrow(pa.table({
            id_col: pa.array([], type=column_type(ds, id_col)),
            "bm25": pa.array([], type=pa.float64())}))
    avgdl = float(stats["sum_dl"]) / float(stats["n"])
    idfs = [float(np.log(1.0 + (n - float(stats[f"df{i}"]) + 0.5)
                         / (float(stats[f"df{i}"]) + 0.5)))
            for i in range(len(terms))]

    def score(t: pa.Table) -> pa.Table:
        dl, tfs = _term_freqs(t, terms, text_col)
        dlf = dl.to_numpy(zero_copy_only=False).astype(np.float64)
        denom_len = k1 * (1.0 - b + b * dlf / avgdl)
        total = np.zeros(t.num_rows, dtype=np.float64)
        for idf, tf in zip(idfs, tfs):
            total = total + idf * tf * (k1 + 1.0) / (tf + denom_len)
        return pa.table({
            id_col: t.column(id_col),
            "bm25": pa.array(np.round(total, 6), type=pa.float64()),
        })

    return (ds.map_batches(score, batch_format="pyarrow", batch_size=4096,
                           zero_copy_batch=True)
            .sort(["bm25", id_col], descending=[True, False])
            .limit(k))


# ---------------------------------------------------------------- TF-IDF
def tfidf_top_terms(ds: rd.Dataset, *, id_col: str = "doc_id",
                    text_col: str = "text", k: int = 3,
                    num_buckets: int | None = None) -> rd.Dataset:
    """Top-``k`` characteristic terms per document by TF-IDF — the
    per-document keyword extraction behind corpus exploration and
    cluster labeling.

    Output: ``(id_col, term, tf:int64, df:int64, tfidf:float64)``, at
    most ``k`` rows per document, ``tfidf = tf * ln(N / df)`` with
    ``N`` = number of documents with at least one token, rounded to 6
    decimals BEFORE the per-doc rank (ties break on term ascending) so
    the SQL window-function oracle replays the cut exactly.

    Shape at scale: a document is one row, so per-doc term frequencies
    are complete inside one ``map_batches`` call — no cross-block
    combine; document frequency is one keyed count over the already
    per-doc-distinct (doc, term) rows; each scoring row joins its
    ``df`` on a partitioned bucketed exchange (the vocabulary is never
    assumed to fit a broadcast); the per-doc top-k is a grouped head
    inside one keyed exchange.  Tokenization matches
    ``term_count_partial`` (lowercase, split on ``[^a-z]+``).
    """
    from .agg import bucketed_apply, hash_aggregate

    def per_doc_tf(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(
            pc.utf8_lower(pc.coalesce(t[text_col].cast(pa.string()), "")),
            pattern="[^a-z]+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        lens = pc.list_value_length(toks).to_numpy(
            zero_copy_only=False).astype(np.int64)
        flat = pc.list_flatten(toks)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        doc_idx = np.repeat(np.arange(len(lens)), lens)
        keep = pc.not_equal(flat, "")
        pairs = pa.table({
            id_col: t[id_col].take(pa.array(doc_idx)).filter(keep),
            "term": flat.filter(keep)})
        agg = pa.TableGroupBy(pairs, [id_col, "term"]).aggregate(
            [([], "count_all")])
        return agg.set_column(agg.schema.get_field_index("count_all"),
                              "tf", pc.cast(agg["count_all"], pa.int64()))

    tf = ds.map_batches(per_doc_tf, batch_format="pyarrow",
                        batch_size=1024, zero_copy_batch=True).materialize()
    if tf.count() == 0:
        from .agg import column_type

        return rd.from_arrow(pa.table({
            id_col: pa.array([], type=column_type(ds, id_col)),
            "term": pa.array([], type=pa.string()),
            "tf": pa.array([], type=pa.int64()),
            "df": pa.array([], type=pa.int64()),
            "tfidf": pa.array([], type=pa.float64())}))

    df = hash_aggregate(tf.select_columns(["term", "tf"]), ["term"],
                        [("tf", "count")], rename={"tf_count": "df"},
                        num_buckets=num_buckets)
    n_docs = hash_aggregate(tf.select_columns([id_col, "tf"]), [id_col],
                            [("tf", "count")],
                            num_buckets=num_buckets).count()

    from .agg import bucketed_join

    joined = bucketed_join(tf, df, left_key="term", right_key="term",
                           right_value_cols=["df"],
                           num_buckets=num_buckets)

    def score(t: pa.Table) -> pa.Table:
        tf_ = t["tf"].to_numpy(zero_copy_only=False).astype(np.float64)
        df_ = t["df"].to_numpy(zero_copy_only=False).astype(np.float64)
        # identical IEEE op tree to the oracle:
        # tf * ln(N / df), exact-int doubles throughout
        s = np.round(tf_ * np.log(float(n_docs) / df_), 6)
        return t.append_column("tfidf", pa.array(s, type=pa.float64()))

    scored = joined.map_batches(score, batch_format="pyarrow",
                                zero_copy_batch=True)

    def topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["tfidf", "term"], ascending=[False, True])
        return g.groupby(id_col, sort=False).head(k)

    return bucketed_apply(scored, [id_col], topk, num_buckets=num_buckets)


def rrf_fuse(rankings: list[list], *, k: int = 60,
             scale: int = 1_000_000, top: int | None = None
             ) -> pd.DataFrame:
    """Reciprocal-rank fusion of bounded ranked id lists:
    ``rrf_fp(d) = sum over rankings of scale // (k + rank(d))`` with
    1-based ranks, pure integer (the float 1/(k+r) is rank-monotone,
    so the integer form preserves RRF's ordering semantics and
    replays exactly in SQL).  The standard hybrid-retrieval combiner
    (lexical BM25 + a second signal) — inputs are the TOP-K outputs
    of distributed rankers, so this fusion is driver-bounded by
    design (len <= k per list), never by the corpus.  Ties sort by
    id ascending; ``top`` truncates the fused list.
    """
    acc: dict = {}
    for ranked in rankings:
        for r, d in enumerate(ranked, start=1):
            acc[d] = acc.get(d, 0) + scale // (k + r)
    out = pd.DataFrame(
        {"doc_id": list(acc), "rrf_fp": list(acc.values())})
    out = out.sort_values(["rrf_fp", "doc_id"],
                          ascending=[False, True]).reset_index(drop=True)
    return out.head(top) if top else out
