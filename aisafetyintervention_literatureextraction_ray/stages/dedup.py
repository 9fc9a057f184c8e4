"""Deduplication stages: exact, MinHash+LSH, SimHash.

The reference's only dedup operators are key-grouped MERGE upserts and
the embedding near-dup canonicalizer (SURVEY.md §2.7).  A 100 TB
training-data pipeline needs document-level dedup as a first-class
stage; these follow the same physical design rules as the KG build: no
global state, candidate generation as a keyed shuffle, verification
inside the group.

All hash functions are process-independent (``functions/hashing.py``);
Python's salted ``hash`` is never used.
"""

from __future__ import annotations

import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

# bump when signature semantics change: resumed extraction runs must
# not mix signature generations across partitions (pairs from mixed
# generations estimate ~0 even for true near-dups)
SKETCH_VERSION = 2  # v2: single-path densified OPH for all doc sizes

# all-pairs cap per colliding LSH band bucket: a bucket larger than
# this is near-identical boilerplate and an unbounded all-pairs on it
# goes quadratic.  Truncation is REPORTED (functions/runstats), never
# silent.
_BUCKET_CAP = 256


def _sigs_to_blob(sigs: pa.Array | pa.ChunkedArray,
                  n: int) -> pa.LargeBinaryArray:
    """``list<uint64>`` signature column -> per-row ``large_binary``
    blob (uint64 LE), fully vectorized (flatten + cumsum offsets).
    Blobs survive the engine's pandas-merge exchanges where list
    payloads hit Arrow tensor/join-type limits; null/empty lists map to
    zero-length blobs."""
    if n == 0:
        return pa.array([], type=pa.large_binary())
    pc_ = pa.compute
    flat = np.asarray(sigs.flatten().to_numpy(zero_copy_only=False),
                      dtype=np.uint64)
    lens = pc_.coalesce(pc_.list_value_length(sigs),
                        pa.scalar(0, pa.int32())).to_numpy().astype(np.int64)
    offs = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum(lens * 8, out=offs[1:])
    return pa.LargeBinaryArray.from_buffers(
        pa.large_binary(), len(lens),
        [None, pa.py_buffer(offs.tobytes()), pa.py_buffer(flat.tobytes())])


def content_hash(df: pd.DataFrame, col: str) -> pd.Series:
    """Deterministic vectorized 64-bit content hash (pandas C kernel,
    fixed hash key -> identical on every worker)."""
    return pd.util.hash_pandas_object(df[col], index=False)


def exact_dedup(ds: rd.Dataset, col: str, id_col: str, *,
                with_counts: bool = False,
                exchange: str = "shuffle") -> rd.Dataset:
    """Keep the min-``id_col`` row per distinct ``col`` value.

    Hash-partition + per-group first (SURVEY.md 'Deduplication' item):
    stage 1 drops in-batch duplicates (partial combine, grouped on the
    64-bit content hash AND the exact value so a hash collision can
    never merge distinct values), stage 2 shuffles on the hash only —
    the full ``col`` payload is never a shuffle key — and resolves
    exact equality *within* the group.

    ``with_counts=True`` appends ``n_copies`` (total duplicate count per
    kept row).  ``exchange`` defaults to ``"shuffle"``: besides being
    the only scale-safe choice (the distinct-key set of a corpus-wide
    dedup is unbounded), it is also MEASURED faster here whenever the
    dedup column carries payloads — a coalesce moves every kept row's
    full text into one block and single-threads the final group
    (sf0.1 documents, 32 CPUs: shuffle 3.0-7.5 s vs coalesce 17.3 s;
    an adaptive measured-size variant was tried and removed — its extra
    materialize pass cost more than it ever saved).
    """

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["__h"] = content_hash(df, col)
        df = df.sort_values(id_col, kind="stable")
        # dropna=False: a null dedup key is a group like any other (the
        # SQL GROUP BY keeps a NULL group; silently losing rows is worse)
        grouped = df.groupby(["__h", col], sort=False, as_index=False,
                             dropna=False)
        out = grouped.first()
        out["__n"] = grouped.size()["size"].to_numpy()
        return out

    def final(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(id_col, kind="stable")
        counts = g.groupby(col, sort=False, dropna=False)["__n"].sum()
        out = (g.drop(columns="__n")
               .groupby(col, sort=False, as_index=False, dropna=False)
               .first())
        out["__n"] = counts.to_numpy()  # same first-occurrence order
        return out.drop(columns="__h")

    from ..functions.agg import bucketed_group_map

    out = bucketed_group_map(
        ds.map_batches(partial, batch_format="pandas"), ["__h"], final,
        exchange=exchange)
    if with_counts:
        return out.map_batches(
            lambda df: df.rename(columns={"__n": "n_copies"}),
            batch_format="pandas")
    return out.map_batches(lambda df: df.drop(columns="__n"),
                           batch_format="pandas")


# ------------------------------------------------------------------ MinHash

_SHINGLE_MIX = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xC2B2AE3D27D4EB4F),
                np.uint64(0x165667B19E3779F9))


# entries a token cache may hold; a worker process keeps its extractor
# (and so this cache) across partitions, so it must not grow with every
# vocabulary it sees.  Clearing only costs re-hashes: crc32 is pure.
_TOKEN_CACHE_MAX = 1 << 18


class _TokenHashCache:
    """Shared token->crc32 cache; vocabulary << corpus, so hit rate ~1.
    Cleared when a miss finds it holding ``_TOKEN_CACHE_MAX`` entries."""

    def __init__(self) -> None:
        self._cache: dict[str, int] = {}

    def hash_tokens(self, toks: list[str]) -> np.ndarray:
        cache = self._cache
        out = np.empty(len(toks), dtype=np.uint64)
        for i, t in enumerate(toks):
            h = cache.get(t)
            if h is None:
                h = zlib.crc32(t.encode("utf-8"))
                if len(cache) >= _TOKEN_CACHE_MAX:
                    cache.clear()
                cache[t] = h
            out[i] = h
        return out


def shingle_hashes(text: str, k: int, cache: _TokenHashCache) -> np.ndarray:
    """Vectorized word-k-gram hashes: hash tokens once (cached crc32),
    combine k consecutive token hashes with a polynomial mix — no string
    joins, no per-shingle Python."""
    toks = text.split()
    th = cache.hash_tokens(toks)
    if len(toks) < k:
        return np.array([zlib.crc32(text.encode())], dtype=np.uint64)
    acc = th[: len(th) - k + 1] * _SHINGLE_MIX[0]
    for j in range(1, k):
        acc = acc ^ (th[j: len(th) - k + 1 + j] * _SHINGLE_MIX[j % 3])
        acc = (acc << np.uint64(7)) | (acc >> np.uint64(57))
    return acc


class MinHasher:
    """Per-batch MinHash signatures + LSH band keys (actor pool).

    Actor state: the (a, b) permutation coefficients, built once.
    Output: ``num_bands`` rows per doc, keyed ``(band, band_hash)`` —
    the LSH bucket shuffle key — with the full signature carried for
    in-group Jaccard estimation.
    """

    def __init__(self, text_col: str = "text", id_col: str = "doc_id",
                 k_shingle: int = 3, num_perm: int = 64,
                 num_bands: int = 16) -> None:
        assert num_perm % num_bands == 0
        assert num_perm & (num_perm - 1) == 0, "num_perm must be a power of 2"
        self.text_col, self.id_col = text_col, id_col
        self.k, self.num_perm, self.num_bands = k_shingle, num_perm, num_bands
        self.rows_per_band = num_perm // num_bands
        self._tokens = _TokenHashCache()

    def signature(self, text: str) -> np.ndarray:
        return self.signatures([text])[0]

    def signatures(self, texts: list[str]) -> np.ndarray:
        """Whole-batch one-permutation-hashing (OPH) signatures.

        Classic k-permutation MinHash costs O(P * S) 64-bit multiplies,
        which numpy executes scalar (~35 ns each) — it dominated the
        extraction stage.  OPH is O(S): each shingle hash lands in bin
        ``h & (P-1)`` and the per-bin minimum is the signature slot;
        empty bins are densified by borrowing the nearest filled bin at
        or before them (circular forward-fill — deterministic, and the
        standard densification that keeps OPH a valid LSH).

        ONE path for every document size.  A split scheme (classic
        MinHash below P shingles, OPH above) produces incomparable
        signatures for a near-dup pair whose sizes straddle the
        boundary — e.g. 63 vs 66 shingles with true Jaccard 0.95
        estimated as 0.0 (caught by the planted-near-dup oracle);
        estimation accuracy for tiny shingle sets is worth less than
        cross-size comparability, and candidates are exact-verified
        downstream anyway.
        """
        n, p = len(texts), self.num_perm
        if not n:
            return np.empty((0, p), np.uint64)
        shingle_lists = [shingle_hashes(t or "", self.k, self._tokens)
                         for t in texts]
        lens = np.fromiter((len(s) for s in shingle_lists), dtype=np.int64,
                           count=n)
        flat = np.concatenate(shingle_lists)
        doc_idx = np.repeat(np.arange(n, dtype=np.int64), lens)
        bins = (flat & np.uint64(p - 1)).astype(np.int64)
        empty_slot = np.uint64(0xFFFFFFFFFFFFFFFF)
        bsig = np.full(n * p, empty_slot, dtype=np.uint64)
        np.minimum.at(bsig, doc_idx * p + bins, flat)
        bsig = bsig.reshape(n, p)
        filled = bsig != empty_slot
        # circular forward-fill: each empty bin borrows the nearest
        # filled bin at or before it (vectorized; equivalent to the
        # iterated roll-fill but O(p) once)
        idx = np.where(filled, np.arange(p, dtype=np.int64)[None, :], -1)
        idx = np.maximum.accumulate(idx, axis=1)
        last = idx[:, -1]  # rightmost filled bin (>= 0: S >= 1 always)
        idx = np.where(idx < 0, last[:, None], idx)
        return np.take_along_axis(bsig, idx, axis=1)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column(self.id_col)
        texts = batch.column(self.text_col).to_pylist()
        n = len(texts)
        sigs = self.signatures(texts)
        r, nb = self.rows_per_band, self.num_bands
        # vectorized band hashes: polynomial mix of each band's rows
        chunks = sigs.reshape(n, nb, r) if n else np.empty((0, nb, r), np.uint64)
        bh = np.zeros((n, nb), dtype=np.uint64)
        for j in range(r):
            bh = (bh ^ (chunks[:, :, j] * _SHINGLE_MIX[j % 3]))
            bh = (bh << np.uint64(9)) | (bh >> np.uint64(55))
        # explode to nb rows per doc
        id_idx = np.repeat(np.arange(n), nb)
        band_col = np.tile(np.arange(nb, dtype=np.int32), n)
        sig_flat = np.repeat(sigs, nb, axis=0).reshape(-1)
        sig_offsets = pa.array(
            np.arange(0, (n * nb + 1) * self.num_perm, self.num_perm,
                      dtype=np.int64))
        return pa.table({
            self.id_col: ids.take(pa.array(id_idx)),
            "band": pa.array(band_col, type=pa.int32()),
            "band_hash": pa.array(bh.reshape(-1).view(np.int64),
                                  type=pa.int64()),
            "sig": pa.LargeListArray.from_arrays(
                sig_offsets, pa.array(sig_flat, type=pa.uint64())),
        })


def pairs_from_signatures(sig_ds: rd.Dataset, *, id_col: str = "doc_id",
                          sig_col: str = "minhash_sig",
                          jaccard_threshold: float = 0.9,
                          num_bands: int = 8,
                          num_perm: int | None = None,
                          broadcast_limit: int = 250_000) -> rd.Dataset:
    """Near-dup pairs from PRE-COMPUTED MinHash signatures (e.g. the
    ``minhash_sig`` column the extraction pass emits).

    Two phases, so the exchange never moves signature payloads:

    1. candidate generation over SKINNY rows ``(id, band, band_hash)``
       (~25 bytes/row): bucket-group with a vectorized singleton
       prefilter, all-pairs within colliding buckets (bucket capped at
       ``_BUCKET_CAP`` ids — truncation is reported LOUDLY via
       ``functions/runstats.report_truncation``, never silent);
    2. verification as a DISTRIBUTED semi-join on the MEASURED
       candidate-id count (VERDICT r3 #1, the ``exact_dup_pairs``
       gate): at or below ``broadcast_limit`` distinct candidate ids,
       the id set ships once via ``ray.put`` and filters map-side
       (``pc.is_in``); above it, a partitioned hash join
       (``bucketed_join``) does the same filtering with NO driver
       gather at all.  The filtered signatures (pre-encoded as binary
       blobs) then attach to the pairs with two partitioned hash joins
       (coarse-bucket exchange + vectorized pandas merge per bucket)
       and the estimated Jaccard is computed vectorized per batch.  No
       signature or text payload ever lands on the driver; the id set
       only does when measured small.

    Rows whose signature is empty or has a length different from
    ``num_perm`` (legacy-schema ingest emits ``[]``) are dropped before
    banding; ``num_perm=None`` infers the modal length per batch.
    """
    import ray

    from ..functions.agg import (
        bucketed_group_map,
        bucketed_join,
        hash_aggregate,
        pa_type_of,
    )
    from ..functions.runstats import report_truncation

    pc_ = pa.compute

    def band_rows(t: pa.Table) -> pa.Table:
        sigs_col = t.column(sig_col)
        if isinstance(sigs_col, pa.ChunkedArray):
            sigs_col = sigs_col.combine_chunks()
        empty = pa.table({id_col: t.column(id_col).slice(0, 0),
                          "band": pa.array([], pa.int32()),
                          "band_hash": pa.array([], pa.int64())})
        if t.num_rows == 0:
            return empty
        # validate: drop empty / ragged signatures before banding
        lens = pc_.coalesce(pc_.list_value_length(sigs_col),
                            pa.scalar(0, pa.int32())).to_numpy()
        p = num_perm
        if p is None:
            nonzero = lens[lens > 0]
            if not len(nonzero):
                return empty
            vals, counts = np.unique(nonzero, return_counts=True)
            p = int(vals[counts.argmax()])  # modal length
        keep = lens == p
        if not keep.all():
            t = t.filter(pa.array(keep))
            sigs_col = t.column(sig_col)
            if isinstance(sigs_col, pa.ChunkedArray):
                sigs_col = sigs_col.combine_chunks()
        n = t.num_rows
        if n == 0 or p < num_bands:
            return empty
        r = p // num_bands
        sigs = np.asarray(sigs_col.flatten().to_numpy(zero_copy_only=False),
                          dtype=np.uint64).reshape(n, p)  # u32 promotes
        chunks = sigs[:, : num_bands * r].reshape(n, num_bands, r)
        bh = np.zeros((n, num_bands), dtype=np.uint64)
        for j in range(r):
            bh = bh ^ (chunks[:, :, j] * _SHINGLE_MIX[j % 3])
            bh = (bh << np.uint64(9)) | (bh >> np.uint64(55))
        ids = t.column(id_col)
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        return pa.table({
            id_col: ids.take(pa.array(np.repeat(np.arange(n), num_bands))),
            "band": pa.array(np.tile(np.arange(num_bands, dtype=np.int32), n),
                             type=pa.int32()),
            "band_hash": pa.array(bh.reshape(-1).view(np.int64),
                                  type=pa.int64()),
        })

    def all_pairs(group: pd.DataFrame) -> pd.DataFrame:
        g = group.drop_duplicates(subset=[id_col]).sort_values(id_col)
        ids = g[id_col].to_numpy()
        if len(ids) > _BUCKET_CAP:  # larger = boilerplate; never silent
            report_truncation("pairs_from_signatures.band_bucket",
                              dropped=len(ids) - _BUCKET_CAP)
            ids = ids[:_BUCKET_CAP]
        if len(ids) < 2:
            return pd.DataFrame({"id_a": ids[:0], "id_b": ids[:0]})
        ia, ib = np.triu_indices(len(ids), k=1)
        return pd.DataFrame({"id_a": ids[ia], "id_b": ids[ib]})

    # the skinny (id, signature) projection is consumed three times
    # (band scan + the two join sides); pin it in the object store
    # instead of re-executing the upstream read per consumer.
    sig_ds = sig_ds.materialize()
    rows = sig_ds.map_batches(band_rows, batch_format="pyarrow",
                              batch_size=8192)
    # shuffle exchange: band collisions can be numerous on homogeneous
    # corpora, and per-group Python must parallelize across buckets
    cands = bucketed_group_map(rows, ["band", "band_hash"], all_pairs,
                               min_group_size=2, exchange="shuffle")
    cands = hash_aggregate(cands, ["id_a", "id_b"], [("id_a", "count")],
                           exchange="shuffle").materialize()

    def _empty() -> rd.Dataset:
        return ray.data.from_pandas(
            pd.DataFrame({"id_a": [], "id_b": [], "jaccard": []}))

    n_pairs = cands.count()  # cands is materialized: metadata count
    if n_pairs == 0:
        return _empty()

    # distinct candidate ids as a SKINNY DATASET — never a driver set
    def both_ids(t: pa.Table) -> pa.Table:
        return pa.table({"__id": pa.chunked_array(
            [t.column("id_a"), t.column("id_b")]).combine_chunks()})

    # the distinct-id reduce input is exactly 2 * n_pairs skinny rows —
    # already MEASURED, so the exchange choice is safe: small pair sets
    # coalesce (skip the sort-shuffle fixed cost), large ones shuffle
    inv = hash_aggregate(
        cands.map_batches(both_ids, batch_format="pyarrow"),
        ["__id"], [("__id", "count")],
        exchange="coalesce" if n_pairs <= 500_000 else "shuffle",
    ).select_columns(["__id"]).materialize()
    n_inv = inv.count()

    # Encode the signature as a binary blob (uint64 LE) ONCE, up front:
    # blobs ride every later exchange (list payloads hit Arrow
    # tensor/join-type limits), and BOTH semi-filter paths hand the
    # same (id, __sig) shape downstream.
    sig_schema = sig_ds.schema()
    id_type = pa_type_of(dict(zip(sig_schema.names,
                                  sig_schema.types))[id_col])

    def to_blob(t: pa.Table) -> pa.Table:
        sigs = t.column(sig_col)
        if isinstance(sigs, pa.ChunkedArray):
            sigs = sigs.combine_chunks()
        return pa.table({id_col: t.column(id_col),
                         "__sig": _sigs_to_blob(sigs, t.num_rows)})

    sig_blob = sig_ds.map_batches(to_blob, batch_format="pyarrow")

    # semi-join filter on the MEASURED candidate-id count (VERDICT r3
    # #1 — the exact_dup_pairs gate, dedup.py exact_dup_pairs): below
    # the limit the id set ships once via ray.put; above it the filter
    # is a partitioned hash join with no driver gather at all.
    if n_inv <= broadcast_limit:
        inv_ref = ray.put(pa.concat_tables(
            inv.iter_batches(batch_format="pyarrow"))["__id"]
            .combine_chunks())

        def semi_filter(t: pa.Table) -> pa.Table:
            return t.filter(pc_.is_in(t.column(id_col),
                                      value_set=ray.get(inv_ref)))

        sigs_small = sig_blob.map_batches(
            semi_filter, batch_format="pyarrow").materialize()
    else:
        marked = inv.map_batches(
            lambda t: t.append_column(
                "__cand", pa.array(np.ones(t.num_rows, dtype=np.int8))),
            batch_format="pyarrow")
        sigs_small = bucketed_join(
            sig_blob, marked, left_key=id_col, right_key="__id",
            right_value_cols=["__cand"],
            left_schema=pa.schema([(id_col, id_type),
                                   ("__sig", pa.large_binary())]),
            right_schema=pa.schema([("__id", id_type),
                                    ("__cand", pa.int8())]),
        ).map_batches(
            lambda t: pa.table({
                id_col: t.column(id_col),
                "__sig": t.column("__sig").cast(pa.large_binary())}),
            batch_format="pyarrow").materialize()

    def sig_side(out_sig: str, extra_nulls: list[str]):
        # signatures arrive pre-encoded as blobs (``to_blob``); this
        # just projects them onto the union-join schema
        def fn(t: pa.Table) -> pa.Table:
            n = t.num_rows
            cols = {"__key": t.column(id_col)}
            for c in extra_nulls:
                cols[c] = (pa.nulls(n, t.column(id_col).type)
                           if c.startswith("id_")
                           else pa.nulls(n, pa.large_binary()))
            cols[out_sig] = t.column("__sig").cast(pa.large_binary())
            return pa.table(cols)
        return fn

    def pair_side(key_from: str, carry: list[str], out_sig: str):
        def fn(t: pa.Table) -> pa.Table:
            cols = {"__key": t.column(key_from)}
            for c in carry:
                col = t.column(c)
                if pa.types.is_binary(col.type):
                    col = col.cast(pa.large_binary())
                cols[c] = col
            cols[out_sig] = pa.nulls(t.num_rows, pa.large_binary())
            return pa.table(cols)
        return fn

    def make_merge(out_sig: str, out_cols: list[str]):
        # per-bucket vectorized hash join (pandas C merge): rows with a
        # null id_a are the signature side, the rest are pair rows
        def merge(df: pd.DataFrame) -> pd.DataFrame:
            is_sig = df["id_a"].isna()
            sigs = df.loc[is_sig, ["__key", out_sig]]
            pairs = df.loc[~is_sig].drop(columns=[out_sig])
            return pairs.merge(sigs, on="__key")[out_cols]
        return merge

    # round 1: attach sig_a by bucketing on id_a; round 2: same on id_b.
    # This is a partitioned hash join built on the engine's coarse-bucket
    # exchange (single int shuffle key, vectorized merge per bucket) —
    # the distributed-join scale path with no driver gather.
    from ..functions.agg import bucketed_apply

    # candidate cardinality is MEASURED, so the attach exchange is
    # chosen from it: small candidate sets merge in one worker task;
    # larger ones take the bucketed shuffle.  Both the PAIR count (what
    # actually flows through the coalesced block — boilerplate corpora
    # can emit many pairs over few ids) and the involved-id count (the
    # signature payload volume) must be small.  Never driver-side.
    exch = ("coalesce"
            if n_pairs <= 500_000 and n_inv <= 250_000
            else "shuffle")
    r1 = cands.map_batches(
        pair_side("id_a", ["id_a", "id_b"], "sig_a"),
        batch_format="pyarrow").union(
        sigs_small.map_batches(sig_side("sig_a", ["id_a", "id_b"]),
                               batch_format="pyarrow"))
    r1 = bucketed_apply(r1, ["__key"],
                        make_merge("sig_a", ["id_a", "id_b", "sig_a"]),
                        exchange=exch)
    r2 = r1.map_batches(
        pair_side("id_b", ["id_a", "id_b", "sig_a"], "sig_b"),
        batch_format="pyarrow").union(
        sigs_small.map_batches(sig_side("sig_b", ["id_a", "id_b", "sig_a"]),
                               batch_format="pyarrow"))
    j = bucketed_apply(r2, ["__key"],
                       make_merge("sig_b",
                                  ["id_a", "id_b", "sig_a", "sig_b"]),
                       exchange=exch)

    def score(t: pa.Table) -> pa.Table:
        empty = pa.table({"id_a": t.column("id_a").slice(0, 0),
                          "id_b": t.column("id_b").slice(0, 0),
                          "jaccard": pa.array([], pa.float64())})
        if t.num_rows == 0:
            return empty
        la = pc_.binary_length(t.column("sig_a")).to_numpy()
        lb = pc_.binary_length(t.column("sig_b")).to_numpy()
        # a pair is comparable iff BOTH sides have the same (non-zero)
        # length — compare per row, not against the batch max, so mixed
        # signature widths in one batch never drop valid pairs
        ok = (la == lb) & (la > 0)
        if not ok.all():
            t = t.filter(pa.array(ok))
            la = la[ok]
        if t.num_rows == 0:
            return empty

        def decode(col) -> list[bytes]:
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            return col.to_pylist()

        blobs_a, blobs_b = decode(t.column("sig_a")), decode(t.column("sig_b"))
        jac = np.empty(t.num_rows, dtype=np.float64)
        for nbytes in np.unique(la):  # one vectorized pass per width
            idx = np.flatnonzero(la == nbytes)
            p = int(nbytes) // 8
            va = np.frombuffer(b"".join(blobs_a[i] for i in idx),
                               dtype=np.uint64).reshape(len(idx), p)
            vb = np.frombuffer(b"".join(blobs_b[i] for i in idx),
                               dtype=np.uint64).reshape(len(idx), p)
            jac[idx] = (va == vb).mean(axis=1)
        keep = jac >= jaccard_threshold
        return pa.table({
            "id_a": t.column("id_a").filter(pa.array(keep)),
            "id_b": t.column("id_b").filter(pa.array(keep)),
            "jaccard": pa.array(jac[keep], type=pa.float64()),
        })

    return j.map_batches(score, batch_format="pyarrow")


def make_minhash_pair_verifier(id_col: str = "doc_id",
                               jaccard_threshold: float = 0.7,
                               max_group: int = 256):
    """Per-(band, band_hash) group: all-pairs estimated Jaccard from the
    carried signatures; emit pairs above threshold.  Groups above
    ``max_group`` are truncated to the ``max_group`` lowest ids — a band
    bucket that large means near-identical boilerplate — and every
    truncation is reported via ``functions/runstats.report_truncation``
    (a worker-log warning + a named counter actor the driver can read
    with ``truncation_stats()``); a capped run never reads as full
    coverage."""

    def verify(group: pd.DataFrame) -> pd.DataFrame:
        g = group.drop_duplicates(subset=[id_col]).sort_values(id_col)
        n = len(g)
        if n < 2:
            empty = g[id_col].to_numpy()[:0]
            return pd.DataFrame({"id_a": empty, "id_b": empty,
                                 "jaccard": np.array([], dtype=np.float64)})
        if n > max_group:
            from ..functions.runstats import report_truncation

            report_truncation("minhash_pair_verifier.band_bucket",
                              dropped=n - max_group)
            g = g.head(max_group)
            n = max_group
        sigs = np.stack(g["sig"].to_numpy())
        ids = g[id_col].to_numpy()
        eq = (sigs[:, None, :] == sigs[None, :, :]).mean(axis=2)
        ia, ib = np.triu_indices(n, k=1)
        jac = eq[ia, ib]
        keep = jac >= jaccard_threshold
        return pd.DataFrame({
            "id_a": ids[ia[keep]],
            "id_b": ids[ib[keep]],
            "jaccard": jac[keep],
        })

    return verify


def minhash_dedup_pairs(ds: rd.Dataset, *, text_col: str = "text",
                        id_col: str = "doc_id", jaccard_threshold: float = 0.7,
                        num_perm: int = 64, num_bands: int = 16,
                        k_shingle: int = 3,
                        concurrency: int | tuple[int, int] = (1, 8)) -> rd.Dataset:
    """Near-duplicate pairs by MinHash+LSH: shingle -> minhash -> band ->
    bucket groupby -> in-group verification -> per-pair max estimate."""
    from ..functions.agg import bucketed_group_map, hash_aggregate

    sigs = ds.map_batches(
        MinHasher,
        fn_constructor_kwargs={"text_col": text_col, "id_col": id_col,
                               "num_perm": num_perm, "num_bands": num_bands,
                               "k_shingle": k_shingle},
        batch_format="pyarrow", batch_size=1024, concurrency=concurrency,
    )
    # shuffle exchange: LSH band buckets over a whole corpus never fit
    # one block — scale-safe default (VERDICT r1 #4)
    pairs = bucketed_group_map(
        sigs, ["band", "band_hash"],
        make_minhash_pair_verifier(id_col=id_col,
                                   jaccard_threshold=jaccard_threshold),
        min_group_size=2, exchange="shuffle")
    return hash_aggregate(pairs, ["id_a", "id_b"], [("jaccard", "max")],
                          rename={"jaccard_max": "jaccard"},
                          exchange="shuffle")


# ------------------------------------------------------------------ SimHash

class SimHasher:
    """64-bit SimHash per doc + 4x16-bit band keys for candidate gen.

    Token -> 64-bit hash is cached in actor state (vocabulary is far
    smaller than the corpus).
    """

    def __init__(self, text_col: str = "text", id_col: str = "doc_id") -> None:
        import hashlib

        self.text_col, self.id_col = text_col, id_col
        self._cache: dict[str, int] = {}
        self._blake = hashlib.blake2b

    def _th(self, tok: str) -> int:
        h = self._cache.get(tok)
        if h is None:
            h = int.from_bytes(self._blake(tok.encode(), digest_size=8).digest(), "little")
            if len(self._cache) >= 4_000_000:
                # bound actor memory on open-vocabulary corpora (~0.5 GB
                # at 4M entries); hashing a miss is cheap, the cache is
                # only an optimization
                self._cache.clear()
            self._cache[tok] = h
        return h

    def simhash(self, text: str) -> int:
        return int(self.simhashes([text])[0])

    def simhashes(self, texts: list[str]) -> np.ndarray:
        """Whole-batch 64-bit simhashes: cached token hashes, bit matrix
        via ``np.unpackbits`` (a uint8 view of the hash bytes — measured
        17x faster and 8x smaller than the shift-and-mask int64 matrix
        it replaces), per-doc majority-bit counts via reduceat."""
        tok_lists = [(t or "").lower().split() for t in texts]
        lens = np.array([max(len(x), 1) for x in tok_lists])
        flat_tokens = [tok for toks in tok_lists for tok in (toks or [""])]
        th = np.fromiter((self._th(t) for t in flat_tokens), dtype=np.uint64,
                         count=len(flat_tokens))
        # (T_total, 64) 0/1 matrix; column j == bit j of the token hash
        # (little-endian byte view + little bitorder)
        bits = np.unpackbits(th.view(np.uint8).reshape(-1, 8), axis=1,
                             bitorder="little").astype(np.int32)
        offsets = np.zeros(len(texts), dtype=np.int64)
        np.cumsum(lens[:-1], out=offsets[1:])
        ones = np.add.reduceat(bits, offsets, axis=0)  # (n_docs, 64)
        # bit set iff strictly more ones than zeros — identical to the
        # old signed-sum > 0 rule, ties included
        maj = ones * 2 > lens[:, None]
        shifts = np.arange(64, dtype=np.uint64)
        return (maj.astype(np.uint64) << shifts[None, :]).sum(
            axis=1, dtype=np.uint64)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column(self.id_col)
        texts = batch.column(self.text_col).to_pylist()
        n = len(texts)
        hashes = self.simhashes(texts) if n else np.empty(0, np.uint64)
        bands = np.arange(4, dtype=np.uint64)
        keys = ((hashes[:, None] >> (bands * np.uint64(16))[None, :])
                & np.uint64(0xFFFF)).astype(np.int64)  # (n, 4)
        id_idx = np.repeat(np.arange(n), 4)
        return pa.table({
            self.id_col: ids.take(pa.array(id_idx)),
            "band": pa.array(np.tile(bands.astype(np.int32), n), type=pa.int32()),
            "band_key": pa.array(keys.reshape(-1), type=pa.int64()),
            "simhash": pa.array(np.repeat(hashes, 4), type=pa.uint64()),
        })


def popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized population count of a uint64 array (byte-view +
    ``np.unpackbits`` — no per-row Python)."""
    x = np.ascontiguousarray(x, dtype=np.uint64)
    if not len(x):
        return np.zeros(0, dtype=np.int64)
    bits = np.unpackbits(x.view(np.uint8).reshape(len(x), 8), axis=1)
    return bits.sum(axis=1, dtype=np.int64)


def make_simhash_pair_verifier(id_col: str = "doc_id",
                               max_hamming: int = 3,
                               max_group: int = 256):
    """Per-(band, band_key) group: all-pairs Hamming check, vectorized
    popcount.  Groups above ``max_group`` are truncated (same policy as
    ``make_minhash_pair_verifier``, reported the same LOUD way via
    ``functions/runstats``): a 16-bit band bucket that large means
    near-identical boilerplate, and unbounded all-pairs on it goes
    quadratic (VERDICT r2 #2)."""

    def verify(group: pd.DataFrame) -> pd.DataFrame:
        g = group.drop_duplicates(subset=[id_col]).sort_values(id_col)
        n = len(g)
        if n < 2:
            empty = g[id_col].to_numpy()[:0]
            return pd.DataFrame({"id_a": empty, "id_b": empty,
                                 "hamming": np.array([], dtype=np.int64)})
        if n > max_group:
            from ..functions.runstats import report_truncation

            report_truncation("simhash_pair_verifier.band_bucket",
                              dropped=n - max_group)
            g = g.head(max_group)
            n = max_group
        hs = g["simhash"].to_numpy().astype(np.uint64)
        ids = g[id_col].to_numpy()
        ia, ib = np.triu_indices(n, k=1)
        ham = popcount64(hs[ia] ^ hs[ib])
        keep = ham <= max_hamming
        return pd.DataFrame({"id_a": ids[ia[keep]], "id_b": ids[ib[keep]],
                             "hamming": ham[keep]})

    return verify


def simhash_dedup_pairs(ds: rd.Dataset, *, text_col: str = "text",
                        id_col: str = "doc_id", max_hamming: int = 3,
                        max_group: int = 256,
                        concurrency: int | tuple[int, int] = (1, 8)) -> rd.Dataset:
    """Near-dup pairs with Hamming distance <= ``max_hamming`` (any pair
    within distance 3 shares at least one identical 16-bit quarter, so
    4-band blocking is lossless up to hamming 3 x ... <=16/4-1)."""
    sigs = ds.map_batches(
        SimHasher, fn_constructor_kwargs={"text_col": text_col, "id_col": id_col},
        batch_format="pyarrow", batch_size=1024, concurrency=concurrency,
    )

    from ..functions.agg import bucketed_group_map, hash_aggregate

    pairs = bucketed_group_map(
        sigs, ["band", "band_key"],
        make_simhash_pair_verifier(id_col=id_col, max_hamming=max_hamming,
                                   max_group=max_group),
        min_group_size=2, exchange="shuffle")
    return hash_aggregate(pairs, ["id_a", "id_b"], [("hamming", "min")],
                          rename={"hamming_min": "hamming"},
                          exchange="shuffle")


def ngram_jaccard(text_a: str, text_b: str, k: int = 3) -> float:
    """Exact word-n-gram Jaccard (verification kernel for candidates)."""
    ta, tb = text_a.split(), text_b.split()
    sa = {" ".join(ta[i: i + k]) for i in range(max(0, len(ta) - k + 1))} or {text_a}
    sb = {" ".join(tb[i: i + k]) for i in range(max(0, len(tb) - k + 1))} or {text_b}
    return len(sa & sb) / len(sa | sb) if sa | sb else 1.0


def exact_dup_pairs(ds: rd.Dataset, *, id_col: str = "doc_id",
                    text_col: str = "text",
                    num_buckets: int | None = None,
                    broadcast_limit: int = 250_000) -> rd.Dataset:
    """Exact-duplicate STAR edges ``(id_a=min id of the content group,
    id_b=other id)`` — the closure-ready form of exact dedup pairs.

    Star, not all-pairs: an identical-content group of n docs emits
    n - 1 edges instead of n(n-1)/2, and its connected component is the
    same — a boilerplate corpus with a million-copy document stays
    LINEAR where an all-pairs emit would be quadratic.

    Two phases so full text only ever shuffles for docs that actually
    have a duplicate (usually a tiny fraction of the corpus):

    1. skinny pass: content-hash counts (``hash_aggregate`` partials —
       one row per hash per block) -> the duplicated-hash set;
    2. semi-join filter on the MEASURED dup-hash count — below
       ``broadcast_limit`` the hash set ships once via ``ray.put`` and
       filters map-side (``pc.is_in``); above it a partitioned hash
       join (``bucketed_join``) does the same without any driver
       gather — then per-hash-bucket star emit, grouped on the exact
       text (hash collisions can never pair distinct texts).
    """
    import ray

    from ..functions.agg import bucketed_apply, bucketed_join, hash_aggregate

    pc_ = pa.compute

    def with_hash(t: pa.Table) -> pa.Table:
        h = content_hash(t.select([text_col]).to_pandas(), text_col)
        # uint64 -> int64 bit view (values >= 2^63 must not overflow)
        return t.append_column(
            "__h", pa.array(h.to_numpy().view(np.int64), type=pa.int64()))

    def hash_ones(t: pa.Table) -> pa.Table:
        return pa.table({"__h": with_hash(t)["__h"],
                         "n": pa.array(np.ones(t.num_rows, dtype=np.int64))})

    dup_h = hash_aggregate(
        ds.map_batches(hash_ones, batch_format="pyarrow", batch_size=4096,
                       zero_copy_batch=True),
        ["__h"], [("n", "sum")], rename={"n_sum": "n"},
        num_buckets=num_buckets, exchange="shuffle",
    ).map_batches(
        lambda t: t.filter(pc_.greater_equal(t["n"], 2)).select(["__h"]),
        batch_format="pyarrow",
    ).materialize()

    hashed = ds.map_batches(with_hash, batch_format="pyarrow",
                            batch_size=4096, zero_copy_batch=True)
    n_dup = dup_h.count()
    if n_dup == 0:
        # clean corpus: no pairs — typed empty output (iter_batches of
        # an empty dataset yields nothing, so concat below would raise)
        from ..functions.agg import pa_type_of

        id_type = pa_type_of(dict(zip(ds.schema().names,
                                      ds.schema().types))[id_col])
        empty = pa.table({"id_a": pa.array([], type=id_type),
                          "id_b": pa.array([], type=id_type)})
        return rd.from_arrow(empty)
    if n_dup <= broadcast_limit:
        hs_ref = ray.put(pa.concat_tables(
            dup_h.iter_batches(batch_format="pyarrow"))["__h"]
            .combine_chunks())

        def semi(t: pa.Table) -> pa.Table:
            return t.filter(pc_.is_in(t["__h"], value_set=ray.get(hs_ref)))

        cand = hashed.map_batches(semi, batch_format="pyarrow")
    else:
        marked = dup_h.map_batches(
            lambda t: t.append_column(
                "__dup", pa.array(np.ones(t.num_rows, dtype=np.int8))),
            batch_format="pyarrow")
        cand = bucketed_join(hashed, marked, left_key="__h",
                             right_key="__h", right_value_cols=["__dup"],
                             num_buckets=num_buckets).map_batches(
            lambda t: t.drop_columns(["__dup"]), batch_format="pyarrow")

    def star(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({"id_a": df[id_col], "id_b": df[id_col]})
        df = df.sort_values([text_col, id_col], kind="stable")
        hub = df.groupby(text_col, sort=False)[id_col].transform("first")
        mask = (hub != df[id_col]).to_numpy()
        return pd.DataFrame({"id_a": hub.to_numpy()[mask],
                             "id_b": df[id_col].to_numpy()[mask]})

    return bucketed_apply(cand, ["__h"], star, num_buckets=num_buckets)


# ------------------------------------------------- sorted neighborhood
def sorted_neighborhood_pairs(ds: rd.Dataset, *, group_col: str,
                              order_cols: list[str], id_col: str,
                              window: int = 3,
                              num_buckets: int | None = None
                              ) -> rd.Dataset:
    """``(id_a, id_b, gap)`` — the classic sorted-neighborhood blocking
    pass of entity resolution: within each ``group_col`` partition,
    rows are ranked by ``order_cols`` and every row is paired with the
    ``window`` rows after it (``gap`` = rank distance, 1..window).
    The candidate channel for "almost the same size/sort key" records
    that hash blocking misses; feed the pairs to a verifier (MinHash /
    edit distance / embedding cosine).

    Caller contract: ``order_cols`` must end in a unique tie-breaker
    (e.g. the id) so ranks are a total order — same contract as
    ``grouped_running``, which computes them.  Scale shape: one keyed
    shuffle for the rank pass, then each row EXPLODES to ``window``
    skinny probe keys joined once against the ranked table — no sort
    of pairs, no quadratic block expansion, and the join key
    ``group#rank`` is unique on the build side, so the join output is
    exactly the candidate set.  SQL replay:
    ``ROW_NUMBER() OVER (PARTITION BY g ORDER BY ...)`` self-join on
    ``rn_b - rn_a BETWEEN 1 AND window``.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    from ..functions.agg import bucketed_join, grouped_running

    import pyarrow.compute as pc

    cols = list(dict.fromkeys([group_col, *order_cols, id_col]))
    ranked = grouped_running(
        ds.select_columns(cols),
        [group_col], order_cols, seq_col="__seq",
        num_buckets=num_buckets).materialize()

    def jk(t: pa.Table, seq: pa.Array) -> pa.Array:
        return pc.binary_join_element_wise(
            pc.cast(t[group_col], pa.string()),
            pc.cast(seq, pa.string()), "#")

    def build_side(t: pa.Table) -> pa.Table:
        return pa.table({"__jk": jk(t, t["__seq"]),
                         "id_b": t[id_col]})

    def probe_side(t: pa.Table) -> pa.Table:
        parts = []
        for o in range(1, window + 1):
            target = pc.add(t["__seq"], pa.scalar(o, pa.int64()))
            parts.append(pa.table({
                "__jk": jk(t, target),
                "id_a": t[id_col],
                "gap": pa.array(np.full(t.num_rows, o, np.int64))}))
        return pa.concat_tables(parts)

    build = ranked.map_batches(build_side, batch_format="pyarrow",
                               zero_copy_batch=True)
    probe = ranked.map_batches(probe_side, batch_format="pyarrow",
                               zero_copy_batch=True)
    id_type = _col_type(ds, id_col)
    joined = bucketed_join(
        probe, build, left_key="__jk", right_key="__jk",
        right_value_cols=["id_b"], num_buckets=num_buckets,
        left_schema=pa.schema([("__jk", pa.string()),
                               ("id_a", id_type),
                               ("gap", pa.int64())]),
        right_schema=pa.schema([("__jk", pa.string()),
                                ("id_b", id_type)]))
    return joined.select_columns(["id_a", "id_b", "gap"])


def _col_type(ds: rd.Dataset, col: str) -> pa.DataType:
    from ..functions.agg import pa_type_of

    sch = ds.schema()
    sch = getattr(sch, "base_schema", sch)
    return pa_type_of(dict(zip(sch.names, sch.types))[col])


def prefix_jaccard_pairs(docs: rd.Dataset, *, id_col: str = "doc_id",
                         text_col: str = "text",
                         threshold: tuple[int, int] = (1, 2),
                         scale: int = 1_000_000,
                         num_buckets: int | None = None,
                         driver_threshold: int = 2_000_000) -> rd.Dataset:
    """``(id_a, id_b, inter_n, union_n, jac_fp)`` — EXACT token-set
    Jaccard similarity join via prefix filtering (PPJoin-lite, the
    Bayardo/Chaudhuri all-pairs algorithm): every pair with
    ``|A∩B| / |A∪B| >= threshold`` is emitted, no LSH
    false-negatives.  The complementary channel to the MinHash /
    SimHash families: probabilistic blocking trades recall for speed,
    this trades candidate volume for an exactness guarantee.

    Tokens are the corpus tokenizer's distinct lowercase words
    (``[^a-z]+`` split — the ``term_count_partial`` / DuckDB
    ``string_split_regex`` parity pair).  The GLOBAL token order is
    (document-frequency ASC, token ASC) — rarest first; a document
    with ``n`` distinct tokens indexes only its first
    ``n - ceil(t*n) + 1`` tokens (any qualifying partner must share
    one: ``inter >= ceil(t*n)`` by ``J >= t``, pigeonhole on the
    suffix), plus the length filter ``min*den >= num*max``.
    Candidates are verified with an exact distributed intersection
    count; all arithmetic is integer (threshold compare by
    cross-multiplication; ``jac_fp = inter * scale // union``), so
    the result is deterministic and SQL-replayable.

    Scale shape: tokenize+local-distinct per block, ONE keyed dedup
    exchange, two skinny stat aggregates (df, n), two joins to attach
    them, a per-doc ranked prefix cut, token-bucketed pair generation
    BOUNDED by prefix-token rarity (prefix tokens are the rarest by
    construction — the hot "the"-sized keys never enter the index),
    and verification joins whose volume is sum(n_a + n_b) over
    surviving candidates.
    """
    import pyarrow.compute as pc

    from ..functions.agg import (bucketed_group_map, bucketed_join,
                                 hash_aggregate, pa_type_of)

    num, den = threshold
    if not (0 < num <= den):
        raise ValueError("threshold must be a fraction in (0, 1]")

    sch = docs.schema()
    sch = getattr(sch, "base_schema", sch)
    id_type = pa_type_of(dict(zip(sch.names, sch.types))[id_col])

    def tok_rows(t: pa.Table) -> pa.Table:
        text = pc.coalesce(t[text_col], pa.scalar("", pa.string()))
        toks = pc.split_pattern_regex(pc.utf8_lower(text),
                                      pattern="[^a-z]+")
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        lens = pc.list_value_length(toks).fill_null(0).to_numpy(
            zero_copy_only=False).astype(np.int64)
        flat = pc.list_flatten(toks)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        ids = pa.array(np.repeat(np.arange(t.num_rows), lens))
        keep = pc.not_equal(flat, "")
        tb = pa.table({id_col: t[id_col].take(ids).filter(keep),
                       "tok": flat.filter(keep)})
        # local distinct before the exchange (combiner)
        return pa.TableGroupBy(tb, [id_col, "tok"]).aggregate([])

    toks = hash_aggregate(
        docs.select_columns([id_col, text_col]).map_batches(
            tok_rows, batch_format="pyarrow", zero_copy_batch=True),
        [id_col, "tok"], [("tok", "count")],
        num_buckets=num_buckets, exchange="shuffle",
    ).select_columns([id_col, "tok"]).materialize()
    toks_schema = pa.schema([(id_col, id_type), ("tok", pa.string())])

    # MEASURED driver fast path (the 2M policy shared with the graph
    # family): the output pair set is algebraically defined (exact
    # Jaccard >= t), so the vectorized pandas form below produces the
    # identical rows with none of the ~10 exchange rounds' scheduling
    # cost; the distributed path stays the >2M-token route and is
    # forced in tests with driver_threshold=0
    if driver_threshold and toks.count() <= driver_threshold:
        fast = _prefix_jaccard_driver(toks.to_pandas(), id_col=id_col,
                                      num=num, den=den, scale=scale,
                                      id_type=id_type)
        if fast is not None:  # None: bitset would exceed the memory cap
            return fast

    nn = hash_aggregate(toks, [id_col], [("tok", "count")],
                        rename={"tok_count": "n"},
                        num_buckets=num_buckets, exchange="shuffle")
    df = hash_aggregate(toks, ["tok"], [(id_col, "count")],
                        rename={f"{id_col}_count": "df"},
                        num_buckets=num_buckets, exchange="shuffle")
    with_df = bucketed_join(
        toks, df, left_key="tok", right_key="tok",
        right_value_cols=["df"], num_buckets=num_buckets,
        left_schema=toks_schema,
        right_schema=pa.schema([("tok", pa.string()),
                                ("df", pa.int64())]))
    with_n = bucketed_join(
        with_df, nn, left_key=id_col, right_key=id_col,
        right_value_cols=["n"], num_buckets=num_buckets,
        left_schema=pa.schema([(id_col, id_type), ("tok", pa.string()),
                               ("df", pa.int64())]),
        right_schema=pa.schema([(id_col, id_type), ("n", pa.int64())]))

    def prefix_cut(g: pd.DataFrame) -> pd.DataFrame:
        if g.empty:
            return g[[id_col, "tok", "n"]]
        n_doc = int(g["n"].iloc[0])
        p = n_doc - (num * n_doc + den - 1) // den + 1
        return (g.sort_values(["df", "tok"]).head(p)
                [[id_col, "tok", "n"]])

    prefix = bucketed_group_map(with_n, [id_col], prefix_cut,
                                num_buckets=num_buckets,
                                exchange="shuffle")

    def pair_gen(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(id_col)
        ids = g[id_col].to_numpy()
        ns = g["n"].to_numpy(dtype=np.int64)
        ia, ib = np.triu_indices(len(ids), k=1)
        a, b, na, nb = ids[ia], ids[ib], ns[ia], ns[ib]
        lo, hi = np.minimum(na, nb), np.maximum(na, nb)
        keep = lo * den >= num * hi  # length filter
        return pd.DataFrame({"id_a": a[keep], "id_b": b[keep],
                             "n_a": na[keep], "n_b": nb[keep]})

    cand = hash_aggregate(
        bucketed_group_map(prefix, ["tok"], pair_gen,
                           num_buckets=num_buckets, exchange="shuffle",
                           min_group_size=2),
        ["id_a", "id_b"], [("n_a", "min"), ("n_b", "min")],
        rename={"n_a_min": "n_a", "n_b_min": "n_b"},
        num_buckets=num_buckets, exchange="shuffle")

    def with_pk(t: pa.Table) -> pa.Table:
        pk = pc.binary_join_element_wise(
            pc.cast(t["id_a"], pa.string()),
            pc.cast(t["id_b"], pa.string()), "|")
        return t.append_column("pk", pk)

    pairs = cand.map_batches(with_pk, batch_format="pyarrow",
                             zero_copy_batch=True).materialize()
    pairs_schema = pa.schema([
        ("id_a", id_type), ("id_b", id_type),
        ("n_a", pa.int64()), ("n_b", pa.int64()),
        ("pk", pa.string())])

    def side_rows(side: str):
        def f(t: pa.Table) -> pa.Table:
            return pa.table({"pk": t["pk"], "sid": t[side]})
        return f

    def probe(side: str) -> rd.Dataset:
        skinny = pairs.map_batches(side_rows(side),
                                   batch_format="pyarrow",
                                   zero_copy_batch=True)
        joined = bucketed_join(
            skinny, toks, left_key="sid", right_key=id_col,
            right_value_cols=["tok"], num_buckets=num_buckets,
            left_schema=pa.schema([("pk", pa.string()),
                                   ("sid", id_type)]),
            right_schema=toks_schema)
        return joined.map_batches(
            lambda t: pa.table({"pk": t["pk"], "tok": t["tok"]}),
            batch_format="pyarrow", zero_copy_batch=True)

    both = hash_aggregate(
        probe("id_a").union(probe("id_b")), ["pk", "tok"],
        [("tok", "count")], rename={"tok_count": "c"},
        num_buckets=num_buckets, exchange="shuffle")
    inter = hash_aggregate(
        both.map_batches(
            lambda t: t.filter(pc.equal(t["c"],
                                        pa.scalar(2, pa.int64()))),
            batch_format="pyarrow", zero_copy_batch=True),
        ["pk"], [("c", "count")], rename={"c_count": "inter_n"},
        num_buckets=num_buckets, exchange="shuffle")

    final = bucketed_join(
        pairs, inter, left_key="pk", right_key="pk",
        right_value_cols=["inter_n"], num_buckets=num_buckets,
        left_schema=pairs_schema,
        right_schema=pa.schema([("pk", pa.string()),
                                ("inter_n", pa.int64())]))

    def verify(t: pa.Table) -> pa.Table:
        it = t["inter_n"].cast(pa.int64())
        un = pc.subtract(pc.add(t["n_a"], t["n_b"]), it)
        ok = pc.greater_equal(pc.multiply(it, pa.scalar(den, pa.int64())),
                              pc.multiply(un, pa.scalar(num, pa.int64())))
        t2 = pa.table({
            "id_a": t["id_a"], "id_b": t["id_b"],
            "inter_n": it, "union_n": un,
            "jac_fp": pc.divide(pc.multiply(
                it, pa.scalar(scale, pa.int64())), un)}).filter(ok)
        return t2

    return final.map_batches(verify, batch_format="pyarrow",
                             zero_copy_batch=True)


def _popcount_swar(x: np.ndarray) -> np.ndarray:
    """SWAR popcount over a uint64 array (any shape) — ~5 vector ops,
    no bit-unpacking blowup (``popcount64``'s unpackbits costs 64x the
    memory, fine for flat columns, not for pair x word matrices)."""
    m1 = np.uint64(0x5555555555555555)
    m2 = np.uint64(0x3333333333333333)
    m4 = np.uint64(0x0F0F0F0F0F0F0F0F)
    h = np.uint64(0x0101010101010101)
    x = x - ((x >> np.uint64(1)) & m1)
    x = (x & m2) + ((x >> np.uint64(2)) & m2)
    x = (x + (x >> np.uint64(4))) & m4
    return ((x * h) >> np.uint64(56)).astype(np.int64)


def _prefix_jaccard_driver(df: pd.DataFrame, *, id_col: str, num: int,
                           den: int, scale: int,
                           id_type: pa.DataType) -> rd.Dataset | None:
    """Vectorized numpy form over the (already distinct,
    driver-gathered) skinny (id, token) rows — same prefix filter and
    length filter, exact verification via per-doc token BITSETS with a
    chunked SWAR popcount (a clone-heavy corpus at t~1 admits ~n^2
    true pairs per clone family; pandas-merge verification was
    measured 315 s at sf0.1 where this form is ~3 s)."""

    def empty() -> rd.Dataset:
        return rd.from_arrow(pa.table({
            "id_a": pa.array([], id_type), "id_b": pa.array([], id_type),
            "inter_n": pa.array([], pa.int64()),
            "union_n": pa.array([], pa.int64()),
            "jac_fp": pa.array([], pa.int64())}))

    if df.empty:
        return empty()
    ic0, ids_uniq = pd.factorize(df[id_col], sort=True)
    # sort=True: token-code order == lexicographic token order, so the
    # global prefix order (df ASC, tok ASC) is (dfreq[code], code) on
    # pure integers
    tc0, _ = pd.factorize(df["tok"], sort=True)
    ic0 = ic0.astype(np.int64)
    tc0 = tc0.astype(np.int64)
    n_docs, vocab = len(ids_uniq), int(tc0.max()) + 1
    n = np.bincount(ic0, minlength=n_docs).astype(np.int64)
    dfreq = np.bincount(tc0, minlength=vocab).astype(np.int64)

    # rows in global token order, then stably regrouped per doc: the
    # within-doc order is the global order, so rank < p is the prefix
    order = np.lexsort((tc0, dfreq[tc0]))
    regroup = np.argsort(ic0[order], kind="stable")
    ic_s, tc_s = ic0[order][regroup], tc0[order][regroup]
    starts = np.r_[0, np.flatnonzero(np.diff(ic_s)) + 1]
    sizes = np.diff(np.r_[starts, len(ic_s)])
    rk = np.arange(len(ic_s)) - np.repeat(starts, sizes)
    p_len = n - (num * n + den - 1) // den + 1
    keep = rk < p_len[ic_s]
    pi, pt = ic_s[keep], tc_s[keep]

    # candidate pairs: all (a < b) within each prefix-token group,
    # length-filtered, deduped on an n_docs-encoded int64 key
    g_order = np.lexsort((pi, pt))
    gi, gt = pi[g_order], pt[g_order]
    g_starts = np.r_[0, np.flatnonzero(np.diff(gt)) + 1]
    g_ends = np.r_[g_starts[1:], len(gt)]
    pair_keys: list[np.ndarray] = []
    for s, e_ in zip(g_starts, g_ends):
        c = e_ - s
        if c < 2:
            continue
        ia, ib = np.triu_indices(c, k=1)
        a, b = gi[s + ia], gi[s + ib]
        lo = np.minimum(n[a], n[b])
        hi = np.maximum(n[a], n[b])
        ok = lo * den >= num * hi
        pair_keys.append(a[ok] * n_docs + b[ok])
    if not pair_keys:
        return empty()
    pk = np.unique(np.concatenate(pair_keys))
    a, b = pk // n_docs, pk % n_docs

    # exact verification: per-doc token bitsets + chunked SWAR popcount
    words = (vocab + 63) // 64
    if n_docs * words > 64_000_000:  # 512 MB bitset cap: fall back to
        return None                  # the distributed path (caller)
    B = np.zeros((n_docs, words), np.uint64)
    np.bitwise_or.at(B, (ic0, tc0 >> 6),
                     np.uint64(1) << (tc0 & 63).astype(np.uint64))
    inter = np.empty(len(a), np.int64)
    step = max(1, 8_000_000 // max(1, words))
    for s in range(0, len(a), step):
        sl = slice(s, s + step)
        inter[sl] = _popcount_swar(B[a[sl]] & B[b[sl]]).sum(axis=1)
    union = n[a] + n[b] - inter
    ok = inter * den >= num * union
    return rd.from_arrow(pa.table({
        "id_a": pa.array(np.asarray(ids_uniq)[a[ok]]).cast(id_type),
        "id_b": pa.array(np.asarray(ids_uniq)[b[ok]]).cast(id_type),
        "inter_n": pa.array(inter[ok]),
        "union_n": pa.array(union[ok]),
        "jac_fp": pa.array((inter[ok] * scale) // union[ok])}))
