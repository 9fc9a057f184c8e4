"""Deduplication stages: exact, MinHash+LSH, SimHash.

The reference's only dedup operators are key-grouped MERGE upserts and
the embedding near-dup canonicalizer (SURVEY.md §2.7).  A 100 TB
training-data pipeline needs document-level dedup as a first-class
stage; these follow the same physical design rules as the KG build: no
global state, pure table kernels, one measured placement.

MinHash and SimHash near-dup are one LSH-banded similarity join
("Distributed Streaming Set Similarity Join", ICDE 2020) written once:
signature rows -> band keys -> ``bucket_pairs`` (all pairs of each
colliding band bucket, capped and reported) -> the pair's score.  The
signature row count against ``_LOCAL_SIG_LIMIT`` places it in one Ray
task, or in stateless tasks with bucketed exchanges.

All hash functions are process-independent (``functions/hashing.py``);
Python's salted ``hash`` is never used.
"""

from __future__ import annotations

import functools
import zlib
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import ray
import ray.data as rd

from ..functions.agg import (
    bucketed_apply,
    bucketed_join,
    column_type,
    hash_aggregate,
    measured_exchange,
)
from ..functions.worker_state import process_cached

# bump when signature semantics change: resumed extraction runs must
# not mix signature generations across partitions (pairs from mixed
# generations estimate ~0 even for true near-dups)
SKETCH_VERSION = 2  # v2: single-path densified OPH for all doc sizes

# all-pairs cap per colliding LSH band bucket: a bucket larger than
# this is near-identical boilerplate and an unbounded all-pairs on it
# goes quadratic.  Truncation is REPORTED (functions/runstats), never
# silent.
_BUCKET_CAP = 256


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
    """Per-batch MinHash signatures of ``num_perm`` uint64 slots over
    word ``k_shingle``-grams; holds the token hash cache."""

    def __init__(self, k_shingle: int = 3, num_perm: int = 64) -> None:
        assert num_perm & (num_perm - 1) == 0, "num_perm must be a power of 2"
        self.k, self.num_perm = k_shingle, num_perm
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

# ------------------------------------------------------------------ SimHash

class SimHasher:
    """64-bit SimHash per doc.  Token -> 64-bit hash is cached (the
    vocabulary is far smaller than the corpus)."""

    def __init__(self) -> None:
        import hashlib

        self._cache: dict[str, int] = {}
        self._blake = hashlib.blake2b

    def _th(self, tok: str) -> int:
        h = self._cache.get(tok)
        if h is None:
            h = int.from_bytes(self._blake(tok.encode(), digest_size=8).digest(), "little")
            if len(self._cache) >= 4_000_000:
                # bound process memory on open-vocabulary corpora (~0.5 GB
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


def popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized population count of a uint64 array (byte-view +
    ``np.unpackbits`` — no per-row Python)."""
    x = np.ascontiguousarray(x, dtype=np.uint64)
    if not len(x):
        return np.zeros(0, dtype=np.int64)
    bits = np.unpackbits(x.view(np.uint8).reshape(len(x), 8), axis=1)
    return bits.sum(axis=1, dtype=np.int64)


# ---------------------------------------------------- LSH near-dup pairs
#
# A MinHash or SimHash near-dup job is four pure ``pa.Table -> pa.Table``
# kernels over signature rows ``(id, sig)``: band keys ``(id, band,
# band_hash)`` -> ``bucket_pairs`` -> the pair's signatures -> its score.
# ``_near_pairs`` places the chain from one measured gate.

# the signature row count at or below which one task runs the whole
# chain; measured in ``_near_pairs``
_LOCAL_SIG_LIMIT = 2_000_000
_BAND_KEY = ["band", "band_hash"]
_PAIR_KEY = ["id_a", "id_b"]


def _arr(col) -> pa.Array:
    return col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col


def _blobs(sigs: np.ndarray) -> pa.FixedSizeBinaryArray:
    """``(n, p)`` unsigned signatures -> one ``fixed_size_binary`` blob
    per row: ``p`` little-endian slots of the array's own width."""
    n, p = sigs.shape
    sigs = np.ascontiguousarray(sigs)
    return pa.FixedSizeBinaryArray.from_buffers(
        pa.binary(sigs.itemsize * p), n, [None, pa.py_buffer(sigs)])


def _sig_matrix(col, num_perm: int) -> np.ndarray:
    """A blob column -> its ``(n, num_perm)`` unsigned signatures, at
    the slot width the blobs were written with."""
    col = _arr(col)
    w = col.type.byte_width
    slot = np.dtype(f"<u{w // num_perm}")
    if not len(col):
        return np.empty((0, num_perm), slot)
    data = np.frombuffer(col.buffers()[1], np.uint8)
    return (data[col.offset * w:(col.offset + len(col)) * w]
            .view(slot).reshape(len(col), num_perm))


def minhash_sigs(t: pa.Table, *, id_col: str, sig_col: str,
                 num_perm: int, slot: type = np.uint64) -> pa.Table:
    """List signature rows -> ``(id, sig)`` blob rows of ``slot``
    values.  A row whose signature is null, empty or not ``num_perm``
    wide (legacy-schema ingest emits ``[]``) drops."""
    sigs, ids = _arr(t[sig_col]), _arr(t[id_col])
    keep = pc.equal(pc.fill_null(pc.list_value_length(sigs), 0), num_perm)
    if not pc.all(keep).as_py():
        sigs, ids = sigs.filter(keep), ids.filter(keep)
    flat = pc.list_flatten(sigs).to_numpy(zero_copy_only=False)
    return pa.table({"id": ids, "sig": _blobs(
        np.asarray(flat, slot).reshape(-1, num_perm))})


def _band_rows(ids, keys: np.ndarray) -> pa.Table:
    """Ids + their ``(n, bands)`` uint64 keys -> one ``(id, band,
    band_hash)`` row per id and band."""
    n, nb = keys.shape
    return pa.table({
        "id": _arr(ids).take(pa.array(np.repeat(np.arange(n), nb))),
        "band": pa.array(np.tile(np.arange(nb, dtype=np.int32), n)),
        "band_hash": pa.array(np.ascontiguousarray(keys, np.uint64)
                              .reshape(-1).view(np.int64)),
    })


def band_keys(t: pa.Table, *, num_bands: int, num_perm: int) -> pa.Table:
    """MinHash ``(id, sig)`` rows -> ``(id, band, band_hash)``: the
    ``num_perm // num_bands`` slots of each band mixed into one key.
    Fewer slots than bands give no rows."""
    sigs = _sig_matrix(t["sig"], num_perm)
    n, r = len(sigs), num_perm // num_bands
    chunks = sigs[:, : num_bands * r].reshape(n, num_bands, r)
    bh = np.zeros((n, num_bands if r else 0), dtype=np.uint64)
    for j in range(r):  # 32-bit slots widen here, a band at a time
        bh = bh ^ (chunks[:, :, j].astype(np.uint64) * _SHINGLE_MIX[j % 3])
        bh = (bh << np.uint64(9)) | (bh >> np.uint64(55))
    return _band_rows(t["id"], bh)


def simhash_keys(t: pa.Table) -> pa.Table:
    """SimHash ``(id, sig)`` rows -> ``(id, band, band_hash)``, the four
    16-bit quarters: a pair within Hamming distance 3 agrees on one."""
    shifts = np.arange(4, dtype=np.uint64) * np.uint64(16)
    h = _arr(t["sig"]).to_numpy()
    return _band_rows(t["id"], (h[:, None] >> shifts) & np.uint64(0xFFFF))


def bucket_pairs(t: pa.Table, *, cap: int, kind: str) -> pa.Table:
    """``(id, band, band_hash)`` rows -> the distinct ``(id_a, id_b)``,
    ``id_a < id_b``, of every bucket that holds two or more ids.

    A bucket above ``cap`` ids keeps its ``cap`` lowest: one that large
    is near-identical boilerplate, and all-pairs on it goes quadratic.
    The cut is reported through ``functions/runstats`` as ``kind``,
    never silent."""
    ids = _arr(t["id"])
    uniq = pc.unique(ids).sort()
    n = max(len(uniq), 1)
    code = pc.index_in(ids, value_set=uniq).to_numpy().astype(np.int64)
    band, key = t["band"].to_numpy(), t["band_hash"].to_numpy()
    order = np.lexsort((code, key, band))
    band, key, code = band[order], key[order], code[order]
    head = np.ones(len(code), bool)  # first row of its bucket
    head[1:] = (band[1:] != band[:-1]) | (key[1:] != key[:-1])
    keep = head.copy()  # one row per id and bucket
    keep[1:] |= code[1:] != code[:-1]
    head, code = head[keep], code[keep]
    start = np.flatnonzero(head)
    size = np.diff(np.append(start, len(code)))
    over = size > cap
    if over.any():
        from ..functions.runstats import report_truncation

        report_truncation(kind, dropped=int((size[over] - cap).sum()),
                          groups=int(over.sum()))
        size = np.minimum(size, cap)
    found = [np.empty(0, np.int64)]
    for s in np.unique(size[size >= 2]):
        ia, ib = np.triu_indices(s, k=1)
        first = start[size == s][:, None]
        found.append((code[first + ia] * n + code[first + ib]).ravel())
    pair = np.unique(np.concatenate(found))
    return pa.table({"id_a": uniq.take(pa.array(pair // n)),
                     "id_b": uniq.take(pa.array(pair % n))})


def _scored(t: pa.Table, name: str, values: np.ndarray,
            keep: np.ndarray) -> pa.Table:
    return pa.table({"id_a": t["id_a"], "id_b": t["id_b"],
                     name: pa.array(values)}).filter(pa.array(keep))


def jaccard_score(t: pa.Table, *, threshold: float,
                  num_perm: int) -> pa.Table:
    """``(id_a, id_b, sig_a, sig_b)`` -> ``(id_a, id_b, jaccard)`` at or
    above ``threshold``, the estimate being the share of equal slots."""
    jac = (_sig_matrix(t["sig_a"], num_perm)
           == _sig_matrix(t["sig_b"], num_perm)).mean(axis=1)
    return _scored(t, "jaccard", jac, jac >= threshold)


def hamming_score(t: pa.Table, *, max_hamming: int) -> pa.Table:
    """``(id_a, id_b, sig_a, sig_b)`` -> ``(id_a, id_b, hamming)`` at or
    below ``max_hamming``."""
    ham = popcount64(_arr(t["sig_a"]).to_numpy() ^ _arr(t["sig_b"]).to_numpy())
    return _scored(t, "hamming", ham, ham <= max_hamming)


def _pair_ids(t: pa.Table) -> pa.Array:
    """Both sides' ids of ``(id_a, id_b)`` pairs, repeats kept."""
    return pa.concat_arrays([_arr(t["id_a"]), _arr(t["id_b"])])


# both placements raise when the candidates' signature rows outnumber the
# distinct candidate ids: a repeated id has no one signature to score
_REPEATED = "near-dup ids must be unique: a candidate id has two signatures"


def _with_sigs(pairs: pa.Table, sigs: pa.Table) -> pa.Table:
    """Pairs + the signature of each side (the in-task join), from the
    signature rows of the candidate ids."""
    cand = pc.unique(_pair_ids(pairs))
    sigs = sigs.filter(pc.is_in(sigs["id"], value_set=cand))
    if sigs.num_rows > len(cand):
        raise ValueError(_REPEATED)
    for side in ("a", "b"):
        pos = pc.index_in(pairs[f"id_{side}"], value_set=_arr(sigs["id"]))
        pairs = pairs.append_column(f"sig_{side}", _arr(sigs["sig"]).take(pos))
    return pairs


@dataclass(frozen=True)
class _Job:
    """One near-dup job: its kernels, bucket cap and output schema.
    ``prep`` turns input rows into ``(id, sig)`` rows (none when the
    input is already in that form); ``columns`` are the ones it reads."""
    keys: Callable[[pa.Table], pa.Table]
    score: Callable[[pa.Table], pa.Table]
    cap: int
    kind: str
    out: pa.Schema
    prep: Callable[[pa.Table], pa.Table] | None = None
    columns: tuple[str, ...] = ()

    def scored(self, t: pa.Table) -> pa.Table:
        return self.score(t).cast(self.out)


@ray.remote
def _pairs_local(job: _Job, *blocks) -> pa.Table:
    """The whole chain in one task (not the driver: no signature enters
    its heap).  ``blocks`` are tables, or one parquet path the task
    reads itself a batch at a time, each turned into signature rows
    before the next is read."""
    if blocks and isinstance(blocks[0], str):
        blocks = pads.dataset(blocks[0]).to_batches(columns=list(job.columns))
    sigs = [job.prep(b) if job.prep else b for b in blocks if b.num_rows]
    if not sigs:
        return job.out.empty_table()
    sigs = pa.concat_tables(sigs, promote_options="permissive")
    pairs = bucket_pairs(job.keys(sigs), cap=job.cap, kind=job.kind)
    return job.scored(_with_sigs(pairs, sigs))


@ray.remote
def _candidate_sigs(sigs: pa.Table, *ids: pa.Table) -> pa.Table:
    """One signature block cut to the candidate ids (``ids`` = their
    distinct blocks, passed by reference)."""
    if not sigs.num_rows:
        return sigs
    cand = pa.chunked_array(
        [c for t in ids if t.num_rows for c in t["id"].chunks],
        sigs["id"].type)
    return sigs.filter(pc.is_in(sigs["id"], value_set=_arr(cand)))


def _pairs_bucketed(job: _Job, sigs: rd.Dataset) -> rd.Dataset:
    """The same kernels as stateless tasks and bucketed exchanges: band
    keys as a map, ``bucket_pairs`` per band bucket and a distinct over
    the pairs, all on skinny rows.  Then the candidate cut: the distinct
    ids of the pairs go by reference to one task per signature block,
    which keeps those ids' rows, so only candidates' signatures enter an
    exchange (1% of them on the generated run dirs of ``_near_pairs``;
    without the cut, a join over every signature took 63 of 74 s at
    2M).  Two partitioned joins attach them to the pairs, and the score
    follows."""
    if job.prep:
        sigs = sigs.map_batches(job.prep, batch_format="pyarrow")
    sigs = sigs.materialize()  # read by the map and the cut
    pairs = hash_aggregate(bucketed_apply(
        sigs.map_batches(job.keys, batch_format="pyarrow"), _BAND_KEY,
        functools.partial(bucket_pairs, cap=job.cap, kind=job.kind),
        batch_format="pyarrow"), _PAIR_KEY, [])
    cand = hash_aggregate(pairs.map_batches(
        lambda t: pa.table({"id": _pair_ids(t)}), batch_format="pyarrow"),
        ["id"], [])
    refs = cand.to_arrow_refs()
    sigs = rd.from_arrow_refs([_candidate_sigs.remote(b, *refs)
                               for b in sigs.to_arrow_refs()])
    if sigs.count() > cand.count():
        raise ValueError(_REPEATED)
    for side in ("sig_a", "sig_b"):
        pairs = bucketed_join(
            pairs, sigs.rename_columns({"sig": side}),
            left_key=f"id{side[3:]}", right_key="id",
            right_value_cols=[side])
    return pairs.map_batches(job.scored, batch_format="pyarrow")


def _near_pairs(job: _Job, sigs: rd.Dataset | str):
    """Signature rows -> ``(pairs, gate)``.

    The one placement decision: the measured signature row count
    (parquet metadata when ``sigs`` is a parquet path, else the count of
    the materialized dataset) against ``_LOCAL_SIG_LIMIT``.  At or below
    it one task runs band -> pairs -> score over the blocks (no
    ``ray.put``, no driver gather); above it ``_pairs_bucketed`` runs
    the same kernels.  ``gate`` records the count, the limit and the
    exchange taken.

    The limit is measured on generated run dirs (64 uint32 slots per
    signature, 1% planted near-dups, 8 bands; 4-CPU local Ray, 2 GiB
    object store; ``run_doc_neardup`` walls, one run each):

    ===========  ========  =========  ========  ================
    rows         semi-join one task   bucketed  one-task peak RSS
    ===========  ========  =========  ========  ================
    100k         15.2 s    2.5 s      8.0 s     366 MB
    500k         69.2 s    5.0 s      10.6 s    779 MB
    1M           82.7 s    8.2 s      14.8 s    1,198 MB
    2M           135.9 s   16.5 s     24.1 s    2,233 MB
    4M           293.1 s   --         35.9 s    --
    ===========  ========  =========  ========  ================

    "semi-join" is the earlier broadcast semi-join chain this
    one replaced; every run gave its pairs.  The one task is faster at
    every size run end to end, and its chain alone took 32.6 s at 4M,
    so the limit is set by memory: the peak RSS is the chain's in a
    fresh process, 158 MB of it imports, and was 4.3 GB at 4M.  Counts
    above 2M take the bucketed placement."""
    n = (pads.dataset(sigs).count_rows() if isinstance(sigs, str)
         else sigs.count())
    exchange = measured_exchange(n, threshold=_LOCAL_SIG_LIMIT)
    gate = {"sigs_in": n, "sig_limit": _LOCAL_SIG_LIMIT, "exchange": exchange}
    if exchange == "shuffle":
        if isinstance(sigs, str):
            sigs = rd.read_parquet(sigs, columns=list(job.columns))
        return _pairs_bucketed(job, sigs), gate
    blocks = [sigs] if isinstance(sigs, str) else sigs.to_arrow_refs()
    return rd.from_arrow_refs([_pairs_local.remote(job, *blocks)]), gate


def _id_type(ds: rd.Dataset, col: str) -> pa.DataType:
    return column_type(ds, col) if ds.schema() else pa.string()


def _signature_job(id_type: pa.DataType, value_type: pa.DataType, *,
                   jaccard_threshold: float, num_bands: int, num_perm: int,
                   prep_cols: tuple[str, str] | None = None) -> _Job:
    """The MinHash job over signatures of ``value_type`` slots;
    ``prep_cols`` = ``(id_col, sig_col)`` of list signature input
    rows.  32-bit values (the extraction pass stores its slots so) keep
    4-byte blob slots, others take 8."""
    slot = (np.uint32 if pa.types.is_integer(value_type)
            and value_type.bit_width <= 32 else np.uint64)
    prep = prep_cols and functools.partial(
        minhash_sigs, id_col=prep_cols[0], sig_col=prep_cols[1],
        num_perm=num_perm, slot=slot)
    return _Job(keys=functools.partial(band_keys, num_bands=num_bands,
                                       num_perm=num_perm),
                score=functools.partial(jaccard_score, num_perm=num_perm,
                                        threshold=jaccard_threshold),
                cap=_BUCKET_CAP, kind="pairs_from_signatures.band_bucket",
                out=pa.schema([("id_a", id_type), ("id_b", id_type),
                               ("jaccard", pa.float64())]),
                prep=prep, columns=prep_cols or ())


def pairs_from_signatures(sig_ds: rd.Dataset, *, id_col: str = "doc_id",
                          sig_col: str = "minhash_sig",
                          jaccard_threshold: float = 0.9,
                          num_bands: int = 8,
                          num_perm: int = 64) -> rd.Dataset:
    """``(id_a, id_b, jaccard)`` near-dup pairs from PRE-COMPUTED MinHash
    signatures (e.g. the ``minhash_sig`` column the extraction pass
    emits): the LSH-banded similarity join.  Every band bucket of two or
    more ids gives all its pairs (capped at ``_BUCKET_CAP`` ids,
    reported through ``functions/runstats``); a pair is kept when its
    estimated Jaccard is at or above ``jaccard_threshold``.

    Rows whose signature is empty or not ``num_perm`` wide drop first.
    Ids must be unique: an id in a candidate pair with two signature
    rows raises on either placement (an id without a pair is not
    checked).  ``_near_pairs`` places the chain: one task, or bucketed
    exchanges above ``_LOCAL_SIG_LIMIT`` rows."""
    sig_ds = sig_ds.materialize()
    sig_type = column_type(sig_ds, sig_col) if sig_ds.schema() else None
    job = _signature_job(_id_type(sig_ds, id_col),
                         getattr(sig_type, "value_type", pa.uint64()),
                         jaccard_threshold=jaccard_threshold,
                         num_bands=num_bands, num_perm=num_perm,
                         prep_cols=(id_col, sig_col))
    return _near_pairs(job, sig_ds)[0]


def run_dir_pairs(run_dir: str, *, jaccard_threshold: float = 0.9,
                  num_bands: int = 8, num_perm: int = 64):
    """``pairs_from_signatures`` over a run dir's ``extractions/``
    ``(doc_id, minhash_sig)`` -> ``(pairs, gate)``.  The row count comes
    from parquet metadata, and the one task reads the signatures
    itself."""
    from ..schemas import EXTRACTION_SCHEMA as schema

    job = _signature_job(schema.field("doc_id").type,
                         schema.field("minhash_sig").type.value_type,
                         jaccard_threshold=jaccard_threshold,
                         num_bands=num_bands, num_perm=num_perm,
                         prep_cols=("doc_id", "minhash_sig"))
    return _near_pairs(job, f"{run_dir}/extractions")


def _minhash_rows(t: pa.Table, *, text_col: str, id_col: str,
                  k_shingle: int, num_perm: int) -> pa.Table:
    mh = process_cached("dedup.minhasher", (k_shingle, num_perm),
                        functools.partial(MinHasher, k_shingle, num_perm))
    return pa.table({"id": t[id_col], "sig": _blobs(
        mh.signatures(t[text_col].to_pylist()))})


def minhash_dedup_pairs(ds: rd.Dataset, *, text_col: str = "text",
                        id_col: str = "doc_id", jaccard_threshold: float = 0.7,
                        num_perm: int = 64, num_bands: int = 16,
                        k_shingle: int = 3) -> rd.Dataset:
    """Near-duplicate ``(id_a, id_b, jaccard)`` pairs by MinHash+LSH:
    signatures in stateless tasks (one ``MinHasher`` per worker
    process), then the ``pairs_from_signatures`` chain (ids must be
    unique, as there)."""
    sigs = ds.map_batches(
        _minhash_rows, fn_kwargs={"text_col": text_col, "id_col": id_col,
                                  "k_shingle": k_shingle,
                                  "num_perm": num_perm},
        batch_format="pyarrow", batch_size=1024).materialize()
    job = _signature_job(_id_type(sigs, "id"), pa.uint64(),
                         jaccard_threshold=jaccard_threshold,
                         num_bands=num_bands, num_perm=num_perm)
    return _near_pairs(job, sigs)[0]


def _simhash_rows(t: pa.Table, *, text_col: str, id_col: str) -> pa.Table:
    texts = t[text_col].to_pylist()
    sh = process_cached("dedup.simhasher", None, SimHasher)
    return pa.table({"id": t[id_col], "sig": pa.array(
        sh.simhashes(texts) if texts else np.empty(0, np.uint64),
        pa.uint64())})


def simhash_dedup_pairs(ds: rd.Dataset, *, text_col: str = "text",
                        id_col: str = "doc_id", max_hamming: int = 3,
                        max_group: int = 256) -> rd.Dataset:
    """Near-dup ``(id_a, id_b, hamming)`` pairs with Hamming distance <=
    ``max_hamming``: 4-band blocking on the 16-bit quarters is lossless
    up to distance 3.  A band bucket above ``max_group`` ids keeps its
    lowest ones (reported as ``simhash_pair_verifier.band_bucket``).
    Ids must be unique, as in ``pairs_from_signatures``."""
    sigs = ds.map_batches(
        _simhash_rows, fn_kwargs={"text_col": text_col, "id_col": id_col},
        batch_format="pyarrow", batch_size=1024).materialize()
    id_type = _id_type(sigs, "id")
    job = _Job(keys=simhash_keys,
               score=functools.partial(hamming_score, max_hamming=max_hamming),
               cap=max_group, kind="simhash_pair_verifier.band_bucket",
               out=pa.schema([("id_a", id_type), ("id_b", id_type),
                              ("hamming", pa.int64())]))
    return _near_pairs(job, sigs)[0]


def ngram_jaccard(text_a: str, text_b: str, k: int = 3) -> float:
    """Exact word-n-gram Jaccard (verification kernel for candidates)."""
    ta, tb = text_a.split(), text_b.split()
    sa = {" ".join(ta[i: i + k]) for i in range(max(0, len(ta) - k + 1))} or {text_a}
    sb = {" ".join(tb[i: i + k]) for i in range(max(0, len(tb) - k + 1))} or {text_b}
    return len(sa & sb) / len(sa | sb) if sa | sb else 1.0


def exact_dup_pairs(ds: rd.Dataset, *, id_col: str = "doc_id",
                    text_col: str = "text",
                    num_buckets: int | None = None) -> rd.Dataset:
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
    2. semi-join of the docs on the duplicated-hash set (a
       ``bucketed_join`` with no value columns; it broadcasts a small
       set) — then per-hash-bucket star emit, grouped on the exact
       text (hash collisions can never pair distinct texts).
    """
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
        lambda t: t.filter(pc.greater_equal(t["n"], 2)).select(["__h"]),
        batch_format="pyarrow",
    ).materialize()

    hashed = ds.map_batches(with_hash, batch_format="pyarrow",
                            batch_size=4096, zero_copy_batch=True)
    if dup_h.count() == 0:
        # clean corpus: no pairs — typed empty output (iter_batches of
        # an empty dataset yields nothing, so concat below would raise)
        id_type = column_type(ds, id_col)
        empty = pa.table({"id_a": pa.array([], type=id_type),
                          "id_b": pa.array([], type=id_type)})
        return rd.from_arrow(empty)
    cand = bucketed_join(hashed, dup_h, left_key="__h", right_key="__h",
                         right_value_cols=[], num_buckets=num_buckets)

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
    from ..functions.agg import grouped_running

    cols = list(dict.fromkeys([group_col, *order_cols, id_col]))
    ranked = grouped_running(
        ds.select_columns(cols),
        [group_col], order_cols, seq_col="__seq",
        num_buckets=num_buckets)

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
    joined = bucketed_join(
        probe, build, left_key="__jk", right_key="__jk",
        right_value_cols=["id_b"], num_buckets=num_buckets)
    return joined.select_columns(["id_a", "id_b", "gap"])


def prefix_jaccard_pairs(docs: rd.Dataset, *, id_col: str = "doc_id",
                         text_col: str = "text",
                         threshold: tuple[int, int] = (1, 2),
                         scale: int = 1_000_000,
                         num_buckets: int | None = None) -> rd.Dataset:
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
    from ..functions import graph
    from ..functions.agg import (bucketed_group_map, bucketed_join,
                                 hash_aggregate)

    num, den = threshold
    if not (0 < num <= den):
        raise ValueError("threshold must be a fraction in (0, 1]")

    id_type = column_type(docs, id_col)

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

    # the graph family's measured gate: the distinct (doc, token) rows
    # are a bipartite edge list, so at or below its edge limit one task
    # runs the vectorized form below over their block refs.  The output
    # pair set is algebraically defined (exact Jaccard >= t), so it
    # gives the identical rows with none of the ~10 exchange rounds'
    # scheduling cost
    if toks.count() <= graph._LOCAL_EDGE_LIMIT:
        out, ok = _prefix_jaccard_local.remote(
            toks.to_arrow_refs(), id_col=id_col, num=num, den=den,
            scale=scale, id_type=id_type)
        if ray.get(ok):  # False: the bitset would exceed its memory cap
            return rd.from_arrow_refs([out])

    nn = hash_aggregate(toks, [id_col], [("tok", "count")],
                        rename={"tok_count": "n"},
                        num_buckets=num_buckets, exchange="shuffle")
    df = hash_aggregate(toks, ["tok"], [(id_col, "count")],
                        rename={f"{id_col}_count": "df"},
                        num_buckets=num_buckets, exchange="shuffle")
    with_df = bucketed_join(
        toks, df, left_key="tok", right_key="tok",
        right_value_cols=["df"], num_buckets=num_buckets)
    with_n = bucketed_join(
        with_df, nn, left_key=id_col, right_key=id_col,
        right_value_cols=["n"], num_buckets=num_buckets)

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
            right_value_cols=["tok"], num_buckets=num_buckets)
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
        right_value_cols=["inter_n"], num_buckets=num_buckets)

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


@ray.remote(num_returns=2)
def _prefix_jaccard_local(refs: list, *, id_col: str, num: int, den: int,
                          scale: int, id_type: pa.DataType):
    """Vectorized numpy form, in one task, over the block refs of the
    (already distinct) skinny (id, token) rows — same prefix filter and
    length filter, exact verification via per-doc token BITSETS with a
    chunked SWAR popcount (a clone-heavy corpus at t~1 admits ~n^2
    true pairs per clone family; pandas-merge verification was
    measured 315 s at sf0.1 where this form is ~3 s)."""

    def empty() -> tuple[pa.Table, bool]:
        return pa.table({
            "id_a": pa.array([], id_type), "id_b": pa.array([], id_type),
            "inter_n": pa.array([], pa.int64()),
            "union_n": pa.array([], pa.int64()),
            "jac_fp": pa.array([], pa.int64())}), True

    tables = [t for t in ray.get(refs) if t.num_rows]
    if not tables:
        return empty()
    df = pa.concat_tables(tables).select([id_col, "tok"]).to_pandas()
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
        return None, False           # the bucketed path (caller)
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
    return pa.table({
        "id_a": pa.array(np.asarray(ids_uniq)[a[ok]]).cast(id_type),
        "id_b": pa.array(np.asarray(ids_uniq)[b[ok]]).cast(id_type),
        "inter_n": pa.array(inter[ok]),
        "union_n": pa.array(union[ok]),
        "jac_fp": pa.array((inter[ok] * scale) // union[ok])}), True
