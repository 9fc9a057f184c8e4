"""Mergeable cardinality sketch: HyperLogLog approximate COUNT DISTINCT.

The reference never needs approximate distinct (its tables fit one
process), but a 100-TB corpus cannot afford an exact-distinct exchange
just to size a dedup or report unique-user counts.  HLL is the
standard answer (Flajolet et al. 2007; Heule et al. 2013 for the
small-range linear-counting correction): each block collapses to a
fixed 2**p-byte register array, partials merge by elementwise max
(associative + commutative, so block order and block count don't
matter), and only ~KB-sized sketches ever leave the workers — no
shuffle at any scale.

Hashing is ``pandas.util.hash_array`` (SipHash with pandas' fixed
default key): vectorized C, deterministic across processes and runs,
which the resume/test story requires.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def _bit_length(w: np.ndarray) -> np.ndarray:
    """Exact vectorized bit_length for uint64 (no float log2 — floats
    round 2**53-adjacent ints and shift rho by one)."""
    w = w.copy()
    bl = np.zeros(w.shape, dtype=np.int64)
    for s in (32, 16, 8, 4, 2, 1):
        m = w >= (np.uint64(1) << np.uint64(s))
        bl[m] += s
        w[m] >>= np.uint64(s)
    bl[w > 0] += 1
    return bl


def hll_partial(values: np.ndarray | pd.Series, p: int = 12) -> np.ndarray:
    """Fold one block of values into a fresh 2**p uint8 register array."""
    if isinstance(values, pd.Series):
        values = values.to_numpy()
    reg = np.zeros(1 << p, dtype=np.uint8)
    if len(values) == 0:
        return reg
    h = pd.util.hash_array(values)  # uint64, deterministic key
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    w = (h << np.uint64(p)) & _MASK64  # low 64-p bits, left-aligned
    # leading zeros of the left-aligned tail + 1; all-zero tail caps at
    # the tail width + 1
    rho = np.minimum(64 - _bit_length(w) + 1, 64 - p + 1)
    np.maximum.at(reg, idx, rho.astype(np.uint8))
    return reg


def hll_merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.maximum(a, b)


def hll_estimate(reg: np.ndarray) -> float:
    """Raw HLL estimator with the standard small-range linear-counting
    switch (E <= 2.5m with empty registers)."""
    m = float(len(reg))
    alpha = 0.7213 / (1.0 + 1.079 / m)
    est = alpha * m * m / np.sum(np.exp2(-reg.astype(np.float64)))
    zeros = int(np.count_nonzero(reg == 0))
    if est <= 2.5 * m and zeros > 0:
        est = m * np.log(m / zeros)
    return float(est)


# ---------------------------------------------------------------- Bloom filter
# Broadcast membership prefilter (Bloom 1970).  The resume/anti-join
# story at 100 TB: the "already processed" key set can be billions of
# rows — too big to broadcast exactly — but a Bloom filter at ~10
# bits/key (<2 GB for 1e9 keys, p_fp ~1%) ships once via ray.put and
# filters every batch with pure numpy bit math.  Bloom positives are
# the ONLY rows that need an exact check (here a broadcast exact set;
# at scale a partitioned semi-join over the ~1% survivors), so the
# composed operator stays EXACT while the all-to-all join shrinks 100x.


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (public-domain constant mix) —
    deterministic across processes, unlike builtin hash."""
    x = x.astype(np.uint64, copy=True)
    x += np.uint64(0x9E3779B97F4A7C15)
    z = x
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _bloom_positions(keys: np.ndarray, m_bits: int, k: int) -> np.ndarray:
    """(len(keys), k) bit positions via double hashing h1 + i*h2
    (Kirsch & Mitzenmacher 2006 — k independent hashes from two)."""
    h1 = _splitmix64(keys)
    h2 = _splitmix64(keys ^ np.uint64(0xA5A5A5A5A5A5A5A5)) | np.uint64(1)
    i = np.arange(k, dtype=np.uint64)
    return ((h1[:, None] + i[None, :] * h2[:, None]) % np.uint64(m_bits))


def bloom_build(keys: np.ndarray, *, bits_per_key: int = 10,
                k: int = 7) -> tuple[np.ndarray, int, int]:
    """Build a packed uint64 Bloom filter over integer keys.
    Returns (words, m_bits, k) — words is what you ``ray.put``."""
    keys = np.asarray(keys).astype(np.uint64)
    m_bits = max(64, int(len(keys) * bits_per_key))
    pos = _bloom_positions(keys, m_bits, k).reshape(-1)
    words = np.zeros((m_bits + 63) // 64, dtype=np.uint64)
    np.bitwise_or.at(words, (pos >> np.uint64(6)).astype(np.int64),
                     np.uint64(1) << (pos & np.uint64(63)))
    return words, m_bits, k


def bloom_contains(words: np.ndarray, m_bits: int, k: int,
                   keys: np.ndarray) -> np.ndarray:
    """Vectorized membership test: True = maybe present (needs the
    exact check), False = DEFINITELY absent."""
    keys = np.asarray(keys).astype(np.uint64)
    if len(keys) == 0:
        return np.zeros(0, dtype=bool)
    pos = _bloom_positions(keys, m_bits, k)
    bit = (words[(pos >> np.uint64(6)).astype(np.int64)]
           >> (pos & np.uint64(63))) & np.uint64(1)
    return bit.all(axis=1)


def hll_distinct(ds: rd.Dataset, col: str, *, p: int = 12,
                 batch_size: int = 65536) -> int:
    """Approximate COUNT(DISTINCT col) over a Dataset.

    Each block maps to ONE 2**p-byte sketch row; the driver merges the
    tiny partials (a few KB per block — deliberately driver-side, the
    same contract as any aggregate's final combine; there is nothing
    to shuffle).
    """

    def partial(t: pa.Table) -> pa.Table:
        vals = t[col].to_pandas()
        return pa.table({"reg": pa.array([hll_partial(vals, p).tobytes()],
                                         type=pa.binary())})

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           batch_size=batch_size, zero_copy_batch=True)
    reg = np.zeros(1 << p, dtype=np.uint8)
    for row in parts.iter_rows():
        reg = hll_merge(reg, np.frombuffer(row["reg"], dtype=np.uint8))
    return int(round(hll_estimate(reg)))


# ---------------------------------------------------------------- histogram quantile sketch
def histogram_quantiles(ds, value_col: str, qs: list[float], *,
                        bins: int = 1024):
    """Approximate global quantiles via a mergeable fixed-bin histogram
    sketch — the constant-memory replacement for an exact distributed
    quantile at corpus scale (``functions/agg.py::grouped_quantiles``'s
    documented scale caveat).

    Two streaming passes, no shuffle of values:

    1. global ``min``/``max`` (per-block partials -> two scalars);
    2. per-block bin-count partials (``bins`` int64 cells each, a few
       KB regardless of input size) summed into one histogram.

    The estimate for quantile ``q`` is the LOWER EDGE of the first bin
    whose cumulative count reaches ``ceil(q * (n - 1)) + 1`` rows —
    deterministic, mergeable (counts are sums), and off from the exact
    lower-index quantile by at most one bin width ``(max - min)/bins``.
    Every arithmetic step is reproducible in SQL, so the sketch is
    oracle-EXACT, not just error-bounded.

    Returns ``{"n": int, "lo": float, "hi": float,
    "q{NN}": estimate...}``.
    """
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd  # noqa: F401  (signature parity with callers)

    def minmax(t: pa.Table) -> pa.Table:
        v = t.column(value_col)
        # n counts VALID values only — nulls are excluded from the
        # sketch entirely (min/max skip them, and the binning pass
        # drops them; a null binned as NaN would poison np.bincount,
        # ADVICE r3), so the rank arithmetic must use the same count
        return pa.table({
            "lo": pa.array([pc.min(v).as_py()], type=pa.float64()),
            "hi": pa.array([pc.max(v).as_py()], type=pa.float64()),
            "n": pa.array([pc.count(v).as_py()], type=pa.int64()),
        })

    mm = ds.map_batches(minmax, batch_format="pyarrow",
                        batch_size=65536, zero_copy_batch=True).to_pandas()
    # an empty dataset yields a column-less frame, not zero-value rows
    n = int(mm["n"].sum()) if "n" in mm.columns else 0
    if n == 0:
        return {"n": 0, "lo": float("nan"), "hi": float("nan"),
                **{f"q{int(q * 100):02d}": float("nan") for q in qs}}
    lo, hi = float(mm["lo"].min()), float(mm["hi"].max())
    width = (hi - lo) / bins if hi > lo else 1.0

    def hist_partial(t: pa.Table) -> pa.Table:
        col = t.column(value_col)
        if col.null_count:
            col = col.drop_null()
        v = col.to_numpy(zero_copy_only=False).astype(np.float64)
        # same binning expression the SQL oracle uses:
        # least(floor((v - lo) / width), bins - 1)
        idx = np.minimum(np.floor((v - lo) / width),
                         bins - 1).astype(np.int64)
        counts = np.bincount(idx, minlength=bins)
        return pa.table({"bin": pa.array(np.arange(bins, dtype=np.int64)),
                         "cnt": pa.array(counts)})

    hist = (ds.map_batches(hist_partial, batch_format="pyarrow",
                           batch_size=65536, zero_copy_batch=True)
            .to_pandas().groupby("bin")["cnt"].sum()
            .reindex(range(bins), fill_value=0))
    cum = hist.cumsum().to_numpy()

    out = {"n": n, "lo": lo, "hi": hi}
    for q in qs:
        rank = int(np.floor((n - 1) * q)) + 1  # rows needed (1-based)
        b = int(np.searchsorted(cum, rank))
        out[f"q{int(q * 100):02d}"] = lo + b * width
    return out


def grouped_histogram_quantiles(ds, key: str, value_col: str,
                                qs: list[float], *, bins: int = 256,
                                num_buckets: int | None = None):
    """Per-key approximate quantiles via the same mergeable histogram
    sketch as ``histogram_quantiles`` — the constant-memory replacement
    for ``grouped_quantiles``'s full keyed value shuffle.

    Pass 1 reduces to one ``(lo, hi, n)`` row per key (broadcast as a
    vectorized lookup — the BOUNDED-KEY contract: the per-key edge
    table must fit a broadcast, true for language / source / shard
    keys; values themselves never need that).  Pass 2 emits per-block
    ``(key, bin, cnt)`` partials (<= bins rows per key per block) into
    a keyed sum; quantile extraction runs per key INSIDE the bucketed
    exchange, so no histogram ever lands on the driver.

    Returns a Dataset with one row per key: ``key``, ``n``, and a
    ``q{NN}`` estimate per requested quantile (exact arithmetic mirror
    of the SQL oracle; error <= one bin width per key).
    """
    import pandas as pd
    import pyarrow as pa
    import ray

    from .agg import bucketed_apply, hash_aggregate

    mm = hash_aggregate(
        ds, [key], [(value_col, "min"), (value_col, "max"),
                    (value_col, "count")],
        rename={f"{value_col}_min": "lo", f"{value_col}_max": "hi",
                f"{value_col}_count": "n"},
        num_buckets=num_buckets, exchange="shuffle").to_pandas()
    mm["lo"] = mm["lo"].astype(np.float64)
    mm["hi"] = mm["hi"].astype(np.float64)
    mm["width"] = np.where(mm["hi"] > mm["lo"],
                           (mm["hi"] - mm["lo"]) / bins, 1.0)
    edges_ref = ray.put((pd.Index(mm[key]), mm["lo"].to_numpy(),
                         mm["width"].to_numpy()))
    n_by_key = dict(zip(mm[key], mm["n"].astype(np.int64)))
    lo_by_key = dict(zip(mm[key], mm["lo"]))
    width_by_key = dict(zip(mm[key], mm["width"]))

    def hist_partial(t: pa.Table) -> pa.Table:
        # nulls are excluded from the sketch (pass 1's count already
        # skips them; binning NaN would emit a bogus negative bin,
        # ADVICE r3).  A key whose values are ALL null contributes no
        # histogram rows and is absent from the output.
        vcol = t.column(value_col)
        if vcol.null_count:
            import pyarrow.compute as _pc

            t = t.filter(_pc.is_valid(vcol))
        index, los, widths = ray.get(edges_ref)
        pos = index.get_indexer(t.column(key).to_pandas())
        v = t.column(value_col).to_numpy(zero_copy_only=False).astype(
            np.float64)
        idx = np.minimum(np.floor((v - los[pos]) / widths[pos]),
                         bins - 1).astype(np.int64)
        flat = pa.table({key: t.column(key),
                         "bin": pa.array(idx),
                         "cnt": pa.array(np.ones(len(idx), np.int64))})
        return pa.TableGroupBy(flat, [key, "bin"]).aggregate(
            [("cnt", "sum")]).rename_columns([key, "bin", "cnt"])

    hist = hash_aggregate(
        ds.map_batches(hist_partial, batch_format="pyarrow",
                       batch_size=65536, zero_copy_batch=True),
        [key, "bin"], [("cnt", "sum")], rename={"cnt_sum": "cnt"},
        num_buckets=num_buckets, exchange="shuffle")

    def extract(df: pd.DataFrame) -> pd.DataFrame:
        rows = {key: [], "n": []}
        rows.update({f"q{int(q * 100):02d}": [] for q in qs})
        for k, g in df.groupby(key, sort=False):
            g = g.sort_values("bin")
            cum = g["cnt"].cumsum().to_numpy()
            bins_arr = g["bin"].to_numpy()
            n = int(n_by_key[k])
            rows[key].append(k)
            rows["n"].append(n)
            for q in qs:
                rank = int(np.floor((n - 1) * q)) + 1
                b = int(bins_arr[np.searchsorted(cum, rank)])
                rows[f"q{int(q * 100):02d}"].append(
                    lo_by_key[k] + b * width_by_key[k])
        out = pd.DataFrame(rows)
        out["n"] = out["n"].astype("int64")
        return out

    return bucketed_apply(hist, [key], extract, num_buckets=num_buckets)


# ---------------------------------------------------------------- heavy hitters
def heavy_hitter_terms(ds: rd.Dataset, *, text_col: str = "text",
                       counters: int = 199,
                       num_buckets: int | None = None) -> rd.Dataset:
    """EXACT frequent terms without a full-vocabulary shuffle — the
    Misra-Gries candidate-generation + exact-recount pattern.

    Returns every term whose exact corpus frequency is STRICTLY above
    ``N / (counters + 1)`` (N = total token count), with its exact
    count: ``(term, n)``, at most ``counters`` rows by pigeonhole.

    Why it is exact: a term with global count > N/(c+1) must exceed
    n_b/(c+1) in at least one block (if it were at or below the
    per-block threshold everywhere, summing gives count <= N/(c+1)),
    and each block keeps at most ``c`` such survivors — so the union of
    per-block Misra-Gries survivors is a SUPERSET of every global heavy
    hitter, bounded at c rows per block.  The exact recount then runs
    over the block HISTOGRAMS restricted to that candidate set: the
    only rows that ever cross an exchange are per-block distinct-term
    partials, and the final keyed sum reduces candidates only.  The
    candidate restriction is one semi-join (``bucketed_join`` with no
    value columns).

    Tokenization matches ``term_count_partial`` (lowercase, split on
    ``[^a-z]+``), so plain exact-count SQL replays the result.
    """
    from .agg import bucketed_join, hash_aggregate
    from .text import term_count_partial

    thresh = counters + 1

    def partial(t: pa.Table) -> pa.Table:
        h = term_count_partial(t, text_col=text_col)
        n_block = int(pc.sum(h["n"]).as_py() or 0)
        cand = pc.greater(pc.multiply(h["n"], thresh), n_block)
        return h.append_column("cand", pc.cast(cand, pa.int8()))

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              batch_size=256,
                              zero_copy_batch=True).materialize()
    total = int(partials.sum("n") or 0)
    if total == 0:
        return rd.from_arrow(pa.table({"term": pa.array([], pa.string()),
                                       "n": pa.array([], pa.int64())}))

    def cand_only(t: pa.Table) -> pa.Table:
        return t.filter(pc.equal(t["cand"], 1)).select(["term"])

    cands = hash_aggregate(
        partials.map_batches(cand_only, batch_format="pyarrow",
                             zero_copy_batch=True),
        ["term"], [("term", "count")],
        num_buckets=num_buckets).select_columns(["term"]).materialize()

    if cands.count() == 0:
        # no block-level survivor anywhere: by the pigeonhole bound no
        # GLOBAL heavy hitter can exist either — typed empty result
        # (and pa.concat_tables below would reject an empty iterator)
        return rd.from_arrow(pa.table({"term": pa.array([], pa.string()),
                                       "n": pa.array([], pa.int64())}))
    narrowed = bucketed_join(
        partials.select_columns(["term", "n"]), cands,
        left_key="term", right_key="term", right_value_cols=[],
        num_buckets=num_buckets)

    counts = hash_aggregate(narrowed, ["term"], [("n", "sum")],
                            rename={"n_sum": "n"}, num_buckets=num_buckets)

    def above(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater(pc.multiply(t["n"], thresh), total))

    return counts.map_batches(above, batch_format="pyarrow",
                              zero_copy_batch=True)
