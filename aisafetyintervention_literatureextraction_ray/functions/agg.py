"""Fast keyed reduction primitives.

Ray Data's ``groupby(keys).aggregate(...)`` uses a sort-based shuffle
with per-group Python dispatch; with many distinct keys it is orders of
magnitude slower than Arrow's hash aggregation (measured locally: 77 s
vs 0.1 s for 34k rows / 32k groups).  Every keyed reduce in this engine
therefore uses the classic two-stage pattern instead:

1. **partial**: ``pyarrow.TableGroupBy`` per batch (C hash aggregate) —
   collapses each block to one row per key, so the shuffle moves
   partials, not rows (this is also the skew/salt mitigation of
   SURVEY.md §4.2: a hot key costs one row per block);
2. **exchange**: rows are hashed into ``num_buckets`` coarse buckets
   (single int key — cheap for Ray's shuffle since the group count is
   the bucket count, not the key count);
3. **final**: per-bucket ``TableGroupBy`` again (C hash aggregate), or a
   user reduce applied per key group inside the bucket.

``num_buckets`` is the shuffle parallelism knob: ~2-4x the cluster CPU
count.  All bucket hashes are process-independent (pandas hash with the
fixed default key).
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

# partial-aggregate function -> how partials combine in the final stage
_COMBINE = {"sum": "sum", "count": "sum", "count_all": "sum",
            "min": "min", "max": "max", "one": "one"}

# Arrow integer/bool types -> pandas nullable extension dtypes, used by
# bucketed_join so null-padded union columns keep exact integer values
# (a numpy conversion would widen int64+nulls to float64).
_NULLABLE_DTYPES = {
    pa.int8(): pd.Int8Dtype(), pa.int16(): pd.Int16Dtype(),
    pa.int32(): pd.Int32Dtype(), pa.int64(): pd.Int64Dtype(),
    pa.uint8(): pd.UInt8Dtype(), pa.uint16(): pd.UInt16Dtype(),
    pa.uint32(): pd.UInt32Dtype(), pa.uint64(): pd.UInt64Dtype(),
    pa.bool_(): pd.BooleanDtype(),
}


def default_num_buckets() -> int:
    import ray

    cpus = int(ray.cluster_resources().get("CPU", 4)) if ray.is_initialized() else 4
    return max(8, cpus * 2)


def add_bucket_column(batch: pa.Table, keys: list[str], num_buckets: int,
                      col: str = "__bucket") -> pa.Table:
    """Vectorized deterministic bucket id from the key columns."""
    acc = None
    for k in keys:
        s = batch.column(k).to_pandas()
        h = pd.util.hash_pandas_object(s, index=False).to_numpy()
        acc = h if acc is None else (acc * np.uint64(1000003)) ^ h
    bucket = (acc % np.uint64(num_buckets)).astype(np.int64)
    return batch.append_column(col, pa.array(bucket, type=pa.int64()))


def few_blocks(ds: rd.Dataset) -> rd.Dataset:
    """At most ``default_num_buckets()`` blocks into an exchange.  Ray's
    sort shuffle cuts every input block into one piece per input block,
    but only ``num_buckets`` groups exist: more blocks multiply the
    pieces without adding reduce parallelism (and a whole bucket has to
    fit one task anyway)."""
    return ds.repartition(default_num_buckets())


def measured_exchange(n_rows_bound: int | None, *,
                      threshold: int = 2_000_000) -> str:
    """Exchange choice from a MEASURED upper bound on the partial key
    set (same 2-million-skinny-rows policy as the connected-components
    / pagerank driver gates): ``"coalesce"`` when the whole distinct
    key set provably fits one block, ``"shuffle"`` otherwise (or when
    no bound is known)."""
    if n_rows_bound is not None and n_rows_bound <= threshold:
        return "coalesce"
    return "shuffle"


def hash_aggregate(ds: rd.Dataset, keys: list[str],
                   aggs: list[tuple[str, str]],
                   *, num_buckets: int | None = None,
                   rename: dict[str, str] | None = None,
                   exchange: str = "shuffle") -> rd.Dataset:
    """Two-stage keyed aggregate.

    ``aggs`` are ``(column, fn)`` with fn in {sum, count, min, max};
    output columns are named ``{column}_{fn}`` (pyarrow convention) or
    via ``rename``.  ``count`` counts non-null rows of the column.

    ``exchange`` picks the final stage:

    * ``"shuffle"`` (default — the scale-safe direction, VERDICT r4 #4):
      hash-bucket exchange via Ray groupby on a single int key — works
      for key sets of any size (e.g. exact URL dedup over the full
      corpus).  New call sites inherit this.
    * ``"coalesce"`` (explicit opt-in): partials (one row per key per
      block) are concatenated into one block and combined there.
      Correct AND much cheaper whenever the DISTINCT KEY SET provably
      fits a block (canonical nodes / bounded windows / measured-small
      inputs) — it avoids Ray's sort machinery entirely, which costs
      ~15 s of pure scheduling on thousands of tiny blocks.  Call sites
      must justify the bound (documented key-set bound or
      :func:`measured_exchange` on a measured row count).
    """
    if num_buckets is None:
        num_buckets = default_num_buckets()

    partial_names = [f"{c}_{f}" for c, f in aggs]
    final_aggs = [(n, _COMBINE[f]) for n, (c, f) in zip(partial_names, aggs)]
    final_names = [f"{n}_{_COMBINE[f]}" for n, (c, f) in zip(partial_names, aggs)]

    mapping = dict(zip(final_names, partial_names))
    if rename:
        mapping = {k: rename.get(v, v) for k, v in mapping.items()}
        mapping.update({k: v for k, v in rename.items() if k in keys})

    def combine(t: pa.Table) -> pa.Table:
        out = pa.TableGroupBy(t, keys).aggregate(final_aggs)
        return out.rename_columns([mapping.get(c, c) for c in out.column_names])

    if exchange == "coalesce":
        def partial(t: pa.Table) -> pa.Table:
            return pa.TableGroupBy(t, keys).aggregate(aggs)

        partials = ds.map_batches(partial, batch_format="pyarrow",
                                  zero_copy_batch=True)
        return partials.repartition(1).map_batches(
            combine, batch_format="pyarrow", batch_size=None)

    def partial_b(t: pa.Table) -> pa.Table:
        out = pa.TableGroupBy(t, keys).aggregate(aggs)
        return add_bucket_column(out, keys, num_buckets)

    def final_grouped(t: pa.Table) -> pa.Table:
        return combine(t.drop_columns(["__bucket"]))

    partials = ds.map_batches(partial_b, batch_format="pyarrow",
                              zero_copy_batch=True)
    return partials.groupby("__bucket").map_groups(
        final_grouped, batch_format="pyarrow")


def bucketed_apply(ds: rd.Dataset, keys: list[str],
                   fn: Callable[[pd.DataFrame], pd.DataFrame],
                   *, num_buckets: int | None = None,
                   batch_format: str = "pandas",
                   exchange: str = "shuffle") -> rd.Dataset:
    """Hash rows into coarse buckets on ``keys``, shuffle via Ray's
    groupby on the single int bucket key, and apply ``fn`` ONCE per
    bucket (not per key group).  All rows sharing a key land in the same
    bucket, so ``fn`` can implement co-grouped semantics vectorized —
    this is the primitive behind the engine's partitioned hash join
    (``bucketed_join``).

    ``exchange="coalesce"`` skips the groupby machinery and applies
    ``fn`` to everything as one block inside a worker task (NOT on the
    driver) — for callers that have MEASURED the data to be small
    (e.g. candidate-sized); the shuffle path is the default.
    """
    if exchange == "coalesce":
        def run_all(df):
            return fn(df)

        return ds.repartition(1).map_batches(
            run_all, batch_format=batch_format, batch_size=None)

    if num_buckets is None:
        num_buckets = default_num_buckets()

    def bucketize(t: pa.Table) -> pa.Table:
        return add_bucket_column(t, keys, num_buckets)

    def run(df):
        if batch_format == "pandas":
            if "__bucket" in df.columns:
                df = df.drop(columns="__bucket")
        elif "__bucket" in df.column_names:
            df = df.drop_columns(["__bucket"])
        return fn(df)

    return (
        ds.map_batches(bucketize, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("__bucket")
        .map_groups(run, batch_format=batch_format)
    )


def salted_prefilter(ds: rd.Dataset, keys: list[str], order_col: str,
                     k: int, *, ascending: bool = False,
                     tiebreak: str | None = None,
                     num_salts: int = 16,
                     num_buckets: int | None = None) -> rd.Dataset:
    """Stage 1 of the salted top-k: split every key group across
    ``num_salts`` deterministic sub-groups and keep only each
    sub-group's local top-``k``.

    This is the head-entity skew mitigation of SURVEY.md §4.2 / the
    north rule: a hot key (an entity like "RLHF" appearing in a large
    fraction of documents) no longer lands as one giant group in one
    shuffle bucket — its rows spread over ``num_salts`` (key, salt)
    groups, each of which collapses to at most ``k`` rows before the
    second, unsalted exchange.  Per-key output is bounded by
    ``k * num_salts`` regardless of input skew.

    The salt is a deterministic hash of the ``tiebreak`` column (falls
    back to ``order_col``), never ``random`` — reruns produce identical
    blocks, which the resume/lineage layer relies on.  Top-k is
    mergeable, so salting is lossless: every true global top-k row is
    its own (key, salt) sub-group's local top-k.
    """
    salt_src = tiebreak or order_col

    def add_salt(t: pa.Table) -> pa.Table:
        h = pd.util.hash_pandas_object(
            t.column(salt_src).to_pandas(), index=False).to_numpy()
        salt = (h % np.uint64(num_salts)).astype(np.int64)
        return t.append_column("__salt", pa.array(salt, type=pa.int64()))

    tb = [tiebreak] if tiebreak else []

    def local_topk(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return df.copy()
        df = df.sort_values([*keys, "__salt", order_col, *tb],
                            ascending=[True] * (len(keys) + 1) + [ascending]
                            + [True] * len(tb),
                            kind="stable")
        return df.groupby([*keys, "__salt"], sort=False).head(k)

    pruned = bucketed_apply(
        ds.map_batches(add_salt, batch_format="pyarrow",
                       zero_copy_batch=True),
        [*keys, "__salt"], local_topk, num_buckets=num_buckets)
    return pruned.drop_columns(["__salt"])


def grouped_topk(ds: rd.Dataset, keys: list[str], order_col: str,
                 k: int, *, ascending: bool = False,
                 tiebreak: str | None = None,
                 rank_col: str = "rank",
                 num_buckets: int | None = None,
                 exchange: str = "shuffle",
                 num_salts: int | None = None) -> rd.Dataset:
    """Top-``k`` rows per key group (the per-group form of O3's global
    top-k): rows are hash-bucketed on ``keys`` and each bucket runs ONE
    vectorized sort + ``groupby.head(k)`` + cumcount rank — no per-key
    Python.  Deterministic total order via ``tiebreak`` (defaults to
    the first key-independent column callers pass).

    Scale contract: a bucket holds its keys' full row sets — the
    standard keyed-shuffle assumption.  For skewed keys pass
    ``num_salts``: a salted pre-stage (``salted_prefilter``) caps every
    key's contribution to the final exchange at ``k * num_salts`` rows,
    so a head entity holding 50% of the corpus costs the same shuffle
    volume as a cold key.  The salted path requires a ``tiebreak`` that
    makes the total order unique, otherwise rows tied exactly at the
    ``k`` boundary could differ between the salted and unsalted paths
    (both orders would be valid top-k sets; determinism is what's lost).
    """
    if num_salts is not None:
        if tiebreak is None:
            raise ValueError(
                "grouped_topk(num_salts=...) requires a tiebreak column "
                "that makes the total order unique — without one, rows "
                "tied at the k boundary can differ between the salted "
                "and unsalted paths")
        ds = salted_prefilter(ds, keys, order_col, k, ascending=ascending,
                              tiebreak=tiebreak, num_salts=num_salts,
                              num_buckets=num_buckets)

    tb = [tiebreak] if tiebreak else []

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            out = df.copy()
            out[rank_col] = pd.Series([], dtype="int64")
            return out
        df = df.sort_values([*keys, order_col, *tb],
                            ascending=[True] * len(keys) + [ascending]
                            + [True] * len(tb),
                            kind="stable")
        g = df.groupby(keys, sort=False)
        out = g.head(k).copy()
        out[rank_col] = out.groupby(keys, sort=False).cumcount() + 1
        return out

    return bucketed_apply(ds, keys, topk, num_buckets=num_buckets,
                          exchange=exchange)


def grouped_quantiles(ds: rd.Dataset, keys: list[str], value_col: str,
                      qs: list[float], *,
                      num_buckets: int | None = None,
                      exchange: str = "shuffle") -> rd.Dataset:
    """Exact per-group quantiles with the deterministic lower-index
    definition ``sorted(values)[floor((n-1) * q)]`` — chosen precisely
    because an oracle can reproduce it exactly (no interpolation, no
    float arithmetic on the values).  Output: one row per key group
    with a ``q{NN}`` column per requested quantile.

    Scale contract: one key group's values fit its bucket (keyed
    shuffle); for heavy-hitter keys a t-digest sketch would replace
    this — out of scope until a caller needs approximate quantiles.
    """

    def quant(df: pd.DataFrame) -> pd.DataFrame:
        cols = {k: [] for k in keys}
        cols.update({f"q{int(q * 100):02d}": [] for q in qs})
        cols["n"] = []
        for kv, g in df.groupby(keys, sort=False):
            vals = np.sort(g[value_col].to_numpy())
            n = len(vals)
            kv = kv if isinstance(kv, tuple) else (kv,)
            for key, v in zip(keys, kv):
                cols[key].append(v)
            for q in qs:
                cols[f"q{int(q * 100):02d}"].append(
                    vals[int(np.floor((n - 1) * q))])
            cols["n"].append(n)
        out = pd.DataFrame(cols)
        out["n"] = out["n"].astype("int64")
        return out

    return bucketed_apply(ds, keys, quant, num_buckets=num_buckets,
                          exchange=exchange)


def grouped_running(ds: rd.Dataset, keys: list[str],
                    order_cols: list[str], *,
                    cum_cols: list[str] | None = None,
                    lag_cols: list[str] | None = None,
                    seq_col: str = "seq",
                    lag_fill: int | float | None = None,
                    num_buckets: int | None = None,
                    exchange: str = "shuffle") -> rd.Dataset:
    """Per-key ordered window analytics: row number (``seq_col``),
    running sums (``{c}_running``) and one-row lag (``{c}_prev``) —
    the SQL ``ROW_NUMBER() / SUM() OVER / LAG() OVER (PARTITION BY
    keys ORDER BY order_cols)`` family (reference merge.py holds whole
    tables in memory for its ordered passes; here each key's rows are
    co-located by the keyed shuffle and processed by ONE vectorized
    pandas groupby per bucket, no per-key Python).

    ``order_cols`` must be a total order within each key (pass a
    unique id as the last column) or the result is nondeterministic.
    ``lag_fill`` replaces the leading-null lag value so integer
    columns stay integers through the exchange.

    Scale contract: one key's rows fit a bucket's share of the heap —
    the standard keyed-shuffle assumption (same as grouped_topk).
    """
    cum_cols = cum_cols or []
    lag_cols = lag_cols or []

    def run(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            out = df.copy()
            out[seq_col] = pd.Series([], dtype="int64")
            for c in cum_cols:
                out[f"{c}_running"] = pd.Series([], dtype=df.dtypes.get(c))
            for c in lag_cols:
                out[f"{c}_prev"] = pd.Series([], dtype=df.dtypes.get(c))
            return out
        df = df.sort_values([*keys, *order_cols], kind="stable")
        g = df.groupby(keys, sort=False)
        df[seq_col] = g.cumcount() + 1
        for c in cum_cols:
            df[f"{c}_running"] = g[c].cumsum()
        for c in lag_cols:
            prev = g[c].shift(1)
            if lag_fill is not None:
                prev = prev.fillna(lag_fill).astype(df[c].dtype)
            df[f"{c}_prev"] = prev
        return df

    return bucketed_apply(ds, keys, run, num_buckets=num_buckets,
                          exchange=exchange)


def pivot_counts(ds: rd.Dataset, keys: list[str], pivot_col: str,
                 values: list[str], *,
                 num_buckets: int | None = None,
                 exchange: str = "shuffle") -> rd.Dataset:
    """Pivot a low-cardinality label column into one count column per
    label (conditional aggregation): output has ``keys`` + one int64
    column per entry of ``values`` holding the per-key occurrence
    count (0 where absent).  Labels outside ``values`` are dropped —
    the caller names the schema up front, as a pivot must.

    Two-stage like hash_aggregate: a vectorized per-block partial
    (one ``pc.equal`` + cast per label, then a C groupby) collapses
    each block to one row per key, so the exchange moves partials,
    never raw events.
    """
    out_names = list(keys) + list(values)

    def partial(t: pa.Table) -> pa.Table:
        lab = t[pivot_col]
        cols = {k: t[k] for k in keys}
        for v in values:
            cols[v] = pc.cast(pc.equal(lab, v), pa.int64())
        flat = pa.table(cols)
        out = pa.TableGroupBy(flat, keys).aggregate(
            [(v, "sum") for v in values])
        return out.rename_columns(out_names)

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              batch_size=65536, zero_copy_batch=True)
    return hash_aggregate(partials, keys, [(v, "sum") for v in values],
                          rename={f"{v}_sum": v for v in values},
                          num_buckets=num_buckets, exchange=exchange)


def pa_type_of(t) -> pa.DataType:
    """Dataset.schema() type -> Arrow type.

    Pandas-block datasets report numpy dtypes; object dtype is assumed
    to be a STRING payload (the common case).  Object columns holding
    lists/dicts cannot be inferred from a dtype — convert such inputs
    to Arrow blocks upstream (``map_batches(..., batch_format=
    "pyarrow")``) before joining, or the two join sides would disagree.
    """
    if isinstance(t, pa.DataType):
        return t
    # pandas-block schemas may report either np.dtype('O') or the bare
    # ``object`` class; normalize through np.dtype before dispatching
    dt = t if isinstance(t, np.dtype) else np.dtype(t)
    if dt.kind == "O":
        return pa.string()
    return pa.from_numpy_dtype(dt)


def bucketed_join(left: rd.Dataset, right: rd.Dataset, *,
                  left_key: str, right_key: str,
                  right_value_cols: list[str], how: str = "inner",
                  num_buckets: int | None = None,
                  exchange: str = "shuffle",
                  left_schema: pa.Schema | None = None,
                  right_schema: pa.Schema | None = None) -> rd.Dataset:
    """Partitioned single-key equi-join on the coarse-bucket exchange.

    Both sides are projected onto one union schema (typed nulls for the
    other side's columns, types from ``Dataset.schema()``), hashed on
    the key into ``num_buckets`` buckets, and merged per bucket with a
    vectorized ``pd.merge`` — no Acero payload-type limits, no per-join
    actor pools, never driver-side.  Output = left columns +
    ``right_value_cols``.  The scale path for joins whose build side no
    longer fits a broadcast (e.g. unbounded-vocabulary endpoint
    resolution in the KG build).

    Pass ``left_schema``/``right_schema`` when the side is a LAZY
    pipeline: ``Dataset.schema()`` executes upstream stages to produce
    a first block, which for shuffle-output datasets means running the
    whole exchange once just to learn the schema.
    """
    lschema = left_schema if left_schema is not None else left.schema()
    rschema = right_schema if right_schema is not None else right.schema()
    if hasattr(lschema, "base_schema"):  # Ray Schema wrapper
        lschema = lschema.base_schema
    if hasattr(rschema, "base_schema"):
        rschema = rschema.base_schema

    left_cols = list(lschema.names)
    ltypes = {n: pa_type_of(t) for n, t in zip(lschema.names, lschema.types)}
    rtypes = {n: pa_type_of(t) for n, t in zip(rschema.names, rschema.types)}

    def left_side(t: pa.Table) -> pa.Table:
        cols = {"__key": t.column(left_key)}
        for c in left_cols:
            cols[f"l_{c}"] = t.column(c)
        for c in right_value_cols:
            cols[c] = pa.nulls(t.num_rows, rtypes[c])
        cols["__side"] = pa.array(np.zeros(t.num_rows, dtype=np.int8))
        return pa.table(cols)

    def right_side(t: pa.Table) -> pa.Table:
        cols = {"__key": t.column(right_key).cast(ltypes[left_key])}
        for c in left_cols:
            cols[f"l_{c}"] = pa.nulls(t.num_rows, ltypes[c])
        for c in right_value_cols:
            cols[c] = t.column(c)
        cols["__side"] = pa.array(np.ones(t.num_rows, dtype=np.int8))
        return pa.table(cols)

    both = left.map_batches(left_side, batch_format="pyarrow").union(
        right.map_batches(right_side, batch_format="pyarrow"))

    # The union null-pads each side's columns, so a plain to_pandas
    # would widen integer columns to float64 (ids above 2^53 would lose
    # exactness and dtypes silently change).  Convert through pandas
    # NULLABLE extension dtypes instead: nulls survive without widening
    # and from_pandas restores the original Arrow integer types.
    def merge(t: pa.Table) -> pa.Table:
        df = t.to_pandas(types_mapper=_NULLABLE_DTYPES.get)
        lhs = df[df["__side"] == 0].drop(columns=["__side"]
                                         + right_value_cols)
        rhs = df[df["__side"] == 1][["__key"] + right_value_cols]
        out = lhs.merge(rhs, on="__key", how=how).drop(columns="__key")
        out = out.rename(columns={f"l_{c}": c for c in left_cols})
        # drop the pandas schema-footer metadata: it makes block schemas
        # unhashable, which triggers Ray Data's "Failed to hash the
        # schemas" warning in WORKER processes (where the driver-side
        # logging filter of __init__ can't reach, ADVICE r2)
        return pa.Table.from_pandas(
            out, preserve_index=False).replace_schema_metadata(None)

    return bucketed_apply(both, ["__key"], merge, num_buckets=num_buckets,
                          batch_format="pyarrow", exchange=exchange)


def bucketed_group_map(ds: rd.Dataset, keys: list[str],
                       fn: Callable[[pd.DataFrame], pd.DataFrame],
                       *, num_buckets: int | None = None,
                       batch_format: str = "pandas",
                       exchange: str = "coalesce",
                       min_group_size: int = 1) -> rd.Dataset:
    """``groupby(keys).map_groups(fn)`` semantics without Ray's per-key
    sort shuffle.

    ``exchange="coalesce"`` (default): concatenate into one block and
    group there — correct and far faster whenever the grouped data fits
    a block (see ``hash_aggregate``).  ``exchange="shuffle"``: hash the
    keys into ``num_buckets`` coarse buckets, shuffle those (cheap: the
    Ray group count is the bucket count), group per bucket — the path
    for data too large for one block.  Either way the per-key grouping
    is a C hash-group with one Python call per key group.

    ``min_group_size=2`` drops singleton key groups VECTORIZED before
    any per-group Python runs — the dominant case for LSH-bucket
    candidate generation, where almost every bucket holds one row and
    the UDF would return empty anyway.
    """
    if num_buckets is None:
        num_buckets = default_num_buckets()

    if batch_format == "pandas":
        def group_rows(df: pd.DataFrame) -> pd.DataFrame:
            if "__bucket" in df.columns:
                df = df.drop(columns="__bucket")
            if min_group_size >= 2 and not df.empty:
                df = df[df.duplicated(subset=keys, keep=False)]
            if df.empty:
                return fn(df)
            parts = [fn(g) for _, g in df.groupby(keys, sort=False, dropna=False)]
            return pd.concat(parts, ignore_index=True)
    else:
        def group_rows(t: pa.Table):
            if "__bucket" in t.column_names:
                t = t.drop_columns(["__bucket"])
            if t.num_rows == 0:
                return fn(t)
            idx = pa.compute.sort_indices(
                t, sort_keys=[(k, "ascending") for k in keys])
            t = t.take(idx)
            df_keys = t.select(keys).to_pandas()
            codes = pd.MultiIndex.from_frame(df_keys).factorize()[0] \
                if len(keys) > 1 else df_keys[keys[0]].factorize()[0]
            boundaries = np.flatnonzero(np.diff(codes)) + 1
            starts = np.concatenate([[0], boundaries])
            ends = np.concatenate([boundaries, [len(codes)]])
            if min_group_size >= 2:
                keep = (ends - starts) >= min_group_size
                starts, ends = starts[keep], ends[keep]
                if not len(starts):
                    return fn(t.slice(0, 0))
            outs = [fn(t.slice(s_, e - s_)) for s_, e in zip(starts, ends)]
            outs = [o if isinstance(o, pa.Table) else
                    pa.Table.from_pandas(o, preserve_index=False)
                    .replace_schema_metadata(None) for o in outs]
            return pa.concat_tables([o for o in outs if o.num_rows > 0]) \
                if any(o.num_rows for o in outs) else outs[0]

    if exchange == "coalesce":
        return ds.repartition(1).map_batches(
            group_rows, batch_format=batch_format, batch_size=None)

    def bucketize(t: pa.Table) -> pa.Table:
        return add_bucket_column(t, keys, num_buckets)

    return (
        ds.map_batches(bucketize, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("__bucket")
        .map_groups(group_rows, batch_format=batch_format)
    )


def rollup_aggregate(ds: rd.Dataset, keys: list[str], value_col: str,
                     *, num_buckets: int | None = None) -> rd.Dataset:
    """Multi-level ROLLUP in ONE data shuffle (the OLAP cube-lattice
    optimization): the finest level ``GROUP BY keys`` is the only
    aggregate that touches the input; every coarser level —
    ``keys[:n-1]`` ... ``()`` — re-aggregates the (key-cardinality-
    bounded) finest partials, so a 100 TB input pays exactly one
    exchange no matter how many rollup levels it reports.  Rolled-up
    key columns carry typed NULLs, matching SQL ``GROUP BY ROLLUP``
    markers.  Output: ``keys + [n_rows, v_sum]``.

    Caller contract: key columns are NON-NULL (real null keys would
    collide with the rollup markers — same ambiguity SQL resolves with
    GROUPING(), which this deliberately omits) and ``value_col`` is
    non-null (``n_rows`` counts it).
    """
    if not keys:
        raise ValueError("rollup needs at least one key")
    finest = hash_aggregate(
        ds.select_columns(keys + [value_col]), keys,
        [(value_col, "count"), (value_col, "sum")],
        rename={f"{value_col}_count": "n_rows",
                f"{value_col}_sum": "v_sum"},
        num_buckets=num_buckets, exchange="shuffle").materialize()
    sch = finest.schema()
    sch = getattr(sch, "base_schema", sch)
    ktypes = {n: pa_type_of(t) for n, t in zip(sch.names, sch.types)}

    def pad(dropped: list[str]):
        def f(t: pa.Table) -> pa.Table:
            cols = {}
            for k in keys:
                cols[k] = (pa.nulls(t.num_rows, ktypes[k])
                           if k in dropped else t.column(k))
            cols["n_rows"] = t.column("n_rows").cast(pa.int64())
            cols["v_sum"] = t.column("v_sum").cast(pa.int64())
            return pa.table(cols)
        return f

    out = finest.map_batches(pad([]), batch_format="pyarrow",
                             zero_copy_batch=True)
    for lvl in range(len(keys) - 1, -1, -1):
        sub = keys[:lvl]
        if sub:
            coarse = hash_aggregate(
                finest.select_columns(sub + ["n_rows", "v_sum"]), sub,
                [("n_rows", "sum"), ("v_sum", "sum")],
                rename={"n_rows_sum": "n_rows", "v_sum_sum": "v_sum"},
                num_buckets=num_buckets, exchange="shuffle")
        else:
            coarse = hash_aggregate(
                finest.map_batches(
                    lambda t: t.append_column(
                        "__all", pa.array(np.zeros(t.num_rows, np.int8))),
                    batch_format="pyarrow", zero_copy_batch=True),
                ["__all"], [("n_rows", "sum"), ("v_sum", "sum")],
                rename={"n_rows_sum": "n_rows", "v_sum_sum": "v_sum"},
                num_buckets=num_buckets, exchange="shuffle")
            coarse = coarse.map_batches(
                lambda t: t.drop_columns(["__all"]),
                batch_format="pyarrow", zero_copy_batch=True)
        out = out.union(coarse.map_batches(
            pad(keys[lvl:]), batch_format="pyarrow",
            zero_copy_batch=True))
    return out


def cube_aggregate(ds: rd.Dataset, keys: list[str], value_col: str,
                   *, num_buckets: int | None = None) -> rd.Dataset:
    """SQL ``GROUP BY CUBE`` — all ``2^k`` grouping subsets — in the
    ``rollup_aggregate`` one-shuffle plan: the finest ``GROUP BY keys``
    aggregate is the only pass over the input; every other subset
    re-aggregates the (key-cardinality-bounded) finest partials, so
    cube breadth costs subsets-many SMALL exchanges, never another
    scan of the data.  Dropped key columns carry typed NULLs (SQL's
    CUBE markers).  Output: ``keys + [n_rows, v_sum]``.  Same caller
    contract as ``rollup_aggregate``: non-null keys and value.
    """
    from itertools import combinations

    if not keys:
        raise ValueError("cube needs at least one key")
    finest = hash_aggregate(
        ds.select_columns(keys + [value_col]), keys,
        [(value_col, "count"), (value_col, "sum")],
        rename={f"{value_col}_count": "n_rows",
                f"{value_col}_sum": "v_sum"},
        num_buckets=num_buckets, exchange="shuffle").materialize()
    sch = finest.schema()
    sch = getattr(sch, "base_schema", sch)
    ktypes = {n: pa_type_of(t) for n, t in zip(sch.names, sch.types)}

    def pad(dropped: list[str]):
        def f(t: pa.Table) -> pa.Table:
            cols = {}
            for k in keys:
                cols[k] = (pa.nulls(t.num_rows, ktypes[k])
                           if k in dropped else t.column(k))
            cols["n_rows"] = t.column("n_rows").cast(pa.int64())
            cols["v_sum"] = t.column("v_sum").cast(pa.int64())
            return pa.table(cols)
        return f

    out = finest.map_batches(pad([]), batch_format="pyarrow",
                             zero_copy_batch=True)
    subsets = [list(c) for r in range(len(keys))
               for c in combinations(keys, r)]
    for sub in subsets:
        if sub:
            coarse = hash_aggregate(
                finest.select_columns(sub + ["n_rows", "v_sum"]), sub,
                [("n_rows", "sum"), ("v_sum", "sum")],
                rename={"n_rows_sum": "n_rows", "v_sum_sum": "v_sum"},
                num_buckets=num_buckets, exchange="shuffle")
        else:
            coarse = hash_aggregate(
                finest.map_batches(
                    lambda t: t.append_column(
                        "__all", pa.array(np.zeros(t.num_rows, np.int8))),
                    batch_format="pyarrow", zero_copy_batch=True),
                ["__all"], [("n_rows", "sum"), ("v_sum", "sum")],
                rename={"n_rows_sum": "n_rows", "v_sum_sum": "v_sum"},
                num_buckets=num_buckets, exchange="shuffle")
            coarse = coarse.map_batches(
                lambda t: t.drop_columns(["__all"]),
                batch_format="pyarrow", zero_copy_batch=True)
        out = out.union(coarse.map_batches(
            pad([k for k in keys if k not in sub]),
            batch_format="pyarrow", zero_copy_batch=True))
    return out


def snapshot_diff(old: rd.Dataset, new: rd.Dataset, *, key_col: str,
                  hash_col: str,
                  num_buckets: int | None = None) -> rd.Dataset:
    """``(key, status)`` with status in {added, removed, changed} —
    corpus release diffing (which documents a new snapshot adds, drops
    or rewrites; the incremental-reprocessing work list).  Unchanged
    keys are filtered out, so output is bounded by the CHANGE volume.

    ONE keyed exchange: both sides union into skinny
    ``(key, side, hash)`` rows and a single hash-aggregate computes
    per-key (count, min side, min/max hash); the status decode is a
    vectorized case on those four columns.  Caller supplies the
    content hash (e.g. md5 for SQL replayability) and guarantees keys
    are unique within each snapshot.
    """
    def side_rows(side: int):
        def f(t: pa.Table) -> pa.Table:
            return pa.table({
                "k": t.column(key_col),
                "side": pa.array(np.full(t.num_rows, side, np.int64)),
                "h": t.column(hash_col)})
        return f

    u = old.select_columns([key_col, hash_col]).map_batches(
        side_rows(0), batch_format="pyarrow", zero_copy_batch=True,
    ).union(new.select_columns([key_col, hash_col]).map_batches(
        side_rows(1), batch_format="pyarrow", zero_copy_batch=True))
    g = hash_aggregate(
        u, ["k"], [("side", "count"), ("side", "min"),
                   ("h", "min"), ("h", "max")],
        rename={"side_count": "n", "side_min": "smin",
                "h_min": "hmin", "h_max": "hmax"},
        num_buckets=num_buckets, exchange="shuffle")

    def decode(t: pa.Table) -> pa.Table:
        n = t["n"].cast(pa.int64())
        one = pc.equal(n, pa.scalar(1, pa.int64()))
        changed = pc.and_(pc.invert(one),
                          pc.not_equal(t["hmin"], t["hmax"]))
        status = pc.if_else(
            pc.and_(one, pc.equal(t["smin"].cast(pa.int64()),
                                  pa.scalar(0, pa.int64()))),
            pa.scalar("removed", pa.string()),
            pc.if_else(one, pa.scalar("added", pa.string()),
                       pa.scalar("changed", pa.string())))
        keep = pc.or_(one, changed)
        return pa.table({key_col: t["k"],
                         "status": status}).filter(keep)

    return g.map_batches(decode, batch_format="pyarrow",
                         zero_copy_batch=True)
