"""Fast keyed reduction primitives on one task-based hash exchange.

Ray Data's ``groupby(keys).aggregate(...)`` uses a sort-based shuffle
with per-group Python dispatch; with many distinct keys it is orders of
magnitude slower than Arrow's hash aggregation (measured locally: 77 s
vs 0.1 s for 34k rows / 32k groups).  Its ``groupby(col).map_groups``
also cuts every input block into one piece per input block, so the
pieces grow with the square of the block count.  Every keyed primitive
here therefore runs on :func:`hash_exchange` instead:

1. **split**: one Ray task per input block hashes the keys
   (:func:`add_bucket_column`) and returns ``num_buckets`` Arrow pieces
   through ``num_returns`` -- pieces grow with the block count, not its
   square, and every piece keeps the block's schema;
2. **reduce**: one Ray task per non-empty bucket receives its pieces by
   reference, concatenates each side and calls one Arrow (or pandas)
   kernel once per bucket (not per key group);
3. **output**: ``rd.from_arrow_refs`` -- the exchange is eager, so a
   chain of exchanges never re-executes a lazy upstream.

Keyed reduces put a ``pyarrow.TableGroupBy`` partial per block in front
of the exchange, so it moves partials, not rows (a hot key costs one
row per block -- the skew mitigation of SURVEY.md §4.2).
``exchange="coalesce"`` is the one-bucket case of the same exchange,
and an in-memory ``pa.Table`` input is that case run in-process: the
kernel is called directly (the one-task placement of
``functions/graph.py`` runs every body this way).
``num_buckets`` is the parallelism: ~2x the cluster CPU count.  All
bucket hashes are process-independent (pandas hash with the fixed
default key).

:func:`bucketed_join` is the one equi-join, with one placement
decision: a right side of at most ``_BROADCAST_ROWS`` rows (block
metadata of the materialized side; measured at 100k, walls in its
docstring) is broadcast -- each left block joins every right block in
one :func:`_reduce` task, all by reference -- and a larger one goes
through :func:`hash_exchange`.  Both run the same ``_index_join``
kernel; no caller forks its own small-side join.
"""

from __future__ import annotations

from collections.abc import Callable
from itertools import chain, combinations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd
from ray.data.block import BlockAccessor

# partial-aggregate function -> how partials combine in the final stage
_COMBINE = {"sum": "sum", "count": "sum", "count_all": "sum",
            "min": "min", "max": "max", "one": "one"}


def default_num_buckets() -> int:
    cpus = int(ray.cluster_resources().get("CPU", 4)) if ray.is_initialized() else 4
    return max(8, cpus * 2)


def add_bucket_column(batch: pa.Table, keys: list[str], num_buckets: int,
                      col: str = "__bucket") -> pa.Table:
    """Vectorized deterministic bucket id from the key columns.  Numeric
    keys hash by their float64 value, so equal keys of different integer
    types, or in blocks with and without nulls, share a bucket."""
    acc = None
    for k in keys:
        c = batch.column(k)
        if pa.types.is_integer(c.type) or pa.types.is_floating(c.type) \
                or pa.types.is_boolean(c.type):
            # + 0.0 folds -0.0 into 0.0
            s = pd.Series(pc.cast(c, pa.float64(), safe=False)
                          .to_numpy(zero_copy_only=False) + 0.0)
        else:
            s = c.to_pandas()
        h = pd.util.hash_pandas_object(s, index=False).to_numpy()
        acc = h if acc is None else (acc * np.uint64(1000003)) ^ h
    bucket = (acc % np.uint64(num_buckets)).astype(np.int64)
    return batch.append_column(col, pa.array(bucket, type=pa.int64()))


def _arrow(block) -> pa.Table:
    return block if isinstance(block, pa.Table) \
        else BlockAccessor.for_block(block).to_arrow()


@ray.remote
def _split(block, keys: list[str], num_buckets: int):
    """One block -> ``num_buckets`` pieces (zero-row ones keep the
    schema) + the per-bucket row counts."""
    block = _arrow(block)
    if block.num_rows == 0:
        return (*[block] * num_buckets, np.zeros(num_buckets, np.int64))
    b = add_bucket_column(block.select(keys), keys,
                          num_buckets)["__bucket"].to_numpy()
    counts = np.bincount(b, minlength=num_buckets)
    t = block.take(np.argsort(b, kind="stable"))
    ends = np.cumsum(counts)
    return (*[t.slice(e - c, c) for e, c in zip(ends, counts)], counts)


def _kernel_call(kernel, widths: list[int], batch_format: str, *pieces):
    """Concatenate each side's pieces and call ``kernel`` once on them."""
    sides, start = [], 0
    for w in widths:
        part = [_arrow(p) for p in pieces[start:start + w]]
        start += w
        # the rows' schema wins: Ray's projections can leave a zero-row
        # block with its pre-projection columns
        part = [p for p in part if p.num_rows] or part[:1]
        sides.append(pa.concat_tables(part, promote_options="permissive")
                     if part else pa.table({}))
    if not any(t.num_columns for t in sides):
        # row-wise filters can leave empty blocks with no schema at all
        out = sides[0]
    elif batch_format == "pandas":
        out = kernel(*[BlockAccessor.for_block(t).to_pandas() for t in sides])
    else:
        out = kernel(*sides)
    if batch_format == "pandas":
        return out if isinstance(out, pd.DataFrame) else out.to_pandas()
    if isinstance(out, pd.DataFrame):
        out = pa.Table.from_pandas(out, preserve_index=False)
    # pandas schema metadata makes block schemas unhashable (Ray Data's
    # "Failed to hash the schemas" warning in worker processes)
    return out.replace_schema_metadata(None)


_reduce = ray.remote(_kernel_call)


def hash_exchange(sides: list[tuple[rd.Dataset, list[str]]],
                  kernel: Callable, *, num_buckets: int | None = None,
                  exchange: str = "shuffle",
                  batch_format: str = "pyarrow") -> rd.Dataset:
    """The one keyed exchange: hash every side's rows on that side's key
    columns into ``num_buckets`` buckets and call ``kernel(*tables)``
    once per bucket, one concatenated table (or DataFrame with
    ``batch_format="pandas"``) per side.  Equal keys meet in one bucket
    across sides.  Buckets empty on every side are skipped, unless all
    are: then bucket 0 runs once on typed empty input.
    ``exchange="coalesce"`` is the one-bucket case: the blocks go
    straight to one reduce task.  Eager: returns a materialized
    dataset.  In-memory ``pa.Table`` sides are the same one-bucket case
    run in-process: the kernel's table comes back directly (what the
    one-task placements of ``functions/graph.py`` run on)."""
    if all(isinstance(ds, pa.Table) for ds, _ in sides):
        return _kernel_call(kernel, [1] * len(sides), batch_format,
                            *(t for t, _ in sides))
    nb = 1 if exchange == "coalesce" else num_buckets or default_num_buckets()
    # materialize first: ``to_arrow_refs`` on a lazy Dataset runs its
    # plan twice, a ``limit(1)`` schema probe and then the whole plan
    blocks = [ds.materialize().to_arrow_refs() for ds, _ in sides]
    if not any(blocks):
        return rd.from_arrow_refs([])
    if nb == 1:
        buckets = [blocks]
    else:
        split = _split.options(num_returns=nb + 1)
        parts = [[split.remote(b, keys, nb) for b in refs]
                 for refs, (_, keys) in zip(blocks, sides)]
        counts = sum(ray.get([p[-1] for side in parts for p in side]))
        live = np.flatnonzero(counts) if counts.any() else [0]
        buckets = [[[p[i] for p in side] for side in parts] for i in live]
    kref = ray.put(kernel)
    outs = [_reduce.remote(kref, [len(s) for s in bucket], batch_format,
                           *chain(*bucket)) for bucket in buckets]
    if batch_format == "pandas":
        return rd.from_pandas_refs(outs)
    return rd.from_arrow_refs(outs)


def measured_exchange(n_rows_bound: int | None, *,
                      threshold: int = 2_000_000) -> str:
    """Exchange choice from a MEASURED upper bound on the partial key
    set: ``"coalesce"`` when the whole distinct key set provably fits
    one block (at or below ``threshold``), ``"shuffle"`` otherwise (or
    when no bound is known)."""
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

    A ``TableGroupBy`` partial per block, then :func:`hash_exchange`
    combines the partials per bucket.  ``exchange="coalesce"`` (explicit
    opt-in) combines them in one task -- correct AND cheaper whenever
    the DISTINCT KEY SET provably fits a block (canonical nodes /
    bounded windows / measured-small inputs).  Call sites must justify
    the bound (documented key-set bound or :func:`measured_exchange` on
    a measured row count).
    """
    partial_names = [f"{c}_{f}" for c, f in aggs]
    final_aggs = [(n, _COMBINE[f]) for n, (c, f) in zip(partial_names, aggs)]
    final_names = [f"{n}_{_COMBINE[f]}" for n, (c, f) in zip(partial_names, aggs)]

    mapping = dict(zip(final_names, partial_names))
    if rename:
        mapping = {k: rename.get(v, v) for k, v in mapping.items()}
        mapping.update({k: v for k, v in rename.items() if k in keys})

    def partial(t: pa.Table) -> pa.Table:
        return pa.TableGroupBy(t, keys).aggregate(aggs)

    def combine(t: pa.Table) -> pa.Table:
        out = pa.TableGroupBy(t, keys).aggregate(final_aggs)
        return out.rename_columns([mapping.get(c, c) for c in out.column_names])

    partials = partial(ds) if isinstance(ds, pa.Table) else \
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    return hash_exchange([(partials, keys)], combine,
                         num_buckets=num_buckets, exchange=exchange)


def bucketed_apply(ds: rd.Dataset, keys: list[str],
                   fn: Callable[[pd.DataFrame], pd.DataFrame],
                   *, num_buckets: int | None = None,
                   batch_format: str = "pandas",
                   exchange: str = "shuffle") -> rd.Dataset:
    """Apply ``fn`` ONCE per hash bucket of ``keys`` (not per key
    group).  All rows sharing a key land in the same bucket, so ``fn``
    can implement co-grouped semantics vectorized.  ``exchange=
    "coalesce"`` applies ``fn`` to everything in one worker task (NOT
    on the driver) -- for callers that have MEASURED the data to be
    small.
    """
    return hash_exchange([(ds, keys)], fn, batch_format=batch_format,
                         num_buckets=num_buckets, exchange=exchange)


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


def column_type(ds: rd.Dataset, col: str) -> pa.DataType:
    """Arrow type of ``col`` in ``ds.schema()``, for typed empty results.

    Pandas-block datasets report numpy dtypes; object dtype is assumed
    to be a STRING payload (the common case).
    """
    t = dict(zip(ds.schema().names, ds.schema().types))[col]
    if isinstance(t, pa.DataType):
        return t
    # pandas-block schemas may report either np.dtype('O') or the bare
    # ``object`` class; normalize through np.dtype before dispatching
    dt = t if isinstance(t, np.dtype) else np.dtype(t)
    if dt.kind == "O":
        return pa.string()
    return pa.from_numpy_dtype(dt)


def _index_join(left: pa.Table, right: pa.Table, *, left_key: str,
               right_key: str, right_value_cols: list[str],
               how: str = "inner") -> pa.Table:
    """Equi-join two tables through their row indices: join only the key
    columns with a row-index column, sort the matches by (left row,
    right row), then ``take`` every payload column from its side -- so
    list, struct and int64 payloads keep their exact Arrow types (Acero
    alone rejects list payloads; pandas widens null-padded ints).  The
    right key is cast to the left key's type; null keys match nothing.
    ``how`` is ``"inner"`` or ``"left"`` (unmatched right values null)."""
    if not left.num_columns:  # a side with no block carries no schema
        return left
    rk = right.column(right_key) if right.num_columns else pa.array([])
    lt = pa.table({"k": left.column(left_key),
                   "__l": np.arange(left.num_rows, dtype=np.int64)})
    rt = pa.table({"k": rk.cast(left.schema.field(left_key).type),
                   "__r": np.arange(right.num_rows, dtype=np.int64)})
    idx = lt.join(rt, "k", join_type="left outer" if how == "left"
                  else "inner").sort_by([("__l", "ascending"),
                                         ("__r", "ascending")])
    # a right value column replaces a left one of the same name: Ray's
    # select_columns leaves zero-row blocks unprojected, so an all-empty
    # left side can still carry the previous join's value column
    out = left.drop_columns([c for c in right_value_cols
                             if c in left.column_names]).take(idx["__l"])
    for c in right_value_cols:
        col = right.column(c) if c in right.column_names else pa.array([])
        out = out.append_column(c, col.take(idx["__r"]))
    return out


# right-side rows at or below which bucketed_join broadcasts; measured
# in bucketed_join's docstring
_BROADCAST_ROWS = 100_000


def bucketed_join(left: rd.Dataset, right: rd.Dataset, *,
                  left_key: str, right_key: str,
                  right_value_cols: list[str], how: str = "inner",
                  num_buckets: int | None = None) -> rd.Dataset:
    """Partitioned single-key equi-join, eager and schema-free.  Output =
    left columns + ``right_value_cols``, with every column's Arrow type
    kept; never driver-side.  Every task runs :func:`_index_join` in
    :func:`_reduce`, on one of two placements chosen by the
    materialized right side's row count (block metadata):

    - **broadcast** (at most ``_BROADCAST_ROWS``): one task per left
      block joins it against every right block, all passed by
      reference -- no exchange, no driver gather, no ``ray.put``;
    - **exchange** (above it): :func:`hash_exchange` hashes each side on
      its own key and joins bucket by bucket.

    ``_BROADCAST_ROWS`` is measured: a 2M-row left side in 32 blocks
    against a right side of 10k / 100k / 1M / 4M rows (int64 key and
    value, both materialized, 4-CPU local Ray, median of 4 runs) took
    0.23 / 0.36 / 1.71 / 6.82 s broadcast and 0.35 / 0.34 / 0.44 /
    0.73 s exchanged -- every left task reads the whole right side, so
    the broadcast only wins while that side is small; the walls cross
    at about 100k rows."""
    def kernel(lt: pa.Table, rt: pa.Table) -> pa.Table:
        return _index_join(lt, rt, left_key=left_key, right_key=right_key,
                          right_value_cols=right_value_cols, how=how)

    if isinstance(left, pa.Table):  # the one-bucket case, in-process
        return kernel(left, right)
    right = right.materialize()
    if right.count() > _BROADCAST_ROWS:
        return hash_exchange([(left, [left_key]), (right, [right_key])],
                             kernel, num_buckets=num_buckets)
    rrefs = right.to_arrow_refs()
    return rd.from_arrow_refs([
        _reduce.remote(kernel, [1, len(rrefs)], "pyarrow", lref, *rrefs)
        for lref in left.materialize().to_arrow_refs()])


def bucketed_group_map(ds: rd.Dataset, keys: list[str],
                       fn: Callable[[pd.DataFrame], pd.DataFrame],
                       *, num_buckets: int | None = None,
                       batch_format: str = "pandas",
                       exchange: str = "coalesce",
                       min_group_size: int = 1) -> rd.Dataset:
    """``groupby(keys).map_groups(fn)`` semantics on :func:`hash_exchange`:
    ``fn`` runs once per key group inside each bucket (a C hash-group,
    one Python call per key group).  ``exchange="coalesce"`` (default)
    groups everything in one task -- correct and far faster whenever the
    grouped data fits a block; ``"shuffle"`` spreads the keys over
    ``num_buckets`` buckets.

    ``min_group_size=2`` drops singleton key groups VECTORIZED before
    any per-group Python runs — the dominant case for LSH-bucket
    candidate generation, where almost every bucket holds one row and
    the UDF would return empty anyway.
    """
    if batch_format == "pandas":
        def group_rows(df: pd.DataFrame) -> pd.DataFrame:
            if min_group_size >= 2 and not df.empty:
                df = df[df.duplicated(subset=keys, keep=False)]
            if df.empty:
                return fn(df)
            parts = [fn(g) for _, g in df.groupby(keys, sort=False, dropna=False)]
            return pd.concat(parts, ignore_index=True)
    else:
        def group_rows(t: pa.Table):
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

    return hash_exchange([(ds, keys)], group_rows, batch_format=batch_format,
                         num_buckets=num_buckets, exchange=exchange)


def _grouping_sets(ds: rd.Dataset, keys: list[str], value_col: str,
                   subsets: list[list[str]],
                   num_buckets: int | None) -> rd.Dataset:
    """``GROUP BY GROUPING SETS`` in ONE data shuffle (the OLAP
    cube-lattice optimization): the finest ``GROUP BY keys`` is the only
    aggregate that touches the input; every coarser set re-aggregates
    the (key-cardinality-bounded) finest partials with its dropped keys
    nulled, so breadth costs subsets-many SMALL exchanges, never another
    scan of the data.  Output: ``keys + [n_rows, v_sum]``."""
    finest = hash_aggregate(
        ds.select_columns(keys + [value_col]), keys,
        [(value_col, "count"), (value_col, "sum")],
        rename={f"{value_col}_count": "n_rows",
                f"{value_col}_sum": "v_sum"},
        num_buckets=num_buckets)

    def level(kept: list[str]):
        def f(t: pa.Table) -> pa.Table:
            cols = {k: t.column(k) if k in kept
                    else pa.nulls(t.num_rows, t.schema.field(k).type)
                    for k in keys}
            cols["n_rows"] = t.column("n_rows").cast(pa.int64())
            cols["v_sum"] = t.column("v_sum").cast(pa.int64())
            return pa.table(cols)
        return f

    out = finest.map_batches(level(keys), batch_format="pyarrow")
    for sub in subsets:
        coarse = hash_aggregate(
            finest.map_batches(level(sub), batch_format="pyarrow"), keys,
            [("n_rows", "sum"), ("v_sum", "sum")],
            rename={"n_rows_sum": "n_rows", "v_sum_sum": "v_sum"},
            num_buckets=num_buckets)
        out = out.union(coarse.map_batches(level(keys),
                                           batch_format="pyarrow"))
    return out


def rollup_aggregate(ds: rd.Dataset, keys: list[str], value_col: str,
                     *, num_buckets: int | None = None) -> rd.Dataset:
    """SQL ``GROUP BY ROLLUP``: ``keys``, ``keys[:n-1]`` ... ``()`` in
    :func:`_grouping_sets`' one-shuffle plan.  Rolled-up key columns
    carry typed NULLs, matching SQL's rollup markers.  Output:
    ``keys + [n_rows, v_sum]``.

    Caller contract: key columns are NON-NULL (real null keys would
    collide with the rollup markers — same ambiguity SQL resolves with
    GROUPING(), which this deliberately omits) and ``value_col`` is
    non-null (``n_rows`` counts it).
    """
    if not keys:
        raise ValueError("rollup needs at least one key")
    return _grouping_sets(ds, keys, value_col,
                          [keys[:n] for n in range(len(keys) - 1, -1, -1)],
                          num_buckets)


def cube_aggregate(ds: rd.Dataset, keys: list[str], value_col: str,
                   *, num_buckets: int | None = None) -> rd.Dataset:
    """SQL ``GROUP BY CUBE`` — all ``2^k`` grouping subsets — in
    :func:`_grouping_sets`' one-shuffle plan.  Dropped key columns carry
    typed NULLs (SQL's CUBE markers).  Output: ``keys + [n_rows,
    v_sum]``.  Same caller contract as ``rollup_aggregate``: non-null
    keys and value.
    """
    if not keys:
        raise ValueError("cube needs at least one key")
    return _grouping_sets(ds, keys, value_col,
                          [list(c) for r in range(len(keys))
                           for c in combinations(keys, r)], num_buckets)


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
