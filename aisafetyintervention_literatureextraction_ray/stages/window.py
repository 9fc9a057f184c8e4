"""Stream-shaped windowing over event logs (ray_guide.md pattern).

Ray Data has no event-time watermarks; stream semantics are expressed
over the partitioned log: group by key, sort by timestamp within the
group, window with pandas.  The ordering assumption is explicit: events
of one key fit one group (bucketed exchange) and are processed in
timestamp order; ties share a window.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from ..functions.agg import bucketed_group_map, hash_aggregate, hash_exchange


def tumbling_window(events: rd.Dataset, key_col: str, ts_col: str,
                    value_col: str, freq: str = "h", *,
                    exchange: str = "shuffle") -> rd.Dataset:
    """Tumbling event-time window: count + sum per (key, floor(ts)).

    ``exchange`` follows :func:`hash_aggregate` — callers whose
    ``key_col`` cardinality x window count is provably bounded (e.g.
    event types x hours) may pass ``"coalesce"``."""

    def floor_ts(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["window"] = df[ts_col].dt.floor(freq)
        return df[[key_col, "window", value_col]]

    return hash_aggregate(
        events.map_batches(floor_ts, batch_format="pandas", batch_size=65536),
        [key_col, "window"],
        [(value_col, "count"), (value_col, "sum")],
        rename={f"{value_col}_count": "n_events",
                f"{value_col}_sum": "sum_value"},
        exchange=exchange,
    )


def sliding_window(events: rd.Dataset, key_col: str, ts_col: str,
                   value_col: str, *, width: int = 3,
                   freq: str = "h", exchange: str = "shuffle") -> rd.Dataset:
    """Sliding (hopping) event-time window: window ``W`` aggregates the
    trailing ``width`` buckets ending at ``W`` (hop = 1 bucket).

    Implemented replication-side (each event contributes one row per
    window it falls in — ``width`` skinny rows), then the standard
    two-stage keyed reduce; no sort, no range join."""

    def replicate(df: pd.DataFrame) -> pd.DataFrame:
        import numpy as np

        base = df[ts_col].dt.floor(freq)
        n = len(df)
        step_ns = pd.tseries.frequencies.to_offset(freq).nanos
        offs = (np.tile(np.arange(width), n)
                * np.timedelta64(step_ns, "ns"))
        return pd.DataFrame({
            key_col: np.repeat(df[key_col].to_numpy(), width),
            "window_end": np.repeat(base.to_numpy(), width) + offs,
            value_col: np.repeat(df[value_col].to_numpy(), width),
        })

    return hash_aggregate(
        events.map_batches(replicate, batch_format="pandas",
                           batch_size=65536),
        [key_col, "window_end"],
        [(value_col, "count"), (value_col, "sum")],
        rename={f"{value_col}_count": "n_events",
                f"{value_col}_sum": "sum_value"},
        exchange=exchange,
    )


def asof_join(left: rd.Dataset, right: rd.Dataset, *,
              by_left: str, by_right: str, on_left: str, on_right: str,
              right_value_cols: list[str],
              right_reduce: dict[str, str] | None = None,
              exchange: str = "shuffle") -> rd.Dataset:
    """Backward inclusive as-of join: each left row gets the right row
    with the largest ``on_right <= on_left`` within its ``by`` key
    (``pd.merge_asof`` semantics; DuckDB ``ASOF LEFT JOIN`` equivalent).

    Distributed on :func:`hash_exchange`: each side is hashed on its own
    ``by`` key and each bucket runs one ``pd.merge_asof`` over the key,
    time and row-index columns only; the payload columns are then
    ``take``-n by row index, so every Arrow type is kept.  The
    partitioning assumption is only that one KEY's rows fit a bucket's
    share of the heap, the standard keyed-shuffle contract.  Output =
    left columns + ``right_value_cols`` (null where no right row
    precedes; null keys and times match nothing).

    ``right_reduce={col: fn}`` deduplicates the right side per
    ``(by, on)`` INSIDE the bucket (C groupby) before the merge.
    Callers that need e.g. "max value per (key, timestamp)" should pass
    this (plus an optional per-block partial upstream) instead of a
    standalone keyed aggregate: a separate exchange for a nearly-unique
    key set reduces nothing and pays a full extra shuffle (measured
    4.9 s of a 5 s query at sf0.1).
    """
    def kernel(lt: pa.Table, rt: pa.Table) -> pa.Table:
        if not lt.num_columns:  # a side with no block carries no schema
            return lt
        if not rt.num_columns:
            rt = pa.table({c: pa.nulls(0) for c in
                           {by_right, on_right, *right_value_cols}})
        r = pa.table({
            "k": rt.column(by_right).cast(lt.schema.field(by_left).type),
            "t": rt.column(on_right).cast(lt.schema.field(on_left).type),
            **{c: rt.column(c) for c in right_value_cols}})
        if right_reduce:
            r = r.group_by(["k", "t"]).aggregate(list(right_reduce.items()))
            names = {f"{c}_{f}": c for c, f in right_reduce.items()}
            r = r.rename_columns([names.get(c, c) for c in r.column_names])
        sides = []
        for t, k, ts, name in ((lt, by_left, on_left, "__l"),
                               (r, "k", "t", "__r")):
            sel = pa.table({"k": t.column(k), "t": t.column(ts),
                            name: np.arange(t.num_rows, dtype=np.int64)})
            sel = sel.filter(pc.and_(pc.is_valid(sel["k"]),
                                     pc.is_valid(sel["t"])))
            sides.append(sel.to_pandas().sort_values("t", kind="stable"))
        m = pd.merge_asof(*sides, on="t", by="k", direction="backward")
        ridx = np.full(lt.num_rows, -1, dtype=np.int64)
        ridx[m["__l"].to_numpy()] = m["__r"].fillna(-1).to_numpy(np.int64)
        idx = pa.array(ridx, mask=ridx < 0)
        for c in right_value_cols:
            lt = lt.append_column(c, r.column(c).take(idx))
        return lt

    return hash_exchange([(left, [by_left]), (right, [by_right])], kernel,
                         exchange=exchange)


def range_join_agg(left: rd.Dataset, right: rd.Dataset, *,
                   by_left: str, by_right: str, on_left: str,
                   on_right: str, value_col: str,
                   window: pd.Timedelta | str,
                   count_col: str = "n_in_window",
                   sum_cents_col: str = "sum_cents_in_window",
                   exchange: str = "shuffle") -> rd.Dataset:
    """Trailing range (interval) join + aggregate: for each left row,
    count and sum the right rows of the same ``by`` key with
    ``on_left - window < on_right <= on_left``.

    The operator Ray Data lacks (SURVEY.md 'custom operators': range
    join), on :func:`hash_exchange`: each side is hashed on its own
    ``by`` key, and each bucket resolves every left row's window
    VECTORIZED with two ``np.searchsorted`` calls over the time-sorted
    right side (windows overlap, so sums come from exact int64 cent
    cumsums — prefix-sum differences in integer arithmetic are
    order-exact, unlike float).  Output = left columns (types kept) +
    count + cent sum (int64; divide by 100 for currency).  Null keys
    and times match nothing.
    """
    window = pd.Timedelta(window).to_timedelta64()

    def kernel(lt: pa.Table, rt: pa.Table) -> pa.Table:
        n = lt.num_rows
        if not lt.num_columns:  # a side with no block carries no schema
            return lt
        counts = np.zeros(n, dtype=np.int64)
        cents = np.zeros(n, dtype=np.int64)
        if n and rt.num_rows:
            r = pa.table({
                "k": rt.column(by_right).cast(lt.schema.field(by_left).type),
                "t": rt.column(on_right).cast(lt.schema.field(on_left).type),
                "v": rt.column(value_col).cast(pa.float64())})
            r = r.filter(pc.and_(pc.is_valid(r["k"]), pc.is_valid(r["t"])))
            # one dictionary over both sides' keys: dense int codes
            key = pa.chunked_array(lt.column(by_left).chunks
                                   + r["k"].chunks, r["k"].type)
            code = pc.fill_null(pc.dictionary_encode(key).combine_chunks()
                                .indices, -1).to_numpy()
            lkeys, rkeys = code[:n], code[n:]
            lts = lt.column(on_left).to_numpy()
            # exact integer cents: float sums would depend on order
            rcents = np.round(r["v"].to_numpy(zero_copy_only=False)
                              * 100).astype(np.int64)
            rorder = np.lexsort((r["t"].to_numpy(), rkeys))
            rkeys, rts = rkeys[rorder], r["t"].to_numpy()[rorder]
            csum = np.concatenate([[0], np.cumsum(rcents[rorder])])
            # per-key slices of the time-sorted right side
            rstart = np.searchsorted(rkeys, np.arange(len(key)), "left")
            rend = np.searchsorted(rkeys, np.arange(len(key)), "right")
            # sort the left side by (key, ts) so each key is ONE
            # contiguous slice: total work is O((L + R) log) with one
            # loop iteration per key, never a full-column mask per key
            lorder = np.lexsort((lts, lkeys))
            lk_s, lt_s = lkeys[lorder], lts[lorder]
            lchange = np.flatnonzero(lk_s[1:] != lk_s[:-1]) + 1
            lbounds = np.concatenate([[0], lchange, [n]])
            c_s = np.zeros(n, dtype=np.int64)
            m_s = np.zeros(n, dtype=np.int64)
            for a, b in zip(lbounds[:-1], lbounds[1:]):
                k = lk_s[a]
                s, e = (rstart[k], rend[k]) if k >= 0 else (0, 0)
                if s == e:
                    continue
                ts = lt_s[a:b]
                lo = np.searchsorted(rts[s:e], ts - window, side="right") + s
                hi = np.searchsorted(rts[s:e], ts, side="right") + s
                c_s[a:b] = hi - lo
                m_s[a:b] = csum[hi] - csum[lo]
            counts[lorder] = c_s
            cents[lorder] = m_s
        return lt.append_column(count_col, pa.array(counts)).append_column(
            sum_cents_col, pa.array(cents))

    return hash_exchange([(left, [by_left]), (right, [by_right])], kernel,
                         exchange=exchange)


def sessionize(events: rd.Dataset, *, key_col: str = "user_id",
               ts_col: str = "ts", gap: pd.Timedelta | str = "30min",
               exchange: str = "shuffle") -> rd.Dataset:
    """Session windows: a new session starts when the gap since the
    previous event of the same key exceeds ``gap``.

    Output: (key, session_id, n_events, start_ts, end_ts); session_id is
    0-based in timestamp order per key — deterministic, and identical to
    the SQL gaps-and-islands formulation (LAG + running SUM) the oracle
    uses.
    """
    gap = pd.Timedelta(gap)

    def per_key(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(ts_col, kind="stable")
        new_session = (g[ts_col].diff() > gap).cumsum()
        out = g.groupby(new_session).agg(
            n_events=(ts_col, "size"),
            start_ts=(ts_col, "min"),
            end_ts=(ts_col, "max"),
        ).reset_index(drop=True)
        out.insert(0, "session_id", range(len(out)))
        out.insert(0, key_col, g[key_col].iloc[0])
        return out

    return bucketed_group_map(
        events.select_columns([key_col, ts_col]),
        [key_col], per_key, exchange=exchange)


def cohort_retention(events: rd.Dataset, *, key_col: str = "user_id",
                     ts_col: str = "ts",
                     bucket_us: int = 86_400_000_000,
                     num_buckets: int | None = None) -> rd.Dataset:
    """``(cohort_day, offset_days, n_users)`` — classic cohort
    retention: bucket event time into integer epoch days (pure int64
    ``microseconds // bucket_us``, exact and SQL-replayable as
    ``epoch_us(ts) // bucket``), take each key's FIRST active day as
    its cohort, and count distinct keys active at each (cohort,
    day-offset) cell — the corpus-telemetry view of user/source
    activity a training-data pipeline tracks across snapshot releases.

    Scale shape: one partial-deduped keyed exchange for the distinct
    (key, day) activity set, one keyed min for cohorts, one
    partitioned join of the two SKINNY int tables on the key, and a
    final (cohort, offset) count whose key set is bounded by the
    day-range squared — never by event volume.  Per-block partial
    dedup absorbs hot keys before anything shuffles.
    """
    from ..functions.agg import bucketed_join, hash_aggregate

    def to_day(t: pa.Table) -> pa.Table:
        us = t.column(ts_col).cast(pa.int64())
        return pa.table({
            key_col: t.column(key_col),
            "day": pc.divide(us, pa.scalar(bucket_us, pa.int64()))})

    ed = events.select_columns([key_col, ts_col]).map_batches(
        to_day, batch_format="pyarrow", zero_copy_batch=True)
    ud = hash_aggregate(
        ed, [key_col, "day"], [("day", "count")],
        num_buckets=num_buckets, exchange="shuffle",
    ).select_columns([key_col, "day"])
    ch = hash_aggregate(
        ud, [key_col], [("day", "min")], rename={"day_min": "cday"},
        num_buckets=num_buckets, exchange="shuffle")
    joined = bucketed_join(
        ud, ch, left_key=key_col, right_key=key_col,
        right_value_cols=["cday"], num_buckets=num_buckets)

    def cells(t: pa.Table) -> pa.Table:
        return pa.table({
            "cohort_day": t.column("cday"),
            "offset_days": pc.subtract(t.column("day"),
                                       t.column("cday"))})

    return hash_aggregate(
        joined.map_batches(cells, batch_format="pyarrow",
                           zero_copy_batch=True),
        ["cohort_day", "offset_days"], [("offset_days", "count")],
        rename={"offset_days_count": "n_users"},
        num_buckets=num_buckets, exchange="shuffle")
