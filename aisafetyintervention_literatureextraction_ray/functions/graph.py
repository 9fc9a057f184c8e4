"""Graph analytics over an edge Dataset: one handle, one round primitive.

Every algorithm here starts from a :class:`GraphHandle`, built once per
call from the caller's edge Dataset.  The handle owns what each
algorithm would otherwise restate:

* the edge VIEW — directed-distinct, symmetric, undirected ``a < b``
  or the raw pair list; self-loops kept or dropped; an optional weight
  column reduced by sum or min — materialized once;
* the MEASURED edge count and the ONE gate policy: at or below
  ``driver_threshold`` (2M skinny rows by default, ~32 MB of ids) the
  view comes to the driver and runs as numpy over ``pd.factorize`` int
  codes built once; above it, or with ``driver_threshold=0``, every
  stage is a bucketed exchange over the native ids (no distributed
  dictionary encoding);
* the input id type, typed-empty results, seed resolution and the
  "no seed appears as a graph node" refusal;
* the documented int64 caller bounds, checked once from maxima it
  measures, raising ``ValueError`` on both paths.

On top sits :meth:`GraphHandle.propagate`, one Pregel-style superstep
(Malewicz et al., SIGMOD 2010) with ``combine`` in {sum, min}.  An
algorithm writes its message and update kernels once, as numpy over
int64 columns.  The driver path applies them to the whole code arrays
with ``np.add.at`` / ``np.minimum.at``; the distributed path applies
them per batch inside one ``bucketed_join`` (state into the edges) ->
union(identity rows) -> ``hash_aggregate`` round; the exchange emits at
most one block per bucket, so the state's block count stays bounded
across rounds.  Fixed-round mode runs
``n_rounds``; fixed-point mode stops at the first round that changes
nothing — detected with the blocking-independent multiset signature
``_labels_sig`` and confirmed by the exact old-vs-new join only on a
signature match, so a collision cannot stop the loop early — and
refuses at the round cap instead of returning unconverged labels.
Integer sums, mins and floor divisions over nonnegative int64 are
associative and exact, so both paths are bit-identical under any
blocking or summation order and unroll into DuckDB integer SQL for
the oracles.

PageRank (uniform, seeded, weighted), Katz, HITS, BFS hops, SSSP,
feature propagation and the distributed connected components run on
``propagate``.  Path counts (a per-pivot (min, sum-over-argmin) state)
and label propagation (a per-node vote) keep their own loops; they and
the peel, wedge, matching and spanning-forest algorithms still take
their view and gate from the handle.
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from .agg import (bucketed_apply, bucketed_group_map, bucketed_join,
                  column_type, hash_aggregate)

#: driver-path state value of a node that has none yet (min combine)
_ABSENT = np.iinfo(np.int64).max


def _labels_sig(labels: rd.Dataset,
                value_col: str = "component_id") -> tuple[int, int]:
    """Blocking-independent multiset signature of ``(node_id, value)``
    rows (component labels, BFS hop counts, ...).

    Per block: wrapping-uint64 SUM of the row hashes, carried as exact
    32-bit halves plus a row count; one ``Dataset.sum`` pass combines
    the partials.  Modular addition is associative and commutative, so
    ``(sum_hi << 32 + sum_lo) mod 2^64`` depends only on the row
    MULTISET, never on how Ray splits rows into blocks (ADVICE r3: the
    previous per-block XOR + length-mix changed value under re-blocking,
    which could make a converged run miss the sig-match gate).  The
    halves sum exactly in int64: each is < 2^64 per block only after
    the per-block wrap, and cross-block sums of 32-bit halves stay far
    below 2^63 for any feasible block count."""

    def sig(t: pa.Table) -> pa.Table:
        h = pd.util.hash_pandas_object(
            pd.DataFrame({"n": t.column("node_id").to_pandas(),
                          "c": t.column(value_col).to_pandas()}),
            index=False).to_numpy()
        s = h.sum(dtype=np.uint64)  # wraps mod 2^64 (associative)
        return pa.table({
            "lo": pa.array([int(s & np.uint64(0xFFFFFFFF))], pa.int64()),
            "hi": pa.array([int(s >> np.uint64(32))], pa.int64()),
            "cnt": pa.array([t.num_rows], pa.int64()),
        })

    out = labels.map_batches(sig, batch_format="pyarrow").sum(
        ["lo", "hi", "cnt"])
    if not out:
        return (0, 0)
    total = ((int(out["sum(hi)"]) << 32) + int(out["sum(lo)"])) % (1 << 64)
    return (total, int(out["sum(cnt)"]))


def _changed_count(new_labels: rd.Dataset, old_labels: rd.Dataset,
                   num_buckets: int | None,
                   value_col: str = "component_id") -> int:
    """Exact count of nodes whose ``value_col`` differs between two
    label tables (the check a signature match must pass)."""

    def prev_name(t: pa.Table) -> pa.Table:
        return pa.table({"node_id": t["node_id"], "prev": t[value_col]})

    return bucketed_join(
        new_labels.select_columns(["node_id", value_col]),
        old_labels.map_batches(prev_name, batch_format="pyarrow",
                               zero_copy_batch=True),
        left_key="node_id", right_key="node_id",
        right_value_cols=["prev"], num_buckets=num_buckets,
    ).map_batches(
        lambda t: t.filter(pc.not_equal(t[value_col], t["prev"])),
        batch_format="pyarrow",
    ).count()


def _cat(*cols) -> pa.Array:
    return pa.chunked_array(list(cols)).combine_chunks()


def _np(col) -> np.ndarray:
    return np.asarray(col).astype(np.int64, copy=False)


def _ints(x) -> pa.Array:
    return pa.array(np.asarray(x, dtype=np.int64))


class GraphHandle:
    """One view of a caller's edge Dataset plus the measured path choice.

    ``view``:

    * ``"directed"`` — DISTINCT ``(s, d)``;
    * ``"symmetric"`` — DISTINCT ``(s, d)`` over both directions;
    * ``"undirected"`` — DISTINCT ``(a, b)`` with ``a < b``, self-loops
      always dropped; :meth:`propagate` runs over both directions;
    * ``"pairs"`` — the raw ``(s, d)`` rows, duplicates kept (the
      connected-components input); :meth:`propagate` runs both ways.

    ``loops=False`` drops self-loops, ``as_str`` casts ids to string
    first, and ``weight`` keeps that column as ``w``, reduced over
    duplicate pairs by ``reduce`` ("sum" or "min").  ``n_edges`` is the
    view's MEASURED row count and ``driver`` the one gate: true when
    ``0 < n_edges <= driver_threshold``, so ``driver_threshold=0``
    forces the distributed path.  On the driver path ``df`` is the
    gathered view and ``codes`` its ``(sc, dc, ids)`` factorization —
    ``sort=True``, so code order is id order — each built once, on
    first use.
    """

    def __init__(self, edges: rd.Dataset, src: str, dst: str, *,
                 view: str = "directed", loops: bool = True,
                 as_str: bool = False, weight: str | None = None,
                 reduce: str = "sum", num_buckets: int | None = None,
                 driver_threshold: int = 2_000_000):
        # from the INPUT schema: aggregated edge sets can come back
        # empty with ``schema() is None``
        self.id_type = column_type(edges, src)
        self.view, self.num_buckets = view, num_buckets
        self.cols = ("a", "b") if view == "undirected" else ("s", "d")
        ca, cb = self.cols
        # arc attribute columns: the weight, then ``tot`` once attached
        self.attrs = [] if weight is None else ["w"]

        def shape(t: pa.Table) -> pa.Table:
            x, y = t.column(src), t.column(dst)
            w = t.column(weight) if weight is not None else None
            if as_str:
                x, y = x.cast(pa.string()), y.cast(pa.string())
            if not loops or view == "undirected":
                ok = pc.invert(pc.equal(x, y))
                x, y = pc.filter(x, ok), pc.filter(y, ok)
                w = pc.filter(w, ok) if w is not None else None
            if view == "undirected":
                lt = pc.less(x, y)
                x, y = pc.if_else(lt, x, y), pc.if_else(lt, y, x)
            elif view == "symmetric":
                x, y = _cat(x, y), _cat(y, x)
                w = _cat(w, w) if w is not None else None
            return pa.table({ca: x, cb: y, **({} if w is None
                                                else {"w": w})})

        t = edges.select_columns(
            [src, dst] + ([weight] if weight is not None else [])
        ).map_batches(shape, batch_format="pyarrow", zero_copy_batch=True)
        if view != "pairs":
            t = hash_aggregate(
                t, [ca, cb],
                [("w", reduce)] if weight is not None else [(ca, "count")],
                rename={f"w_{reduce}": "w"}, num_buckets=num_buckets,
                exchange="shuffle").select_columns([ca, cb, *self.attrs])
        # materialized ONCE: the gate needs the count and both paths then
        # consume the rows, so a lazy view would re-run its whole
        # upstream lineage (measured 2x wall on dedup_components)
        self.table = t.materialize()
        self.n_edges = self.table.count()
        self.driver = bool(driver_threshold) and (
            0 < self.n_edges <= driver_threshold)

    # ------------------------------------------------------------ views
    @functools.cached_property
    def df(self) -> pd.DataFrame:
        return self.table.to_pandas()

    @functools.cached_property
    def codes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        df, (ca, cb) = self.df, self.cols
        codes, nodes = pd.factorize(
            pd.concat([df[ca], df[cb]], ignore_index=True), sort=True)
        n = len(df)
        return (codes[:n].astype(np.int64), codes[n:].astype(np.int64),
                np.asarray(nodes))

    @functools.cached_property
    def nodes(self) -> rd.Dataset:
        """Distributed ``(node_id)`` table: every endpoint, once."""
        ca, cb = self.cols
        return hash_aggregate(
            self.table.map_batches(
                lambda t: pa.table({"node_id": _cat(t[ca], t[cb])}),
                batch_format="pyarrow", zero_copy_batch=True),
            ["node_id"], [("node_id", "count")],
            num_buckets=self.num_buckets, exchange="shuffle",
        ).select_columns(["node_id"]).materialize()

    @functools.cached_property
    def n_nodes(self) -> int:
        return len(self.codes[2]) if self.driver else self.nodes.count()

    @functools.cached_property
    def arcs(self) -> rd.Dataset:
        """Distributed propagation arcs ``(s, d, attrs...)``: the view,
        or both directions of it for the undirected and pairs views."""
        if self.view not in ("undirected", "pairs"):
            return self.table
        ca, cb = self.cols
        return self.table.map_batches(
            lambda t: pa.table({"s": _cat(t[ca], t[cb]),
                                "d": _cat(t[cb], t[ca])}),
            batch_format="pyarrow", zero_copy_batch=True).materialize()

    def _driver_arcs(self):
        """Driver form of :attr:`arcs`: ``(src codes, dst codes, attrs)``."""
        sc, dc, _ = self.codes
        if self.view in ("undirected", "pairs"):
            return np.concatenate([sc, dc]), np.concatenate([dc, sc]), {}
        return sc, dc, {c: self.df[c].to_numpy(dtype=np.int64)
                        for c in self.df.columns if c not in self.cols}

    def empty(self, **cols) -> rd.Dataset:
        """Typed empty result; a ``None`` type is the input id type."""
        return rd.from_arrow(pa.table({
            n: pa.array([], type=self.id_type if t is None else t)
            for n, t in cols.items()}))

    # ------------------------------------------------------- measurements
    @staticmethod
    def check_bound(name: str, what: str, value: int) -> None:
        """Refuse a documented int64 caller contract that the measured
        graph breaks, instead of letting numpy / Arrow wrap silently."""
        if value >= 1 << 63:
            raise ValueError(f"{name}: {what} = {value} reaches 2^63; "
                             f"the int64 fixed point would wrap")

    def max_degree(self, side: str) -> int:
        """Largest out- (``side="s"``) or in-degree (``"d"``)."""
        if self.driver:
            sc, dc, ids = self.codes
            return int(np.bincount(sc if side == "s" else dc,
                                   minlength=len(ids)).max())
        return int(hash_aggregate(
            self.table.select_columns([side]), [side], [(side, "count")],
            rename={f"{side}_count": "n"}, num_buckets=self.num_buckets,
            exchange="shuffle").max("n"))

    def weight_range(self) -> tuple[int, int]:
        if self.driver:
            w = self.df["w"].to_numpy(dtype=np.int64)
            return int(w.min()), int(w.max())
        return int(self.table.min("w")), int(self.table.max("w"))

    def add_source_total(self) -> None:
        """Attach ``tot`` to every edge: its source's out-degree, or
        out-weight on a weighted view — joined once (it is round
        invariant), so every round only moves the state column."""
        s, weighted = self.cols[0], "w" in self.attrs
        if self.driver:
            sc, _, ids = self.codes
            tot = np.zeros(len(ids), np.int64)
            np.add.at(tot, sc, self.df["w"].to_numpy(dtype=np.int64)
                      if weighted else 1)
            self.df["tot"] = tot[sc]
            return
        deg = hash_aggregate(
            self.table.select_columns([s, "w"] if weighted else [s]), [s],
            [("w", "sum")] if weighted else [(s, "count")],
            rename={"w_sum": "tot", f"{s}_count": "tot"},
            num_buckets=self.num_buckets, exchange="shuffle")
        self.table = bucketed_join(
            self.table, deg, left_key=s, right_key=s,
            right_value_cols=["tot"], num_buckets=self.num_buckets)
        self.attrs.append("tot")

    def seed_mask(self, seeds: list):
        """``(mask, n_present)`` for a seed list: a code-indexed bool
        array on the driver path, the sorted array of the seed ids that
        are graph nodes otherwise.  Seeds missing from the graph
        contribute nothing; raises if NO seed is a graph node."""
        arr = pa.array(sorted(set(seeds))).cast(self.id_type)
        if self.driver:
            mask = np.isin(self.codes[2], np.asarray(arr))
            n = int(mask.sum())
        else:
            present = self.nodes.map_batches(
                lambda t: t.filter(pc.is_in(t["node_id"], value_set=arr)),
                batch_format="pyarrow").take_all()
            mask = pa.array(sorted(r["node_id"] for r in present),
                            type=self.id_type)
            n = len(mask)
        if n == 0:
            raise ValueError("no seed appears as a graph node")
        return mask, n

    # ------------------------------------------------------------ states
    # A state is a code-indexed int64 array on the driver path and a
    # ``(node_id, v)`` Dataset otherwise.  The node constant ``k`` is
    # fixed by the latest ``init``/``init_from``: an array on the
    # driver, else the ``k`` column of the zero rows every sum round
    # unions in — mapped off the initial state, whose blocks follow the
    # node table, not the per-round re-bounded state (measured ~20%
    # slower per round when taken from the latter).
    def init(self, value: int | None, base: int = 0, mask=None,
             fill: int | None = 0):
        """Initial state: node value ``value`` (``None``: the node's own
        id) and node constant ``base`` on every node in ``mask`` (all
        nodes when None); other nodes get value ``fill`` and constant 0,
        or are ABSENT when ``fill`` is None (min-combine frontiers)."""
        if self.driver:
            on = np.ones(self.n_nodes, bool) if mask is None else mask
            self.k = np.where(on, base, 0).astype(np.int64)
            return np.asarray(np.arange(self.n_nodes) if value is None
                              else np.where(on, value, _ABSENT if fill is
                                            None else fill), np.int64)

        def rows(t: pa.Table) -> pa.Table:
            ids = t["node_id"]
            on = (np.ones(t.num_rows, bool) if mask is None else
                  np.asarray(pc.is_in(ids, value_set=mask)))
            if fill is None:
                ids, on = ids.filter(pa.array(on)), on[on]
            return pa.table({
                "node_id": ids,
                "v": ids if value is None else _ints(
                    np.where(on, value, fill or 0)),
                "k": _ints(np.where(on, base, 0))})

        return self._start(self.nodes.map_batches(
            rows, batch_format="pyarrow", zero_copy_batch=True))

    def init_from(self, values: rd.Dataset, id_col: str, value_col: str):
        """Initial state read from a ``(id_col, value_col)`` int64
        Dataset; graph nodes it does not list start at 0."""
        if self.driver:
            fdf = values.to_pandas()
            pos = pd.Index(self.codes[2]).get_indexer(
                fdf[id_col].to_numpy())
            v = np.zeros(self.n_nodes, np.int64)
            ok = pos >= 0
            v[pos[ok]] = fdf[value_col].to_numpy(dtype=np.int64)[ok]
            self.k = np.zeros(self.n_nodes, np.int64)
            return v
        j = bucketed_join(
            self.nodes, values.select_columns([id_col, value_col]),
            left_key="node_id", right_key=id_col,
            right_value_cols=[value_col], how="left",
            num_buckets=self.num_buckets)
        return self._start(j.map_batches(lambda t: pa.table({
            "node_id": t["node_id"],
            "v": pc.coalesce(pc.cast(t[value_col], pa.int64()),
                             pa.scalar(0, pa.int64())),
            "k": _ints(np.zeros(t.num_rows))}), batch_format="pyarrow"))

    def _start(self, rows: rd.Dataset) -> rd.Dataset:
        rows = rows.materialize()
        self.zero_rows = rows.map_batches(
            lambda t: pa.table({"node_id": t["node_id"],
                                "v": _ints(np.zeros(t.num_rows)),
                                "n": _ints(np.zeros(t.num_rows)),
                                "k": t["k"]}),
            batch_format="pyarrow", zero_copy_batch=True)
        return rows.select_columns(["node_id", "v"])

    def map(self, state, fn):
        """Apply the numpy kernel ``fn`` to every node value (lazily on
        the distributed path: the next round's join reads it once)."""
        if self.driver:
            return fn(state)
        return state.map_batches(
            lambda t: pa.table({"node_id": t["node_id"],
                                "v": _ints(fn(_np(t["v"])))}),
            batch_format="pyarrow", zero_copy_batch=True)

    def max(self, state) -> int:
        return int(state.max()) if self.driver else int(state.max("v"))

    def output(self, id_name: str = "node_id", **states) -> rd.Dataset:
        """``(id_name, <name>...)`` from one or more states over the same
        node set; ABSENT nodes (min-combine frontiers) are omitted."""
        if self.driver:
            reached = next(iter(states.values())) != _ABSENT
            return rd.from_arrow(pa.table({
                id_name: pa.array(self.codes[2][reached]).cast(
                    self.id_type),
                **{n: pa.array(v[reached]) for n, v in states.items()}}))
        out = None
        for name, st in states.items():
            t = st.map_batches(
                lambda b, _n=name: pa.table({id_name: b["node_id"],
                                             _n: b["v"]}),
                batch_format="pyarrow", zero_copy_batch=True)
            out = t if out is None else bucketed_join(
                out, t, left_key=id_name, right_key=id_name,
                right_value_cols=[name], num_buckets=self.num_buckets)
        return out

    # --------------------------------------------------------- superstep
    def propagate(self, state, message=None, update=None, *,
                  combine: str = "sum", n_rounds: int = 1,
                  until_fixed: str | None = None, reverse: bool = False):
        """``n_rounds`` synchronous supersteps::

            agg(v) = combine over arcs u -> v of message(x(u), arc)
                     (``min`` also folds in x(v); ABSENT nodes send
                     nothing)
            x'(v)  = update(agg(v), n(v), k(v))

        ``message(x, e)`` and ``update(agg, n, k)`` are numpy kernels
        over int64 columns — ``e`` maps the arc attribute names (``w``,
        ``tot``) to columns, ``n`` counts the messages a node received,
        ``k`` is the node constant of the initial state; None is the
        identity (which also lets min-label propagation carry native
        ids).  ``reverse`` flips every arc.  With ``until_fixed`` (the
        algorithm's name) the loop stops at the first round that changes
        nothing and raises ``RuntimeError`` when ``n_rounds`` pass
        without one.  ``state`` comes from :meth:`init` /
        :meth:`init_from` or an earlier round."""
        run = (self._propagate_driver if self.driver
               else self._propagate_distributed)
        out = run(state, message, update, combine, n_rounds, until_fixed,
                  reverse)
        if out is None:
            # never return unconverged labels: a too-long chain would
            # report a reachable node as unreachable or split one
            # component into several
            raise RuntimeError(
                f"{until_fixed} did not converge within {n_rounds} "
                f"iterations (graph diameter exceeds max_iters); raise "
                f"max_iters")
        return out

    def _propagate_driver(self, x, message, update, combine, n_rounds,
                          until_fixed, reverse):
        src, dst, attrs = self._driver_arcs()
        if reverse:
            src, dst = dst, src
        n_in = np.bincount(dst, minlength=self.n_nodes)
        for _ in range(n_rounds):
            send = x[src] != _ABSENT if combine == "min" else slice(None)
            m = x[src][send]
            if message is not None:
                m = message(m, {c: a[send] for c, a in attrs.items()})
            if combine == "min":
                agg = x.copy()
                np.minimum.at(agg, dst[send], m)
            else:
                agg = np.zeros(self.n_nodes, np.int64)
                np.add.at(agg, dst, m)
            new = agg if update is None else update(agg, n_in, self.k)
            if until_fixed and np.array_equal(new, x):
                return new
            x = new
        return None if until_fixed else x

    def _propagate_distributed(self, state, message, update, combine,
                               n_rounds, until_fixed, reverse):
        arcs, nb = self.arcs, self.num_buckets
        s, d = ("d", "s") if reverse else ("s", "d")
        attrs = [] if self.view in ("undirected", "pairs") else self.attrs

        def emit(t: pa.Table) -> pa.Table:
            v, n = t["v"], t.num_rows
            if message is not None:
                v = _ints(message(_np(v), {c: _np(t[c]) for c in attrs}))
            return pa.table({"node_id": t[d], "v": v,
                             "n": _ints(np.ones(n)),
                             "k": _ints(np.zeros(n))})

        def min_rows(t: pa.Table) -> pa.Table:  # min folds in x(v)
            zeros = _ints(np.zeros(t.num_rows))
            return pa.table({"node_id": t["node_id"], "v": t["v"],
                             "n": zeros, "k": zeros})

        def apply(t: pa.Table) -> pa.Table:
            v = t["v"]
            if update is not None:
                v = _ints(update(_np(v), _np(t["n"]), _np(t["k"])))
            return pa.table({"node_id": t["node_id"], "v": v})

        prev_sig = _labels_sig(state, "v") if until_fixed else None
        for _ in range(n_rounds):
            joined = bucketed_join(
                arcs, state, left_key=s, right_key="node_id",
                right_value_cols=["v"], num_buckets=nb)
            cand = joined.map_batches(
                emit, batch_format="pyarrow", zero_copy_batch=True,
            ).union(self.zero_rows if combine == "sum" else
                    state.map_batches(min_rows, batch_format="pyarrow",
                                      zero_copy_batch=True))
            new = hash_aggregate(
                cand, ["node_id"], [("v", combine), ("n", "sum"),
                                    ("k", "max")],
                rename={f"v_{combine}": "v", "n_sum": "n", "k_max": "k"},
                num_buckets=nb, exchange="shuffle",
            ).map_batches(apply, batch_format="pyarrow",
                          zero_copy_batch=True).materialize()
            if until_fixed:
                sig = _labels_sig(new, "v")
                if sig == prev_sig and _changed_count(
                        new, state, nb, value_col="v") == 0:
                    return new
                prev_sig = sig
            state = new
        return None if until_fixed else state


# ------------------------------------------------------ connected components
def connected_components(pairs: rd.Dataset, *,
                         id_a: str = "id_a", id_b: str = "id_b",
                         max_iters: int = 50,
                         num_buckets: int | None = None,
                         driver_threshold: int = 2_000_000) -> rd.Dataset:
    """Label every node of the undirected pair graph with the MINIMUM
    node id reachable from it (the merge closure of canonicalization:
    near-duplicate / alias pairs collapse onto one canonical survivor).

    Input: a dataset with two id columns (one row per edge).  Output:
    ``(node_id, component_id)`` — one row per distinct endpoint;
    singleton nodes never appear in ``pairs`` and so are their own
    implicit components (callers left-join and coalesce).  Ids may be
    int or string; ``min`` is the Arrow kernel either way.

    At or below ``driver_threshold`` raw pairs (MEASURED) the two id
    columns come to the driver and a union-find closes them (2M pairs
    is ~32 MB of ids; payloads never travel).  Above it, min-label
    propagation to the fixed point on :meth:`GraphHandle.propagate`
    over the native ids — the iteration count is the graph diameter
    (dedup/alias graphs are near-cliques: 2-4 rounds); ``max_iters``
    refuses pathological chains.
    """
    h = GraphHandle(pairs, id_a, id_b, view="pairs",
                    num_buckets=num_buckets,
                    driver_threshold=driver_threshold)
    if h.n_edges == 0:
        return h.empty(node_id=None, component_id=None)
    if h.driver:
        from ..stages.canonicalize import union_find

        df = h.df
        remap = union_find(list(zip(df["s"], df["d"])))
        nodes = pd.unique(pd.concat([df["s"], df["d"]], ignore_index=True))
        return rd.from_pandas(pd.DataFrame({
            "node_id": nodes,
            "component_id": [remap.get(x, x) for x in nodes],
        }).sort_values("node_id").reset_index(drop=True))
    labels = h.propagate(h.init(None), combine="min", n_rounds=max_iters,
                         until_fixed="connected_components")
    return h.output(component_id=labels)


def degree_table(edges: rd.Dataset, *, src: str = "src", dst: str = "dst",
                 num_buckets: int | None = None) -> rd.Dataset:
    """``(node_id, out_degree, in_degree)`` over the DISTINCT simple
    digraph of ``edges`` (parallel edges — e.g. one KG edge per
    predicate between the same endpoints — count once).

    One vectorized endpoint-explode pass followed by one two-stage hash
    sum: no join, no driver state, skew-tolerant by the partial
    aggregation (a hub node costs one partial row per block).
    """
    e = GraphHandle(edges, src, dst, num_buckets=num_buckets).table

    def split(t: pa.Table) -> pa.Table:
        ones, zeros = np.ones(t.num_rows), np.zeros(t.num_rows)
        return pa.table({
            "node_id": _cat(t.column("s"), t.column("d")),
            "out_d": _ints(np.concatenate([ones, zeros])),
            "in_d": _ints(np.concatenate([zeros, ones])),
        })

    return hash_aggregate(
        e.map_batches(split, batch_format="pyarrow", zero_copy_batch=True),
        ["node_id"], [("out_d", "sum"), ("in_d", "sum")],
        rename={"out_d_sum": "out_degree", "in_d_sum": "in_degree"},
        num_buckets=num_buckets, exchange="shuffle",
    )


# --------------------------------------------------------------- PageRank
#: fixed-point scale for ``pagerank`` ranks (1.0 == PAGERANK_SCALE)
PAGERANK_SCALE = 1_000_000_000_000


def pagerank(edges: rd.Dataset, *, src: str = "src", dst: str = "dst",
             n_iters: int = 5, damping: tuple[int, int] = (85, 100),
             scale: int = PAGERANK_SCALE,
             seeds: list | None = None,
             weight: str | None = None,
             num_buckets: int | None = None,
             driver_threshold: int = 2_000_000) -> rd.Dataset:
    """Fixed-point integer PageRank over the DISTINCT simple digraph.

    Output: ``(node_id, rank_fp)`` with ``rank_fp`` an int64 rank in
    units of ``1/scale`` (1.0 == ``scale``).  The recurrence is computed
    ENTIRELY in integer arithmetic::

        r_0(v)     = scale // N
        contrib(u) = r_t(u) // outdeg(u)           (per distinct edge)
        r_{t+1}(v) = ((den-num) * (scale // N)) // den
                     + (num * sum_{u->v} contrib(u)) // den

    with ``(num, den) = damping``.  Integer sums are associative and
    commutative and integer division is exact, so the result is
    bit-identical regardless of block splits, shuffle order, or summation
    order — float PageRank cannot promise any of that on a cluster, and
    the same recurrence unrolls verbatim into DuckDB integer SQL for the
    oracle check.  Dangling-node mass is dropped (the standard
    simplification); ``n_iters`` is FIXED, not convergence-tested:
    PageRank's error decays geometrically as ``(num/den)^t``, so a small
    fixed count is the usual ranking-quality choice and keeps the
    distributed cost exactly ``n_iters`` join+reduce rounds of
    :meth:`GraphHandle.propagate` (the out-degree rides on the edges,
    joined once).

    ``seeds`` switches to PERSONALIZED PageRank (entity-relatedness
    ranking around a query set): the uniform restart mass is replaced
    by ``scale // |seeds∩nodes|`` on the seed nodes and 0 elsewhere —
    both the initial vector and the per-iteration teleport term — so
    rank concentrates in the seeds' neighborhoods.  Same integer
    arithmetic, same bit-exactness, both paths.

    ``weight`` names an int64 edge-weight column (e.g. provenance
    counts): duplicate ``(src, dst)`` rows SUM their weights, the
    outdeg denominator becomes the node's weighted out-sum, and each
    edge's contribution is ``(r_t(u) * w) // W(u)`` — still pure
    integer, still bit-exact under any shuffle order.  Caller
    contract, checked (``ValueError``): ``max(w) * scale`` must stay
    below 2^63 (provenance counts against the default 1e12 scale allow
    weights to ~9e6).
    """
    num, den = damping
    h = GraphHandle(edges, src, dst, weight=weight,
                    num_buckets=num_buckets,
                    driver_threshold=driver_threshold)
    if h.n_edges == 0:
        return h.empty(node_id=None, rank_fp=pa.int64())
    if seeds is not None and not seeds:
        raise ValueError("seeds must be None (uniform) or non-empty")
    if weight is not None:
        h.check_bound("pagerank", "max(w) * scale",
                      h.weight_range()[1] * scale)
    h.add_source_total()
    mask, n_mass = (h.seed_mask(seeds) if seeds is not None
                    else (None, h.n_nodes))
    r0 = scale // n_mass
    ranks = h.propagate(
        h.init(r0, base=((den - num) * r0) // den, mask=mask),
        lambda r, e: (r * e["w"] if weight is not None else r) // e["tot"],
        lambda s, n, base: base + (num * s) // den, n_rounds=n_iters)
    return h.output(rank_fp=ranks)


# ----------------------------------------------------------------- Katz
KATZ_BETA = 1_000_000_000_000


def katz_centrality(edges: rd.Dataset, *, src: str = "src",
                    dst: str = "dst", n_iters: int = 8,
                    beta: int = KATZ_BETA,
                    num_buckets: int | None = None,
                    driver_threshold: int = 2_000_000) -> rd.Dataset:
    """``(node_id, katz_fp)`` — Katz centrality over the DISTINCT
    simple digraph (self-loops dropped) in exact integer fixed point.
    The attenuation factor is MEASURED from the graph::

        den        = max(2, 2 * max_in_degree)        (alpha = 1/den)
        x_0(i)     = beta
        x_{t+1}(i) = beta + (sum_{j->i} x_t(j)) // den

    ``alpha < 1/max_in_degree <= 1/lambda_max`` is the classic Katz
    convergence condition, and it doubles as an overflow bound:
    ``x <= beta + (max_in_deg * x_max) // (2 * max_in_deg)`` gives
    ``x_max <= 2 * beta``, so every intermediate sum stays below
    ``max_in_deg * 2 * beta`` — the caller contract, checked
    (``ValueError``): it must stay below 2^63 (in-degrees to ~4.6e6 at
    the default beta; document-derived KGs are far below).  Unlike
    PageRank, Katz credits a node for ALL walks that reach it without
    dividing by the walker's out-degree, so prolific sources transfer
    full endorsement weight — the standard alternative centrality for
    citation-style graphs.  Sum / max / floor-division over positive
    int64 are associative / exact, so the result is bit-identical
    under any blocking or summation order and the recurrence unrolls
    verbatim into DuckDB integer SQL.  ``n_iters`` rounds of
    :meth:`GraphHandle.propagate` (sum).
    """
    if n_iters < 1:
        raise ValueError("n_iters must be >= 1")
    h = GraphHandle(edges, src, dst, loops=False, num_buckets=num_buckets,
                    driver_threshold=driver_threshold)
    if h.n_edges == 0:
        return h.empty(node_id=None, katz_fp=pa.int64())
    max_in = h.max_degree("d")
    h.check_bound("katz_centrality", "max_in_degree * 2 * beta",
                  max_in * 2 * beta)
    den = max(2, 2 * max_in)
    x = h.propagate(h.init(beta), None, lambda s, n, k: beta + s // den,
                    n_rounds=n_iters)
    return h.output(katz_fp=x)


# ----------------------------------------------------------------- HITS
HITS_SCALE = 1_000_000_000_000


def hits(edges: rd.Dataset, *, src: str = "src", dst: str = "dst",
         n_iters: int = 8, scale: int = HITS_SCALE,
         num_buckets: int | None = None,
         driver_threshold: int = 2_000_000) -> rd.Dataset:
    """``(node_id, hub_fp, auth_fp)`` — Kleinberg's HITS over the
    DISTINCT simple digraph (self-loops dropped) in exact integer
    fixed point.  Per iteration::

        a_raw(i) = sum_{j->i} h(j);  a = a_raw // ceil(max(a_raw)/scale)
        h_raw(j) = sum_{j->i} a(i);  h = h_raw // ceil(max(h_raw)/scale)

    The divisor normalization (instead of the float L2 norm) keeps
    every value in ``[0, scale]`` using ONLY integer sum / max /
    division — associative, commutative, and exactly replayable in SQL
    (``v // GREATEST(1, (MAX(v) + scale - 1) // scale)``), so the
    result is bit-identical under any blocking or summation order.
    KG use: separates REFERENCE entities (authorities — pointed at by
    many well-sourced claims) from SURVEY entities (hubs — whose
    outgoing edges cover the authorities), which PageRank's single
    score conflates.  ``n_iters`` is fixed (HITS converges
    geometrically; 8 rounds is the standard ranking choice); each half
    step is one :meth:`GraphHandle.propagate` round (the hub step runs
    the arcs reversed) plus one driver-scalar max.

    Caller contract, checked (``ValueError``): ``max(in_deg, out_deg)
    * scale < 2^63`` — degrees to ~9.2e6 at the default scale (the
    ``pagerank`` weighted bound).
    """
    if n_iters < 1:
        raise ValueError("n_iters must be >= 1")
    h = GraphHandle(edges, src, dst, loops=False, num_buckets=num_buckets,
                    driver_threshold=driver_threshold)
    if h.n_edges == 0:
        return h.empty(node_id=None, hub_fp=pa.int64(), auth_fp=pa.int64())
    h.check_bound("hits", "max(in_deg, out_deg) * scale",
                  max(h.max_degree("s"), h.max_degree("d")) * scale)

    def half_step(x, reverse: bool):
        raw = h.propagate(x, reverse=reverse)
        div = max(1, (h.max(raw) + scale - 1) // scale)
        return h.map(raw, lambda v: v // div)

    hub = auth = h.init(scale)
    for _ in range(n_iters):
        auth = half_step(hub, False)   # authorities gather hub mass
        hub = half_step(auth, True)    # hubs gather authority mass
    return h.output(hub_fp=hub, auth_fp=auth)


# ------------------------------------------------------- BFS hops / SSSP
def bfs_hops(edges: rd.Dataset, *, src: str = "src", dst: str = "dst",
             seeds: list, max_iters: int = 50,
             num_buckets: int | None = None,
             driver_threshold: int = 2_000_000) -> rd.Dataset:
    """``(node_id, hops)`` — minimum UNDIRECTED hop count from the seed
    set over the distinct simple graph of ``edges`` (multi-source BFS;
    KG use: distance-from-query-entities relatedness tiers, the hop
    analogue of the personalized-PageRank neighborhood ranking).

    Only REACHED nodes appear — unreachable nodes are absent, exactly
    like ``connected_components`` omits singleton nodes (callers
    left-join and treat null as unreachable).  Self-loops are harmless
    (a ``hop+1`` candidate back onto a labeled node never beats its
    existing label) and are left in.  The hop label only ever
    DECREASES under the min combine, so this is min-plus
    :meth:`GraphHandle.propagate` run to its fixed point, bit-identical
    on both paths; ``max_iters`` refuses (``RuntimeError``) when the
    seed eccentricity exceeds ``max_iters - 1`` rather than report
    reachable nodes as unreachable.

    Seeds missing from the graph contribute nothing; raises if NO seed
    is a graph node (same contract as personalized ``pagerank``).
    """
    if not seeds:
        raise ValueError("seeds must be non-empty")
    h = GraphHandle(edges, src, dst, view="symmetric",
                    num_buckets=num_buckets,
                    driver_threshold=driver_threshold)
    if h.n_edges == 0:
        return h.empty(node_id=None, hops=pa.int64())
    mask, _ = h.seed_mask(seeds)
    hops = h.propagate(h.init(0, mask=mask, fill=None),
                       lambda x, e: x + 1, combine="min",
                       n_rounds=max_iters, until_fixed="bfs_hops")
    return h.output(hops=hops)


def shortest_paths(edges: rd.Dataset, *, src: str = "src",
                   dst: str = "dst", weight: str | None = None,
                   seeds: list, n_rounds: int = 8,
                   num_buckets: int | None = None,
                   driver_threshold: int = 2_000_000) -> rd.Dataset:
    """``(node_id, dist)`` — cheapest DIRECTED path cost from the seed
    set over at most ``n_rounds`` edges (bounded-hop multi-source
    Bellman-Ford; KG use: provenance-discounted evidence distance —
    how cheaply a claim chain connects query entities to a target).

    ``weight`` names a NON-NEGATIVE int64 edge-cost column; parallel
    edges collapse to their MIN cost (``weight=None`` costs every
    distinct edge 1, the hop metric).  The relaxation is pure min-plus
    integer arithmetic::

        d_0      = 0 on seeds (absent elsewhere)
        d_{t+1}(v) = min(d_t(v), min_{u->v}(d_t(u) + c(u, v)))

    min and + over int64 are associative / commutative / exact, so the
    result is bit-identical under any blocking or summation order and
    the recurrence unrolls verbatim into DuckDB integer SQL.
    ``n_rounds`` is FIXED (not convergence-tested): the output is the
    well-defined "cheapest path using <= n_rounds edges", which is the
    full SSSP whenever n_rounds >= the weighted-path hop diameter.
    Only REACHED nodes appear (same contract as ``bfs_hops``; the
    distributed state never holds unreached nodes, so no infinity
    sentinel travels); self-loops are harmless (``d + c >= d`` for
    ``c >= 0``) and are left in.  Caller contract, checked
    (``ValueError``): ``n_rounds * max_cost < 2^63``.
    """
    if not seeds:
        raise ValueError("seeds must be non-empty")
    if n_rounds < 1:
        raise ValueError("n_rounds must be >= 1")
    h = GraphHandle(edges, src, dst, weight=weight, reduce="min",
                    num_buckets=num_buckets,
                    driver_threshold=driver_threshold)
    if h.n_edges == 0:
        return h.empty(node_id=None, dist=pa.int64())
    lo, hi = h.weight_range() if weight is not None else (1, 1)
    if lo < 0:
        raise ValueError("edge costs must be non-negative")
    h.check_bound("shortest_paths", "n_rounds * max_cost", n_rounds * hi)
    mask, _ = h.seed_mask(seeds)
    dist = h.propagate(
        h.init(0, mask=mask, fill=None),
        (lambda x, e: x + 1) if weight is None else (
            lambda x, e: x + e["w"]),
        combine="min", n_rounds=n_rounds)
    return h.output(dist=dist)


# ------------------------------------------------------- feature propagation
def feature_propagation(edges: rd.Dataset, features: rd.Dataset, *,
                        src: str = "src", dst: str = "dst",
                        id_col: str = "node_id", feat_col: str = "f",
                        rounds: int = 2,
                        num_buckets: int | None = None,
                        driver_threshold: int = 2_000_000) -> rd.Dataset:
    """GNN-style mean aggregation of an int64 node feature over the
    undirected simple graph: per round, every node's feature becomes
    the TRUNCATING integer mean of its neighbors' features::

        f_{t+1}(v) = (sum_{u ~ v} f_t(u)) // deg(v)

    The smoothing primitive of graph feature engineering (label
    propagation on continuous features, over-smoothing probes,
    feature pre-computation for downstream models).  All arithmetic
    is int64 — callers scale their feature into fixed point first —
    so keyed sums are order-independent, both execution paths are
    bit-identical, and the recurrence unrolls verbatim into integer
    SQL for the oracle.  Caller contract: features are NONNEGATIVE
    (Arrow's integer divide truncates toward zero while numpy's ``//``
    floors — they agree only at >= 0) and ``max(f) * max_deg`` stays
    below 2^63.

    One :meth:`GraphHandle.propagate` round (sum; the update divides by
    the received-message count, which is the degree) per ``rounds``
    over the undirected view; the gate counts distinct undirected
    edges.  Nodes missing from ``features`` start at 0.
    """
    h = GraphHandle(edges, src, dst, view="undirected",
                    num_buckets=num_buckets,
                    driver_threshold=driver_threshold)
    if h.n_edges == 0:
        return h.empty(**{id_col: None, feat_col: pa.int64()})
    f = h.propagate(h.init_from(features, id_col, feat_col), None,
                    lambda s, deg, k: s // deg, n_rounds=rounds)
    return h.output(id_col, **{feat_col: f})


# ---------------------------------------------------------------- triangles
def _triangles_driver(a: np.ndarray, b: np.ndarray, n_nodes: int,
                      wedge_limit: int | None):
    """``(u, v, w)`` code arrays, one row per triangle of the undirected
    code edge list ``(a, b)``; None when the exact oriented-wedge count
    (known from degrees BEFORE any expansion) exceeds ``wedge_limit``
    — the caller then runs the distributed path.  Orientation breaks
    degree ties by code; any strict total order yields the same
    triangle SET, which is all the callers read."""
    deg = np.bincount(np.concatenate([a, b]),
                      minlength=n_nodes).astype(np.int64)
    a_first = (deg[a] < deg[b]) | ((deg[a] == deg[b]) & (a < b))
    s, d = np.where(a_first, a, b), np.where(a_first, b, a)
    od = np.bincount(s, minlength=n_nodes).astype(np.int64)
    if wedge_limit is not None and int((od * (od - 1) // 2).sum()) > \
            wedge_limit:
        return None
    o = pd.DataFrame({"s": s, "d": d, "dd": deg[d]})
    w = o.merge(o, on="s")
    w = w[(w["dd_x"] < w["dd_y"]) | ((w["dd_x"] == w["dd_y"])
                                     & (w["d_x"] < w["d_y"]))]
    closed = w.merge(o, left_on=["d_x", "d_y"], right_on=["s", "d"])
    return tuple(closed[c].to_numpy(dtype=np.int64)
                 for c in ("s_x", "d_x", "d_y"))


def _triangles_distributed(und: rd.Dataset, num_buckets: int | None):
    """``(closed, deg)`` over the materialized distinct ``(a < b)``
    STRING edge list ``und``: every triangle once as a ``(u, v, w)``
    row of ``closed`` (the wedge center and its two oriented
    out-neighbors), and the ``(node_id, deg)`` table.

    Degree-ordered orientation: every undirected edge is directed from
    its lower-``(degree, id)`` endpoint to the higher one, so every
    triangle has exactly one node with out-edges to the other two and
    is found exactly once — and, crucially for web-scale graphs, the
    oriented OUT-degree is bounded by ``O(sqrt(m))`` even at hub nodes
    (a celebrity node of degree 10^6 contributes wedges only through
    its low-degree neighbors), which keeps the wedge self-join from
    exploding quadratically on skewed degree distributions.  A
    pair-key join against the oriented edge set closes each wedge.
    All exchanges are skinny bucketed shuffles."""
    sep, st, i64 = "\x1f", pa.string(), pa.int64()
    deg = degree_table(und, src="a", dst="b",
                       num_buckets=num_buckets).map_batches(
        lambda t: pa.table({"node_id": t["node_id"], "deg": pc.cast(
            pc.add(t["out_degree"], t["in_degree"]), i64)}),
        batch_format="pyarrow", zero_copy_batch=True).materialize()
    j1 = bucketed_join(und, deg, left_key="a", right_key="node_id",
                       right_value_cols=["deg"], num_buckets=num_buckets)
    j2 = bucketed_join(
        j1.map_batches(lambda t: t.rename_columns(["a", "b", "deg_a"]),
                       batch_format="pyarrow", zero_copy_batch=True),
        deg, left_key="b", right_key="node_id",
        right_value_cols=["deg"], num_buckets=num_buckets)

    def orient(t: pa.Table) -> pa.Table:
        a, b = t.column("a"), t.column("b")
        da, db = t.column("deg_a"), t.column("deg")
        a_first = pc.or_(pc.less(da, db),
                         pc.and_(pc.equal(da, db), pc.less(a, b)))
        return pa.table({
            "o_src": pc.if_else(a_first, a, b),
            "o_dst": pc.if_else(a_first, b, a),
            "deg_dst": pc.if_else(a_first, db, da),
        })

    o = j2.map_batches(orient, batch_format="pyarrow",
                       zero_copy_batch=True).materialize()
    wedges = bucketed_join(
        o, o.map_batches(
            lambda t: t.rename_columns(["w_src", "w_dst", "w_deg"]),
            batch_format="pyarrow", zero_copy_batch=True),
        left_key="o_src", right_key="w_src",
        right_value_cols=["w_dst", "w_deg"], num_buckets=num_buckets)

    def ordered_pairs(t: pa.Table) -> pa.Table:
        d1, d2 = t.column("deg_dst"), t.column("w_deg")
        v, w = t.column("o_dst"), t.column("w_dst")
        keep = pc.or_(pc.less(d1, d2),
                      pc.and_(pc.equal(d1, d2), pc.less(v, w)))
        u, v, w = (pc.filter(x, keep) for x in (t.column("o_src"), v, w))
        # explicit casts: an empty filtered batch must still carry
        # string-typed columns or downstream block schemas diverge
        return pa.table({
            "key": pc.binary_join_element_wise(v, w, sep).cast(st),
            "u": pc.cast(u, st), "v": pc.cast(v, st), "w": pc.cast(w, st)})

    closed = bucketed_join(
        wedges.map_batches(ordered_pairs, batch_format="pyarrow",
                           zero_copy_batch=True),
        o.map_batches(lambda t: pa.table({
            "key": pc.binary_join_element_wise(t["o_src"], t["o_dst"],
                                               sep),
            "m": pa.array(np.ones(t.num_rows, dtype=np.int8))}),
            batch_format="pyarrow", zero_copy_batch=True),
        left_key="key", right_key="key", right_value_cols=["m"],
        num_buckets=num_buckets)
    return closed, deg


def triangle_count(edges: rd.Dataset, *, src: str = "src",
                   dst: str = "dst",
                   num_buckets: int | None = None,
                   driver_threshold: int = 500_000,
                   driver_wedge_limit: int = 20_000_000) -> int:
    """Exact global triangle count of the UNDIRECTED simple graph
    underlying ``edges`` (direction, parallel edges and self-loops
    ignored), by the degree-ordered orientation of
    :func:`_triangles_distributed`.  The count is orientation-invariant,
    so a plain 3-way self-join replays it in SQL.  The driver path
    (the handle's measured gate) is doubly gated: the edge count bounds
    the gather and the exact ORIENTED wedge count bounds the join
    memory, so a pathological near-clique falls through to the
    distributed path instead of blowing up the driver.
    """
    h = GraphHandle(edges, src, dst, view="undirected", as_str=True,
                    num_buckets=num_buckets,
                    driver_threshold=driver_threshold)
    if h.n_edges == 0:
        return 0
    if h.driver:
        ac, bc, ids = h.codes
        tri = _triangles_driver(ac, bc, len(ids), driver_wedge_limit)
        if tri is not None:
            return len(tri[0])
    return _triangles_distributed(h.table, num_buckets)[0].count()


def _clustering_table(ids, deg, tri, id_type: pa.DataType) -> pa.Table:
    d, tr = _np(deg), _np(tri)
    wedges = d * (d - 1) // 2
    coeff = np.round(tr.astype(np.float64)
                     / np.maximum(wedges, 1).astype(np.float64), 6)
    return pa.table({
        "node_id": ids.cast(id_type),
        "triangles": pa.array(tr), "wedges": pa.array(wedges),
        "coeff": pa.array(coeff, mask=wedges == 0)})


def clustering_coefficients(edges: rd.Dataset, *, src: str = "src",
                            dst: str = "dst",
                            num_buckets: int | None = None,
                            driver_threshold: int = 500_000,
                            driver_wedge_limit: int = 20_000_000
                            ) -> rd.Dataset:
    """Per-node triangle participation and local clustering coefficient
    of the UNDIRECTED simple graph underlying ``edges``.

    Output, one row per node of the simple graph:
    ``(node_id, triangles:int64, wedges:int64, coeff:float64)`` with
    ``wedges = deg * (deg - 1) / 2`` and ``coeff = triangles / wedges``
    rounded to 6 decimals (NULL for degree-1 nodes, which close no
    wedge).  Same orientation and double driver gate as
    :func:`triangle_count`; each found triangle credits its three
    corners.  The triangle set is orientation-invariant, so both paths
    agree bit-for-bit and a plain 3-way SQL self-join replays the
    counts.  Per-node credit aggregation is a two-stage hash sum seeded
    with a zero row per node, so nodes in no triangle still report.
    """
    h = GraphHandle(edges, src, dst, view="undirected", as_str=True,
                    num_buckets=num_buckets,
                    driver_threshold=driver_threshold)
    if h.n_edges == 0:
        return h.empty(node_id=None, triangles=pa.int64(),
                       wedges=pa.int64(), coeff=pa.float64())
    if h.driver:
        ac, bc, ids = h.codes
        tri = _triangles_driver(ac, bc, len(ids), driver_wedge_limit)
        if tri is not None:
            count = functools.partial(np.bincount, minlength=len(ids))
            return rd.from_arrow(_clustering_table(
                pa.array(ids), count(np.concatenate([ac, bc])),
                count(np.concatenate(tri)), h.id_type))

    closed, deg = _triangles_distributed(h.table, num_buckets)
    credits = closed.map_batches(lambda t: pa.table({
        "node_id": _cat(t["u"], t["v"], t["w"]),
        "tri": _ints(np.ones(3 * t.num_rows))}),
        batch_format="pyarrow", zero_copy_batch=True)
    zeros = deg.map_batches(lambda t: pa.table({
        "node_id": t["node_id"], "tri": _ints(np.zeros(t.num_rows))}),
        batch_format="pyarrow", zero_copy_batch=True)
    tri = hash_aggregate(credits.union(zeros), ["node_id"],
                         [("tri", "sum")], rename={"tri_sum": "triangles"},
                         num_buckets=num_buckets)
    out = bucketed_join(
        tri, deg, left_key="node_id", right_key="node_id",
        right_value_cols=["deg"], num_buckets=num_buckets)
    return out.map_batches(
        lambda t: _clustering_table(t["node_id"], t["deg"],
                                    t["triangles"], h.id_type),
        batch_format="pyarrow", zero_copy_batch=True)


# ----------------------------------------------------------------- k-truss
def _edge_supports(und: rd.Dataset, *,
                   num_buckets: int | None) -> rd.Dataset:
    """``(a, b, support)`` for EVERY edge of the materialized distinct
    ``(a < b)`` STRING edge list ``und`` — the number of triangles the
    edge closes: each triangle of :func:`_triangles_distributed`
    credits its THREE undirected edges (vs. the three corner NODES in
    :func:`clustering_coefficients`), and edges in no triangle are
    seeded with an explicit zero row so the caller's peel threshold
    sees them."""
    closed, _ = _triangles_distributed(und, num_buckets)

    def edge_credits(t: pa.Table) -> pa.Table:
        u, v, w = t.column("u"), t.column("v"), t.column("w")
        # canonicalize each of the triangle's three edges by id (the
        # orientation is by DEGREE, so u/v/w carry no id order)
        pairs = ((u, v), (u, w), (v, w))
        lo = _cat(*(pc.if_else(pc.less(x, y), x, y) for x, y in pairs))
        hi = _cat(*(pc.if_else(pc.less(x, y), y, x) for x, y in pairs))
        return pa.table({"a": lo, "b": hi,
                         "tri": _ints(np.ones(len(lo)))})

    zeros = und.map_batches(lambda t: pa.table({
        "a": t["a"], "b": t["b"], "tri": _ints(np.zeros(t.num_rows))}),
        batch_format="pyarrow", zero_copy_batch=True)
    return hash_aggregate(
        closed.map_batches(edge_credits, batch_format="pyarrow",
                           zero_copy_batch=True).union(zeros),
        ["a", "b"], [("tri", "sum")], rename={"tri_sum": "support"},
        num_buckets=num_buckets, exchange="shuffle")


def ktruss(edges: rd.Dataset, *, src: str = "src", dst: str = "dst",
           k: int = 3, max_rounds: int = 30,
           num_buckets: int | None = None,
           driver_threshold: int = 2_000_000,
           driver_wedge_limit: int = 20_000_000) -> rd.Dataset:
    """``(a, b, support)`` — edges of the k-truss of the UNDIRECTED
    simple graph underlying ``edges``: the maximal subgraph in which
    every edge closes at least ``k - 2`` triangles WITHIN the subgraph,
    found by iteratively peeling under-supported edges to the fixed
    point.  ``support`` is the edge's within-truss triangle count
    (>= k - 2 by construction).  KG use: the edge-level analogue of
    :func:`kcore` — trusses isolate the cohesively cross-referenced
    relation clusters that survive even when individual hub nodes
    would keep a core together, the standard community-seed /
    spam-subgraph filter in entity graphs.

    Peeling only ever REMOVES edges, so the fixed point is reached
    when a round removes nothing — detected with a cheap count on the
    round's materialized support table, no extra pass (the surviving
    support rows ARE the answer).  Per round the distributed path
    recomputes per-edge triangle support via :func:`_edge_supports`
    and filters; on the driver path (the handle's measured gate) a
    numpy peel runs the identical iteration, bit-equal because the
    triangle SET is orientation-invariant.  The driver path bails to
    the distributed one when its first round's exact oriented wedge
    count exceeds ``driver_wedge_limit`` (the
    :func:`clustering_coefficients` policy)."""
    if k < 3:
        raise ValueError("k must be >= 3 (k - 2 triangles per edge)")
    h = GraphHandle(edges, src, dst, view="undirected",
                    num_buckets=num_buckets,
                    driver_threshold=driver_threshold)
    empty = h.empty(a=None, b=None, support=pa.int64())
    if h.n_edges == 0:
        return empty
    if h.driver:
        ac, bc, ids = h.codes
        n = max(len(ids), 1)
        alive = np.ones(len(ac), dtype=bool)
        for rnd in range(max_rounds + 1):
            a, b = ac[alive], bc[alive]
            if len(a) == 0:
                return empty
            tri = _triangles_driver(a, b, n, driver_wedge_limit
                                    if rnd == 0 else None)
            if tri is None:
                break  # first-round wedge limit: run distributed
            u, v, w = tri
            pairs = ((u, v), (u, w), (v, w))
            ekey = np.concatenate([np.minimum(x, y) * n + np.maximum(x, y)
                                   for x, y in pairs])
            sup = pd.Series(ekey).value_counts().reindex(
                a * n + b, fill_value=0).to_numpy(dtype=np.int64)
            ok = sup >= k - 2
            if ok.all():
                return rd.from_arrow(pa.table({
                    "a": pa.array(ids[a]).cast(h.id_type),
                    "b": pa.array(ids[b]).cast(h.id_type),
                    "support": pa.array(sup)}))
            alive[np.flatnonzero(alive)[~ok]] = False
        else:
            raise RuntimeError(
                f"ktruss did not stabilize within {max_rounds} peel "
                f"rounds; raise max_rounds")

    cur, prev_n = h.table, h.n_edges
    thr = pa.scalar(k - 2, pa.int64())
    for _ in range(max_rounds):
        keep = _edge_supports(cur, num_buckets=num_buckets).map_batches(
            lambda t: t.filter(pc.greater_equal(t["support"], thr)),
            batch_format="pyarrow").materialize()
        n_nxt = keep.count()
        if n_nxt == 0:
            return empty
        if n_nxt == prev_n:
            return keep.map_batches(lambda t: pa.table({
                "a": t.column("a").cast(h.id_type),
                "b": t.column("b").cast(h.id_type),
                "support": pc.cast(t.column("support"), pa.int64())}),
                batch_format="pyarrow", zero_copy_batch=True)
        cur = keep.select_columns(["a", "b"]).materialize()
        prev_n = n_nxt
    raise RuntimeError(
        f"ktruss did not stabilize within {max_rounds} peel rounds; "
        f"raise max_rounds")


# ------------------------------------------------------------------ k-core
def kcore(edges: rd.Dataset, *, src: str = "src", dst: str = "dst",
          k: int = 2, max_rounds: int = 30,
          num_buckets: int | None = None,
          driver_threshold: int = 2_000_000) -> rd.Dataset:
    """``(node_id, degree)`` — the k-core of the UNDIRECTED simple graph
    underlying ``edges`` (direction, parallel edges and self-loops
    ignored): iteratively peel every node of degree < k until the fixed
    point; ``degree`` is the node's WITHIN-CORE degree (>= k by
    construction).  KG use: dense-core extraction for entity-cluster
    quality tiers — peripheral one-mention entities peel away, the core
    keeps the densely cross-referenced subgraph.

    Peeling only ever REMOVES edges, so the fixed point is reached when
    one round removes nothing — detected with a cheap count on the
    round's materialized edge set, no join.  Per round the distributed
    path runs one endpoint-explode + keyed count (degrees), then two
    partitioned semi-joins filtering edges to surviving endpoints; all
    exchanges move skinny id columns.  On the driver path (the
    handle's measured gate) a vectorized numpy peel runs the identical
    iteration — bit-equal output, no exchange scheduling.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    h = GraphHandle(edges, src, dst, view="undirected",
                    num_buckets=num_buckets,
                    driver_threshold=driver_threshold)
    empty = h.empty(node_id=None, degree=pa.int64())
    if h.n_edges == 0:
        return empty
    if h.driver:
        ac, bc, ids = h.codes
        alive = np.ones(len(ac), dtype=bool)
        for _ in range(max_rounds + 1):
            deg = (np.bincount(ac[alive], minlength=len(ids))
                   + np.bincount(bc[alive], minlength=len(ids)))
            ok = deg >= k
            nxt = alive & ok[ac] & ok[bc]
            if (nxt == alive).all():
                return rd.from_arrow(pa.table({
                    "node_id": pa.array(ids[ok]).cast(h.id_type),
                    "degree": _ints(deg[ok])}))
            alive = nxt
        raise RuntimeError(
            f"kcore did not stabilize within {max_rounds} peel rounds; "
            f"raise max_rounds")

    cur, prev_n = h.table, h.n_edges
    for _ in range(max_rounds):
        deg = hash_aggregate(
            cur.map_batches(
                lambda t: pa.table({"node_id": _cat(t["a"], t["b"])}),
                batch_format="pyarrow", zero_copy_batch=True),
            ["node_id"], [("node_id", "count")],
            rename={"node_id_count": "degree"},
            num_buckets=num_buckets, exchange="shuffle")
        keep = deg.map_batches(
            lambda t: t.filter(pc.greater_equal(
                t["degree"], pa.scalar(k, pa.int64()))),
            batch_format="pyarrow").materialize()
        # two semi-joins: an edge survives iff BOTH endpoints kept
        nxt = cur
        for side in ("a", "b"):
            nxt = bucketed_join(
                nxt, keep, left_key=side, right_key="node_id",
                right_value_cols=["degree"], num_buckets=num_buckets,
            ).select_columns(["a", "b"])
        nxt = nxt.materialize()
        n_nxt = nxt.count()
        if n_nxt == prev_n:
            # fixed point: nothing peeled, so ``keep`` IS the core's
            # (node_id, within-core degree) table
            return keep
        if n_nxt == 0:
            return empty
        cur, prev_n = nxt, n_nxt
    raise RuntimeError(
        f"kcore did not stabilize within {max_rounds} peel rounds; "
        f"raise max_rounds")


# ------------------------------------------ neighbor overlap / Adamic-Adar
_AA_SCALE = 1_000_000_000_000  # 1e12 fixed-point scale for 1/ln(deg)


def neighbor_overlap(edges: rd.Dataset, *, src: str = "src",
                     dst: str = "dst", min_common: int = 1,
                     max_center_degree: int = 10_000,
                     num_buckets: int | None = None,
                     driver_threshold: int = 500_000,
                     driver_wedge_limit: int = 20_000_000) -> rd.Dataset:
    """``(id_a, id_b, common, jaccard_fp)`` — unordered node pairs of
    the UNDIRECTED simple graph sharing at least ``min_common``
    neighbors, with ``common`` = shared-neighbor count and
    ``jaccard_fp = (common * 10^6) // (deg_a + deg_b - common)`` (the
    neighborhood-Jaccard link-prediction score in exact integer fixed
    point — bit-identical under any blocking, SQL-replayable).  KG use:
    entity-MERGE candidate generation — two mentions of the same
    underlying entity co-occur with the same neighbor entities even
    when their surface forms share no text, so high neighborhood
    overlap surfaces merge pairs the string/embedding channels miss.
    Adjacent pairs are included (adjacency and overlap are independent
    signals; callers filter if they want non-edges only).  Scale shape
    and gates: :func:`_neighbor_pairs`.
    """
    return _neighbor_pairs(
        edges, src, dst, score="jaccard_fp", min_common=min_common,
        max_center_degree=max_center_degree, num_buckets=num_buckets,
        driver_threshold=driver_threshold,
        driver_wedge_limit=driver_wedge_limit)


def adamic_adar(edges: rd.Dataset, *, src: str = "src", dst: str = "dst",
                min_common: int = 1, max_center_degree: int = 10_000,
                num_buckets: int | None = None,
                driver_threshold: int = 500_000,
                driver_wedge_limit: int = 20_000_000) -> rd.Dataset:
    """``(id_a, id_b, common, aa_fp)`` — the Adamic–Adar link-prediction
    score over the UNDIRECTED simple graph:
    ``aa_fp = sum over shared neighbors z of floor(1e12 / ln(deg(z)))``
    (int64 fixed point).  Unlike :func:`neighbor_overlap`'s Jaccard,
    shared RARE neighbors dominate the score — exactly the KG
    entity-merge signal (two aliases co-mentioned with one niche method
    outrank two entities that merely share the field's hub concepts).
    The per-center weight is a scalar ``floor(1e12 / ln(deg_c))`` from
    the FULL degree (``deg_c >= 2`` for any wedge center, so ``ln`` is
    positive), summed as exact int64, so the result is bit-identical
    under any blocking and replays in SQL as
    ``CAST(FLOOR(1e12 / LN(CAST(deg AS DOUBLE))) AS BIGINT)`` (np.log
    and DuckDB LN agree bitwise on identical double inputs).  Scale
    shape and gates: :func:`_neighbor_pairs`.
    """
    return _neighbor_pairs(
        edges, src, dst, score="aa_fp", min_common=min_common,
        max_center_degree=max_center_degree, num_buckets=num_buckets,
        driver_threshold=driver_threshold,
        driver_wedge_limit=driver_wedge_limit)


def _neighbor_pairs(edges, src, dst, *, score, min_common,
                    max_center_degree, num_buckets, driver_threshold,
                    driver_wedge_limit) -> rd.Dataset:
    """Shared body of :func:`neighbor_overlap` (``score="jaccard_fp"``)
    and :func:`adamic_adar` (``score="aa_fp"``).

    Scale shape: the wedge expansion through a center node c is
    C(deg(c), 2), so hub nodes explode quadratically — centers with
    degree > ``max_center_degree`` are SKIPPED as wedge centers (their
    own pair scores survive via their other, low-degree co-neighbors)
    and the dropped wedge-center rows are reported loudly via
    ``functions/runstats`` (the LSH-truncation policy); degrees in the
    scores always come from the full graph.  All exchanges move skinny
    id columns: one keyed degree count, a per-center grouped pair
    expansion, one (id_a, id_b) count/sum reduce, and for Jaccard two
    degree joins.  On the driver path (the handle's measured gate) a
    numpy expansion runs the identical arithmetic, doubly gated by the
    exact wedge total computed from degrees BEFORE any expansion;
    weight sums use sort + ``np.add.reduceat`` (a float ``bincount``
    would lose exactness past 2^53)."""
    from .runstats import report_truncation

    if min_common < 1:
        raise ValueError("min_common must be >= 1")
    h = GraphHandle(edges, src, dst, view="undirected",
                    num_buckets=num_buckets,
                    driver_threshold=driver_threshold)
    cols = {"id_a": None, "id_b": None, "common": pa.int64(),
            score: pa.int64()}
    if h.n_edges == 0:
        return h.empty(**cols)
    name = "neighbor_overlap" if score == "jaccard_fp" else "adamic_adar"
    if h.driver:
        ac, bc, ids = h.codes
        n = len(ids)
        deg = np.bincount(ac, minlength=n) + np.bincount(bc, minlength=n)
        cs, ns = np.concatenate([ac, bc]), np.concatenate([bc, ac])
        center_ok = deg[cs] <= max_center_degree
        cs, ns = cs[center_ok], ns[center_ok]
        sizes = np.bincount(cs, minlength=n).astype(np.int64)
        if int((sizes * (sizes - 1) // 2).sum()) <= driver_wedge_limit:
            if not center_ok.all():
                # reported only on the COMMITTED path — a fallthrough
                # would double-count with the distributed report
                report_truncation(f"{name}.hub_center",
                                  dropped=int((~center_ok).sum()))
            return _neighbor_pairs_driver(h, deg, cs, ns, sizes, score,
                                          min_common, cols)

    adj = h.arcs  # (s, d): center, neighbor
    i64 = pa.int64()
    deg = hash_aggregate(
        adj.select_columns(["s"]), ["s"], [("s", "count")],
        rename={"s_count": "deg"},
        num_buckets=num_buckets, exchange="shuffle")
    with_deg = bucketed_join(
        adj, deg, left_key="s", right_key="s", right_value_cols=["deg"],
        num_buckets=num_buckets)
    # drop hub CENTERS before the quadratic expansion (their rows as
    # NEIGHBORS survive — only their role as wedge center is skipped)
    kept = with_deg.map_batches(
        lambda t: t.filter(pc.less_equal(
            t["deg"], pa.scalar(max_center_degree, i64))),
        batch_format="pyarrow").materialize()
    n_dropped = with_deg.count() - kept.count()
    if n_dropped:
        report_truncation(f"{name}.hub_center", dropped=n_dropped)

    def expand(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) < 2:  # schema probe / filtered-empty bucket
            return pd.DataFrame({"id_a": g["d"], "id_b": g["d"],
                                 "w": pd.Series([], dtype="int64")}).iloc[:0]
        # full degree of the wedge center is constant within the group;
        # >= 2 because the group has >= 2 neighbor rows
        w = int(np.floor(_AA_SCALE / np.log(float(g["deg"].iloc[0]))))
        nb = np.sort(g["d"].to_numpy())
        ia, ib = np.triu_indices(len(nb), k=1)
        return pd.DataFrame({"id_a": nb[ia], "id_b": nb[ib],
                             "w": np.full(len(ia), w, dtype=np.int64)})

    pairs = bucketed_group_map(kept, ["s"], expand, min_group_size=2,
                               num_buckets=num_buckets,
                               exchange="shuffle")
    scored = hash_aggregate(
        pairs, ["id_a", "id_b"],
        [("id_a", "count")] + ([("w", "sum")] if score == "aa_fp" else []),
        rename={"id_a_count": "common", "w_sum": "aa_fp"},
        num_buckets=num_buckets, exchange="shuffle",
    ).map_batches(
        lambda t: t.filter(pc.greater_equal(
            t["common"], pa.scalar(min_common, i64))),
        batch_format="pyarrow")
    if score == "aa_fp":
        return scored
    out = scored
    for side in ("a", "b"):
        out = bucketed_join(
            out, deg.map_batches(
                lambda t, _c=f"deg_{side}": t.rename_columns(["s", _c]),
                batch_format="pyarrow", zero_copy_batch=True),
            left_key=f"id_{side}", right_key="s",
            right_value_cols=[f"deg_{side}"], num_buckets=num_buckets)

    def jaccard(t: pa.Table) -> pa.Table:
        common = _np(t.column("common"))
        fp = (common * 1_000_000) // (
            _np(t.column("deg_a")) + _np(t.column("deg_b")) - common)
        return pa.table({"id_a": t.column("id_a"),
                         "id_b": t.column("id_b"),
                         "common": t.column("common"),
                         "jaccard_fp": _ints(fp)})

    return out.map_batches(jaccard, batch_format="pyarrow",
                           zero_copy_batch=True)


def _neighbor_pairs_driver(h, deg, cs, ns, sizes, score, min_common,
                           cols) -> rd.Dataset:
    """Numpy wedge expansion over the gathered, hub-capped symmetric
    adjacency ``(cs, ns)``: every unordered neighbor pair of every
    center, keyed ``x * n + y`` with ``x < y``, then one sorted reduce
    to the pair's common count and exact int64 weight sum."""
    ids = h.codes[2]
    n = len(ids)
    order = np.lexsort((ns, cs))  # by center, neighbors ascending
    cs, ns = cs[order], ns[order]
    starts = np.repeat(np.cumsum(sizes) - sizes, sizes)
    # element at sorted position i pairs with the (s - 1 - local_i)
    # elements after it in its center block
    rep = np.repeat(sizes, sizes) - 1 - (np.arange(len(ns)) - starts)
    first = np.repeat(np.arange(len(ns)), rep)
    cum = np.concatenate([[0], np.cumsum(rep)]).astype(np.int64)
    second = (np.arange(int(cum[-1])) - np.repeat(cum[:-1], rep)
              + first + 1)
    # neighbors are sorted within each block, so x < y already
    key = ns[first] * np.int64(n) + ns[second]
    if len(key) == 0:
        return h.empty(**cols)
    wtab = np.zeros(n, dtype=np.int64)
    multi = deg >= 2  # only wedge centers (deg >= 2) are ever read
    wtab[multi] = np.floor(
        _AA_SCALE / np.log(deg[multi].astype(np.float64))).astype(np.int64)
    order = np.argsort(key, kind="stable")
    ks, ws = key[order], wtab[cs[first]][order]
    bounds = np.flatnonzero(np.concatenate([[True], ks[1:] != ks[:-1]]))
    counts = np.diff(np.concatenate([bounds, [len(ks)]]))
    sums = np.add.reduceat(ws, bounds)  # exact int64 adds
    keep = counts >= min_common
    uniq, counts, sums = ks[bounds][keep], counts[keep], sums[keep]
    xa, xb = uniq // n, uniq % n
    value = (sums if score == "aa_fp" else
             (counts * 1_000_000) // (deg[xa] + deg[xb] - counts))
    return rd.from_arrow(pa.table({
        "id_a": pa.array(ids[xa]).cast(h.id_type),
        "id_b": pa.array(ids[xb]).cast(h.id_type),
        "common": _ints(counts), score: _ints(value)}))


# ------------------------------------------------------------ hash walks
def hash_walks(edges: rd.Dataset, *, src: str = "src", dst: str = "dst",
               seeds: list | None = None, n_auto_seeds: int = 0,
               walk_len: int = 4, num_buckets: int | None = None,
               driver_threshold: int = 2_000_000) -> rd.Dataset:
    """Deterministic hash-derandomized random walks over the undirected
    simple graph — the walk-corpus generator behind DeepWalk/node2vec
    embedding pipelines, with the randomness replaced by a content
    hash so the walks are REPRODUCIBLE and SQL-replayable: at step
    ``t`` the walker at ``cur`` moves to
    ``argmin over neighbors n of md5(cur || '|' || t || '|' || n)``
    (argmin realized as a string MIN over ``md5hex || '|' || n`` — the
    hex prefix has fixed width 32, so the min orders by hash with a
    deterministic neighbor tie-break, and the successor is
    ``substr(min, 34)``).

    Output: ``(seed, step:int64, node_id)`` — one row per visited
    position, step 0 = the seed itself; a walk reaching an isolated
    node simply ends.  Every step is one partitioned frontier-to-
    adjacency ``bucketed_join`` plus one keyed string-min reduce — no
    driver state, walk count bounded by the seed set.  A hub node's
    expansion is its degree (one candidate row per neighbor); cap or
    salt seeds near celebrity nodes the same way ``neighbor_overlap``
    caps wedge centers if walks must start there.  On the driver path
    (the handle's gate, measured on the symmetric adjacency) the
    gathered adjacency replays the identical argmin recurrence — a
    per-step exchange over a frontier of a few rows is pure
    scheduling overhead.

    ``seeds`` gives explicit start nodes; ``n_auto_seeds=k`` instead
    starts from the ``k`` lexicographically-smallest nodes of the
    simple graph (a deterministic set the SQL oracle derives
    identically).
    """
    import hashlib

    if walk_len < 1:
        raise ValueError("walk_len must be >= 1")
    if (seeds is None) == (n_auto_seeds == 0):
        raise ValueError("pass exactly one of seeds / n_auto_seeds")
    h = GraphHandle(edges, src, dst, view="symmetric", loops=False,
                    as_str=True, num_buckets=num_buckets,
                    driver_threshold=driver_threshold)
    empty = h.empty(seed=None, step=pa.int64(), node_id=None)
    if h.n_edges == 0:
        return empty
    adj = h.table  # (s, d): walker, neighbor — both directions
    if seeds is None:
        parts = adj.map_batches(
            lambda t: pa.table({"s": pc.unique(t["s"].combine_chunks())
                                .sort().slice(0, n_auto_seeds)}),
            batch_format="pyarrow", zero_copy_batch=True).take_all()
        seeds = sorted({r["s"] for r in parts})[:n_auto_seeds]
    seeds = [str(s) for s in seeds]
    if not seeds:
        return empty
    if h.driver:
        return _hash_walks_driver(h.df, seeds, walk_len, h.id_type)

    st = pa.string()
    frontier = rd.from_arrow(pa.table({"seed": pa.array(seeds, st),
                                       "cur": pa.array(seeds, st)}))
    out_tables = [pa.table({
        "seed": pa.array(seeds, type=st),
        "step": _ints(np.zeros(len(seeds))),
        "node_id": pa.array(seeds, type=st)})]
    for t_step in range(1, walk_len + 1):
        cand = bucketed_join(frontier, adj, left_key="cur",
                             right_key="s", right_value_cols=["d"],
                             num_buckets=num_buckets)

        def pick(t: pa.Table, _t=t_step) -> pa.Table:
            m = [hashlib.md5(f"{c}|{_t}|{n}".encode()).hexdigest()
                 + "|" + n for c, n in zip(t["cur"].to_pylist(),
                                           t["d"].to_pylist())]
            return pa.table({"seed": t["seed"],
                             "m": pa.array(m, type=st)})

        nxt = hash_aggregate(
            cand.map_batches(pick, batch_format="pyarrow",
                             zero_copy_batch=True),
            ["seed"], [("m", "min")], rename={"m_min": "m"},
            num_buckets=num_buckets)
        frontier = nxt.map_batches(lambda t: pa.table({
            "seed": t["seed"],
            "cur": pc.utf8_slice_codeunits(t["m"], 33)}),
            batch_format="pyarrow", zero_copy_batch=True).materialize()
        step_tbl = pa.concat_tables(
            frontier.iter_batches(batch_format="pyarrow",
                                  batch_size=65536))
        if step_tbl.num_rows == 0:
            break
        out_tables.append(pa.table({
            "seed": step_tbl["seed"],
            "step": _ints(np.full(step_tbl.num_rows, t_step)),
            "node_id": step_tbl["cur"]}))
    out = pa.concat_tables(out_tables)
    return rd.from_arrow(pa.table({
        "seed": out["seed"].cast(h.id_type), "step": out["step"],
        "node_id": out["node_id"].cast(h.id_type)}))


def _hash_walks_driver(df: pd.DataFrame, seeds: list[str], walk_len: int,
                       id_type: pa.DataType) -> rd.Dataset:
    """Pandas/hashlib form of the hash-walk recurrence over the
    driver-gathered symmetric adjacency — the identical
    ``min(md5(cur|t|n) || '|' || n)`` argmin per (seed, step)."""
    import hashlib

    nbrs = {c: sorted(g["d"]) for c, g in df.groupby("s", sort=False)}
    rows = [(s, 0, s) for s in seeds]
    cur = {s: s for s in seeds}
    for t in range(1, walk_len + 1):
        cur = {s: min(hashlib.md5(f"{c}|{t}|{n}".encode()).hexdigest()
                      + "|" + n for n in nbrs[c])[33:]
               for s, c in cur.items() if nbrs.get(c)}
        if not cur:
            break
        rows += [(s, t, n) for s, n in cur.items()]
    return rd.from_arrow(pa.table({
        "seed": pa.array([r[0] for r in rows], pa.string()).cast(id_type),
        "step": _ints([r[1] for r in rows]),
        "node_id": pa.array([r[2] for r in rows],
                            pa.string()).cast(id_type)}))


# ------------------------------------------------- label propagation
def label_propagation(edges: rd.Dataset, *, src: str = "src",
                      dst: str = "dst", n_rounds: int = 4,
                      num_buckets: int | None = None,
                      driver_threshold: int = 2_000_000) -> rd.Dataset:
    """``(node_id, label)`` — deterministic SYNCHRONOUS label
    propagation (community detection) over the undirected simple
    graph: every node starts labeled with its own id; each round every
    node simultaneously adopts the most frequent label among its
    neighbors, ties broken by the LEXICOGRAPHICALLY SMALLEST label.
    Unlike :func:`connected_components` (which converges to one label
    per component), a FIXED ``n_rounds`` of frequency voting splits
    dense regions from their bridges — the community signal KG QA
    reads to spot over-merged entity clusters.

    Determinism contract: the update is synchronous (all nodes read
    round t-1 labels), counts are exact integers, and the tie-break is
    a total order, so the result is bit-identical under any blocking /
    shuffle order and the recurrence unrolls verbatim into SQL window
    CTEs (``ROW_NUMBER() OVER (ORDER BY cnt DESC, label ASC)``).
    Synchronous LPA can oscillate on bipartite structures; a fixed
    round count makes that a well-defined (and replayable) output
    rather than a convergence hazard.

    The vote is not a sum or min of one value, so it keeps its own
    round instead of :meth:`GraphHandle.propagate`: one partitioned
    join (labels into the symmetric arcs on the neighbor key) + one
    ``(node, label)`` keyed count + one per-node vectorized argmax
    inside hash buckets.  On the driver path (the handle's gate) the
    identical numpy vote runs over ``sort=True`` codes, which are
    order-isomorphic to the ids, so the min-code tie-break is the
    min-label tie-break bit-for-bit.
    """
    if n_rounds < 1:
        raise ValueError("n_rounds must be >= 1")
    h = GraphHandle(edges, src, dst, view="undirected",
                    num_buckets=num_buckets,
                    driver_threshold=driver_threshold)
    if h.n_edges == 0:
        return h.empty(node_id=None, label=None)
    if h.driver:
        ac, bc, ids = h.codes
        n = len(ids)
        cs, ns = np.concatenate([ac, bc]), np.concatenate([bc, ac])
        labels = np.arange(n, dtype=np.int64)
        for _ in range(n_rounds):
            uniq, counts = np.unique(cs * np.int64(n) + labels[ns],
                                     return_counts=True)
            c_part, lab_part = uniq // n, uniq % n
            order = np.lexsort((lab_part, -counts, c_part))
            cp, lp = c_part[order], lab_part[order]
            firsts = np.concatenate([[True], cp[1:] != cp[:-1]])
            labels = labels.copy()
            labels[cp[firsts]] = lp[firsts]
        return rd.from_arrow(pa.table({
            "node_id": pa.array(ids).cast(h.id_type),
            "label": pa.array(ids[labels]).cast(h.id_type)}))

    adj = h.arcs
    labels = h.nodes.map_batches(
        lambda t: pa.table({"node_id": t["node_id"],
                            "label": t["node_id"]}),
        batch_format="pyarrow", zero_copy_batch=True).materialize()

    def argmax_label(df: pd.DataFrame) -> pd.DataFrame:
        # max count first, then smallest label — vectorized per bucket
        out = (df.sort_values(["node_id", "cnt", "label"],
                              ascending=[True, False, True])
               .drop_duplicates("node_id"))
        return out[["node_id", "label"]]

    for _ in range(n_rounds):
        joined = bucketed_join(
            adj, labels, left_key="d", right_key="node_id",
            right_value_cols=["label"], num_buckets=num_buckets)
        votes = hash_aggregate(
            joined.select_columns(["s", "label"]), ["s", "label"],
            [("s", "count")], rename={"s_count": "cnt", "s": "node_id"},
            num_buckets=num_buckets, exchange="shuffle")
        labels = bucketed_apply(
            votes, ["node_id"], argmax_label,
            num_buckets=num_buckets, exchange="shuffle")
    return labels


# ----------------------------------------------------------------- SCC
def strongly_connected_components(edges: rd.Dataset, *,
                                  src: str = "src", dst: str = "dst",
                                  max_rounds: int = 30,
                                  max_iters: int = 50,
                                  num_buckets: int | None = None,
                                  driver_threshold: int = 2_000_000
                                  ) -> rd.Dataset:
    """Strongly connected components of the directed simple graph —
    cycle detection over the KG's directed relations (an intervention
    that mitigates a risk that amplifies the intervention is a feedback
    loop entity-QA wants surfaced).

    Output: ``(node_id, scc_id)``, one row per distinct endpoint,
    ``scc_id`` = the minimum node id in the component (singleton nodes
    never appearing in ``edges`` are their own implicit components,
    the ``connected_components`` contract).

    Algorithm (min-label forward/backward peeling — the standard
    trim-free distributed SCC): per round compute ``F(u)`` = minimum
    forward-reachable id and ``B(u)`` = minimum backward-reachable id
    over the ACTIVE subgraph, each by monotone min-label propagation;
    ``F(u) = B(u) = m`` certifies ``m`` is both a descendant and an
    ancestor of ``u``, i.e. ``u ∈ SCC(m)`` — and every member of that
    SCC carries the same certificate, so whole components peel at
    once.  The SCC of the smallest active node is always detected
    (its ``F = B = `` that node), so each round makes progress and the
    round count is bounded by the number of SCCs along any id-chain;
    ``max_rounds`` refuses rather than returning partial labels.  All
    distributed stages are the ``connected_components`` machinery:
    partitioned label joins + keyed min reduces, signature-gated
    convergence, per-iteration block re-bounding; the handle's
    measured gate picks a vectorized numpy peel below it.
    """
    h = GraphHandle(edges, src, dst, num_buckets=num_buckets,
                    driver_threshold=driver_threshold)
    if h.n_edges == 0:
        return h.empty(node_id=None, scc_id=None)
    if h.driver:
        return _scc_driver(h, max_rounds)
    return _scc_distributed(h, max_rounds=max_rounds, max_iters=max_iters)


def _scc_driver(h: GraphHandle, max_rounds: int) -> rd.Dataset:
    """Vectorized numpy F/B min-label peel over the driver-gathered
    distinct edge list.  ``sort=True`` factorize codes are monotone in
    the id ordering, so code minima equal id minima."""
    s, d, nodes = h.codes
    n = len(nodes)
    label = np.full(n, -1, dtype=np.int64)
    active = np.ones(n, dtype=bool)
    base = np.arange(n, dtype=np.int64)

    def min_prop(from_idx, to_idx):
        lab = np.where(active, base, np.int64(n))
        for _ in range(n + 1):
            prev = lab.copy()
            np.minimum.at(lab, to_idx, lab[from_idx])
            if (lab == prev).all():
                return lab
        raise AssertionError("min propagation failed to converge")

    for _ in range(max_rounds):
        if not active.any():
            break
        em = active[s] & active[d]
        ss, dd = s[em], d[em]
        # F flows AGAINST edge direction (u adopts its successor's F);
        # B flows along it
        f = min_prop(dd, ss)
        b = min_prop(ss, dd)
        done = active & (f == b)
        label[done] = f[done]
        active &= ~done
    if active.any():
        raise RuntimeError(
            f"strongly_connected_components did not finish within "
            f"{max_rounds} rounds; raise max_rounds")
    return rd.from_arrow(pa.table({
        "node_id": pa.array(nodes),
        "scc_id": pa.array(nodes[label])}))


def _scc_distributed(h: GraphHandle, *, max_rounds: int,
                     max_iters: int) -> rd.Dataset:
    nb = h.num_buckets
    active, act_edges = h.nodes, h.table
    results: list[rd.Dataset] = []

    def min_prop(join_key: str, emit_key: str) -> rd.Dataset:
        labels = active.map_batches(
            lambda t: pa.table({"node_id": t["node_id"],
                                "component_id": t["node_id"]}),
            batch_format="pyarrow", zero_copy_batch=True).materialize()
        if act_edges.count() == 0:
            # isolated actives: the self labels ARE the fixed point
            return labels
        prev_sig = _labels_sig(labels)
        for _ in range(max_iters):
            prop = bucketed_join(
                act_edges, labels, left_key=join_key,
                right_key="node_id", right_value_cols=["component_id"],
                num_buckets=nb)
            cand = prop.map_batches(
                lambda t: pa.table({"node_id": t[emit_key],
                                    "component_id": t["component_id"]}),
                batch_format="pyarrow", zero_copy_batch=True,
            ).union(labels)
            new_labels = hash_aggregate(
                cand, ["node_id"], [("component_id", "min")],
                rename={"component_id_min": "component_id"},
                num_buckets=nb, exchange="shuffle")
            new_sig = _labels_sig(new_labels)
            if new_sig == prev_sig and _changed_count(
                    new_labels, labels, nb) == 0:
                return new_labels
            labels, prev_sig = new_labels, new_sig
        raise RuntimeError(
            f"SCC min-label pass did not converge within {max_iters} "
            f"iterations; raise max_iters")

    for _ in range(max_rounds):
        if active.count() == 0:
            break
        fb = bucketed_join(
            min_prop("d", "s"),     # F: u adopts its successor's label
            min_prop("s", "d").map_batches(
                lambda t: t.rename_columns(["node_id", "bwd"]),
                batch_format="pyarrow", zero_copy_batch=True),
            left_key="node_id", right_key="node_id",
            right_value_cols=["bwd"], num_buckets=nb)

        def split(done: bool):
            def rows(t: pa.Table) -> pa.Table:
                same = pc.equal(t["component_id"], t["bwd"])
                kept = t.filter(same if done else pc.invert(same))
                return pa.table({"node_id": kept["node_id"],
                                 "scc_id": kept["component_id"]}
                                if done else {"node_id": kept["node_id"]})
            return fb.map_batches(rows, batch_format="pyarrow",
                                  zero_copy_batch=True).materialize()

        results.append(split(True))
        active = split(False)
        if active.count() == 0:
            break
        # prune the edge set to active x active (two inner semi-joins
        # against the deduped active node list)
        for side in ("s", "d"):
            act_edges = bucketed_join(
                act_edges, active, left_key=side, right_key="node_id",
                right_value_cols=[], num_buckets=nb)
    if active.count() != 0:
        raise RuntimeError(
            f"strongly_connected_components did not finish within "
            f"{max_rounds} rounds; raise max_rounds")
    out = results[0]
    for r in results[1:]:
        out = out.union(r)
    return out


# -------------------------------------------------------- co-occurrence PMI
def cooccurrence_pmi(mentions: rd.Dataset, *, doc_col: str = "doc_id",
                     node_col: str = "node_id", top_k: int = 50,
                     num_buckets: int | None = None,
                     driver_threshold: int = 2_000_000) -> rd.Dataset:
    """Pointwise mutual information over document-level entity
    co-occurrence — the statistical edge-weighting / link-candidate
    channel of KG construction: two entities that share documents far
    more often than their marginals predict are related even when no
    extracted triple connects them.

    Input: one row per (document, entity) mention (duplicates collapse
    internally — the handle's directed-distinct view of the
    doc -> entity incidence, whose measured size is the gate).
    Output: the global top-``top_k`` unordered entity pairs by
    ``pmi = ln((N * c_ab) / (c_a * c_b))`` with their doc counts —
    ``(id_a, id_b, c_ab:int64, pmi:float64)``, pmi rounded to 6
    decimals BEFORE the sort (ties break on the pair ids), every
    factor an exact-integer double so the SQL oracle replays the
    ranking bit-for-bit.

    Shape at scale: the only super-linear step is the per-document
    pair expansion — C(k, 2) in the document's DISTINCT entity count,
    which the extraction volume cap (SURVEY §2.5 A6) bounds at the
    source; everything else is keyed counts and two partitioned
    ``bucketed_join``s against the marginal table (never assumed
    broadcastable).  On the driver path the identical op tree runs
    in pandas/numpy (measured 20.9 s -> <1 s at sf0.1).
    """
    h = GraphHandle(mentions, doc_col, node_col, num_buckets=num_buckets,
                    driver_threshold=driver_threshold)
    nid_type = column_type(mentions, node_col)
    empty = h.empty(id_a=nid_type, id_b=nid_type, c_ab=pa.int64(),
                    pmi=pa.float64())
    if h.n_edges == 0:
        return empty
    if h.driver:
        return _pmi_driver(h.df, top_k, nid_type, empty)

    m = h.table  # (s, d): document, entity
    n_docs = hash_aggregate(m.select_columns(["s"]), ["s"],
                            [("s", "count")], num_buckets=num_buckets).count()
    ca = hash_aggregate(m.select_columns(["d"]), ["d"], [("d", "count")],
                        rename={"d_count": "c"},
                        num_buckets=num_buckets)

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        outs_a, outs_b = [], []
        for _, grp in g.groupby("s", sort=False):
            ids = np.sort(grp["d"].to_numpy())
            if len(ids) < 2:
                continue
            iu = np.triu_indices(len(ids), 1)
            outs_a.append(ids[iu[0]])
            outs_b.append(ids[iu[1]])
        if not outs_a:
            return pd.DataFrame({"id_a": pd.Series([], dtype=object),
                                 "id_b": pd.Series([], dtype=object)})
        return pd.DataFrame({"id_a": np.concatenate(outs_a),
                             "id_b": np.concatenate(outs_b)})

    cab = hash_aggregate(
        bucketed_apply(m, ["s"], pairs, num_buckets=num_buckets),
        ["id_a", "id_b"], [("id_a", "count")],
        rename={"id_a_count": "c_ab"}, num_buckets=num_buckets)
    j = cab
    for side, col in (("a", "c_a"), ("b", "c_b")):
        j = bucketed_join(j, ca.map_batches(
            lambda t, _c=col: t.rename_columns(["d", _c]),
            batch_format="pyarrow", zero_copy_batch=True),
            left_key=f"id_{side}", right_key="d",
            right_value_cols=[col], num_buckets=num_buckets)

    def score(t: pa.Table) -> pa.Table:
        pmi = _pmi(n_docs, _np(t["c_ab"]), _np(t["c_a"]), _np(t["c_b"]))
        return pa.table({"id_a": t["id_a"], "id_b": t["id_b"],
                         "c_ab": t["c_ab"],
                         "pmi": pa.array(pmi, type=pa.float64())})

    return (j.map_batches(score, batch_format="pyarrow",
                          zero_copy_batch=True)
            .sort(["pmi", "id_a", "id_b"],
                  descending=[True, False, False])
            .limit(top_k))


def _pmi(n_docs: int, c_ab, c_a, c_b) -> np.ndarray:
    # identical IEEE op tree to the oracle: integer products are exact
    # in int64 and exact as doubles, one division, one ln
    return np.round(np.log((n_docs * c_ab).astype(np.float64)
                           / (c_a * c_b).astype(np.float64)), 6)


def _pmi_driver(df: pd.DataFrame, top_k: int, nid_type: pa.DataType,
                empty: rd.Dataset) -> rd.Dataset:
    """Vectorized pandas/numpy PMI over the driver-gathered deduped
    (doc ``s``, entity ``d``) incidence — the identical op tree as the
    distributed route (integer counts, exact-int-double division, ln,
    round 6, id-tiebroken top-k)."""
    n_docs = df["s"].nunique()
    ca = df["d"].value_counts()
    dcodes, _ = pd.factorize(df["s"], sort=False)
    order = np.argsort(dcodes, kind="stable")
    dcodes = dcodes[order]
    ids = df["d"].to_numpy()[order]
    # per-doc sorted-id pair expansion, numpy only
    outs_a, outs_b = [], []
    starts = np.flatnonzero(np.r_[True, dcodes[1:] != dcodes[:-1]])
    ends = np.r_[starts[1:], len(dcodes)]
    for s, e in zip(starts, ends):
        if e - s < 2:
            continue
        grp = np.sort(ids[s:e])
        iu = np.triu_indices(e - s, 1)
        outs_a.append(grp[iu[0]])
        outs_b.append(grp[iu[1]])
    if not outs_a:
        return empty
    pairs = pd.DataFrame({"id_a": np.concatenate(outs_a),
                          "id_b": np.concatenate(outs_b)})
    cab = (pairs.groupby(["id_a", "id_b"], sort=False)
           .size().rename("c_ab").reset_index())
    c_ab = cab["c_ab"].to_numpy(dtype=np.int64)
    pmi = _pmi(n_docs, c_ab,
               ca.reindex(cab["id_a"]).to_numpy(dtype=np.int64),
               ca.reindex(cab["id_b"]).to_numpy(dtype=np.int64))
    out = cab.assign(pmi=pmi).sort_values(
        ["pmi", "id_a", "id_b"],
        ascending=[False, True, True]).head(top_k)
    return rd.from_arrow(pa.table({
        "id_a": pa.array(out["id_a"]).cast(nid_type),
        "id_b": pa.array(out["id_b"]).cast(nid_type),
        "c_ab": _ints(out["c_ab"]),
        "pmi": pa.array(out["pmi"].to_numpy(), type=pa.float64())}))


# ---------------------------------------------------------------- Luby MIS
def luby_mis(edges: rd.Dataset, *, src: str = "src", dst: str = "dst",
             n_rounds: int = 12, num_buckets: int | None = None,
             driver_threshold: int = 2_000_000) -> rd.Dataset:
    """``(node_id, round)`` — hash-derandomized Luby maximal
    independent set over the UNDIRECTED distinct simple graph
    (self-loops dropped; KG use: pick a set of mutually NON-adjacent
    representative entities — e.g. diversity-sampling survey seeds so
    no two picked concepts are directly related, or a conflict-free
    batch for parallel per-entity updates).

    Luby's round ``r`` gives every undecided node the deterministic
    priority key ``md5(str(v) + '|' + str(r)) + '|' + str(v)`` (the
    repo's md5 idiom — replayable as ``md5(v || '|r') || '|' || v`` in
    SQL; the id suffix makes keys UNIQUE, so comparisons are strict).
    A node joins the set iff its key is smaller than every undecided
    neighbor's; joined nodes' neighbors are removed.  Each round the
    globally-smallest undecided key always joins, so the undecided set
    strictly shrinks and the result is maximal once it empties
    (expected O(log n) rounds; with ``n_rounds`` FIXED the output is
    the well-defined "independent set after n_rounds Luby rounds" on
    both engine paths and in the oracle, maximal whenever the rounds
    sufficed).  ``round`` records when each node joined.

    Scale shape per round: residual edges are recovered by joining the
    static symmetric edge list with the undecided-key table (inner
    joins double as the residual filter), then one keyed min for the
    neighborhood minima, two mark joins, and one left-join anti filter
    — all bucketed exchanges.  On the driver path
    (the handle's gate) the identical recurrence runs in dicts.
    """
    import hashlib

    if n_rounds < 1:
        raise ValueError("n_rounds must be >= 1")
    h = GraphHandle(edges, src, dst, view="symmetric", loops=False,
                    num_buckets=num_buckets,
                    driver_threshold=driver_threshold)
    if h.n_edges == 0:
        return h.empty(node_id=None, round=pa.int64())
    if h.driver:
        return _luby_driver(h.df, n_rounds, id_type=h.id_type)

    e, und = h.table, h.nodes
    mis_rounds: list[rd.Dataset] = []
    for r in range(1, n_rounds + 1):
        if und.count() == 0:
            break

        def with_key(t: pa.Table, _r=r) -> pa.Table:
            ks = [hashlib.md5(f"{v}|{_r}".encode()).hexdigest() + f"|{v}"
                  for v in t.column("node_id").to_pylist()]
            return pa.table({"node_id": t.column("node_id"),
                             "k": pa.array(ks, pa.string())})

        kt = und.map_batches(with_key, batch_format="pyarrow",
                             zero_copy_batch=True).materialize()
        # inner joins against the undecided-key table double as the
        # residual-subgraph filter
        er = e
        for side, col in (("s", "kx"), ("d", "ky")):
            er = bucketed_join(
                er, kt.map_batches(
                    lambda t, _c=col: t.rename_columns(["node_id", _c]),
                    batch_format="pyarrow", zero_copy_batch=True),
                left_key=side, right_key="node_id", right_value_cols=[col],
                num_buckets=num_buckets)
        mn = hash_aggregate(
            kt.union(er.map_batches(
                lambda t: pa.table({"node_id": t.column("s"),
                                    "k": t.column("ky")}),
                batch_format="pyarrow", zero_copy_batch=True)),
            ["node_id"], [("k", "min")], rename={"k_min": "mk"},
            num_buckets=num_buckets, exchange="shuffle")
        mis = bucketed_join(
            kt, mn, left_key="node_id", right_key="node_id",
            right_value_cols=["mk"], num_buckets=num_buckets,
        ).map_batches(
            lambda t: pa.table({"node_id": t.column("node_id").filter(
                pc.equal(t.column("k"), t.column("mk")))}),
            batch_format="pyarrow", zero_copy_batch=True).materialize()
        rem = bucketed_join(
            er, mn, left_key="s", right_key="node_id",
            right_value_cols=["mk"], num_buckets=num_buckets,
        ).map_batches(
            lambda t: pa.table({"node_id": t.column("d").filter(
                pc.equal(t.column("kx"), t.column("mk")))}),
            batch_format="pyarrow", zero_copy_batch=True)
        decided = hash_aggregate(
            mis.union(rem), ["node_id"], [("node_id", "count")],
            num_buckets=num_buckets, exchange="shuffle",
        ).select_columns(["node_id"]).map_batches(
            lambda t: t.append_column(
                "f", pa.array(np.ones(t.num_rows, np.int8))),
            batch_format="pyarrow", zero_copy_batch=True)
        und = bucketed_join(
            und, decided, left_key="node_id", right_key="node_id",
            right_value_cols=["f"], how="left",
            num_buckets=num_buckets,
        ).map_batches(
            lambda t: pa.table({"node_id": t.column("node_id").filter(
                pc.is_null(t.column("f")))}),
            batch_format="pyarrow", zero_copy_batch=True).materialize()
        mis_rounds.append(mis.map_batches(
            lambda t, _r=r: t.append_column(
                "round", _ints(np.full(t.num_rows, _r))),
            batch_format="pyarrow", zero_copy_batch=True).materialize())

    out = mis_rounds[0]
    for m in mis_rounds[1:]:
        out = out.union(m)
    return out


def _luby_driver(df: pd.DataFrame, n_rounds: int, *,
                 id_type: pa.DataType) -> rd.Dataset:
    """Dict-based form of the identical keyed recurrence over the
    (already symmetrized, distinct, driver-gathered) edge list."""
    import hashlib

    adj: dict = {}
    for a, b in zip(df["s"], df["d"]):
        adj.setdefault(a, set()).add(b)
    und = set(adj)
    picked: list = []
    rounds: list[int] = []
    for r in range(1, n_rounds + 1):
        if not und:
            break
        key = {v: hashlib.md5(f"{v}|{r}".encode()).hexdigest() + f"|{v}"
               for v in und}
        mis = [v for v in und
               if all(key[v] < key[n] for n in adj[v] if n in und)]
        rem = {n for v in mis for n in adj[v] if n in und}
        picked.extend(mis)
        rounds.extend([r] * len(mis))
        und -= set(mis) | rem
    return rd.from_arrow(pa.table({
        "node_id": pa.array(picked).cast(id_type),
        "round": pa.array(rounds, pa.int64())}))


# ---------------------------------------------------- shortest-path counting
def bfs_path_counts(edges: rd.Dataset, *, src: str = "src",
                    dst: str = "dst", seeds: list,
                    n_rounds: int = 6,
                    num_buckets: int | None = None,
                    driver_threshold: int = 2_000_000) -> rd.Dataset:
    """``(pivot, node_id, dist, sigma)`` — per seed pivot, the BFS hop
    distance AND the NUMBER OF DISTINCT SHORTEST PATHS ``sigma`` from
    the pivot, over the UNDIRECTED distinct simple graph (the
    integer-exact forward pass of Brandes' betweenness: path counts
    are the evidence-multiplicity signal — how many independent
    shortest claim chains connect a pivot entity to each other
    entity).

    The recurrence is a synchronous Jacobi iteration on the
    (min, sum-over-argmin) semiring, recomputed FROM NEIGHBOR STATE
    each round rather than accumulated::

        s_0            = {(p, p): (0, 1)}
        cand_t(v)      = {(dist_{t-1}(u) + 1, sigma_{t-1}(u)) : u ~ v}
                         ∪ ({(0, 1)} if v = p)
        s_t(v)         = (min dist, SUM sigma over the argmin)

    After round ``t`` every node at true distance <= t is exact and
    STABLE (its argmin predecessors settled one round earlier and never
    change again), so with ``n_rounds`` FIXED the output is the
    well-defined "counts over paths of <= n_rounds hops" — bit-equal on
    both engine paths and in the unrolled-CTE oracle, because min and
    sum over int64 are order-independent.  Only reached nodes appear;
    seeds resolve through the handle (missing seeds contribute
    nothing; raises if NO seed is a graph node).  Caller contract: the
    shortest-path count within ``n_rounds`` hops must fit int64 (sigma
    grows multiplicatively with graph fan-out).

    The state is keyed by (pivot, node) and the combine is an argmin
    with a sum over ties, so this keeps its own round instead of
    :meth:`GraphHandle.propagate`: one partitioned skinny join (states
    into the symmetric edge list) + one node-bucketed argmin/sum
    reduce, or the identical vectorized iteration on the driver path
    (the handle's gate)."""
    if not seeds:
        raise ValueError("seeds must be non-empty")
    if n_rounds < 1:
        raise ValueError("n_rounds must be >= 1")
    h = GraphHandle(edges, src, dst, view="symmetric", loops=False,
                    num_buckets=num_buckets,
                    driver_threshold=driver_threshold)
    if h.n_edges == 0:
        return h.empty(pivot=None, node_id=None, dist=pa.int64(),
                       sigma=pa.int64())
    mask, _ = h.seed_mask(seeds)
    if h.driver:
        return _path_counts_driver(h, mask, n_rounds)
    return _path_counts_distributed(h, mask, n_rounds)


def _path_counts_driver(h: GraphHandle, mask: np.ndarray,
                        n_rounds: int) -> rd.Dataset:
    """Vectorized numpy form of the identical Jacobi iteration over
    the (already symmetrized, distinct, driver-gathered) edges."""
    sc, dc, nodes = h.codes
    INF = np.int64(2**62)
    out: dict[str, list] = {"pivot": [], "node_id": [], "dist": [],
                            "sigma": []}
    for pi in np.flatnonzero(mask):
        dist = np.full(len(nodes), INF, dtype=np.int64)
        sigma = np.zeros(len(nodes), dtype=np.int64)
        dist[pi], sigma[pi] = 0, 1
        for _ in range(n_rounds):
            nd = np.full(len(nodes), INF, dtype=np.int64)
            valid = dist[sc] < INF
            np.minimum.at(nd, dc[valid], dist[sc][valid] + 1)
            nd[pi] = 0
            ns = np.zeros(len(nodes), dtype=np.int64)
            am = valid & (dist[sc] + 1 == nd[dc])
            np.add.at(ns, dc[am], sigma[sc][am])
            # the seed's only dist-0 candidate is its base (0, 1):
            # neighbor candidates are all >= 1 hop
            ns[pi] = 1
            dist, sigma = nd, ns
        reached = dist < INF
        out["pivot"].extend([nodes[pi]] * int(reached.sum()))
        out["node_id"].extend(nodes[reached].tolist())
        out["dist"].extend(dist[reached].tolist())
        out["sigma"].extend(sigma[reached].tolist())
    return rd.from_arrow(pa.table({
        "pivot": pa.array(out["pivot"]).cast(h.id_type),
        "node_id": pa.array(out["node_id"]).cast(h.id_type),
        "dist": pa.array(out["dist"], pa.int64()),
        "sigma": pa.array(out["sigma"], pa.int64())}))


def _path_counts_distributed(h: GraphHandle, seed_arr: pa.Array,
                             n_rounds: int) -> rd.Dataset:
    """Bounded-round distributed Jacobi iteration; the state dataset
    holds ONLY reached (pivot, node) pairs — no infinity sentinels."""
    nb = h.num_buckets
    n = len(seed_arr)
    base = pa.table({"node_id": seed_arr, "pivot": seed_arr,
                     "dist": _ints(np.zeros(n)),
                     "sigma": _ints(np.ones(n))})
    state = rd.from_arrow(base)

    def reduce_states(df: pd.DataFrame) -> pd.DataFrame:
        md = df.groupby(["pivot", "node_id"], sort=False)["dist"] \
            .transform("min")
        keep = df[df["dist"] == md]
        agg = keep.groupby(["pivot", "node_id", "dist"],
                           sort=False)["sigma"].sum().reset_index()
        return agg[["node_id", "pivot", "dist", "sigma"]]

    for _ in range(n_rounds):
        joined = bucketed_join(
            h.table, state, left_key="s", right_key="node_id",
            right_value_cols=["pivot", "dist", "sigma"], num_buckets=nb)
        cands = joined.map_batches(lambda t: pa.table({
            "node_id": t.column("d"), "pivot": t.column("pivot"),
            "dist": pc.add(t.column("dist"), pa.scalar(1, pa.int64())),
            "sigma": t.column("sigma")}),
            batch_format="pyarrow", zero_copy_batch=True,
        ).union(rd.from_arrow(base))
        state = bucketed_apply(cands, ["pivot", "node_id"], reduce_states,
                               num_buckets=nb, exchange="shuffle")
    return state.map_batches(
        lambda t: t.select(["pivot", "node_id", "dist", "sigma"]),
        batch_format="pyarrow", zero_copy_batch=True)


# -------------------------------------------------------- greedy matching
def greedy_matching(edges: rd.Dataset, *, src: str = "src",
                    dst: str = "dst", n_rounds: int = 12,
                    num_buckets: int | None = None,
                    driver_threshold: int = 2_000_000) -> rd.Dataset:
    """``(a, b, match_round)`` — hash-derandomized greedy MAXIMAL
    MATCHING over the undirected distinct simple graph: a set of edges
    no two of which share an endpoint (KG use: pairing entities for
    pairwise merge adjudication, or carving a relation set into
    disjoint work units so parallel per-pair updates never conflict —
    the edge-analogue of :func:`luby_mis`).

    Round ``r`` gives every residual edge the deterministic priority
    key ``md5(str(a) + '|' + str(b) + '|' + str(r)) + '|a|b'`` (unique,
    so comparisons are strict; SQL replays it as
    ``md5(a || '|' || b || '|r') || '|' || a || '|' || b``).  An edge
    matches iff its key is the MINIMUM among all residual edges at
    BOTH endpoints (the locally-lightest-edge rule of parallel greedy
    matching, cf. Israeli-Itai); matched endpoints leave the graph.
    The globally-smallest residual key always matches, so the residual
    set strictly shrinks; with ``n_rounds`` FIXED the output is the
    well-defined "matching after n rounds" on both engine paths and in
    the unrolled-CTE oracle (maximal whenever the rounds sufficed —
    expected O(log m)).

    Scale shape per round: one edge-key map, one keyed min over the
    exploded (endpoint, key) rows, two mark joins against the
    per-node minima, and two left-join anti filters to drop edges
    touching matched nodes — all skinny bucketed exchanges.  On the
    driver path (the handle's gate)
    the identical recurrence runs in dicts."""
    import hashlib

    if n_rounds < 1:
        raise ValueError("n_rounds must be >= 1")
    h = GraphHandle(edges, src, dst, view="undirected",
                    num_buckets=num_buckets,
                    driver_threshold=driver_threshold)
    empty = h.empty(a=None, b=None, match_round=pa.int64())
    if h.n_edges == 0:
        return empty
    if h.driver:
        return _matching_driver(h.df, n_rounds, id_type=h.id_type)

    st = pa.string()
    cur = h.table
    matched_rounds: list[rd.Dataset] = []
    for r in range(1, n_rounds + 1):
        if cur.count() == 0:
            break

        def with_key(t: pa.Table, _r=r) -> pa.Table:
            ks = [hashlib.md5(f"{a}|{b}|{_r}".encode()).hexdigest()
                  + f"|{a}|{b}" for a, b in zip(t.column("a").to_pylist(),
                                                t.column("b").to_pylist())]
            return pa.table({"a": t.column("a"), "b": t.column("b"),
                             "k": pa.array(ks, st)})

        ek = cur.map_batches(with_key, batch_format="pyarrow",
                             zero_copy_batch=True).materialize()
        mn = hash_aggregate(
            ek.map_batches(lambda t: pa.table({
                "node_id": _cat(t.column("a"), t.column("b")),
                "k": _cat(t.column("k"), t.column("k"))}),
                batch_format="pyarrow", zero_copy_batch=True),
            ["node_id"], [("k", "min")], rename={"k_min": "mk"},
            num_buckets=num_buckets, exchange="shuffle")
        j = ek
        for side in ("a", "b"):
            j = bucketed_join(
                j, mn.map_batches(
                    lambda t, _c=f"mk{side}": t.rename_columns(
                        ["node_id", _c]),
                    batch_format="pyarrow", zero_copy_batch=True),
                left_key=side, right_key="node_id",
                right_value_cols=[f"mk{side}"], num_buckets=num_buckets)

        def winners(t: pa.Table) -> pa.Table:
            won = pc.and_(pc.equal(t.column("k"), t.column("mka")),
                          pc.equal(t.column("k"), t.column("mkb")))
            return pa.table({"a": t.column("a").filter(won),
                             "b": t.column("b").filter(won)})

        m = j.map_batches(winners, batch_format="pyarrow",
                          zero_copy_batch=True).materialize()
        if m.count() == 0:
            # no edge is bilocally minimal only when the residual is
            # empty, so this is unreachable; guard keeps rounds total
            break
        matched_rounds.append(m.map_batches(
            lambda t, _r=r: t.append_column(
                "match_round", _ints(np.full(t.num_rows, _r))),
            batch_format="pyarrow", zero_copy_batch=True).materialize())
        mv = hash_aggregate(
            m.map_batches(
                lambda t: pa.table({"node_id": _cat(t.column("a"),
                                                    t.column("b"))}),
                batch_format="pyarrow", zero_copy_batch=True),
            ["node_id"], [("node_id", "count")],
            num_buckets=num_buckets, exchange="shuffle",
        ).select_columns(["node_id"]).map_batches(
            lambda t: t.append_column(
                "f", pa.array(np.ones(t.num_rows, np.int8))),
            batch_format="pyarrow", zero_copy_batch=True).materialize()
        for side in ("a", "b"):
            cur = bucketed_join(
                cur, mv, left_key=side, right_key="node_id",
                right_value_cols=["f"], how="left",
                num_buckets=num_buckets).map_batches(
                lambda t: pa.table({
                    "a": t.column("a").filter(pc.is_null(t.column("f"))),
                    "b": t.column("b").filter(pc.is_null(t.column("f")))}),
                batch_format="pyarrow", zero_copy_batch=True)
        cur = cur.materialize()

    if not matched_rounds:
        return empty
    out = matched_rounds[0]
    for m in matched_rounds[1:]:
        out = out.union(m)
    return out


def _matching_driver(df: pd.DataFrame, n_rounds: int, *,
                     id_type: pa.DataType) -> rd.Dataset:
    """Dict-based form of the identical keyed recurrence over the
    (already canonical ``a < b`` distinct, driver-gathered) edges."""
    import hashlib

    residual = list(zip(df["a"], df["b"]))
    out: list[tuple] = []
    for r in range(1, n_rounds + 1):
        if not residual:
            break
        key = {(a, b): hashlib.md5(f"{a}|{b}|{r}".encode()).hexdigest()
               + f"|{a}|{b}" for a, b in residual}
        mk: dict = {}
        for (a, b), k in key.items():
            mk[a] = min(mk.get(a, k), k)
            mk[b] = min(mk.get(b, k), k)
        matched = [(a, b) for (a, b), k in key.items()
                   if mk[a] == k and mk[b] == k]
        gone = {v for ab in matched for v in ab}
        out += [(a, b, r) for a, b in matched]
        residual = [(a, b) for a, b in residual
                    if a not in gone and b not in gone]
    return rd.from_arrow(pa.table({
        "a": pa.array([x[0] for x in out], type=id_type),
        "b": pa.array([x[1] for x in out], type=id_type),
        "match_round": pa.array([x[2] for x in out], pa.int64())}))


# ------------------------------------------------------- DAG topological levels
def dag_levels(edges: rd.Dataset, *, src: str = "src", dst: str = "dst",
               max_rounds: int = 200,
               num_buckets: int | None = None,
               driver_threshold: int = 2_000_000) -> rd.Dataset:
    """``(node_id, level)`` — longest-path depth of every node in a
    DAG (level 0 = no incoming edges): the topological stratification
    that schedules dependency graphs and stratifies a condensation DAG
    into causal tiers.  Max-plus relaxation::

        level(v) = max(level(v), max_{u -> v} level(u) + 1)

    iterated to a fixpoint.  Levels are monotone nondecreasing
    integers bounded by the DAG depth, so the keyed max-reduce is
    shuffle-order-independent and the fixpoint is exact; convergence
    is detected by the (strictly monotone under change) level SUM.  A
    CYCLE never converges — the level sum grows every round — so
    hitting ``max_rounds`` raises instead of returning wrong depths,
    which makes this double as a cycle detector.  Self-loops are
    rejected up front for the same reason.

    Scale shape per round: one partitioned hash join (levels into the
    edge table on ``src``) + one keyed max + one scalar sum — the
    pagerank exchange pattern (a max combine, so it keeps its own
    round).  On the driver path (the handle's gate) a numpy relaxation
    runs the identical recurrence.
    """
    h = GraphHandle(edges, src, dst, num_buckets=num_buckets,
                    driver_threshold=driver_threshold)
    if h.n_edges == 0:
        return h.empty(node_id=None, level=pa.int64())
    n_self = h.table.map_batches(
        lambda t: t.filter(pc.equal(t["s"], t["d"])),
        batch_format="pyarrow").count()
    if n_self:
        raise ValueError(f"dag_levels: {n_self} self-loop(s) — not a DAG")
    cycle = RuntimeError(
        f"dag_levels did not converge within {max_rounds} rounds — "
        f"the input contains a directed cycle")

    if h.driver:
        ca, cb, nodes = h.codes
        lev = np.zeros(len(nodes), dtype=np.int64)
        for _ in range(min(max_rounds, len(nodes) + 1)):
            nxt = lev.copy()
            np.maximum.at(nxt, cb, lev[ca] + 1)
            if (nxt == lev).all():
                return rd.from_arrow(pa.table({
                    "node_id": pa.array(nodes, type=h.id_type),
                    "level": pa.array(lev, type=pa.int64())}))
            lev = nxt
        raise cycle

    levels = h.nodes.map_batches(
        lambda t: t.append_column("lev", _ints(np.zeros(t.num_rows))),
        batch_format="pyarrow", zero_copy_batch=True).materialize()
    prev_sum = 0
    for _ in range(max_rounds):
        joined = bucketed_join(
            h.table, levels, left_key="s", right_key="node_id",
            right_value_cols=["lev"], num_buckets=num_buckets)
        cand = joined.map_batches(lambda t: pa.table({
            "node_id": t["d"],
            "lev": pc.add(pc.cast(t["lev"], pa.int64()),
                          pa.scalar(1, pa.int64()))}),
            batch_format="pyarrow").union(levels)
        levels = hash_aggregate(
            cand, ["node_id"], [("lev", "max")], rename={"lev_max": "lev"},
            num_buckets=num_buckets, exchange="shuffle")
        cur_sum = int(levels.sum("lev") or 0)
        if cur_sum == prev_sum:
            return levels.map_batches(
                lambda t: t.rename_columns(["node_id", "level"]),
                batch_format="pyarrow", zero_copy_batch=True)
        prev_sum = cur_sum
    raise cycle


# --------------------------------------------------- Boruvka spanning forest
def minimum_spanning_forest(edges: rd.Dataset, *, src: str = "src",
                            dst: str = "dst", max_rounds: int = 40,
                            num_buckets: int | None = None,
                            driver_threshold: int = 2_000_000
                            ) -> rd.Dataset:
    """``(a, b, w)`` — the UNIQUE minimum spanning forest of the
    undirected distinct simple graph under the deterministic edge
    weight ``w = md5(enc(a,b)) + '|' + enc(a,b)`` with the
    length-prefixed injective encoding ``enc(a,b) =
    f"{len(a)}:{a}|{len(b)}:{b}"`` (the repo's md5 priority idiom
    made collision-free for ids containing the separator: every
    weight is distinct, so the MSF is unique and ANY correct algorithm — the driver Kruskal, the
    distributed Boruvka, a test-side reference — must return the
    identical edge set).  KG use: a skeleton connecting every entity
    cluster with the fewest, most-deterministic relations (dedup
    backbone / visualization spine / cheapest-merge plan), the
    weighted generalization of :func:`connected_components`.

    Scale shape (Boruvka): each round attaches current component
    labels to both endpoints (two bucketed joins), keeps the
    cross-component residual, takes one keyed MIN per component over
    the exploded (component, weight) rows, marks the per-component
    winners (two more bucketed joins), then contracts by running
    :func:`connected_components` over the CHOSEN edge pairs — a graph
    whose size is bounded by the component count, not the edge count
    (and whose own measured driver gate keeps late tiny rounds off
    the cluster).  Components with any outgoing edge at least halve
    per round, so rounds are O(log n); an unconverged exit raises
    rather than returning a partial forest.  On the driver path (the
    handle's gate) a Kruskal over the identical weights runs
    instead."""
    import hashlib

    h = GraphHandle(edges, src, dst, view="undirected",
                    num_buckets=num_buckets,
                    driver_threshold=driver_threshold)
    empty = h.empty(a=None, b=None, w=pa.string())
    if h.n_edges == 0:
        return empty

    def with_w(t: pa.Table) -> pa.Table:
        # length-prefixed encoding: ids containing the separator
        # cannot collide (("x|y","z") vs ("x","y|z") differ), so
        # weights stay DISTINCT and the MSF unique — the property the
        # Kruskal/Boruvka gate equality rests on
        keys = [f"{len(str(a))}:{a}|{len(str(b))}:{b}" for a, b in
                zip(t.column("a").to_pylist(), t.column("b").to_pylist())]
        ws = [hashlib.md5(k.encode()).hexdigest() + "|" + k for k in keys]
        return pa.table({"a": t.column("a"), "b": t.column("b"),
                         "w": pa.array(ws, pa.string())})

    ew = h.table.map_batches(with_w, batch_format="pyarrow",
                             zero_copy_batch=True).materialize()
    if h.driver:
        return _msf_driver(ew, id_type=h.id_type)

    id_type = h.id_type
    # init: every endpoint its own component
    labels = h.nodes.map_batches(
        lambda t: pa.table({"node_id": t["node_id"],
                            "component_id": t["node_id"]}),
        batch_format="pyarrow", zero_copy_batch=True).materialize()
    chosen_rounds: list[rd.Dataset] = []
    residual = ew
    for _ in range(max_rounds):
        # attach both endpoint labels (la, lb); drop intra-component
        j = residual
        for side in ("a", "b"):
            j = bucketed_join(
                j, labels.map_batches(
                    lambda t, _c=f"l{side}": t.rename_columns(
                        ["node_id", _c]),
                    batch_format="pyarrow", zero_copy_batch=True),
                left_key=side, right_key="node_id",
                right_value_cols=[f"l{side}"], num_buckets=num_buckets)
        cross = j.map_batches(
            lambda t: t.filter(pc.invert(pc.equal(t.column("la"),
                                                  t.column("lb")))),
            batch_format="pyarrow", zero_copy_batch=True).materialize()
        if cross.count() == 0:
            forest = chosen_rounds[0] if chosen_rounds else empty
            for m in chosen_rounds[1:]:
                forest = forest.union(m)
            return forest

        # keyed MIN weight per component over exploded endpoints
        mc = hash_aggregate(
            cross.map_batches(lambda t: pa.table({
                "comp": _cat(t.column("la"), t.column("lb")),
                "w": _cat(t.column("w"), t.column("w"))}),
                batch_format="pyarrow", zero_copy_batch=True),
            ["comp"], [("w", "min")], rename={"w_min": "mw"},
            num_buckets=num_buckets, exchange="shuffle")
        k = cross
        for side in ("a", "b"):
            k = bucketed_join(
                k, mc.map_batches(
                    lambda t, _c=f"mw{side}": t.rename_columns(
                        ["comp", _c]),
                    batch_format="pyarrow", zero_copy_batch=True),
                left_key=f"l{side}", right_key="comp",
                right_value_cols=[f"mw{side}"], num_buckets=num_buckets)
        chosen = k.map_batches(
            lambda t: t.filter(pc.or_(
                pc.equal(t.column("w"), t.column("mwa")),
                pc.equal(t.column("w"), t.column("mwb")))),
            batch_format="pyarrow", zero_copy_batch=True).materialize()
        chosen_rounds.append(
            chosen.select_columns(["a", "b", "w"]).materialize())
        # intra-component edges never become cross-component again:
        # next round scans only this round's residual
        residual = cross.select_columns(["a", "b", "w"]).materialize()

        # contract: CC over the chosen (la, lb) component pairs —
        # bounded by the component count; its own gate handles size
        contract = connected_components(
            chosen.select_columns(["la", "lb"]),
            id_a="la", id_b="lb", num_buckets=num_buckets).map_batches(
            lambda t: t.rename_columns(["node_id", "new_comp"]),
            batch_format="pyarrow", zero_copy_batch=True)
        labels = bucketed_join(
            labels, contract, left_key="component_id",
            right_key="node_id", right_value_cols=["new_comp"],
            how="left", num_buckets=num_buckets,
        ).map_batches(lambda t: pa.table({
            "node_id": t.column("node_id"),
            "component_id": pc.coalesce(t.column("new_comp").cast(id_type),
                                        t.column("component_id"))}),
            batch_format="pyarrow", zero_copy_batch=True).materialize()
    raise RuntimeError(
        f"minimum_spanning_forest did not converge within "
        f"{max_rounds} Boruvka rounds — raise max_rounds")


def _msf_driver(ew: rd.Dataset, *, id_type: pa.DataType) -> rd.Dataset:
    """Kruskal over the identical md5 weights (driver fast path —
    the unique-MSF theorem makes it bit-equal to the Boruvka path)."""
    df = ew.to_pandas().sort_values("w", kind="mergesort")
    parent: dict = {}

    def find(x):
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    keep = np.zeros(len(df), np.bool_)
    for i, (a, b) in enumerate(zip(df["a"].to_numpy(),
                                   df["b"].to_numpy())):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
            keep[i] = True
    out = df[keep]
    return rd.from_arrow(pa.table({
        "a": pa.array(out["a"].tolist(), type=id_type),
        "b": pa.array(out["b"].tolist(), type=id_type),
        "w": pa.array(out["w"].tolist(), type=pa.string())}))
