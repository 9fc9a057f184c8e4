"""Graph analytics over an edge Dataset: one handle, one placement, one
round primitive.

Every algorithm here is ONE body written against a :class:`GraphHandle`
and the bucketed primitives of ``functions/agg.py`` (``bucketed_join``,
``hash_aggregate``, ``bucketed_apply``), which take a Ray Dataset or an
in-memory ``pa.Table`` -- the table being the one-bucket case of the
same exchange, run in-process.  :func:`run_graph` places the body once,
from the MEASURED row count of the projected edge input (doubled for
the symmetric view) against ``_LOCAL_EDGE_LIMIT``:

* at or below it, ONE Ray task receives the input's block refs, builds
  the view and runs the whole body over Arrow tables, returning one
  Arrow ref -- no driver gather, no ``ray.put`` (the placement of the
  graph build, canonicalization and near-dup);
* above it, the same body runs over Datasets: every stage is a bucketed
  exchange over the native ids, a Pregel superstep (Malewicz et al.,
  SIGMOD 2010) over hash-partitioned edges (GraphX, OSDI 2014).

Errors raised in the task (the int64 bound refusals' ``ValueError``,
the non-convergence ``RuntimeError``) keep their exception types.  The
wedge family (triangles, clustering, k-truss, neighbor overlap /
Adamic-Adar) checks its exact oriented-wedge count, known from degrees
before any expansion, against ``_LOCAL_WEDGE_LIMIT`` inside the task
and hands a graph above it to the bucketed body.

The handle owns what each algorithm would otherwise restate: the edge
VIEW (directed-distinct, symmetric, undirected ``a < b`` or the raw
pair list; self-loops kept or dropped; an optional weight reduced by
sum or min), the input id type, typed empties, seed resolution and the
documented int64 caller bounds, checked from measured maxima.

On top sits :meth:`GraphHandle.propagate`, one superstep with
``combine`` in {sum, min, max}: the state joins the arcs, the messages
union every node's own row, and one keyed reduce combines them.  The
own row carries the node's previous value into the same bucket, so the
reduce also marks the nodes whose value changed: fixed-point mode stops
at the first round that changes nothing and refuses at the round cap
instead of returning unconverged labels.  Integer sums, mins, maxes and
floor divisions over nonnegative int64 are associative and exact, so
both placements are bit-identical under any blocking or summation
order and unroll into DuckDB integer SQL for the oracles.
"""

from __future__ import annotations

import builtins
import functools
import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from .agg import bucketed_apply, bucketed_join, column_type, hash_aggregate

#: projected input edge rows at or below which one Ray task runs the
#: body (the symmetric view counts its rows twice).  Measured with
#: random int64 graphs (8 edges per node), 4-CPU local Ray on a 15 GB
#: Xeon host whose ``nproc`` reports 1, one run per cell: wall of the
#: one task / of the forced-bucketed body in s, and the task worker's
#: peak RSS (VmHWM, 170 MB idle) in MB:
#:
#:   edges   pagerank (5 rounds)   kcore (k=2)        task RSS pr / kc
#:   100k    0.45 /  2.95          0.41 / 0.83        217 / 209
#:   500k    1.40 /  3.71          0.89 / 1.12        324 / 297
#:   1M      3.46 /  4.44          2.28 / 1.98        415 / 371
#:   2M      5.57 /  5.53          6.57 / 3.03        656 / 531
#:   4M     12.01 / 10.47          7.20 / 3.14       1071 / 854
#:
#: The task wins below 1M; kcore crosses between 500k and 1M and
#: pagerank at about 2M, so the limit sits at 1M (~0.4 GB task peak).
_LOCAL_EDGE_LIMIT = 1_000_000
#: exact wedges at or below which the wedge family expands in the one
#: task (a wedge row is three ids and a degree); the former driver
#: path's wedge bound, kept as is: no run here came near it
_LOCAL_WEDGE_LIMIT = 20_000_000


class _Bucketed(Exception):
    """Raised in the one task when the wedge guard refuses the graph."""


# --------------------------------------------- one body, two placements
def _map(x, fn):
    """The Arrow kernel ``fn`` on a table, or on every Dataset block."""
    if isinstance(x, pa.Table):
        return fn(x)
    return x.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def _select(x, cols: list[str]):
    return x.select(cols) if isinstance(x, pa.Table) \
        else x.select_columns(cols)


def _mat(x):
    return x if isinstance(x, pa.Table) else x.materialize()


def _rows(x) -> int:
    return x.num_rows if isinstance(x, pa.Table) else x.count()


def _union(xs: list):
    if isinstance(xs[0], pa.Table):
        return pa.concat_tables(xs, promote_options="permissive")
    return xs[0].union(*xs[1:]) if len(xs) > 1 else xs[0]


@ray.remote
def _block_stat(block: pa.Table, col: str, fn: str):
    return getattr(pc, fn)(block[col]).as_py() if block.num_rows else None


def _stat(x, col: str, fn: str) -> int:
    """``fn`` in {min, max, sum} of an int column, 0 when empty: one
    scalar per block (a task each on a Dataset), combined here."""
    vals = ([getattr(pc, fn)(x[col]).as_py()] if isinstance(x, pa.Table)
            else ray.get([_block_stat.remote(b, col, fn)
                          for b in x.materialize().to_arrow_refs()]))
    vals = [v for v in vals if v is not None]
    return int(getattr(builtins, fn)(vals)) if vals else 0


def _top(x, order: list[tuple[str, str]], k: int):
    """The first ``k`` rows in ``order`` (Arrow sort keys)."""
    if isinstance(x, pa.Table):
        return x.sort_by(order).slice(0, k)
    return x.sort([c for c, _ in order],
                  descending=[o == "descending" for _, o in order]).limit(k)


def _table(refs: list, schema: pa.Schema) -> pa.Table:
    tables = [t.select(schema.names) for t in ray.get(refs) if t.num_rows]
    return (pa.concat_tables(tables, promote_options="permissive")
            if tables else schema.empty_table())


def _schema(ds: rd.Dataset) -> pa.Schema:
    return pa.schema([(c, column_type(ds, c)) for c in ds.schema().names])


@ray.remote(num_returns=2)
def _one_task(body, spec: dict, schema: pa.Schema, refs: list,
              extra: dict):
    h = GraphHandle(_table(refs, schema), **spec)
    try:
        out = body(h, **{k: _table(r, s) for k, (r, s) in extra.items()})
    except _Bucketed:
        return None, ("bucketed", None)
    if isinstance(out, pa.Table):
        return out, ("table", out.num_rows)
    return None, ("value", out)


def run_graph(body, edges, src: str, dst: str, *,
              extra: dict | None = None, **view):
    """Run ``body(handle, **extra)`` on the one placement its input
    takes.  ``view`` holds :class:`GraphHandle`'s view arguments and
    ``extra`` names further Datasets the body reads (node features).
    A ``pa.Table`` input (a body calling another algorithm from inside
    the one task) runs in-process.

    The projected input (``src``, ``dst`` and the weight) is
    materialized once and its row count, block metadata, is the gate.
    At or below ``_LOCAL_EDGE_LIMIT`` one task builds the handle from
    the block refs and runs the body; a table result comes back as one
    Arrow ref, a scalar through ``ray.get`` of a status ref, which also
    re-raises the task's exception with its own type.  Above the limit,
    or when the task's wedge guard refuses, the body runs over Datasets.

    The limit is measured: ``pagerank`` and ``kcore`` on random int64
    graphs of 100k to 4M edges, walls and peak RSS in the constant's
    comment."""
    if isinstance(edges, pa.Table):
        return body(GraphHandle(edges, src, dst, id_type=edges.schema.field(
            src).type, **view), **(extra or {}))
    cols = [src, dst] + ([view["weight"]] if view.get("weight") else [])
    edges = edges.select_columns(cols).materialize()
    schema = pa.schema([(c, column_type(edges, c)) for c in cols])
    spec = dict(src=src, dst=dst, id_type=schema.field(src).type, **view)
    extra = {k: v.materialize() for k, v in (extra or {}).items()}
    rows = edges.count() * (2 if view.get("view") == "symmetric" else 1)
    if rows <= _LOCAL_EDGE_LIMIT:
        out, status = _one_task.remote(
            body, spec, schema, edges.to_arrow_refs(),
            {k: (v.to_arrow_refs(), _schema(v)) for k, v in extra.items()})
        kind, value = ray.get(status)
        if kind == "table":
            return rd.from_arrow_refs([out])
        if kind == "value":
            return value
    return body(GraphHandle(edges, **spec), **extra)


# ------------------------------------------------------------ kernels
def _cat(*cols) -> pa.Array:
    return pa.chunked_array(list(cols)).combine_chunks()


def _np(col) -> np.ndarray:
    return np.asarray(col).astype(np.int64, copy=False)


def _ints(x) -> pa.Array:
    return pa.array(np.asarray(x, dtype=np.int64))


def _starts(col) -> np.ndarray:
    """Positions where a run of equal values of ``col`` starts."""
    c = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if len(c) == 0:
        return np.zeros(0, np.int64)
    return np.flatnonzero(np.r_[True, np.asarray(pc.not_equal(c[1:],
                                                              c[:-1]))])


def _firsts(t: pa.Table, order: list[tuple[str, str]], key: str):
    """The first row of every ``key`` group of ``t`` sorted by ``order``
    (a per-group argmax with a total tie-break, vectorized)."""
    t = t.sort_by(order)
    return t.take(_starts(t[key]))


def _group_pairs(t: pa.Table, key: str, val: str):
    """``(t sorted by (key, val), first, second)``: the row positions of
    every pair ``first < second`` within each ``key`` group, so
    ``val[first] < val[second]`` -- the per-center wedge and
    per-document co-occurrence expansion in one numpy pass."""
    t = t.sort_by([(key, "ascending"), (val, "ascending")])
    n = t.num_rows
    starts = _starts(t[key])
    sizes = np.diff(np.r_[starts, n])
    rep = np.repeat(sizes, sizes) - 1 - (np.arange(n)
                                         - np.repeat(starts, sizes))
    first = np.repeat(np.arange(n), rep)
    cum = np.r_[0, np.cumsum(rep)].astype(np.int64)
    second = np.arange(cum[-1]) - np.repeat(cum[:-1], rep) + first + 1
    return t, first, second


def _pair_key(x, y) -> pa.Array:
    st = pa.string()
    return pc.binary_join_element_wise(pc.cast(x, st), pc.cast(y, st),
                                       "\x1f")


def _rename(x, *names):
    return _map(x, lambda t: t.rename_columns(list(names)))


def _flag(t: pa.Table) -> pa.Table:
    return t.append_column("f", pa.array(np.ones(t.num_rows, np.int8)))


def _endpoints(a: str, b: str):
    return lambda t: pa.table({"node_id": _cat(t[a], t[b])})


class GraphHandle:
    """One view of a caller's edges, on either placement.

    ``edges`` is a Dataset (the bucketed placement) or a ``pa.Table``
    (the one task, ``local``); every method works on both.  ``view``:

    * ``"directed"`` -- DISTINCT ``(s, d)``;
    * ``"symmetric"`` -- DISTINCT ``(s, d)`` over both directions;
    * ``"undirected"`` -- DISTINCT ``(a, b)`` with ``a < b``, self-loops
      always dropped; :attr:`arcs` holds both directions;
    * ``"pairs"`` -- the raw ``(s, d)`` rows, duplicates kept (the
      connected-components input); :attr:`arcs` holds both directions.

    ``loops=False`` drops self-loops, ``as_str`` casts ids to string
    first, and ``weight`` keeps that column as ``w``, reduced over
    duplicate pairs by ``reduce`` ("sum" or "min").  ``n_edges`` is the
    view's row count.  A state is a ``(node_id, v, k)`` table: the
    node's value and its constant (``k``, fixed by :meth:`init`)."""

    def __init__(self, edges, src: str, dst: str, *, id_type: pa.DataType,
                 view: str = "directed", loops: bool = True,
                 as_str: bool = False, weight: str | None = None,
                 reduce: str = "sum", num_buckets: int | None = None):
        self.local = isinstance(edges, pa.Table)
        self.id_type, self.view, self.num_buckets = id_type, view, num_buckets
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

        t = _map(edges, shape)
        if view != "pairs":
            t = _select(self.aggregate(
                t, [ca, cb],
                [("w", reduce)] if weight is not None else [(ca, "count")],
                **{f"w_{reduce}": "w"}), [ca, cb, *self.attrs])
        # materialized ONCE: every algorithm reads the view repeatedly
        self.table = _mat(t)
        self.n_edges = _rows(self.table)

    # ------------------------------------------------------- primitives
    def aggregate(self, x, keys: list[str], aggs: list, **rename):
        return hash_aggregate(x, keys, aggs, rename=rename,
                              num_buckets=self.num_buckets)

    def join(self, left, right, key: str, right_key: str, cols: list[str],
             how: str = "inner"):
        return bucketed_join(left, right, left_key=key, right_key=right_key,
                             right_value_cols=cols, how=how,
                             num_buckets=self.num_buckets)

    def apply(self, x, keys: list[str], fn):
        return bucketed_apply(x, keys, fn, batch_format="pyarrow",
                              num_buckets=self.num_buckets)

    def put(self, t: pa.Table):
        """A small driver-built table on this handle's placement."""
        return t if self.local else rd.from_arrow(t)

    def empty(self, **cols):
        """Typed empty result; a ``None`` type is the input id type."""
        return self.put(pa.table({
            n: pa.array([], type=self.id_type if t is None else t)
            for n, t in cols.items()}))

    # ------------------------------------------------------------ views
    @functools.cached_property
    def nodes(self):
        """``(node_id)``: every endpoint, once."""
        def distinct(t: pa.Table) -> pa.Table:
            return pa.table({"node_id": pc.unique(t["node_id"])})

        return self.apply(_map(self.table, lambda t: distinct(
            _endpoints(*self.cols)(t))), ["node_id"], distinct)

    @functools.cached_property
    def n_nodes(self) -> int:
        return _rows(self.nodes)

    @property
    def arcs(self):
        """Propagation arcs ``(s, d, attrs...)``: the view, or both
        directions of it for the undirected and pairs views."""
        return (self._both if self.view in ("undirected", "pairs")
                else self.table)

    @functools.cached_property
    def _both(self):
        ca, cb = self.cols
        return _mat(_map(self.table, lambda t: pa.table({
            "s": _cat(t[ca], t[cb]), "d": _cat(t[cb], t[ca])})))

    # ------------------------------------------------------- measurements
    @staticmethod
    def check_bound(name: str, what: str, value: int) -> None:
        """Refuse a documented int64 caller contract that the measured
        graph breaks, instead of letting numpy / Arrow wrap silently."""
        if value >= 1 << 63:
            raise ValueError(f"{name}: {what} = {value} reaches 2^63; "
                             f"the int64 fixed point would wrap")

    def max_degree(self, side: str) -> int:
        """Largest out- (``side="s"``) or in-degree (``"d"``) over the
        arcs (the degree, on the undirected view)."""
        return _stat(self.aggregate(
            _select(self.arcs, [side]), [side], [(side, "count")],
            **{f"{side}_count": "n"}), "n", "max")

    def weight_range(self) -> tuple[int, int]:
        return _stat(self.table, "w", "min"), _stat(self.table, "w", "max")

    def add_source_total(self) -> None:
        """Attach ``tot`` to every edge: its source's out-degree, or
        out-weight on a weighted view -- joined once (it is round
        invariant), so every round only moves the state column."""
        s, weighted = self.cols[0], "w" in self.attrs
        deg = self.aggregate(
            _select(self.table, [s, "w"] if weighted else [s]), [s],
            [("w", "sum")] if weighted else [(s, "count")],
            **{"w_sum": "tot", f"{s}_count": "tot"})
        self.table = _mat(self.join(self.table, deg, s, s, ["tot"]))
        self.attrs.append("tot")

    def seed_mask(self, seeds: list):
        """``(seed id array, n present)``.  Seeds missing from the graph
        contribute nothing; raises if NO seed is a graph node."""
        arr = pa.array(sorted(set(seeds))).cast(self.id_type)
        n = _rows(_map(self.nodes, lambda t: t.filter(
            pc.is_in(t["node_id"], value_set=arr))))
        if n == 0:
            raise ValueError("no seed appears as a graph node")
        return arr, n

    # ------------------------------------------------------------ states
    def init(self, value: int | None, base: int = 0, mask=None,
             fill: int | None = 0, nodes=None):
        """Initial state over ``nodes`` (default: the graph's): value
        ``value`` (``None``: the node's own id) and constant ``base`` on
        every node in ``mask`` (all nodes when None); other nodes get
        value ``fill`` and constant 0, or are left out when ``fill`` is
        None (min-combine frontiers)."""
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

        return _mat(_map(self.nodes if nodes is None else nodes, rows))

    def init_from(self, values, id_col: str, value_col: str):
        """Initial state read from a ``(id_col, value_col)`` int64 table;
        graph nodes it does not list start at 0."""
        j = self.join(self.nodes, _select(values, [id_col, value_col]),
                      "node_id", id_col, [value_col], how="left")
        return _mat(_map(j, lambda t: pa.table({
            "node_id": t["node_id"],
            "v": pc.coalesce(pc.cast(t[value_col], pa.int64()),
                             pa.scalar(0, pa.int64())),
            "k": _ints(np.zeros(t.num_rows))})))

    def map(self, state, fn):
        """Apply the numpy kernel ``fn`` to every node value."""
        return _map(state, lambda t: pa.table({
            "node_id": t["node_id"], "v": _ints(fn(_np(t["v"]))),
            "k": t["k"]}))

    def max(self, state) -> int:
        return _stat(state, "v", "max")

    def output(self, id_name: str = "node_id", **states):
        """``(id_name, <name>...)`` from states over the same nodes."""
        out = None
        for name, st in states.items():
            t = _map(st, lambda b, _n=name: pa.table({id_name: b["node_id"],
                                                      _n: b["v"]}))
            out = t if out is None else self.join(out, t, id_name,
                                                  id_name, [name])
        return out

    # --------------------------------------------------------- superstep
    def propagate(self, state, message=None, update=None, *,
                  combine: str = "sum", n_rounds: int = 1,
                  until_fixed: str | None = None, reverse: bool = False,
                  arcs=None):
        """``n_rounds`` synchronous supersteps over ``arcs`` (default
        :attr:`arcs`)::

            agg(v) = combine over arcs u -> v of message(x(u), arc)
                     (``min`` / ``max`` also fold in x(v); nodes absent
                     from the state send nothing)
            x'(v)  = update(agg(v), n(v), k(v))

        ``message(x, e)`` and ``update(agg, n, k)`` are numpy kernels
        over int64 columns -- ``e`` maps the arc attribute names (``w``,
        ``tot``) to columns, ``n`` counts the messages a node received,
        ``k`` is the node constant; None is the identity (which also
        lets min-label propagation carry native ids).  ``reverse`` flips
        every arc.  With ``until_fixed`` (the algorithm's name) the loop
        stops at the first round that changes nothing and raises
        ``RuntimeError`` when ``n_rounds`` pass without one."""
        arcs = self.arcs if arcs is None else arcs
        s, d = ("d", "s") if reverse else ("s", "d")
        attrs = [] if self.view in ("undirected", "pairs") else self.attrs

        def emit(t: pa.Table) -> pa.Table:
            v, n = t["v"], t.num_rows
            if message is not None:
                v = _ints(message(_np(v), {c: _np(t[c]) for c in attrs}))
            return pa.table({"node_id": t[d], "v": v,
                             "n": _ints(np.ones(n)),
                             "k": _ints(np.zeros(n)),
                             "old": pa.nulls(n, v.type)})

        def own(t: pa.Table) -> pa.Table:  # constant and previous value
            zeros = _ints(np.zeros(t.num_rows))
            return pa.table({"node_id": t["node_id"],
                             "v": zeros if combine == "sum" else t["v"],
                             "n": zeros, "k": t["k"], "old": t["v"]})

        def reduce(t: pa.Table) -> pa.Table:
            # partials and their combine are the same aggregates
            return pa.TableGroupBy(t, ["node_id"]).aggregate([
                ("v", combine), ("n", "sum"), ("k", "max"), ("old", "max")
            ]).rename_columns(["node_id", "v", "n", "k", "old"])

        def apply(t: pa.Table) -> pa.Table:
            t = reduce(t)
            v = t["v"]
            if update is not None:
                v = _ints(update(_np(v), _np(t["n"]), _np(t["k"])))
            chg = pc.fill_null(pc.not_equal(v, t["old"]), True)
            return pa.table({"node_id": t["node_id"], "v": v, "k": t["k"],
                             "chg": pc.cast(chg, pa.int64())})

        for _ in range(n_rounds):
            cand = _union([_map(self.join(arcs, state, s, "node_id", ["v"]),
                                emit), _map(state, own)])
            new = self.apply(_map(cand, reduce), ["node_id"], apply)
            if until_fixed and not _stat(new, "chg", "sum"):
                return new
            state = new
        if until_fixed:
            # never return unconverged labels: a too-long chain would
            # report a reachable node as unreachable or split one
            # component into several
            raise RuntimeError(
                f"{until_fixed} did not converge within {n_rounds} "
                f"iterations (graph diameter exceeds max_iters); raise "
                f"max_iters")
        return state


# ------------------------------------------------------ connected components
def connected_components(pairs: rd.Dataset, *,
                         id_a: str = "id_a", id_b: str = "id_b",
                         max_iters: int = 50,
                         num_buckets: int | None = None) -> rd.Dataset:
    """Label every node of the undirected pair graph with the MINIMUM
    node id reachable from it (the merge closure of canonicalization:
    near-duplicate / alias pairs collapse onto one canonical survivor).

    Input: a dataset with two id columns (one row per edge).  Output:
    ``(node_id, component_id)`` -- one row per distinct endpoint;
    singleton nodes never appear in ``pairs`` and so are their own
    implicit components (callers left-join and coalesce).  Ids may be
    int or string; ``min`` is the Arrow kernel either way.

    Min-label propagation to the fixed point on
    :meth:`GraphHandle.propagate` over the native ids -- the round count
    is the graph diameter (dedup/alias graphs are near-cliques: 2-4
    rounds); ``max_iters`` refuses pathological chains.
    """
    def body(h):
        if h.n_edges == 0:
            return h.empty(node_id=None, component_id=None)
        return h.output(component_id=h.propagate(
            h.init(None), combine="min", n_rounds=max_iters,
            until_fixed="connected_components"))

    return run_graph(body, pairs, id_a, id_b, view="pairs",
                     num_buckets=num_buckets)


def degree_table(edges: rd.Dataset, *, src: str = "src", dst: str = "dst",
                 num_buckets: int | None = None) -> rd.Dataset:
    """``(node_id, out_degree, in_degree)`` over the DISTINCT simple
    digraph of ``edges`` (parallel edges -- e.g. one KG edge per
    predicate between the same endpoints -- count once).

    One vectorized endpoint-explode pass followed by one two-stage hash
    sum: no join, skew-tolerant by the partial aggregation (a hub node
    costs one partial row per block).
    """
    def split(t: pa.Table) -> pa.Table:
        ones, zeros = np.ones(t.num_rows), np.zeros(t.num_rows)
        return pa.table({
            "node_id": _cat(t.column("s"), t.column("d")),
            "out_d": _ints(np.concatenate([ones, zeros])),
            "in_d": _ints(np.concatenate([zeros, ones])),
        })

    return run_graph(lambda h: h.aggregate(
        _map(h.table, split), ["node_id"], [("out_d", "sum"),
                                            ("in_d", "sum")],
        out_d_sum="out_degree", in_d_sum="in_degree"),
        edges, src, dst, num_buckets=num_buckets)


# --------------------------------------------------------------- PageRank
#: fixed-point scale for ``pagerank`` ranks (1.0 == PAGERANK_SCALE)
PAGERANK_SCALE = 1_000_000_000_000


def pagerank(edges: rd.Dataset, *, src: str = "src", dst: str = "dst",
             n_iters: int = 5, damping: tuple[int, int] = (85, 100),
             scale: int = PAGERANK_SCALE,
             seeds: list | None = None,
             weight: str | None = None,
             num_buckets: int | None = None) -> rd.Dataset:
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
    order -- float PageRank cannot promise any of that on a cluster, and
    the same recurrence unrolls verbatim into DuckDB integer SQL for the
    oracle check.  Dangling-node mass is dropped (the standard
    simplification); ``n_iters`` is FIXED, not convergence-tested:
    PageRank's error decays geometrically as ``(num/den)^t``, so a small
    fixed count is the usual ranking-quality choice and costs exactly
    ``n_iters`` rounds of :meth:`GraphHandle.propagate` (the out-degree
    rides on the edges, joined once).

    ``seeds`` switches to PERSONALIZED PageRank (entity-relatedness
    ranking around a query set): the uniform restart mass is replaced
    by ``scale // |seeds∩nodes|`` on the seed nodes and 0 elsewhere --
    both the initial vector and the per-iteration teleport term -- so
    rank concentrates in the seeds' neighborhoods.  Same integer
    arithmetic, same bit-exactness.

    ``weight`` names an int64 edge-weight column (e.g. provenance
    counts): duplicate ``(src, dst)`` rows SUM their weights, the
    outdeg denominator becomes the node's weighted out-sum, and each
    edge's contribution is ``(r_t(u) * w) // W(u)`` -- still pure
    integer, still bit-exact under any shuffle order.  Caller
    contract, checked (``ValueError``): ``max(w) * scale`` must stay
    below 2^63 (provenance counts against the default 1e12 scale allow
    weights to ~9e6).
    """
    num, den = damping

    def body(h):
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
            lambda r, e: (r * e["w"] if weight is not None else r)
            // e["tot"],
            lambda s, n, base: base + (num * s) // den, n_rounds=n_iters)
        return h.output(rank_fp=ranks)

    return run_graph(body, edges, src, dst, weight=weight,
                     num_buckets=num_buckets)


# ----------------------------------------------------------------- Katz
KATZ_BETA = 1_000_000_000_000


def katz_centrality(edges: rd.Dataset, *, src: str = "src",
                    dst: str = "dst", n_iters: int = 8,
                    beta: int = KATZ_BETA,
                    num_buckets: int | None = None) -> rd.Dataset:
    """``(node_id, katz_fp)`` -- Katz centrality over the DISTINCT
    simple digraph (self-loops dropped) in exact integer fixed point.
    The attenuation factor is MEASURED from the graph::

        den        = max(2, 2 * max_in_degree)        (alpha = 1/den)
        x_0(i)     = beta
        x_{t+1}(i) = beta + (sum_{j->i} x_t(j)) // den

    ``alpha < 1/max_in_degree <= 1/lambda_max`` is the classic Katz
    convergence condition, and it doubles as an overflow bound:
    ``x <= beta + (max_in_deg * x_max) // (2 * max_in_deg)`` gives
    ``x_max <= 2 * beta``, so every intermediate sum stays below
    ``max_in_deg * 2 * beta`` -- the caller contract, checked
    (``ValueError``): it must stay below 2^63 (in-degrees to ~4.6e6 at
    the default beta; document-derived KGs are far below).  Unlike
    PageRank, Katz credits a node for ALL walks that reach it without
    dividing by the walker's out-degree, so prolific sources transfer
    full endorsement weight -- the standard alternative centrality for
    citation-style graphs.  ``n_iters`` rounds of
    :meth:`GraphHandle.propagate` (sum), bit-identical under any
    blocking and replayable in DuckDB integer SQL.
    """
    if n_iters < 1:
        raise ValueError("n_iters must be >= 1")

    def body(h):
        if h.n_edges == 0:
            return h.empty(node_id=None, katz_fp=pa.int64())
        max_in = h.max_degree("d")
        h.check_bound("katz_centrality", "max_in_degree * 2 * beta",
                      max_in * 2 * beta)
        den = max(2, 2 * max_in)
        x = h.propagate(h.init(beta), None, lambda s, n, k: beta + s // den,
                        n_rounds=n_iters)
        return h.output(katz_fp=x)

    return run_graph(body, edges, src, dst, loops=False,
                     num_buckets=num_buckets)


# ----------------------------------------------------------------- HITS
HITS_SCALE = 1_000_000_000_000


def hits(edges: rd.Dataset, *, src: str = "src", dst: str = "dst",
         n_iters: int = 8, scale: int = HITS_SCALE,
         num_buckets: int | None = None) -> rd.Dataset:
    """``(node_id, hub_fp, auth_fp)`` -- Kleinberg's HITS over the
    DISTINCT simple digraph (self-loops dropped) in exact integer
    fixed point.  Per iteration::

        a_raw(i) = sum_{j->i} h(j);  a = a_raw // ceil(max(a_raw)/scale)
        h_raw(j) = sum_{j->i} a(i);  h = h_raw // ceil(max(h_raw)/scale)

    The divisor normalization (instead of the float L2 norm) keeps
    every value in ``[0, scale]`` using ONLY integer sum / max /
    division -- associative, commutative, and exactly replayable in SQL
    (``v // GREATEST(1, (MAX(v) + scale - 1) // scale)``), so the
    result is bit-identical under any blocking or summation order.
    KG use: separates REFERENCE entities (authorities -- pointed at by
    many well-sourced claims) from SURVEY entities (hubs -- whose
    outgoing edges cover the authorities), which PageRank's single
    score conflates.  ``n_iters`` is fixed (HITS converges
    geometrically; 8 rounds is the standard ranking choice); each half
    step is one :meth:`GraphHandle.propagate` round (the hub step runs
    the arcs reversed) plus one max.

    Caller contract, checked (``ValueError``): ``max(in_deg, out_deg)
    * scale < 2^63`` -- degrees to ~9.2e6 at the default scale (the
    ``pagerank`` weighted bound).
    """
    if n_iters < 1:
        raise ValueError("n_iters must be >= 1")

    def body(h):
        if h.n_edges == 0:
            return h.empty(node_id=None, hub_fp=pa.int64(),
                           auth_fp=pa.int64())
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

    return run_graph(body, edges, src, dst, loops=False,
                     num_buckets=num_buckets)


# ------------------------------------------------------- BFS hops / SSSP
def bfs_hops(edges: rd.Dataset, *, src: str = "src", dst: str = "dst",
             seeds: list, max_iters: int = 50,
             num_buckets: int | None = None) -> rd.Dataset:
    """``(node_id, hops)`` -- minimum UNDIRECTED hop count from the seed
    set over the distinct simple graph of ``edges`` (multi-source BFS;
    KG use: distance-from-query-entities relatedness tiers, the hop
    analogue of the personalized-PageRank neighborhood ranking).

    Only REACHED nodes appear -- unreachable nodes are absent, exactly
    like ``connected_components`` omits singleton nodes (callers
    left-join and treat null as unreachable).  Self-loops are harmless
    (a ``hop+1`` candidate back onto a labeled node never beats its
    existing label) and are left in.  The hop label only ever
    DECREASES under the min combine, so this is min-plus
    :meth:`GraphHandle.propagate` run to its fixed point;
    ``max_iters`` refuses (``RuntimeError``) when the seed eccentricity
    exceeds ``max_iters - 1`` rather than report reachable nodes as
    unreachable.

    Seeds missing from the graph contribute nothing; raises if NO seed
    is a graph node (same contract as personalized ``pagerank``).
    """
    if not seeds:
        raise ValueError("seeds must be non-empty")

    def body(h):
        if h.n_edges == 0:
            return h.empty(node_id=None, hops=pa.int64())
        mask, _ = h.seed_mask(seeds)
        hops = h.propagate(h.init(0, mask=mask, fill=None),
                           lambda x, e: x + 1, combine="min",
                           n_rounds=max_iters, until_fixed="bfs_hops")
        return h.output(hops=hops)

    return run_graph(body, edges, src, dst, view="symmetric",
                     num_buckets=num_buckets)


def shortest_paths(edges: rd.Dataset, *, src: str = "src",
                   dst: str = "dst", weight: str | None = None,
                   seeds: list, n_rounds: int = 8,
                   num_buckets: int | None = None) -> rd.Dataset:
    """``(node_id, dist)`` -- cheapest DIRECTED path cost from the seed
    set over at most ``n_rounds`` edges (bounded-hop multi-source
    Bellman-Ford; KG use: provenance-discounted evidence distance --
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
    Only REACHED nodes appear (same contract as ``bfs_hops``; the state
    never holds unreached nodes, so no infinity sentinel travels);
    self-loops are harmless (``d + c >= d`` for ``c >= 0``) and are
    left in.  Caller contract, checked (``ValueError``):
    ``n_rounds * max_cost < 2^63``.
    """
    if not seeds:
        raise ValueError("seeds must be non-empty")
    if n_rounds < 1:
        raise ValueError("n_rounds must be >= 1")

    def body(h):
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

    return run_graph(body, edges, src, dst, weight=weight, reduce="min",
                     num_buckets=num_buckets)


# ------------------------------------------------------- feature propagation
def feature_propagation(edges: rd.Dataset, features: rd.Dataset, *,
                        src: str = "src", dst: str = "dst",
                        id_col: str = "node_id", feat_col: str = "f",
                        rounds: int = 2,
                        num_buckets: int | None = None) -> rd.Dataset:
    """GNN-style mean aggregation of an int64 node feature over the
    undirected simple graph: per round, every node's feature becomes
    the TRUNCATING integer mean of its neighbors' features::

        f_{t+1}(v) = (sum_{u ~ v} f_t(u)) // deg(v)

    The smoothing primitive of graph feature engineering (label
    propagation on continuous features, over-smoothing probes,
    feature pre-computation for downstream models).  All arithmetic
    is int64 -- callers scale their feature into fixed point first --
    so keyed sums are order-independent, both placements are
    bit-identical, and the recurrence unrolls verbatim into integer
    SQL for the oracle.  Caller contract: features are NONNEGATIVE
    (Arrow's integer divide truncates toward zero while numpy's ``//``
    floors -- they agree only at >= 0) and ``max(f) * max_deg`` stays
    below 2^63, checked (``ValueError``) from the measured maxima (a
    mean never exceeds the maximum, so the first round's bound holds
    for every round).

    One :meth:`GraphHandle.propagate` round (sum; the update divides by
    the received-message count, which is the degree) per ``rounds``
    over the undirected view.  Nodes missing from ``features`` start
    at 0.
    """
    def body(h, features):
        if h.n_edges == 0:
            return h.empty(**{id_col: None, feat_col: pa.int64()})
        f = h.init_from(features, id_col, feat_col)
        h.check_bound("feature_propagation", "max(f) * max_deg",
                      h.max(f) * h.max_degree("d"))
        f = h.propagate(f, None, lambda s, deg, k: s // deg,
                        n_rounds=rounds)
        return h.output(id_col, **{feat_col: f})

    return run_graph(body, edges, src, dst, view="undirected",
                     num_buckets=num_buckets, extra={"features": features})


# ---------------------------------------------------------------- triangles
def _wedge_total(h: GraphHandle, centers, col: str) -> int:
    """Exact wedge count ``sum C(n, 2)`` over the rows per ``col``."""
    n = h.aggregate(_select(centers, [col]), [col], [(col, "count")],
                    **{f"{col}_count": "n"})
    return _stat(_map(n, lambda t: pa.table({"w": _ints(
        _np(t["n"]) * (_np(t["n"]) - 1) // 2)})), "w", "sum")


def _triangles(h: GraphHandle, und, guard: bool):
    """``(closed, deg)`` over the distinct ``(a < b)`` edge list
    ``und``: every triangle once as a ``(u, v, w)`` row of ``closed``
    (the wedge center and its two oriented out-neighbors), and the
    ``(node_id, deg)`` table.

    Degree-ordered orientation: every undirected edge is directed from
    its lower-``(degree, id)`` endpoint to the higher one, so every
    triangle has exactly one node with out-edges to the other two and
    is found exactly once -- and the oriented OUT-degree is bounded by
    ``O(sqrt(m))`` even at hub nodes, which keeps the wedge self-join
    from exploding quadratically on skewed degree distributions.  A
    pair-key join against the oriented edge set closes each wedge.
    With ``guard``, the one task measures the exact oriented wedge
    count first and refuses above ``_LOCAL_WEDGE_LIMIT``."""
    deg = _mat(h.aggregate(_map(und, _endpoints("a", "b")), ["node_id"],
                           [("node_id", "count")], node_id_count="deg"))
    j = h.join(_rename(h.join(und, deg, "a", "node_id", ["deg"]),
                       "a", "b", "deg_a"), deg, "b", "node_id", ["deg"])

    def orient(t: pa.Table) -> pa.Table:
        a, b, da, db = t["a"], t["b"], t["deg_a"], t["deg"]
        a_first = pc.or_(pc.less(da, db),
                         pc.and_(pc.equal(da, db), pc.less(a, b)))
        return pa.table({"o_src": pc.if_else(a_first, a, b),
                         "o_dst": pc.if_else(a_first, b, a),
                         "deg_dst": pc.if_else(a_first, db, da)})

    o = _mat(_map(j, orient))
    if guard and h.local and _wedge_total(h, o, "o_src") > _LOCAL_WEDGE_LIMIT:
        raise _Bucketed
    wedges = h.join(o, _rename(o, "w_src", "w_dst", "w_deg"), "o_src",
                    "w_src", ["w_dst", "w_deg"])

    def ordered_pairs(t: pa.Table) -> pa.Table:
        d1, d2, v, w = t["deg_dst"], t["w_deg"], t["o_dst"], t["w_dst"]
        keep = pc.or_(pc.less(d1, d2),
                      pc.and_(pc.equal(d1, d2), pc.less(v, w)))
        u, v, w = (pc.filter(x, keep) for x in (t["o_src"], v, w))
        return pa.table({"key": _pair_key(v, w), "u": u, "v": v, "w": w})

    closed = h.join(_map(wedges, ordered_pairs), _map(o, lambda t: pa.table({
        "key": _pair_key(t["o_src"], t["o_dst"])})), "key", "key", [])
    return closed, deg


def triangle_count(edges: rd.Dataset, *, src: str = "src",
                   dst: str = "dst",
                   num_buckets: int | None = None) -> int:
    """Exact global triangle count of the UNDIRECTED simple graph
    underlying ``edges`` (direction, parallel edges and self-loops
    ignored), by the degree-ordered orientation of :func:`_triangles`.
    The count is orientation-invariant, so a plain 3-way self-join
    replays it in SQL.  The one task runs it while the exact ORIENTED
    wedge count stays at or below ``_LOCAL_WEDGE_LIMIT``, so a
    pathological near-clique falls through to the bucketed body.
    """
    return run_graph(
        lambda h: _rows(_triangles(h, h.table, True)[0]) if h.n_edges else 0,
        edges, src, dst, view="undirected", num_buckets=num_buckets)


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
                            num_buckets: int | None = None) -> rd.Dataset:
    """Per-node triangle participation and local clustering coefficient
    of the UNDIRECTED simple graph underlying ``edges``.

    Output, one row per node of the simple graph:
    ``(node_id, triangles:int64, wedges:int64, coeff:float64)`` with
    ``wedges = deg * (deg - 1) / 2`` and ``coeff = triangles / wedges``
    rounded to 6 decimals (NULL for degree-1 nodes, which close no
    wedge).  Same orientation and wedge guard as
    :func:`triangle_count`; each found triangle credits its three
    corners.  The triangle set is orientation-invariant, so a plain
    3-way SQL self-join replays the counts.  Per-node credit
    aggregation is a two-stage hash sum seeded with a zero row per
    node, so nodes in no triangle still report.
    """
    def body(h):
        if h.n_edges == 0:
            return h.empty(node_id=None, triangles=pa.int64(),
                           wedges=pa.int64(), coeff=pa.float64())
        closed, deg = _triangles(h, h.table, True)
        credits = _map(closed, lambda t: pa.table({
            "node_id": _cat(t["u"], t["v"], t["w"]),
            "tri": _ints(np.ones(3 * t.num_rows))}))
        zeros = _map(deg, lambda t: pa.table({
            "node_id": t["node_id"], "tri": _ints(np.zeros(t.num_rows))}))
        tri = h.aggregate(_union([credits, zeros]), ["node_id"],
                          [("tri", "sum")], tri_sum="triangles")
        return _map(h.join(tri, deg, "node_id", "node_id", ["deg"]),
                    lambda t: _clustering_table(t["node_id"], t["deg"],
                                                t["triangles"], h.id_type))

    return run_graph(body, edges, src, dst, view="undirected",
                     num_buckets=num_buckets)


# ----------------------------------------------------------------- k-truss
def _edge_supports(h: GraphHandle, und, guard: bool):
    """``(a, b, support)`` for EVERY edge of the distinct ``(a < b)``
    edge list ``und`` -- the number of triangles the edge closes: each
    triangle credits its THREE undirected edges (vs. the three corner
    NODES in :func:`clustering_coefficients`), and edges in no triangle
    get an explicit zero row so the peel threshold sees them."""
    closed, _ = _triangles(h, und, guard)

    def edge_credits(t: pa.Table) -> pa.Table:
        u, v, w = t["u"], t["v"], t["w"]
        # canonicalize each of the triangle's three edges by id (the
        # orientation is by DEGREE, so u/v/w carry no id order)
        pairs = ((u, v), (u, w), (v, w))
        lo = _cat(*(pc.if_else(pc.less(x, y), x, y) for x, y in pairs))
        hi = _cat(*(pc.if_else(pc.less(x, y), y, x) for x, y in pairs))
        return pa.table({"a": lo, "b": hi, "tri": _ints(np.ones(len(lo)))})

    zeros = _map(und, lambda t: pa.table({
        "a": t["a"], "b": t["b"], "tri": _ints(np.zeros(t.num_rows))}))
    return h.aggregate(_union([_map(closed, edge_credits), zeros]),
                       ["a", "b"], [("tri", "sum")], tri_sum="support")


def ktruss(edges: rd.Dataset, *, src: str = "src", dst: str = "dst",
           k: int = 3, max_rounds: int = 30,
           num_buckets: int | None = None) -> rd.Dataset:
    """``(a, b, support)`` -- edges of the k-truss of the UNDIRECTED
    simple graph underlying ``edges``: the maximal subgraph in which
    every edge closes at least ``k - 2`` triangles WITHIN the subgraph,
    found by iteratively peeling under-supported edges to the fixed
    point.  ``support`` is the edge's within-truss triangle count
    (>= k - 2 by construction).  KG use: the edge-level analogue of
    :func:`kcore` -- trusses isolate the cohesively cross-referenced
    relation clusters that survive even when individual hub nodes
    would keep a core together, the standard community-seed /
    spam-subgraph filter in entity graphs.

    Peeling only ever REMOVES edges, so the fixed point is reached
    when a round removes nothing -- detected with a count on the
    round's materialized support table, no extra pass (the surviving
    support rows ARE the answer).  Per round :func:`_edge_supports`
    recomputes the per-edge triangle support; the wedge guard runs on
    the first round only, since peeling never adds a wedge."""
    if k < 3:
        raise ValueError("k must be >= 3 (k - 2 triangles per edge)")
    thr = pa.scalar(k - 2, pa.int64())

    def body(h):
        empty = h.empty(a=None, b=None, support=pa.int64())
        if h.n_edges == 0:
            return empty
        cur, prev_n = h.table, h.n_edges
        for rnd in range(max_rounds):
            keep = _mat(_map(_edge_supports(h, cur, rnd == 0), lambda t:
                             t.filter(pc.greater_equal(t["support"], thr))))
            n_nxt = _rows(keep)
            if n_nxt == 0:
                return empty
            if n_nxt == prev_n:
                return _map(keep, lambda t: pa.table({
                    "a": t["a"].cast(h.id_type), "b": t["b"].cast(h.id_type),
                    "support": pc.cast(t["support"], pa.int64())}))
            cur, prev_n = _mat(_select(keep, ["a", "b"])), n_nxt
        raise RuntimeError(
            f"ktruss did not stabilize within {max_rounds} peel rounds; "
            f"raise max_rounds")

    return run_graph(body, edges, src, dst, view="undirected",
                     num_buckets=num_buckets)


# ------------------------------------------------------------------ k-core
def kcore(edges: rd.Dataset, *, src: str = "src", dst: str = "dst",
          k: int = 2, max_rounds: int = 30,
          num_buckets: int | None = None) -> rd.Dataset:
    """``(node_id, degree)`` -- the k-core of the UNDIRECTED simple graph
    underlying ``edges`` (direction, parallel edges and self-loops
    ignored): iteratively peel every node of degree < k until the fixed
    point; ``degree`` is the node's WITHIN-CORE degree (>= k by
    construction).  KG use: dense-core extraction for entity-cluster
    quality tiers -- peripheral one-mention entities peel away, the core
    keeps the densely cross-referenced subgraph.

    Peeling only ever REMOVES edges, so the fixed point is reached when
    one round removes nothing -- detected with a count on the round's
    materialized edge set.  Per round: one endpoint-explode + keyed
    count (degrees), then two semi-joins filtering edges to surviving
    endpoints; every exchange moves skinny id columns.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    at_least_k = pa.scalar(k, pa.int64())

    def body(h):
        empty = h.empty(node_id=None, degree=pa.int64())
        if h.n_edges == 0:
            return empty
        cur, prev_n = h.table, h.n_edges
        for _ in range(max_rounds):
            keep = _mat(_map(h.aggregate(
                _map(cur, _endpoints("a", "b")), ["node_id"],
                [("node_id", "count")], node_id_count="degree"),
                lambda t: t.filter(pc.greater_equal(t["degree"],
                                                    at_least_k))))
            # two semi-joins: an edge survives iff BOTH endpoints kept
            nxt = _mat(h.join(h.join(cur, keep, "a", "node_id", []), keep,
                              "b", "node_id", []))
            n_nxt = _rows(nxt)
            if n_nxt == prev_n:
                # nothing peeled: ``keep`` IS the (node_id, degree) core
                return keep
            if n_nxt == 0:
                return empty
            cur, prev_n = nxt, n_nxt
        raise RuntimeError(
            f"kcore did not stabilize within {max_rounds} peel rounds; "
            f"raise max_rounds")

    return run_graph(body, edges, src, dst, view="undirected",
                     num_buckets=num_buckets)


# ------------------------------------------ neighbor overlap / Adamic-Adar
_AA_SCALE = 1_000_000_000_000  # 1e12 fixed-point scale for 1/ln(deg)


def neighbor_overlap(edges: rd.Dataset, *, src: str = "src",
                     dst: str = "dst", min_common: int = 1,
                     max_center_degree: int = 10_000,
                     num_buckets: int | None = None) -> rd.Dataset:
    """``(id_a, id_b, common, jaccard_fp)`` -- unordered node pairs of
    the UNDIRECTED simple graph sharing at least ``min_common``
    neighbors, with ``common`` = shared-neighbor count and
    ``jaccard_fp = (common * 10^6) // (deg_a + deg_b - common)`` (the
    neighborhood-Jaccard link-prediction score in exact integer fixed
    point -- bit-identical under any blocking, SQL-replayable).  KG use:
    entity-MERGE candidate generation -- two mentions of the same
    underlying entity co-occur with the same neighbor entities even
    when their surface forms share no text, so high neighborhood
    overlap surfaces merge pairs the string/embedding channels miss.
    Adjacent pairs are included (adjacency and overlap are independent
    signals; callers filter if they want non-edges only).  Scale shape
    and wedge guard: :func:`_neighbor_pairs`.
    """
    return _neighbor_pairs(
        edges, src, dst, score="jaccard_fp", min_common=min_common,
        max_center_degree=max_center_degree, num_buckets=num_buckets)


def adamic_adar(edges: rd.Dataset, *, src: str = "src", dst: str = "dst",
                min_common: int = 1, max_center_degree: int = 10_000,
                num_buckets: int | None = None) -> rd.Dataset:
    """``(id_a, id_b, common, aa_fp)`` -- the Adamic-Adar link-prediction
    score over the UNDIRECTED simple graph:
    ``aa_fp = sum over shared neighbors z of floor(1e12 / ln(deg(z)))``
    (int64 fixed point).  Unlike :func:`neighbor_overlap`'s Jaccard,
    shared RARE neighbors dominate the score -- exactly the KG
    entity-merge signal (two aliases co-mentioned with one niche method
    outrank two entities that merely share the field's hub concepts).
    The per-center weight is a scalar ``floor(1e12 / ln(deg_c))`` from
    the FULL degree (``deg_c >= 2`` for any wedge center, so ``ln`` is
    positive), summed as exact int64, so the result is bit-identical
    under any blocking and replays in SQL as
    ``CAST(FLOOR(1e12 / LN(CAST(deg AS DOUBLE))) AS BIGINT)`` (np.log
    and DuckDB LN agree bitwise on identical double inputs).  Scale
    shape and wedge guard: :func:`_neighbor_pairs`.
    """
    return _neighbor_pairs(
        edges, src, dst, score="aa_fp", min_common=min_common,
        max_center_degree=max_center_degree, num_buckets=num_buckets)


def _neighbor_pairs(edges, src, dst, *, score, min_common,
                    max_center_degree, num_buckets) -> rd.Dataset:
    """Shared body of :func:`neighbor_overlap` (``score="jaccard_fp"``)
    and :func:`adamic_adar` (``score="aa_fp"``).

    Scale shape: the wedge expansion through a center node c is
    C(deg(c), 2), so hub nodes explode quadratically -- centers with
    degree > ``max_center_degree`` are SKIPPED as wedge centers (their
    own pair scores survive via their other, low-degree co-neighbors)
    and the dropped wedge-center rows are reported loudly via
    ``functions/runstats`` (the LSH-truncation policy); degrees in the
    scores always come from the full graph.  One keyed degree count, a
    center-bucketed pair expansion (:func:`_group_pairs`), one
    (id_a, id_b) count/sum reduce, and for Jaccard two degree joins.
    The one task first checks the exact wedge total of the kept
    centers against ``_LOCAL_WEDGE_LIMIT``."""
    from .runstats import report_truncation

    if min_common < 1:
        raise ValueError("min_common must be >= 1")
    cols = {"id_a": None, "id_b": None, "common": pa.int64(),
            score: pa.int64()}
    name = "neighbor_overlap" if score == "jaccard_fp" else "adamic_adar"
    i64 = pa.int64()

    def expand(t: pa.Table) -> pa.Table:
        t, first, second = _group_pairs(t, "s", "d")
        deg = _np(t["deg"])[first].astype(np.float64)
        with np.errstate(divide="ignore"):
            w = np.floor(_AA_SCALE / np.log(deg)).astype(np.int64)
        return pa.table({"id_a": t["d"].take(first),
                         "id_b": t["d"].take(second), "w": _ints(w)})

    def jaccard(t: pa.Table) -> pa.Table:
        common = _np(t["common"])
        fp = (common * 1_000_000) // (
            _np(t["deg_a"]) + _np(t["deg_b"]) - common)
        return pa.table({"id_a": t["id_a"], "id_b": t["id_b"],
                         "common": t["common"], "jaccard_fp": _ints(fp)})

    def body(h):
        if h.n_edges == 0:
            return h.empty(**cols)
        adj = h.arcs  # (s, d): center, neighbor
        deg = _mat(h.aggregate(_select(adj, ["s"]), ["s"], [("s", "count")],
                               s_count="deg"))
        # drop hub CENTERS before the quadratic expansion (their rows as
        # NEIGHBORS survive -- only their role as wedge center is skipped)
        kept = _mat(_map(h.join(adj, deg, "s", "s", ["deg"]),
                         lambda t: t.filter(pc.less_equal(
                             t["deg"], pa.scalar(max_center_degree, i64)))))
        if h.local and _wedge_total(h, kept, "s") > _LOCAL_WEDGE_LIMIT:
            raise _Bucketed
        n_dropped = 2 * h.n_edges - _rows(kept)
        if n_dropped:
            report_truncation(f"{name}.hub_center", dropped=n_dropped)
        scored = _map(h.aggregate(
            h.apply(kept, ["s"], expand), ["id_a", "id_b"],
            [("id_a", "count")] + ([("w", "sum")] if score == "aa_fp"
                                   else []),
            id_a_count="common", w_sum="aa_fp"),
            lambda t: t.filter(pc.greater_equal(
                t["common"], pa.scalar(min_common, i64))))
        if score == "aa_fp":
            return scored
        for side in ("a", "b"):
            scored = h.join(scored, _rename(deg, "s", f"deg_{side}"),
                            f"id_{side}", "s", [f"deg_{side}"])
        return _map(scored, jaccard)

    return run_graph(body, edges, src, dst, view="undirected",
                     num_buckets=num_buckets)


# ------------------------------------------------------------ hash walks
def hash_walks(edges: rd.Dataset, *, src: str = "src", dst: str = "dst",
               seeds: list | None = None, n_auto_seeds: int = 0,
               walk_len: int = 4, num_buckets: int | None = None
               ) -> rd.Dataset:
    """Deterministic hash-derandomized random walks over the undirected
    simple graph -- the walk-corpus generator behind DeepWalk/node2vec
    embedding pipelines, with the randomness replaced by a content
    hash so the walks are REPRODUCIBLE and SQL-replayable: at step
    ``t`` the walker at ``cur`` moves to
    ``argmin over neighbors n of md5(cur || '|' || t || '|' || n)``
    (argmin realized as a string MIN over ``md5hex || '|' || n`` -- the
    hex prefix has fixed width 32, so the min orders by hash with a
    deterministic neighbor tie-break, and the successor is
    ``substr(min, 34)``).

    Output: ``(seed, step:int64, node_id)`` -- one row per visited
    position, step 0 = the seed itself; a walk reaching an isolated
    node simply ends.  Every step is one frontier-to-adjacency join
    plus one keyed string-min reduce, the walk count bounded by the
    seed set.  A hub node's expansion is its degree (one candidate row
    per neighbor); cap or salt seeds near celebrity nodes the same way
    ``neighbor_overlap`` caps wedge centers if walks must start there.

    ``seeds`` gives explicit start nodes; ``n_auto_seeds=k`` instead
    starts from the ``k`` lexicographically-smallest nodes of the
    simple graph (a deterministic set the SQL oracle derives
    identically).
    """
    if walk_len < 1:
        raise ValueError("walk_len must be >= 1")
    if (seeds is None) == (n_auto_seeds == 0):
        raise ValueError("pass exactly one of seeds / n_auto_seeds")
    st = pa.string()

    def body(h):
        empty = h.empty(seed=None, step=pa.int64(), node_id=None)
        if h.n_edges == 0 or (seeds is not None and not seeds):
            return empty
        start = (_top(h.nodes, [("node_id", "ascending")], n_auto_seeds)
                 if seeds is None else
                 h.put(pa.table({"node_id": pa.array(
                     [str(s) for s in seeds], st)})))
        frontier = _mat(_map(start, lambda t: pa.table({
            "seed": t["node_id"], "cur": t["node_id"]})))
        steps = []
        for t_step in range(walk_len + 1):
            if t_step:
                def pick(t: pa.Table, _t=t_step) -> pa.Table:
                    m = [hashlib.md5(f"{c}|{_t}|{n}".encode()).hexdigest()
                         + "|" + n for c, n in zip(t["cur"].to_pylist(),
                                                   t["d"].to_pylist())]
                    return pa.table({"seed": t["seed"], "m": pa.array(m, st)})

                frontier = _mat(_map(h.aggregate(
                    _map(h.join(frontier, h.table, "cur", "s", ["d"]), pick),
                    ["seed"], [("m", "min")], m_min="m"), lambda t: pa.table({
                        "seed": t["seed"],
                        "cur": pc.utf8_slice_codeunits(t["m"], 33)})))
                if _rows(frontier) == 0:
                    break
            steps.append(_map(frontier, lambda t, _t=t_step: pa.table({
                "seed": t["seed"].cast(h.id_type),
                "step": _ints(np.full(t.num_rows, _t)),
                "node_id": t["cur"].cast(h.id_type)})))
        return _union(steps)

    return run_graph(body, edges, src, dst, view="symmetric", loops=False,
                     as_str=True, num_buckets=num_buckets)


# ------------------------------------------------- label propagation
def label_propagation(edges: rd.Dataset, *, src: str = "src",
                      dst: str = "dst", n_rounds: int = 4,
                      num_buckets: int | None = None) -> rd.Dataset:
    """``(node_id, label)`` -- deterministic SYNCHRONOUS label
    propagation (community detection) over the undirected simple
    graph: every node starts labeled with its own id; each round every
    node simultaneously adopts the most frequent label among its
    neighbors, ties broken by the LEXICOGRAPHICALLY SMALLEST label.
    Unlike :func:`connected_components` (which converges to one label
    per component), a FIXED ``n_rounds`` of frequency voting splits
    dense regions from their bridges -- the community signal KG QA
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
    round instead of :meth:`GraphHandle.propagate`: one join (labels
    into the symmetric arcs on the neighbor key) + one ``(node, label)``
    keyed count + one per-node vectorized argmax (:func:`_firsts`)
    inside hash buckets.
    """
    if n_rounds < 1:
        raise ValueError("n_rounds must be >= 1")
    order = [("node_id", "ascending"), ("cnt", "descending"),
             ("label", "ascending")]

    def body(h):
        if h.n_edges == 0:
            return h.empty(node_id=None, label=None)
        labels = _map(h.nodes, lambda t: pa.table({"node_id": t["node_id"],
                                                   "label": t["node_id"]}))
        for _ in range(n_rounds):
            votes = h.aggregate(
                _select(h.join(h.arcs, labels, "d", "node_id", ["label"]),
                        ["s", "label"]), ["s", "label"], [("s", "count")],
                s_count="cnt", s="node_id")
            labels = h.apply(votes, ["node_id"], lambda t: _firsts(
                t, order, "node_id").select(["node_id", "label"]))
        return labels

    return run_graph(body, edges, src, dst, view="undirected",
                     num_buckets=num_buckets)


# ----------------------------------------------------------------- SCC
def strongly_connected_components(edges: rd.Dataset, *,
                                  src: str = "src", dst: str = "dst",
                                  max_rounds: int = 30,
                                  max_iters: int = 50,
                                  num_buckets: int | None = None
                                  ) -> rd.Dataset:
    """Strongly connected components of the directed simple graph --
    cycle detection over the KG's directed relations (an intervention
    that mitigates a risk that amplifies the intervention is a feedback
    loop entity-QA wants surfaced).

    Output: ``(node_id, scc_id)``, one row per distinct endpoint,
    ``scc_id`` = the minimum node id in the component (singleton nodes
    never appearing in ``edges`` are their own implicit components,
    the ``connected_components`` contract).

    Algorithm (min-label forward/backward peeling -- the standard
    trim-free distributed SCC): per round compute ``F(u)`` = minimum
    forward-reachable id and ``B(u)`` = minimum backward-reachable id
    over the ACTIVE subgraph, each by min-label
    :meth:`GraphHandle.propagate` to its fixed point;
    ``F(u) = B(u) = m`` certifies ``m`` is both a descendant and an
    ancestor of ``u``, i.e. ``u ∈ SCC(m)`` -- and every member of that
    SCC carries the same certificate, so whole components peel at
    once.  The SCC of the smallest active node is always detected
    (its ``F = B = `` that node), so each round makes progress and the
    round count is bounded by the number of SCCs along any id-chain;
    ``max_rounds`` refuses rather than returning partial labels.
    """
    def split(fb, done: bool):
        def rows(t: pa.Table) -> pa.Table:
            same = pc.equal(t["scc_id"], t["bwd"])
            return t.filter(same if done else pc.invert(same)).select(
                ["node_id", "scc_id"] if done else ["node_id"])
        return _mat(_map(fb, rows))

    def labels(h, active, arcs, reverse: bool, name: str):
        return _map(h.propagate(
            h.init(None, nodes=active), combine="min", n_rounds=max_iters,
            until_fixed="strongly_connected_components", reverse=reverse,
            arcs=arcs), lambda t: pa.table({"node_id": t["node_id"],
                                            name: t["v"]}))

    def body(h):
        if h.n_edges == 0:
            return h.empty(node_id=None, scc_id=None)
        active, arcs, done = h.nodes, h.table, []
        for _ in range(max_rounds):
            # F: u adopts its successor's label; B flows along the edge
            fb = h.join(labels(h, active, arcs, True, "scc_id"),
                        labels(h, active, arcs, False, "bwd"),
                        "node_id", "node_id", ["bwd"])
            done.append(split(fb, True))
            active = split(fb, False)
            if _rows(active) == 0:
                return _union(done)
            # prune the arcs to active x active (two semi-joins)
            arcs = _mat(h.join(h.join(arcs, active, "s", "node_id", []),
                               active, "d", "node_id", []))
        raise RuntimeError(
            f"strongly_connected_components did not finish within "
            f"{max_rounds} rounds; raise max_rounds")

    return run_graph(body, edges, src, dst, num_buckets=num_buckets)


# -------------------------------------------------------- co-occurrence PMI
def _pmi(n_docs: int, c_ab, c_a, c_b) -> np.ndarray:
    # identical IEEE op tree to the oracle: integer products are exact
    # in int64 and exact as doubles, one division, one ln
    return np.round(np.log((n_docs * c_ab).astype(np.float64)
                           / (c_a * c_b).astype(np.float64)), 6)


def cooccurrence_pmi(mentions: rd.Dataset, *, doc_col: str = "doc_id",
                     node_col: str = "node_id", top_k: int = 50,
                     num_buckets: int | None = None) -> rd.Dataset:
    """Pointwise mutual information over document-level entity
    co-occurrence -- the statistical edge-weighting / link-candidate
    channel of KG construction: two entities that share documents far
    more often than their marginals predict are related even when no
    extracted triple connects them.

    Input: one row per (document, entity) mention (duplicates collapse
    internally -- the handle's directed-distinct view of the
    doc -> entity incidence).  Output: the global top-``top_k``
    unordered entity pairs by ``pmi = ln((N * c_ab) / (c_a * c_b))``
    with their doc counts -- ``(id_a, id_b, c_ab:int64, pmi:float64)``,
    pmi rounded to 6 decimals BEFORE the sort (ties break on the pair
    ids), every factor an exact-integer double so the SQL oracle
    replays the ranking bit-for-bit.

    Shape at scale: the only super-linear step is the per-document
    pair expansion (:func:`_group_pairs`) -- C(k, 2) in the document's
    DISTINCT entity count, which the extraction volume cap bounds at
    the source; everything else is keyed counts and two joins against
    the marginal table.
    """
    nid_type = column_type(mentions, node_col)

    def pairs(t: pa.Table) -> pa.Table:
        t, first, second = _group_pairs(t, "s", "d")
        return pa.table({"id_a": t["d"].take(first),
                         "id_b": t["d"].take(second)})

    def body(h):
        if h.n_edges == 0:
            return h.empty(id_a=nid_type, id_b=nid_type, c_ab=pa.int64(),
                           pmi=pa.float64())
        m = h.table  # (s, d): document, entity
        n_docs = _rows(h.aggregate(_select(m, ["s"]), ["s"],
                                   [("s", "count")]))
        ca = h.aggregate(_select(m, ["d"]), ["d"], [("d", "count")],
                         d_count="c")
        j = h.aggregate(h.apply(m, ["s"], pairs), ["id_a", "id_b"],
                        [("id_a", "count")], id_a_count="c_ab")
        for side, col in (("a", "c_a"), ("b", "c_b")):
            j = h.join(j, _rename(ca, "d", col), f"id_{side}", "d", [col])

        def score(t: pa.Table) -> pa.Table:
            pmi = _pmi(n_docs, _np(t["c_ab"]), _np(t["c_a"]), _np(t["c_b"]))
            return pa.table({"id_a": t["id_a"], "id_b": t["id_b"],
                             "c_ab": t["c_ab"],
                             "pmi": pa.array(pmi, type=pa.float64())})

        return _top(_map(j, score), [("pmi", "descending"),
                                     ("id_a", "ascending"),
                                     ("id_b", "ascending")], top_k)

    return run_graph(body, mentions, doc_col, node_col,
                     num_buckets=num_buckets)


# ---------------------------------------------------------------- Luby MIS
def luby_mis(edges: rd.Dataset, *, src: str = "src", dst: str = "dst",
             n_rounds: int = 12, num_buckets: int | None = None
             ) -> rd.Dataset:
    """``(node_id, round)`` -- hash-derandomized Luby maximal
    independent set over the UNDIRECTED distinct simple graph
    (self-loops dropped; KG use: pick a set of mutually NON-adjacent
    representative entities -- e.g. diversity-sampling survey seeds so
    no two picked concepts are directly related, or a conflict-free
    batch for parallel per-entity updates).

    Luby's round ``r`` gives every undecided node the deterministic
    priority key ``md5(str(v) + '|' + str(r)) + '|' + str(v)`` (the
    repo's md5 idiom -- replayable as ``md5(v || '|r') || '|' || v`` in
    SQL; the id suffix makes keys UNIQUE, so comparisons are strict).
    A node joins the set iff its key is smaller than every undecided
    neighbor's; joined nodes' neighbors are removed.  Each round the
    globally-smallest undecided key always joins, so the undecided set
    strictly shrinks and the result is maximal once it empties
    (expected O(log n) rounds; with ``n_rounds`` FIXED the output is
    the well-defined "independent set after n_rounds Luby rounds",
    maximal whenever the rounds sufficed).  ``round`` records when each
    node joined.

    Per round: residual edges are recovered by joining the static
    symmetric edge list with the undecided-key table (inner joins
    double as the residual filter), then one keyed min for the
    neighborhood minima, two mark joins, and one left-join anti filter.
    """
    if n_rounds < 1:
        raise ValueError("n_rounds must be >= 1")

    def body(h):
        if h.n_edges == 0:
            return h.empty(node_id=None, round=pa.int64())
        und, picked = h.nodes, []
        for r in range(1, n_rounds + 1):
            if _rows(und) == 0:
                break

            def with_key(t: pa.Table, _r=r) -> pa.Table:
                ks = [hashlib.md5(f"{v}|{_r}".encode()).hexdigest() + f"|{v}"
                      for v in t["node_id"].to_pylist()]
                return pa.table({"node_id": t["node_id"],
                                 "k": pa.array(ks, pa.string())})

            kt = _mat(_map(und, with_key))
            er = h.table
            for side, col in (("s", "kx"), ("d", "ky")):
                er = h.join(er, _rename(kt, "node_id", col), side,
                            "node_id", [col])
            mn = h.aggregate(_union([kt, _map(er, lambda t: pa.table({
                "node_id": t["s"], "k": t["ky"]}))]), ["node_id"],
                [("k", "min")], k_min="mk")
            mis = _mat(_map(h.join(kt, mn, "node_id", "node_id", ["mk"]),
                            lambda t: pa.table({"node_id": t["node_id"].filter(
                                pc.equal(t["k"], t["mk"]))})))
            rem = _map(h.join(er, mn, "s", "node_id", ["mk"]),
                       lambda t: pa.table({"node_id": t["d"].filter(
                           pc.equal(t["kx"], t["mk"]))}))
            decided = _map(_select(h.aggregate(
                _union([mis, rem]), ["node_id"], [("node_id", "count")]),
                ["node_id"]), _flag)
            und = _mat(_map(h.join(und, decided, "node_id", "node_id", ["f"],
                                   how="left"), lambda t: pa.table({
                                       "node_id": t["node_id"].filter(
                                           pc.is_null(t["f"]))})))
            picked.append(_mat(_map(mis, lambda t, _r=r: t.append_column(
                "round", _ints(np.full(t.num_rows, _r))))))
        return _union(picked)

    return run_graph(body, edges, src, dst, view="symmetric", loops=False,
                     num_buckets=num_buckets)


# ---------------------------------------------------- shortest-path counting
def _argmin_sum(t: pa.Table) -> pa.Table:
    """Per (pivot, node): the min dist and the SUM of sigma over it."""
    keys = ["pivot", "node_id"]
    t = t.join(pa.TableGroupBy(t, keys).aggregate([("dist", "min")]), keys)
    out = pa.TableGroupBy(t.filter(pc.equal(t["dist"], t["dist_min"])),
                          keys + ["dist"]).aggregate([("sigma", "sum")])
    return pa.table({"node_id": out["node_id"], "pivot": out["pivot"],
                     "dist": out["dist"], "sigma": out["sigma_sum"]})


def bfs_path_counts(edges: rd.Dataset, *, src: str = "src",
                    dst: str = "dst", seeds: list,
                    n_rounds: int = 6,
                    num_buckets: int | None = None) -> rd.Dataset:
    """``(pivot, node_id, dist, sigma)`` -- per seed pivot, the BFS hop
    distance AND the NUMBER OF DISTINCT SHORTEST PATHS ``sigma`` from
    the pivot, over the UNDIRECTED distinct simple graph (the
    integer-exact forward pass of Brandes' betweenness: path counts
    are the evidence-multiplicity signal -- how many independent
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
    well-defined "counts over paths of <= n_rounds hops" -- bit-equal
    on both placements and in the unrolled-CTE oracle, because min and
    sum over int64 are order-independent.  Only reached nodes appear
    (the state holds no infinity sentinels); seeds resolve through the
    handle (missing seeds contribute nothing; raises if NO seed is a
    graph node).  Caller contract: the shortest-path count within
    ``n_rounds`` hops must fit int64 (sigma grows multiplicatively with
    graph fan-out).

    The state is keyed by (pivot, node) and the combine is an argmin
    with a sum over ties, so this keeps its own round instead of
    :meth:`GraphHandle.propagate`: one join (states into the symmetric
    edge list) + one (pivot, node)-bucketed :func:`_argmin_sum`."""
    if not seeds:
        raise ValueError("seeds must be non-empty")
    if n_rounds < 1:
        raise ValueError("n_rounds must be >= 1")

    def body(h):
        if h.n_edges == 0:
            return h.empty(pivot=None, node_id=None, dist=pa.int64(),
                           sigma=pa.int64())
        arr, _ = h.seed_mask(seeds)

        def pivots(t: pa.Table) -> pa.Table:
            ids = t["node_id"].filter(pc.is_in(t["node_id"], value_set=arr))
            return pa.table({"node_id": ids, "pivot": ids,
                             "dist": _ints(np.zeros(len(ids))),
                             "sigma": _ints(np.ones(len(ids)))})

        base = state = _mat(_map(h.nodes, pivots))
        for _ in range(n_rounds):
            cands = _map(h.join(h.table, state, "s", "node_id",
                                ["pivot", "dist", "sigma"]),
                         lambda t: pa.table({
                             "node_id": t["d"], "pivot": t["pivot"],
                             "dist": pc.add(t["dist"],
                                            pa.scalar(1, pa.int64())),
                             "sigma": t["sigma"]}))
            state = h.apply(_union([cands, base]), ["pivot", "node_id"],
                            _argmin_sum)
        return _map(state, lambda t: t.select(["pivot", "node_id", "dist",
                                               "sigma"]))

    return run_graph(body, edges, src, dst, view="symmetric", loops=False,
                     num_buckets=num_buckets)


# -------------------------------------------------------- greedy matching
def greedy_matching(edges: rd.Dataset, *, src: str = "src",
                    dst: str = "dst", n_rounds: int = 12,
                    num_buckets: int | None = None) -> rd.Dataset:
    """``(a, b, match_round)`` -- hash-derandomized greedy MAXIMAL
    MATCHING over the undirected distinct simple graph: a set of edges
    no two of which share an endpoint (KG use: pairing entities for
    pairwise merge adjudication, or carving a relation set into
    disjoint work units so parallel per-pair updates never conflict --
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
    well-defined "matching after n rounds" (maximal whenever the
    rounds sufficed -- expected O(log m)).

    Per round: one edge-key map, one keyed min over the exploded
    (endpoint, key) rows, two mark joins against the per-node minima,
    and two left-join anti filters to drop edges touching matched
    nodes -- all skinny exchanges."""
    if n_rounds < 1:
        raise ValueError("n_rounds must be >= 1")

    def body(h):
        cur, matched = h.table, []
        for r in range(1, n_rounds + 1):
            if _rows(cur) == 0:
                break

            def with_key(t: pa.Table, _r=r) -> pa.Table:
                ks = [hashlib.md5(f"{a}|{b}|{_r}".encode()).hexdigest()
                      + f"|{a}|{b}" for a, b in zip(t["a"].to_pylist(),
                                                    t["b"].to_pylist())]
                return pa.table({"a": t["a"], "b": t["b"],
                                 "k": pa.array(ks, pa.string())})

            ek = _mat(_map(cur, with_key))
            mn = h.aggregate(_map(ek, lambda t: pa.table({
                "node_id": _cat(t["a"], t["b"]), "k": _cat(t["k"], t["k"])})),
                ["node_id"], [("k", "min")], k_min="mk")
            j = ek
            for side in ("a", "b"):
                j = h.join(j, _rename(mn, "node_id", f"mk{side}"), side,
                           "node_id", [f"mk{side}"])

            def winners(t: pa.Table) -> pa.Table:
                won = pc.and_(pc.equal(t["k"], t["mka"]),
                              pc.equal(t["k"], t["mkb"]))
                return pa.table({"a": t["a"].filter(won),
                                 "b": t["b"].filter(won)})

            m = _mat(_map(j, winners))
            matched.append(_mat(_map(m, lambda t, _r=r: t.append_column(
                "match_round", _ints(np.full(t.num_rows, _r))))))
            mv = _mat(_map(_select(h.aggregate(
                _map(m, _endpoints("a", "b")), ["node_id"],
                [("node_id", "count")]), ["node_id"]), _flag))
            for side in ("a", "b"):
                cur = _map(h.join(cur, mv, side, "node_id", ["f"],
                                  how="left"), lambda t: t.filter(
                    pc.is_null(t["f"])).select(["a", "b"]))
            cur = _mat(cur)
        return (_union(matched) if matched else
                h.empty(a=None, b=None, match_round=pa.int64()))

    return run_graph(body, edges, src, dst, view="undirected",
                     num_buckets=num_buckets)


# ------------------------------------------------------- DAG topological levels
def dag_levels(edges: rd.Dataset, *, src: str = "src", dst: str = "dst",
               max_rounds: int = 200,
               num_buckets: int | None = None) -> rd.Dataset:
    """``(node_id, level)`` -- longest-path depth of every node in a
    DAG (level 0 = no incoming edges): the topological stratification
    that schedules dependency graphs and stratifies a condensation DAG
    into causal tiers.  Max-plus relaxation::

        level(v) = max(level(v), max_{u -> v} level(u) + 1)

    iterated to a fixpoint on :meth:`GraphHandle.propagate` (max
    combine).  Levels are monotone nondecreasing integers bounded by
    the DAG depth, so the keyed max-reduce is shuffle-order-independent
    and the fixpoint is exact.  A CYCLE never converges, so hitting
    ``max_rounds`` raises instead of returning wrong depths, which
    makes this double as a cycle detector.  Self-loops are rejected up
    front for the same reason.
    """
    def body(h):
        if h.n_edges == 0:
            return h.empty(node_id=None, level=pa.int64())
        n_self = _rows(_map(h.table, lambda t: t.filter(
            pc.equal(t["s"], t["d"]))))
        if n_self:
            raise ValueError(f"dag_levels: {n_self} self-loop(s) — not a DAG")
        try:
            lev = h.propagate(h.init(0), lambda x, e: x + 1, combine="max",
                              n_rounds=max_rounds, until_fixed="dag_levels")
        except RuntimeError:
            raise RuntimeError(
                f"dag_levels did not converge within {max_rounds} rounds — "
                f"the input contains a directed cycle") from None
        return h.output(level=lev)

    return run_graph(body, edges, src, dst, num_buckets=num_buckets)


# --------------------------------------------------- Boruvka spanning forest
def minimum_spanning_forest(edges: rd.Dataset, *, src: str = "src",
                            dst: str = "dst", max_rounds: int = 40,
                            num_buckets: int | None = None) -> rd.Dataset:
    """``(a, b, w)`` -- the UNIQUE minimum spanning forest of the
    undirected distinct simple graph under the deterministic edge
    weight ``w = md5(enc(a,b)) + '|' + enc(a,b)`` with the
    length-prefixed injective encoding ``enc(a,b) =
    f"{len(a)}:{a}|{len(b)}:{b}"`` (the repo's md5 priority idiom
    made collision-free for ids containing the separator: every
    weight is distinct, so the MSF is unique and ANY correct algorithm
    -- Boruvka here, a test-side Kruskal reference -- returns the
    identical edge set).  KG use: a skeleton connecting every entity
    cluster with the fewest, most-deterministic relations (dedup
    backbone / visualization spine / cheapest-merge plan), the
    weighted generalization of :func:`connected_components`.

    Boruvka: each round attaches current component labels to both
    endpoints (two joins), keeps the cross-component residual, takes
    one keyed MIN per component over the exploded (component, weight)
    rows, marks the per-component winners (two more joins), then
    contracts by min-label components over the CHOSEN edge pairs -- a
    graph bounded by the component count, not the edge count.
    Components with any outgoing edge at least halve per round, so
    rounds are O(log n); an unconverged exit raises rather than
    returning a partial forest."""
    def with_w(t: pa.Table) -> pa.Table:
        # length-prefixed encoding: ids containing the separator
        # cannot collide (("x|y","z") vs ("x","y|z") differ), so
        # weights stay DISTINCT and the MSF unique
        keys = [f"{len(str(a))}:{a}|{len(str(b))}:{b}" for a, b in
                zip(t["a"].to_pylist(), t["b"].to_pylist())]
        ws = [hashlib.md5(k.encode()).hexdigest() + "|" + k for k in keys]
        return pa.table({"a": t["a"], "b": t["b"],
                         "w": pa.array(ws, pa.string())})

    def body(h):
        empty = h.empty(a=None, b=None, w=pa.string())
        if h.n_edges == 0:
            return empty
        # every endpoint starts as its own component
        labels = _map(h.nodes, lambda t: pa.table({
            "node_id": t["node_id"], "component_id": t["node_id"]}))
        chosen_rounds, residual = [], _mat(_map(h.table, with_w))
        for _ in range(max_rounds):
            # attach both endpoint labels (la, lb); drop intra-component
            j = residual
            for side in ("a", "b"):
                j = h.join(j, _rename(labels, "node_id", f"l{side}"), side,
                           "node_id", [f"l{side}"])
            cross = _mat(_map(j, lambda t: t.filter(pc.invert(pc.equal(
                t["la"], t["lb"])))))
            if _rows(cross) == 0:
                return _union(chosen_rounds) if chosen_rounds else empty
            # keyed MIN weight per component over exploded endpoints
            mc = h.aggregate(_map(cross, lambda t: pa.table({
                "comp": _cat(t["la"], t["lb"]), "w": _cat(t["w"], t["w"])})),
                ["comp"], [("w", "min")], w_min="mw")
            k = cross
            for side in ("a", "b"):
                k = h.join(k, _rename(mc, "comp", f"mw{side}"), f"l{side}",
                           "comp", [f"mw{side}"])
            chosen = _mat(_map(k, lambda t: t.filter(pc.or_(
                pc.equal(t["w"], t["mwa"]), pc.equal(t["w"], t["mwb"])))))
            chosen_rounds.append(_mat(_select(chosen, ["a", "b", "w"])))
            # intra-component edges never become cross-component again:
            # next round scans only this round's residual
            residual = _mat(_select(cross, ["a", "b", "w"]))
            # contract: components over the chosen (la, lb) pairs, a
            # graph bounded by the component count with its own gate
            contract = _rename(connected_components(
                _select(chosen, ["la", "lb"]), id_a="la", id_b="lb",
                num_buckets=h.num_buckets), "node_id", "new_comp")
            labels = _mat(_map(h.join(labels, contract, "component_id",
                                      "node_id", ["new_comp"], how="left"),
                               lambda t: pa.table({
                                   "node_id": t["node_id"],
                                   "component_id": pc.coalesce(
                                       t["new_comp"].cast(h.id_type),
                                       t["component_id"])})))
        raise RuntimeError(
            f"minimum_spanning_forest did not converge within "
            f"{max_rounds} Boruvka rounds — raise max_rounds")

    return run_graph(body, edges, src, dst, view="undirected",
                     num_buckets=num_buckets)


# ------------------------------------------------------ directed motifs
def motif_census(edges: rd.Dataset, *, src: str = "src", dst: str = "dst",
                 num_buckets: int | None = None) -> rd.Dataset:
    """``(motif, n)`` -- the directed 3-node motif census over the
    DISTINCT directed simple edge set (self-loops dropped): ``cycle``
    (a->b->c->a, circular evidence) and ``feedforward`` (a->b->c with
    the a->c shortcut, the refinement pattern).  ``n`` counts closed
    wedges: a cycle closes once per rotation (callers divide by 3), a
    feed-forward triangle has exactly one base wedge.  One wedge join
    (a->b->c, c != a), then BOTH closing checks in one keyed reduce:
    wedge rows and edge rows meet under (motif, closing pair) with
    presence markers, and a key's wedges count iff it carries an edge.
    The one task first checks the exact wedge count
    ``sum(indeg * outdeg)`` against ``_LOCAL_WEDGE_LIMIT``."""
    def keyed(t: pa.Table, x: str, y: str, wedge: bool) -> pa.Table:
        n, one, zero = t.num_rows, np.ones(2 * t.num_rows), \
            np.zeros(2 * t.num_rows)
        return pa.table({
            "motif": pa.array(["cycle"] * n + ["feedforward"] * n,
                              pa.string()),
            "k": _cat(_pair_key(t[y], t[x]) if wedge else
                      _pair_key(t[x], t[y]), _pair_key(t[x], t[y])),
            "nw": _ints(one if wedge else zero),
            "ne": _ints(zero if wedge else one)})

    def body(h):
        de = h.table
        if h.local:
            io = h.aggregate(_union([
                _map(de, lambda t: pa.table({"node_id": t["s"], "o": _ints(
                    np.ones(t.num_rows)), "i": _ints(np.zeros(t.num_rows))})),
                _map(de, lambda t: pa.table({"node_id": t["d"], "o": _ints(
                    np.zeros(t.num_rows)), "i": _ints(np.ones(t.num_rows))}))
            ]), ["node_id"], [("o", "sum"), ("i", "sum")])
            if _stat(_map(io, lambda t: pa.table({"w": pc.multiply(
                    t["o_sum"], t["i_sum"])})), "w", "sum") \
                    > _LOCAL_WEDGE_LIMIT:
                raise _Bucketed
        w = _map(h.join(_rename(de, "a", "b"), _rename(de, "b2", "c"), "b",
                        "b2", ["c"]),
                 lambda t: t.filter(pc.invert(pc.equal(t["a"], t["c"]))))
        agg = h.aggregate(_union([
            _map(w, lambda t: keyed(t, "a", "c", True)),
            _map(de, lambda t: keyed(t, "s", "d", False))]),
            ["motif", "k"], [("nw", "sum"), ("ne", "sum")])
        return h.aggregate(_map(agg, lambda t: pa.table({
            "motif": t["motif"],
            "n": pc.multiply(t["nw_sum"], pc.min_element_wise(
                t["ne_sum"], pa.scalar(1, pa.int64())))})),
            ["motif"], [("n", "sum")], n_sum="n")

    return run_graph(body, edges, src, dst, loops=False,
                     num_buckets=num_buckets)


# ------------------------------------------------- dominating nominees
def dominators(edges: rd.Dataset, *, src: str = "src", dst: str = "dst",
               num_buckets: int | None = None) -> rd.Dataset:
    """``(node_id, n_nominations)`` -- the nomination dominating set of
    the UNDIRECTED simple graph: every node nominates the
    highest-closed-degree member of its CLOSED neighborhood (ties to
    the smaller id), and the nominated nodes dominate the graph in one
    round.  One closed-neighborhood distinct, one keyed degree count,
    one degree-attach join, one per-node argmax (:func:`_firsts`) and
    one nomination count."""
    order = [("c", "ascending"), ("cdeg", "descending"), ("n", "ascending")]

    def body(h):
        cl = _mat(_select(h.aggregate(_map(h.table, lambda t: pa.table({
            "c": _cat(t["a"], t["b"], t["a"], t["b"]),
            "n": _cat(t["b"], t["a"], t["a"], t["b"])})), ["c", "n"],
            [("c", "count")]), ["c", "n"]))
        dg = h.aggregate(cl, ["n"], [("c", "count")], c_count="cdeg")
        noms = h.apply(h.join(cl, _rename(dg, "n2", "cdeg"), "n", "n2",
                              ["cdeg"]),
                       ["c"], lambda t: _firsts(t, order, "c").select(["n"]))
        return h.aggregate(noms, ["n"], [("n", "count")], n="node_id",
                           n_count="n_nominations")

    return run_graph(body, edges, src, dst, view="undirected",
                     num_buckets=num_buckets)
