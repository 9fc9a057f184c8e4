"""Property-based tests (hypothesis) for the deterministic kernels, plus
the head-entity skew correctness check (SURVEY.md §7.4)."""

import pytest
import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd
from hypothesis import given, settings
from hypothesis import strategies as st

from aisafetyintervention_literatureextraction_ray.fixtures import (
    golden_batch,
    make_corpus,
)
from aisafetyintervention_literatureextraction_ray.functions.hashing import (
    stable_id,
    stable_u64,
)
from aisafetyintervention_literatureextraction_ray.functions.normalize import (
    normalize_name,
)
from aisafetyintervention_literatureextraction_ray.pipelines import graph_build as gb
from aisafetyintervention_literatureextraction_ray.pipelines.extraction import (
    extract_pipeline,
)
from aisafetyintervention_literatureextraction_ray.stages.canonicalize import (
    union_find,
)
from aisafetyintervention_literatureextraction_ray.stages.dedup import (
    MinHasher,
    ngram_jaccard,
)

text_st = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd", "Zs", "Po")),
    max_size=80,
)


@given(text_st)
@settings(max_examples=200, deadline=None)
def test_normalize_idempotent_and_stable(s):
    once = normalize_name(s)
    assert normalize_name(once) == once
    # only [a-z0-9_] survives
    assert all(c.islower() or c.isdigit() or c == "_" for c in once)
    assert not once.startswith("_") and not once.endswith("_")


@given(st.text(max_size=40))
@settings(max_examples=100, deadline=None)
def test_stable_hashes_deterministic(s):
    assert stable_u64(s) == stable_u64(s)
    assert stable_id("t", s) == stable_id("t", s)
    assert 0 <= stable_u64(s) < 2 ** 64


@given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)),
                max_size=40))
@settings(max_examples=100, deadline=None)
def test_union_find_is_order_invariant_and_transitive(pairs):
    pairs = [(f"n{a}", f"n{b}") for a, b in pairs if a != b]
    remap = union_find(pairs)
    # order invariance
    assert union_find(list(reversed(pairs))) == remap
    # closure: endpoints of every pair share a canonical id
    for a, b in pairs:
        assert remap.get(a, a) == remap.get(b, b)
    # canonical ids are fixed points
    for canon in remap.values():
        assert remap.get(canon, canon) == canon


@given(st.lists(st.sampled_from("alpha beta gamma delta epsilon".split()),
                min_size=40, max_size=120))
@settings(max_examples=50, deadline=None)
def test_minhash_estimate_within_bounds(words):
    """Densified-OPH estimate tracks true Jaccard on document-sized
    shingle sets (>= ~38 shingles).  Degenerate 1-2-shingle docs are
    intentionally out of scope: densification there is unbiased but
    max-variance, and candidates are exact-verified downstream."""
    a = " ".join(words)
    b = " ".join(words[: max(3, len(words) // 2)])
    mh = MinHasher(num_perm=128)
    est = float((mh.signature(a) == mh.signature(b)).mean())
    true = ngram_jaccard(a, b, k=3)
    assert abs(est - true) < 0.35


def test_minhash_comparable_across_num_perm_boundary():
    """Regression: a near-dup pair whose shingle counts straddle
    num_perm (63 vs 66) must get comparable signatures — the old
    classic/OPH split estimated such pairs at 0.0."""
    words = [f"w{i}" for i in range(65)]
    a = " ".join(words)
    b = " ".join(words + ["x1", "x2", "x3"])
    mh = MinHasher(num_perm=64)
    est = float((mh.signature(a) == mh.signature(b)).mean())
    true = ngram_jaccard(a, b, k=3)  # ~0.94
    assert true > 0.9
    assert est > 0.7


def test_head_entity_skew_correctness():
    """Heavily skewed corpus (90% head docs): the two-stage partial
    combine must still produce exact provenance counts for the hot keys
    (SURVEY.md §4.2 salted-aggregate requirement)."""
    n = 300
    docs, _ = make_corpus(n, head_frac=0.9)
    golden = golden_batch(np.arange(n), head_frac=0.9).to_pandas()
    extr = extract_pipeline(rd.from_arrow(docs), concurrency=(1, 2))
    nodes = gb.build_nodes(extr).to_pandas()
    # expected provenance per node = #docs mentioning it (subj or obj)
    mention_docs = {}
    for _, row in golden.iterrows():
        for name in (row["subj"], row["obj"]):
            mention_docs.setdefault(name, set()).add(row["doc_id"])
    by_name = {normalize_name(k): len(v) for k, v in mention_docs.items()}
    got = dict(zip(nodes["name_norm"], nodes["n_provenance"]))
    assert got == by_name
    # the head keys really are hot
    assert by_name["rlhf"] > n * 0.5


@given(st.lists(st.sampled_from(["x", "y", "z", "w copy", "long text value"]),
                min_size=1, max_size=60))
@settings(max_examples=25, deadline=None)
def test_exact_dedup_partition_invariants(texts):
    """exact_dedup keeps exactly one row per distinct value (the min-id
    row) with exact duplicate counts, for any input distribution."""
    import pandas as pd
    import ray.data as rd

    from aisafetyintervention_literatureextraction_ray.stages.dedup import (
        exact_dedup,
    )

    df = pd.DataFrame({"doc_id": [f"d{i:04d}" for i in range(len(texts))],
                       "text": texts})
    out = exact_dedup(rd.from_pandas(df), "text", "doc_id",
                      with_counts=True).to_pandas()
    exp = (df.sort_values("doc_id").groupby("text", sort=False)
           .agg(doc_id=("doc_id", "first"), n_copies=("doc_id", "size"))
           .reset_index())
    out = out.sort_values("text").reset_index(drop=True)
    exp = exp.sort_values("text").reset_index(drop=True)
    assert out[["text", "doc_id", "n_copies"]].equals(
        exp[["text", "doc_id", "n_copies"]])


@given(st.integers(min_value=0, max_value=2**31), st.integers(2, 6))
@settings(max_examples=10, deadline=None)
def test_pairs_from_signatures_finds_planted_dup(seed, n_dups):
    """Any identical-signature group is always recovered as pairs by
    the banding -> bucket pairs -> score chain (j == 1.0)."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from aisafetyintervention_literatureextraction_ray.stages.dedup import (
        pairs_from_signatures,
    )

    rng = np.random.default_rng(seed)
    n, p = 50, 32
    sigs = rng.integers(0, 2**32, size=(n, p), dtype=np.uint64)
    for i in range(1, n_dups):  # rows 0..n_dups-1 share one signature
        sigs[i] = sigs[0]
    rows = [{"doc_id": f"d{i:03d}",
             "minhash_sig": [int(x) & 0xFFFFFFFF for x in s]}
            for i, s in zip(range(n), sigs)]
    out = pairs_from_signatures(rd.from_pandas(pd.DataFrame(rows)),
                                jaccard_threshold=0.99,
                                num_bands=8, num_perm=32).to_pandas()
    got = set(map(tuple, out[["id_a", "id_b"]].itertuples(index=False)))
    expected = {(f"d{a:03d}", f"d{b:03d}")
                for a in range(n_dups) for b in range(a + 1, n_dups)}
    assert expected <= got
    assert out.set_index(["id_a", "id_b"]).loc[list(expected)][
        "jaccard"].eq(1.0).all()


def _banded_reference(rows, n_bands, cap, score, keep):
    """Plain-Python LSH near-dup: all pairs of every colliding band of
    every signature, each band bucket cut to its ``cap`` lowest ids,
    then the pair score and its cut.  ``rows`` are ``(id, band values,
    signature)``; returns ``({pair: score}, {"groups", "dropped"})``."""
    buckets = {}
    for i, bands, sig in rows:
        for b in range(n_bands):
            buckets.setdefault((b, bands[b]), set()).add(i)
    pairs, cut = set(), {"groups": 0, "dropped": 0}
    for members in buckets.values():
        ids = sorted(members)
        if len(ids) > cap:
            cut["groups"] += 1
            cut["dropped"] += len(ids) - cap
            ids = ids[:cap]
        pairs |= {(a, b) for k, a in enumerate(ids) for b in ids[k + 1:]}
    sigs = {i: sig for i, _, sig in rows}
    scored = {pr: score(sigs[pr[0]], sigs[pr[1]]) for pr in pairs}
    return {pr: v for pr, v in scored.items() if keep(v)}, cut


def _placements(run, kind, want_cut):
    """``run()`` on the one-task placement and on the bucketed one
    (forced by a limit below any count) -> ``[(pairs, truncation)]``;
    the truncation counter is read once it shows ``want_cut`` or after
    5 s."""
    import time

    from aisafetyintervention_literatureextraction_ray.functions.runstats import (
        truncation_stats,
    )
    from aisafetyintervention_literatureextraction_ray.stages import dedup

    out = []
    for limit in (dedup._LOCAL_SIG_LIMIT, -1):
        truncation_stats(reset=True)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dedup, "_LOCAL_SIG_LIMIT", limit)
            got = run().to_pandas()
        # the counter actor is fire-and-forget: give it time to land
        for _ in range(50):
            snap = truncation_stats().get(kind, {"groups": 0, "dropped": 0})
            if snap == want_cut:
                break
            time.sleep(0.1)
        out.append(({(a, b): v for a, b, v in got.itertuples(index=False)},
                    snap))
    truncation_stats(reset=True)
    return out


@given(st.integers(0, 2**31), st.integers(2, 5), st.integers(2, 5),
       st.sampled_from([0.5, 0.9]))
@settings(max_examples=6, deadline=None)
def test_pairs_from_signatures_matches_reference(seed, n_equal, n_near,
                                                 threshold):
    """Both placements == the plain-Python banded reference: planted
    equal and near-equal groups, a boilerplate bucket above a small
    patched cap, empty and ragged rows that drop, and an id repeated
    with signatures that collide with no other id."""
    from aisafetyintervention_literatureextraction_ray.stages import dedup

    rng = np.random.default_rng(seed)
    p, n_bands, cap = 32, 8, 4
    sigs = [rng.integers(0, 2**32, p, dtype=np.uint64) for _ in range(30)]
    for _ in range(n_equal):
        sigs.append(sigs[0].copy())
    for _ in range(n_near):  # a few slots changed: some bands collide
        s = sigs[1].copy()
        s[rng.choice(p, int(rng.integers(1, 8)), replace=False)] += 1
        sigs.append(s)
    sigs += [sigs[2].copy() for _ in range(cap + 3)]  # above the cap
    ids = [f"d{i:03d}" for i in rng.permutation(len(sigs))]
    rows = [{"doc_id": i, "minhash_sig": [int(x) for x in s]}
            for i, s in zip(ids, sigs)]
    lone = [rng.integers(0, 2**32, p, dtype=np.uint64) for _ in range(2)]
    rows += [{"doc_id": "lone", "minhash_sig": [int(x) for x in s]}
             for s in lone]
    rows += [{"doc_id": "empty", "minhash_sig": []},
             {"doc_id": "ragged", "minhash_sig": [1, 2, 3]}]
    ds = rd.from_pandas(pd.DataFrame(rows)).repartition(3).materialize()

    r = p // n_bands
    want = _banded_reference(
        [(i, [tuple(s[b * r:(b + 1) * r]) for b in range(n_bands)], s)
         for i, s in zip(ids + ["lone"] * 2, sigs + lone)], n_bands, cap,
        lambda a, b: float(np.mean(a == b)), lambda j: j >= threshold)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dedup, "_BUCKET_CAP", cap)
        got = _placements(lambda: dedup.pairs_from_signatures(
            ds, jaccard_threshold=threshold, num_bands=n_bands, num_perm=p),
            "pairs_from_signatures.band_bucket", want[1])
    assert got == [want, want]


@given(st.integers(0, 2**31), st.integers(2, 5), st.integers(1, 3))
@settings(max_examples=6, deadline=None)
def test_simhash_dedup_pairs_matches_reference(seed, n_equal, max_hamming):
    """Both placements == the plain-Python banded reference over the
    16-bit quarters: planted equal and one-word-off texts, an empty
    text, and a boilerplate bucket above ``max_group``."""
    from aisafetyintervention_literatureextraction_ray.stages.dedup import (
        SimHasher,
        popcount64,
        simhash_dedup_pairs,
    )

    rng = np.random.default_rng(seed)
    max_group = 4
    words = [f"w{i}" for i in range(40)]
    texts = [" ".join(rng.choice(words, 12)) for _ in range(25)]
    texts += [texts[0]] * n_equal
    texts += [texts[1].replace(texts[1].split()[0], "other", 1)
              for _ in range(2)]
    texts += ["the same boilerplate line"] * (max_group + 3) + [""]
    ids = [int(i) for i in rng.permutation(len(texts))]
    hashes = SimHasher().simhashes(texts)
    want = _banded_reference(
        [(i, [(int(h) >> (16 * b)) & 0xFFFF for b in range(4)], h)
         for i, h in zip(ids, hashes)], 4, max_group,
        lambda a, b: int(popcount64(np.array([a ^ b], np.uint64))[0]),
        lambda d: d <= max_hamming)
    ds = rd.from_pandas(pd.DataFrame({"doc_id": ids, "text": texts})
                        ).repartition(3).materialize()
    got = _placements(lambda: simhash_dedup_pairs(
        ds, max_hamming=max_hamming, max_group=max_group),
        "simhash_pair_verifier.band_bucket", want[1])
    assert got == [want, want]


@given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)),
                min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_connected_components_driver_matches_bfs(pairs):
    """CC (driver path) == plain BFS closure, for arbitrary pair lists
    (self-loops and duplicates included)."""
    import pandas as pd

    from aisafetyintervention_literatureextraction_ray.functions.graph import (
        connected_components,
    )

    df = pd.DataFrame(pairs, columns=["id_a", "id_b"])
    got = connected_components(rd.from_pandas(df)).to_pandas()
    got_map = dict(zip(got["node_id"], got["component_id"]))

    # reference: BFS from every node over the undirected adjacency
    adj: dict[int, set[int]] = {}
    for a, b in pairs:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    want = {}
    for start in adj:
        seen, stack = {start}, [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        want[start] = min(seen)
    assert got_map == want


@given(st.lists(st.tuples(st.sampled_from(["a", "b"]),
                          st.integers(0, 50)),
                min_size=1, max_size=30, unique=True),
       st.integers(1, 20))
@settings(max_examples=40, deadline=None)
def test_pack_documents_matches_pandas_reference(rows, capacity):
    """pack_id/offset == the pandas cumsum reference for arbitrary
    (source, token-length) corpora and capacities."""
    import pandas as pd

    from aisafetyintervention_literatureextraction_ray.functions.pack import (
        pack_documents,
    )

    df = pd.DataFrame(rows, columns=["source", "doc_id"])
    # text with doc_id % 7 tokens (0..6, includes blanks)
    df["text"] = [" ".join(["w"] * (d % 7)) for d in df["doc_id"]]
    got = (pack_documents(rd.from_pandas(df).repartition(2), capacity)
           .to_pandas().sort_values(["source", "doc_id"])
           .reset_index(drop=True))

    ref = df.copy()
    ref["n_tokens"] = ref["doc_id"] % 7
    ref = ref.sort_values(["source", "doc_id"]).reset_index(drop=True)
    start = (ref.groupby("source")["n_tokens"].cumsum() - ref["n_tokens"])
    assert got["n_tokens"].tolist() == ref["n_tokens"].tolist()
    assert got["pack_id"].tolist() == (start // capacity).tolist()
    assert got["offset_in_pack"].tolist() == (start % capacity).tolist()


@pytest.mark.parametrize("seed,n_nodes,n_edges,placement", [
    (7, 30, 120, 0),           # forced DISTRIBUTED path
    (7, 30, 120, 2_000_000),   # measured driver fast path, same input
    (11, 12, 15, 0),
], indirect=["placement"])
def test_pagerank_matches_integer_reference(seed, n_nodes, n_edges,
                                            placement):
    """Fixed-point PageRank (BOTH the distributed and the gated driver
    path) == the same integer recurrence run sequentially — BIT-exact,
    because every op is integer (this is the property the oracle SQL
    also relies on)."""
    import random
    from collections import Counter

    from aisafetyintervention_literatureextraction_ray.functions.graph import (
        PAGERANK_SCALE,
        pagerank,
    )

    rng = random.Random(seed)
    raw = [(f"n{rng.randrange(n_nodes)}", f"n{rng.randrange(n_nodes)}")
           for _ in range(n_edges)]
    ds = rd.from_arrow(pa.table({"src": [a for a, _ in raw],
                                 "dst": [b for _, b in raw]}))

    e = sorted(set(raw))
    outdeg = Counter(s for s, _ in e)
    nodes = sorted({x for p in e for x in p})
    n, scale = len(nodes), PAGERANK_SCALE
    r = {v: scale // n for v in nodes}
    base = (15 * (scale // n)) // 100
    for _ in range(5):
        s = {v: 0 for v in nodes}
        for (u, v) in e:
            s[v] += r[u] // outdeg[u]
        r = {v: base + (85 * s[v]) // 100 for v in nodes}

    got = pagerank(ds, n_iters=5).to_pandas()
    assert dict(zip(got["node_id"], got["rank_fp"])) == r
    # ranks are a (sub-)distribution: dangling mass leaks, never grows
    assert got["rank_fp"].sum() <= scale


def test_pagerank_empty_and_self_loop():
    from aisafetyintervention_literatureextraction_ray.functions.graph import (
        PAGERANK_SCALE,
        pagerank,
    )

    empty = rd.from_arrow(pa.table({"src": pa.array([], pa.string()),
                                    "dst": pa.array([], pa.string())}))
    out = pagerank(empty)
    assert out.schema().names == ["node_id", "rank_fp"]
    assert out.count() == 0

    # a single self-loop keeps ALL mass: r = 0.15 + 0.85 r fixes r = 1
    loop = rd.from_arrow(pa.table({"src": ["x"], "dst": ["x"]}))
    got = pagerank(loop, n_iters=5).to_pandas()
    assert len(got) == 1
    assert got["rank_fp"].iloc[0] >= PAGERANK_SCALE - 5  # int truncation


def test_degree_table_counts_distinct_parallel_edges_once():
    from aisafetyintervention_literatureextraction_ray.functions.graph import (
        degree_table,
    )

    ds = rd.from_arrow(pa.table({
        "src": ["a", "a", "a", "b", "c"],
        "dst": ["b", "b", "c", "c", "a"],
    }))
    got = degree_table(ds).to_pandas().set_index("node_id")
    assert got.loc["a", "out_degree"] == 2      # a->b counted once
    assert got.loc["a", "in_degree"] == 1
    assert got.loc["b", "out_degree"] == 1
    assert got.loc["b", "in_degree"] == 1
    assert got.loc["c", "in_degree"] == 2


@pytest.mark.parametrize("seed,n_nodes,n_edges,placement", [
    (3, 20, 80, 0),         # forced DISTRIBUTED path
    (3, 20, 80, 500_000),   # measured driver fast path, same input
    (9, 15, 40, 0),
    (1, 6, 4, 500_000),
], indirect=["placement"])
def test_triangle_count_matches_bruteforce(seed, n_nodes, n_edges,
                                           placement):
    """Degree-oriented distributed triangle count == brute-force
    enumeration over all node triples (direction, parallel edges and
    self-loops ignored)."""
    import itertools
    import random

    from aisafetyintervention_literatureextraction_ray.functions.graph import (
        triangle_count,
    )

    rng = random.Random(seed)
    raw = [(f"v{rng.randrange(n_nodes)}", f"v{rng.randrange(n_nodes)}")
           for _ in range(n_edges)]
    und = {tuple(sorted(p)) for p in raw if p[0] != p[1]}
    adj: dict[str, set[str]] = {}
    for a, b in und:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    ref = sum(1 for x, y, z in itertools.combinations(sorted(adj), 3)
              if y in adj[x] and z in adj[x] and z in adj[y])

    ds = rd.from_arrow(pa.table({"src": [a for a, _ in raw],
                                 "dst": [b for _, b in raw]}))
    assert triangle_count(ds) == ref


def test_triangle_count_empty_and_hub():
    from aisafetyintervention_literatureextraction_ray.functions.graph import (
        triangle_count,
    )

    empty = rd.from_arrow(pa.table({"src": pa.array([], pa.string()),
                                    "dst": pa.array([], pa.string())}))
    assert triangle_count(empty) == 0

    # star graph (extreme hub): many wedges, zero triangles — the
    # degree orientation keeps the hub's oriented out-degree at 0
    hub = rd.from_arrow(pa.table({
        "src": ["hub"] * 50,
        "dst": [f"leaf{i}" for i in range(50)]}))
    assert triangle_count(hub) == 0
    # close one leaf pair -> exactly one triangle
    closed = hub.union(rd.from_arrow(pa.table(
        {"src": ["leaf0"], "dst": ["leaf1"]})))
    assert triangle_count(closed) == 1


def test_weighted_interleave_schedule_properties():
    """The stride schedule matches the pandas window-function reference
    bit-exactly, serves sources in weight proportion at every prefix
    (±1 per source), and drops unknown sources."""
    import pandas as pd

    from aisafetyintervention_literatureextraction_ray.functions.sample import (
        weighted_interleave,
    )

    weights = {"a": 3, "b": 2, "c": 1}
    rows = [{"source": s, "doc_id": i * 10 + k}
            for k, s in enumerate(["a", "b", "c", "zzz"])
            for i in range(30)]
    ds = rd.from_pandas(pd.DataFrame(rows))

    got = (weighted_interleave(ds, weights).to_pandas()
           .sort_values(["vtime", "source", "doc_id"])
           .reset_index(drop=True))
    assert set(got["source"]) == {"a", "b", "c"}  # zzz dropped

    ref = pd.DataFrame(rows)
    ref = ref[ref["source"].isin(weights)].copy()
    ref["seq"] = ref.sort_values("doc_id").groupby("source").cumcount() + 1
    ref["vtime"] = (ref["seq"] * 1_000_000) // ref["source"].map(weights)
    ref = (ref.sort_values(["vtime", "source", "doc_id"])
           .reset_index(drop=True))
    pd.testing.assert_frame_equal(
        got[["source", "doc_id", "seq", "vtime"]],
        ref[["source", "doc_id", "seq", "vtime"]], check_dtype=False)

    # prefix fairness: after any full stride period the counts track
    # the weights within one slot per source
    total_w = sum(weights.values())
    for prefix in (total_w, 5 * total_w, 10 * total_w):
        head = got.head(prefix)["source"].value_counts()
        for s, w in weights.items():
            want = prefix * w / total_w
            assert abs(head.get(s, 0) - want) <= 1, (prefix, s)


def test_ngram_source_overlap_matches_pandas_reference():
    """Distributed trigram contamination matrix == set-based reference
    (distinct shared word trigrams per source pair; short docs yield no
    grams; a gram repeated within one source counts once)."""
    import itertools

    import pandas as pd

    from aisafetyintervention_literatureextraction_ray.functions.text import (
        ngram_source_overlap,
    )

    rows = [
        {"source": "a", "text": "the cat sat on the mat"},
        {"source": "a", "text": "the cat sat on the mat again"},  # dup grams
        {"source": "b", "text": "a dog and the cat sat on grass"},
        {"source": "b", "text": "short doc"},                     # no grams
        {"source": "c", "text": "the cat sat quietly"},
        {"source": "c", "text": ""},
    ]
    got = (ngram_source_overlap(rd.from_pandas(pd.DataFrame(rows)))
           .to_pandas().sort_values(["source_a", "source_b"])
           .reset_index(drop=True))

    grams: dict[str, set] = {}
    for r in rows:
        w = r["text"].strip().split()
        grams.setdefault(r["source"], set()).update(
            " ".join(w[i:i + 3]) for i in range(len(w) - 2))
    ref = []
    for sa, sb in itertools.combinations(sorted(grams), 2):
        shared = len(grams[sa] & grams[sb])
        if shared:
            ref.append({"source_a": sa, "source_b": sb,
                        "n_shared": shared})
    ref_df = (pd.DataFrame(ref).sort_values(["source_a", "source_b"])
              .reset_index(drop=True))
    pd.testing.assert_frame_equal(
        got[["source_a", "source_b", "n_shared"]], ref_df,
        check_dtype=False)


@pytest.mark.parametrize("placement", [0, 2_000_000], indirect=["placement"])
def test_personalized_pagerank_matches_reference(placement):
    """Seeded (personalized) PageRank == the sequential integer
    recurrence with restart mass on the seed set, on BOTH paths; nodes
    unreachable from the seeds rank exactly 0."""
    import random
    from collections import Counter

    from aisafetyintervention_literatureextraction_ray.functions.graph import (
        PAGERANK_SCALE,
        pagerank,
    )

    rng = random.Random(13)
    raw = [(f"n{rng.randrange(20)}", f"n{rng.randrange(20)}")
           for _ in range(60)]
    # an island unreachable from the seeds
    raw += [("isl1", "isl2"), ("isl2", "isl1")]
    seeds = ["n0", "n1"]

    e = sorted(set(raw))
    outdeg = Counter(s for s, _ in e)
    nodes = sorted({x for p in e for x in p})
    scale = PAGERANK_SCALE
    present = [s for s in seeds if s in nodes]
    r0 = scale // len(present)
    base = (15 * r0) // 100
    r = {v: (r0 if v in present else 0) for v in nodes}
    for _ in range(5):
        acc = {v: 0 for v in nodes}
        for (u, v) in e:
            acc[v] += r[u] // outdeg[u]
        r = {v: ((base if v in present else 0) + (85 * acc[v]) // 100)
             for v in nodes}

    ds = rd.from_arrow(pa.table({"src": [a for a, _ in raw],
                                 "dst": [b for _, b in raw]}))
    got = pagerank(ds, n_iters=5, seeds=seeds).to_pandas()
    assert dict(zip(got["node_id"], got["rank_fp"])) == r
    gm = dict(zip(got["node_id"], got["rank_fp"]))
    assert gm["isl1"] == 0 and gm["isl2"] == 0
    assert gm["n0"] > 0

    with pytest.raises(ValueError):
        pagerank(ds, seeds=["not-a-node"]).to_pandas()


def test_triangle_count_wedge_limit_falls_back_to_distributed(monkeypatch):
    """If the exact oriented-wedge count exceeds the wedge limit, the
    one task refuses the graph and the bucketed body still returns the
    right count."""
    import itertools
    import random

    from aisafetyintervention_literatureextraction_ray.functions import graph
    from aisafetyintervention_literatureextraction_ray.functions.graph import (
        triangle_count,
    )

    monkeypatch.setattr(graph, "_LOCAL_WEDGE_LIMIT", 1)
    rng = random.Random(3)
    raw = [(f"v{rng.randrange(20)}", f"v{rng.randrange(20)}")
           for _ in range(80)]
    und = {tuple(sorted(p)) for p in raw if p[0] != p[1]}
    adj: dict[str, set[str]] = {}
    for a, b in und:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    ref = sum(1 for x, y, z in itertools.combinations(sorted(adj), 3)
              if y in adj[x] and z in adj[x] and z in adj[y])
    ds = rd.from_arrow(pa.table({"src": [a for a, _ in raw],
                                 "dst": [b for _, b in raw]}))
    assert triangle_count(ds) == ref


@pytest.mark.parametrize("seed,n_nodes,n_edges,placement", [
    (5, 25, 60, 0),         # forced DISTRIBUTED path
    (5, 25, 60, 500_000),   # measured driver fast path, same input
    (13, 10, 12, 0),        # sparse: unreachable nodes exist
    (13, 10, 12, 500_000),
], indirect=["placement"])
def test_bfs_hops_matches_reference(seed, n_nodes, n_edges,
                                    placement):
    """Multi-source BFS (BOTH paths) == a sequential BFS over the
    undirected simple graph; unreachable nodes are absent."""
    import random
    from collections import deque

    from aisafetyintervention_literatureextraction_ray.functions.graph import (
        bfs_hops,
    )

    rng = random.Random(seed)
    raw = [(f"v{rng.randrange(n_nodes)}", f"v{rng.randrange(n_nodes)}")
           for _ in range(n_edges)]
    nodes = sorted({x for p in raw for x in p})
    seeds = nodes[:2]

    adj: dict[str, set[str]] = {}
    for a, b in raw:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    want: dict[str, int] = {s: 0 for s in seeds}
    dq = deque(seeds)
    while dq:
        x = dq.popleft()
        for y in adj[x]:
            if y not in want:
                want[y] = want[x] + 1
                dq.append(y)

    ds = rd.from_arrow(pa.table({"src": [a for a, _ in raw],
                                 "dst": [b for _, b in raw]}))
    got = bfs_hops(ds, seeds=seeds).to_pandas()
    assert dict(zip(got["node_id"], got["hops"])) == want


@pytest.mark.parametrize("placement", [0, 500_000], indirect=["placement"])
def test_bfs_hops_empty_and_bad_seeds(placement):
    from aisafetyintervention_literatureextraction_ray.functions.graph import (
        bfs_hops,
    )

    empty = rd.from_arrow(pa.table({"src": pa.array([], pa.string()),
                                    "dst": pa.array([], pa.string())}))
    out = bfs_hops(empty, seeds=["x"])
    assert out.schema().names == ["node_id", "hops"]
    assert out.count() == 0

    ds = rd.from_arrow(pa.table({"src": ["a"], "dst": ["b"]}))
    with pytest.raises(ValueError):
        bfs_hops(ds, seeds=[])
    with pytest.raises(ValueError):
        bfs_hops(ds, seeds=["zz-not-a-node"]).to_pandas()


@pytest.mark.parametrize("seed,n_nodes,n_edges,k,placement", [
    (2, 25, 70, 2, 0),         # forced DISTRIBUTED path
    (2, 25, 70, 2, 500_000),   # measured driver fast path, same input
    (8, 15, 30, 3, 0),
    (8, 15, 30, 3, 500_000),
    (4, 30, 29, 2, 0),         # tree-ish: long peel chains
    (4, 30, 29, 2, 500_000),
], indirect=["placement"])
def test_kcore_matches_peel_reference(seed, n_nodes, n_edges, k,
                                      placement):
    """k-core (BOTH paths) == the sequential peel over the undirected
    simple graph (self-loops and parallel edges dropped); the reported
    degree is the within-core degree."""
    import random

    from aisafetyintervention_literatureextraction_ray.functions.graph import (
        kcore,
    )

    rng = random.Random(seed)
    raw = [(f"v{rng.randrange(n_nodes)}", f"v{rng.randrange(n_nodes)}")
           for _ in range(n_edges)]
    und = {tuple(sorted(p)) for p in raw if p[0] != p[1]}
    while True:
        deg: dict[str, int] = {}
        for a, b in und:
            deg[a] = deg.get(a, 0) + 1
            deg[b] = deg.get(b, 0) + 1
        nxt = {(a, b) for a, b in und if deg[a] >= k and deg[b] >= k}
        if nxt == und:
            break
        und = nxt
    want = {v: c for v, c in deg.items() if c >= k}

    ds = rd.from_arrow(pa.table({"src": [a for a, _ in raw],
                                 "dst": [b for _, b in raw]}))
    got = kcore(ds, k=k).to_pandas()
    # empty Ray datasets drop column names in to_pandas()
    got_map = ({} if len(got) == 0
               else dict(zip(got["node_id"], got["degree"])))
    assert got_map == want


@pytest.mark.parametrize("placement", [0, 500_000], indirect=["placement"])
def test_kcore_empty_and_vanishing(placement):
    from aisafetyintervention_literatureextraction_ray.functions.graph import (
        kcore,
    )

    empty = rd.from_arrow(pa.table({"src": pa.array([], pa.string()),
                                    "dst": pa.array([], pa.string())}))
    out = kcore(empty, k=2)
    assert out.schema().names == ["node_id", "degree"]
    assert out.count() == 0

    # a pure path graph has an empty 2-core (peels end-in)
    path = rd.from_arrow(pa.table({
        "src": [f"p{i}" for i in range(6)],
        "dst": [f"p{i + 1}" for i in range(6)],
    }))
    assert kcore(path, k=2).count() == 0

    # ...and self-loops never save a node from peeling
    loops = rd.from_arrow(pa.table({"src": ["x", "x"], "dst": ["x", "y"]}))
    assert kcore(loops, k=2).count() == 0

    with pytest.raises(ValueError):
        kcore(path, k=0)


@pytest.mark.parametrize("seed,n_nodes,n_edges,min_common,placement", [
    (7, 20, 60, 1, 0),         # forced DISTRIBUTED path
    (7, 20, 60, 1, 500_000),   # measured driver fast path, same input
    (3, 15, 40, 2, 0),
    (3, 15, 40, 2, 500_000),
], indirect=["placement"])
def test_neighbor_overlap_matches_bruteforce(seed, n_nodes, n_edges,
                                             min_common,
                                             placement):
    """Common-neighbor counts and fixed-point Jaccard (BOTH paths) ==
    brute-force set intersection over all node pairs."""
    import itertools
    import random

    from aisafetyintervention_literatureextraction_ray.functions.graph import (
        neighbor_overlap,
    )

    rng = random.Random(seed)
    raw = [(f"v{rng.randrange(n_nodes)}", f"v{rng.randrange(n_nodes)}")
           for _ in range(n_edges)]
    und = {tuple(sorted(p)) for p in raw if p[0] != p[1]}
    adj: dict[str, set[str]] = {}
    for a, b in und:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    ref = {}
    for x, y in itertools.combinations(sorted(adj), 2):
        c = len(adj[x] & adj[y])
        if c >= min_common:
            ref[(x, y)] = (c, (c * 1_000_000)
                           // (len(adj[x]) + len(adj[y]) - c))

    ds = rd.from_arrow(pa.table({"src": [a for a, _ in raw],
                                 "dst": [b for _, b in raw]}))
    got = neighbor_overlap(ds, min_common=min_common).to_pandas()
    got_map = ({} if len(got) == 0 else
               {(r.id_a, r.id_b): (r.common, r.jaccard_fp)
                for r in got.itertuples()})
    assert got_map == ref


@pytest.mark.parametrize("placement", [0, 500_000], indirect=["placement"])
def test_neighbor_overlap_hub_cap_and_empty(placement):
    """A hub center above max_center_degree contributes NO wedges (its
    pair scores vanish when it was the only shared neighbor), while
    full-graph degrees still feed jaccard_fp; empty input gives a
    typed empty result."""
    from aisafetyintervention_literatureextraction_ray.functions.graph import (
        neighbor_overlap,
    )

    empty = rd.from_arrow(pa.table({"src": pa.array([], pa.string()),
                                    "dst": pa.array([], pa.string())}))
    out = neighbor_overlap(empty)
    assert out.schema().names == ["id_a", "id_b", "common", "jaccard_fp"]
    assert out.count() == 0

    # star: hub h joins leaves l0..l4; plus one triangle edge l0-l1
    ds = rd.from_arrow(pa.table({
        "src": ["h"] * 5 + ["l0"],
        "dst": [f"l{i}" for i in range(5)] + ["l1"],
    }))
    capped = neighbor_overlap(ds, max_center_degree=3).to_pandas()
    got = {(r.id_a, r.id_b): (r.common, r.jaccard_fp)
           for r in capped.itertuples()}
    # hub (degree 5 > 3) is never a wedge center: the leaf pairs it
    # alone connected are gone; l0-l1's wedge through h is also gone,
    # but h's OWN pairs via centers l0/l1 (degree 2 <= 3) survive,
    # scored with the hub's FULL degree 5
    assert got == {("h", "l1"): (1, 1_000_000 // 6),
                   ("h", "l0"): (1, 1_000_000 // 6)}

    uncapped = neighbor_overlap(ds).to_pandas()
    assert len(uncapped) == 12  # C(5,2) leaf pairs + (h,l0) + (h,l1)

    with pytest.raises(ValueError):
        neighbor_overlap(ds, min_common=0)


def test_neighbor_overlap_wedge_limit_falls_back_to_distributed(monkeypatch):
    """If the exact wedge total exceeds the wedge limit, the one task
    refuses the graph and the bucketed body still returns identical
    results."""
    from aisafetyintervention_literatureextraction_ray.functions import graph
    from aisafetyintervention_literatureextraction_ray.functions.graph import (
        neighbor_overlap,
    )

    monkeypatch.setattr(graph, "_LOCAL_WEDGE_LIMIT", 1)
    ds = rd.from_arrow(pa.table({
        "src": ["h"] * 6, "dst": [f"l{i}" for i in range(6)]}))
    got = neighbor_overlap(ds).to_pandas()
    assert len(got) == 15  # C(6,2), computed on the distributed path
    assert (got["common"] == 1).all()


# ------------------------------------------------------------------ HITS
def _hits_reference(dir_edges, n_iters, scale=10**12):
    """Pure-python-int HITS with divisor normalization."""
    nodes = sorted({v for e in dir_edges for v in e})
    hub = {v: scale for v in nodes}

    def half(sval, pairs):
        raw = {v: 0 for v in nodes}
        for a, b in pairs:
            raw[b] += sval[a]
        div = max(1, (max(raw.values()) + scale - 1) // scale)
        return {v: raw[v] // div for v in nodes}

    auth = hub
    for _ in range(n_iters):
        auth = half(hub, dir_edges)
        hub = half(auth, [(b, a) for a, b in dir_edges])
    return {v: (hub[v], auth[v]) for v in nodes}


@pytest.mark.parametrize("seed,n_nodes,n_edges,n_iters,placement", [
    (13, 20, 60, 8, 0),          # forced DISTRIBUTED path
    (13, 20, 60, 8, 2_000_000),  # measured driver fast path, same input
    (4, 10, 25, 3, 0),
    (4, 10, 25, 3, 2_000_000),
], indirect=["placement"])
def test_hits_matches_reference(seed, n_nodes, n_edges, n_iters,
                                placement):
    """Both paths == a dict-based exact-int HITS reference (self-loops
    and duplicate edges dropped on both sides)."""
    import random

    from aisafetyintervention_literatureextraction_ray.functions.graph import hits

    rng = random.Random(seed)
    raw = [(f"v{rng.randrange(n_nodes):02d}", f"v{rng.randrange(n_nodes):02d}")
           for _ in range(n_edges)]
    dedup = sorted({p for p in raw if p[0] != p[1]})
    ref = _hits_reference(dedup, n_iters)

    ds = rd.from_arrow(pa.table({"src": [a for a, _ in raw],
                                 "dst": [b for _, b in raw]}))
    got = hits(ds, n_iters=n_iters).to_pandas()
    got_map = {r.node_id: (r.hub_fp, r.auth_fp)
               for r in got.itertuples()}
    assert got_map == ref


@pytest.mark.parametrize("placement", [0, 2_000_000], indirect=["placement"])
def test_hits_star_graph(placement):
    """Star h -> l0..l3: the center is the only hub (auth 0), leaves
    are pure authorities; empty input gives a typed empty; n_iters < 1
    raises."""
    from aisafetyintervention_literatureextraction_ray.functions.graph import hits

    scale = 10**12
    ds = rd.from_arrow(pa.table({
        "src": ["h"] * 4 + ["h"],  # duplicate edge collapses
        "dst": [f"l{i}" for i in range(4)] + ["l0"]}))
    got = hits(ds, n_iters=8).to_pandas()
    m = {r.node_id: (r.hub_fp, r.auth_fp) for r in got.itertuples()}
    # h emits to 4 leaves: every leaf auth = scale (max-normalized),
    # h's hub = 4*scale normalized back to scale; cross scores are 0
    assert m["h"] == (scale, 0)
    for i in range(4):
        assert m[f"l{i}"] == (0, scale)

    empty = rd.from_arrow(pa.table({"src": pa.array([], pa.string()),
                                    "dst": pa.array([], pa.string())}))
    out = hits(empty)
    assert out.schema().names == ["node_id", "hub_fp", "auth_fp"]
    assert out.count() == 0

    with pytest.raises(ValueError):
        hits(ds, n_iters=0)


# -------------------------------------------------------- label propagation
def _lpa_reference(und_edges, n_rounds):
    """Synchronous LPA: most-frequent neighbor label, ties -> min."""
    adj: dict[str, list[str]] = {}
    for a, b in und_edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    labels = {v: v for v in adj}
    for _ in range(n_rounds):
        new = {}
        for v, ns in adj.items():
            cnt: dict[str, int] = {}
            for n in ns:
                cnt[labels[n]] = cnt.get(labels[n], 0) + 1
            new[v] = min(cnt, key=lambda l: (-cnt[l], l))
        labels = new
    return labels


@pytest.mark.parametrize("seed,n_nodes,n_edges,n_rounds,placement", [
    (5, 20, 50, 4, 0),         # forced DISTRIBUTED path
    (5, 20, 50, 4, 2_000_000),  # measured driver fast path, same input
    (9, 12, 25, 2, 0),
    (9, 12, 25, 2, 2_000_000),
], indirect=["placement"])
def test_label_propagation_matches_reference(seed, n_nodes, n_edges,
                                             n_rounds, placement):
    """Both paths == a dict-based synchronous LPA reference."""
    import random

    from aisafetyintervention_literatureextraction_ray.functions.graph import (
        label_propagation,
    )

    rng = random.Random(seed)
    raw = [(f"v{rng.randrange(n_nodes):02d}", f"v{rng.randrange(n_nodes):02d}")
           for _ in range(n_edges)]
    und = {tuple(sorted(p)) for p in raw if p[0] != p[1]}
    ref = _lpa_reference(und, n_rounds)

    ds = rd.from_arrow(pa.table({"src": [a for a, _ in raw],
                                 "dst": [b for _, b in raw]}))
    got = label_propagation(ds, n_rounds=n_rounds).to_pandas()
    assert dict(zip(got["node_id"], got["label"])) == ref


@pytest.mark.parametrize("placement", [0, 2_000_000], indirect=["placement"])
def test_label_propagation_two_communities(placement):
    """Two triangles joined by one bridge keep two distinct labels
    (where connected_components would report one blob); empty input
    gives a typed empty; n_rounds < 1 raises."""
    from aisafetyintervention_literatureextraction_ray.functions.graph import (
        label_propagation,
    )

    tri1 = [("a1", "a2"), ("a2", "a3"), ("a1", "a3")]
    tri2 = [("b1", "b2"), ("b2", "b3"), ("b1", "b3")]
    ds = rd.from_arrow(pa.table({
        "src": [a for a, _ in tri1 + tri2] + ["a3"],
        "dst": [b for _, b in tri1 + tri2] + ["b1"]}))
    got = label_propagation(ds, n_rounds=4).to_pandas()
    lab = dict(zip(got["node_id"], got["label"]))
    assert len(got) == 6
    ref = _lpa_reference({tuple(sorted(p)) for p in
                          tri1 + tri2 + [("a3", "b1")]}, 4)
    assert lab == ref
    # the two triangle cores keep separate labels
    assert lab["a1"] != lab["b2"]

    empty = rd.from_arrow(pa.table({"src": pa.array([], pa.string()),
                                    "dst": pa.array([], pa.string())}))
    out = label_propagation(empty)
    assert out.schema().names == ["node_id", "label"]
    assert out.count() == 0

    with pytest.raises(ValueError):
        label_propagation(ds, n_rounds=0)


# ------------------------------------------------------------- Adamic-Adar
@pytest.mark.parametrize("seed,n_nodes,n_edges,placement", [
    (7, 20, 60, 0),         # forced DISTRIBUTED path
    (7, 20, 60, 500_000),   # measured driver fast path, same input
    (11, 15, 40, 0),
    (11, 15, 40, 500_000),
], indirect=["placement"])
def test_adamic_adar_matches_bruteforce(seed, n_nodes, n_edges,
                                        placement):
    """Adamic-Adar fixed-point sums (BOTH paths) == brute-force
    per-shared-neighbor floor(1e12/ln(deg)) accumulation."""
    import itertools
    import math
    import random

    from aisafetyintervention_literatureextraction_ray.functions.graph import (
        adamic_adar,
    )

    rng = random.Random(seed)
    raw = [(f"v{rng.randrange(n_nodes)}", f"v{rng.randrange(n_nodes)}")
           for _ in range(n_edges)]
    und = {tuple(sorted(p)) for p in raw if p[0] != p[1]}
    adj: dict[str, set[str]] = {}
    for a, b in und:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    ref = {}
    for x, y in itertools.combinations(sorted(adj), 2):
        shared = adj[x] & adj[y]
        if shared:
            aa = sum(math.floor(1e12 / math.log(len(adj[z])))
                     for z in shared)
            ref[(x, y)] = (len(shared), aa)

    ds = rd.from_arrow(pa.table({"src": [a for a, _ in raw],
                                 "dst": [b for _, b in raw]}))
    got = adamic_adar(ds).to_pandas()
    got_map = ({} if len(got) == 0 else
               {(r.id_a, r.id_b): (r.common, r.aa_fp)
                for r in got.itertuples()})
    assert got_map == ref


@pytest.mark.parametrize("placement", [0, 500_000], indirect=["placement"])
def test_adamic_adar_hub_cap_and_empty(placement):
    """Hub centers above max_center_degree contribute no wedges; weights
    always use the FULL degree; empty input gives a typed empty."""
    import math

    from aisafetyintervention_literatureextraction_ray.functions.graph import (
        adamic_adar,
    )

    empty = rd.from_arrow(pa.table({"src": pa.array([], pa.string()),
                                    "dst": pa.array([], pa.string())}))
    out = adamic_adar(empty)
    assert out.schema().names == ["id_a", "id_b", "common", "aa_fp"]
    assert out.count() == 0

    # star: hub h joins leaves l0..l4; plus one triangle edge l0-l1
    ds = rd.from_arrow(pa.table({
        "src": ["h"] * 5 + ["l0"],
        "dst": [f"l{i}" for i in range(5)] + ["l1"],
    }))
    capped = adamic_adar(ds, max_center_degree=3).to_pandas()
    got = {(r.id_a, r.id_b): (r.common, r.aa_fp)
           for r in capped.itertuples()}
    w2 = math.floor(1e12 / math.log(2))  # centers l0/l1 have degree 2
    # hub (degree 5 > 3) never a wedge center; h's pairs via l0/l1 stay
    assert got == {("h", "l1"): (1, w2), ("h", "l0"): (1, w2)}

    with pytest.raises(ValueError):
        adamic_adar(ds, min_common=0)


def test_adamic_adar_wedge_limit_falls_back_to_distributed(monkeypatch):
    """Above the exact pre-computed wedge limit the one task refuses
    and the bucketed body returns identical results."""
    import math

    from aisafetyintervention_literatureextraction_ray.functions import graph
    from aisafetyintervention_literatureextraction_ray.functions.graph import (
        adamic_adar,
    )

    monkeypatch.setattr(graph, "_LOCAL_WEDGE_LIMIT", 1)
    ds = rd.from_arrow(pa.table({
        "src": ["h"] * 6, "dst": [f"l{i}" for i in range(6)]}))
    got = adamic_adar(ds).to_pandas()
    assert len(got) == 15  # C(6,2), computed on the distributed path
    w6 = math.floor(1e12 / math.log(6))
    assert (got["common"] == 1).all()
    assert (got["aa_fp"] == w6).all()


# ------------------------------------------------------- clustering coefficient
@pytest.mark.parametrize("placement", [0, 500_000], indirect=["placement"])
def test_clustering_coefficients_known_graph(placement):
    """K3 plus a pendant: exact triangle credits, wedge counts, and the
    rounded coefficient on BOTH the driver and distributed paths."""
    from aisafetyintervention_literatureextraction_ray.functions.graph import (
        clustering_coefficients,
    )

    # triangle a-b-c, pendant d-a; one duplicate + one self-loop noise
    ds = rd.from_arrow(pa.table({
        "src": ["a", "b", "c", "d", "a", "c"],
        "dst": ["b", "c", "a", "a", "b", "c"]}))
    out = clustering_coefficients(
        ds).to_pandas()
    got = {r.node_id: (r.triangles, r.wedges,
                       None if pd.isna(r.coeff) else round(r.coeff, 6))
           for r in out.itertuples()}
    assert got == {
        "a": (1, 3, 0.333333),
        "b": (1, 1, 1.0),
        "c": (1, 1, 1.0),
        "d": (0, 0, None),
    }


@pytest.mark.parametrize("seed,n_nodes,n_edges,placement", [
    (5, 18, 70, 0),         # forced DISTRIBUTED path
    (5, 18, 70, 500_000),   # measured driver fast path, same input
    (11, 12, 30, 0),
], indirect=["placement"])
def test_clustering_coefficients_match_bruteforce(seed, n_nodes, n_edges,
                                                  placement):
    """Per-node triangle credits == brute-force triple enumeration;
    wedges == deg*(deg-1)/2; coeff == round(tri/wedges, 6)."""
    import itertools
    import random

    from aisafetyintervention_literatureextraction_ray.functions.graph import (
        clustering_coefficients,
    )

    rng = random.Random(seed)
    raw = [(f"v{rng.randrange(n_nodes)}", f"v{rng.randrange(n_nodes)}")
           for _ in range(n_edges)]
    und = {tuple(sorted(p)) for p in raw if p[0] != p[1]}
    adj: dict[str, set[str]] = {}
    for a, b in und:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    tri = {v: 0 for v in adj}
    for x, y, z in itertools.combinations(sorted(adj), 3):
        if y in adj[x] and z in adj[x] and z in adj[y]:
            tri[x] += 1
            tri[y] += 1
            tri[z] += 1

    ds = rd.from_arrow(pa.table({"src": [a for a, _ in raw],
                                 "dst": [b for _, b in raw]}))
    out = clustering_coefficients(
        ds).to_pandas()
    assert len(out) == len(adj)
    for r in out.itertuples():
        deg = len(adj[r.node_id])
        wedges = deg * (deg - 1) // 2
        assert r.triangles == tri[r.node_id]
        assert r.wedges == wedges
        if wedges == 0:
            assert pd.isna(r.coeff)
        else:
            assert r.coeff == round(tri[r.node_id] / wedges, 6)


def test_clustering_coefficients_empty_and_selfloops():
    from aisafetyintervention_literatureextraction_ray.functions.graph import (
        clustering_coefficients,
    )

    empty = rd.from_arrow(pa.table({"src": pa.array([], pa.string()),
                                    "dst": pa.array([], pa.string())}))
    out = clustering_coefficients(empty)
    assert out.schema().names == ["node_id", "triangles", "wedges",
                                  "coeff"]
    assert out.count() == 0

    loops = rd.from_arrow(pa.table({"src": ["x", "x"],
                                    "dst": ["x", "x"]}))
    assert clustering_coefficients(loops).count() == 0


# ------------------------------------------------------------ hash walks
@pytest.mark.parametrize("placement", [0, 2_000_000], indirect=["placement"])
def test_hash_walks_match_sequential_reference(placement):
    """Engine walks == a sequential replay of the md5-argmin recurrence
    on BOTH the driver and distributed paths; step 0 is the seed; a
    dead-end (isolated seed) contributes only step 0."""
    import hashlib
    import random

    from aisafetyintervention_literatureextraction_ray.functions.graph import (
        hash_walks,
    )

    rng = random.Random(13)
    raw = [(f"v{rng.randrange(12)}", f"v{rng.randrange(12)}")
           for _ in range(30)]
    ds = rd.from_arrow(pa.table({"src": [a for a, _ in raw],
                                 "dst": [b for _, b in raw]}))
    und = {tuple(sorted(p)) for p in raw if p[0] != p[1]}
    nbrs: dict[str, set[str]] = {}
    for a, b in und:
        nbrs.setdefault(a, set()).add(b)
        nbrs.setdefault(b, set()).add(a)
    seeds = sorted(nbrs)[:3]

    expected = []
    for s in seeds:
        cur = s
        expected.append((s, 0, s))
        for t in range(1, 5):
            cands = nbrs.get(cur)
            if not cands:
                break
            cur = min(hashlib.md5(f"{cur}|{t}|{n}".encode()).hexdigest()
                      + "|" + n for n in cands)[33:]
            expected.append((s, t, cur))

    out = hash_walks(ds, seeds=seeds, walk_len=4).to_pandas()
    got = sorted(map(tuple, out[["seed", "step", "node_id"]]
                     .itertuples(index=False)))
    assert got == sorted(expected)

    # auto-seed selection picks the same smallest-3 set
    auto = hash_walks(ds, n_auto_seeds=3, walk_len=4).to_pandas()
    got_auto = sorted(map(tuple, auto[["seed", "step", "node_id"]]
                          .itertuples(index=False)))
    assert got_auto == sorted(expected)


def test_hash_walks_edge_cases():
    from aisafetyintervention_literatureextraction_ray.functions.graph import (
        hash_walks,
    )

    empty = rd.from_arrow(pa.table({"src": pa.array([], pa.string()),
                                    "dst": pa.array([], pa.string())}))
    out = hash_walks(empty, n_auto_seeds=2)
    assert out.schema().names == ["seed", "step", "node_id"]
    assert out.count() == 0

    # isolated explicit seed: only its step-0 row
    ds = rd.from_arrow(pa.table({"src": ["a"], "dst": ["b"]}))
    out = hash_walks(ds, seeds=["zzz"], walk_len=3).to_pandas()
    assert list(map(tuple, out.itertuples(index=False))) == [
        ("zzz", 0, "zzz")]

    with pytest.raises(ValueError):
        hash_walks(ds, seeds=["a"], n_auto_seeds=2)
    with pytest.raises(ValueError):
        hash_walks(ds)
    with pytest.raises(ValueError):
        hash_walks(ds, seeds=["a"], walk_len=0)


# ----------------------------------------------------------------- SCC
@pytest.mark.parametrize("placement", [0, 2_000_000], indirect=["placement"])
def test_scc_known_graph_multi_round(placement):
    """Two 2-cycles bridged by a DAG path + a self-loop + a pendant:
    the {c,d} cycle is only detectable after the {a,b} cycle peels
    (its round-1 B label is 'a'), so this exercises the multi-ROUND
    path on both the driver and distributed variants."""
    from aisafetyintervention_literatureextraction_ray.functions.graph import (
        strongly_connected_components,
    )

    edges = [("a", "b"), ("b", "a"), ("b", "c"), ("c", "d"), ("d", "c"),
             ("e", "e"), ("f", "a")]
    ds = rd.from_arrow(pa.table({"src": [x for x, _ in edges],
                                 "dst": [y for _, y in edges]}))
    out = strongly_connected_components(
        ds).to_pandas()
    got = dict(zip(out["node_id"], out["scc_id"]))
    assert got == {"a": "a", "b": "a", "c": "c", "d": "c",
                   "e": "e", "f": "f"}


@pytest.mark.parametrize("seed,n_nodes,n_edges,placement", [
    (2, 10, 25, 0),
    (2, 10, 25, 2_000_000),
    (8, 14, 40, 2_000_000),
], indirect=["placement"])
def test_scc_matches_bruteforce(seed, n_nodes, n_edges, placement):
    """SCC labels == brute-force mutual-reachability closure."""
    import random

    from aisafetyintervention_literatureextraction_ray.functions.graph import (
        strongly_connected_components,
    )

    rng = random.Random(seed)
    raw = {(f"v{rng.randrange(n_nodes)}", f"v{rng.randrange(n_nodes)}")
           for _ in range(n_edges)}
    nodes = sorted({x for p in raw for x in p})
    reach = {v: {v} for v in nodes}
    changed = True
    while changed:
        changed = False
        for a, b in raw:
            new = reach[b] - reach[a]
            if new:
                reach[a] |= new
                changed = True
    expected = {u: min(v for v in reach[u] if u in reach[v])
                for u in nodes}

    ds = rd.from_arrow(pa.table({"src": [x for x, _ in raw],
                                 "dst": [y for _, y in raw]}))
    out = strongly_connected_components(
        ds).to_pandas()
    got = dict(zip(out["node_id"], out["scc_id"]))
    assert got == expected


def test_scc_empty_and_refusal():
    from aisafetyintervention_literatureextraction_ray.functions.graph import (
        strongly_connected_components,
    )

    empty = rd.from_arrow(pa.table({"src": pa.array([], pa.string()),
                                    "dst": pa.array([], pa.string())}))
    out = strongly_connected_components(empty)
    assert out.schema().names == ["node_id", "scc_id"]
    assert out.count() == 0

    # a chain of 2-cycles where each round can only peel the smallest:
    # max_rounds=1 must REFUSE, never emit partial labels
    edges = []
    for i in range(3):
        a, b = f"n{2*i}", f"n{2*i+1}"
        edges += [(a, b), (b, a)]
        if i:
            edges.append((f"n{2*i-2}", a))
    ds = rd.from_arrow(pa.table({"src": [x for x, _ in edges],
                                 "dst": [y for _, y in edges]}))
    with pytest.raises(RuntimeError):
        strongly_connected_components(ds, max_rounds=1)
    full = strongly_connected_components(ds).to_pandas()
    assert dict(zip(full["node_id"], full["scc_id"])) == {
        "n0": "n0", "n1": "n0", "n2": "n2", "n3": "n2",
        "n4": "n4", "n5": "n4"}


# -------------------------------------------------------- co-occurrence PMI
@pytest.mark.parametrize("placement", [0, 2_000_000], indirect=["placement"])
def test_cooccurrence_pmi_matches_local(placement):
    import itertools
    import math

    from aisafetyintervention_literatureextraction_ray.functions.graph import (
        cooccurrence_pmi,
    )

    docs = {
        "p1": ["rlhf", "alignment", "oversight"],
        "p2": ["rlhf", "alignment"],
        "p3": ["rlhf", "audits"],
        "p4": ["alignment"],
    }
    rows = [(d, n) for d, ns in docs.items() for n in ns]
    # duplicate mention rows must collapse
    rows += [("p1", "rlhf"), ("p2", "alignment")]
    ds = rd.from_arrow(pa.table({
        "doc_id": [d for d, _ in rows],
        "node_id": [n for _, n in rows]}))

    n = len(docs)
    ca: dict[str, int] = {}
    cab: dict[tuple, int] = {}
    for d, ns in docs.items():
        for x in set(ns):
            ca[x] = ca.get(x, 0) + 1
        for a, b in itertools.combinations(sorted(set(ns)), 2):
            cab[(a, b)] = cab.get((a, b), 0) + 1
    expected = {p: (k, round(math.log((n * k) / (ca[p[0]] * ca[p[1]])), 6))
                for p, k in cab.items()}

    out = cooccurrence_pmi(ds, top_k=50).to_pandas()
    got = {(r.id_a, r.id_b): (r.c_ab, r.pmi) for r in out.itertuples()}
    assert got == expected

    empty = rd.from_arrow(pa.table({
        "doc_id": pa.array([], pa.string()),
        "node_id": pa.array([], pa.string())}))
    out = cooccurrence_pmi(empty)
    assert out.schema().names == ["id_a", "id_b", "c_ab", "pmi"]
    assert out.count() == 0


# -------------------------------------------------------- weighted PageRank
@pytest.mark.parametrize("placement", [0, 2_000_000], indirect=["placement"])
def test_weighted_pagerank_matches_sequential(placement):
    """Weighted fixed-point PageRank == the sequential integer
    recurrence with summed duplicate-edge weights, on BOTH paths; and
    unit weights reproduce the unweighted ranks bit-for-bit."""
    import random

    from aisafetyintervention_literatureextraction_ray.functions.graph import (
        pagerank,
    )

    rng = random.Random(21)
    rows = [(f"v{rng.randrange(8)}", f"v{rng.randrange(8)}",
             rng.randrange(1, 9)) for _ in range(24)]
    ds = rd.from_arrow(pa.table({
        "src": [a for a, _, _ in rows],
        "dst": [b for _, b, _ in rows],
        "w": pa.array([w for _, _, w in rows], type=pa.int64())}))

    # sequential reference: sum duplicate (src, dst) weights
    wsum: dict[tuple, int] = {}
    for a, b, w in rows:
        wsum[(a, b)] = wsum.get((a, b), 0) + w
    nodes = sorted({x for p in wsum for x in p})
    idx = {v: i for i, v in enumerate(nodes)}
    wout = {v: 0 for v in nodes}
    for (a, _), w in wsum.items():
        wout[a] += w
    scale, num, den, n_iters = 10**12, 85, 100, 5
    r = {v: scale // len(nodes) for v in nodes}
    base = ((den - num) * (scale // len(nodes))) // den
    for _ in range(n_iters):
        s = {v: 0 for v in nodes}
        for (a, b), w in wsum.items():
            s[b] += (r[a] * w) // wout[a]
        r = {v: base + (num * s[v]) // den for v in nodes}

    out = pagerank(ds, weight="w").to_pandas()
    got = dict(zip(out["node_id"], out["rank_fp"]))
    assert got == r

    # unit weights over the DEDUPED pair set == unweighted, bit-for-bit
    # (duplicate rows with w=1 would sum to the pair multiplicity,
    # which is the documented weighted semantics, not the unweighted
    # distinct-edge graph)
    pairs = sorted(wsum)
    unit = rd.from_arrow(pa.table({
        "src": [a for a, _ in pairs],
        "dst": [b for _, b in pairs],
        "w": pa.array([1] * len(pairs), type=pa.int64())}))
    a = pagerank(unit, weight="w").to_pandas()
    b = pagerank(ds).to_pandas()
    assert dict(zip(a["node_id"], a["rank_fp"])) == \
        dict(zip(b["node_id"], b["rank_fp"]))


# -------------------------------------------------------- katz centrality
def _katz_reference(dir_edges, n_iters, beta=10**12):
    """Dict-based exact-int Katz: den = max(2, 2*max_in_degree)."""
    nodes = sorted({v for e in dir_edges for v in e})
    indeg = {v: 0 for v in nodes}
    for _, b in dir_edges:
        indeg[b] += 1
    den = max(2, 2 * max(indeg.values(), default=0))
    x = {v: beta for v in nodes}
    for _ in range(n_iters):
        raw = {v: 0 for v in nodes}
        for a, b in dir_edges:
            raw[b] += x[a]
        x = {v: beta + raw[v] // den for v in nodes}
    return x


@pytest.mark.parametrize("seed,n_nodes,n_edges,n_iters,placement", [
    (13, 20, 60, 8, 0),          # forced DISTRIBUTED path
    (13, 20, 60, 8, 2_000_000),  # measured driver fast path, same input
    (7, 10, 25, 3, 0),
    (7, 10, 25, 3, 2_000_000),
], indirect=["placement"])
def test_katz_matches_reference(seed, n_nodes, n_edges, n_iters,
                                placement):
    """Both paths == a dict-based exact-int Katz reference (self-loops
    and duplicate edges dropped on both sides)."""
    import random

    from aisafetyintervention_literatureextraction_ray.functions.graph import katz_centrality

    rng = random.Random(seed)
    raw = [(f"v{rng.randrange(n_nodes):02d}", f"v{rng.randrange(n_nodes):02d}")
           for _ in range(n_edges)]
    dedup = sorted({p for p in raw if p[0] != p[1]})
    ref = _katz_reference(dedup, n_iters)

    ds = rd.from_arrow(pa.table({"src": [a for a, _ in raw],
                                 "dst": [b for _, b in raw]}))
    got = katz_centrality(ds, n_iters=n_iters).to_pandas()
    got_map = {r.node_id: r.katz_fp for r in got.itertuples()}
    assert got_map == ref


@pytest.mark.parametrize("placement", [0, 2_000_000], indirect=["placement"])
def test_katz_chain_graph(placement):
    """Chain a -> b -> c (max in-degree 1, den = 2): two iterations
    give exactly (B, 1.5B, 1.75B); empty input gives a typed empty;
    n_iters < 1 raises."""
    from aisafetyintervention_literatureextraction_ray.functions.graph import katz_centrality

    beta = 10**12
    ds = rd.from_arrow(pa.table({
        "src": ["a", "b", "a"],  # duplicate edge collapses
        "dst": ["b", "c", "b"]}))
    got = katz_centrality(ds, n_iters=2).to_pandas()
    m = {r.node_id: r.katz_fp for r in got.itertuples()}
    assert m == {"a": beta, "b": beta + beta // 2,
                 "c": beta + (beta + beta // 2) // 2}

    empty = rd.from_arrow(pa.table({"src": pa.array([], pa.string()),
                                    "dst": pa.array([], pa.string())}))
    out = katz_centrality(empty)
    assert out.schema().names == ["node_id", "katz_fp"]
    assert out.count() == 0

    with pytest.raises(ValueError):
        katz_centrality(ds, n_iters=0)


# -------------------------------------------------------- shortest paths
def _sssp_reference(wedges, seeds, n_rounds):
    """Dict-based bounded-hop Bellman-Ford (min cost per pair first)."""
    cost: dict[tuple, int] = {}
    for a, b, c in wedges:
        k = (a, b)
        cost[k] = min(cost.get(k, c), c)
    nodes = {v for k in cost for v in k}
    dist = {v: 0 for v in seeds if v in nodes}
    for _ in range(n_rounds):
        new = dict(dist)
        for (a, b), c in cost.items():
            if a in dist and (b not in new or dist[a] + c < new[b]):
                new[b] = dist[a] + c
        dist = new
    return dist


@pytest.mark.parametrize("seed,n_nodes,n_edges,n_rounds,placement", [
    (13, 20, 60, 8, 0),          # forced DISTRIBUTED path
    (13, 20, 60, 8, 2_000_000),  # measured driver fast path, same input
    (5, 12, 30, 3, 0),
    (5, 12, 30, 3, 2_000_000),
], indirect=["placement"])
def test_sssp_matches_reference(seed, n_nodes, n_edges, n_rounds,
                                placement):
    """Both paths == a dict-based exact-int Bellman-Ford reference
    (parallel edges collapse to min cost; only reached nodes emitted;
    a seed absent from the graph contributes nothing)."""
    import random

    from aisafetyintervention_literatureextraction_ray.functions.graph import shortest_paths

    rng = random.Random(seed)
    raw = [(f"v{rng.randrange(n_nodes):02d}",
            f"v{rng.randrange(n_nodes):02d}",
            rng.randrange(1, 10)) for _ in range(n_edges)]
    seeds = ["v00", "v01", "zz_not_a_node"]
    ref = _sssp_reference(raw, seeds, n_rounds)

    ds = rd.from_arrow(pa.table({
        "src": [a for a, _, _ in raw],
        "dst": [b for _, b, _ in raw],
        "c": pa.array([c for _, _, c in raw], pa.int64())}))
    got = shortest_paths(ds, weight="c", seeds=seeds,
                         n_rounds=n_rounds).to_pandas()
    got_map = {r.node_id: r.dist for r in got.itertuples()}
    assert got_map == ref


@pytest.mark.parametrize("placement", [0, 2_000_000], indirect=["placement"])
def test_sssp_chain_and_contracts(placement):
    """Weighted chain a -2-> b -3-> c plus a costly shortcut a -9-> c:
    the 2-hop route wins within 2 rounds but NOT within 1 (bounded-hop
    semantics); weight=None is the hop metric; empty input gives a
    typed empty; no seed in graph / negative cost / n_rounds < 1
    raise."""
    from aisafetyintervention_literatureextraction_ray.functions.graph import shortest_paths

    ds = rd.from_arrow(pa.table({
        "src": ["a", "b", "a"], "dst": ["b", "c", "c"],
        "c": pa.array([2, 3, 9], pa.int64())}))
    two = shortest_paths(ds, weight="c", seeds=["a"], n_rounds=2).to_pandas()
    assert {r.node_id: r.dist for r in two.itertuples()} == \
        {"a": 0, "b": 2, "c": 5}
    one = shortest_paths(ds, weight="c", seeds=["a"], n_rounds=1).to_pandas()
    assert {r.node_id: r.dist for r in one.itertuples()} == \
        {"a": 0, "b": 2, "c": 9}

    hops = shortest_paths(ds, seeds=["a"], n_rounds=8).to_pandas()
    assert {r.node_id: r.dist for r in hops.itertuples()} == \
        {"a": 0, "b": 1, "c": 1}

    empty = rd.from_arrow(pa.table({"src": pa.array([], pa.string()),
                                    "dst": pa.array([], pa.string())}))
    out = shortest_paths(empty, seeds=["a"])
    assert out.schema().names == ["node_id", "dist"]
    assert out.count() == 0

    with pytest.raises(ValueError):
        shortest_paths(ds, weight="c", seeds=["nope"]).to_pandas()
    neg = rd.from_arrow(pa.table({
        "src": ["a"], "dst": ["b"], "c": pa.array([-1], pa.int64())}))
    with pytest.raises(ValueError):
        shortest_paths(neg, weight="c", seeds=["a"]).to_pandas()
    with pytest.raises(ValueError):
        shortest_paths(ds, seeds=["a"], n_rounds=0)


# -------------------------------------------------------- Luby MIS
def _mis_reference(und_edges, n_rounds):
    """Dict-based Luby MIS with the md5-key derandomization."""
    import hashlib

    adj: dict[str, set] = {}
    for a, b in und_edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    und, out = set(adj), {}
    for r in range(1, n_rounds + 1):
        if not und:
            break
        key = {v: hashlib.md5(f"{v}|{r}".encode()).hexdigest() + f"|{v}"
               for v in und}
        mis = [v for v in und
               if all(key[v] < key[n] for n in adj[v] if n in und)]
        rem = {n for v in mis for n in adj[v] if n in und}
        out.update({v: r for v in mis})
        und -= set(mis) | rem
    return out, und


@pytest.mark.parametrize("seed,n_nodes,n_edges,placement", [
    (13, 20, 40, 0),          # forced DISTRIBUTED path (the expensive
                              # one: ~6 exchanges per Luby round)
    (13, 20, 40, 2_000_000),  # measured driver fast path, same input
    (5, 12, 20, 2_000_000),
], indirect=["placement"])
def test_luby_mis_matches_reference(seed, n_nodes, n_edges,
                                    placement):
    """Both paths == the dict-based md5-keyed Luby reference, and the
    converged result is a genuine MIS: independent (no edge inside)
    and maximal (every other node has a neighbor inside)."""
    import random

    from aisafetyintervention_literatureextraction_ray.functions.graph import luby_mis

    rng = random.Random(seed)
    raw = [(f"v{rng.randrange(n_nodes):02d}", f"v{rng.randrange(n_nodes):02d}")
           for _ in range(n_edges)]
    dedup = sorted({(a, b) for a, b in raw if a != b})
    ref, leftover = _mis_reference(dedup, 12)
    assert not leftover  # 12 rounds converge at this size

    ds = rd.from_arrow(pa.table({"src": [a for a, _ in raw],
                                 "dst": [b for _, b in raw]}))
    got = luby_mis(ds, n_rounds=12).to_pandas()
    got_map = {r.node_id: getattr(r, "round") for r in got.itertuples()}
    assert got_map == ref

    mis = set(got_map)
    nbr = {}
    for a, b in dedup:
        nbr.setdefault(a, set()).add(b)
        nbr.setdefault(b, set()).add(a)
    assert all(not (nbr[v] & mis) for v in mis)          # independent
    assert all(nbr[v] & mis for v in nbr if v not in mis)  # maximal


@pytest.mark.parametrize("placement", [0, 2_000_000], indirect=["placement"])
def test_luby_mis_contracts(placement):
    """Triangle: exactly one node joins (round 1).  Self-loop-only
    nodes don't participate; empty input gives a typed empty;
    n_rounds < 1 raises."""
    from aisafetyintervention_literatureextraction_ray.functions.graph import luby_mis

    ds = rd.from_arrow(pa.table({
        "src": ["a", "b", "c", "x"], "dst": ["b", "c", "a", "x"]}))
    got = luby_mis(ds, n_rounds=12).to_pandas()
    assert len(got) == 1 and got["round"].iloc[0] == 1
    assert got["node_id"].iloc[0] in {"a", "b", "c"}  # never the loop

    empty = rd.from_arrow(pa.table({"src": pa.array([], pa.string()),
                                    "dst": pa.array([], pa.string())}))
    out = luby_mis(empty)
    assert out.schema().names == ["node_id", "round"]
    assert out.count() == 0

    with pytest.raises(ValueError):
        luby_mis(ds, n_rounds=0)


# -------------------------------------------------------- path counting
def _path_counts_reference(und_edges, seeds, n_rounds):
    """Textbook BFS with path counting (sigma accumulation by level)."""
    adj: dict[str, set] = {}
    for a, b in und_edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    out = {}
    for p in seeds:
        if p not in adj:
            continue
        dist = {p: 0}
        sigma = {p: 1}
        frontier = [p]
        for lvl in range(1, n_rounds + 1):
            nxt: dict[str, int] = {}
            for u in frontier:
                for v in adj[u]:
                    if v in dist and dist[v] < lvl:
                        continue
                    nxt[v] = nxt.get(v, 0) + sigma[u]
            frontier = []
            for v, s in nxt.items():
                if v not in dist:
                    dist[v], sigma[v] = lvl, s
                    frontier.append(v)
        for v in dist:
            out[(p, v)] = (dist[v], sigma[v])
    return out


@pytest.mark.parametrize("seed,n_nodes,n_edges,placement", [
    (11, 14, 30, 0),          # forced DISTRIBUTED path
    (11, 14, 30, 2_000_000),  # measured driver fast path, same input
    (3, 10, 18, 2_000_000),
], indirect=["placement"])
def test_bfs_path_counts_matches_reference(seed, n_nodes, n_edges,
                                           placement):
    """Both paths equal the textbook level-BFS sigma accumulation —
    the Jacobi full-recompute recurrence converges to exact distances
    AND exact shortest-path counts for every node within n_rounds."""
    import random

    from aisafetyintervention_literatureextraction_ray.functions.graph import bfs_path_counts

    rng = random.Random(seed)
    raw = [(f"v{rng.randrange(n_nodes):02d}",
            f"v{rng.randrange(n_nodes):02d}") for _ in range(n_edges)]
    dedup = sorted({(min(a, b), max(a, b)) for a, b in raw if a != b})
    nodes = sorted({v for ab in dedup for v in ab})
    seeds = nodes[:2]
    ref = _path_counts_reference(dedup, seeds, 6)

    ds = rd.from_arrow(pa.table({"src": [a for a, _ in raw],
                                 "dst": [b for _, b in raw]}))
    got = bfs_path_counts(ds, seeds=seeds, n_rounds=6).to_pandas()
    got_map = {(r.pivot, r.node_id): (r.dist, r.sigma)
               for r in got.itertuples()}
    assert got_map == ref


@pytest.mark.parametrize("placement", [0, 2_000_000], indirect=["placement"])
def test_bfs_path_counts_contracts(placement):
    """Diamond a-{b,c}-d: two shortest paths to d; empty input gives a
    typed empty; empty seeds / n_rounds < 1 raise."""
    from aisafetyintervention_literatureextraction_ray.functions.graph import bfs_path_counts

    ds = rd.from_arrow(pa.table({
        "src": ["a", "a", "b", "c"], "dst": ["b", "c", "d", "d"]}))
    got = bfs_path_counts(ds, seeds=["a"], n_rounds=6).to_pandas()
    m = {r.node_id: (r.dist, r.sigma) for r in got.itertuples()}
    assert m == {"a": (0, 1), "b": (1, 1), "c": (1, 1), "d": (2, 2)}

    empty = rd.from_arrow(pa.table({"src": pa.array([], pa.string()),
                                    "dst": pa.array([], pa.string())}))
    out = bfs_path_counts(empty, seeds=["a"])
    assert out.schema().names == ["pivot", "node_id", "dist", "sigma"]
    assert out.count() == 0

    with pytest.raises(ValueError):
        bfs_path_counts(ds, seeds=[])
    with pytest.raises(ValueError):
        bfs_path_counts(ds, seeds=["a"], n_rounds=0)


# -------------------------------------------------------- greedy matching
def _matching_reference(und_edges, n_rounds):
    """Dict-based greedy matching with the md5-key derandomization."""
    import hashlib

    residual = sorted(und_edges)
    out = {}
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
        out.update({ab: r for ab in matched})
        residual = [(a, b) for a, b in residual
                    if a not in gone and b not in gone]
    return out, residual


@pytest.mark.parametrize("seed,n_nodes,n_edges,placement", [
    (13, 20, 40, 0),          # forced DISTRIBUTED path
    (13, 20, 40, 2_000_000),  # measured driver fast path, same input
    (7, 12, 24, 2_000_000),
], indirect=["placement"])
def test_greedy_matching_matches_reference(seed, n_nodes, n_edges,
                                           placement):
    """Both paths == the dict-based md5-keyed reference, and the
    converged result is a genuine maximal matching: no two matched
    edges share an endpoint, and every residual edge touches a
    matched node."""
    import random

    from aisafetyintervention_literatureextraction_ray.functions.graph import greedy_matching

    rng = random.Random(seed)
    raw = [(f"v{rng.randrange(n_nodes):02d}",
            f"v{rng.randrange(n_nodes):02d}") for _ in range(n_edges)]
    dedup = sorted({(min(a, b), max(a, b)) for a, b in raw if a != b})
    ref, leftover = _matching_reference(dedup, 12)
    assert not leftover  # 12 rounds converge at this size

    ds = rd.from_arrow(pa.table({"src": [a for a, _ in raw],
                                 "dst": [b for _, b in raw]}))
    got = greedy_matching(ds, n_rounds=12).to_pandas()
    got_map = {(r.a, r.b): r.match_round for r in got.itertuples()}
    assert got_map == ref

    ends: list = []
    for a, b in got_map:
        ends += [a, b]
    assert len(ends) == len(set(ends))  # disjoint pairs
    matched_nodes = set(ends)
    assert all(a in matched_nodes or b in matched_nodes
               for a, b in dedup)      # maximal


@pytest.mark.parametrize("placement", [0, 2_000_000], indirect=["placement"])
def test_greedy_matching_contracts(placement):
    """Path a-b-c: exactly one edge matches in round 1 (the md5-min);
    self-loops don't participate; empty input gives a typed empty;
    n_rounds < 1 raises."""
    from aisafetyintervention_literatureextraction_ray.functions.graph import greedy_matching

    ds = rd.from_arrow(pa.table({
        "src": ["a", "b", "x"], "dst": ["b", "c", "x"]}))
    got = greedy_matching(ds, n_rounds=12).to_pandas()
    assert len(got) == 1 and got["match_round"].iloc[0] == 1
    assert (got["a"].iloc[0], got["b"].iloc[0]) in {("a", "b"),
                                                    ("b", "c")}

    empty = rd.from_arrow(pa.table({"src": pa.array([], pa.string()),
                                    "dst": pa.array([], pa.string())}))
    out = greedy_matching(empty)
    assert out.schema().names == ["a", "b", "match_round"]
    assert out.count() == 0

    with pytest.raises(ValueError):
        greedy_matching(ds, n_rounds=0)


# -------------------------------------------------------- rollup aggregate
def test_rollup_aggregate_levels():
    """All rollup levels from one shuffle: finest groups, per-prefix
    subtotals with typed-NULL markers, and the grand total; sums and
    counts are exact int64."""
    from aisafetyintervention_literatureextraction_ray.functions.agg import rollup_aggregate

    ds = rd.from_arrow(pa.table({
        "a": ["x", "x", "x", "y", "y"],
        "b": ["p", "p", "q", "p", "q"],
        "v": pa.array([1, 2, 4, 8, 16], pa.int64())}))
    out = rollup_aggregate(ds, ["a", "b"], "v").to_pandas()
    rows = {(r.a, r.b): (r.n_rows, r.v_sum) for r in out.itertuples()}
    assert rows == {
        ("x", "p"): (2, 3), ("x", "q"): (1, 4),
        ("y", "p"): (1, 8), ("y", "q"): (1, 16),
        ("x", None): (3, 7), ("y", None): (2, 24),
        (None, None): (5, 31)}
    assert len(out) == 7

    single = rollup_aggregate(ds, ["a"], "v").to_pandas()
    srows = {r.a: (r.n_rows, r.v_sum) for r in single.itertuples()}
    assert srows == {"x": (3, 7), "y": (2, 24), None: (5, 31)}

    with pytest.raises(ValueError):
        rollup_aggregate(ds, [], "v")


# -------------------------------------------------------- embedding centroids
def test_embedding_centroids_exact():
    """Fixed-point per-group centroid: snap-then-sum is exact across
    blocks, and negative sums use TRUNCATING division (the DuckDB //
    semantics)."""
    from aisafetyintervention_literatureextraction_ray.stages.similarity import embedding_centroids

    vecs = [[0.5, -0.3], [0.25, -0.3], [1.0, 2.0]]
    ds = rd.from_arrow(pa.table({
        "g": ["a", "a", "b"],
        "embedding": pa.array(vecs, pa.list_(pa.float32()))}
    )).repartition(3)  # force multi-block partials
    out = embedding_centroids(ds, group_col="g").to_pandas()
    rows = {(r.g, r.dim): (r.sum_fp, r.n_vecs, r.centroid_fp)
            for r in out.itertuples()}
    s_a1 = int(np.floor(np.float64(np.float32(-0.3)) * 1e9)) * 2
    assert rows[("a", 0)] == (750000000, 2, 375000000)
    # negative: trunc(-599999994.../2) == -(599999.../2 floored on abs)
    assert rows[("a", 1)] == (s_a1, 2, -((-s_a1) // 2))
    assert rows[("b", 0)] == (10**9, 1, 10**9)
    assert rows[("b", 1)] == (2 * 10**9, 1, 2 * 10**9)
    assert len(rows) == 4


# -------------------------------------------------------- cohort retention
def test_cohort_retention_cells():
    """Hand-computed cohort cells: user u1 first active day 0 and
    again day 2; u2 first day 2 only; duplicate same-day events count
    once per (user, day)."""
    from aisafetyintervention_literatureextraction_ray.stages.window import cohort_retention

    day = 86_400_000_000
    ts = pa.array([1, 5, 2 * day + 3, 2 * day + 9, 2 * day + 4],
                  pa.int64()).cast(pa.timestamp("us"))
    ds = rd.from_arrow(pa.table({
        "user_id": pa.array([1, 1, 1, 1, 2], pa.int64()), "ts": ts}))
    out = cohort_retention(ds).to_pandas()
    cells = {(r.cohort_day, r.offset_days): r.n_users
             for r in out.itertuples()}
    assert cells == {(0, 0): 1, (0, 2): 1, (2, 0): 1}


# -------------------------------------------------------- snapshot diff
def test_snapshot_diff_statuses():
    """added / removed / changed decode from one keyed aggregate;
    unchanged keys are absent."""
    from aisafetyintervention_literatureextraction_ray.functions.agg import snapshot_diff

    old = rd.from_arrow(pa.table({
        "k": pa.array([1, 2, 3], pa.int64()),
        "h": ["a", "b", "c"]}))
    new = rd.from_arrow(pa.table({
        "k": pa.array([2, 3, 4], pa.int64()),
        "h": ["b", "C", "d"]}))
    out = snapshot_diff(old, new, key_col="k", hash_col="h").to_pandas()
    assert dict(zip(out["k"], out["status"])) == {
        1: "removed", 3: "changed", 4: "added"}


# -------------------------------------------------------- RRF fusion
def test_rrf_fuse_integer_semantics():
    """Integer reciprocal-rank fusion: hand-checked sums, ties break
    by id ascending, `top` truncates."""
    from aisafetyintervention_literatureextraction_ray.functions.rank import rrf_fuse

    out = rrf_fuse([[10, 20, 30], [20, 10]], k=60)
    m = dict(zip(out["doc_id"], out["rrf_fp"]))
    s = 1_000_000
    assert m == {10: s // 61 + s // 62, 20: s // 62 + s // 61,
                 30: s // 63}
    # 10 and 20 tie exactly -> id ascending
    assert out["doc_id"].tolist() == [10, 20, 30]
    assert rrf_fuse([[1, 2, 3]], top=2)["doc_id"].tolist() == [1, 2]


@pytest.mark.parametrize("seed,n_nodes,n_edges,k,placement", [
    (2, 25, 90, 3, 0),         # forced DISTRIBUTED path
    (2, 25, 90, 3, 500_000),   # measured driver fast path, same input
    (8, 15, 45, 4, 0),
    (8, 15, 45, 4, 500_000),
    (4, 30, 29, 3, 0),         # tree-ish: everything peels
    (4, 30, 29, 3, 500_000),
], indirect=["placement"])
def test_ktruss_matches_peel_reference(seed, n_nodes, n_edges, k,
                                       placement):
    """k-truss (BOTH paths) == the sequential support peel over the
    undirected simple graph; reported support is the within-truss
    triangle count per surviving edge."""
    import random
    from itertools import combinations

    from aisafetyintervention_literatureextraction_ray.functions.graph import (
        ktruss,
    )

    rng = random.Random(seed)
    raw = [(f"v{rng.randrange(n_nodes)}", f"v{rng.randrange(n_nodes)}")
           for _ in range(n_edges)]
    und = {tuple(sorted(p)) for p in raw if p[0] != p[1]}
    while True:
        adj: dict[str, set[str]] = {}
        for a, b in und:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        sup = {e: len((adj[e[0]] & adj[e[1]])) for e in und}
        nxt = {e for e in und if sup[e] >= k - 2}
        if nxt == und:
            break
        und = nxt
    want = {e: sup[e] for e in und}

    ds = rd.from_arrow(pa.table({"src": [a for a, _ in raw],
                                 "dst": [b for _, b in raw]}))
    got = ktruss(ds, k=k).to_pandas()
    got_map = ({} if len(got) == 0
               else {(a, b): s for a, b, s in
                     zip(got["a"], got["b"], got["support"])})
    assert got_map == want


@pytest.mark.parametrize("placement", [0, 500_000], indirect=["placement"])
def test_ktruss_empty_and_star(placement):
    """Empty input keeps its typed schema; a star graph (triangle-free
    but 2-core-dense at the hub) has an EMPTY 3-truss — the semantics
    that distinguish trusses from cores."""
    from aisafetyintervention_literatureextraction_ray.functions.graph import (
        ktruss,
    )

    empty = rd.from_arrow(pa.table({"src": pa.array([], pa.string()),
                                    "dst": pa.array([], pa.string())}))
    out = ktruss(empty, k=3)
    assert out.schema().names == ["a", "b", "support"]
    assert out.count() == 0

    star = rd.from_arrow(pa.table({
        "src": ["hub"] * 6,
        "dst": [f"leaf{i}" for i in range(6)],
    }))
    assert ktruss(star, k=3).count() == 0

    with pytest.raises(ValueError):
        ktruss(star, k=2)


@pytest.mark.parametrize("seed,n_nodes,n_edges,placement", [
    (3, 25, 90, 0),            # forced DISTRIBUTED path
    (3, 25, 90, 2_000_000),    # measured driver fast path, same input
    (13, 10, 12, 0),
], indirect=["placement"])
def test_feature_propagation_matches_integer_reference(
        seed, n_nodes, n_edges, placement):
    """feature_propagation (BOTH paths) == the same integer
    mean-aggregation recurrence run sequentially — BIT-exact, the
    property the unrolled-CTE oracle relies on."""
    import random
    from collections import defaultdict

    from aisafetyintervention_literatureextraction_ray.functions.graph import (
        feature_propagation,
    )

    rng = random.Random(seed)
    raw = [(f"n{rng.randrange(n_nodes)}", f"n{rng.randrange(n_nodes)}")
           for _ in range(n_edges)]
    ds = rd.from_arrow(pa.table({"src": [a for a, _ in raw],
                                 "dst": [b for _, b in raw]}))
    und = sorted({(min(a, b), max(a, b)) for a, b in raw if a != b})
    nodes = sorted({x for p in und for x in p})
    adj = defaultdict(list)
    for a, b in und:
        adj[a].append(b)
        adj[b].append(a)
    # features only for HALF the nodes: the other half must start at 0
    feats = {v: (len(v) * 1_000_000) for i, v in enumerate(nodes)
             if i % 2 == 0}
    fds = rd.from_arrow(pa.table({
        "node_id": list(feats), "f": list(feats.values())}))

    f = {v: feats.get(v, 0) for v in nodes}
    for _ in range(2):
        f = {v: sum(f[u] for u in adj[v]) // len(adj[v]) for v in nodes}

    got = feature_propagation(ds, fds, rounds=2).to_pandas()
    assert dict(zip(got["node_id"], got["f"])) == f


def test_feature_propagation_empty():
    from aisafetyintervention_literatureextraction_ray.functions.graph import (
        feature_propagation,
    )

    empty = rd.from_arrow(pa.table({"src": pa.array([], pa.string()),
                                    "dst": pa.array([], pa.string())}))
    feats = rd.from_arrow(pa.table({"node_id": pa.array([], pa.string()),
                                    "f": pa.array([], pa.int64())}))
    out = feature_propagation(empty, feats).to_pandas()
    assert len(out) == 0


@pytest.mark.parametrize("placement", [0, 2_000_000], indirect=["placement"])
def test_dag_levels_matches_reference(placement):
    """dag_levels (BOTH paths) == longest-path depth computed by a
    sequential DP over a topological order."""
    import random

    from aisafetyintervention_literatureextraction_ray.functions.graph import (
        dag_levels,
    )

    rng = random.Random(5)
    n = 40
    # random DAG: edges only from lower to higher index
    raw = sorted({(f"n{a:02d}", f"n{b:02d}")
                  for _ in range(160)
                  for a, b in [sorted(rng.sample(range(n), 2))]})
    ds = rd.from_arrow(pa.table({"src": [a for a, _ in raw],
                                 "dst": [b for _, b in raw]}))
    nodes = sorted({x for p in raw for x in p})
    lev = {v: 0 for v in nodes}
    for a, b in sorted(raw):  # topological: lexicographic == index order
        lev[b] = max(lev[b], lev[a] + 1)
    got = dag_levels(ds).to_pandas()
    assert dict(zip(got["node_id"], got["level"])) == lev


@pytest.mark.parametrize("placement", [0, 2_000_000], indirect=["placement"])
def test_dag_levels_rejects_cycles(placement):
    from aisafetyintervention_literatureextraction_ray.functions.graph import (
        dag_levels,
    )

    cyc = rd.from_arrow(pa.table({"src": ["a", "b", "c"],
                                  "dst": ["b", "c", "a"]}))
    with pytest.raises(RuntimeError, match="cycle"):
        dag_levels(cyc, max_rounds=10)
    loop = rd.from_arrow(pa.table({"src": ["a"], "dst": ["a"]}))
    with pytest.raises(ValueError, match="self-loop"):
        dag_levels(loop)


# -------------------------------------------------------- minimizer sketch
def test_minimizer_stats_contracts():
    """Empty text is (0,0,0); short text (< 8 cps) hashes one gram and
    one window with one minimizer; repetitive text collapses its
    distinct-minimizer count; counts respect the w-window algebra."""
    from aisafetyintervention_literatureextraction_ray.functions.text import minimizer_stats

    g, w, m = minimizer_stats(["", "abc", "x" * 100, "abcdefgh" * 8],
                              w=16)
    assert (g[0], w[0], m[0]) == (0, 0, 0)
    assert (g[1], w[1], m[1]) == (1, 1, 1)
    # constant text: every 8-gram hash equal -> exactly one minimizer
    assert g[2] == 100 - 7 and w[2] == g[2] - 15 and m[2] == 1
    # periodic text: at most 8 distinct 8-grams
    assert m[3] <= 8
    # window algebra: n_windows = max(n_grams - w + 1, 1) when grams exist
    assert all(wi == max(gi - 15, 1) for gi, wi in zip(g, w) if gi > 0)


# -------------------------------------------------------- product quantization
def test_product_quantization_contracts():
    """Codes are in range, errors nonnegative, and a vector equal to a
    codebook seed reconstructs its own subvectors exactly (err 0 when
    the seed stays a centroid); indivisible dims and empty input are
    handled."""
    from aisafetyintervention_literatureextraction_ray.stages.similarity import product_quantization

    vecs = [[float(i + j) / 10.0 for j in range(8)] for i in range(6)]
    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array(range(6), pa.int64()),
        "embedding": pa.array(vecs, pa.list_(pa.float32()))}))
    out = product_quantization(ds, n_sub=4, k=2, n_iters=1).to_pandas()
    assert len(out) == 6
    for j in range(4):
        assert out[f"code_{j}"].between(0, 1).all()
    assert (out["err"] >= 0).all()
    # n_iters=1 -> centroids ARE the two smallest-id vectors: those
    # vectors quantize to themselves with zero error
    assert out.sort_values("vec_id")["err"].iloc[0] == 0
    assert out.sort_values("vec_id")["err"].iloc[1] == 0

    with pytest.raises(ValueError):
        product_quantization(ds, n_sub=3, k=2, n_iters=1).to_pandas()

    empty = rd.from_arrow(pa.table({
        "vec_id": pa.array([], pa.int64()),
        "embedding": pa.array([], pa.list_(pa.float32()))}))
    out2 = product_quantization(empty, n_sub=4, k=2, n_iters=1)
    assert out2.count() == 0
    assert out2.schema().names == ["vec_id", "code_0", "code_1",
                                   "code_2", "code_3", "err"]


# ------------------------------------------------- minimum spanning forest
@pytest.mark.parametrize("seed,n_nodes,n_edges", [(7, 60, 200),
                                                  (11, 40, 45),
                                                  (13, 30, 400)])
def test_msf_boruvka_matches_kruskal(seed, n_nodes, n_edges, placement):
    """Boruvka in the one task must be bit-equal to the bucketed body
    and to a plain-Python Kruskal over the same md5 weights (the MSF is
    unique under distinct weights), and the forest must satisfy
    |F| = |V| - #components."""
    import hashlib

    from aisafetyintervention_literatureextraction_ray.functions.graph import (
        connected_components,
        minimum_spanning_forest,
    )

    rng = np.random.default_rng(seed)
    src = rng.integers(0, n_nodes, n_edges)
    dst = rng.integers(0, n_nodes, n_edges)
    edges = rd.from_arrow(pa.table(
        {"src": [f"n{int(x):03d}" for x in src],
         "dst": [f"n{int(x):03d}" for x in dst]}))

    drv = minimum_spanning_forest(edges).to_pandas() \
        .sort_values(["a", "b"]).reset_index(drop=True)
    placement(0)
    dist = minimum_spanning_forest(edges) \
        .to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(drv, dist)

    labels = connected_components(
        edges.map_batches(
            lambda t: t.filter(
                pa.compute.invert(pa.compute.equal(t["src"],
                                                   t["dst"]))),
            batch_format="pyarrow"),
        id_a="src", id_b="dst").to_pandas()
    n_v = labels["node_id"].nunique()
    n_c = labels["component_id"].nunique()
    assert len(drv) == n_v - n_c

    # every forest edge is a real input edge
    real = {(min(a, b), max(a, b))
            for a, b in zip([f"n{int(x):03d}" for x in src],
                            [f"n{int(x):03d}" for x in dst]) if a != b}
    assert all((a, b) in real for a, b in zip(drv["a"], drv["b"]))

    parent: dict[str, str] = {}

    def find(x: str) -> str:
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    kruskal = []
    for w, a, b in sorted(
            (hashlib.md5(k.encode()).hexdigest() + "|" + k, a, b)
            for a, b in real for k in [f"{len(a)}:{a}|{len(b)}:{b}"]):
        if find(a) != find(b):
            parent[find(a)] = find(b)
            kruskal.append((a, b, w))
    assert sorted(zip(drv["a"], drv["b"], drv["w"])) == sorted(kruskal)


def test_msf_empty_graph():
    from aisafetyintervention_literatureextraction_ray.functions.graph import (
        minimum_spanning_forest,
    )

    edges = rd.from_arrow(pa.table({
        "src": pa.array(["x", "y"], pa.string()),
        "dst": pa.array(["x", "y"], pa.string())}))  # only self-loops
    out = minimum_spanning_forest(edges)
    assert out.count() == 0
    # empty Ray to_pandas drops column names; assert the typed schema
    sch = out.schema()
    assert list(sch.names) == ["a", "b", "w"]


# ------------------------------------ propagate family: degenerate inputs
_DEGENERATE_GRAPHS = {
    # name: (src, dst, weight, seed)
    "empty": ([], [], [], "a"),
    "self_loop": (["x"], ["x"], [3], "x"),
    "single_edge": (["a"], ["b"], [7], "a"),
}
_B, _S = 10**12, 10**12  # default Katz beta / PageRank and HITS scale
# expected (node -> value) per (algorithm, graph); empty graphs give {}
_DEGENERATE_WANT = {
    "connected_components": {"self_loop": {"x": "x"},
                             "single_edge": {"a": "a", "b": "a"}},
    # a lone self-loop keeps all mass: 0.15 r + 0.85 r == r exactly
    "pagerank": {"self_loop": {"x": _S},
                 "single_edge": {"a": 75 * 10**9, "b": 13875 * 10**7}},
    "pagerank_seeded": {"self_loop": {"x": _S},
                        "single_edge": {"a": 15 * 10**10,
                                        "b": 1275 * 10**8}},
    "pagerank_weighted": {"self_loop": {"x": _S},
                          "single_edge": {"a": 75 * 10**9,
                                          "b": 13875 * 10**7}},
    # Katz / HITS / feature propagation drop self-loops: nothing left
    "katz_centrality": {"self_loop": {},
                        "single_edge": {"a": _B, "b": _B + _B // 2}},
    "hits": {"self_loop": {},
             "single_edge": {"a": (_S, 0), "b": (0, _S)}},
    "bfs_hops": {"self_loop": {"x": 0}, "single_edge": {"a": 0, "b": 1}},
    "shortest_paths": {"self_loop": {"x": 0},
                       "single_edge": {"a": 0, "b": 1}},
    "feature_propagation": {"self_loop": {},
                            "single_edge": {"a": 10, "b": 0}},
}


def _run_ported(algo: str, ds, seed: str):
    from aisafetyintervention_literatureextraction_ray.functions import (
        graph as g,
    )

    kw = {}
    if algo == "connected_components":
        return g.connected_components(ds, id_a="src", id_b="dst", **kw), [
            "node_id", "component_id"]
    if algo.startswith("pagerank"):
        extra = {"pagerank_seeded": {"seeds": [seed]},
                 "pagerank_weighted": {"weight": "w"}}.get(algo, {})
        return g.pagerank(ds, **extra, **kw), ["node_id", "rank_fp"]
    if algo == "katz_centrality":
        return g.katz_centrality(ds, **kw), ["node_id", "katz_fp"]
    if algo == "hits":
        return g.hits(ds, **kw), ["node_id", "hub_fp", "auth_fp"]
    if algo == "bfs_hops":
        return g.bfs_hops(ds, seeds=[seed], **kw), ["node_id", "hops"]
    if algo == "shortest_paths":
        return g.shortest_paths(ds, seeds=[seed], **kw), ["node_id", "dist"]
    feats = rd.from_arrow(pa.table({"node_id": [seed],
                                    "f": pa.array([10], pa.int64())}))
    return g.feature_propagation(ds, feats, **kw), ["node_id", "f"]


@pytest.mark.parametrize("placement", [0, 2_000_000], indirect=["placement"])
@pytest.mark.parametrize("graph", sorted(_DEGENERATE_GRAPHS))
@pytest.mark.parametrize("algo", sorted(_DEGENERATE_WANT))
def test_ported_family_degenerate_inputs(algo, graph, placement):
    """Every algorithm on the propagate primitive, on BOTH paths, on an
    empty, a self-loop-only and a single-edge graph: typed-empty output
    with the documented columns, or the hand-computed exact values."""
    src, dst, w, seed = _DEGENERATE_GRAPHS[graph]
    ds = rd.from_arrow(pa.table({"src": pa.array(src, pa.string()),
                                 "dst": pa.array(dst, pa.string()),
                                 "w": pa.array(w, pa.int64())}))
    out, cols = _run_ported(algo, ds, seed)
    want = _DEGENERATE_WANT[algo].get(graph, {})
    if not want:
        assert out.schema().names == cols
        assert out.count() == 0
        return
    got = out.to_pandas()
    assert list(got.columns) == cols
    assert {r[0]: (tuple(r[1:]) if len(r) > 2 else r[1])
            for r in got.itertuples(index=False)} == want


# ------------------------------------------ documented int64 caller bounds
@pytest.mark.parametrize("placement", [0, 2_000_000], indirect=["placement"])
def test_weighted_pagerank_refuses_weight_scale_overflow(placement):
    """max(w) * scale must stay below 2^63: exactly 2^63 is refused."""
    from aisafetyintervention_literatureextraction_ray.functions.graph import (
        pagerank,
    )

    ds = rd.from_arrow(pa.table({"src": ["a"], "dst": ["b"],
                                 "w": pa.array([2**40], pa.int64())}))
    with pytest.raises(ValueError, match=r"reaches 2\^63"):
        pagerank(ds, weight="w", scale=2**23)


@pytest.mark.parametrize("placement", [0, 2_000_000], indirect=["placement"])
def test_katz_refuses_beta_overflow(placement):
    """max_in_degree * 2 * beta must stay below 2^63."""
    from aisafetyintervention_literatureextraction_ray.functions.graph import (
        katz_centrality,
    )

    ds = rd.from_arrow(pa.table({"src": ["a"], "dst": ["b"]}))
    with pytest.raises(ValueError, match=r"reaches 2\^63"):
        katz_centrality(ds, beta=2**62)


@pytest.mark.parametrize("placement", [0, 2_000_000], indirect=["placement"])
def test_hits_refuses_degree_scale_overflow(placement):
    """max(in_deg, out_deg) * scale must stay below 2^63 (out-degree 2
    at scale 2^62)."""
    from aisafetyintervention_literatureextraction_ray.functions.graph import (
        hits,
    )

    ds = rd.from_arrow(pa.table({"src": ["a", "a"], "dst": ["b", "c"]}))
    with pytest.raises(ValueError, match=r"reaches 2\^63"):
        hits(ds, scale=2**62)


@pytest.mark.parametrize("placement", [0, 2_000_000], indirect=["placement"])
def test_sssp_refuses_rounds_cost_overflow(placement):
    """n_rounds * max_cost must stay below 2^63."""
    from aisafetyintervention_literatureextraction_ray.functions.graph import (
        shortest_paths,
    )

    ds = rd.from_arrow(pa.table({"src": ["a"], "dst": ["b"],
                                 "c": pa.array([2**62], pa.int64())}))
    with pytest.raises(ValueError, match=r"reaches 2\^63"):
        shortest_paths(ds, weight="c", seeds=["a"], n_rounds=2)


@pytest.mark.parametrize("placement", [0, 2_000_000], indirect=True)
def test_feature_propagation_refuses_feature_degree_overflow(placement):
    """max(f) * max_deg must stay below 2^63: two nodes with feature
    2^62 sharing one neighbor would wrap that neighbor's int64 sum."""
    from aisafetyintervention_literatureextraction_ray.functions.graph import (
        feature_propagation,
    )

    ds = rd.from_arrow(pa.table({"src": ["a", "b"], "dst": ["c", "c"]}))
    feats = rd.from_arrow(pa.table({"node_id": ["a", "b"],
                                    "f": pa.array([2**62] * 2, pa.int64())}))
    with pytest.raises(ValueError, match=r"reaches 2\^63"):
        feature_propagation(ds, feats)


def test_one_task_placement_no_driver_gather(monkeypatch):
    """At the default edge limit each algorithm runs in one Ray task:
    no table reaches the driver through ``ray.get`` or leaves it
    through ``ray.put``, and table results come back as block refs."""
    import ray

    from aisafetyintervention_literatureextraction_ray.functions import graph

    rng = np.random.default_rng(5)
    ds = rd.from_arrow(pa.table({
        "src": [f"n{x}" for x in rng.integers(0, 30, 90)],
        "dst": [f"n{x}" for x in rng.integers(0, 30, 90)]})).materialize()
    gathered, puts = [], []
    real_get, real_put = ray.get, ray.put

    def get(refs, *a, **kw):
        out = real_get(refs, *a, **kw)
        gathered.extend(x for x in (out if isinstance(out, list) else [out])
                        if isinstance(x, (pa.Table, pd.DataFrame)))
        return out

    def put(value, *a, **kw):
        if isinstance(value, (pa.Table, pd.DataFrame)):
            puts.append(type(value))
        return real_put(value, *a, **kw)

    monkeypatch.setattr(ray, "get", get)
    monkeypatch.setattr(ray, "put", put)
    outs = [graph.pagerank(ds), graph.kcore(ds), graph.luby_mis(ds)]
    n_tri = graph.triangle_count(ds)
    refs = [out.to_arrow_refs() for out in outs]
    assert not gathered and not puts, (gathered, puts)
    monkeypatch.undo()
    assert [len(r) for r in refs] == [1, 1, 1]
    assert isinstance(n_tri, int) and n_tri > 0
    assert all(t.num_rows for r in refs for t in ray.get(r))
