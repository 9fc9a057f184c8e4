"""Dedup operators: exact, MinHash+LSH, SimHash, n-gram Jaccard."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from aisafetyintervention_literatureextraction_ray.stages.dedup import (
    MinHasher,
    SimHasher,
    exact_dedup,
    minhash_dedup_pairs,
    ngram_jaccard,
    pairs_from_signatures,
    popcount64,
    simhash_dedup_pairs,
)

BASE = ("the quick brown fox jumps over the lazy dog while the cat "
        "watches from the warm windowsill in the afternoon sun")


def _corpus():
    rng = np.random.default_rng(7)
    vocab = ("lorem ipsum dolor sit amet consectetur adipiscing elit sed do "
             "eiusmod tempor incididunt ut labore et dolore magna aliqua").split()
    rows = []
    for i in range(30):  # unrelated docs
        rows.append((f"u{i:02d}", " ".join(rng.choice(vocab, size=25))))
    rows.append(("dup_a", BASE))
    rows.append(("dup_b", BASE))                          # exact dup
    rows.append(("near_a", BASE.replace("lazy", "sleepy")))  # near dup of BASE
    return pd.DataFrame(rows, columns=["doc_id", "text"])


@pytest.fixture(scope="module")
def ds():
    return rd.from_pandas(_corpus())


def test_exact_dedup(ds):
    out = exact_dedup(ds, "text", "doc_id").to_pandas()
    assert len(out) == len(_corpus()) - 1           # one exact dup removed
    assert "dup_a" in set(out["doc_id"])            # min-id kept
    assert "dup_b" not in set(out["doc_id"])


def test_minhash_pairs(ds):
    pairs = minhash_dedup_pairs(ds, jaccard_threshold=0.5).to_pandas()
    got = set(map(tuple, pairs[["id_a", "id_b"]].itertuples(index=False)))
    assert ("dup_a", "dup_b") in got
    exact = pairs[(pairs.id_a == "dup_a") & (pairs.id_b == "dup_b")]
    assert exact["jaccard"].iloc[0] == 1.0
    assert ("dup_a", "near_a") in got or ("near_a", "dup_a") in got
    # no false pairs among unrelated docs
    assert not any(a.startswith("u") and b.startswith("u") for a, b in got)


def test_simhash_pairs(ds):
    pairs = simhash_dedup_pairs(ds, max_hamming=3).to_pandas()
    got = set(map(tuple, pairs[["id_a", "id_b"]].itertuples(index=False)))
    assert ("dup_a", "dup_b") in got
    ham = pairs[(pairs.id_a == "dup_a") & (pairs.id_b == "dup_b")]["hamming"]
    assert ham.iloc[0] == 0
    assert not any(a.startswith("u") and b.startswith("u") for a, b in got)


def test_minhash_estimate_tracks_true_jaccard():
    mh = MinHasher(num_perm=128)
    a, b = BASE, BASE.replace("lazy", "sleepy")
    sig_a, sig_b = mh.signature(a), mh.signature(b)
    est = float((sig_a == sig_b).mean())
    true = ngram_jaccard(a, b, k=3)
    assert abs(est - true) < 0.2


def test_simhash_determinism():
    h1 = SimHasher().simhash(BASE)
    h2 = SimHasher().simhash(BASE)
    assert h1 == h2
    assert SimHasher().simhash(BASE + " extra") != h1


def test_ngram_jaccard_bounds():
    assert ngram_jaccard(BASE, BASE) == 1.0
    assert ngram_jaccard(BASE, "completely different words here") == 0.0


def test_pairs_from_signatures_distributed_join():
    """Planted dup is found via the band -> bucket pairs -> score
    chain; empty and ragged signatures are dropped, not fatal."""
    from aisafetyintervention_literatureextraction_ray.stages.dedup import (
        MinHasher,
        pairs_from_signatures,
    )

    mh = MinHasher(num_perm=32)
    texts = {f"u{i:02d}": " ".join(f"w{i}_{j}" for j in range(40))
             for i in range(20)}
    texts["dup_a"] = BASE
    texts["dup_b"] = BASE
    ids = sorted(texts)
    sigs = mh.signatures([texts[i] for i in ids])
    # low 32 bits, as the extraction pass stores them (equality preserved)
    rows = [{"doc_id": i, "minhash_sig": [int(x) & 0xFFFFFFFF for x in s]}
            for i, s in zip(ids, sigs)]
    rows.append({"doc_id": "legacy_empty", "minhash_sig": []})
    rows.append({"doc_id": "ragged", "minhash_sig": [1, 2, 3]})
    ds = rd.from_pandas(pd.DataFrame(rows))
    out = pairs_from_signatures(ds, jaccard_threshold=0.9,
                                num_bands=8, num_perm=32).to_pandas()
    got = set(map(tuple, out[["id_a", "id_b"]].itertuples(index=False)))
    assert ("dup_a", "dup_b") in got
    assert out.set_index(["id_a", "id_b"]).loc[("dup_a", "dup_b"),
                                               "jaccard"] == 1.0
    flat = {x for p in got for x in p}
    assert "legacy_empty" not in flat and "ragged" not in flat


def test_popcount64_matches_python():
    rng = np.random.default_rng(0)
    x = np.concatenate([
        rng.integers(0, 2**63, size=200, dtype=np.uint64),
        np.array([0, 1, 2**63, 0xFFFFFFFFFFFFFFFF], dtype=np.uint64),
    ])
    got = popcount64(x)
    exp = np.array([bin(int(v)).count("1") for v in x], dtype=np.int64)
    assert (got == exp).all()
    assert popcount64(np.empty(0, dtype=np.uint64)).shape == (0,)


def test_simhash_oversized_bucket_capped():
    """A boilerplate bucket far above max_group must complete in bounded
    work: the verifier truncates to the max_group lowest ids (same
    policy as the MinHash verifier) instead of going quadratic."""
    n, cap = 300, 64
    texts = ["identical boilerplate text shared by every single row"] * n
    ds = rd.from_pandas(pd.DataFrame({"doc_id": np.arange(n), "text": texts}))
    pairs = simhash_dedup_pairs(ds, max_hamming=2,
                                max_group=cap).to_pandas()
    # only pairs among the `cap` lowest doc_ids survive the truncation
    assert len(pairs) == cap * (cap - 1) // 2
    assert int(pairs[["id_a", "id_b"]].to_numpy().max()) < cap
    assert (pairs["hamming"] == 0).all()


def test_neardup_starts_no_map_actor(ds):
    """MinHash and SimHash signatures are stateless tasks over a
    per-process hasher: the near-dup functions start no actor pool."""
    from ray._private.state import actors

    def map_workers():
        return sum("MapWorker" in a.get("ActorClassName", "")
                   for a in actors().values())

    before = map_workers()
    assert minhash_dedup_pairs(ds, jaccard_threshold=0.5).count() > 0
    assert simhash_dedup_pairs(ds, max_hamming=3).count() > 0
    assert map_workers() == before


def test_exact_dedup_exchange_is_physical_choice(ds):
    """shuffle vs coalesce is a physical exchange choice only: the
    dedup output must be identical either way."""

    def run(**kw):
        out = exact_dedup(ds, "text", "doc_id", with_counts=True, **kw)
        return (out.to_pandas().sort_values("doc_id")
                .reset_index(drop=True)[["doc_id", "n_copies"]])

    assert run(exchange="coalesce").equals(run(exchange="shuffle"))


def test_pairs_from_signatures_join_branch_matches_broadcast(monkeypatch):
    """The signature limit is a physical placement choice only: forcing
    the bucketed placement (limit -1) must produce exactly the pairs of
    the one-task placement on a planted-boilerplate corpus."""
    from aisafetyintervention_literatureextraction_ray.stages import dedup
    from aisafetyintervention_literatureextraction_ray.stages.dedup import (
        MinHasher,
        pairs_from_signatures,
    )

    mh = MinHasher(num_perm=32)
    texts = {f"u{i:02d}": " ".join(f"w{i}_{j}" for j in range(40))
             for i in range(15)}
    for i in range(6):  # boilerplate clones that force many candidates
        texts[f"bp{i}"] = BASE
    ids = sorted(texts)
    sigs = mh.signatures([texts[i] for i in ids])
    # low 32 bits, as the extraction pass stores them (equality preserved)
    ds = rd.from_pandas(pd.DataFrame(
        [{"doc_id": i, "minhash_sig": [int(x) & 0xFFFFFFFF for x in s]}
         for i, s in zip(ids, sigs)]))

    def run(limit):
        monkeypatch.setattr(dedup, "_LOCAL_SIG_LIMIT", limit)
        out = pairs_from_signatures(ds, jaccard_threshold=0.9, num_bands=8,
                                    num_perm=32).to_pandas()
        return (out.sort_values(["id_a", "id_b"])
                .reset_index(drop=True)[["id_a", "id_b", "jaccard"]])

    bc, jn = run(2_000_000), run(-1)
    assert len(bc) == 6 * 5 // 2  # all-pairs among the clones
    assert bc.equals(jn)


@pytest.mark.parametrize("limit", [2_000_000, -1])
def test_repeated_candidate_id_raises_on_both_placements(monkeypatch, limit):
    """An id with two signature rows that lands in a candidate pair has
    no single signature to score: both placements raise rather than
    pick one (MinHash) or emit the pair twice (SimHash)."""
    from aisafetyintervention_literatureextraction_ray.stages import dedup

    monkeypatch.setattr(dedup, "_LOCAL_SIG_LIMIT", limit)
    sig = list(range(32))
    ds = rd.from_pandas(pd.DataFrame({
        "doc_id": ["a", "b", "a"],
        "minhash_sig": [sig, sig, [x + 1 for x in sig]]}))
    with pytest.raises(Exception, match="must be unique"):
        pairs_from_signatures(ds, num_perm=32).to_pandas()
    ds = rd.from_pandas(pd.DataFrame({"doc_id": [1, 2, 1],
                                      "text": [BASE, BASE, "other words"]}))
    with pytest.raises(Exception, match="must be unique"):
        simhash_dedup_pairs(ds).to_pandas()


def test_truncation_is_reported_not_silent():
    """An oversized planted band bucket must surface its truncation
    count through the runstats actor (no-silent-caps rule)."""
    import ray

    from aisafetyintervention_literatureextraction_ray.functions.runstats import (
        truncation_stats,
    )

    truncation_stats(reset=True)
    n, cap = 200, 64
    texts = ["identical boilerplate text shared by every single row"] * n
    ds = rd.from_pandas(pd.DataFrame({"doc_id": np.arange(n), "text": texts}))
    simhash_dedup_pairs(ds, max_hamming=2, max_group=cap).to_pandas()
    # the counter actor is async fire-and-forget; give it a beat
    import time

    snap = {}
    for _ in range(50):
        snap = truncation_stats()
        if "simhash_pair_verifier.band_bucket" in snap:
            break
        time.sleep(0.1)
    stat = snap["simhash_pair_verifier.band_bucket"]
    # 4 simhash bands of identical text -> 4 truncated buckets
    assert stat["groups"] == 4
    assert stat["dropped"] == 4 * (n - cap)
    truncation_stats(reset=True)


# ------------------------------------------------- sorted neighborhood
def test_sorted_neighborhood_pairs_matches_bruteforce():
    """Window pairs == brute-force rank-window over a per-group sort;
    gaps are exact rank distances; window < 1 raises."""
    import random

    from aisafetyintervention_literatureextraction_ray.stages.dedup import (
        sorted_neighborhood_pairs,
    )

    rng = random.Random(21)
    rows = [{"g": f"s{rng.randrange(4)}", "k": rng.randrange(10),
             "id": i} for i in range(60)]
    ds = rd.from_pandas(pd.DataFrame(rows))
    got = sorted_neighborhood_pairs(
        ds, group_col="g", order_cols=["k", "id"], id_col="id",
        window=3).to_pandas()

    ref = set()
    bygroup: dict[str, list] = {}
    for r in rows:
        bygroup.setdefault(r["g"], []).append(r)
    for g, rs in bygroup.items():
        rs = sorted(rs, key=lambda r: (r["k"], r["id"]))
        for i, a in enumerate(rs):
            for o in range(1, 4):
                if i + o < len(rs):
                    ref.add((a["id"], rs[i + o]["id"], o))
    assert {(r.id_a, r.id_b, r.gap) for r in got.itertuples()} == ref

    import pytest as _pytest
    with _pytest.raises(ValueError):
        sorted_neighborhood_pairs(ds, group_col="g",
                                  order_cols=["k", "id"], id_col="id",
                                  window=0)


# ---------------------------------------------------- prefix Jaccard join
def _jaccard_reference(texts, num, den):
    """Brute-force exact token-set Jaccard pairs."""
    import re

    sets = {i: set(t for t in re.split("[^a-z]+", s.lower()) if t)
            for i, s in texts.items()}
    out = {}
    ids = sorted(sets)
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            if not sets[a] or not sets[b]:
                continue
            inter = len(sets[a] & sets[b])
            union = len(sets[a] | sets[b])
            if inter * den >= num * union:
                out[(a, b)] = (inter, union, inter * 1_000_000 // union)
    return out


@pytest.mark.parametrize("driver_threshold", [0, 2_000_000])
def test_prefix_jaccard_matches_bruteforce(driver_threshold):
    """Both paths == brute-force all-pairs Jaccard at t=0.6 on a mixed
    corpus (clones, near-clones, disjoint, empty text): the prefix
    filter loses NO qualifying pair."""
    import random

    from aisafetyintervention_literatureextraction_ray.stages.dedup import (
        prefix_jaccard_pairs,
    )

    rng = random.Random(3)
    vocab = [f"w{i:02d}" for i in range(40)]
    texts = {}
    for i in range(24):
        base = rng.sample(vocab, 12)
        texts[2 * i] = " ".join(base)
        drop = rng.randrange(3)
        texts[2 * i + 1] = " ".join(base[drop:] + rng.sample(vocab, drop))
    texts[100] = ""          # empty text: never paired
    texts[101] = "zz9 only"  # tokens outside everyone else's sets
    ref = _jaccard_reference(texts, 3, 5)
    assert ref  # the generator above must produce qualifying pairs

    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(sorted(texts), pa.int64()),
        "text": pa.array([texts[k] for k in sorted(texts)])}
    )).repartition(4)
    got = prefix_jaccard_pairs(ds, threshold=(3, 5),
                               driver_threshold=driver_threshold
                               ).to_pandas()
    got_map = {(r.id_a, r.id_b): (r.inter_n, r.union_n, r.jac_fp)
               for r in got.itertuples()}
    assert got_map == ref


def test_token_cache_bound_keeps_signatures(monkeypatch):
    """The token cache clears itself when a miss finds it full; a clear
    in the middle of a batch changes no signature byte."""
    from aisafetyintervention_literatureextraction_ray.stages import dedup

    texts = _corpus()["text"].tolist()
    unbounded = MinHasher().signatures(texts)
    monkeypatch.setattr(dedup, "_TOKEN_CACHE_MAX", 8)
    mh = MinHasher()
    # the corpus has far more distinct tokens than the bound
    assert len({tok for t in texts for tok in t.split()}) > 8
    for _ in range(2):
        assert mh.signatures(texts).tobytes() == unbounded.tobytes()
        assert len(mh._tokens._cache) <= 8
