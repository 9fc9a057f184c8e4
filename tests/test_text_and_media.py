"""Text-analysis kernels and the multimodal plumbing."""

import numpy as np
import pyarrow as pa
import ray.data as rd

from aisafetyintervention_literatureextraction_ray.fixtures import make_corpus
from aisafetyintervention_literatureextraction_ray.functions.text import (
    add_fingerprint,
    add_token_count,
    detect_language,
    quality_scores,
)
from aisafetyintervention_literatureextraction_ray.stages.multimodal import (
    FEATURE_DIM,
    MEDIA_FEATURES_SCHEMA,
    MediaFeatureExtractor,
    media_features,
    synth_media_table,
)


def test_token_count():
    t = pa.table({"text": ["one two three", "  padded   tokens  ", "", "single"]})
    out = add_token_count(t).column("n_tokens").to_pylist()
    assert out == [3, 2, 0, 1]


def test_detect_language():
    t = pa.table({"text": [
        "the cat and the dog is of the house",
        "der hund und die katze ist das tier",
        "le chat et la maison est les amis",
        "xyzzy plugh qwerty",
    ]})
    out = detect_language(t).column("lang_detected").to_pylist()
    assert out == ["en", "de", "fr", "und"]


def test_quality_scores_bounds():
    t = pa.table({"text": ["the cat is on the mat and it is warm", "!!!;;;...", ""]})
    out = quality_scores(t)
    scores = out.column("quality_score").to_pylist()
    assert all(0.0 <= s <= 1.0 for s in scores)
    assert scores[0] > scores[1]
    assert out.column("n_tokens").to_pylist()[2] == 0


def test_fingerprint_stability():
    t = pa.table({"text": ["some document body text", "some document body text",
                           "some document body texT"]})
    fp = add_fingerprint(t).column("fingerprint").to_pylist()
    assert fp[0] == fp[1]
    assert fp[0] != fp[2]


def test_media_pipeline_schema_and_determinism():
    docs, _ = make_corpus(40)
    media = synth_media_table(docs)
    assert media.num_rows > 0
    out = media_features(rd.from_arrow(media), concurrency=(1, 2)).to_pandas()
    assert len(out) == media.num_rows
    assert sorted(out.columns) == sorted(MEDIA_FEATURES_SCHEMA.names)
    assert all(len(f) == FEATURE_DIM for f in out["features"])
    # deterministic: same payload -> same features
    ex = MediaFeatureExtractor()
    a = ex(media).column("features").to_pylist()
    b = ex(media).column("features").to_pylist()
    assert a == b
    # images carry resized dims; audio carries duration
    kinds = out.set_index("media_ref")["kind"]
    for _, row in out.iterrows():
        if row["kind"] == "image":
            assert row["width"] == 224 and row["duration_ms"] == -1
        if row["kind"] == "audio":
            assert row["width"] == -1 and row["duration_ms"] > 0
    assert set(kinds) <= {"image", "audio", "video"}


def test_feature_vectors_normalized():
    docs, _ = make_corpus(10)
    media = synth_media_table(docs)
    out = MediaFeatureExtractor()(media)
    for f in out.column("features").to_pylist():
        assert abs(np.linalg.norm(f) - 1.0) < 1e-4


def test_train_val_test_split_deterministic():
    """Split assignment is a pure function of the id, matches the md5
    reference computation, and weights are approximately honored."""
    import hashlib

    import pandas as pd
    import ray.data as rd

    from aisafetyintervention_literatureextraction_ray.functions.sample import (
        train_val_test_split,
    )

    df = pd.DataFrame({"doc_id": range(2000)})
    out = train_val_test_split(rd.from_pandas(df), "doc_id").to_pandas()
    out2 = train_val_test_split(rd.from_pandas(df), "doc_id").to_pandas()
    m = out.set_index("doc_id")["split"]
    assert m.equals(out2.set_index("doc_id")["split"].reindex(m.index))
    for did, split in m.items():
        c = hashlib.md5(str(did).encode()).hexdigest()[0]
        exp = "train" if c <= "b" else ("val" if c <= "d" else "test")
        assert split == exp
    frac = m.value_counts(normalize=True)
    assert abs(frac["train"] - 0.75) < 0.05


def test_redact_pii_counts_and_tokens():
    from aisafetyintervention_literatureextraction_ray.functions.text import redact_pii

    t = pa.table({"text": [
        "mail me at jane.doe+x@sub.example.org today",
        "ssn 123-45-6789 then phone 415-555-0199",
        # numeric local-part: must count as EMAIL only (rule order)
        "123-45-6789@example.com",
        "clean text",
        "",
    ]})
    out = redact_pii(t)
    assert out["n_email"].to_pylist() == [1, 0, 1, 0, 0]
    assert out["n_ssn"].to_pylist() == [0, 1, 0, 0, 0]
    assert out["n_phone"].to_pylist() == [0, 1, 0, 0, 0]
    red = out["text_redacted"].to_pylist()
    assert red[0] == "mail me at <EMAIL> today"
    assert red[1] == "ssn <ID> then phone <PHONE>"
    assert red[2] == "<EMAIL>"
    assert red[3] == "clean text"


def test_repetition_stats_known_values():
    from aisafetyintervention_literatureextraction_ray.functions.text import (
        repetition_stats,
    )

    t = pa.table({"doc_id": [1, 2, 3],
                  "text": ["a a b", "solo", ""]})
    out = repetition_stats(t)
    assert out["n_words"].to_pylist() == [3, 1, 1]
    assert out["distinct_word_ratio"].to_pylist()[0] == round(2 / 3, 6)
    assert out["top_word_ratio"].to_pylist()[0] == round(2 / 3, 6)
    # "a a" appears once over 2 bigrams
    assert out["top_bigram_ratio"].to_pylist()[0] == 0.5
    # <2 words -> bigram ratio is null (not NaN)
    assert out["top_bigram_ratio"].to_pylist()[1] is None
    assert out["top_bigram_ratio"].to_pylist()[2] is None
    # doc boundaries don't bleed into bigrams: 2-doc batch where the
    # last word of doc 1 + first word of doc 2 would form a repeat
    t2 = pa.table({"doc_id": [1, 2], "text": ["x y", "y x"]})
    o2 = repetition_stats(t2)
    assert o2["top_bigram_ratio"].to_pylist() == [1.0, 1.0]


def test_chunk_texts_known_values():
    from aisafetyintervention_literatureextraction_ray.functions.text import chunk_texts

    words = " ".join(f"w{i}" for i in range(10))
    t = pa.table({"doc_id": [1, 2], "text": [words, ""]})
    out = chunk_texts(t, chunk_words=4, overlap=1)
    rows = list(zip(out["doc_id"].to_pylist(), out["chunk_id"].to_pylist(),
                    out["chunk_text"].to_pylist(), out["n_words"].to_pylist()))
    assert rows == [
        (1, 0, "w0 w1 w2 w3", 4),
        (1, 1, "w3 w4 w5 w6", 4),
        (1, 2, "w6 w7 w8 w9", 4),
        (1, 3, "w9", 1),
        (2, 0, "", 1),  # empty text -> one empty token, DuckDB parity
    ]


def test_contamination_report_flags_overlap():
    import pandas as pd

    from aisafetyintervention_literatureextraction_ray.functions.text import (
        contamination_report, word_ngrams,
    )

    _, bench = word_ngrams(pa.array(["the quick brown fox jumps"]))
    t = pa.table({
        "doc_id": [10, 11, 12],
        "text": ["a quick brown fox ran",      # shares 'quick brown fox'
                 "totally clean document here",
                 "to be"],                      # < 3 words: no grams
    })
    out = contamination_report(t, pd.Index(bench))
    assert out["n_hits"].to_pylist() == [1, 0, 0]
    assert out["contaminated"].to_pylist() == [True, False, False]


# ---------------------------------------------------------------- bigram LM
def test_bigram_lm_scores_match_local_model():
    """Engine scores == a straightforward local add-one bigram LM with
    the same fixed-point reduction; degenerate docs (null / empty /
    single-token) are excluded on both sides."""
    import math

    from aisafetyintervention_literatureextraction_ray.functions.lm import (
        bigram_lm_scores,
    )

    texts = {
        "d1": "a b a b c",
        "d2": "a b",
        "d3": "  c   a  ",       # ragged whitespace: tokens (c, a)
        "d4": "solo",            # 1 token: no bigrams
        "d5": "",                # empty: excluded
        "d6": None,              # null: excluded
    }
    ds = rd.from_arrow(pa.table({
        "doc_id": list(texts), "text": pa.array(list(texts.values()),
                                                type=pa.string())}))
    out = bigram_lm_scores(ds).to_pandas().set_index("doc_id")

    # local reference model
    bigrams: dict[str, dict[tuple, int]] = {}
    cb: dict[tuple, int] = {}
    cu: dict[str, int] = {}
    vocab = set()
    for d, t in texts.items():
        toks = (t or "").strip().split()
        bg = list(zip(toks, toks[1:]))
        if not bg:
            continue
        bigrams[d] = {}
        for g in bg:
            bigrams[d][g] = bigrams[d].get(g, 0) + 1
            cb[g] = cb.get(g, 0) + 1
            cu[g[0]] = cu.get(g[0], 0) + 1
            vocab.update(g)
    v = len(vocab)

    assert set(out.index) == set(bigrams)
    for d, bg in bigrams.items():
        fp = sum(math.floor(math.log((cb[g] + 1.0) / (cu[g[0]] + v))
                            * 1e9) * occ for g, occ in bg.items())
        nb = sum(bg.values())
        assert out.loc[d, "n_bigrams"] == nb
        assert out.loc[d, "lm_score"] == round(fp / (nb * 1e9), 6)


def test_bigram_lm_scores_empty_corpus():
    from aisafetyintervention_literatureextraction_ray.functions.lm import (
        bigram_lm_scores,
    )

    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array([], pa.string()),
        "text": pa.array([], pa.string())}))
    out = bigram_lm_scores(ds)
    assert out.schema().names == ["doc_id", "n_bigrams", "lm_score"]
    assert out.count() == 0


# ---------------------------------------------------------------- heavy hitters
def _hh_corpus():
    # 'hot' appears 40/100 tokens, 'warm' 20/100; everything else is
    # unique filler — with counters=4 the threshold is 100/5 = 20,
    # so only 'hot' clears the STRICT > bar
    rows = []
    for i in range(10):
        # letter-only fillers: the tokenizer splits on [^a-z]+
        rows.append(" ".join(["hot"] * 4 + ["warm"] * 2
                             + [f"w{chr(97 + i)}x{chr(97 + j)}"
                                .replace("x", "q")  # unique, no digits
                                for j in range(4)]))
    return rd.from_arrow(pa.table({"text": rows}))


def test_heavy_hitters_exact_threshold_broadcast_and_join_paths(monkeypatch):
    from aisafetyintervention_literatureextraction_ray.functions import agg
    from aisafetyintervention_literatureextraction_ray.functions.sketch import (
        heavy_hitter_terms,
    )

    for rows in (10**9, -1):  # the semi-join broadcast / hash exchange
        monkeypatch.setattr(agg, "_BROADCAST_ROWS", rows)
        out = heavy_hitter_terms(_hh_corpus(), counters=4).to_pandas()
        assert list(out.itertuples(index=False)) != []
        got = {r.term: r.n for r in out.itertuples()}
        assert got == {"hot": 40}


def test_heavy_hitters_empty_and_superset_guarantee():
    import collections

    from aisafetyintervention_literatureextraction_ray.functions.sketch import (
        heavy_hitter_terms,
    )

    empty = rd.from_arrow(pa.table({"text": pa.array([], pa.string())}))
    out = heavy_hitter_terms(empty)
    assert out.schema().names == ["term", "n"]
    assert out.count() == 0

    # randomized corpus: result == exact count + strict threshold
    import random
    rng = random.Random(7)
    # letter-only vocabulary (the tokenizer splits on [^a-z]+)
    vocab30 = [f"t{chr(97 + i)}{chr(97 + j)}"
               for i in range(6) for j in range(5)]
    words = [vocab30[rng.randrange(30)] for _ in range(2000)]
    docs = [" ".join(words[i:i + 50]) for i in range(0, 2000, 50)]
    ds = rd.from_arrow(pa.table({"text": docs}))
    exact = collections.Counter(words)
    n_total = sum(exact.values())
    c = 24
    expected = {t: k for t, k in exact.items() if k * (c + 1) > n_total}
    got = {r.term: r.n for r in
           heavy_hitter_terms(ds, counters=c).to_pandas().itertuples()}
    assert got == expected


# ---------------------------------------------------------------- TF-IDF
def test_tfidf_top_terms_match_local():
    import math

    from aisafetyintervention_literatureextraction_ray.functions.rank import (
        tfidf_top_terms,
    )

    texts = {
        "d1": "apple apple banana core",
        "d2": "banana core core date",
        "d3": "apple date date date elm",
    }
    ds = rd.from_arrow(pa.table({
        "doc_id": list(texts), "text": list(texts.values())}))
    out = tfidf_top_terms(ds, k=2).to_pandas()

    tf = {(d, w): t.split().count(w)
          for d, t in texts.items() for w in set(t.split())}
    df = {}
    for d, t in texts.items():
        for w in set(t.split()):
            df[w] = df.get(w, 0) + 1
    n = len(texts)
    scores = {
        d: sorted(((round(tf[(d, w)] * math.log(n / df[w]), 6), w)
                   for w in set(t.split())),
                  key=lambda x: (-x[0], x[1]))[:2]
        for d, t in texts.items()
    }
    got = {d: [] for d in texts}
    for r in out.itertuples():
        got[r.doc_id].append((r.tfidf, r.term))
        assert r.df == df[r.term]
        assert r.tf == tf[(r.doc_id, r.term)]
    for d in texts:
        assert sorted(got[d], key=lambda x: (-x[0], x[1])) == scores[d]


def test_tfidf_top_terms_empty_corpus():
    from aisafetyintervention_literatureextraction_ray.functions.rank import (
        tfidf_top_terms,
    )

    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array([], pa.string()),
        "text": pa.array([], pa.string())}))
    out = tfidf_top_terms(ds)
    assert out.schema().names == ["doc_id", "term", "tf", "df", "tfidf"]
    assert out.count() == 0


def test_heavy_hitters_no_block_survivors():
    """A corpus where NO block produces a Misra-Gries survivor: the
    pigeonhole bound proves no global heavy hitter exists either, and
    the engine returns a typed empty result instead of crashing on the
    empty candidate gather."""
    from aisafetyintervention_literatureextraction_ray.functions.sketch import (
        heavy_hitter_terms,
    )

    # every term is exactly 1/3 of its doc and of the corpus:
    # with counters=1 the strict > n/2 bar is never met anywhere
    ds = rd.from_arrow(pa.table({"text": ["alpha beta gamma"] * 4}))
    out = heavy_hitter_terms(ds, counters=1)
    assert out.schema().names == ["term", "n"]
    assert out.count() == 0
