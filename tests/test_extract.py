"""Extraction stage: golden P/R, span-sequence invariant, schema bounds.

Mirrors the reference's informal correctness mechanisms (SURVEY.md §5):
pydantic bounds (core.py:10-12, 21) become schema assertions; the golden
sample becomes the planted-fact P/R gate; the eval rubric's checks
(edge endpoints resolve to declared nodes, concepts never carry
maturity) become deterministic assertions.
"""

import pyarrow as pa
import pytest
import ray.data as rd

from aisafetyintervention_literatureextraction_ray.fixtures import make_corpus
from aisafetyintervention_literatureextraction_ray.pipelines.extraction import (
    extract_pipeline,
    triples_from_extractions,
)
from aisafetyintervention_literatureextraction_ray.schemas import (
    EXTRACTION_SCHEMA,
    TRIPLES_SCHEMA,
)
from aisafetyintervention_literatureextraction_ray.stages.extract import (
    TripleExtractor,
    assemble_full_text,
)


@pytest.fixture(scope="module")
def corpus():
    docs, golden = make_corpus(150, seed=42)
    return docs, golden


@pytest.fixture(scope="module")
def extractions(corpus):
    docs, _ = corpus
    ds = extract_pipeline(rd.from_arrow(docs), concurrency=(1, 2), batch_size=64)
    return pa.Table.from_pandas(ds.to_pandas(), schema=EXTRACTION_SCHEMA)


def _triple_set(tbl):
    cols = [tbl.column(c).to_pylist() for c in ("doc_id", "subj", "pred", "obj")]
    return set(zip(*cols))


def test_precision_recall_against_golden(corpus, extractions):
    _, golden = corpus
    triples = triples_from_extractions(
        rd.from_arrow(extractions)).to_pandas()
    got = set(map(tuple, triples[["doc_id", "subj", "pred", "obj"]]
                  .itertuples(index=False)))
    exp = _triple_set(golden)
    tp = len(got & exp)
    precision = tp / len(got)
    recall = tp / len(exp)
    assert precision >= 0.95 and recall >= 0.95  # north-rule gate
    assert precision == 1.0 and recall == 1.0    # deterministic extractor


def test_span_sequence_invariant(corpus, extractions):
    """Per-row (kind, text, media_ref, order) must equal the input's."""
    docs, _ = corpus
    in_spans = {d: s for d, s in zip(docs.column("doc_id").to_pylist(),
                                     docs.column("spans").to_pylist())}
    out_ids = extractions.column("doc_id").to_pylist()
    out_spans = extractions.column("spans").to_pylist()
    assert sorted(out_ids) == sorted(in_spans)
    for did, spans in zip(out_ids, out_spans):
        expected = [(s["kind"], s["text"], s["media_ref"], i)
                    for i, s in enumerate(in_spans[did])]
        actual = [(s["kind"], s["text"], s["media_ref"], i)
                  for i, s in enumerate(spans)]
        assert actual == expected


def test_extraction_schema_and_bounds(extractions):
    assert extractions.schema.equals(EXTRACTION_SCHEMA)
    for row_nodes in extractions.column("nodes").to_pylist():
        names = {n["name"] for n in row_nodes}
        assert len(names) == len(row_nodes)  # unique node names per doc
        for n in row_nodes:
            assert n["type"] in ("concept", "intervention")
            if n["type"] == "concept":
                assert n["concept_category"] is not None
                assert n["intervention_lifecycle"] is None
                assert n["intervention_maturity"] is None  # fpp.py:234 rubric
            else:
                assert 1 <= n["intervention_lifecycle"] <= 6  # core.py:11
                assert 1 <= n["intervention_maturity"] <= 4   # core.py:12
                assert n["concept_category"] is None
    for chains, row_nodes in zip(extractions.column("logical_chains").to_pylist(),
                                 extractions.column("nodes").to_pylist()):
        declared = {n["name"] for n in row_nodes}
        for chain in chains:
            assert chain["edges"]  # chains non-empty
            for e in chain["edges"]:
                assert 1 <= e["edge_confidence"] <= 5  # core.py:21
                # endpoints resolve to declared nodes (eval rubric)
                assert e["source_node"] in declared
                assert e["target_node"] in declared


def test_triples_schema(extractions):
    tri = triples_from_extractions(rd.from_arrow(extractions))
    tbl = pa.Table.from_pandas(tri.to_pandas(), schema=TRIPLES_SCHEMA)
    assert tbl.schema.equals(TRIPLES_SCHEMA)
    assert tbl.num_rows > 0


def test_assemble_preserves_span_order():
    docs, _ = make_corpus(5)
    out = assemble_full_text(docs)
    row = out.slice(0, 1).to_pylist()[0]
    texts = [s["text"] for s in row["spans"]]
    assert row["full_text"] == " ".join(texts)


def test_fast_path_matches_reference_pattern():
    """Trigger-anchored detection must equal the single-regex semantics
    on generated corpora AND adversarial strings."""
    ex = TripleExtractor()
    docs, _ = make_corpus(300, seed=9)
    texts = assemble_full_text(docs).column("full_text").to_pylist()
    texts += [
        "rlhf leads to alignment",                    # no trailing period
        "rlhf  leads to alignment",                   # double space
        "xrlhf leads to alignment",                   # bad left boundary
        "rlhf leads to alignmentx",                   # bad right boundary
        "deception is mitigated by rlhf.",
        "the deception is mitigated by rlhf, always",  # comma boundary
        "leads to rlhf",                              # trigger at start
        "rlhf leads to",                              # nothing after
        "", "   ", "rlhf",
    ]
    for t in texts:
        low = t.lower()
        assert ex._find_triples(low) == ex._find_triples_regex(low), t
    # chained adjacency: the fast path finds OVERLAPPING triples (a
    # strict superset of the non-overlapping regex scan) — deliberate:
    # "A causes B causes C" yields both links.
    chained = ex._find_triples("rlhf causes deception causes alignment")
    assert ("rlhf", "causes", "deception") in chained
    assert ("deception", "causes", "alignment") in chained


def test_extractor_idempotent_and_deterministic():
    docs, _ = make_corpus(20)
    ex = TripleExtractor()
    a = ex(docs)
    b = ex(docs)
    assert a.equals(b)


def test_distractors_do_not_fire():
    ex = TripleExtractor()
    batch = pa.table({
        "doc_id": ["d1", "d2", "d3"],
        "spans": pa.array([[], [], []], type=EXTRACTION_SCHEMA.field("spans").type),
        "full_text": [
            "rlhf remains a central topic in recent literature.",  # entity, no trigger
            "this framework leads to broader discussion.",          # trigger, no entity
            "alignment. deception leads to nothing here.",          # entity + trigger, no entity obj
        ],
    })
    out = ex(batch)
    assert all(len(c) == 0 for c in out.column("logical_chains").to_pylist())


def test_extractor_cache_follows_max_triples(corpus, extractions):
    """The per-process extractor is keyed on ``max_triples_per_doc``: an
    uncapped run followed by a capped one gives the capped output."""
    docs, _ = corpus

    def n_edges(tbl):
        return [sum(len(c["edges"]) for c in chains)
                for chains in tbl.column("logical_chains").to_pylist()]

    assert max(n_edges(extractions)) > 1  # the cap has something to cut
    for cap in (None, 1, None):
        ds = extract_pipeline(rd.from_arrow(docs), concurrency=1,
                              batch_size=64, max_triples_per_doc=cap)
        got = pa.Table.from_pandas(ds.to_pandas(), schema=EXTRACTION_SCHEMA)
        want = extractions if cap is None else TripleExtractor(
            max_triples_per_doc=cap)(assemble_full_text(docs))
        assert got.sort_by("doc_id").equals(want.sort_by("doc_id"))
