"""Parity against the reference repo's own artifacts.

The reference publishes one golden extraction —
``src/prompt/schemas/output_sample.json`` (9 nodes, 4 chains, 8 edges
over the "Deception Abilities Emerged in LLMs" paper) — and a legacy
ingest path (``db.py``).  These tests run those exact shapes through
this engine: the golden sample's chain edges must survive explode +
graph build losslessly as ``(subj, pred, obj)`` triples.
"""

import json
from pathlib import Path

import pyarrow as pa
import pytest
import ray.data as rd

from aisafetyintervention_literatureextraction_ray.pipelines import graph_build as gb
from aisafetyintervention_literatureextraction_ray.pipelines.extraction import (
    triples_from_extractions,
)
from aisafetyintervention_literatureextraction_ray.schemas import EXTRACTION_SCHEMA
from aisafetyintervention_literatureextraction_ray.sources.legacy import (
    legacy_record_to_extraction,
    read_legacy_extraction_dir,
)

SAMPLE = Path("/root/reference/intervention_graph_creation/src/prompt/"
              "schemas/output_sample.json")


def _sample_as_extraction_row(data: dict) -> pa.Table:
    row = {
        "doc_id": "deception_abilities_sample",
        "spans": [],
        "nodes": [
            {**n,
             "concept_category": n.get("concept_category"),
             "intervention_lifecycle": n.get("intervention_lifecycle"),
             "intervention_maturity": n.get("intervention_maturity")}
            for n in data["nodes"]
        ],
        "logical_chains": data["logical_chains"],
        "minhash_sig": [],
    }
    return pa.Table.from_pylist([row], schema=EXTRACTION_SCHEMA)


@pytest.mark.skipif(not SAMPLE.exists(), reason="reference checkout absent")
def test_golden_sample_roundtrip():
    """The reference's golden PaperSchema file flows through explode +
    graph build losslessly."""
    data = json.loads(SAMPLE.read_text())
    tbl = _sample_as_extraction_row(data)
    extr = rd.from_arrow(tbl)

    triples = triples_from_extractions(extr).to_pandas()
    expected = {
        (e["source_node"], e["type"], e["target_node"])
        for chain in data["logical_chains"] for e in chain["edges"]
    }
    got = set(map(tuple, triples[["subj", "pred", "obj"]]
                  .itertuples(index=False)))
    assert got == expected            # P/R = 1.0 on the reference's sample
    assert len(triples) == sum(len(c["edges"])
                               for c in data["logical_chains"])

    nodes = gb.build_nodes(rd.from_arrow(tbl)).materialize()
    ndf = nodes.to_pandas()
    assert len(ndf) == len(data["nodes"])
    edges = gb.build_edges_and_mentions(
        triples_from_extractions(rd.from_arrow(tbl)),
        gb.build_alias_index(nodes))[0].to_pandas()
    # every edge endpoint resolves to a declared node (prompt mandate:
    # chains share unique nodes, fpp.py:174)
    assert len(edges) == len(expected)
    assert set(edges["src_id"]) | set(edges["dst_id"]) <= set(ndf["node_id"])


def test_legacy_schema_ingest(tmp_path):
    """db.py's legacy OutputSchema generation folds into the canonical
    shape: paper pseudo-node + paper->target edges (prompts.py:96)."""
    record = {
        "edges": [
            {"type": "mitigated_by",
             "target_node": {"name": "deception evals", "type": "intervention",
                             "canonical_name": "deception_evals",
                             "aliases": ["deception benchmark"],
                             "confidence": 0.9, "notes": "eval suite"},
             "rationale": "paper proposes evals", "confidence": 0.8},
            {"type": "finds",
             "target_node": {"name": "llm deception", "type": "finding",
                             "canonical_name": "llm_deception",
                             "aliases": [], "confidence": 1.0, "notes": ""},
             "rationale": "core finding", "confidence": 1.0},
        ]
    }
    (tmp_path / "paper_a.json").write_text(json.dumps(record))
    (tmp_path / "paper_a_raw_response.json").write_text("{}")  # F2: skipped

    tbl = read_legacy_extraction_dir(str(tmp_path))
    assert tbl.num_rows == 1
    assert tbl.schema.equals(EXTRACTION_SCHEMA)
    row = tbl.to_pylist()[0]
    names = {n["name"] for n in row["nodes"]}
    assert names == {"paper_a", "deception evals", "llm deception"}
    edges = row["logical_chains"][0]["edges"]
    assert all(e["source_node"] == "paper_a" for e in edges)
    assert {e["edge_confidence"] for e in edges} == {4, 5}  # 0.8->4, 1.0->5

    triples = triples_from_extractions(rd.from_arrow(tbl)).to_pandas()
    assert set(triples["pred"]) == {"mitigated_by", "finds"}


def test_legacy_confidence_scaling():
    rec = {"edges": [{"type": "t", "confidence": c,
                      "target_node": {"name": "n", "type": "x",
                                      "aliases": [], "confidence": c}}
                     for c in (0.0, 0.25, 0.5, 1.0)]}
    row = legacy_record_to_extraction("p", rec)
    confs = [e["edge_confidence"] for e in row["logical_chains"][0]["edges"]]
    assert confs == [1, 2, 3, 5]
