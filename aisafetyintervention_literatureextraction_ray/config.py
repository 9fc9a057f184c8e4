"""Typed pipeline configuration (the §2.10 extension surface).

The reference's extension points are configuration-by-editing-source:
model pin (``extract.py:14``), I/O dirs (``extract.py:18-19``), DB
host/port (``db.py:11-13``), merge thresholds (``merge.py:73,115``,
both flagged TODO).  Here every knob is one typed dataclass consumed by
``pipelines.full.run_full``.  There are no plug-in hooks: a stage is a
pure ``pa.Table -> pa.Table`` function (``stages/extract.py::
extract_batch``, ``stages/encode.py::encode``), and a custom one
replaces the built-in at its call site.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field


@dataclass
class ExtractionConfig:
    batch_size: int = 256
    # cap on concurrent extraction tasks; a (lo, hi) tuple means its upper
    # bound hi; None = size from CPUs
    concurrency: int | tuple[int, int] | None = None
    max_triples_per_doc: int | None = None            # A6 budget cap


@dataclass
class CanonicalizationConfig:
    mode: str = "lsh"              # "lsh" (scale) | "exact" (parity) | None
    threshold: float | None = 0.2  # accepted-pair distance cutoff
    top_n: int | None = None       # reference-parity fixed-k (merge.py:115)
    k: int = 40                    # neighbors per node (merge.py:115)
    dim: int = 256                 # encoder dimension (reference: 1536)


@dataclass
class DedupConfig:
    enabled: bool = True
    jaccard_threshold: float = 0.9
    num_bands: int = 8


@dataclass
class PipelineConfig:
    num_partitions: int = 4
    max_inflight: int = 2
    resume: bool = True
    max_block_mb: int | None = 64  # DataContext.target_max_block_size cap
    extraction: ExtractionConfig = field(default_factory=ExtractionConfig)
    canonicalization: CanonicalizationConfig = field(
        default_factory=CanonicalizationConfig)
    dedup: DedupConfig = field(default_factory=DedupConfig)

    def to_dict(self) -> dict:
        return asdict(self)


def run_with_config(make_partition, out_dir: str,
                    config: PipelineConfig | None = None) -> dict:
    """``run_full`` driven by a :class:`PipelineConfig`."""
    from .pipelines.full import run_full

    cfg = config or PipelineConfig()
    return run_full(
        make_partition,
        cfg.num_partitions,
        out_dir,
        resume=cfg.resume,
        canonicalize_mode=cfg.canonicalization.mode,
        concurrency=cfg.extraction.concurrency,
        batch_size=cfg.extraction.batch_size,
        max_inflight=cfg.max_inflight,
        doc_neardup=cfg.dedup.enabled,
        max_triples_per_doc=cfg.extraction.max_triples_per_doc,
        canon_threshold=cfg.canonicalization.threshold,
        canon_top_n=cfg.canonicalization.top_n,
        canon_k=cfg.canonicalization.k,
        canon_dim=cfg.canonicalization.dim,
        neardup_jaccard_threshold=cfg.dedup.jaccard_threshold,
        neardup_num_bands=cfg.dedup.num_bands,
        max_block_mb=cfg.max_block_mb,
    )
