"""Binary/PDF document ingestion — the reference's front door.

The reference's primary input is a directory of PDF files walked in
sorted order with an optional first-n cap (reference
``src/local_graph_extraction/extract.py:32-35``), each file shipped to
the extraction model whole (``extract.py:62-67``).  Here that becomes a
streaming Ray Data source:

    sorted glob -> ``read_binary_files`` -> ``pdf_to_docs`` tasks
    -> DOCS_SCHEMA (one text span with the extracted text + one media
    span holding the original file reference)

Text extraction is a clearly-marked STUB (``_extract_text_stub``): no
PDF codec ships in this sandbox, so it recovers the text of the
minimal single-stream PDFs ``write_stub_pdf`` produces (and of any PDF
whose text sits uncompressed between ``stream``/``endstream`` markers).
Swap ``_extract_text_real`` for pdfminer/pypdf in production — the Ray
plumbing (file listing, binary read, map tasks, schema, span layout)
is the real, tested surface.
"""

from __future__ import annotations

from pathlib import Path

import pyarrow as pa
import ray.data as rd

from ..functions.worker_state import task_concurrency
from ..schemas import DOCS_SCHEMA

_STREAM_START = b"stream\n"
_STREAM_END = b"\nendstream"


def write_stub_pdf(path: str | Path, text: str) -> None:
    """Write a minimal single-stream PDF-shaped file whose text payload
    the stub extractor recovers exactly (deterministic test fixture)."""
    body = text.encode("utf-8")
    with open(path, "wb") as f:
        f.write(b"%PDF-1.4\n1 0 obj\n<< /Length " + str(len(body)).encode()
                + b" >>\n" + _STREAM_START + body + _STREAM_END
                + b"\nendobj\ntrailer\n%%EOF\n")


def _extract_text_stub(data: bytes) -> str:
    """STUB text extraction: concatenates uncompressed ``stream`` ...
    ``endstream`` payloads.  Exact for ``write_stub_pdf`` files; real
    PDFs need ``_extract_text_real``."""
    parts = []
    pos = 0
    while True:
        s = data.find(_STREAM_START, pos)
        if s < 0:
            break
        e = data.find(_STREAM_END, s)
        if e < 0:
            break
        parts.append(data[s + len(_STREAM_START): e])
        pos = e + len(_STREAM_END)
    return b"".join(parts).decode("utf-8", errors="replace")


def _extract_text_real(data: bytes) -> str:  # pragma: no cover
    """Swap point for a real PDF text extractor (pdfminer.six / pypdf —
    not installed in this sandbox)."""
    raise NotImplementedError("install pdfminer.six and wire it here")


def pdf_to_docs(batch: pa.Table, extract_text=None) -> pa.Table:
    """``map_batches`` task: (bytes, path) -> one DOCS_SCHEMA row per file.

    Span layout mirrors the interleaved-document contract: the extracted
    prose is a text span at offset 0 and the original binary travels as
    a media span (``media_ref = file://<path>``) at offset 1, so
    downstream multimodal stages can re-fetch the source bytes.
    """
    extract = extract_text or _extract_text_stub
    rows = []
    for data, path in zip(batch.column("bytes").to_pylist(),
                          batch.column("path").to_pylist()):
        stem = Path(path).stem
        rows.append({
            "doc_id": stem,
            "spans": [
                {"kind": "text", "text": extract(data or b""),
                 "media_ref": "", "offset": 0},
                {"kind": "pdf", "text": "",
                 "media_ref": f"file://{path}", "offset": 1},
            ],
            "title": stem,
            "authors": ["unknown"],
            "date_published": "unknown",
            "url": "",
        })
    return pa.Table.from_pylist(rows, schema=DOCS_SCHEMA)


def read_pdf_dir(path: str | Path, *, first_n: int | None = None,
                 concurrency: int | tuple[int, int] = (1, 4),
                 extract_text=None) -> rd.Dataset:
    """Sorted PDF glob -> interleaved-doc Dataset (S1 + P1 analogue).

    ``first_n`` mirrors the reference's cap (``extract.py:33-35``); the
    sorted listing is the deterministic-input-order contract (O1,
    ``extract.py:62-67``).  Files are read and converted in streaming
    stateless tasks (at most ``concurrency`` at once; a ``(lo, hi)``
    tuple caps them at ``hi``) — nothing materializes the corpus.
    """
    paths = sorted(str(p) for p in Path(path).glob("*.pdf"))
    if first_n is not None:
        paths = paths[:first_n]
    if not paths:
        return rd.from_arrow(DOCS_SCHEMA.empty_table())
    ds = rd.read_binary_files(paths, include_paths=True)
    return ds.map_batches(
        pdf_to_docs, fn_kwargs={"extract_text": extract_text},
        batch_format="pyarrow", batch_size=32,
        concurrency=task_concurrency(concurrency))
