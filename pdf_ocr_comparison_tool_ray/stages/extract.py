"""Span extraction stage — the hybrid routing engine as a task map.

One callable class handles all four kinds per batch (the reference's
``HybridOCREngine`` shape: one object owning every engine,
``hybrid_ocr_engine.py:49-247``).  State (compiled patterns, the OCR
"model", thresholds) is built once in ``__init__`` and reused across
batches.  The extraction plan calls the plain functions ``extract_batch``
and ``rerun_batch`` inside its Ray tasks (first pass, then the doubtful
scan spans of the same batch); each builds its extractor once per worker
process through an ``lru_cache`` keyed on the constructor arguments
(Ray reuses task workers), which is where a real OCR model would load
its weights (``ocr_engine.py:56-73``, ``deepseek_ocr2_engine.py:60-94``).
No actor pool: the mock engine has no weights, and a pool's start-up
dominated the pass and held CPUs the read task needs.

``kind == "text"`` rows take a vectorized zero-copy fast path; the other
kinds are inherently per-string algorithms (DOM parse, layout parse,
model inference) executed in the batch loop.
"""

from __future__ import annotations

from collections import ChainMap
from functools import lru_cache

import pyarrow as pa
import pyarrow.compute as pc

from ..config import EXTRACTION
from ..functions.extract import NO_BBOX
from ..functions.html_strip import strip_html
from ..functions.mock_ocr import (
    decode_media,
    decode_media_accurate,
    mock_bbox,
    mock_confidence,
    mock_confidence_accurate,
)
from ..functions.pdf_parse import parse_text_layer, text_layer_bbox
from ..functions.similarity import agreement_ratio

_BBOX_TYPE = pa.list_(pa.int32())


# ---------------------------------------------------------------------------
# extension surface: custom extractors keyed by span kind
# (the reference's engine factory, ``main.py:29-48`` get_ocr_engine /
# ``hybrid_ocr_engine.py:250-264`` get_hybrid_engine, generalized: a kind ->
# callable(text, media_ref) -> (out_text, route, score) registry)
# ---------------------------------------------------------------------------
EXTRACTOR_REGISTRY: dict = {}


def register_extractor(kind: str):
    """Register a module-level extractor for a custom span kind.

    Registration must execute in the worker process too (put it at import
    time of a module the pipeline imports), or pass the extractor
    per-pipeline via ``SpanExtractor(extra_extractors={kind: fn})``.
    """

    def deco(fn):
        EXTRACTOR_REGISTRY[kind] = fn
        return fn

    return deco


class SpanExtractor:
    def __init__(
        self,
        agreement_threshold: float | None = None,
        extra_extractors: dict | None = None,
        preprocess: bool = False,
    ):
        self.thr = (
            agreement_threshold
            if agreement_threshold is not None
            else EXTRACTION["agreement_threshold"]
        )
        # Warm per-process state here.  The mock engine has no weights; a real
        # deployment loads the OCR model / HTML parser pools at this point.
        self._strip = strip_html
        self._parse_pdf = parse_text_layer
        self._ocr = decode_media
        # custom kinds: per-pipeline extractors over a live view of the
        # module registry (an instance cached per process still sees kinds
        # registered after it was built)
        self._custom = ChainMap(extra_extractors or {}, EXTRACTOR_REGISTRY)
        # M2/M3 image preprocessing ahead of the recognizer — the
        # reference's off-by-default chain (ocr_engine.py:75-115,
        # config.yaml:131-134).
        self._pre = None
        self.preprocessed_spans = 0  # per-instance counter (A6-style stat)
        if preprocess:
            from .multimodal import preprocess_one

            self._pre = preprocess_one

    def _preprocess_page(self, media_ref: str) -> None:
        """Run the real M2/M3 kernels on the span's page image.

        The mock codec's payload carries the page TEXT (there are no
        rendered glyphs to recognize), so the page image fed to the
        kernels is the deterministic byte-tiled rendering of that payload
        — the same derivation ``multimodal.media_from_text_batch`` uses —
        and the recognizer still reads the payload's text channel.  A
        real deployment rasterizes the page, passes it through this exact
        ``preprocess_one`` call, and feeds the RETURNED image to the
        model instead.
        """
        import numpy as np

        raw = np.frombuffer(
            self._ocr(media_ref).encode()[:4096].ljust(16, b"\0"), dtype=np.uint8
        )
        self._pre(np.resize(raw, (16, 16, 3)).astype(np.uint8))
        self.preprocessed_spans += 1

    def __call__(self, batch: pa.Table) -> pa.Table:
        kind_arr = batch["kind"]
        all_text = pc.all(pc.equal(kind_arr, "text")).as_py()
        n = len(batch)
        if all_text:
            # zero-copy fast path: canonical text == input text
            return pa.table(
                {
                    "doc_id": batch["doc_id"],
                    "kind": kind_arr,
                    "text": batch["text"],
                    "media_ref": batch["media_ref"],
                    "offset": batch["offset"],
                    "route": pa.array(["native"] * n, type=pa.string()),
                    "score": pa.array([1.0] * n, type=pa.float64()),
                    "bbox": pa.array([NO_BBOX] * n, type=_BBOX_TYPE),
                }
            )
        kinds = kind_arr.to_pylist()
        texts = batch["text"].to_pylist()
        refs = batch["media_ref"].to_pylist()
        out_text = texts  # reuse list; overwrite in place where routed
        routes = [""] * n
        scores = [0.0] * n
        bboxes = [NO_BBOX] * n
        thr = self.thr
        for i, k in enumerate(kinds):
            # poison-row quarantine: a malformed payload marks ITS span
            # (route="error", score 0, text preserved) instead of failing
            # the task — the reference logs-and-skips per file
            # (main.py:244-252, run_ocr.py:222-224); at 100 TB a corrupt
            # document must never kill the job or trigger retry storms.
            try:
                if k == "text":
                    routes[i] = "native"
                    scores[i] = 1.0
                elif k == "html":
                    out_text[i] = self._strip(texts[i])
                    routes[i] = "html"
                    scores[i] = 1.0
                elif k == "scan":
                    if self._pre is not None:
                        self._preprocess_page(refs[i])
                    decoded = self._ocr(refs[i])
                    out_text[i] = decoded
                    routes[i] = "ocr"
                    scores[i] = mock_confidence(decoded)
                    bboxes[i] = mock_bbox(decoded)
                elif k == "pdf":
                    # geometry must come from the LAYER before the
                    # in-place out_text overwrite (out_text aliases texts)
                    layer_box = text_layer_bbox(texts[i])
                    native = self._parse_pdf(texts[i])
                    if not refs[i]:
                        out_text[i] = native
                        routes[i] = "native"
                        scores[i] = 1.0
                        bboxes[i] = layer_box
                    else:
                        ocr = self._ocr(refs[i])
                        ratio = agreement_ratio(native, ocr)
                        win_native = ratio >= thr
                        out_text[i] = native if win_native else ocr
                        routes[i] = "native" if win_native else "ocr"
                        scores[i] = ratio
                        bboxes[i] = layer_box if win_native else mock_bbox(ocr)
                elif k in self._custom:
                    res = self._custom[k](texts[i], refs[i])
                    # registry extractors may return (text, route, score)
                    # or the 4-tuple with a bbox
                    out_text[i], routes[i], scores[i] = res[0], res[1], res[2]
                    if len(res) > 3:
                        bboxes[i] = list(res[3])
                else:
                    routes[i] = "passthrough"
            except Exception:
                out_text[i] = texts[i]
                routes[i] = "error"
                scores[i] = 0.0
                bboxes[i] = NO_BBOX
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "kind": kind_arr,
                "text": pa.array(out_text, type=pa.string()),
                "media_ref": batch["media_ref"],
                "offset": batch["offset"],
                # typed: an empty batch would infer null, and the rerun
                # concatenates this table with a string-typed one
                "route": pa.array(routes, type=pa.string()),
                "score": pa.array(scores, type=pa.float64()),
                "bbox": pa.array(bboxes, type=_BBOX_TYPE),
            }
        )


class SecondPassExtractor:
    """Confidence-routed second-engine rerun — the heavy half of the
    reference's smart mode (``hybrid_ocr_engine.py:152-182``: Paddle
    first; a page whose average confidence falls below threshold reruns
    on DeepSeek and the higher-confidence result wins).

    Input batches hold only the low-confidence scan rows (the span
    kernel in ``pipelines/extraction.py`` selects them); each is
    re-decoded with the heavier engine and the better of the two
    answers is kept, with ``route`` recording which engine won ("ocr"
    kept / "ocr2" rerun won).  A real deployment loads the second model
    in ``__init__``, once per worker process through ``rerun_batch``'s
    cache.
    """

    def __init__(self):
        self._ocr2 = decode_media_accurate
        # the second engine's raw output flows through the reference's
        # parse-then-scrub path (M5/M6/F7, deepseek_ocr2_engine.py:269-345):
        # grounding pairs -> positioned fragments, else debug-noise scrub.
        # Exact no-op on the clean mock output; a real model's markers,
        # bbox literals and logger noise are handled here.
        from ..functions.ocr_scrub import parse_engine_output

        self._parse_output = parse_engine_output

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        refs = batch["media_ref"].to_pylist()
        scores = batch["score"].to_pylist()
        bboxes = (
            batch["bbox"].to_pylist()
            if "bbox" in batch.column_names
            else [NO_BBOX] * len(batch)
        )
        out_t, out_r, out_s, out_b = [], [], [], []
        for t0, ref, s0, b0 in zip(texts, refs, scores, bboxes):
            try:
                t2, grounded_box = self._parse_output(self._ocr2(ref))
                s2 = mock_confidence_accurate(t2)
            except Exception:
                t2, s2, grounded_box = t0, -1.0, None  # quarantine: keep pass 1
            if s2 > s0:
                out_t.append(t2)
                out_r.append("ocr2")
                out_s.append(s2)
                out_b.append(grounded_box or mock_bbox(t2))
            else:
                out_t.append(t0)
                out_r.append("ocr")
                out_s.append(s0)
                out_b.append(b0)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "kind": batch["kind"],
                "text": pa.array(out_t, type=pa.string()),
                "media_ref": batch["media_ref"],
                "offset": batch["offset"],
                "route": pa.array(out_r, type=pa.string()),
                "score": pa.array(out_s, type=pa.float64()),
                "bbox": pa.array(out_b, type=_BBOX_TYPE),
            }
        )


@lru_cache(maxsize=None)
def _extractor(agreement_threshold, preprocess) -> SpanExtractor:
    return SpanExtractor(agreement_threshold=agreement_threshold, preprocess=preprocess)


def extract_batch(
    batch: pa.Table, agreement_threshold: float | None = None, preprocess: bool = False
) -> pa.Table:
    """``SpanExtractor`` as a plain task function: one extractor per worker
    process and constructor arguments."""
    return _extractor(agreement_threshold, preprocess)(batch)


@lru_cache(maxsize=None)
def _second_pass() -> SecondPassExtractor:
    return SecondPassExtractor()


def rerun_batch(batch: pa.Table) -> pa.Table:
    """``SecondPassExtractor`` as a plain task function (one per worker
    process)."""
    return _second_pass()(batch)
