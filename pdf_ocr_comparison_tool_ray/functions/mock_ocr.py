"""Deterministic mock OCR codec — the sandbox stand-in for real engines.

The reference's OCR engines (PaddleOCR ``ocr_engine.py:163-263``,
DeepSeek-OCR-2 ``deepseek_ocr2_engine.py:96-345``) are GPU model calls.
This container has no OCR models, so ``media_ref`` carries a
deterministic payload the mock engine "recognizes": the Ray-side plumbing
(task map, batch shape, confidence routing) is identical to what a real
engine drop-in would use — swap ``decode_media`` for a model call.

media_ref format: ``mock://ocr/v1;b64,<urlsafe-base64-utf8-text>``
A real deployment would hold e.g. ``s3://bucket/page-123.png`` here.
"""

from __future__ import annotations

import base64
import hashlib

PREFIX = "mock://ocr/v1;b64,"


def encode_media(text: str) -> str:
    """Build a media_ref payload that round-trips the given page text."""
    return PREFIX + base64.urlsafe_b64encode(text.encode()).decode("ascii")


def decode_media(media_ref: str) -> str:
    """The mock 'model inference': recover page text from the payload."""
    if not media_ref.startswith(PREFIX):
        return ""
    try:
        return base64.urlsafe_b64decode(media_ref[len(PREFIX):].encode("ascii")).decode()
    except Exception:
        return ""


def mock_bbox(text: str) -> list:
    """Deterministic page-region box for a recognized text fragment.

    The unified ``[x1, y1, x2, y2]`` 4-tuple of SURVEY §7.6 (the
    DeepSeek shape, ``deepseek_ocr2_engine.py:21-26``; Paddle's
    polygons, ``ocr_engine.py:18-23``, normalize to this rect): left
    margin at x=72pt, width ~6pt/char capped at the text column, 20pt
    line height at 8 words/line — a real engine returns measured boxes
    from the same slot.
    """
    n_lines = max(1, (len(text.split(" ")) + 7) // 8)
    return [72, 0, 72 + 6 * min(len(text), 100), 20 * n_lines]


def mock_confidence(text: str) -> float:
    """Deterministic pseudo-confidence in [0.90, 0.998] keyed on content.

    Stands in for the per-fragment confidences real engines return
    (ocr_engine.py:18-23); deterministic so goldens are stable.
    """
    h = int.from_bytes(hashlib.md5(text.encode()).digest()[:4], "big")
    return 0.90 + (h % 99) / 1000.0


def decode_media_accurate(media_ref: str) -> str:
    """The 'heavier second engine' slot (DeepSeek-OCR-2 analog,
    deepseek_ocr2_engine.py:96-345): same deterministic payload decode —
    a real deployment loads the slower, more accurate model here."""
    return decode_media(media_ref)


def mock_confidence_accurate(text: str) -> float:
    """Second-engine confidence in [0.95, 0.999] — keyed differently from
    ``mock_confidence`` so the rerun sometimes improves and sometimes
    doesn't, exercising the keep-the-better-answer rule."""
    h = int.from_bytes(hashlib.md5(b"ocr2|" + text.encode()).digest()[:4], "big")
    return 0.95 + (h % 50) / 1000.0
