"""Ray-Data-native main-content extraction + comparison engine.

A from-scratch re-expression of the capabilities of
kevin1000x/PDF-OCR-Comparison-Tool (reference at /root/reference, see
SURVEY.md) on Ray Data: every stage is a ``map_batches`` transform over
zero-copy Arrow batches, stateful engines are built once per worker
process behind plain task maps, wide steps are explicit groupby/sort
shuffles, and the per-document invariant is span-sequence equality
(kind, text, media_ref, order).
"""

__version__ = "0.1.0"
