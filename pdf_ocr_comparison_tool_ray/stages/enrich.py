"""Feature enrichment: per-span feature columns over extracted text.

Reference M7–M17: regex features (``ocr_engine.py:351-373``), top-10
keywords (``:392-412``), rule classification
(``document_classifier.py:62-103``), content hash
(``content_matcher.py:30-35``) — one stateless vectorized projection
adding ``dates/amounts/numbers/keywords`` list columns plus
``doc_type``, ``type_confidence``, ``text_hash``.

Compiled state (regexes, classifier patterns) lives in a callable class;
``enrich_batch`` maps it as plain Ray tasks and builds it once per worker
process (an ``lru_cache`` factory — Ray reuses task workers), not once
per batch and without an actor pool to warm.
"""

from __future__ import annotations

from functools import lru_cache

import pyarrow as pa

from ..config import DOCUMENT_TYPES_ZH
from ..functions.classify import RuleClassifier
from ..functions.features import extract_amounts, extract_dates, extract_numbers
from ..functions.textnorm import text_hash_many
from ..functions.tokenize import top_keywords


class FeatureEnricher:
    def __init__(self, doc_types: dict | None = None):
        self.classifier = RuleClassifier(doc_types or DOCUMENT_TYPES_ZH)

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        dates = [extract_dates(t) for t in texts]
        amounts = [extract_amounts(t) for t in texts]
        numbers = [extract_numbers(t) for t in texts]
        keywords = [top_keywords(t, 10) for t in texts]
        doc_types, confs = self.classifier.classify_many(texts)
        hashes = text_hash_many(texts)
        out = batch
        for name, arr in (
            ("dates", pa.array(dates, type=pa.list_(pa.string()))),
            ("amounts", pa.array(amounts, type=pa.list_(pa.string()))),
            ("numbers", pa.array(numbers, type=pa.list_(pa.string()))),
            ("keywords", pa.array(keywords, type=pa.list_(pa.string()))),
            ("doc_type", pa.array(doc_types)),
            ("type_confidence", pa.array(confs, type=pa.float64())),
            ("text_hash", pa.array(hashes)),
        ):
            out = out.append_column(name, arr)
        return out


@lru_cache(maxsize=None)
def _enricher() -> FeatureEnricher:
    return FeatureEnricher()


def enrich_batch(batch: pa.Table) -> pa.Table:
    """Default-vocabulary ``FeatureEnricher`` as a plain task function (one
    per worker process)."""
    return _enricher()(batch)
