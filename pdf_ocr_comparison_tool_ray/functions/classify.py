"""Rule-based document-type classification.

Reference semantics: ``document_classifier.py:52-103`` — per type, a
regex of escaped keywords; score = match_count * (100 - priority);
winner = argmax; confidence = max_score / total_score; no match ->
("other", 0.5).  Argmax tie-break in the reference is dict insertion
order; we keep that (config declaration order), which is also what the
SQL oracle's CASE chain expresses.
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

from ..config import DEFAULT_DOC_TYPE


class RuleClassifier:
    """Compile once (per worker process), classify many."""

    def __init__(self, doc_types: Dict[str, dict], case_insensitive: bool = True):
        self.doc_types = doc_types
        flags = re.IGNORECASE if case_insensitive else 0
        self.patterns: List[Tuple[str, re.Pattern, int]] = []
        for doc_type, cfg in doc_types.items():
            keywords = cfg.get("keywords", [])
            if keywords:
                pat = re.compile("|".join(re.escape(k) for k in keywords), flags)
                self.patterns.append((doc_type, pat, cfg.get("priority", 99)))

    def classify(self, text: str) -> Tuple[str, float, List[str]]:
        """-> (doc_type, confidence, matched_keywords_sorted)."""
        scores: Dict[str, int] = {}
        matched: Dict[str, List[str]] = {}
        for doc_type, pat, priority in self.patterns:
            hits = pat.findall(text)
            if hits:
                scores[doc_type] = len(hits) * (100 - priority)
                matched[doc_type] = sorted(set(hits))
        if not scores:
            return DEFAULT_DOC_TYPE, 0.5, []
        best = max(scores, key=scores.get)  # first-max wins ties (dict order)
        total = sum(scores.values())
        confidence = min(scores[best] / total, 1.0) if total > 0 else 0.5
        return best, confidence, matched[best]

    def classify_many(self, texts) -> Tuple[List[str], List[float]]:
        types: List[str] = []
        confs: List[float] = []
        for t in texts:
            dt, c, _ = self.classify(t)
            types.append(dt)
            confs.append(c)
        return types, confs
