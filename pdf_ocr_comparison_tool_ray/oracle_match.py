"""Pure-Python oracle for the compare pipeline (no Ray).

Single-threaded mirror of the reference's match-and-merge flow
(``run_ocr.py:229-275`` + ``content_matcher.py``), built on the same
scalar semantics as the distributed stages so pipeline-level faults
(ordering, partitioning, broadcast staleness) are what the comparison
catches.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .config import MATCHING
from .functions.extract import extract_span
from .functions.features import extract_amounts, extract_dates
from .functions.textnorm import text_hash
from .functions.tokenize import top_keywords
from .sources.interleave import derive_spans
from .stages.match import PageIndex, match_page


def enriched_pages(corpus: List[Tuple[str, str]], seed: int = 42) -> List[dict]:
    """Flat (doc_id, text) corpus -> ordered enriched span rows."""
    out: List[dict] = []
    for doc_id, text in sorted(corpus, key=lambda p: p[0]):
        spans = sorted(derive_spans(doc_id, text, seed), key=lambda s: s["offset"])
        for s in spans:
            extracted, _, _, _ = extract_span(s["kind"], s["text"], s["media_ref"])
            out.append(
                {
                    "doc_id": doc_id,
                    "offset": s["offset"],
                    "text": extracted,
                    "keywords": top_keywords(extracted, 10),
                    "dates": extract_dates(extracted),
                    "amounts": extract_amounts(extracted),
                    "text_hash": text_hash(extracted),
                }
            )
    return out


def _merge_run(run: List[dict]) -> dict:
    """One consecutive run of match rows -> its merged range row."""
    first, last = run[0], run[-1]
    return {
        "source_doc_id": first["source_doc_id"],
        "source_start": first["source_offset"],
        "source_end": last["source_offset"],
        "doc_type": first["doc_type"],
        "match_status": first["match_status"],
        "target_doc_id": first["target_doc_id"],
        "target_start": first["target_offset"],
        "target_end": last["target_offset"],
        "similarity": sum(r["similarity"] for r in run) / len(run),
        "matched_keywords": sorted({k for r in run for k in r["matched_keywords"]}),
    }


def golden_matches(
    probe_corpus: List[Tuple[str, str]],
    ref_corpus: List[Tuple[str, str]],
    cfg: Optional[Dict] = None,
    seed: int = 42,
) -> List[dict]:
    """-> merged match-result rows, ordered by (source_doc_id, source_start)."""
    cfg = cfg or MATCHING
    index = PageIndex.from_rows(enriched_pages(ref_corpus, seed))
    probe_pages = enriched_pages(probe_corpus, seed)
    by_doc: Dict[str, List[dict]] = {}
    for p in probe_pages:
        by_doc.setdefault(p["doc_id"], []).append(p)
    merged_all: List[dict] = []
    for doc_id in sorted(by_doc):
        results = [match_page(index, p, cfg) for p in by_doc[doc_id]]
        runs: List[List[dict]] = [[results[0]]]
        for prev, curr in zip(results, results[1:]):
            if (
                prev["target_doc_id"] == curr["target_doc_id"]
                and prev["match_status"] == curr["match_status"]
                and prev["target_doc_id"] != ""
                and curr["target_offset"] == prev["target_offset"] + 1
            ):
                runs[-1].append(curr)
            else:
                runs.append([curr])
        merged_all.extend(_merge_run(r) for r in runs)
    return merged_all
