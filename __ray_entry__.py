"""Driver contract for the Ray-Data-native extraction engine.

``entry()`` runs the flagship interleaved-extraction pipeline on
sf0.001; ``queries()`` exposes the ``_EXPOSED`` registry operators
(SURVEY.md §2 plus the dedup / similarity-search / text-analysis
extensions); ``oracle_sql()`` gives the DuckDB-equivalent SQL for each
of them.  Ray is initialised by the driver — nothing here
calls ray.init()/ray.shutdown().
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).parent))


def entry() -> Any:
    """Flagship pipeline: interleave sf0.001 documents -> extract -> reassemble."""
    from pdf_ocr_comparison_tool_ray.pipelines.extraction import (
        interleave,
        read_flat_documents,
        run_extraction,
    )

    return run_extraction(
        interleave(read_flat_documents("/root/testdata/sf0.001/documents.parquet"))
    )


# ---------------------------------------------------------------------------
# the exposed surface
# ---------------------------------------------------------------------------
# The correctness gate that consumes queries()/oracle_sql() records at most
# 50 entries, each with its oracle, so exposure is opt-in: a registry op
# stays local-only unless it is named here.  Every registry entry, exposed
# or not, is verified by the local gate mirror (scripts/check_queries.py
# runs all of SQL_QUERIES, --strict) and by pytest.
_EXPOSED = (
    "extraction_pipeline",
    "compare_pipeline",
    "set_similarity_join",
    "embedding_dup_lsh",
    "semdedup",
    "streaming_dedup_ingest",
    "keyword_topk",
    "project_detect",
    "quality_quantile_filter",
    "classify_cascade",
    "order_items",
    "paragraph_dedup",
    "boilerplate_strip",
    "pack_sequences",
    "knn_filtered",
    "domain_quota_sample",
    "token_budget_select",
    "exactsubstr_dedup",
    "mix_resample",
    "dsir_select",
    "doc_repetition_stats",
    "frame_sample",
    "shuffle_shards",
    "decontam_frac",
    "pii_redact",
    "near_dedup_keep_best",
    "bpe_train",
    "perplexity_buckets",
    "approx_quantile_hist",
    "chunk_windows",
    "pmi_cooccur",
    "winnow_fingerprint",
    "bm25_topk",
    "pagerank",
    "gopher_filter",
    "chi2_keyness",
    "label_propagation",
    "kmeans",
    "pq_ann",
    "image_phash_dup",
    "textrank_keywords",
    "heavy_hitters",
    "containment_search",
    "dict_match",
    "edit_distance_join",
    "skyline_select",
    "zorder_layout",
    "upsert_merge",
    "jsd_source_drift",
    "naive_bayes_classify",
)


def queries() -> dict[str, Callable[[str], Any]]:
    from pdf_ocr_comparison_tool_ray.pipelines.queries import SQL_QUERIES

    return {
        name: fn
        for name, (fn, _sql) in SQL_QUERIES.items()
        if name in _EXPOSED
    }


def oracle_sql() -> dict[str, str]:
    from pdf_ocr_comparison_tool_ray.pipelines.queries import SQL_QUERIES

    return {
        name: sql
        for name, (_fn, sql) in SQL_QUERIES.items()
        if name in _EXPOSED
    }
