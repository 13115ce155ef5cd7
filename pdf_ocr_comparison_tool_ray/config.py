"""Default configuration: thresholds, vocabularies, stage knobs.

Mirrors the semantics of the reference's config surface
(``config.yaml`` document_types/projects/matching sections, see
``/root/reference/config.yaml:92-167``) but with vocabularies defined for
both the reference's Chinese domain terms and an English vocabulary used
by the DuckDB-checkable queries over the driver's synthetic testdata.
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# Matching thresholds (reference: content_matcher.py:226-230, config.yaml:152-167)
# ---------------------------------------------------------------------------
MATCHING = {
    "algorithm": "cosine",           # cosine | jaccard | levenshtein
    "exact_match_threshold": 0.95,   # >= -> "exact"
    "similarity_threshold": 0.75,    # >= -> "partial"
    "partial_match_threshold": 0.60, # candidate floor; below similarity_threshold -> "low"
    "top_k": 5,                      # content_matcher.py:318
    "fallback_candidates": 100,      # content_matcher.py:302-306 (made deterministic: sorted)
}

# Match-status labels (reference uses 完全匹配/部分匹配/低相似度/未找到;
# content_matcher.py:346-351, 337).
STATUS_EXACT = "exact"
STATUS_PARTIAL = "partial"
STATUS_LOW = "low"
STATUS_NONE = "none"

# ---------------------------------------------------------------------------
# Document-type rule vocabulary (reference: config.yaml:92-122,
# document_classifier.py:16-27; scoring document_classifier.py:62-103).
# Priorities: lower = stronger (score = n_matches * (100 - priority)).
# ---------------------------------------------------------------------------
DOCUMENT_TYPES_ZH = {
    "凭证": {"keywords": ["记账凭证", "凭证", "借方", "贷方", "科目"], "priority": 1},
    "函": {"keywords": ["函", "复函", "商洽函"], "priority": 5},
    "合同书": {"keywords": ["合同", "合同书", "甲方", "乙方", "协议"], "priority": 2},
    "会议纪要": {"keywords": ["会议纪要", "纪要", "议定事项"], "priority": 3},
    "发票": {"keywords": ["发票", "增值税", "税额", "价税合计"], "priority": 1},
    "审批单": {"keywords": ["审批单", "审批", "批准", "签发"], "priority": 4},
    "工程报告": {"keywords": ["工程报告", "竣工", "验收", "施工"], "priority": 3},
    "招标文件": {"keywords": ["招标", "投标", "中标", "标书"], "priority": 2},
    "资金申请": {"keywords": ["资金申请", "拨款", "经费"], "priority": 3},
}
DEFAULT_DOC_TYPE = "other"  # reference: "其他", confidence 0.5

# English vocabulary over the driver's synthetic testdata corpus
# (documents.text is a seeded bag of data-engineering tokens).  Used by the
# DuckDB-checkable `classify_documents` query; same scoring rule as above.
DOCUMENT_TYPES_EN = {
    "query_doc": {"keywords": ["query", "filter", "scan", "select"], "priority": 1},
    "join_doc": {"keywords": ["join", "hash", "merge"], "priority": 2},
    "stream_doc": {"keywords": ["stream", "window", "batch"], "priority": 3},
    "storage_doc": {"keywords": ["table", "column", "row", "part"], "priority": 4},
}

# ---------------------------------------------------------------------------
# Project attribution vocabulary (reference: config.yaml:15-89,
# project_detector.py:49-137).  `sources` plays the role of path folders
# (testdata has no paths; `source` is the container column).
# ---------------------------------------------------------------------------
PROJECTS_EN = {
    "proj_alpha": {"sources": ["src0", "src1", "src2"], "keywords": ["spark", "vector"]},
    "proj_beta": {"sources": ["src3", "src4", "src5"], "keywords": ["customer", "order"]},
    # "src1*" is the F6 wildcard rule (project_detector.py:70-78): matches
    # src10..src19; the exact "src1" above wins for src1 itself
    "proj_gamma": {"sources": ["src6", "src7", "src1*"], "keywords": ["window", "stream"]},
}
DEFAULT_PROJECT = "unassigned"  # reference: "未分类"

# ---------------------------------------------------------------------------
# Extraction-route knobs
# ---------------------------------------------------------------------------
EXTRACTION = {
    # Agreement threshold for native-parse vs OCR route selection.  Mirrors
    # the hybrid engine's confidence-routed fallback (reference:
    # hybrid_ocr_engine.py:62-65 — Paddle avg confidence < 0.85 -> rerun on
    # the heavier engine).  Here: SequenceMatcher ratio(native, ocr) >=
    # threshold -> keep the cheap native parse, else trust the OCR route.
    "agreement_threshold": 0.85,
    # Levenshtein perf guard (reference: content_matcher.py:132-134).
    "levenshtein_truncate": 1000,
}

# Stage sizing defaults (tuned for 32-CPU local; scale-out safe because they
# are per-stage, per-actor knobs, not global state).
STAGE = {
    "batch_size": 1024,          # rows per batch for text stages
    "ocr_batch_size": 256,       # scan spans per OCR batch
}

# Language-ID stopword sets (tiny, deterministic; heuristic n-gram/stopword
# language identification for the text-analysis suite).
LANG_STOPWORDS = {
    "en": ["the", "and", "of", "to", "a", "in", "is", "for", "with", "on"],
    "es": ["el", "la", "de", "que", "y", "en", "los", "del", "las", "por"],
    "fr": ["le", "la", "de", "et", "les", "des", "en", "un", "une", "du"],
    "de": ["der", "die", "und", "das", "von", "den", "im", "des", "mit", "ein"],
}


# ---------------------------------------------------------------------------
# §2.10 auto-config: the reference's ModelOptimizer picks per-engine
# presets from a detected GPU tier (model_optimizer.py:80-95 classify by
# VRAM >=16/>=10/>=6 GB -> HIGH/MEDIUM/LOW/CPU; :101-157 tier presets for
# dpi/batch_size/fp16).  The cluster analog tiers on per-WORKER resources
# and emits the Ray-stage knobs: extractor batch size, read parallelism,
# and the raster-dpi / fp16 pass-through a real OCR engine would consume.
# ---------------------------------------------------------------------------
RESOURCE_TIERS = {
    # min_mem_gb_per_cpu -> stage preset (ordered strongest first)
    "high":   {"min_mem_gb_per_cpu": 4.0, "ocr_batch_size": 512, "dpi": 200, "use_fp16": True},
    "medium": {"min_mem_gb_per_cpu": 2.0, "ocr_batch_size": 256, "dpi": 150, "use_fp16": True},
    "low":    {"min_mem_gb_per_cpu": 0.0, "ocr_batch_size": 64,  "dpi": 100, "use_fp16": False},
}


def classify_tier(num_cpus: int, mem_gb: float) -> str:
    """Resource tier by memory-per-core (the VRAM-threshold analog)."""
    per_cpu = mem_gb / max(1, num_cpus)
    for name, cfg in RESOURCE_TIERS.items():
        if per_cpu >= cfg["min_mem_gb_per_cpu"]:
            return name
    return "low"


def auto_stage_config(num_cpus: int | None = None, mem_gb: float | None = None) -> dict:
    """-> STAGE-shaped knobs tuned to the detected (or given) resources.

    Detection reads ``ray.cluster_resources()`` when available (the
    torch.cuda.get_device_properties analog); explicit args override for
    tests/offline planning.
    """
    if num_cpus is None or mem_gb is None:
        try:
            import ray

            res = ray.cluster_resources()
            num_cpus = num_cpus or int(res.get("CPU", 4))
            mem_gb = mem_gb or res.get("memory", 8 * 1024**3) / 1024**3
        except Exception:
            num_cpus, mem_gb = num_cpus or 4, mem_gb or 8.0
    tier = classify_tier(num_cpus, mem_gb)
    preset = RESOURCE_TIERS[tier]
    return {
        "tier": tier,
        "ocr_batch_size": preset["ocr_batch_size"],
        "dpi": preset["dpi"],
        "use_fp16": preset["use_fp16"],
        "read_blocks": num_cpus * 4,  # wave-aligned (BASELINE.md measurement)
    }
