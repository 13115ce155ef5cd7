"""Unit tests for the pure-function core (no Ray)."""

import random

from pdf_ocr_comparison_tool_ray.functions.classify import RuleClassifier
from pdf_ocr_comparison_tool_ray.functions.extract import extract_span
from pdf_ocr_comparison_tool_ray.functions.features import (
    extract_amounts,
    extract_dates,
    extract_numbers,
)
from pdf_ocr_comparison_tool_ray.functions.html_strip import strip_html
from pdf_ocr_comparison_tool_ray.functions.lang import detect_language
from pdf_ocr_comparison_tool_ray.functions.mock_ocr import decode_media, encode_media
from pdf_ocr_comparison_tool_ray.functions.pagerange import format_range, parse_range
from pdf_ocr_comparison_tool_ray.functions.pdf_parse import (
    parse_text_layer,
    serialize_text_layer,
)
from pdf_ocr_comparison_tool_ray.functions.project import ProjectDetector
from pdf_ocr_comparison_tool_ray.functions.quality import quality_ok, quality_signals
from pdf_ocr_comparison_tool_ray.functions.similarity import (
    cosine_similarity,
    jaccard_similarity,
    levenshtein_similarity,
)
from pdf_ocr_comparison_tool_ray.functions.textnorm import (
    normalize_amount,
    text_hash,
)
from pdf_ocr_comparison_tool_ray.functions.tokenize import tokenize, top_keywords
from pdf_ocr_comparison_tool_ray.config import DOCUMENT_TYPES_ZH, PROJECTS_EN
from pdf_ocr_comparison_tool_ray.sources.interleave import wrap_html

CANNED_REF = "生物孵化器SARS项目加固工程款 日期：2003-05-31 金额：300000元"
CANNED_SRC = "生物孵化器SARS项目加固工程款（首期）日期：2003-05-31 金额：300000元"


def test_text_hash_normalization():
    # whitespace-insensitive, case-insensitive (content_matcher.py:30-35)
    assert text_hash("Hello  World") == text_hash("helloworld")
    assert text_hash("a b\nc") == text_hash("abc")
    assert text_hash("x") != text_hash("y")


def test_normalize_amount():
    assert normalize_amount("300,000 元") == "300000元"
    assert normalize_amount("1，234.56") == "1234.56"


def test_tokenize_cjk_bigrams():
    assert tokenize("abc 123") == ["abc", "123"]
    assert tokenize("生物孵化器") == ["生物", "物孵", "孵化", "化器"]
    assert tokenize("水") == ["水"]


def test_top_keywords_deterministic_tiebreak():
    # equal counts -> lexicographic
    assert top_keywords("bb aa bb aa cc", 2) == ["aa", "bb"]
    # digits and short tokens filtered (ocr_engine.py:405-407)
    assert "12" not in top_keywords("12 12 12 word word")


def test_feature_regexes_reference_patterns():
    assert extract_dates(CANNED_REF) == ["2003-05-31"]
    assert extract_dates("2024年3月15日 2024.06.30 2024/07/01") == sorted(
        ["2024年3月15日", "2024.06.30", "2024/07/01"]
    )
    amounts = extract_amounts(CANNED_REF)
    assert "300000元" in amounts and "金额：300000" in amounts
    assert "¥50,000.00" in extract_amounts("资金申请 ¥50,000.00")
    nums = extract_numbers("合同号：HT2024001 编号：SP-2024-017")
    assert "合同号：HT2024001" in nums and "HT2024001" in nums


def test_similarity_kernels():
    assert abs(cosine_similarity(CANNED_REF, CANNED_REF) - 1.0) < 1e-9
    s = cosine_similarity(CANNED_REF, CANNED_SRC)
    assert 0.9 < s < 1.0
    assert jaccard_similarity("a b c", "a b c") == 1.0
    assert jaccard_similarity("aa bb", "cc dd") == 0.0
    assert levenshtein_similarity("abc", "abd") == 1 - 1 / 3
    assert levenshtein_similarity("", "") == 1.0
    assert levenshtein_similarity("a", "") == 0.0
    # 1000-char truncation quirk (content_matcher.py:132-134)
    long1 = "x" * 2000
    long2 = "x" * 1000 + "y" * 1000
    assert levenshtein_similarity(long1, long2) == 1.0


def test_levenshtein_matches_naive_dp():
    def naive(t1, t2):
        m, n = len(t1), len(t2)
        dp = [[0] * (n + 1) for _ in range(m + 1)]
        for i in range(m + 1):
            dp[i][0] = i
        for j in range(n + 1):
            dp[0][j] = j
        for i in range(1, m + 1):
            for j in range(1, n + 1):
                if t1[i - 1] == t2[j - 1]:
                    dp[i][j] = dp[i - 1][j - 1]
                else:
                    dp[i][j] = min(dp[i - 1][j], dp[i][j - 1], dp[i - 1][j - 1]) + 1
        return 1 - dp[m][n] / max(m, n)

    rng = random.Random(3)
    for _ in range(10):
        a = "".join(rng.choice("abcd日期金额") for _ in range(rng.randint(1, 40)))
        b = "".join(rng.choice("abcd日期金额") for _ in range(rng.randint(1, 40)))
        assert abs(levenshtein_similarity(a, b) - naive(a, b)) < 1e-12


def test_rule_classifier():
    clf = RuleClassifier(DOCUMENT_TYPES_ZH)
    dt, conf, kws = clf.classify("记账凭证 借方 贷方 科目")
    assert dt == "凭证" and conf > 0.5 and "借方" in kws
    dt, conf, _ = clf.classify("no keywords here")
    assert dt == "other" and conf == 0.5
    dt, _, _ = clf.classify("工程建设合同书 甲方 乙方 协议")
    assert dt == "合同书"


def test_project_detector():
    det = ProjectDetector(PROJECTS_EN)
    assert det.detect("src0", "") == ("proj_alpha", 1.0, "path")
    proj, conf, mt = det.detect("srcX", "customer order customer")
    assert proj == "proj_beta" and mt == "content"
    assert det.detect("srcX", "nothing relevant") == ("unassigned", 0.0, "none")


def test_html_strip_roundtrip():
    rng = random.Random(5)
    for chunk in ["hello world data", "a < b & c > d", CANNED_REF]:
        assert strip_html(wrap_html(chunk, rng)) == chunk


def test_pdf_layer_roundtrip_scrambled_blocks():
    txt = " ".join(f"w{i}" for i in range(100))
    for order in ([3, 1, 0, 2, 4], [4, 3, 2, 1, 0]):
        assert parse_text_layer(serialize_text_layer(txt, block_order=order)) == txt
    assert parse_text_layer("raw non-layer text") == "raw non-layer text"


def test_mock_ocr_roundtrip():
    assert decode_media(encode_media(CANNED_REF)) == CANNED_REF
    assert decode_media("not-a-ref") == ""


def test_extract_span_routing():
    text, route, score, bbox = extract_span("text", "abc", "")
    assert (text, route, score) == ("abc", "native", 1.0)
    assert bbox == [0, 0, 0, 0]  # no geometry on native text spans
    chunk = "alpha beta gamma delta"
    rng = random.Random(9)
    text, route, _, _ = extract_span("html", wrap_html(chunk, rng), "")
    assert (text, route) == (chunk, "html")
    text, route, _, scan_bbox = extract_span("scan", "", encode_media(chunk))
    assert (text, route) == (chunk, "ocr")
    # OCR route carries the engine's [x1, y1, x2, y2] fragment box
    from pdf_ocr_comparison_tool_ray.functions.mock_ocr import mock_bbox

    assert scan_bbox == mock_bbox(chunk)
    x1, y1, x2, y2 = scan_bbox
    assert x2 > x1 and y2 > y1
    # pdf: clean layer -> native wins; fully corrupted -> ocr wins
    layer = serialize_text_layer(chunk)
    text, route, score, _ = extract_span("pdf", layer, encode_media(chunk))
    assert (text, route) == (chunk, "native") and score == 1.0
    bad_layer = serialize_text_layer("zz qq vv nn")
    text, route, score, _ = extract_span("pdf", bad_layer, encode_media(chunk))
    assert (text, route) == (chunk, "ocr") and score < 0.85


def test_pagerange():
    assert format_range(0, 2) == "P1-P3"
    assert format_range(4, 4) == "P5"
    assert parse_range("P1-P3") == (1, 3)
    assert parse_range("P7") == (7, 7)


def test_lang_and_quality():
    assert detect_language("the cat and the dog in the house")[0] == "en"
    assert detect_language("el perro y la casa de los gatos en madrid")[0] == "es"
    assert detect_language("生物孵化器项目加固工程款项目验收报告")[0] == "zh"
    sig = quality_signals("the quick brown fox jumps over the lazy dog again today")
    assert sig["n_words"] == 11 and quality_ok(sig)
    assert not quality_ok(quality_signals("short"))


def test_classify_cascade_matches_oracle(ray_session):
    """M11-M13 cascade: rule-confident rows bypass the LLM pool; doubtful
    rows keep the higher-confidence answer."""
    import pandas as pd
    import ray.data

    from pdf_ocr_comparison_tool_ray.functions.classify import RuleClassifier
    from pdf_ocr_comparison_tool_ray.stages.classify_cascade import (
        MockLLMClassifier,
        classify_cascade,
    )
    from pdf_ocr_comparison_tool_ray.synth import make_corpus

    docs = make_corpus(40, seed=33, skew_docs=0)
    ds = ray.data.from_pandas(pd.DataFrame(docs)[["doc_id", "text"]])
    got = classify_cascade(ds, llm_threshold=0.7).to_pandas().set_index("doc_id")

    from pdf_ocr_comparison_tool_ray.config import DOCUMENT_TYPES_ZH

    rule = RuleClassifier(DOCUMENT_TYPES_ZH)
    llm = MockLLMClassifier()
    for d in docs:
        rt, rc, _ = rule.classify(d["text"])
        if rc >= 0.7:
            exp_t, exp_c, exp_src = rt, rc, "rule"
        else:
            lt, lc = llm.classify_one(d["text"])
            if lc > rc:
                exp_t, exp_c, exp_src = lt, lc, "llm"
            else:
                exp_t, exp_c, exp_src = rt, rc, "rule"
        row = got.loc[d["doc_id"]]
        assert row["doc_type"] == exp_t, d["doc_id"]
        assert abs(row["type_confidence"] - exp_c) < 1e-12
        assert row["classifier"] == exp_src
    assert (got["classifier"] == "llm").any() or (got["type_confidence"] >= 0.7).all()


def test_project_detector_wildcard_rules():
    """F6 (project_detector.py:70-78): '*' in a source rule matches like
    a glob; exact source matches win over wildcards; declaration order
    breaks wildcard ties."""
    from pdf_ocr_comparison_tool_ray.functions.project import ProjectDetector

    det = ProjectDetector(
        {
            "p_exact": {"sources": ["src1"], "keywords": []},
            "p_wild": {"sources": ["src1*"], "keywords": []},
            "p_other": {"sources": ["src*"], "keywords": []},
        }
    )
    assert det.detect_by_source("src1") == "p_exact"      # exact beats wildcard
    assert det.detect_by_source("src15") == "p_wild"      # first wildcard wins
    assert det.detect_by_source("src9") == "p_other"
    assert det.detect_by_source("SRC15") == "p_wild"      # case-insensitive
    assert det.detect_by_source("other") is None
    proj, conf, mt = det.detect("src12", "")
    assert (proj, conf, mt) == ("p_wild", 1.0, "path")


def test_auto_stage_config_tiers():
    """§2.10 auto-config (model_optimizer.py:80-157 analog): tiers by
    memory-per-core, explicit args override detection."""
    from pdf_ocr_comparison_tool_ray.config import auto_stage_config, classify_tier

    assert classify_tier(32, 256) == "high"     # 8 GB/core
    assert classify_tier(32, 96) == "medium"    # 3 GB/core
    assert classify_tier(32, 32) == "low"       # 1 GB/core
    hi = auto_stage_config(num_cpus=32, mem_gb=256)
    assert hi["tier"] == "high" and hi["ocr_batch_size"] == 512
    assert hi["read_blocks"] == 128
    lo = auto_stage_config(num_cpus=4, mem_gb=4)
    assert lo["tier"] == "low" and lo["use_fp16"] is False


def test_ocr_scrub_grounding_parse():
    """The second-engine output path (deepseek_ocr2_engine.py:269-345):
    grounding pairs parse to positioned fragments; noisy plain text
    scrubs to clean lines; clean mock output is a no-op."""
    from pdf_ocr_comparison_tool_ray.functions.ocr_scrub import (
        parse_engine_output,
        parse_grounded_fragments,
        scrub_engine_output,
        union_bbox,
    )

    # exact reference output shape (deepseek_ocr2_engine.py:271-272):
    # literal 'text' between the ref markers, recognized fragment AFTER
    # the closing det tag
    grounded = (
        "<|ref|>text<|/ref|><|det|>[[10, 20, 200, 40]]<|/det|>\n"
        "Invoice 2024-001\n"
        "<|ref|>text<|/ref|><|det|>[[10,60,150,80]]<|/det|>\nTotal: 300"
    )
    frags = parse_grounded_fragments(grounded)
    assert frags == [
        ("Invoice 2024-001", [10, 20, 200, 40]),
        ("Total: 300", [10, 60, 150, 80]),
    ]
    text, bbox = parse_engine_output(grounded)
    assert text == "Invoice 2024-001\nTotal: 300"
    assert bbox == [10, 20, 200, 80]
    assert union_bbox([]) == [0, 0, 0, 0]

    noisy = "\n".join(
        [
            "INFO loading model",
            "=====",
            "image size: 1024",
            "<|grounding|>Real content line one [[1, 2, 3, 4]]",
            "x",  # < 2 chars
            "BASE: 7 PATCHES: 9",
            "second real line",
        ]
    )
    assert scrub_engine_output(noisy) == "Real content line one\nsecond real line"
    text, bbox = parse_engine_output(noisy)
    assert bbox is None and text.startswith("Real content")

    # clean mock output passes through untouched (goldens unchanged)
    clean = "filter data spark row data part join window"
    assert parse_engine_output(clean) == (clean, None)


def test_pii_redact_and_counts():
    from pdf_ocr_comparison_tool_ray.functions.pii import pii_counts, redact

    text = (
        "reach me at a.user+x@ex-1.org or 555-123-4567, "
        "ssn 123-45-6789, card 4000000000000001"
    )
    red = redact(text)
    assert "<EMAIL>" in red and "<PHONE>" in red
    assert "<SSN>" in red and "<CARD>" in red
    assert "@" not in red and "4000000000000001" not in red
    counts = pii_counts(text)
    assert counts == {"email": 1, "phone": 1, "ssn": 1, "card": 1}

    # sequential order: the email consumes its digits before the phone
    # pattern runs, so an email containing a phone-shaped local part is
    # redacted once, as email
    tricky = "x 555-123-4567@ex.org y"
    assert redact(tricky) == "x <EMAIL> y"
    # but independent counts see both kinds (documented divergence)
    assert pii_counts(tricky) == {"email": 1, "phone": 1, "ssn": 0, "card": 0}

    # phone (3-3-4) and ssn (3-2-4) shapes do not cross-match
    assert redact("555-12-3456") == "<SSN>"
    assert pii_counts("555-12-3456")["phone"] == 0


def test_value_histogram_partials_merge():
    """bin assignment clamps both edges; partial counts always emit the
    full fixed bin range so merge is a plain column sum."""
    import numpy as np

    from pdf_ocr_comparison_tool_ray.pipelines.queries import (
        _HIST_BINS,
        _HIST_WIDTH,
    )

    v = np.array([-5.0, 0.0, 24.999, 25.0, 499.9, 10_000.0])
    b = np.clip((v // _HIST_WIDTH).astype(np.int64), 0, _HIST_BINS - 1)
    assert b.tolist() == [0, 0, 0, 1, _HIST_BINS - 1, _HIST_BINS - 1]
    c = np.bincount(b, minlength=_HIST_BINS)
    assert len(c) == _HIST_BINS and c.sum() == len(v)


def test_pii_ascii_word_boundary_matches_re2():
    """Python compiles PII patterns with re.ASCII so \\b agrees with
    RE2: a non-ASCII letter adjacent to a digit run IS a boundary."""
    from pdf_ocr_comparison_tool_ray.functions.pii import pii_counts, redact

    assert redact("é555-123-4567") == "é<PHONE>"
    assert pii_counts("é555-123-4567")["phone"] == 1


def test_subword_tokens_zero_token_doc():
    """Empty or apostrophe-only text yields 0/0, never a dropped row;
    NBSP is not whitespace for the explicit ASCII class."""
    from pdf_ocr_comparison_tool_ray.pipelines.queries import (
        _SUBWORD_RE,
        _WS_RUN_RE,
    )

    assert _SUBWORD_RE.findall("") == []
    assert _SUBWORD_RE.findall("'''") == []  # bare apostrophes match nothing
    toks = _SUBWORD_RE.findall("a\xa0b")
    # NBSP falls into the punct branch, not the whitespace branch
    assert not any(_WS_RUN_RE.match(t) for t in toks if "\xa0" in t)


def test_value_histogram_excludes_nan():
    import numpy as np

    from pdf_ocr_comparison_tool_ray.pipelines.queries import (
        _HIST_BINS,
        _HIST_WIDTH,
    )

    v = np.array([np.nan, 10.0, np.inf, 30.0])
    v = v[np.isfinite(v)]
    b = np.clip(v // _HIST_WIDTH, 0, _HIST_BINS - 1).astype(np.int64)
    assert b.tolist() == [0, 1]  # nan/inf excluded before the cast
