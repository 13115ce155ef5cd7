"""Compare pipeline vs the pure-Python match oracle."""

import hypothesis as settings_module
import pandas as pd
import pyarrow as pa
import pytest
import ray.data
from hypothesis import strategies as st

from pdf_ocr_comparison_tool_ray.oracle_match import golden_matches
from pdf_ocr_comparison_tool_ray.pipelines.compare import run_compare
from pdf_ocr_comparison_tool_ray.pipelines.extraction import interleave, run_extraction
from pdf_ocr_comparison_tool_ray.stages.match import merge_match_group
from pdf_ocr_comparison_tool_ray.synth import make_corpus


def _extracted(docs):
    flat = ray.data.from_pandas(pd.DataFrame(docs)[["doc_id", "text"]])
    out = run_extraction(interleave(flat))
    # reassembled output -> rename seq back to offset for the match stage
    return out.map_batches(
        lambda t: t.select(
            ["doc_id", "seq", "kind", "text", "media_ref", "route", "score"]
        ).rename_columns(
            ["doc_id", "offset", "kind", "text", "media_ref", "route", "score"]
        ),
        batch_format="pyarrow",
    )


def _probe_corpus(ref_docs):
    probe = []
    # exact duplicates: same doc_id AND text -> identical chunking -> hash path
    for d in ref_docs[:4]:
        probe.append({"doc_id": d["doc_id"], "text": d["text"]})
    # near-duplicates: same text, different doc_id -> different chunking,
    # shared dates/amounts -> candidate-pruning path
    for d in ref_docs[4:8]:
        probe.append({"doc_id": "near_" + d["doc_id"], "text": d["text"]})
    # unrelated: novel vocabulary -> fallback path -> low/none
    for i in range(3):
        probe.append(
            {
                "doc_id": f"unrel{i:03d}",
                "text": " ".join(f"novel{j}tok unseen{j}" for j in range(i * 7, i * 7 + 30)),
            }
        )
    return probe


@pytest.mark.usefixtures("ray_session")
def test_compare_matches_oracle():
    ref_docs = make_corpus(12, seed=100, skew_docs=0)
    probe_docs = _probe_corpus(ref_docs)
    result = run_compare(_extracted(probe_docs), _extracted(ref_docs))
    df = (
        result.to_pandas()
        .sort_values(["source_doc_id", "source_start"])
        .reset_index(drop=True)
    )
    golden = pd.DataFrame(
        golden_matches(
            [(d["doc_id"], d["text"]) for d in probe_docs],
            [(d["doc_id"], d["text"]) for d in ref_docs],
        )
    ).sort_values(["source_doc_id", "source_start"]).reset_index(drop=True)
    assert len(df) == len(golden)
    for col in [
        "source_doc_id", "source_start", "source_end", "match_status",
        "target_doc_id", "target_start", "target_end",
    ]:
        assert df[col].tolist() == golden[col].tolist(), f"mismatch in {col}"
    assert (df["similarity"] - golden["similarity"]).abs().max() < 1e-9
    assert [list(k) for k in df["matched_keywords"]] == golden["matched_keywords"].tolist()
    # every match path exercised
    statuses = set(df["match_status"])
    assert "exact" in statuses
    assert statuses - {"exact"}  # at least one non-exact outcome


def test_merge_run_semantics():
    # consecutive same-target same-status rows collapse; unmatched never merge
    rows = {
        "source_doc_id": ["d"] * 5,
        "source_offset": [0, 1, 2, 3, 4],
        "doc_type": ["t"] * 5,
        "match_status": ["exact", "exact", "partial", "none", "none"],
        "target_doc_id": ["r", "r", "r", "", ""],
        "target_offset": [10, 11, 12, -1, -1],
        "similarity": [1.0, 0.98, 0.8, 0.0, 0.0],
        "matched_keywords": [["a"], ["b"], ["c"], [], []],
    }
    out = merge_match_group(pa.Table.from_pydict(rows)).to_pylist()
    assert len(out) == 4  # (0-1 merged), (2), (3), (4)
    first = out[0]
    assert first["source_start"] == 0 and first["source_end"] == 1
    assert first["target_start"] == 10 and first["target_end"] == 11
    assert abs(first["similarity"] - 0.99) < 1e-12
    assert first["matched_keywords"] == ["a", "b"]
    assert out[2]["match_status"] == "none" and out[3]["match_status"] == "none"


def test_find_matches_fast_path_equals_calculate_similarity():
    """The pre-tokenized probe path in find_matches must score bit-exactly
    what the naive per-pair calculate_similarity scores, for every
    algorithm (integer dot / integer norm sums are order-independent)."""
    from pdf_ocr_comparison_tool_ray.functions.features import (
        extract_amounts,
        extract_dates,
    )
    from pdf_ocr_comparison_tool_ray.functions.similarity import calculate_similarity
    from pdf_ocr_comparison_tool_ray.functions.textnorm import text_hash
    from pdf_ocr_comparison_tool_ray.stages.match import PageIndex, find_matches

    docs = make_corpus(10, seed=7, skew_docs=0)
    rows = []
    for i, d in enumerate(docs):
        rows.append(
            {
                "doc_id": d["doc_id"],
                "offset": i,
                "text": d["text"][:400],
                "keywords": [],
                "dates": extract_dates(d["text"]),
                "amounts": extract_amounts(d["text"]),
                "text_hash": text_hash(d["text"][:400]),
            }
        )
    index = PageIndex.from_rows(rows)
    probes = [
        {
            "doc_id": "p",
            "offset": 0,
            "text": docs[3]["text"][100:500],  # near-dup: candidate path
            "dates": extract_dates(docs[3]["text"]),
            "amounts": extract_amounts(docs[3]["text"]),
            "text_hash": "nohash",
        },
        {
            "doc_id": "q",
            "offset": 1,
            "text": "entirely novel words here",  # fallback path
            "dates": [],
            "amounts": [],
            "text_hash": "nohash2",
        },
        {"doc_id": "e", "offset": 2, "text": "", "dates": [], "amounts": [],
         "text_hash": "nohash3"},  # empty probe -> 0.0 everywhere
    ]
    from pdf_ocr_comparison_tool_ray.config import MATCHING

    for algo in ("cosine", "jaccard", "levenshtein", "not-an-algo"):
        cfg = dict(MATCHING)
        cfg["algorithm"] = algo
        cfg["partial_match_threshold"] = 0.0  # keep every candidate's score
        for probe in probes:
            got = find_matches(index, probe, cfg)
            for idx, sim in got:
                want = calculate_similarity(
                    probe["text"], index.pages[idx]["text"], algo
                )
                assert sim == want, (algo, probe["doc_id"], idx, sim, want)


@pytest.mark.usefixtures("ray_session")
def test_shuffle_match_equals_broadcast_match():
    """The hash-shuffle co-partition join must reproduce the broadcast
    ``match_spans`` rows exactly (exact-hash, candidate, fallback paths)."""
    from pdf_ocr_comparison_tool_ray.pipelines.compare import run_compare_shuffle

    ref_docs = make_corpus(12, seed=100, skew_docs=0)
    probe_docs = _probe_corpus(ref_docs)
    probe_ex, ref_ex = _extracted(probe_docs), _extracted(ref_docs)

    def norm(ds):
        return (
            ds.to_pandas()
            .sort_values(["source_doc_id", "source_start"])
            .reset_index(drop=True)
        )

    broadcast = norm(run_compare(probe_ex, ref_ex))
    shuffled = norm(run_compare_shuffle(probe_ex, ref_ex))
    assert len(broadcast) == len(shuffled)
    for col in broadcast.columns:
        if col == "similarity":
            assert (broadcast[col] - shuffled[col]).abs().max() < 1e-12
        elif col == "matched_keywords":
            assert [list(k) for k in broadcast[col]] == [list(k) for k in shuffled[col]]
        else:
            assert broadcast[col].tolist() == shuffled[col].tolist(), f"mismatch in {col}"


@pytest.mark.usefixtures("ray_session")
def test_salted_shuffle_match_equals_broadcast():
    """Hot-key salting (forced on EVERY key) must not change the match
    output: builds hash to one sub-key, probes replicate to all, the
    per-probe dedup reunifies the candidate set."""
    from pdf_ocr_comparison_tool_ray.pipelines.compare import enrich_spans, merge_matches
    from pdf_ocr_comparison_tool_ray.stages.match_shuffle import run_match_shuffle

    ref_docs = make_corpus(10, seed=100, skew_docs=0)
    probe_docs = _probe_corpus(ref_docs)
    probe_e = enrich_spans(_extracted(probe_docs)).materialize()
    build_e = enrich_spans(_extracted(ref_docs)).materialize()

    def norm(ds):
        return (
            merge_matches(ds)
            .to_pandas()
            .sort_values(["source_doc_id", "source_start"])
            .reset_index(drop=True)
        )

    plain = norm(run_match_shuffle(probe_e, build_e, salt_threshold=None))
    salted = norm(run_match_shuffle(probe_e, build_e, salt_threshold=0, salt_factor=4))
    assert len(plain) == len(salted)
    for col in plain.columns:
        if col == "similarity":
            assert (plain[col] - salted[col]).abs().max() < 1e-12
        elif col == "matched_keywords":
            assert [list(k) for k in plain[col]] == [list(k) for k in salted[col]]
        else:
            assert plain[col].tolist() == salted[col].tolist(), f"mismatch in {col}"


@pytest.mark.usefixtures("ray_session")
def test_auto_salting_detects_planted_hot_key_and_preserves_output():
    """A build side where most pages share one date must trip the auto
    threshold on that date key, and the salted run must equal the
    unsalted one row for row."""
    import pandas as pd
    import ray.data

    from pdf_ocr_comparison_tool_ray.pipelines.compare import enrich_spans, merge_matches
    from pdf_ocr_comparison_tool_ray.stages import match_shuffle as ms
    from pdf_ocr_comparison_tool_ray.stages.match_shuffle import (
        _hot_keys,
        run_match_shuffle,
    )

    hot_date = "2024-06-01"
    build_rows = [
        {
            "doc_id": f"b{i:03d}",
            "offset": 0,
            "text": f"doc {i} payload 金额: {i}00 dated {hot_date}",
        }
        for i in range(40)
    ]
    probe_rows = [
        {"doc_id": f"p{i:03d}", "offset": 0, "text": f"probe {i} dated {hot_date}"}
        for i in range(10)
    ]
    build_e = enrich_spans(ray.data.from_pandas(pd.DataFrame(build_rows))).materialize()
    probe_e = enrich_spans(ray.data.from_pandas(pd.DataFrame(probe_rows))).materialize()

    # auto mode with a floor below the planted frequency must salt d:<hot_date>
    old_min = ms.AUTO_SALT_MIN
    ms.AUTO_SALT_MIN = 8
    try:
        hot = _hot_keys(build_e, "auto", n_buckets=64)
        assert f"d:{hot_date}" in hot

        def norm(ds):
            return (
                merge_matches(ds)
                .to_pandas()
                .sort_values(["source_doc_id", "source_start"])
                .reset_index(drop=True)
            )

        unsalted = norm(run_match_shuffle(probe_e, build_e, salt_threshold=None))
        auto = norm(run_match_shuffle(probe_e, build_e, salt_threshold="auto"))
    finally:
        ms.AUTO_SALT_MIN = old_min
    assert len(unsalted) == len(auto)
    for col in unsalted.columns:
        if col == "similarity":
            assert (unsalted[col] - auto[col]).abs().max() < 1e-12
        elif col == "matched_keywords":
            assert [list(k) for k in unsalted[col]] == [list(k) for k in auto[col]]
        else:
            assert unsalted[col].tolist() == auto[col].tolist(), f"mismatch in {col}"


@pytest.mark.usefixtures("ray_session")
@settings_module.settings(max_examples=5, deadline=None,
                          suppress_health_check=list(settings_module.HealthCheck))
@settings_module.given(
    st.lists(
        st.tuples(st.sampled_from(["alpha", "beta", "gamma", "delta"]),
                  st.integers(0, 3)),
        min_size=1, max_size=6,
    ),
    st.integers(0, 10_000),
)
def test_compare_property_random_corpora(spec, seed):
    """Random overlapping probe/ref corpora: the Ray compare pipeline must
    equal the pure-python golden oracle row for row."""
    rng = __import__("random").Random(seed)
    vocab = ["scan", "merge", "sort", "batch", "window", "查询", "合同", "发票"]

    def text_of(base, variant):
        n = 10 + (variant * 7) % 25
        r = __import__("random").Random(hash((base, variant)) & 0xFFFF)
        return " ".join(r.choice(vocab) for _ in range(n))

    ref_docs = [
        {"doc_id": f"ref{i:03d}", "text": text_of(b, v)}
        for i, (b, v) in enumerate(spec)
    ]
    probe_docs = []
    for i, (b, v) in enumerate(spec):
        if rng.random() < 0.5:  # exact duplicate of a ref text
            probe_docs.append({"doc_id": f"p{i:03d}", "text": ref_docs[i]["text"]})
        else:  # perturbed
            probe_docs.append(
                {"doc_id": f"p{i:03d}", "text": ref_docs[i]["text"] + " extra tail"}
            )
    result = run_compare(_extracted(probe_docs), _extracted(ref_docs))
    df = (
        result.to_pandas()
        .sort_values(["source_doc_id", "source_start"])
        .reset_index(drop=True)
    )
    golden = pd.DataFrame(
        golden_matches(
            [(d["doc_id"], d["text"]) for d in probe_docs],
            [(d["doc_id"], d["text"]) for d in ref_docs],
        )
    ).sort_values(["source_doc_id", "source_start"]).reset_index(drop=True)
    assert len(df) == len(golden)
    for col in ["source_doc_id", "source_start", "source_end", "match_status",
                "target_doc_id", "target_start", "target_end"]:
        assert df[col].tolist() == golden[col].tolist(), col
    assert (df["similarity"] - golden["similarity"]).abs().max() < 1e-9

@pytest.mark.usefixtures("ray_session")
def test_compare_auto_routes_by_build_size():
    """run_compare_auto: broadcast path for small build sides, shuffle
    path when the build side exceeds the cap — both row-identical."""
    from pdf_ocr_comparison_tool_ray.pipelines.compare import run_compare_auto

    ref_docs = make_corpus(10, seed=60, skew_docs=0)
    probe_docs = _probe_corpus(ref_docs)
    probe_ex, ref_ex = _extracted(probe_docs), _extracted(ref_docs)

    def norm(ds):
        return (
            ds.to_pandas()
            .sort_values(["source_doc_id", "source_start"])
            .reset_index(drop=True)
        )

    base = norm(run_compare(probe_ex, ref_ex))
    small = norm(run_compare_auto(probe_ex, ref_ex))  # broadcast route
    forced = norm(
        run_compare_auto(probe_ex, ref_ex, broadcast_max_build_rows=1)
    )  # shuffle route
    for got in (small, forced):
        assert len(got) == len(base)
        assert got["match_status"].tolist() == base["match_status"].tolist()
        assert (got["similarity"] - base["similarity"]).abs().max() < 1e-12
