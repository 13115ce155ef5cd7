"""Integration: the flagship pipeline reproduces the golden oracle exactly
under span-sequence equality (kind, text, media_ref, order)."""

import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from pdf_ocr_comparison_tool_ray.oracle import golden_spans
from pdf_ocr_comparison_tool_ray.pipelines.extraction import (
    interleave,
    run_extraction,
)
from pdf_ocr_comparison_tool_ray.stages.explode import explode_spans
from pdf_ocr_comparison_tool_ray.sources.interleave import derive_spans
from pdf_ocr_comparison_tool_ray.synth import make_corpus


def _flat_ds(docs):
    return ray.data.from_pandas(pd.DataFrame(docs)[["doc_id", "text"]])


def _result_df(ds):
    df = ds.to_pandas()
    return df.sort_values(["doc_id", "seq"]).reset_index(drop=True)


def _golden_df(docs):
    rows = golden_spans([(d["doc_id"], d["text"]) for d in docs])
    return pd.DataFrame(rows)


@pytest.mark.usefixtures("ray_session")
def test_explode_zero_copy_schema():
    docs = make_corpus(5, seed=1, skew_docs=0)
    tbl = pa.table(
        {
            "doc_id": [d["doc_id"] for d in docs],
            "spans": [derive_spans(d["doc_id"], d["text"]) for d in docs],
        }
    )
    out = explode_spans(tbl)
    assert out.column_names == ["doc_id", "kind", "text", "media_ref", "offset"]
    assert len(out) == sum(len(t) for t in tbl["spans"].to_pylist())


@pytest.mark.usefixtures("ray_session")
def test_span_sequence_equality_small():
    docs = make_corpus(30, seed=42, skew_docs=0)
    result = _result_df(run_extraction(interleave(_flat_ds(docs)), batch_size=64))
    golden = _golden_df(docs)
    assert len(result) == len(golden)
    for col in ["doc_id", "seq", "kind", "text", "media_ref", "route"]:
        assert result[col].tolist() == golden[col].tolist(), f"mismatch in {col}"
    assert (result["score"] - golden["score"]).abs().max() < 1e-12
    assert [list(b) for b in result["bbox"]] == golden["bbox"].tolist()


@pytest.mark.usefixtures("ray_session")
def test_span_sequence_equality_with_skew_tail():
    # a few documents with ~100x median span count exercise explode +
    # repartition and prove order survives block splitting
    docs = make_corpus(20, seed=7, skew_docs=2)
    result = _result_df(
        run_extraction(interleave(_flat_ds(docs)), batch_size=32, num_output_blocks=16)
    )
    golden = _golden_df(docs)
    assert len(result) == len(golden)
    for col in ["doc_id", "seq", "kind", "text", "media_ref"]:
        assert result[col].tolist() == golden[col].tolist(), f"mismatch in {col}"


@pytest.mark.usefixtures("ray_session")
def test_seq_is_dense_and_sorted_per_doc():
    docs = make_corpus(10, seed=3, skew_docs=0)
    result = _result_df(run_extraction(interleave(_flat_ds(docs))))
    for _, g in result.groupby("doc_id"):
        assert g["seq"].tolist() == list(range(len(g)))


@pytest.mark.usefixtures("ray_session")
def test_local_reassembly_equals_shuffle_reassembly():
    """The shuffle-free fast path (batch==block, no repartition) must emit
    exactly the rows of the general groupby(doc_id) shuffle path."""
    docs = make_corpus(40, seed=13, skew_docs=2)
    local = _result_df(run_extraction(interleave(_flat_ds(docs)), batch_size=None))
    shuffled = _result_df(
        run_extraction(interleave(_flat_ds(docs)), batch_size=16, num_output_blocks=8)
    )
    pd.testing.assert_frame_equal(local, shuffled)
    # and both match the golden oracle
    golden = _golden_df(docs)
    pd.testing.assert_frame_equal(
        local[["doc_id", "seq", "kind", "text", "media_ref"]],
        golden[["doc_id", "seq", "kind", "text", "media_ref"]],
        check_dtype=False,  # golden oracle is pure python (int64 seq)
    )


@pytest.mark.usefixtures("ray_session")
def test_split_routing_equals_fused_extraction():
    """Filter-split hybrid routing (light stateless / heavy actor pool +
    shuffle reassembly) must emit exactly the fused pipeline's rows."""
    from pdf_ocr_comparison_tool_ray.pipelines.extraction import run_extraction_split

    docs = make_corpus(30, seed=21, skew_docs=1)
    fused = _result_df(run_extraction(interleave(_flat_ds(docs)), batch_size=None))
    split = _result_df(run_extraction_split(interleave(_flat_ds(docs))))
    pd.testing.assert_frame_equal(fused, split)


@pytest.mark.usefixtures("ray_session")
def test_custom_extractor_registry():
    """2.10 extension surface: a custom kind routed through a user extractor
    shipped in the actor constructor args."""
    from pdf_ocr_comparison_tool_ray.stages.extract import SpanExtractor
    from pdf_ocr_comparison_tool_ray.stages.explode import explode_spans

    rows = pd.DataFrame(
        {
            "doc_id": ["d1", "d1"],
            "spans": [
                [
                    {"kind": "rot13", "text": "uryyb", "media_ref": "", "offset": 0},
                    {"kind": "text", "text": "plain", "media_ref": "", "offset": 1},
                ],
                None,
            ],
        }
    ).iloc[:1]
    ds = ray.data.from_pandas(rows)

    def rot13(text, media_ref):
        import codecs

        return codecs.decode(text, "rot13"), "custom:rot13", 0.9

    out = (
        ds.map_batches(explode_spans, batch_format="pyarrow")
        .map_batches(
            SpanExtractor,
            batch_format="pyarrow",
            concurrency=1,
            fn_constructor_kwargs={"extra_extractors": {"rot13": rot13}},
        )
        .to_pandas()
        .sort_values("offset")
    )
    assert out.iloc[0]["text"] == "hello"
    assert out.iloc[0]["route"] == "custom:rot13"
    assert out.iloc[0]["score"] == 0.9
    assert out.iloc[1]["route"] == "native"


@pytest.mark.usefixtures("ray_session")
def test_skew_aware_equals_fused_extraction():
    """Skew-aware split (giants shuffled, rest local) emits the same rows."""
    from pdf_ocr_comparison_tool_ray.pipelines.extraction import (
        run_extraction_skew_aware,
    )

    docs = make_corpus(25, seed=44, skew_docs=2)  # skew tail ~100x median
    fused = _result_df(run_extraction(interleave(_flat_ds(docs)), batch_size=None))
    aware = _result_df(
        run_extraction_skew_aware(
            interleave(_flat_ds(docs)), span_threshold=50
        )
    )
    pd.testing.assert_frame_equal(fused, aware)


@pytest.mark.usefixtures("ray_session")
def test_poison_row_quarantine():
    """An extractor crash marks ITS span route='error' (text preserved)
    and the pipeline completes; healthy spans are untouched."""
    from pdf_ocr_comparison_tool_ray.stages.explode import explode_spans
    from pdf_ocr_comparison_tool_ray.stages.extract import SpanExtractor

    rows = pd.DataFrame(
        {
            "doc_id": ["d1"],
            "spans": [
                [
                    {"kind": "boom", "text": "bad payload", "media_ref": "x", "offset": 0},
                    {"kind": "text", "text": "fine", "media_ref": "", "offset": 1},
                ]
            ],
        }
    )

    def exploding(text, media_ref):
        raise RuntimeError("corrupt media")

    out = (
        ray.data.from_pandas(rows)
        .map_batches(explode_spans, batch_format="pyarrow")
        .map_batches(
            SpanExtractor,
            batch_format="pyarrow",
            concurrency=1,
            fn_constructor_kwargs={"extra_extractors": {"boom": exploding}},
        )
        .to_pandas()
        .sort_values("offset")
    )
    assert out.iloc[0]["route"] == "error" and out.iloc[0]["score"] == 0.0
    assert out.iloc[0]["text"] == "bad payload"  # original preserved
    assert out.iloc[1]["route"] == "native" and out.iloc[1]["text"] == "fine"


@pytest.mark.usefixtures("ray_session")
def test_hybrid_rerun_confidence_routing():
    """Smart-mode rerun (hybrid_ocr_engine.py:152-182 analog): scan spans
    below the confidence threshold rerun on the second engine, the better
    answer wins, and extracted text is unchanged (the heavier engine reads
    the same page)."""
    import pandas as pd
    import pyarrow.compute as pc

    from pdf_ocr_comparison_tool_ray.pipelines.extraction import (
        interleave,
        run_extraction,
        run_extraction_hybrid_rerun,
    )
    from pdf_ocr_comparison_tool_ray.pipelines.reports import route_stats

    flat = ray.data.read_parquet(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text"]
    ).map_batches(
        lambda t: t.filter(pc.less(t["doc_id"], 80)), batch_format="pyarrow"
    )
    thr = 0.93
    base = (
        run_extraction(interleave(flat), batch_size=None)
        .to_pandas()
        .sort_values(["doc_id", "seq"])
        .reset_index(drop=True)
    )
    rerun = (
        run_extraction_hybrid_rerun(interleave(flat), rerun_threshold=thr)
        .to_pandas()
        .sort_values(["doc_id", "seq"])
        .reset_index(drop=True)
    )
    # span-sequence equality on (doc_id, seq, kind, text, media_ref)
    pd.testing.assert_frame_equal(
        base[["doc_id", "seq", "kind", "text", "media_ref"]],
        rerun[["doc_id", "seq", "kind", "text", "media_ref"]],
    )
    scans = base["kind"] == "scan"
    doubtful = scans & (base["score"] < thr)
    confident = ~doubtful
    # confident spans untouched
    pd.testing.assert_frame_equal(
        base.loc[confident, ["route", "score"]].reset_index(drop=True),
        rerun.loc[confident, ["route", "score"]].reset_index(drop=True),
    )
    # doubtful scans: better-or-equal score, route records the winner
    assert doubtful.any()
    assert (rerun.loc[doubtful, "score"] >= base.loc[doubtful, "score"]).all()
    assert set(rerun.loc[doubtful, "route"]) <= {"ocr", "ocr2"}
    assert (rerun.loc[doubtful, "route"] == "ocr2").any()
    # route_stats surfaces the fallback ratio
    stats = route_stats(
        run_extraction_hybrid_rerun(interleave(flat), rerun_threshold=thr)
    )
    ocr2 = stats.loc[stats["route"] == "ocr2", "route_ratio"]
    assert len(ocr2) == 1 and 0.0 < float(ocr2.iloc[0]) < 1.0


@pytest.mark.usefixtures("ray_session")
def test_read_flat_documents_formats(tmp_path):
    """S1 source surface: csv / json / parquet inputs produce identical
    extraction output (row formats project after the read; parquet prunes
    at the scan)."""
    import pandas as pd

    from pdf_ocr_comparison_tool_ray.pipelines.extraction import (
        interleave,
        read_flat_documents,
        run_extraction,
    )
    from pdf_ocr_comparison_tool_ray.synth import make_corpus

    docs = pd.DataFrame(make_corpus(8, seed=31, skew_docs=0))[["doc_id", "text"]]
    pq_p = tmp_path / "d.parquet"
    csv_p = tmp_path / "d.csv"
    json_p = tmp_path / "d.jsonl"
    docs.to_parquet(pq_p)
    docs.to_csv(csv_p, index=False)
    docs.to_json(json_p, orient="records", lines=True)

    def run(path):
        return (
            run_extraction(interleave(read_flat_documents(str(path))))
            .to_pandas()
            .sort_values(["doc_id", "seq"])
            .reset_index(drop=True)
        )

    base = run(pq_p)
    for alt in (csv_p, json_p):
        got = run(alt)
        pd.testing.assert_frame_equal(
            got[["doc_id", "seq", "kind", "text", "media_ref"]],
            base[["doc_id", "seq", "kind", "text", "media_ref"]],
        )


@pytest.mark.usefixtures("ray_session")
def test_preprocess_routing_runs_kernels_and_preserves_output():
    """extract_spans(preprocess=True) must run the M2/M3 kernels on every
    scan span (per-actor counter advances) without changing the extracted
    rows (the mock recognizer reads the payload's text channel; a real
    engine consumes the preprocessed image from the same call)."""
    from pdf_ocr_comparison_tool_ray.stages.extract import SpanExtractor
    from pdf_ocr_comparison_tool_ray.sources.interleave import derive_spans
    from pdf_ocr_comparison_tool_ray.stages.explode import explode_spans

    docs = make_corpus(12, seed=3, skew_docs=0)
    tbl = pa.table(
        {
            "doc_id": [d["doc_id"] for d in docs],
            "spans": [derive_spans(d["doc_id"], d["text"]) for d in docs],
        }
    )
    spans = explode_spans(tbl)
    n_scans = sum(k == "scan" for k in spans["kind"].to_pylist())
    assert n_scans > 0

    plain = SpanExtractor()(spans)
    pre_extractor = SpanExtractor(preprocess=True)
    pre = pre_extractor(spans)
    assert pre_extractor.preprocessed_spans == n_scans
    assert plain.equals(pre)  # recognition output unchanged by the mock seam


def test_derive_spans_absorbs_degenerate_tail():
    """A trailing 1-2 char word must merge into the final chunk: as its
    own html-kind span the stripper's min-length heuristic would drop
    it, losing text from the round trip (sf0.1 sweep regression)."""
    from pdf_ocr_comparison_tool_ray.functions.html_strip import strip_html
    from pdf_ocr_comparison_tool_ray.sources.interleave import derive_spans

    # seeds/doc_ids chosen only to exercise many chunkings; every doc
    # ends in the 1-char word 'a'
    text = " ".join(["tok%d" % i for i in range(40)]) + " a"
    for doc_id in map(str, range(30)):
        spans = derive_spans(doc_id, text, seed=42)
        all_words = []
        for s in sorted(spans, key=lambda s: s["offset"]):
            if s["kind"] == "html":
                body = strip_html(s["text"])
                assert body, "html span lost entirely"
        # no span's source chunk may be shorter than the stripper floor:
        # re-derive the chunk lengths from the text spans directly
        for s in spans:
            if s["kind"] in ("text", "html"):
                src = strip_html(s["text"]) if s["kind"] == "html" else s["text"]
                assert len(src) >= 3, (doc_id, s["kind"], repr(src))
