"""Sinks: categorized partitioned write round-trip, full-text framing."""

import glob
import os
import tempfile

import pandas as pd
import pytest
import ray.data

from pdf_ocr_comparison_tool_ray.pipelines.compare import enrich_spans
from pdf_ocr_comparison_tool_ray.pipelines.extraction import interleave, run_extraction
from pdf_ocr_comparison_tool_ray.pipelines.sinks import render_full_text, write_categorized
from pdf_ocr_comparison_tool_ray.synth import make_corpus


def _extracted(n=20, seed=5):
    docs = make_corpus(n, seed=seed, skew_docs=0)
    flat = ray.data.from_pandas(pd.DataFrame(docs)[["doc_id", "text"]])
    return run_extraction(interleave(flat))


@pytest.mark.usefixtures("ray_session")
def test_write_categorized_round_trip():
    out = _extracted()
    # enrich expects offset column naming
    spans = out.map_batches(
        lambda t: t.select(
            ["doc_id", "seq", "kind", "text", "media_ref", "route", "score"]
        ).rename_columns(
            ["doc_id", "offset", "kind", "text", "media_ref", "route", "score"]
        ),
        batch_format="pyarrow",
    )
    enriched = enrich_spans(spans)
    n_rows = enriched.count()
    with tempfile.TemporaryDirectory() as d:
        write_categorized(enriched, d)
        # hive layout: one dir per main_type
        parts = sorted(
            os.path.basename(p) for p in glob.glob(os.path.join(d, "main_type=*"))
        )
        assert parts, "no partition directories written"
        back = ray.data.read_parquet(d).to_pandas()
        assert len(back) == n_rows
        # every doc has exactly one main_type
        per_doc = back.groupby("doc_id")["main_type"].nunique()
        assert (per_doc == 1).all()


@pytest.mark.usefixtures("ray_session")
def test_render_full_text_framing():
    out = _extracted(n=6, seed=9)
    rendered = render_full_text(out).to_pandas().set_index("doc_id")
    spans = out.to_pandas().sort_values(["doc_id", "seq"])
    for doc_id, g in spans.groupby("doc_id"):
        expected = "\n".join(
            f"=== 第{int(s)+1}页 ===\n{t}" for s, t in zip(g["seq"], g["text"])
        )
        assert rendered.loc[doc_id, "full_text"] == expected
        assert rendered.loc[doc_id, "n_spans"] == len(g)


@pytest.mark.usefixtures("ray_session")
def test_nest_round_trip():
    """explode -> extract -> reassemble -> nest recovers one row per doc
    with ordered span structs; write_documents round-trips via parquet."""
    from pdf_ocr_comparison_tool_ray.pipelines.sinks import nest_spans, write_documents

    out = _extracted(n=10, seed=3)
    nested = nest_spans(out).to_pandas()
    flat = out.to_pandas()
    assert len(nested) == flat["doc_id"].nunique()
    row = nested.set_index("doc_id").loc[flat["doc_id"].iloc[0]]
    spans = row["spans"]
    offs = [s["offset"] for s in spans]
    assert offs == sorted(offs) and offs[0] == 0
    g = flat[flat["doc_id"] == flat["doc_id"].iloc[0]].sort_values("seq")
    assert [s["text"] for s in spans] == g["text"].tolist()

    with tempfile.TemporaryDirectory() as d:
        write_documents(_extracted(n=10, seed=3), d)
        back = ray.data.read_parquet(d).to_pandas()
        assert len(back) == len(nested)
        assert set(back.columns) == {"doc_id", "spans"}


@pytest.mark.usefixtures("ray_session")
def test_merge_by_category_artifact(tmp_path):
    """S6 analog: per-category merged text carries every doc of the
    category, in doc_id order, with per-doc headers and page framing."""
    from pdf_ocr_comparison_tool_ray.pipelines.sinks import (
        merge_by_category,
        write_merged_by_category,
    )

    out = _extracted(n=12, seed=7)
    spans = out.map_batches(
        lambda t: t.select(
            ["doc_id", "seq", "kind", "text", "media_ref", "route", "score"]
        ).rename_columns(
            ["doc_id", "offset", "kind", "text", "media_ref", "route", "score"]
        ),
        batch_format="pyarrow",
    )
    enriched = enrich_spans(spans)
    merged = merge_by_category(enriched).to_pandas()
    docs = enriched.to_pandas()
    n_docs_total = docs["doc_id"].nunique()
    assert merged["n_docs"].sum() == n_docs_total
    # every document's header appears exactly once across artifacts
    for doc_id in docs["doc_id"].unique():
        hits = merged["merged_text"].str.count(f"--- {doc_id} ---").sum()
        assert hits == 1
    # headers are in doc_id order within each artifact
    for _, row in merged.iterrows():
        import re

        ids = re.findall(r"--- (\S+) ---", row["merged_text"])
        assert ids == sorted(ids)
    paths = write_merged_by_category(enriched, str(tmp_path))
    assert set(paths) == set(merged["main_type"])
    for name, p in paths.items():
        body = open(p).read()
        assert body == merged.set_index("main_type").loc[name, "merged_text"]


@pytest.mark.usefixtures("ray_session")
def test_export_rows_format_round_trip(tmp_path):
    """Flat rows survive parquet / jsonl / csv round trips through the
    matching Ray readers; nested span tables are refused."""
    from pdf_ocr_comparison_tool_ray.pipelines.sinks import export_rows, nest_spans

    rendered = render_full_text(_extracted(n=8, seed=11))
    want = (
        rendered.to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )

    readers = {
        "parquet": ray.data.read_parquet,
        "jsonl": ray.data.read_json,
        "csv": ray.data.read_csv,
    }
    for fmt, reader in readers.items():
        out = str(tmp_path / fmt)
        export_rows(rendered, out, fmt=fmt)
        got = (
            reader(out)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)[want.columns]
        )
        got["n_spans"] = got["n_spans"].astype("int64")
        pd.testing.assert_frame_equal(got, want), fmt

    nested = nest_spans(_extracted(n=4, seed=12))
    with pytest.raises(ValueError, match="flat tables"):
        export_rows(nested, str(tmp_path / "bad"), fmt="csv")
    with pytest.raises(ValueError, match="unknown export format"):
        export_rows(rendered, str(tmp_path / "bad2"), fmt="xml")
