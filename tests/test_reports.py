"""Report aggregates A1–A4/A8 vs pandas-computed expectations."""

import pandas as pd
import pytest
import ray.data

from pdf_ocr_comparison_tool_ray.pipelines.reports import (
    doc_main_type,
    group_summary,
    keyword_analysis,
    match_summary,
    timeline,
)


def _match_results_df():
    return pd.DataFrame(
        {
            "source_doc_id": [f"d{i}" for i in range(8)],
            "project": ["p1", "p1", "p1", "p2", "p2", "p2", "p2", "p1"],
            "match_status": ["exact", "partial", "none", "exact", "low",
                             "none", "partial", "exact"],
            "similarity": [1.0, 0.8, 0.0, 0.97, 0.65, 0.0, 0.78, 1.0],
        }
    )


def _enriched_df():
    return pd.DataFrame(
        {
            "doc_id": ["a", "a", "b", "b", "c"],
            "doc_type": ["t1", "t2", "t2", "t2", "t1"],
            "keywords": [["x", "y"], ["y"], ["y", "z"], ["z"], ["x"]],
            "dates": [["2024-01-01"], [], ["2024-01-01", "2024-02-02"], [], []],
        }
    )


@pytest.mark.usefixtures("ray_session")
def test_match_summary_counts():
    out = match_summary(ray.data.from_pandas(_match_results_df()))
    row = out.iloc[0]
    assert row["total"] == 8
    assert row["exact_matches"] == 3
    assert row["partial_matches"] == 2
    assert row["low_similarity"] == 1
    assert row["not_found"] == 2
    assert abs(row["match_rate"] - 5 / 8) < 1e-12


@pytest.mark.usefixtures("ray_session")
def test_group_summary_per_project():
    out = (
        group_summary(ray.data.from_pandas(_match_results_df()), "project")
        .to_pandas()
        .set_index("project")
    )
    assert out.loc["p1", "n_rows"] == 4 and out.loc["p1", "n_exact"] == 2
    assert out.loc["p2", "n_rows"] == 4 and out.loc["p2", "n_none"] == 1
    assert abs(out.loc["p2", "sim_sum"] - (0.97 + 0.65 + 0.0 + 0.78)) < 1e-12


@pytest.mark.usefixtures("ray_session")
def test_keyword_analysis_topk():
    out = keyword_analysis(ray.data.from_pandas(_enriched_df()), top_n=2)
    # y: 3 occurrences in 2 docs; x and z: 2 each -> tiebreak keyword asc
    assert out.iloc[0]["keyword"] == "y" and out.iloc[0]["occurrences"] == 3
    assert out.iloc[0]["n_docs"] == 2
    assert out.iloc[1]["keyword"] == "x"


@pytest.mark.usefixtures("ray_session")
def test_timeline_rollup():
    out = timeline(ray.data.from_pandas(_enriched_df())).set_index("date")
    assert out.loc["2024-01-01", "n_docs"] == 2
    assert out.loc["2024-01-01", "occurrences"] == 2
    assert out.loc["2024-02-02", "n_docs"] == 1
    assert list(out.index) == sorted(out.index)


@pytest.mark.usefixtures("ray_session")
def test_doc_main_type_vote():
    out = doc_main_type(ray.data.from_pandas(_enriched_df())).to_pandas()
    got = dict(zip(out["doc_id"], out["main_type"]))
    # a: tie t1/t2 -> deterministic name-asc tiebreak -> t1
    assert got == {"a": "t1", "b": "t2", "c": "t1"}


@pytest.mark.usefixtures("ray_session")
def test_route_stats():
    from pdf_ocr_comparison_tool_ray.pipelines.reports import route_stats

    df = pd.DataFrame(
        {
            "route": ["native", "native", "ocr", "html", "native", "error"],
            "score": [1.0, 1.0, 0.93, 1.0, 1.0, 0.0],
        }
    )
    out = route_stats(ray.data.from_pandas(df))
    got = out.set_index("route")
    assert got.loc["native", "n_spans"] == 3
    assert abs(got.loc["ocr", "mean_score"] - 0.93) < 1e-12
    assert abs(out.attrs["native_ratio"] - 0.5) < 1e-12
    assert abs(got["route_ratio"].sum() - 1.0) < 1e-12


@pytest.mark.usefixtures("ray_session")
def test_write_report_csv_artifact(tmp_path):
    """S9 sink: A1/A2 + A3/A4 sheets land as CSV files whose contents
    round-trip the in-memory aggregates (run_ocr.py:277-292 fallback)."""
    import pandas as pd

    from pdf_ocr_comparison_tool_ray.pipelines.reports import (
        match_summary,
        write_report,
    )

    match = ray.data.from_pandas(
        pd.DataFrame(
            {
                "match_status": ["exact", "partial", "none", "exact", "low"],
                "similarity": [1.0, 0.8, 0.0, 0.97, 0.65],
                "project": ["a", "a", "b", "b", "a"],
            }
        )
    )
    enriched = ray.data.from_pandas(
        pd.DataFrame(
            {
                "doc_id": ["d1", "d2", "d3"],
                "keywords": [["alpha", "beta"], ["alpha"], ["gamma", "alpha"]],
                "dates": [["2024-01-02"], [], ["2024-01-02", "2024-03-04"]],
            }
        )
    )
    paths = write_report(
        str(tmp_path), match_results=match, enriched=enriched, group_col="project"
    )
    assert set(paths) == {"match_summary", "group_summary", "keyword_analysis", "timeline"}
    ms = pd.read_csv(paths["match_summary"])
    assert int(ms["total"].iloc[0]) == 5 and int(ms["exact_matches"].iloc[0]) == 2
    assert abs(float(ms["match_rate"].iloc[0]) - 0.6) < 1e-9
    gs = pd.read_csv(paths["group_summary"])
    assert gs.loc[gs["project"] == "a", "n_exact"].iloc[0] == 1
    ka = pd.read_csv(paths["keyword_analysis"])
    assert ka.iloc[0]["keyword"] == "alpha" and int(ka.iloc[0]["n_docs"]) == 3
    tl = pd.read_csv(paths["timeline"])
    assert tl.loc[tl["date"] == "2024-01-02", "n_docs"].iloc[0] == 2


@pytest.mark.usefixtures("ray_session")
def test_match_summary_and_keyword_routes_agree(monkeypatch):
    """match_summary and keyword_analysis finish an input of at most
    DRIVER_MAX_BYTES on the driver and shuffle a larger one (groupby,
    bucket sort).  Forced both ways they give equal frames and dtypes on
    the test rows, one row and no rows; the shuffle runs only on the
    forced leg."""
    from pdf_ocr_comparison_tool_ray.stages import bucketed as B

    match_df = _match_results_df()
    kw_df = _enriched_df()
    cases = {
        "rows": (match_df, kw_df),
        "one_row": (match_df.head(1), kw_df.head(1)),
        "empty": (match_df.head(0), kw_df.head(0)),
    }
    ops = {
        "match_summary": (match_summary, ray.data.Dataset, "groupby", 0),
        "keyword_analysis": (keyword_analysis, B, "sort_buckets", 1),
    }
    for name, frames in cases.items():
        for (op, (fn, owner, attr, which)) in ops.items():
            got = []
            for cap in (B.DRIVER_MAX_BYTES, -1):
                calls = []
                with monkeypatch.context() as m:
                    m.setattr(B, "DRIVER_MAX_BYTES", cap)
                    m.setattr(
                        owner,
                        attr,
                        lambda *a, _f=getattr(owner, attr), **k: (
                            calls.append(a) or _f(*a, **k)
                        ),
                    )
                    got.append(fn(ray.data.from_pandas(frames[which])))
                assert bool(calls) == (cap < 0), (name, op, cap)
            pd.testing.assert_frame_equal(got[0], got[1], obj=f"{name}/{op}")
            if op == "keyword_analysis":
                assert list(got[0].columns) == ["keyword", "occurrences", "n_docs"]
                assert len(got[0]) == {"rows": 3, "one_row": 2, "empty": 0}[name]
            else:
                assert int(got[0]["total"].iloc[0]) == len(frames[0])
