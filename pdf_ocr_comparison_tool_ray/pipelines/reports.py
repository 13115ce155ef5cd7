"""Report aggregates (reference A1–A4, A8).

Reference: ``content_matcher.py:385-406`` (match summary),
``main.py:521-547`` (per-project sheet), ``main.py:645-666`` (keyword
analysis, top-50), ``main.py:683-707`` (timeline sheet),
``main.py:305-306`` (per-doc main-type vote).

Every distributed aggregate pre-reduces inside ``map_batches`` (one row
per key per batch) before its ``groupby`` or bucket shuffle, so the
shuffle moves partials, not rows.  The match summary and the keyword
ranking finish an input of at most ``bucketed.DRIVER_MAX_BYTES`` on the
driver instead (see ``stages/bucketed.py``).
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ray.data.aggregate import Count, Mean, Sum


# ---------------------------------------------------------------------------
# A1: match-status summary
# ---------------------------------------------------------------------------
def match_summary(match_results: ray.data.Dataset) -> pd.DataFrame:
    """Global counts per status + match_rate (content_matcher.py:385-406).

    The results materialize once.  At most ``bucketed.DRIVER_MAX_BYTES``:
    ``value_counts`` over the collected ``match_status`` column, with no
    further Ray Data execution; above the cap, a ``groupby``.
    """
    from ..stages import bucketed

    match_results = match_results.materialize()
    small = bucketed.collect_table(match_results, bucketed.DRIVER_MAX_BYTES)
    if small is None:
        counts = (
            match_results.groupby("match_status")
            .aggregate(Count(alias_name="n"))
            .to_pandas()
        )
        by = dict(zip(counts["match_status"], counts["n"])) if len(counts) else {}
    elif small.num_rows:
        vc = pc.value_counts(small["match_status"])
        by = dict(zip(vc.field("values").to_pylist(), vc.field("counts").to_pylist()))
    else:
        by = {}
    total = int(sum(by.values()))
    exact = int(by.get("exact", 0))
    partial = int(by.get("partial", 0))
    return pd.DataFrame(
        [
            {
                "total": total,
                "exact_matches": exact,
                "partial_matches": partial,
                "low_similarity": int(by.get("low", 0)),
                "not_found": int(by.get("none", 0)),
                "match_rate": (exact + partial) / total if total else 0.0,
            }
        ]
    )


# ---------------------------------------------------------------------------
# A2: per-group (project / lang / source) summary
# ---------------------------------------------------------------------------
def _status_indicator_batch(batch: pa.Table, group_col: str) -> pd.DataFrame:
    df = batch.select([group_col, "match_status", "similarity"]).to_pandas()
    for status in ("exact", "partial", "low", "none"):
        df[f"n_{status}"] = (df["match_status"] == status).astype("int64")
    agg = df.groupby(group_col, as_index=False).agg(
        n_rows=("match_status", "size"),
        n_exact=("n_exact", "sum"),
        n_partial=("n_partial", "sum"),
        n_low=("n_low", "sum"),
        n_none=("n_none", "sum"),
        sim_sum=("similarity", "sum"),
    )
    return agg


def group_summary(match_results: ray.data.Dataset, group_col: str) -> ray.data.Dataset:
    """Per-group match stats with batch-level pre-aggregation (main.py:521-547)."""
    partial = match_results.map_batches(
        lambda b: _status_indicator_batch(b, group_col), batch_format="pyarrow"
    )
    return partial.groupby(group_col).aggregate(
        Sum("n_rows", alias_name="n_rows"),
        Sum("n_exact", alias_name="n_exact"),
        Sum("n_partial", alias_name="n_partial"),
        Sum("n_low", alias_name="n_low"),
        Sum("n_none", alias_name="n_none"),
        Sum("sim_sum", alias_name="sim_sum"),
    )


# ---------------------------------------------------------------------------
# A3: keyword analysis — top-50 keywords with distinct-doc counts
# ---------------------------------------------------------------------------
def _explode_keyword_pairs(batch: pa.Table) -> pd.DataFrame:
    df = batch.select(["doc_id", "keywords"]).to_pandas()
    ex = df.explode("keywords").dropna(subset=["keywords"])
    ex = ex.rename(columns={"keywords": "keyword"})
    # batch-local pre-reduction: one row per (keyword, doc)
    return ex.groupby(["keyword", "doc_id"], as_index=False).agg(occ=("doc_id", "size"))


def keyword_analysis(enriched: ray.data.Dataset, top_n: int = 50) -> pd.DataFrame:
    """Top-N keywords by occurrence with distinct-doc counts (main.py:645-666).

    Two-phase exact distinct, then an exact distributed top-N: the bucket
    holds every (keyword, doc) pair of its keywords, so the per-bucket
    dedup + count + local top-N is globally exact and only
    ``n_buckets x top_n`` candidate rows reach the driver (the vocabulary
    is open-cardinality — never collect the full ranking).  Partials of
    at most ``bucketed.DRIVER_MAX_BYTES`` rank once on the driver
    (``map_groups_frame``).
    """
    from ..stages.bucketed import map_groups_frame

    pairs = enriched.map_batches(_explode_keyword_pairs, batch_format="pyarrow")

    def bucket_rank(bucket: pd.DataFrame) -> pd.DataFrame:
        per_pair = bucket.groupby(["keyword", "doc_id"], as_index=False).agg(
            occ=("occ", "sum")
        )
        out = per_pair.groupby("keyword", as_index=False).agg(
            occurrences=("occ", "sum"), n_docs=("doc_id", "size")
        )
        for c in ("occurrences", "n_docs"):
            out[c] = out[c].astype("int64")
        return out.sort_values(
            ["occurrences", "keyword"], ascending=[False, True], kind="mergesort"
        ).head(top_n)

    cand = map_groups_frame(pairs, "keyword", bucket_rank, n_buckets=32)
    if not len(cand.columns):  # no keyword at all
        cand = pd.DataFrame({"keyword": pd.Series([], dtype="object")} | {
            c: pd.Series([], dtype="int64") for c in ("occurrences", "n_docs")})
    return (
        cand.sort_values(["occurrences", "keyword"], ascending=[False, True],
                         kind="mergesort")
        .head(top_n)
        .reset_index(drop=True)
    )


# ---------------------------------------------------------------------------
# A4: timeline — per-extracted-date rollup
# ---------------------------------------------------------------------------
def _explode_date_pairs(batch: pa.Table) -> pd.DataFrame:
    df = batch.select(["doc_id", "dates"]).to_pandas()
    ex = df.explode("dates").dropna(subset=["dates"]).rename(columns={"dates": "date"})
    return ex.groupby(["date", "doc_id"], as_index=False).agg(occ=("doc_id", "size"))


def timeline(enriched: ray.data.Dataset) -> pd.DataFrame:
    """Per-date distinct docs + occurrences, date-sorted (main.py:683-707)."""
    pairs = enriched.map_batches(_explode_date_pairs, batch_format="pyarrow")
    deduped = pairs.groupby(["date", "doc_id"]).aggregate(Sum("occ", alias_name="occ"))
    out = (
        deduped.groupby("date")
        .aggregate(Sum("occ", alias_name="occurrences"), Count(alias_name="n_docs"))
        .to_pandas()
    )
    return out.sort_values("date").reset_index(drop=True)


# ---------------------------------------------------------------------------
# A6: extraction-route stats (the hybrid engine's paddle/deepseek call
# counters, hybrid_ocr_engine.py:74-80, 225-233 — here derived from the
# per-span route column instead of actor-side mutable counters)
# ---------------------------------------------------------------------------
def route_stats(extracted: ray.data.Dataset) -> pd.DataFrame:
    """Per-route span counts + mean score; native_ratio mirrors the
    reference's paddle_ratio."""
    agg = (
        extracted.groupby("route")
        .aggregate(Count(alias_name="n_spans"), Mean("score", alias_name="mean_score"))
        .to_pandas()
        .sort_values("route")
        .reset_index(drop=True)
    )
    total = int(agg["n_spans"].sum())
    native = int(agg.loc[agg["route"] == "native", "n_spans"].sum())
    agg["route_ratio"] = agg["n_spans"] / total if total else 0.0
    agg.attrs["native_ratio"] = native / total if total else 0.0
    return agg


# ---------------------------------------------------------------------------
# A8: per-document main-type vote (mode of span doc_types)
# ---------------------------------------------------------------------------
def doc_type_mode_frame(df: pd.DataFrame) -> pd.DataFrame:
    """Vectorized per-doc mode with the deterministic tiebreak
    (count desc, type asc) for every document in the frame."""
    counts = df.groupby(["doc_id", "doc_type"], as_index=False).size()
    counts = counts.sort_values(
        ["doc_id", "size", "doc_type"], ascending=[True, False, True],
        kind="mergesort",
    )
    best = counts.drop_duplicates("doc_id")
    return pd.DataFrame(
        {"doc_id": best["doc_id"].to_numpy(), "main_type": best["doc_type"].to_numpy()}
    )


def doc_main_type(enriched: ray.data.Dataset) -> ray.data.Dataset:
    """Mode of per-span doc_type per document (main.py:305-306) —
    bucket-wise co-partition, vectorized mode per bucket."""
    from ..stages.bucketed import bucketed_map_groups

    light = enriched.select_columns(["doc_id", "doc_type"])
    return bucketed_map_groups(light, "doc_id", doc_type_mode_frame, n_buckets=64)


# ---------------------------------------------------------------------------
# S9: report artifact sink.  The reference writes one multi-sheet Excel
# workbook (main.py:357-707) with a CSV fallback when the Excel stack is
# missing (run_ocr.py:277-292); here each sheet is one CSV (or one xlsx
# when openpyxl happens to be installed), written atomically.
# ---------------------------------------------------------------------------
def write_report(
    out_dir: str,
    match_results: "ray.data.Dataset | None" = None,
    enriched: "ray.data.Dataset | None" = None,
    group_col: str | None = None,
    top_n_keywords: int = 50,
) -> dict:
    """Build the A1–A4 sheets from whichever inputs are given and write
    them under ``out_dir``.  Returns {sheet_name: path}.

    The aggregates are tiny (global rollups) — materializing them to
    pandas for the file write is the bounded, deliberate driver-side step
    (the raw span/match tables stay distributed and are written by the
    parquet sinks, not here).
    """
    import os
    from pathlib import Path

    sheets: dict[str, pd.DataFrame] = {}
    if match_results is not None:
        match_results = match_results.materialize()  # consumed by 2 sheets
        sheets["match_summary"] = match_summary(match_results)
        if group_col is not None:
            sheets["group_summary"] = (
                group_summary(match_results, group_col)
                .to_pandas()
                .sort_values(group_col)
                .reset_index(drop=True)
            )
    if enriched is not None:
        enriched = enriched.materialize()
        sheets["keyword_analysis"] = keyword_analysis(enriched, top_n=top_n_keywords)
        sheets["timeline"] = timeline(enriched)

    if not sheets:
        return {}
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: dict = {}
    try:  # multi-sheet workbook when the Excel stack exists
        import openpyxl  # noqa: F401

        book = out / "report.xlsx"
        tmp = out / f".tmp-report-{os.getpid()}.xlsx"
        try:
            with pd.ExcelWriter(tmp) as xw:
                for name, df in sheets.items():
                    df.to_excel(xw, sheet_name=name[:31], index=False)
            os.replace(tmp, book)
        finally:
            tmp.unlink(missing_ok=True)  # no-op after the rename
        paths = {name: str(book) for name in sheets}
    except ImportError:  # CSV fallback (run_ocr.py:277-292)
        for name, df in sheets.items():
            f = out / f"{name}.csv"
            tmp = out / f".tmp-{name}-{os.getpid()}.csv"
            df.to_csv(tmp, index=False)
            os.replace(tmp, f)
            paths[name] = str(f)
    return paths
