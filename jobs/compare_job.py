"""Cluster job entrypoint for the extract-and-compare pipeline.

Submit to a fixed-size Ray cluster:

    ray job submit --working-dir . -- \
        python jobs/compare_job.py \
        --probe /data/probe.parquet --reference /data/ref.parquet \
        --output /data/compare [--report-dir /data/compare/report] \
        [--broadcast-max-rows 500000]

Both inputs are flat documents tables; each side runs the flagship
extraction + enrichment, the match join routes broadcast-vs-shuffle by
build-side size (``run_compare_auto``), the merged match rows stream to
partitioned parquet, and the A1/A3/A4 report sheets land as CSV files.
Inside a cluster the job runtime has already called ray.init; standalone
invocation initializes local mode.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--probe", help="probe (voucher) documents parquet")
    ap.add_argument("--reference", help="reference documents parquet")
    ap.add_argument("--probe-spans", default=None,
                    help="pre-extracted probe span dir (an extract_job output) — "
                    "skips the probe-side extraction; composes the two jobs "
                    "so a resumed extraction is never recomputed")
    ap.add_argument("--reference-spans", default=None,
                    help="pre-extracted reference span dir (extract_job output)")
    ap.add_argument("--output", required=True, help="match-result parquet directory")
    ap.add_argument("--report-dir", default=None,
                    help="directory for the A1/A3/A4 report CSVs (default: <output>_report, a SIBLING of the parquet dir — recursive parquet readers must not trip over CSVs)")
    ap.add_argument("--broadcast-max-rows", type=int, default=None,
                    help="build-side row cap for the broadcast join route")
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from pdf_ocr_comparison_tool_ray.pipelines.compare import (
        BROADCAST_MAX_BUILD_ROWS,
        run_compare_auto,
    )
    from pdf_ocr_comparison_tool_ray.pipelines.extraction import (
        interleave,
        read_flat_documents,
        run_extraction,
        tune_context,
    )
    from pdf_ocr_comparison_tool_ray.pipelines.reports import (
        match_summary,
        write_report,
    )

    tune_context()

    def rename_spans(out):
        # match stages key on `offset` (the reassembled seq IS the order);
        # select before rename so added span columns (bbox) don't shift
        # the positional mapping
        return out.map_batches(
            lambda t: t.select(
                ["doc_id", "seq", "kind", "text", "media_ref", "route", "score"]
            ).rename_columns(
                ["doc_id", "offset", "kind", "text", "media_ref", "route", "score"]
            ),
            batch_format="pyarrow",
        )

    def side(docs_path, spans_dir):
        if spans_dir:
            from pdf_ocr_comparison_tool_ray.state.checkpoint import (
                read_checkpointed_output,
            )

            return rename_spans(read_checkpointed_output(spans_dir))
        if not docs_path:
            raise SystemExit("need --probe/--reference or --*-spans for each side")
        return rename_spans(
            run_extraction(interleave(read_flat_documents(docs_path), seed=args.seed))
        )

    t0 = time.perf_counter()
    results = run_compare_auto(
        side(args.probe, args.probe_spans),
        side(args.reference, args.reference_spans),
        broadcast_max_build_rows=args.broadcast_max_rows or BROADCAST_MAX_BUILD_ROWS,
    ).materialize()  # consumed by the sink AND the report

    results.write_parquet(args.output)
    summary = match_summary(results)
    report_dir = args.report_dir or f"{args.output.rstrip('/')}_report"
    report_paths = write_report(report_dir, match_results=results)
    wall = time.perf_counter() - t0

    print(
        json.dumps(
            {
                "job": "compare",
                "probe": args.probe or args.probe_spans,
                "reference": args.reference or args.reference_spans,
                "output": args.output,
                "n_match_rows": int(results.count()),
                "match_rate": float(summary["match_rate"].iloc[0]),
                "report_sheets": sorted(report_paths),
                "wall_sec": round(wall, 3),
            }
        )
    )
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
