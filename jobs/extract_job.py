"""Cluster job entrypoint for the flagship extraction.

Submit to a fixed-size Ray cluster:

    ray job submit --working-dir . -- \
        python jobs/extract_job.py \
        --input /data/documents.parquet --output /data/extracted \
        --partitions 4096 [--seed 42]

The job is checkpoint-resumable: re-submitting after a failure skips
partitions whose manifest entry matches the input fingerprint
(state/checkpoint.py).  Per-partition lineage + metrics land in
``<output>/_manifest/`` and a run summary is printed as one JSON line.

Inside a cluster the driver has already called ray.init via the job
runtime; standalone invocation initializes local mode.
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
    ap.add_argument("--input", required=True, help="flat documents parquet (or dir)")
    ap.add_argument("--output", required=True, help="output directory")
    ap.add_argument("--partitions", type=int, default=64,
                    help="output partitions (the resume unit); ~4-16x cluster cores")
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from pdf_ocr_comparison_tool_ray.pipelines.extraction import tune_context
    from pdf_ocr_comparison_tool_ray.state.checkpoint import (
        completed_partitions,
        input_fingerprint,
        run_extraction_checkpointed,
    )

    tune_context()
    fp = input_fingerprint(args.input)
    already = completed_partitions(args.output, fp)

    t0 = time.perf_counter()
    stats = run_extraction_checkpointed(
        args.input,
        args.output,
        num_partitions=args.partitions,
        seed=args.seed,
    )
    wall = time.perf_counter() - t0
    print(
        json.dumps(
            {
                "job": "extract",
                "input": args.input,
                "input_fp": fp,
                "output": args.output,
                "partitions_total": args.partitions,
                "partitions_skipped_resume": len(already),
                "partitions_processed": int(len(stats)),
                "n_docs": int(stats["n_docs"].sum()) if len(stats) else 0,
                "n_spans": int(stats["n_spans"].sum()) if len(stats) else 0,
                "wall_sec": round(wall, 3),
            }
        )
    )
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
