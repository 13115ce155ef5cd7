"""Per-partition progress surface (state/progress.py, jobs/progress.py):
the cluster-native analog of the reference's per-file progress callbacks
(run_ocr.py:391-414) — derived purely from the job stamp + manifest, so
it must read correctly mid-run, after resume, and from a plain
subprocess with no Ray session."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pandas as pd
import pytest

from pdf_ocr_comparison_tool_ray.state.checkpoint import (
    run_extraction_checkpointed,
    write_partition_atomic,
)
from pdf_ocr_comparison_tool_ray.state.progress import (
    job_progress,
    read_job_stamp,
    write_job_stamp,
)
from pdf_ocr_comparison_tool_ray.synth import make_corpus

import pyarrow as pa

REPO = Path(__file__).resolve().parent.parent
P = 8


@pytest.fixture()
def corpus_parquet(tmp_path):
    docs = make_corpus(25, seed=11, skew_docs=1)
    df = pd.DataFrame(docs)[["doc_id", "text"]]
    path = tmp_path / "flat.parquet"
    df.to_parquet(path, index=False)
    return str(path), docs


def _fabricate_midrun(out_dir, total=4, done=2, docs_per_part=10):
    """A job stamped `total` partitions with `done` of them landed."""
    write_job_stamp(
        str(out_dir), job="extract", partitions_total=total,
        input_path="in.parquet", input_fp="fp0",
    )
    for p in range(done):
        write_partition_atomic(
            str(out_dir), p, pa.table({"doc_id": [1] * docs_per_part}),
            {"n_docs": docs_per_part, "n_spans": docs_per_part * 3,
             "input_fp": "fp0"},
        )


def test_midrun_snapshot_math(tmp_path):
    out = tmp_path / "out"
    _fabricate_midrun(out, total=4, done=2)
    snap = job_progress(str(out), now=read_job_stamp(str(out))["started_ts"] + 10)
    assert snap["partitions_done"] == 2 and snap["partitions_total"] == 4
    assert snap["pct"] == 50.0 and snap["complete"] is False
    assert snap["docs_done"] == 20 and snap["spans_done"] == 60
    assert snap["elapsed_sec"] == pytest.approx(10, abs=1)
    # 2 partitions in ~10 s -> ~2 partitions remaining -> eta ~ elapsed
    assert snap["partitions_per_sec"] == pytest.approx(0.2, rel=0.2)
    assert snap["docs_per_sec"] == pytest.approx(2.0, rel=0.2)
    assert snap["eta_sec"] == pytest.approx(10, rel=0.2)


def test_stale_fingerprint_entries_excluded(tmp_path):
    out = tmp_path / "out"
    _fabricate_midrun(out, total=4, done=2)
    # a partition left over from a DIFFERENT input must not count
    write_partition_atomic(
        str(out), 3, pa.table({"doc_id": [1]}),
        {"n_docs": 1, "input_fp": "fp-other"},
    )
    snap = job_progress(str(out))
    assert snap["partitions_done"] == 2 and snap["docs_done"] == 20


def test_resume_rates_only_this_run(tmp_path):
    out = tmp_path / "out"
    _fabricate_midrun(out, total=4, done=2)
    time.sleep(0.05)
    # a resume restamps: the old partitions still COUNT but don't RATE
    write_job_stamp(
        str(out), job="extract", partitions_total=4,
        input_path="in.parquet", input_fp="fp0", partitions_resumed=2,
    )
    started = read_job_stamp(str(out))["started_ts"]
    snap = job_progress(str(out), now=started + 10)
    assert snap["partitions_done"] == 2
    assert snap["partitions_per_sec"] is None and snap["eta_sec"] is None
    write_partition_atomic(
        str(out), 2, pa.table({"doc_id": [1] * 5}),
        {"n_docs": 5, "input_fp": "fp0"},
    )
    snap = job_progress(str(out), now=started + 10)
    assert snap["partitions_done"] == 3 and snap["docs_done"] == 25
    # rate reflects the ONE partition landed since the restamp
    assert snap["partitions_per_sec"] == pytest.approx(0.1, rel=0.2)
    assert snap["docs_per_sec"] == pytest.approx(0.5, rel=0.2)


def test_no_stamp_reports_counts_only(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    write_partition_atomic(
        str(out), 0, pa.table({"doc_id": [1]}), {"n_docs": 1, "input_fp": "x"}
    )
    snap = job_progress(str(out))
    assert snap["partitions_done"] == 1 and snap["docs_done"] == 1
    assert snap["partitions_total"] is None and snap["complete"] is None


@pytest.mark.usefixtures("ray_session")
def test_real_job_progress_and_cli(tmp_path, corpus_parquet):
    flat_path, docs = corpus_parquet
    out_dir = str(tmp_path / "out")
    run_extraction_checkpointed(flat_path, out_dir, num_partitions=P)
    snap = job_progress(out_dir)
    assert snap["complete"] is True and snap["pct"] == 100.0
    assert snap["partitions_done"] == P == snap["partitions_total"]
    assert snap["docs_done"] == len(docs)
    assert snap["docs_per_sec"] > 0 and snap["eta_sec"] == 0

    # the CLI watcher: plain subprocess, no Ray, one JSON line, exit 0
    res = subprocess.run(
        [sys.executable, str(REPO / "jobs" / "progress.py"), out_dir],
        capture_output=True, text=True, timeout=60,
    )
    assert res.returncode == 0, res.stderr
    line = json.loads(res.stdout.strip().splitlines()[-1])
    assert line["complete"] is True and line["docs_done"] == len(docs)

    # incomplete job -> exit 3 (shell loops can distinguish)
    (Path(out_dir) / "_manifest" / "p0.json").unlink()
    res = subprocess.run(
        [sys.executable, str(REPO / "jobs" / "progress.py"), out_dir],
        capture_output=True, text=True, timeout=60,
    )
    assert res.returncode == 3
    assert json.loads(res.stdout.strip().splitlines()[-1])["partitions_done"] == P - 1
