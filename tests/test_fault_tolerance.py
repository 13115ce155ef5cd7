"""Worker-loss fault injection: on a 256-node cluster worker death is
routine, so the pipeline must retry lost work and produce IDENTICAL
output — no dropped rows, no duplicated rows, same values.

The crash is an ``os._exit`` (process death, as a preempted node or
OOM-killed worker looks to Ray — not a Python exception a try/except
could swallow), fired EXACTLY ONCE across the cluster via an
``O_CREAT|O_EXCL`` sentinel file.  Three injection points:

* a ``SpanExtractor`` ACTOR pool — the worker holding warmed model
  state dies mid-batch; Ray Data restarts the actor (its default pool
  sets ``max_restarts=-1`` / ``max_task_retries=-1``), ``__init__``
  re-warms the state, and the lost batch reruns;
* the pipelines' own extraction TASK (``extract_batch``) — the worker
  holding the per-process cached extractor dies mid-batch; Ray's task
  retry reruns the batch in a worker that builds its extractor afresh;
* a stateless map_batches TASK — process death mid-task; Ray's default
  task retry (system failures) reruns it on another worker.

Retry safety here rests on the stages being PURE (same batch in, same
rows out).  The one stage with shared mutable state — the streaming
dedup gate — handles retry idempotency separately via per-token admit
memoization (stages/streaming_dedup.py, tested in test_streaming_dedup).
"""

import os
import sys
from pathlib import Path

import pyarrow as pa
from ray import cloudpickle

# The crash-injecting subclass below must survive an ACTOR RESTART: Ray
# re-deserializes the stored constructor args in a brand-new worker
# process, and `tests/` is on the driver's sys.path only (pytest puts it
# there), so a by-reference pickle of this module hangs the restart loop
# with ModuleNotFoundError.  Pickle this module by value instead (must be
# Ray's vendored cloudpickle — the standalone package is a different
# registry).
cloudpickle.register_pickle_by_value(sys.modules[__name__])

from pdf_ocr_comparison_tool_ray.pipelines.extraction import (
    interleave,
    read_flat_documents,
    reassemble,
    tune_context,
)
from pdf_ocr_comparison_tool_ray.stages.explode import explode_spans
from pdf_ocr_comparison_tool_ray.stages.extract import SpanExtractor, extract_batch

SF_DIR = "/root/testdata/sf0.001"


def test_driver_death_midrun_resume_identical(tmp_path):
    """DRIVER/NODE loss (vs the worker losses below): SIGKILL the whole
    extract-job process GROUP — driver, raylet, workers — as soon as the
    first partition has landed, then resume via the real CLI and compare
    against an uninterrupted run in a separate directory.  Exercises the
    crash window the atomic write+manifest ordering exists for (tmp
    files mid-rename, manifests behind data files)."""
    import json
    import signal
    import subprocess
    import time

    import pandas as pd
    import pyarrow.parquet as pq

    from pdf_ocr_comparison_tool_ray.state.progress import job_progress
    from pdf_ocr_comparison_tool_ray.synth import make_corpus

    src = tmp_path / "docs.parquet"
    docs = make_corpus(60, seed=7, skew_docs=1)
    pd.DataFrame(docs)[["doc_id", "text"]].to_parquet(src, index=False)
    env = {"RAY_ADDRESS": "local", "PATH": "/usr/bin:/bin", "HOME": "/root"}

    def launch(out):
        return subprocess.Popen(
            [sys.executable, "jobs/extract_job.py", "--input", str(src),
             "--output", str(out), "--partitions", "8"],
            cwd="/root/repo", env=env, start_new_session=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )

    # uninterrupted reference run
    ref_out = tmp_path / "ref"
    p = launch(ref_out)
    assert p.wait(timeout=240) == 0

    # victim run: kill the whole process group at first landed partition
    out = tmp_path / "out"
    p = launch(out)
    deadline = time.time() + 180
    mdir = out / "_manifest"
    while time.time() < deadline and p.poll() is None:
        if mdir.is_dir() and any(mdir.glob("p*.json")):
            break
        time.sleep(0.02)
    if p.poll() is None:
        os.killpg(os.getpgid(p.pid), signal.SIGKILL)
        assert p.wait(timeout=60) != 0
        snap = job_progress(str(out))
        assert snap["partitions_done"] < 8, "kill landed after completion"

    # resume via the same CLI; summary must account for every partition
    p2 = launch(out)
    assert p2.wait(timeout=240) == 0
    summary = json.loads(p2.stdout.read().strip().splitlines()[-1])
    assert (summary["partitions_skipped_resume"]
            + summary["partitions_processed"]) == 8
    assert job_progress(str(out))["complete"] is True

    def frame(d):
        df = pq.read_table(sorted(map(str, Path(d).glob("part-*.parquet")))).to_pandas()
        return df.sort_values(["doc_id", "seq"], kind="mergesort").reset_index(drop=True)

    pd.testing.assert_frame_equal(frame(out), frame(ref_out))


class CrashOnceExtractor(SpanExtractor):
    """SpanExtractor whose hosting worker dies on the first batch any
    actor sees (cluster-wide once), then behaves normally on retry."""

    def __init__(self, sentinel_path: str, **kwargs):
        super().__init__(**kwargs)
        self._sentinel = sentinel_path

    def __call__(self, batch: pa.Table) -> pa.Table:
        try:
            fd = os.open(self._sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            os.close(fd)
            os._exit(1)  # simulate worker/node loss mid-batch
        except FileExistsError:
            pass
        return super().__call__(batch)


def _sorted_frame(ds):
    df = ds.to_pandas()
    return (
        df.sort_values(["doc_id", "seq"], kind="mergesort")
        .reset_index(drop=True)[sorted(df.columns)]
    )


def _docs():
    return interleave(read_flat_documents(f"{SF_DIR}/documents.parquet"))


def test_actor_death_mid_batch_output_identical(ray_session, tmp_path):
    tune_context()
    spans = _docs().map_batches(explode_spans, batch_format="pyarrow")

    def pool(cls, **ctor):
        return spans.map_batches(
            cls,
            batch_format="pyarrow",
            batch_size=64,
            concurrency=2,
            fn_constructor_kwargs=ctor,
        )

    baseline = _sorted_frame(reassemble(pool(SpanExtractor)))
    sentinel = str(tmp_path / "crash-once")
    crashed = _sorted_frame(
        reassemble(pool(CrashOnceExtractor, sentinel_path=sentinel))
    )
    assert os.path.exists(sentinel), "the fault never fired"
    import pandas as pd

    pd.testing.assert_frame_equal(crashed, baseline)


def test_worker_death_after_shuffle_output_identical(ray_session, tmp_path):
    """Worker loss on the CONSUMER side of the all-to-all: the crash fires
    inside the post-shuffle bucket function (groupby(bucket).map_groups),
    so recovery must replay a task whose inputs are shuffle outputs —
    lineage across the sort boundary, not just a map retry."""
    from pdf_ocr_comparison_tool_ray.pipelines.extraction import (
        reassemble_batch_local,
    )
    from pdf_ocr_comparison_tool_ray.stages.bucketed import bucketed_map_groups

    tune_context()
    sentinel = str(tmp_path / "crash-once-shuffle")

    def crash_once_reassemble(group: pa.Table) -> pa.Table:
        try:
            fd = os.open(sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            os.close(fd)
            os._exit(1)
        except FileExistsError:
            pass
        return reassemble_batch_local(group)

    def extracted():
        return (
            _docs()
            .map_batches(explode_spans, batch_format="pyarrow")
            .map_batches(SpanExtractor, batch_format="pyarrow",
                         batch_size=64, concurrency=2)
        )

    baseline = _sorted_frame(
        bucketed_map_groups(
            extracted(), "doc_id", reassemble_batch_local,
            n_buckets=8, batch_format="pyarrow",
        )
    )
    wounded = _sorted_frame(
        bucketed_map_groups(
            extracted(), "doc_id", crash_once_reassemble,
            n_buckets=8, batch_format="pyarrow",
        )
    )
    assert os.path.exists(sentinel), "the fault never fired"
    import pandas as pd

    pd.testing.assert_frame_equal(wounded, baseline)


def test_task_death_mid_task_output_identical(ray_session, tmp_path):
    tune_context()
    sentinel = str(tmp_path / "crash-once-task")

    def crash_once_identity(batch: pa.Table) -> pa.Table:
        try:
            fd = os.open(sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            os.close(fd)
            os._exit(1)
        except FileExistsError:
            pass
        return batch

    spans = _docs().map_batches(explode_spans, batch_format="pyarrow")
    baseline = _sorted_frame(
        reassemble(spans.map_batches(SpanExtractor, batch_format="pyarrow",
                                     batch_size=64, concurrency=2))
    )
    wounded = (
        _docs()
        .map_batches(explode_spans, batch_format="pyarrow")
        .map_batches(crash_once_identity, batch_format="pyarrow")
        .map_batches(SpanExtractor, batch_format="pyarrow",
                     batch_size=64, concurrency=2)
    )
    out = _sorted_frame(reassemble(wounded))
    assert os.path.exists(sentinel)
    import pandas as pd

    pd.testing.assert_frame_equal(out, baseline)


def test_worker_death_in_extract_task_output_identical(ray_session, tmp_path):
    """The extraction route every pipeline takes: ``extract_batch`` mapped
    as a plain task, its worker killed mid-batch exactly once."""
    import pandas as pd

    tune_context()
    sentinel = str(tmp_path / "crash-once-extract")

    def crash_once_extract(batch: pa.Table) -> pa.Table:
        try:
            fd = os.open(sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            os.close(fd)
            os._exit(1)
        except FileExistsError:
            pass
        return extract_batch(batch)

    def extracted(fn):
        return (
            _docs()
            .map_batches(explode_spans, batch_format="pyarrow")
            .map_batches(fn, batch_format="pyarrow", batch_size=64)
        )

    baseline = _sorted_frame(reassemble(extracted(extract_batch)))
    wounded = _sorted_frame(reassemble(extracted(crash_once_extract)))
    assert os.path.exists(sentinel), "the fault never fired"
    pd.testing.assert_frame_equal(wounded, baseline)
