"""Checkpoint-resumable extraction with per-partition lineage + metrics.

Replaces the reference's OCR cache / processed-file checkpoint
(``ocr_cache.py:50-57`` keyed md5(path|size|mtime);
``batch_processor.py:103-153`` processed-file list) with the
batch-pipeline equivalent:

* partition assignment is a pure function of ``doc_id``
  (md5-hash mod P) — stable across runs and processes, never a function
  of execution order;
* one output parquet per partition, written atomically
  (tmp file + rename) by the same task that reassembles the partition;
* a manifest JSON per partition (``_manifest/p{i}.json``) recording
  lineage: partition id, doc/span counts, wall seconds, seed, input
  path — written only after the data file rename succeeds;
* on resume, completed partitions are skipped before the pipeline runs
  (the filter happens at the explode stage, so finished work is never
  recomputed past the cheap scan).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path
from typing import List, Optional

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import ray.data

from ..pipelines.extraction import extract_spans, interleave, read_flat_documents


def input_fingerprint(path: str) -> str:
    """md5(path|size|mtime_ns) — the reference's cache key (ocr_cache.py:50-57,
    which uses the full float mtime).  Nanosecond mtime: a same-size rewrite
    within the same wall-clock second must still change the fingerprint, or
    a resume silently skips stale partitions.

    A DIRECTORY input (read_parquet accepts one) fingerprints every file
    under it (sorted relpath|size|mtime_ns): an in-place rewrite of one
    member file changes nothing about the directory inode, so stat()ing
    the directory itself would defeat the staleness check entirely."""
    st = os.stat(path)
    if os.path.isdir(path):
        parts = []
        for root, dirs, files in os.walk(path):
            dirs.sort()
            for fn in sorted(files):
                fst = os.stat(os.path.join(root, fn))
                rel = os.path.relpath(os.path.join(root, fn), path)
                parts.append(f"{rel}|{fst.st_size}|{fst.st_mtime_ns}")
        return hashlib.md5(
            (path + "||" + "\n".join(parts)).encode()
        ).hexdigest()
    return hashlib.md5(f"{path}|{st.st_size}|{st.st_mtime_ns}".encode()).hexdigest()


def partition_of(doc_id: str, num_partitions: int) -> int:
    """Stable hash-mod partition assignment (resume determinism)."""
    h = int.from_bytes(hashlib.md5(doc_id.encode()).digest()[:8], "big")
    return h % num_partitions


def partitions_of_series(doc_ids: pd.Series, num_partitions: int) -> pd.Series:
    """Vectorized partition assignment: hash each UNIQUE id once and map
    back — post-explode batches repeat every doc_id once per span, so the
    naive per-row md5 pays the hash per SPAN on the largest dataset in
    the pipeline (review finding)."""
    s = doc_ids.astype(str)
    mapping = {d: partition_of(d, num_partitions) for d in pd.unique(s)}
    return s.map(mapping).astype("int32")


def _manifest_dir(out_dir: str) -> Path:
    return Path(out_dir) / "_manifest"


def completed_partitions(out_dir: str, input_fp: Optional[str] = None) -> List[int]:
    """Partitions safe to skip: data file present and, when ``input_fp``
    is given, written from the same input fingerprint."""
    mdir = _manifest_dir(out_dir)
    if not mdir.is_dir():
        return []
    done = []
    for f in sorted(mdir.glob("p*.json")):
        try:
            entry = json.loads(f.read_text())
            if not entry.get("empty"):
                # empty partitions stamp a manifest with no data file
                part_file = Path(out_dir) / entry["file"]
                if not part_file.is_file():
                    continue
            if input_fp is not None and entry.get("input_fp") != input_fp:
                # stale OR unverifiable: a manifest without a fingerprint
                # cannot prove it came from this input — recompute it
                continue
            done.append(int(entry["partition"]))
        except (ValueError, KeyError, OSError):
            continue
    return done


def check_num_partitions(out_dir: str, num_partitions: int) -> None:
    """Refuse to resume an out_dir under a DIFFERENT partition count:
    the old scheme's part files stay on disk, so mixing mod-P and mod-Q
    assignments would silently duplicate every doc whose two assignments
    differ (review finding).  Entries predating this field pass (they
    cannot prove a mismatch); any entry that records a different count
    is a hard error."""
    mdir = _manifest_dir(out_dir)
    if not mdir.is_dir():
        return
    for f in sorted(mdir.glob("p*.json")):
        try:
            entry = json.loads(f.read_text())
        except (ValueError, OSError):
            continue
        got = entry.get("num_partitions")
        if got is not None and int(got) != num_partitions:
            raise ValueError(
                f"{out_dir} was written with num_partitions={got}; "
                f"resuming it with num_partitions={num_partitions} would "
                f"mix two hash-mod schemes and duplicate output — resume "
                f"with {got} or use a fresh out_dir"
            )


def zero_partition_extra(count_fields, **lineage) -> dict:
    """manifest_extra for an empty-partition stamp: zeroed metric
    fields + wall_sec + lineage.  One builder for every stamping site
    (extraction, curation write stage, curation keys-sideline resume)
    so a new lineage field cannot be added to one site and silently
    missed in another."""
    return {**{f: 0 for f in count_fields}, "wall_sec": 0.0, **lineage}


def stamp_empty_partition(out_dir: str, part: int, manifest_extra: dict) -> None:
    """Manifest-only completion marker for a partition the run produced
    ZERO rows for (map_groups never invokes the writer on empty groups,
    so without this a legitimately-empty partition looks forever
    incomplete and blocks the noop / fast-resume paths — review
    finding).  No data file is written: fabricating an empty parquet
    would have to guess column dtypes and could poison the schema of
    read_checkpointed_output's merged read.

    A STALE part file from a previous input (same out_dir, rewritten
    source — the partition used to be nonempty) is unlinked FIRST:
    otherwise the stamp marks the partition complete while
    read_checkpointed_output keeps globbing the old rows in as current
    output (review finding)."""
    stale = Path(out_dir) / f"part-{part:05d}.parquet"
    try:
        stale.unlink()
    except FileNotFoundError:
        pass
    mdir = _manifest_dir(out_dir)
    mdir.mkdir(parents=True, exist_ok=True)
    entry = {
        "partition": part,
        "file": None,
        "empty": True,
        "ts": round(time.time(), 3),
        **manifest_extra,
    }
    mtmp = mdir / f".tmp-p{part}.json"
    mtmp.write_text(json.dumps(entry))
    os.replace(mtmp, mdir / f"p{part}.json")


def write_partition_atomic(
    out_dir: str,
    part: int,
    table: pa.Table,
    manifest_extra: dict,
    t0: Optional[float] = None,
) -> dict:
    """Atomic partition write + manifest entry: data file lands via tmp
    + rename FIRST, the manifest entry (the resume marker) only after —
    a crash between the two recomputes the partition, never skips it.

    ``t0`` (a perf_counter origin): when given, the manifest's
    ``wall_sec`` is stamped HERE, after the data write, so the recorded
    lineage metric includes the parquet write — typically the dominant
    cost of the partition task on real storage (review finding)."""
    fname = f"part-{part:05d}.parquet"
    final = Path(out_dir) / fname
    tmp = Path(out_dir) / f".tmp-{fname}-{os.getpid()}"
    pq.write_table(table, tmp)
    os.replace(tmp, final)  # atomic on the same filesystem

    mdir = _manifest_dir(out_dir)
    mdir.mkdir(parents=True, exist_ok=True)
    if t0 is not None:
        manifest_extra = {
            **manifest_extra,
            "wall_sec": round(time.perf_counter() - t0, 4),
        }
    # completion ts feeds the progress watcher (state/progress.py):
    # rate/ETA count only entries stamped after the current run started
    entry = {
        "partition": part,
        "file": fname,
        "ts": round(time.time(), 3),
        **manifest_extra,
    }
    mtmp = mdir / f".tmp-p{part}.json"
    mtmp.write_text(json.dumps(entry))
    os.replace(mtmp, mdir / f"p{part}.json")
    return entry


def _make_partition_writer(
    out_dir: str,
    seed: int,
    input_path: str,
    input_fp: str = "",
    num_partitions: Optional[int] = None,
):
    """map_groups UDF factory: reassemble one partition, write it
    atomically, record lineage; emits the partition's metrics row."""

    def write_partition(group: pd.DataFrame) -> pd.DataFrame:
        t0 = time.perf_counter()
        part = int(group["partition"].iloc[0])
        g = group.sort_values(["doc_id", "offset"]).reset_index(drop=True)
        g["seq"] = g.groupby("doc_id").cumcount().astype("int32")
        out_cols = ["doc_id", "seq", "kind", "text", "media_ref", "route", "score"]
        table = pa.Table.from_pandas(g[out_cols], preserve_index=False)

        n_docs = int(g["doc_id"].nunique())
        write_partition_atomic(
            out_dir,
            part,
            table,
            {
                "n_docs": n_docs,
                "n_spans": int(len(g)),
                "seed": seed,
                "input_path": input_path,
                "input_fp": input_fp,
                "num_partitions": num_partitions,
            },
            t0=t0,
        )
        return pd.DataFrame(
            [
                {
                    "partition": part,
                    "n_docs": n_docs,
                    "n_spans": int(len(g)),
                    "wall_sec": time.perf_counter() - t0,
                }
            ]
        )

    return write_partition


def run_extraction_checkpointed(
    flat_path: str,
    out_dir: str,
    num_partitions: int = 16,
    seed: int = 42,
) -> pd.DataFrame:
    """Run (or resume) the flagship extraction, one parquet per partition.

    Returns the per-partition metrics of THIS run (already-completed
    partitions are skipped and do not appear).
    """
    from .progress import write_job_stamp

    os.makedirs(out_dir, exist_ok=True)
    check_num_partitions(out_dir, num_partitions)
    input_fp = input_fingerprint(flat_path)
    done = set(completed_partitions(out_dir, input_fp))
    write_job_stamp(
        out_dir,
        job="extract",
        partitions_total=num_partitions,
        input_path=flat_path,
        input_fp=input_fp,
        partitions_resumed=len(done),
    )
    remaining = [p for p in range(num_partitions) if p not in done]
    if not remaining:
        return pd.DataFrame(columns=["partition", "n_docs", "n_spans", "wall_sec"])

    flat = read_flat_documents(flat_path)
    done_frozen = frozenset(done)
    np_ = num_partitions

    def drop_done(batch: pd.DataFrame) -> pd.DataFrame:
        parts = partitions_of_series(batch["doc_id"], np_)
        keep = ~parts.isin(done_frozen)
        return batch.loc[keep]

    flat = flat.map_batches(drop_done, batch_format="pandas")
    extracted = extract_spans(interleave(flat, seed=seed))

    def add_partition(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["partition"] = partitions_of_series(batch["doc_id"], np_)
        return batch

    partitioned = extracted.map_batches(add_partition, batch_format="pandas")
    stats = partitioned.groupby("partition").map_groups(
        _make_partition_writer(out_dir, seed, flat_path, input_fp, num_partitions),
        batch_format="pandas",
    )
    cols = ["partition", "n_docs", "n_spans", "wall_sec"]
    df = stats.to_pandas()
    if not len(df.columns):
        # zero groups (every remaining partition empty) lose the pandas
        # schema through to_pandas — rebuild it
        df = pd.DataFrame(columns=cols)
    else:
        df = df.sort_values("partition").reset_index(drop=True)
    # partitions the run produced ZERO rows for never reach the writer;
    # stamp their completion so re-submission can noop
    written = set(int(p) for p in df["partition"]) if len(df) else set()
    for p in remaining:
        if p not in written:
            stamp_empty_partition(
                out_dir,
                p,
                zero_partition_extra(
                    ("n_docs", "n_spans"),
                    seed=seed,
                    input_path=flat_path,
                    input_fp=input_fp,
                    num_partitions=num_partitions,
                ),
            )
    return df


def read_checkpointed_output(out_dir: str) -> ray.data.Dataset:
    """Read back the per-partition output files as one Dataset."""
    files = sorted(str(p) for p in Path(out_dir).glob("part-*.parquet"))
    return ray.data.read_parquet(files)
