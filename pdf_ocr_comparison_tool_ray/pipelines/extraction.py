"""Flagship pipeline: interleaved documents -> ordered extracted spans.

One plan, ``run_extraction``, with two routes:

    default:  documents -> [explode -> extract (+ rerun) -> sort + dense seq]
              (one task map; a batch holds whole documents)
    skew:     documents -> explode -> repartition(num_output_blocks)
              -> extract (+ rerun) -> groupby(doc_id) ordered reassembly shuffle

Either way the output is a Dataset of OUTPUT_SCHEMA rows (stream to
write_parquet or iterate).

Mirrors the reference lifecycle ``run_ocr.py:115-308`` (rasterize ->
OCR -> features -> per-file collection) with the driver-side per-page
loops replaced by Dataset stages; the driver holds no per-page state.
On the default route a document is one input row, so its spans never
leave the batch that exploded them and reassembly is local for any
``batch_size`` and any block split.  Every stage is a plain task map (no
actor pool), so the read, derive and per-document map fuse into one
task operator and no stage holds a CPU the read task needs; per-process
extractor state is cached in ``stages/extract.py``.
"""

from __future__ import annotations

from typing import Optional

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..sources.interleave import derive_documents_batch
from ..stages.explode import explode_spans
from ..stages.extract import extract_batch, rerun_batch
from ..stages.reassemble import reassemble_batch_local


def tune_context() -> None:
    """Per-session Ray Data tuning for the wide steps.

    Push-based shuffle: the pull-based default coordinates P x P block
    fetches from the driver and dominated wall time for groupby/sort at
    P>=64 partitions (measured 51s -> 32s on the sf0.1x32 headline);
    push-based pipelines the exchange.  Idempotent, safe to call from
    every pipeline entry point.
    """
    from ray.data import DataContext

    DataContext.get_current().use_push_based_shuffle = True


def read_flat_documents(
    path: str,
    columns=("doc_id", "text"),
    num_blocks: Optional[int] = None,
    fmt: str = "auto",
) -> ray.data.Dataset:
    """Read a flat documents table, pruned to the needed columns.

    ``fmt``: "auto" (by extension), "parquet", "csv", "json" (newline-
    delimited), or "lance" (when installed).  Parquet/lance prune columns
    at the scan; csv/json read whole rows then project (documented cost —
    row formats cannot push projections).

    ``num_blocks`` sets the read parallelism (cheap SplitBlocks, no
    shuffle); downstream stages use batch-per-block so the block count
    chosen here IS the pipeline's parallelism.  Aim for >= 2-4x the
    worker slots.
    """
    cols = list(columns)
    if fmt == "auto":
        low = path.rstrip("/").lower()
        if low.endswith(".csv"):
            fmt = "csv"
        elif low.endswith((".json", ".jsonl", ".ndjson")):
            fmt = "json"
        elif low.endswith(".lance"):
            fmt = "lance"
        else:
            fmt = "parquet"
    if fmt == "parquet":
        return ray.data.read_parquet(path, columns=cols, override_num_blocks=num_blocks)
    if fmt == "lance":
        return ray.data.read_lance(path, columns=cols)
    if fmt == "csv":
        ds = ray.data.read_csv(path, override_num_blocks=num_blocks)
    elif fmt == "json":
        ds = ray.data.read_json(path, override_num_blocks=num_blocks)
    else:
        raise ValueError(f"unknown documents format {fmt!r}")
    return ds.map_batches(
        lambda t: t.select(cols), batch_format="pyarrow"
    )


def interleave(flat: ray.data.Dataset, seed: int = 42) -> ray.data.Dataset:
    """Flat (doc_id, text) -> interleaved (doc_id, spans) documents.

    batch_size=None (batch == block): a fixed row batch_size would make
    Ray bundle small blocks into ~batch_size tasks, silently capping the
    stage's parallelism at n_rows/batch_size regardless of cluster size.
    """
    return flat.map_batches(
        derive_documents_batch,
        batch_format="pandas",
        batch_size=None,
        fn_kwargs={"seed": seed},
    )


def read_interleaved(path: str) -> ray.data.Dataset:
    """Read an interleaved documents table (lance when available, else parquet)."""
    try:
        import lance  # noqa: F401

        return ray.data.read_lance(path)
    except ImportError:
        return ray.data.read_parquet(path)


def _extract_and_rerun(
    spans: pa.Table,
    agreement_threshold: Optional[float],
    preprocess: bool,
    rerun_threshold: Optional[float],
) -> pa.Table:
    """The span kernel both routes map: first-pass extraction, then, when
    ``rerun_threshold`` is set, the doubtful scan spans (score below it)
    through the second engine (``hybrid_ocr_engine.py:152-182``: Paddle
    first, low page confidence -> DeepSeek rerun, better answer wins).
    Confident spans never touch the second engine."""
    out = extract_batch(spans, agreement_threshold, preprocess)
    if rerun_threshold is None:
        return out
    doubtful = pc.and_(
        pc.equal(out["kind"], "scan"), pc.less(out["score"], rerun_threshold)
    )
    return pa.concat_tables(
        [out.filter(pc.invert(doubtful)), rerun_batch(out.filter(doubtful))]
    )


def _extract_documents(docs: pa.Table, **kernel_kwargs) -> pa.Table:
    """Whole documents -> their ordered output rows, in one batch."""
    return reassemble_batch_local(
        _extract_and_rerun(explode_spans(docs), **kernel_kwargs)
    )


def extract_spans(
    docs: ray.data.Dataset,
    *,
    batch_size: Optional[int] = None,
    num_output_blocks: Optional[int] = None,
    agreement_threshold: Optional[float] = None,
    preprocess: bool = False,
    rerun_threshold: Optional[float] = None,
) -> ray.data.Dataset:
    """Interleaved documents -> extracted (unordered) span rows.

    ``num_output_blocks`` spreads the exploded spans over that many blocks
    (plain repartition: splits blocks without a full shuffle), so a
    media-heavy document no longer serializes on one task.  A document's
    spans may then sit in several blocks: reassemble with ``reassemble``.
    ``batch_size=None`` is batch == block.  Other options as in
    ``run_extraction``."""
    spans = docs.map_batches(explode_spans, batch_format="pyarrow")
    if num_output_blocks:
        spans = spans.repartition(num_output_blocks)
    return spans.map_batches(
        _extract_and_rerun,
        batch_format="pyarrow",
        batch_size=batch_size,
        fn_kwargs={
            "agreement_threshold": agreement_threshold,
            "preprocess": preprocess,
            "rerun_threshold": rerun_threshold,
        },
    )


def reassemble(extracted: ray.data.Dataset) -> ray.data.Dataset:
    """Extracted span rows -> ordered span sequences (the output invariant).

    The general path: a hash co-partition on ``doc_id`` co-locates a
    document's spans wherever they live, then each BUCKET runs the
    vectorized multi-document sort+dense-seq kernel (the same kernel the
    fast path uses — ``reassemble_batch_local`` handles many docs per
    table).  One shuffle, one Python invocation per sorted block instead
    of one per document (``stages/bucketed.py``).  Required whenever spans were
    scattered (the skew route's repartition, pre-exploded inputs).
    """
    from ..stages.bucketed import bucketed_map_groups

    tune_context()
    return bucketed_map_groups(
        extracted,
        "doc_id",
        reassemble_batch_local,
        n_buckets=64,
        batch_format="pyarrow",
    )


def reassemble_local(
    extracted: ray.data.Dataset, expect_dense_offsets: bool = False
) -> ray.data.Dataset:
    """Shuffle-free reassembly for doc-local span blocks (see
    ``reassemble_batch_local`` for the validity condition).

    ``expect_dense_offsets=True`` (spans derived by ``interleave`` carry
    dense 0-based per-doc offsets) enables the exact block-split guard:
    a document sliced across blocks by dynamic block splitting raises
    instead of silently restarting its seq sequence.
    """
    return extracted.map_batches(
        reassemble_batch_local,
        batch_format="pyarrow",
        batch_size=None,
        fn_kwargs={"expect_dense_offsets": expect_dense_offsets},
    )


def run_extraction(
    docs: ray.data.Dataset,
    *,
    batch_size: Optional[int] = None,
    num_output_blocks: Optional[int] = None,
    agreement_threshold: Optional[float] = None,
    preprocess: bool = False,
    rerun_threshold: Optional[float] = None,
) -> ray.data.Dataset:
    """Interleaved documents -> ordered span rows: the one extraction plan.

    Default route: one task map over document rows runs explode,
    extraction and the sort + dense-seq reassembly per batch.  A document
    is one input row, so its spans never straddle batches or blocks, and
    no shuffle is needed.  ``batch_size`` is documents per batch (None:
    batch == block).

    Skew route (``num_output_blocks`` set): the exploded spans are
    repartitioned across that many blocks before extraction, so a
    media-heavy document's spans run on many tasks, and the
    groupby(doc_id) shuffle reassembles them.  ``batch_size`` is then
    spans per extraction batch.

    ``preprocess=True`` runs the M2/M3 image chain (grayscale -> denoise
    -> contrast -> deskew, warmed once per worker process) on each scan
    span's page image ahead of recognition — the reference's
    off-by-default ``ocr_engine.py:75-115`` preprocessing
    (``config.yaml:131-134``).

    ``agreement_threshold`` overrides the native-vs-OCR route choice for
    pdf spans (None -> config default).  A value > 1 forces the OCR
    route everywhere — the single-engine "deepseek_only" analog of the
    reference's mode switch (``hybrid_ocr_engine.py:250-264``), and the
    mode whose output is an exact media round-trip (used by the
    ``extraction_pipeline`` driver oracle).

    ``rerun_threshold`` (smart mode): scan spans whose first-pass
    confidence falls below it rerun on the heavier second engine and the
    better answer wins, with ``route`` recording the winner.  The mock
    first engine's confidences live in [0.90, 0.998], so a demo threshold
    sits inside that range; a real deployment sets the reference's 0.85.
    """
    tune_context()
    kernel_kwargs = {
        "agreement_threshold": agreement_threshold,
        "preprocess": preprocess,
        "rerun_threshold": rerun_threshold,
    }
    if num_output_blocks:
        return reassemble(
            extract_spans(
                docs,
                batch_size=batch_size,
                num_output_blocks=num_output_blocks,
                **kernel_kwargs,
            )
        )
    return docs.map_batches(
        _extract_documents,
        batch_format="pyarrow",
        batch_size=batch_size,
        fn_kwargs=kernel_kwargs,
    )
