"""Flagship pipeline: interleaved documents -> ordered extracted spans.

    read (parquet/lance) -> derive/validate interleaved spans
      -> explode (zero-copy Arrow)
      -> [optional repartition to defuse media-heavy skew]
      -> extract_batch task map (hybrid routing)
      -> groupby(doc_id) ordered reassembly shuffle
      -> Dataset of OUTPUT_SCHEMA rows (stream to write_parquet or iterate)

Mirrors the reference lifecycle ``run_ocr.py:115-308`` (rasterize ->
OCR -> features -> per-file collection) with the driver-side per-page
loops replaced by Dataset stages; the driver holds no per-page state.
Every stage is a plain task map (no actor pool), so derive, explode,
extract and the doc-local reassembly fuse into one task operator and no
stage holds a CPU the read task needs; per-process extractor state is
cached in ``stages/extract.py``.
"""

from __future__ import annotations

from typing import Optional

import ray.data

from ..config import STAGE
from ..sources.interleave import derive_documents_batch
from ..stages.explode import explode_spans
from ..stages.extract import extract_batch
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


def extract_spans(
    docs: ray.data.Dataset,
    *,
    batch_size="auto",
    num_output_blocks: Optional[int] = None,
    agreement_threshold: Optional[float] = None,
    preprocess: bool = False,
) -> ray.data.Dataset:
    """Interleaved documents -> extracted (unordered) span rows.

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
    ``extraction_pipeline`` driver oracle)."""
    spans = docs.map_batches(explode_spans, batch_format="pyarrow")
    if num_output_blocks:
        # spread media-heavy documents' spans across tasks (skew defusal);
        # plain repartition splits blocks without a full shuffle
        spans = spans.repartition(num_output_blocks)
    # batch_size semantics: "auto" -> STAGE default (fixed batches, what a
    # GPU OCR engine wants); None -> batch == block, so task granularity is
    # the block count chosen at the read and bundling never caps parallelism.
    return spans.map_batches(
        extract_batch,
        batch_format="pyarrow",
        batch_size=STAGE["ocr_batch_size"] if batch_size == "auto" else batch_size,
        fn_kwargs={
            "agreement_threshold": agreement_threshold,
            "preprocess": preprocess,
        },
    )


def extract_spans_split(
    docs: ray.data.Dataset,
    *,
    heavy_batch_size="auto",
) -> ray.data.Dataset:
    """Filter-split hybrid routing — the idiomatic Ray Data form of the
    reference's ``HybridOCREngine`` (SURVEY ST3): light spans (text/html)
    run through the stateless light kernel, heavy spans (scan/pdf)
    through the model-holding ``extract_batch``, outputs unioned.

    Use this over the fused ``extract_spans`` when the heavy route is
    expensive (real OCR models): light spans then never share a batch
    with OCR work.  The union scatters a document's spans across
    light/heavy blocks, so downstream reassembly MUST take the
    groupby(doc_id) shuffle path (``run_extraction_split`` does).
    """
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..stages.extract import extract_light_batch

    spans = docs.map_batches(explode_spans, batch_format="pyarrow")

    def keep(kinds):
        return lambda t: t.filter(pc.is_in(t["kind"], pa.array(kinds)))

    light = spans.map_batches(keep(["text", "html"]), batch_format="pyarrow")
    heavy = spans.map_batches(keep(["scan", "pdf"]), batch_format="pyarrow")

    light_out = light.map_batches(extract_light_batch, batch_format="pyarrow")
    heavy_out = heavy.map_batches(
        extract_batch,
        batch_format="pyarrow",
        batch_size=STAGE["ocr_batch_size"] if heavy_batch_size == "auto" else heavy_batch_size,
    )
    return light_out.union(heavy_out)


def run_extraction_split(
    docs: ray.data.Dataset,
    *,
    heavy_batch_size="auto",
) -> ray.data.Dataset:
    """Split-routing pipeline; output identical to ``run_extraction``."""
    tune_context()
    extracted = extract_spans_split(docs, heavy_batch_size=heavy_batch_size)
    return reassemble(extracted)


def run_extraction_hybrid_rerun(
    docs: ray.data.Dataset,
    *,
    rerun_threshold: float = 0.93,
    agreement_threshold: Optional[float] = None,
) -> ray.data.Dataset:
    """Smart-mode extraction: first-pass engine for everything, then scan
    spans whose confidence fell below ``rerun_threshold`` rerun through
    the heavier second engine and the better answer wins.

    Mirrors ``hybrid_ocr_engine.py:152-182`` (Paddle first, avg page
    confidence < 0.85 -> DeepSeek rerun) as a filter-split: confident
    spans never touch the second engine.  The mock first engine's
    confidences live in [0.90, 0.998], so the demo threshold defaults
    inside that range; a real deployment sets the reference's 0.85.

    The union scatters a document's spans across confident/rerun blocks,
    so reassembly takes the groupby(doc_id) shuffle path.
    """
    import pyarrow.compute as pc

    from ..stages.extract import rerun_batch

    tune_context()
    # the first-pass output feeds two branches; materialize at the fan-out
    # so extraction doesn't re-execute per branch (NOTES gotcha — at
    # 100 TB this boundary is a checkpointed table instead)
    extracted = extract_spans(
        docs,
        batch_size=None,
        agreement_threshold=agreement_threshold,
    ).materialize()

    def is_doubtful(t):
        return pc.and_(
            pc.equal(t["kind"], "scan"), pc.less(t["score"], rerun_threshold)
        )

    confident = extracted.map_batches(
        lambda t: t.filter(pc.invert(is_doubtful(t))), batch_format="pyarrow"
    )
    doubtful = extracted.map_batches(
        lambda t: t.filter(is_doubtful(t)), batch_format="pyarrow"
    )
    rerun = doubtful.map_batches(rerun_batch, batch_format="pyarrow")
    return reassemble(confident.union(rerun))


def run_extraction_skew_aware(
    docs: ray.data.Dataset,
    *,
    span_threshold: int = 2000,
    giant_output_blocks: Optional[int] = None,
) -> ray.data.Dataset:
    """Skew-aware extraction: media-heavy giants repartitioned, the rest
    shuffle-free.

    A document with 10^4 spans fills its exploded block and serializes
    on one extraction task (SURVEY §7.6 skew).  Mitigating with a global
    repartition forces ALL spans through the groupby(doc_id) reassembly
    shuffle, whose fixed cost dwarfs the straggler at moderate scale.
    Instead: span counts are read pre-explode via ``list_value_length``
    (no explode needed), only docs above ``span_threshold`` take the
    repartition + shuffle-reassembly route, and the shuffle moves ONLY
    the giants' spans; normal docs keep the doc-local fast path.  The
    two branches union.  This is hot-key salting applied to document
    size.

    ``docs`` is consumed by both branches; the input is materialized so
    upstream derivation doesn't re-execute per branch (straight off
    ``read_parquet``/``read_lance`` the second pass would just re-read).
    """
    import pyarrow.compute as pc

    tune_context()
    docs = docs.materialize()

    def with_len(t):
        return t.append_column("n_spans", pc.list_value_length(t["spans"]))

    sized = docs.map_batches(with_len, batch_format="pyarrow")
    normal = sized.map_batches(
        lambda t: t.filter(pc.less_equal(t["n_spans"], span_threshold)).drop_columns(
            ["n_spans"]
        ),
        batch_format="pyarrow",
    )
    giant = sized.map_batches(
        lambda t: t.filter(pc.greater(t["n_spans"], span_threshold)).drop_columns(
            ["n_spans"]
        ),
        batch_format="pyarrow",
    )
    if giant_output_blocks is None:
        import ray

        giant_output_blocks = int(ray.cluster_resources().get("CPU", 4)) * 2

    normal_out = reassemble_local(
        extract_spans(normal, batch_size=None), expect_dense_offsets=True
    )
    giant_out = reassemble(
        extract_spans(
            giant,
            batch_size=None,
            num_output_blocks=giant_output_blocks,
        )
    )
    return normal_out.union(giant_out)


def reassemble(extracted: ray.data.Dataset) -> ray.data.Dataset:
    """Extracted span rows -> ordered span sequences (the output invariant).

    The general path: a hash co-partition on ``doc_id`` co-locates a
    document's spans wherever they live, then each BUCKET runs the
    vectorized multi-document sort+dense-seq kernel (the same kernel the
    fast path uses — ``reassemble_batch_local`` handles many docs per
    table).  One shuffle, one Python invocation per sorted block instead
    of one per document (``stages/bucketed.py``).  Required whenever spans were
    scattered (skew repartition, pre-exploded inputs, filter-split
    unions).
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
    batch_size="auto",
    num_output_blocks: Optional[int] = None,
    agreement_threshold: Optional[float] = None,
    preprocess: bool = False,
) -> ray.data.Dataset:
    """Full flagship pipeline over an interleaved documents Dataset.

    Reassembly strategy: documents stay block-local through
    explode+extract only when nothing re-cuts block boundaries — no skew
    repartition (``num_output_blocks is None``) and batch==block in the
    extractor (``batch_size is None``; a fixed batch_size can split a
    task's output at batch edges once blocks approach
    ``target_max_block_size``).  When both hold, the shuffle-free local
    reassembly is used; otherwise the general groupby(doc_id) shuffle.
    """
    tune_context()
    extracted = extract_spans(
        docs,
        batch_size=batch_size,
        num_output_blocks=num_output_blocks,
        agreement_threshold=agreement_threshold,
        preprocess=preprocess,
    )
    if num_output_blocks is None and batch_size is None:
        return reassemble_local(extracted, expect_dense_offsets=True)
    return reassemble(extracted)


def run_extraction_from_flat(
    flat_path: str,
    *,
    seed: int = 42,
    batch_size="auto",
    num_output_blocks: Optional[int] = None,
    num_read_blocks: Optional[int] = None,
    agreement_threshold: Optional[float] = None,
) -> ray.data.Dataset:
    """Convenience: flat documents parquet -> interleave -> extract -> reassemble."""
    docs = interleave(
        read_flat_documents(flat_path, num_blocks=num_read_blocks), seed=seed
    )
    return run_extraction(
        docs,
        batch_size=batch_size,
        num_output_blocks=num_output_blocks,
        agreement_threshold=agreement_threshold,
    )
