"""Extract-and-compare: the reference's core voucher-vs-reference flow.

Reference lifecycle (``run_ocr.py:115-308``): process reference folder ->
BARRIER build index -> process voucher folder -> per-page match ->
merge -> report.  Ray-Data-native topology: two Datasets; the build
(reference) side is enriched, collected into a compact ``PageIndex`` and
broadcast once via ``ray.put`` (the two-phase barrier becomes a
materialized small side, not an execution-order assumption); the probe
(voucher) side streams through a plain task map (``match_batch_ref``,
the index fetched once per worker process), then the per-source-doc
ordered run-merge.

Scale note: this topology assumes the build side fits in one object
(the reference's in-memory index assumption).  When the build side is
large, swap ``broadcast`` for a hash-shuffle co-partition: add
``bucket = hash(text_hash) % B`` to both sides, groupby bucket, and run
``match_page`` per bucket — same per-row semantics, no broadcast.
"""

from __future__ import annotations

from typing import Optional

import ray
import ray.data

from ..config import MATCHING
from ..stages.enrich import enrich_batch
from ..stages.match import PageIndex, match_batch_ref, merge_match_group


def enrich_spans(extracted: ray.data.Dataset, batch_size: int = 1024) -> ray.data.Dataset:
    """Attach feature columns to extracted span rows (a plain task map;
    the enricher is built once per worker process)."""
    return extracted.map_batches(enrich_batch, batch_format="pyarrow", batch_size=batch_size)


def build_index(reference_enriched: ray.data.Dataset) -> PageIndex:
    """Materialize the (small) build side into the broadcastable index.

    The only full materialization in the pipeline — deliberately on the
    reference side, mirroring the reference's in-memory index barrier
    (run_ocr.py:229-242).
    """
    cols = ["doc_id", "offset", "text", "keywords", "dates", "amounts", "text_hash"]
    rows = reference_enriched.select_columns(cols).take_all()
    return PageIndex.from_rows(rows)


def match_spans(
    probe_enriched: ray.data.Dataset,
    index: PageIndex,
    cfg: Optional[dict] = None,
    batch_size: int = 512,
) -> ray.data.Dataset:
    """Probe every span against the broadcast index -> match-result rows
    (a plain task map; the index is fetched once per worker process —
    see ``match_batch_ref``)."""
    import functools

    index_ref = ray.put(index)
    return probe_enriched.map_batches(
        functools.partial(match_batch_ref, index_ref=index_ref, cfg=cfg or MATCHING),
        batch_format="pyarrow",
        batch_size=batch_size,
    )


def merge_matches(match_results: ray.data.Dataset) -> ray.data.Dataset:
    """J6: consecutive-run merge per source document — bucket-wise
    co-partition (one shuffle, one Python call per sorted block;
    ``merge_match_group`` breaks runs at document boundaries, so many
    docs share a call)."""
    from ..stages.bucketed import bucketed_map_groups

    return bucketed_map_groups(
        match_results,
        "source_doc_id",
        merge_match_group,
        n_buckets=64,
        batch_format="pyarrow",
    )


def run_compare(
    probe_extracted: ray.data.Dataset,
    reference_extracted: ray.data.Dataset,
    cfg: Optional[dict] = None,
) -> ray.data.Dataset:
    """Full compare pipeline over two extracted-span Datasets."""
    index = build_index(enrich_spans(reference_extracted))
    results = match_spans(enrich_spans(probe_extracted), index, cfg)
    return merge_matches(results)


def run_compare_shuffle(
    probe_extracted: ray.data.Dataset,
    reference_extracted: ray.data.Dataset,
    cfg: Optional[dict] = None,
) -> ray.data.Dataset:
    """Compare pipeline for LARGE build sides: hash-shuffle co-partition
    match join (see ``stages/match_shuffle.py``) instead of the broadcast
    index; output rows identical to ``run_compare``."""
    from ..stages.match_shuffle import run_match_shuffle

    results = run_match_shuffle(
        enrich_spans(probe_extracted), enrich_spans(reference_extracted), cfg
    )
    return merge_matches(results)


# Build sides above this many span rows stop fitting the broadcast-index
# topology comfortably (the index holds full texts; ~1-2 KB/row -> ~1 GB
# at the default cap) and route to the shuffle join instead.
BROADCAST_MAX_BUILD_ROWS = 500_000


def run_compare_auto(
    probe_extracted: ray.data.Dataset,
    reference_extracted: ray.data.Dataset,
    cfg: Optional[dict] = None,
    broadcast_max_build_rows: int = BROADCAST_MAX_BUILD_ROWS,
) -> ray.data.Dataset:
    """Route by build-side size: broadcast-index join while the reference
    side is small (the reference tool's in-memory topology), hash-shuffle
    co-partition once it isn't.  Both paths are row-identical
    (equivalence-tested), so the switch is purely a physical plan choice.

    The count() is a cheap metadata pass on materialized/parquet inputs;
    on a derived Dataset it executes the build-side pipeline once, which
    the broadcast path would do anyway (build_index) — the shuffle path
    re-executes it, the price of discovering the side is huge.
    """
    reference_extracted = reference_extracted.materialize()
    n_build = reference_extracted.count()
    if n_build <= broadcast_max_build_rows:
        return run_compare(probe_extracted, reference_extracted, cfg)
    return run_compare_shuffle(probe_extracted, reference_extracted, cfg)
