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

Every map runs one batch per block (``batch_size=None``): a fixed row
batch size makes Ray bundle small blocks into one task, and the probe
chain then runs on one CPU.

Scale note: the broadcast topology assumes the build side fits in one
object (the reference's in-memory index assumption).
``run_compare_shuffle`` is the plan for a large build side: a hash
co-partition match join with the same per-row semantics and no
broadcast; ``run_compare_auto`` picks between them by build-side rows.
"""

from __future__ import annotations

from typing import Optional

import ray
import ray.data

from ..config import MATCHING
from ..stages import bucketed
from ..stages.enrich import enrich_batch
from ..stages.match import MERGED_SCHEMA, PageIndex, match_batch_ref, merge_match_group

_INDEX_COLS = ["doc_id", "offset", "text", "keywords", "dates", "amounts", "text_hash"]


def enrich_spans(extracted: ray.data.Dataset) -> ray.data.Dataset:
    """Attach feature columns to extracted span rows (a plain task map,
    one batch per block; the enricher is built once per worker process)."""
    return extracted.map_batches(enrich_batch, batch_format="pyarrow", batch_size=None)


def build_index(reference_enriched: ray.data.Dataset) -> PageIndex:
    """Materialize the (small) build side into the broadcastable index.

    The pipeline's index barrier — deliberately on the reference side,
    mirroring the reference's in-memory index (run_ocr.py:229-242).  An
    already-materialized side is read straight from its blocks, with no
    further Ray Data execution.
    """
    table = bucketed.collect_table(reference_enriched.materialize())
    rows = table.select(_INDEX_COLS).to_pylist() if table.num_rows else []
    return PageIndex.from_rows(rows)


def match_spans(
    probe_enriched: ray.data.Dataset,
    index: PageIndex,
    cfg: Optional[dict] = None,
) -> ray.data.Dataset:
    """Probe every span against the broadcast index -> match-result rows
    (a plain task map, one batch per block; the index is fetched once per
    worker process — see ``match_batch_ref``)."""
    import functools

    index_ref = ray.put(index)
    return probe_enriched.map_batches(
        functools.partial(match_batch_ref, index_ref=index_ref, cfg=cfg or MATCHING),
        batch_format="pyarrow",
        batch_size=None,
    )


def merge_matches(match_results: ray.data.Dataset) -> ray.data.Dataset:
    """J6: consecutive-run merge per source document.

    The results, bucket-tagged by ``source_doc_id``, materialize once.
    At most ``bucketed.DRIVER_MAX_BYTES``: one ``merge_match_group`` call
    over the whole table on the driver, which is exact because the
    kernel takes many documents per table and breaks runs at document
    boundaries.  Above the cap: the bucket-wise co-partition over the
    same blocks (one sort, one Python call per sorted block).  Results
    without rows give a typed empty Dataset on both routes.
    """
    tagged, small = bucketed.tag_and_collect(match_results, "source_doc_id", 64)
    if not tagged.count():  # block metadata
        return ray.data.from_arrow(MERGED_SCHEMA.empty_table())
    if small is None:
        return bucketed.sort_buckets(tagged, merge_match_group, "pyarrow")
    return ray.data.from_arrow(merge_match_group(small))


def _broadcast_compare(probe_extracted, reference_enriched, cfg):
    index = build_index(reference_enriched)
    return merge_matches(match_spans(enrich_spans(probe_extracted), index, cfg))


def _shuffle_compare(probe_extracted, reference_enriched, cfg):
    from ..stages.match_shuffle import run_match_shuffle

    results = run_match_shuffle(enrich_spans(probe_extracted), reference_enriched, cfg)
    return merge_matches(results)


def run_compare(
    probe_extracted: ray.data.Dataset,
    reference_extracted: ray.data.Dataset,
    cfg: Optional[dict] = None,
) -> ray.data.Dataset:
    """Full compare pipeline over two extracted-span Datasets."""
    return _broadcast_compare(probe_extracted, enrich_spans(reference_extracted), cfg)


def run_compare_shuffle(
    probe_extracted: ray.data.Dataset,
    reference_extracted: ray.data.Dataset,
    cfg: Optional[dict] = None,
) -> ray.data.Dataset:
    """Compare pipeline for LARGE build sides: hash-shuffle co-partition
    match join (see ``stages/match_shuffle.py``) instead of the broadcast
    index; output rows identical to ``run_compare``."""
    return _shuffle_compare(probe_extracted, enrich_spans(reference_extracted), cfg)


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

    The reference side is enriched and materialized once; its row count
    comes from the block metadata, and both routes consume those same
    blocks (the index build reads them without another execution).
    """
    reference_enriched = enrich_spans(reference_extracted).materialize()
    if reference_enriched.count() <= broadcast_max_build_rows:
        return _broadcast_compare(probe_extracted, reference_enriched, cfg)
    return _shuffle_compare(probe_extracted, reference_enriched, cfg)
