"""Ordered reassembly — the invariant-bearing shuffle.

Reference J6 (``content_matcher.py:415-508`` merge assumes ascending
page order; ``pdf_processor.py:332-349`` sorts by page_num before run
grouping).  In Ray Data the physical arrival order of spans is
arbitrary after the extraction fan-out, so order is *restored
explicitly*: ``groupby(doc_id)`` co-locates a document's spans, then an
in-group sort on ``offset`` (stable; offsets are unique per doc by
construction, with (kind, media_ref) as a deterministic tiebreak for
robustness) assigns the final ``seq``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def reassemble_batch_local(
    batch: pa.Table, expect_dense_offsets: bool = False
) -> pa.Table:
    """Batch-local reassembly — shuffle-free fast path.

    Valid ONLY when every document's spans live entirely inside one
    batch.  ``run_extraction``'s default route calls it inside the same
    function that exploded the batch's documents, so that always holds
    there and it needs no check.  ``reassemble_local`` maps it over
    blocks of already-extracted spans, where Ray Data's dynamic block
    splitting can slice a task's output at ``target_max_block_size``
    and scatter one document across two blocks; the guard serves only
    that caller.  ``expect_dense_offsets=True`` (for inputs derived by
    ``interleave``, which carry dense 0-based per-doc offsets) turns
    that silent corruption into a loud error: a sliced document leaves
    at least one fragment whose offsets are not exactly 0..n-1, and this
    check raises instead of emitting two independent seq runs.  Spans
    scattered on purpose (the skew route's repartition, pre-exploded
    span tables) take the ``groupby(doc_id)`` shuffle path.  Output rows
    are identical to the shuffle path; only block boundaries differ.
    """
    idx = pc.sort_indices(
        batch,
        sort_keys=[
            ("doc_id", "ascending"),
            ("offset", "ascending"),
            ("kind", "ascending"),
            ("media_ref", "ascending"),
        ],
    )
    g = batch.take(idx)
    n = len(g)
    if n == 0:
        return reassemble_group(batch)
    doc = np.asarray(g["doc_id"])
    change = np.empty(n, dtype=bool)
    change[0] = True
    change[1:] = doc[1:] != doc[:-1]
    starts = np.flatnonzero(change)
    # dense per-doc seq: global index minus the index of the doc's first row
    seq = np.arange(n, dtype=np.int64) - np.repeat(
        starts, np.diff(np.append(starts, n))
    )
    if expect_dense_offsets:
        off = np.asarray(g["offset"], dtype=np.int64)
        bad = off != seq
        if bad.any():
            culprit = doc[bad][0]
            raise ValueError(
                f"doc {culprit!r}: spans in this block are not a complete "
                "0-based offset run — a document was split across blocks "
                "(dynamic block splitting?). Use the groupby(doc_id) "
                "shuffle reassembly path for this input."
            )
    cols = {
        "doc_id": g["doc_id"],
        "seq": pa.array(seq.astype(np.int32)),
        "kind": g["kind"],
        "text": g["text"],
        "media_ref": g["media_ref"],
        "route": g["route"],
        "score": g["score"],
    }
    if "bbox" in g.column_names:
        cols["bbox"] = g["bbox"]
    return pa.table(cols)


def reassemble_group(group: pa.Table) -> pa.Table:
    """One document's spans -> ordered output rows with dense ``seq``."""
    idx = pc.sort_indices(
        group,
        sort_keys=[("offset", "ascending"), ("kind", "ascending"), ("media_ref", "ascending")],
    )
    g = group.take(idx)
    seq = pa.array(np.arange(len(g), dtype=np.int32))
    cols = {
        "doc_id": g["doc_id"],
        "seq": seq,
        "kind": g["kind"],
        "text": g["text"],
        "media_ref": g["media_ref"],
        "route": g["route"],
        "score": g["score"],
    }
    if "bbox" in g.column_names:
        cols["bbox"] = g["bbox"]
    return pa.table(cols)
