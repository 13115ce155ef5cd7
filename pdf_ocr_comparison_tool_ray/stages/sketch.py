"""Approximate distinct counting over a Dataset via mergeable HLL
partials.

The shuffle-free pattern for distinct-count at 100 TB: each batch emits
ONE fixed-size register row (2^p bytes); the global estimate needs only
those partials, so a corpus of any size reduces to ``n_batches`` tiny
rows.  Exact two-phase distinct (dedup-then-count) stays available where
exactness matters (see reports/keyword analysis); this is the knob to
turn when the key cardinality itself is huge.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..functions.hll import hll_add_many, hll_count, hll_init, hll_merge


def approx_distinct(ds: ray.data.Dataset, col: str, p: int = 12) -> float:
    """Global approximate distinct count of ``col`` (~1.6% error at p=12).

    A sketch ignores repeats, so each batch hashes only its distinct
    values: the same registers for less hashing on repetitive keys."""

    def partial(batch: pa.Table) -> pd.DataFrame:
        regs = hll_add_many(hll_init(p), pc.unique(batch[col]).to_pylist())
        return pd.DataFrame({"registers": [regs.tobytes()]})

    rows = ds.map_batches(partial, batch_format="pyarrow").take_all()
    merged = hll_init(p)
    for r in rows:
        merged = hll_merge(merged, np.frombuffer(r["registers"], dtype=np.uint8))
    return hll_count(merged)


def approx_distinct_by(
    ds: ray.data.Dataset, key_col: str, col: str, p: int = 10
) -> ray.data.Dataset:
    """Per-key approximate distinct: batch-level partial registers per key,
    then a ``groupby(key)`` that merges registers (elementwise max) — the
    shuffle moves one 2^p-byte row per (key, batch)."""

    def partial(batch: pa.Table) -> pa.Table:
        # explicit schema: an empty batch (or empty key set) must not emit
        # null-typed columns — groupby requires block-schema equality
        schema = pa.schema(
            [(key_col, batch.schema.field(key_col).type), ("registers", pa.binary())]
        )
        df = batch.to_pandas()
        out_keys, out_regs = [], []
        for k, g in df.groupby(key_col):
            out_keys.append(k)
            out_regs.append(hll_add_many(hll_init(p), g[col]).tobytes())
        return pa.Table.from_pydict(
            {key_col: out_keys, "registers": out_regs}, schema=schema
        )

    def merge_group(group: pd.DataFrame) -> pd.DataFrame:
        merged = hll_init(p)
        for blob in group["registers"]:
            merged = hll_merge(merged, np.frombuffer(blob, dtype=np.uint8))
        return pd.DataFrame(
            {
                key_col: [group[key_col].iloc[0]],
                "approx_distinct": [float(hll_count(merged))],
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(key_col)
        .map_groups(merge_group, batch_format="pandas")
    )


def approx_topk(
    ds: ray.data.Dataset, col: str, k: int = 10, depth: int = 4, width: int = 4096
) -> pd.DataFrame:
    """Approximate heavy hitters: per-batch Count-Min partial + local
    candidate shortlist (top 3k per batch); merged sketch re-estimates the
    union of candidates.  Shuffle-free — each batch contributes one
    fixed-size sketch row plus <=3k candidate strings; a true heavy
    hitter is in some batch's local top (union bound), so recall of the
    global top-k is high under skewed distributions.
    """
    from ..functions.hll import cm_add_many, cm_estimate, cm_init, cm_merge

    shortlist = 3 * k

    def partial(batch: pa.Table) -> pd.DataFrame:
        vals = batch[col].to_pylist()
        sk = cm_add_many(cm_init(depth, width), vals)
        counts: dict = {}
        for v in vals:
            counts[v] = counts.get(v, 0) + 1
        cands = sorted(counts, key=lambda x: (-counts[x], str(x)))[:shortlist]
        return pd.DataFrame(
            {
                "sketch": [sk.tobytes()],
                "candidates": [list(map(str, cands))],
            }
        )

    rows = ds.map_batches(partial, batch_format="pyarrow").take_all()
    merged = cm_init(depth, width)
    cands: set = set()
    for r in rows:
        merged = cm_merge(
            merged, np.frombuffer(r["sketch"], dtype=np.int64).reshape(depth, width)
        )
        cands.update(r["candidates"])
    est = {c: cm_estimate(merged, c) for c in cands}
    top = sorted(est, key=lambda x: (-est[x], x))[:k]
    return pd.DataFrame({col: top, "approx_count": [est[t] for t in top]})
