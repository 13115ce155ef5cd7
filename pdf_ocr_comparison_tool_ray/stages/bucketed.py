"""Bucket-wise co-partition: the high-cardinality groupby pattern.

Ray's ``groupby(key).map_groups(fn)`` invokes Python machinery once PER
GROUP — measured at ~50ms/group overhead (NOTES.md: 15k customer keys
burned ~700 CPU-s on 30k rows).  When the key cardinality is much larger
than the worker count, the scale-safe shape is: hash the key into
``n_buckets`` buckets, sort on the bucket id (one shuffle), then run a
VECTORIZED pandas/numpy computation once per sorted block.  Results are
identical because range partitioning never splits a bucket across
blocks and a bucket contains every row of each key it holds (hash
co-partition), so any per-key computation can run inside the block.

First proven on ``q_region_revenue`` (2x wall-time, oracle-identical);
this module generalizes it for asof/range/rolling joins, sessionization,
medians, pair dedup and connected components.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Union

import pandas as pd
import pyarrow as pa
import ray.data
from pandas.util import hash_pandas_object

BUCKET_COL = "_bucket"


def bucket_of(df: pd.DataFrame, keys: Sequence[str], n_buckets: int) -> pd.Series:
    """Deterministic hash-bucket id per row for ``keys``.

    ``hash_pandas_object`` is stable across processes (fixed hash key, no
    PYTHONHASHSEED dependence), which resume/recompute determinism needs.
    The single source of bucket assignment — every tagger delegates here.
    """
    h = hash_pandas_object(df[list(keys)], index=False)
    return (h % n_buckets).astype("int64")


def bucketed_map_groups(
    ds: ray.data.Dataset,
    keys: Union[str, Sequence[str]],
    bucket_fn: Callable[[pd.DataFrame], Union[pd.DataFrame, pa.Table]],
    n_buckets: int = 64,
    batch_format: str = "pandas",
) -> ray.data.Dataset:
    """``groupby(keys)``-equivalent co-partition with vectorized buckets.

    ``bucket_fn`` receives one or more WHOLE buckets (all rows of every
    key hashed into them, ``BUCKET_COL`` already dropped) and must itself
    handle the per-key logic vectorized (``df.groupby(keys)`` inside the
    frame).  One all-to-all sort shuffle, then one call per non-empty
    sorted block — at most ``min(n_blocks, n_buckets)`` calls regardless
    of key cardinality; an empty block is skipped, never passed in.  The
    sort's range partitioning keeps equal ``BUCKET_COL`` values in one
    block (the guarantee Ray's own ``map_groups`` relies on), so slicing
    each block into per-bucket calls would only add dispatch cost.

    ``batch_format``: "pandas" (default) or "pyarrow" — the format the
    bucket_fn receives (pyarrow keeps nested/list columns zero-copy).
    """
    key_list: List[str] = [keys] if isinstance(keys, str) else list(keys)

    def tag(batch: pa.Table) -> pa.Table:
        # tag on ARROW blocks: the shuffle then moves arrow blocks, which
        # carry list/nested columns that pandas-block shuffles reject
        # (object ndarrays of ndarrays); only the key columns are
        # converted to pandas for the hash
        kdf = batch.select(key_list).to_pandas()
        b = bucket_of(kdf, key_list, n_buckets)
        return batch.append_column(
            BUCKET_COL, pa.array(b.to_numpy(), type=pa.int64())
        )

    if batch_format == "pandas":
        def run(block: pd.DataFrame):
            if len(block):
                yield bucket_fn(block.drop(columns=[BUCKET_COL]))
    else:
        def run(block: pa.Table):
            if len(block):
                yield bucket_fn(block.drop_columns([BUCKET_COL]))

    return (
        ds.map_batches(tag, batch_format="pyarrow")
        .sort(BUCKET_COL)
        .map_batches(run, batch_format=batch_format, batch_size=None)
    )


def bucketed_drop_duplicates(
    ds: ray.data.Dataset,
    keys: Union[str, Sequence[str]],
    n_buckets: int = 64,
    sort_within: Sequence[str] | None = None,
) -> ray.data.Dataset:
    """Distributed ``drop_duplicates(keys)`` without per-key Python groups.

    Rows of equal key co-locate in one bucket; the bucket drops dups
    vectorized.  ``sort_within`` makes the kept row deterministic when
    duplicate rows differ in other columns (sorted ascending, first kept).
    """
    key_list: List[str] = [keys] if isinstance(keys, str) else list(keys)

    def drop(df: pd.DataFrame) -> pd.DataFrame:
        if sort_within:
            df = df.sort_values(list(sort_within), kind="mergesort")
        return df.drop_duplicates(key_list)

    return bucketed_map_groups(ds, key_list, drop, n_buckets=n_buckets)


def _arrow_type(t) -> pa.DataType:
    """numpy dtype / arrow type -> arrow type (object columns assumed str)."""
    if isinstance(t, pa.DataType):
        return t
    try:
        return pa.from_numpy_dtype(t)
    except (TypeError, pa.lib.ArrowNotImplementedError):
        return pa.string()


def _schema_types(schema) -> dict:
    """Dataset schema (arrow or pandas-block) -> {name: arrow type}."""
    base = getattr(schema, "base_schema", schema)
    if isinstance(base, pa.Schema):
        return {f.name: f.type for f in base}
    return {n: _arrow_type(t) for n, t in zip(base.names, base.types)}


def bucketed_equi_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on: Union[str, Sequence[str]],
    how: str = "inner",
    n_buckets: int = 64,
    suffix: str = "_r",
) -> ray.data.Dataset:
    """Large-large equi join as ONE hash co-partition shuffle.

    Both sides union-tag into a superset schema (each side null-fills the
    other side's columns — explicit arrow types, so empty/homogeneous
    blocks keep schema equality), shuffle once on the bucketed key, and
    each bucket runs a single vectorized ``pandas.merge``.  Right-side
    non-key columns that collide with left names get ``suffix``.
    ``how``: "inner", "left", "right" or "outer" (pandas merge semantics
    per bucket; co-partition makes the per-bucket merge globally exact).

    This is the general form of the tag-union joins the queries use
    (region_revenue, anti-join, asof): neither side is broadcast, rows
    move exactly once, and the per-bucket work is vectorized.  Skew
    caveat: one KEY still lands in one bucket — salt hot keys upstream
    (see stages/match_shuffle.py) when a key's rows exceed a worker.
    """
    if how not in ("inner", "left", "right", "outer", "semi", "anti"):
        raise ValueError(
            f"how={how!r}: inner/left/right/outer/semi/anti supported"
        )
    keys: List[str] = [on] if isinstance(on, str) else list(on)
    if how in ("semi", "anti"):
        return _bucketed_semi_anti(left, right, keys, how, n_buckets)

    l_schema, r_schema = left.schema(), right.schema()
    # a fully-empty Dataset reports schema() None (Ray drops the schema
    # with the last block), which makes the joined column set
    # unconstructable for the merge forms — fail with the cause instead
    # of an AttributeError deep in the tag stage
    for side, schema in (("left", l_schema), ("right", r_schema)):
        if schema is None:
            raise ValueError(
                f"bucketed_equi_join(how={how!r}): the {side} side is an "
                f"empty Dataset with no schema, so the joined columns "
                f"cannot be constructed — materialize a schema-stable "
                f"empty frame upstream or short-circuit the join"
            )
    l_cols = [c for c in l_schema.names if c not in keys]
    r_cols_src = [c for c in r_schema.names if c not in keys]
    rename_r = {
        c: (c + suffix if c in set(l_cols) else c) for c in r_cols_src
    }
    r_cols = [rename_r[c] for c in r_cols_src]

    lt, rt = _schema_types(l_schema), _schema_types(r_schema)
    l_types = {c: lt[c] for c in keys + l_cols}
    r_types = {rename_r[c]: rt[c] for c in r_cols_src}
    union_schema = pa.schema(
        [(k, l_types[k]) for k in keys]
        + [(c, l_types[c]) for c in l_cols]
        + [(c, r_types[c]) for c in r_cols]
        + [("_side", pa.string())]
    )

    def tag_left(batch: pa.Table) -> pa.Table:
        n = len(batch)
        arrays = [batch[k] for k in keys] + [batch[c] for c in l_cols]
        arrays += [pa.nulls(n, type=r_types[c]) for c in r_cols]
        arrays.append(pa.array(["L"] * n, type=pa.string()))
        return pa.Table.from_arrays(arrays, schema=union_schema)

    def tag_right(batch: pa.Table) -> pa.Table:
        n = len(batch)
        arrays = [batch[k] for k in keys]
        arrays += [pa.nulls(n, type=l_types[c]) for c in l_cols]
        arrays += [batch[c] for c in r_cols_src]
        arrays.append(pa.array(["R"] * n, type=pa.string()))
        return pa.Table.from_arrays(arrays, schema=union_schema)

    tagged = left.map_batches(tag_left, batch_format="pyarrow").union(
        right.map_batches(tag_right, batch_format="pyarrow")
    )

    # outer modes null-fill the unmatched side; promote that side's integer
    # columns to float64 in EVERY bucket, or a fully-matched bucket would
    # emit int64 blocks while others emit float64 (block-dtype divergence)
    promote = []
    if how in ("left", "outer"):
        promote += r_cols
    if how in ("right", "outer"):
        promote += l_cols

    def _out_type(c: str, t: pa.DataType) -> pa.DataType:
        return pa.float64() if c in promote and pa.types.is_integer(t) else t

    out_schema = pa.schema(
        [(k, l_types[k]) for k in keys]
        + [(c, _out_type(c, l_types[c])) for c in l_cols]
        + [(c, _out_type(c, r_types[c])) for c in r_cols]
    )

    def join_bucket(bucket: pa.Table) -> pa.Table:
        # split sides while still in Arrow: each side's own columns carry
        # no nulls, so int64 survives to_pandas intact (the union-tagged
        # frame would coerce every null-filled int column to float64,
        # silently corrupting >2^53 hash/fingerprint values even on inner
        # joins).  Output goes back through the EXPLICIT schema — an
        # all-unmatched bucket otherwise emits empty object columns that
        # infer null arrow types and diverge from other buckets' blocks.
        import pyarrow.compute as pc

        side = bucket["_side"]
        l = bucket.filter(pc.equal(side, "L")).select(keys + l_cols).to_pandas()
        r = bucket.filter(pc.equal(side, "R")).select(keys + r_cols).to_pandas()
        out = l.merge(r, on=keys, how=how)
        for c in promote:
            if pd.api.types.is_integer_dtype(out[c]):
                out[c] = out[c].astype("float64")
        return pa.Table.from_pandas(
            out[out_schema.names], schema=out_schema, preserve_index=False
        )

    return bucketed_map_groups(
        tagged, keys, join_bucket, n_buckets=n_buckets, batch_format="pyarrow"
    )


def _bucketed_semi_anti(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    keys: List[str],
    how: str,
    n_buckets: int,
) -> ray.data.Dataset:
    """semi/anti equi join: left rows filtered by key existence in right.

    The right side ships ONLY its (deduplicated-per-batch) key columns —
    the probe payload never moves — and the output keeps the left schema
    untouched (no null-fill, so no dtype promotion hazards).  One hash
    co-partition shuffle, one vectorized membership merge per bucket;
    the existing anti-join query (``customers_without_orders``) is this
    shape hand-rolled.
    """
    if left.schema() is None:
        # empty left (schema dropped with the last block): both forms
        # return no rows regardless of the right side
        return left
    if right.schema() is None:
        # empty right: semi keeps nothing, anti keeps everything —
        # both answerable without the right side's (unknowable) schema
        return left.limit(0) if how == "semi" else left
    l_types = _schema_types(left.schema())
    l_names = list(l_types)
    union_schema = pa.schema(
        [(n, l_types[n]) for n in l_names] + [("_side", pa.string())]
    )

    def tag_left(batch: pa.Table) -> pa.Table:
        # explicit types end to end: an EMPTY block's pa.array([]) would
        # infer type null and diverge from other blocks' schemas
        import pyarrow.compute as pc

        arrays = [
            pc.cast(batch[n].combine_chunks(), l_types[n]) for n in l_names
        ]
        arrays.append(pa.array(["L"] * len(batch), type=pa.string()))
        return pa.Table.from_arrays(arrays, schema=union_schema)

    def tag_right(batch: pa.Table) -> pa.Table:
        # keys only, batch-local dedup (combiner: one probe row per
        # distinct key per batch crosses the shuffle), left payload
        # columns null-filled to keep the union schema aligned
        kt = batch.select(keys).to_pandas().drop_duplicates()
        arrays = [
            pa.array(kt[n], type=l_types[n])
            if n in keys
            else pa.nulls(len(kt), type=l_types[n])
            for n in l_names
        ]
        arrays.append(pa.array(["R"] * len(kt), type=pa.string()))
        return pa.Table.from_arrays(arrays, schema=union_schema)

    tagged = left.map_batches(tag_left, batch_format="pyarrow").union(
        right.map_batches(tag_right, batch_format="pyarrow")
    )

    keep_match = how == "semi"

    out_schema = pa.schema([(n, l_types[n]) for n in l_names])

    def filter_bucket(bucket: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        side = bucket["_side"]
        # cast back through the LEFT schema: a bucket holding both L
        # rows and null-filled R rows may round-trip through a pandas
        # block during the shuffle, promoting int64+null to float64 —
        # the L rows themselves are null-free, so the cast is exact
        l = bucket.filter(pc.equal(side, "L")).drop_columns(["_side"])
        l = l.select(l_names).cast(out_schema)
        if len(l) == 0:
            return l
        r_keys = (
            bucket.filter(pc.equal(side, "R"))
            .select(keys)
            .to_pandas()
            .drop_duplicates()
        )
        lk = l.select(keys).to_pandas()
        hit = (
            lk.merge(r_keys, on=keys, how="left", indicator=True)["_merge"]
            == "both"
        ).to_numpy()
        return l.filter(pa.array(hit if keep_match else ~hit))

    return bucketed_map_groups(
        tagged, keys, filter_bucket, n_buckets=n_buckets, batch_format="pyarrow"
    )


def bucketed_topk(
    ds: ray.data.Dataset,
    group_keys: Union[str, Sequence[str]],
    agg_spec: dict,
    order_by: Sequence[str],
    ascending: Sequence[bool],
    k: int,
    n_buckets: int = 32,
) -> pd.DataFrame:
    """Exact distributed top-k over an OPEN-cardinality group key.

    Sums partial rows per key inside each hash bucket (a key's rows all
    land in one bucket, so its total is bucket-local), keeps each sorted
    block's local top-k, and merges at most ``n_buckets x k`` candidate
    rows on the driver — any global top-k member ranks <= k within its
    own block, so the result is exact.  ``agg_spec``: {out_col: (in_col,
    "sum")}-style pandas agg mapping applied per key.  Never collects the
    full per-key aggregate (a ``to_pandas()`` of an open vocabulary /
    user set does not survive corpus scale).
    """
    keys: List[str] = [group_keys] if isinstance(group_keys, str) else list(group_keys)

    def bucket_top(bucket: pd.DataFrame) -> pd.DataFrame:
        out = bucket.groupby(keys, as_index=False).agg(**agg_spec)
        return out.sort_values(list(order_by), ascending=list(ascending),
                               kind="mergesort").head(k)

    cand = bucketed_map_groups(ds, keys, bucket_top, n_buckets=n_buckets).to_pandas()
    if not len(cand.columns):
        # Ray drops the schema of an all-empty dataset (every bucket
        # returned zero candidate rows); rebuild the contract columns so
        # callers get a schema-stable empty frame.
        cand = pd.DataFrame(
            {c: pd.Series([], dtype="object") for c in keys}
            | {c: pd.Series([], dtype="float64") for c in agg_spec}
        )
    return (
        cand.sort_values(list(order_by), ascending=list(ascending), kind="mergesort")
        .head(k)
        .reset_index(drop=True)
    )
