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

Three plan shapes live here.  ``bucketed_map_groups`` co-partitions ONE
Dataset (sessionization, medians, pair dedup, connected components).
``co_partition`` co-partitions TWO: both sides tag into one typed union,
shuffle once, and split back per block for a ``kernel(l_df, r_df)`` —
the single implementation under every large-large join
(``bucketed_equi_join``'s merge and semi/anti kernels, the as-of and
range joins, the dedup survive rules).  ``size_routed_join`` picks by
the right side's row count: at most ``BROADCAST_MAX_ROWS`` broadcasts
it to a task map over the left, more co-partitions through
``bucketed_equi_join`` — one merge kernel and one membership kernel
serve both routes (dim-table lookups, exact-key index joins, anti-join
dedup).

One rule finishes small inputs on the driver.  A plan whose input
materializes to at most ``DRIVER_MAX_BYTES`` collects its blocks once
(``collect_table``) and runs the kernel its distributed route runs per
bucket or per block over the whole table, where one Ray Data execution
or one sort would cost more than the work (~70 ms and ~60 ms measured
on 4 CPUs).  ``tag_and_collect`` is that rule for a
``bucketed_map_groups``: ``map_groups_frame`` applies it when the caller
collects the result anyway (``bucketed_topk``, exact dedup, the
heavy-hitter recount, four small-partial rollups in
``pipelines/queries.py`` and the keyword report), and the compare
pipeline's run-merge applies it to a Dataset result.  The LSH pairs and
the set-similarity matrix in ``stages/dedup.py`` and the compare
``match_summary`` collect their inputs the same way.  Above the cap,
each plan runs its distributed route over the already-materialized
input.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Union

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data
from pandas.util import hash_pandas_object
from ray.data.block import BlockAccessor

from .broadcast import broadcast_get

BUCKET_COL = "_bucket"
# size_routed_join broadcasts a right side of at most this many rows
BROADCAST_MAX_ROWS = 5_000_000
# a materialized input of at most this many bytes finishes on the driver;
# the measured crossover (BASELINE.md, "Driver-finish cap")
DRIVER_MAX_BYTES = 8 << 20


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
    return sort_buckets(_tag_buckets(ds, key_list, n_buckets), bucket_fn,
                        batch_format)


def _tag_buckets(ds: ray.data.Dataset, key_list: List[str],
                 n_buckets: int) -> ray.data.Dataset:
    """``ds`` with the ``BUCKET_COL`` of ``bucketed_map_groups``."""

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

    return ds.map_batches(tag, batch_format="pyarrow")


def sort_buckets(tagged: ray.data.Dataset, bucket_fn, batch_format: str):
    """The sort shuffle and per-block ``bucket_fn`` calls of
    ``bucketed_map_groups`` over a ``_tag_buckets`` or
    ``tag_and_collect`` output."""
    if batch_format == "pandas":
        def run(block: pd.DataFrame):
            if len(block):
                yield bucket_fn(block.drop(columns=[BUCKET_COL]))
    else:
        def run(block: pa.Table):
            if len(block):
                yield bucket_fn(block.drop_columns([BUCKET_COL]))

    return tagged.sort(BUCKET_COL).map_batches(
        run, batch_format=batch_format, batch_size=None
    )


def collect_table(ds: ray.data.Dataset,
                  max_bytes: int | None = None) -> pa.Table | None:
    """A MATERIALIZED Dataset's blocks as one Arrow table, read straight
    from the object store: ``to_pandas()`` would start one more Ray Data
    execution.  A Dataset without blocks collects to a table without
    columns.  With ``max_bytes``: None instead when the blocks' size
    (from block metadata, nothing read) is unknown or exceeds it."""
    if max_bytes is not None:
        n_bytes = ds.size_bytes()
        if n_bytes is None or n_bytes > max_bytes:
            return None
    refs = [r for b in ds.iter_internal_ref_bundles() for r in b.block_refs]
    tables = [BlockAccessor.for_block(b).to_arrow() for b in ray.get(refs)]
    if not tables:
        return pa.table({})
    return pa.concat_tables(tables, promote_options="default")


def tag_and_collect(
    ds: ray.data.Dataset,
    keys: Union[str, Sequence[str]],
    n_buckets: int,
) -> tuple[ray.data.Dataset, pa.Table | None]:
    """``(tagged, small)``: ``ds`` with the ``BUCKET_COL`` of
    ``bucketed_map_groups``, materialized once, and its whole table
    without that column when it is at most ``DRIVER_MAX_BYTES`` (None
    above the cap).

    A caller runs its bucket kernel once over ``small``, which is exact
    because the whole table is every bucket, or ``sort_buckets`` over
    ``tagged``: those are the blocks the sort would hold anyway (a sort
    buffers all its input), so no extra copy stays in the object store.
    """
    key_list = [keys] if isinstance(keys, str) else list(keys)
    tagged = _tag_buckets(ds, key_list, n_buckets).materialize()
    small = collect_table(tagged, DRIVER_MAX_BYTES)
    if small is not None and small.num_columns:
        small = small.drop_columns([BUCKET_COL])
    return tagged, small


def map_groups_frame(
    ds: ray.data.Dataset,
    keys: Union[str, Sequence[str]],
    bucket_fn: Callable[[pd.DataFrame], pd.DataFrame],
    n_buckets: int = 64,
) -> pd.DataFrame:
    """``bucketed_map_groups(ds, keys, bucket_fn).to_pandas()`` that
    finishes a small input on the driver (``tag_and_collect``): one
    ``bucket_fn`` call over the whole table, with no shuffle and no
    second execution; above the cap, the sort.  On both routes an input
    without rows returns a frame without columns (``bucket_fn`` never
    sees an empty frame).
    """
    tagged, small = tag_and_collect(ds, keys, n_buckets)
    if small is None:
        return sort_buckets(tagged, bucket_fn, "pandas").to_pandas()
    if not small.num_rows:
        return pd.DataFrame()
    return bucket_fn(small.to_pandas())


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


def _arrow_schema(schema) -> pa.Schema:
    """Dataset schema (arrow or pandas-block) -> arrow schema."""
    base = getattr(schema, "base_schema", schema)
    if isinstance(base, pa.Schema):
        return base
    return pa.schema(
        [(n, _arrow_type(t)) for n, t in zip(base.names, base.types)]
    )


SIDE_COL = "_side"  # co_partition's side tag: True on left rows


def _schema_of(ds: ray.data.Dataset, side: str) -> pa.Schema:
    """One side's arrow schema; a Dataset with no schema (Ray drops it
    with the last block) makes the joined columns unconstructable — fail
    with the cause, not deep in a tag stage."""
    schema = ds.schema()
    if schema is None:
        raise ValueError(
            f"co_partition: the {side} side is an empty Dataset with "
            f"no schema, so the joined columns cannot be constructed "
            f"— materialize a schema-stable empty frame upstream or "
            f"short-circuit the join"
        )
    return _arrow_schema(schema)


def co_partition(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    keys: Union[str, Sequence[str]],
    kernel: Callable[
        [pd.DataFrame, pd.DataFrame], Union[pd.DataFrame, pa.Table]
    ],
) -> ray.data.Dataset:
    """Two-sided hash co-partition: the one plan shape behind every
    large-large join (equi, semi/anti, as-of, range, survive rules).

    Both sides tag into ONE arrow union schema with explicit types: the
    shared ``keys`` (typed as on the left), each side's other columns
    under an ``l.``/``r.`` prefix (a name present on both sides cannot
    collide), and ``SIDE_COL``.  One shuffle through
    ``bucketed_map_groups`` (64 buckets); per sorted block the sides
    split in Arrow and cast back to their own schemas, so an int64
    column never passes through a null-filled float.
    ``kernel(l_df, r_df)`` then runs once per non-empty block, each
    frame holding only its own side's columns under their own names and
    dtypes; either frame may be empty (a block can hold one side only),
    so the kernel must return a typed frame or table for every input.
    Every row of a key reaches the same call.

    A side whose Dataset has no schema (Ray drops it with the last
    block) leaves the union schema unconstructable: ``ValueError``.
    Skew caveat: one KEY lands in one bucket — salt hot keys upstream
    (see stages/match_shuffle.py) when a key's rows exceed a worker.
    """
    return _co_partition(
        left, _schema_of(left, "left"), right, _schema_of(right, "right"),
        keys, kernel, 64,
    )


def _co_partition(
    left: ray.data.Dataset,
    l_schema: pa.Schema,
    right: ray.data.Dataset,
    r_schema: pa.Schema,
    keys: Union[str, Sequence[str]],
    kernel: Callable,
    n_buckets: int,
) -> ray.data.Dataset:
    """``co_partition`` over side schemas the caller already holds: a
    side built by a map has no schema until Ray executes part of it."""
    key_list: List[str] = [keys] if isinstance(keys, str) else list(keys)
    # side column name -> union column name
    l_map = {c: c if c in key_list else "l." + c for c in l_schema.names}
    r_map = {c: c if c in key_list else "r." + c for c in r_schema.names}
    union_schema = pa.schema(
        [(k, l_schema.field(k).type) for k in key_list]
        + [(l_map[f.name], f.type) for f in l_schema if f.name not in key_list]
        + [(r_map[f.name], f.type) for f in r_schema if f.name not in key_list]
        + [(SIDE_COL, pa.bool_())]
    )

    def tagger(col_map: dict, is_left: bool):
        src = {u: c for c, u in col_map.items()}

        def tag(batch: pa.Table) -> pa.Table:
            # explicit casts: an EMPTY pandas-born block carries null-typed
            # columns that would diverge from the other blocks' schemas
            n = len(batch)
            arrays = [
                batch[src[f.name]].cast(f.type)
                if f.name in src
                else pa.nulls(n, type=f.type)
                for f in union_schema
                if f.name != SIDE_COL
            ]
            arrays.append(pa.repeat(pa.scalar(is_left), n))
            return pa.Table.from_arrays(arrays, schema=union_schema)

        return tag

    def side_frame(block: pa.Table, mask, col_map: dict, schema: pa.Schema):
        t = block.filter(mask).select(list(col_map.values()))
        return t.rename_columns(list(col_map)).cast(schema).to_pandas()

    def run(block: pa.Table):
        is_left = block[SIDE_COL]
        return kernel(
            side_frame(block, is_left, l_map, l_schema),
            side_frame(block, pc.invert(is_left), r_map, r_schema),
        )

    tagged = left.map_batches(tagger(l_map, True), batch_format="pyarrow").union(
        right.map_batches(tagger(r_map, False), batch_format="pyarrow")
    )
    return bucketed_map_groups(
        tagged, key_list, run, n_buckets=n_buckets, batch_format="pyarrow"
    )


def _join_kernel(
    l_schema: pa.Schema,
    r_schema: pa.Schema | None,
    keys: List[str],
    how: str,
    suffix: str = "_r",
) -> Callable[[pd.DataFrame, pd.DataFrame], pa.Table]:
    """The one kernel of both equi-join routes, ``kernel(l_df, r_df)``.

    semi/anti: left rows filtered by key membership in ``r_df`` (a frame
    of right keys), left schema kept — duplicate right keys never
    duplicate a left row.  Otherwise one vectorized ``pandas.merge``
    into an explicit output schema: keys, left columns, right columns
    (right names colliding with left ones get ``suffix``).
    """
    if how in ("semi", "anti"):
        keep_match = how == "semi"

        def member(l: pd.DataFrame, r: pd.DataFrame) -> pa.Table:
            if len(keys) == 1:  # Series.isin: ~20x a one-level MultiIndex
                hit = l[keys[0]].isin(r[keys[0]]).to_numpy()
            else:
                hit = pd.MultiIndex.from_frame(l[keys]).isin(
                    pd.MultiIndex.from_frame(r[keys])
                )
            return pa.Table.from_pandas(
                l[hit if keep_match else ~hit],
                schema=l_schema,
                preserve_index=False,
            )

        return member

    l_cols = [c for c in l_schema.names if c not in keys]
    rename_r = {
        c: c + suffix if c in l_cols else c
        for c in r_schema.names
        if c not in keys
    }

    # outer modes null-fill the unmatched side; promote that side's integer
    # columns to float64 in EVERY call, or a fully-matched call would
    # emit int64 while others emit float64 (block-dtype divergence)
    promote = []
    if how in ("left", "outer"):
        promote += list(rename_r.values())
    if how in ("right", "outer"):
        promote += l_cols

    def _out(c: str, t: pa.DataType) -> pa.Field:
        return pa.field(
            c, pa.float64() if c in promote and pa.types.is_integer(t) else t
        )

    out_schema = pa.schema(
        [_out(k, l_schema.field(k).type) for k in keys]
        + [_out(c, l_schema.field(c).type) for c in l_cols]
        + [_out(rename_r[c], r_schema.field(c).type) for c in rename_r]
    )

    def merge(l: pd.DataFrame, r: pd.DataFrame) -> pa.Table:
        # EXPLICIT output schema: an all-unmatched call otherwise emits
        # empty object columns that infer null arrow types
        out = l.merge(r.rename(columns=rename_r), on=keys, how=how)
        for c in promote:  # astype, not arrow: arrow refuses ints > 2^53
            if pd.api.types.is_integer_dtype(out[c]):
                out[c] = out[c].astype("float64")
        return pa.Table.from_pandas(
            out[out_schema.names], schema=out_schema, preserve_index=False
        )

    return merge


def bucketed_equi_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on: Union[str, Sequence[str]],
    how: str = "inner",
    n_buckets: int = 64,
    suffix: str = "_r",
) -> ray.data.Dataset:
    """Large-large equi join: ``co_partition`` with ``_join_kernel``.

    Neither side is broadcast, rows move exactly once, and each sorted
    block runs one vectorized ``pandas.merge``.  Right-side non-key
    columns that collide with left names get ``suffix``.  ``how``:
    "inner", "left", "right" or "outer" (pandas merge semantics per
    block; co-partition makes the per-block merge globally exact), or
    "semi"/"anti" (left rows filtered by key existence in right).
    semi/anti ship ONLY the right side's (deduplicated-per-batch) key
    columns — the probe payload never moves — and keep the left schema.
    """
    if how not in ("inner", "left", "right", "outer", "semi", "anti"):
        raise ValueError(
            f"how={how!r}: inner/left/right/outer/semi/anti supported"
        )
    keys: List[str] = [on] if isinstance(on, str) else list(on)
    if how in ("semi", "anti"):
        if left.schema() is None:
            # empty left (schema dropped with the last block): both forms
            # return no rows regardless of the right side
            return left
        l_schema = _arrow_schema(left.schema())
        # the key projection's schema is known by construction, so the
        # right side never executes for it, and an empty right needs no
        # special case
        r_schema = pa.schema([l_schema.field(k) for k in keys])

        def right_keys(batch: pa.Table) -> pa.Table:
            # combiner: one row per distinct key per batch crosses the shuffle
            return batch.select(keys).cast(r_schema).group_by(keys).aggregate([])

        right = right.map_batches(right_keys, batch_format="pyarrow")
    else:
        l_schema = _schema_of(left, "left")
        r_schema = _schema_of(right, "right")
    kernel = _join_kernel(l_schema, r_schema, keys, how, suffix)
    return _co_partition(left, l_schema, right, r_schema, keys, kernel, n_buckets)


def size_routed_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on: Union[str, Sequence[str]],
    how: str = "inner",
) -> ray.data.Dataset:
    """Equi join that broadcasts a small right side and co-partitions a
    large one — the plan behind every dim-table and index lookup.

    ``right`` materializes once.  At most ``BROADCAST_MAX_ROWS`` rows:
    it is collected, ``ray.put`` once, and ``left`` streams through one
    plain task map that reads it with ``broadcast_get`` (no shuffle, no
    actor pool).  Above the cap: ``bucketed_equi_join``.  Both routes
    run ``_join_kernel``, so they return equal rows and dtypes.  The
    broadcast route builds the kernel from each left batch's own
    schema: ``left.schema()`` would execute a lazy left side once more
    just to learn it.

    A right side with no schema keeps no left row under "semi" and
    every one under "anti"; "inner"/"left" raise the co-partition
    route's ``ValueError``.  "right"/"outer" need the unmatched right
    rows tracked across tasks: use ``bucketed_equi_join``.
    """
    if how not in ("inner", "left", "semi", "anti"):
        raise ValueError(
            f"how={how!r}: size_routed_join supports inner/left/semi/anti; "
            "use bucketed_equi_join for right/outer"
        )
    keys: List[str] = [on] if isinstance(on, str) else list(on)
    right = right.materialize()
    n_right = right.count()
    if n_right > BROADCAST_MAX_ROWS:
        return bucketed_equi_join(left, right, keys, how)

    # an empty Dataset collects to a frame without columns
    if how in ("semi", "anti"):
        r_schema = None
        r_df = collect_table(right).to_pandas()[keys].drop_duplicates() if (
            n_right
        ) else pd.DataFrame(columns=keys)
    else:
        r_schema = _schema_of(right, "right")
        r_df = collect_table(right).to_pandas() if n_right else (
            r_schema.empty_table().to_pandas()
        )
    r_ref = ray.put(r_df)

    def probe(batch: pd.DataFrame):
        if len(batch):
            l_schema = pa.Schema.from_pandas(batch, preserve_index=False)
            kernel = _join_kernel(l_schema, r_schema, keys, how)
            yield kernel(batch, broadcast_get(r_ref))

    # pandas batches: the kernel is pandas, and a pandas-block left side
    # (most map outputs) then crosses no arrow round trip
    return left.map_batches(probe, batch_format="pandas")


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
    own block, so the result is exact.  Partials of at most
    ``DRIVER_MAX_BYTES`` skip the shuffle: ``map_groups_frame`` runs the
    same per-bucket top-k once over all of them.  ``agg_spec``:
    {out_col: (in_col, "sum")}-style pandas agg mapping applied per key.
    Never collects the full per-key aggregate (a ``to_pandas()`` of an
    open vocabulary / user set does not survive corpus scale).
    """
    keys: List[str] = [group_keys] if isinstance(group_keys, str) else list(group_keys)

    def bucket_top(bucket: pd.DataFrame) -> pd.DataFrame:
        out = bucket.groupby(keys, as_index=False).agg(**agg_spec)
        return out.sort_values(list(order_by), ascending=list(ascending),
                               kind="mergesort").head(k)

    cand = map_groups_frame(ds, keys, bucket_top, n_buckets=n_buckets)
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
