"""Distributed match join — hash-shuffle co-partition variant of the
broadcast-index probe ``match_batch_ref`` (same per-row semantics, no
full-index broadcast).

Reference J1–J5 (``content_matcher.py:283-367``) probe an in-memory
index by three key families: exact ``text_hash``, shared date, shared
normalized amount.  At scale the build side doesn't fit one object, so
the join is expressed as a key-exploded co-shuffle:

  1. both sides explode to (key, row) pairs — key ∈
     {h:<text_hash>, d:<date>, a:<normalized amount>} — via a vectorized
     pandas ``explode`` (no per-row dict rows);
  2. a hash-bucketed groupby (``stages/bucketed.py``) co-locates probe
     and build rows sharing a key; each BUCKET emits its keys'
     probe×build candidate pairs with one vectorized equi-merge on key
     (never one Python group per key);
  3. a second bucketed groupby on (probe doc, offset) collects a probe's
     candidate build rows from all key groups, dedups them, builds a
     *mini* ``PageIndex`` of just those rows and runs the unchanged
     ``match_page`` — candidate-set equality with the broadcast version
     is exact because a build row is a candidate iff it shares a key
     with the probe;
  4. probes with no co-keyed build rows fall back to the reference's
     deterministic first-100 pages (J3) — that set is tiny by
     construction and IS broadcast (``ray.put``), which is the only
     broadcast this topology needs.

Skew note: a hot key (a date shared by k_b build × k_p probe rows)
emits k_b·k_p pairs — the same quadratic blowup the reference's
date_index scan has, but here it lands on one shuffle partition.
``salt_threshold`` enables hot-key salting: a cheap build-side frequency
pass finds keys above the threshold, their build rows hash to one of
``salt_factor`` sub-keys, probe rows replicate to all sub-keys, and the
per-probe dedup downstream reunifies the candidate set — semantics
unchanged (equivalence-tested), hot partition split ``salt_factor`` ways.
"""

from __future__ import annotations

from typing import List, Optional

import pandas as pd
import pyarrow as pa
import ray
import ray.data

from ..config import MATCHING
from ..functions.textnorm import normalize_amount
from ..stages.bucketed import bucketed_map_groups
from ..stages.match import _RESULT_SCHEMA, PageIndex, match_page

_CARRY = ["doc_id", "offset", "text", "doc_type", "keywords", "dates", "amounts", "text_hash"]

_CARRY_FIELDS = [
    ("doc_id", pa.string()),
    ("offset", pa.int32()),
    ("text", pa.string()),
    ("doc_type", pa.string()),
    ("keywords", pa.list_(pa.string())),
    ("dates", pa.list_(pa.string())),
    ("amounts", pa.list_(pa.string())),
    ("text_hash", pa.string()),
]

# explicit schema for every inter-stage table: union/groupby require
# block-schema equality, and all-null / all-empty-list columns would
# otherwise infer null types per block
_PAIR_SCHEMA = pa.schema(
    [(f"p_{n}", t) for n, t in _CARRY_FIELDS] + [(f"b_{n}", t) for n, t in _CARRY_FIELDS]
)
_KEYED_SCHEMA = pa.schema(_CARRY_FIELDS + [("side", pa.string()), ("key", pa.string())])


def _with_defaults(df: pd.DataFrame) -> pd.DataFrame:
    if "doc_type" not in df.columns:
        df["doc_type"] = ""
    return df


def _row_keys(r) -> set:
    keys = {"h:" + r.text_hash}
    keys.update("d:" + d for d in r.dates)
    keys.update("a:" + normalize_amount(a) for a in r.amounts)
    return keys


def _salt_of(doc_id: str, offset: int, factor: int) -> int:
    import zlib

    return zlib.crc32(f"{doc_id}|{offset}".encode()) % factor


def _explode_keys(batch: pa.Table, side: str, hot: dict | None = None,
                  factor: int = 8) -> pa.Table:
    """Emit (key, row) pairs; hot keys are salted.

    Salting (the skew mitigation the date/amount indexes need — one
    popular date otherwise lands its entire probe x build cross product
    on a single shuffle partition): a hot key k splits into
    ``k#0..k#factor-1``.  Build rows go to ONE deterministic sub-key
    (hash of their identity); probe rows replicate to ALL sub-keys, so
    every (probe, build) pair still co-locates exactly once and the
    candidate set is unchanged — the hot partition's work spreads
    ``factor`` ways at the cost of ``factor``-way probe duplication on
    hot keys only.
    """
    df = _with_defaults(batch.to_pandas())
    hot = hot or {}
    # vectorized explosion: per-row key set (h:/d:/a: families, set-deduped)
    # built once, then one pandas explode — no per-row dict materialization
    key_lists = [
        sorted(
            {"h:" + th}
            | {"d:" + d for d in dates}
            | {"a:" + normalize_amount(a) for a in amounts}
        )
        for th, dates, amounts in zip(df["text_hash"], df["dates"], df["amounts"])
    ]
    out = df[_CARRY].copy(deep=False)
    out["side"] = side
    out["key"] = key_lists
    out = out.explode("key", ignore_index=True)
    if hot:
        is_hot = out["key"].isin(hot).to_numpy()
        if is_hot.any():
            cold = out[~is_hot]
            hot_rows = out[is_hot]
            if side == "b":
                salts = [
                    _salt_of(d, int(o), factor)
                    for d, o in zip(hot_rows["doc_id"], hot_rows["offset"])
                ]
                hot_rows = hot_rows.assign(
                    key=[f"{k}#{s}" for k, s in zip(hot_rows["key"], salts)]
                )
                out = pd.concat([cold, hot_rows], ignore_index=True)
            else:
                reps = [
                    hot_rows.assign(key=hot_rows["key"] + f"#{i}")
                    for i in range(factor)
                ]
                out = pd.concat([cold] + reps, ignore_index=True)
    return pa.Table.from_pandas(out, schema=_KEYED_SCHEMA, preserve_index=False)


def _pairs_bucket(bucket: pd.DataFrame) -> pa.Table:
    """One hash bucket of keys -> probe x build candidate pairs for every
    key in it, via a single vectorized hash merge on ``key`` (the per-key
    cross product is exactly what an equi-merge on the key emits)."""
    probes = bucket[bucket["side"] == "p"]
    builds = bucket[bucket["side"] == "b"]
    if probes.empty or builds.empty:
        return _PAIR_SCHEMA.empty_table()
    p = probes[["key"] + _CARRY].rename(columns={c: f"p_{c}" for c in _CARRY})
    b = builds[["key"] + _CARRY].rename(columns={c: f"b_{c}" for c in _CARRY})
    merged = p.merge(b, on="key").drop(columns=["key"])
    return pa.Table.from_pandas(merged, schema=_PAIR_SCHEMA, preserve_index=False)


def _score_factory(cfg: dict, fallback_ref):
    fb_cache: List[Optional[PageIndex]] = [None]

    def score_group(group: pd.DataFrame) -> pa.Table:
        """One probe's candidate rows (plus its seed row) -> one match row."""
        seed = group.iloc[0]
        probe = {
            "doc_id": seed["p_doc_id"],
            "offset": int(seed["p_offset"]),
            "text": seed["p_text"],
            "doc_type": seed["p_doc_type"],
            "keywords": list(seed["p_keywords"]),
            "dates": list(seed["p_dates"]),
            "amounts": list(seed["p_amounts"]),
            "text_hash": seed["p_text_hash"],
        }
        cand = group[group["b_doc_id"].notna()]
        build_rows, seen = [], set()
        for r in cand.itertuples(index=False):
            ident = (r.b_doc_id, int(r.b_offset))
            if ident in seen:
                continue
            seen.add(ident)
            build_rows.append(
                {
                    "doc_id": r.b_doc_id,
                    "offset": int(r.b_offset),
                    "text": r.b_text,
                    "keywords": list(r.b_keywords),
                    "dates": list(r.b_dates),
                    "amounts": list(r.b_amounts),
                    "text_hash": r.b_text_hash,
                }
            )
        if build_rows:
            index = PageIndex.from_rows(build_rows)
        else:
            if fb_cache[0] is None:
                fb_cache[0] = ray.get(fallback_ref)
            index = fb_cache[0]
        row = match_page(index, probe, cfg)
        return pa.Table.from_pylist([row], schema=_RESULT_SCHEMA)

    def score_bucket(bucket: pd.DataFrame) -> pa.Table:
        """All probes hashed into one bucket; ``match_page`` is inherently
        per-probe Python, so the loop stays — but it is an in-process loop
        over sub-groups, not one Ray group per probe span."""
        tables = [
            score_group(g)
            for _, g in bucket.groupby(["p_doc_id", "p_offset"], sort=False)
        ]
        return pa.concat_tables(tables)

    return score_bucket


def _key_totals(build_enriched: ray.data.Dataset) -> pd.Series:
    """Build-side frequency per join key.

    Batch-local partial counts -> driver merge: rows moved =
    (distinct keys per batch), and only counts — never the rows.
    """

    def partial(batch: pa.Table) -> pd.DataFrame:
        df = _with_defaults(batch.to_pandas())
        counts: dict = {}
        for r in df.itertuples(index=False):
            for k in _row_keys(r):
                counts[k] = counts.get(k, 0) + 1
        return pd.DataFrame(
            {"key": list(counts.keys()),
             "n": pd.Series(list(counts.values()), dtype="int64")}
        )

    parts = build_enriched.map_batches(partial, batch_format="pyarrow").to_pandas()
    return parts.groupby("key")["n"].sum()


# A key is auto-salted when its build rows alone exceed a bucket's fair
# share of the exchange; the floor keeps tiny corpora unsalted (probe
# replication costs factor x rows on hot keys — pure overhead when every
# bucket fits a worker anyway).
AUTO_SALT_MIN = 256


def _hot_keys(build_enriched: ray.data.Dataset, threshold, n_buckets: int) -> dict:
    """Keys to salt: explicit ``threshold`` (int), or "auto" — derived
    from the same frequency pass as max(AUTO_SALT_MIN, total/n_buckets),
    i.e. a key hotter than one bucket's fair share of all key rows."""
    totals = _key_totals(build_enriched)
    if threshold == "auto":
        if not len(totals):
            return {}
        threshold = max(AUTO_SALT_MIN, int(totals.sum()) // n_buckets)
    return {k: int(n) for k, n in totals.items() if n > threshold}


def run_match_shuffle(
    probe_enriched: ray.data.Dataset,
    build_enriched: ray.data.Dataset,
    cfg: Optional[dict] = None,
    salt_threshold="auto",
    salt_factor: int = 8,
) -> ray.data.Dataset:
    """Enriched probe + build span Datasets -> match-result rows
    (schema identical to the broadcast ``match_batch_ref`` output).

    ``salt_threshold``: build-side key frequency above which a key is
    salted ``salt_factor`` ways.  Default "auto" derives the threshold
    from the build-side frequency pass (a key hotter than one bucket's
    fair share, floored at ``AUTO_SALT_MIN``); an int pins it; None
    skips the frequency pass entirely."""
    cfg = dict(cfg or MATCHING)

    # each side is consumed by two branches (key-explode + seeds/fallback);
    # materialize the light enriched columns once so the upstream extraction
    # doesn't re-execute once per branch.  At 100 TB
    # this boundary is a checkpointed parquet/lance table instead.
    probe_enriched = probe_enriched.materialize()
    build_enriched = build_enriched.materialize()

    # J3 fallback: deterministic first-N build pages (sorted), broadcast once
    n_fb = cfg["fallback_candidates"]
    fb_rows = (
        build_enriched.select_columns(_CARRY[:3] + ["keywords", "dates", "amounts", "text_hash"])
        .sort(["doc_id", "offset"])
        .limit(n_fb)
        .take_all()
    )
    fallback_ref = ray.put(PageIndex.from_rows(fb_rows))

    hot = (
        _hot_keys(build_enriched, salt_threshold, n_buckets=64)
        if salt_threshold is not None
        else {}
    )
    keyed_p = probe_enriched.map_batches(
        lambda b: _explode_keys(b, "p", hot=hot, factor=salt_factor),
        batch_format="pyarrow",
    )
    keyed_b = build_enriched.map_batches(
        lambda b: _explode_keys(b, "b", hot=hot, factor=salt_factor),
        batch_format="pyarrow",
    )
    pairs = bucketed_map_groups(
        keyed_p.union(keyed_b), "key", _pairs_bucket, n_buckets=64
    )

    # seed rows guarantee every probe reaches scoring even with zero pairs
    def seeds(batch: pa.Table) -> pa.Table:
        df = _with_defaults(batch.to_pandas())[_CARRY].add_prefix("p_")
        rows = df.to_dict("records")
        for r in rows:
            for c in _CARRY:
                r[f"b_{c}"] = None
        return pa.Table.from_pylist(rows, schema=_PAIR_SCHEMA)

    seeded = probe_enriched.map_batches(seeds, batch_format="pyarrow")
    return bucketed_map_groups(
        pairs.union(seeded),
        ["p_doc_id", "p_offset"],
        _score_factory(cfg, fallback_ref),
        n_buckets=64,
    )
