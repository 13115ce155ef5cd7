"""Near-dup suite: planted-duplicate recall, shuffle-volume bounds, and
the subquadratic candidate-growth property of the LSH-blocked paths."""

import random

import numpy as np
import pandas as pd
import pytest
import ray
import ray.data

VOCAB = [f"tok{i}" for i in range(200)]


def _corpus(n_base: int, n_dups: int, seed: int = 5):
    """n_base random docs + n_dups near-copies of the first docs.

    Returns (DataFrame, planted) where planted = [(orig_id, dup_id)].
    """
    rng = random.Random(seed)
    rows, planted = [], []
    for i in range(n_base):
        words = [rng.choice(VOCAB) for _ in range(60)]
        rows.append({"doc_id": i, "text": " ".join(words)})
    for j in range(n_dups):
        src = rows[j]["text"].split()
        mutated = list(src)
        for _ in range(3):  # ~5% of words changed -> jaccard stays high
            mutated[rng.randrange(len(mutated))] = rng.choice(VOCAB)
        did = n_base + j
        rows.append({"doc_id": did, "text": " ".join(mutated)})
        planted.append((j, did))
    return pd.DataFrame(rows), planted


@pytest.mark.usefixtures("ray_session")
def test_minhash_lsh_recall_on_planted_dups():
    from pdf_ocr_comparison_tool_ray.stages.dedup import minhash_lsh_pairs

    df, planted = _corpus(40, 10)
    ds = ray.data.from_pandas(df).repartition(4)
    got = minhash_lsh_pairs(ds, threshold=0.5).to_pandas()
    pairs = set(zip(got["doc_a"], got["doc_b"]))
    for a, b in planted:
        assert (a, b) in pairs, f"planted near-dup ({a},{b}) missed"
    # estimates are signature Jaccard in [0, 1], above threshold
    assert (got["est_jaccard"] >= 0.5).all()


@pytest.mark.usefixtures("ray_session")
def test_minhash_band_table_carries_no_signature():
    """Round-2 verdict item 2: the banding shuffle input must be
    signature-free — >=10x fewer bytes than band rows that carry the
    64-perm signature."""
    import pyarrow as pa

    from pdf_ocr_comparison_tool_ray.stages.dedup import (
        NUM_BANDS,
        _bands_batch,
        minhash_signatures,
    )

    df, _ = _corpus(60, 0)
    ds = ray.data.from_pandas(df)
    sig_tbl = pa.Table.from_pandas(
        minhash_signatures(ds).to_pandas(), preserve_index=False
    )
    bands = _bands_batch(sig_tbl)
    assert "signature" not in bands.column_names
    assert len(bands) == len(sig_tbl) * NUM_BANDS
    # old shape = band rows each carrying the signature payload
    old_bytes = bands.nbytes + len(bands) * 64 * 8
    assert old_bytes > 10 * bands.nbytes


@pytest.mark.usefixtures("ray_session")
def test_ngram_jaccard_default_blocking_is_subquadratic():
    """Doubling the corpus (fixed near-dup rate) must ~double the LSH
    candidate set — not quadruple it like all-pairs would."""
    from pdf_ocr_comparison_tool_ray.stages.dedup import (
        _candidate_pairs,
        minhash_signatures,
    )

    def n_candidates(n_base):
        df, _ = _corpus(n_base, n_base // 4)
        sigs = minhash_signatures(ray.data.from_pandas(df), ngram=2)
        return _candidate_pairs(sigs).count(), len(df)

    c1, n1 = n_candidates(40)
    c2, n2 = n_candidates(80)
    allpairs_ratio = (n2 * (n2 - 1)) / (n1 * (n1 - 1))  # ~4x
    assert c1 >= 10  # the planted dups produce candidates at all
    assert c2 <= 3 * c1, (c1, c2)  # ~linear growth, far under the ~4x of all-pairs
    assert allpairs_ratio > 3.5


@pytest.mark.usefixtures("ray_session")
def test_ngram_jaccard_values_match_direct_computation():
    from pdf_ocr_comparison_tool_ray.functions.fingerprint import shingles
    from pdf_ocr_comparison_tool_ray.functions.tokenize import tokenize
    from pdf_ocr_comparison_tool_ray.stages.dedup import ngram_jaccard_pairs

    df, planted = _corpus(30, 8)
    ds = ray.data.from_pandas(df).repartition(3)
    got = ngram_jaccard_pairs(ds, ngram=2, threshold=0.5).to_pandas()
    by_pair = {(a, b): j for a, b, j in zip(got["doc_a"], got["doc_b"], got["jaccard"])}
    texts = dict(zip(df["doc_id"], df["text"]))
    for a, b in planted:
        assert (a, b) in by_pair, f"planted pair ({a},{b}) missed"
        sa = frozenset(shingles(tokenize(texts[a]), 2))
        sb = frozenset(shingles(tokenize(texts[b]), 2))
        expect = len(sa & sb) / len(sa | sb)
        assert by_pair[(a, b)] == pytest.approx(expect, abs=0)


@pytest.mark.usefixtures("ray_session")
def test_ngram_jaccard_explicit_group_col_parity():
    """The explicit-blocking path must equal brute-force all-pairs within
    each group."""
    from pdf_ocr_comparison_tool_ray.functions.fingerprint import shingles
    from pdf_ocr_comparison_tool_ray.functions.tokenize import tokenize
    from pdf_ocr_comparison_tool_ray.stages.dedup import ngram_jaccard_pairs

    df, _ = _corpus(24, 8)
    df["grp"] = df["doc_id"] % 4
    ds = ray.data.from_pandas(df).repartition(3)
    got = (
        ngram_jaccard_pairs(ds, group_col="grp", ngram=2, threshold=0.3)
        .to_pandas()
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )

    rows = []
    for _, g in df.groupby("grp"):
        recs = g.sort_values("doc_id").to_dict("records")
        sets = [frozenset(shingles(tokenize(r["text"]), 2)) for r in recs]
        for i in range(len(recs)):
            for j in range(i + 1, len(recs)):
                u = len(sets[i] | sets[j])
                s = (len(sets[i] & sets[j]) / u) if u else 0.0
                if s >= 0.3:
                    rows.append(
                        {"doc_a": recs[i]["doc_id"], "doc_b": recs[j]["doc_id"],
                         "jaccard": s}
                    )
    want = (
        pd.DataFrame(rows, columns=["doc_a", "doc_b", "jaccard"])
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )
    got = got.drop(columns=["grp"], errors="ignore")
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


@pytest.mark.usefixtures("ray_session")
def test_minhash_verification_routes_equivalent(monkeypatch):
    """Every route of minhash_lsh_pairs must be plan-invariant: the
    driver finish (whole signature table collected once), driver pairs
    verified by the co-partition joins (more distinct pairs than
    SMALL_CANDIDATES_MAX), the shuffle route with the driver small
    verification (broadcast semi-join + one vectorized pass) and with
    the co-partition joins, and the shuffle route taken from a signature
    table under the byte cap whose band pairs pass NUM_BANDS x
    SMALL_CANDIDATES_MAX (a near-dup clique).  They produce identical
    frames, dtypes included, on a planted corpus, one row, all-equal
    texts and an int32 doc_id.  The test corpora fit the driver, so the
    shuffle routes are forced by zeroing the byte cap, and the joins by
    lowering the candidate cap."""
    from pdf_ocr_comparison_tool_ray.stages import bucketed, dedup

    planted, _ = _corpus(40, 10, seed=9)
    corpora = {
        "planted": planted,
        "one_row": planted.head(1),
        "clique": pd.DataFrame(
            {"doc_id": np.arange(12, dtype=np.int64),
             "text": [planted["text"].iloc[0]] * 12}
        ),
        "int32": planted.astype({"doc_id": "int32"}),
    }
    cols = ["doc_a", "doc_b", "est_jaccard"]
    reached = set()
    for name, df in corpora.items():
        ds = ray.data.from_pandas(df).repartition(min(4, len(df)))
        sig = bucketed.collect_table(dedup.minhash_signatures(ds).materialize())
        bands = dedup._bands_batch(sig).to_pandas()
        n_pairs = len(dedup._pairs_bucket(bands))
        # the largest candidate cap that still sends the pairs to the joins
        over = n_pairs - 1
        routes = {
            "driver": {},
            "small_verify": {"DRIVER_MAX_BYTES": -1},
            "joined": {"DRIVER_MAX_BYTES": -1, "SMALL_CANDIDATES_MAX": -1},
            "over_cap": {"SMALL_CANDIDATES_MAX": over},
        }
        got = {}
        for route, caps in routes.items():
            calls = []
            with monkeypatch.context() as m:
                for attr, cap in caps.items():
                    m.setattr(bucketed if attr == "DRIVER_MAX_BYTES" else dedup,
                              attr, cap)
                for fn in ("_candidate_pairs", "_join_pair_column"):
                    m.setattr(dedup, fn, lambda *a, _f=getattr(dedup, fn),
                              _n=fn, **k: calls.append(_n) or _f(*a, **k))
                res = dedup.minhash_lsh_pairs(ds, threshold=0.5)
                out = res.to_pandas()
            # Ray Data keeps an empty result's schema, not its columns
            assert res.schema().names == cols, (name, route)
            if not len(out.columns):
                out = pd.DataFrame(
                    {"doc_a": pd.Series([], dtype=df["doc_id"].dtype),
                     "doc_b": pd.Series([], dtype=df["doc_id"].dtype),
                     "est_jaccard": pd.Series([], dtype="float64")}
                )
            got[route] = (
                out[cols].sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
            )
            shuffled = "_candidate_pairs" in calls
            joined = "_join_pair_column" in calls
            if route == "over_cap":
                # driver pairs unless their band pairs pass the byte-route cap
                band_cap = dedup._pairs_bucket(bands, dedup.NUM_BANDS * over)
                route += "/pairs" if band_cap is not None else "/bands"
                assert shuffled == (band_cap is None), (name, route)
                assert joined == bool(n_pairs), (name, route)
            else:
                assert shuffled == bool(caps), (name, route)
                assert joined == ("SMALL_CANDIDATES_MAX" in caps and bool(n_pairs)), (
                    name, route)
            reached.add(route)
        for route, frame in got.items():
            pd.testing.assert_frame_equal(frame, got["driver"], obj=f"{name}/{route}")
        assert got["driver"]["doc_a"].dtype == df["doc_id"].dtype, name
        if name in ("planted", "int32"):
            assert len(got["driver"]) >= 10  # the planted dups keep it non-vacuous
        if name == "clique":
            assert len(got["driver"]) == 66  # every pair of 12 equal texts
    # both over-cap branches ran: driver pairs to the joins (the planted
    # pairs share a few bands each) and the clique's band pairs past the cap
    assert {"over_cap/pairs", "over_cap/bands"} <= reached, reached


@pytest.mark.usefixtures("ray_session")
def test_ngram_verification_routes_equivalent(monkeypatch):
    """Same plan-invariance for the exact-Jaccard verification: text
    pull + driver pass vs two co-partition text joins."""
    from pdf_ocr_comparison_tool_ray.stages import dedup

    df, _ = _corpus(30, 8, seed=13)
    ds = ray.data.from_pandas(df).repartition(3)

    small = (
        dedup.ngram_jaccard_pairs(ds, ngram=2, threshold=0.5)
        .to_pandas()
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )
    monkeypatch.setattr(dedup, "NGRAM_SMALL_CANDIDATES_MAX", -1)
    # tier 2: broadcast hashed shingle arrays (touched docs under cap)
    broadcast = (
        dedup.ngram_jaccard_pairs(ds, ngram=2, threshold=0.5)
        .to_pandas()
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(broadcast[small.columns], small)
    # tier 3: both caps off -> two co-partition text joins
    monkeypatch.setattr(dedup, "VERIFY_BROADCAST_DOCS_MAX", -1)
    joined = (
        dedup.ngram_jaccard_pairs(ds, ngram=2, threshold=0.5)
        .to_pandas()
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(joined[small.columns], small)
    assert len(small) >= 8


@pytest.mark.usefixtures("ray_session")
def test_empty_pair_tables_keep_schema():
    """A corpus with zero near-dups must yield an EMPTY result with the
    declared columns — a fully-empty pair table produces zero blocks
    through the dedup shuffle and would otherwise lose its schema."""
    from pdf_ocr_comparison_tool_ray.pipelines.queries import (
        _schema_stable_pairs,
    )
    from pdf_ocr_comparison_tool_ray.stages.dedup import simhash_pairs

    df, _ = _corpus(20, 0, seed=21)  # no planted dups
    ds = ray.data.from_pandas(df).repartition(3)
    out = _schema_stable_pairs(
        simhash_pairs(ds, max_hamming=0),
        {"doc_a": "int64", "doc_b": "int64", "hamming": "int64"},
    )
    assert list(out.columns) == ["doc_a", "doc_b", "hamming"]
    assert len(out) == 0 and out["doc_a"].dtype == "int64"


@pytest.mark.usefixtures("ray_session")
def test_embedding_lsh_hot_bucket_guard():
    """A planted degenerate corpus — every embedding identical, so ALL
    rows land in one LSH bucket — must not go quadratic: with a cap of
    C the verify emits within-chunk pairs only, O(n*C) work, and every
    vector still surfaces in some pair (cluster+keep downstream retains
    <= ceil(n/C) representatives instead of n^2 pair explosion)."""
    from pdf_ocr_comparison_tool_ray.stages.dedup import embedding_dup_pairs

    n, cap = 2000, 128
    vec = np.ones(8) / np.sqrt(8)
    df = pd.DataFrame(
        {"vec_id": np.arange(n, dtype=np.int64), "embedding": [vec] * n}
    )
    ds = ray.data.from_pandas(df)
    pairs = embedding_dup_pairs(
        ds, threshold=0.95, n_planes=4, n_tables=1, hot_bucket_cap=cap
    ).to_pandas()
    # capped: chunks of 128 -> per-chunk C*(C-1)/2 pairs; uncapped would
    # be n*(n-1)/2 = ~2M rows (and an n^2 sims matrix)
    chunk_sizes = [cap] * (n // cap) + ([n % cap] if n % cap else [])
    expected = sum(c * (c - 1) // 2 for c in chunk_sizes)
    assert len(pairs) == expected
    assert expected < n * (n - 1) // 2 / 7
    # every vector appears in at least one pair (dedup keep still works)
    seen = set(pairs["vec_a"]) | set(pairs["vec_b"])
    assert seen == set(range(n))
    # buckets <= cap stay bit-exact: small distinct corpus, cap huge
    rng = np.random.RandomState(3)
    small = pd.DataFrame(
        {
            "vec_id": np.arange(40, dtype=np.int64),
            "embedding": [rng.normal(size=8) for _ in range(40)],
        }
    )
    a = embedding_dup_pairs(
        ray.data.from_pandas(small), threshold=0.5, n_planes=4, hot_bucket_cap=2048
    ).to_pandas().sort_values(["vec_a", "vec_b"]).reset_index(drop=True)
    b = embedding_dup_pairs(
        ray.data.from_pandas(small), threshold=0.5, n_planes=4,
        hot_bucket_cap=10**9
    ).to_pandas().sort_values(["vec_a", "vec_b"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def _emb_ds(vecs, ids):
    import pyarrow as pa

    t = pa.table(
        {
            "vec_id": pa.array(np.asarray(ids, dtype=np.int64)),
            "embedding": pa.array(
                [list(map(float, v)) for v in vecs],
                type=pa.list_(pa.float32()),
            ),
        }
    )
    return ray.data.from_arrow(t)


def test_semdedup_planted_duplicates():
    """Exact copies of base vectors land in the same cluster as their
    original and get dropped (dominance by the smaller vec_id); every
    base vector survives."""
    from pdf_ocr_comparison_tool_ray.stages.dedup import semdedup

    rng = np.random.RandomState(7)
    base = rng.normal(size=(50, 8))
    ids = list(range(50)) + [103, 107]
    vecs = list(base) + [base[3], base[7]]
    out = (
        semdedup(_emb_ds(vecs, ids), n_clusters=4, threshold=0.95)
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    assert set(out["vec_id"]) == set(range(50))  # both copies dropped
    # sanity: threshold margin — no base pair is itself a near-dup
    unit = base / np.linalg.norm(base, axis=1, keepdims=True)
    sims = unit @ unit.T
    np.fill_diagonal(sims, 0.0)
    assert sims.max() < 0.95


def test_semdedup_hot_cluster_cap_linear_and_exact():
    """Degenerate all-identical corpus: every vector joins one cluster;
    with cap C the dominance check chunks by C, keeping exactly one
    representative per chunk (O(n*C), never an n^2 sims matrix).
    Sub-cap corpora are bit-exact vs an effectively-uncapped run."""
    from pdf_ocr_comparison_tool_ray.stages.dedup import semdedup

    n, cap = 2000, 128
    vec = np.ones(8) / np.sqrt(8)
    out = semdedup(
        _emb_ds([vec] * n, range(n)),
        n_clusters=4,
        threshold=0.95,
        hot_cluster_cap=cap,
    ).to_pandas()
    assert len(out) == -(-n // cap)  # one survivor per cap-chunk
    assert set(out["vec_id"]) == set(range(0, n, cap))

    rng = np.random.RandomState(11)
    small_vecs = rng.normal(size=(60, 8))
    a = (
        semdedup(_emb_ds(small_vecs, range(60)), n_clusters=4,
                 threshold=0.6, hot_cluster_cap=4096)
        .to_pandas().sort_values("vec_id").reset_index(drop=True)
    )
    b = (
        semdedup(_emb_ds(small_vecs, range(60)), n_clusters=4,
                 threshold=0.6, hot_cluster_cap=10**9)
        .to_pandas().sort_values("vec_id").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b)


def test_semdedup_driver_clusters_below_cap():
    """The driver corpora must sit in the bit-exact sub-cap regime: no
    cluster at any test scale may exceed the default hot_cluster_cap.
    Replays the exposed query's ACTUAL parameters (K and the cap come
    from the source, not copies) so a config bump re-arms the guard."""
    import inspect

    import pyarrow.parquet as pq

    from pdf_ocr_comparison_tool_ray.pipelines.queries import _SEMDEDUP_K
    from pdf_ocr_comparison_tool_ray.stages.dedup import semdedup

    cap = inspect.signature(semdedup).parameters["hot_cluster_cap"].default
    for sf in ("sf0.001", "sf0.01", "sf0.1"):
        t = pq.read_table(f"/root/testdata/{sf}/embeddings.parquet")
        vid = np.array(t["vec_id"])
        V = np.stack(t["embedding"].to_pylist()).astype(np.float64)
        order = np.argsort(vid)
        V = V[order]
        unit = V / np.linalg.norm(V, axis=1, keepdims=True)
        cent = unit[:_SEMDEDUP_K]
        cid = (unit @ cent.T).argmax(axis=1)
        assert np.bincount(cid, minlength=_SEMDEDUP_K).max() <= cap


def test_semdedup_lloyd_iterations_recover_planted_blobs():
    """Two orthogonal direction blobs with BOTH init centroids planted
    inside blob A (the 2 smallest vec_ids): the zero-iteration
    assignment cannot separate the blobs, spherical k-means iterations
    must — each blob lands wholly in its own cluster and the kept sets
    of further iterations are a fixpoint."""
    from pdf_ocr_comparison_tool_ray.stages.dedup import semdedup

    rng = np.random.RandomState(3)
    d = 8
    e0 = np.eye(d)[0]
    e1 = np.eye(d)[1]
    # ids 0,1 (the init centroids) are e0 +- a small e1 tilt; the rest
    # of blob A hugs e0, blob B hugs the orthogonal e1
    blob_a = [e0 + 0.02 * e1, e0 - 0.02 * e1] + [
        e0 + 0.01 * rng.normal(size=d) for _ in range(38)
    ]
    blob_b = [e1 + 0.01 * rng.normal(size=d) for _ in range(40)]
    ids = list(range(40)) + list(range(100, 140))
    ds = _emb_ds(blob_a + blob_b, ids)

    def clusters(iters):
        out = semdedup(
            _emb_ds(blob_a + blob_b, ids),
            n_clusters=2,
            threshold=1.1,  # cosine <= 1: nothing dominates, isolate clustering
            lloyd_iters=iters,
        ).to_pandas()
        return {int(r.vec_id): int(r.cluster_id) for r in out.itertuples()}

    c0 = clusters(0)
    a_ids, b_ids = set(range(40)), set(range(100, 140))
    # init centroids both sit in blob A -> iteration 0 cannot put the
    # two blobs in two different clusters
    blobs_split0 = (
        len({c0[i] for i in a_ids}) == 1
        and len({c0[i] for i in b_ids}) == 1
        and {c0[i] for i in a_ids} != {c0[i] for i in b_ids}
    )
    assert not blobs_split0
    c3 = clusters(3)
    assert len({c3[i] for i in a_ids}) == 1
    assert len({c3[i] for i in b_ids}) == 1
    assert {c3[i] for i in a_ids} != {c3[i] for i in b_ids}
    # fixpoint: more iterations change nothing once converged
    assert clusters(6) == c3
