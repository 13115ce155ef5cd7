"""Edge-semantics unit tests for the round-5 operators on planted
corpora: ExactSubstr coverage rules (cross-doc span, self-repetition,
short docs, interval merging) against an independent brute-force
reimplementation, and mix-weight resampling against the threshold spec
recomputed from scratch."""

import hashlib

import pandas as pd
import pytest

from pdf_ocr_comparison_tool_ray.pipelines.queries import (
    _EXACTSUBSTR_K,
    q_exactsubstr_dedup,
    q_mix_resample,
)


def _write_docs(tmp_path, rows):
    pd.DataFrame(rows).to_parquet(tmp_path / "documents.parquet")
    return str(tmp_path)


def _brute_exactsubstr(texts: dict, k: int) -> dict:
    """Independent O(total^2-ish) reimplementation of the spec: remove
    every char covered by a length-k window occurring >= 2 times."""
    from collections import Counter

    counts = Counter()
    for t in texts.values():
        for i in range(len(t) - k + 1):
            counts[t[i : i + k]] += 1
    out = {}
    for did, t in texts.items():
        covered = [False] * len(t)
        for i in range(len(t) - k + 1):
            if counts[t[i : i + k]] >= 2:
                for p in range(i, i + k):
                    covered[p] = True
        kept = "".join(c for c, m in zip(t, covered) if not m)
        out[did] = (sum(covered), hashlib.md5(kept.encode()).hexdigest())
    return out


@pytest.mark.usefixtures("ray_session")
def test_exactsubstr_planted_corpus(tmp_path):
    k = _EXACTSUBSTR_K
    shared = "".join(chr(ord("a") + (i * 7) % 26) for i in range(k + 20))
    rep = "".join(chr(ord("m") + (i * 5) % 13) for i in range(k))
    texts = {
        1: "unique-prefix-one " + shared + " unique-suffix-one",
        2: "other-lead " + shared + " other-tail",
        3: "entirely distinct text with no duplicated windows at all "
           "and padded out to be comfortably longer than the window",
        4: rep + " middle filler between the copies " + rep,
        5: "short doc under k",
    }
    rows = [{"doc_id": d, "text": t} for d, t in texts.items()]
    out = (
        q_exactsubstr_dedup(_write_docs(tmp_path, rows))
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    expect = _brute_exactsubstr(texts, k)
    assert len(out) == len(texts)
    for did, (removed, md5) in expect.items():
        assert out.loc[did, "removed_chars"] == removed, did
        assert out.loc[did, "kept_md5"] == md5, did
    # sanity on the plant itself: the shared span is cut from BOTH docs,
    # the self-repeated doc loses both copies, doc 3 and the short doc
    # lose nothing
    assert expect[1][0] >= len(shared) and expect[2][0] >= len(shared)
    assert expect[4][0] >= 2 * k
    assert expect[3][0] == 0 and expect[5][0] == 0


@pytest.mark.usefixtures("ray_session")
def test_exactsubstr_interval_merge_adjacent(tmp_path):
    # two dup windows k apart in one doc: covers touch ([p,p+k) and
    # [p+k,p+2k)) and must merge into one 2k cut, not overcount
    k = _EXACTSUBSTR_K
    blk_a = "".join(chr(ord("a") + (i * 3) % 26) for i in range(k))
    blk_b = "".join(chr(ord("b") + (i * 5) % 26) for i in range(k))
    texts = {
        1: blk_a + blk_b + " tail one xxxxxxxx",
        2: "lead two yyyyyyyy " + blk_a + blk_b,
    }
    rows = [{"doc_id": d, "text": t} for d, t in texts.items()]
    out = (
        q_exactsubstr_dedup(_write_docs(tmp_path, rows))
        .to_pandas()
        .set_index("doc_id")
    )
    expect = _brute_exactsubstr(texts, k)
    for did in texts:
        assert out.loc[did, "removed_chars"] == expect[did][0]
        assert out.loc[did, "kept_md5"] == expect[did][1]
    # the duplicated region is the full 2k block on both docs
    assert expect[1][0] == 2 * k


def _brute_mix_resample(df: pd.DataFrame) -> pd.DataFrame:
    """Threshold spec recomputed from scratch (mirrors the SQL)."""
    counts = df.groupby("source")["doc_id"].size()
    w = {s: (int(s[3:]) % 4) + 1 for s in counts.index}
    wsum = sum(w.values())
    target = min((int(n) * wsum) // w[s] for s, n in counts.items())
    cuts = {
        s: (w[s] * target * (1 << 64)) // (wsum * int(n))
        for s, n in counts.items()
    }
    u = df["doc_id"].map(
        lambda d: int.from_bytes(
            hashlib.md5(str(d).encode()).digest()[:8], "big"
        )
    )
    return df[u < df["source"].map(cuts)][["doc_id", "source"]]


@pytest.mark.usefixtures("ray_session")
def test_mix_resample_skewed_sources(tmp_path):
    # skewed corpus: src1 (w=2) has 300 docs, src2 (w=3) has 30, src3
    # (w=0+1=... src4 -> w=1) has 120
    rows = (
        [{"doc_id": i, "source": "src1"} for i in range(300)]
        + [{"doc_id": 1000 + i, "source": "src2"} for i in range(30)]
        + [{"doc_id": 2000 + i, "source": "src4"} for i in range(120)]
    )
    df = pd.DataFrame(rows)
    df.to_parquet(tmp_path / "documents.parquet")
    out = (
        q_mix_resample(str(tmp_path))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    expect = _brute_mix_resample(df).sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(out, expect)
    # the binding source (src2: 30 docs at weight 3) keeps ~all of its
    # rows; the others are downsampled toward the 2:3:1 target mix
    kept = out.groupby("source").size()
    assert kept["src2"] >= 25
    assert kept["src1"] < 300 and kept["src4"] < 120
    # every kept row is an input row
    assert set(out["doc_id"]).issubset(set(df["doc_id"]))


@pytest.mark.usefixtures("ray_session")
def test_exactsubstr_intermediate_volumes_linear(tmp_path):
    # scale evidence: the shuffled window table is exactly linear in
    # corpus chars (sum of len-k+1 per doc) and the dup-position table
    # contains ONLY the planted duplicates — no all-pairs blow-up.
    import numpy as np
    import ray.data

    from pdf_ocr_comparison_tool_ray.stages.bucketed import (
        bucketed_map_groups,
    )
    from pdf_ocr_comparison_tool_ray.stages.exactsubstr import (
        dup_positions_bucket,
        window_hash_batch,
    )

    k = _EXACTSUBSTR_K
    rng = np.random.default_rng(7)
    alpha = [chr(ord("a") + i) for i in range(26)]
    shared = "".join(rng.choice(alpha, size=k).tolist())
    n_docs, n_planted = 120, 8
    texts = {}
    for d in range(n_docs):
        body = "".join(rng.choice(alpha, size=260).tolist())
        # random 260-char strings over 26 letters never repeat a
        # 48-window by chance; docs 0..n_planted-1 carry the shared one.
        # Planted bodies get a DISTINCT leading char so the boundary
        # windows (shared[i:] + body[:i]) can't duplicate across plants
        # — only the pos-0 window is shared.
        if d < n_planted:
            texts[d] = shared + alpha[d] + body[1:]
        else:
            texts[d] = body
    rows = [{"doc_id": d, "text": t} for d, t in texts.items()]
    ds = ray.data.read_parquet(_write_docs(tmp_path, rows) + "/documents.parquet")

    windows = ds.map_batches(
        lambda b: window_hash_batch(b, k), batch_format="pyarrow"
    ).materialize()
    expected_windows = sum(len(t) - k + 1 for t in texts.values())
    assert windows.count() == expected_windows  # linear, no expansion

    dup = bucketed_map_groups(
        windows, "h1", dup_positions_bucket, n_buckets=16
    ).to_pandas()
    # every duplicated position belongs to a planted doc's shared prefix
    assert len(dup) == n_planted  # one window occurrence per planted doc
    assert set(dup["doc_id"]) == set(range(n_planted))
    assert (dup["pos"] == 0).all()


@pytest.mark.usefixtures("ray_session")
def test_exactsubstr_routes_equivalent(tmp_path):
    """The size-routed plans (broadcast dup-key set vs full
    co-partition) must both match the brute-force spec bit-for-bit —
    the route is forced each way via broadcast_cap."""
    import ray.data

    from pdf_ocr_comparison_tool_ray.stages.exactsubstr import (
        exactsubstr_dedup,
    )

    k = _EXACTSUBSTR_K
    shared = "".join(chr(ord("a") + (i * 11) % 26) for i in range(k + 7))
    texts = {
        1: "lead-one " + shared + " tail-one",
        2: "lead-two-longer " + shared + " tail-two",
        3: shared,  # exactly the shared span, no padding
        4: "no duplicated windows here, padded well past the window "
           "length with distinct filler text so nothing matches",
        5: "tiny",
    }
    rows = [{"doc_id": d, "text": t} for d, t in texts.items()]
    path = _write_docs(tmp_path, rows) + "/documents.parquet"
    expect = _brute_exactsubstr(texts, k)

    for cap in (0, 10_000_000):  # 0 forces co-partition, big forces broadcast
        ds = ray.data.read_parquet(path)
        out = (
            exactsubstr_dedup(ds, k=k, n_buckets=8, broadcast_cap=cap)
            .to_pandas()
            .set_index("doc_id")
        )
        assert len(out) == len(texts), cap
        for did, (removed, md5) in expect.items():
            assert out.loc[did, "removed_chars"] == removed, (cap, did)
            assert out.loc[did, "kept_md5"] == md5, (cap, did)


# ---------------------------------------------------------------------------
# late-round-5 ops: repetition stats, frame sampling, sharded shuffle
# ---------------------------------------------------------------------------
def _brute_repetition(text: str):
    """Structurally independent replay of the spec: re.split tokenizer
    (not findall), O(n^2) pairwise occurrence counting (no Counter/zip),
    explicit max loop.  The DuckDB oracle remains the primary
    independent cross-check of the math."""
    import re

    toks = [t for t in re.split(r"[^a-z0-9]+", text.lower()) if t]
    n = len(toks)
    distinct = []
    for t in toks:
        if t not in distinct:
            distinct.append(t)
    total = 0
    for t in toks:
        total += len(t)
    cov = 0
    for i in range(n - 1):
        occurrences = 0
        for j in range(n - 1):
            if toks[j] == toks[i] and toks[j + 1] == toks[i + 1]:
                occurrences += 1
        mass = occurrences * (len(toks[i]) + len(toks[i + 1]))
        if mass > cov:
            cov = mass
    return (
        n,
        len(distinct),
        (n - len(distinct)) / n if n else 0.0,
        cov / total if total else 0.0,
    )


@pytest.mark.usefixtures("ray_session")
def test_doc_repetition_stats_planted(tmp_path):
    from pdf_ocr_comparison_tool_ray.pipelines.queries import (
        q_doc_repetition_stats,
    )

    texts = {
        1: "spam spam spam spam",          # degenerate repetition
        # all-distinct words, long enough that one 2-gram occurrence is a
        # small char fraction (a 4-word doc would read "repetitive":
        # the max-gram metric needs volume to discriminate, like Gopher's)
        2: " ".join(f"w{i:03d}" for i in range(60)),
        3: "solo",                         # one word: no 2-grams
        4: "",                             # empty text
        5: "ab ab cd ab ab",               # top gram (ab,ab) overlapping runs
    }
    rows = [{"doc_id": d, "text": t} for d, t in texts.items()]
    out = (
        q_doc_repetition_stats(_write_docs(tmp_path, rows))
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    assert len(out) == len(texts)
    for did, t in texts.items():
        n, d, dup, top2 = _brute_repetition(t)
        r = out.loc[did]
        assert r["n_words"] == n and r["n_distinct_words"] == d, did
        assert r["dup_word_frac"] == pytest.approx(dup, abs=0), did
        assert r["top2gram_char_frac"] == pytest.approx(top2, abs=0), did
    # overlapping occurrences make the spam doc's ratio exceed 1 — the
    # signal is a filter score, not a probability
    assert out.loc[1, "top2gram_char_frac"] > 1.0
    assert bool(out.loc[1, "repetitive"]) and not bool(out.loc[2, "repetitive"])
    assert out.loc[4, "n_words"] == 0 and out.loc[4, "dup_word_frac"] == 0.0


@pytest.mark.usefixtures("ray_session")
def test_frame_sample_roundtrip(tmp_path):
    import numpy as np

    from pdf_ocr_comparison_tool_ray.pipelines.queries import q_frame_sample

    texts = {
        2: "the quick brown fox jumps over the lazy dog repeatedly " * 4,
        5: "another video document with its own distinct byte stream " * 4,
        1: "audio doc must not appear in the frame output " * 4,
        3: "image doc must not appear either " * 4,
    }
    rows = [{"doc_id": d, "text": t} for d, t in texts.items()]
    out = q_frame_sample(_write_docs(tmp_path, rows)).to_pandas()
    # only video docs (doc_id % 3 == 2), stride-2 of 8 frames each
    assert set(out["media_id"]) == {"2", "5"}
    for mid in ("2", "5"):
        sub = out[out["media_id"] == mid].sort_values("frame_idx")
        assert list(sub["frame_idx"]) == [0, 2, 4, 6]
        raw = np.frombuffer(
            texts[int(mid)].encode()[:4096].ljust(16, b"\0"), dtype=np.uint8
        )
        flat = np.resize(raw, 2048).astype(np.int64)
        for fi, bs, ml in zip(sub["frame_idx"], sub["byte_sum"], sub["mean_luma"]):
            expect = int(flat[fi * 256 : (fi + 1) * 256].sum())
            assert bs == expect and ml == expect / 256.0


@pytest.mark.usefixtures("ray_session")
def test_shuffle_shards_total_order(tmp_path):
    from pdf_ocr_comparison_tool_ray.pipelines.queries import (
        _SHUFFLE_N_SHARDS,
        q_shuffle_shards,
    )

    ids = list(range(200))
    rows = [{"doc_id": d, "text": f"doc {d}"} for d in ids]
    out = q_shuffle_shards(_write_docs(tmp_path, rows)).to_pandas()
    assert sorted(out["doc_id"]) == ids  # a permutation: nothing lost
    hexes = {d: hashlib.md5(str(d).encode()).hexdigest() for d in ids}
    for d, shard in zip(out["doc_id"], out["shard"]):
        assert shard == int(hexes[d][:8], 16) % _SHUFFLE_N_SHARDS
    for shard, grp in out.groupby("shard"):
        grp = grp.sort_values("pos")
        assert list(grp["pos"]) == list(range(len(grp)))  # dense ranks
        hx = [hexes[d] for d in grp["doc_id"]]
        assert hx == sorted(hx)  # pos follows md5 order


@pytest.mark.usefixtures("ray_session")
def test_resize_digest_matches_manual_subsample(tmp_path):
    import numpy as np

    from pdf_ocr_comparison_tool_ray.pipelines.queries import q_resize_digest

    texts = {
        0: "an image document with a distinctive byte pattern " * 6,
        3: "another image document with different content entirely " * 6,
        1: "audio doc must not appear " * 6,
        2: "video doc must not appear " * 6,
    }
    rows = [{"doc_id": d, "text": t} for d, t in texts.items()]
    out = q_resize_digest(_write_docs(tmp_path, rows)).to_pandas()
    assert set(out["media_id"]) == {"0", "3"}
    for mid in ("0", "3"):
        raw = np.frombuffer(
            texts[int(mid)].encode()[:4096].ljust(16, b"\0"), dtype=np.uint8
        )
        img = np.resize(raw, (16, 16, 3))
        small = img[np.ix_(np.arange(8) * 2, np.arange(8) * 2)]
        flat = small.astype(np.int64).ravel()
        r = out[out["media_id"] == mid].iloc[0]
        assert r["byte_sum"] == flat.sum()
        assert r["pos_weighted_sum"] == (np.arange(flat.size) * flat).sum()


@pytest.mark.usefixtures("ray_session")
def test_dsir_select_prefers_target_like_docs(tmp_path):
    """Planted corpus: 'en' docs share a distinctive bigram vocabulary;
    non-target docs either share it (target-LIKE) or don't.  DSIR must
    rank the target-like raw docs above the dissimilar ones, and the
    selection must be deterministic across runs."""
    from pdf_ocr_comparison_tool_ray.pipelines.queries import (
        _DSIR_K,
        q_dsir_select,
    )

    en_text = "alpha beta gamma delta " * 10
    like_text = "alpha beta gamma delta " * 10 + "epsilon"
    unlike_text = "zig zag zog zug " * 10
    rows = (
        [{"doc_id": i, "text": en_text, "lang": "en"} for i in range(40)]
        + [
            {"doc_id": 100 + i, "text": like_text, "lang": "de"}
            for i in range(10)
        ]
        + [
            {"doc_id": 200 + i, "text": unlike_text, "lang": "de"}
            for i in range(200)
        ]
    )
    sf = _write_docs(tmp_path, rows)
    out = q_dsir_select(sf)
    assert len(out) == min(_DSIR_K, 250)
    selected = set(out["doc_id"])
    # all target docs and all target-LIKE docs selected; the unlike
    # bulk fills at most the remaining slots
    assert set(range(40)) <= selected
    assert {100 + i for i in range(10)} <= selected
    # target-like docs outrank every unlike doc
    ranks = {d: r for r, d in enumerate(out["doc_id"])}
    assert max(ranks[d] for d in range(40)) < min(
        ranks[d] for d in selected if d >= 200
    )
    out2 = q_dsir_select(sf)
    pd.testing.assert_frame_equal(out, out2)


@pytest.mark.usefixtures("ray_session")
def test_dsir_resample_gumbel_properties(tmp_path):
    """The Gumbel-top-k variant must (a) be deterministic, (b) share the
    fit+score machinery (same registry of scored docs), and (c) still
    skew target-ward while sampling — on a corpus where targets hold a
    big weight edge, most (but not necessarily all) picks are target."""
    from pdf_ocr_comparison_tool_ray.pipelines.queries import (
        q_dsir_resample,
        q_dsir_select,
    )

    en_text = "alpha beta gamma delta " * 10
    unlike_text = "zig zag zog zug " * 10
    rows = [{"doc_id": i, "text": en_text, "lang": "en"} for i in range(150)] + [
        {"doc_id": 1000 + i, "text": unlike_text, "lang": "de"}
        for i in range(150)
    ]
    sf = _write_docs(tmp_path, rows)
    a = q_dsir_resample(sf)
    b = q_dsir_resample(sf)
    pd.testing.assert_frame_equal(a, b)
    n_target = (a["doc_id"] < 1000).sum()
    assert n_target > 60  # weight edge dominates the Gumbel noise
    # the deterministic top-k picks ONLY targets here; Gumbel sampling
    # is allowed to (and with 150/150 odds will) differ from it
    det = q_dsir_select(sf)
    assert (det["doc_id"] < 1000).all()


# ---------------------------------------------------------------------------
# BPE pair counts: iterated trainer pinned against an independent
# brute-force reimplementation (the exposed oracle pins merge_iters=0)
# ---------------------------------------------------------------------------
def _brute_bpe(texts, merge_iters, topk):
    """Independent brute-force BPE trainer: whole-corpus symbol
    sequences held in memory, no memoization, regex-free index loop."""
    from collections import Counter

    seqs = []
    for t in texts:
        for w in t.split(" "):
            if w:
                seqs.append(list(w) + ["</w>"])

    def count(seqs):
        c = Counter()
        for s in seqs:
            for i in range(len(s) - 1):
                c[(s[i], s[i + 1])] += 1
        return c

    for _ in range(merge_iters):
        c = count(seqs)
        best = min(c.items(), key=lambda kv: (-kv[1], kv[0][0], kv[0][1]))[0]
        a, b = best
        nxt = []
        for s in seqs:
            out, i = [], 0
            while i < len(s):
                if i + 1 < len(s) and s[i] == a and s[i + 1] == b:
                    out.append(a + b)
                    i += 2
                else:
                    out.append(s[i])
                    i += 1
            nxt.append(out)
        seqs = nxt
    final = count(seqs)
    rows = sorted(final.items(), key=lambda kv: (-kv[1], kv[0][0], kv[0][1]))
    return [(s1, s2, n) for (s1, s2), n in rows[:topk]]


def test_bpe_apply_merge_greedy_left_to_right():
    from pdf_ocr_comparison_tool_ray.pipelines.queries import _bpe_apply_merges

    # overlapping occurrences merge left-to-right, not nested
    assert _bpe_apply_merges(list("aaa") + ["</w>"], [("a", "a")]) == [
        "aa",
        "a",
        "</w>",
    ]
    # merges apply in training order; later merges see earlier outputs
    assert _bpe_apply_merges(list("abab") + ["</w>"], [("a", "b"), ("ab", "ab")]) == [
        "abab",
        "</w>",
    ]


@pytest.mark.usefixtures("ray_session")
def test_bpe_pair_counts_iterated_matches_bruteforce(tmp_path):
    from pdf_ocr_comparison_tool_ray.pipelines.queries import q_bpe_pair_counts

    texts = [
        "the their there then the the",
        "than that the thin thing",
        "other ether the there",
    ]
    rows = [{"doc_id": i, "text": t} for i, t in enumerate(texts)]
    sf = _write_docs(tmp_path, rows)
    for iters in (0, 3):
        got = q_bpe_pair_counts(sf, merge_iters=iters, topk=10)
        want = pd.DataFrame(
            _brute_bpe(texts, iters, 10), columns=["s1", "s2", "pair_count"]
        )
        pd.testing.assert_frame_equal(
            got.reset_index(drop=True).astype({"pair_count": "int64"}), want
        )
    # after a few rounds merged multi-char symbols must dominate the top
    # pairs, proving the merges feed the next round's counts
    deep = q_bpe_pair_counts(sf, merge_iters=4, topk=10)
    assert (deep["s1"].str.len() > 1).any()
    want = pd.DataFrame(
        _brute_bpe(texts, 4, 10), columns=["s1", "s2", "pair_count"]
    )
    pd.testing.assert_frame_equal(
        deep.reset_index(drop=True).astype({"pair_count": "int64"}), want
    )


# ---------------------------------------------------------------------------
# decontam_frac: planted eval overlap, clean docs, and the zero-gram
# (shorter-than-K) edge
# ---------------------------------------------------------------------------
@pytest.mark.usefixtures("ray_session")
def test_decontam_frac_planted(tmp_path):
    from pdf_ocr_comparison_tool_ray.pipelines.queries import q_decontam_frac

    eval_text = "alpha beta gamma delta epsilon zeta eta theta"
    rows = [
        {"doc_id": 0, "text": eval_text},  # eval doc (id < 10)
        # copies a 5-token run of the eval doc inside fresh context:
        # 5 overlapping tokens -> 2 contaminated 4-grams out of 7
        {"doc_id": 10, "text": "one two beta gamma delta epsilon zeta x y z"},
        {"doc_id": 11, "text": "wholly unrelated words only here today now"},
        {"doc_id": 12, "text": "too short"},  # < K tokens -> zero grams
    ]
    out = q_decontam_frac(_write_docs(tmp_path, rows)).to_pandas()
    out = out.set_index("doc_id").sort_index()
    assert list(out.index) == [10, 11, 12]
    assert out.loc[10, "n_grams"] == 7
    assert out.loc[10, "n_contaminated"] == 2
    assert out.loc[10, "contam_frac"] == pytest.approx(2 / 7)
    assert not out.loc[10, "keep"]  # 2/7 > 0.05
    assert out.loc[11, "n_contaminated"] == 0
    assert out.loc[11, "keep"]
    assert out.loc[12, "n_grams"] == 0
    assert out.loc[12, "contam_frac"] == 0.0
    assert out.loc[12, "keep"]


# ---------------------------------------------------------------------------
# near_dedup_keep_best: quality-aware winner vs the canonical minimum
# ---------------------------------------------------------------------------
@pytest.mark.usefixtures("ray_session")
def test_near_dedup_keep_best_planted(tmp_path):
    from pdf_ocr_comparison_tool_ray.pipelines.queries import (
        q_near_dedup_keep_best,
    )

    base = "alpha beta gamma delta epsilon zeta eta theta iota kappa " * 3
    other = "omicron sigma tau upsilon phi chi psi omega rho pi " * 3
    rows = [
        # near-dup cluster {1,2,3}: 3 is the LONGEST (not the min id)
        {"doc_id": 1, "text": base},
        {"doc_id": 2, "text": base},
        {"doc_id": 3, "text": base + "plus a few extra trailing words"},
        # tie cluster {4,5}: equal length -> min doc_id wins
        {"doc_id": 4, "text": other},
        {"doc_id": 5, "text": other},
        # unclustered doc survives untouched
        {"doc_id": 9, "text": "wholly unrelated content sits alone here"},
    ]
    for r in rows:
        r["n_chars"] = len(r["text"])
    out = q_near_dedup_keep_best(_write_docs(tmp_path, rows)).to_pandas()
    kept = set(out["doc_id"])
    assert kept == {"3", "4", "9"}
    # quality column rides through for the kept rows
    got = dict(zip(out["doc_id"], out["n_chars"]))
    assert got["3"] == len(rows[2]["text"])


@pytest.mark.usefixtures("ray_session")
def test_near_dedup_keep_best_route_equivalence(tmp_path):
    """The broadcast route (member set fits the driver — the default
    regime) and the co-partition route (forced with broadcast_cap=-1)
    must pick identical survivors, including the max_rounds/duplicate-
    membership tie rule."""
    import ray.data

    from pdf_ocr_comparison_tool_ray.stages.concomp import dedup_keep_best

    docs = pd.DataFrame(
        {
            "doc_id": [str(i) for i in range(1, 9)],
            "n_chars": [10, 30, 30, 5, 50, 50, 7, 2],
        }
    )
    # clusters {1,2,3} (winner 2: max quality, tie to smaller id than 3),
    # {5,6} (winner 5 by id tie), 4/7/8 unclustered
    pairs = pd.DataFrame(
        {"doc_a": ["1", "2", "5"], "doc_b": ["2", "3", "6"]}
    )
    outs = []
    for cap in (2_000_000, -1):
        kept = dedup_keep_best(
            ray.data.from_pandas(docs),
            ray.data.from_pandas(pairs),
            broadcast_cap=cap,
        ).to_pandas()
        outs.append(
            kept.sort_values("doc_id").reset_index(drop=True)[
                ["doc_id", "quality"]
            ]
        )
    pd.testing.assert_frame_equal(outs[0], outs[1])
    assert set(outs[0]["doc_id"]) == {"2", "4", "5", "7", "8"}


@pytest.mark.usefixtures("ray_session")
def test_near_dedup_keep_best_no_pairs(tmp_path):
    """A corpus with zero near-dup pairs (empty member dataset through
    the union-tag shuffle) must keep every doc — the empty-block schema
    path has bitten before."""
    from pdf_ocr_comparison_tool_ray.pipelines.queries import (
        q_near_dedup_keep_best,
    )

    rows = [
        {"doc_id": i, "text": f"totally distinct content number {i} "
                              f"{'xyz'[i % 3] * (i + 3)} words vary"}
        for i in range(6)
    ]
    for r in rows:
        r["n_chars"] = len(r["text"])
    out = q_near_dedup_keep_best(_write_docs(tmp_path, rows)).to_pandas()
    assert set(out["doc_id"]) == {str(i) for i in range(6)}


@pytest.mark.usefixtures("ray_session")
def test_boilerplate_strip_removes_all_occurrences(tmp_path):
    """CCNet-style semantics: a chunk shared by >=2 distinct docs is
    dropped from EVERY doc (including the first occurrence) — the
    remove-all complement of paragraph_dedup's keep-first, asserted
    side by side on the same planted corpus."""
    from pdf_ocr_comparison_tool_ray.pipelines.queries import (
        q_boilerplate_strip,
        q_paragraph_dedup,
    )

    w = [f"w{i:02d}" for i in range(36)]
    footer = " ".join(w[:12])      # the shared 12-word page
    uniq1 = " ".join(w[12:24])
    uniq2 = " ".join(w[24:36])
    rows = [
        {"doc_id": 1, "text": uniq1 + " " + footer},
        {"doc_id": 2, "text": uniq2 + " " + footer},
        {"doc_id": 3, "text": footer},                 # all-boilerplate doc
        {"doc_id": 4, "text": uniq1},                  # uniq1 now df=2 too!
    ]
    out = q_boilerplate_strip(_write_docs(tmp_path, rows)).to_pandas()
    got = out.set_index("doc_id")
    # footer df=3 and uniq1 df=2 are boilerplate; uniq2 df=1 survives
    assert set(got.index) == {"2"}
    assert got.loc["2", "text"] == uniq2
    assert got.loc["2", "n_kept"] == 1 and got.loc["2", "n_dropped"] == 1

    # paragraph_dedup on the same corpus keeps FIRST occurrences instead
    pd_out = q_paragraph_dedup(str(tmp_path)).to_pandas().set_index("doc_id")
    assert set(pd_out.index) == {"1", "2"}
    assert pd_out.loc["1", "text"] == uniq1 + " " + footer
    assert pd_out.loc["2", "text"] == uniq2


@pytest.mark.usefixtures("ray_session")
def test_boilerplate_strip_all_duplicated_corpus(tmp_path):
    """A fully-duplicated corpus drops every doc; the result must keep
    its 4-column schema (zero blocks lose the pandas schema through
    to_pandas — found by review, the _schema_stable_pairs lesson)."""
    from pdf_ocr_comparison_tool_ray.pipelines.queries import (
        q_boilerplate_strip,
    )

    rows = [{"doc_id": i, "text": "alpha beta gamma delta"} for i in range(4)]
    out = q_boilerplate_strip(_write_docs(tmp_path, rows))
    df = out if isinstance(out, pd.DataFrame) else out.to_pandas()
    assert list(df.columns) == ["doc_id", "n_kept", "n_dropped", "text"]
    assert len(df) == 0


# ---------------------------------------------------------------------------
# token_budget_select: data-budget cut with exact boundary resolution
# ---------------------------------------------------------------------------
@pytest.mark.usefixtures("ray_session")
def test_token_budget_select_boundary(tmp_path):
    """The keep rule is the SQL window SUM(n_tokens) OVER (ORDER BY
    n_chars DESC, doc_id) <= total//2 — pinned on a corpus where the
    budget runs out INSIDE a tie group, so the per-doc boundary
    resolution (doc_id order within the s* score) is what decides."""
    from pdf_ocr_comparison_tool_ray.pipelines.queries import (
        q_token_budget_select,
    )

    def text_of(n):  # exactly n [A-Za-z0-9]+ tokens
        return " ".join(f"w{i}" for i in range(n))

    # (doc_id, n_chars, n_tokens): three docs TIE at n_chars=50 where
    # the budget boundary lands
    spec = [
        (1, 90, 10),   # kept: run 10
        (2, 50, 12),   # tie group, doc order 2,5,7: run 22 <= 26 kept
        (5, 50, 4),    # run 26 <= 26 kept (exact-equality edge)
        (7, 50, 9),    # run 35 > 26 dropped
        (3, 40, 8),    # after the crossing: dropped
        (4, 30, 9),    # dropped
    ]
    # total 52 -> budget 26
    rows = [
        {"doc_id": d, "text": text_of(t), "n_chars": c} for d, c, t in spec
    ]
    out = q_token_budget_select(_write_docs(tmp_path, rows)).to_pandas()
    got = sorted(out["doc_id"].tolist())
    assert got == [1, 2, 5]
    assert dict(zip(out["doc_id"], out["n_tokens"])) == {1: 10, 2: 12, 5: 4}


@pytest.mark.usefixtures("ray_session")
def test_token_budget_select_everything_fits(tmp_path):
    """A one-doc corpus: budget = total//2 < its tokens, so NOTHING is
    kept (the boundary group keeps zero members) — and the empty result
    stays schema-stable."""
    from pdf_ocr_comparison_tool_ray.pipelines.queries import (
        q_token_budget_select,
    )

    rows = [{"doc_id": 1, "text": "a b c d e", "n_chars": 9}]
    out = q_token_budget_select(_write_docs(tmp_path, rows))
    assert isinstance(out, pd.DataFrame)  # typed empty frame, not a Dataset
    assert len(out) == 0
    assert list(out.columns) == ["doc_id", "n_chars", "n_tokens"]


@pytest.mark.usefixtures("ray_session")
def test_quality_quantile_filter_interpolated_thresholds(tmp_path):
    """Per-language P25 with quantile_cont interpolation: en lands
    exactly on a value (n=5, p=1.0 -> thr=20, kept inclusive), fr
    interpolates between ranks (n=4, p=0.75 -> thr=17.5) — thresholds
    are independent per language."""
    from pdf_ocr_comparison_tool_ray.pipelines.queries import (
        q_quality_quantile_filter,
    )

    rows = [
        {"doc_id": 10 + i, "lang": "en", "n_chars": c, "text": "x"}
        for i, c in enumerate([10, 20, 30, 40, 50])
    ] + [
        {"doc_id": 20 + i, "lang": "fr", "n_chars": c, "text": "x"}
        for i, c in enumerate([10, 20, 30, 40])
    ]
    out = q_quality_quantile_filter(_write_docs(tmp_path, rows)).to_pandas()
    kept = {(r.lang, r.n_chars) for r in out.itertuples()}
    assert kept == {
        ("en", 20), ("en", 30), ("en", 40), ("en", 50),
        ("fr", 20), ("fr", 30), ("fr", 40),
    }


@pytest.mark.usefixtures("ray_session")
def test_token_budget_select_boundary_cap_guard(tmp_path, monkeypatch):
    """A degenerate corpus where one score ties every doc must refuse
    (driver-side, BEFORE collecting the tie group) rather than pull an
    unbounded table."""
    from pdf_ocr_comparison_tool_ray.pipelines import queries as Q

    rows = [
        {"doc_id": i, "text": "a b c d", "n_chars": 77} for i in range(20)
    ]
    monkeypatch.setattr(Q, "_BUDGET_BOUNDARY_CAP", 10)
    with pytest.raises(ValueError, match="tie the boundary score"):
        Q.q_token_budget_select(_write_docs(tmp_path, rows))


# ---------------------------------------------------------------------------
# ingest_dedup: incremental new-vs-standing-corpus anti-join
# ---------------------------------------------------------------------------
@pytest.mark.usefixtures("ray_session")
def test_ingest_dedup_planted_and_route_equivalence(tmp_path, monkeypatch):
    """Odd (incoming) docs are admitted iff their content key is absent
    from the even (standing) half; the broadcast and bucketed anti-join
    routes pick identical survivors."""
    from pdf_ocr_comparison_tool_ray.pipelines import queries as Q
    from pdf_ocr_comparison_tool_ray.stages import bucketed

    rows = [
        # standing half (even ids)
        {"doc_id": 0, "text": "alpha beta shared standing body one"},
        {"doc_id": 2, "text": "gamma delta other standing body two"},
        # incoming half (odd ids)
        {"doc_id": 1, "text": "alpha beta same-key incoming duplicate"},  # dropped
        {"doc_id": 3, "text": "epsilon zeta genuinely new incoming"},     # admitted
        {"doc_id": 5, "text": "gamma delta another same-key arrival"},    # dropped
        {"doc_id": 7, "text": "eta theta also new"},                      # admitted
    ]
    sf = _write_docs(tmp_path, rows)
    broadcast = Q.q_ingest_dedup(sf).to_pandas()
    assert sorted(broadcast["doc_id"]) == [3, 7]
    # force the co-partition route
    monkeypatch.setattr(bucketed, "BROADCAST_MAX_ROWS", -1)
    copart = Q.q_ingest_dedup(sf).to_pandas()
    pd.testing.assert_frame_equal(
        broadcast.sort_values("doc_id").reset_index(drop=True),
        copart.sort_values("doc_id").reset_index(drop=True)[
            list(broadcast.columns)
        ],
    )


# ---------------------------------------------------------------------------
# perplexity_buckets: CCNet-style per-language head/middle/tail split
# ---------------------------------------------------------------------------
@pytest.mark.usefixtures("ray_session")
def test_perplexity_buckets_planted(tmp_path):
    """Buckets recompute exactly from an independent pandas cut of the
    scores; the most predictable doc lands in head, the gibberish one in
    tail, per-language independently; <2-token docs are excluded."""
    from pdf_ocr_comparison_tool_ray.pipelines.queries import (
        q_perplexity_buckets,
    )

    common = "the cat sat on the mat"
    rows = (
        [{"doc_id": i, "lang": "en", "text": common} for i in range(4)]
        + [
            {"doc_id": 4, "lang": "en", "text": "the cat sat on the rug"},
            {"doc_id": 5, "lang": "en", "text": "qzx wvu jkl mno pqr stu"},
            {"doc_id": 6, "lang": "en", "text": "the mat sat on a cat maybe"},
            {"doc_id": 7, "lang": "en", "text": "solo"},  # <2 tokens: excluded
        ]
        + [
            {"doc_id": 10 + i, "lang": "fr", "text": t}
            for i, t in enumerate(
                [
                    "le chien dort ici",
                    "le chien dort ici",
                    "le chien dort la bas",
                    "zyx abc def ghi jkl",
                ]
            )
        ]
    )
    out = q_perplexity_buckets(_write_docs(tmp_path, rows)).to_pandas()
    assert 7 not in set(out["doc_id"])
    # independent recompute of the cut from the op's own scores
    for lang, g in out.groupby("lang"):
        q25 = g["avg_nll"].quantile(0.25, interpolation="linear")
        q75 = g["avg_nll"].quantile(0.75, interpolation="linear")
        expect = g["avg_nll"].map(
            lambda s: "head" if s <= q25 else ("middle" if s <= q75 else "tail")
        )
        assert (expect == g["bucket"]).all(), lang
    en = out[out["lang"] == "en"].set_index("doc_id")
    assert en.loc[0, "bucket"] == "head"        # 4x-repeated phrase: most predictable
    assert en.loc[5, "bucket"] == "tail"        # unique gibberish: least predictable
    assert en.loc[5, "avg_nll"] == en["avg_nll"].max()
    fr = out[out["lang"] == "fr"].set_index("doc_id")
    assert fr.loc[13, "bucket"] == "tail"


@pytest.mark.usefixtures("ray_session")
def test_perplexity_buckets_single_lang_matches_bigram_logprob(tmp_path):
    """On a single-language corpus the per-language model degenerates to
    the global one, so the scores must equal q_bigram_logprob's avg_nll
    bit-for-bit (same fit, same 9-rounding)."""
    from pdf_ocr_comparison_tool_ray.pipelines.queries import (
        q_bigram_logprob,
        q_perplexity_buckets,
    )

    rows = [
        {"doc_id": i, "lang": "en", "text": t}
        for i, t in enumerate(
            [
                "alpha beta gamma delta alpha beta",
                "alpha beta alpha beta alpha beta",
                "gamma delta epsilon zeta eta theta",
                "one two three four five six seven",
                "alpha gamma beta delta epsilon one",
            ]
        )
    ]
    sf = _write_docs(tmp_path, rows)
    got = (
        q_perplexity_buckets(sf)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    ref = (
        q_bigram_logprob(sf)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert list(got["doc_id"]) == list(ref["doc_id"])
    assert (got["avg_nll"] == ref["avg_nll"]).all()


# ---------------------------------------------------------------------------
# approx_quantile_hist: mergeable histogram sketch, bounded error
# ---------------------------------------------------------------------------
def _write_events(tmp_path, values):
    pd.DataFrame({"value": values}).to_parquet(tmp_path / "events.parquet")
    return str(tmp_path)


@pytest.mark.usefixtures("ray_session")
def test_approx_quantile_hist_uniform_ramp_exact(tmp_path):
    """On a uniform integer ramp every bin is full and interpolation is
    exact: the estimate equals the true k-th order statistic."""
    import numpy as np

    from pdf_ocr_comparison_tool_ray.pipelines.queries import (
        _AQH_PCTS,
        q_approx_quantile_hist,
    )

    rng = np.random.default_rng(7)
    cents = np.arange(2560, dtype=np.int64)
    rng.shuffle(cents)
    out = q_approx_quantile_hist(
        _write_events(tmp_path, cents / 100.0)
    ).set_index("pct")
    for pct in _AQH_PCTS:
        k = pct * (len(cents) - 1) // 100
        assert out.loc[pct, "est_cents"] == k
        assert out.loc[pct, "rank_k"] == k


@pytest.mark.usefixtures("ray_session")
def test_approx_quantile_hist_error_bounded_by_bin_width(tmp_path):
    """On a skewed (lognormal-ish) sample the estimate stays within one
    bin width of the exact order statistic, and degenerate all-equal
    input returns that value at every pct."""
    import numpy as np

    from pdf_ocr_comparison_tool_ray.pipelines.queries import (
        _AQH_BINS,
        _AQH_PCTS,
        q_approx_quantile_hist,
    )

    rng = np.random.default_rng(11)
    cents = np.rint(np.exp(rng.normal(5.0, 1.2, size=5000)) + 100).astype(
        np.int64
    )
    out = q_approx_quantile_hist(
        _write_events(tmp_path, cents / 100.0)
    ).set_index("pct")
    srt = np.sort(cents)
    span = int(srt[-1] - srt[0] + 1)
    width = -(-span // _AQH_BINS)
    for pct in _AQH_PCTS:
        k = pct * (len(cents) - 1) // 100
        assert abs(int(out.loc[pct, "est_cents"]) - int(srt[k])) <= width

    flat_dir = tmp_path / "flat"
    flat_dir.mkdir()
    out2 = q_approx_quantile_hist(
        _write_events(flat_dir, np.full(97, 12.34))
    )
    assert (out2["est_cents"] == 1234).all()


@pytest.mark.usefixtures("ray_session")
def test_chunk_windows_planted(tmp_path):
    """Chunk count/boundary rules: n<=W -> 1 chunk; the last window
    always reaches the document end; chunk i covers tokens
    [i*S, i*S+W); empty docs emit nothing."""
    from pdf_ocr_comparison_tool_ray.pipelines.queries import (
        _CHUNK_S,
        _CHUNK_W,
        q_chunk_windows,
    )

    W, S = _CHUNK_W, _CHUNK_S
    mk = lambda n, tag: " ".join(f"{tag}{i}" for i in range(n))
    rows = [
        {"doc_id": 1, "text": mk(3, "a")},        # tiny -> 1 chunk
        {"doc_id": 2, "text": mk(W, "b")},        # exactly W -> 1 chunk
        {"doc_id": 3, "text": mk(W + 1, "c")},    # 2 chunks, 17-token tail
        {"doc_id": 4, "text": mk(W + 2 * S, "d")},  # 3 full chunks
        {"doc_id": 5, "text": ""},                # empty -> no rows
    ]
    out = (
        q_chunk_windows(_write_docs(tmp_path, rows))
        .to_pandas()
        .sort_values(["doc_id", "chunk_idx"])
    )
    counts = out.groupby("doc_id").size().to_dict()
    assert counts == {1: 1, 2: 1, 3: 2, 4: 3}
    for did, text in [(r["doc_id"], r["text"]) for r in rows if r["text"]]:
        toks = text.split(" ")
        sub = out[out["doc_id"] == did]
        for _, r in sub.iterrows():
            start = int(r["chunk_idx"]) * S
            expect = toks[start : start + W]
            assert r["text"] == " ".join(expect)
            assert int(r["n_tokens"]) == len(expect)
        # last window reaches the end of the document
        last = sub.iloc[-1]
        assert int(last["chunk_idx"]) * S + int(last["n_tokens"]) == len(toks)


@pytest.mark.usefixtures("ray_session")
def test_chunk_windows_reconstruction_property(tmp_path):
    """Dropping each chunk's 16-token overlap head reconstructs the
    original token stream exactly (no token lost or duplicated)."""
    from pdf_ocr_comparison_tool_ray.pipelines.queries import (
        _CHUNK_S,
        _CHUNK_W,
        q_chunk_windows,
    )

    overlap = _CHUNK_W - _CHUNK_S
    rows = [
        {"doc_id": n, "text": " ".join(f"w{n}x{i}" for i in range(n))}
        for n in (1, 63, 64, 65, 80, 112, 113, 160, 200, 500)
    ]
    out = (
        q_chunk_windows(_write_docs(tmp_path, rows))
        .to_pandas()
        .sort_values(["doc_id", "chunk_idx"])
    )
    for n in (r["doc_id"] for r in rows):
        rebuilt = []
        for ci, (_, r) in enumerate(out[out["doc_id"] == n].iterrows()):
            toks = r["text"].split(" ")
            rebuilt.extend(toks if ci == 0 else toks[overlap:])
        assert rebuilt == [f"w{n}x{i}" for i in range(n)]


@pytest.mark.usefixtures("ray_session")
def test_char_entropy_planted(tmp_path):
    """Known-entropy distributions: 1 symbol -> 0 bits, 2 uniform -> 1,
    4 uniform -> 2; skewed 3:1 matches the closed form; empty docs are
    excluded."""
    import math

    from pdf_ocr_comparison_tool_ray.pipelines.queries import q_char_entropy

    rows = [
        {"doc_id": 1, "text": "aaaa"},
        {"doc_id": 2, "text": "abab"},
        {"doc_id": 3, "text": "abcd"},
        {"doc_id": 4, "text": "aaab"},
        {"doc_id": 5, "text": ""},
    ]
    out = (
        q_char_entropy(_write_docs(tmp_path, rows))
        .to_pandas()
        .set_index("doc_id")
    )
    assert sorted(out.index) == [1, 2, 3, 4]
    assert out.loc[1, "char_entropy"] == pytest.approx(0.0)
    assert out.loc[2, "char_entropy"] == pytest.approx(1.0)
    assert out.loc[3, "char_entropy"] == pytest.approx(2.0)
    skew = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
    assert out.loc[4, "char_entropy"] == pytest.approx(skew)
    assert int(out.loc[4, "n_chars"]) == 4
    assert int(out.loc[4, "n_distinct_chars"]) == 2


@pytest.mark.usefixtures("ray_session")
def test_pmi_cooccur_planted(tmp_path):
    """Hand-computed PMI on a tiny corpus: window-2 pairs only, the
    min-count floor excludes rare pairs, and the score matches
    ln((c12*N^2)/(P*c1*c2)) exactly."""
    import math

    from pdf_ocr_comparison_tool_ray.pipelines.queries import (
        _PMI_MIN_COUNT,
        q_pmi_cooccur,
    )

    assert _PMI_MIN_COUNT == 5
    rows = [
        {"doc_id": i, "text": "alpha beta gamma"} for i in range(5)
    ] + [
        {"doc_id": 10 + i, "text": "delta epsilon"} for i in range(4)
    ]
    out = q_pmi_cooccur(_write_docs(tmp_path, rows))
    got = {(r.w1, r.w2): (r.pair_count, r.pmi) for r in out.itertuples()}
    # forward window-2 pairs of the triple, each seen 5x; the pair doc
    # is seen only 4x and falls under the support floor
    assert set(got) == {
        ("alpha", "beta"),
        ("beta", "gamma"),
        ("alpha", "gamma"),
    }
    n_tok = 5 * 3 + 4 * 2          # 23
    n_pair = 5 * 3 + 4 * 1         # 19
    expect = round(math.log((5 * n_tok * n_tok) / (n_pair * 5 * 5)), 9)
    for c, pmi in got.values():
        assert c == 5
        assert pmi == pytest.approx(expect, abs=1e-9)


@pytest.mark.usefixtures("ray_session")
def test_pmi_cooccur_window_is_two(tmp_path):
    """Distance-3 pairs are not counted: 'a d' never co-occurs in
    'a b c d' even when the doc repeats enough to clear the floor."""
    from pdf_ocr_comparison_tool_ray.pipelines.queries import q_pmi_cooccur

    rows = [{"doc_id": i, "text": "qa qb qc qd"} for i in range(6)]
    out = q_pmi_cooccur(_write_docs(tmp_path, rows))
    pairs = set(zip(out["w1"], out["w2"]))
    assert ("qa", "qd") not in pairs
    assert pairs == {
        ("qa", "qb"), ("qb", "qc"), ("qc", "qd"), ("qa", "qc"), ("qb", "qd"),
    }


def _brute_winnow(text, k, w):
    """Independent naive winnowing: per-window rightmost-min over char
    k-gram md5 hashes; returns (n_grams, n_selected, fp_min, fp_xor)."""
    ng = len(text) - k + 1
    if ng <= 0:
        return None
    hs = [
        int(hashlib.md5(text[i : i + k].encode()).hexdigest()[:15], 16)
        for i in range(ng)
    ]
    sel = set()
    for s in range(max(ng - w, 0) + 1):
        win = hs[s : s + w]
        m = min(win)
        j = max(i for i, h in enumerate(win) if h == m) + s
        sel.add(j)
    picked = [hs[j] for j in sorted(sel)]
    x = 0
    for h in picked:
        x ^= h
    return (ng, len(picked), min(picked), x)


@pytest.mark.usefixtures("ray_session")
def test_winnow_fingerprint_matches_bruteforce(tmp_path):
    """Pipeline digests equal a naive reimplementation on docs covering
    long text, exact-window-length text, sub-window text, and sub-k text
    (excluded)."""
    from pdf_ocr_comparison_tool_ray.pipelines.queries import (
        _WINNOW_K,
        _WINNOW_W,
        q_winnow_fingerprint,
    )

    k, w = _WINNOW_K, _WINNOW_W
    texts = {
        1: "the quick brown fox jumps over the lazy dog " * 8,
        2: "abcdefgh",                 # exactly one gram
        3: "abcdefghij",               # ng=3 < w: single partial window
        4: "short",                    # < k: excluded
        5: "zz" * 200,                 # degenerate repetition: equal hashes
    }
    rows = [{"doc_id": d, "text": t} for d, t in texts.items()]
    out = (
        q_winnow_fingerprint(_write_docs(tmp_path, rows))
        .to_pandas()
        .set_index("doc_id")
    )
    assert sorted(out.index) == [1, 2, 3, 5]
    for did, t in texts.items():
        expect = _brute_winnow(t, k, w)
        if expect is None:
            assert did not in out.index
            continue
        got = out.loc[did]
        assert (
            int(got["n_grams"]),
            int(got["n_selected"]),
            int(got["fp_min"]),
            int(got["fp_xor"]),
        ) == expect


@pytest.mark.usefixtures("ray_session")
def test_winnow_density_near_paper_bound(tmp_path):
    """Expected selection density on random-ish text is ~2/(w+1)
    (Schleimer et al. 2003, Thm 2); allow a generous band."""
    import random

    from pdf_ocr_comparison_tool_ray.pipelines.queries import (
        _WINNOW_W,
        q_winnow_fingerprint,
    )

    rng = random.Random(7)
    text = "".join(
        rng.choice("abcdefghijklmnopqrstuvwxyz ") for _ in range(20000)
    )
    out = q_winnow_fingerprint(
        _write_docs(tmp_path, [{"doc_id": 1, "text": text}])
    ).to_pandas()
    density = out["n_selected"][0] / out["n_grams"][0]
    target = 2 / (_WINNOW_W + 1)
    assert 0.7 * target < density < 1.3 * target


@pytest.mark.usefixtures("ray_session")
def test_rand_projection_exact_and_jl_property(tmp_path):
    """Projection equals a local matmul against the md5-derived sign
    matrix, and the JL expectation holds: mean ||proj||^2 ~= P*||x||^2
    across random vectors (±1 signs preserve norms in expectation)."""
    import numpy as np

    from pdf_ocr_comparison_tool_ray.pipelines.queries import (
        _RP_DIMS,
        _rp_sign_matrix,
        q_rand_projection,
    )

    rng = np.random.default_rng(3)
    vecs = rng.normal(size=(40, 32)).astype(np.float32)
    pd.DataFrame(
        {"vec_id": range(40), "embedding": [v.tolist() for v in vecs]}
    ).to_parquet(tmp_path / "embeddings.parquet")

    out = q_rand_projection(str(tmp_path)).to_pandas()
    assert len(out) == 40 * _RP_DIMS
    S = _rp_sign_matrix(32)
    # spec check on one entry of the sign matrix
    v = int(hashlib.md5(b"0-0").hexdigest()[:8], 16)
    assert S[0, 0] == 1.0 - 2.0 * (v % 2)
    expect = np.round(vecs.astype(np.float64) @ S, 6)
    got = (
        out.sort_values(["vec_id", "dim"])["value"]
        .to_numpy()
        .reshape(40, _RP_DIMS)
    )
    assert np.array_equal(got, expect)
    ratio = (expect**2).sum(axis=1).mean() / (
        _RP_DIMS * (vecs.astype(np.float64) ** 2).sum(axis=1).mean()
    )
    assert 0.7 < ratio < 1.3


@pytest.mark.usefixtures("ray_session")
def test_source_minhash_overlap_planted(tmp_path):
    """Identical sources estimate Jaccard 1.0; disjoint sources estimate
    ~0; a half-shared source lands strictly between."""
    from pdf_ocr_comparison_tool_ray.pipelines.queries import (
        q_source_minhash_overlap,
    )

    import random

    rng = random.Random(13)
    mk = lambda seed: " ".join(
        f"tok{rng.randrange(10**6)}" for _ in range(120)
    )
    a_docs = [mk(i) for i in range(8)]
    c_docs = [mk(100 + i) for i in range(8)]
    rows = []
    for i, t in enumerate(a_docs):
        rows.append({"doc_id": i, "source": "sa", "text": t})
        rows.append({"doc_id": 100 + i, "source": "sb", "text": t})  # clone
    for i, t in enumerate(c_docs):
        rows.append({"doc_id": 200 + i, "source": "sc", "text": t})
    # sd shares half its docs with sa
    for i, t in enumerate(a_docs[:4] + c_docs[:4]):
        rows.append({"doc_id": 300 + i, "source": "sd", "text": t})
    out = q_source_minhash_overlap(_write_docs(tmp_path, rows))
    est = {
        (r.source_a, r.source_b): r.est_jaccard for r in out.itertuples()
    }
    assert est[("sa", "sb")] == 1.0
    assert est[("sa", "sc")] < 0.2
    assert 0.2 < est[("sa", "sd")] < 0.9
    assert est[("sc", "sd")] > est[("sa", "sc")]


@pytest.mark.usefixtures("ray_session")
def test_bloom_decontam_no_false_negatives_and_brute_parity(tmp_path):
    """The Bloom probe can never miss a truly shared gram (superset of the
    exact check), and its hit counts equal an independent bitset
    reimplementation (false positives replay identically)."""
    from pdf_ocr_comparison_tool_ray.pipelines.queries import (
        _BLOOM_M,
        _DECONTAM_K,
        _EVAL_MAX_DOC_ID,
        _bloom_positions,
        _gram_hashes,
        q_bloom_decontam,
    )

    assert _EVAL_MAX_DOC_ID > 2
    eval_text = "alpha beta gamma delta epsilon zeta eta theta"
    rows = [
        {"doc_id": 0, "text": eval_text},
        {"doc_id": 1, "text": "iota kappa lambda mu nu xi omicron pi"},
        # probe containing an exact eval gram (alpha..delta)
        {"doc_id": 900, "text": "noise alpha beta gamma delta more noise"},
        # probe with no overlap
        {"doc_id": 901, "text": "rho sigma tau upsilon phi chi psi omega"},
        {"doc_id": 902, "text": "xy"},  # no grams -> excluded
    ]
    out = (
        q_bloom_decontam(_write_docs(tmp_path, rows))
        .to_pandas()
        .set_index("doc_id")
    )
    assert sorted(out.index) == [900, 901]

    # independent bitset build + probe
    bits = set()
    for r in rows:
        if r["doc_id"] < _EVAL_MAX_DOC_ID:
            for gh in _gram_hashes(r["text"], _DECONTAM_K):
                bits.update(_bloom_positions(gh))
    exact = set()
    for r in rows:
        if r["doc_id"] < _EVAL_MAX_DOC_ID:
            exact.update(_gram_hashes(r["text"], _DECONTAM_K))
    for r in rows:
        did = r["doc_id"]
        if did < _EVAL_MAX_DOC_ID or did not in out.index:
            continue
        grams = _gram_hashes(r["text"], _DECONTAM_K)
        brute = sum(
            1
            for gh in grams
            if all(p in bits for p in _bloom_positions(gh))
        )
        assert int(out.loc[did, "n_bloom_hits"]) == brute
        # superset: every exact-shared gram is a bloom hit
        n_exact = sum(1 for gh in grams if gh in exact)
        assert int(out.loc[did, "n_bloom_hits"]) >= n_exact
    assert int(out.loc[900, "n_bloom_hits"]) >= 1


@pytest.mark.usefixtures("ray_session")
def test_priority_sample_weighted_and_exact_key(tmp_path):
    """The Efraimidis-Spirakis keys match the hand formula, and heavy
    documents dominate the top-K (weighted inclusion), while the
    selection stays deterministic across runs."""
    import math

    from pdf_ocr_comparison_tool_ray.pipelines.queries import (
        _PRIORITY_K,
        q_priority_sample,
    )

    rows = []
    for i in range(1000):
        rows.append({"doc_id": i, "text": " ".join(["h"] * 100)})      # heavy
        rows.append({"doc_id": 10000 + i, "text": "a b c d e"})        # light
    sf = _write_docs(tmp_path, rows)
    out = q_priority_sample(sf)
    assert len(out) == _PRIORITY_K
    # exact key for the top row
    top = out.iloc[0]
    u = int(
        hashlib.md5(str(int(top["doc_id"])).encode()).hexdigest()[:8], 16
    )
    expect = round(math.log((u + 0.5) / 2**32) / int(top["n_tokens"]), 9)
    assert top["priority"] == pytest.approx(expect, abs=1e-12)
    # heavy docs (20x weight) should take the large majority of slots
    n_heavy = int((out["doc_id"] < 10000).sum())
    assert n_heavy > 0.8 * _PRIORITY_K
    # deterministic: a second run returns the identical frame
    out2 = q_priority_sample(sf)
    assert out.equals(out2)


@pytest.mark.usefixtures("ray_session")
def test_winnow_fingerprint_long_doc_oracle_parity(tmp_path):
    """Regression for the oracle's series-bound cap: a 12k-char doc
    (past the old 8192-gram bound) must digest identically in the
    engine and the DuckDB replay."""
    import duckdb

    from pdf_ocr_comparison_tool_ray.pipelines.queries import (
        SQL_WINNOW_FINGERPRINT,
        _WINNOW_K,
        _WINNOW_W,
        q_winnow_fingerprint,
    )

    import random

    rng = random.Random(21)
    long_text = "".join(
        rng.choice("abcdefghijklmnopqrstuvwxyz ") for _ in range(12000)
    )
    rows = [
        {"doc_id": 1, "text": long_text},
        {"doc_id": 2, "text": "a short sibling document"},
    ]
    sf = _write_docs(tmp_path, rows)
    eng = (
        q_winnow_fingerprint(sf).to_pandas().set_index("doc_id").sort_index()
    )
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS "
        f"SELECT * FROM read_parquet('{sf}/documents.parquet')"
    )
    sql = (
        con.execute(SQL_WINNOW_FINGERPRINT).df()
        .set_index("doc_id")
        .sort_index()
    )
    for did in (1, 2):
        for col in ("n_grams", "n_selected", "fp_min", "fp_xor"):
            assert int(eng.loc[did, col]) == int(sql.loc[did, col]), (
                did,
                col,
            )
    # the brute reimplementation agrees too
    expect = _brute_winnow(long_text, _WINNOW_K, _WINNOW_W)
    assert (
        int(eng.loc[1, "n_grams"]),
        int(eng.loc[1, "n_selected"]),
        int(eng.loc[1, "fp_min"]),
        int(eng.loc[1, "fp_xor"]),
    ) == expect


def _brute_novelty(texts: dict, k: int) -> dict:
    """Independent reimplementation: per doc, distinct k-token grams whose
    corpus-wide min doc_id is this doc, over the doc's distinct grams."""
    import re as _re

    tok = _re.compile(r"[A-Za-z0-9]+")
    doc_grams = {}
    for did, t in texts.items():
        ts = tok.findall(t)
        doc_grams[did] = {
            " ".join(ts[i : i + k]) for i in range(len(ts) - k + 1)
        }
    first = {}
    for did in sorted(doc_grams):
        for g in doc_grams[did]:
            first.setdefault(g, did)
    return {
        did: (
            len(gs),
            sum(1 for g in gs if first[g] == did),
        )
        for did, gs in doc_grams.items()
        if gs
    }


@pytest.mark.usefixtures("ray_session")
def test_ngram_novelty_planted(tmp_path):
    from pdf_ocr_comparison_tool_ray.pipelines.queries import (
        _NGRAM_K,
        q_ngram_novelty,
    )

    base = " ".join(f"w{i}" for i in range(_NGRAM_K + 2))
    texts = {
        1: base,                                        # all-novel source
        2: base,                                        # exact copy: 0.0
        3: " ".join(f"x{i}" for i in range(_NGRAM_K)),  # 1 gram, novel
        4: " ".join(f"w{i}" for i in range(_NGRAM_K))
        + " "
        + " ".join(f"y{i}" for i in range(_NGRAM_K)),   # mixed fraction
        5: "too short for any gram",                    # absent from output
    }
    rows = [{"doc_id": d, "text": t} for d, t in texts.items()]
    out = (
        q_ngram_novelty(_write_docs(tmp_path, rows))
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    expect = _brute_novelty(texts, _NGRAM_K)
    assert set(out.index) == set(expect)
    for did, (n_grams, n_novel) in expect.items():
        assert int(out.loc[did, "n_grams"]) == n_grams, did
        assert int(out.loc[did, "n_novel"]) == n_novel, did
        assert out.loc[did, "novelty_frac"] == n_novel / n_grams, did
    # the planted invariants the metric exists for
    assert out.loc[1, "novelty_frac"] == 1.0
    assert out.loc[2, "novelty_frac"] == 0.0
    assert 0.0 < out.loc[4, "novelty_frac"] < 1.0
    assert 5 not in out.index


def _brute_bm25(texts: dict, terms, k1: float, b: float) -> dict:
    """Independent textbook Okapi BM25 (Robertson/Lucene idf)."""
    import math
    from collections import Counter

    from pdf_ocr_comparison_tool_ray.functions.tokenize import (
        keyword_candidates,
    )

    counts = {d: Counter(keyword_candidates(t)) for d, t in texts.items()}
    dls = {d: sum(c.values()) for d, c in counts.items() if sum(c.values())}
    avgdl = sum(dls.values()) / len(dls)
    n = len(texts)
    df = {t: sum(1 for c in counts.values() if c.get(t)) for t in terms}
    out = {}
    for d, c in counts.items():
        s = 0.0
        for t in terms:
            tf = c.get(t, 0)
            if not tf:
                continue
            idf = math.log(1.0 + (n - df[t] + 0.5) / (df[t] + 0.5))
            s += idf * (tf * (k1 + 1.0)) / (
                tf + k1 * (1.0 - b + b * dls[d] / avgdl)
            )
        if s:
            out[d] = s
    return out


@pytest.mark.usefixtures("ray_session")
def test_bm25_planted_corpus(tmp_path):
    import numpy as np

    from pdf_ocr_comparison_tool_ray.pipelines.queries import (
        _BM25_B,
        _BM25_K1,
        _BM25_TERMS,
        q_bm25_topk,
    )

    filler = " ".join(f"pad{i}" for i in range(40))
    texts = {
        1: "merge spark stream vector merge spark",    # term-dense, short
        2: "merge spark stream vector merge spark " + filler,  # same tf, long
        3: "nothing relevant here just plain filler words",    # no terms
        4: "vector " + filler,                                 # single term
        5: "merge merge merge merge merge merge merge merge",  # tf saturation
        6: "1 2 3 4",                                          # token-free doc
    }
    rows = [{"doc_id": d, "text": t} for d, t in texts.items()]
    out = q_bm25_topk(_write_docs(tmp_path, rows))
    expect = _brute_bm25(texts, _BM25_TERMS, _BM25_K1, _BM25_B)

    got = dict(zip(out["doc_id"], out["bm25"]))
    assert set(got) == set(expect)
    for did, s in expect.items():
        assert np.isclose(got[did], s, rtol=1e-12), did
    # ordering: score desc, doc_id asc
    pairs = list(zip(out["bm25"], out["doc_id"]))
    assert pairs == sorted(pairs, key=lambda p: (-p[0], p[1]))
    # the invariants BM25 exists for: length normalization (same tf,
    # longer doc scores lower) and tf saturation (8x one term does not
    # beat a multi-term doc 8x over)
    assert got[1] > got[2]
    assert got[5] < 8 * got[4]
    assert 3 not in got and 6 not in got


def _brute_ssjoin(texts: dict, ngram: int, t: float):
    """Brute-force all-pairs exact shingle-set Jaccard >= t."""
    from pdf_ocr_comparison_tool_ray.functions.fingerprint import shingles
    from pdf_ocr_comparison_tool_ray.functions.tokenize import tokenize

    sets = {d: frozenset(shingles(tokenize(x), ngram)) for d, x in texts.items()}
    out = {}
    ids = sorted(sets)
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            u = sets[a] | sets[b]
            j = len(sets[a] & sets[b]) / len(u) if u else 0.0
            if j >= t:
                out[(a, b)] = j
    return out


def _ssjoin_corpus():
    """Planted near-dup families + distinct docs + degenerate docs."""
    base = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
    return {
        1: base,
        2: base + " lambda",                       # near-dup of 1
        3: base.replace("delta", "DELTA"),         # near-dup, case-sensitive grams
        4: "one two three four five six seven eight nine ten",
        5: "one two three four five six seven eight nine ten",  # exact dup of 4
        6: "totally different words nothing shared here at all okay",
        7: "single",                               # 1-token doc (whole-doc shingle)
        8: "",                                     # shingle-free doc
        9: "alpha beta",                           # tiny overlap with 1, below t
    }


@pytest.mark.usefixtures("ray_session")
def test_set_similarity_join_exact_vs_brute(tmp_path):
    import numpy as np

    from pdf_ocr_comparison_tool_ray.stages.dedup import (
        ngram_jaccard_pairs,
        prefix_jaccard_pairs,
    )
    import ray.data

    texts = _ssjoin_corpus()
    sf = _write_docs(tmp_path, [{"doc_id": d, "text": x} for d, x in texts.items()])
    ds = ray.data.read_parquet(sf + "/documents.parquet")

    got_df = prefix_jaccard_pairs(ds, ngram=2, threshold=0.5).to_pandas()
    got = {
        (a, b): j
        for a, b, j in zip(got_df["doc_a"], got_df["doc_b"], got_df["jaccard"])
    }
    expect = _brute_ssjoin(texts, 2, 0.5)
    assert set(got) == set(expect)
    for k, j in expect.items():
        assert np.isclose(got[k], j, rtol=0, atol=0), k  # exact ratios
    # exactness dominance: the prefix filter finds every pair LSH does
    lsh_df = ngram_jaccard_pairs(ds, ngram=2, threshold=0.5).to_pandas()
    lsh = set(zip(lsh_df["doc_a"], lsh_df["doc_b"]))
    assert lsh <= set(got)
    # planted sanity
    assert (4, 5) in got and got[(4, 5)] == 1.0
    assert (1, 2) in got
    assert all(8 not in k and 9 not in k for k in got)


def _ssjoin_route_corpora():
    """name -> (texts, ngram): the planted corpus plus the shapes a route
    is likeliest to get wrong."""
    base = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
    # 8 families of 8 near-dups, interleaved over the ids so their pairs
    # cross every row-block boundary of the matrix route
    words = [f"w{k}" for k in range(200)]
    blocks = {
        i: " ".join(words[(i % 8) * 20 : (i % 8) * 20 + 12] + [f"tail{i}"])
        for i in range(1, 65)
    }
    return {
        "planted": (_ssjoin_corpus(), 2),
        "empty": ({}, 2),
        "all_shingle_free": ({1: "", 2: "   ", 3: "!! -- ??"}, 2),
        "one_row": ({1: base}, 2),
        # one-token docs and docs shorter than the n-gram: whole-doc shingle
        "short_docs": ({1: "single", 2: "single", 3: "other", 4: "x y",
                        5: "x y", 6: "x y z", 7: ""}, 3),
        "clique": ({i: base for i in range(1, 7)}, 2),  # J = 1.0, 15 pairs
        # bigrams {a b, b c, c d} vs {a b, b c, c e}: J = 2/4 = t exactly
        "exact_t": ({1: "a b c d", 2: "a b c e", 3: "q r"}, 2),
        "many_blocks": (blocks, 2),
    }


def _ssjoin_expected(texts: dict, ngram: int, t: float, id_dtype) -> pd.DataFrame:
    expect = _brute_ssjoin(texts, ngram, t)
    keys = sorted(expect)
    return pd.DataFrame(
        {
            "doc_a": pd.Series([a for a, _ in keys], dtype=id_dtype),
            "doc_b": pd.Series([b for _, b in keys], dtype=id_dtype),
            "jaccard": pd.Series([expect[k] for k in keys], dtype="float64"),
        }
    )


def _write_typed_docs(tmp_path, texts: dict, id_type):
    import pyarrow as pa
    import pyarrow.parquet as pq

    ids = sorted(texts)
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(ids, type=id_type),
                "text": pa.array([texts[d] for d in ids], type=pa.string()),
            }
        ),
        tmp_path / "documents.parquet",
    )
    return str(tmp_path)


@pytest.mark.usefixtures("ray_session")
def test_set_similarity_join_bucketed_route_equivalence(tmp_path, monkeypatch):
    """Force all four routes -- the all-pairs matrix finished on the
    driver and as a task map, the broadcast-df prefix filter and the
    bucketed prefix filter -- and pin each to the
    brute-force answer, doc_id dtype included, on the planted corpus and
    on degenerate ones (also with an int32 doc_id); an empty answer
    through the registry op keeps its declared schema on every route;
    the gate routes on the estimated vocabulary."""
    import numpy as np
    import pyarrow as pa
    import ray
    import ray.data

    from pdf_ocr_comparison_tool_ray.pipelines.queries import (
        _schema_stable_pairs,
        q_set_similarity_join,
    )
    from pdf_ocr_comparison_tool_ray.stages import bucketed, dedup

    routes = {
        "inline_matrix": {(dedup, "MATRIX_MAX_CELLS"): 10**15},
        # no driver finish, so many_blocks spans several row blocks
        "matrix": {(dedup, "MATRIX_MAX_CELLS"): 10**15,
                   (bucketed, "DRIVER_MAX_BYTES"): -1},
        "broadcast_prefix": {(dedup, "MATRIX_MAX_CELLS"): -1},
        "bucketed_prefix": {(dedup, "MATRIX_MAX_CELLS"): -1,
                            (dedup, "PREFIX_BROADCAST_VOCAB_MAX"): -1},
    }
    cases = [
        (name, texts, ngram, pa.int64())
        for name, (texts, ngram) in _ssjoin_route_corpora().items()
    ]
    cases.append(("planted_int32", _ssjoin_corpus(), 2, pa.int32()))
    cpus = int(ray.cluster_resources()["CPU"])
    blocks = dedup._row_block_starts(64, cpus)
    assert len(blocks) > 1  # many_blocks spans several row blocks
    for name, texts, ngram, id_type in cases:
        d = tmp_path / name
        d.mkdir()
        sf = _write_typed_docs(d, texts, id_type)
        want = _ssjoin_expected(texts, ngram, 0.5, id_type.to_pandas_dtype())
        if name == "many_blocks":  # doc i is matrix row i - 1
            block_a = np.searchsorted(blocks, want["doc_a"] - 1, side="right")
            block_b = np.searchsorted(blocks, want["doc_b"] - 1, side="right")
            assert (block_a != block_b).any()
        for route, caps in routes.items():
            with monkeypatch.context() as m:
                for (mod, k), v in caps.items():
                    m.setattr(mod, k, v)
                ds = ray.data.read_parquet(sf + "/documents.parquet")
                # an empty Dataset collects without columns; restore them
                # as the registry op does
                got = (
                    _schema_stable_pairs(
                        dedup.prefix_jaccard_pairs(ds, ngram, 0.5),
                        dict(want.dtypes),
                    )
                    .sort_values(["doc_a", "doc_b"])
                    .reset_index(drop=True)
                )
                # the registry op keeps its declared schema on an empty result
                if want.empty and id_type == pa.int64():
                    assert dict(q_set_similarity_join(sf).dtypes.astype(str)) == {
                        "doc_a": "int64", "doc_b": "int64", "jaccard": "float64"
                    }
            pd.testing.assert_frame_equal(got, want, obj=f"{name}/{route}")

    # the gate: the clique's 6 docs hold 54 shingle rows over 9 distinct
    # bigrams, so the HLL estimate (6 x 9 cells) decides where the row
    # bound (6 x 54) is too loose
    taken = []
    matrix = dedup._matrix_jaccard_pairs
    monkeypatch.setattr(
        dedup, "_matrix_jaccard_pairs", lambda *a: taken.append(a) or matrix(*a)
    )
    clique = ray.data.read_parquet(str(tmp_path / "clique" / "documents.parquet"))
    for cap, want_matrix in ((100, True), (50, False)):
        taken.clear()
        monkeypatch.setattr(dedup, "MATRIX_MAX_CELLS", cap)
        assert len(dedup.prefix_jaccard_pairs(clique, 2, 0.5).to_pandas()) == 15
        assert bool(taken) == want_matrix, cap


# ---------------------------------------------------------------------------
# bpe_train: the exposed full trainer — merge table pinned against an
# independent brute-force trainer, and the recursive-CTE SQL oracle
# replayed on adversarial corpora (overlap chains, re-merging merged
# symbols, EOW merges, newline-bearing words)
# ---------------------------------------------------------------------------
def _brute_bpe_merge_table(texts, n_merges):
    """Independent trainer: whole-corpus symbol sequences, no
    word-multiplicity weighting shortcut, returns the merge table."""
    from collections import Counter

    seqs = []
    for t in texts:
        for w in t.split(" "):
            if w:
                seqs.append(list(w) + ["</w>"])
    table = []
    for r in range(n_merges):
        c = Counter()
        for s in seqs:
            for i in range(len(s) - 1):
                c[(s[i], s[i + 1])] += 1
        if not c:
            break
        (a, b), n = min(c.items(), key=lambda kv: (-kv[1], kv[0][0], kv[0][1]))
        table.append((r + 1, a, b, n))
        nxt = []
        for s in seqs:
            out, i = [], 0
            while i < len(s):
                if i + 1 < len(s) and s[i] == a and s[i + 1] == b:
                    out.append(a + b)
                    i += 2
                else:
                    out.append(s[i])
                    i += 1
            nxt.append(out)
        seqs = nxt
    return pd.DataFrame(table, columns=["rank", "s1", "s2", "pair_count"])


@pytest.mark.usefixtures("ray_session")
def test_bpe_train_matches_bruteforce(tmp_path):
    from pdf_ocr_comparison_tool_ray.pipelines.queries import q_bpe_train

    texts = [
        "low lower lowest low low",
        "new newer newest new",
        "wide wider widest low",
    ]
    sf = _write_docs(tmp_path, [{"doc_id": i, "text": t} for i, t in enumerate(texts)])
    got = q_bpe_train(sf, n_merges=5).reset_index(drop=True)
    want = _brute_bpe_merge_table(texts, 5).astype(
        {"rank": "int64", "pair_count": "int64"}
    )
    pd.testing.assert_frame_equal(got, want)
    # merged symbols must re-enter later merges (multi-char s1 appears)
    assert (got["s1"].str.len() > 1).any()


@pytest.mark.usefixtures("ray_session")
def test_bpe_train_sql_oracle_replays_adversarial_corpora(tmp_path):
    import duckdb

    from pdf_ocr_comparison_tool_ray.pipelines.queries import (
        _sql_bpe_train,
        q_bpe_train,
    )

    cases = [
        ["aaaa aaa aa a aaaaa"],              # overlap chains
        ["abababab abab ab"],                 # alternating re-merges
        ["x x x x", "xx xx", "xxx"],          # EOW merges dominate
        ["the\nend line1\nline2 the\nend"],   # newline inside 'words'
        ["ba bab baba babab", "ab aba abab"],  # left-extension patterns
    ]
    for ci, texts in enumerate(cases):
        sub = tmp_path / f"c{ci}"
        sub.mkdir()
        sf = _write_docs(sub, [{"doc_id": i, "text": t} for i, t in enumerate(texts)])
        ray_out = q_bpe_train(sf, n_merges=4).reset_index(drop=True)
        con = duckdb.connect()
        con.execute(
            "CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{sf}/documents.parquet')"
        )
        sql_out = (
            con.execute(_sql_bpe_train(4))
            .df()
            .sort_values("rank")
            .reset_index(drop=True)
            .astype({"rank": "int64", "pair_count": "int64"})
        )
        brute = _brute_bpe_merge_table(texts, 4).astype(
            {"rank": "int64", "pair_count": "int64"}
        )
        pd.testing.assert_frame_equal(ray_out, brute)
        pd.testing.assert_frame_equal(sql_out, brute)


@pytest.mark.usefixtures("ray_session")
def test_bpe_vocab_matches_bruteforce_and_sql(tmp_path):
    import duckdb

    from pdf_ocr_comparison_tool_ray.pipelines.queries import (
        _sql_bpe_vocab,
        q_bpe_vocab,
    )

    texts = [
        "low lower lowest low low",
        "new newer newest new",
        "aaaa aaa aa a",
    ]
    sf = _write_docs(tmp_path, [{"doc_id": i, "text": t} for i, t in enumerate(texts)])
    got = q_bpe_vocab(sf, n_merges=4).reset_index(drop=True)

    # brute: train 4 merges independently, then count encoded tokens
    from collections import Counter

    merges = [(r.s1, r.s2) for r in _brute_bpe_merge_table(texts, 4).itertuples()]

    def apply(s, ms):
        for a, b in ms:
            out, i = [], 0
            while i < len(s):
                if i + 1 < len(s) and s[i] == a and s[i + 1] == b:
                    out.append(a + b)
                    i += 2
                else:
                    out.append(s[i])
                    i += 1
            s = out
        return s

    tok = Counter()
    for t in texts:
        for w in t.split(" "):
            if w:
                tok.update(apply(list(w) + ["</w>"], merges))
    want = pd.DataFrame(
        sorted(tok.items(), key=lambda kv: (-kv[1], kv[0])),
        columns=["token", "token_count"],
    ).astype({"token_count": "int64"})
    pd.testing.assert_frame_equal(got, want)
    # every char of every word is accounted for: token lengths weighted
    # by counts must equal total non-space chars + one EOW per word
    n_words = sum(1 for t in texts for w in t.split(" ") if w)
    chars = sum(len(w) for t in texts for w in t.split(" ") if w)
    enc_len = sum(
        (len(tk) if tk != "</w>" and not tk.endswith("</w>") else len(tk) - 4)
        * c
        for tk, c in tok.items()
    )
    assert enc_len == chars
    assert sum(c for tk, c in tok.items() if tk.endswith("</w>")) == n_words

    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{sf}/documents.parquet')"
    )
    sql_out = (
        con.execute(_sql_bpe_vocab(4))
        .df()
        .sort_values(["token_count", "token"], ascending=[False, True])
        .reset_index(drop=True)
        .astype({"token_count": "int64"})
    )
    pd.testing.assert_frame_equal(sql_out, want)
