"""Edge-semantics tests for the round-5 final-continuation operators,
each against an independent brute-force reimplementation on planted
corpora: Apriori frequent itemsets (candidate pruning == unpruned
answer, cross-block basket dedup) and sorted-neighborhood blocking
(window semantics over the total order, exactly-once pair emission
across rank-block boundaries, Jaccard verify)."""

from itertools import combinations

import duckdb
import numpy as np
import pandas as pd

from pdf_ocr_comparison_tool_ray.pipelines.queries import (
    _FI_MINSUP,
    _SNM_THR,
    _SNM_W,
    q_frequent_itemsets,
    q_sorted_neighborhood_pairs,
)


def _write_lineitem(tmp_path, orders):
    rows = []
    for ok, parts in enumerate(orders, start=1):
        for p in parts:
            rows.append({"l_orderkey": ok, "l_partkey": p})
    pd.DataFrame(rows).to_parquet(tmp_path / "lineitem.parquet")
    return str(tmp_path)


def _write_docs(tmp_path, texts):
    pd.DataFrame(
        {"doc_id": range(len(texts)), "text": texts}
    ).to_parquet(tmp_path / "documents.parquet")
    return str(tmp_path)


def _oracle(sf_dir, sql):
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS "
        f"SELECT * FROM read_parquet('{sf_dir}/documents.parquet')"
    )
    return con.execute(sql).df()


def _brute_itemsets(orders, minsup):
    """All size-2/3 itemsets with support >= minsup, over DEDUPED baskets."""
    out = {}
    for parts in orders:
        basket = sorted(set(parts))
        for sz in (2, 3):
            for c in combinations(basket, sz):
                out[c] = out.get(c, 0) + 1
    return {k: v for k, v in out.items() if v >= minsup}


def test_frequent_itemsets_vs_brute(ray_session, tmp_path):
    rng = np.random.RandomState(11)
    orders = [
        list(rng.randint(0, 12, size=rng.randint(2, 6)))
        for _ in range(60)
    ]
    # plant a guaranteed frequent triple + duplicate lines in one basket
    orders += [[1, 2, 3], [1, 2, 3, 7], [1, 2, 2, 3]]
    got = q_frequent_itemsets(_write_lineitem(tmp_path, orders)).to_pandas()
    want = _brute_itemsets(orders, _FI_MINSUP)
    got_map = {}
    for r in got.itertuples():
        key = (r.i1, r.i2) if r.sz == 2 else (r.i1, r.i2, r.i3)
        got_map[key] = r.support
        assert (r.i3 == -1) == (r.sz == 2)
    assert got_map == want
    assert got_map[(1, 2, 3)] >= 3  # the planted triple (dup line deduped)


def test_frequent_itemsets_no_triples(ray_session, tmp_path):
    # disjoint pairs only: frequent pairs exist, zero frequent triples
    orders = [[1, 2], [1, 2], [3, 4], [3, 4], [5, 6]]
    got = q_frequent_itemsets(_write_lineitem(tmp_path, orders)).to_pandas()
    assert set(got["sz"]) == {2}
    assert {(r.i1, r.i2) for r in got.itertuples()} == {(1, 2), (3, 4)}


def test_frequent_itemsets_basket_spanning_blocks(ray_session, tmp_path):
    # one order repeated many times as separate rows: per-batch dedup
    # undercounts if the basket spans read blocks; support must count
    # ORDERS, not rows
    orders = [[1, 2] * 50, [1, 2]]  # 100 rows for order 1, 2 for order 2
    got = q_frequent_itemsets(_write_lineitem(tmp_path, orders)).to_pandas()
    assert len(got) == 1
    assert got.iloc[0]["support"] == 2


def _brute_snm(texts, w, thr):
    """Window-w pairs over the (normalized text, doc_id) total order."""
    nt = [" ".join(t.lower().split()) for t in texts]
    order = sorted(range(len(texts)), key=lambda i: (nt[i], i))
    out = []
    for a in range(len(order)):
        for b in range(a + 1, min(a + w, len(order))):
            i, j = order[a], order[b]
            ta, tb = set(nt[i].split(" ")), set(nt[j].split(" "))
            c = len(ta & tb)
            jv = c / (len(ta) + len(tb) - c)
            if jv >= thr:
                out.append((i, j, jv))
    return sorted(out)


def test_snm_pairs_vs_brute(ray_session, tmp_path):
    rng = np.random.RandomState(5)
    vocab = ["alpha", "beta", "gamma", "delta", "eps", "zeta"]
    texts = [
        " ".join(rng.choice(vocab, size=rng.randint(3, 7)))
        for _ in range(80)
    ]
    # plant exact dups and a near-dup with messy whitespace
    texts += [texts[0], "  " + texts[1].upper() + "  ", texts[2] + " zeta"]
    got = q_sorted_neighborhood_pairs(_write_docs(tmp_path, texts)).to_pandas()
    got_set = sorted(
        (int(r.d1), int(r.d2), float(r.jacc)) for r in got.itertuples()
    )
    assert got_set == _brute_snm(texts, _SNM_W, _SNM_THR)
    assert len(got_set) > 0  # the planted dups must surface


def test_snm_exactly_once_across_block_boundary(ray_session, tmp_path):
    # every doc identical: every in-window pair qualifies with jacc=1;
    # emission count must be exactly n*(w-1) - (w-1)*w/2 (tail windows
    # truncate), each pair once, regardless of rank-block boundaries
    n = 23
    texts = ["same words here"] * n
    got = q_sorted_neighborhood_pairs(_write_docs(tmp_path, texts)).to_pandas()
    expect = sum(min(_SNM_W - 1, n - 1 - a) for a in range(n))
    assert len(got) == expect
    assert not got.duplicated(["d1", "d2"]).any()
    assert (got["jacc"] == 1.0).all()
    # ranks tie-break on doc_id, so every emitted pair has d1 < d2 here
    assert (got["d1"] < got["d2"]).all()


def test_snm_unicode_whitespace_engine_independent(ray_session, tmp_path):
    # NBSP, U+0085 and \x1c are whitespace to Python (\s, str.strip) but
    # not to RE2 / DuckDB's trim, and RE2's \s lacks \v: only the ASCII
    # class [ \t\n\r\f\v] separates tokens, identically in both engines
    from pdf_ocr_comparison_tool_ray.pipelines.queries import (
        SQL_SORTED_NEIGHBORHOOD_PAIRS,
    )

    texts = [
        "alpha beta gamma delta",
        "alpha\u00a0beta gamma delta",     # NBSP joins two tokens
        "alpha beta gamma delta\u0085",    # U+0085 stays on the last token
        "\x1calpha beta gamma delta",
        "alpha\vbeta\tgamma\n delta ",    # ASCII runs collapse to one space
        "zeta eta theta",
    ]
    sf_dir = _write_docs(tmp_path, texts)
    got = q_sorted_neighborhood_pairs(sf_dir).to_pandas()
    want = _oracle(sf_dir, SQL_SORTED_NEIGHBORHOOD_PAIRS)

    def rows(df):
        return sorted(
            (int(r.d1), int(r.d2), float(r.jacc)) for r in df.itertuples()
        )

    assert rows(got) == rows(want)
    assert (0, 4, 1.0) in rows(got)  # ASCII whitespace still normalizes
    assert not any(1 in p[:2] for p in rows(got))  # NBSP token differs


def test_snm_tiny_input_no_window(ray_session, tmp_path):
    got = q_sorted_neighborhood_pairs(
        _write_docs(tmp_path, ["a b c", "a b c"])
    ).to_pandas()
    assert len(got) == 1
    assert got.iloc[0]["jacc"] == 1.0


def _write_corpus(tmp_path, texts, vecs):
    pd.DataFrame(
        {"doc_id": range(len(texts)), "text": texts}
    ).to_parquet(tmp_path / "documents.parquet")
    pd.DataFrame(
        {
            "vec_id": range(len(vecs)),
            "embedding": [np.asarray(v, dtype=np.float32) for v in vecs],
            "label": np.zeros(len(vecs), dtype=np.int32),
        }
    ).to_parquet(tmp_path / "embeddings.parquet")
    return str(tmp_path)


def test_rrf_dual_list_beats_single_list_top(ray_session, tmp_path):
    # doc 3: top of the VECTOR list only (orthogonal tokens);
    # doc 4: mid-rank in BOTH lists.  RRF must put 4 above 3:
    # 1/(60+2) + 1/(60+2) > 1/(60+1) + 0.
    from pdf_ocr_comparison_tool_ray.pipelines.queries import q_rrf_fusion

    texts = [
        "alpha beta gamma",          # q0
        "unused one", "unused two",  # q1, q2 (required: ids < _RRF_NQ)
        "zz yy xx",                  # 3: zero token overlap with q0
        "alpha beta qq",             # 4: lexical overlap 2 with q0
        "alpha rr ss",               # 5: lexical overlap 1
    ]
    v = np.eye(8)
    vecs = [
        v[0],                        # q0
        v[1], v[2],                  # q1, q2
        v[0] * 0.9 + v[3] * 0.1,     # 3: cosine rank 1 for q0
        v[0] * 0.5 + v[4] * 0.5,     # 4: cosine rank 2
        v[5],                        # 5: cosine 0
    ]
    out = q_rrf_fusion(_write_corpus(tmp_path, texts, vecs))
    q0 = out[out["qid"] == 0].reset_index(drop=True)
    pos = {int(r.doc_id): i for i, r in q0.iterrows()}
    # q0 itself is rank 1 in both lists (self-retrieval)
    assert q0.iloc[0]["doc_id"] == 0
    assert pos[4] < pos[3]  # dual-list mid beats single-list top
    # doc 3 appears with ONLY its vector term (no lexical contribution)
    r3 = q0[q0["doc_id"] == 3].iloc[0]["rrf"]
    assert r3 == 1.0 / (60 + 2)  # vec rank 2 behind the query itself


def test_rrf_fused_score_formula(ray_session, tmp_path):
    # two-doc corpus beyond the queries: both ranks fully determined,
    # fused score must equal the hand formula exactly
    from pdf_ocr_comparison_tool_ray.pipelines.queries import q_rrf_fusion

    texts = ["a b", "u1", "u2", "a b c", "a x y"]
    v = np.eye(4)
    vecs = [v[0], v[1], v[2], v[0], 0.7 * v[0] + 0.3 * v[3]]
    out = q_rrf_fusion(_write_corpus(tmp_path, texts, vecs))
    q0 = out[out["qid"] == 0].set_index("doc_id")["rrf"]
    # doc 3: vec rank 2 (cos 1.0, id tiebreak behind q0), lex rank 2
    assert q0.loc[3] == 1.0 / 62 + 1.0 / 62
    # doc 4: vec rank 3, lex rank 3 (overlap 1 < doc 3's 2)
    assert q0.loc[4] == 1.0 / 63 + 1.0 / 63


def test_ols_recovers_exact_linear_relation(ray_session, tmp_path):
    # y (token count) = exactly 1 per 4 chars: "abc " repeated k times
    # gives n_chars = 4k (we set the column), tokens = k -> slope 0.25,
    # intercept 0 recovered exactly (all sums integer, one division)
    ks = [1, 2, 3, 5, 8, 13]
    df = pd.DataFrame(
        {
            "doc_id": range(len(ks)),
            "text": ["abc " * k for k in ks],
            "lang": "en",
            "n_chars": [4 * k for k in ks],
        }
    )
    df.to_parquet(tmp_path / "documents.parquet")
    from pdf_ocr_comparison_tool_ray.pipelines.queries import q_ols_by_lang

    out = q_ols_by_lang(str(tmp_path))
    assert len(out) == 1
    assert out.iloc[0]["slope"] == 0.25
    assert out.iloc[0]["intercept"] == 0.0
    assert out.iloc[0]["n"] == len(ks)


def test_ols_per_group_independent_fits(ray_session, tmp_path):
    # two langs with different exact relations: slopes must not mix
    rows = []
    for k in (1, 2, 4, 7):
        rows.append({"text": "a " * k, "lang": "en", "n_chars": 2 * k})
        rows.append({"text": "b " * k, "lang": "de", "n_chars": 6 * k})
    df = pd.DataFrame(rows)
    df["doc_id"] = range(len(df))
    df.to_parquet(tmp_path / "documents.parquet")
    from pdf_ocr_comparison_tool_ray.pipelines.queries import q_ols_by_lang

    out = q_ols_by_lang(str(tmp_path)).set_index("lang")
    assert out.loc["en", "slope"] == 0.5
    assert out.loc["de", "slope"] == 1.0 / 6.0


def test_ols_zero_denominator_is_null_in_both_engines(ray_session, tmp_path):
    # a one-row group and an all-equal-x group have no fit: n*Σx² − (Σx)²
    # is 0, and both engines must emit NULL slope/intercept for them
    from pdf_ocr_comparison_tool_ray.pipelines.queries import (
        SQL_OLS_BY_LANG,
        q_ols_by_lang,
    )

    df = pd.DataFrame(
        {
            "text": ["a b", "a b c", "a", "a b c d", "a b", "a b c"],
            "lang": ["de", "en", "en", "en", "fr", "fr"],
            "n_chars": [3, 10, 10, 10, 3, 5],
        }
    )
    df["doc_id"] = range(len(df))
    df.to_parquet(tmp_path / "documents.parquet")

    got = q_ols_by_lang(str(tmp_path)).sort_values("lang")
    want = _oracle(str(tmp_path), SQL_OLS_BY_LANG).sort_values("lang")
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), want[got.columns].reset_index(drop=True)
    )
    fit = got.set_index("lang")
    assert fit.loc[["de", "en"], ["slope", "intercept"]].isna().all().all()
    assert fit.loc["fr", "slope"] == 0.5


def _brute_ams(texts, langs):
    from collections import Counter

    from pdf_ocr_comparison_tool_ray.pipelines.queries import (
        _AMS_R,
        _TOKEN_RE,
        _ams_signs,
    )

    out = {}
    for lang in sorted(set(langs)):
        cnt = Counter()
        for t, lg in zip(texts, langs):
            if lg == lang:
                cnt.update(_TOKEN_RE.findall(t))
        toks = list(cnt.keys())
        c = np.array(list(cnt.values()), dtype=np.int64)
        zz = sorted(
            int((_ams_signs(toks, r) * c).sum()) ** 2 for r in range(_AMS_R)
        )
        out[lang] = zz[len(zz) // 2]  # integer median (odd R)
    return out


def test_ams_f2_matches_brute_sketch_and_bounds_error(ray_session, tmp_path):
    # Zipf-ish corpus: estimate must equal the deterministic brute
    # sketch exactly, and land within 3x of the true F2 on this corpus
    rng = np.random.RandomState(3)
    vocab = [f"w{i}" for i in range(40)]
    p = np.array([1.0 / (i + 1) for i in range(40)])
    p /= p.sum()
    texts = [
        " ".join(rng.choice(vocab, size=60, p=p)) for _ in range(50)
    ]
    langs = ["en"] * 25 + ["de"] * 25
    pd.DataFrame(
        {"doc_id": range(50), "text": texts, "lang": langs}
    ).to_parquet(tmp_path / "documents.parquet")
    from collections import Counter

    from pdf_ocr_comparison_tool_ray.pipelines.queries import (
        _TOKEN_RE,
        q_ams_f2,
    )

    out = q_ams_f2(str(tmp_path)).set_index("lang")["f2_est"].to_dict()
    assert out == _brute_ams(texts, langs)
    for lang in ("en", "de"):
        cnt = Counter()
        for t, lg in zip(texts, langs):
            if lg == lang:
                cnt.update(_TOKEN_RE.findall(t))
        true_f2 = sum(v * v for v in cnt.values())
        assert true_f2 / 3 <= out[lang] <= true_f2 * 3


def test_ams_f2_reduce_exact_past_2_53():
    # z = 2^27 + 1 makes z² = 2^54 + 2^28 + 1: odd and above 2^54, so a
    # float64 median of z² lands on an even neighbour; both engines'
    # reduces over the same (lang, r, z) partials must return it exactly
    from pdf_ocr_comparison_tool_ray.pipelines.queries import (
        _AMS_R,
        _SQL_AMS_F2_REDUCE,
        _ams_f2_reduce,
    )

    z0 = 2**27 + 1
    rows = [("en", r, z) for r, z in enumerate([1, -2, 3, 4, -z0])]
    rows += [("en", r, z0 + r) for r in range(5, _AMS_R)]
    rows += [("en", 4, -5), ("en", 4, 5)]  # one estimator over two batches
    rows += [("de", r, -(z0 + 2)) for r in range(_AMS_R)]
    parts = pd.DataFrame(rows, columns=["lang", "r", "z"])

    got = _ams_f2_reduce(parts).set_index("lang")["f2_est"].to_dict()
    con = duckdb.connect()
    con.register("parts", parts)
    sql = con.sql(
        "WITH est AS (SELECT lang, r, CAST(sum(z) AS BIGINT) AS z "
        "FROM parts GROUP BY lang, r)" + _SQL_AMS_F2_REDUCE
    ).df()
    want = {"en": z0 * z0, "de": (z0 + 2) ** 2}
    assert got == want == dict(zip(sql["lang"], sql["f2_est"]))


def test_max_cover_ties_and_early_stop_match_sql(ray_session, tmp_path):
    # docs 7 and 4 tie on round-1 gain (3 new bigrams each): the smaller
    # doc_id wins; doc 9's bigrams are a subset of doc 7's and doc 2 has
    # none, so after two rounds no gain >= 1 is left and the greedy loop
    # stops before _MAXCOV_K
    from pdf_ocr_comparison_tool_ray.pipelines.queries import (
        _MAXCOV_K,
        q_max_cover_select,
        _sql_max_cover,
    )

    pd.DataFrame(
        {
            "doc_id": [7, 4, 9, 2],
            "text": [
                "alpha beta gamma delta",
                "eta theta iota kappa",
                "Alpha beta gamma",
                "lonely",
            ],
        }
    ).to_parquet(tmp_path / "documents.parquet")

    got = q_max_cover_select(str(tmp_path))
    want = _oracle(str(tmp_path), _sql_max_cover())
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), want[got.columns].reset_index(drop=True)
    )
    assert len(got) == 2 < _MAXCOV_K
    assert got[["doc_id", "gain"]].values.tolist() == [[4, 3], [7, 3]]
