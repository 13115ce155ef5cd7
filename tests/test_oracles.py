"""In-suite oracle parity: a fast subset of the DuckDB-checked queries at
sf0.001, using the same compare the driver-mirror script uses.  The full
suite runs via ``python scripts/check_queries.py /root/testdata/sf0.01``."""

import os
import sys

import duckdb
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "scripts"))

SF = "/root/testdata/sf0.001"

FAST_QUERIES = [
    "normalize_hash",
    "classify_documents",
    "lang_id",
    "events_daily",
    "timeline",
    "rolling_user_value",
    "order_events_1d",
    "hash_sample",
    "split_runs",
    "customers_without_orders",
    "asof_event_order",
    "region_revenue",
    "pii_redact",
    "tfidf_topk",
    "inverted_index",
    "value_histogram",
    "stratified_sample",
    "user_value_quantiles",
    "near_dedup_keep",
    "subword_token_stats",
    "top_tokens_by_lang",
    # round-5 SemDeDup (cluster-based semantic dedup) + DSIR selection
    "semdedup",
    "dsir_select",
    # round-4 breadth
    "paragraph_dedup",
    "pack_sequences",
    "bigram_logprob",
    "knn_filtered",
    "domain_quota_sample",
    # round-5 continuation: BM25 ranked retrieval + exact SSJoin
    "bm25_topk",
    "set_similarity_join",
]


@pytest.fixture(scope="module")
def duck():
    from check_queries import TABLES

    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')"
        )
    yield con
    con.close()


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize(
    "name,block_bytes",
    [
        pytest.param(n, b, id=n if b is None else f"{n}-many_blocks")
        for b in (None, 1)
        for n in FAST_QUERIES
    ],
)
def test_query_matches_oracle(name, block_bytes, duck, monkeypatch):
    """Each op against its oracle at two read sizings: the default (the
    sf0.001 tables read as 1-3 blocks) and ``READ_BLOCK_BYTES = 1``,
    which sends every table to the 2x CPU block cap so that merges of
    partials across batches and blocks stay covered."""
    from check_queries import compare, to_df

    from pdf_ocr_comparison_tool_ray.pipelines import queries as Q
    from pdf_ocr_comparison_tool_ray.pipelines.queries import SQL_QUERIES

    if block_bytes is not None:
        monkeypatch.setattr(Q, "READ_BLOCK_BYTES", block_bytes)
    fn, sql = SQL_QUERIES[name]
    ray_df = to_df(fn(SF))
    sql_df = duck.execute(sql).df()
    assert compare(name, ray_df, sql_df), f"{name} diverged from its oracle"


@pytest.mark.usefixtures("ray_session")
def test_read_block_count_follows_bytes(tmp_path):
    """``_read`` cuts one block per ``READ_BLOCK_BYTES`` of parquet file,
    at least 1 and at most 2x cluster CPUs."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from pdf_ocr_comparison_tool_ray.pipelines.queries import READ_BLOCK_BYTES, _read

    rng = np.random.default_rng(0)
    row_bytes = 1024

    def write(table: str, kib: float) -> int:
        # random payloads do not compress: file bytes ~ row bytes
        n = int(kib * 1024) // row_bytes
        blobs = [rng.bytes(row_bytes) for _ in range(n)]
        pq.write_table(pa.table({"id": np.arange(n), "blob": blobs}),
                       tmp_path / f"{table}.parquet")
        return (tmp_path / f"{table}.parquet").stat().st_size

    def blocks(table: str) -> int:
        return _read(str(tmp_path), table).materialize().num_blocks()

    assert write("tiny", 2) < READ_BLOCK_BYTES
    assert blocks("tiny") == 1

    k = 3
    size = write("k_blocks", (k - 0.5) * READ_BLOCK_BYTES / 1024)
    assert (k - 1) * READ_BLOCK_BYTES < size <= k * READ_BLOCK_BYTES
    assert blocks("k_blocks") == k

    cap = 2 * int(ray.cluster_resources()["CPU"])
    assert write("huge", 4 * cap * READ_BLOCK_BYTES / 1024) > cap * READ_BLOCK_BYTES
    assert blocks("huge") == cap


@pytest.mark.usefixtures("ray_session")
def test_exact_match_join_paths_equivalent(monkeypatch):
    """The size-routed exact-match join must produce identical pairs on
    both physical plans: broadcast index (small build) and co-partition
    equi-join (build side above the broadcast cap)."""
    from check_queries import to_df

    from pdf_ocr_comparison_tool_ray.pipelines.queries import q_exact_match_join
    from pdf_ocr_comparison_tool_ray.stages import bucketed as B

    def run():
        df = to_df(q_exact_match_join(SF))
        return (
            df.sort_values(["source_doc_id", "target_doc_id"])
            .reset_index(drop=True)
        )

    broadcast = run()
    monkeypatch.setattr(B, "BROADCAST_MAX_ROWS", -1)
    shuffled = run()
    assert broadcast.equals(shuffled)
    assert len(broadcast) > 0


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize(
    "name",
    [
        "region_revenue",
        "nation_revenue",
        "supplier_nation_revenue",
        "customers_without_orders",
    ],
)
def test_region_revenue_routes_equivalent(monkeypatch, name):
    """The size-routed dim and anti joins: the broadcast route (right
    side under the cap — every test corpus) and the co-partition route,
    forced by dropping the cap, must agree on rows and dtypes."""
    import pandas as pd
    from check_queries import to_df

    from pdf_ocr_comparison_tool_ray.pipelines.queries import SQL_QUERIES
    from pdf_ocr_comparison_tool_ray.stages import bucketed as B

    fn = SQL_QUERIES[name][0]

    def run():
        df = to_df(fn(SF))
        return df.sort_values(list(df.columns)).reset_index(drop=True)

    broadcast = run()
    monkeypatch.setattr(B, "BROADCAST_MAX_ROWS", -1)
    bucketed = run()
    pd.testing.assert_frame_equal(bucketed[broadcast.columns], broadcast)
    assert len(broadcast) > 0
    if name == "region_revenue":
        assert len(broadcast) == 5  # all five regions present


@pytest.mark.usefixtures("ray_session")
def test_tfidf_routes_equivalent(monkeypatch):
    """tf-idf's size-routed df attach: broadcast lookup (vocab under the
    cap) vs bucketed token join (oversized vocab) must agree."""
    from check_queries import to_df

    from pdf_ocr_comparison_tool_ray.pipelines import queries as q_mod
    from pdf_ocr_comparison_tool_ray.stages import bucketed as B

    def run():
        return (
            to_df(q_mod.q_tfidf_topk(SF))
            .sort_values(["doc_id", "rk"])
            .reset_index(drop=True)
        )

    broadcast = run()
    monkeypatch.setattr(B, "BROADCAST_MAX_ROWS", -1)
    joined = run()
    import pandas as pd

    pd.testing.assert_frame_equal(joined[broadcast.columns], broadcast)
    assert len(broadcast) > 0


def test_exposed_query_surface_is_fifty():
    """``__ray_entry__`` exposes exactly 50 registry entries with their
    oracles, named opt-in in ``_EXPOSED``; a new registry op stays
    local-only until it is added there."""
    import __ray_entry__ as entry

    from pdf_ocr_comparison_tool_ray.pipelines.queries import SQL_QUERIES

    assert set(entry._EXPOSED) <= set(SQL_QUERIES)
    assert len(set(entry._EXPOSED)) == len(entry._EXPOSED) == 50
    assert set(entry.queries()) == set(entry.oracle_sql()) == {
        "extraction_pipeline", "compare_pipeline", "set_similarity_join",
        "embedding_dup_lsh", "semdedup", "streaming_dedup_ingest",
        "keyword_topk", "project_detect", "quality_quantile_filter",
        "classify_cascade", "order_items", "paragraph_dedup",
        "boilerplate_strip", "pack_sequences", "knn_filtered",
        "domain_quota_sample", "token_budget_select", "exactsubstr_dedup",
        "mix_resample", "dsir_select", "doc_repetition_stats",
        "frame_sample", "shuffle_shards", "decontam_frac", "pii_redact",
        "near_dedup_keep_best", "bpe_train", "perplexity_buckets",
        "approx_quantile_hist", "chunk_windows", "pmi_cooccur",
        "winnow_fingerprint", "bm25_topk", "pagerank", "gopher_filter",
        "chi2_keyness", "label_propagation", "kmeans", "pq_ann",
        "image_phash_dup", "textrank_keywords", "heavy_hitters",
        "containment_search", "dict_match", "edit_distance_join",
        "skyline_select", "zorder_layout", "upsert_merge",
        "jsd_source_drift", "naive_bayes_classify",
    }


_DICT_MATCH_AT_2_CPUS = """
import sys
import ray
ray.init(address="local", num_cpus=2, include_dashboard=False,
         logging_level="ERROR")
from pdf_ocr_comparison_tool_ray.pipelines.queries import q_dict_match
print(q_dict_match(sys.argv[1]).to_json(orient="records"))
ray.shutdown()
"""


def test_dict_match_finishes_at_two_cpus(duck):
    """dict_match holds no actor pool: at 2 logical CPUs the read and
    match tasks share the CPUs and the query finishes (an actor pool
    holding both CPUs starves the read task, and the query hangs)."""
    import signal
    import subprocess
    from io import StringIO

    import pandas as pd
    from check_queries import compare

    from pdf_ocr_comparison_tool_ray.pipelines.queries import SQL_DICT_MATCH

    root = os.path.join(os.path.dirname(__file__), "..")
    p = subprocess.Popen(
        [sys.executable, "-c", _DICT_MATCH_AT_2_CPUS, SF],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, start_new_session=True,
    )
    try:
        out, _ = p.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)  # the child's Ray processes too
        p.communicate()
        pytest.fail("q_dict_match did not finish in 120 s at 2 logical CPUs")
    assert p.returncode == 0
    got = pd.read_json(StringIO(out.strip().splitlines()[-1]), orient="records")
    assert compare("dict_match", got, duck.execute(SQL_DICT_MATCH).df())
