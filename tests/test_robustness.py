"""Edge-case robustness: block-split detection in the shuffle-free
reassembly, empty-block schema stability in union/groupby stages,
checkpoint fingerprint sensitivity, deep Count-Min rows."""

import hashlib
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from pdf_ocr_comparison_tool_ray.functions.hll import (
    _cm_hashes,
    cm_add_many,
    cm_estimate,
    cm_init,
)
from pdf_ocr_comparison_tool_ray.stages.reassemble import reassemble_batch_local

_SPAN_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("kind", pa.string()),
        ("text", pa.string()),
        ("media_ref", pa.string()),
        ("offset", pa.int32()),
        ("route", pa.string()),
        ("score", pa.float64()),
    ]
)


def _span_rows(doc_id, offsets):
    return [
        {
            "doc_id": doc_id,
            "kind": "text",
            "text": f"t{o}",
            "media_ref": "",
            "offset": o,
            "route": "native",
            "score": 1.0,
        }
        for o in offsets
    ]


def test_local_reassembly_guard_detects_split_document():
    """A block holding only the tail fragment of a document (offsets not
    starting at 0 — what dynamic block splitting produces) must raise."""
    tail = pa.Table.from_pylist(_span_rows("d1", [3, 4, 5]), schema=_SPAN_SCHEMA)
    with pytest.raises(ValueError, match="split across blocks"):
        reassemble_batch_local(tail, expect_dense_offsets=True)


def test_local_reassembly_guard_detects_gap():
    gap = pa.Table.from_pylist(_span_rows("d1", [0, 1, 3]), schema=_SPAN_SCHEMA)
    with pytest.raises(ValueError, match="split across blocks"):
        reassemble_batch_local(gap, expect_dense_offsets=True)


def test_local_reassembly_guard_passes_dense_docs():
    ok = pa.Table.from_pylist(
        _span_rows("d1", [2, 0, 1]) + _span_rows("d0", [1, 0]), schema=_SPAN_SCHEMA
    )
    out = reassemble_batch_local(ok, expect_dense_offsets=True)
    df = out.to_pandas()
    assert df[df["doc_id"] == "d1"]["seq"].tolist() == [0, 1, 2]
    # guard off: same rows accepted with arbitrary offsets
    loose = pa.Table.from_pylist(_span_rows("d1", [10, 99]), schema=_SPAN_SCHEMA)
    assert len(reassemble_batch_local(loose)) == 2


@pytest.mark.usefixtures("ray_session")
def test_classify_cascade_homogeneous_blocks():
    """Blocks where the filter leaves NO confident (or no doubtful) rows
    must still union cleanly — null-typed empty columns would break the
    block-schema equality requirement."""
    from pdf_ocr_comparison_tool_ray.config import DOCUMENT_TYPES_EN
    from pdf_ocr_comparison_tool_ray.stages.classify_cascade import classify_cascade

    kw = next(iter(DOCUMENT_TYPES_EN.values()))["keywords"][0]
    # many small blocks: some all-confident (keyword-rich), some all-doubtful
    rows = [{"doc_id": i, "text": (kw + " ") * 30} for i in range(8)]
    rows += [{"doc_id": 100 + i, "text": "zz qq ww"} for i in range(8)]
    ds = ray.data.from_pandas(pd.DataFrame(rows)).repartition(8)
    out = classify_cascade(ds, doc_types=DOCUMENT_TYPES_EN).to_pandas()
    assert len(out) == 16
    assert set(out["classifier"]) == {"rule", "llm"}


def test_nest_batch_empty_block():
    from pdf_ocr_comparison_tool_ray.pipelines.sinks import _nest_batch

    empty = pa.schema(
        [
            ("doc_id", pa.string()),
            ("seq", pa.int32()),
            ("kind", pa.string()),
            ("text", pa.string()),
            ("media_ref", pa.string()),
            ("route", pa.string()),
            ("score", pa.float64()),
        ]
    ).empty_table()
    out = _nest_batch(empty)
    assert len(out) == 0
    assert out.schema.field("spans").type.value_type.field("offset").type == pa.int32()


def test_input_fingerprint_same_second_rewrite(tmp_path):
    from pdf_ocr_comparison_tool_ray.state.checkpoint import input_fingerprint

    f = tmp_path / "in.parquet"
    f.write_bytes(b"x" * 64)
    st = os.stat(f)
    fp1 = input_fingerprint(str(f))
    # same byte size, same whole second, different nanoseconds
    os.utime(f, ns=(st.st_atime_ns, st.st_mtime_ns + 1))
    fp2 = input_fingerprint(str(f))
    assert fp1 != fp2


def test_completed_partitions_missing_fp_is_stale(tmp_path):
    import json

    from pdf_ocr_comparison_tool_ray.state.checkpoint import completed_partitions

    out = tmp_path / "out"
    (out / "_manifest").mkdir(parents=True)
    (out / "part-00000.parquet").write_bytes(b"pq")
    (out / "_manifest" / "p0.json").write_text(
        json.dumps({"partition": 0, "file": "part-00000.parquet"})
    )
    # no fingerprint requested -> data file present counts as done
    assert completed_partitions(str(out)) == [0]
    # fingerprint requested but manifest has none -> cannot verify, stale
    assert completed_partitions(str(out), input_fp="abc") == []


def test_cm_deep_rows_are_independent():
    """depth > 4 rows must not all collapse to column 0."""
    width = 512
    cols = np.array([_cm_hashes(f"v{i}", 6, width)[4:] for i in range(50)])
    assert (cols != 0).any()
    assert len({tuple(c) for c in cols}) > 40  # distinct values hash apart
    sk = cm_init(depth=6, width=width)
    cm_add_many(sk, [f"v{i % 7}" for i in range(70)])
    for i in range(7):
        assert cm_estimate(sk, f"v{i}") >= 10  # upper-bound property holds


@pytest.mark.usefixtures("ray_session")
def test_bucketed_equi_join_inner_left_and_collisions():
    from pdf_ocr_comparison_tool_ray.stages.bucketed import bucketed_equi_join

    left = ray.data.from_pandas(
        pd.DataFrame({"k": [1, 2, 3, 4], "v": [10, 20, 30, 40], "tag": list("abcd")})
    ).repartition(3)
    right = ray.data.from_pandas(
        pd.DataFrame({"k": [2, 2, 3, 9], "v": [200, 201, 300, 900], "w": [5, 6, 7, 8]})
    ).repartition(2)

    inner = (
        bucketed_equi_join(left, right, on="k", how="inner", n_buckets=4)
        .to_pandas()
        .sort_values(["k", "v_r"])
        .reset_index(drop=True)
    )
    # k=2 joins twice, k=3 once; right 'v' collides -> suffixed
    assert inner["k"].tolist() == [2, 2, 3]
    assert inner["v"].tolist() == [20, 20, 30]
    assert inner["v_r"].tolist() == [200, 201, 300]
    assert inner["w"].tolist() == [5, 6, 7]

    outer = (
        bucketed_equi_join(left, right, on="k", how="left", n_buckets=4)
        .to_pandas()
        .sort_values(["k", "v_r"])
        .reset_index(drop=True)
    )
    assert len(outer) == 5  # 1,4 unmatched + the three inner rows
    unmatched = outer[outer["w"].isna()]
    assert sorted(unmatched["k"].tolist()) == [1, 4]


@pytest.mark.usefixtures("ray_session")
def test_bucketed_equi_join_outer_modes():
    from pdf_ocr_comparison_tool_ray.stages.bucketed import bucketed_equi_join

    left = ray.data.from_pandas(pd.DataFrame({"k": [1, 2], "a": [10, 20]}))
    right = ray.data.from_pandas(pd.DataFrame({"k": [2, 3], "b": [200, 300]}))
    full = (
        bucketed_equi_join(left, right, on="k", how="outer", n_buckets=4)
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert full["k"].tolist() == [1, 2, 3]
    assert full.loc[full["k"] == 3, "a"].isna().all()
    assert full.loc[full["k"] == 1, "b"].isna().all()
    rj = (
        bucketed_equi_join(left, right, on="k", how="right", n_buckets=4)
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert rj["k"].tolist() == [2, 3]
    # a fully matched block still promotes the null-fillable int64 side,
    # values above 2^53 included
    big = pd.DataFrame({"k": [2, 3], "big": [1 << 60, (1 << 60) + 1]})
    lj = bucketed_equi_join(
        ray.data.from_pandas(pd.DataFrame({"k": [2]})),
        ray.data.from_pandas(big),
        on="k",
        how="left",
        n_buckets=4,
    ).to_pandas()
    assert lj["big"].tolist() == [float(1 << 60)]


def _co_partition_seen(key: str):
    """A co_partition kernel that reports, per key, the rows it saw on
    each side (exact int64 payloads as text) and the frames' dtypes."""

    def kernel(l: pd.DataFrame, r: pd.DataFrame) -> pd.DataFrame:
        def vs(df):
            return df.groupby(key)["v"].agg(lambda x: ",".join(map(str, sorted(x))))

        def cols(df):
            return ",".join(f"{c}:{t}" for c, t in df.dtypes.items())

        keys = pd.Series(sorted(set(l[key]) | set(r[key])), dtype=l[key].dtype)
        return pd.DataFrame(
            {
                key: keys,
                "l_vs": keys.map(vs(l)).fillna("").astype(str),
                "r_vs": keys.map(vs(r)).fillna("").astype(str),
                "l_cols": cols(l),
                "r_cols": cols(r),
            }
        )

    return kernel


@pytest.mark.usefixtures("ray_session")
def test_co_partition_contract():
    """``co_partition`` hands each kernel call only its own side's
    columns, under their own names and dtypes (int64 above 2^53 intact,
    a name present on both sides kept apart), and every key reaches
    exactly one call — for an int64 and a string key, more buckets than
    keys, and blocks holding one side only.  A zero-row side that keeps
    its schema works; a side with no schema raises."""
    from pdf_ocr_comparison_tool_ray.stages.bucketed import co_partition

    rng = np.random.RandomState(5)
    big = 1 << 60
    ldf = pd.DataFrame(
        {
            "k": big + rng.randint(0, 12, size=80),
            "s": [f"κ{x}" for x in rng.randint(0, 15, size=80)],
            "v": big + np.arange(80, dtype=np.int64),
            "only_l": rng.rand(80),
        }
    )
    rdf = pd.DataFrame(
        {
            "k": big + rng.randint(6, 20, size=50),
            "s": [f"κ{x}" for x in rng.randint(10, 25, size=50)],
            "v": big + 1000 + np.arange(50, dtype=np.int64),
            "only_r": [f"r{i}" for i in range(50)],
        }
    )
    left = ray.data.from_pandas(ldf).repartition(4)
    right = ray.data.from_pandas(rdf).repartition(3)
    right_empty = right.map_batches(
        lambda t: t.slice(0, 0), batch_format="pyarrow"
    )

    for key in ("k", "s"):
        for r_ds, r_df in ((right, rdf), (right_empty, rdf.iloc[:0])):
            got = co_partition(left, r_ds, key, _co_partition_seen(key)).to_pandas()
            assert not got[key].duplicated().any()  # one call per key
            assert set(got["l_cols"]) == {
                "k:int64,s:object,v:int64,only_l:float64"
            }
            assert set(got["r_cols"]) == {"k:int64,s:object,v:int64,only_r:object"}
            # pandas reference: the same kernel, once, over whole frames
            want = _co_partition_seen(key)(ldf, r_df)[[key, "l_vs", "r_vs"]]
            got = got.sort_values(key).reset_index(drop=True)
            pd.testing.assert_frame_equal(got[want.columns], want)

    with pytest.raises(ValueError, match="empty Dataset"):
        co_partition(left, ray.data.from_items([]), "k", _co_partition_seen("k"))


@pytest.mark.usefixtures("ray_session")
def test_asof_join_backward_one_sided_blocks():
    """``asof_join_backward`` over users with events only, users with
    orders only, and sides filtered to zero rows (every block then holds
    one side): typed output and NaN matches equal a brute-force
    backward as-of reference."""
    from pdf_ocr_comparison_tool_ray.stages.asof import asof_join_backward

    rng = np.random.RandomState(9)
    t0 = np.datetime64("2024-01-01T00:00:00", "us")
    ev = pd.DataFrame(
        {
            "event_id": np.arange(60, dtype=np.int64),
            "user_id": rng.randint(0, 15, size=60).astype(np.int64),
            "ts": t0 + rng.randint(0, 100, size=60).astype("timedelta64[s]"),
        }
    )
    od = pd.DataFrame(
        {
            "user_id": np.r_[rng.randint(0, 10, 30), rng.randint(15, 20, 10)],
            "o_ts": t0 + rng.randint(0, 100, size=40).astype("timedelta64[s]"),
            "cents": rng.randint(0, 1000, size=40).astype(np.int64),
        }
    )

    def reference(l: pd.DataFrame, r: pd.DataFrame) -> list:
        out = []
        for e in l.itertuples():
            m = r[(r["user_id"] == e.user_id) & (r["o_ts"] <= e.ts)]
            m = m[m["o_ts"] == m["o_ts"].max()]
            out.append((e.event_id, float(m["cents"].max()) if len(m) else None))
        return sorted(out)

    left = ray.data.from_pandas(ev).repartition(4)
    right = ray.data.from_pandas(od).repartition(3)
    none = lambda t: t.slice(0, 0)  # noqa: E731
    cases = (
        (left, right, ev, od),
        (left, right.map_batches(none, batch_format="pyarrow"), ev, od.iloc[:0]),
        (left.map_batches(none, batch_format="pyarrow"), right, ev.iloc[:0], od),
    )
    for l_ds, r_ds, l_df, r_df in cases:
        got = asof_join_backward(
            l_ds,
            r_ds,
            key="user_id",
            left_ts="ts",
            right_ts="o_ts",
            left_cols=["event_id"],
            right_val="cents",
        ).to_pandas()
        want = reference(l_df, r_df)
        assert len(got) == len(want)
        if want:
            assert got.dtypes.astype(str).to_dict() == {
                "user_id": "int64",
                "event_id": "int64",
                "ts_us": "int64",
                "cents": "float64",
            }
        pairs = sorted(
            (e, None if np.isnan(c) else c)
            for e, c in zip(got.get("event_id", []), got.get("cents", []))
        )
        assert pairs == want


@pytest.mark.usefixtures("ray_session")
def test_bucketed_map_groups_property():
    """The bucket-wise co-partition must equal a plain per-key
    groupby-apply for any per-key computation, regardless of block
    layout or bucket count (hypothesis over random frames)."""
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    from pdf_ocr_comparison_tool_ray.stages.bucketed import bucketed_map_groups

    @st.composite
    def frames(draw):
        n = draw(st.integers(1, 60))
        keys = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
        vals = draw(st.lists(st.integers(-100, 100), min_size=n, max_size=n))
        return pd.DataFrame({"k": keys, "v": vals})

    def per_key(df):
        out = df.groupby("k", as_index=False).agg(
            s=("v", "sum"), mn=("v", "min"), n=("v", "size")
        )
        out["n"] = out["n"].astype("int64")
        return out

    @settings(max_examples=8, deadline=None, suppress_health_check=list(HealthCheck))
    @given(frames(), st.integers(1, 7), st.integers(1, 5))
    def check(df, n_buckets, n_blocks):
        ds = ray.data.from_pandas(df).repartition(n_blocks)
        got = (
            bucketed_map_groups(ds, "k", per_key, n_buckets=n_buckets)
            .to_pandas()
            .sort_values("k")
            .reset_index(drop=True)
        )
        want = per_key(df).sort_values("k").reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want, check_dtype=False)

    check()


@pytest.mark.usefixtures("ray_session")
def test_bucketed_map_groups_calls_once_per_sorted_block():
    """The call shape: ``bucket_fn`` runs once per non-empty sorted
    block (one or more whole buckets), not once per bucket, and never
    on an empty frame."""
    from pdf_ocr_comparison_tool_ray.stages.bucketed import bucketed_map_groups

    def seen(df: pd.DataFrame) -> pd.DataFrame:
        # one row per call: how many rows, and which keys it saw
        return pd.DataFrame(
            {
                "n": [len(df)],
                "keys": [",".join(str(k) for k in sorted(set(df["k"])))],
            }
        )

    n_blocks, n_buckets = 4, 64
    df = pd.DataFrame({"k": np.arange(300) % 150, "v": np.arange(300)})
    ds = ray.data.from_pandas(df).repartition(n_blocks)
    calls = bucketed_map_groups(ds, "k", seen, n_buckets=n_buckets).to_pandas()

    assert 1 <= len(calls) <= n_blocks < n_buckets
    per_call = [s.split(",") for s in calls["keys"]]
    keys = [int(k) for ks in per_call for k in ks]
    assert sorted(keys) == list(range(150))  # every key in exactly one call
    assert calls["n"].sum() == len(df)  # ...with all of its rows

    empty = ray.data.from_pandas(df.iloc[:0]).repartition(n_blocks)
    assert bucketed_map_groups(empty, "k", seen, n_buckets=n_buckets).count() == 0


@pytest.mark.usefixtures("ray_session")
def test_size_routed_join_routes_agree(monkeypatch):
    """size_routed_join's broadcast and co-partition routes run one
    kernel, so every join form returns equal rows and dtypes on both:
    int64 payloads past 2^53, a two-column key, duplicate right keys
    (never duplicating a left row under semi), and a right side
    filtered to no rows."""
    from pdf_ocr_comparison_tool_ray.stages import bucketed as B

    big = 1 << 60
    ldf = pd.DataFrame(
        {
            "a": [1, 1, 2, 2, 3, 9],
            "b": ["x", "y", "x", "x", "y", "x"],
            "v": big + np.arange(6, dtype=np.int64),
        }
    )
    rdf = pd.DataFrame(
        {
            "a": [1, 1, 2, 4],
            "b": ["x", "x", "x", "x"],
            "w": big + np.arange(4, dtype=np.int64),
            "v": [7, 8, 9, 10],
        }
    )
    left = ray.data.from_pandas(ldf).repartition(3)
    right = ray.data.from_pandas(rdf).repartition(2)
    empty = right.filter(lambda r: False).materialize()
    keys = ["a", "b"]

    def both_routes(r, how):
        out = []
        for cap in (len(rdf), -1):  # broadcast, then co-partition
            monkeypatch.setattr(B, "BROADCAST_MAX_ROWS", cap)
            df = B.size_routed_join(left, r, keys, how).to_pandas()
            out.append(df.sort_values(list(df.columns)).reset_index(drop=True))
        if len(out[0]) or len(out[1]):
            pd.testing.assert_frame_equal(out[0], out[1])
        return out[0]

    def norm(df):
        return df.sort_values(list(df.columns)).reset_index(drop=True)

    for how in ("inner", "left"):
        want = norm(
            ldf.merge(rdf.rename(columns={"v": "v_r"}), on=keys, how=how)
        )
        got = both_routes(right, how)
        assert len(got) == {"inner": 4, "left": 7}[how]
        assert got["v"].dtype == np.int64 and got["v"].tolist() == want["v"].tolist()
        if how == "inner":  # exact past 2^53: no float round-trip
            pd.testing.assert_frame_equal(got[want.columns], want)
        else:  # null-filled right columns promote to float64 in every block
            assert got["w"].dtype == got["v_r"].dtype == np.float64

    member = pd.MultiIndex.from_frame(ldf[keys]).isin(
        pd.MultiIndex.from_frame(rdf[keys])
    )
    for how, rows in (("semi", member), ("anti", ~member)):
        got = both_routes(right, how)
        pd.testing.assert_frame_equal(got, norm(ldf[rows]))

    assert len(both_routes(empty, "semi")) == 0
    pd.testing.assert_frame_equal(both_routes(empty, "anti"), norm(ldf))
    if empty.schema() is None:
        for cap in (len(rdf), -1):
            monkeypatch.setattr(B, "BROADCAST_MAX_ROWS", cap)
            for how in ("inner", "left"):
                with pytest.raises(ValueError, match="empty Dataset"):
                    B.size_routed_join(left, empty, keys, how)

    for how in ("right", "outer"):
        with pytest.raises(ValueError, match="inner/left/semi/anti"):
            B.size_routed_join(left, right, keys, how)


@pytest.mark.usefixtures("ray_session")
def test_driver_finish_routes_agree(tmp_path, monkeypatch):
    """bucketed_topk (through keyword_topk and heavy_hitters) and
    exact_dedup finish an input of at most DRIVER_MAX_BYTES on the
    driver and shuffle a larger one.  Both routes run one kernel, so
    they return equal frames and dtypes on an empty table, one row,
    all-equal texts and an int32 doc_id, and an empty table keeps
    each op's declared columns."""
    import pyarrow.parquet as pq

    from pdf_ocr_comparison_tool_ray.pipelines import queries as Q
    from pdf_ocr_comparison_tool_ray.stages import bucketed as B

    corpora = {
        "empty": ([], pa.int64()),
        "one_row": (["alpha beta gamma"], pa.int64()),
        "all_equal": (["spam eggs spam eggs"] * 7, pa.int64()),
        "int32": (
            [f"w{i % 5} common x{i % 3} common tail{i}" for i in range(40)],
            pa.int32(),
        ),
    }
    ops = {
        "keyword_topk": (Q.q_keyword_topk, ["keyword", "occurrences"]),
        "heavy_hitters": (Q.q_heavy_hitters, ["tok", "cnt"]),
        "exact_dedup": (Q.q_exact_dedup, ["content_key", "doc_id", "dup_count"]),
    }
    for name, (texts, id_type) in corpora.items():
        d = tmp_path / name
        d.mkdir()
        pq.write_table(
            pa.table(
                {
                    "doc_id": pa.array(range(1, len(texts) + 1), type=id_type),
                    "text": pa.array(texts, type=pa.string()),
                }
            ),
            d / "documents.parquet",
        )
        for op, (fn, cols) in ops.items():
            got = []
            for cap in (B.DRIVER_MAX_BYTES, -1):  # driver, then shuffle
                shuffles = []
                with monkeypatch.context() as m:
                    m.setattr(B, "DRIVER_MAX_BYTES", cap)
                    m.setattr(
                        B,
                        "_sort_buckets",
                        lambda *a, _f=B._sort_buckets, **k: (
                            shuffles.append(a) or _f(*a, **k)
                        ),
                    )
                    df = fn(str(d))
                assert bool(shuffles) == (cap < 0), (name, op, cap)
                assert list(df.columns) == cols, (name, op, cap)
                got.append(df.sort_values(cols).reset_index(drop=True))
            pd.testing.assert_frame_equal(got[0], got[1], obj=f"{name}/{op}")
            assert len(got[0]) or name == "empty", (name, op)
            if op == "exact_dedup":
                assert got[0]["doc_id"].dtype == id_type.to_pandas_dtype()


@pytest.mark.usefixtures("ray_session")
def test_bucketed_equi_join_semi_anti():
    """semi/anti: left rows filtered by right-key existence; left schema
    and dtypes untouched (no null-fill promotion), duplicate right keys
    do NOT duplicate left rows, duplicate left rows all survive."""
    import numpy as np

    from pdf_ocr_comparison_tool_ray.stages.bucketed import bucketed_equi_join

    rng = np.random.RandomState(3)
    ldf = pd.DataFrame(
        {
            "k": rng.randint(0, 20, size=60),
            "v": np.arange(60, dtype=np.int64),
            "big": (1 << 60) + np.arange(60, dtype=np.int64),  # >2^53
        }
    )
    rdf = pd.DataFrame({"k": [1, 1, 3, 5, 7, 9, 11, 13, 42]})
    left = ray.data.from_pandas(ldf).repartition(3)
    right = ray.data.from_pandas(rdf).repartition(2)

    for how in ("semi", "anti"):
        got = (
            bucketed_equi_join(left, right, on="k", how=how, n_buckets=4)
            .to_pandas()
            .sort_values("v")
            .reset_index(drop=True)
        )
        member = ldf["k"].isin(rdf["k"])
        want = (
            ldf[member if how == "semi" else ~member]
            .sort_values("v")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got[want.columns], want), how
        assert got["big"].dtype == np.int64  # no float64 round-trip

    with pytest.raises(ValueError, match="semi/anti"):
        bucketed_equi_join(left, right, on="k", how="cross")


@pytest.mark.usefixtures("ray_session")
def test_semi_anti_join_tolerates_empty_blocks():
    """Repartitioning past the row count creates EMPTY blocks; the
    semi/anti taggers must keep explicit arrow types so those blocks'
    schemas match (an untyped pa.array([]) infers type null)."""
    from pdf_ocr_comparison_tool_ray.stages.bucketed import bucketed_equi_join

    left = ray.data.from_pandas(
        pd.DataFrame({"k": [1, 2, 3], "v": [10, 20, 30]})
    ).repartition(8)
    right = ray.data.from_pandas(pd.DataFrame({"k": [2, 9]})).repartition(6)

    semi = bucketed_equi_join(left, right, on="k", how="semi").to_pandas()
    anti = bucketed_equi_join(left, right, on="k", how="anti").to_pandas()
    assert sorted(semi["k"]) == [2] and sorted(anti["k"]) == [1, 3]
    assert semi["v"].dtype == anti["v"].dtype == "int64"


@pytest.mark.usefixtures("ray_session")
def test_bucketed_join_empty_side_behavior():
    """A fully-empty Dataset reports schema() None; the join must not
    AttributeError (review finding).  semi/anti degrade gracefully —
    their output schema is the left's alone; the merge forms raise a
    descriptive error because the joined columns are unconstructable."""
    from pdf_ocr_comparison_tool_ray.stages.bucketed import bucketed_equi_join

    left = ray.data.from_pandas(
        pd.DataFrame({"k": [1, 2, 3], "v": [10, 20, 30]})
    )
    # an empty dataset whose schema Ray has dropped
    empty = ray.data.from_pandas(
        pd.DataFrame({"k": [99], "v": [0]})
    ).filter(lambda r: False).materialize()
    assert empty.schema() is None or empty.count() == 0

    anti = bucketed_equi_join(left, empty, on="k", how="anti").to_pandas()
    assert sorted(anti["k"].tolist()) == [1, 2, 3]
    semi = bucketed_equi_join(left, empty, on="k", how="semi").to_pandas()
    assert len(semi) == 0
    if empty.schema() is None:
        with pytest.raises(ValueError, match="empty Dataset"):
            bucketed_equi_join(left, empty, on="k", how="left")
