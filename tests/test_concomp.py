"""Distributed connected components vs union-find oracle, and the
cluster-canonical dedup filter."""

import random

import pandas as pd
import pytest
import ray.data

from pdf_ocr_comparison_tool_ray.stages.concomp import (
    dedup_keep_canonical,
    label_components,
    label_components_local,
)


def _pairs_ds(pairs):
    return ray.data.from_pandas(
        pd.DataFrame({"doc_a": [a for a, _ in pairs], "doc_b": [b for _, b in pairs]})
    )


def _clusters_from_ray(pairs, **kw):
    # local_threshold=0 forces the distributed star-rounds path (the
    # size router would otherwise send these tiny graphs to the driver
    # union-find, leaving the scale path untested)
    kw.setdefault("local_threshold", 0)
    df = label_components(_pairs_ds(pairs), **kw).to_pandas()
    return dict(zip(df["doc_id"], df["cluster_id"]))


@pytest.mark.usefixtures("ray_session")
def test_chain_needs_multiple_rounds():
    # a long chain is the worst case for naive propagation
    chain = [(f"n{i:03d}", f"n{i+1:03d}") for i in range(30)]
    got = _clusters_from_ray(chain)
    assert set(got.values()) == {"n000"}
    assert len(got) == 31


@pytest.mark.usefixtures("ray_session")
def test_random_graph_matches_union_find():
    rng = random.Random(7)
    nodes = [f"d{i:04d}" for i in range(120)]
    pairs = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(90)]
    pairs = [(a, b) for a, b in pairs if a != b]
    oracle = label_components_local(pairs)
    got = _clusters_from_ray(pairs)
    assert got == oracle


@pytest.mark.usefixtures("ray_session")
def test_dedup_keep_canonical():
    docs = ray.data.from_pandas(
        pd.DataFrame({"doc_id": [f"x{i}" for i in range(10)]})
    )
    # clusters: {x0,x1,x2} (chain), {x5,x7}; rest untouched
    pairs = _pairs_ds([("x0", "x1"), ("x1", "x2"), ("x7", "x5")])
    kept = sorted(dedup_keep_canonical(docs, pairs).to_pandas()["doc_id"])
    assert kept == ["x0", "x3", "x4", "x5", "x6", "x8", "x9"]
    # route equivalence: forced co-partition plan picks the same set
    kept_co = sorted(
        dedup_keep_canonical(docs, pairs, broadcast_cap=-1).to_pandas()["doc_id"]
    )
    assert kept_co == kept
    # no pairs, or pairs naming no corpus doc: an empty member side on
    # the forced co-partition route keeps every doc
    absent = _pairs_ds([("y0", "y1")])
    for none in (absent.filter(lambda r: False), absent):
        kept_none = dedup_keep_canonical(docs, none, broadcast_cap=-1).to_pandas()
        assert sorted(kept_none["doc_id"]) == [f"x{i}" for i in range(10)]


@pytest.mark.usefixtures("ray_session")
def test_label_components_size_router_paths_agree():
    """The driver union-find route (small edge sets) and the star-rounds
    route must emit identical membership rows."""
    rng = random.Random(3)
    nodes = [f"m{i:03d}" for i in range(60)]
    pairs = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(45)]
    pairs = [(a, b) for a, b in pairs if a != b]
    local = _clusters_from_ray(pairs, local_threshold=10**6)
    distributed = _clusters_from_ray(pairs, local_threshold=0)
    assert local == distributed


@pytest.mark.usefixtures("ray_session")
def test_dedup_keep_best_random_graphs_match_local_reference():
    """Both keep-best routes vs an independent union-find + argmax
    reference over random graphs and random qualities (numeric ids, so
    the numeric tie-break path is the one exercised — the oracle's
    BIGINT ordering)."""
    from pdf_ocr_comparison_tool_ray.stages.concomp import dedup_keep_best

    rng = random.Random(11)
    for trial in range(3):
        n = 40
        ids = [str(i) for i in range(n)]
        quality = {d: rng.randrange(1, 6) for d in ids}  # dense ties
        pairs = []
        for _ in range(25):
            a, b = rng.choice(ids), rng.choice(ids)
            if a != b:
                pairs.append((a, b))
        # local reference: union-find clusters, winner = (max quality,
        # min numeric id), survivors = everyone except non-winner members
        labels = label_components_local(pairs)
        clusters = {}
        for d, c in labels.items():
            clusters.setdefault(c, []).append(d)
        drop = set()
        for mems in clusters.values():
            win = min(mems, key=lambda d: (-quality[d], int(d)))
            drop.update(m for m in mems if m != win)
        expect = sorted(set(ids) - drop, key=int)

        docs = ray.data.from_pandas(
            pd.DataFrame({"doc_id": ids, "n_chars": [quality[d] for d in ids]})
        )
        for cap in (2_000_000, -1):
            got = dedup_keep_best(
                docs, _pairs_ds(pairs), broadcast_cap=cap
            ).to_pandas()
            assert sorted(got["doc_id"], key=int) == expect, (trial, cap)
            assert dict(zip(got["doc_id"], got["quality"])) == {
                d: quality[d] for d in expect
            }
    # forced co-partition route: pairs naming no corpus doc leave an empty
    # member-winner side, which keeps every doc
    got = dedup_keep_best(docs, _pairs_ds([("y0", "y1")]), broadcast_cap=-1)
    assert sorted(got.to_pandas()["doc_id"], key=int) == sorted(ids, key=int)
