"""Similarity search over an embedding column.

* ``knn_cosine`` — brute-force cosine top-k: the query matrix is tiny
  and broadcast once via ``ray.put``; every batch computes a numpy
  matmul against it and emits only its LOCAL top-k per query (the
  combiner).  The partial rows are bounded by construction at
  ``n_blocks * num_queries * k``, so the final reduce runs on the
  driver (the HLL-partials pattern) — no shuffle at all.  The full
  similarity matrix never materializes.
* ``knn_cosine_ivf`` — the scale path: coarse k-means-style centroids
  (sampled, deterministic) assign every vector to a cell; queries probe
  only the ``nprobe`` nearest cells, so per-batch work drops by
  ~``ncells/nprobe``.

Both run as TASK-pool ``map_batches`` with the broadcast state fetched
through a per-worker memo: warm workers fetch + prep the query state
once, with none of the per-call actor-pool spin-up an actor stage pays
(measured ~3x on short runs).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray
import ray.data


def _unit(mat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return mat / norms


def _topk_frame(q_id_arr, out_qi, out_v, out_s, id_dtype) -> pd.DataFrame:
    """dtype-stable partial frame: empty batches / no-probe batches must
    emit the SAME schema as full ones (object-typed empty columns would
    otherwise diverge block schemas)."""
    return pd.DataFrame(
        {
            "query_id": q_id_arr[np.asarray(out_qi, dtype=np.int64)],
            "vec_id": np.asarray(out_v, dtype=id_dtype),
            "cosine": np.asarray(out_s, dtype=np.float64),
        }
    )


from .broadcast import broadcast_get


def _brute_state(queries_ref):
    return broadcast_get(
        queries_ref,
        build=lambda q: (
            np.asarray(q["query_id"]),
            _unit(np.asarray(q["matrix"], dtype=np.float64)),
        ),
    )


def _ivf_state(queries_ref, centroids_ref, nprobe: int):
    def build(q):
        q_id_arr = np.asarray(q["query_id"])
        q_unit = _unit(np.asarray(q["matrix"], dtype=np.float64))
        centroids = ray.get(centroids_ref)
        sims = q_unit @ centroids.T
        order = np.argsort(-sims, axis=1)[:, :nprobe]
        probed = [set(row.tolist()) for row in order]
        return (q_id_arr, q_unit, centroids, probed)

    return broadcast_get(queries_ref, build=build, key=(centroids_ref, nprobe))


def _reduce_topk_all(partial_df: pd.DataFrame, k: int) -> pd.DataFrame:
    """Global top-k per query over the collected partials (vectorized;
    ties broken by vec_id ascending — same rule as the SQL oracle)."""
    df = partial_df.sort_values(
        ["query_id", "cosine", "vec_id"],
        ascending=[True, False, True],
        kind="mergesort",
    )
    df = df.groupby("query_id", sort=False).head(k).reset_index(drop=True)
    df["rank"] = (df.groupby("query_id", sort=False).cumcount() + 1).astype(
        np.int64
    )
    return df


def knn_cosine(ds, query_ids, query_matrix, k: int = 10, batch_size: int = 4096):
    """-> (query_id, vec_id, cosine, rank) global top-k per query.

    Ties broken by vec_id ascending (deterministic, SQL-mirrorable).
    """
    queries_ref = ray.put({"query_id": list(query_ids), "matrix": query_matrix})

    def batch_topk(batch: pd.DataFrame) -> pd.DataFrame:
        q_id_arr, q_unit = _brute_state(queries_ref)
        ids = batch["vec_id"].to_numpy()
        if len(ids) == 0:
            return _topk_frame(q_id_arr, [], [], [], ids.dtype)
        vecs = np.stack(batch["embedding"].to_numpy()).astype(np.float64)
        sims = _unit(vecs) @ q_unit.T  # (n, nq)
        out_qi, out_v, out_s = [], [], []
        kk = min(k, len(ids))
        for qi in range(len(q_id_arr)):
            col = sims[:, qi]
            part = np.argpartition(-col, kk - 1)[:kk]
            for i in part:
                out_qi.append(qi)
                out_v.append(ids[i])
                out_s.append(col[i])
        return _topk_frame(q_id_arr, out_qi, out_v, out_s, ids.dtype)

    partial = ds.map_batches(
        batch_topk, batch_format="pandas", batch_size=batch_size
    ).to_pandas()  # bounded: n_blocks * num_queries * k rows
    return ray.data.from_pandas(_reduce_topk_all(partial, k))


def train_centroids(ds, ncells: int = 16, sample_n: int = 2048, iters: int = 5,
                    seed: int = 13) -> np.ndarray:
    """Deterministic mini k-means over a driver-side sample (IVF coarse quantizer)."""
    sample = ds.limit(sample_n).to_pandas()
    vecs = _unit(np.stack(sample["embedding"].to_numpy()).astype(np.float64))
    rng = np.random.RandomState(seed)
    centroids = vecs[rng.choice(len(vecs), size=min(ncells, len(vecs)), replace=False)]
    for _ in range(iters):
        assign = (vecs @ centroids.T).argmax(axis=1)
        for c in range(len(centroids)):
            members = vecs[assign == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
        centroids = _unit(centroids)
    return centroids


def knn_cosine_ivf(ds, query_ids, query_matrix, k: int = 10, ncells: int = 16,
                   nprobe: int = 4, batch_size: int = 4096):
    """Approximate top-k via IVF cell probing (the 100-TB-scale path)."""
    centroids = train_centroids(ds, ncells=ncells)
    queries_ref = ray.put({"query_id": list(query_ids), "matrix": query_matrix})
    centroids_ref = ray.put(centroids)

    def batch_topk(batch: pd.DataFrame) -> pd.DataFrame:
        q_id_arr, q_unit, cent, probed = _ivf_state(
            queries_ref, centroids_ref, nprobe
        )
        ids = batch["vec_id"].to_numpy()
        if len(ids) == 0:
            return _topk_frame(q_id_arr, [], [], [], ids.dtype)
        vecs = np.stack(batch["embedding"].to_numpy()).astype(np.float64)
        unit = _unit(vecs)
        cells = (unit @ cent.T).argmax(axis=1)
        out_qi, out_v, out_s = [], [], []
        for qi in range(len(q_id_arr)):
            mask = np.isin(cells, list(probed[qi]))
            if not mask.any():
                continue
            sub_ids = ids[mask]
            col = unit[mask] @ q_unit[qi]
            kk = min(k, len(sub_ids))
            part = np.argpartition(-col, kk - 1)[:kk]
            for i in part:
                out_qi.append(qi)
                out_v.append(sub_ids[i])
                out_s.append(col[i])
        return _topk_frame(q_id_arr, out_qi, out_v, out_s, ids.dtype)

    partial = ds.map_batches(
        batch_topk, batch_format="pandas", batch_size=batch_size
    ).to_pandas()  # bounded: n_blocks * num_queries * k rows
    return ray.data.from_pandas(_reduce_topk_all(partial, k))
