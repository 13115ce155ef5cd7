"""As-of join: for each left row, the most recent right row at or before
its timestamp, per key.

Ray Data has no asof primitive; the scalable composition is a
``co_partition`` (``stages/bucketed.py``): both sides shuffle ONCE on a
hash bucket of the join key (never one Python group per key), and each
sorted block runs one vectorized ``pd.merge_asof(..., by=key)`` across
all of its keys.  Partitioning assumption: one BUCKET's rows fit a
worker; a hot key would need time-range bucketing on top.

DuckDB's native ``ASOF JOIN`` is the oracle.  Ties on the right
timestamp are broken deterministically by reducing the right side to
one row per (key, ts) — its max value — before the merge, so both
engines see the same unambiguous input.
"""

from __future__ import annotations

import pandas as pd
import ray.data

from .bucketed import co_partition


def epoch_us(ts: pd.Series):
    """Timestamps -> int64 epoch microseconds (numpy)."""
    return ts.astype("datetime64[us]").astype("int64").to_numpy()


def asof_join_backward(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    *,
    key: str,
    left_ts: str,
    right_ts: str,
    left_cols: list,
    right_val: str,
) -> ray.data.Dataset:
    """-> (``key``, ``left_cols``, ``ts_us``, ``right_val``): every left
    row with ``right_val`` (float64) of the latest right row with
    right_ts <= left_ts, NaN when none.  Timestamps compared as int64
    epoch-us."""

    def merge(l: pd.DataFrame, r: pd.DataFrame) -> pd.DataFrame:
        l = pd.DataFrame(
            {
                key: l[key],
                **{c: l[c] for c in left_cols},
                "ts_us": epoch_us(l[left_ts]),
            }
        ).sort_values("ts_us", kind="mergesort")
        r = (
            pd.DataFrame(
                {
                    key: r[key],
                    "ts_us": epoch_us(r[right_ts]),
                    right_val: r[right_val].astype("float64"),
                }
            )
            .groupby([key, "ts_us"], as_index=False)[right_val]
            .max()
            .sort_values("ts_us", kind="mergesort")
        )
        return pd.merge_asof(l, r, on="ts_us", by=key, direction="backward")

    return co_partition(left, right, key, merge)
