"""Local mirror of the driver's correctness gate: run every queries()
entry and its oracle_sql() side by side via DuckDB, compare row count,
column set, and order-insensitive values.

Each passing op prints ``[name] OK (N rows, X.XX s)``: the wall time of
the Ray side alone (the op call plus collecting its result), so per-op
crossovers need no separate timing script.  Before the first timed op,
one short pass holds every Ray CPU of the session at once, so every
worker process has started and no op's time includes worker start-up.

Usage: python scripts/check_queries.py [sf_dir] [--strict] [query ...]
"""

from __future__ import annotations

import sys
import time

sys.path.insert(0, ".")

import duckdb
import numpy as np
import pandas as pd
import ray

TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


def to_df(result) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data

    if isinstance(result, ray.data.Dataset):
        return result.to_pandas()
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif np.issubdtype(df[c].dtype, np.floating):
            # round small magnitudes only: np.round(x, 9) corrupts |x| > ~2^53/1e9
            vals = df[c].to_numpy()
            small = np.abs(vals) < 1e6
            df[c] = np.where(small, np.round(vals, 9), vals)
        elif df[c].dtype == bool:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _hold(batch):
    time.sleep(0.5)
    return batch


def warm_up() -> None:
    """Start every worker: one task per Ray CPU, each held long enough
    that no worker can take a second one."""
    import ray.data

    n = int(ray.cluster_resources().get("CPU", 1))
    ray.data.range(n, override_num_blocks=n).map_batches(_hold).materialize()


STRICT = False  # --strict: require identical dtypes (the driver's value
# hash is dtype-sensitive — int64 vs float64 mismatch even when equal)


def compare(name: str, ray_df: pd.DataFrame, sql_df: pd.DataFrame,
            wall_s: float | None = None) -> bool:
    if set(ray_df.columns) != set(sql_df.columns):
        print(f"  [{name}] SCHEMA MISMATCH ray={sorted(ray_df.columns)} sql={sorted(sql_df.columns)}")
        return False
    if len(ray_df) != len(sql_df):
        print(f"  [{name}] ROWCOUNT MISMATCH ray={len(ray_df)} sql={len(sql_df)}")
        return False
    a, b = canon(ray_df), canon(sql_df)
    if STRICT:
        bad_dt = [
            c for c in a.columns if a[c].dtype != b[c].dtype
        ]
        if bad_dt:
            print(f"  [{name}] DTYPE MISMATCH: " + ", ".join(
                f"{c}: ray={a[c].dtype} sql={b[c].dtype}" for c in bad_dt))
            return False
    else:
        # normalize integer-like columns to int64 on both sides
        for c in a.columns:
            if np.issubdtype(a[c].dtype, np.integer) or np.issubdtype(b[c].dtype, np.integer):
                try:
                    a[c] = a[c].astype("int64")
                    b[c] = b[c].astype("int64")
                except (ValueError, TypeError):
                    pass
    if not a.equals(b):
        neq = (a != b).any(axis=0)
        bad = [c for c in a.columns if neq.get(c, False)]
        print(f"  [{name}] VALUE MISMATCH in columns {bad}")
        for c in bad[:3]:
            diff = a[c] != b[c]
            print(f"    {c}: ray={a.loc[diff, c].head(3).tolist()} sql={b.loc[diff, c].head(3).tolist()}")
        return False
    took = "" if wall_s is None else f", {wall_s:.2f} s"
    print(f"  [{name}] OK ({len(ray_df)} rows{took})")
    return True


def main():
    global STRICT
    args = [a for a in sys.argv[1:] if a != "--strict"]
    STRICT = "--strict" in sys.argv[1:]
    unknown = [a for a in args if a.startswith("--")]
    if unknown:
        raise SystemExit(f"unknown flags {unknown}; usage: "
                         "check_queries.py SF_DIR [--strict] [query ...]")
    sf_dir = args[0] if args else "/root/testdata/sf0.001"
    # accept space- AND comma-separated query names; an unmatched name is
    # an ERROR (a vacuous 'FAILURES: none' from a typo'd filter once
    # passed for a real check — never again)
    only = {n for a in args[1:] for n in a.split(",") if n}
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    warm_up()

    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    from pdf_ocr_comparison_tool_ray.pipelines.queries import SQL_QUERIES

    missing = only - set(SQL_QUERIES)
    if missing:
        raise SystemExit(f"unknown query names: {sorted(missing)}")

    failures = []
    n_checked = 0
    for name, (fn, sql) in SQL_QUERIES.items():
        if only and name not in only:
            continue
        n_checked += 1
        try:
            t0 = time.perf_counter()
            ray_df = to_df(fn(sf_dir))
            wall_s = time.perf_counter() - t0
            sql_df = con.sql(sql).df()
            if not compare(name, ray_df, sql_df, wall_s):
                failures.append(name)
        except Exception as e:  # noqa: BLE001
            print(f"  [{name}] ERROR {type(e).__name__}: {e}")
            failures.append(name)
    print(f"CHECKED: {n_checked}")
    print("FAILURES:", failures if failures else "none")
    ray.shutdown()
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
