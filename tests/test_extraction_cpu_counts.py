"""Every extraction entry point finishes at 1 and at 4 logical Ray CPUs
and returns the oracle's answer.

Extraction runs as plain task maps, so the read task always gets a CPU.
An extractor actor pool sized from the CPU count (or fixed at four
actors) takes every logical CPU, and the read task that feeds it is
never scheduled: the pipeline stalls, or hangs outright.  Each CPU count
runs in its own subprocess (one Ray session per process) under a
timeout.
"""

import json
import os
import signal
import subprocess
import sys

import pytest
from test_oracles import SF  # the sf0.001 corpus of the oracle tests

TIMEOUT_S = 240

# argv: sf_dir, num_cpus.  Prints one JSON line {check: passed}.
_CHILD = r"""
import json
import sys

import ray

ray.init(address="local", num_cpus=int(sys.argv[2]), include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext

DataContext.get_current().enable_progress_bars = False

import duckdb
import pyarrow.parquet as pq

sys.path.insert(0, "scripts")
from check_queries import TABLES, compare, to_df

from pdf_ocr_comparison_tool_ray.oracle import golden_spans
from pdf_ocr_comparison_tool_ray.pipelines import extraction as ex
from pdf_ocr_comparison_tool_ray.pipelines.queries import SQL_QUERIES

sf = sys.argv[1]
path = f"{sf}/documents.parquet"
COLS = ("doc_id", "seq", "kind", "text", "media_ref")
corpus = pq.read_table(path, columns=["doc_id", "text"]).to_pylist()
# interleave types doc_id as a string
golden = sorted((str(r["doc_id"]),) + tuple(r[c] for c in COLS[1:])
                for r in golden_spans((r["doc_id"], r["text"]) for r in corpus))


def spans(ds):
    df = ds.to_pandas()[list(COLS)]
    return sorted(df.itertuples(index=False, name=None))


def docs():
    return ex.interleave(ex.read_flat_documents(path))


runs = {
    "run_extraction[local]": lambda: ex.run_extraction(docs(), batch_size=None),
    "run_extraction[shuffle]": lambda: ex.run_extraction(docs(), batch_size="auto"),
    "run_extraction_split": lambda: ex.run_extraction_split(docs()),
    "run_extraction_hybrid_rerun": lambda: ex.run_extraction_hybrid_rerun(docs()),
    "run_extraction_skew_aware": lambda: ex.run_extraction_skew_aware(
        docs(), span_threshold=50),
}
result = {name: spans(run()) == golden for name, run in runs.items()}

con = duckdb.connect()
for t in TABLES:
    con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf}/{t}.parquet')")
fn, sql = SQL_QUERIES["extraction_hybrid_rerun"]
result["extraction_hybrid_rerun"] = bool(
    compare("extraction_hybrid_rerun", to_df(fn(sf)), con.execute(sql).df()))
print(json.dumps(result))
ray.shutdown()
"""

CHECKS = {
    "run_extraction[local]",
    "run_extraction[shuffle]",
    "run_extraction_split",
    "run_extraction_hybrid_rerun",
    "run_extraction_skew_aware",
    "extraction_hybrid_rerun",
}


@pytest.mark.parametrize("num_cpus", [1, 4])
def test_extraction_entry_points_finish_at_cpu_count(num_cpus):
    root = os.path.join(os.path.dirname(__file__), "..")
    p = subprocess.Popen(
        [sys.executable, "-c", _CHILD, SF, str(num_cpus)],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, start_new_session=True,
    )
    try:
        out, _ = p.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)  # the child's Ray processes too
        p.communicate()
        pytest.fail(
            f"extraction did not finish in {TIMEOUT_S} s at {num_cpus} logical CPU(s)"
        )
    assert p.returncode == 0
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == CHECKS
    assert all(result.values()), result
