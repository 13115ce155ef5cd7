"""Every stage that once ran as an actor pool finishes at 1, 2 and 4
logical Ray CPUs and returns the oracle's answer.

Covered: each route of the extraction plan, and the registry ops whose
extraction, multimodal (featurize, preprocess, resize, frame sample,
aHash), LLM-cascade and page-match stages used to be pools.  They all
run as plain task maps now, so the read task always gets a CPU.  An
actor pool sized from the CPU count (or fixed at four actors) takes
every logical CPU, and a ``(2, 8)`` pool cannot start its two minimum
actors on one CPU: the read task that feeds the pool is never
scheduled, and the pipeline stalls or hangs outright.  Each CPU count
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

# argv: sf_dir, num_cpus, comma-joined registry ops.  Prints one JSON
# line {check: passed}.
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
    "run_extraction[local]": lambda: ex.run_extraction(docs()),
    "run_extraction[repartition]": lambda: ex.run_extraction(
        docs(), num_output_blocks=8),
    "run_extraction[rerun]": lambda: ex.run_extraction(
        docs(), rerun_threshold=0.93),
}
result = {name: spans(run()) == golden for name, run in runs.items()}

con = duckdb.connect()
for t in TABLES:
    con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf}/{t}.parquet')")
for name in sys.argv[3].split(","):
    fn, sql = SQL_QUERIES[name]
    result[name] = bool(compare(name, to_df(fn(sf)), con.execute(sql).df()))
print(json.dumps(result))
ray.shutdown()
"""

# registry ops checked against their DuckDB oracles
OPS = (
    "extraction_hybrid_rerun",
    "image_phash_dup",
    "frame_sample",
    "resize_digest",
    "classify_cascade",
    "multimodal_features",
    "multimodal_preprocessed",
    "compare_pipeline",
)
CHECKS = {
    "run_extraction[local]",
    "run_extraction[repartition]",
    "run_extraction[rerun]",
    *OPS,
}


@pytest.mark.parametrize("num_cpus", [1, 2, 4])
def test_extraction_entry_points_finish_at_cpu_count(num_cpus):
    root = os.path.join(os.path.dirname(__file__), "..")
    p = subprocess.Popen(
        [sys.executable, "-c", _CHILD, SF, str(num_cpus), ",".join(OPS)],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, start_new_session=True,
    )
    try:
        out, _ = p.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)  # the child's Ray processes too
        p.communicate()
        pytest.fail(
            f"the checks did not finish in {TIMEOUT_S} s at {num_cpus} logical CPU(s)"
        )
    assert p.returncode == 0
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == CHECKS
    assert all(result.values()), result
