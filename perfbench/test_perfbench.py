"""The benchmark's own tests (no Ray needed):

    python3 -m pytest perfbench -q

* the generator writes byte-identical inputs for a given seed;
* a planted wrong output is caught by the output checks and counted as
  a failed pass, as are a raising pass and a pass that hangs;
* the traced run's coverage check catches time spent outside every
  named span.
"""

from __future__ import annotations

import time
from pathlib import Path

import pandas as pd
import pyarrow as pa
import pytest

from perfbench import gen
from perfbench.run import MIN_COVERAGE, Runner
from perfbench.trace import Tracer
from perfbench.workloads import Extract, frames_match, merged_rows_match


def _tree_bytes(d: Path) -> dict:
    return {p.relative_to(d).as_posix(): p.read_bytes()
            for p in sorted(d.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", sorted(gen.MAKERS))
def test_generator_is_byte_identical_per_seed(name, tmp_path):
    a = gen.MAKERS[name](7, tmp_path / "a")
    b = gen.MAKERS[name](7, tmp_path / "b")
    c = gen.MAKERS[name](8, tmp_path / "c")
    assert a == b
    assert _tree_bytes(tmp_path / "a") == _tree_bytes(tmp_path / "b")
    assert _tree_bytes(tmp_path / "a") != _tree_bytes(tmp_path / "c")


def test_compare_probe_shares_are_fixed():
    _, probe, kinds = gen.compare_corpora(3)
    shares = {k: sum(v == k for v in kinds.values()) / len(probe) for k in gen.COMPARE_SHARES}
    assert shares == pytest.approx(gen.COMPARE_SHARES)


class _Planted:
    """A workload whose pass returns a planted output."""

    items = 1

    def __init__(self, output, delay=0.0, exc=None):
        self.output, self.delay, self.exc = output, delay, exc

    def run(self, k):
        time.sleep(self.delay)
        if self.exc:
            raise self.exc
        return self.output

    def check(self, out):
        return out == "right"

    def release(self, out):
        pass


def _runner():
    return Runner(time.perf_counter())


def test_planted_wrong_output_counts_as_failed():
    run = _runner()
    assert run.one_pass(_Planted("right"), 1, timeout=5) is not None
    assert run.one_pass(_Planted("wrong"), 2, timeout=5) is None
    assert run.one_pass(_Planted(None, exc=RuntimeError("boom")), 3, timeout=5) is None
    assert (run.attempted, run.failed, run.hung) == (3, 2, False)


def test_hanging_pass_counts_as_failed():
    run = _runner()
    assert run.one_pass(_Planted("right", delay=3.0), 1, timeout=0.2) is None
    assert (run.attempted, run.failed, run.hung) == (1, 1, True)


def test_extract_check_catches_a_planted_span():
    from pdf_ocr_comparison_tool_ray.oracle import golden_spans

    wl = Extract(Path("unused"), 1)
    corpus = gen.extract_corpus(1)[:20]
    rows = golden_spans(corpus)
    wl.golden = [(r["doc_id"], r["seq"], r["kind"], r["text"], r["media_ref"]) for r in rows]
    table = pa.Table.from_pylist(
        [{k: r[k] for k in ("doc_id", "seq", "kind", "text", "media_ref")} for r in rows]
    )
    assert wl.spans_ok(table)
    planted = table.set_column(3, "text", pa.array(
        ["x" + t if i == 5 else t for i, t in enumerate(table["text"].to_pylist())]))
    assert not wl.spans_ok(planted)
    swapped = table.set_column(1, "seq", pa.array(
        [s ^ 1 if i < 2 else s for i, s in enumerate(table["seq"].to_pylist())]))
    assert not wl.spans_ok(swapped)


def test_compare_check_catches_a_planted_status():
    golden = pd.DataFrame({
        "source_doc_id": ["a", "a", "b"], "source_start": [0, 2, 0],
        "source_end": [1, 2, 3], "match_status": ["exact", "partial", "none"],
        "target_doc_id": ["r", "r", ""], "target_start": [0, 5, -1],
        "target_end": [1, 5, -1], "similarity": [1.0, 0.8, 0.0],
        "matched_keywords": [["k"], [], []],
    })
    assert merged_rows_match(golden.iloc[::-1].copy(), golden)
    planted = golden.copy()
    planted.loc[1, "match_status"] = "exact"
    assert not merged_rows_match(planted, golden)


def test_query_check_catches_a_planted_value():
    want = pd.DataFrame({"term": ["a", "b"], "n": [1, 2], "x": [0.5, 0.25]})
    assert frames_match(want.iloc[::-1].astype({"n": "float64"}), want)
    planted = want.copy()
    planted.loc[0, "n"] = 3
    assert not frames_match(planted, want)
    assert not frames_match(want.iloc[:1], want)


def test_coverage_check_catches_an_unspanned_delay():
    tr = Tracer()
    tr.pass_id = 1
    with tr.span("pass.layers"):
        with tr.span("stages.explode"):
            time.sleep(0.05)
    assert tr.coverage("pass.layers", pass_id=1) >= MIN_COVERAGE
    tr.pass_id = 2
    with tr.span("pass.layers"):
        with tr.span("stages.explode"):
            time.sleep(0.05)
        time.sleep(0.02)  # work outside every layer span
    assert tr.coverage("pass.layers", pass_id=2) < MIN_COVERAGE
