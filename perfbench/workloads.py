"""The four benchmark workloads.

Each workload generates its inputs from the seed, prepares its oracle
once, and then offers:

* ``run(k)``        -- one timed pass through the program's public
                       pipeline functions, with the defaults the jobs use;
* ``check(out)``    -- the output check, run outside the timed window;
* ``layer_pass(tr)``-- the traced run's direct calls into each layer's
                       public batch function, in pipeline order, on the
                       workload's own blocks;
* ``staged_pass(tr)``- the pipeline rebuilt from the public stage
                       functions with ``materialize()`` between stages.
"""

from __future__ import annotations

import pickle
import re
import shutil
from pathlib import Path
from typing import Dict, List

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from . import gen
from .trace import Tracer

_TASKS_RE = re.compile(r"(\d+) tasks executed, (\d+) blocks produced")


def dataset_counts(ds) -> tuple:
    """(tasks, blocks) summed over every operator in ``Dataset.stats()``."""
    if ds is None:
        return 0, 0
    pairs = [(int(t), int(b)) for t, b in _TASKS_RE.findall(ds.stats())]
    return sum(t for t, _ in pairs), sum(b for _, b in pairs)


def _files(d: Path) -> List[Path]:
    return sorted(d.glob("*.parquet"))


def _dir_size(d: Path) -> tuple:
    files = [p for p in d.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files) / 1e6


class Workload:
    name = ""
    items_name = ""
    last_written = None  # (files, MB) of the last pass's output directory
    staged_datasets = ()  # extra Datasets the staged pass materialized

    def __init__(self, data_dir: Path, seed: int) -> None:
        self.dir = data_dir / self.name
        self.seed = seed
        self.items = 0

    def generate(self) -> Dict:
        self.dir.mkdir(parents=True, exist_ok=True)
        return gen.MAKERS[self.name](self.seed, self.dir / "in")

    def prepare(self) -> None:  # oracle; may use Ray
        raise NotImplementedError

    def run(self, k: int):
        raise NotImplementedError

    def check(self, out) -> bool:
        raise NotImplementedError

    def release(self, out) -> None:
        """Drop a pass's outputs once checked."""

    def stats_dataset(self, out):
        return None

    def layer_pass(self, tr: Tracer) -> tuple:
        """-> (counters, output ok)"""
        raise NotImplementedError

    def staged_pass(self, tr: Tracer) -> tuple:
        """-> (dataset for task/block counts or None, output ok)"""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# extract
# ---------------------------------------------------------------------------
def _span_rows(table: pa.Table) -> list:
    t = table.sort_by([("doc_id", "ascending"), ("seq", "ascending")])
    cols = [t[c].to_pylist() for c in ("doc_id", "seq", "kind", "text", "media_ref")]
    return list(zip(*cols))


class Extract(Workload):
    name = "extract"
    items_name = "input documents"

    def prepare(self) -> None:
        from pdf_ocr_comparison_tool_ray.oracle import golden_spans

        corpus = gen.extract_corpus(self.seed)
        self.items = len(corpus)
        self.golden = [
            (r["doc_id"], r["seq"], r["kind"], r["text"], r["media_ref"])
            for r in golden_spans(corpus)
        ]

    def run(self, k: int):
        from pdf_ocr_comparison_tool_ray.pipelines.extraction import (
            interleave,
            read_flat_documents,
            run_extraction,
        )

        docs = interleave(read_flat_documents(str(self.dir / "in")))
        return run_extraction(docs, batch_size=None).materialize()

    def check(self, out) -> bool:
        import ray

        return self.spans_ok(pa.concat_tables(ray.get(out.to_arrow_refs())))

    def spans_ok(self, table: pa.Table) -> bool:
        """Span-sequence equality (kind, text, media_ref, order) per document."""
        return _span_rows(table) == self.golden

    def stats_dataset(self, out):
        return out

    def layer_pass(self, tr: Tracer) -> tuple:
        from pdf_ocr_comparison_tool_ray.sources.interleave import derive_documents_batch
        from pdf_ocr_comparison_tool_ray.stages.explode import explode_spans
        from pdf_ocr_comparison_tool_ray.stages.extract import SpanExtractor
        from pdf_ocr_comparison_tool_ray.stages.reassemble import reassemble_batch_local

        outs = []
        with tr.span("pass.layers"):
            with tr.span("stages.extract"):
                extractor = SpanExtractor()
            for f in _files(self.dir / "in"):
                with tr.span("ray_data.read"):
                    batch = pq.read_table(f).to_pandas()
                with tr.span("sources.interleave"):
                    docs = derive_documents_batch(batch)
                with tr.span("ray_data.convert"):
                    docs = pa.Table.from_pandas(docs, preserve_index=False)
                with tr.span("stages.explode"):
                    spans = explode_spans(docs)
                with tr.span("stages.extract"):
                    extracted = extractor(spans)
                with tr.span("stages.reassemble"):
                    outs.append(reassemble_batch_local(extracted, expect_dense_offsets=True))
        table = pa.concat_tables(outs)
        pdf = table.filter(pc.equal(table["kind"], "pdf"))
        n_pdf_native = pdf.filter(pc.equal(pdf["route"], "native")).num_rows
        counters = {
            "stages.extract.spans": table.num_rows,
            "stages.extract.pdf_native_frac": n_pdf_native / max(1, pdf.num_rows),
        }
        return counters, self.spans_ok(table)

    def staged_pass(self, tr: Tracer) -> tuple:
        from pdf_ocr_comparison_tool_ray.pipelines.extraction import (
            extract_spans,
            interleave,
            read_flat_documents,
            reassemble_local,
            tune_context,
        )

        with tr.span("pass.staged"):
            tune_context()
            with tr.span("stage.read"):
                flat = read_flat_documents(str(self.dir / "in")).materialize()
            with tr.span("stage.interleave"):
                docs = interleave(flat).materialize()
            with tr.span("stage.explode+extract"):
                ex = extract_spans(docs, batch_size=None).materialize()
            with tr.span("stage.reassemble"):
                out = reassemble_local(ex, expect_dense_offsets=True).materialize()
        return out, self.check(out)


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------
_SPAN_COLS = ["doc_id", "seq", "kind", "text", "media_ref", "route", "score"]
_MATCH_COLS = ["doc_id", "offset", "kind", "text", "media_ref", "route", "score"]
_KEY_COLS = ["source_doc_id", "source_start", "source_end", "match_status",
             "target_doc_id", "target_start", "target_end"]


def _rename_spans(ds):
    """Reassembled span table -> match-stage rows (what compare_job does
    for --probe-spans/--reference-spans)."""
    return ds.map_batches(
        lambda t: t.select(_SPAN_COLS).rename_columns(_MATCH_COLS),
        batch_format="pyarrow",
    )


def merged_rows_match(df: pd.DataFrame, golden: pd.DataFrame) -> bool:
    """Merged match rows against the golden rows (same rules as the
    compare tests: key columns exact, similarity within 1e-9, keyword
    lists exact)."""
    df = df.sort_values(["source_doc_id", "source_start"]).reset_index(drop=True)
    if len(df) != len(golden):
        return False
    for col in _KEY_COLS:
        if df[col].tolist() != golden[col].tolist():
            return False
    if len(df) and (df["similarity"] - golden["similarity"]).abs().max() >= 1e-9:
        return False
    return [list(k) for k in df["matched_keywords"]] == [
        list(k) for k in golden["matched_keywords"]
    ]


class Compare(Workload):
    name = "compare"
    items_name = "probe pages"

    def prepare(self) -> None:
        from pdf_ocr_comparison_tool_ray.oracle_match import golden_matches
        from pdf_ocr_comparison_tool_ray.state.checkpoint import (
            run_extraction_checkpointed,
        )

        ref, probe, _ = gen.compare_corpora(self.seed)
        for side in ("reference", "probe"):
            out = self.dir / f"{side}_spans"
            shutil.rmtree(out, ignore_errors=True)
            run_extraction_checkpointed(str(self.dir / "in" / f"{side}.parquet"),
                                        str(out), num_partitions=8)
        self.items = sum(
            pq.ParquetFile(f).metadata.num_rows
            for f in sorted((self.dir / "probe_spans").glob("part-*.parquet"))
        )
        self.golden = pd.DataFrame(golden_matches(probe, ref)).sort_values(
            ["source_doc_id", "source_start"]).reset_index(drop=True)
        self.golden_status = self.golden["match_status"].value_counts().to_dict()

    def _sides(self):
        from pdf_ocr_comparison_tool_ray.state.checkpoint import read_checkpointed_output

        return (_rename_spans(read_checkpointed_output(str(self.dir / "probe_spans"))),
                _rename_spans(read_checkpointed_output(str(self.dir / "reference_spans"))))

    def run(self, k: int):
        from pdf_ocr_comparison_tool_ray.pipelines.compare import run_compare_auto
        from pdf_ocr_comparison_tool_ray.pipelines.reports import (
            match_summary,
            write_report,
        )

        probe, ref = self._sides()
        results = run_compare_auto(probe, ref).materialize()
        summary = match_summary(results)
        report = self.dir / f"report-{k}"
        paths = write_report(str(report), match_results=results)
        return results, summary, report, paths

    def check(self, out) -> bool:
        results, summary, report, paths = out
        if not merged_rows_match(results.to_pandas(), self.golden):
            return False
        s = summary.iloc[0]
        return (
            int(s["total"]) == len(self.golden)
            and int(s["exact_matches"]) == self.golden_status.get("exact", 0)
            and int(s["not_found"]) == self.golden_status.get("none", 0)
            and "match_summary" in paths
            and all(Path(p).exists() for p in paths.values())
        )

    def release(self, out) -> None:
        shutil.rmtree(out[2], ignore_errors=True)

    def stats_dataset(self, out):
        return out[0]

    def _enriched_blocks(self, tr: Tracer, side: str, enricher) -> pa.Table:
        outs = []
        for f in sorted((self.dir / f"{side}_spans").glob("part-*.parquet")):
            with tr.span("ray_data.read"):
                t = pq.read_table(f).select(_SPAN_COLS).rename_columns(_MATCH_COLS)
            for start in range(0, t.num_rows, 1024):  # enrich_spans batch_size
                with tr.span("stages.enrich"):
                    outs.append(enricher(t.slice(start, 1024)))
        return pa.concat_tables(outs)

    def layer_pass(self, tr: Tracer) -> tuple:
        import ray.data

        from pdf_ocr_comparison_tool_ray.config import MATCHING
        from pdf_ocr_comparison_tool_ray.pipelines.compare import build_index
        from pdf_ocr_comparison_tool_ray.pipelines.reports import (
            match_summary,
            write_report,
        )
        from pdf_ocr_comparison_tool_ray.stages.bucketed import bucket_of
        from pdf_ocr_comparison_tool_ray.stages.enrich import FeatureEnricher
        from pdf_ocr_comparison_tool_ray.stages.match import match_batch, merge_match_group

        with tr.span("pass.layers"):
            with tr.span("stages.enrich"):
                enricher = FeatureEnricher()
            ref = self._enriched_blocks(tr, "reference", enricher)
            probe = self._enriched_blocks(tr, "probe", enricher)
            with tr.span("stages.match.index_build"):
                index = build_index(ray.data.from_arrow(ref))
            with tr.span("stages.broadcast"):
                index_mb = len(pickle.dumps(index, protocol=5)) / 1e6
            results = []
            for start in range(0, probe.num_rows, 512):  # match_spans batch_size
                with tr.span("stages.match.probe"):
                    results.append(match_batch(probe.slice(start, 512), index, MATCHING))
            results = pa.concat_tables(results)
            with tr.span("stages.bucketed"):
                keys = results.select(["source_doc_id"]).to_pandas()
                buckets = bucket_of(keys, ["source_doc_id"], 64).to_numpy()
                groups = [results.filter(pa.array(buckets == b)) for b in np.unique(buckets)]
            merged = []
            for g in groups:
                with tr.span("stages.match.merge"):
                    merged.append(merge_match_group(g))
            merged = pa.concat_tables(merged, promote_options="permissive")
            with tr.span("pipelines.reports"):
                ds = ray.data.from_arrow(merged)
                match_summary(ds)
                write_report(str(self.dir / "report-layers"), match_results=ds)
        shutil.rmtree(self.dir / "report-layers", ignore_errors=True)
        counters = {
            "stages.broadcast.index_mb": index_mb,
            "stages.bucketed.rows_shuffled": results.num_rows,
            **self._match_counters(index, probe.to_pylist(), MATCHING),
        }
        return counters, merged_rows_match(merged.to_pandas(), self.golden)

    @staticmethod
    def _match_counters(index, probes: List[dict], cfg: dict) -> Dict[str, float]:
        """Path shares of ``find_matches``, counted from the public
        ``PageIndex`` postings; useful = candidates scoring at or above
        the partial floor."""
        from pdf_ocr_comparison_tool_ray.functions.textnorm import normalize_amount
        from pdf_ocr_comparison_tool_ray.stages.match import find_matches

        everything = {**cfg, "top_k": len(index.pages) + 1}
        hash_hits = fallbacks = scored = useful = 0
        for p in probes:
            if index.hash_index.get(p["text_hash"]):
                hash_hits += 1
                continue
            cand = set()
            for d in p["dates"]:
                cand.update(index.date_index.get(d, []))
            for a in p["amounts"]:
                cand.update(index.amount_index.get(normalize_amount(a), []))
            if not cand:
                fallbacks += 1
                n = min(cfg["fallback_candidates"], len(index.pages))
            else:
                n = len(cand)
            scored += n
            useful += len(find_matches(index, p, everything))
        n_probe = max(1, len(probes))
        return {
            "stages.match.hash_hit_frac": hash_hits / n_probe,
            "stages.match.fallback_frac": fallbacks / n_probe,
            "stages.match.candidates_per_probe": scored / n_probe,
            "stages.match.useful_frac": useful / max(1, scored),
        }

    def staged_pass(self, tr: Tracer) -> tuple:
        from pdf_ocr_comparison_tool_ray.pipelines.compare import (
            build_index,
            enrich_spans,
            match_spans,
            merge_matches,
        )
        from pdf_ocr_comparison_tool_ray.pipelines.reports import (
            match_summary,
            write_report,
        )

        with tr.span("pass.staged"):
            with tr.span("stage.read"):
                probe, ref = (s.materialize() for s in self._sides())
            with tr.span("stage.enrich"):
                ref_e = enrich_spans(ref).materialize()
                probe_e = enrich_spans(probe).materialize()
            with tr.span("stage.index_build"):
                index = build_index(ref_e)
            with tr.span("stage.probe"):
                results = match_spans(probe_e, index).materialize()
            with tr.span("stage.merge"):
                merged = merge_matches(results).materialize()
            with tr.span("stage.reports"):
                summary = match_summary(merged)
                report = self.dir / "report-staged"
                paths = write_report(str(report), match_results=merged)
        ok = self.check((merged, summary, report, paths))
        shutil.rmtree(report, ignore_errors=True)
        return merged, ok


# ---------------------------------------------------------------------------
# curate
# ---------------------------------------------------------------------------
CURATE_PARTITIONS = 64  # curate_job's default


class Curate(Workload):
    name = "curate"
    items_name = "input documents"

    def prepare(self) -> None:
        from pdf_ocr_comparison_tool_ray.pipelines.curate import curation_gate

        table = pa.concat_tables(pq.read_table(f) for f in _files(self.dir / "in"))
        self.items = table.num_rows
        gated = curation_gate(table).to_pandas()
        kept = gated.sort_values("doc_id", kind="mergesort").drop_duplicates("text_hash")
        self.kept_ids = sorted(int(x) for x in kept["doc_id"])

    def _out(self, tag) -> Path:
        return self.dir / f"out-{tag}"

    def run(self, k: int):
        from pdf_ocr_comparison_tool_ray.pipelines.curate import run_curation_checkpointed

        out = self._out(k)
        shutil.rmtree(out, ignore_errors=True)
        stats, mode = run_curation_checkpointed(
            str(self.dir / "in"), str(out), num_partitions=CURATE_PARTITIONS
        )
        return out, stats, mode

    def written_ok(self, out: Path) -> bool:
        import json

        manifests = [json.loads(p.read_text()) for p in sorted((out / "_manifest").glob("p*.json"))]
        return (
            _written_ids(out) == self.kept_ids
            and len(manifests) == CURATE_PARTITIONS
            and sum(int(m["n_docs"]) for m in manifests) == len(self.kept_ids)
        )

    def check(self, out) -> bool:
        path, stats, mode = out
        return (
            mode == "fresh"
            and int(stats["n_docs"].sum()) == len(self.kept_ids)
            and self.written_ok(path)
        )

    def release(self, out) -> None:
        self.last_written = _dir_size(out[0])
        shutil.rmtree(out[0], ignore_errors=True)

    def layer_pass(self, tr: Tracer) -> tuple:
        import ray.data

        from pdf_ocr_comparison_tool_ray.pipelines.curate import (
            _make_curate_writer,
            curation_gate,
        )
        from pdf_ocr_comparison_tool_ray.stages.bucketed import bucketed_drop_duplicates
        from pdf_ocr_comparison_tool_ray.state.checkpoint import (
            input_fingerprint,
            partitions_of_series,
        )

        in_path, out = str(self.dir / "in"), self._out("layers")
        shutil.rmtree(out, ignore_errors=True)
        n_in = 0
        with tr.span("pass.layers"):
            with tr.span("state.checkpoint.write"):
                out.mkdir(parents=True)
                writer = _make_curate_writer(
                    str(out), in_path, input_fingerprint(in_path), CURATE_PARTITIONS
                )
            gated = []
            for f in _files(self.dir / "in"):
                with tr.span("ray_data.read"):
                    block = pq.read_table(f, columns=["doc_id", "text", "lang", "source"])
                n_in += block.num_rows
                with tr.span("pipelines.curate.gate"):
                    gated.append(curation_gate(block))
            with tr.span("ray_data.convert"):
                survivors = ray.data.from_arrow(pa.concat_tables(gated))
            # run_curation_checkpointed's dedup call, run on its own
            with tr.span("stages.bucketed"):
                kept = bucketed_drop_duplicates(
                    survivors, "text_hash", sort_within=["doc_id"],
                    n_buckets=max(CURATE_PARTITIONS, 16),
                ).to_pandas()
            with tr.span("ray_data.convert"):
                kept["partition"] = partitions_of_series(kept["doc_id"], CURATE_PARTITIONS)
                groups = [g for _, g in kept.groupby("partition")]
            for g in groups:
                with tr.span("state.checkpoint.write"):
                    writer(g)
        ok = _written_ids(out) == self.kept_ids
        shutil.rmtree(out, ignore_errors=True)
        n_survivors = survivors.count()
        counters = {
            "pipelines.curate.gate_keep_frac": n_survivors / max(1, n_in),
            "pipelines.curate.dedup_keep_frac": len(kept) / max(1, n_survivors),
            "stages.bucketed.rows_shuffled": n_survivors,
        }
        return counters, ok

    def staged_pass(self, tr: Tracer) -> tuple:
        import ray.data

        from pdf_ocr_comparison_tool_ray.pipelines.curate import _write_stage, curation_gate
        from pdf_ocr_comparison_tool_ray.stages.bucketed import bucketed_drop_duplicates
        from pdf_ocr_comparison_tool_ray.state.checkpoint import input_fingerprint

        in_path, out = str(self.dir / "in"), self._out("staged")
        shutil.rmtree(out, ignore_errors=True)
        with tr.span("pass.staged"):
            with tr.span("stage.read"):
                ds = ray.data.read_parquet(
                    in_path, columns=["doc_id", "text", "lang", "source"]
                ).materialize()
            with tr.span("stage.gate"):
                gated = ds.map_batches(curation_gate, batch_format="pyarrow").materialize()
            with tr.span("stage.dedup"):
                kept = bucketed_drop_duplicates(
                    gated, "text_hash", sort_within=["doc_id"],
                    n_buckets=max(CURATE_PARTITIONS, 16),
                ).materialize()
            # the program's write stage (partition assignment, atomic
            # writes, empty-partition stamps); its Dataset stays inside
            # the program, so ray_data.tasks/blocks stop at the dedup
            with tr.span("stage.write"):
                out.mkdir(parents=True)
                _write_stage(kept, frozenset(), CURATE_PARTITIONS, str(out), in_path,
                             input_fingerprint(in_path))
        ok = self.written_ok(out)
        shutil.rmtree(out, ignore_errors=True)
        return kept, ok


def _written_ids(out: Path) -> List[int]:
    ids = []
    for f in sorted(out.glob("part-*.parquet")):
        ids.extend(pq.read_table(f, columns=["doc_id"])["doc_id"].to_pylist())
    return sorted(ids)


# ---------------------------------------------------------------------------
# query_mix
# ---------------------------------------------------------------------------
QUERY_PICKS = [
    "keyword_topk", "exact_dedup", "minhash_lsh_pairs", "char_entropy",
    "gopher_filter", "doc_repetition_stats", "dict_match", "set_similarity_join",
]


def _to_df(result) -> pd.DataFrame:
    import ray.data

    if isinstance(result, (ray.data.Dataset, pa.Table)):
        return result.to_pandas()
    return result


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object or df[c].dtype == bool:
            df[c] = df[c].astype(str)
        elif np.issubdtype(df[c].dtype, np.floating):
            vals = df[c].to_numpy()
            df[c] = np.where(np.abs(vals) < 1e6, np.round(vals, 9), vals)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def frames_match(got: pd.DataFrame, want: pd.DataFrame) -> bool:
    """The query checker's rules: same column set and row count, then
    order-insensitive values (floats rounded to 1e-9 below 1e6 in
    magnitude, integer-like columns compared as int64)."""
    if set(got.columns) != set(want.columns) or len(got) != len(want):
        return False
    a, b = _canon(got), _canon(want)
    for c in a.columns:
        if np.issubdtype(a[c].dtype, np.integer) or np.issubdtype(b[c].dtype, np.integer):
            try:
                a[c] = a[c].astype("int64")
                b[c] = b[c].astype("int64")
            except (ValueError, TypeError):
                pass
    return a.equals(b)


class QueryMix(Workload):
    name = "query_mix"
    items_name = "queries"

    def prepare(self) -> None:
        import duckdb

        from pdf_ocr_comparison_tool_ray.pipelines.queries import SQL_QUERIES

        self.sf_dir = str(self.dir / "in")
        self.fns = {p: SQL_QUERIES[p][0] for p in QUERY_PICKS}
        con = duckdb.connect()
        con.sql(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{self.sf_dir}/documents.parquet')")
        self.golden = {p: con.sql(SQL_QUERIES[p][1]).df() for p in QUERY_PICKS}
        con.close()
        self.items = len(QUERY_PICKS)

    def run(self, k: int):
        return {p: _to_df(self.fns[p](self.sf_dir)) for p in QUERY_PICKS}

    def check(self, out) -> bool:
        return all(frames_match(out[p], self.golden[p]) for p in QUERY_PICKS)

    def layer_pass(self, tr: Tracer) -> tuple:
        out = {}
        with tr.span("pass.layers"):
            for p in QUERY_PICKS:
                with tr.span(f"pipelines.queries.{p}"):
                    out[p] = _to_df(self.fns[p](self.sf_dir))
        return {}, self.check(out)

    def staged_pass(self, tr: Tracer) -> tuple:
        out, datasets = {}, []
        with tr.span("pass.staged"):
            for p in QUERY_PICKS:
                with tr.span(f"stage.{p}"):
                    r = self.fns[p](self.sf_dir)
                    if hasattr(r, "materialize"):
                        r = r.materialize()
                        datasets.append(r)
                    out[p] = _to_df(r)
        self.staged_datasets = datasets
        return None, self.check(out)


WORKLOADS = {w.name: w for w in (Extract, Compare, Curate, QueryMix)}
