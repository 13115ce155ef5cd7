"""Benchmark harness.

Prints ONE JSON line:
  {"metric": "...", "value": <headline sec>, "unit": "sec",
   "queries": {...per-query sec...}, "sf": ..., "num_cpus": N,
   "docs_per_sec": ...}

Headline = flagship interleaved-extraction pipeline (interleave ->
explode -> hybrid-routing extract -> ordered reassembly, shuffle-free
doc-local fast path) over
$GRAFT_SF_DIR documents, replicated GRAFT_BENCH_REPLICATION times
(deterministic doc_id suffixes) so the corpus is large enough to
saturate every CPU.

--scaling: N->4N efficiency via CO-SCHEDULED fresh-process legs — a
6-cpu and a 24-cpu session run simultaneously on disjoint core
partitions with equal per-core work, so both legs share the identical
host window (this box's speed swings up to ~3x across minutes, which
made sequentially-measured ratios meaningless); an idle-box 8/32
reference pair and core-speed probes quantify the turbo differential
the co-scheduling removes.  See _scaling_legs for the full rationale.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
REPLICATION = int(os.environ.get("GRAFT_BENCH_REPLICATION", "8"))
HEADLINE_ONLY = os.environ.get("GRAFT_BENCH_ONLY", "") == "extract"


def _replicated_flat(sf_dir: str, replication: int):
    """documents flat table replicated with deterministic doc_id suffixes."""
    import pandas as pd
    import ray.data

    # block count chosen at the read IS the pipeline parallelism: every
    # downstream map uses batch-per-block, so no bundling caps task count.
    # Size it by corpus: ~1250 docs per task (per-task dispatch overhead is
    # ~60-80ms, so smaller tasks drown in fixed costs — 40k docs measured
    # 3.3s @ 32 blocks vs 11s @ 128), clamped to [CPUs, 4x CPUs] (four
    # waves smooth per-document size variance on big corpora — 640k docs
    # measured 14.0s @ 128 blocks vs 18.7s @ 64).
    import pyarrow.parquet as pq

    base_docs = pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    total_docs = base_docs * replication
    nblocks = max(NUM_CPUS, min(NUM_CPUS * 4, total_docs // 1250))
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text"],
        override_num_blocks=nblocks,
    )

    def rep(batch: pd.DataFrame) -> pd.DataFrame:
        out = []
        for r in range(replication):
            b = batch.copy()
            b["doc_id"] = b["doc_id"].astype(str) + f"_r{r}"
            out.append(b)
        return pd.concat(out, ignore_index=True)

    return ds.map_batches(rep, batch_format="pandas", batch_size=None)


def run_headline() -> dict:
    import ray

    from pdf_ocr_comparison_tool_ray.pipelines.extraction import (
        interleave,
        run_extraction,
    )

    # warm page cache (untimed)
    import ray.data

    ray.data.read_parquet(f"{SF_DIR}/documents.parquet").count()

    flat = _replicated_flat(SF_DIR, REPLICATION)
    n_docs = flat.count()

    # untimed pilot on a small slice: pays the one-time worker imports +
    # first worker spin-up so the timed runs measure steady-state (matters
    # most for the scaling legs, which time a SINGLE run per subprocess)
    run_extraction(interleave(flat.limit(2000)), batch_size=None).count()

    def one_run():
        t0 = time.perf_counter()
        out = run_extraction(
            interleave(flat),
            batch_size=None,  # batch == block; read blocks set parallelism
        )
        n_spans = out.count()
        return time.perf_counter() - t0, n_spans

    # best-of-N (default 2): single-box wall times swing +/-2x with host
    # noise (BASELINE.md drift note); noise is one-sided so min() is the
    # stable estimator — same methodology as the scaling legs.  The mean
    # and the raw legs are reported alongside so the headline is
    # auditable.  The scaling harness sets GRAFT_BENCH_RUNS=1: its legs
    # are paired/repeated at the harness level instead.
    n_runs = max(1, int(os.environ.get("GRAFT_BENCH_RUNS", "2")))
    runs = []
    n_spans = None
    for _ in range(n_runs):
        dt_i, n_spans = one_run()
        runs.append(dt_i)
    dt = min(runs)
    return {"sec": dt, "sec_runs": [round(r, 3) for r in runs],
            "sec_mean": sum(runs) / len(runs), "n_docs": n_docs,
            "n_spans": n_spans, "docs_per_sec": n_docs / dt}


def run_queries() -> dict:
    from pdf_ocr_comparison_tool_ray.pipelines.queries import SQL_QUERIES

    import ray.data

    picks = [
        "keyword_topk",
        "exact_dedup",
        "classify_documents",
        "lineitem_agg",
        "nation_revenue",
        "region_revenue",
        "events_daily",
        "sessionize_events",
        "rolling_user_value",
        "asof_event_order",
        "knn_cosine",
        "order_items",
        "session_window",
        "hopping_window",
        # LLM-data-pipeline showcases: near-dup candidates + transitive
        # clusters + the composed curation pass
        "minhash_lsh_pairs",
        "dedup_clusters",
        "curation_pipeline",
        # round-3 breadth: PII scrub + open-vocab tf-idf (both bucketed)
        "pii_redact",
        "tfidf_topk",
        # the flagship extract-and-compare match join (broadcast-index
        # plan, full sf corpus paginated on both sides)
        "compare_pipeline",
        # round-4 breadth: sub-document dedup, sequence packing, LM
        # scoring, filtered ANN, per-source quotas
        "paragraph_dedup",
        "pack_sequences",
        "bigram_logprob",
        "knn_filtered",
        "domain_quota_sample",
        # round-5: the online mutable-gate dedup (sharded seen-set
        # actors), ExactSubstr substring dedup, mix-weight resampling
        "streaming_dedup_ingest",
        "exactsubstr_dedup",
        "mix_resample",
        # late round-5: Gopher-style repetition stats, video frame
        # sampling round-trip, deterministic sharded shuffle
        "doc_repetition_stats",
        "frame_sample",
        "shuffle_shards",
        "resize_digest",
        # SemDeDup: cluster-based semantic dedup over the embeddings
        "semdedup",
        # DSIR: hashed-bigram importance-resampling data selection
        "dsir_select",
        # continuation-3: per-doc decontamination rate, BPE pair
        # counting (tokenizer-training inner loop), quality-aware
        # near-dup survivor selection
        "decontam_frac",
        "bpe_pair_counts",
        "near_dedup_keep_best",
        # CCNet-style cross-doc boilerplate removal (remove-all
        # complement of paragraph_dedup)
        "boilerplate_strip",
        # token-budget data selection (keep the best docs until the
        # global token budget is exhausted; exact boundary resolution)
        "token_budget_select",
        # per-language quantile quality screen (adaptive thresholds)
        "quality_quantile_filter",
        # final session: CCNet perplexity bucketing + the mergeable
        # histogram quantile sketch
        "perplexity_buckets",
        "approx_quantile_hist",
        # continuation-6: context-window chunking + char-entropy signal
        # + PMI co-occurrence mining
        "chunk_windows",
        "char_entropy",
        "pmi_cooccur",
        "winnow_fingerprint",
        # continuation-7: BM25 ranked retrieval (Okapi scorer) + the
        # exact prefix-filter set-similarity join
        "bm25_topk",
        "set_similarity_join",
        # continuation-8: the graph suite (fixed-point pagerank /
        # label-propagation communities / HITS over the trade graph),
        # the Gopher composed keep/drop gate, chi-square keyness, and
        # fixed-point Lloyd k-means
        "pagerank",
        "label_propagation",
        "hits",
        "gopher_filter",
        "chi2_keyness",
        "kmeans",
        # continuation-9: product-quantization ANN and perceptual-hash
        # image near-dup
        "pq_ann",
        "image_phash_dup",
        # continuation-10: full iterated BPE tokenizer training
        "bpe_train",
        # continuation-11: TextRank keyword graph, exact MG heavy
        # hitters, containment search, Aho-Corasick dictionary scan
        "textrank_keywords",
        "heavy_hitters",
        "containment_search",
        "dict_match",
        "edit_distance_join",
        # round-5 session: skyline selection, Z-order layout manifest,
        # CDC upsert merge, JSD source drift, Naive Bayes classify,
        # degree-ordered triangle counting
        "skyline_select",
        "zorder_layout",
        "upsert_merge",
        "jsd_source_drift",
        "naive_bayes_classify",
        "triangle_count",
        # final continuation: OLAP rollup, ordered funnel, item CF,
        # TeraSort global rank, Apriori itemsets, sorted-neighborhood
        # blocking
        "rollup_stats",
        "funnel_stages",
        "item_cf_topk",
        "global_rank",
        "frequent_itemsets",
        "sorted_neighborhood_pairs",
        "rrf_fusion",
        "ols_by_lang",
        "ams_f2",
    ]
    times = {}
    for name in picks:
        fn, _ = SQL_QUERIES[name]
        # best-of-2, same estimator (and rationale) as the headline: the
        # first execution additionally pays one-time worker imports of the
        # query modules (measured 2-6x on the first query to touch a
        # module), which belongs to session warm-up, not the query
        runs = []
        for _ in range(2):
            t0 = time.perf_counter()
            res = fn(SF_DIR)
            if isinstance(res, ray.data.Dataset):
                res.count()
            runs.append(time.perf_counter() - t0)
        times[name] = round(min(runs), 3)
    return times


def _scaling_legs(lo: int, hi: int, replication: str) -> dict:
    """N->4N scaling, CO-SCHEDULED on disjoint core partitions: the
    lo-cpu and hi-cpu sessions (hi = 4*lo; fresh processes, own Ray
    clusters, same input table) run SIMULTANEOUSLY, taskset-pinned to
    disjoint cores, with per-core work held equal (hi replicates the
    corpus 4x).  Efficiency = hi throughput / (4 x lo throughput).

    Why co-scheduled: this host's speed swings up to ~3x across minutes
    (identical 32-cpu legs measured 23-76 s in one session), so ANY
    efficiency built from legs run at different times measures the
    window, not the engine — sequential-pair stamps swung 0.64-1.09.
    Co-residency gives both legs the identical frequency/steal window by
    construction; measured cycle efficiencies agree within ~2% while
    absolute walls swing 15%+ between cycles.

    An idle-box lo/hi reference pair rides along, plus core-speed probes
    quantifying the idle-vs-busy turbo differential the co-scheduling
    removes."""

    me = os.path.abspath(__file__)
    cwd = os.path.dirname(me)
    n_ratio = hi // lo

    def physical_core_groups() -> list[tuple[int, ...]]:
        """Logical cpu ids grouped by physical core (SMT siblings
        together), in first-sibling order.  Falls back to one-cpu
        groups when the sysfs topology is unreadable."""
        import glob

        seen, groups = set(), []
        paths = sorted(
            glob.glob(
                "/sys/devices/system/cpu/cpu[0-9]*/topology/"
                "thread_siblings_list"
            ),
            key=lambda p: int(p.split("/cpu")[-1].split("/")[0]),
        )
        for p in paths:
            try:
                txt = open(p).read().strip()
            except OSError:
                continue
            ids = []
            for part in txt.replace(" ", "").split(","):
                if "-" in part:
                    a, b = part.split("-")
                    ids.extend(range(int(a), int(b) + 1))
                elif part:
                    ids.append(int(part))
            g = tuple(sorted(ids))
            if g and g not in seen:
                seen.add(g)
                groups.append(g)
        if not groups:
            groups = [(i,) for i in range(os.cpu_count() or 1)]
        return groups

    def leg_partitions(n_hi: int, n_lo: int):
        """Disjoint cpu lists for the two legs, each made of WHOLE
        physical cores, so hyperthread siblings never straddle legs
        (an lo-leg cpu sharing a core with an hi-leg cpu would break
        the equal-per-core-capacity premise).  Falls back to the
        contiguous ranges (correct on no-SMT hosts) when the leg sizes
        don't tile the sibling groups."""
        groups = physical_core_groups()
        hi_ids: list[int] = []
        lo_ids: list[int] = []
        it = iter(groups)
        try:
            while len(hi_ids) < n_hi:
                hi_ids.extend(next(it))
            while len(lo_ids) < n_lo:
                lo_ids.extend(next(it))
        except StopIteration:
            hi_ids, lo_ids = [], []
        if len(hi_ids) == n_hi and len(lo_ids) == n_lo:
            return hi_ids, lo_ids, "whole-physical-core partitions"
        return (
            list(range(n_hi)),
            list(range(n_hi, n_hi + n_lo)),
            "contiguous ranges (sibling groups don't tile the legs)",
        )

    def env_for(ncpu: int, rep: int) -> dict:
        return dict(
            os.environ,
            RAY_GRAFT_CPUS=str(ncpu),
            GRAFT_BENCH_ONLY="extract",
            GRAFT_BENCH_NO_SCALING="1",
            GRAFT_BENCH_RUNS="1",
            GRAFT_SF_DIR=SF_DIR,
            GRAFT_BENCH_REPLICATION=str(rep),
            RAY_GRAFT_OBJECT_STORE_BYTES=str(12 * 1024**3),
        )

    def parse(out: str) -> dict:
        return json.loads(out.strip().splitlines()[-1])

    def run_idle(ncpu: int, rep: int) -> dict:
        r = subprocess.run(
            [sys.executable, me], env=env_for(ncpu, rep),
            capture_output=True, text=True, cwd=cwd,
        )
        if r.returncode != 0:
            raise RuntimeError(
                f"idle-reference leg (cpus={ncpu}) exited {r.returncode}; "
                f"stderr tail:\n{r.stderr[-2000:]}"
            )
        return parse(r.stdout)

    # co-scheduled legs must fit the box TOGETHER: lo + hi <= total cores.
    # With 32 cores the co-resident pair is 6 vs 24 (N and 4N, 2 cores
    # spare for OS noise); the idle reference pair keeps the caller's
    # lo/hi (8 vs 32) for continuity with earlier rounds.
    idle_lo, idle_hi = lo, hi
    total = lo + hi  # callers pass (8, 32) -> co-resident pair 6/24
    co_lo = max(2, (total * 3) // 20)
    co_hi = co_lo * n_ratio
    base_rep = int(replication)
    lo_rep = max(1, base_rep * co_lo // 8)
    hi_rep = lo_rep * n_ratio
    hi_ids, lo_ids, part_mode = leg_partitions(co_hi, co_lo)
    hi_cores = ",".join(str(c) for c in hi_ids)
    lo_cores = ",".join(str(c) for c in lo_ids)

    n_cycles = max(1, int(os.environ.get("GRAFT_SCALING_CYCLES", "3")))
    probe0 = _core_speed(co_hi + co_lo)

    import tempfile

    def spawn_leg(cores: str, ncpu: int, rep: int):
        """Launch a co-scheduled leg.  stderr goes to a TEMP FILE, not a
        pipe (Ray's stderr chatter can fill a 64 KB pipe and stall the
        leg mid-run while the driver is draining the OTHER leg — a
        timing distortion) and not DEVNULL (a crashed leg must be
        attributable)."""
        ef = tempfile.TemporaryFile(mode="w+", encoding="utf-8")
        proc = subprocess.Popen(
            ["taskset", "-c", cores, sys.executable, me],
            env=env_for(ncpu, rep), stdout=subprocess.PIPE,
            stderr=ef, text=True, cwd=cwd,
        )
        return proc, ef

    def finish_leg(proc: subprocess.Popen, ef, label: str) -> dict:
        """Drain a leg; a crashed leg (OOM from two concurrent object
        stores, import failure) raises with its stderr tail instead of
        a bare JSONDecodeError."""
        out, _ = proc.communicate()
        ef.seek(0)
        err = ef.read()
        ef.close()
        if proc.returncode != 0:
            raise RuntimeError(
                f"scaling {label} leg exited {proc.returncode}; "
                f"stderr tail:\n{err[-2000:]}"
            )
        try:
            return parse(out)
        except (json.JSONDecodeError, IndexError) as exc:
            raise RuntimeError(
                f"scaling {label} leg produced no JSON ({exc}); "
                f"stdout tail: {out[-500:]!r}; stderr tail:\n{err[-2000:]}"
            ) from exc

    cycles = []
    for _ in range(n_cycles):
        p_hi, ef_hi = spawn_leg(hi_cores, co_hi, hi_rep)
        p_lo, ef_lo = spawn_leg(lo_cores, co_lo, lo_rep)
        r_hi = finish_leg(p_hi, ef_hi, "hi")
        r_lo = finish_leg(p_lo, ef_lo, "lo")
        cycles.append(
            {
                "lo": r_lo,
                "hi": r_hi,
                "eff": round(
                    r_hi["docs_per_sec"] / (n_ratio * r_lo["docs_per_sec"]), 3
                ),
            }
        )
    probe1 = _core_speed(co_hi + co_lo)
    # idle-box reference pair (sequential, otherwise-idle box) —
    # quantifies the turbo differential
    probe_idle0 = _core_speed(idle_lo)
    r_idle_lo = run_idle(idle_lo, base_rep)
    probe_idle1 = _core_speed(idle_lo)
    r_idle_hi = run_idle(idle_hi, base_rep)

    effs = [c["eff"] for c in cycles]
    med = sorted(effs)[len(effs) // 2]
    c = cycles[[c["eff"] for c in cycles].index(med)]
    probe_busy = (probe0 + probe1) / 2.0
    probe_idle = (probe_idle0 + probe_idle1) / 2.0
    return {
        "cpus_lo": co_lo,
        "cpus_hi": co_hi,
        "mode": (
            f"co-scheduled disjoint-core legs (lo on cpus {lo_cores}, hi on "
            f"{hi_cores}, {part_mode}, simultaneous, equal per-core work) "
            f"— drift-immune by construction; "
            f"idle-box reference pair alongside"
        ),
        "sec_lo": c["lo"]["value"],
        "sec_hi": c["hi"]["value"],
        "docs_per_sec_lo": c["lo"]["docs_per_sec"],
        "docs_per_sec_hi": c["hi"]["docs_per_sec"],
        "n_docs_lo": c["lo"]["n_docs"],
        "n_docs_hi": c["hi"]["n_docs"],
        "speedup": round(c["hi"]["docs_per_sec"] / c["lo"]["docs_per_sec"], 3),
        "scaling_efficiency": med,
        "scaling_efficiency_cycles": effs,
        "sec_lo_all": [cy["lo"]["value"] for cy in cycles],
        "sec_hi_all": [cy["hi"]["value"] for cy in cycles],
        "idle_reference": {
            "cpus": [idle_lo, idle_hi],
            "sec": [r_idle_lo["value"], r_idle_hi["value"]],
            "docs_per_sec": [
                r_idle_lo["docs_per_sec"], r_idle_hi["docs_per_sec"]
            ],
            "raw_idle_efficiency": round(
                r_idle_hi["docs_per_sec"]
                / ((idle_hi / idle_lo) * r_idle_lo["docs_per_sec"]), 3
            ),
            "core_speed_probe_sec_idle_lo": round(probe_idle, 3),
            "core_speed_probe_sec_busy": round(probe_busy, 3),
            "core_slowdown_busy_vs_idle": round(probe_busy / probe_idle, 3),
        },
    }


def main() -> None:
    # the scaling evidence runs FIRST, before this process opens its own
    # Ray session — its legs are fresh subprocesses and must be the only
    # sessions alive while timing
    scaling_block = None
    if NUM_CPUS >= 16 and not (
        HEADLINE_ONLY or os.environ.get("GRAFT_BENCH_NO_SCALING")
    ):
        # Under the old sequential design leg length mattered (fixed
        # costs hit the short hi leg asymmetrically: 0.68 @ rep 64 vs
        # 0.89 @ 256).  The co-scheduled harness holds PER-CORE work
        # equal, so fixed costs are symmetric and cancel in the ratio —
        # a rep-64 smoke read 0.991 vs 0.989 at rep 256.  Default 128
        # keeps legs ~60 s (long enough to stream, short enough that
        # the driver-run bench stays ~10 min end to end).
        scaling_block = _scaling_legs(
            8, NUM_CPUS, os.environ.get("GRAFT_SCALING_REPLICATION", "128")
        )

    import ray

    init_kwargs = {}
    # concurrent scaling legs cap their object stores so four 8-cpu
    # sessions fit one box (default is 30% of RAM EACH)
    obj_bytes = os.environ.get("RAY_GRAFT_OBJECT_STORE_BYTES")
    if obj_bytes:
        init_kwargs["object_store_memory"] = int(obj_bytes)
    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
        **init_kwargs,
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    head = run_headline()
    queries = {} if HEADLINE_ONLY else run_queries()
    record = {
        "metric": "interleaved-extraction end-to-end wall time "
                  "(docs_per_sec = headline throughput)",
        "value": round(head["sec"], 3),
        "unit": "sec",
        "value_mean": round(head["sec_mean"], 3),
        "value_runs": head["sec_runs"],
        "queries": queries,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "n_docs": head["n_docs"],
        "n_spans": head["n_spans"],
        "docs_per_sec": round(head["docs_per_sec"], 2),
    }
    if scaling_block is not None:
        record["scaling"] = scaling_block
    print(json.dumps(record))
    ray.shutdown()


def skew() -> None:
    """Media-heavy skew A/B: same corpus (a few documents with ~10^4x the
    median span count), extraction WITHOUT vs WITH the post-explode
    repartition.  Without it the giant documents' blocks serialize on one
    task each; the repartition spreads their spans across the CPUs (the
    reassembly then must take the groupby(doc_id) shuffle path)."""
    import ray

    ray.init(
        address="local", num_cpus=NUM_CPUS, include_dashboard=False,
        ignore_reinit_error=True, logging_level="ERROR",
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import pandas as pd
    import ray.data

    from pdf_ocr_comparison_tool_ray.pipelines.extraction import (
        interleave,
        run_extraction,
    )

    base = ray.data.read_parquet(
        f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"],
        override_num_blocks=NUM_CPUS * 2,
    ).to_pandas()
    # skew tail: 4 docs whose text (hence span count) is ~2500x the median —
    # each giant's exploded spans fill one block, i.e. one straggler task
    giants = []
    for g in range(4):
        giants.append(
            {"doc_id": f"giant{g}", "text": " ".join(pd.concat([base["text"]] * 8, ignore_index=True))}
        )
    corpus = pd.concat([base, pd.DataFrame(giants)], ignore_index=True)
    flat = ray.data.from_pandas(corpus).repartition(NUM_CPUS * 2)

    from pdf_ocr_comparison_tool_ray.pipelines.extraction import (
        run_extraction_skew_aware,
    )

    def run(num_output_blocks):
        t0 = time.perf_counter()
        out = run_extraction(
            interleave(flat),
            batch_size=None if num_output_blocks is None else 512,
            num_output_blocks=num_output_blocks,
        )
        n = out.count()
        return round(time.perf_counter() - t0, 3), n

    def run_aware():
        t0 = time.perf_counter()
        out = run_extraction_skew_aware(interleave(flat))
        n = out.count()
        return round(time.perf_counter() - t0, 3), n

    sec_no, n1 = run(None)          # straggler: giants serialize on one task
    sec_global, n2 = run(NUM_CPUS * 4)  # global repartition: all spans shuffle
    sec_aware, n3 = run_aware()     # only the giants' spans shuffle
    assert n1 == n2 == n3
    print(
        json.dumps(
            {
                "metric": "media-heavy skew defusal",
                "n_spans": n1,
                "sec_no_mitigation": sec_no,
                "sec_global_repartition": sec_global,
                "sec_skew_aware_split": sec_aware,
                "speedup_aware_vs_none": round(sec_no / sec_aware, 3),
                "num_cpus": NUM_CPUS,
                "sf": SF_DIR,
            }
        )
    )
    ray.shutdown()


def _busy(_):
    s = 0
    for i in range(5_000_000):
        s += i * i
    return s


def _core_speed(n_workers: int) -> float:
    """Seconds per fixed CPU-bound task with n_workers cores busy.

    Single-box confounder for the N->4N measurement: with 32 cores busy
    this host clocks each core ~0.7x its 8-busy speed (turbo/thermal), a
    term that disappears on a real multi-node cluster where every node
    runs the same per-core load.  Measured in-process so each leg's probe
    shares its host window.
    """
    import multiprocessing as mp

    with mp.Pool(n_workers) as pool:
        t0 = time.perf_counter()
        pool.map(_busy, range(n_workers * 3))
    return (time.perf_counter() - t0) / 3.0


def scaling() -> None:
    """Standalone N->4N scaling record — same interleaved-pairs harness
    the driver-mode bench embeds (``_scaling_legs``), larger corpus so
    fixed costs (driver planning, worker spin-up, the single read task)
    amortize — the regime that actually represents the 100 TB target
    (raw efficiency: 0.68 @ rep 64, 0.71 @ 128, 0.89 @ 256)."""
    block = _scaling_legs(
        8, 32, os.environ.get("GRAFT_BENCH_REPLICATION", "128")
    )
    block["metric"] = "N->4N scaling of the extraction headline"
    block["sf"] = SF_DIR
    print(json.dumps(block))


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        scaling()
    elif "--skew" in sys.argv:
        skew()
    else:
        main()
