"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload extract --seed 1 --seconds 10 --trace 0

Run from the repository root.  Workloads: extract, compare, curate,
query_mix (see ``BENCHMARK.json``).  Inputs are generated from
``--seed``; each pass's output is checked outside the timed window, and
a pass that raises, times out or fails its check counts as failed
(``ok_frac`` is the share of passes that did neither).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run, whose spans are written to
``.bench_out/``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it records the run's configuration and the workload's
defining properties.  The benchmark's own tests:
``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

import pyarrow as pa  # noqa: E402

from perfbench import host  # noqa: E402

RAY_CPUS = 4  # the count the repo's own test session runs green with
OBJECT_STORE_MB = 256
RUN_BUDGET_S = 150.0  # passes stop here; the whole run must end inside 180 s
MIN_PASSES = 2
# The traced run's named spans (layers plus read/convert glue) must
# cover this share of the layer pass: time outside every named span is
# work no layer metric accounts for.
MIN_COVERAGE = 0.95

# With 1 logical CPU the extractor actor pool takes the only CPU and the
# read task is never scheduled; with 2, q_dict_match's (2, 8) pool hangs
# the same way.  Program defects, recorded in BENCHMARK.json.
KNOWN_DEFECT = (
    "known program defect: with 1 logical Ray CPU run_extraction hangs "
    "(the extractor pool holds the only CPU), and with 2 q_dict_match's "
    "(2, 8) actor pool hangs the same way"
)

END_TO_END = ["items_per_s", "setup_s", "ok_frac", "driver_peak_rss_mb", "cpu_s_per_item"]
UNITS = {
    "items_per_s": "items/s", "setup_s": "s", "ok_frac": "ratio",
    "driver_peak_rss_mb": "MB", "cpu_s_per_item": "s",
}

# traced-run span name -> per-layer metric name
BUSY = {
    "sources.interleave": "sources.interleave.busy_s",
    "stages.explode": "stages.explode.busy_s",
    "stages.extract": "stages.extract.busy_s",
    "stages.reassemble": "stages.reassemble.busy_s",
    "stages.enrich": "stages.enrich.busy_s",
    "stages.match.index_build": "stages.match.index_build_s",
    "stages.match.probe": "stages.match.probe_busy_s",
    "stages.match.merge": "stages.match.merge_busy_s",
    "stages.broadcast": "stages.broadcast.pickle_s",
    "pipelines.reports": "pipelines.reports.busy_s",
    "stages.bucketed": "stages.bucketed.busy_s",
    "pipelines.curate.gate": "pipelines.curate.gate_busy_s",
    "state.checkpoint.write": "state.checkpoint.write_s",
}
COUNTERS = {
    "stages.extract.spans": "count",
    "stages.extract.pdf_native_frac": "ratio",
    "stages.broadcast.index_mb": "MB",
    "stages.match.hash_hit_frac": "ratio",
    "stages.match.fallback_frac": "ratio",
    "stages.match.candidates_per_probe": "count",
    "stages.match.useful_frac": "ratio",
    "stages.bucketed.rows_shuffled": "count",
    "pipelines.curate.gate_keep_frac": "ratio",
    "pipelines.curate.dedup_keep_frac": "ratio",
    "state.checkpoint.files_written": "count",
    "state.checkpoint.mb_written": "MB",
    "ray_data.tasks": "count",
    "ray_data.blocks": "count",
}
TIMES = [
    "ray_data.wait_s", "setup.ray_init_s", "setup.warmup_s", "host.canary_s", "host.steal_s",
    "trace.untraced_pass_s", "trace.traced_pass_s", "trace.overhead_s",
]


def per_layer_names():
    from perfbench.workloads import QUERY_PICKS

    names = {m: "s" for m in BUSY.values()}
    names.update(COUNTERS)
    names.update({m: "s" for m in TIMES})
    names.update({f"pipelines.queries.{p}.wall_s": "s" for p in QUERY_PICKS})
    return names


class PassTimeout(Exception):
    pass


@contextmanager
def deadline(seconds: float):
    """Raise PassTimeout in the main thread after ``seconds``."""
    def on_alarm(signum, frame):
        raise PassTimeout(f"pass exceeded {seconds:.0f} s")

    old = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 0.01))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


class Runner:
    def __init__(self, t_start: float):
        self.t_start = t_start  # perf_counter at process start
        self.attempted = 0
        self.failed = 0
        self.hung = False
        self.session_dir = None  # a Ray session dir inside the checkout
        self.stats_ds = None  # the first timed pass's output Dataset

    def elapsed(self) -> float:
        return time.perf_counter() - self.t_start

    def remaining(self) -> float:
        return RUN_BUDGET_S - self.elapsed()

    # -- Ray session -------------------------------------------------------
    def ray_start(self) -> float:
        import ray

        kwargs = dict(
            num_cpus=RAY_CPUS,
            object_store_memory=OBJECT_STORE_MB * 1024 * 1024,
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
        )
        # Ray's session sockets live under the temp dir and a unix socket
        # path is capped at 107 bytes, so only a short checkout path can
        # hold them; otherwise Ray's default temp dir is used.
        tmp = ROOT / ".bench_ray"
        if len(str(tmp)) <= 40:
            kwargs["_temp_dir"] = str(tmp)
        t0 = time.perf_counter()
        ray.init(**kwargs)
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False
        if "_temp_dir" in kwargs:
            self.session_dir = ray._private.worker._global_node.get_session_dir_path()
        return time.perf_counter() - t0

    def ray_stop(self) -> None:
        """Shut Ray down and wait until every process it started is gone."""
        import ray

        if ray.is_initialized():
            ray.shutdown()
        for _ in range(100):
            left = host.live_children()
            if not left:
                break
            time.sleep(0.1)
        for p in left:
            try:
                os.kill(int(p), signal.SIGKILL)
            except OSError:
                pass
        if self.session_dir:
            shutil.rmtree(self.session_dir, ignore_errors=True)
            self.session_dir = None

    # -- passes --------------------------------------------------------------
    def one_pass(self, wl, k: int, timeout: float, keep_stats: bool = False):
        """Run, time and check one pass -> (wall, cpu, peak_mb, steal), or None
        when it raised, timed out or failed its output check."""
        self.attempted += 1
        # drop the previous pass's garbage so each pass's peak starts
        # from the same baseline
        gc.collect()
        pa.default_memory_pool().release_unused()
        host.reset_peak_rss()
        h0, t0 = host.host_ticks(), time.perf_counter()
        out, ok = None, False
        try:
            with deadline(min(timeout, self.remaining())):
                out = wl.run(k)
            wall = time.perf_counter() - t0
            cpu, steal = host.host_s_between(h0, host.host_ticks())
            peak = host.peak_rss_mb()
            ok = wl.check(out)
            if not ok:
                log(f"pass {k}: output check FAILED")
        except PassTimeout as e:
            log(f"pass {k}: {e}")
            self.hung = True
        except Exception:  # noqa: BLE001 - a raising pass is a failed pass
            log(f"pass {k} raised:\n{traceback.format_exc()}")
        if out is not None:
            if keep_stats:
                self.stats_ds = wl.stats_dataset(out)
            wl.release(out)
        if not ok:
            self.failed += 1
            return None
        return wall, cpu, peak, steal

    def timed(self, wl, seconds: float, timeout: float):
        """Closed loop, one client: passes back to back until ``seconds``
        of pass wall time and at least MIN_PASSES passes are done."""
        samples, spent, k = [], 0.0, 0
        while not self.hung and self.remaining() > 0:
            k += 1
            r = self.one_pass(wl, k, timeout, keep_stats=(k == 1))
            if r is not None:
                samples.append(r)
                spent += r[0]
            if k >= MIN_PASSES and (spent >= seconds or not samples):
                break
        return samples


def main(argv=None) -> int:
    t_start = time.perf_counter() - host.process_age_s()
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # -- preflight -------------------------------------------------------------
    if RAY_CPUS < 2:
        log(f"refusing to start Ray with {RAY_CPUS} logical CPU(s): {KNOWN_DEFECT}")
        return 3
    if not (ROOT / "pdf_ocr_comparison_tool_ray" / "__init__.py").is_file():
        log(f"engine package not found under {ROOT}; run from a full checkout")
        return 2
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        log(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        return 2

    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    os.environ["RAY_DATA_DISABLE_PROGRESS_BARS"] = "1"
    # Ray workers import the engine package from the checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT), os.environ.get("PYTHONPATH", "")) if p
    )
    os.chdir(ROOT)

    canary = [host.canary_s()]
    t_imp = time.perf_counter()
    import ray  # noqa: F401

    import pdf_ocr_comparison_tool_ray.pipelines.queries  # noqa: F401
    from perfbench.trace import Tracer

    import_s = time.perf_counter() - t_imp

    data_dir = ROOT / ".bench_data" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(data_dir, ignore_errors=True)
    wl = WORKLOADS[args.workload](data_dir, args.seed)
    run = Runner(t_start)
    try:
        t0 = time.perf_counter()
        props = wl.generate()
        gen_s = time.perf_counter() - t0

        init_s = run.ray_start()
        t0 = time.perf_counter()
        wl.prepare()
        oracle_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        run.one_pass(wl, 0, timeout=90.0)
        warm_s = time.perf_counter() - t0
        # process start -> first timed pass, less input generation and
        # oracle preparation
        setup_s = run.elapsed() - gen_s - oracle_s

        timeout = min(60.0, max(20.0, 6 * warm_s))
        samples = run.timed(wl, args.seconds, timeout)

        layer = {}
        if args.trace and not run.hung:
            try:
                with deadline(run.remaining()):
                    layer = traced(run, wl, samples, Tracer(), props)
            except Exception:  # noqa: BLE001 - a raising or hung layer fails the run
                log(f"traced run raised:\n{traceback.format_exc()}")
    finally:
        run.ray_stop()
        shutil.rmtree(data_dir, ignore_errors=True)
    canary.append(host.canary_s())

    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "ray_cpus": RAY_CPUS,
        "object_store_mb": OBJECT_STORE_MB, **host.versions(),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "properties": props, "items_per_pass": wl.items, "item": wl.items_name,
        "timed_passes": len(samples), "setup_s": round(setup_s, 3),
        "pass_walls": [round(x[0], 3) for x in samples],
        "pass_cpus": [round(x[1], 3) for x in samples],
        "pass_steal": [round(x[3], 3) for x in samples],
        "ray_init_s": round(init_s, 3), "warmup_s": round(warm_s, 3),
        "import_s": round(import_s, 3), "generate_s": round(gen_s, 3),
        "oracle_s": round(oracle_s, 3), "known_defect": KNOWN_DEFECT,
    }
    print(json.dumps({"run_info": info}))

    ok = run.failed == 0 and run.attempted > 0 and bool(samples)
    if args.trace:
        ok = ok and layer.pop("_ok", False)
        layer["setup.ray_init_s"] = init_s
        layer["setup.warmup_s"] = warm_s
        layer["host.canary_s"] = statistics.median(canary)
        if samples:
            layer["host.steal_s"] = statistics.median(s[3] for s in samples)
        # every per-layer metric is printed; a layer the workload does not
        # run reads 0
        metrics = {n: {"value": float(layer.get(n, 0.0)), "unit": u}
                   for n, u in per_layer_names().items()}
    else:
        # medians over the run's passes; a run without a completed pass
        # reports 0 for what it could not measure
        walls, cpus, peaks = ([s[i] for s in samples] for i in range(3))
        metrics = {
            "items_per_s": wl.items / statistics.median(walls) if walls else 0.0,
            "setup_s": setup_s,
            "ok_frac": (run.attempted - run.failed) / max(1, run.attempted),
            "driver_peak_rss_mb": statistics.median(peaks) if peaks else 0.0,
            "cpu_s_per_item": statistics.median(cpus) / wl.items if cpus else 0.0,
        }
        metrics = {n: {"value": metrics[n], "unit": UNITS[n]} for n in END_TO_END}
    print(json.dumps({"correct": ok, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


def traced(run: Runner, wl, samples, tr, props: dict) -> dict:
    """Per-layer numbers: direct layer calls, then the staged pipeline."""
    from perfbench.workloads import dataset_counts

    untraced = statistics.median(s[0] for s in samples) if samples else 0.0
    tr.pass_id = 1
    counters, ok_layers = wl.layer_pass(tr)
    self_t = tr.self_times(pass_id=1)
    covered = tr.coverage("pass.layers", pass_id=1)

    tr.pass_id = 2
    staged_ds, ok_staged = wl.staged_pass(tr)
    traced_wall = tr.duration("pass.staged", pass_id=2)

    out = dict(counters)
    for span, metric in BUSY.items():
        out[metric] = self_t.get(span, 0.0)
    for name, t in self_t.items():
        if name.startswith("pipelines.queries."):
            out[name + ".wall_s"] = t
    busy = sum(t for n, t in self_t.items() if n in BUSY or n.startswith("pipelines.queries."))
    out["ray_data.wait_s"] = untraced - busy
    first = run.stats_ds if run.stats_ds is not None else staged_ds
    datasets = [first, *wl.staged_datasets]
    counts = [dataset_counts(d) for d in datasets if d is not None]
    out["ray_data.tasks"] = sum(c[0] for c in counts)
    out["ray_data.blocks"] = sum(c[1] for c in counts)
    if wl.last_written:
        out["state.checkpoint.files_written"], out["state.checkpoint.mb_written"] = wl.last_written
    out["trace.untraced_pass_s"] = untraced
    out["trace.traced_pass_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - untraced
    out["_ok"] = ok_layers and ok_staged and covered >= MIN_COVERAGE
    if not out["_ok"]:
        log(f"traced run: layer output ok={ok_layers} staged output ok={ok_staged} "
            f"named spans cover {covered:.3f} of the layer pass (need {MIN_COVERAGE})")
    tr.write(ROOT / ".bench_out" / f"trace-{wl.name}-{wl.seed}.json",
             {"workload": wl.name, "seed": wl.seed, "properties": props,
              "self_times": self_t, "covered_frac": covered,
              "untraced_pass_s": untraced})
    return out


if __name__ == "__main__":
    sys.exit(main())
