"""Host-side measurements read from ``/proc`` (psutil is not assumed).

* Busy and stolen CPU seconds of the whole host.
* The live descendants of this process (the Ray GCS, raylet and
  workers, when Ray is started locally), to wait for them at the end.
* Peak RSS of this process, resettable so a peak can be scoped to a
  window.
* A fixed pure-Python canary loop that shows host drift.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

_TICK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: str):
    raw = Path(f"/proc/{pid}/stat").read_text()
    # comm may hold spaces; fields after the closing paren are fixed
    return raw[raw.rindex(")") + 2 :].split()


def _tree() -> dict:
    """pid -> /proc stat fields after the command name, for this process
    and all its descendants."""
    me = str(os.getpid())
    fields = {}
    for entry in os.scandir("/proc"):
        if entry.name.isdigit():
            try:
                fields[entry.name] = _stat_fields(entry.name)
            except (OSError, ValueError):
                pass  # exited while scanning
    tree = {}
    for pid, f in fields.items():
        p = pid
        while p in fields and p != me:
            p = fields[p][1]  # ppid
        if p == me:
            tree[pid] = f
    return tree


def live_children() -> list:
    """Descendant pids of this process that have not exited."""
    me = str(os.getpid())
    return [p for p, f in _tree().items() if p != me and f[0] != "Z"]


def host_ticks() -> tuple:
    """(busy, steal) CPU ticks of the whole host from /proc/stat.

    The benchmark is the host's only load (an idle host shows about
    0.03 busy CPU-s per second), so busy time is the driver plus every
    Ray process.  Read host-wide because per-process counters lose the
    time of a process that exits inside the window: Ray's raylet does
    not collect its exited workers' times, and the executor retires its
    actors as a pass ends.  Steal is time the hypervisor gave this
    host's CPUs to others; it slows a pass without using its CPU."""
    f = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    user, nice, system, idle, iowait, irq, softirq, steal = f[:8]
    return user + nice + system + irq + softirq, steal


def host_s_between(a: tuple, b: tuple) -> tuple:
    return (b[0] - a[0]) / _TICK, (b[1] - a[1]) / _TICK


def reset_peak_rss() -> bool:
    """Reset this process's VmHWM to its current RSS (Linux >= 4.0)."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
        return True
    except OSError:
        return False


def _status_kb(key: str) -> float:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith(key + ":"):
            return float(line.split()[1])
    return 0.0


def peak_rss_mb() -> float:
    return _status_kb("VmHWM") / 1024.0


def rss_mb() -> float:
    return _status_kb("VmRSS") / 1024.0


def canary_s() -> float:
    """Time a fixed integer loop; depends on no program code."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - t0


def process_age_s() -> float:
    """Seconds since this process started (interpreter start-up included)."""
    start_ticks = int(_stat_fields("self")[19])
    uptime = float(Path("/proc/uptime").read_text().split()[0])
    return uptime - start_ticks / _TICK


def versions() -> dict:
    import platform

    import pyarrow
    import ray

    return {
        "python": platform.python_version(),
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
    }
