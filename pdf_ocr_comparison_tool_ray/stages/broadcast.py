"""Per-worker memo for broadcast state.

A map task that reads small shared state — reference J7's keyword and
folder maps (``project_detector.py:49-87``), a dim table, an index, a
centroid matrix — gets it through ``broadcast_get``: the driver
``ray.put``s the state once, and each worker process fetches it once,
however many batches it maps.  The broadcast join itself is the small-
side route of ``stages/bucketed.py::size_routed_join``.
"""

from __future__ import annotations

import ray

_BROADCAST_CACHE: dict = {}
_BROADCAST_CACHE_MAX = 64


def broadcast_get(ref, build=None, key=None):
    """Per-worker-process memoized ``ray.get`` for SMALL broadcast state.

    Task-pool ``map_batches`` reuses warm worker processes, so the fetch
    (plus the optional derived-state ``build``) runs once per worker
    instead of once per actor-pool spin-up — measured 3x on the
    broadcast-join queries, whose small actor pools paid fresh actor
    startup on every query call while the task path stayed warm.

    Only for lookup state of broadcast size: the memo pins the object in
    every worker that touched it (capped — the cache clears at
    ``_BROADCAST_CACHE_MAX`` distinct keys so long-lived workers never
    accumulate dead state).  Corpus-proportional state must NOT flow
    through here: size-route to a co-partition join instead, and build
    model-scale state once per worker process through an ``lru_cache``
    factory (``stages/extract.py::extract_batch``).

    ``key`` extends the memo key beyond the ref when ``build`` depends
    on extra parameters (e.g. knn's nprobe).
    """
    k = ref if key is None else (ref, key)
    st = _BROADCAST_CACHE.get(k)
    if st is None:
        if len(_BROADCAST_CACHE) >= _BROADCAST_CACHE_MAX:
            _BROADCAST_CACHE.clear()
        val = ray.get(ref)
        st = build(val) if build is not None else val
        _BROADCAST_CACHE[k] = st
    return st
