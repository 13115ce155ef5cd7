"""Page/span matching: exact-hash short-circuit, candidate pruning,
similarity scoring, and ordered run-merge.

Reference semantics (preserved exactly, with nondeterminism removed):

* J1 ``content_matcher.py:283-289`` — hash matches (similarity 1.0)
  short-circuit all other matching; the reference returns them in index
  insertion order, we sort build pages by (doc_id, offset) so the
  "first" match is deterministic.
* J2 ``:291-300`` — candidate pruning: union of build pages sharing any
  date or normalized amount.
* J3 ``:302-306`` — no candidates -> first 100 build pages; arbitrary
  order in the reference, deterministic (sorted) here.
* J4/J5 ``:308-367`` — similarity >= partial_threshold kept, sorted
  desc (tiebreak (doc_id, offset)), top-5; best match -> status by
  thresholds 0.95/0.75; matched keywords = set intersection (sorted).
* J6 ``:415-508`` — consecutive-run merge: same target doc, same
  status, target offsets consecutive -> one range row with averaged
  similarity and unioned keywords.

Topology: the build side is materialized into a compact index and
broadcast once via ``ray.put`` (the reference's in-memory
``PageFeatureIndex`` is small by design); probe tasks fetch it once per
worker process (``match_batch_ref``).  For a large build side the same probe logic
runs after a ``groupby(text_hash)`` co-shuffle — see
``pipelines/compare.py`` notes.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from typing import Dict, List, Optional, Tuple

import pyarrow as pa

from ..config import MATCHING, STATUS_EXACT, STATUS_LOW, STATUS_NONE, STATUS_PARTIAL
from ..functions.similarity import levenshtein_similarity
from ..functions.textnorm import normalize_amount
from ..functions.tokenize import tokenize


def _token_features(text: str) -> Tuple[Counter, float, frozenset]:
    """(term-frequency Counter, euclidean norm, token set) — the three
    token-derived inputs the similarity kernels need.  Computed ONCE per
    page at index-build time and once per probe row (the naive path
    retokenized both texts on every candidate pair — up to 100
    tokenizations of the same probe under the fallback)."""
    tf = Counter(tokenize(text))
    return tf, math.sqrt(sum(v * v for v in tf.values())), frozenset(tf)


class PageIndex:
    """The reference's ``PageFeatureIndex`` (content_matcher.py:164-213)
    as a plain picklable structure; pages stored column-light."""

    def __init__(self) -> None:
        self.pages: List[dict] = []  # {doc_id, offset, text, keywords}
        self.hash_index: Dict[str, List[int]] = defaultdict(list)
        self.date_index: Dict[str, List[int]] = defaultdict(list)
        self.amount_index: Dict[str, List[int]] = defaultdict(list)

    def add_page(self, page: dict) -> None:
        idx = len(self.pages)
        self.pages.append(
            {
                "doc_id": page["doc_id"],
                "offset": page["offset"],
                "text": page["text"],
                "keywords": page.get("keywords", []),
                # token features ("tf"/"norm"/"tokset") are attached
                # LAZILY by find_matches on first scoring — computing
                # them here would serialize the work on the driver at
                # index-build time and ship pickled Counters in the
                # broadcast (measured slower than one in-worker pass)
            }
        )
        self.hash_index[page["text_hash"]].append(idx)
        for d in page.get("dates", []):
            self.date_index[d].append(idx)
        for a in page.get("amounts", []):
            self.amount_index[normalize_amount(a)].append(idx)

    @classmethod
    def from_rows(cls, rows: List[dict]) -> "PageIndex":
        """Build from enriched span rows, sorted for determinism."""
        index = cls()
        for row in sorted(rows, key=lambda r: (r["doc_id"], r["offset"])):
            index.add_page(row)
        return index


def find_matches(index: PageIndex, probe: dict,
                 cfg: Optional[dict] = None) -> List[Tuple[int, float]]:
    """-> [(build_page_idx, similarity)] — reference find_matches semantics."""
    cfg = cfg or MATCHING
    hash_hits = index.hash_index.get(probe["text_hash"], [])
    if hash_hits:
        return [(i, 1.0) for i in hash_hits]
    candidates: set[int] = set()
    for d in probe.get("dates", []):
        candidates.update(index.date_index.get(d, []))
    for a in probe.get("amounts", []):
        candidates.update(index.amount_index.get(normalize_amount(a), []))
    if not candidates:
        candidates = set(range(min(cfg["fallback_candidates"], len(index.pages))))
    scored: List[Tuple[int, float]] = []
    algorithm = cfg["algorithm"]
    floor = cfg["partial_match_threshold"]
    # tokenize the probe ONCE (after the hash short-circuit); per-candidate
    # work is then a dict-dot / set-intersection against the page's
    # pre-tokenized features — bit-exact vs calculate_similarity (integer
    # dot and integer norm sums are order-independent, sqrt/division
    # identical), equivalence-pinned in test_match.py
    if algorithm == "levenshtein":
        probe_tf = probe_norm = probe_set = None  # text-based DP, no tokens
    else:
        probe_tf, probe_norm, probe_set = _token_features(probe["text"])
    for i in sorted(candidates):
        page = index.pages[i]
        if algorithm == "levenshtein":
            sim = levenshtein_similarity(probe["text"], page["text"])
        elif algorithm == "jaccard":
            if "tokset" not in page:
                page["tf"], page["norm"], page["tokset"] = _token_features(page["text"])
            union = probe_set | page["tokset"]
            sim = len(probe_set & page["tokset"]) / len(union) if union else 0.0
        else:  # cosine — also the unknown-algorithm fallback (dispatch parity)
            if "tf" not in page:
                page["tf"], page["norm"], page["tokset"] = _token_features(page["text"])
            tf2, n2 = page["tf"], page["norm"]
            if not probe_tf or not tf2:
                sim = 0.0
            else:
                a, b = (probe_tf, tf2) if len(probe_tf) <= len(tf2) else (tf2, probe_tf)
                dot = sum(v * b.get(k, 0) for k, v in a.items())
                sim = dot / (probe_norm * n2) if probe_norm and n2 else 0.0
        if sim >= floor:
            scored.append((i, sim))
    scored.sort(key=lambda t: (-t[1], index.pages[t[0]]["doc_id"], index.pages[t[0]]["offset"]))
    return scored[: cfg["top_k"]]


def match_page(index: PageIndex, probe: dict, cfg: Optional[dict] = None) -> dict:
    """-> one match-result row (reference match_page, content_matcher.py:320-367)."""
    cfg = cfg or MATCHING
    matches = find_matches(index, probe, cfg)
    if not matches:
        return {
            "source_doc_id": probe["doc_id"],
            "source_offset": probe["offset"],
            "doc_type": probe.get("doc_type", ""),
            "match_status": STATUS_NONE,
            "target_doc_id": "",
            "target_offset": -1,
            "similarity": 0.0,
            "matched_keywords": [],
        }
    best_idx, similarity = matches[0]
    best = index.pages[best_idx]
    if similarity >= cfg["exact_match_threshold"]:
        status = STATUS_EXACT
    elif similarity >= cfg["similarity_threshold"]:
        status = STATUS_PARTIAL
    else:
        status = STATUS_LOW
    matched_keywords = sorted(set(probe.get("keywords", [])) & set(best["keywords"]))
    return {
        "source_doc_id": probe["doc_id"],
        "source_offset": probe["offset"],
        "doc_type": probe.get("doc_type", ""),
        "match_status": status,
        "target_doc_id": best["doc_id"],
        "target_offset": best["offset"],
        "similarity": similarity,
        "matched_keywords": matched_keywords,
    }


_RESULT_SCHEMA = pa.schema(
    [
        ("source_doc_id", pa.string()),
        ("source_offset", pa.int32()),
        ("doc_type", pa.string()),
        ("match_status", pa.string()),
        ("target_doc_id", pa.string()),
        ("target_offset", pa.int32()),
        ("similarity", pa.float64()),
        ("matched_keywords", pa.list_(pa.string())),
    ]
)


def match_batch(batch: pa.Table, index: PageIndex, cfg: Optional[dict] = None) -> pa.Table:
    """Probe one Arrow batch against an in-memory index -> result rows."""
    cfg = cfg or MATCHING
    rows = batch.to_pylist()
    out = [match_page(index, r, cfg) for r in rows]
    cols = {name: [r[name] for r in out] for name in _RESULT_SCHEMA.names}
    return pa.Table.from_pydict(cols, schema=_RESULT_SCHEMA)


def match_batch_ref(batch: pa.Table, index_ref=None, cfg: Optional[dict] = None) -> pa.Table:
    """Task-form probe stage: per-worker-process memoized index fetch
    (``broadcast_get``), then ``match_batch``.

    Task workers are reused, so the index unpickle (and the lazy
    token-feature pass over scored pages) runs once per process; one
    index copy per worker, and the broadcast route is size-gated by
    ``run_compare_auto``."""
    from .broadcast import broadcast_get

    return match_batch(batch, broadcast_get(index_ref), cfg)


def merge_match_group(group: pa.Table) -> pa.Table:
    """J6 ordered run-merge — handles one or MANY source documents per
    table (rows sort by (source_doc_id, source_offset); a doc change
    always breaks the run), so it serves both the per-group form and the
    bucket-wise co-partition (one Python call per sorted block of hash
    buckets, not per document)."""
    import pyarrow.compute as pc

    g = group.take(
        pc.sort_indices(
            group,
            sort_keys=[("source_doc_id", "ascending"), ("source_offset", "ascending")],
        )
    )
    rows = g.to_pylist()
    merged: List[dict] = []
    cur: List[dict] = [rows[0]]
    for prev, curr in zip(rows, rows[1:]):
        can_merge = (
            prev["source_doc_id"] == curr["source_doc_id"]
            and prev["target_doc_id"] == curr["target_doc_id"]
            and prev["match_status"] == curr["match_status"]
            and prev["target_doc_id"] != ""
            and curr["target_offset"] == prev["target_offset"] + 1
        )
        if can_merge:
            cur.append(curr)
        else:
            merged.append(_merge_run(cur))
            cur = [curr]
    merged.append(_merge_run(cur))
    cols = {
        "source_doc_id": [m["source_doc_id"] for m in merged],
        "source_start": [m["source_start"] for m in merged],
        "source_end": [m["source_end"] for m in merged],
        "doc_type": [m["doc_type"] for m in merged],
        "match_status": [m["match_status"] for m in merged],
        "target_doc_id": [m["target_doc_id"] for m in merged],
        "target_start": [m["target_start"] for m in merged],
        "target_end": [m["target_end"] for m in merged],
        "similarity": [m["similarity"] for m in merged],
        "matched_keywords": [m["matched_keywords"] for m in merged],
    }
    return pa.Table.from_pydict(cols)


def _merge_run(run: List[dict]) -> dict:
    first, last = run[0], run[-1]
    avg_sim = sum(r["similarity"] for r in run) / len(run)
    keywords = sorted({k for r in run for k in r["matched_keywords"]})
    return {
        "source_doc_id": first["source_doc_id"],
        "source_start": first["source_offset"],
        "source_end": last["source_offset"],
        "doc_type": first["doc_type"],
        "match_status": first["match_status"],
        "target_doc_id": first["target_doc_id"],
        "target_start": first["target_offset"],
        "target_end": last["target_offset"],
        "similarity": avg_sim,
        "matched_keywords": keywords,
    }
