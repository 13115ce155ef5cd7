"""Operator-level queries over the driver testdata + matching DuckDB oracles.

Each ``q_*`` function takes ``sf_dir`` and returns a Dataset / DataFrame;
``ORACLE_SQL`` holds the ANSI-SQL equivalent DuckDB runs on the same
parquet (views: region nation customer supplier part orders lineitem
events documents embeddings).  Column names and value representations are
chosen to hash identically on both sides:

* no raw float SUMs (summation-order ulps) — money/value aggregates are
  integer cents via per-row round(x*100);
* single-division ratios of exact ints are bit-identical either way;
* cosine similarities rounded to 6 decimals;
* timestamps exported as epoch microseconds, days as 'YYYY-MM-DD' strings.
"""

from __future__ import annotations

import hashlib
import re
from collections import Counter

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..config import DOCUMENT_TYPES_EN, LANG_STOPWORDS, PROJECTS_EN
from ..functions.quality import quality_ok, quality_signals
from ..functions.textnorm import text_hash_many

# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------
_TOKEN_RE = re.compile(r"[A-Za-z0-9]+")
_LOWER_TOKEN_RE = re.compile(r"[a-z0-9]+")
_DIGITS_RE = re.compile(r"^[0-9]+$")


READ_BLOCK_BYTES = 64 * 1024  # compressed parquet bytes per read block


def _driver_reduce(partials, keys, sum_cols, int_cols=None):
    """Tiny final reduce for FIXED-small-cardinality groups.

    When the group count is bounded by construction (return flags,
    nations, regions, lang x source), the batch-level partials are
    ``n_blocks x n_groups`` tiny rows — collecting them and reducing on
    the driver is the scale-correct shape (the HLL-partials pattern); a
    distributed sort-shuffle would cost more in fixed per-block work than
    the whole reduce.  NOT for open-cardinality keys (tokens, users).
    """
    df = partials.to_pandas()
    out = df.groupby(keys, as_index=False).agg({c: "sum" for c in sum_cols})
    for c in int_cols or sum_cols:
        out[c] = out[c].astype("int64")
    return out.sort_values(keys).reset_index(drop=True)


# canonical per-worker broadcast memo lives in stages/broadcast.py
from ..stages.broadcast import broadcast_get as _broadcast_get  # noqa: E402


def _read(sf_dir: str, table: str, columns=None, filter=None):
    """Size-aware read: one block per ``READ_BLOCK_BYTES`` of parquet
    file, at least 1, capped at 2x cluster CPUs; ``filter`` passes
    through to ``read_parquet`` as a row predicate.

    Each block costs a task in every map and three (sample, map, reduce)
    in every sort shuffle, so a table gets only as many blocks as its
    bytes pay for: a 21 KB table is 1 block.  64 KiB is the measured
    crossover (BASELINE.md, "Read block sizing"): 256 KiB slows the
    CPU-heavy set_similarity_join at sf0.1 1.29x by leaving 3 blocks
    for 4 CPUs, 128 KiB 1.07x with 5, while 64 KiB keeps sf0.1's
    0.6-0.8 MB tables at the cap.  At real scale every table hits the
    cap, and dynamic block splitting re-cuts oversized read outputs at
    target_max_block_size downstream.
    """
    import os

    path = f"{sf_dir}/{table}.parquet"
    nb = None
    try:
        nbytes = os.path.getsize(path)
        cpus = int(ray.cluster_resources().get("CPU", 4))
        nb = max(1, min(2 * cpus, -(-nbytes // READ_BLOCK_BYTES)))
    except (OSError, ValueError):
        pass
    return ray.data.read_parquet(
        path, columns=columns, filter=filter, override_num_blocks=nb
    )


def _prefix_key(text: str, k: int = 2) -> str:
    toks = _LOWER_TOKEN_RE.findall(text.lower())[:k]
    return hashlib.md5("".join(toks).encode()).hexdigest()


_PREFIX_KEY_SQL = (
    "md5(array_to_string(list_slice("
    "regexp_extract_all(lower(text), '[a-z0-9]+'), 1, 2), ''))"
)

# ---------------------------------------------------------------------------
# M17/D1: normalization hash
# ---------------------------------------------------------------------------
def q_normalize_hash(sf_dir: str):
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def body(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "text_hash": pa.array(text_hash_many(batch["text"].to_pylist())),
            }
        )

    return ds.map_batches(body, batch_format="pyarrow")


SQL_NORMALIZE_HASH = """
SELECT doc_id,
       md5(regexp_replace(lower(text), '\\s', '', 'g')) AS text_hash
FROM documents
"""

# ---------------------------------------------------------------------------
# D1: exact dedup on a content key (first-2-token prefix so dup groups exist)
# ---------------------------------------------------------------------------
def q_exact_dedup(sf_dir: str):
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def add_key(batch: pa.Table) -> pd.DataFrame:
        df = batch.to_pandas()
        df["content_key"] = [_prefix_key(t) for t in df["text"]]
        # batch-local combiner: one row per key per batch
        return df.groupby("content_key", as_index=False).agg(
            doc_id=("doc_id", "min"), dup_count=("doc_id", "size")
        )

    def merge_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        out = bucket.groupby("content_key", as_index=False).agg(
            doc_id=("doc_id", "min"), dup_count=("dup_count", "sum")
        )
        out["dup_count"] = out["dup_count"].astype("int64")
        return out

    from ..stages.bucketed import map_groups_frame
    from ..stages.dedup import _doc_id_dtype

    # a small combiner output merges on the driver, without the shuffle
    out = map_groups_frame(
        ds.map_batches(add_key, batch_format="pyarrow"),
        "content_key",
        merge_bucket,
        n_buckets=64,
    )
    if not len(out.columns):  # no rows: rebuild the declared schema
        out = pd.DataFrame(
            {
                "content_key": pd.Series([], dtype="object"),
                "doc_id": pd.Series([], dtype=_doc_id_dtype(ds)),
                "dup_count": pd.Series([], dtype="int64"),
            }
        )
    return out


SQL_EXACT_DEDUP = f"""
SELECT {_PREFIX_KEY_SQL} AS content_key,
       min(doc_id) AS doc_id,
       count(*) AS dup_count
FROM documents
GROUP BY 1
"""


# ---------------------------------------------------------------------------
# Incremental ingestion dedup: dedupe a NEW batch against a STANDING
# corpus (the new-crawl-vs-100TB shape) — the two-corpus anti-join form
# of exact_dedup.  Here the odd doc_ids ingest against the even half.
# ---------------------------------------------------------------------------
def q_ingest_dedup(sf_dir: str):
    """Admit each incoming document iff its content key does not exist
    in the standing corpus.

    The standing side reduces to batch-unique content keys (32-byte
    rows, never texts), and ``size_routed_join`` anti-joins the incoming
    half against them: under its broadcast cap the incoming half streams
    ONE map-only membership filter — at 100 TB standing / small daily
    increments this is the normal regime, and the standing keys would
    come from the dedup-keys sideline the curate job already lands per
    partition — and above it both sides co-partition on the key."""
    from ..stages.bucketed import size_routed_join

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def keyed(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        return pa.table(
            {
                "doc_id": pa.array(
                    df["doc_id"].to_numpy("int64"), type=pa.int64()
                ),
                "content_key": pa.array(
                    [_prefix_key(t) for t in df["text"]], type=pa.string()
                ),
            }
        )

    # fan-out pin: both halves filter the slim keyed projection
    keyed_ds = ds.map_batches(keyed, batch_format="pyarrow").materialize()

    def standing_keys(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        k = df.loc[df["doc_id"] % 2 == 0, "content_key"]
        return pa.table(
            {"content_key": pa.array(pd.unique(k), type=pa.string())}
        )

    def incoming(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.equal(pc.bit_wise_and(batch["doc_id"], 1), 1)
        )

    return size_routed_join(
        keyed_ds.map_batches(incoming, batch_format="pyarrow"),
        keyed_ds.map_batches(standing_keys, batch_format="pyarrow"),
        "content_key",
        "anti",
    )


SQL_INGEST_DEDUP = f"""
WITH k AS (
  SELECT doc_id, {_PREFIX_KEY_SQL} AS content_key FROM documents
)
SELECT b.doc_id, b.content_key
FROM k b
WHERE b.doc_id % 2 = 1
  AND NOT EXISTS (
    SELECT 1 FROM k a
    WHERE a.doc_id % 2 = 0 AND a.content_key = b.content_key
  )
"""


def q_streaming_dedup_ingest(sf_dir: str):
    """Online first-arrival dedup through the sharded mutable-gate tier
    (stages/streaming_dedup.py) — the ingestion-shaped sibling of
    ``exact_dedup``.  WHICH row survives is arrival-dependent under
    parallelism, so the oracled output is the arrival-INDEPENDENT part:
    the admitted key set (one md5 per distinct text), which the gate's
    set-level law fixes exactly.  SQL replay: SELECT DISTINCT md5(text).
    """
    from ..stages.streaming_dedup import streaming_dedup

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    kept, _gate = streaming_dedup(ds, key_col="text", n_shards=8)

    def to_key(batch: pa.Table) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "content_md5": [
                    hashlib.md5(t.encode()).hexdigest()
                    for t in batch["text"].to_pylist()
                ]
            }
        )

    return kept.map_batches(to_key, batch_format="pyarrow")


SQL_STREAMING_DEDUP_INGEST = """
SELECT DISTINCT md5(text) AS content_md5 FROM documents
"""

# ---------------------------------------------------------------------------
# J1: exact-key match join (probe = odd doc_id, build = even doc_id)
# ---------------------------------------------------------------------------
def q_exact_match_join(sf_dir: str):
    from ..stages.bucketed import size_routed_join

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def side(parity: int, id_col: str):
        # each side keys only its own half of the corpus; the build side
        # (every even doc_id) is HALF THE CORPUS, so the join is
        # size-routed: broadcast under the cap, co-partition above it
        def keyed(batch: pa.Table) -> pd.DataFrame:
            t = batch.filter(pc.equal(pc.bit_wise_and(batch["doc_id"], 1), parity))
            return pd.DataFrame(
                {
                    id_col: t["doc_id"].to_pandas(),
                    "content_key": [_prefix_key(x) for x in t["text"].to_pylist()],
                }
            )

        return ds.map_batches(keyed, batch_format="pyarrow")

    j = size_routed_join(
        side(1, "source_doc_id"), side(0, "target_doc_id"), "content_key"
    )
    return j.map_batches(
        lambda t: pd.DataFrame(
            {
                "source_doc_id": t["source_doc_id"].to_pandas().astype("int64"),
                "target_doc_id": t["target_doc_id"].to_pandas().astype("int64"),
                "similarity": pd.Series([1.0] * len(t), dtype="float64"),
            }
        ),
        batch_format="pyarrow",
    )


SQL_EXACT_MATCH_JOIN = f"""
WITH keyed AS (
  SELECT doc_id, {_PREFIX_KEY_SQL} AS content_key FROM documents
)
SELECT p.doc_id AS source_doc_id,
       b.doc_id AS target_doc_id,
       1.0 AS similarity
FROM keyed p JOIN keyed b USING (content_key)
WHERE p.doc_id % 2 = 1 AND b.doc_id % 2 = 0
"""

# ---------------------------------------------------------------------------
# A3/K3: global keyword top-50
# ---------------------------------------------------------------------------
def q_keyword_topk(sf_dir: str):
    ds = _read(sf_dir, "documents", ["text"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        counts: dict = {}
        for text in batch["text"].to_pylist():
            for tok in _TOKEN_RE.findall(text):
                if len(tok) >= 2 and not _DIGITS_RE.match(tok):
                    counts[tok] = counts.get(tok, 0) + 1
        return pd.DataFrame(
            {"keyword": list(counts.keys()),
             "occurrences": pd.Series(list(counts.values()), dtype="int64")}
        )

    # open-cardinality key (vocabulary): exact distributed top-k — only
    # n_buckets x 50 candidate rows ever reach the driver
    from ..stages.bucketed import bucketed_topk

    out = bucketed_topk(
        ds.map_batches(partial, batch_format="pyarrow"),
        "keyword",
        {"occurrences": ("occurrences", "sum")},
        order_by=["occurrences", "keyword"],
        ascending=[False, True],
        k=50,
    )
    out["occurrences"] = out["occurrences"].astype("int64")
    return out


SQL_KEYWORD_TOPK = """
SELECT kw AS keyword, count(*) AS occurrences
FROM (SELECT unnest(regexp_extract_all(text, '[A-Za-z0-9]+')) AS kw FROM documents)
WHERE length(kw) >= 2 AND NOT regexp_full_match(kw, '[0-9]+')
GROUP BY kw
ORDER BY occurrences DESC, kw
LIMIT 50
"""

# ---------------------------------------------------------------------------
# per-GROUP exact top-k over the open vocabulary (top tokens per lang) —
# the grouped form of keyword_topk's distributed top-k: batch-local
# (lang, token) partials (a hot token ships one bounded row per batch),
# bucketed merge by (lang, token) that also emits per-bucket per-lang
# top-k CANDIDATES (exact: a global winner's total count lives wholly in
# one bucket), final rank over n_buckets x n_langs x k candidate rows on
# the driver.
# ---------------------------------------------------------------------------
_LANG_TOPK = 10


def q_top_tokens_by_lang(sf_dir: str, k: int = _LANG_TOPK):
    from ..stages.bucketed import map_groups_frame

    ds = _read(sf_dir, "documents", ["lang", "text"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        counts: dict = {}
        for lang, text in zip(
            batch["lang"].to_pylist(), batch["text"].to_pylist()
        ):
            for tok in _TOKEN_RE.findall(text):
                if len(tok) >= 2 and not _DIGITS_RE.match(tok):
                    counts[(lang, tok)] = counts.get((lang, tok), 0) + 1
        langs, kws = zip(*counts.keys()) if counts else ((), ())
        return pd.DataFrame(
            {
                "lang": list(langs),
                "keyword": list(kws),
                "occurrences": pd.Series(list(counts.values()), dtype="int64"),
            }
        )

    def bucket_candidates(bucket: pd.DataFrame) -> pd.DataFrame:
        m = bucket.groupby(["lang", "keyword"], as_index=False)[
            "occurrences"
        ].sum()
        m = m.sort_values(
            ["lang", "occurrences", "keyword"], ascending=[True, False, True]
        )
        m = m[m.groupby("lang").cumcount() < k]
        m["occurrences"] = m["occurrences"].astype("int64")
        return m.reset_index(drop=True)

    cand = _schema_stable_pairs(  # no token at all: no columns either
        map_groups_frame(
            ds.map_batches(partial, batch_format="pyarrow"),
            ["lang", "keyword"],
            bucket_candidates,
            n_buckets=32,
        ),
        {"lang": "object", "keyword": "object", "occurrences": "int64"},
    )
    cand = cand.sort_values(
        ["lang", "occurrences", "keyword"], ascending=[True, False, True]
    )
    cand["rk"] = (cand.groupby("lang").cumcount() + 1).astype("int64")
    out = cand[cand["rk"] <= k].reset_index(drop=True)
    out["occurrences"] = out["occurrences"].astype("int64")
    return out


SQL_TOP_TOKENS_BY_LANG = f"""
WITH toks AS (
  SELECT lang, unnest(regexp_extract_all(text, '[A-Za-z0-9]+')) AS kw
  FROM documents
), c AS (
  SELECT lang, kw AS keyword, count(*) AS occurrences
  FROM toks
  WHERE length(kw) >= 2 AND NOT regexp_full_match(kw, '[0-9]+')
  GROUP BY lang, kw
), r AS (
  SELECT *, row_number() OVER (
    PARTITION BY lang ORDER BY occurrences DESC, keyword) AS rk
  FROM c
)
SELECT lang, keyword, CAST(occurrences AS BIGINT) AS occurrences,
       CAST(rk AS BIGINT) AS rk
FROM r WHERE rk <= {_LANG_TOPK}
"""


# ---------------------------------------------------------------------------
# M8: top-10 keywords per document
# ---------------------------------------------------------------------------
def q_keywords_per_doc(sf_dir: str):
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def body(batch: pa.Table) -> pd.DataFrame:
        out_doc, out_kw, out_occ, out_rk = [], [], [], []
        for did, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            counts: dict = {}
            for tok in _TOKEN_RE.findall(text):
                if len(tok) >= 2 and not _DIGITS_RE.match(tok):
                    counts[tok] = counts.get(tok, 0) + 1
            ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
            for rk, (kw, occ) in enumerate(ranked, 1):
                out_doc.append(did)
                out_kw.append(kw)
                out_occ.append(occ)
                out_rk.append(rk)
        return pd.DataFrame(
            {
                "doc_id": pd.Series(out_doc, dtype="int64"),
                "keyword": out_kw,
                "occurrences": pd.Series(out_occ, dtype="int64"),
                "rk": pd.Series(out_rk, dtype="int64"),
            }
        )

    return ds.map_batches(body, batch_format="pyarrow")


SQL_KEYWORDS_PER_DOC = """
WITH toks AS (
  SELECT doc_id, unnest(regexp_extract_all(text, '[A-Za-z0-9]+')) AS kw
  FROM documents
), counts AS (
  SELECT doc_id, kw, count(*) AS occurrences
  FROM toks
  WHERE length(kw) >= 2 AND NOT regexp_full_match(kw, '[0-9]+')
  GROUP BY doc_id, kw
), ranked AS (
  SELECT doc_id, kw AS keyword, occurrences,
         row_number() OVER (PARTITION BY doc_id ORDER BY occurrences DESC, kw) AS rk
  FROM counts
)
SELECT doc_id, keyword, occurrences, rk FROM ranked WHERE rk <= 10
"""

# ---------------------------------------------------------------------------
# M10: rule classification (EN vocabulary, reference scoring rule)
# ---------------------------------------------------------------------------
_EN_PATTERNS = [
    (name, [ (kw, re.compile(re.escape(kw))) for kw in cfg["keywords"] ], cfg["priority"])
    for name, cfg in DOCUMENT_TYPES_EN.items()
]


def q_classify_documents(sf_dir: str):
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def body(batch: pa.Table) -> pd.DataFrame:
        out_type, out_score = [], []
        for text in batch["text"].to_pylist():
            scores = []
            for name, kws, prio in _EN_PATTERNS:
                n = sum(len(pat.findall(text)) for _, pat in kws)
                scores.append((name, n * (100 - prio) if n else 0))
            positive = [s for s in scores if s[1] > 0]
            if positive:
                best = max(positive, key=lambda kv: kv[1])  # first-max = dict order
            else:
                best = ("other", 0)
            out_type.append(best[0])
            out_score.append(best[1])
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_pandas(),
                "doc_type": out_type,
                "score": pd.Series(out_score, dtype="int64"),
            }
        )

    return ds.map_batches(body, batch_format="pyarrow")


def _sql_count(kw: str) -> str:
    return f"length(regexp_extract_all(text, '{kw}'))"


def _sql_type_score(cfg) -> str:
    total = " + ".join(_sql_count(kw) for kw in cfg["keywords"])
    return f"(CASE WHEN ({total}) > 0 THEN ({total}) * (100 - {cfg['priority']}) ELSE 0 END)"


_T = list(DOCUMENT_TYPES_EN.items())
SQL_CLASSIFY = f"""
WITH scored AS (
  SELECT doc_id,
         {_sql_type_score(_T[0][1])} AS s0,
         {_sql_type_score(_T[1][1])} AS s1,
         {_sql_type_score(_T[2][1])} AS s2,
         {_sql_type_score(_T[3][1])} AS s3
  FROM documents
)
SELECT doc_id,
       CASE WHEN s0 = 0 AND s1 = 0 AND s2 = 0 AND s3 = 0 THEN 'other'
            WHEN s0 >= s1 AND s0 >= s2 AND s0 >= s3 THEN '{_T[0][0]}'
            WHEN s1 >= s2 AND s1 >= s3 THEN '{_T[1][0]}'
            WHEN s2 >= s3 THEN '{_T[2][0]}'
            ELSE '{_T[3][0]}' END AS doc_type,
       greatest(s0, s1, s2, s3) AS score
FROM scored
"""

# ---------------------------------------------------------------------------
# M14–M16: project attribution (source-as-path rule, else content scoring)
# ---------------------------------------------------------------------------
def q_project_detect(sf_dir: str):
    from ..functions.project import ProjectDetector

    ds = _read(sf_dir, "documents", ["doc_id", "text", "source"])
    detector = ProjectDetector(PROJECTS_EN)  # exact + F6 wildcard path rules
    rules = [
        (name, [(kw.lower(), len(kw)) for kw in cfg["keywords"]])
        for name, cfg in PROJECTS_EN.items()
    ]

    def body(batch: pa.Table) -> pd.DataFrame:
        out_proj, out_mt = [], []
        for text, source in zip(batch["text"].to_pylist(), batch["source"].to_pylist()):
            hit = detector.detect_by_source(source)
            if hit is not None:
                out_proj.append(hit)
                out_mt.append("path")
                continue
            lowered = text.lower()
            scores = [
                (name, sum(lowered.count(kw) * w for kw, w in kws))
                for name, kws in rules
            ]
            positive = [s for s in scores if s[1] > 0]
            if positive:
                out_proj.append(max(positive, key=lambda kv: kv[1])[0])
                out_mt.append("content")
            else:
                out_proj.append("unassigned")
                out_mt.append("none")
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_pandas(),
                "project": out_proj,
                "match_type": out_mt,
            }
        )

    return ds.map_batches(body, batch_format="pyarrow")


def _sql_proj_score(cfg) -> str:
    # count(kw) * len(kw) == chars removed by replace-all -> no division needed
    return " + ".join(
        f"(length(lower(text)) - length(replace(lower(text), '{kw.lower()}', '')))"
        for kw in cfg["keywords"]
    )


_P = list(PROJECTS_EN.items())


def _like_pattern(rule: str) -> str:
    """F6 wildcard rule -> LIKE pattern with literal segments escaped.

    ProjectDetector re.escape()s the literal parts, so a rule containing
    '%' or '_' must match them literally here too (ESCAPE '!' clause)."""
    esc = lambda seg: seg.replace("!", "!!").replace("%", "!%").replace("_", "!_")  # noqa: E731
    return "%".join(esc(seg) for seg in rule.split("*"))


# exact source cases first (they win), then F6 wildcard rules as LIKE
# ('*' -> '%'), mirroring ProjectDetector's precedence
_SRC_CASES = " ".join(
    f"WHEN source IN ({', '.join(repr(s) for s in cfg['sources'] if '*' not in s)}) THEN '{name}'"
    for name, cfg in _P
    if any("*" not in s for s in cfg["sources"])
) + " " + " ".join(
    f"WHEN source LIKE '{_like_pattern(s)}' ESCAPE '!' THEN '{name}'"
    for name, cfg in _P
    for s in cfg["sources"]
    if "*" in s
)
SQL_PROJECT_DETECT = f"""
WITH scored AS (
  SELECT doc_id, source,
         CAST({_sql_proj_score(_P[0][1])} AS BIGINT) AS s0,
         CAST({_sql_proj_score(_P[1][1])} AS BIGINT) AS s1,
         CAST({_sql_proj_score(_P[2][1])} AS BIGINT) AS s2
  FROM documents
)
SELECT doc_id,
       CASE {_SRC_CASES}
            WHEN s0 = 0 AND s1 = 0 AND s2 = 0 THEN 'unassigned'
            WHEN s0 >= s1 AND s0 >= s2 THEN '{_P[0][0]}'
            WHEN s1 >= s2 THEN '{_P[1][0]}'
            ELSE '{_P[2][0]}' END AS project,
       CASE {_SRC_CASES.replace("THEN 'proj_alpha'", "THEN 'path'").replace("THEN 'proj_beta'", "THEN 'path'").replace("THEN 'proj_gamma'", "THEN 'path'")}
            WHEN s0 = 0 AND s1 = 0 AND s2 = 0 THEN 'none'
            ELSE 'content' END AS match_type
FROM scored
"""

# ---------------------------------------------------------------------------
# text analysis: language id
# ---------------------------------------------------------------------------
_LANGS = list(LANG_STOPWORDS.items())


def q_lang_id(sf_dir: str):
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    pats = [
        (lang, re.compile(r"\b(?:" + "|".join(words) + r")\b"))
        for lang, words in _LANGS
    ]

    def body(batch: pa.Table) -> pd.DataFrame:
        out = []
        for text in batch["text"].to_pylist():
            lowered = text.lower()
            best_lang, best_hits = "unknown", 0
            for lang, pat in pats:
                hits = len(pat.findall(lowered))
                if hits > best_hits:
                    best_lang, best_hits = lang, hits
            out.append(best_lang)
        return pd.DataFrame(
            {"doc_id": batch["doc_id"].to_pandas(), "lang_pred": out}
        )

    return ds.map_batches(body, batch_format="pyarrow")


def _sql_lang_hits(words) -> str:
    alt = "|".join(words)
    return f"length(regexp_extract_all(lower(text), '\\b({alt})\\b'))"


SQL_LANG_ID = f"""
WITH hits AS (
  SELECT doc_id,
         {_sql_lang_hits(_LANGS[0][1])} AS h0,
         {_sql_lang_hits(_LANGS[1][1])} AS h1,
         {_sql_lang_hits(_LANGS[2][1])} AS h2,
         {_sql_lang_hits(_LANGS[3][1])} AS h3
  FROM documents
)
SELECT doc_id,
       CASE WHEN h0 = 0 AND h1 = 0 AND h2 = 0 AND h3 = 0 THEN 'unknown'
            WHEN h0 >= h1 AND h0 >= h2 AND h0 >= h3 THEN '{_LANGS[0][0]}'
            WHEN h1 >= h2 AND h1 >= h3 THEN '{_LANGS[1][0]}'
            WHEN h2 >= h3 THEN '{_LANGS[2][0]}'
            ELSE '{_LANGS[3][0]}' END AS lang_pred
FROM hits
"""

# ---------------------------------------------------------------------------
# text analysis: quality signals
# ---------------------------------------------------------------------------
def q_quality(sf_dir: str):
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def body(batch: pa.Table) -> pd.DataFrame:
        rows = []
        for did, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            sig = quality_signals(text)
            rows.append(
                {
                    "doc_id": did,
                    "n_words": int(sig["n_words"]),
                    "mean_word_len": sig["mean_word_len"],
                    "stopword_ratio": sig["stopword_ratio"],
                    "punct_ratio": sig["punct_ratio"],
                    "digit_ratio": sig["digit_ratio"],
                    "ok": quality_ok(sig),
                }
            )
        df = pd.DataFrame(rows)
        df["doc_id"] = df["doc_id"].astype("int64")
        df["n_words"] = df["n_words"].astype("int64")
        return df

    return ds.map_batches(body, batch_format="pyarrow")


_STOP_ALT = "|".join(["the", "and", "of", "to", "a", "in", "is", "for", "with", "on"])
SQL_QUALITY = f"""
WITH base AS (
  SELECT doc_id,
         length(text) AS n_chars,
         regexp_extract_all(text, '[A-Za-z0-9]+') AS words,
         length(regexp_extract_all(lower(text), '\\b({_STOP_ALT})\\b')) AS n_stop,
         length(regexp_extract_all(text, '[^\\w\\s]')) AS n_punct,
         length(regexp_extract_all(text, '[0-9]')) AS n_digit
  FROM documents
), sig AS (
  SELECT doc_id,
         length(words) AS n_words,
         CASE WHEN length(words) > 0
              THEN CAST(length(array_to_string(words, '')) AS DOUBLE) / length(words)
              ELSE 0.0 END AS mean_word_len,
         CASE WHEN length(words) > 0
              THEN CAST(n_stop AS DOUBLE) / length(words) ELSE 0.0 END AS stopword_ratio,
         CASE WHEN n_chars > 0
              THEN CAST(n_punct AS DOUBLE) / n_chars ELSE 0.0 END AS punct_ratio,
         CASE WHEN n_chars > 0
              THEN CAST(n_digit AS DOUBLE) / n_chars ELSE 0.0 END AS digit_ratio
  FROM base
)
SELECT doc_id, n_words, mean_word_len, stopword_ratio, punct_ratio, digit_ratio,
       (n_words >= 10 AND punct_ratio <= 0.3
        AND mean_word_len >= 2.0 AND mean_word_len <= 12.0) AS ok
FROM sig
"""

# ---------------------------------------------------------------------------
# Per-language quantile quality screen: thresholds ADAPT to each
# language's length distribution instead of one global constant — the
# percentile form of the length filter (quality_scores' actionable kin).
# ---------------------------------------------------------------------------
def q_quality_quantile_filter(sf_dir: str):
    """Drop every document shorter than its language's P25 ``n_chars``.

    Scale plan (zero shuffles): bounded (lang, n_chars) frequency
    partials -> driver reduce (distinct pairs bound the partial size
    regardless of corpus size — the value_histogram shape); the exact
    P25 computes from each language's cumulative counts with
    quantile_cont's linear interpolation (position q*(n-1); the
    interpolation weight is dyadic, so both engines' float arithmetic
    is exact — the user_value_quantiles lesson); thresholds broadcast
    into one map-only filter."""
    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])

    def hist_partial(batch: pa.Table) -> pd.DataFrame:
        df = batch.to_pandas()
        return (
            df.groupby(["lang", "n_chars"], sort=False)
            .size()
            .rename("n")
            .reset_index()
        )

    hist = (
        ds.map_batches(hist_partial, batch_format="pyarrow")
        .to_pandas()
        .groupby(["lang", "n_chars"], sort=False)["n"]
        .sum()
        .reset_index()
    )
    thr = {}
    for lang, g in hist.groupby("lang"):
        g = g.sort_values("n_chars")
        vals = g["n_chars"].to_numpy("int64")
        cum = np.cumsum(g["n"].to_numpy("int64"))
        p = 0.25 * (int(cum[-1]) - 1)
        lo_i = int(np.floor(p))
        lo_v = float(vals[np.searchsorted(cum, lo_i, side="right")])
        hi_v = float(vals[np.searchsorted(cum, int(np.ceil(p)), side="right")])
        thr[lang] = lo_v + (hi_v - lo_v) * (p - lo_i)
    thr_ref = ray.put(thr)

    def keep(batch: pa.Table) -> pa.Table:
        t = _broadcast_get(thr_ref)
        df = batch.to_pandas()
        mask = (
            df["n_chars"].to_numpy("float64")
            >= df["lang"].map(t).to_numpy("float64")
        )
        return pa.Table.from_pandas(df.loc[mask], preserve_index=False)

    return ds.map_batches(keep, batch_format="pyarrow")


SQL_QUALITY_QUANTILE_FILTER = """
WITH q AS (
  SELECT lang, quantile_cont(n_chars, 0.25) AS thr FROM documents GROUP BY lang
)
SELECT d.doc_id, d.lang, d.n_chars
FROM documents d JOIN q USING (lang)
WHERE d.n_chars >= q.thr
"""


# ---------------------------------------------------------------------------
# token stats (global)
# ---------------------------------------------------------------------------
def q_token_stats(sf_dir: str):
    ds = _read(sf_dir, "documents", ["text"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        n_tokens = sum(len(_TOKEN_RE.findall(t)) for t in batch["text"].to_pylist())
        return pd.DataFrame(
            {"n_docs": pd.Series([len(batch)], dtype="int64"),
             "n_tokens": pd.Series([n_tokens], dtype="int64")}
        )

    totals = ds.map_batches(partial, batch_format="pyarrow").to_pandas().sum()
    n_docs, n_tokens = int(totals["n_docs"]), int(totals["n_tokens"])
    return pd.DataFrame(
        {
            "n_docs": pd.Series([n_docs], dtype="int64"),
            "n_tokens": pd.Series([n_tokens], dtype="int64"),
            "avg_tokens": [n_tokens / n_docs if n_docs else 0.0],
        }
    )


SQL_TOKEN_STATS = """
WITH t AS (
  SELECT length(regexp_extract_all(text, '[A-Za-z0-9]+')) AS n FROM documents
)
SELECT count(*) AS n_docs,
       CAST(sum(n) AS BIGINT) AS n_tokens,
       CAST(sum(n) AS DOUBLE) / count(*) AS avg_tokens
FROM t
"""

# ---------------------------------------------------------------------------
# A1/A2-style relational aggregates (TPC-H flavored, integer-cents safe)
# ---------------------------------------------------------------------------
def q_lineitem_agg(sf_dir: str):
    cutoff = pa.scalar(pd.Timestamp("1998-09-02"), type=pa.timestamp("us"))
    ds = _read(
        sf_dir, "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_shipdate"],
        filter=(pc.field("l_shipdate") <= cutoff),
    )

    def partial(batch: pa.Table) -> pd.DataFrame:
        df = batch.to_pandas()
        df["qty"] = df["l_quantity"].astype("int64")
        df["price_cents"] = np.rint(df["l_extendedprice"] * 100).astype("int64")
        return df.groupby(["l_returnflag", "l_linestatus"], as_index=False).agg(
            sum_qty=("qty", "sum"),
            sum_price_cents=("price_cents", "sum"),
            n=("qty", "size"),
        )

    return _driver_reduce(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["l_returnflag", "l_linestatus"],
        ["sum_qty", "sum_price_cents", "n"],
    )


SQL_LINEITEM_AGG = """
SELECT l_returnflag, l_linestatus,
       CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty,
       CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)) AS BIGINT) AS sum_price_cents,
       count(*) AS n
FROM lineitem
WHERE l_shipdate <= TIMESTAMP '1998-09-02'
GROUP BY l_returnflag, l_linestatus
"""


def _revenue_by_name(sf_dir, fact, dim, names, count_col):
    """Revenue of a fact table grouped by a nation-level name.

    ``fact`` = (table, key, price column) streams through
    ``size_routed_join`` against ``dim`` = (table, key, nationkey
    column) — the customer or supplier table — and each batch
    pre-aggregates per nationkey, so ``_driver_reduce`` collects at most
    25 rows per block.  ``names`` (nationkey -> name) attaches after
    that 25-row reduce; keys it lacks drop, as in an inner join.
    """
    from ..stages.bucketed import size_routed_join

    f_table, f_key, price = fact
    d_table, d_key, nat = dim

    def cents(batch: pa.Table) -> pd.DataFrame:
        df = batch.to_pandas()
        return pd.DataFrame(
            {
                d_key: df[f_key],
                "cents": np.rint(df[price] * 100).astype("int64"),
            }
        )

    def per_nation(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(nat, as_index=False).agg(
            **{count_col: ("cents", "size")}, revenue_cents=("cents", "sum")
        )

    joined = size_routed_join(
        _read(sf_dir, f_table, [f_key, price]).map_batches(
            cents, batch_format="pyarrow"
        ),
        _read(sf_dir, d_table, [d_key, nat]),
        d_key,
    )
    parts = _driver_reduce(
        joined.map_batches(per_nation, batch_format="pandas"),
        [nat],
        [count_col, "revenue_cents"],
    )
    name = names.name
    out = (
        parts.assign(**{name: parts[nat].map(names)})
        .groupby(name, as_index=False)[[count_col, "revenue_cents"]]
        .sum()
    )
    return out.sort_values(name).reset_index(drop=True)


def _nation_names(sf_dir: str) -> pd.Series:
    nation = _read(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas()
    return pd.Series(
        nation["n_name"].values, index=nation["n_nationkey"].values, name="n_name"
    )


def q_nation_revenue(sf_dir: str):
    """orders -> customer -> nation, grouped revenue."""
    return _revenue_by_name(
        sf_dir,
        ("orders", "o_custkey", "o_totalprice"),
        ("customer", "c_custkey", "c_nationkey"),
        _nation_names(sf_dir),
        "n_orders",
    )


SQL_NATION_REVENUE = """
SELECT n.n_name,
       count(*) AS n_orders,
       CAST(sum(CAST(round(o.o_totalprice * 100) AS BIGINT)) AS BIGINT) AS revenue_cents
FROM orders o
JOIN customer c ON o.o_custkey = c.c_custkey
JOIN nation n ON c.c_nationkey = n.n_nationkey
GROUP BY n.n_name
"""


def q_doc_stats_by_lang_source(sf_dir: str):
    ds = _read(sf_dir, "documents", ["lang", "source", "n_chars"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        df = batch.to_pandas()
        return df.groupby(["lang", "source"], as_index=False).agg(
            n_docs=("n_chars", "size"),
            total_chars=("n_chars", "sum"),
            min_chars=("n_chars", "min"),
            max_chars=("n_chars", "max"),
        )

    # lang x source is fixed-small (5 x 20): batch partials + driver merge
    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    out = parts.groupby(["lang", "source"], as_index=False).agg(
        n_docs=("n_docs", "sum"),
        total_chars=("total_chars", "sum"),
        min_chars=("min_chars", "min"),
        max_chars=("max_chars", "max"),
    )
    for c in ("n_docs", "total_chars", "min_chars", "max_chars"):
        out[c] = out[c].astype("int64")
    return out.sort_values(["lang", "source"]).reset_index(drop=True)


SQL_DOC_STATS = """
SELECT lang, source, count(*) AS n_docs, CAST(sum(n_chars) AS BIGINT) AS total_chars,
       min(n_chars) AS min_chars, max(n_chars) AS max_chars
FROM documents
GROUP BY lang, source
"""

# ---------------------------------------------------------------------------
# A4-style: events timeline with exact distinct users
# ---------------------------------------------------------------------------
def q_events_daily(sf_dir: str):
    ds = _read(sf_dir, "events", ["ts", "user_id", "value"])

    def pairs(batch: pa.Table) -> pd.DataFrame:
        df = batch.to_pandas()
        df["day"] = df["ts"].dt.strftime("%Y-%m-%d")
        df["value_cents"] = np.rint(df["value"] * 100).astype("int64")
        return df.groupby(["day", "user_id"], as_index=False).agg(
            n_events=("user_id", "size"), value_cents=("value_cents", "sum")
        )

    # one shuffle: batch-level (day, user) pre-agg, then a bucketed
    # groupby(day) whose buckets hold at most |distinct users| rows per day.
    def days_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        out = bucket.groupby("day", as_index=False).agg(
            n_events=("n_events", "sum"),
            n_users=("user_id", "nunique"),
            value_cents=("value_cents", "sum"),
        )
        for c in ("n_events", "n_users", "value_cents"):
            out[c] = out[c].astype("int64")
        return out

    from ..stages.bucketed import bucketed_map_groups

    return bucketed_map_groups(
        ds.map_batches(pairs, batch_format="pyarrow"), "day", days_bucket,
        n_buckets=16,
    )


SQL_EVENTS_DAILY = """
SELECT strftime(ts, '%Y-%m-%d') AS day,
       count(*) AS n_events,
       count(DISTINCT user_id) AS n_users,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS value_cents
FROM events
GROUP BY 1
"""

# ---------------------------------------------------------------------------
# J6-analog: gaps-and-islands run merge over the events log
# ---------------------------------------------------------------------------
def q_sessionize_events(sf_dir: str):
    from ..stages.bucketed import bucketed_map_groups

    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])

    def runs_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        # gaps-and-islands, vectorized across every user in the bucket:
        # sort by (user, ts, event_id); a new run starts where user OR
        # event_type changes; one groupby(run_id) aggregates all runs
        g = bucket.sort_values(
            ["user_id", "ts", "event_id"], kind="mergesort"
        ).reset_index(drop=True)
        g["ts_us"] = g["ts"].astype("datetime64[us]").astype("int64")
        new_run = (g["user_id"] != g["user_id"].shift()) | (
            g["event_type"] != g["event_type"].shift()
        )
        out = g.groupby(new_run.cumsum(), sort=False).agg(
            user_id=("user_id", "first"),
            event_type=("event_type", "first"),
            start_us=("ts_us", "first"),
            end_us=("ts_us", "last"),
            n_events=("ts_us", "size"),
        )
        out["user_id"] = out["user_id"].astype("int64")
        out["n_events"] = out["n_events"].astype("int64")
        return out.reset_index(drop=True)

    return bucketed_map_groups(ds, "user_id", runs_bucket, n_buckets=64)


SQL_SESSIONIZE = """
WITH ordered AS (
  SELECT user_id, event_type, ts, event_id,
         row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id)
         - row_number() OVER (PARTITION BY user_id, event_type ORDER BY ts, event_id)
         AS island
  FROM events
)
SELECT user_id, event_type,
       epoch_us(min(ts)) AS start_us,
       epoch_us(max(ts)) AS end_us,
       count(*) AS n_events
FROM ordered
GROUP BY user_id, event_type, island
"""

# ---------------------------------------------------------------------------
# K-style: top users by total event value
# ---------------------------------------------------------------------------
def q_top_users_by_value(sf_dir: str):
    ds = _read(sf_dir, "events", ["user_id", "value"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        df = batch.to_pandas()
        df["value_cents"] = np.rint(df["value"] * 100).astype("int64")
        return df.groupby("user_id", as_index=False).agg(
            value_cents=("value_cents", "sum"), n_events=("user_id", "size")
        )

    # open-cardinality key (users): exact distributed top-k, tiny driver
    # merge (never to_pandas() the full per-user aggregate)
    from ..stages.bucketed import bucketed_topk

    out = bucketed_topk(
        ds.map_batches(partial, batch_format="pyarrow"),
        "user_id",
        {"value_cents": ("value_cents", "sum"), "n_events": ("n_events", "sum")},
        order_by=["value_cents", "user_id"],
        ascending=[False, True],
        k=20,
    )
    for c in ("value_cents", "n_events"):
        out[c] = out[c].astype("int64")
    return out


SQL_TOP_USERS = """
SELECT user_id,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS value_cents,
       count(*) AS n_events
FROM events
GROUP BY user_id
ORDER BY value_cents DESC, user_id
LIMIT 20
"""

# ---------------------------------------------------------------------------
# similarity search: brute-force cosine top-k (+ exact near-dup pairs)
# ---------------------------------------------------------------------------
def q_knn_cosine(sf_dir: str):
    from ..stages.knn import knn_cosine

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    qdf = (
        ds.map_batches(
            lambda t: t.filter(pc.less(t["vec_id"], 5)), batch_format="pyarrow"
        )
        .to_pandas()
        .sort_values("vec_id")
    )
    result = knn_cosine(
        ds, qdf["vec_id"].tolist(), np.stack(qdf["embedding"].to_numpy()), k=10
    ).to_pandas()
    result["cosine"] = result["cosine"].round(6)
    result["query_id"] = result["query_id"].astype("int64")
    result["vec_id"] = result["vec_id"].astype("int64")
    result = result.rename(columns={"rank": "rk"})
    return result[["query_id", "vec_id", "rk", "cosine"]]


SQL_KNN_COSINE = """
WITH q AS (
  SELECT vec_id AS qid, CAST(embedding AS DOUBLE[]) AS qv
  FROM embeddings WHERE vec_id < 5
), s AS (
  SELECT q.qid AS query_id, e.vec_id,
         list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), q.qv) AS c
  FROM embeddings e CROSS JOIN q
), r AS (
  SELECT query_id, vec_id, c,
         row_number() OVER (PARTITION BY query_id ORDER BY c DESC, vec_id) AS rk
  FROM s
)
SELECT query_id, vec_id, rk, round(c, 6) AS cosine FROM r WHERE rk <= 10
"""


# ---------------------------------------------------------------------------
# Filtered ANN — vector search restricted by a metadata predicate (the
# "filtered vector search" case every retrieval pipeline needs).  The
# predicate is PUSHED TO THE READ (parquet row filter + column prune),
# so non-matching vectors never enter the object store, let alone the
# scoring matmul — at 100 TB the filter selectivity directly divides
# bytes read.  Queries come from the unfiltered table (a query need not
# satisfy the predicate its search set does).
# ---------------------------------------------------------------------------
_KNNF_LABEL = 2


def q_knn_filtered(sf_dir: str):
    from ..stages.knn import knn_cosine

    qdf = (
        _read(sf_dir, "embeddings", ["vec_id", "embedding"])
        .map_batches(
            lambda t: t.filter(pc.less(t["vec_id"], 5)), batch_format="pyarrow"
        )
        .to_pandas()
        .sort_values("vec_id")
    )
    filtered = _read(
        sf_dir, "embeddings", ["vec_id", "embedding"],
        filter=(pc.field("label") == _KNNF_LABEL),
    )
    result = knn_cosine(
        filtered, qdf["vec_id"].tolist(), np.stack(qdf["embedding"].to_numpy()),
        k=10,
    ).to_pandas()
    result["cosine"] = result["cosine"].round(6)
    result["query_id"] = result["query_id"].astype("int64")
    result["vec_id"] = result["vec_id"].astype("int64")
    result = result.rename(columns={"rank": "rk"})
    return result[["query_id", "vec_id", "rk", "cosine"]]


SQL_KNN_FILTERED = f"""
WITH q AS (
  SELECT vec_id AS qid, CAST(embedding AS DOUBLE[]) AS qv
  FROM embeddings WHERE vec_id < 5
), s AS (
  SELECT q.qid AS query_id, e.vec_id,
         list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), q.qv) AS c
  FROM embeddings e CROSS JOIN q WHERE e.label = {_KNNF_LABEL}
), r AS (
  SELECT query_id, vec_id, c,
         row_number() OVER (PARTITION BY query_id ORDER BY c DESC, vec_id) AS rk
  FROM s
)
SELECT query_id, vec_id, rk, round(c, 6) AS cosine FROM r WHERE rk <= 10
"""


# ---------------------------------------------------------------------------
# Per-source quota sampling — cap each source (domain) at K docs, chosen
# by deterministic md5 order (the curation op that stops one crawl
# domain from dominating a training mix).  Skew-free mergeable shape:
# each batch emits only its LOCAL K-smallest md5 keys per source
# (bounded at n_sources x K rows per batch no matter how hot a source
# is), the driver reduces the bounded partial table to the global
# K-smallest per source.  No shuffle.
# ---------------------------------------------------------------------------
_QUOTA_K = 10


def q_domain_quota_sample(sf_dir: str):
    ds = _read(sf_dir, "documents", ["doc_id", "source"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        df = batch.select(["doc_id", "source"]).to_pandas()
        df["pick_key"] = [
            hashlib.md5(str(d).encode()).hexdigest() for d in df["doc_id"]
        ]
        return (
            df.sort_values(["source", "pick_key"], kind="mergesort")
            .groupby("source", sort=False)
            .head(_QUOTA_K)
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    kept = (
        parts.sort_values(["source", "pick_key"], kind="mergesort")
        .groupby("source", sort=False)
        .head(_QUOTA_K)
        .drop(columns=["pick_key"])
        .reset_index(drop=True)
    )
    kept["doc_id"] = kept["doc_id"].astype("int64")
    return kept[["doc_id", "source"]]


SQL_DOMAIN_QUOTA_SAMPLE = f"""
SELECT doc_id, source FROM (
  SELECT doc_id, source,
         row_number() OVER (
           PARTITION BY source ORDER BY md5(CAST(doc_id AS VARCHAR))
         ) AS rn
  FROM documents
) WHERE rn <= {_QUOTA_K}
"""


# ---------------------------------------------------------------------------
# Token-budget data selection: keep documents in quality order until a
# global token budget is exhausted — the "data budget" cut of a curation
# run (select the best B tokens, not a fraction of docs).
# ---------------------------------------------------------------------------
_BUDGET_BOUNDARY_CAP = 5_000_000


def q_token_budget_select(sf_dir: str):
    """Keep docs in (n_chars DESC, doc_id ASC) order while the running
    token total stays within budget = total_tokens // 2.

    Scale plan — zero shuffles; the corpus tokenizes ONCE into a slim
    (doc_id, n_chars, n_tokens) projection that is materialized as the
    fan-out pin for its three consumers (~24 B/row at 100 TB — the
    checkpointed-table shape of the minhash/tfidf intermediates):
      1. bounded score-histogram partials: per batch, n_chars ->
         (n_docs, sum_tokens); distinct scores bound the partial size
         regardless of corpus size (the value_histogram shape),
      2. driver: descending cumulative sum finds the boundary score
         s* — every doc scoring above s* fits the budget whole; the
         remainder R falls inside the s* tie group,
      3. only the s*-tie rows come back (bounded by the tie-group
         size, refused above _BUDGET_BOUNDARY_CAP before collecting —
         quantize scores if a single score ties millions of docs);
         the driver resolves their per-doc prefix sums against R,
      4. map-only Arrow filter: score > s*, or doc_id in the broadcast
         boundary keep set.
    Keep rule == the SQL window ``SUM(n_tokens) OVER (ORDER BY n_chars
    DESC, doc_id) <= budget`` — integer arithmetic end to end, so the
    oracle is bit-exact."""
    import pyarrow.compute as pc

    ds = _read(sf_dir, "documents", ["doc_id", "text", "n_chars"])

    def project(batch: pa.Table) -> pa.Table:
        df = batch.select(["text"]).to_pandas()
        return pa.table(
            {
                "doc_id": batch["doc_id"].cast(pa.int64()),
                "n_chars": batch["n_chars"].cast(pa.int64()),
                "n_tokens": pa.array(
                    df["text"].str.count(_TOKEN_RE.pattern).to_numpy("int64")
                ),
            }
        )

    tok = ds.map_batches(project, batch_format="pyarrow").materialize()

    def hist_partial(batch: pa.Table) -> pd.DataFrame:
        df = batch.to_pandas()
        g = df.groupby("n_chars", sort=False).agg(
            n_docs=("doc_id", "size"), sum_tokens=("n_tokens", "sum")
        )
        return g.reset_index()

    hist = (
        tok.map_batches(hist_partial, batch_format="pyarrow")
        .to_pandas()
        .groupby("n_chars", sort=False)
        .sum()
        .sort_index(ascending=False)
    )
    budget = int(hist["sum_tokens"].sum()) // 2
    cum = hist["sum_tokens"].cumsum()
    over = cum > budget
    if not over.any():
        return tok  # the whole corpus fits the budget
    s_star = int(over.idxmax())
    pos = int(over.to_numpy().argmax())
    prefix = int(cum.iloc[pos - 1]) if pos else 0
    if int(hist.loc[s_star, "n_docs"]) > _BUDGET_BOUNDARY_CAP:
        raise ValueError(
            f"token_budget_select: {int(hist.loc[s_star, 'n_docs'])} docs "
            f"tie the boundary score {s_star} (> {_BUDGET_BOUNDARY_CAP}); "
            f"quantize the score column before selecting"
        )
    tie = (
        tok.map_batches(
            lambda t, s=s_star: t.filter(pc.equal(t["n_chars"], s)),
            batch_format="pyarrow",
        )
        .to_pandas()
        .sort_values("doc_id")
    )
    fits = tie["n_tokens"].cumsum() + prefix <= budget
    n_kept = int(hist["n_docs"].iloc[:pos].sum()) + int(fits.sum())
    if n_kept == 0:
        # a fully-empty filtered Dataset drops its schema through
        # to_pandas (the contamination sf0.1 lesson) — the driver knows
        # the count, so return the typed empty frame directly
        return pd.DataFrame(
            {
                "doc_id": pd.Series(dtype="int64"),
                "n_chars": pd.Series(dtype="int64"),
                "n_tokens": pd.Series(dtype="int64"),
            }
        )
    keep_ref = ray.put(
        pa.array(tie.loc[fits, "doc_id"].to_numpy("int64"), type=pa.int64())
    )

    def final_filter(batch: pa.Table) -> pa.Table:
        keep_ids = _broadcast_get(keep_ref)
        mask = pc.or_(
            pc.greater(batch["n_chars"], s_star),
            pc.is_in(batch["doc_id"], value_set=keep_ids),
        )
        return batch.filter(mask)

    return tok.map_batches(final_filter, batch_format="pyarrow")


SQL_TOKEN_BUDGET_SELECT = """
WITH t AS (
  SELECT doc_id, n_chars,
         CAST(length(regexp_extract_all(text, '[A-Za-z0-9]+')) AS BIGINT) AS n_tokens
  FROM documents
), b AS (
  SELECT CAST(sum(n_tokens) // 2 AS BIGINT) AS budget FROM t
), w AS (
  SELECT doc_id, n_chars, n_tokens,
         SUM(n_tokens) OVER (ORDER BY n_chars DESC, doc_id) AS run
  FROM t
)
SELECT w.doc_id, w.n_chars, w.n_tokens
FROM w, b WHERE w.run <= b.budget
"""


def q_embedding_dup(sf_dir: str, threshold: float = 0.45):
    """Exact all-pairs near-dup: each batch scores against the broadcast matrix.

    Local-only PLAN VARIANT since round 5: it driver-materializes the
    whole embedding table and is O(n^2) — exact recall at small/medium
    corpora only.  The exposed, scale-safe plan is ``embedding_dup_lsh``
    (hyperplane multi-table LSH, hot-bucket-capped)."""
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    all_df = ds.to_pandas().sort_values("vec_id")
    ids = all_df["vec_id"].to_numpy()
    mat = np.stack(all_df["embedding"].to_numpy()).astype(np.float64)
    unit = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    ref = ray.put({"ids": ids, "unit": unit})

    def pairs(batch: pd.DataFrame) -> pd.DataFrame:
        d = _broadcast_get(ref)
        all_ids, unit_mat = d["ids"], d["unit"]
        vecs = np.stack(batch["embedding"].to_numpy()).astype(np.float64)
        bids = batch["vec_id"].to_numpy()
        u = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
        sims = u @ unit_mat.T
        # one 2-D mask + fancy indexing (keeps int64 even when empty)
        mask = (sims >= threshold) & (all_ids[None, :] > bids[:, None])
        ii, jj = np.nonzero(mask)
        return pd.DataFrame(
            {
                "vec_a": bids[ii].astype("int64"),
                "vec_b": all_ids[jj].astype("int64"),
                "cosine": np.round(sims[ii, jj], 6).astype("float64"),
            }
        )

    return ds.map_batches(pairs, batch_format="pandas")


SQL_EMBEDDING_DUP = """
WITH u AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings)
SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
       round(list_cosine_similarity(a.v, b.v), 6) AS cosine
FROM u a JOIN u b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.v, b.v) >= 0.45
"""

# ---------------------------------------------------------------------------
# left-anti join, size-routed: customers with zero orders.
# The reference's "未找到" branch is its only anti-join-like construct
# (content_matcher.py:332-341); here it is a first-class operator.
# ---------------------------------------------------------------------------
def q_customers_without_orders(sf_dir: str):
    """Customers with no order above the price floor (floor chosen so the
    anti side is non-empty on the synthetic data; plain 'no orders at
    all' is vacuous there)."""
    from ..stages.bucketed import size_routed_join

    def big_orders(t: pa.Table) -> pa.Table:
        # the filter runs on the order side, before the join
        big = t.filter(pc.greater(t["o_totalprice"], 300000.0))
        return pa.table({"c_custkey": big["o_custkey"]})

    cust = _read(sf_dir, "customer", ["c_custkey", "c_name"])
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    orders = orders.map_batches(big_orders, batch_format="pyarrow")
    return size_routed_join(cust, orders, "c_custkey", "anti")


SQL_CUSTOMERS_WITHOUT_ORDERS = """
SELECT c_custkey, c_name FROM customer
WHERE c_custkey NOT IN (SELECT o_custkey FROM orders WHERE o_totalprice > 300000)
"""

# ---------------------------------------------------------------------------
# revenue by region: orders x customer size-routed on custkey, then the
# config-sized nation -> region names attach to the 25 nation rows
# ---------------------------------------------------------------------------
def q_region_revenue(sf_dir: str):
    nation = _read(sf_dir, "nation", ["n_nationkey", "n_regionkey"]).to_pandas()
    region = _read(sf_dir, "region", ["r_regionkey", "r_name"]).to_pandas()
    names = nation.merge(region, left_on="n_regionkey", right_on="r_regionkey")
    return _revenue_by_name(
        sf_dir,
        ("orders", "o_custkey", "o_totalprice"),
        ("customer", "c_custkey", "c_nationkey"),
        pd.Series(
            names["r_name"].values, index=names["n_nationkey"].values, name="r_name"
        ),
        "n_orders",
    )


SQL_REGION_REVENUE = """
SELECT r.r_name,
       count(*) AS n_orders,
       CAST(sum(CAST(round(o.o_totalprice * 100) AS BIGINT)) AS BIGINT) AS revenue_cents
FROM orders o
JOIN customer c ON o.o_custkey = c.c_custkey
JOIN nation n ON c.c_nationkey = n.n_nationkey
JOIN region r ON n.n_regionkey = r.r_regionkey
GROUP BY r.r_name
"""

# ---------------------------------------------------------------------------
# as-of join: each event matched to the user's latest order at/before its
# timestamp (stages/asof.py co-shuffle + per-key merge_asof; DuckDB's
# native ASOF JOIN is the oracle)
# ---------------------------------------------------------------------------
def q_asof_event_order(sf_dir: str):
    from ..stages.asof import asof_join_backward

    events = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderdate", "o_totalprice"])

    def with_cents(batch: pa.Table) -> pd.DataFrame:
        df = batch.to_pandas()
        df["cents"] = np.rint(df["o_totalprice"] * 100).astype("int64")
        return df.rename(columns={"o_custkey": "user_id"})[
            ["user_id", "o_orderdate", "cents"]
        ]

    joined = asof_join_backward(
        events,
        orders.map_batches(with_cents, batch_format="pyarrow"),
        key="user_id",
        left_ts="ts",
        right_ts="o_orderdate",
        left_cols=["event_id"],
        right_val="cents",
    )

    def finish(batch: pa.Table) -> pd.DataFrame:
        df = batch.to_pandas()
        return pd.DataFrame(
            {
                "event_id": df["event_id"].astype("int64"),
                "user_id": df["user_id"].astype("int64"),
                "ts_us": df["ts_us"].astype("int64"),
                # -1 sentinel for "no prior order" (nullable ints don't
                # survive the pandas->Arrow block conversion)
                "matched_cents": df["cents"].fillna(-1).astype("int64"),
            }
        )

    return joined.map_batches(finish, batch_format="pyarrow")


SQL_ASOF_EVENT_ORDER = """
WITH r AS (
  SELECT o_custkey, o_orderdate,
         max(CAST(round(o_totalprice * 100) AS BIGINT)) AS cents
  FROM orders GROUP BY o_custkey, o_orderdate
)
SELECT e.event_id,
       e.user_id,
       epoch_us(e.ts) AS ts_us,
       COALESCE(r.cents, -1) AS matched_cents
FROM events e
ASOF LEFT JOIN r ON e.user_id = r.o_custkey AND e.ts >= r.o_orderdate
"""

# ---------------------------------------------------------------------------
# range join: per order, the user's events within 1 day after the order.
# Equality key (user) co-shuffles both sides; the time-range predicate is
# a sorted searchsorted count within each key group — no cross product.
# ---------------------------------------------------------------------------
def q_order_events_1d(sf_dir: str):
    from ..stages.asof import epoch_us
    from ..stages.bucketed import co_partition

    orders = _read(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]
    ).rename_columns({"o_custkey": "user_id"})
    events = _read(sf_dir, "events", ["user_id", "ts", "value"])
    DAY_US = 86_400_000_000

    def range_count(o: pd.DataFrame, e: pd.DataFrame) -> pd.DataFrame:
        """Prefix-sum range count for every order of the block: events
        sort by (user, ts) once, and each order's window [ts, ts + 1 day)
        is two composite (user, ts) searchsorted probes — no per-user
        loop."""
        pair = np.dtype([("k", "i8"), ("t", "i8")])

        def composite(k, t):
            out = np.empty(len(k), dtype=pair)
            out["k"], out["t"] = k, t
            return out

        ek, ets = e["user_id"].to_numpy(), epoch_us(e["ts"])
        order = np.lexsort((ets, ek))
        ev = composite(ek[order], ets[order])
        cents = np.rint(e["value"].to_numpy()[order] * 100).astype("int64")
        csum = np.concatenate([[0], np.cumsum(cents)])
        ok, ots = o["user_id"].to_numpy(), epoch_us(o["o_orderdate"])
        lo = np.searchsorted(ev, composite(ok, ots), side="left")
        hi = np.searchsorted(ev, composite(ok, ots + DAY_US), side="left")
        return pd.DataFrame(
            {
                "o_orderkey": o["o_orderkey"].to_numpy(),
                "user_id": ok,
                "n_events_1d": hi - lo,
                "value_cents_1d": csum[hi] - csum[lo],
            }
        )

    return co_partition(orders, events, "user_id", range_count)


SQL_ORDER_EVENTS_1D = """
SELECT o.o_orderkey,
       o.o_custkey AS user_id,
       count(e.event_id) AS n_events_1d,
       CAST(COALESCE(sum(CAST(round(e.value * 100) AS BIGINT)), 0) AS BIGINT) AS value_cents_1d
FROM orders o
LEFT JOIN events e
  ON e.user_id = o.o_custkey
 AND e.ts >= o.o_orderdate
 AND e.ts < o.o_orderdate + INTERVAL 1 DAY
GROUP BY 1, 2
"""

# ---------------------------------------------------------------------------
# deterministic hash sampling: ~12.5% bernoulli by md5(doc_id) prefix —
# reproducible across engines and runs (no RNG), the scalable way to
# sample a 100 TB corpus consistently
# ---------------------------------------------------------------------------
def q_hash_sample(sf_dir: str):
    ds = _read(sf_dir, "documents", ["doc_id", "lang"])

    def body(batch: pa.Table) -> pd.DataFrame:
        df = batch.to_pandas()
        keep = [
            hashlib.md5(str(d).encode()).hexdigest()[0] in ("0", "1")
            for d in df["doc_id"]
        ]
        return df.loc[keep, ["doc_id", "lang"]]

    return ds.map_batches(body, batch_format="pyarrow")


SQL_HASH_SAMPLE = """
SELECT doc_id, lang FROM documents
WHERE substr(md5(CAST(doc_id AS VARCHAR)), 1, 1) IN ('0', '1')
"""

# ---------------------------------------------------------------------------
# tumbling window: per (user, hour-bucket) activity.  Batch-level
# pre-agg -> one groupby; bucket = epoch-us floored to the hour.
# ---------------------------------------------------------------------------
def q_user_hourly_activity(sf_dir: str):
    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])
    HOUR_US = 3_600_000_000

    def partial(batch: pa.Table) -> pd.DataFrame:
        df = batch.to_pandas()
        df["hour_us"] = (
            df["ts"].astype("datetime64[us]").astype("int64") // HOUR_US * HOUR_US
        )
        df["value_cents"] = np.rint(df["value"] * 100).astype("int64")
        return df.groupby(["user_id", "hour_us"], as_index=False).agg(
            n_events=("value", "size"), value_cents=("value_cents", "sum")
        )

    # open cardinality (user x hour): bucket-wise vectorized sum
    from ..stages.bucketed import bucketed_map_groups

    def bucket_sum(bucket: pd.DataFrame) -> pd.DataFrame:
        out = bucket.groupby(["user_id", "hour_us"], as_index=False).agg(
            n_events=("n_events", "sum"), value_cents=("value_cents", "sum")
        )
        for c in ("n_events", "value_cents"):
            out[c] = out[c].astype("int64")
        return out

    return bucketed_map_groups(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["user_id", "hour_us"],
        bucket_sum,
        n_buckets=32,
    )


SQL_USER_HOURLY = """
SELECT user_id,
       epoch_us(date_trunc('hour', ts)) AS hour_us,
       count(*) AS n_events,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS value_cents
FROM events
GROUP BY 1, 2
"""

# ---------------------------------------------------------------------------
# hopping window: 1-hour windows starting every 30 minutes — each event
# lands in exactly two windows.  Ray side: per-batch replicate to the two
# window starts + pre-agg, one small groupby; oracle: unnest the two
# starts per event.
# ---------------------------------------------------------------------------
def q_hopping_window(sf_dir: str):
    ds = _read(sf_dir, "events", ["ts", "value"])
    HOP_US = 1_800_000_000  # 30 min
    WIDTH_WINDOWS = 2       # width = 2 * hop

    def partial(batch: pa.Table) -> pd.DataFrame:
        df = batch.to_pandas()
        ts = df["ts"].astype("datetime64[us]").astype("int64")
        cents = np.rint(df["value"] * 100).astype("int64")
        base = ts // HOP_US * HOP_US
        parts = []
        for i in range(WIDTH_WINDOWS):
            parts.append(pd.DataFrame({"window_start_us": base - i * HOP_US,
                                       "value_cents": cents}))
        rep = pd.concat(parts, ignore_index=True)
        return rep.groupby("window_start_us", as_index=False).agg(
            n_events=("value_cents", "size"), value_cents=("value_cents", "sum")
        )

    # window cardinality = time-range / hop — bounded by construction,
    # independent of corpus row count, so the batch partials are tiny and
    # the driver reduce beats a sort-shuffle (the _driver_reduce contract)
    return _driver_reduce(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["window_start_us"],
        ["n_events", "value_cents"],
    )


SQL_HOPPING_WINDOW = """
WITH w AS (
  SELECT unnest([
           epoch_us(ts) // 1800000000 * 1800000000,
           epoch_us(ts) // 1800000000 * 1800000000 - 1800000000
         ]) AS window_start_us,
         CAST(round(value * 100) AS BIGINT) AS cents
  FROM events
)
SELECT window_start_us,
       count(*) AS n_events,
       CAST(sum(cents) AS BIGINT) AS value_cents
FROM w
GROUP BY window_start_us
"""

# ---------------------------------------------------------------------------
# per-group exact median (quantile operator): in-group sort on integer
# cents — deterministic, SQL median() on BIGINT matches exactly
# ---------------------------------------------------------------------------
def q_user_value_median(sf_dir: str):
    ds = _read(sf_dir, "events", ["user_id", "value"])

    def prep(batch: pa.Table) -> pd.DataFrame:
        df = batch.to_pandas()
        return pd.DataFrame(
            {
                "user_id": df["user_id"].astype("int64"),
                "value_cents": np.rint(df["value"] * 100).astype("int64"),
            }
        )

    def median_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        # pandas median = mean of the two middle values on even counts —
        # the same rule as the explicit sort-based formula
        out = bucket.groupby("user_id", as_index=False).agg(
            n_events=("value_cents", "size"),
            median_cents=("value_cents", "median"),
        )
        out["n_events"] = out["n_events"].astype("int64")
        out["median_cents"] = out["median_cents"].astype("float64")
        return out

    from ..stages.bucketed import bucketed_map_groups

    return bucketed_map_groups(
        ds.map_batches(prep, batch_format="pyarrow"),
        "user_id",
        median_bucket,
        n_buckets=64,
    )


SQL_USER_VALUE_MEDIAN = """
SELECT user_id,
       count(*) AS n_events,
       CAST(median(CAST(round(value * 100) AS BIGINT)) AS DOUBLE) AS median_cents
FROM events
GROUP BY user_id
"""


# ---------------------------------------------------------------------------
# per-group multi-quantiles — the median generalized.  Exactness recipe:
# integer cents + DYADIC quantiles only (k/4): R-7 positions (n-1)*q and
# interpolation fractions are then dyadic rationals, so pandas' two-sided
# lerp and DuckDB's quantile_cont(lower + (upper-lower)*frac) both
# compute EXACT doubles — bit-identical with no rounding traps.  A
# non-dyadic q (0.95) can differ by 1 ulp between the formulas.
# ---------------------------------------------------------------------------
_QUANTS = (0.25, 0.5, 0.75)


def q_user_value_quantiles(sf_dir: str):
    ds = _read(sf_dir, "events", ["user_id", "value"])

    def prep(batch: pa.Table) -> pd.DataFrame:
        df = batch.to_pandas()
        return pd.DataFrame(
            {
                "user_id": df["user_id"].astype("int64"),
                "value_cents": np.rint(df["value"] * 100).astype("int64"),
            }
        )

    def quant_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        g = bucket.groupby("user_id")["value_cents"]
        out = g.quantile(list(_QUANTS)).unstack()
        out.columns = [f"p{int(q * 100)}_cents" for q in _QUANTS]
        out = out.astype("float64").reset_index()
        out.insert(1, "n_events", g.size().to_numpy().astype("int64"))
        return out

    from ..stages.bucketed import bucketed_map_groups

    return bucketed_map_groups(
        ds.map_batches(prep, batch_format="pyarrow"),
        "user_id",
        quant_bucket,
        n_buckets=64,
    )


SQL_USER_VALUE_QUANTILES = f"""
WITH c AS (
  SELECT user_id, CAST(round(value * 100) AS BIGINT) AS cents FROM events
)
SELECT user_id, count(*) AS n_events,
       {', '.join(
           f'CAST(quantile_cont(cents, {q}) AS DOUBLE) AS p{int(q * 100)}_cents'
           for q in _QUANTS
       )}
FROM c GROUP BY user_id
"""

# ---------------------------------------------------------------------------
# windowed aggregate: trailing 1-hour rolling sum/count per user, one
# row per event.  Ray side: groupby(user) + in-group sorted prefix-sum
# two-pointer (vectorized searchsorted); oracle: SQL RANGE frame.
# RANGE semantics include ALL ts-peers of the current row, which the
# [t-1h, t] searchsorted window reproduces exactly.
# ---------------------------------------------------------------------------
def q_rolling_user_value(sf_dir: str):
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def prep(batch: pa.Table) -> pd.DataFrame:
        df = batch.to_pandas()
        return pd.DataFrame(
            {
                "event_id": df["event_id"].astype("int64"),
                "user_id": df["user_id"].astype("int64"),
                "ts_us": df["ts"].astype("datetime64[us]").astype("int64"),
                "value_cents": np.rint(df["value"] * 100).astype("int64"),
            }
        )

    HOUR_US = 3_600_000_000

    def window_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        """Per-user trailing windows for every user in the bucket: one
        global sort by (user, ts), then per-user numpy searchsorted over
        that user's slice (Python loop per USER, numpy per row)."""
        g = bucket.sort_values(
            ["user_id", "ts_us", "event_id"], kind="mergesort"
        ).reset_index(drop=True)
        uk = g["user_id"].to_numpy()
        ts = g["ts_us"].to_numpy()
        csum = np.concatenate([[0], np.cumsum(g["value_cents"].to_numpy())])
        w_n = np.empty(len(g), dtype=np.int64)
        w_v = np.empty(len(g), dtype=np.int64)
        starts = np.flatnonzero(np.diff(uk, prepend=uk[0] - 1) != 0) if len(uk) else np.array([], dtype=np.int64)
        bounds = np.append(starts, len(uk))
        for s, t in zip(bounds[:-1], bounds[1:]):
            seg = ts[s:t]
            lo = np.searchsorted(seg, seg - HOUR_US, side="left") + s
            hi = np.searchsorted(seg, seg, side="right") + s
            w_n[s:t] = hi - lo
            w_v[s:t] = csum[hi] - csum[lo]
        g["w_events"] = w_n
        g["w_value_cents"] = w_v
        return g[["event_id", "user_id", "ts_us", "w_events", "w_value_cents"]]

    from ..stages.bucketed import bucketed_map_groups

    return bucketed_map_groups(
        ds.map_batches(prep, batch_format="pyarrow"),
        "user_id",
        window_bucket,
        n_buckets=64,
    )


SQL_ROLLING_USER_VALUE = """
SELECT event_id,
       user_id,
       epoch_us(ts) AS ts_us,
       count(*) OVER w AS w_events,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) OVER w AS BIGINT) AS w_value_cents
FROM events
WINDOW w AS (
  PARTITION BY user_id ORDER BY ts
  RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW
)
"""

# ---------------------------------------------------------------------------
# S5/K4: run-length segmentation — consecutive same-type runs
# (pdf_processor.py:332-349 sorts pages by page_num then groups runs of one
# classified type; here the sequence is (source, doc_id asc) over classified
# documents).  Partitioning assumption: one `source` group fits a worker —
# at 100 TB pick a finer sequence key or bucket doc_id ranges.
# ---------------------------------------------------------------------------
def _classify_batch_df(batch: pa.Table, extra_cols=()) -> pd.DataFrame:
    out_type = []
    for text in batch["text"].to_pylist():
        scores = []
        for name, kws, prio in _EN_PATTERNS:
            n = sum(len(pat.findall(text)) for _, pat in kws)
            scores.append((name, n * (100 - prio) if n else 0))
        positive = [s for s in scores if s[1] > 0]
        best = max(positive, key=lambda kv: kv[1]) if positive else ("other", 0)
        out_type.append(best[0])
    data = {"doc_id": batch["doc_id"].to_pandas(), "doc_type": out_type}
    for c in extra_cols:
        data[c] = batch[c].to_pandas()
    return pd.DataFrame(data)


def q_split_runs(sf_dir: str):
    ds = _read(sf_dir, "documents", ["doc_id", "text", "source"])
    typed = ds.map_batches(
        lambda b: _classify_batch_df(b, extra_cols=("source",)),
        batch_format="pyarrow",
    )

    def runs(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values("doc_id").reset_index(drop=True)
        run_id = (g["doc_type"] != g["doc_type"].shift()).cumsum()
        agg = g.groupby(run_id).agg(
            doc_type=("doc_type", "first"),
            start_doc_id=("doc_id", "min"),
            end_doc_id=("doc_id", "max"),
            n_docs=("doc_id", "size"),
        )
        agg.insert(0, "source", g["source"].iloc[0])
        agg["n_docs"] = agg["n_docs"].astype("int64")
        return agg.reset_index(drop=True)

    return typed.groupby("source").map_groups(runs, batch_format="pandas")


SQL_SPLIT_RUNS = f"""
WITH scored AS (
  SELECT doc_id, source,
         {_sql_type_score(_T[0][1])} AS s0,
         {_sql_type_score(_T[1][1])} AS s1,
         {_sql_type_score(_T[2][1])} AS s2,
         {_sql_type_score(_T[3][1])} AS s3
  FROM documents
), typed AS (
  SELECT doc_id, source,
         CASE WHEN s0 = 0 AND s1 = 0 AND s2 = 0 AND s3 = 0 THEN 'other'
              WHEN s0 >= s1 AND s0 >= s2 AND s0 >= s3 THEN '{_T[0][0]}'
              WHEN s1 >= s2 AND s1 >= s3 THEN '{_T[1][0]}'
              WHEN s2 >= s3 THEN '{_T[2][0]}'
              ELSE '{_T[3][0]}' END AS doc_type
  FROM scored
), w AS (
  SELECT source, doc_id, doc_type,
         row_number() OVER (PARTITION BY source ORDER BY doc_id)
       - row_number() OVER (PARTITION BY source, doc_type ORDER BY doc_id) AS grp
  FROM typed
)
SELECT source, doc_type,
       min(doc_id) AS start_doc_id, max(doc_id) AS end_doc_id,
       count(*) AS n_docs
FROM w GROUP BY source, doc_type, grp
"""

# ---------------------------------------------------------------------------
# A4: timeline — per-extracted-date rollup over document text
# (main.py:683-707; date regex per ocr_engine.py:325-329, unified pattern)
# ---------------------------------------------------------------------------
_TIMELINE_DATE_RE = re.compile(r"\d{4}[-/年.]\d{1,2}[-/月.]\d{1,2}日?")
_TIMELINE_DATE_SQL = r"\d{4}[-/年.]\d{1,2}[-/月.]\d{1,2}日?"


def q_timeline(sf_dir: str):
    # the driver's documents.text has no digits, so the date-bearing "page
    # text" is rendered from orders rows (one line per order); the regex
    # extraction itself is the reference operator under test
    ds = _read(sf_dir, "orders", ["o_custkey", "o_orderdate", "o_orderpriority"])

    def pairs(batch: pa.Table) -> pd.DataFrame:
        df = batch.to_pandas()
        texts = (
            df["o_orderdate"].dt.strftime("%Y-%m-%d")
            + " priority "
            + df["o_orderpriority"]
        )
        rows_date, rows_doc, rows_occ = [], [], []
        for doc_id, text in zip(df["o_custkey"], texts):
            counts: dict = {}
            for m in _TIMELINE_DATE_RE.findall(text):
                counts[m] = counts.get(m, 0) + 1
            for d, c in counts.items():
                rows_date.append(d)
                rows_doc.append(int(doc_id))
                rows_occ.append(c)
        return pd.DataFrame(
            {
                "date": rows_date,
                "doc_id": pd.Series(rows_doc, dtype="int64"),
                "occ": pd.Series(rows_occ, dtype="int64"),
            }
        )

    def dates_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        out = bucket.groupby("date", as_index=False).agg(
            occurrences=("occ", "sum"), n_docs=("doc_id", "nunique")
        )
        out["occurrences"] = out["occurrences"].astype("int64")
        out["n_docs"] = out["n_docs"].astype("int64")
        return out

    from ..stages.bucketed import bucketed_map_groups

    return bucketed_map_groups(
        ds.map_batches(pairs, batch_format="pyarrow"),
        "date",
        dates_bucket,
        n_buckets=32,
    )


SQL_TIMELINE = f"""
WITH m AS (
  SELECT o_custkey AS doc_id,
         unnest(regexp_extract_all(
           strftime(o_orderdate, '%Y-%m-%d') || ' priority ' || o_orderpriority,
           '{_TIMELINE_DATE_SQL}')) AS date
  FROM orders
)
SELECT date, count(*) AS occurrences, count(DISTINCT doc_id) AS n_docs
FROM m GROUP BY date
"""

# ---------------------------------------------------------------------------
# supplier-side revenue rollup: lineitem x supplier size-routed on
# suppkey, batch pre-agg per nation, names on the 25-row result
# ---------------------------------------------------------------------------
def q_supplier_nation_revenue(sf_dir: str):
    return _revenue_by_name(
        sf_dir,
        ("lineitem", "l_suppkey", "l_extendedprice"),
        ("supplier", "s_suppkey", "s_nationkey"),
        _nation_names(sf_dir),
        "n_items",
    )


SQL_SUPPLIER_NATION_REVENUE = """
SELECT n.n_name,
       count(*) AS n_items,
       CAST(sum(CAST(round(l.l_extendedprice * 100) AS BIGINT)) AS BIGINT) AS revenue_cents
FROM lineitem l
JOIN supplier s ON l.l_suppkey = s.s_suppkey
JOIN nation n ON s.s_nationkey = n.n_nationkey
GROUP BY n.n_name
"""

# ---------------------------------------------------------------------------
# TPC-H Q14-flavored promo ratio: broadcast part-type map over the fact
# table, conditional integer-cents partials, single-division final ratio
# ---------------------------------------------------------------------------
def q_promo_revenue_ratio(sf_dir: str):
    part = _read(sf_dir, "part", ["p_partkey", "p_type"]).to_pandas()
    promo_keys = set(part.loc[part["p_type"] == "PROMO", "p_partkey"])
    ref = ray.put(promo_keys)

    def partial(batch: pa.Table) -> pd.DataFrame:
        df = batch.to_pandas()
        cents = np.rint(df["l_extendedprice"] * 100).astype("int64")
        is_promo = df["l_partkey"].isin(_broadcast_get(ref))
        return pd.DataFrame(
            {
                "promo_cents": pd.Series([int(cents[is_promo].sum())], dtype="int64"),
                "total_cents": pd.Series([int(cents.sum())], dtype="int64"),
            }
        )

    items = _read(sf_dir, "lineitem", ["l_partkey", "l_extendedprice"])
    parts = (
        items.map_batches(partial, batch_format="pyarrow")
        .to_pandas()
        .sum()
    )
    promo, total = int(parts["promo_cents"]), int(parts["total_cents"])
    return pd.DataFrame(
        {
            "promo_cents": pd.Series([promo], dtype="int64"),
            "total_cents": pd.Series([total], dtype="int64"),
            "promo_ratio": [100.0 * promo / total if total else 0.0],
        }
    )


SQL_PROMO_REVENUE_RATIO = """
WITH j AS (
  SELECT CAST(round(l.l_extendedprice * 100) AS BIGINT) AS cents,
         (p.p_type = 'PROMO') AS is_promo
  FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
)
SELECT CAST(sum(CASE WHEN is_promo THEN cents ELSE 0 END) AS BIGINT) AS promo_cents,
       CAST(sum(cents) AS BIGINT) AS total_cents,
       100.0 * CAST(sum(CASE WHEN is_promo THEN cents ELSE 0 END) AS DOUBLE)
             / CAST(sum(cents) AS DOUBLE) AS promo_ratio
FROM j
"""

# ---------------------------------------------------------------------------
# large-large equi join, row-level output: orders x lineitem co-partition
# via the generic bucketed_equi_join (neither side broadcast/materalized)
# ---------------------------------------------------------------------------
def q_order_items(sf_dir: str):
    from ..stages.bucketed import bucketed_equi_join

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderpriority"])
    # filter pushed below the shuffle: only high-value orders join
    orders = orders.map_batches(
        lambda t: t.filter(pc.greater(t["o_custkey"], 0)), batch_format="pyarrow"
    )
    items = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_quantity", "l_extendedprice"]
    )

    def prep_items(batch: pa.Table) -> pd.DataFrame:
        df = batch.to_pandas()
        return pd.DataFrame(
            {
                "o_orderkey": df["l_orderkey"].astype("int64"),
                "l_linenumber": df["l_linenumber"].astype("int64"),
                "qty": df["l_quantity"].astype("int64"),
                "price_cents": np.rint(df["l_extendedprice"] * 100).astype("int64"),
            }
        )

    joined = bucketed_equi_join(
        orders,
        items.map_batches(prep_items, batch_format="pyarrow"),
        on="o_orderkey",
        how="inner",
        n_buckets=64,
    )

    def finish(batch: pa.Table) -> pd.DataFrame:
        df = batch.to_pandas()
        for c in ("o_orderkey", "o_custkey", "l_linenumber", "qty", "price_cents"):
            df[c] = df[c].astype("int64")
        return df[
            ["o_orderkey", "o_custkey", "o_orderpriority", "l_linenumber", "qty", "price_cents"]
        ]

    return joined.map_batches(finish, batch_format="pyarrow")


SQL_ORDER_ITEMS = """
SELECT o.o_orderkey,
       o.o_custkey,
       o.o_orderpriority,
       CAST(l.l_linenumber AS BIGINT) AS l_linenumber,
       CAST(l.l_quantity AS BIGINT) AS qty,
       CAST(round(l.l_extendedprice * 100) AS BIGINT) AS price_cents
FROM orders o
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
WHERE o.o_custkey > 0
"""

# ---------------------------------------------------------------------------
# gap-based session window: a session breaks after > `gap` inactivity —
# the streaming-window companion to the run-merge sessionization
# ---------------------------------------------------------------------------
def q_session_window(sf_dir: str, gap_minutes: int = 30):
    from ..stages.bucketed import bucketed_map_groups

    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "value"])
    GAP_US = gap_minutes * 60_000_000

    def sessions_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        g = bucket.sort_values(
            ["user_id", "ts", "event_id"], kind="mergesort"
        ).reset_index(drop=True)
        g["ts_us"] = g["ts"].astype("datetime64[us]").astype("int64")
        g["value_cents"] = np.rint(g["value"] * 100).astype("int64")
        new_user = g["user_id"] != g["user_id"].shift()
        gap = (g["ts_us"] - g["ts_us"].shift()) > GAP_US
        sid = (new_user | gap).cumsum()
        out = g.groupby(sid, sort=False).agg(
            user_id=("user_id", "first"),
            start_us=("ts_us", "first"),
            end_us=("ts_us", "last"),
            n_events=("ts_us", "size"),
            value_cents=("value_cents", "sum"),
        )
        out["user_id"] = out["user_id"].astype("int64")
        out["n_events"] = out["n_events"].astype("int64")
        out["value_cents"] = out["value_cents"].astype("int64")
        return out.reset_index(drop=True)

    return bucketed_map_groups(ds, "user_id", sessions_bucket, n_buckets=64)


SQL_SESSION_WINDOW = """
WITH o AS (
  SELECT user_id, ts, event_id, value,
         CASE WHEN lag(ts) OVER w IS NULL
                OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
              THEN 1 ELSE 0 END AS brk
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
), s AS (
  SELECT *, sum(brk) OVER (PARTITION BY user_id ORDER BY ts, event_id
                           ROWS UNBOUNDED PRECEDING) AS sid
  FROM o
)
SELECT user_id,
       epoch_us(min(ts)) AS start_us,
       epoch_us(max(ts)) AS end_us,
       count(*) AS n_events,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS value_cents
FROM s
GROUP BY user_id, sid
"""

# ---------------------------------------------------------------------------
# exact two-phase distinct count (the exact counterpart of the HLL
# sketch): batch-local pair dedup -> bucketed per-key distinct
# ---------------------------------------------------------------------------
def q_distinct_sources_by_lang(sf_dir: str):
    from ..stages.bucketed import bucketed_map_groups

    ds = _read(sf_dir, "documents", ["lang", "source"])

    def local_pairs(batch: pa.Table) -> pd.DataFrame:
        # combiner: one row per (lang, source) per batch
        return batch.to_pandas().drop_duplicates(["lang", "source"])

    def count_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        out = bucket.drop_duplicates(["lang", "source"]).groupby(
            "lang", as_index=False
        ).agg(n_sources=("source", "size"))
        out["n_sources"] = out["n_sources"].astype("int64")
        return out

    return bucketed_map_groups(
        ds.map_batches(local_pairs, batch_format="pyarrow"),
        "lang",
        count_bucket,
        n_buckets=8,
    )


SQL_DISTINCT_SOURCES_BY_LANG = """
SELECT lang, count(DISTINCT source) AS n_sources
FROM documents
GROUP BY lang
"""

# ---------------------------------------------------------------------------
# document fingerprinting: polynomial rolling hash over the token stream
# (functions/fingerprint.py); DuckDB reproduces the fold exactly via
# list_reduce over HUGEINT (the h*B+t intermediate exceeds int64)
# ---------------------------------------------------------------------------
def q_doc_fingerprint(sf_dir: str):
    from ..functions.fingerprint import rolling_fingerprint
    from ..functions.tokenize import tokenize

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def body(batch: pa.Table) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_pandas(),
                "fingerprint": pd.Series(
                    [
                        rolling_fingerprint(tokenize(t))
                        for t in batch["text"].to_pylist()
                    ],
                    dtype="int64",
                ),
            }
        )

    return ds.map_batches(body, batch_format="pyarrow")


SQL_DOC_FINGERPRINT = """
SELECT doc_id,
       CAST(list_reduce(
         list_prepend(CAST(0 AS HUGEINT),
           list_transform(regexp_extract_all(text, '[A-Za-z0-9]+'),
             x -> CAST(CAST(concat('0x', substr(md5(x), 1, 16)) AS UBIGINT) AS HUGEINT))),
         (h, x) -> (h * 1000003 + x) % 2305843009213693951
       ) AS BIGINT) AS fingerprint
FROM documents
"""

# ---------------------------------------------------------------------------
# M11-M13 classify cascade, oracled: the mock LLM is a deterministic
# md5-keyed vote over the exact prompt string, so DuckDB can replay the
# whole cascade — rule scores (case-insensitive regex counts), the
# confidence split at 0.7, and the mock generate+parse for doubtful rows.
# ---------------------------------------------------------------------------
def q_classify_cascade(sf_dir: str):
    from ..stages.classify_cascade import classify_cascade

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return classify_cascade(ds, doc_types=DOCUMENT_TYPES_EN)


def _sql_ci_count(kw: str) -> str:
    return f"length(regexp_extract_all(text, '{kw}', 0, 'i'))"


def _sql_ci_type_score(cfg) -> str:
    total = " + ".join(_sql_ci_count(kw) for kw in cfg["keywords"])
    return f"(CASE WHEN ({total}) > 0 THEN ({total}) * (100 - {cfg['priority']}) ELSE 0 END)"


_CASCADE_TYPES = "/".join(DOCUMENT_TYPES_EN)
_CASCADE_PROMPT_SQL = (
    "'请判断以下文档的类型。' || chr(10) || '候选类型: ' || "
    f"'{_CASCADE_TYPES}' || chr(10) || '文档内容:' || chr(10) || "
    "substr(text, 1, 2000) || chr(10)"
)
_CHOICE_CASE = " ".join(
    f"WHEN b0 % {len(_T)} = {i} THEN '{name}'" for i, name in enumerate(DOCUMENT_TYPES_EN)
)
SQL_CLASSIFY_CASCADE = f"""
WITH scored AS (
  SELECT doc_id, text,
         {_sql_ci_type_score(_T[0][1])} AS s0,
         {_sql_ci_type_score(_T[1][1])} AS s1,
         {_sql_ci_type_score(_T[2][1])} AS s2,
         {_sql_ci_type_score(_T[3][1])} AS s3
  FROM documents
), ruled AS (
  SELECT doc_id, text,
         CASE WHEN s0 = 0 AND s1 = 0 AND s2 = 0 AND s3 = 0 THEN 'other'
              WHEN s0 >= s1 AND s0 >= s2 AND s0 >= s3 THEN '{_T[0][0]}'
              WHEN s1 >= s2 AND s1 >= s3 THEN '{_T[1][0]}'
              WHEN s2 >= s3 THEN '{_T[2][0]}'
              ELSE '{_T[3][0]}' END AS rule_type,
         CASE WHEN s0 = 0 AND s1 = 0 AND s2 = 0 AND s3 = 0 THEN 0.5
              ELSE CAST(greatest(s0, s1, s2, s3) AS DOUBLE) / (s0 + s1 + s2 + s3)
              END AS rule_conf
  FROM scored
), llm AS (
  SELECT doc_id, rule_type, rule_conf,
         CAST(concat('0x', substr(md5({_CASCADE_PROMPT_SQL}), 1, 2)) AS INT) AS b0,
         CAST(concat('0x', substr(md5({_CASCADE_PROMPT_SQL}), 3, 2)) AS INT) AS b1
  FROM ruled
)
SELECT doc_id,
       CASE WHEN rule_conf >= 0.7 THEN rule_type
            ELSE (CASE {_CHOICE_CASE} END) END AS doc_type,
       CASE WHEN rule_conf >= 0.7 THEN rule_conf
            ELSE CAST('0.' || (80 + b1 % 20) AS DOUBLE) END AS type_confidence,
       CASE WHEN rule_conf >= 0.7 THEN 'rule' ELSE 'llm' END AS classifier
FROM llm
"""

# ---------------------------------------------------------------------------
# repeated-ngram (exact-substring) duplication detector — the
# substring-level counterpart of document dedup (cf. "Deduplicating
# Training Data Makes Language Models Better", Lee et al. 2022: repeated
# spans inflate memorization): k-token windows, hashed + bucketed count,
# emit grams occurring >= min_count times with doc spread.
# ---------------------------------------------------------------------------
_NGRAM_K = 8
_NGRAM_MIN = 2


def q_repeated_ngrams(sf_dir: str):
    from ..stages.bucketed import bucketed_map_groups

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def windows(batch: pa.Table) -> pd.DataFrame:
        out_g, out_d = [], []
        for did, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            toks = _TOKEN_RE.findall(text)
            for i in range(len(toks) - _NGRAM_K + 1):
                out_g.append(" ".join(toks[i : i + _NGRAM_K]))
                out_d.append(did)
        # batch-local pre-agg: one row per (gram, doc, count) — the shuffle
        # moves gram HASHES at scale; the md5 here doubles as the oracle key
        df = pd.DataFrame({"gram": out_g, "doc_id": out_d})
        agg = df.groupby(["gram", "doc_id"], as_index=False).size()
        # explicit schema: a batch of only-short docs emits zero windows
        return pa.Table.from_pydict(
            {
                "gram_hash": [
                    hashlib.md5(g.encode()).hexdigest() for g in agg["gram"]
                ],
                "doc_id": agg["doc_id"].astype("int64").to_numpy(),
                "size": agg["size"].astype("int64").to_numpy(),
            },
            schema=pa.schema(
                [("gram_hash", pa.string()), ("doc_id", pa.int64()), ("size", pa.int64())]
            ),
        )

    def count_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        per_pair = bucket.groupby(["gram_hash", "doc_id"], as_index=False).agg(
            n=("size", "sum")
        )
        out = per_pair.groupby("gram_hash", as_index=False).agg(
            n_occurrences=("n", "sum"), n_docs=("doc_id", "size")
        )
        out = out[out["n_occurrences"] >= _NGRAM_MIN]
        for c in ("n_occurrences", "n_docs"):
            out[c] = out[c].astype("int64")
        return out

    return bucketed_map_groups(
        ds.map_batches(windows, batch_format="pyarrow"),
        "gram_hash",
        count_bucket,
        n_buckets=32,
    )


SQL_REPEATED_NGRAMS = f"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(text, '[A-Za-z0-9]+') AS ts FROM documents
), g AS (
  SELECT doc_id,
         md5(array_to_string(list_slice(ts, i + 1, i + {_NGRAM_K}), ' ')) AS gram_hash
  FROM toks, unnest(range(0, greatest(length(ts) - {_NGRAM_K} + 1, 0))) AS t(i)
)
SELECT gram_hash,
       count(*) AS n_occurrences,
       count(DISTINCT doc_id) AS n_docs
FROM g
GROUP BY gram_hash
HAVING count(*) >= {_NGRAM_MIN}
"""

# ---------------------------------------------------------------------------
# benchmark decontamination: which corpus documents share k-token windows
# with a (small) eval set — the standard pre-training contamination check.
# Eval gram hashes broadcast once (eval sets are small by construction);
# the corpus streams through a per-batch membership filter, then a
# bucketed per-doc rollup.
# ---------------------------------------------------------------------------
_EVAL_MAX_DOC_ID = 10  # the one value both engine and oracle key on


def _gram_hashes(text: str, k: int):
    """md5 hashes of the k-token windows of ``text`` — the ONE gram
    definition both contamination operators (and their SQL oracles)
    share; change it here and both stay in lockstep."""
    toks = _TOKEN_RE.findall(text)
    return [
        hashlib.md5(" ".join(toks[i : i + k]).encode()).hexdigest()
        for i in range(len(toks) - k + 1)
    ]


def _eval_gram_ref(ds, k: int, eval_max_doc_id: int):
    """Eval side of a contamination check: tiny by construction, so the
    distinct gram-hash set builds on the driver and broadcasts once."""
    eval_df = ds.map_batches(
        lambda t: t.filter(pc.less(t["doc_id"], eval_max_doc_id)),
        batch_format="pyarrow",
    ).to_pandas()
    eval_grams = set()
    for text in eval_df.get("text", ()):  # no eval doc: no columns either
        eval_grams.update(_gram_hashes(text, k))
    return ray.put(eval_grams)


def q_contamination(sf_dir: str, eval_max_doc_id: int = _EVAL_MAX_DOC_ID):
    from ..stages.bucketed import map_groups_frame

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def grams_of(text: str):
        return _gram_hashes(text, _NGRAM_K)

    eval_ref = _eval_gram_ref(ds, _NGRAM_K, eval_max_doc_id)

    def probe(batch: pa.Table) -> pa.Table:
        grams = _broadcast_get(eval_ref)
        out_d, out_g = [], []
        for did, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            if did < eval_max_doc_id:
                continue  # eval docs are not their own contamination
            for gh in grams_of(text):
                if gh in grams:
                    out_d.append(did)
                    out_g.append(gh)
        return pa.Table.from_pydict(
            {"doc_id": out_d, "gram_hash": out_g},
            schema=pa.schema([("doc_id", pa.int64()), ("gram_hash", pa.string())]),
        )

    hits = ds.map_batches(probe, batch_format="pyarrow")

    def rollup(bucket: pd.DataFrame) -> pd.DataFrame:
        out = bucket.groupby("doc_id", as_index=False).agg(
            n_shared_grams=("gram_hash", "size"),
            n_distinct_shared=("gram_hash", "nunique"),
        )
        for c in ("n_shared_grams", "n_distinct_shared"):
            out[c] = out[c].astype("int64")
        return out

    # no hit at all gives no columns either: a clean corpus is the
    # expected steady state for a decontamination check
    return _schema_stable_pairs(
        map_groups_frame(hits, "doc_id", rollup, n_buckets=32),
        {"doc_id": "int64", "n_shared_grams": "int64", "n_distinct_shared": "int64"},
    )


SQL_CONTAMINATION = f"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(text, '[A-Za-z0-9]+') AS ts FROM documents
), g AS (
  SELECT doc_id,
         md5(array_to_string(list_slice(ts, i + 1, i + {_NGRAM_K}), ' ')) AS gram_hash
  FROM toks, unnest(range(0, greatest(length(ts) - {_NGRAM_K} + 1, 0))) AS t(i)
), eval_g AS (
  SELECT DISTINCT gram_hash FROM g WHERE doc_id < {_EVAL_MAX_DOC_ID}
)
SELECT g.doc_id,
       count(*) AS n_shared_grams,
       count(DISTINCT g.gram_hash) AS n_distinct_shared
FROM g JOIN eval_g USING (gram_hash)
WHERE g.doc_id >= {_EVAL_MAX_DOC_ID}
GROUP BY g.doc_id
"""


# ---------------------------------------------------------------------------
# per-doc decontamination FRACTION — the filterable form of the
# contamination check above (the membership query reports which grams
# collide; curation pipelines act on the per-doc overlap *rate*, cf. the
# n-gram-overlap decontamination rules used for open-web corpora).  A
# shorter gram (K=4) than the membership query's K=8 so the rate is
# discriminative on partial overlap, and a keep flag at a fixed
# threshold.  Map-only with a broadcast eval-gram set — zero shuffles,
# the canonical per-doc-filter shape at 100 TB (the eval side is tiny by
# construction; the corpus streams).  contam_frac is one exact int/int
# division, so numpy and DuckDB produce the identical float64.
# ---------------------------------------------------------------------------
_DECONTAM_K = 4
_DECONTAM_MAX_FRAC = 0.05


def q_decontam_frac(sf_dir: str, eval_max_doc_id: int = _EVAL_MAX_DOC_ID):
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def grams_of(text: str):
        return _gram_hashes(text, _DECONTAM_K)

    eval_ref = _eval_gram_ref(ds, _DECONTAM_K, eval_max_doc_id)

    def probe(batch: pa.Table) -> pd.DataFrame:
        grams = _broadcast_get(eval_ref)
        ids, tot, hit = [], [], []
        for did, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            if did < eval_max_doc_id:
                continue  # eval docs are not their own contamination
            gs = grams_of(text)
            ids.append(did)
            tot.append(len(gs))
            hit.append(sum(1 for gh in gs if gh in grams))
        n = np.asarray(tot, dtype="int64")
        h = np.asarray(hit, dtype="int64")
        frac = np.where(n > 0, h / np.where(n > 0, n, 1), 0.0)
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "n_grams": pd.Series(n, dtype="int64"),
                "n_contaminated": pd.Series(h, dtype="int64"),
                "contam_frac": pd.Series(frac, dtype="float64"),
                "keep": pd.Series(frac <= _DECONTAM_MAX_FRAC, dtype="bool"),
            }
        )

    return ds.map_batches(probe, batch_format="pyarrow")


SQL_DECONTAM_FRAC = f"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(text, '[A-Za-z0-9]+') AS ts FROM documents
), g AS (
  SELECT doc_id,
         md5(array_to_string(list_slice(ts, i + 1, i + {_DECONTAM_K}), ' ')) AS gram_hash
  FROM toks, unnest(range(0, greatest(length(ts) - {_DECONTAM_K} + 1, 0))) AS t(i)
), eval_g AS (
  SELECT DISTINCT gram_hash FROM g WHERE doc_id < {_EVAL_MAX_DOC_ID}
), tot AS (
  SELECT doc_id, count(*) AS n FROM g
  WHERE doc_id >= {_EVAL_MAX_DOC_ID} GROUP BY doc_id
), hit AS (
  SELECT g.doc_id, count(*) AS h FROM g JOIN eval_g USING (gram_hash)
  WHERE g.doc_id >= {_EVAL_MAX_DOC_ID} GROUP BY g.doc_id
)
SELECT d.doc_id,
       CAST(coalesce(t.n, 0) AS BIGINT) AS n_grams,
       CAST(coalesce(h.h, 0) AS BIGINT) AS n_contaminated,
       CASE WHEN coalesce(t.n, 0) > 0
            THEN CAST(coalesce(h.h, 0) AS DOUBLE) / t.n
            ELSE 0.0 END AS contam_frac,
       (CASE WHEN coalesce(t.n, 0) > 0
             THEN CAST(coalesce(h.h, 0) AS DOUBLE) / t.n
             ELSE 0.0 END) <= {_DECONTAM_MAX_FRAC} AS keep
FROM documents d
LEFT JOIN tot t ON d.doc_id = t.doc_id
LEFT JOIN hit h ON d.doc_id = h.doc_id
WHERE d.doc_id >= {_EVAL_MAX_DOC_ID}
"""

# ---------------------------------------------------------------------------
# the composed training-data curation pipeline — the canonical corpus
# cleaning pass at 100 TB: quality gate -> language keep -> exact-dedup
# canonical, one batch map + one bucketed dedup shuffle end to end
# ---------------------------------------------------------------------------
def q_curation_pipeline(sf_dir: str):
    from ..functions.textnorm import text_hash_many
    from ..stages.bucketed import bucketed_map_groups

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    lang_pats = [
        (lang, re.compile(r"\b(?:" + "|".join(words) + r")\b"))
        for lang, words in _LANGS
    ]

    def gate(batch: pa.Table) -> pd.DataFrame:
        doc_ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        rows = []
        for did, text in zip(doc_ids, texts):
            sig = quality_signals(text)
            if not quality_ok(sig):
                continue
            lowered = text.lower()
            best_lang, best_hits = "unknown", 0
            for lang, pat in lang_pats:
                hits = len(pat.findall(lowered))
                if hits > best_hits:
                    best_lang, best_hits = lang, hits
            if best_lang == "unknown":
                continue
            rows.append((did, best_lang, int(sig["n_words"]), text))
        # explicit schema: a fully-filtered batch must not emit null-typed
        # string columns (block-schema equality at the dedup shuffle)
        return pa.Table.from_pydict(
            {
                "doc_id": [r[0] for r in rows],
                "lang_pred": [r[1] for r in rows],
                "n_words": [r[2] for r in rows],
                "text_hash": text_hash_many([r[3] for r in rows]),
            },
            schema=pa.schema(
                [
                    ("doc_id", pa.int64()),
                    ("lang_pred", pa.string()),
                    ("n_words", pa.int64()),
                    ("text_hash", pa.string()),
                ]
            ),
        )

    gated = ds.map_batches(gate, batch_format="pyarrow")

    def canonical_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        # keep the min-doc_id row per normalized-text hash
        return bucket.sort_values("doc_id", kind="mergesort").drop_duplicates(
            "text_hash"
        )

    return bucketed_map_groups(gated, "text_hash", canonical_bucket, n_buckets=64)


SQL_CURATION_PIPELINE = f"""
WITH base AS (
  SELECT doc_id, text,
         length(text) AS n_chars,
         regexp_extract_all(text, '[A-Za-z0-9]+') AS words,
         length(regexp_extract_all(text, '[^\\w\\s]')) AS n_punct
  FROM documents
), sig AS (
  SELECT doc_id, text,
         length(words) AS n_words,
         CASE WHEN length(words) > 0
              THEN CAST(length(array_to_string(words, '')) AS DOUBLE) / length(words)
              ELSE 0.0 END AS mean_word_len,
         CASE WHEN n_chars > 0
              THEN CAST(n_punct AS DOUBLE) / n_chars ELSE 0.0 END AS punct_ratio
  FROM base
), ok AS (
  SELECT doc_id, text, n_words FROM sig
  WHERE n_words >= 10 AND punct_ratio <= 0.3
    AND mean_word_len >= 2.0 AND mean_word_len <= 12.0
), hits AS (
  SELECT doc_id, text, n_words,
         {_sql_lang_hits(_LANGS[0][1])} AS h0,
         {_sql_lang_hits(_LANGS[1][1])} AS h1,
         {_sql_lang_hits(_LANGS[2][1])} AS h2,
         {_sql_lang_hits(_LANGS[3][1])} AS h3
  FROM ok
), langd AS (
  SELECT doc_id, n_words,
         CASE WHEN h0 = 0 AND h1 = 0 AND h2 = 0 AND h3 = 0 THEN 'unknown'
              WHEN h0 >= h1 AND h0 >= h2 AND h0 >= h3 THEN '{_LANGS[0][0]}'
              WHEN h1 >= h2 AND h1 >= h3 THEN '{_LANGS[1][0]}'
              WHEN h2 >= h3 THEN '{_LANGS[2][0]}'
              ELSE '{_LANGS[3][0]}' END AS lang_pred,
         md5(regexp_replace(lower(text), '\\s', '', 'g')) AS text_hash
  FROM hits
), ranked AS (
  SELECT doc_id, lang_pred, n_words, text_hash,
         row_number() OVER (PARTITION BY text_hash ORDER BY doc_id) AS rk
  FROM langd
  WHERE lang_pred <> 'unknown'
)
SELECT doc_id, lang_pred, n_words, text_hash FROM ranked WHERE rk = 1
"""

# ===========================================================================
# Round-3 oracle expansion — full-pipeline oracles
#
# Two ingredients make the flagship pipelines DuckDB-checkable:
#
# 1. the interleave derivation chunks with a seeded Mersenne Twister, so
#    span BOUNDARIES are not SQL-derivable — but in forced-OCR mode the
#    extraction is an exact media round-trip, and the ordered concat of
#    extracted span texts equals the whitespace-normalized source text.
#    That per-doc invariant checks explode -> all four routes ->
#    reassembly ORDER end to end (a scrambled reassembly garbles the
#    concat);
# 2. the page-level pipelines (compare / render / merge) run over a
#    deterministic fixed-window pagination that SQL reproduces exactly,
#    so every downstream semantic (hash short-circuit, date semi-join,
#    fallback cap, cosine top-1, statuses, run merge, framing, category
#    vote) is replayed in one DuckDB program.
# ===========================================================================
PAGE_WORDS = 12


def _pages_batch(batch: pa.Table, date_stamp: bool = False) -> pa.Table:
    """Flat (doc_id, text) -> fixed-window page rows.

    ``date_stamp`` appends a deterministic '2024-<m>-<d>' token to ~3/4
    of the pages (gate and value both keyed on the chunk's content hash,
    so duplicated chunks stay byte-identical) — the digit-free corpus
    then exercises the date-candidate semi-join (J2) on stamped pages
    AND the first-100 fallback (J3) on unstamped probes.  Mirrored
    exactly by ``_sql_pages``.
    """
    out_doc, out_did, out_off, out_text = [], [], [], []
    for did, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
        words = [w for w in text.split(" ") if w]
        n_pages = max(1, -(-len(words) // PAGE_WORDS))
        for i in range(n_pages):
            chunk = " ".join(words[i * PAGE_WORDS : (i + 1) * PAGE_WORDS])
            if date_stamp:
                gv = int.from_bytes(hashlib.md5(chunk.encode()).digest()[:4], "big")
                if gv % 4 != 0:
                    day = gv % 336
                    chunk = f"{chunk} 2024-{day // 28 + 1}-{day % 28 + 1}"
            out_doc.append(str(did))
            out_did.append(int(did))
            out_off.append(i)
            out_text.append(chunk)
    return pa.table(
        {
            "doc_id": pa.array(out_doc, type=pa.string()),
            "did": pa.array(out_did, type=pa.int64()),
            "offset": pa.array(out_off, type=pa.int32()),
            "text": pa.array(out_text, type=pa.string()),
        }
    )


def _paged_docs(sf_dir: str, stamp: bool = False):
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(
        lambda t, s=stamp: _pages_batch(t, s), batch_format="pyarrow"
    )


def _sql_pages(stamp: bool) -> str:
    """CTE fragment: toks, pages0, pages(doc_id VARCHAR, did, off, text)."""
    w = PAGE_WORDS
    base = f"""toks AS (
  SELECT doc_id, regexp_extract_all(text, '[^ ]+') AS ts FROM documents
), pages0 AS (
  SELECT CAST(doc_id AS VARCHAR) AS doc_id, doc_id AS did, CAST(i AS INT) AS off,
         array_to_string(list_slice(ts, i*{w} + 1, i*{w} + {w}), ' ') AS chunk
  FROM toks, unnest(range(0, greatest(1, CAST(ceil(len(ts) / {w}.0) AS BIGINT)))) AS t(i)
)"""
    if not stamp:
        return base + """, pages AS (
  SELECT doc_id, did, off, chunk AS text FROM pages0
)"""
    return base + """, pagesg AS (
  SELECT doc_id, did, off, chunk,
         CAST(('0x' || substr(md5(chunk), 1, 8)) AS UBIGINT) AS gv
  FROM pages0
), pages AS (
  SELECT doc_id, did, off,
         CASE WHEN gv % 4 = 0 THEN chunk
              ELSE chunk || ' 2024-' || CAST((gv % 336) // 28 + 1 AS VARCHAR)
                         || '-' || CAST((gv % 336) % 28 + 1 AS VARCHAR)
         END AS text
  FROM pagesg
)"""


# ---------------------------------------------------------------------------
# flagship extraction round-trip (forced-OCR mode) — S1-S4/M1/M17/§2.9
# ---------------------------------------------------------------------------
def _concat_spans(out):
    """Reassembled span rows -> per-doc ordered full text (bucketed)."""
    from ..stages.bucketed import bucketed_map_groups

    light = out.select_columns(["doc_id", "seq", "text"])

    def concat_bucket(df: pd.DataFrame) -> pd.DataFrame:
        g = df.sort_values(["doc_id", "seq"], kind="mergesort")
        return g.groupby("doc_id", sort=False, as_index=False).agg(
            full_text=("text", lambda s: " ".join(x for x in s if x))
        )

    return bucketed_map_groups(light, "doc_id", concat_bucket, n_buckets=32)


def q_extraction_roundtrip(sf_dir: str):
    """Full flagship pipeline (interleave -> explode -> route -> extract
    -> reassemble) in forced-OCR mode (agreement_threshold > 1: the
    single-heavy-engine analog of the reference's engine mode switch,
    ``hybrid_ocr_engine.py:250-264``), reduced to the per-doc ordered
    concat.  Oracle: the whitespace-normalized source text — exact
    because every route round-trips (html strip, pdf layout parse, mock
    OCR decode).  A wrong span ORDER or a dropped/garbled span breaks
    the equality, so this checks the reassembly invariant end to end;
    span-level goldens (incl. the default agreement routing) are pinned
    by the pytest fixtures."""
    from ..pipelines.extraction import (
        interleave,
        read_flat_documents,
        run_extraction,
    )

    docs = interleave(read_flat_documents(f"{sf_dir}/documents.parquet"))
    return _concat_spans(run_extraction(docs, agreement_threshold=1.1))


SQL_EXTRACTION_ROUNDTRIP = """
SELECT CAST(doc_id AS VARCHAR) AS doc_id,
       trim(regexp_replace(text, ' +', ' ', 'g')) AS full_text
FROM documents
"""


def q_extraction_hybrid_roundtrip(sf_dir: str):
    """Smart-mode extraction (ST3: low-confidence scan spans rerun on the
    second engine, better answer kept) under the same forced-OCR
    round-trip invariant — the rerun must preserve text content exactly
    while only route/score change (routing itself is pytest-pinned)."""
    from ..pipelines.extraction import (
        interleave,
        read_flat_documents,
        run_extraction,
    )

    docs = interleave(read_flat_documents(f"{sf_dir}/documents.parquet"))
    out = run_extraction(docs, agreement_threshold=1.1, rerun_threshold=0.93)
    return _concat_spans(out)


# ---------------------------------------------------------------------------
# S8 render sink over the deterministic pagination
# ---------------------------------------------------------------------------
def q_render_full_text(sf_dir: str):
    from ..pipelines.sinks import render_full_text

    pages = _paged_docs(sf_dir).map_batches(
        lambda t: t.select(["doc_id", "offset", "text"]).rename_columns(
            ["doc_id", "seq", "text"]
        ),
        batch_format="pyarrow",
    )
    return render_full_text(pages)


SQL_RENDER_FULL_TEXT = f"""
WITH {_sql_pages(False)}
SELECT doc_id,
       string_agg('=== 第' || CAST(off + 1 AS VARCHAR) || '页 ===' || chr(10) || text,
                  chr(10) ORDER BY off) AS full_text,
       count(*) AS n_spans
FROM pages
GROUP BY doc_id
"""


# ---------------------------------------------------------------------------
# S6 category merge over the deterministic pagination: per-page EN rule
# classify -> per-doc main-type vote (A8) -> framed per-category concat
# ---------------------------------------------------------------------------
def q_merge_by_category(sf_dir: str):
    from ..pipelines.sinks import merge_by_category

    def with_type(batch: pa.Table) -> pa.Table:
        df = _classify_batch_df(batch)
        return batch.append_column(
            "doc_type", pa.array(df["doc_type"].tolist(), type=pa.string())
        )

    pages = _paged_docs(sf_dir).map_batches(with_type, batch_format="pyarrow")
    pages = pages.map_batches(
        lambda t: t.select(["doc_id", "offset", "text", "doc_type"]),
        batch_format="pyarrow",
    )
    return merge_by_category(pages)


SQL_MERGE_BY_CATEGORY = f"""
WITH {_sql_pages(False)},
typed AS (
  SELECT doc_id, off, text,
         {_sql_type_score(_T[0][1])} AS s0,
         {_sql_type_score(_T[1][1])} AS s1,
         {_sql_type_score(_T[2][1])} AS s2,
         {_sql_type_score(_T[3][1])} AS s3
  FROM pages
), ptype AS (
  SELECT doc_id, off, text,
         CASE WHEN s0 = 0 AND s1 = 0 AND s2 = 0 AND s3 = 0 THEN 'other'
              WHEN s0 >= s1 AND s0 >= s2 AND s0 >= s3 THEN '{_T[0][0]}'
              WHEN s1 >= s2 AND s1 >= s3 THEN '{_T[1][0]}'
              WHEN s2 >= s3 THEN '{_T[2][0]}'
              ELSE '{_T[3][0]}' END AS doc_type
  FROM typed
), votes AS (
  SELECT doc_id, doc_type, count(*) AS c FROM ptype GROUP BY doc_id, doc_type
), main AS (
  SELECT doc_id, doc_type AS main_type FROM (
    SELECT doc_id, doc_type,
           row_number() OVER (PARTITION BY doc_id ORDER BY c DESC, doc_type) AS rk
    FROM votes
  ) WHERE rk = 1
), body AS (
  SELECT p.doc_id, m.main_type,
         string_agg('=== 第' || CAST(p.off + 1 AS VARCHAR) || '页 ===' || chr(10) || p.text,
                    chr(10) ORDER BY p.off) AS body
  FROM ptype p JOIN main m USING (doc_id)
  GROUP BY p.doc_id, m.main_type
)
SELECT main_type,
       string_agg('--- ' || doc_id || ' ---' || chr(10) || body,
                  chr(10) ORDER BY doc_id) AS merged_text,
       count(*) AS n_docs
FROM body
GROUP BY main_type
"""


# ---------------------------------------------------------------------------
# The extract-and-compare flagship (J1-J6) over the stamped pagination,
# fully replayed in one DuckDB program: exact-hash short-circuit (first
# build page in (doc_id, offset) order), date-candidate semi-join,
# first-100 fallback, term-frequency cosine (bit-exact: integer dot /
# sqrt of integer sums on both sides), 0.95/0.75 status thresholds,
# top-10 keyword intersection, and the consecutive-run merge as a
# gaps-and-islands window.
# ---------------------------------------------------------------------------
def _split_pages(pages, parity: int):
    return pages.map_batches(
        lambda t, p=parity: t.filter(
            pc.equal(pc.bit_wise_and(t["did"], 1), p)
        ).drop_columns(["did"]),
        batch_format="pyarrow",
    )


def _compare_post(batch: pa.Table) -> pd.DataFrame:
    df = batch.to_pandas()
    df["similarity"] = df["similarity"].round(6)
    df["matched_keywords"] = [",".join(x) for x in df["matched_keywords"]]
    for c in ("source_start", "source_end", "target_start", "target_end"):
        df[c] = df[c].astype("int64")
    return df


def q_compare_pipeline(sf_dir: str, shuffle: bool = False):
    """Odd doc_ids probe against even doc_ids via the broadcast-index
    match join (``shuffle=True``: the hash-shuffle co-partition join —
    row-identical, the large-build-side physical plan)."""
    from ..pipelines.compare import build_index, enrich_spans, match_spans, merge_matches

    # Enrich ONCE over all pages, then materialize at the fan-out:
    # probe and build both filter the same enriched table, and the match
    # join consumes each side again — without the pin the paging+enrich
    # pipeline re-executes per consumer (~2x the query wall time at
    # sf0.1); enriching before the split halves the enrich work
    # the old probe/build-each-enrich plan did (features are
    # parity-agnostic, so this is purely a physical plan change).
    pages = enrich_spans(_paged_docs(sf_dir, stamp=True)).materialize()
    probe, build = _split_pages(pages, 1), _split_pages(pages, 0)
    if shuffle:
        from ..stages.match_shuffle import run_match_shuffle

        results = run_match_shuffle(probe, build, None)
    else:
        results = match_spans(probe, build_index(build))
    return merge_matches(results).map_batches(_compare_post, batch_format="pyarrow")


def q_compare_pipeline_shuffle(sf_dir: str):
    return q_compare_pipeline(sf_dir, shuffle=True)


def q_match_summary(sf_dir: str):
    """A1 rollup over the page-level match results (pre-merge)."""
    from ..pipelines.compare import build_index, enrich_spans, match_spans
    from ..pipelines.reports import match_summary

    pages = _paged_docs(sf_dir, stamp=True).materialize()  # fan-out pin
    probe, build = _split_pages(pages, 1), _split_pages(pages, 0)
    results = match_spans(enrich_spans(probe), build_index(enrich_spans(build)))
    return match_summary(results)


def _sql_compare_core() -> str:
    """CTE chain (caller prefixes WITH) ending in page_res — one
    match-result row per probe page."""
    return f"""{_sql_pages(True)},
feat AS (
  SELECT doc_id, did, off, text,
         md5(regexp_replace(lower(text), '\\s', '', 'g')) AS text_hash,
         regexp_extract(text, '[0-9]{{4}}-[0-9]{{1,2}}-[0-9]{{1,2}}') AS dt
  FROM pages
), ct AS (
  SELECT doc_id, off, tok, count(*) AS c FROM (
    SELECT doc_id, off, unnest(regexp_extract_all(text, '[A-Za-z0-9]+')) AS tok
    FROM pages
  ) GROUP BY doc_id, off, tok
), nrm AS (
  SELECT doc_id, off, sqrt(sum(c * c)) AS nrm FROM ct GROUP BY doc_id, off
), kwr AS (
  SELECT doc_id, off, tok,
         row_number() OVER (PARTITION BY doc_id, off ORDER BY c DESC, tok) AS rk
  FROM ct WHERE length(tok) >= 2 AND NOT regexp_matches(tok, '^[0-9]+$')
), kw AS (
  SELECT doc_id, off, list(tok ORDER BY rk) AS kws FROM kwr WHERE rk <= 10
  GROUP BY doc_id, off
), probe AS (
  SELECT * FROM feat WHERE did % 2 = 1
), build AS (
  SELECT * FROM feat WHERE did % 2 = 0
), b100 AS (
  SELECT doc_id, off FROM build ORDER BY doc_id, off LIMIT 100
), hashm AS (
  SELECT p.doc_id AS pd, p.off AS po, b.doc_id AS bd, b.off AS bo,
         row_number() OVER (PARTITION BY p.doc_id, p.off ORDER BY b.doc_id, b.off) AS rk
  FROM probe p JOIN build b ON p.text_hash = b.text_hash
), besthash AS (
  SELECT pd, po, bd, bo FROM hashm WHERE rk = 1
), datec AS (
  SELECT p.doc_id AS pd, p.off AS po, b.doc_id AS bd, b.off AS bo
  FROM probe p JOIN build b ON p.dt = b.dt AND p.dt <> ''
  WHERE NOT EXISTS (SELECT 1 FROM besthash h WHERE h.pd = p.doc_id AND h.po = p.off)
), cands AS (
  SELECT pd, po, bd, bo FROM datec
  UNION ALL
  SELECT p.doc_id, p.off, b.doc_id, b.off
  FROM probe p CROSS JOIN b100 b
  WHERE NOT EXISTS (SELECT 1 FROM besthash h WHERE h.pd = p.doc_id AND h.po = p.off)
    AND NOT EXISTS (SELECT 1 FROM datec d WHERE d.pd = p.doc_id AND d.po = p.off)
), dots AS (
  SELECT c.pd, c.po, c.bd, c.bo, sum(pt.c * bt.c) AS dot
  FROM cands c
  JOIN ct pt ON pt.doc_id = c.pd AND pt.off = c.po
  JOIN ct bt ON bt.doc_id = c.bd AND bt.off = c.bo AND bt.tok = pt.tok
  GROUP BY c.pd, c.po, c.bd, c.bo
), sims AS (
  SELECT c.pd, c.po, c.bd, c.bo,
         coalesce(d.dot, 0) / (pn.nrm * bn.nrm) AS sim
  FROM cands c
  LEFT JOIN dots d ON d.pd = c.pd AND d.po = c.po AND d.bd = c.bd AND d.bo = c.bo
  JOIN nrm pn ON pn.doc_id = c.pd AND pn.off = c.po
  JOIN nrm bn ON bn.doc_id = c.bd AND bn.off = c.bo
), bestscore AS (
  SELECT pd, po, bd, bo, sim FROM (
    SELECT pd, po, bd, bo, sim,
           row_number() OVER (PARTITION BY pd, po ORDER BY sim DESC, bd, bo) AS rk
    FROM sims WHERE sim >= 0.60
  ) WHERE rk = 1
), page_res AS (
  SELECT h.pd AS source_doc_id, h.po AS source_offset, 'other' AS doc_type,
         'exact' AS match_status, h.bd AS target_doc_id, h.bo AS target_offset,
         1.0 AS similarity,
         coalesce(array_to_string(list_sort(list_intersect(
             coalesce(pk.kws, CAST([] AS VARCHAR[])),
             coalesce(bk.kws, CAST([] AS VARCHAR[])))), ','), '') AS matched_keywords
  FROM besthash h
  LEFT JOIN kw pk ON pk.doc_id = h.pd AND pk.off = h.po
  LEFT JOIN kw bk ON bk.doc_id = h.bd AND bk.off = h.bo
  UNION ALL
  SELECT s.pd, s.po, 'other',
         CASE WHEN s.sim >= 0.95 THEN 'exact'
              WHEN s.sim >= 0.75 THEN 'partial'
              ELSE 'low' END,
         s.bd, s.bo, s.sim,
         coalesce(array_to_string(list_sort(list_intersect(
             coalesce(pk.kws, CAST([] AS VARCHAR[])),
             coalesce(bk.kws, CAST([] AS VARCHAR[])))), ','), '')
  FROM bestscore s
  LEFT JOIN kw pk ON pk.doc_id = s.pd AND pk.off = s.po
  LEFT JOIN kw bk ON bk.doc_id = s.bd AND bk.off = s.bo
  UNION ALL
  SELECT p.doc_id, p.off, 'other', 'none', '', -1, 0.0, ''
  FROM probe p
  WHERE NOT EXISTS (SELECT 1 FROM besthash h WHERE h.pd = p.doc_id AND h.po = p.off)
    AND NOT EXISTS (SELECT 1 FROM bestscore s WHERE s.pd = p.doc_id AND s.po = p.off)
)"""


SQL_COMPARE_PIPELINE = f"""
WITH {_sql_compare_core()},
ordered AS (
  SELECT *,
         lag(source_doc_id) OVER w AS psd,
         lag(target_doc_id) OVER w AS ptd,
         lag(match_status) OVER w AS pst,
         lag(target_offset) OVER w AS pto
  FROM page_res
  WINDOW w AS (ORDER BY source_doc_id, source_offset)
), flagged AS (
  SELECT *,
         CASE WHEN psd IS NULL OR psd <> source_doc_id
                   OR ptd <> target_doc_id OR pst <> match_status
                   OR target_doc_id = '' OR target_offset <> pto + 1
              THEN 1 ELSE 0 END AS brk
  FROM ordered
), runs AS (
  SELECT *, sum(brk) OVER (ORDER BY source_doc_id, source_offset
                           ROWS UNBOUNDED PRECEDING) AS run_id
  FROM flagged
)
SELECT any_value(source_doc_id) AS source_doc_id,
       CAST(min(source_offset) AS BIGINT) AS source_start,
       CAST(max(source_offset) AS BIGINT) AS source_end,
       any_value(doc_type) AS doc_type,
       any_value(match_status) AS match_status,
       any_value(target_doc_id) AS target_doc_id,
       CAST(min(target_offset) AS BIGINT) AS target_start,
       CAST(max(target_offset) AS BIGINT) AS target_end,
       round(avg(similarity), 6) AS similarity,
       coalesce(array_to_string(list_sort(list_distinct(list_filter(
           flatten(list(string_split(matched_keywords, ','))),
           e -> e <> ''))), ','), '') AS matched_keywords
FROM runs
GROUP BY run_id
"""


SQL_MATCH_SUMMARY = f"""
WITH {_sql_compare_core()},
c AS (
  SELECT count(*) AS total,
         count(*) FILTER (match_status = 'exact') AS exact_matches,
         count(*) FILTER (match_status = 'partial') AS partial_matches,
         count(*) FILTER (match_status = 'low') AS low_similarity,
         count(*) FILTER (match_status = 'none') AS not_found
  FROM page_res
)
SELECT total, exact_matches, partial_matches, low_similarity, not_found,
       (exact_matches + partial_matches) / total AS match_rate
FROM c
"""


# ---------------------------------------------------------------------------
# near-dup family: MinHash-LSH / SimHash / n-gram Jaccard / clusters.
# The SQL replays the sketches bit-exactly: token hash = first 8 bytes of
# md5 (big-endian), minhash perms = the SAME (a, b) constants the engine
# draws from its seeded RNG (inlined below), banding = positionwise
# signature equality per 4-perm band (band-hash md5 collisions are
# negligible and would only ADD candidates on the engine side).
# ---------------------------------------------------------------------------
_MINHASH_NGRAM = 3
_MINHASH_THRESHOLD = 0.5
_NJ_NGRAM = 2
_NJ_THRESHOLD = 0.5
_SIMHASH_MAX_HAMMING = 8
_U64_MOD = 1 << 64
_U64_MAX = _U64_MOD - 1


def _sql_perm_values() -> str:
    from ..functions.fingerprint import _perm_params

    a, b = _perm_params(64)
    return ", ".join(f"({i}, {int(a[i])}, {int(b[i])})" for i in range(64))


def _sql_minhash_ctes(ngram: int, key: str = "doc_id") -> str:
    """CTE chain ending in sig(<key>, sig UBIGINT[64]); caller supplies
    the WITH [RECURSIVE] prefix.  ``key`` selects the sketch grain:
    per-document (the near-dup family) or per-source
    (source_minhash_overlap) — the hash family is identical."""
    return f"""toks AS (
  SELECT {key}, regexp_extract_all(text, '[A-Za-z0-9]+') AS ts FROM documents
), shx AS (
  SELECT {key}, CASE
    WHEN len(ts) >= {ngram} THEN list_transform(range(1, len(ts) - {ngram} + 2),
         i -> array_to_string(list_slice(ts, i, i + {ngram} - 1), ' '))
    WHEN len(ts) >= 1 THEN [array_to_string(ts, ' ')]
    ELSE [] END AS sg
  FROM toks
), hv AS (
  SELECT {key}, CAST(('0x' || substr(md5(s), 1, 16)) AS UBIGINT) AS h
  FROM shx, unnest(sg) AS t(s)
), perms(pid, pa, pb) AS (VALUES {_sql_perm_values()}),
sigv AS (
  SELECT hv.{key}, p.pid,
         min(CAST((CAST(p.pa AS HUGEINT) * hv.h + p.pb) % {_U64_MOD} AS UBIGINT)) AS v
  FROM hv CROSS JOIN perms p GROUP BY hv.{key}, p.pid
), sig AS (
  SELECT d.{key},
         coalesce(s.sig, list_transform(range(1, 65), i -> CAST({_U64_MAX} AS UBIGINT))) AS sig
  FROM (SELECT DISTINCT {key} FROM documents) d
  LEFT JOIN (SELECT {key}, list(v ORDER BY pid) AS sig FROM sigv GROUP BY {key}) s
    USING ({key})
)"""


_SQL_SHARED_BAND = (
    "len(list_filter(range(0, 16), k -> "
    "list_slice(a.sig, 4*k + 1, 4*k + 4) = list_slice(b.sig, 4*k + 1, 4*k + 4))) > 0"
)
_SQL_EST_JACCARD = "len(list_filter(range(1, 65), i -> a.sig[i] = b.sig[i])) / 64.0"


def q_minhash_lsh_pairs(sf_dir: str):
    from ..stages.dedup import minhash_lsh_pairs

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return _schema_stable_pairs(
        minhash_lsh_pairs(ds, ngram=_MINHASH_NGRAM, threshold=_MINHASH_THRESHOLD),
        {"doc_a": "int64", "doc_b": "int64", "est_jaccard": "float64"},
    )


SQL_MINHASH_LSH_PAIRS = f"""
WITH {_sql_minhash_ctes(_MINHASH_NGRAM)}
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, {_SQL_EST_JACCARD} AS est_jaccard
FROM sig a JOIN sig b ON a.doc_id < b.doc_id
WHERE {_SQL_SHARED_BAND} AND {_SQL_EST_JACCARD} >= {_MINHASH_THRESHOLD}
"""


def q_dedup_clusters(sf_dir: str):
    """Near-dup pairs -> transitive-closure cluster labels via the
    distributed large-star/small-star rounds (size-routed); oracle = a
    recursive min-label propagation over the same SQL-replayed pairs."""
    from ..stages.concomp import label_components
    from ..stages.dedup import minhash_lsh_pairs

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return label_components(
        minhash_lsh_pairs(ds, ngram=_MINHASH_NGRAM, threshold=_MINHASH_THRESHOLD)
    )


SQL_DEDUP_CLUSTERS = f"""
WITH RECURSIVE {_sql_minhash_ctes(_MINHASH_NGRAM)},
pr AS (
  SELECT CAST(a.doc_id AS VARCHAR) AS u, CAST(b.doc_id AS VARCHAR) AS v
  FROM sig a JOIN sig b ON a.doc_id < b.doc_id
  WHERE {_SQL_SHARED_BAND} AND {_SQL_EST_JACCARD} >= {_MINHASH_THRESHOLD}
), edges AS (
  SELECT u, v FROM pr UNION SELECT v AS u, u AS v FROM pr
), cc AS (
  SELECT u AS n, u AS l FROM edges
  UNION
  SELECT e.v AS n, cc.l FROM cc JOIN edges e ON cc.n = e.u
)
SELECT n AS doc_id, min(l) AS cluster_id FROM cc GROUP BY n
"""


def q_near_dedup_keep(sf_dir: str):
    """End-to-end near-dup corpus filter: MinHash-LSH pairs ->
    large-star/small-star clusters -> keep flag per document (cluster
    minimum survives, unclustered docs survive).  The composed form of
    `minhash_lsh_pairs` + `dedup_clusters` + the co-partition canonical
    filter — the action a curation pass actually takes."""
    from ..stages.concomp import dedup_keep_canonical
    from ..stages.dedup import minhash_lsh_pairs

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    pairs = minhash_lsh_pairs(
        ds, ngram=_MINHASH_NGRAM, threshold=_MINHASH_THRESHOLD
    )
    return dedup_keep_canonical(ds, pairs)


SQL_NEAR_DEDUP_KEEP = f"""
WITH RECURSIVE {_sql_minhash_ctes(_MINHASH_NGRAM)},
pr AS (
  SELECT CAST(a.doc_id AS VARCHAR) AS u, CAST(b.doc_id AS VARCHAR) AS v
  FROM sig a JOIN sig b ON a.doc_id < b.doc_id
  WHERE {_SQL_SHARED_BAND} AND {_SQL_EST_JACCARD} >= {_MINHASH_THRESHOLD}
), edges AS (
  SELECT u, v FROM pr UNION SELECT v AS u, u AS v FROM pr
), cc AS (
  SELECT u AS n, u AS l FROM edges
  UNION
  SELECT e.v AS n, cc.l FROM cc JOIN edges e ON cc.n = e.u
), labels AS (
  SELECT n AS doc_id, min(l) AS cluster_id FROM cc GROUP BY n
)
SELECT CAST(d.doc_id AS VARCHAR) AS doc_id
FROM documents d LEFT JOIN labels l ON CAST(d.doc_id AS VARCHAR) = l.doc_id
WHERE l.cluster_id IS NULL OR l.cluster_id = CAST(d.doc_id AS VARCHAR)
"""


def q_near_dedup_keep_best(sf_dir: str):
    """Quality-aware near-dup filter: per cluster keep the member with
    the most characters (ties to the smallest doc_id) — the open-web
    curation convention of retaining the longest/cleanest duplicate,
    vs `near_dedup_keep`'s arbitrary cluster-minimum.  Plan notes in
    stages/concomp.dedup_keep_best."""
    from ..stages.concomp import dedup_keep_best
    from ..stages.dedup import minhash_lsh_pairs

    ds = _read(sf_dir, "documents", ["doc_id", "text", "n_chars"])
    pairs = minhash_lsh_pairs(
        ds.select_columns(["doc_id", "text"]),
        ngram=_MINHASH_NGRAM,
        threshold=_MINHASH_THRESHOLD,
    )
    kept = dedup_keep_best(
        ds.select_columns(["doc_id", "n_chars"]), pairs, quality_col="n_chars"
    )
    return kept.map_batches(
        lambda t: t.rename_columns(["doc_id", "n_chars"]),
        batch_format="pyarrow",
    )


SQL_NEAR_DEDUP_KEEP_BEST = f"""
WITH RECURSIVE {_sql_minhash_ctes(_MINHASH_NGRAM)},
pr AS (
  SELECT CAST(a.doc_id AS VARCHAR) AS u, CAST(b.doc_id AS VARCHAR) AS v
  FROM sig a JOIN sig b ON a.doc_id < b.doc_id
  WHERE {_SQL_SHARED_BAND} AND {_SQL_EST_JACCARD} >= {_MINHASH_THRESHOLD}
), edges AS (
  SELECT u, v FROM pr UNION SELECT v AS u, u AS v FROM pr
), cc AS (
  SELECT u AS n, u AS l FROM edges
  UNION
  SELECT e.v AS n, cc.l FROM cc JOIN edges e ON cc.n = e.u
), labels AS (
  SELECT n AS doc_id, min(l) AS cluster_id FROM cc GROUP BY n
), winners AS (
  SELECT cluster_id, doc_id AS winner FROM (
    SELECT l.cluster_id, l.doc_id,
           ROW_NUMBER() OVER (
             PARTITION BY l.cluster_id
             ORDER BY d.n_chars DESC, CAST(l.doc_id AS BIGINT)
           ) AS rn
    FROM labels l JOIN documents d ON CAST(d.doc_id AS VARCHAR) = l.doc_id
  ) WHERE rn = 1
)
SELECT CAST(d.doc_id AS VARCHAR) AS doc_id, d.n_chars
FROM documents d
LEFT JOIN labels l ON CAST(d.doc_id AS VARCHAR) = l.doc_id
LEFT JOIN winners w ON l.cluster_id = w.cluster_id
WHERE l.doc_id IS NULL OR w.winner = CAST(d.doc_id AS VARCHAR)
"""


def _schema_stable_pairs(res, spec: dict) -> pd.DataFrame:
    """Dataset or DataFrame -> DataFrame with the declared ``spec``
    columns when empty: a fully-empty pair table produces ZERO blocks
    through the bucketed dedup shuffle, to_pandas drops its columns, and
    so does ``map_groups_frame`` on an input without rows (the
    no-near-dups corpus is a legitimate steady state, found by the
    contamination sf0.1 lesson)."""
    df = res.to_pandas() if not isinstance(res, pd.DataFrame) else res
    if not len(df.columns):
        df = pd.DataFrame({c: pd.Series([], dtype=t) for c, t in spec.items()})
    return df


def q_simhash_pairs(sf_dir: str):
    from ..stages.dedup import simhash_pairs

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return _schema_stable_pairs(
        simhash_pairs(ds, max_hamming=_SIMHASH_MAX_HAMMING),
        {"doc_a": "int64", "doc_b": "int64", "hamming": "int64"},
    )


SQL_SIMHASH_PAIRS = f"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(text, '[A-Za-z0-9]+') AS ts FROM documents
), tokc AS (
  SELECT doc_id, s AS tok, count(*) AS c
  FROM toks, unnest(ts) AS t(s) GROUP BY doc_id, s
), th AS (
  SELECT doc_id, CAST(('0x' || substr(md5(tok), 1, 16)) AS UBIGINT) AS h, c FROM tokc
), bits AS (
  SELECT doc_id, i,
         CASE WHEN sum((CAST((h >> i) & 1 AS BIGINT) * 2 - 1) * c) > 0 THEN 1 ELSE 0 END AS bit
  FROM th CROSS JOIN range(0, 64) AS r(i) GROUP BY doc_id, i
), sh0 AS (
  SELECT doc_id, sum(CAST(bit AS HUGEINT) * (CAST(1 AS HUGEINT) << CAST(i AS INT))) AS hv
  FROM bits GROUP BY doc_id
), sh AS (
  SELECT d.doc_id, CAST(coalesce(sh0.hv, 0) AS UBIGINT) AS hv
  FROM (SELECT doc_id FROM documents) d LEFT JOIN sh0 USING (doc_id)
)
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
       CAST(bit_count(xor(a.hv, b.hv)) AS BIGINT) AS hamming
FROM sh a JOIN sh b ON a.doc_id < b.doc_id
WHERE len(list_filter(range(0, 4), k ->
      ((a.hv >> (16*CAST(k AS INT))) & 65535) = ((b.hv >> (16*CAST(k AS INT))) & 65535))) > 0
  AND bit_count(xor(a.hv, b.hv)) <= {_SIMHASH_MAX_HAMMING}
"""


def q_ngram_jaccard_pairs(sf_dir: str):
    from ..stages.dedup import ngram_jaccard_pairs

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ngram_jaccard_pairs(ds, ngram=_NJ_NGRAM, threshold=_NJ_THRESHOLD)


_SQL_NJ_JACCARD = (
    "CASE WHEN len(list_distinct(x.dsg || y.dsg)) = 0 THEN 0.0 "
    "ELSE len(list_intersect(x.dsg, y.dsg)) * 1.0 / len(list_distinct(x.dsg || y.dsg)) END"
)

SQL_NGRAM_JACCARD_PAIRS = f"""
WITH {_sql_minhash_ctes(_NJ_NGRAM)},
dsh AS (
  SELECT doc_id, list_distinct(sg) AS dsg FROM shx
), cand AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
  FROM sig a JOIN sig b ON a.doc_id < b.doc_id
  WHERE {_SQL_SHARED_BAND}
)
SELECT c.doc_a, c.doc_b, {_SQL_NJ_JACCARD} AS jaccard
FROM cand c JOIN dsh x ON c.doc_a = x.doc_id JOIN dsh y ON c.doc_b = y.doc_id
WHERE {_SQL_NJ_JACCARD} >= {_NJ_THRESHOLD}
"""


# Exact set-similarity self-join (prefix filtering, AllPairs/PPJoin):
# ALL pairs with shingle-set Jaccard >= t — same grams and threshold as
# ngram_jaccard_pairs, but candidates come from the exact prefix-filter
# principle instead of LSH banding, so the output is the full answer
# (LSH banding can miss pairs; the prefix filter cannot).  The oracle is
# the brute-force all-pairs definition.
_SSJ_NGRAM = _NJ_NGRAM
_SSJ_THRESHOLD = _NJ_THRESHOLD


def q_set_similarity_join(sf_dir: str):
    from ..stages.dedup import prefix_jaccard_pairs

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return _schema_stable_pairs(
        prefix_jaccard_pairs(ds, ngram=_SSJ_NGRAM, threshold=_SSJ_THRESHOLD),
        {"doc_a": "int64", "doc_b": "int64", "jaccard": "float64"},
    )


SQL_SET_SIMILARITY_JOIN = f"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(text, '[A-Za-z0-9]+') AS ts FROM documents
), shx AS (
  SELECT doc_id, CASE
    WHEN len(ts) >= {_SSJ_NGRAM} THEN list_transform(range(1, len(ts) - {_SSJ_NGRAM} + 2),
         i -> array_to_string(list_slice(ts, i, i + {_SSJ_NGRAM} - 1), ' '))
    WHEN len(ts) >= 1 THEN [array_to_string(ts, ' ')]
    ELSE [] END AS sg
  FROM toks
), dsh AS (
  SELECT doc_id, list_distinct(sg) AS dsg FROM shx
)
SELECT x.doc_id AS doc_a, y.doc_id AS doc_b, {_SQL_NJ_JACCARD} AS jaccard
FROM dsh x JOIN dsh y ON x.doc_id < y.doc_id
WHERE {_SQL_NJ_JACCARD} >= {_SSJ_THRESHOLD}
"""


def q_knn_cosine_ivf(sf_dir: str):
    """IVF ANN with nprobe == ncells: every cell probed, so the output
    equals the exact top-k (the oracle) while the full IVF machinery
    (k-means training, per-batch probe masks, partial top-k, per-query
    reduce) executes for real; the lossy-pruning recall is pinned by the
    pytest recall test."""
    from ..stages.knn import knn_cosine_ivf

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    qdf = (
        ds.map_batches(
            lambda t: t.filter(pc.less(t["vec_id"], 5)), batch_format="pyarrow"
        )
        .to_pandas()
        .sort_values("vec_id")
    )
    result = knn_cosine_ivf(
        ds,
        qdf["vec_id"].tolist(),
        np.stack(qdf["embedding"].to_numpy()),
        k=10,
        ncells=16,
        nprobe=16,
    ).to_pandas()
    result["cosine"] = result["cosine"].round(6)
    result["query_id"] = result["query_id"].astype("int64")
    result["vec_id"] = result["vec_id"].astype("int64")
    result = result.rename(columns={"rank": "rk"})
    return result[["query_id", "vec_id", "rk", "cosine"]]


# ---------------------------------------------------------------------------
# sketches: HLL distinct + Count-Min heavy hitters.  Both estimates are
# deterministic functions of the input multiset (register max / counter
# sums are batch-composition-invariant), so SQL replays the sketch math
# itself: md5-derived 64-bit hashes, top-p register index, leading-zero
# rank via bin(), the alpha*m^2 estimator with linear-counting fallback,
# and depth-4 counter minima.
# ---------------------------------------------------------------------------
_HLL_P = 12
_HLL_M = 1 << _HLL_P


def q_approx_distinct_by_lang(sf_dir: str):
    from ..stages.sketch import approx_distinct_by

    ds = _read(sf_dir, "documents", ["lang", "doc_id"])
    out = approx_distinct_by(ds, "lang", "doc_id", p=_HLL_P).to_pandas()
    out["approx_distinct"] = out["approx_distinct"].round(6)
    return out.sort_values("lang").reset_index(drop=True)


SQL_APPROX_DISTINCT_BY_LANG = f"""
WITH vals AS (
  SELECT DISTINCT lang, CAST(doc_id AS VARCHAR) AS v FROM documents
), h AS (
  SELECT lang, CAST(('0x' || substr(md5(v), 1, 16)) AS UBIGINT) AS hv FROM vals
), rr AS (
  SELECT lang, hv >> {64 - _HLL_P} AS idx,
         CAST((CAST(hv AS HUGEINT) * {_HLL_M}) % {_U64_MOD} AS UBIGINT) AS rest
  FROM h
), regs AS (
  SELECT lang, idx,
         max(CASE WHEN rest = 0 THEN {64 - _HLL_P + 1}
                  ELSE least(64 - length(bin(rest)) + 1, {64 - _HLL_P + 1}) END) AS r
  FROM rr GROUP BY lang, idx
), agg AS (
  SELECT lang, count(*) AS n_present, sum(power(2.0, -r)) AS s FROM regs GROUP BY lang
), est AS (
  SELECT lang,
         (0.7213 / (1 + 1.079 / {_HLL_M}.0)) * {_HLL_M}.0 * {_HLL_M}.0
           / (({_HLL_M} - n_present) + s) AS raw,
         {_HLL_M} - n_present AS zeros
  FROM agg
)
SELECT lang,
       round(CASE WHEN raw <= 2.5 * {_HLL_M} AND zeros > 0
                  THEN {_HLL_M}.0 * ln({_HLL_M}.0 / zeros) ELSE raw END, 6)
         AS approx_distinct
FROM est
"""


_CM_DEPTH = 4
_CM_WIDTH = 4096
_CM_K = 20


def q_approx_top_tokens(sf_dir: str):
    """Count-Min heavy hitters over whitespace tokens.  The per-batch
    candidate shortlists union to the full (31-token) vocabulary here, so
    the oracle can rank ALL distinct tokens by sketch estimate — any true
    heavy hitter is in some batch's local top by the union bound."""
    from ..stages.sketch import approx_topk

    ds = _read(sf_dir, "documents", ["text"])

    def toks(batch: pa.Table) -> pd.DataFrame:
        out = []
        for t in batch["text"].to_pylist():
            out.extend(t.split())
        return pd.DataFrame({"tok": out})

    out = approx_topk(
        ds.map_batches(toks, batch_format="pyarrow"),
        "tok",
        k=_CM_K,
        depth=_CM_DEPTH,
        width=_CM_WIDTH,
    )
    out["approx_count"] = out["approx_count"].astype("int64")
    return out


SQL_APPROX_TOP_TOKENS = f"""
WITH tk AS (
  SELECT unnest(regexp_extract_all(text, '[^ ]+')) AS tok FROM documents
), tc AS (
  SELECT tok, count(*) AS c FROM tk GROUP BY tok
), hashed AS (
  SELECT tok, c, i,
         CAST(('0x' || substr(md5(tok), i*8 + 1, 8)) AS UBIGINT) % {_CM_WIDTH} AS col
  FROM tc CROSS JOIN range(0, {_CM_DEPTH}) AS r(i)
), counters AS (
  SELECT i, col, sum(c) AS total FROM hashed GROUP BY i, col
), ests AS (
  SELECT h.tok, min(ct.total) AS approx_count
  FROM hashed h JOIN counters ct ON ct.i = h.i AND ct.col = h.col
  GROUP BY h.tok
)
SELECT tok, CAST(approx_count AS BIGINT) AS approx_count FROM ests
ORDER BY approx_count DESC, tok LIMIT {_CM_K}
"""


# ---------------------------------------------------------------------------
# multimodal featurize: the task-mapped decode+feature stage over the
# deterministic fake codec.  Payload samples are the text's utf-8 bytes
# tiled to size (ASCII corpus -> byte == code point), so the 16-dim
# feature vectors (luma histogram / frame-energy windows / sampled frame
# means) are exact rational arithmetic SQL reproduces bit-for-bit;
# features explode to (media_id, media_type, dim, value) rows.
# ---------------------------------------------------------------------------
def _explode_features(batch: pa.Table) -> pa.Table:
    """(media_id, media_type, features list<double>) -> one row per dim.

    Fully vectorized: list_flatten is zero-copy, the id/type columns
    repeat by list length, and dim = global position minus the row's
    flat offset (handles ragged lengths, though every featurizer emits
    exactly N_BINS)."""
    feats = batch["features"].combine_chunks()
    flat = pc.list_flatten(feats)
    lens = pc.list_value_length(feats).to_numpy().astype(np.int64)
    offsets = np.cumsum(lens) - lens
    dims = np.arange(int(lens.sum()), dtype=np.int64) - np.repeat(offsets, lens)
    row_idx = pa.array(np.repeat(np.arange(len(batch)), lens))
    return pa.table(
        {
            "media_id": batch["media_id"].take(row_idx),
            "media_type": batch["media_type"].take(row_idx),
            "dim": pa.array(dims, type=pa.int64()),
            "value": pc.cast(flat, pa.float64()),
        }
    )


def q_multimodal_features(sf_dir: str):
    from ..stages.multimodal import featurize_media, media_from_text_batch

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    media = docs.map_batches(media_from_text_batch, batch_format="pyarrow")
    feats = featurize_media(media, batch_size=64)

    return feats.map_batches(_explode_features, batch_format="pyarrow")


SQL_MULTIMODAL_FEATURES = """
WITH b AS (
  SELECT doc_id, CAST(doc_id AS VARCHAR) AS media_id,
         CASE doc_id % 3 WHEN 0 THEN 'image' WHEN 1 THEN 'audio' ELSE 'video' END
           AS media_type,
         list_transform(range(1, length(text) + 1),
                        i -> unicode(substr(text, CAST(i AS INT), 1))) AS bts,
         length(text) AS m
  FROM documents
), dims(dim) AS (SELECT unnest(range(0, 16))),
img AS (
  SELECT doc_id, CAST(floor(((bts[CAST((3*j) % m AS INT) + 1]
                            + bts[CAST((3*j + 1) % m AS INT) + 1]
                            + bts[CAST((3*j + 2) % m AS INT) + 1]) / 3.0) / 16) AS INT)
           AS bin
  FROM b, unnest(range(0, 256)) AS t(j) WHERE doc_id % 3 = 0
), imgc AS (
  SELECT doc_id, bin, count(*) AS c FROM img GROUP BY doc_id, bin
), imgf AS (
  SELECT b.media_id, b.media_type, d.dim, coalesce(ic.c, 0) / 256.0 AS value
  FROM b CROSS JOIN dims d
  LEFT JOIN imgc ic ON ic.doc_id = b.doc_id AND ic.bin = d.dim
  WHERE b.doc_id % 3 = 0
), audf AS (
  SELECT media_id, media_type, CAST(j // 128 AS INT) AS dim,
         sum(bts[CAST(j % m AS INT) + 1]) / 128.0 / 255.0 AS value
  FROM b, unnest(range(0, 2048)) AS t(j) WHERE doc_id % 3 = 1
  GROUP BY media_id, media_type, j // 128
), vidm AS (
  -- frame stride 2: dim i = mean of frame 2i, the first 256 bytes of
  -- each 512-byte pair; dims 4..15 are zero padding
  SELECT media_id, media_type, CAST(j // 512 AS INT) AS dim,
         sum(bts[CAST(j % m AS INT) + 1]) / 256.0 / 255.0 AS value
  FROM b, unnest(range(0, 2048)) AS t(j)
  WHERE doc_id % 3 = 2 AND j % 512 < 256
  GROUP BY media_id, media_type, j // 512
), vidf AS (
  SELECT b.media_id, b.media_type, d.dim, coalesce(v.value, 0.0) AS value
  FROM b CROSS JOIN dims d
  LEFT JOIN vidm v ON v.media_id = b.media_id AND v.dim = d.dim
  WHERE b.doc_id % 3 = 2
)
SELECT media_id, media_type, CAST(dim AS BIGINT) AS dim, value FROM imgf
UNION ALL SELECT media_id, media_type, CAST(dim AS BIGINT), value FROM audf
UNION ALL SELECT media_id, media_type, CAST(dim AS BIGINT), value FROM vidf
"""


def q_multimodal_preprocessed(sf_dir: str):
    """M2/M3 in the chain: decode -> grayscale/box-blur/percentile
    contrast/deskew -> featurize (all plain task maps).  The oracle
    replays the image kernels in SQL — ITU-R 601 luma, 3x3 edge-padded
    blur with the engine's exact summation order, numpy's two-sided
    percentile lerp, the (x-lo)*(255/(hi-lo)) stretch, and
    round-half-even — bit-for-bit; audio/video rows pass through
    untouched (deskew is a no-op on the synthetic payloads: the skew
    estimator is the marked cv2 seam)."""
    from ..stages.multimodal import (
        featurize_media,
        media_from_text_batch,
        preprocess_media,
    )

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    media = docs.map_batches(media_from_text_batch, batch_format="pyarrow")
    feats = featurize_media(preprocess_media(media, batch_size=64), batch_size=64)

    return feats.map_batches(_explode_features, batch_format="pyarrow")


SQL_MULTIMODAL_PREPROCESSED = """
WITH b AS (
  SELECT doc_id, CAST(doc_id AS VARCHAR) AS media_id,
         CASE doc_id % 3 WHEN 0 THEN 'image' WHEN 1 THEN 'audio' ELSE 'video' END
           AS media_type,
         list_transform(range(1, length(text) + 1),
                        i -> unicode(substr(text, CAST(i AS INT), 1))) AS bts,
         length(text) AS m
  FROM documents
), dims(dim) AS (SELECT unnest(range(0, 16))),
lum AS (
  SELECT doc_id, media_id,
         list_transform(range(0, 256), j ->
            bts[CAST((3*j) % m AS INT) + 1] * 0.299
          + bts[CAST((3*j + 1) % m AS INT) + 1] * 0.587
          + bts[CAST((3*j + 2) % m AS INT) + 1] * 0.114) AS L
  FROM b WHERE doc_id % 3 = 0
), blur AS (
  -- 3x3 edge-padded box blur; term order matches the engine's di-major
  -- Python sum (double addition is order-sensitive)
  SELECT doc_id, media_id,
         list_transform(range(0, 256), j ->
           ( L[greatest(0, (j // 16) - 1) * 16 + greatest(0, (j % 16) - 1) + 1]
           + L[greatest(0, (j // 16) - 1) * 16 + (j % 16) + 1]
           + L[greatest(0, (j // 16) - 1) * 16 + least(15, (j % 16) + 1) + 1]
           + L[(j // 16) * 16 + greatest(0, (j % 16) - 1) + 1]
           + L[(j // 16) * 16 + (j % 16) + 1]
           + L[(j // 16) * 16 + least(15, (j % 16) + 1) + 1]
           + L[least(15, (j // 16) + 1) * 16 + greatest(0, (j % 16) - 1) + 1]
           + L[least(15, (j // 16) + 1) * 16 + (j % 16) + 1]
           + L[least(15, (j // 16) + 1) * 16 + least(15, (j % 16) + 1) + 1]
           ) / 9.0) AS G
  FROM lum
), pct AS (
  SELECT doc_id, media_id, G, list_sort(G) AS S,
         floor(0.02 * 255) AS flo, 0.02 * 255 - floor(0.02 * 255) AS tlo,
         floor(0.98 * 255) AS fhi, 0.98 * 255 - floor(0.98 * 255) AS thi
  FROM blur
), lim AS (
  -- numpy _lerp: a + t*(b-a) for t < 0.5, b - (1-t)*(b-a) otherwise
  SELECT doc_id, media_id, G,
         CASE WHEN tlo >= 0.5
              THEN S[CAST(flo AS INT) + 2] - (S[CAST(flo AS INT) + 2] - S[CAST(flo AS INT) + 1]) * (1 - tlo)
              ELSE S[CAST(flo AS INT) + 1] + (S[CAST(flo AS INT) + 2] - S[CAST(flo AS INT) + 1]) * tlo END AS lo,
         CASE WHEN thi >= 0.5
              THEN S[CAST(fhi AS INT) + 2] - (S[CAST(fhi AS INT) + 2] - S[CAST(fhi AS INT) + 1]) * (1 - thi)
              ELSE S[CAST(fhi AS INT) + 1] + (S[CAST(fhi AS INT) + 2] - S[CAST(fhi AS INT) + 1]) * thi END AS hi
  FROM pct
), stretched AS (
  SELECT doc_id, media_id,
         list_transform(G, x -> CASE WHEN hi <= lo THEN x
            ELSE least(greatest((x - lo) * (255.0 / (hi - lo)), 0), 255) END) AS P
  FROM lim
), pix AS (
  -- np.rint: round half to even
  SELECT doc_id, media_id,
         CASE WHEN x - floor(x) > 0.5 THEN floor(x) + 1
              WHEN x - floor(x) < 0.5 THEN floor(x)
              WHEN CAST(floor(x) AS BIGINT) % 2 = 0 THEN floor(x)
              ELSE floor(x) + 1 END AS v
  FROM stretched, unnest(P) AS t(x)
), binc AS (
  SELECT doc_id, CAST(v AS INT) // 16 AS bin, count(*) AS c
  FROM pix GROUP BY doc_id, CAST(v AS INT) // 16
), imgf AS (
  SELECT b.media_id, b.media_type, d.dim, coalesce(bn.c, 0) / 256.0 AS value
  FROM b CROSS JOIN dims d
  LEFT JOIN binc bn ON bn.doc_id = b.doc_id AND bn.bin = d.dim
  WHERE b.doc_id % 3 = 0
), audf AS (
  SELECT media_id, media_type, CAST(j // 128 AS INT) AS dim,
         sum(bts[CAST(j % m AS INT) + 1]) / 128.0 / 255.0 AS value
  FROM b, unnest(range(0, 2048)) AS t(j) WHERE doc_id % 3 = 1
  GROUP BY media_id, media_type, j // 128
), vidm AS (
  SELECT media_id, media_type, CAST(j // 512 AS INT) AS dim,
         sum(bts[CAST(j % m AS INT) + 1]) / 256.0 / 255.0 AS value
  FROM b, unnest(range(0, 2048)) AS t(j)
  WHERE doc_id % 3 = 2 AND j % 512 < 256
  GROUP BY media_id, media_type, j // 512
), vidf AS (
  SELECT b.media_id, b.media_type, d.dim, coalesce(v.value, 0.0) AS value
  FROM b CROSS JOIN dims d
  LEFT JOIN vidm v ON v.media_id = b.media_id AND v.dim = d.dim
  WHERE b.doc_id % 3 = 2
)
SELECT media_id, media_type, CAST(dim AS BIGINT) AS dim, value FROM imgf
UNION ALL SELECT media_id, media_type, CAST(dim AS BIGINT), value FROM audf
UNION ALL SELECT media_id, media_type, CAST(dim AS BIGINT), value FROM vidf
"""


# ---------------------------------------------------------------------------
# embedding near-dup, LSH scale path: the SAME seeded hyperplanes the
# engine draws are inlined as double literals, so the oracle reproduces
# the bucket keys (sign of raw-embedding x plane dots) and verifies
# in-bucket cosine >= threshold; a pair only needs one of the 8 tables.
# ---------------------------------------------------------------------------
_EDL_THRESHOLD = 0.45
_EDL_PLANES = 6
_EDL_TABLES = 8
_EDL_SEED = 11


def q_embedding_dup_lsh(sf_dir: str):
    from ..stages.dedup import embedding_dup_pairs

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    pairs = _schema_stable_pairs(
        embedding_dup_pairs(
            ds,
            threshold=_EDL_THRESHOLD,
            n_planes=_EDL_PLANES,
            n_tables=_EDL_TABLES,
            seed=_EDL_SEED,
        ),
        {"vec_a": "int64", "vec_b": "int64", "cosine": "float64"},
    )
    pairs["cosine"] = pairs["cosine"].round(6)
    return pairs


def _sql_embedding_dup_lsh() -> str:
    dim = 64  # driver embeddings are 64-dim
    planes = np.random.RandomState(_EDL_SEED).normal(
        size=(_EDL_TABLES, _EDL_PLANES, dim)
    )
    key_exprs = []
    for t in range(_EDL_TABLES):
        bits = " + ".join(
            f"(CASE WHEN list_dot_product(v, {[float(x) for x in planes[t][b]]}) > 0 "
            f"THEN {1 << b} ELSE 0 END)"
            for b in range(_EDL_PLANES)
        )
        key_exprs.append(f"({bits} + {t << _EDL_PLANES})")
    keys = ", ".join(key_exprs)
    return f"""
WITH u AS (
  SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings
), keyed AS (
  SELECT vec_id, v, [{keys}] AS ks FROM u
)
SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
       round(list_cosine_similarity(a.v, b.v), 6) AS cosine
FROM keyed a JOIN keyed b ON a.vec_id < b.vec_id
WHERE len(list_intersect(a.ks, b.ks)) > 0
  AND list_cosine_similarity(a.v, b.v) >= {_EDL_THRESHOLD}
"""


SQL_EMBEDDING_DUP_LSH = _sql_embedding_dup_lsh()


# ---------------------------------------------------------------------------
# SemDeDup (Abbas et al. 2023): cluster embeddings, drop within-cluster
# semantic duplicates, keep the deduplicated corpus.  Centroids = the
# n_clusters smallest vec_ids (zero Lloyd iterations — the oracle-safe
# init; see stages/dedup.semdedup for the deviation notes); a vector is
# dropped iff an earlier-vec_id vector in its cluster has cosine >=
# threshold.  Threshold matches the LSH family's 0.45 (margin-probed:
# min |sim - thr| >= 1.4e-4 and min argmax gap >= 4.7e-5 across all
# three test scales, so numpy-vs-DuckDB last-ulp noise cannot flip a
# decision).
# ---------------------------------------------------------------------------
_SEMDEDUP_K = 8
_SEMDEDUP_THRESHOLD = 0.45


def q_semdedup(sf_dir: str):
    from ..stages.dedup import semdedup

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = semdedup(
        ds, n_clusters=_SEMDEDUP_K, threshold=_SEMDEDUP_THRESHOLD
    )
    return _schema_stable_pairs(
        out, {"vec_id": "int64", "cluster_id": "int64"}
    )


SQL_SEMDEDUP = f"""
WITH u AS (
  SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings
),
cent AS (
  SELECT CAST(row_number() OVER (ORDER BY vec_id) - 1 AS BIGINT) AS cid, v
  FROM u ORDER BY vec_id LIMIT {_SEMDEDUP_K}
),
scored AS (
  SELECT u.vec_id, u.v, c.cid, list_cosine_similarity(u.v, c.v) AS cs
  FROM u CROSS JOIN cent c
),
a AS (
  SELECT vec_id, v, cid FROM (
    SELECT vec_id, v, cid,
           row_number() OVER (PARTITION BY vec_id
                              ORDER BY cs DESC, cid) AS rk
    FROM scored
  ) WHERE rk = 1
)
SELECT x.vec_id, x.cid AS cluster_id
FROM a x
WHERE NOT EXISTS (
  SELECT 1 FROM a y
  WHERE y.cid = x.cid AND y.vec_id < x.vec_id
    AND list_cosine_similarity(x.v, y.v) >= {_SEMDEDUP_THRESHOLD}
)
"""


# ---------------------------------------------------------------------------
# PII redaction (curation): deterministic PII is planted from doc_id so the
# redaction path actually fires on the synthetic word-soup corpus; the SQL
# oracle plants the identical strings and replays the same RE2-compatible
# patterns via regexp_replace.  Counts are per-kind detections on the
# PRE-redaction text (independent scans); the redacted text applies the
# patterns sequentially (functions/pii.py order).
# ---------------------------------------------------------------------------
def q_pii_redact(sf_dir: str):
    from ..functions.pii import PII_PATTERNS

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def body(batch: pa.Table) -> pd.DataFrame:
        df = batch.to_pandas()
        did = df["doc_id"]
        ids = did.astype(str)
        aug = df["text"].copy()
        aug = aug.where(did % 3 != 0, aug + " mail u" + ids + "@ex-" + ids + ".org")
        aug = aug.where(
            did % 4 != 1,
            aug + " tel 555-123-" + (4000 + did % 1000).astype(str),
        )
        aug = aug.where(
            did % 5 != 2,
            aug
            + " id "
            + (100 + did % 900).astype(str)
            + "-"
            + (10 + did % 90).astype(str)
            + "-"
            + (1000 + did % 9000).astype(str),
        )
        aug = aug.where(
            did % 7 != 3, aug + " card " + (4000000000000000 + did).astype(str)
        )
        from ..functions.pii import PII_RE_FLAGS

        out = pd.DataFrame({"doc_id": did})
        red = aug
        for kind, pat, tok in PII_PATTERNS:
            out[f"n_{kind}"] = aug.str.count(pat, flags=PII_RE_FLAGS).astype(
                "int64"
            )
            red = red.str.replace(pat, tok, regex=True, flags=PII_RE_FLAGS)
        out["redacted"] = red
        return out

    return ds.map_batches(body, batch_format="pyarrow")


def _sql_pii() -> str:
    from ..functions.pii import PII_PATTERNS

    aug = """text
    || CASE WHEN doc_id % 3 = 0
            THEN ' mail u' || doc_id || '@ex-' || doc_id || '.org' ELSE '' END
    || CASE WHEN doc_id % 4 = 1
            THEN ' tel 555-123-' || (4000 + doc_id % 1000) ELSE '' END
    || CASE WHEN doc_id % 5 = 2
            THEN ' id ' || (100 + doc_id % 900) || '-' || (10 + doc_id % 90)
                 || '-' || (1000 + doc_id % 9000) ELSE '' END
    || CASE WHEN doc_id % 7 = 3
            THEN ' card ' || (4000000000000000 + doc_id) ELSE '' END"""
    red = "aug"
    counts = []
    for kind, pat, tok in PII_PATTERNS:
        counts.append(
            f"CAST(length(regexp_extract_all(aug, '{pat}')) AS BIGINT) AS n_{kind}"
        )
        red = f"regexp_replace({red}, '{pat}', '{tok}', 'g')"
    return f"""
WITH a AS (SELECT doc_id, {aug} AS aug FROM documents)
SELECT doc_id, {', '.join(counts)}, {red} AS redacted
FROM a
"""


SQL_PII_REDACT = _sql_pii()


# ---------------------------------------------------------------------------
# TF-IDF top-k terms per document + inverted index — the searchable-text
# analysis pair over the open token vocabulary.  Both share the
# (doc_id, token, tf) pair table: batch-local tokenize+count, then ONE
# bucketed shuffle on token (df / postings are per-token), and for tf-idf
# a second bucketed shuffle on doc_id for the per-doc top-k.  No driver
# materialization; token cardinality never meets Python per-group
# machinery (stages/bucketed.py).
# ---------------------------------------------------------------------------
def _tf_pairs(ds):
    """(doc_id, kw, tf) — batch-local; a doc's tokens live in one row."""
    from collections import Counter

    from ..functions.tokenize import keyword_candidates

    def body(batch: pa.Table) -> pd.DataFrame:
        dids, kws, tfs = [], [], []
        for did, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            for kw, tf in Counter(keyword_candidates(text)).items():
                dids.append(did)
                kws.append(kw)
                tfs.append(tf)
        return pd.DataFrame(
            {
                "doc_id": pd.Series(dids, dtype="int64"),
                "kw": pd.Series(kws, dtype="object"),
                "tf": pd.Series(tfs, dtype="int64"),
            }
        )

    return ds.map_batches(body, batch_format="pyarrow")


_TFIDF_K = 5


def _df_table(pairs):
    """(doc_id, kw, tf) -> one (kw, df) row per token, SKEW-FREE.

    df partials are mergeable: within a batch each doc-token appears
    once, so per-batch `groupby(kw).size` rows sum to the global df.  A
    stopword present in every document contributes ONE partial row per
    batch to the shuffle instead of one row per document — hot tokens
    never collocate their raw rows (the 100-TB hazard of computing df by
    grouping the pair table directly)."""
    from ..stages.bucketed import bucketed_map_groups

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch.groupby("kw", as_index=False).agg(df=("doc_id", "size"))
        out["df"] = out["df"].astype("int64")
        return out

    def merge_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        out = bucket.groupby("kw", as_index=False)["df"].sum()
        out["df"] = out["df"].astype("int64")
        return out

    return bucketed_map_groups(
        pairs.map_batches(partial, batch_format="pandas"),
        "kw",
        merge_bucket,
        n_buckets=32,
    )


def q_tfidf_topk(sf_dir: str):
    from ..stages.bucketed import bucketed_map_groups, size_routed_join

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    n_docs = ds.count()  # parquet metadata count — no pipeline execution
    pairs = _tf_pairs(ds).materialize()  # consumed by df partials + scoring

    # the df table is one SCALAR per token: under the broadcast cap the
    # df attach is a shuffle-free map; only an oversized vocabulary pays
    # the token co-partition (which collocates a hot token's pair rows)
    def add_score(batch: pd.DataFrame) -> pd.DataFrame:
        batch["tfidf"] = batch["tf"] * np.log(n_docs / batch["df"])
        return batch

    scored = size_routed_join(pairs, _df_table(pairs), "kw").map_batches(
        add_score, batch_format="pandas"
    )

    def topk(bucket: pd.DataFrame) -> pd.DataFrame:
        bucket = bucket.sort_values(
            ["doc_id", "tfidf", "kw"], ascending=[True, False, True]
        )
        bucket["rk"] = (bucket.groupby("doc_id").cumcount() + 1).astype("int64")
        out = bucket[bucket["rk"] <= _TFIDF_K].rename(columns={"kw": "token"})
        out["df"] = out["df"].astype("int64")
        return out.reset_index(drop=True)

    return bucketed_map_groups(scored, "doc_id", topk, n_buckets=32)


SQL_TFIDF_TOPK = f"""
WITH toks AS (
  SELECT doc_id, unnest(regexp_extract_all(text, '[A-Za-z0-9]+')) AS kw
  FROM documents
), tf AS (
  SELECT doc_id, kw, count(*) AS tf
  FROM toks
  WHERE length(kw) >= 2 AND NOT regexp_full_match(kw, '[0-9]+')
  GROUP BY doc_id, kw
), df AS (
  SELECT kw, count(*) AS df FROM tf GROUP BY kw
), n AS (SELECT count(*) AS n FROM documents),
scored AS (
  SELECT t.doc_id, t.kw AS token, t.tf, d.df,
         t.tf * ln(CAST(n.n AS DOUBLE) / d.df) AS tfidf
  FROM tf t JOIN df d ON t.kw = d.kw CROSS JOIN n
), ranked AS (
  SELECT *, row_number() OVER (
    PARTITION BY doc_id ORDER BY tfidf DESC, token) AS rk
  FROM scored
)
SELECT doc_id, token, CAST(tf AS BIGINT) AS tf, CAST(df AS BIGINT) AS df,
       tfidf, CAST(rk AS BIGINT) AS rk
FROM ranked WHERE rk <= {_TFIDF_K}
"""


_INVIDX_MIN_DF = 5
_INVIDX_POSTINGS = 10


def q_inverted_index(sf_dir: str):
    """token -> (df, total_tf, first-10 postings) via MERGEABLE partials:
    each batch pre-aggregates one (kw, df_part, tf_part, candidate-ids)
    row per token — candidates are the batch's 10 smallest doc_ids, and
    the global first-10 is a merge of per-batch first-10s — so a
    stopword ships one bounded row per batch through the shuffle, never
    its raw per-doc rows (same skew-free shape as `_df_table`)."""
    from ..stages.bucketed import bucketed_map_groups

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    pairs = _tf_pairs(ds)

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.sort_values(["kw", "doc_id"])
        head = batch[batch.groupby("kw").cumcount() < _INVIDX_POSTINGS]
        cand = head.groupby("kw")["doc_id"].agg(list)
        out = batch.groupby("kw", as_index=False).agg(
            df=("doc_id", "size"), total_tf=("tf", "sum")
        )
        out["cand"] = out["kw"].map(cand)
        out["df"] = out["df"].astype("int64")
        out["total_tf"] = out["total_tf"].astype("int64")
        return out

    def merge_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        out = bucket.groupby("kw", as_index=False).agg(
            df=("df", "sum"), total_tf=("total_tf", "sum")
        )
        out = out[out["df"] >= _INVIDX_MIN_DF]
        if out.empty:
            return pd.DataFrame(
                {
                    "token": pd.Series([], dtype="object"),
                    "df": pd.Series([], dtype="int64"),
                    "total_tf": pd.Series([], dtype="int64"),
                    "postings": pd.Series([], dtype="object"),
                }
            )
        # candidate merge vectorized: explode the per-batch first-10
        # lists, one global sort + cumcount truncation (no per-token
        # Python except the final, unavoidable string join)
        ex = bucket[["kw", "cand"]].explode("cand")
        ex = ex[ex["kw"].isin(out["kw"])]
        ex["cand"] = ex["cand"].astype("int64")
        ex = ex.sort_values(["kw", "cand"], kind="mergesort")
        ex = ex[ex.groupby("kw").cumcount() < _INVIDX_POSTINGS]
        posts = ex["cand"].astype(str).groupby(ex["kw"]).agg(",".join)
        out["postings"] = out["kw"].map(posts)
        out = out.rename(columns={"kw": "token"})
        out["df"] = out["df"].astype("int64")
        out["total_tf"] = out["total_tf"].astype("int64")
        return out.reset_index(drop=True)

    return bucketed_map_groups(
        pairs.map_batches(partial, batch_format="pandas"),
        "kw",
        merge_bucket,
        n_buckets=64,
    )


SQL_INVERTED_INDEX = f"""
WITH toks AS (
  SELECT doc_id, unnest(regexp_extract_all(text, '[A-Za-z0-9]+')) AS kw
  FROM documents
), tf AS (
  SELECT doc_id, kw, count(*) AS tf
  FROM toks
  WHERE length(kw) >= 2 AND NOT regexp_full_match(kw, '[0-9]+')
  GROUP BY doc_id, kw
)
SELECT kw AS token, CAST(count(*) AS BIGINT) AS df,
       CAST(sum(tf) AS BIGINT) AS total_tf,
       array_to_string((list(doc_id ORDER BY doc_id))[1:{_INVIDX_POSTINGS}], ',')
         AS postings
FROM tf GROUP BY kw HAVING count(*) >= {_INVIDX_MIN_DF}
"""


# ---------------------------------------------------------------------------
# mergeable fixed-bin histogram over events.value — the third mergeable
# sketch beside HLL and Count-Min: fixed 20x25.0 bins with edge clamp,
# batch-local np.bincount partials (20 rows per batch regardless of batch
# size), driver reduce of the bounded partial table (same shape as
# token_stats / the sketch family).
# ---------------------------------------------------------------------------
_HIST_BINS = 20
_HIST_WIDTH = 25.0


def q_value_histogram(sf_dir: str):
    ds = _read(sf_dir, "events", ["value"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        v = batch["value"].to_numpy(zero_copy_only=False)
        # null/NaN/±inf rows are EXCLUDED — the oracle mirrors this with
        # WHERE isfinite(value) — and the clamp happens in FLOAT space:
        # casting first would turn NaN/overflow into INT64_MIN and
        # silently count garbage in bin 0
        v = v[np.isfinite(v)]
        b = np.clip(v // _HIST_WIDTH, 0, _HIST_BINS - 1).astype(np.int64)
        return pd.DataFrame(
            {
                "bin": np.arange(_HIST_BINS, dtype=np.int64),
                "n": np.bincount(b, minlength=_HIST_BINS).astype(np.int64),
            }
        )

    merged = (
        ds.map_batches(partial, batch_format="pyarrow")
        .to_pandas()
        .groupby("bin", as_index=False)["n"]
        .sum()
    )
    merged["lo"] = merged["bin"] * _HIST_WIDTH
    merged["hi"] = (merged["bin"] + 1) * _HIST_WIDTH
    merged["n"] = merged["n"].astype("int64")
    return merged[["bin", "lo", "hi", "n"]]


SQL_VALUE_HISTOGRAM = f"""
WITH b AS (
  SELECT least(greatest(CAST(floor(value / {_HIST_WIDTH}) AS BIGINT), 0),
               {_HIST_BINS - 1}) AS bin
  FROM events WHERE isfinite(value)
), g AS (SELECT bin, count(*) AS n FROM b GROUP BY bin),
d AS (SELECT unnest(range(0, {_HIST_BINS})) AS bin)
SELECT d.bin, d.bin * {_HIST_WIDTH} AS lo, (d.bin + 1) * {_HIST_WIDTH} AS hi,
       coalesce(g.n, 0) AS n
FROM d LEFT JOIN g USING (bin)
"""


# ---------------------------------------------------------------------------
# BPE-style subword token counting — the per-doc token-budget estimate a
# training pipeline needs before packing.  The pre-tokenizer is the
# GPT-2 split rule restricted to the RE2∩`re` subset (no lookahead):
# contractions | space?+letters | space?+digits | space?+punct-run |
# whitespace-run — so Python `re` and DuckDB regexp_extract_all count
# identical tokens.  Whitespace is an EXPLICIT char class (never `\s`,
# whose definition differs between Unicode-default `re` and RE2), and
# token classification full-matches that class rather than using
# Python's Unicode `str.isspace`.  Whitespace tokens are counted
# separately (they vanish after BPE merges; the brief's "whitespace +
# BPE-ish regex").
# ---------------------------------------------------------------------------
_WS_CLASS = r"[ \t\n\r\f\v]"
_SUBWORD_RE_SRC = (
    r"'(?:s|t|re|ve|m|ll|d)| ?[A-Za-z]+| ?[0-9]+"
    r"| ?[^A-Za-z0-9 \t\n\r\f\v']+|" + _WS_CLASS + "+"
)
_SUBWORD_RE = re.compile(_SUBWORD_RE_SRC, re.ASCII)
_WS_RUN_RE = re.compile(_WS_CLASS + r"+\Z", re.ASCII)


def q_subword_token_stats(sf_dir: str):
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def body(batch: pa.Table) -> pd.DataFrame:
        dids = batch["doc_id"].to_pandas()
        n_sub, n_ws = [], []
        for text in batch["text"].to_pylist():
            toks = _SUBWORD_RE.findall(text)
            ws = sum(1 for t in toks if _WS_RUN_RE.match(t))
            n_sub.append(len(toks) - ws)
            n_ws.append(ws)
        return pd.DataFrame(
            {
                "doc_id": dids,
                "n_subword_tokens": pd.Series(n_sub, dtype="int64"),
                "n_ws_tokens": pd.Series(n_ws, dtype="int64"),
            }
        )

    return ds.map_batches(body, batch_format="pyarrow")


SQL_SUBWORD_TOKEN_STATS = f"""
WITH toks AS (
  SELECT doc_id,
         unnest(regexp_extract_all(text, '{_SUBWORD_RE_SRC.replace("'", "''")}')) AS t
  FROM documents
), counts AS (
  SELECT doc_id,
         CAST(count(*) FILTER (
           WHERE NOT regexp_full_match(t, '{_WS_CLASS}+')) AS BIGINT)
           AS n_subword_tokens,
         CAST(count(*) FILTER (
           WHERE regexp_full_match(t, '{_WS_CLASS}+')) AS BIGINT)
           AS n_ws_tokens
  FROM toks GROUP BY doc_id
)
-- LEFT JOIN back to documents: a zero-token doc (empty text) produces
-- no unnest rows, but the engine still emits its (doc_id, 0, 0) row
SELECT d.doc_id,
       coalesce(c.n_subword_tokens, 0) AS n_subword_tokens,
       coalesce(c.n_ws_tokens, 0) AS n_ws_tokens
FROM documents d LEFT JOIN counts c ON d.doc_id = c.doc_id
"""


# ---------------------------------------------------------------------------
# BPE merge-candidate pair counts — the inner loop of byte-pair-encoding
# tokenizer training (Sennrich et al. 2016): every word becomes a symbol
# sequence (chars + an end-of-word marker), adjacent-symbol pairs are
# counted corpus-wide, and the top pair is the next merge.  The corpus
# pass is map-only with BOUNDED mergeable partials — one (s1, s2, count)
# row per distinct pair per batch, cardinality <= |symbol vocab|^2
# regardless of corpus size or skew — reduced on the driver, so tokenizer
# training streams a 100 TB corpus with no shuffle at all.
# ``merge_iters`` makes it the real iterated trainer (per round: argmax
# pair -> append merge -> one more counting pass with merges applied;
# every pass walks each batch's UNIQUE words weighted by multiplicity,
# so symbolize + merge-apply + pair counting are all O(unique-word
# chars) per batch, not O(total chars)).
# ``bpe_train`` is the EXPOSED oracled trainer: it runs _BPE_MERGES real
# merge rounds and returns the learned merge table itself
# (rank, s1, s2, pair_count-at-selection).  The SQL oracle replays the
# FULL training loop: greedy left-to-right merge application is
# equivalent to repeatedly replacing the LEFTMOST occurrence (a merged
# symbol is strictly longer than its parts, so a replacement can never
# create a new occurrence of its own pattern to the left), which a
# recursive CTE over separator-joined symbol strings expresses exactly —
# see _sql_bpe_train.  ``bpe_pair_counts`` (the zero-merge special case)
# rotated to the local mirror when bpe_train took the window slot.
# ---------------------------------------------------------------------------
_BPE_EOW = "</w>"
_BPE_TOPK = 30


def _bpe_apply_merges(symbols: list, merges: list) -> list:
    """Apply merges in training order, each greedily left-to-right (the
    standard BPE apply rule)."""
    for a, b in merges:
        out, i, n = [], 0, len(symbols)
        while i < n:
            if i + 1 < n and symbols[i] == a and symbols[i + 1] == b:
                out.append(a + b)
                i += 2
            else:
                out.append(symbols[i])
                i += 1
        symbols = out
    return symbols


def _bpe_count_pass(ds, merges: list) -> pd.DataFrame:
    """One corpus pass: reduced (s1, s2, c) adjacent-pair counts with
    ``merges`` applied — map-only bounded partials, driver reduce."""
    merges = list(merges)

    def body(batch: pa.Table) -> pd.DataFrame:
        # count word multiplicities first (vectorized: Arrow split +
        # value_counts, no per-row Python), then walk each UNIQUE word
        # once with its count as the pair weight — pairs never cross
        # word boundaries, so this is exactly per-occurrence counting,
        # but the whole pass (symbolize + merge-apply + pair walk) is
        # O(unique-word chars), not O(total chars): the regime that
        # matters when the top words repeat millions of times in an
        # open-web batch
        words = pc.list_flatten(
            pc.split_pattern(batch["text"], pattern=" ")
        )
        vc = words.value_counts()
        word_counts = {
            w: c
            for w, c in zip(
                vc.field("values").to_pylist(),
                vc.field("counts").to_pylist(),
            )
            if w
        }
        pair_counts: dict = {}
        for w, wc in word_counts.items():
            syms = list(w) + [_BPE_EOW]
            if merges:
                syms = _bpe_apply_merges(syms, merges)
            for p in zip(syms, syms[1:]):
                pair_counts[p] = pair_counts.get(p, 0) + wc
        return pd.DataFrame(
            {
                "s1": [k[0] for k in pair_counts],
                "s2": [k[1] for k in pair_counts],
                "c": pd.Series(list(pair_counts.values()), dtype="int64"),
            }
        )

    parts = ds.map_batches(body, batch_format="pyarrow").to_pandas()
    if "s1" not in parts.columns:
        # all batches empty (every word already one symbol): Ray drops
        # the schema of an all-empty dataset — rebuild it
        return pd.DataFrame(
            {"s1": [], "s2": [], "c": pd.Series([], dtype="int64")}
        )
    return parts.groupby(["s1", "s2"], as_index=False)["c"].sum()


def _bpe_learn(ds, n_merges: int) -> list:
    """The BPE training loop: ``n_merges`` rounds of one count pass, the
    argmax pair by (count desc, s1, s2), and the merge appended for the
    next pass; stops early when no pair is left.  -> the merge table
    [(s1, s2, pair_count at selection)]."""
    table: list = []
    for _ in range(n_merges):
        counts = _bpe_count_pass(ds, [m[:2] for m in table])
        if counts.empty:
            break
        best = counts.sort_values(
            ["c", "s1", "s2"], ascending=[False, True, True]
        ).iloc[0]
        table.append((best["s1"], best["s2"], int(best["c"])))
    return table


def q_bpe_pair_counts(
    sf_dir: str, merge_iters: int = 0, topk: int = _BPE_TOPK
):
    ds = _read(sf_dir, "documents", ["text"])
    merges = [m[:2] for m in _bpe_learn(ds, merge_iters)]
    counts = _bpe_count_pass(ds, merges)
    out = counts.sort_values(
        ["c", "s1", "s2"], ascending=[False, True, True]
    ).head(topk)
    return pd.DataFrame(
        {
            "s1": out["s1"].to_numpy(),
            "s2": out["s2"].to_numpy(),
            "pair_count": out["c"].astype("int64").to_numpy(),
        }
    )


SQL_BPE_PAIR_COUNTS = f"""
WITH words AS (
  SELECT unnest(regexp_extract_all(text, '[^ ]+')) AS w FROM documents
), pairs AS (
  SELECT substr(w, i, 1) AS s1, substr(w, i + 1, 1) AS s2
  FROM words, unnest(range(1, len(w))) AS t(i)
  UNION ALL
  SELECT substr(w, len(w), 1) AS s1, '{_BPE_EOW}' AS s2 FROM words
)
SELECT s1, s2, CAST(count(*) AS BIGINT) AS pair_count
FROM pairs GROUP BY s1, s2
ORDER BY pair_count DESC, s1, s2
LIMIT {_BPE_TOPK}
"""


_BPE_MERGES = 6
# symbol separator for the SQL replay's joined sequences: unit separator
# (0x1F) — cannot collide with corpus characters (asserted in the Ray
# path) nor with the EOW marker, and merged symbols never contain it
_BPE_SEP = "\x1f"


def q_bpe_train(sf_dir: str, n_merges: int = _BPE_MERGES) -> pd.DataFrame:
    """Full BPE tokenizer training (Sennrich et al. 2016): ``n_merges``
    real merge rounds, returning the learned merge table
    (rank, s1, s2, pair_count at selection time).

    Per round (``_bpe_learn``): one map-only corpus pass emits bounded
    (s1, s2, count) partials (<= |vocab|^2 rows per batch regardless of
    corpus size), the driver reduces and argmaxes with the (count desc,
    s1, s2) tie-break, and the appended merge rides into the next pass via the
    broadcast closure.  Driver state is O(|pair vocab|); the corpus
    itself never leaves the workers — the same shape that streams
    100 TB through kmeans/pagerank here.  Reference: the tokenizer side
    of the text pipeline (SURVEY.md §2 text-analysis extensions).
    """
    table = _bpe_learn(_read(sf_dir, "documents", ["text"]), n_merges)
    # the SQL replay relies on the separator never occurring inside a
    # symbol; corpus chars are the only symbol alphabet
    assert not any(_BPE_SEP in s1 + s2 for s1, s2, _ in table)
    return pd.DataFrame(
        {
            "rank": pd.Series(range(1, len(table) + 1), dtype="int64"),
            "s1": [m[0] for m in table],
            "s2": [m[1] for m in table],
            "pair_count": pd.Series([m[2] for m in table], dtype="int64"),
        }
    )


def _sql_bpe_train(n_merges: int = _BPE_MERGES) -> str:
    """Unrolled SQL replay of the FULL BPE training loop.

    Each word is a separator-joined symbol string ``\\x1f c \\x1f c ...
    \\x1f </w> \\x1f``.  Greedy left-to-right merge application equals
    repeatedly rewriting the LEFTMOST ``sep+s1+sep+s2+sep`` occurrence
    to ``sep+s1s2+sep`` (the merged symbol is strictly longer than
    either part, so a rewrite can never create a new occurrence of its
    own pattern to its left) — a recursive CTE per round.  MATERIALIZED
    hints are load-bearing: without them each recursive step re-derives
    the whole upstream round chain and the plan goes exponential.
    All counts are int64 sums and the argmax tie-break is binary string
    order in both engines, so the replay is bit-exact.
    """
    sep = _BPE_SEP
    sql = f"""
WITH words AS MATERIALIZED (
  SELECT w, CAST(count(*) AS BIGINT) AS c
  FROM (SELECT unnest(regexp_extract_all(text, '[^ ]+')) AS w FROM documents)
  GROUP BY w
), seqs_0 AS MATERIALIZED (
  SELECT w, c,
    chr(31) || string_agg(substr(w, i, 1), chr(31) ORDER BY i)
            || chr(31) || '{_BPE_EOW}' || chr(31) AS seq
  FROM words, unnest(range(1, len(w) + 1)) t(i)
  GROUP BY w, c
)"""
    for k in range(n_merges):
        pat = f"(SELECT pat FROM best_{k})"
        rep = f"(SELECT rep FROM best_{k})"
        sql += f""",
best_{k} AS MATERIALIZED (
  SELECT s1, s2, cnt,
         chr(31) || s1 || chr(31) || s2 || chr(31) AS pat,
         chr(31) || s1 || s2 || chr(31) AS rep
  FROM (
    SELECT l.syms[i] AS s1, l.syms[i + 1] AS s2,
           CAST(sum(l.c) AS BIGINT) AS cnt
    FROM (SELECT c, str_split(trim(seq, chr(31)), chr(31)) AS syms
          FROM seqs_{k}) l,
         unnest(range(1, len(l.syms))) t(i)
    GROUP BY s1, s2
  ) ORDER BY cnt DESC, s1, s2 LIMIT 1
), seqs_{k + 1} AS MATERIALIZED (
  WITH RECURSIVE r AS (
    SELECT w, c, seq FROM seqs_{k}
    UNION ALL
    SELECT w, c,
      substr(seq, 1, strpos(seq, {pat}) - 1) || {rep}
        || substr(seq, strpos(seq, {pat}) + len({pat}))
    FROM r WHERE strpos(seq, {pat}) > 0
  ) SELECT w, c, seq FROM r WHERE strpos(seq, {pat}) = 0
)"""
    sql += "\n" + "\nUNION ALL\n".join(
        f"SELECT CAST({k + 1} AS BIGINT) AS rank, s1, s2,"
        f" cnt AS pair_count FROM best_{k}"
        for k in range(n_merges)
    )
    assert sep == chr(31)
    return sql


SQL_BPE_TRAIN = _sql_bpe_train()


def q_bpe_vocab(sf_dir: str, n_merges: int = _BPE_MERGES) -> pd.DataFrame:
    """Learned BPE subword vocabulary with corpus frequencies: train
    ``n_merges`` merges (``_bpe_learn``), then ONE encode pass over
    the corpus emitting bounded (token, count) partials per batch —
    the vocab table a deployed tokenizer ships.  Same unique-word
    weighting as training, so the encode pass is O(unique-word chars)
    per batch; output is vocab-sized regardless of corpus size."""
    ds = _read(sf_dir, "documents", ["text"])
    frozen = [m[:2] for m in _bpe_learn(ds, n_merges)]

    def encode(batch: pa.Table) -> pd.DataFrame:
        words = pc.list_flatten(
            pc.split_pattern(batch["text"], pattern=" ")
        )
        vc = words.value_counts()
        tok: Counter = Counter()
        for w, c in zip(
            vc.field("values").to_pylist(), vc.field("counts").to_pylist()
        ):
            if not w:
                continue
            for s in _bpe_apply_merges(list(w) + [_BPE_EOW], frozen):
                tok[s] += c
        return pd.DataFrame(
            {
                "token": list(tok.keys()),
                "c": pd.Series(list(tok.values()), dtype="int64"),
            }
        )

    parts = ds.map_batches(encode, batch_format="pyarrow").to_pandas()
    out = (
        parts.groupby("token", as_index=False)["c"]
        .sum()
        .sort_values(["c", "token"], ascending=[False, True])
        .reset_index(drop=True)
    )
    return pd.DataFrame(
        {
            "token": out["token"],
            "token_count": out["c"].astype("int64"),
        }
    )


def _sql_bpe_vocab(n_merges: int = _BPE_MERGES) -> str:
    """Replay training via _sql_bpe_train's round chain, then read the
    vocabulary straight off the final symbol sequences."""
    train = _sql_bpe_train(n_merges)
    # keep the WITH chain, swap the final merge-table SELECT for the
    # weighted symbol unnest over seqs_{n_merges}
    chain = train[: train.rindex("\nSELECT CAST(1 AS BIGINT) AS rank")]
    return chain + f"""
SELECT sym AS token, CAST(sum(c) AS BIGINT) AS token_count
FROM (
  SELECT c, unnest(str_split(trim(seq, chr(31)), chr(31))) AS sym
  FROM seqs_{n_merges}
)
GROUP BY sym
ORDER BY token_count DESC, token
"""


SQL_BPE_VOCAB = _sql_bpe_vocab()


# ---------------------------------------------------------------------------
# stratified sampling: per-group (lang) deterministic rates — the
# rebalancing counterpart of hash_sample's uniform thinning (a corpus
# with 44% 'en' downsamples it while keeping the long-tail languages).
# Keep iff the first md5(doc_id) byte < rate*256: map-only, no shuffle,
# reproducible across runs/processes, SQL-replayable byte for byte.
# ---------------------------------------------------------------------------
_STRATA_RATES = {"en": 64, "de": 128, "fr": 192}  # out of 256
_STRATA_DEFAULT = 96


def q_stratified_sample(sf_dir: str):
    ds = _read(sf_dir, "documents", ["doc_id", "lang"])

    def body(batch: pa.Table) -> pd.DataFrame:
        df = batch.to_pandas()
        buckets = np.array(
            [
                int(hashlib.md5(str(d).encode()).hexdigest()[:2], 16)
                for d in df["doc_id"]
            ]
        )
        caps = (
            df["lang"].map(_STRATA_RATES).fillna(_STRATA_DEFAULT).to_numpy()
        )
        return df.loc[buckets < caps, ["doc_id", "lang"]]

    return ds.map_batches(body, batch_format="pyarrow")


_STRATA_CASES = " ".join(
    f"WHEN lang = '{lang}' THEN {cap}" for lang, cap in _STRATA_RATES.items()
)
SQL_STRATIFIED_SAMPLE = f"""
SELECT doc_id, lang FROM documents
WHERE CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 2)) AS INTEGER)
      < CASE {_STRATA_CASES} ELSE {_STRATA_DEFAULT} END
"""


# ---------------------------------------------------------------------------
# ExactSubstr substring dedup (Lee et al. 2022) — the exact algorithm the
# hashed-window `repeated_ngrams` approximates.  Every char covered by a
# length-48 window occurring >= 2 times corpus-wide is removed; plan and
# scale notes in stages/exactsubstr.py.  Output is (doc_id,
# removed_chars, md5(cleaned text)) so the oracle replays the exact cut.
# ---------------------------------------------------------------------------
_EXACTSUBSTR_K = 48


def q_exactsubstr_dedup(sf_dir: str):
    from ..stages.exactsubstr import exactsubstr_dedup

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return exactsubstr_dedup(ds, k=_EXACTSUBSTR_K)


# constant series bound: this DuckDB's generate_series takes constants
# only (no lateral/subquery params); 8192 >> max doc length in every
# testdata tier, and the joins prune it to len(text) rows per doc.
SQL_EXACTSUBSTR_DEDUP = f"""
WITH series AS (
  SELECT CAST(t.i AS BIGINT) AS i FROM generate_series(1, 8192) AS t(i)
),
w AS (
  SELECT d.doc_id, s.i, substr(d.text, CAST(s.i AS INT), {_EXACTSUBSTR_K}) AS win
  FROM documents d JOIN series s ON s.i <= len(d.text) - {_EXACTSUBSTR_K - 1}
),
dup AS (SELECT win FROM w GROUP BY win HAVING count(*) >= 2),
dpos AS (SELECT w.doc_id, w.i FROM w JOIN dup USING (win)),
cov AS (
  SELECT DISTINCT dp.doc_id, s.i AS p
  FROM dpos dp JOIN series s ON s.i BETWEEN dp.i AND dp.i + {_EXACTSUBSTR_K - 1}
),
chars AS (
  SELECT d.doc_id, s.i AS p, substr(d.text, CAST(s.i AS INT), 1) AS ch
  FROM documents d JOIN series s ON s.i <= len(d.text)
),
kept AS (
  SELECT c.doc_id,
         coalesce(string_agg(c.ch, '' ORDER BY c.p)
                  FILTER (WHERE cov.p IS NULL), '') AS kept_text,
         count(cov.p) AS removed_chars
  FROM chars c LEFT JOIN cov ON cov.doc_id = c.doc_id AND cov.p = c.p
  GROUP BY c.doc_id
)
SELECT doc_id, removed_chars, md5(kept_text) AS kept_md5 FROM kept
"""


# ---------------------------------------------------------------------------
# Mix-weight resampling — downsample each source to a target mixture
# (the "data mixing" step of a training pipeline).  Two passes: a tiny
# bounded-cardinality count reduce fixes per-source keep thresholds on
# the driver, then a map-only md5-acceptance filter streams the corpus.
# Thresholds are exact integers ((w*T*2^64) // (W*n)), so the SQL oracle
# replays the decision bit-for-bit; the largest feasible total T =
# min_s floor(n_s * W / w_s) makes every rate <= 1 (downsample-only).
# Weights derive deterministically from the source id ((num % 4) + 1)
# so both sides compute them without a shipped config table.
# ---------------------------------------------------------------------------
def q_mix_resample(sf_dir: str):
    ds = _read(sf_dir, "documents", ["doc_id", "source"])

    def count_partial(batch: pa.Table) -> pd.DataFrame:
        df = batch.to_pandas()
        out = df.groupby("source", as_index=False).agg(n=("doc_id", "size"))
        out["n"] = out["n"].astype("int64")
        return out

    counts = _driver_reduce(
        ds.map_batches(count_partial, batch_format="pyarrow"),
        ["source"],
        ["n"],
    )
    weights = {
        s: (int(s[3:]) % 4) + 1 for s in counts["source"]
    }
    w_sum = sum(weights.values())
    target = min(
        (int(n) * w_sum) // weights[s]
        for s, n in zip(counts["source"], counts["n"])
    )
    cuts = {
        s: (weights[s] * target * (1 << 64)) // (w_sum * int(n))
        for s, n in zip(counts["source"], counts["n"])
    }

    def keep(batch: pa.Table) -> pd.DataFrame:
        df = batch.to_pandas()
        u = np.array(
            [
                int.from_bytes(
                    hashlib.md5(str(d).encode()).digest()[:8], "big"
                )
                for d in df["doc_id"]
            ],
            dtype=object,
        )
        cut = df["source"].map(cuts).to_numpy(dtype=object)
        return df.loc[u < cut, ["doc_id", "source"]]

    return ds.map_batches(keep, batch_format="pyarrow")


SQL_MIX_RESAMPLE = """
WITH src AS (
  SELECT source, count(*) AS n,
         (CAST(substr(source, 4) AS INT) % 4) + 1 AS w
  FROM documents GROUP BY source
),
tot AS (SELECT sum(w) AS wsum FROM src),
t AS (SELECT min((n * wsum) // w) AS target FROM src, tot),
thr AS (
  SELECT source,
         (w * target * CAST('18446744073709551616' AS HUGEINT))
           // (wsum * n) AS cut
  FROM src, tot, t
)
SELECT d.doc_id, d.source
FROM documents d JOIN thr USING (source)
WHERE CAST(CAST(('0x' || substr(md5(CAST(d.doc_id AS VARCHAR)), 1, 16))
           AS UBIGINT) AS HUGEINT) < thr.cut
"""


# ---------------------------------------------------------------------------
# DSIR data selection (Xie et al. 2023, arXiv:2302.03169): importance
# resampling with hashed-bigram features.  Target = lang='en' docs, raw
# = the whole corpus; each bigram occurrence hashes (md5, byte-
# replayable) into one of B buckets; the two add-one-smoothed bucket
# models give a per-doc log importance weight
#   sum_g [ ln p_t(h(g)) - ln p_r(h(g)) ],
# and the K highest-weight docs are selected (the paper resamples with
# Gumbel noise; deterministic top-k by (rounded weight, doc_id) is the
# oracle-replayable analog).  Plan: model fit = per-batch bucket-count
# partials with FIXED cardinality B (the HLL-partials shape) + driver
# reduce; scoring = map-only against the broadcast B-vector of
# log-ratios; selection = per-block top-K partials + driver reduce
# (bounded n_blocks x K).  At 100 TB the top-k becomes a weight-
# threshold filter calibrated on a sample quantile — same score pass,
# map-only select.  Weight rounds to 9 (the bigram_logprob float-sum
# convention).
# ---------------------------------------------------------------------------
_DSIR_BUCKETS = 1024
_DSIR_K = 100
_DSIR_TARGET_LANG = "en"


def _dsir_hash_grams(texts: list[str]) -> list[np.ndarray]:
    """Per doc: the hashed-bucket id of every interior bigram occurrence
    (md5 prefix mod B — the byte-replayable hash the sampling ops use).
    Hashes memoize per unique bigram within the batch."""
    memo: dict = {}
    out = []
    for t in texts:
        ws = [w for w in t.split(" ") if w]
        fs = np.empty(max(len(ws) - 1, 0), dtype=np.int64)
        for i, g in enumerate(zip(ws, ws[1:])):
            f = memo.get(g)
            if f is None:
                key = (g[0] + " " + g[1]).encode()
                f = int(hashlib.md5(key).hexdigest()[:8], 16) % _DSIR_BUCKETS
                memo[g] = f
            fs[i] = f
        out.append(fs)
    return out


def _dsir_fit_log_ratio(ds):
    """Fit the hashed-bigram target/raw models over ``ds`` and return
    the broadcastable per-bucket log-ratio vector (a ray ObjectRef)."""

    def count_partial(batch: pa.Table) -> pd.DataFrame:
        grams = _dsir_hash_grams(batch["text"].to_pylist())
        langs = batch["lang"].to_pylist()
        empty = np.empty(0, dtype=np.int64)
        all_fs = np.concatenate(grams or [empty])
        tgt_fs = np.concatenate(
            [
                fs
                for fs, lang in zip(grams, langs)
                if lang == _DSIR_TARGET_LANG
            ]
            or [empty]
        )
        return pd.DataFrame(
            {
                "bucket": np.arange(_DSIR_BUCKETS, dtype=np.int64),
                "ct": np.bincount(tgt_fs, minlength=_DSIR_BUCKETS),
                "cr": np.bincount(all_fs, minlength=_DSIR_BUCKETS),
            }
        )

    counts = _driver_reduce(
        ds.map_batches(count_partial, batch_format="pyarrow"),
        ["bucket"],
        ["ct", "cr"],
    ).set_index("bucket")
    # explicit reindex: scoring reads ct/cr POSITIONALLY (w[fs]), so pin
    # row i == bucket i even if the partials ever go sparse
    counts = counts.reindex(range(_DSIR_BUCKETS), fill_value=0)
    ct = counts["ct"].to_numpy(dtype=np.float64)
    cr = counts["cr"].to_numpy(dtype=np.float64)
    nt, nr = ct.sum(), cr.sum()
    lw = np.log((ct + 1.0) / (nt + _DSIR_BUCKETS)) - np.log(
        (cr + 1.0) / (nr + _DSIR_BUCKETS)
    )
    return ray.put(lw)


def _dsir_topk(ds, ref, key_fn, key_col: str):
    """Score pass + deterministic global top-K: per-block partials ship
    K rows each (only a block's own top-K can survive), driver reduce.
    ``key_fn(doc_ids, weights)`` -> the float selection key, rounded 9
    before ordering on BOTH sides."""

    def score_topk(batch: pa.Table) -> pd.DataFrame:
        w = _broadcast_get(ref)
        grams = _dsir_hash_grams(batch["text"].to_pylist())
        ids, ng, lws = [], [], []
        for did, fs in zip(batch["doc_id"].to_pylist(), grams):
            if len(fs) == 0:
                continue  # no bigram, no weight (mirrors the SQL join)
            ids.append(did)
            ng.append(len(fs))
            lws.append(float(w[fs].sum()))
        ids_arr = np.asarray(ids, dtype=np.int64)
        keys = key_fn(ids_arr, np.asarray(lws, dtype=np.float64))
        part = pd.DataFrame(
            {
                "doc_id": pd.Series(ids_arr, dtype="int64"),
                "n_grams": pd.Series(ng, dtype="int64"),
                key_col: pd.Series(keys, dtype="float64").round(9),
            }
        )
        return part.sort_values(
            [key_col, "doc_id"], ascending=[False, True]
        ).head(_DSIR_K)

    parts = ds.map_batches(score_topk, batch_format="pyarrow").to_pandas()
    return (
        parts.sort_values([key_col, "doc_id"], ascending=[False, True])
        .head(_DSIR_K)
        .reset_index(drop=True)
    )


def q_dsir_select(sf_dir: str):
    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang"])
    ref = _dsir_fit_log_ratio(ds)
    return _dsir_topk(ds, ref, lambda _ids, w: w, "log_weight")


def _dsir_gumbel(doc_ids: np.ndarray) -> np.ndarray:
    """Deterministic standard-Gumbel noise: u = (md5(doc_id)[:8] + .5)
    / 2^32, G = -ln(-ln(u)).  Byte-replayable in SQL; numpy-vs-DuckDB
    agreement probed at 1 ulp (round-9 keys absorb it)."""
    us = np.array(
        [
            int(hashlib.md5(str(d).encode()).hexdigest()[:8], 16)
            for d in doc_ids
        ],
        dtype=np.float64,
    )
    return -np.log(-np.log((us + 0.5) / 4294967296.0))


def q_dsir_resample(sf_dir: str):
    """The paper's actual selection rule — Gumbel-top-k sampling
    WITHOUT replacement, P(select) proportional to the importance
    weight — with the Gumbel noise derived from md5(doc_id) so the
    draw is reproducible and the SQL oracle replays it exactly.
    Local-only sampling-rule sibling of the exposed ``dsir_select``
    (identical model fit and score pass; only the selection key
    differs: log_weight + Gumbel vs log_weight)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang"])
    ref = _dsir_fit_log_ratio(ds)
    return _dsir_topk(
        ds, ref, lambda ids, w: w + _dsir_gumbel(ids), "gumbel_key"
    )


SQL_DSIR_SELECT = f"""
WITH toks AS (
  SELECT doc_id, lang, regexp_extract_all(text, '[^ ]+') AS ts FROM documents
), pos AS (
  SELECT doc_id, lang, i, ts[i + 1] AS w
  FROM toks, unnest(range(0, len(ts))) AS t(i)
), big AS (
  SELECT p1.doc_id, p1.lang,
         CAST(('0x' || substr(md5(p1.w || ' ' || p2.w), 1, 8)) AS UBIGINT)
           % {_DSIR_BUCKETS} AS f
  FROM pos p1 JOIN pos p2 ON p1.doc_id = p2.doc_id AND p2.i = p1.i + 1
), cnt AS (
  SELECT f,
         sum(CASE WHEN lang = '{_DSIR_TARGET_LANG}' THEN 1 ELSE 0 END) AS ct,
         count(*) AS cr
  FROM big GROUP BY f
), tot AS (
  SELECT sum(ct) AS nt, sum(cr) AS nr FROM cnt
), lw AS (
  SELECT f,
         ln((cnt.ct + 1.0) / (tot.nt + {_DSIR_BUCKETS}))
         - ln((cnt.cr + 1.0) / (tot.nr + {_DSIR_BUCKETS})) AS w
  FROM cnt CROSS JOIN tot
), scored AS (
  SELECT b.doc_id, CAST(count(*) AS BIGINT) AS n_grams,
         round(sum(lw.w), 9) AS log_weight
  FROM big b JOIN lw USING (f)
  GROUP BY b.doc_id
)
SELECT doc_id, n_grams, log_weight
FROM scored
ORDER BY log_weight DESC, doc_id
LIMIT {_DSIR_K}
"""


# same program with the Gumbel-perturbed selection key (sampling
# without replacement proportional to the importance weight — the
# paper's rule, deterministic via md5-derived noise)
SQL_DSIR_RESAMPLE = (
    SQL_DSIR_SELECT.replace(
        "         round(sum(lw.w), 9) AS log_weight",
        "         round(sum(lw.w)\n"
        "               - ln(-ln((CAST(('0x' || substr(md5(CAST(b.doc_id"
        " AS VARCHAR)), 1, 8)) AS UBIGINT) + 0.5) / 4294967296.0)), 9)"
        " AS gumbel_key",
    )
    .replace(
        "SELECT doc_id, n_grams, log_weight",
        "SELECT doc_id, n_grams, gumbel_key",
    )
    .replace("ORDER BY log_weight DESC, doc_id", "ORDER BY gumbel_key DESC, doc_id")
)
assert "gumbel_key" in SQL_DSIR_RESAMPLE and "log_weight" not in SQL_DSIR_RESAMPLE


# ---------------------------------------------------------------------------
# Sub-document (paragraph-level) exact dedup — the granularity a training
# pipeline dedups at when whole-document dedup misses boilerplate shared
# ACROSS distinct documents.  Fixed-window "paragraphs" (the deterministic
# pagination, unstamped), global first-wins by (did, offset) via ONE
# text-keyed co-partition shuffle, then per-doc reassembly of the
# surviving windows in offset order via ONE doc-keyed co-partition.
# Docs whose every window was already seen elsewhere drop entirely
# (matching SQL GROUP BY over kept rows).
# ---------------------------------------------------------------------------
def q_paragraph_dedup(sf_dir: str):
    from ..stages.bucketed import bucketed_drop_duplicates, bucketed_map_groups

    pages = _paged_docs(sf_dir)  # doc_id(str), did(int64), offset(int32), text
    kept = bucketed_drop_duplicates(
        pages, "text", sort_within=["did", "offset"], n_buckets=64
    )

    def reassemble(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["did", "offset"], kind="mergesort")
        g = df.groupby("doc_id", as_index=False).agg(
            n_kept=("text", "size"), text=("text", " ".join)
        )
        g["n_kept"] = g["n_kept"].astype("int64")
        return g[["doc_id", "n_kept", "text"]]

    return bucketed_map_groups(kept, "doc_id", reassemble, n_buckets=64)


SQL_PARAGRAPH_DEDUP = f"""
WITH {_sql_pages(False)},
kept AS (
  SELECT doc_id, did, off, text FROM (
    SELECT doc_id, did, off, text,
           row_number() OVER (PARTITION BY text ORDER BY did, off) AS rn
    FROM pages
  ) WHERE rn = 1
)
SELECT doc_id, CAST(count(*) AS BIGINT) AS n_kept,
       string_agg(text, ' ' ORDER BY off) AS text
FROM kept GROUP BY doc_id
"""


# ---------------------------------------------------------------------------
# Boilerplate strip (CCNet-style common-line removal) — the REMOVE-ALL
# complement of paragraph_dedup's keep-first: a fixed-window chunk that
# appears in >= _BOILERPLATE_MIN_DOCS DISTINCT documents is boilerplate
# (nav bars, footers, license blurbs) and is dropped from EVERY document,
# including its first occurrence.  Two co-partition shuffles, both the
# same cost class as paragraph_dedup: one text-keyed pass computes each
# chunk's document frequency globally (all rows of a chunk land in one
# bucket) and marks rows, one doc-keyed pass reassembles survivors in
# offset order.  Docs whose every chunk is boilerplate drop entirely.
# 100 TB note: the boilerplate SET is small relative to the corpus, so a
# deploy-scale variant can emit only the df>=T chunk hashes from pass 1,
# broadcast them, and filter+reassemble map-side against doc-local pages
# (the pagination derives per-doc in one batch) — kept as the bucketed
# form here because the mark pass IS the df computation either way.
# ---------------------------------------------------------------------------
_BOILERPLATE_MIN_DOCS = 2


def q_boilerplate_strip(sf_dir: str):
    from ..stages.bucketed import bucketed_map_groups

    pages = _paged_docs(sf_dir)  # doc_id(str), did(int64), offset(int32), text

    def mark(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["keep"] = (
            df.groupby("text")["did"].transform("nunique")
            < _BOILERPLATE_MIN_DOCS
        )
        return df

    marked = bucketed_map_groups(pages, "text", mark, n_buckets=64)

    def reassemble(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["did", "offset"], kind="mergesort")
        g = df.groupby("doc_id", as_index=False).agg(
            n_pages=("keep", "size"), n_kept=("keep", "sum")
        )
        t = (
            df[df["keep"]]
            .groupby("doc_id", as_index=False)
            .agg(text=("text", " ".join))
        )
        out = g.merge(t, on="doc_id", how="inner")  # all-boilerplate docs drop
        out["n_kept"] = out["n_kept"].astype("int64")
        out["n_dropped"] = (out["n_pages"] - out["n_kept"]).astype("int64")
        return out[["doc_id", "n_kept", "n_dropped", "text"]]

    res = bucketed_map_groups(
        marked, "doc_id", reassemble, n_buckets=64
    ).materialize()
    if res.count() == 0:
        # a fully-duplicated corpus drops EVERY doc; zero blocks lose the
        # pandas schema through to_pandas (the _schema_stable_pairs
        # lesson) — rebuild the declared schema.  The materialize() that
        # makes count() free stays in the object store (not the driver);
        # a production sink would write_parquet the lazy form instead.
        return pd.DataFrame(
            {
                "doc_id": pd.Series([], dtype=object),
                "n_kept": pd.Series([], dtype="int64"),
                "n_dropped": pd.Series([], dtype="int64"),
                "text": pd.Series([], dtype=object),
            }
        )
    return res


SQL_BOILERPLATE_STRIP = f"""
WITH {_sql_pages(False)},
freq AS (
  SELECT text, count(DISTINCT did) AS df FROM pages GROUP BY text
), sel AS (
  SELECT p.doc_id, p.off, p.text,
         (f.df < {_BOILERPLATE_MIN_DOCS}) AS keep
  FROM pages p JOIN freq f USING (text)
)
SELECT doc_id,
       CAST(sum(CASE WHEN keep THEN 1 ELSE 0 END) AS BIGINT) AS n_kept,
       CAST(sum(CASE WHEN keep THEN 0 ELSE 1 END) AS BIGINT) AS n_dropped,
       string_agg(text, ' ' ORDER BY off) FILTER (WHERE keep) AS text
FROM sel GROUP BY doc_id
HAVING sum(CASE WHEN keep THEN 1 ELSE 0 END) > 0
"""


# ---------------------------------------------------------------------------
# Greedy sequence packing — assemble training sequences by packing
# documents into fixed token-budget bins.  Packing is inherently
# sequential, so it runs per SHARD (md5(doc_id) % n_shards, the same
# byte-replayable hash the sampling ops use): docs pack greedily in
# doc_id order within their shard, bins never span shards — exactly how
# packing behaves on a sharded corpus at scale (the per-shard loop is
# O(shard size) Python, unavoidable for a sequential scan; shards bound
# it).  A doc longer than the budget gets a bin of its own.
# ---------------------------------------------------------------------------
_PACK_BUDGET = 256
_PACK_SHARDS = 16


def greedy_bins(n_tokens, budget: int):
    """Pure greedy bin assignment over an ordered token-count sequence:
    the first doc opens bin 0 unconditionally; every later doc opens a
    new bin iff adding it would overflow the current one — EXACTLY the
    SQL oracle's recursion (an earlier ``acc > 0`` guard diverged from
    the SQL when a zero-token doc opened a bin just before an
    over-budget doc; hypothesis found it).  Invariants
    (property-pinned): bin ids are consecutive from 0; every bin's
    total <= budget unless it holds exactly one doc."""
    bins, bin_id, acc = [], 0, None
    for n in n_tokens:
        if acc is None:
            acc = n
        elif acc + n > budget:
            bin_id += 1
            acc = n
        else:
            acc += n
        bins.append(bin_id)
    return bins


def q_pack_sequences(sf_dir: str):
    from ..stages.bucketed import bucketed_map_groups

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def tok(batch: pa.Table) -> pd.DataFrame:
        df = batch.to_pandas()
        df["n_tokens"] = [
            len([w for w in t.split(" ") if w]) for t in df["text"]
        ]
        df["shard"] = [
            int(hashlib.md5(str(d).encode()).hexdigest()[:8], 16) % _PACK_SHARDS
            for d in df["doc_id"]
        ]
        return df[["doc_id", "shard", "n_tokens"]]

    def pack(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for _, g in df.groupby("shard", sort=False):
            g = g.sort_values("doc_id", kind="mergesort").copy()
            g["bin"] = pd.Series(
                greedy_bins(g["n_tokens"].tolist(), _PACK_BUDGET),
                index=g.index,
                dtype="int64",
            )
            outs.append(g)
        out = pd.concat(outs, ignore_index=True)
        out["shard"] = out["shard"].astype("int64")
        out["n_tokens"] = out["n_tokens"].astype("int64")
        return out[["doc_id", "shard", "bin", "n_tokens"]]

    return bucketed_map_groups(
        ds.map_batches(tok, batch_format="pyarrow"),
        "shard",
        pack,
        n_buckets=_PACK_SHARDS,
    )


SQL_PACK_SEQUENCES = f"""
WITH RECURSIVE toks AS (
  SELECT doc_id,
         CAST(len(regexp_extract_all(text, '[^ ]+')) AS BIGINT) AS n_tokens,
         CAST(CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8)) AS UBIGINT)
              % {_PACK_SHARDS} AS BIGINT) AS shard
  FROM documents
), ord AS (
  SELECT doc_id, shard, n_tokens,
         row_number() OVER (PARTITION BY shard ORDER BY doc_id) AS rn
  FROM toks
), rec AS (
  SELECT shard, rn, doc_id, n_tokens, CAST(0 AS BIGINT) AS bin, n_tokens AS acc
  FROM ord WHERE rn = 1
  UNION ALL
  SELECT o.shard, o.rn, o.doc_id, o.n_tokens,
         CASE WHEN r.acc + o.n_tokens > {_PACK_BUDGET}
              THEN r.bin + 1 ELSE r.bin END,
         CASE WHEN r.acc + o.n_tokens > {_PACK_BUDGET}
              THEN o.n_tokens ELSE r.acc + o.n_tokens END
  FROM rec r JOIN ord o ON o.shard = r.shard AND o.rn = r.rn + 1
)
SELECT doc_id, shard, bin, n_tokens FROM rec
"""


# ---------------------------------------------------------------------------
# Bigram-LM negative-log-likelihood scoring — the perplexity-style
# quality signal training pipelines bucket documents by.  Two passes:
# (1) TRAIN — mergeable per-batch bigram/unigram count partials (a
# repeated bigram ships ONE row per batch — the same skew-free partial
# shape as tfidf's df), merged into a model table that is broadcast-size
# here (vocab-bounded; at open-web scale the score pass becomes a
# bucketed join on w1 — same size-routing as tfidf's df attach);
# (2) SCORE — each doc's interior bigrams look up add-one-smoothed
# P(w2|w1) = (c(w1,w2)+1) / (c1(w1)+V) and emit the mean NLL.  Docs with
# < 2 tokens carry no bigram and drop (matching SQL's inner join).
# ---------------------------------------------------------------------------
def q_bigram_logprob(sf_dir: str):
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def bigram_partial(batch: pa.Table) -> pd.DataFrame:
        rows = {}
        vocab = set()
        for t in batch["text"].to_pylist():
            ws = [w for w in t.split(" ") if w]
            vocab.update(ws)
            for a, b in zip(ws, ws[1:]):
                rows[(a, b)] = rows.get((a, b), 0) + 1
        return pd.DataFrame(
            {
                "w1": [k[0] for k in rows] + sorted(vocab),
                "w2": [k[1] for k in rows] + [""] * len(vocab),
                "c": pd.Series(
                    list(rows.values()) + [0] * len(vocab), dtype="int64"
                ),
            }
        )

    # merged model: bounded by (bigram vocab + vocab) — the driver reduce
    # is the broadcast route; comment above names the at-scale alternative
    parts = ds.map_batches(bigram_partial, batch_format="pyarrow").to_pandas()
    vocab_rows = parts[parts["w2"] == ""]
    v_size = vocab_rows["w1"].nunique()
    bc = (
        parts[parts["w2"] != ""]
        .groupby(["w1", "w2"], as_index=False)["c"]
        .sum()
    )
    c1 = bc.groupby("w1", as_index=False)["c"].sum().rename(columns={"c": "c1"})
    model = {
        "bc": {(a, b): int(c) for a, b, c in bc.itertuples(index=False)},
        "c1": dict(zip(c1["w1"], c1["c1"].astype(int))),
        "v": int(v_size),
    }
    ref = ray.put(model)

    def score(batch: pa.Table) -> pd.DataFrame:
        m = _broadcast_get(ref)
        bcm, c1m, v = m["bc"], m["c1"], m["v"]
        ids, nb, nll = [], [], []
        for did, t in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            ws = [w for w in t.split(" ") if w]
            if len(ws) < 2:
                continue
            s = 0.0
            for a, b in zip(ws, ws[1:]):
                s += np.log((bcm.get((a, b), 0) + 1.0) / (c1m.get(a, 0) + v))
            ids.append(did)
            nb.append(len(ws) - 1)
            nll.append(-s / (len(ws) - 1))
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "n_bigrams": pd.Series(nb, dtype="int64"),
                "avg_nll": pd.Series(nll, dtype="float64").round(9),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow")


SQL_BIGRAM_LOGPROB = """
WITH toks AS (
  SELECT doc_id, regexp_extract_all(text, '[^ ]+') AS ts FROM documents
), pos AS (
  SELECT doc_id, i, ts[i + 1] AS w
  FROM toks, unnest(range(0, len(ts))) AS t(i)
), big AS (
  SELECT p1.doc_id, p1.w AS w1, p2.w AS w2
  FROM pos p1 JOIN pos p2 ON p1.doc_id = p2.doc_id AND p2.i = p1.i + 1
), bc AS (
  SELECT w1, w2, count(*) AS c FROM big GROUP BY w1, w2
), c1 AS (
  SELECT w1, sum(c) AS c1 FROM bc GROUP BY w1
), v AS (
  SELECT count(DISTINCT w) AS v FROM pos
)
SELECT b.doc_id, CAST(count(*) AS BIGINT) AS n_bigrams,
       round(-avg(ln((bc.c + 1.0) / (c1.c1 + v.v))), 9) AS avg_nll
FROM big b JOIN bc USING (w1, w2) JOIN c1 USING (w1) CROSS JOIN v
GROUP BY b.doc_id
"""


# ---------------------------------------------------------------------------
# Interpolated Kneser-Ney bigram scoring (Kneser & Ney 1995, fixed
# discount D per Chen & Goodman 1998) — the production smoothing rule
# behind KenLM-style quality scorers, beside add-one bigram_logprob:
#
#   P(w2|w1) = max(c(w1,w2) - D, 0)/c1(w1)
#            + D * N1+(w1,.)/c1(w1) * Pcont(w2)
#   Pcont(w2) = N1+(., w2) / N1+(., .)
#
# i.e. the continuation probability counts how many DISTINCT contexts a
# word follows, not how often it occurs — the fix for "San Francisco"
# inflating P(Francisco).  Same two-pass shape as bigram_logprob: the
# model table adds two distinct-continuation columns to the SAME
# mergeable (w1,w2,c) partials (distinct counts are per-key sizes of
# the merged bigram table — vocab-bounded, never corpus-bounded), and
# the score pass is map-only over a broadcast model (bucketed join on
# w1 at open-web scale — same size-routing note as tfidf's df attach).
# Self-scoring means every interior bigram was trained on (c >= 1), so
# the unseen-context branch never divides by zero.  The interpolation
# normalizes exactly: sum_w2 P(w2|w1) = 1 (pinned by pytest).
# ---------------------------------------------------------------------------
_KN_D = 0.75


def q_kneser_ney_logprob(sf_dir: str):
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def bigram_partial(batch: pa.Table) -> pd.DataFrame:
        rows: dict = {}
        for t in batch["text"].to_pylist():
            ws = [w for w in t.split(" ") if w]
            for a, b in zip(ws, ws[1:]):
                rows[(a, b)] = rows.get((a, b), 0) + 1
        return pd.DataFrame(
            {
                "w1": [k[0] for k in rows],
                "w2": [k[1] for k in rows],
                "c": pd.Series(list(rows.values()), dtype="int64"),
            }
        )

    parts = ds.map_batches(bigram_partial, batch_format="pyarrow").to_pandas()
    bc = parts.groupby(["w1", "w2"], as_index=False)["c"].sum()
    c1 = bc.groupby("w1")["c"].sum()
    n1f = bc.groupby("w1")["w2"].size()
    n1b = bc.groupby("w2")["w1"].size()
    model = {
        "bc": {(a, b): int(c) for a, b, c in bc.itertuples(index=False)},
        "c1": c1.astype(int).to_dict(),
        "n1f": n1f.astype(int).to_dict(),
        "n1b": n1b.astype(int).to_dict(),
        "nt": int(len(bc)),
    }
    ref = ray.put(model)

    def score(batch: pa.Table) -> pd.DataFrame:
        m = _broadcast_get(ref)
        bcm, c1m, n1fm, n1bm = m["bc"], m["c1"], m["n1f"], m["n1b"]
        nt = float(m["nt"])
        ids, nb_out, nll = [], [], []
        for did, t in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            ws = [w for w in t.split(" ") if w]
            if len(ws) < 2:
                continue
            s = 0.0
            for a, b in zip(ws, ws[1:]):
                c1v = float(c1m[a])
                p = max(bcm[(a, b)] - _KN_D, 0.0) / c1v + _KN_D * n1fm[
                    a
                ] / c1v * (n1bm[b] / nt)
                s += np.log(p)
            ids.append(did)
            nb_out.append(len(ws) - 1)
            nll.append(-s / (len(ws) - 1))
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "n_bigrams": pd.Series(nb_out, dtype="int64"),
                "avg_nll": pd.Series(nll, dtype="float64").round(9),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow")


SQL_KNESER_NEY_LOGPROB = f"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(text, '[^ ]+') AS ts FROM documents
), pos AS (
  SELECT doc_id, i, ts[i + 1] AS w
  FROM toks, unnest(range(0, len(ts))) AS t(i)
), big AS (
  SELECT p1.doc_id, p1.w AS w1, p2.w AS w2
  FROM pos p1 JOIN pos p2 ON p1.doc_id = p2.doc_id AND p2.i = p1.i + 1
), bc AS (
  SELECT w1, w2, count(*) AS c FROM big GROUP BY w1, w2
), c1 AS (
  SELECT w1, CAST(sum(c) AS DOUBLE) AS c1 FROM bc GROUP BY w1
), n1f AS (
  SELECT w1, CAST(count(*) AS DOUBLE) AS nf FROM bc GROUP BY w1
), n1b AS (
  SELECT w2, CAST(count(*) AS DOUBLE) AS nb FROM bc GROUP BY w2
), nt AS (
  SELECT CAST(count(*) AS DOUBLE) AS nt FROM bc
)
SELECT b.doc_id, CAST(count(*) AS BIGINT) AS n_bigrams,
       round(-avg(ln(
         greatest(bc.c - {_KN_D}, 0.0) / c1.c1
         + {_KN_D} * n1f.nf / c1.c1 * (n1b.nb / nt.nt)
       )), 9) AS avg_nll
FROM big b JOIN bc USING (w1, w2) JOIN c1 USING (w1)
JOIN n1f USING (w1) JOIN n1b USING (w2) CROSS JOIN nt
GROUP BY b.doc_id
"""


# ---------------------------------------------------------------------------
# Gopher-style repetition quality stats (Rae et al. 2021, App. A1).  The
# corpus has no line structure, so the signals are word-level: the
# duplicate-word fraction and the character mass of the most repeated
# word 2-gram.  Map-only (one pass, no shuffle) — the canonical shape
# for per-doc quality filters at 100 TB.  Ratios are single divisions of
# exact integers so the DuckDB replay is bit-identical.
# ---------------------------------------------------------------------------
_REPETITIVE_TOP2_FRAC = 0.08  # splits the synthetic corpus ~46/54


def q_doc_repetition_stats(sf_dir: str):
    from ..functions.quality import repetition_signals

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def body(batch: pa.Table) -> pd.DataFrame:
        n_words, n_distinct, dup_frac, top2, rep = [], [], [], [], []
        for text in batch["text"].to_pylist():
            sig = repetition_signals(text)
            n_words.append(sig["n_words"])
            n_distinct.append(sig["n_distinct"])
            dup_frac.append(sig["dup_word_frac"])
            top2.append(sig["top2_char_frac"])
            rep.append(sig["top2_char_frac"] > _REPETITIVE_TOP2_FRAC)
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_pandas(),
                "n_words": pd.Series(n_words, dtype="int64"),
                "n_distinct_words": pd.Series(n_distinct, dtype="int64"),
                "dup_word_frac": pd.Series(dup_frac, dtype="float64"),
                "top2gram_char_frac": pd.Series(top2, dtype="float64"),
                "repetitive": pd.Series(rep, dtype="bool"),
            }
        )

    return ds.map_batches(body, batch_format="pyarrow")


SQL_DOC_REPETITION_STATS = f"""
WITH base AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS ws
  FROM documents
), sizes AS (
  SELECT doc_id, ws,
         len(ws) AS n_words,
         len(list_distinct(ws)) AS n_distinct,
         length(array_to_string(ws, '')) AS total_chars
  FROM base
), grams AS (
  SELECT doc_id,
         ws[CAST(i AS INT)] AS w1, ws[CAST(i AS INT) + 1] AS w2
  FROM sizes, unnest(range(1, len(ws))) AS t(i)
  WHERE n_words >= 2
), gc AS (
  SELECT doc_id, max(c * chars) AS cov
  FROM (
    SELECT doc_id, w1, w2, count(*) AS c,
           length(w1) + length(w2) AS chars
    FROM grams GROUP BY doc_id, w1, w2
  ) GROUP BY doc_id
)
SELECT s.doc_id,
       CAST(s.n_words AS BIGINT) AS n_words,
       CAST(s.n_distinct AS BIGINT) AS n_distinct_words,
       CASE WHEN s.n_words > 0
            THEN CAST(s.n_words - s.n_distinct AS DOUBLE) / s.n_words
            ELSE 0.0 END AS dup_word_frac,
       CASE WHEN s.total_chars > 0
            THEN CAST(coalesce(g.cov, 0) AS DOUBLE) / s.total_chars
            ELSE 0.0 END AS top2gram_char_frac,
       (CASE WHEN s.total_chars > 0
             THEN CAST(coalesce(g.cov, 0) AS DOUBLE) / s.total_chars
             ELSE 0.0 END) > {_REPETITIVE_TOP2_FRAC} AS repetitive
FROM sizes s LEFT JOIN gc g ON g.doc_id = s.doc_id
"""


# ---------------------------------------------------------------------------
# Video frame sampling round-trip: synthesize media payloads from the
# documents table, explode every video into stride-2 frame images (a task
# map of ``multimodal.sample_frames_batch``), then DECODE
# each emitted frame payload and summarize it — so the oracle pins the
# full encode -> explode -> re-encode -> decode chain, not just row
# counts.  mean_luma = byte_sum / 256.0 is a power-of-two division
# (exact in both numpy and DuckDB).
# ---------------------------------------------------------------------------
def q_frame_sample(sf_dir: str):
    from ..stages.multimodal import (
        _decode_payload,
        media_from_text_batch,
        sample_video_frames,
    )

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    media = docs.map_batches(media_from_text_batch, batch_format="pyarrow")
    frames = sample_video_frames(media, stride=2, batch_size=64)

    def summarize(batch: pa.Table) -> pd.DataFrame:
        ids, fidx, sums, means = [], [], [], []
        for mid, fi, payload in zip(
            batch["media_id"].to_pylist(),
            batch["frame_idx"].to_pylist(),
            batch["payload"].to_pylist(),
        ):
            kind, arr, _ = _decode_payload(payload)
            assert kind == "image"
            s = int(arr[..., 0].astype(np.int64).sum())
            ids.append(mid)
            fidx.append(int(fi))
            sums.append(s)
            means.append(s / 256.0)
        return pd.DataFrame(
            {
                "media_id": pd.Series(ids, dtype="object"),
                "frame_idx": pd.Series(fidx, dtype="int64"),
                "byte_sum": pd.Series(sums, dtype="int64"),
                "mean_luma": pd.Series(means, dtype="float64"),
            }
        )

    return frames.map_batches(summarize, batch_format="pyarrow")


SQL_FRAME_SAMPLE = """
WITH b AS (
  SELECT CAST(doc_id AS VARCHAR) AS media_id,
         list_transform(range(1, length(text) + 1),
                        i -> unicode(substr(text, CAST(i AS INT), 1))) AS bts,
         length(text) AS m
  FROM documents WHERE doc_id % 3 = 2
)
SELECT media_id, CAST(j // 256 AS BIGINT) AS frame_idx,
       CAST(sum(bts[CAST(j % m AS INT) + 1]) AS BIGINT) AS byte_sum,
       CAST(sum(bts[CAST(j % m AS INT) + 1]) AS DOUBLE) / 256.0 AS mean_luma
FROM b, unnest(range(0, 2048)) AS t(j)
WHERE (j // 256) % 2 = 0
GROUP BY media_id, j // 256
"""


# ---------------------------------------------------------------------------
# Image resize round-trip: the last of the four multimodal kernels
# (decode / featurize / frame-sample / RESIZE) to earn an oracle.
# Image payloads run through ``multimodal.resize_batch`` (16x16x3 ->
# 8x8x3 nearest-neighbor subsample, re-encoded with the fake codec),
# then each resized payload is decoded and digested.  The
# position-weighted sum pins the exact pixel ORDER, which a plain byte
# sum cannot; the SQL replays the subsample index arithmetic
# (flat source index of resized j = ((2*(j//24))*16 + 2*((j//3)%8))*3
# + j%3, tiled over the text bytes).
# ---------------------------------------------------------------------------
def q_resize_digest(sf_dir: str):
    from ..stages.multimodal import (
        _decode_payload,
        media_from_text_batch,
        resize_batch,
    )

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    media = docs.map_batches(media_from_text_batch, batch_format="pyarrow")
    resized = media.map_batches(
        resize_batch,
        fn_kwargs={"out_h": 8, "out_w": 8},
        batch_format="pyarrow",
        batch_size=64,
    )

    def digest(batch: pa.Table) -> pd.DataFrame:
        ids, sums, wsums = [], [], []
        for mid, kind, payload in zip(
            batch["media_id"].to_pylist(),
            batch["media_type"].to_pylist(),
            batch["payload"].to_pylist(),
        ):
            if kind != "image":
                continue
            k, arr, _ = _decode_payload(payload)
            assert k == "image" and arr.shape == (8, 8, 3)
            flat = arr.astype(np.int64).ravel()
            ids.append(mid)
            sums.append(int(flat.sum()))
            wsums.append(int((np.arange(flat.size) * flat).sum()))
        return pd.DataFrame(
            {
                "media_id": pd.Series(ids, dtype="object"),
                "byte_sum": pd.Series(sums, dtype="int64"),
                "pos_weighted_sum": pd.Series(wsums, dtype="int64"),
            }
        )

    return resized.map_batches(digest, batch_format="pyarrow")


SQL_RESIZE_DIGEST = """
WITH b AS (
  SELECT CAST(doc_id AS VARCHAR) AS media_id,
         list_transform(range(1, length(text) + 1),
                        i -> unicode(substr(text, CAST(i AS INT), 1))) AS bts,
         length(text) AS m
  FROM documents WHERE doc_id % 3 = 0
), px AS (
  SELECT media_id, j,
         bts[CAST((((2 * (j // 24)) * 16 + 2 * ((j // 3) % 8)) * 3 + j % 3)
                  % m AS INT) + 1] AS byte
  FROM b, unnest(range(0, 192)) AS t(j)
)
SELECT media_id,
       CAST(sum(byte) AS BIGINT) AS byte_sum,
       CAST(sum(j * byte) AS BIGINT) AS pos_weighted_sum
FROM px GROUP BY media_id
"""


# ---------------------------------------------------------------------------
# Deterministic sharded global shuffle — the "shuffle the corpus before
# training" step.  Shard assignment is a map-only md5 mod; the position
# within a shard is a rank in md5 order, computed with one bucketed
# co-partition (each bucket holds whole shards).  At 100 TB, n_shards
# scales with the corpus so a single shard fits one worker's memory;
# shard files are then written independently (resumable, one output
# partition per shard).  md5(doc_id) is collision-free on ids, so the
# ordering — and the oracle's ROW_NUMBER replay — is total.
# ---------------------------------------------------------------------------
_SHUFFLE_N_SHARDS = 16


def q_shuffle_shards(sf_dir: str, n_shards: int = _SHUFFLE_N_SHARDS):
    """NOTE: the registry oracle replays the DEFAULT n_shards — callers
    passing another value (the deployment knob: scale n_shards so one
    shard fits one worker) get the same semantics but must not compare
    against SQL_SHUFFLE_SHARDS (same convention as q_session_window's
    gap_minutes and q_embedding_dup's threshold)."""
    from ..stages.bucketed import bucketed_map_groups

    ds = _read(sf_dir, "documents", ["doc_id"])

    def tag(batch: pa.Table) -> pd.DataFrame:
        df = batch.to_pandas()
        hexes = [hashlib.md5(str(d).encode()).hexdigest() for d in df["doc_id"]]
        df["h"] = pd.Series(hexes, dtype="object")
        df["shard"] = pd.Series(
            [int(h[:8], 16) % n_shards for h in hexes], dtype="int64"
        )
        return df

    tagged = ds.map_batches(tag, batch_format="pyarrow")

    def rank_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["shard", "h"], kind="mergesort")
        df["pos"] = df.groupby("shard").cumcount().astype("int64")
        return df[["doc_id", "shard", "pos"]]

    return bucketed_map_groups(tagged, "shard", rank_bucket, n_buckets=n_shards)


SQL_SHUFFLE_SHARDS = f"""
WITH h AS (
  SELECT doc_id, md5(CAST(doc_id AS VARCHAR)) AS hx,
         CAST(CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8)) AS UBIGINT)
              % {_SHUFFLE_N_SHARDS} AS BIGINT) AS shard
  FROM documents
)
SELECT doc_id, shard,
       CAST(row_number() OVER (PARTITION BY shard ORDER BY hx) - 1 AS BIGINT) AS pos
FROM h
"""


# ---------------------------------------------------------------------------
# CCNet-style perplexity bucketing (Wenzek et al. 2020, arXiv:1911.00359):
# score every document under ITS OWN language's LM and split each language
# into head / middle / tail quality buckets at score quantiles — CCNet's
# signature curation move.  The in-corpus add-one bigram model stands in
# for the paper's pretrained KenLM (same fit as bigram_logprob, keyed by
# lang), and the cuts sit at P25/P75 (dyadic interpolation weights, so
# numpy and quantile_cont agree bit-for-bit — the quality_quantile_filter
# lesson) instead of CCNet's equal thirds (1/3 is not dyadic).
# Plan: model fit = bounded (lang,w1,w2) count partials + driver reduce +
# broadcast; scoring = one map-only pass (scores 9-rounded, the
# bigram_logprob convention that absorbs sum-order ulps); thresholds =
# exact per-lang quantiles of the scores (driver collect of 2 scalars per
# doc — at 100 TB calibrate them on a hash-sample quantile instead, the
# dsir_select note; the assign pass is unchanged); bucket assign =
# map-only vs the broadcast threshold dict.  Low avg_nll = head.
# ---------------------------------------------------------------------------
def q_perplexity_buckets(sf_dir: str):
    ds = _read(sf_dir, "documents", ["doc_id", "lang", "text"])

    def fit_partial(batch: pa.Table) -> pd.DataFrame:
        rows: dict = {}
        vocab: set = set()
        for lang, t in zip(
            batch["lang"].to_pylist(), batch["text"].to_pylist()
        ):
            ws = [w for w in t.split(" ") if w]
            vocab.update((lang, w) for w in ws)
            for a, b in zip(ws, ws[1:]):
                k = (lang, a, b)
                rows[k] = rows.get(k, 0) + 1
        marks = sorted(vocab)
        return pd.DataFrame(
            {
                "lang": [k[0] for k in rows] + [m[0] for m in marks],
                "w1": [k[1] for k in rows] + [m[1] for m in marks],
                "w2": [k[2] for k in rows] + [""] * len(marks),
                "c": pd.Series(
                    list(rows.values()) + [0] * len(marks), dtype="int64"
                ),
            }
        )

    parts = ds.map_batches(fit_partial, batch_format="pyarrow").to_pandas()
    vocab_rows = parts[parts["w2"] == ""]
    bc = (
        parts[parts["w2"] != ""]
        .groupby(["lang", "w1", "w2"], as_index=False)["c"]
        .sum()
    )
    models: dict = {}
    for lang, g in bc.groupby("lang"):
        c1 = g.groupby("w1")["c"].sum()
        models[lang] = {
            "bc": {
                (a, b): int(c)
                for a, b, c in zip(g["w1"], g["w2"], g["c"])
            },
            "c1": dict(zip(c1.index, c1.astype(int))),
            "v": int(
                vocab_rows.loc[vocab_rows["lang"] == lang, "w1"].nunique()
            ),
        }
    model_ref = ray.put(models)

    def score(batch: pa.Table) -> pd.DataFrame:
        ms = _broadcast_get(model_ref)
        ids, langs, nll = [], [], []
        for did, lang, t in zip(
            batch["doc_id"].to_pylist(),
            batch["lang"].to_pylist(),
            batch["text"].to_pylist(),
        ):
            ws = [w for w in t.split(" ") if w]
            if len(ws) < 2:
                continue
            m = ms[lang]
            bcm, c1m, v = m["bc"], m["c1"], m["v"]
            s = 0.0
            for a, b in zip(ws, ws[1:]):
                s += np.log((bcm.get((a, b), 0) + 1.0) / (c1m.get(a, 0) + v))
            ids.append(did)
            langs.append(lang)
            nll.append(-s / (len(ws) - 1))
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "lang": pd.Series(langs, dtype="object"),
                "avg_nll": pd.Series(nll, dtype="float64").round(9),
            }
        )

    scored = ds.map_batches(score, batch_format="pyarrow").materialize()

    def _interp_quantile(vals: np.ndarray, q: float) -> float:
        p = q * (len(vals) - 1)
        lo_i = int(np.floor(p))
        hi_i = int(np.ceil(p))
        return float(vals[lo_i] + (vals[hi_i] - vals[lo_i]) * (p - lo_i))

    sc = scored.to_pandas()
    thr = {}
    for lang, g in sc.groupby("lang"):
        vals = np.sort(g["avg_nll"].to_numpy("float64"))
        thr[lang] = (
            _interp_quantile(vals, 0.25),
            _interp_quantile(vals, 0.75),
        )
    thr_ref = ray.put(thr)

    def assign(batch: pa.Table) -> pd.DataFrame:
        t = _broadcast_get(thr_ref)
        df = batch.to_pandas()
        q25 = df["lang"].map({k: v[0] for k, v in t.items()}).to_numpy(
            "float64"
        )
        q75 = df["lang"].map({k: v[1] for k, v in t.items()}).to_numpy(
            "float64"
        )
        s = df["avg_nll"].to_numpy("float64")
        df["bucket"] = np.where(
            s <= q25, "head", np.where(s <= q75, "middle", "tail")
        )
        return df

    return scored.map_batches(assign, batch_format="pyarrow")


SQL_PERPLEXITY_BUCKETS = """
WITH toks AS (
  SELECT doc_id, lang, regexp_extract_all(text, '[^ ]+') AS ts FROM documents
), pos AS (
  SELECT doc_id, lang, i, ts[i + 1] AS w
  FROM toks, unnest(range(0, len(ts))) AS t(i)
), big AS (
  SELECT p1.doc_id, p1.lang, p1.w AS w1, p2.w AS w2
  FROM pos p1 JOIN pos p2 ON p1.doc_id = p2.doc_id AND p2.i = p1.i + 1
), bc AS (
  SELECT lang, w1, w2, count(*) AS c FROM big GROUP BY lang, w1, w2
), c1 AS (
  SELECT lang, w1, sum(c) AS c1 FROM bc GROUP BY lang, w1
), v AS (
  SELECT lang, count(DISTINCT w) AS v FROM pos GROUP BY lang
), scores AS (
  SELECT b.doc_id, b.lang,
         round(-avg(ln((bc.c + 1.0) / (c1.c1 + v.v))), 9) AS avg_nll
  FROM big b JOIN bc USING (lang, w1, w2) JOIN c1 USING (lang, w1)
       JOIN v USING (lang)
  GROUP BY b.doc_id, b.lang
), q AS (
  SELECT lang, quantile_cont(avg_nll, 0.25) AS q25,
               quantile_cont(avg_nll, 0.75) AS q75
  FROM scores GROUP BY lang
)
SELECT s.doc_id, s.lang, s.avg_nll,
       CASE WHEN s.avg_nll <= q.q25 THEN 'head'
            WHEN s.avg_nll <= q.q75 THEN 'middle'
            ELSE 'tail' END AS bucket
FROM scores s JOIN q USING (lang)
"""


# ---------------------------------------------------------------------------
# Mergeable histogram quantile sketch — GLOBAL approximate quantiles of
# events.value in two streaming passes with bounded state (min/max/n
# partials, then B=256 equi-width bin-count partials + driver reduce),
# the scale path the exact per-user quantiles' bucketed sort cannot give
# for a corpus-wide statistic.  Everything runs in int64 cents (the
# user_value_quantiles convention) so every bin edge, rank and
# interpolated estimate is pure integer arithmetic the SQL oracle
# replays bit-for-bit; error is bounded by one bin width (pinned by
# test against the exact quantile).  Rank convention: k = pct*(n-1)//100
# (0-indexed lower rank); within the selected bin the estimate
# interpolates integer-linearly between the bin's edges.
# ---------------------------------------------------------------------------
_AQH_BINS = 256
_AQH_PCTS = (25, 50, 75, 90, 99)


def q_approx_quantile_hist(sf_dir: str):
    ds = _read(sf_dir, "events", ["value"])

    def _cents(batch: pa.Table) -> np.ndarray:
        v = batch["value"].to_numpy(zero_copy_only=False)
        return np.rint(v * 100).astype("int64")

    def mm_partial(batch: pa.Table) -> pd.DataFrame:
        v = _cents(batch)
        if len(v) == 0:
            return pd.DataFrame(
                {c: pd.Series([], dtype="int64") for c in ("vmin", "vmax", "n")}
            )
        return pd.DataFrame(
            {
                "vmin": pd.Series([v.min()], dtype="int64"),
                "vmax": pd.Series([v.max()], dtype="int64"),
                "n": pd.Series([len(v)], dtype="int64"),
            }
        )

    mm = ds.map_batches(mm_partial, batch_format="pyarrow").to_pandas()
    vmin = int(mm["vmin"].min())
    vmax = int(mm["vmax"].max())
    n = int(mm["n"].sum())
    span = vmax - vmin + 1

    def hist_partial(batch: pa.Table) -> pd.DataFrame:
        v = _cents(batch)
        idx = (v - vmin) * _AQH_BINS // span
        binc = np.bincount(idx, minlength=_AQH_BINS)
        nz = np.flatnonzero(binc)
        return pd.DataFrame(
            {
                "bin_idx": pd.Series(nz, dtype="int64"),
                "cnt": pd.Series(binc[nz], dtype="int64"),
            }
        )

    hist = _driver_reduce(
        ds.map_batches(hist_partial, batch_format="pyarrow"),
        ["bin_idx"],
        ["cnt"],
    )
    idxs = hist["bin_idx"].to_numpy("int64")
    cnts = hist["cnt"].to_numpy("int64")
    cumb = np.cumsum(cnts) - cnts

    rows = []
    for pct in _AQH_PCTS:
        k = pct * (n - 1) // 100
        j = int(np.searchsorted(cumb + cnts, k, side="right"))
        bi, cb, ct = int(idxs[j]), int(cumb[j]), int(cnts[j])
        lo = vmin + bi * span // _AQH_BINS
        hi = vmin + (bi + 1) * span // _AQH_BINS
        est = lo + (k - cb) * (hi - lo) // ct
        rows.append((pct, k, bi, est))
    return pd.DataFrame(
        {
            "pct": pd.Series([r[0] for r in rows], dtype="int64"),
            "rank_k": pd.Series([r[1] for r in rows], dtype="int64"),
            "bin_idx": pd.Series([r[2] for r in rows], dtype="int64"),
            "est_cents": pd.Series([r[3] for r in rows], dtype="int64"),
        }
    )


SQL_APPROX_QUANTILE_HIST = f"""
WITH c AS (
  SELECT CAST(round(value * 100) AS BIGINT) AS v FROM events
), mm AS (
  SELECT min(v) AS vmin, max(v) AS vmax, count(*) AS n,
         max(v) - min(v) + 1 AS span
  FROM c
), h AS (
  SELECT (c.v - mm.vmin) * {_AQH_BINS} // mm.span AS bin_idx,
         count(*) AS cnt
  FROM c, mm GROUP BY 1
), cum AS (
  SELECT bin_idx, cnt,
         CAST(sum(cnt) OVER (ORDER BY bin_idx) - cnt AS BIGINT) AS cumb
  FROM h
), ks AS (
  SELECT t.pct, t.pct * (mm.n - 1) // 100 AS k
  FROM (SELECT unnest([{', '.join(str(p) for p in _AQH_PCTS)}]) AS pct) t, mm
)
SELECT CAST(ks.pct AS BIGINT) AS pct,
       CAST(ks.k AS BIGINT) AS rank_k,
       CAST(cum.bin_idx AS BIGINT) AS bin_idx,
       CAST((mm.vmin + cum.bin_idx * mm.span // {_AQH_BINS})
            + (ks.k - cum.cumb)
              * ((mm.vmin + (cum.bin_idx + 1) * mm.span // {_AQH_BINS})
                 - (mm.vmin + cum.bin_idx * mm.span // {_AQH_BINS}))
              // cum.cnt
            AS BIGINT) AS est_cents
FROM ks JOIN cum ON ks.k >= cum.cumb AND ks.k < cum.cumb + cum.cnt
CROSS JOIN mm
"""


# ---------------------------------------------------------------------------
# Context-window chunking — the RAG / pretraining chunking op: cut each
# document's whitespace-token stream into fixed-size windows with a
# fixed stride (overlap = window - stride), the standard preparation for
# embedding indexes and for context-window training sets.  Map-only
# (zero shuffles): a document's chunks are derived entirely from its own
# row, so the op streams at any corpus size.  The tail rule is the
# closed-form convention: a document emits
# ``1 if n <= W else ceil((n - W) / S) + 1`` windows — the last window
# always reaches the end of the document and no window starts after the
# end, so no emitted chunk is a strict subset of its predecessor.
# ---------------------------------------------------------------------------
_CHUNK_W = 64  # window size (tokens)
_CHUNK_S = 48  # stride (tokens); overlap = 16


def _chunk_starts(n: int, w: int = _CHUNK_W, s: int = _CHUNK_S) -> range:
    import math

    n_chunks = 1 if n <= w else math.ceil((n - w) / s) + 1
    return range(0, n_chunks * s, s)


def q_chunk_windows(sf_dir: str):
    """Fixed-size overlapping token windows per document (W=64, S=48)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def body(batch: pa.Table) -> pa.Table:
        out_doc, out_idx, out_n, out_text = [], [], [], []
        for did, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            toks = [w for w in text.split(" ") if w]
            n = len(toks)
            if n == 0:
                continue
            for ci, start in enumerate(_chunk_starts(n)):
                cs = toks[start : start + _CHUNK_W]
                out_doc.append(did)
                out_idx.append(ci)
                out_n.append(len(cs))
                out_text.append(" ".join(cs))
        return pa.table(
            {
                "doc_id": pa.array(out_doc, type=batch["doc_id"].type),
                "chunk_idx": pa.array(out_idx, type=pa.int64()),
                "n_tokens": pa.array(out_n, type=pa.int64()),
                "text": pa.array(out_text, type=pa.string()),
            }
        )

    return ds.map_batches(body, batch_format="pyarrow")


SQL_CHUNK_WINDOWS = f"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(text, '[^ ]+') AS ts FROM documents
), sized AS (
  SELECT doc_id, ts, len(ts) AS n FROM toks WHERE len(ts) > 0
), chunks AS (
  SELECT doc_id, CAST(i AS BIGINT) AS chunk_idx,
         list_slice(ts, CAST(i AS BIGINT) * {_CHUNK_S} + 1,
                        CAST(i AS BIGINT) * {_CHUNK_S} + {_CHUNK_W}) AS cs
  FROM sized,
       unnest(range(0, CASE WHEN n <= {_CHUNK_W} THEN 1
                            ELSE CAST(ceil((n - {_CHUNK_W}) / {_CHUNK_S}.0)
                                      AS BIGINT) + 1
                       END)) AS t(i)
)
SELECT doc_id, chunk_idx,
       CAST(len(cs) AS BIGINT) AS n_tokens,
       array_to_string(cs, ' ') AS text
FROM chunks
"""


# ---------------------------------------------------------------------------
# Character-entropy quality signal — Shannon entropy of each document's
# character distribution, the classic junk/low-information detector
# (machine-generated spam and binary-garbage pages sit at the entropy
# extremes).  Map-only, vectorized (Counter is C-speed over the string;
# entropy from the integer count vector in one numpy expression).
# Summation-order float noise between numpy and DuckDB's SUM is ~1e-15
# and absorbed by the checker's 9-decimal rounding (the tfidf precedent:
# np.log vs ln agree post-rounding).  Empty documents are excluded on
# both sides (no character distribution exists).
# ---------------------------------------------------------------------------
def q_char_entropy(sf_dir: str):
    from collections import Counter

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def body(batch: pa.Table) -> pa.Table:
        keep_doc, n_chars, n_distinct, ent = [], [], [], []
        for did, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            if not text:
                continue
            counts = np.fromiter(
                Counter(text).values(), dtype=np.float64
            )
            n = counts.sum()
            p = counts / n
            keep_doc.append(did)
            n_chars.append(int(n))
            n_distinct.append(len(counts))
            ent.append(float(-(p * np.log2(p)).sum()))
        return pa.table(
            {
                "doc_id": pa.array(keep_doc, type=batch["doc_id"].type),
                "n_chars": pa.array(n_chars, type=pa.int64()),
                "n_distinct_chars": pa.array(n_distinct, type=pa.int64()),
                "char_entropy": pa.array(ent, type=pa.float64()),
            }
        )

    return ds.map_batches(body, batch_format="pyarrow")


SQL_CHAR_ENTROPY = """
WITH chars AS (
  SELECT doc_id, substr(text, CAST(i AS BIGINT), 1) AS ch
  FROM documents, unnest(range(1, length(text) + 1)) AS t(i)
), counts AS (
  SELECT doc_id, ch, count(*) AS c FROM chars GROUP BY doc_id, ch
), tot AS (
  SELECT doc_id, sum(c) AS n, count(*) AS k FROM counts GROUP BY doc_id
)
SELECT c.doc_id,
       CAST(t.n AS BIGINT) AS n_chars,
       CAST(t.k AS BIGINT) AS n_distinct_chars,
       -sum((CAST(c.c AS DOUBLE) / t.n) * log2(CAST(c.c AS DOUBLE) / t.n))
         AS char_entropy
FROM counts c JOIN tot t ON c.doc_id = t.doc_id
GROUP BY c.doc_id, t.n, t.k
"""


# ---------------------------------------------------------------------------
# PMI co-occurrence mining — the word-association table behind
# word2vec/GloVe-style corpus preprocessing: count ordered token pairs
# within a forward window of 2 positions inside each document, then rank
# pairs by pointwise mutual information
# ln((c12/P) / ((c1/N)*(c2/N))), keeping pairs seen >= 5 times.
# Engine plan: batch-local (pair, count) + (token, count) partials (one
# dict pass per batch, the mergeable-partials shape shared with
# bigram_logprob) -> driver reduce of the vocab-bounded count tables ->
# vectorized PMI + top-k.  At open-web scale the reduce becomes a
# bucketed groupby on the pair key (the tfidf df-attach routing); the
# synthetic corpus vocab is bounded so the driver route is the
# measured one.  Floats: both engines evaluate the identical
# left-to-right double expression, so round-9 values match bit-for-bit
# (the avg_nll precedent).
# ---------------------------------------------------------------------------
_PMI_WINDOW = 2     # forward co-occurrence distance
_PMI_MIN_COUNT = 5  # pair support floor
_PMI_TOPK = 100


def q_pmi_cooccur(sf_dir: str):
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        pairs: dict = {}
        unis: dict = {}
        for t in batch["text"].to_pylist():
            ws = [w for w in t.split(" ") if w]
            for w in ws:
                unis[w] = unis.get(w, 0) + 1
            for d in range(1, _PMI_WINDOW + 1):
                for a, b in zip(ws, ws[d:]):
                    pairs[(a, b)] = pairs.get((a, b), 0) + 1
        return pd.DataFrame(
            {
                "w1": [k[0] for k in pairs] + list(unis),
                "w2": [k[1] for k in pairs] + [""] * len(unis),
                "c": pd.Series(
                    list(pairs.values()) + list(unis.values()), dtype="int64"
                ),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    uni = (
        parts[parts["w2"] == ""]
        .groupby("w1", as_index=False)["c"]
        .sum()
        .rename(columns={"w1": "w", "c": "cu"})
    )
    pc = (
        parts[parts["w2"] != ""]
        .groupby(["w1", "w2"], as_index=False)["c"]
        .sum()
    )
    n_tok = float(uni["cu"].sum())
    n_pair = float(pc["c"].sum())
    pc = pc[pc["c"] >= _PMI_MIN_COUNT]
    pc = pc.merge(
        uni.rename(columns={"w": "w1", "cu": "c1"}), on="w1"
    ).merge(uni.rename(columns={"w": "w2", "cu": "c2"}), on="w2")
    c12 = pc["c"].to_numpy(dtype=np.float64)
    c1 = pc["c1"].to_numpy(dtype=np.float64)
    c2 = pc["c2"].to_numpy(dtype=np.float64)
    pmi = np.round(np.log((c12 * n_tok * n_tok) / (n_pair * c1 * c2)), 9)
    out = pd.DataFrame(
        {
            "w1": pc["w1"].to_numpy(),
            "w2": pc["w2"].to_numpy(),
            "pair_count": pc["c"].astype("int64").to_numpy(),
            "pmi": pmi,
        }
    )
    out = out.sort_values(
        ["pmi", "w1", "w2"], ascending=[False, True, True], kind="mergesort"
    ).head(_PMI_TOPK)
    return out.reset_index(drop=True)


SQL_PMI_COOCCUR = f"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(text, '[^ ]+') AS ts FROM documents
), pos AS (
  SELECT doc_id, i, ts[i + 1] AS w
  FROM toks, unnest(range(0, len(ts))) AS t(i)
), n AS (
  SELECT CAST(count(*) AS DOUBLE) AS n FROM pos
), pairs AS (
  SELECT p1.w AS w1, p2.w AS w2
  FROM pos p1 JOIN pos p2
    ON p1.doc_id = p2.doc_id AND p2.i - p1.i BETWEEN 1 AND {_PMI_WINDOW}
), ptot AS (
  SELECT CAST(count(*) AS DOUBLE) AS p FROM pairs
), pc AS (
  SELECT w1, w2, count(*) AS c12 FROM pairs GROUP BY w1, w2
), uc AS (
  SELECT w, CAST(count(*) AS DOUBLE) AS c FROM pos GROUP BY w
)
SELECT pc.w1, pc.w2, CAST(pc.c12 AS BIGINT) AS pair_count,
       round(ln((CAST(pc.c12 AS DOUBLE) * n.n * n.n)
                / (ptot.p * u1.c * u2.c)), 9) AS pmi
FROM pc
JOIN uc u1 ON u1.w = pc.w1
JOIN uc u2 ON u2.w = pc.w2
CROSS JOIN n CROSS JOIN ptot
WHERE pc.c12 >= {_PMI_MIN_COUNT}
ORDER BY pmi DESC, pc.w1, pc.w2
LIMIT {_PMI_TOPK}
"""


# ---------------------------------------------------------------------------
# Winnowing fingerprints (Schleimer, Wilkerson & Aiken 2003 — the MOSS
# selection rule): hash every char k-gram, slide a w-window over the
# hash sequence, and select the RIGHTMOST minimal hash of each window;
# the deduplicated selections are the document's fingerprint.  The
# guarantee the paper proves: any shared substring of length >= k+w-1
# contributes at least one common selected hash, at expected density
# 2/(w+1) — the local-sampling step under MOSS-style plagiarism /
# near-dup detection.  Map-only (each doc fingerprints itself); the
# output is a per-doc digest (count, min, xor of selected hashes) so
# downstream joins ship 4 scalars per doc, not the selection set.
# Docs shorter than k have no grams and are excluded on both sides;
# docs with fewer than w grams use the single partial window (global
# rightmost-min).  Hashes are 60-bit md5 prefixes -> int64-safe, and
# count/min/xor are integer-exact, so the DuckDB replay is
# bit-identical.  Per-gram md5 is the hot cost (same deploy caveat as
# exactsubstr/dsir: swap in a vectorized rolling hash if it binds).
# ---------------------------------------------------------------------------
_WINNOW_K = 8  # char k-gram length
_WINNOW_W = 4  # winnowing window (grams)


def _winnow_positions(hs: "np.ndarray", w: int = _WINNOW_W) -> "np.ndarray":
    """Selected gram positions: rightmost argmin of each length-w window."""
    n = len(hs)
    if n <= w:
        return np.array([n - 1 - int(np.argmin(hs[::-1]))], dtype=np.int64)
    views = np.lib.stride_tricks.sliding_window_view(hs, w)
    right_amin = (w - 1) - np.argmin(views[:, ::-1], axis=1)
    return np.unique(right_amin + np.arange(n - w + 1))


def q_winnow_fingerprint(sf_dir: str):
    import hashlib as _hl

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def body(batch: pa.Table) -> pd.DataFrame:
        ids, n_grams, n_sel, fp_min, fp_xor = [], [], [], [], []
        for did, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            ng = len(text) - _WINNOW_K + 1
            if ng <= 0:
                continue
            hs = np.fromiter(
                (
                    int(
                        _hl.md5(
                            text[i : i + _WINNOW_K].encode()
                        ).hexdigest()[:15],
                        16,
                    )
                    for i in range(ng)
                ),
                dtype=np.int64,
                count=ng,
            )
            sel = hs[_winnow_positions(hs)]
            ids.append(did)
            n_grams.append(ng)
            n_sel.append(len(sel))
            fp_min.append(int(sel.min()))
            fp_xor.append(int(np.bitwise_xor.reduce(sel)))
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "n_grams": pd.Series(n_grams, dtype="int64"),
                "n_selected": pd.Series(n_sel, dtype="int64"),
                "fp_min": pd.Series(fp_min, dtype="int64"),
                "fp_xor": pd.Series(fp_xor, dtype="int64"),
            }
        )

    return ds.map_batches(body, batch_format="pyarrow")


# constant series bound (this DuckDB's generate_series takes constants
# only, same constraint as SQL_EXACTSUBSTR_DEDUP): 65536 covers every
# testdata tier AND the synth skew fixtures (~21k chars); a doc longer
# than 65536 chars would silently truncate the ORACLE's gram stream
# (the engine is uncapped), so the bound is asserted generous.
SQL_WINNOW_FINGERPRINT = f"""
WITH series AS (
  SELECT CAST(t.i AS BIGINT) AS i FROM generate_series(0, 65535) AS t(i)
), g AS (
  SELECT d.doc_id, s.i AS j,
         CAST(CAST(concat('0x',
             substr(md5(substr(d.text, CAST(s.i + 1 AS INT), {_WINNOW_K})),
                    1, 15)) AS UBIGINT) AS BIGINT) AS h,
         len(d.text) - {_WINNOW_K} + 1 AS ng
  FROM documents d JOIN series s ON s.i <= len(d.text) - {_WINNOW_K}
), ngs AS (
  SELECT DISTINCT doc_id, ng FROM g
), wins AS (
  SELECT n.doc_id, s.i AS ws
  FROM ngs n JOIN series s ON s.i <= greatest(n.ng - {_WINNOW_W}, 0)
), cand AS (
  SELECT w.doc_id, w.ws, g.j, g.h,
         row_number() OVER (PARTITION BY w.doc_id, w.ws
                            ORDER BY g.h ASC, g.j DESC) AS rn
  FROM wins w JOIN g ON g.doc_id = w.doc_id
                    AND g.j BETWEEN w.ws AND w.ws + {_WINNOW_W} - 1
), sel AS (
  SELECT DISTINCT doc_id, j, h FROM cand WHERE rn = 1
), agg AS (
  SELECT doc_id, count(*) AS n_selected, min(h) AS fp_min,
         bit_xor(h) AS fp_xor
  FROM sel GROUP BY doc_id
)
SELECT n.doc_id,
       CAST(n.ng AS BIGINT) AS n_grams,
       CAST(a.n_selected AS BIGINT) AS n_selected,
       CAST(a.fp_min AS BIGINT) AS fp_min,
       CAST(a.fp_xor AS BIGINT) AS fp_xor
FROM ngs n JOIN agg a ON a.doc_id = n.doc_id
"""


# ---------------------------------------------------------------------------
# Random projection (Johnson-Lindenstrauss, Achlioptas-style ±1 signs) —
# the dimensionality-reduction step that precedes LSH bucketing or IVF
# coarse quantization at scale: project each embedding onto P=16
# deterministic ±1 directions.  The sign matrix derives from md5(j'-'d)
# parity, so every worker RECONSTRUCTS it locally (module-level memo,
# nothing shipped, no broadcast) and the SQL oracle derives the exact
# same matrix — map-only, zero shuffles, output is P floats per vector.
# Values are rounded to 6 decimals (the knn-cosine precedent): both
# engines sum the same 64 doubles in unspecified order, and 1e-15
# summation noise cannot reach the 1e-6 rounding granularity.
# ---------------------------------------------------------------------------
_RP_DIMS = 16
_RP_SIGN_CACHE: dict = {}


def _rp_sign_matrix(in_dims: int, out_dims: int = _RP_DIMS) -> "np.ndarray":
    import hashlib as _hl

    key = (in_dims, out_dims)
    if key not in _RP_SIGN_CACHE:
        m = np.empty((in_dims, out_dims), dtype=np.float64)
        for j in range(in_dims):
            for d in range(out_dims):
                v = int(_hl.md5(f"{j}-{d}".encode()).hexdigest()[:8], 16)
                m[j, d] = 1.0 - 2.0 * (v % 2)
        _RP_SIGN_CACHE[key] = m
    return _RP_SIGN_CACHE[key]


def q_rand_projection(sf_dir: str):
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def body(batch: pa.Table) -> pd.DataFrame:
        emb = np.stack(
            [np.asarray(e, dtype=np.float64) for e in
             batch["embedding"].to_pylist()]
        )
        proj = np.round(emb @ _rp_sign_matrix(emb.shape[1]), 6)
        n, p = proj.shape
        return pd.DataFrame(
            {
                "vec_id": np.repeat(
                    batch["vec_id"].to_numpy(zero_copy_only=False), p
                ),
                "dim": np.tile(np.arange(p, dtype=np.int64), n),
                "value": proj.reshape(-1),
            }
        )

    return ds.map_batches(body, batch_format="pyarrow")


# constant series bound: supports embedding widths up to 4096 (testdata
# is 64-dim); a wider vector would silently drop dims from the ORACLE's
# sums (the engine matmul is width-agnostic), so the bound is generous.
SQL_RAND_PROJECTION = f"""
WITH series AS (
  SELECT CAST(t.i AS BIGINT) AS i FROM generate_series(0, 4095) AS t(i)
), dims AS (
  SELECT i AS d FROM series WHERE i < {_RP_DIMS}
), width AS (
  SELECT len(embedding) AS w FROM embeddings LIMIT 1
), sgn AS (
  SELECT s.i AS j, dims.d,
         1.0 - 2.0 * (CAST(CAST(concat('0x',
             substr(md5(concat(CAST(s.i AS VARCHAR), '-',
                               CAST(dims.d AS VARCHAR))), 1, 8))
           AS UBIGINT) AS BIGINT) % 2) AS sg
  FROM series s CROSS JOIN dims, width
  WHERE s.i < width.w
)
SELECT e.vec_id, sgn.d AS dim,
       round(sum(CAST(e.embedding[CAST(sgn.j AS INT) + 1] AS DOUBLE)
                 * sgn.sg), 6) AS value
FROM embeddings e CROSS JOIN sgn
GROUP BY e.vec_id, sgn.d
"""


# ---------------------------------------------------------------------------
# Source-level MinHash overlap — corpus telemetry: one 64-perm MinHash
# sketch PER SOURCE (elementwise min over every document's shingle
# hashes, the same hash family as minhash_lsh_pairs), then pairwise
# estimated Jaccard between sources from matching sketch slots.  The
# canonical "how much do these two crawls/snapshots overlap" question
# answered in bounded state: partials are n_sources x 64 uint64 per
# batch (elementwise-min-mergeable), the driver reduce is S x 64, and
# no shingle ever crosses the wire — at 100 TB this is a single
# streaming pass.  est_jaccard = matches/64 is dyadic, so the DuckDB
# replay is bit-exact.
# ---------------------------------------------------------------------------
def q_source_minhash_overlap(sf_dir: str):
    from ..functions.fingerprint import minhash_signature, shingles
    from ..functions.tokenize import tokenize

    ds = _read(sf_dir, "documents", ["source", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        sigs: dict = {}
        for src, t in zip(
            batch["source"].to_pylist(), batch["text"].to_pylist()
        ):
            s = minhash_signature(shingles(tokenize(t), _MINHASH_NGRAM))
            cur = sigs.get(src)
            sigs[src] = s if cur is None else np.minimum(cur, s)
        return pa.table(
            {
                "source": pa.array(list(sigs), type=pa.string()),
                "sig": pa.array(
                    [v.tobytes() for v in sigs.values()], type=pa.binary()
                ),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    merged: dict = {}
    for src, blob in zip(parts["source"], parts["sig"]):
        s = np.frombuffer(blob, dtype=np.uint64)
        cur = merged.get(src)
        merged[src] = s if cur is None else np.minimum(cur, s)
    srcs = sorted(merged)
    rows = []
    for i, a in enumerate(srcs):
        for b in srcs[i + 1 :]:
            m = int((merged[a] == merged[b]).sum())
            rows.append((a, b, m, m / 64.0))
    return pd.DataFrame(
        rows, columns=["source_a", "source_b", "n_match", "est_jaccard"]
    ).astype({"n_match": "int64", "est_jaccard": "float64"})


SQL_SOURCE_MINHASH_OVERLAP = f"""
WITH {_sql_minhash_ctes(_MINHASH_NGRAM, key="source")}
SELECT a.source AS source_a, b.source AS source_b,
       CAST(len(list_filter(range(1, 65), i -> a.sig[i] = b.sig[i]))
            AS BIGINT) AS n_match,
       len(list_filter(range(1, 65), i -> a.sig[i] = b.sig[i])) / 64.0
         AS est_jaccard
FROM sig a JOIN sig b ON a.source < b.source
"""


# ---------------------------------------------------------------------------
# Bloom-filter decontamination — the fixed-size-membership variant of
# the broadcast exact-gram-set checks above: the eval side compiles to
# an m=65536-bit Bloom filter (4 hash slots cut straight from each
# gram's md5 hex — no extra hashing), so the shipped state is a
# constant 8 KB regardless of eval-set size, at the price of a bounded
# false-positive rate.  Build = per-batch distinct-position partials
# (bounded by m) + driver union + one broadcast; probe = map-only.
# This is the structure that replaces the exact broadcast set when the
# eval corpus itself is large (the 100 TB regime); the exact-set
# queries (contamination / decontam_frac) remain the precise siblings.
# Counts and the int/int hit fraction are exact, so the DuckDB replay
# is bit-identical (false positives replay identically too — the
# filter is deterministic).
# ---------------------------------------------------------------------------
_BLOOM_M = 65536
_BLOOM_SLOTS = 4  # md5 hex slices [0:8) [8:16) [16:24) [24:32)


def _bloom_positions(gram_hex: str) -> tuple:
    return tuple(
        int(gram_hex[8 * j : 8 * j + 8], 16) % _BLOOM_M
        for j in range(_BLOOM_SLOTS)
    )


def q_bloom_decontam(sf_dir: str, eval_max_doc_id: int = _EVAL_MAX_DOC_ID):
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def build_partial(batch: pa.Table) -> pd.DataFrame:
        pos = set()
        for did, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            if did >= eval_max_doc_id:
                continue
            for gh in _gram_hashes(text, _DECONTAM_K):
                pos.update(_bloom_positions(gh))
        return pd.DataFrame({"p": pd.Series(sorted(pos), dtype="int64")})

    parts = ds.map_batches(build_partial, batch_format="pyarrow").to_pandas()
    bits = np.zeros(_BLOOM_M, dtype=bool)
    bits[parts["p"].to_numpy()] = True
    ref = ray.put(bits)

    def probe(batch: pa.Table) -> pd.DataFrame:
        b = _broadcast_get(ref)
        ids, n_grams, n_hits = [], [], []
        for did, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            if did < eval_max_doc_id:
                continue
            grams = _gram_hashes(text, _DECONTAM_K)
            if not grams:
                continue
            h = sum(
                1
                for gh in grams
                if all(b[p] for p in _bloom_positions(gh))
            )
            ids.append(did)
            n_grams.append(len(grams))
            n_hits.append(h)
        out = pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "n_grams": pd.Series(n_grams, dtype="int64"),
                "n_bloom_hits": pd.Series(n_hits, dtype="int64"),
            }
        )
        out["bloom_hit_frac"] = (
            out["n_bloom_hits"].to_numpy(dtype=np.float64)
            / out["n_grams"].to_numpy(dtype=np.float64)
            if len(out)
            else pd.Series([], dtype="float64")
        )
        return out

    return ds.map_batches(probe, batch_format="pyarrow")


_BLOOM_POS_SQL = " , ".join(
    f"CAST(CAST(concat('0x', substr(gh, {8 * j + 1}, 8)) AS UBIGINT)"
    f" % {_BLOOM_M} AS BIGINT) AS p{j}"
    for j in range(_BLOOM_SLOTS)
)
_BLOOM_HIT_SQL = " AND ".join(
    f"p{j} IN (SELECT p FROM bits)" for j in range(_BLOOM_SLOTS)
)

SQL_BLOOM_DECONTAM = f"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(text, '[A-Za-z0-9]+') AS ts FROM documents
), g AS (
  SELECT doc_id,
         md5(array_to_string(list_slice(ts, i + 1, i + {_DECONTAM_K}), ' '))
           AS gh
  FROM toks,
       unnest(range(0, greatest(len(ts) - {_DECONTAM_K} + 1, 0))) AS t(i)
), pos AS (
  SELECT doc_id, {_BLOOM_POS_SQL} FROM g
), bits AS (
  SELECT DISTINCT p FROM (
    {" UNION ALL ".join(f"SELECT p{j} AS p FROM pos WHERE doc_id < {_EVAL_MAX_DOC_ID}" for j in range(_BLOOM_SLOTS))}
  )
), hit AS (
  SELECT doc_id, ({_BLOOM_HIT_SQL}) AS h
  FROM pos WHERE doc_id >= {_EVAL_MAX_DOC_ID}
)
SELECT doc_id,
       CAST(count(*) AS BIGINT) AS n_grams,
       CAST(count(*) FILTER (h) AS BIGINT) AS n_bloom_hits,
       CAST(count(*) FILTER (h) AS DOUBLE) / count(*) AS bloom_hit_frac
FROM hit GROUP BY doc_id
"""


# ---------------------------------------------------------------------------
# Weighted priority sampling (Efraimidis & Spirakis 2006) — k-item
# weighted sampling WITHOUT replacement in one streaming pass: each doc
# draws priority ln(u)/w (u an md5-derived uniform keyed on doc_id, the
# dsir_resample noise convention; w = token count) and the global top-K
# priorities ARE a weighted sample without replacement.  The classic
# one-pass alternative to rate-based sampling when per-item weights
# vary: per-block top-K partials (only a block's own top-K can
# survive) + a K-row driver reduce — bounded state at any corpus size.
# Deterministic noise makes the run reproducible and SQL-replayable
# (round-9 keys absorb numpy-vs-DuckDB ln noise, the dsir precedent).
# ---------------------------------------------------------------------------
_PRIORITY_K = 200


def q_priority_sample(sf_dir: str):
    import hashlib as _hl

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def score_topk(batch: pa.Table) -> pd.DataFrame:
        ids, ws = [], []
        for did, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            w = len([t for t in text.split(" ") if t])
            if w == 0:
                continue
            ids.append(did)
            ws.append(w)
        ids_arr = np.asarray(ids, dtype=np.int64)
        u = np.array(
            [
                int(_hl.md5(str(d).encode()).hexdigest()[:8], 16)
                for d in ids_arr
            ],
            dtype=np.float64,
        )
        pri = np.round(
            np.log((u + 0.5) / 4294967296.0)
            / np.asarray(ws, dtype=np.float64),
            9,
        )
        part = pd.DataFrame(
            {
                "doc_id": pd.Series(ids_arr, dtype="int64"),
                "n_tokens": pd.Series(ws, dtype="int64"),
                "priority": pd.Series(pri, dtype="float64"),
            }
        )
        return part.sort_values(
            ["priority", "doc_id"], ascending=[False, True]
        ).head(_PRIORITY_K)

    parts = ds.map_batches(score_topk, batch_format="pyarrow").to_pandas()
    return (
        parts.sort_values(["priority", "doc_id"], ascending=[False, True])
        .head(_PRIORITY_K)
        .reset_index(drop=True)
    )


SQL_PRIORITY_SAMPLE = f"""
WITH t AS (
  SELECT doc_id, len(regexp_extract_all(text, '[^ ]+')) AS w FROM documents
), k AS (
  SELECT doc_id, w,
         round(ln((CAST(CAST(concat('0x',
                    substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))
                  AS UBIGINT) AS DOUBLE) + 0.5) / 4294967296.0)
               / w, 9) AS priority
  FROM t WHERE w > 0
)
SELECT doc_id, CAST(w AS BIGINT) AS n_tokens, priority
FROM k ORDER BY priority DESC, doc_id LIMIT {_PRIORITY_K}
"""


# ---------------------------------------------------------------------------
# Per-document n-gram novelty (first-occurrence attribution): for each
# corpus document, the fraction of its DISTINCT k-token-gram hashes whose
# corpus-wide FIRST occurrence (min doc_id) is this document — the "how
# much new text does this doc add" telemetry that predicts exact/substr
# dedup yield and ranks documents by marginal data value (the corpus-level
# complement of repeated_ngrams' gram-level counts).  Plan: one map pass
# emits per-doc DISTINCT (gram_hash, doc_id) pairs (a doc lives in one
# batch row, so batch-local set() is exact), one gram-keyed co-partition
# marks each pair novel iff doc_id == min(doc_id) within its gram and
# pre-sums per doc INSIDE the bucket (second shuffle moves <= n_docs rows
# per bucket, not one row per gram), then a doc-keyed co-partition sums
# the partials.  At 100 TB the gram key would ship as a 16-byte hash
# prefix rather than 32-char hex (exactsubstr's stage-1 convention); both
# shuffles stay linear in corpus grams with no skew (md5 keys are
# uniform).  novelty_frac = int/int in IEEE double on both engines —
# bit-exact, no rounding key needed.
# ---------------------------------------------------------------------------
def q_ngram_novelty(sf_dir: str):
    from ..stages.bucketed import bucketed_map_groups

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def pairs(batch: pa.Table) -> pa.Table:
        out_g, out_d = [], []
        for did, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            for gh in set(_gram_hashes(text, _NGRAM_K)):
                out_g.append(gh)
                out_d.append(did)
        return pa.Table.from_pydict(
            {"gram_hash": out_g, "doc_id": out_d},
            schema=pa.schema(
                [("gram_hash", pa.string()), ("doc_id", pa.int64())]
            ),
        )

    def mark_first(bucket: pd.DataFrame) -> pd.DataFrame:
        first = bucket.groupby("gram_hash")["doc_id"].transform("min")
        novel = (bucket["doc_id"].to_numpy() == first.to_numpy()).astype(
            "int64"
        )
        agg = pd.DataFrame(
            {"doc_id": bucket["doc_id"].to_numpy(), "novel": novel}
        ).groupby("doc_id", as_index=False).agg(
            n_novel=("novel", "sum"), n_grams=("novel", "size")
        )
        for c in ("n_novel", "n_grams"):
            agg[c] = agg[c].astype("int64")
        return agg

    marked = bucketed_map_groups(
        ds.map_batches(pairs, batch_format="pyarrow"),
        "gram_hash",
        mark_first,
        n_buckets=32,
    )

    def roll(bucket: pd.DataFrame) -> pd.DataFrame:
        agg = bucket.groupby("doc_id", as_index=False).agg(
            n_grams=("n_grams", "sum"), n_novel=("n_novel", "sum")
        )
        for c in ("n_grams", "n_novel"):
            agg[c] = agg[c].astype("int64")
        agg["novelty_frac"] = agg["n_novel"].to_numpy(
            dtype=np.float64
        ) / agg["n_grams"].to_numpy(dtype=np.float64)
        return agg[["doc_id", "n_grams", "n_novel", "novelty_frac"]]

    return bucketed_map_groups(marked, "doc_id", roll, n_buckets=32)


SQL_NGRAM_NOVELTY = f"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(text, '[A-Za-z0-9]+') AS ts FROM documents
), g AS (
  SELECT DISTINCT doc_id,
         md5(array_to_string(list_slice(ts, i + 1, i + {_NGRAM_K}), ' '))
           AS gram_hash
  FROM toks, unnest(range(0, greatest(length(ts) - {_NGRAM_K} + 1, 0))) AS t(i)
), f AS (
  SELECT gram_hash, min(doc_id) AS first_doc FROM g GROUP BY gram_hash
)
SELECT g.doc_id,
       CAST(count(*) AS BIGINT) AS n_grams,
       CAST(count(*) FILTER (g.doc_id = f.first_doc) AS BIGINT) AS n_novel,
       CAST(count(*) FILTER (g.doc_id = f.first_doc) AS DOUBLE) / count(*)
         AS novelty_frac
FROM g JOIN f USING (gram_hash)
GROUP BY g.doc_id
"""


# ---------------------------------------------------------------------------
# BM25 ranked retrieval (Okapi, Robertson/Lucene idf) over a fixed
# query-term set — the ranked-retrieval sibling of tfidf_topk.  One
# tokenization pass over documents (doc == row, so per-doc tf/dl are
# exact batch-locally) emits the tiny matched (doc_id, term, tf, dl)
# table plus ONE bounded sentinel row per batch carrying the corpus
# length statistics; df comes from mergeable per-batch partials
# (<= n_terms rows per batch) and the final ranking is the exact
# bucketed top-k merge.  Driver-side state is O(n_batches + n_terms)
# regardless of how stopword-like the query terms are — for corpus-wide
# terms the matched table is corpus-sized but stays distributed end to
# end (score map -> bucketed per-doc sum -> n_buckets*k candidate merge).
# ---------------------------------------------------------------------------
_BM25_K1 = 1.2
_BM25_B = 0.75
_BM25_TERMS = ("merge", "spark", "stream", "vector")
_BM25_TOPK = 20


def q_bm25_topk(sf_dir: str):
    from collections import Counter

    from ..functions.tokenize import keyword_candidates
    from ..stages.bucketed import bucketed_topk

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    n_docs = ds.count()  # parquet metadata count — no pipeline execution
    terms = frozenset(_BM25_TERMS)

    def pass_rows(batch: pa.Table) -> pd.DataFrame:
        dids, kws, tfs, dls = [], [], [], []
        sum_dl = 0
        n_tok_docs = 0
        for did, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            counts = Counter(keyword_candidates(text))
            dl = sum(counts.values())
            if dl == 0:
                continue
            sum_dl += dl
            n_tok_docs += 1
            for kw in sorted(terms):
                tf = counts.get(kw, 0)
                if tf:
                    dids.append(did)
                    kws.append(kw)
                    tfs.append(tf)
                    dls.append(dl)
        # sentinel row (doc_id = -1): this batch's corpus-stat partial —
        # tf carries the tokenized-doc count, dl the summed doc length
        dids.append(-1)
        kws.append("")
        tfs.append(n_tok_docs)
        dls.append(sum_dl)
        return pd.DataFrame(
            {
                "doc_id": pd.Series(dids, dtype="int64"),
                "kw": pd.Series(kws, dtype="object"),
                "tf": pd.Series(tfs, dtype="int64"),
                "dl": pd.Series(dls, dtype="int64"),
            }
        )

    # consumed by the stat reduce, the df partials and the score map
    rows = ds.map_batches(pass_rows, batch_format="pyarrow").materialize()

    stats = rows.map_batches(
        lambda b: b[b["doc_id"] < 0], batch_format="pandas"
    ).to_pandas()  # bounded: exactly one row per pass batch
    avgdl = float(stats["dl"].sum()) / float(stats["tf"].sum())

    matched = rows.map_batches(
        lambda b: b[b["doc_id"] >= 0], batch_format="pandas"
    )

    df_parts = matched.map_batches(
        lambda b: b.groupby("kw", as_index=False).agg(df=("doc_id", "size")),
        batch_format="pandas",
    ).to_pandas()  # bounded: <= n_terms rows per batch
    df_map = {
        k: float(v) for k, v in df_parts.groupby("kw")["df"].sum().items()
    }

    # float expression structure mirrors the SQL oracle term for term so
    # both engines walk the same double-precision path
    k1p1 = _BM25_K1 + 1.0
    omb = 1.0 - _BM25_B

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        df = batch["kw"].map(df_map).to_numpy(dtype=np.float64)
        idf = np.log(1.0 + (float(n_docs) - df + 0.5) / (df + 0.5))
        tf = batch["tf"].to_numpy(dtype=np.float64)
        dl = batch["dl"].to_numpy(dtype=np.float64)
        s = idf * (tf * k1p1) / (tf + _BM25_K1 * (omb + _BM25_B * dl / avgdl))
        return pd.DataFrame(
            {"doc_id": batch["doc_id"].to_numpy(), "bm25": s}
        )

    scored = matched.map_batches(score, batch_format="pandas")
    return bucketed_topk(
        scored,
        "doc_id",
        {"bm25": ("bm25", "sum")},
        order_by=["bm25", "doc_id"],
        ascending=[False, True],
        k=_BM25_TOPK,
    )


def _sql_bm25() -> str:
    terms = ", ".join(f"'{t}'" for t in sorted(_BM25_TERMS))
    k1, b = repr(_BM25_K1), repr(_BM25_B)
    k1p1, omb = repr(_BM25_K1 + 1.0), repr(1.0 - _BM25_B)
    return f"""
WITH toks AS (
  SELECT doc_id, unnest(regexp_extract_all(text, '[A-Za-z0-9]+')) AS kw
  FROM documents
), tf AS (
  SELECT doc_id, kw, count(*) AS tf
  FROM toks
  WHERE length(kw) >= 2 AND NOT regexp_full_match(kw, '[0-9]+')
  GROUP BY doc_id, kw
), dl AS (
  SELECT doc_id, sum(tf) AS dl FROM tf GROUP BY doc_id
), stats AS (
  SELECT CAST(sum(dl) AS DOUBLE) / count(*) AS avgdl FROM dl
), n AS (SELECT count(*) AS n FROM documents),
qt AS (
  SELECT t.doc_id, t.kw, CAST(t.tf AS DOUBLE) AS tf, CAST(d.dl AS DOUBLE) AS dl
  FROM tf t JOIN dl d USING (doc_id)
  WHERE t.kw IN ({terms})
), df AS (
  SELECT kw, count(*) AS df FROM qt GROUP BY kw
), scored AS (
  SELECT qt.doc_id,
         sum(
           ln(1.0 + (CAST(n.n AS DOUBLE) - df.df + 0.5) / (df.df + 0.5))
           * (qt.tf * {k1p1})
           / (qt.tf + {k1} * ({omb} + {b} * qt.dl / s.avgdl))
         ) AS bm25
  FROM qt JOIN df USING (kw) CROSS JOIN n CROSS JOIN stats s
  GROUP BY qt.doc_id
)
SELECT doc_id, bm25 FROM scored ORDER BY bm25 DESC, doc_id LIMIT {_BM25_TOPK}
"""


SQL_BM25_TOPK = _sql_bm25()


# ---------------------------------------------------------------------------
# Fixed-point PageRank over the customer<->supplier trade graph.
# The iterative-distributed-joins workload (power iteration, Page et al.
# 1998): edges are the DISTINCT (customer, supplier) pairs that traded
# (orders |><| lineitem), symmetrized so both node classes propagate
# rank; customers without orders exercise the dangling/teleport path.
# All arithmetic is int64 fixed-point (see stages/pagerank.py) so the
# 3-round ranks are bit-identical between Ray and the unrolled SQL.
# ---------------------------------------------------------------------------
_PR_ITERS = 3
_PR_SCALE = 1 << 40
_PR_DNUM, _PR_DDEN = 85, 100


def _trade_graph(sf_dir: str, symmetric: bool = True):
    """Customer<->supplier trade graph: DISTINCT directed edges (both
    directions when ``symmetric``, else customer->supplier only) + the
    full node universe (customers without orders stay isolated).
    Shared by pagerank, label_propagation and hits."""
    from ..stages.bucketed import bucketed_drop_duplicates, bucketed_equi_join

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_suppkey"]).map_batches(
        lambda t: t.rename_columns(["o_orderkey", "l_suppkey"]),
        batch_format="pyarrow",
    )
    pairs = bucketed_equi_join(orders, li, on="o_orderkey").map_batches(
        lambda df: pd.DataFrame(
            {
                "src": "c" + df["o_custkey"].astype("int64").astype(str),
                "dst": "s" + df["l_suppkey"].astype("int64").astype(str),
            }
        ),
        batch_format="pandas",
    )
    pairs = bucketed_drop_duplicates(pairs, ["src", "dst"]).materialize()
    if symmetric:
        edges = pairs.union(
            pairs.map_batches(
                lambda df: pd.DataFrame({"src": df["dst"], "dst": df["src"]}),
                batch_format="pandas",
            )
        )
    else:
        edges = pairs
    nodes = _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        lambda df: pd.DataFrame(
            {"node": "c" + df["c_custkey"].astype("int64").astype(str)}
        ),
        batch_format="pandas",
    ).union(
        _read(sf_dir, "supplier", ["s_suppkey"]).map_batches(
            lambda df: pd.DataFrame(
                {"node": "s" + df["s_suppkey"].astype("int64").astype(str)}
            ),
            batch_format="pandas",
        )
    )
    return edges, nodes


def q_pagerank(sf_dir: str):
    from ..stages.pagerank import pagerank_fixedpoint

    edges, nodes = _trade_graph(sf_dir)
    return pagerank_fixedpoint(
        edges,
        nodes,
        iters=_PR_ITERS,
        damping_num=_PR_DNUM,
        damping_den=_PR_DDEN,
        scale=_PR_SCALE,
    )


def _sql_pagerank() -> str:
    s, num, den = _PR_SCALE, _PR_DNUM, _PR_DDEN
    sql = f"""
WITH ce AS (
  SELECT DISTINCT 'c' || o_custkey AS src, 's' || l_suppkey AS dst
  FROM orders JOIN lineitem ON l_orderkey = o_orderkey
),
edges AS (
  SELECT src, dst FROM ce
  UNION ALL SELECT dst AS src, src AS dst FROM ce
),
nodes AS (
  SELECT 'c' || c_custkey AS node FROM customer
  UNION ALL SELECT 's' || s_suppkey AS node FROM supplier
),
deg AS (SELECT src AS node, CAST(count(*) AS BIGINT) AS outdeg
        FROM edges GROUP BY src),
base AS (SELECT n.node, COALESCE(d.outdeg, 0) AS outdeg
         FROM nodes n LEFT JOIN deg d USING (node)),
p AS (SELECT CAST(count(*) AS BIGINT) AS n FROM base),
r0 AS (SELECT node, outdeg, CAST({s} AS BIGINT) // p.n AS rank_fp
       FROM base, p)"""
    prev = "r0"
    for i in range(1, _PR_ITERS + 1):
        sql += f""",
d{i} AS (SELECT CAST(COALESCE(SUM(rank_fp) FILTER (WHERE outdeg = 0), 0)
                     AS BIGINT) AS dang FROM {prev}),
c{i} AS (SELECT e.dst AS node,
                CAST(SUM(r.rank_fp // r.outdeg) AS BIGINT) AS contrib
         FROM edges e JOIN {prev} r ON e.src = r.node GROUP BY e.dst),
r{i} AS (SELECT b.node, b.outdeg,
                CAST((({den} - {num}) * (CAST({s} AS BIGINT) // p.n)) // {den}
                     + ({num} * (COALESCE(c.contrib, 0) + d{i}.dang // p.n))
                       // {den} AS BIGINT) AS rank_fp
         FROM base b LEFT JOIN c{i} c USING (node), p, d{i})"""
        prev = f"r{i}"
    sql += f"""
SELECT node, rank_fp, CAST(rank_fp AS DOUBLE) / {s} AS rank FROM {prev}
"""
    return sql


SQL_PAGERANK = _sql_pagerank()


# ---------------------------------------------------------------------------
# Synchronous label propagation over the same trade graph (community
# detection — Raghavan et al. 2007 with deterministic min-label ties).
# Counts and string comparisons only — no float anywhere — so the
# unrolled SQL replay is exactly equal by construction.
# ---------------------------------------------------------------------------
_LP_ITERS = 3


def q_label_propagation(sf_dir: str):
    from ..stages.labelprop import label_propagation

    edges, nodes = _trade_graph(sf_dir)
    return label_propagation(edges, nodes, iters=_LP_ITERS)


def _sql_labelprop() -> str:
    sql = """
WITH ce AS (
  SELECT DISTINCT 'c' || o_custkey AS src, 's' || l_suppkey AS dst
  FROM orders JOIN lineitem ON l_orderkey = o_orderkey
),
edges AS (
  SELECT src, dst FROM ce
  UNION ALL SELECT dst AS src, src AS dst FROM ce
),
nodes AS (
  SELECT 'c' || c_custkey AS node FROM customer
  UNION ALL SELECT 's' || s_suppkey AS node FROM supplier
),
l0 AS (SELECT node, node AS label FROM nodes)"""
    prev = "l0"
    for i in range(1, _LP_ITERS + 1):
        sql += f""",
s{i} AS (SELECT e.dst AS node, l.label, count(*) AS c
         FROM edges e JOIN {prev} l ON e.src = l.node
         GROUP BY e.dst, l.label),
w{i} AS (SELECT node, label AS new_label FROM (
           SELECT node, label,
                  row_number() OVER (PARTITION BY node
                                     ORDER BY c DESC, label) AS rk
           FROM s{i}) WHERE rk = 1),
l{i} AS (SELECT p.node, COALESCE(w.new_label, p.label) AS label
         FROM {prev} p LEFT JOIN w{i} w USING (node))"""
        prev = f"l{i}"
    sql += f"""
SELECT node, label FROM {prev}
"""
    return sql


SQL_LABEL_PROPAGATION = _sql_labelprop()


# ---------------------------------------------------------------------------
# Fixed-point HITS on the DIRECTED trade graph (Kleinberg 1999):
# customers accumulate hub mass, suppliers authority mass.  Integer L1
# renormalization each half-round (x * scale // total) — the multiply
# widens past int64, so Ray normalizes through Python ints and the SQL
# replay through HUGEINT; results re-fit BIGINT exactly.
# ---------------------------------------------------------------------------
_HITS_ITERS = 3
_HITS_SCALE = 1 << 40


def q_hits(sf_dir: str):
    from ..stages.hits import hits_fixedpoint

    edges, nodes = _trade_graph(sf_dir, symmetric=False)
    return hits_fixedpoint(edges, nodes, iters=_HITS_ITERS, scale=_HITS_SCALE)


def _sql_hits() -> str:
    s = _HITS_SCALE
    sql = f"""
WITH edges AS (
  SELECT DISTINCT 'c' || o_custkey AS src, 's' || l_suppkey AS dst
  FROM orders JOIN lineitem ON l_orderkey = o_orderkey
),
nodes AS (
  SELECT 'c' || c_custkey AS node FROM customer
  UNION ALL SELECT 's' || s_suppkey AS node FROM supplier
),
p AS (SELECT CAST(count(*) AS BIGINT) AS n FROM nodes),
h0 AS (SELECT node, CAST({s} AS BIGINT) // p.n AS hub_fp FROM nodes, p)"""
    prev = "h0"
    for i in range(1, _HITS_ITERS + 1):
        sql += f""",
ar{i} AS (SELECT e.dst AS node, CAST(SUM(h.hub_fp) AS BIGINT) AS raw
          FROM edges e JOIN {prev} h ON e.src = h.node GROUP BY e.dst),
at{i} AS (SELECT CAST(COALESCE(SUM(raw), 0) AS BIGINT) AS t FROM ar{i}),
a{i} AS (SELECT n.node,
                CASE WHEN t.t > 0 THEN CAST(CAST(COALESCE(r.raw, 0) AS HUGEINT)
                                            * {s} // t.t AS BIGINT)
                     ELSE CAST(COALESCE(r.raw, 0) AS BIGINT) END AS auth_fp
         FROM nodes n LEFT JOIN ar{i} r USING (node), at{i} t),
hr{i} AS (SELECT e.src AS node, CAST(SUM(a.auth_fp) AS BIGINT) AS raw
          FROM edges e JOIN a{i} a ON e.dst = a.node GROUP BY e.src),
ht{i} AS (SELECT CAST(COALESCE(SUM(raw), 0) AS BIGINT) AS t FROM hr{i}),
h{i} AS (SELECT n.node,
                CASE WHEN t.t > 0 THEN CAST(CAST(COALESCE(r.raw, 0) AS HUGEINT)
                                            * {s} // t.t AS BIGINT)
                     ELSE CAST(COALESCE(r.raw, 0) AS BIGINT) END AS hub_fp
         FROM nodes n LEFT JOIN hr{i} r USING (node), ht{i} t)"""
        prev = f"h{i}"
    sql += f"""
SELECT n.node, h.hub_fp, a.auth_fp
FROM nodes n
JOIN h{_HITS_ITERS} h USING (node)
JOIN a{_HITS_ITERS} a USING (node)
"""
    return sql


SQL_HITS = _sql_hits()


# ---------------------------------------------------------------------------
# Fixed-point Lloyd k-means (stages/kmeans.py): semdedup's zero-Lloyd
# restriction lifted by quantizing the embeddings to int64 (exact IEEE
# ops both engines) and iterating wholly in integers — REAL Lloyd
# rounds under an exact value-hash oracle.  Map-reduce shape: broadcast
# centroids, per-batch partial sums, O(KxD) driver state, no shuffle.
# ---------------------------------------------------------------------------
_KM_K = 4
_KM_ITERS = 2


def q_kmeans(sf_dir: str):
    from ..stages.kmeans import kmeans_fixedpoint

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return kmeans_fixedpoint(ds, k=_KM_K, iters=_KM_ITERS)


def _sql_kmeans() -> str:
    from ..stages.kmeans import OFFSET, QSCALE

    sql = f"""
WITH q AS (
  SELECT vec_id, CAST(i AS BIGINT) AS dim,
         CAST(floor((CAST(embedding[CAST(i AS INT)] AS DOUBLE) + {OFFSET})
                    * {QSCALE}) AS BIGINT) AS qv
  FROM embeddings, unnest(range(1, len(embedding) + 1)) AS t(i)
),
c0 AS (
  SELECT CAST(dense_rank() OVER (ORDER BY s.vec_id) - 1 AS BIGINT) AS cid,
         q.dim, q.qv
  FROM (SELECT vec_id FROM embeddings ORDER BY vec_id LIMIT {_KM_K}) s
  JOIN q USING (vec_id)
)"""
    prev = "c0"
    for i in range(1, _KM_ITERS + 1):
        sql += f""",
d{i} AS (SELECT q.vec_id, c.cid,
                CAST(SUM((q.qv - c.qv) * (q.qv - c.qv)) AS BIGINT) AS dist2
         FROM q JOIN {prev} c USING (dim) GROUP BY q.vec_id, c.cid),
a{i} AS (SELECT vec_id, cid FROM (
           SELECT vec_id, cid, row_number() OVER (
             PARTITION BY vec_id ORDER BY dist2, cid) AS rk FROM d{i})
         WHERE rk = 1),
s{i} AS (SELECT a.cid, q.dim, CAST(SUM(q.qv) AS BIGINT) AS sq,
                CAST(count(*) AS BIGINT) AS cnt
         FROM q JOIN a{i} a USING (vec_id) GROUP BY a.cid, q.dim),
c{i} AS (SELECT p.cid, p.dim,
                CASE WHEN s.cnt > 0 THEN s.sq // s.cnt ELSE p.qv END AS qv
         FROM {prev} p LEFT JOIN s{i} s ON s.cid = p.cid AND s.dim = p.dim)"""
        prev = f"c{i}"
    sql += f"""
SELECT vec_id, cid AS cluster, dist2 FROM (
  SELECT q.vec_id, c.cid,
         CAST(SUM((q.qv - c.qv) * (q.qv - c.qv)) AS BIGINT) AS dist2,
         row_number() OVER (PARTITION BY q.vec_id
                            ORDER BY CAST(SUM((q.qv - c.qv) * (q.qv - c.qv))
                                          AS BIGINT), c.cid) AS rk
  FROM q JOIN {prev} c USING (dim) GROUP BY q.vec_id, c.cid
) WHERE rk = 1
"""
    return sql


SQL_KMEANS = _sql_kmeans()


# ---------------------------------------------------------------------------
# Gopher composed quality filter (Rae et al. 2021 Table A1, FineWeb
# reject-reason convention): the per-doc signals already pinned by
# quality_scores and doc_repetition_stats compose into a keep/drop
# verdict with the FIRST failing rule named.  Map-only, one pass, no
# shuffle — the canonical 100 TB curation-gate shape; thresholds live in
# functions/quality.py next to the signal definitions.
# ---------------------------------------------------------------------------
def q_gopher_filter(sf_dir: str):
    from ..functions.quality import (
        gopher_verdict,
        quality_signals,
        repetition_signals,
    )

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def body(batch: pa.Table) -> pd.DataFrame:
        reasons = [
            gopher_verdict(quality_signals(t), repetition_signals(t))
            for t in batch["text"].to_pylist()
        ]
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_pandas(),
                "keep": pd.Series([r == "" for r in reasons], dtype="bool"),
                "reason": pd.Series(reasons, dtype="object"),
            }
        )

    return ds.map_batches(body, batch_format="pyarrow")


def _sql_gopher() -> str:
    from ..functions.quality import (
        GOPHER_MAX_DUP_FRAC,
        GOPHER_MAX_MEAN_WLEN,
        GOPHER_MAX_TOP2_FRAC,
        GOPHER_MAX_WORDS,
        GOPHER_MIN_MEAN_WLEN,
        GOPHER_MIN_STOP_RATIO,
        GOPHER_MIN_WORDS,
    )

    return f"""
WITH base AS (
  SELECT doc_id,
         regexp_extract_all(text, '[A-Za-z0-9]+') AS words,
         regexp_extract_all(lower(text), '[a-z0-9]+') AS ws,
         length(regexp_extract_all(lower(text), '\\b({_STOP_ALT})\\b')) AS n_stop
  FROM documents
), sig AS (
  SELECT doc_id,
         len(words) AS n_words,
         CASE WHEN len(words) > 0
              THEN CAST(length(array_to_string(words, '')) AS DOUBLE)
                   / len(words) ELSE 0.0 END AS mean_word_len,
         CASE WHEN len(words) > 0
              THEN CAST(n_stop AS DOUBLE) / len(words)
              ELSE 0.0 END AS stopword_ratio,
         CASE WHEN len(ws) > 0
              THEN CAST(len(ws) - len(list_distinct(ws)) AS DOUBLE) / len(ws)
              ELSE 0.0 END AS dup_word_frac,
         ws,
         length(array_to_string(ws, '')) AS total_chars
  FROM base
), grams AS (
  SELECT doc_id, ws[CAST(i AS INT)] AS w1, ws[CAST(i AS INT) + 1] AS w2
  FROM sig, unnest(range(1, len(ws))) AS t(i)
  WHERE len(ws) >= 2
), gc AS (
  SELECT doc_id, max(c * chars) AS cov
  FROM (
    SELECT doc_id, w1, w2, count(*) AS c,
           length(w1) + length(w2) AS chars
    FROM grams GROUP BY doc_id, w1, w2
  ) GROUP BY doc_id
), fsig AS (
  SELECT s.doc_id, s.n_words, s.mean_word_len, s.stopword_ratio,
         s.dup_word_frac,
         CASE WHEN s.total_chars > 0
              THEN CAST(coalesce(g.cov, 0) AS DOUBLE) / s.total_chars
              ELSE 0.0 END AS top2_char_frac
  FROM sig s LEFT JOIN gc g ON g.doc_id = s.doc_id
)
SELECT doc_id,
       CASE
         WHEN n_words < {GOPHER_MIN_WORDS} THEN 'too_short'
         WHEN n_words > {GOPHER_MAX_WORDS} THEN 'too_long'
         WHEN mean_word_len < {GOPHER_MIN_MEAN_WLEN}
              OR mean_word_len > {GOPHER_MAX_MEAN_WLEN} THEN 'word_len'
         WHEN stopword_ratio < {GOPHER_MIN_STOP_RATIO} THEN 'few_stopwords'
         WHEN dup_word_frac > {GOPHER_MAX_DUP_FRAC} THEN 'dup_words'
         WHEN top2_char_frac > {GOPHER_MAX_TOP2_FRAC} THEN 'rep_2gram'
         ELSE '' END AS reason,
       CASE
         WHEN n_words < {GOPHER_MIN_WORDS} THEN FALSE
         WHEN n_words > {GOPHER_MAX_WORDS} THEN FALSE
         WHEN mean_word_len < {GOPHER_MIN_MEAN_WLEN}
              OR mean_word_len > {GOPHER_MAX_MEAN_WLEN} THEN FALSE
         WHEN stopword_ratio < {GOPHER_MIN_STOP_RATIO} THEN FALSE
         WHEN dup_word_frac > {GOPHER_MAX_DUP_FRAC} THEN FALSE
         WHEN top2_char_frac > {GOPHER_MAX_TOP2_FRAC} THEN FALSE
         ELSE TRUE END AS keep
FROM fsig
"""


SQL_GOPHER_FILTER = _sql_gopher()


# ---------------------------------------------------------------------------
# Chi-square token keyness per language (feature selection / corpus
# comparison — Manning & Schuetze ch. 5, Dunning-style keyness over
# document frequency).  For each (lang, token) the 2x2 contingency is
#   a = docs in lang containing token        b = n_lang - a
#   c = docs elsewhere containing token      d = N - n_lang - c
# and chi2 = N(ad-bc)^2 / ((a+b)(c+d)(a+c)(b+d)), computed from exact
# int64 counts with ONE shared double expression tree, so Ray and the
# SQL replay are bit-identical (same IEEE ops on the same integers).
# Scale shape: per-batch partial (kw, lang) presence counts (mergeable,
# a stopword ships langs rows per batch, never per-doc rows), one
# kw-bucketed finalize (a token's rows are bucket-local, so df and the
# per-lang split need no second shuffle), and a per-batch local top-K
# per lang merged driver-side (bounded: langs x K rows per batch).
# ---------------------------------------------------------------------------
_CHI2_K = 15
_CHI2_MIN_DF = 5


def _chi2_expr(a, b, c, d, n):
    """Shared double expression tree (pandas Series or SQL mirror)."""
    return (
        n * (a * d - b * c) * (a * d - b * c)
        / ((a + b) * (c + d) * (a + c) * (b + d))
    )


def q_chi2_keyness(sf_dir: str):
    from ..functions.tokenize import keyword_candidates
    from ..stages.bucketed import bucketed_map_groups

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "text"])
    lang_n = (
        ds.map_batches(
            lambda t: t.group_by("lang").aggregate([("doc_id", "count")]),
            batch_format="pyarrow",
        )
        .to_pandas()
        .groupby("lang")["doc_id_count"]
        .sum()
        .to_dict()
    )
    n_total = int(sum(lang_n.values()))

    def presence(batch: pa.Table) -> pd.DataFrame:
        from collections import Counter

        cnt: Counter = Counter()
        for lang, text in zip(
            batch["lang"].to_pylist(), batch["text"].to_pylist()
        ):
            for kw in set(keyword_candidates(text)):
                cnt[(kw, lang)] += 1
        kws, langs, a_ = [], [], []
        for (kw, lang), v in cnt.items():
            kws.append(kw)
            langs.append(lang)
            a_.append(v)
        return pd.DataFrame(
            {
                "kw": pd.Series(kws, dtype="object"),
                "lang": pd.Series(langs, dtype="object"),
                "a": pd.Series(a_, dtype="int64"),
            }
        )

    partials = ds.map_batches(presence, batch_format="pyarrow")

    def finalize(bucket: pd.DataFrame) -> pd.DataFrame:
        g = bucket.groupby(["kw", "lang"], as_index=False)["a"].sum()
        dfk = g.groupby("kw")["a"].sum()
        g["dfk"] = g["kw"].map(dfk).astype("int64")
        g = g[g["dfk"] >= _CHI2_MIN_DF]
        if not len(g):
            return pd.DataFrame(
                {
                    "lang": pd.Series([], dtype="object"),
                    "token": pd.Series([], dtype="object"),
                    "a": pd.Series([], dtype="int64"),
                    "chi2": pd.Series([], dtype="float64"),
                }
            )
        a = g["a"].astype("float64")
        nl = g["lang"].map(lang_n).astype("float64")
        b = nl - a
        c = g["dfk"].astype("float64") - a
        d = float(n_total) - nl - c
        chi2 = _chi2_expr(a, b, c, d, float(n_total))
        out = pd.DataFrame(
            {
                "lang": g["lang"],
                "token": g["kw"],
                "a": g["a"].astype("int64"),
                "chi2": chi2.astype("float64"),
            }
        )
        # keep over-represented tokens only (a*d > b*c, in doubles on
        # both engines) and the bucket's local top-K per lang — the
        # global top-K is a merge of bucket top-Ks
        out = out[(a * d) > (b * c)]
        out = out.sort_values(
            ["lang", "chi2", "token"], ascending=[True, False, True]
        )
        return out.groupby("lang", sort=False).head(_CHI2_K).reset_index(drop=True)

    local = bucketed_map_groups(partials, "kw", finalize, n_buckets=32)
    final = local.to_pandas()
    final = final.sort_values(
        ["lang", "chi2", "token"], ascending=[True, False, True]
    )
    final = final.groupby("lang", sort=False).head(_CHI2_K)
    final["rk"] = (final.groupby("lang").cumcount() + 1).astype("int64")
    return final.reset_index(drop=True)


SQL_CHI2_KEYNESS = f"""
WITH toks AS (
  SELECT DISTINCT doc_id, lang, unnest(regexp_extract_all(text, '[A-Za-z0-9]+')) AS kw
  FROM documents
), pres AS (
  SELECT kw, lang, CAST(count(*) AS BIGINT) AS a
  FROM toks
  WHERE length(kw) >= 2 AND NOT regexp_full_match(kw, '[0-9]+')
  GROUP BY kw, lang
), dfk AS (
  SELECT kw, CAST(sum(a) AS BIGINT) AS dfk FROM pres GROUP BY kw
), nl AS (
  SELECT lang, CAST(count(*) AS BIGINT) AS n_lang FROM documents GROUP BY lang
), n AS (SELECT CAST(count(*) AS BIGINT) AS n FROM documents),
scored AS (
  SELECT p.lang, p.kw AS token, p.a,
         CAST(p.a AS DOUBLE) AS fa,
         CAST(nl.n_lang AS DOUBLE) - p.a AS fb,
         CAST(d.dfk AS DOUBLE) - p.a AS fc,
         CAST(n.n AS DOUBLE) - nl.n_lang - (CAST(d.dfk AS DOUBLE) - p.a) AS fd,
         CAST(n.n AS DOUBLE) AS fn
  FROM pres p JOIN dfk d USING (kw) JOIN nl USING (lang) CROSS JOIN n
  WHERE d.dfk >= {_CHI2_MIN_DF}
), keyed AS (
  SELECT lang, token, a,
         fn * (fa * fd - fb * fc) * (fa * fd - fb * fc)
         / ((fa + fb) * (fc + fd) * (fa + fc) * (fb + fd)) AS chi2
  FROM scored
  WHERE (fa * fd) > (fb * fc)
), ranked AS (
  SELECT *, row_number() OVER (
    PARTITION BY lang ORDER BY chi2 DESC, token) AS rk
  FROM keyed
)
SELECT lang, token, a, chi2, CAST(rk AS BIGINT) AS rk
FROM ranked WHERE rk <= {_CHI2_K}
"""


# ---------------------------------------------------------------------------
# Product-quantization ANN (stages/pq.py): the compressed-index scale
# path of the similarity family — M=4 subspace codebooks Lloyd-fit in
# fixed point (the kmeans quantize trick), vectors encode to M codes,
# queries scan via an asymmetric-distance lookup table.  All int64, so
# the unrolled SQL (per-subspace Lloyd rounds + code assignment + ADC
# join) replays bit-for-bit.  Zero shuffle: bounded fit partials +
# broadcast codebooks + local-top-k scan partials.
# ---------------------------------------------------------------------------
_PQ_M = 4
_PQ_K = 8
_PQ_ITERS = 1
_PQ_TOPK = 10


def q_pq_ann(sf_dir: str):
    from ..stages.pq import pq_ann

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    # bounded query set (5 rows) — same driver-side shape as knn_cosine
    qdf = (
        ds.map_batches(
            lambda t: t.filter(pc.less(t["vec_id"], 5)), batch_format="pyarrow"
        )
        .to_pandas()
        .sort_values("vec_id")
    )
    return pq_ann(
        ds,
        qdf["vec_id"].tolist(),
        np.stack(qdf["embedding"].to_numpy()),
        m_subs=_PQ_M,
        k_codes=_PQ_K,
        iters=_PQ_ITERS,
        k_top=_PQ_TOPK,
    )


def _sql_pq_ann() -> str:
    from ..stages.kmeans import OFFSET, QSCALE

    sql = f"""
WITH q AS (
  SELECT vec_id, CAST(i AS BIGINT) - 1 AS dim0,
         (CAST(i AS BIGINT) - 1) // (len(embedding) // {_PQ_M}) AS sub,
         CAST(floor((CAST(embedding[CAST(i AS INT)] AS DOUBLE) + {OFFSET})
                    * {QSCALE}) AS BIGINT) AS qv
  FROM embeddings, unnest(range(1, len(embedding) + 1)) AS t(i)
),
c0 AS (
  SELECT CAST(dense_rank() OVER (PARTITION BY q.sub ORDER BY s.vec_id) - 1
              AS BIGINT) AS cid,
         q.sub, q.dim0, q.qv
  FROM (SELECT vec_id FROM embeddings ORDER BY vec_id LIMIT {_PQ_K}) s
  JOIN q USING (vec_id)
)"""
    prev = "c0"
    for i in range(1, _PQ_ITERS + 1):
        sql += f""",
d{i} AS (SELECT q.vec_id, q.sub, c.cid,
                CAST(SUM((q.qv - c.qv) * (q.qv - c.qv)) AS BIGINT) AS dist2
         FROM q JOIN {prev} c ON c.sub = q.sub AND c.dim0 = q.dim0
         GROUP BY q.vec_id, q.sub, c.cid),
a{i} AS (SELECT vec_id, sub, cid FROM (
           SELECT vec_id, sub, cid, row_number() OVER (
             PARTITION BY vec_id, sub ORDER BY dist2, cid) AS rk FROM d{i})
         WHERE rk = 1),
s{i} AS (SELECT a.sub, a.cid, q.dim0, CAST(SUM(q.qv) AS BIGINT) AS sq,
                CAST(count(*) AS BIGINT) AS cnt
         FROM q JOIN a{i} a ON a.vec_id = q.vec_id AND a.sub = q.sub
         GROUP BY a.sub, a.cid, q.dim0),
c{i} AS (SELECT p.sub, p.cid, p.dim0,
                CASE WHEN s.cnt > 0 THEN s.sq // s.cnt ELSE p.qv END AS qv
         FROM {prev} p LEFT JOIN s{i} s
           ON s.sub = p.sub AND s.cid = p.cid AND s.dim0 = p.dim0)"""
        prev = f"c{i}"
    sql += f""",
df AS (SELECT q.vec_id, q.sub, c.cid,
              CAST(SUM((q.qv - c.qv) * (q.qv - c.qv)) AS BIGINT) AS dist2
       FROM q JOIN {prev} c ON c.sub = q.sub AND c.dim0 = q.dim0
       GROUP BY q.vec_id, q.sub, c.cid),
enc AS (SELECT vec_id, sub, cid FROM (
          SELECT vec_id, sub, cid, row_number() OVER (
            PARTITION BY vec_id, sub ORDER BY dist2, cid) AS rk FROM df)
        WHERE rk = 1),
adc AS (SELECT t.vec_id AS query_id, e.vec_id,
               CAST(SUM(t.dist2) AS BIGINT) AS adc_dist
        FROM enc e JOIN (SELECT * FROM df WHERE vec_id < 5) t
          ON t.sub = e.sub AND t.cid = e.cid
        GROUP BY t.vec_id, e.vec_id),
r AS (SELECT query_id, vec_id, adc_dist, row_number() OVER (
        PARTITION BY query_id ORDER BY adc_dist, vec_id) AS rk FROM adc)
SELECT query_id, vec_id, CAST(rk AS BIGINT) AS rk, adc_dist
FROM r WHERE rk <= {_PQ_TOPK}
"""
    return sql


SQL_PQ_ANN = _sql_pq_ann()


# ---------------------------------------------------------------------------
# Perceptual-hash image dedup (the LAION-style "same picture, different
# bytes" case): every document's NORMALIZED text renders to a 16x16x3
# image payload (docs with doc_id % 11 == 0 also plant a byte-different
# re-encode — one off-grid pixel perturbed — that exact byte-hash dedup
# CANNOT pair but aHash must), a task map of ``ahash_batch`` emits banded
# 64-bit average-hashes, and band buckets generate + verify pairs.  The
# SQL replays the whole chain: encode, the perturbation (at a pixel the
# 8x8 subsample never reads — the replay proves the hash-equality
# rather than assuming it), integer luma, mean threshold, band keys,
# candidate join and xor-popcount hamming.
# ---------------------------------------------------------------------------
_PHASH_MAX_HAMMING = 3
_PHASH_VARIANT_MOD = 11
_PHASH_VARIANT_BYTE = 51  # flat byte idx of pixel (1,1) ch 0 — off the 8x8 grid


def _phash_media_batch(batch: pa.Table) -> pa.Table:
    from ..functions.textnorm import normalize_text
    from ..stages.multimodal import encode_image

    ids, payloads = [], []
    for doc_id, text in zip(
        batch["doc_id"].to_pylist(), batch["text"].to_pylist()
    ):
        raw = np.frombuffer(
            normalize_text(text).encode()[:4096].ljust(16, b"\0"),
            dtype=np.uint8,
        )
        arr = np.resize(raw, (16, 16, 3))
        ids.append(str(doc_id))
        payloads.append(encode_image(np.ascontiguousarray(arr)))
        if doc_id % _PHASH_VARIANT_MOD == 0:
            v = arr.copy().reshape(-1)
            v[_PHASH_VARIANT_BYTE] = (int(v[_PHASH_VARIANT_BYTE]) + 128) % 256
            ids.append(f"{doc_id}b")
            payloads.append(
                encode_image(np.ascontiguousarray(v.reshape(16, 16, 3)))
            )
    return pa.table(
        {
            "media_id": pa.array(ids, type=pa.string()),
            "media_type": pa.array(["image"] * len(ids)),
            "payload": pa.array(payloads, type=pa.binary()),
        }
    )


def q_image_phash_dup(sf_dir: str):
    from ..stages.dedup import image_phash_pairs

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    media = docs.map_batches(_phash_media_batch, batch_format="pyarrow")
    return image_phash_pairs(media, max_hamming=_PHASH_MAX_HAMMING)


SQL_IMAGE_PHASH_DUP = f"""
WITH b AS (
  SELECT CAST(doc_id AS VARCHAR) AS media_id, doc_id,
         regexp_replace(lower(text), '\\s+', '', 'g') AS norm
  FROM documents
), px0 AS (
  -- j enumerates the 192 bytes the 8x8 subsample reads (64 cells x 3
  -- channels); src = flat byte index in the 16x16x3 pixel array, whose
  -- value tiles the normalized text bytes (np.resize)
  SELECT media_id, doc_id, j,
         (((2 * (j // 24)) * 16 + 2 * ((j // 3) % 8)) * 3 + j % 3) AS src,
         unicode(substr(norm,
           CAST(((((2 * (j // 24)) * 16 + 2 * ((j // 3) % 8)) * 3 + j % 3)
                 % LEAST(length(norm), 4096)) AS INT) + 1, 1)) AS byte
  FROM b, unnest(range(0, 192)) AS t(j)
), px AS (
  SELECT media_id, j, byte FROM px0
  UNION ALL
  SELECT media_id || 'b', j,
         CASE WHEN src = {_PHASH_VARIANT_BYTE}
              THEN (byte + 128) % 256 ELSE byte END
  FROM px0 WHERE doc_id % {_PHASH_VARIANT_MOD} = 0
), cell AS (
  SELECT media_id, j // 3 AS cell,
         (299 * max(CASE WHEN j % 3 = 0 THEN byte END)
        + 587 * max(CASE WHEN j % 3 = 1 THEN byte END)
        + 114 * max(CASE WHEN j % 3 = 2 THEN byte END)) // 1000 AS luma
  FROM px GROUP BY media_id, j // 3
), mn AS (
  SELECT media_id, SUM(luma) // 64 AS mean FROM cell GROUP BY media_id
), bits AS (
  -- cell 0 is the hash's most significant bit: cell k -> bit (63 - k)
  SELECT c.media_id, c.cell,
         CASE WHEN c.luma > m.mean THEN 1 ELSE 0 END AS bit
  FROM cell c JOIN mn m USING (media_id)
), bands AS (
  SELECT media_id, CAST((63 - cell) // 16 AS BIGINT) AS band_id,
         CAST(SUM(bit * (CAST(1 AS BIGINT)
                         << CAST((63 - cell) % 16 AS INT))) AS BIGINT)
           AS band_key
  FROM bits GROUP BY media_id, (63 - cell) // 16
), h AS (
  SELECT media_id,
         max(CASE WHEN band_id = 0 THEN band_key END) AS b0,
         max(CASE WHEN band_id = 1 THEN band_key END) AS b1,
         max(CASE WHEN band_id = 2 THEN band_key END) AS b2,
         max(CASE WHEN band_id = 3 THEN band_key END) AS b3
  FROM bands GROUP BY media_id
), cand AS (
  SELECT DISTINCT x.media_id AS img_a, y.media_id AS img_b
  FROM bands x JOIN bands y
    ON x.band_id = y.band_id AND x.band_key = y.band_key
   AND x.media_id < y.media_id
)
SELECT c.img_a, c.img_b,
       CAST(bit_count(xor(ha.b0, hb.b0)) + bit_count(xor(ha.b1, hb.b1))
          + bit_count(xor(ha.b2, hb.b2)) + bit_count(xor(ha.b3, hb.b3))
            AS BIGINT) AS hamming
FROM cand c
JOIN h ha ON ha.media_id = c.img_a
JOIN h hb ON hb.media_id = c.img_b
WHERE bit_count(xor(ha.b0, hb.b0)) + bit_count(xor(ha.b1, hb.b1))
    + bit_count(xor(ha.b2, hb.b2)) + bit_count(xor(ha.b3, hb.b3))
    <= {_PHASH_MAX_HAMMING}
"""


# ---------------------------------------------------------------------------
# TextRank keyword extraction (Mihalcea & Tarau, EMNLP 2004): build the
# word co-occurrence graph over keyword-candidate tokens (undirected,
# unweighted, distinct edges between words within a _TR_WINDOW-token
# window of the FILTERED token sequence — the paper's syntactic filter
# is our keyword_candidates filter), run PageRank on it, and keep the
# top-_TR_TOPK words by rank.  This is the graph x keyword family
# intersection: the co-occurrence extraction is pmi_cooccur's pass, the
# iteration is stages/pagerank.py's fixed-point power iteration (int64
# units of 1/2^40, so Ray and the unrolled SQL replay are BIT-identical
# — same argument as q_pagerank).  Scale shape: pair partials are
# batch-deduped then globally deduped via one bucketed shuffle; the
# graph is VOCABULARY-sized (bounded, unlike the corpus), and
# pagerank_fixedpoint size-routes — vectorized driver iteration below
# 2M edges, co-partitioned bucketed joins above.  Reference parity:
# keyword analysis is ocr_engine.py:392-412 top-N frequency; TextRank
# is the graph-ranked upgrade a curation pipeline uses when frequency
# over-rewards boilerplate tokens.
# ---------------------------------------------------------------------------
_TR_WINDOW = 2   # co-occurrence offsets 1.._TR_WINDOW in the filtered stream
_TR_ITERS = 3
_TR_TOPK = 40
_TR_SCALE = 1 << 40
_TR_DNUM, _TR_DDEN = 85, 100


def q_textrank_keywords(sf_dir: str):
    from ..functions.tokenize import keyword_candidates
    from ..stages.bucketed import bucketed_drop_duplicates, bucketed_topk
    from ..stages.pagerank import pagerank_fixedpoint

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        toks: list = []
        docix: list = []
        for i, t in enumerate(batch["text"].to_pylist()):
            ws = keyword_candidates(t)
            toks.extend(ws)
            docix.extend([i] * len(ws))
        w = np.asarray(toks, dtype=object)
        d = np.asarray(docix, dtype=np.int64)
        frames = [pd.DataFrame({"src": pd.unique(w), "dst": ""})]
        for off in range(1, _TR_WINDOW + 1):
            if len(w) <= off:
                break
            a, b = w[:-off], w[off:]
            m = (d[:-off] == d[off:]) & (a != b)
            a, b = a[m], b[m]
            lo = np.where(a <= b, a, b)
            hi = np.where(a <= b, b, a)
            frames.append(
                pd.DataFrame({"src": lo, "dst": hi}).drop_duplicates()
            )
        out = pd.concat(frames, ignore_index=True)
        out["src"] = out["src"].astype("object")
        out["dst"] = out["dst"].astype("object")
        return out

    parts = ds.map_batches(partial, batch_format="pyarrow")
    pairs = bucketed_drop_duplicates(
        parts.map_batches(
            lambda df: df[df["dst"] != ""], batch_format="pandas"
        ),
        ["src", "dst"],
    ).materialize()  # fan-out pin: feeds both union directions
    nodes = bucketed_drop_duplicates(
        parts.map_batches(
            lambda df: df.loc[df["dst"] == "", ["src"]].rename(
                columns={"src": "node"}
            ),
            batch_format="pandas",
        ),
        ["node"],
    )
    edges = pairs.union(
        pairs.map_batches(
            lambda df: pd.DataFrame({"src": df["dst"], "dst": df["src"]}),
            batch_format="pandas",
        )
    )
    ranks = pagerank_fixedpoint(
        edges,
        nodes,
        iters=_TR_ITERS,
        damping_num=_TR_DNUM,
        damping_den=_TR_DDEN,
        scale=_TR_SCALE,
    ).map_batches(
        lambda df: df.rename(columns={"node": "kw"}), batch_format="pandas"
    )
    return bucketed_topk(
        ranks,
        "kw",
        {"rank_fp": ("rank_fp", "max"), "rank": ("rank", "max")},
        order_by=["rank_fp", "kw"],
        ascending=[False, True],
        k=_TR_TOPK,
    )


def _sql_textrank() -> str:
    s, num, den = _TR_SCALE, _TR_DNUM, _TR_DDEN
    sql = f"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(text, '[A-Za-z0-9]+') AS ts
  FROM documents
), pos0 AS (
  SELECT doc_id, i, ts[i + 1] AS w
  FROM toks, unnest(range(0, len(ts))) AS t(i)
), pos AS (
  SELECT doc_id,
         row_number() OVER (PARTITION BY doc_id ORDER BY i) - 1 AS j, w
  FROM pos0
  WHERE length(w) >= 2 AND NOT regexp_full_match(w, '[0-9]+')
), cp AS (
  SELECT DISTINCT least(p1.w, p2.w) AS src, greatest(p1.w, p2.w) AS dst
  FROM pos p1 JOIN pos p2
    ON p1.doc_id = p2.doc_id AND p2.j - p1.j BETWEEN 1 AND {_TR_WINDOW}
  WHERE p1.w <> p2.w
), edges AS (
  SELECT src, dst FROM cp UNION ALL SELECT dst AS src, src AS dst FROM cp
), nodes AS (
  SELECT DISTINCT w AS node FROM pos
),
deg AS (SELECT src AS node, CAST(count(*) AS BIGINT) AS outdeg
        FROM edges GROUP BY src),
base AS (SELECT n.node, COALESCE(d.outdeg, 0) AS outdeg
         FROM nodes n LEFT JOIN deg d USING (node)),
p AS (SELECT CAST(count(*) AS BIGINT) AS n FROM base),
r0 AS (SELECT node, outdeg, CAST({s} AS BIGINT) // p.n AS rank_fp
       FROM base, p)"""
    prev = "r0"
    for i in range(1, _TR_ITERS + 1):
        sql += f""",
d{i} AS (SELECT CAST(COALESCE(SUM(rank_fp) FILTER (WHERE outdeg = 0), 0)
                     AS BIGINT) AS dang FROM {prev}),
c{i} AS (SELECT e.dst AS node,
                CAST(SUM(r.rank_fp // r.outdeg) AS BIGINT) AS contrib
         FROM edges e JOIN {prev} r ON e.src = r.node GROUP BY e.dst),
r{i} AS (SELECT b.node, b.outdeg,
                CAST((({den} - {num}) * (CAST({s} AS BIGINT) // p.n)) // {den}
                     + ({num} * (COALESCE(c.contrib, 0) + d{i}.dang // p.n))
                       // {den} AS BIGINT) AS rank_fp
         FROM base b LEFT JOIN c{i} c USING (node), p, d{i})"""
        prev = f"r{i}"
    sql += f"""
SELECT node AS kw, rank_fp, CAST(rank_fp AS DOUBLE) / {s} AS rank
FROM {prev}
ORDER BY rank_fp DESC, kw
LIMIT {_TR_TOPK}
"""
    return sql


SQL_TEXTRANK_KEYWORDS = _sql_textrank()


# ---------------------------------------------------------------------------
# Edit-distance similarity join via FastSS deletion neighborhoods
# (Bocek et al. 2007; the q-gram-filter family of Gravano 2001): all
# customer-name pairs with Levenshtein distance <= 1 — string-edit
# semantics completing the similarity-join ladder (token sets:
# set_similarity_join; sketches: minhash/simhash; vectors: knn/LSH).
# Candidate generation is EXACT for d=1: two strings with lev <= 1
# share a key in {s} ∪ {s minus one char} (substitution: both delete
# the differing position; indel: the longer's deletion equals the
# shorter; equal: themselves), so a bucketed self-join on deletion
# keys has full recall with ~(len+1) keys per row — subquadratic,
# never all-pairs.  Verification is the O(n) exact d<=1 check
# (same length -> hamming <= 1; length ±1 -> one-gap alignment),
# which equals full Levenshtein at this threshold.  The oracle is
# DuckDB's built-in levenshtein() over the brute-force join — the
# semantic spec the blocking must reproduce exactly.
# At larger d, FastSS indexes up-to-d deletions (keys grow as
# C(len,d)) and the verify falls back to the banded DP — same plan
# shape, more keys.
# ---------------------------------------------------------------------------
def _lev_le1(a: str, b: str):
    """Exact Levenshtein when <= 1, else None.  O(len)."""
    la, lb = len(a), len(b)
    if la == lb:
        d = sum(1 for x, y in zip(a, b) if x != y)
        return d if d <= 1 else None
    if abs(la - lb) != 1:
        return None
    if la > lb:
        a, b, la, lb = b, a, lb, la
    # a is shorter: lev == 1 iff deleting one char of b yields a
    i = 0
    while i < la and a[i] == b[i]:
        i += 1
    return 1 if a[i:] == b[i + 1 :] else None


def q_edit_distance_join(sf_dir: str):
    from ..stages.bucketed import bucketed_drop_duplicates, bucketed_map_groups

    ds = _read(sf_dir, "customer", ["c_custkey", "c_name"])

    def variants(batch: pa.Table) -> pd.DataFrame:
        ids, names, keys = [], [], []
        for cid, name in zip(
            batch["c_custkey"].to_pylist(), batch["c_name"].to_pylist()
        ):
            vs = [name] + [name[:i] + name[i + 1 :] for i in range(len(name))]
            for v in dict.fromkeys(vs):  # per-name key dedup
                ids.append(cid)
                names.append(name)
                keys.append(v)
        return pd.DataFrame(
            {
                "vkey": pd.Series(keys, dtype="object"),
                "id": pd.Series(ids, dtype="int64"),
                "name": pd.Series(names, dtype="object"),
            }
        )

    def pairs_in_group(df: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for _, g in df.groupby("vkey", sort=False):
            n = len(g)
            if n < 2:
                continue
            iu, ju = np.triu_indices(n, k=1)
            ids = g["id"].to_numpy()
            nms = g["name"].to_numpy()
            swap = ids[iu] > ids[ju]
            a_i = np.where(swap, ju, iu)
            b_i = np.where(swap, iu, ju)
            frames.append(
                pd.DataFrame(
                    {
                        "custkey_a": ids[a_i],
                        "custkey_b": ids[b_i],
                        "name_a": nms[a_i],
                        "name_b": nms[b_i],
                    }
                )
            )
        if not frames:
            return pd.DataFrame(
                {
                    "custkey_a": pd.Series([], dtype="int64"),
                    "custkey_b": pd.Series([], dtype="int64"),
                    "name_a": pd.Series([], dtype="object"),
                    "name_b": pd.Series([], dtype="object"),
                }
            )
        out = pd.concat(frames, ignore_index=True)
        out["custkey_a"] = out["custkey_a"].astype("int64")
        out["custkey_b"] = out["custkey_b"].astype("int64")
        return out.drop_duplicates(["custkey_a", "custkey_b"])

    cand = bucketed_map_groups(
        ds.map_batches(variants, batch_format="pyarrow"),
        "vkey",
        pairs_in_group,
        n_buckets=64,
    )
    cand = bucketed_drop_duplicates(cand, ["custkey_a", "custkey_b"])

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {
                    "custkey_a": pd.Series([], dtype="int64"),
                    "custkey_b": pd.Series([], dtype="int64"),
                    "lev": pd.Series([], dtype="int64"),
                }
            )
        lev = [
            _lev_le1(a, b)
            for a, b in zip(df["name_a"].to_numpy(), df["name_b"].to_numpy())
        ]
        keep = np.array([v is not None for v in lev])
        return pd.DataFrame(
            {
                "custkey_a": df["custkey_a"].to_numpy()[keep],
                "custkey_b": df["custkey_b"].to_numpy()[keep],
                "lev": pd.Series(
                    [v for v in lev if v is not None], dtype="int64"
                ),
            }
        )

    return cand.map_batches(verify, batch_format="pandas")


SQL_EDIT_DISTANCE_JOIN = """
SELECT a.c_custkey AS custkey_a, b.c_custkey AS custkey_b,
       CAST(levenshtein(a.c_name, b.c_name) AS BIGINT) AS lev
FROM customer a JOIN customer b ON a.c_custkey < b.c_custkey
WHERE levenshtein(a.c_name, b.c_name) <= 1
"""


# ---------------------------------------------------------------------------
# Dictionary matching via Aho-Corasick (stages/dictmatch.py): one-pass
# multi-pattern substring counting — the gazetteer / blocklist scan.
# The automaton compiles once per worker process, batches stream
# through plain map tasks, partials are dictionary-bounded, and the
# driver merge is O(terms).  Terms are border-free (asserted), so the AC
# all-occurrences count equals non-overlapping counting and the SQL
# replace-length trick replays it exactly — including the zero row for
# a term absent from the corpus ('quantum flux') and the nested-term
# case ('join' counted inside every 'hash join' via the fail-link
# output chain).
# ---------------------------------------------------------------------------
_DICT_TERMS = [
    "customer",
    "hash join",
    "join",
    "merge",
    "order",
    "quantum flux",
    "stream",
]


def q_dict_match(sf_dir: str):
    from ..stages.dictmatch import match_batch

    ds = _read(sf_dir, "documents", ["text"])
    parts = ds.map_batches(
        match_batch, fn_kwargs={"terms": _DICT_TERMS}, batch_format="pyarrow"
    ).to_pandas()  # bounded: n_blocks x n_terms rows
    out = parts.groupby("term", as_index=False)[["n_docs", "n_occur"]].sum()
    out = (
        out.set_index("term")
        .reindex(sorted(_DICT_TERMS), fill_value=0)
        .reset_index()
    )
    out["n_docs"] = out["n_docs"].astype("int64")
    out["n_occur"] = out["n_occur"].astype("int64")
    return out


def _sql_dict_match() -> str:
    vals = ", ".join(f"('{t}')" for t in sorted(_DICT_TERMS))
    return f"""
WITH terms(term) AS (VALUES {vals}),
occ AS (
  SELECT t.term,
         (length(d.text) - length(replace(d.text, t.term, '')))
           // length(t.term) AS c
  FROM terms t CROSS JOIN documents d
)
SELECT term,
       CAST(count(*) FILTER (WHERE c > 0) AS BIGINT) AS n_docs,
       CAST(sum(c) AS BIGINT) AS n_occur
FROM occ GROUP BY term ORDER BY term
"""


SQL_DICT_MATCH = _sql_dict_match()


# ---------------------------------------------------------------------------
# k-center greedy selection (Gonzalez 1985 farthest-point traversal —
# the 2-approximation for metric k-center, and the standard "coreset /
# diversity sampling" rule for training-data selection: repeatedly pick
# the point FARTHEST from everything picked so far).  Shares the
# fixed-point grid with stages/kmeans.py (floor((x+OFFSET)*QSCALE) is
# exact IEEE in both engines), so every distance is an int64 and the
# K-round greedy argmax replays bit-identically in unrolled SQL —
# the same "remove the float from the loop" trick that lifted
# semdedup's zero-Lloyd restriction.
#
# Scale shape: the per-point running min-distance lives IN the dataset
# (a mind2 column co-located with the quantized vector — never on the
# driver); each round is one map-only update against a broadcast center
# plus a per-batch top-1 candidate reduce (one row per block to the
# driver), and the per-round materialize is the resume checkpoint —
# O(K) passes, no shuffle anywhere.  Output: selection order, chosen
# vec_id, and its distance-to-earlier-centers at selection time (the
# coverage radius sequence, non-increasing).
# ---------------------------------------------------------------------------
_KC_K = 6


def q_kcenter_select(sf_dir: str):
    from ..stages.kmeans import _quantize_batch

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    qds = ds.map_batches(_quantize_batch, batch_format="pyarrow").materialize()
    seed_id = int(qds.min("vec_id"))

    def fetch_q(vid: int) -> np.ndarray:
        row = qds.map_batches(
            lambda t, _v=vid: t.filter(pc.equal(t["vec_id"], _v)),
            batch_format="pyarrow",
        ).to_pandas()
        return np.asarray(row["q"].iloc[0], dtype=np.int64)

    def init_state(center_q: np.ndarray):
        ref = ray.put(center_q)

        def body(t: pa.Table) -> pd.DataFrame:
            c = _broadcast_get(ref)
            X = np.array(t["q"].to_pylist(), dtype=np.int64)
            d2 = ((X - c[None, :]) ** 2).sum(axis=1)
            return pd.DataFrame(
                {
                    "vec_id": pd.Series(
                        t["vec_id"].to_pylist(), dtype="int64"
                    ),
                    "q": t["q"].to_pylist(),
                    "mind2": pd.Series(d2, dtype="int64"),
                }
            )

        return body

    def update_state(center_q: np.ndarray):
        ref = ray.put(center_q)

        def body(df: pd.DataFrame) -> pd.DataFrame:
            c = _broadcast_get(ref)
            X = np.array(df["q"].to_list(), dtype=np.int64)
            d2 = ((X - c[None, :]) ** 2).sum(axis=1)
            df = df.copy()
            df["mind2"] = np.minimum(
                df["mind2"].to_numpy(dtype=np.int64), d2
            )
            return df

        return body

    def top1(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return df
        return df.sort_values(
            ["mind2", "vec_id"], ascending=[False, True], kind="mergesort"
        ).head(1)

    state = qds.map_batches(
        init_state(fetch_q(seed_id)), batch_format="pyarrow"
    ).materialize()
    sel = [(1, seed_id, 0)]
    for rk in range(2, _KC_K + 1):
        cands = state.map_batches(top1, batch_format="pandas").to_pandas()
        best = cands.sort_values(
            ["mind2", "vec_id"], ascending=[False, True], kind="mergesort"
        ).iloc[0]
        vid, d2 = int(best["vec_id"]), int(best["mind2"])
        sel.append((rk, vid, d2))
        if rk < _KC_K:
            state = state.map_batches(
                update_state(np.asarray(best["q"], dtype=np.int64)),
                batch_format="pandas",
            ).materialize()
    return pd.DataFrame(
        {
            "rk": pd.Series([r for r, _, _ in sel], dtype="int64"),
            "vec_id": pd.Series([v for _, v, _ in sel], dtype="int64"),
            "mind2": pd.Series([d for _, _, d in sel], dtype="int64"),
        }
    )


def _sql_kcenter() -> str:
    from ..stages.kmeans import OFFSET, QSCALE

    sql = f"""
WITH q AS (
  SELECT vec_id, CAST(i AS BIGINT) AS dim,
         CAST(floor((CAST(embedding[CAST(i AS INT)] AS DOUBLE) + {OFFSET})
                    * {QSCALE}) AS BIGINT) AS qv
  FROM embeddings, unnest(range(1, len(embedding) + 1)) AS t(i)
),
s1 AS (SELECT min(vec_id) AS v FROM embeddings),
m1 AS (
  SELECT p.vec_id, CAST(SUM((p.qv - c.qv) * (p.qv - c.qv)) AS BIGINT) AS mind2
  FROM q p JOIN (SELECT dim, qv FROM q, s1 WHERE vec_id = s1.v) c USING (dim)
  GROUP BY p.vec_id
)"""
    prev = "m1"
    for i in range(2, _KC_K + 1):
        sql += f""",
s{i} AS (SELECT vec_id AS v, mind2 FROM {prev}
         ORDER BY mind2 DESC, vec_id LIMIT 1)"""
        if i < _KC_K:
            sql += f""",
m{i} AS (
  SELECT p.vec_id,
         least({prev}.mind2,
               CAST(SUM((p.qv - c.qv) * (p.qv - c.qv)) AS BIGINT)) AS mind2
  FROM q p
  JOIN (SELECT dim, qv FROM q, s{i} WHERE vec_id = s{i}.v) c USING (dim)
  JOIN {prev} ON {prev}.vec_id = p.vec_id
  GROUP BY p.vec_id, {prev}.mind2
)"""
            prev = f"m{i}"
    rows = [
        "SELECT CAST(1 AS BIGINT) AS rk, s1.v AS vec_id, "
        "CAST(0 AS BIGINT) AS mind2 FROM s1"
    ]
    for i in range(2, _KC_K + 1):
        rows.append(
            f"SELECT CAST({i} AS BIGINT) AS rk, v AS vec_id, mind2 FROM s{i}"
        )
    sql += "\n" + "\nUNION ALL\n".join(rows)
    return sql


SQL_KCENTER_SELECT = _sql_kcenter()


# ---------------------------------------------------------------------------
# Jaccard-containment search (the dataset-discovery / table-union-search
# semantics of LSH Ensemble, Zhu et al. VLDB 2016): for each query
# document's distinct word-bigram shingle set Q, find corpus documents D
# with containment |Q ∩ D| / |Q| >= tau.  Containment is ASYMMETRIC —
# a short query fully quoted inside a long document scores 1.0 even
# when symmetric Jaccard (set_similarity_join's metric) is tiny — which
# is the right notion for "was this eval set / snippet absorbed into
# the corpus" and for joinable-table discovery.  Plan: the _CONT_NQ
# query docs are picked by smallest md5(doc_id) (deterministic,
# SQL-replayable), their shingle sets broadcast once (bounded by the
# query count, NOT the corpus), and the corpus streams through one
# map-only intersection pass — same bounded-query shape as knn_cosine /
# contamination.  For a corpus-scale query SET the named scale path is
# LSH Ensemble's size-partitioned MinHash banding (partition candidates
# by |D|, band within partition — the machinery already driver-green
# via set_similarity_join/minhash); this surface pins the exact
# semantics those candidates verify against.
# ---------------------------------------------------------------------------
_CONT_NQ = 3
_CONT_TAU = 0.2


def _word_bigram_shingles(text: str) -> set:
    ws = [w for w in text.split(" ") if w]
    return {f"{a} {b}" for a, b in zip(ws, ws[1:])}


def q_containment_search(sf_dir: str):
    import hashlib as _hl

    from ..stages.bucketed import bucketed_topk

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def keyed(batch: pa.Table) -> pd.DataFrame:
        ids = batch["doc_id"].to_pylist()
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "h": pd.Series(
                    [
                        _hl.md5(str(d).encode()).hexdigest()
                        for d in ids
                    ],
                    dtype="object",
                ),
            }
        )

    qids = bucketed_topk(
        ds.map_batches(keyed, batch_format="pyarrow"),
        "doc_id",
        {"h": ("h", "min")},
        order_by=["h", "doc_id"],
        ascending=[True, True],
        k=_CONT_NQ,
    )["doc_id"].tolist()
    qid_set = frozenset(int(q) for q in qids)

    def pick_queries(batch: pa.Table) -> pd.DataFrame:
        df = batch.to_pandas()
        return df[df["doc_id"].isin(qid_set)]

    qdf = ds.map_batches(pick_queries, batch_format="pyarrow").to_pandas()
    queries = {
        int(r.doc_id): _word_bigram_shingles(r.text)
        for r in qdf.itertuples(index=False)
    }
    ref = ray.put(queries)

    def scan(batch: pa.Table) -> pd.DataFrame:
        qs = _broadcast_get(ref)
        out = {
            "query_doc": [],
            "doc_id": [],
            "intersect_n": [],
            "query_n": [],
            "containment": [],
        }
        for did, t in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            sh = _word_bigram_shingles(t)
            for qid, q in qs.items():
                if did == qid or not q:
                    continue
                i = len(q & sh)
                c = i / len(q)
                if c >= _CONT_TAU:
                    out["query_doc"].append(qid)
                    out["doc_id"].append(did)
                    out["intersect_n"].append(i)
                    out["query_n"].append(len(q))
                    out["containment"].append(c)
        return pd.DataFrame(
            {
                "query_doc": pd.Series(out["query_doc"], dtype="int64"),
                "doc_id": pd.Series(out["doc_id"], dtype="int64"),
                "intersect_n": pd.Series(out["intersect_n"], dtype="int64"),
                "query_n": pd.Series(out["query_n"], dtype="int64"),
                "containment": pd.Series(out["containment"], dtype="float64"),
            }
        )

    res = ds.map_batches(scan, batch_format="pyarrow").to_pandas()
    return res.sort_values(
        ["query_doc", "containment", "doc_id"],
        ascending=[True, False, True],
        kind="mergesort",
    ).reset_index(drop=True)


SQL_CONTAINMENT_SEARCH = f"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(text, '[^ ]+') AS ts FROM documents
), sh AS (
  SELECT DISTINCT doc_id, ts[i + 1] || ' ' || ts[i + 2] AS g
  FROM toks, unnest(range(0, len(ts) - 1)) AS t(i)
), qd AS (
  SELECT doc_id FROM documents
  ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id LIMIT {_CONT_NQ}
), qs AS (
  SELECT q.doc_id AS qid, s.g FROM sh s JOIN qd q USING (doc_id)
), qsz AS (
  SELECT qid, CAST(count(*) AS BIGINT) AS qn FROM qs GROUP BY qid
), inter AS (
  SELECT qs.qid, s.doc_id, CAST(count(*) AS BIGINT) AS i
  FROM qs JOIN sh s ON s.g = qs.g AND s.doc_id <> qs.qid
  GROUP BY qs.qid, s.doc_id
)
SELECT i.qid AS query_doc, i.doc_id, i.i AS intersect_n, z.qn AS query_n,
       CAST(i.i AS DOUBLE) / z.qn AS containment
FROM inter i JOIN qsz z USING (qid)
WHERE CAST(i.i AS DOUBLE) / z.qn >= {_CONT_TAU}
ORDER BY query_doc, containment DESC, doc_id
"""


# ---------------------------------------------------------------------------
# Exact heavy hitters via two-pass Misra-Gries (Misra & Gries 1982;
# merge rule from Agarwal et al. 2012 "Mergeable Summaries"): the
# bounded-state route to an EXACT answer for "every token with count
# > N/k" without ever shuffling the full vocabulary.
#
# Pass 1 — candidates: each batch counts its tokens exactly, then
# compresses to an MG summary (subtract the (k+1)-th largest batch
# count v_b from every counter, keep the positive ones — <= k rows,
# and the batch's removed mass is >= (k+1)*v_b).  Summaries merge by
# ADDITION; the deferred final compression "keep counters above the
# (k+1)-th largest sum" is exactly a strict top-k by summed counter,
# so candidates = bucketed_topk over the summary rows (n_buckets x k
# driver merge, never the vocabulary).  Theorem: total subtracted
# mass across every compression <= N/(k+1), so any token with true
# count > N/k keeps a positive merged counter and lands in the
# strict top-k — the candidate set PROVABLY contains all heavy
# hitters (and at most k-1 false positives).
#
# Pass 2 — exactness: broadcast the <= k candidate tokens, recount
# ONLY them (plus the stream length N) in one map-only pass with
# (k+1)-row partials, and keep cnt * k > N.  The output is the exact
# relational answer — the oracle below is plain GROUP BY/HAVING —
# while per-task state stays O(k) and driver state O(buckets x k):
# the 100 TB shape for frequent-item mining over an open vocabulary.
# ---------------------------------------------------------------------------
_HH_K = 32
_HH_TOKEN_RE = re.compile(r"[A-Za-z0-9]+")


def q_heavy_hitters(sf_dir: str):
    from collections import Counter

    from ..stages.bucketed import bucketed_topk, map_groups_frame

    ds = _read(sf_dir, "documents", ["text"])

    def mg_summary(batch: pa.Table) -> pd.DataFrame:
        cnt: Counter = Counter()
        for t in batch["text"].to_pylist():
            cnt.update(_HH_TOKEN_RE.findall(t))
        if len(cnt) > _HH_K:
            v = sorted(cnt.values(), reverse=True)[_HH_K]
            items = [(t, c - v) for t, c in cnt.items() if c > v]
        else:
            items = list(cnt.items())
        return pd.DataFrame(
            {
                "tok": pd.Series([t for t, _ in items], dtype="object"),
                "c": pd.Series([c for _, c in items], dtype="int64"),
            }
        )

    cand = bucketed_topk(
        ds.map_batches(mg_summary, batch_format="pyarrow"),
        "tok",
        {"c": ("c", "sum")},
        order_by=["c", "tok"],
        ascending=[False, True],
        k=_HH_K,
    )
    cand_set = frozenset(cand["tok"])

    def recount(batch: pa.Table) -> pd.DataFrame:
        cnt: Counter = Counter()
        total = 0
        for t in batch["text"].to_pylist():
            ws = _HH_TOKEN_RE.findall(t)
            total += len(ws)
            cnt.update(w for w in ws if w in cand_set)
        toks = list(cnt) + [""]
        return pd.DataFrame(
            {
                "tok": pd.Series(toks, dtype="object"),
                "c": pd.Series(
                    [cnt[t] for t in toks[:-1]] + [total], dtype="int64"
                ),
            }
        )

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby("tok", as_index=False)["c"].sum()
        out["c"] = out["c"].astype("int64")
        return out

    exact = map_groups_frame(
        ds.map_batches(recount, batch_format="pyarrow"),
        "tok",
        combine,
        n_buckets=8,
    )  # <= k+1 rows
    if not len(exact.columns):  # a table without batches: no tokens
        exact = pd.DataFrame({"tok": pd.Series([], dtype="object"), "c": 0})
    n_total = int(exact.loc[exact["tok"] == "", "c"].sum())
    out = exact[(exact["tok"] != "") & (exact["c"] * _HH_K > n_total)]
    out = out.sort_values(
        ["c", "tok"], ascending=[False, True], kind="mergesort"
    )
    return pd.DataFrame(
        {
            "tok": out["tok"].to_numpy(),
            "cnt": out["c"].astype("int64").to_numpy(),
        }
    )


SQL_HEAVY_HITTERS = f"""
WITH toks AS (
  SELECT unnest(regexp_extract_all(text, '[A-Za-z0-9]+')) AS tok
  FROM documents
), n AS (
  SELECT CAST(count(*) AS BIGINT) AS n FROM toks
), c AS (
  SELECT tok, CAST(count(*) AS BIGINT) AS cnt FROM toks GROUP BY tok
)
SELECT tok, cnt FROM c, n
WHERE cnt * {_HH_K} > n.n
ORDER BY cnt DESC, tok
"""


# ---------------------------------------------------------------------------
# skyline (Pareto-optimal) document selection
# ---------------------------------------------------------------------------


def _skyline_pairs(m1: np.ndarray, m2: np.ndarray):
    """Skyline of the distinct (m1, m2) pairs, both maximized.

    Vectorized: for each distinct m1 (descending) the only candidate is
    its max m2; it survives iff that m2 strictly exceeds the best m2
    among all strictly-greater m1 values.  Equal (m1, m2) duplicates
    never dominate each other, so working on distinct pairs is lossless.
    Returns the (m1, m2) skyline pairs as two arrays.
    """
    order = np.lexsort((-m2, -m1))
    s1, s2 = m1[order], m2[order]
    first = np.ones(len(s1), dtype=bool)
    first[1:] = s1[1:] != s1[:-1]
    g1, g2 = s1[first], s2[first]  # distinct m1 desc, max m2 per m1
    if len(g1) == 0:
        return g1, g2
    best_above = np.empty(len(g2), dtype=g2.dtype)
    best_above[0] = np.iinfo(np.int64).min
    np.maximum.accumulate(g2[:-1], out=best_above[1:])
    keep = g2 > best_above
    return g1[keep], g2[keep]


def q_skyline_select(sf_dir: str):
    """Pareto-optimal (skyline) document selection over two quality
    criteria, both maximized: document length (``n_chars``) and token
    diversity (distinct-token count).

    The skyline operator (Borzsonyi/Kossmann/Stocker, ICDE 2001) is the
    multi-criteria form of the curation cuts the reference's config
    vocabularies gate one-dimensionally (SURVEY §2: quality thresholds,
    config.py keyword lists) — "keep every document no other document
    beats on ALL criteria".  Distributed shape: a map-only metric pass,
    then a per-block LOCAL skyline (dominance is transitive, so the
    global skyline is a subset of the union of local skylines — the
    classic two-phase distributed skyline), then a driver merge over
    that small union.  The local pass is the data-reduction step: for
    independently-distributed dimensions the skyline of n points is
    O(log n), so the driver-side union is bounded and catalogued in the
    materialization audit.
    """
    ds = _read(sf_dir, "documents", ["doc_id", "text", "n_chars"])

    def metrics(batch: pa.Table) -> pd.DataFrame:
        texts = batch["text"].to_pylist()
        vocab = np.fromiter(
            (len(set(_TOKEN_RE.findall(t))) for t in texts),
            dtype=np.int64,
            count=len(texts),
        )
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy(),
                "chars": batch["n_chars"].to_numpy(),
                "vocab": vocab,
            }
        )

    def local_skyline(df: pd.DataFrame) -> pd.DataFrame:
        c = df["chars"].to_numpy()
        v = df["vocab"].to_numpy()
        s1, s2 = _skyline_pairs(c, v)
        keep = np.zeros(len(df), dtype=bool)
        for a, b in zip(s1, s2):
            keep |= (c == a) & (v == b)
        return df[keep]

    local = (
        ds.map_batches(metrics, batch_format="pyarrow")
        .map_batches(local_skyline, batch_format="pandas")
        .to_pandas()  # bounded: union of per-block skylines
    )
    c = local["chars"].to_numpy()
    v = local["vocab"].to_numpy()
    s1, s2 = _skyline_pairs(c, v)
    keep = np.zeros(len(local), dtype=bool)
    for a, b in zip(s1, s2):
        keep |= (c == a) & (v == b)
    out = local[keep].sort_values("doc_id", kind="mergesort")
    return pd.DataFrame(
        {
            "doc_id": out["doc_id"].to_numpy(),
            "chars": out["chars"].astype("int64").to_numpy(),
            "vocab": out["vocab"].astype("int64").to_numpy(),
        }
    )


SQL_SKYLINE_SELECT = """
WITH m AS (
  SELECT doc_id, n_chars AS chars,
         CAST(len(list_distinct(regexp_extract_all(text, '[A-Za-z0-9]+')))
              AS BIGINT) AS vocab
  FROM documents
)
SELECT t.doc_id, t.chars, t.vocab FROM m t
WHERE NOT EXISTS (
  SELECT 1 FROM m o
  WHERE o.chars >= t.chars AND o.vocab >= t.vocab
    AND (o.chars > t.chars OR o.vocab > t.vocab)
)
ORDER BY t.doc_id
"""


# ---------------------------------------------------------------------------
# Z-order (Morton) clustered layout + zone-map manifest
# ---------------------------------------------------------------------------
_ZORDER_SHARDS_LOG2 = 6  # 64 shards


def _morton16(qx: np.ndarray, qy: np.ndarray) -> np.ndarray:
    """Interleave two 16-bit quantized keys into a 32-bit Morton code
    (x bits at even positions, y at odd) — vectorized magic-number bit
    spreading."""

    def spread(v: np.ndarray) -> np.ndarray:
        v = v.astype(np.int64) & 0xFFFF
        v = (v | (v << 8)) & 0x00FF00FF
        v = (v | (v << 4)) & 0x0F0F0F0F
        v = (v | (v << 2)) & 0x33333333
        v = (v | (v << 1)) & 0x55555555
        return v

    return spread(qx) | (spread(qy) << 1)


def q_zorder_layout(sf_dir: str):
    """Z-order clustered layout over ``orders(o_custkey, o_orderdate)``:
    quantize both keys to 16 bits against the global min/max, interleave
    into a Morton code, take the top bits as the shard id, and emit the
    per-shard ZONE-MAP manifest (count + min/max of each key).

    This is the ``OPTIMIZE ZORDER BY`` write path of the lakehouse
    engines (Morton 1966; multidimensional clustering): co-locating rows
    that are close in BOTH dimensions so a range predicate on either (or
    both) keys prunes most shards via the zone maps.  Distributed shape:
    pass 1 is a 4-scalar min/max aggregate; pass 2 is map-only
    (quantize -> interleave -> shard) emitting per-block partial zone
    maps, combined on the driver (bounded: blocks x 64 rows).  At 100 TB
    the same shard column feeds ``repartition`` + partitioned
    ``write_parquet`` and the manifest is the data-skipping index the
    reader consults; the skip benefit (a box predicate touches O(sqrt)
    of the shards instead of all of them) is pinned by a unit test.
    """
    ds = _read(sf_dir, "orders", ["o_custkey", "o_orderdate"])

    def to_keys(batch: pa.Table) -> pd.DataFrame:
        cust = batch["o_custkey"].to_numpy()
        day = (
            batch["o_orderdate"]
            .to_numpy()
            .astype("datetime64[D]")
            .astype(np.int64)
        )
        return pd.DataFrame({"cust": cust, "day": day})

    keys = ds.map_batches(to_keys, batch_format="pyarrow")

    def block_minmax(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {"cmin": [], "cmax": [], "dmin": [], "dmax": []},
                dtype="int64",
            )
        return pd.DataFrame(
            {
                "cmin": [df["cust"].min()],
                "cmax": [df["cust"].max()],
                "dmin": [df["day"].min()],
                "dmax": [df["day"].max()],
            }
        )

    mm = keys.map_batches(block_minmax, batch_format="pandas").to_pandas()
    cmin, cmax = int(mm["cmin"].min()), int(mm["cmax"].max())
    dmin, dmax = int(mm["dmin"].min()), int(mm["dmax"].max())
    cspan, dspan = max(cmax - cmin, 1), max(dmax - dmin, 1)
    shift = 32 - _ZORDER_SHARDS_LOG2

    def zone_partials(df: pd.DataFrame) -> pd.DataFrame:
        cust = df["cust"].to_numpy()
        day = df["day"].to_numpy()
        qx = (cust - cmin) * 65535 // cspan
        qy = (day - dmin) * 65535 // dspan
        shard = _morton16(qx, qy) >> shift
        g = (
            pd.DataFrame({"shard": shard, "cust": cust, "day": day})
            .groupby("shard")
            .agg(
                cnt=("cust", "size"),
                min_cust=("cust", "min"),
                max_cust=("cust", "max"),
                min_day=("day", "min"),
                max_day=("day", "max"),
            )
            .reset_index()
        )
        return g.astype("int64")

    parts = keys.map_batches(
        zone_partials, batch_format="pandas"
    ).to_pandas()  # bounded: <= n_blocks x 64 rows
    out = (
        parts.groupby("shard")
        .agg(
            cnt=("cnt", "sum"),
            min_cust=("min_cust", "min"),
            max_cust=("max_cust", "max"),
            min_day=("min_day", "min"),
            max_day=("max_day", "max"),
        )
        .reset_index()
        .sort_values("shard", kind="mergesort")
        .reset_index(drop=True)
    )
    return out.astype("int64")


def _zorder_bit_terms(qx_expr: str, qy_expr: str) -> str:
    terms = []
    for i in range(16):
        terms.append(f"((({qx_expr} >> {i}) & 1) << {2 * i})")
        terms.append(f"((({qy_expr} >> {i}) & 1) << {2 * i + 1})")
    return " + ".join(terms)


SQL_ZORDER_LAYOUT = f"""
WITH k AS (
  SELECT o_custkey AS cust,
         CAST(datediff('day', DATE '1970-01-01', CAST(o_orderdate AS DATE))
              AS BIGINT) AS day
  FROM orders
), b AS (
  SELECT min(cust) AS cmin, GREATEST(max(cust) - min(cust), 1) AS cspan,
         min(day) AS dmin, GREATEST(max(day) - min(day), 1) AS dspan
  FROM k
), q AS (
  SELECT cust, day,
         ((cust - cmin) * 65535) // cspan AS qx,
         ((day - dmin) * 65535) // dspan AS qy
  FROM k, b
), z AS (
  SELECT cust, day,
         ({_zorder_bit_terms('qx', 'qy')}) >> {32 - _ZORDER_SHARDS_LOG2}
           AS shard
  FROM q
)
SELECT shard, CAST(count(*) AS BIGINT) AS cnt,
       min(cust) AS min_cust, max(cust) AS max_cust,
       min(day) AS min_day, max(day) AS max_day
FROM z GROUP BY shard ORDER BY shard
"""


# ---------------------------------------------------------------------------
# upsert merge (CDC MERGE INTO: updates + inserts + delete tombstones)
# ---------------------------------------------------------------------------


def q_upsert_merge(sf_dir: str):
    """Last-writer-wins snapshot merge of a base table and a CDC change
    stream — the ``MERGE INTO`` / compaction semantics of the lakehouse
    table formats (and of any ingestion pipeline that revises documents
    in place).

    The change stream is derived deterministically from ``orders`` (no
    external data): keys ``%31 == 0`` are DELETE tombstones, else keys
    ``%5 == 0`` are price/status UPDATEs, and keys ``%97 == 0`` spawn an
    INSERT under a fresh key (``max_key + key``) — one op per key, all
    version 2 against the base's version 1.  The snapshot keeps, per
    key, the highest-version row and drops tombstoned keys.

    Distributed shape: the change derivation is map-only; base and
    changes union (block concatenation, no data movement) and the
    winner-per-key resolution is ONE bucketed co-partition by key with a
    vectorized keep-max-version kernel — the same single-shuffle shape
    as exact dedup.  At 100 TB the change stream is normally a small
    fraction of the base, so the production route broadcasts changed
    KEYS as a filter first (touched partitions only get rewritten — the
    copy-on-write MERGE); the full co-partition here is the general
    fallback when the change stream is itself table-scale.
    """
    from ..stages.bucketed import bucketed_map_groups

    base = _read(
        sf_dir, "orders", ["o_orderkey", "o_totalprice", "o_orderstatus"]
    )

    def key_max(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({"m": []}, dtype="int64")
        return pd.DataFrame({"m": [df["o_orderkey"].max()]})

    max_key = int(
        base.map_batches(key_max, batch_format="pandas").to_pandas()["m"].max()
    )

    def as_base(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "o_orderkey": df["o_orderkey"].astype("int64"),
                "o_totalprice": df["o_totalprice"],
                "o_orderstatus": df["o_orderstatus"].astype("object"),
                "version": np.ones(len(df), dtype=np.int64),
                "op": np.full(len(df), "U", dtype=object),
            }
        )

    def as_changes(df: pd.DataFrame) -> pd.DataFrame:
        k = df["o_orderkey"].to_numpy()
        price = df["o_totalprice"].to_numpy()
        is_del = k % 31 == 0
        is_upd = (~is_del) & (k % 5 == 0)
        is_ins = k % 97 == 0
        out = []
        if is_del.any():
            kd = k[is_del]
            out.append(
                pd.DataFrame(
                    {
                        "o_orderkey": kd,
                        "o_totalprice": np.zeros(len(kd)),
                        "o_orderstatus": np.full(len(kd), "D", dtype=object),
                        "version": np.full(len(kd), 2, dtype=np.int64),
                        "op": np.full(len(kd), "D", dtype=object),
                    }
                )
            )
        if is_upd.any():
            ku = k[is_upd]
            out.append(
                pd.DataFrame(
                    {
                        "o_orderkey": ku,
                        "o_totalprice": price[is_upd] * 1.1,
                        "o_orderstatus": np.full(len(ku), "U", dtype=object),
                        "version": np.full(len(ku), 2, dtype=np.int64),
                        "op": np.full(len(ku), "U", dtype=object),
                    }
                )
            )
        if is_ins.any():
            ki = k[is_ins]
            out.append(
                pd.DataFrame(
                    {
                        "o_orderkey": ki + max_key,
                        "o_totalprice": price[is_ins] + 1000.0,
                        "o_orderstatus": np.full(len(ki), "N", dtype=object),
                        "version": np.full(len(ki), 2, dtype=np.int64),
                        "op": np.full(len(ki), "U", dtype=object),
                    }
                )
            )
        if not out:
            return as_base(df.iloc[0:0])
        return pd.concat(out, ignore_index=True)

    unioned = base.map_batches(as_base, batch_format="pandas").union(
        base.map_batches(as_changes, batch_format="pandas")
    )

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
        win = (
            df.sort_values(["o_orderkey", "version"], kind="mergesort")
            .drop_duplicates("o_orderkey", keep="last")
        )
        win = win[win["op"] != "D"]
        return win.drop(columns=["op"])

    merged = bucketed_map_groups(unioned, "o_orderkey", resolve, n_buckets=32)
    return merged


SQL_UPSERT_MERGE = """
WITH base AS (
  SELECT o_orderkey, o_totalprice, o_orderstatus,
         CAST(1 AS BIGINT) AS version, 'U' AS op
  FROM orders
), mx AS (
  SELECT max(o_orderkey) AS m FROM orders
), changes AS (
  SELECT o_orderkey, 0.0 AS o_totalprice, 'D' AS o_orderstatus,
         CAST(2 AS BIGINT) AS version, 'D' AS op
  FROM orders WHERE o_orderkey % 31 = 0
  UNION ALL
  SELECT o_orderkey, o_totalprice * 1.1, 'U', CAST(2 AS BIGINT), 'U'
  FROM orders WHERE o_orderkey % 31 <> 0 AND o_orderkey % 5 = 0
  UNION ALL
  SELECT o_orderkey + mx.m, o_totalprice + 1000.0, 'N',
         CAST(2 AS BIGINT), 'U'
  FROM orders, mx WHERE o_orderkey % 97 = 0
), unioned AS (
  SELECT * FROM base UNION ALL SELECT * FROM changes
), won AS (
  SELECT o_orderkey, o_totalprice, o_orderstatus, version, op
  FROM unioned
  QUALIFY row_number() OVER (
    PARTITION BY o_orderkey ORDER BY version DESC) = 1
)
SELECT o_orderkey, o_totalprice, o_orderstatus, version
FROM won WHERE op <> 'D'
"""


# ---------------------------------------------------------------------------
# Jensen-Shannon source drift (per-source divergence from the corpus mix)
# ---------------------------------------------------------------------------


def q_jsd_source_drift(sf_dir: str):
    """Jensen-Shannon divergence of each source's unigram distribution
    from the whole-corpus distribution — the data-mix drift telemetry a
    training pipeline watches to catch a source whose content shifted
    (scrape change, contamination, new boilerplate).

    Identity used: with p = P_s(t), q = P_corpus(t), m = (p+q)/2,
    the tokens ABSENT from source s contribute exactly
    ``0.5*ln(2) * (1 - sum_{t in s} q_t)`` (since p=0 there), so only
    the PRESENT (source, token) pairs need to be materialized — the
    dense source x vocabulary cross never exists.

    Distributed shape: map-side (source, token, count) partials, ONE
    co-partition by token (each bucket sees every source's count for
    its tokens, so the global token count is bucket-local), per-bucket
    vectorized term sums, and a driver combine over the bounded
    n_buckets x n_sources partials.  Per-source totals and the corpus
    total are a tiny broadcast (n_sources scalars).
    """
    from collections import Counter

    from ..stages.bucketed import map_groups_frame

    ds = _read(sf_dir, "documents", ["source", "text"])

    def partials(batch: pa.Table) -> pd.DataFrame:
        per_src: dict = {}
        for s, t in zip(
            batch["source"].to_pylist(), batch["text"].to_pylist()
        ):
            cnt = per_src.setdefault(s, Counter())
            cnt.update(_TOKEN_RE.findall(t))
        rows_s, rows_t, rows_c = [], [], []
        for s, cnt in per_src.items():
            for t, c in cnt.items():
                rows_s.append(s)
                rows_t.append(t)
                rows_c.append(c)
        return pd.DataFrame(
            {
                "source": pd.Series(rows_s, dtype="object"),
                "tok": pd.Series(rows_t, dtype="object"),
                "c": pd.Series(rows_c, dtype="int64"),
            }
        )

    counts = ds.map_batches(partials, batch_format="pyarrow")

    def src_totals(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("source", as_index=False)["c"].sum()

    totals = counts.map_batches(src_totals, batch_format="pandas").to_pandas()
    if not len(totals):  # no token at all: no source to score
        return pd.DataFrame(
            {"source": pd.Series([], dtype="object"),
             "jsd": pd.Series([], dtype="float64")}
        )
    ns = totals.groupby("source")["c"].sum()  # bounded: blocks x n_sources rows
    n_total = float(ns.sum())
    ns_map = ns.astype("float64").to_dict()

    def bucket_terms(df: pd.DataFrame) -> pd.DataFrame:
        df = df.groupby(["source", "tok"], as_index=False)["c"].sum()
        g = df.groupby("tok")["c"].transform("sum").to_numpy(dtype=np.float64)
        c = df["c"].to_numpy(dtype=np.float64)
        n_s = df["source"].map(ns_map).to_numpy(dtype=np.float64)
        p = c / n_s
        q = g / n_total
        term = 0.5 * p * np.log(2.0 * p / (p + q)) + 0.5 * q * np.log(
            2.0 * q / (p + q)
        )
        out = pd.DataFrame({"source": df["source"], "term": term, "q": q})
        return out.groupby("source", as_index=False).sum()

    parts = map_groups_frame(
        counts, "tok", bucket_terms, n_buckets=16
    )  # bounded: n_buckets x n_sources rows
    agg = parts.groupby("source", as_index=False).sum()
    jsd = agg["term"].to_numpy() + 0.5 * np.log(2.0) * (
        1.0 - agg["q"].to_numpy()
    )
    out = pd.DataFrame({"source": agg["source"], "jsd": jsd})
    return out.sort_values("source", kind="mergesort").reset_index(drop=True)


SQL_JSD_SOURCE_DRIFT = """
WITH toks AS (
  SELECT source, unnest(regexp_extract_all(text, '[A-Za-z0-9]+')) AS tok
  FROM documents
), st AS (
  SELECT source, tok, CAST(count(*) AS DOUBLE) AS c
  FROM toks GROUP BY source, tok
), ns AS (
  SELECT source, sum(c) AS n FROM st GROUP BY source
), g AS (
  SELECT tok, sum(c) AS gc FROM st GROUP BY tok
), nt AS (
  SELECT sum(gc) AS nn FROM g
), pq AS (
  SELECT st.source, st.c / ns.n AS p, g.gc / nt.nn AS q
  FROM st JOIN ns USING (source) JOIN g USING (tok), nt
)
SELECT source,
       sum(0.5 * p * ln(2 * p / (p + q)) + 0.5 * q * ln(2 * q / (p + q)))
         + 0.5 * ln(2) * (1 - sum(q)) AS jsd
FROM pq GROUP BY source ORDER BY source
"""


# ---------------------------------------------------------------------------
# multinomial Naive Bayes classifier (fit on labels, score the corpus)
# ---------------------------------------------------------------------------


def q_naive_bayes_classify(sf_dir: str):
    """Multinomial Naive Bayes fit on the corpus's ``lang`` labels and
    applied back over every document — the learned-classifier data
    filter shape (the GPT-3/WebText quality classifier, fastText-style
    lang routers): FIT from mergeable count partials, BROADCAST the
    model, SCORE map-only.

    Model: add-one smoothing over the corpus vocabulary;
    ``score(d, c) = ln prior_c + sum_t dc_t * ln((ct_{c,t}+1)/(n_c+V))``
    with the argmax prediction tie-broken on ascending label in both
    engines.  Distributed shape: (label, token, count) map partials
    combine to a vocabulary x n_labels model on the driver (bounded:
    vocab-sized, the same checkpointed-table shape as tfidf's df table),
    ship once via ``ray.put``, and the scoring pass streams — no
    shuffle touches the corpus.  Per-class sums use counts x ln once
    per DISTINCT (doc, token), mirrored exactly in the SQL replay.
    """
    from collections import Counter

    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang"])

    def fit_partials(batch: pa.Table) -> pd.DataFrame:
        per: dict = {}
        for lg, t in zip(
            batch["lang"].to_pylist(), batch["text"].to_pylist()
        ):
            cnt = per.setdefault(lg, Counter())
            cnt.update(_TOKEN_RE.findall(t))
        ls, ts, cs = [], [], []
        for lg, cnt in per.items():
            for t, c in cnt.items():
                ls.append(lg)
                ts.append(t)
                cs.append(c)
        # one doc-count row per (lang, batch) for the priors, tok=""
        doc_n = pd.Series(batch["lang"].to_pylist()).value_counts()
        for lg, n in doc_n.items():
            ls.append(lg)
            ts.append("")
            cs.append(int(n))
        return pd.DataFrame(
            {
                "lang": pd.Series(ls, dtype="object"),
                "tok": pd.Series(ts, dtype="object"),
                "c": pd.Series(cs, dtype="int64"),
            }
        )

    fit = (
        ds.map_batches(fit_partials, batch_format="pyarrow")
        .to_pandas()  # bounded: vocab x n_labels (tfidf df-table shape)
        .groupby(["lang", "tok"], as_index=False)["c"]
        .sum()
    )
    docs_per = fit[fit["tok"] == ""].set_index("lang")["c"]
    counts = fit[fit["tok"] != ""]
    langs = sorted(docs_per.index)
    lang_ix = {lg: i for i, lg in enumerate(langs)}
    priors = np.log(
        docs_per.reindex(langs).to_numpy(dtype=np.float64)
        / float(docs_per.sum())
    )
    n_c = counts.groupby("lang")["c"].sum().reindex(langs).fillna(0)
    vocab = sorted(counts["tok"].unique())
    tok_ix = {t: i for i, t in enumerate(vocab)}
    denom = n_c.to_numpy(dtype=np.float64) + float(len(vocab))
    model = np.tile(-np.log(denom), (len(vocab), 1))  # ln(1/denom) base
    r = counts["tok"].map(tok_ix).to_numpy()
    c_ = counts["lang"].map(lang_ix).to_numpy()
    model[r, c_] = np.log(
        (counts["c"].to_numpy(dtype=np.float64) + 1.0) / denom[c_]
    )
    model_ref = ray.put((langs, priors, tok_ix, model))

    def score(batch: pa.Table) -> pd.DataFrame:
        lgs, prs, tix, mdl = _broadcast_get(model_ref)
        ids = batch["doc_id"].to_numpy()
        preds, scores = [], []
        for t in batch["text"].to_pylist():
            cnt = Counter(_TOKEN_RE.findall(t))
            s = prs.copy()
            for tok, dc in cnt.items():
                ix = tix.get(tok)
                if ix is not None:
                    s = s + float(dc) * mdl[ix]
            w = int(np.argmax(s))  # first max = smallest label asc
            preds.append(lgs[w])
            scores.append(float(s[w]))
        return pd.DataFrame(
            {
                "doc_id": ids,
                "pred_lang": pd.Series(preds, dtype="object"),
                "score": pd.Series(scores, dtype="float64"),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow")


SQL_NAIVE_BAYES_CLASSIFY = """
WITH toks AS (
  SELECT doc_id, lang,
         unnest(regexp_extract_all(text, '[A-Za-z0-9]+')) AS tok
  FROM documents
), ct AS (
  SELECT lang, tok, CAST(count(*) AS BIGINT) AS c
  FROM toks GROUP BY lang, tok
), nc AS (
  SELECT lang, CAST(sum(c) AS DOUBLE) AS n FROM ct GROUP BY lang
), v AS (
  SELECT CAST(count(DISTINCT tok) AS DOUBLE) AS v FROM toks
), prior AS (
  SELECT lang,
         ln(CAST(count(*) AS DOUBLE)
            / (SELECT count(*) FROM documents)) AS lp
  FROM documents GROUP BY lang
), doc_ct AS (
  SELECT doc_id, tok, CAST(count(*) AS DOUBLE) AS dc
  FROM toks GROUP BY doc_id, tok
), scores AS (
  SELECT d.doc_id, cl.lang,
         any_value(prior.lp)
           + sum(d.dc * ln((COALESCE(ct.c, 0) + 1.0) / (nc.n + v.v))) AS s
  FROM doc_ct d
  CROSS JOIN (SELECT DISTINCT lang FROM documents) cl
  LEFT JOIN ct ON ct.lang = cl.lang AND ct.tok = d.tok
  JOIN nc ON nc.lang = cl.lang
  JOIN prior ON prior.lang = cl.lang
  CROSS JOIN v
  GROUP BY d.doc_id, cl.lang
)
SELECT doc_id, lang AS pred_lang, s AS score
FROM scores
QUALIFY row_number() OVER (PARTITION BY doc_id ORDER BY s DESC, lang) = 1
ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# triangle counting (degree-ordered wedge join over the co-purchase graph)
# ---------------------------------------------------------------------------


_TRI_BCAST_CAP = 20_000_000  # edges; above this the semi-join route runs


def _tri_pack(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Pack an (lo < hi) node pair into one int64 key (node ids < 2^31)."""
    return (lo.astype(np.int64) << 32) | hi.astype(np.int64)


def _wedge_pairs(src: np.ndarray, dst: np.ndarray):
    """All within-source out-neighbor pairs (wa < wb), pure numpy.

    Sorts by (src, dst); within a group positions i<j then satisfy
    dst_i < dst_j (edges are distinct), so pair enumeration is index
    arithmetic — measured 6x faster than the pandas self-merge on the
    bench graph's 1.2M-wedge buckets.
    """
    order = np.lexsort((dst, src))
    s, d = src[order], dst[order]
    n = len(s)
    if n == 0:
        e = np.array([], dtype=np.int64)
        return e, e
    new = np.ones(n, dtype=bool)
    new[1:] = s[1:] != s[:-1]
    grp_start = np.maximum.accumulate(np.where(new, np.arange(n), 0))
    local = np.arange(n) - grp_start
    total = int(local.sum())
    block_start = np.concatenate([[0], np.cumsum(local)[:-1]])
    i_idx = (
        np.arange(total)
        - np.repeat(block_start, local)
        + np.repeat(grp_start, local)
    )
    j_idx = np.repeat(np.arange(n), local)
    return d[i_idx], d[j_idx]


def q_triangle_count(sf_dir: str):
    """Exact triangle count over the part co-purchase graph (two parts
    are adjacent iff some order contains both) — the graph-cohesion
    metric beside pagerank's centrality and label propagation's
    communities.

    Distributed shape is the MapReduce triangle algorithm of
    Suri & Vassilvitskii (WWW 2011): orient every undirected edge from
    the lower-(degree, id) endpoint to the higher, generate wedges
    (pairs of out-neighbors) per source, and count the wedges whose
    closing pair is itself an edge.  The degree ordering caps every
    node's out-degree at O(sqrt(m)), so wedge volume is O(m^1.5)
    regardless of degree skew — the "curse of the last reducer" fix.

    Wedge/edge matching is size-routed: below ``_TRI_BCAST_CAP`` edges
    the packed sorted edge-key array broadcasts once and each wedge
    bucket probes it with ``searchsorted`` INSIDE the kernel, so the
    wedge set (35M rows on the bench graph) never materializes as a
    dataset — measured 89 s -> seconds at sf0.1.  Above the cap, wedges
    flow into one bucketed co-partition semi-join against the edges
    (rows move once; no broadcast heap pressure).  The triangle total
    is orientation-invariant, so the SQL replay uses the simple a<b<c
    3-way self-join formulation.
    """
    from ..stages.bucketed import (
        bucketed_drop_duplicates,
        bucketed_equi_join,
        bucketed_map_groups,
        map_groups_frame,
    )

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def order_pairs(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates()
        m = d.merge(d, on="l_orderkey")
        m = m[m["l_partkey_x"] < m["l_partkey_y"]]
        out = m[["l_partkey_x", "l_partkey_y"]].drop_duplicates()
        out.columns = ["a", "b"]
        return out.astype("int64")

    edges = bucketed_map_groups(
        li, "l_orderkey", order_pairs, n_buckets=32
    )
    edges = bucketed_drop_duplicates(edges, ["a", "b"]).materialize()
    n_edges = edges.count()
    if not n_edges:  # no order holds two parts
        return pd.DataFrame(
            {"n_edges": pd.Series([0], dtype="int64"),
             "n_triangles": pd.Series([0], dtype="int64")}
        )

    def deg_partials(df: pd.DataFrame) -> pd.DataFrame:
        nodes = np.concatenate([df["a"].to_numpy(), df["b"].to_numpy()])
        u, c = np.unique(nodes, return_counts=True)
        return pd.DataFrame({"node": u, "d": c.astype(np.int64)})

    deg = (
        edges.map_batches(deg_partials, batch_format="pandas")
        .to_pandas()  # bounded: part-dimension-sized
        .groupby("node")["d"]
        .sum()
    )
    deg_ref = ray.put(deg)

    def orient(df: pd.DataFrame) -> pd.DataFrame:
        dmap = _broadcast_get(deg_ref)
        a = df["a"].to_numpy()
        b = df["b"].to_numpy()
        da = dmap.reindex(a).to_numpy()
        db = dmap.reindex(b).to_numpy()
        # orient from lower (degree, id) to higher
        fwd = (da < db) | ((da == db) & (a < b))
        return pd.DataFrame(
            {
                "src": np.where(fwd, a, b),
                "dst": np.where(fwd, b, a),
            }
        ).astype("int64")

    oriented = edges.map_batches(orient, batch_format="pandas")

    if n_edges <= _TRI_BCAST_CAP:
        # broadcast-probe route: wedges stay numpy inside the kernel
        def pack_edges(df: pd.DataFrame) -> pd.DataFrame:
            lo = np.minimum(df["a"].to_numpy(), df["b"].to_numpy())
            hi = np.maximum(df["a"].to_numpy(), df["b"].to_numpy())
            return pd.DataFrame({"k": _tri_pack(lo, hi)})

        packed = np.sort(
            edges.map_batches(pack_edges, batch_format="pandas")
            .to_pandas()["k"]
            .to_numpy()
        )
        packed_ref = ray.put(packed)

        def count_bucket(df: pd.DataFrame) -> pd.DataFrame:
            keys = _broadcast_get(packed_ref)
            wa, wb = _wedge_pairs(
                df["src"].to_numpy(), df["dst"].to_numpy()
            )
            if len(wa) == 0 or len(keys) == 0:
                return pd.DataFrame({"tri": pd.Series([0], dtype="int64")})
            w = _tri_pack(wa, wb)
            pos = np.searchsorted(keys, w)
            pos[pos >= len(keys)] = len(keys) - 1
            hits = int((keys[pos] == w).sum())
            return pd.DataFrame({"tri": pd.Series([hits], dtype="int64")})

        tri_parts = map_groups_frame(
            oriented, "src", count_bucket, n_buckets=32
        )  # bounded: one row per sorted block
        n_tri = int(tri_parts["tri"].sum())
    else:
        # co-partition route: wedges move once, no broadcast
        def wedges(df: pd.DataFrame) -> pd.DataFrame:
            wa, wb = _wedge_pairs(
                df["src"].to_numpy(), df["dst"].to_numpy()
            )
            return pd.DataFrame({"wa": wa, "wb": wb}).astype("int64")

        def edge_keys(df: pd.DataFrame) -> pd.DataFrame:
            lo = np.minimum(df["src"].to_numpy(), df["dst"].to_numpy())
            hi = np.maximum(df["src"].to_numpy(), df["dst"].to_numpy())
            return pd.DataFrame({"wa": lo, "wb": hi}).astype("int64")

        wedge_ds = bucketed_map_groups(oriented, "src", wedges, n_buckets=32)
        closed = bucketed_equi_join(
            wedge_ds,
            oriented.map_batches(edge_keys, batch_format="pandas"),
            on=["wa", "wb"],
            how="semi",
            n_buckets=32,
        )
        n_tri = closed.count()

    return pd.DataFrame(
        {
            "n_edges": pd.Series([n_edges], dtype="int64"),
            "n_triangles": pd.Series([n_tri], dtype="int64"),
        }
    )


SQL_TRIANGLE_COUNT = """
WITH pairs AS (
  SELECT DISTINCT l1.l_partkey AS a, l2.l_partkey AS b
  FROM lineitem l1 JOIN lineitem l2 ON l1.l_orderkey = l2.l_orderkey
  WHERE l1.l_partkey < l2.l_partkey
), tri AS (
  SELECT CAST(count(*) AS BIGINT) AS t
  FROM pairs e1
  JOIN pairs e2 ON e2.a = e1.b
  JOIN pairs e3 ON e3.a = e1.a AND e3.b = e2.b
)
SELECT (SELECT CAST(count(*) AS BIGINT) FROM pairs) AS n_edges,
       t AS n_triangles
FROM tri
"""


# ---------------------------------------------------------------------------
# OLAP rollup (hierarchical subtotal aggregation over lang x source)
# ---------------------------------------------------------------------------


def q_rollup_stats(sf_dir: str):
    """``GROUP BY ROLLUP(lang, source)`` over the documents table:
    doc counts and char sums at the (lang, source) level, the per-lang
    subtotal level, and the grand total, with ``'ALL'`` as the rolled-up
    marker — the OLAP cube/report family.

    Distributed shape: ONE map-side partial aggregation at the finest
    grain (the only pass that touches the corpus; bounded
    blocks x langs x sources rows), then the coarser levels derive from
    those partials on the driver by hierarchical re-aggregation — the
    rollup costs nothing beyond the base groupby at any scale.
    """
    ds = _read(sf_dir, "documents", ["lang", "source", "n_chars"])

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["lang", "source"], as_index=False).agg(
            n_docs=("n_chars", "size"), sum_chars=("n_chars", "sum")
        )
        return g

    fine = (
        ds.map_batches(partials, batch_format="pandas")
        .to_pandas()  # bounded: blocks x langs x sources
        .groupby(["lang", "source"], as_index=False)
        .sum()
    )
    by_lang = fine.groupby("lang", as_index=False)[
        ["n_docs", "sum_chars"]
    ].sum()
    by_lang["source"] = "ALL"
    total = pd.DataFrame(
        {
            "lang": ["ALL"],
            "source": ["ALL"],
            "n_docs": [fine["n_docs"].sum()],
            "sum_chars": [fine["sum_chars"].sum()],
        }
    )
    out = pd.concat([fine, by_lang, total], ignore_index=True)
    out["n_docs"] = out["n_docs"].astype("int64")
    out["sum_chars"] = out["sum_chars"].astype("int64")
    return (
        out[["lang", "source", "n_docs", "sum_chars"]]
        .sort_values(["lang", "source"], kind="mergesort")
        .reset_index(drop=True)
    )


SQL_ROLLUP_STATS = """
SELECT COALESCE(lang, 'ALL') AS lang,
       COALESCE(source, 'ALL') AS source,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(n_chars) AS BIGINT) AS sum_chars
FROM documents
GROUP BY ROLLUP(lang, source)
ORDER BY lang, source
"""


# ---------------------------------------------------------------------------
# funnel analysis (ordered view -> click -> purchase progression)
# ---------------------------------------------------------------------------
_FUNNEL_STEPS = ("view", "click", "purchase")


def q_funnel_stages(sf_dir: str):
    """Ordered funnel progression per user over the events stream: the
    deepest stage of ``view -> click -> purchase`` each user reached,
    where stage k+1 must occur STRICTLY AFTER the user's earliest
    completion of stage k (the product-analytics funnel operator).

    Distributed shape: ONE co-partition by user (every user's events
    land in one bucket), then a vectorized per-bucket kernel computes
    the stage-completion chain with three groupby-min passes — no
    per-row Python, no second shuffle.  Output is per-user (user_id,
    reached), which keeps the result hash value-dense rather than a
    4-row summary.
    """
    from ..stages.bucketed import bucketed_map_groups

    ds = _read(sf_dir, "events", ["user_id", "event_type", "ts"])

    def stages(df: pd.DataFrame) -> pd.DataFrame:
        uid = df["user_id"]
        users = uid.unique()
        reached = pd.Series(np.zeros(len(users), dtype=np.int64),
                            index=users)
        prev_t = None
        for k, step in enumerate(_FUNNEL_STEPS, start=1):
            sub = df[df["event_type"] == step]
            if prev_t is not None:
                lim = sub["user_id"].map(prev_t)
                sub = sub[lim.notna() & (sub["ts"] > lim)]
            t = sub.groupby("user_id")["ts"].min()
            reached.loc[t.index] = k
            prev_t = t
        return pd.DataFrame(
            {
                "user_id": pd.Series(users, dtype="int64"),
                "reached": reached.to_numpy(),
            }
        )

    return bucketed_map_groups(ds, "user_id", stages, n_buckets=16)


SQL_FUNNEL_STAGES = """
WITH t1 AS (
  SELECT user_id, min(ts) AS ts FROM events
  WHERE event_type = 'view' GROUP BY user_id
), t2 AS (
  SELECT e.user_id, min(e.ts) AS ts
  FROM events e JOIN t1 ON e.user_id = t1.user_id
  WHERE e.event_type = 'click' AND e.ts > t1.ts
  GROUP BY e.user_id
), t3 AS (
  SELECT e.user_id, min(e.ts) AS ts
  FROM events e JOIN t2 ON e.user_id = t2.user_id
  WHERE e.event_type = 'purchase' AND e.ts > t2.ts
  GROUP BY e.user_id
)
SELECT u.user_id,
       CAST(CASE WHEN t3.user_id IS NOT NULL THEN 3
                 WHEN t2.user_id IS NOT NULL THEN 2
                 WHEN t1.user_id IS NOT NULL THEN 1
                 ELSE 0 END AS BIGINT) AS reached
FROM (SELECT DISTINCT user_id FROM events) u
LEFT JOIN t1 ON u.user_id = t1.user_id
LEFT JOIN t2 ON u.user_id = t2.user_id
LEFT JOIN t3 ON u.user_id = t3.user_id
ORDER BY u.user_id
"""


# ---------------------------------------------------------------------------
# item-based collaborative filtering (co-occurrence cosine top-k)
# ---------------------------------------------------------------------------
_CF_K = 5


def q_item_cf_topk(sf_dir: str):
    """Item-based collaborative filtering (Sarwar et al., WWW 2001) over
    the order baskets: similarity(a, b) = |orders with both| /
    sqrt(|orders with a| * |orders with b|) — co-occurrence cosine —
    and the top-5 neighbors per item, tie-broken on ascending neighbor
    id (identical integer inputs give bit-identical scores in both
    engines, so the ranking is exact).

    Distributed shape: per-order distinct-pair generation and the
    (a, b) count are each ONE bucketed co-partition; per-item order
    frequencies are dimension-sized map partials broadcast once; the
    per-item top-k is a final co-partition by item with a vectorized
    sort+head kernel.  The corpus never materializes — driver state is
    bounded by the item dimension.
    """
    from ..stages.bucketed import bucketed_drop_duplicates, bucketed_map_groups

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    # global basket dedup: the same (order, part) can recur across
    # blocks, so per-batch dedup undercounts — one co-partition fixes it
    op = bucketed_drop_duplicates(
        li, ["l_orderkey", "l_partkey"], n_buckets=32
    ).materialize()  # pinned: pair-gen + frequency both consume it

    def order_pairs(df: pd.DataFrame) -> pd.DataFrame:
        m = df.merge(df, on="l_orderkey")
        m = m[m["l_partkey_x"] < m["l_partkey_y"]]
        out = m[["l_partkey_x", "l_partkey_y"]]
        out.columns = ["a", "b"]
        return out.astype("int64")

    pairs = bucketed_map_groups(op, "l_orderkey", order_pairs, n_buckets=32)

    def pair_counts(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["a", "b"], as_index=False).size()
        g.columns = ["a", "b", "c"]
        return g.astype("int64")

    counts = bucketed_map_groups(pairs, ["a", "b"], pair_counts, n_buckets=32)

    def freq_partials(df: pd.DataFrame) -> pd.DataFrame:
        u, c = np.unique(df["l_partkey"].to_numpy(), return_counts=True)
        return pd.DataFrame({"p": u, "n": c.astype(np.int64)})

    freq = (
        op.map_batches(freq_partials, batch_format="pandas")
        .to_pandas()  # bounded: part-dimension-sized
        .groupby("p")["n"]
        .sum()
    )
    freq_ref = ray.put(freq.astype("float64"))

    def score_sym(df: pd.DataFrame) -> pd.DataFrame:
        f = _broadcast_get(freq_ref)
        a = df["a"].to_numpy()
        b = df["b"].to_numpy()
        c = df["c"].to_numpy(dtype=np.float64)
        s = c / np.sqrt(f.reindex(a).to_numpy() * f.reindex(b).to_numpy())
        return pd.DataFrame(
            {
                "item": np.concatenate([a, b]),
                "nbr": np.concatenate([b, a]),
                "score": np.concatenate([s, s]),
            }
        )

    sym = counts.map_batches(score_sym, batch_format="pandas")

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        s = df.sort_values(
            ["item", "score", "nbr"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        return s.groupby("item").head(_CF_K)

    return bucketed_map_groups(sym, "item", topk, n_buckets=32)


SQL_ITEM_CF_TOPK = f"""
WITH op AS (
  SELECT DISTINCT l_orderkey, l_partkey FROM lineitem
), pairs AS (
  SELECT o1.l_partkey AS a, o2.l_partkey AS b,
         CAST(count(*) AS BIGINT) AS c
  FROM op o1 JOIN op o2
    ON o1.l_orderkey = o2.l_orderkey AND o1.l_partkey < o2.l_partkey
  GROUP BY o1.l_partkey, o2.l_partkey
), freq AS (
  SELECT l_partkey AS p, CAST(count(*) AS DOUBLE) AS n FROM op GROUP BY 1
), sym AS (
  SELECT a AS item, b AS nbr, c FROM pairs
  UNION ALL
  SELECT b AS item, a AS nbr, c FROM pairs
), sc AS (
  SELECT item, nbr, CAST(s.c AS DOUBLE) / sqrt(fa.n * fb.n) AS score
  FROM sym s
  JOIN freq fa ON fa.p = s.item
  JOIN freq fb ON fb.p = s.nbr
)
SELECT item, nbr, score FROM sc
QUALIFY row_number() OVER (
  PARTITION BY item ORDER BY score DESC, nbr) <= {_CF_K}
ORDER BY item, score DESC, nbr
"""


# ---------------------------------------------------------------------------
# global rank (TeraSort-style range partitioning + exact offsets)
# ---------------------------------------------------------------------------
_RANK_RANGES = 16


def q_global_rank(sf_dir: str):
    """Exact global rank of every order by ``(o_totalprice,
    o_orderkey)`` — the distributed total-order pattern (TeraSort range
    partitioning): approximate range bounds from a deterministic
    sample, EXACT per-range row counts from map partials, prefix-sum
    offsets, and a per-range local sort whose positions add to the
    offset.  The bounds only affect load balance, never correctness —
    rank = exact count of rows in lower ranges + exact local position.

    Ranges split on price alone (equal prices always co-locate), so the
    within-range (price, orderkey) tie-break is globally consistent.
    One co-partition moves each row once; driver state is
    ``_RANK_RANGES`` scalars.
    """
    from ..stages.bucketed import BUCKET_COL

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def sample(df: pd.DataFrame) -> pd.DataFrame:
        # deterministic ~1/16 sample keyed on orderkey
        return df[df["o_orderkey"] % 16 == 0][["o_totalprice"]]

    smp = ds.map_batches(sample, batch_format="pandas").to_pandas()
    qs = np.linspace(0, 1, _RANK_RANGES + 1)[1:-1]
    bounds = (
        np.quantile(smp["o_totalprice"].to_numpy(), qs)
        if len(smp)
        else np.array([])
    )

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        r = np.searchsorted(bounds, df["o_totalprice"].to_numpy(),
                            side="left")
        out = df.copy()
        out[BUCKET_COL] = r.astype(np.int64)
        return out

    tagged = ds.map_batches(assign, batch_format="pandas").materialize()

    def range_counts(df: pd.DataFrame) -> pd.DataFrame:
        u, c = np.unique(df[BUCKET_COL].to_numpy(), return_counts=True)
        return pd.DataFrame({"r": u, "c": c.astype(np.int64)})

    counts = (
        tagged.map_batches(range_counts, batch_format="pandas")
        .to_pandas()  # bounded: blocks x _RANK_RANGES
        .groupby("r")["c"]
        .sum()
        .reindex(range(_RANK_RANGES), fill_value=0)
    )
    offsets = np.concatenate([[0], np.cumsum(counts.to_numpy())[:-1]])

    def local_rank(df: pd.DataFrame) -> pd.DataFrame:
        r = int(df[BUCKET_COL].iloc[0])
        s = df.sort_values(
            ["o_totalprice", "o_orderkey"], kind="mergesort"
        )
        return pd.DataFrame(
            {
                "o_orderkey": s["o_orderkey"].to_numpy(),
                "o_totalprice": s["o_totalprice"].to_numpy(),
                "rnk": offsets[r] + np.arange(1, len(s) + 1, dtype=np.int64),
            }
        )

    return tagged.groupby(BUCKET_COL).map_groups(
        local_rank, batch_format="pandas"
    )


SQL_GLOBAL_RANK = """
SELECT o_orderkey, o_totalprice,
       CAST(row_number() OVER (ORDER BY o_totalprice, o_orderkey)
            AS BIGINT) AS rnk
FROM orders
ORDER BY rnk
"""


# ---------------------------------------------------------------------------
# frequent itemsets (Apriori: candidate-pruned multi-pass basket mining)
# ---------------------------------------------------------------------------
_FI_MINSUP = 2  # absolute support floor; at deployment scale use a
# RELATIVE threshold (fraction of baskets) so the frequent-pair set —
# the only driver/broadcast state — stays bounded by construction.


def _fi_pack_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pack an (a < b) item-id pair into one int64 key (ids < 2^31)."""
    return (a.astype(np.int64) << np.int64(32)) | b.astype(np.int64)


def _sorted_member(keys: np.ndarray, sorted_keys: np.ndarray) -> np.ndarray:
    """Membership of each of ``keys`` in a sorted broadcast key array."""
    if not len(sorted_keys):
        return np.zeros(len(keys), dtype=bool)
    idx = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
    return sorted_keys[idx] == keys


def q_frequent_itemsets(sf_dir: str):
    """Apriori frequent-itemset mining (Agrawal & Srikant, VLDB 1994)
    over the order baskets: all size-2 and size-3 itemsets with support
    >= ``_FI_MINSUP``.  The Apriori monotonicity property makes the
    candidate pruning a pure performance device — a frequent triple's
    three sub-pairs are necessarily frequent, so counting only
    pruned candidates yields exactly the unpruned answer (the oracle
    counts unpruned).

    Distributed shape (the classic multi-pass candidate-broadcast
    plan): baskets are globally deduped once (one co-partition —
    per-batch dedup undercounts when an order spans read blocks);
    pass 1 generates per-basket pairs and counts them in a second
    co-partition; the frequent-pair set (bounded by the support
    threshold) broadcasts once as a sorted packed-int64 array; pass 2
    re-walks the baskets, prunes each basket's pairs to frequent ones
    BEFORE the triple expansion (the Apriori win — candidate volume
    through the final shuffle collapses), and a last co-partition
    counts the surviving triples.  Itemset ids stay < 2^31 so a pair
    packs into one int64 broadcast key (asserted).
    """
    from ..stages.bucketed import bucketed_drop_duplicates, bucketed_map_groups

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    op = bucketed_drop_duplicates(
        li, ["l_orderkey", "l_partkey"], n_buckets=32
    ).materialize()  # consumed by both passes

    def order_pairs(df: pd.DataFrame) -> pd.DataFrame:
        m = df.merge(df, on="l_orderkey")
        m = m[m["l_partkey_x"] < m["l_partkey_y"]]
        out = m[["l_partkey_x", "l_partkey_y"]]
        out.columns = ["i1", "i2"]
        return out.astype("int64")

    pairs = bucketed_map_groups(op, "l_orderkey", order_pairs, n_buckets=32)

    _PAIR_SCHEMA = pa.schema(
        [("i1", pa.int64()), ("i2", pa.int64()), ("support", pa.int64())]
    )

    def pair_counts(df: pd.DataFrame) -> pa.Table:
        g = df.groupby(["i1", "i2"], as_index=False).size()
        g.columns = ["i1", "i2", "support"]
        g = g[g["support"] >= _FI_MINSUP]
        return pa.Table.from_pandas(
            g.astype("int64"), schema=_PAIR_SCHEMA, preserve_index=False
        ).replace_schema_metadata(None)

    fp = bucketed_map_groups(
        pairs, ["i1", "i2"], pair_counts, n_buckets=32
    ).materialize()  # consumed by the broadcast AND the final union

    fp_df = fp.to_pandas()  # bounded: the frequent-pair set
    assert fp_df.empty or int(fp_df[["i1", "i2"]].max().max()) < 2**31
    fp_keys = np.sort(
        _fi_pack_pairs(fp_df["i1"].to_numpy(), fp_df["i2"].to_numpy())
    )
    fp_ref = ray.put(fp_keys)

    _TRI_SCHEMA = pa.schema(
        [("i1", pa.int64()), ("i2", pa.int64()), ("i3", pa.int64())]
    )

    def order_triples(df: pd.DataFrame) -> pa.Table:
        keys = _broadcast_get(fp_ref)
        m = df.merge(df, on="l_orderkey")
        m = m[m["l_partkey_x"] < m["l_partkey_y"]]
        bp = m.rename(
            columns={"l_partkey_x": "a", "l_partkey_y": "b"}
        )[["l_orderkey", "a", "b"]]
        # Apriori prune BEFORE the triple expansion
        bp = bp[
            _sorted_member(
                _fi_pack_pairs(bp["a"].to_numpy(), bp["b"].to_numpy()), keys
            )
        ]
        t = bp.merge(bp, on=["l_orderkey", "a"])
        t = t[t["b_x"] < t["b_y"]]
        ok = _sorted_member(
            _fi_pack_pairs(t["b_x"].to_numpy(), t["b_y"].to_numpy()), keys
        )
        t = t[ok]
        out = pd.DataFrame(
            {"i1": t["a"], "i2": t["b_x"], "i3": t["b_y"]}, dtype="int64"
        )
        return pa.Table.from_pandas(
            out, schema=_TRI_SCHEMA, preserve_index=False
        ).replace_schema_metadata(None)

    tri = bucketed_map_groups(op, "l_orderkey", order_triples, n_buckets=32)

    _OUT_SCHEMA = pa.schema(
        [
            ("i1", pa.int64()),
            ("i2", pa.int64()),
            ("i3", pa.int64()),
            ("sz", pa.int64()),
            ("support", pa.int64()),
        ]
    )

    def tri_counts(df: pd.DataFrame) -> pa.Table:
        g = df.groupby(["i1", "i2", "i3"], as_index=False).size()
        g.columns = ["i1", "i2", "i3", "support"]
        g = g[g["support"] >= _FI_MINSUP].astype("int64")
        g["sz"] = np.int64(3)
        return pa.Table.from_pandas(
            g[["i1", "i2", "i3", "sz", "support"]],
            schema=_OUT_SCHEMA,
            preserve_index=False,
        ).replace_schema_metadata(None)

    tri_out = bucketed_map_groups(
        tri, ["i1", "i2", "i3"], tri_counts, n_buckets=32
    )

    def pair_shape(df: pd.DataFrame) -> pa.Table:
        out = pd.DataFrame(
            {
                "i1": df["i1"],
                "i2": df["i2"],
                "i3": np.full(len(df), -1, dtype=np.int64),
                "sz": np.full(len(df), 2, dtype=np.int64),
                "support": df["support"],
            }
        )
        return pa.Table.from_pandas(
            out, schema=_OUT_SCHEMA, preserve_index=False
        ).replace_schema_metadata(None)

    return fp.map_batches(pair_shape, batch_format="pandas").union(tri_out)


SQL_FREQUENT_ITEMSETS = f"""
WITH op AS (
  SELECT DISTINCT l_orderkey, l_partkey FROM lineitem
), p AS (
  SELECT o1.l_partkey AS i1, o2.l_partkey AS i2,
         CAST(count(*) AS BIGINT) AS support
  FROM op o1 JOIN op o2
    ON o1.l_orderkey = o2.l_orderkey AND o1.l_partkey < o2.l_partkey
  GROUP BY 1, 2 HAVING count(*) >= {_FI_MINSUP}
), t AS (
  SELECT o1.l_partkey AS i1, o2.l_partkey AS i2, o3.l_partkey AS i3,
         CAST(count(*) AS BIGINT) AS support
  FROM op o1
  JOIN op o2 ON o1.l_orderkey = o2.l_orderkey
            AND o1.l_partkey < o2.l_partkey
  JOIN op o3 ON o1.l_orderkey = o3.l_orderkey
            AND o2.l_partkey < o3.l_partkey
  GROUP BY 1, 2, 3 HAVING count(*) >= {_FI_MINSUP}
)
SELECT i1, i2, CAST(-1 AS BIGINT) AS i3, CAST(2 AS BIGINT) AS sz, support
FROM p
UNION ALL
SELECT i1, i2, i3, CAST(3 AS BIGINT) AS sz, support FROM t
ORDER BY sz, i1, i2, i3
"""


# ---------------------------------------------------------------------------
# sorted-neighborhood candidate pairs (entity-resolution blocking)
# ---------------------------------------------------------------------------
_SNM_W = 4       # sliding-window size over the global sort order
_SNM_THR = 0.8   # token-set Jaccard accept threshold (exact verify)
_SNM_RANGES = 16
_SNM_WS = r"[ \t\n\r\f\v]+"  # whitespace runs, ASCII class in both engines


def q_sorted_neighborhood_pairs(sf_dir: str):
    """Sorted-neighborhood blocking (Hernandez & Stolfo, SIGMOD 1995)
    for entity resolution: sort all documents by a normalized key, slide
    a window of ``_SNM_W`` over the TOTAL order, and exactly-verify each
    in-window candidate pair with token-set Jaccard >= ``_SNM_THR``.

    Distributed shape: the global total order comes from the same
    TeraSort range-partitioning pattern as ``global_rank`` (sampled
    string splitters for load balance, EXACT per-range counts for
    correctness); windowed pair generation then needs only LOCAL
    context, recovered by replicating each row into its rank-block
    ``g = rank // W`` AND block ``g - 1`` — any pair within window
    distance co-locates in block ``g`` of its lower-rank member, and
    emitting only pairs whose lower rank is a PRIMARY of the block
    makes emission exactly-once with 2x data through one shuffle (no
    all-pairs, no driver state beyond the range splitters).  Jaccard is
    a single division of exact ints — bit-identical in both engines, so
    the >= threshold decides identically even on exact ties.
    """
    from ..stages.bucketed import bucketed_map_groups

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def norm(df: pd.DataFrame) -> pd.DataFrame:
        # ASCII whitespace only, spelled out: Python's \s and str.strip()
        # are Unicode-aware (NBSP, U+0085, ...) while RE2's \s and
        # DuckDB's trim() each cover a different set
        nt = (
            df["text"]
            .str.lower()
            .str.replace(_SNM_WS, " ", regex=True)
            .str.strip(" ")
        )
        return pd.DataFrame({"doc_id": df["doc_id"], "nt": nt})

    d = docs.map_batches(norm, batch_format="pandas")

    def sample(df: pd.DataFrame) -> pd.DataFrame:
        return df[df["doc_id"] % 16 == 0][["nt"]]

    smp = np.sort(d.map_batches(sample, batch_format="pandas")
                  .to_pandas()["nt"].to_numpy())
    bounds = (
        smp[[len(smp) * k // _SNM_RANGES for k in range(1, _SNM_RANGES)]]
        if len(smp)
        else np.array([], dtype=object)
    )

    from ..stages.bucketed import BUCKET_COL

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        r = np.searchsorted(bounds, df["nt"].to_numpy(), side="left")
        out = df.copy()
        out[BUCKET_COL] = r.astype(np.int64)
        return out

    tagged = d.map_batches(assign, batch_format="pandas").materialize()

    def range_counts(df: pd.DataFrame) -> pd.DataFrame:
        u, c = np.unique(df[BUCKET_COL].to_numpy(), return_counts=True)
        return pd.DataFrame({"r": u, "c": c.astype(np.int64)})

    counts = (
        tagged.map_batches(range_counts, batch_format="pandas")
        .to_pandas()  # bounded: blocks x _SNM_RANGES
        .groupby("r")["c"]
        .sum()
        .reindex(range(_SNM_RANGES), fill_value=0)
    )
    offsets = np.concatenate([[0], np.cumsum(counts.to_numpy())[:-1]])

    def local_rank(df: pd.DataFrame) -> pd.DataFrame:
        r = int(df[BUCKET_COL].iloc[0])
        s = df.sort_values(["nt", "doc_id"], kind="mergesort")
        return pd.DataFrame(
            {
                "doc_id": s["doc_id"].to_numpy(),
                "nt": s["nt"].to_numpy(),
                "rank": offsets[r] + np.arange(len(s), dtype=np.int64),
            }
        )

    ranked = tagged.groupby(BUCKET_COL).map_groups(
        local_rank, batch_format="pandas"
    )

    w = _SNM_W

    def to_blocks(df: pd.DataFrame) -> pd.DataFrame:
        g = df["rank"].to_numpy() // w
        primary = df.copy()
        primary["g"] = g
        repl = df[g > 0].copy()
        repl["g"] = g[g > 0] - 1
        return pd.concat([primary, repl], ignore_index=True)

    blocks = ranked.map_batches(to_blocks, batch_format="pandas")

    def window_pairs(df: pd.DataFrame) -> pd.DataFrame:
        s = df.sort_values(["g", "rank"], kind="mergesort")
        gv = s["g"].to_numpy()
        rv = s["rank"].to_numpy()
        ids = s["doc_id"].to_numpy()
        toks = [frozenset(t.split(" ")) for t in s["nt"]]
        d1, d2, jac = [], [], []
        for dlt in range(1, w):
            if dlt >= len(rv):
                break
            a = np.arange(len(rv) - dlt)
            b = a + dlt
            ok = (
                (gv[a] == gv[b])
                & (rv[b] - rv[a] == dlt)
                & (rv[a] < (gv[a] + 1) * w)  # lower rank is a PRIMARY
            )
            for i, j in zip(a[ok], b[ok]):
                ta, tb = toks[i], toks[j]
                c = len(ta & tb)
                jv = c / (len(ta) + len(tb) - c)
                if jv >= _SNM_THR:
                    d1.append(ids[i])
                    d2.append(ids[j])
                    jac.append(jv)
        return pd.DataFrame(
            {
                "d1": np.asarray(d1, dtype=np.int64),
                "d2": np.asarray(d2, dtype=np.int64),
                "jacc": np.asarray(jac, dtype=np.float64),
            }
        )

    return bucketed_map_groups(blocks, "g", window_pairs, n_buckets=32)


SQL_SORTED_NEIGHBORHOOD_PAIRS = f"""
WITH d AS (
  SELECT doc_id,
         trim(regexp_replace(lower(text), '{_SNM_WS}', ' ', 'g'), ' ') AS nt
  FROM documents
), r AS (
  SELECT doc_id, nt,
         row_number() OVER (ORDER BY nt, doc_id) - 1 AS rn
  FROM d
), tk AS (
  SELECT doc_id, unnest(list_distinct(string_split(nt, ' '))) AS tok
  FROM d
), n AS (
  SELECT doc_id, CAST(count(*) AS BIGINT) AS cnt FROM tk GROUP BY 1
), cand AS (
  SELECT a.doc_id AS d1, b.doc_id AS d2
  FROM r a JOIN r b ON b.rn > a.rn AND b.rn <= a.rn + {_SNM_W - 1}
), ix AS (
  SELECT c.d1, c.d2, CAST(count(*) AS BIGINT) AS c
  FROM cand c
  JOIN tk x ON x.doc_id = c.d1
  JOIN tk y ON y.doc_id = c.d2 AND y.tok = x.tok
  GROUP BY 1, 2
)
SELECT ix.d1, ix.d2,
       ix.c * 1.0 / (na.cnt + nb.cnt - ix.c) AS jacc
FROM ix
JOIN n na ON na.doc_id = ix.d1
JOIN n nb ON nb.doc_id = ix.d2
WHERE ix.c * 1.0 / (na.cnt + nb.cnt - ix.c) >= {_SNM_THR}
ORDER BY d1, d2
"""


# ---------------------------------------------------------------------------
# reciprocal rank fusion (hybrid lexical + vector retrieval)
# ---------------------------------------------------------------------------
_RRF_NQ = 3     # query docs: ids < _RRF_NQ in both tables (aligned ids)
_RRF_K = 50     # depth of each base ranking entering the fusion
_RRF_C = 60     # the canonical RRF constant (Cormack et al., SIGIR 2009)
_RRF_OUT = 10   # fused results returned per query


def q_rrf_fusion(sf_dir: str):
    """Reciprocal rank fusion (Cormack, Clarke & Buettcher, SIGIR 2009)
    — the hybrid-retrieval combiner: fuse a VECTOR ranking (embedding
    cosine top-``_RRF_K``) and a LEXICAL ranking (distinct-token overlap
    top-``_RRF_K``) per query as ``rrf = 1/(C + r_vec) + 1/(C + r_lex)``
    over the union of the two lists, missing-list terms contributing 0.

    Scale shape — "retrieve then fuse", never "score everything then
    sort": each base ranking is produced by the bounded-partials
    pattern (per-block local top-k per query, driver reduce of
    ``n_blocks x nq x k`` rows — the knn combiner), so nothing
    rank-orders the full corpus; the fusion itself touches only
    ``2 x nq x k`` rows.  Ranks are exact ints, each RRF term is one
    IEEE division and their sum is evaluated in the same order in both
    engines — fused scores are bit-identical, so the final
    (rrf DESC, doc_id) cut is exact.
    """
    from ..stages.knn import knn_cosine

    # vector ranking: cosine top-K for the aligned query vectors
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    qdf = (
        emb.map_batches(
            lambda t: t.filter(pc.less(t["vec_id"], _RRF_NQ)),
            batch_format="pyarrow",
        )
        .to_pandas()
        .sort_values("vec_id")
    )
    vec = knn_cosine(
        emb,
        qdf["vec_id"].tolist(),
        np.stack(qdf["embedding"].to_numpy()),
        k=_RRF_K,
    ).to_pandas()[["query_id", "vec_id", "rank"]]
    vec.columns = ["qid", "doc_id", "r_vec"]

    # lexical ranking: distinct-token overlap, same bounded-partials
    # shape (per-batch top-K per query -> driver exact top-K)
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    qtx = (
        docs.map_batches(
            lambda t: t.filter(pc.less(t["doc_id"], _RRF_NQ)),
            batch_format="pyarrow",
        )
        .to_pandas()
        .sort_values("doc_id")
    )
    qsets = [
        (int(r.doc_id), frozenset(_LOWER_TOKEN_RE.findall(r.text.lower())))
        for r in qtx.itertuples()
    ]
    qref = ray.put(qsets)

    def lex_partial(df: pd.DataFrame) -> pd.DataFrame:
        qs = _broadcast_get(qref)
        toks = [
            frozenset(_LOWER_TOKEN_RE.findall(t.lower())) for t in df["text"]
        ]
        ids = df["doc_id"].to_numpy()
        out = []
        for qid, qset in qs:
            ov = np.fromiter(
                (len(qset & td) for td in toks), dtype=np.int64, count=len(toks)
            )
            m = ov > 0
            p = pd.DataFrame(
                {"qid": qid, "doc_id": ids[m], "ov": ov[m]}
            ).sort_values(["ov", "doc_id"], ascending=[False, True])
            out.append(p.head(_RRF_K))
        return (
            pd.concat(out, ignore_index=True)
            if out
            else pd.DataFrame(
                {"qid": pd.Series(dtype="int64"),
                 "doc_id": pd.Series(dtype="int64"),
                 "ov": pd.Series(dtype="int64")}
            )
        )

    lex_parts = docs.map_batches(
        lex_partial, batch_format="pandas"
    ).to_pandas()  # bounded: n_blocks x nq x K
    lex = (
        lex_parts.sort_values(
            ["qid", "ov", "doc_id"], ascending=[True, False, True],
            kind="mergesort",
        )
        .groupby("qid", sort=False)
        .head(_RRF_K)
        .reset_index(drop=True)
    )
    lex["r_lex"] = (lex.groupby("qid", sort=False).cumcount() + 1).astype(
        np.int64
    )
    lex = lex[["qid", "doc_id", "r_lex"]]

    # fuse the two bounded lists (2 x nq x K rows)
    f = vec.merge(lex, on=["qid", "doc_id"], how="outer")
    ta = np.where(
        f["r_vec"].notna(), 1.0 / (_RRF_C + f["r_vec"].fillna(0)), 0.0
    )
    tb = np.where(
        f["r_lex"].notna(), 1.0 / (_RRF_C + f["r_lex"].fillna(0)), 0.0
    )
    f["rrf"] = ta + tb
    f = f.sort_values(
        ["qid", "rrf", "doc_id"], ascending=[True, False, True],
        kind="mergesort",
    )
    out = f.groupby("qid", sort=False).head(_RRF_OUT).reset_index(drop=True)
    out["qid"] = out["qid"].astype("int64")
    out["doc_id"] = out["doc_id"].astype("int64")
    return out[["qid", "doc_id", "rrf"]]


SQL_RRF_FUSION = f"""
WITH qv AS (
  SELECT vec_id AS qid, CAST(embedding AS DOUBLE[]) AS v
  FROM embeddings WHERE vec_id < {_RRF_NQ}
), sa AS (
  SELECT q.qid, e.vec_id AS doc_id,
         list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), q.v) AS c
  FROM embeddings e CROSS JOIN qv q
), ra AS (
  SELECT qid, doc_id,
         row_number() OVER (PARTITION BY qid ORDER BY c DESC, doc_id) AS r
  FROM sa
  QUALIFY r <= {_RRF_K}
), tq AS (
  SELECT doc_id AS qid,
         unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9]+')))
           AS tok
  FROM documents WHERE doc_id < {_RRF_NQ}
), td AS (
  SELECT doc_id,
         unnest(list_distinct(regexp_extract_all(lower(text), '[a-z0-9]+')))
           AS tok
  FROM documents
), ov AS (
  SELECT tq.qid, td.doc_id, CAST(count(*) AS BIGINT) AS ov
  FROM tq JOIN td USING (tok)
  GROUP BY 1, 2
), rb AS (
  SELECT qid, doc_id,
         row_number() OVER (PARTITION BY qid ORDER BY ov DESC, doc_id) AS r
  FROM ov
  QUALIFY r <= {_RRF_K}
), f AS (
  SELECT coalesce(ra.qid, rb.qid) AS qid,
         coalesce(ra.doc_id, rb.doc_id) AS doc_id,
         coalesce(1.0 / ({_RRF_C} + ra.r), 0)
           + coalesce(1.0 / ({_RRF_C} + rb.r), 0) AS rrf
  FROM ra FULL JOIN rb ON ra.qid = rb.qid AND ra.doc_id = rb.doc_id
)
SELECT qid, doc_id, rrf FROM f
QUALIFY row_number() OVER (PARTITION BY qid ORDER BY rrf DESC, doc_id)
        <= {_RRF_OUT}
ORDER BY qid, rrf DESC, doc_id
"""


# ---------------------------------------------------------------------------
# per-group closed-form OLS (distributed linear regression by sufficient
# statistics)
# ---------------------------------------------------------------------------
def q_ols_by_lang(sf_dir: str):
    """Per-language ordinary least squares of token count on character
    count — the distributed closed-form regression: every batch emits
    only the five sufficient statistics (n, Σx, Σy, Σxy, Σx²) per
    group, the driver reduces the bounded (blocks × langs) partials,
    and slope/intercept come out of the normal equations

        slope = (nΣxy − ΣxΣy) / (nΣx² − (Σx)²)

    No shuffle, no per-row state, O(groups) driver memory — the
    map-side-sufficient-statistics shape every grouped model fit at
    scale reduces to.  All sums are exact integers; the driver widens
    them to Python ints (the SQL side uses HUGEINT) so the products
    never wrap, then performs exactly one double conversion + one
    double division per coefficient — bit-identical to the oracle.  A
    group whose x never varies (one row, or all-equal ``n_chars``) has
    a zero denominator and no fit: slope and intercept are NULL in both
    engines.
    """
    ds = _read(sf_dir, "documents", ["lang", "text", "n_chars"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        x = df["n_chars"].to_numpy(dtype=np.int64)
        y = np.fromiter(
            (len(_TOKEN_RE.findall(t)) for t in df["text"]),
            dtype=np.int64,
            count=len(df),
        )
        g = pd.DataFrame(
            {"lang": df["lang"], "n": 1, "sx": x, "sy": y,
             "sxy": x * y, "sxx": x * x}
        )
        return g.groupby("lang", as_index=False).sum()

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    agg = parts.groupby("lang", as_index=False).sum().sort_values("lang")
    out = []
    for r in agg.itertuples():
        # Python ints: exact products even past int64 (SQL: HUGEINT)
        n, sx, sy, sxy, sxx = (
            int(r.n), int(r.sx), int(r.sy), int(r.sxy), int(r.sxx)
        )
        den = n * sxx - sx * sx
        slope = float(n * sxy - sx * sy) / float(den) if den else None
        intercept = float(sy * sxx - sx * sxy) / float(den) if den else None
        out.append(
            {"lang": r.lang, "n": n, "slope": slope, "intercept": intercept}
        )
    res = pd.DataFrame(out)
    res["n"] = res["n"].astype("int64")
    res[["slope", "intercept"]] = res[["slope", "intercept"]].astype("float64")
    return res.reset_index(drop=True)


SQL_OLS_BY_LANG = """
WITH b AS (
  SELECT lang,
         CAST(n_chars AS HUGEINT) AS x,
         CAST(len(regexp_extract_all(text, '[A-Za-z0-9]+')) AS HUGEINT) AS y
  FROM documents
), s AS (
  SELECT lang,
         CAST(count(*) AS HUGEINT) AS n,
         sum(x) AS sx, sum(y) AS sy,
         sum(x * y) AS sxy, sum(x * x) AS sxx
  FROM b GROUP BY lang
)
SELECT lang, CAST(n AS BIGINT) AS n,
       CAST(n * sxy - sx * sy AS DOUBLE)
         / CAST(NULLIF(n * sxx - sx * sx, 0) AS DOUBLE) AS slope,
       CAST(sy * sxx - sx * sxy AS DOUBLE)
         / CAST(NULLIF(n * sxx - sx * sx, 0) AS DOUBLE) AS intercept
FROM s
ORDER BY lang
"""


# ---------------------------------------------------------------------------
# AMS F2 sketch (second frequency moment / self-join size estimation)
# ---------------------------------------------------------------------------
_AMS_R = 9  # independent ±1 estimators; odd so the median is one of them


def _ams_signs(tokens, r: int) -> np.ndarray:
    """Deterministic ±1 sign per token for estimator row ``r``
    (md5-derived, so the SQL oracle reproduces the sketch exactly)."""
    md5 = hashlib.md5
    return np.fromiter(
        (
            1 if int(md5(f"{r}:{t}".encode()).hexdigest()[:16], 16) % 2 == 0
            else -1
            for t in tokens
        ),
        dtype=np.int64,
        count=len(tokens),
    )


def q_ams_f2(sf_dir: str):
    """AMS second-frequency-moment sketch (Alon, Matias & Szegedy, STOC
    1996) per language: F2 = Σ_tok count(tok)² — the self-join-size /
    skew statistic — estimated as the median of ``_AMS_R`` independent
    (Σ ±count)² estimators.  The whole sketch is MERGEABLE integer
    state: each batch emits (lang, r, z) partials with
    z = Σ sign_r(tok)·count(tok) over the batch's tokens, the driver
    sums the bounded (blocks × langs × R) rows and takes the integer
    median of z² — no shuffle, O(langs × R) driver state, one corpus
    pass, vocabulary never leaves the workers (the exact F2 needs a
    token-keyed shuffle; the sketch needs 9 ints per group).  Signs are
    md5-derived so both engines build the identical sketch, making even
    this randomized estimator bit-exact under the oracle.
    """
    ds = _read(sf_dir, "documents", ["lang", "text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = []
        for lang, g in df.groupby("lang"):
            cnt = Counter()
            for t in g["text"]:
                cnt.update(_TOKEN_RE.findall(t))
            toks = list(cnt.keys())
            c = np.fromiter(cnt.values(), dtype=np.int64, count=len(toks))
            for r in range(_AMS_R):
                out.append(
                    {
                        "lang": lang,
                        "r": r,
                        "z": int((_ams_signs(toks, r) * c).sum()),
                    }
                )
        return pd.DataFrame(
            out, columns=["lang", "r", "z"]
        ).astype({"r": "int64", "z": "int64"})

    return _ams_f2_reduce(
        ds.map_batches(partial, batch_format="pandas").to_pandas()
    )


def _ams_f2_reduce(parts: pd.DataFrame) -> pd.DataFrame:
    """(lang, r, z) partials -> one ``f2_est`` per lang: z summed per
    estimator, then the middle of the sorted int64 z² values (``_AMS_R``
    is odd) — exact where a float64 median of z² past 2^53 is not."""
    z = parts.groupby(["lang", "r"], as_index=False)["z"].sum()
    zz = (z["z"] * z["z"]).groupby(z["lang"])
    est = zz.agg(lambda v: np.sort(v.to_numpy())[len(v) // 2])
    return pd.DataFrame(
        {"lang": est.index.to_numpy(), "f2_est": est.to_numpy().astype("int64")}
    )


# the SQL oracle's reduce over est(lang, r, z): quantile_disc is the
# middle value for odd _AMS_R, and HUGEINT keeps z * z exact
_SQL_AMS_F2_REDUCE = """
SELECT lang,
       CAST(quantile_disc(CAST(z AS HUGEINT) * CAST(z AS HUGEINT), 0.5) AS BIGINT)
         AS f2_est
FROM est GROUP BY lang
ORDER BY lang
"""

SQL_AMS_F2 = f"""
WITH toks AS (
  SELECT lang, unnest(regexp_extract_all(text, '[A-Za-z0-9]+')) AS tok
  FROM documents
), cnt AS (
  SELECT lang, tok, CAST(count(*) AS BIGINT) AS c
  FROM toks GROUP BY 1, 2
), est AS (
  SELECT lang, r.r,
         sum(CASE WHEN CAST(
               ('0x' || substr(md5(CAST(r.r AS VARCHAR) || ':' || tok), 1, 16))
               AS UBIGINT) % 2 = 0 THEN c ELSE -c END) AS z
  FROM cnt CROSS JOIN (SELECT unnest(range({_AMS_R})) AS r) r
  GROUP BY 1, 2
)
{_SQL_AMS_F2_REDUCE}"""


# ---------------------------------------------------------------------------
# greedy maximum-coverage selection (submodular data-subset selection)
# ---------------------------------------------------------------------------
_MAXCOV_K = 5


def q_max_cover_select(sf_dir: str):
    """Greedy maximum-coverage document selection (the classic
    submodular-maximization data-subset pick, Nemhauser et al. 1978's
    (1 − 1/e) greedy): select ``_MAXCOV_K`` documents maximizing the
    number of DISTINCT word BIGRAMS covered — each round picks the
    document with the largest marginal gain ``|bigrams(d) \\ covered|``
    (ties to the smallest doc_id, only gains >= 1 are candidates, so
    selection stops early once everything is covered).  Bigrams, not
    unigrams: this corpus's unigram vocabulary fits inside a single
    document, which would make the greedy loop structurally trivial.

    Distributed shape (the greedy-selection loop family shared with
    ``kcenter_select``): documents tokenize ONCE into a materialized
    (doc_id, sorted bigram-hash list) dataset; each round is one map
    pass against the BROADCAST covered set — a sorted uint64 array of
    md5-64 ``_token_hash`` values, probed with ``searchsorted`` —
    emitting a single per-block best candidate (one row per block to
    the driver), and the covered set grows by one document's hashes —
    driver state is K candidates per round plus 8 bytes per covered
    bigram, never the corpus.  Two distinct bigrams share a hash with
    probability ~n²/2^65, negligible at any vocabulary this op meets.
    Marginal gains are integers, so the argmax and tie-break replay
    exactly in the unrolled SQL rounds.
    """
    from ..functions.fingerprint import _token_hash

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def tok(df: pd.DataFrame) -> pa.Table:
        hs = []
        for t in df["text"]:
            ws = _LOWER_TOKEN_RE.findall(t.lower())
            hs.append(
                np.unique(
                    np.fromiter(
                        (_token_hash(f"{a} {b}") for a, b in zip(ws, ws[1:])),
                        dtype=np.uint64,
                    )
                )
            )
        return pa.table(
            {
                "doc_id": pa.array(
                    df["doc_id"].to_numpy(), type=pa.int64()
                ),
                "hs": pa.array(hs, type=pa.list_(pa.uint64())),
            }
        )

    tok_ds = docs.map_batches(tok, batch_format="pandas").materialize()

    covered = np.zeros(0, dtype=np.uint64)
    out = []
    for rnd in range(1, _MAXCOV_K + 1):
        cov_ref = ray.put(covered)

        def best(batch: pa.Table) -> pa.Table:
            # per-block best candidate; its NEW bigram hashes ride along
            # so the driver never rescans the corpus to grow the covered
            # set.  A picked doc's bigrams are all covered, so its gain
            # is 0 and it never wins again.
            ids = batch["doc_id"].to_numpy()
            flat = pc.list_flatten(batch["hs"]).to_numpy()
            owner = pc.list_parent_indices(batch["hs"]).to_numpy()
            new = ~_sorted_member(flat, _broadcast_get(cov_ref))
            gain = np.bincount(owner[new], minlength=len(ids))
            # the largest gain, ties to the smallest doc_id; no row
            # unless that gain is >= 1
            i = np.lexsort((ids, -gain))[:1]
            i = i[gain[i] >= 1]
            return pa.table(
                {"doc_id": pa.array(ids[i], type=pa.int64()),
                 "g": pa.array(gain[i], type=pa.int64()),
                 "new": pa.array(
                     [flat[new & (owner == j)] for j in i],
                     type=pa.list_(pa.uint64()),
                 )}
            )

        cand = tok_ds.map_batches(
            best, batch_format="pyarrow"
        ).to_pandas()  # bounded: one row per block
        if cand.empty:
            break
        cand = cand.sort_values(
            ["g", "doc_id"], ascending=[False, True], kind="mergesort"
        )
        d, g = int(cand.iloc[0]["doc_id"]), int(cand.iloc[0]["g"])
        covered = np.union1d(covered, cand.iloc[0]["new"]).astype(np.uint64)
        out.append({"rk": rnd, "doc_id": d, "gain": g})
    res = pd.DataFrame(out, columns=["rk", "doc_id", "gain"])
    return res.astype({"rk": "int64", "doc_id": "int64", "gain": "int64"})


def _sql_max_cover() -> str:
    """Unrolled greedy rounds (MATERIALIZED hints per the bpe_train
    lesson: without them DuckDB re-derives the upstream round chain
    inside every later round)."""
    parts = [
        """WITH ws AS MATERIALIZED (
  SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS ts
  FROM documents
), tk AS MATERIALIZED (
  SELECT DISTINCT doc_id, ts[i + 1] || ' ' || ts[i + 2] AS tok
  FROM ws, unnest(range(0, greatest(len(ts) - 1, 0))) AS t(i)
)"""
    ]
    prev_sel: list = []
    prev_cov = None
    for r in range(1, _MAXCOV_K + 1):
        skip = (
            f"AND t.doc_id NOT IN ({' UNION ALL '.join(prev_sel)})"
            if prev_sel
            else ""
        )
        if prev_cov is None:
            gain = f"""g{r} AS MATERIALIZED (
  SELECT t.doc_id, CAST(count(*) AS BIGINT) AS g
  FROM tk t
  WHERE 1=1 {skip}
  GROUP BY 1
)"""
        else:
            gain = f"""g{r} AS MATERIALIZED (
  SELECT t.doc_id, CAST(count(*) AS BIGINT) AS g
  FROM tk t LEFT JOIN {prev_cov} c ON t.tok = c.tok
  WHERE c.tok IS NULL {skip}
  GROUP BY 1
)"""
        parts.append(gain)
        parts.append(
            f"""s{r} AS MATERIALIZED (
  SELECT doc_id, g FROM g{r} WHERE g >= 1
  ORDER BY g DESC, doc_id LIMIT 1
)"""
        )
        cov = f"""c{r} AS MATERIALIZED (
  SELECT DISTINCT tok FROM (
    {"SELECT tok FROM " + prev_cov + " UNION ALL" if prev_cov else ""}
    SELECT t.tok FROM tk t JOIN s{r} s ON t.doc_id = s.doc_id
  )
)"""
        parts.append(cov)
        prev_sel = [f"SELECT doc_id FROM s{i}" for i in range(1, r + 1)]
        prev_cov = f"c{r}"
    sel = "\nUNION ALL\n".join(
        f"SELECT CAST({r} AS BIGINT) AS rk, doc_id, g AS gain FROM s{r}"
        for r in range(1, _MAXCOV_K + 1)
    )
    return ",\n".join(parts) + f"\n{sel}\nORDER BY rk"


SQL_MAX_COVER_SELECT = _sql_max_cover()


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
SQL_QUERIES = {
    "extraction_pipeline": (q_extraction_roundtrip, SQL_EXTRACTION_ROUNDTRIP),
    "extraction_hybrid_rerun": (
        q_extraction_hybrid_roundtrip,
        SQL_EXTRACTION_ROUNDTRIP,
    ),
    "render_full_text": (q_render_full_text, SQL_RENDER_FULL_TEXT),
    "merge_by_category": (q_merge_by_category, SQL_MERGE_BY_CATEGORY),
    "compare_pipeline": (q_compare_pipeline, SQL_COMPARE_PIPELINE),
    "compare_pipeline_shuffle": (q_compare_pipeline_shuffle, SQL_COMPARE_PIPELINE),
    "match_summary": (q_match_summary, SQL_MATCH_SUMMARY),
    "minhash_lsh_pairs": (q_minhash_lsh_pairs, SQL_MINHASH_LSH_PAIRS),
    "simhash_pairs": (q_simhash_pairs, SQL_SIMHASH_PAIRS),
    "ngram_jaccard_pairs": (q_ngram_jaccard_pairs, SQL_NGRAM_JACCARD_PAIRS),
    "set_similarity_join": (q_set_similarity_join, SQL_SET_SIMILARITY_JOIN),
    "dedup_clusters": (q_dedup_clusters, SQL_DEDUP_CLUSTERS),
    "knn_cosine_ivf": (q_knn_cosine_ivf, SQL_KNN_COSINE),
    "embedding_dup_lsh": (q_embedding_dup_lsh, SQL_EMBEDDING_DUP_LSH),
    "semdedup": (q_semdedup, SQL_SEMDEDUP),
    "multimodal_features": (q_multimodal_features, SQL_MULTIMODAL_FEATURES),
    "multimodal_preprocessed": (
        q_multimodal_preprocessed,
        SQL_MULTIMODAL_PREPROCESSED,
    ),
    "approx_distinct_by_lang": (
        q_approx_distinct_by_lang,
        SQL_APPROX_DISTINCT_BY_LANG,
    ),
    "approx_top_tokens": (q_approx_top_tokens, SQL_APPROX_TOP_TOKENS),
    "normalize_hash": (q_normalize_hash, SQL_NORMALIZE_HASH),
    "exact_dedup": (q_exact_dedup, SQL_EXACT_DEDUP),
    "streaming_dedup_ingest": (q_streaming_dedup_ingest, SQL_STREAMING_DEDUP_INGEST),
    "exact_match_join": (q_exact_match_join, SQL_EXACT_MATCH_JOIN),
    "keyword_topk": (q_keyword_topk, SQL_KEYWORD_TOPK),
    "keywords_per_doc": (q_keywords_per_doc, SQL_KEYWORDS_PER_DOC),
    "classify_documents": (q_classify_documents, SQL_CLASSIFY),
    "project_detect": (q_project_detect, SQL_PROJECT_DETECT),
    "lang_id": (q_lang_id, SQL_LANG_ID),
    "quality_scores": (q_quality, SQL_QUALITY),
    "quality_quantile_filter": (
        q_quality_quantile_filter,
        SQL_QUALITY_QUANTILE_FILTER,
    ),
    "token_stats": (q_token_stats, SQL_TOKEN_STATS),
    "lineitem_agg": (q_lineitem_agg, SQL_LINEITEM_AGG),
    "nation_revenue": (q_nation_revenue, SQL_NATION_REVENUE),
    "doc_stats_by_lang_source": (q_doc_stats_by_lang_source, SQL_DOC_STATS),
    "events_daily": (q_events_daily, SQL_EVENTS_DAILY),
    "sessionize_events": (q_sessionize_events, SQL_SESSIONIZE),
    "top_users_by_value": (q_top_users_by_value, SQL_TOP_USERS),
    "knn_cosine": (q_knn_cosine, SQL_KNN_COSINE),
    "embedding_dup": (q_embedding_dup, SQL_EMBEDDING_DUP),
    "split_runs": (q_split_runs, SQL_SPLIT_RUNS),
    "timeline": (q_timeline, SQL_TIMELINE),
    "customers_without_orders": (
        q_customers_without_orders,
        SQL_CUSTOMERS_WITHOUT_ORDERS,
    ),
    "region_revenue": (q_region_revenue, SQL_REGION_REVENUE),
    "asof_event_order": (q_asof_event_order, SQL_ASOF_EVENT_ORDER),
    "rolling_user_value": (q_rolling_user_value, SQL_ROLLING_USER_VALUE),
    "order_events_1d": (q_order_events_1d, SQL_ORDER_EVENTS_1D),
    "hash_sample": (q_hash_sample, SQL_HASH_SAMPLE),
    "user_hourly_activity": (q_user_hourly_activity, SQL_USER_HOURLY),
    "user_value_median": (q_user_value_median, SQL_USER_VALUE_MEDIAN),
    "doc_fingerprint": (q_doc_fingerprint, SQL_DOC_FINGERPRINT),
    "classify_cascade": (q_classify_cascade, SQL_CLASSIFY_CASCADE),
    "supplier_nation_revenue": (q_supplier_nation_revenue, SQL_SUPPLIER_NATION_REVENUE),
    "promo_revenue_ratio": (q_promo_revenue_ratio, SQL_PROMO_REVENUE_RATIO),
    "order_items": (q_order_items, SQL_ORDER_ITEMS),
    "hopping_window": (q_hopping_window, SQL_HOPPING_WINDOW),
    "session_window": (q_session_window, SQL_SESSION_WINDOW),
    "distinct_sources_by_lang": (q_distinct_sources_by_lang, SQL_DISTINCT_SOURCES_BY_LANG),
    "curation_pipeline": (q_curation_pipeline, SQL_CURATION_PIPELINE),
    "paragraph_dedup": (q_paragraph_dedup, SQL_PARAGRAPH_DEDUP),
    "boilerplate_strip": (q_boilerplate_strip, SQL_BOILERPLATE_STRIP),
    "pack_sequences": (q_pack_sequences, SQL_PACK_SEQUENCES),
    "bigram_logprob": (q_bigram_logprob, SQL_BIGRAM_LOGPROB),
    "knn_filtered": (q_knn_filtered, SQL_KNN_FILTERED),
    "domain_quota_sample": (q_domain_quota_sample, SQL_DOMAIN_QUOTA_SAMPLE),
    "token_budget_select": (q_token_budget_select, SQL_TOKEN_BUDGET_SELECT),
    "ingest_dedup": (q_ingest_dedup, SQL_INGEST_DEDUP),
    "exactsubstr_dedup": (q_exactsubstr_dedup, SQL_EXACTSUBSTR_DEDUP),
    "mix_resample": (q_mix_resample, SQL_MIX_RESAMPLE),
    "dsir_select": (q_dsir_select, SQL_DSIR_SELECT),
    "dsir_resample": (q_dsir_resample, SQL_DSIR_RESAMPLE),
    "doc_repetition_stats": (q_doc_repetition_stats, SQL_DOC_REPETITION_STATS),
    "frame_sample": (q_frame_sample, SQL_FRAME_SAMPLE),
    "shuffle_shards": (q_shuffle_shards, SQL_SHUFFLE_SHARDS),
    "resize_digest": (q_resize_digest, SQL_RESIZE_DIGEST),
    "repeated_ngrams": (q_repeated_ngrams, SQL_REPEATED_NGRAMS),
    "contamination": (q_contamination, SQL_CONTAMINATION),
    "decontam_frac": (q_decontam_frac, SQL_DECONTAM_FRAC),
    "pii_redact": (q_pii_redact, SQL_PII_REDACT),
    "tfidf_topk": (q_tfidf_topk, SQL_TFIDF_TOPK),
    "inverted_index": (q_inverted_index, SQL_INVERTED_INDEX),
    "value_histogram": (q_value_histogram, SQL_VALUE_HISTOGRAM),
    "stratified_sample": (q_stratified_sample, SQL_STRATIFIED_SAMPLE),
    "user_value_quantiles": (q_user_value_quantiles, SQL_USER_VALUE_QUANTILES),
    "near_dedup_keep": (q_near_dedup_keep, SQL_NEAR_DEDUP_KEEP),
    "near_dedup_keep_best": (q_near_dedup_keep_best, SQL_NEAR_DEDUP_KEEP_BEST),
    "subword_token_stats": (q_subword_token_stats, SQL_SUBWORD_TOKEN_STATS),
    "bpe_pair_counts": (q_bpe_pair_counts, SQL_BPE_PAIR_COUNTS),
    "bpe_train": (q_bpe_train, SQL_BPE_TRAIN),
    "bpe_vocab": (q_bpe_vocab, SQL_BPE_VOCAB),
    "top_tokens_by_lang": (q_top_tokens_by_lang, SQL_TOP_TOKENS_BY_LANG),
    "perplexity_buckets": (q_perplexity_buckets, SQL_PERPLEXITY_BUCKETS),
    "approx_quantile_hist": (q_approx_quantile_hist, SQL_APPROX_QUANTILE_HIST),
    "chunk_windows": (q_chunk_windows, SQL_CHUNK_WINDOWS),
    "char_entropy": (q_char_entropy, SQL_CHAR_ENTROPY),
    "pmi_cooccur": (q_pmi_cooccur, SQL_PMI_COOCCUR),
    "winnow_fingerprint": (q_winnow_fingerprint, SQL_WINNOW_FINGERPRINT),
    "rand_projection": (q_rand_projection, SQL_RAND_PROJECTION),
    "source_minhash_overlap": (
        q_source_minhash_overlap,
        SQL_SOURCE_MINHASH_OVERLAP,
    ),
    "bloom_decontam": (q_bloom_decontam, SQL_BLOOM_DECONTAM),
    "priority_sample": (q_priority_sample, SQL_PRIORITY_SAMPLE),
    "ngram_novelty": (q_ngram_novelty, SQL_NGRAM_NOVELTY),
    "bm25_topk": (q_bm25_topk, SQL_BM25_TOPK),
    "pagerank": (q_pagerank, SQL_PAGERANK),
    "gopher_filter": (q_gopher_filter, SQL_GOPHER_FILTER),
    "chi2_keyness": (q_chi2_keyness, SQL_CHI2_KEYNESS),
    "label_propagation": (q_label_propagation, SQL_LABEL_PROPAGATION),
    "hits": (q_hits, SQL_HITS),
    "kmeans": (q_kmeans, SQL_KMEANS),
    "pq_ann": (q_pq_ann, SQL_PQ_ANN),
    "image_phash_dup": (q_image_phash_dup, SQL_IMAGE_PHASH_DUP),
    "textrank_keywords": (q_textrank_keywords, SQL_TEXTRANK_KEYWORDS),
    "heavy_hitters": (q_heavy_hitters, SQL_HEAVY_HITTERS),
    "kneser_ney_logprob": (q_kneser_ney_logprob, SQL_KNESER_NEY_LOGPROB),
    "containment_search": (q_containment_search, SQL_CONTAINMENT_SEARCH),
    "kcenter_select": (q_kcenter_select, SQL_KCENTER_SELECT),
    "dict_match": (q_dict_match, SQL_DICT_MATCH),
    "edit_distance_join": (q_edit_distance_join, SQL_EDIT_DISTANCE_JOIN),
    "skyline_select": (q_skyline_select, SQL_SKYLINE_SELECT),
    "zorder_layout": (q_zorder_layout, SQL_ZORDER_LAYOUT),
    "upsert_merge": (q_upsert_merge, SQL_UPSERT_MERGE),
    "jsd_source_drift": (q_jsd_source_drift, SQL_JSD_SOURCE_DRIFT),
    "naive_bayes_classify": (q_naive_bayes_classify, SQL_NAIVE_BAYES_CLASSIFY),
    "triangle_count": (q_triangle_count, SQL_TRIANGLE_COUNT),
    "rollup_stats": (q_rollup_stats, SQL_ROLLUP_STATS),
    "funnel_stages": (q_funnel_stages, SQL_FUNNEL_STAGES),
    "item_cf_topk": (q_item_cf_topk, SQL_ITEM_CF_TOPK),
    "global_rank": (q_global_rank, SQL_GLOBAL_RANK),
    "frequent_itemsets": (q_frequent_itemsets, SQL_FREQUENT_ITEMSETS),
    "sorted_neighborhood_pairs": (
        q_sorted_neighborhood_pairs,
        SQL_SORTED_NEIGHBORHOOD_PAIRS,
    ),
    "rrf_fusion": (q_rrf_fusion, SQL_RRF_FUSION),
    "ols_by_lang": (q_ols_by_lang, SQL_OLS_BY_LANG),
    "ams_f2": (q_ams_f2, SQL_AMS_F2),
    "max_cover_select": (q_max_cover_select, SQL_MAX_COVER_SELECT),
}
