"""Seeded input generators for the four benchmark workloads.

Everything here is a pure function of the seed and the sizes below, and
depends on nothing in the engine package, so a change to the program can
never move a workload's inputs.  Each ``make_*`` writes parquet files
into a directory and returns the workload's defining properties, which
the run records next to its metrics.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Dict, List, Tuple

import pyarrow as pa
import pyarrow.parquet as pq

# Workload sizes.  Fixed here, not on the command line: a run's inputs
# are defined by (workload, seed) alone.
EXTRACT_DOCS = 1200
EXTRACT_LONG_DOCS = 2  # the small tail of ~100x longer documents
EXTRACT_FILES = 8  # read blocks: 2x the logical CPUs

COMPARE_REF_DOCS = 80
COMPARE_PROBE_DOCS = 80
COMPARE_SHARES = {"exact": 0.4, "edited": 0.3, "unrelated": 0.3}

CURATE_DOCS = 600
CURATE_DUP_SHARE = 0.15
CURATE_REJECT_SHARE = 0.15
CURATE_FILES = 8

QUERY_DOCS = 150

# Profile of the sf0.1 ``documents`` table of the repository's test
# data (TESTDATA.md), measured on its 5,000 rows:
# * every word is drawn uniformly from the 30 words below (each holds
#   3.26% to 3.39% of all words);
# * word counts are uniform over 10..100 (quartiles 32 / 54 / 76, mean
#   54.1);
# * 5% of the rows (250) repeat an earlier row's text with " dup"
#   appended, the table's near-duplicates;
# * lang is en for 41% of the rows and zh, es, fr, de for 15% each;
#   source is ``src{doc_id % 20}``.
SF_VOCAB = (
    "spark window merge table column vector stream value data small join "
    "filter big group hash customer sort order slow line part fast row the "
    "agg key query a scan batch"
).split()
SF_WORDS = (10, 100)
SF_MEAN_WORDS = 54
SF_DUP_SHARE = 0.05
SF_LANGS = ("en", "zh", "es", "fr", "de")
SF_LANG_WEIGHTS = (41, 15, 15, 15, 15)


def _large_vocab() -> List[str]:
    """~3000 distinct pseudo-words built from a fixed syllable grid.

    Independent of the run seed.  The compare and curate documents draw
    their words from it instead of SF_VOCAB (their word counts still
    follow SF_WORDS): with 30 words, word bigrams repeat so often that
    the curation gate's repetition rule drops 44% of the sf0.1 rows, and
    unrelated probes would share most of their tokens with the
    reference.  Here bigrams almost never repeat inside one document, so
    the curate reject share and the compare probe kinds stay what the
    generator plants."""
    onsets = "b c d f g h j k l m n p r s t v w z br ch cl dr fl gr pl sh st tr".split()
    vowels = "a e i o u ai ea io ou".split()
    codas = ["", "n", "r", "s", "t", "l", "m", "x"]
    rng = random.Random("perfbench-vocab")
    words = set()
    while len(words) < 3000:
        n_syl = rng.choice((2, 2, 3))
        w = "".join(
            rng.choice(onsets) + rng.choice(vowels) for _ in range(n_syl)
        ) + rng.choice(codas)
        if 4 <= len(w) <= 11:
            words.add(w)
    return sorted(words)


LARGE_VOCAB = _large_vocab()


def _words(rng: random.Random, vocab, n: int) -> List[str]:
    return [rng.choice(vocab) for _ in range(n)]


def _lengths(rng: random.Random, n: int, lo: int, hi: int) -> List[int]:
    """``n`` word counts spread evenly over [lo, hi], in seeded order:
    every seed gets the same multiset, so the amount of work per pass
    does not move with the seed."""
    out = [lo + (hi - lo) * i // max(1, n - 1) for i in range(n)]
    rng.shuffle(out)
    return out


def sf_texts(rng: random.Random, n: int) -> List[str]:
    """``n`` texts with the sf0.1 profile: SF_VOCAB words, word counts
    spread over SF_WORDS, and SF_DUP_SHARE of them an earlier text with
    " dup" appended."""
    dups = set(rng.sample(range(1, n), round(n * SF_DUP_SHARE)))
    texts: List[str] = []
    originals: List[str] = []
    for i, k in enumerate(_lengths(rng, n, *SF_WORDS)):
        if i in dups:
            texts.append(rng.choice(originals) + " dup")
        else:
            originals.append(" ".join(_words(rng, SF_VOCAB, k)))
            texts.append(originals[-1])
    return texts


def _write(table: pa.Table, out_dir: Path, n_files: int) -> None:
    """Split ``table`` into ``n_files`` contiguous parquet files."""
    out_dir.mkdir(parents=True, exist_ok=True)
    n = table.num_rows
    step = -(-n // n_files)
    for i in range(n_files):
        pq.write_table(table.slice(i * step, step), out_dir / f"part-{i:03d}.parquet")


# ---------------------------------------------------------------------------
# extract: flat (doc_id, text) documents with a long-document tail
# ---------------------------------------------------------------------------
def extract_corpus(seed: int) -> List[Tuple[str, str]]:
    """sf0.1-profile documents with seed-derived doc_ids, plus
    EXTRACT_LONG_DOCS documents of 100x the mean word count at seeded
    positions."""
    rng = random.Random(f"extract:{seed}")
    texts = sf_texts(rng, EXTRACT_DOCS - EXTRACT_LONG_DOCS)
    for _ in range(EXTRACT_LONG_DOCS):
        long_text = " ".join(_words(rng, SF_VOCAB, 100 * SF_MEAN_WORDS))
        texts.insert(rng.randrange(len(texts) + 1), long_text)
    return [(f"s{seed}-{rng.getrandbits(40):010x}", t) for t in texts]


def make_extract(seed: int, out_dir: Path) -> Dict:
    docs = extract_corpus(seed)
    table = pa.table(
        {"doc_id": [d for d, _ in docs], "text": [t for _, t in docs]}
    )
    _write(table, out_dir, EXTRACT_FILES)
    n_words = [len(t.split(" ")) for _, t in docs]
    return {
        "docs": len(docs),
        "long_docs": EXTRACT_LONG_DOCS,
        "long_doc_words": 100 * SF_MEAN_WORDS,
        "dup_share": SF_DUP_SHARE,
        "words": sum(n_words),
        "files": EXTRACT_FILES,
    }


# ---------------------------------------------------------------------------
# compare: reference corpus + probe corpus of three kinds
# ---------------------------------------------------------------------------
def _date(rng: random.Random) -> str:
    return f"20{rng.randint(10, 29)}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"


def _amount(rng: random.Random) -> str:
    return f"¥{rng.randint(1, 999)},{rng.randint(0, 999):03d}.{rng.randint(0, 99):02d}"


def compare_corpora(seed: int):
    """-> (reference docs, probe docs, probe kind per probe doc_id).

    Reference documents carry dates and amounts.  Probe kinds:
    ``exact`` copies (same doc_id and text, so every span hash-matches),
    ``edited`` copies that replace ~25% of the plain words but keep
    every date and amount (so spans prune by date/amount and score as
    partial matches), and ``unrelated`` documents with no dates or
    amounts (so their spans take the fallback-100 scan)."""
    rng = random.Random(f"compare:{seed}")
    ref = []
    for i, n in enumerate(_lengths(rng, COMPARE_REF_DOCS, *SF_WORDS)):
        words = _words(rng, LARGE_VOCAB, n)
        for _ in range(1 + i % 3):
            words.insert(rng.randrange(len(words)), _date(rng))
        for _ in range(1 + i % 2):
            words.insert(rng.randrange(len(words)), _amount(rng))
        ref.append((f"r{seed}-{rng.getrandbits(40):010x}", " ".join(words)))

    n_exact = round(COMPARE_PROBE_DOCS * COMPARE_SHARES["exact"])
    n_edited = round(COMPARE_PROBE_DOCS * COMPARE_SHARES["edited"])
    n_unrel = COMPARE_PROBE_DOCS - n_exact - n_edited
    picked = rng.sample(range(len(ref)), n_exact + n_edited)
    probe, kinds = [], {}
    for j, i in enumerate(picked):
        doc_id, text = ref[i]
        if j < n_exact:
            probe.append((doc_id, text))
            kinds[doc_id] = "exact"
            continue
        words = text.split(" ")
        for k, w in enumerate(words):
            plain = not (w[:1].isdigit() or w.startswith("¥"))
            if plain and rng.random() < 0.25:
                words[k] = rng.choice(LARGE_VOCAB)
        probe.append((doc_id, " ".join(words)))
        kinds[doc_id] = "edited"
    for n in _lengths(rng, n_unrel, *SF_WORDS):
        doc_id = f"u{seed}-{rng.getrandbits(40):010x}"
        probe.append((doc_id, " ".join(_words(rng, LARGE_VOCAB, n))))
        kinds[doc_id] = "unrelated"
    return ref, probe, kinds


def make_compare(seed: int, out_dir: Path) -> Dict:
    ref, probe, kinds = compare_corpora(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, docs in (("reference", ref), ("probe", probe)):
        pq.write_table(
            pa.table({"doc_id": [d for d, _ in docs], "text": [t for _, t in docs]}),
            out_dir / f"{name}.parquet",
        )
    counts = {k: sum(1 for v in kinds.values() if v == k) for k in COMPARE_SHARES}
    return {
        "reference_docs": len(ref),
        "probe_docs": len(probe),
        **{f"probe_{k}_share": counts[k] / len(probe) for k in COMPARE_SHARES},
    }


# ---------------------------------------------------------------------------
# curate: documents with normalisation-equivalent duplicates and rejects
# ---------------------------------------------------------------------------
def _reject_text(rng: random.Random) -> str:
    """A document the curation gate must drop, one of three ways."""
    kind = rng.randrange(3)
    if kind == 0:  # too short
        return " ".join(_words(rng, LARGE_VOCAB, rng.randint(3, 8)))
    if kind == 1:  # repeated phrase: top word-2-gram char share far over the cap
        phrase = " ".join(_words(rng, LARGE_VOCAB, 3))
        return " ".join([phrase] * rng.randint(6, 12))
    # punctuation spam
    return " ".join(w + "!?;:" * 3 for w in _words(rng, LARGE_VOCAB, rng.randint(12, 30)))


def _respell(rng: random.Random, text: str) -> str:
    """Same text under the dedup normalisation (lowercase, no whitespace),
    different bytes: random case flips and whitespace runs."""
    out = []
    for w in text.split(" "):
        if rng.random() < 0.3:
            w = w.upper()
        out.append(w)
    return "".join(
        w + rng.choice((" ", "  ", "\t", "\n ")) for w in out
    ).strip()


def curate_corpus(seed: int) -> List[Tuple[int, str, str, str]]:
    rng = random.Random(f"curate:{seed}")
    n_dup = round(CURATE_DOCS * CURATE_DUP_SHARE)
    n_rej = round(CURATE_DOCS * CURATE_REJECT_SHARE)
    n_base = CURATE_DOCS - n_dup - n_rej
    texts = [" ".join(_words(rng, LARGE_VOCAB, n)) for n in _lengths(rng, n_base, *SF_WORDS)]
    texts += [_respell(rng, rng.choice(texts[:n_base])) for _ in range(n_dup)]
    texts += [_reject_text(rng) for _ in range(n_rej)]
    # shuffle ids so a duplicate is as likely to be the first (kept) copy
    ids = rng.sample(range(10 * CURATE_DOCS), CURATE_DOCS)
    docs = [
        (ids[i], t, rng.choices(SF_LANGS, weights=SF_LANG_WEIGHTS)[0], f"src{ids[i] % 20}")
        for i, t in enumerate(texts)
    ]
    docs.sort()
    return docs


def make_curate(seed: int, out_dir: Path) -> Dict:
    docs = curate_corpus(seed)
    table = pa.table(
        {
            "doc_id": pa.array([d[0] for d in docs], type=pa.int64()),
            "text": [d[1] for d in docs],
            "lang": [d[2] for d in docs],
            "source": [d[3] for d in docs],
        }
    )
    _write(table, out_dir, CURATE_FILES)
    return {
        "docs": len(docs),
        "dup_share": CURATE_DUP_SHARE,
        "reject_share": CURATE_REJECT_SHARE,
        "files": CURATE_FILES,
    }


# ---------------------------------------------------------------------------
# query_mix: one documents.parquet in the driver's table layout
# ---------------------------------------------------------------------------
def query_corpus(seed: int) -> List[Tuple[int, str, str, str]]:
    """The sf0.1 documents table's profile at QUERY_DOCS rows."""
    rng = random.Random(f"query:{seed}")
    return [
        (i, t, rng.choices(SF_LANGS, weights=SF_LANG_WEIGHTS)[0], f"src{i % 20}")
        for i, t in enumerate(sf_texts(rng, QUERY_DOCS))
    ]


def make_query(seed: int, out_dir: Path) -> Dict:
    docs = query_corpus(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([d[0] for d in docs], type=pa.int64()),
                "text": [d[1] for d in docs],
                "lang": [d[2] for d in docs],
                "source": [d[3] for d in docs],
                "n_chars": pa.array([len(d[1]) for d in docs], type=pa.int64()),
            }
        ),
        out_dir / "documents.parquet",
    )
    return {"docs": len(docs), "dup_share": SF_DUP_SHARE}


MAKERS = {
    "extract": make_extract,
    "compare": make_compare,
    "curate": make_curate,
    "query_mix": make_query,
}
