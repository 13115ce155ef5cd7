"""Deterministic derivation of interleaved (doc_id, spans) documents.

The engine's primary input is the interleaved documents table described
by ``BASELINE.json``'s input_hint.  In this sandbox we synthesize it
deterministically from flat text documents (the driver's
``documents.parquet`` or the in-repo seeded corpus): each document's
text is chunked into spans and each span is rendered as one of the four
kinds (text / html / pdf / scan), with the *physical* span order
shuffled while ``offset`` records logical order — so the reassembly
shuffle is provably doing work.

Everything here is a pure function of ``(seed, doc_id, text)`` — the
same doc produces the same spans in any process, which is what makes
golden fixtures, resume, and the two-parallelism-level bench comparable.
"""

from __future__ import annotations

import html as html_mod
import random
from typing import Dict, List

from ..functions.mock_ocr import encode_media
from ..functions.pdf_parse import serialize_text_layer

KINDS = ("text", "html", "pdf", "scan")
_KIND_WEIGHTS = (50, 20, 20, 10)

_NAV_WORDS = ["Home", "About", "Contact", "Login", "Search", "Archive"]
_FOOTER_JUNK = "Copyright 2024 Example Corp. All rights reserved. Privacy Terms Sitemap"
_JUNK_WORDS = ["zzq", "qxv", "vnn", "kpl", "wrt", "jjm", "bzx", "ggh"]


def wrap_html(chunk: str, rng: random.Random) -> str:
    """Wrap content in boilerplate the stripper must remove exactly."""
    nav_links = "".join(
        f'<a href="#{w.lower()}">{w}</a>' for w in rng.sample(_NAV_WORDS, 3)
    )
    sidebar = "".join(f'<a href="#s{i}">{rng.choice(_NAV_WORDS)} {i}</a>' for i in range(4))
    return (
        "<html><head><title>t</title><style>body{margin:0}</style>"
        "<script>var x=1;</script></head><body>"
        f"<nav>{nav_links}</nav>"
        f"<div><p>{sidebar}</p></div>"
        f'<div class="content"><p>{html_mod.escape(chunk)}</p></div>'
        f"<footer><p>{_FOOTER_JUNK}</p></footer>"
        "</body></html>"
    )


def corrupt_text(chunk: str, rng: random.Random, rate: float = 0.5) -> str:
    """Simulate a broken PDF text layer: replace ~rate of the words."""
    words = chunk.split(" ")
    out = [rng.choice(_JUNK_WORDS) if rng.random() < rate else w for w in words]
    return " ".join(out)


def derive_spans(doc_id: str, text: str, seed: int = 42) -> List[Dict]:
    """Pure function (seed, doc_id, text) -> list of span structs.

    Spans are returned in a seeded *shuffled physical order*; ``offset``
    carries the logical order the pipeline must restore.
    """
    rng = random.Random(f"{seed}:{doc_id}")
    words = [w for w in text.split(" ") if w]
    spans: List[Dict] = []
    i = 0
    offset = 0
    while i < len(words):
        take = rng.randint(6, 18)
        # absorb a degenerate tail (joined length < 3 chars, i.e. one
        # trailing 1-2 char word) into this chunk: the html stripper's
        # min-length boilerplate heuristic (correctly, per reference
        # semantics) drops blocks that short, which would break the
        # round-trip invariant the synthetic corpus promises.  Same rng
        # consumption as before — the absorbed tail simply never becomes
        # its own chunk (found by the sf0.1 oracle sweep: 4/5000 docs
        # ended in ' a' and lost it on the html route).  Words are
        # non-empty, so only a tail of at most 2 words can be that short:
        # join it only then, keeping the check O(1) per chunk.
        n_rest = len(words) - (i + take)
        if 0 < n_rest <= 2 and len(" ".join(words[i + take :])) < 3:
            take += n_rest
        chunk = " ".join(words[i : i + take])
        i += take
        kind = rng.choices(KINDS, weights=_KIND_WEIGHTS)[0]
        if kind == "text":
            spans.append({"kind": "text", "text": chunk, "media_ref": "", "offset": offset})
        elif kind == "html":
            spans.append(
                {"kind": "html", "text": wrap_html(chunk, rng), "media_ref": "", "offset": offset}
            )
        elif kind == "pdf":
            corrupted = rng.random() < 0.3
            layer_text = corrupt_text(chunk, rng) if corrupted else chunk
            n_lines = max(1, (len(layer_text.split(" ")) + 7) // 8)
            n_blocks = max(1, (n_lines + 2) // 3)
            order = list(range(n_blocks))
            rng.shuffle(order)  # physical block order scrambled; coords keep truth
            spans.append(
                {
                    "kind": "pdf",
                    "text": serialize_text_layer(layer_text, block_order=order),
                    "media_ref": encode_media(chunk),
                    "offset": offset,
                }
            )
        else:  # scan
            spans.append(
                {"kind": "scan", "text": "", "media_ref": encode_media(chunk), "offset": offset}
            )
        offset += 1
    if not spans:
        spans.append({"kind": "text", "text": "", "media_ref": "", "offset": 0})
    rng.shuffle(spans)  # physical order != logical order
    return spans


def derive_documents_batch(batch, seed: int = 42):
    """map_batches body: flat (doc_id, text) pandas batch -> interleaved rows."""
    import pandas as pd

    doc_ids = batch["doc_id"].astype(str).tolist()
    texts = batch["text"].tolist()
    return pd.DataFrame(
        {
            "doc_id": doc_ids,
            "spans": [derive_spans(d, t, seed) for d, t in zip(doc_ids, texts)],
        }
    )
