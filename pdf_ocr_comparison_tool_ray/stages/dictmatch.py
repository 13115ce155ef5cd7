"""Aho-Corasick multi-pattern dictionary matching as a task-mapped stage.

The gazetteer/blocklist scan every curation pipeline runs (C4's badword
filter, RefinedWeb's URL blocklists, entity tagging): given a dictionary
of terms, count every occurrence of every term in every document in ONE
pass over the text — O(len(text) + matches) per document regardless of
dictionary size, vs O(len(text) * n_terms) for per-term scanning.  The
reference's keyword counting (``ocr_engine.py:392-412``) re-scans per
keyword; this is the algorithmic upgrade a 10k-term dictionary needs.

Orchestration shape (the part that matters at 100 TB): ``match_batch``
is a plain function mapped as Ray tasks with ``fn_kwargs={"terms": ...}``;
the automaton is built once per worker process (a module-level cache
keyed on the term tuple, so a 10k-term dictionary still compiles once
per worker) and every batch streams through the compiled goto/fail
tables.  No actor pool: the scan is short, and a pool's start-up cost
dwarfs it — a pool also holds CPUs the upstream read task needs.
Per-batch output is a (term, n_docs, n_occur) partial bounded by the
dictionary size, so the final merge is O(terms), never O(corpus).

Exactness contract: every dictionary term must be BORDER-FREE (no
proper prefix that is also a suffix — asserted at build time), so a
term's occurrences cannot overlap themselves and Aho-Corasick's
all-end-positions count equals Python's non-overlapping ``str.count``
and SQL's replace-length trick — the oracle is exact, not approximate.

Deploy note: this pure-Python automaton is the portable reference
implementation; swap in the C-extension ``pyahocorasick`` (same
automaton, same counts) if the char loop ever binds — not installable
in this offline container.
"""

from __future__ import annotations

from collections import Counter, deque
from functools import lru_cache
from typing import Dict, Iterable, List, Sequence, Tuple

import pandas as pd
import pyarrow as pa


def _has_border(term: str) -> bool:
    """True if some proper prefix of ``term`` is also a suffix."""
    return any(term[:k] == term[-k:] for k in range(1, len(term)))


class AhoCorasick:
    """Classic goto/fail/output automaton (Aho & Corasick 1975)."""

    def __init__(self, terms: Iterable[str]):
        self.terms: List[str] = sorted(set(terms))
        for t in self.terms:
            if not t:
                raise ValueError("empty dictionary term")
            assert not _has_border(t), (
                f"term {t!r} has a border; occurrence counts would not "
                "match non-overlapping semantics"
            )
        self.goto: List[Dict[str, int]] = [{}]
        self.out: List[List[str]] = [[]]
        self.fail: List[int] = [0]
        for t in self.terms:
            s = 0
            for ch in t:
                nxt = self.goto[s].get(ch)
                if nxt is None:
                    self.goto.append({})
                    self.out.append([])
                    self.fail.append(0)
                    nxt = len(self.goto) - 1
                    self.goto[s][ch] = nxt
                s = nxt
            self.out[s].append(t)
        dq: deque[int] = deque()
        for s in self.goto[0].values():
            self.fail[s] = 0
            dq.append(s)
        while dq:
            r = dq.popleft()
            for ch, s in self.goto[r].items():
                dq.append(s)
                f = self.fail[r]
                while f and ch not in self.goto[f]:
                    f = self.fail[f]
                self.fail[s] = self.goto[f].get(ch, 0) if r else 0
                self.out[s] = self.out[s] + self.out[self.fail[s]]

    def count(self, text: str) -> Counter:
        """All-occurrence counts of every term in one pass."""
        c: Counter = Counter()
        s = 0
        goto, fail, out = self.goto, self.fail, self.out
        for ch in text:
            while s and ch not in goto[s]:
                s = fail[s]
            s = goto[s].get(ch, 0)
            if out[s]:
                c.update(out[s])
        return c


@lru_cache(maxsize=4)
def _automaton(terms: Tuple[str, ...]) -> AhoCorasick:
    """The compiled automaton for ``terms``, built once per worker."""
    return AhoCorasick(terms)


def match_batch(batch: pa.Table, terms: Sequence[str]) -> pd.DataFrame:
    """One batch of ``text`` -> bounded (term, n_docs, n_occur) partials."""
    ac = _automaton(tuple(terms))
    occ: Counter = Counter()
    docs: Counter = Counter()
    for t in batch["text"].to_pylist():
        c = ac.count(t)
        occ.update(c)
        docs.update(c.keys())
    return pd.DataFrame(
        {
            "term": pd.Series(ac.terms, dtype="object"),
            "n_docs": pd.Series(
                [docs.get(t, 0) for t in ac.terms], dtype="int64"
            ),
            "n_occur": pd.Series(
                [occ.get(t, 0) for t in ac.terms], dtype="int64"
            ),
        }
    )
