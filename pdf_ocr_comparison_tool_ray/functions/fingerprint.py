"""Document fingerprinting and near-dup sketches.

* ``rolling_fingerprint`` — polynomial rolling hash over the token
  stream (Rabin-Karp style), one 63-bit fingerprint per document.
* ``minhash_signature`` — k-permutation MinHash over token shingles
  (universal-hash permutations ax+b mod p, deterministic seeds).
* ``lsh_bands`` — band hashes for MinHash-LSH bucketing.
* ``simhash64`` — 64-bit SimHash over token hashes.

All deterministic pure functions; the distributed dedup pipelines in
``stages/dedup.py`` wrap these in vectorized ``map_batches`` + groupbys.
"""

from __future__ import annotations

import hashlib
from typing import List

import numpy as np

_MOD = (1 << 61) - 1  # Mersenne prime
_BASE = 1_000_003
_MERSENNE = (1 << 61) - 1


def _token_hash(tok: str) -> int:
    return int.from_bytes(hashlib.md5(tok.encode()).digest()[:8], "big")


def rolling_fingerprint(tokens: List[str]) -> int:
    """Polynomial rolling hash of the whole token stream (order-sensitive)."""
    h = 0
    for t in tokens:
        h = (h * _BASE + _token_hash(t)) % _MOD
    return h


def shingles(tokens: List[str], n: int = 3) -> List[str]:
    """Word n-gram shingles; whole doc as one shingle when shorter than n."""
    if len(tokens) < n:
        return [" ".join(tokens)] if tokens else []
    return [" ".join(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


def _perm_params(num_perm: int, seed: int = 7) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.RandomState(seed)
    a = rng.randint(1, _MERSENNE, size=num_perm, dtype=np.int64).astype(np.uint64)
    b = rng.randint(0, _MERSENNE, size=num_perm, dtype=np.int64).astype(np.uint64)
    return a, b

_PERM_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def minhash_signature(shingle_list: List[str], num_perm: int = 64) -> np.ndarray:
    """MinHash signature (uint64[num_perm]); empty input -> all MAX."""
    if num_perm not in _PERM_CACHE:
        _PERM_CACHE[num_perm] = _perm_params(num_perm)
    a, b = _PERM_CACHE[num_perm]
    if not shingle_list:
        return np.full(num_perm, np.iinfo(np.uint64).max, dtype=np.uint64)
    hv = np.array([_token_hash(s) for s in shingle_list], dtype=np.uint64)
    # (num_perm, n) universal hash; python-object math avoided via uint64 wrap
    prod = np.multiply.outer(a, hv)  # wraps mod 2^64 — fine as a permutation family
    perm = prod + b[:, None]
    return perm.min(axis=1)


def lsh_bands(signature: np.ndarray, num_bands: int = 16) -> List[int]:
    """Hash each band of the signature -> one 63-bit bucket key per band."""
    rows = len(signature) // num_bands
    out: List[int] = []
    for i in range(num_bands):
        band = signature[i * rows : (i + 1) * rows]
        digest = hashlib.md5(band.tobytes()).digest()
        out.append(int.from_bytes(digest[:8], "big") >> 1)
    return out


def simhash64(tokens: List[str]) -> int:
    """64-bit SimHash over token hashes (frequency-weighted).

    Bit extraction is numpy-vectorized over the unique-token hash array
    (one (n_unique, 64) bit matrix instead of a Python loop per token);
    values are identical to the scalar formulation."""
    if not tokens:
        return 0
    from collections import Counter

    counts = Counter(tokens)
    hv = np.array([_token_hash(t) for t in counts], dtype=np.uint64)
    cnt = np.array(list(counts.values()), dtype=np.int64)
    bits = ((hv[:, None] >> np.arange(64, dtype=np.uint64)) & 1).astype(np.int64)
    acc = ((bits * 2 - 1) * cnt[:, None]).sum(axis=0)
    out = 0
    for i in range(64):
        if acc[i] > 0:
            out |= 1 << i
    return out
