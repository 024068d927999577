"""Bit-parallel witness-search kernel.

A family of K member sets over n inputs is packed into per-input
bitsets: row i carries one bit per member, set when that member
contains input i.  "How many members does this candidate combination
intersect" is then an OR over a few rows plus a popcount, and the
witness search walks candidate combinations smallest size first,
lexicographic within each size, stopping at the first hit.

Sizes 1 and 2 are answered from per-row degrees: a single row covers
its own popcount, and a pair covers deg_i + deg_j - |b_i & b_j| by
inclusion-exclusion, evaluated over all pairs at once in
``np.triu_indices`` order, which is lexicographic order.  Sizes of 3
and up enumerate candidates in chunks and OR their rows.  There is one
engine, plain numpy (``np.bitwise_count`` needs numpy 2.0).
"""

from __future__ import annotations

from itertools import combinations, islice

import numpy as np

_S1 = np.uint64(1)

_CHUNK = 2048

#: Always False: the witness engine is plain numpy.  ``perfbench/run.py``
#: prints it in its environment line.
HAS_NUMBA = False


def pack_bitsets(contains: np.ndarray) -> np.ndarray:
    """Pack a (K, n) boolean membership matrix into shape (n, ceil(K/64)).

    Bit k of word w in row i is set iff member 64*w+k contains input i.
    """
    contains = np.ascontiguousarray(contains, dtype=bool)
    if contains.ndim != 2:
        raise ValueError(f"expected a 2-d membership matrix, got {contains.ndim}-d")
    k, n = contains.shape
    n_words = max(1, -(-k // 64))
    packed = np.zeros((n, n_words), dtype=np.uint64)
    weights = np.left_shift(_S1, np.arange(64, dtype=np.uint64))
    for w in range(n_words):
        block = contains[64 * w : 64 * (w + 1)]
        if block.shape[0] == 0:
            break
        sel = np.where(block.T, weights[: block.shape[0]], np.uint64(0))
        packed[:, w] = np.bitwise_or.reduce(sel, axis=1)
    return packed


def popcount_u64(x: np.ndarray) -> np.ndarray:
    """Per-element population count of a uint64 array, as int64."""
    return np.bitwise_count(np.asarray(x, dtype=np.uint64)).astype(np.int64)


def _first_pair(bitsets: np.ndarray, deg: np.ndarray, threshold: int):
    """First pair (i < j), lexicographic, with deg_i + deg_j - |b_i & b_j|
    at or above threshold."""
    n = bitsets.shape[0]
    rows, cols = np.triu_indices(n, 1)
    for start in range(0, rows.size, _CHUNK):
        i, j = rows[start : start + _CHUNK], cols[start : start + _CHUNK]
        shared = popcount_u64(bitsets[i] & bitsets[j]).sum(axis=1)
        hits = np.flatnonzero(deg[i] + deg[j] - shared >= threshold)
        if hits.size:
            h = hits[0]
            return np.array([i[h], j[h]], dtype=np.int64)
    return None


def _first_combination(bitsets: np.ndarray, threshold: int, size: int):
    """First combination of ``size`` rows, lexicographic, whose OR covers
    at least threshold members."""
    it = combinations(range(bitsets.shape[0]), size)
    while chunk := list(islice(it, _CHUNK)):
        idx = np.asarray(chunk, dtype=np.int64)
        acc = bitsets[idx[:, 0]]
        for j in range(1, size):
            acc = acc | bitsets[idx[:, j]]
        hits = np.flatnonzero(popcount_u64(acc).sum(axis=1) >= threshold)
        if hits.size:
            return idx[hits[0]].copy()
    return None


def find_witness(bitsets: np.ndarray, threshold: int, l_max: int):
    """First combination of ≤ l_max rows whose OR covers ≥ threshold members.

    ``bitsets`` is the (n, n_words) output of :func:`pack_bitsets`.
    Returns a sorted int64 index array, or None when no such combination
    exists.  Candidates are tried smallest size first, lexicographic
    within a size, so the result is deterministic and minimal-size.
    """
    bitsets = np.ascontiguousarray(bitsets, dtype=np.uint64)
    if bitsets.ndim != 2:
        raise ValueError(f"expected 2-d bitsets, got {bitsets.ndim}-d")
    if threshold < 1:
        raise ValueError(f"threshold must be >= 1, got {threshold}")
    if l_max < 1:
        raise ValueError(f"l_max must be >= 1, got {l_max}")
    n = bitsets.shape[0]
    if n == 0:
        return None
    deg = popcount_u64(bitsets).sum(axis=1)
    hits = np.flatnonzero(deg >= threshold)
    if hits.size:
        return hits[:1].astype(np.int64)
    if l_max >= 2 and n >= 2:
        pair = _first_pair(bitsets, deg, threshold)
        if pair is not None:
            return pair
    for size in range(3, min(l_max, n) + 1):
        found = _first_combination(bitsets, threshold, size)
        if found is not None:
            return found
    return None
