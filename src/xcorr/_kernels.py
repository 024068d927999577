"""Bit-parallel witness-search kernel.

A family of K member sets over n inputs is packed into per-input
bitsets: row i carries one bit per member, set when that member
contains input i.  "How many members does this candidate combination
intersect" is then an OR over a few rows plus a popcount, and the
witness search walks candidate combinations smallest size first,
lexicographic within each size, stopping at the first hit.

The kernel answers many searches at once: :func:`find_witness_batch`
takes a stack of Q families over one input universe, as lock-step
core-family searches produce them (the pending queries of a trial's
outputs, a breadth-first level of containment tests among them), and
:func:`find_witness` is its one-query call.  It lays the stack out
words-first, each query's rows as a (words, n) block, so every sum of
popcounts over a row's words adds whole contiguous rows of n counts
rather than a few words at a time.  Counts are compared in the width
they come in: uint8 popcounts on one-word stacks, int32 sums over
several words, against thresholds clipped to fit.  Size 1 is read off a
Q x n degree matrix, and a stack settled there (in a level block of
containment tests, most are) returns at once.  Size 2 covers
popcount(b_i | b_j) (= deg_i + deg_j - |b_i & b_j|) for every pair of
every open query at once, taken in blocks of first rows i against all
rows j and masked to i < j, so row-major order within a block is
lexicographic order.  Sizes of 3 and up enumerate candidates per query,
in chunks, over that query's nonzero rows.  The batch call answers each
query with a sorted tuple of row indices, the form the searches keep
in their memos; :func:`find_witness` returns an int64 array.  There is
one engine, plain numpy (``np.bitwise_count`` needs numpy 2.0).
"""

from __future__ import annotations

from itertools import combinations, islice

import numpy as np

_CHUNK = 2048

#: Always False: the witness engine is plain numpy.  ``perfbench/run.py``
#: prints it in its environment line.
HAS_NUMBA = False


def pack_bitsets(contains: np.ndarray) -> np.ndarray:
    """Pack a (K, n) boolean membership matrix into shape (n, ceil(K/64)).

    Bit k of word w in row i is set iff member 64*w+k contains input i.
    """
    contains = np.asarray(contains, dtype=bool)
    if contains.ndim != 2:
        raise ValueError(f"expected a 2-d membership matrix, got {contains.ndim}-d")
    k, n = contains.shape
    packed = np.zeros((n, max(1, -(-k // 64))), dtype="<u8")
    packed.view(np.uint8)[:, : -(-k // 8)] = np.packbits(contains.T, axis=1, bitorder="little")
    return packed


def popcount_u64(x: np.ndarray) -> np.ndarray:
    """Per-element population count of a uint64 array, as int64."""
    return np.bitwise_count(np.asarray(x, dtype=np.uint64)).astype(np.int64)


def _first_pairs(rows, thresholds, queries, out) -> list[int]:
    """Fill ``out[q]`` with each query's first pair (i < j), lexicographic,
    whose OR covers its threshold.  Returns the queries left without one.

    ``rows`` is the words-first (Q, words, n) stack and ``thresholds``
    are already in the width the coverages are compared in.  Pairs are
    taken for blocks of first rows i against all rows j, so row-major
    order within a block is lexicographic order; a pair's coverage is
    summed over the words axis, one contiguous (i, j) block per word."""
    live = np.asarray(queries, dtype=np.int64)
    if live.size < rows.shape[0]:
        sub, thr = rows[live], thresholds[live, None, None]
    else:
        sub, thr = rows, thresholds[:, None, None]
    words, n = rows.shape[1:]
    cols = np.arange(n)
    step = max(1, _CHUNK * 32 // (live.size * n * words))
    for start in range(0, n - 1, step):
        cover = np.bitwise_count(sub[:, :, start : start + step, None] | sub[:, :, None])
        cover = cover[:, 0] if words == 1 else cover.sum(axis=1, dtype=np.int32)
        upper = cols > cols[start : start + step, None]
        hit = ((cover >= thr) & upper).reshape(live.size, -1)
        still = []
        for pos, (k, any_hit, h) in enumerate(
            zip(live.tolist(), hit.any(axis=1).tolist(), hit.argmax(axis=1).tolist())
        ):
            if any_hit:
                out[k] = (start + h // n, h % n)
            else:
                still.append(pos)
        if not still:
            return []
        if len(still) < live.size:
            live, sub, thr = live[still], sub[still], thr[still]
    return live.tolist()


def _first_combination(bitsets: np.ndarray, threshold: int, size: int):
    """First combination of ``size`` columns of the words-first
    (words, n) ``bitsets``, lexicographic, whose OR covers at least
    threshold members."""
    it = combinations(range(bitsets.shape[1]), size)
    while chunk := list(islice(it, _CHUNK)):
        idx = np.asarray(chunk, dtype=np.int64)
        acc = bitsets[:, idx[:, 0]]
        for j in range(1, size):
            acc = acc | bitsets[:, idx[:, j]]
        hits = np.flatnonzero(np.bitwise_count(acc).sum(axis=0, dtype=np.int64) >= threshold)
        if hits.size:
            return idx[hits[0]]
    return None


def find_witness_batch(stack: np.ndarray, thresholds, l_max: int) -> list:
    """:func:`find_witness` for Q bitset families at once.

    ``stack`` has shape (Q, n, n_words): query q's rows, zero-padded to a
    common word count (zero rows and words cover nothing, so padding
    never changes a witness).  ``thresholds`` holds one threshold per
    query.  Returns a list of Q results, each a sorted tuple of row
    indices or None.

    The kernel reads the stack words-first, as (Q, n_words, n), so every
    sum over words adds whole rows of n counts.  Counts are compared in
    their own width, uint8 for one-word stacks and int32 otherwise, with
    each threshold clipped to one more than a full row of words (no
    combination covers more).  Size 1 is read off a Q x n degree matrix,
    and a block every query of which is settled there returns at once.
    Size 2 is read off the pair coverages of every query still open, and
    sizes of 3 and up run per query over that query's nonzero rows.  No
    combination holding a zero row can be the first hit (dropping the
    row leaves a smaller combination with the same coverage, already
    tried), so each answer is the one the query would get on its own.
    """
    stack = np.asarray(stack)
    if stack.ndim != 3:
        raise ValueError(f"expected a 3-d (queries, rows, words) stack, got {stack.ndim}-d")
    thresholds = np.asarray(thresholds)
    if thresholds.shape != stack.shape[:1] or thresholds.dtype.kind not in "iu":
        raise ValueError(
            f"expected {stack.shape[0]} integer thresholds, got shape {thresholds.shape}"
        )
    if min(thresholds.tolist(), default=1) < 1:
        raise ValueError(f"thresholds must be >= 1, got {thresholds.min()}")
    if l_max < 1:
        raise ValueError(f"l_max must be >= 1, got {l_max}")
    q, n, words = stack.shape
    if q == 0 or n == 0:
        return [None] * q
    rows = np.ascontiguousarray(stack.transpose(0, 2, 1), dtype=np.uint64)
    thr = np.minimum(thresholds, 64 * words + 1).astype(np.uint8 if words == 1 else np.int32)
    counts = np.bitwise_count(rows)
    deg = counts[:, 0] if words == 1 else counts.sum(axis=1, dtype=np.int32)
    hit = deg >= thr[:, None]
    settled = hit.any(axis=1)
    out: list = [
        (h,) if s else None for s, h in zip(settled.tolist(), hit.argmax(axis=1).tolist())
    ]
    if l_max < 2 or n < 2 or settled.all():
        return out
    for k in _first_pairs(rows, thr, np.flatnonzero(~settled), out):
        keep = np.flatnonzero(deg[k])
        for size in range(3, min(l_max, keep.size) + 1):
            idx = _first_combination(rows[k][:, keep], int(thresholds[k]), size)
            if idx is not None:
                out[k] = tuple(keep[idx].tolist())
                break
    return out


def find_witness(bitsets: np.ndarray, threshold: int, l_max: int):
    """First combination of ≤ l_max rows whose OR covers ≥ threshold members.

    ``bitsets`` is the (n, n_words) output of :func:`pack_bitsets`.
    Returns a sorted int64 index array, or None when no such combination
    exists.  Candidates are tried smallest size first, lexicographic
    within a size, so the result is deterministic and minimal-size.
    This is the one-query call of :func:`find_witness_batch`.
    """
    bitsets = np.asarray(bitsets)
    if bitsets.ndim != 2:
        raise ValueError(f"expected 2-d bitsets, got {bitsets.ndim}-d")
    [w] = find_witness_batch(bitsets[None], np.array([threshold]), l_max)
    return None if w is None else np.array(w, dtype=np.int64)
