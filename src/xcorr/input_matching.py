"""Grouping inputs by their contextual signatures.

Services that target on the content displayed next to an output reveal
which inputs they consider similar: two inputs that attract the same
outputs are, from the service's point of view, interchangeable.  Each
input's *contextual signature* is its vector of display counts with one
dimension per output.  Inputs whose signatures are close get placed into
the same shadow-account group, which concentrates the behavioral signal
instead of diluting it over near-duplicates.

The signatures of a trial are one N×K count matrix: row i is input i,
column j the j-th output in ascending output id.  Distances are
Euclidean after per-row L2 normalization, so only the mix of outputs
matters, not the display volume; ``raw=True`` switches to the literal
count-space metric.  Pairwise distances are computed in numpy blocks
of inputs (one block for a trial-sized matrix), summing squared
differences over the outputs in ascending id.
Clustering is single-linkage: merge two clusters whenever any cross pair
sits at strictly less than the threshold.  All-zero signatures never
merge — absence of evidence is not similarity.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import DomainError

DEFAULT_DISTANCE_THRESHOLD = 0.5
# float64 elements of one (K, B, N) difference block: B rows of inputs
# at a time, so memory stays bounded for large N×K
_BLOCK_ELEMENTS = 1 << 20


def _count_matrix(counts: np.ndarray, what: str) -> np.ndarray:
    """``counts`` as a 2-D non-negative int64 array."""
    counts = np.asarray(counts)
    if counts.ndim != 2 or (counts.size and counts.dtype.kind not in "iu"):
        raise DomainError(
            f"{what} must be a 2-D integer count matrix, got {counts.dtype} "
            f"of shape {counts.shape}"
        )
    # unsigned counts past 2**63 - 1 wrap to negative here, and are rejected
    counts = counts.astype(np.int64, copy=False)
    if counts.size and counts.min() < 0:
        raise DomainError(f"display counts must be >= 0, got {counts.min()}")
    return counts


def build_signatures(counts: np.ndarray) -> np.ndarray:
    """The N×K int64 signature matrix: the transpose of the K×N display
    counts the contextual simulator returns (an ObservationSet's
    ``contextual`` matrix), rows in ascending output id.  Column j holds
    the j-th output; an input never displayed against has an all-zero
    row.
    """
    return np.ascontiguousarray(_count_matrix(counts, "display counts").T)


def cluster_inputs(
    signatures: np.ndarray,
    distance_threshold: float = DEFAULT_DISTANCE_THRESHOLD,
    raw: bool = False,
) -> list[list[int]]:
    """Single-linkage partition of the inputs (the rows of ``signatures``).

    Two inputs end up together iff a chain of strictly-below-threshold
    pairs connects them (connected components of the threshold graph).
    All-zero signatures are never linked to anything.  The result is a
    partition: sorted id lists, ordered by first member.
    """
    counts = _count_matrix(signatures, "signatures")
    if distance_threshold < 0:
        raise DomainError(f"distance threshold must be >= 0, got {distance_threshold}")
    n, k = counts.shape
    if counts.size:
        # the squared norms are summed exactly in int64
        limit = math.isqrt((2**63 - 1) // k)
        if counts.max() > limit:
            raise DomainError(f"display counts above {limit} overflow the squared norm")
    norm = np.sqrt((counts * counts).sum(axis=1))
    active = norm > 0
    scale = np.ones(n) if raw else np.where(active, norm, 1.0)
    # (K, N) rows in ascending output id; summing a (K, B, N) block over
    # axis 0 adds the outputs' terms one after another, in that order
    u = np.ascontiguousarray((counts / scale[:, None]).T)
    close = np.empty((n, n), dtype=bool)
    step = max(1, _BLOCK_ELEMENTS // max(k * n, 1))
    for lo in range(0, n, step):
        diff = u[:, lo : lo + step, None] - u[:, None, :]
        close[lo : lo + step] = np.sqrt((diff * diff).sum(axis=0)) < distance_threshold
    close &= active[:, None] & active[None, :]

    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    first, second = np.nonzero(np.triu(close, 1))
    for a, b in zip(first.tolist(), second.tolist()):
        parent[find(a)] = find(b)

    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    # ids are visited in ascending order, so each group is sorted and the
    # groups come in order of their first member
    return list(groups.values())


def cluster_purity(
    clusters: Sequence[Sequence[int]], true_groups: Sequence[Sequence[int]]
) -> float:
    """Fraction of inputs whose cluster is dominated by their own group.

    Standard purity: each cluster votes for the true group it overlaps
    most; inputs in the majority overlap count as correct.
    """
    truth = {}
    for g_idx, group in enumerate(true_groups):
        for i in group:
            truth[i] = g_idx
    total = sum(len(c) for c in clusters)
    if total == 0:
        return 1.0
    correct = 0
    for cluster in clusters:
        votes: dict[int, int] = {}
        for i in cluster:
            if i in truth:
                votes[truth[i]] = votes.get(truth[i], 0) + 1
        correct += max(votes.values(), default=0)
    return correct / total
