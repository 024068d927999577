"""Grouping inputs by their contextual signatures.

Services that target on the content displayed next to an output reveal
which inputs they consider similar: two inputs that attract the same
outputs are, from the service's point of view, interchangeable.  Each
input's *contextual signature* is its vector of display counts with one
dimension per output.  Inputs whose signatures are close get placed into
the same shadow-account group, which concentrates the behavioral signal
instead of diluting it over near-duplicates.

Distances are Euclidean after per-signature L2 normalization, so only
the mix of outputs matters, not the display volume; ``raw=True``
switches to the literal count-space metric.  Clustering is
single-linkage: merge two clusters whenever any cross pair sits at
strictly less than the threshold.  All-zero signatures never merge —
absence of evidence is not similarity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DomainError

DEFAULT_DISTANCE_THRESHOLD = 0.5


@dataclass(frozen=True)
class ContextualSignature:
    """One input's display-count vector, stored sparsely.

    ``coords`` maps output_id to a positive display count; outputs never
    displayed next to the input are simply absent.
    """

    input_id: int
    coords: dict[int, int]

    def __init__(self, input_id: int, coords: Mapping[int, int] = ()):
        items = dict(coords)
        for k, v in items.items():
            if v < 0:
                raise DomainError(
                    f"display counts must be >= 0, got {v} for output {k}"
                )
        object.__setattr__(self, "input_id", int(input_id))
        object.__setattr__(
            self, "coords", {int(k): int(v) for k, v in sorted(items.items()) if v}
        )

    @property
    def is_zero(self) -> bool:
        return not self.coords

    @property
    def norm(self) -> float:
        return math.sqrt(sum(v * v for v in self.coords.values()))


def build_signatures(
    contextual: Mapping[int, np.ndarray | Sequence[int]],
    n_inputs: int | None = None,
) -> list[ContextualSignature]:
    """One signature per input from per-output display-count vectors.

    ``contextual`` is the mapping produced by the contextual simulator
    (or an ObservationSet's ``contextual`` field): output_id → length-N
    count vector.  The signature dimensions are the union of all outputs
    present.
    """
    vecs = {int(k): np.asarray(v, dtype=np.int64) for k, v in contextual.items()}
    lengths = {v.shape[0] for v in vecs.values()}
    if len(lengths) > 1:
        raise DomainError(f"count vectors disagree on input count: {sorted(lengths)}")
    if n_inputs is None:
        if not lengths:
            return []
        n_inputs = lengths.pop()
    elif lengths and lengths != {n_inputs}:
        raise DomainError(
            f"count vectors have length {lengths.pop()}, expected {n_inputs}"
        )
    return [
        ContextualSignature(
            i, {k: int(vec[i]) for k, vec in sorted(vecs.items()) if vec[i]}
        )
        for i in range(n_inputs)
    ]


def signature_distance(
    a: ContextualSignature, b: ContextualSignature, raw: bool = False
) -> float:
    """Euclidean distance over the union of output dimensions.

    Signatures are L2-normalized first unless ``raw`` is set; an
    all-zero signature stays the zero vector either way.
    """
    na = a.norm if not raw else 1.0
    nb = b.norm if not raw else 1.0
    na = na or 1.0
    nb = nb or 1.0
    total = 0.0
    for k in a.coords.keys() | b.coords.keys():
        d = a.coords.get(k, 0) / na - b.coords.get(k, 0) / nb
        total += d * d
    return math.sqrt(total)


def cluster_inputs(
    signatures: Iterable[ContextualSignature],
    distance_threshold: float = DEFAULT_DISTANCE_THRESHOLD,
    raw: bool = False,
) -> list[list[int]]:
    """Single-linkage partition of the inputs.

    Two inputs end up together iff a chain of strictly-below-threshold
    pairs connects them (connected components of the threshold graph).
    All-zero signatures are never linked to anything.  The result is a
    partition: sorted id lists, ordered by first member.
    """
    sigs = list(signatures)
    ids = [s.input_id for s in sigs]
    if len(set(ids)) != len(ids):
        raise DomainError("duplicate input_id among signatures")
    if distance_threshold < 0:
        raise DomainError(f"distance threshold must be >= 0, got {distance_threshold}")

    parent = {i: i for i in ids}

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    active = [s for s in sigs if not s.is_zero]
    for a, b in combinations(active, 2):
        if signature_distance(a, b, raw=raw) < distance_threshold:
            parent[find(a.input_id)] = find(b.input_id)

    groups: dict[int, list[int]] = {}
    for i in ids:
        groups.setdefault(find(i), []).append(i)
    return sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])


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
