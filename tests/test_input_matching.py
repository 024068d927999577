"""Contextual signatures, distances, and single-linkage grouping."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xcorr.core_model import Combination, Family
from xcorr.errors import DomainError
from xcorr.input_matching import (
    ContextualSignature,
    build_signatures,
    cluster_inputs,
    cluster_purity,
    signature_distance,
)
from xcorr.simulator import CONTEXTUAL, TargetingSpec, simulate_contextual


def sig(i, **coords):
    # letter keywords name output dimensions; ord() keeps them distinct ints
    return ContextualSignature(i, {ord(k): v for k, v in coords.items()})


def test_identical_signatures_distance_zero():
    a = ContextualSignature(0, {1: 3, 2: 4})
    b = ContextualSignature(1, {1: 3, 2: 4})
    assert signature_distance(a, b) == 0.0
    assert signature_distance(a, b, raw=True) == 0.0


def test_orthogonal_unit_signatures_distance_sqrt2():
    a = ContextualSignature(0, {1: 7})
    b = ContextualSignature(1, {2: 11})
    assert signature_distance(a, b) == pytest.approx(math.sqrt(2.0))


def test_scaling_vanishes_after_normalization():
    a = ContextualSignature(0, {10: 3, 11: 4})
    doubled = ContextualSignature(1, {10: 6, 11: 8})
    assert signature_distance(a, doubled) == pytest.approx(0.0)
    # the raw metric keeps the volume difference: |(3,4)| = 5
    assert signature_distance(a, doubled, raw=True) == pytest.approx(5.0)


def test_zero_entries_are_dropped_and_negatives_rejected():
    s = ContextualSignature(3, {1: 0, 2: 5})
    assert s.coords == {2: 5}
    with pytest.raises(DomainError):
        ContextualSignature(0, {1: -2})


def test_build_signatures_shapes():
    contextual = {
        7: np.array([0, 2, 0]),
        9: np.array([1, 0, 0]),
    }
    sigs = build_signatures(contextual)
    assert [s.input_id for s in sigs] == [0, 1, 2]
    assert sigs[0].coords == {9: 1}
    assert sigs[1].coords == {7: 2}
    assert sigs[2].is_zero  # never displayed against: all-zero signature


def test_build_signatures_validates_lengths():
    with pytest.raises(DomainError):
        build_signatures({0: [1, 2], 1: [1, 2, 3]})
    with pytest.raises(DomainError):
        build_signatures({0: [1, 2]}, n_inputs=3)
    assert build_signatures({}) == []
    assert [s.is_zero for s in build_signatures({}, n_inputs=2)] == [True, True]


def test_threshold_zero_gives_singletons():
    sigs = [sig(0, a=1), sig(1, a=1), sig(2, b=1)]
    assert cluster_inputs(sigs, 0.0) == [[0], [1], [2]]


def test_threshold_infinity_merges_all_nonzero():
    sigs = [sig(0, a=1), sig(1, b=1), sig(2, c=4), ContextualSignature(3, {})]
    got = cluster_inputs(sigs, math.inf)
    assert got == [[0, 1, 2], [3]]


def test_zero_signatures_never_merge():
    sigs = [ContextualSignature(0, {}), ContextualSignature(1, {}), sig(2, a=1)]
    assert cluster_inputs(sigs, math.inf) == [[0], [1], [2]]


def test_single_linkage_chains():
    # 0-1 close, 1-2 close, 0-2 far: single linkage still joins all three
    a = ContextualSignature(0, {1: 10, 2: 1})
    b = ContextualSignature(1, {1: 10, 2: 5})
    c = ContextualSignature(2, {1: 10, 2: 9})
    thr = signature_distance(a, b) + 1e-6
    assert signature_distance(a, c) > thr
    assert signature_distance(b, c) < thr
    assert cluster_inputs([a, b, c], thr) == [[0, 1, 2]]


def test_duplicate_ids_rejected_and_negative_threshold():
    with pytest.raises(DomainError):
        cluster_inputs([sig(0, a=1), sig(0, b=1)])
    with pytest.raises(DomainError):
        cluster_inputs([sig(0, a=1)], -0.5)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.dictionaries(st.integers(0, 5), st.integers(0, 9), max_size=4),
        min_size=1,
        max_size=8,
    ),
    st.floats(0.0, 3.0),
)
def test_cluster_output_is_partition(coord_dicts, threshold):
    sigs = [ContextualSignature(i, d) for i, d in enumerate(coord_dicts)]
    clusters = cluster_inputs(sigs, threshold)
    flat = [i for g in clusters for i in g]
    assert sorted(flat) == list(range(len(sigs)))
    assert all(g == sorted(g) for g in clusters)


def test_scale_invariant_cluster_assignment():
    rng = np.random.default_rng(5)
    base = {k: int(v) for k, v in enumerate(rng.integers(1, 40, size=6))}
    sigs = [
        ContextualSignature(0, base),
        ContextualSignature(1, {k: 3 * v for k, v in base.items()}),
        ContextualSignature(2, {99: 17}),
    ]
    assert cluster_inputs(sigs, 0.5) == [[0, 1], [2]]


def test_purity_metric():
    truth = [[0, 1, 2], [3, 4, 5]]
    assert cluster_purity([[0, 1, 2], [3, 4, 5]], truth) == 1.0
    assert cluster_purity([[0, 1, 3], [2, 4, 5]], truth) == pytest.approx(4 / 6)
    assert cluster_purity([], []) == 1.0


def _category_workload(seed, n_groups=6, per_group=3, ads_per_group=4):
    """Inputs 3g..3g+2 belong to category g; each category has its own ads."""
    n = n_groups * per_group
    specs = []
    oid = 0
    for g in range(n_groups):
        members = [[g * per_group + j] for j in range(per_group)]
        for _ in range(ads_per_group):
            specs.append(
                TargetingSpec.targeted(
                    oid,
                    Family(members),
                    p_in=0.25,
                    p_out=0.002,
                    channel=CONTEXTUAL,
                    group_tag=f"cat{g}",
                )
            )
            oid += 1
    counts = simulate_contextual(
        Combination(range(n)), specs, displays_per_input=60, seed=seed, n_inputs=n
    )
    truth = [[g * per_group + j for j in range(per_group)] for g in range(n_groups)]
    return counts, truth


def test_category_workload_recovers_groups():
    purities = []
    for seed in range(6):
        counts, truth = _category_workload(seed)
        sigs = build_signatures(counts)
        clusters = cluster_inputs(sigs, 0.5)
        purities.append(cluster_purity(clusters, truth))
    assert float(np.mean(purities)) >= 17 / 18
