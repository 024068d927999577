"""Signature matrices, distances, and single-linkage grouping."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    ContextualSignature,
    cluster_inputs_oracle,
    oracle_signatures,
    signature_distance,
)
from xcorr.core_model import Combination, Family
from xcorr.errors import DomainError
from xcorr.experiment.config import MATCH_AD_BASE
from xcorr.input_matching import build_signatures, cluster_inputs, cluster_purity
from xcorr.simulator import CONTEXTUAL, TargetingSpec, simulate_contextual


def sigs(*rows):
    """A signature matrix from per-input count rows."""
    return np.array(rows, dtype=np.int64)


def test_identical_signatures_distance_zero():
    a = ContextualSignature(0, {1: 3, 2: 4})
    b = ContextualSignature(1, {1: 3, 2: 4})
    assert signature_distance(a, b) == 0.0
    assert signature_distance(a, b, raw=True) == 0.0
    # distance 0 is not below a threshold of 0; any positive one links
    assert cluster_inputs(sigs([3, 4], [3, 4]), 0.0) == [[0], [1]]
    assert cluster_inputs(sigs([3, 4], [3, 4]), 1e-300) == [[0, 1]]
    assert cluster_inputs(sigs([3, 4], [3, 4]), 1e-300, raw=True) == [[0, 1]]


def test_orthogonal_unit_signatures_distance_sqrt2():
    a = ContextualSignature(0, {1: 7})
    b = ContextualSignature(1, {2: 11})
    assert signature_distance(a, b) == pytest.approx(math.sqrt(2.0))
    m = sigs([7, 0], [0, 11])
    assert cluster_inputs(m, math.sqrt(2.0)) == [[0], [1]]
    assert cluster_inputs(m, math.nextafter(math.sqrt(2.0), 2.0)) == [[0, 1]]


def test_scaling_vanishes_after_normalization():
    a = ContextualSignature(0, {10: 3, 11: 4})
    doubled = ContextualSignature(1, {10: 6, 11: 8})
    assert signature_distance(a, doubled) == pytest.approx(0.0)
    # the raw metric keeps the volume difference: |(3,4)| = 5
    assert signature_distance(a, doubled, raw=True) == pytest.approx(5.0)
    m = sigs([3, 4], [6, 8])
    assert cluster_inputs(m, 1e-9) == [[0, 1]]
    assert cluster_inputs(m, 5.0, raw=True) == [[0], [1]]
    assert cluster_inputs(m, 5.000001, raw=True) == [[0, 1]]


def test_zero_entries_are_dropped_and_negatives_rejected():
    s = ContextualSignature(3, {1: 0, 2: 5})
    assert s.coords == {2: 5}
    with pytest.raises(DomainError):
        ContextualSignature(0, {1: -2})
    with pytest.raises(DomainError, match="got -2"):
        build_signatures(np.array([[1, 2], [0, -2]]))


def test_build_signatures_shapes():
    # K x N counts of outputs 7 and 9, rows in ascending id
    counts = np.array([[0, 2, 0], [1, 0, 0]], dtype=np.int32)
    m = build_signatures(counts)
    assert m.dtype == np.int64
    # one row per input, one column per output in ascending id (7, 9)
    assert m.tolist() == [[0, 1], [2, 0], [0, 0]]
    assert not m[2].any()  # never displayed against: all-zero signature


def test_build_signatures_checks_the_count_matrix():
    for bad in ([1, 2], [[[1, 2]]], [[1.5, 2.0]]):
        with pytest.raises(DomainError, match="2-D integer count matrix"):
            build_signatures(np.array(bad))
    with pytest.raises(DomainError, match="must be >= 0"):
        build_signatures(np.array([[2**63]], dtype=np.uint64))
    no_outputs = np.zeros((0, 2), dtype=np.int64)
    assert build_signatures(np.zeros((0, 0), dtype=np.int64)).shape == (0, 0)
    assert build_signatures(no_outputs).shape == (2, 0)
    assert cluster_inputs(build_signatures(np.zeros((0, 0), dtype=np.int64))) == []
    assert cluster_inputs(build_signatures(no_outputs)) == [[0], [1]]


def test_cluster_inputs_rejects_bad_matrices():
    # rows are inputs 0..N-1, so ids cannot repeat; what is left to
    # reject is a negative threshold and anything but a count matrix
    with pytest.raises(DomainError):
        cluster_inputs(sigs([1, 0]), -0.5)
    with pytest.raises(DomainError):
        cluster_inputs(np.array([1, 2]))
    with pytest.raises(DomainError):
        cluster_inputs(np.array([[0.5, 1.0]]))
    with pytest.raises(DomainError):
        cluster_inputs(sigs([1, -1]))
    # squares of counts this large no longer sum exactly in int64
    with pytest.raises(DomainError, match="overflow"):
        cluster_inputs(sigs([2**40, 1], [1, 1]))


def test_threshold_zero_gives_singletons():
    assert cluster_inputs(sigs([1, 0], [1, 0], [0, 1]), 0.0) == [[0], [1], [2]]


def test_threshold_infinity_merges_all_nonzero():
    m = sigs([1, 0, 0], [0, 1, 0], [0, 0, 4], [0, 0, 0])
    assert cluster_inputs(m, math.inf) == [[0, 1, 2], [3]]


def test_zero_signatures_never_merge():
    m = sigs([0], [0], [1])
    assert cluster_inputs(m, math.inf) == [[0], [1], [2]]
    assert cluster_inputs(m, math.inf, raw=True) == [[0], [1], [2]]


def test_single_linkage_chains():
    # 0-1 close, 1-2 close, 0-2 far: single linkage still joins all three
    a = ContextualSignature(0, {1: 10, 2: 1})
    b = ContextualSignature(1, {1: 10, 2: 5})
    c = ContextualSignature(2, {1: 10, 2: 9})
    thr = signature_distance(a, b) + 1e-6
    assert signature_distance(a, c) > thr
    assert signature_distance(b, c) < thr
    assert cluster_inputs(sigs([10, 1], [10, 5], [10, 9]), thr) == [[0, 1, 2]]


def test_large_matrices_are_clustered_in_blocks(monkeypatch):
    from xcorr import input_matching

    rng = np.random.default_rng(11)
    m = rng.integers(0, 4, size=(40, 7)) * (rng.random((40, 7)) < 0.5)
    whole = cluster_inputs(m, 0.6)
    monkeypatch.setattr(input_matching, "_BLOCK_ELEMENTS", 7 * 40 * 3)
    assert cluster_inputs(m, 0.6) == whole
    assert whole == cluster_inputs_oracle(oracle_signatures(dict(enumerate(m.T)), 40), 0.6)


def test_scale_invariant_cluster_assignment():
    rng = np.random.default_rng(5)
    base = rng.integers(1, 40, size=6)
    m = np.zeros((3, 7), dtype=np.int64)
    m[0, :6], m[1, :6], m[2, 6] = base, 3 * base, 17
    assert cluster_inputs(m, 0.5) == [[0, 1], [2]]


# Output ids from both ends: the workload's own (near 0) and the
# category ads' (from MATCH_AD_BASE up).
_OUTPUT_IDS = st.sampled_from(
    list(range(6)) + [MATCH_AD_BASE + k for k in (0, 1, 2, 7, 8, 31, 32, 64)]
)


@st.composite
def contextual_counts(draw):
    """(output_id -> count column, n_inputs) with some all-zero columns
    and rows, and some inputs sharing a signature up to scale."""
    n = draw(st.integers(1, 8))
    ids = draw(st.lists(_OUTPUT_IDS, max_size=8, unique=True))
    m = np.array(
        draw(st.lists(
            st.lists(st.integers(0, 40), min_size=len(ids), max_size=len(ids)),
            min_size=n, max_size=n,
        )),
        dtype=np.int64,
    ).reshape(n, len(ids))
    for j in draw(st.lists(st.integers(0, max(len(ids) - 1, 0)), max_size=3)):
        if ids:
            m[:, j] = 0
    if n > 1 and draw(st.booleans()):
        m[1] = draw(st.integers(1, 3)) * m[0]
    return {k: m[:, j] for j, k in enumerate(ids)}, n


@settings(max_examples=300, deadline=None)
@given(contextual_counts(), st.booleans(), st.data())
def test_cluster_inputs_matches_oracle(case, raw, data):
    contextual, n = case
    oracle_sigs = oracle_signatures(contextual, n)
    distances = [
        signature_distance(a, b, raw=raw)
        for a in oracle_sigs for b in oracle_sigs
        if a.input_id < b.input_id and not a.is_zero and not b.is_zero
    ]
    # a threshold equal to an oracle distance pins the strict < and the
    # float-for-float distances
    if distances and data.draw(st.booleans()):
        threshold = data.draw(st.sampled_from(distances))
    else:
        threshold = data.draw(st.floats(0.0, 60.0))
    counts = np.array([contextual[k] for k in sorted(contextual)], dtype=np.int64)
    got = cluster_inputs(build_signatures(counts.reshape(-1, n)), threshold, raw=raw)
    assert got == cluster_inputs_oracle(oracle_sigs, threshold, raw=raw)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 500), st.integers(0, 500)), min_size=1, max_size=12),
    st.booleans(),
)
def test_pair_distance_is_float_equal_to_oracle(columns, raw):
    # with two inputs the partition shows whether their distance is below
    # the threshold, so linking at nextafter(d) but not at d pins it to d
    m = np.array(columns, dtype=np.int64).T
    a, b = oracle_signatures(dict(enumerate(m.T)), 2)
    if a.is_zero or b.is_zero:
        return
    d = signature_distance(a, b, raw=raw)
    assert cluster_inputs(m, d, raw=raw) == [[0], [1]]
    assert cluster_inputs(m, math.nextafter(d, math.inf), raw=raw) == [[0, 1]]


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(0, 9), min_size=4, max_size=4), min_size=1, max_size=8
    ),
    st.floats(0.0, 3.0),
)
def test_cluster_output_is_partition(rows, threshold):
    clusters = cluster_inputs(np.array(rows), threshold)
    flat = [i for g in clusters for i in g]
    assert sorted(flat) == list(range(len(rows)))
    assert all(g == sorted(g) for g in clusters)
    assert [g[0] for g in clusters] == sorted(g[0] for g in clusters)


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
        clusters = cluster_inputs(build_signatures(counts), 0.5)
        assert clusters == cluster_inputs_oracle(
            oracle_signatures(dict(enumerate(counts)), len(truth) * 3), 0.5
        )
        purities.append(cluster_purity(clusters, truth))
    assert float(np.mean(purities)) >= 17 / 18
