"""Witness search, containment test, and the two recovery algorithms."""

import gc
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    account_inputs,
    agglomerative_oracle,
    conditional_members,
    depth_block_queries,
    pack_bitsets_reference,
    removal_oracle,
    witness_enumerate,
)
from xcorr import core_family_search
from xcorr._kernels import find_witness, find_witness_batch, pack_bitsets, popcount_u64
from xcorr.core_family_search import (
    AdFamily,
    _agglomerative,
    _removal,
    _run_lockstep,
    _Search,
    DetectionConfig,
    SearchTrace,
    agglomerative_core_search,
    conditional_family,
    contains_core_test,
    core_family_verdicts,
    detect_targeting,
    find_x_intersecting_subset,
    intersect_threshold,
    predict_core_family,
    removal_core_search,
)
from xcorr.core_model import Combination, Family
from xcorr.errors import BudgetExceeded, ConfigError, DomainError, EmptyFamily
from xcorr.placement import PlacementConfig, bernoulli_placement
from xcorr.prediction import Verdict
from xcorr.simulator import TargetingSpec, simulate_behavioral


def brute_witness(members, x, l_max, n_universe=10):
    """Literal enumeration over the full 0..n_universe-1 input range.

    Deliberately ignores which inputs actually occur in the family; the
    implementation restricts itself to occurring inputs, and agreement
    here confirms that shortcut changes nothing.
    """
    sets = [set(m) for m in members]
    need = math.ceil(x * len(sets) - 1e-9)
    for s in range(1, l_max + 1):
        for cand in itertools.combinations(range(n_universe), s):
            cs = set(cand)
            if sum(1 for m in sets if cs & m) >= need:
                return cand
    return None


# ---------------------------------------------------------------- witness


def test_witness_examples():
    fam = AdFamily([[1, 2], [1, 3], [4]])
    assert find_x_intersecting_subset(fam, 1.0, 2) == Combination([1, 4])
    assert find_x_intersecting_subset(fam, 1.0, 1) is None
    assert find_x_intersecting_subset(AdFamily([[7], [7], [7]]), 1.0, 1) == Combination([7])


def test_witness_is_minimal_size_and_lexicographic():
    # {0} already covers 2 of 3 members; with x=0.6 the singleton wins
    fam = AdFamily([[0, 1], [0, 2], [3]])
    assert find_x_intersecting_subset(fam, 0.6, 2) == Combination([0])
    # at x=1 a pair is needed and {0,3} precedes {1,3} etc.
    assert find_x_intersecting_subset(fam, 1.0, 2) == Combination([0, 3])


def test_witness_agrees_with_brute_force():
    rng = np.random.default_rng(42)
    checked_some = False
    for _ in range(300):
        k = int(rng.integers(1, 13))
        members = []
        for _ in range(k):
            size = int(rng.integers(0, 5))
            members.append(tuple(rng.choice(10, size=size, replace=False)))
        x = float(rng.choice([0.4, 0.6, 0.9, 1.0]))
        l_max = int(rng.integers(1, 4))
        expect = brute_witness(members, x, l_max)
        got = find_x_intersecting_subset(AdFamily(members), x, l_max)
        if expect is None:
            assert got is None
        else:
            checked_some = True
            assert got is not None and got.inputs == expect
    assert checked_some


def test_witness_empty_family_raises():
    with pytest.raises(EmptyFamily):
        find_x_intersecting_subset(AdFamily([]), 0.9, 2)


def test_witness_x_outside_domain():
    fam = AdFamily([[1]])
    with pytest.raises(DomainError):
        find_x_intersecting_subset(fam, 0.0, 1)
    with pytest.raises(DomainError):
        find_x_intersecting_subset(fam, 1.5, 1)


def test_witness_all_empty_members():
    assert find_x_intersecting_subset(AdFamily([[], []]), 0.9, 3) is None


def test_intersect_threshold_rounding():
    assert intersect_threshold(0.5, 4) == 2  # exact product, no off-by-one
    assert intersect_threshold(0.9, 10) == 9
    assert intersect_threshold(0.95, 19) == 19
    assert intersect_threshold(1.0, 7) == 7
    assert intersect_threshold(0.3, 0) == 1  # no member never reaches x > 0


def test_intersect_threshold_is_at_least_one():
    # x * n below the rounding slack must not ask the kernel for a
    # witness covering zero members
    assert intersect_threshold(1e-10, 12) == 1
    assert intersect_threshold(1e-12, 1) == 1
    assert intersect_threshold(1e-3, 1000) == 1
    assert intersect_threshold(1e-3, 1001) == 2
    fam = AdFamily([[1], [2], [3]])
    assert find_x_intersecting_subset(fam, 1e-10, 1) == Combination([1])


# lemma: an intersecting subset can be built from any explaining
# subfamily by picking one input per member
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_witness_built_from_subfamily(data):
    n = data.draw(st.integers(2, 8))
    fam = data.draw(
        st.lists(st.sets(st.integers(0, n - 1), min_size=0, max_size=n), min_size=1, max_size=10)
    )
    sub = data.draw(
        st.lists(st.sets(st.integers(0, n - 1), min_size=1, max_size=n), min_size=1, max_size=4)
    )
    covered = sum(1 for m in fam if any(s <= m for s in sub))
    picks = [data.draw(st.sampled_from(sorted(s))) for s in sub]
    c = set(picks)
    hit = sum(1 for m in fam if c & m)
    assert hit >= covered
    assert len(c) <= len(sub)


# ---------------------------------------------------------- conditional


def test_conditional_family_examples():
    fam = AdFamily([[1, 2], [1, 3], [2, 3]])
    cond = conditional_family(fam, Combination([1]))
    assert sorted(m.inputs for m in cond) == [(2,), (3,)]
    ident = conditional_family(fam, Combination([]))
    assert [m.inputs for m in ident] == [m.inputs for m in fam]
    assert len(conditional_family(fam, Combination([9]))) == 0


def test_conditional_family_keeps_duplicates_and_empties():
    fam = AdFamily([[1], [1], [1, 2]])
    cond = conditional_family(fam, Combination([1]))
    assert [m.inputs for m in cond] == [(), (), (2,)]


# -------------------------------------------------------------- contains


FIXTURE = AdFamily([[3], [1, 3], [2, 3], [3, 4], [3, 5], [0, 3]])
CFG = DetectionConfig(x=0.9, l_max=2, r_max=2, min_members=3)


def test_contains_core_fixture():
    # every member holds 3, one holds nothing else: no residual witness
    assert contains_core_test([3], FIXTURE, CFG) is True
    # at the root a witness ({3}) exists, so the empty set contains no core
    assert contains_core_test([], FIXTURE, CFG) is False
    # only one account holds 1: below min_members, refuse to answer
    assert contains_core_test([1], FIXTURE, CFG) is None


def test_contains_core_empty_conditional_is_unknown():
    assert contains_core_test([9], FIXTURE, CFG) is None


# ---------------------------------------------------------------- detect


def test_detect_fixture_and_single_account():
    assert detect_targeting(FIXTURE, CFG) is True
    # one account: any input it holds is a full witness, so detection
    # refuses below min_members; lowering the floor shows the witness
    one = AdFamily([[2, 5]])
    assert detect_targeting(one, DetectionConfig(x=0.5, l_max=1)) is False
    assert detect_targeting(one, DetectionConfig(x=0.5, l_max=1, min_members=1)) is True


def test_detect_strict_targeting_always_fires():
    # p_out = 0: every active account contains the core, completeness is exact
    pm = bernoulli_placement(PlacementConfig(n_inputs=12, n_accounts=80, alpha=0.5, seed=5))
    spec = TargetingSpec.targeted(0, Family([[2, 7]]), p_in=0.8, p_out=0.0)
    cfg = DetectionConfig(x=0.99, l_max=2, r_max=2)
    hits = 0
    for t in range(20):
        obs, _ = simulate_behavioral(pm, [spec], seed=100 + t)
        fam = AdFamily.from_placement(obs.behavioral[0], pm)
        if len(fam) >= cfg.min_members and detect_targeting(fam, cfg):
            hits += 1
    assert hits == 20


def test_detect_sound_on_untargeted_with_support():
    # enough accounts that coverage fractions concentrate: no witness
    pm = bernoulli_placement(PlacementConfig(n_inputs=20, n_accounts=200, alpha=0.3, seed=6))
    spec = TargetingSpec.untargeted(0, p_empty=0.5)
    cfg = DetectionConfig(x=0.95, l_max=2, r_max=2)
    false_alarms = 0
    for t in range(40):
        obs, _ = simulate_behavioral(pm, [spec], seed=200 + t)
        fam = AdFamily.from_placement(obs.behavioral[0], pm)
        assert len(fam) >= cfg.min_members
        if detect_targeting(fam, cfg):
            false_alarms += 1
    assert false_alarms == 0


# --------------------------------------------------------------- budgets


def test_agglomerative_needs_r_max():
    with pytest.raises(ConfigError):
        agglomerative_core_search(FIXTURE, DetectionConfig(x=0.9, l_max=2, r_max=None))


@pytest.mark.parametrize("field", ["l_max", "r_max", "test_budget", "min_members"])
@pytest.mark.parametrize("value", [2.5, 2.0, True, "2", np.float64(3)])
def test_detection_config_counts_must_be_integers(field, value):
    # the rule of a scenario's algo_config: a float count would reach the
    # kernel as a TypeError, and a bool or a fractional support would pass
    with pytest.raises(ConfigError, match=field):
        DetectionConfig(x=0.99, **{field: value})


@pytest.mark.parametrize("x", ["0.9", None, 1j, [0.9], 0.0, 1.0, float("nan")])
def test_detection_config_x_must_be_a_number_in_the_unit_interval(x):
    # a string, None or a complex once raised TypeError from the comparison
    with pytest.raises(ConfigError, match="x must be a number in"):
        DetectionConfig(x=x)


def test_detection_config_takes_numpy_integers_and_optional_none():
    cfg = DetectionConfig(l_max=np.int64(2), r_max=None, test_budget=None,
                          min_members=np.uint8(3))
    assert cfg.l_max == 2 and cfg.min_members == 3


def test_searches_reject_empty_family():
    with pytest.raises(EmptyFamily):
        agglomerative_core_search(AdFamily([]), CFG)
    with pytest.raises(EmptyFamily):
        removal_core_search(AdFamily([]), CFG)


def test_budget_exceeded_carries_partial():
    cfg = DetectionConfig(x=0.9, l_max=2, r_max=2, test_budget=1, min_members=3)
    with pytest.raises(BudgetExceeded) as err:
        agglomerative_core_search(FIXTURE, cfg)
    assert isinstance(err.value.partial, Family)
    assert err.value.tests_used == 2


# -------------------------------------------------------------- searches


def test_agglomerative_fixture_single_member():
    trace = SearchTrace()
    out = agglomerative_core_search(FIXTURE, CFG, trace=trace)
    assert set(out.combinations) == {Combination([3])}
    assert trace.tests_used >= 2
    kinds = {r["kind"] for r in trace.records}
    assert "detect" in kinds and "contains" in kinds


def test_removal_fixture_single_member():
    trace = SearchTrace()
    out = removal_core_search(FIXTURE, CFG, trace=trace)
    assert set(out.combinations) == {Combination([3])}
    assert trace.tests_used <= 1 * 1 * 6  # l * r^l * N for l=r=1, N=6 inputs


def _targeted_family(core, seed, n=12, m=220, alpha=0.5, p_in=0.9, p_out=0.0):
    ss = np.random.SeedSequence(seed)
    s_pm, s_obs = ss.spawn(2)
    pm = bernoulli_placement(PlacementConfig(n_inputs=n, n_accounts=m, alpha=alpha, seed=s_pm))
    spec = TargetingSpec.targeted(0, core, p_in=p_in, p_out=p_out)
    obs, _ = simulate_behavioral(pm, [spec], seed=s_obs)
    return AdFamily.from_placement(obs.behavioral[0], pm), pm


def test_agglomerative_recovers_two_member_core():
    core = Family([[1, 3], [4]])
    cfg = DetectionConfig(x=0.99, l_max=2, r_max=2)
    for seed in range(8):
        fam, _ = _targeted_family(core, 1000 + seed)
        out = agglomerative_core_search(fam, cfg)
        assert set(out.combinations) == set(core.combinations)
        assert out.is_antichain()


def test_removal_recovers_two_member_core_without_r_max():
    core = Family([[1, 3], [4]])
    cfg = DetectionConfig(x=0.99, l_max=2, r_max=None)
    bound = 2 * 2**2 * 12
    for seed in range(8):
        fam, _ = _targeted_family(core, 2000 + seed)
        trace = SearchTrace()
        out = removal_core_search(fam, cfg, trace=trace)
        assert set(out.combinations) == set(core.combinations)
        assert trace.tests_used <= bound


def test_removal_untargeted_returns_empty():
    pm = bernoulli_placement(PlacementConfig(n_inputs=20, n_accounts=200, alpha=0.3, seed=8))
    obs, _ = simulate_behavioral(pm, [TargetingSpec.untargeted(0, p_empty=0.5)], seed=9)
    fam = AdFamily.from_placement(obs.behavioral[0], pm)
    trace = SearchTrace()
    out = removal_core_search(fam, DetectionConfig(x=0.95, l_max=2), trace=trace)
    assert out.size == 0
    assert trace.tests_used == 1  # the root detection test settles it


def test_steering_on_an_input_free_family_costs_no_test():
    # the two members holding input 1 hold nothing else: the containment
    # test of {1} is unknown (2 < min_members), and steering on its
    # conditional, which has no inputs left, is skipped without a charge
    fam = AdFamily([[0, 2, 3]] * 9 + [[1]] * 2)
    cfg = DetectionConfig(x=0.9, l_max=2, r_max=2, min_members=3)
    trace = SearchTrace()
    assert removal_core_search(fam, cfg, trace).size == 0
    assert [(r["kind"], r["combination"], r["outcome"]) for r in trace.records] == [
        ("detect", None, True),
        ("contains", [], False),
        ("steer", None, [0, 1]),
        ("contains", [0], False),
        ("steer", None, [2]),
        ("contains", [0, 2], False),
        ("contains", [1], None),
        ("grow_exhausted", None, None),
    ]
    assert trace.tests_used == 7


def test_search_trace_jsonl_roundtrip():
    trace = SearchTrace()
    removal_core_search(FIXTURE, CFG, trace=trace)
    lines = trace.to_jsonl().splitlines()
    docs = [json.loads(line) for line in lines]
    assert docs[-1]["kind"] == "summary"
    assert docs[-1]["tests_used"] == trace.tests_used


# --------------------------------------------------------------- kernels


def _random_bool_matrix(rng, k, n, density):
    return rng.random((k, n)) < density


def test_find_witness_matches_enumeration_oracle():
    # K up to 200 members crosses the 64-bit word boundaries; thresholds
    # near each size's best coverage give both hits and misses
    rng = np.random.default_rng(7)
    outcomes = set()
    for _ in range(400):
        k = int(rng.integers(1, 200))
        n = int(rng.integers(1, 12))
        bits = pack_bitsets(_random_bool_matrix(rng, k, n, float(rng.uniform(0.05, 0.5))))
        l_max = int(rng.integers(1, 5))
        best = int(popcount_u64(np.bitwise_or.reduce(bits, axis=0)).sum())
        thr = max(1, best - int(rng.integers(-1, max(2, best // 2))))
        expect = witness_enumerate(bits, thr, l_max)
        got = find_witness(bits, thr, l_max)
        if expect is None:
            assert got is None
            outcomes.add("miss")
        else:
            assert got is not None and got.dtype == np.int64
            assert got.tolist() == expect.tolist()
            outcomes.add(len(expect))
    assert outcomes >= {"miss", 1, 2, 3, 4}


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 9).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.lists(st.booleans(), min_size=n, max_size=n), min_size=1, max_size=140),
        )
    ),
    st.integers(1, 140),
    st.integers(1, 4),
)
def test_find_witness_property(shape, threshold, l_max):
    _, rows = shape
    bits = pack_bitsets(np.array(rows, dtype=bool))
    expect = witness_enumerate(bits, threshold, l_max)
    got = find_witness(bits, threshold, l_max)
    assert (got is None) == (expect is None)
    if got is not None:
        assert got.tolist() == expect.tolist()


def test_find_witness_rejects_bad_arguments():
    bits = pack_bitsets(np.ones((3, 2), dtype=bool))
    assert find_witness(bits, 3, 1).tolist() == [0]
    assert find_witness(np.zeros((0, 1), dtype=np.uint64), 1, 2) is None
    for args in ((bits[0], 1, 1), (bits, 0, 1), (bits, 1, 0)):
        with pytest.raises(ValueError):
            find_witness(*args)


def _random_query(rng, n):
    """Packed rows of one random family over n inputs (some rows zero)
    and a threshold near the coverage of all rows together."""
    k = int(rng.integers(1, 200))
    contains = _random_bool_matrix(rng, k, n, float(rng.uniform(0.05, 0.5)))
    contains[:, rng.random(n) < 0.2] = False
    bits = pack_bitsets(contains)
    best = int(popcount_u64(np.bitwise_or.reduce(bits, axis=0)).sum())
    thr = max(1, best - int(rng.integers(-1, max(2, best // 2))))
    return bits, thr


def _oracle_answer(bits, thr, l_max):
    """The enumeration oracle's witness in the batch kernel's answer form,
    a sorted tuple of Python int row indices, or None."""
    expect = witness_enumerate(bits, thr, l_max)
    return None if expect is None else tuple(expect.tolist())


def _is_answer(g) -> bool:
    return type(g) is tuple and all(type(i) is int for i in g)


def test_find_witness_batch_matches_enumeration_oracle():
    # each query on its own word count, zero-padded into one stack; rows
    # that are zero in some queries; every answer as the oracle's
    rng = np.random.default_rng(17)
    outcomes = set()
    for _ in range(60):
        n = int(rng.integers(1, 12))
        l_max = int(rng.integers(1, 5))
        queries = [_random_query(rng, n) for _ in range(int(rng.integers(0, 41)))]
        words = max((bits.shape[1] for bits, _ in queries), default=1)
        stack = np.zeros((len(queries), n, words), dtype=np.uint64)
        for q, (bits, _) in enumerate(queries):
            stack[q, :, : bits.shape[1]] = bits
        got = find_witness_batch(stack, np.array([t for _, t in queries], dtype=np.int64), l_max)
        assert len(got) == len(queries)
        for (bits, thr), g in zip(queries, got):
            expect = _oracle_answer(bits, thr, l_max)
            if expect is None:
                assert g is None
                outcomes.add("miss")
            else:
                assert g is not None and _is_answer(g)
                assert g == expect
                outcomes.add(len(expect))
            single = find_witness(bits, thr, l_max)
            assert (single is None) == (g is None)
            assert single is None or tuple(single.tolist()) == g
    assert outcomes >= {"miss", 1, 2, 3, 4}


def test_find_witness_batch_pairs_across_row_blocks():
    # enough queries, rows and words that pairs are taken in several
    # blocks of first rows, with queries settled in different blocks
    rng = np.random.default_rng(23)
    for _ in range(6):
        n = int(rng.integers(40, 80))
        queries = [_random_query(rng, n) for _ in range(40)]
        words = max(bits.shape[1] for bits, _ in queries)
        stack = np.zeros((len(queries), n, words), dtype=np.uint64)
        for q, (bits, _) in enumerate(queries):
            stack[q, :, : bits.shape[1]] = bits
        got = find_witness_batch(stack, np.array([t for _, t in queries]), 2)
        for (bits, thr), g in zip(queries, got):
            expect = _oracle_answer(bits, thr, 2)
            assert (g is None) == (expect is None)
            assert g is None or (_is_answer(g) and g == expect)
        assert {len(g) if g is not None else 0 for g in got} >= {0, 2}


def test_find_witness_batch_on_many_word_stacks():
    # 257-1000 members, 5-16 words a row, zero-padded into one stack.
    # Thresholds sit on both sides of 255 and at or just past the best
    # single row, pair and triple, so some pair witnesses cover more than
    # 255 members (pair sums kept in 8 bits would wrap and miss them) and
    # some answers need 3 or 4 rows
    rng = np.random.default_rng(41)
    outcomes = set()
    for l_max in (1, 2, 3, 4):
        for _ in range(8):
            n = int(rng.integers(3, 9))
            queries = []
            for _ in range(int(rng.integers(1, 10))):
                k = int(rng.integers(257, 1001))
                bits = pack_bitsets(_random_bool_matrix(rng, k, n, float(rng.uniform(0.2, 0.4))))
                best = [max(int(popcount_u64(np.bitwise_or.reduce(bits[list(c)])).sum())
                                for c in itertools.combinations(range(n), size))
                        for size in (1, 2, 3)]
                choices = [254, 255, 256, 257, *best, *(b + 1 for b in best)]
                queries.append((bits, int(rng.choice(choices))))
            words = max(bits.shape[1] for bits, _ in queries)
            assert 5 <= words <= 16
            stack = np.zeros((len(queries), n, words), dtype=np.uint64)
            for q, (bits, _) in enumerate(queries):
                stack[q, :, : bits.shape[1]] = bits
            got = find_witness_batch(stack, np.array([t for _, t in queries]), l_max)
            for (bits, thr), g in zip(queries, got):
                expect = _oracle_answer(bits, thr, l_max)
                assert (g is None) == (expect is None)
                if g is not None:
                    assert _is_answer(g) and g == expect
                outcomes.add("miss" if g is None else (len(g), thr > 255))
    assert outcomes >= {"miss", (1, True), (2, True), (2, False), (3, True), (4, True)}


def test_find_witness_batch_settles_a_level_block_by_single_rows():
    # a core_search-sized level block: 120 containment queries over 16
    # rows of 240 accounts (4 words), two rows of each cleared, every
    # query settled by one row, as the oracle settles it
    rng = np.random.default_rng(53)
    queries = []
    for _ in range(120):
        contains = _random_bool_matrix(rng, 240, 16, float(rng.uniform(0.3, 0.7)))
        contains[:, rng.choice(16, size=2, replace=False)] = False
        bits = pack_bitsets(contains)
        top = int(popcount_u64(bits).sum(axis=1).max())
        queries.append((bits, int(rng.integers(1, top + 1))))
    stack = np.stack([bits for bits, _ in queries])
    assert stack.shape == (120, 16, 4)
    got = find_witness_batch(stack, np.array([t for _, t in queries]), 2)
    for (bits, thr), g in zip(queries, got):
        assert _is_answer(g) and len(g) == 1
        assert g == _oracle_answer(bits, thr, 2)


def test_find_witness_batch_one_word_thresholds_past_the_word():
    # one-word stacks compare uint8 counts: thresholds past 64 members
    # (256 and 257 would wrap to 0 and 1 in 8 bits, 321 to 65) find no
    # witness, and in the same block other queries settle at size 1 and 2
    rng = np.random.default_rng(59)
    queries = []
    for _ in range(80):
        k = int(rng.integers(8, 65))
        bits = pack_bitsets(_random_bool_matrix(rng, k, 8, float(rng.uniform(0.1, 0.5))))
        best = [max(int(popcount_u64(np.bitwise_or.reduce(bits[list(c)])).sum())
                    for c in itertools.combinations(range(8), size))
                for size in (1, 2)]
        choices = [*best, best[0] + 1, 65, 255, 256, 257, 321]
        queries.append((bits, int(rng.choice(choices))))
    stack = np.stack([bits for bits, _ in queries])
    assert stack.shape[2] == 1
    got = find_witness_batch(stack, np.array([t for _, t in queries]), 2)
    outcomes = set()
    for (bits, thr), g in zip(queries, got):
        assert g == _oracle_answer(bits, thr, 2)
        assert g is None or _is_answer(g)
        outcomes.add(("miss", thr > 64) if g is None else len(g))
    assert outcomes >= {("miss", True), 1, 2}


def test_find_witness_keeps_no_memory_between_calls():
    # searches over many universe sizes: every working array, the pair
    # masks included, is freed when its call returns
    rng = np.random.default_rng(29)
    families = [pack_bitsets(rng.random((20, n)) < 0.05) for n in range(40, 400, 7)]
    find_witness(families[0][:10], 21, 2)  # numpy's own first-call state
    tracemalloc.start()
    try:
        for bits in families:
            assert find_witness(bits, 21, 2) is None
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 1 << 20


def test_find_witness_batch_rejects_bad_arguments():
    stack = np.zeros((2, 3, 1), dtype=np.uint64)
    assert find_witness_batch(stack, np.array([1, 2]), 2) == [None, None]
    empty = np.zeros((0, 3, 1), dtype=np.uint64)
    assert find_witness_batch(empty, np.array([], dtype=int), 2) == []
    bad = [
        (stack[0], np.array([1, 2]), 2),  # not 3-d
        (stack, np.array([1]), 2),  # one threshold short
        (stack, np.array([1.0, 2.0]), 2),  # not integers
        (stack, np.array([1, 0]), 2),  # threshold below 1
        (stack, np.array([1, 2]), 0),  # l_max below 1
    ]
    for args in bad:
        with pytest.raises(ValueError):
            find_witness_batch(*args)


def _random_members(rng, k, n):
    """k members over 0..n-1, with repeats and empty members."""
    members = []
    for _ in range(k):
        if members and rng.random() < 0.15:
            members.append(members[int(rng.integers(len(members)))])
        else:
            size = int(rng.integers(0, min(n, 5) + 1))
            members.append(Combination(rng.choice(n, size=size, replace=False)))
    return members


def _assert_view_matches(view, members):
    """A derived family behaves as the family rebuilt from ``members``:
    the same members, universe, and witness at every fraction."""
    rebuilt = AdFamily(members)
    assert len(view) == len(members)
    assert [m.inputs for m in view] == [m.inputs for m in members]
    assert view == rebuilt
    assert view.all_inputs() == rebuilt.all_inputs() == tuple(
        sorted({i for m in members for i in m})
    )
    if members:
        for x in (0.05, 0.3, 0.5, 0.8, 1.0):
            for l_max in (1, 2):
                assert find_x_intersecting_subset(view, x, l_max) == (
                    find_x_intersecting_subset(rebuilt, x, l_max)
                )


def test_family_views_match_definitions():
    # conditional families and conditionals of conditionals against the
    # member-by-member definitions; 150 members span three bitset words
    rng = np.random.default_rng(29)
    for _ in range(120):
        n = int(rng.integers(1, 9))
        k = int(rng.choice([1, 5, 63, 64, 65, 150]))
        members = _random_members(rng, k, n)
        fam = AdFamily(members)
        for _ in range(3):
            c = Combination(rng.choice(n + 2, size=int(rng.integers(0, 3)), replace=False))
            cond = conditional_family(fam, c)
            cond_members = conditional_members(members, c)
            _assert_view_matches(cond, cond_members)
            c2 = Combination(rng.choice(n + 2, size=int(rng.integers(0, 3)), replace=False))
            _assert_view_matches(
                conditional_family(cond, c2), conditional_members(cond_members, c2)
            )


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.sets(st.integers(0, 6), max_size=4), max_size=90),
    st.sets(st.integers(0, 7), max_size=2),
    st.sets(st.integers(0, 7), max_size=2),
)
def test_family_views_property(raw, c_ids, c2_ids):
    members = [Combination(m) for m in raw]
    fam = AdFamily(members)
    c, c2 = Combination(c_ids), Combination(c2_ids)
    cond = conditional_family(fam, c)
    cond_members = conditional_members(members, c)
    _assert_view_matches(cond, cond_members)
    _assert_view_matches(conditional_family(cond, c2), conditional_members(cond_members, c2))


def test_from_placement_matches_member_constructor():
    pm = bernoulli_placement(PlacementConfig(n_inputs=10, n_accounts=150, alpha=0.4, seed=4))
    active = range(0, 150, 2)
    fam = AdFamily.from_placement(active, pm)
    members = [account_inputs(pm, j) for j in active]
    _assert_view_matches(fam, members)
    _assert_view_matches(conditional_family(fam, [3]), conditional_members(members, Combination([3])))
    assert len(AdFamily.from_placement([], pm)) == 0


def test_popcount_matches_python():
    rng = np.random.default_rng(11)
    vals = rng.integers(0, 2**63, size=200, dtype=np.uint64)
    got = popcount_u64(vals)
    expect = [bin(int(v)).count("1") for v in vals]
    assert got.tolist() == expect


def test_pack_bitsets_column_sums():
    rng = np.random.default_rng(13)
    mat = rng.random((130, 7)) < 0.4  # forces 3 words
    bits = pack_bitsets(mat)
    assert bits.shape == (7, 3)
    assert popcount_u64(bits).sum(axis=1).tolist() == mat.sum(axis=0).tolist()


@pytest.mark.parametrize("n", [1, 7, 40])
@pytest.mark.parametrize("k", [0, 1, 63, 64, 65, 130, 1000])
def test_pack_bitsets_matches_the_bit_by_bit_reference(k, n):
    # every bit of every word, also for a transposed (non-contiguous)
    # membership such as an output's seen column
    rng = np.random.default_rng(100 * k + n)
    contains = rng.random((k, n)) < 0.4
    expect = pack_bitsets_reference(contains)
    for view in (contains, np.ascontiguousarray(contains.T).T):
        got = pack_bitsets(view)
        assert got.dtype == np.uint64 and got.shape == (n, max(1, -(-k // 64)))
        assert got.tolist() == expect


# --------------------------------------------------------------- predict


def test_predict_below_min_members_is_unknown():
    pm = bernoulli_placement(PlacementConfig(n_inputs=8, n_accounts=20, alpha=0.4, seed=3))
    pred = predict_core_family([0], pm, DetectionConfig(x=0.9, l_max=2, r_max=2))
    assert pred.verdict is Verdict.UNKNOWN
    assert "below_min_members" in pred.flags


def test_predict_untargeted_and_targeted():
    cfg = DetectionConfig(x=0.99, l_max=2, r_max=2)
    core = Family([[1, 3], [4]])
    ss = np.random.SeedSequence(31415)
    s_pm, s_obs = ss.spawn(2)
    pm = bernoulli_placement(
        PlacementConfig(n_inputs=12, n_accounts=220, alpha=0.5, seed=s_pm)
    )
    specs = [
        TargetingSpec.targeted(0, core, p_in=0.9, p_out=0.0),
        TargetingSpec.untargeted(1, p_empty=0.5),
    ]
    obs, _ = simulate_behavioral(pm, specs, seed=s_obs)
    hit = predict_core_family(obs.behavioral[0], pm, cfg)
    assert hit.verdict is Verdict.TARGETED
    assert set(hit.target.combinations) == set(core.combinations)
    miss = predict_core_family(obs.behavioral[1], pm, cfg)
    assert miss.verdict is Verdict.UNTARGETED


def test_predict_rejects_unknown_method():
    pm = bernoulli_placement(PlacementConfig(n_inputs=4, n_accounts=10, alpha=0.5, seed=1))
    with pytest.raises(ConfigError):
        predict_core_family([0, 1], pm, method="exhaustive")


def test_predict_rejects_out_of_range_accounts():
    pm = bernoulli_placement(PlacementConfig(n_inputs=4, n_accounts=10, alpha=0.5, seed=1))
    with pytest.raises(DomainError):
        predict_core_family([99], pm)


def test_predict_budget_exhausted_is_unknown():
    cfg = DetectionConfig(x=0.9, l_max=2, r_max=2, test_budget=1, min_members=3)
    pm = bernoulli_placement(PlacementConfig(n_inputs=12, n_accounts=220, alpha=0.5, seed=5))
    spec = TargetingSpec.targeted(0, Family([[1, 3], [4]]), p_in=0.9, p_out=0.0)
    obs, _ = simulate_behavioral(pm, [spec], seed=6)
    for method in ("removal", "agglomerative"):
        pred = predict_core_family(obs.behavioral[0], pm, cfg, method=method)
        assert pred.verdict is Verdict.UNKNOWN
        assert pred.flags == ("budget_exhausted",)
        batched = core_family_verdicts([obs.behavioral[0]], pm, cfg, method=method)
        [batched] = batched.predictions()
        assert batched.to_dict() == pred.to_dict()


def _member_sets(stack):
    """A stacked query's members as input sets: its non-empty columns,
    sorted, so the same query over other account numbers compares equal."""
    bits = np.unpackbits(
        np.ascontiguousarray(stack, dtype="<u8").view(np.uint8), axis=1, bitorder="little"
    )
    return tuple(sorted(tuple(np.flatnonzero(col).tolist()) for col in bits.T if col.any()))


def test_predict_asks_the_root_detection_query_once(monkeypatch):
    # the detection that rules out UNTARGETED is also the search's first
    # charged test.  The removal search asks every distinct witness query
    # once: no two of its kernel queries are equal, they are the queries
    # of the depth-expansion oracle, and they include the query of every
    # charged test of the member-list oracle, which asks one per charged
    # test (none for a containment test on too small a conditional).
    # The agglomerative search asks the root query
    # alone, then each level in one block: every level but the one it
    # stops in asks exactly its charged tests
    queries, asked = [], []

    def counted(stack, thresholds, l_max):
        queries.append(len(thresholds))
        asked.extend(zip(stack, thresholds.tolist()))
        return find_witness_batch(stack, thresholds, l_max)

    monkeypatch.setattr(core_family_search, "find_witness_batch", counted)
    cfg = DetectionConfig(x=0.99, l_max=2, r_max=2)
    pm = bernoulli_placement(PlacementConfig(n_inputs=12, n_accounts=220, alpha=0.5, seed=5))
    spec = TargetingSpec.targeted(0, Family([[1, 3], [4]]), p_in=0.9, p_out=0.0)
    obs, _ = simulate_behavioral(pm, [spec], seed=6)
    for method in ("removal", "agglomerative"):
        queries.clear()
        asked.clear()
        trace = SearchTrace()
        pred = predict_core_family(obs.behavioral[0], pm, cfg, method=method, trace=trace)
        assert pred.verdict is Verdict.TARGETED
        unasked = sum(
            1 for r in trace.records if r["kind"] == "contains" and r["outcome"] is None
        )
        assert trace.records[0] == {"kind": "detect", "combination": None, "outcome": True}
        if method == "removal":
            assert len({(q.tobytes(), t) for q, t in asked}) == len(asked)
            got = sorted((t, _member_sets(q)) for q, t in asked)
            asked.clear()
            oracle_trace = SearchTrace()
            removal_oracle(AdFamily.from_placement(obs.behavioral[0], pm), cfg, oracle_trace)
            assert oracle_trace.to_jsonl() == trace.to_jsonl()
            assert len(asked) == trace.tests_used - unasked
            charged = {(t, _member_sets(q)) for q, t in asked}
            expanded = depth_block_queries(AdFamily.from_placement(obs.behavioral[0], pm), cfg)
            assert got == sorted(expanded)
            assert charged <= set(got)
            assert len(got) < len(asked)
            continue
        orders = [len(r["combination"]) for r in trace.records[1:] if r["outcome"] is not None]
        assert len(orders) == trace.tests_used - unasked - 1
        assert len(queries) == 1 + max(orders)
        assert queries[:-1] == [1] + [orders.count(k) for k in range(1, max(orders))]
        assert queries[-1] >= orders.count(max(orders))


def test_one_family_asks_its_root_query_once(monkeypatch):
    # detection and both searches on one family ask the whole-family
    # query once between them, and answer as they do on fresh families;
    # another x or l_max is another root query, asked once in turn
    asked = []

    def counted(stack, thresholds, l_max):
        asked.extend((q.tobytes(), t, l_max) for q, t in zip(stack, thresholds.tolist()))
        return find_witness_batch(stack, thresholds, l_max)

    monkeypatch.setattr(core_family_search, "find_witness_batch", counted)
    cfg = DetectionConfig(x=0.99, l_max=2, r_max=2)
    pm = bernoulli_placement(PlacementConfig(n_inputs=12, n_accounts=220, alpha=0.5, seed=5))
    spec = TargetingSpec.targeted(0, Family([[1, 3], [4]]), p_in=0.9, p_out=0.0)
    obs, _ = simulate_behavioral(pm, [spec], seed=6)
    fam = AdFamily.from_placement(obs.behavioral[0], pm)
    root = (fam._rows & fam._mask).tobytes()

    def roots(x=0.99, l_max=2):
        return asked.count((root, intersect_threshold(x, len(fam)), l_max))

    def run(fams):
        traces = [SearchTrace(), SearchTrace()]
        return (
            detect_targeting(fams[0], cfg),
            agglomerative_core_search(fams[1], cfg, traces[0]),
            removal_core_search(fams[2], cfg, traces[1]),
            [t.to_jsonl() for t in traces],
        )

    shared = run([fam] * 3)
    assert roots() == 1
    asked.clear()
    fresh = run([AdFamily.from_placement(obs.behavioral[0], pm) for _ in range(3)])
    assert roots() == 3
    assert shared == fresh and shared[0] is True
    asked.clear()
    for other in (DetectionConfig(x=0.9, l_max=2), DetectionConfig(x=0.99, l_max=3)):
        for _ in range(2):
            detect_targeting(fam, other)
    assert roots(0.9, 2) == 1 and roots(0.99, 3) == 1 and len(asked) == 2


def test_one_family_searches_share_their_witness_answers(monkeypatch):
    # detection, the agglomerative and the removal search on one family,
    # in that order and in reverse, never ask one kernel query (member
    # sets and threshold) twice between them, and each returns and logs
    # what it does on a fresh family; a conditional family of a searched
    # family starts with an empty memo
    asked = []

    def counted(stack, thresholds, l_max):
        asked.extend((t, _member_sets(q)) for q, t in zip(stack, thresholds.tolist()))
        return find_witness_batch(stack, thresholds, l_max)

    monkeypatch.setattr(core_family_search, "find_witness_batch", counted)
    cfg = DetectionConfig(x=0.99, l_max=2, r_max=2)

    def searched(search):
        def step(fam):
            trace = SearchTrace()
            return search(fam, cfg, trace).to_doc(), trace.to_jsonl()
        return step

    steps = [lambda fam: detect_targeting(fam, cfg),
             searched(agglomerative_core_search), searched(removal_core_search)]
    cores = [[[1, 3], [4]], [[5]], [[2, 7]], [[0, 4], [8, 11]]]
    for seed, core in enumerate(cores):
        for order in (steps, steps[::-1]):
            fam, _ = _targeted_family(Family(core), 5100 + seed, n=16, m=240, p_in=0.7,
                                      p_out=1e-4)
            asked.clear()
            shared = [step(fam) for step in order]
            assert len(set(asked)) == len(asked)
            n_shared = len(asked)
            asked.clear()
            fresh = [step(_targeted_family(Family(core), 5100 + seed, n=16, m=240, p_in=0.7,
                                           p_out=1e-4)[0]) for step in order]
            assert shared == fresh
            assert len(asked) > n_shared
            assert fam._memo[cfg.x, cfg.l_max]
            cond = conditional_family(fam, fam.all_inputs()[:1])
            assert cond._memo == {}
            assert removal_core_search(cond, cfg) == removal_core_search(
                AdFamily(cond.members), cfg
            )


# ------------------------------------------------------------- lock-step


def _trial_actives(seed, n, m, k):
    """Active account sets of k outputs on one placement: targeted,
    untargeted, empty and tiny ones."""
    ss = np.random.SeedSequence(seed)
    s_pm, s_core, s_obs = ss.spawn(3)
    pm = bernoulli_placement(PlacementConfig(n_inputs=n, n_accounts=m, alpha=0.5, seed=s_pm))
    rng = np.random.default_rng(s_core)
    specs = []
    for oid in range(k):
        kind = oid % 4
        if kind < 2:
            ids = rng.choice(n, size=min(n, 2 + kind), replace=False)
            core = Family([ids[:1], ids[1:]]) if kind else Family([ids[:2]])
            specs.append(TargetingSpec.targeted(oid, core, p_in=0.85, p_out=0.01))
        else:
            specs.append(TargetingSpec.untargeted(oid, p_empty=0.3 if kind == 2 else 0.02))
    obs, _ = simulate_behavioral(pm, specs, seed=s_obs)
    actives = [sorted(obs.behavioral[oid]) for oid in range(k)]
    return pm, actives + [[], [0], [0, 1]]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 10),
    m=st.integers(10, 150),
    k=st.integers(0, 8),
    method=st.sampled_from(["removal", "agglomerative"]),
    l_max=st.integers(1, 3),
    r_max=st.integers(1, 3),
    budget=st.one_of(st.none(), st.integers(1, 40)),
    x=st.sampled_from([0.7, 0.9, 0.99]),
    min_members=st.integers(1, 5),
)
def test_batch_predictions_equal_single_output_calls(
    seed, n, m, k, method, l_max, r_max, budget, x, min_members
):
    pm, actives = _trial_actives(seed, n, m, k)
    cfg = DetectionConfig(x=x, l_max=l_max, r_max=r_max, test_budget=budget,
                          min_members=min_members)
    batched = core_family_verdicts(actives, pm, cfg, method=method).predictions()
    single = [predict_core_family(a, pm, cfg, method=method) for a in actives]
    assert [p.to_dict() for p in batched] == [p.to_dict() for p in single]


def test_lockstep_searches_keep_their_traces():
    # the recovery searches themselves, run through the stacked driver
    # side by side, log the same tests and recover the same families
    cfg = DetectionConfig(x=0.95, l_max=2, r_max=2, min_members=3)
    for seed in range(6):
        pm, actives = _trial_actives(300 + seed, 12, 180, 8)
        fams = [AdFamily.from_placement(a, pm) for a in actives if len(a) >= 3]
        for search, direct in ((_removal, removal_core_search),
                               (_agglomerative, agglomerative_core_search)):
            traces = [SearchTrace() for _ in fams]
            together = _run_lockstep(
                [search(_Search(f, cfg, t)) for f, t in zip(fams, traces)], cfg.l_max
            )
            for fam, trace, found in zip(fams, traces, together):
                alone = SearchTrace()
                assert direct(fam, cfg, alone) == found
                assert trace.to_jsonl() == alone.to_jsonl()


def _spread(ids):
    """Input ids i -> 7i + 3: six unheld rows between any two held ones."""
    return [7 * i + 3 for i in ids]


def _relabelled_outcome(search, fam, cfg, relabel):
    """What ``search`` returns or raises on ``fam``, with its trace, with
    every input id list passed through ``relabel``."""
    trace = SearchTrace()
    try:
        found, kind, used = search(fam, cfg, trace), "found", None
    except BudgetExceeded as e:
        found, kind, used = e.partial, "budget", e.tests_used
    records = [
        {**r, "combination": None if r["combination"] is None else relabel(r["combination"]),
         "outcome": relabel(r["outcome"]) if r["kind"] == "steer" and r["outcome"] else r["outcome"]}
        for r in trace.records
    ]
    return kind, Family(relabel(c) for c in found.combinations), used, records, trace.tests_used


def test_sparse_input_ids_give_the_relabelled_answers():
    # a row index is an input id: a family over ids spread to 7i + 3 has
    # zero rows between its held inputs, and every witness, search result,
    # partial result and trace record is the compact family's, relabelled
    for seed in range(6):
        pm, actives = _trial_actives(700 + seed, 9, 160, 4)
        for active, budget in itertools.product(actives, (None, 3)):
            if len(active) < 3:
                continue
            compact = AdFamily(account_inputs(pm, j) for j in active)
            sparse = AdFamily(_spread(m.inputs) for m in compact.members)
            assert sparse.all_inputs() == tuple(_spread(compact.all_inputs()))
            assert len(sparse._rows) > len(sparse.all_inputs())
            for x, l_max in itertools.product((0.5, 0.9, 0.99), (1, 2, 3)):
                w = find_x_intersecting_subset(compact, x, l_max)
                assert find_x_intersecting_subset(sparse, x, l_max) == (
                    None if w is None else Combination(_spread(w.inputs))
                )
            cfg = DetectionConfig(x=0.9, l_max=2, r_max=2, test_budget=budget)
            for search in (agglomerative_core_search, removal_core_search):
                assert _relabelled_outcome(search, sparse, cfg, list) == (
                    _relabelled_outcome(search, compact, cfg, _spread)
                )


def test_batch_rejects_unknown_method_and_bad_accounts():
    pm = bernoulli_placement(PlacementConfig(n_inputs=4, n_accounts=10, alpha=0.5, seed=1))
    assert core_family_verdicts([], pm).predictions() == []
    with pytest.raises(ConfigError):
        core_family_verdicts([[0, 1]], pm, method="exhaustive")
    with pytest.raises(DomainError):
        core_family_verdicts([[0], [99]], pm)


# ------------------------------------------------------ level-batched walk


def _search_outcome(search, fam, cfg):
    """What a search returns or raises, with its trace, as comparable data."""
    trace = SearchTrace()
    try:
        found = search(fam, cfg, trace)
    except BudgetExceeded as e:
        return "budget", e.partial.to_doc(), e.tests_used, trace.to_jsonl(), trace.tests_used
    return "found", found.to_doc(), None, trace.to_jsonl(), trace.tests_used


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 12),
    m=st.integers(10, 160),
    l_max=st.integers(1, 3),
    r_max=st.integers(1, 3),
    min_members=st.integers(1, 6),
    x=st.sampled_from([0.6, 0.8, 0.9, 0.99]),
    cut=st.one_of(st.none(), st.floats(0.0, 1.0)),
    strip=st.booleans(),
)
# account counts at the word boundaries of the packed member masks
@example(seed=11, n=8, m=63, l_max=2, r_max=2, min_members=3, x=0.9, cut=None, strip=False)
@example(seed=12, n=9, m=64, l_max=2, r_max=2, min_members=3, x=0.8, cut=0.5, strip=True)
@example(seed=13, n=8, m=65, l_max=2, r_max=3, min_members=3, x=0.9, cut=None, strip=False)
@example(seed=14, n=10, m=128, l_max=3, r_max=2, min_members=4, x=0.99, cut=0.7, strip=False)
@example(seed=15, n=8, m=129, l_max=2, r_max=2, min_members=3, x=0.9, cut=None, strip=True)
def test_agglomerative_levels_match_the_candidate_by_candidate_oracle(
    seed, n, m, l_max, r_max, min_members, x, cut, strip
):
    # the level walk against the one-query-per-candidate walk: same
    # family, trace and tests, and the same partial result when the
    # budget runs out, cut anywhere inside the unbudgeted walk
    pm, actives = _trial_actives(seed, n, m, 4)
    cfg = DetectionConfig(x=x, l_max=l_max, r_max=r_max, min_members=min_members)
    for active in actives:
        if not active:
            continue
        fam = AdFamily.from_placement(active, pm)
        if strip and fam.all_inputs():
            fam = conditional_family(fam, fam.all_inputs()[:1])
            if len(fam) == 0:
                continue
        budgeted = cfg
        if cut is not None:
            used = _search_outcome(agglomerative_oracle, fam, cfg)[4]
            budgeted = DetectionConfig(
                x=x, l_max=l_max, r_max=r_max, min_members=min_members,
                test_budget=max(1, int(cut * used)),
            )
        assert _search_outcome(agglomerative_core_search, fam, budgeted) == _search_outcome(
            agglomerative_oracle, fam, budgeted
        )
    batched = core_family_verdicts(actives, pm, cfg, method="agglomerative").predictions()
    single = [predict_core_family(a, pm, cfg, method="agglomerative") for a in actives]
    assert [p.to_dict() for p in batched] == [p.to_dict() for p in single]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 12),
    m=st.integers(10, 160),
    l_max=st.integers(1, 3),
    r_max=st.one_of(st.none(), st.integers(1, 3)),
    min_members=st.integers(1, 6),
    x=st.sampled_from([0.6, 0.8, 0.9, 0.99]),
    strip=st.booleans(),
)
# account counts at the word boundaries of the packed member masks
@example(seed=11, n=8, m=63, l_max=2, r_max=None, min_members=3, x=0.9, strip=False)
@example(seed=12, n=9, m=64, l_max=2, r_max=2, min_members=3, x=0.8, strip=True)
@example(seed=13, n=8, m=65, l_max=3, r_max=None, min_members=3, x=0.9, strip=False)
@example(seed=14, n=10, m=128, l_max=2, r_max=3, min_members=4, x=0.99, strip=False)
@example(seed=15, n=8, m=129, l_max=2, r_max=None, min_members=3, x=0.9, strip=True)
def test_removal_walk_matches_the_member_list_oracle(
    seed, n, m, l_max, r_max, min_members, x, strip
):
    # the row-tuple walk against the walk on member lists: same family,
    # trace and tests, and the same partial result when the budget runs
    # out, with the budget cut after every test of the unbudgeted walk
    pm, actives = _trial_actives(seed, n, m, 4)
    cfg = DetectionConfig(x=x, l_max=l_max, r_max=r_max, min_members=min_members)
    for active in actives:
        if not active:
            continue
        fam = AdFamily.from_placement(active, pm)
        if strip and fam.all_inputs():
            fam = conditional_family(fam, fam.all_inputs()[:1])
            if len(fam) == 0:
                continue
        full = _search_outcome(removal_oracle, fam, cfg)
        assert _search_outcome(removal_core_search, fam, cfg) == full
        for budget in range(1, full[4] + 1):
            budgeted = DetectionConfig(
                x=x, l_max=l_max, r_max=r_max, min_members=min_members, test_budget=budget
            )
            assert _search_outcome(removal_core_search, fam, budgeted) == _search_outcome(
                removal_oracle, fam, budgeted
            )
    batched = core_family_verdicts(actives, pm, cfg, method="removal").predictions()
    single = [predict_core_family(a, pm, cfg, method="removal") for a in actives]
    assert [p.to_dict() for p in batched] == [p.to_dict() for p in single]


def test_agglomerative_asks_one_kernel_call_per_level(monkeypatch):
    # completeness-gate families (16 inputs, 240 accounts, r_max 2): the
    # root query, then each level of containment tests in one call
    calls = []

    def counted(stack, thresholds, l_max):
        calls.append(len(thresholds))
        return find_witness_batch(stack, thresholds, l_max)

    monkeypatch.setattr(core_family_search, "find_witness_batch", counted)
    cfg = DetectionConfig(x=0.99, l_max=2, r_max=2)
    for seed, core in enumerate([[[5]], [[2, 7]], [[1], [9]], [[0, 4], [8, 11]]] * 2):
        fam, _ = _targeted_family(Family(core), 4400 + seed, n=16, m=240, p_in=0.7, p_out=1e-4)
        calls.clear()
        trace = SearchTrace()
        agglomerative_core_search(fam, cfg, trace)
        assert len(calls) <= cfg.r_max + 1
        assert sum(calls) >= trace.tests_used - sum(
            1 for r in trace.records if r["outcome"] is None
        )


def test_wide_level_is_asked_in_capped_blocks(monkeypatch):
    # 60 inputs held at random by half of 64 accounts: every candidate up
    # to order 3 is negative, and the third level's 34,220 containment
    # tests would stack 16 MB of rows at once
    blocks = []

    def counted(stack, thresholds, l_max):
        blocks.append(stack.nbytes)
        return find_witness_batch(stack, thresholds, l_max)

    monkeypatch.setattr(core_family_search, "find_witness_batch", counted)
    rng = np.random.default_rng(5)
    fam = AdFamily(np.flatnonzero(row) for row in rng.random((64, 60)) < 0.5)
    cfg = DetectionConfig(x=0.4, l_max=1, r_max=3, min_members=3)
    level_bytes = math.comb(60, 3) * fam._rows.nbytes
    tracemalloc.start()
    try:
        assert agglomerative_core_search(fam, cfg).size == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert max(blocks) <= core_family_search._BLOCK_BYTES
    assert len(blocks) > level_bytes // core_family_search._BLOCK_BYTES
    assert peak < level_bytes // 2


def _oracle_prediction(fam, cfg):
    """:func:`predict_core_family`'s verdict, target and flags, from the
    member-list removal oracle on a fresh copy of the family."""
    if len(fam) < cfg.min_members:
        return Verdict.UNKNOWN, None, ("below_min_members",)
    if not detect_targeting(AdFamily(fam.members), cfg):
        return Verdict.UNTARGETED, None, ()
    try:
        found = removal_oracle(AdFamily(fam.members), cfg)
    except BudgetExceeded:
        return Verdict.UNKNOWN, None, ("budget_exhausted",)
    if found.size == 0:
        return Verdict.UNKNOWN, None, ("search_exhausted",)
    return Verdict.TARGETED, found.to_doc(), ()


def test_depth_blocks_match_the_removal_oracle(monkeypatch):
    # the grow walk asked a depth per block against the member-list
    # oracle, on seeded trial families (targeted, untargeted, empty and
    # tiny outputs), with r_max 2, 3 and None and budgets cut all along
    # the unbudgeted walk: the same trace, tests, result or partial and
    # verdict; no query asked twice; the query of every charged test
    # asked; and without a budget, the queries of the depth-block
    # listing, speculative ones included
    asked = []

    def counted(stack, thresholds, l_max):
        asked.extend(zip(stack, thresholds.tolist()))
        return find_witness_batch(stack, thresholds, l_max)

    monkeypatch.setattr(core_family_search, "find_witness_batch", counted)
    seen = {"exclusion grow": 0, "trip in a walk": 0, "speculative": 0, "r_max None": 0}
    configs = [
        dict(x=0.9, l_max=2, r_max=2, min_members=3),
        dict(x=0.8, l_max=3, r_max=None, min_members=3),
        dict(x=0.95, l_max=2, r_max=None, min_members=4),
        dict(x=0.9, l_max=3, r_max=3, min_members=2),
    ]
    for seed, n, m in [(21, 8, 60), (24, 9, 150)]:
        pm, actives = _trial_actives(seed, n, m, 4)
        for opts in configs:
            cfg = DetectionConfig(**opts)
            for active in actives:
                if len(active) == 0:
                    continue
                fam = AdFamily.from_placement(active, pm)
                full = _search_outcome(removal_oracle, fam, cfg)
                records = [json.loads(line) for line in full[3].splitlines()[:-1]]
                charged = [r for r in records if r["kind"] != "grow_exhausted"]
                for budget in [None, *range(1, full[4] + 1, max(1, full[4] // 4))]:
                    budgeted = DetectionConfig(**opts, test_budget=budget)
                    asked.clear()
                    got = _search_outcome(
                        removal_core_search, AdFamily.from_placement(active, pm), budgeted
                    )
                    # two queries whose members hold nothing past their
                    # cleared rows both stack zeros; any other repeat is
                    # one query asked twice
                    held = [(q.tobytes(), t) for q, t in asked if q.any()]
                    assert len(set(held)) == len(held)
                    queries = [(t, _member_sets(q)) for q, t in asked]
                    asked.clear()
                    assert got == _search_outcome(removal_oracle, fam, budgeted)
                    tested = {(t, _member_sets(q)) for q, t in asked}
                    assert tested <= set(queries)
                    if budget is None:
                        assert sorted(queries) == sorted(depth_block_queries(fam, cfg))
                        seen["speculative"] += len(queries) > len(tested)
                    elif budget < len(charged):
                        seen["trip in a walk"] += charged[budget]["kind"] == "steer"
                detects = [i for i, r in enumerate(records) if r["kind"] == "detect"]
                seen["exclusion grow"] += len(detects) > 1 and any(
                    r["kind"] == "steer" for r in records[detects[1]:]
                )
                seen["r_max None"] += cfg.r_max is None and any(
                    r["kind"] == "steer" for r in records
                )
            batched = core_family_verdicts(actives, pm, cfg, method="removal").predictions()
            for active, pred in zip(actives, batched):
                single = predict_core_family(active, pm, cfg, method="removal")
                assert single.to_dict() == pred.to_dict()
                target = None if pred.target is None else pred.target.to_doc()
                assert (pred.verdict, target, pred.flags) == _oracle_prediction(
                    AdFamily.from_placement(active, pm), cfg
                )
    assert all(seen.values()), seen


def test_a_placement_packs_its_rows_once():
    # every family drawn from one placement reads its one read-only packing
    pm = bernoulli_placement(PlacementConfig(n_inputs=12, n_accounts=70, alpha=0.5, seed=8))
    assert np.array_equal(pm.packed, pack_bitsets(pm.membership))
    assert not pm.packed.flags.writeable
    assert AdFamily.from_placement([0, 5, 69], pm)._rows is pm.packed
    assert AdFamily.from_placement([1, 2], pm)._rows is pm.packed
