import math

import numpy as np
import pytest

from oracles import account_inputs, input_accounts
from xcorr.core_model import Combination
from xcorr.errors import DomainError, OverlapError
from xcorr.placement import (
    PlacementConfig,
    PlacementMatrix,
    bernoulli_placement,
    grouped_placement,
    make_rng,
    sized_account_count,
    spawn_rngs,
    spawn_seeds,
)

# chi-squared critical value, 1 degree of freedom, p = 0.01
CHI2_CRIT_1DOF = 6.6349


def test_sized_account_count_values():
    assert sized_account_count(100, 4) == 19
    assert sized_account_count(2, 1) == 2  # ceil(ln 2)=1, clamped up
    assert sized_account_count(51, 4.0) == 16


def test_sized_account_count_domain():
    with pytest.raises(DomainError):
        sized_account_count(1, 4)
    with pytest.raises(DomainError):
        sized_account_count(100, 0)
    with pytest.raises(DomainError):
        sized_account_count(100, -2.0)
    # c * ln N past float range once died in math.ceil with an OverflowError
    with pytest.raises(DomainError, match="not finite"):
        sized_account_count(10, 1e308)
    with pytest.raises(DomainError, match="not finite"):
        sized_account_count(10, float("nan"))


def test_sized_account_count_monotone_in_n():
    prev = 0
    for n in range(2, 400, 7):
        m = sized_account_count(n, 3.0)
        assert m >= prev
        assert m >= 2
        prev = m


def test_config_validation():
    with pytest.raises(DomainError):
        PlacementConfig(n_inputs=0, n_accounts=5, alpha=0.5)
    with pytest.raises(DomainError):
        PlacementConfig(n_inputs=5, n_accounts=0, alpha=0.5)
    with pytest.raises(DomainError):
        PlacementConfig(n_inputs=5, n_accounts=5, alpha=1.0)
    with pytest.raises(DomainError):
        PlacementConfig(n_inputs=5, n_accounts=5, alpha=0.0)


def test_config_rejects_a_draw_numpy_cannot_allocate():
    # the m x N float64 draw must fit in np.intp bytes; no array is made here
    largest = np.iinfo(np.intp).max // 8
    PlacementConfig(n_inputs=1, n_accounts=largest, alpha=0.5)
    with pytest.raises(DomainError, match="too large"):
        PlacementConfig(n_inputs=1, n_accounts=largest + 1, alpha=0.5)
    with pytest.raises(DomainError, match="too large"):
        PlacementConfig(n_inputs=10, n_accounts=2**62, alpha=0.5)


def test_determinism():
    cfg = PlacementConfig(n_inputs=40, n_accounts=12, alpha=0.3, seed=99)
    assert bernoulli_placement(cfg) == bernoulli_placement(cfg)
    cfg2 = PlacementConfig(n_inputs=40, n_accounts=12, alpha=0.3, seed=100)
    assert bernoulli_placement(cfg) != bernoulli_placement(cfg2)


def test_views_are_transposes():
    cfg = PlacementConfig(n_inputs=30, n_accounts=20, alpha=0.4, seed=5)
    pm = bernoulli_placement(cfg)
    for j in range(pm.n_accounts):
        inputs = account_inputs(pm, j)
        assert isinstance(inputs, Combination)
        for i in inputs:
            assert j in input_accounts(pm, i)
    for i in range(pm.n_inputs):
        for j in input_accounts(pm, i):
            assert i in account_inputs(pm, j)


def test_binomial_concentration():
    cfg = PlacementConfig(n_inputs=1000, n_accounts=50, alpha=0.5, seed=1)
    pm = bernoulli_placement(cfg)
    counts = pm.membership.sum(axis=1)
    sigma = math.sqrt(1000 * 0.25)
    assert np.all(np.abs(counts - 500) < 5 * sigma)


def test_high_alpha_nearly_full():
    cfg = PlacementConfig(n_inputs=500, n_accounts=10, alpha=0.999, seed=3)
    pm = bernoulli_placement(cfg)
    assert pm.membership.mean() > 0.99


def test_inclusion_frequency_chi_squared():
    # >= 1e4 cells per seed; each must pass a 1-dof chi-squared at p=0.01
    for seed in (11, 12, 13):
        cfg = PlacementConfig(n_inputs=100, n_accounts=120, alpha=0.3, seed=seed)
        pm = bernoulli_placement(cfg)
        cells = pm.membership.size
        ones = int(pm.membership.sum())
        zeros = cells - ones
        e1, e0 = cells * 0.3, cells * 0.7
        chi2 = (ones - e1) ** 2 / e1 + (zeros - e0) ** 2 / e0
        assert chi2 < CHI2_CRIT_1DOF


def test_grouped_placement_shares_columns():
    cfg = PlacementConfig(n_inputs=10, n_accounts=25, alpha=0.5, seed=2)
    pm = grouped_placement([{0, 1, 2}, {5, 7}], cfg)
    mem = pm.membership
    assert np.array_equal(mem[:, 0], mem[:, 1])
    assert np.array_equal(mem[:, 0], mem[:, 2])
    assert np.array_equal(mem[:, 5], mem[:, 7])
    # ungrouped columns stay independent draws (a.s. not all identical)
    assert not np.array_equal(mem[:, 3], mem[:, 4]) or not np.array_equal(
        mem[:, 4], mem[:, 6]
    )


def test_grouped_placement_empty_groups_degenerates():
    cfg = PlacementConfig(n_inputs=35, n_accounts=14, alpha=0.45, seed=77)
    assert grouped_placement([], cfg) == bernoulli_placement(cfg)


def test_grouped_placement_six_by_three():
    cfg = PlacementConfig(n_inputs=18, n_accounts=40, alpha=0.5, seed=4)
    groups = [set(range(3 * g, 3 * g + 3)) for g in range(6)]
    pm = grouped_placement(groups, cfg)
    for g in range(6):
        cols = pm.membership[:, 3 * g : 3 * g + 3]
        assert np.all(cols == cols[:, [0]])


def test_grouped_placement_overlap_rejected():
    cfg = PlacementConfig(n_inputs=10, n_accounts=5, alpha=0.5, seed=0)
    with pytest.raises(OverlapError):
        grouped_placement([{0, 1}, {1, 2}], cfg)


def test_grouped_placement_out_of_range():
    cfg = PlacementConfig(n_inputs=4, n_accounts=5, alpha=0.5, seed=0)
    with pytest.raises(DomainError):
        grouped_placement([{3, 4}], cfg)


def test_json_roundtrip():
    cfg = PlacementConfig(n_inputs=9, n_accounts=6, alpha=0.25, seed=8)
    pm = bernoulli_placement(cfg)
    back = PlacementMatrix.from_json(pm.to_json())
    assert back == pm
    assert back.alpha == 0.25
    assert back.seed == 8


# ------------------------------------------------------------- streams


def _seed_sequences():
    """Seed sequences of every shape spawn_rngs must follow, each built
    twice so one copy can be spawned from and the other left alone."""
    shapes = [
        dict(entropy=0),
        dict(entropy=5),
        dict(entropy=2**200 + 7),  # multi-word int entropy
        dict(entropy=[1, 2, 3, 4, 5, 6]),  # list entropy longer than the pool
        dict(entropy=[9]),
        dict(entropy=3, spawn_key=(4, 5)),  # nested spawn key
        dict(entropy=7, spawn_key=(2**40,)),  # multi-word spawn-key entry
        dict(entropy=11, pool_size=8),
        dict(entropy=[1, 2, 3, 4, 5, 6, 7, 8, 9], spawn_key=(1,), pool_size=5),
    ]
    rng = np.random.default_rng(20)
    for _ in range(40):
        entropy = (
            int(rng.integers(0, 2**63)) if rng.random() < 0.5
            else [int(w) for w in rng.integers(0, 2**32, size=int(rng.integers(1, 9)))]
        )
        shapes.append(dict(
            entropy=entropy,
            spawn_key=tuple(int(w) for w in rng.integers(0, 50, size=int(rng.integers(0, 4)))),
            pool_size=int(rng.choice([4, 5, 8])),
        ))
    for shape in shapes:
        yield np.random.SeedSequence(**shape), np.random.SeedSequence(**shape)


@pytest.mark.parametrize("already_spawned", [0, 3])
@pytest.mark.parametrize("k", [0, 1, 7, 19])
def test_spawn_rngs_equals_spawned_children(k, already_spawned):
    for ours, theirs in _seed_sequences():
        ours.spawn(already_spawned)
        theirs.spawn(already_spawned)
        got = [g.random(4).tobytes() for g in spawn_rngs(ours, k)]
        want = [make_rng(c).random(4).tobytes() for c in theirs.spawn(k)]
        assert got == want
        # the derivation reads the spawn counter but cannot advance it
        assert ours.n_children_spawned == already_spawned


def test_spawn_rngs_accepts_an_int_seed():
    got = [g.integers(0, 2**63) for g in spawn_rngs(42, 3)]
    want = [make_rng(c).integers(0, 2**63) for c in np.random.SeedSequence(42).spawn(3)]
    assert got == want


@pytest.mark.parametrize("already_spawned", [0, 2])
def test_spawn_seeds_equal_spawned_children_and_grandchildren(already_spawned):
    for ours, theirs in _seed_sequences():
        ours.spawn(already_spawned)
        theirs.spawn(already_spawned)
        children = theirs.spawn(5)
        for got, want in zip(spawn_seeds(ours, 5), children, strict=True):
            assert got.entropy == want.entropy
            assert got.spawn_key == want.spawn_key
            assert got.pool_size == want.pool_size
            assert got.pool.tolist() == want.pool.tolist()
            for n_words, dtype in [(1, np.uint64), (4, np.uint64), (3, np.uint32), (8, np.uint32)]:
                assert got.generate_state(n_words, dtype).tolist() == (
                    want.generate_state(n_words, dtype).tolist()
                )
            assert make_rng(got).random(3).tobytes() == make_rng(want).random(3).tobytes()
            # a child's own children follow from its pool alone
            assert [g.random(2).tobytes() for g in spawn_rngs(got, 3)] == [
                make_rng(c).random(2).tobytes() for c in want.spawn(3)
            ]
    with pytest.raises(ValueError):
        spawn_seeds(5, 1)[0].generate_state(5, np.uint64)
