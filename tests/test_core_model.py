import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    assert_no_lower_order_family,
    assert_no_smaller_family,
    family_eval_bitboard,
    minimal_masks_dp,
    minimal_masks_submask,
    random_antichain,
    random_monotone_table,
    table_bitboard,
)
from xcorr.core_model import (
    Combination,
    Family,
    TruthTable,
    check_axioms,
    eval_targeting,
    explains,
    extract_core_family,
)
from xcorr.errors import AxiomViolation, DomainError


# ---------------------------------------------------------------- basics


def test_combination_sorts_and_dedupes():
    c = Combination([3, 1, 3, 0])
    assert c.inputs == (0, 1, 3)
    assert c.order == 3
    assert 1 in c and 2 not in c


def test_combination_bitmask_roundtrip():
    c = Combination([0, 2, 5])
    assert c.bitmask() == 0b100101
    assert Combination.from_bitmask(0b100101) == c


def test_combination_rejects_negative_ids():
    with pytest.raises(DomainError):
        Combination([-1, 2])


def test_family_size_and_order():
    fam = Family([(1, 3), (4,)])
    assert fam.size == 2
    assert fam.order == 2
    assert Family([]).order == 0
    assert Family([]).size == 0


def test_family_rejects_empty_member():
    with pytest.raises(DomainError):
        Family([(1,), ()])


def test_family_antichain_check():
    assert Family([(1, 3), (4,)]).is_antichain()
    assert not Family([(1,), (1, 3)]).is_antichain()


def test_family_json_is_canonical():
    fam = Family([(4,), (3, 1)])
    assert fam.to_doc() == [[1, 3], [4]]
    assert json.dumps(fam.to_doc()) == "[[1, 3], [4]]"
    assert Family(fam.to_doc()) == fam


# ------------------------------------------------------- eval_targeting


def test_eval_targeting_member_subset():
    core = Family([(1, 3), (4,)])
    assert eval_targeting(core, Combination([1, 2, 3]))
    assert eval_targeting(core, Combination([4, 9]))
    assert not eval_targeting(core, Combination([1, 2]))


def test_eval_targeting_empty_family_never_fires():
    assert not eval_targeting(Family([]), Combination(range(10)))


def test_eval_targeting_strict_subset_query():
    assert not eval_targeting(Family([(1, 3)]), Combination([1]))


def test_eval_targeting_empty_query():
    assert not eval_targeting(Family([(1,)]), Combination())


# ------------------------------------------------------------- explains


def test_explains_worked_example():
    s = Family([(1, 3), (4,)])
    s_prime = Family([(1, 2, 3), (4,), (2, 4), (1, 3)])
    assert explains(s, s_prime)


def test_explains_empty_target_is_vacuous():
    assert explains(Family([(2,)]), Family([]))
    assert explains(Family([]), Family([]))


def test_explains_negative():
    assert not explains(Family([(2,)]), Family([(1, 3)]))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_explains_reflexive_transitive(data):
    n = 6
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    fams = []
    for _ in range(3):
        masks = random_antichain(rng, n)
        fams.append(Family(Combination.from_bitmask(m) for m in masks))
    a, b, c = fams
    assert explains(a, a)
    if explains(a, b) and explains(b, c):
        assert explains(a, c)


# ---------------------------------------------------------- check_axioms


def test_axioms_contains_input_zero():
    f = TruthTable.from_core(Family([(0,)]), 3)
    assert check_axioms(f) == {"monotone": True, "input_sensitive": True}


def test_axioms_constant_one():
    f = TruthTable(3, np.ones(8, dtype=np.uint8))
    assert check_axioms(f) == {"monotone": True, "input_sensitive": False}


def test_axioms_non_monotone():
    vals = np.zeros(8, dtype=np.uint8)
    vals[0b010] = 1  # {1} targeted, {1,2} not
    assert check_axioms(TruthTable(3, vals))["monotone"] is False


# --------------------------------------------------- extract_core_family


def test_extract_roundtrips_worked_example():
    core = Family([(1, 3), (4,)])
    f = TruthTable.from_core(core, 5)
    assert extract_core_family(f) == core


def test_extract_single_input_indicator():
    for i in range(5):
        f = TruthTable.from_core(Family([(i,)]), 5)
        assert extract_core_family(f) == Family([(i,)])
        assert int(f.values.sum()) == 16  # half of the 32 subsets contain i


def test_extract_full_set_only():
    vals = np.zeros(16, dtype=np.uint8)
    vals[0b1111] = 1
    assert extract_core_family(TruthTable(4, vals)) == Family([(0, 1, 2, 3)])


def test_extract_rejects_bad_tables():
    with pytest.raises(AxiomViolation):
        extract_core_family(TruthTable(3, np.ones(8, dtype=np.uint8)))
    vals = np.zeros(8, dtype=np.uint8)
    vals[0b010] = 1
    with pytest.raises(AxiomViolation):
        extract_core_family(TruthTable(3, vals))


def test_truth_table_cap():
    with pytest.raises(DomainError):
        TruthTable(25, np.zeros(2, dtype=np.uint8))
    with pytest.raises(DomainError):
        TruthTable(3, np.zeros(7, dtype=np.uint8))


def test_truth_table_from_core_matches_eval_targeting():
    core = Family([(0, 2), (3,)])
    table = TruthTable.from_core(core, 4)
    for mask in range(1 << 4):
        assert table(mask) == eval_targeting(core, Combination.from_bitmask(mask))


# -------------------------------------------- oracle-checked minimality


def test_oracle_routes_agree_on_small_tables():
    rng = np.random.default_rng(7)
    for _ in range(50):
        vals = random_monotone_table(rng, 5)
        assert minimal_masks_submask(5, vals) == minimal_masks_dp(5, vals)


@pytest.mark.parametrize("seed", range(4))
def test_extraction_exact_small_universe(seed):
    """Random monotone tables, n <= 5: extraction equals the brute-force
    minimal set and nothing smaller or shallower reproduces f."""
    rng = np.random.default_rng(seed)
    for _ in range(25):
        vals = random_monotone_table(rng, 5)
        f = TruthTable(5, vals)
        core = extract_core_family(f)
        masks = sorted(c.bitmask() for c in core)
        assert masks == minimal_masks_submask(5, vals)
        assert core.is_antichain()
        assert family_eval_bitboard(5, masks) == table_bitboard(vals)
        assert_no_smaller_family(5, vals, masks, exhaustive=True)
        assert_no_lower_order_family(5, vals, masks)


@pytest.mark.parametrize("seed", range(4))
def test_extraction_roundtrip_larger_universe(seed):
    """Random antichain cores, n <= 12: materialize, extract, compare."""
    rng = np.random.default_rng(100 + seed)
    for _ in range(10):
        n = int(rng.integers(4, 13))
        masks = random_antichain(rng, n)
        core = Family(Combination.from_bitmask(m) for m in masks)
        f = TruthTable.from_core(core, n)
        extracted = extract_core_family(f)
        assert extracted == core
        assert sorted(c.bitmask() for c in extracted) == minimal_masks_dp(n, f.values)
        assert_no_smaller_family(n, f.values, masks, exhaustive=False)
        assert_no_lower_order_family(n, f.values, masks)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_extraction_roundtrip_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 10))
    masks = random_antichain(rng, n, max_size=3, max_order=min(4, n))
    core = Family(Combination.from_bitmask(m) for m in masks)
    f = TruthTable.from_core(core, n)
    assert extract_core_family(f) == core
    # extraction output explains the family of all targeted subsets
    targeted = Family(
        Combination.from_bitmask(int(m)) for m in np.nonzero(f.values)[0] if m
    )
    assert explains(core, targeted)

