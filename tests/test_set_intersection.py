import numpy as np
import pytest

from xcorr.core_model import Combination, Family
from xcorr.errors import ConfigError
from xcorr.placement import PlacementConfig, PlacementMatrix, bernoulli_placement
from xcorr.prediction import Verdict
from xcorr.set_intersection import (
    SetIntersectionConfig,
    predict_set_intersection,
    set_intersection_verdicts,
)
from xcorr.simulator import TargetingSpec, simulate_behavioral


def matrix_from_sets(n_inputs, *input_sets):
    mem = np.zeros((len(input_sets), n_inputs), dtype=bool)
    for j, s in enumerate(input_sets):
        mem[j, list(s)] = True
    return PlacementMatrix(mem)


def dumb_predict(a_k, account_sets, cfg):
    """Literal three-step reimplementation over Python sets."""
    a_k = sorted(a_k)
    if len(a_k) < cfg.min_active_accounts:
        return ("unknown", None)
    n = max((max(s) for s in account_sets if s), default=-1) + 1
    targeted = []
    for i in range(n):
        frac = sum(1 for j in a_k if i in account_sets[j]) / len(a_k)
        if frac > cfg.threshold:
            targeted.append(i)
    if not targeted:
        return ("untargeted", None)
    if cfg.max_combination_size is not None and len(targeted) > cfg.max_combination_size:
        return ("untargeted", None)
    whole = sum(1 for j in a_k if set(targeted) <= account_sets[j]) / len(a_k)
    if whole < cfg.threshold:
        return ("untargeted", None)
    return ("targeted", tuple(targeted))


# ------------------------------------------------------------- fixtures


def test_hand_trace_positive():
    pm = matrix_from_sets(5, {1, 2}, {1, 3}, {1, 4})
    pred = predict_set_intersection([0, 1, 2], pm, SetIntersectionConfig())
    assert pred.verdict is Verdict.TARGETED
    assert pred.target == Combination([1])
    assert pred.scores == {"set_intersection": 1.0}


def test_hand_trace_negative():
    pm = matrix_from_sets(5, {1, 2}, {3, 4})
    cfg = SetIntersectionConfig(min_active_accounts=2, threshold=0.9)
    pred = predict_set_intersection([0, 1], pm, cfg)
    assert pred.verdict is Verdict.UNTARGETED


def test_thirteen_of_thirteen():
    rng = np.random.default_rng(0)
    sets = [{2} | set(rng.choice(10, size=3, replace=False)) for _ in range(13)]
    pm = matrix_from_sets(10, *sets)
    pred = predict_set_intersection(range(13), pm, SetIntersectionConfig())
    assert pred.verdict is Verdict.TARGETED
    assert 2 in pred.target


def test_step1_gate_returns_unknown():
    pm = matrix_from_sets(5, {1, 2}, {1, 3}, {1, 4})
    cfg = SetIntersectionConfig(min_active_accounts=5)
    pred = predict_set_intersection([0, 1], pm, cfg)
    assert pred.verdict is Verdict.UNKNOWN
    assert "below_min_active" in pred.flags


def test_step3_rejects_unstable_union():
    # inputs 1 and 2 each frequent, but never together
    pm = matrix_from_sets(4, {1}, {2}, {1, 2}, {1, 2}, {1, 2}, {1, 2})
    cfg = SetIntersectionConfig(min_active_accounts=3, threshold=0.6)
    pred = predict_set_intersection(range(6), pm, cfg)
    # fractions: 5/6 for each input > 0.6; together 4/6 > 0.6 — targeted
    assert pred.verdict is Verdict.TARGETED
    assert pred.target == Combination([1, 2])
    # tighten so step 3 fails while step 2 still passes
    cfg = SetIntersectionConfig(min_active_accounts=3, threshold=0.8)
    pred = predict_set_intersection(range(6), pm, cfg)
    assert pred.verdict is Verdict.UNTARGETED


def test_threshold_one_is_degenerate_by_strictness():
    pm = matrix_from_sets(3, {0}, {0}, {0})
    cfg = SetIntersectionConfig(threshold=1.0)
    pred = predict_set_intersection(range(3), pm, cfg)
    assert pred.verdict is Verdict.UNTARGETED  # frac 1.0 is not > 1.0


def test_max_combination_size_rejects():
    pm = matrix_from_sets(4, {1, 2}, {1, 2}, {1, 2, 3})
    cfg = SetIntersectionConfig(max_combination_size=1)
    pred = predict_set_intersection(range(3), pm, cfg)
    assert pred.verdict is Verdict.UNTARGETED
    assert "oversized_set_rejected" in pred.flags


# ------------------------------------------------------------ validation


def test_config_validation():
    with pytest.raises(ConfigError):
        SetIntersectionConfig(min_active_accounts=0)
    with pytest.raises(ConfigError):
        SetIntersectionConfig(threshold=0.0)
    with pytest.raises(ConfigError):
        SetIntersectionConfig(threshold=1.0001)
    with pytest.raises(ConfigError):
        SetIntersectionConfig(max_combination_size=0)


def test_rejects_foreign_accounts():
    pm = matrix_from_sets(3, {0}, {1})
    with pytest.raises(ConfigError):
        predict_set_intersection([0, 5], pm)
    with pytest.raises(ConfigError):
        set_intersection_verdicts([[0], [-1]], pm)


# ------------------------------------------------------------ properties


def test_matches_dumb_oracle_on_random_instances():
    rng = np.random.default_rng(17)
    for _ in range(200):
        m = int(rng.integers(1, 12))
        n = int(rng.integers(2, 9))
        sets = [
            set(int(i) for i in np.nonzero(rng.random(n) < 0.45)[0]) for _ in range(m)
        ]
        pm = matrix_from_sets(n, *sets)
        k = int(rng.integers(0, m + 1))
        a_k = sorted(rng.choice(m, size=k, replace=False).tolist())
        cfg = SetIntersectionConfig(
            min_active_accounts=int(rng.integers(1, 5)),
            threshold=float(rng.choice([0.5, 0.7, 0.9, 0.95])),
            max_combination_size=(
                int(rng.integers(1, 4)) if rng.random() < 0.3 else None
            ),
        )
        want_verdict, want_set = dumb_predict(a_k, sets, cfg)
        pred = predict_set_intersection(a_k, pm, cfg)
        assert pred.verdict.value == want_verdict
        if want_verdict == "targeted":
            assert pred.target == Combination(want_set)


def test_batch_matches_oracle_and_single_calls():
    rng = np.random.default_rng(29)
    for _ in range(200):
        m = int(rng.integers(1, 14))
        n = int(rng.integers(1, 9))
        sets = [
            set(int(i) for i in np.nonzero(rng.random(n) < 0.6)[0]) for _ in range(m)
        ]
        pm = matrix_from_sets(n, *sets)
        outputs = []
        for _ in range(int(rng.choice([0, 1, 3, 8]))):
            kind = rng.integers(0, 3)
            if kind == 0:
                outputs.append([])
            elif kind == 1:
                outputs.append(range(m))
            else:
                k = int(rng.integers(0, m + 1))
                outputs.append(rng.choice(m, size=k, replace=False).tolist())
        cfg = SetIntersectionConfig(
            min_active_accounts=int(rng.integers(1, 4)),
            threshold=float(rng.choice([0.5, 0.6, 0.75, 0.9, 1.0])),
            max_combination_size=int(rng.integers(1, 3)) if rng.random() < 0.3 else None,
        )
        preds = set_intersection_verdicts(outputs, pm, cfg).predictions()
        assert len(preds) == len(outputs)
        for a_k, pred in zip(outputs, preds):
            want_verdict, want_set = dumb_predict(a_k, sets, cfg)
            assert pred.verdict.value == want_verdict
            if want_verdict == "targeted":
                assert pred.target == Combination(want_set)
            assert pred.to_dict() == predict_set_intersection(a_k, pm, cfg).to_dict()


def test_monotone_in_threshold():
    rng = np.random.default_rng(23)
    for _ in range(50):
        m, n = 8, 6
        sets = [
            set(int(i) for i in np.nonzero(rng.random(n) < 0.5)[0]) for _ in range(m)
        ]
        kept = []
        for thr in (0.5, 0.6, 0.7, 0.8, 0.9):
            cfg = SetIntersectionConfig(min_active_accounts=1, threshold=thr)
            _, t = dumb_predict(range(m), sets, cfg)
            kept.append(set(t or ()))
        # step-2 sets shrink as the threshold rises; verify via the oracle
        fracs = [
            sum(1 for s in sets if i in s) / m for i in range(n)
        ]
        for thr_lo, thr_hi in zip((0.5, 0.6, 0.7, 0.8), (0.6, 0.7, 0.8, 0.9)):
            lo = {i for i in range(n) if fracs[i] > thr_lo}
            hi = {i for i in range(n) if fracs[i] > thr_hi}
            assert hi <= lo


def test_strict_single_combination_recovery():
    # p_out = 0, core one combination: recovered with probability -> 1
    n, alpha = 30, 0.5
    core = Family([(4, 11)])
    hits = 0
    trials = 40
    for t in range(trials):
        cfg = PlacementConfig(n_inputs=n, n_accounts=40, alpha=alpha, seed=1000 + t)
        pm = bernoulli_placement(cfg)
        spec = TargetingSpec.targeted(0, core, p_in=0.95, p_out=0.0)
        obs, _ = simulate_behavioral(pm, [spec], rounds=1, seed=2000 + t)
        pred = predict_set_intersection(
            obs.behavioral[0], pm, SetIntersectionConfig(threshold=0.9)
        )
        if pred.verdict is Verdict.TARGETED and pred.target == Combination([4, 11]):
            hits += 1
    assert hits >= 0.85 * trials
