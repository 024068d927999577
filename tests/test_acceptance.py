"""Acceptance suite: ten end-to-end checks of the audit machinery.

Each criterion is a single test so ``pytest -v`` yields one pass/fail
line per criterion; run with ``-s`` to also see the printed verdict
lines with their measured numbers.  Statistical checks run at fixed
seeds and operating points chosen inside each detector's working
regime, with explicit tolerance margins; none of them are tuned to the
draw (changing a seed moves the numbers well inside the asserted
bounds, not across them).
"""

import dataclasses
import math
import time

import numpy as np

from oracles import (
    assert_no_lower_order_family,
    assert_no_smaller_family,
    minimal_masks_submask,
    random_antichain,
    random_monotone_table,
)
from xcorr.bayes import ModelParams, behavioral_evidence, log_likelihoods, posteriors
from xcorr.core_family_search import (
    AdFamily,
    DetectionConfig,
    SearchTrace,
    agglomerative_core_search,
    detect_targeting,
    removal_core_search,
)
from xcorr.core_model import Combination, Family, TruthTable, extract_core_family
from xcorr.experiment import (
    ScenarioConfig,
    detect_knee,
    run_scenario,
    scaling_sweep,
)
from xcorr.placement import (
    PlacementConfig,
    PlacementMatrix,
    bernoulli_placement,
    sized_account_count,
)
from xcorr.simulator import TargetingSpec, simulate_behavioral
from xcorr.threshold_analysis import _stationarity, max_ratio, recommend_config


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert ok, line


def _seed_int(ss: np.random.SeedSequence) -> int:
    return int(ss.generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------


def test_01_core_family_extraction_exact():
    """Extraction returns the unique minimal explaining family, verified
    against brute-force bitboard oracles: 500 random monotone tables
    (n <= 5, fully exhaustive minimality search) plus 200 random
    antichain round trips (n <= 12, minimality over minimal elements)."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    checked = 0
    for _ in range(500):
        n = int(rng.integers(2, 6))
        values = random_monotone_table(rng, n)
        f = TruthTable(n, values)
        fam = extract_core_family(f)
        assert TruthTable.from_core(fam, n) == f
        assert fam.is_antichain()
        masks = sorted(c.bitmask() for c in fam.combinations)
        assert masks == sorted(minimal_masks_submask(n, values))
        assert_no_smaller_family(n, values, masks, exhaustive=True)
        assert_no_lower_order_family(n, values, masks)
        checked += 1
    for _ in range(200):
        n = int(rng.integers(2, 13))
        masks = random_antichain(rng, n, max_size=3, max_order=4)
        core = Family(Combination.from_bitmask(m) for m in masks)
        f = TruthTable.from_core(core, n)
        fam = extract_core_family(f)
        assert fam == core
        assert_no_smaller_family(n, f.values, masks, exhaustive=n <= 5)
        assert_no_lower_order_family(n, f.values, masks)
        checked += 1
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        "core-family extraction exact",
        checked == 700 and elapsed < 60.0,
        f"{checked} cases, {elapsed:.1f}s",
    )


def test_02_separation_threshold_closed_forms():
    """Threshold calculus against its closed forms: 1/r and 1/l rows are
    exact, the equal-shape diagonal matches 1/(2^n - 1)^2, and every
    numeric root leaves a stationarity residual below 1e-10."""
    start = time.perf_counter()
    for k in range(1, 11):
        assert max_ratio(1, k).m_lr == 1.0 / k
        assert max_ratio(k, 1).m_lr == 1.0 / k
    for n in range(2, 6):
        assert abs(max_ratio(n, n).m_lr - 1.0 / (2**n - 1) ** 2) < 1e-9
    m33 = max_ratio(3, 3).m_lr
    assert abs(m33 - 1.0 / 49.0) < 1e-9 and m33 > 0.02
    worst = 0.0
    for l in range(2, 11):
        for r in range(2, 11):
            res = max_ratio(l, r)
            if res.method != "closed_form":
                worst = max(worst, abs(_stationarity(l, r, res.z_star)))
    elapsed = time.perf_counter() - start
    _verdict(
        2,
        "separation thresholds",
        worst < 1e-10 and elapsed < 1.0,
        f"worst residual {worst:.2e}, {elapsed:.2f}s",
    )


def test_03_untargeted_soundness():
    """With accounts sized for N=100 and the recommended operating point,
    the witness test (support-gated) flags at most 5% of purely
    untargeted ads."""
    start = time.perf_counter()
    rec = recommend_config(2, 2, 0.02)
    m = sized_account_count(100, 4.0)
    cfg = DetectionConfig(x=rec.x, l_max=2, r_max=2, min_members=8)
    root = np.random.SeedSequence(303)
    false_positives = 0
    total = 0
    for ss in root.spawn(20):
        place_ss, behav_ss = ss.spawn(2)
        pm = bernoulli_placement(
            PlacementConfig(
                n_inputs=100, n_accounts=m, alpha=rec.alpha, seed=_seed_int(place_ss)
            )
        )
        specs = [TargetingSpec.untargeted(oid, p_empty=0.1) for oid in range(20)]
        obs, _ = simulate_behavioral(pm, specs, seed=behav_ss)
        for oid in range(20):
            fam = AdFamily.from_placement(obs.behavioral[oid], pm)
            false_positives += detect_targeting(fam, cfg)
            total += 1
    rate = false_positives / total
    elapsed = time.perf_counter() - start
    _verdict(
        3,
        "untargeted soundness",
        total == 400 and rate <= 0.05 and elapsed < 300.0,
        f"FP {false_positives}/{total}, {elapsed:.1f}s",
    )


def test_04_targeted_completeness():
    """Low-noise completeness across core shapes (l, r) in {1,2}^2:
    detection fires >= 95%, both search algorithms recover the exact
    core >= 90%, and the removal search never exceeds l * r^l * N
    witness tests."""
    start = time.perf_counter()
    n, m, trials = 16, 240, 100
    cfg = DetectionConfig(x=0.99, l_max=2, r_max=2)
    details = []
    all_ok = True
    for shape_i, (l, r) in enumerate([(1, 1), (1, 2), (2, 1), (2, 2)]):
        bound = l * r**l * n
        detected = agg_exact = rem_exact = within_budget = 0
        for ss in np.random.SeedSequence((404, shape_i)).spawn(trials):
            core_ss, place_ss, behav_ss = ss.spawn(3)
            ids = np.random.default_rng(core_ss).choice(n, size=l * r, replace=False)
            core = Family(ids[i * r : (i + 1) * r] for i in range(l))
            pm = bernoulli_placement(
                PlacementConfig(
                    n_inputs=n, n_accounts=m, alpha=0.5, seed=_seed_int(place_ss)
                )
            )
            spec = TargetingSpec.targeted(0, core, p_in=0.7, p_out=1e-4)
            obs, _ = simulate_behavioral(pm, [spec], seed=behav_ss)
            fam = AdFamily.from_placement(obs.behavioral[0], pm)
            detected += detect_targeting(fam, cfg)
            agg_exact += agglomerative_core_search(fam, cfg) == core
            trace = SearchTrace()
            rem_exact += removal_core_search(fam, cfg, trace) == core
            within_budget += trace.tests_used <= bound
        ok = (
            detected >= 0.95 * trials
            and agg_exact >= 0.90 * trials
            and rem_exact >= 0.90 * trials
            and within_budget == trials
        )
        all_ok &= ok
        details.append(f"({l},{r}): det {detected} agg {agg_exact} rem {rem_exact}")
    elapsed = time.perf_counter() - start
    _verdict(
        4,
        "targeted completeness",
        all_ok and elapsed < 900.0,
        f"{'; '.join(details)} of {trials}, {elapsed:.1f}s",
    )


def test_05_bayes_matches_tuned_set_intersection():
    """On singleton targeting with enough accounts, the Bayes detector is
    within 5 recall and 5 precision points of a set-intersection
    detector whose threshold was grid-tuned for the scenario."""
    start = time.perf_counter()
    base = ScenarioConfig(
        n_inputs=20,
        n_targeted=6,
        n_untargeted=6,
        n_accounts=80,
        p_in=0.5,
        p_out=0.01,
        p_empty=0.02,
        alpha=0.5,
        trials=200,
        seed=5,
        algorithms=("bayes",),
    )
    bayes = run_scenario(base).algorithms["bayes"]["pooled"]
    best_th, best = None, None
    for step in range(10):
        th = 0.5 + 0.05 * step
        cfg = dataclasses.replace(
            base,
            algorithms=("setint",),
            algo_config={"setint": {"min_active_accounts": 6, "threshold": th}},
        )
        pooled = run_scenario(cfg).algorithms["setint"]["pooled"]
        score = pooled["precision"] + pooled["recall"]
        if best is None or score > best["precision"] + best["recall"]:
            best_th, best = th, pooled
    d_recall = abs(bayes["recall"] - best["recall"])
    d_precision = abs(bayes["precision"] - best["precision"])
    elapsed = time.perf_counter() - start
    _verdict(
        5,
        "bayes vs tuned set-intersection",
        d_recall <= 0.05 and d_precision <= 0.05 and elapsed < 600.0,
        f"deltas recall {100 * d_recall:.1f}pt precision {100 * d_precision:.1f}pt "
        f"(setint th={best_th}), {elapsed:.1f}s",
    )


def test_06_operating_point_at_detected_knee():
    """At the knee of its own recall curve (Gmail-like noise, composite
    scoring), 95% Wilson lower bounds clear recall 85% / precision 84%."""
    start = time.perf_counter()
    cfg = ScenarioConfig.from_dict(
        {
            "preset": "gmail_like",
            "n_inputs": 20,
            "n_targeted": 8,
            "n_untargeted": 4,
            "trials": 60,
            "seed": 9,
            "algorithms": ["composite"],
            "algo_config": {"composite": {"score_floor": 0.7}},
        }
    )
    knee = detect_knee(cfg, algo="composite")
    assert knee.knee_m is not None, knee
    final = dataclasses.replace(cfg, n_accounts=knee.knee_m, trials=300)
    pooled = run_scenario(final).algorithms["composite"]["pooled"]
    recall_lo = pooled["recall_ci"][0]
    precision_lo = pooled["precision_ci"][0]
    elapsed = time.perf_counter() - start
    _verdict(
        6,
        "knee operating point",
        recall_lo >= 0.85 and precision_lo >= 0.84 and elapsed < 600.0,
        f"knee m={knee.knee_m}, recall lower {recall_lo:.3f}, "
        f"precision lower {precision_lo:.3f}, {elapsed:.1f}s",
    )


def test_07_account_demand_grows_logarithmically():
    """The account budget at the knee grows like ln(N): sweeping N from 2
    to 51 multiplies the knee by at most 3, and a ln fit explains at
    least 80% of the variance."""
    start = time.perf_counter()
    cfg = ScenarioConfig.from_dict(
        {
            "preset": "gmail_like",
            "n_inputs": 51,
            "n_targeted": 6,
            "n_untargeted": 6,
            "seed": 13,
            "algorithms": ["bayes"],
            "trials": 250,
        }
    )
    result = scaling_sweep(cfg, [2, 4, 8, 16, 32, 51], algo="bayes", trials=250)
    k_small, k_large = result.knee(2), result.knee(51)
    growth = k_large / k_small if k_small else math.inf
    elapsed = time.perf_counter() - start
    _verdict(
        7,
        "logarithmic account demand",
        not result.flags
        and growth <= 3.0
        and result.r_squared is not None
        and result.r_squared >= 0.8
        and elapsed < 1800.0,
        f"knee {k_small}->{k_large} (x{growth:.2f}), R^2 {result.r_squared:.3f}, "
        f"{elapsed:.1f}s",
    )


def test_08_matching_uplift():
    """Grouping interchangeable inputs before placement (6 groups of 3)
    clusters them near-perfectly and at least doubles behavioral recall
    at the same account budget."""
    start = time.perf_counter()
    groups = tuple(tuple(range(3 * g, 3 * g + 3)) for g in range(6))
    base = dict(
        n_inputs=18,
        n_targeted=6,
        n_untargeted=6,
        n_accounts=24,
        p_in=0.5,
        p_out=0.01,
        p_empty=0.1,
        alpha=0.5,
        trials=200,
        seed=11,
        algorithms=("bayes",),
        overlap_groups=groups,
    )
    matched = run_scenario(ScenarioConfig(matching=True, **base))
    unmatched = run_scenario(ScenarioConfig(**base))
    matched_recall = matched.algorithms["bayes"]["pooled"]["recall"]
    unmatched_recall = unmatched.algorithms["bayes"]["pooled"]["recall"]
    purity = matched.matching["mean_purity"]
    uplift = matched_recall / max(unmatched_recall, 1e-9)
    elapsed = time.perf_counter() - start
    _verdict(
        8,
        "input-matching uplift",
        purity >= 17.0 / 18.0 and matched_recall >= 2.0 * unmatched_recall
        and elapsed < 600.0,
        f"purity {purity:.3f}, recall {matched_recall:.3f} vs {unmatched_recall:.3f} "
        f"(x{uplift:.1f}), {elapsed:.1f}s",
    )


def test_09_likelihood_identity_and_normalization():
    """The batched closed-form behavioral log-likelihood rows equal a
    naive account-by-account product to 1e-12 relative accuracy over
    10,000 random (output, hypothesis) instances, and every batched
    posterior row sums to 1 within 1e-9."""
    start = time.perf_counter()
    rng = np.random.default_rng(909)
    worst_rel = worst_norm = 0.0
    instances = 0
    while instances < 10_000:
        m = int(rng.integers(3, 121))
        n = int(rng.integers(2, 31))
        membership = rng.random((m, n)) < rng.uniform(0.2, 0.8)
        p_out = float(rng.uniform(1e-4, 0.15))
        params = ModelParams(
            p_in=float(rng.uniform(p_out + 0.05, 0.95)),
            p_out=p_out,
            p_empty=float(rng.uniform(0.01, 0.9)),
        )
        outputs, hyps = [], []
        for _ in range(25):
            k = int(rng.integers(0, m + 1))
            outputs.append(rng.choice(m, size=k, replace=False))
            hyps.append(None if rng.random() < 1.0 / 3.0 else int(rng.integers(0, n)))
        loglik = log_likelihoods(
            behavioral_evidence(outputs, PlacementMatrix(membership)), params
        )
        for row, active, hyp in zip(loglik, outputs, hyps):
            fast = row[n if hyp is None else hyp]
            active_set = {int(a) for a in active}
            member_set = set() if hyp is None else set(np.nonzero(membership[:, hyp])[0].tolist())
            naive = 0.0
            for account in range(m):
                if hyp is None:
                    p = params.p_empty if account in active_set else 1 - params.p_empty
                elif account in member_set:
                    p = params.p_in if account in active_set else 1 - params.p_in
                else:
                    p = params.p_out if account in active_set else 1 - params.p_out
                naive += math.log(p)
            worst_rel = max(worst_rel, abs(fast - naive) / abs(naive))
            instances += 1
        probs, _ = posteriors(loglik, params)
        worst_norm = max(worst_norm, float(np.max(np.abs(probs.sum(axis=1) - 1.0))))
    elapsed = time.perf_counter() - start
    _verdict(
        9,
        "likelihood identity",
        worst_rel <= 1e-12 and worst_norm <= 1e-9 and elapsed < 10.0,
        f"worst rel {worst_rel:.2e}, worst norm {worst_norm:.2e}, {elapsed:.1f}s",
    )


def test_10_scenario_reports_are_reproducible():
    """Running the same scenario twice yields byte-identical canonical
    report JSON."""
    start = time.perf_counter()
    cfg = ScenarioConfig(
        n_inputs=10,
        n_targeted=3,
        n_untargeted=2,
        n_accounts=40,
        trials=5,
        seed=77,
        algorithms=("bayes", "setint", "corefamily"),
        algo_config={"corefamily": {"l_max": 1, "r_max": 1}},
    )
    first = run_scenario(cfg).to_canonical_json()
    second = run_scenario(cfg).to_canonical_json()
    elapsed = time.perf_counter() - start
    _verdict(
        10,
        "reproducible reports",
        first == second and len(first) > 200,
        f"{len(first)} bytes, rerun identical, {elapsed:.1f}s",
    )
