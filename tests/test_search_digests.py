"""Byte-for-byte pin of the core-family search on the completeness-gate
families and on whole simulated trials.

The 400 families of acceptance test_04 (core shapes (l, r) in {1,2}^2,
100 each, low noise) are searched with both recovery algorithms.  Three
streams per algorithm are hashed with sha256, family after family:
the ``SearchTrace`` JSONL, the recovered family's canonical JSON and the
``predict_core_family`` verdict.  The digests were recorded before the
search was moved onto packed-bitset family views; any change to a
witness, a test answer, the order of tests or a verdict changes them.
Do not re-record them to make a change pass.

``TRIAL_DIGESTS`` pin the runner's ``corefamily`` detector: every
verdict ``algorithm_verdicts`` gives, with both methods and a few
detection configs, over scenario_mix-shaped trials (32 inputs, 60
accounts, 8 targeted and 8 untargeted outputs) and two matched trials.
They were recorded before a trial's searches were advanced together in
lock-step rounds, and are not to be re-recorded either.
``ALL_TRIALS_AGGLOMERATIVE_DIGEST`` pins the agglomerative method the
same way on all seven trials; it was recorded before each breadth-first
level of containment tests was asked as one stacked block.
``QUERY_COUNTS`` pin the kernel work of the same detector: a change that
asks a repeated witness query again fails here, not only in the
benchmark.
"""

import hashlib
import json

import numpy as np

from xcorr import core_family_search
from xcorr._kernels import find_witness_batch
from xcorr.core_family_search import (
    AdFamily,
    DetectionConfig,
    SearchTrace,
    agglomerative_core_search,
    predict_core_family,
    removal_core_search,
)
from xcorr.core_model import Family
from xcorr.experiment import ScenarioConfig
from xcorr.experiment.runner import algorithm_verdicts, simulate_trial
from xcorr.placement import PlacementConfig, bernoulli_placement
from xcorr.simulator import TargetingSpec, simulate_behavioral

CFG = DetectionConfig(x=0.99, l_max=2, r_max=2)
METHODS = {"agglomerative": agglomerative_core_search, "removal": removal_core_search}

DIGESTS = {
    "agglomerative.trace": "15f2321669df87d8a7ef68aa99b1dec3a86b0a9ab655b7aff567ec82324f712c",
    "agglomerative.family": "b1738d5ccf5742313babaf242a763c28d12d0d72ce805e80da92f7d969411bca",
    "agglomerative.verdict": "973924447bb8e2e62053ddca0d63a4594cfa06d84abcb4fec4ee7544cb7dfad6",
    "removal.trace": "c10ec160d1efb07b3400df75bd168f0efd1094fec9229611bfdd2b868ac26eb8",
    "removal.family": "a5031fe773d0340c088351ab443de077089a034bac5b09e8626d4bb3d101fc61",
    "removal.verdict": "6fbc0483028c85f286741db9147688dc2ef9bd891cb68141d3d9b318adc090a3",
}

TRIAL_DIGESTS = {
    "agglomerative": "98de5028a7d6de0c2ec50b9a82a3e3cf7d87340e71957a2253973d204a120d4c",
    "removal": "7add241eb46af491d8df3dbf1461cc7729e8111450fb25a60bfd3d4e346c9a15",
}

#: The agglomerative method over all seven trials (five mix, two
#: matched).  Not to be re-recorded.
ALL_TRIALS_AGGLOMERATIVE_DIGEST = {
    "agglomerative": "0cbbbd48e08b6d9296c9f66ac62cd5f68b094ab3274da55408b0ddecb18dd760",
}

TRIAL_SCENARIOS = {
    "mix": dict(
        preset="gmail_like", n_inputs=32, n_accounts=60, n_targeted=8,
        n_untargeted=8, l_values=[1, 2], r_values=[1, 2], trials=5, seed=606,
    ),
    "matched": dict(
        n_inputs=18, n_targeted=6, n_untargeted=6, n_accounts=24, trials=2,
        overlap_groups=[[3 * g, 3 * g + 1, 3 * g + 2] for g in range(6)],
        matching=True, seed=607,
    ),
}

TRIAL_OPTIONS = [{}, {"x": 0.9, "min_members": 5}, {"l_max": 3}]

#: ``TRIAL_DIGESTS`` cover the first two trials of each scenario for the
#: breadth-first search, which cost about 20 times the removal search
#: while it asked one query per candidate.  Asked a level at a time it
#: costs about 4 times as much (all seven trials, simulation included:
#: 0.62 s against 0.14 s), so ``ALL_TRIALS_AGGLOMERATIVE_DIGEST`` covers
#: every trial.
TRIAL_LIMIT = {"agglomerative": 2, "removal": None}


def completeness_families(n=16, m=240, trials=100):
    """(active accounts, placement) of every test_04 family, in order."""
    for shape_i, (l, r) in enumerate([(1, 1), (1, 2), (2, 1), (2, 2)]):
        for ss in np.random.SeedSequence((404, shape_i)).spawn(trials):
            core_ss, place_ss, behav_ss = ss.spawn(3)
            ids = np.random.default_rng(core_ss).choice(n, size=l * r, replace=False)
            core = Family(ids[i * r : (i + 1) * r] for i in range(l))
            seed = int(place_ss.generate_state(1, np.uint64)[0])
            pm = bernoulli_placement(
                PlacementConfig(n_inputs=n, n_accounts=m, alpha=0.5, seed=seed)
            )
            spec = TargetingSpec.targeted(0, core, p_in=0.7, p_out=1e-4)
            obs, _ = simulate_behavioral(pm, [spec], seed=behav_ss)
            yield obs.behavioral[0], pm


def search_digests() -> dict[str, str]:
    hashes = {key: hashlib.sha256() for key in DIGESTS}
    for active, pm in completeness_families():
        fam = AdFamily.from_placement(active, pm)
        for method, search in METHODS.items():
            trace = SearchTrace()
            found = search(fam, CFG, trace=trace)
            verdict = predict_core_family(active, pm, CFG, method=method).to_dict()
            hashes[f"{method}.trace"].update(trace.to_jsonl().encode() + b"\n")
            hashes[f"{method}.family"].update(json.dumps(found.to_doc()).encode() + b"\n")
            hashes[f"{method}.verdict"].update(
                json.dumps(verdict, sort_keys=True).encode() + b"\n"
            )
    return {key: h.hexdigest() for key, h in hashes.items()}


def trial_digests(limits=TRIAL_LIMIT) -> dict[str, str]:
    hashes = {}
    for name, doc in TRIAL_SCENARIOS.items():
        base = ScenarioConfig.from_dict(doc)
        for t, ss in enumerate(np.random.SeedSequence(base.seed).spawn(base.trials)):
            sim = simulate_trial(base, ss)
            for method, limit in limits.items():
                if limit is not None and t >= limit:
                    continue
                h = hashes.setdefault(method, hashlib.sha256())
                for v_idx, opts in enumerate(TRIAL_OPTIONS):
                    cfg = ScenarioConfig.from_dict({
                        **doc, "algo_config": {"corefamily": {"method": method, **opts}},
                    })
                    preds = algorithm_verdicts(
                        "corefamily", cfg, sim.observations, sim.detection_placement
                    ).predictions()
                    for oid, pred in zip(sim.observations.output_ids, preds):
                        h.update(f"{name}/{t}/{v_idx}/{oid}".encode())
                        h.update(json.dumps(pred.to_dict(), sort_keys=True).encode() + b"\n")
    return {key: h.hexdigest() for key, h in hashes.items()}


def test_search_output_matches_recorded_digests():
    assert search_digests() == DIGESTS


def test_trial_predictions_match_recorded_digests():
    assert trial_digests() == TRIAL_DIGESTS


def test_agglomerative_predictions_on_every_trial_match_recorded_digest():
    assert trial_digests({"agglomerative": None}) == ALL_TRIALS_AGGLOMERATIVE_DIGEST


#: Kernel calls (lock-step rounds) and witness queries of the runner's
#: ``corefamily`` detector on the three trials of a scenario_mix-shaped
#: scenario at seed 13.  A search asks each distinct witness query once,
#: the root detection query included; the same trials asked 11, 11 and
#: 13 calls and 132, 132 and 142 queries when repeats were asked again,
#: and 7, 7 and 9 calls for 76, 80 and 87 queries when the removal
#: search's grow walk asked one query per round rather than a depth.
QUERY_COUNTS = [(3, 76), (5, 81), (6, 87)]


def test_trial_searches_ask_each_distinct_query_once(monkeypatch):
    counted = []

    def batch(stack, thresholds, l_max):
        counted.append(len(thresholds))
        return find_witness_batch(stack, thresholds, l_max)

    monkeypatch.setattr(core_family_search, "find_witness_batch", batch)
    cfg = ScenarioConfig.from_dict({**TRIAL_SCENARIOS["mix"], "trials": 3, "seed": 13})
    got = []
    for ss in np.random.SeedSequence(cfg.seed).spawn(cfg.trials):
        sim = simulate_trial(cfg, ss)
        counted.clear()
        algorithm_verdicts("corefamily", cfg, sim.observations, sim.detection_placement)
        got.append((len(counted), sum(counted)))
    assert got == QUERY_COUNTS


if __name__ == "__main__":
    print(json.dumps({
        **search_digests(), **trial_digests(),
        "all_trials": trial_digests({"agglomerative": None}),
    }, indent=4))
