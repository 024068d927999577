"""Byte-for-byte pin of the scoring detectors, the learners and the
behavioral simulator.

Fixed scenarios are simulated trial by trial and scored the way the
runner scores them (``bayes``, ``composite`` with the contextual channel
on, with and without input-matching clusters, and ``setint`` under
several configs); random direct calls add explicit priors,
contextual-only and behavioral-only outputs.  Each prediction
contributes its ``to_dict()`` JSON plus, per posterior, the raw bytes of
its probability vector and the hex of its log normalizer.  Both learners
contribute their full ``LearnResult``.  The simulator streams hash every
observation set and trace split the scenarios draw.

The digests were recorded before the scorers were batched per trial and
the simulator was trimmed; any change to a posterior bit, a verdict, a
learned parameter or a simulated draw changes them.  Do not re-record
them to make a change pass.
"""

import hashlib
import json

import numpy as np

from oracles import in_target, input_accounts, out_of_target
from xcorr.bayes import (
    DEFAULT_INIT,
    ModelParams,
    bayes_predict,
    learn_contextual_params,
    learn_params,
)
from xcorr.core_model import Combination
from xcorr.experiment import ScenarioConfig
from xcorr.experiment.config import build_specs
from xcorr.experiment.runner import algorithm_verdicts, simulate_trial
from xcorr.placement import (
    PlacementConfig,
    PlacementMatrix,
    bernoulli_placement,
    make_rng,
)
from xcorr.set_intersection import SetIntersectionConfig, predict_set_intersection
from xcorr.simulator import (
    CONTEXTUAL,
    TargetingSpec,
    simulate_behavioral,
    simulate_contextual,
)

DIGESTS = {
    "bayes": "2de88f16a8d0f217086cb4e5b0a1c89ff5b2956604bb2d4524d18f144a52ea9e",
    "composite": "00c73706db92cc2af5249e8c217a47025a649df5d5ed9e6e0b9cb6089d1b233b",
    "setint": "0d05c8d178aa4ae00b5008a37fb04bd1a0c200f04be9da0df78cf5699a484aad",
    "direct": "2091eb0367028b6f1e79006f5c26a4f83eb99eced3d8db4fe16b8e3c6644c913",
    "learn": "085fd1cc564f99606f0e89e7d2d8d5e43970453e617909d9dfe52296359fb354",
    "simulator": "e3c5597c5b7e06658c202ad3a6b2a882a260c9d3f51b4daedfdf4f0ab512e610",
}

GROUPS = tuple((3 * g, 3 * g + 1, 3 * g + 2) for g in range(6))

SCENARIOS = {
    "mixed": dict(
        preset="gmail_like", n_inputs=32, n_accounts=60, l_values=[1, 2],
        r_values=[1, 2], collect_contextual=True,
    ),
    "matched": dict(
        n_inputs=18, n_targeted=6, n_untargeted=6, n_accounts=24,
        overlap_groups=GROUPS, matching=True, collect_contextual=True,
    ),
    "unmatched_groups": dict(
        n_inputs=18, n_targeted=6, n_untargeted=6, n_accounts=24,
        overlap_groups=GROUPS, collect_contextual=True,
    ),
    "contextual_channel": dict(
        n_inputs=12, n_accounts=30, targeted_channel="contextual",
        p_in=0.6, p_out=0.03, collect_contextual=True, displays_per_input=20,
    ),
    "tiny": dict(n_inputs=2, n_targeted=2, n_untargeted=2, n_accounts=3, p_in=0.9),
}

ALGO_CONFIGS = {
    "bayes": [{}, {"score_floor": 0.7, "p_in": 0.85}],
    "composite": [
        {},
        {"contextual": {"p_in": 0.58, "p_out": 0.04, "p_empty": 0.1}},
        {"score_floor": 0.9, "p_empty": 0.05},
    ],
    "setint": [
        {},
        {"min_active_accounts": 2, "threshold": 0.6, "max_combination_size": 2},
        {"min_active_accounts": 1, "threshold": 0.5},
    ],
}


def _posterior_bytes(pred) -> bytes:
    out = json.dumps(pred.to_dict(), sort_keys=True).encode()
    for name, post in sorted((pred.posteriors or {}).items()):
        out += name.encode() + post.probabilities.tobytes()
        out += float(post.log_normalizer).hex().encode()
    return out + b"\n"


def _learn_bytes(res) -> bytes:
    doc = {
        "params": [*res.params.as_tuple(), res.params.priors],
        "iterations": res.iterations,
        "converged": res.converged,
        "history": [list(h) for h in res.history],
    }
    return json.dumps(doc).encode() + b"\n"


def simulated_trials():
    """(scenario name, trial index, SimulatedTrial) for every fixed trial."""
    for s_idx, (name, doc) in enumerate(SCENARIOS.items()):
        cfg = ScenarioConfig.from_dict({**doc, "trials": 4, "seed": 500 + s_idx})
        for t, ss in enumerate(np.random.SeedSequence(cfg.seed).spawn(4)):
            yield name, t, cfg, simulate_trial(cfg, ss)


def direct_cases():
    """Random direct ``bayes_predict`` calls: priors, one channel or both."""
    rng = np.random.default_rng(4242)
    for case in range(60):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 25))
        pm = bernoulli_placement(
            PlacementConfig(n_inputs=n, n_accounts=m, alpha=0.5, seed=case)
        )
        p_out = float(rng.uniform(1e-3, 0.2))
        priors = None
        if case % 3 == 0:
            priors = tuple(float(w) for w in rng.uniform(0.1, 5.0, size=n + 1))
        params = ModelParams(
            p_in=float(rng.uniform(p_out + 0.05, 0.95)), p_out=p_out,
            p_empty=float(rng.uniform(0.01, 0.9)), priors=priors,
        )
        if case % 4 == 0:
            active = sorted(input_accounts(pm, int(rng.integers(0, n))))
        else:
            active = sorted(int(j) for j in np.nonzero(rng.random(m) < 0.4)[0])
        counts = rng.integers(0, 30, size=n)
        if case % 5 == 0:
            counts[int(rng.integers(0, n))] += 60
        ctx_params = None if case % 2 else ModelParams(0.58, 0.04, 0.1)
        floor = float(rng.choice([0.3, 0.5, 0.8]))
        yield dict(active_accounts=active, placement=pm, params=params, score_floor=floor)
        yield dict(contextual_counts=counts, params=params,
                   contextual_params=ctx_params, score_floor=floor)
        yield dict(active_accounts=active, contextual_counts=counts, placement=pm,
                   params=params, contextual_params=ctx_params, score_floor=floor)


def behavioral_draws():
    """Observation sets and traces of each scenario's workload drawn at
    one and three rounds over a fresh placement."""
    for s_idx, doc in enumerate(SCENARIOS.values()):
        cfg = ScenarioConfig.from_dict({**doc, "seed": 700 + s_idx})
        m = cfg.resolved_account_count()
        for rounds in (1, 3):
            w_ss, p_ss, b_ss = np.random.SeedSequence((cfg.seed, rounds)).spawn(3)
            specs = build_specs(cfg, make_rng(w_ss))
            pm = bernoulli_placement(PlacementConfig(
                n_inputs=cfg.n_inputs, n_accounts=m, alpha=0.5,
                seed=int(p_ss.generate_state(1, np.uint64)[0]),
            ))
            yield simulate_behavioral(pm, specs, rounds=rounds, seed=b_ss)


def contextual_workloads():
    rng = np.random.default_rng(71)
    for seed, (n, displays) in enumerate([(12, 80), (5, 10), (20, 40)]):
        specs = []
        for k in range(30):
            if k % 2 == 0:
                i = int(rng.integers(0, n))
                specs.append(TargetingSpec.targeted(
                    k, [(i,)], p_in=0.6, p_out=0.03, channel=CONTEXTUAL))
            else:
                specs.append(TargetingSpec.untargeted(k, p_empty=0.1))
        counts = simulate_contextual(
            Combination(range(n)), specs, displays_per_input=displays, seed=seed, n_inputs=n
        )
        yield counts, displays


def scoring_digests() -> dict[str, str]:
    hashes = {key: hashlib.sha256() for key in DIGESTS}
    learn_inits = (DEFAULT_INIT, ModelParams(0.5, 0.05, 0.3), ModelParams(0.9, 0.2, 0.5))
    for name, t, cfg, sim in simulated_trials():
        obs, pm = sim.observations, sim.detection_placement
        hashes["simulator"].update(f"{name}/{t}".encode() + obs.to_json().encode() + b"\n")
        for algo, variants in ALGO_CONFIGS.items():
            for v_idx, opts in enumerate(variants):
                run_cfg = ScenarioConfig.from_dict(
                    {**cfg.to_dict(), "algo_config": {algo: opts}}
                )
                preds = algorithm_verdicts(algo, run_cfg, obs, pm, sim.clusters).predictions()
                for oid, pred in zip(obs.output_ids, preds):
                    hashes[algo].update(f"{name}/{t}/{v_idx}/{oid}".encode())
                    hashes[algo].update(_posterior_bytes(pred))
        for init in learn_inits:
            res = learn_params(obs.seen, pm, init=init)
            hashes["learn"].update(f"{name}/{t}".encode() + _learn_bytes(res))
        res = learn_params(obs.seen, pm, tol=1e-9, max_iter=3)
        hashes["learn"].update(_learn_bytes(res))
    for kwargs in direct_cases():
        hashes["direct"].update(_posterior_bytes(bayes_predict(**kwargs)))
        if "active_accounts" in kwargs and "contextual_counts" not in kwargs:
            for cfg in (
                SetIntersectionConfig(min_active_accounts=1, threshold=0.5),
                SetIntersectionConfig(min_active_accounts=2, threshold=0.7,
                                      max_combination_size=1),
            ):
                pred = predict_set_intersection(
                    kwargs["active_accounts"], kwargs["placement"], cfg
                )
                hashes["setint"].update(_posterior_bytes(pred))
    for obs, trace in behavioral_draws():
        hashes["simulator"].update(obs.to_json().encode())
        inside, outside = in_target(trace), out_of_target(trace)
        for oid in trace.output_ids:
            split = [sorted(inside[oid]), sorted(outside[oid])]
            hashes["simulator"].update(json.dumps(split).encode())
        hashes["simulator"].update(b"\n")
    for counts, displays in contextual_workloads():
        for init in learn_inits:
            res = learn_contextual_params(counts, displays, init=init)
            hashes["learn"].update(_learn_bytes(res))
    empty = PlacementMatrix(np.zeros((4, 3), dtype=bool))
    no_seen, no_counts = np.zeros((0, 4), dtype=bool), np.zeros((0, 3), dtype=np.int64)
    hashes["learn"].update(_learn_bytes(learn_params(no_seen, empty)))
    hashes["learn"].update(_learn_bytes(learn_contextual_params(no_counts, 10)))
    return {key: h.hexdigest() for key, h in hashes.items()}


def test_scoring_output_matches_recorded_digests():
    assert scoring_digests() == DIGESTS


if __name__ == "__main__":
    print(json.dumps(scoring_digests(), indent=4))
