"""Run configured scenarios end to end and report scored results.

One trial: draw the ad workload, optionally cluster inputs from category
ads (matching), build the shadow-account placement, simulate what the
auditor would observe, run every configured detection algorithm on the
same observations, and score each against ground truth.  A scenario is
``trials`` independent trials pooled into one report.

A trial is held column-wise from draw to score: the workload is one
:class:`~xcorr.simulator.SpecTable` that both simulators read and that
is the trial's ground truth; the observations keep the K x m seen
matrix and, when collected, the K x N display-count matrix; every
detector reads them and answers with verdict arrays, and scoring
compares those with the table, projected once
(:meth:`~xcorr.experiment.scoring.Truth.of`).  Family objects for the
true cores are built only where they are needed: for a stored record,
for scoring family targets, and for projecting cores through overlap
groups.  A stored record writes the verdicts with
:meth:`~xcorr.prediction.Verdicts.to_doc`.

Determinism: a scenario seeds one SeedSequence tree; each trial gets a
spawned child, and each stochastic stage (workload, matching, placement,
behavioral draw, contextual draw) gets its own grandchild; the
simulators give each output its own stream, one of the grandchild's
spawned children.  A trial's grandchildren, and each stage's per-output
streams, are derived in one vectorized step each that equals
``SeedSequence.spawn`` draw for draw (see
:func:`~xcorr.placement.spawn_seeds`), so ``RNG_ALGORITHM`` still names
the streams exactly.  Reports serialize to canonical JSON that is
byte-identical across reruns of the same (config, seed).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, replace

import numpy as np

from .. import __version__
from ..bayes import DEFAULT_INIT, ModelParams, bayes_verdicts, learn_params
from ..core_family_search import DetectionConfig, core_family_verdicts
from ..core_model import Combination, Family
from ..errors import ConfigError
from ..input_matching import build_signatures, cluster_inputs, cluster_purity
from ..placement import (
    RNG_ALGORITHM,
    PlacementConfig,
    PlacementMatrix,
    SpawnedSeed,
    bernoulli_placement,
    grouped_placement,
    make_rng,
    spawn_seeds,
)
from ..prediction import Verdicts
from ..set_intersection import SetIntersectionConfig, set_intersection_verdicts
from ..simulator import ObservationSet, SpecTable, simulate_behavioral, simulate_contextual
from .config import ScenarioConfig, build_specs, matching_specs
from .scoring import Metrics, Truth, precision_recall, rates, wilson_interval
from .store import CorrelationStore, canonical_json, scenario_hash


def _seed_int(ss: SpawnedSeed) -> int:
    """Collapse a spawned seed to a plain int for APIs that store their
    seed in JSON."""
    return int(ss.generate_state(1, np.uint64)[0])


def algorithm_verdicts(
    algo: str,
    cfg: ScenarioConfig,
    obs: ObservationSet,
    pm: PlacementMatrix,
    clusters: list[list[int]] | None = None,
) -> Verdicts:
    """Run one detection algorithm over every observed output, rows in
    ascending output id; every detector reads the seen matrix and
    scores all outputs in one call.

    ``pm`` is the placement the algorithm sees.  Under input matching it
    has one column per cluster, and ``clusters`` pools the contextual
    count columns the same way, summing each cluster's inputs; without
    it the counts are used as given."""
    opts = dict(cfg.algo_config.get(algo, {}))
    if algo == "setint":
        return set_intersection_verdicts(obs.seen, pm, SetIntersectionConfig(**opts))
    if algo in ("bayes", "composite"):
        floor = float(opts.pop("score_floor", 0.5))
        params = ModelParams(
            p_in=float(opts.pop("p_in", cfg.p_in)),
            p_out=float(opts.pop("p_out", cfg.p_out)),
            p_empty=float(opts.pop("p_empty", cfg.p_empty)),
        )
        ctx_opts = opts.pop("contextual", None)
        ctx_params = ModelParams(**ctx_opts) if ctx_opts else None
        counts = None
        if algo == "composite" and obs.contextual is not None:
            counts = obs.contextual
            if clusters is not None:
                pool = np.zeros((obs.n_inputs, len(clusters)), dtype=np.int64)
                for col, members in enumerate(clusters):
                    pool[members, col] = 1
                counts = counts @ pool
        return bayes_verdicts(
            active_accounts=obs.seen,
            contextual_counts=counts,
            placement=pm,
            params=params,
            contextual_params=ctx_params,
            score_floor=floor,
        )
    if algo == "corefamily":
        method = opts.pop("method", "removal")
        det = DetectionConfig(**{"x": 0.95, "l_max": 2, "r_max": 2, **opts})
        return core_family_verdicts(obs.seen, pm, cfg=det, method=method)
    raise ConfigError(f"unknown algorithm {algo!r}")


@dataclass
class SimulatedTrial:
    """One trial's observable world, before any detection runs.

    ``detection_placement`` is what the algorithms see: identical to
    ``placement`` normally, reduced to one representative column per
    cluster under matching.  ``reps`` maps reduced column index back to
    the original input ID.  ``specs`` is the workload's spec table, the
    ground truth the trial is scored against.
    """

    placement: PlacementMatrix
    detection_placement: PlacementMatrix
    reps: list[int] | None
    clusters: list[list[int]] | None
    purity: float | None
    observations: ObservationSet
    specs: SpecTable

    @property
    def truth(self) -> dict[int, Family | None]:
        """Output id -> true core (None: untargeted), ids ascending."""
        return dict(zip(self.specs.output_ids, self.specs.cores))

    def to_record(self, trial: int) -> dict:
        """The stored trial record: placement, observations and ground
        truth as JSON documents.  Truth is keyed by output ID in string
        order, so each part also serializes on its own to stable bytes."""
        truth = {
            str(oid): None if fam is None else fam.to_doc() for oid, fam in self.truth.items()
        }
        return {
            "trial": trial,
            "placement": self.placement.to_doc(),
            "observations": self.observations.to_doc(),
            "truth": dict(sorted(truth.items())),
        }


@dataclass
class TrialResult:
    """Everything one trial produced: the simulated world it was scored
    on, each algorithm's verdicts (in the original input universe) and
    metrics, and learned parameters when the scenario learns them."""

    sim: SimulatedTrial
    metrics: dict[str, Metrics]
    verdicts: dict[str, Verdicts]
    learned: dict | None = None


def match_inputs(
    cfg: ScenarioConfig, seed: int | SpawnedSeed, raw: bool = False
) -> tuple[list[list[int]], float]:
    """The matching stage: cluster the inputs from category-ad display
    counts.

    The overlap groups' category ads (:func:`matching_specs`) get
    ``displays_per_input`` display slots next to every input, drawn from
    ``seed``; inputs whose count signatures lie within
    ``match_threshold`` of each other form one cluster (``raw`` skips the
    signature normalization).  Returns the clusters and their purity
    against the overlap groups, which the config must set."""
    n = cfg.n_inputs
    counts = simulate_contextual(
        Combination(range(n)), matching_specs(cfg), cfg.displays_per_input,
        seed=seed, n_inputs=n,
    )
    clusters = cluster_inputs(
        build_signatures(counts), distance_threshold=cfg.match_threshold, raw=raw
    )
    return clusters, cluster_purity(clusters, [list(g) for g in cfg.overlap_groups])


def simulate_trial(
    cfg: ScenarioConfig, trial_seed: np.random.SeedSequence
) -> SimulatedTrial:
    """Draw one trial's workload, placement and observations.  Each stage
    draws from its own child of ``trial_seed`` (see
    :func:`~xcorr.placement.spawn_seeds`; the spawn counter of
    ``trial_seed`` is not advanced)."""
    w_ss, match_ss, p_ss, b_ss, c_ss = spawn_seeds(trial_seed, 5)
    specs = build_specs(cfg, make_rng(w_ss))
    n = cfg.n_inputs
    m = cfg.resolved_account_count()
    alpha = cfg.resolved_alpha()

    purity = None
    clusters = None
    reps: list[int] | None = None
    if cfg.matching:
        clusters, purity = match_inputs(cfg, match_ss)
        placement = grouped_placement(
            clusters,
            PlacementConfig(n_inputs=n, n_accounts=m, alpha=alpha, seed=_seed_int(p_ss)),
        )
        # grouped columns are identical within a cluster; detection sees one
        # representative column per cluster so hypotheses stay distinct
        reps = [c[0] for c in clusters]
        det_pm = PlacementMatrix(placement.membership[:, reps], alpha=alpha)
    else:
        placement = bernoulli_placement(
            PlacementConfig(n_inputs=n, n_accounts=m, alpha=alpha, seed=_seed_int(p_ss))
        )
        det_pm = placement

    obs, _ = simulate_behavioral(placement, specs, rounds=cfg.rounds, seed=b_ss)
    if cfg.collect_contextual:
        counts = simulate_contextual(
            Combination(range(n)), specs, cfg.displays_per_input, seed=c_ss, n_inputs=n
        )
        obs = replace(obs, contextual=counts, displays_per_input=cfg.displays_per_input)
    return SimulatedTrial(
        placement=placement,
        detection_placement=det_pm,
        reps=reps,
        clusters=clusters,
        purity=purity,
        observations=obs,
        specs=specs,
    )


def run_trial(cfg: ScenarioConfig, trial_seed: np.random.SeedSequence) -> TrialResult:
    """Simulate and score a single trial of the scenario."""
    sim = simulate_trial(cfg, trial_seed)
    obs, det_pm = sim.observations, sim.detection_placement
    truth = Truth.of(sim.specs, cfg.group_map(), n_inputs=cfg.n_inputs)
    metrics: dict[str, Metrics] = {}
    verdicts: dict[str, Verdicts] = {}
    for algo in cfg.algorithms:
        found = algorithm_verdicts(algo, cfg, obs, det_pm, sim.clusters)
        verdicts[algo] = found.translated(sim.reps, cfg.n_inputs)
        metrics[algo] = precision_recall(verdicts[algo], truth)

    learned = None
    if cfg.learn:
        res = learn_params(obs.seen, det_pm, init=DEFAULT_INIT)
        learned = {
            "p_in": res.params.p_in,
            "p_out": res.params.p_out,
            "p_empty": res.params.p_empty,
            "iterations": res.iterations,
            "converged": res.converged,
        }

    return TrialResult(sim=sim, metrics=metrics, verdicts=verdicts, learned=learned)


# ------------------------------------------------------------------ report


@dataclass
class Report:
    """Scored scenario run: config echo, environment pins, pooled and
    per-trial metrics.  ``timing_s`` is informational and excluded from
    the canonical serialization so reruns compare byte-for-byte."""

    config: dict
    version: str
    rng: str
    resolved: dict
    algorithms: dict[str, dict]
    matching: dict | None = None
    learned: list[dict] | None = None
    timing_s: float = 0.0

    def to_dict(self, include_timing: bool = True) -> dict:
        doc = {
            "config": self.config,
            "version": self.version,
            "rng": self.rng,
            "resolved": self.resolved,
            "algorithms": self.algorithms,
            "matching": self.matching,
            "learned": self.learned,
        }
        if include_timing:
            doc["timing_s"] = self.timing_s
        return doc

    def to_canonical_json(self) -> str:
        return canonical_json(self.to_dict(include_timing=False))

    def to_csv(self) -> str:
        """One row per (algorithm, metric); counts are pooled over trials."""
        n = self.resolved["n_inputs"]
        m = self.resolved["n_accounts"]
        lines = ["algo,n_inputs,n_accounts,metric,value"]
        for algo in sorted(self.algorithms):
            pooled = self.algorithms[algo]["pooled"]
            rows = [
                ("precision", f"{pooled['precision']:.6f}"),
                ("precision_lo", f"{pooled['precision_ci'][0]:.6f}"),
                ("precision_hi", f"{pooled['precision_ci'][1]:.6f}"),
                ("recall", f"{pooled['recall']:.6f}"),
                ("recall_lo", f"{pooled['recall_ci'][0]:.6f}"),
                ("recall_hi", f"{pooled['recall_ci'][1]:.6f}"),
                ("true_targeted", str(pooled["true_targeted"])),
                ("emitted", str(pooled["emitted"])),
                ("correct", str(pooled["correct"])),
                ("unknown", str(pooled["unknown"])),
            ]
            lines.extend(f"{algo},{n},{m},{metric},{value}" for metric, value in rows)
        return "\n".join(lines) + "\n"


def _pool(per_trial: list[Metrics]) -> dict:
    """Pool confusion counts across trials and recompute the rates (a
    pooled rate, not a mean of per-trial rates, so every output weighs
    the same)."""
    true_targeted = sum(m.true_targeted for m in per_trial)
    emitted = sum(m.emitted for m in per_trial)
    correct = sum(m.correct for m in per_trial)
    unknown = sum(m.unknown for m in per_trial)
    outputs = sum(m.n_outputs for m in per_trial)
    precision, recall, flags = rates(correct, emitted, true_targeted)
    return {
        "n_outputs": outputs,
        "true_targeted": true_targeted,
        "emitted": emitted,
        "correct": correct,
        "unknown": unknown,
        "precision": precision,
        "precision_ci": list(wilson_interval(correct, emitted)),
        "recall": recall,
        "recall_ci": list(wilson_interval(correct, true_targeted)),
        "flags": flags,
    }


def run_scenario(cfg: ScenarioConfig, store: CorrelationStore | None = None) -> Report:
    """Run all trials of a scenario and pool the results.

    With a store, every trial's placement, observations, ground truth and
    predictions are appended under the scenario's hash key as the trial
    finishes (its record in one append, all of its predictions in a
    second), followed by the report itself.
    """
    t0 = time.perf_counter()
    root = np.random.SeedSequence(cfg.seed)
    config = cfg.to_dict()
    key = scenario_hash(config) if store is not None else None

    per_trial: dict[str, list[Metrics]] = {a: [] for a in cfg.algorithms}
    purities: list[float] = []
    cluster_counts: list[int] = []
    learned_rows: list[dict] = []
    for t, ss in enumerate(root.spawn(cfg.trials)):
        res = run_trial(cfg, ss)
        for algo, met in res.metrics.items():
            per_trial[algo].append(met)
        if res.sim.clusters is not None:
            purities.append(res.sim.purity)
            cluster_counts.append(len(res.sim.clusters))
        if res.learned is not None:
            learned_rows.append(res.learned)
        if store is not None:
            store.append(key, "trials", res.sim.to_record(t))
            ids = res.sim.observations.output_ids
            store.append(key, "predictions", *(
                {"trial": t, "algo": algo, "predictions": res.verdicts[algo].to_doc(ids)}
                for algo in cfg.algorithms
            ))

    algorithms = {
        algo: {
            "pooled": _pool(rows),
            "per_trial": [m.to_dict() for m in rows],
        }
        for algo, rows in per_trial.items()
    }
    matching = None
    if purities:
        matching = {
            "mean_purity": statistics.fmean(purities),
            "mean_clusters": statistics.fmean(cluster_counts),
            "trials": len(purities),
        }
    report = Report(
        config=config,
        version=__version__,
        rng=RNG_ALGORITHM,
        resolved={
            "n_inputs": cfg.n_inputs,
            "n_accounts": cfg.resolved_account_count(),
            "alpha": cfg.resolved_alpha(),
        },
        algorithms=algorithms,
        matching=matching,
        learned=learned_rows or None,
        timing_s=time.perf_counter() - t0,
    )
    if store is not None:
        store.append(key, "reports", report.to_dict(include_timing=False))
    return report
