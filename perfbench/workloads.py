"""The benchmark's four audit workloads.

Each workload is a stream of *units* numbered 0, 1, 2, ...; unit j's
inputs are drawn from ``(seed, j)`` alone, so a run sees the same inputs
for the same seed however far it gets.  A unit is one op, except in
``knee_sweep``, where a unit is one ``scaling_sweep`` and its ops are the
simulated trials inside it.  Every op runs through ``Recorder.op``.

The traced run repeats the first ``block`` units.  For each unit a
workload gives:

* ``outcome(j, result)``: a small JSON value compared, for the default
  seed, with the value recorded in ``expected.json`` for the first
  ``recorded`` units;
* ``problems(j, result, n_ops)``: checks that hold for any seed;
* ``counts(results)``: exact work counts for the traced run.

``run_problems()`` then checks rates pooled over all units checked, at
the bounds of the acceptance gate the workload is drawn from.

Workloads call xcorr through module attributes at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from xcorr import core_family_search as cfs
from xcorr import placement, simulator
from xcorr.core_model import Family
from xcorr.experiment import config, runner, store, sweep

SHAPES = ((1, 1), (1, 2), (2, 1), (2, 2))


def unit_seed(seed: int, j: int) -> np.random.SeedSequence:
    """Unit j's seed: trial j of ``run_scenario`` with this seed."""
    return np.random.SeedSequence(seed, spawn_key=(j,))


def seed_int(ss: np.random.SeedSequence) -> int:
    return int(ss.generate_state(1, np.uint64)[0])


POOLED = ("true_targeted", "emitted", "correct", "unknown")


def _pooled(report) -> dict:
    return {a: [v["pooled"][k] for k in POOLED] for a, v in sorted(report.algorithms.items())}


def _pooled_problems(report, algorithms) -> list[str]:
    out = []
    if sorted(report.algorithms) != sorted(algorithms):
        out.append(f"algorithms run: {sorted(report.algorithms)}")
    for algo, v in report.algorithms.items():
        p = v["pooled"]
        if not (p["correct"] <= p["emitted"] and p["correct"] <= p["true_targeted"]
                and p["emitted"] + p["unknown"] <= p["n_outputs"]):
            out.append(f"{algo}: inconsistent pooled counts {[p[k] for k in POOLED]}")
    return out


class ScenarioMix:
    """The full audit pipeline: one op is a 3-trial ``run_scenario`` with
    all four algorithms, the contextual channel and parameter learning on.

    An op pools three trials because about one trial in ten pays for a
    full core-family search and costs half as much again: with one trial
    per op, the 90th percentile sat on that cliff and moved with the draw.
    """

    name = "scenario_mix"
    block = 8
    recorded = 24
    trials = 3

    def __init__(self, seed: int, rec, workdir: Path):
        self.seed = seed
        self.rec = rec
        self.cfg = config.ScenarioConfig.from_dict(
            {
                "preset": "gmail_like",
                "n_inputs": 32,
                "n_accounts": 60,
                "n_targeted": 8,
                "n_untargeted": 8,
                "l_values": [1, 2],
                "r_values": [1, 2],
                "algorithms": ["setint", "bayes", "composite", "corefamily"],
                "collect_contextual": True,
                "learn": True,
                "trials": self.trials,
                "seed": seed,
            }
        )

    def run(self, j: int):
        cfg = dataclasses.replace(self.cfg, seed=seed_int(unit_seed(self.seed, j)))
        return self.rec.op(runner.run_scenario, cfg)

    def outcome(self, j, report):
        return {
            "pooled": _pooled(report),
            "learned": [
                [row[k] for k in ("p_in", "p_out", "p_empty", "iterations", "converged")]
                for row in report.learned
            ],
        }

    def problems(self, j, report, n_ops):
        out = _pooled_problems(report, self.cfg.algorithms)
        for algo, v in report.algorithms.items():
            p = v["pooled"]
            if p["n_outputs"] != 16 * self.trials or p["true_targeted"] != 8 * self.trials:
                out.append(f"{algo}: scored {p['n_outputs']} outputs, {p['true_targeted']} targeted")
        if len(report.learned) != self.trials or not all(
            0.0 < row[k] < 1.0 for row in report.learned for k in ("p_in", "p_out", "p_empty")
        ):
            out.append(f"learned parameters missing or out of range: {report.learned}")
        return out

    def counts(self, reports):
        return {"bayes.learn_params.iterations": sum(
            row["iterations"] for report in reports for row in report.learned)}

    def run_problems(self):
        return []


class KneeSweep:
    """The account-budget question: one unit is a ``scaling_sweep`` with
    ``bayes`` over N = 2..51; one op is one simulated trial in it."""

    name = "knee_sweep"
    block = 1
    recorded = 3
    n_values = (2, 4, 8, 16, 32, 51)
    trials = 8

    def __init__(self, seed: int, rec, workdir: Path):
        self.seed = seed
        self.rec = rec
        self.cfg = config.ScenarioConfig.from_dict(
            {
                "preset": "gmail_like",
                "n_inputs": 51,
                "n_targeted": 6,
                "n_untargeted": 6,
                "algorithms": ["bayes"],
                "trials": self.trials,
                "seed": seed,
            }
        )

    def run(self, j: int):
        cfg = dataclasses.replace(self.cfg, seed=seed_int(unit_seed(self.seed, j)))
        inner = runner.run_trial

        def timed_trial(*args, **kwargs):
            return self.rec.op(inner, *args, **kwargs)

        runner.run_trial = timed_trial
        try:
            return sweep.scaling_sweep(cfg, self.n_values, algo="bayes", trials=self.trials)
        finally:
            runner.run_trial = inner

    def outcome(self, j, res):
        return {
            "knee_m": [r.knee_m for r in res.rows],
            "flags": sorted(set(res.flags).union(*(r.flags for r in res.rows))),
        }

    def problems(self, j, res, n_ops):
        out = []
        probes = sum(len(r.probes) for r in res.rows)
        if n_ops != probes * self.trials:
            out.append(f"{n_ops} trials ran for {probes} probes of {self.trials}")
        if [r.n_inputs for r in res.rows] != list(self.n_values):
            out.append(f"rows for N = {[r.n_inputs for r in res.rows]}")
        for r in res.rows:
            ms = [m for m, _ in r.probes]
            if r.knee_m is not None and not 2 <= r.knee_m <= max(ms):
                out.append(f"N={r.n_inputs}: knee {r.knee_m} outside the probed range")
        return out

    def counts(self, results):
        return {"experiment.sweep.probes": sum(len(r.probes) for res in results for r in res.rows)}

    def run_problems(self):
        return []


class CoreSearch:
    """The core-family search path on high-support families: one op runs
    detection and both searches on four low-noise families drawn in
    set-up, one of each core shape.

    An op covers all four shapes because their costs differ about
    fourfold: with one family per op, the median op fell in the gap
    between the cheap and the dear shapes and moved with the draw.
    """

    name = "core_search"
    block = 8
    recorded = 16
    n_inputs = 16
    n_accounts = 240
    pool = 64
    det = cfs.DetectionConfig(x=0.99, l_max=2, r_max=2)

    def __init__(self, seed: int, rec, workdir: Path):
        self.rec = rec
        self.tally = [0, 0, 0, 0]  # families, detected, agglomerative exact, removal exact
        self.units = [
            [self._draw(seed, len(SHAPES) * u + k) for k in range(len(SHAPES))]
            for u in range(self.pool)
        ]

    def _draw(self, seed: int, i: int):
        """Family i, drawn as in the completeness gate: shape cycles over
        (l, r) in {1,2}^2, p_in 0.7, p_out 1e-4, alpha 0.5."""
        l, r = SHAPES[i % len(SHAPES)]
        core_ss, place_ss, behav_ss = unit_seed(seed, i).spawn(3)
        ids = np.random.default_rng(core_ss).choice(self.n_inputs, size=l * r, replace=False)
        core = Family(ids[k * r : (k + 1) * r] for k in range(l))
        pm = placement.bernoulli_placement(
            placement.PlacementConfig(
                n_inputs=self.n_inputs, n_accounts=self.n_accounts,
                alpha=0.5, seed=seed_int(place_ss),
            )
        )
        spec = simulator.TargetingSpec.targeted(0, core, p_in=0.7, p_out=1e-4)
        obs, _ = simulator.simulate_behavioral(pm, [spec], seed=behav_ss)
        return l, r, core, pm, obs.behavioral[0]

    def run(self, j: int):
        return self.rec.op(self._search, self.units[j % self.pool])

    def _search(self, families):
        out = []
        for _, _, core, pm, active in families:
            fam = cfs.AdFamily.from_placement(active, pm)
            detected = cfs.detect_targeting(fam, self.det)
            agg = cfs.agglomerative_core_search(fam, self.det)
            trace = cfs.SearchTrace()
            rem = cfs.removal_core_search(fam, self.det, trace)
            out.append((detected, agg == core, rem == core, trace))
        return out

    def outcome(self, j, res):
        return [[detected, agg, rem, trace.tests_used] for detected, agg, rem, trace in res]

    def problems(self, j, res, n_ops):
        out = []
        for (l, r, *_), (detected, agg, rem, trace) in zip(self.units[j % self.pool], res):
            bound = l * r**l * self.n_inputs
            if trace.tests_used > bound:
                out.append(f"({l},{r}) removal used {trace.tests_used} tests, bound {bound}")
            for k, hit in enumerate((True, detected, agg, rem)):
                self.tally[k] += bool(hit)
        return out

    def run_problems(self):
        """Detection >= 95% and exact recovery >= 90% for both searches."""
        n, detected, agg, rem = self.tally
        if detected < 0.95 * n or agg < 0.90 * n or rem < 0.90 * n:
            return [f"of {n} families: {detected} detected, {agg} and {rem} recovered exactly"]
        return []

    def counts(self, results):
        traces = [t for res in results for *_, t in res]
        return {
            "core_family_search.tests_used": sum(t.tests_used for t in traces),
            "core_family_search.unknown_answers": sum(
                1 for t in traces for rec in t.records
                if rec["kind"] == "contains" and rec["outcome"] is None
            ),
        }


class MatchedStore:
    """Input matching, grouped placement and the store: one op runs a
    4-trial overlap scenario into a fresh store and reads it back."""

    name = "matched_store"
    block = 16
    recorded = 64
    trials = 4

    def __init__(self, seed: int, rec, workdir: Path):
        self.seed = seed
        self.rec = rec
        self.root = workdir / "store"
        self.n_stores = 0
        self.purity: list[float] = []
        groups = tuple(tuple(range(3 * g, 3 * g + 3)) for g in range(6))
        self.cfg = config.ScenarioConfig(
            n_inputs=18,
            n_targeted=6,
            n_untargeted=6,
            n_accounts=24,
            p_in=0.5,
            p_out=0.01,
            p_empty=0.1,
            alpha=0.5,
            trials=self.trials,
            seed=seed,
            algorithms=("bayes", "composite", "setint"),
            overlap_groups=groups,
            matching=True,
            collect_contextual=True,
        )

    def run(self, j: int):
        cfg = dataclasses.replace(self.cfg, seed=seed_int(unit_seed(self.seed, j)))
        # a fresh directory per op, so a repeated unit never appends to
        # the records of an earlier run of the same config
        self.n_stores += 1
        return self.rec.op(self._round_trip, cfg, self.root / str(self.n_stores))

    @staticmethod
    def _round_trip(cfg, root):
        db = store.CorrelationStore(root)
        report = runner.run_scenario(cfg, store=db)
        key = store.scenario_hash(cfg.to_dict())
        trials = db.read(key, "trials")
        pms = [placement.PlacementMatrix.from_json(json.dumps(t["placement"])) for t in trials]
        obs = [simulator.ObservationSet.from_json(json.dumps(t["observations"])) for t in trials]
        return report, trials, pms, obs, db.read(key, "predictions"), db.read(key, "reports")

    def outcome(self, j, res):
        report = res[0]
        matching = report.matching
        return {
            "pooled": _pooled(report),
            "matching": [matching["mean_purity"], matching["mean_clusters"]],
        }

    def problems(self, j, res, n_ops):
        report, trials, pms, obs, predictions, reports = res
        out = _pooled_problems(report, self.cfg.algorithms)
        if len(trials) != self.trials or len(predictions) != self.trials * len(self.cfg.algorithms):
            out.append(f"store holds {len(trials)} trials, {len(predictions)} prediction sets")
        for t, pm, ob in zip(trials, pms, obs):
            if json.loads(pm.to_json()) != t["placement"]:
                out.append(f"trial {t['trial']}: placement changed in a JSON round trip")
            if json.loads(ob.to_json()) != t["observations"]:
                out.append(f"trial {t['trial']}: observations changed in a JSON round trip")
        if reports != [json.loads(json.dumps(report.to_dict(include_timing=False)))]:
            out.append("stored report differs from report.to_dict(include_timing=False)")
        self.purity.append(report.matching["mean_purity"])
        return out

    def run_problems(self):
        """Matching puts at least 17 of 18 inputs in their group, on average."""
        mean = sum(self.purity) / max(len(self.purity), 1)
        return [] if mean >= 17 / 18 else [f"mean cluster purity {mean:.4f} < 17/18"]

    def counts(self, results):
        return {}


WORKLOADS = {w.name: w for w in (ScenarioMix, KneeSweep, CoreSearch, MatchedStore)}


def witness_work(calls) -> dict:
    """Candidates a ``find_witness`` call tried and the bitset bytes it
    read, from (n_rows, n_words, l_max, witness) per call.

    Candidates are tried size first, lexicographic within a size, so the
    count for a hit is the witness's 1-based rank in that order and for a
    miss all combinations of size at most l_max.  Bytes are computed as
    candidates x size x words x 8, not measured.
    """
    candidates = bytes_read = hits = 0
    for n, words, l_max, witness in calls:
        top = min(l_max, n) if witness is None else len(witness)
        for s in range(1, top + 1):
            k = math.comb(n, s) if witness is None or s < top else _lex_rank(n, witness) + 1
            candidates += k
            bytes_read += k * s * words * 8
        hits += witness is not None
    return {"candidates": candidates, "bytes": bytes_read, "hits": hits, "searches": len(calls)}


def _lex_rank(n: int, combo) -> int:
    """0-based rank of a sorted combination among same-size ones of range(n)."""
    s = len(combo)
    rank = prev = 0
    for pos, c in enumerate(combo):
        for v in range(prev, c):
            rank += math.comb(n - 1 - v, s - 1 - pos)
        prev = c + 1
    return rank
