"""Scenario running: configs, simulation trials, scoring, sweeps, storage."""

from .config import (
    ALGORITHMS,
    AUTO_ALPHA,
    PRESETS,
    ScenarioConfig,
    build_specs,
    matching_specs,
)
from .runner import (
    Report,
    SimulatedTrial,
    TrialResult,
    algorithm_verdicts,
    match_inputs,
    run_scenario,
    run_trial,
    simulate_trial,
)
from .scoring import Metrics, Truth, precision_recall, project_family, wilson_interval
from .store import CorrelationStore, canonical_json, scenario_hash
from .sweep import KneeResult, SweepResult, detect_knee, scaling_sweep

__all__ = [
    "ALGORITHMS",
    "AUTO_ALPHA",
    "PRESETS",
    "ScenarioConfig",
    "build_specs",
    "matching_specs",
    "Report",
    "SimulatedTrial",
    "TrialResult",
    "algorithm_verdicts",
    "match_inputs",
    "run_scenario",
    "run_trial",
    "simulate_trial",
    "Metrics",
    "Truth",
    "precision_recall",
    "project_family",
    "wilson_interval",
    "CorrelationStore",
    "canonical_json",
    "scenario_hash",
    "KneeResult",
    "SweepResult",
    "detect_knee",
    "scaling_sweep",
]
