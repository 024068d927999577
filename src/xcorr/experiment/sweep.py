"""Account-budget sweeps: where does recall stop improving?

The *knee* for a universe of N inputs is the smallest account count m at
which pooled recall reaches :data:`KNEE_FRACTION` of its plateau, the
plateau being recall measured at a deliberately oversized budget
(:data:`PLATEAU_FACTOR` times the largest probed m).  Because recall is
monotone in m in expectation, the knee is found by integer binary search
over [2, m_hi] rather than a grid.

:func:`scaling_sweep` repeats knee detection across universe sizes and
fits knee(N) = a*ln(N) + b, reporting the fit quality; a good fit backs
the logarithmic account-sizing rule.  A universe whose recall never
stabilizes is flagged ``plateau_not_found`` on its row — the sweep keeps
going rather than dying mid-run.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from .config import ScenarioConfig
from .runner import run_scenario
from .store import canonical_json

#: The plateau is measured at this multiple of the search range's top.
PLATEAU_FACTOR = 4
#: The knee is where recall first reaches this fraction of the plateau.
KNEE_FRACTION = 0.95
#: A plateau below this recall has no knee to find.
MIN_PLATEAU = 0.5


def _derived_seed(seed: int, n_inputs: int, m: int) -> int:
    """Stable per-(N, m) seed so every probe is reproducible in isolation
    yet distinct from its neighbours."""
    return int(
        np.random.SeedSequence((seed, n_inputs, m)).generate_state(1, np.uint64)[0]
    )


def _probe_config(
    cfg: ScenarioConfig, algo: str, m: int, trials: int
) -> ScenarioConfig:
    return dataclasses.replace(
        cfg,
        n_accounts=m,
        trials=trials,
        seed=_derived_seed(cfg.seed, cfg.n_inputs, m),
        algorithms=(algo,),
        learn=False,
    )


@dataclass(frozen=True)
class KneeResult:
    """Knee of the recall-vs-budget curve for one universe size.

    ``knee_m`` is None when the plateau never materialized; ``probes``
    records every (m, recall) actually measured, in probe order.
    """

    n_inputs: int
    knee_m: int | None
    plateau_recall: float
    target_recall: float | None
    probes: tuple[tuple[int, float], ...]
    flags: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "n_inputs": self.n_inputs,
            "knee_m": self.knee_m,
            "plateau_recall": self.plateau_recall,
            "target_recall": self.target_recall,
            "probes": [list(p) for p in self.probes],
            "flags": list(self.flags),
        }


def detect_knee(
    cfg: ScenarioConfig,
    algo: str = "bayes",
    m_hi: int | None = None,
    trials: int | None = None,
) -> KneeResult:
    """Find the smallest account budget reaching :data:`KNEE_FRACTION` of
    plateau recall.

    ``m_hi`` bounds the initial search range (default: three times the
    logarithmic sizing rule); the plateau is measured at
    ``PLATEAU_FACTOR * m_hi``.  If even the plateau stays below
    :data:`MIN_PLATEAU`, there is no knee to find: the result carries the
    ``plateau_not_found`` flag.
    """
    n = cfg.n_inputs
    if m_hi is None:
        m_hi = max(16, math.ceil(3 * cfg.account_constant * math.log(max(n, 2))))
    if m_hi < 2:
        raise ConfigError(f"m_hi: must be >= 2, got {m_hi}")
    trials = cfg.trials if trials is None else trials

    cache: dict[int, float] = {}
    probes: list[tuple[int, float]] = []

    def recall_at(m: int) -> float:
        if m not in cache:
            rep = run_scenario(_probe_config(cfg, algo, m, trials))
            cache[m] = rep.algorithms[algo]["pooled"]["recall"]
            probes.append((m, cache[m]))
        return cache[m]

    plateau = recall_at(PLATEAU_FACTOR * m_hi)
    if plateau < MIN_PLATEAU:
        return KneeResult(
            n_inputs=n,
            knee_m=None,
            plateau_recall=plateau,
            target_recall=None,
            probes=tuple(probes),
            flags=("plateau_not_found",),
        )
    target = KNEE_FRACTION * plateau
    lo, hi = 2, m_hi
    if recall_at(m_hi) < target:
        # the knee sits beyond the nominal range; the plateau point itself
        # satisfies the target, so widen to it
        lo, hi = m_hi + 1, PLATEAU_FACTOR * m_hi
    while lo < hi:
        mid = (lo + hi) // 2
        if recall_at(mid) >= target:
            hi = mid
        else:
            lo = mid + 1
    return KneeResult(
        n_inputs=n,
        knee_m=lo,
        plateau_recall=plateau,
        target_recall=target,
        probes=tuple(probes),
    )


@dataclass(frozen=True)
class SweepResult:
    """Knees across universe sizes plus the log fit knee ~ a*ln(N) + b.

    ``slope``/``intercept``/``r_squared`` are None when the fit was
    skipped (fewer than two usable knees), flagged ``fit_skipped``.
    """

    rows: tuple[KneeResult, ...]
    algo: str
    slope: float | None
    intercept: float | None
    r_squared: float | None
    flags: tuple[str, ...] = ()

    def knee(self, n_inputs: int) -> int | None:
        for row in self.rows:
            if row.n_inputs == n_inputs:
                return row.knee_m
        raise KeyError(f"no row for n_inputs={n_inputs}")

    def to_dict(self) -> dict:
        return {
            "algo": self.algo,
            "rows": [r.to_dict() for r in self.rows],
            "slope": self.slope,
            "intercept": self.intercept,
            "r_squared": self.r_squared,
            "flags": list(self.flags),
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict())


def scaling_sweep(
    cfg: ScenarioConfig,
    n_values: list[int] | tuple[int, ...],
    algo: str = "bayes",
    m_hi: int | None = None,
    trials: int | None = None,
) -> SweepResult:
    """Detect the knee for each universe size and fit knee(N) to ln(N).

    ``n_values`` must be strictly ascending so the report reads as a
    growth curve.  Rows whose plateau never materialized are excluded
    from the fit but kept in the result.
    """
    ns = list(n_values)
    if not ns:
        raise ConfigError("n_values: must name at least one universe size")
    if ns != sorted(set(ns)):
        raise ConfigError(f"n_values: must be strictly ascending, got {ns}")
    rows = [
        detect_knee(dataclasses.replace(cfg, n_inputs=n), algo=algo, m_hi=m_hi, trials=trials)
        for n in ns
    ]

    flags: list[str] = []
    if any(r.flags for r in rows):
        flags.append("plateau_not_found")
    usable = [(r.n_inputs, r.knee_m) for r in rows if r.knee_m is not None]
    slope = intercept = r_squared = None
    if len(usable) < 2:
        flags.append("fit_skipped")
    else:
        x = np.log([n for n, _ in usable])
        y = np.array([k for _, k in usable], dtype=float)
        slope_f, intercept_f = np.polyfit(x, y, 1)
        pred = slope_f * x + intercept_f
        ss_res = float(np.sum((y - pred) ** 2))
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        if ss_tot == 0.0:
            # all knees identical: a flat fit is perfect up to rounding
            r_squared = 1.0 if ss_res < 1e-9 else 0.0
        else:
            r_squared = 1.0 - ss_res / ss_tot
        slope, intercept = float(slope_f), float(intercept_f)
    return SweepResult(
        rows=tuple(rows),
        algo=algo,
        slope=slope,
        intercept=intercept,
        r_squared=r_squared,
        flags=tuple(flags),
    )
