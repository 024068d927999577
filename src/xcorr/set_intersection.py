"""Threshold-based recovery of a targeted input set, scored one trial at
a time.

The three published steps: gate on having enough active accounts, keep
the inputs present in more than a threshold fraction of them, then
demand that the same fraction of active accounts contain the whole kept
set at once.  All K outputs of a trial share one pass: the K x m seen
matrix times the m x N placement gives the K x N matrix of per-input
fractions for steps 1 and 2, and for step 3 the placement times the
kept sets gives, per account, whether it holds each output's whole set.
:func:`set_intersection_verdicts` returns the verdicts as arrays;
:func:`predict_set_intersection` is its K = 1 case as a
:class:`Prediction`.  Non-probabilistic — the emitted score is 1 for
whatever verdict is chosen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError
from .placement import PlacementMatrix, active_matrix
from .prediction import TARGETED, UNKNOWN, UNTARGETED, Prediction, Verdicts

MODEL_NAME = "set_intersection"


@dataclass(frozen=True)
class SetIntersectionConfig:
    min_active_accounts: int = 3
    threshold: float = 0.9
    max_combination_size: int | None = None

    def __post_init__(self):
        if self.min_active_accounts < 1:
            raise ConfigError(
                f"min_active_accounts must be >= 1, got {self.min_active_accounts}"
            )
        if not 0.0 < self.threshold <= 1.0:
            raise ConfigError(f"threshold must lie in (0,1], got {self.threshold}")
        if self.max_combination_size is not None and self.max_combination_size < 1:
            raise ConfigError("max_combination_size must be >= 1 when set")


def set_intersection_verdicts(
    active_accounts: np.ndarray | Sequence[Iterable[int]],
    placement: PlacementMatrix,
    cfg: SetIntersectionConfig = SetIntersectionConfig(),
) -> Verdicts:
    """Run the three steps on K outputs' active accounts, given as the
    K x m seen matrix or as K account sets.

    Below the activity gate the answer is UNKNOWN (not UNTARGETED), flag
    ``below_min_active``: too little data is a different statement than
    evidence of no targeting, and the harness accounts for the two
    separately.  A kept set larger than ``max_combination_size`` is
    UNTARGETED with flag ``oversized_set_rejected``.
    """
    mem = placement.membership.astype(float)
    active = active_matrix(active_accounts, placement.n_accounts, ConfigError)
    n_active = active.sum(axis=1)
    # Steps 1 and 2: the activity gate, then the inputs present in more
    # than a threshold fraction (strict) of the active accounts
    gated = n_active >= cfg.min_active_accounts
    keep = np.zeros((len(active), placement.n_inputs), dtype=bool)
    if gated.any():
        counts = active[gated].astype(float) @ mem
        keep[gated] = counts / n_active[gated, None] > cfg.threshold
    n_keep = keep.sum(axis=1)
    limit = cfg.max_combination_size
    oversized = gated & (n_keep > limit) if limit is not None else np.zeros_like(gated)
    # Step 3: the whole kept set must co-occur in a threshold fraction
    checked = gated & (n_keep > 0) & ~oversized
    whole = np.zeros(len(active))
    if checked.any():
        holds = mem @ keep[checked].T.astype(float) == n_keep[checked]
        whole[checked] = (active[checked] & holds.T).sum(axis=1) / n_active[checked]
    targeted = checked & (whole >= cfg.threshold)
    codes = np.where(targeted, TARGETED, np.where(gated, UNTARGETED, UNKNOWN))
    return Verdicts(
        codes.astype(np.int8),
        keep & targeted[:, None],
        {MODEL_NAME: np.ones(len(active))},
        {"below_min_active": ~gated, "oversized_set_rejected": oversized},
    )


def predict_set_intersection(
    active_accounts: Iterable[int],
    placement: PlacementMatrix,
    cfg: SetIntersectionConfig = SetIntersectionConfig(),
) -> Prediction:
    """The three steps on one output: :func:`set_intersection_verdicts`
    with K = 1."""
    return set_intersection_verdicts([active_accounts], placement, cfg).predictions()[0]
