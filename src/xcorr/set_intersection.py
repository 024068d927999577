"""Threshold-based recovery of a targeted input set, scored one trial at
a time.

The three published steps: gate on having enough active accounts, keep
the inputs present in more than a threshold fraction of them, then
demand that the same fraction of active accounts contain the whole kept
set at once.  All K outputs of a trial share one pass: a K x m
active-account matrix times the m x N placement gives the K x N matrix
of per-input fractions for steps 1 and 2, and step 3 checks the
co-occurrence of each kept row's set.  :func:`predict_set_intersection`
is the K = 1 case.  Non-probabilistic — the emitted score is 1 for
whatever verdict is chosen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core_model import Combination
from .errors import ConfigError
from .placement import PlacementMatrix, active_matrix
from .prediction import Prediction, Verdict

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


def predict_set_intersection_batch(
    active_accounts: Sequence[Iterable[int]],
    placement: PlacementMatrix,
    cfg: SetIntersectionConfig = SetIntersectionConfig(),
) -> list[Prediction]:
    """Run the three steps on K outputs' active-account sets.

    Below the activity gate the answer is UNKNOWN (not UNTARGETED):
    too little data is a different statement than evidence of no
    targeting, and the harness accounts for the two separately.
    """
    mem = placement.membership
    active = active_matrix(active_accounts, placement.n_accounts, ConfigError)
    n_active = active.sum(axis=1)
    # Steps 1 and 2: the activity gate, then the inputs present in more
    # than a threshold fraction (strict) of the active accounts
    gated = n_active >= cfg.min_active_accounts
    keep = np.zeros((len(active), placement.n_inputs), dtype=bool)
    if gated.any():
        counts = active[gated].astype(float) @ mem.astype(float)
        keep[gated] = counts / n_active[gated, None] > cfg.threshold
    return [
        _step3(mem[row], row_keep, cfg) if row_gated else Prediction(
            Verdict.UNKNOWN, scores={MODEL_NAME: 1.0}, flags=("below_min_active",)
        )
        for row, row_keep, row_gated in zip(active, keep, gated)
    ]


def _step3(
    accounts: np.ndarray, keep: np.ndarray, cfg: SetIntersectionConfig
) -> Prediction:
    """Verdict of one gated output from its step-2 inputs ``keep``;
    ``accounts`` are the placement rows of its active accounts."""
    targeted_ids = np.flatnonzero(keep)
    flags: tuple[str, ...] = ()
    if not targeted_ids.size:
        targeted = False
    elif (
        cfg.max_combination_size is not None
        and targeted_ids.size > cfg.max_combination_size
    ):
        targeted, flags = False, ("oversized_set_rejected",)
    else:
        # Step 3: the whole set must co-occur in a threshold fraction
        whole = accounts[:, targeted_ids].all(axis=1).mean()
        targeted = whole >= cfg.threshold
    if not targeted:
        return Prediction(Verdict.UNTARGETED, scores={MODEL_NAME: 1.0}, flags=flags)
    return Prediction(
        Verdict.TARGETED,
        target=Combination(targeted_ids.tolist()),
        scores={MODEL_NAME: 1.0},
    )


def predict_set_intersection(
    active_accounts: Iterable[int],
    placement: PlacementMatrix,
    cfg: SetIntersectionConfig = SetIntersectionConfig(),
) -> Prediction:
    """The three steps on one output: :func:`predict_set_intersection_batch`
    with K = 1."""
    return predict_set_intersection_batch([active_accounts], placement, cfg)[0]
