"""Scenario definitions for end-to-end audit experiments.

A :class:`ScenarioConfig` pins everything a run needs: the input universe,
the ad workload (how many targeted/untargeted outputs, what shapes their
cores take, which channel they use), the service behavior (hit
probabilities), the sizing rule for shadow accounts, which detection
algorithms to run, and the seed.  Configs round-trip through JSON, and
two equal configs hash to the same store key, so results stay tied to the
exact setup that produced them.

Workload generation lives here too: :func:`build_specs` draws the ad
specs for one trial from the config, and :func:`matching_specs` builds
the dedicated per-group category ads used to cluster inputs before an
overlap experiment.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ..core_model import Family
from ..errors import ConfigError, Inadmissible
from ..placement import sized_account_count
from ..simulator import BEHAVIORAL, CONTEXTUAL, TargetingSpec
from ..threshold_analysis import recommend_config

#: algorithms the runner knows how to dispatch
ALGORITHMS = ("setint", "bayes", "composite", "corefamily")

#: sentinel for "derive alpha from the workload shape and noise ratio"
AUTO_ALPHA = "auto"

#: output IDs for matching-phase category ads start here so they can never
#: collide with workload output IDs
MATCH_AD_BASE = 100_000

#: named service-behavior presets; keys override ScenarioConfig defaults
PRESETS: dict[str, dict] = {
    # web-mail style: ads keyed on message content, moderate in-target
    # hit rate, background noise around 1%
    "gmail_like": {
        "p_in": 0.5,
        "p_out": 0.01,
        "p_empty": 0.1,
        "alpha": 0.5,
        "account_constant": 4.0,
    },
    # storefront style: recommendations fire almost deterministically
    # once the item is in the account
    "amazon_like": {
        "p_in": 0.85,
        "p_out": 0.01,
        "p_empty": 0.1,
        "alpha": 0.5,
        "account_constant": 4.0,
    },
}

_TUPLE_FIELDS = ("l_values", "r_values", "algorithms")


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one experiment run depends on.

    ``alpha`` may be the string ``"auto"``, in which case the operating
    point comes from the threshold analysis for the largest core shape in
    the workload.  ``n_accounts`` overrides the logarithmic sizing rule
    ``m = ceil(c * ln N)`` when set.  ``algo_config`` holds per-algorithm
    keyword overrides, e.g. ``{"setint": {"threshold": 0.8}}``.
    """

    n_inputs: int
    n_targeted: int = 8
    n_untargeted: int = 8
    l_values: tuple[int, ...] = (1,)
    r_values: tuple[int, ...] = (1,)
    targeted_channel: str = BEHAVIORAL
    p_in: float = 0.5
    p_out: float = 0.01
    p_empty: float = 0.1
    alpha: float | str = 0.5
    account_constant: float = 4.0
    n_accounts: int | None = None
    rounds: int = 1
    trials: int = 100
    seed: int = 0
    algorithms: tuple[str, ...] = ("bayes",)
    algo_config: dict = field(default_factory=dict)
    collect_contextual: bool = False
    displays_per_input: int = 50
    overlap_groups: tuple[tuple[int, ...], ...] | None = None
    matching: bool = False
    match_threshold: float = 0.5
    ads_per_group: int = 4
    learn: bool = False
    name: str = "scenario"

    def __post_init__(self):
        for f in _TUPLE_FIELDS:
            object.__setattr__(self, f, tuple(getattr(self, f)))
        if self.overlap_groups is not None:
            object.__setattr__(
                self,
                "overlap_groups",
                tuple(tuple(sorted(int(i) for i in g)) for g in self.overlap_groups),
            )
        self._validate()

    def _validate(self) -> None:
        if self.n_inputs < 1:
            raise ConfigError(f"n_inputs: must be >= 1, got {self.n_inputs}")
        if self.n_targeted < 0 or self.n_untargeted < 0:
            raise ConfigError(
                "n_targeted/n_untargeted: must be >= 0, got "
                f"({self.n_targeted}, {self.n_untargeted})"
            )
        if self.n_targeted + self.n_untargeted < 1:
            raise ConfigError("workload is empty: n_targeted + n_untargeted == 0")
        for fname in ("l_values", "r_values"):
            vals = getattr(self, fname)
            if not vals or any(not isinstance(v, int) or v < 1 for v in vals):
                raise ConfigError(f"{fname}: need a non-empty tuple of ints >= 1, got {vals}")
        if self.targeted_channel not in (BEHAVIORAL, CONTEXTUAL):
            raise ConfigError(
                f"targeted_channel: must be {BEHAVIORAL!r} or {CONTEXTUAL!r}, "
                f"got {self.targeted_channel!r}"
            )
        if self.targeted_channel == CONTEXTUAL and set(self.r_values) != {1}:
            raise ConfigError(
                "targeted_channel: contextual cores key on single inputs, "
                f"so r_values must be (1,), got {self.r_values}"
            )
        if self.overlap_groups is None:
            widest = max(self.l_values) * max(self.r_values)
            if self.n_targeted and widest > self.n_inputs:
                raise ConfigError(
                    f"l_values/r_values: largest core needs {widest} distinct "
                    f"inputs but n_inputs is {self.n_inputs}"
                )
        else:
            seen: set[int] = set()
            for g in self.overlap_groups:
                if not g:
                    raise ConfigError("overlap_groups: empty group")
                if any(i < 0 or i >= self.n_inputs for i in g):
                    raise ConfigError(
                        f"overlap_groups: group {g} references inputs outside "
                        f"0..{self.n_inputs - 1}"
                    )
                if seen.intersection(g):
                    raise ConfigError(
                        f"overlap_groups: input(s) {sorted(seen.intersection(g))} "
                        "appear in more than one group"
                    )
                seen.update(g)
        if self.n_targeted and not 0.0 < self.p_out < self.p_in < 1.0:
            raise ConfigError(
                f"p_in/p_out: need 0 < p_out < p_in < 1, got ({self.p_out}, {self.p_in})"
            )
        if self.n_untargeted and not 0.0 < self.p_empty < 1.0:
            raise ConfigError(f"p_empty: must lie in (0,1), got {self.p_empty}")
        if self.alpha != AUTO_ALPHA:
            if not isinstance(self.alpha, (int, float)) or not 0.0 < self.alpha < 1.0:
                raise ConfigError(
                    f"alpha: must be {AUTO_ALPHA!r} or a float in (0,1), got {self.alpha!r}"
                )
        if self.account_constant <= 0:
            raise ConfigError(f"account_constant: must be > 0, got {self.account_constant}")
        if self.n_accounts is not None and self.n_accounts < 2:
            raise ConfigError(f"n_accounts: must be >= 2, got {self.n_accounts}")
        if self.rounds < 1:
            raise ConfigError(f"rounds: must be >= 1, got {self.rounds}")
        if self.trials < 1:
            raise ConfigError(f"trials: must be >= 1, got {self.trials}")
        if not self.algorithms:
            raise ConfigError("algorithms: must name at least one algorithm")
        for a in self.algorithms:
            if a not in ALGORITHMS:
                raise ConfigError(f"algorithms: unknown algorithm {a!r}, know {ALGORITHMS}")
        for a in self.algo_config:
            if a not in ALGORITHMS:
                raise ConfigError(f"algo_config.{a}: unknown algorithm, know {ALGORITHMS}")
        if self.displays_per_input < 1:
            raise ConfigError(
                f"displays_per_input: must be >= 1, got {self.displays_per_input}"
            )
        if self.matching and self.overlap_groups is None:
            raise ConfigError("matching: needs overlap_groups to build category ads")
        if self.match_threshold < 0:
            raise ConfigError(f"match_threshold: must be >= 0, got {self.match_threshold}")
        if self.ads_per_group < 1:
            raise ConfigError(f"ads_per_group: must be >= 1, got {self.ads_per_group}")

    # ------------------------------------------------------- derived values

    def resolved_alpha(self) -> float:
        """Concrete placement probability, running the threshold analysis
        for ``alpha == "auto"``."""
        if self.alpha != AUTO_ALPHA:
            return float(self.alpha)
        try:
            rec = recommend_config(
                max(self.l_values), max(self.r_values), self.p_out / self.p_in
            )
        except Inadmissible as exc:
            raise ConfigError(
                f"alpha: auto-derivation failed, noise ratio {self.p_out / self.p_in:.4g} "
                f"is inadmissible for shape ({max(self.l_values)}, {max(self.r_values)})"
            ) from exc
        return rec.alpha

    def resolved_account_count(self) -> int:
        """Shadow-account budget: the override if given, else c*ln(N)."""
        if self.n_accounts is not None:
            return self.n_accounts
        return sized_account_count(self.n_inputs, self.account_constant)

    def group_map(self) -> dict[int, int] | None:
        """input -> smallest member of its overlap group (None when the
        workload has no group structure)."""
        if self.overlap_groups is None:
            return None
        return {i: min(g) for g in self.overlap_groups for i in g}

    # -------------------------------------------------------- serialization

    def to_dict(self) -> dict:
        doc = dataclasses.asdict(self)
        for f in _TUPLE_FIELDS:
            doc[f] = list(doc[f])
        if doc["overlap_groups"] is not None:
            doc["overlap_groups"] = [list(g) for g in doc["overlap_groups"]]
        return doc

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, doc: Mapping) -> "ScenarioConfig":
        merged = dict(doc)
        preset = merged.pop("preset", None)
        if preset is not None:
            if preset not in PRESETS:
                raise ConfigError(
                    f"preset: unknown preset {preset!r}, know {sorted(PRESETS)}"
                )
            merged = {**PRESETS[preset], **merged}
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(merged) - known)
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
        if "n_inputs" not in merged:
            raise ConfigError("n_inputs: required")
        return cls(**merged)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"config must be a JSON object, got {type(doc).__name__}")
        return cls.from_dict(doc)


# ---------------------------------------------------------------- workload


def build_specs(cfg: ScenarioConfig, rng: np.random.Generator) -> list[TargetingSpec]:
    """Draw one trial's ad workload.

    Without overlap groups, each targeted output gets a fresh random core:
    size l and order r are drawn from the configured value sets, then l*r
    distinct inputs are drawn and chunked into l disjoint members (disjoint
    members are automatically an antichain).  With overlap groups, targeted
    outputs cycle round-robin through the groups and each core is the
    group's inputs as singleton members, i.e. the ad reacts to any one
    input of its group.  Untargeted outputs follow.
    """
    specs: list[TargetingSpec] = []
    oid = 0
    groups = cfg.overlap_groups
    for t in range(cfg.n_targeted):
        if groups is not None:
            g_idx = t % len(groups)
            core = Family([(i,) for i in groups[g_idx]])
            tag = f"group{g_idx}"
        else:
            # same draws as rng.choice(values), without its array set-up
            l = cfg.l_values[int(rng.integers(0, len(cfg.l_values)))]
            r = cfg.r_values[int(rng.integers(0, len(cfg.r_values)))]
            ids = rng.choice(cfg.n_inputs, size=l * r, replace=False)
            core = Family(
                sorted(int(i) for i in ids[k * r : (k + 1) * r]) for k in range(l)
            )
            tag = None
        specs.append(
            TargetingSpec.targeted(
                oid, core, cfg.p_in, cfg.p_out,
                group_tag=tag, channel=cfg.targeted_channel,
            )
        )
        oid += 1
    for _ in range(cfg.n_untargeted):
        specs.append(TargetingSpec.untargeted(oid, cfg.p_empty))
        oid += 1
    return specs


def matching_specs(cfg: ScenarioConfig) -> list[TargetingSpec]:
    """Category ads for the input-matching phase.

    Each overlap group gets ``ads_per_group`` contextual ads keyed on any
    input of the group; their display counts give same-group inputs nearly
    parallel signatures.  IDs start at :data:`MATCH_AD_BASE` so they stay
    disjoint from the workload.
    """
    if cfg.overlap_groups is None:
        raise ConfigError("matching_specs: config has no overlap_groups")
    specs: list[TargetingSpec] = []
    oid = MATCH_AD_BASE
    for g_idx, g in enumerate(cfg.overlap_groups):
        core = Family([(i,) for i in g])
        for _ in range(cfg.ads_per_group):
            specs.append(
                TargetingSpec.targeted(
                    oid, core, cfg.p_in, cfg.p_out,
                    group_tag=f"group{g_idx}", channel=CONTEXTUAL,
                )
            )
            oid += 1
    return specs
