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
overlap experiment.  Both return a
:class:`~xcorr.simulator.SpecTable`, the form the simulators and the
scorer read; a random workload is drawn straight into its rows, with no
per-spec objects.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ..core_family_search import METHODS
from ..core_model import Family
from ..errors import ConfigError, Inadmissible
from ..placement import sized_account_count
from ..simulator import BEHAVIORAL, CONTEXTUAL, SpecRow, SpecTable, TargetingSpec
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


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


def _is_list(v, item) -> bool:
    """A non-empty list whose entries all pass ``item``."""
    return isinstance(v, (list, tuple)) and bool(v) and all(item(x) for x in v)


#: sizes and counts reach numpy as int64
_INT64_MAX = 2**63 - 1


def _size_at_least(lo: int):
    return (lambda v: _is_int(v) and lo <= v <= _INT64_MAX, f"an integer in {lo}..2**63 - 1")


# (check, what the error message says the value must be)
_INT = (_is_int, "an integer")
_OPT_INT = (lambda v: v is None or _is_int(v), "an integer or null")
_REAL = (_is_real, "a finite number")
_STR = (lambda v: isinstance(v, str), "a string")
_UNIT = (lambda v: _is_real(v) and 0 <= v <= 1, "a number in [0, 1]")
_MODEL_PARAMS = dict.fromkeys(("p_in", "p_out", "p_empty"), _REAL)
_BAYES_OPTIONS = {**_MODEL_PARAMS, "score_floor": _UNIT, "contextual": _MODEL_PARAMS}

#: what every config field accepts on its own (type, and bounds that need
#: no other field); a nested table checks a nested object, which may only
#: use the keys the table names
_FIELD_CHECKS: dict = {
    **dict.fromkeys(
        ("n_inputs", "rounds", "trials", "displays_per_input", "ads_per_group"),
        _size_at_least(1),
    ),
    **dict.fromkeys(("n_targeted", "n_untargeted"), _size_at_least(0)),
    "seed": (lambda v: _is_int(v) and v >= 0, "an integer >= 0"),
    "n_accounts": (
        lambda v: v is None or _is_int(v) and 2 <= v <= _INT64_MAX,
        "an integer in 2..2**63 - 1 or null",
    ),
    **dict.fromkeys(("p_in", "p_out", "p_empty"), _REAL),
    "account_constant": (lambda v: _is_real(v) and v > 0, "a finite number > 0"),
    "match_threshold": (lambda v: _is_real(v) and v >= 0, "a finite number >= 0"),
    "alpha": (
        lambda v: v == AUTO_ALPHA or _is_real(v) and 0 < v < 1,
        f"{AUTO_ALPHA!r} or a number in (0, 1)",
    ),
    **dict.fromkeys(
        ("collect_contextual", "matching", "learn"),
        (lambda v: isinstance(v, bool), "true or false"),
    ),
    **dict.fromkeys(
        ("l_values", "r_values"),
        (
            lambda v: _is_list(v, lambda x: _is_int(x) and x >= 1),
            "a non-empty list of integers >= 1",
        ),
    ),
    "overlap_groups": (
        lambda v: v is None
        or _is_list(v, lambda g: _is_list(g, lambda x: _is_int(x) and x >= 0)),
        "null or a non-empty list of non-empty lists of integers >= 0",
    ),
    "targeted_channel": (
        lambda v: v in (BEHAVIORAL, CONTEXTUAL), f"{BEHAVIORAL!r} or {CONTEXTUAL!r}"
    ),
    "name": _STR,
    "algorithms": (
        lambda v: _is_list(v, lambda a: a in ALGORITHMS),
        f"a non-empty list of algorithm names from {ALGORITHMS}",
    ),
    "algo_config": {
        "setint": {
            "min_active_accounts": _INT,
            "threshold": _REAL,
            "max_combination_size": _OPT_INT,
        },
        "bayes": _BAYES_OPTIONS,
        "composite": _BAYES_OPTIONS,
        "corefamily": {
            "method": (lambda v: v in METHODS, f"one of {METHODS}"),
            "x": _REAL, "l_max": _INT, "r_max": _OPT_INT,
            "test_budget": _OPT_INT, "min_members": _INT,
        },
    },
}


def _check_fields(doc: Mapping, table: Mapping, where: str = "") -> None:
    """Raise ConfigError naming the first key of ``doc`` that ``table``
    does not know or whose value its check rejects."""
    for key, value in doc.items():
        name = f"{where}{key}"
        kind = table.get(key)
        if kind is None:
            raise ConfigError(f"{name}: unknown key, know {sorted(table)}")
        if isinstance(kind, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{name}: must be an object, got {value!r}")
            _check_fields(value, kind, f"{name}.")
        elif not kind[0](value):
            raise ConfigError(f"{name}: must be {kind[1]}, got {value!r}")


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
        values = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        _check_fields(values, _FIELD_CHECKS)
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
        """Constraints that involve more than one field; each field on its
        own has passed ``_FIELD_CHECKS`` already."""
        if self.n_targeted + self.n_untargeted < 1:
            raise ConfigError("workload is empty: n_targeted + n_untargeted == 0")
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
                if any(i >= self.n_inputs for i in g):
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
        if self.matching and self.overlap_groups is None:
            raise ConfigError("matching: needs overlap_groups to build category ads")
        core = self.algo_config.get("corefamily", {})
        if core.get("method") == "agglomerative" and "r_max" in core and core["r_max"] is None:
            raise ConfigError("algo_config.corefamily.r_max: the agglomerative search needs "
                              "an integer r_max, got null")

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
        """The fields as a JSON document: tuples as lists and a deep copy
        of ``algo_config``, so changing the document leaves the config
        unchanged."""
        doc = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        for f in _TUPLE_FIELDS:
            doc[f] = list(doc[f])
        if doc["overlap_groups"] is not None:
            doc["overlap_groups"] = [list(g) for g in doc["overlap_groups"]]
        doc["algo_config"] = copy.deepcopy(doc["algo_config"])
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping) -> "ScenarioConfig":
        merged = dict(doc)
        preset = merged.pop("preset", None)
        if preset is not None:
            if not isinstance(preset, str) or preset not in PRESETS:
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


# ---------------------------------------------------------------- workload


def _pick(rng: np.random.Generator, values: tuple[int, ...]) -> int:
    """The draw ``rng.choice(values)`` makes, without its array set-up.
    A draw from a single value consumes no randomness in numpy's bounded
    integer sampler, so it is not made."""
    if len(values) == 1:
        return values[0]
    return values[int(rng.integers(0, len(values)))]


def _sample(rng: np.random.Generator, n: int, size: int) -> list[int]:
    """The draw ``rng.choice(n, size=size, replace=False)`` makes.  For
    one input that is a single bounded draw from [0, n), the draw
    ``rng.integers(0, n)`` makes, so it is made without choice's array
    set-up."""
    if size == 1:
        return [int(rng.integers(0, n))]
    return rng.choice(n, size=size, replace=False).tolist()


def build_specs(cfg: ScenarioConfig, rng: np.random.Generator) -> SpecTable:
    """Draw one trial's ad workload as a spec table, output ids 0.. in
    order (spec k keeps the k-th stream).

    Without overlap groups, each targeted output gets a fresh random core:
    size l and order r are drawn from the configured value sets, then l*r
    distinct inputs are drawn and chunked into l disjoint members (disjoint
    members are automatically an antichain).  With overlap groups, targeted
    outputs cycle round-robin through the groups and each core is the
    group's inputs as singleton members, i.e. the ad reacts to any one
    input of its group; the outputs of one group share its core.  Such a
    workload draws nothing from ``rng``, so its table is built once per
    distinct set of groups, output counts, hit probabilities and channel,
    and shared (the table is immutable).  Untargeted outputs follow.
    """
    if cfg.overlap_groups is not None:
        return _grouped_specs(
            cfg.overlap_groups, cfg.n_targeted, cfg.n_untargeted,
            cfg.p_in, cfg.p_out, cfg.p_empty, cfg.targeted_channel,
        )
    contextual = cfg.targeted_channel == CONTEXTUAL
    rows: list[SpecRow] = []
    for oid in range(cfg.n_targeted):
        l, r = _pick(rng, cfg.l_values), _pick(rng, cfg.r_values)
        ids = _sample(rng, cfg.n_inputs, l * r)
        core = sorted(sorted(ids[k * r : (k + 1) * r]) for k in range(l))
        rows.append((oid, core, cfg.p_in, cfg.p_out, 0.0, contextual))
    first, count = cfg.n_targeted, cfg.n_untargeted
    rows += [(oid, None, 0.0, 0.0, cfg.p_empty, False) for oid in range(first, first + count)]
    return SpecTable.from_rows(rows)


@functools.lru_cache(maxsize=64)
def _grouped_specs(
    groups: tuple[tuple[int, ...], ...],
    n_targeted: int,
    n_untargeted: int,
    p_in: float,
    p_out: float,
    p_empty: float,
    channel: str,
) -> SpecTable:
    cores = [Family([(i,) for i in g]) for g in groups]
    targeted = [
        TargetingSpec(oid, cores[oid % len(groups)], p_in, p_out, channel=channel)
        for oid in range(n_targeted)
    ]
    untargeted = [
        TargetingSpec(oid, p_empty=p_empty)
        for oid in range(n_targeted, n_targeted + n_untargeted)
    ]
    return SpecTable.from_specs(targeted + untargeted)


def matching_specs(cfg: ScenarioConfig) -> SpecTable:
    """Category ads for the input-matching phase, as a spec table.

    Each overlap group gets ``ads_per_group`` contextual ads keyed on any
    input of the group; their display counts give same-group inputs nearly
    parallel signatures.  IDs start at :data:`MATCH_AD_BASE` so they stay
    disjoint from the workload.  The ads depend only on the groups, the
    ad count and the hit probabilities, so their table is built and
    checked once per distinct set of those and shared (it is immutable).
    """
    if cfg.overlap_groups is None:
        raise ConfigError("matching_specs: config has no overlap_groups")
    return _matching_specs(cfg.overlap_groups, cfg.ads_per_group, cfg.p_in, cfg.p_out)


@functools.lru_cache(maxsize=64)
def _matching_specs(
    groups: tuple[tuple[int, ...], ...], ads_per_group: int, p_in: float, p_out: float
) -> SpecTable:
    specs: list[TargetingSpec] = []
    oid = MATCH_AD_BASE
    for g in groups:
        core = Family([(i,) for i in g])
        for _ in range(ads_per_group):
            specs.append(TargetingSpec.targeted(oid, core, p_in, p_out, channel=CONTEXTUAL))
            oid += 1
    return SpecTable.from_specs(specs)
