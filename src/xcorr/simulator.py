"""Black-box service simulator.

Outputs (think: ads) are driven by per-output targeting specs.  The
behavioral channel decides, per shadow account, whether the account ever
sees the output; the contextual channel counts how often the output is
displayed next to each input in the user's own account.  Ground truth
is recorded in a trace the detection engine never sees.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core_model import Combination, Family, eval_targeting
from .errors import ConfigError, SpecError, parse_artifact, require_count
from .placement import PlacementMatrix, make_rng

BEHAVIORAL = "behavioral"
CONTEXTUAL = "contextual"


@dataclass(frozen=True)
class TargetingSpec:
    """How one output selects its audience.

    Targeted specs carry a non-empty antichain core and the coverage
    pair p_in > p_out; untargeted specs carry only p_empty.  ``channel``
    says which mechanism the spec drives: behavioral specs key on
    account contents, contextual specs (whose core members must all be
    single inputs) key on the input currently displayed.  The two kinds
    are never mixed in one spec.  ``group_tag`` links outputs that serve
    the same input group in overlap scenarios.
    """

    output_id: int
    core: Family | None = None
    p_in: float = 0.0
    p_out: float = 0.0
    p_empty: float = 0.0
    group_tag: str | None = None
    channel: str = BEHAVIORAL

    def __post_init__(self):
        if self.channel not in (BEHAVIORAL, CONTEXTUAL):
            raise SpecError(f"unknown channel {self.channel!r}")
        if self.core is not None:
            if self.core.size == 0:
                raise SpecError("targeted spec needs a non-empty core")
            if not self.core.is_antichain():
                raise SpecError(f"core {self.core!r} is not an antichain")
            if not 0.0 <= self.p_out < self.p_in <= 1.0:
                raise SpecError(
                    f"need 0 <= p_out < p_in <= 1, got "
                    f"p_out={self.p_out}, p_in={self.p_in}"
                )
            if self.channel == CONTEXTUAL and self.core.order != 1:
                raise SpecError(
                    "contextual targeting keys on single displayed inputs; "
                    f"core {self.core!r} has order {self.core.order}"
                )
        else:
            if not 0.0 < self.p_empty <= 1.0:
                raise SpecError(f"need 0 < p_empty <= 1, got p_empty={self.p_empty}")

    @property
    def is_targeted(self) -> bool:
        return self.core is not None

    @classmethod
    def targeted(
        cls,
        output_id: int,
        core: Family | Iterable,
        p_in: float,
        p_out: float,
        group_tag: str | None = None,
        channel: str = BEHAVIORAL,
    ) -> "TargetingSpec":
        if not isinstance(core, Family):
            core = Family(core)
        return cls(
            output_id=output_id,
            core=core,
            p_in=p_in,
            p_out=p_out,
            group_tag=group_tag,
            channel=channel,
        )

    @classmethod
    def untargeted(
        cls, output_id: int, p_empty: float, group_tag: str | None = None
    ) -> "TargetingSpec":
        return cls(output_id=output_id, p_empty=p_empty, group_tag=group_tag)


_OBSERVATION_COUNTS = ("rounds", "n_accounts", "n_inputs", "displays_per_input")
_INT64_MAX = np.iinfo(np.int64).max


@dataclass
class ObservationSet:
    """What the engine gets to see.

    ``behavioral`` maps output_id to A_k (accounts that saw the output
    at least once); ``contextual`` maps output_id to the length-N vector
    of display counts next to each input.
    """

    behavioral: dict[int, frozenset[int]] = field(default_factory=dict)
    contextual: dict[int, np.ndarray] = field(default_factory=dict)
    rounds: int = 1
    n_accounts: int = 0
    n_inputs: int = 0
    displays_per_input: int = 0

    def to_doc(self) -> dict:
        """JSON document of the observations, outputs in ascending id."""
        return {
            "rounds": self.rounds,
            "n_accounts": self.n_accounts,
            "n_inputs": self.n_inputs,
            "displays_per_input": self.displays_per_input,
            "behavioral": {str(k): sorted(v) for k, v in sorted(self.behavioral.items())},
            "contextual": {
                str(k): [int(c) for c in v] for k, v in sorted(self.contextual.items())
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_doc())

    @classmethod
    def from_json(cls, text: str) -> "ObservationSet":
        """Inverse of :meth:`to_json`.  Raises :class:`ConfigError` on
        missing keys, output ids that are not integers, accounts outside
        0..n_accounts-1, or contextual vectors that are not n_inputs
        non-negative JSON integers that fit in int64."""
        what = "observations"
        doc = parse_artifact(text, what, ("behavioral", "contextual", *_OBSERVATION_COUNTS))
        counts = {k: require_count(doc, k, what) for k in _OBSERVATION_COUNTS}
        m, n = counts["n_accounts"], counts["n_inputs"]
        behavioral, contextual = doc["behavioral"], doc["contextual"]
        if not isinstance(behavioral, dict) or not isinstance(contextual, dict):
            raise ConfigError(f"{what}: behavioral and contextual must be JSON objects")
        try:
            beh = {int(k): frozenset(v) for k, v in behavioral.items()}
            ctx = {int(k): v for k, v in contextual.items()}
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{what}: malformed output entry: {exc}") from exc
        for oid, accounts in beh.items():
            if not all(type(j) is int and 0 <= j < m for j in accounts):
                raise ConfigError(f"{what}: output {oid} names accounts outside 0..{m - 1}")
        for oid, vec in ctx.items():
            if not isinstance(vec, list) or len(vec) != n:
                raise ConfigError(
                    f"{what}: output {oid} must list n_inputs={n} display counts"
                )
            if not all(type(c) is int and 0 <= c <= _INT64_MAX for c in vec):
                raise ConfigError(
                    f"{what}: output {oid} display counts must be non-negative "
                    f"integers, got {vec}"
                )
            ctx[oid] = np.array(vec, dtype=np.int64)
        return cls(behavioral=beh, contextual=ctx, **counts)

    def merge_contextual(self, counts: Mapping[int, np.ndarray], displays: int) -> None:
        self.contextual.update(counts)
        self.displays_per_input = displays


@dataclass
class SimulationTrace:
    """Ground truth per output: the specs themselves plus the split of
    active accounts into genuinely in-target vs noise."""

    specs: dict[int, TargetingSpec] = field(default_factory=dict)
    in_target: dict[int, frozenset[int]] = field(default_factory=dict)
    out_of_target: dict[int, frozenset[int]] = field(default_factory=dict)

    def true_family(self, output_id: int) -> Family | None:
        spec = self.specs[output_id]
        return spec.core if spec.is_targeted else None


@functools.lru_cache(maxsize=256)
def _effective(p: float, rounds: int) -> float:
    """Seen-at-least-once probability over independent rounds."""
    return -np.expm1(rounds * np.log1p(-p)) if p < 1.0 else 1.0


def in_target_mask(placement: PlacementMatrix, core: Family) -> np.ndarray:
    """Boolean vector over accounts: does the account trip the core?"""
    mem = placement.membership
    mask = np.zeros(placement.n_accounts, dtype=bool)
    for member in core.combinations:
        mask |= mem[:, list(member.inputs)].all(axis=1)
    return mask


def _check_spec_universe(spec: TargetingSpec, n_inputs: int) -> None:
    if spec.is_targeted:
        for member in spec.core.combinations:
            if any(i >= n_inputs for i in member.inputs):
                raise SpecError(
                    f"output {spec.output_id}: core member {member!r} references "
                    f"inputs outside 0..{n_inputs - 1}"
                )


def simulate_behavioral(
    placement: PlacementMatrix,
    specs: Sequence[TargetingSpec],
    rounds: int = 1,
    seed: int | np.random.SeedSequence = 0,
) -> tuple[ObservationSet, SimulationTrace]:
    """Draw the seen/not-seen signal for every (output, account) pair.

    In-target accounts of a behavioral spec see it with probability
    1-(1-p_in)^rounds, the rest with 1-(1-p_out)^rounds; untargeted
    outputs hit every account at 1-(1-p_empty)^rounds.  A
    contextual-channel spec has no behavioral audience: it shows up in
    shadow accounts only at its out-of-context rate p_out.
    """
    if rounds < 1:
        raise SpecError(f"rounds must be >= 1, got {rounds}")
    ids = [s.output_id for s in specs]
    if len(set(ids)) != len(ids):
        raise SpecError("duplicate output_id in specs")
    m = placement.n_accounts
    ss = (
        seed
        if isinstance(seed, np.random.SeedSequence)
        else np.random.SeedSequence(int(seed))
    )
    obs = ObservationSet(
        rounds=rounds, n_accounts=m, n_inputs=placement.n_inputs
    )
    trace = SimulationTrace()
    for spec, child in zip(specs, ss.spawn(len(specs))):
        _check_spec_universe(spec, placement.n_inputs)
        rng = make_rng(child)
        in_mask = np.zeros(m, dtype=bool)
        if spec.is_targeted and spec.channel == BEHAVIORAL:
            in_mask = in_target_mask(placement, spec.core)
            p = np.where(
                in_mask,
                _effective(spec.p_in, rounds),
                _effective(spec.p_out, rounds),
            )
        else:
            # no behavioral audience: every account sees it at one rate
            p = _effective(spec.p_out if spec.is_targeted else spec.p_empty, rounds)
        seen = rng.random(m) < p
        hit = seen & in_mask
        obs.behavioral[spec.output_id] = frozenset(seen.nonzero()[0].tolist())
        trace.specs[spec.output_id] = spec
        trace.in_target[spec.output_id] = frozenset(hit.nonzero()[0].tolist())
        trace.out_of_target[spec.output_id] = frozenset((seen ^ hit).nonzero()[0].tolist())
    return obs, trace


def simulate_contextual(
    user_inputs: Combination,
    specs: Sequence[TargetingSpec],
    displays_per_input: int,
    seed: int | np.random.SeedSequence = 0,
    n_inputs: int | None = None,
) -> dict[int, np.ndarray]:
    """Display counts next to each of the user's inputs.

    Each input gets ``displays_per_input`` display slots; in a slot next
    to input i, a contextual spec fires with p_in when {i} is one of its
    core members and p_out otherwise, a behavioral spec fires at p_out
    regardless (it does not react to the displayed input), and an
    untargeted spec fires at p_empty.
    """
    if displays_per_input < 1:
        raise SpecError(f"displays_per_input must be >= 1, got {displays_per_input}")
    if n_inputs is None:
        n_inputs = (max(user_inputs.inputs) + 1) if user_inputs.order else 0
    ids = [s.output_id for s in specs]
    if len(set(ids)) != len(ids):
        raise SpecError("duplicate output_id in specs")
    ss = (
        seed
        if isinstance(seed, np.random.SeedSequence)
        else np.random.SeedSequence(int(seed))
    )
    counts: dict[int, np.ndarray] = {}
    user = list(user_inputs.inputs)
    for spec, child in zip(specs, ss.spawn(len(specs))):
        _check_spec_universe(spec, n_inputs)
        rng = make_rng(child)
        x = np.zeros(n_inputs, dtype=np.int64)
        if user:
            if not spec.is_targeted:
                p = np.full(len(user), spec.p_empty)
            elif spec.channel == CONTEXTUAL:
                hits = np.array(
                    [eval_targeting(spec.core, Combination([i])) for i in user]
                )
                p = np.where(hits, spec.p_in, spec.p_out)
            else:
                p = np.full(len(user), spec.p_out)
            x[user] = rng.binomial(displays_per_input, p)
        counts[spec.output_id] = x
    return counts
