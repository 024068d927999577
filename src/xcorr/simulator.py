"""Black-box service simulator.

Outputs (think: ads) are driven by per-output targeting specs.  The
behavioral channel decides, per shadow account, whether the account ever
sees the output; the contextual channel counts how often the output is
displayed next to each input in the user's own account.  Ground truth
is recorded in a trace the detection engine never sees.

A simulation works on whole matrices: each spec keeps its own RNG
stream, all K of them derived in one vectorized step by
:func:`~xcorr.placement.spawn_rngs` (the streams of ``seed.spawn(K)``);
each stream fills its spec's row of one K x m uniform draw, and one
gather of the placement's core-member columns, reduced per member and
per core, gives every in-target mask.  A contextual row is drawn run by
run: one binomial call per maximal run of consecutive user inputs that
share a hit probability, which numpy fills element by element exactly as
one call over the row's probability vector would.  Both simulators
return rows in ascending output id: the K x m seen matrix and the K x N
display-count matrix.  Observations keep the two matrices; per-output
account sets are derived from the seen matrix when read.  The simulators do not
advance a passed SeedSequence's spawn counter, so hand each seed
sequence to one simulation only.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core_model import Combination, Family
from .errors import ConfigError, DomainError, SpecError, parse_artifact, require_count
from .placement import PlacementMatrix, SpawnedSeed, active_matrix, spawn_rngs

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


def _output_id(key: str, what: str) -> int:
    """An output id stored as a JSON key: canonical decimal form only, so
    no two keys name the same output."""
    try:
        oid = int(key)
    except ValueError:
        oid = None
    if oid is None or str(oid) != key:
        raise ConfigError(f"{what}: output id {key!r} is not a canonical decimal integer")
    return oid


@dataclass
class ObservationSet:
    """What the engine gets to see.

    ``seen`` is the K x m boolean matrix whose row k marks A_k, the
    accounts that saw output ``output_ids[k]`` at least once; rows are in
    ascending output id.  ``contextual`` is the K x N int64 matrix whose
    row k counts the displays of output ``output_ids[k]`` next to each
    input, or None when the contextual channel was not collected; its
    counts are integers that ``from_json`` reads back (0..2**63 - 1).
    """

    output_ids: tuple[int, ...] = ()
    seen: np.ndarray | None = None
    contextual: np.ndarray | None = None
    rounds: int = 1
    n_accounts: int = 0
    n_inputs: int = 0
    displays_per_input: int = 0

    def __post_init__(self):
        if self.seen is None:
            self.seen = np.zeros((0, self.n_accounts), dtype=bool)
        if self.seen.shape != (len(self.output_ids), self.n_accounts):
            raise DomainError(
                f"seen matrix of shape {self.seen.shape} for {len(self.output_ids)} "
                f"outputs and {self.n_accounts} accounts"
            )
        self.seen.setflags(write=False)
        if self.contextual is not None:
            if self.contextual.shape != (len(self.output_ids), self.n_inputs):
                raise DomainError(
                    f"contextual matrix of shape {self.contextual.shape} for "
                    f"{len(self.output_ids)} outputs and {self.n_inputs} inputs"
                )
            if self.contextual.dtype.kind not in "iu" or self.contextual.size and not (
                0 <= self.contextual.min() and self.contextual.max() <= _INT64_MAX
            ):
                raise DomainError(
                    f"contextual counts must be integers in 0..2**63 - 1, got a "
                    f"{self.contextual.dtype} matrix"
                )
            self.contextual.setflags(write=False)

    @functools.cached_property
    def behavioral(self) -> dict[int, frozenset[int]]:
        """output_id -> A_k, read off ``seen``."""
        return {
            oid: frozenset(np.flatnonzero(row).tolist())
            for oid, row in zip(self.output_ids, self.seen)
        }

    def to_doc(self) -> dict:
        """JSON document of the observations, outputs in ascending id;
        ``contextual`` is ``{}`` when the channel was not collected."""
        counts = [] if self.contextual is None else self.contextual.tolist()
        return {
            "rounds": self.rounds,
            "n_accounts": self.n_accounts,
            "n_inputs": self.n_inputs,
            "displays_per_input": self.displays_per_input,
            "behavioral": {
                str(k): np.flatnonzero(row).tolist() for k, row in zip(self.output_ids, self.seen)
            },
            "contextual": {str(k): row for k, row in zip(self.output_ids, counts)},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_doc())

    @classmethod
    def from_json(
        cls, text: str, placement: PlacementMatrix | None = None
    ) -> "ObservationSet":
        """Inverse of :meth:`to_json`.  Raises :class:`ConfigError` on
        missing keys, counts outside 0..2**63 - 1, output ids not in
        canonical decimal form, accounts outside 0..n_accounts-1,
        contextual outputs other than none or exactly the behavioral
        ones, or contextual vectors that are not n_inputs non-negative
        JSON integers that fit in int64.  Given the ``placement`` the
        observations were drawn on, it also raises unless their
        n_accounts and n_inputs are its own, before any matrix is built.
        Without one it raises, before any matrix is built, when the K x
        n_accounts seen matrix is over the bound a placement draw has
        (K * n_accounts * 8 above the intp maximum); a size inside that
        bound but beyond the machine's memory still raises
        :class:`MemoryError`."""
        what = "observations"
        doc = parse_artifact(text, what, ("behavioral", "contextual", *_OBSERVATION_COUNTS))
        counts = {k: require_count(doc, k, what) for k in _OBSERVATION_COUNTS}
        m, n = counts["n_accounts"], counts["n_inputs"]
        if placement is not None and (m, n) != (placement.n_accounts, placement.n_inputs):
            raise ConfigError(
                f"{what} cover {m} accounts and {n} inputs but the placement has "
                f"{placement.n_accounts} and {placement.n_inputs}"
            )
        behavioral, contextual = doc["behavioral"], doc["contextual"]
        if not isinstance(behavioral, dict) or not isinstance(contextual, dict):
            raise ConfigError(f"{what}: behavioral and contextual must be JSON objects")
        beh = sorted((_output_id(k, what), v) for k, v in behavioral.items())
        if len(beh) * m * 8 > np.iinfo(np.intp).max:
            raise ConfigError(f"{what}: a {len(beh)} x {m} seen matrix is too large to allocate")
        ids = [oid for oid, _ in beh]
        ctx = {_output_id(k, what): v for k, v in contextual.items()}
        for oid, accounts in beh:
            if not isinstance(accounts, list) or not all(
                type(j) is int and 0 <= j < m for j in accounts
            ):
                raise ConfigError(f"{what}: output {oid} must list accounts in 0..{m - 1}")
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
        if ctx and sorted(ctx) != ids:
            raise ConfigError(
                f"{what}: contextual lists outputs {sorted(ctx)} but behavioral lists "
                f"{ids}; it must list none or exactly the behavioral outputs"
            )
        return cls(
            output_ids=tuple(ids),
            seen=active_matrix([accounts for _, accounts in beh], m, ConfigError),
            contextual=np.array([ctx[oid] for oid in ids], dtype=np.int64) if ctx else None,
            **counts,
        )


@dataclass
class SimulationTrace:
    """Ground truth per output: the specs themselves plus the split of
    active accounts into genuinely in-target vs noise.

    ``seen`` and ``in_target_mask`` are K x m matrices, rows in ascending
    output id (``output_ids``): an output's in-target accounts are its row
    of ``seen & in_target_mask``."""

    specs: dict[int, TargetingSpec]
    output_ids: tuple[int, ...]
    seen: np.ndarray
    in_target_mask: np.ndarray

    def true_family(self, output_id: int) -> Family | None:
        spec = self.specs[output_id]
        return spec.core if spec.is_targeted else None


@functools.lru_cache(maxsize=256)
def _effective(p: float, rounds: int) -> float:
    """Seen-at-least-once probability over independent rounds."""
    return -np.expm1(rounds * np.log1p(-p)) if p < 1.0 else 1.0


def _in_target(placement: PlacementMatrix, cores: Sequence[Family]) -> np.ndarray:
    """len(cores) x m boolean matrix: row k marks the accounts that hold
    some member of ``cores[k]`` whole.  The members' input columns are
    gathered once; an AND over each member's columns and an OR over each
    core's members reduce them.  Every core must have a member unless
    none has."""
    starts: list[int] = []  # first gathered column of each member
    cols: list[int] = []
    first: list[int] = []  # first member of each core
    for core in cores:
        first.append(len(starts))
        for member in core.combinations:
            starts.append(len(cols))
            cols += member.inputs
    if not cols:
        return np.zeros((len(cores), placement.n_accounts), dtype=bool)
    whole = np.logical_and.reduceat(placement.membership[:, cols], starts, axis=1)
    return np.logical_or.reduceat(whole, first, axis=1).T


def _check_specs(specs: Sequence[TargetingSpec], n_inputs: int) -> None:
    ids = [s.output_id for s in specs]
    if len(set(ids)) != len(ids):
        raise SpecError("duplicate output_id in specs")
    for spec in specs:
        if not spec.is_targeted:
            continue
        for member in spec.core.combinations:
            if any(i >= n_inputs for i in member.inputs):
                raise SpecError(
                    f"output {spec.output_id}: core member {member!r} references "
                    f"inputs outside 0..{n_inputs - 1}"
                )


def _ordered(
    specs: Sequence[TargetingSpec], seed: int | np.random.SeedSequence | SpawnedSeed
) -> tuple[list[TargetingSpec], list[np.random.Generator]]:
    """The specs in ascending output id, each with its own stream: spec k
    of ``specs`` keeps the k-th child stream of ``seed`` (see
    :func:`~xcorr.placement.spawn_rngs`)."""
    rngs = spawn_rngs(seed, len(specs))
    order = sorted(range(len(specs)), key=lambda j: specs[j].output_id)
    return [specs[j] for j in order], [rngs[j] for j in order]


def simulate_behavioral(
    placement: PlacementMatrix,
    specs: Sequence[TargetingSpec],
    rounds: int = 1,
    seed: int | np.random.SeedSequence | SpawnedSeed = 0,
) -> tuple[ObservationSet, SimulationTrace]:
    """Draw the seen/not-seen signal for every (output, account) pair.

    In-target accounts of a behavioral spec see it with probability
    1-(1-p_in)^rounds, the rest with 1-(1-p_out)^rounds; untargeted
    outputs hit every account at 1-(1-p_empty)^rounds.  A
    contextual-channel spec has no behavioral audience: it shows up in
    shadow accounts only at its out-of-context rate p_out.

    Spec k draws its row of uniforms from the k-th child stream of
    ``seed`` (see :func:`~xcorr.placement.spawn_rngs`); ``seed``'s spawn
    counter is not advanced.
    """
    if rounds < 1:
        raise SpecError(f"rounds must be >= 1, got {rounds}")
    _check_specs(specs, placement.n_inputs)
    k, m = len(specs), placement.n_accounts
    specs, rngs = _ordered(specs, seed)
    draws = np.empty((k, m))
    for row, rng in zip(draws, rngs):
        rng.random(out=row)
    aimed = [s.is_targeted and s.channel == BEHAVIORAL for s in specs]
    in_mask = np.zeros((k, m), dtype=bool)
    in_mask[np.array(aimed, dtype=bool)] = _in_target(
        placement, [s.core for s, a in zip(specs, aimed) if a]
    )
    p_hit = [_effective(s.p_in, rounds) if s.is_targeted else 0.0 for s in specs]
    p_rest = [_effective(s.p_out if s.is_targeted else s.p_empty, rounds) for s in specs]
    seen = draws < np.where(in_mask, np.array(p_hit)[:, None], np.array(p_rest)[:, None])
    obs = ObservationSet(
        output_ids=tuple(s.output_id for s in specs), seen=seen, rounds=rounds, n_accounts=m,
        n_inputs=placement.n_inputs,
    )
    trace = SimulationTrace(
        specs={s.output_id: s for s in specs},
        output_ids=obs.output_ids,
        seen=obs.seen,
        in_target_mask=in_mask,
    )
    return obs, trace


def simulate_contextual(
    user_inputs: Combination,
    specs: Sequence[TargetingSpec],
    displays_per_input: int,
    seed: int | np.random.SeedSequence | SpawnedSeed = 0,
    *,
    n_inputs: int,
) -> np.ndarray:
    """The K x N int64 display counts of the K specs next to each of the
    user's inputs, in a universe of N = ``n_inputs`` inputs; rows are in
    ascending output id, as in :func:`simulate_behavioral`.

    Each input gets ``displays_per_input`` display slots; in a slot next
    to input i, a contextual spec fires with p_in when {i} is one of its
    core members and p_out otherwise, a behavioral spec fires at p_out
    regardless (it does not react to the displayed input), and an
    untargeted spec fires at p_empty.  Spec k draws its row from the k-th
    child stream of ``seed``, whose spawn counter is not advanced, in
    ascending input order: one binomial call per maximal run of user
    inputs that share a probability, so a row costs a call per run, not
    per input.
    """
    if displays_per_input < 1:
        raise SpecError(f"displays_per_input must be >= 1, got {displays_per_input}")
    _check_specs(specs, n_inputs)
    user = list(user_inputs.inputs)
    if user and user[-1] >= n_inputs:
        raise SpecError(f"user inputs {user_inputs!r} reach outside 0..{n_inputs - 1}")
    specs, rngs = _ordered(specs, seed)
    where = {i: j for j, i in enumerate(user)}  # input -> position among the user's
    drawn = np.empty((len(specs), len(user)), dtype=np.int64)
    for row, spec, rng in zip(drawn, specs, rngs):
        keyed: set[int] = set()
        if spec.is_targeted and spec.channel == CONTEXTUAL:
            # contextual cores have order 1: {i} is a member iff input i fires it
            keys = (c.inputs[0] for c in spec.core.combinations)
            keyed = {where[i] for i in keys if i in where}
        # the positions where the probability changes: a run of keyed
        # positions starts at its first one and ends one past its last
        bounds = [0, *sorted(keyed ^ {j + 1 for j in keyed}), len(user)]
        p_rest = spec.p_out if spec.is_targeted else spec.p_empty
        for s, (a, b) in enumerate(zip(bounds, bounds[1:])):
            if a < b:  # odd segments are the runs of keyed positions
                p = spec.p_in if s % 2 else p_rest
                row[a:b] = rng.binomial(displays_per_input, p, size=b - a)
    counts = np.zeros((len(specs), n_inputs), dtype=np.int64)
    counts[:, user] = drawn
    return counts
