"""Black-box service simulator.

Outputs (think: ads) are driven by per-output targeting specs.  The
behavioral channel decides, per shadow account, whether the account ever
sees the output; the contextual channel counts how often the output is
displayed next to each input in the user's own account.  Ground truth
is recorded in a trace the detection engine never sees.

A trial's specs travel as one immutable :class:`SpecTable`: a row per
output in ascending output id, with the output's stream index,
targeted and contextual-channel masks, its three hit probabilities and
the core members laid out as gathered input columns.  The simulators
take the table; a sequence of :class:`TargetingSpec` objects is turned
into one on entry (:meth:`SpecTable.from_specs`).  Family objects are
built from the table only when asked for (:attr:`SpecTable.cores`).

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


#: a spec as :meth:`SpecTable.from_rows` reads it: output id, core members
#: (sorted lists of sorted inputs) or None, p_in, p_out, p_empty, and
#: whether the spec drives the contextual channel
SpecRow = tuple[int, Sequence[Sequence[int]] | None, float, float, float, bool]


@dataclass(frozen=True, eq=False)
class SpecTable:
    """A trial's targeting specs as one immutable table, one row per
    output in ascending output id.

    ``stream[k]`` is the position of row k's spec in the sequence the
    table was built from: it draws from that child stream of a
    simulation's seed.  ``targeted`` and ``contextual`` are boolean
    masks of the rows with a core and, among them, the contextual-channel
    ones; ``p_in``, ``p_out`` and ``p_empty`` are each row's hit
    probabilities (0 where a :class:`TargetingSpec` of that kind leaves
    them unset).
    ``members[k]`` lists row k's core members as sorted input tuples, in
    sorted order, or is None for an untargeted row.  The same members
    are laid out for one gather: ``cols`` holds every member's inputs,
    core by core in row order, ``starts`` the first column of each
    member and ``first`` the first member of each core, one per targeted
    row.  ``width`` is one more than the largest input a core names (0
    without cores).
    """

    output_ids: tuple[int, ...]
    stream: tuple[int, ...]
    targeted: np.ndarray
    contextual: np.ndarray
    p_in: tuple[float, ...]
    p_out: tuple[float, ...]
    p_empty: tuple[float, ...]
    members: tuple[tuple[tuple[int, ...], ...] | None, ...]
    cols: np.ndarray
    starts: np.ndarray
    first: np.ndarray
    width: int

    def __post_init__(self):
        for array in (self.targeted, self.contextual, self.cols, self.starts, self.first):
            array.setflags(write=False)

    @classmethod
    def from_rows(cls, rows: Sequence[SpecRow]) -> "SpecTable":
        """The table of ``rows``, given in stream order.  Raises
        :class:`SpecError` when two rows share an output id; every other
        property of a valid :class:`TargetingSpec` (an antichain core of
        sorted members, probabilities in range) is the caller's to keep."""
        order = sorted(range(len(rows)), key=lambda j: rows[j][0])
        ids, cores, p_in, p_out, p_empty, ctx = list(zip(*(rows[j] for j in order))) or [()] * 6
        if len(set(ids)) < len(ids):
            raise SpecError("duplicate output_id in specs")
        members: list[tuple[tuple[int, ...], ...] | None] = []
        cols: list[int] = []
        starts: list[int] = []
        first: list[int] = []
        for core in cores:
            if core is None:
                members.append(None)
                continue
            members.append(tuple(map(tuple, core)))
            first.append(len(starts))
            for member in core:
                starts.append(len(cols))
                cols += member
        intp = functools.partial(np.array, dtype=np.intp)
        targeted = np.array([core is not None for core in cores], dtype=bool)
        return cls(
            output_ids=ids,
            stream=tuple(order),
            targeted=targeted,
            contextual=targeted & np.array(ctx, dtype=bool),
            p_in=p_in,
            p_out=p_out,
            p_empty=p_empty,
            members=tuple(members),
            cols=intp(cols),
            starts=intp(starts),
            first=intp(first),
            width=max(cols) + 1 if cols else 0,
        )

    @classmethod
    def from_specs(cls, specs: Sequence[TargetingSpec]) -> "SpecTable":
        """The table of ``specs``: spec k keeps the k-th stream.  Raises
        :class:`SpecError` when two specs share an output id."""
        return cls.from_rows([
            (
                s.output_id,
                None if s.core is None else [c.inputs for c in s.core],
                s.p_in, s.p_out, s.p_empty, s.channel == CONTEXTUAL,
            )
            for s in specs
        ])

    def __len__(self) -> int:
        return len(self.output_ids)

    @property
    def n_targeted(self) -> int:
        return len(self.first)

    @property
    def p_rest(self) -> list[float]:
        """Each row's hit probability outside its target: p_out for a
        targeted row, p_empty for an untargeted one."""
        return [p if ms is not None else e
                for p, e, ms in zip(self.p_out, self.p_empty, self.members)]

    @functools.cached_property
    def cores(self) -> tuple[Family | None, ...]:
        """Each row's core as a :class:`Family` (None when untargeted),
        built on first use."""
        return tuple(None if ms is None else Family(ms) for ms in self.members)

    def check_universe(self, n_inputs: int) -> None:
        """Raise :class:`SpecError` when a core names an input outside
        0..n_inputs-1."""
        if self.width <= n_inputs:
            return
        oid, member = next(
            (oid, member)
            for oid, ms in zip(self.output_ids, self.members)
            for member in ms or ()
            if max(member) >= n_inputs
        )
        raise SpecError(
            f"output {oid}: core member {Combination(member)!r} references "
            f"inputs outside 0..{n_inputs - 1}"
        )


def _table(specs: SpecTable | Sequence[TargetingSpec], n_inputs: int) -> SpecTable:
    """``specs`` as a table checked against a universe of ``n_inputs``."""
    table = specs if isinstance(specs, SpecTable) else SpecTable.from_specs(specs)
    table.check_universe(n_inputs)
    return table


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
    """Ground truth per output: the trial's spec table plus the split of
    active accounts into genuinely in-target vs noise.

    ``seen`` and ``in_target_mask`` are K x m matrices, rows in ascending
    output id (``output_ids``, the table's rows): an output's in-target
    accounts are its row of ``seen & in_target_mask``."""

    specs: SpecTable
    seen: np.ndarray
    in_target_mask: np.ndarray

    @property
    def output_ids(self) -> tuple[int, ...]:
        return self.specs.output_ids


@functools.lru_cache(maxsize=256)
def _effective(p: float, rounds: int) -> float:
    """Seen-at-least-once probability over independent rounds."""
    return -np.expm1(rounds * np.log1p(-p)) if p < 1.0 else 1.0


def _in_target(placement: PlacementMatrix, table: SpecTable) -> np.ndarray:
    """n_targeted x m boolean matrix: row j marks the accounts that hold
    some member of the j-th targeted row's core whole.  The members'
    input columns are gathered once; an AND over each member's columns
    and an OR over each core's members reduce them."""
    whole = np.logical_and.reduceat(placement.membership[:, table.cols], table.starts, axis=1)
    return np.logical_or.reduceat(whole, table.first, axis=1).T


def simulate_behavioral(
    placement: PlacementMatrix,
    specs: SpecTable | Sequence[TargetingSpec],
    rounds: int = 1,
    seed: int | np.random.SeedSequence | SpawnedSeed = 0,
) -> tuple[ObservationSet, SimulationTrace]:
    """Draw the seen/not-seen signal for every (output, account) pair.

    In-target accounts of a behavioral spec see it with probability
    1-(1-p_in)^rounds, the rest with 1-(1-p_out)^rounds; untargeted
    outputs hit every account at 1-(1-p_empty)^rounds.  A
    contextual-channel spec has no behavioral audience: it shows up in
    shadow accounts only at its out-of-context rate p_out.

    Row k of the table draws its uniforms from child stream
    ``stream[k]`` of ``seed`` (see :func:`~xcorr.placement.spawn_rngs`),
    so spec k of a spec sequence keeps the k-th stream; ``seed``'s spawn
    counter is not advanced.
    """
    if rounds < 1:
        raise SpecError(f"rounds must be >= 1, got {rounds}")
    table = _table(specs, placement.n_inputs)
    k, m = len(table), placement.n_accounts
    rngs = spawn_rngs(seed, k)
    draws = np.empty((k, m))
    for row, j in zip(draws, table.stream):
        rngs[j].random(out=row)
    in_mask = np.zeros((k, m), dtype=bool)
    if table.n_targeted:
        in_mask[table.targeted] = _in_target(placement, table)
        in_mask[table.contextual] = False
    p_hit = [_effective(p, rounds) for p in table.p_in]
    p_rest = [_effective(p, rounds) for p in table.p_rest]
    seen = draws < np.where(in_mask, np.array(p_hit)[:, None], np.array(p_rest)[:, None])
    obs = ObservationSet(
        output_ids=table.output_ids, seen=seen, rounds=rounds, n_accounts=m,
        n_inputs=placement.n_inputs,
    )
    return obs, SimulationTrace(specs=table, seen=obs.seen, in_target_mask=in_mask)


def simulate_contextual(
    user_inputs: Combination,
    specs: SpecTable | Sequence[TargetingSpec],
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
    untargeted spec fires at p_empty.  Row k draws from child stream
    ``stream[k]`` of ``seed``, whose spawn counter is not advanced, in
    ascending input order: one binomial call per maximal run of user
    inputs that share a probability, so a row costs a call per run, not
    per input.
    """
    if displays_per_input < 1:
        raise SpecError(f"displays_per_input must be >= 1, got {displays_per_input}")
    table = _table(specs, n_inputs)
    user = list(user_inputs.inputs)
    if user and user[-1] >= n_inputs:
        raise SpecError(f"user inputs {user_inputs!r} reach outside 0..{n_inputs - 1}")
    rngs = spawn_rngs(seed, len(table))
    where = {i: j for j, i in enumerate(user)}  # input -> position among the user's
    drawn = np.empty((len(table), len(user)), dtype=np.int64)
    for row, stream, members, ctx, p_in, p_rest in zip(
        drawn, table.stream, table.members, table.contextual.tolist(), table.p_in,
        table.p_rest,
    ):
        keyed: set[int] = set()
        if ctx:
            # contextual cores have order 1: {i} is a member iff input i fires it
            keyed = {where[i] for (i,) in members if i in where}
        # the positions where the probability changes: a run of keyed
        # positions starts at its first one and ends one past its last
        bounds = [0, *sorted(keyed ^ {j + 1 for j in keyed}), len(user)]
        for s, (a, b) in enumerate(zip(bounds, bounds[1:])):
            if a < b:  # odd segments are the runs of keyed positions
                p = p_in if s % 2 else p_rest
                row[a:b] = rngs[stream].binomial(displays_per_input, p, size=b - a)
    counts = np.zeros((len(table), n_inputs), dtype=np.int64)
    counts[:, user] = drawn
    return counts
