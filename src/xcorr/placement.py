"""Random placement of inputs into shadow accounts.

Each of the N user inputs is dropped into each of m auxiliary accounts
independently with probability alpha, so the accounts form a Bernoulli
family — the null model every detection statistic is judged against.
Grouped placement collapses clusters of inputs to a single coin flip per
account, which is what the signature-matching stage feeds.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core_model import Combination
from .errors import ConfigError, DomainError, OverlapError, parse_artifact, require_count

#: Identifier recorded in report metadata so a report names the exact RNG
#: construction used for its placements and simulations.
RNG_ALGORITHM = "numpy-pcg64/seedsequence-spawn"


def make_rng(seed: int | np.random.SeedSequence) -> np.random.Generator:
    """The package-wide RNG construction (PCG64 over a SeedSequence)."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(int(seed))
    return np.random.Generator(np.random.PCG64(seed))


@dataclass(frozen=True)
class PlacementConfig:
    n_inputs: int
    n_accounts: int
    alpha: float
    seed: int = 0

    def __post_init__(self):
        if self.n_inputs < 1:
            raise DomainError(f"n_inputs must be >= 1, got {self.n_inputs}")
        if self.n_accounts < 1:
            raise DomainError(f"n_accounts must be >= 1, got {self.n_accounts}")
        if not 0.0 < self.alpha < 1.0:
            raise DomainError(f"alpha must lie in (0,1), got {self.alpha}")


def sized_account_count(n_inputs: int, c: float) -> int:
    """Logarithmic account budget: m = max(2, ceil(c * ln N)).

    The constant c is supplied by the caller (typically fitted from a
    pilot sweep); the floor of 2 keeps every downstream fraction
    well-defined.
    """
    if n_inputs < 2:
        raise DomainError(f"need at least 2 inputs to size accounts, got {n_inputs}")
    if c <= 0:
        raise DomainError(f"c must be positive, got {c}")
    return max(2, math.ceil(c * math.log(n_inputs)))


class PlacementMatrix:
    """Immutable m x N boolean membership matrix with both index views.

    Row j is account j's input set; column i is input i's account set
    (A_i).  The views are derived from the matrix on demand, so they are
    consistent by construction.
    """

    def __init__(
        self,
        membership: np.ndarray | Sequence[Sequence[bool]],
        alpha: float | None = None,
        seed: int | None = None,
    ):
        mem = np.ascontiguousarray(membership, dtype=bool)
        if mem.ndim != 2:
            raise DomainError(f"membership must be 2-D, got shape {mem.shape}")
        mem.setflags(write=False)
        self.membership = mem
        self.alpha = alpha
        self.seed = seed

    @property
    def n_accounts(self) -> int:
        return self.membership.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.membership.shape[1]

    def account_inputs(self, account_id: int) -> Combination:
        """The input set of one account, as a Combination."""
        return Combination(int(i) for i in np.nonzero(self.membership[account_id])[0])

    def input_accounts(self, input_id: int) -> frozenset[int]:
        """A_i: the accounts holding input i."""
        return frozenset(int(j) for j in np.nonzero(self.membership[:, input_id])[0])

    def __eq__(self, other) -> bool:
        return isinstance(other, PlacementMatrix) and bool(
            np.array_equal(self.membership, other.membership)
        )

    def __hash__(self) -> int:
        return hash(self.membership.tobytes())

    def to_doc(self) -> dict:
        """JSON document: sizes, provenance and one 0/1 string per account."""
        n = self.n_inputs
        cells = (self.membership.astype(np.uint8) + ord("0")).tobytes().decode("ascii")
        return {
            "m": self.n_accounts,
            "n": n,
            "alpha": self.alpha,
            "seed": self.seed,
            "rows": [cells[j * n : (j + 1) * n] for j in range(self.n_accounts)],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_doc())

    @classmethod
    def from_json(cls, text: str) -> "PlacementMatrix":
        """Inverse of :meth:`to_json`.  Raises :class:`ConfigError` unless
        the text holds ``m`` rows of ``n`` characters, each 0 or 1."""
        what = "placement"
        doc = parse_artifact(text, what, ("m", "n", "rows"))
        m, n = require_count(doc, "m", what), require_count(doc, "n", what)
        rows = doc["rows"]
        if not isinstance(rows, list) or len(rows) != m:
            raise ConfigError(f"{what}: expected a list of m={m} rows")
        if not all(isinstance(row, str) and len(row) == n for row in rows):
            raise ConfigError(f"{what}: every row must be a string of n={n} characters")
        # one byte per character: anything outside ASCII becomes "?"
        cells = np.frombuffer("".join(rows).encode("ascii", "replace"), dtype=np.uint8)
        mem = cells == ord("1")
        if not np.all(mem | (cells == ord("0"))):
            raise ConfigError(f"{what}: rows may hold only the characters 0 and 1")
        return cls(mem.reshape(m, n), alpha=doc.get("alpha"), seed=doc.get("seed"))


def active_matrix(
    active_accounts: Sequence[Iterable[int]],
    n_accounts: int,
    error: type[Exception] = DomainError,
) -> np.ndarray:
    """K x m boolean matrix whose row k marks the accounts in
    ``active_accounts[k]``; raises ``error`` for an account outside
    0..n_accounts-1."""
    sets = [list(a) for a in active_accounts]
    lengths = [len(a) for a in sets]
    cols = np.fromiter(itertools.chain.from_iterable(sets), np.int64, sum(lengths))
    if cols.size and (cols.min() < 0 or cols.max() >= n_accounts):
        raise error(f"active accounts outside 0..{n_accounts - 1}")
    active = np.zeros((len(sets), n_accounts), dtype=bool)
    active[np.repeat(np.arange(len(sets)), lengths), cols] = True
    return active


def bernoulli_placement(cfg: PlacementConfig) -> PlacementMatrix:
    rng = make_rng(cfg.seed)
    mem = rng.random((cfg.n_accounts, cfg.n_inputs)) < cfg.alpha
    return PlacementMatrix(mem, alpha=cfg.alpha, seed=cfg.seed)


def grouped_placement(
    groups: Iterable[Iterable[int]], cfg: PlacementConfig
) -> PlacementMatrix:
    """One Bernoulli draw per (account, group); group members share columns.

    ``groups`` must be disjoint subsets of 0..N-1; inputs not mentioned
    become singleton groups.  Groups are ordered by their smallest member,
    which makes ``groups=[]`` reproduce ``bernoulli_placement`` exactly
    for the same seed, not just in distribution.
    """
    explicit: list[tuple[int, ...]] = []
    seen: set[int] = set()
    for g in groups:
        ids = tuple(sorted({int(i) for i in g}))
        if not ids:
            continue
        if any(i < 0 or i >= cfg.n_inputs for i in ids):
            raise DomainError(f"group {ids} references inputs outside 0..{cfg.n_inputs - 1}")
        overlap = seen.intersection(ids)
        if overlap:
            raise OverlapError(f"inputs {sorted(overlap)} appear in more than one group")
        seen.update(ids)
        explicit.append(ids)
    all_groups = explicit + [(i,) for i in range(cfg.n_inputs) if i not in seen]
    all_groups.sort(key=lambda ids: ids[0])

    rng = make_rng(cfg.seed)
    draws = rng.random((cfg.n_accounts, len(all_groups))) < cfg.alpha
    mem = np.zeros((cfg.n_accounts, cfg.n_inputs), dtype=bool)
    for g_idx, ids in enumerate(all_groups):
        mem[:, list(ids)] = draws[:, [g_idx]]
    return PlacementMatrix(mem, alpha=cfg.alpha, seed=cfg.seed)
