"""Random placement of inputs into shadow accounts.

Each of the N user inputs is dropped into each of m auxiliary accounts
independently with probability alpha, so the accounts form a Bernoulli
family — the null model every detection statistic is judged against.
Grouped placement collapses clusters of inputs to a single coin flip per
account, which is what the signature-matching stage feeds.

Every stochastic stage draws from PCG64 over a SeedSequence
(:data:`RNG_ALGORITHM`).  Where a seed sequence is spawned into k
children, :func:`spawn_seeds` derives all k in one vectorized step and
:func:`spawn_rngs` their generators; they equal ``seed.spawn(k)`` and
``[make_rng(c) for c in seed.spawn(k)]`` draw for draw, so
:data:`RNG_ALGORITHM` names them unchanged, but they leave ``seed``'s
spawn counter where it was.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ._kernels import pack_bitsets
from .errors import ConfigError, DomainError, OverlapError, parse_artifact, require_count

#: Identifier recorded in report metadata so a report names the exact RNG
#: construction used for its placements and simulations.
RNG_ALGORITHM = "numpy-pcg64/seedsequence-spawn"


def make_rng(seed: int | np.random.SeedSequence | SpawnedSeed) -> np.random.Generator:
    """The package-wide RNG construction (PCG64 over a SeedSequence)."""
    if not isinstance(seed, (np.random.SeedSequence, SpawnedSeed)):
        seed = np.random.SeedSequence(int(seed))
    return np.random.Generator(np.random.PCG64(seed))


# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_STATE_WORDS = 8  # PCG64 seeds from generate_state(4, uint64): 8 uint32 words


class SpawnedSeed:
    """One child of ``seed.spawn(k)`` as :func:`spawn_seeds` derives it:
    what the package reads of a SeedSequence (entropy, spawn key, pool,
    and the state words ``generate_state`` gives), without building one.
    ``PCG64(child)`` is PCG64 of the real child, and :func:`spawn_rngs`
    derives a child's own children from it.  It is registered as numpy's
    ``ISeedSequence`` when the first one is made (see :func:`_numpy_random`)."""

    __slots__ = ("_spawn", "_row", "_words")
    n_children_spawned = 0

    def __init__(self, spawn: tuple, row: int, words: np.ndarray):
        # spawn: (entropy, parent spawn key, first child index, pool size,
        # K x pool_size mixed pools) shared by the children of one spawn
        self._spawn = spawn
        self._row = row
        self._words = words

    entropy = property(lambda self: self._spawn[0])
    spawn_key = property(lambda self: (*self._spawn[1], self._spawn[2] + self._row))
    pool_size = property(lambda self: self._spawn[3])
    pool = property(lambda self: self._spawn[4][self._row])

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        """The first ``n_words`` state words, up to 4 uint64 or 8 uint32:
        every call restarts SeedSequence's state hash, so a shorter state
        is a prefix of PCG64's."""
        words = self._words
        if dtype is np.uint64 and n_words == len(words):
            return words  # what PCG64 asks for
        if np.dtype(dtype) != np.uint64:
            words = words.astype("<u8").view("<u4").astype(np.uint32)
        if n_words > len(words):
            raise ValueError(f"a spawned seed holds {len(words)} words, asked for {n_words}")
        return words[:n_words]


@functools.cache
def _numpy_random():
    """numpy.random's SeedSequence word coercion, imported on first use
    (as ``np.random`` itself is) so importing xcorr does not load
    numpy.random; registers :class:`SpawnedSeed` as a seed sequence that
    PCG64 accepts."""
    from numpy.random.bit_generator import ISeedSequence, _coerce_to_uint32_array

    ISeedSequence.register(SpawnedSeed)
    return _coerce_to_uint32_array


@functools.lru_cache(maxsize=64)
def _child_constants(pool_size: int, prior_calls: int) -> tuple[np.ndarray, ...]:
    """Hash constants of a child's last mixing round and of its
    generate_state, as uint32 vectors.

    ``prior_calls`` counts the hash-mix calls a child makes before its
    last entropy word, which fixes the constant that word starts from.
    Returns (xor, mult) per pool word for the mix, (xor, mult) per state
    word for generate_state, and the pool word each state word reads.
    """
    hc = _INIT_A * pow(_MULT_A, prior_calls, 1 << 32) & _MASK32
    mix_xor, mix_mult = [], []
    for _ in range(pool_size):
        mix_xor.append(hc)
        hc = hc * _MULT_A & _MASK32
        mix_mult.append(hc)
    hc = _INIT_B
    out_xor, out_mult = [], []
    for _ in range(_STATE_WORDS):
        out_xor.append(hc)
        hc = hc * _MULT_B & _MASK32
        out_mult.append(hc)
    u32 = functools.partial(np.array, dtype=np.uint32)
    cycle = np.arange(_STATE_WORDS) % pool_size
    return u32(mix_xor), u32(mix_mult), u32(out_xor), u32(out_mult), cycle


def spawn_seeds(
    seed: int | np.random.SeedSequence | SpawnedSeed, k: int
) -> list[SpawnedSeed]:
    """``seed``'s next ``k`` spawned children, derived in one vectorized
    step.

    A child's entropy is its parent's with one more spawn-key word, its
    index, and the parent's pool is the mixing state just before that
    word; so every child's pool and PCG64 state words follow from
    ``seed.pool`` in one uint32 pass that repeats SeedSequence's hashing.

    Unlike ``spawn``, this does not advance ``seed.n_children_spawned``
    (numpy exposes it read-only): a second call hands out the same
    children again.  Pass each seed sequence to one consumer only.
    """
    if not isinstance(seed, (np.random.SeedSequence, SpawnedSeed)):
        seed = np.random.SeedSequence(int(seed))
    n = seed.pool_size
    words_of = _numpy_random()
    entropy_words = max(len(words_of(seed.entropy)), n)
    key_words = len(words_of(seed.spawn_key))
    mix_xor, mix_mult, out_xor, out_mult, cycle = _child_constants(
        n, n * n + (entropy_words + key_words - n) * n
    )
    first = seed.n_children_spawned
    shift = np.uint32(16)
    # hashmix(child index) against each pool word's constant, then mix
    h = np.arange(first, first + k, dtype=np.uint32)[:, None] ^ mix_xor
    h *= mix_mult
    h ^= h >> shift
    pools = seed.pool * np.uint32(_MIX_MULT_L) - h * np.uint32(_MIX_MULT_R)
    pools ^= pools >> shift
    # generate_state(4, uint64) of every child
    words = pools[:, cycle] ^ out_xor
    words *= out_mult
    words ^= words >> shift
    state = np.ascontiguousarray(words, dtype="<u4").view("<u8").astype(np.uint64, copy=False)
    spawn = (seed.entropy, seed.spawn_key, first, n, pools)
    return [SpawnedSeed(spawn, row, w) for row, w in enumerate(state)]


def spawn_rngs(
    seed: int | np.random.SeedSequence | SpawnedSeed, k: int
) -> list[np.random.Generator]:
    """The generators of ``seed``'s next ``k`` spawned children (see
    :func:`spawn_seeds`): equal, draw for draw, to
    ``[make_rng(c) for c in seed.spawn(k)]``.  ``seed``'s spawn counter
    is not advanced."""
    return [np.random.Generator(np.random.PCG64(c)) for c in spawn_seeds(seed, k)]


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
        if int(self.n_accounts) * int(self.n_inputs) * 8 > np.iinfo(np.intp).max:
            raise DomainError(
                f"a {self.n_accounts} x {self.n_inputs} placement draw is too large to allocate"
            )


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
    budget = c * math.log(n_inputs)
    if not math.isfinite(budget):
        raise DomainError(f"c * ln N is not finite for c={c}, N={n_inputs}")
    return max(2, math.ceil(budget))


class PlacementMatrix:
    """Immutable m x N boolean membership matrix with both index views.

    Row j is account j's input set; column i is input i's account set
    (A_i).  The views are derived from the matrix on demand, so they are
    consistent by construction.  :attr:`packed` is the matrix packed
    once, as the core-family searches read it.
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

    @functools.cached_property
    def packed(self) -> np.ndarray:
        """The read-only (n_inputs, ceil(m/64)) packed rows of the matrix:
        row i is input i, with bit k set when account k holds it (see
        :func:`~xcorr._kernels.pack_bitsets`)."""
        rows = pack_bitsets(self.membership)
        rows.setflags(write=False)
        return rows

    @property
    def n_accounts(self) -> int:
        return self.membership.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.membership.shape[1]

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
    active_accounts: np.ndarray | Sequence[Iterable[int]],
    n_accounts: int,
    error: type[Exception] = DomainError,
) -> np.ndarray:
    """K x m boolean matrix whose row k marks the accounts in
    ``active_accounts[k]``; raises ``error`` for an account outside
    0..n_accounts-1.  A boolean matrix with m columns (a seen matrix) is
    already in this form and is returned as it is."""
    if isinstance(active_accounts, np.ndarray) and active_accounts.dtype == bool:
        if active_accounts.ndim != 2 or active_accounts.shape[1] != n_accounts:
            raise error(
                f"seen matrix of shape {active_accounts.shape}, expected (K, {n_accounts})"
            )
        return active_accounts
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
