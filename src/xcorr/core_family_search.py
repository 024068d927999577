"""Witness-based detection and core-family recovery.

An output's *ad family* is the multiset of input sets held by the
accounts that saw it.  Targeting is detected by exhibiting a small
combination of inputs that intersects at least a fraction x of the
members; a candidate combination c is tested for containing a core
combination by running the same witness search on the *conditional*
family (members containing c, with c stripped): no residual witness
means the targeting is fully explained inside c.

Two recovery algorithms are built on that test.  The agglomerative
search walks breadth-first from the empty combination and keeps the
minimal positives.  The removal search grows a containing set along
detection witnesses, whittles it down input by input, then restarts
behind exclusion sets to find the remaining members; it needs no bound
on the member order.

Both searches run on the root family's packed rows alone, one per-run
state holding the test budget, the memos, the trace and the members
found.  Row i of the rows is input i, so a candidate combination is a
sorted tuple of input ids that is also a tuple of row indices; a
conditional or exclusion family is a member mask over the rows, and a
conditional query reads the candidate's own rows as cleared.  Inside a
search a row and a member mask are Python ints (bit k for account k),
and every distinct witness query is asked once: a repeat is charged and
logged like any test, but answered from a memo.  The queries on the
whole family's conditionals (the root query, every containment test,
and steering on the whole family) are kept on the family itself, for
each x and l_max, so detection and both searches on one family ask each
of them once between them; only a query on an exclusion subfamily is
kept in the search's own memo.

Every search is written as a generator.  Each step yields a block of
witness queries over one family's rows, their member masks (a (Q, words)
array, or Q int masks), cleared rows and thresholds, and is sent back
one witness per query, as sorted row tuples (or None).  The memos, the
budget and the trace stay inside the generator, so a search does the
same tests in the same order whoever answers its queries.  One driver
answers them: it advances its searches in lock-step rounds, answering
every pending block of a round with one
:func:`~xcorr._kernels.find_witness_batch` call over the blocks' stacked
masked rows.  :func:`core_family_verdicts` asks every output's root
query in one such call first, then runs only the outputs with a root
witness through the driver and returns their verdicts as arrays; the
public single-family functions run one search through the same driver.

Both searches ask a whole depth of their walk per block.  The
agglomerative search's candidates are fixed before any of them is
tested, so it yields a breadth-first level's containment queries as one
block (a few, for a level too wide for :data:`_BLOCK_BYTES`) and replays
the answers in lexicographic order.  The removal search's grow walk is
depth-first, but its tree is fixed by the steer witnesses.  So the walk
is replayed from the memos in plain Python, and the first test whose
query they lack expands the tree under that combination and its
siblings breadth-first: each depth's containment and steer queries are
asked as one block, up to the first depth holding a positive.  Some of
those asks are speculative (the walk may stop before it reaches them);
they fill the memos, uncharged and unlogged.  The walk is then replayed
again, and only a complete replay charges and logs its tests, in order,
so charges, traces and budget stops are those of a walk asking one test
at a time.  The replay and the expansion read what a node of the walk
needs from one rule, so an expansion always asks the query whose
absence stopped the replay.  A walk the expansion proves exhausted is
not replayed when no trace or test budget reads its charges.  On a
trial of 16 outputs the searches take about three kernel calls: the
root queries, then one per depth.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from itertools import combinations, compress, product
from typing import Generator, Iterable, TypeVar

import numpy as np

from ._kernels import find_witness_batch, pack_bitsets, popcount_u64
from .core_model import Combination, Family
from .errors import BudgetExceeded, ConfigError, DomainError, EmptyFamily
from .placement import PlacementMatrix, active_matrix
from .prediction import TARGETED, UNKNOWN, UNTARGETED, Prediction, Verdicts

MODEL_NAME = "core_family"

#: A search step yields blocks of witness queries over one family's rows:
#: the (n, words) rows, Q member masks (a (Q, words) array or Q ints),
#: the rows each query reads as cleared (Q tuples of one length, or one
#: (Q, order) array) and Q member thresholds.  It is sent back Q
#: witnesses as sorted tuples of row indices (None if none), and returns
#: its result.
_R = TypeVar("_R")
Block = tuple[np.ndarray, "np.ndarray | list[int]", "list[tuple[int, ...]] | np.ndarray",
              list[int]]
Step = Generator[Block, "list[tuple[int, ...] | None]", _R]

#: Bytes of stacked rows in one agglomerative block: a wider level is
#: asked in several blocks, as ``_kernels._CHUNK`` caps the kernel's own
#: candidate chunks.
_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class DetectionConfig:
    """Knobs shared by the detection test and both search algorithms.

    ``x`` is the intersecting fraction, ``l_max`` caps both the witness
    size and the number of core members recovered, ``r_max`` caps the
    order of candidate combinations (required by the agglomerative
    search, optional for the removal search), ``test_budget`` caps the
    total number of witness searches, and ``min_members`` is the account
    support below which a conditional test answers unknown instead of
    guessing.  The four counts must be integers (not bools) and ``x`` a
    real number, as in a scenario's ``algo_config``.
    """

    x: float = 0.95
    l_max: int = 2
    r_max: int | None = None
    test_budget: int | None = None
    min_members: int = 3

    def __post_init__(self):
        for name in ("l_max", "r_max", "test_budget", "min_members"):
            value = getattr(self, name)
            if value is None and name in ("r_max", "test_budget"):
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.x, numbers.Real) or not 0.0 < self.x < 1.0:
            raise ConfigError(f"x must be a number in (0,1), got {self.x!r}")
        if self.l_max < 1:
            raise ConfigError(f"l_max must be >= 1, got {self.l_max}")
        if self.r_max is not None and self.r_max < 1:
            raise ConfigError(f"r_max must be >= 1 when set, got {self.r_max}")
        if self.test_budget is not None and self.test_budget < 1:
            raise ConfigError(f"test_budget must be >= 1 when set, got {self.test_budget}")
        if self.min_members < 1:
            raise ConfigError(f"min_members must be >= 1, got {self.min_members}")


class AdFamily:
    """The multiset of account input sets behind one output's audience.

    Unlike a core :class:`Family`, members may repeat (two accounts can
    hold the same inputs) and may be empty (an input-less account that
    saw the ad counts against strict targeting).

    The family is stored packed: row i is input i, with one bit per
    account (bit k set when account k holds input i, see
    :func:`~xcorr._kernels.pack_bitsets`), and a member mask over the
    same bits marks the accounts in the family.  A row index is an input
    id, so every family drawn from one placement shares the placement's
    rows and word count and differs only in its mask;
    ``AdFamily(members)`` packs its members as accounts over the ids
    0..max id.  A conditional family keeps the member numbering, with its
    own mask and its stripped rows zeroed.  Members turn back into
    :class:`Combination` objects only when they are asked for.

    The family also keeps a memo of the witness queries asked on it, per
    (x, l_max): combination c maps to the witness of the whole family's
    conditional at c, so ``()`` is the root query.  Detection and every
    search on one family read and fill it, and ask each such query once
    between them; it also keeps the removal search's speculative asks.
    A family derived from this one, such as a :func:`conditional_family`,
    starts with an empty memo.
    """

    __slots__ = ("_rows", "_mask", "_memo")

    def __init__(self, members: Iterable[Combination | Iterable[int]] = ()):
        combos = [c if isinstance(c, Combination) else Combination(c) for c in members]
        n = max((c.inputs[-1] + 1 for c in combos if c.inputs), default=0)
        contains = np.zeros((len(combos), n), dtype=bool)
        for row, member in enumerate(combos):
            contains[row, list(member.inputs)] = True
        self._rows = pack_bitsets(contains)
        self._mask = pack_bitsets(np.ones((len(combos), 1), dtype=bool))[0]
        self._memo: dict[tuple[float, int], dict[tuple[int, ...], tuple[int, ...] | None]] = {}

    @classmethod
    def _packed(cls, rows: np.ndarray, mask: np.ndarray) -> "AdFamily":
        """The family of the members of ``mask`` over the packed ``rows``."""
        out = object.__new__(cls)
        out._rows, out._mask, out._memo = rows, mask, {}
        return out

    @classmethod
    def from_placement(
        cls, active_accounts: Iterable[int], placement: PlacementMatrix
    ) -> "AdFamily":
        seen = active_matrix([active_accounts], placement.n_accounts)
        return cls._packed(placement.packed, pack_bitsets(seen.T)[0])

    def _witnesses(self, x: float, l_max: int) -> dict[tuple[int, ...], tuple[int, ...] | None]:
        """The memo of the conditional witnesses at (x, l_max)."""
        return self._memo.setdefault((x, l_max), {})

    def __len__(self) -> int:
        return int.from_bytes(self._mask.tobytes(), "little").bit_count()

    @property
    def members(self) -> tuple[Combination, ...]:
        bits = _unpack(self._rows & self._mask)
        live = np.flatnonzero(_unpack(self._mask[None, :])[0])
        return tuple(Combination(np.flatnonzero(bits[:, k]).tolist()) for k in live)

    def __iter__(self):
        return iter(self.members)

    def all_inputs(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero((self._rows & self._mask).any(axis=1)).tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, AdFamily):
            return NotImplemented
        return self.members == other.members

    def __hash__(self) -> int:
        return hash(self.members)

    def __repr__(self) -> str:
        return f"AdFamily(members={self.members!r})"


def _unpack(words: np.ndarray) -> np.ndarray:
    """(n, w) uint64 -> (n, 64*w) bool; column k is bit k of the row."""
    le = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(le, axis=1, bitorder="little").astype(bool)


def _ints(words: np.ndarray) -> list[int]:
    """Each row of (n, w) uint64 words as one int: bit 64*j + k of the int
    is bit k of word j, so bit k is account k."""
    raw = np.ascontiguousarray(words, dtype="<u8").tobytes()
    step = 8 * words.shape[1]
    return [int.from_bytes(raw[at : at + step], "little") for at in range(0, len(raw), step)]


def _more_than(bits: list[int], n: int) -> list[int]:
    """Entry j < n is the int mask of the accounts holding more than j of
    the int rows ``bits``: a unary count per account, capped at n, that
    each row carries up past the entries its accounts already reach."""
    more = [0] * n
    for carry in bits:
        for j in range(n):
            more[j], carry = more[j] | carry, more[j] & carry
            if not carry:
                break
    return more


def intersect_threshold(x: float, n_members: int) -> int:
    """Smallest member count whose fraction of ``n_members`` reaches x.

    At least 1: no member at all never makes a fraction x > 0."""
    if not 0.0 < x <= 1.0:
        raise DomainError(f"x must lie in (0,1], got {x}")
    return max(1, math.ceil(x * n_members - 1e-9))


def _block(rows: np.ndarray, mask: np.ndarray | list[int], cleared: tuple[int, ...],
           x: float, support: int) -> Block:
    """The block of one witness query on the ``support`` members of
    ``mask`` (one (1, w) row or one int), reading the rows ``cleared`` as
    cleared."""
    return rows, mask, [cleared], [intersect_threshold(x, support)]


def _thresholds(x: float, support: np.ndarray) -> list[int]:
    """:func:`intersect_threshold` of each support, by the same float
    operations one element at a time."""
    return np.maximum(1, np.ceil(x * support - 1e-9)).astype(np.int64).tolist()


def find_x_intersecting_subset(
    fam: AdFamily, x: float, l_max: int
) -> Combination | None:
    """First combination of ≤ l_max inputs intersecting ≥ x·|fam| members.

    Candidates are enumerated smallest size first, lexicographic within
    a size, so the witness is minimal-size and deterministic.  Inputs
    absent from every member can never enlarge coverage, so they never
    appear in it.
    """
    if len(fam) == 0:
        raise EmptyFamily("witness search needs a non-empty family")
    if l_max < 1:
        raise DomainError(f"l_max must be >= 1, got {l_max}")
    memo = fam._witnesses(x, l_max)
    if () not in memo:
        root = _block(fam._rows, fam._mask[None], (), x, len(fam))
        [[memo[()]]] = _answer_stacked([root], l_max)
    found = memo[()]
    return None if found is None else Combination(found)


def conditional_family(fam: AdFamily, c: Combination | Iterable[int]) -> AdFamily:
    """Members containing ``c``, each with ``c``'s inputs stripped.

    The result is a family over a copy of ``fam``'s rows with the rows of
    ``c`` zeroed, so a conditional of a conditional is built the same way.
    """
    ids = c.inputs if isinstance(c, Combination) else Combination(c).inputs
    if ids and ids[-1] >= len(fam._rows):  # an input beyond the rows: no member holds it
        return AdFamily._packed(fam._rows, np.zeros_like(fam._mask))
    stripped = fam._rows.copy()
    stripped[list(ids)] = 0
    return AdFamily._packed(stripped, np.bitwise_and.reduce(fam._rows[list(ids)]) & fam._mask)


def _conditional(bits: list[int], mask: int, c: Iterable[int]) -> int:
    """Member mask of the members of ``mask`` holding every row of ``c``."""
    for k in c:
        mask &= bits[k]
    return mask


def detect_targeting(fam: AdFamily, cfg: DetectionConfig) -> bool:
    """True iff a witness of size ≤ l_max exists for the whole family.

    Families with fewer than ``cfg.min_members`` members are never
    detected: with only a handful of accounts, some input coincides in
    nearly all of them by chance alone, so a witness at tiny support is
    not evidence.  Callers that need to distinguish "no targeting" from
    "not enough data" should check the support themselves (as
    :func:`predict_core_family` does, reporting UNKNOWN).
    """
    if len(fam) < cfg.min_members:
        return False
    return find_x_intersecting_subset(fam, cfg.x, cfg.l_max) is not None


def contains_core_test(
    c: Combination | Iterable[int], fam: AdFamily, cfg: DetectionConfig
) -> bool | None:
    """Does ``c`` contain a whole core combination?

    True when no residual witness exists among the accounts holding all
    of ``c`` (their audience membership is already explained inside
    ``c``); False when one does.  None — unknown — when fewer than
    ``cfg.min_members`` accounts support the conditional family: the
    dichotomy presumes enough supporting accounts, and too little data
    is a different statement than either answer.
    """
    cond = conditional_family(fam, c)
    if len(cond) < cfg.min_members:
        return None
    return find_x_intersecting_subset(cond, cfg.x, cfg.l_max) is None


# ------------------------------------------------------------ drivers


def _answer_stacked(blocks: list[Block], l_max: int) -> list[list[tuple[int, ...] | None]]:
    """Answer blocks of witness queries with one kernel call over their
    stacked masked rows, split back by offset.  Every block of a run has
    the same rows (the families of one placement share its rows), so the
    stack is one AND of the rows with the blocks' masks, whose int masks
    are packed together into one buffer.  Cleared rows are zeroed inside
    the stack, a lone block's by one fancy-index assignment; zero rows
    never change a witness."""
    rows = blocks[0][0]
    masks = blocks[0][1]
    if len(blocks) > 1 or not isinstance(masks, np.ndarray):
        size = 8 * rows.shape[1]
        raw = b"".join(
            b[1].tobytes() if isinstance(b[1], np.ndarray)
            else b"".join(m.to_bytes(size, "little") for m in b[1])
            for b in blocks
        )
        masks = np.frombuffer(raw, dtype="<u8").reshape(-1, rows.shape[1])
    stack = rows & masks[:, None]
    if len(blocks) == 1:
        cleared = np.asarray(blocks[0][2], dtype=np.int64)
        if cleared.size:
            stack[np.arange(len(cleared))[:, None], cleared] = 0
    else:
        n = stack.shape[1]
        cleared = [q * n + k for q, ks in enumerate(c for b in blocks for c in b[2]) for k in ks]
        if cleared:
            stack.reshape(-1, stack.shape[2])[cleared] = 0
    answers = find_witness_batch(stack, np.array([t for b in blocks for t in b[3]]), l_max)
    out, at = [], 0
    for b in blocks:
        out.append(answers[at : at + len(b[1])])
        at += len(b[1])
    return out


def _run_lockstep(searches: list[Step[_R]], l_max: int) -> list[_R]:
    """Run search generators to their results in lock-step rounds: each
    round answers every pending block with one stacked kernel call and
    sends each search its own witnesses back."""
    results: list = [None] * len(searches)
    pending: dict[int, Block] = {}

    def advance(k: int, witnesses) -> None:
        try:
            pending[k] = searches[k].send(witnesses)
        except StopIteration as stop:
            pending.pop(k, None)
            results[k] = stop.value

    for k in range(len(searches)):
        advance(k, None)
    while pending:
        keys = list(pending)
        for k, witnesses in zip(keys, _answer_stacked([pending[k] for k in keys], l_max)):
            advance(k, witnesses)
    return results


def _run(search: Step[_R], l_max: int) -> _R:
    """Run one search generator to its result: lock-step rounds of one."""
    return _run_lockstep([search], l_max)[0]


@dataclass
class SearchTrace:
    """Audit log of every witness search a recovery run performed."""

    records: list[dict] = field(default_factory=list)
    tests_used: int = 0

    def log(self, kind: str, combo: Iterable[int] | None, outcome) -> None:
        self.records.append(
            {
                "kind": kind,
                "combination": list(combo) if combo is not None else None,
                "outcome": outcome,
            }
        )

    def to_jsonl(self) -> str:
        lines = [json.dumps(r, sort_keys=True) for r in self.records]
        lines.append(
            json.dumps({"kind": "summary", "tests_used": self.tests_used}, sort_keys=True)
        )
        return "\n".join(lines)


class _Search:
    """The state of one search run over a family's packed rows: its test
    budget, containment and witness memos, trace and members found.

    A candidate is a sorted tuple of input ids, which are row indices,
    and a family inside the search is a member mask over the rows.  Row
    i is also ``bits[i]``, one int with bit k set for account k, and
    every member mask is an int, the family's own being ``full`` (its
    (1, w) row is ``mask``).
    ``more[j]`` masks the accounts holding more than j rows, for every j
    a walk steers at (below ``r_max``, or below the row count); see
    :meth:`branching`.  ``ints``, the pair (bits, more), may be passed in
    when the caller has it: the outputs of one placement share its rows.
    A witness query on a conditional of the whole family is answered from
    and kept in the family's memo, so searches and detection on one
    family share those answers; any other query (on an exclusion
    subfamily) is kept in the search's own memo.
    """

    def __init__(self, fam: AdFamily, cfg: DetectionConfig, trace: SearchTrace | None,
                 ints: tuple[list[int], list[int]] | None = None):
        self.mask = fam._mask[None]
        [self.full] = _ints(self.mask)
        if not self.full:
            raise EmptyFamily("cannot search an empty ad family")
        self.rows = fam._rows
        self.bits, self.more = (_ints(fam._rows), None) if ints is None else ints
        self.cfg = cfg
        self.trace = trace
        self.used = 0
        self.memo: dict[tuple[int, ...], bool | None] = {}
        self.shared = fam._witnesses(cfg.x, cfg.l_max)
        self.local: dict[tuple[int, tuple[int, ...]], tuple[int, ...] | None] = {}
        self.found: list[tuple[int, ...]] = []

    def charge(self, n: int = 1) -> None:
        """Count ``n`` witness searches; the first one past the budget
        raises :class:`BudgetExceeded` with the members found so far."""
        limit = self.cfg.test_budget
        over = limit is not None and self.used + n > limit
        self.used = limit + 1 if over else self.used + n
        if self.trace is not None:
            self.trace.tests_used = self.used
        if over:
            raise BudgetExceeded(
                f"test budget {limit} exhausted", partial=self.result(), tests_used=self.used
            )

    def log(self, kind: str, c: tuple[int, ...] | None, outcome) -> None:
        if self.trace is not None:
            self.trace.log(kind, c, outcome)

    def result(self) -> Family:
        """The minimal members found, as a family of input ids."""
        kept: list[tuple[int, ...]] = []
        for c in sorted(set(self.found), key=lambda c: (len(c), c)):
            if not any(set(k).issubset(c) for k in kept):
                kept.append(c)
        return Family(kept)

    def ask(self, mask: int, cleared: tuple[int, ...]) -> Step[tuple[int, ...] | None]:
        """The witness rows of the members of ``mask``, reading the rows
        ``cleared`` as cleared; asked only the first time.  Not charged.
        A ``mask`` equal to the whole family's conditional at ``cleared``
        is that conditional's query, whoever asks it, and is kept in the
        family's memo under ``cleared``; any other in the search's own."""
        if mask == _conditional(self.bits, self.full, cleared):
            memo, key = self.shared, cleared
        else:
            memo, key = self.local, (mask, cleared)
        if key not in memo:
            [memo[key]] = yield _block(self.rows, [mask], cleared, self.cfg.x, mask.bit_count())
        return memo[key]

    def detect(self, mask: int) -> Step[bool]:
        """The charged detection test on the members of ``mask``."""
        self.charge()
        res = mask.bit_count() >= self.cfg.min_members and (
            (yield from self.ask(mask, ())) is not None
        )
        self.log("detect", None, res)
        return res

    def contains(self, c: tuple[int, ...]) -> Step[bool | None]:
        """The memoized, charged containment test of ``c`` against the
        whole family."""
        if c in self.memo:
            return self.memo[c]
        self.charge()
        cond = _conditional(self.bits, self.full, c)
        res = None
        if cond.bit_count() >= self.cfg.min_members:
            res = (yield from self.ask(cond, c)) is None
        self.memo[c] = res
        self.log("contains", c, res)
        return res

    def branching(self) -> list[int]:
        """``more``, computed the first time: a conditional at a
        combination of j rows can branch when it holds a member of
        ``more[j]``, since every member there holds those j rows."""
        if self.more is None:
            self.more = _more_than(self.bits, self.cfg.r_max or len(self.bits))
        return self.more

    def held(self, mask: int) -> list[int]:
        """Rows some member of ``mask`` holds, ascending."""
        return [k for k, b in enumerate(self.bits) if b & mask]


def _contains_block(s: _Search, mask: np.ndarray,
                    cands: list[tuple[int, ...]]) -> Step[list[bool | None]]:
    """Containment tests of the same-order candidates ``cands``, asked as
    one block: each conditional mask is the family's (1, w) ``mask`` AND
    the candidate's rows, which the query reads as cleared.  Candidates
    below ``min_members`` support answer None without a query, and those
    already in the family's memo are read from it.  Not charged."""
    if not cands:
        return []
    idx = np.array(cands)
    masks = np.bitwise_and.reduce(s.rows[idx], axis=1) & mask
    support = popcount_u64(masks).sum(axis=1)
    asked = np.flatnonzero(support >= s.cfg.min_members).tolist()
    new = [k for k in asked if cands[k] not in s.shared]
    if new:
        witnesses = yield s.rows, masks[new], idx[new], _thresholds(s.cfg.x, support[new])
        for k, w in zip(new, witnesses):
            s.shared[cands[k]] = w
    out: list[bool | None] = [None] * len(cands)
    for k in asked:
        out[k] = s.shared[cands[k]] is None
    return out


def agglomerative_core_search(
    fam: AdFamily, cfg: DetectionConfig, trace: SearchTrace | None = None
) -> Family:
    """Breadth-first recovery of the core family.

    The walk starts at the empty combination, whose test doubles as the
    detection test: a residual witness at the root means targeting is
    present and the walk continues.  Positives found smallest-first are
    minimal, hence core members; negatives (and unknowns) spawn their
    one-input extensions up to order ``r_max``; supersets of found
    members are dropped.
    """
    return _run(_agglomerative(_Search(fam, cfg, trace)), cfg.l_max)


def _agglomerative(s: _Search) -> Step[Family]:
    """Search steps of :func:`agglomerative_core_search`.

    The walk goes level by level.  Only lower-order positives prune an
    order-k candidate, so level k is every k-combination of the held
    inputs that holds no member found below it, in lexicographic order,
    fixed before any of its tests runs: the one-input extensions of the
    lower level's negatives and unknowns are exactly these.  Its
    candidates are asked in blocks of at most :data:`_BLOCK_BYTES`
    stacked rows, and the answers are replayed in order: logged as
    containment tests and charged in one step up to the last member
    needed, which raises where candidate-by-candidate charges would.
    The walk stops at ``l_max`` members, dropping the rest of the
    level's answers, or at the first empty level; a block asks no more
    candidates than the budget has left.
    """
    cfg = s.cfg
    if cfg.r_max is None:
        raise ConfigError("agglomerative search needs r_max")
    if not (yield from s.detect(s.full)):
        return Family([])
    universe = s.held(s.full)
    per_block = max(1, _BLOCK_BYTES // s.rows.nbytes)
    for order in range(1, cfg.r_max + 1):
        level = list(combinations(universe, order))
        if s.found and level:
            level = _without_supersets(level, s.found, len(s.bits))
        if not level:
            break
        for start in range(0, len(level), per_block):
            block = level[start : start + per_block]
            room = len(block) if cfg.test_budget is None else cfg.test_budget - s.used
            answers = yield from _contains_block(s, s.mask, block[:room])
            # the positives are kept up to the one that completes l_max
            # members; a block cut to the budget's room logs its answered
            # tests, then raises in charge(n) at the first one it cut
            need = cfg.l_max - len(s.found)
            hits = [k for k, a in enumerate(answers) if a is True][:need]
            n = hits[-1] + 1 if len(hits) == need else len(block)
            if s.trace is not None:
                for k in range(min(n, len(answers))):
                    s.trace.log("contains", block[k], answers[k])
            s.found.extend(block[k] for k in hits)
            s.charge(n)
            if len(s.found) >= cfg.l_max:
                return s.result()
    return s.result()


def _without_supersets(level: list[tuple[int, ...]], found: list[tuple[int, ...]],
                       n: int) -> list[tuple[int, ...]]:
    """The same-order combinations of ``level`` holding no member of
    ``found``, in order, over rows 0..n-1: a combination holds a member
    when it holds as many of that member's rows as the member has."""
    rows_of = np.zeros((n, len(found)), dtype=np.uint8)
    for j, f in enumerate(found):
        rows_of[list(f), j] = 1
    held = rows_of[np.array(level)].sum(axis=1, dtype=np.int64)
    keep = (held < [len(f) for f in found]).all(axis=1)
    return list(compress(level, keep.tolist()))


def _grow(s: _Search, steer: int) -> Step[tuple[int, ...] | None]:
    """Depth-first walk from ∅ toward a combination passing the test.

    Extension candidates come from the witness of the steering family's
    conditional at the current combination — under targeting those
    inputs are core inputs with high probability — tried highest
    coverage first.  The steering family is the members of ``steer``;
    the containment test itself always runs against the whole family,
    where account support is maximal.

    The walk is replayed from the memos (:func:`_replay`).  When it
    reaches a test whose query they do not hold, :func:`_expand` asks
    the queries under that combination and its siblings a depth per
    block, and the walk is replayed again; a complete replay's tests are
    then charged and logged in order.  Both read a node's needs from
    :func:`_node`, so an expansion always asks the query the replay
    missed.  An expansion under all of the root's children that finds no
    positive at any depth proves the walk exhausted; without a trace or
    a test budget nothing reads its charges, so it is not replayed.
    """
    max_depth = s.cfg.r_max if s.cfg.r_max is not None else len(s.held(steer))
    while True:
        try:
            hit, tests, tested, overrun = _replay(s, steer, max_depth)
        except _Missing as missing:
            level, depth, passed, memo, key = missing.args
            exhausted = yield from _expand(s, max_depth, level, depth, passed)
            if key not in memo:
                raise RuntimeError(f"grow expansion left the missed query {key!r} unasked")
            if exhausted and depth == 1 and s.trace is None and s.cfg.test_budget is None:
                return None
            continue
        s.memo.update(tested)
        if s.trace is not None:
            for kind, c, outcome in tests:
                s.trace.log(kind, c, outcome)
        s.charge(len(tests) + overrun)  # an overrun's extra test raises
        return hit


class _Missing(Exception):
    """A replayed walk reached a test whose query the memos do not hold:
    the args are the combination's siblings, its depth, the tests the
    replay passed before it, and the memo and key the query is kept
    under."""


#: A node of the grow walk: a combination, the whole family's
#: conditional at it, and the steering family's.
_Node = tuple[tuple[int, ...], int, int]

#: A containment result whose query is not asked yet.
_UNASKED = object()


def _node(s: _Search, node: _Node, depth: int, max_depth: int,
          more: list[int]) -> tuple[bool, "bool | None | object", tuple | None]:
    """What the grow walk needs at ``node``, ``depth`` deep: whether its
    containment test is charged (it is not tested in this search yet),
    the test's result as far as the memos know it (None below
    ``min_members`` support, :data:`_UNASKED` when its query is not
    asked yet), and the memo and key of its steer query, or None where
    the walk does not steer: at a positive, at ``max_depth``, or where
    no member of the steering conditional holds a row outside the
    combination.  A steer on the whole family is its containment query."""
    c, cond, sub = node
    fresh = c not in s.memo
    if not fresh:
        res = s.memo[c]
    elif cond.bit_count() < s.cfg.min_members:
        res = None
    else:
        res = s.shared.get(c, _UNASKED)
        if res is not _UNASKED:
            res = res is None
    steer = None
    if res is not True and depth < max_depth and sub & more[depth]:
        steer = (s.shared, c) if sub == cond else (s.local, (sub, c))
    return fresh, res, steer


def _replay(s: _Search, steer: int, max_depth: int) -> tuple:
    """The walk of :func:`_grow` read from the memos, uncharged: its hit
    (or None), its charged tests in order as (kind, combination,
    outcome), the containment results it adds, and whether it stopped at
    a test the budget has no room for.  A test whose query the memos
    lack raises :class:`_Missing`.

    The walk keeps one list of siblings per depth, each a :data:`_Node`
    whose conditionals are its parent's AND the added row.
    """
    bits, more = s.bits, s.branching()
    room = math.inf if s.cfg.test_budget is None else s.cfg.test_budget - s.used
    seen: set[tuple[int, ...]] = set()
    tests: list = []
    tested: dict[tuple[int, ...], bool | None] = {}
    levels: list[list[_Node]] = [[((), s.full, steer)]]
    at = [0]
    depth = 0
    while True:
        level = levels[depth]
        if at[depth] == len(level):
            if not depth:
                return None, tests, tested, False
            levels.pop()
            at.pop()
            depth -= 1
            continue
        node = level[at[depth]]
        at[depth] += 1
        c, cond, sub = node
        if c in seen:
            continue
        seen.add(c)
        fresh, res, steering = _node(s, node, depth, max_depth, more)
        if fresh:
            if len(tests) >= room:
                return None, tests, tested, True
            if res is _UNASKED:
                raise _Missing(level, depth, len(tests), s.shared, c)
            tested[c] = res
            tests.append(("contains", c, res))
        if res is True:
            return c, tests, tested, False
        if steering is None:
            continue
        memo, key = steering
        if len(tests) >= room:
            return None, tests, tested, True
        if key not in memo:
            raise _Missing(level, depth, len(tests), memo, key)
        w = memo[key]
        tests.append(("steer", None, None if w is None else list(w)))
        if w:
            if len(w) > 1:
                w = sorted(w, key=lambda k: (-(bits[k] & sub).bit_count(), k))
            levels.append([(tuple(sorted(c + (k,))), cond & bits[k], sub & bits[k]) for k in w])
            at.append(0)
            depth += 1


def _expand(s: _Search, max_depth: int, level: list[_Node], depth: int,
            passed: int) -> Step[bool]:
    """Ask the queries of :func:`_grow`'s walk tree under the nodes
    ``level`` at ``depth`` a depth at a time, uncharged and unlogged,
    ``passed`` tests into a replay.

    The next depth holds the distinct extensions of the combinations of
    one depth by their steer witnesses.  A depth's block asks every query
    :func:`_node` finds its nodes need and the memos lack: containment
    queries and steer queries, which on the first grow are one query.
    The expansion stops at the first depth holding a positive (the walk
    never goes past it on that path) and, under a test budget, once it
    has asked more queries than the budget has tests left.  Returns True
    when it ran out of depths instead: no combination under ``level``
    passes the test.
    """
    cfg, bits, shared, more = s.cfg, s.bits, s.shared, s.branching()
    room = math.inf if cfg.test_budget is None else cfg.test_budget - s.used - passed
    asked = 0
    while level:
        asks: dict = {}
        tested, branches = [], []
        positive = False
        for node in level:
            c, cond, sub = node
            _, res, steering = _node(s, node, depth, max_depth, more)
            if res is _UNASKED:
                asks[c] = shared, cond, c
                tested.append(c)
            positive = positive or res is True
            if steering is not None:
                memo, key = steering
                if key not in memo:
                    asks.setdefault(key, (memo, sub, c))
                branches.append((node, memo, key))
        if asks:
            queries = list(asks.values())
            witnesses = yield (s.rows, [m for _, m, _ in queries], [c for _, _, c in queries],
                               [intersect_threshold(cfg.x, m.bit_count()) for _, m, _ in queries])
            for (memo, _, _), key, w in zip(queries, asks, witnesses):
                memo[key] = w
            positive = positive or any(shared[c] is None for c in tested)
            asked += len(asks)
        if positive or asked > room:
            return False
        grown: dict[tuple[int, ...], _Node] = {}
        for (c, cond, sub), memo, key in branches:
            for k in memo[key] or ():
                kid = tuple(sorted(c + (k,)))
                grown[kid] = kid, cond & bits[k], sub & bits[k]
        level = list(grown.values())
        depth += 1
    return True


def _whittle(s: _Search, start: tuple[int, ...]) -> Step[tuple[int, ...]]:
    """One removal pass, ascending row: keep any removal that leaves the
    containment test positive.  The survivors form a minimal positive
    combination."""
    current = start
    for k in start:
        trial = tuple(r for r in current if r != k)
        if (yield from s.contains(trial)) is True:
            current = trial
    return current


def _exclusion_sets(found: list[tuple[int, ...]]) -> list[frozenset[int]]:
    """All ways of excluding one input from every found member (≤ r^l)."""
    out: list[frozenset[int]] = []
    seen: set[frozenset[int]] = set()
    for choice in product(*found):
        ex = frozenset(choice)
        if ex not in seen:
            seen.add(ex)
            out.append(ex)
    return out


def removal_core_search(
    fam: AdFamily, cfg: DetectionConfig, trace: SearchTrace | None = None
) -> Family:
    """Core recovery that needs no bound on the member order.

    Outline: start from a set that contains a core member, remove
    inputs one at a time keeping the test positive, then restart behind
    exclusion sets (one input dropped from every found member) to
    expose the remaining members.  One refinement: starting sets are
    grown from detection witnesses rather than from the full input
    universe, whose conditional family has no account support at
    realistic budgets.  Exclusion sets screen and steer on the
    subfamily of accounts disjoint from them, but every containment
    test runs against the full family.
    """
    return _run(_removal(_Search(fam, cfg, trace)), cfg.l_max)


def _removal(s: _Search) -> Step[Family]:
    """Search steps of :func:`removal_core_search`."""
    cfg = s.cfg
    if not (yield from s.detect(s.full)):
        return Family([])
    first = yield from _grow(s, s.full)
    if first is None:
        s.log("grow_exhausted", None, None)
        return Family([])
    s.found.append((yield from _whittle(s, first)))

    exhausted: set[frozenset[int]] = set()
    progress = True
    while progress and len(s.found) < cfg.l_max:
        progress = False
        for ex in _exclusion_sets(s.found):
            if ex in exhausted:
                continue
            sub = s.full
            for k in ex:
                sub &= ~s.bits[k]
            if sub.bit_count() < cfg.min_members or not (yield from s.detect(sub)):
                exhausted.add(ex)
                continue
            grown = yield from _grow(s, sub)
            if grown is None:
                exhausted.add(ex)
                continue
            member = yield from _whittle(s, grown)
            if member in s.found:
                exhausted.add(ex)
                continue
            s.found.append(member)
            progress = True
            break
    return s.result()


_SEARCHES = {"removal": _removal, "agglomerative": _agglomerative}

#: The recovery searches a ``method`` may name.
METHODS = tuple(_SEARCHES)


def predict_core_family(
    active_accounts: Iterable[int],
    placement: PlacementMatrix,
    cfg: DetectionConfig = DetectionConfig(),
    method: str = "removal",
    trace: SearchTrace | None = None,
) -> Prediction:
    """Verdict wrapper around detection plus one recovery algorithm.

    Below ``min_members`` active accounts the answer is UNKNOWN — the
    witness search is vacuously easy on a couple of accounts, so no
    verdict is sound there.  A positive detection whose search comes
    back empty (possible when every grow path dead-ends) is also
    UNKNOWN, not UNTARGETED, and so is a search that runs out of its
    test budget (flag ``budget_exhausted``).
    """
    if method not in _SEARCHES:
        raise ConfigError(f"unknown search method {method!r}")
    fam = AdFamily.from_placement(active_accounts, placement)
    found = _run(_predict(fam, cfg, method, trace), cfg.l_max)
    return _verdicts([found]).predictions()[0]


def core_family_verdicts(
    active_accounts: np.ndarray | Iterable[Iterable[int]],
    placement: PlacementMatrix,
    cfg: DetectionConfig = DetectionConfig(),
    method: str = "removal",
) -> Verdicts:
    """:func:`predict_core_family` for every output of one placement,
    as arrays; the outputs' active accounts are the K x m seen matrix or
    K account sets.

    One kernel call asks the root query of every output with
    ``min_members`` support; only the outputs with a root witness are
    searched.  Their searches advance in lock-step rounds: each round
    answers the pending blocks of every unfinished search with one
    batched kernel call.  Each output keeps its own memos and test
    budget, so every verdict equals the single-output one; the rows are
    turned into ints once for all of them.
    """
    if method not in _SEARCHES:
        raise ConfigError(f"unknown search method {method!r}")
    rows = placement.packed
    masks = pack_bitsets(active_matrix(active_accounts, placement.n_accounts).T)
    support = popcount_u64(masks).sum(axis=1)
    live = np.flatnonzero(support >= cfg.min_members)
    roots = []
    if live.size:
        root = rows, masks[live], [()] * live.size, _thresholds(cfg.x, support[live])
        [roots] = _answer_stacked([root], cfg.l_max)
    found: list[_Found] = [(UNKNOWN, None, "below_min_members")] * len(masks)
    searched, searches, ints = [], [], None
    for k, w in zip(live.tolist(), roots):
        if w is None:
            found[k] = UNTARGETED, None, None
            continue
        fam = AdFamily._packed(rows, masks[k])
        fam._witnesses(cfg.x, cfg.l_max)[()] = w
        if ints is None:
            bits = _ints(rows)
            ints = bits, _more_than(bits, cfg.r_max or len(bits))
        searched.append(k)
        searches.append(_predict(fam, cfg, method, None, ints))
    for k, res in zip(searched, _run_lockstep(searches, cfg.l_max)):
        found[k] = res
    return _verdicts(found)


#: A search's verdict: its code, the recovered family, and a flag or None.
_Found = tuple[int, "Family | None", "str | None"]


def _verdicts(found: list[_Found]) -> Verdicts:
    """The verdict arrays of ``found``, one row per search."""
    flags: dict[str, np.ndarray] = {}
    for row, (_, _, flag) in enumerate(found):
        if flag is not None:
            flags.setdefault(flag, np.zeros(len(found), dtype=bool))[row] = True
    return Verdicts(
        np.array([code for code, _, _ in found], dtype=np.int8),
        tuple(fam for _, fam, _ in found),
        {MODEL_NAME: np.ones(len(found))},
        flags,
    )


def _predict(
    fam: AdFamily, cfg: DetectionConfig, method: str, trace: SearchTrace | None,
    ints: tuple[list[int], list[int]] | None = None,
) -> Step[_Found]:
    """Search steps of :func:`predict_core_family`.  The root detection
    query is asked once: its answer chooses UNTARGETED, and it stays in
    the family's memo for the recovery search's first, charged test."""
    if len(fam) < cfg.min_members:
        return UNKNOWN, None, "below_min_members"
    s = _Search(fam, cfg, trace, ints)
    if (yield from s.ask(s.full, ())) is None:
        return UNTARGETED, None, None
    try:
        members = yield from _SEARCHES[method](s)
    except BudgetExceeded:
        return UNKNOWN, None, "budget_exhausted"
    if members.size == 0:
        return UNKNOWN, None, "search_exhausted"
    return TARGETED, members, None
