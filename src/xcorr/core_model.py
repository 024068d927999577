"""Combinations, families, and targeting-function evaluation.

The object model is deliberately small: a *combination* is a set of input
IDs, a *family* is a set of combinations, and a targeting function is the
monotone boolean function "does this account's input set contain at least
one combination of the core family?".  Truth tables are bitmask-indexed
numpy arrays and exist only as an exact oracle for small universes
(n ≤ 24); production paths always work on families directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .errors import AxiomViolation, DomainError

MAX_TRUTH_TABLE_INPUTS = 24


@dataclass(frozen=True, order=True)
class Combination:
    """A sorted, duplicate-free tuple of input IDs.

    ``order`` is the number of inputs.  The empty combination is allowed —
    it is used as the starting query of the search algorithms — but never
    appears inside a family.
    """

    inputs: tuple[int, ...]

    def __init__(self, inputs: Iterable[int] = ()):
        ids = tuple(sorted({int(i) for i in inputs}))
        if ids and ids[0] < 0:
            raise DomainError(f"input IDs must be non-negative, got {ids}")
        object.__setattr__(self, "inputs", ids)

    @property
    def order(self) -> int:
        return len(self.inputs)

    def __len__(self) -> int:
        return len(self.inputs)

    def __iter__(self) -> Iterator[int]:
        return iter(self.inputs)

    def __contains__(self, input_id: int) -> bool:
        return input_id in self.inputs

    def issubset(self, other: "Combination" | Iterable[int]) -> bool:
        other_ids = other.inputs if isinstance(other, Combination) else other
        s = set(other_ids)
        return all(i in s for i in self.inputs)

    def bitmask(self) -> int:
        """Bitmask encoding: bit i set iff input i is present."""
        mask = 0
        for i in self.inputs:
            mask |= 1 << i
        return mask

    @classmethod
    def from_bitmask(cls, mask: int) -> "Combination":
        ids = []
        i = 0
        while mask:
            if mask & 1:
                ids.append(i)
            mask >>= 1
            i += 1
        return cls(ids)

    def __repr__(self) -> str:
        return f"Combination({set(self.inputs) if self.inputs else '{}'})"


EMPTY_COMBINATION = Combination()


@dataclass(frozen=True)
class Family:
    """A set of combinations.

    ``size`` is the member count l, ``order`` the largest member order r
    (0 for the empty family).  A *core* family is additionally an
    antichain; that is checked by :meth:`is_antichain`, not enforced here,
    because intermediate families produced by the search algorithms are
    not antichains.
    """

    combinations: frozenset[Combination] = field(default_factory=frozenset)

    def __init__(self, combinations: Iterable[Combination | Iterable[int]] = ()):
        members = frozenset(
            c if isinstance(c, Combination) else Combination(c) for c in combinations
        )
        if EMPTY_COMBINATION in members:
            raise DomainError("the empty combination cannot be a family member")
        object.__setattr__(self, "combinations", members)

    @property
    def size(self) -> int:
        return len(self.combinations)

    @property
    def order(self) -> int:
        return max((c.order for c in self.combinations), default=0)

    def __len__(self) -> int:
        return len(self.combinations)

    def __iter__(self) -> Iterator[Combination]:
        return iter(sorted(self.combinations))

    def __contains__(self, c: Combination) -> bool:
        return c in self.combinations

    def is_antichain(self) -> bool:
        members = sorted(self.combinations, key=lambda c: c.order)
        for i, small in enumerate(members):
            for big in members[i + 1 :]:
                if small != big and small.issubset(big):
                    return False
        return True

    def all_inputs(self) -> Combination:
        """Union of all member inputs."""
        out: set[int] = set()
        for c in self.combinations:
            out.update(c.inputs)
        return Combination(out)

    def to_doc(self) -> list[list[int]]:
        """Canonical JSON document: sorted array of sorted integer arrays."""
        return [list(c.inputs) for c in sorted(self.combinations)]

    def __repr__(self) -> str:
        inner = ", ".join(str(set(c.inputs)) for c in sorted(self.combinations))
        return f"Family({{{inner}}})"


def eval_targeting(core: Family, inputs: Combination) -> bool:
    """True iff some member of ``core`` is a subset of ``inputs``.

    The empty family is the null function (never targets); the empty
    query combination only matches a core containing the empty
    combination, which family invariants forbid — so it returns False.
    """
    return any(member.issubset(inputs) for member in core.combinations)


def explains(s: Family, s_prime: Family) -> bool:
    """True iff every member of ``s_prime`` has some subset in ``s``."""
    return all(
        any(c.issubset(c_prime) for c in s.combinations)
        for c_prime in s_prime.combinations
    )


class TruthTable:
    """Complete truth table of a boolean function over n ≤ 24 inputs.

    ``values[mask]`` is f(S) for the subset S encoded by ``mask``.
    """

    __slots__ = ("n", "values")

    def __init__(self, n: int, values: np.ndarray | Iterable[int]):
        if n < 0 or n > MAX_TRUTH_TABLE_INPUTS:
            raise DomainError(
                f"truth tables support 0..{MAX_TRUTH_TABLE_INPUTS} inputs, got n={n}"
            )
        vals = np.asarray(values, dtype=np.uint8)
        if vals.shape != (1 << n,):
            raise DomainError(
                f"expected {1 << n} entries for n={n}, got shape {vals.shape}"
            )
        if not np.all((vals == 0) | (vals == 1)):
            raise DomainError("truth table entries must be 0 or 1")
        self.n = n
        self.values = vals
        self.values.setflags(write=False)

    @classmethod
    def from_core(cls, core: Family, n: int) -> "TruthTable":
        """Materialize the targeting function of a core family."""
        masks = np.arange(1 << n, dtype=np.uint32)
        vals = np.zeros(1 << n, dtype=np.uint8)
        for member in core.combinations:
            bm = member.bitmask()
            if bm >= (1 << n):
                raise DomainError(f"{member!r} does not fit in n={n} inputs")
            vals |= ((masks & bm) == bm).astype(np.uint8)
        return cls(n, vals)

    def __call__(self, query: Combination | int) -> bool:
        mask = query if isinstance(query, int) else query.bitmask()
        return bool(self.values[mask])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruthTable)
            and self.n == other.n
            and bool(np.array_equal(self.values, other.values))
        )

    def __hash__(self) -> int:
        return hash((self.n, self.values.tobytes()))


def check_axioms(f: TruthTable) -> dict[str, bool]:
    """Report whether f is monotone and input-sensitive (non-constant).

    Never raises — this is the diagnostic callers run before trusting
    :func:`extract_core_family`.
    """
    vals = f.values
    masks = np.arange(1 << f.n, dtype=np.uint32)
    monotone = True
    for i in range(f.n):
        bit = np.uint32(1 << i)
        without = masks[(masks & bit) == 0]
        if np.any(vals[without] > vals[without | bit]):
            monotone = False
            break
    input_sensitive = bool(vals.min() != vals.max()) if vals.size > 1 else False
    return {"monotone": monotone, "input_sensitive": input_sensitive}


def extract_core_family(f: TruthTable) -> Family:
    """The unique minimal family explaining a monotone, non-constant f.

    These are exactly the subset-minimal elements of f^{-1}(1): S is
    minimal iff f(S)=1 and removing any single input flips f to 0.

    Raises :class:`AxiomViolation` when either axiom fails, because the
    minimal family is then missing or non-unique.
    """
    axioms = check_axioms(f)
    if not axioms["monotone"] or not axioms["input_sensitive"]:
        raise AxiomViolation(f"core family undefined: {axioms}")
    vals = f.values
    masks = np.arange(1 << f.n, dtype=np.uint32)
    minimal = vals.astype(bool).copy()
    for i in range(f.n):
        bit = np.uint32(1 << i)
        with_bit = masks[(masks & bit) != 0]
        # a set containing input i is not minimal if it still targets
        # after dropping i
        minimal[with_bit] &= ~vals[with_bit ^ bit].astype(bool)
    return Family(Combination.from_bitmask(int(m)) for m in np.nonzero(minimal)[0])

