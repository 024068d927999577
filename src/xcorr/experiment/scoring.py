"""Turn per-output verdicts into precision/recall with exact-match credit.

An emission (a TARGETED verdict) is *correct* only when the output really
is targeted and the emitted family equals the true core exactly — partial
overlap earns nothing.  UNKNOWN verdicts are abstentions: they are not
emissions, so they cost precision nothing, but any targeted output left
unexplained still costs recall.

When the service works at coarser granularity than single inputs (overlap
groups), both sides are projected through the group map before comparison,
so naming any input of the right group counts as finding the association.

Scoring reads a trial's verdict arrays (:class:`~xcorr.prediction.Verdicts`)
against its :class:`Truth`, which reads the trial's spec table
(:class:`~xcorr.simulator.SpecTable`) and projects the true cores once
per trial; core families are built only to score family targets or to
project through groups.
A detector whose targets are single combinations (a K x N matrix) is
scored by comparing rows; family targets are compared as families.
:func:`rates` turns confusion counts into the two rates, for one trial
and for a scenario's pooled counts alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..core_model import Combination, Family
from ..errors import MismatchedUniverse
from ..prediction import TARGETED, UNKNOWN, Verdicts
from ..simulator import SpecTable


def project_family(fam: Family, group_map: Mapping[int, int]) -> Family:
    """Rewrite every member input through the group map (identity for
    unmapped inputs).  Members that collapse onto each other merge."""
    return Family(
        Combination(sorted({group_map.get(i, i) for i in c.inputs})) for c in fam
    )


def wilson_interval(successes: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Stays inside [0,1] and keeps sane width at extreme rates, unlike the
    normal approximation.  An empty sample is total ignorance: (0, 1).
    """
    if n < 0 or successes < 0 or successes > n:
        raise ValueError(f"need 0 <= successes <= n, got ({successes}, {n})")
    if n == 0:
        return (0.0, 1.0)
    p = successes / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n))
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(frozen=True)
class Metrics:
    """Confusion counts and the two headline rates for one scored set.

    ``flags`` marks degenerate denominators: ``empty_emission`` when
    nothing was emitted (precision defaults to 1.0 — silence makes no
    false claims) and ``no_true_associations`` when the workload had
    nothing to find (recall defaults to 1.0).
    """

    n_outputs: int
    true_targeted: int
    emitted: int
    correct: int
    unknown: int
    precision: float
    recall: float
    flags: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "n_outputs": self.n_outputs,
            "true_targeted": self.true_targeted,
            "emitted": self.emitted,
            "correct": self.correct,
            "unknown": self.unknown,
            "precision": self.precision,
            "recall": self.recall,
            "flags": list(self.flags),
        }


@dataclass(frozen=True, eq=False)
class Truth:
    """One trial's ground truth as the scorer reads it, rows in
    ascending output id: the trial's spec table, projected once.

    When row k's true core, projected through the group map, has a
    single member, ``single[k]`` is set and row k of the K x N matrix
    ``combos`` marks its inputs.  ``projection`` is the N x N boolean
    matrix that maps input i to its group's representative (None
    without groups), and ``projected`` holds the projected cores then.
    """

    specs: SpecTable
    single: np.ndarray
    combos: np.ndarray
    group_map: Mapping[int, int] | None = None
    projection: np.ndarray | None = None
    projected: tuple[Family | None, ...] | None = None

    @classmethod
    def of(
        cls,
        specs: SpecTable,
        group_map: Mapping[int, int] | None = None,
        *,
        n_inputs: int,
    ) -> "Truth":
        """The truth of the trial whose workload is ``specs``;
        ``n_inputs`` is the universe size N.  Without a group map no
        :class:`Family` is built."""
        members = specs.members
        projected = projection = None
        if group_map:
            projected = tuple(
                None if core is None else project_family(core, group_map)
                for core in specs.cores
            )
            members = [None if fam is None else [c.inputs for c in fam] for fam in projected]
            projection = np.eye(n_inputs, dtype=bool)
            for i, rep in group_map.items():
                projection[i] = False
                projection[i, rep] = True
        rows: list[int] = []
        cols: list[int] = []
        for row, core in enumerate(members):
            if core is not None and len(core) == 1:
                rows += [row] * len(core[0])
                cols += core[0]
        single = np.zeros(len(specs), dtype=bool)
        single[rows] = True
        combos = np.zeros((len(specs), n_inputs), dtype=bool)
        combos[rows, cols] = True
        return cls(specs, single, combos, group_map or None, projection, projected)

    @property
    def families(self) -> tuple[Family | None, ...]:
        """Each row's true core as a family, projected through the group
        map (None when untargeted)."""
        return self.specs.cores if self.projected is None else self.projected

    def __len__(self) -> int:
        return len(self.specs)

    def correct(self, verdicts: Verdicts) -> int:
        """How many TARGETED rows of ``verdicts`` name exactly the true
        core, after both sides are projected through the group map."""
        rows = np.flatnonzero(verdicts.codes == TARGETED)
        if isinstance(verdicts.targets, np.ndarray):
            got = verdicts.targets[rows]
            if got.shape[1] != self.combos.shape[1]:
                raise MismatchedUniverse(
                    f"verdict targets cover {got.shape[1]} inputs, "
                    f"truth covers {self.combos.shape[1]}"
                )
            if self.projection is not None:
                got = got @ self.projection
            hits = self.single[rows] & (got == self.combos[rows]).all(axis=1)
            return int(np.count_nonzero(hits))
        correct = 0
        for row in rows.tolist():
            got, fam = verdicts.targets[row], self.families[row]
            if fam is None:
                continue
            if self.group_map:
                got = project_family(got, self.group_map)
            correct += got == fam
        return correct


def rates(correct: int, emitted: int, true_targeted: int) -> tuple[float, float, list[str]]:
    """Precision, recall and the degenerate-denominator flags of
    :class:`Metrics` from confusion counts."""
    flags: list[str] = []
    if emitted == 0:
        precision = 1.0
        flags.append("empty_emission")
    else:
        precision = correct / emitted
    if true_targeted == 0:
        recall = 1.0
        flags.append("no_true_associations")
    else:
        recall = correct / true_targeted
    return precision, recall, flags


def precision_recall(verdicts: Verdicts, truth: Truth) -> Metrics:
    """Score a trial's verdict arrays against its :class:`Truth`, row for
    row.  Differing row counts raise :class:`MismatchedUniverse` rather
    than guessing which side dropped data."""
    if len(verdicts) != len(truth):
        raise MismatchedUniverse(
            f"{len(verdicts)} verdicts for {len(truth)} outputs of ground truth"
        )
    true_targeted = truth.specs.n_targeted
    emitted = int(np.count_nonzero(verdicts.codes == TARGETED))
    correct = truth.correct(verdicts)
    precision, recall, flags = rates(correct, emitted, true_targeted)
    return Metrics(
        n_outputs=len(truth),
        true_targeted=true_targeted,
        emitted=emitted,
        correct=correct,
        unknown=int(np.count_nonzero(verdicts.codes == UNKNOWN)),
        precision=precision,
        recall=recall,
        flags=tuple(flags),
    )
