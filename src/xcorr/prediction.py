"""Shared verdict types emitted by every detection algorithm.

A detector scores all K outputs of a trial at once and answers with
:class:`Verdicts`, one row per output held in arrays.  A
:class:`Prediction` is one row of it as an object: single-output calls
return one.  :func:`_row_doc` is the one definition of a row's JSON form:
:meth:`Prediction.to_dict` writes through it, and so does
:meth:`Verdicts.to_doc`, straight from the arrays, for stored records and
the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .core_model import Combination, Family
from .errors import DomainError


class Verdict(str, Enum):
    TARGETED = "targeted"
    UNTARGETED = "untargeted"
    UNKNOWN = "unknown"


#: Row codes of :attr:`Verdicts.codes`: code c stands for ``VERDICTS[c]``.
VERDICTS = tuple(Verdict)
TARGETED, UNTARGETED, UNKNOWN = (VERDICTS.index(v) for v in Verdict)
_VALUES = tuple(v.value for v in VERDICTS)


@dataclass(frozen=True, eq=False)
class Posterior:
    """Probability over (D_0..D_{N-1}, untargeted); last entry is the
    untargeted hypothesis.  ``log_normalizer`` is the log evidence."""

    probabilities: np.ndarray
    log_normalizer: float

    def __post_init__(self):
        self.probabilities.setflags(write=False)

    @property
    def n_inputs(self) -> int:
        return len(self.probabilities) - 1


@dataclass(frozen=True, eq=False)
class Prediction:
    """One algorithm's answer for one output.

    ``target`` is a Family (core-family search), a Combination (set
    intersection, single-input Bayes) or None; ``scores`` maps model
    names to scores in [0,1]; ``flags`` carries audit markers such as
    the below-minimum-activity gate or an unsupported conditional test.
    """

    verdict: Verdict
    target: Family | Combination | None = None
    scores: Mapping[str, float] = field(default_factory=dict)
    flags: tuple[str, ...] = ()
    posteriors: Mapping[str, "object"] | None = None

    def __post_init__(self):
        if self.verdict is Verdict.TARGETED:
            if self.target is None or len(self.target) == 0:
                raise DomainError("a TARGETED prediction needs a non-empty target")
        for name, s in self.scores.items():
            if not 0.0 <= s <= 1.0:
                raise DomainError(f"score {name}={s} outside [0,1]")

    def to_dict(self) -> dict:
        return _row_doc(self.verdict.value, self.target, self.scores, self.flags)


def _row_doc(
    verdict: str,
    target: Family | Combination | Sequence[int] | None,
    scores: Mapping[str, float],
    flags: Sequence[str],
) -> dict:
    """The JSON form of one verdict row: the verdict's value, a Family
    target as its sorted members, any other target (a Combination or
    sorted input ids) as one member, scores by sorted name."""
    if isinstance(target, Family):
        target = target.to_doc()
    elif target is not None:
        target = [list(target)]
    return {
        "verdict": verdict,
        "target": target,
        "scores": {k: float(v) for k, v in sorted(scores.items())},
        "flags": list(flags),
    }


@dataclass(frozen=True, eq=False)
class Verdicts:
    """Verdicts of K outputs, row k for output k, held column-wise.

    ``codes[k]`` is the verdict code (see :data:`VERDICTS`).  ``targets``
    is either a K x N boolean matrix whose row k marks the inputs of
    output k's target combination (set intersection, Bayes), or one
    Family or None per row (core-family search); rows that are not
    TARGETED have no target.  ``scores`` maps a model name to its K
    scores in [0, 1].  ``flags`` maps a flag name to the K-row boolean
    mask of outputs carrying it.  ``posteriors`` maps a Bayes channel to
    (probabilities, log normalizers): the K x (N+1) posteriors over
    (D_0..D_{N-1}, untargeted), one row per output, and their K log
    normalizers.
    """

    codes: np.ndarray
    targets: np.ndarray | tuple[Family | None, ...]
    scores: Mapping[str, np.ndarray] = field(default_factory=dict)
    flags: Mapping[str, np.ndarray] = field(default_factory=dict)
    posteriors: Mapping[str, tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict
    )

    def __len__(self) -> int:
        return len(self.codes)

    def translated(self, reps: Sequence[int] | None, n_inputs: int) -> "Verdicts":
        """Targets mapped from reduced input ids (column c stands for
        input ``reps[c]``) to a universe of ``n_inputs``; unchanged when
        ``reps`` is None."""
        if reps is None:
            return self
        if isinstance(self.targets, np.ndarray):
            targets = np.zeros((len(self), n_inputs), dtype=bool)
            targets[:, list(reps)] = self.targets
        else:
            targets = tuple(
                None if fam is None
                else Family(Combination(reps[i] for i in c.inputs) for c in fam)
                for fam in self.targets
            )
        return Verdicts(self.codes, targets, self.scores, self.flags, self.posteriors)

    def predictions(self) -> list[Prediction]:
        """One :class:`Prediction` per row, with its scores, flags and
        posteriors."""
        posts = [
            {name: Posterior(p[row], float(z[row])) for name, (p, z) in self.posteriors.items()}
            or None
            for row in range(len(self))
        ]
        out = []
        for row, (code, target, scores, flags) in enumerate(zip(*self._columns())):
            if target is not None and not isinstance(target, Family):
                target = Combination(target)
            out.append(Prediction(VERDICTS[code], target, scores, flags, posts[row]))
        return out

    def to_doc(self, output_ids: Sequence[int]) -> dict[str, dict]:
        """The rows as JSON, keyed by output id: row k is output
        ``output_ids[k]``, one id per row.  A row's JSON holds no
        posterior, so none is built, nor any :class:`Prediction`."""
        rows = zip(output_ids, *self._columns(), strict=True)
        return {
            str(oid): _row_doc(_VALUES[code], target, scores, flags)
            for oid, code, target, scores, flags in rows
        }

    def _columns(self) -> tuple[list, list, list, list]:
        """The rows' verdict codes, targets (the Family, or the sorted
        input ids of a matrix row; None unless TARGETED), scores by name
        and flags, one list each."""
        k = len(self)
        scores = [{} for _ in range(k)]
        for name, col in self.scores.items():
            for row, s in enumerate(col.tolist()):
                scores[row][name] = s
        flags = [() for _ in range(k)]
        for name, mask in self.flags.items():
            for row in np.flatnonzero(mask).tolist():
                flags[row] += (name,)
        dense = isinstance(self.targets, np.ndarray)
        targets: list = [None] * k
        for row in np.flatnonzero(self.codes == TARGETED).tolist():
            target = self.targets[row]
            targets[row] = np.flatnonzero(target).tolist() if dense else target
        return self.codes.tolist(), targets, scores, flags
