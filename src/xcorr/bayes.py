"""Self-tuning Bayesian prediction, scored one trial at a time.

Hypotheses for one output are "targeted on single input i" for each i,
plus "untargeted".  Behavioral evidence is which accounts saw the
output; contextual evidence is how often it was displayed next to each
input.  All K outputs of a trial are scored in one pass: the K x m
seen matrix times the m x N placement gives every overlap |A_i ∩ A_k|
at once (the contextual channel reads its K x N count matrix as is),
the K x (N+1) log-likelihood matrix follows elementwise as exact
Bernoulli-count products in log space, and a row-wise logsumexp turns
it into posteriors.  The composite model averages the two channels'
posteriors hypothesis-wise.  :func:`bayes_verdicts` returns the verdicts
as arrays; :func:`bayes_predict` is its K = 1 case as a
:class:`Prediction`.

Parameter learning alternates that pass with moment-matching
re-estimation until the parameters stop moving.  Both channels share
one loop; they differ only in the counts they accumulate and the
denominators they divide by, and neither depends on the parameters, so
each iteration is one elementwise pass plus integer reductions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError
from .placement import PlacementMatrix, active_matrix
from .prediction import TARGETED, UNTARGETED, Prediction, Verdict, Verdicts

BEHAVIORAL_MODEL = "behavioral"
CONTEXTUAL_MODEL = "contextual"
COMPOSITE_MODEL = "composite"

_PROB_FLOOR = 1e-6


@dataclass(frozen=True)
class ModelParams:
    """Service-behavior parameters plus hypothesis priors.

    ``priors``, when given, lists positive weights for (D_0..D_{N-1},
    untargeted) and is normalized internally, so rescaling all entries
    never changes a verdict; None means uniform 1/(N+1).
    """

    p_in: float = 0.7
    p_out: float = 0.01
    p_empty: float = 0.1
    priors: tuple[float, ...] | None = None

    def __post_init__(self):
        if not 0.0 < self.p_out < self.p_in < 1.0:
            raise DomainError(
                f"need 0 < p_out < p_in < 1, got ({self.p_out}, {self.p_in})"
            )
        if not 0.0 < self.p_empty < 1.0:
            raise DomainError(f"need 0 < p_empty < 1, got {self.p_empty}")
        if self.priors is not None:
            if len(self.priors) < 2 or any(w <= 0 for w in self.priors):
                raise DomainError("priors must be >= 2 positive weights")

    def log_priors(self, n_inputs: int) -> np.ndarray:
        """Normalized log prior over (D_0..D_{N-1}, untargeted)."""
        if self.priors is None:
            return _uniform_log_prior(n_inputs)
        if len(self.priors) != n_inputs + 1:
            raise DomainError(
                f"priors have {len(self.priors)} entries, need {n_inputs + 1}"
            )
        w = np.log(np.asarray(self.priors, dtype=float))
        hi = float(np.max(w))
        return w - (hi + math.log(float(np.sum(np.exp(w - hi)))))

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.p_in, self.p_out, self.p_empty)


DEFAULT_INIT = ModelParams(p_in=0.7, p_out=0.01, p_empty=0.1)


@functools.lru_cache(maxsize=64)
def _uniform_log_prior(n_inputs: int) -> np.ndarray:
    prior = np.full(n_inputs + 1, -math.log(n_inputs + 1))
    prior.setflags(write=False)
    return prior


# ------------------------------------------------------------- evidence


@dataclass(frozen=True, eq=False)
class Evidence:
    """Parameter-free sufficient statistics of K outputs on one channel.

    ``hits[k, i]`` is the evidence output k gives for input i: |A_i ∩ A_k|
    on the behavioral channel, the displays next to input i on the
    contextual one.  ``seen[k]`` is the output's total, |A_k| or all its
    displays.  Behavioral evidence also carries the column sizes |A_i|
    and the account count m; contextual evidence carries ``sizes=None``.
    All entries are exact integers stored as float64.
    """

    hits: np.ndarray
    seen: np.ndarray
    sizes: np.ndarray | None = None
    n_accounts: int = 0

    @property
    def n_inputs(self) -> int:
        return self.hits.shape[1]


def behavioral_evidence(
    active_accounts: np.ndarray | Sequence[Iterable[int]], placement: PlacementMatrix
) -> Evidence:
    """Evidence of K outputs' active accounts, given as the K x m seen
    matrix or as K account sets: one K x m @ m x N product."""
    mem = placement.membership
    active = active_matrix(active_accounts, placement.n_accounts).astype(float)
    return Evidence(
        hits=active @ mem.astype(float),
        seen=active.sum(axis=1),
        sizes=mem.sum(axis=0).astype(float),
        n_accounts=placement.n_accounts,
    )


def contextual_evidence(counts: np.ndarray | Sequence[Sequence[int]]) -> Evidence:
    """Evidence of the K x N display-count matrix."""
    x = np.asarray(counts, dtype=float)
    if x.ndim != 2:
        raise DomainError(f"display counts of shape {x.shape}, expected (K, N)")
    if np.any(x < 0):
        raise DomainError("display counts must be >= 0")
    return Evidence(hits=x, seen=x.sum(axis=1))


def log_likelihoods(ev: Evidence, params: ModelParams) -> np.ndarray:
    """K x (N+1) log-likelihood matrix; column N is the untargeted
    hypothesis.

    Behavioral: every account is an independent Bernoulli, p_in inside
    A_i and p_out outside, or p_empty everywhere when untargeted.
    Contextual: x_i log p_in + (total - x_i) log p_out, or total log
    p_empty when untargeted.
    """
    hit, k = ev.hits, ev.seen[:, None]
    out = np.empty((hit.shape[0], hit.shape[1] + 1))
    if ev.sizes is None:
        out[:, :-1] = hit * math.log(params.p_in) + (k - hit) * math.log(params.p_out)
        out[:, -1] = ev.seen * math.log(params.p_empty)
        return out
    m, size = ev.n_accounts, ev.sizes
    out[:, :-1] = (
        hit * math.log(params.p_in)
        + (size - hit) * math.log1p(-params.p_in)
        + (k - hit) * math.log(params.p_out)
        + (m - size - k + hit) * math.log1p(-params.p_out)
    )
    out[:, -1] = ev.seen * math.log(params.p_empty) + (m - ev.seen) * math.log1p(
        -params.p_empty
    )
    return out


def posteriors(
    loglik: np.ndarray, params: ModelParams
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise posteriors of a log-likelihood matrix: (K x (N+1)
    probabilities, K log normalizers)."""
    log_post = loglik + params.log_priors(loglik.shape[1] - 1)
    hi = log_post.max(axis=1)
    sums = np.exp(log_post - hi[:, None]).sum(axis=1)
    z = hi + np.array([math.log(s) for s in sums.tolist()])
    probs = np.exp(log_post - z[:, None])
    probs /= probs.sum(axis=1, keepdims=True)
    return probs, z


# -------------------------------------------------------------- predict


def bayes_verdicts(
    active_accounts: np.ndarray | Sequence[Iterable[int]] | None = None,
    contextual_counts: np.ndarray | Sequence[Sequence[int]] | None = None,
    placement: PlacementMatrix | None = None,
    params: ModelParams = DEFAULT_INIT,
    contextual_params: ModelParams | None = None,
    score_floor: float = 0.5,
) -> Verdicts:
    """Verdicts for K outputs from one or both observation channels.

    ``active_accounts`` is the K x m seen matrix (or K account sets) and
    ``contextual_counts`` the K x N display-count matrix; row k of each
    is output k, and either channel may be omitted for all outputs, not
    both.  With both channels present the two posterior vectors are
    averaged hypothesis-wise before the argmax, so disagreeing models
    still produce a well-defined winner.  TARGETED({i}) requires the
    winning hypothesis to be an input with (averaged) posterior >=
    score_floor; an untargeted winner or a sub-floor input yields
    UNTARGETED.  Each channel's maximum posterior is its score, and the
    winner's averaged posterior the composite score.
    """
    scored: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    if active_accounts is not None:
        if placement is None:
            raise DomainError("behavioral prediction needs the placement")
        ev = behavioral_evidence(active_accounts, placement)
        scored[BEHAVIORAL_MODEL] = posteriors(log_likelihoods(ev, params), params)
    if contextual_counts is not None:
        ctx_params = contextual_params or params
        ev = contextual_evidence(contextual_counts)
        scored[CONTEXTUAL_MODEL] = posteriors(log_likelihoods(ev, ctx_params), ctx_params)
    shapes = {probs.shape for probs, _ in scored.values()}
    if len(shapes) != 1:
        raise DomainError(
            "need one or both channels, over the same outputs and inputs; got "
            f"posteriors of shapes {sorted(shapes)}"
        )
    combined = np.zeros(shapes.pop())
    for probs, _ in scored.values():
        combined += probs
    combined /= len(scored)
    n_outputs, width = combined.shape
    winners = combined.argmax(axis=1)
    tops = combined.max(axis=1)
    targeted = (winners < width - 1) & (tops >= score_floor)
    codes = np.where(targeted, TARGETED, UNTARGETED).astype(np.int8)
    targets = np.zeros((n_outputs, width - 1), dtype=bool)
    targets[targeted, winners[targeted]] = True
    scores = {name: probs.max(axis=1) for name, (probs, _) in scored.items()}
    scores[COMPOSITE_MODEL] = tops
    return Verdicts(codes, targets, scores, posteriors=scored)


def bayes_predict(
    active_accounts: Iterable[int] | None = None,
    contextual_counts: Sequence[int] | np.ndarray | None = None,
    placement: PlacementMatrix | None = None,
    params: ModelParams = DEFAULT_INIT,
    contextual_params: ModelParams | None = None,
    score_floor: float = 0.5,
) -> Prediction:
    """Verdict for one output: :func:`bayes_verdicts` with K = 1, or
    UNKNOWN (flag ``no_observations``) when neither channel is given."""
    if active_accounts is None and contextual_counts is None:
        return Prediction(Verdict.UNKNOWN, flags=("no_observations",))
    return bayes_verdicts(
        None if active_accounts is None else [active_accounts],
        None if contextual_counts is None else [contextual_counts],
        placement, params, contextual_params, score_floor,
    ).predictions()[0]


# --------------------------------------------------------------- learning


@dataclass(frozen=True)
class LearnResult:
    params: ModelParams
    iterations: int
    converged: bool
    history: tuple[tuple[float, float, float], ...]


def _clamped(p_in: float, p_out: float, p_empty: float) -> tuple[float, float, float]:
    p_in = min(max(p_in, _PROB_FLOOR), 1.0 - _PROB_FLOOR)
    p_empty = min(max(p_empty, _PROB_FLOOR), 1.0 - _PROB_FLOOR)
    p_out = min(max(p_out, _PROB_FLOOR / 10.0), p_in * (1.0 - 1e-9))
    return p_in, p_out, p_empty


def _moment_match(
    ev: Evidence,
    in_slots: np.ndarray,
    out_slots: np.ndarray,
    empty_slots: int,
    init: ModelParams,
    tol: float,
    max_iter: int,
    score_floor: float,
) -> LearnResult:
    """Iterated moment matching over one channel's evidence.

    Each round scores every output with the current parameters, then
    re-estimates: p_in is the evidence for the predicted input over
    ``in_slots[i]``, p_out the rest of the output's total over
    ``out_slots[i]``, and p_empty the totals of outputs predicted
    untargeted over ``empty_slots`` each.  A parameter with no
    supporting predictions keeps its previous value.  All accumulators
    are exact integer counts, so estimates do not depend on output order.

    A round's estimates depend only on the previous round's, so once a
    round repeats the one two rounds back the run is a 2-cycle that never
    converges: the rest of its history is filled in by parity, exactly as
    the remaining rounds would write it.
    """
    hits = ev.hits.astype(np.int64)
    seen = ev.seen.astype(np.int64)
    rows = np.arange(len(seen))
    n = ev.n_inputs
    params = init
    history: list[tuple[float, float, float]] = []
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        probs, _ = posteriors(log_likelihoods(ev, params), params)
        winner = probs.argmax(axis=1)
        targeted = (winner < n) & (probs[rows, winner] >= score_floor)
        t_rows, t_inputs = rows[targeted], winner[targeted]
        t_hits = hits[t_rows, t_inputs]
        in_seen, in_total = int(t_hits.sum()), int(in_slots[t_inputs].sum())
        out_seen = int(seen[t_rows].sum()) - in_seen
        out_total = int(out_slots[t_inputs].sum())
        empty_seen = int(seen[~targeted].sum())
        empty_total = empty_slots * int(np.count_nonzero(~targeted))
        p_in = in_seen / in_total if in_total else params.p_in
        p_out = out_seen / out_total if out_total else params.p_out
        p_empty = empty_seen / empty_total if empty_total else params.p_empty
        p_in, p_out, p_empty = _clamped(p_in, p_out, p_empty)
        delta = max(
            abs(p_in - params.p_in),
            abs(p_out - params.p_out),
            abs(p_empty - params.p_empty),
        )
        params = replace(params, p_in=p_in, p_out=p_out, p_empty=p_empty)
        history.append(params.as_tuple())
        if delta < tol:
            converged = True
            break
        if len(history) >= 3 and history[-1] == history[-3]:
            for iterations in range(iterations + 1, max_iter + 1):
                history.append(history[-2])
            p_in, p_out, p_empty = history[-1]
            params = replace(params, p_in=p_in, p_out=p_out, p_empty=p_empty)
            break
    return LearnResult(
        params=params,
        iterations=iterations,
        converged=converged,
        history=tuple(history),
    )


def learn_params(
    seen: np.ndarray,
    placement: PlacementMatrix,
    init: ModelParams = DEFAULT_INIT,
    tol: float = 1e-3,
    max_iter: int = 50,
    score_floor: float = 0.5,
) -> LearnResult:
    """Moment matching on the behavioral channel: p_in from (account
    holds the predicted input, account saw the output) pairs over |A_i|,
    p_out from the accounts not holding it over m - |A_i|, p_empty from
    the hit rate of outputs predicted untargeted over m, all read off
    the K x m ``seen`` matrix."""
    ev = behavioral_evidence(seen, placement)
    sizes = ev.sizes.astype(np.int64)
    m = placement.n_accounts
    return _moment_match(ev, sizes, m - sizes, m, init, tol, max_iter, score_floor)


def learn_contextual_params(
    counts: np.ndarray,
    displays_per_input: int,
    init: ModelParams = DEFAULT_INIT,
    tol: float = 1e-3,
    max_iter: int = 50,
    score_floor: float = 0.5,
) -> LearnResult:
    """Contextual twin of :func:`learn_params`: slot-count moment
    matching on the K x N display-count matrix, with per-input display
    totals as denominators."""
    ev = contextual_evidence(counts)
    d, n = displays_per_input, ev.n_inputs
    in_slots = np.full(n, d, dtype=np.int64)
    return _moment_match(
        ev, in_slots, in_slots * (n - 1), d * n,
        init, tol, max_iter, score_floor,
    )
