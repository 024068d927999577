"""Independent brute-force oracles shared by the unit and acceptance tests.

Everything here re-derives results by a different computational route
than the library: truth tables become Python-int bitboards (bit s = f(S)
for the subset encoded by mask s), family evaluation is an OR of
precomputed superset cones, and subset-minimality checks every proper
subset, either by raw submask enumeration (small n) or by a subset-OR
dynamic program (larger n).  None of it calls back into the library's
extraction or evaluation code.

The witness-search oracles stand in for the packed kernel and the
family views: :func:`witness_enumerate` walks every candidate
combination in order and counts coverage with a shift-and-mask
popcount, :func:`pack_bitsets_reference` sets the packed layout's bits
one member and input at a time, and the family oracles rebuild
conditional and exclusion families member by member from their
definitions.

The agglomerative oracle is the breadth-first core-family walk as it
was before a level's containment tests were answered together: one
queue, one :func:`~xcorr.core_family_search.contains_core_test` call,
hence one witness query, per candidate.  It shares the library's
containment test and nothing of its level walk.  The removal oracle is
the grow, whittle and exclusion-restart walk on member lists: every
conditional, exclusion and steering family is rebuilt member by member
as an ``AdFamily`` and asked through the public detection, containment
and witness calls, where the library walks row tuples over member masks.
:func:`depth_block_queries` walks the same way but only lists the
distinct witness queries of a search that asks its grow walks a depth
per block.

The scoring oracles stand in for the batched Bayes scorer: likelihoods
from set sizes and plain sums, posteriors hypothesis by hypothesis with
a scalar logsumexp, one output at a time, and the moment-matching loop
output by output.

The simulation oracles stand in for the columnar simulators: one spec
at a time, each with a generator built from its own spawned
SeedSequence child, and the in-target test evaluated member by member;
a contextual row is one binomial call over its whole probability
vector, where the library makes one call per run of equal probability.

The config oracle writes a scenario config through
``dataclasses.asdict``, which ``ScenarioConfig.to_dict`` no longer
calls.

The input-matching oracle stands in for the count-matrix clustering:
sparse per-input signatures, one Python distance per input pair summed
term by term over the outputs both signatures touch, and a dict
union-find over the close pairs.

The set views at the end (an account's inputs, an input's accounts, the
in-target split of a simulation trace) read placements and traces as
Python sets for the tests; the library itself works on the matrices.
"""

from __future__ import annotations

import dataclasses
import math
from collections import deque
from dataclasses import dataclass
from itertools import combinations as itercombos
from itertools import islice, product

import numpy as np

from xcorr.core_family_search import (
    AdFamily,
    contains_core_test,
    detect_targeting,
    find_x_intersecting_subset,
    intersect_threshold,
)
from xcorr.core_model import Combination, Family
from xcorr.errors import BudgetExceeded, ConfigError, DomainError, EmptyFamily


def superset_cone(n: int, member_mask: int) -> int:
    """Bitboard with bit s set iff member_mask is a subset of s."""
    board = 0
    for s in range(1 << n):
        if s & member_mask == member_mask:
            board |= 1 << s
    return board


def family_eval_bitboard(n: int, member_masks) -> int:
    """Truth bitboard of 'account set contains some member'."""
    board = 0
    for m in member_masks:
        board |= superset_cone(n, m)
    return board


def table_bitboard(values) -> int:
    board = 0
    for s, v in enumerate(values):
        if v:
            board |= 1 << s
    return board


def minimal_masks_submask(n: int, values) -> list[int]:
    """Subset-minimal elements of f^{-1}(1) by enumerating every proper
    submask of every true entry.  O(3^n); use for n <= 8 or so."""
    out = []
    for s in range(1 << n):
        if not values[s]:
            continue
        if s == 0:
            out.append(s)
            continue
        sub = (s - 1) & s
        minimal = True
        while True:
            if values[sub]:
                minimal = False
                break
            if sub == 0:
                break
            sub = (sub - 1) & s
        if minimal:
            out.append(s)
    return out


def minimal_masks_dp(n: int, values) -> list[int]:
    """Same result as :func:`minimal_masks_submask` via a subset-OR
    dynamic program (still checks all proper subsets, vectorized)."""
    vals = np.asarray(values, dtype=bool)
    idx = np.arange(1 << n)
    any_subset = vals.copy()  # any_subset[s]: some subset of s (incl. s) is true
    for i in range(n):
        bit = 1 << i
        hi = idx[(idx & bit) != 0]
        any_subset[hi] |= any_subset[hi ^ bit]
    strict = np.zeros_like(vals)  # some *proper* subset of s is true
    for i in range(n):
        bit = 1 << i
        hi = idx[(idx & bit) != 0]
        strict[hi] |= any_subset[hi ^ bit]
    return [int(s) for s in np.nonzero(vals & ~strict)[0]]


def upward_closure(n: int, seed_masks) -> np.ndarray:
    """Boolean table of 'mask s is a superset of some seed', via DP."""
    vals = np.zeros(1 << n, dtype=bool)
    for m in seed_masks:
        vals[m] = True
    idx = np.arange(1 << n)
    for i in range(n):
        bit = 1 << i
        hi = idx[(idx & bit) != 0]
        vals[hi] |= vals[hi ^ bit]
    return vals


def assert_no_smaller_family(n: int, values, core_masks, exhaustive: bool) -> None:
    """No family with fewer members reproduces the truth table.

    ``exhaustive=True`` draws candidate members from all of f^{-1}(1)
    (full brute force; feasible for n <= 5 and small cores).  Otherwise
    candidates are the subset-minimal elements only, which is lossless:
    in any family reproducing f, each member m satisfies f(m)=1, and
    replacing m by a minimal element below it can only enlarge the
    family's matched region while staying inside f^{-1}(1) — so a
    smaller reproducing family exists iff one made of minimal elements
    does.
    """
    target = table_bitboard(values)
    l = len(core_masks)
    if exhaustive:
        candidates = [s for s in range(1 << n) if values[s]]
    else:
        candidates = minimal_masks_dp(n, values)
    for size in range(l):
        for fam in itercombos(candidates, size):
            assert family_eval_bitboard(n, fam) != target, (
                f"family of size {size} < {l} reproduces f: {[bin(m) for m in fam]}"
            )


def assert_no_lower_order_family(n: int, values, core_masks) -> None:
    """No family whose members all have fewer inputs reproduces f.

    Any reproducing family draws members from f^{-1}(1); the union of
    *all* true entries of order < r is therefore the most permissive
    candidate, and if even that one undershoots f, every smaller-order
    family does.
    """
    r = max(bin(m).count("1") for m in core_masks)
    shallow = [s for s in range(1 << n) if values[s] and bin(s).count("1") < r]
    closure = upward_closure(n, shallow)
    assert not np.array_equal(
        closure, np.asarray(values, dtype=bool)
    ), f"a family of order < {r} reproduces f"


def random_antichain(rng, n: int, max_size: int = 3, max_order: int = 4) -> list[int]:
    """Random antichain of member bitmasks over n inputs (rejection
    sampled); always non-empty."""
    while True:
        size = rng.integers(1, max_size + 1)
        members = set()
        for _ in range(size):
            order = rng.integers(1, min(max_order, n) + 1)
            ids = rng.choice(n, size=order, replace=False)
            members.add(sum(1 << int(i) for i in ids))
        ok = all(
            not (a != b and a & b == a) for a in members for b in members
        )
        if ok:
            return sorted(members)


def random_monotone_table(rng, n: int, max_seeds: int = 3) -> np.ndarray:
    """Random monotone, non-constant truth table: the upward closure of a
    few random non-empty seed masks."""
    k = rng.integers(1, max_seeds + 1)
    seeds = rng.integers(1, 1 << n, size=k)
    return upward_closure(n, [int(s) for s in seeds]).astype(np.uint8)


_M1 = np.uint64(0x5555555555555555)
_M2 = np.uint64(0x3333333333333333)
_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
_H01 = np.uint64(0x0101010101010101)


def swar_popcount(x) -> np.ndarray:
    """Per-element population count of a uint64 array, by shifts and masks."""
    x = np.asarray(x, dtype=np.uint64).copy()
    x = x - ((x >> np.uint64(1)) & _M1)
    x = (x & _M2) + ((x >> np.uint64(2)) & _M2)
    x = (x + (x >> np.uint64(4))) & _M4
    return ((x * _H01) >> np.uint64(56)).astype(np.int64)


def witness_enumerate(bitsets, threshold: int, l_max: int, chunk: int = 2048):
    """First combination of <= l_max rows of packed ``bitsets`` whose OR
    covers >= threshold members: every candidate enumerated, smallest size
    first, lexicographic within a size, in chunks of ``chunk``."""
    n = bitsets.shape[0]
    for s in range(1, min(l_max, n) + 1):
        it = itercombos(range(n), s)
        while True:
            block = list(islice(it, chunk))
            if not block:
                break
            idx = np.asarray(block, dtype=np.int64)
            acc = bitsets[idx[:, 0]]
            for j in range(1, s):
                acc = acc | bitsets[idx[:, j]]
            hits = np.nonzero(swar_popcount(acc).sum(axis=1) >= threshold)[0]
            if hits.size:
                return idx[hits[0]].copy()
    return None


def pack_bitsets_reference(contains) -> list[list[int]]:
    """A (K, n) membership matrix packed bit by bit, as n rows of
    max(1, ceil(K / 64)) Python-int words: bit k of word w in row i is
    set iff member 64*w + k contains input i."""
    k, n = np.shape(contains)
    rows = [[0] * max(1, -(-k // 64)) for _ in range(n)]
    for member, inputs in enumerate(np.asarray(contains, dtype=bool).tolist()):
        for i, held in enumerate(inputs):
            if held:
                rows[i][member // 64] |= 1 << (member % 64)
    return rows


def conditional_members(members, c) -> list:
    """Members containing ``c``, each with ``c``'s inputs stripped."""
    return [Combination(i for i in m.inputs if i not in c) for m in members if c.issubset(m)]


def exclusion_members(members, ex) -> list:
    """Members holding none of the inputs in ``ex``."""
    return [m for m in members if set(ex).isdisjoint(m.inputs)]


def _antichain(found) -> Family:
    """The minimal members of ``found``."""
    kept = []
    for c in sorted(set(found), key=lambda c: (c.order, c.inputs)):
        if not any(k.issubset(c) for k in kept):
            kept.append(c)
    return Family(kept)


def agglomerative_oracle(fam, cfg, trace=None):
    """The agglomerative core-family search, candidate by candidate.

    Same contract as :func:`~xcorr.core_family_search.agglomerative_core_search`:
    the charged root detection, then a queue from the singletons of the
    family's inputs; supersets of found members are skipped, positives
    are kept, negatives and unknowns spawn their one-input extensions up
    to order ``r_max``, and the walk stops at ``l_max`` members.  Every
    test is charged before it runs, so a spent ``test_budget`` raises
    ``BudgetExceeded`` with the members found so far.
    """
    if cfg.r_max is None:
        raise ConfigError("agglomerative search needs r_max")
    if len(fam) == 0:
        raise EmptyFamily("cannot search an empty ad family")
    found = []
    used = 0

    def charge():
        nonlocal used
        used += 1
        if trace is not None:
            trace.tests_used = used
        if cfg.test_budget is not None and used > cfg.test_budget:
            raise BudgetExceeded(
                f"test budget {cfg.test_budget} exhausted", partial=_antichain(found),
                tests_used=used,
            )

    charge()
    detected = detect_targeting(fam, cfg)
    if trace is not None:
        trace.log("detect", None, detected)
    if not detected:
        return Family([])
    universe = fam.all_inputs()
    queue = deque(Combination([i]) for i in universe)
    visited = {c.inputs for c in queue}
    while queue and len(found) < cfg.l_max:
        c = queue.popleft()
        if any(f.issubset(c) for f in found):
            continue
        charge()
        res = contains_core_test(c, fam, cfg)
        if trace is not None:
            trace.log("contains", c, res)
        if res is True:
            found.append(c)
            continue
        if c.order >= cfg.r_max:
            continue
        for i in universe:
            if i not in c:
                ext = Combination((*c.inputs, i))
                if ext.inputs not in visited:
                    visited.add(ext.inputs)
                    queue.append(ext)
    return _antichain(found)


def removal_oracle(fam, cfg, trace=None):
    """The removal core-family search on member lists.

    Same contract as :func:`~xcorr.core_family_search.removal_core_search`:
    the charged root detection; a depth-first grow from the empty
    combination in which every visited combination gets a memoized,
    charged containment test against the whole family and, when negative,
    is extended by the inputs of a charged witness of the steering
    members' conditional at it (most members hit first, then ascending
    id; skipped uncharged when those members hold no input); one removal
    pass in ascending id; then restarts behind every way of excluding one
    input from each found member, each screened by a charged detection
    on the members disjoint from it, until ``l_max`` members are found or
    no restart finds a new one.  A spent ``test_budget`` raises
    ``BudgetExceeded`` with the members found so far.
    """
    if len(fam) == 0:
        raise EmptyFamily("cannot search an empty ad family")
    members = list(fam.members)
    whole = AdFamily(members)
    found, memo = [], {}
    used = 0

    def charge():
        nonlocal used
        used += 1
        if trace is not None:
            trace.tests_used = used
        if cfg.test_budget is not None and used > cfg.test_budget:
            raise BudgetExceeded(
                f"test budget {cfg.test_budget} exhausted", partial=_antichain(found),
                tests_used=used,
            )

    def log(kind, combo, outcome):
        if trace is not None:
            trace.log(kind, combo, outcome)

    def detect(sub):
        charge()
        res = detect_targeting(AdFamily(sub), cfg)
        log("detect", None, res)
        return res

    def test(c):
        if c.inputs not in memo:
            charge()
            memo[c.inputs] = contains_core_test(c, whole, cfg)
            log("contains", c, memo[c.inputs])
        return memo[c.inputs]

    def steer(sub, c):
        cond = conditional_members(sub, c)
        if not any(m.inputs for m in cond):
            return []
        charge()
        witness = find_x_intersecting_subset(AdFamily(cond), cfg.x, cfg.l_max)
        log("steer", None, None if witness is None else list(witness.inputs))
        if witness is None:
            return []
        return sorted(witness.inputs, key=lambda i: (-sum(i in m for m in cond), i))

    def grow(sub):
        depth_cap = cfg.r_max if cfg.r_max is not None else len({i for m in sub for i in m})
        seen = set()

        def walk(c, depth):
            if c.inputs in seen:
                return None
            seen.add(c.inputs)
            if test(c) is True:
                return c
            if depth >= depth_cap:
                return None
            for i in steer(sub, c):
                hit = walk(Combination((*c.inputs, i)), depth + 1)
                if hit is not None:
                    return hit
            return None

        return walk(Combination(), 0)

    def whittle(start):
        current = start
        for i in start.inputs:
            trial = Combination(j for j in current.inputs if j != i)
            if test(trial) is True:
                current = trial
        return current

    if not detect(members):
        return Family([])
    first = grow(members)
    if first is None:
        log("grow_exhausted", None, None)
        return Family([])
    found.append(whittle(first))
    exhausted = set()
    progress = True
    while progress and len(found) < cfg.l_max:
        progress = False
        for ex in dict.fromkeys(frozenset(p) for p in product(*(f.inputs for f in found))):
            if ex in exhausted:
                continue
            sub = exclusion_members(members, ex)
            if len(sub) < cfg.min_members or not detect(sub):
                exhausted.add(ex)
                continue
            grown = grow(sub)
            member = None if grown is None else whittle(grown)
            if member is None or member in found:
                exhausted.add(ex)
                continue
            found.append(member)
            progress = True
            break
    return _antichain(found)


def depth_block_queries(fam, cfg):
    """The distinct witness queries the removal search asks on ``fam``
    without a test budget, when it asks its grow walks a depth per block:
    each query as its threshold and its members' non-empty input sets,
    with the combination it reads as cleared stripped from them.

    The walk is :func:`removal_oracle`'s, on member indices, asking a
    query (one set of members read with one combination stripped) the
    first time a test needs it.  Before a grow's walk reaches a test
    whose query is not asked yet, it expands the tree under that
    combination and its siblings a depth at a time: each depth asks the
    containment query of every combination not tested yet (on
    ``min_members`` members or more) and the steer query of every one
    shallower than the depth cap, not known to be positive, whose
    steering members hold an input outside it; the next depth is the
    extensions by those steer witnesses, and the expansion ends after
    the first depth holding a positive.
    """
    if len(fam) == 0:
        raise EmptyFamily("cannot search an empty ad family")
    members = list(fam.members)
    everyone = tuple(range(len(members)))
    witnesses, queries, tested, found = {}, [], {}, []

    def holding(ids, c):
        return tuple(k for k in ids if c.issubset(members[k]))

    def asked(ids, c):
        return (ids, c.inputs) in witnesses

    def ask(ids, c):
        """The witness of the members ``ids``, all holding ``c``, with
        ``c`` stripped from them."""
        if not asked(ids, c):
            cond = AdFamily(conditional_members([members[k] for k in ids], c))
            witnesses[ids, c.inputs] = find_x_intersecting_subset(cond, cfg.x, cfg.l_max)
            queries.append((
                intersect_threshold(cfg.x, len(ids)),
                tuple(sorted(m.inputs for m in cond.members if m.inputs)),
            ))
        return witnesses[ids, c.inputs]

    def test(c):
        if c.inputs not in tested:
            cond = holding(everyone, c)
            tested[c.inputs] = None if len(cond) < cfg.min_members else ask(cond, c) is None
        return tested[c.inputs]

    def steering(ids, c):
        """The members of ``ids`` holding ``c``, or None when none of them
        holds an input outside it."""
        sub = holding(ids, c)
        return sub if any(set(members[k].inputs) - set(c.inputs) for k in sub) else None

    def expand(ids, cap, level, depth):
        while level:
            positive, grown = False, {}
            for c in level:
                cond = holding(everyone, c)
                known = tested.get(c.inputs)
                if c.inputs not in tested and len(cond) >= cfg.min_members:
                    if asked(cond, c):
                        known = witnesses[cond, c.inputs] is None
                    else:
                        positive = ask(cond, c) is None or positive
                positive = positive or known is True
                sub = steering(ids, c)
                if depth < cap and known is not True and sub is not None:
                    for i in getattr(ask(sub, c), "inputs", ()):
                        grown[tuple(sorted((*c.inputs, i)))] = None
            if positive:
                return
            level, depth = [Combination(k) for k in grown], depth + 1

    def grow(ids):
        cap = cfg.r_max
        if cap is None:
            cap = len({i for k in ids for i in members[k].inputs})
        seen = set()

        def walk(level, at, depth):
            c = level[at]
            if c.inputs in seen:
                return None
            seen.add(c.inputs)
            cond = holding(everyone, c)
            if c.inputs not in tested and len(cond) >= cfg.min_members and not asked(cond, c):
                expand(ids, cap, level, depth)
            if test(c) is True:
                return c
            sub = steering(ids, c)
            if depth >= cap or sub is None:
                return None
            if not asked(sub, c):
                expand(ids, cap, level, depth)
            witness = ask(sub, c)
            rows = witness.inputs if witness is not None else ()
            rows = sorted(rows, key=lambda i: (-sum(i in members[k].inputs for k in sub), i))
            kids = [Combination((*c.inputs, i)) for i in rows]
            for k in range(len(kids)):
                hit = walk(kids, k, depth + 1)
                if hit is not None:
                    return hit
            return None

        return walk([Combination()], 0, 0)

    def whittle(start):
        current = start
        for i in start.inputs:
            trial = Combination(j for j in current.inputs if j != i)
            if test(trial) is True:
                current = trial
        return current

    def detect(ids):
        return len(ids) >= cfg.min_members and ask(ids, Combination()) is not None

    if not detect(everyone):
        return queries
    first = grow(everyone)
    if first is None:
        return queries
    found.append(whittle(first))
    exhausted = set()
    progress = True
    while progress and len(found) < cfg.l_max:
        progress = False
        for ex in dict.fromkeys(frozenset(p) for p in product(*(f.inputs for f in found))):
            if ex in exhausted:
                continue
            sub = tuple(k for k in everyone if ex.isdisjoint(members[k].inputs))
            if not detect(sub):
                exhausted.add(ex)
                continue
            grown = grow(sub)
            member = None if grown is None else whittle(grown)
            if member is None or member in found:
                exhausted.add(ex)
                continue
            found.append(member)
            progress = True
            break
    return queries


# ------------------------------------------------------------ scoring


def behavioral_likelihood(active_accounts, input_accounts, n_accounts, params) -> float:
    """Log-likelihood of A_k under one hypothesis, from set sizes.

    For input hypothesis A_i: every account is an independent Bernoulli,
    p_in inside A_i and p_out outside; for the untargeted hypothesis
    (``input_accounts=None``) every account sees the output with p_empty.
    """
    a_k = frozenset(int(j) for j in active_accounts)
    k = len(a_k)
    if input_accounts is None:
        return k * math.log(params.p_empty) + (n_accounts - k) * math.log1p(
            -params.p_empty
        )
    a_i = frozenset(int(j) for j in input_accounts)
    hit = len(a_i & a_k)
    return (
        hit * math.log(params.p_in)
        + (len(a_i) - hit) * math.log1p(-params.p_in)
        + (k - hit) * math.log(params.p_out)
        + (n_accounts - len(a_i) - k + hit) * math.log1p(-params.p_out)
    )


def contextual_likelihood(counts, input_id, params) -> float:
    """Log-likelihood of per-input display counts under one hypothesis:
    x_i log p_in + (sum - x_i) log p_out, or sum log p_empty when
    untargeted (``input_id=None``)."""
    total = sum(int(c) for c in counts)
    if input_id is None:
        return total * math.log(params.p_empty)
    xi = int(counts[input_id])
    return xi * math.log(params.p_in) + (total - xi) * math.log(params.p_out)


def composite_score(behavioral_max, contextual_max):
    """Arithmetic mean of the present per-model maxima; None (= unknown)
    when both are absent."""
    present = [s for s in (behavioral_max, contextual_max) if s is not None]
    if not present:
        return None
    for s in present:
        if not 0.0 <= s <= 1.0:
            raise ValueError(f"score {s} outside [0,1]")
    return sum(present) / len(present)


def _scalar_posterior(loglik, params):
    n = len(loglik) - 1
    if params.priors is None:
        log_prior = [-math.log(n + 1)] * (n + 1)
    else:
        total = sum(params.priors)
        log_prior = [math.log(w / total) for w in params.priors]
    log_post = [a + b for a, b in zip(loglik, log_prior)]
    hi = max(log_post)
    z = hi + math.log(sum(math.exp(v - hi) for v in log_post))
    return [math.exp(v - z) for v in log_post], z


def bayes_oracle(active, counts, membership, params, ctx_params, floor):
    """One output's Bayes verdict hypothesis by hypothesis, in plain
    Python: ``{"verdict", "target", "combined", "posteriors"}`` where
    ``posteriors`` maps channel name to (probabilities, log normalizer)."""
    posts = {}
    if active is not None:
        m, n = membership.shape
        loglik = [
            behavioral_likelihood(active, np.nonzero(membership[:, i])[0], m, params)
            for i in range(n)
        ] + [behavioral_likelihood(active, None, m, params)]
        posts["behavioral"] = _scalar_posterior(loglik, params)
    if counts is not None:
        cp = ctx_params or params
        loglik = [contextual_likelihood(counts, i, cp) for i in range(len(counts))]
        posts["contextual"] = _scalar_posterior(loglik + [contextual_likelihood(counts, None, cp)], cp)
    if not posts:
        return {"verdict": "unknown", "target": None, "combined": None, "posteriors": {}}
    vecs = [p for p, _ in posts.values()]
    combined = [sum(col) / len(vecs) for col in zip(*vecs)]
    winner = max(range(len(combined)), key=lambda i: (combined[i], -i))
    targeted = winner < len(combined) - 1 and combined[winner] >= floor
    return {
        "verdict": "targeted" if targeted else "untargeted",
        "target": winner if targeted else None,
        "combined": combined,
        "posteriors": posts,
    }


def learn_oracle(observations, score, in_slots, out_slots, empty_slots, init,
                 tol=1e-3, max_iter=50, floor=0.5):
    """The moment-matching loop output by output.  ``observations`` maps
    output id to (per-input evidence list, total); ``score(oid, params)``
    returns that output's :func:`bayes_oracle` result."""
    from dataclasses import replace

    params, history, converged, iterations = init, [], False, 0
    for iterations in range(1, max_iter + 1):
        acc = dict(in_seen=0, in_total=0, out_seen=0, out_total=0, e_seen=0, e_total=0)
        for oid, (evidence, total) in sorted(observations.items()):
            res = score(oid, params)
            if res["verdict"] == "targeted":
                i = res["target"]
                acc["in_seen"] += evidence[i]
                acc["in_total"] += in_slots[i]
                acc["out_seen"] += total - evidence[i]
                acc["out_total"] += out_slots[i]
            else:
                acc["e_seen"] += total
                acc["e_total"] += empty_slots
        p_in = acc["in_seen"] / acc["in_total"] if acc["in_total"] else params.p_in
        p_out = acc["out_seen"] / acc["out_total"] if acc["out_total"] else params.p_out
        p_empty = acc["e_seen"] / acc["e_total"] if acc["e_total"] else params.p_empty
        p_in = min(max(p_in, 1e-6), 1.0 - 1e-6)
        p_empty = min(max(p_empty, 1e-6), 1.0 - 1e-6)
        p_out = min(max(p_out, 1e-7), p_in * (1.0 - 1e-9))
        delta = max(abs(p_in - params.p_in), abs(p_out - params.p_out),
                    abs(p_empty - params.p_empty))
        params = replace(params, p_in=p_in, p_out=p_out, p_empty=p_empty)
        history.append((p_in, p_out, p_empty))
        if delta < tol:
            converged = True
            break
    return params, iterations, converged, tuple(history)


def learn_params_loop_oracle(seen, placement, init, tol=1e-3, max_iter=50, floor=0.5):
    """``learn_params`` run round by round until it converges or reaches
    ``max_iter``, scoring every output with the library's posteriors:
    ``(params, iterations, converged, history)``, with no shortcut for a
    run that cycles."""
    from dataclasses import replace

    from xcorr.bayes import behavioral_evidence, log_likelihoods, posteriors

    ev = behavioral_evidence(seen, placement)
    hits, seen = ev.hits.astype(np.int64), ev.seen.astype(np.int64)
    in_slots = ev.sizes.astype(np.int64)
    m, n = placement.n_accounts, ev.n_inputs
    params, history, converged, iterations = init, [], False, 0
    for iterations in range(1, max_iter + 1):
        probs, _ = posteriors(log_likelihoods(ev, params), params)
        acc = dict(in_seen=0, in_total=0, out_seen=0, out_total=0, e_seen=0, e_total=0)
        for k, row in enumerate(probs):
            i = int(row.argmax())
            if i < n and row[i] >= floor:
                acc["in_seen"] += int(hits[k, i])
                acc["in_total"] += int(in_slots[i])
                acc["out_seen"] += int(seen[k]) - int(hits[k, i])
                acc["out_total"] += m - int(in_slots[i])
            else:
                acc["e_seen"] += int(seen[k])
                acc["e_total"] += m
        p_in = acc["in_seen"] / acc["in_total"] if acc["in_total"] else params.p_in
        p_out = acc["out_seen"] / acc["out_total"] if acc["out_total"] else params.p_out
        p_empty = acc["e_seen"] / acc["e_total"] if acc["e_total"] else params.p_empty
        p_in = min(max(p_in, 1e-6), 1.0 - 1e-6)
        p_empty = min(max(p_empty, 1e-6), 1.0 - 1e-6)
        p_out = min(max(p_out, 1e-7), p_in * (1.0 - 1e-9))
        delta = max(abs(p_in - params.p_in), abs(p_out - params.p_out),
                    abs(p_empty - params.p_empty))
        params = replace(params, p_in=p_in, p_out=p_out, p_empty=p_empty)
        history.append((p_in, p_out, p_empty))
        if delta < tol:
            converged = True
            break
    return params, iterations, converged, tuple(history)


# --------------------------------------------------------- simulation


def build_specs_oracle(cfg, rng):
    """One trial's workload as ``TargetingSpec`` objects, drawn with plain
    ``rng.choice`` calls: per targeted output its size l and order r,
    then l*r distinct inputs chunked into l members; with overlap groups
    the targeted outputs cycle through the groups' singleton cores and
    nothing is drawn.  Untargeted outputs follow."""
    from xcorr.simulator import TargetingSpec

    specs = []
    for oid in range(cfg.n_targeted):
        if cfg.overlap_groups is None:
            l, r = int(rng.choice(cfg.l_values)), int(rng.choice(cfg.r_values))
            ids = rng.choice(cfg.n_inputs, size=l * r, replace=False).tolist()
            core = Family([ids[k * r : (k + 1) * r] for k in range(l)])
        else:
            core = Family([(i,) for i in cfg.overlap_groups[oid % len(cfg.overlap_groups)]])
        specs.append(TargetingSpec(oid, core, cfg.p_in, cfg.p_out, channel=cfg.targeted_channel))
    first = cfg.n_targeted
    specs += [TargetingSpec(oid, p_empty=cfg.p_empty)
              for oid in range(first, first + cfg.n_untargeted)]
    return specs


def _spec_streams(seed, k):
    """One generator per spec, from ``seed.spawn(k)`` children."""
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(int(seed))
    return [np.random.Generator(np.random.PCG64(child)) for child in ss.spawn(k)]


def _effective(p, rounds):
    return -np.expm1(rounds * np.log1p(-p)) if p < 1.0 else 1.0


def simulate_behavioral_oracle(membership, specs, rounds, seed):
    """Per-spec behavioral draw: ``(seen, in_target, out_of_target)``,
    each mapping output id to a frozenset of accounts."""
    m = membership.shape[0]
    seen, in_target, out_of_target = {}, {}, {}
    for spec, rng in zip(specs, _spec_streams(seed, len(specs))):
        in_mask = np.zeros(m, dtype=bool)
        if spec.is_targeted and spec.channel == "behavioral":
            for member in spec.core.combinations:
                in_mask |= membership[:, list(member.inputs)].all(axis=1)
            p = np.where(
                in_mask, _effective(spec.p_in, rounds), _effective(spec.p_out, rounds)
            )
        else:
            p = _effective(spec.p_out if spec.is_targeted else spec.p_empty, rounds)
        row = rng.random(m) < p
        hit = row & in_mask
        seen[spec.output_id] = frozenset(row.nonzero()[0].tolist())
        in_target[spec.output_id] = frozenset(hit.nonzero()[0].tolist())
        out_of_target[spec.output_id] = frozenset((row ^ hit).nonzero()[0].tolist())
    return seen, in_target, out_of_target


def simulate_contextual_oracle(user, specs, displays, seed, n_inputs):
    """Per-spec contextual draw: output id -> length-n_inputs counts."""
    counts = {}
    for spec, rng in zip(specs, _spec_streams(seed, len(specs))):
        x = np.zeros(n_inputs, dtype=np.int64)
        if user:
            if not spec.is_targeted:
                p = np.full(len(user), spec.p_empty)
            elif spec.channel == "contextual":
                keyed = {c.inputs for c in spec.core.combinations}
                p = np.array([spec.p_in if (i,) in keyed else spec.p_out for i in user])
            else:
                p = np.full(len(user), spec.p_out)
            x[list(user)] = rng.binomial(displays, p)
        counts[spec.output_id] = x
    return counts


def scenario_config_asdict(cfg) -> dict:
    """``ScenarioConfig.to_dict`` by way of ``dataclasses.asdict``: a deep
    copy of every field, with tuples written as lists."""
    doc = dataclasses.asdict(cfg)
    for f in ("l_values", "r_values", "algorithms"):
        doc[f] = list(doc[f])
    if doc["overlap_groups"] is not None:
        doc["overlap_groups"] = [list(g) for g in doc["overlap_groups"]]
    return doc


# ------------------------------------------------------ input matching


@dataclass(frozen=True)
class ContextualSignature:
    """One input's display-count vector, stored sparsely.

    ``coords`` maps output_id to a positive display count; outputs never
    displayed next to the input are simply absent.
    """

    input_id: int
    coords: dict[int, int]

    def __init__(self, input_id, coords=()):
        items = dict(coords)
        for k, v in items.items():
            if v < 0:
                raise DomainError(f"display counts must be >= 0, got {v} for output {k}")
        object.__setattr__(self, "input_id", int(input_id))
        object.__setattr__(
            self, "coords", {int(k): int(v) for k, v in sorted(items.items()) if v}
        )

    @property
    def is_zero(self) -> bool:
        return not self.coords

    @property
    def norm(self) -> float:
        return math.sqrt(sum(v * v for v in self.coords.values()))


def oracle_signatures(contextual, n_inputs):
    """One sparse signature per input from output_id -> count vectors."""
    return [
        ContextualSignature(i, {int(k): int(v[i]) for k, v in contextual.items()})
        for i in range(n_inputs)
    ]


def signature_distance(a, b, raw=False) -> float:
    """Euclidean distance over the union of output dimensions, summed in
    ascending output id.  Signatures are L2-normalized first unless
    ``raw`` is set; an all-zero signature stays the zero vector."""
    na = (a.norm if not raw else 1.0) or 1.0
    nb = (b.norm if not raw else 1.0) or 1.0
    total = 0.0
    for k in sorted(a.coords.keys() | b.coords.keys()):
        d = a.coords.get(k, 0) / na - b.coords.get(k, 0) / nb
        total += d * d
    return math.sqrt(total)


def cluster_inputs_oracle(signatures, distance_threshold, raw=False):
    """Single-linkage partition, one :func:`signature_distance` per pair
    of non-zero signatures: sorted id lists, ordered by first member."""
    sigs = list(signatures)
    ids = [s.input_id for s in sigs]
    parent = {i: i for i in ids}

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    active = [s for s in sigs if not s.is_zero]
    for a, b in itercombos(active, 2):
        if signature_distance(a, b, raw=raw) < distance_threshold:
            parent[find(a.input_id)] = find(b.input_id)
    groups = {}
    for i in ids:
        groups.setdefault(find(i), []).append(i)
    return sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])


# ------------------------------------------------------------ set views


def account_inputs(placement, account_id) -> Combination:
    """The input set of one account, as a Combination."""
    return Combination(np.flatnonzero(placement.membership[account_id]).tolist())


def input_accounts(placement, input_id) -> frozenset:
    """A_i: the accounts holding input i."""
    return frozenset(np.flatnonzero(placement.membership[:, input_id]).tolist())


def _split(trace, accounts) -> dict:
    return {
        oid: frozenset(np.flatnonzero(row).tolist())
        for oid, row in zip(trace.output_ids, accounts)
    }


def in_target(trace) -> dict:
    """Output id -> the active accounts inside the output's target."""
    return _split(trace, trace.seen & trace.in_target_mask)


def out_of_target(trace) -> dict:
    """Output id -> the active accounts outside the output's target."""
    return _split(trace, trace.seen & ~trace.in_target_mask)
