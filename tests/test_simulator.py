import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    account_inputs,
    build_specs_oracle,
    in_target,
    out_of_target,
    simulate_behavioral_oracle,
    simulate_contextual_oracle,
)
from xcorr.core_model import Combination, Family, eval_targeting
from xcorr.errors import ConfigError, DomainError, SpecError
from xcorr.experiment import ScenarioConfig
from xcorr.placement import PlacementConfig, PlacementMatrix, bernoulli_placement
from xcorr.simulator import (
    CONTEXTUAL,
    ObservationSet,
    SpecTable,
    TargetingSpec,
    simulate_behavioral,
    simulate_contextual,
)


def full_placement(m, n):
    return PlacementMatrix(np.ones((m, n), dtype=bool))


# ----------------------------------------------------------- validation


def test_spec_validation():
    with pytest.raises(SpecError):
        TargetingSpec.targeted(0, [(1,)], p_in=0.5, p_out=0.5)  # not p_out < p_in
    with pytest.raises(SpecError):
        TargetingSpec.targeted(0, [], p_in=0.7, p_out=0.0)  # empty core
    with pytest.raises(SpecError):
        TargetingSpec.targeted(0, [(1,), (1, 2)], p_in=0.7, p_out=0.0)  # chain
    with pytest.raises(SpecError):
        TargetingSpec.untargeted(0, p_empty=0.0)
    with pytest.raises(SpecError):
        TargetingSpec.untargeted(0, p_empty=1.1)
    with pytest.raises(SpecError):
        TargetingSpec.targeted(0, [(1, 2)], p_in=0.7, p_out=0.0, channel=CONTEXTUAL)
    with pytest.raises(SpecError):
        TargetingSpec(output_id=0, core=Family([(1,)]), p_in=0.7, channel="social")
    # order-1, multi-member contextual core is allowed (group ads)
    TargetingSpec.targeted(0, [(1,), (2,)], p_in=0.7, p_out=0.0, channel=CONTEXTUAL)


def test_rounds_and_universe_validation():
    pm = full_placement(3, 2)
    spec = TargetingSpec.targeted(0, [(0,)], p_in=0.9, p_out=0.0)
    with pytest.raises(SpecError):
        simulate_behavioral(pm, [spec], rounds=0)
    bad = TargetingSpec.targeted(1, [(5,)], p_in=0.9, p_out=0.0)
    with pytest.raises(SpecError):
        simulate_behavioral(pm, [bad], rounds=1)
    with pytest.raises(SpecError):
        simulate_behavioral(pm, [spec, spec], rounds=1)  # duplicate ids


def test_spec_table_keeps_each_spec_on_its_own_stream():
    cfg = ScenarioConfig(
        n_inputs=9, n_targeted=6, n_untargeted=3, l_values=(1, 2), r_values=(1, 2, 3)
    )
    specs = build_specs_oracle(cfg, np.random.default_rng(4))
    specs[1] = dataclasses.replace(specs[1], channel=CONTEXTUAL, core=Family([(0,), (5,)]))
    pm = bernoulli_placement(PlacementConfig(n_inputs=9, n_accounts=40, alpha=0.5, seed=3))
    user = Combination(range(9))
    for order in ([*range(9)], [4, 8, 0, 6, 2, 7, 1, 5, 3]):  # in and out of id order
        listed = [specs[j] for j in order]
        table = SpecTable.from_specs(listed)
        assert table.output_ids == tuple(range(9))
        assert [order[j] for j in table.stream] == list(range(9))
        (obs, trace), (obs_l, trace_l) = (
            simulate_behavioral(pm, s, rounds=2, seed=11) for s in (table, listed)
        )
        assert obs.output_ids == obs_l.output_ids == table.output_ids
        assert np.array_equal(obs.seen, obs_l.seen)
        assert np.array_equal(trace.in_target_mask, trace_l.in_target_mask)
        seen, want_in, _ = simulate_behavioral_oracle(pm.membership, listed, 2, 11)
        assert obs.behavioral == seen
        assert in_target(trace) == want_in
        counts = simulate_contextual(user, table, 30, seed=12, n_inputs=9)
        assert np.array_equal(counts, simulate_contextual(user, listed, 30, seed=12, n_inputs=9))
        want = simulate_contextual_oracle(user.inputs, listed, 30, 12, 9)
        assert counts.tolist() == [want[oid].tolist() for oid in table.output_ids]


def test_spec_table_checks():
    spec = TargetingSpec.targeted(3, [(0,), (4, 6)], p_in=0.9, p_out=0.0)
    with pytest.raises(SpecError, match="duplicate"):
        SpecTable.from_specs([spec, spec])
    table = SpecTable.from_specs([spec])
    assert table.width == 7
    table.check_universe(7)
    with pytest.raises(SpecError, match=r"output 3: .*\{4, 6\}.* outside 0..5"):
        table.check_universe(6)
    empty = SpecTable.from_specs([])
    assert len(empty) == 0 and empty.width == 0 and empty.n_targeted == 0


# ----------------------------------------------------------- behavioral


def test_strict_targeting_only_hits_in_target():
    cfg = PlacementConfig(n_inputs=12, n_accounts=60, alpha=0.4, seed=3)
    pm = bernoulli_placement(cfg)
    core = Family([(1, 4), (7,)])
    spec = TargetingSpec.targeted(0, core, p_in=0.9, p_out=0.0)
    obs, trace = simulate_behavioral(pm, [spec], rounds=2, seed=11)
    for j in obs.behavioral[0]:
        assert eval_targeting(core, account_inputs(pm, j))
    assert out_of_target(trace)[0] == frozenset()
    assert in_target(trace)[0] == obs.behavioral[0]


def test_certain_coverage():
    pm = full_placement(25, 3)
    spec = TargetingSpec.targeted(0, [(0,)], p_in=1.0, p_out=0.0)
    obs, _ = simulate_behavioral(pm, [spec], rounds=1, seed=0)
    assert obs.behavioral[0] == frozenset(range(25))


def test_coverage_concentration():
    m = 10_000
    pm = full_placement(m, 1)
    spec = TargetingSpec.targeted(0, [(0,)], p_in=0.7, p_out=0.0)
    obs, _ = simulate_behavioral(pm, [spec], rounds=1, seed=42)
    freq = len(obs.behavioral[0]) / m
    sigma = math.sqrt(0.7 * 0.3 / m)
    assert abs(freq - 0.7) < 3 * sigma


def test_rounds_collapse():
    m = 10_000
    pm = full_placement(m, 1)
    spec = TargetingSpec.targeted(0, [(0,)], p_in=0.5, p_out=0.0)
    obs, _ = simulate_behavioral(pm, [spec], rounds=3, seed=9)
    eff = 1 - 0.5**3
    freq = len(obs.behavioral[0]) / m
    assert abs(freq - eff) < 3 * math.sqrt(eff * (1 - eff) / m)


def test_contextual_channel_has_no_behavioral_audience():
    cfg = PlacementConfig(n_inputs=6, n_accounts=400, alpha=0.5, seed=1)
    pm = bernoulli_placement(cfg)
    spec = TargetingSpec.targeted(
        0, [(2,)], p_in=0.9, p_out=0.05, channel=CONTEXTUAL
    )
    obs, trace = simulate_behavioral(pm, [spec], rounds=1, seed=5)
    # appears only at the out-of-context rate, independent of contents
    assert len(obs.behavioral[0]) < 0.15 * 400
    assert in_target(trace)[0] == frozenset()


def test_untargeted_independence_chi_squared():
    cfg = PlacementConfig(n_inputs=5, n_accounts=4000, alpha=0.5, seed=2)
    pm = bernoulli_placement(cfg)
    spec = TargetingSpec.untargeted(0, p_empty=0.3)
    obs, _ = simulate_behavioral(pm, [spec], rounds=1, seed=8)
    seen = np.zeros(4000, dtype=bool)
    seen[list(obs.behavioral[0])] = True
    for i in range(5):
        col = pm.membership[:, i]
        chi2 = 0.0
        for s in (True, False):
            for c in (True, False):
                obs_count = int(np.sum((seen == s) & (col == c)))
                exp = np.sum(seen == s) * np.sum(col == c) / 4000
                chi2 += (obs_count - exp) ** 2 / exp
        assert chi2 < 6.6349  # 1 dof, p=0.01


def test_determinism_and_seed_sensitivity():
    cfg = PlacementConfig(n_inputs=8, n_accounts=50, alpha=0.4, seed=4)
    pm = bernoulli_placement(cfg)
    specs = [
        TargetingSpec.targeted(0, [(1,)], p_in=0.7, p_out=0.01),
        TargetingSpec.untargeted(1, p_empty=0.4),
    ]
    a1, t1 = simulate_behavioral(pm, specs, rounds=2, seed=123)
    a2, _ = simulate_behavioral(pm, specs, rounds=2, seed=123)
    a3, _ = simulate_behavioral(pm, specs, rounds=2, seed=124)
    assert a1.behavioral == a2.behavioral
    assert a1.behavioral != a3.behavioral
    for k in (0, 1):
        assert in_target(t1)[k] | out_of_target(t1)[k] == a1.behavioral[k]
        assert not (in_target(t1)[k] & out_of_target(t1)[k])


# ----------------------------------------------------------- contextual


def test_contextual_strict():
    spec = TargetingSpec.targeted(
        0, [(5,)], p_in=0.6, p_out=0.0, channel=CONTEXTUAL
    )
    counts = simulate_contextual(
        Combination(range(8)), [spec], displays_per_input=200, seed=3, n_inputs=8
    )
    x = counts[0]
    assert x[5] > 0
    assert all(x[i] == 0 for i in range(8) if i != 5)


def test_contextual_user_inputs_must_lie_in_the_universe():
    spec = TargetingSpec.untargeted(0, p_empty=0.3)
    with pytest.raises(SpecError, match="outside 0..9"):
        simulate_contextual(Combination([0, 10]), [spec], 5, seed=0, n_inputs=10)
    counts = simulate_contextual(Combination([0, 2]), [spec], 5, seed=0, n_inputs=10)
    assert counts[0].shape == (10,)


def test_contextual_degenerate_uniform():
    spec = TargetingSpec.untargeted(0, p_empty=0.3)
    counts = simulate_contextual(
        Combination(range(10)), [spec], displays_per_input=500, seed=7, n_inputs=10
    )
    x = counts[0]
    assert np.all(np.abs(x - 150) < 5 * math.sqrt(500 * 0.3 * 0.7))


def test_contextual_self_ads():
    # several self-advertising outputs: each concentrates on its own input
    specs = [
        TargetingSpec.targeted(
            k, [(k,)], p_in=0.58, p_out=0.04, channel=CONTEXTUAL
        )
        for k in range(4)
    ]
    counts = simulate_contextual(
        Combination(range(6)), specs, displays_per_input=50, seed=1, n_inputs=6
    )
    for k in range(4):
        assert int(np.argmax(counts[k])) == k


def test_contextual_group_ad_fires_on_all_members():
    spec = TargetingSpec.targeted(
        0, [(0,), (1,), (2,)], p_in=0.9, p_out=0.0, channel=CONTEXTUAL
    )
    counts = simulate_contextual(
        Combination(range(5)), [spec], displays_per_input=100, seed=2, n_inputs=5
    )
    x = counts[0]
    assert all(x[i] > 50 for i in range(3))
    assert x[3] == 0 and x[4] == 0


def test_behavioral_spec_is_flat_in_contextual_channel():
    spec = TargetingSpec.targeted(0, [(1, 2)], p_in=0.9, p_out=0.05)
    counts = simulate_contextual(
        Combination(range(4)), [spec], displays_per_input=1000, seed=4, n_inputs=4
    )
    x = counts[0]
    assert np.all(np.abs(x - 50) < 5 * math.sqrt(1000 * 0.05 * 0.95))


def test_observation_set_json_roundtrip():
    pm = full_placement(6, 3)
    specs = [
        TargetingSpec.targeted(0, [(0,)], p_in=0.8, p_out=0.01),
        TargetingSpec.untargeted(1, p_empty=0.5),
    ]
    obs, _ = simulate_behavioral(pm, specs, rounds=2, seed=6)
    ctx = simulate_contextual(Combination(range(3)), specs, 20, seed=6, n_inputs=3)
    obs = dataclasses.replace(obs, contextual=ctx, displays_per_input=20)
    back = ObservationSet.from_json(obs.to_json())
    assert back.behavioral == obs.behavioral
    assert back.contextual.dtype == np.int64
    assert np.array_equal(back.contextual, obs.contextual)
    assert back.rounds == 2 and back.displays_per_input == 20
    assert back.contextual.flags.writeable is False
    unseen = dataclasses.replace(obs, contextual=None)
    assert json.loads(unseen.to_json())["contextual"] == {}
    assert ObservationSet.from_json(unseen.to_json()).contextual is None
    with pytest.raises(DomainError, match="contextual matrix of shape"):
        dataclasses.replace(obs, contextual=ctx[:1])


def _one_output(counts):
    return ObservationSet(output_ids=(0,), seen=np.zeros((1, 2), dtype=bool),
                          contextual=counts, n_accounts=2, n_inputs=2)


@pytest.mark.parametrize("counts", [
    np.array([[1.5, -2.0]]),
    np.array([[1.0, 2.0]]),
    np.array([[1, -2]]),
    np.array([[True, False]]),
    np.array([[2**63, 0]], dtype=np.uint64),
])
def test_observation_set_rejects_counts_its_json_cannot_hold(counts):
    # its to_json would write counts that from_json rejects
    with pytest.raises(DomainError, match="contextual counts"):
        _one_output(counts)


@pytest.mark.parametrize("dtype", [np.int64, np.int8, np.uint8, np.uint64])
def test_observation_set_counts_round_trip(dtype):
    top = min(np.iinfo(dtype).max, np.iinfo(np.int64).max)
    obs = _one_output(np.array([[0, top]], dtype=dtype))
    back = ObservationSet.from_json(obs.to_json())
    assert back.contextual.tolist() == [[0, top]]
    assert back.to_json() == obs.to_json()


@pytest.mark.parametrize("n_outputs", [1, 3])
def test_observations_without_placement_reject_a_seen_matrix_numpy_cannot_hold(n_outputs):
    # 2**62 accounts fit in int64, but a K x 2**62 seen matrix is past the
    # bound a placement draw has; it is refused before numpy is asked
    doc = {
        "behavioral": {str(k): [0] for k in range(n_outputs)},
        "contextual": {},
        "n_accounts": 2**62,
        "n_inputs": 2,
        "rounds": 1,
        "displays_per_input": 0,
    }
    with pytest.raises(ConfigError, match="too large to allocate"):
        ObservationSet.from_json(json.dumps(doc))


# ------------------------------------------------------------ oracle


@st.composite
def _workloads(draw):
    """A placement, a spec list of every kind (multi-member behavioral
    cores, contextual-channel cores, untargeted; possibly empty, ids in
    any order), rounds and a seed."""
    n = draw(st.integers(1, 9))
    m = draw(st.integers(1, 30))
    membership = np.array(
        draw(st.lists(st.booleans(), min_size=m * n, max_size=m * n)), dtype=bool
    ).reshape(m, n)
    ids = draw(st.permutations(range(draw(st.integers(0, 8)))))
    specs = []
    for oid in ids:
        kind = draw(st.sampled_from(["behavioral", "contextual", "untargeted"]))
        if kind == "untargeted":
            specs.append(TargetingSpec.untargeted(oid, draw(st.floats(0.01, 1.0))))
            continue
        p_out = draw(st.floats(0.0, 0.5))
        p_in = draw(st.floats(p_out + 0.01, 1.0))
        if kind == "contextual":
            inputs = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3))
            core = [(i,) for i in inputs]
        else:
            # disjoint members are an antichain
            pool = draw(st.permutations(range(n)))
            sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
            core, start = [], 0
            for size in sizes:
                if start + size > n:
                    break
                core.append(tuple(pool[start : start + size]))
                start += size
            core = core or [(pool[0],)]
        specs.append(TargetingSpec.targeted(oid, core, p_in, p_out, channel=kind))
    rounds = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**64 - 1))
    return membership, specs, rounds, seed


@settings(max_examples=150, deadline=None)
@given(_workloads(), st.integers(1, 40))
def test_columnar_simulators_equal_the_per_spec_oracle(workload, displays):
    membership, specs, rounds, seed = workload
    pm = PlacementMatrix(membership)
    obs, trace = simulate_behavioral(pm, specs, rounds=rounds, seed=seed)
    seen, expect_in, expect_out = simulate_behavioral_oracle(membership, specs, rounds, seed)
    assert obs.output_ids == tuple(sorted(seen))
    assert obs.seen.shape == (len(specs), pm.n_accounts)
    for oid, row in zip(obs.output_ids, obs.seen):
        assert frozenset(np.flatnonzero(row).tolist()) == seen[oid]
    assert obs.behavioral == seen
    assert in_target(trace) == expect_in
    assert out_of_target(trace) == expect_out
    assert ObservationSet.from_json(obs.to_json()).behavioral == seen

    n = pm.n_inputs
    user = Combination(i for i in range(n) if (seed >> i) & 1)
    got = simulate_contextual(user, specs, displays, seed=seed, n_inputs=n)
    want = simulate_contextual_oracle(user.inputs, specs, displays, seed, n)
    assert got.shape == (len(specs), n)
    assert got.tolist() == [want[oid].tolist() for oid in obs.output_ids]


@st.composite
def _contextual_draws(draw):
    """Specs of every kind over up to 24 inputs, ids in any order, hit
    probabilities at 0 and 1 as well as between, contextual cores keyed
    on inputs that need not be contiguous, and a user set that is empty,
    the whole universe or any subset."""
    n = draw(st.integers(1, 24))
    probs = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    specs = []
    for oid in draw(st.permutations(range(draw(st.integers(0, 6))))):
        kind = draw(st.sampled_from(["behavioral", "contextual", "untargeted"]))
        if kind == "untargeted":
            p_empty = draw(st.just(1.0) | st.floats(0.01, 1.0))
            specs.append(TargetingSpec.untargeted(oid, p_empty))
            continue
        p_out, p_in = sorted(draw(st.lists(probs, min_size=2, max_size=2, unique=True)))
        inputs = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=8))
        specs.append(TargetingSpec.targeted(
            oid, [(i,) for i in inputs], p_in, p_out, channel=kind
        ))
    user = draw(st.just(set()) | st.just(set(range(n))) | st.sets(st.integers(0, n - 1)))
    return n, specs, Combination(user)


@settings(max_examples=200, deadline=None)
@given(_contextual_draws(), st.integers(1, 60), st.integers(0, 2**64 - 1))
def test_contextual_runs_equal_the_array_p_oracle(draw, displays, seed):
    # simulate_contextual draws a row one scalar-p call per run of inputs
    # that share a probability; the oracle draws it in one array-p call
    n, specs, user = draw
    got = simulate_contextual(user, specs, displays, seed=seed, n_inputs=n)
    want = simulate_contextual_oracle(user.inputs, specs, displays, seed, n)
    assert got.dtype == np.int64 and got.shape == (len(specs), n)
    assert got.tolist() == [want[oid].tolist() for oid in sorted(want)]
