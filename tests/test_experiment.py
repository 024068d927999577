import dataclasses
import json

import numpy as np
import pytest

from oracles import build_specs_oracle, scenario_config_asdict
from xcorr.core_model import Family
from xcorr.errors import ConfigError, MismatchedUniverse, parse_artifact
from xcorr.experiment import (
    CorrelationStore,
    PRESETS,
    ScenarioConfig,
    Truth,
    build_specs,
    canonical_json,
    detect_knee,
    matching_specs,
    precision_recall,
    project_family,
    run_scenario,
    run_trial,
    scaling_sweep,
    scenario_hash,
    wilson_interval,
)
from xcorr.experiment.config import MATCH_AD_BASE
from xcorr.placement import PlacementMatrix
from xcorr.prediction import TARGETED, UNKNOWN, UNTARGETED, Verdict, Verdicts
from xcorr.set_intersection import SetIntersectionConfig, predict_set_intersection
from xcorr.simulator import CONTEXTUAL, ObservationSet, SpecTable, TargetingSpec
from xcorr.threshold_analysis import recommend_config


# ---------------------------------------------------------------- config


def test_config_json_roundtrip():
    cfg = ScenarioConfig(
        n_inputs=12, n_targeted=3, n_untargeted=2, l_values=(1, 2), r_values=(2,),
        algorithms=("bayes", "setint"), algo_config={"setint": {"threshold": 0.8}},
        seed=42,
    )
    again = ScenarioConfig.from_dict(parse_artifact(canonical_json(cfg.to_dict()), "config", ()))
    assert again == cfg
    assert canonical_json(again.to_dict()) == canonical_json(cfg.to_dict())


@pytest.mark.parametrize("preset", [None, *sorted(PRESETS)])
def test_config_to_dict_equals_the_asdict_oracle_and_is_a_copy(preset):
    doc = {
        "n_inputs": 6, "overlap_groups": [[0, 1], [2, 5]], "l_values": [1, 2],
        "algorithms": ["setint", "composite"],
        "algo_config": {
            "setint": {"threshold": 0.8},
            "composite": {"contextual": {"p_in": 0.4, "p_out": 0.1, "p_empty": 0.1}},
        },
    }
    cfg = ScenarioConfig.from_dict(doc if preset is None else {"preset": preset, **doc})
    out = cfg.to_dict()
    assert out == scenario_config_asdict(cfg)
    assert list(out) == list(scenario_config_asdict(cfg))
    out["algo_config"]["composite"]["contextual"]["p_in"] = 0.9
    out["algo_config"]["setint"].clear()
    out["l_values"].append(3)
    out["overlap_groups"][0].append(4)
    assert cfg.algo_config["composite"]["contextual"]["p_in"] == 0.4
    assert cfg.to_dict() == scenario_config_asdict(cfg)
    assert cfg == ScenarioConfig.from_dict(doc if preset is None else {"preset": preset, **doc})


def test_config_preset_merge_and_override():
    cfg = ScenarioConfig.from_dict(
        {"preset": "gmail_like", "n_inputs": 20, "p_in": 0.6}
    )
    assert cfg.p_in == 0.6  # explicit key wins
    assert cfg.p_out == PRESETS["gmail_like"]["p_out"]
    assert cfg.alpha == PRESETS["gmail_like"]["alpha"]
    with pytest.raises(ConfigError, match="preset"):
        ScenarioConfig.from_dict({"preset": "yahoo_like", "n_inputs": 5})


def test_config_rejects_unknown_keys_and_bad_values():
    with pytest.raises(ConfigError, match="unknown config key"):
        ScenarioConfig.from_dict({"n_inputs": 5, "n_acounts": 9})
    with pytest.raises(ConfigError, match="n_inputs"):
        ScenarioConfig.from_dict({"n_targeted": 3})
    with pytest.raises(ConfigError, match="alpha"):
        ScenarioConfig(n_inputs=5, alpha=1.2)
    with pytest.raises(ConfigError, match="l_values"):
        ScenarioConfig(n_inputs=5, l_values=())
    with pytest.raises(ConfigError, match="algorithms"):
        ScenarioConfig(n_inputs=5, algorithms=("setint", "oracle"))
    with pytest.raises(ConfigError, match="algo_config"):
        ScenarioConfig(n_inputs=5, algo_config={"oracle": {}})
    with pytest.raises(ConfigError, match="matching"):
        ScenarioConfig(n_inputs=5, matching=True)
    with pytest.raises(ConfigError, match="largest core"):
        ScenarioConfig(n_inputs=3, l_values=(2,), r_values=(2,))
    with pytest.raises(ConfigError, match="more than one group"):
        ScenarioConfig(n_inputs=6, overlap_groups=((0, 1), (1, 2)))
    with pytest.raises(ConfigError, match="r_values"):
        ScenarioConfig(n_inputs=6, targeted_channel=CONTEXTUAL, r_values=(2,))
    with pytest.raises(ConfigError, match="not valid JSON"):
        ScenarioConfig.from_dict(parse_artifact("{nope", "config", ()))


def test_config_resolved_values():
    auto = ScenarioConfig(
        n_inputs=100, l_values=(2,), r_values=(2,), p_in=0.5, p_out=0.01,
        alpha="auto",
    )
    assert auto.resolved_alpha() == recommend_config(2, 2, 0.02).alpha
    sized = ScenarioConfig(n_inputs=20, account_constant=4.0)
    assert sized.resolved_account_count() == 12  # ceil(4 ln 20)
    fixed = ScenarioConfig(n_inputs=20, n_accounts=77)
    assert fixed.resolved_account_count() == 77
    grouped = ScenarioConfig(n_inputs=6, overlap_groups=((0, 1, 2), (3, 5)))
    assert grouped.group_map() == {0: 0, 1: 0, 2: 0, 3: 3, 5: 3}
    assert ScenarioConfig(n_inputs=6).group_map() is None


# -------------------------------------------------------------- workload


def test_build_specs_shapes_and_ids():
    cfg = ScenarioConfig(
        n_inputs=12, n_targeted=5, n_untargeted=3, l_values=(2,), r_values=(1, 2)
    )
    specs = build_specs(cfg, np.random.default_rng(3))
    assert specs.output_ids == tuple(range(8))
    assert specs.stream == tuple(range(8))
    assert specs.targeted.tolist() == [True] * 5 + [False] * 3
    assert not specs.contextual.any()
    for members in specs.members[:5]:
        assert len(members) == 2
        assert len({len(m) for m in members}) == 1
        assert len(members[0]) in (1, 2)
        assert Family(members).is_antichain()
        assert not set(members[0]) & set(members[1])  # drawn without replacement
    assert specs.members[5:] == (None,) * 3
    assert specs.p_empty[5:] == (cfg.p_empty,) * 3
    assert specs.p_in[:5] == (cfg.p_in,) * 5


def test_a_one_value_draw_consumes_no_randomness():
    # build_specs skips rng.integers(0, 1) for a one-value l_values or
    # r_values on this ground; the recorded digests depend on it
    drawn, untouched = np.random.default_rng(9), np.random.default_rng(9)
    assert drawn.integers(0, 1) == 0
    assert drawn.bit_generator.state == untouched.bit_generator.state


def test_a_one_input_sample_is_one_bounded_draw():
    # build_specs draws a one-input core with rng.integers(0, n) on this
    # ground, in place of rng.choice(n, size=1, replace=False)
    for seed in range(20):
        for n in (1, 2, 7, 51, 10_001, 2**40):
            chosen, drawn = np.random.default_rng(seed), np.random.default_rng(seed)
            assert chosen.choice(n, size=1, replace=False).tolist() == [drawn.integers(0, n)]
            assert chosen.bit_generator.state == drawn.bit_generator.state


def _table_fields(table) -> list:
    """Every field of a spec table, arrays with their dtypes as lists."""
    return [
        (v.dtype.str, v.tolist()) if isinstance(v, np.ndarray) else v
        for v in (getattr(table, f.name) for f in dataclasses.fields(table))
    ]


@pytest.mark.parametrize("doc", [
    {"l_values": [1], "r_values": [1]},
    {"l_values": [1, 2, 3], "r_values": [1, 2, 3]},
    {"l_values": [3], "r_values": [2]},
    {"l_values": [2, 3], "r_values": [1], "targeted_channel": CONTEXTUAL},
    {"overlap_groups": [[0, 4, 5], [1], [2, 3]]},
    {"overlap_groups": [[0, 1], [7, 8]], "targeted_channel": CONTEXTUAL},
    {"n_targeted": 0},
], ids=["1x1", "mixed", "3x2", "contextual", "groups", "contextual groups", "untargeted"])
def test_build_specs_table_equals_the_object_oracle(doc):
    cfg = ScenarioConfig.from_dict({"n_inputs": 11, "n_targeted": 7, "n_untargeted": 4, **doc})
    for seed in range(6):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        table = build_specs(cfg, rng)
        want = SpecTable.from_specs(build_specs_oracle(cfg, oracle_rng))
        assert _table_fields(table) == _table_fields(want)
        assert table.cores == want.cores
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_build_specs_overlap_round_robin():
    cfg = ScenarioConfig(
        n_inputs=6, n_targeted=4, n_untargeted=0,
        overlap_groups=((0, 1, 2), (3, 4, 5)),
    )
    specs = build_specs(cfg, np.random.default_rng(0))
    assert specs.cores[0] == Family([(0,), (1,), (2,)])
    assert specs.cores[1] == Family([(3,), (4,), (5,)])
    assert specs.members[2:] == specs.members[:2]
    # the workload draws nothing, so one table serves every trial
    assert build_specs(cfg, np.random.default_rng(1)) is specs


def test_matching_specs_are_contextual_category_ads():
    cfg = ScenarioConfig(
        n_inputs=6, overlap_groups=((0, 1, 2), (3, 4, 5)),
        matching=True, ads_per_group=3,
    )
    specs = matching_specs(cfg)
    assert len(specs) == 6
    assert specs.contextual.all()
    assert min(specs.output_ids) >= MATCH_AD_BASE
    assert specs.cores[0] == Family([(0,), (1,), (2,)])
    with pytest.raises(ConfigError):
        matching_specs(ScenarioConfig(n_inputs=6))


def test_matching_specs_are_built_once_per_ad_set():
    groups = ((0, 1, 2), (3, 4, 5))
    cfg = ScenarioConfig(n_inputs=6, overlap_groups=groups, matching=True)
    specs = matching_specs(cfg)
    with pytest.raises(dataclasses.FrozenInstanceError):
        specs.p_in = (0.9,) * 8
    with pytest.raises(ValueError, match="read-only"):
        specs.cols[0] = 5
    for same in (
        dataclasses.replace(cfg, seed=cfg.seed + 1),
        dataclasses.replace(cfg, trials=cfg.trials + 3),
    ):
        assert matching_specs(same) is specs
    for other in (
        dataclasses.replace(cfg, ads_per_group=cfg.ads_per_group + 1),
        dataclasses.replace(cfg, p_in=0.6),
    ):
        assert matching_specs(other) is not specs
    assert matching_specs(dataclasses.replace(cfg, p_in=0.6)).p_in == (0.6,) * 8


def test_a_matched_scenario_builds_each_spec_table_once(monkeypatch):
    # the category ads and the grouped workload are each one cached
    # table: no trial rebuilds or re-checks them
    from xcorr.experiment import config

    config._grouped_specs.cache_clear()
    config._matching_specs.cache_clear()
    built = []
    from_rows = SpecTable.from_rows.__func__

    def counted(cls, rows):
        built.append(len(rows))
        return from_rows(cls, rows)

    monkeypatch.setattr(SpecTable, "from_rows", classmethod(counted))
    cfg = ScenarioConfig(
        n_inputs=6, n_targeted=2, n_untargeted=1, n_accounts=12, trials=4,
        overlap_groups=((0, 1, 2), (3, 4, 5)), matching=True, collect_contextual=True,
        displays_per_input=20, algorithms=("bayes", "composite"),
    )
    run_scenario(cfg)
    assert sorted(built) == [3, 8]
    run_scenario(cfg)
    assert sorted(built) == [3, 8]


# --------------------------------------------------------------- scoring


def _verdicts(rows, width=None):
    """Verdicts of one row per entry: a target family (TARGETED), None
    (UNTARGETED) or ``Verdict.UNKNOWN``.  Targets are families, or with
    ``width`` rows of a K x width matrix (each family must then have one
    member)."""
    codes = np.array(
        [UNKNOWN if r is Verdict.UNKNOWN else UNTARGETED if r is None else TARGETED
         for r in rows],
        dtype=np.int8,
    )
    families = [r if isinstance(r, Family) else None for r in rows]
    if width is None:
        return Verdicts(codes, tuple(families))
    targets = np.zeros((len(rows), width), dtype=bool)
    for k, fam in enumerate(families):
        if fam is not None:
            (member,) = fam
            targets[k, list(member.inputs)] = True
    return Verdicts(codes, targets)


def _truth(cores, group_map=None, n_inputs=None):
    """The Truth of outputs whose true cores ``cores`` maps from output id
    (None: untargeted)."""
    specs = [
        TargetingSpec.untargeted(oid, p_empty=0.1) if fam is None
        else TargetingSpec.targeted(oid, fam, p_in=0.5, p_out=0.01)
        for oid, fam in cores.items()
    ]
    n = N_INPUTS if n_inputs is None else n_inputs
    return Truth.of(SpecTable.from_specs(specs), group_map, n_inputs=n)


#: the scored universe, and ``width`` of both target forms over it:
#: families (core-family search) and a K x N matrix (set intersection, Bayes)
N_INPUTS = 10
TARGET_FORMS = (None, N_INPUTS)


def test_precision_recall_hand_counted():
    truth = {
        0: Family([(1,)]),      # found exactly
        1: Family([(2,), (3,)]),  # found wrong
        2: Family([(4,)]),      # missed (untargeted verdict)
        3: None,                # false emission
        4: None,                # correct silence
        5: Family([(5,)]),      # abstained
    }
    rows = [Family([(1,)]), Family([(2,)]), None, Family([(9,)]), None, Verdict.UNKNOWN]
    for width in TARGET_FORMS:
        m = precision_recall(_verdicts(rows, width), _truth(truth))
        assert (m.true_targeted, m.emitted, m.correct, m.unknown) == (4, 3, 1, 1)
        assert m.precision == pytest.approx(1 / 3)
        assert m.recall == pytest.approx(1 / 4)
        assert m.flags == ()


def test_precision_recall_partial_match_earns_nothing():
    for width in TARGET_FORMS:
        truth = _truth({0: Family([(1,), (2,)])})
        m = precision_recall(_verdicts([Family([(1,)])], width), truth)
        assert m.correct == 0 and m.emitted == 1


def test_precision_recall_degenerate_denominators():
    m = precision_recall(_verdicts([None]), _truth({0: Family([(1,)])}))
    assert m.precision == 1.0 and "empty_emission" in m.flags
    m2 = precision_recall(_verdicts([Family([(1,)])]), _truth({0: None}))
    assert m2.recall == 1.0 and "no_true_associations" in m2.flags
    assert m2.precision == 0.0


def test_precision_recall_mismatched_universe():
    truth = _truth({0: None}, n_inputs=5)
    with pytest.raises(MismatchedUniverse, match="0 verdicts for 1 outputs"):
        precision_recall(_verdicts([]), truth)
    with pytest.raises(MismatchedUniverse, match="2 verdicts for 1 outputs"):
        precision_recall(_verdicts([None, None]), truth)
    # a target matrix over another input universe than the truth's
    with pytest.raises(MismatchedUniverse, match="cover 3 inputs, truth covers 5"):
        precision_recall(_verdicts([Family([(1,)])], width=3), truth)
    with pytest.raises(MismatchedUniverse, match="cover 3 inputs, truth covers 5"):
        truth.correct(_verdicts([None], width=3))


def test_group_projection_scoring():
    gm = {0: 0, 1: 0, 2: 0}
    for width in TARGET_FORMS:
        truth = _truth({7: Family([(0,), (1,), (2,)])}, gm)
        # naming any single input of the right group counts after projection
        m = precision_recall(_verdicts([Family([(1,)])], width), truth)
        assert m.correct == 1
    assert project_family(Family([(1,), (2,)]), gm) == Family([(0,)])
    # an input outside the map projects to itself
    assert project_family(Family([(1, 5)]), gm) == Family([(0, 5)])


def test_wilson_interval_known_values_and_shrink():
    lo, hi = wilson_interval(8, 10)
    # against the closed form evaluated independently
    assert lo == pytest.approx(0.49016, abs=1e-4)
    assert hi == pytest.approx(0.94335, abs=1e-4)
    assert wilson_interval(0, 0) == (0.0, 1.0)
    w100 = np.diff(wilson_interval(50, 100))[0]
    w400 = np.diff(wilson_interval(200, 400))[0]
    assert w400 == pytest.approx(w100 / 2, rel=0.06)
    with pytest.raises(ValueError):
        wilson_interval(5, 3)


# ---------------------------------------------------------------- runner


TINY = ScenarioConfig(
    n_inputs=8, n_targeted=3, n_untargeted=2, l_values=(1,), r_values=(1,),
    p_in=0.6, p_out=0.01, p_empty=0.05, alpha=0.5, n_accounts=30,
    trials=6, seed=123, algorithms=("bayes", "setint", "corefamily"),
    algo_config={"corefamily": {"l_max": 1, "r_max": 1}},
)


def test_run_trial_covers_all_outputs_and_algorithms():
    res = run_trial(TINY, np.random.SeedSequence(5))
    assert set(res.metrics) == set(TINY.algorithms)
    assert res.sim.observations.output_ids == tuple(range(5))
    for verdicts in res.verdicts.values():
        assert len(verdicts) == 5
    assert set(res.sim.truth) == set(range(5))
    assert sum(1 for f in res.sim.truth.values() if f is not None) == 3


def test_verdicts_to_doc_keys_rows_by_output_id():
    res = run_trial(TINY, np.random.SeedSequence(5))
    ids = res.sim.observations.output_ids
    for verdicts in res.verdicts.values():
        doc = verdicts.to_doc(ids)
        assert list(doc) == [str(oid) for oid in ids]
        assert list(doc.values()) == [p.to_dict() for p in verdicts.predictions()]
        with pytest.raises(ValueError):
            verdicts.to_doc(ids[:-1])


@pytest.mark.parametrize("width", TARGET_FORMS)
def test_verdicts_to_doc_equals_the_prediction_rows(width):
    # to_doc writes rows straight from the arrays, building no Prediction;
    # each row must still be that row's Prediction.to_dict
    wide = Family([(2, 3)]) if width else Family([(2,), (3, 4)])
    base = _verdicts([Family([(1,)]), None, Verdict.UNKNOWN, wide, Verdict.UNKNOWN], width)
    verdicts = Verdicts(
        base.codes, base.targets,
        scores={"zeta": np.array([0.9, 0.1, 0.5, 1.0, 0.0]), "alpha": np.full(5, 0.25)},
        flags={
            "late": np.array([1, 0, 1, 1, 0], dtype=bool),
            "early": np.array([1, 1, 0, 1, 0], dtype=bool),
        },
    )
    ids = (7, 3, 11, 0, 5)
    doc = verdicts.to_doc(ids)
    assert list(doc) == ["7", "3", "11", "0", "5"]
    assert doc == {str(oid): p.to_dict() for oid, p in zip(ids, verdicts.predictions())}
    assert doc["0"]["flags"] == ["late", "early"]
    assert doc["11"] == {"verdict": "unknown", "target": None,
                         "scores": {"alpha": 0.25, "zeta": 0.5}, "flags": ["late"]}
    for wrong in (ids[:-1], ids + (9,)):
        with pytest.raises(ValueError):
            verdicts.to_doc(wrong)


def test_run_scenario_report_shape_and_pooling():
    rep = run_scenario(TINY)
    assert rep.resolved == {"n_inputs": 8, "n_accounts": 30, "alpha": 0.5}
    for algo in TINY.algorithms:
        entry = rep.algorithms[algo]
        assert len(entry["per_trial"]) == TINY.trials
        pooled = entry["pooled"]
        for key in ("true_targeted", "emitted", "correct", "unknown"):
            assert pooled[key] == sum(t[key] for t in entry["per_trial"])
        lo, hi = pooled["recall_ci"]
        assert 0.0 <= lo <= pooled["recall"] or pooled["true_targeted"] == 0
        assert hi <= 1.0
    csv = rep.to_csv().splitlines()
    assert csv[0] == "algo,n_inputs,n_accounts,metric,value"
    assert len(csv) == 1 + 10 * len(TINY.algorithms)
    assert any(line.startswith("bayes,8,30,recall,") for line in csv)


def test_run_scenario_is_deterministic():
    a = run_scenario(TINY).to_canonical_json()
    b = run_scenario(TINY).to_canonical_json()
    assert a == b
    shifted = dataclasses.replace(TINY, seed=TINY.seed + 1)
    assert run_scenario(shifted).to_canonical_json() != a


def test_canonical_json_excludes_timing():
    rep = run_scenario(dataclasses.replace(TINY, trials=2))
    assert rep.timing_s > 0
    assert "timing_s" not in json.loads(rep.to_canonical_json())
    assert "timing_s" in rep.to_dict()


def test_run_scenario_learning_summary():
    rep = run_scenario(dataclasses.replace(TINY, trials=3, learn=True))
    assert len(rep.learned) == 3
    assert set(rep.learned[0]) == {"p_in", "p_out", "p_empty", "iterations", "converged"}


def test_matched_trial_emits_original_input_ids():
    groups = ((0, 1, 2), (3, 4, 5))
    cfg = ScenarioConfig(
        n_inputs=6, n_targeted=2, n_untargeted=1, overlap_groups=groups,
        matching=True, p_in=0.6, p_out=0.01, p_empty=0.05, alpha=0.5,
        n_accounts=30, trials=4, seed=3, algorithms=("bayes",),
    )
    rep = run_scenario(cfg)
    assert rep.matching is not None and 0.0 < rep.matching["mean_purity"] <= 1.0
    res = run_trial(cfg, np.random.SeedSequence(11))
    for pred in res.verdicts["bayes"].predictions():
        if pred.verdict is Verdict.TARGETED:
            assert all(0 <= i < 6 for i in pred.target.inputs)


def test_composite_uses_contextual_channel_when_collected():
    cfg = ScenarioConfig(
        n_inputs=6, n_targeted=2, n_untargeted=1, targeted_channel=CONTEXTUAL,
        collect_contextual=True, displays_per_input=40,
        p_in=0.5, p_out=0.01, p_empty=0.1, alpha=0.5, n_accounts=12,
        trials=4, seed=8, algorithms=("composite", "bayes"),
        algo_config={"composite": {"score_floor": 0.45}},
    )
    rep = run_scenario(cfg)
    comp = rep.algorithms["composite"]["pooled"]
    behav = rep.algorithms["bayes"]["pooled"]
    # contextual ads are invisible to the behavioral channel alone
    assert comp["recall"] > behav["recall"]
    assert comp["recall"] >= 0.75


# ----------------------------------------------------------------- store


def test_scenario_hash_tracks_config_identity():
    a = ScenarioConfig(n_inputs=8, seed=1)
    b = ScenarioConfig(n_inputs=8, seed=1)
    c = ScenarioConfig(n_inputs=8, seed=2)
    assert scenario_hash(a.to_dict()) == scenario_hash(b.to_dict())
    assert scenario_hash(a.to_dict()) != scenario_hash(c.to_dict())
    assert len(scenario_hash(a.to_dict())) == 16


def test_store_append_read_roundtrip(tmp_path):
    store = CorrelationStore(tmp_path / "results")
    store.append("k1", "notes", {"x": 1})
    store.append("k1", "notes", {"x": 2})
    assert store.read("k1", "notes") == [{"x": 1}, {"x": 2}]
    assert store.read("k1", "missing") == []
    assert store.keys() == ["k1"]
    assert store.kinds("k1") == ["notes"]


def test_store_read_of_a_truncated_line_is_a_config_error(tmp_path):
    store = CorrelationStore(tmp_path)
    store.append("k", "trials", {"trial": 0}, {"trial": 1, "rows": ["01", "10"]})
    path = store.path("k", "trials")
    path.write_text(path.read_text()[:-8], encoding="utf-8")
    with pytest.raises(ConfigError, match=r"trials\.jsonl: line 2: not valid JSON"):
        store.read("k", "trials")


def test_store_read_of_a_deeply_nested_line_is_a_config_error(tmp_path):
    store = CorrelationStore(tmp_path)
    store.append("k", "reports", {"ok": True})
    with store.path("k", "reports").open("a", encoding="utf-8") as fh:
        fh.write("\n" + "[" * 100_000 + "]" * 100_000 + "\n")
    with pytest.raises(ConfigError, match=r"reports\.jsonl: line 3: JSON nested too deeply"):
        store.read("k", "reports")


def test_store_append_of_several_records_writes_one_call_each_bytes(tmp_path):
    one, many = CorrelationStore(tmp_path / "one"), CorrelationStore(tmp_path / "many")
    records = [{"trial": 0, "b": [1, 2.5], "a": None}, {"trial": 1, "é": "x"}]
    for store in (one, many):
        store.append("k", "predictions", {"first": True})
    for record in records:
        one.append("k", "predictions", record)
    many.append("k", "predictions", *records)
    written = many.path("k", "predictions").read_bytes()
    assert written == one.path("k", "predictions").read_bytes()
    assert written.count(b"\n") == 3
    assert many.read("k", "predictions") == [{"first": True}, *records]


def test_stored_observations_rescore_identically(tmp_path):
    cfg = dataclasses.replace(TINY, trials=3, algorithms=("setint",))
    store = CorrelationStore(tmp_path)
    rep = run_scenario(cfg, store=store)
    key = scenario_hash(cfg.to_dict())
    trials = store.read(key, "trials")
    stored_preds = store.read(key, "predictions")
    assert len(trials) == 3 and len(stored_preds) == 3
    reports = store.read(key, "reports")
    assert reports[-1]["algorithms"]["setint"]["pooled"] == rep.algorithms["setint"]["pooled"]
    # replay from the stored artifacts and compare verdicts byte-for-byte
    for trial_rec, pred_rec in zip(trials, stored_preds):
        pm = PlacementMatrix.from_json(json.dumps(trial_rec["placement"]))
        obs = ObservationSet.from_json(json.dumps(trial_rec["observations"]))
        for oid_str, stored in pred_rec["predictions"].items():
            again = predict_set_intersection(
                obs.behavioral[int(oid_str)], pm, SetIntersectionConfig()
            )
            assert again.to_dict() == stored


# ----------------------------------------------------------------- sweep


def test_detect_knee_finds_plateau_and_knee():
    cfg = ScenarioConfig(
        n_inputs=6, n_targeted=4, n_untargeted=2, p_in=0.6, p_out=0.01,
        p_empty=0.05, alpha=0.5, trials=25, seed=17, algorithms=("bayes",),
    )
    res = detect_knee(cfg, algo="bayes", m_hi=32, trials=25)
    assert res.flags == ()
    assert 2 <= res.knee_m <= 128
    assert res.plateau_recall >= 0.9
    ms = [m for m, _ in res.probes]
    assert 128 in ms and len(ms) == len(set(ms))  # plateau probed, all cached


def test_detect_knee_plateau_not_found():
    # a detector that can never fire: recall stays at zero
    cfg = ScenarioConfig(
        n_inputs=6, n_targeted=3, n_untargeted=1, p_in=0.6, p_out=0.01,
        p_empty=0.05, alpha=0.5, trials=8, seed=2, algorithms=("setint",),
        algo_config={"setint": {"min_active_accounts": 10_000}},
    )
    res = detect_knee(cfg, algo="setint", m_hi=8, trials=8)
    assert res.knee_m is None
    assert res.flags == ("plateau_not_found",)


def test_scaling_sweep_validates_and_fits():
    cfg = ScenarioConfig(
        n_inputs=6, n_targeted=4, n_untargeted=2, p_in=0.6, p_out=0.01,
        p_empty=0.05, alpha=0.5, trials=20, seed=21, algorithms=("bayes",),
    )
    with pytest.raises(ConfigError, match="ascending"):
        scaling_sweep(cfg, [8, 4], algo="bayes")
    with pytest.raises(ConfigError, match="n_values"):
        scaling_sweep(cfg, [], algo="bayes")
    single = scaling_sweep(cfg, [6], algo="bayes", m_hi=24, trials=15)
    assert single.r_squared is None and "fit_skipped" in single.flags
    two = scaling_sweep(cfg, [4, 8], algo="bayes", m_hi=24, trials=15)
    assert two.slope is not None
    assert two.r_squared == pytest.approx(1.0)  # two points fit exactly
    assert two.knee(4) == two.rows[0].knee_m
    doc = json.loads(two.to_json())
    assert [r["n_inputs"] for r in doc["rows"]] == [4, 8]
