"""End-to-end checks for the console entry point."""

import json

import pytest

from oracles import cluster_inputs_oracle, oracle_signatures
from xcorr.cli import main
from xcorr.core_model import Combination
from xcorr.experiment import ALGORITHMS, ScenarioConfig, matching_specs
from xcorr.simulator import simulate_contextual

TINY = {
    "n_inputs": 8,
    "n_targeted": 3,
    "n_untargeted": 2,
    "n_accounts": 30,
    "trials": 3,
    "seed": 123,
    "algorithms": ["bayes", "setint"],
    "p_in": 0.7,
    "p_out": 0.01,
    "p_empty": 0.1,
    "alpha": 0.5,
}

MATCH = {
    "n_inputs": 6,
    "n_targeted": 2,
    "n_untargeted": 0,
    "n_accounts": 12,
    "overlap_groups": [[0, 1, 2], [3, 4, 5]],
    "matching": True,
    "trials": 2,
    "seed": 7,
    "displays_per_input": 60,
}


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY))
    return str(path)


@pytest.fixture(autouse=True)
def _no_ambient_seed(monkeypatch):
    monkeypatch.delenv("XCORR_SEED", raising=False)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------- threshold


def test_threshold_closed_form(capsys):
    code, out, _ = run(capsys, "threshold", "--l", "3", "--r", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["m_lr"] == pytest.approx(1.0 / 49.0)
    assert doc["x_star"] == pytest.approx(0.875)
    assert "recommended" not in doc


def test_threshold_with_ratio_and_curve(capsys):
    code, out, _ = run(
        capsys, "threshold", "--l", "3", "--r", "3", "--ratio", "0.02", "--curve", "7"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["admissible"] is True
    assert 0.0 < doc["recommended"]["alpha"] < 1.0
    assert 0.0 < doc["recommended"]["x"] < 1.0
    assert doc["recommended"]["account_constant"] > 0.0
    assert len(doc["curve"]) == 7
    for z, x, value in doc["curve"]:
        assert 0.0 < z < 1.0 and 0.0 < x < 1.0 and value >= 0.0


@pytest.mark.parametrize("points", ["0", "-3"])
def test_threshold_curve_needs_a_point(capsys, points):
    code, out, err = run(capsys, "threshold", "--l", "3", "--r", "3", "--curve", points)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "n_points" in err


def test_threshold_inadmissible_ratio(capsys):
    code, out, _ = run(capsys, "threshold", "--l", "3", "--r", "3", "--ratio", "0.03")
    assert code == 0
    doc = json.loads(out)
    assert doc["admissible"] is False
    assert "recommended" not in doc


# ----------------------------------------------------------------- match


def test_match_recovers_groups(capsys, tmp_path):
    path = tmp_path / "match.json"
    path.write_text(json.dumps(MATCH))
    code, out, _ = run(capsys, "match", "--config", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["clusters"] == [[0, 1, 2], [3, 4, 5]]
    assert doc["n_clusters"] == 2
    assert doc["purity"] == 1.0


def test_match_raw_distance_matches_oracle(capsys, tmp_path):
    path = tmp_path / "match.json"
    path.write_text(json.dumps(MATCH))
    code, out, _ = run(
        capsys, "match", "--config", str(path), "--raw-distance", "--threshold", "15"
    )
    assert code == 0
    doc = json.loads(out)
    cfg = ScenarioConfig.from_dict(MATCH)
    counts = simulate_contextual(
        Combination(range(cfg.n_inputs)), matching_specs(cfg), cfg.displays_per_input,
        seed=cfg.seed, n_inputs=cfg.n_inputs,
    )
    expected = cluster_inputs_oracle(
        oracle_signatures(dict(enumerate(counts)), cfg.n_inputs), 15.0, raw=True
    )
    assert doc["clusters"] == expected
    # normalized distances are at most sqrt(2), so only the raw metric
    # keeps more than one cluster at this threshold
    assert doc["n_clusters"] == len(expected) > 1


def test_match_requires_groups(capsys, tiny_config):
    code, _, err = run(capsys, "match", "--config", tiny_config)
    assert code == 2
    assert "overlap_groups" in err


# ------------------------------------------------- simulate then detect


def test_simulate_detect_round_trip(capsys, tmp_path, tiny_config):
    out_dir = tmp_path / "trials"
    store = tmp_path / "store"
    code, out, _ = run(
        capsys,
        "simulate",
        "--config",
        tiny_config,
        "--out-dir",
        str(out_dir),
        "--store",
        str(store),
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["trials"] == 3
    files = sorted(p.name for p in out_dir.iterdir())
    assert "trial0_observations.json" in files
    assert "trial2_truth.json" in files
    # the store holds one line per trial under the scenario hash
    lines = (store / summary["key"] / "trials.jsonl").read_text().splitlines()
    assert len(lines) == 3

    code, out, _ = run(
        capsys,
        "detect",
        "--algo",
        "bayes",
        "--obs",
        str(out_dir / "trial0_observations.json"),
        "--placement",
        str(out_dir / "trial0_placement.json"),
        "--config",
        tiny_config,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["algo"] == "bayes"
    assert sorted(doc["predictions"]) == ["0", "1", "2", "3", "4"]
    for pred in doc["predictions"].values():
        assert pred["verdict"] in {"targeted", "untargeted", "unknown"}


def test_simulate_needs_destination(capsys, tiny_config):
    code, _, err = run(capsys, "simulate", "--config", tiny_config)
    assert code == 2
    assert "--store" in err


def test_detect_rejects_mismatched_config(capsys, tmp_path, tiny_config):
    out_dir = tmp_path / "trials"
    run(capsys, "simulate", "--config", tiny_config, "--out-dir", str(out_dir))
    other = tmp_path / "other.json"
    other.write_text(json.dumps({**TINY, "n_inputs": 9}))
    code, _, err = run(
        capsys,
        "detect",
        "--algo",
        "setint",
        "--obs",
        str(out_dir / "trial0_observations.json"),
        "--placement",
        str(out_dir / "trial0_placement.json"),
        "--config",
        str(other),
    )
    assert code == 2
    assert "n_inputs" in err


def test_detect_works_without_config(capsys, tmp_path, tiny_config):
    out_dir = tmp_path / "trials"
    run(capsys, "simulate", "--config", tiny_config, "--out-dir", str(out_dir))
    code, out, _ = run(
        capsys,
        "detect",
        "--algo",
        "setint",
        "--obs",
        str(out_dir / "trial0_observations.json"),
        "--placement",
        str(out_dir / "trial0_placement.json"),
    )
    assert code == 0
    assert len(json.loads(out)["predictions"]) == 5


def _corrupt(doc, edit):
    doc = json.loads(json.dumps(doc))
    edit(doc)
    return json.dumps(doc)


PLACEMENT_DAMAGE = {
    "not json": lambda text: text[: len(text) // 2],
    "not an object": lambda text: "[1, 2]",
    "missing rows": lambda text: _corrupt(json.loads(text), lambda d: d.pop("rows")),
    "ragged rows": lambda text: _corrupt(
        json.loads(text), lambda d: d["rows"].__setitem__(0, d["rows"][0][:-1])
    ),
    "bad characters": lambda text: _corrupt(
        json.loads(text), lambda d: d["rows"].__setitem__(1, "2" + d["rows"][1][1:])
    ),
    "row count": lambda text: _corrupt(json.loads(text), lambda d: d["rows"].pop()),
    "negative m": lambda text: _corrupt(json.loads(text), lambda d: d.update(m=-1)),
    "non-ASCII row": lambda text: _corrupt(
        json.loads(text), lambda d: d["rows"].__setitem__(0, "\u00b9" + d["rows"][0][1:])
    ),
    "not UTF-8": lambda text: b"\xff\xfe" + text.encode(),
}

OBSERVATION_DAMAGE = {
    "not json": lambda text: "{" + text,
    "missing behavioral": lambda text: _corrupt(
        json.loads(text), lambda d: d.pop("behavioral")
    ),
    "account out of range": lambda text: _corrupt(
        json.loads(text), lambda d: d["behavioral"].__setitem__("0", [0, 999])
    ),
    "output id": lambda text: _corrupt(
        json.loads(text), lambda d: d["behavioral"].__setitem__("first", [0])
    ),
    # keys that int() reads as one id would load as one output, dropping others
    "colliding output ids": lambda text: _corrupt(
        json.loads(text),
        lambda d: d["behavioral"].update({"1": [0, 1], "01": [2], " 1": [3]}),
    ),
    "non-canonical behavioral id": lambda text: _corrupt(
        json.loads(text), lambda d: d["behavioral"].__setitem__("+0", d["behavioral"].pop("0"))
    ),
    "non-canonical contextual id": lambda text: _corrupt(
        json.loads(text), lambda d: d["contextual"].__setitem__("00", [0] * d["n_inputs"])
    ),
    "repeated output id": lambda text: text.replace(
        '"behavioral": {', '"behavioral": {"0": [0], ', 1
    ),
    "fewer accounts than the placement": lambda text: _corrupt(
        json.loads(text), lambda d: d.update(n_accounts=d["n_accounts"] - 1)
    ),
    "more inputs than the placement": lambda text: _corrupt(
        json.loads(text), lambda d: d.update(n_inputs=d["n_inputs"] + 1)
    ),
    "count overflows": lambda text: _corrupt(
        json.loads(text), lambda d: d["contextual"].__setitem__("0", [10**30])
    ),
    # contextual counts are all outputs' or none: once a partial set mixed
    # the channels row by row, and an extra output was dropped unread
    "contextual names a subset of the outputs": lambda text: _corrupt(
        json.loads(text), lambda d: d["contextual"].__setitem__("0", [0] * d["n_inputs"])
    ),
    "contextual names an extra output": lambda text: _corrupt(
        json.loads(text),
        lambda d: d["contextual"].update(
            {k: [0] * d["n_inputs"] for k in [*d["behavioral"], "99"]}
        ),
    ),
    "contextual outputs without behavioral ones": lambda text: _corrupt(
        json.loads(text),
        lambda d: d.update(
            behavioral={}, contextual={str(k): [0] * d["n_inputs"] for k in range(4)}
        ),
    ),
    "contextual length": lambda text: _corrupt(
        json.loads(text), lambda d: d["contextual"].__setitem__("0", [1, 2])
    ),
    **{
        f"count is {kind}": (lambda bad: lambda text: _corrupt(
            json.loads(text),
            lambda d: d["contextual"].__setitem__("0", [bad] + [0] * (d["n_inputs"] - 1)),
        ))(bad)
        for kind, bad in [
            ("a numeric string", "3"), ("a float", 1.7), ("an integral float", 3.0),
            ("a bool", True), ("negative", -4), ("null", None),
        ]
    },
}


@pytest.mark.parametrize("artifact,damage", [
    *(("placement", name) for name in PLACEMENT_DAMAGE),
    *(("observations", name) for name in OBSERVATION_DAMAGE),
])
def test_detect_rejects_malformed_artifacts(capsys, tmp_path, tiny_config, artifact, damage):
    out_dir = tmp_path / "trials"
    run(capsys, "simulate", "--config", tiny_config, "--out-dir", str(out_dir))
    path = out_dir / f"trial0_{artifact}.json"
    table = PLACEMENT_DAMAGE if artifact == "placement" else OBSERVATION_DAMAGE
    damaged = table[damage](path.read_text())
    if isinstance(damaged, bytes):
        path.write_bytes(damaged)
    else:
        path.write_text(damaged)
    code, out, err = run(
        capsys,
        "detect",
        "--algo",
        "setint",
        "--obs",
        str(out_dir / "trial0_observations.json"),
        "--placement",
        str(out_dir / "trial0_placement.json"),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


# ---------------------------------------------------------------- report


def test_report_deterministic_and_csv(capsys, tmp_path, tiny_config):
    csv_path = tmp_path / "report.csv"
    code, first, _ = run(
        capsys, "report", "--config", tiny_config, "--csv", str(csv_path)
    )
    assert code == 0
    doc = json.loads(first)
    assert set(doc["algorithms"]) == {"bayes", "setint"}
    assert doc["resolved"]["n_accounts"] == 30
    rows = csv_path.read_text().splitlines()
    assert rows[0] == "algo,n_inputs,n_accounts,metric,value"
    assert len(rows) == 1 + 10 * 2

    code, second, _ = run(capsys, "report", "--config", tiny_config)
    assert code == 0
    assert first == second


def test_report_requirement_gate(capsys, tiny_config):
    code, _, err = run(
        capsys, "report", "--config", tiny_config, "--require-recall", "1.0"
    )
    assert code == 3  # setint recalls 8 of the 9 targeted outputs
    assert "requirement failed" in err

    code, _, _ = run(
        capsys,
        "report",
        "--config",
        tiny_config,
        "--require-recall",
        "0.0",
        "--require-precision",
        "0.0",
    )
    assert code == 0


def test_report_out_file(capsys, tmp_path, tiny_config):
    out = tmp_path / "report.json"
    code, stdout, _ = run(capsys, "report", "--config", tiny_config, "--out", str(out))
    assert code == 0
    assert stdout == ""
    assert json.loads(out.read_text())["config"]["seed"] == 123


# ----------------------------------------------------------------- sweep


def test_sweep_writes_json_and_csv(capsys, tmp_path, tiny_config):
    csv_path = tmp_path / "sweep.csv"
    code, out, _ = run(
        capsys,
        "sweep",
        "--config",
        tiny_config,
        "--n-values",
        "4,8",
        "--trials",
        "10",
        "--m-hi",
        "24",
        "--csv",
        str(csv_path),
    )
    assert code == 0
    doc = json.loads(out)
    assert [row["n_inputs"] for row in doc["rows"]] == [4, 8]
    assert all(row["knee_m"] is not None for row in doc["rows"])
    rows = csv_path.read_text().splitlines()
    assert rows[0] == "algo,n_inputs,metric,value"
    assert any(line.startswith("bayes,4,knee_m,") for line in rows)
    assert any(",r_squared," in line for line in rows)


def test_sweep_rejects_bad_n_values(capsys, tiny_config):
    code, _, err = run(
        capsys, "sweep", "--config", tiny_config, "--n-values", "4,oops"
    )
    assert code == 2
    assert "comma-separated" in err


# ------------------------------------------------------- seed precedence


def test_seed_flag_beats_config(capsys, tmp_path, tiny_config):
    reseeded = tmp_path / "reseeded.json"
    reseeded.write_text(json.dumps({**TINY, "seed": 999}))
    _, base, _ = run(capsys, "report", "--config", tiny_config)
    _, overridden, _ = run(
        capsys, "report", "--config", str(reseeded), "--seed", "123"
    )
    assert base == overridden
    _, differing, _ = run(capsys, "report", "--config", str(reseeded))
    assert base != differing


def test_env_seed_fills_in(capsys, tmp_path, monkeypatch):
    unseeded = {k: v for k, v in TINY.items() if k != "seed"}
    path = tmp_path / "unseeded.json"
    path.write_text(json.dumps(unseeded))
    monkeypatch.setenv("XCORR_SEED", "123")
    _, via_env, _ = run(capsys, "report", "--config", str(path))
    monkeypatch.delenv("XCORR_SEED")
    _, via_flag, _ = run(capsys, "report", "--config", str(path), "--seed", "123")
    assert via_env == via_flag
    monkeypatch.setenv("XCORR_SEED", "bogus")
    code, _, err = run(capsys, "report", "--config", str(path))
    assert code == 2
    assert "XCORR_SEED" in err


# ------------------------------------------------------------ bad input


def test_missing_config_is_a_config_error(capsys):
    code, _, err = run(capsys, "report")
    assert code == 2
    assert "--config" in err


def test_malformed_config_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "report", "--config", str(path))
    assert code == 2
    assert "not valid JSON" in err


#: a JSON array nested past the decoder's recursion limit, a few KB long
DEEP = "[" * 1000 + "]" * 1000


@pytest.mark.parametrize("where", ["config", "config value", "placement", "observations"])
def test_deeply_nested_json_is_a_config_error(capsys, tmp_path, tiny_config, where):
    out_dir = tmp_path / "trials"
    run(capsys, "simulate", "--config", tiny_config, "--out-dir", str(out_dir))
    deep = tmp_path / "deep.json"
    if where == "config value":
        deep.write_text('{"n_inputs": 4, "algo_config": {"bayes": {"p_in": ' + DEEP + "}}}")
    else:
        deep.write_text(DEEP)
    placement = str(deep if where == "placement" else out_dir / "trial0_placement.json")
    obs = str(deep if where == "observations" else out_dir / "trial0_observations.json")
    if where.startswith("config"):
        argv = ("report", "--config", str(deep))
    else:
        argv = ("detect", "--algo", "bayes", "--obs", obs, "--placement", placement)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "nested too deeply" in err


@pytest.mark.parametrize("text", [
    '{"n_inputs": 4, ' + json.dumps(TINY)[1:],
    '{"algo_config": {"setint": {}, "setint": {"threshold": 0.5}}, ' + json.dumps(TINY)[1:],
], ids=["top level", "nested"])
@pytest.mark.parametrize(
    "argv", [("report",), ("simulate", "--out-dir", "trials")], ids=["report", "simulate"]
)
def test_config_with_repeated_key_is_a_config_error(capsys, tmp_path, monkeypatch, text, argv):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "twice.json"
    path.write_text(text)
    code, out, err = run(capsys, *argv, "--config", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "appears twice" in err


def test_unknown_algo_rejected_by_parser(capsys, tmp_path):
    with pytest.raises(SystemExit):
        main(["detect", "--algo", "nope", "--obs", "x", "--placement", "y"])


@pytest.mark.parametrize("key,value", [
    ("n_inputs", "6"),
    ("trials", "2"),
    ("learn", 1),
    ("l_values", 2),
    ("l_values", [True]),
    ("algorithms", "bayes"),
    ("overlap_groups", [["a"]]),
    ("overlap_groups", []),
    ("seed", -1),
    ("seed", 1.5),
    ("preset", ["x"]),
    ("algo_config", []),
    ("algo_config", {"setint": 3}),
    *(("algo_config", {algo: {"bogus": 1}}) for algo in ALGORITHMS),
    ("algo_config", {"setint": {"threshold": "x"}}),
    ("algo_config", {"bayes": {"p_in": "x"}}),
    ("algo_config", {"composite": {"contextual": {"p_out": None}}}),
    # a floor above 1 once ran and made every verdict UNTARGETED
    ("algo_config", {"bayes": {"score_floor": 7}}),
    ("algo_config", {"composite": {"score_floor": -0.5}}),
    ("algo_config", {"corefamily": {"l_max": 1.5}}),
])
def test_wrong_typed_config_is_a_config_error(capsys, tmp_path, key, value):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**TINY, key: value}))
    code, out, err = run(capsys, "report", "--config", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {key}") and "Traceback" not in err


#: nine accounts and four outputs: no output reaches the core-family
#: search, so a bad search option went unseen and the run exited 0
_UNSEARCHED = {
    "n_inputs": 8, "n_targeted": 2, "n_untargeted": 2, "trials": 1, "seed": 0,
    "algorithms": ["corefamily"],
}


@pytest.mark.parametrize("corefamily,extra", [
    ({"method": "agglomerative", "r_max": None}, {}),
    # 200 accounts: the search runs and once failed only after a trial
    ({"method": "agglomerative", "r_max": None}, {"n_accounts": 200}),
    ({"method": "exhaustive"}, {}),
])
@pytest.mark.parametrize("command", ["report", "simulate"])
def test_bad_core_family_option_fails_before_any_trial(
    capsys, tmp_path, monkeypatch, corefamily, extra, command
):
    import xcorr.experiment.runner as runner

    def no_trials(*_args, **_kwargs):
        raise AssertionError("a trial ran before the config was checked")

    monkeypatch.setattr(runner, "run_trial", no_trials)
    monkeypatch.setattr(runner, "simulate_trial", no_trials)
    path = tmp_path / "bad.json"
    doc = {**_UNSEARCHED, **extra, "algo_config": {"corefamily": corefamily}}
    path.write_text(json.dumps(doc))
    store = tmp_path / "store"
    code, out, err = run(capsys, command, "--config", str(path), "--store", str(store))
    assert code == 2
    assert out == ""
    assert err.startswith("error: algo_config.corefamily.") and "Traceback" not in err
    assert not store.exists()


@pytest.mark.parametrize("argv", [
    ("simulate", "--config", "{config}", "--store", "{file}"),
    ("simulate", "--config", "{config}", "--out-dir", "{file}"),
    ("report", "--config", "{config}", "--store", "{file}"),
    ("report", "--config", "{config}", "--out", "{missing}/report.json"),
    ("report", "--config", "{config}", "--csv", "{missing}/report.csv"),
    ("sweep", "--config", "{config}", "--n-values", "4", "--out", "{missing}/sweep.json"),
    ("threshold", "--l", "2", "--r", "2", "--out", "{missing}/threshold.json"),
])
def test_unwritable_destination_is_a_config_error(capsys, tmp_path, tiny_config, argv):
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    paths = {"config": tiny_config, "file": str(a_file), "missing": str(tmp_path / "missing")}
    code, _, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("report", "--out", "{missing}/report.json"),
    ("report", "--csv", "{missing}/report.csv"),
    ("report", "--out", "{dir}"),
    ("sweep", "--n-values", "4", "--out", "{missing}/sweep.json"),
    ("sweep", "--n-values", "4", "--csv", "{missing}/sweep.csv"),
])
def test_bad_destination_fails_before_any_trial(capsys, tmp_path, tiny_config, monkeypatch, argv):
    # the destination is checked first: no trial runs and the store stays empty
    import xcorr.experiment.runner as runner

    def no_trials(*_args, **_kwargs):
        raise AssertionError("a trial ran before the destination was checked")

    monkeypatch.setattr(runner, "run_trial", no_trials)
    monkeypatch.setattr(runner, "simulate_trial", no_trials)
    store = tmp_path / "store"
    paths = {"missing": str(tmp_path / "missing"), "dir": str(tmp_path)}
    extra = ("--store", str(store)) if argv[0] == "report" else ()
    code, out, err = run(
        capsys, argv[0], "--config", tiny_config, *extra,
        *(arg.format(**paths) for arg in argv[1:]),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write") and "Traceback" not in err
    assert not store.exists()


def test_exhausted_test_budget_is_a_verdict(capsys, tmp_path):
    # a corefamily search that runs out of its test budget answers UNKNOWN
    # for that output; the run itself completes
    path = tmp_path / "budget.json"
    path.write_text(json.dumps({
        "n_inputs": 12, "n_accounts": 40, "n_targeted": 3, "n_untargeted": 3,
        "trials": 1, "seed": 3, "algorithms": ["corefamily"],
        "algo_config": {"corefamily": {"test_budget": 2}},
    }))
    store = tmp_path / "store"
    code, out, err = run(capsys, "report", "--config", str(path), "--store", str(store))
    assert code == 0, err
    assert json.loads(out)["algorithms"]["corefamily"]["pooled"]["n_outputs"] == 6
    [key] = [p.name for p in store.iterdir()]
    [record] = [
        json.loads(line)
        for line in (store / key / "predictions.jsonl").read_text().splitlines()
    ]
    flags = [p["flags"] for p in record["predictions"].values()]
    assert ["budget_exhausted"] in flags
