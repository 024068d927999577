"""Byte-for-byte pin of every file a trial record is written to.

Three fixed scenarios (several algorithms on a plain workload; the
contextual channel with learning; input matching) are run twice each:
once through ``run_scenario`` into a ``CorrelationStore`` and once
through ``xcorr simulate --store ... --out-dir ...``.  Each digest hashes
the relative path and the bytes of every file the writer left behind, in
path order, so a changed record schema, key order, separator, file name
or stored value changes it.

The digests were recorded before the store and ``--out-dir`` shared one
trial-record builder; do not re-record them to make a change pass.
"""

import hashlib
import json
from pathlib import Path

import pytest

from xcorr.cli import main
from xcorr.experiment import CorrelationStore, ScenarioConfig, run_scenario

SCENARIOS = {
    "plain": dict(
        n_inputs=12, n_targeted=6, n_untargeted=5, n_accounts=20,
        l_values=[1, 2], r_values=[1, 2], p_in=0.7, p_out=0.02, p_empty=0.1,
        trials=2, seed=5, algorithms=["setint", "bayes", "composite", "corefamily"],
    ),
    "contextual_learn": dict(
        n_inputs=10, n_targeted=3, n_untargeted=3, n_accounts=16,
        targeted_channel="contextual", collect_contextual=True,
        displays_per_input=20, p_in=0.6, p_out=0.03, p_empty=0.1, learn=True,
        trials=2, seed=9, algorithms=["bayes", "composite"],
    ),
    "matched": dict(
        n_inputs=9, n_targeted=3, n_untargeted=2, n_accounts=18,
        overlap_groups=[[0, 1, 2], [3, 4, 5], [6, 7, 8]], matching=True,
        collect_contextual=True, displays_per_input=30, trials=2, seed=3,
        algorithms=["bayes", "composite", "setint"],
    ),
}

DIGESTS = {
    ("plain", "run_scenario"):
        "fe8ae6bc6dcce10cd5b3338da1a8faacb19f293607fad64d48554bfc06516e6e",
    ("plain", "simulate"):
        "cca75c2faa227a889031bb0f33cc0d289f1b8bd65bd35439d541df42e71cc0cd",
    ("contextual_learn", "run_scenario"):
        "d7fb37d54fe66693bee6d70cfd6d5ec07f5506b3252e4c30530b7f13f83ef38f",
    ("contextual_learn", "simulate"):
        "6d983a7baab2d875623cda53984402606c7a65b4448783f38429d803c6ee517f",
    ("matched", "run_scenario"):
        "ca3661f19dfc6c7fc02c0b8f39c28b63ad2f3388260b1bde3aeb57963f297d6a",
    ("matched", "simulate"):
        "9928d42a308f0dd98423be7c96d2b30a5cf40588e21998740fd21adb0ee0734f",
}


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


@pytest.fixture(autouse=True)
def _no_ambient_seed(monkeypatch):
    monkeypatch.delenv("XCORR_SEED", raising=False)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_run_scenario_store_bytes(tmp_path, name):
    run_scenario(ScenarioConfig.from_dict(SCENARIOS[name]), store=CorrelationStore(tmp_path))
    assert tree_digest(tmp_path) == DIGESTS[(name, "run_scenario")]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_simulate_store_and_out_dir_bytes(tmp_path, capsys, name):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SCENARIOS[name]))
    out = tmp_path / "written"
    code = main([
        "simulate", "--config", str(config),
        "--store", str(out / "store"), "--out-dir", str(out / "files"),
    ])
    capsys.readouterr()
    assert code == 0
    assert tree_digest(out) == DIGESTS[(name, "simulate")]
