"""The CLI contract on arbitrary input: every run exits 0, 2 or 3, a
configuration problem prints one ``error:`` line, and nothing escapes as
a traceback.

``report`` and ``simulate`` get a tiny working config with up to three
keys replaced by bounded arbitrary JSON values, or by values of the
key's own JSON type (so that many drawn configs are valid and run);
``detect`` gets arbitrary JSON documents, or a valid placement and
observation set with keys replaced the same way.  Integers stay within
[-2, 12] and floats within [-2, 2], so no drawn config is a large run.
"""

import io
import json
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xcorr.cli import main
from xcorr.experiment import ALGORITHMS, ScenarioConfig, simulate_trial

TINY = {
    "n_inputs": 5,
    "n_targeted": 2,
    "n_untargeted": 1,
    "n_accounts": 10,
    "trials": 1,
    "seed": 0,
    "p_in": 0.7,
    "collect_contextual": True,
    "algorithms": list(ALGORITHMS),
}
MATCHED = {
    **TINY,
    "n_inputs": 6,
    "overlap_groups": [[0, 1, 2], [3, 4, 5]],
    "matching": True,
    "displays_per_input": 10,
}

WORDS = (
    *ALGORITHMS, "auto", "behavioral", "contextual", "gmail_like", "removal",
    "agglomerative", "6",
)
KEYS = (
    *ALGORITHMS, "threshold", "min_active_accounts", "max_combination_size",
    "p_in", "p_out", "p_empty", "score_floor", "contextual", "method", "x",
    "l_max", "r_max", "test_budget", "min_members", "0", "1",
)

numbers = st.integers(-2, 12) | st.floats(-2, 2, allow_nan=False)
json_values = st.recursive(
    st.none() | st.booleans() | numbers | st.sampled_from(WORDS) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def _typed(value):
    """Bounded JSON values of the same type as ``value``."""
    if isinstance(value, bool):
        return st.booleans()
    if isinstance(value, (int, float)):
        return numbers
    if isinstance(value, str):
        return st.sampled_from(WORDS) | st.text("01", max_size=8)
    if isinstance(value, list):
        return st.lists(_typed(value[0]) if value else json_values, max_size=4)
    if isinstance(value, dict):
        inner = _typed(next(iter(value.values()))) if value else json_values
        return st.dictionaries(st.sampled_from(KEYS), json_values | inner, max_size=3)
    return json_values


@st.composite
def _replaced(draw, doc: dict, template: dict):
    """``doc`` with up to three keys of ``template`` set to arbitrary JSON
    or to values of the template value's type."""
    chosen = draw(st.lists(st.sampled_from(sorted(template)), max_size=3, unique=True))
    return {**doc, **{k: draw(json_values | _typed(template[k])) for k in chosen}}


#: every config key with a value of its type; "unknown" is no key at all
TEMPLATE = {
    **ScenarioConfig.from_dict(MATCHED).to_dict(),
    "preset": "gmail_like",
    "unknown": None,
}
configs = st.sampled_from([TINY, MATCHED]).flatmap(lambda base: _replaced(base, TEMPLATE))


def _valid_artifacts() -> tuple[dict, dict]:
    cfg = ScenarioConfig.from_dict(TINY)
    sim = simulate_trial(cfg, np.random.SeedSequence(0))
    return json.loads(sim.placement.to_json()), json.loads(sim.observations.to_json())


PLACEMENT, OBSERVATIONS = _valid_artifacts()


def _damaged(doc: dict):
    """Arbitrary JSON, or ``doc`` with some keys replaced."""
    return json_values | _replaced(doc, doc)


def _run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _report(config: dict, *flags: str) -> tuple[int, str, str]:
    """``_run`` of ``report`` on ``config`` written to a file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        return _run(["report", "--config", str(path), *flags])


def _check(argv: list[str]) -> None:
    code, _, stderr = _run(argv)
    assert code in (0, 2, 3), (code, stderr)
    assert "Traceback" not in stderr
    if code == 2:
        assert stderr.startswith("error: "), stderr


@settings(max_examples=60, deadline=None)
@given(config=configs)
def test_report_contract(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        _check([
            "report", "--config", str(path), "--store", str(Path(tmp) / "store"),
            "--require-recall", "0.5",
        ])


@settings(max_examples=40, deadline=None)
@given(config=configs)
def test_simulate_contract(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        _check(["simulate", "--config", str(path), "--out-dir", str(Path(tmp) / "out")])


@settings(max_examples=80, deadline=None)
@given(
    algo=st.sampled_from(ALGORITHMS),
    placement=_damaged(PLACEMENT),
    observations=_damaged(OBSERVATIONS),
)
def test_detect_contract(algo, placement, observations):
    with tempfile.TemporaryDirectory() as tmp:
        pm_path, obs_path = Path(tmp) / "placement.json", Path(tmp) / "obs.json"
        pm_path.write_text(json.dumps(placement))
        obs_path.write_text(json.dumps(observations))
        _check(["detect", "--algo", algo, "--placement", str(pm_path), "--obs", str(obs_path)])


def test_report_with_a_vanishing_witness_fraction_exits_0():
    # x * n below the witness threshold's rounding slack once asked the
    # kernel for a witness covering zero members, and report died with a
    # traceback
    code, out, err = _report({
        **TINY, "n_inputs": 6, "n_accounts": 12, "algorithms": ["corefamily"],
        "algo_config": {"corefamily": {"x": 1e-10}},
    })
    assert code == 0, err
    assert json.loads(out)["algorithms"]["corefamily"]["pooled"]["n_outputs"] == 3


@pytest.mark.parametrize("field", [
    "n_inputs", "n_accounts", "rounds", "trials", "displays_per_input", "ads_per_group",
    "n_targeted", "n_untargeted",
])
def test_size_beyond_int64_is_a_config_error(field):
    # a size past 2**63 - 1 once reached numpy and died with a traceback
    code, _, err = _report({**MATCHED, field: 2**64})
    assert code == 2, err
    assert err.startswith(f"error: {field}: must be an integer in "), err


@pytest.mark.parametrize("change, message", [
    ({"n_accounts": 2**62}, "too large to allocate"),
    ({"n_accounts": None, "n_inputs": 10, "account_constant": 1e17}, "too large to allocate"),
    ({"n_accounts": None, "n_inputs": 10, "account_constant": 1e308}, "not finite"),
])
def test_size_numpy_cannot_allocate_is_a_config_error(change, message):
    # sizes inside int64 once reached numpy (ValueError: array is too big)
    # or math.ceil (OverflowError) and died with a traceback; the checks
    # fire before anything is allocated
    code, _, err = _report({**TINY, **change})
    assert code == 2, err
    assert err.startswith("error: ") and message in err, err


@pytest.mark.parametrize("n_accounts", [2**64, 2**62, 2**40])
def test_observations_sized_unlike_their_placement_exit_2_at_once(n_accounts, tmp_path):
    # such counts once reached the seen-matrix allocation: 2**64 and 2**62
    # died with a numpy ValueError traceback, and 2**40 first asked for
    # terabytes; the counts are checked against the placement before any
    # matrix is built
    pm_path, obs_path = tmp_path / "placement.json", tmp_path / "obs.json"
    pm_path.write_text(json.dumps(PLACEMENT))
    obs_path.write_text(json.dumps({**OBSERVATIONS, "n_accounts": n_accounts}))
    start = time.perf_counter()
    code, out, err = _run(
        ["detect", "--algo", "bayes", "--placement", str(pm_path), "--obs", str(obs_path)]
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "", err
    assert err.startswith("error: observations") and err.count("\n") == 1, err


def test_out_of_memory_is_an_error_line(monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 EiB for an array")

    monkeypatch.setattr("xcorr.cli.run_scenario", exhausted)
    code, out, err = _report(TINY)
    assert code == 2
    assert out == ""
    assert err == "error: Unable to allocate 8.00 EiB for an array\n"


@pytest.mark.parametrize("gate", ["recall", "precision"])
@pytest.mark.parametrize("bound", ["nan", "inf", "-0.1", "1.5"])
def test_requirement_outside_the_unit_interval_is_a_config_error(monkeypatch, gate, bound):
    # every comparison with NaN is false, so a NaN gate once passed any run
    monkeypatch.setattr("xcorr.cli.run_scenario", lambda *a, **k: pytest.fail("a trial ran"))
    code, out, err = _report(TINY, f"--require-{gate}={bound}")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: --require-{gate} must be a number in [0, 1]"), err


def test_seed_stays_unbounded():
    code, _, err = _report({**TINY, "seed": 10**40})
    assert code == 0, err


@pytest.mark.parametrize("argv", [
    ["--l", "600", "--r", "600"],
    ["--l", "2000", "--r", "2000"],
    ["--l", "1100", "--r", "1100", "--ratio", "0.0"],
])
def test_threshold_past_float_range_exits_0(argv):
    # M_{n,n} = 1/(2^n - 1)^2 once converted (2^n - 1)^2 to a float and
    # overflowed from n = 512 on; the bound underflows to 0 instead
    code, out, err = _run(["threshold", *argv])
    assert code == 0, err
    doc = json.loads(out)
    assert doc["m_lr"] == 0.0
    assert doc.get("admissible", False) is False


@pytest.mark.parametrize("argv", [
    ["threshold", "--l", "54", "--r", "54", "--ratio", "0.0"],
    ["threshold", "--l", "40", "--r", "70", "--ratio", "0.0"],
])
def test_threshold_without_a_float64_operating_point_exits_2(argv):
    # x = 1 - 0.5**54 rounds to 1.0; alpha's log1p(-x) once died with
    # ValueError: math domain error
    code, out, err = _run(argv)
    assert code == 2, err
    assert out == ""
    assert err.startswith("error: no operating point for l="), err


def test_threshold_at_the_last_float64_diagonal_exits_0():
    code, out, err = _run(["threshold", "--l", "53", "--r", "53", "--ratio", "0.0"])
    assert code == 0, err
    assert json.loads(out)["recommended"]["x"] == 1.0 - 2.0**-53


def test_auto_alpha_without_a_float64_operating_point_exits_2():
    code, _, err = _report({
        **TINY, "alpha": "auto", "l_values": [54], "r_values": [54], "p_out": 1e-40,
        "n_inputs": 2916, "n_targeted": 1, "n_untargeted": 0,
    })
    assert code == 2, err
    assert err.startswith("error: no operating point for l=54, r=54"), err


def test_threshold_curve_beyond_the_point_cap_exits_2():
    # the whole curve is one list in memory: 10**8 points were killed
    # with exit 137; the cap is checked before any point is built
    code, out, err = _run(["threshold", "--l", "2", "--r", "2", "--curve", str(10**6 + 1)])
    assert code == 2
    assert out == ""
    assert err == "error: n_points must be in 1..1000000, got 1000001\n"
