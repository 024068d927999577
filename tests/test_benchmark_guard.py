"""The benchmark harness names xcorr functions as strings and times its
ops through module attributes; a rename or an inlined call in ``src/``
must fail here, not silently break ``perfbench/run.py``.  The first unit
of every workload also runs here, so a break in what the workloads call
fails here rather than as a failed benchmark run; for the two workloads
that run the simulators, the input matching and the store, every
recorded unit runs, so a draw that moves by one count fails here too."""

import importlib.util
import json
from pathlib import Path

import pytest

from xcorr import _kernels
from xcorr.experiment import ScenarioConfig, runner

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_layer_resolves():
    tracer = _load_tracer()
    assert tracer.LAYERS
    for layer in tracer.LAYERS:
        owner, attr, kind, fn = tracer._resolve(layer)
        assert kind in ("function", "classmethod"), layer
        assert callable(fn) and fn.__name__ == attr, layer


def test_run_header_fields_exist():
    # perfbench/run.py prints the numba path in its environment line
    assert _kernels.HAS_NUMBA is False


def test_run_scenario_calls_run_trial_once_per_trial(monkeypatch):
    # knee_sweep times each of its ops by replacing runner.run_trial, so
    # run_scenario must reach every trial through that module attribute
    calls = []
    inner = runner.run_trial

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(runner, "run_trial", counted)
    cfg = ScenarioConfig(n_inputs=4, n_targeted=2, n_untargeted=1, n_accounts=6, trials=3)
    report = runner.run_scenario(cfg)
    assert len(calls) == cfg.trials
    assert report.algorithms["bayes"]["pooled"]["n_outputs"] == 3 * cfg.trials


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


@pytest.mark.parametrize("name", ["scenario_mix", "knee_sweep", "core_search", "matched_store"])
def test_workload_first_unit_gives_its_recorded_outcome(name, tmp_path):
    # unit 0 of each workload at the recorded seed, checked as the
    # benchmark checks it: the recorded outcome and no problems
    workloads = _load_workloads()
    rec = _load_tracer().Recorder()
    wl = workloads.WORKLOADS[name](13, rec, tmp_path)
    result = wl.run(0)
    expected = json.loads((PERFBENCH / "expected.json").read_text())[name][0]
    assert json.loads(json.dumps(wl.outcome(0, result))) == expected
    assert wl.problems(0, result, len(rec.latencies_ns)) == []
    assert len(rec.latencies_ns) >= 1


@pytest.mark.parametrize("name", ["scenario_mix", "matched_store"])
def test_every_recorded_unit_gives_its_recorded_outcome(name, tmp_path):
    # the units after the first, checked as the benchmark checks them,
    # then the checks the benchmark pools over a run
    workloads = _load_workloads()
    wl = workloads.WORKLOADS[name](13, _load_tracer().Recorder(), tmp_path)
    expected = json.loads((PERFBENCH / "expected.json").read_text())[name]
    assert len(expected) == wl.recorded
    for j in range(1, wl.recorded):
        result = wl.run(j)
        assert json.loads(json.dumps(wl.outcome(j, result))) == expected[j], j
        assert wl.problems(j, result, 1) == [], j
    assert wl.run_problems() == []
