"""The benchmark harness names xcorr functions as strings; a rename in
``src/`` must fail here, not silently break ``perfbench/run.py --trace 1``."""

import importlib.util
from pathlib import Path

from xcorr import _kernels

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
