"""xcorr benchmark: four closed-loop audit workloads, one process each.

Run from the repository root::

    python3 perfbench/run.py                                   # all workloads
    python3 perfbench/run.py --workload core_search --seed 13 --seconds 20
    python3 perfbench/run.py --workload knee_sweep --trace 1   # per-layer run
    python3 perfbench/run.py --record                          # rewrite expected.json

One client runs one op at a time, BLAS is pinned to one thread, and the
numpy witness kernel is forced.  A run sets up (import, config, inputs)
once, runs untimed warm-up ops, then measures whole units until
``--seconds`` of run time have passed and at least ``MIN_OPS`` ops have
run, so ``op_ms_p90`` always has ten samples beyond it.  Each unit is
checked as it finishes, with the clock stopped; a failed op is one that
raised or failed a check.  ``setup_s`` is the median of
``SETUP_SAMPLES`` set-ups: this process's and fresh processes' started
between units through the run.

``--trace 1`` runs the workload's first ``block`` units over and over:
half the time untraced, half with every layer wrapped (see tracer.py),
and reports per-op calls and self times per layer, exact work counts,
and the tracing overhead.  Spans are written to ``.perfbench/``.

The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The lines before it give each metric with
its unit, the sample counts and the environment.  Three figures are
printed there but kept out of ``metrics``, whose entries each workload
must report, never as 0, steadily enough to bound: ``sweep_s`` exists
only on ``knee_sweep`` (where ``ops_per_s`` over whole sweeps carries the
same time), ``failed_ratio`` is ``failed / attempted`` and is 0 on a
good run, and ``op_ms_p90`` moved by up to a fifth between runs of equal
work on a shared two-core machine whose speed drifts over seconds.
"""

import os

# must precede the first numpy import, here and in the set-up processes
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["XCORR_NO_NUMBA"] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
EXPECTED = HERE / "expected.json"
NAMES = ("scenario_mix", "knee_sweep", "core_search", "matched_store")
DEFAULT_SEED = 13
MIN_OPS = 100
SETUP_SAMPLES = 5


class BenchError(Exception):
    """The benchmark cannot run here."""


@dataclass
class Unit:
    """One finished unit: its index, ops run, result or error, wall time."""

    j: int
    n_ops: int
    result: object
    error: str | None
    wall_s: float


def load(name: str, seed: int, workdir: Path):
    """Import xcorr from this checkout and build the workload's inputs.

    Returns (workload, recorder, seconds taken).
    """
    if not (SRC / "xcorr" / "__init__.py").is_file():
        raise BenchError(f"no xcorr sources under {SRC}")
    t0 = time.perf_counter()
    sys.path[:0] = [str(SRC), str(HERE)]
    import tracer
    import workloads
    import xcorr

    if Path(xcorr.__file__).resolve().parent != SRC / "xcorr":
        raise BenchError(f"imported xcorr from {xcorr.__file__}, not from {SRC}")
    rec = tracer.Recorder()
    wl = workloads.WORKLOADS[name](seed, rec, workdir)
    return wl, rec, time.perf_counter() - t0


def setup_child(args) -> float:
    """Set-up time in a fresh process (import time can only be measured
    once per process)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"set-up process failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def phase(wl, rec, units, seconds: float, on_unit, min_ops: int = 0, block: int = 1) -> float:
    """Run whole units until ``seconds`` of run time have passed, ``min_ops``
    ops have run and a whole number of blocks is done.  ``on_unit`` gets
    each finished unit with the clock stopped.  Returns the run time."""
    rec.latencies_ns.clear()
    busy = 0.0
    for k, j in enumerate(units, 1):
        before = len(rec.latencies_ns)
        t0 = time.perf_counter()
        try:
            result, error = wl.run(j), None
        except Exception as exc:  # an op that raises is a failed op
            result, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        busy += wall
        on_unit(Unit(j, len(rec.latencies_ns) - before, result, error, wall))
        if busy >= seconds and len(rec.latencies_ns) >= min_ops and k % block == 0:
            return busy
    return busy


class Checker:
    """Checks finished units: any-seed problems, and recorded outcomes for
    the default seed.  Counts attempted and failed ops."""

    def __init__(self, wl, expected: list | None):
        self.wl = wl
        self.expected = expected
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def __call__(self, u: Unit) -> None:
        n = max(u.n_ops, 1)
        self.attempted += n
        try:
            found = [u.error] if u.error else self.wl.problems(u.j, u.result, u.n_ops)
            if u.error is None and self.expected is not None and u.j < len(self.expected):
                got = json.loads(json.dumps(self.wl.outcome(u.j, u.result)))
                if got != self.expected[u.j]:
                    found.append(f"outcome {got} differs from the recorded {self.expected[u.j]}")
        except Exception as exc:  # a check that cannot read the result fails the op
            found = [f"check raised {type(exc).__name__}: {exc}"]
        if found:
            self.failed += n
            self.problems.append(f"unit {u.j}: {'; '.join(found)}")


def percentile_ms(latencies_ns, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(latencies_ns, dtype=np.float64), q)) / 1e6


def load_expected(name: str, seed: int) -> list | None:
    if seed != DEFAULT_SEED:
        return None
    doc = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    if name not in doc:
        raise BenchError(f"{EXPECTED.name} has no recorded outcomes for {name}")
    return doc[name]


def environment() -> str:
    import numpy as np

    from xcorr import _kernels

    numba = "absent" if importlib.util.find_spec("numba") is None else "installed"
    return (
        f"env nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={np.__version__} numba={numba} numba_path={_kernels.HAS_NUMBA} "
        f"blas_threads={os.environ['OPENBLAS_NUM_THREADS']} default_seed={DEFAULT_SEED}"
    )


def timed_run(args, wl, rec, setup: list[float], expected):
    checker = Checker(wl, expected)
    walls: list[float] = []

    def on_unit(u: Unit) -> None:
        checker(u)
        walls.append(u.wall_s)
        # spread the set-ups over the run, so they see the machine as the ops do
        if sum(walls) >= args.seconds * len(setup) / SETUP_SAMPLES and len(setup) < SETUP_SAMPLES:
            setup.append(setup_child(args))

    busy = phase(wl, rec, itertools.count(), args.seconds, on_unit, MIN_OPS)
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_child(args))
    lat = list(rec.latencies_ns)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_ms_p50": (percentile_ms(lat, 50), "ms"),
        "ops_per_s": (len(lat) / busy, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup)} set-ups",
        "op_ms_p50": f"{len(lat)} ops",
        "ops_per_s": f"{len(lat)} ops in {busy:.3f} s of run time",
        "peak_rss_mb": "this process",
    }
    lines = [f"{wl.name} {k} {v} {unit}  ({notes[k]})" for k, (v, unit) in metrics.items()]
    # printed, not in the result: see the module docstring
    lines.append(f"{wl.name} op_ms_p90 {percentile_ms(lat, 90)} ms  ({len(lat)} ops)")
    if wl.name == "knee_sweep":
        lines.append(f"{wl.name} sweep_s {statistics.median(walls)} s  (median of {len(walls)} sweeps)")
    else:
        lines.append(f"{wl.name} sweep_s n/a  (no sweep in this workload)")
    lines.append(f"{wl.name} failed_ratio {checker.failed / checker.attempted} ratio  "
                 f"({checker.failed} of {checker.attempted} ops)")
    return checker, metrics, lines


def traced_run(args, wl, rec, expected):
    from workloads import witness_work

    checker = Checker(wl, expected)
    units = itertools.cycle(range(wl.block))
    half = args.seconds / 2
    phase(wl, rec, units, half, checker, block=wl.block)
    untraced_p50 = percentile_ms(rec.latencies_ns, 50)

    searches = []
    rec.on_return(
        "_kernels.find_witness",
        lambda a, kw, res: searches.append(
            (a[0].shape[0], a[0].shape[1], a[2], None if res is None else tuple(int(i) for i in res))
        ),
    )
    traced: list[Unit] = []
    rec.clear_spans()
    rec.install()
    try:
        phase(wl, rec, units, half, traced.append, block=wl.block)
    finally:
        rec.uninstall()
    traced_p50 = percentile_ms(rec.latencies_ns, 50)
    for u in traced:  # checked untraced, so the checks leave no spans
        checker(u)
    summary = rec.summary()
    if summary["self_sum_gap_ns"] != 0:
        checker.problems.append(f"self times miss their root spans by {summary['self_sum_gap_ns']} ns")

    metrics = {}
    for name, value in summary["layers"].items():
        if name != "op.calls":
            metrics[name] = (value, "count/op" if name.endswith(".calls") else "ms/op")
    ops = rec.n_ops
    work = witness_work(searches)
    metrics["kernels.find_witness.candidates"] = (work["candidates"] / ops, "count/op")
    metrics["kernels.find_witness.bytes_computed"] = (work["bytes"] / ops, "bytes/op")
    metrics["kernels.find_witness.hit_ratio"] = (
        work["hits"] / work["searches"] if work["searches"] else 0.0, "ratio")
    counts = wl.counts([u.result for u in traced if u.error is None])
    for name in ("core_family_search.tests_used", "core_family_search.unknown_answers",
                 "bayes.learn_params.iterations"):
        metrics[name] = (counts.get(name, 0) / ops, "count/op")
    metrics["experiment.sweep.probes"] = (
        counts.get("experiment.sweep.probes", 0) / len(traced), "count/sweep")
    metrics["trace.op_ms_p50"] = (traced_p50, "ms")
    metrics["trace.untraced_op_ms_p50"] = (untraced_p50, "ms")
    metrics["trace.overhead_ms"] = (traced_p50 - untraced_p50, "ms")

    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{wl.name}-s{args.seed}.npz"
    rec.save(path, {"workload": wl.name, "seed": args.seed, "ops": ops, "env": environment()})
    lines = [f"{wl.name} {k} {v} {unit}" for k, (v, unit) in metrics.items()]
    lines.append(f"{wl.name} traced {ops} ops in {len(traced)} units (blocks of {wl.block}); "
                 f"self times sum to their root spans within {summary['self_sum_gap_ns']} ns; "
                 f"spans in {path.relative_to(ROOT)}")
    return checker, metrics, lines


def run_one(args) -> int:
    workdir = OUT / f"work-{os.getpid()}"
    try:
        wl, rec, setup = load(args.workload, args.seed, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": setup}))
            return 0
        expected = load_expected(args.workload, args.seed)
        for j in range(min(2, wl.block)):  # warm-up: lazy imports, first-call costs
            wl.run(j)
        if args.trace:
            result = traced_run(args, wl, rec, expected)
        else:
            result = timed_run(args, wl, rec, [setup], expected)
        checker, metrics, lines = result
        checker.problems += wl.run_problems()
        print(environment() + f" seed={args.seed} seconds={args.seconds} trace={args.trace}")
        for line in lines:
            print(line)
        for p in checker.problems[:20]:
            print(f"FAILED {p}")
        print(json.dumps({
            "correct": not checker.problems,
            "attempted": checker.attempted,
            "failed": checker.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is its own."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        res = json.loads(lines[-1])
        summary["correct"] &= res["correct"]
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
        summary["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(summary))
    return 0


def record(names) -> int:
    """Record the default seed's outcomes for the first ``recorded`` units."""
    doc = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    for name in names:
        workdir = OUT / f"work-{os.getpid()}"
        try:
            wl, _, _ = load(name, DEFAULT_SEED, workdir)
            outcomes = []
            for j in range(wl.recorded):
                res = wl.run(j)
                found = wl.problems(j, res, len(wl.rec.latencies_ns))
                wl.rec.latencies_ns.clear()
                if found:
                    raise BenchError(f"{name} unit {j}: {'; '.join(found)}")
                outcomes.append(json.loads(json.dumps(wl.outcome(j, res))))
            doc[name] = outcomes
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"recorded {len(outcomes)} units of {name}")
    body = ",\n".join(
        f"  {json.dumps(name)}: [\n" + ",\n".join(f"    {json.dumps(o, sort_keys=True)}" for o in doc[name]) + "\n  ]"
        for name in sorted(doc)
    )
    EXPECTED.write_text("{\n" + body + "\n}\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record", action="store_true",
                        help="rewrite expected.json from the default seed")
    args = parser.parse_args(argv)
    try:
        if args.record:
            return record(NAMES if args.workload == "all" else (args.workload,))
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
