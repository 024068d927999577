"""Command-line front end.

Subcommands::

    simulate    draw a scenario's trials and persist observations
    detect      run one detection algorithm on stored observations
    sweep       knee detection across universe sizes
    threshold   separation-threshold calculus for a core shape
    match       cluster inputs from category-ad display counts
    report      run a scenario end to end, emit report, gate on metrics

Every subcommand that simulates takes its scenario from ``--config`` (a
JSON file); ``--seed`` beats the config's seed, which beats the
``XCORR_SEED`` environment variable, which beats 0.  Exit codes: 0 on
success, 2 for configuration problems (a run too large for memory
included), 3 when a ``report`` requirement gate fails (for CI use).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError, XCorrError, parse_artifact
from .experiment import (
    ALGORITHMS,
    CorrelationStore,
    ScenarioConfig,
    algorithm_verdicts,
    canonical_json,
    match_inputs,
    run_scenario,
    scaling_sweep,
    scenario_hash,
    simulate_trial,
)
from .placement import PlacementMatrix
from .simulator import ObservationSet
from .threshold_analysis import (
    admissible,
    max_ratio,
    phi_curve,
    recommend_config,
    theoretical_account_constant,
)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def _load_config(args) -> tuple[ScenarioConfig, bool]:
    """Config plus whether the file pinned a seed explicitly."""
    if args.config is None:
        raise ConfigError("this command needs --config (a scenario JSON file)")
    doc = parse_artifact(_read_text(args.config), args.config, ())
    return ScenarioConfig.from_dict(doc), "seed" in doc


def _resolve_seed(args, cfg: ScenarioConfig, config_has_seed: bool) -> ScenarioConfig:
    """--seed > config seed > XCORR_SEED > 0."""
    if getattr(args, "seed", None) is not None:
        return dataclasses.replace(cfg, seed=args.seed)
    if config_has_seed:
        return cfg
    env = os.environ.get("XCORR_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError as exc:
            raise ConfigError(f"XCORR_SEED must be an integer, got {env!r}") from exc
        return dataclasses.replace(cfg, seed=seed)
    return dataclasses.replace(cfg, seed=0)


def _check_writable(*paths: str | None) -> None:
    """Fail before any work when an output file could not be written:
    a long run must not end, after every trial (and every store append),
    on a bad destination."""
    for path in paths:
        if path is None:
            continue
        target = Path(path)
        if target.is_dir():
            raise ConfigError(f"cannot write {path}: it is a directory")
        if not target.parent.is_dir():
            raise ConfigError(f"cannot write {path}: no directory {target.parent}")
        if not os.access(target if target.exists() else target.parent, os.W_OK):
            raise ConfigError(f"cannot write {path}: permission denied")


def _emit(doc: dict | str, out: str | None) -> None:
    text = doc if isinstance(doc, str) else canonical_json(doc)
    if out is None:
        sys.stdout.write(text + ("\n" if not text.endswith("\n") else ""))
    else:
        Path(out).write_text(
            text + ("\n" if not text.endswith("\n") else ""), encoding="utf-8"
        )


# ------------------------------------------------------------ subcommands


def _cmd_simulate(args) -> int:
    cfg, has_seed = _load_config(args)
    cfg = _resolve_seed(args, cfg, has_seed)
    if args.store is None and args.out_dir is None:
        raise ConfigError("simulate: need --store or --out-dir to put trials somewhere")
    store = CorrelationStore(args.store) if args.store else None
    out_dir = Path(args.out_dir) if args.out_dir else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    key = scenario_hash(cfg.to_dict())
    root = np.random.SeedSequence(cfg.seed)
    for t, ss in enumerate(root.spawn(cfg.trials)):
        record = simulate_trial(cfg, ss).to_record(t)
        if store is not None:
            store.append(key, "trials", record)
        if out_dir is not None:
            for part in ("placement", "observations", "truth"):
                (out_dir / f"trial{t}_{part}.json").write_text(
                    json.dumps(record[part]), encoding="utf-8"
                )
    _emit({"key": key, "trials": cfg.trials}, None)
    return 0


def _cmd_detect(args) -> int:
    pm = PlacementMatrix.from_json(_read_text(args.placement))
    obs = ObservationSet.from_json(_read_text(args.obs), pm)
    if args.config is not None:
        cfg, _ = _load_config(args)
        if cfg.n_inputs != pm.n_inputs:
            raise ConfigError(
                f"config says n_inputs={cfg.n_inputs} but the placement "
                f"has {pm.n_inputs} columns"
            )
    else:
        cfg = ScenarioConfig(n_inputs=pm.n_inputs)
    verdicts = algorithm_verdicts(args.algo, cfg, obs, pm)
    _emit({"algo": args.algo, "predictions": verdicts.to_doc(obs.output_ids)}, args.out)
    return 0


def _cmd_sweep(args) -> int:
    cfg, has_seed = _load_config(args)
    cfg = _resolve_seed(args, cfg, has_seed)
    _check_writable(args.out, args.csv)
    try:
        n_values = [int(v) for v in args.n_values.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"--n-values must be comma-separated ints: {exc}") from exc
    result = scaling_sweep(
        cfg, n_values, algo=args.algo, m_hi=args.m_hi, trials=args.trials
    )
    _emit(result.to_json(), args.out)
    if args.csv is not None:
        lines = ["algo,n_inputs,metric,value"]
        for row in result.rows:
            lines.append(f"{args.algo},{row.n_inputs},knee_m,{row.knee_m}")
            lines.append(
                f"{args.algo},{row.n_inputs},plateau_recall,{row.plateau_recall:.6f}"
            )
        for metric in ("slope", "intercept", "r_squared"):
            value = getattr(result, metric)
            if value is not None:
                lines.append(f"{args.algo},,{metric},{value:.6f}")
        Path(args.csv).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


def _cmd_threshold(args) -> int:
    result = max_ratio(args.l, args.r)
    doc = {"l": args.l, "r": args.r, **result.to_dict()}
    if args.ratio is not None:
        # interpret --ratio as p_out/p_in, the quantity the bound caps
        doc["ratio"] = args.ratio
        doc["admissible"] = admissible(args.ratio, 1.0, args.l, args.r)
        if doc["admissible"]:
            rec = recommend_config(args.l, args.r, args.ratio)
            doc["recommended"] = {
                "x": rec.x,
                "alpha": rec.alpha,
                "account_constant": theoretical_account_constant(
                    rec.x, rec.alpha, args.l
                ),
            }
    if args.curve is not None:
        doc["curve"] = [
            [z, x, value] for z, x, value in phi_curve(args.l, args.r, args.curve)
        ]
    _emit(doc, args.out)
    return 0


def _cmd_match(args) -> int:
    cfg, has_seed = _load_config(args)
    cfg = _resolve_seed(args, cfg, has_seed)
    if cfg.overlap_groups is None:
        raise ConfigError("match: config needs overlap_groups")
    if args.threshold is not None:
        cfg = dataclasses.replace(cfg, match_threshold=args.threshold)
    clusters, purity = match_inputs(cfg, cfg.seed, raw=args.raw_distance)
    _emit(
        {"clusters": clusters, "n_clusters": len(clusters), "purity": purity},
        args.out,
    )
    return 0


def _cmd_report(args) -> int:
    for flag, bound in (("recall", args.require_recall), ("precision", args.require_precision)):
        # NaN fails every comparison, so a NaN gate would pass any run
        if bound is not None and not 0.0 <= bound <= 1.0:
            raise ConfigError(f"--require-{flag} must be a number in [0, 1], got {bound}")
    cfg, has_seed = _load_config(args)
    cfg = _resolve_seed(args, cfg, has_seed)
    _check_writable(args.out, args.csv)
    store = CorrelationStore(args.store) if args.store else None
    report = run_scenario(cfg, store=store)
    _emit(report.to_canonical_json(), args.out)
    if args.csv is not None:
        Path(args.csv).write_text(report.to_csv(), encoding="utf-8")
    failures = []
    for algo in cfg.algorithms:
        pooled = report.algorithms[algo]["pooled"]
        if args.require_recall is not None and pooled["recall"] < args.require_recall:
            failures.append(
                f"{algo}: recall {pooled['recall']:.4f} < {args.require_recall}"
            )
        if (
            args.require_precision is not None
            and pooled["precision"] < args.require_precision
        ):
            failures.append(
                f"{algo}: precision {pooled['precision']:.4f} < {args.require_precision}"
            )
    if failures:
        for line in failures:
            print(f"requirement failed: {line}", file=sys.stderr)
        return 3
    return 0


# ----------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xcorr", description="differential-correlation targeting audit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_seed(p):
        p.add_argument("--config", help="scenario config JSON file")
        p.add_argument("--seed", type=int, help="override the scenario seed")

    p = sub.add_parser("simulate", help="draw trials and persist observations")
    add_config_seed(p)
    p.add_argument("--store", help="append trials to this store directory")
    p.add_argument("--out-dir", help="also write per-trial JSON files here")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("detect", help="run one algorithm on stored observations")
    p.add_argument("--algo", required=True, choices=ALGORITHMS)
    p.add_argument("--obs", required=True, help="observation set JSON file")
    p.add_argument("--placement", required=True, help="placement matrix JSON file")
    p.add_argument("--config", help="scenario config JSON (params + algo options)")
    p.add_argument("--out", help="write predictions JSON here instead of stdout")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("sweep", help="knee detection across universe sizes")
    add_config_seed(p)
    p.add_argument("--n-values", required=True, help="comma-separated universe sizes")
    p.add_argument("--algo", default="bayes", choices=ALGORITHMS)
    p.add_argument("--m-hi", type=int, help="largest account budget to probe")
    p.add_argument("--trials", type=int, help="trials per probe (default: config)")
    p.add_argument("--out", help="write sweep JSON here instead of stdout")
    p.add_argument("--csv", help="also write a flat CSV table here")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("threshold", help="separation-threshold calculus")
    p.add_argument("--l", type=int, required=True, help="family size")
    p.add_argument("--r", type=int, required=True, help="member order")
    p.add_argument("--ratio", type=float, help="p_out/p_in noise ratio to check")
    p.add_argument("--curve", type=int, metavar="POINTS", help="sample the phi curve")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("match", help="cluster inputs from category-ad counts")
    add_config_seed(p)
    p.add_argument("--threshold", type=float, help="override the distance threshold")
    p.add_argument(
        "--raw-distance", action="store_true", help="skip signature normalization"
    )
    p.add_argument("--out", help="write clusters JSON here instead of stdout")
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("report", help="run a scenario end to end and score it")
    add_config_seed(p)
    p.add_argument("--out", help="write the canonical report JSON here")
    p.add_argument("--csv", help="write the flat CSV table here")
    p.add_argument("--store", help="persist trials/predictions to this store")
    p.add_argument(
        "--require-recall", type=float, help="exit 3 if any algorithm's recall is lower"
    )
    p.add_argument(
        "--require-precision",
        type=float,
        help="exit 3 if any algorithm's precision is lower",
    )
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (XCorrError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
