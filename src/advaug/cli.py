"""Command-line experiment harness.

Verbs:
  run       train one scenario from a config file, writing artifacts
  sweep     run the alpha grid {0.1, 0.25, 0.5, 0.75, 1} off one base config
            and its datasets, built once; a failing alpha stops it with that
            run's exit code, and the summary keeps the rows that finished
  compare   paired-seed comparison of two sets of run directories of one
            scenario; its JSON report is strict JSON, like summary.json
  verify    run the analytical self-check suites
  gen-data  materialize a scenario's train/meta/test splits as CSV, and the
            noise mask where labels were corrupted

Each verb parses its file once; the run description it gets holds the
validated `TrainerConfig`, which trains it.  Once its inputs and output
directories are accepted, a verb removes every file it will write; a run
writes summary.json last.  Exit codes: 0 success, 1 verification failure
(`verify` only), 2 invalid configuration or inputs (non-finite numbers, a
negative run or `verify` seed, an output path that is or lies under a
file) before any training, 3 numerical abort during training (its run
directory still gets the epoch rows logged before the abort and a summary
that names it), 130 interrupted anywhere (in training, the same, the
summary's `interrupted` field being the iteration: 0, with a header-only
metrics.csv, before the first; a sweep stops there); neither writes
checkpoints.  Relative output directories are resolved under
$ADVAUG_OUTPUT_ROOT (default: current directory) and made before training.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .classifier import save_checkpoint
from .config import ConfigError, RunConfig, parse_config, write_resolved
from .data import DataError, save_csv
from .metrics import compare_runs, run_summary
from .scenarios import ScenarioData, build_scenario
from .training import NumericalAbort, train
from .verification import run_all

OUTPUT_ROOT_ENV = "ADVAUG_OUTPUT_ROOT"

ALPHA_GRID = (0.1, 0.25, 0.5, 0.75, 1.0)

# What a run writes into its directory; the last two are its checkpoints.
RUN_ARTIFACTS = ("metrics.csv", "resolved_config.ini", "summary.json",
                 "classifier.npz", "perturb_net.npz")


def _fail(message: str, code: int) -> int:
    print(message, file=sys.stderr)
    return code


def _resolve_output(configured: str, override: str | None) -> Path:
    raw = Path(override) if override else Path(configured)
    if not raw.is_absolute():
        raw = Path(os.environ.get(OUTPUT_ROOT_ENV, ".")) / raw
    return raw


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {seed}")
    return seed


def _strict(value):
    """`value` with every non-finite float replaced by None (null)."""
    if isinstance(value, dict):
        return {key: _strict(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_strict(item) for item in value]
    finite = not isinstance(value, float) or math.isfinite(value)
    return value if finite else None


def _write_json(payload: dict, path) -> None:
    """The one JSON writer of the harness: strict JSON, null for nan."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_strict(payload), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")


def _execute_run(cfg: RunConfig, data: ScenarioData,
                 out_dir: Path) -> tuple[int, dict | None]:
    """Train one configuration on its datasets and write its artifacts into
    the existing directory `out_dir`, which holds none of them.

    The summary is the run's identity plus `metrics.run_summary` of its log.
    A numerical abort or an interrupt in training still writes the epoch
    rows logged before it (none before the first iteration) and a summary
    of them, whose `aborted` field names the stage, the iteration and the
    loss, or whose `interrupted` field is the iteration; neither writes
    checkpoints.
    """
    stop = None
    try:
        # Divergence is reported once via the exit code; the overflow
        # warnings numpy emits on the way down would only add noise.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            state, log = train(cfg.trainer, data.train, data.meta,
                               eval_data=data.test)
    except (NumericalAbort, KeyboardInterrupt) as exc:
        if not hasattr(exc, "log"):  # interrupted outside train
            raise
        stop, log = exc, exc.log

    log.write_csv(str(out_dir / "metrics.csv"))
    write_resolved(cfg, str(out_dir / "resolved_config.ini"))
    if stop is None:
        save_checkpoint(state.params, str(out_dir / "classifier.npz"))
        save_checkpoint(state.perturb, str(out_dir / "perturb_net.npz"))
    summary = {"scenario": cfg.scenario, "seed": cfg.seed,
               "alpha": cfg.trainer.alpha, "beta": cfg.trainer.beta,
               "t1": cfg.trainer.t1, "t2": cfg.trainer.t2,
               **run_summary(log)}
    if isinstance(stop, KeyboardInterrupt):
        summary["interrupted"] = stop.iteration
        code, message = 130, f"interrupted at iteration {stop.iteration}"
    elif stop is not None:
        summary["aborted"] = {"stage": stop.stage,
                              "iteration": stop.iteration,
                              "value": str(stop.value)}
        code, message = 3, f"numerical abort: {stop}"
    _write_json(summary, out_dir / "summary.json")
    if stop is not None:
        return _fail(message, code), None
    return 0, summary


def cmd_run(args) -> int:
    try:
        cfg = parse_config(args.config)
        data = build_scenario(cfg)
        out_dir = _resolve_output(cfg.output_dir, args.output)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name in RUN_ARTIFACTS:
            (out_dir / name).unlink(missing_ok=True)
    except (ConfigError, DataError, OSError, ValueError) as exc:
        return _fail(f"config error: {exc}", 2)
    code, summary = _execute_run(cfg, data, out_dir)
    if code == 0:
        print(f"run complete: {out_dir} "
              f"(accuracy {summary['accuracy']:.4f}, "
              f"worst-class recall {summary['worst_class_recall']:.4f})")
    return code


def cmd_sweep(args) -> int:
    try:
        cfg = parse_config(args.config)
        data = build_scenario(cfg)
        root = _resolve_output(f"{cfg.scenario}_alpha_sweep_seed{cfg.seed}",
                               args.output)
        for alpha in ALPHA_GRID:
            (root / f"alpha_{alpha}").mkdir(parents=True, exist_ok=True)
        for alpha in ALPHA_GRID:
            for name in RUN_ARTIFACTS:
                (root / f"alpha_{alpha}" / name).unlink(missing_ok=True)
        (root / "sweep_summary.csv").unlink(missing_ok=True)
    except (ConfigError, DataError, OSError, ValueError) as exc:
        return _fail(f"config error: {exc}", 2)
    rows = []
    for alpha in ALPHA_GRID:
        out_dir = root / f"alpha_{alpha}"
        member = replace(cfg, trainer=replace(cfg.trainer, alpha=alpha),
                         output_dir=str(out_dir))
        code, summary = _execute_run(member, data, out_dir)
        if code != 0:
            print(f"sweep stopped at alpha {alpha} (exit {code}); "
                  f"{len(rows)} finished rows kept", file=sys.stderr)
            break
        rows.append((alpha, summary["accuracy"],
                     summary["worst_class_recall"], summary["test_loss"]))
    with open(root / "sweep_summary.csv", "w", newline="",
              encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["alpha", "accuracy", "worst_class_recall",
                         "test_loss"])
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])
    if code != 0:
        return code
    print("alpha  accuracy  worst_class_recall")
    for alpha, acc, wcr, _ in rows:
        print(f"{alpha:<6g} {acc:<9.4f} {wcr:.4f}")
    print(f"sweep complete: {root}")
    return 0


def _load_summaries(dirs) -> dict[int, dict]:
    out = {}
    for d in dirs:
        path = Path(d) / "summary.json"
        with open(path, encoding="utf-8") as fh:
            summary = json.load(fh)
        if "aborted" in summary:
            raise ValueError(f"{d} holds an aborted run")
        if "interrupted" in summary:
            raise ValueError(f"{d} holds an interrupted run")
        seed = summary["seed"]
        if seed in out:
            raise ValueError(f"duplicate seed {seed} in {d}")
        if summary.get("worst_group_accuracy") is None:
            summary["worst_group_accuracy"] = math.nan
        out[seed] = summary
    return out


def cmd_compare(args) -> int:
    try:
        baseline = _load_summaries(args.baseline)
        candidate = _load_summaries(args.candidate)
        report = compare_runs(baseline, candidate)
        if args.output:
            _write_json(report, args.output)
    except (OSError, ValueError, KeyError) as exc:
        return _fail(f"compare error: {exc}", 2)
    print("seed  accuracy_delta  worst_class_recall_delta")
    for entry in report["per_seed"]:
        print(f"{entry['seed']:<5d} {entry['accuracy_delta']:+.4f}        "
              f"{entry['worst_class_recall_delta']:+.4f}")
    acc = report["accuracy_delta"]
    wcr = report["worst_class_recall_delta"]
    print(f"mean accuracy delta {acc['mean']:+.4f} (std {acc['std']:.4f})")
    print(f"mean worst-class recall delta {wcr['mean']:+.4f} "
          f"(std {wcr['std']:.4f})")
    wg = report["worst_group_delta"]
    if not math.isnan(wg["mean"]):
        print(f"mean worst-group delta {wg['mean']:+.4f} "
              f"(std {wg['std']:.4f})")
    return 0


def cmd_verify(args) -> int:
    records = run_all(seed=args.seed)
    ok = True
    for rec in records:
        status = "PASS" if rec["passed"] else "FAIL"
        ok = ok and rec["passed"]
        print(f"{rec['name']:<20s} {status}  {rec['detail']}")
    return 0 if ok else 1


def cmd_gen_data(args) -> int:
    try:
        cfg = parse_config(args.config)
        data = build_scenario(cfg)
        out_dir = _resolve_output(f"{cfg.scenario}_data_seed{cfg.seed}",
                                  args.output)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name in ("train.csv", "meta.csv", "test.csv", "noise_mask.csv"):
            (out_dir / name).unlink(missing_ok=True)
    except (ConfigError, DataError, OSError, ValueError) as exc:
        return _fail(f"config error: {exc}", 2)
    save_csv(data.train, out_dir / "train.csv")
    save_csv(replace(data.meta, group_ids=None), out_dir / "meta.csv")
    save_csv(data.test, out_dir / "test.csv")
    if data.train.noise_mask is not None:
        with open(out_dir / "noise_mask.csv", "w", newline="",
                  encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["noisy"])
            for flag in data.train.noise_mask:
                writer.writerow([int(flag)])
    print(f"datasets written: {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="advaug",
        description="Adversarial implicit augmentation experiment harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="train one configured scenario")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--output", help="override the output directory")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="alpha-grid sweep of one config")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--output", help="sweep root directory")
    p_sweep.set_defaults(func=cmd_sweep)

    p_cmp = sub.add_parser("compare",
                           help="paired-seed comparison of run directories")
    p_cmp.add_argument("--baseline", nargs="+", required=True)
    p_cmp.add_argument("--candidate", nargs="+", required=True)
    p_cmp.add_argument("--output", help="write the JSON report here")
    p_cmp.set_defaults(func=cmd_compare)

    p_verify = sub.add_parser("verify", help="run analytical self-checks")
    p_verify.add_argument("--seed", type=_seed, default=0)
    p_verify.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser("gen-data", help="write scenario CSV datasets")
    p_gen.add_argument("--config", required=True)
    p_gen.add_argument("--output", help="output directory")
    p_gen.set_defaults(func=cmd_gen_data)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        return _fail("interrupted", 130)


if __name__ == "__main__":
    raise SystemExit(main())
