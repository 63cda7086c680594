"""Acceptance gate: one test per shipped guarantee, one verdict line each.

Criteria 1-7 check the closed-form loss construction against independent
oracles (numpy reference CE, Monte Carlo, finite differences, brute-force
recomputation); each is one call of one `advaug.verification` suite, with
the gate's sizes, seeds and bounds, the same suites `advaug verify` runs
at smaller sizes.  Criteria 8-12 train the shipped scenario presets and
compare against plain-CE baselines trained on identical data draws.  Every
test prints `criterion NN <label>: PASS/FAIL (<key numbers>)` and enforces
both the stated tolerance and the runtime budget; run with `-s` to see the
verdict lines on a green suite.
"""

import csv
import itertools
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from advaug import verification
from advaug.cli import ALPHA_GRID, main as cli_main
from advaug.config import parse_config
from advaug.metrics import run_summary
from advaug.scenarios import build_scenario
from advaug.training import train

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SEEDS = (0, 1, 2, 3, 4)


def _verdict(num: int, label: str, passed: bool, detail: str) -> None:
    line = f"criterion {num:02d} {label}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


def _suite_verdict(num: int, label: str, budget: float, suite, detail: str,
                   **arguments) -> None:
    """One call of a `verification` suite, within `budget` seconds; `detail`
    formats its record and `elapsed`."""
    t0 = time.time()
    record = suite(**arguments)
    elapsed = time.time() - t0
    _verdict(num, label, record["passed"] and elapsed < budget,
             detail.format(**record, elapsed=elapsed))


def _final_rows(log) -> list[dict]:
    """Rows covering the last fifth of the logged epochs."""
    rows = log.rows
    return rows[int(np.ceil(len(rows) * 0.8)) - 1:]


def _paired_runs(preset: str, seed: int):
    """Meta-trained run plus a plain-CE run on one identical data draw.

    The baseline reuses the exact config with the warm-up horizon extended
    to cover the whole schedule, so every iteration is a plain CE step on
    the same datasets with the same trainer seed.
    """
    cfg = parse_config(str(CONFIG_DIR / preset))
    cfg = replace(cfg, trainer=replace(cfg.trainer, seed=seed))
    data = build_scenario(cfg)
    tc = cfg.trainer
    _, full = train(tc, data.train, data.meta, eval_data=data.test)
    _, ce = train(replace(tc, t1=tc.t2), data.train, data.meta,
                  eval_data=data.test)
    return data, tc, full, ce


@pytest.fixture(scope="module")
def longtail_pack():
    """Five paired long-tail runs, shared by criteria 8 and 11."""
    t0 = time.time()
    runs = {}
    for seed in SEEDS:
        data, tc, full, ce = _paired_runs("longtail.ini", seed)
        runs[seed] = {"data": data, "tc": tc, "full": full, "ce": ce}
    return {"runs": runs, "seconds": time.time() - t0}


def test_criterion_01_reduction_identity():
    _suite_verdict(1, "reduction-identity", 1.0, verification.reduction_suite,
                   "max dev CE {ce:.2e}, LA {la:.2e}, kernel {kernel:.2e}, "
                   "100 instances, {elapsed:.2f}s",
                   instances=100, seed=11, tol=1e-12)


def test_criterion_02_jensen_upper_bound():
    _suite_verdict(2, "jensen-upper-bound", 120.0, verification.jensen_suite,
                   "{held}/1000 bounds hold, worst margin {worst:+.2e}, "
                   "{elapsed:.1f}s",
                   instances=1000, draws=100000, seed=0)


def test_criterion_03_mgf_identity():
    cells = list(itertools.product((-2.0, -1.0, 0.5, 1.0, 2.0),
                                   (-1.5, -0.5, 0.0, 0.75, 1.5),
                                   (0.25, 0.5, 1.0, 2.0, 4.0)))
    _suite_verdict(3, "mgf-identity", 60.0, verification.mgf_suite,
                   "{within}/125 cells within 4 se, worst {worst:.2f} se, "
                   "{elapsed:.1f}s",
                   cells=cells, count=1000000, seed=2000, bound=4.0)


def test_criterion_04_finite_sample_convergence():
    _suite_verdict(4, "finite-sample-convergence", 120.0,
                   verification.convergence_suite,
                   "mean log-log slope {slope:+.3f} over 50 seeds, "
                   "{elapsed:.1f}s",
                   runs=50, seed=1, limit_count=200000, tol=0.15)


def test_criterion_05_gradient_correctness():
    _suite_verdict(5, "gradient-correctness", 60.0,
                   verification.gradient_suite,
                   "max rel err {worst:.2e} over 50 instances, {elapsed:.1f}s",
                   instances=50, seed=17, tol=1e-4)


def test_criterion_06_hypergradient_correctness():
    t0 = time.time()
    record = verification.hypergradient_suite(seed=0, tol=1e-3)
    # FD needs smooth relu inputs inside the perturbation net
    assert record["kink_margin"] > 1e-3
    elapsed = time.time() - t0
    _verdict(6, "hypergradient-correctness",
             record["passed"] and elapsed < 60.0,
             f"max rel err {record['worst']:.2e} across omega, "
             f"{elapsed:.1f}s")


def test_criterion_07_covariance_pooling():
    _suite_verdict(7, "covariance-pooling", 10.0,
                   verification.covariance_suite,
                   "max pooled-vs-full dev {worst:.2e} over 20 partitions, "
                   "{elapsed:.2f}s",
                   partitions=20, seed=23, tol=1e-10)


def test_criterion_08_longtail_behavior(longtail_pack):
    t0 = time.time()
    deltas = []
    pattern_hits = 0
    for seed in SEEDS:
        pack = longtail_pack["runs"][seed]
        deltas.append(run_summary(pack["full"])["worst_class_recall"]
                      - run_summary(pack["ce"])["worst_class_recall"])
        order = np.argsort(pack["data"].train.class_counts)
        rows = _final_rows(pack["full"])
        small = np.mean([[row[f"adv_ratio_{c}"] for c in order[:2]]
                         for row in rows])
        large = np.mean([[row[f"adv_ratio_{c}"] for c in order[-2:]]
                         for row in rows])
        pattern_hits += small > large
    mean_delta = float(np.mean(deltas))
    elapsed = longtail_pack["seconds"] + time.time() - t0
    passed = mean_delta >= 0.05 and pattern_hits >= 4 and elapsed < 600.0
    _verdict(8, "longtail-behavior", passed,
             f"worst-class recall delta {mean_delta * 100:+.1f} pts, "
             f"tail-vs-head adversarial pattern {pattern_hits}/5 seeds, "
             f"{elapsed:.0f}s")


def test_criterion_09_noisy_label_behavior():
    t0 = time.time()
    eps_hits = 0
    acc_deltas = []
    for seed in SEEDS:
        _, _, full, ce = _paired_runs("noise.ini", seed)
        rows = _final_rows(full)
        noisy = np.mean([row["eps_noisy_mean"] for row in rows])
        clean = np.mean([row["eps_clean_mean"] for row in rows])
        eps_hits += noisy < clean
        acc_deltas.append(run_summary(full)["accuracy"]
                          - run_summary(ce)["accuracy"])
    mean_delta = float(np.mean(acc_deltas))
    elapsed = time.time() - t0
    passed = eps_hits >= 4 and mean_delta >= 0.03 and elapsed < 600.0
    _verdict(9, "noisy-label-behavior", passed,
             f"eps noisy<clean in {eps_hits}/5 seeds, "
             f"accuracy delta {mean_delta * 100:+.1f} pts, {elapsed:.0f}s")


def test_criterion_10_subpopulation_shift_behavior():
    t0 = time.time()
    deltas = []
    for seed in SEEDS:
        _, _, full, ce = _paired_runs("subpop.ini", seed)
        deltas.append(run_summary(full)["worst_group_accuracy"]
                      - run_summary(ce)["worst_group_accuracy"])
    mean_delta = float(np.mean(deltas))
    elapsed = time.time() - t0
    passed = mean_delta >= 0.05 and elapsed < 600.0
    _verdict(10, "subpopulation-shift-behavior", passed,
             f"worst-group accuracy delta {mean_delta * 100:+.1f} pts "
             f"over 5 seeds, {elapsed:.0f}s")


def test_criterion_11_ablation_direction(longtail_pack, tmp_path):
    t0 = time.time()
    full_acc, no_cov_acc, no_eps_acc = [], [], []
    for seed in SEEDS:
        pack = longtail_pack["runs"][seed]
        data, tc = pack["data"], pack["tc"]
        full_acc.append(run_summary(pack["full"])["accuracy"])
        _, log = train(replace(tc, alpha=0.0), data.train, data.meta,
                       eval_data=data.test)
        no_cov_acc.append(run_summary(log)["accuracy"])
        _, log = train(replace(tc, freeze_eps=True), data.train, data.meta,
                       eval_data=data.test)
        no_eps_acc.append(run_summary(log)["accuracy"])
    full = float(np.mean(full_acc))
    no_cov = float(np.mean(no_cov_acc))
    no_eps = float(np.mean(no_eps_acc))

    sweep_dir = tmp_path / "sweep"
    code = cli_main(["sweep", "--config", str(CONFIG_DIR / "longtail.ini"),
                     "--output", str(sweep_dir)])
    with open(sweep_dir / "sweep_summary.csv", newline="") as fh:
        table = list(csv.DictReader(fh))
    swept = tuple(float(row["alpha"]) for row in table)
    sweep_ok = code == 0 and swept == ALPHA_GRID

    elapsed = longtail_pack["seconds"] + time.time() - t0
    passed = (full > no_cov and full > no_eps and sweep_ok
              and elapsed < 1800.0)
    _verdict(11, "ablation-direction", passed,
             f"accuracy full {full:.4f} > alpha-off {no_cov:.4f}, "
             f"> eps-off {no_eps:.4f}; sweep reported {len(table)} rows, "
             f"{elapsed:.0f}s")


SHORT_INI = """\
[run]
scenario = longtail
seed = 3

[data]
n_max = 80
imbalance_ratio = 10
meta_per_class = 5
test_per_class = 20

[model]
hidden = 16
feat_dim = 8

[training]
t1 = 5
t2 = 40
"""


def test_criterion_12_end_to_end_determinism(tmp_path):
    t0 = time.time()
    cfg_path = tmp_path / "short.ini"
    cfg_path.write_text(SHORT_INI)
    logs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert cli_main(["run", "--config", str(cfg_path),
                         "--output", str(out)]) == 0
        logs.append((out / "metrics.csv").read_bytes())
    elapsed = time.time() - t0
    passed = logs[0] == logs[1] and elapsed < 120.0
    _verdict(12, "end-to-end-determinism", passed,
             f"metrics.csv byte-identical across reruns "
             f"({len(logs[0])} bytes), {elapsed:.1f}s")
