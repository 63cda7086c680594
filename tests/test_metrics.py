"""Evaluation helpers, metrics log round trip, and run comparison."""

import math

import numpy as np
import pytest

from advaug import kernels
from advaug.classifier import init_classifier
from advaug.data import Dataset
from advaug.metrics import (MetricsLog, compare_runs, evaluate, log_columns,
                            run_summary)
from advaug.scenarios import Subpop


def known_params():
    # Identity extractor, head that copies the two inputs as logits.
    params = init_classifier(2, 2, hidden=(), feat_dim=2, seed=0)
    params.load_values([np.eye(2), np.zeros(2)])
    return params


def labeled(x, y, group_ids=None, num_classes=2):
    return Dataset(x, y, num_classes, group_ids=group_ids)


class TestEvaluate:
    def test_blocks_equal_the_whole_set_formula_bit_for_bit(self):
        n = 2 * kernels.BLOCK_ROWS + 1
        rng = np.random.default_rng(3)
        params = init_classifier(4, 3, hidden=(8,), feat_dim=5, seed=2)
        x = rng.normal(size=(n, 4))
        y = rng.integers(0, 3, size=n)
        out = evaluate(params, labeled(x, y, num_classes=3))
        _, _, z = kernels.forward(params.arrays(), x)
        shifted = z - z.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        correct = z.argmax(axis=1) == y
        assert out["loss"] == float(-logp[np.arange(n), y].mean())
        assert out["accuracy"] == float(correct.mean())
        assert out["per_class_recall"].tolist() == [
            float(correct[y == c].mean()) for c in range(3)]

    def test_accuracy_and_recall_exact(self):
        params = known_params()
        x = np.array([[2.0, 0.0], [0.0, 2.0], [2.0, 0.0], [2.0, 0.0]])
        y = np.array([0, 1, 1, 0])
        out = evaluate(params, labeled(x, y))
        assert out["accuracy"] == pytest.approx(0.75)
        assert out["per_class_recall"][0] == pytest.approx(1.0)
        assert out["per_class_recall"][1] == pytest.approx(0.5)
        assert math.isnan(out["worst_group_accuracy"])

    def test_loss_matches_closed_form(self):
        params = known_params()
        x = np.array([[1.0, -1.0]])
        y = np.array([0])
        out = evaluate(params, labeled(x, y))
        expect = -np.log(np.exp(1.0) / (np.exp(1.0) + np.exp(-1.0)))
        assert out["loss"] == pytest.approx(expect, rel=1e-12)

    def test_worst_group(self):
        params = known_params()
        x = np.array([[2.0, 0.0], [0.0, 2.0], [0.0, 2.0], [2.0, 0.0]])
        y = np.array([0, 1, 1, 1])
        g = np.array([0, 0, 1, 1])
        out = evaluate(params, labeled(x, y, group_ids=g))
        # group 0 fully correct, group 1 fully wrong on one of two
        assert out["worst_group_accuracy"] == pytest.approx(0.5)

    @pytest.mark.parametrize("case", ["fewer-classes", "empty-class",
                                      "subpop-groups"])
    def test_recall_and_groups_equal_the_boolean_masks_bit_for_bit(self,
                                                                   case):
        # A test set may hold fewer classes than the classifier (custom-csv
        # allows it) or no rows of a class: those recalls stay nan.
        rng = np.random.default_rng(11)
        params = init_classifier(4, 4, hidden=(8,), feat_dim=5, seed=3)
        if case == "subpop-groups":
            data = Subpop().build(0).test
        else:
            y = (rng.integers(0, 2, size=300) if case == "fewer-classes"
                 else rng.choice([0, 2, 3], size=300))
            data = labeled(rng.normal(size=(300, 4)), y,
                           num_classes=2 if case == "fewer-classes" else 4)
        out = evaluate(params, data)
        _, _, z = kernels.forward(params.arrays(), data.features)
        y = data.labels
        correct = z.argmax(axis=1) == y
        recall = np.array([float(correct[y == c].mean()) if (y == c).any()
                           else math.nan for c in range(4)])
        assert out["per_class_recall"].tobytes() == recall.tobytes()
        assert np.isnan(recall).sum() == (1 if case == "empty-class" else 2)
        if case == "subpop-groups":
            g = data.group_ids
            assert out["worst_group_accuracy"] == min(
                float(correct[g == v].mean()) for v in np.unique(g))
        else:
            assert math.isnan(out["worst_group_accuracy"])


def sample_row(num_classes, epoch=1, acc=0.5):
    row = {c: math.nan for c in log_columns(num_classes)}
    row.update({"epoch": epoch, "iteration": epoch * 10, "phase": "meta",
                "train_loss": 0.7, "test_loss": 0.9, "test_accuracy": acc})
    for c in range(num_classes):
        row[f"recall_{c}"] = acc
        row[f"mean_eps_{c}"] = 0.0
        row[f"adv_ratio_{c}"] = 0.0
    row.update({"gen_term": 1.0, "rob_term": 2.0, "fair_term": 3.0})
    return row


class TestMetricsLog:
    def test_rejects_wrong_keys(self):
        log = MetricsLog(2)
        row = sample_row(2)
        row.pop("train_loss")
        with pytest.raises(ValueError):
            log.append(row)
        row = sample_row(2)
        row["bogus"] = 1
        with pytest.raises(ValueError):
            log.append(row)

    def test_csv_round_trip_is_exact(self, tmp_path):
        log = MetricsLog(3)
        log.append(sample_row(3, epoch=1, acc=1 / 3))
        log.append(sample_row(3, epoch=2, acc=2 / 3))
        path = tmp_path / "metrics.csv"
        log.write_csv(str(path))
        back = MetricsLog.read_csv(str(path))
        assert back.num_classes == 3
        assert len(back.rows) == 2
        for a, b in zip(log.rows, back.rows):
            for key in a:
                va, vb = a[key], b[key]
                if isinstance(va, float) and math.isnan(va):
                    assert math.isnan(vb)
                else:
                    assert va == vb

    def test_rewrite_is_bit_identical(self, tmp_path):
        log = MetricsLog(2)
        log.append(sample_row(2, epoch=1, acc=0.123456789012345))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        log.write_csv(str(p1))
        MetricsLog.read_csv(str(p1)).write_csv(str(p2))
        assert p1.read_bytes() == p2.read_bytes()


class TestCompareRuns:
    def test_paired_deltas_and_aggregates(self):
        base = {1: {"accuracy": 0.5, "worst_class_recall": 0.1,
                    "worst_group_accuracy": math.nan},
                2: {"accuracy": 0.6, "worst_class_recall": 0.2,
                    "worst_group_accuracy": math.nan}}
        cand = {1: {"accuracy": 0.7, "worst_class_recall": 0.4,
                    "worst_group_accuracy": math.nan},
                2: {"accuracy": 0.6, "worst_class_recall": 0.5,
                    "worst_group_accuracy": math.nan}}
        rep = compare_runs(base, cand)
        assert rep["accuracy_delta"]["mean"] == pytest.approx(0.1)
        assert rep["worst_class_recall_delta"]["mean"] == pytest.approx(0.3)
        deltas = [e["accuracy_delta"] for e in rep["per_seed"]]
        assert deltas == pytest.approx([0.2, 0.0])
        assert math.isnan(rep["worst_group_delta"]["mean"])

    def test_group_deltas_when_present(self):
        base = {5: {"accuracy": 0.5, "worst_class_recall": 0.5,
                    "worst_group_accuracy": 0.2}}
        cand = {5: {"accuracy": 0.5, "worst_class_recall": 0.5,
                    "worst_group_accuracy": 0.45}}
        rep = compare_runs(base, cand)
        assert rep["worst_group_delta"]["mean"] == pytest.approx(0.25)

    def test_mismatched_seeds_error(self):
        row = {"accuracy": 0.5, "worst_class_recall": 0.5,
               "worst_group_accuracy": math.nan}
        with pytest.raises(ValueError):
            compare_runs({1: row}, {2: row})
        with pytest.raises(ValueError):
            compare_runs({}, {})


class TestRunSummary:
    def test_uses_last_row(self):
        log = MetricsLog(2)
        log.append(sample_row(2, epoch=1, acc=0.2))
        row = sample_row(2, epoch=2, acc=0.9)
        row["recall_1"] = 0.7
        log.append(row)
        log.events.append("iteration 20: an event")
        s = run_summary(log)
        assert s["accuracy"] == pytest.approx(0.9)
        assert s["worst_class_recall"] == pytest.approx(0.7)
        assert s["per_class_recall"] == [0.9, 0.7]
        assert s["test_loss"] == 0.9
        assert math.isnan(s["worst_group_accuracy"])
        assert s["epochs"] == 2
        assert s["events"] == ["iteration 20: an event"]

    def test_empty_log_gives_nan_figures(self):
        """A run that aborts before its first epoch row still gets every
        figure: 0 epochs and nan, with its events."""
        log = MetricsLog(3)
        log.events.append("iteration 1: an event")
        s = run_summary(log)
        assert s["epochs"] == 0
        for key in ("accuracy", "worst_class_recall", "worst_group_accuracy",
                    "test_loss"):
            assert math.isnan(s[key]), key
        assert len(s["per_class_recall"]) == 3
        assert all(math.isnan(r) for r in s["per_class_recall"])
        assert s["events"] == ["iteration 1: an event"]
