"""Run metrics: evaluation helpers, the per-epoch log, the run summary
(every figure of summary.json that comes from the log), and run comparison.

The log schema is stable and documented so downstream tooling can rely on
column names.  All per-class blocks are sized by the number of classes fixed
at construction time; optional quantities (group accuracy, noisy/clean
perturbation means) are emitted as ``nan`` when the scenario does not define
them.
"""

from __future__ import annotations

import csv
import math
import statistics
from dataclasses import dataclass, field

import numpy as np

from .classifier import ClassifierParams
from .data import Dataset
from .kernels import forward, label_index, row_blocks, row_max, row_sum


def mean(x: np.ndarray) -> float:
    """x.mean() by its own sum and division, without numpy's Python wrapper."""
    return float(np.add.reduce(x, axis=None) / x.size)


def share(mask: np.ndarray) -> float:
    """mask.mean() of a bool array: its count of True over its size."""
    return np.count_nonzero(mask) / mask.size


def evaluate(params: ClassifierParams, data: Dataset) -> dict:
    """Evaluation on `data`: loss, accuracy, per-class recall (nan for a
    class with no rows), worst group.

    The rows run in blocks of `kernels.BLOCK_ROWS`; the loss is one mean of
    the per-row log-probabilities of the labels. The recalls and group
    accuracies gather the rows of the set's partitions.
    """
    phi = params.arrays()
    labels = data.labels
    label_logp = np.empty(labels.size)
    pred = np.empty(labels.size, dtype=np.intp)
    for rows in row_blocks(labels.size):
        _, _, z = forward(phi, data.features[rows])
        # Its own log-softmax: softmax_lse adds the max back after the log,
        # which would move the last bits of the logged test loss.
        shifted = z - row_max(z)[:, None]
        label = shifted.take(label_index(labels[rows], z.shape[1]))
        np.exp(shifted, out=shifted)
        label_logp[rows] = label - np.log(row_sum(shifted))
        pred[rows] = z.argmax(axis=1)
    correct = pred == labels
    recall = np.full(params.num_classes, np.nan)
    for c, rows in enumerate(data.class_rows):
        if rows.size:
            recall[c] = share(correct.take(rows))
    out = {
        "loss": -mean(label_logp),
        "accuracy": share(correct),
        "per_class_recall": recall,
        "worst_group_accuracy": math.nan,
    }
    if data.group_rows is not None:
        out["worst_group_accuracy"] = min(
            share(correct.take(rows)) for rows in data.group_rows)
    return out


def log_columns(num_classes: int) -> list[str]:
    """Column names, in emission order, for a run with this many classes."""
    cols = ["epoch", "iteration", "phase", "train_loss", "test_loss",
            "test_accuracy"]
    cols += [f"recall_{c}" for c in range(num_classes)]
    cols += ["worst_group_accuracy"]
    cols += [f"mean_eps_{c}" for c in range(num_classes)]
    cols += [f"adv_ratio_{c}" for c in range(num_classes)]
    cols += ["eps_noisy_mean", "eps_clean_mean",
             "gen_term", "rob_term", "fair_term"]
    return cols


@dataclass
class MetricsLog:
    """Append-only per-epoch record of a training run."""

    num_classes: int
    rows: list[dict] = field(default_factory=list)
    events: list[str] = field(default_factory=list)

    @property
    def columns(self) -> list[str]:
        return log_columns(self.num_classes)

    def append(self, row: dict) -> None:
        cols = self.columns
        missing = set(cols) - set(row)
        extra = set(row) - set(cols)
        if missing or extra:
            raise ValueError(
                f"row keys mismatch: missing {sorted(missing)}, "
                f"unknown {sorted(extra)}")
        self.rows.append({k: row[k] for k in cols})

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.columns)
            for row in self.rows:
                writer.writerow([_format_cell(row[c]) for c in self.columns])

    @classmethod
    def read_csv(cls, path: str) -> "MetricsLog":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            raw_rows = [dict(zip(header, row, strict=True)) for row in reader]
        num_classes = sum(1 for c in header if c.startswith("recall_"))
        log = cls(num_classes)
        if header != log.columns:
            raise ValueError(f"unexpected metrics header: {header}")
        for raw in raw_rows:
            row = {}
            for key, text in raw.items():
                if key == "phase":
                    row[key] = text
                elif key in ("epoch", "iteration"):
                    row[key] = int(text)
                else:
                    row[key] = float(text)
            log.append(row)
        return log


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def run_summary(log: MetricsLog) -> dict:
    """The figures of summary.json that come from the log: those of its last
    epoch row, or 0 epochs and nan figures when it has none, and its events.
    """
    nan = math.nan
    last = log.rows[-1] if log.rows else {}
    recalls = [last.get(f"recall_{c}", nan) for c in range(log.num_classes)]
    return {
        "epochs": int(last.get("epoch", 0)),
        "accuracy": last.get("test_accuracy", nan),
        "worst_class_recall": float(np.nanmin(recalls)) if last else nan,
        "worst_group_accuracy": last.get("worst_group_accuracy", nan),
        "test_loss": last.get("test_loss", nan),
        "per_class_recall": recalls,
        "events": log.events,
    }


def compare_runs(baseline: dict[int, dict], candidate: dict[int, dict]) -> dict:
    """Paired, per-seed comparison of two runs' final summaries.

    Both arguments map seed -> summary dict (as from `run_summary`).  The
    seed sets must match exactly and every summary must name the same
    scenario; deltas are candidate minus baseline.
    """
    scenarios = {s.get("scenario")
                 for s in (*baseline.values(), *candidate.values())}
    if len(scenarios) > 1:
        raise ValueError("summaries name different scenarios: "
                         f"{sorted(scenarios, key=str)}")
    if set(baseline) != set(candidate):
        raise ValueError(
            f"seed sets differ: baseline {sorted(baseline)} vs "
            f"candidate {sorted(candidate)}")
    if not baseline:
        raise ValueError("no seeds to compare")
    per_seed = []
    for seed in sorted(baseline):
        b, c = baseline[seed], candidate[seed]
        entry = {
            "seed": seed,
            "accuracy_delta": c["accuracy"] - b["accuracy"],
            "worst_class_recall_delta":
                c["worst_class_recall"] - b["worst_class_recall"],
        }
        bg, cg = b["worst_group_accuracy"], c["worst_group_accuracy"]
        if not (math.isnan(bg) or math.isnan(cg)):
            entry["worst_group_delta"] = cg - bg
        per_seed.append(entry)

    def agg(key: str) -> dict:
        vals = [e[key] for e in per_seed if key in e]
        if not vals:
            return {"mean": math.nan, "std": math.nan}
        std = statistics.pstdev(vals) if len(vals) > 1 else 0.0
        return {"mean": statistics.fmean(vals), "std": std}

    return {
        "per_seed": per_seed,
        "accuracy_delta": agg("accuracy_delta"),
        "worst_class_recall_delta": agg("worst_class_recall_delta"),
        "worst_group_delta": agg("worst_group_delta"),
    }
