"""The labeled-set type, label corruption, metadata split, CSV io.

Every labeled set, the training, meta and test sets alike, is a `Dataset`;
`scenarios` draws the built-in ones.  Label corruption and the metadata
split are pure functions of (dataset, seed).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np


class DataError(ValueError):
    """Invalid dataset construction or malformed external data."""


@dataclass
class Dataset:
    features: np.ndarray  # N x D
    labels: np.ndarray  # N, ints in [0, C)
    class_counts: np.ndarray  # C
    group_ids: np.ndarray | None = None
    noise_mask: np.ndarray | None = None

    def __post_init__(self):
        n = self.features.shape[0]
        c = len(self.class_counts)
        if self.labels.min(initial=0) < 0 or self.labels.max(initial=0) >= c:
            raise DataError("labels out of range")
        if int(self.class_counts.sum()) != n:
            raise DataError("class counts do not sum to N")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        return len(self.class_counts)


def _counts(labels: np.ndarray, num_classes: int) -> np.ndarray:
    return np.bincount(labels, minlength=num_classes)


def inject_label_noise(dataset: Dataset, kind: str, rate: float,
                       seed: int) -> Dataset:
    """Corrupt labels i.i.d. Bernoulli(rate); features untouched.

    uniform: resample over the other C-1 classes. flip: successor class.
    """
    if not 0.0 <= rate < 1.0:
        raise DataError(f"noise rate must be in [0, 1), got {rate}")
    if kind not in ("uniform", "flip"):
        raise DataError(f"unknown noise kind {kind!r}")
    rng = np.random.default_rng(seed)
    selected = rng.random(dataset.n) < rate
    labels = dataset.labels.copy()
    c = dataset.num_classes
    if kind == "flip":
        labels[selected] = (labels[selected] + 1) % c
    else:
        shift = rng.integers(1, c, size=int(selected.sum()))
        labels[selected] = (labels[selected] + shift) % c
    return Dataset(dataset.features.copy(), labels, _counts(labels, c),
                   group_ids=None if dataset.group_ids is None
                   else dataset.group_ids.copy(),
                   noise_mask=selected)


def split_meta(dataset: Dataset, per_class: int,
               seed: int) -> tuple[Dataset, Dataset]:
    """Hold out a balanced, clean metadata set; return remainder + metadata.

    When a noise mask is present only never-corrupted samples are eligible,
    so metadata labels always equal the pre-noise ground truth.
    """
    if per_class < 1:
        raise DataError("per_class must be >= 1")
    clean = (~dataset.noise_mask if dataset.noise_mask is not None
             else np.ones(dataset.n, dtype=bool))
    rng = np.random.default_rng(seed)
    chosen = []
    for c in range(dataset.num_classes):
        pool = np.flatnonzero(clean & (dataset.labels == c))
        if pool.size <= per_class:
            raise DataError(
                f"class {c}: {pool.size} clean samples, need > {per_class}")
        chosen.append(rng.choice(pool, size=per_class, replace=False))
    chosen = np.concatenate(chosen)
    meta = Dataset(dataset.features[chosen], dataset.labels[chosen],
                   np.full(dataset.num_classes, per_class))
    keep = np.ones(dataset.n, dtype=bool)
    keep[chosen] = False
    remainder = Dataset(
        dataset.features[keep], dataset.labels[keep],
        _counts(dataset.labels[keep], dataset.num_classes),
        group_ids=None if dataset.group_ids is None
        else dataset.group_ids[keep],
        noise_mask=None if dataset.noise_mask is None
        else dataset.noise_mask[keep])
    return remainder, meta


def save_csv(dataset: Dataset, path) -> None:
    """Header f0..f{D-1},label[,group]; '.' decimal separator."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = [f"f{j}" for j in range(dataset.dim)] + ["label"]
        if dataset.group_ids is not None:
            header.append("group")
        writer.writerow(header)
        for i in range(dataset.n):
            row = [repr(float(v)) for v in dataset.features[i]]
            row.append(str(int(dataset.labels[i])))
            if dataset.group_ids is not None:
                row.append(str(int(dataset.group_ids[i])))
            writer.writerow(row)


def load_csv(path) -> Dataset:
    """Inverse of save_csv; malformed rows, non-finite cells included, are
    rejected with their number."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise DataError(f"{path} is empty")
    header = rows[0]
    has_group = header[-1] == "group"
    n_feat = len(header) - 1 - int(has_group)
    expected = [f"f{j}" for j in range(n_feat)] + ["label"]
    if has_group:
        expected.append("group")
    if header != expected:
        raise DataError(f"bad header {header}, expected {expected}")
    feats, labels, groups = [], [], []
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise DataError(f"row {r}: expected {len(header)} cells, got {len(row)}")
        try:
            feats.append([float(v) for v in row[:n_feat]])
            labels.append(int(row[n_feat]))
            if has_group:
                groups.append(int(row[n_feat + 1]))
        except ValueError as e:
            raise DataError(f"row {r}: non-numeric cell") from e
        if labels[-1] < 0:
            raise DataError(f"row {r}: negative label")
    if not labels:
        raise DataError(f"{path} has no rows")
    feats = np.asarray(feats)
    bad = np.flatnonzero(~np.isfinite(feats).all(axis=1))
    if bad.size:
        raise DataError(f"row {bad[0] + 2}: non-finite cell")
    labels = np.asarray(labels, dtype=np.intp)
    return Dataset(feats, labels,
                   _counts(labels, int(labels.max()) + 1),
                   group_ids=np.asarray(groups, dtype=np.intp)
                   if has_group else None)
