"""Synthetic biased datasets, label corruption, metadata split, CSV io.

Every labeled set, the training, meta and test sets alike, is a `Dataset`.
Generators are pure functions of (seed, config): the same arguments always
produce bit-identical arrays.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np


class DataError(ValueError):
    """Invalid dataset construction or malformed external data."""


@dataclass
class BlobGeometry:
    """Gaussian class blobs on a circle, plus isotropic nuisance dims.

    std may be a single float shared by every class or one float per
    class (heteroscedastic blobs).  Every number must be finite and every
    std positive; the per-class count is checked against the classes drawn.
    """

    radius: float = 2.0
    std: float | tuple[float, ...] = 1.0
    nuisance_std: float = 1.0

    def __post_init__(self) -> None:
        stds = np.atleast_1d(np.asarray(self.std, dtype=np.float64))
        if not np.isfinite([self.radius, self.nuisance_std, *stds]).all():
            raise DataError("blob radius, std and nuisance_std must be finite")
        if (stds <= 0).any():
            raise DataError("blob std must be positive")

    def class_std(self, c: int, num_classes: int) -> float:
        if np.isscalar(self.std):
            return float(self.std)
        if len(self.std) != num_classes:
            raise DataError(
                f"per-class std has {len(self.std)} entries for "
                f"{num_classes} classes")
        return float(self.std[c])


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


def make_longtail(seed: int, num_classes: int, n_max: int,
                  imbalance_ratio: float, dim: int,
                  geometry: BlobGeometry | None = None) -> Dataset:
    """Geometric class-size profile n_c = round(n_max * ratio^(-c/(C-1)))."""
    if num_classes < 2:
        raise DataError("need at least 2 classes")
    if not 1 <= imbalance_ratio < np.inf:
        raise DataError("imbalance_ratio must be finite and >= 1")
    if dim < 2:
        raise DataError("need dim >= 2 for the circular core geometry")
    geometry = geometry or BlobGeometry()
    sizes = [int(round(n_max * imbalance_ratio ** (-c / (num_classes - 1))))
             for c in range(num_classes)]
    if sizes[-1] < 2:
        raise DataError(
            f"smallest class would have {sizes[-1]} samples; need >= 2")
    rng = np.random.default_rng(seed)
    feats, labels = [], []
    for c, n_c in enumerate(sizes):
        angle = 2.0 * np.pi * c / num_classes
        center = geometry.radius * np.array([np.cos(angle), np.sin(angle)])
        std_c = geometry.class_std(c, num_classes)
        core = center + rng.normal(scale=std_c, size=(n_c, 2))
        nuisance = rng.normal(scale=geometry.nuisance_std, size=(n_c, dim - 2))
        feats.append(np.hstack([core, nuisance]))
        labels.append(np.full(n_c, c, dtype=np.intp))
    features = np.vstack(feats)
    labels = np.concatenate(labels)
    order = rng.permutation(labels.size)
    return Dataset(features[order], labels[order],
                   _counts(labels, num_classes))


def make_balanced(seed: int, num_classes: int, per_class: int, dim: int,
                  geometry: BlobGeometry | None = None) -> Dataset:
    """Balanced blobs with the same geometry (test/eval sets)."""
    return make_longtail(seed, num_classes, per_class, 1.0, dim, geometry)


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


def make_subpop_shift(seed: int, core_sep: float, spurious_sep: float,
                      group_balance_train, group_balance_test,
                      n_train: int = 2000, n_test: int = 2000,
                      core_dim: int = 2, spurious_dim: int = 2
                      ) -> tuple[Dataset, Dataset]:
    """Binary task with block features [core | spurious].

    Core dims separate the two classes by core_sep (Mahalanobis, unit
    noise); spurious dims separate the two attribute values by
    spurious_sep. Groups are indexed 2*label + attribute. Train group
    frequencies follow group_balance_train; the test set uses
    group_balance_test (typically uniform).
    """
    if not np.isfinite([core_sep, spurious_sep]).all():
        raise DataError("core_sep and spurious_sep must be finite")
    pt = np.asarray(group_balance_train, dtype=np.float64)
    pe = np.asarray(group_balance_test, dtype=np.float64)
    for p in (pt, pe):
        if (p.shape != (4,) or not np.isfinite(p).all()
                or not np.isclose(p.sum(), 1.0)):
            raise DataError("group balance must be a distribution over 4 groups")
    rng = np.random.default_rng(seed)

    def build(p, n, sub_rng):
        sizes = np.floor(p * n).astype(int)
        sizes[np.argmax(p)] += n - sizes.sum()
        if np.any(sizes < 1):
            raise DataError(f"degenerate balance: group sizes {sizes.tolist()}")
        u_core = np.ones(core_dim) / np.sqrt(core_dim)
        u_sp = np.ones(spurious_dim) / np.sqrt(spurious_dim)
        feats, labels, groups = [], [], []
        for g, n_g in enumerate(sizes):
            y, a = divmod(g, 2)
            mean = np.concatenate([(2 * y - 1) * 0.5 * core_sep * u_core,
                                   (2 * a - 1) * 0.5 * spurious_sep * u_sp])
            feats.append(mean + sub_rng.normal(
                size=(n_g, core_dim + spurious_dim)))
            labels.append(np.full(n_g, y, dtype=np.intp))
            groups.append(np.full(n_g, g, dtype=np.intp))
        features = np.vstack(feats)
        labels = np.concatenate(labels)
        groups = np.concatenate(groups)
        order = sub_rng.permutation(labels.size)
        return Dataset(features[order], labels[order], _counts(labels, 2),
                       group_ids=groups[order])

    return build(pt, n_train, rng), build(pe, n_test, rng)


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
