"""The built-in biased-training scenarios, each drawing its own datasets.

Each scenario is one frozen dataclass in `SCENARIOS`, whose fields are its
[data] keys with their defaults.  `build(seed)` yields three `Dataset`s: the
biased training set, the small clean meta set that steers the perturbations,
and the test set.  A synthetic scenario's `build` checks the fields as it
draws and is a pure function of (seed, fields): the same arguments always
give bit-identical arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import DataError, Dataset, inject_label_noise, load_csv, split_meta


@dataclass
class ScenarioData:
    train: Dataset
    meta: Dataset
    test: Dataset


def _data_keys(seed: int, count: int) -> list[int]:
    # Dataset seeds live on their own stream, independent of trainer seeds.
    return [int(k) for k in
            np.random.SeedSequence((seed, 101)).generate_state(count)]


def build_scenario(cfg) -> ScenarioData:
    """The datasets of the `config.RunConfig` cfg, drawn from its seed."""
    return cfg.data.build(cfg.seed)


@dataclass(frozen=True)
class _Blobs:
    """The keys that longtail and noise share: Gaussian class blobs on a
    circle in the first two dims, plus isotropic nuisance dims; `blob_std`
    is one float for every class or one per class."""

    num_classes: int = 5
    dim: int = 5
    radius: float = 2.2
    blob_std: float | tuple[float, ...] = 1.0
    nuisance_std: float = 1.0
    meta_per_class: int = 10
    test_per_class: int = 250

    def draw(self, seed: int, n_max: int, ratio: float = 1.0) -> Dataset:
        """A set drawn from `seed`, shuffled, in which class c has
        round(n_max * ratio^(-c/(C-1))) rows."""
        scalar = np.isscalar(self.blob_std)
        stds = (self.blob_std,) if scalar else tuple(self.blob_std)
        values = (self.radius, self.nuisance_std, *stds)
        if not all(map(math.isfinite, values)):
            raise DataError("blob radius, std and nuisance_std must be finite")
        if any(std <= 0 for std in stds):
            raise DataError("blob std must be positive")
        num_classes, dim = self.num_classes, self.dim
        if num_classes < 2:
            raise DataError("need at least 2 classes")
        if not 1 <= ratio < np.inf:
            raise DataError("imbalance_ratio must be finite and >= 1")
        if dim < 2:
            raise DataError("need dim >= 2 for the circular core geometry")
        sizes = [int(round(n_max * ratio ** (-c / (num_classes - 1))))
                 for c in range(num_classes)]
        if sizes[-1] < 2:
            raise DataError(
                f"smallest class would have {sizes[-1]} samples; need >= 2")
        if not scalar and len(stds) != num_classes:
            raise DataError(f"per-class std has {len(stds)} entries for "
                            f"{num_classes} classes")
        rng = np.random.default_rng(seed)
        feats = []
        for c, n_c in enumerate(sizes):
            angle = 2.0 * np.pi * c / num_classes
            center = self.radius * np.array([np.cos(angle), np.sin(angle)])
            std_c = float(stds[0 if scalar else c])
            core = center + rng.normal(scale=std_c, size=(n_c, 2))
            nuisance = rng.normal(scale=self.nuisance_std, size=(n_c, dim - 2))
            feats.append(np.hstack([core, nuisance]))
        labels = np.repeat(np.arange(num_classes, dtype=np.intp), sizes)
        order = rng.permutation(labels.size)
        return Dataset(np.vstack(feats)[order], labels[order], num_classes)


@dataclass(frozen=True)
class Longtail(_Blobs):
    n_max: int = 2000
    imbalance_ratio: float = 100.0

    def build(self, seed: int) -> ScenarioData:
        keys = _data_keys(seed, 3)
        train = self.draw(keys[0], self.n_max, self.imbalance_ratio)
        return ScenarioData(train, self.draw(keys[1], self.meta_per_class),
                            self.draw(keys[2], self.test_per_class))


@dataclass(frozen=True)
class Noise(_Blobs):
    per_class: int = 400
    noise_kind: str = "flip"
    noise_rate: float = 0.4

    def build(self, seed: int) -> ScenarioData:
        keys = _data_keys(seed, 4)
        noisy = inject_label_noise(self.draw(keys[0], self.per_class),
                                   self.noise_kind, self.noise_rate,
                                   seed=keys[1])
        train, meta = split_meta(noisy, self.meta_per_class, seed=keys[2])
        test = self.draw(keys[3], self.test_per_class)
        return ScenarioData(train, meta, test)


def _group_shares(majority: float) -> np.ndarray:
    shares = np.array([majority, 0.5 - majority, 0.5 - majority, majority])
    if not np.isfinite(shares).all() or not np.isclose(shares.sum(), 1.0):
        raise DataError("group balance must be a distribution over 4 groups")
    return shares


@dataclass(frozen=True)
class Subpop:
    """Two classes with block features [core | spurious]: the core dims
    separate the classes by core_sep, the spurious ones the two attribute
    values by spurious_sep (Mahalanobis, unit noise).  Group 2*label +
    attribute has share p, 1/2 - p, 1/2 - p, p for majority p."""

    core_sep: float = 2.0
    spurious_sep: float = 4.0
    train_majority: float = 0.45
    test_majority: float = 0.25
    n_train: int = 2000
    n_test: int = 2000
    core_dim: int = 2
    spurious_dim: int = 2
    meta_size: int = 40

    def draw(self, rng: np.random.Generator, n: int,
             shares: np.ndarray) -> Dataset:
        """n rows from `rng` in groups of these shares, the largest group
        taking the rounding rest, shuffled."""
        for key in ("core_dim", "spurious_dim"):
            if getattr(self, key) < 1:
                raise DataError(
                    f"{key} must be >= 1, got {getattr(self, key)}")
        sizes = np.floor(shares * n).astype(int)
        sizes[np.argmax(shares)] += n - sizes.sum()
        if np.any(sizes < 1):
            raise DataError(
                f"degenerate balance: group sizes {sizes.tolist()}")
        core_dim, spurious_dim = self.core_dim, self.spurious_dim
        u_core = np.ones(core_dim) / np.sqrt(core_dim)
        u_sp = np.ones(spurious_dim) / np.sqrt(spurious_dim)
        feats = []
        for g, n_g in enumerate(sizes):
            y, a = divmod(g, 2)
            mean = np.concatenate(
                [(2 * y - 1) * 0.5 * self.core_sep * u_core,
                 (2 * a - 1) * 0.5 * self.spurious_sep * u_sp])
            feats.append(mean + rng.normal(size=(n_g, mean.size)))
        groups = np.repeat(np.arange(4, dtype=np.intp), sizes)
        labels = groups // 2
        order = rng.permutation(groups.size)
        return Dataset(np.vstack(feats)[order], labels[order], 2,
                       group_ids=groups[order])

    def build(self, seed: int) -> ScenarioData:
        keys = _data_keys(seed, 2)
        if not np.isfinite([self.core_sep, self.spurious_sep]).all():
            raise DataError("core_sep and spurious_sep must be finite")
        train_shares, test_shares, uniform = map(
            _group_shares, (self.train_majority, self.test_majority, 0.25))
        rng = np.random.default_rng(keys[0])
        train = self.draw(rng, self.n_train, train_shares)
        test = self.draw(rng, self.n_test, test_shares)
        meta = self.draw(np.random.default_rng(keys[1]), self.meta_size,
                         uniform)
        return ScenarioData(train, meta, test)


@dataclass(frozen=True)
class CustomCsv:
    train_csv: str
    meta_csv: str
    test_csv: str

    def build(self, seed: int) -> ScenarioData:
        """The three CSVs, checked to fit together before any training."""
        train = load_csv(self.train_csv)
        meta = load_csv(self.meta_csv)
        test = load_csv(self.test_csv)
        empty = np.flatnonzero(train.class_counts == 0)
        if empty.size:
            raise DataError(f"train csv has no rows of class {int(empty[0])}")
        for name, part in (("meta", meta), ("test", test)):
            if part.dim != train.dim:
                raise DataError(f"{name} csv has {part.dim} features, "
                                f"train csv has {train.dim}")
            if part.num_classes > train.num_classes:
                raise DataError(f"{name} csv has label {part.num_classes - 1}, "
                                f"train csv classes are 0..{train.num_classes - 1}")
        return ScenarioData(train, meta, test)


SCENARIOS = {"longtail": Longtail, "noise": Noise, "subpop": Subpop,
             "custom-csv": CustomCsv}
