"""Dataset assembly for the built-in biased-training scenarios.

Each scenario is one frozen dataclass in `SCENARIOS`, whose fields are its
[data] keys with their defaults.  `build(seed)` yields three `Dataset`s: the
biased training set, the small clean meta set that steers the perturbations,
and the test set; the data layer checks the values as it builds them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import (BlobGeometry, DataError, Dataset, inject_label_noise,
                   load_csv, make_balanced, make_longtail, make_subpop_shift,
                   split_meta)


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


# The keys of the Gaussian class blobs that longtail and noise share.
@dataclass(frozen=True)
class _Blobs:
    num_classes: int = 5
    dim: int = 5
    radius: float = 2.2
    blob_std: float | tuple[float, ...] = 1.0
    nuisance_std: float = 1.0
    meta_per_class: int = 10
    test_per_class: int = 250


@dataclass(frozen=True)
class Longtail(_Blobs):
    n_max: int = 2000
    imbalance_ratio: float = 100.0

    def build(self, seed: int) -> ScenarioData:
        keys = _data_keys(seed, 3)
        geom = BlobGeometry(self.radius, self.blob_std, self.nuisance_std)
        train = make_longtail(keys[0], self.num_classes, self.n_max,
                              self.imbalance_ratio, self.dim, geom)
        meta = make_balanced(keys[1], self.num_classes, self.meta_per_class,
                             self.dim, geom)
        test = make_balanced(keys[2], self.num_classes, self.test_per_class,
                             self.dim, geom)
        return ScenarioData(train, meta, test)


@dataclass(frozen=True)
class Noise(_Blobs):
    per_class: int = 400
    noise_kind: str = "flip"
    noise_rate: float = 0.4

    def build(self, seed: int) -> ScenarioData:
        keys = _data_keys(seed, 4)
        geom = BlobGeometry(self.radius, self.blob_std, self.nuisance_std)
        base = make_balanced(keys[0], self.num_classes, self.per_class,
                             self.dim, geom)
        noisy = inject_label_noise(base, self.noise_kind, self.noise_rate,
                                   seed=keys[1])
        train, meta = split_meta(noisy, self.meta_per_class, seed=keys[2])
        test = make_balanced(keys[3], self.num_classes, self.test_per_class,
                             self.dim, geom)
        return ScenarioData(train, meta, test)


@dataclass(frozen=True)
class Subpop:
    core_sep: float = 2.0
    spurious_sep: float = 4.0
    train_majority: float = 0.45
    test_majority: float = 0.25
    n_train: int = 2000
    n_test: int = 2000
    core_dim: int = 2
    spurious_dim: int = 2
    meta_size: int = 40

    def build(self, seed: int) -> ScenarioData:
        keys = _data_keys(seed, 2)
        p, q = self.train_majority, self.test_majority
        balance_train = (p, 0.5 - p, 0.5 - p, p)
        balance_test = (q, 0.5 - q, 0.5 - q, q)
        uniform = (0.25, 0.25, 0.25, 0.25)
        train, test = make_subpop_shift(
            keys[0], self.core_sep, self.spurious_sep, balance_train,
            balance_test, n_train=self.n_train, n_test=self.n_test,
            core_dim=self.core_dim, spurious_dim=self.spurious_dim)
        meta, _ = make_subpop_shift(
            keys[1], self.core_sep, self.spurious_sep, uniform, uniform,
            n_train=self.meta_size, n_test=8,
            core_dim=self.core_dim, spurious_dim=self.spurious_dim)
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
