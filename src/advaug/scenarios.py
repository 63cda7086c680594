"""Dataset assembly for the built-in biased-training scenarios.

Each scenario yields three `Dataset`s: the biased training set, the small
clean meta set that steers the perturbations, and the test set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig
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


def build_scenario(cfg: RunConfig) -> ScenarioData:
    builder = {
        "longtail": _build_longtail,
        "noise": _build_noise,
        "subpop": _build_subpop,
        "custom-csv": _build_custom,
    }[cfg.scenario]
    return builder(cfg)


def _geometry(data: dict) -> BlobGeometry:
    return BlobGeometry(radius=data["radius"], std=data["blob_std"],
                        nuisance_std=data["nuisance_std"])


def _build_longtail(cfg: RunConfig) -> ScenarioData:
    d = cfg.data
    keys = _data_keys(cfg.seed, 3)
    geom = _geometry(d)
    train = make_longtail(keys[0], d["num_classes"], d["n_max"],
                          d["imbalance_ratio"], d["dim"], geom)
    meta = make_balanced(keys[1], d["num_classes"], d["meta_per_class"],
                         d["dim"], geom)
    test = make_balanced(keys[2], d["num_classes"], d["test_per_class"],
                         d["dim"], geom)
    return ScenarioData(train, meta, test)


def _build_noise(cfg: RunConfig) -> ScenarioData:
    d = cfg.data
    keys = _data_keys(cfg.seed, 4)
    geom = _geometry(d)
    base = make_balanced(keys[0], d["num_classes"], d["per_class"],
                         d["dim"], geom)
    noisy = inject_label_noise(base, d["noise_kind"], d["noise_rate"],
                               seed=keys[1])
    train, meta = split_meta(noisy, d["meta_per_class"], seed=keys[2])
    test = make_balanced(keys[3], d["num_classes"], d["test_per_class"],
                         d["dim"], geom)
    return ScenarioData(train, meta, test)


def _build_subpop(cfg: RunConfig) -> ScenarioData:
    d = cfg.data
    keys = _data_keys(cfg.seed, 2)
    p, q = d["train_majority"], d["test_majority"]
    balance_train = (p, 0.5 - p, 0.5 - p, p)
    balance_test = (q, 0.5 - q, 0.5 - q, q)
    uniform = (0.25, 0.25, 0.25, 0.25)
    train, test = make_subpop_shift(
        keys[0], d["core_sep"], d["spurious_sep"], balance_train,
        balance_test, n_train=d["n_train"], n_test=d["n_test"],
        core_dim=d["core_dim"], spurious_dim=d["spurious_dim"])
    meta, _ = make_subpop_shift(
        keys[1], d["core_sep"], d["spurious_sep"], uniform, uniform,
        n_train=d["meta_size"], n_test=8,
        core_dim=d["core_dim"], spurious_dim=d["spurious_dim"])
    return ScenarioData(train, meta, test)


def _build_custom(cfg: RunConfig) -> ScenarioData:
    """The three CSVs, checked to fit together before any training."""
    d = cfg.data
    train = load_csv(d["train_csv"])
    meta = load_csv(d["meta_csv"])
    test = load_csv(d["test_csv"])
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
