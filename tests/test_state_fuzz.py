"""Seeded fuzz of the running-state invariants of `training.train`.

Each random configuration has 2-5 classes of 1-40 rows, t2 <= 30, random
widths, frozen or learned perturbations, full or diagonal covariances and
a meta set smaller than one meta batch.  It trains three arms, full, plain
CE (t1 = t2) and alpha = 0, and the train batches are recorded as
`sample_train_batch` draws them.  The last configurations have a class of
one row, and their train and meta sets are read back through
`data.load_csv`, as a custom-csv run reads them.  Configurations with a
large `eta1` check the rows an aborted run logged.
"""

from dataclasses import replace

import numpy as np
import pytest

import advaug.training
from advaug.data import Dataset, load_csv, save_csv
from advaug.training import NumericalAbort, TrainerConfig, train

CONFIGS = 60
CSV_CONFIGS = 10
ABORT_CONFIGS = 40
SKIP = "non-finite perturbation-net hypergradient, update skipped"


def random_case(rng, one_row_class=False):
    num_classes = int(rng.integers(2, 6))
    sizes = rng.integers(1, 41, size=num_classes)
    if one_row_class:
        sizes[rng.integers(num_classes)] = 1
    labels = rng.permutation(np.repeat(np.arange(num_classes), sizes))
    dim = int(rng.integers(2, 7))
    data = Dataset(rng.normal(size=(labels.size, dim)) + labels[:, None],
                   labels, num_classes)
    batch_meta = int(rng.integers(2, 17))
    meta_labels = rng.integers(0, num_classes,
                               size=int(rng.integers(1, batch_meta)))
    meta = Dataset(rng.normal(size=(meta_labels.size, dim)), meta_labels,
                   num_classes)
    t2 = int(rng.integers(1, 31))
    hidden = rng.integers(1, 9, size=int(rng.integers(0, 3)))
    config = TrainerConfig(
        t1=int(rng.integers(0, t2 + 1)), t2=t2,
        batch_train=int(rng.integers(1, 33)), batch_meta=batch_meta,
        hidden=tuple(int(w) for w in hidden),
        feat_dim=int(rng.integers(1, 7)),
        perturb_hidden=int(rng.integers(1, 9)),
        freeze_eps=bool(rng.integers(2)),
        diagonal_sigma=bool(rng.integers(2)),
        seed=int(rng.integers(2**31)))
    return config, data, meta


def recorded_run(config, data, meta):
    """The final state of one training run and its train batches."""
    batches = []
    draw = advaug.training.sample_train_batch

    def recording(state):
        batches.append(draw(state))
        return batches[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(advaug.training, "sample_train_batch", recording)
        state, _ = train(config, data, meta)
    return state, batches


def through_csv(dataset, path):
    save_csv(dataset, path)
    return load_csv(path)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    rng = np.random.default_rng(2024)
    out = []
    for k in range(CONFIGS + CSV_CONFIGS):
        config, data, meta = random_case(rng, one_row_class=k >= CONFIGS)
        if k >= CONFIGS:
            directory = tmp_path_factory.mktemp(f"config{k}")
            data = through_csv(data, directory / "train.csv")
            meta = through_csv(meta, directory / "meta.csv")
            assert 1 in data.class_counts
        arms = {name: recorded_run(replace(config, **change), data, meta)
                for name, change in (("full", {}), ("ce", {"t1": config.t2}),
                                     ("alpha0", {"alpha": 0.0}))}
        out.append((config, data, arms))
    return out


def each_arm(runs):
    for k, (config, data, arms) in enumerate(runs):
        for name, (state, batches) in arms.items():
            yield f"config {k}, {name} arm", data, state, batches


def test_class_counts_equal_the_rows_observed(runs):
    for where, data, state, batches in each_arm(runs):
        observed = np.bincount(data.labels[np.concatenate(batches)],
                               minlength=data.num_classes)
        assert state.stats.counts.tolist() == observed.tolist(), where


def test_scatter_of_an_unobserved_class_is_positive_zero(runs):
    unobserved = 0
    for where, data, state, batches in each_arm(runs):
        observed = np.bincount(data.labels[np.concatenate(batches)],
                               minlength=data.num_classes)
        for c in np.flatnonzero(observed == 0):
            scatter = state.stats.scatter[c]
            assert (scatter == 0.0).all() and not np.signbit(scatter).any(), \
                f"{where}, class {c}"
            unobserved += 1
    assert unobserved > 0, "no configuration left a class out of every batch"


def test_adam_steps_and_skips_add_up_to_the_meta_iterations(runs):
    for where, _, state, _ in each_arm(runs):
        config = state.config
        skips = sum(SKIP in event for event in state.events)
        meta_iterations = 0 if config.freeze_eps else config.t2 - config.t1
        assert state.adam.t + skips == meta_iterations, where


def test_history_seen_is_the_union_of_the_batches(runs):
    # Only a run whose perturbation net is live feeds the history; one with
    # no meta iteration (t1 = t2, the ce arm among them) or with frozen
    # perturbations leaves it empty.
    no_meta = frozen = 0
    for where, data, state, batches in each_arm(runs):
        config = state.config
        expected = np.zeros(data.n, dtype=bool)
        if config.t1 < config.t2 and not config.freeze_eps:
            expected[np.concatenate(batches)] = True
        else:
            assert state.history.norm_count == 0, where
            no_meta += config.t1 == config.t2
            frozen += config.t1 < config.t2
        assert (state.history.seen == expected).all(), where
    assert no_meta > len(runs), "no t1 = t2 configuration besides ce arms"
    assert frozen, "no frozen configuration with a meta iteration"


def test_every_arm_draws_the_same_train_batches(runs):
    for k, (config, _, arms) in enumerate(runs):
        full = arms["full"][1]
        assert len(full) == config.t2, f"config {k}"
        for name in ("ce", "alpha0"):
            other = arms[name][1]
            assert len(other) == len(full), f"config {k}, {name} arm"
            assert all((a == b).all() for a, b in zip(full, other)), \
                f"config {k}, {name} arm"


def test_an_abort_logs_the_epoch_rows_that_ended_before_it():
    rng = np.random.default_rng(11)
    aborted_after_a_row = aborted_before_any = 0
    for k in range(ABORT_CONFIGS):
        config, data, meta = random_case(rng)
        config = replace(config, eta1=float(10.0 ** rng.integers(1, 6)))
        try:
            with np.errstate(all="ignore"):
                train(config, data, meta)
        except NumericalAbort as exc:
            every = max(1, round(data.n / config.batch_train))
            ended = list(range(every, exc.iteration, every))
            rows = exc.log.rows
            assert [row["iteration"] for row in rows] == ended, f"config {k}"
            assert [row["epoch"] for row in rows] == \
                list(range(1, len(ended) + 1)), f"config {k}"
            aborted_after_a_row += bool(rows)
            aborted_before_any += not rows
    assert aborted_after_a_row and aborted_before_any
