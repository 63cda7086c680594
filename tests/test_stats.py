"""Covariance pooling and priors tests."""

import copy

import numpy as np
import pytest

from advaug.stats import ClassStats, class_priors, update_covariance


def population_cov(x):
    mu = x.mean(axis=0)
    d = x - mu
    return d.T @ d / x.shape[0]


def per_class_update(stats, features, labels):
    """The moment merge one class at a time: the reference for the
    vectorized update_covariance."""
    for c in np.unique(labels):
        batch = features[labels == c]
        m = float(batch.shape[0])
        mu_b = batch.mean(axis=0)
        centered = batch - mu_b
        if stats.diagonal:
            scat_b = np.sum(centered * centered, axis=0)
        else:
            scat_b = centered.T @ centered
        n = stats.counts[c]
        if n == 0:
            stats.means[c] = mu_b
            stats.scatter[c] = scat_b
        else:
            delta = mu_b - stats.means[c]
            total = n + m
            stats.means[c] += delta * (m / total)
            cross = (delta * delta if stats.diagonal
                     else np.outer(delta, delta))
            stats.scatter[c] += scat_b + cross * (n * m / total)
        stats.counts[c] = n + m


class TestUpdateCovariance:
    def test_single_batch_single_class_matches_sample_covariance(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(40, 6))
        stats = update_covariance(ClassStats(2, 6), x, np.zeros(40, dtype=int))
        assert np.allclose(stats.covariances()[0], population_cov(x),
                           atol=1e-12)
        assert np.array_equal(stats.covariances()[1], np.zeros((6, 6)))

    def test_sequential_batches_equal_concatenated_batch(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(90, 5)) * 2.0 + 1.0
        y = rng.integers(0, 3, size=90)
        seq = ClassStats(3, 5)
        for lo, hi in [(0, 17), (17, 50), (50, 90)]:
            update_covariance(seq, x[lo:hi], y[lo:hi])
        full = update_covariance(ClassStats(3, 5), x, y)
        for c in range(3):
            assert np.max(np.abs(seq.covariances()[c]
                                 - full.covariances()[c])) < 1e-10
            assert np.allclose(seq.means[c], full.means[c], atol=1e-12)

    def test_pooling_invariant_under_random_partitioning(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(200, 4))
        y = rng.integers(0, 2, size=200)
        cuts = np.sort(rng.choice(np.arange(1, 200), size=7, replace=False))
        stats = ClassStats(2, 4)
        for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, 200]):
            update_covariance(stats, x[lo:hi], y[lo:hi])
        for c in range(2):
            assert np.max(np.abs(stats.covariances()[c]
                                 - population_cov(x[y == c]))) < 1e-10

    def test_constant_features_give_zero_covariance(self):
        x = np.full((25, 3), 7.0)
        stats = update_covariance(ClassStats(1, 3), x, np.zeros(25, dtype=int))
        assert np.allclose(stats.covariances()[0], 0.0, atol=1e-12)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            update_covariance(ClassStats(2, 4), np.ones((3, 5)),
                              np.zeros(3, dtype=int))

    def test_diagonal_mode_matches_dense_diagonal(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(60, 8))
        y = rng.integers(0, 2, size=60)
        dense = ClassStats(2, 8)
        diag = ClassStats(2, 8, diagonal=True)
        for lo, hi in [(0, 20), (20, 60)]:
            update_covariance(dense, x[lo:hi], y[lo:hi])
            update_covariance(diag, x[lo:hi], y[lo:hi])
        for c in range(2):
            expect = np.diag(dense.covariances()[c])
            assert np.max(np.abs(diag.covariances()[c] - expect)) < 1e-10


@pytest.mark.parametrize("diagonal", [False, True], ids=["full", "diagonal"])
def test_update_matches_per_class_reference_bit_for_bit(diagonal):
    # Batch 1 leaves classes 2 and 3 absent. Batch 2 has a singleton class
    # (1), a class seen for the first time (2) beside seen classes, and
    # class 3 still absent.
    rng = np.random.default_rng(11)
    ours, ref = (ClassStats(4, 5, diagonal=diagonal) for _ in range(2))
    for labels in ([0, 1, 0, 1, 1, 0, 0], [2, 0, 0, 2, 1, 0, 2, 2, 0]):
        labels = np.array(labels)
        x = rng.normal(size=(labels.size, 5)) * rng.uniform(0.1, 50.0, 5)
        update_covariance(ours, x, labels)
        per_class_update(ref, x, labels)
        for name in ("counts", "means", "scatter"):
            assert (getattr(ours, name).tobytes()
                    == getattr(ref, name).tobytes()), name
    assert ours.counts.tolist() == [8, 4, 4, 0]


@pytest.mark.parametrize("diagonal", [False, True], ids=["full", "diagonal"])
def test_unseen_class_scatter_stays_positive_zero(diagonal):
    # covariances() divides every scatter by max(count, 1): that is the
    # masked divide, which writes +0.0 for unseen classes, only while the
    # scatter of a class no batch contained is all +0.0.
    rng = np.random.default_rng(12)
    stats = ClassStats(4, 3, diagonal=diagonal)
    for _ in range(5):
        labels = rng.choice([0, 1, 3], size=9)
        x = rng.normal(size=(9, 3)) * rng.uniform(0.1, 50.0, 3)
        update_covariance(stats, x, labels)
        seen = np.flatnonzero(stats.counts)
        a = rng.normal(size=(seen.size, 3, 3))
        psd = a @ a.transpose(0, 2, 1) / 3
        stats.scatter[seen] = (np.diagonal(psd, axis1=1, axis2=2)
                               if diagonal else psd)
    assert stats.counts[2] == 0
    assert not stats.scatter[2].any()
    assert not np.signbit(stats.scatter[2]).any()
    n = stats.counts.reshape((4,) + (1,) * (stats.scatter.ndim - 1))
    masked = np.divide(stats.scatter, n, out=np.zeros(stats.scatter.shape),
                       where=n > 0)
    assert stats.covariances().tobytes() == masked.tobytes()


@pytest.mark.parametrize("diagonal", [False, True], ids=["full", "diagonal"])
class TestMergeEdgeCases:
    """update_covariance merges every class, present in the batch or not,
    with the same arithmetic; each case below is exact, not approximate."""

    @staticmethod
    def seeded(diagonal):
        # classes 0 and 1 seen, 2 and 3 never; magnitudes over four decades
        rng = np.random.default_rng(13)
        stats = ClassStats(4, 8, diagonal=diagonal)
        for labels in ([0, 1, 0, 0, 1, 0], [1, 0, 1, 1, 0]):
            x = rng.normal(size=(len(labels), 8)) * rng.uniform(0.1, 1e3, 8)
            update_covariance(stats, x, np.array(labels))
        return stats, rng

    def test_a_seen_class_absent_from_a_batch_keeps_its_moments(
            self, diagonal):
        stats, rng = self.seeded(diagonal)
        before = copy.deepcopy(stats)
        update_covariance(stats, rng.normal(size=(4, 8)),
                          np.array([0, 0, 0, 0]))
        assert stats.counts[1] == before.counts[1] == 5
        for name in ("means", "scatter"):
            assert (getattr(stats, name)[1].tobytes()
                    == getattr(before, name)[1].tobytes()), name

    def test_a_never_seen_class_stays_at_positive_zero(self, diagonal):
        stats, _ = self.seeded(diagonal)
        for c in (2, 3):
            assert stats.counts[c] == 0
            for moment in (stats.means[c], stats.scatter[c]):
                assert (moment == 0.0).all() and not np.signbit(moment).any()

    def test_a_first_batch_sets_the_batch_moments_exactly(self, diagonal):
        stats, rng = self.seeded(diagonal)
        labels = np.array([2, 0, 3, 2, 2, 1, 2, 3, 2, 2, 3, 2])
        x = rng.normal(size=(12, 8)) * rng.uniform(0.1, 1e3, 8)
        update_covariance(stats, x, labels)
        for c, rows in ((2, 7), (3, 3)):
            batch = x[labels == c]
            centered = batch - batch.mean(axis=0)
            scatter = (np.sum(centered * centered, axis=0) if diagonal
                       else centered.T @ centered)
            assert stats.counts[c] == rows
            assert stats.means[c].tobytes() == batch.mean(axis=0).tobytes()
            assert stats.scatter[c].tobytes() == scatter.tobytes()

    @pytest.mark.parametrize("bad", [-1, 4, 7])
    def test_a_label_out_of_range_is_refused_before_any_change(
            self, diagonal, bad):
        stats, _ = self.seeded(diagonal)
        before = copy.deepcopy(stats)
        # sum_by_label names a label >= C; np.bincount refuses a negative
        with pytest.raises(ValueError, match="label is >= 4|negative"):
            update_covariance(stats, np.ones((3, 8)), np.array([0, bad, 1]))
        for name in ("counts", "means", "scatter"):
            assert (getattr(stats, name).tobytes()
                    == getattr(before, name).tobytes()), name


class TestClassPriors:
    def test_balanced_two_class(self):
        assert np.allclose(class_priors([50, 50]), [0.5, 0.5])

    def test_geometric_ten_class_imbalance_ratio(self):
        counts = [round(500 * 10 ** (-c / 9)) for c in range(10)]
        priors = class_priors(counts)
        assert counts[0] == 500 and counts[-1] == 50
        assert priors.max() / priors.min() == pytest.approx(10.0)
        assert priors.sum() == pytest.approx(1.0)

    def test_heavily_skewed_pair(self):
        priors = class_priors([4, 400])
        assert priors[0] == pytest.approx(4 / 404)
        assert priors[1] == pytest.approx(400 / 404)

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            class_priors([10, 0, 5])
