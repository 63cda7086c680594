"""Characteristic extraction and history EMA tests."""

import numpy as np
import pytest

from advaug.characteristics import (CHARACTERISTIC_NAMES, BatchView, History,
                                    NUM_CHARACTERISTICS, extract,
                                    fill_set_columns, update_history)
from advaug.data import Dataset
from advaug.kernels import label_index, softmax_lse
from advaug.stats import ClassStats, update_covariance


def view_of(h, logits, labels, grad, progress):
    """The batch view of these rows, with the softmax of the logits."""
    q, lse = softmax_lse(logits)
    return BatchView(ids=np.arange(len(labels)), h=h, logits=logits, q=q,
                     lse=lse, labels=labels,
                     label_index=label_index(labels, logits.shape[1]),
                     grad_h=grad, progress=progress)


def make_view(seed=0, n=6, c=3, width=4, progress=0.4):
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(n, width))
    logits = rng.normal(size=(n, c))
    labels = rng.integers(0, c, size=n)
    grad = rng.normal(size=(n, width))
    return view_of(h, logits, labels, grad, progress)


def make_stats(view, c=3):
    stats = ClassStats(c, view.h.shape[1],
                       priors=np.full(c, 1.0 / c))
    update_covariance(stats, view.h, view.labels)
    return stats


def per_class_extract(view, history, stats):
    """extract with per-class loops and dense covariances: the reference for
    the vectorized extract."""
    n = view.ids.size
    labels = np.asarray(view.labels, dtype=np.intp)
    z = view.logits
    rows = np.arange(n)
    q, lse = softmax_lse(z)
    loss = lse - z[rows, labels]
    masked = z.copy()
    masked[rows, labels] = -np.inf
    margin = z[rows, labels] - masked.max(axis=1)
    entropy = -np.sum(q * np.log(np.maximum(q, 1e-300)), axis=1)
    correct = (z.argmax(axis=1) == labels).astype(np.float64)
    seen = history.seen[view.ids]
    loss_ema = np.where(seen, history.ema[view.ids, 0], loss)
    margin_ema = np.where(seen, history.ema[view.ids, 1], margin)
    correct_ema = np.where(seen, history.ema[view.ids, 2], correct)
    zscore = (loss - loss.mean()) / (loss.std() + 1e-12)
    grad_norm = np.linalg.norm(view.grad_h, axis=1)
    prior = stats.priors[labels]
    mean_dist = np.empty(n)
    for c in np.unique(labels):
        sel = labels == c
        sigma = stats.covariances()[c]
        dense = np.diag(sigma) if stats.diagonal else sigma
        spread = np.sqrt(np.trace(dense) + 1e-12)
        mean_dist[sel] = np.linalg.norm(
            view.h[sel] - stats.means[c], axis=1) / spread
    raw = np.stack([
        loss, loss_ema, zscore, margin, margin_ema, entropy,
        q[rows, labels], correct, correct_ema, grad_norm, prior,
        np.log(prior), mean_dist, np.full(n, view.progress),
        per_class_rank(loss, labels),
    ], axis=1)
    return raw, history.normalize(raw)


def per_class_rank(loss, labels):
    """The within-class loss rank, one class at a time: the reference for
    both ways `fill_set_columns` ranks."""
    rank = np.empty(loss.size)
    for c in np.unique(labels):
        sel = np.flatnonzero(labels == c)
        if sel.size == 1:
            rank[sel] = 0.5
        else:
            order = np.argsort(np.argsort(loss[sel], kind="stable"),
                               kind="stable")
            rank[sel] = order / (sel.size - 1)
    return rank


@pytest.mark.parametrize("diagonal", [False, True], ids=["full", "diagonal"])
def test_extract_matches_per_class_reference_bit_for_bit(diagonal):
    # Class 0 holds two pairs of tied losses (identical logit rows), class 1
    # is a singleton, class 2 has one distinct loss among ties, class 3 is
    # absent from the batch and class 4 was never observed at all.
    rng = np.random.default_rng(8)
    labels = np.array([0, 2, 0, 0, 1, 2, 0, 2, 0])
    logits = rng.normal(size=(9, 5))
    logits[3] = logits[0]
    logits[8] = logits[2]
    logits[7] = logits[1]
    h = rng.normal(size=(9, 4))
    view = view_of(h, logits, labels, rng.normal(size=(9, 4)), 0.3)
    stats = ClassStats(5, 4, diagonal=diagonal, priors=np.full(5, 0.2))
    update_covariance(stats, rng.normal(size=(6, 4)),
                      np.array([0, 1, 2, 3, 3, 0]))
    update_covariance(stats, h, labels)
    history = History(9)
    update_history(history, np.array([0, 4, 5]),
                   rng.normal(size=(3, NUM_CHARACTERISTICS)))
    batch = extract(view, history, stats, stats.covariances())
    raw, normalized = per_class_extract(view, history, stats)
    assert batch.tobytes() == raw.tobytes()
    assert history.normalize(batch).tobytes() == normalized.tobytes()
    rank = batch[:, CHARACTERISTIC_NAMES.index("class_loss_rank")]
    assert rank[4] == 0.5
    assert rank[0] != rank[3] and rank[2] != rank[8]  # ties by position


@pytest.mark.parametrize("diagonal", [False, True], ids=["full", "diagonal"])
def test_extract_matches_reference_bit_for_bit_at_the_presets_shape(diagonal):
    # 16-wide rows, as in the presets, and 80 of them: numpy sums 8 or more
    # elements pairwise, so a row norm or a loss moment summed in another
    # order shows here, unlike in the 4-wide case above. The logits of rows
    # 0 and 1 are so far apart that their softmax underflows to exact zeros
    # (the 1e-300 floor of the entropy); samples 70-79 were never seen.
    rng = np.random.default_rng(16)
    n, width = 80, 16
    labels = rng.integers(0, 4, size=n)  # class 4 is absent from the batch
    logits = 3.0 * rng.normal(size=(n, 5))
    logits[0] = [900.0, -40.0, 0.0, 3.0, -900.0]
    logits[1] = [-800.0, 20.0, 0.0, -5.0, 1.0]
    h = 1.0 + 2.0 * rng.normal(size=(n, width))
    view = view_of(h, logits, labels, rng.normal(size=(n, width)), 0.55)
    assert np.count_nonzero(view.q[:2] == 0.0) >= 4
    stats = ClassStats(5, width, diagonal=diagonal,
                       priors=rng.dirichlet(np.ones(5)))
    update_covariance(stats, rng.normal(size=(40, width)),
                      rng.integers(0, 5, size=40))
    update_covariance(stats, h, labels)
    history = History(n + 5)
    for _ in range(3):
        ids = rng.permutation(70)[:50]
        update_history(history, ids,
                       rng.normal(size=(50, NUM_CHARACTERISTICS)))
    assert not history.seen[70:n].any()
    batch = extract(view, history, stats, stats.covariances())
    raw, normalized = per_class_extract(view, history, stats)
    assert batch.tobytes() == raw.tobytes()
    assert history.normalize(batch).tobytes() == normalized.tobytes()
    names = list(CHARACTERISTIC_NAMES)
    for column in ("loss", "margin", "correct"):
        assert np.array_equal(batch[70:, names.index(column + "_ema")],
                              batch[70:, names.index(column)])


def test_whole_set_rank_equals_the_batch_rank_bit_for_bit():
    # Class 0 has distinct losses (the default sort's order stands); class 1
    # draws 300 losses from six values, -0.0 and +0.0 among them, and class 2
    # holds NaNs among distinct losses (both take the stable sort); class 3
    # has one row and class 4 none.
    rng = np.random.default_rng(21)
    labels = rng.permutation(np.repeat([0, 1, 2, 3], [400, 300, 60, 1]))
    loss = rng.exponential(size=labels.size)
    ties = np.array([-0.0, 0.0, 0.5, 0.5, 1.25, 3.0])
    loss[labels == 1] = rng.choice(ties, size=300)
    loss[np.flatnonzero(labels == 2)[::7]] = np.nan
    assert np.signbit(loss[labels == 1][loss[labels == 1] == 0]).any()
    data = Dataset(np.zeros((labels.size, 1)), labels, 5)
    assert data.class_rows[4].size == 0
    tables = []
    for class_rows in (data.class_rows, None):
        raw = np.zeros((labels.size, NUM_CHARACTERISTICS))
        raw[:, 0] = loss
        fill_set_columns(raw, labels, class_rows)
        tables.append(raw)
    whole, batch = tables
    assert whole.tobytes() == batch.tobytes()
    rank = whole[:, CHARACTERISTIC_NAMES.index("class_loss_rank")]
    assert rank.tobytes() == per_class_rank(loss, labels).tobytes()
    assert rank[labels == 3].tolist() == [0.5]
    assert (rank[np.isnan(loss)] > rank[(labels == 2) & ~np.isnan(loss)].max()
            ).all()  # NaN last


class TestExtract:
    def test_exactly_fifteen_named_features(self):
        assert NUM_CHARACTERISTICS == 15
        assert len(set(CHARACTERISTIC_NAMES)) == 15
        view = make_view()
        stats = make_stats(view)
        batch = extract(view, History(10), stats, stats.covariances())
        assert batch.shape == (6, 15)
        assert np.all(np.isfinite(batch))

    def test_fresh_history_ema_equals_instantaneous(self):
        view = make_view(seed=1)
        stats = make_stats(view)
        batch = extract(view, History(10), stats, stats.covariances())
        names = list(CHARACTERISTIC_NAMES)
        assert np.array_equal(batch[:, names.index("loss_ema")],
                              batch[:, names.index("loss")])
        assert np.array_equal(batch[:, names.index("margin_ema")],
                              batch[:, names.index("margin")])
        assert np.array_equal(batch[:, names.index("correct_ema")],
                              batch[:, names.index("correct")])

    def test_perfectly_classified_limits(self):
        view = make_view(seed=2, n=2, c=3)
        view = view_of(view.h, np.array([[40.0, 0.0, 0.0], [0.0, 40.0, 0.0]]),
                       np.array([0, 1]), view.grad_h, view.progress)
        stats = make_stats(view)
        batch = extract(view, History(10), stats, stats.covariances())
        names = list(CHARACTERISTIC_NAMES)
        assert np.all(batch[:, names.index("loss")] < 1e-12)
        assert np.all(batch[:, names.index("margin")] == 40.0)
        assert np.all(batch[:, names.index("entropy")] < 1e-12)
        assert np.all(batch[:, names.index("true_class_prob")] > 1 - 1e-12)
        assert np.all(batch[:, names.index("correct")] == 1.0)

    def test_matches_per_feature_scalar_oracle(self):
        view = make_view(seed=3, n=5, c=4, width=3, progress=0.7)
        stats = make_stats(view, c=4)
        stats.priors = np.array([0.4, 0.3, 0.2, 0.1])
        history = History(10)
        batch = extract(view, history, stats, stats.covariances())
        names = list(CHARACTERISTIC_NAMES)
        z = view.logits
        losses = []
        for i in range(5):
            y = view.labels[i]
            lse = np.log(np.exp(z[i]).sum())
            loss = lse - z[i, y]
            losses.append(loss)
            q = np.exp(z[i]) / np.exp(z[i]).sum()
            margin = z[i, y] - max(z[i, j] for j in range(4) if j != y)
            entropy = -sum(qq * np.log(qq) for qq in q)
            mu = stats.means[y]
            spread = np.sqrt(np.trace(stats.covariances()[y]) + 1e-12)
            expect = {
                "loss": loss,
                "margin": margin,
                "entropy": entropy,
                "true_class_prob": q[y],
                "correct": float(np.argmax(z[i]) == y),
                "grad_norm": np.sqrt(np.sum(view.grad_h[i] ** 2)),
                "class_prior": stats.priors[y],
                "log_class_prior": np.log(stats.priors[y]),
                "class_mean_distance":
                    np.sqrt(np.sum((view.h[i] - mu) ** 2)) / spread,
                "progress": 0.7,
            }
            for name, value in expect.items():
                assert batch[i, names.index(name)] == pytest.approx(
                    value, rel=1e-10, abs=1e-12), name
        losses = np.array(losses)
        zsc = (losses - losses.mean()) / (losses.std() + 1e-12)
        assert np.allclose(batch[:, names.index("loss_zscore")], zsc)
        # rank percentile: per class, ascending loss in [0, 1]
        for c in range(4):
            sel = np.flatnonzero(view.labels == c)
            if sel.size == 0:
                continue
            col = batch[sel, names.index("class_loss_rank")]
            if sel.size == 1:
                assert col[0] == 0.5
            else:
                expect = np.argsort(np.argsort(losses[sel])) / (sel.size - 1)
                assert np.allclose(col, expect)

    def test_extraction_is_pure(self):
        view = make_view(seed=4)
        history = History(10)
        stats = make_stats(view)
        before = (history.ema.copy(), history.norm_mean.copy(),
                  history.norm_count)
        a = extract(view, history, stats, stats.covariances())
        b = extract(view, history, stats, stats.covariances())
        assert a.tobytes() == b.tobytes()
        assert history.norm_count == before[2]
        assert np.array_equal(history.ema, before[0])
        assert np.array_equal(history.norm_mean, before[1])

    def test_normalized_clipped_to_five(self):
        view = make_view(seed=5)
        history = History(10)
        stats = make_stats(view)
        batch = extract(view, history, stats, stats.covariances())
        update_history(history, view.ids, batch)
        view = view_of(view.h, view.logits * 1000.0,  # force outliers
                       view.labels, view.grad_h, view.progress)
        again = history.normalize(
            extract(view, history, stats, stats.covariances()))
        assert np.max(np.abs(again)) <= 5.0

    def test_normalization_formula(self):
        # normalize divides by the scale cached at the last update_history:
        # after each update it must give the bits of the formula on the
        # current EMAs, so a stale or differently rounded scale fails.
        view = make_view(seed=6)
        history = History(10)
        stats = make_stats(view)
        raw = extract(view, history, stats, stats.covariances())
        assert history.normalize(raw).tobytes() == np.clip(raw, -5, 5).tobytes()
        for step in range(3):
            update_history(history, view.ids,
                           extract(make_view(seed=10 + step), history, stats,
                                   stats.covariances()))
            var = np.maximum(history.norm_sq - history.norm_mean ** 2, 0.0)
            expect = np.clip((raw - history.norm_mean)
                             / np.sqrt(var + 1e-12), -5, 5)
            assert history.normalize(raw).tobytes() == expect.tobytes()


class TestUpdateHistory:
    def test_ema_one_then_zero(self):
        history = History(3)
        raw = np.zeros((1, NUM_CHARACTERISTICS))
        raw[0, 0] = 1.0  # loss column
        update_history(history, np.array([0]), raw)
        assert history.ema[0, 0] == 1.0
        raw[0, 0] = 0.0
        update_history(history, np.array([0]), raw)
        assert history.ema[0, 0] == pytest.approx(0.9)

    def test_constant_stream_converges_to_constant(self):
        history = History(2)
        raw = np.full((1, NUM_CHARACTERISTICS), 3.25)
        for _ in range(50):
            update_history(history, np.array([1]), raw)
        assert history.ema[1, 0] == pytest.approx(3.25)
        assert history.ema[1, 1] == pytest.approx(3.25)

    def test_random_stream_matches_recurrence(self):
        rng = np.random.default_rng(7)
        history = History(1)
        expect = None
        for _ in range(20):
            raw = rng.normal(size=(1, NUM_CHARACTERISTICS))
            update_history(history, np.array([0]), raw)
            value = raw[0, 0]
            expect = value if expect is None else 0.9 * expect + 0.1 * value
            assert history.ema[0, 0] == pytest.approx(expect, rel=1e-12)

    def test_normalization_means_have_the_bits_of_mean(self):
        rng = np.random.default_rng(8)
        history = History(40)
        raws = [rng.normal(size=(37, NUM_CHARACTERISTICS)) for _ in range(2)]
        update_history(history, np.arange(37), raws[0])
        assert history.norm_mean.tobytes() == raws[0].mean(axis=0).tobytes()
        assert (history.norm_sq.tobytes()
                == (raws[0] ** 2).mean(axis=0).tobytes())
        update_history(history, np.arange(37), raws[1])
        expect = (0.9 * raws[0].mean(axis=0)
                  + (1 - 0.9) * raws[1].mean(axis=0))
        assert history.norm_mean.tobytes() == expect.tobytes()

    def test_unknown_sample_id_rejected(self):
        history = History(4)
        raw = np.zeros((1, NUM_CHARACTERISTICS))
        with pytest.raises(KeyError):
            update_history(history, np.array([4]), raw)
