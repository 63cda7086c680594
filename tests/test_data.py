"""The labeled set, the scenarios' draws, corruption, metadata split, and
CSV round-trip."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from advaug.data import (DataError, Dataset, inject_label_noise, load_csv,
                         save_csv, split_meta)
from advaug.scenarios import SCENARIOS, Longtail, Subpop


@pytest.mark.parametrize("fields, counts", [
    ({}, [3, 1]),
    ({"num_classes": 3}, [3, 1, 0]),
    ({"labels": np.array([0, 0, 1])}, None),
    ({"group_ids": np.arange(5)}, None),
    ({"noise_mask": np.zeros(2, dtype=bool)}, None),
    ({"labels": np.array([0, 0, -1, 1])}, None),
    ({"labels": np.array([0, 0, 2, 1])}, None),
    ({"labels": np.array([0., 0., 0., 1.])}, None),
    ({"noise_mask": np.array([1, 1, 0, 0])}, None),
], ids=["counts-from-labels", "top-class-absent", "short-labels",
        "long-group-ids", "short-noise-mask", "label-below-0",
        "label-at-num-classes", "float-labels", "int-noise-mask"])
def test_dataset_construction(fields, counts):
    """Four rows labeled 0, 0, 0, 1 of two classes, one field replaced: the
    class counts are those of the labels and the class rows, and a label,
    group or noise array of another length than the rows, a label outside
    [0, num_classes), labels that are not integers or a noise mask that is
    not boolean (~1 is -2, which reads as true) is refused."""
    args = {"features": np.zeros((4, 1)), "labels": np.array([0, 0, 0, 1]),
            "num_classes": 2} | fields
    if counts is None:
        with pytest.raises(DataError):
            Dataset(**args)
        return
    ds = Dataset(**args)
    assert ds.class_counts.tolist() == counts
    assert [rows.size for rows in ds.class_rows] == counts


@pytest.mark.parametrize("name", ["features", "labels", "group_ids",
                                  "noise_mask"])
def test_dataset_arrays_are_read_only(name):
    """A write through a set's arrays raises, so its class counts and row
    partitions cannot go stale; the caller's own arrays stay writable."""
    given = {"features": np.zeros((4, 2)), "labels": np.array([0, 0, 1, 1]),
             "group_ids": np.array([0, 1, 0, 1]),
             "noise_mask": np.array([False, True, False, False])}
    ds = Dataset(num_classes=2, **given)
    with pytest.raises(ValueError, match="read-only"):
        getattr(ds, name)[0] = 1
    assert ds.class_counts.tolist() == [2, 2]
    assert [rows.tolist() for rows in ds.class_rows] == [[0, 1], [2, 3]]
    assert given[name].flags.writeable


def longtail_train(seed, num_classes, n_max, imbalance_ratio, dim, **blobs):
    """The training set of a longtail scenario with these fields."""
    return Longtail(num_classes=num_classes, dim=dim, n_max=n_max,
                    imbalance_ratio=imbalance_ratio, **blobs).build(seed).train


def tagged(ds):
    """`ds` with each row's index as its last feature, so that a row's
    identity survives a shuffle into the metadata."""
    features = ds.features.copy()
    features[:, -1] = np.arange(ds.n)
    return replace(ds, features=features)


class TestMakeLongtail:
    """The longtail scenario's draw of Gaussian class blobs."""

    def test_geometric_profile_500_to_50(self):
        ds = longtail_train(0, num_classes=10, n_max=500, imbalance_ratio=10,
                            dim=4)
        expect = [round(500 * 10 ** (-c / 9)) for c in range(10)]
        assert ds.class_counts.tolist() == expect
        assert ds.class_counts[0] == 500 and ds.class_counts[-1] == 50

    def test_ratio_one_is_balanced(self):
        ds = longtail_train(1, num_classes=4, n_max=30, imbalance_ratio=1,
                            dim=3)
        assert ds.class_counts.tolist() == [30, 30, 30, 30]

    def test_extreme_ratio_smallest_class(self):
        ds = longtail_train(2, num_classes=5, n_max=400, imbalance_ratio=100,
                            dim=2)
        assert ds.class_counts[-1] == 4

    def test_too_small_tail_rejected(self):
        with pytest.raises(DataError):
            longtail_train(0, num_classes=5, n_max=100, imbalance_ratio=100,
                           dim=2)

    def test_counts_non_increasing_and_ratio_respected(self):
        for ratio in [1, 3, 10, 50]:
            ds = longtail_train(3, num_classes=6, n_max=200,
                                imbalance_ratio=ratio, dim=2)
            counts = ds.class_counts
            assert np.all(np.diff(counts) <= 0)
            lo = round(200 / ratio)
            assert abs(counts[-1] - lo) <= 1

    def test_deterministic_under_seed(self):
        geometry = {"radius": 1.5, "blob_std": 0.8, "nuisance_std": 0.5}
        a = longtail_train(7, 3, 50, 5, 4, **geometry)
        b = longtail_train(7, 3, 50, 5, 4, **geometry)
        assert a.features.tobytes() == b.features.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_blob_geometry_centers_on_circle(self):
        ds = longtail_train(4, num_classes=4, n_max=4000, imbalance_ratio=1,
                            dim=2, radius=3.0, blob_std=0.1)
        for c in range(4):
            center = ds.features[ds.labels == c].mean(axis=0)
            angle = 2 * np.pi * c / 4
            expect = 3.0 * np.array([np.cos(angle), np.sin(angle)])
            assert np.allclose(center, expect, atol=0.02)

    def test_per_class_std_sets_each_blob_spread(self):
        stds = (0.2, 1.0, 3.0)
        ds = longtail_train(5, num_classes=3, n_max=4000, imbalance_ratio=1,
                            dim=3, blob_std=stds, nuisance_std=0.5)
        for c, std in enumerate(stds):
            rows = ds.features[ds.labels == c]
            assert np.allclose(rows[:, :2].std(axis=0), std, rtol=0.05)
            assert np.isclose(rows[:, 2].std(), 0.5, rtol=0.05)

    @pytest.mark.parametrize("bad", [
        {"radius": np.nan}, {"radius": np.inf}, {"nuisance_std": -np.inf},
        {"blob_std": np.nan}, {"blob_std": (1.0, np.inf, 1.0)}])
    def test_non_finite_geometry_rejected(self, bad):
        with pytest.raises(DataError, match="must be finite"):
            Longtail(**bad).build(0)

    @pytest.mark.parametrize("std", [0.0, -1.0, (1.0, 0.0, 1.0)])
    def test_non_positive_std_rejected(self, std):
        with pytest.raises(DataError, match="must be positive"):
            Longtail(blob_std=std).build(0)

    @pytest.mark.parametrize("ratio", [np.nan, np.inf, 0.5])
    def test_ratio_must_be_finite_and_at_least_one(self, ratio):
        with pytest.raises(DataError, match="imbalance_ratio"):
            longtail_train(0, num_classes=3, n_max=50, imbalance_ratio=ratio,
                           dim=2)


class TestPinnedDraws:
    """Every built-in scenario draws the same bits as before.

    The digest covers the features, labels and group ids of train, meta and
    test, in that order.  A change that moves a draw must say so and update
    the digest.
    """

    @pytest.mark.parametrize("scenario, seed, digest", [
        ("longtail", 0, "380368972a7bf0ed"),
        ("longtail", 1, "f68b09063c02a3ff"),
        ("noise", 0, "ab888a6583972ccd"),
        ("noise", 1, "f6e651c0d09f7ca0"),
        ("subpop", 0, "bb24ea8e416acd38"),
        ("subpop", 1, "2984441d3dd866cf")])
    def test_default_fields(self, scenario, seed, digest):
        data = SCENARIOS[scenario]().build(seed)
        h = hashlib.sha256()
        for part in (data.train, data.meta, data.test):
            for array in (part.features, part.labels, part.group_ids):
                if array is not None:
                    h.update(array.tobytes())
        assert h.hexdigest()[:16] == digest


class TestInjectLabelNoise:
    def base(self, seed=0):
        return longtail_train(seed, num_classes=10, n_max=100,
                              imbalance_ratio=1, dim=3)

    def test_rate_zero_is_identity(self):
        ds = self.base()
        out = inject_label_noise(ds, "uniform", 0.0, seed=1)
        assert np.array_equal(out.labels, ds.labels)
        assert out.noise_mask.sum() == 0

    def test_flip_moves_to_successor_class(self):
        ds = self.base()
        out = inject_label_noise(ds, "flip", 0.4, seed=2)
        changed = out.noise_mask
        assert np.array_equal(out.labels[changed],
                              (ds.labels[changed] + 1) % 10)
        assert np.array_equal(out.labels[~changed], ds.labels[~changed])
        # binomial count within 4 sigma
        n, p = ds.n, 0.4
        assert abs(changed.sum() - n * p) < 4 * np.sqrt(n * p * (1 - p))

    def test_uniform_never_keeps_original_label(self):
        ds = self.base()
        out = inject_label_noise(ds, "uniform", 0.3, seed=3)
        assert np.all(out.labels[out.noise_mask] != ds.labels[out.noise_mask])

    def test_uniform_equals_flip_marginally_for_two_classes(self):
        ds = longtail_train(5, num_classes=2, n_max=200, imbalance_ratio=1,
                            dim=2)
        u = inject_label_noise(ds, "uniform", 0.2, seed=6)
        f = inject_label_noise(ds, "flip", 0.2, seed=6)
        # same Bernoulli selection stream, and with C=2 the only wrong
        # label is the other class
        assert np.array_equal(u.labels, f.labels)

    def test_features_untouched(self):
        ds = self.base()
        out = inject_label_noise(ds, "uniform", 0.5, seed=4)
        assert out.features.tobytes() == ds.features.tobytes()

    def test_mask_cardinality_binomial_over_seeds(self):
        ds = self.base()
        rate = 0.25
        total = sum(inject_label_noise(ds, "flip", rate, seed=s).noise_mask.sum()
                    for s in range(20))
        n = 20 * ds.n
        assert abs(total - n * rate) < 4 * np.sqrt(n * rate * (1 - rate))

    def test_bad_rate_rejected(self):
        ds = self.base()
        with pytest.raises(DataError):
            inject_label_noise(ds, "flip", 1.0, seed=0)
        with pytest.raises(DataError):
            inject_label_noise(ds, "swap", 0.1, seed=0)


class TestMakeSubpopShift:
    """The subpop scenario's draws of its three sets."""

    def test_group_sizes_follow_balance(self):
        # 0.5 - 0.375 is exact, unlike 0.5 - 0.45 (just below 0.05)
        data = Subpop(core_sep=2.0, spurious_sep=4.0, train_majority=0.375,
                      test_majority=0.25, n_train=1000, n_test=400).build(0)
        train, test = data.train, data.test
        sizes = np.bincount(train.group_ids, minlength=4)
        assert sizes.tolist() == [375, 125, 125, 375]
        assert np.bincount(test.group_ids, minlength=4).tolist() == [100] * 4
        assert np.bincount(data.meta.group_ids).tolist() == [10] * 4
        assert np.array_equal(train.labels, train.group_ids // 2)

    def test_degenerate_balance_rejected(self):
        with pytest.raises(DataError):
            Subpop(train_majority=0.5, n_train=100, n_test=100).build(0)

    @pytest.mark.parametrize("seps", [(np.nan, 4.0), (2.0, np.inf),
                                      (-np.inf, 4.0)])
    def test_non_finite_separation_rejected(self, seps):
        with pytest.raises(DataError, match="must be finite"):
            Subpop(core_sep=seps[0], spurious_sep=seps[1]).build(0)

    def test_zero_spurious_sep_groups_exchangeable(self):
        train = Subpop(core_sep=3.0, spurious_sep=0.0, train_majority=0.25,
                       n_train=4000, n_test=100).build(1).train
        sp = train.features[:, 2:]
        attr = train.group_ids % 2
        # spurious block carries no attribute signal
        gap = sp[attr == 1].mean(axis=0) - sp[attr == 0].mean(axis=0)
        assert np.max(np.abs(gap)) < 0.15

    def test_erm_probe_prefers_spurious_when_it_separates_more(self):
        # closed-form LDA on the generating mixture: within-class scatter is
        # identity on core dims and 1 + s^2 (1 - corr^2) on the spurious
        # direction; the discriminant weight ratio follows directly.
        core_sep, spurious_sep, corr = 1.5, 6.0, 0.95
        s_c, s_s = core_sep / 2, spurious_sep / 2
        w_core = 2 * s_c
        w_sp = 2 * corr * s_s / (1 + (1 - corr**2) * s_s**2)
        assert w_sp > w_core  # Bayes-level preference for the spurious block
        train = Subpop(core_sep=core_sep, spurious_sep=spurious_sep,
                       train_majority=corr / 2, n_train=8000,
                       n_test=100).build(2).train
        # least-squares probe fitted on the skewed training data
        x = np.hstack([train.features, np.ones((train.n, 1))])
        w = np.linalg.lstsq(x, 2.0 * train.labels - 1.0, rcond=None)[0]
        core_norm = np.linalg.norm(w[:2])
        sp_norm = np.linalg.norm(w[2:4])
        assert sp_norm > core_norm

    def test_balanced_test_worst_group_below_average(self):
        test = Subpop(n_train=200, n_test=800).build(3).test
        rng = np.random.default_rng(0)
        preds = rng.integers(0, 2, size=test.n)
        correct = preds == test.labels
        per_group = [correct[test.group_ids == g].mean() for g in range(4)]
        assert min(per_group) <= correct.mean() + 1e-12


class TestSplitMeta:
    def test_balanced_meta_of_requested_size(self):
        ds = longtail_train(0, num_classes=10, n_max=120, imbalance_ratio=2,
                            dim=3)
        rest, meta = split_meta(ds, per_class=10, seed=1)
        assert meta.features.shape[0] == 100
        assert np.bincount(meta.labels, minlength=10).tolist() == [10] * 10
        assert rest.n == ds.n - 100
        assert int(rest.class_counts.sum()) == rest.n

    def test_zero_per_class_rejected(self):
        ds = longtail_train(0, 3, 30, 1, 2)
        with pytest.raises(DataError):
            split_meta(ds, per_class=0, seed=0)

    def test_insufficient_clean_samples_rejected(self):
        ds = longtail_train(0, num_classes=5, n_max=400, imbalance_ratio=100,
                            dim=2)  # tail class has 4 samples
        with pytest.raises(DataError):
            split_meta(ds, per_class=5, seed=0)

    def test_meta_labels_match_pre_noise_ground_truth(self):
        clean = tagged(longtail_train(1, num_classes=4, n_max=150,
                                      imbalance_ratio=1, dim=3))
        noisy = inject_label_noise(clean, "uniform", 0.4, seed=2)
        _, meta = split_meta(noisy, per_class=5, seed=3)
        original_rows = meta.features[:, -1].astype(int)
        assert np.array_equal(meta.labels, clean.labels[original_rows])
        assert not noisy.noise_mask[original_rows].any()

    def test_meta_disjoint_from_remainder(self):
        ds = tagged(longtail_train(2, 3, 60, 1, 3))
        rest, meta = split_meta(ds, per_class=7, seed=4)
        assert (set(meta.features[:, -1].astype(int))
                & set(rest.features[:, -1].astype(int)) == set())


class TestCsv:
    def test_round_trip_with_groups(self, tmp_path):
        train = Subpop(train_majority=0.4, n_train=50,
                       n_test=10).build(0).train
        path = tmp_path / "ds.csv"
        save_csv(train, path)
        back = load_csv(path)
        assert back.features.tobytes() == train.features.tobytes()
        assert np.array_equal(back.labels, train.labels)
        assert np.array_equal(back.group_ids, train.group_ids)

    def test_round_trip_without_groups(self, tmp_path):
        ds = longtail_train(1, 3, 20, 1, 4)
        path = tmp_path / "ds.csv"
        save_csv(ds, path)
        back = load_csv(path)
        assert back.features.tobytes() == ds.features.tobytes()
        assert np.array_equal(back.class_counts, ds.class_counts)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_rejected_with_row_number(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"f0,f1,label\n1.0,2.0,0\n1.0,{cell},1\n")
        with pytest.raises(DataError, match="row 3: non-finite"):
            load_csv(path)

    def test_ragged_row_rejected_with_row_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n1.0,2.0,0\n1.0,1\n")
        with pytest.raises(DataError, match="row 3"):
            load_csv(path)

    def test_non_numeric_cell_rejected_with_row_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\n1.0,0\noops,1\n")
        with pytest.raises(DataError, match="row 3"):
            load_csv(path)

    def test_negative_label_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\n1.0,-1\n")
        with pytest.raises(DataError, match="row 2"):
            load_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y,label\n1.0,2.0,0\n")
        with pytest.raises(DataError, match="header"):
            load_csv(path)

    def test_zero_byte_file_rejected_naming_the_file(self, tmp_path):
        path = tmp_path / "zero.csv"
        path.write_bytes(b"")
        with pytest.raises(DataError, match="zero.csv is empty"):
            load_csv(path)

    def test_header_only_rejected_naming_the_file(self, tmp_path):
        path = tmp_path / "header_only.csv"
        path.write_text("f0,f1,label\n")
        with pytest.raises(DataError, match="header_only.csv has no rows"):
            load_csv(path)
