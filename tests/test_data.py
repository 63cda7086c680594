"""Dataset generation, corruption, metadata split, and CSV round-trip."""

import numpy as np
import pytest

from advaug.data import (BlobGeometry, DataError, Dataset, inject_label_noise,
                         load_csv, make_balanced, make_longtail,
                         make_subpop_shift, save_csv, split_meta)


class TestMakeLongtail:
    def test_geometric_profile_500_to_50(self):
        ds = make_longtail(0, num_classes=10, n_max=500, imbalance_ratio=10,
                           dim=4)
        expect = [round(500 * 10 ** (-c / 9)) for c in range(10)]
        assert ds.class_counts.tolist() == expect
        assert ds.class_counts[0] == 500 and ds.class_counts[-1] == 50

    def test_ratio_one_is_balanced(self):
        ds = make_longtail(1, num_classes=4, n_max=30, imbalance_ratio=1, dim=3)
        assert ds.class_counts.tolist() == [30, 30, 30, 30]

    def test_extreme_ratio_smallest_class(self):
        ds = make_longtail(2, num_classes=5, n_max=400, imbalance_ratio=100,
                           dim=2)
        assert ds.class_counts[-1] == 4

    def test_too_small_tail_rejected(self):
        with pytest.raises(DataError):
            make_longtail(0, num_classes=5, n_max=100, imbalance_ratio=100,
                          dim=2)

    def test_counts_non_increasing_and_ratio_respected(self):
        for ratio in [1, 3, 10, 50]:
            ds = make_longtail(3, num_classes=6, n_max=200,
                               imbalance_ratio=ratio, dim=2)
            counts = ds.class_counts
            assert np.all(np.diff(counts) <= 0)
            lo = round(200 / ratio)
            assert abs(counts[-1] - lo) <= 1

    def test_deterministic_under_seed(self):
        a = make_longtail(7, 3, 50, 5, 4, BlobGeometry(1.5, 0.8, 0.5))
        b = make_longtail(7, 3, 50, 5, 4, BlobGeometry(1.5, 0.8, 0.5))
        assert a.features.tobytes() == b.features.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_blob_geometry_centers_on_circle(self):
        ds = make_longtail(4, num_classes=4, n_max=4000, imbalance_ratio=1,
                           dim=2, geometry=BlobGeometry(radius=3.0, std=0.1))
        for c in range(4):
            center = ds.features[ds.labels == c].mean(axis=0)
            angle = 2 * np.pi * c / 4
            expect = 3.0 * np.array([np.cos(angle), np.sin(angle)])
            assert np.allclose(center, expect, atol=0.02)

    @pytest.mark.parametrize("bad", [
        {"radius": np.nan}, {"radius": np.inf}, {"nuisance_std": -np.inf},
        {"std": np.nan}, {"std": (1.0, np.inf, 1.0)}])
    def test_non_finite_geometry_rejected(self, bad):
        with pytest.raises(DataError, match="must be finite"):
            BlobGeometry(**bad)

    @pytest.mark.parametrize("std", [0.0, -1.0, (1.0, 0.0, 1.0)])
    def test_non_positive_std_rejected(self, std):
        with pytest.raises(DataError, match="must be positive"):
            BlobGeometry(std=std)

    @pytest.mark.parametrize("ratio", [np.nan, np.inf, 0.5])
    def test_ratio_must_be_finite_and_at_least_one(self, ratio):
        with pytest.raises(DataError, match="imbalance_ratio"):
            make_longtail(0, num_classes=3, n_max=50, imbalance_ratio=ratio,
                          dim=2)


class TestInjectLabelNoise:
    def base(self, seed=0):
        return make_longtail(seed, num_classes=10, n_max=100,
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
        ds = make_longtail(5, num_classes=2, n_max=200, imbalance_ratio=1,
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
    def test_group_sizes_follow_balance(self):
        train, test = make_subpop_shift(
            0, core_sep=2.0, spurious_sep=4.0,
            group_balance_train=(0.45, 0.05, 0.05, 0.45),
            group_balance_test=(0.25, 0.25, 0.25, 0.25),
            n_train=1000, n_test=400)
        sizes = np.bincount(train.group_ids, minlength=4)
        assert sizes.tolist() == [450, 50, 50, 450]
        assert np.bincount(test.group_ids, minlength=4).tolist() == [100] * 4
        assert np.array_equal(train.labels, train.group_ids // 2)

    def test_degenerate_balance_rejected(self):
        with pytest.raises(DataError):
            make_subpop_shift(0, 2.0, 4.0, (0.5, 0.0, 0.0, 0.5),
                              (0.25,) * 4, n_train=100, n_test=100)

    @pytest.mark.parametrize("seps", [(np.nan, 4.0), (2.0, np.inf),
                                      (-np.inf, 4.0)])
    def test_non_finite_separation_rejected(self, seps):
        with pytest.raises(DataError, match="must be finite"):
            make_subpop_shift(0, *seps, (0.25,) * 4, (0.25,) * 4)

    def test_zero_spurious_sep_groups_exchangeable(self):
        train, _ = make_subpop_shift(
            1, core_sep=3.0, spurious_sep=0.0,
            group_balance_train=(0.25,) * 4, group_balance_test=(0.25,) * 4,
            n_train=4000, n_test=100)
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
        balance = (corr / 2, (1 - corr) / 2, (1 - corr) / 2, corr / 2)
        train, _ = make_subpop_shift(
            2, core_sep=core_sep, spurious_sep=spurious_sep,
            group_balance_train=balance, group_balance_test=(0.25,) * 4,
            n_train=8000, n_test=100)
        # least-squares probe fitted on the skewed training data
        x = np.hstack([train.features, np.ones((train.n, 1))])
        w = np.linalg.lstsq(x, 2.0 * train.labels - 1.0, rcond=None)[0]
        core_norm = np.linalg.norm(w[:2])
        sp_norm = np.linalg.norm(w[2:4])
        assert sp_norm > core_norm

    def test_balanced_test_worst_group_below_average(self):
        _, test = make_subpop_shift(
            3, 2.0, 4.0, (0.45, 0.05, 0.05, 0.45), (0.25,) * 4,
            n_train=200, n_test=800)
        rng = np.random.default_rng(0)
        preds = rng.integers(0, 2, size=test.n)
        correct = preds == test.labels
        per_group = [correct[test.group_ids == g].mean() for g in range(4)]
        assert min(per_group) <= correct.mean() + 1e-12


class TestSplitMeta:
    def test_balanced_meta_of_requested_size(self):
        ds = make_longtail(0, num_classes=10, n_max=120, imbalance_ratio=2,
                           dim=3)
        rest, meta = split_meta(ds, per_class=10, seed=1)
        assert meta.features.shape[0] == 100
        assert np.bincount(meta.labels, minlength=10).tolist() == [10] * 10
        assert rest.n == ds.n - 100
        assert int(rest.class_counts.sum()) == rest.n

    def test_zero_per_class_rejected(self):
        ds = make_longtail(0, 3, 30, 1, 2)
        with pytest.raises(DataError):
            split_meta(ds, per_class=0, seed=0)

    def test_insufficient_clean_samples_rejected(self):
        ds = make_longtail(0, num_classes=5, n_max=400, imbalance_ratio=100,
                           dim=2)  # tail class has 4 samples
        with pytest.raises(DataError):
            split_meta(ds, per_class=5, seed=0)

    def test_meta_labels_match_pre_noise_ground_truth(self):
        clean = make_longtail(1, num_classes=4, n_max=150, imbalance_ratio=1,
                              dim=3)
        # tag each row so identity survives shuffling into the metadata
        clean.features[:, -1] = np.arange(clean.n)
        noisy = inject_label_noise(clean, "uniform", 0.4, seed=2)
        _, meta = split_meta(noisy, per_class=5, seed=3)
        original_rows = meta.features[:, -1].astype(int)
        assert np.array_equal(meta.labels, clean.labels[original_rows])
        assert not noisy.noise_mask[original_rows].any()

    def test_meta_disjoint_from_remainder(self):
        ds = make_longtail(2, 3, 60, 1, 3)
        ds.features[:, -1] = np.arange(ds.n)
        rest, meta = split_meta(ds, per_class=7, seed=4)
        assert (set(meta.features[:, -1].astype(int))
                & set(rest.features[:, -1].astype(int)) == set())


class TestCsv:
    def test_round_trip_with_groups(self, tmp_path):
        train, _ = make_subpop_shift(0, 2.0, 4.0, (0.4, 0.1, 0.1, 0.4),
                                     (0.25,) * 4, n_train=50, n_test=10)
        path = tmp_path / "ds.csv"
        save_csv(train, path)
        back = load_csv(path)
        assert back.features.tobytes() == train.features.tobytes()
        assert np.array_equal(back.labels, train.labels)
        assert np.array_equal(back.group_ids, train.group_ids)

    def test_round_trip_without_groups(self, tmp_path):
        ds = make_balanced(1, 3, 20, 4)
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
