"""Oracle self-tests, plus sweeps of the Jensen and MGF suites."""

import numpy as np
import pytest

from advaug import autodiff as ad
from advaug.autodiff import Tape, Tensor
from advaug.oracles import (_ce_rows, draws_per_sample, explicit_augment,
                            fd_gradient, finite_loss_convergence,
                            mc_expected_ce, mgf_check)
from advaug.verification import jensen_suite, mgf_suite


class TestExplicitAugment:
    def test_alpha_zero_draws_equal_mean_exactly(self):
        h = np.array([1.0, -2.0, 0.5])
        delta = np.array([0.1, 0.0, -0.1])
        draws = explicit_augment(h, delta, np.eye(3), 0.0, 50, seed=0)
        assert np.array_equal(draws, np.tile(h + delta, (50, 1)))

    def test_sample_mean_near_center(self):
        h = np.array([0.5, -1.0])
        delta = np.array([0.2, 0.2])
        draws = explicit_augment(h, delta, np.eye(2), 1.0, 100000, seed=1)
        err = draws.mean(axis=0) - (h + delta)
        assert np.max(np.abs(err)) < 4.0 / np.sqrt(100000)

    def test_sample_covariance_converges(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(3, 3))
        sigma = a @ a.T
        alpha = 0.7

        def cov_err(count, seed):
            draws = explicit_augment(np.zeros(3), np.zeros(3), sigma, alpha,
                                     count, seed)
            centered = draws - draws.mean(axis=0)
            s = centered.T @ centered / (count - 1)
            return np.linalg.norm(s - alpha * sigma)

        big = cov_err(100000, 3)
        small = cov_err(1000, 3)
        assert big < small
        assert big / np.linalg.norm(alpha * sigma) < 0.05

    def test_non_psd_input_fails_cholesky(self):
        with pytest.raises(np.linalg.LinAlgError):
            explicit_augment(np.zeros(2), np.zeros(2), np.diag([1.0, -1.0]),
                             1.0, 10, seed=0)


class TestMcExpectedCe:
    def test_alpha_zero_is_exact_pointwise_ce(self):
        rng = np.random.default_rng(4)
        w, b = rng.normal(size=(4, 3)), rng.normal(size=4)
        h, delta = rng.normal(size=3), np.array([0.1, -0.1, 0.0])
        est, se = mc_expected_ce(w, b, h, delta, np.eye(3), 0.0, y=2,
                                 count=1000, seed=0)
        z = w @ (h + delta) + b
        expect = np.log(np.exp(z - z.max()).sum()) + z.max() - z[2]
        assert est == pytest.approx(expect, abs=1e-12)
        assert se == 0.0

    @pytest.mark.parametrize("classes", [2, 3, 4, 5])
    def test_losses_keep_the_bits_of_the_row_reductions(self, classes):
        rng = np.random.default_rng(classes)
        w, b = rng.normal(size=(classes, 6)), rng.normal(size=classes)
        draws = rng.normal(scale=5.0, size=(20000, 6))
        z = draws @ w.T + b
        m = z.max(axis=1, keepdims=True)
        expect = m[:, 0] + np.log(np.exp(z - m).sum(axis=1)) - z[:, 1]
        assert _ce_rows(w, b, draws, 1).tobytes() == expect.tobytes()

    def test_single_class_loss_is_zero(self):
        est, _ = mc_expected_ce(np.ones((1, 2)), np.zeros(1), np.zeros(2),
                                np.zeros(2), np.eye(2), 0.5, y=0,
                                count=2000, seed=1)
        assert est == pytest.approx(0.0, abs=1e-12)


class TestMgfCheck:
    def test_t_zero_both_one(self):
        mc, closed = mgf_check(0.0, 1.3, 2.0, count=5000, seed=0)
        assert closed == 1.0
        assert mc == pytest.approx(1.0, abs=1e-12)

    def test_zero_variance_is_exp_t_mu(self):
        mc, closed = mgf_check(0.8, -0.4, 0.0, count=5000, seed=1)
        assert closed == pytest.approx(np.exp(-0.32))
        assert mc == pytest.approx(closed, abs=1e-12)

    def test_reference_point_within_four_standard_errors(self):
        t, mu, s2, count = 0.7, -0.3, 2.1, 1000000
        mc, closed = mgf_check(t, mu, s2, count=count, seed=2)
        rng = np.random.default_rng(2)
        x = mu + np.sqrt(s2) * rng.standard_normal(count)
        se = np.exp(t * x).std(ddof=1) / np.sqrt(count)
        assert abs(mc - closed) < 4 * se

    def test_identity_over_parameter_box(self):
        # 100 cells (t, mu, s2) drawn from [-2, 2) x [-2, 2) x (0, 4)
        cells = np.random.default_rng(3).uniform([-2, -2, 0], [2, 2, 4],
                                                 size=(100, 3))
        assert mgf_suite(cells, count=20000, seed=3, bound=6.0)["passed"]

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            mgf_check(0.5, 0.0, -1.0, 100, 0)


class TestJensenBound:
    """The derivation's central inequality, over 1000 random instances."""

    def test_closed_form_dominates_mc_minus_three_se(self):
        record = jensen_suite(instances=1000, draws=2000, seed=2024)
        assert record["held"] == 1000


class TestFiniteLossConvergence:
    def setup_instance(self):
        rng = np.random.default_rng(9)
        n, c, width = 4, 3, 4
        w, b = rng.normal(size=(c, width)), rng.normal(size=c)
        h = rng.normal(size=(n, width))
        delta = 0.3 * np.sign(rng.normal(size=(n, width)))
        sigmas = [a @ a.T / width for a in rng.normal(size=(c, width, width))]
        labels = np.array([0, 1, 2, 0])
        priors = np.array([0.5, 0.3, 0.2])
        return w, b, h, delta, sigmas, labels, priors

    def test_trivial_single_draw_alpha_zero_gap(self):
        w, b, h, delta, sigmas, labels, _ = self.setup_instance()
        # integer 1/pi makes the rounded draw counts exact, so the
        # zero-covariance finite loss equals its limit identically
        priors = np.array([0.5, 0.25, 0.25])
        gaps = finite_loss_convergence(w, b, h, delta, sigmas, 0.0, priors,
                                       labels, [1], seed=0, limit_count=1000)
        assert gaps[0] == pytest.approx(0.0, abs=1e-12)

    def test_prior_weighted_draw_counts(self):
        counts = draws_per_sample(100, np.array([0.1, 1.0]),
                                  np.array([0, 1, 0]))
        assert counts.tolist() == [1000, 100, 1000]

    def test_gaps_shrink_as_inverse_sqrt(self):
        w, b, h, delta, sigmas, labels, priors = self.setup_instance()
        budgets = [10, 100, 1000]
        mean_gaps = np.mean([finite_loss_convergence(
            w, b, h, delta, sigmas, 0.5, priors, labels, budgets,
            seed=rep + 1, limit_count=200000) for rep in range(10)], axis=0)
        slope = np.polyfit(np.log10(budgets), np.log10(mean_gaps), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.15)


class TestFdGradient:
    def test_quadratic_exact(self):
        a = np.array([[2.0, 0.5], [0.5, 1.0]])

        def f(x):
            return float(x @ a @ x)

        x0 = np.array([0.7, -1.2])
        fd = fd_gradient(f, x0, step=1e-4)
        assert np.allclose(fd, 2 * a @ x0, atol=1e-8)

    def test_sin_at_zero(self):
        fd = fd_gradient(lambda x: float(np.sin(x[0])), np.zeros(1), 1e-5)
        assert fd[0] == pytest.approx(1.0, abs=1e-8)

    def test_matches_autodiff_on_random_mlp(self):
        rng = np.random.default_rng(12)
        w1 = rng.normal(size=(3, 5))
        w2 = rng.normal(size=(5, 2))
        x = rng.normal(size=(4, 3))
        labels = np.array([0, 1, 1, 0])

        def run(w1v):
            h = ad.tanh(ad.matmul(Tensor(x), Tensor(w1v)))
            z = ad.matmul(h, Tensor(w2))
            return ad.mean(ad.softmax_cross_entropy(z, labels))

        with Tape() as tape:
            w1t = Tensor(w1)
            h = ad.tanh(ad.matmul(Tensor(x), w1t))
            z = ad.matmul(h, Tensor(w2))
            loss = ad.mean(ad.softmax_cross_entropy(z, labels))
            (grad,) = tape.gradient(loss, [w1t])

        fd = fd_gradient(lambda v: float(run(v).value), w1.copy(), 1e-5)
        denom = max(np.max(np.abs(fd)), 1e-12)
        assert np.max(np.abs(grad.value - fd)) / denom < 1e-4

    def test_non_finite_evaluation_rejected(self):
        with np.errstate(invalid="ignore", divide="ignore"):
            with pytest.raises(ValueError):
                fd_gradient(lambda x: float(np.log(x[0])), np.zeros(1), 1e-5)
