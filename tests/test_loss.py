"""Surrogate-loss tests: delta, quadratic terms, identities, diagnostics."""

import numpy as np
import pytest

from advaug import autodiff as ad
from advaug import kernels
from advaug.autodiff import Tape, Tensor
from advaug.characteristics import BatchView
from advaug.data import Dataset
from advaug.loss import (adjusted_logits, augmented_ce_loss, base_logits,
                         compute_delta, extract_features, quadratic_terms)
from advaug.oracles import fd_gradient, per_sample_ce
from advaug.stats import update_covariance
from advaug.training import TrainerConfig, _regularizer_row, init_state


class TestComputeDelta:
    def test_zero_eps_zero_delta(self):
        g = np.random.default_rng(0).normal(size=(3, 4))
        delta = compute_delta(g, np.zeros(3))
        assert np.array_equal(delta, np.zeros((3, 4)))

    def test_sign_pattern(self):
        delta = compute_delta(np.array([[0.3, -0.1, 0.0]]), np.array([0.5]))
        assert np.array_equal(delta, [[0.5, -0.5, 0.0]])

    def test_small_positive_eps_is_ascent_direction(self):
        rng = np.random.default_rng(1)
        for k in range(50):
            c, width = 4, 6
            w, b = rng.normal(size=(c, width)), rng.normal(size=c)
            h = rng.normal(size=(1, width))
            y = np.array([int(rng.integers(0, c))])
            q = np.exp(h @ w.T + b)
            g = (q / q.sum() - np.eye(c)[y]) @ w
            if np.min(np.abs(g)) < 1e-6:
                continue
            delta = compute_delta(g, np.array([1e-3]))
            before = per_sample_ce(h @ w.T + b, y)[0]
            after = per_sample_ce((h + delta) @ w.T + b, y)[0]
            assert after >= before - 1e-12

    def test_eps_magnitude_validated(self):
        g = np.ones((2, 3))
        with pytest.raises(ValueError):
            compute_delta(g, np.array([1.0, 0.5]))

    def test_traced_eps_gradient_flows_only_through_eps(self):
        g = np.array([[0.3, -0.2], [0.0, 0.7]])
        with Tape() as tape:
            eps = Tensor(np.array([[0.5], [-0.25]]))
            delta = compute_delta(g, eps)
            total = ad.tsum(delta)
            (grad,) = tape.gradient(total, [eps])
        # d(sum delta)/d eps_i = sum of signs in row i
        assert np.allclose(grad.value, [[0.0], [1.0]])


class TestQuadraticTerms:
    def test_own_class_entry_is_zero(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(4, 3))
        a = rng.normal(size=(3, 3))
        sigma = a @ a.T / 3
        rho = quadratic_terms(w, np.stack([sigma] * 4), np.array([2]))
        assert rho.value[0, 2] == 0.0

    def test_identity_sigma_unit_diff(self):
        w = np.array([[0.0, 0.0], [1.0, 1.0]])
        rho = quadratic_terms(w, np.stack([np.eye(2)] * 2), np.array([0]))
        assert rho.value[0, 1] == pytest.approx(1.0)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(3)
        n, c, width = 6, 4, 5
        w = rng.normal(size=(c, width))
        sigmas = [a @ a.T / width
                  for a in rng.normal(size=(c, width, width))]
        labels = rng.integers(0, c, size=n)
        rho = quadratic_terms(Tensor(w), np.stack(sigmas), labels)
        for i in range(n):
            for j in range(c):
                dw = w[j] - w[labels[i]]
                expect = 0.5 * dw @ sigmas[labels[i]] @ dw
                assert rho.value[i, j] == pytest.approx(expect, abs=1e-12)

    def test_psd_sigma_gives_nonnegative_rho(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            w = rng.normal(size=(3, 4))
            a = rng.normal(size=(4, 4))
            rho = quadratic_terms(w, np.stack([a @ a.T] * 3),
                                  np.array([int(rng.integers(0, 3))]))
            assert np.min(rho.value) >= -1e-12

    def test_detach_toggle_blocks_w_gradient(self):
        # W is never detached inside rho: it gets a gradient through it
        rng = np.random.default_rng(5)
        labels = np.array([0, 1])
        with Tape() as tape:
            w = Tensor(rng.normal(size=(3, 2)))
            rho = quadratic_terms(w, np.stack([np.eye(2)] * 3), labels)
            (g,) = tape.gradient(ad.tsum(rho), [w])
        assert np.max(np.abs(g.value)) > 0.0

    def test_sigma_receives_gradient(self):
        rng = np.random.default_rng(6)
        w = Tensor(rng.normal(size=(3, 2)))
        labels = np.array([1, 1, 0])
        with Tape() as tape:
            sigma = Tensor(np.stack([np.eye(2)] * 3))
            rho = quadratic_terms(w, sigma, labels)
            (grad,) = tape.gradient(ad.tsum(rho), [sigma])
        assert np.max(np.abs(grad.value[0])) > 0
        assert np.max(np.abs(grad.value[1])) > 0
        assert np.max(np.abs(grad.value[2])) == 0.0  # class 2 absent


class TestAdjustedLogits:
    def setup_case(self, seed=7, n=5, c=4, width=3):
        rng = np.random.default_rng(seed)
        w, b = rng.normal(size=(c, width)), rng.normal(size=c)
        h = rng.normal(size=(n, width))
        labels = rng.integers(0, c, size=n)
        sigmas = [a @ a.T / width
                  for a in rng.normal(size=(c, width, width))]
        g = rng.normal(size=(n, width))
        priors = class_counts = rng.integers(10, 50, size=c).astype(float)
        priors = class_counts / class_counts.sum()
        return w, b, h, labels, sigmas, g, priors

    def test_reduction_to_plain_logits(self):
        w, b, h, labels, sigmas, g, priors = self.setup_case()
        delta = compute_delta(g, np.zeros(len(labels)))
        rho = quadratic_terms(Tensor(w), np.stack(sigmas), labels)
        z = adjusted_logits(Tensor(w), Tensor(b), Tensor(h),
                            Tensor(delta), rho, priors, 0.0, 0.0)
        assert np.max(np.abs(z.value - (h @ w.T + b))) < 1e-12

    def test_balanced_prior_shift_preserves_ce(self):
        w, b, h, labels, sigmas, g, _ = self.setup_case()
        priors = np.full(4, 0.25)
        z0 = base_logits(Tensor(w), Tensor(b), Tensor(h), None)
        z1 = adjusted_logits(Tensor(w), Tensor(b), Tensor(h), None, None,
                             priors, 0.0, 1.0)
        assert np.allclose(z1.value, z0.value + np.log(0.25), atol=1e-12)
        ce0 = per_sample_ce(z0.value, labels)
        ce1 = per_sample_ce(z1.value, labels)
        assert np.max(np.abs(ce0 - ce1)) < 1e-12

    def test_matches_scalar_oracle(self):
        w, b, h, labels, sigmas, g, priors = self.setup_case(seed=8)
        alpha, beta = 0.7, 0.9
        delta = compute_delta(g, np.linspace(-0.8, 0.8, len(labels)))
        rho = quadratic_terms(Tensor(w), np.stack(sigmas), labels)
        z = adjusted_logits(Tensor(w), Tensor(b), Tensor(h),
                            Tensor(delta), rho, priors, alpha, beta)
        for i in range(len(labels)):
            for j in range(4):
                dw = w[j] - w[labels[i]]
                rho_ij = 0.5 * dw @ sigmas[labels[i]] @ dw
                expect = (w[j] @ (h[i] + delta[i]) + b[j]
                          + alpha * rho_ij + beta * np.log(priors[j]))
                assert z.value[i, j] == pytest.approx(expect, abs=1e-10)

    def test_nonpositive_priors_rejected(self):
        w, b, h, labels, _, _, _ = self.setup_case()
        with pytest.raises(ValueError):
            adjusted_logits(Tensor(w), Tensor(b), Tensor(h), None, None,
                            np.array([0.5, 0.5, 0.0, 0.0]), 0.5, 1.0)

    def test_negative_config_rejected(self):
        for scale in ({"alpha": -0.1}, {"beta": -0.1}):
            with pytest.raises(ValueError, match="alpha and beta"):
                TrainerConfig(t1=0, t2=1, **scale)


class TestAugmentedCeLoss:
    def test_uniform_rows_give_log_c(self):
        z = Tensor(np.zeros((7, 10)))
        loss = augmented_ce_loss(z, np.zeros(7, dtype=int))
        assert loss.value == pytest.approx(np.log(10.0), abs=1e-12)

    def test_reduction_identity_equals_ce(self):
        rng = np.random.default_rng(9)
        w, b = rng.normal(size=(5, 4)), rng.normal(size=5)
        h = rng.normal(size=(6, 4))
        labels = rng.integers(0, 5, size=6)
        priors = np.full(5, 0.2)
        rho = quadratic_terms(Tensor(w), np.stack([np.eye(4)] * 5), labels)
        z = adjusted_logits(Tensor(w), Tensor(b), Tensor(h),
                            Tensor(np.zeros((6, 4))), rho, priors, 0.0, 0.0)
        loss = augmented_ce_loss(z, labels)
        ce = per_sample_ce(h @ w.T + b, labels).mean()
        assert loss.value == pytest.approx(ce, abs=1e-12)

    def test_la_identity(self):
        rng = np.random.default_rng(10)
        w, b = rng.normal(size=(4, 3)), rng.normal(size=4)
        h = rng.normal(size=(8, 3))
        labels = rng.integers(0, 4, size=8)
        priors = np.array([0.55, 0.25, 0.15, 0.05])
        z = adjusted_logits(Tensor(w), Tensor(b), Tensor(h), None, None,
                            priors, 0.0, 1.0)
        loss = augmented_ce_loss(z, labels)
        # side-by-side logit-adjustment baseline
        la = per_sample_ce(h @ w.T + b + np.log(priors), labels).mean()
        assert loss.value == pytest.approx(la, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        from advaug.classifier import init_classifier
        rng = np.random.default_rng(11)
        params = init_classifier(in_dim=4, num_classes=3, hidden=(6,),
                                 feat_dim=5, seed=11)
        x = rng.normal(size=(5, 4))
        labels = rng.integers(0, 3, size=5)
        priors = np.array([0.5, 0.3, 0.2])
        alpha, beta = 0.6, 1.0
        sig_vals = [a @ a.T / 5 for a in rng.normal(size=(3, 5, 5))]
        delta = 0.4 * np.sign(rng.normal(size=(5, 5)))
        tensors = [Tensor(a) for a in params.arrays()]

        def forward():
            h = extract_features(tensors, x)
            rho = quadratic_terms(tensors[-2], np.stack(sig_vals), labels)
            z = adjusted_logits(tensors[-2], tensors[-1], h,
                                Tensor(delta), rho, priors, alpha, beta)
            return augmented_ce_loss(z, labels)

        with Tape() as tape:
            loss = forward()
            grads = tape.gradient(loss, tensors)

        for t, g in zip(tensors, grads):
            def scalar(v, t=t):
                orig = t.value
                t.value = v
                out = float(forward().value)
                t.value = orig
                return out

            fd = fd_gradient(scalar, t.value.copy(), step=1e-5)
            denom = max(np.max(np.abs(fd)), 1e-12)
            assert np.max(np.abs(g.value - fd)) / denom < 1e-4


class TestWeightedSurrogateBound:
    def test_dominates_mc_estimate(self):
        from advaug.oracles import mc_expected_ce
        rng = np.random.default_rng(14)
        c, width = 3, 4
        w, b = rng.normal(size=(c, width)), rng.normal(size=c)
        h = rng.normal(size=(1, width))
        labels = np.array([1])
        a = rng.normal(size=(width, width))
        sigma = a @ a.T / width
        delta = 0.5 * np.sign(rng.normal(size=(1, width)))
        sigmas = np.stack([np.zeros_like(sigma), sigma, np.zeros_like(sigma)])
        ops = kernels.operands(w, labels, kernels.label_index(labels, c),
                               sigmas, np.zeros(c), 0.8)
        closed = kernels.surrogate([w, b], h, delta, ops).value
        mc, se = mc_expected_ce(w, b, h[0], delta[0], sigma, 0.8, 1,
                                count=20000, seed=99)
        assert closed + 1e-12 >= mc - 3 * se


class TestRegularizerTerms:
    """The split of the surrogate that an epoch row logs,
    `training._regularizer_row`, on the state's last batch."""

    def make_state(self, seed, counts=(4, 3, 2, 1), alpha=0.7, beta=0.9):
        """Identity extractor, random head and PSD class covariances; the
        last batch is six of the rows with random gradient signs."""
        rng = np.random.default_rng(seed)
        c, width = len(counts), 3
        labels = np.repeat(np.arange(c), counts)
        ds = Dataset(features=rng.normal(size=(labels.size, width)),
                     labels=labels, num_classes=c)
        cfg = TrainerConfig(t1=0, t2=1, alpha=alpha, beta=beta, hidden=(),
                            feat_dim=width, seed=seed)
        state = init_state(cfg, ds, ds)
        state.params.load_values([rng.normal(size=(c, width)),
                                  rng.normal(size=c)])
        update_covariance(state.stats, ds.features, labels)
        a = rng.normal(size=(c, width, width))
        state.stats.scatter[...] = a @ a.transpose(0, 2, 1) / width
        ids = rng.choice(labels.size, size=6, replace=False)
        # _regularizer_row reads the view's ids, labels and gradient only
        state.last_view = BatchView(
            ids=ids, h=None, logits=None, q=None, lse=None,
            labels=labels[ids], label_index=None,
            grad_h=rng.normal(size=(6, width)),
            progress=0.0)
        return state

    def test_zero_delta_zero_robustness(self):
        state = self.make_state(15)
        row = _regularizer_row(state, np.zeros(state.dataset.n))
        assert row["rob_term"] == 0.0

    def test_balanced_priors_zero_fairness(self):
        state = self.make_state(15, counts=(3, 3, 3, 3))
        eps = np.random.default_rng(15).uniform(-0.9, 0.9, state.dataset.n)
        row = _regularizer_row(state, eps)
        assert row["fair_term"] == pytest.approx(0.0, abs=1e-12)

    def test_psd_sigma_nonnegative_generalization(self):
        rng = np.random.default_rng(16)
        state = self.make_state(16, counts=(2, 2, 2))
        c, width = state.params.head_w.shape
        for _ in range(1000):
            state.params.head_w[...] = rng.normal(size=(c, width))
            a = rng.normal(size=(width, width))
            state.stats.scatter[...] = a @ a.T / width
            eps = rng.uniform(-0.9, 0.9, state.dataset.n)
            assert _regularizer_row(state, eps)["gen_term"] >= -1e-12

    def test_matches_scalar_oracle(self):
        state = self.make_state(17)
        eps = np.random.default_rng(17).uniform(-0.9, 0.9, state.dataset.n)
        row = _regularizer_row(state, eps)
        alpha, beta = state.config.alpha, state.config.beta
        w, b = state.params.arrays()
        sigmas, priors = state.stats.covariances(), state.priors
        view = state.last_view
        gen = rob = fair = 0.0
        for i, k in enumerate(view.ids):
            y = state.dataset.labels[k]
            delta = eps[k] * np.sign(view.grad_h[i])
            rho = [0.5 * (w[j] - w[y]) @ sigmas[y] @ (w[j] - w[y])
                   for j in range(len(b))]
            z = np.array([w[j] @ (state.dataset.features[k] + delta) + b[j]
                          + alpha * rho[j] + beta * np.log(priors[j])
                          for j in range(len(b))])
            q = np.exp(z - z.max())
            q /= q.sum()
            for j in range(len(b)):
                if j == y:
                    continue
                gen += q[j] * rho[j]
                rob += q[j] * (w[j] - w[y]) @ delta
                fair += q[j] * np.log(priors[j] / priors[y])
        assert row["gen_term"] == pytest.approx(alpha * gen, rel=1e-12)
        assert row["rob_term"] == pytest.approx(rob, rel=1e-12)
        assert row["fair_term"] == pytest.approx(beta * fair, rel=1e-10)
