"""Meta-trainer tests: step contracts, hypergradient oracles, trajectories."""

import copy
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import advaug.autodiff
from advaug.characteristics import BatchView, History, extract
from advaug.classifier import ce_grad_wrt_features, flatten
from advaug.config import parse_config
from advaug.data import BlobGeometry, Dataset, make_balanced, make_longtail
from advaug import kernels, training
from advaug.scenarios import build_scenario
from advaug.stats import class_priors, project_psd
from advaug.training import (
    Adam,
    MetaState,
    MomentumSgd,
    NumericalAbort,
    TrainerConfig,
    _observe_batch,
    final_step,
    full_train_eps,
    init_state,
    learning_rate,
    lookahead_meta_loss,
    meta_iteration,
    sample_train_batch,
    train,
    warmup_step,
)
from advaug.verification import hypergradient_suite

RANGE = 1.0 - 1e-9  # perturbation net output scale


def tiny_setup(alpha=0.5, beta=1.0, eta1=0.05, eta2=1e-3, freeze_eps=False,
               seed=0, randomize_omega=True, diagonal_sigma=False):
    """2-class, 2-feature, identity-extractor instance with 4+4 points."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(4, 2))
    y = np.array([0, 1, 0, 1])
    ds = Dataset(features=x, labels=y, class_counts=np.array([2, 2]))
    mx = rng.normal(size=(4, 2))
    my = np.array([0, 0, 1, 1])
    md = Dataset(features=mx, labels=my, class_counts=np.array([2, 2]))
    cfg = TrainerConfig(t1=0, t2=10, eta1=eta1, eta2=eta2, alpha=alpha,
                        beta=beta, batch_train=4, batch_meta=4, hidden=(),
                        feat_dim=2, perturb_hidden=4, freeze_eps=freeze_eps,
                        diagonal_sigma=diagonal_sigma, seed=seed)
    state = init_state(cfg, ds, md)
    state.t = 1
    if randomize_omega:
        state.perturb.load_values(
            [rng.normal(scale=0.3, size=a.shape)
             for a in state.perturb.arrays()])
    return state


def set_sigma_step(monkeypatch, sigma, grad):
    """Make the lookahead of a meta iteration hand its Sigma step `sigma`
    and `grad`, and no perturbation-net gradient. The covariances the
    lookahead saw are appended to the returned list."""
    seen = []

    def lookahead(state, obs, meta_idx):
        seen.append(state.stats.covariances())
        start = seen[-1] if sigma is None else sigma
        return training.Lookahead(0.0, state.params.arrays(), None,
                                  grad(start), start)

    monkeypatch.setattr(training, "lookahead_meta_loss", lookahead)
    return seen


def observe_and_look_ahead(state, idx=np.arange(4)):
    """The first two stages of a meta iteration, on one shared batch."""
    return lookahead_meta_loss(state, _observe_batch(state, idx), idx)


class TestConfig:
    def test_rejects_bad_schedule(self):
        with pytest.raises(ValueError):
            TrainerConfig(t1=5, t2=4)
        with pytest.raises(ValueError):
            TrainerConfig(t1=-1, t2=4)
        with pytest.raises(ValueError):
            TrainerConfig(t1=0, t2=0)

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            TrainerConfig(t1=0, t2=1, eta1=-0.1)
        with pytest.raises(ValueError):
            TrainerConfig(t1=0, t2=1, momentum=1.0)
        with pytest.raises(ValueError):
            TrainerConfig(t1=0, t2=1, alpha=-0.5)

    def test_degenerate_equal_horizons_allowed(self):
        TrainerConfig(t1=7, t2=7)

    def test_learning_rate_decay_schedule(self):
        cfg = TrainerConfig(t1=0, t2=100, eta1=0.05)
        assert learning_rate(cfg, 1) == 0.05
        assert learning_rate(cfg, 79) == 0.05
        assert learning_rate(cfg, 80) == pytest.approx(0.05 * 0.01)
        assert learning_rate(cfg, 89) == pytest.approx(0.05 * 0.01)
        assert learning_rate(cfg, 90) == pytest.approx(0.05 * 0.01 ** 2)
        assert learning_rate(cfg, 100) == pytest.approx(0.05 * 0.01 ** 2)


class TestOptimizers:
    def test_momentum_sgd_two_steps(self):
        p = np.array([1.0, -2.0])
        opt = MomentumSgd(p, momentum=0.5, weight_decay=0.1)
        g1 = np.array([0.2, 0.4])
        v1 = g1 + 0.1 * np.array([1.0, -2.0])
        expect1 = np.array([1.0, -2.0]) - 0.1 * v1
        opt.step(g1, lr=0.1)
        np.testing.assert_allclose(p, expect1, rtol=0, atol=1e-15)
        g2 = np.array([-0.3, 0.1])
        v2 = 0.5 * v1 + g2 + 0.1 * expect1
        expect2 = expect1 - 0.1 * v2
        opt.step(g2, lr=0.1)
        np.testing.assert_allclose(p, expect2, rtol=0, atol=1e-15)

    def test_adam_first_step_is_signed_lr(self):
        # With bias correction the first Adam step is lr * g/(|g| + eps')
        p = np.array([0.0, 0.0, 0.0])
        opt = Adam(p, lr=1e-2)
        opt.step(np.array([0.5, -3.0, 0.0]))
        np.testing.assert_allclose(p[:2], [-1e-2, 1e-2], rtol=1e-6)
        assert p[2] == 0.0

    def test_steps_keep_the_bits_of_the_plain_expressions(self):
        rng = np.random.default_rng(12)
        size = 30
        start = rng.normal(size=size)
        sgd = MomentumSgd(start.copy(), momentum=0.9, weight_decay=5e-4)
        adam = Adam(start.copy(), lr=1e-3)
        p_ref, velocity = start.copy(), np.zeros(size)
        q_ref, m, v = start.copy(), np.zeros(size), np.zeros(size)
        for t in range(1, 51):
            grad = (rng.normal(size=size)
                    * 10.0 ** rng.integers(-6, 7, size=size))
            grad[rng.random(size) < 0.2] = 0.0
            if t % 7 == 0:
                grad[:4] = [1e150, -1e150, 0.0, -0.0]
            if t == 25:
                grad[:] = 0.0
            lr = 0.05 if t < 40 else 5e-4
            sgd.step(grad, lr)
            adam.step(grad)
            velocity *= 0.9
            velocity += grad + 5e-4 * p_ref
            p_ref -= lr * velocity
            c1, c2 = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
            m *= 0.9
            m += (1.0 - 0.9) * grad
            v *= 0.999
            v += (1.0 - 0.999) * np.square(grad)
            q_ref -= 1e-3 * (m / c1) / (np.sqrt(v / c2) + 1e-8)
            for ours, ref in [(sgd.params, p_ref), (sgd.velocity, velocity),
                              (adam.params, q_ref), (adam.m, m),
                              (adam.v, v)]:
                assert ours.tobytes() == ref.tobytes()
        assert np.abs(adam.v).max() > 1e297  # the squared 1e150 entries

    def test_adam_zero_lr_freezes(self):
        p = np.array([1.0, 2.0])
        opt = Adam(p, lr=0.0)
        opt.step(np.array([5.0, -1.0]))
        np.testing.assert_array_equal(p, [1.0, 2.0])


class TestWarmup:
    def test_hand_computed_first_step(self):
        state = tiny_setup(randomize_omega=False)
        cfg = state.config
        w0 = state.params.head_w.copy()
        b0 = state.params.arrays()[-1].copy()
        x = state.dataset.features
        y = state.dataset.labels

        z = x @ w0.T + b0
        q = np.exp(z - z.max(axis=1, keepdims=True))
        q /= q.sum(axis=1, keepdims=True)
        g = q.copy()
        g[np.arange(4), y] -= 1.0
        g /= 4.0
        dw = g.T @ x
        db = g.sum(axis=0)

        warmup_step(state, np.arange(4))
        lr = cfg.eta1
        np.testing.assert_allclose(
            state.params.head_w,
            w0 - lr * (dw + cfg.weight_decay * w0), rtol=0, atol=1e-14)
        np.testing.assert_allclose(
            state.params.arrays()[-1],
            b0 - lr * (db + cfg.weight_decay * b0), rtol=0, atol=1e-14)

    def test_nonfinite_loss_aborts(self):
        state = tiny_setup()
        state.params.arrays()[-1][:] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(NumericalAbort):
            warmup_step(state, np.arange(4))


class TestLookahead:
    def test_zero_eta1_keeps_params(self):
        state = tiny_setup(eta1=0.0)
        ahead = observe_and_look_ahead(state)
        for pseudo, p in zip(ahead.pseudo_params, state.params.arrays()):
            np.testing.assert_array_equal(pseudo, p)

    def test_matches_scripted_symbolic_gradient(self):
        state = tiny_setup(alpha=0.7, beta=1.0, eta1=0.05)
        cfg = state.config
        x = state.dataset.features
        y = state.dataset.labels
        priors = state.priors

        obs = _observe_batch(state, np.arange(4))
        ahead = lookahead_meta_loss(state, obs, np.arange(4))
        f, grad_h = obs.characteristics, obs.view.grad_h

        # Independent scripted computation with explicit loops.
        ov = state.perturb.arrays()
        pre = f @ ov[0] + ov[1]
        eps = RANGE * np.tanh(np.maximum(pre, 0.0) @ ov[2] + ov[3])
        delta = eps * np.sign(grad_h)
        w = state.params.head_w
        b = state.params.arrays()[-1]
        sigmas = state.stats.covariances()
        n, C = 4, 2
        rho = np.zeros((n, C))
        for i in range(n):
            for j in range(C):
                d = w[j] - w[y[i]]
                rho[i, j] = 0.5 * d @ sigmas[y[i]] @ d
        z = (x + delta) @ w.T + b + cfg.alpha * rho + cfg.beta * np.log(priors)
        q = np.exp(z - z.max(axis=1, keepdims=True))
        q /= q.sum(axis=1, keepdims=True)
        gz = q.copy()
        gz[np.arange(n), y] -= 1.0
        gz /= n
        db = gz.sum(axis=0)
        dw = gz.T @ (x + delta)
        for i in range(n):
            for jp in range(C):
                sd = sigmas[y[i]] @ (w[jp] - w[y[i]])
                dw[jp] += cfg.alpha * gz[i, jp] * sd
                dw[y[i]] -= cfg.alpha * gz[i, jp] * sd

        expect_w = w - cfg.eta1 * dw
        expect_b = b - cfg.eta1 * db
        np.testing.assert_allclose(ahead.pseudo_params[0], expect_w,
                                   rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(ahead.pseudo_params[1], expect_b,
                                   rtol=1e-10, atol=1e-12)

    def test_frozen_eps_builds_no_perturbation(self):
        state = tiny_setup(freeze_eps=True)
        assert observe_and_look_ahead(state).omega_grads is None


class TestHypergradients:
    @staticmethod
    def fd_record():
        # Same instance as tiny_setup(alpha=0.6, seed=3).
        record = hypergradient_suite(seed=3)
        # FD needs smooth relu inputs: assert the seed stays off the kink
        assert record["kink_margin"] > 1e-3
        return record

    def test_omega_hypergradient_matches_fd(self):
        record = self.fd_record()
        assert record["worst_omega"] < 1e-3, record["detail"]

    def test_sigma_hypergradient_matches_fd(self):
        record = self.fd_record()
        assert record["worst_sigma"] < 1e-3, record["detail"]

    @pytest.mark.parametrize("overrides", [
        {}, {"diagonal_sigma": True}, {"freeze_eps": True}],
        ids=["defaults", "diagonal_sigma", "freeze_eps"])
    def test_hidden_layer_hypergradient_matches_fd(self, overrides):
        # A ReLU layer in the extractor: the JVP through it reaches s.
        record = hypergradient_suite(seed=2, hidden=(4,), **overrides)
        assert record["kink_margin"] > 1e-3
        assert record["worst_omega"] < 1e-3, record["detail"]
        assert record["worst_sigma"] < 1e-3, record["detail"]

    def test_alpha_zero_gives_exactly_zero_sigma_gradient(self):
        state = tiny_setup(alpha=0.0, seed=5)
        grad = observe_and_look_ahead(state).sigma_grad
        np.testing.assert_array_equal(grad, np.zeros_like(grad))


class TestMetaUpdates:
    def test_zero_eta2_keeps_omega(self):
        state = tiny_setup(eta2=0.0)
        before = [a.copy() for a in state.perturb.arrays()]
        meta_iteration(state, np.arange(4), np.arange(4))
        for b, a in zip(before, state.perturb.arrays()):
            np.testing.assert_array_equal(b, a)

    def test_meta_updates_move_parameters(self):
        state = tiny_setup(alpha=0.6, seed=7)
        omega_before = [a.copy() for a in state.perturb.arrays()]
        observed = copy.deepcopy(state)
        _observe_batch(observed, np.arange(4))
        meta_iteration(state, np.arange(4), np.arange(4))
        assert any(not np.array_equal(b, a) for b, a in
                   zip(omega_before, state.perturb.arrays()))
        moved = [not np.allclose(observed.stats.covariances()[c],
                                 state.stats.covariances()[c], atol=1e-16)
                 for c in range(2)]
        assert any(moved)

    def test_sigma_step_direction_and_projection(self):
        state = tiny_setup(alpha=0.6, seed=9)
        ahead = observe_and_look_ahead(copy.deepcopy(state))
        expected = []
        for c in range(2):
            cand = (ahead.sigma[c]
                    - state.config.eta2 * ahead.sigma_grad[c])
            cand = 0.5 * (cand + cand.T)
            vals, vecs = np.linalg.eigh(cand)
            proj = (vecs * np.maximum(vals, 0.0)) @ vecs.T
            expected.append(0.5 * (proj + proj.T))
        meta_iteration(state, np.arange(4), np.arange(4))
        for c in range(2):
            np.testing.assert_allclose(state.stats.covariances()[c],
                                       expected[c],
                                       rtol=1e-12, atol=1e-14)

    def test_unseen_class_gains_no_phantom_sample(self):
        # Class 2 is absent from the first batch of a run with t1 = 0: its
        # covariance has no estimate and the meta update must leave it so.
        rng = np.random.default_rng(0)
        ds = Dataset(features=rng.normal(size=(6, 2)),
                     labels=np.array([0, 1, 0, 1, 0, 2]),
                     class_counts=np.array([3, 2, 1]))
        md = Dataset(features=rng.normal(size=(3, 2)),
                     labels=np.array([0, 1, 2]), class_counts=np.ones(3, int))
        cfg = TrainerConfig(t1=0, t2=10, alpha=0.6, batch_train=4,
                            batch_meta=3, hidden=(), feat_dim=2,
                            perturb_hidden=4, seed=0)
        state = init_state(cfg, ds, md)
        state.t = 1
        meta_iteration(state, np.arange(4), np.arange(3))
        np.testing.assert_array_equal(state.stats.counts, [2, 2, 0])
        np.testing.assert_array_equal(state.stats.means[2], [0.0, 0.0])
        # The class's first real batch then sets its moments exactly.
        meta_iteration(state, np.array([5]), np.arange(3))
        assert state.stats.counts[2] == 1
        np.testing.assert_array_equal(state.stats.means[2], ds.features[5])

    def test_class_absent_from_batch_keeps_its_covariance(self, monkeypatch):
        # No rho row of a batch without class 2 reads Sigma_2, so its
        # hypergradient is zero: it takes no step and no PSD projection.
        rng = np.random.default_rng(1)
        ds = Dataset(features=rng.normal(size=(6, 2)),
                     labels=np.array([0, 1, 2, 0, 1, 2]),
                     class_counts=np.array([2, 2, 2]))
        md = Dataset(features=rng.normal(size=(3, 2)),
                     labels=np.array([0, 1, 2]), class_counts=np.ones(3, int))
        cfg = TrainerConfig(t1=0, t2=10, alpha=0.6, batch_train=6,
                            batch_meta=3, hidden=(), feat_dim=2,
                            perturb_hidden=4, seed=0)
        state = init_state(cfg, ds, md)
        state.t = 1
        meta_iteration(state, np.arange(6), np.arange(3))
        before = state.stats.covariances()[2]
        projected = []
        monkeypatch.setattr(training, "project_psd",
                            lambda s: projected.append(s) or project_psd(s))
        meta_iteration(state, np.array([0, 1, 3, 4]), np.arange(3))
        # one call on the stack of the two present classes
        assert [s.shape for s in projected] == [(2, 2, 2)]
        np.testing.assert_array_equal(state.stats.covariances()[2], before)


    def test_diagonal_step_equals_dense_projected_step(self, monkeypatch):
        # On a diagonal hypergradient the dense step (eigh projection) and
        # the diagonal step (clamp at zero) must agree, clamping included.
        variances = np.array([[0.4, 0.7], [0.9, 0.25]])
        grad = np.array([[2e3, -1e3], [5e2, 1.5e3]])  # eta2 = 1e-3: two clamp
        stepped = {}
        for diagonal in (False, True):
            state = tiny_setup(alpha=0.6, seed=9, diagonal_sigma=diagonal)
            expand = (lambda r: r) if diagonal else np.diag
            set_sigma_step(monkeypatch,
                           np.stack([expand(r) for r in variances]),
                           lambda s: np.stack([expand(r) for r in grad]))
            meta_iteration(state, np.arange(4), np.arange(4))
            stepped[diagonal] = state.stats.covariances()
        dense = stepped[False]
        np.testing.assert_allclose(
            stepped[True], np.diagonal(dense, axis1=1, axis2=2),
            rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(dense, [np.diag(np.diag(d)) for d in dense],
                                   rtol=0, atol=1e-15)
        assert stepped[True].tolist() == [[0.0, 1.7], [0.4, 0.0]]

    @pytest.mark.parametrize("diagonal", [False, True],
                             ids=["full", "diagonal"])
    def test_overflowing_candidate_is_reported_and_skipped(self, monkeypatch,
                                                           diagonal):
        # A finite hypergradient whose step overflows: the candidate holds
        # -inf, which a clamp at zero would hide. The class keeps its
        # covariance and the event names it; class 1 still steps.
        state = tiny_setup(alpha=0.6, seed=9, eta2=2.0,
                           diagonal_sigma=diagonal)

        def grad(sigma):
            g = np.zeros_like(sigma)
            g[0] = np.finfo(np.float64).max
            g[1] = 1e-3
            return g

        seen = set_sigma_step(monkeypatch, None, grad)
        with np.errstate(over="ignore"):
            meta_iteration(state, np.arange(4), np.arange(4))
        after = state.stats.covariances()
        assert after[0].tobytes() == seen[0][0].tobytes()
        assert not np.array_equal(after[1], seen[0][1])
        assert len(state.events) == 1
        assert state.events[0].startswith(
            "iteration 1: covariance projection failed for class 0 (")
        assert state.events[0].endswith("keeping previous value")

    @pytest.mark.parametrize("diagonal", [False, True],
                             ids=["full", "diagonal"])
    def test_failed_classes_keep_their_covariance_in_class_order(
            self, monkeypatch, diagonal):
        # One batch, three classes: class 0 gets a non-finite
        # hypergradient, class 1 a finite one whose candidate overflows,
        # class 2 an ordinary one with a variance driven below zero.
        rng = np.random.default_rng(4)
        ds = Dataset(features=rng.normal(size=(6, 2)),
                     labels=np.array([2, 1, 0, 2, 1, 0]),
                     class_counts=np.array([2, 2, 2]))
        md = Dataset(features=rng.normal(size=(3, 2)),
                     labels=np.array([0, 1, 2]), class_counts=np.ones(3, int))
        cfg = TrainerConfig(t1=0, t2=10, eta2=2.0, alpha=0.6, batch_train=6,
                            batch_meta=3, hidden=(), feat_dim=2,
                            perturb_hidden=4, diagonal_sigma=diagonal, seed=0)
        state = init_state(cfg, ds, md)
        state.t = 1
        ordinary = np.array([1e3, -0.25])
        if not diagonal:
            ordinary = np.array([[1e3, 0.1], [0.1, -0.25]])

        def grad(sigma):
            g = np.zeros_like(sigma)
            g[0] = np.nan
            g[1] = np.finfo(np.float64).max
            g[2] = ordinary
            return g

        seen = set_sigma_step(monkeypatch, None, grad)
        with np.errstate(over="ignore", invalid="ignore"):
            meta_iteration(state, np.arange(6), np.arange(3))
        project = "project_diagonal" if diagonal else "project_psd"
        assert state.events == [
            "iteration 1: non-finite covariance hypergradient for class 0, "
            "update skipped",
            f"iteration 1: covariance projection failed for class 1 "
            f"({project}: non-finite input), keeping previous value",
        ]
        after, start = state.stats.covariances(), seen[0]
        assert after[0].tobytes() == start[0].tobytes()
        assert after[1].tobytes() == start[1].tobytes()
        candidate = start[2] - 2.0 * ordinary
        clamped = (np.maximum(candidate, 0.0) if diagonal
                   else project_psd(candidate))
        assert (clamped == 0.0).any() if diagonal else (
            np.linalg.eigvalsh(candidate).min() < 0.0)
        # Sigma_c is stored as n_c Sigma_c; n_c = 2 scales exactly.
        assert after[2].tobytes() == clamped.tobytes()
        np.testing.assert_array_equal(state.stats.counts, [2, 2, 2])

    def test_failed_eigendecomposition_keeps_every_class(self, monkeypatch):
        # The stack is projected in one eigh: when it fails on class 1's
        # matrix, class 0 keeps its covariance too, every class gets its
        # own event, and the final step still runs.
        state = tiny_setup(alpha=0.6, seed=9)

        def grad(sigma):
            g = np.full_like(sigma, 1e-3)
            g[1, 0, 0] = -1e6  # eta2 = 1e-3: class 1's Sigma_00 grows by 1e3
            return g

        seen = set_sigma_step(monkeypatch, None, grad)
        eigh = np.linalg.eigh

        def failing_eigh(a):
            if np.any(a[..., 0, 0] > 100.0):
                raise np.linalg.LinAlgError("eigh did not converge")
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        before = state.params.vector.copy()
        meta_iteration(state, np.arange(4), np.arange(4))
        after = state.stats.covariances()
        assert [a.tobytes() for a in after] == [s.tobytes() for s in seen[0]]
        assert state.events == [
            f"iteration 1: covariance projection failed for class {c} "
            "(eigh did not converge), keeping previous value" for c in (0, 1)]
        np.testing.assert_array_equal(state.stats.counts, [2, 2])
        assert not np.array_equal(state.params.vector, before)


class TestIterationInvariants:
    def test_sigma_step_projects_once_per_iteration_on_the_longtail_preset(
            self, monkeypatch):
        cfg = parse_config(str(CONFIG_DIR / "longtail.ini"))
        data = build_scenario(cfg)
        config = cfg.trainer
        assert config.diagonal_sigma
        state = init_state(config, data.train, data.meta)
        for t in range(1, config.t1 + 3):
            state.t = t
            batch = sample_train_batch(state)
            if t <= config.t1:
                warmup_step(state, batch)
            else:
                meta_iteration(state, batch, training.sample_meta_batch(state))
        calls = []

        def counting(variances):
            calls.append(len(variances))
            return project(variances)

        project = training.project_diagonal
        monkeypatch.setattr(training, "project_diagonal", counting)
        for t in range(config.t1 + 3, config.t1 + 23):
            state.t = t
            meta_iteration(state, sample_train_batch(state),
                           training.sample_meta_batch(state))
        assert len(calls) == 20 and min(calls) >= 1
        assert state.events == []

    def test_head_differences_built_twice_per_meta_iteration(self,
                                                             monkeypatch):
        # Once for W in the observation, once for the meta gradient's W in
        # the hypergradient; the warm-up step builds none.
        built = []
        differences = kernels.differences
        monkeypatch.setattr(kernels, "differences",
                            lambda u: built.append(u) or differences(u))
        state = tiny_setup(alpha=0.6, seed=7)
        warmup_step(state, np.arange(4))
        assert built == []
        meta_iteration(state, np.arange(4), np.arange(4))
        assert len(built) == 2
        meta_iteration(state, np.arange(4), np.arange(4))
        assert len(built) == 4


class TestFinalStep:
    def test_equals_pseudo_direction_without_momentum_and_decay(self):
        state = tiny_setup()
        state.config.momentum = 0.0
        state.config.weight_decay = 0.0
        state.sgd = MomentumSgd(state.params.vector, 0.0, 0.0)
        obs = _observe_batch(state, np.arange(4))
        ahead = lookahead_meta_loss(state, obs, np.arange(4))
        final_step(state, obs)
        for pseudo, p in zip(ahead.pseudo_params, state.params.arrays()):
            np.testing.assert_array_equal(pseudo, p)

    def test_uses_refreshed_omega(self):
        # After a meta update the final step must differ from the lookahead.
        state = tiny_setup(alpha=0.6, seed=13)
        state.config.momentum = 0.0
        state.config.weight_decay = 0.0
        state.sgd = MomentumSgd(state.params.vector, 0.0, 0.0)
        ahead = observe_and_look_ahead(copy.deepcopy(state))
        meta_iteration(state, np.arange(4), np.arange(4))
        diffs = [np.abs(pseudo - p).max()
                 for pseudo, p in zip(ahead.pseudo_params,
                                      state.params.arrays())]
        assert max(diffs) > 0


def reference_la_trajectory(cfg, ds, md):
    """Warm-up CE then logit-adjusted CE, same optimizer and batch stream."""
    state = init_state(cfg, ds, md)
    log_pi = np.log(class_priors(ds.class_counts))
    for t in range(1, cfg.t2 + 1):
        state.t = t
        idx = sample_train_batch(state)
        phi = state.params.arrays()
        offset = cfg.beta * log_pi if t > cfg.t1 else None
        ce = kernels.cross_entropy(phi, ds.features[idx], ds.labels[idx],
                                   offset=offset)
        state.sgd.step(flatten(ce.grads), learning_rate(cfg, t))
    return state.params


class TestTrajectories:
    def make_problem(self):
        geom = BlobGeometry()
        ds = make_longtail(seed=3, num_classes=3, n_max=30,
                           imbalance_ratio=5, dim=3, geometry=geom)
        meta = make_balanced(seed=7, num_classes=3, per_class=4, dim=3,
                             geometry=geom)
        return ds, meta

    def test_frozen_eps_alpha_zero_matches_logit_adjusted_sgd(self):
        ds, md = self.make_problem()
        cfg = TrainerConfig(t1=4, t2=12, alpha=0.0, beta=1.0,
                            freeze_eps=True, batch_train=8, batch_meta=4,
                            hidden=(8,), feat_dim=4, perturb_hidden=6,
                            seed=11)
        state, _ = train(cfg, ds, md)
        ref = reference_la_trajectory(cfg, ds, md)
        for ours, theirs in zip(state.params.arrays(), ref.arrays()):
            np.testing.assert_array_equal(ours, theirs)

    def test_degenerate_horizon_is_pure_warmup(self):
        ds, md = self.make_problem()
        cfg = TrainerConfig(t1=10, t2=10, batch_train=8, batch_meta=4,
                            hidden=(8,), feat_dim=4, perturb_hidden=6,
                            seed=2)
        state, log = train(cfg, ds, md)
        assert all(row["phase"] == "warmup" for row in log.rows)
        assert not log.events
        # No meta machinery ran: the perturbation net still outputs +0.0
        assert len(log.rows) > 1
        columns = [f"{name}_{c}" for name in ("mean_eps", "adv_ratio")
                   for c in range(3)]
        values = np.array([[row[k] for k in columns] for row in log.rows])
        assert (values == 0.0).all() and not np.signbit(values).any()

    def train_refusing_characteristics(self, monkeypatch, cfg):
        """Train with `extract` and `update_history` raising; return the
        log, after checking that it holds every epoch row."""
        def refuse(*args):
            raise AssertionError("characteristics built")

        monkeypatch.setattr(training, "extract", refuse)
        monkeypatch.setattr(training, "update_history", refuse)
        ds, md = self.make_problem()
        _, log = train(cfg, ds, md)
        every = max(1, round(ds.n / cfg.batch_train))
        ends = [t for t in range(1, cfg.t2 + 1)
                if t % every == 0 or t == cfg.t2]
        assert len(ends) > 2
        assert [row["iteration"] for row in log.rows] == ends
        return log

    def test_no_meta_iteration_builds_no_characteristics(self,
                                                         monkeypatch):
        # Nothing in a t1 = t2 run reads the characteristics or the history.
        self.train_refusing_characteristics(monkeypatch, TrainerConfig(
            t1=20, t2=20, batch_train=8, batch_meta=4, hidden=(8,),
            feat_dim=4, perturb_hidden=6, seed=2))

    def test_frozen_eps_builds_no_characteristics(self, monkeypatch):
        # With frozen perturbations the surrogate skips the net and the
        # epoch rows' eps pass returns zeros: nothing reads the history.
        log = self.train_refusing_characteristics(monkeypatch, TrainerConfig(
            t1=4, t2=20, freeze_eps=True, batch_train=8, batch_meta=4,
            hidden=(8,), feat_dim=4, perturb_hidden=6, seed=2))
        assert log.rows[-1]["phase"] == "meta"

    def test_warmup_of_a_meta_run_feeds_the_history(self, monkeypatch):
        # The meta phase reads the EMAs and the normalization statistics,
        # so each warm-up step of a run with t1 < t2 folds its batch in.
        ds, md = self.make_problem()
        cfg = TrainerConfig(t1=6, t2=9, batch_train=8, batch_meta=4,
                            hidden=(8,), feat_dim=4, perturb_hidden=6,
                            seed=3)
        draw, batches, after_warmup = training.sample_train_batch, [], []

        def recording(state):
            if state.t == cfg.t1 + 1:
                after_warmup.append(copy.deepcopy(state.history))
            batches.append(draw(state))
            return batches[-1]

        monkeypatch.setattr(training, "sample_train_batch", recording)
        train(cfg, ds, md)
        history, = after_warmup
        assert history.norm_count == cfg.t1
        expected = np.zeros(ds.n, dtype=bool)
        expected[np.concatenate(batches[:cfg.t1])] = True
        assert not expected.all()
        assert (history.seen == expected).all()

    def test_training_is_reproducible(self):
        ds, md = self.make_problem()
        test = make_balanced(seed=20, num_classes=3, per_class=20, dim=3,
                             geometry=BlobGeometry())
        cfg = TrainerConfig(t1=3, t2=9, batch_train=8, batch_meta=4,
                            hidden=(8,), feat_dim=4, perturb_hidden=6,
                            seed=4)
        state1, log1 = train(cfg, ds, md, eval_data=test)
        state2, log2 = train(cfg, ds, md, eval_data=test)
        assert log1.rows == log2.rows
        for a, b in zip(state1.params.arrays(), state2.params.arrays()):
            np.testing.assert_array_equal(a, b)

    def test_metrics_rows_have_expected_shape(self):
        ds, md = self.make_problem()
        test = make_balanced(seed=21, num_classes=3, per_class=10, dim=3,
                             geometry=BlobGeometry())
        cfg = TrainerConfig(t1=2, t2=8, batch_train=16, batch_meta=4,
                            hidden=(8,), feat_dim=4, perturb_hidden=6,
                            seed=6)
        state, log = train(cfg, ds, md, eval_data=test)
        assert log.rows
        for row in log.rows:
            assert set(row) == set(log.columns)
            assert row["phase"] in ("warmup", "meta")
            assert np.isfinite(row["train_loss"])
            assert np.isfinite(row["test_accuracy"])
        iters = [row["iteration"] for row in log.rows]
        assert iters == sorted(iters)
        assert iters[-1] == cfg.t2

    def test_normalize_runs_once_per_meta_iteration_and_epoch_block(
            self, monkeypatch):
        # A warm-up step reads no characteristics, so it normalizes none; a
        # meta iteration normalizes its batch once. An epoch row of the
        # warm-up, where the net still outputs zero, normalizes none, and
        # one of the meta phase each row block of the training set once.
        monkeypatch.setattr(kernels, "BLOCK_ROWS", 8)
        stage, calls = ["train"], []
        normalize = History.normalize

        def counting(self, raw):
            calls.append((stage[-1], raw.shape[0]))
            return normalize(self, raw)

        def staged(name):
            run = getattr(training, name)

            def wrapper(*args):
                stage.append(name)
                try:
                    return run(*args)
                finally:
                    stage.pop()
            return wrapper

        monkeypatch.setattr(History, "normalize", counting)
        for name in ("warmup_step", "meta_iteration", "_epoch_row"):
            monkeypatch.setattr(training, name, staged(name))
        ds, md = self.make_problem()
        cfg = TrainerConfig(t1=6, t2=14, batch_train=8, batch_meta=4,
                            hidden=(8,), feat_dim=4, perturb_hidden=6,
                            seed=9)
        state, log = train(cfg, ds, md)
        blocks = [b.stop - b.start for b in kernels.row_blocks(ds.n)]
        assert len(blocks) > 1
        assert {row["phase"] for row in log.rows} == {"warmup", "meta"}
        assert (sum(stage == "meta_iteration" for stage, _ in calls)
                == cfg.t2 - cfg.t1)
        meta_rows = sum(row["phase"] == "meta" for row in log.rows)
        assert 0 < meta_rows < len(log.rows)
        assert ([rows for stage, rows in calls if stage == "_epoch_row"]
                == blocks * meta_rows)
        assert {stage for stage, _ in calls} == {"meta_iteration",
                                                 "_epoch_row"}
        # the cached scale travels with a copy of the state
        raw = training.full_train_characteristics(state)
        clone = copy.deepcopy(state)
        assert not np.all(clone.history.norm_scale == 1.0)
        assert (clone.history.normalize(raw).tobytes()
                == state.history.normalize(raw).tobytes())

    def test_training_records_no_tape_op(self, monkeypatch):
        # Warm-up, meta iterations, epoch rows and evaluation all run on
        # the kernels: recording any tape op fails the run.
        def refuse(op, *args):
            raise AssertionError(f"tape op {op!r} recorded in training")

        monkeypatch.setattr(advaug.autodiff, "_record", refuse)
        ds, md = self.make_problem()
        test = make_balanced(seed=22, num_classes=3, per_class=10, dim=3,
                             geometry=BlobGeometry())
        cfg = TrainerConfig(t1=3, t2=8, batch_train=16, batch_meta=4,
                            hidden=(8,), feat_dim=4, perturb_hidden=6,
                            seed=6)
        _, log = train(cfg, ds, md, eval_data=test)
        assert {row["phase"] for row in log.rows} == {"warmup", "meta"}
        assert all(np.isfinite(row["test_accuracy"]) for row in log.rows)

    def test_diagonal_training_runs_no_eigendecomposition(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigh called in diagonal mode")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        ds, md = self.make_problem()
        cfg = TrainerConfig(t1=3, t2=8, batch_train=16, batch_meta=4,
                            hidden=(8,), feat_dim=4, perturb_hidden=6,
                            diagonal_sigma=True, seed=6)
        state, log = train(cfg, ds, md)
        assert {row["phase"] for row in log.rows} == {"warmup", "meta"}
        assert state.stats.covariances().shape == (3, 4)
        assert not log.events

    @pytest.mark.parametrize("diagonal_sigma", [False, True],
                             ids=["full", "diagonal"])
    def test_training_runs_no_add_at(self, monkeypatch, diagonal_sigma):
        # class sums come from np.bincount, which keeps np.add.at's bits
        add = np.add

        class NoAt:
            def __getattr__(self, name):
                if name == "at":
                    raise AssertionError("np.add.at called in training")
                return getattr(add, name)

            def __call__(self, *args, **kwargs):
                return add(*args, **kwargs)

        monkeypatch.setattr(np, "add", NoAt())
        ds, md = self.make_problem()
        cfg = TrainerConfig(t1=3, t2=8, batch_train=16, batch_meta=4,
                            hidden=(8,), feat_dim=4, perturb_hidden=6,
                            diagonal_sigma=diagonal_sigma, seed=6)
        _, log = train(cfg, ds, md)
        assert {row["phase"] for row in log.rows} == {"warmup", "meta"}
        assert len(log.rows) > 2

    def test_full_iteration_changes_all_parameter_groups(self):
        state = tiny_setup(alpha=0.6, seed=17)
        phi_before = [a.copy() for a in state.params.arrays()]
        meta_iteration(state, np.arange(4), np.arange(4))
        assert any(not np.array_equal(b, a) for b, a in
                   zip(phi_before, state.params.arrays()))


class TestStateInit:
    def test_rejects_mismatched_meta_dim(self):
        rng = np.random.default_rng(0)
        ds = Dataset(features=rng.normal(size=(4, 3)),
                     labels=np.array([0, 1, 0, 1]),
                     class_counts=np.array([2, 2]))
        md = Dataset(features=rng.normal(size=(4, 2)),
                     labels=np.array([0, 0, 1, 1]),
                     class_counts=np.array([2, 2]))
        cfg = TrainerConfig(t1=0, t2=4, hidden=(), feat_dim=3)
        with pytest.raises(ValueError):
            init_state(cfg, ds, md)

    def test_optimizers_step_the_arrays_the_params_hold(self):
        state = tiny_setup(alpha=0.6, seed=7)
        rng = np.random.default_rng(7)
        state.params.load_values([rng.normal(size=a.shape)
                                  for a in state.params.arrays()])
        clone = copy.deepcopy(state)
        for st in (state, clone):
            for opt, model in ((st.sgd, st.params), (st.adam, st.perturb)):
                assert opt.params is model.vector
                for view in model.arrays():
                    assert np.shares_memory(view, model.vector)
        assert not np.shares_memory(clone.params.vector, state.params.vector)
        before = [state.params.vector.copy(), state.perturb.vector.copy()]
        meta_iteration(clone, np.arange(4), np.arange(4))
        for b, model in zip(before, (state.params, state.perturb)):
            assert b.tobytes() == model.vector.tobytes()
        for b, model in zip(before, (clone.params, clone.perturb)):
            assert not np.array_equal(b, model.vector)
            assert flatten(model.arrays()).tobytes() == model.vector.tobytes()

    def test_state_is_deepcopyable(self):
        state = tiny_setup()
        clone = copy.deepcopy(state)
        observe_and_look_ahead(clone)
        # original untouched by the clone's stats update
        assert isinstance(state, MetaState)
        np.testing.assert_array_equal(state.params.head_w,
                                      clone.params.head_w)


# ---------------------------------------------------------------------------
# the per-epoch pass over the whole training set, run in row blocks

BLOCK = kernels.BLOCK_ROWS
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def full_set_state(diagonal_sigma=True, freeze_eps=False):
    """Three classes on 2 * BLOCK + 1 rows, after two warm-up and two meta
    iterations, with a random perturbation net."""
    rng = np.random.default_rng(5)
    n = 2 * BLOCK + 1
    y = rng.integers(0, 3, size=n)
    ds = Dataset(features=rng.normal(size=(n, 4)) + y[:, None], labels=y,
                 class_counts=np.bincount(y, minlength=3))
    md = Dataset(features=rng.normal(size=(6, 4)),
                 labels=np.array([0, 1, 2, 0, 1, 2]),
                 class_counts=np.array([2, 2, 2]))
    cfg = TrainerConfig(t1=2, t2=10, batch_train=32, batch_meta=6,
                        hidden=(8,), feat_dim=5, perturb_hidden=6,
                        diagonal_sigma=diagonal_sigma, freeze_eps=freeze_eps,
                        seed=5)
    state = init_state(cfg, ds, md)
    state.perturb.load_values([rng.normal(scale=0.3, size=a.shape)
                               for a in state.perturb.arrays()])
    for t in range(1, 5):
        state.t = t
        batch = sample_train_batch(state)
        if t <= cfg.t1:
            warmup_step(state, batch)
        else:
            meta_iteration(state, batch, training.sample_meta_batch(state))
    return state


def first_rows(state, n):
    """The state with its training set cut to the first n rows."""
    ds = state.dataset
    y = ds.labels[:n]
    state.dataset = Dataset(features=ds.features[:n], labels=y,
                            class_counts=np.bincount(y, minlength=3))
    return state


def whole_set_eps(state):
    """full_train_eps in one pass over all n rows: the kernel forward, the
    softmax, the detached feature gradient, extract and the net, each on
    the whole set."""
    n = state.dataset.n
    _, h, z = kernels.forward(state.params.arrays(), state.dataset.features)
    q, lse = kernels.softmax_lse(z)
    y = state.dataset.labels
    view = BatchView(ids=np.arange(n), h=h, logits=z, q=q, lse=lse,
                     labels=y, grad_h=ce_grad_wrt_features(state.params, q, y),
                     progress=state.t / state.config.t2)
    f = state.history.normalize(extract(view, state.history, state.stats))
    return kernels.eps_forward(state.perturb.arrays(), f).eps


class TestFullTrainEps:
    @pytest.mark.parametrize("diagonal_sigma", [True, False])
    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1,
                                   2 * BLOCK + 1])
    def test_blocks_equal_one_pass_bit_for_bit(self, n, diagonal_sigma):
        state = first_rows(full_set_state(diagonal_sigma), n)
        eps = full_train_eps(state)
        ref = whole_set_eps(state)
        assert eps.shape == (n,)
        assert eps.tobytes() == ref.tobytes()
        if n > 1:
            assert np.all(eps != 0.0)

    @pytest.mark.parametrize("diagonal_sigma", [True, False])
    def test_singleton_class_in_the_last_block(self, diagonal_sigma):
        state = full_set_state(diagonal_sigma)
        ds = state.dataset
        y = np.where(ds.labels == 2, 0, ds.labels)
        y[-1] = 2
        state.dataset = Dataset(features=ds.features, labels=y,
                                class_counts=np.bincount(y, minlength=3))
        n = state.dataset.n
        assert n == 2 * BLOCK + 1
        assert kernels.row_blocks(n)[-1] == slice(BLOCK, n)
        eps = full_train_eps(state)
        assert eps.tobytes() == whole_set_eps(state).tobytes()
        rank = training.full_train_characteristics(state)[:, 14]
        assert rank[-1] == 0.5
        assert rank[:-1].min() == 0.0 and rank[:-1].max() == 1.0

    def test_zero_output_layer_builds_no_characteristics(self, monkeypatch):
        # With w2 and b2 zero the net outputs +0.0 on every row, so the pass
        # returns that without building the characteristics.
        state = full_set_state()
        for part in state.perturb.arrays()[2:]:
            part[...] = 0.0
        ref = whole_set_eps(state)
        assert (ref == 0.0).all() and not np.signbit(ref).any()

        def refuse(state):
            raise AssertionError("characteristics built")

        monkeypatch.setattr(training, "full_train_characteristics", refuse)
        assert full_train_eps(state).tobytes() == ref.tobytes()

    def test_frozen_eps_is_zero(self):
        state = full_set_state(freeze_eps=True)
        eps = full_train_eps(state)
        assert eps.shape == (state.dataset.n,)
        np.testing.assert_array_equal(eps, 0.0)

    def test_leaves_the_state_unchanged(self):
        state = full_set_state()
        before = copy.deepcopy(state)
        full_train_eps(state)
        for a, b in ((state.history.ema, before.history.ema),
                     (state.history.norm_mean, before.history.norm_mean),
                     (state.stats.means, before.stats.means)):
            assert a.tobytes() == b.tobytes()

    def test_peak_memory_on_the_longtail_preset(self):
        cfg = parse_config(str(CONFIG_DIR / "longtail.ini"))
        data = build_scenario(cfg)
        state = init_state(cfg.trainer, data.train, data.meta)
        for t in range(1, 6):
            state.t = t
            warmup_step(state, sample_train_batch(state))
        # a net that outputs zero skips the pass: give it output weights
        rng = np.random.default_rng(0)
        for part in state.perturb.arrays()[2:]:
            part[...] = rng.normal(scale=0.1, size=part.shape)
        tracemalloc.start()
        try:
            eps = full_train_eps(state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (eps != 0.0).all()
        # 7.46 MB when the pass ran on the whole set at once, 2.56 MB
        # when the blocks built a whole-set view before the table
        assert peak <= 1.6e6


def test_training_imports_no_tape_module():
    # The trainer runs on the kernels alone: importing it in a fresh
    # interpreter loads neither the tape nor its taped builders.
    src = str(Path(training.__file__).resolve().parents[1])
    code = ("import sys, advaug.training; print(sorted("
            "{'advaug.loss', 'advaug.autodiff'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
