"""Self-check suites wired to the `verify` CLI verb.

Each suite re-derives a core identity of the surrogate-loss construction
from an independent oracle (Monte Carlo sampling, finite differences, or
brute-force recomputation) and reports a structured pass/fail record.  The
defaults are fast versions of the acceptance-grade checks, for use on a
fresh checkout; the acceptance gate runs the Jensen, gradient,
hypergradient and covariance suites itself, with its own instance counts,
thresholds and budgets.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .autodiff import Tensor
from .data import Dataset
from .loss import (adjusted_logits, augmented_ce_loss, extract_features,
                   quadratic_terms)
from .oracles import fd_gradient, mc_expected_ce, mgf_check, random_bound_instance
from .stats import ClassStats, update_covariance
from .training import (TrainerConfig, _observe_batch, init_state,
                       lookahead_meta_loss)


def jensen_suite(instances: int = 200, draws: int = 4000,
                 seed: int = 0) -> dict:
    """Closed-form surrogate must dominate the sampled expectation.

    The closed form is the training kernel `kernels.surrogate` on one
    sample, without the prior term. Instance k draws its Monte Carlo
    samples from seed + 1000 + k.
    """
    rng = np.random.default_rng(seed)
    held = 0
    worst = np.inf
    for k in range(instances):
        inst = random_bound_instance(rng)
        y = inst["y"]
        # Only the label's covariance enters rho; the other classes' are zero.
        sigma = np.zeros(inst["w"].shape[:1] + inst["sigma"].shape)
        sigma[y] = inst["sigma"]
        closed = kernels.surrogate(
            [inst["w"], inst["b"]], inst["h"][None], np.array([y]),
            inst["delta"][None], sigma, np.zeros(len(inst["b"])),
            inst["alpha"]).value
        mc, se = mc_expected_ce(inst["w"], inst["b"], inst["h"],
                                inst["delta"], inst["sigma"], inst["alpha"],
                                y, count=draws, seed=seed + 1000 + k)
        margin = float(closed + 1e-12 - (mc - 3.0 * se))
        worst = min(worst, margin)
        held += margin >= 0
    return {"name": "jensen", "passed": held == instances, "worst": worst,
            "held": held,
            "detail": f"{instances - held}/{instances} violations, "
                      f"worst margin {worst:.3e}"}


def mgf_suite(count: int = 200000, seed: int = 0) -> dict:
    """Gaussian moment-generating identity on a parameter grid."""
    failures = []
    for t in (-2.0, 0.5, 2.0):
        for mu in (-1.0, 0.0, 1.5):
            for s2 in (0.0, 1.0, 4.0):
                mc, closed = mgf_check(t, mu, s2, count, seed)
                var = np.exp(2 * t * mu) * (np.exp(2 * s2 * t * t)
                                            - np.exp(s2 * t * t))
                tol = 5.0 * np.sqrt(var / count) + 1e-9
                if abs(mc - closed) > tol:
                    failures.append((t, mu, s2))
    return {"name": "mgf", "passed": not failures,
            "detail": f"{len(failures)} grid failures: {failures[:3]}"}


def _random_pipeline(rng):
    """Small two-layer pipeline instance for gradient checking."""
    n, in_dim, hid, c = 5, 3, 4, 3
    feat = hid  # head consumes the extractor output directly
    while True:
        x = rng.normal(size=(n, in_dim))
        w1 = rng.normal(size=(in_dim, hid)) * 0.7
        b1 = rng.normal(size=hid)
        # keep relu inputs away from the kink so FD stays smooth
        if np.abs(x @ w1 + b1).min() > 1e-3:
            break
    labels = rng.integers(0, c, size=n)
    delta = rng.uniform(-0.9, 0.9, size=(n, 1)) * np.sign(
        rng.normal(size=(n, feat)))
    sigmas = []
    for _ in range(c):
        a = rng.normal(size=(feat, feat))
        sigmas.append(a @ a.T / feat)
    sigmas = np.stack(sigmas)
    priors = rng.uniform(0.1, 1.0, size=c)
    priors /= priors.sum()
    params = [w1, b1, rng.normal(size=(c, feat)), rng.normal(size=c)]
    alpha = float(rng.uniform(0.1, 1.0))
    return x, labels, delta, sigmas, priors, params, alpha


def _pipeline_loss(values, x, labels, delta, sigmas, priors, alpha) -> float:
    """The taped surrogate loss at the flat parameter arrays `values`, with
    beta = 1."""
    phi = [Tensor(v) for v in values]
    rho = quadratic_terms(phi[-2], sigmas, labels)
    z = adjusted_logits(phi[-2], phi[-1], extract_features(phi, x),
                        Tensor(delta), rho, priors, alpha, 1.0)
    return float(augmented_ce_loss(z, labels).value)


def gradient_suite(instances: int = 10, seed: int = 0) -> dict:
    """Kernel gradients of the surrogate loss vs central finite differences
    of the taped loss value."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(instances):
        x, labels, delta, sigmas, priors, params, alpha = _random_pipeline(rng)
        grads = kernels.surrogate(params, x, labels, delta, sigmas,
                                  np.log(priors), alpha).grads
        for k, value in enumerate(params):
            def f(v, k=k):
                trial = [p.copy() for p in params]
                trial[k] = v.reshape(params[k].shape)
                return _pipeline_loss(trial, x, labels, delta, sigmas,
                                      priors, alpha)
            fd = fd_gradient(f, value.ravel().copy()).reshape(value.shape)
            scale = max(np.abs(fd).max(), 1e-12)
            worst = max(worst, np.abs(grads[k] - fd).max() / scale)
    return {"name": "gradient", "passed": worst < 1e-4, "worst": worst,
            "detail": f"max rel err {worst:.3e} over {instances} instances"}


def _tiny_state(seed: int, **overrides):
    """Two classes, two inputs, four train and four meta rows.

    `overrides` are TrainerConfig fields; by default the extractor is the
    identity and the covariances are full.
    """
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(4, 2))
    y = np.array([0, 1, 0, 1])
    ds = Dataset(features=x, labels=y, class_counts=np.array([2, 2]))
    md = Dataset(features=rng.normal(size=(4, 2)),
                 labels=np.array([0, 0, 1, 1]), class_counts=np.array([2, 2]))
    fields = dict(t1=0, t2=10, alpha=0.6, beta=1.0, batch_train=4,
                  batch_meta=4, hidden=(), feat_dim=2, perturb_hidden=4,
                  seed=seed)
    cfg = TrainerConfig(**(fields | overrides))
    state = init_state(cfg, ds, md)
    state.t = 1
    state.perturb.load_values([rng.normal(scale=0.3, size=a.shape)
                               for a in state.perturb.arrays()])
    return state, _observe_batch(state, np.arange(4))


def _kink_margin(layers, x: np.ndarray) -> float:
    """Smallest |relu input| of a ReLU stack over the rows of x."""
    margin, a = np.inf, x
    for w, b in layers:
        pre = a @ w + b
        margin = min(margin, float(np.abs(pre).min()))
        a = np.maximum(pre, 0.0)
    return margin


def hypergradient_suite(seed: int = 0, **overrides) -> dict:
    """Kernel meta-gradients through the lookahead step vs finite
    differences of the lookahead meta loss.

    `overrides` are TrainerConfig fields of the instance. In diagonal mode
    each covariance is its (H,) diagonal, whose entries are bumped
    directly. The record's `kink_margin` is the smallest |input| of the
    relus whose inputs move with omega and Sigma: the perturbation net's,
    and the extractor's on the meta batch at phi'. Finite differences are
    only meaningful when it is not tiny. With frozen perturbations
    (`freeze_eps`) no net reaches the meta loss, and `worst_omega` is 0.
    """
    state, obs = _tiny_state(seed, **overrides)
    meta_idx = np.arange(4)

    def meta_value():
        return lookahead_meta_loss(state, obs, meta_idx)

    ahead = meta_value()
    omega = state.perturb.arrays()

    def rel_err(analytic, fd):
        return np.abs(analytic - fd).max() / max(np.abs(fd).max(), 1e-12)

    worst_omega = worst_sigma = 0.0
    for array, analytic in zip(omega, ahead.omega_grads or ()):
        # fd_gradient bumps this view of the net's vector in place
        fd = fd_gradient(lambda _: meta_value().meta_loss, array)
        worst_omega = max(worst_omega, rel_err(analytic, fd))
    for c, analytic in enumerate(ahead.sigma_grad):
        base = state.stats.covariances()[c]

        def at(sigma):
            state.stats.set_covariance(c, sigma)
            return meta_value().meta_loss

        fd = fd_gradient(at, base.copy())
        state.stats.set_covariance(c, base)
        worst_sigma = max(worst_sigma, rel_err(analytic, fd))

    kink = min(
        _kink_margin([(omega[0], omega[1])], obs.characteristics),
        _kink_margin(kernels.extractor_layers(ahead.pseudo_params),
                     state.metadata.features[meta_idx]))
    worst = max(worst_omega, worst_sigma)
    return {"name": "hypergradient", "passed": worst < 1e-3, "worst": worst,
            "worst_omega": worst_omega, "worst_sigma": worst_sigma,
            "kink_margin": kink,
            "detail": f"max rel err {worst:.3e}, relu margin {kink:.1e}"}


def covariance_suite(partitions: int = 5, seed: int = 0) -> dict:
    """Streaming per-class covariance equals the full-batch computation.

    Each partition splits a random order of the rows into 2 to 8 chunks.
    """
    rng = np.random.default_rng(seed)
    n, dim, c = 60, 5, 3
    x = rng.normal(size=(n, dim)) @ rng.normal(size=(dim, dim))
    y = rng.integers(0, c, size=n)
    full = ClassStats(c, dim)
    update_covariance(full, x, y)
    worst = 0.0
    for _ in range(partitions):
        order = rng.permutation(n)
        pieces = int(rng.integers(1, 8))
        cuts = np.sort(rng.choice(np.arange(1, n), size=pieces,
                                  replace=False))
        pooled = ClassStats(c, dim)
        for chunk in np.split(order, cuts):
            update_covariance(pooled, x[chunk], y[chunk])
        worst = max(worst, np.abs(pooled.covariances()
                                  - full.covariances()).max())
    return {"name": "covariance-pooling", "passed": worst < 1e-10,
            "worst": worst,
            "detail": f"max pooled-vs-full deviation {worst:.3e}"}


def run_all(seed: int = 0) -> list[dict]:
    return [
        jensen_suite(seed=seed),
        mgf_suite(seed=seed),
        gradient_suite(seed=seed),
        hypergradient_suite(seed=seed),
        covariance_suite(seed=seed),
    ]
