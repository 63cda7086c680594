"""The analytic checks of the surrogate-loss construction, one suite each.

Each suite re-derives one step of the construction from an independent
oracle (an explicit log-sum-exp, Monte Carlo sampling, finite differences,
or brute-force recomputation) and returns a pass/fail record. `run_all`,
behind `advaug verify`, runs the seven at their fast defaults; criteria
01-07 of the acceptance gate call them one each with the gate's sizes,
seeds and bounds. A NaN in a worst figure stays NaN and fails its bound.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .autodiff import Tensor, softmax_cross_entropy
from .data import Dataset
from .loss import (adjusted_logits, augmented_ce_loss, extract_features,
                   quadratic_terms)
from .oracles import (fd_gradient, finite_loss_convergence, mc_expected_ce,
                      mgf_check, per_sample_ce, random_bound_instance)
from .stats import ClassStats, update_covariance
from .training import (TrainerConfig, _observe_batch, init_state,
                       lookahead_meta_loss)


def reduction_suite(instances: int = 100, seed: int = 0,
                    tol: float = 1e-12) -> dict:
    """At alpha = 0 the surrogate is CE (beta = 0) and logit-adjusted CE
    (beta = 1): per sample taped, in the mean in `kernels.surrogate`."""
    rng = np.random.default_rng(seed)
    worst = {"ce": 0.0, "la": 0.0, "kernel": 0.0}
    for _ in range(instances):
        n, c = int(rng.integers(1, 6)), int(rng.integers(2, 6))
        width = int(rng.integers(1, 9))
        w, b = rng.normal(size=(c, width)), rng.normal(size=c)
        h, labels = rng.normal(size=(n, width)), rng.integers(0, c, size=n)
        priors = rng.uniform(0.1, 1.0, size=c)
        priors /= priors.sum()
        sigmas = np.stack([a @ a.T / width
                           for a in rng.normal(size=(c, width, width))])
        rho = quadratic_terms(Tensor(w), sigmas, labels)
        zeros = Tensor(np.zeros((n, width)))
        for beta, name, shift in ((0.0, "ce", np.zeros(c)),
                                  (1.0, "la", np.log(priors))):
            ref = per_sample_ce(h @ w.T + b + shift, labels)
            z = adjusted_logits(Tensor(w), Tensor(b), Tensor(h), zeros, rho,
                                priors, 0.0, beta)
            worst[name] = np.maximum(worst[name], np.abs(
                softmax_cross_entropy(z, labels).value - ref).max())
            mean = kernels.surrogate([w, b], h, labels, None, sigmas, shift,
                                     0.0).value
            worst["kernel"] = np.maximum(worst["kernel"],
                                         abs(mean - ref.mean()))
    return {"name": "reduction", **worst,
            "passed": all(v <= tol for v in worst.values()),
            "detail": f"max dev CE {worst['ce']:.2e}, LA {worst['la']:.2e}, "
                      f"kernel {worst['kernel']:.2e}"}


def jensen_suite(instances: int = 200, draws: int = 4000,
                 seed: int = 0) -> dict:
    """Closed-form surrogate must dominate the sampled expectation.

    The closed form is the training kernel `kernels.surrogate` on one
    sample, without the prior term. Instance k draws its Monte Carlo
    samples from seed + 1000 + k.
    """
    rng = np.random.default_rng(seed)
    held, worst = 0, np.inf
    for k in range(instances):
        w, b, h, delta, sigma, alpha, y = random_bound_instance(rng)
        # Only the label's covariance enters rho; the other classes' are zero.
        sigmas = np.zeros((len(b),) + sigma.shape)
        sigmas[y] = sigma
        closed = kernels.surrogate([w, b], h[None], np.array([y]), delta[None],
                                   sigmas, np.zeros(len(b)), alpha).value
        mc, se = mc_expected_ce(w, b, h, delta, sigma, alpha, y, count=draws,
                                seed=seed + 1000 + k)
        margin = float(closed + 1e-12 - (mc - 3.0 * se))
        worst = np.minimum(worst, margin)
        held += margin >= 0
    return {"name": "jensen", "passed": held == instances, "worst": worst,
            "held": held,
            "detail": f"{instances - held}/{instances} violations, "
                      f"worst margin {worst:.3e}"}


MGF_CELLS = tuple((t, mu, s2) for t in (-2.0, 0.5, 2.0)
                  for mu in (-1.0, 0.0, 1.5) for s2 in (0.25, 1.0, 4.0))


def mgf_suite(cells=MGF_CELLS, count: int = 200000, seed: int = 0,
              bound: float = 5.0) -> dict:
    """E exp(tX) = exp(t mu + s2 t^2 / 2) for X ~ N(mu, s2), on (t, mu, s2)
    cells with s2 > 0: cell k (from 1) samples from seed + k, within
    `bound` exact standard errors."""
    worst, within = 0.0, 0
    for k, (t, mu, s2) in enumerate(cells, 1):
        mc, closed = mgf_check(t, mu, s2, count, seed + k)
        # exact estimator se from the closed-form second moment
        var = np.exp(2 * t * mu) * (np.exp(2 * s2 * t * t)
                                    - np.exp(s2 * t * t))
        ratio = abs(mc - closed) / np.sqrt(var / count)
        worst = np.maximum(worst, ratio)
        within += ratio <= bound
    return {"name": "mgf", "passed": within == len(cells), "worst": worst,
            "within": within,
            "detail": f"{within}/{len(cells)} cells within {bound:g} se, "
                      f"worst {worst:.2f} se"}


def convergence_suite(runs: int = 50, seed: int = 0,
                      limit_count: int = 20000, tol: float = 0.15) -> dict:
    """The loss over M / pi_y explicit draws per sample approaches its limit
    with a gap of order M^(-1/2): run r draws from seed + r, and the mean
    log-log slope of the gap over M = 10, 100, 1000 is within `tol` of -1/2.
    Ten runs miss that bound on some seeds, even at `limit_count` 200000."""
    rng = np.random.default_rng(9)
    n, c, width = 4, 3, 4
    w, b = rng.normal(size=(c, width)), rng.normal(size=c)
    h = rng.normal(size=(n, width))
    delta = 0.3 * np.sign(rng.normal(size=(n, width)))
    sigmas = [a @ a.T / width for a in rng.normal(size=(c, width, width))]
    budgets, priors = [10, 100, 1000], np.array([0.5, 0.3, 0.2])
    slopes = []
    for run_seed in range(seed, seed + runs):
        gaps = finite_loss_convergence(w, b, h, delta, sigmas, 0.5, priors,
                                       [0, 1, 2, 0], budgets, run_seed,
                                       limit_count)
        slopes.append(np.polyfit(np.log10(budgets), np.log10(gaps), 1)[0])
    slope = float(np.mean(slopes))
    return {"name": "convergence", "passed": abs(slope + 0.5) <= tol,
            "slope": slope,
            "detail": f"mean log-log slope {slope:+.3f} over {runs} seeds"}


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
    sigmas = np.stack([a @ a.T / feat
                       for a in rng.normal(size=(c, feat, feat))])
    priors = rng.uniform(0.1, 1.0, size=c)
    priors /= priors.sum()
    params = [w1, b1, rng.normal(size=(c, feat)), rng.normal(size=c)]
    alpha = float(rng.uniform(0.1, 1.0))
    return x, labels, delta, sigmas, priors, params, alpha


def _rel_err(analytic: np.ndarray, fd: np.ndarray) -> float:
    """Largest |analytic - fd| relative to the largest |fd|."""
    return np.abs(analytic - fd).max() / max(np.abs(fd).max(), 1e-12)


def _pipeline_loss(values, x, labels, delta, sigmas, priors, alpha) -> float:
    """The taped surrogate loss at the flat parameter arrays `values`, with
    beta = 1."""
    phi = [Tensor(v) for v in values]
    rho = quadratic_terms(phi[-2], sigmas, labels)
    z = adjusted_logits(phi[-2], phi[-1], extract_features(phi, x),
                        Tensor(delta), rho, priors, alpha, 1.0)
    return float(augmented_ce_loss(z, labels).value)


def gradient_suite(instances: int = 10, seed: int = 0,
                   tol: float = 1e-4) -> dict:
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
            worst = np.maximum(worst, _rel_err(grads[k], fd))
    return {"name": "gradient", "passed": worst < tol, "worst": worst,
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
    fields = dict(t1=0, t2=10, eta1=0.05, alpha=0.6, beta=1.0,
                  batch_train=4, batch_meta=4, hidden=(), feat_dim=2,
                  perturb_hidden=4, seed=seed)
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


def hypergradient_suite(seed: int = 0, tol: float = 1e-3,
                        **overrides) -> dict:
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

    worst_omega = worst_sigma = 0.0
    for array, analytic in zip(omega, ahead.omega_grads or ()):
        # fd_gradient bumps this view of the net's vector in place
        fd = fd_gradient(lambda _: meta_value().meta_loss, array)
        worst_omega = np.maximum(worst_omega, _rel_err(analytic, fd))
    for c, analytic in enumerate(ahead.sigma_grad):
        base = state.stats.covariances()[c]

        def at(sigma):
            state.stats.set_covariance(c, sigma)
            return meta_value().meta_loss

        fd = fd_gradient(at, base.copy())
        state.stats.set_covariance(c, base)
        worst_sigma = np.maximum(worst_sigma, _rel_err(analytic, fd))

    kink = min(
        _kink_margin([(omega[0], omega[1])], obs.characteristics),
        _kink_margin(kernels.extractor_layers(ahead.pseudo_params),
                     state.metadata.features[meta_idx]))
    worst = np.maximum(worst_omega, worst_sigma)
    return {"name": "hypergradient", "passed": worst < tol, "worst": worst,
            "worst_omega": worst_omega, "worst_sigma": worst_sigma,
            "kink_margin": kink,
            "detail": f"max rel err {worst:.3e}, relu margin {kink:.1e}"}


def covariance_suite(partitions: int = 5, seed: int = 0,
                     tol: float = 1e-10) -> dict:
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
        worst = np.maximum(worst, np.abs(pooled.covariances()
                                         - full.covariances()).max())
    return {"name": "covariance-pooling", "passed": worst <= tol,
            "worst": worst,
            "detail": f"max pooled-vs-full deviation {worst:.3e}"}


def run_all(seed: int = 0) -> list[dict]:
    """The seven suites at their defaults, in criterion order (01-07); a Monte
    Carlo suite starts at `seed` times the number of seeds it draws from."""
    return [reduction_suite(seed=seed), jensen_suite(seed=seed * 200),
            mgf_suite(seed=seed * len(MGF_CELLS)),
            convergence_suite(seed=seed * 50), gradient_suite(seed=seed),
            hypergradient_suite(seed=seed), covariance_suite(seed=seed)]
