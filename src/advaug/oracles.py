"""Brute-force verifiers for the augmentation derivation.

Everything here recomputes quantities the closed-form loss claims to
summarize: explicit Gaussian draws, Monte-Carlo expected CE, the scalar
moment-generating identity, convergence of the finite-draw loss to its
expectation, and plain central finite differences. The `verification`
suites (`advaug verify`, the gate) and the tests treat these as ground
truth, so this module imports nothing from the package it checks.
"""

from __future__ import annotations

import functools

import numpy as np


def cholesky_with_jitter(sigma: np.ndarray, jitter: float = 1e-10) -> np.ndarray:
    """Cholesky factor of sigma + jitter*I; the PSD acceptance check."""
    dim = sigma.shape[0]
    return np.linalg.cholesky(sigma + jitter * np.eye(dim))


def explicit_augment(h: np.ndarray, delta: np.ndarray, sigma: np.ndarray,
                     alpha: float, count: int, seed: int) -> np.ndarray:
    """count draws from N(h + delta, alpha * sigma) for one sample."""
    mean = np.asarray(h, dtype=np.float64) + np.asarray(delta, dtype=np.float64)
    if alpha == 0.0:
        return np.tile(mean, (count, 1))
    factor = cholesky_with_jitter(alpha * np.asarray(sigma, dtype=np.float64))
    rng = np.random.default_rng(seed)
    return mean + rng.standard_normal((count, mean.size)) @ factor.T


def per_sample_ce(z: np.ndarray, labels) -> np.ndarray:
    """-log softmax(z)[label] per row, by an explicit log-sum-exp."""
    # Row max and row sum column by column, in fewer numpy passes: numpy sums
    # fewer than eight entries in order, so these are the bits of
    # z.max(axis=1) and .sum(axis=1).  Written out here, not taken from
    # `kernels`, so that the oracle shares no code with what it checks.
    m = functools.reduce(np.maximum, z.T)
    lse = m + np.log(functools.reduce(np.add, np.exp(z - m[:, None]).T))
    return lse - z[np.arange(len(z)), labels]


def _ce_rows(w, b, draws, y):
    return per_sample_ce(draws @ w.T + b, y)


def mc_expected_ce(w: np.ndarray, b: np.ndarray, h: np.ndarray,
                   delta: np.ndarray, sigma: np.ndarray, alpha: float,
                   y: int, count: int, seed: int) -> tuple[float, float]:
    """Monte-Carlo mean and standard error of CE over augmented features."""
    losses = _ce_rows(w, b, explicit_augment(h, delta, sigma, alpha, count,
                                             seed), y)
    if alpha == 0.0:
        return float(losses[0]), 0.0
    return float(losses.mean()), float(losses.std(ddof=1) / np.sqrt(count))


def mgf_check(t: float, mu: float, sigma2: float, count: int,
              seed: int) -> tuple[float, float]:
    """E[exp(tX)] for X ~ N(mu, sigma2): sampled vs exp(t mu + s2 t^2 / 2)."""
    if sigma2 < 0:
        raise ValueError("sigma2 must be >= 0")
    closed = float(np.exp(t * mu + 0.5 * sigma2 * t * t))
    rng = np.random.default_rng(seed)
    x = mu + np.sqrt(sigma2) * rng.standard_normal(count)
    return float(np.exp(t * x).mean()), closed


def draws_per_sample(budget: int, priors: np.ndarray,
                     labels: np.ndarray) -> np.ndarray:
    """M_i = M / pi_{y_i}, rounded, at least 1 draw each."""
    counts = np.round(budget / priors[np.asarray(labels, dtype=np.intp)])
    return np.maximum(counts.astype(int), 1)


def finite_loss_convergence(w, b, h, delta, sigmas, alpha, priors, labels,
                            budget_sequence, seed: int,
                            limit_count: int = 200000) -> list[float]:
    """Gap between the finite-draw loss and its Monte-Carlo limit, one per
    budget of `budget_sequence`.

    The finite-draw loss pools all augmented instances and divides by the
    total draw count, so each sample carries weight proportional to
    1/pi_{y_i}; the limit is the matching weighted sum of per-sample
    expected CE values.
    """
    labels = np.asarray(labels, dtype=np.intp)
    n = labels.size
    expect = np.empty(n)
    for i in range(n):
        chunks = []
        # chunked to keep memory flat at large draw counts
        remaining, block = limit_count, 50000
        k = 0
        while remaining > 0:
            take = min(block, remaining)
            draws = explicit_augment(h[i], delta[i], sigmas[labels[i]], alpha,
                                     take, seed * 7919 + i * 613 + k)
            chunks.append(_ce_rows(w, b, draws, labels[i]))
            remaining -= take
            k += 1
        expect[i] = np.concatenate(chunks).mean()
    weights = 1.0 / priors[labels]
    limit_value = float((weights * expect).sum() / weights.sum())
    gaps = []
    for budget in budget_sequence:
        counts = draws_per_sample(budget, priors, labels)
        total = 0.0
        for i in range(n):
            draws = explicit_augment(h[i], delta[i], sigmas[labels[i]], alpha,
                                     int(counts[i]), seed * 104729 + i)
            total += _ce_rows(w, b, draws, labels[i]).sum()
        gaps.append(abs(total / counts.sum() - limit_value))
    return gaps


def fd_gradient(f, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of scalar f at x, per coordinate."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + step
        fp = f(x)
        x[idx] = orig - step
        fm = f(x)
        x[idx] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError(f"non-finite evaluation at {idx}")
        grad[idx] = (fp - fm) / (2.0 * step)
    return grad


def random_bound_instance(rng: np.random.Generator) -> tuple:
    """One randomized sample for Jensen-bound sweeps: (w, b, h, delta,
    sigma, alpha, y), with 2-5 classes and width 2-8."""
    c = int(rng.integers(2, 6))
    width = int(rng.integers(2, 9))
    a = rng.normal(size=(width, width))
    g = rng.normal(size=width)
    eps = float(rng.uniform(-0.99, 0.99))
    return (rng.normal(size=(c, width)), rng.normal(size=c),
            rng.normal(size=width), eps * np.sign(g), a @ a.T / width,
            float(rng.uniform(0.0, 1.0)), int(rng.integers(0, c)))
