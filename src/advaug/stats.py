"""Online class priors and class-conditional covariance estimation.

Covariances are pooled exactly across mini-batches (two-sample moment
merging), so after any sequence of updates each Sigma_c equals the
population covariance of every feature vector seen for class c, regardless
of how the stream was batched.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def class_priors(counts) -> np.ndarray:
    """Proportions n_c / N. Every class must have been observed."""
    counts = np.asarray(counts, dtype=np.float64)
    if np.any(counts < 1):
        raise ValueError(f"class_priors: zero-count class in {counts}")
    return counts / counts.sum()


def project_psd(sigma: np.ndarray) -> np.ndarray:
    """Nearest PSD matrix in Frobenius norm: symmetrize, clamp eigenvalues."""
    sigma = np.asarray(sigma, dtype=np.float64)
    if not np.all(np.isfinite(sigma)):
        raise ValueError("project_psd: non-finite input")
    sym = 0.5 * (sigma + sigma.T)
    eigvals, eigvecs = np.linalg.eigh(sym)
    clamped = (eigvecs * np.maximum(eigvals, 0.0)) @ eigvecs.T
    return 0.5 * (clamped + clamped.T)


def cholesky_with_jitter(sigma: np.ndarray, jitter: float = 1e-10) -> np.ndarray:
    """Cholesky factor of sigma + jitter*I; the PSD acceptance check."""
    dim = sigma.shape[0]
    return np.linalg.cholesky(sigma + jitter * np.eye(dim))


@dataclass
class ClassStats:
    """Running per-class feature statistics.

    Internally stores counts, means and centered scatter matrices M_c;
    Sigma_c = M_c / n_c (population normalization, zero for unseen classes).
    In diagonal mode only per-feature variances are kept.
    """

    num_classes: int
    dim: int
    diagonal: bool = False
    priors: np.ndarray = None
    counts: np.ndarray = field(init=False)
    means: np.ndarray = field(init=False)
    scatter: np.ndarray = field(init=False)

    def __post_init__(self):
        self.counts = np.zeros(self.num_classes, dtype=np.float64)
        self.means = np.zeros((self.num_classes, self.dim))
        shape = ((self.num_classes, self.dim) if self.diagonal
                 else (self.num_classes, self.dim, self.dim))
        self.scatter = np.zeros(shape)
        if self.priors is None:
            self.priors = np.full(self.num_classes, 1.0 / self.num_classes)
        else:
            self.priors = np.asarray(self.priors, dtype=np.float64)

    def covariance(self, c: int) -> np.ndarray:
        """Dense Sigma_c (diagonal mode is expanded on demand)."""
        if self.counts[c] == 0:
            return np.zeros((self.dim, self.dim))
        sigma = self.scatter[c] / self.counts[c]
        return np.diag(sigma) if self.diagonal else sigma

    def covariances(self) -> np.ndarray:
        """Every Sigma_c, stacked as (num_classes, dim, dim)."""
        return np.stack([self.covariance(c) for c in range(self.num_classes)])

    def set_covariance(self, c: int, sigma: np.ndarray) -> None:
        """Overwrite Sigma_c, keeping counts so later pooling continues.

        A class with no observed sample has no estimate to overwrite.
        """
        n = self.counts[c]
        if n == 0:
            raise ValueError(f"set_covariance: class {c} has no samples")
        self.scatter[c] = (np.diag(sigma) * n if self.diagonal else sigma * n)


def update_covariance(stats: ClassStats, features: np.ndarray,
                      labels: np.ndarray) -> ClassStats:
    """Merge one batch into the running moments (in place; returns stats)."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if features.shape[1] != stats.dim:
        raise ValueError(
            f"update_covariance: feature width {features.shape[1]} != {stats.dim}")
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
    return stats
