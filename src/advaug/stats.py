"""Online class priors and class-conditional covariance estimation.

Covariances are pooled exactly across mini-batches (two-sample moment
merging), so after any sequence of updates each Sigma_c equals the
population covariance of every feature vector seen for class c, regardless
of how the stream was batched. `update_covariance` is the one writer of the
moments: the covariances are online class estimates, as in ISDA, and
nothing else steps them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kernels import label_bins, sum_by_label


def class_priors(counts) -> np.ndarray:
    """Proportions n_c / N. Every class must have been observed."""
    counts = np.asarray(counts, dtype=np.float64)
    if np.any(counts < 1):
        raise ValueError(f"class_priors: zero-count class in {counts}")
    return counts / counts.sum()


def _per_class(values: np.ndarray, like: np.ndarray) -> np.ndarray:
    """One value per class, shaped to broadcast against the class stack
    `like`."""
    return values.reshape(values.shape + (1,) * (like.ndim - 1))


@dataclass
class ClassStats:
    """Running per-class feature statistics.

    Internally stores counts, means and centered scatter matrices M_c;
    Sigma_c = M_c / n_c (population normalization, zero for unseen classes).
    In diagonal mode only per-feature variances are kept, and every Sigma_c
    is returned as its (H,) diagonal.
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

    def covariances(self) -> np.ndarray:
        """Every Sigma_c: (num_classes, dim) variances in diagonal mode,
        else (num_classes, dim, dim).

        The scatter of an unseen class stays +0.0 (see `update_covariance`),
        so dividing it by one gives its zero Sigma_c.
        """
        return self.scatter / _per_class(np.maximum(self.counts, 1.0),
                                         self.scatter)


def traces(sigma: np.ndarray) -> np.ndarray:
    """tr Sigma_c of every class of a `ClassStats.covariances()` stack."""
    return (np.add.reduce(sigma, axis=1) if sigma.ndim == 2
            else np.trace(sigma, axis1=1, axis2=2))


def update_covariance(stats: ClassStats, features: np.ndarray,
                      labels: np.ndarray) -> ClassStats:
    """Merge one batch into the running moments (in place; returns stats).

    One merge for every class, with m its batch rows, n its count and d =
    max(n + m, 1): means += delta * m / d, scatter += delta^2 * n * m / d
    + scat_b (delta = mu_b - means; an outer product in full mode), counts
    += m. Exact with no branch: an absent class (m = 0; mu_b = scat_b =
    +0.0, as label sums start at +0.0) adds a signed zero to its finite
    mean, never -0.0, and +0.0 to its scatter; a fresh one (n = 0; means =
    scatter = +0.0) has weight m / m = 1.0 and takes mu_b and scat_b. Rows
    sum in row order, as in a per-class mean(axis=0). A label outside
    range(num_classes) raises ValueError before any moment changes.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.intp)
    if features.shape[1] != stats.dim:
        raise ValueError(
            f"update_covariance: feature width {features.shape[1]} != {stats.dim}")
    m = np.bincount(labels, minlength=stats.num_classes).astype(np.float64)
    bins = label_bins(labels, stats.dim)
    mu_b = (sum_by_label(features, bins, stats.num_classes)
            / np.maximum(m, 1.0)[:, None])
    centered = features - mu_b.take(labels, axis=0)
    if stats.diagonal:
        scat_b = sum_by_label(np.square(centered, out=centered), bins,
                              stats.num_classes)
    else:
        scat_b = np.zeros(stats.scatter.shape)
        for c in m.nonzero()[0]:
            rows = centered[labels == c]
            scat_b[c] = rows.T @ rows
    n = stats.counts
    d = np.maximum(n + m, 1.0)
    delta = mu_b - stats.means
    stats.means += delta * (m / d)[:, None]
    cross = (np.square(delta, out=delta) if stats.diagonal
             else delta[:, :, None] * delta[:, None, :])
    cross *= _per_class(n * m / d, scat_b)
    stats.scatter += cross + scat_b
    stats.counts += m
    return stats
