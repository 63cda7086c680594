"""Per-sample training characteristics feeding the perturbation network.

Fifteen detached scalars per sample describing learning difficulty, class
distribution, and noise signals. Extraction is pure; all running state
(per-sample EMAs, feature normalization statistics) lives in History and
changes only through update_history. Nothing here sees the noise mask or
any test data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .stats import ClassStats

CHARACTERISTIC_NAMES = (
    "loss",
    "loss_ema",
    "loss_zscore",
    "margin",
    "margin_ema",
    "entropy",
    "true_class_prob",
    "correct",
    "correct_ema",
    "grad_norm",
    "class_prior",
    "log_class_prior",
    "class_mean_distance",
    "progress",
    "class_loss_rank",
)

NUM_CHARACTERISTICS = len(CHARACTERISTIC_NAMES)
# The raw columns (loss, margin, correct) whose per-sample EMAs are the
# columns of `History.ema`, in this order.
EMA_SOURCES = [0, 3, 7]
EMA_DECAY = 0.9  # of the per-sample EMAs and the normalization statistics


@dataclass
class BatchView:
    """Detached per-batch ingredients for extraction."""

    ids: np.ndarray  # indices into the history tables
    h: np.ndarray  # n x H features
    logits: np.ndarray  # n x C plain logits
    q: np.ndarray  # n x C softmax of the logits
    lse: np.ndarray  # n log-sum-exp of the logits
    labels: np.ndarray
    grad_h: np.ndarray  # n x H detached CE gradient
    progress: float  # t / T2 in [0, 1]


@dataclass
class CharacteristicsBatch:
    raw: np.ndarray  # n x 15
    normalized: np.ndarray  # n x 15, z-scored and clipped to [-5, 5]


class History:
    """Per-sample EMA trajectories plus feature-normalization EMAs.

    `ema` holds one row per sample: the EMAs of its loss, margin and
    correctness (the raw columns EMA_SOURCES).
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.seen = np.zeros(capacity, dtype=bool)
        self.ema = np.zeros((capacity, len(EMA_SOURCES)))
        self.norm_count = 0
        self.norm_mean = np.zeros(NUM_CHARACTERISTICS)
        self.norm_sq = np.ones(NUM_CHARACTERISTICS)

    def normalize(self, raw: np.ndarray) -> np.ndarray:
        if self.norm_count == 0:
            return np.clip(raw, -5.0, 5.0)
        var = np.maximum(self.norm_sq - self.norm_mean ** 2, 0.0)
        return np.clip((raw - self.norm_mean) / np.sqrt(var + 1e-12),
                       -5.0, 5.0)


def extract(view: BatchView, history: History,
            stats: ClassStats) -> CharacteristicsBatch:
    """The 15 raw scalars per sample, plus their normalized variants.

    EMA-based entries fall back to the instantaneous value for samples the
    history has never seen. Only the loss z-score and the within-class loss
    rank read the whole set; the other columns and the normalization run in
    blocks of `kernels.BLOCK_ROWS` rows.
    """
    n = view.ids.size
    labels = np.asarray(view.labels, dtype=np.intp)
    rows = np.arange(n)
    loss = view.lse - view.logits[rows, labels]
    zscore = (loss - loss.mean()) / (loss.std() + 1e-12)
    # Rank of each loss within its class: a stable sort by (label, loss)
    # breaks ties by position, and a singleton class ranks 0.5.
    class_size = np.bincount(labels)
    position = np.empty(n, dtype=np.intp)
    position[np.lexsort((loss, labels))] = rows
    within = position - (np.cumsum(class_size) - class_size)[labels]
    size = class_size[labels]
    rank = np.where(size == 1, 0.5, within / np.maximum(size - 1, 1))
    spread = np.sqrt(stats.traces() + 1e-12)

    def block(r):
        z, q, ids, y = view.logits[r], view.q[r], view.ids[r], labels[r]
        idx = np.arange(ids.size)
        masked = z.copy()
        masked[idx, y] = -np.inf
        margin = z[idx, y] - kernels.row_max(masked)
        entropy = -np.sum(q * np.log(np.maximum(q, 1e-300)), axis=1)
        correct = (z.argmax(axis=1) == y).astype(np.float64)
        seen = history.seen[ids]
        ema = history.ema[ids]
        loss_ema = np.where(seen, ema[:, 0], loss[r])
        margin_ema = np.where(seen, ema[:, 1], margin)
        correct_ema = np.where(seen, ema[:, 2], correct)
        grad_norm = np.linalg.norm(view.grad_h[r], axis=1)
        prior = stats.priors[y]
        mean_dist = (np.linalg.norm(view.h[r] - stats.means[y], axis=1)
                     / spread[y])
        raw = np.stack([
            loss[r], loss_ema, zscore[r], margin, margin_ema, entropy,
            q[idx, y], correct, correct_ema, grad_norm, prior,
            np.log(prior), mean_dist, np.full(ids.size, view.progress),
            rank[r],
        ], axis=1)
        return raw, history.normalize(raw)

    return CharacteristicsBatch(*kernels.by_row_blocks(block, n))


def update_history(history: History, ids: np.ndarray,
                   raw: np.ndarray) -> History:
    """Fold one extracted batch into the EMAs (EMA_DECAY, init-to-first)."""
    ids = np.asarray(ids, dtype=np.intp)
    if ids.size and (ids.min() < 0 or ids.max() >= history.capacity):
        raise KeyError(f"sample id out of range 0..{history.capacity - 1}")
    d = EMA_DECAY
    value = raw[:, EMA_SOURCES]
    history.ema[ids] = np.where(~history.seen[ids, None], value,
                                d * history.ema[ids] + (1 - d) * value)
    history.seen[ids] = True
    # the bits of raw.mean(axis=0), without its checks and casts
    mean = np.add.reduce(raw, axis=0) / raw.shape[0]
    mean_sq = np.add.reduce(raw ** 2, axis=0) / raw.shape[0]
    if history.norm_count == 0:
        history.norm_mean, history.norm_sq = mean, mean_sq
    else:
        history.norm_mean = d * history.norm_mean + (1 - d) * mean
        history.norm_sq = d * history.norm_sq + (1 - d) * mean_sq
    history.norm_count += 1
    return history
