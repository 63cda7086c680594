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
    """The 15 raw scalars per sample, plus their normalized variants."""
    raw = np.empty((view.ids.size, NUM_CHARACTERISTICS))
    fill_rows(view, history, stats, raw)
    fill_set_columns(raw, view.labels)
    return CharacteristicsBatch(raw, history.normalize(raw))


def fill_rows(view: BatchView, history: History, stats: ClassStats,
              out: np.ndarray) -> None:
    """Write the raw characteristics of the view's rows into `out`, one
    row each, but for the loss z-score and the within-class loss rank,
    which read the loss of every row of the set (`fill_set_columns`).

    EMA-based entries fall back to the instantaneous value for samples the
    history has never seen.
    """
    z, q, ids = view.logits, view.q, view.ids
    y = np.asarray(view.labels, dtype=np.intp)
    idx = np.arange(ids.size)
    loss = view.lse - z[idx, y]
    masked = z.copy()
    masked[idx, y] = -np.inf
    margin = z[idx, y] - kernels.row_max(masked)
    correct = (z.argmax(axis=1) == y).astype(np.float64)
    seen = history.seen[ids]
    ema = history.ema[ids]
    prior = stats.priors[y]
    spread = np.sqrt(stats.traces() + 1e-12)
    columns = (
        loss,
        np.where(seen, ema[:, 0], loss),
        None,  # loss_zscore
        margin,
        np.where(seen, ema[:, 1], margin),
        -np.sum(q * np.log(np.maximum(q, 1e-300)), axis=1),
        q[idx, y],
        correct,
        np.where(seen, ema[:, 2], correct),
        np.linalg.norm(view.grad_h, axis=1),
        prior,
        np.log(prior),
        np.linalg.norm(view.h - stats.means[y], axis=1) / spread[y],
        view.progress,
        None,  # class_loss_rank
    )
    for k, column in enumerate(columns):
        if column is not None:
            out[:, k] = column


def fill_set_columns(raw: np.ndarray, labels: np.ndarray) -> None:
    """The loss z-score and the within-class loss rank of every row of the
    set, written into `raw` from its finished loss column.

    Ranks come from a stable sort by (label, loss), which breaks ties by
    position; a singleton class ranks 0.5.
    """
    labels = np.asarray(labels, dtype=np.intp)
    loss = raw[:, 0].copy()
    n = loss.size
    raw[:, 2] = (loss - loss.mean()) / (loss.std() + 1e-12)  # loss_zscore
    class_size = np.bincount(labels)
    position = np.empty(n, dtype=np.intp)
    position[np.lexsort((loss, labels))] = np.arange(n)
    within = position - (np.cumsum(class_size) - class_size)[labels]
    size = class_size[labels]
    raw[:, 14] = np.where(size == 1, 0.5,  # class_loss_rank
                          within / np.maximum(size - 1, 1))


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
