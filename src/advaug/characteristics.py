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
from .stats import ClassStats, traces

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
# columns of `History.ema`, in this order, and the columns of those EMAs
# (loss_ema, margin_ema, correct_ema).
EMA_SOURCES = np.array([0, 3, 7], dtype=np.intp)
EMA_COLUMNS = np.array([1, 4, 8], dtype=np.intp)
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
    label_index: np.ndarray  # flat (i, labels[i]) of the n x C tables
    grad_h: np.ndarray  # n x H detached CE gradient
    progress: float  # t / T2 in [0, 1]


class History:
    """Per-sample EMA trajectories plus feature-normalization EMAs.

    `ema` holds one row per sample: the EMAs of its loss, margin and
    correctness (the raw columns EMA_SOURCES). `norm_scale` is
    sqrt(max(norm_sq - norm_mean**2, 0) + 1e-12) as of the last
    `update_history`; before the first, `normalize` only clips.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.seen = np.zeros(capacity, dtype=bool)
        self.ema = np.zeros((capacity, len(EMA_SOURCES)))
        self.norm_count = 0
        self.norm_mean = np.zeros(NUM_CHARACTERISTICS)
        self.norm_sq = np.ones(NUM_CHARACTERISTICS)
        self.norm_scale = np.ones(NUM_CHARACTERISTICS)

    def normalize(self, raw: np.ndarray) -> np.ndarray:
        """The z-scores of raw characteristics, clipped to [-5, 5]."""
        out = raw - self.norm_mean
        out /= self.norm_scale
        return out.clip(-5.0, 5.0, out=out)


def extract(view: BatchView, history: History, stats: ClassStats,
            sigma: np.ndarray) -> np.ndarray:
    """The (n, 15) raw characteristics of one batch; `sigma` is the
    covariance stack of `stats` (`ClassStats.covariances`)."""
    raw = np.empty((view.ids.size, NUM_CHARACTERISTICS))
    fill_rows(view, history, stats, raw, sigma)
    fill_set_columns(raw, view.labels)
    return raw


def _row_norms(squares: np.ndarray, out: np.ndarray) -> None:
    """sqrt of the row sums of `squares` into `out`: the ops (and bits) of
    np.linalg.norm(x, axis=1) on the real x whose squares these are."""
    np.sqrt(np.add.reduce(squares, axis=1), out=out)


def fill_rows(view: BatchView, history: History, stats: ClassStats,
              out: np.ndarray, sigma: np.ndarray) -> None:
    """Write the raw characteristics of the view's rows into `out`, one
    row each, but for the loss z-score and the within-class loss rank,
    which read the loss of every row of the set (`fill_set_columns`).
    `sigma` is the covariance stack of `stats`, whose traces give the class
    spreads.

    EMA-based entries fall back to the instantaneous value for samples the
    history has never seen.
    """
    z, q, ids, label = view.logits, view.q, view.ids, view.label_index
    y = np.asarray(view.labels, dtype=np.intp)
    z_label = z.take(label)
    np.subtract(view.lse, z_label, out=out[:, 0])  # loss
    masked = z.copy()
    masked.ravel()[label] = -np.inf
    np.subtract(z_label, kernels.row_max(masked), out=out[:, 3])  # margin
    out[:, 7] = z.argmax(axis=1) == y  # correct
    out[:, EMA_COLUMNS] = np.where(history.seen.take(ids)[:, None],
                                   history.ema.take(ids, axis=0),
                                   out[:, EMA_SOURCES])
    plogq = np.maximum(q, 1e-300)
    np.log(plogq, out=plogq)
    plogq *= q
    np.negative(kernels.row_sum(plogq), out=out[:, 5])  # entropy
    out[:, 6] = q.take(label)  # true_class_prob
    _row_norms(np.square(view.grad_h), out[:, 9])  # grad_norm
    prior = stats.priors.take(y)
    out[:, 10] = prior
    np.log(prior, out=out[:, 11])
    offset = view.h - stats.means.take(y, axis=0)
    _row_norms(np.square(offset, out=offset), out[:, 12])
    spread = np.sqrt(traces(sigma) + 1e-12)
    out[:, 12] /= spread.take(y)  # class_mean_distance
    out[:, 13] = view.progress


def fill_set_columns(raw: np.ndarray, labels: np.ndarray,
                     class_rows: list[np.ndarray] | None = None) -> None:
    """The loss z-score and the within-class loss rank of every row of the
    set, written into `raw` from its finished loss column.

    A row's rank is its place among its class's losses in ascending order,
    ties broken by position and NaN last, over the class size less one; a
    singleton class ranks 0.5. Given `class_rows`, the rows of each class
    in ascending order (`Dataset.class_rows`), each class's losses are
    sorted on their own, by a stable sort only when they are not strictly
    increasing once sorted (a tie or a NaN); without it, one stable sort of
    all rows by (label, loss) ranks them, which costs a batch less than
    partitioning it would.
    """
    loss = raw[:, 0].copy()
    n = loss.size
    # loss.mean() and loss.std() in the ops of numpy's own _mean and _var
    centered = loss - np.add.reduce(loss) / n
    std = np.sqrt(np.add.reduce(centered * centered) / n)
    np.divide(centered, std + 1e-12, out=raw[:, 2])  # loss_zscore
    if class_rows is not None:
        for rows in class_rows:
            _rank_class(loss, rows, raw)
        return
    labels = np.asarray(labels, dtype=np.intp)
    class_size = np.bincount(labels)
    position = np.empty(n, dtype=np.intp)
    position[np.lexsort((loss, labels))] = np.arange(n)
    within = position - (np.cumsum(class_size) - class_size).take(labels)
    size = class_size.take(labels)
    raw[:, 14] = np.where(size == 1, 0.5,  # class_loss_rank
                          within / np.maximum(size - 1, 1))


def _rank_class(loss: np.ndarray, rows: np.ndarray, raw: np.ndarray) -> None:
    """The class_loss_rank of one class's rows (ascending) into `raw`."""
    size = rows.size
    if size < 2:
        raw[rows, 14] = 0.5
        return
    class_loss = loss.take(rows)
    order = class_loss.argsort()
    ordered = class_loss.take(order)
    # Distinct losses have one ascending order, which every sort finds.
    if not (ordered[1:] > ordered[:-1]).all():
        order = class_loss.argsort(kind="stable")
    position = np.empty(size, dtype=np.intp)
    position[order] = np.arange(size)
    raw[rows, 14] = position / (size - 1)


def update_history(history: History, ids: np.ndarray,
                   raw: np.ndarray) -> History:
    """Fold one extracted batch into the EMAs (EMA_DECAY, init-to-first)."""
    ids = np.asarray(ids, dtype=np.intp)
    # one reduction: a negative id reads as a huge unsigned one
    if ids.size and ids.view(np.uintp).max() >= history.capacity:
        raise KeyError(f"sample id out of range 0..{history.capacity - 1}")
    d = EMA_DECAY
    value = raw[:, EMA_SOURCES]
    ema = history.ema.take(ids, axis=0)
    ema *= d
    ema += (1 - d) * value
    history.ema[ids] = np.where(history.seen.take(ids)[:, None], ema, value)
    history.seen[ids] = True
    # the bits of raw.mean(axis=0), without its checks and casts
    mean = np.add.reduce(raw, axis=0) / raw.shape[0]
    mean_sq = np.add.reduce(np.square(raw), axis=0) / raw.shape[0]
    if history.norm_count == 0:
        history.norm_mean, history.norm_sq = mean, mean_sq
    else:
        history.norm_mean = d * history.norm_mean + (1 - d) * mean
        history.norm_sq = d * history.norm_sq + (1 - d) * mean_sq
    history.norm_count += 1
    var = np.maximum(history.norm_sq - np.square(history.norm_mean), 0.0)
    history.norm_scale = np.sqrt(var + 1e-12)
    return history
