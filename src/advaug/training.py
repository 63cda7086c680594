"""Bilevel meta-training loop, run on the closed-form numpy kernels.

Each meta iteration runs four stages:

1. Observe the batch: the kernel forward updates the running class
   statistics and the per-sample history, and yields the characteristics
   (normalized by the history from before the batch), the gradient signs
   and the extractor activations shared by the two classifier steps below;
   the classifier does not change before the final step, so neither runs
   the extractor again. Only the observation indexes the training set: the
   later stages read the batch's labels and input rows from it.
2. ``lookahead_meta_loss``: the surrogate loss and its gradient (the
   perturbation scale from the perturbation net, the class covariances
   stacked as (C, H, H), or their (C, H) diagonals in diagonal mode), the
   plain-SGD lookahead parameters phi' = phi - lr * grad_phi, cross-entropy
   on the balanced meta batch at phi' with its gradient v, and the
   hypergradient of that meta loss in the perturbation net and the
   covariance stack, taken forward-over-reverse (see `kernels`).
3. The net takes an Adam step, and the covariances of the classes in the
   batch take one SGD step as a stack, plus a PSD projection of the stack
   in one call that persists into the running class statistics: one
   batched eigendecomposition for full covariances, a clamp of the
   variances at zero for diagonal ones. A class whose hypergradient or
   stepped covariance is not finite keeps its covariance, and an event
   names it.
4. ``final_step``: the real classifier update (momentum SGD + weight decay)
   under the surrogate loss recomputed with the refreshed perturbation net
   and covariances.

Iterations up to the warm-up horizon use plain cross-entropy instead. Their
observation updates the statistics, and the history only in a run that later
meta-trains a live perturbation net (t1 < t2, eps not frozen), the history's
one reader; any other run builds no characteristics at all. The warm-up loss
takes its gradient from the observation's forward and softmax.
The per-epoch diagnostics and evaluation run the same kernel forward, the
diagnostics over the whole training set in row blocks, each of which writes
its rows of one characteristics table; while the perturbation net still
outputs zero (frozen, or before its first meta step) the diagnostics build
no characteristics at all. No stage records a tape op.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from . import kernels
from .characteristics import (NUM_CHARACTERISTICS, BatchView, History,
                              extract, fill_rows, fill_set_columns,
                              update_history)
from .classifier import (ClassifierParams, ce_grad_wrt_features, flatten,
                         init_classifier)
from .data import Dataset
from .kernels import softmax_lse
from .metrics import MetricsLog, evaluate
from .perturbation import PerturbNetParams, init_perturb_net
from .stats import (ClassStats, class_priors, project_diagonal, project_psd,
                    update_covariance)


class NumericalAbort(RuntimeError):
    """Raised when a training loss becomes non-finite.

    Names the stage, the iteration and the loss; `train` attaches the log
    of the epochs finished before it as `log`, as it does to an interrupt.
    """

    def __init__(self, stage: str, iteration: int, value: float):
        super().__init__(
            f"non-finite {stage} loss at iteration {iteration}: {value}")
        self.stage, self.iteration, self.value = stage, iteration, value
        self.log: MetricsLog | None = None


@dataclass
class TrainerConfig:
    """Hyperparameters of one training run, checked on construction.

    This is the only check on them; every float field must be finite.
    `config` derives the [model], [loss] and [training] keys, their casts
    and defaults from these fields, and its `RunConfig` holds the instance.
    """

    t1: int
    t2: int
    eta1: float = 0.03
    eta2: float = 1e-3
    batch_train: int = 64
    batch_meta: int = 32
    alpha: float = 0.25
    beta: float = 0.5
    momentum: float = 0.9
    weight_decay: float = 5e-4
    hidden: tuple[int, ...] = (32,)
    feat_dim: int = 16
    perturb_hidden: int = 100
    freeze_eps: bool = False
    diagonal_sigma: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        # f.type is the annotation's text (postponed annotations).
        non_finite = [f.name for f in fields(self) if f.type == "float"
                      and not math.isfinite(getattr(self, f.name))]
        if non_finite:
            raise ValueError(f"{', '.join(non_finite)} must be finite")
        if self.t2 < 1:
            raise ValueError("t2 must be >= 1")
        if self.t1 < 0:
            raise ValueError(f"t1 must be >= 0, got {self.t1}")
        if self.t1 > self.t2:
            raise ValueError("t1 must not exceed t2")
        if self.eta1 < 0 or self.eta2 < 0:
            raise ValueError("learning rates must be non-negative")
        if self.batch_train < 1 or self.batch_meta < 1:
            raise ValueError("batch sizes must be positive")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ValueError(
                f"weight_decay must be >= 0, got {self.weight_decay}")
        if (self.feat_dim < 1 or self.perturb_hidden < 1
                or any(width < 1 for width in self.hidden)):
            raise ValueError(
                "feat_dim, hidden and perturb_hidden widths must be >= 1")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be non-negative")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


class MomentumSgd:
    """SGD with classical momentum and decoupled-from-loss weight decay.

    Steps in place through one scratch vector, in the operation order of
    velocity = momentum * velocity + (grad + weight_decay * params),
    params -= lr * velocity.
    """

    def __init__(self, params: np.ndarray, momentum: float,
                 weight_decay: float):
        self.params = params
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = np.zeros_like(params)
        self._scratch = np.empty_like(params)

    def step(self, grad: np.ndarray, lr: float) -> None:
        scratch = self._scratch
        self.velocity *= self.momentum
        np.multiply(self.params, self.weight_decay, out=scratch)
        scratch += grad
        self.velocity += scratch
        np.multiply(self.velocity, lr, out=scratch)
        self.params -= scratch


class Adam:
    """Adam on the parameter vector, in place.

    Steps through two scratch vectors, in the operation order of
    params -= lr * (m / c1) / (sqrt(v / c2) + EPS).
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: np.ndarray, lr: float):
        self.params = params
        self.lr = lr
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self.t = 0
        self._scratch = (np.empty_like(params), np.empty_like(params))

    def step(self, grad: np.ndarray) -> None:
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        step, scale = self._scratch
        self.m *= b1
        np.multiply(grad, 1.0 - b1, out=step)
        self.m += step
        self.v *= b2
        np.square(grad, out=scale)
        scale *= 1.0 - b2
        self.v += scale
        np.divide(self.m, c1, out=step)
        step *= self.lr
        np.divide(self.v, c2, out=scale)
        np.sqrt(scale, out=scale)
        scale += self.EPS
        step /= scale
        self.params -= step


@dataclass
class MetaState:
    """Everything a run mutates: parameters, statistics, optimizers, RNGs."""

    config: TrainerConfig
    params: ClassifierParams
    perturb: PerturbNetParams
    stats: ClassStats
    history: History
    priors: np.ndarray
    shift: np.ndarray  # beta * log(priors), the surrogate's logit offset
    dataset: Dataset
    metadata: Dataset
    sgd: MomentumSgd
    adam: Adam
    batch_rng: np.random.Generator
    meta_rng: np.random.Generator
    t: int = 0
    events: list[str] = field(default_factory=list)
    last_view: BatchView | None = None  # for the epoch row's _regularizer_row
    last_train_loss: float = math.nan


class Lookahead(NamedTuple):
    """One lookahead and the hypergradients the meta update reads."""

    meta_loss: float
    pseudo_params: list[np.ndarray]
    omega_grads: list[np.ndarray] | None  # None when eps is frozen
    sigma_grad: np.ndarray  # shaped as sigma; zero for classes not in batch
    sigma: np.ndarray  # the class covariances, (C, H, H) or (C, H) diagonals


class Observation(NamedTuple):
    """What the batch observation hands to the later stages of its
    iteration, which run at the same classifier parameters: their one
    source of the batch (labels in `view`, input rows in `acts[0]`)."""

    # the batch's labels, logits, their softmax and the detached CE
    # gradient w.r.t. the features (view.grad_h)
    view: BatchView
    acts: list[np.ndarray]  # extractor activations; acts[0] = x, acts[-1] = h
    # Meta path only (None in a warm-up step):
    characteristics: np.ndarray | None  # n x 15 normalized; None if eps frozen
    sign: np.ndarray | None  # sign(grad_h): delta_i = eps_i * sign_i
    dw: np.ndarray | None  # head differences W_j - W_k, see kernels
    masks: list[np.ndarray] | None  # kernels.relu_masks(acts)


def init_state(config: TrainerConfig, dataset: Dataset,
               metadata: Dataset) -> MetaState:
    if metadata.dim != dataset.dim:
        raise ValueError("metadata dimensionality differs from train data")
    keys = [int(k) for k in
            np.random.SeedSequence(config.seed).generate_state(4)]
    params = init_classifier(dataset.dim, dataset.num_classes,
                             hidden=config.hidden, feat_dim=config.feat_dim,
                             seed=keys[0])
    perturb = init_perturb_net(hidden=config.perturb_hidden, seed=keys[1])
    stats = ClassStats(dataset.num_classes, params.feat_dim,
                       diagonal=config.diagonal_sigma)
    history = History(capacity=dataset.n)
    priors = class_priors(dataset.class_counts)
    sgd = MomentumSgd(params.vector, config.momentum, config.weight_decay)
    adam = Adam(perturb.vector, lr=config.eta2)
    return MetaState(
        config=config, params=params, perturb=perturb, stats=stats,
        history=history, priors=priors,
        shift=config.beta * np.log(priors), dataset=dataset,
        metadata=metadata,
        sgd=sgd, adam=adam,
        batch_rng=np.random.default_rng(np.random.SeedSequence(keys[2])),
        meta_rng=np.random.default_rng(np.random.SeedSequence(keys[3])))


# The classifier's learning rate is eta1, times DECAY_FACTOR from each
# fraction of t2 in DECAY_POINTS on.
DECAY_POINTS = (0.8, 0.9)
DECAY_FACTOR = 0.01


def learning_rate(config: TrainerConfig, t: int) -> float:
    lr = config.eta1
    for frac in DECAY_POINTS:
        if t >= int(round(frac * config.t2)):
            lr *= DECAY_FACTOR
    return lr


def sample_train_batch(state: MetaState) -> np.ndarray:
    size = min(state.config.batch_train, state.dataset.n)
    return state.batch_rng.choice(state.dataset.n, size=size, replace=False)


def sample_meta_batch(state: MetaState) -> np.ndarray:
    size = min(state.config.batch_meta, state.metadata.n)
    return state.meta_rng.choice(state.metadata.n, size=size, replace=False)


def _batch_view(state: MetaState, ids: np.ndarray
                ) -> tuple[BatchView, list[np.ndarray]]:
    """Kernel forward of the training rows `ids` under the current state,
    as one block: the view, and the extractor activations, which the
    classifier steps of a batch observation reuse.

    The softmax is taken once, for both the view and the detached feature
    gradient.
    """
    y = state.dataset.labels[ids]
    acts, h, z = kernels.forward(state.params.arrays(),
                                 state.dataset.features.take(ids, axis=0))
    q, lse = softmax_lse(z)
    view = BatchView(ids=ids, h=h, logits=z, q=q, lse=lse, labels=y,
                     grad_h=ce_grad_wrt_features(state.params, q, y),
                     progress=state.t / state.config.t2)
    return view, acts


def _observe_batch(state: MetaState, batch_idx: np.ndarray,
                   meta: bool = True) -> Observation:
    """Update the class statistics from the batch forward, and the
    per-sample history (EMAs and normalization statistics) only while the
    perturbation net, their one reader, is live (t1 < t2, eps not frozen);
    otherwise no characteristics are built and `History` stays empty.

    Returns the batch view (labels, logits, softmax and the per-sample CE
    gradients w.r.t. features) and the extractor activations, valid until
    the classifier steps. For a meta iteration (`meta`) it also returns the
    normalized characteristics the perturbation net reads, the gradients'
    signs, and the differences of the head W and the ReLU masks of the
    activations, which the iteration's surrogate and hypergradient kernels
    share; a warm-up step reads none of them, so none is built. The view
    stays in `last_view` for the epoch row's regularizer split.
    """
    view, acts = _batch_view(state, batch_idx)
    update_covariance(state.stats, view.h, view.labels)
    state.last_view = view
    characteristics = None
    if state.config.t1 < state.config.t2 and not state.config.freeze_eps:
        raw = extract(view, state.history, state.stats)
        if meta:  # normalized by the statistics from before this batch
            characteristics = state.history.normalize(raw)
        update_history(state.history, batch_idx, raw)
    if not meta:
        return Observation(view, acts, None, None, None, None)
    return Observation(view, acts, characteristics,
                       np.sign(view.grad_h),
                       kernels.differences(state.params.head_w),
                       kernels.relu_masks(acts))


def _check_finite_loss(state: MetaState, loss: float, stage: str) -> None:
    if not np.isfinite(loss):
        raise NumericalAbort(stage, state.t, loss)


def warmup_step(state: MetaState, batch_idx: np.ndarray) -> None:
    """One plain cross-entropy step (also used for the CE baseline).

    The observation's forward and softmax ran at the step's parameters, so
    the loss takes its gradient from them.
    """
    view, acts = _observe_batch(state, batch_idx, meta=False)[:2]
    train = kernels.cross_entropy_tail(state.params.arrays(), view.labels,
                                       acts, view.h, view.logits, view.q,
                                       view.lse)
    _check_finite_loss(state, train.value, "warm-up")
    state.sgd.step(flatten(train.grads), learning_rate(state.config, state.t))
    state.last_train_loss = train.value


def _surrogate(state: MetaState, obs: Observation) -> tuple[
        kernels.ClassifierPass, kernels.PerturbPass | None, np.ndarray]:
    """The surrogate loss pass on the observed batch under the current state.

    Returns (pass, perturbation-net pass or None, covariance stack).
    """
    cfg = state.config
    net = delta = None
    if not cfg.freeze_eps:
        net = kernels.eps_forward(state.perturb.arrays(), obs.characteristics)
        delta = net.eps[:, None] * obs.sign
    sigma = state.stats.covariances()
    train = kernels.surrogate(
        state.params.arrays(), obs.acts[0], obs.view.labels, delta, sigma,
        state.shift, cfg.alpha, acts=obs.acts, dw=obs.dw, masks=obs.masks)
    _check_finite_loss(state, train.value, "train")
    return train, net, sigma


def lookahead_meta_loss(state: MetaState, obs: Observation,
                        meta_idx: np.ndarray) -> Lookahead:
    """Meta cross-entropy at the lookahead parameters, and its hypergradients.

    The lookahead is phi' = phi - lr * grad_phi(surrogate loss). The
    hypergradients of the meta loss in the perturbation net and in the
    covariance stack come from one forward-over-reverse product (see
    `kernels`). Reads the state without changing it.
    """
    cfg = state.config
    lr = learning_rate(cfg, state.t)
    train, net, sigma = _surrogate(state, obs)
    phi = state.params.arrays()
    pseudo = state.params.views(state.params.vector
                                - lr * flatten(train.grads))
    meta = kernels.cross_entropy(pseudo, state.metadata.features[meta_idx],
                                 state.metadata.labels[meta_idx])
    _check_finite_loss(state, meta.value, "meta")
    d_delta, d_sigma = kernels.hypergradient(
        phi, obs.view.labels, train, meta.grads, sigma, cfg.alpha, obs.dw)
    omega_grads = None
    if net is not None:
        # delta_i = eps_i * sign(g_i), the sign factor constant
        d_eps = np.add.reduce(d_delta * obs.sign, axis=1)
        omega_grads = kernels.eps_backward(
            state.perturb.arrays(), net, -lr * d_eps)
    return Lookahead(meta.value, pseudo, omega_grads, -lr * d_sigma, sigma)


def final_step(state: MetaState, obs: Observation) -> None:
    """Real classifier update with refreshed perturbations/covariances."""
    train, _, _ = _surrogate(state, obs)
    state.sgd.step(flatten(train.grads), learning_rate(state.config, state.t))
    state.last_train_loss = train.value


def meta_iteration(state: MetaState, batch_idx: np.ndarray,
                   meta_idx: np.ndarray) -> None:
    """Observe, look ahead, update omega and Sigma, step the classifier."""
    obs = _observe_batch(state, batch_idx)
    ahead = lookahead_meta_loss(state, obs, meta_idx)
    # Frozen perturbations are zero: the net has no path to the meta loss.
    if ahead.omega_grads is not None:
        omega_grad = flatten(ahead.omega_grads)
        if np.isfinite(omega_grad).all():
            state.adam.step(omega_grad)
        else:
            state.events.append(
                f"iteration {state.t}: non-finite perturbation-net "
                "hypergradient, update skipped")
    _step_covariances(state, obs, ahead)
    final_step(state, obs)


def _step_covariances(state: MetaState, obs: Observation,
                      ahead: Lookahead) -> None:
    """The Sigma step of the classes in the batch, as one stack.

    No rho row reads the covariance of a class absent from the batch, so
    its hypergradient is exactly zero and it keeps its value; a class in
    the batch has samples, hence an estimate to step. A class whose
    hypergradient or candidate is not finite keeps its covariance, and an
    event names it, in ascending class order. The finite candidates are
    projected in one call, so an eigendecomposition that fails keeps the
    covariance of every class in the step.
    """
    stats = state.stats
    project, name = ((project_diagonal, "project_diagonal") if stats.diagonal
                     else (project_psd, "project_psd"))
    present = np.bincount(obs.view.labels,
                          minlength=stats.num_classes).nonzero()[0]
    grad = ahead.sigma_grad[present]
    candidate = ahead.sigma[present] - state.config.eta2 * grad
    per_class = tuple(range(1, grad.ndim))
    grad_ok = np.isfinite(grad).all(axis=per_class)
    ok = grad_ok & np.isfinite(candidate).all(axis=per_class)
    failure = None
    try:
        projected = project(candidate[ok])
    except np.linalg.LinAlgError as exc:
        failure = exc
    else:
        stats.set_covariance(present[ok], projected)
    if failure is None and ok.all():
        return
    reasons = [failure if fine else f"{name}: non-finite input"
               for fine in ok]
    for c, why, finite_grad in zip(present, reasons, grad_ok):
        if why is None:
            continue
        state.events.append(
            f"iteration {state.t}: covariance projection failed for class "
            f"{c} ({why}), keeping previous value" if finite_grad else
            f"iteration {state.t}: non-finite covariance hypergradient for "
            f"class {c}, update skipped")


def full_train_characteristics(state: MetaState) -> np.ndarray:
    """The (n, 15) raw characteristics of every training sample under the
    current state; no EMA update.

    Each block of `kernels.row_blocks` rows runs the kernel forward and
    writes its rows of the table; the loss z-score and the within-class
    loss rank are then filled from the finished loss column.
    """
    n = state.dataset.n
    raw = np.empty((n, NUM_CHARACTERISTICS))
    for rows in kernels.row_blocks(n):
        # the block's activations are freed before its columns are written
        view = _batch_view(state, np.arange(rows.start, rows.stop))[0]
        fill_rows(view, state.history, state.stats, raw[rows])
    fill_set_columns(raw, state.dataset.labels)
    return raw


def full_train_eps(state: MetaState) -> np.ndarray:
    """Perturbation scale for every training sample under current state.

    No EMA update; used for per-epoch diagnostics. The characteristics are
    normalized and run through the net in row blocks.

    Frozen perturbations are zero, and so is the net's output while its
    output weights and bias are zero, as `init_perturb_net` leaves them
    until the first meta step: tanh(hidden w2 + b2) is +0.0 on every row
    whose hidden activations are finite. Then no characteristics are built;
    a row whose characteristics are not finite reads 0.0 here, where the net
    would give nan.
    """
    omega = state.perturb.arrays()
    if state.config.freeze_eps or not (omega[2].any() or omega[3].any()):
        return np.zeros(state.dataset.n)
    raw = full_train_characteristics(state)
    eps = np.empty(state.dataset.n)
    for rows in kernels.row_blocks(state.dataset.n):
        eps[rows] = kernels.eps_forward(
            omega, state.history.normalize(raw[rows])).eps
    return eps


def _epoch_row(state: MetaState, epoch: int, phase: str,
               eval_data: Dataset | None) -> dict:
    num_classes = state.dataset.num_classes
    row = {"epoch": epoch, "iteration": state.t, "phase": phase,
           "train_loss": state.last_train_loss,
           "test_loss": math.nan, "test_accuracy": math.nan,
           "worst_group_accuracy": math.nan,
           "eps_noisy_mean": math.nan, "eps_clean_mean": math.nan}
    for c in range(num_classes):
        row[f"recall_{c}"] = math.nan
    if eval_data is not None:
        report = evaluate(state.params, eval_data.features, eval_data.labels,
                          eval_data.group_ids)
        row["test_loss"] = report["loss"]
        row["test_accuracy"] = report["accuracy"]
        row["worst_group_accuracy"] = report["worst_group_accuracy"]
        for c in range(num_classes):
            row[f"recall_{c}"] = float(report["per_class_recall"][c])

    eps = full_train_eps(state)
    labels = state.dataset.labels
    for c in range(num_classes):
        eps_c = eps[labels == c]
        row[f"mean_eps_{c}"] = float(eps_c.mean()) if eps_c.size else math.nan
        row[f"adv_ratio_{c}"] = (float((eps_c > 0).mean()) if eps_c.size
                                 else math.nan)
    if state.dataset.noise_mask is not None:
        noisy = state.dataset.noise_mask
        if noisy.any():
            row["eps_noisy_mean"] = float(eps[noisy].mean())
        if (~noisy).any():
            row["eps_clean_mean"] = float(eps[~noisy].mean())

    row.update(_regularizer_row(state, eps))
    return row


def _regularizer_row(state: MetaState, eps_all: np.ndarray) -> dict:
    """Diagnostic decomposition of the surrogate on the last observed batch."""
    view = state.last_view
    cfg = state.config
    y = view.labels
    delta = eps_all[view.ids][:, None] * np.sign(view.grad_h)
    dw = kernels.differences(state.params.head_w)
    rho = kernels.quad("a", du=dw, dv=dw, s=state.stats.covariances())[y]
    _, _, z = kernels.forward(state.params.arrays(),
                              state.dataset.features[view.ids], delta,
                              cfg.alpha * rho + state.shift)
    q, _ = softmax_lse(z)
    # The three wrong-class sums; every own-class summand is an exact zero
    # (rho_yy, w_y - w_y and log pi_y - log pi_y), so no mask is needed.
    gen = np.sum(q * rho, axis=1).sum()
    rob = np.sum(q * np.einsum("ijh,ih->ij", dw[y], delta), axis=1).sum()
    log_ratio = np.log(state.priors) - np.log(state.priors[y])[:, None]
    fair = np.sum(q * log_ratio, axis=1).sum()
    # Scale by the loss coefficients so ablation toggles zero the columns.
    return {"gen_term": cfg.alpha * float(gen), "rob_term": float(rob),
            "fair_term": cfg.beta * float(fair)}


def train(config: TrainerConfig, dataset: Dataset, metadata: Dataset,
          eval_data: Dataset | None = None) -> tuple[MetaState, MetricsLog]:
    """Run the full schedule: warm-up then meta iterations, logged per epoch.

    A NumericalAbort, or a KeyboardInterrupt from the state's set-up on,
    carries the log of the epochs finished before it as `log`; an interrupt
    also carries its iteration as `iteration`, as an abort does (0 before
    the first iteration).
    """
    log = MetricsLog(dataset.num_classes)
    iters_per_epoch = max(1, round(dataset.n / config.batch_train))
    epoch, state = 0, None
    try:
        state = init_state(config, dataset, metadata)
        for t in range(1, config.t2 + 1):
            state.t = t
            batch_idx = sample_train_batch(state)
            if t <= config.t1:
                warmup_step(state, batch_idx)
                phase = "warmup"
            else:
                meta_idx = sample_meta_batch(state)
                meta_iteration(state, batch_idx, meta_idx)
                phase = "meta"
            if t % iters_per_epoch == 0 or t == config.t2:
                epoch += 1
                log.append(_epoch_row(state, epoch, phase, eval_data))
    except (NumericalAbort, KeyboardInterrupt) as exc:
        exc.log, exc.iteration = log, 0 if state is None else state.t
        raise
    finally:
        if state is not None:
            log.events.extend(state.events)
    return state, log
