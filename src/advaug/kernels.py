"""Closed-form numpy kernels for the fixed model, run by every caller.

The model is fixed: a ReLU MLP extractor, a linear head, the two-layer tanh
perturbation net and the closed-form surrogate loss of `loss`. `forward`
computes its logits for the training steps, the batch observation, the
per-epoch diagnostics and evaluation; the other kernels compute its values
and first derivatives directly, and the one-step lookahead hypergradient by
forward-over-reverse: with phi' = phi - lr * grad_phi L_train and
v = grad L_meta(phi'),

    d L_meta / d omega = -lr * d s / d omega,
    s = <grad_phi L_train, v> = sum_i (q_i - e_(y_i)) . zdot_i / n,

where zdot is the JVP of the adjusted logits along v (Pearlmutter's R-op).
Only delta(omega) is live in s, so first derivatives suffice; the class
covariances are online estimates (`stats`), not meta-learned.
The taped builders of `loss` are the reference these kernels are checked
against.

Classifier parameters are passed as the flat list of arrays
[w_1, b_1, ..., w_k, b_k, W, b] (`ClassifierParams.arrays`); an empty
extractor is the identity map.

The kernels keep the bits of their plain numpy forms at fewer numpy calls:
label sums go through `sum_by_label`, one bincount in np.add.at's order;
reductions call np.add.reduce, which np.sum and ndarray.sum reach through
Python wrappers, but the row maxima, and from FOLD_ROWS rows the row sums,
of a table of a few columns are folds of its columns (`row_max`, `row_sum`);
the ReLU masks of activations that several kernels reuse are built once by
`relu_masks`. The operands the surrogate passes and the hypergradient of one
batch share, at one W, covariance stack and labels, are built once, by
`operands`, the one place that makes them.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

# tanh saturates to exactly 1.0 in float64; this keeps |eps| strictly < 1
RANGE_SCALE = 1.0 - 1e-9

# Rows per block of a pass over the whole training set (the per-epoch
# diagnostics). Whole-set temporaries are mapped fresh and trimmed again on
# every pass; those of one block are reused from the heap. Chosen by
# measurement (CHANGES.md). A multiple of the BLAS kernels' row unrolling,
# so every row of a blocked product rounds as in the whole-set product.
BLOCK_ROWS = 768

# Rows from which `row_sum` folds a table of 1 to 7 columns: measured, the fold
# beats a row reduction from about 80 rows at 2 columns, 140 at 5, 190 at 7.
FOLD_ROWS = 192


def row_blocks(n: int) -> list[slice]:
    """Consecutive row slices covering range(n), BLOCK_ROWS rows each.

    A last block of one row joins the one before it: the product of a
    single row takes another BLAS path, which rounds differently.
    """
    if n <= BLOCK_ROWS + 1:
        return [slice(0, n)]
    edges = list(range(0, n, BLOCK_ROWS)) + [n]
    if n - edges[-2] == 1:
        del edges[-2]
    return [slice(start, stop) for start, stop in zip(edges, edges[1:])]


def row_max(z: np.ndarray) -> np.ndarray:
    """z.max(axis=1) of an (n, C) table of few columns, as the elementwise
    maxima of its columns: the same values, at a tenth of the cost of a
    reduction along rows of a few entries when n is in the thousands."""
    return functools.reduce(np.maximum, z.T)


def row_sum(x: np.ndarray) -> np.ndarray:
    """np.add.reduce(x, axis=1), bit for bit: numpy adds fewer than 8 entries
    left to right from +0.0, as the column folds of a tall table do."""
    if x.shape[0] < FOLD_ROWS or not 0 < x.shape[1] < 8:
        return np.add.reduce(x, axis=1)
    total = x[:, 0] + 0.0
    for col in x.T[1:]:
        total += col
    return total


def softmax_lse(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row softmax q and log-sum-exp of logits z, from one exp pass."""
    top = row_max(z)[:, None]
    q = z - top
    np.exp(q, out=q)
    total = row_sum(q)
    q /= total[:, None]
    return q, np.log(total) + top[:, 0]


def differences(u: np.ndarray) -> np.ndarray:
    """The (C, C, H) pairwise differences d[k, j] = u_j - u_k of the rows
    of u, the operand `quad` takes for u or v."""
    return u[None, :, :] - u[:, None, :]


def quad(slot: str, a=None, du=None, dv=None, s=None) -> np.ndarray:
    """Gradient w.r.t. `slot` ("a", "u" or "v") of the form

        T(a, u, v, s) = 1/2 sum_k sum_j a_kj (u_j - u_k)^T s_k (v_j - v_k),

    with a (C, C), u and v (C, H), s (C, H, H), given the other inputs; u
    and v are given as their `differences`, du and dv, which a caller
    builds once for all its forms on the same operand. T is linear in each
    input, so slot "a" gives the (label, class) table of the ISDA quadratic
    terms when u = v = W and s stacks the class covariances. Diagonal
    covariances are given as their diagonals, s (C, H).
    """
    def times_s(d, transposed=False):
        """Each row d[k, j] times s_k (or s_k^T)."""
        if s.ndim == 2:
            return d * s[:, None, :]
        return d @ (s.transpose(0, 2, 1) if transposed else s)

    if slot == "a":
        return 0.5 * np.add.reduce(times_s(du) * dv, axis=-1)
    terms = 0.5 * a[..., None] * (times_s(dv, transposed=True) if slot == "u"
                                  else times_s(du))
    return np.add.reduce(terms, axis=0) - np.add.reduce(terms, axis=1)


def label_index(labels: np.ndarray, width: int) -> np.ndarray:
    """Flat index of each row's label entry in an (n, width) table."""
    return np.arange(0, labels.size * width, width) + labels


def label_bins(labels: np.ndarray, width: int) -> np.ndarray:
    """Flat (label, column) bins of an (n, width) table, for `sum_by_label`."""
    return (labels[:, None] * width + np.arange(width)).ravel()


def sum_by_label(rows: np.ndarray, bins: np.ndarray,
                 count: int) -> np.ndarray:
    """Sum the rows of `rows` by label into a (count, width) table, given
    the `label_bins` of the labels at the rows' width.

    One bincount over the flat (label, column) bins adds the rows of each
    bin in row order, starting from +0.0: the order, hence the bits, of
    np.add.at on a zero table. A label outside range(count) raises
    ValueError.
    """
    n, width = rows.shape
    if not n:  # a bincount of no entries gives integer zeros
        return np.zeros((count, width))
    out = np.bincount(bins, weights=rows.ravel(), minlength=count * width)
    if out.size != count * width:
        raise ValueError(f"sum_by_label: a label is >= {count}")
    return out.reshape(count, width)


def extractor_layers(phi: list[np.ndarray]
                     ) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (w, b) pairs of the extractor in the flat parameter list phi."""
    return list(zip(phi[:-2:2], phi[1:-2:2]))


def mlp_forward(layers, x: np.ndarray) -> list[np.ndarray]:
    """Activations [x, a_1, ..., a_k] of the ReLU extractor; the last is h.

    Bias and ReLU run in place on each layer's fresh product, so x and the
    parameters are only read.
    """
    acts = [x]
    for w, b in layers:
        a = acts[-1] @ w
        a += b
        np.maximum(a, 0.0, out=a)
        acts.append(a)
    return acts


def relu_masks(acts: list[np.ndarray]) -> list[np.ndarray]:
    """The ReLU masks of the extractor layers acts[1:], as float64 ones and
    zeros: a product with them has the bits of one with the bool mask, at
    less cost, so a caller that reuses activations builds them once."""
    return [(a > 0).astype(np.float64) for a in acts[1:]]


def mlp_backward(layers, acts, masks: list[np.ndarray],
                 grad_h: np.ndarray) -> list[np.ndarray]:
    """[dw_1, db_1, ..., dw_k, db_k] of <grad_h, h>; `masks` are the
    `relu_masks` of acts."""
    grads: list[np.ndarray] = []
    g = grad_h
    for depth in range(len(layers), 0, -1):
        g = g * masks[depth - 1]
        grads[:0] = [acts[depth - 1].T @ g, np.add.reduce(g, axis=0)]
        if depth > 1:
            g = g @ layers[depth - 1][0].T
    return grads


def mlp_jvp(layers, acts, masks: list[np.ndarray],
            tangent: list[np.ndarray]) -> np.ndarray | None:
    """Tangent of h along the extractor parameter direction `tangent`.

    None for the identity extractor, whose features have no parameters.
    `masks` are as in `mlp_backward`.
    """
    h_dot = None
    for depth, (w, _) in enumerate(layers):
        pre = acts[depth] @ tangent[2 * depth] + tangent[2 * depth + 1]
        if h_dot is not None:
            pre += h_dot @ w
        h_dot = pre * masks[depth]
    return h_dot


class PerturbPass(NamedTuple):
    """Forward of the perturbation net: eps and what its backward reads."""

    eps: np.ndarray  # n
    f: np.ndarray  # n x 15 characteristics
    hidden: np.ndarray  # n x H1 relu outputs
    t: np.ndarray  # n x 1 tanh outputs


def eps_forward(omega: list[np.ndarray], f: np.ndarray) -> PerturbPass:
    """eps = RANGE_SCALE * tanh(relu(f w1 + b1) w2 + b2), per row of f.

    Like `mlp_forward`, each layer works in place on its fresh product.
    """
    w1, b1, w2, b2 = omega
    hidden = f @ w1
    hidden += b1
    np.maximum(hidden, 0.0, out=hidden)
    t = hidden @ w2
    t += b2
    np.tanh(t, out=t)
    return PerturbPass((RANGE_SCALE * t)[:, 0], f, hidden, t)


def eps_backward(omega: list[np.ndarray], fwd: PerturbPass,
                 grad_eps: np.ndarray) -> list[np.ndarray]:
    """[dw1, db1, dw2, db2] of <grad_eps, eps>."""
    g = (RANGE_SCALE * grad_eps)[:, None] * (1.0 - fwd.t * fwd.t)
    # the outer product with the one output weight column, broadcast: each
    # entry is the one product a K = 1 matmul forms, at half its cost
    g_hidden = g * omega[2].T
    g_hidden *= fwd.hidden > 0
    return [fwd.f.T @ g_hidden, np.add.reduce(g_hidden, axis=0),
            fwd.hidden.T @ g, np.add.reduce(g, axis=0)]


class ClassifierPass(NamedTuple):
    """Forward and gradient of a mean cross-entropy of the classifier."""

    value: float
    grads: list[np.ndarray]  # d value / d phi, in phi's order
    acts: list[np.ndarray]  # extractor activations; acts[-1] = h
    masks: list[np.ndarray]  # relu_masks(acts)
    feats: np.ndarray  # h + delta, the head's input
    q: np.ndarray  # softmax of the logits
    g: np.ndarray  # d value / d logits = (q - onehot(y)) / n


def forward(phi: list[np.ndarray], x: np.ndarray,
            delta: np.ndarray | None = None,
            offset: np.ndarray | None = None,
            acts: list[np.ndarray] | None = None
            ) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """The classifier on the rows of x: (acts, feats, z).

    acts are the extractor activations (acts[-1] = h), feats = h + delta is
    the head's input and z = feats W^T + b + offset the logits. A caller
    that holds the activations of x at phi passes them as `acts`, and the
    extractor does not run again.
    """
    w, b = phi[-2:]
    if acts is None:
        acts = mlp_forward(extractor_layers(phi), x)
    feats = acts[-1] if delta is None else acts[-1] + delta
    z = feats @ w.T
    z += b
    if offset is not None:
        z += offset
    return acts, feats, z


def cross_entropy(phi: list[np.ndarray], x: np.ndarray,
                  y: np.ndarray) -> ClassifierPass:
    """Mean CE of the classifier's logits on the rows of x against y: the
    forward and the softmax, handed to `cross_entropy_tail`, which a caller
    holding the logits of x at phi and their softmax calls alone."""
    acts, feats, z = forward(phi, x)
    return cross_entropy_tail(phi, label_index(y, z.shape[1]), acts,
                              relu_masks(acts), feats, z, *softmax_lse(z))


def cross_entropy_tail(phi: list[np.ndarray], label: np.ndarray,
                       acts: list[np.ndarray], masks: list[np.ndarray],
                       feats: np.ndarray, z: np.ndarray, q: np.ndarray,
                       lse: np.ndarray) -> ClassifierPass:
    """The value and gradient of the mean CE of logits z against the labels
    whose `label_index` in z is `label`, given the `forward` (acts, feats,
    z) that made them, the `relu_masks` of acts and their `softmax_lse`
    (q, lse); the gradient tail of every CE and surrogate pass. Only reads
    its inputs."""
    n = label.size
    value = float(np.add.reduce(lse - z.take(label)) / n)
    g = q.copy()
    g.ravel()[label] -= 1.0
    g /= n
    grads = (mlp_backward(extractor_layers(phi), acts, masks, g @ phi[-2])
             + [g.T @ feats, np.add.reduce(g, axis=0)])
    return ClassifierPass(value, grads, acts, masks, feats, q, g)


class Operands(NamedTuple):
    """What the surrogate passes and hypergradient of a batch share."""

    y: np.ndarray  # n labels
    label: np.ndarray  # their `label_index` in the (n, C) tables
    bins: np.ndarray  # their `label_bins` at width C, for the class sums
    dw: np.ndarray  # the head's `differences`, (C, C, H)
    sigma: np.ndarray  # covariance stack, (C, H, H) or (C, H) diagonals
    rho: np.ndarray  # (n, C) ISDA quadratic terms of the labels
    offset: np.ndarray  # (n, C) logit offset alpha * rho + shift
    alpha: float


def operands(w: np.ndarray, y: np.ndarray, label: np.ndarray,
             sigma: np.ndarray, shift: np.ndarray, alpha: float) -> Operands:
    """The `Operands` of labels y, `label` their `label_index` at width C,
    at head w, covariance stack `sigma`, alpha and logit shift (beta log pi),
    with rho[i, j] = 1/2 (w_j - w_y) Sigma_y (w_j - w_y)^T for y = y[i]."""
    dw = differences(w)
    rho = quad("a", du=dw, dv=dw, s=sigma)[y]
    return Operands(y, label, label_bins(y, w.shape[0]), dw, sigma, rho,
                    alpha * rho + shift, alpha)


def surrogate(phi: list[np.ndarray], x: np.ndarray, delta: np.ndarray | None,
              ops: Operands, acts: list[np.ndarray] | None = None,
              masks: list[np.ndarray] | None = None) -> ClassifierPass:
    """The surrogate loss: CE of (h + delta) W^T + b + alpha rho + shift
    against the labels of `ops`, the `operands` at phi's head.

    The head's gradient includes its path through rho, weighted by alpha
    times the class sums of the logit gradient; Sigma_c must be symmetric,
    as `stats.update_covariance` builds it. A caller holding the extractor
    activations of x at phi passes them and their `relu_masks`.
    """
    acts, feats, z = forward(phi, x, delta, ops.offset, acts)
    if masks is None:
        masks = relu_masks(acts)
    out = cross_entropy_tail(phi, ops.label, acts, masks, feats, z,
                             *softmax_lse(z))
    a = ops.alpha * sum_by_label(out.g, ops.bins, phi[-2].shape[0])
    g = quad("u", a=a, dv=ops.dw, s=ops.sigma)
    out.grads[-2] += g + g  # the u and v forms: equal bits
    return out


def hypergradient(phi: list[np.ndarray], train: ClassifierPass,
                  v: list[np.ndarray], ops: Operands) -> np.ndarray:
    """ds/d(delta) for s = <grad_phi L_train, v>.

    `train` is the `surrogate` pass of L_train at phi on the operands
    `ops`. The lookahead hypergradient is -lr times this; eps reaches s
    through delta only.
    """
    layers, w = extractor_layers(phi), phi[-2]
    w_dot, b_dot = v[-2:]
    z_dot = train.feats @ w_dot.T + b_dot
    h_dot = mlp_jvp(layers, train.acts, train.masks, v[:-2])
    if h_dot is not None:
        z_dot += h_dot @ w.T
    dw_dot, dw, sigma = differences(w_dot), ops.dw, ops.sigma
    rho_dot = (quad("a", du=dw_dot, dv=dw, s=sigma)
               + quad("a", du=dw, dv=dw_dot, s=sigma))
    z_dot += ops.alpha * rho_dot[ops.y]
    # s = sum_i g_i . zdot_i: its partials in zdot and in the logits
    q = train.q
    d_z = (q * (z_dot - np.add.reduce(q * z_dot, axis=1, keepdims=True))
           / ops.y.size)
    return d_z @ w + train.g @ w_dot
