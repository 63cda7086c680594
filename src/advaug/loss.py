"""The taped reference of the model, and the surrogate's loss helpers.

Instead of drawing augmented features h~ ~ N(h + delta, alpha * Sigma_y)
and averaging CE over draws, the expected loss is upper-bounded in closed
form: each logit j gains a quadratic term alpha * rho_j, where
rho_j = 0.5 (w_j - w_y) Sigma_y (w_j - w_y)^T, and the final loss adds a
prior-based logit adjustment beta * log pi_j in place of 1/pi weighting.
The rho of every (label, class) pair comes from one tape op,
`autodiff.quad_form`, over the stacked (C, H, H) class covariances; its
VJPs are the same op, so it differentiates to any order.

The taped builders here (the extractor, the perturbation net, the adjusted
logits and the loss) are the reference: the model runs on the numpy
kernels of `kernels`, which the tests and the verify suites check against
them. They take flat Tensor lists in the kernels' parameter order. The
trainer uses nothing in this module; it forms delta as `compute_delta`
does, from the gradient signs its batch observation keeps.
`verification.gradient_suite` and the tests read it.

Stop-gradient placement: delta and the covariance stack enter as whatever
tensors the caller provides (constants, or leaves to differentiate); the
head weights inside the quadratic terms are always differentiated.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .characteristics import NUM_CHARACTERISTICS
from .kernels import RANGE_SCALE, extractor_layers


def extract_features(phi: list[Tensor], x) -> Tensor:
    """h = ReLU MLP over rows of x; identity when the extractor is empty.

    phi is the flat list [w_1, b_1, ..., w_k, b_k, W, b].
    """
    h = x if isinstance(x, Tensor) else Tensor(x)
    if h.ndim != 2:
        raise ad.ShapeError(f"extract_features: expected 2-D input, got {h.shape}")
    if len(phi) == 2 and h.shape[1] != phi[-2].shape[1]:
        raise ad.ShapeError(
            f"identity extractor needs width {phi[-2].shape[1]}, "
            f"got {h.shape[1]}")
    for w, b in extractor_layers(phi):
        h = ad.relu(ad.add(ad.matmul(h, w), b))
    return h


def eps_forward(omega: list[Tensor], characteristics) -> Tensor:
    """eps = scaled tanh(MLP(f)) of the net [w1, b1, w2, b2], one column."""
    f = (characteristics if isinstance(characteristics, Tensor)
         else Tensor(characteristics))
    if f.ndim != 2 or f.shape[1] != NUM_CHARACTERISTICS:
        raise ad.ShapeError(
            f"expected n x {NUM_CHARACTERISTICS} characteristics, got {f.shape}")
    w1, b1, w2, b2 = omega
    hidden = ad.relu(ad.add(ad.matmul(f, w1), b1))
    pre = ad.add(ad.matmul(hidden, w2), b2)
    return ad.mul(Tensor(RANGE_SCALE), ad.tanh(pre))


def compute_delta(grad_h: np.ndarray, eps) -> np.ndarray | Tensor:
    """n x H steps delta_i = eps_i * sign(g_i), the sign factor constant.

    eps > 0 points along the CE ascent direction (adversarial), eps < 0
    against it. A Tensor eps gives a Tensor delta, which keeps the
    dependence on the perturbation network alive for the meta-composition.
    """
    grad_h = np.asarray(grad_h, dtype=np.float64)
    n, width = grad_h.shape
    sgn = np.sign(grad_h)
    if isinstance(eps, Tensor):
        if eps.shape not in [(n,), (n, 1)]:
            raise ad.ShapeError(f"eps shape {eps.shape} for {n} samples")
        if np.max(np.abs(eps.value)) >= 1.0:
            raise ValueError("|eps| must be < 1")
        col = eps if eps.shape == (n, 1) else ad.reshape(eps, (n, 1))
        return ad.mul(ad.broadcast_to(col, (n, width)), Tensor(sgn))
    eps = np.asarray(eps, dtype=np.float64).reshape(n)
    if np.max(np.abs(eps), initial=0.0) >= 1.0:
        raise ValueError("|eps| must be < 1")
    return eps[:, None] * sgn


def quadratic_terms(w, sigma, labels: np.ndarray) -> Tensor:
    """n x C matrix of rho[i, j] = 0.5 (w_j - w_y) Sigma_y (w_j - w_y)^T.

    y = labels[i]; `sigma` stacks the class covariances, (C, H, H) for w of
    shape (C, H). One fused op builds the C x C table over (label, class)
    pairs and the labels pick its rows, so rho[i, labels[i]] is exactly zero
    and the Sigma of a class absent from `labels` gets an exactly zero
    cotangent.
    """
    w = w if isinstance(w, Tensor) else Tensor(w)
    table = ad.quad_form("a", u=w, v=w, s=sigma)
    return ad.gather_rows(table, labels)


def base_logits(w, b, h, delta) -> Tensor:
    """z = (h + delta) W^T + b."""
    shifted = h if delta is None else ad.add(h, delta)
    w = w if isinstance(w, Tensor) else Tensor(w)
    b = b if isinstance(b, Tensor) else Tensor(b)
    return ad.add(ad.matmul(shifted, ad.transpose(w)), b)


def adjusted_logits(w, b, h, delta, rho, priors: np.ndarray,
                    alpha: float, beta: float) -> Tensor:
    """Z~ = (h+delta) W^T + b + alpha*rho + beta*log(pi), rows n x C."""
    priors = np.asarray(priors, dtype=np.float64)
    if np.any(priors <= 0):
        raise ValueError("priors must be strictly positive")
    z = base_logits(w, b, h, delta)
    if rho is not None:
        z = ad.add(z, ad.mul(Tensor(alpha), rho))
    return ad.add(z, Tensor(beta * np.log(priors)))


def augmented_ce_loss(z_tilde: Tensor, labels: np.ndarray) -> Tensor:
    """Mean over the batch of -log softmax(Z~)[y], via log-sum-exp."""
    return ad.mean(ad.softmax_cross_entropy(z_tilde, labels))

