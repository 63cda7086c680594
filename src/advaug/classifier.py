"""MLP feature extractor plus linear head: parameters and taped extractor.

The extractor maps inputs to features h (the representation the augmented
loss perturbs); the head maps h to logits. Parameters live in leaf Tensors
whose values optimizers update in place.

Training steps run the numpy kernels of `kernels` on the parameter values.
`extract_features` is the taped extractor of the reference loss builders;
off a tape it only computes. `detached_forward` runs it untaped and adds
the logits, for batch observation, diagnostics and evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .kernels import softmax_lse


@dataclass
class ClassifierParams:
    """Extractor layer (weight, bias) pairs and the final head (W, b).

    An empty extractor is the identity map (features = inputs), which
    requires feat_dim == in_dim.
    """

    extractor: list[tuple[Tensor, Tensor]]
    head_w: Tensor  # C x H
    head_b: Tensor  # C

    @property
    def feat_dim(self) -> int:
        return self.head_w.shape[1]

    @property
    def num_classes(self) -> int:
        return self.head_w.shape[0]

    def all_tensors(self) -> list[Tensor]:
        out = []
        for w, b in self.extractor:
            out.extend([w, b])
        out.extend([self.head_w, self.head_b])
        return out

    @classmethod
    def from_tensors(cls, tensors: list[Tensor]) -> ClassifierParams:
        """Inverse of all_tensors: (w, b) pairs, then head W and b."""
        return cls(list(zip(tensors[:-2:2], tensors[1:-2:2])),
                   tensors[-2], tensors[-1])

    def copy_values(self) -> list[np.ndarray]:
        return [t.value.copy() for t in self.all_tensors()]

    def load_values(self, values) -> None:
        for t, v in zip(self.all_tensors(), values):
            t.value = np.asarray(v, dtype=np.float64).copy()


def init_classifier(in_dim: int, num_classes: int, hidden=(64, 64),
                    feat_dim: int = 16, seed: int = 0) -> ClassifierParams:
    """He-initialized MLP; hidden=() with feat_dim==in_dim is identity."""
    rng = np.random.default_rng(seed)
    layers = []
    dims = [in_dim, *hidden, feat_dim]
    if hidden == () and feat_dim == in_dim:
        dims = []  # identity extractor
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        w = rng.normal(scale=np.sqrt(2.0 / d_in), size=(d_in, d_out))
        layers.append((Tensor(w), Tensor(np.zeros(d_out))))
    head_w = rng.normal(scale=np.sqrt(1.0 / feat_dim),
                        size=(num_classes, feat_dim))
    return ClassifierParams(layers, Tensor(head_w),
                            Tensor(np.zeros(num_classes)))


def extract_features(params: ClassifierParams, x) -> Tensor:
    """h = ReLU MLP over rows of x; identity when the extractor is empty."""
    h = x if isinstance(x, Tensor) else Tensor(x)
    if h.ndim != 2:
        raise ad.ShapeError(f"extract_features: expected 2-D input, got {h.shape}")
    if not params.extractor and h.shape[1] != params.feat_dim:
        raise ad.ShapeError(
            f"identity extractor needs width {params.feat_dim}, got {h.shape[1]}")
    for w, b in params.extractor:
        h = ad.relu(ad.add(ad.matmul(h, w), b))
    return h


def detached_forward(params: ClassifierParams,
                     x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Untaped features and logits (h, z) for observation and evaluation.

    The logits are h @ W.T + b, the product the kernels use too; the tape's
    `loss.base_logits` multiplies by a copied W.T, and under single-threaded
    BLAS the two differ in the last bits at two classes.
    """
    h = extract_features(params, x).value
    return h, h @ params.head_w.value.T + params.head_b.value


def ce_grad_wrt_features(params: ClassifierParams, z: np.ndarray,
                         labels: np.ndarray) -> np.ndarray:
    """Detached per-sample d(CE)/dh = (q - onehot(y)) W from logits z."""
    labels = np.asarray(labels, dtype=np.intp)
    q, _ = softmax_lse(z)
    q[np.arange(labels.size), labels] -= 1.0
    return q @ params.head_w.value


def save_checkpoint(params: ClassifierParams, path) -> None:
    """Exact float64 dump; round-trips bit-identically via load_checkpoint."""
    arrays = {f"p{i}": v for i, v in enumerate(params.copy_values())}
    arrays["layout"] = np.array([len(params.extractor)])
    np.savez(path, **arrays)


def load_checkpoint(path) -> ClassifierParams:
    with np.load(path) as blob:
        depth = int(blob["layout"][0])
        values = [blob[f"p{i}"] for i in range(2 * depth + 2)]
    return ClassifierParams.from_tensors([Tensor(v) for v in values])
