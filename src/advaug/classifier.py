"""MLP feature extractor plus linear head: parameters and checkpoints.

The extractor maps inputs to features h (the representation the augmented
loss perturbs); the head maps h to logits. Parameters are float64 arrays
that the optimizers update in place. `kernels.forward` runs the model for
every caller; the taped reference forward is `loss.extract_features`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def load_arrays(targets: list[np.ndarray], values) -> None:
    """Write `values` into `targets` in place: the optimizers hold the same
    arrays. Any shape mismatch, which the write would broadcast, is refused
    before anything is written."""
    values = [np.asarray(v, dtype=np.float64) for v in values]
    shapes = [v.shape for v in values]
    if shapes != [t.shape for t in targets]:
        raise ValueError(f"parameter shapes differ: got {shapes}")
    for target, value in zip(targets, values):
        target[...] = value


@dataclass
class ClassifierParams:
    """Extractor layer (weight, bias) pairs and the final head (W, b).

    An empty extractor is the identity map (features = inputs), which
    requires feat_dim == in_dim.
    """

    extractor: list[tuple[np.ndarray, np.ndarray]]
    head_w: np.ndarray  # C x H
    head_b: np.ndarray  # C

    @property
    def feat_dim(self) -> int:
        return self.head_w.shape[1]

    @property
    def num_classes(self) -> int:
        return self.head_w.shape[0]

    def arrays(self) -> list[np.ndarray]:
        """[w_1, b_1, ..., w_k, b_k, W, b], the kernels' flat order."""
        out = []
        for w, b in self.extractor:
            out.extend([w, b])
        out.extend([self.head_w, self.head_b])
        return out

    @classmethod
    def from_arrays(cls, arrays: list[np.ndarray]) -> ClassifierParams:
        """Inverse of arrays: (w, b) pairs, then head W and b."""
        return cls(list(zip(arrays[:-2:2], arrays[1:-2:2])),
                   arrays[-2], arrays[-1])

    def load_values(self, values) -> None:
        load_arrays(self.arrays(), values)


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
        layers.append((w, np.zeros(d_out)))
    head_w = rng.normal(scale=np.sqrt(1.0 / feat_dim),
                        size=(num_classes, feat_dim))
    return ClassifierParams(layers, head_w, np.zeros(num_classes))


def ce_grad_wrt_features(params: ClassifierParams, q: np.ndarray,
                         labels: np.ndarray) -> np.ndarray:
    """Detached per-sample d(CE)/dh = (q - onehot(y)) W, from the softmax q
    of the logits."""
    labels = np.asarray(labels, dtype=np.intp)
    g = q.copy()
    g[np.arange(labels.size), labels] -= 1.0
    return g @ params.head_w


def save_checkpoint(params: ClassifierParams, path) -> None:
    """Exact float64 dump; round-trips bit-identically via load_checkpoint."""
    arrays = {f"p{i}": v for i, v in enumerate(params.arrays())}
    arrays["layout"] = np.array([len(params.extractor)])
    np.savez(path, **arrays)


def load_checkpoint(path) -> ClassifierParams:
    with np.load(path) as blob:
        depth = int(blob["layout"][0])
        values = [blob[f"p{i}"] for i in range(2 * depth + 2)]
    return ClassifierParams.from_arrays(values)
