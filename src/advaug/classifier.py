"""MLP feature extractor plus linear head: parameters and checkpoints.

The extractor maps inputs to features h (the representation the augmented
loss perturbs); the head maps h to logits. Each model's parameters live in
one contiguous float64 vector that its optimizer steps in place, seen by the
kernels as arrays that are views of it. `kernels.forward` runs the model for
every caller; the taped reference forward is `loss.extract_features`.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def flatten(arrays) -> np.ndarray:
    """The arrays' entries, one after another, in one new float64 vector."""
    return np.concatenate(arrays, axis=None, dtype=np.float64)


class FlatParams:
    """One model's parameters: a contiguous float64 `vector`, and views of it
    shaped as the model's arrays, in the kernels' order."""

    def __init__(self, arrays):
        self.__setstate__((flatten(arrays), [np.shape(a) for a in arrays]))

    # copy.deepcopy and pickle copy the vector alone and rebuild the views
    # on the copy: a copied view would no longer share the vector's memory.
    def __getstate__(self):
        return self.vector, self.shapes

    def __setstate__(self, state) -> None:
        self.vector, self.shapes = state
        ends = list(itertools.accumulate(math.prod(s) for s in self.shapes))
        self._parts = [(slice(start, end), shape) for start, end, shape
                       in zip([0] + ends, ends, self.shapes)]
        self._views = self.views(self.vector)

    def views(self, vector: np.ndarray) -> list[np.ndarray]:
        """Consecutive parts of `vector`, of this model's size, shaped as
        this model's arrays."""
        return [vector[part].reshape(shape) for part, shape in self._parts]

    def arrays(self) -> list[np.ndarray]:
        """The views of `vector`, in the kernels' order."""
        return self._views

    def load_values(self, values) -> None:
        """Write `values`, shaped as `arrays()`, into the vector. Any shape
        mismatch, which the write would broadcast, is refused before
        anything is written."""
        shapes = [np.shape(v) for v in values]
        if shapes != self.shapes:
            raise ValueError(f"parameter shapes differ: got {shapes}")
        self.vector[...] = flatten(values)


class ClassifierParams(FlatParams):
    """[w_1, b_1, ..., w_k, b_k, W, b]: extractor layer (weight, bias) pairs,
    then the head W (C x H) and b (C).

    No extractor layers is the identity map (features = inputs), which
    requires feat_dim == in_dim.
    """

    @property
    def head_w(self) -> np.ndarray:
        return self._views[-2]

    @property
    def feat_dim(self) -> int:
        return self.head_w.shape[1]

    @property
    def num_classes(self) -> int:
        return self.head_w.shape[0]


def init_classifier(in_dim: int, num_classes: int, hidden: tuple[int, ...],
                    feat_dim: int, seed: int = 0) -> ClassifierParams:
    """He-initialized MLP; hidden=() with feat_dim==in_dim is identity."""
    rng = np.random.default_rng(seed)
    arrays = []
    dims = [in_dim, *hidden, feat_dim]
    if hidden == () and feat_dim == in_dim:
        dims = []  # identity extractor
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        w = rng.normal(scale=np.sqrt(2.0 / d_in), size=(d_in, d_out))
        arrays.extend([w, np.zeros(d_out)])
    head_w = rng.normal(scale=np.sqrt(1.0 / feat_dim),
                        size=(num_classes, feat_dim))
    return ClassifierParams([*arrays, head_w, np.zeros(num_classes)])


def ce_grad_wrt_features(params: ClassifierParams, q: np.ndarray,
                         label: np.ndarray) -> np.ndarray:
    """Detached per-sample d(CE)/dh = (q - onehot(y)) W, from the softmax q
    of the logits; `label` is the flat index of each (i, y_i) entry of q
    (`kernels.label_index`)."""
    g = q.copy()
    g.ravel()[label] -= 1.0
    return g @ params.head_w


def save_checkpoint(params: FlatParams, path) -> None:
    """Exact float64 dump of the arrays as p0, p1, ...; round-trips
    bit-identically via load_checkpoint."""
    np.savez(path, **{f"p{i}": a for i, a in enumerate(params.arrays())})


def load_checkpoint(path, kind: type[FlatParams] = ClassifierParams
                    ) -> FlatParams:
    """The `kind` parameters saved at `path`. The array count comes from the
    keys; the `layout` key of older classifier files is ignored."""
    with np.load(path) as blob:
        count = len(blob.files) - ("layout" in blob.files)
        return kind([blob[f"p{i}"] for i in range(count)])
