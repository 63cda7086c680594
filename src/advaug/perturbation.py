"""Two-layer network mapping characteristics to per-sample eps in (-1, 1)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .characteristics import NUM_CHARACTERISTICS
from .kernels import RANGE_SCALE


@dataclass
class PerturbNetParams:
    w1: Tensor  # 15 x H1
    b1: Tensor  # H1
    w2: Tensor  # H1 x 1
    b2: Tensor  # 1

    def all_tensors(self) -> list[Tensor]:
        return [self.w1, self.b1, self.w2, self.b2]

    def copy_values(self) -> list[np.ndarray]:
        return [t.value.copy() for t in self.all_tensors()]

    def load_values(self, values) -> None:
        for t, v in zip(self.all_tensors(), values):
            t.value = np.asarray(v, dtype=np.float64).copy()


def init_perturb_net(hidden: int = 100, seed: int = 0) -> PerturbNetParams:
    """Layer 1 small random, layer 2 zero: training starts at eps == 0."""
    rng = np.random.default_rng(seed)
    w1 = rng.normal(scale=0.1, size=(NUM_CHARACTERISTICS, hidden))
    return PerturbNetParams(Tensor(w1), Tensor(np.zeros(hidden)),
                            Tensor(np.zeros((hidden, 1))),
                            Tensor(np.zeros(1)))


def eps_forward(params: PerturbNetParams, characteristics) -> Tensor:
    """eps = scaled tanh(MLP(f)), one column per batch, strictly in (-1, 1)."""
    f = (characteristics if isinstance(characteristics, Tensor)
         else Tensor(characteristics))
    if f.ndim != 2 or f.shape[1] != NUM_CHARACTERISTICS:
        raise ad.ShapeError(
            f"expected n x {NUM_CHARACTERISTICS} characteristics, got {f.shape}")
    hidden = ad.relu(ad.add(ad.matmul(f, params.w1), params.b1))
    pre = ad.add(ad.matmul(hidden, params.w2), params.b2)
    return ad.mul(Tensor(RANGE_SCALE), ad.tanh(pre))


def save_checkpoint(params: PerturbNetParams, path) -> None:
    arrays = {f"p{i}": v for i, v in enumerate(params.copy_values())}
    np.savez(path, **arrays)


def load_checkpoint(path) -> PerturbNetParams:
    with np.load(path) as blob:
        values = [blob[f"p{i}"] for i in range(4)]
    return PerturbNetParams(*[Tensor(v) for v in values])
