"""Two-layer network mapping characteristics to per-sample eps in (-1, 1).

Parameters are float64 arrays that Adam updates in place; the net runs as
`kernels.eps_forward`, with `loss.eps_forward` its taped reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .characteristics import NUM_CHARACTERISTICS
from .classifier import load_arrays


@dataclass
class PerturbNetParams:
    w1: np.ndarray  # 15 x H1
    b1: np.ndarray  # H1
    w2: np.ndarray  # H1 x 1
    b2: np.ndarray  # 1

    def arrays(self) -> list[np.ndarray]:
        """[w1, b1, w2, b2], the kernels' flat order."""
        return [self.w1, self.b1, self.w2, self.b2]

    def load_values(self, values) -> None:
        load_arrays(self.arrays(), values)


def init_perturb_net(hidden: int = 100, seed: int = 0) -> PerturbNetParams:
    """Layer 1 small random, layer 2 zero: training starts at eps == 0."""
    rng = np.random.default_rng(seed)
    w1 = rng.normal(scale=0.1, size=(NUM_CHARACTERISTICS, hidden))
    return PerturbNetParams(w1, np.zeros(hidden), np.zeros((hidden, 1)),
                            np.zeros(1))


def save_checkpoint(params: PerturbNetParams, path) -> None:
    arrays = {f"p{i}": v for i, v in enumerate(params.arrays())}
    np.savez(path, **arrays)


def load_checkpoint(path) -> PerturbNetParams:
    with np.load(path) as blob:
        values = [blob[f"p{i}"] for i in range(4)]
    return PerturbNetParams(*values)
