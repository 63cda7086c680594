"""Two-layer network mapping characteristics to per-sample eps in (-1, 1).

Its parameters are one float64 vector that Adam steps in place; the net
runs as `kernels.eps_forward`, with `loss.eps_forward` its taped reference.
Checkpoints use `classifier.save_checkpoint`.
"""

from __future__ import annotations

import numpy as np

from .characteristics import NUM_CHARACTERISTICS
from .classifier import FlatParams


class PerturbNetParams(FlatParams):
    """[w1 (15 x H1), b1 (H1), w2 (H1 x 1), b2 (1)]."""


def init_perturb_net(hidden: int, seed: int = 0) -> PerturbNetParams:
    """Layer 1 small random, layer 2 zero: training starts at eps == +0.0,
    and `training.full_train_eps` builds no characteristics until the first
    meta step moves layer 2."""
    rng = np.random.default_rng(seed)
    w1 = rng.normal(scale=0.1, size=(NUM_CHARACTERISTICS, hidden))
    return PerturbNetParams([w1, np.zeros(hidden), np.zeros((hidden, 1)),
                             np.zeros(1)])
