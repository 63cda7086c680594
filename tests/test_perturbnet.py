"""Perturbation network tests.

The range tests run the kernel forward that training uses; the gradient
and width tests run the taped reference `loss.eps_forward`.
"""

import numpy as np
import pytest

from advaug import autodiff as ad
from advaug import kernels
from advaug.autodiff import Tape, Tensor
from advaug.characteristics import NUM_CHARACTERISTICS
from advaug.classifier import load_checkpoint, save_checkpoint
from advaug.loss import eps_forward as taped_eps
from advaug.oracles import fd_gradient
from advaug.perturbation import PerturbNetParams, init_perturb_net


def eps_forward(params, f):
    return kernels.eps_forward(params.arrays(), f).eps


class TestEpsForward:
    def test_initial_network_outputs_zero(self):
        params = init_perturb_net(hidden=32, seed=0)
        f = np.random.default_rng(0).normal(size=(9, NUM_CHARACTERISTICS))
        eps = eps_forward(params, f)
        assert eps.shape == (9,)
        assert np.array_equal(eps, np.zeros(9))

    def test_saturated_preactivation_stays_strictly_inside_range(self):
        params = init_perturb_net(hidden=4, seed=1)
        _, _, w2, b2 = params.arrays()
        w2[:] = 0.0
        b2[:] = 1e6
        eps = eps_forward(params, np.zeros((3, NUM_CHARACTERISTICS)))
        assert np.all(eps < 1.0)
        assert np.all(eps > 0.99)
        b2[:] = -1e6
        eps = eps_forward(params, np.zeros((3, NUM_CHARACTERISTICS)))
        assert np.all(eps > -1.0)

    def test_strict_range_on_extreme_inputs(self):
        rng = np.random.default_rng(2)
        params = init_perturb_net(hidden=16, seed=2)
        w2 = params.arrays()[2]
        w2[...] = rng.normal(scale=50.0, size=w2.shape)
        f = rng.normal(scale=100.0, size=(20, NUM_CHARACTERISTICS))
        eps = eps_forward(params, f)
        assert np.all(np.abs(eps) < 1.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        params = init_perturb_net(hidden=8, seed=3)
        _, _, w2, b2 = params.arrays()
        w2[...] = rng.normal(scale=0.3, size=w2.shape)
        b2[...] = rng.normal(size=1)
        f = rng.normal(size=(5, NUM_CHARACTERISTICS))
        s = rng.normal(size=(5, 1))
        tensors = [Tensor(a) for a in params.arrays()]
        with Tape() as tape:
            target = ad.tsum(ad.mul(taped_eps(tensors, f), Tensor(s)))
            grads = tape.gradient(target, tensors)

        for t, g in zip(tensors, grads):
            def scalar(v, t=t):
                orig = t.value
                t.value = v
                out = float(np.sum(taped_eps(tensors, f).value * s))
                t.value = orig
                return out

            fd = fd_gradient(scalar, t.value.copy(), step=1e-5)
            denom = max(np.max(np.abs(fd)), 1e-12)
            assert np.max(np.abs(g.value - fd)) / denom < 1e-5

    def test_wrong_width_rejected(self):
        tensors = [Tensor(a) for a in init_perturb_net(hidden=100).arrays()]
        with pytest.raises(ad.ShapeError):
            taped_eps(tensors, np.zeros((2, NUM_CHARACTERISTICS + 1)))

    def test_deterministic(self):
        params = init_perturb_net(hidden=8, seed=4)
        f = np.random.default_rng(4).normal(size=(3, NUM_CHARACTERISTICS))
        a = eps_forward(params, f)
        b = eps_forward(params, f)
        assert a.tobytes() == b.tobytes()


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        params = init_perturb_net(hidden=12, seed=5)
        params.arrays()[2] += 0.25
        path = tmp_path / "omega.npz"
        save_checkpoint(params, path)
        back = load_checkpoint(path, PerturbNetParams)
        assert type(back) is PerturbNetParams
        for a, b in zip(params.arrays(), back.arrays(), strict=True):
            assert a.tobytes() == b.tobytes()


class TestLoadValues:
    def test_wrong_shape_rejected(self):
        params = init_perturb_net(hidden=3, seed=6)
        values = [np.zeros(a.shape) for a in params.arrays()]
        values[2] = np.zeros(3)  # w2 is 3 x 1
        with pytest.raises(ValueError):
            params.load_values(values)
