"""Feature extractor, linear head, detached CE gradient, parameters,
checkpoints.

The extractor tests run the taped reference `loss.extract_features` on
Tensor leaves that share the parameter arrays.
"""

import numpy as np
import pytest

from advaug import autodiff as ad
from advaug import kernels
from advaug.autodiff import Tape, Tensor
from advaug.classifier import (ClassifierParams, ce_grad_wrt_features,
                               init_classifier, save_checkpoint)
from advaug.kernels import softmax_lse
from advaug.loss import base_logits
from advaug.loss import extract_features as taped_features


def leaves(params):
    """Tensor leaves over the parameter arrays, in the kernels' order."""
    return [Tensor(a) for a in params.arrays()]


def extract_features(params, x):
    return taped_features(leaves(params), x)


def logits(params, h):
    """The taped head z = h W^T + b, without a perturbation."""
    return base_logits(params.head_w, params.arrays()[-1], h, None)


def kernel_logits(params, h):
    return kernels.forward(params.arrays(), h)[2]


class TestExtractFeatures:
    def test_identity_extractor_returns_input(self):
        params = init_classifier(in_dim=4, num_classes=3, hidden=(),
                                 feat_dim=4, seed=0)
        x = np.random.default_rng(0).normal(size=(5, 4))
        h = extract_features(params, x)
        assert np.array_equal(h.value, x)

    def test_zero_weights_give_constant_bias_pattern(self):
        params = init_classifier(in_dim=3, num_classes=2, hidden=(8,),
                                 feat_dim=4, seed=1)
        for w in params.arrays()[:-2:2]:
            w[:] = 0.0
        params.arrays()[-3][:] = np.array([1.0, -1.0, 0.5, 2.0])
        h = extract_features(params, np.random.default_rng(1).normal(size=(6, 3)))
        assert np.allclose(h.value, np.maximum([1.0, -1.0, 0.5, 2.0], 0.0))
        assert np.ptp(h.value, axis=0).max() == 0.0

    def test_random_params_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        params = init_classifier(in_dim=3, num_classes=2, hidden=(5,),
                                 feat_dim=4, seed=2)
        x = rng.normal(size=(4, 3))
        # keep preactivations clear of relu kinks for the FD sweep
        s = rng.normal(size=(4, 4))
        tensors = leaves(params)

        def scalar():
            return float(np.sum(taped_features(tensors, x).value * s))

        with Tape() as tape:
            out = ad.tsum(ad.mul(taped_features(tensors, x), Tensor(s)))
            grads = tape.gradient(out, tensors)

        step = 1e-6
        for t, g in zip(tensors, grads):
            flat = t.value.reshape(-1)
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + step
                fp = scalar()
                flat[k] = orig - step
                fm = scalar()
                flat[k] = orig
                fd = (fp - fm) / (2 * step)
                assert g.value.reshape(-1)[k] == pytest.approx(fd, abs=1e-4)

    def test_width_mismatch_rejected(self):
        params = init_classifier(in_dim=4, num_classes=3, hidden=(),
                                 feat_dim=4)
        with pytest.raises(ad.ShapeError):
            extract_features(params, np.ones((2, 5)))

    def test_kernel_forward_matches_taped_forward(self):
        params = init_classifier(in_dim=3, num_classes=4, hidden=(8,),
                                 feat_dim=5, seed=4)
        x = np.random.default_rng(4).normal(size=(6, 3))
        with Tape():
            h = extract_features(params, x)
            z = logits(params, h)
        _, h_np, z_np = kernels.forward(params.arrays(), x)
        assert h_np.tobytes() == h.value.tobytes()
        assert np.allclose(z_np, z.value, rtol=0.0, atol=1e-12)


class TestLogits:
    def test_zero_features_give_bias(self):
        params = init_classifier(in_dim=4, num_classes=3, hidden=(), feat_dim=4)
        params.arrays()[-1][:] = np.array([0.1, -0.2, 0.3])
        z = logits(params, Tensor(np.zeros((2, 4))))
        assert np.allclose(z.value, [[0.1, -0.2, 0.3]] * 2)

    def test_identity_head_passes_basis_vector(self):
        params = init_classifier(in_dim=3, num_classes=3, hidden=(), feat_dim=3)
        params.head_w[...] = np.eye(3)
        params.arrays()[-1][:] = 0.0
        z = logits(params, Tensor(np.array([[0.0, 1.0, 0.0]])))
        assert np.allclose(z.value, [[0.0, 1.0, 0.0]])

    def test_matches_direct_matrix_multiply(self):
        rng = np.random.default_rng(3)
        params = init_classifier(in_dim=6, num_classes=4, hidden=(), feat_dim=6)
        h = rng.normal(size=(7, 6))
        z = logits(params, Tensor(h))
        expect = h @ params.head_w.T + params.arrays()[-1]
        assert np.allclose(z.value, expect, atol=1e-12)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        q, _ = softmax_lse(rng.normal(scale=5.0, size=(6, 5)))
        assert np.max(np.abs(q.sum(axis=1) - 1.0)) < 1e-12


class TestCeGradWrtFeatures:
    def test_zero_at_perfect_prediction(self):
        params = init_classifier(in_dim=2, num_classes=2, hidden=(), feat_dim=2)
        params.head_w[...] = np.array([[50.0, 0.0], [-50.0, 0.0]])
        params.arrays()[-1][:] = 0.0
        h = np.array([[10.0, 0.0]])  # q is onehot(0) to machine precision
        q, _ = softmax_lse(kernel_logits(params, h))
        g = ce_grad_wrt_features(params, q,
                                 kernels.label_index(np.array([0]), 2))
        assert np.max(np.abs(g)) < 1e-12

    def test_hand_evaluated_binary_case(self):
        params = init_classifier(in_dim=1, num_classes=2, hidden=(), feat_dim=1)
        params.head_w[...] = np.array([[1.0], [-1.0]])
        params.arrays()[-1][:] = 0.0
        # equal logits: q = (1/2, 1/2)
        g = ce_grad_wrt_features(params, np.array([[0.5, 0.5]]),
                                 kernels.label_index(np.array([0]), 2))
        assert g[0, 0] == pytest.approx(-1.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        params = init_classifier(in_dim=6, num_classes=4, hidden=(), feat_dim=6)
        h = rng.normal(size=(3, 6))
        y = np.array([1, 3, 0])
        g = ce_grad_wrt_features(params,
                                 softmax_lse(kernel_logits(params, h))[0],
                                 kernels.label_index(y, 4))

        def ce(hv):
            z = hv @ params.head_w.T + params.arrays()[-1]
            lse = np.log(np.exp(z - z.max(1, keepdims=True)).sum(1)) \
                + z.max(1)
            return float(np.sum(lse - z[np.arange(3), y]))

        step = 1e-6
        for i in range(3):
            for j in range(6):
                orig = h[i, j]
                h[i, j] = orig + step
                fp = ce(h)
                h[i, j] = orig - step
                fm = ce(h)
                h[i, j] = orig
                fd = (fp - fm) / (2 * step)
                denom = max(abs(fd), 1e-6)
                assert abs(g[i, j] - fd) / denom < 1e-6


class TestLoadValues:
    def test_writes_into_the_held_arrays(self):
        params = init_classifier(in_dim=3, num_classes=2, hidden=(4,),
                                 feat_dim=3, seed=7)
        held = params.arrays()
        params.load_values([np.full(a.shape, float(k))
                            for k, a in enumerate(held)])
        for k, (a, b) in enumerate(zip(held, params.arrays(), strict=True)):
            assert a is b
            np.testing.assert_array_equal(a, float(k))

    def test_wrong_shape_rejected_and_nothing_written(self):
        params = init_classifier(in_dim=3, num_classes=2, hidden=(4,),
                                 feat_dim=3, seed=8)
        before = [a.copy() for a in params.arrays()]
        scalar_bias = [np.zeros(a.shape) for a in before[:-1]] + [0.0]
        with pytest.raises(ValueError):
            params.load_values(scalar_bias)
        with pytest.raises(ValueError):
            params.load_values(before[:-1])
        for a, b in zip(before, params.arrays(), strict=True):
            np.testing.assert_array_equal(a, b)


class TestCheckpoint:
    """`save_checkpoint` writes p0, p1, ... in `arrays()` order, which
    `np.load` reads back."""

    @staticmethod
    def load(path):
        with np.load(path) as blob:
            return ClassifierParams([blob[f"p{i}"] for i in range(len(blob.files))])

    def test_exact_round_trip(self, tmp_path):
        params = init_classifier(in_dim=5, num_classes=3, hidden=(8, 8),
                                 feat_dim=4, seed=6)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(params, path)
        with np.load(path) as blob:
            assert set(blob.files) == {f"p{i}" for i in range(8)}
        back = self.load(path)
        for a, b in zip(params.arrays(), back.arrays(), strict=True):
            assert a.tobytes() == b.tobytes()
            assert a.shape == b.shape

    def test_identity_extractor_round_trip(self, tmp_path):
        params = init_classifier(in_dim=4, num_classes=3, hidden=(),
                                 feat_dim=4, seed=9)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(params, path)
        back = self.load(path)
        assert back.shapes == [(3, 4), (3,)]
        assert back.vector.tobytes() == params.vector.tobytes()
