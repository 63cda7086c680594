"""Engine tests: frozen analytic values, finite-difference oracles, tape rules."""

from collections import Counter

import numpy as np
import pytest

from advaug import autodiff as ad
from advaug.autodiff import Tape, Tensor
from advaug.loss import quadratic_terms


def fd_gradient(f, arrays, which, step=1e-5):
    """Central finite differences of scalar f(arrays) w.r.t. arrays[which]."""
    x = arrays[which]
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + step
        fp = f(arrays)
        x[idx] = orig - step
        fm = f(arrays)
        x[idx] = orig
        grad[idx] = (fp - fm) / (2.0 * step)
    return grad


def rel_err(analytic, numeric):
    denom = max(np.max(np.abs(numeric)), 1e-12)
    return np.max(np.abs(analytic - numeric)) / denom


def check_primitive_grad(build, arrays, tol=1e-4):
    """Compare taped gradients of sum(build(tensors) * S) against FD."""
    rng = np.random.default_rng(0)
    with Tape() as tape:
        tensors = [Tensor(a) for a in arrays]
        out = build(*tensors)
        s = Tensor(rng.normal(size=out.shape))
        target = ad.tsum(ad.mul(out, s))
        grads = tape.gradient(target, tensors)

    def scalar(arrs):
        vals = [Tensor(a) for a in arrs]
        return float(np.sum(build(*vals).value * s.value))

    for i in range(len(arrays)):
        fd = fd_gradient(scalar, [a.copy() for a in arrays], i)
        assert rel_err(grads[i].value, fd) < tol, f"input {i}"


class TestForward:
    def test_identity_matmul_leaves_input_unchanged(self):
        x = Tensor([[3.0, -1.5]])
        out = ad.matmul(x, Tensor(np.eye(2)))
        assert np.array_equal(out.value, x.value)

    def test_tanh_at_zero(self):
        assert ad.tanh(Tensor(0.0)).value == 0.0

    def test_logsumexp_large_logits_no_overflow(self):
        out = ad.logsumexp(Tensor([1000.0, 1000.0]), axis=0)
        assert np.isfinite(out.value)
        assert out.value == pytest.approx(1000.0 + np.log(2.0), abs=1e-12)

    def test_logsumexp_shift_invariance(self):
        rng = np.random.default_rng(3)
        z = rng.normal(scale=4.0, size=(5, 7))
        m = z.max(axis=1, keepdims=True)
        full = ad.logsumexp(Tensor(z), axis=1).value
        shifted = ad.logsumexp(Tensor(z - m), axis=1).value + m.squeeze(1)
        assert np.max(np.abs(full - shifted)) < 1e-12

    def test_matmul_shape_mismatch_rejected(self):
        with pytest.raises(ad.ShapeError):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 2))))

    def test_add_shape_mismatch_rejected(self):
        with pytest.raises(ad.ShapeError):
            ad.add(Tensor(np.ones((3,))), Tensor(np.ones((4,))))


class TestBackward:
    def test_square_gradient(self):
        with Tape() as tape:
            x = Tensor(3.0)
            y = ad.mul(x, x)
            (g,) = tape.gradient(y, [x])
        assert g.value == pytest.approx(6.0)

    def test_softmax_ce_gradient_uniform_logits(self):
        with Tape() as tape:
            logits = Tensor([[0.0, 0.0, 0.0, 0.0]])
            loss = ad.softmax_cross_entropy(logits, np.array([0]))
            (g,) = tape.gradient(loss, [logits])
        assert np.allclose(g.value, [[-0.75, 0.25, 0.25, 0.25]], atol=1e-12)

    def test_unreached_source_gets_zeros(self):
        with Tape() as tape:
            x = Tensor([1.0, 2.0])
            z = Tensor([5.0])
            u = Tensor([[3.0, 4.0, 5.0]])
            ad.mul(u, u)  # on the tape, but no path to y
            y = ad.tsum(x)
            gx, gz, gu = tape.gradient(y, [x, z, u])
            (only_u,) = tape.gradient(y, [u])
        assert np.array_equal(gx.value, [1.0, 1.0])
        assert np.array_equal(gz.value, [0.0])
        assert np.array_equal(gu.value, np.zeros((1, 3)))
        assert np.array_equal(only_u.value, np.zeros((1, 3)))

    def test_three_layer_net_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(5, 4))
        labels = rng.integers(0, 3, size=5)
        params = [rng.normal(size=s) * 0.5 for s in
                  [(4, 8), (8,), (8, 6), (6,), (6, 3), (3,)]]

        def net(tensors):
            w1, b1, w2, b2, w3, b3 = tensors
            h = ad.tanh(ad.add(ad.matmul(Tensor(x), w1), b1))
            h = ad.tanh(ad.add(ad.matmul(h, w2), b2))
            logits = ad.add(ad.matmul(h, w3), b3)
            return ad.mean(ad.softmax_cross_entropy(logits, labels))

        with Tape() as tape:
            tensors = [Tensor(p) for p in params]
            loss = net(tensors)
            grads = tape.gradient(loss, tensors)

        def scalar(arrs):
            return float(net([Tensor(a) for a in arrs]).value)

        for i in range(len(params)):
            fd = fd_gradient(scalar, [p.copy() for p in params], i)
            assert rel_err(grads[i].value, fd) < 1e-5, f"param {i}"


class TestPrimitiveGradients:
    """Every primitive vs central FD, step 1e-5, inputs in [-2, 2]."""

    rng = np.random.default_rng(11)

    def u(self, *shape):
        return self.rng.uniform(-2.0, 2.0, size=shape)

    def test_add(self):
        check_primitive_grad(ad.add, [self.u(3, 4), self.u(3, 4)])

    def test_add_broadcast(self):
        check_primitive_grad(ad.add, [self.u(3, 4), self.u(4)])

    def test_sub(self):
        check_primitive_grad(ad.sub, [self.u(3, 4), self.u(1, 4)])

    def test_mul(self):
        check_primitive_grad(ad.mul, [self.u(5), self.u(5)])

    def test_mul_broadcast_scalar(self):
        check_primitive_grad(ad.mul, [self.u(3, 2), self.u()])

    def test_neg(self):
        check_primitive_grad(ad.neg, [self.u(6)])

    def test_matmul(self):
        check_primitive_grad(ad.matmul, [self.u(3, 4), self.u(4, 2)])

    def test_transpose(self):
        check_primitive_grad(ad.transpose, [self.u(3, 5)])

    def test_reshape(self):
        check_primitive_grad(lambda a: ad.reshape(a, (2, 6)), [self.u(3, 4)])

    def test_broadcast_to(self):
        check_primitive_grad(lambda a: ad.broadcast_to(a, (4, 3)), [self.u(1, 3)])

    def test_tanh(self):
        check_primitive_grad(ad.tanh, [self.u(7)])

    def test_relu_away_from_kink(self):
        x = self.u(9)
        x[np.abs(x) < 0.2] += 0.5
        check_primitive_grad(ad.relu, [x])

    def test_exp(self):
        check_primitive_grad(ad.exp, [self.u(5)])

    def test_sum_all(self):
        check_primitive_grad(ad.tsum, [self.u(3, 4)])

    def test_sum_axis_keepdims(self):
        check_primitive_grad(lambda a: ad.tsum(a, axis=0, keepdims=True),
                             [self.u(3, 4)])

    def test_sum_negative_axis(self):
        check_primitive_grad(lambda a: ad.tsum(a, axis=-1), [self.u(3, 4)])

    def test_mean_axis(self):
        check_primitive_grad(lambda a: ad.mean(a, axis=1), [self.u(3, 4)])

    def test_logsumexp_rows(self):
        check_primitive_grad(lambda a: ad.logsumexp(a, axis=1), [self.u(4, 6)])

    def test_logsumexp_keepdims(self):
        check_primitive_grad(lambda a: ad.logsumexp(a, axis=0, keepdims=True),
                             [self.u(4, 3)])

    def test_gather_rows_with_repeats(self):
        idx = np.array([0, 2, 1, 0])
        check_primitive_grad(lambda a: ad.gather_rows(a, idx), [self.u(3, 4)])

    def test_scatter_rows(self):
        idx = np.array([4, 0, 4])
        check_primitive_grad(lambda a: ad.scatter_rows(a, idx, 5), [self.u(3, 2)])

    def test_softmax_cross_entropy(self):
        labels = np.array([2, 0, 1])
        check_primitive_grad(
            lambda a: ad.softmax_cross_entropy(a, labels), [self.u(3, 4)])

    def test_quad_form_every_slot(self):
        # s is not symmetric, so a transpose slip in a VJP shows.
        inputs = {"a": self.u(4, 4), "u": self.u(4, 3), "v": self.u(4, 3),
                  "s": self.u(4, 3, 3)}
        for slot in inputs:
            names = [n for n in inputs if n != slot]
            check_primitive_grad(
                lambda *ts, slot=slot, names=names: ad.quad_form(
                    slot, **dict(zip(names, ts))),
                [inputs[n] for n in names])


class TestSecondOrder:
    def test_cube_second_derivative(self):
        with Tape() as tape:
            x = Tensor(2.0)
            f = ad.mul(ad.mul(x, x), x)
            (g1,) = tape.gradient(f, [x])
            (g2,) = tape.gradient(g1, [x])
        assert g1.value == pytest.approx(12.0)
        assert g2.value == pytest.approx(12.0)

    def test_mixed_partial_through_inner_gradient(self):
        # f(a, x) = (a x)^2; d/dx f = 2 a^2 x; d/da of that = 4 a x = 8
        with Tape() as tape:
            a = Tensor(1.0)
            x = Tensor(2.0)
            ax = ad.mul(a, x)
            f = ad.mul(ax, ax)
            (dfdx,) = tape.gradient(f, [x])
            (mixed,) = tape.gradient(dfdx, [a])
        assert mixed.value == pytest.approx(8.0)

    def test_nested_tapes_second_derivative(self):
        with Tape() as outer:
            x = Tensor(2.0)
            with Tape() as inner:
                f = ad.mul(ad.mul(x, x), x)
            (g1,) = inner.gradient(f, [x])
            (g2,) = outer.gradient(g1, [x])
        assert g2.value == pytest.approx(12.0)

    def test_hypergradient_matches_finite_differences(self):
        # two-parameter meta objective differentiated through one SGD step
        c = np.array([0.7, -1.3])
        t = np.array([0.2, 0.4])
        lr = 0.1

        def pipeline(theta_val):
            with Tape() as tape:
                theta = Tensor(theta_val)
                train = ad.tsum(ad.mul(ad.tanh(theta), Tensor(c)))
                (g,) = tape.gradient(train, [theta])
                stepped = ad.sub(theta, ad.mul(Tensor(lr), g))
                diff = ad.sub(stepped, Tensor(t))
                meta = ad.tsum(ad.mul(diff, diff))
                (hyper,) = tape.gradient(meta, [theta])
            return float(meta.value), hyper.value

        theta0 = np.array([0.3, -0.5])
        _, analytic = pipeline(theta0)

        def scalar(arrs):
            return pipeline(arrs[0])[0]

        fd = fd_gradient(scalar, [theta0.copy()], 0)
        assert rel_err(analytic, fd) < 1e-3


class TestPruning:
    """A sweep builds only the cotangents that reach its sources."""

    def test_no_cotangent_built_for_non_source_input(self):
        rng = np.random.default_rng(4)
        with Tape() as outer:
            x = Tensor(rng.normal(size=(3, 4)))
            w = Tensor(rng.normal(size=(4, 2)))
            loss = ad.tsum(ad.matmul(x, w))
            forward = len(outer.nodes)
            (gw,) = outer.gradient(loss, [w])
        ops = Counter(node.op for node in outer.nodes[forward:])
        # One matmul for w's cotangent, none for x's.
        assert ops["matmul"] == 1
        assert ops["transpose"] == 1
        assert np.array_equal(gw.value, x.value.T @ np.ones((3, 2)))

    def test_second_order_through_pruned_sweep(self):
        # d/dw <grad_w L, v> with L = sum(tanh(x w)); the first sweep skips
        # the cotangent of the constant input x.
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 4))
        v = rng.normal(size=(4, 2))

        def grad_w(w_val):
            with Tape() as tape:
                w = Tensor(w_val)
                loss = ad.tsum(ad.tanh(ad.matmul(Tensor(x), w)))
            return tape.gradient(loss, [w])[0].value

        w0 = rng.normal(size=(4, 2)) * 0.5
        with Tape() as tape:
            w = Tensor(w0)
            loss = ad.tsum(ad.tanh(ad.matmul(Tensor(x), w)))
            (g,) = tape.gradient(loss, [w])
            (hvp,) = tape.gradient(ad.tsum(ad.mul(g, Tensor(v))), [w])

        def scalar(arrs):
            return float(np.sum(grad_w(arrs[0]) * v))

        fd = fd_gradient(scalar, [w0.copy()], 0)
        assert rel_err(hvp.value, fd) < 1e-6


class TestQuadForm:
    """The fused quadratic-form op behind loss.quadratic_terms."""

    rng = np.random.default_rng(12)
    labels = np.array([0, 2, 2, 1, 0])  # class 3 absent

    def case(self):
        c, width = 4, 3
        w = self.rng.normal(size=(c, width))
        sigma = self.rng.normal(size=(c, width, width))
        weights = self.rng.normal(size=(self.labels.size, c))
        probe = self.rng.normal(size=(c, width))
        return w, sigma, weights, probe

    def loss(self, w, sigma, weights):
        rho = quadratic_terms(w, sigma, self.labels)
        return ad.tsum(ad.tanh(ad.mul(rho, Tensor(weights))))

    def probe_grad(self, w_val, sigma_val, weights, probe):
        """<grad_W L, probe> and its gradients w.r.t. W and Sigma."""
        with Tape() as tape:
            w, sigma = Tensor(w_val), Tensor(sigma_val)
            (gw,) = tape.gradient(self.loss(w, sigma, weights), [w])
            inner = ad.tsum(ad.mul(gw, Tensor(probe)))
            dw, dsigma = tape.gradient(inner, [w, sigma])
        return float(inner.value), dw.value, dsigma.value

    def test_second_order_matches_finite_differences(self):
        w, sigma, weights, probe = self.case()
        _, dw, dsigma = self.probe_grad(w, sigma, weights, probe)

        def scalar(arrs):
            return self.probe_grad(arrs[0], arrs[1], weights, probe)[0]

        fd_w, fd_sigma = (fd_gradient(scalar, [w.copy(), sigma.copy()], i)
                          for i in (0, 1))
        assert rel_err(dw, fd_w) < 1e-6
        assert rel_err(dsigma, fd_sigma) < 1e-6

    def test_absent_class_gets_exactly_zero_sigma_cotangent(self):
        # Through an inner sweep too, as the Sigma hypergradient is taken.
        _, _, dsigma = self.probe_grad(*self.case())
        assert np.abs(dsigma[:3]).max(axis=(1, 2)).min() > 0
        assert np.array_equal(dsigma[3], np.zeros((3, 3)))

    def test_node_count_does_not_grow_with_classes(self):
        counts = []
        for c in (1, 5):
            with Tape() as tape:
                quadratic_terms(Tensor(self.rng.normal(size=(c, 3))),
                                Tensor(np.stack([np.eye(3)] * c)),
                                np.arange(c))
            counts.append(len(tape.nodes))
        assert counts[0] == counts[1]

    def test_sigma_shape_checked(self):
        w = Tensor(self.rng.normal(size=(4, 3)))
        for shape in [(3, 3), (3, 3, 3), (4, 3, 2), (4, 9)]:
            with pytest.raises(ad.ShapeError):
                quadratic_terms(w, np.zeros(shape), self.labels)


class TestReplay:
    def test_gradient_of_untaped_target_rejected(self):
        with Tape() as tape:
            x = Tensor(1.0)
            ad.mul(x, x)
        stray = ad.tanh(Tensor(0.5))
        with pytest.raises(ad.ShapeError):
            tape.gradient(stray, [x])
