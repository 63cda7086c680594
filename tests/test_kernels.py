"""Numpy kernels against the taped reference builders and finite differences."""

import copy

import numpy as np
import pytest

from advaug import autodiff as ad
from advaug import kernels
from advaug.autodiff import Tape, Tensor
from advaug.data import Dataset
from advaug.loss import (adjusted_logits, augmented_ce_loss, base_logits,
                         compute_delta, eps_forward, extract_features,
                         quadratic_terms)
from advaug.training import (TrainerConfig, _observe_batch, final_step,
                             init_state, learning_rate, lookahead_meta_loss)

TOL = 1e-10


def rel_err(ours, ref) -> float:
    ours, ref = np.asarray(ours), np.asarray(ref)
    return float(np.abs(ours - ref).max() / max(np.abs(ref).max(), 1e-300))


def random_instance(seed, hidden=(5,), delta=True, diagonal=False,
                    labels=None):
    """Random classifier, batch, perturbation and covariance stack."""
    rng = np.random.default_rng(seed)
    n, in_dim, feat, classes = 7, 4, 3, 4
    dims = [in_dim, *hidden, feat] if hidden else []
    if not hidden:
        in_dim = feat
    phi = []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        phi += [rng.normal(size=(d_in, d_out)), rng.normal(size=d_out)]
    phi += [rng.normal(size=(classes, feat)), rng.normal(size=classes)]
    x = rng.normal(size=(n, in_dim))
    y = (rng.integers(0, classes, size=n) if labels is None
         else np.asarray(labels, dtype=np.intp))
    a = rng.normal(size=(classes, feat, feat))
    sigma = a @ a.transpose(0, 2, 1) / feat
    if diagonal:
        sigma = sigma * np.eye(feat)
    d = (rng.uniform(-0.9, 0.9, size=(n, 1))
         * np.sign(rng.normal(size=(n, feat)))) if delta else None
    priors = rng.uniform(0.1, 1.0, size=classes)
    return phi, x, y, d, sigma, priors / priors.sum()


def ops_of(phi, y, sigma, shift, alpha):
    """The surrogate's `kernels.operands` of the labels y at phi's head."""
    return kernels.operands(phi[-2], y, kernels.label_index(y, phi[-1].size),
                            sigma, shift, alpha)


def taped_surrogate(phi, x, y, delta, sigma, priors, alpha, beta):
    leaves = [Tensor(p) for p in phi]
    with Tape() as tape:
        h = extract_features(leaves, x)
        rho = quadratic_terms(leaves[-2], Tensor(sigma), y)
        z = adjusted_logits(leaves[-2], leaves[-1], h,
                            None if delta is None else Tensor(delta), rho,
                            priors, alpha, beta)
        loss = augmented_ce_loss(z, y)
    grads = tape.gradient(loss, leaves)
    return float(loss.value), [g.value for g in grads]


SURROGATE_CASES = {
    "default": {},
    "alpha_zero": {"alpha": 0.0},
    "no_delta": {"delta": False},
    "diagonal_sigma": {"diagonal": True},
    "identity_extractor": {"hidden": ()},
    "absent_class": {"labels": [0, 1, 0, 2, 1, 0, 2]},
}


@pytest.mark.parametrize("case", SURROGATE_CASES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_surrogate_matches_taped_builders(case, seed):
    opts = dict(SURROGATE_CASES[case])
    alpha = opts.pop("alpha", 0.7)
    phi, x, y, delta, sigma, priors = random_instance(seed, **opts)
    # diagonal covariances reach the kernel as their (C, H) diagonals
    stack = (np.diagonal(sigma, axis1=1, axis2=2).copy()
             if opts.get("diagonal") else sigma)
    ours = kernels.surrogate(
        phi, x, delta, ops_of(phi, y, stack, 0.8 * np.log(priors), alpha))
    value, grads = taped_surrogate(phi, x, y, delta, sigma, priors, alpha,
                                   0.8)
    assert rel_err(ours.value, value) < TOL
    assert len(ours.grads) == len(grads)
    for g_ours, g_ref in zip(ours.grads, grads):
        assert rel_err(g_ours, g_ref) < TOL


def test_quad_diagonal_branch_matches_dense_form():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(4, 4))
    u, v = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
    s = rng.uniform(0.1, 2.0, size=(4, 3))
    stack = np.stack([np.diag(r) for r in s])
    du, dv = kernels.differences(u), kernels.differences(v)
    for slot, given in (("a", dict(du=du, dv=dv)), ("u", dict(a=a, dv=dv)),
                        ("v", dict(a=a, du=du))):
        np.testing.assert_allclose(kernels.quad(slot, s=s, **given),
                                   kernels.quad(slot, s=stack, **given),
                                   rtol=1e-13, atol=1e-15)


def add_at_sums(rows, labels, count):
    """The class sums as np.add.at builds them: a zero table, row order."""
    out = np.zeros((count, rows.shape[1]))
    np.add.at(out, labels, rows)
    return out


@pytest.mark.parametrize("width", [5, 16], ids=["C", "H"])
@pytest.mark.parametrize("n", [1, 64, 769])
def test_sum_by_label_matches_add_at_bit_for_bit(n, width):
    rng = np.random.default_rng(10 * n + width)
    count = 5
    # magnitudes over 16 decades, so another summation order moves bits
    rows = (rng.normal(size=(n, width))
            * 10.0 ** rng.integers(-8, 9, size=(n, width)))
    # class 0 is absent and class 1 a singleton
    labels = rng.integers(2, count, size=n)
    labels[n // 2] = 1
    rows[n // 2, 0] = -0.0
    rows[-1, 1] = np.inf
    rows[0, 2] = -np.inf
    rows[0, 3] = np.nan
    rows[n // 3, -1] = 0.0
    ours = kernels.sum_by_label(rows, kernels.label_bins(labels, width),
                                count)
    assert ours.shape == (count, width)
    assert ours.tobytes() == add_at_sums(rows, labels, count).tobytes()
    assert np.signbit(ours[0]).sum() == 0  # an absent class sums to +0.0


@pytest.mark.parametrize("width", [5, 16], ids=["C", "H"])
def test_sum_by_label_of_no_rows_is_a_float_zero_table(width):
    # np.bincount of no entries returns integer counts
    none = np.array([], dtype=np.intp)
    ours = kernels.sum_by_label(np.ones((0, width)),
                                kernels.label_bins(none, width), 5)
    ref = add_at_sums(np.ones((0, width)), none, 5)
    assert ours.dtype == np.float64 and ours.shape == (5, width)
    assert ours.tobytes() == ref.tobytes()


@pytest.mark.parametrize("bad", [-1, 5, 9])
def test_sum_by_label_refuses_a_label_out_of_range(bad):
    # np.bincount would widen the table for a label >= count
    with pytest.raises(ValueError):
        kernels.sum_by_label(np.ones((3, 4)),
                             kernels.label_bins(np.array([0, bad, 1]), 4), 5)


def hypergradient_reference(phi, train, v, ops):
    """kernels.hypergradient in plain numpy forms: bool ReLU masks, np.sum
    and no reuse of the pass's masks."""
    layers, w = kernels.extractor_layers(phi), phi[-2]
    w_dot, b_dot = v[-2:]
    z_dot = train.feats @ w_dot.T + b_dot
    h_dot = None
    for depth, (w_l, _) in enumerate(layers):
        pre = train.acts[depth] @ v[2 * depth] + v[2 * depth + 1]
        if h_dot is not None:
            pre += h_dot @ w_l
        h_dot = pre * (train.acts[depth + 1] > 0)
    if h_dot is not None:
        z_dot += h_dot @ w.T
    dw_dot, dw, sigma = kernels.differences(w_dot), ops.dw, ops.sigma
    rho_dot = (kernels.quad("a", du=dw_dot, dv=dw, s=sigma)
               + kernels.quad("a", du=dw, dv=dw_dot, s=sigma))
    z_dot += ops.alpha * rho_dot[ops.y]
    q = train.q
    d_z = q * (z_dot - np.sum(q * z_dot, axis=1, keepdims=True)) / ops.y.size
    return d_z @ w + train.g @ w_dot


def head_gradient_reference(phi, x, delta, ops):
    """The surrogate's head gradient in plain numpy forms: the CE tail's
    head gradient plus the u and the v form of the path through rho, with
    np.add.at class sums."""
    acts, feats, z = kernels.forward(phi, x, delta, ops.offset)
    ce = kernels.cross_entropy_tail(phi, ops.label, acts,
                                    kernels.relu_masks(acts), feats, z,
                                    *kernels.softmax_lse(z))
    a = np.zeros((phi[-1].size,) * 2)
    np.add.at(a, ops.y, ce.g)
    a *= ops.alpha
    return ce.grads[-2] + (kernels.quad("u", a=a, dv=ops.dw, s=ops.sigma)
                           + kernels.quad("v", a=a, du=ops.dw, s=ops.sigma))


@pytest.mark.parametrize("diagonal", [False, True], ids=["full", "diagonal"])
def test_hypergradient_matches_plain_numpy_reference_bit_for_bit(diagonal):
    # and the head gradient of the surrogate pass it reads matches its own
    phi, x, y, delta, sigma, priors = random_instance(
        8, hidden=(6, 5), diagonal=diagonal, labels=[2, 0, 2, 2, 1, 0, 2])
    if diagonal:
        sigma = np.diagonal(sigma, axis1=1, axis2=2).copy()
    ops = ops_of(phi, y, sigma, 0.5 * np.log(priors), 0.7)
    rng = np.random.default_rng(9)
    v = [rng.normal(size=p.shape) for p in phi]
    train = kernels.surrogate(phi, x, delta, ops)
    ours = kernels.hypergradient(phi, train, v, ops)
    ref = hypergradient_reference(phi, train, v, ops)
    assert ours.shape == x.shape[:1] + phi[-2].shape[1:]
    assert ours.tobytes() == ref.tobytes()
    head = head_gradient_reference(phi, x, delta, ops)
    assert train.grads[-2].tobytes() == head.tobytes()


def test_plain_cross_entropy_matches_tape():
    phi, x, y, *_ = random_instance(3, hidden=(5, 4))
    ours = kernels.cross_entropy(phi, x, y)
    leaves = [Tensor(p) for p in phi]
    with Tape() as tape:
        z = base_logits(leaves[-2], leaves[-1], extract_features(leaves, x),
                        None)
        loss = augmented_ce_loss(z, y)
    grads = tape.gradient(loss, leaves)
    assert rel_err(ours.value, float(loss.value)) < TOL
    for g_ours, g_ref in zip(ours.grads, grads):
        assert rel_err(g_ours, g_ref.value) < TOL


def test_mlp_jvp_matches_finite_differences():
    phi, x, *_ = random_instance(4, hidden=(6, 5))
    layers = kernels.extractor_layers(phi)
    rng = np.random.default_rng(4)
    tangent = [rng.normal(size=w.shape) for w in phi[:-2]]
    acts = kernels.mlp_forward(layers, x)
    h_dot = kernels.mlp_jvp(layers, acts, kernels.relu_masks(acts), tangent)
    step = 1e-6

    def h_at(t):
        moved = [p + t * d for p, d in zip(phi[:-2], tangent)] + phi[-2:]
        return kernels.mlp_forward(kernels.extractor_layers(moved), x)[-1]

    fd = (h_at(step) - h_at(-step)) / (2 * step)
    assert rel_err(h_dot, fd) < 1e-6
    assert kernels.mlp_jvp([], [x], [], []) is None


def test_eps_kernels_match_taped_net():
    rng = np.random.default_rng(5)
    omega = [rng.normal(scale=0.3, size=s) for s in [(15, 6), 6, (6, 1), 1]]
    f = rng.normal(size=(8, 15))
    grad_eps = rng.normal(size=8)
    ours = kernels.eps_forward(omega, f)
    tensors = [Tensor(w) for w in omega]
    with Tape() as tape:
        eps = eps_forward(tensors, f)
        out = ad.tsum(ad.mul(eps, Tensor(grad_eps[:, None])))
    grads = tape.gradient(out, tensors)
    assert ours.eps.tobytes() == eps.value[:, 0].tobytes()
    for g_ours, g_ref in zip(kernels.eps_backward(omega, ours, grad_eps),
                             grads):
        assert rel_err(g_ours, g_ref.value) < TOL


def test_forward_kernels_only_read_their_inputs():
    phi, x, *_ = random_instance(6, hidden=(5, 4))
    layers = kernels.extractor_layers(phi)
    rng = np.random.default_rng(6)
    omega = [rng.normal(scale=0.3, size=s) for s in [(15, 6), 6, (6, 1), 1]]
    f = rng.normal(size=(7, 15))
    inputs = [x, f, *phi, *omega]
    before = [a.copy() for a in inputs]
    acts = kernels.mlp_forward(layers, x)
    kernels.eps_forward(omega, f)
    assert acts[0] is x
    for a, b in zip(inputs, before, strict=True):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [0, 1, 2, 5, 6, 7, 12, 13])
def test_by_row_blocks_cover_the_rows_without_a_one_row_block(n, monkeypatch):
    monkeypatch.setattr(kernels, "BLOCK_ROWS", 6)
    blocks = kernels.row_blocks(n)
    assert [i for r in blocks for i in range(n)[r]] == list(range(n))
    sizes = [r.stop - r.start for r in blocks]
    assert all(size <= 7 for size in sizes)
    assert n <= 1 or min(sizes) > 1


def sum_order_table(rng, n, width):
    """An (n, width) table whose row sums depend on the order and the start
    of the adds: magnitudes over 40 decades, a row of -0.0 (whose sum from
    +0.0 is +0.0), and NaN, +-inf and subnormal entries."""
    x = (rng.standard_normal((n, width))
         * 10.0 ** rng.uniform(-20, 20, (n, width)))
    x[0] = -0.0
    x[1, -1] = np.nan
    x[2, 0] = np.inf
    x[3, -1] = -np.inf
    x[4] = 5e-324 * rng.integers(-3, 4, width)
    x[5, 0] = np.nan
    x[5, -1] = np.inf
    return x


@pytest.mark.parametrize("width", range(1, 10))
@pytest.mark.parametrize("n", [kernels.FOLD_ROWS - 1, kernels.FOLD_ROWS,
                               611, 768])
def test_row_sum_keeps_the_bits_of_a_row_reduction(n, width):
    x = sum_order_table(np.random.default_rng(n * 10 + width), n, width)
    assert (kernels.row_sum(x).tobytes()
            == np.add.reduce(x, axis=1).tobytes())


@pytest.mark.parametrize("width", [2, 5])
@pytest.mark.parametrize("n", [64, 611, 768])
def test_softmax_lse_keeps_the_bits_of_its_keepdims_form(n, width):
    z = 4.0 * np.random.default_rng(n + width).standard_normal((n, width))
    top = z.max(axis=1, keepdims=True)
    q = np.exp(z - top)
    total = np.add.reduce(q, axis=1, keepdims=True)
    q /= total
    got_q, got_lse = kernels.softmax_lse(z)
    assert got_q.tobytes() == q.tobytes()
    assert got_lse.tobytes() == (np.log(total[:, 0]) + top[:, 0]).tobytes()


# ---------------------------------------------------------------------------
# the lookahead hypergradient against reverse-over-reverse on the tape

def lookahead_state(seed, **overrides):
    """Three classes, six train and six meta rows, all classes observed."""
    rng = np.random.default_rng(seed)
    y = np.array([0, 1, 2, 0, 1, 2])
    ds = Dataset(features=rng.normal(size=(6, 3)), labels=y, num_classes=3)
    md = Dataset(features=rng.normal(size=(6, 3)), labels=y.copy(),
                 num_classes=3)
    fields = dict(t1=0, t2=10, alpha=0.6, beta=0.7, batch_train=6,
                  batch_meta=6, hidden=(4,), feat_dim=3, perturb_hidden=5,
                  seed=seed)
    state = init_state(TrainerConfig(**(fields | overrides)), ds, md)
    state.t = 1
    state.perturb.load_values([rng.normal(scale=0.3, size=a.shape)
                               for a in state.perturb.arrays()])
    _observe_batch(state, np.arange(6))
    return state


def dense(sigma):
    """A covariance stack as (C, H, H), expanding (C, H) diagonals."""
    return sigma if sigma.ndim == 3 else np.stack([np.diag(r) for r in sigma])


def taped_lookahead(state, batch_idx, meta_idx, f, grad_h):
    """The lookahead on one tape, differentiated reverse-over-reverse in
    the perturbation net."""
    cfg = state.config
    x = state.dataset.features[batch_idx]
    y = state.dataset.labels[batch_idx]
    omega = [Tensor(a) for a in state.perturb.arrays()]
    phi = [Tensor(a) for a in state.params.arrays()]
    sigma = Tensor(dense(state.stats.covariances()))
    lr = Tensor(learning_rate(cfg, state.t))
    with Tape() as tape:
        delta = compute_delta(grad_h, eps_forward(omega, f))
        rho = quadratic_terms(phi[-2], sigma, y)
        z = adjusted_logits(phi[-2], phi[-1], extract_features(phi, x),
                            delta, rho, state.priors, cfg.alpha, cfg.beta)
        loss = augmented_ce_loss(z, y)
        grads = tape.gradient(loss, phi)
        ahead = [ad.sub(p, ad.mul(lr, g)) for p, g in zip(phi, grads)]
        h = extract_features(ahead, state.metadata.features[meta_idx])
        meta = augmented_ce_loss(base_logits(ahead[-2], ahead[-1], h, None),
                                 state.metadata.labels[meta_idx])
    return float(meta.value), [g.value for g in tape.gradient(meta, omega)]


LOOKAHEAD_CASES = {
    "default": {},
    "diagonal_sigma": {"diagonal_sigma": True},
    "freeze_eps": {"freeze_eps": True},
    "alpha_zero": {"alpha": 0.0},
    "two_hidden_layers": {"hidden": (4, 5)},
    "identity_extractor": {"hidden": ()},
}


@pytest.mark.parametrize("case", [case for case in LOOKAHEAD_CASES
                                  if case != "freeze_eps"])
def test_hypergradient_matches_reverse_over_reverse(case):
    state = lookahead_state(1, **LOOKAHEAD_CASES[case])
    batch = np.array([0, 1, 3, 4])  # class 2 is absent
    meta_idx = np.arange(6)
    obs = _observe_batch(state, batch)
    ours = lookahead_meta_loss(state, obs, meta_idx)
    value, omega_grads = taped_lookahead(
        state, batch, meta_idx, obs.characteristics, obs.view.grad_h)
    assert rel_err(ours.meta_loss, value) < TOL
    for g_ours, g_ref in zip(ours.omega_grads, omega_grads, strict=True):
        assert rel_err(g_ours, g_ref) < TOL


@pytest.mark.parametrize("case", ["default", "two_hidden_layers",
                                  "identity_extractor", "freeze_eps"])
def test_classifier_steps_leave_the_observed_activations_unchanged(case):
    # The final step reuses the activations the lookahead read: an in-place
    # op on one of them would corrupt that step silently. A frozen-eps
    # iteration runs no lookahead, only the final step.
    state = lookahead_state(2, **LOOKAHEAD_CASES[case])
    batch = np.array([0, 1, 2, 4])
    obs = _observe_batch(state, batch)
    before = [a.copy() for a in obs.acts]
    if not state.config.freeze_eps:
        lookahead_meta_loss(state, obs, np.arange(6))
        for a, b in zip(obs.acts, before, strict=True):
            assert a.tobytes() == b.tobytes()
    final_step(state, obs)
    for a, b in zip(obs.acts, before, strict=True):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("case", ["default", "diagonal_sigma", "freeze_eps"])
def test_stages_read_the_batch_only_from_the_observation(case):
    # Labels rewritten after the observation reach none of the later stages:
    # the lookahead (none in a frozen-eps iteration) and the final step give
    # the bits of the untouched state.
    state = lookahead_state(3, **LOOKAHEAD_CASES[case])
    batch = np.array([0, 1, 3, 4])  # classes 0, 1, 0, 1
    runs = []
    for rewrite in (False, True):
        copied = copy.deepcopy(state)
        obs = _observe_batch(copied, batch)
        if rewrite:  # the batch would read classes 2, 0, 2, 0
            copied.dataset.labels[:] = np.roll(copied.dataset.labels, 1)
        outputs = []
        if not copied.config.freeze_eps:
            ahead = lookahead_meta_loss(copied, obs, np.arange(6))
            outputs = [np.float64(ahead.meta_loss), *ahead.omega_grads]
        final_step(copied, obs)
        runs.append(outputs + [copied.params.vector.copy()])
    for a, b in zip(*runs, strict=True):
        assert a.tobytes() == b.tobytes()
